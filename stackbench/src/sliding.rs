//! `sliding-hidden`: the `hidden-burst` scenario through `ShardedSliding`
//! with `ExactHhh` at two shards, a 5 s window and a 100 ms step.
//!
//! Most of its time is per-position work (epoch close, rolling merge and
//! retract, the per-step report). It never calls transport, fold, gate or
//! policy, so it is the no-change control for those layers.

use crate::probe::{self, lag_since_handover, Handovers, Layer, Probed, Replay};
use crate::util;
use crate::{Metric, Phase, Workload};
use hhh_aggd::scenario::{distagg_threshold, hierarchy};
use hhh_core::ExactHhh;
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_window::{Disjoint, FnSink, Pipeline, ShardedSliding, SlidingExact, WindowReport};
use std::time::Instant;

/// The synthesized trace; the replay period is stretched from it.
const TRACE: TimeSpan = TimeSpan::from_secs(80);
/// Mean packets per step of every replay, whatever the seed.
const PKTS_PER_STEP: f64 = 1_800.0;
const WINDOW: TimeSpan = TimeSpan::from_secs(5);
const STEP: TimeSpan = TimeSpan::from_millis(100);
const SHARDS: usize = 2;
/// Trace replays per pipeline run; one run is one unit of timed work.
const ROUND_REPS: u64 = 2;

fn key(p: &PacketRecord) -> u32 {
    p.src
}

pub struct Sliding {
    /// The trace, stretched to `period`.
    packets: Vec<PacketRecord>,
    /// The replay period, a whole number of steps.
    period: TimeSpan,
    /// `SlidingExact` positions over two replays: position `p` of any
    /// longer replay equals position `p % (period / STEP)` here.
    oracle: Vec<WindowReport<Ipv4Prefix>>,
    hidden: (usize, usize, usize),
    baseline_pkts_per_s: f64,
    positions: u64,
}

impl Sliding {
    fn round(&self) -> Phase {
        let handovers = Handovers::default();
        let mut phase = Phase::default();
        let steps = self.period / STEP;
        let oracle = &self.oracle;
        let mut reports = 0u64;
        let replay = Replay::new(
            &self.packets,
            self.period.as_nanos(),
            ROUND_REPS,
            STEP.as_nanos(),
            handovers.clone(),
        );
        let engine = ShardedSliding::new(
            SHARDS,
            |_| Probed(ExactHhh::new(hierarchy())),
            self.period * ROUND_REPS,
            WINDOW,
            STEP,
            &[distagg_threshold()],
            key,
        );
        let sink = FnSink(|_series: usize, report: WindowReport<Ipv4Prefix>| {
            let t0 = Instant::now();
            if let Some(lag) = lag_since_handover(&handovers, report.end.as_nanos(), t0) {
                phase.lags_ms.push(lag);
            }
            reports += 1;
            let want = &oracle[(report.index % steps) as usize];
            if want.total != report.total || want.hhhs != report.hhhs {
                phase.problems.push(format!(
                    "position {} differs from the SlidingExact oracle",
                    report.index
                ));
            }
            if probe::tracing() {
                probe::record(Layer::Sink, t0, Instant::now(), 1);
            }
        });
        let t0 = Instant::now();
        Pipeline::new(replay).engine(engine).sink(sink).run();
        phase.wall_s = t0.elapsed().as_secs_f64();
        phase.packets = self.packets.len() as u64 * ROUND_REPS;
        let want = ROUND_REPS * steps - WINDOW / STEP + 1;
        phase.attempted = want;
        if reports != want {
            phase.failed += want.abs_diff(reports);
            phase.problems.push(format!("{reports} positions reported, {want} expected"));
        }
        phase
    }
}

impl Workload for Sliding {
    fn setup(seed: u64) -> Result<Self, String> {
        let scenario = hhh_loadgen::scenario::hidden_burst(TRACE, seed);
        let mut packets = scenario.packets;
        if packets.is_empty() || packets.iter().any(|p| p.ts.as_nanos() >= TRACE.as_nanos()) {
            return Err("hidden-burst trace empty or longer than it was synthesized for".into());
        }
        // Most of a round's time is per-position work, so a seed's packet
        // count would move `pkts_per_s` on its own (1,646 to 1,954
        // packets a step across seeds at 80 s). Stretch the trace to the
        // whole number of steps that holds `PKTS_PER_STEP` a step.
        let steps = ((packets.len() as f64 / PKTS_PER_STEP).round() as u64).max(WINDOW * 2 / STEP);
        let period = STEP * steps;
        for p in &mut packets {
            let ts = u128::from(p.ts.as_nanos()) * u128::from(period.as_nanos())
                / u128::from(TRACE.as_nanos());
            p.ts = Nanos::from_nanos(ts as u64);
        }
        let h = hierarchy();
        let t0 = Instant::now();
        let oracle = Pipeline::new(Replay::new(
            &packets,
            period.as_nanos(),
            2,
            STEP.as_nanos(),
            Handovers::default(),
        ))
        .engine(SlidingExact::new(&h, period * 2, WINDOW, STEP, &[distagg_threshold()], key))
        .collect()
        .run()
        .remove(0);
        let baseline_pkts_per_s = 2.0 * packets.len() as f64 / t0.elapsed().as_secs_f64();

        let disjoint = Pipeline::new(packets.iter().copied())
            .engine(Disjoint::new(ExactHhh::new(h), period, WINDOW, &[distagg_threshold()], key))
            .collect()
            .run()
            .remove(0);
        // The sliding positions inside the whole disjoint windows.
        let covered = WINDOW * (period / WINDOW);
        let one_trace = (covered / STEP - WINDOW / STEP + 1) as usize;
        let hidden = hhh_analysis::hidden::hidden_hhh(&oracle[..one_trace], &disjoint);

        util::mark_inputs_built();
        let w = Sliding {
            packets,
            period,
            oracle,
            hidden: (
                hidden.hidden_prefixes.len(),
                hidden.sliding_distinct,
                hidden.disjoint_distinct,
            ),
            baseline_pkts_per_s,
            positions: 0,
        };
        let warm = w.round();
        if let Some(p) = warm.problems.first() {
            return Err(format!("warm-up: {p}"));
        }
        Ok(w)
    }

    fn run(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            let round = self.round();
            self.positions += round.attempted;
            phase.absorb(round);
        }
        phase
    }

    fn finish(&mut self, _phase: &mut Phase) -> Vec<String> {
        vec![
            format!("\"hidden_hhh\": {}", self.hidden.0),
            format!("\"sliding_distinct\": {}", self.hidden.1),
            format!("\"disjoint_distinct\": {}", self.hidden.2),
            format!("\"positions\": {}", self.positions),
            format!("\"period_s\": {}", self.period.as_secs_f64()),
            "\"f1\": 1.0".into(),
        ]
    }

    fn layers(&mut self, traced: &Phase) -> Vec<Metric> {
        let t = probe::totals;
        let (source, observe, merge, retract, report, sink) = (
            t(Layer::Source),
            t(Layer::Observe),
            t(Layer::Merge),
            t(Layer::Retract),
            t(Layer::Report),
            t(Layer::Sink),
        );
        let driver_children = source.driver_ns
            + sink.driver_ns
            + merge.driver_ns
            + retract.driver_ns
            + report.driver_ns
            + t(Layer::Encode).driver_ns;
        let pkts = traced.packets as f64;
        let positions = traced.attempted as f64;
        let mut m = crate::zero_layers();
        crate::set(&mut m, "window.source.ns_per_pkt", source.ns_per_item());
        crate::set(
            &mut m,
            "window.engine.self_ns_per_pkt",
            (traced.wall_s * 1e9 - driver_children as f64).max(0.0) / pkts,
        );
        crate::set(&mut m, "core.observe.ns_per_pkt", observe.ns_per_item());
        crate::set(&mut m, "core.merge.us_per_call", merge.us_per_call());
        crate::set(&mut m, "core.merge.calls", merge.calls as f64 / positions);
        crate::set(&mut m, "core.retract.us_per_call", retract.us_per_call());
        crate::set(&mut m, "core.retract.calls", retract.calls as f64 / positions);
        crate::set(&mut m, "core.report.us_per_call", report.us_per_call());
        crate::set(&mut m, "core.encode.us_per_frame", t(Layer::Encode).us_per_call());
        crate::set(&mut m, "baseline.sliding_exact.pkts_per_s", self.baseline_pkts_per_s);
        m
    }

    fn budget() -> (usize, usize) {
        (SHARDS, 0)
    }
}
