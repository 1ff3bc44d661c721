//! `mitigate-blend`: the `attack-blend` scenario (a /16 flood and a /24
//! scan with staggered onsets) through one in-process `Pipeline`:
//! `RuleFilter<TableGate>` feeds `ShardedDisjoint` with two `MvPipeHhh`
//! shards and 5 s windows, and the sink calls `PolicyEngine::ingest`,
//! which edits the table the gate reads on every packet.
//!
//! The per-packet gate dominates. It never calls transport or the
//! daemon.

use crate::probe::{
    self, lag_since_handover, Handovers, Layer, Probed, ProbedGate, ProbedSource, Replay,
};
use crate::util::{self, fnv1a, FNV_BASIS};
use crate::{Metric, Phase, Workload};
use hhh_aggd::scenario::{distagg_threshold, hierarchy, DISTAGG_MVPIPE_BUCKETS, DISTAGG_WINDOW};
use hhh_core::{HhhDetector, MergeableDetector, MvPipeHhh};
use hhh_mitigate::{Action, GateTotals, PolicyConfig, PolicyEngine, TableGate};
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_window::{
    shard_of, FnSink, PacketGate, Pipeline, RuleFilter, ShardedDisjoint, Source, WindowReport,
};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

const TRACE: TimeSpan = TimeSpan::from_secs(60);
const WINDOW: TimeSpan = DISTAGG_WINDOW;
const SHARDS: usize = 2;
/// Trace replays per pipeline run; one run is one unit of timed work.
const ROUND_REPS: u64 = 4;
/// Least share of attack bytes the gate must drop once a rule covering
/// a planted prefix fired. `BENCH_pr10.json`'s closed-loop attack-blend
/// runs dropped 0.44 (mvpipe) to 0.65 (exact) of them.
const MIN_ATTACK_DROP: f64 = 0.25;

fn key(p: &PacketRecord) -> u32 {
    p.src
}

fn covers_planted(truth: &[Ipv4Prefix], prefix: Ipv4Prefix) -> bool {
    truth.iter().any(|t| t.contains(prefix) || prefix.contains(*t))
}

/// How many planted prefixes a fired rule at or above them covers.
fn planted_covered(truth: &[Ipv4Prefix], engine: &PolicyEngine) -> usize {
    truth.iter().filter(|t| engine.fired_log().iter().any(|f| f.prefix.contains(**t))).count()
}

/// What one pipeline run decided: the digest of its rule-fire log and
/// gate totals, and the counts behind the mitigation metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Outcome {
    digest: u64,
    totals: GateTotals,
    attack_since_fire: (u64, u64),
    fired: usize,
    covered: usize,
    max_active: usize,
    churn: u64,
}

fn digest(engine: &PolicyEngine, totals: &GateTotals) -> u64 {
    let mut h = FNV_BASIS;
    for f in engine.fired_log() {
        h = fnv1a(h, format!("{} {} {};", f.prefix, f.at.as_nanos(), f.action.label()).as_bytes());
    }
    h = fnv1a(h, format!("{totals:?}").as_bytes());
    h
}

pub struct Mitigate {
    packets: Vec<PacketRecord>,
    truth: Vec<Ipv4Prefix>,
    /// The outcome every round must reproduce.
    reference: Outcome,
    /// Packets the reference's gate dropped with no block or rate-limit
    /// rule in the table covering them; must be 0.
    unruled_drops: u64,
}

impl Mitigate {
    /// One pipeline run over `ROUND_REPS` replays with a fresh policy and
    /// rule table.
    fn round(&self) -> (Phase, Outcome) {
        let handovers = Handovers::default();
        let mut phase = Phase::default();
        let mut policy = PolicyEngine::new(PolicyConfig::default());
        let table = policy.table();
        let armed = Rc::new(Cell::new(false));
        let gate = ProbedGate::new(
            TableGate::new(policy.table()).with_truth(self.truth.clone()),
            Rc::clone(&armed),
        );
        let replay = Replay::new(
            &self.packets,
            TRACE.as_nanos(),
            ROUND_REPS,
            WINDOW.as_nanos(),
            handovers.clone(),
        );
        let mut filter = RuleFilter::new(replay, gate);
        let engine = ShardedDisjoint::new(
            vec![Probed(MvPipeHhh::new(hierarchy(), DISTAGG_MVPIPE_BUCKETS)); SHARDS],
            TRACE * ROUND_REPS,
            WINDOW,
            &[distagg_threshold()],
            key,
        );
        let (mut windows, mut max_active, mut fired_seen) = (0u64, 0usize, 0usize);
        let truth = &self.truth;
        let sink = FnSink(|_series: usize, report: WindowReport<Ipv4Prefix>| {
            let t0 = Instant::now();
            probe::timed(Layer::Policy, 1, || policy.ingest(&report));
            let now = Instant::now();
            if let Some(lag) = lag_since_handover(&handovers, report.end.as_nanos(), now) {
                phase.lags_ms.push(lag);
            }
            windows += 1;
            let log = policy.fired_log();
            if !armed.get() && log[fired_seen..].iter().any(|f| covers_planted(truth, f.prefix)) {
                armed.set(true);
            }
            fired_seen = log.len();
            max_active = max_active.max(table.lock().expect("rule table lock").len());
            if probe::tracing() {
                probe::record(Layer::Sink, t0, Instant::now(), 1);
            }
        });
        let t0 = Instant::now();
        Pipeline::new(ProbedSource(&mut filter)).engine(engine).sink(sink).run();
        phase.wall_s = t0.elapsed().as_secs_f64();
        let (replay, gate) = filter.into_parts();
        phase.packets = replay.handed;
        let want = ROUND_REPS * (TRACE / WINDOW);
        phase.attempted = want;
        if windows != want {
            phase.failed += want.abs_diff(windows);
            phase.problems.push(format!("{windows} windows reported, {want} expected"));
        }
        let totals = gate.inner.totals();
        let churn = table.lock().expect("rule table lock").churn();
        let outcome = Outcome {
            digest: digest(&policy, &totals),
            totals,
            attack_since_fire: gate.attack_since_arm(),
            fired: policy.fired_log().len(),
            covered: planted_covered(&self.truth, &policy),
            max_active,
            churn,
        };
        (phase, outcome)
    }

    /// The same run without `Pipeline`, sharded engine or worker threads:
    /// each chunk gated whole in replay order (as `RuleFilter` does), its
    /// survivors routed by `shard_of` into two detectors, merged in shard
    /// order at each window boundary and ingested. Also counts the drops
    /// that no enforcing rule in the table covers.
    fn reference(&self) -> (Outcome, u64) {
        let mut policy = PolicyEngine::new(PolicyConfig::default());
        let table = policy.table();
        let armed = Rc::new(Cell::new(false));
        let mut gate = ProbedGate::new(
            TableGate::new(policy.table()).with_truth(self.truth.clone()),
            Rc::clone(&armed),
        );
        let mut dets = vec![MvPipeHhh::new(hierarchy(), DISTAGG_MVPIPE_BUCKETS); SHARDS];
        let mut replay = Replay::new(
            &self.packets,
            TRACE.as_nanos(),
            ROUND_REPS,
            WINDOW.as_nanos(),
            Handovers::default(),
        );
        let n_windows = ROUND_REPS * (TRACE / WINDOW);
        let (mut cur, mut max_active) = (0u64, 0usize);
        let mut flush = |cur: u64, dets: &mut [MvPipeHhh<_>], policy: &mut PolicyEngine| {
            let mut merged = dets[0].clone();
            for d in &dets[1..] {
                merged.merge(d);
            }
            let report = WindowReport {
                index: cur,
                start: Nanos::ZERO + WINDOW * cur,
                end: Nanos::ZERO + WINDOW * (cur + 1),
                total: merged.total(),
                hhhs: merged.report(distagg_threshold()),
            };
            let before = policy.fired_log().len();
            policy.ingest(&report);
            max_active = max_active.max(table.lock().expect("rule table lock").len());
            for d in dets.iter_mut() {
                d.reset();
            }
            policy.fired_log()[before..].iter().any(|f| covers_planted(&self.truth, f.prefix))
        };
        let enforced = |addr: u32| {
            let host = Ipv4Prefix::new(addr, 32);
            let table = table.lock().expect("rule table lock");
            let covered =
                table.iter().any(|r| r.action != Action::Watch && r.prefix.contains(host));
            covered
        };
        let mut unruled_drops = 0u64;
        let mut chunk = Vec::new();
        let mut survivors = Vec::new();
        while {
            chunk.clear();
            replay.pull_chunk(&mut chunk)
        } {
            survivors.clear();
            for p in &chunk {
                if gate.admit(p) {
                    survivors.push(*p);
                } else if !enforced(p.src) {
                    unruled_drops += 1;
                }
            }
            for p in &survivors {
                let w = p.ts.bin_index(WINDOW);
                while cur < w.min(n_windows) {
                    if flush(cur, &mut dets, &mut policy) {
                        armed.set(true);
                    }
                    cur += 1;
                }
                dets[shard_of(&p.src, SHARDS)].observe(p.src, u64::from(p.wire_len));
            }
        }
        while cur < n_windows {
            flush(cur, &mut dets, &mut policy);
            cur += 1;
        }
        let totals = gate.inner.totals();
        let churn = table.lock().expect("rule table lock").churn();
        let outcome = Outcome {
            digest: digest(&policy, &totals),
            totals,
            attack_since_fire: gate.attack_since_arm(),
            fired: policy.fired_log().len(),
            covered: planted_covered(&self.truth, &policy),
            max_active,
            churn,
        };
        (outcome, unruled_drops)
    }
}

impl Workload for Mitigate {
    fn setup(seed: u64) -> Result<Self, String> {
        let scenario = hhh_loadgen::scenario::attack_blend(TRACE, seed);
        let packets = scenario.packets;
        if packets.is_empty() || packets.iter().any(|p| p.ts.as_nanos() >= TRACE.as_nanos()) {
            return Err("attack-blend trace empty or longer than its period".into());
        }
        let truth = scenario.truth.planted.iter().map(|p| p.prefix).collect();
        let mut w = Mitigate { packets, truth, reference: Outcome::default(), unruled_drops: 0 };
        (w.reference, w.unruled_drops) = w.reference();
        util::mark_inputs_built();
        let (warm, outcome) = w.round();
        if let Some(p) = warm.problems.first() {
            return Err(format!("warm-up: {p}"));
        }
        if outcome != w.reference {
            return Err(format!(
                "warm-up round {outcome:?} differs from the reference {:?}",
                w.reference
            ));
        }
        Ok(w)
    }

    fn run(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            let (round, outcome) = self.round();
            phase.absorb(round);
            if outcome != self.reference {
                phase.problems.push(format!(
                    "rule log and gate totals {outcome:?} differ from the reference {:?}",
                    self.reference
                ));
            }
        }
        phase
    }

    fn finish(&mut self, phase: &mut Phase) -> Vec<String> {
        // Every round reproduced the reference, so its figures are the
        // run's. These checks hold them to fixed expectations, which a
        // gate or policy broken on both sides alike cannot meet.
        let r = &self.reference;
        let (attack_offered, attack_dropped) = r.attack_since_fire;
        let attack_drop = attack_dropped as f64 / attack_offered.max(1) as f64;
        let collateral =
            r.totals.legit_dropped_bytes as f64 / r.totals.legit_offered_bytes.max(1) as f64;
        // Not every planted prefix: on some seeds (1005, say) no rule
        // ever covers the /24 scan, and only the /16 flood is blocked.
        if r.covered == 0 {
            phase.problems.push(format!(
                "no fired rule covers any of the {} planted prefixes",
                self.truth.len()
            ));
        }
        if attack_offered == 0 || attack_drop < MIN_ATTACK_DROP {
            phase.problems.push(format!(
                "gate dropped {attack_drop} of {attack_offered} attack bytes after the first \
                 planted rule, at least {MIN_ATTACK_DROP} expected"
            ));
        }
        // Collateral is recorded, not limited: on some seeds the policy
        // rate-limits a legit /16 (seed 9006: 3.0.0.0/16 from 25 s, 0.146
        // of legit bytes). What must hold is that the gate drops only
        // under a block or rate-limit rule of the table.
        if self.unruled_drops > 0 {
            phase.problems.push(format!(
                "the gate dropped {} packets no block or rate-limit rule covers",
                self.unruled_drops
            ));
        }
        vec![
            format!("\"attack_drop_ratio\": {attack_drop}"),
            format!("\"collateral_ratio\": {collateral}"),
            format!("\"planted_covered\": {}", r.covered),
            format!("\"rule_log_digest\": \"{:016x}\"", r.digest),
            format!("\"rules_fired_per_round\": {}", r.fired),
        ]
    }

    fn layers(&mut self, traced: &Phase) -> Vec<Metric> {
        let t = probe::totals;
        let (source, filter, observe, merge, report, policy, sink) = (
            t(Layer::Source),
            t(Layer::Filter),
            t(Layer::Observe),
            t(Layer::Merge),
            t(Layer::Report),
            t(Layer::Policy),
            t(Layer::Sink),
        );
        let driver_children = filter.driver_ns
            + sink.driver_ns
            + merge.driver_ns
            + report.driver_ns
            + t(Layer::Encode).driver_ns;
        let pkts = traced.packets as f64;
        let windows = traced.attempted as f64;
        let mut m = crate::zero_layers();
        crate::set(&mut m, "window.source.ns_per_pkt", source.ns_per_item());
        crate::set(
            &mut m,
            "window.engine.self_ns_per_pkt",
            (traced.wall_s * 1e9 - driver_children as f64).max(0.0) / pkts,
        );
        crate::set(&mut m, "core.observe.ns_per_pkt", observe.ns_per_item());
        crate::set(&mut m, "core.merge.us_per_call", merge.us_per_call());
        crate::set(&mut m, "core.merge.calls", merge.calls as f64 / windows);
        crate::set(&mut m, "core.report.us_per_call", report.us_per_call());
        crate::set(&mut m, "core.encode.us_per_frame", t(Layer::Encode).us_per_call());
        crate::set(
            &mut m,
            "mitigate.gate.ns_per_pkt",
            filter.ns.saturating_sub(source.ns) as f64 / pkts,
        );
        crate::set(
            &mut m,
            "mitigate.gate.drop_ratio",
            self.reference.totals.packets_dropped as f64
                / self.reference.totals.packets_offered.max(1) as f64,
        );
        crate::set(&mut m, "mitigate.policy.us_per_window", policy.us_per_call());
        crate::set(&mut m, "mitigate.rules.max_active", self.reference.max_active as f64);
        crate::set(&mut m, "mitigate.rules.churn", self.reference.churn as f64);
        m
    }

    fn budget() -> (usize, usize) {
        (SHARDS, 0)
    }
}
