//! `fleet-serve`: the `zipf-mix` day trace with the exact kind, 1 s
//! windows and two shard streams into an in-process `hhh-aggd`.
//!
//! The driving thread plays both shards: per window and shard it calls
//! `observe_batch`, `to_frame` and `TcpTransport::write_frame`, then
//! sends `GET /hhh?kind=exact` until the window is served. Encode,
//! transport, the hub, the fold and HTTP do most of the work; it never
//! calls the sharded engine, the gate or the policy.

use crate::probe::{self, Layer, Probed, ProbedWrite};
use crate::util::{self, http_get};
use crate::{Metric, Phase, Workload};
use hhh_agg::{fold_streams, write_merged};
use hhh_aggd::scenario::{distagg_threshold, hierarchy, shard_label, stream_id, Kind};
use hhh_aggd::{spawn_daemon, DaemonConfig, DaemonHandle};
use hhh_core::{ExactHhh, HhhDetector, MergeableDetector, WireFormat, WireSnapshot};
use hhh_hierarchy::Ipv4Hierarchy;
use hhh_loadgen::score::metric_value;
use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
use hhh_window::{shard_of, FrameWrite, TcpTransport, WindowReport};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const TRACE: TimeSpan = TimeSpan::from_secs(60);
const WINDOW: TimeSpan = TimeSpan::from_secs(1);
const SHARDS: usize = 2;
/// The daemon's default retention; warm-up fills it, so query cost
/// stays flat through the timed phase.
const RETAIN: u64 = 720;
/// A window not served this long after its last frame write failed.
const DEADLINE: Duration = Duration::from_secs(2);
const LATEST: &str = "/hhh?kind=exact";
/// The traced half times the fold on one window in this many: waiting
/// for it means yielding in a loop, which takes CPU from the daemon.
const FOLD_SAMPLE: u64 = 8;

type Det = Probed<ExactHhh<Ipv4Hierarchy>>;

pub struct Fleet {
    /// Packets of each window of one trace.
    by_window: Vec<Vec<PacketRecord>>,
    /// The unsharded exact report of each window of one trace.
    oracle: Vec<WindowReport<Ipv4Prefix>>,
    daemon: DaemonHandle,
    writers: Vec<ProbedWrite<TcpTransport>>,
    dets: Vec<Det>,
    batches: Vec<Vec<(u32, u64)>>,
    /// The next window to play, counted from the daemon's start.
    next: u64,
    f1: Vec<f64>,
    fold_lags_ms: Vec<f64>,
    query_ms: Vec<f64>,
    query_bytes: Vec<f64>,
    metrics: String,
}

fn windows_per_trace() -> u64 {
    TRACE / WINDOW
}

/// F1 of the served HHH prefix set against the oracle's.
fn f1(served: &WindowReport<Ipv4Prefix>, want: &WindowReport<Ipv4Prefix>) -> f64 {
    let a: BTreeSet<_> = served.hhhs.iter().map(|h| h.prefix).collect();
    let b: BTreeSet<_> = want.hhhs.iter().map(|h| h.prefix).collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    2.0 * a.intersection(&b).count() as f64 / (a.len() + b.len()) as f64
}

impl Fleet {
    fn bounds(g: u64) -> (Nanos, Nanos) {
        (Nanos::ZERO + WINDOW * g, Nanos::ZERO + WINDOW * (g + 1))
    }

    /// Observe window `g` into the shard detectors.
    fn observe(&mut self, g: u64) -> u64 {
        let pkts = &self.by_window[(g % windows_per_trace()) as usize];
        let batches = &mut self.batches;
        probe::timed(Layer::Source, pkts.len() as u64, || {
            for b in batches.iter_mut() {
                b.clear();
            }
            for p in pkts {
                batches[shard_of(&p.src, SHARDS)].push((p.src, u64::from(p.wire_len)));
            }
        });
        for (det, batch) in self.dets.iter_mut().zip(&self.batches) {
            det.reset();
            det.observe_batch(batch);
        }
        pkts.len() as u64
    }

    /// Observe the next window and write both shards' frames; returns
    /// the window's index and end.
    fn play(&mut self, phase: &mut Phase) -> (u64, Nanos) {
        let g = self.next;
        self.next += 1;
        let (start, end) = Self::bounds(g);
        phase.packets += self.observe(g);
        for (det, writer) in self.dets.iter().zip(&mut self.writers) {
            let frame = det.to_frame(start, end).expect("the exact detector encodes natively");
            phase.attempted += 1;
            if let Err(e) = writer.write_frame(&frame) {
                phase.failed += 1;
                eprintln!("stackbench: frame write for window {g}: {e}");
            }
        }
        (g, end)
    }

    /// Play the next window and wait until the daemon serves it.
    fn window(&mut self, phase: &mut Phase) {
        let (g, end) = self.play(phase);
        let written = Instant::now();

        if probe::tracing() && g.is_multiple_of(FOLD_SAMPLE) {
            // The fold's own view, read through the public registry.
            loop {
                let visible = {
                    let fold = self.daemon.registry.fold.lock().expect("fold lock");
                    fold.latest("exact").is_some_and(|p| p.at == end && p.folded == SHARDS)
                };
                if visible {
                    self.fold_lags_ms.push(written.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                if written.elapsed() > DEADLINE {
                    break;
                }
                std::thread::yield_now();
            }
        }

        let want = &self.oracle[(g % windows_per_trace()) as usize];
        phase.attempted += 1; // the window itself
        loop {
            phase.attempted += 1;
            let t0 = Instant::now();
            let got = http_get(self.daemon.http_addr, LATEST);
            let held = Instant::now();
            let served = match got {
                Ok((200, body)) => {
                    if probe::tracing() {
                        probe::record(Layer::Http, t0, held, body.len() as u64);
                        self.query_ms.push(held.duration_since(t0).as_secs_f64() * 1e3);
                        self.query_bytes.push(body.len() as f64);
                    }
                    match hhh_mitigate::parse_policy_windows(&String::from_utf8_lossy(&body)) {
                        Ok(reports) => reports
                            .into_iter()
                            .last()
                            .filter(|r| r.end == end && r.total == want.total),
                        Err(e) => {
                            phase.failed += 1;
                            phase.problems.push(format!("window {g}: unparsable /hhh: {e}"));
                            None
                        }
                    }
                }
                Ok((code, _)) => {
                    phase.failed += 1;
                    eprintln!("stackbench: GET {LATEST} -> {code}");
                    None
                }
                Err(e) => {
                    phase.failed += 1;
                    eprintln!("stackbench: GET {LATEST}: {e:?}");
                    None
                }
            };
            if let Some(report) = served {
                phase.lags_ms.push(held.duration_since(written).as_secs_f64() * 1e3);
                self.f1.push(f1(&report, want));
                if report.hhhs != want.hhhs {
                    phase.problems.push(format!("window {g} differs from the exact oracle"));
                }
                return;
            }
            if written.elapsed() > DEADLINE {
                phase.failed += 1;
                eprintln!("stackbench: window {g} not served within {DEADLINE:?}");
                return;
            }
        }
    }

    /// The daemon's final `all=1&state=1` answer against `fold_streams`
    /// over the same frames, rebuilt for the windows it retains.
    fn check_final(&mut self) -> Result<(), String> {
        let first = self.next.saturating_sub(RETAIN);
        let mut streams: Vec<Vec<WireSnapshot>> = vec![Vec::new(); SHARDS];
        for g in first..self.next {
            self.observe(g);
            let (start, end) = Self::bounds(g);
            for (det, stream) in self.dets.iter().zip(&mut streams) {
                let frame = det.to_frame(start, end).expect("the exact detector encodes natively");
                stream.push(WireSnapshot::Binary(frame));
            }
        }
        let points = fold_streams(&hierarchy(), &streams).map_err(|e| e.to_string())?;
        let mut want = Vec::new();
        write_merged(&mut want, points.iter(), &[distagg_threshold()], true, WireFormat::Json)
            .map_err(|e| e.to_string())?;
        let path = "/hhh?kind=exact&all=1&state=1";
        match http_get(self.daemon.http_addr, path) {
            Ok((200, body)) if body == want => Ok(()),
            Ok((200, body)) => Err(format!(
                "{path} ({} bytes) is not byte-identical to fold_streams ({} bytes)",
                body.len(),
                want.len()
            )),
            Ok((code, _)) => Err(format!("{path} -> {code}")),
            Err(e) => Err(format!("{path}: {e:?}")),
        }
    }
}

impl Workload for Fleet {
    fn setup(seed: u64) -> Result<Self, String> {
        let packets = hhh_loadgen::scenario::zipf_mix(TRACE, seed).packets;
        let mut by_window = vec![Vec::new(); windows_per_trace() as usize];
        for p in &packets {
            let bin = by_window
                .get_mut(p.ts.bin_index(WINDOW) as usize)
                .ok_or("zipf-mix trace longer than its period")?;
            bin.push(*p);
        }
        let threshold = distagg_threshold();
        let oracle = by_window
            .iter()
            .enumerate()
            .map(|(w, pkts)| {
                let mut exact = ExactHhh::new(hierarchy());
                for p in pkts {
                    exact.observe(p.src, u64::from(p.wire_len));
                }
                let (start, end) = Self::bounds(w as u64);
                WindowReport {
                    index: 0,
                    start,
                    end,
                    total: exact.total(),
                    hhhs: exact.report(threshold),
                }
            })
            .collect();

        drop(packets);
        util::mark_inputs_built();
        let daemon =
            spawn_daemon(DaemonConfig::default()).map_err(|e| format!("spawn daemon: {e}"))?;
        let writers = (0..SHARDS)
            .map(|s| {
                ProbedWrite(TcpTransport::connect(daemon.frame_addr.to_string()).with_hello(
                    stream_id(Kind::Exact, SHARDS, s),
                    shard_label(Kind::Exact, SHARDS, s),
                ))
            })
            .collect();
        let mut fleet = Fleet {
            by_window,
            oracle,
            daemon,
            writers,
            dets: (0..SHARDS).map(|_| Probed(ExactHhh::new(hierarchy()))).collect(),
            batches: vec![Vec::new(); SHARDS],
            next: 0,
            f1: Vec::new(),
            fold_lags_ms: Vec::new(),
            query_ms: Vec::new(),
            query_bytes: Vec::new(),
            metrics: String::new(),
        };
        // Fill the retention without waiting on each window; the last
        // one is served only once every frame before it is folded.
        let mut warm = Phase::default();
        while fleet.next < RETAIN - 1 {
            fleet.play(&mut warm);
        }
        fleet.window(&mut warm);
        if warm.failed > 0 || !warm.problems.is_empty() {
            return Err(format!(
                "warm-up: {} failed operations, {:?}",
                warm.failed,
                warm.problems.first()
            ));
        }
        fleet.f1.clear();
        Ok(fleet)
    }

    fn run(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            self.window(&mut phase);
        }
        phase.wall_s = t0.elapsed().as_secs_f64();
        phase
    }

    fn finish(&mut self, phase: &mut Phase) -> Vec<String> {
        if let Err(e) = self.check_final() {
            phase.problems.push(e);
        }
        phase.attempted += 1;
        match http_get(self.daemon.http_addr, "/metrics") {
            Ok((200, body)) => self.metrics = String::from_utf8_lossy(&body).into_owned(),
            other => {
                phase.failed += 1;
                eprintln!("stackbench: GET /metrics: {other:?}");
            }
        }
        let counter = |name| metric_value(&self.metrics, name).unwrap_or(0.0) as u64;
        phase.failed += counter("aggd_gaps_total") + counter("aggd_fold_errors_total");
        let f1 = self.f1.iter().sum::<f64>() / self.f1.len().max(1) as f64;
        if self.f1.is_empty() || f1 != 1.0 {
            phase
                .problems
                .push(format!("per-window f1 {f1} over {} windows, 1.0 expected", self.f1.len()));
        }
        vec![
            format!("\"f1\": {f1}"),
            format!("\"windows_served\": {}", self.f1.len()),
            format!("\"windows_played\": {}", self.next),
        ]
    }

    fn layers(&mut self, _traced: &Phase) -> Vec<Metric> {
        let t = probe::totals;
        let (source, observe, encode, write) =
            (t(Layer::Source), t(Layer::Observe), t(Layer::Encode), t(Layer::Write));
        let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { hhh_analysis::median(v) };
        let prom = |name| metric_value(&self.metrics, name).unwrap_or(0.0);
        let mut m = crate::zero_layers();
        crate::set(&mut m, "window.source.ns_per_pkt", source.ns_per_item());
        crate::set(&mut m, "core.observe.ns_per_pkt", observe.ns_per_item());
        crate::set(&mut m, "core.encode.us_per_frame", encode.us_per_call());
        crate::set(
            &mut m,
            "core.encode.bytes_per_frame",
            encode.items as f64 / encode.calls.max(1) as f64,
        );
        crate::set(&mut m, "window.transport.write_us_per_frame", write.us_per_call());
        crate::set(&mut m, "aggd.fold_lag_ms.p50", p50(&self.fold_lags_ms));
        crate::set(
            &mut m,
            "agg.refold_ms.p50",
            prom("aggd_fold_duration_seconds{quantile=\"0.5\"}") * 1e3,
        );
        crate::set(&mut m, "aggd.query_ms.p50", p50(&self.query_ms));
        crate::set(&mut m, "aggd.query_bytes", p50(&self.query_bytes));
        crate::set(&mut m, "aggd.frames", prom("aggd_frames_total"));
        crate::set(&mut m, "aggd.gaps", prom("aggd_gaps_total"));
        crate::set(&mut m, "aggd.fold_errors", prom("aggd_fold_errors_total"));
        crate::set(&mut m, "aggd.http_busy", prom("aggd_http_busy_total"));
        m
    }

    fn budget() -> (usize, usize) {
        // Two shard streams, one query connection at a time.
        (SHARDS, SHARDS + 1)
    }
}
