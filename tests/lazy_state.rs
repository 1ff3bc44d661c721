//! Lazy state encoding: the sharded engines hand every sink the merged
//! detector at each report point, and the state is encoded only by a
//! sink that reads it — none for collecting and closure sinks, one
//! `snapshot` per report point for JSON sinks, one `to_frame` per
//! report point for frame sinks. A state that fails to encode is the
//! sink's first typed error, never a panic.

use hidden_hhh::core::snapshot::{DetectorSnapshot, SnapshotFrame};
use hidden_hhh::core::{SnapshotError, StateView, WireFormat};
use hidden_hhh::prelude::*;
use hidden_hhh::window::{FileTransport, TransportError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Encode calls seen by every clone of one [`Counted`] detector.
#[derive(Default)]
struct Encodes {
    snapshot: AtomicUsize,
    to_frame: AtomicUsize,
}

impl Encodes {
    /// `(snapshot, to_frame)` calls so far, and reset both to 0.
    fn take(&self) -> (usize, usize) {
        (self.snapshot.swap(0, Ordering::SeqCst), self.to_frame.swap(0, Ordering::SeqCst))
    }
}

/// A detector that delegates everything and counts its encodes.
#[derive(Clone)]
struct Counted<D>(D, Arc<Encodes>);

impl<H: Hierarchy, D: HhhDetector<H>> HhhDetector<H> for Counted<D> {
    fn observe(&mut self, item: H::Item, weight: u64) {
        self.0.observe(item, weight);
    }

    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        self.0.observe_batch(batch);
    }

    fn total(&self) -> u64 {
        self.0.total()
    }

    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        self.0.report(threshold)
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<H: Hierarchy, C: ContinuousDetector<H>> ContinuousDetector<H> for Counted<C> {
    fn observe(&mut self, ts: Nanos, item: H::Item, weight: u64) {
        self.0.observe(ts, item, weight);
    }

    fn observe_batch(&mut self, batch: &[(Nanos, H::Item, u64)]) {
        self.0.observe_batch(batch);
    }

    fn decayed_total(&self, now: Nanos) -> f64 {
        self.0.decayed_total(now)
    }

    fn report_at(&self, now: Nanos, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        self.0.report_at(now, threshold)
    }

    fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<D: MergeableDetector> MergeableDetector for Counted<D> {
    fn merge(&mut self, other: &Self) {
        self.0.merge(&other.0);
    }

    fn snapshot(&self) -> Option<DetectorSnapshot> {
        self.1.snapshot.fetch_add(1, Ordering::SeqCst);
        self.0.snapshot()
    }

    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        self.1.to_frame.fetch_add(1, Ordering::SeqCst);
        self.0.to_frame(start, at)
    }

    fn retract(&mut self, other: &Self) -> bool {
        self.0.retract(&other.0)
    }
}

const HORIZON: TimeSpan = TimeSpan::from_secs(6);

fn trace() -> Vec<PacketRecord> {
    TraceGenerator::new(scenarios::day_trace(0, HORIZON), 31).collect()
}

/// Run one engine (built fresh by `engine`) through every sink kind and
/// check each sink's encode calls against the report points.
fn check<E>(label: &str, encodes: &Encodes, engine: impl Fn() -> E)
where
    E: Engine<In = PacketRecord, Prefix = Ipv4Prefix>,
{
    let pkts = trace();
    let points = Pipeline::new(pkts.iter().copied()).engine(engine()).collect().run()[0].len();
    assert!(points > 1, "{label}: too few report points to count");
    assert_eq!(encodes.take(), (0, 0), "{label}: the collecting sink encodes nothing");

    let mut seen = 0usize;
    Pipeline::new(pkts.iter().copied())
        .engine(engine())
        .sink(FnSink(|_series: usize, _report: WindowReport<Ipv4Prefix>| seen += 1))
        .run();
    assert_eq!(seen, points);
    assert_eq!(encodes.take(), (0, 0), "{label}: the closure sink encodes nothing");

    let (bytes, err) = Pipeline::new(pkts.iter().copied())
        .engine(engine())
        .sink(SnapshotSink::json(Vec::new()))
        .run();
    assert!(err.is_none() && !bytes.is_empty());
    assert_eq!(encodes.take(), (points, 0), "{label}: JSON sink, one snapshot per report point");

    let (bytes, err) = Pipeline::new(pkts.iter().copied())
        .engine(engine())
        .sink(SnapshotSink::binary(Vec::new()))
        .run();
    assert!(err.is_none() && !bytes.is_empty());
    assert_eq!(encodes.take(), (0, points), "{label}: binary sink, one frame per report point");

    let (out, err) = Pipeline::new(pkts.iter().copied())
        .engine(engine())
        .sink(TransportSink::new(FileTransport::new(Vec::new())))
        .run();
    assert!(err.is_none() && !out.into_inner().is_empty());
    assert_eq!(encodes.take(), (0, points), "{label}: transport sink, one frame per report point");
}

#[test]
fn states_are_encoded_only_for_sinks_that_read_them() {
    let h = Ipv4Hierarchy::bytes();
    let encodes = Arc::new(Encodes::default());
    let exact = || Counted(ExactHhh::new(h), encodes.clone());

    check("sharded disjoint", &encodes, || {
        ShardedDisjoint::new(
            (0..2).map(|_| exact()).collect(),
            HORIZON,
            TimeSpan::from_secs(2),
            &[Threshold::percent(5.0)],
            |p| p.src,
        )
    });
    for shards in [1, 2] {
        check(&format!("sharded sliding K={shards}"), &encodes, || {
            ShardedSliding::new(
                shards,
                |_| exact(),
                HORIZON,
                TimeSpan::from_secs(2),
                TimeSpan::from_secs(1),
                &[Threshold::percent(5.0)],
                |p| p.src,
            )
        });
    }
    let cfg = TdbfHhhConfig { half_life: TimeSpan::from_secs(2), ..TdbfHhhConfig::default() };
    let probes: Vec<Nanos> = (1..=6).map(Nanos::from_secs).collect();
    check("sharded continuous", &encodes, || {
        ShardedContinuous::new(
            (0..2).map(|_| Counted(TdbfHhh::new(h, cfg.clone()), encodes.clone())).collect(),
            &probes,
            Threshold::percent(5.0),
            |p| p.src,
        )
    });
}

/// A state whose every encode fails.
struct Unencodable;

fn refused() -> SnapshotError {
    SnapshotError::Mismatch("encode refused".into())
}

impl StateView for Unencodable {
    fn snapshot(&self) -> Option<Result<DetectorSnapshot, SnapshotError>> {
        Some(Err(refused()))
    }

    fn to_frame(&self, _start: Nanos, _at: Nanos) -> Option<Result<SnapshotFrame, SnapshotError>> {
        Some(Err(refused()))
    }
}

/// An encodable state, counting its encodes.
fn counted_exact(encodes: &Arc<Encodes>) -> Counted<ExactHhh<Ipv4Hierarchy>> {
    let mut d = Counted(ExactHhh::new(Ipv4Hierarchy::bytes()), encodes.clone());
    d.observe(7, 300);
    d
}

#[test]
fn snapshot_sink_keeps_a_failed_encode_as_its_io_error() {
    for format in [WireFormat::Json, WireFormat::Binary] {
        let encodes = Arc::new(Encodes::default());
        let mut sink = SnapshotSink::with_format(Vec::new(), format);
        ReportSink::<Ipv4Prefix>::state(&mut sink, Nanos::ZERO, Nanos::from_secs(1), &Unencodable);
        let later = counted_exact(&encodes);
        ReportSink::<Ipv4Prefix>::state(&mut sink, Nanos::ZERO, Nanos::from_secs(2), &later);
        let (bytes, err) = ReportSink::<Ipv4Prefix>::finish(sink);
        let err = err.expect("the failed encode is kept");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{format:?}");
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<SnapshotError>());
        assert_eq!(inner, Some(&refused()), "{format:?}");
        assert!(bytes.is_empty(), "{format:?}: nothing written after the failure");
        assert_eq!(encodes.take(), (0, 0), "{format:?}: no encode after the failure");
    }
}

#[test]
fn transport_sink_keeps_a_failed_encode_as_a_frame_error() {
    let encodes = Arc::new(Encodes::default());
    let mut sink = TransportSink::new(FileTransport::new(Vec::new()));
    ReportSink::<Ipv4Prefix>::state(&mut sink, Nanos::ZERO, Nanos::from_secs(1), &Unencodable);
    let later = counted_exact(&encodes);
    ReportSink::<Ipv4Prefix>::state(&mut sink, Nanos::ZERO, Nanos::from_secs(2), &later);
    let (out, err) = ReportSink::<Ipv4Prefix>::finish(sink);
    match err {
        Some(TransportError::Frame(e)) => assert_eq!(e, refused()),
        other => panic!("expected the encode failure as a frame error, got {other:?}"),
    }
    assert!(out.into_inner().is_empty(), "nothing written after the failure");
    assert_eq!(encodes.take(), (0, 0), "no encode after the failure");
}
