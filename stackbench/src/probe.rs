//! Outside-in tracing: wrappers around the program's public traits that
//! time each call into a layer from the benchmark's side.
//!
//! Timing is off unless [`set_tracing`] turned it on, so the untraced
//! run goes through the same wrappers and pays one branch per call.
//! Totals are kept per layer in atomics (detector calls happen on the
//! shard worker threads); spans are kept in memory, capped, and written
//! out by [`write_spans`] when the run ends.

use hhh_core::snapshot::DetectorSnapshot;
use hhh_core::{HhhDetector, HhhReport, MergeableDetector, SnapshotFrame, Threshold};
use hhh_hierarchy::Hierarchy;
use hhh_mitigate::{GateTotals, TableGate};
use hhh_nettypes::{Nanos, PacketRecord};
use hhh_window::{FrameWrite, PacketGate, Source, TransportError, DEFAULT_CHUNK};
use std::cell::Cell;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers the benchmark times, named after the module they call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Source::pull_chunk` of the benchmark's replay (hhh-window source).
    Source,
    /// `RuleFilter::pull_chunk`, which includes the replay beneath it.
    Filter,
    /// `HhhDetector::observe_batch`.
    Observe,
    /// `MergeableDetector::merge`.
    Merge,
    /// `MergeableDetector::retract`.
    Retract,
    /// `HhhDetector::report`.
    Report,
    /// `MergeableDetector::to_frame` and `snapshot`.
    Encode,
    /// `FrameWrite::write_frame`.
    Write,
    /// `PolicyEngine::ingest`.
    Policy,
    /// The benchmark's own report consumer (sink), policy included.
    Sink,
    /// One HTTP round trip to the daemon.
    Http,
}

const LAYERS: usize = 11;

struct Acc {
    ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
    driver_ns: AtomicU64,
}

impl Acc {
    const fn new() -> Self {
        Acc {
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            items: AtomicU64::new(0),
            driver_ns: AtomicU64::new(0),
        }
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);
static ACC: [Acc; LAYERS] = [const { Acc::new() }; LAYERS];
/// Spans beyond this many are counted but not kept.
const SPAN_CAP: usize = 200_000;
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static SPANS_DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static DRIVER: Cell<bool> = const { Cell::new(false) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One timed call: layer, thread role, start and end since the
/// benchmark's epoch, and the work items it covered.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    driver: bool,
    start_ns: u64,
    end_ns: u64,
    items: u64,
}

/// Mark the calling thread as the workload's driving thread.
pub fn mark_driver() {
    let _ = epoch();
    DRIVER.with(|d| d.set(true));
}

/// Turn timing on or off for every wrapper.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether wrappers are timing.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Zero every total and drop every span.
pub fn reset() {
    for a in &ACC {
        a.ns.store(0, Ordering::Relaxed);
        a.calls.store(0, Ordering::Relaxed);
        a.items.store(0, Ordering::Relaxed);
        a.driver_ns.store(0, Ordering::Relaxed);
    }
    SPANS.lock().expect("span store lock").clear();
    SPANS_DROPPED.store(0, Ordering::Relaxed);
}

/// Run `f` as one call into `layer` covering `items` work items, timed
/// when tracing is on.
#[inline]
pub fn timed<R>(layer: Layer, items: u64, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    record(layer, t0, Instant::now(), items);
    r
}

/// Record a call into `layer` that ran from `t0` to `t1`.
pub fn record(layer: Layer, t0: Instant, t1: Instant, items: u64) {
    let ns = t1.duration_since(t0).as_nanos() as u64;
    let driver = DRIVER.with(Cell::get);
    let a = &ACC[layer as usize];
    a.ns.fetch_add(ns, Ordering::Relaxed);
    a.calls.fetch_add(1, Ordering::Relaxed);
    a.items.fetch_add(items, Ordering::Relaxed);
    if driver {
        a.driver_ns.fetch_add(ns, Ordering::Relaxed);
    }
    let base = epoch();
    let span = Span {
        layer,
        driver,
        start_ns: t0.saturating_duration_since(base).as_nanos() as u64,
        end_ns: t1.saturating_duration_since(base).as_nanos() as u64,
        items,
    };
    let mut spans = SPANS.lock().expect("span store lock");
    if spans.len() < SPAN_CAP {
        spans.push(span);
    } else {
        SPANS_DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Totals of one layer since the last [`reset`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Time inside the layer, all threads.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Work items (packets, frames, bytes) the calls covered.
    pub items: u64,
    /// Time inside the layer on the driving thread.
    pub driver_ns: u64,
}

impl Totals {
    /// Mean nanoseconds per item, 0 when the layer saw no items.
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }

    /// Mean microseconds per call, 0 when the layer was not called.
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Totals of `layer` since the last [`reset`].
pub fn totals(layer: Layer) -> Totals {
    let a = &ACC[layer as usize];
    Totals {
        ns: a.ns.load(Ordering::Relaxed),
        calls: a.calls.load(Ordering::Relaxed),
        items: a.items.load(Ordering::Relaxed),
        driver_ns: a.driver_ns.load(Ordering::Relaxed),
    }
}

/// Write the kept spans as tab-separated lines to `path`.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = SPANS.lock().expect("span store lock");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer\tthread\tstart_ns\tend_ns\titems")?;
    for s in spans.iter() {
        let thread = if s.driver { "driver" } else { "worker" };
        writeln!(out, "{:?}\t{thread}\t{}\t{}\t{}", s.layer, s.start_ns, s.end_ns, s.items)?;
    }
    let dropped = SPANS_DROPPED.load(Ordering::Relaxed);
    if dropped > 0 {
        writeln!(out, "# {dropped} further spans not kept")?;
    }
    out.flush()?;
    Ok(spans.len())
}

/// A detector that delegates every call to the real one and times
/// `observe_batch`, `merge`, `retract`, `report` and the encodes on
/// whichever thread makes them.
#[derive(Clone)]
pub struct Probed<D>(pub D);

impl<H: Hierarchy, D: HhhDetector<H>> HhhDetector<H> for Probed<D> {
    fn observe(&mut self, item: H::Item, weight: u64) {
        self.0.observe(item, weight);
    }

    fn observe_batch(&mut self, batch: &[(H::Item, u64)]) {
        timed(Layer::Observe, batch.len() as u64, || self.0.observe_batch(batch));
    }

    fn total(&self) -> u64 {
        self.0.total()
    }

    fn report(&self, threshold: Threshold) -> Vec<HhhReport<H::Prefix>> {
        timed(Layer::Report, 1, || self.0.report(threshold))
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

impl<D: MergeableDetector> MergeableDetector for Probed<D> {
    fn merge(&mut self, other: &Self) {
        timed(Layer::Merge, 1, || self.0.merge(&other.0));
    }

    fn snapshot(&self) -> Option<DetectorSnapshot> {
        timed(Layer::Encode, 0, || self.0.snapshot())
    }

    fn to_frame(&self, start: Nanos, at: Nanos) -> Option<SnapshotFrame> {
        if !tracing() {
            return self.0.to_frame(start, at);
        }
        let t0 = Instant::now();
        let frame = self.0.to_frame(start, at);
        let t1 = Instant::now();
        record(Layer::Encode, t0, t1, frame.as_ref().map_or(0, |f| f.encode().len() as u64));
        frame
    }

    fn retract(&mut self, other: &Self) -> bool {
        timed(Layer::Retract, 1, || self.0.retract(&other.0))
    }
}

/// A frame writer that times each `write_frame`.
pub struct ProbedWrite<W>(pub W);

impl<W: FrameWrite> FrameWrite for ProbedWrite<W> {
    fn write_frame(&mut self, frame: &SnapshotFrame) -> Result<(), TransportError> {
        timed(Layer::Write, 1, || self.0.write_frame(frame))
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        self.0.flush()
    }
}

/// A packet gate that delegates to the real `TableGate`. Once `armed` is
/// set it snapshots the gate's totals, so attack drops can be counted
/// from that point on.
pub struct ProbedGate {
    /// The real gate.
    pub inner: TableGate,
    armed: Rc<Cell<bool>>,
    at_arm: Option<GateTotals>,
}

impl ProbedGate {
    /// Wrap `inner`; the owner of `armed` sets it when the first rule
    /// covering a planted prefix fires.
    pub fn new(inner: TableGate, armed: Rc<Cell<bool>>) -> Self {
        ProbedGate { inner, armed, at_arm: None }
    }

    /// Attack bytes (offered, dropped) since the gate saw `armed` set.
    pub fn attack_since_arm(&self) -> (u64, u64) {
        let now = self.inner.totals();
        self.at_arm.map_or((0, 0), |at| {
            (
                now.attack_offered_bytes - at.attack_offered_bytes,
                now.attack_dropped_bytes - at.attack_dropped_bytes,
            )
        })
    }
}

impl PacketGate for ProbedGate {
    #[inline]
    fn admit(&mut self, packet: &PacketRecord) -> bool {
        if self.at_arm.is_none() && self.armed.get() {
            self.at_arm = Some(self.inner.totals());
        }
        self.inner.admit(packet)
    }
}

/// Handover instants of step boundaries, shared between the replay
/// source (which stamps them) and the report consumer (which reads
/// them) on the driving thread.
pub type Handovers = Rc<RefCell<VecDeque<(u64, Instant)>>>;

/// Lag, in milliseconds, from the handover of the chunk that crossed
/// the boundary at `end_ns` to now. `None` when no chunk crossed it
/// (reports flushed after the source ended).
pub fn lag_since_handover(handovers: &Handovers, end_ns: u64, now: Instant) -> Option<f64> {
    let mut q = handovers.borrow_mut();
    while q.front().is_some_and(|&(b, _)| b < end_ns) {
        q.pop_front();
    }
    match q.front() {
        Some(&(b, at)) if b == end_ns => {
            q.pop_front();
            Some(now.duration_since(at).as_secs_f64() * 1e3)
        }
        _ => None,
    }
}

/// Replays a trace `reps` times, shifting each replay's timestamps by
/// the trace period, in chunks of at most `DEFAULT_CHUNK` packets (the
/// size the library's iterator sources use). A chunk ends before the
/// first packet past a `step` boundary, and that packet, which closes
/// the step, is a chunk of its own; so a report's lag does not depend on
/// where in a chunk the seed puts its boundary. The replay stamps the
/// handover instant of every boundary a chunk crosses.
pub struct Replay<'a> {
    packets: &'a [PacketRecord],
    period_ns: u64,
    reps: u64,
    rep: u64,
    pos: usize,
    step_ns: u64,
    next_boundary: u64,
    handovers: Handovers,
    /// Packets handed over.
    pub handed: u64,
}

impl<'a> Replay<'a> {
    /// A replay of `packets` (all timestamps below `period_ns`, which is
    /// a whole number of steps).
    pub fn new(
        packets: &'a [PacketRecord],
        period_ns: u64,
        reps: u64,
        step_ns: u64,
        handovers: Handovers,
    ) -> Self {
        Replay {
            packets,
            period_ns,
            reps,
            rep: 0,
            pos: 0,
            step_ns,
            next_boundary: step_ns,
            handovers,
            handed: 0,
        }
    }
}

impl Source for Replay<'_> {
    type Item = PacketRecord;

    fn pull_chunk(&mut self, buf: &mut Vec<PacketRecord>) -> bool {
        let t0 = tracing().then(Instant::now);
        let had = buf.len();
        // The packet that closes a step goes over alone, so its report's
        // lag holds the step's close and not the work on a chunk of the
        // next step (`RuleFilter` gates a whole chunk before passing it on).
        let closing = self.rep < self.reps
            && self.packets[self.pos].ts.as_nanos() + self.rep * self.period_ns
                >= self.next_boundary;
        let limit = if closing { 1 } else { DEFAULT_CHUNK };
        // The first boundary after the chunk's first packet.
        let mut cut = None;
        while buf.len() - had < limit && self.rep < self.reps {
            let shift = self.rep * self.period_ns;
            let rest = &self.packets[self.pos..];
            let cut = *cut.get_or_insert(
                (rest[0].ts.as_nanos() + shift) / self.step_ns * self.step_ns + self.step_ns,
            );
            let before = rest.partition_point(|p| p.ts.as_nanos() + shift < cut);
            if before == 0 {
                break;
            }
            let take = (limit - (buf.len() - had)).min(before);
            buf.extend(
                self.packets[self.pos..self.pos + take]
                    .iter()
                    .map(|p| PacketRecord { ts: Nanos::from_nanos(p.ts.as_nanos() + shift), ..*p }),
            );
            self.pos += take;
            if self.pos == self.packets.len() {
                self.pos = 0;
                self.rep += 1;
            }
        }
        let n = buf.len() - had;
        self.handed += n as u64;
        if let Some(last) = buf.last().filter(|_| n > 0) {
            let now = Instant::now();
            let mut q = self.handovers.borrow_mut();
            while self.next_boundary <= last.ts.as_nanos() {
                q.push_back((self.next_boundary, now));
                self.next_boundary += self.step_ns;
            }
        }
        if let Some(t0) = t0 {
            record(Layer::Source, t0, Instant::now(), n as u64);
        }
        n > 0
    }
}

/// A source adapter that times each `pull_chunk` of the source it
/// borrows (used around `RuleFilter`, whose time includes the replay
/// beneath it). Borrowing lets the caller read the gate afterwards.
pub struct ProbedSource<'a, S>(pub &'a mut S);

impl<S: Source> Source for ProbedSource<'_, S> {
    type Item = S::Item;

    fn pull_chunk(&mut self, buf: &mut Vec<S::Item>) -> bool {
        let had = buf.len();
        let t0 = tracing().then(Instant::now);
        let more = self.0.pull_chunk(buf);
        if let Some(t0) = t0 {
            record(Layer::Filter, t0, Instant::now(), (buf.len() - had) as u64);
        }
        more
    }
}
