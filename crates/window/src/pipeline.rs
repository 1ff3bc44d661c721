//! The unified pipeline: **source → engine → sink**.
//!
//! One composable abstraction replaces the five `run_*` driver
//! functions. A [`Pipeline`] is built in three steps:
//!
//! ```
//! use hhh_core::{ExactHhh, Threshold};
//! use hhh_hierarchy::Ipv4Hierarchy;
//! use hhh_nettypes::{Measure, Nanos, PacketRecord, TimeSpan};
//! use hhh_window::{Disjoint, Pipeline};
//!
//! let packets: Vec<PacketRecord> =
//!     (0..1000).map(|i| PacketRecord::new(Nanos::from_millis(i), i as u32 % 7, 1, 100)).collect();
//! let mut det = ExactHhh::new(Ipv4Hierarchy::bytes());
//! let reports = Pipeline::new(packets.iter().copied())
//!     .engine(Disjoint::new(
//!         &mut det,
//!         TimeSpan::from_secs(1),
//!         TimeSpan::from_millis(500),
//!         &[Threshold::percent(5.0)],
//!         |p| p.src,
//!     ))
//!     .collect()
//!     .run();
//! assert_eq!(reports.len(), 1, "one series per threshold");
//! assert_eq!(reports[0].len(), 2, "two 500 ms windows");
//! ```
//!
//! * the **source** ([`PacketSource`]) is any packet iterator, a
//!   bounded channel fed from other threads
//!   ([`source::bounded`](crate::source::bounded)), or a capture file
//!   (`hhh-pcap`);
//! * the **engine** ([`Engine`]) is the window model × execution
//!   strategy: [`Disjoint`], [`SlidingExact`], [`MicroVaried`],
//!   [`Continuous`], and the multi-core [`ShardedDisjoint`],
//!   [`ShardedSliding`], [`ShardedContinuous`];
//! * the **sink** ([`ReportSink`](crate::ReportSink)) consumes reports
//!   as windows close: collect to `Vec`s ([`collect`](Pipeline::collect)),
//!   stream into a closure ([`FnSink`](crate::FnSink)), serialize the
//!   snapshot wire stream in either format
//!   ([`SnapshotSink`](crate::SnapshotSink)), or stream natively
//!   encoded v2 frames through a snapshot transport — file, TCP
//!   socket, or in-process channel
//!   ([`TransportSink`](crate::TransportSink)).
//!
//! Every engine consumes the stream once, chunk at a time, and pushes
//! each report the moment its window closes — so a sink can alert with
//! zero buffering while the stream is still flowing.

use crate::report::WindowReport;
use crate::sharded::{with_continuous_shards, with_shards, with_sliding_shards, DEFAULT_BATCH};
use crate::sink::{CollectSink, ReportSink};
use crate::source::Source;
use hhh_core::{
    discount_bottom_up, level_counts, ContinuousDetector, HhhDetector, MergeableDetector,
    RestoredDetector, Threshold, WireSnapshot,
};
use hhh_hierarchy::Hierarchy;
use hhh_nettypes::{Measure, Nanos, PacketRecord, TimeSpan};
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::str::FromStr;

/// A fully described run: where packets come from, what computes on
/// them, where reports go. See the [module docs](self) for the model.
pub struct Pipeline<S, E, K> {
    source: S,
    engine: E,
    sink: K,
}

/// Placeholder for a [`Pipeline`] stage that has not been chosen yet.
pub struct Unset;

impl<S: Source> Pipeline<S, Unset, Unset> {
    /// Start a pipeline from a source (any `Iterator` qualifies — of
    /// `PacketRecord`s for the packet engines, of [`WireSnapshot`]s
    /// for [`FoldSnapshots`]).
    pub fn new(source: S) -> Self {
        Pipeline { source, engine: Unset, sink: Unset }
    }
}

impl<S, E, K> Pipeline<S, E, K> {
    /// Choose the engine (window model × execution strategy).
    pub fn engine<E2: Engine>(self, engine: E2) -> Pipeline<S, E2, K> {
        Pipeline { source: self.source, engine, sink: self.sink }
    }

    /// Choose the sink.
    pub fn sink<K2>(self, sink: K2) -> Pipeline<S, E, K2> {
        Pipeline { source: self.source, engine: self.engine, sink }
    }
}

impl<S, E: Engine, K> Pipeline<S, E, K> {
    /// Shorthand for `.sink(CollectSink::new())`: gather every report
    /// into one `Vec<WindowReport>` per series.
    pub fn collect(self) -> Pipeline<S, E, CollectSink<E::Prefix>> {
        self.sink(CollectSink::new())
    }
}

impl<S, E, K> Pipeline<S, E, K>
where
    S: Source<Item = E::In>,
    E: Engine,
    K: ReportSink<E::Prefix>,
{
    /// Consume the source through the engine, deliver every report to
    /// the sink, and return the sink's output.
    pub fn run(mut self) -> K::Output {
        self.sink.begin(self.engine.series());
        self.engine.run(self.source, &mut self.sink);
        self.sink.finish()
    }
}

/// A window model × execution strategy, runnable inside a
/// [`Pipeline`]. Engines are single-use: `run` consumes the engine and
/// the source.
pub trait Engine {
    /// The item type the engine consumes — [`PacketRecord`] for every
    /// packet engine, [`WireSnapshot`] for [`FoldSnapshots`]. The
    /// pipeline's source must yield exactly this type.
    type In;

    /// The prefix type of the reports this engine emits.
    type Prefix;

    /// Number of report series emitted (see
    /// [`ReportSink::accept`](crate::ReportSink::accept)).
    fn series(&self) -> usize;

    /// Drain the source, pushing reports into the sink as windows
    /// close.
    fn run<S: Source<Item = Self::In>, K: ReportSink<Self::Prefix>>(self, source: S, sink: &mut K);
}

/// Drive `f` over every item of a chunked source; `f` returning
/// `false` stops the stream (horizon reached).
fn for_each_item<S: Source>(mut source: S, mut f: impl FnMut(S::Item) -> bool) {
    let mut buf = Vec::new();
    while source.pull_chunk(&mut buf) {
        for p in buf.drain(..) {
            if !f(p) {
                return;
            }
        }
    }
}

/// Build an exact [`WindowReport`] from per-level counts (the sliding
/// and micro-varied engines keep exact rolling counts rather than a
/// detector, and build the levels with [`level_counts`]).
fn exact_report<H: Hierarchy>(
    hierarchy: &H,
    levels: &[HashMap<H::Prefix, u64>],
    total: u64,
    threshold: Threshold,
    index: u64,
    start: Nanos,
    end: Nanos,
) -> WindowReport<H::Prefix> {
    WindowReport {
        index,
        start,
        end,
        total,
        hhhs: discount_bottom_up(hierarchy, levels, threshold.absolute(total)),
    }
}

// ---------------------------------------------------------------------
// Disjoint
// ---------------------------------------------------------------------

/// Disjoint (tumbling) windows over one windowed detector: report at
/// every boundary, then reset — the practice the paper quantifies the
/// cost of. One series per threshold. Packets after the last complete
/// window are ignored.
///
/// The detector can be owned or a `&mut` borrow (reusable afterwards).
pub struct Disjoint<H, D, F> {
    detector: D,
    horizon: TimeSpan,
    window: TimeSpan,
    thresholds: Vec<Threshold>,
    measure: Measure,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, D, F> Disjoint<H, D, F>
where
    H: Hierarchy,
    D: HhhDetector<H>,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// Windows of `window` length covering `horizon`, reporting each of
    /// `thresholds` (one output series per threshold, same order), with
    /// `key` extracting the item to aggregate (usually `|p| p.src`).
    pub fn new(
        detector: D,
        horizon: TimeSpan,
        window: TimeSpan,
        thresholds: &[Threshold],
        key: F,
    ) -> Self {
        Disjoint {
            detector,
            horizon,
            window,
            thresholds: thresholds.to_vec(),
            measure: Measure::Bytes,
            key,
            _hierarchy: PhantomData,
        }
    }

    /// Weigh packets by bytes (default) or packets.
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }
}

impl<H, D, F> Engine for Disjoint<H, D, F>
where
    H: Hierarchy,
    D: HhhDetector<H>,
    F: Fn(&PacketRecord) -> H::Item,
{
    type In = PacketRecord;
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        mut self,
        source: S,
        sink: &mut K,
    ) {
        let n_windows = self.horizon / self.window;
        let window = self.window;
        let thresholds = &self.thresholds;
        let detector = &mut self.detector;
        let mut cur: u64 = 0;

        let flush = |cur: u64, detector: &mut D, sink: &mut K| {
            for (ti, t) in thresholds.iter().enumerate() {
                sink.accept(
                    ti,
                    WindowReport {
                        index: cur,
                        start: Nanos::ZERO + window * cur,
                        end: Nanos::ZERO + window * (cur + 1),
                        total: detector.total(),
                        hhhs: detector.report(*t),
                    },
                );
            }
            detector.reset();
        };

        let measure = self.measure;
        let key = &self.key;
        for_each_item(source, |p| {
            let w = p.ts.bin_index(window);
            if w >= n_windows {
                return false; // time-sorted stream; the rest is partial tail
            }
            while cur < w {
                flush(cur, detector, sink);
                cur += 1;
            }
            detector.observe(key(&p), measure.weight(&p));
            true
        });
        while cur < n_windows {
            flush(cur, detector, sink);
            cur += 1;
        }
    }
}

// ---------------------------------------------------------------------
// SlidingExact
// ---------------------------------------------------------------------

/// Every sliding position evaluated **exactly** via rolling per-epoch
/// counts. Requires `window % step == 0`; one pass, exact output, one
/// series per threshold. Entry `i` of each series is sliding position
/// `i` (start = `i × step`).
pub struct SlidingExact<'h, H, F> {
    hierarchy: &'h H,
    horizon: TimeSpan,
    window: TimeSpan,
    step: TimeSpan,
    thresholds: Vec<Threshold>,
    measure: Measure,
    key: F,
}

impl<'h, H, F> SlidingExact<'h, H, F>
where
    H: Hierarchy,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// Sliding `window` advancing by `step` over `horizon`.
    pub fn new(
        hierarchy: &'h H,
        horizon: TimeSpan,
        window: TimeSpan,
        step: TimeSpan,
        thresholds: &[Threshold],
        key: F,
    ) -> Self {
        assert!(!step.is_zero() && !window.is_zero(), "window and step must be non-zero");
        assert!(window % step == TimeSpan::ZERO, "step must divide the window length exactly");
        assert!(window <= horizon, "window longer than the horizon");
        SlidingExact {
            hierarchy,
            horizon,
            window,
            step,
            thresholds: thresholds.to_vec(),
            measure: Measure::Bytes,
            key,
        }
    }

    /// Weigh packets by bytes (default) or packets.
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }
}

impl<H, F> Engine for SlidingExact<'_, H, F>
where
    H: Hierarchy,
    F: Fn(&PacketRecord) -> H::Item,
{
    type In = PacketRecord;
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let epw = self.window / self.step; // epochs per window
        let n_epochs = self.horizon / self.step;
        let hierarchy = self.hierarchy;
        let (window, step) = (self.window, self.step);
        let thresholds = &self.thresholds;

        let mut rolling: HashMap<H::Item, u64> = HashMap::new();
        let mut rolling_total: u64 = 0;
        let mut window_epochs: VecDeque<HashMap<H::Item, u64>> = VecDeque::new();
        let mut cur_epoch: u64 = 0;
        let mut cur_map: HashMap<H::Item, u64> = HashMap::new();

        let finalize_epoch = |cur_epoch: u64,
                              cur_map: &mut HashMap<H::Item, u64>,
                              rolling: &mut HashMap<H::Item, u64>,
                              rolling_total: &mut u64,
                              window_epochs: &mut VecDeque<HashMap<H::Item, u64>>,
                              sink: &mut K| {
            let finished = core::mem::take(cur_map);
            for (&k, &v) in &finished {
                *rolling.entry(k).or_default() += v;
                *rolling_total += v;
            }
            window_epochs.push_back(finished);
            if window_epochs.len() > epw as usize {
                let old = window_epochs.pop_front().expect("non-empty");
                for (k, v) in old {
                    let e = rolling.get_mut(&k).expect("rolling covers window epochs");
                    *e -= v;
                    *rolling_total -= v;
                    if *e == 0 {
                        rolling.remove(&k);
                    }
                }
            }
            if window_epochs.len() == epw as usize {
                let position = cur_epoch + 1 - epw;
                let levels = level_counts(hierarchy, &*rolling);
                for (ti, t) in thresholds.iter().enumerate() {
                    sink.accept(
                        ti,
                        exact_report(
                            hierarchy,
                            &levels,
                            *rolling_total,
                            *t,
                            position,
                            Nanos::ZERO + step * position,
                            Nanos::ZERO + step * position + window,
                        ),
                    );
                }
            }
        };

        let measure = self.measure;
        let key = &self.key;
        for_each_item(source, |p| {
            let e = p.ts.bin_index(step);
            if e >= n_epochs {
                return false;
            }
            while cur_epoch < e {
                finalize_epoch(
                    cur_epoch,
                    &mut cur_map,
                    &mut rolling,
                    &mut rolling_total,
                    &mut window_epochs,
                    sink,
                );
                cur_epoch += 1;
            }
            *cur_map.entry(key(&p)).or_default() += measure.weight(&p);
            true
        });
        while cur_epoch < n_epochs {
            finalize_epoch(
                cur_epoch,
                &mut cur_map,
                &mut rolling,
                &mut rolling_total,
                &mut window_epochs,
                sink,
            );
            cur_epoch += 1;
        }
    }
}

// ---------------------------------------------------------------------
// MicroVaried
// ---------------------------------------------------------------------

/// A disjoint baseline window evaluated against micro-shortened
/// variants in a single pass (Fig. 3's setup). For each baseline
/// window `[k·b, (k+1)·b)` and each delta `d`, the variant window is
/// `[k·b, (k+1)·b − d)`. Exact.
///
/// Series layout: series `0` is the baseline; series `1 + i` is the
/// `i`-th delta (request order), index-aligned with the baseline.
pub struct MicroVaried<'h, H, F> {
    hierarchy: &'h H,
    horizon: TimeSpan,
    base: TimeSpan,
    deltas: Vec<TimeSpan>,
    threshold: Threshold,
    measure: Measure,
    key: F,
}

impl<'h, H, F> MicroVaried<'h, H, F>
where
    H: Hierarchy,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// Baseline windows of `base` length with variants shortened by
    /// each of `deltas` (all `< base`).
    pub fn new(
        hierarchy: &'h H,
        horizon: TimeSpan,
        base: TimeSpan,
        deltas: &[TimeSpan],
        threshold: Threshold,
        key: F,
    ) -> Self {
        assert!(!deltas.is_empty(), "need at least one delta");
        assert!(deltas.iter().all(|d| *d < base), "delta must be < base window");
        MicroVaried {
            hierarchy,
            horizon,
            base,
            deltas: deltas.to_vec(),
            threshold,
            measure: Measure::Bytes,
            key,
        }
    }

    /// Weigh packets by bytes (default) or packets.
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }
}

impl<H, F> Engine for MicroVaried<'_, H, F>
where
    H: Hierarchy,
    F: Fn(&PacketRecord) -> H::Item,
{
    type In = PacketRecord;
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        1 + self.deltas.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let base = self.base;
        let max_delta = *self.deltas.iter().max().expect("non-empty");
        let n_windows = self.horizon / base;
        let hierarchy = self.hierarchy;
        let threshold = self.threshold;
        // Delta series in ascending-delta order for incremental
        // subtraction, remembering each one's output series.
        let mut ordered: Vec<usize> = (0..self.deltas.len()).collect();
        ordered.sort_by_key(|&i| self.deltas[i]);
        let deltas = &self.deltas;

        let mut counts: HashMap<H::Item, u64> = HashMap::new();
        let mut total: u64 = 0;
        // Packets in the window's final `max_delta`, with their offset
        // from the window end (so variant subtraction is a filter, not
        // a scan of the whole window).
        let mut tail: Vec<(TimeSpan, H::Item, u64)> = Vec::new();
        let mut cur: u64 = 0;

        let ordered = &ordered;
        let flush = |cur: u64,
                     counts: &mut HashMap<H::Item, u64>,
                     total: &mut u64,
                     tail: &mut Vec<(TimeSpan, H::Item, u64)>,
                     sink: &mut K| {
            let start = Nanos::ZERO + base * cur;
            let end = start + base;
            let levels = level_counts(hierarchy, &*counts);
            sink.accept(0, exact_report(hierarchy, &levels, *total, threshold, cur, start, end));
            // Subtract tail packets incrementally, smallest delta
            // first: each delta removes the packets in
            // (prev, delta] of offset-from-end.
            let mut variant_counts = counts.clone();
            let mut variant_total = *total;
            let mut tail_iter = {
                let mut t = core::mem::take(tail);
                t.sort_by_key(|e| e.0); // offset_from_end ascending
                t.into_iter().peekable()
            };
            for &vi in ordered {
                let delta = deltas[vi];
                while let Some(&(off, _, _)) = tail_iter.peek() {
                    // A packet with offset exactly `delta` sits at the
                    // variant's (exclusive) end boundary: excluded.
                    if off <= delta {
                        let (_, item, w) = tail_iter.next().expect("peeked");
                        let e = variant_counts.get_mut(&item).expect("tail item counted");
                        *e -= w;
                        variant_total -= w;
                        if *e == 0 {
                            variant_counts.remove(&item);
                        }
                    } else {
                        break;
                    }
                }
                sink.accept(
                    1 + vi,
                    exact_report(
                        hierarchy,
                        &level_counts(hierarchy, &variant_counts),
                        variant_total,
                        threshold,
                        cur,
                        start,
                        end - delta,
                    ),
                );
            }
            counts.clear();
            *total = 0;
        };

        let measure = self.measure;
        let key = &self.key;
        for_each_item(source, |p| {
            let w = p.ts.bin_index(base);
            if w >= n_windows {
                return false;
            }
            while cur < w {
                flush(cur, &mut counts, &mut total, &mut tail, sink);
                cur += 1;
            }
            let item = key(&p);
            let weight = measure.weight(&p);
            *counts.entry(item).or_default() += weight;
            total += weight;
            let window_end = Nanos::ZERO + base * (w + 1);
            let offset_from_end = window_end - p.ts;
            if offset_from_end <= max_delta {
                tail.push((offset_from_end, item, weight));
            }
            true
        });
        while cur < n_windows {
            flush(cur, &mut counts, &mut total, &mut tail, sink);
            cur += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Continuous
// ---------------------------------------------------------------------

/// A **windowless** (continuous) detector probed at arbitrary instants
/// (sorted ascending). Single series; entry `i` is probe `i`, with
/// `start == end == probes[i]`.
pub struct Continuous<H, C, F> {
    detector: C,
    probes: Vec<Nanos>,
    threshold: Threshold,
    measure: Measure,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, C, F> Continuous<H, C, F>
where
    H: Hierarchy,
    C: ContinuousDetector<H>,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// Probe `detector` at each of `probes` while streaming packets
    /// through it.
    pub fn new(detector: C, probes: &[Nanos], threshold: Threshold, key: F) -> Self {
        assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probe instants must be sorted");
        Continuous {
            detector,
            probes: probes.to_vec(),
            threshold,
            measure: Measure::Bytes,
            key,
            _hierarchy: PhantomData,
        }
    }

    /// Weigh packets by bytes (default) or packets.
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }
}

impl<H, C, F> Engine for Continuous<H, C, F>
where
    H: Hierarchy,
    C: ContinuousDetector<H>,
    F: Fn(&PacketRecord) -> H::Item,
{
    type In = PacketRecord;
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        1
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        mut self,
        source: S,
        sink: &mut K,
    ) {
        let probes = &self.probes;
        let detector = &mut self.detector;
        let threshold = self.threshold;
        let mut next = 0usize;
        let probe = |next: usize, detector: &C, sink: &mut K| {
            sink.accept(
                0,
                WindowReport {
                    index: next as u64,
                    start: probes[next],
                    end: probes[next],
                    total: detector.decayed_total(probes[next]) as u64,
                    hhhs: detector.report_at(probes[next], threshold),
                },
            );
        };
        let measure = self.measure;
        let key = &self.key;
        for_each_item(source, |p| {
            while next < probes.len() && probes[next] <= p.ts {
                probe(next, detector, sink);
                next += 1;
            }
            detector.observe(p.ts, key(&p), measure.weight(&p));
            true
        });
        while next < probes.len() {
            probe(next, detector, sink);
            next += 1;
        }
    }
}

// ---------------------------------------------------------------------
// ShardedDisjoint
// ---------------------------------------------------------------------

/// Disjoint windows with ingestion hash-partitioned by key across one
/// worker thread per shard detector, fed in batches; at every boundary
/// the shard states are merged, the merged detector reports (and goes
/// to the sink's [`state`](ReportSink::state) hook, encoded only if the
/// sink reads it), and all shards reset.
///
/// With exact detectors the output is identical to [`Disjoint`] on the
/// same stream (merge is lossless); with approximate ones it is
/// identical up to the merge's additive error growth.
pub struct ShardedDisjoint<H, D, F> {
    detectors: Vec<D>,
    horizon: TimeSpan,
    window: TimeSpan,
    thresholds: Vec<Threshold>,
    batch: usize,
    measure: Measure,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, D, F> ShardedDisjoint<H, D, F>
where
    H: Hierarchy,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// One shard per detector in `detectors` (identically configured).
    pub fn new(
        detectors: Vec<D>,
        horizon: TimeSpan,
        window: TimeSpan,
        thresholds: &[Threshold],
        key: F,
    ) -> Self {
        assert!(!detectors.is_empty(), "need at least one shard detector");
        ShardedDisjoint {
            detectors,
            horizon,
            window,
            thresholds: thresholds.to_vec(),
            batch: DEFAULT_BATCH,
            measure: Measure::Bytes,
            key,
            _hierarchy: PhantomData,
        }
    }

    /// Packets per scatter batch (default
    /// [`DEFAULT_BATCH`](crate::sharded::DEFAULT_BATCH)).
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be non-zero");
        self.batch = batch;
        self
    }

    /// Weigh packets by bytes (default) or packets.
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }
}

impl<H, D, F> Engine for ShardedDisjoint<H, D, F>
where
    H: Hierarchy,
    H::Item: Send,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    type In = PacketRecord;
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let n_windows = self.horizon / self.window;
        let window = self.window;
        let thresholds = &self.thresholds;
        let batch = self.batch;
        let measure = self.measure;
        let key = &self.key;

        with_shards(self.detectors, |pool| {
            let mut pending: Vec<(H::Item, u64)> = Vec::with_capacity(batch);
            let mut cur: u64 = 0;

            let flush_window = |cur: u64,
                                pending: &mut Vec<(H::Item, u64)>,
                                pool: &mut crate::sharded::ShardPool<H, D>,
                                sink: &mut K| {
                if !pending.is_empty() {
                    pool.observe_batch(pending);
                    pending.clear();
                }
                let merged = pool.merged_snapshot();
                let end = Nanos::ZERO + window * (cur + 1);
                for (ti, t) in thresholds.iter().enumerate() {
                    sink.accept(
                        ti,
                        WindowReport {
                            index: cur,
                            start: Nanos::ZERO + window * cur,
                            end,
                            total: merged.total(),
                            hhhs: merged.report(*t),
                        },
                    );
                }
                sink.state(Nanos::ZERO + window * cur, end, &merged);
                pool.reset();
            };

            for_each_item(source, |p| {
                let w = p.ts.bin_index(window);
                if w >= n_windows {
                    return false; // time-sorted stream; the rest is partial tail
                }
                while cur < w {
                    flush_window(cur, &mut pending, pool, sink);
                    cur += 1;
                }
                pending.push((key(&p), measure.weight(&p)));
                if pending.len() >= batch {
                    pool.observe_batch(&pending);
                    pending.clear();
                }
                true
            });
            while cur < n_windows {
                flush_window(cur, &mut pending, pool, sink);
                cur += 1;
            }
        });
    }
}

// ---------------------------------------------------------------------
// ShardedSliding
// ---------------------------------------------------------------------

/// Sharded counterpart of [`SlidingExact`], generalized to **any
/// mergeable windowed detector**: a sliding window whose step divides
/// its length is a union of whole epochs, so each shard keeps a ring
/// of `window/step` detectors (one per in-window epoch) and the state
/// at any position is the merge of all rings across all shards.
///
/// With [`ExactHhh`](hhh_core::ExactHhh) shard detectors the output is
/// report-for-report identical to [`SlidingExact`]; approximate
/// mergeable detectors trade exactness for bounded state exactly as
/// they do in disjoint windows.
///
/// ## Per-position cost
///
/// The engine never re-merges the whole ring per position when the
/// detector kind supports [`retract`](MergeableDetector::retract) (the
/// exact kinds). It maintains one cross-shard **rolling** state — the
/// merge of every closed in-window epoch — and each step touches only
/// the epoch delta: workers hand back the *epoch that just closed*
/// (epoch-sized, `step/window` of the window state), which is merged
/// in; the epoch sliding out of the window is retracted. Per position
/// that is `O(shards)` epoch-sized merges and one retract; the report
/// and the sink's [`state`](ReportSink::state) hook read the rolling
/// state by reference, with no clone, and the state is encoded only
/// for sinks that read it. That is down from the naive
/// `shards × window/step` window-sized merges, and independent of the
/// window/step ratio.
///
/// At one shard the engine skips the cross-shard state: the worker's
/// own rolling detector already answers a window request in O(1)
/// window-sized ops and the reply is moved, not merged.
///
/// Detectors without `retract` (the lossy summaries, where merge order
/// matters) keep the full slot-order ring merge per position,
/// preserving their byte-for-byte report stability.
pub struct ShardedSliding<H, D, F> {
    rings: Vec<Vec<D>>,
    horizon: TimeSpan,
    window: TimeSpan,
    step: TimeSpan,
    thresholds: Vec<Threshold>,
    batch: usize,
    measure: Measure,
    force_ring_merge: bool,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, D, F> ShardedSliding<H, D, F>
where
    H: Hierarchy,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// `shards` shard rings of `window/step` detectors each, every
    /// detector built by `make(shard_index)` (identically configured —
    /// per-shard seeds are fine, the merge contracts allow it).
    pub fn new(
        shards: usize,
        make: impl Fn(usize) -> D,
        horizon: TimeSpan,
        window: TimeSpan,
        step: TimeSpan,
        thresholds: &[Threshold],
        key: F,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(!step.is_zero() && !window.is_zero(), "window and step must be non-zero");
        assert!(window % step == TimeSpan::ZERO, "step must divide the window length exactly");
        assert!(window <= horizon, "window longer than the horizon");
        let epw = (window / step) as usize;
        let rings = (0..shards).map(|s| (0..epw).map(|_| make(s)).collect()).collect();
        ShardedSliding {
            rings,
            horizon,
            window,
            step,
            thresholds: thresholds.to_vec(),
            batch: DEFAULT_BATCH,
            measure: Measure::Bytes,
            force_ring_merge: false,
            key,
            _hierarchy: PhantomData,
        }
    }

    /// Take the full slot-order ring merge at every position even for
    /// retractable kinds — the pre-incremental cost model. A
    /// **measurement knob**: the reports are identical either way (the
    /// parity tests pin both paths), this only exists so benchmarks can
    /// quantify what the incremental rolling state saves.
    pub fn force_ring_merge(mut self) -> Self {
        self.force_ring_merge = true;
        self
    }

    /// Packets per scatter batch (default
    /// [`DEFAULT_BATCH`](crate::sharded::DEFAULT_BATCH)).
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be non-zero");
        self.batch = batch;
        self
    }

    /// Weigh packets by bytes (default) or packets.
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }
}

impl<H, D, F> Engine for ShardedSliding<H, D, F>
where
    H: Hierarchy,
    H::Item: Send,
    D: HhhDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    type In = PacketRecord;
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let epw = self.window / self.step;
        let n_epochs = self.horizon / self.step;
        let (window, step) = (self.window, self.step);
        let thresholds = &self.thresholds;
        let batch = self.batch;
        let measure = self.measure;
        let key = &self.key;

        // Probe invertibility once, on an empty detector (kinds either
        // always or never support retraction). When supported, `empty`
        // seeds the engine's cross-shard rolling state. At one shard
        // the worker's own rolling state already answers a window
        // request in O(1) window-sized ops and the reply is moved, not
        // merged — a cross-shard rolling state could only add work, so
        // the engine maintains one only when there are shard states to
        // fold.
        let shards = self.rings.len();
        let mut empty = self.rings[0][0].clone();
        empty.reset();
        let incremental = shards > 1 && !self.force_ring_merge && {
            let probe = empty.clone();
            empty.retract(&probe)
        };

        with_sliding_shards(self.rings, |pool| {
            let mut pending: Vec<(H::Item, u64)> = Vec::with_capacity(batch);
            let mut cur_epoch: u64 = 0;
            // Incremental path state: `rolling` is the merge of every
            // closed in-window epoch across all shards; `closed` holds
            // those cross-shard epoch states so the one sliding out of
            // the window can be retracted.
            let mut rolling = empty;
            let mut closed: VecDeque<D> = VecDeque::with_capacity(epw as usize);

            let emit = |cur_epoch: u64, merged: &D, sink: &mut K| {
                let position = cur_epoch + 1 - epw;
                let end = Nanos::ZERO + step * position + window;
                for (ti, t) in thresholds.iter().enumerate() {
                    sink.accept(
                        ti,
                        WindowReport {
                            index: position,
                            start: Nanos::ZERO + step * position,
                            end,
                            total: merged.total(),
                            hhhs: merged.report(*t),
                        },
                    );
                }
                sink.state(Nanos::ZERO + step * position, end, merged);
            };

            let boundary = |cur_epoch: u64,
                            pending: &mut Vec<(H::Item, u64)>,
                            pool: &mut crate::sharded::SlidingShardPool<H, D>,
                            sink: &mut K,
                            rolling: &mut D,
                            closed: &mut VecDeque<D>| {
                if !pending.is_empty() {
                    pool.observe_batch(pending);
                    pending.clear();
                }
                let report = cur_epoch + 1 >= epw;
                if incremental {
                    // O(shards) epoch-sized merges: harvest the epoch
                    // that just closed (workers rotate as part of the
                    // same message) and fold it into the rolling state,
                    // which then *is* the window state — report from it
                    // by reference (no window-sized clone), and only
                    // then retract the epoch sliding out.
                    let epoch = pool.close_epoch();
                    rolling.merge(&epoch);
                    closed.push_back(epoch);
                    if report {
                        emit(cur_epoch, rolling, sink);
                    }
                    if closed.len() as u64 == epw {
                        let old = closed.pop_front().expect("just checked non-empty");
                        let ok = rolling.retract(&old);
                        debug_assert!(ok, "retract support cannot change mid-run");
                    }
                } else {
                    // Non-retractable fallback: full slot-order ring
                    // merge (stable for lossy summaries), then rotate.
                    if report {
                        emit(cur_epoch, &pool.merged_window(), sink);
                    }
                    pool.advance();
                }
            };

            for_each_item(source, |p| {
                let e = p.ts.bin_index(step);
                if e >= n_epochs {
                    return false;
                }
                while cur_epoch < e {
                    boundary(cur_epoch, &mut pending, pool, sink, &mut rolling, &mut closed);
                    cur_epoch += 1;
                }
                pending.push((key(&p), measure.weight(&p)));
                if pending.len() >= batch {
                    pool.observe_batch(&pending);
                    pending.clear();
                }
                true
            });
            while cur_epoch < n_epochs {
                boundary(cur_epoch, &mut pending, pool, sink, &mut rolling, &mut closed);
                cur_epoch += 1;
            }
        });
    }
}

// ---------------------------------------------------------------------
// ShardedContinuous
// ---------------------------------------------------------------------

/// Sharded counterpart of [`Continuous`]: ingestion hash-partitioned by
/// key across one worker thread per windowless shard detector; at each
/// probe instant the shard states are merged (decaying both sides to a
/// common time) and the merged detector answers — and goes to the
/// sink's [`state`](ReportSink::state) hook.
///
/// Requires a continuous detector that is also mergeable, e.g.
/// [`TdbfHhh`](hhh_core::TdbfHhh). Key-partitioning keeps per-prefix
/// decayed estimates additive across shards, so the merged report
/// matches the unsharded detector's (bit-exactly at one shard;
/// set-identically at several, where float summation order may differ
/// in the last ulp).
pub struct ShardedContinuous<H, C, F> {
    detectors: Vec<C>,
    probes: Vec<Nanos>,
    threshold: Threshold,
    batch: usize,
    measure: Measure,
    key: F,
    _hierarchy: PhantomData<H>,
}

impl<H, C, F> ShardedContinuous<H, C, F>
where
    H: Hierarchy,
    C: ContinuousDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    /// One shard per detector in `detectors` (identically configured).
    pub fn new(detectors: Vec<C>, probes: &[Nanos], threshold: Threshold, key: F) -> Self {
        assert!(!detectors.is_empty(), "need at least one shard detector");
        assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probe instants must be sorted");
        ShardedContinuous {
            detectors,
            probes: probes.to_vec(),
            threshold,
            batch: DEFAULT_BATCH,
            measure: Measure::Bytes,
            key,
            _hierarchy: PhantomData,
        }
    }

    /// Packets per scatter batch (default
    /// [`DEFAULT_BATCH`](crate::sharded::DEFAULT_BATCH)).
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be non-zero");
        self.batch = batch;
        self
    }

    /// Weigh packets by bytes (default) or packets.
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }
}

impl<H, C, F> Engine for ShardedContinuous<H, C, F>
where
    H: Hierarchy,
    H::Item: Send,
    C: ContinuousDetector<H> + MergeableDetector + Clone + Send,
    F: Fn(&PacketRecord) -> H::Item,
{
    type In = PacketRecord;
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        1
    }

    fn run<S: Source<Item = PacketRecord>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let probes = &self.probes;
        let threshold = self.threshold;
        let batch = self.batch;
        let measure = self.measure;
        let key = &self.key;

        with_continuous_shards(self.detectors, |pool| {
            let mut pending: Vec<(Nanos, H::Item, u64)> = Vec::with_capacity(batch);
            let mut next = 0usize;

            let probe = |next: usize,
                         pending: &mut Vec<(Nanos, H::Item, u64)>,
                         pool: &mut crate::sharded::ContinuousShardPool<H, C>,
                         sink: &mut K| {
                if !pending.is_empty() {
                    pool.observe_batch(pending);
                    pending.clear();
                }
                let merged = pool.merged_snapshot();
                sink.accept(
                    0,
                    WindowReport {
                        index: next as u64,
                        start: probes[next],
                        end: probes[next],
                        total: merged.decayed_total(probes[next]) as u64,
                        hhhs: merged.report_at(probes[next], threshold),
                    },
                );
                // Windowless probe: the state covers "now"; start and
                // report point coincide.
                sink.state(probes[next], probes[next], &merged);
            };

            for_each_item(source, |p| {
                while next < probes.len() && probes[next] <= p.ts {
                    probe(next, &mut pending, pool, sink);
                    next += 1;
                }
                pending.push((p.ts, key(&p), measure.weight(&p)));
                if pending.len() >= batch {
                    pool.observe_batch(&pending);
                    pending.clear();
                }
                true
            });
            while next < probes.len() {
                probe(next, &mut pending, pool, sink);
                next += 1;
            }
        });
    }
}

// ---------------------------------------------------------------------
// FoldSnapshots
// ---------------------------------------------------------------------

/// Replay a pipeline from **previously captured detector snapshots**
/// instead of packets: the engine consumes [`WireSnapshot`]s (what a
/// [`SnapshotSource`](crate::SnapshotSource) yields from a stream in
/// either wire format), folds every snapshot taken at the same report
/// point into one restored detector with the round-trip codec, and
/// emits the merged report — the in-process face of cross-process
/// aggregation (`hhh-agg` drives the same fold over many streams at
/// once). Binary (v2) snapshots decode straight into detectors, no
/// JSON detour. The folded state goes to the sink's
/// [`state`](ReportSink::state) hook; a sink that re-encodes it keeps
/// a failed encode as its own typed error.
///
/// Snapshots must arrive grouped by report point (`at`
/// non-decreasing — **enforced**: an out-of-order snapshot panics, so
/// concatenating shard streams cannot silently masquerade as merging
/// them), which any stream a `SnapshotSink` wrote already satisfies;
/// interleave K shard streams by merging them sorted by `at` (or let
/// `hhh-agg` do it). One series per threshold. Report `index` is the
/// 0-based report-point ordinal; `start`/`end` are the window bounds
/// the snapshots carry (`start == end == at` only for windowless
/// probes and pre-geometry v1 streams).
///
/// Folding applies the in-process merge algebra, so mixed kinds or
/// mismatched configurations at one report point are programmer error —
/// the engine panics with the underlying
/// [`SnapshotError`](hhh_core::SnapshotError), exactly as the
/// in-process merges panic on mismatched configuration. Use `hhh-agg`
/// for the error-returning flavor.
pub struct FoldSnapshots<'h, H> {
    hierarchy: &'h H,
    thresholds: Vec<Threshold>,
}

impl<'h, H: Hierarchy> FoldSnapshots<'h, H> {
    /// Fold snapshots over `hierarchy`, reporting each of `thresholds`
    /// (one output series per threshold, same order).
    pub fn new(hierarchy: &'h H, thresholds: &[Threshold]) -> Self {
        assert!(!thresholds.is_empty(), "need at least one threshold");
        FoldSnapshots { hierarchy, thresholds: thresholds.to_vec() }
    }
}

impl<H> Engine for FoldSnapshots<'_, H>
where
    H: Hierarchy,
    H::Item: FromStr,
    H::Prefix: FromStr,
{
    type In = WireSnapshot;
    type Prefix = H::Prefix;

    fn series(&self) -> usize {
        self.thresholds.len()
    }

    fn run<S: Source<Item = WireSnapshot>, K: ReportSink<H::Prefix>>(
        self,
        source: S,
        sink: &mut K,
    ) {
        let hierarchy = self.hierarchy;
        let thresholds = &self.thresholds;
        // Per-kind report ordinals — the same numbering `hhh-agg`
        // renders, so `index` means "this kind's n-th report point" on
        // both paths.
        let mut ordinals: Vec<(&'static str, u64)> = Vec::new();
        // All the folds in flight at the current report point, one per
        // detector kind in first-seen order — a stream may carry
        // several kinds side by side (hhh-agg accepts the same). Each
        // fold keeps the window start its first snapshot carried.
        let mut at: Option<Nanos> = None;
        let mut folds: Vec<(Nanos, RestoredDetector<H>)> = Vec::new();

        let flush = |ordinals: &mut Vec<(&'static str, u64)>,
                     at: Nanos,
                     folds: &mut Vec<(Nanos, RestoredDetector<H>)>,
                     sink: &mut K| {
            for (start, merged) in folds.drain(..) {
                let kind = merged.kind();
                let index = match ordinals.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, n)) => n,
                    None => {
                        ordinals.push((kind, 0));
                        &mut ordinals.last_mut().expect("just pushed").1
                    }
                };
                for (ti, t) in thresholds.iter().enumerate() {
                    sink.accept(
                        ti,
                        WindowReport {
                            index: *index,
                            start,
                            end: at,
                            total: merged.total(),
                            hhhs: merged.report(at, *t),
                        },
                    );
                }
                sink.state(start, at, &merged);
                *index += 1;
            }
        };

        for_each_item(source, |s: WireSnapshot| {
            if at != Some(s.at()) {
                if let Some(prev) = at {
                    assert!(
                        s.at() > prev,
                        "snapshots must arrive grouped by report point: {} after {prev} \
                         (concatenated shard streams? interleave them sorted by at, \
                         or use hhh-agg)",
                        s.at(),
                    );
                    flush(&mut ordinals, prev, &mut folds, sink);
                }
                at = Some(s.at());
            }
            match folds.iter_mut().find(|(_, f)| f.kind() == s.kind()) {
                Some((_, merged)) => merged
                    .fold_wire(hierarchy, &s)
                    .unwrap_or_else(|e| panic!("snapshot fold at {}: {e}", s.at())),
                None => folds.push((
                    s.start(),
                    RestoredDetector::from_wire(hierarchy, &s)
                        .unwrap_or_else(|e| panic!("snapshot restore at {}: {e}", s.at())),
                )),
            }
            true
        });
        if let Some(prev) = at {
            flush(&mut ordinals, prev, &mut folds, sink);
        }
    }
}
