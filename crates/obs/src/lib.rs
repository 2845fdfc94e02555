//! Near-zero-overhead observability for the miniGiraffe mapping loop.
//!
//! The paper's contribution is *measurement*: per-stage timing, cache
//! statistics and scheduler behaviour are what make the proxy useful. This
//! crate provides the subsystem those numbers flow through:
//!
//! - [`Metrics`]: a process-level registry. Each worker thread checks out an
//!   [`ObsShard`], records into plain (unsynchronized) arrays on the hot
//!   path, and the shard is merged back with [`Metrics::absorb`] when the
//!   worker finishes — the same collection discipline the mapper already
//!   uses for `CacheStats`-style per-thread state.
//! - [`Stage`] spans: accumulated wall time + entry counts for the seven
//!   pipeline stages (parse → seeding → clustering → extension → rescoring
//!   → pairing → render). A shard can carry a [`RegionSink`] and its
//!   worker's thread index ([`ObsShard::with_sink`]). The shard holds the
//!   open mark: [`ObsShard::open`] reads the clock once per fragment and
//!   each stage boundary reads it once more, closing the span in the shard
//!   and the sink from the same instants.
//! - [`Ctr`] counters, [`Hist`] histograms with fixed log2 buckets, and
//!   max-merged [`Gauge`]s.
//! - [`Report`]: the merged result, exportable as JSON.
//!
//! There is one off switch, at runtime: shards handed out by
//! [`Metrics::off`] skip all recording behind a single predictable branch,
//! and read no clock unless a recording sink is attached.

#![forbid(unsafe_code)]

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

pub use mg_support::regions::{RegionSink, Stage};

/// Declares a metric enum from one list: each variant with the stable
/// lowercase name the exporters use, in index order, plus the enum's
/// `COUNT`, `ALL` (declaration order) and `name()`.
macro_rules! metric_enum {
    ($(#[$meta:meta])* pub enum $enum:ident {
        $($(#[$vmeta:meta])* $variant:ident => $name:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $enum {
            $($(#[$vmeta])* $variant,)*
        }

        impl $enum {
            /// Number of variants.
            pub const COUNT: usize = [$($name),*].len();
            /// All variants, in declaration order.
            pub const ALL: [$enum; $enum::COUNT] = [$($enum::$variant),*];

            /// Stable lowercase name used by the exporters.
            pub fn name(self) -> &'static str {
                match self {
                    $($enum::$variant => $name,)*
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonically increasing event counters.
    pub enum Ctr {
        /// Reads fully mapped by the proxy or parent pipeline.
        ReadsMapped => "reads_mapped",
        /// Seeds produced across all reads.
        SeedsTotal => "seeds_total",
        /// Gapless extensions produced across all reads.
        ExtensionsTotal => "extensions_total",
        /// `CachedGbwt` record lookups served from the cache.
        CacheHits => "cache_hits",
        /// `CachedGbwt` record lookups that decoded from the backing GBWT.
        CacheMisses => "cache_misses",
        /// Entries dropped from the cache. The cache only grows (it never
        /// evicts under memory pressure), so this counts cold invalidations:
        /// cached entries discarded when a warm cache is re-bound to a
        /// different GBWT or capacity.
        CacheEvictions => "cache_evictions",
        /// Cache table doublings.
        CacheResizes => "cache_resizes",
        /// Slots moved during cache table doublings.
        CacheRehashedSlots => "cache_rehashed_slots",
        /// Work-stealing scheduler: batches claimed from another thread's share.
        PoolSteals => "pool_steals",
        /// Batches dispatched across all schedulers.
        PoolBatches => "pool_batches",
        /// Tasks completed by scheduler workers: reads on the proxy path,
        /// fragments (one read, or one mate pair) on the parent's.
        PoolTasksCompleted => "pool_tasks_completed",
        /// Nanoseconds VG-style workers spent blocked on the shared queue.
        PoolIdleNs => "pool_idle_ns",
        /// Configurations evaluated by the tuning sweep.
        SweepPoints => "sweep_points",
        /// Batches pushed through the streaming-ingestion hand-off queue.
        StreamBatches => "stream_batches",
        /// Reads delivered by the streaming-ingestion producer.
        StreamReads => "stream_reads",
        /// Nanoseconds the streaming producer spent blocked on a full queue
        /// (backpressure applied by the mapping consumer).
        StreamProducerBlockedNs => "stream_producer_blocked_ns",
        /// Anchors the extension kernel walked, the first walk of every read
        /// included.
        ExtendAnchorsWalked => "extend_anchors_walked",
        /// Extension DFS subtrees skipped by branch-and-bound pruning (they
        /// provably could not beat the best prefix already found).
        ExtendPrunedFrames => "extend_pruned_frames",
        /// Anchors not walked because an anchor of the same node and diagonal,
        /// joined to them by matching read bases, yields the same extension
        /// (the kernel's exact merge).
        ExtendAnchorsMerged => "extend_anchors_merged",
        /// Anchors not walked because they lie on an exact full-length
        /// extension their read already has. With `extend_anchors_walked` and
        /// `extend_anchors_merged` this adds up to the distinct anchors of the
        /// clusters processed.
        ExtendAnchorsSkipped => "extend_anchors_skipped",
        /// Mapping jobs that ran to `DONE`.
        ServeJobsCompleted => "serve_jobs_completed",
        /// Mapping jobs that ended with a per-job error frame (corrupt input
        /// or a worker panic inside the job).
        ServeJobsFailed => "serve_jobs_failed",
        /// GAF bytes streamed to server clients.
        ServeGafBytes => "serve_gaf_bytes",
        /// Server connections dropped for bytes that do not parse as frames.
        ServeProtoErrors => "serve_proto_errors",
        /// Reads settled by the extension kernel's first walk — an exact
        /// full-length extension every seed lies on — without clustering.
        /// `reads_mapped − extend_first_reads` reads reached the clustering
        /// stage: those whose seeds all lie on the first walk as one cluster
        /// of every seed, without `cluster_seeds`, the rest through it.
        ExtendFirstReads => "extend_first_reads",
    }
}

metric_enum! {
    /// Histograms over per-event magnitudes, bucketed by log2.
    pub enum Hist {
        /// Seeds found per read.
        SeedsPerRead => "seeds_per_read",
        /// Extensions produced per read.
        ExtensionsPerRead => "extensions_per_read",
        /// Reads per dispatched scheduler batch.
        BatchReads => "batch_reads",
        /// Tuning-sweep point makespans, in microseconds.
        SweepMakespanUs => "sweep_makespan_us",
        /// Reads per mapping chunk assembled by the streaming consumer.
        StreamChunkReads => "stream_chunk_reads",
        /// Server job latency (submit to `DONE`), in microseconds.
        ServeJobLatencyUs => "serve_job_latency_us",
        /// Time served jobs spent queued before their first chunk was
        /// dispatched, in microseconds.
        ServeQueueWaitUs => "serve_queue_wait_us",
        /// Reads per served mapping job.
        ServeJobReads => "serve_job_reads",
    }
}

metric_enum! {
    /// High-water marks merged by `max`.
    pub enum Gauge {
        /// Deepest VG-style shared-queue occupancy observed.
        QueueDepthMax => "queue_depth_max",
        /// Largest worker count a run used.
        ThreadsMax => "threads_max",
        /// Deepest streaming-ingestion queue occupancy observed (in batches).
        StreamQueueDepthMax => "stream_queue_depth_max",
        /// Most jobs the server executor interleaved at once.
        ServeActiveMax => "serve_active_max",
    }
}

/// Number of log2 buckets per histogram. Bucket 0 holds zeros; bucket `b`
/// (for `b >= 1`) holds values in `[2^(b-1), 2^b)`; the last bucket also
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 32;

/// Maps a value to its fixed log2 bucket.
///
/// ```
/// use mg_obs::{bucket_of, HIST_BUCKETS};
/// assert_eq!(bucket_of(0), 0);
/// assert_eq!(bucket_of(1), 1);
/// assert_eq!(bucket_of(2), 2);
/// assert_eq!(bucket_of(3), 2);
/// assert_eq!(bucket_of(4), 3);
/// assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
/// ```
#[inline]
pub fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Upper-bound estimate of the `p`-quantile (`0.0 < p <= 1.0`) of a
/// log2-bucketed histogram, given its raw bucket counts (the layout
/// produced by [`bucket_of`]): the inclusive upper edge of the first
/// bucket whose cumulative count reaches `ceil(p × total)`.
///
/// Returns 0 for an empty histogram (all buckets zero). Bucket 0 holds
/// zeros exactly, so the estimate is exact there; bucket `b >= 1` holds
/// `[2^(b-1), 2^b)` and reports `2^b - 1`, overshooting by less than 2×.
/// Slices longer than 64 buckets saturate to `u64::MAX` past the widest
/// representable edge. This is the quantile definition behind
/// [`Report::hist_quantile`], and so behind the server's `STATS` latency
/// figures.
pub fn percentile(buckets: &[u64], p: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (b, n) in buckets.iter().enumerate() {
        cumulative += n;
        if cumulative >= rank {
            return match b {
                0 => 0,
                _ => 1u64.checked_shl(b as u32).map_or(u64::MAX, |edge| edge - 1),
            };
        }
    }
    u64::MAX
}

/// A merged (or mergeable) snapshot of every metric: plain arrays indexed
/// by the metric enums. This is both the per-shard storage and the
/// registry's accumulated state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    counters: [u64; Ctr::COUNT],
    stage_ns: [u64; Stage::COUNT],
    stage_hits: [u64; Stage::COUNT],
    hist_buckets: [[u64; HIST_BUCKETS]; Hist::COUNT],
    hist_counts: [u64; Hist::COUNT],
    hist_sums: [u64; Hist::COUNT],
    gauges: [u64; Gauge::COUNT],
}

impl Default for Report {
    fn default() -> Self {
        Report {
            counters: [0; Ctr::COUNT],
            stage_ns: [0; Stage::COUNT],
            stage_hits: [0; Stage::COUNT],
            hist_buckets: [[0; HIST_BUCKETS]; Hist::COUNT],
            hist_counts: [0; Hist::COUNT],
            hist_sums: [0; Hist::COUNT],
            gauges: [0; Gauge::COUNT],
        }
    }
}

impl Report {
    /// Value of a counter.
    #[inline]
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters[c as usize]
    }

    /// Accumulated nanoseconds spent in a stage.
    #[inline]
    pub fn stage_ns(&self, s: Stage) -> u64 {
        self.stage_ns[s as usize]
    }

    /// Number of span records for a stage.
    #[inline]
    pub fn stage_count(&self, s: Stage) -> u64 {
        self.stage_hits[s as usize]
    }

    /// Number of observations recorded into a histogram.
    #[inline]
    pub fn hist_count(&self, h: Hist) -> u64 {
        self.hist_counts[h as usize]
    }

    /// Sum of all observations recorded into a histogram.
    #[inline]
    pub fn hist_sum(&self, h: Hist) -> u64 {
        self.hist_sums[h as usize]
    }

    /// The raw log2 bucket array of a histogram.
    #[inline]
    pub fn hist_buckets(&self, h: Hist) -> &[u64; HIST_BUCKETS] {
        &self.hist_buckets[h as usize]
    }

    /// Value of a max-merged gauge.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 < q <= 1.0`) of a
    /// histogram, from its log2 buckets: the inclusive upper edge of the
    /// first bucket whose cumulative count reaches `ceil(q × count)`.
    /// Returns 0 for an empty histogram. The estimate is exact for values
    /// 0 and 1 and otherwise overshoots by less than 2× — tight enough for
    /// the p50/p99 latency figures the server's `STATS` reply exports.
    pub fn hist_quantile(&self, h: Hist, q: f64) -> u64 {
        percentile(&self.hist_buckets[h as usize], q)
    }

    #[inline]
    fn inc(&mut self, c: Ctr, n: u64) {
        self.counters[c as usize] += n;
    }

    #[inline]
    fn span(&mut self, s: Stage, ns: u64) {
        self.stage_ns[s as usize] += ns;
        self.stage_hits[s as usize] += 1;
    }

    #[inline]
    fn observe(&mut self, h: Hist, v: u64) {
        self.hist_buckets[h as usize][bucket_of(v)] += 1;
        self.hist_counts[h as usize] += 1;
        self.hist_sums[h as usize] += v;
    }

    #[inline]
    fn gauge_max(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g as usize];
        *slot = (*slot).max(v);
    }

    /// Adds another report into this one (counters/spans/histograms sum,
    /// gauges max-merge).
    pub fn merge(&mut self, other: &Report) {
        for i in 0..Ctr::COUNT {
            self.counters[i] += other.counters[i];
        }
        for i in 0..Stage::COUNT {
            self.stage_ns[i] += other.stage_ns[i];
            self.stage_hits[i] += other.stage_hits[i];
        }
        for i in 0..Hist::COUNT {
            for b in 0..HIST_BUCKETS {
                self.hist_buckets[i][b] += other.hist_buckets[i][b];
            }
            self.hist_counts[i] += other.hist_counts[i];
            self.hist_sums[i] += other.hist_sums[i];
        }
        for i in 0..Gauge::COUNT {
            self.gauges[i] = self.gauges[i].max(other.gauges[i]);
        }
    }

    /// Renders the report as a stable, hand-rolled JSON document (the
    /// workspace deliberately has no serde; see DESIGN.md).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"stages\": {");
        for (i, s) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"ns\": {}, \"count\": {}}}",
                s.name(),
                self.stage_ns(*s),
                self.stage_count(*s)
            ));
        }
        out.push_str("\n  },\n  \"counters\": {");
        for (i, c) in Ctr::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.name(), self.counter(*c)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in Hist::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> =
                self.hist_buckets(*h).iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                h.name(),
                self.hist_count(*h),
                self.hist_sum(*h),
                buckets.join(", ")
            ));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", g.name(), self.gauge(*g)));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Per-worker metric storage: plain arrays, no synchronization, recorded
/// into by `&mut` on the hot path and merged into the [`Metrics`] registry
/// once at worker finish. It can carry the worker's [`RegionSink`] and
/// thread index, which every closed stage interval is handed to as well.
///
/// The shard holds the open mark: [`ObsShard::open`] reads the clock once
/// per fragment, and each [`ObsShard::stage`] closes `[mark, now)` and moves
/// the mark to `now`, so consecutive stages abut and a stage boundary costs
/// one clock read.
#[derive(Clone, Default)]
pub struct ObsShard<'s> {
    on: bool,
    rep: Report,
    /// The attached region sink and the thread index it is told; only a
    /// sink that records is attached.
    regions: Option<(&'s dyn RegionSink, usize)>,
    /// Where the open interval started; `None` until [`ObsShard::open`]
    /// runs on a shard that records or feeds a sink.
    mark: Option<Instant>,
}

impl<'s> ObsShard<'s> {
    /// A shard that records nothing; handy for uninstrumented call paths.
    #[inline]
    pub fn disabled() -> ObsShard<'s> {
        ObsShard::default()
    }

    /// Attaches `regions` as the region sink of worker `thread`: every
    /// stage interval this shard closes is also handed to it, from the same
    /// clock reads. A sink that is not recording is not attached, so a
    /// disabled shard with a [`NullSink`](mg_support::regions::NullSink)
    /// still reads no clock.
    pub fn with_sink(mut self, regions: &'s dyn RegionSink, thread: usize) -> ObsShard<'s> {
        self.regions = regions.is_recording().then_some((regions, thread));
        self
    }

    /// Bumps a counter by 1.
    #[inline(always)]
    pub fn inc(&mut self, c: Ctr) {
        self.add(c, 1);
    }

    /// Bumps a counter by `n`.
    #[inline(always)]
    pub fn add(&mut self, c: Ctr, n: u64) {
        if self.on {
            self.rep.inc(c, n);
        }
    }

    /// Records a value into a histogram.
    #[inline(always)]
    pub fn observe(&mut self, h: Hist, v: u64) {
        if self.on {
            self.rep.observe(h, v);
        }
    }

    /// Raises a gauge's high-water mark.
    #[inline(always)]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        if self.on {
            self.rep.gauge_max(g, v);
        }
    }

    /// Sets the mark at now: the next [`ObsShard::stage`] starts here.
    /// Reads no clock when the shard is off and no sink is attached.
    #[inline(always)]
    pub fn open(&mut self) {
        self.mark = (self.on || self.regions.is_some()).then(Instant::now);
    }

    /// Closes `[mark, now)` as one span of `stage`, in the shard and the
    /// attached sink, and moves the mark to now. Does nothing before
    /// [`ObsShard::open`].
    #[inline(always)]
    pub fn stage(&mut self, s: Stage) {
        if let Some(ns) = self.close(s) {
            self.rep.span(s, ns);
        }
    }

    /// [`ObsShard::stage`] for a part of a stage whose span a later
    /// `stage` call of the same stage completes: the sink gets the part as
    /// an interval of its own, and the shard adds its nanoseconds without
    /// counting a span.
    #[inline(always)]
    pub fn part(&mut self, s: Stage) {
        if let Some(ns) = self.close(s) {
            self.rep.stage_ns[s as usize] += ns;
        }
    }

    /// Hands `[mark, now)` to the sink and moves the mark; returns the
    /// interval's nanoseconds when the shard records.
    #[inline(always)]
    fn close(&mut self, s: Stage) -> Option<u64> {
        let from = self.mark?;
        let to = Instant::now();
        if let Some((sink, thread)) = self.regions {
            sink.record(thread, s, from, to);
        }
        self.mark = Some(to);
        self.on.then(|| (to - from).as_nanos() as u64)
    }

    /// This shard's accumulated data.
    #[inline]
    pub fn report(&self) -> &Report {
        &self.rep
    }
}

/// The process-level metrics registry.
///
/// Hot-path recording happens in [`ObsShard`]s; the registry only sees a
/// mutex-protected merge per worker (plus low-frequency scheduler events
/// recorded directly through [`Metrics::add`] and friends). Locking is
/// poison-tolerant: a worker panicking mid-run cannot wedge the registry,
/// so partial metrics stay readable after a failed run.
#[derive(Debug, Default)]
pub struct Metrics {
    on: bool,
    merged: Mutex<Report>,
}

impl Metrics {
    /// A registry with recording enabled.
    pub fn new() -> Metrics {
        Metrics {
            on: true,
            merged: Mutex::new(Report::default()),
        }
    }

    /// A registry with the runtime switch off: shards it hands out record
    /// nothing and `absorb`/`add` are no-ops.
    pub fn off() -> Metrics {
        Metrics {
            on: false,
            merged: Mutex::new(Report::default()),
        }
    }

    /// A shared disabled registry for uninstrumented call paths, so they
    /// don't construct a fresh `Mutex<Report>` per run.
    pub fn off_ref() -> &'static Metrics {
        static OFF: std::sync::OnceLock<Metrics> = std::sync::OnceLock::new();
        OFF.get_or_init(Metrics::off)
    }

    /// Whether recording is active.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Checks out a worker-local shard carrying this registry's switch.
    pub fn shard<'s>(&self) -> ObsShard<'s> {
        ObsShard {
            on: self.on,
            ..ObsShard::default()
        }
    }

    fn with_merged(&self, f: impl FnOnce(&mut Report)) {
        let mut guard = self.merged.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard);
    }

    /// Merges a finished worker's shard into the registry.
    pub fn absorb(&self, shard: &ObsShard<'_>) {
        if self.on && shard.on {
            self.with_merged(|m| m.merge(&shard.rep));
        }
    }

    /// Registry-level counter bump for cold (per-batch, not per-read)
    /// events recorded from `&self` contexts such as scheduler drivers.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        if self.on {
            self.with_merged(|m| m.inc(c, n));
        }
    }

    /// Registry-level histogram observation (cold paths only).
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        if self.on {
            self.with_merged(|m| m.observe(h, v));
        }
    }

    /// Registry-level gauge high-water update (cold paths only).
    #[inline]
    pub fn gauge_max(&self, g: Gauge, v: u64) {
        if self.on {
            self.with_merged(|m| m.gauge_max(g, v));
        }
    }

    /// Snapshot of everything merged so far.
    pub fn report(&self) -> Report {
        self.merged
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1 << 40), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn metrics_are_in_index_order_with_distinct_names() {
        fn check<T: Copy>(all: &[T], index: impl Fn(T) -> usize, name: impl Fn(T) -> &'static str) {
            for (i, &m) in all.iter().enumerate() {
                assert_eq!(index(m), i, "{}", name(m));
            }
            let names: std::collections::HashSet<_> = all.iter().map(|&m| name(m)).collect();
            assert_eq!(names.len(), all.len());
        }
        check(&Ctr::ALL, |c| c as usize, Ctr::name);
        check(&Hist::ALL, |h| h as usize, Hist::name);
        check(&Gauge::ALL, |g| g as usize, Gauge::name);
        assert_eq!((Ctr::COUNT, Hist::COUNT, Gauge::COUNT), (25, 8, 4));
        assert_eq!((Ctr::ExtendFirstReads.name(), Gauge::ServeActiveMax as usize), ("extend_first_reads", 3));
    }

    #[test]
    fn shard_records_and_registry_merges() {
        let metrics = Metrics::new();
        let mut a = metrics.shard();
        let mut b = metrics.shard();
        a.inc(Ctr::ReadsMapped);
        a.add(Ctr::CacheHits, 10);
        a.observe(Hist::SeedsPerRead, 5);
        a.gauge_max(Gauge::QueueDepthMax, 3);
        b.add(Ctr::ReadsMapped, 2);
        b.observe(Hist::SeedsPerRead, 0);
        b.gauge_max(Gauge::QueueDepthMax, 7);
        metrics.absorb(&a);
        metrics.absorb(&b);
        let rep = metrics.report();
        assert_eq!(rep.counter(Ctr::ReadsMapped), 3);
        assert_eq!(rep.counter(Ctr::CacheHits), 10);
        assert_eq!(rep.hist_count(Hist::SeedsPerRead), 2);
        assert_eq!(rep.hist_sum(Hist::SeedsPerRead), 5);
        assert_eq!(rep.hist_buckets(Hist::SeedsPerRead)[bucket_of(5)], 1);
        assert_eq!(rep.hist_buckets(Hist::SeedsPerRead)[0], 1);
        assert_eq!(rep.gauge(Gauge::QueueDepthMax), 7);
    }

    #[test]
    fn spans_accumulate() {
        let metrics = Metrics::new();
        let mut s = metrics.shard();
        // Before the mark is opened there is nothing to close.
        s.stage(Stage::Clustering);
        s.open();
        for _ in 0..3 {
            s.stage(Stage::Clustering);
        }
        metrics.absorb(&s);
        let rep = metrics.report();
        assert_eq!(rep.stage_count(Stage::Clustering), 3);
        assert_eq!(rep.stage_count(Stage::Extension), 0);
    }

    /// Keeps every interval it is handed.
    struct Collector(Mutex<Vec<(usize, Stage, Instant, Instant)>>);

    impl RegionSink for Collector {
        fn record(&self, thread: usize, stage: Stage, start: Instant, end: Instant) {
            self.0.lock().unwrap().push((thread, stage, start, end));
        }
    }

    #[test]
    fn stage_feeds_shard_and_sink_from_the_same_instants() {
        let metrics = Metrics::new();
        let sink = Collector(Mutex::new(Vec::new()));
        let mut s = metrics.shard().with_sink(&sink, 3);
        s.open();
        s.stage(Stage::Clustering);
        s.part(Stage::Extension);
        s.stage(Stage::Extension);
        let events = sink.0.lock().unwrap().clone();
        assert_eq!(
            events.iter().map(|&(thread, stage, ..)| (thread, stage)).collect::<Vec<_>>(),
            [(3, Stage::Clustering), (3, Stage::Extension), (3, Stage::Extension)]
        );
        // One clock read per boundary: each interval starts where the
        // previous one ended.
        for pair in events.windows(2) {
            assert_eq!(pair[1].2, pair[0].3);
        }
        let ns = |e: &(usize, Stage, Instant, Instant)| (e.3 - e.2).as_nanos() as u64;
        let rep = s.report();
        assert_eq!(rep.stage_ns(Stage::Clustering), ns(&events[0]));
        assert_eq!(rep.stage_count(Stage::Clustering), 1);
        // The parts reach the sink one by one and the shard as one span.
        assert_eq!(rep.stage_ns(Stage::Extension), ns(&events[1]) + ns(&events[2]));
        assert_eq!(rep.stage_count(Stage::Extension), 1);
        // A fresh open starts a new run of intervals.
        s.open();
        s.stage(Stage::Seeding);
        let events = sink.0.lock().unwrap().clone();
        assert!(events[3].2 >= events[2].3);
    }

    #[test]
    fn an_off_shard_still_feeds_its_sink() {
        let metrics = Metrics::off();
        let sink = Collector(Mutex::new(Vec::new()));
        let mut s = metrics.shard().with_sink(&sink, 1);
        s.open();
        s.stage(Stage::Seeding);
        metrics.absorb(&s);
        assert_eq!(sink.0.lock().unwrap().len(), 1);
        assert_eq!(s.report(), &Report::default());
        assert_eq!(metrics.report(), Report::default());
    }

    #[test]
    fn a_sink_that_is_not_recording_is_handed_nothing() {
        struct Deaf;
        impl RegionSink for Deaf {
            fn record(&self, _: usize, stage: Stage, _: Instant, _: Instant) {
                panic!("{} handed to a sink that is not recording", stage.name());
            }
            fn is_recording(&self) -> bool {
                false
            }
        }
        // Neither switch on: no clock is read at all.
        let mut off = Metrics::off().shard().with_sink(&Deaf, 0);
        off.open();
        assert!(off.mark.is_none());
        off.stage(Stage::Extension);
        // Metrics on: the shard records and the sink still sees nothing.
        let mut on = Metrics::new().shard().with_sink(&Deaf, 0);
        on.open();
        on.stage(Stage::Extension);
        assert_eq!(on.report().stage_count(Stage::Extension), 1);
    }

    #[test]
    fn off_registry_records_nothing() {
        let metrics = Metrics::off();
        let mut s = metrics.shard();
        s.inc(Ctr::ReadsMapped);
        s.observe(Hist::SeedsPerRead, 9);
        s.open();
        s.stage(Stage::Extension);
        metrics.absorb(&s);
        metrics.add(Ctr::PoolSteals, 5);
        let rep = metrics.report();
        assert_eq!(rep, Report::default());
    }

    #[test]
    fn registry_cold_path_records() {
        let metrics = Metrics::new();
        metrics.add(Ctr::PoolSteals, 2);
        metrics.observe(Hist::BatchReads, 512);
        metrics.gauge_max(Gauge::ThreadsMax, 8);
        let rep = metrics.report();
        assert_eq!(rep.counter(Ctr::PoolSteals), 2);
        assert_eq!(rep.hist_count(Hist::BatchReads), 1);
        assert_eq!(rep.gauge(Gauge::ThreadsMax), 8);
    }

    #[test]
    fn absorb_from_panicking_thread_still_lands() {
        use std::sync::Arc;
        let metrics = Arc::new(Metrics::new());
        let m = Arc::clone(&metrics);
        let handle = std::thread::spawn(move || {
            let mut s = m.shard();
            s.add(Ctr::ReadsMapped, 7);
            m.absorb(&s);
            panic!("worker dies after merging");
        });
        assert!(handle.join().is_err());
        assert_eq!(metrics.report().counter(Ctr::ReadsMapped), 7);
        // The registry stays usable after the panic.
        metrics.add(Ctr::ReadsMapped, 1);
        assert_eq!(metrics.report().counter(Ctr::ReadsMapped), 8);
    }

    #[test]
    fn json_export_is_well_formed_and_complete() {
        let metrics = Metrics::new();
        let mut s = metrics.shard();
        s.add(Ctr::CacheHits, 42);
        s.observe(Hist::SeedsPerRead, 3);
        metrics.absorb(&s);
        let json = metrics.report().to_json();
        for c in Ctr::ALL {
            assert!(json.contains(&format!("\"{}\"", c.name())), "missing {}", c.name());
        }
        for st in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", st.name())));
        }
        assert!(json.contains("\"cache_hits\": 42"));
        // Balanced braces/brackets: a cheap structural sanity check in lieu
        // of a JSON parser (the workspace has none by design).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn off_ref_is_disabled_and_shared() {
        let a = Metrics::off_ref();
        assert!(!a.enabled());
        a.add(Ctr::ReadsMapped, 1);
        assert_eq!(a.report(), Report::default());
        assert!(std::ptr::eq(a, Metrics::off_ref()));
    }

    #[test]
    fn hist_quantile_tracks_bucket_edges() {
        let metrics = Metrics::new();
        let mut s = metrics.shard();
        // 90 small values and 10 large ones: p50 lands in the small
        // bucket, p99 in the large one.
        for _ in 0..90 {
            s.observe(Hist::ServeJobLatencyUs, 3);
        }
        for _ in 0..10 {
            s.observe(Hist::ServeJobLatencyUs, 1000);
        }
        metrics.absorb(&s);
        let rep = metrics.report();
        let p50 = rep.hist_quantile(Hist::ServeJobLatencyUs, 0.50);
        let p99 = rep.hist_quantile(Hist::ServeJobLatencyUs, 0.99);
        // 3 lives in [2, 4) -> upper edge 3; 1000 in [512, 1024) -> 1023.
        assert_eq!(p50, 3);
        assert_eq!(p99, 1023);
        assert_eq!(rep.hist_quantile(Hist::ServeQueueWaitUs, 0.99), 0);
        // All-zero observations quantile to exactly zero.
        let mut z = metrics.shard();
        z.observe(Hist::ServeQueueWaitUs, 0);
        metrics.absorb(&z);
        assert_eq!(metrics.report().hist_quantile(Hist::ServeQueueWaitUs, 0.5), 0);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty histogram: every quantile is 0.
        assert_eq!(percentile(&[0u64; HIST_BUCKETS], 0.5), 0);
        assert_eq!(percentile(&[], 0.99), 0);
        // Single populated bucket: every quantile reports its upper edge.
        let mut one = [0u64; HIST_BUCKETS];
        one[bucket_of(5)] = 17;
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&one, q), 7);
        }
        // Bucket 0 (zeros) is exact.
        let mut zeros = [0u64; HIST_BUCKETS];
        zeros[0] = 3;
        assert_eq!(percentile(&zeros, 0.99), 0);
        // Saturated top bucket: the last bucket absorbs everything large,
        // so its edge is the widest representable: 2^31 - 1 for 32 buckets.
        let mut top = [0u64; HIST_BUCKETS];
        top[HIST_BUCKETS - 1] = 100;
        assert_eq!(percentile(&top, 0.5), (1u64 << (HIST_BUCKETS - 1)) - 1);
        // A hypothetical 65-bucket slice saturates instead of overflowing.
        let mut wide = [0u64; 65];
        wide[64] = 1;
        assert_eq!(percentile(&wide, 1.0), u64::MAX);
        // q out of range clamps rather than panicking.
        assert_eq!(percentile(&one, -1.0), 7);
        assert_eq!(percentile(&one, 2.0), 7);
    }

    #[test]
    fn hist_quantile_matches_percentile_helper() {
        let metrics = Metrics::new();
        let mut s = metrics.shard();
        for v in [0, 1, 3, 9, 1000, 1u64 << 40] {
            s.observe(Hist::ServeJobLatencyUs, v);
        }
        metrics.absorb(&s);
        let rep = metrics.report();
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                rep.hist_quantile(Hist::ServeJobLatencyUs, q),
                percentile(rep.hist_buckets(Hist::ServeJobLatencyUs), q)
            );
        }
    }

    #[test]
    fn merge_is_associative_on_counters() {
        let mut a = Report::default();
        let mut b = Report::default();
        a.inc(Ctr::ReadsMapped, 1);
        a.gauge_max(Gauge::ThreadsMax, 2);
        b.inc(Ctr::ReadsMapped, 2);
        b.gauge_max(Gauge::ThreadsMax, 5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter(Ctr::ReadsMapped), 3);
        assert_eq!(ab.gauge(Gauge::ThreadsMax), 5);
    }
}
