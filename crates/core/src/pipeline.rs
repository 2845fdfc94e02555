//! The miniGiraffe mapping pipeline: dump in, extensions out.
//!
//! Mirrors the proxy's main loop: iterate over reads and their seeds in a
//! parallel outer loop (scheduler, batch size, and CachedGBWT capacity are
//! the tuning parameters), run `cluster_seeds` then
//! `process_until_threshold_c` per read, and collect raw mapping results.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use std::sync::Arc;

use mg_gbwt::{CacheState, CacheStats, CachedGbwt, Gbz, HotTier};
use mg_index::DistanceIndex;
use mg_obs::{Ctr, Gauge, Hist, Metrics, ObsShard, Stage};
use mg_sched::{bounded_queue, PoolCell, PoolTask, SchedulerKind, WorkerPool};
use mg_support::probe::{MemProbe, NoProbe};
use mg_support::regions::{NullSink, RegionSink, RegionTimer};

use crate::cluster::{cluster_seeds_with_scratch, ClusterParams, ClusterScratch};
use crate::extend::{process_until_threshold_with_scratch, ExtendParams, ExtendScratch, ProcessParams};
use crate::types::{ReadInput, ReadResult, Seed};

/// Reusable per-thread buffers for the two hot kernels.
///
/// A worker thread keeps one of these alive across every read it maps, so
/// the DFS stack, path arena, union-find, and decode buffers reach a steady
/// state after the first few reads and the per-read heap traffic drops to
/// amortized O(1).
#[derive(Debug, Default)]
pub struct MapScratch {
    cluster: ClusterScratch,
    extend: ExtendScratch,
    /// Minimizer-extraction buffers for pipelines that seed reads
    /// themselves (the parent pipeline and mate rescue); the proxy maps
    /// pre-seeded dumps and leaves these empty.
    pub seeding: mg_index::MinimizerScratch,
    /// Seed-hit staging buffer for [`MinimizerIndex::query_into`]
    /// (mg_index::MinimizerIndex::query_into).
    pub seed_hits: Vec<(u32, mg_index::GraphPos)>,
}

/// All knobs of a mapping run.
///
/// `threads`, `batch_size`, `cache_capacity`, and `scheduler` are the
/// paper's tuning parameters (defaults: Giraffe's 512 batch / 256 capacity
/// with the OpenMP-dynamic scheduler).
#[derive(Debug, Clone, PartialEq)]
pub struct MappingOptions {
    /// Worker threads for the outer read loop.
    pub threads: usize,
    /// Reads handed to a thread at a time.
    pub batch_size: usize,
    /// Initial capacity of each thread's [`CachedGbwt`].
    pub cache_capacity: usize,
    /// Which scheduler distributes batches.
    pub scheduler: SchedulerKind,
    /// Seed clustering parameters.
    pub cluster: ClusterParams,
    /// Gapless extension parameters.
    pub extend: ExtendParams,
    /// Cluster-processing policy.
    pub process: ProcessParams,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            threads: 1,
            batch_size: 512,
            cache_capacity: 256,
            scheduler: SchedulerKind::Dynamic,
            cluster: ClusterParams::default(),
            extend: ExtendParams::default(),
            process: ProcessParams::default(),
        }
    }
}

/// Knobs of the streaming-ingestion path, on top of [`MappingOptions`].
///
/// The streaming pipeline's in-flight memory is bounded by
/// `(queue_batches + 1) × ingestion batch + one mapping chunk`: the queue
/// holds at most `queue_batches` batches, the blocked producer holds one
/// more, and the consumer accumulates up to a chunk before mapping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Capacity of the reader→mapper hand-off queue, in batches. The
    /// producer blocks (backpressure) when the mapper falls behind by this
    /// many batches.
    pub queue_batches: usize,
    /// Reads the consumer accumulates into one parallel mapping chunk.
    /// `0` derives `threads × batch_size` from the [`MappingOptions`]: one
    /// full batch per worker on the proxy path; the parent's chunk dispatch
    /// cuts it finer ([`mg_sched::chunk_grain_reads`]).
    pub chunk_reads: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { queue_batches: 4, chunk_reads: 0 }
    }
}

impl StreamOptions {
    /// The chunk size a run with `options` will use (the shared
    /// [`mg_sched::effective_chunk_reads`] definition).
    pub fn chunk_target(&self, options: &MappingOptions) -> usize {
        mg_sched::effective_chunk_reads(self.chunk_reads, options.threads, options.batch_size)
    }
}

/// What a streaming run reports. Per-read results left through the `emit`
/// callback as they were produced; this carries the aggregate view.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Reads mapped.
    pub reads: u64,
    /// Ingestion batches consumed from the queue.
    pub batches: u64,
    /// Parallel mapping chunks dispatched.
    pub chunks: u64,
    /// Wall-clock time of the whole streaming run (ingestion + mapping).
    pub wall: Duration,
    /// Cache statistics aggregated across worker threads and chunks.
    pub cache: CacheStats,
    /// Peak aggregate cache heap across chunks: the sum of every worker's
    /// cache footprint at its high-water chunk.
    pub cache_heap_bytes: u64,
    /// Deepest hand-off queue occupancy observed, in batches.
    pub queue_high_water: usize,
    /// Nanoseconds the producer spent blocked on a full queue.
    pub producer_blocked_ns: u64,
}

/// Results of a mapping run.
#[derive(Debug, Clone)]
pub struct MappingResults {
    /// One result per input read, in input order.
    pub per_read: Vec<ReadResult>,
    /// Wall-clock time of the parallel mapping loop (the makespan the
    /// tuning study optimizes).
    pub wall: Duration,
    /// Cache statistics aggregated across worker threads.
    pub cache: CacheStats,
    /// Aggregate cache heap: the sum of every worker's cache footprint.
    pub cache_heap_bytes: u64,
}

impl MappingResults {
    /// Total extensions across all reads.
    pub fn total_extensions(&self) -> usize {
        self.per_read.iter().map(|r| r.extensions.len()).sum()
    }

    /// Fraction of reads with at least one extension.
    pub fn mapped_fraction(&self) -> f64 {
        if self.per_read.is_empty() {
            return 0.0;
        }
        let mapped = self.per_read.iter().filter(|r| !r.extensions.is_empty()).count();
        mapped as f64 / self.per_read.len() as f64
    }
}

/// A reusable mapper: pangenome + distance index, ready to map dumps.
///
/// # Examples
///
/// ```
/// use mg_core::{Mapper, MappingOptions};
/// use mg_core::dump::SeedDump;
/// use mg_core::types::{ReadInput, Seed, Workflow};
/// use mg_gbwt::Gbz;
/// use mg_graph::pangenome::PangenomeBuilder;
/// use mg_graph::{Handle, NodeId};
/// use mg_index::GraphPos;
///
/// # fn main() -> mg_support::Result<()> {
/// let p = PangenomeBuilder::new(b"ACGTACGTACGTACGT".to_vec())
///     .haplotypes(vec![vec![]])
///     .max_node_len(8)
///     .build()?;
/// let gbz = Gbz::from_pangenome(p)?;
/// let dump = SeedDump::new(Workflow::Single, vec![ReadInput {
///     bases: b"ACGTACGT".to_vec(),
///     seeds: vec![Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(1)), 0))],
/// }]);
/// let mapper = Mapper::new(&gbz);
/// let results = mapper.run(&dump, &MappingOptions::default());
/// assert_eq!(results.per_read.len(), 1);
/// assert_eq!(results.per_read[0].best_score(), Some(8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Mapper<'a> {
    gbz: &'a Gbz,
    dist: DistanceIndex,
    /// Persistent worker threads plus per-thread warm state (cache storage
    /// and kernel scratch), reused by every `run` on this mapper. Runs on
    /// the same mapper serialize on this lock.
    pool: std::sync::Mutex<WorkerPool>,
}

impl<'a> Mapper<'a> {
    /// Preprocesses the pangenome (builds the distance index).
    pub fn new(gbz: &'a Gbz) -> Self {
        Self::with_distance(gbz, DistanceIndex::build(gbz.graph()))
    }

    /// Assembles a mapper around a prebuilt distance index — the zero-work
    /// constructor the `.mgi` path uses, where the index was validated out
    /// of the mapped container instead of recomputed.
    pub fn with_distance(gbz: &'a Gbz, dist: DistanceIndex) -> Self {
        Mapper {
            gbz,
            dist,
            pool: std::sync::Mutex::new(WorkerPool::new()),
        }
    }

    /// Returns `None`; see [`HotTier`].
    pub fn build_hot_tier(
        &self,
        _reads: &[ReadInput],
        _options: &MappingOptions,
    ) -> Option<Arc<HotTier>> {
        None
    }

    /// The pangenome this mapper maps against.
    pub fn gbz(&self) -> &'a Gbz {
        self.gbz
    }

    /// The persistent worker pool, for callers that drive their own pooled
    /// scheduler dispatch against this mapper's threads (the parent
    /// pipeline, the serving executor). Dispatches serialize on the lock;
    /// lock it with [`Mapper::lock_pool`] so a panic that unwound through
    /// an earlier dispatch (the pool itself survives worker panics) does
    /// not poison every later run.
    pub fn worker_pool(&self) -> &std::sync::Mutex<WorkerPool> {
        &self.pool
    }

    /// Locks the worker pool, shrugging off poison: the pool catches
    /// worker panics internally and stays usable, so a panic that escaped
    /// a previous dispatch left the pool itself coherent.
    pub fn lock_pool(&self) -> std::sync::MutexGuard<'_, WorkerPool> {
        self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The distance index.
    pub fn distance_index(&self) -> &DistanceIndex {
        &self.dist
    }

    /// Maps a single read with caller-provided cache, sink, and probe: the
    /// exact per-read work both pipelines share.
    ///
    /// Allocates throwaway scratch; hot paths should hold a [`MapScratch`]
    /// and call [`Mapper::map_read_with_scratch`] instead.
    #[allow(clippy::too_many_arguments)]
    pub fn map_read<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        input: &ReadInput,
        options: &MappingOptions,
        sink: &(impl RegionSink + ?Sized),
        thread: usize,
        probe: &mut P,
    ) -> ReadResult {
        let mut scratch = MapScratch::default();
        self.map_read_with_scratch(
            cache,
            read_id,
            input,
            options,
            sink,
            thread,
            probe,
            &mut scratch,
            &mut ObsShard::disabled(),
        )
    }

    /// [`Mapper::map_read`] with caller-owned kernel scratch, reused across
    /// reads, and a metrics shard fed with per-stage spans and per-read
    /// counters. Pass [`ObsShard::disabled`] when not observing; every
    /// record below is then a no-op.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn map_read_with_scratch<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        input: &ReadInput,
        options: &MappingOptions,
        sink: &(impl RegionSink + ?Sized),
        thread: usize,
        probe: &mut P,
        scratch: &mut MapScratch,
        obs: &mut ObsShard,
    ) -> ReadResult {
        self.map_read_seeded(
            cache,
            read_id,
            &input.bases,
            &input.seeds,
            options,
            sink,
            thread,
            probe,
            scratch,
            obs,
        )
    }

    /// [`Mapper::map_read_with_scratch`] over borrowed bases and seeds, for
    /// callers that seed a read into buffers they keep and never build a
    /// [`ReadInput`] for it (the parent's chunk workers, mate rescue).
    #[allow(clippy::too_many_arguments)]
    pub fn map_read_seeded<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        bases: &[u8],
        seeds: &[Seed],
        options: &MappingOptions,
        sink: &(impl RegionSink + ?Sized),
        thread: usize,
        probe: &mut P,
        scratch: &mut MapScratch,
        obs: &mut ObsShard,
    ) -> ReadResult {
        let read_len = bases.len() as u32;
        let mut cluster_params = options.cluster;
        // Giraffe derives the clustering limit from the read length.
        cluster_params.distance_limit = cluster_params.distance_limit.max(read_len as u64);
        let clusters = {
            let _t = RegionTimer::start(sink, thread, "cluster_seeds");
            let t0 = obs.now();
            let clusters = cluster_seeds_with_scratch(
                self.gbz.graph(),
                &self.dist,
                seeds,
                read_len,
                &cluster_params,
                probe,
                &mut scratch.cluster,
            );
            obs.stage(Stage::Clustering, t0);
            clusters
        };
        let extensions = {
            let _t = RegionTimer::start(sink, thread, "process_until_threshold_c");
            let t0 = obs.now();
            let extensions = process_until_threshold_with_scratch(
                self.gbz.graph(),
                cache,
                bases,
                read_id,
                seeds,
                &clusters,
                &options.extend,
                &options.process,
                probe,
                &mut scratch.extend,
            );
            obs.stage(Stage::Extension, t0);
            extensions
        };
        obs.inc(Ctr::ReadsMapped);
        obs.add(Ctr::SeedsTotal, seeds.len() as u64);
        obs.add(Ctr::ExtensionsTotal, extensions.len() as u64);
        obs.observe(Hist::SeedsPerRead, seeds.len() as u64);
        obs.observe(Hist::ExtensionsPerRead, extensions.len() as u64);
        // Drain the kernel's plain-u64 activity counters into the shard
        // (the extension walk itself never touches observability state).
        let kernel = scratch.extend.take_stats();
        obs.add(Ctr::ExtendBatches, kernel.batches);
        obs.add(Ctr::ExtendBatchAnchors, kernel.batch_anchors);
        obs.add(Ctr::ExtendPrunedFrames, kernel.pruned_frames);
        obs.add(Ctr::ExtendAnchorsMerged, kernel.anchors_merged);
        obs.add(Ctr::ExtendAnchorsSkipped, kernel.anchors_skipped);
        ReadResult { read_id, extensions }
    }

    /// Runs the full parallel mapping loop without instrumentation.
    pub fn run(&self, dump: &crate::dump::SeedDump, options: &MappingOptions) -> MappingResults {
        self.run_with_sink(dump, options, &NullSink)
    }

    /// Runs the full parallel mapping loop, recording per-stage spans,
    /// per-read counters, cache events, and scheduler activity in
    /// `metrics`.
    pub fn run_with_metrics(
        &self,
        dump: &crate::dump::SeedDump,
        options: &MappingOptions,
        metrics: &Metrics,
    ) -> MappingResults {
        self.run_with_sink_metrics(dump, options, &NullSink, metrics)
    }

    /// Runs the full parallel mapping loop, reporting region timings to
    /// `sink`.
    pub fn run_with_sink(
        &self,
        dump: &crate::dump::SeedDump,
        options: &MappingOptions,
        sink: &(impl RegionSink + ?Sized),
    ) -> MappingResults {
        self.run_with_sink_metrics(dump, options, sink, Metrics::off_ref())
    }

    /// [`Mapper::run_with_sink`] plus a metrics registry. Each worker
    /// thread records into a private [`ObsShard`] and folds its cache
    /// statistics in at `finish`, so the hot loop never touches the
    /// registry lock.
    pub fn run_with_sink_metrics(
        &self,
        dump: &crate::dump::SeedDump,
        options: &MappingOptions,
        sink: &(impl RegionSink + ?Sized),
        metrics: &Metrics,
    ) -> MappingResults {
        let mut pool = self.lock_pool();
        let start = Instant::now();
        let (per_read, cache, cache_heap_bytes) =
            self.map_chunk(&mut pool, &dump.reads, 0, options, sink, metrics);
        let wall = start.elapsed();
        MappingResults {
            per_read,
            wall,
            cache,
            cache_heap_bytes,
        }
    }

    /// Maps one chunk of reads with *per-call* options on the persistent
    /// pool: the public chunk-at-a-time entry the adaptive batch driver
    /// uses, so batch size and cache capacity can move between chunks
    /// without touching mapper construction. `base_id`
    /// keeps global read ids correct across chunks — per-read work is
    /// cache-independent, so concatenated results are identical to a
    /// one-shot [`Mapper::run`] over the same reads.
    pub fn map_chunk_reads(
        &self,
        reads: &[ReadInput],
        base_id: u64,
        options: &MappingOptions,
        metrics: &Metrics,
    ) -> (Vec<ReadResult>, CacheStats, u64) {
        let mut pool = self.lock_pool();
        self.map_chunk(&mut pool, reads, base_id, options, &NullSink, metrics)
    }

    /// Maps `reads` in parallel on the (already locked) worker pool, with
    /// global read ids `base_id..base_id + reads.len()`. This is the one
    /// scheduler dispatch both the batch path (whole dump, base 0) and the
    /// streaming path (one chunk at a time) go through, so per-read results
    /// cannot diverge between them.
    #[allow(clippy::too_many_arguments)]
    fn map_chunk(
        &self,
        pool: &mut WorkerPool,
        reads: &[ReadInput],
        base_id: u64,
        options: &MappingOptions,
        sink: &(impl RegionSink + ?Sized),
        metrics: &Metrics,
    ) -> (Vec<ReadResult>, CacheStats, u64) {
        let n = reads.len();
        let slots: Vec<OnceLock<ReadResult>> = (0..n).map(|_| OnceLock::new()).collect();
        let stats: StatsCollector = std::sync::Mutex::new(Vec::new());
        let scheduler = options.scheduler.build(options.batch_size);
        scheduler.run_pooled_erased_obs(
            pool,
            n,
            options.threads.max(1),
            metrics,
            &|thread, cell| {
                // Warm-start from whatever this pool thread kept from the
                // last run; `with_state` rebinds the cache storage warm when
                // the pangenome and capacity are unchanged, cold otherwise.
                let persist = match cell.downcast_mut::<ThreadPersist>() {
                    Some(p) => std::mem::take(p),
                    None => ThreadPersist::default(),
                };
                Box::new(PooledWorker {
                    mapper: self,
                    reads,
                    base_id,
                    options,
                    sink,
                    thread,
                    slots: &slots,
                    stats: &stats,
                    cache: CachedGbwt::with_state(
                        self.gbz.gbwt(),
                        options.cache_capacity,
                        persist.cache,
                    ),
                    scratch: persist.scratch,
                    metrics,
                    obs: metrics.shard(),
                })
            },
        );
        let per_read = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|| panic!("scheduler never processed read {i}"))
            })
            .collect();
        let (cache, private_bytes) = stats.lock().unwrap().iter().fold(
            (CacheStats::default(), 0u64),
            |(acc, bytes), (s, b)| (merge_cache_stats(acc, *s), bytes + b),
        );
        (per_read, cache, private_bytes)
    }

    /// Maps reads as they arrive from a fallible batch producer, with
    /// bounded memory, without instrumentation. See
    /// [`Mapper::run_streaming_with_sink_metrics`].
    pub fn run_streaming<I, F>(
        &self,
        batches: I,
        options: &MappingOptions,
        stream: &StreamOptions,
        emit: F,
    ) -> mg_support::Result<StreamSummary>
    where
        I: Iterator<Item = mg_support::Result<Vec<ReadInput>>> + Send,
        F: FnMut(u64, Vec<ReadInput>, Vec<ReadResult>),
    {
        self.run_streaming_with_sink_metrics(
            batches,
            options,
            stream,
            &NullSink,
            Metrics::off_ref(),
            emit,
        )
    }

    /// The streaming-ingestion pipeline: a producer thread pulls batches
    /// from `batches` into a bounded hand-off queue (blocking when the
    /// mapper falls behind — that backpressure is what bounds memory),
    /// while the calling thread accumulates batches into chunks of
    /// [`StreamOptions::chunk_target`] reads, maps each chunk on the worker
    /// pool, and hands the owned inputs and results to `emit(base_id,
    /// reads, results)` in input order.
    ///
    /// Read ids are global (`base_id + index within the chunk`), so the
    /// emitted results are byte-identical to a batch [`Mapper::run`] over
    /// the concatenated input.
    ///
    /// On a producer error the good prefix is still mapped and emitted,
    /// then the error is returned — mirroring how
    /// [`mg_workload::FastqBatches`](../mg_workload/fastq) flushes parsed
    /// records before reporting the malformed one.
    pub fn run_streaming_with_sink_metrics<I, F>(
        &self,
        batches: I,
        options: &MappingOptions,
        stream: &StreamOptions,
        sink: &(impl RegionSink + ?Sized),
        metrics: &Metrics,
        mut emit: F,
    ) -> mg_support::Result<StreamSummary>
    where
        I: Iterator<Item = mg_support::Result<Vec<ReadInput>>> + Send,
        F: FnMut(u64, Vec<ReadInput>, Vec<ReadResult>),
    {
        let chunk_target = stream.chunk_target(options);
        let (tx, rx) = bounded_queue(stream.queue_batches.max(1));
        let mut pool = self.lock_pool();
        let start = Instant::now();

        let mut reads = 0u64;
        let mut batches_consumed = 0u64;
        let mut chunks = 0u64;
        let mut cache = CacheStats::default();
        let mut failure: Option<mg_support::Error> = None;
        let mut pending: Vec<ReadInput> = Vec::new();
        let mut next_id = 0u64;
        let mut heap_high_water = 0u64;

        let queue_stats = std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                for item in batches {
                    let stop = item.is_err();
                    // An Err from send means the consumer hung up early;
                    // stop pulling from the reader either way.
                    if tx.send(item).is_err() || stop {
                        break;
                    }
                }
                tx.stats()
            });

            let mut map_pending = |pool: &mut WorkerPool,
                                   pending: &mut Vec<ReadInput>,
                                   next_id: &mut u64,
                                   cache: &mut CacheStats,
                                   chunks: &mut u64,
                                   heap_high_water: &mut u64,
                                   take: usize| {
                let rest = pending.split_off(take.min(pending.len()));
                let chunk = std::mem::replace(pending, rest);
                if chunk.is_empty() {
                    return;
                }
                let base = *next_id;
                metrics.observe(Hist::StreamChunkReads, chunk.len() as u64);
                let (results, chunk_cache, heap_bytes) =
                    self.map_chunk(pool, &chunk, base, options, sink, metrics);
                *cache = merge_cache_stats(*cache, chunk_cache);
                *heap_high_water = (*heap_high_water).max(heap_bytes);
                *next_id += chunk.len() as u64;
                *chunks += 1;
                emit(base, chunk, results);
            };

            while let Some(item) = rx.recv() {
                match item {
                    Ok(batch) => {
                        batches_consumed += 1;
                        reads += batch.len() as u64;
                        pending.extend(batch);
                        while pending.len() >= chunk_target {
                            map_pending(
                                &mut pool,
                                &mut pending,
                                &mut next_id,
                                &mut cache,
                                &mut chunks,
                                &mut heap_high_water,
                                chunk_target,
                            );
                        }
                    }
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            // Flush the tail (or, on error, the good prefix read so far).
            let take = pending.len();
            map_pending(
                &mut pool,
                &mut pending,
                &mut next_id,
                &mut cache,
                &mut chunks,
                &mut heap_high_water,
                take,
            );
            drop(rx);
            producer.join().expect("streaming producer panicked")
        });
        drop(pool);

        metrics.add(Ctr::StreamBatches, batches_consumed);
        metrics.add(Ctr::StreamReads, reads);
        metrics.add(Ctr::StreamProducerBlockedNs, queue_stats.blocked_ns);
        metrics.gauge_max(Gauge::StreamQueueDepthMax, queue_stats.high_water as u64);

        if let Some(e) = failure {
            return Err(e);
        }
        Ok(StreamSummary {
            reads,
            batches: batches_consumed,
            chunks,
            wall: start.elapsed(),
            cache,
            cache_heap_bytes: heap_high_water,
            queue_high_water: queue_stats.high_water,
            producer_blocked_ns: queue_stats.blocked_ns,
        })
    }
}

fn merge_cache_stats(mut acc: CacheStats, s: CacheStats) -> CacheStats {
    acc.merge(&s);
    acc
}

/// Per-worker (statistics, cache heap bytes) pairs, folded into the
/// run aggregate after the dispatch.
type StatsCollector = std::sync::Mutex<Vec<(CacheStats, u64)>>;

/// What a pool thread keeps between runs: its cache storage (rebound warm
/// when the pangenome and capacity match) and the kernel scratch buffers.
///
/// Public so every pooled dispatch against a [`Mapper`]'s worker pool —
/// the proxy loop here, the parent pipeline's chunk mapper, the serving
/// executor — stashes the same cell type, and warm state carries across
/// them instead of being cold-dropped at each boundary.
#[derive(Default)]
pub struct ThreadPersist {
    /// Detached `CachedGbwt` storage; rebind with
    /// [`CachedGbwt::with_state`], which starts warm when the GBWT and
    /// capacity are unchanged.
    pub cache: CacheState,
    /// Kernel + seeding scratch buffers.
    pub scratch: MapScratch,
}

/// Per-thread mapping state for one run: owns the thread's `CachedGbwt`
/// and scratch, maps the reads the scheduler assigns it, and at `finish`
/// pushes its cache statistics to the collector and stashes the warm state
/// back into the thread's pool cell for the next run.
struct PooledWorker<'e, 'g, S: RegionSink + ?Sized> {
    mapper: &'e Mapper<'g>,
    reads: &'e [ReadInput],
    base_id: u64,
    options: &'e MappingOptions,
    sink: &'e S,
    thread: usize,
    slots: &'e [OnceLock<ReadResult>],
    stats: &'e StatsCollector,
    cache: CachedGbwt<'g>,
    scratch: MapScratch,
    metrics: &'e Metrics,
    obs: ObsShard,
}

impl<S: RegionSink + ?Sized> PoolTask for PooledWorker<'_, '_, S> {
    fn run(&mut self, i: usize) {
        let result = self.mapper.map_read_with_scratch(
            &mut self.cache,
            self.base_id + i as u64,
            &self.reads[i],
            self.options,
            self.sink,
            self.thread,
            &mut NoProbe,
            &mut self.scratch,
            &mut self.obs,
        );
        self.slots[i].set(result).expect("each read mapped once");
    }

    fn finish(self: Box<Self>, cell: &mut PoolCell) {
        let mut this = *self;
        let cache_stats = this.cache.stats();
        this.stats.lock().unwrap().push((cache_stats, this.cache.heap_bytes() as u64));
        // The cache tracks its own statistics; mirror them into the shard
        // once per run rather than plumbing a probe through the kernels.
        this.obs.add(Ctr::CacheHits, cache_stats.hits);
        this.obs.add(Ctr::CacheMisses, cache_stats.misses);
        this.obs.add(Ctr::CacheEvictions, cache_stats.evictions);
        this.obs.add(Ctr::CacheResizes, cache_stats.rehashes);
        this.obs.add(Ctr::CacheRehashedSlots, cache_stats.rehashed_slots);
        this.metrics.absorb(&this.obs);
        *cell = Box::new(ThreadPersist {
            cache: this.cache.into_state(),
            scratch: this.scratch,
        });
    }
}

/// One-shot convenience: map `dump` against `gbz` with `options`.
pub fn run_mapping(
    dump: &crate::dump::SeedDump,
    gbz: &Gbz,
    options: &MappingOptions,
) -> MappingResults {
    Mapper::new(gbz).run(dump, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::SeedDump;
    use crate::types::{Seed, Workflow};
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use mg_graph::{Handle, NodeId};
    use mg_index::GraphPos;
    use std::sync::Mutex;

    fn sample_gbz() -> Gbz {
        let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTTACGTACGTAACCGGTT".to_vec())
            .variants(vec![Variant::snp(6, b'T'), Variant::deletion(20, 2)])
            .haplotypes(vec![vec![0, 0], vec![1, 0], vec![0, 1]])
            .max_node_len(5)
            .build()
            .unwrap();
        Gbz::from_pangenome(p).unwrap()
    }

    fn sample_dump(gbz: &Gbz, reads: usize) -> SeedDump {
        // Reads sampled from haplotype sequences with anchors at their true
        // positions (node 1 offset varies).
        let mut inputs = Vec::new();
        for i in 0..reads {
            let offset = (i % 3) as u32;
            let bases = {
                // Walk haplotype 0's graph from node 1.
                let seq = gbz.gbwt().sequence(0).unwrap();
                let mut s = Vec::new();
                for sym in seq {
                    let h = Handle::from_gbwt(sym).unwrap();
                    s.extend_from_slice(gbz.graph().sequence(h).as_ref());
                }
                s[offset as usize..(offset as usize + 16).min(s.len())].to_vec()
            };
            inputs.push(crate::types::ReadInput {
                bases,
                seeds: vec![Seed::new(
                    0,
                    GraphPos::new(Handle::forward(NodeId::new(1)), offset),
                )],
            });
        }
        SeedDump::new(Workflow::Single, inputs)
    }

    #[test]
    fn maps_all_reads_single_thread() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 10);
        let results = run_mapping(&dump, &gbz, &MappingOptions::default());
        assert_eq!(results.per_read.len(), 10);
        for (i, r) in results.per_read.iter().enumerate() {
            assert_eq!(r.read_id, i as u64);
            assert!(!r.extensions.is_empty(), "read {i} unmapped");
            assert_eq!(r.best_score(), Some(16), "read {i}");
        }
        assert!(results.mapped_fraction() > 0.999);
        assert!(results.cache.hits + results.cache.misses > 0);
        assert!(results.cache_heap_bytes > 0);
    }

    #[test]
    fn results_identical_across_thread_counts_and_schedulers() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 30);
        let base = run_mapping(&dump, &gbz, &MappingOptions::default());
        // One mapper for every configuration: its worker pool and warm
        // per-thread caches persist across heterogeneous runs and must
        // never change results.
        let mapper = Mapper::new(&gbz);
        for threads in [2usize, 4] {
            for kind in SchedulerKind::ALL {
                let options = MappingOptions {
                    threads,
                    scheduler: kind,
                    batch_size: 4,
                    ..Default::default()
                };
                let got = mapper.run(&dump, &options);
                assert_eq!(
                    got.per_read, base.per_read,
                    "scheduler {kind} with {threads} threads diverged"
                );
            }
        }
    }

    #[test]
    fn pool_warms_cache_across_runs() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 10);
        let mapper = Mapper::new(&gbz);
        let options = MappingOptions::default();
        let first = mapper.run(&dump, &options);
        let second = mapper.run(&dump, &options);
        assert_eq!(first.per_read, second.per_read);
        assert!(first.cache.misses > 0, "first run decodes at least once");
        assert_eq!(second.cache.misses, 0, "second run should hit the warmed cache");
        assert!(second.cache.hits > 0);
    }

    #[test]
    fn changing_capacity_rebuilds_cold_but_identical() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 10);
        let mapper = Mapper::new(&gbz);
        let warm = mapper.run(&dump, &MappingOptions::default());
        let resized = mapper.run(
            &dump,
            &MappingOptions { cache_capacity: 8, ..Default::default() },
        );
        assert_eq!(warm.per_read, resized.per_read);
        // A different capacity must not inherit the warm table: the run
        // decodes again, exactly like a fresh mapper at that capacity —
        // except that discarding the warm table shows up as evictions,
        // which a fresh mapper has none of.
        let fresh = run_mapping(
            &dump,
            &gbz,
            &MappingOptions { cache_capacity: 8, ..Default::default() },
        );
        assert_eq!(
            CacheStats { evictions: 0, ..resized.cache },
            CacheStats { evictions: 0, ..fresh.cache }
        );
        assert!(resized.cache.evictions > 0, "cold re-bind discards the warm table");
        assert_eq!(fresh.cache.evictions, 0);
    }

    #[test]
    fn cache_capacity_changes_stats_not_results() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 20);
        let small = run_mapping(
            &dump,
            &gbz,
            &MappingOptions { cache_capacity: 8, ..Default::default() },
        );
        let large = run_mapping(
            &dump,
            &gbz,
            &MappingOptions { cache_capacity: 4096, ..Default::default() },
        );
        assert_eq!(small.per_read, large.per_read);
        assert_eq!(large.cache.rehashes, 0);
    }

    #[test]
    fn region_sink_sees_both_kernels() {
        struct Collector(Mutex<Vec<&'static str>>);
        impl RegionSink for Collector {
            fn record(
                &self,
                _thread: usize,
                region: &'static str,
                _start: std::time::Instant,
                _end: std::time::Instant,
            ) {
                self.0.lock().unwrap().push(region);
            }
        }
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 5);
        let sink = Collector(Mutex::new(Vec::new()));
        let mapper = Mapper::new(&gbz);
        let _ = mapper.run_with_sink(&dump, &MappingOptions::default(), &sink);
        let regions = sink.0.into_inner().unwrap();
        assert_eq!(regions.iter().filter(|r| **r == "cluster_seeds").count(), 5);
        assert_eq!(
            regions.iter().filter(|r| **r == "process_until_threshold_c").count(),
            5
        );
    }

    #[test]
    fn metrics_reconcile_with_results() {
        let gbz = sample_gbz();
        let mut dump = sample_dump(&gbz, 40);
        // Two more anchors where each read really lies: one base further
        // along node 1 (the kernel merges it into the first) and the first
        // base of node 5 (on the exact full-length extension the first
        // anchor yields, so the kernel skips it).
        for read in &mut dump.reads {
            let offset = read.seeds[0].pos.offset;
            read.seeds.push(Seed::new(1, GraphPos::new(Handle::forward(NodeId::new(1)), offset + 1)));
            read.seeds.push(Seed::new(7 - offset, GraphPos::new(Handle::forward(NodeId::new(5)), 0)));
        }
        let mapper = Mapper::new(&gbz);
        for threads in [1usize, 4] {
            for kind in SchedulerKind::ALL {
                let options = MappingOptions {
                    threads,
                    scheduler: kind,
                    batch_size: 4,
                    ..Default::default()
                };
                let metrics = Metrics::new();
                let results = mapper.run_with_metrics(&dump, &options, &metrics);
                let rep = metrics.report();
                let n = results.per_read.len() as u64;
                assert_eq!(rep.counter(Ctr::ReadsMapped), n, "{kind}/{threads}");
                assert_eq!(rep.counter(Ctr::PoolTasksCompleted), n, "{kind}/{threads}");
                assert_eq!(rep.stage_count(Stage::Clustering), n, "{kind}/{threads}");
                assert_eq!(rep.stage_count(Stage::Extension), n, "{kind}/{threads}");
                assert_eq!(
                    rep.counter(Ctr::SeedsTotal),
                    dump.reads.iter().map(|r| r.seeds.len() as u64).sum::<u64>()
                );
                assert_eq!(
                    rep.counter(Ctr::ExtensionsTotal),
                    results.total_extensions() as u64
                );
                // Every distinct anchor is walked, merged into another, or
                // skipped. Each read's three seeds are distinct anchors of
                // its one cluster, one of each kind.
                let walked = rep.counter(Ctr::ExtendBatchAnchors);
                let merged = rep.counter(Ctr::ExtendAnchorsMerged);
                let skipped = rep.counter(Ctr::ExtendAnchorsSkipped);
                assert_eq!(walked + merged + skipped, rep.counter(Ctr::SeedsTotal));
                assert_eq!((walked, merged, skipped), (n, n, n), "{kind}/{threads}");
                // The shard mirrors of the cache statistics must agree with
                // the aggregated MappingResults numbers exactly.
                assert_eq!(rep.counter(Ctr::CacheHits), results.cache.hits, "{kind}/{threads}");
                assert_eq!(rep.counter(Ctr::CacheMisses), results.cache.misses);
                assert_eq!(rep.counter(Ctr::CacheEvictions), results.cache.evictions);
                assert_eq!(rep.counter(Ctr::CacheResizes), results.cache.rehashes);
                assert_eq!(rep.counter(Ctr::CacheRehashedSlots), results.cache.rehashed_slots);
                // Histograms carry the same totals as the counters.
                assert_eq!(rep.hist_count(Hist::SeedsPerRead), n);
                assert_eq!(rep.hist_sum(Hist::SeedsPerRead), rep.counter(Ctr::SeedsTotal));
                assert_eq!(rep.hist_sum(Hist::ExtensionsPerRead), rep.counter(Ctr::ExtensionsTotal));
            }
        }
    }

    #[test]
    fn uninstrumented_run_records_nothing_and_matches_instrumented() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 12);
        let mapper = Mapper::new(&gbz);
        let options = MappingOptions::default();
        let plain = mapper.run(&dump, &options);
        let metrics = Metrics::new();
        let observed = mapper.run_with_metrics(&dump, &options, &metrics);
        assert_eq!(plain.per_read, observed.per_read, "instrumentation must not change results");
        // And a disabled registry stays empty even through the
        // instrumented entry point.
        let off = Metrics::off();
        let _ = mapper.run_with_metrics(&dump, &options, &off);
        assert_eq!(off.report().counter(Ctr::ReadsMapped), 0);
    }

    #[test]
    fn empty_dump_is_fine() {
        let gbz = sample_gbz();
        let dump = SeedDump::new(Workflow::Single, Vec::new());
        let results = run_mapping(&dump, &gbz, &MappingOptions::default());
        assert!(results.per_read.is_empty());
        assert_eq!(results.total_extensions(), 0);
        assert_eq!(results.mapped_fraction(), 0.0);
    }

    #[test]
    fn streaming_matches_batch_across_schedulers() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 33);
        let base = run_mapping(&dump, &gbz, &MappingOptions::default());
        let mapper = Mapper::new(&gbz);
        for kind in SchedulerKind::ALL {
            let options = MappingOptions {
                threads: 4,
                batch_size: 3,
                scheduler: kind,
                ..Default::default()
            };
            // Ingestion batches (5) deliberately misaligned with mapping
            // chunks (7) and scheduler batches (3).
            let stream = StreamOptions { queue_batches: 2, chunk_reads: 7 };
            let mut collected: Vec<ReadResult> = Vec::new();
            let batches = dump.reads.chunks(5).map(|c| Ok(c.to_vec()));
            let summary = mapper
                .run_streaming(batches, &options, &stream, |base_id, reads, results| {
                    assert_eq!(base_id as usize, collected.len(), "chunks in input order");
                    assert_eq!(reads.len(), results.len());
                    collected.extend(results);
                })
                .unwrap();
            assert_eq!(collected, base.per_read, "scheduler {kind} diverged");
            assert_eq!(summary.reads, 33);
            assert_eq!(summary.batches, 7);
            assert_eq!(summary.chunks, 5);
            assert!(summary.queue_high_water <= stream.queue_batches);
            assert!(summary.cache_heap_bytes > 0);
        }
    }

    #[test]
    fn streaming_error_still_maps_the_good_prefix() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 10);
        let base = run_mapping(&dump, &gbz, &MappingOptions::default());
        let mapper = Mapper::new(&gbz);
        let batches = dump
            .reads
            .chunks(5)
            .map(|c| Ok(c.to_vec()))
            .chain(std::iter::once(Err(mg_support::Error::Corrupt("bad record".into()))));
        let mut collected: Vec<ReadResult> = Vec::new();
        let err = mapper
            .run_streaming(
                batches,
                &MappingOptions::default(),
                &StreamOptions::default(),
                |_, _, results| collected.extend(results),
            )
            .unwrap_err();
        assert!(err.to_string().contains("bad record"), "got: {err}");
        assert_eq!(collected, base.per_read, "good prefix must still be mapped");
    }

    #[test]
    fn streaming_empty_input_is_fine() {
        let gbz = sample_gbz();
        let mapper = Mapper::new(&gbz);
        let summary = mapper
            .run_streaming(
                std::iter::empty(),
                &MappingOptions::default(),
                &StreamOptions::default(),
                |_, _, _| panic!("nothing to emit"),
            )
            .unwrap();
        assert_eq!(summary.reads, 0);
        assert_eq!(summary.chunks, 0);
    }

    #[test]
    fn read_without_seeds_yields_empty_result() {
        let gbz = sample_gbz();
        let dump = SeedDump::new(
            Workflow::Single,
            vec![crate::types::ReadInput { bases: b"ACGT".to_vec(), seeds: vec![] }],
        );
        let results = run_mapping(&dump, &gbz, &MappingOptions::default());
        assert_eq!(results.per_read.len(), 1);
        assert!(results.per_read[0].extensions.is_empty());
    }
}
