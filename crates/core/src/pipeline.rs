//! The miniGiraffe mapping pipeline: dump in, extensions out.
//!
//! Mirrors the proxy's main loop: iterate over reads and their seeds in a
//! parallel outer loop (scheduler, batch size, and CachedGBWT capacity are
//! the tuning parameters), run `cluster_seeds` then
//! `process_until_threshold_c` per read — unless the walk of the read's
//! first seed already settles it — and collect raw mapping results.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use mg_gbwt::{CacheState, CacheStats, CachedGbwt, Gbz, HotTier};
use mg_index::DistanceIndex;
use mg_obs::{Ctr, Hist, Metrics, ObsShard, Stage};
use mg_sched::{chunk_grain_reads, SchedulerKind, WorkerPool};
use mg_support::probe::{MemProbe, NoProbe};
use mg_support::regions::{NullSink, RegionSink};

use crate::cluster::{cluster_seeds_with_scratch, one_cluster, ClusterParams, ClusterScratch};
use crate::extend::{
    extend_first, process_until_threshold_with_scratch, ExtendParams, ExtendScratch, FirstWalk,
    ProcessParams,
};
use crate::dump::DumpReader;
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
    /// Seed-hit staging buffer for
    /// [`MinimizerIndex::query_into`](mg_index::MinimizerIndex::query_into).
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

impl MappingOptions {
    /// Reads per mapping chunk on every streaming path — a seed dump
    /// through [`Mapper::run_dump`], the parent's FASTQ stream, a served
    /// job: one dispatch's worth, `threads × batch_size` (each at least 1).
    pub fn chunk_reads(&self) -> usize {
        self.threads.max(1).saturating_mul(self.batch_size.max(1))
    }
}

/// Knobs of the parent pipeline's streaming-ingestion path, on top of
/// [`MappingOptions`]. (The proxy streams a dump from a file already in
/// memory and has no queue; the type lives here beside the options it
/// derives from.)
///
/// The streaming pipeline's in-flight memory is bounded by
/// `(queue_batches + 1) × ingestion batch + one mapping chunk`: the queue
/// holds at most `queue_batches` batches, the blocked producer holds one
/// more, and the consumer accumulates up to a chunk — `threads ×
/// batch_size` reads, even for paired workflows — before mapping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Capacity of the reader→mapper hand-off queue, in batches. The
    /// producer blocks (backpressure) when the mapper falls behind by this
    /// many batches.
    pub queue_batches: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { queue_batches: 4 }
    }
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

/// What [`Mapper::run_dump`] reports once a dump has been streamed.
#[derive(Debug, Clone, Default)]
pub struct DumpSummary {
    /// Reads mapped.
    pub reads: u64,
    /// Reads with at least one extension.
    pub mapped: u64,
    /// Extensions across all reads.
    pub extensions: u64,
    /// Chunks dispatched.
    pub chunks: u64,
    /// Wall-clock time of the whole loop: decoding, mapping and the
    /// per-chunk callback.
    pub wall: Duration,
    /// Cache statistics aggregated across chunks and worker threads.
    pub cache: CacheStats,
}

impl DumpSummary {
    /// Fraction of reads with at least one extension.
    pub fn mapped_fraction(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.mapped as f64 / self.reads as f64
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
    /// Persistent scheduler threads plus their warm state, reused by every
    /// dispatch on this mapper. Dispatches serialize on this lock.
    workers: Mutex<Workers>,
}

/// A [`Mapper`]'s persistent scheduler threads and what each keeps between
/// dispatches, one slot per thread.
#[derive(Debug, Default)]
pub struct Workers {
    /// The threads dispatches run on.
    pool: WorkerPool,
    /// Per-thread warm state, indexed by scheduler thread.
    slots: Vec<ThreadPersist>,
}

impl Workers {
    /// The pool and the first `threads` slots, grown as needed, ready for
    /// [`SchedulerKind::run`].
    pub fn split(&mut self, threads: usize) -> (&mut WorkerPool, &mut [ThreadPersist]) {
        if self.slots.len() < threads {
            self.slots.resize_with(threads, ThreadPersist::default);
        }
        (&mut self.pool, &mut self.slots[..threads])
    }
}

impl<'a> Mapper<'a> {
    /// Preprocesses the pangenome (builds the distance index).
    pub fn new(gbz: &'a Gbz) -> Self {
        Self::with_distance(gbz, DistanceIndex::build(gbz.graph()))
    }

    /// Assembles a mapper around a prebuilt distance index — the zero-work
    /// constructor the `.mgi` path uses, where the index was read from the
    /// container and validated instead of recomputed.
    pub fn with_distance(gbz: &'a Gbz, dist: DistanceIndex) -> Self {
        Mapper {
            gbz,
            dist,
            workers: Mutex::new(Workers::default()),
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

    /// Locks the persistent worker pool and its per-thread warm state, for
    /// callers that drive their own scheduler dispatch against this
    /// mapper's threads (the parent pipeline, the serving executor);
    /// dispatches serialize on the lock. Poison is shrugged off: the pool
    /// catches worker panics internally and stays usable, and a thread that
    /// panicked took its state out of its slot first and left the default.
    pub fn lock_pool(&self) -> MutexGuard<'_, Workers> {
        self.workers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The distance index.
    pub fn distance_index(&self) -> &DistanceIndex {
        &self.dist
    }

    /// Maps a single read with caller-provided cache and probe: the exact
    /// per-read work both pipelines share, uninstrumented.
    ///
    /// Allocates throwaway scratch; hot paths should hold a [`MapScratch`]
    /// and call [`Mapper::map_read_seeded`] instead.
    pub fn map_read<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        input: &ReadInput,
        options: &MappingOptions,
        probe: &mut P,
    ) -> ReadResult {
        self.map_read_seeded(
            cache,
            read_id,
            &input.bases,
            &input.seeds,
            options,
            probe,
            &mut MapScratch::default(),
            &mut ObsShard::disabled(),
        )
    }

    /// [`Mapper::map_read`] over borrowed bases and seeds, with
    /// caller-owned kernel scratch reused across reads and a metrics shard
    /// fed with per-stage spans and per-read counters, and with stage
    /// intervals for the region sink it carries (pass
    /// [`ObsShard::disabled`] when not observing; every record below is
    /// then a no-op and no clock is read). The first kernel stage closes
    /// from the shard's open mark, so the caller opens it
    /// ([`ObsShard::open`]) where the read's timing starts. Callers that
    /// seed a read into buffers they keep never build a [`ReadInput`] for
    /// it (the parent's chunk workers, mate rescue).
    ///
    /// The read's canonically first seed is walked before anything else;
    /// when that walk is an exact full-length extension through every seed
    /// it is the read's result, and clustering never runs (DESIGN.md §4b).
    /// Otherwise the seeds are clustered — into one cluster of them all,
    /// without `cluster_seeds`, when every seed lies on that walk — and the
    /// clusters extended, and the first walk is not repeated. The extension
    /// stage covers both parts of the kernel's work: on a read that reaches
    /// the clustering stage the sink is handed two extension intervals, the
    /// first walk and the cluster-driven rest, and the shard records their
    /// sum as one span.
    #[allow(clippy::too_many_arguments)]
    pub fn map_read_seeded<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        bases: &[u8],
        seeds: &[Seed],
        options: &MappingOptions,
        probe: &mut P,
        scratch: &mut MapScratch,
        obs: &mut ObsShard<'_>,
    ) -> ReadResult {
        let graph = self.gbz.graph();
        let process = &options.process;
        // Where one exact walk through every seed is exactly what
        // cluster-then-extend reports: one cluster and one extension survive
        // the policy (a cluster is cut when its score is below `cutoff ×` the
        // best one's, its own when it is the only one). That the walk's seeds
        // are one cluster, the kernel guarantees (DESIGN.md §4b).
        let may_settle = process.max_clusters >= 1
            && process.max_extensions_per_read >= 1
            && process.cluster_score_cutoff.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater);
        let first = if may_settle {
            extend_first(
                graph, cache, bases, read_id, seeds, &options.extend, process, probe,
                &mut scratch.extend,
            )
        } else {
            FirstWalk::Cluster
        };
        let extensions = match first {
            FirstWalk::Settled(extension) => {
                obs.stage(Stage::Extension);
                obs.inc(Ctr::ExtendFirstReads);
                vec![extension]
            }
            first => {
                if may_settle {
                    obs.part(Stage::Extension);
                }
                let owned;
                let clusters = if let FirstWalk::OneCluster(distinct) = first {
                    one_cluster(seeds, distinct, probe, &mut scratch.cluster)
                } else {
                    owned = cluster_seeds_with_scratch(
                        graph,
                        &self.dist,
                        seeds,
                        bases.len() as u32,
                        &options.cluster,
                        probe,
                        &mut scratch.cluster,
                    );
                    &owned
                };
                obs.stage(Stage::Clustering);
                let extensions = process_until_threshold_with_scratch(
                    graph,
                    cache,
                    bases,
                    read_id,
                    seeds,
                    clusters,
                    &options.extend,
                    process,
                    probe,
                    &mut scratch.extend,
                );
                obs.stage(Stage::Extension);
                extensions
            }
        };
        obs.inc(Ctr::ReadsMapped);
        obs.add(Ctr::SeedsTotal, seeds.len() as u64);
        obs.add(Ctr::ExtensionsTotal, extensions.len() as u64);
        obs.observe(Hist::SeedsPerRead, seeds.len() as u64);
        obs.observe(Hist::ExtensionsPerRead, extensions.len() as u64);
        // Drain the kernel's plain-u64 activity counters into the shard
        // (the extension walk itself never touches observability state).
        let kernel = scratch.extend.take_stats();
        obs.add(Ctr::ExtendAnchorsWalked, kernel.anchors_walked);
        obs.add(Ctr::ExtendPrunedFrames, kernel.pruned_frames);
        obs.add(Ctr::ExtendAnchorsMerged, kernel.anchors_merged);
        obs.add(Ctr::ExtendAnchorsSkipped, kernel.anchors_skipped);
        ReadResult { read_id, extensions }
    }

    /// Runs `body` on scheduler thread `thread`'s warm state for one
    /// dispatch: the cache storage `slot` kept, rebound by
    /// [`CachedGbwt::with_state`] (warm when the pangenome and capacity are
    /// unchanged, cold otherwise), the kernel scratch, and a shard of
    /// `metrics` carrying `sink`. Afterwards the cache statistics go into
    /// the shard, the shard into `metrics` and the state back into `slot`;
    /// the statistics are returned. The state is taken, not borrowed: a
    /// panic in `body` leaves the default.
    pub fn with_warm_worker<'s>(
        &self,
        slot: &mut ThreadPersist,
        cache_capacity: usize,
        metrics: &Metrics,
        sink: &'s dyn RegionSink,
        thread: usize,
        body: impl FnOnce(&mut CachedGbwt<'a>, &mut MapScratch, &mut ObsShard<'s>),
    ) -> CacheStats {
        let ThreadPersist { cache, mut scratch } = std::mem::take(slot);
        let mut cache = CachedGbwt::with_state(self.gbz.gbwt(), cache_capacity, cache);
        let mut obs = metrics.shard().with_sink(sink, thread);
        body(&mut cache, &mut scratch, &mut obs);
        let stats = cache.stats();
        record_cache_stats(&mut obs, &stats);
        metrics.absorb(&obs);
        *slot = ThreadPersist { cache: cache.into_state(), scratch };
        stats
    }

    /// Runs the full parallel mapping loop without instrumentation.
    pub fn run(&self, dump: &crate::dump::SeedDump, options: &MappingOptions) -> MappingResults {
        self.run_with_sink_metrics(dump, options, &NullSink, Metrics::off_ref())
    }

    /// Runs the full parallel mapping loop — the whole dump as one
    /// `Mapper::map_chunk` dispatch of `batch_size`-read grains — recording
    /// per-stage spans, per-read counters, cache statistics and scheduler
    /// activity in `metrics` and handing every stage interval to `sink`.
    pub fn run_with_sink_metrics(
        &self,
        dump: &crate::dump::SeedDump,
        options: &MappingOptions,
        sink: &dyn RegionSink,
        metrics: &Metrics,
    ) -> MappingResults {
        let start = Instant::now();
        let mut per_read = Vec::with_capacity(dump.reads.len());
        let cache = self.map_chunk(
            &dump.reads,
            0,
            options.batch_size,
            options,
            sink,
            metrics,
            &mut per_read,
        );
        MappingResults { per_read, wall: start.elapsed(), cache }
    }

    /// The proxy's one scheduler dispatch: maps `reads`, whose global read
    /// ids are `base_id + i`, in grains of `grain` reads, and appends one
    /// result per read to `out` in input order. Returns the cache statistics
    /// summed over the worker threads.
    ///
    /// Each worker records into a private [`ObsShard`] that carries `sink`
    /// and its thread index, opens its mark once per read, and folds it and
    /// its cache statistics into `metrics` once, after its last read
    /// ([`Mapper::with_warm_worker`]), so the hot loop never touches the
    /// registry lock. Caches are rebound warm, so splitting a dump into
    /// chunks changes neither a result nor, on one thread, a cache statistic.
    #[allow(clippy::too_many_arguments)]
    fn map_chunk(
        &self,
        reads: &[ReadInput],
        base_id: u64,
        grain: usize,
        options: &MappingOptions,
        sink: &dyn RegionSink,
        metrics: &Metrics,
        out: &mut Vec<ReadResult>,
    ) -> CacheStats {
        let threads = options.threads.max(1);
        let mut workers = self.lock_pool();
        let (pool, persist) = workers.split(threads);
        let n = reads.len();
        let slots: Vec<OnceLock<ReadResult>> = (0..n).map(|_| OnceLock::new()).collect();
        let totals = Mutex::new(CacheStats::default());
        options.scheduler.run(
            grain,
            pool,
            persist,
            n,
            threads,
            metrics,
            &|thread, slot, grains| {
                let map = |cache: &mut _, scratch: &mut _, obs: &mut ObsShard<'_>| {
                    for i in grains {
                        let ReadInput { bases, seeds } = &reads[i];
                        obs.open();
                        let result = self.map_read_seeded(
                            cache,
                            base_id + i as u64,
                            bases,
                            seeds,
                            options,
                            &mut NoProbe,
                            scratch,
                            obs,
                        );
                        slots[i].set(result).expect("each read mapped once");
                    }
                };
                let stats =
                    self.with_warm_worker(slot, options.cache_capacity, metrics, sink, thread, map);
                totals.lock().expect("no thread panics holding the totals").merge(&stats);
            },
        );
        out.extend(slots.into_iter().enumerate().map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(|| panic!("scheduler never processed read {i}"))
        }));
        totals.into_inner().expect("no thread panics holding the totals")
    }

    /// Streams a seed dump through the mapper: decodes
    /// [`MappingOptions::chunk_reads`] reads at a time into buffers reused
    /// from chunk to chunk, maps each chunk in one `Mapper::map_chunk`
    /// dispatch of [`chunk_grain_reads`] grains, and hands its results, in
    /// read order, to `each`. Only the reader's window of the file and one
    /// chunk are held at a time; the concatenated results equal
    /// [`Mapper::run`] over the whole dump.
    ///
    /// # Errors
    ///
    /// A malformed read, one with a seed off the pangenome (the reader
    /// decodes with [`DumpReader::next_chunk_on`]), or a dump file that
    /// was cut short or rewritten since the reader opened it stops the run
    /// after the reads before the fault were mapped and handed to `each`;
    /// its error is returned. An error from `each` stops the run at once and is returned.
    pub fn run_dump(
        &self,
        reader: &mut DumpReader,
        options: &MappingOptions,
        sink: &dyn RegionSink,
        metrics: &Metrics,
        mut each: impl FnMut(&[ReadResult]) -> mg_support::Result<()>,
    ) -> mg_support::Result<DumpSummary> {
        let start = Instant::now();
        let chunk = options.chunk_reads();
        let mut summary = DumpSummary::default();
        let mut reads = Vec::new();
        let mut results = Vec::new();
        loop {
            // A seed off the pangenome ends the run at its read, as a
            // malformed read does.
            let decoded = reader.next_chunk_on(self.gbz.graph(), &mut reads, chunk);
            if !reads.is_empty() {
                let grain = chunk_grain_reads(reads.len(), options.threads, options.batch_size);
                results.clear();
                let cache = self.map_chunk(
                    &reads,
                    summary.reads,
                    grain,
                    options,
                    sink,
                    metrics,
                    &mut results,
                );
                summary.cache.merge(&cache);
                summary.reads += reads.len() as u64;
                summary.chunks += 1;
                for r in &results {
                    summary.mapped += u64::from(!r.extensions.is_empty());
                    summary.extensions += r.extensions.len() as u64;
                }
                each(&results)?;
            }
            decoded?;
            if reads.is_empty() {
                break;
            }
        }
        summary.wall = start.elapsed();
        Ok(summary)
    }
}

/// Mirrors a worker's cache statistics for one dispatch into its shard as
/// the five `Cache*` counters. The cache tracks its own statistics (reset
/// when [`CachedGbwt::with_state`] rebinds it), so a worker adds them once,
/// after its last read, rather than plumbing a probe through the kernels.
fn record_cache_stats(obs: &mut ObsShard<'_>, stats: &CacheStats) {
    obs.add(Ctr::CacheHits, stats.hits);
    obs.add(Ctr::CacheMisses, stats.misses);
    obs.add(Ctr::CacheEvictions, stats.evictions);
    obs.add(Ctr::CacheResizes, stats.rehashes);
    obs.add(Ctr::CacheRehashedSlots, stats.rehashed_slots);
}

/// What a scheduler thread keeps between dispatches: its cache storage
/// (rebound warm when the pangenome and capacity match) and the kernel
/// scratch buffers.
///
/// Public so every dispatch against a [`Mapper`] — the proxy loop here, the
/// parent pipeline's chunk mapper, the serving executor — uses the same
/// slots ([`Mapper::lock_pool`]), and warm state carries across them
/// instead of being cold-dropped at each boundary.
#[derive(Debug, Default)]
pub struct ThreadPersist {
    /// Detached `CachedGbwt` storage; rebind with
    /// [`CachedGbwt::with_state`], which starts warm when the GBWT and
    /// capacity are unchanged.
    pub cache: CacheState,
    /// Kernel + seeding scratch buffers.
    pub scratch: MapScratch,
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
    fn streaming_a_dump_equals_the_whole_dump_run() {
        let gbz = sample_gbz();
        let dump = sample_dump(&gbz, 30);
        let image = dump.to_bytes().unwrap();
        let reader = || {
            DumpReader::new(mg_support::mgi::MgiFile::open_bytes(image.clone()).unwrap()).unwrap()
        };
        for threads in [1usize, 2] {
            for batch_size in [1usize, 4, 7, 512] {
                let options = MappingOptions { threads, batch_size, ..Default::default() };
                // Fresh mappers: both runs start with cold caches.
                let whole = Mapper::new(&gbz).run(&dump, &options);
                let mut reader = reader();
                let mut streamed = Vec::new();
                let summary = Mapper::new(&gbz)
                    .run_dump(&mut reader, &options, &NullSink, Metrics::off_ref(), |chunk| {
                        assert!(chunk.len() <= options.chunk_reads());
                        streamed.extend_from_slice(chunk);
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(streamed, whole.per_read, "{threads} threads, batch {batch_size}");
                assert_eq!(summary.reads, 30);
                assert_eq!(summary.chunks as usize, 30usize.div_ceil(options.chunk_reads()));
                assert_eq!(summary.extensions as usize, whole.total_extensions());
                assert_eq!(summary.mapped_fraction(), whole.mapped_fraction());
                if threads == 1 {
                    // Caches are rebound warm between chunks: one thread
                    // sees the same lookups hit and miss.
                    assert_eq!(summary.cache, whole.cache, "batch {batch_size}");
                }
            }
        }
        // An error from the callback stops the run after that chunk.
        let options = MappingOptions { batch_size: 4, ..Default::default() };
        let mut reader = reader();
        let mut calls = 0;
        let stopped = Mapper::new(&gbz).run_dump(&mut reader, &options, &NullSink, Metrics::off_ref(), |_| {
            calls += 1;
            Err(mg_support::Error::Corrupt("stop".into()))
        });
        assert!(matches!(stopped, Err(mg_support::Error::Corrupt(_))));
        assert_eq!(calls, 1);
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

    /// An extra anchor where no read lies: read offset 0 on the first base
    /// of node 5 (each read's walk has node 5 at diagonal `7 − offset`), so
    /// the read's first walk does not settle it and it is clustered.
    fn off_walk_anchor() -> Seed {
        Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(5)), 0))
    }

    #[test]
    fn region_sink_sees_both_kernels() {
        struct Collector(Mutex<Vec<Stage>>);
        impl RegionSink for Collector {
            fn record(
                &self,
                _thread: usize,
                stage: Stage,
                _start: std::time::Instant,
                _end: std::time::Instant,
            ) {
                self.0.lock().unwrap().push(stage);
            }
        }
        let gbz = sample_gbz();
        let mut dump = sample_dump(&gbz, 5);
        // Reads 1 and 3 fall through to clustering; 0, 2 and 4 are settled
        // by their first walk.
        for read in dump.reads.iter_mut().skip(1).step_by(2) {
            read.seeds.push(off_walk_anchor());
        }
        let sink = Collector(Mutex::new(Vec::new()));
        let mapper = Mapper::new(&gbz);
        let _ = mapper.run_with_sink_metrics(
            &dump,
            &MappingOptions::default(),
            &sink,
            Metrics::off_ref(),
        );
        let stages = sink.0.into_inner().unwrap();
        assert_eq!(stages.iter().filter(|s| **s == Stage::Clustering).count(), 2);
        // Once per read around the first walk, once more per clustered read.
        assert_eq!(stages.iter().filter(|s| **s == Stage::Extension).count(), 5 + 2);
    }

    /// Reads of the sample haplotype with a substitution at each offset in
    /// turn, anchored at every base: whenever the first walk leaves one on
    /// the one-cluster path, its one cluster is what the clustering kernel
    /// computes, and an extra anchor on a walk node's diagonal but past the
    /// node's end keeps it off that path.
    #[test]
    fn one_cluster_equals_the_clustering_kernel() {
        let gbz = sample_gbz();
        let mapper = Mapper::new(&gbz);
        let graph = gbz.graph();
        let mut hap = Vec::new();
        for sym in gbz.gbwt().sequence(0).unwrap() {
            let h = Handle::from_gbwt(sym).unwrap();
            for (off, &b) in graph.oriented_sequence(h).iter().enumerate() {
                hap.push((b, GraphPos::new(h, off as u32)));
            }
        }
        let first_walk = |read: &[u8], seeds: &[Seed]| {
            let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
            extend_first(
                graph,
                &mut cache,
                read,
                0,
                seeds,
                &ExtendParams::default(),
                &ProcessParams::default(),
                &mut NoProbe,
                &mut ExtendScratch::default(),
            )
        };
        let mut one = 0;
        for start in 0..3 {
            for sub in 0..16 {
                let mut read: Vec<u8> = hap[start..start + 16].iter().map(|&(b, _)| b).collect();
                read[sub] = if read[sub] == b'A' { b'C' } else { b'A' };
                let seeds: Vec<Seed> =
                    (0..16).map(|r| Seed::new(r as u32, hap[start + r].1)).collect();
                let FirstWalk::OneCluster(distinct) = first_walk(&read, &seeds) else {
                    continue;
                };
                one += 1;
                let kernel = cluster_seeds_with_scratch(
                    graph,
                    mapper.distance_index(),
                    &seeds,
                    16,
                    &ClusterParams::default(),
                    &mut NoProbe,
                    &mut ClusterScratch::default(),
                );
                let mut scratch = ClusterScratch::default();
                let ours = one_cluster(&seeds, distinct, &mut NoProbe, &mut scratch);
                assert_eq!(ours, kernel.as_slice(), "start {start}, substitution at {sub}");
                // The first seed's node, on its diagonal, one node length on.
                let past = GraphPos::new(seeds[0].pos.handle, seeds[0].pos.offset + 5);
                let mut hostile = seeds.clone();
                hostile.push(Seed::new(5, past));
                assert!(matches!(first_walk(&read, &hostile), FirstWalk::Cluster));
            }
        }
        assert!(one > 0, "no read took the one-cluster path");
    }

    /// A read's seeds in any order: the first walk decides the same, and
    /// the mapper reports the same result and kernel statistics, as for the
    /// seeds in read-offset order. Hostile dumps may order seeds any way, so
    /// no search over the seeds may assume an order. Reads that settle, that
    /// take one cluster and that go to the clustering kernel (a seed past
    /// its node's end, or a seed of another haplotype's allele) all occur.
    #[test]
    fn seed_order_changes_neither_the_first_walk_nor_the_result() {
        let gbz = sample_gbz();
        let mapper = Mapper::new(&gbz);
        let graph = gbz.graph();
        let haplotype = |i: u64| {
            let mut hap = Vec::new();
            for sym in gbz.gbwt().sequence(i).unwrap() {
                let h = Handle::from_gbwt(sym).unwrap();
                for (off, &b) in graph.oriented_sequence(h).iter().enumerate() {
                    hap.push((b, GraphPos::new(h, off as u32)));
                }
            }
            hap
        };
        let (hap, other) = (haplotype(0), haplotype(2));
        let run = |read: &[u8], seeds: &[Seed]| {
            let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
            let first = extend_first(
                graph,
                &mut cache,
                read,
                0,
                seeds,
                &ExtendParams::default(),
                &ProcessParams::default(),
                &mut NoProbe,
                &mut ExtendScratch::default(),
            );
            let metrics = Metrics::new();
            let mut obs = metrics.shard();
            let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
            let result = mapper.map_read_seeded(
                &mut cache,
                0,
                read,
                seeds,
                &MappingOptions::default(),
                &mut NoProbe,
                &mut MapScratch::default(),
                &mut obs,
            );
            let rep = obs.report();
            let stats = [
                Ctr::ExtendFirstReads,
                Ctr::ExtendAnchorsWalked,
                Ctr::ExtendAnchorsMerged,
                Ctr::ExtendAnchorsSkipped,
                Ctr::ExtendPrunedFrames,
            ]
            .map(|c| rep.counter(c));
            (first, result, stats)
        };
        let mut outcomes = [0usize; 3];
        let mut pick = 0x5EED_u64;
        for start in 0..3 {
            for sub in (0..16).map(Some).chain([None]) {
                for extra in 0..3 {
                    let mut read: Vec<u8> = hap[start..start + 16].iter().map(|&(b, _)| b).collect();
                    if let Some(sub) = sub {
                        read[sub] = if read[sub] == b'A' { b'C' } else { b'A' };
                    }
                    let mut seeds: Vec<Seed> =
                        (0..16).step_by(3).map(|r| Seed::new(r as u32, hap[start + r].1)).collect();
                    match extra {
                        1 => seeds.push(Seed::new(
                            5,
                            GraphPos::new(seeds[0].pos.handle, seeds[0].pos.offset + 5),
                        )),
                        2 => seeds.push(Seed::new(7, other[start + 7].1)),
                        _ => {}
                    }
                    seeds.sort_unstable();
                    let want = run(&read, &seeds);
                    outcomes[match want.0 {
                        FirstWalk::Settled(_) => 0,
                        FirstWalk::OneCluster(_) => 1,
                        FirstWalk::Cluster => 2,
                    }] += 1;
                    let mut shuffled = seeds.clone();
                    for round in 0..6 {
                        match round {
                            0 => shuffled.reverse(),
                            1 => shuffled.rotate_left(1),
                            _ => {
                                for i in (1..shuffled.len()).rev() {
                                    pick = pick
                                        .wrapping_mul(6_364_136_223_846_793_005)
                                        .wrapping_add(1_442_695_040_888_963_407);
                                    shuffled.swap(i, (pick >> 33) as usize % (i + 1));
                                }
                            }
                        }
                        assert_eq!(
                            run(&read, &shuffled),
                            want,
                            "start {start}, substitution {sub:?}, extra {extra}, seeds {shuffled:?}"
                        );
                    }
                }
            }
        }
        assert!(outcomes.iter().all(|&n| n > 0), "every outcome must occur: {outcomes:?}");
    }

    #[test]
    fn metrics_reconcile_with_results() {
        let gbz = sample_gbz();
        let mut dump = sample_dump(&gbz, 40);
        // Two more anchors where each read really lies: one base further
        // along node 1 (the kernel merges it into the first) and the first
        // base of node 5 (on the exact full-length extension the first
        // anchor yields, so the kernel skips it). Every other read also
        // gets an anchor where it does not lie, which its first walk cannot
        // settle: it is clustered, and that anchor is walked too.
        for (i, read) in dump.reads.iter_mut().enumerate() {
            let offset = read.seeds[0].pos.offset;
            read.seeds.push(Seed::new(1, GraphPos::new(Handle::forward(NodeId::new(1)), offset + 1)));
            read.seeds.push(Seed::new(7 - offset, GraphPos::new(Handle::forward(NodeId::new(5)), 0)));
            if i % 2 == 1 {
                read.seeds.push(off_walk_anchor());
            }
        }
        let clustered = dump.reads.len() as u64 / 2;
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
                let results = mapper.run_with_sink_metrics(&dump, &options, &NullSink, &metrics);
                let rep = metrics.report();
                let n = results.per_read.len() as u64;
                assert_eq!(rep.counter(Ctr::ReadsMapped), n, "{kind}/{threads}");
                assert_eq!(rep.counter(Ctr::PoolTasksCompleted), n, "{kind}/{threads}");
                assert_eq!(rep.counter(Ctr::ExtendFirstReads), n - clustered, "{kind}/{threads}");
                assert_eq!(
                    rep.stage_count(Stage::Clustering),
                    n - rep.counter(Ctr::ExtendFirstReads),
                    "{kind}/{threads}"
                );
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
                // skipped, whether the read was clustered or not, and every
                // seed here is a distinct anchor of its read's one cluster.
                // The three seeds on the walk are one of each kind; the
                // anchor off the walk is walked.
                let walked = rep.counter(Ctr::ExtendAnchorsWalked);
                let merged = rep.counter(Ctr::ExtendAnchorsMerged);
                let skipped = rep.counter(Ctr::ExtendAnchorsSkipped);
                assert_eq!(walked + merged + skipped, rep.counter(Ctr::SeedsTotal));
                assert_eq!((walked, merged, skipped), (n + clustered, n, n), "{kind}/{threads}");
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
        let observed = mapper.run_with_sink_metrics(&dump, &options, &NullSink, &metrics);
        assert_eq!(plain.per_read, observed.per_read, "instrumentation must not change results");
        // And a disabled registry stays empty even through the
        // instrumented entry point.
        let off = Metrics::off();
        let _ = mapper.run_with_sink_metrics(&dump, &options, &NullSink, &off);
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
