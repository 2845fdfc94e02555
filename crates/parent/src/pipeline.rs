//! The parent pipeline: a Giraffe-like end-to-end mapper.
//!
//! Where the proxy starts from a seed dump, the parent starts from raw
//! reads and runs the whole workflow the paper characterizes:
//!
//! 1. `parse_input` — read intake;
//! 2. `minimizer_seeding` — minimizer lookup producing seeds;
//! 3. `cluster_seeds` — the first critical function (shared with the proxy);
//! 4. `process_until_threshold_c` — the second critical function (shared);
//! 5. `score_extensions` / `emit_alignment` — post-processing;
//! 6. `pair_check` — fragment consistency for paired workflows.
//!
//! Work is distributed by the VG-style batch scheduler. Every region is
//! instrumented through [`mg_support::regions::RegionSink`], which is what
//! regenerates Figures 2–4.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use mg_core::dump::SeedDump;
use mg_core::types::{ReadInput, ReadResult, Seed, Workflow};
use mg_core::{MapScratch, Mapper, MappingOptions, StreamOptions, ThreadPersist};
use mg_gbwt::{CachedGbwt, Gbz};
use mg_index::minimizer::Minimizer;
use mg_index::{DistanceIndex, MinimizerIndex};
use mg_obs::{Ctr, Gauge, Hist, Metrics, ObsShard, Stage};
use mg_sched::{bounded_queue, AnyScheduler, PoolCell, PoolTask, SchedulerKind};
use mg_support::probe::{MemProbe, NoProbe};
use mg_support::regions::{NullSink, RegionSink, RegionTimer};

use crate::align::{align_read, pair_check, AlignParams, Alignment};
use crate::rescue::{rescue_mate, RescueParams};

/// Parent-pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentOptions {
    /// Kernel options (threads, batch, cache capacity, kernels). The
    /// parent's scheduler defaults to the VG batch dispatcher.
    pub mapping: MappingOptions,
    /// Post-processing parameters.
    pub align: AlignParams,
    /// Seeds with more minimizer hits than this are dropped.
    pub hard_hit_cap: usize,
    /// Maximum mate-pair fragment distance (paired workflows).
    pub max_fragment: u64,
    /// Attempt mate rescue for half-mapped pairs (paired workflows).
    pub enable_rescue: bool,
    /// Rescue configuration.
    pub rescue: RescueParams,
    /// Fault injection for resilience tests: panic inside the pool worker
    /// mapping this global read id. `None` (the default, and the only
    /// sensible production value) injects nothing. The serving tests use
    /// this to prove a panicking job fails alone while the shared pool
    /// survives.
    pub fault_read: Option<u64>,
}

impl Default for ParentOptions {
    fn default() -> Self {
        ParentOptions {
            mapping: MappingOptions {
                scheduler: SchedulerKind::Vg,
                ..Default::default()
            },
            align: AlignParams::default(),
            hard_hit_cap: 64,
            max_fragment: 1200,
            enable_rescue: true,
            rescue: RescueParams::default(),
            fault_read: None,
        }
    }
}

/// Everything one parent run produces.
#[derive(Debug, Clone)]
pub struct ParentRun {
    /// Raw kernel outputs (one per read) — the data the proxy must match
    /// bit-for-bit in functional validation.
    pub kernel_results: Vec<ReadResult>,
    /// Post-processed alignments per read.
    pub alignments: Vec<Vec<Alignment>>,
    /// The captured proxy input: reads plus the seeds the parent computed,
    /// exactly what miniGiraffe's `.bin` dumps hold.
    pub dump: SeedDump,
    /// Mates recovered by rescue (index = read id). Kept separate from
    /// `kernel_results` so functional validation still compares the
    /// un-rescued critical-function outputs, like the paper's capture
    /// boundary.
    pub rescued: Vec<Option<ReadResult>>,
    /// Wall-clock time of the parallel mapping loop.
    pub wall: Duration,
}

impl ParentRun {
    /// Total alignments across reads.
    pub fn total_alignments(&self) -> usize {
        self.alignments.iter().map(|a| a.len()).sum()
    }
}

/// The parent mapper: pangenome + minimizer index + distance index.
pub struct Parent<'a> {
    mapper: Mapper<'a>,
    minimizer: &'a MinimizerIndex,
    workflow: Workflow,
}

impl<'a> Parent<'a> {
    /// Builds the parent from a pangenome and its minimizer index,
    /// computing the distance index from the graph.
    pub fn new(gbz: &'a Gbz, minimizer: &'a MinimizerIndex, workflow: Workflow) -> Self {
        Self::with_distance(gbz, minimizer, DistanceIndex::build(gbz.graph()), workflow)
    }

    /// Builds the parent around a prebuilt distance index — e.g. one
    /// borrowed out of a mapped `.mgi` bundle — skipping the
    /// [`DistanceIndex::build`] graph traversal entirely.
    pub fn with_distance(
        gbz: &'a Gbz,
        minimizer: &'a MinimizerIndex,
        distance: DistanceIndex,
        workflow: Workflow,
    ) -> Self {
        Parent {
            mapper: Mapper::with_distance(gbz, distance),
            minimizer,
            workflow,
        }
    }

    /// The shared kernel mapper.
    pub fn mapper(&self) -> &Mapper<'a> {
        &self.mapper
    }

    /// The minimizer index this parent seeds from.
    pub fn minimizer(&self) -> &'a MinimizerIndex {
        self.minimizer
    }

    /// The workflow this parent was built for.
    pub fn workflow(&self) -> Workflow {
        self.workflow
    }

    /// Maps one read end-to-end: seeding, kernels, post-processing.
    /// Returns the captured [`ReadInput`] (the dump record), the raw kernel
    /// result, and the alignments.
    #[allow(clippy::too_many_arguments)]
    pub fn map_read_full<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        bases: &[u8],
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        thread: usize,
        probe: &mut P,
    ) -> (ReadInput, ReadResult, Vec<Alignment>) {
        self.map_read_full_obs(
            cache,
            read_id,
            bases,
            options,
            sink,
            thread,
            probe,
            &mut MapScratch::default(),
            &mut ObsShard::disabled(),
        )
    }

    /// [`Parent::map_read_full`] with a metrics shard and caller-owned
    /// scratch: records the seeding span, the kernel spans and counters
    /// (via the shared mapper), the rescoring span, and the per-read
    /// cache-statistics delta. The scratch carries the kernel buffers *and*
    /// the seeding buffers, so a worker that holds one maps every read —
    /// extraction, query, clustering, extension — without per-read heap
    /// allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn map_read_full_obs<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        bases: &[u8],
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        thread: usize,
        probe: &mut P,
        scratch: &mut MapScratch,
        obs: &mut ObsShard,
    ) -> (ReadInput, ReadResult, Vec<Alignment>) {
        self.map_read_obs_inner(
            cache, read_id, bases, None, options, sink, thread, probe, scratch, obs,
        )
    }

    /// [`Parent::map_read_full_obs`] with the extraction sweep already paid:
    /// seeding queries the whole-index table from `mins` (the shard
    /// router's minimizers for this read) through the same hard-hit-cap
    /// filter, so a routing miss costs one extraction, not two. Everything
    /// downstream is byte-identical to the unrouted path.
    #[allow(clippy::too_many_arguments)]
    pub fn map_read_routed_obs<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        bases: &[u8],
        mins: &[Minimizer],
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        thread: usize,
        probe: &mut P,
        scratch: &mut MapScratch,
        obs: &mut ObsShard,
    ) -> (ReadInput, ReadResult, Vec<Alignment>) {
        self.map_read_obs_inner(
            cache,
            read_id,
            bases,
            Some(mins),
            options,
            sink,
            thread,
            probe,
            scratch,
            obs,
        )
    }

    // Inlined into both public wrappers so the `mins` Option constant-folds
    // away and neither entry point pays for the other's seeding source.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn map_read_obs_inner<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        bases: &[u8],
        mins: Option<&[Minimizer]>,
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        thread: usize,
        probe: &mut P,
        scratch: &mut MapScratch,
        obs: &mut ObsShard,
    ) -> (ReadInput, ReadResult, Vec<Alignment>) {
        let stats_before = if obs.is_on() { Some(cache.stats()) } else { None };
        let input = {
            let _t = RegionTimer::start(sink, thread, "parse_input");
            // Intake: validate/copy the read (standing in for FASTQ
            // parsing, which the characterization excludes from kernels).
            bases.to_vec()
        };
        let seeds: Vec<Seed> = {
            let _t = RegionTimer::start(sink, thread, "minimizer_seeding");
            let t0 = obs.now();
            // The probe stands for counters scoped to the kernel regions,
            // as the paper's were in Giraffe: instructions retired out here
            // are not its business, so none are charged. The memory the
            // seeding stage walks is: this is the work Giraffe interleaves
            // with the critical functions, what it leaves in the caches is
            // what the kernels then find there, and it is what perturbs the
            // parent's counters away from the proxy's in the paper's Table V.
            probe.touch(0x6000_0000_0000 + read_id * 4096, input.len() as u32);
            match mins {
                Some(ms) => self.minimizer.query_minimizers_into(
                    ms,
                    options.hard_hit_cap,
                    &mut scratch.seed_hits,
                ),
                None => self.minimizer.query_into(
                    &input,
                    options.hard_hit_cap,
                    &mut scratch.seeding,
                    &mut scratch.seed_hits,
                ),
            }
            // The seed list itself moves into the dump record below, so this
            // one Vec per read is part of the output, not scratch churn.
            let seeds: Vec<Seed> = scratch
                .seed_hits
                .iter()
                .map(|&(off, pos)| Seed::new(off, pos))
                .collect();
            probe.touch(
                0x7000_0000_0000 + (read_id % 512) * 65536,
                (seeds.len() * std::mem::size_of::<Seed>()).max(16) as u32,
            );
            obs.stage(Stage::Seeding, t0);
            seeds
        };
        let read_input = ReadInput { bases: input, seeds };
        let result = self.mapper.map_read_with_scratch(
            cache,
            read_id,
            &read_input,
            &options.mapping,
            sink,
            thread,
            probe,
            scratch,
            obs,
        );
        let t0 = obs.now();
        let alignments = self.post_process(&read_input, &result, options, sink, thread);
        obs.stage(Stage::Rescoring, t0);
        if let Some(before) = stats_before {
            let after = cache.stats();
            obs.add(Ctr::CacheHits, after.hits - before.hits);
            obs.add(Ctr::CacheMisses, after.misses - before.misses);
            obs.add(Ctr::CacheEvictions, after.evictions - before.evictions);
            obs.add(Ctr::CacheResizes, after.rehashes - before.rehashes);
            obs.add(Ctr::CacheRehashedSlots, after.rehashed_slots - before.rehashed_slots);
        }
        (read_input, result, alignments)
    }

    /// Post-processes one read's raw kernel output into alignments:
    /// `score_extensions` plus the gapped fallback for uncovered tails
    /// (Giraffe's alignment phase after seed-and-extend).
    ///
    /// Public so validation harnesses can post-process proxy kernel output
    /// through the exact code path the parent uses and compare final
    /// alignments byte-for-byte.
    pub fn post_process(
        &self,
        read_input: &ReadInput,
        result: &ReadResult,
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        thread: usize,
    ) -> Vec<Alignment> {
        let mut alignments = {
            let _t = RegionTimer::start(sink, thread, "score_extensions");
            align_read(result, &options.align)
        };
        // Gapped fallback: when the best extension leaves a read tail
        // uncovered, align the tail against the graph walk's continuation.
        if let (Some(alignment), Some(extension)) =
            (alignments.first_mut(), result.extensions.first())
        {
            let read_len = read_input.bases.len() as u32;
            if alignment.read_end < read_len {
                let _t = RegionTimer::start(sink, thread, "gapped_fallback");
                let tail = &read_input.bases[alignment.read_end as usize..];
                if let Some((gapped, consumed)) = crate::gapped::align_tail(
                    self.mapper.gbz().graph(),
                    extension,
                    tail,
                    &crate::gapped::GapParams::default(),
                ) {
                    alignment.score += gapped.score;
                    alignment.read_end += consumed;
                    alignment.tail_cigar = Some(crate::gapped::cigar_string(&gapped.cigar));
                }
            }
        }
        alignments
    }

    /// Runs the full pipeline over raw reads without instrumentation.
    pub fn run(&self, reads: &[Vec<u8>], options: &ParentOptions) -> ParentRun {
        self.run_with_sink(reads, options, &NullSink)
    }

    /// Runs the full pipeline, recording per-stage spans, counters, and
    /// scheduler activity in `metrics`.
    pub fn run_with_metrics(
        &self,
        reads: &[Vec<u8>],
        options: &ParentOptions,
        metrics: &Metrics,
    ) -> ParentRun {
        self.run_with_sink_metrics(reads, options, &NullSink, metrics)
    }

    /// Runs the full pipeline, reporting regions to `sink`.
    pub fn run_with_sink(
        &self,
        reads: &[Vec<u8>],
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
    ) -> ParentRun {
        self.run_with_sink_metrics(reads, options, sink, Metrics::off_ref())
    }

    /// [`Parent::run_with_sink`] plus a metrics registry. Each scoped
    /// worker records into a [`mg_obs::ShardGuard`] whose drop folds the
    /// shard into the registry, so shards survive even if a worker panics.
    pub fn run_with_sink_metrics(
        &self,
        reads: &[Vec<u8>],
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        metrics: &Metrics,
    ) -> ParentRun {
        let start = Instant::now();
        let chunk = self.run_chunk(reads, 0, options, sink, metrics);
        let wall = start.elapsed();
        ParentRun {
            kernel_results: chunk.kernel_results,
            alignments: chunk.alignments,
            dump: SeedDump::new(self.workflow, chunk.dump_reads),
            rescued: chunk.rescued,
            wall,
        }
    }

    /// Maps one chunk of reads (global ids `base_id..base_id + reads.len()`)
    /// through the full per-read workflow plus the pair-local
    /// post-processing, on the mapper's persistent worker pool, without
    /// region instrumentation.
    ///
    /// This is the serving entry point: a long-lived executor calls it
    /// once per (job, chunk), interleaving chunks of different jobs on the
    /// same pool, and renders each returned [`ChunkRun`] with
    /// [`crate::gaf::chunk_to_gaf_into`]. Because read ids are global and
    /// per-read work is deterministic and cache-independent, the
    /// concatenated chunk GAF is byte-identical to a batch run over the
    /// same reads regardless of how jobs were interleaved. For paired
    /// workflows `reads` must start on a pair boundary (`base_id` even)
    /// so rescue and pair check see whole pairs.
    pub fn map_chunk(
        &self,
        reads: &[Vec<u8>],
        base_id: u64,
        options: &ParentOptions,
        metrics: &Metrics,
    ) -> ChunkRun {
        self.run_chunk(reads, base_id, options, &NullSink, metrics)
    }

    /// Maps `reads` (global ids `base_id..`) through the full per-read
    /// workflow plus the pair-local post-processing (rescue + pair check).
    /// Both the batch path (whole input, base 0) and the streaming path
    /// (one chunk at a time, on even pair boundaries) go through here, so
    /// results cannot diverge between them: pairs are read-id-local
    /// (`2i`/`2i+1`) and per-read work is deterministic, independent of any
    /// cache state carried between chunks.
    fn run_chunk(
        &self,
        reads: &[Vec<u8>],
        base_id: u64,
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        metrics: &Metrics,
    ) -> ChunkRun {
        let n = reads.len();
        let slots: Vec<OnceLock<(ReadInput, ReadResult, Vec<Alignment>)>> =
            (0..n).map(|_| OnceLock::new()).collect();
        let scheduler: Box<dyn AnyScheduler> =
            options.mapping.scheduler.build(options.mapping.batch_size);
        // Dispatch onto the mapper's persistent pool: each pool thread
        // rebinds its kept cache storage warm (same pangenome, same
        // capacity) and reuses its scratch, sharing the cells the proxy
        // loop stashes. Parent runs on one mapper serialize on the pool
        // lock, which is what lets a long-lived server interleave many
        // jobs chunk-by-chunk on one set of threads.
        let mut pool = self.mapper.lock_pool();
        scheduler.run_pooled_erased_obs(
            &mut pool,
            n,
            options.mapping.threads.max(1),
            metrics,
            &|thread, cell| {
                let persist = match cell.downcast_mut::<ThreadPersist>() {
                    Some(p) => std::mem::take(p),
                    None => ThreadPersist::default(),
                };
                Box::new(ParentWorker {
                    parent: self,
                    reads,
                    base_id,
                    options,
                    sink,
                    thread,
                    slots: &slots,
                    cache: CachedGbwt::with_state(
                        self.mapper.gbz().gbwt(),
                        options.mapping.cache_capacity,
                        persist.cache,
                    ),
                    scratch: persist.scratch,
                    metrics,
                    obs: metrics.shard(),
                })
            },
        );
        drop(pool);
        let mut dump_reads = Vec::with_capacity(n);
        let mut kernel_results = Vec::with_capacity(n);
        let mut alignments = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            let (input, result, aligns) = slot
                .into_inner()
                .unwrap_or_else(|| panic!("read {i} not mapped"));
            dump_reads.push(input);
            kernel_results.push(result);
            alignments.push(aligns);
        }
        let rescued = self.pair_tail(base_id, options, sink, &dump_reads, &mut alignments);
        ChunkRun { dump_reads, kernel_results, alignments, rescued }
    }

    /// Paired post-processing of one mapped chunk, shared by the
    /// monolithic and the sharded dispatcher: rescue half-mapped pairs,
    /// then mate consistency via the distance index. Both run against the
    /// global index — a rescued mate can land anywhere in the graph, and
    /// fragment distances are global-coordinate questions. Returns the
    /// rescued mates (index = read offset in the chunk); a no-op for
    /// single-end workflows.
    pub(crate) fn pair_tail(
        &self,
        base_id: u64,
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        dump_reads: &[ReadInput],
        alignments: &mut [Vec<Alignment>],
    ) -> Vec<Option<ReadResult>> {
        let n = alignments.len();
        let mut rescued: Vec<Option<ReadResult>> = vec![None; n];
        if self.workflow != Workflow::Paired {
            return rescued;
        }
        if options.enable_rescue {
            let _t = RegionTimer::start(sink, 0, "pair_rescue");
            // Built on the first half-mapped pair: most chunks have none,
            // and rescue output does not depend on cache state.
            let mut state: Option<(CachedGbwt<'_>, MapScratch)> = None;
            for pair_start in (0..n.saturating_sub(1)).step_by(2) {
                let (a, b) = (pair_start, pair_start + 1);
                let (mapped, unmapped) = match (
                    alignments[a].is_empty(),
                    alignments[b].is_empty(),
                ) {
                    (false, true) => (a, b),
                    (true, false) => (b, a),
                    _ => continue,
                };
                let (cache, scratch) = state.get_or_insert_with(|| {
                    (
                        CachedGbwt::new(self.mapper.gbz().gbwt(), options.mapping.cache_capacity),
                        MapScratch::default(),
                    )
                });
                let anchor = alignments[mapped][0].pos;
                if let Some(result) = rescue_mate(
                    &self.mapper,
                    self.minimizer,
                    cache,
                    base_id + unmapped as u64,
                    &dump_reads[unmapped],
                    anchor,
                    &options.mapping,
                    &options.rescue,
                    sink,
                    0,
                    &mut NoProbe,
                    scratch,
                ) {
                    alignments[unmapped] = align_read(&result, &options.align);
                    rescued[unmapped] = Some(result);
                }
            }
        }
        let _t = RegionTimer::start(sink, 0, "pair_check");
        for pair in alignments.chunks_exact_mut(2) {
            let (first, second) = pair.split_at_mut(1);
            pair_check(
                self.mapper.gbz().graph(),
                self.mapper.distance_index(),
                &mut first[0],
                &mut second[0],
                options.max_fragment,
            );
        }
        rescued
    }

    /// Runs the full pipeline over raw-read batches as they arrive,
    /// rendering GAF incrementally, without instrumentation. See
    /// [`Parent::run_streaming_with_sink_metrics`].
    pub fn run_streaming<I, W>(
        &self,
        batches: I,
        options: &ParentOptions,
        stream: &StreamOptions,
        set_name: &str,
        gaf_out: &mut W,
    ) -> mg_support::Result<ParentStreamSummary>
    where
        I: Iterator<Item = mg_support::Result<Vec<Vec<u8>>>> + Send,
        W: std::io::Write,
    {
        self.run_streaming_with_sink_metrics(
            batches,
            options,
            stream,
            set_name,
            gaf_out,
            &NullSink,
            Metrics::off_ref(),
        )
    }

    /// Streaming ingestion for the parent pipeline: a producer thread pulls
    /// raw-read batches (e.g. [`mg_workload::FastqBatches`](../mg_workload/fastq))
    /// into a bounded queue — blocking on a full queue, which is what
    /// bounds ingestion memory — while the calling thread maps chunks of
    /// [`StreamOptions::chunk_target`] reads and appends each chunk's GAF
    /// lines to `gaf_out`.
    ///
    /// For paired workflows chunks split on even read indexes, so every
    /// mate pair (`2i`, `2i+1`) is rescued and pair-checked inside one
    /// chunk and the emitted GAF is byte-identical to the batch
    /// [`crate::run_to_gaf`] over the concatenated input.
    ///
    /// On a producer error the good prefix is still mapped and emitted,
    /// then the error is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn run_streaming_with_sink_metrics<I, W>(
        &self,
        batches: I,
        options: &ParentOptions,
        stream: &StreamOptions,
        set_name: &str,
        gaf_out: &mut W,
        sink: &(impl RegionSink + ?Sized),
        metrics: &Metrics,
    ) -> mg_support::Result<ParentStreamSummary>
    where
        I: Iterator<Item = mg_support::Result<Vec<Vec<u8>>>> + Send,
        W: std::io::Write,
    {
        stream_chunks(
            self.workflow,
            self.mapper.gbz(),
            options,
            stream,
            set_name,
            batches,
            gaf_out,
            metrics,
            |chunk, base| self.run_chunk(chunk, base, options, sink, metrics),
        )
    }
}

/// The shared streaming loop both the monolithic and the sharded parent
/// drive: a producer thread pulls raw-read batches into a bounded queue
/// (blocking on a full queue, which is what bounds ingestion memory) while
/// the calling thread maps [`StreamOptions::chunk_target`]-read chunks via
/// `map_chunk` and appends each chunk's GAF to `gaf_out`. Chunking, pair
/// alignment, id assignment, and error handling live here exactly once, so
/// the two pipelines cannot diverge in stream shape.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_chunks<I, W, F>(
    workflow: Workflow,
    gbz: &Gbz,
    options: &ParentOptions,
    stream: &StreamOptions,
    set_name: &str,
    batches: I,
    gaf_out: &mut W,
    metrics: &Metrics,
    mut map_chunk: F,
) -> mg_support::Result<ParentStreamSummary>
where
    I: Iterator<Item = mg_support::Result<Vec<Vec<u8>>>> + Send,
    W: std::io::Write,
    F: FnMut(&[Vec<u8>], u64) -> ChunkRun,
{
    let mut chunk_target = stream.chunk_target(&options.mapping).max(1);
    if workflow == Workflow::Paired {
        // Chunks must break on pair boundaries so rescue and pair_check
        // see whole pairs.
        chunk_target = (chunk_target & !1usize).max(2);
    }
    let (tx, rx) = bounded_queue(stream.queue_batches.max(1));
    let start = Instant::now();

    let mut reads = 0u64;
    let mut batches_consumed = 0u64;
    let mut chunks = 0u64;
    let mut failure: Option<mg_support::Error> = None;
    let mut write_failure: Option<std::io::Error> = None;
    let mut pending: Vec<Vec<u8>> = Vec::new();
    let mut next_id = 0u64;
    // One render buffer for the whole stream, grown to chunk size once.
    let mut gaf: Vec<u8> = Vec::new();

    let queue_stats = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            for item in batches {
                let stop = item.is_err();
                if tx.send(item).is_err() || stop {
                    break;
                }
            }
            tx.stats()
        });

        let mut map_pending = |pending: &mut Vec<Vec<u8>>,
                               next_id: &mut u64,
                               chunks: &mut u64,
                               map_chunk: &mut F,
                               write_failure: &mut Option<std::io::Error>,
                               take: usize| {
            let rest = pending.split_off(take.min(pending.len()));
            let chunk = std::mem::replace(pending, rest);
            if chunk.is_empty() {
                return;
            }
            let base = *next_id;
            metrics.observe(Hist::StreamChunkReads, chunk.len() as u64);
            let out = map_chunk(&chunk, base);
            *next_id += chunk.len() as u64;
            *chunks += 1;
            gaf.clear();
            crate::gaf::chunk_to_gaf_into(
                gbz.graph(),
                set_name,
                base,
                &out.dump_reads,
                &out.kernel_results,
                &out.alignments,
                &mut gaf,
            );
            if write_failure.is_none() {
                if let Err(e) = gaf_out.write_all(&gaf) {
                    *write_failure = Some(e);
                }
            }
        };

        while let Some(item) = rx.recv() {
            if write_failure.is_some() {
                // The output is gone; stop pulling so the producer
                // unblocks and the error surfaces.
                break;
            }
            match item {
                Ok(batch) => {
                    batches_consumed += 1;
                    reads += batch.len() as u64;
                    pending.extend(batch);
                    while pending.len() >= chunk_target {
                        map_pending(
                            &mut pending,
                            &mut next_id,
                            &mut chunks,
                            &mut map_chunk,
                            &mut write_failure,
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
        // Flush the tail (or, on error, the good prefix read so far) —
        // including a trailing unpaired read, which the batch path also
        // leaves unpaired.
        let take = pending.len();
        map_pending(
            &mut pending,
            &mut next_id,
            &mut chunks,
            &mut map_chunk,
            &mut write_failure,
            take,
        );
        drop(rx);
        producer.join().expect("streaming producer panicked")
    });

    metrics.add(Ctr::StreamBatches, batches_consumed);
    metrics.add(Ctr::StreamReads, reads);
    metrics.add(Ctr::StreamProducerBlockedNs, queue_stats.blocked_ns);
    metrics.gauge_max(Gauge::StreamQueueDepthMax, queue_stats.high_water as u64);

    if let Some(e) = write_failure {
        return Err(e.into());
    }
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(ParentStreamSummary {
        reads,
        batches: batches_consumed,
        chunks,
        wall: start.elapsed(),
        queue_high_water: queue_stats.high_water,
        producer_blocked_ns: queue_stats.blocked_ns,
    })
}

/// One mapped chunk of a parent run: everything
/// [`Parent::map_chunk`] produces for `reads[i]` at global id
/// `base_id + i`. The batch path assembles these into a [`ParentRun`];
/// the serving executor renders each one to GAF with
/// [`crate::gaf::chunk_to_gaf_into`] and streams it out.
#[derive(Debug, Clone)]
pub struct ChunkRun {
    /// Captured dump records (read bases + computed seeds), one per read.
    pub dump_reads: Vec<ReadInput>,
    /// Raw kernel outputs, one per read.
    pub kernel_results: Vec<ReadResult>,
    /// Post-processed alignments per read.
    pub alignments: Vec<Vec<Alignment>>,
    /// Mates recovered by rescue (index = read offset in the chunk).
    pub rescued: Vec<Option<ReadResult>>,
}

/// Per-thread mapping state for one parent chunk on the mapper's worker
/// pool: owns the thread's warm-rebound `CachedGbwt` and scratch, maps the
/// reads the scheduler assigns it, and at `finish` merges its metrics
/// shard and stashes the warm state back into the thread's pool cell (the
/// same [`ThreadPersist`] cell the proxy loop uses, so warmth carries
/// across proxy and parent dispatches).
struct ParentWorker<'e, 'g, S: RegionSink + ?Sized> {
    parent: &'e Parent<'g>,
    reads: &'e [Vec<u8>],
    base_id: u64,
    options: &'e ParentOptions,
    sink: &'e S,
    thread: usize,
    slots: &'e [OnceLock<(ReadInput, ReadResult, Vec<Alignment>)>],
    cache: CachedGbwt<'g>,
    scratch: MapScratch,
    metrics: &'e Metrics,
    obs: ObsShard,
}

impl<S: RegionSink + ?Sized> PoolTask for ParentWorker<'_, '_, S> {
    fn run(&mut self, i: usize) {
        let read_id = self.base_id + i as u64;
        if self.options.fault_read == Some(read_id) {
            panic!("injected fault mapping read {read_id}");
        }
        let out = self.parent.map_read_full_obs(
            &mut self.cache,
            read_id,
            &self.reads[i],
            self.options,
            self.sink,
            self.thread,
            &mut NoProbe,
            &mut self.scratch,
            &mut self.obs,
        );
        self.slots[i].set(out).expect("each read mapped once");
    }

    fn finish(self: Box<Self>, cell: &mut PoolCell) {
        let this = *self;
        this.metrics.absorb(&this.obs);
        *cell = Box::new(ThreadPersist {
            cache: this.cache.into_state(),
            scratch: this.scratch,
        });
    }
}

/// What a streaming parent run reports; the per-read outputs left through
/// `gaf_out` as they were produced.
#[derive(Debug, Clone)]
pub struct ParentStreamSummary {
    /// Reads mapped.
    pub reads: u64,
    /// Ingestion batches consumed from the queue.
    pub batches: u64,
    /// Parallel mapping chunks dispatched.
    pub chunks: u64,
    /// Wall-clock time of the whole streaming run.
    pub wall: Duration,
    /// Deepest hand-off queue occupancy observed, in batches.
    pub queue_high_water: usize,
    /// Nanoseconds the producer spent blocked on a full queue.
    pub producer_blocked_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_core::{run_mapping, validate};
    use mg_perf::Profiler;
    use mg_workload::{InputSetSpec, SyntheticInput};

    fn tiny_input() -> SyntheticInput {
        SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 123)
    }

    #[test]
    fn parent_maps_synthetic_reads() {
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let run = parent.run(&reads, &ParentOptions::default());
        assert_eq!(run.kernel_results.len(), reads.len());
        assert_eq!(run.dump.reads.len(), reads.len());
        // Most reads align.
        let aligned = run.alignments.iter().filter(|a| !a.is_empty()).count();
        assert!(aligned * 10 >= reads.len() * 6, "only {aligned}/{} aligned", reads.len());
    }

    #[test]
    fn proxy_reproduces_parent_kernel_output_exactly() {
        // The paper's functional validation: run the parent, capture its
        // dump, feed the dump to the proxy, compare kernel outputs.
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let options = ParentOptions::default();
        let run = parent.run(&reads, &options);
        let proxy = run_mapping(&run.dump, &input.gbz, &options.mapping);
        let report = validate(&run.kernel_results, &proxy.per_read);
        assert!(report.is_exact(), "validation failed: {report}");
        assert!(report.matched > 0, "validation must compare something");
    }

    #[test]
    fn parent_regions_cover_the_whole_workflow() {
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let profiler = Profiler::new();
        let _ = parent.run_with_sink(&reads, &ParentOptions::default(), &profiler);
        let regions: std::collections::HashSet<&str> = profiler
            .region_summary()
            .iter()
            .map(|s| s.region)
            .collect();
        for expected in [
            "parse_input",
            "minimizer_seeding",
            "cluster_seeds",
            "process_until_threshold_c",
            "score_extensions",
        ] {
            assert!(regions.contains(expected), "missing region {expected}");
        }
    }

    #[test]
    fn paired_workflow_runs_pair_check() {
        let mut spec = InputSetSpec::tiny_for_tests();
        spec.workflow = Workflow::Paired;
        spec.reads = 20;
        spec.read_sim.fragment_len = 300;
        spec.read_sim.fragment_jitter = 30;
        let input = SyntheticInput::generate(&spec, 5);
        let parent = Parent::new(&input.gbz, &input.minimizer_index, Workflow::Paired);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let profiler = Profiler::new();
        let run = parent.run_with_sink(&reads, &ParentOptions::default(), &profiler);
        assert_eq!(run.dump.workflow, Workflow::Paired);
        let regions: Vec<&str> = profiler.region_summary().iter().map(|s| s.region).collect();
        assert!(regions.contains(&"pair_check"));
        // At least one pair is properly paired (mates from one fragment).
        let proper = run
            .alignments
            .iter()
            .flatten()
            .filter(|a| a.properly_paired)
            .count();
        assert!(proper > 0, "no properly paired alignments");
    }

    #[test]
    fn parent_metrics_cover_all_stages_and_reconcile() {
        use mg_obs::Stage;
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let metrics = Metrics::new();
        let run = parent.run_with_metrics(&reads, &ParentOptions::default(), &metrics);
        let rep = metrics.report();
        let n = reads.len() as u64;
        assert_eq!(rep.counter(Ctr::ReadsMapped), n);
        assert_eq!(rep.counter(Ctr::PoolTasksCompleted), n);
        for stage in [Stage::Seeding, Stage::Clustering, Stage::Extension, Stage::Rescoring] {
            assert_eq!(rep.stage_count(stage), n, "stage {} count", stage.name());
        }
        assert!(rep.counter(Ctr::CacheHits) + rep.counter(Ctr::CacheMisses) > 0);
        // Instrumentation must not change behavior.
        let plain = parent.run(&reads, &ParentOptions::default());
        assert_eq!(plain.kernel_results, run.kernel_results);
        assert_eq!(plain.alignments, run.alignments);
    }

    #[test]
    fn parent_parallel_matches_sequential() {
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let seq = parent.run(&reads, &ParentOptions::default());
        let mut par_options = ParentOptions::default();
        par_options.mapping.threads = 4;
        par_options.mapping.batch_size = 3;
        let par = parent.run(&reads, &par_options);
        assert_eq!(seq.kernel_results, par.kernel_results);
        assert_eq!(seq.alignments, par.alignments);
        assert_eq!(seq.dump, par.dump);
    }
}
