//! The parent pipeline: a Giraffe-like end-to-end mapper.
//!
//! Where the proxy starts from a seed dump, the parent starts from raw
//! reads and runs the whole workflow the paper characterizes:
//!
//! 1. [`Stage::Parse`] — read intake (the capture emitter's dump record);
//! 2. [`Stage::Seeding`] — minimizer lookup producing seeds;
//! 3. [`Stage::Clustering`] — `cluster_seeds`, the first critical function
//!    (shared with the proxy; skipped for a read the walk of its first seed
//!    settles);
//! 4. [`Stage::Extension`] — `process_until_threshold_c`, the second
//!    critical function (shared);
//! 5. [`Stage::Rescoring`] — `score_extensions` and the gapped tail
//!    fallback;
//! 6. [`Stage::Pairing`] — mate rescue and the fragment check for paired
//!    workflows;
//! 7. [`Stage::Render`] — the read's GAF lines, on the GAF-producing paths.
//!
//! Work is distributed by the VG-style batch scheduler, and the unit it
//! distributes is the *fragment*: one read when single-end, the mate pair
//! `2i`/`2i+1` when paired. The pool worker that maps a fragment also
//! finishes it — rescue, pair check, and then one of two emitters: GAF
//! bytes into a buffer the thread keeps (streaming, serving) or the
//! captured per-read records of a [`ParentRun`] (the batch path, the
//! paper's capture boundary). The worker's [`ObsShard`] opens its mark once
//! per fragment; each stage boundary then reads the clock once and closes
//! the stage from where the previous one ended, into the metrics registry
//! (Figure 3, Table VI) and the [`RegionSink`] the shard carries (the
//! Figure 2 timeline).

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use mg_core::dump::SeedDump;
use mg_core::types::{ReadInput, ReadResult, Seed, Workflow};
use mg_core::{MapScratch, Mapper, MappingOptions, StreamOptions};
use mg_gbwt::{CachedGbwt, Gbz};
use mg_index::{DistanceIndex, MinimizerIndex};
use mg_obs::{Ctr, Gauge, Hist, Metrics, ObsShard, Stage};
use mg_sched::{bounded_queue, chunk_grain_reads, SchedulerKind};
use mg_support::probe::{MemProbe, NoProbe, REGION_PARENT_READS, REGION_PARENT_SEEDS};
use mg_support::regions::{NullSink, RegionSink};

use crate::align::{align_read, pair_check, AlignParams, Alignment};
use crate::gaf::read_to_gaf_into;
use crate::rescue::{rescue_mate_bases, RescueParams};

/// Parent-pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentOptions {
    /// Kernel options (threads, batch, cache capacity, kernels). The
    /// library default scheduler is the VG batch dispatcher; the
    /// `minigiraffe` CLI overrides it with `dynamic` for every subcommand
    /// unless `--scheduler` says otherwise.
    pub mapping: MappingOptions,
    /// Post-processing parameters.
    pub align: AlignParams,
    /// Seeds with more minimizer hits than this are dropped.
    pub hard_hit_cap: usize,
    /// Maximum mate-pair fragment distance (paired workflows).
    pub max_fragment: u64,
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
    /// Fragment buffers of the mapper's pool threads, one per thread, kept
    /// between dispatches so a chunk does not grow them from zero. Locked
    /// for a dispatch and the stitch after it, always before
    /// [`Mapper::lock_pool`].
    bufs: Mutex<Vec<FragmentBufs>>,
}

/// What one pool thread keeps for the fragments it finishes: the seed lists
/// of the fragment in flight (one per mate) and, on the GAF-producing
/// paths, the bytes it rendered this chunk with the runs of consecutive
/// fragments they belong to.
#[derive(Default)]
struct FragmentBufs {
    seeds: [Vec<Seed>; 2],
    gaf: Vec<u8>,
    runs: Vec<GafRun>,
}

/// Fragments `first..next` of a chunk, rendered back to back by one worker:
/// their bytes end at `end` in its buffer and start where its previous run
/// ended.
struct GafRun {
    first: usize,
    next: usize,
    end: usize,
}

/// One read as the capture emitter records it: the dump record, the raw
/// kernel output, and the alignments.
type Captured = (ReadInput, ReadResult, Vec<Alignment>);

/// Where a finished fragment goes: the two ends of the one fragment routine.
#[derive(Clone, Copy)]
enum Emitter<'e> {
    /// Render the fragment's GAF lines into the worker's buffer.
    Gaf { set_name: &'e str },
    /// Move everything the fragment produced into per-read slots; `rescued`
    /// is empty for single-end workflows, which rescue nothing.
    Capture { reads: &'e [OnceLock<Captured>], rescued: &'e [OnceLock<ReadResult>] },
}

/// Where a dispatch's instrumentation goes: the registry its workers'
/// shards merge into, and the region sink each shard carries.
#[derive(Clone, Copy)]
struct Sinks<'e> {
    metrics: &'e Metrics,
    regions: &'e dyn RegionSink,
}

impl<'a> Parent<'a> {
    /// Builds the parent from a pangenome and its minimizer index,
    /// computing the distance index from the graph.
    pub fn new(gbz: &'a Gbz, minimizer: &'a MinimizerIndex, workflow: Workflow) -> Self {
        Self::with_distance(gbz, minimizer, DistanceIndex::build(gbz.graph()), workflow)
    }

    /// Builds the parent around a prebuilt distance index — e.g. one
    /// moved out of a loaded `.mgi` bundle — skipping the
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
            bufs: Mutex::new(Vec::new()),
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

    /// Reads per mapping chunk on the GAF-producing paths, streaming and
    /// serving alike: [`MappingOptions::chunk_reads`](mg_core::MappingOptions::chunk_reads),
    /// made even (and at least 2) for paired workflows so that every chunk
    /// starts on a pair boundary.
    pub fn chunk_reads(&self, options: &ParentOptions) -> usize {
        let chunk = options.mapping.chunk_reads();
        match self.workflow {
            Workflow::Paired => (chunk & !1).max(2),
            Workflow::Single => chunk,
        }
    }

    /// Maps one read end-to-end on throwaway scratch, uninstrumented:
    /// seeding, kernels, post-processing. Returns the captured
    /// [`ReadInput`] (the dump record), the raw kernel result, and the
    /// alignments. This is the probed single-read entry the
    /// characterization experiments drive; the pooled paths run the same
    /// steps per fragment.
    pub fn map_read_full<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        bases: &[u8],
        options: &ParentOptions,
        probe: &mut P,
    ) -> (ReadInput, ReadResult, Vec<Alignment>) {
        let mut seeds = Vec::new();
        let mut obs = ObsShard::disabled();
        let result = self.seed_and_map(
            cache,
            read_id,
            bases,
            options,
            probe,
            &mut MapScratch::default(),
            &mut seeds,
            &mut obs,
        );
        let alignments = self.post_process_bases(bases, &result, options, &mut obs);
        (ReadInput { bases: bases.to_vec(), seeds }, result, alignments)
    }

    /// Seeds one read from the index into `seeds` and runs the kernels. The
    /// seeding buffers, the seed list and the kernel buffers all belong to
    /// the caller, so a worker that keeps them maps every read without
    /// per-read heap allocation beyond the result it returns. The seeding
    /// span closes from `obs`'s open mark.
    // Inlined so a `NoProbe` constant-folds away at each call site.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn seed_and_map<P: MemProbe>(
        &self,
        cache: &mut CachedGbwt<'_>,
        read_id: u64,
        bases: &[u8],
        options: &ParentOptions,
        probe: &mut P,
        scratch: &mut MapScratch,
        seeds: &mut Vec<Seed>,
        obs: &mut ObsShard<'_>,
    ) -> ReadResult {
        {
            // The probe stands for counters scoped to the kernel regions,
            // as the paper's were in Giraffe: instructions retired out here
            // are not its business, so none are charged. The memory the
            // seeding stage walks is: this is the work Giraffe interleaves
            // with the critical functions, what it leaves in the caches is
            // what the kernels then find there, and it is what perturbs the
            // parent's counters away from the proxy's in the paper's Table V.
            probe.touch(REGION_PARENT_READS.at(read_id), bases.len() as u32);
            self.minimizer.query_into(
                bases,
                options.hard_hit_cap,
                &mut scratch.seeding,
                &mut scratch.seed_hits,
            );
            seeds.clear();
            seeds.extend(scratch.seed_hits.iter().map(|&(off, pos)| Seed::new(off, pos)));
            probe.touch(
                REGION_PARENT_SEEDS.at(read_id % REGION_PARENT_SEEDS.slots),
                (seeds.len() * std::mem::size_of::<Seed>()).max(16) as u32,
            );
            obs.stage(Stage::Seeding);
        }
        self.mapper.map_read_seeded(
            cache,
            read_id,
            bases,
            seeds,
            &options.mapping,
            probe,
            scratch,
            obs,
        )
    }

    /// Post-processes one read's raw kernel output into alignments:
    /// `score_extensions` plus the gapped fallback for uncovered tails
    /// (Giraffe's alignment phase after seed-and-extend).
    ///
    /// Public so validation harnesses can post-process proxy kernel output
    /// through the exact code path the parent uses and compare final
    /// alignments byte-for-byte. The rescoring interval goes to `sink` as
    /// worker `thread`'s.
    pub fn post_process(
        &self,
        read_input: &ReadInput,
        result: &ReadResult,
        options: &ParentOptions,
        sink: &dyn RegionSink,
        thread: usize,
    ) -> Vec<Alignment> {
        let mut obs = ObsShard::disabled().with_sink(sink, thread);
        obs.open();
        self.post_process_bases(&read_input.bases, result, options, &mut obs)
    }

    /// [`Parent::post_process`] from the read's bases alone (it never looks
    /// at the seeds), timed as one [`Stage::Rescoring`] span from `obs`'s
    /// open mark.
    pub(crate) fn post_process_bases(
        &self,
        bases: &[u8],
        result: &ReadResult,
        options: &ParentOptions,
        obs: &mut ObsShard<'_>,
    ) -> Vec<Alignment> {
        let mut alignments = align_read(result, &options.align);
        // Gapped fallback: when the best extension leaves a read tail
        // uncovered, align the tail against the graph walk's continuation.
        if let (Some(alignment), Some(extension)) =
            (alignments.first_mut(), result.extensions.first())
        {
            let read_len = bases.len() as u32;
            if alignment.read_end < read_len {
                let tail = &bases[alignment.read_end as usize..];
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
        obs.stage(Stage::Rescoring);
        alignments
    }

    /// Runs the full pipeline over raw reads without instrumentation.
    pub fn run(&self, reads: &[Vec<u8>], options: &ParentOptions) -> ParentRun {
        self.run_with_sink_metrics(reads, options, &NullSink, Metrics::off_ref())
    }

    /// Runs the full pipeline, recording per-stage spans, counters, and
    /// scheduler activity in `metrics` and handing every stage interval to
    /// `sink`. Each worker records into a private [`ObsShard`] that carries
    /// the sink, folded into the registry when it finishes, so the hot loop
    /// never touches the registry lock.
    ///
    /// This is the capture emitter: one whole-input dispatch at
    /// `batch_size` reads per grain, every read's records moved into a
    /// [`ParentRun`] — the paper's capture boundary (`--dump`, proxy
    /// validation).
    pub fn run_with_sink_metrics(
        &self,
        reads: &[Vec<u8>],
        options: &ParentOptions,
        sink: &dyn RegionSink,
        metrics: &Metrics,
    ) -> ParentRun {
        let start = Instant::now();
        let n = reads.len();
        let slots: Vec<OnceLock<Captured>> = (0..n).map(|_| OnceLock::new()).collect();
        let rescue_slots: Vec<OnceLock<ReadResult>> = match self.workflow {
            Workflow::Paired => (0..n).map(|_| OnceLock::new()).collect(),
            Workflow::Single => Vec::new(),
        };
        self.dispatch(
            &mut self.lock_bufs(),
            reads,
            0,
            options.mapping.batch_size,
            options,
            Sinks { metrics, regions: sink },
            Emitter::Capture { reads: &slots, rescued: &rescue_slots },
        );
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
        let mut rescued: Vec<Option<ReadResult>> =
            rescue_slots.into_iter().map(OnceLock::into_inner).collect();
        rescued.resize(n, None);
        ParentRun {
            kernel_results,
            alignments,
            dump: SeedDump::new(self.workflow, dump_reads),
            rescued,
            wall: start.elapsed(),
        }
    }

    /// Maps one chunk of reads (global ids `base_id..base_id + reads.len()`)
    /// on the mapper's persistent worker pool and appends the chunk's GAF
    /// to `out`, recording into `metrics` but handing no stage interval to
    /// a region sink.
    ///
    /// This is the one chunk primitive of every GAF-producing path: the
    /// streaming loop calls it per chunk, and a long-lived executor calls
    /// it once per (job, chunk), interleaving chunks of different jobs on
    /// the same pool with per-call options. Because read ids are global
    /// and per-read work is deterministic and cache-independent, the
    /// concatenated chunk GAF is byte-identical to [`crate::run_to_gaf`]
    /// over a batch run of the same reads however chunks were cut or
    /// interleaved. For paired workflows `reads` must start on a pair
    /// boundary (`base_id` even) so rescue and pair check see whole pairs.
    ///
    /// The scheduler is handed [`chunk_grain_reads`] reads per grain, not
    /// `batch_size`: a chunk is usually `threads × batch_size` reads, and
    /// one grain per thread leaves a balancing scheduler nothing to balance.
    ///
    /// A panic in a worker unwinds out of this call after every worker has
    /// stopped; `out` is then as it was on entry.
    pub fn map_chunk_gaf(
        &self,
        reads: &[Vec<u8>],
        base_id: u64,
        set_name: &str,
        options: &ParentOptions,
        metrics: &Metrics,
        out: &mut Vec<u8>,
    ) {
        let sinks = Sinks { metrics, regions: &NullSink };
        self.chunk_gaf(reads, base_id, set_name, options, sinks, out);
    }

    /// The GAF emitter: dispatches the chunk's fragments, then copies what
    /// each worker rendered into `out` in fragment order.
    fn chunk_gaf(
        &self,
        reads: &[Vec<u8>],
        base_id: u64,
        set_name: &str,
        options: &ParentOptions,
        sinks: Sinks<'_>,
        out: &mut Vec<u8>,
    ) {
        let threads = options.mapping.threads.max(1);
        let grain = chunk_grain_reads(reads.len(), threads, options.mapping.batch_size);
        let mut bufs = self.lock_bufs();
        self.dispatch(
            &mut bufs,
            reads,
            base_id,
            grain,
            options,
            sinks,
            Emitter::Gaf { set_name },
        );
        // Still under the lock: the buffers belong to this dispatch until
        // they are copied out.
        let mut pieces: Vec<(usize, &[u8])> = Vec::new();
        for worker in bufs.iter().take(threads) {
            let mut start = 0;
            for run in &worker.runs {
                pieces.push((run.first, &worker.gaf[start..run.end]));
                start = run.end;
            }
        }
        pieces.sort_unstable_by_key(|&(first, _)| first);
        for (_, bytes) in pieces {
            out.extend_from_slice(bytes);
        }
    }

    /// Locks the fragment buffers.
    fn lock_bufs(&self) -> MutexGuard<'_, Vec<FragmentBufs>> {
        self.bufs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one scheduler dispatch behind both emitters: `reads` cut into
    /// fragments (pairs are read-id-local, `2i`/`2i+1`; a trailing odd read
    /// is a fragment of one), `grain_reads` reads' worth of fragments per
    /// grain, one [`FragmentWorker`] per pool thread. Each thread rebinds
    /// its kept cache storage warm (same pangenome, same capacity) and
    /// reuses its scratch and fragment buffers; cache and scratch live in
    /// the mapper's per-thread slots, which the proxy loop uses too.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        bufs: &mut Vec<FragmentBufs>,
        reads: &[Vec<u8>],
        base_id: u64,
        grain_reads: usize,
        options: &ParentOptions,
        sinks: Sinks<'_>,
        emit: Emitter<'_>,
    ) {
        let width = if self.workflow == Workflow::Paired { 2 } else { 1 };
        let threads = options.mapping.threads.max(1);
        if bufs.len() < threads {
            bufs.resize_with(threads, FragmentBufs::default);
        }
        let mut workers = self.mapper.lock_pool();
        let (pool, persist) = workers.split(threads);
        let mut slots: Vec<_> = persist.iter_mut().zip(bufs.iter_mut()).collect();
        options.mapping.scheduler.run(
            grain_reads / width,
            pool,
            &mut slots,
            reads.len().div_ceil(width),
            threads,
            sinks.metrics,
            &|thread, (persist, bufs), grains| {
                // A dispatch that panicked leaves its survivors' bytes
                // behind; every dispatch starts from empty buffers.
                bufs.gaf.clear();
                bufs.runs.clear();
                self.mapper.with_warm_worker(
                    persist,
                    options.mapping.cache_capacity,
                    sinks.metrics,
                    sinks.regions,
                    thread,
                    |cache, scratch, obs| {
                        let mut worker = FragmentWorker {
                            parent: self,
                            options,
                            cache,
                            scratch,
                            obs,
                            reads,
                            base_id,
                            width,
                            bufs,
                            emit,
                        };
                        for fragment in grains {
                            worker.map_fragment(fragment);
                        }
                    },
                );
            },
        );
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
    /// bounds ingestion memory — while the calling thread dispatches chunks
    /// of [`Parent::chunk_reads`] reads, stitches what the workers rendered
    /// and writes it to `gaf_out`.
    ///
    /// For paired workflows chunks split on even read indexes, so every
    /// mate pair (`2i`, `2i+1`) is one fragment of one chunk and the
    /// emitted GAF is byte-identical to the batch [`crate::run_to_gaf`]
    /// over the concatenated input.
    ///
    /// On a producer error the good prefix is still mapped and emitted,
    /// then the error is returned. Once `gaf_out` has failed nothing more
    /// is mapped.
    #[allow(clippy::too_many_arguments)]
    pub fn run_streaming_with_sink_metrics<I, W>(
        &self,
        batches: I,
        options: &ParentOptions,
        stream: &StreamOptions,
        set_name: &str,
        gaf_out: &mut W,
        sink: &dyn RegionSink,
        metrics: &Metrics,
    ) -> mg_support::Result<ParentStreamSummary>
    where
        I: Iterator<Item = mg_support::Result<Vec<Vec<u8>>>> + Send,
        W: std::io::Write,
    {
        let chunk_target = self.chunk_reads(options);
        let (tx, rx) = bounded_queue(stream.queue_batches.max(1));
        let start = Instant::now();
        let sinks = Sinks { metrics, regions: sink };

        let mut reads = 0u64;
        let mut batches_consumed = 0u64;
        let mut chunks = 0u64;
        let mut failure: Option<mg_support::Error> = None;
        let mut write_failure: Option<std::io::Error> = None;
        let mut pending: Vec<Vec<u8>> = Vec::new();
        let mut next_id = 0u64;
        // One stitch buffer for the whole stream, grown to chunk size once.
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

            // Maps and writes the first `take` pending reads — unless the sink
            // is already gone, when mapping them would only produce bytes to
            // throw away.
            let mut map_pending = |pending: &mut Vec<Vec<u8>>,
                                   next_id: &mut u64,
                                   chunks: &mut u64,
                                   write_failure: &mut Option<std::io::Error>,
                                   take: usize| {
                let take = take.min(pending.len());
                if take == 0 || write_failure.is_some() {
                    return;
                }
                metrics.observe(Hist::StreamChunkReads, take as u64);
                gaf.clear();
                let chunk = &pending[..take];
                self.chunk_gaf(chunk, *next_id, set_name, options, sinks, &mut gaf);
                pending.drain(..take);
                *next_id += take as u64;
                *chunks += 1;
                if let Err(e) = gaf_out.write_all(&gaf) {
                    *write_failure = Some(e);
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
                        while pending.len() >= chunk_target && write_failure.is_none() {
                            map_pending(
                                &mut pending,
                                &mut next_id,
                                &mut chunks,
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
            // Flush the tail (or, on a producer error, the good prefix read so
            // far) — including a trailing unpaired read, which the batch path
            // also leaves unpaired.
            let take = pending.len();
            map_pending(&mut pending, &mut next_id, &mut chunks, &mut write_failure, take);
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
}

/// One pool thread's worker for one dispatch: seeds and maps the fragments
/// the scheduler assigns it and finishes each one — rescoring, and for a
/// pair mate rescue and the fragment check, all on this thread's cache and
/// scratch — then hands it to the emitter.
struct FragmentWorker<'w, 'e, 'g> {
    parent: &'e Parent<'g>,
    options: &'e ParentOptions,
    cache: &'w mut CachedGbwt<'g>,
    scratch: &'w mut MapScratch,
    /// Carries the dispatch's region sink and this worker's thread index;
    /// its mark is opened once per fragment.
    obs: &'w mut ObsShard<'e>,
    reads: &'e [Vec<u8>],
    base_id: u64,
    /// Reads per fragment: 2 when paired, else 1.
    width: usize,
    bufs: &'w mut FragmentBufs,
    emit: Emitter<'e>,
}

impl FragmentWorker<'_, '_, '_> {
    /// Mate rescue, then mate consistency, for the pair at `lo`/`lo + 1`,
    /// on this worker's own cache: rescue output does not depend on cache
    /// state. The rescue's kernels are part of the pairing span and record
    /// nothing of their own. Returns the rescued results (index = mate).
    fn pair(&mut self, lo: usize, alignments: &mut [Vec<Alignment>; 2]) -> [Option<ReadResult>; 2] {
        let mapper = &self.parent.mapper;
        let mut rescued = [None, None];
        let half_mapped = match (alignments[0].is_empty(), alignments[1].is_empty()) {
            (false, true) => Some((0, 1)),
            (true, false) => Some((1, 0)),
            _ => None,
        };
        if let Some((mapped, unmapped)) = half_mapped {
            if let Some(result) = rescue_mate_bases(
                mapper,
                self.parent.minimizer,
                self.cache,
                self.base_id + (lo + unmapped) as u64,
                &self.reads[lo + unmapped],
                alignments[mapped][0].pos,
                &self.options.mapping,
                &self.options.rescue,
                &mut NoProbe,
                self.scratch,
                &mut ObsShard::disabled(),
            ) {
                alignments[unmapped] = align_read(&result, &self.options.align);
                rescued[unmapped] = Some(result);
            }
        }
        let (first, second) = alignments.split_at_mut(1);
        pair_check(
            mapper.gbz().graph(),
            mapper.distance_index(),
            &mut first[0],
            &mut second[0],
            self.options.max_fragment,
        );
        self.obs.stage(Stage::Pairing);
        rescued
    }

    /// Maps, finishes and emits one fragment.
    fn map_fragment(&mut self, fragment: usize) {
        let lo = fragment * self.width;
        let count = self.width.min(self.reads.len() - lo);
        // A fragment is at most two reads: everything it produces lives in
        // fixed arrays until the emitter takes it.
        let mut results: [Option<ReadResult>; 2] = [None, None];
        let mut alignments: [Vec<Alignment>; 2] = [Vec::new(), Vec::new()];
        // The one clock read that is not a stage boundary: every stage of
        // the fragment closes from here on where the previous one ended.
        self.obs.open();
        for k in 0..count {
            let read_id = self.base_id + (lo + k) as u64;
            if self.options.fault_read == Some(read_id) {
                panic!("injected fault mapping read {read_id}");
            }
            let bases = &self.reads[lo + k];
            let result = self.parent.seed_and_map(
                self.cache,
                read_id,
                bases,
                self.options,
                &mut NoProbe,
                self.scratch,
                &mut self.bufs.seeds[k],
                self.obs,
            );
            alignments[k] = self.parent.post_process_bases(bases, &result, self.options, self.obs);
            results[k] = Some(result);
        }
        let mut rescued = if count == 2 { self.pair(lo, &mut alignments) } else { [None, None] };
        for k in 0..count {
            let bases = &self.reads[lo + k];
            let result = results[k].take().expect("every read of the fragment was mapped");
            match self.emit {
                // Rendered from the un-rescued kernel output: a rescued
                // mate's alignments find no extension there and emit
                // nothing, on every path alike.
                Emitter::Gaf { set_name } => {
                    read_to_gaf_into(
                        self.parent.mapper.gbz().graph(),
                        set_name,
                        bases.len(),
                        &result,
                        &alignments[k],
                        &mut self.bufs.gaf,
                    );
                    self.obs.stage(Stage::Render);
                }
                Emitter::Capture { reads, rescued: rescue_slots } => {
                    // Intake for the dump record: the one place the read and
                    // its seed list are copied.
                    let input =
                        ReadInput { bases: bases.clone(), seeds: self.bufs.seeds[k].clone() };
                    self.obs.stage(Stage::Parse);
                    let record = (input, result, std::mem::take(&mut alignments[k]));
                    let mut fresh = reads[lo + k].set(record).is_ok();
                    if let Some(result) = rescued[k].take() {
                        fresh &= rescue_slots[lo + k].set(result).is_ok();
                    }
                    assert!(fresh, "each read mapped once");
                }
            }
        }
        if matches!(self.emit, Emitter::Gaf { .. }) {
            let end = self.bufs.gaf.len();
            match self.bufs.runs.last_mut() {
                Some(run) if run.next == fragment => {
                    run.next = fragment + 1;
                    run.end = end;
                }
                _ => self.bufs.runs.push(GafRun { first: fragment, next: fragment + 1, end }),
            }
        }
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
    fn cache_counters_match_the_proxy_over_the_captured_dump() {
        // At one thread the parent and the proxy look up the same records
        // in the same order (same reads, same seeds), and both add each
        // worker's cache statistics once per dispatch. The second dispatch
        // changes the capacity, so each kept cache is rebound cold and
        // the entries it discards count as evictions.
        let input = tiny_input();
        assert_eq!(input.spec.workflow, Workflow::Single);
        let parent = Parent::new(&input.gbz, &input.minimizer_index, Workflow::Single);
        let proxy = Mapper::new(&input.gbz);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let mut dump = None;
        for capacity in [8usize, 256] {
            let mut options = ParentOptions::default();
            options.mapping.cache_capacity = capacity;
            let (ours, theirs) = (Metrics::new(), Metrics::new());
            let run = parent.run_with_sink_metrics(&reads, &options, &NullSink, &ours);
            let dump = dump.get_or_insert(run.dump);
            proxy.run_with_sink_metrics(dump, &options.mapping, &NullSink, &theirs);
            let (ours, theirs) = (ours.report(), theirs.report());
            for c in [
                Ctr::CacheHits,
                Ctr::CacheMisses,
                Ctr::CacheEvictions,
                Ctr::CacheResizes,
                Ctr::CacheRehashedSlots,
            ] {
                assert_eq!(ours.counter(c), theirs.counter(c), "{} at {capacity}", c.name());
            }
            let (resizes, evictions) =
                (ours.counter(Ctr::CacheResizes), ours.counter(Ctr::CacheEvictions));
            match capacity {
                8 => assert!(resizes > 0 && evictions == 0, "{resizes} resizes, {evictions}"),
                _ => assert!(evictions > 0, "the cold rebind discarded nothing"),
            }
        }
    }

    #[test]
    fn parent_regions_cover_the_whole_workflow() {
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let profiler = Profiler::new();
        let _ = parent.run_with_sink_metrics(
            &reads,
            &ParentOptions::default(),
            &profiler,
            Metrics::off_ref(),
        );
        let stages: std::collections::HashSet<Stage> =
            profiler.events().iter().map(|e| e.stage).collect();
        for expected in [
            Stage::Parse,
            Stage::Seeding,
            Stage::Clustering,
            Stage::Extension,
            Stage::Rescoring,
        ] {
            assert!(stages.contains(&expected), "missing stage {}", expected.name());
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
        let run = parent.run_with_sink_metrics(
            &reads,
            &ParentOptions::default(),
            &profiler,
            Metrics::off_ref(),
        );
        assert_eq!(run.dump.workflow, Workflow::Paired);
        assert!(profiler.events().iter().any(|e| e.stage == Stage::Pairing));
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
        for workflow in [Workflow::Single, Workflow::Paired] {
            let mut spec = InputSetSpec::tiny_for_tests();
            spec.workflow = workflow;
            spec.read_sim.fragment_len = 300;
            spec.read_sim.fragment_jitter = 30;
            let input = SyntheticInput::generate(&spec, 123);
            let parent = Parent::new(&input.gbz, &input.minimizer_index, workflow);
            let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
            let options = ParentOptions::default();
            let n = reads.len() as u64;
            // The scheduler's task is the fragment: a read, or a mate pair.
            let (fragments, pairs) = match workflow {
                Workflow::Single => (n, 0),
                Workflow::Paired => (n / 2, n / 2),
            };
            let check = |rep: &mg_obs::Report, parsed: u64, rendered: u64| {
                assert_eq!(rep.counter(Ctr::ReadsMapped), n);
                assert_eq!(rep.counter(Ctr::PoolTasksCompleted), fragments, "{workflow}");
                for stage in [Stage::Seeding, Stage::Extension, Stage::Rescoring] {
                    assert_eq!(rep.stage_count(stage), n, "stage {} count", stage.name());
                }
                // Only reads their first walk did not settle are clustered.
                let settled = rep.counter(Ctr::ExtendFirstReads);
                assert!(settled > 0 && settled < n, "{settled} of {n} settled by the first walk");
                assert_eq!(rep.stage_count(Stage::Clustering), n - settled);
                assert_eq!(rep.stage_count(Stage::Pairing), pairs, "{workflow}");
                assert_eq!(rep.stage_count(Stage::Parse), parsed, "{workflow}");
                assert_eq!(rep.stage_count(Stage::Render), rendered, "{workflow}");
                assert!(rep.counter(Ctr::CacheHits) + rep.counter(Ctr::CacheMisses) > 0);
            };
            // The capture emitter parses every read into its dump record
            // and renders nothing; the GAF emitter parses nothing and
            // renders every read (a read with no alignment is an empty
            // render).
            let metrics = Metrics::new();
            let run = parent.run_with_sink_metrics(&reads, &options, &NullSink, &metrics);
            check(&metrics.report(), n, 0);
            let metrics = Metrics::new();
            let mut gaf = Vec::new();
            parent.map_chunk_gaf(&reads, 0, "tiny", &options, &metrics, &mut gaf);
            check(&metrics.report(), 0, n);
            // Instrumentation must not change behavior, and the two
            // emitters must agree.
            let plain = parent.run(&reads, &options);
            assert_eq!(plain.kernel_results, run.kernel_results);
            assert_eq!(plain.alignments, run.alignments);
            assert_eq!(gaf, crate::run_to_gaf(input.gbz.graph(), &plain, "tiny").into_bytes());
        }
    }

    #[test]
    fn the_profiler_and_the_metrics_agree_on_every_stage() {
        for workflow in [Workflow::Single, Workflow::Paired] {
            let mut spec = InputSetSpec::tiny_for_tests();
            spec.workflow = workflow;
            spec.read_sim.fragment_len = 300;
            spec.read_sim.fragment_jitter = 30;
            let input = SyntheticInput::generate(&spec, 123);
            let parent = Parent::new(&input.gbz, &input.minimizer_index, workflow);
            let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
            let mut options = ParentOptions::default();
            options.mapping.threads = 2;
            for emitter in ["capture", "stream"] {
                let (profiler, metrics) = (Profiler::new(), Metrics::new());
                if emitter == "capture" {
                    parent.run_with_sink_metrics(&reads, &options, &profiler, &metrics);
                } else {
                    parent
                        .run_streaming_with_sink_metrics(
                            reads.chunks(7).map(|c| Ok(c.to_vec())),
                            &options,
                            &StreamOptions::default(),
                            "tiny",
                            &mut Vec::new(),
                            &profiler,
                            &metrics,
                        )
                        .unwrap();
                }
                let rep = metrics.report();
                let events = profiler.events();
                for stage in Stage::ALL {
                    let what = format!("{workflow} {emitter} {}", stage.name());
                    let of_stage: Vec<_> = events.iter().filter(|e| e.stage == stage).collect();
                    // The sink is handed the extension stage's two parts on
                    // a read that reached clustering; the shard sums them.
                    let expected = match stage {
                        Stage::Extension => {
                            let mapped = rep.counter(Ctr::ReadsMapped);
                            mapped + (mapped - rep.counter(Ctr::ExtendFirstReads))
                        }
                        _ => rep.stage_count(stage),
                    };
                    assert_eq!(of_stage.len() as u64, expected, "{what}");
                    let summed_us: u64 = of_stage.iter().map(|e| e.duration_us()).sum();
                    let shard_us = rep.stage_ns(stage) / 1000;
                    assert!(
                        summed_us.abs_diff(shard_us) <= of_stage.len() as u64,
                        "{what}: events sum to {summed_us} µs, the shard to {shard_us} µs"
                    );
                }
                let pairs = if workflow == Workflow::Paired { reads.len() as u64 / 2 } else { 0 };
                assert_eq!(rep.stage_count(Stage::Pairing), pairs, "{workflow} {emitter}");
                assert!(rep.stage_count(Stage::Clustering) > 0, "{workflow} {emitter}");
            }
        }
    }

    /// Keeps every interval with its raw instants, in the order each
    /// thread handed them over.
    #[derive(Default)]
    struct Intervals(Mutex<Vec<(usize, Instant, Instant)>>);

    impl RegionSink for Intervals {
        fn record(&self, thread: usize, _: Stage, start: Instant, end: Instant) {
            self.0.lock().unwrap().push((thread, start, end));
        }
    }

    impl Intervals {
        /// The intervals that do not start where their thread's previous
        /// one ended, and all of them.
        fn breaks(&self) -> (u64, usize) {
            let events = self.0.lock().unwrap();
            let mut last_end = std::collections::HashMap::new();
            let breaks = events
                .iter()
                .filter(|&&(thread, start, end)| last_end.insert(thread, end) != Some(start))
                .count();
            (breaks as u64, events.len())
        }
    }

    #[test]
    fn stage_intervals_abut_from_one_open_per_fragment() {
        // Every stage closes where the previous one ended, so a thread's
        // intervals break only where a fragment opens the mark: at most
        // once per task, on both emitters and the proxy loop.
        for workflow in [Workflow::Single, Workflow::Paired] {
            let mut spec = InputSetSpec::tiny_for_tests();
            spec.workflow = workflow;
            spec.read_sim.fragment_len = 300;
            spec.read_sim.fragment_jitter = 30;
            let input = SyntheticInput::generate(&spec, 123);
            let parent = Parent::new(&input.gbz, &input.minimizer_index, workflow);
            let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
            let mut options = ParentOptions::default();
            options.mapping.threads = 2;
            let mut dump = None;
            for path in ["capture", "stream", "proxy"] {
                let (sink, metrics) = (Intervals::default(), Metrics::new());
                match path {
                    "capture" => {
                        let run = parent.run_with_sink_metrics(&reads, &options, &sink, &metrics);
                        dump = Some(run.dump);
                    }
                    "stream" => {
                        parent
                            .run_streaming_with_sink_metrics(
                                reads.chunks(7).map(|c| Ok(c.to_vec())),
                                &options,
                                &StreamOptions::default(),
                                "tiny",
                                &mut Vec::new(),
                                &sink,
                                &metrics,
                            )
                            .unwrap();
                    }
                    _ => {
                        let dump = dump.as_ref().expect("the capture run went first");
                        parent.mapper().run_with_sink_metrics(dump, &options.mapping, &sink, &metrics);
                    }
                }
                let (breaks, intervals) = sink.breaks();
                let tasks = metrics.report().counter(Ctr::PoolTasksCompleted);
                assert!(tasks > 0 && intervals as u64 > tasks, "{workflow} {path}");
                assert!(
                    breaks <= tasks,
                    "{workflow} {path}: {breaks} of {intervals} intervals break, {tasks} tasks"
                );
            }
        }
    }

    #[test]
    fn a_failed_sink_stops_the_mapping() {
        /// Takes one write, fails every later one.
        struct FailsOnSecondWrite(usize);
        impl std::io::Write for FailsOnSecondWrite {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                if self.0 >= 2 {
                    return Err(std::io::Error::other("sink closed"));
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        assert_eq!(reads.len(), 40);
        // 8-read chunks (one thread × batch 8) out of 5-read batches: the
        // second chunk's write fails with 4 reads pending and 20 more still
        // to arrive.
        let mut options = ParentOptions::default();
        options.mapping.batch_size = 8;
        let stream = StreamOptions { queue_batches: 2 };
        let metrics = Metrics::new();
        let mut sink = FailsOnSecondWrite(0);
        let err = parent
            .run_streaming_with_sink_metrics(
                reads.chunks(5).map(|c| Ok(c.to_vec())),
                &options,
                &stream,
                "tiny",
                &mut sink,
                &NullSink,
                &metrics,
            )
            .unwrap_err();
        assert!(err.to_string().contains("sink closed"), "got: {err}");
        assert_eq!(sink.0, 2, "no write is attempted after the failed one");
        // The chunk that was written and the chunk whose write failed, and
        // not one read more: once the sink is gone the pending tail is not
        // mapped for bytes nobody can take.
        assert_eq!(metrics.report().counter(Ctr::ReadsMapped), 16);
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
