//! The sharded parent pipeline: minimizer-hit routing over partitioned
//! pangenome shards.
//!
//! [`ShardedParent`] wraps a monolithic [`Parent`] plus a
//! [`mg_core::shard::ShardSet`] and maps each read by routing instead of
//! whole-index seeding: the read's minimizers are extracted once, candidate
//! shards are scored through the manifest's Bloom summaries, and — when
//! every surviving seed lands in a single shard core and the read's
//! clustering radius fits inside the shard's halo — only that shard's
//! kernel state (subgraph, minimizer slice, distance slice, projected
//! GBWT) is touched. Extensions come back in window-local coordinates and
//! are shifted to global ids before post-processing, so everything
//! downstream of the kernel (rescoring, gapped tails, rescue, pair check,
//! GAF) runs the exact monolithic code on exactly the monolithic data.
//!
//! Reads the router cannot prove resident fall back to the monolithic
//! per-read path ([`Parent::map_read_full_obs`]), which makes output
//! equality unconditional: the sharded pipeline is byte-identical to the
//! unsharded parent on every input, and the routing statistics
//! ([`Ctr::RouteResidentReads`] vs [`Ctr::RouteFallbackReads`]) say how
//! much of the work actually stayed shard-local.

use std::sync::OnceLock;
use std::time::Instant;

use mg_core::dump::SeedDump;
use mg_core::shard::{extension_to_global, RouteScratch, ShardSet};
use mg_core::types::{ReadInput, ReadResult, Seed};
use mg_core::{MapScratch, Mapper, StreamOptions, ThreadPersist};
use mg_gbwt::{CacheState, CachedGbwt};
use mg_index::GraphPos;
use mg_obs::{Ctr, Hist, Metrics, ObsShard, Stage};
use mg_sched::{AnyScheduler, PoolCell, PoolTask};
use mg_support::probe::NoProbe;
use mg_support::regions::{NullSink, RegionSink};
use mg_support::{Error, Result};

use crate::align::Alignment;
use crate::pipeline::{
    stream_chunks, ChunkRun, Parent, ParentOptions, ParentRun, ParentStreamSummary,
};

/// One read's mapped record plus the shard that produced it (`None` when
/// the monolithic fallback mapped it).
type Mapped = (ReadInput, ReadResult, Vec<Alignment>);

/// A parent mapper that dispatches reads to partitioned shards.
///
/// Holds one kernel [`Mapper`] per shard (over the shard's own `.mgi`
/// bundle) next to the monolithic parent it falls back to. Construction is
/// cheap — the shard bundles were already loaded by
/// [`ShardSet::open_dir`]; only the per-shard distance indices are cloned
/// out of the bundles so each mapper owns its slice.
pub struct ShardedParent<'a> {
    parent: &'a Parent<'a>,
    set: &'a ShardSet,
    mappers: Vec<Mapper<'a>>,
}

impl<'a> ShardedParent<'a> {
    /// Wires a shard set to the monolithic parent it shards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when the shard manifest disagrees with
    /// the parent's pangenome or minimizer scheme — routing decisions made
    /// against the wrong index would silently produce wrong seeds.
    pub fn new(parent: &'a Parent<'a>, set: &'a ShardSet) -> Result<Self> {
        let node_count = parent.mapper().gbz().graph().node_count() as u64;
        if set.manifest.node_count != node_count {
            return Err(Error::Corrupt(format!(
                "shard manifest partitions {} nodes but the pangenome has {node_count}",
                set.manifest.node_count
            )));
        }
        if set.manifest.params != parent.minimizer().params() {
            return Err(Error::Corrupt(
                "shard manifest minimizer scheme disagrees with the parent index".into(),
            ));
        }
        let mappers = set
            .shards
            .iter()
            .map(|s| Mapper::with_distance(s.bundle.gbz(), s.bundle.distance().clone()))
            .collect();
        Ok(ShardedParent { parent, set, mappers })
    }

    /// The monolithic parent this dispatcher falls back to.
    pub fn parent(&self) -> &'a Parent<'a> {
        self.parent
    }

    /// The shard set being routed over.
    pub fn set(&self) -> &'a ShardSet {
        self.set
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.mappers.len()
    }

    /// Runs the full sharded pipeline over raw reads without
    /// instrumentation. Output is byte-identical to [`Parent::run`].
    pub fn run(&self, reads: &[Vec<u8>], options: &ParentOptions) -> ParentRun {
        self.run_with_sink_metrics(reads, options, &NullSink, Metrics::off_ref())
    }

    /// [`ShardedParent::run`] recording routing counters and stage spans.
    pub fn run_with_metrics(
        &self,
        reads: &[Vec<u8>],
        options: &ParentOptions,
        metrics: &Metrics,
    ) -> ParentRun {
        self.run_with_sink_metrics(reads, options, &NullSink, metrics)
    }

    /// Runs the full sharded pipeline with a region sink and metrics
    /// registry — the sharded analog of [`Parent::run_with_sink_metrics`].
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
            dump: SeedDump::new(self.parent.workflow(), chunk.dump_reads),
            rescued: chunk.rescued,
            wall,
        }
    }

    /// Maps one chunk of reads (global ids `base_id..`) on the parent
    /// mapper's persistent pool — the serving entry point, signature-
    /// compatible with [`Parent::map_chunk`] so the serving executor can
    /// swap pipelines per job.
    pub fn map_chunk(
        &self,
        reads: &[Vec<u8>],
        base_id: u64,
        options: &ParentOptions,
        metrics: &Metrics,
    ) -> ChunkRun {
        self.run_chunk(reads, base_id, options, &NullSink, metrics)
    }

    /// Streaming ingestion over the sharded pipeline. Chunking, pair
    /// alignment and GAF rendering are shared with the monolithic
    /// [`Parent::run_streaming`] (one loop, two pipelines), so the emitted
    /// GAF is byte-identical to the unsharded stream over the same input.
    pub fn run_streaming<I, W>(
        &self,
        batches: I,
        options: &ParentOptions,
        stream: &StreamOptions,
        set_name: &str,
        gaf_out: &mut W,
    ) -> Result<ParentStreamSummary>
    where
        I: Iterator<Item = Result<Vec<Vec<u8>>>> + Send,
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

    /// [`ShardedParent::run_streaming`] with a region sink and metrics.
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
    ) -> Result<ParentStreamSummary>
    where
        I: Iterator<Item = Result<Vec<Vec<u8>>>> + Send,
        W: std::io::Write,
    {
        stream_chunks(
            self.parent.workflow(),
            self.parent.mapper().gbz(),
            options,
            stream,
            set_name,
            batches,
            gaf_out,
            metrics,
            |chunk, base| self.run_chunk(chunk, base, options, sink, metrics),
        )
    }

    /// Maps `reads` through route-dispatch-merge plus the pair-local tail.
    /// Mirrors `Parent::run_chunk`: same pool, same scheduler, same slot
    /// assembly, same rescue and pair check (both run on the *global*
    /// index — rescue windows and fragment distances cross shard
    /// boundaries by construction), so the only difference is which kernel
    /// state each resident read touches.
    fn run_chunk(
        &self,
        reads: &[Vec<u8>],
        base_id: u64,
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        metrics: &Metrics,
    ) -> ChunkRun {
        let n = reads.len();
        let k = self.shard_count();
        let slots: Vec<OnceLock<Mapped>> = (0..n).map(|_| OnceLock::new()).collect();
        let scheduler: Box<dyn AnyScheduler> =
            options.mapping.scheduler.build(options.mapping.batch_size);
        // Dispatch on the *parent* mapper's resident pool: sharded and
        // monolithic jobs interleave on one set of threads, which is the
        // whole point of shard-tagged tasks (no per-shard thread pools).
        let mut pool = self.parent.mapper().lock_pool();
        scheduler.run_pooled_erased_obs(
            &mut pool,
            n,
            options.mapping.threads.max(1),
            metrics,
            &|thread, cell| {
                let persist = match cell.downcast_mut::<ShardThreadPersist>() {
                    Some(p) => std::mem::take(p),
                    None => ShardThreadPersist::default(),
                };
                let mut shard_states = persist.shards;
                shard_states.resize_with(k, CacheState::default);
                Box::new(ShardWorker {
                    sp: self,
                    reads,
                    base_id,
                    options,
                    sink,
                    thread,
                    slots: &slots,
                    cache: CachedGbwt::with_state(
                        self.parent.mapper().gbz().gbwt(),
                        options.mapping.cache_capacity,
                        persist.global.cache,
                    ),
                    shard_caches: (0..k).map(|_| None).collect(),
                    shard_states,
                    scratch: persist.global.scratch,
                    route: persist.route,
                    seed_buf: Vec::new(),
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
        let rescued = self.parent.pair_tail(base_id, options, sink, &dump_reads, &mut alignments);
        ChunkRun { dump_reads, kernel_results, alignments, rescued }
    }
}

/// Per-thread state the sharded dispatcher parks in its pool cell between
/// chunks: the monolithic cache/scratch (for fallback reads and their
/// warmth across chunks) plus one cache state per shard and the routing
/// buffers. Replaces the plain [`ThreadPersist`] cell; alternating
/// monolithic and sharded dispatches on one pool therefore restarts the
/// other pipeline's caches cold, which costs warmth but never correctness.
#[derive(Default)]
struct ShardThreadPersist {
    global: ThreadPersist,
    shards: Vec<CacheState>,
    route: RouteScratch,
}

/// One pool thread's worker for a sharded chunk: routes each assigned
/// read, runs the resident shard's kernel (or the monolithic fallback),
/// and translates shard-local output back to global coordinates.
struct ShardWorker<'e, 'g, S: RegionSink + ?Sized> {
    sp: &'e ShardedParent<'g>,
    reads: &'e [Vec<u8>],
    base_id: u64,
    options: &'e ParentOptions,
    sink: &'e S,
    thread: usize,
    slots: &'e [OnceLock<Mapped>],
    /// Monolithic cache for fallback reads.
    cache: CachedGbwt<'g>,
    /// Per-shard caches, created lazily on first resident read — a thread
    /// that never touches shard `s` never pays for its cache.
    shard_caches: Vec<Option<CachedGbwt<'g>>>,
    /// Parked cache states for shards whose cache is not yet rebound.
    shard_states: Vec<CacheState>,
    scratch: MapScratch,
    route: RouteScratch,
    seed_buf: Vec<Seed>,
    metrics: &'e Metrics,
    obs: ObsShard,
}

impl<S: RegionSink + ?Sized> PoolTask for ShardWorker<'_, '_, S> {
    fn run(&mut self, i: usize) {
        let read_id = self.base_id + i as u64;
        if self.options.fault_read == Some(read_id) {
            panic!("injected fault mapping read {read_id}");
        }
        let bases = &self.reads[i];
        let t_route = self.obs.now();
        let outcome = self.sp.set.route_read(
            bases,
            self.options.hard_hit_cap,
            &mut self.route,
            &mut self.seed_buf,
        );
        self.obs.inc(Ctr::RouteReadsTotal);
        self.obs.add(Ctr::RouteShardsProbed, outcome.probed as u64);
        self.obs.observe(Hist::RouteFanout, outcome.fanout as u64);
        // Residency needs more than single-shard seeds: the clustering
        // radius (and thus any graph walk the kernel can make) must fit
        // inside the shard's halo, or local distances could diverge.
        let radius = (bases.len() as u64).max(self.options.mapping.cluster.distance_limit);
        let resident = outcome
            .resident
            .filter(|_| radius <= self.sp.set.manifest.resident_limit);
        let Some(s) = resident else {
            self.obs.inc(Ctr::RouteFallbackReads);
            // The router already swept this read's minimizers; seed the
            // whole-index fallback from them instead of extracting twice.
            let (input, result, aligns) = self.sp.parent.map_read_routed_obs(
                &mut self.cache,
                read_id,
                bases,
                self.route.minimizers(),
                self.options,
                self.sink,
                self.thread,
                &mut NoProbe,
                &mut self.scratch,
                &mut self.obs,
            );
            self.slots[i]
                .set((input, result, aligns))
                .expect("each read mapped once");
            return;
        };
        self.obs.inc(Ctr::RouteResidentReads);
        self.obs.stage(Stage::Seeding, t_route);
        let window = self.sp.set.shards[s].meta.window;
        // The routed seed list is already shard-local and ordered exactly
        // as the monolithic query would order these seeds.
        // Clone the routed seeds (exact-size allocation) rather than moving
        // the buffer out: `seed_buf` keeps its capacity, so routing the next
        // read appends without regrowing from zero.
        let mut input = ReadInput { bases: bases.clone(), seeds: self.seed_buf.clone() };
        if self.shard_caches[s].is_none() {
            let state = std::mem::take(&mut self.shard_states[s]);
            self.shard_caches[s] = Some(CachedGbwt::with_state(
                self.sp.set.shards[s].bundle.gbz().gbwt(),
                self.options.mapping.cache_capacity,
                state,
            ));
        }
        let cache = self.shard_caches[s].as_mut().expect("cache just created");
        let local = self.sp.mappers[s].map_read_with_scratch(
            cache,
            read_id,
            &input,
            &self.options.mapping,
            self.sink,
            self.thread,
            &mut NoProbe,
            &mut self.scratch,
            &mut self.obs,
        );
        // Merge: shift extensions and the dump seeds back to global ids so
        // every consumer downstream sees monolithic-identical records.
        let t_merge = self.obs.is_on().then(Instant::now);
        let result = ReadResult {
            read_id,
            extensions: local
                .extensions
                .iter()
                .map(|e| extension_to_global(window, e))
                .collect(),
        };
        for sd in &mut input.seeds {
            sd.pos = GraphPos::new(window.to_global(sd.pos.handle), sd.pos.offset);
        }
        if let Some(t) = t_merge {
            self.obs.add(Ctr::ShardMergeNs, t.elapsed().as_nanos() as u64);
        }
        let t0 = self.obs.now();
        let aligns = self
            .sp
            .parent
            .post_process(&input, &result, self.options, self.sink, self.thread);
        self.obs.stage(Stage::Rescoring, t0);
        self.slots[i]
            .set((input, result, aligns))
            .expect("each read mapped once");
    }

    fn finish(self: Box<Self>, cell: &mut PoolCell) {
        let this = *self;
        this.metrics.absorb(&this.obs);
        let mut shards = this.shard_states;
        for (s, cache) in this.shard_caches.into_iter().enumerate() {
            if let Some(c) = cache {
                shards[s] = c.into_state();
            }
        }
        *cell = Box::new(ShardThreadPersist {
            global: ThreadPersist {
                cache: this.cache.into_state(),
                scratch: this.scratch,
            },
            shards,
            route: this.route,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_core::shard::ShardParams;
    use mg_workload::{InputSetSpec, SyntheticInput};

    fn tiny_input() -> SyntheticInput {
        SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 11)
    }

    #[test]
    fn sharded_matches_monolithic_end_to_end() {
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let set = ShardSet::build(
            &input.gbz,
            &input.minimizer_index,
            parent.mapper().distance_index(),
            &ShardParams::default(),
        )
        .unwrap();
        let sharded = ShardedParent::new(&parent, &set).unwrap();
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let options = ParentOptions::default();
        let mono = parent.run(&reads, &options);
        let shard = sharded.run(&reads, &options);
        assert_eq!(mono.kernel_results, shard.kernel_results);
        assert_eq!(mono.alignments, shard.alignments);
        assert_eq!(mono.dump, shard.dump);
        assert_eq!(mono.rescued, shard.rescued);
    }

    #[test]
    fn routing_metrics_account_for_every_read() {
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let set = ShardSet::build(
            &input.gbz,
            &input.minimizer_index,
            parent.mapper().distance_index(),
            &ShardParams::default(),
        )
        .unwrap();
        let sharded = ShardedParent::new(&parent, &set).unwrap();
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let metrics = Metrics::new();
        let _ = sharded.run_with_metrics(&reads, &ParentOptions::default(), &metrics);
        let rep = metrics.report();
        let n = reads.len() as u64;
        assert_eq!(rep.counter(Ctr::RouteReadsTotal), n);
        assert_eq!(
            rep.counter(Ctr::RouteResidentReads) + rep.counter(Ctr::RouteFallbackReads),
            n
        );
        // Routing must keep most tiny-workload reads resident; the bound
        // here is deliberately loose (the bench gate enforces the real
        // thresholds on larger inputs).
        assert!(
            rep.counter(Ctr::RouteResidentReads) > 0,
            "no read stayed resident"
        );
        assert!(rep.counter(Ctr::RouteShardsProbed) >= n);
    }

    #[test]
    fn rejects_mismatched_manifest() {
        let input = tiny_input();
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let mut set = ShardSet::build(
            &input.gbz,
            &input.minimizer_index,
            parent.mapper().distance_index(),
            &ShardParams::default(),
        )
        .unwrap();
        set.manifest.node_count += 1;
        assert!(ShardedParent::new(&parent, &set).is_err());
    }
}
