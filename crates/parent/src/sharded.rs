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
//! are shifted to global ids before post-processing.
//!
//! That route-then-map step is all this module supplies. Dispatch, the
//! fragment routine downstream of the kernel (rescoring, gapped tails,
//! rescue, pair check) and both emitters are the monolithic parent's, run
//! on exactly the monolithic data.
//!
//! Reads the router cannot prove resident fall back to whole-index seeding
//! ([`Parent::seed_and_map`]), which makes output equality unconditional:
//! the sharded pipeline is byte-identical to the unsharded parent on every
//! input, and the routing statistics ([`Ctr::RouteResidentReads`] vs
//! [`Ctr::RouteFallbackReads`]) say how much of the work actually stayed
//! shard-local.

use std::time::Instant;

use mg_core::shard::{extension_to_global, RouteScratch, ShardSet};
use mg_core::types::{ReadResult, Seed};
use mg_core::{Mapper, StreamOptions};
use mg_gbwt::{CacheState, CachedGbwt};
use mg_index::GraphPos;
use mg_obs::{Ctr, Hist, Metrics, Stage};
use mg_support::probe::NoProbe;
use mg_support::regions::{NullSink, RegionSink};
use mg_support::{Error, Result};

use crate::pipeline::{
    stream_chunks, Parent, ParentOptions, ParentRun, ParentStreamSummary, Parked, ReadStep,
    WorkerCore,
};

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
    /// What each pool thread keeps between dispatches beside the shared
    /// cache and scratch (index = thread): one cache state per shard and
    /// the routing buffers. Kept here, not in the pool cell, so sharded and
    /// monolithic dispatches can alternate on one pool without dropping
    /// each other's warm state.
    parked: Parked<ParkedLane>,
}

#[derive(Default)]
struct ParkedLane {
    shards: Vec<CacheState>,
    route: RouteScratch,
}

/// One thread's routing state for one dispatch.
pub(crate) struct ShardLane<'g> {
    /// Per-shard caches, created lazily on first resident read — a thread
    /// that never touches shard `s` never pays for its cache.
    caches: Vec<Option<CachedGbwt<'g>>>,
    /// Parked cache states for shards whose cache is not yet rebound.
    states: Vec<CacheState>,
    route: RouteScratch,
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
        Ok(ShardedParent { parent, set, mappers, parked: Parked::new() })
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

    /// Runs the full sharded pipeline with a region sink and metrics
    /// registry — the sharded analog of [`Parent::run_with_sink_metrics`].
    pub fn run_with_sink_metrics(
        &self,
        reads: &[Vec<u8>],
        options: &ParentOptions,
        sink: &(impl RegionSink + ?Sized),
        metrics: &Metrics,
    ) -> ParentRun {
        self.parent.capture_run(self, reads, options, sink, metrics)
    }

    /// [`Parent::map_chunk_gaf`] through the router: same pool (sharded
    /// and monolithic jobs interleave on one set of threads, which is the
    /// whole point of shard-tagged tasks — no per-shard thread pools), same
    /// signature, same bytes, so the serving executor can swap pipelines
    /// per job.
    pub fn map_chunk_gaf(
        &self,
        reads: &[Vec<u8>],
        base_id: u64,
        set_name: &str,
        options: &ParentOptions,
        metrics: &Metrics,
        out: &mut Vec<u8>,
    ) {
        self.parent.chunk_gaf(self, reads, base_id, set_name, options, &NullSink, metrics, out);
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
        let parent = self.parent;
        stream_chunks(parent.workflow(), options, stream, batches, gaf_out, metrics, |chunk, base, out| {
            parent.chunk_gaf(self, chunk, base, set_name, options, sink, metrics, out)
        })
    }
}

/// The routed step: route the read, run the resident shard's kernel (or
/// the whole-index fallback), and translate shard-local output back to
/// global coordinates.
impl<'g> ReadStep<'g> for ShardedParent<'g> {
    type Lane = ShardLane<'g>;

    fn open(&self, thread: usize) -> ShardLane<'g> {
        let kept = self.parked.take(thread);
        let k = self.shard_count();
        let mut states = kept.shards;
        states.resize_with(k, CacheState::default);
        ShardLane { caches: (0..k).map(|_| None).collect(), states, route: kept.route }
    }

    fn map_read<S: RegionSink + ?Sized>(
        &self,
        lane: &mut ShardLane<'g>,
        worker: &mut WorkerCore<'_, 'g, S>,
        read_id: u64,
        bases: &[u8],
        seeds: &mut Vec<Seed>,
    ) -> ReadResult {
        let options = worker.options;
        let t_route = worker.obs.now();
        // A resident read's seed list comes out shard-local and ordered
        // exactly as the monolithic query would order these seeds.
        let outcome = self.set.route_read(bases, options.hard_hit_cap, &mut lane.route, seeds);
        worker.obs.inc(Ctr::RouteReadsTotal);
        worker.obs.add(Ctr::RouteShardsProbed, outcome.probed as u64);
        worker.obs.observe(Hist::RouteFanout, outcome.fanout as u64);
        // Residency needs more than single-shard seeds: the clustering
        // radius (and thus any graph walk the kernel can make) must fit
        // inside the shard's halo, or local distances could diverge.
        let radius = (bases.len() as u64).max(options.mapping.cluster.distance_limit);
        let resident = outcome
            .resident
            .filter(|_| radius <= self.set.manifest.resident_limit);
        let Some(s) = resident else {
            worker.obs.inc(Ctr::RouteFallbackReads);
            // The router already swept this read's minimizers; seed the
            // whole-index fallback from them instead of extracting twice.
            return self.parent.seed_and_map(
                &mut worker.cache,
                read_id,
                bases,
                Some(lane.route.minimizers()),
                options,
                worker.sink,
                worker.thread,
                &mut NoProbe,
                &mut worker.scratch,
                seeds,
                &mut worker.obs,
            );
        };
        worker.obs.inc(Ctr::RouteResidentReads);
        worker.obs.stage(Stage::Seeding, t_route);
        let window = self.set.shards[s].meta.window;
        let cache = lane.caches[s].get_or_insert_with(|| {
            CachedGbwt::with_state(
                self.set.shards[s].bundle.gbz().gbwt(),
                options.mapping.cache_capacity,
                std::mem::take(&mut lane.states[s]),
            )
        });
        let local = self.mappers[s].map_read_seeded(
            cache,
            read_id,
            bases,
            seeds,
            &options.mapping,
            worker.sink,
            worker.thread,
            &mut NoProbe,
            &mut worker.scratch,
            &mut worker.obs,
        );
        // Merge: shift extensions and the seeds back to global ids so every
        // consumer downstream sees monolithic-identical records.
        let t_merge = worker.obs.is_on().then(Instant::now);
        let result = ReadResult {
            read_id,
            extensions: local
                .extensions
                .iter()
                .map(|e| extension_to_global(window, e))
                .collect(),
        };
        for sd in seeds.iter_mut() {
            sd.pos = GraphPos::new(window.to_global(sd.pos.handle), sd.pos.offset);
        }
        if let Some(t) = t_merge {
            worker.obs.add(Ctr::ShardMergeNs, t.elapsed().as_nanos() as u64);
        }
        result
    }

    fn close(&self, thread: usize, lane: ShardLane<'g>) {
        let mut shards = lane.states;
        for (s, cache) in lane.caches.into_iter().enumerate() {
            if let Some(c) = cache {
                shards[s] = c.into_state();
            }
        }
        self.parked.put(thread, ParkedLane { shards, route: lane.route });
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
        let _ = sharded.run_with_sink_metrics(
            &reads,
            &ParentOptions::default(),
            &NullSink,
            &metrics,
        );
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
