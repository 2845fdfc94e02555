//! Mate rescue: Giraffe's paired-end fallback.
//!
//! When one mate of a pair aligns and the other does not, Giraffe attempts
//! *rescue*: it searches for the missing mate only in the graph
//! neighbourhood where the fragment model says it must lie, with relaxed
//! seed filters. This recovers pairs whose second mate seeds poorly
//! (repeats suppressed by the hit cap, or error-dense reads).

use mg_core::types::{ReadInput, ReadResult, Seed};
use mg_core::{MapScratch, Mapper, MappingOptions};
use mg_gbwt::CachedGbwt;
use mg_index::{GraphPos, MinimizerIndex};
use mg_obs::ObsShard;
use mg_support::probe::MemProbe;
use mg_support::regions::RegionSink;

/// Rescue configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescueParams {
    /// Maximum graph distance from the mapped mate's position.
    pub max_fragment: u64,
    /// Relaxed hit cap used when re-seeding the unmapped mate (Giraffe
    /// loosens its repeat filter during rescue).
    pub rescue_hit_cap: usize,
}

impl Default for RescueParams {
    fn default() -> Self {
        RescueParams {
            max_fragment: 1200,
            rescue_hit_cap: 1024,
        }
    }
}

/// Attempts to rescue an unmapped mate near its mapped partner.
///
/// Re-seeds `mate_input` with the relaxed hit cap, keeps only seeds within
/// `max_fragment` of `anchor` (either direction, either strand), and runs
/// the normal kernels on the filtered seed set, handing their stage
/// intervals to `sink` as worker `thread`'s. Returns the new result if any
/// extension was found.
#[allow(clippy::too_many_arguments)]
pub fn rescue_mate<P: MemProbe>(
    mapper: &Mapper<'_>,
    minimizer: &MinimizerIndex,
    cache: &mut CachedGbwt<'_>,
    mate_id: u64,
    mate_input: &ReadInput,
    anchor: GraphPos,
    options: &MappingOptions,
    params: &RescueParams,
    sink: &dyn RegionSink,
    thread: usize,
    probe: &mut P,
    scratch: &mut MapScratch,
) -> Option<ReadResult> {
    let mut obs = ObsShard::disabled().with_sink(sink, thread);
    rescue_mate_bases(
        mapper,
        minimizer,
        cache,
        mate_id,
        &mate_input.bases,
        anchor,
        options,
        params,
        probe,
        scratch,
        &mut obs,
    )
}

/// [`rescue_mate`] from the mate's bases alone: the chunk workers rescue
/// from the chunk's own read bytes and hold no [`ReadInput`] for the mate
/// (the relaxed re-seed never looks at its first-pass seeds). The kernels
/// record into `obs`, timed from a mark opened after the re-seed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rescue_mate_bases<P: MemProbe>(
    mapper: &Mapper<'_>,
    minimizer: &MinimizerIndex,
    cache: &mut CachedGbwt<'_>,
    mate_id: u64,
    bases: &[u8],
    anchor: GraphPos,
    options: &MappingOptions,
    params: &RescueParams,
    probe: &mut P,
    scratch: &mut MapScratch,
    obs: &mut ObsShard<'_>,
) -> Option<ReadResult> {
    let graph = mapper.gbz().graph();
    let dist = mapper.distance_index();
    // Relaxed re-seed into the scratch buffers, restricted to the fragment
    // neighbourhood.
    minimizer.query_into(
        bases,
        params.rescue_hit_cap,
        &mut scratch.seeding,
        &mut scratch.seed_hits,
    );
    let seeds: Vec<Seed> = scratch
        .seed_hits
        .iter()
        .filter_map(|&(off, pos)| {
            let flipped = pos.flipped(graph.node_len(pos.handle.node()) as u32);
            let near = [pos, flipped].iter().any(|&candidate| {
                dist.min_undirected_distance(graph, anchor, candidate, params.max_fragment)
                    .is_some()
            });
            near.then_some(Seed::new(off, pos))
        })
        .collect();
    if seeds.is_empty() {
        return None;
    }
    // The kernels' stages are timed from here: the re-seed above is not
    // theirs.
    obs.open();
    let result =
        mapper.map_read_seeded(cache, mate_id, bases, &seeds, options, probe, scratch, obs);
    (!result.extensions.is_empty()).then_some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_core::types::Workflow;
    use mg_support::probe::NoProbe;
    use mg_support::regions::NullSink;
    use mg_workload::{InputSetSpec, SyntheticInput};

    fn paired_input() -> SyntheticInput {
        let mut spec = InputSetSpec::tiny_for_tests();
        spec.workflow = Workflow::Paired;
        spec.reads = 30;
        spec.read_sim.fragment_len = 250;
        spec.read_sim.fragment_jitter = 25;
        SyntheticInput::generate(&spec, 17)
    }

    #[test]
    fn rescue_recovers_a_seedless_mate() {
        let input = paired_input();
        let mapper = Mapper::new(&input.gbz);
        let options = MappingOptions::default();
        let mut cache = CachedGbwt::new(input.gbz.gbwt(), 256);
        // Take a pair where both mates map normally; strip the second
        // mate's seeds to simulate hit-cap suppression, then rescue it from
        // the first mate's position.
        for pair_start in (0..input.dump.reads.len()).step_by(2) {
            let r1 = &input.dump.reads[pair_start];
            let r2 = &input.dump.reads[pair_start + 1];
            if r1.seeds.is_empty() || r2.seeds.is_empty() {
                continue;
            }
            let r1_result =
                mapper.map_read(&mut cache, pair_start as u64, r1, &options, &mut NoProbe);
            let Some(best) = r1_result.extensions.first() else {
                continue;
            };
            let anchor = best.pos;
            let stripped = ReadInput { bases: r2.bases.clone(), seeds: Vec::new() };
            // Without seeds, the normal path finds nothing.
            let unmapped = mapper.map_read(
                &mut cache,
                (pair_start + 1) as u64,
                &stripped,
                &options,
                &mut NoProbe,
            );
            assert!(unmapped.extensions.is_empty());
            // Rescue finds it again near the mate.
            let rescued = rescue_mate(
                &mapper,
                &input.minimizer_index,
                &mut cache,
                (pair_start + 1) as u64,
                &stripped,
                anchor,
                &options,
                &RescueParams::default(),
                &NullSink,
                0,
                &mut NoProbe,
                &mut MapScratch::default(),
            );
            let rescued = rescued.expect("mate rescued");
            assert!(!rescued.extensions.is_empty());
            // The rescued alignment scores like the direct one.
            let direct = mapper.map_read(
                &mut cache,
                (pair_start + 1) as u64,
                r2,
                &options,
                &mut NoProbe,
            );
            assert_eq!(rescued.best_score(), direct.best_score());
            return; // one demonstrated pair is enough
        }
        panic!("no usable pair found in the synthetic input");
    }

    #[test]
    fn rescue_rejects_far_anchors() {
        // A mate anchored in a different component cannot be rescued.
        let input = paired_input();
        let mapper = Mapper::new(&input.gbz);
        let options = MappingOptions::default();
        let mut cache = CachedGbwt::new(input.gbz.gbwt(), 256);
        let r2 = input
            .dump
            .reads
            .iter()
            .find(|r| !r.seeds.is_empty())
            .expect("seeded read");
        // Anchor at an absurd distance limit of zero: nothing qualifies
        // except seeds at the anchor itself.
        let params = RescueParams { max_fragment: 0, rescue_hit_cap: 1024 };
        let far_anchor = GraphPos::new(r2.seeds[0].pos.handle, r2.seeds[0].pos.offset);
        let rescued = rescue_mate(
            &mapper,
            &input.minimizer_index,
            &mut cache,
            0,
            &ReadInput { bases: r2.bases.clone(), seeds: Vec::new() },
            far_anchor,
            &options,
            &params,
            &NullSink,
            0,
            &mut NoProbe,
            &mut MapScratch::default(),
        );
        // With limit 0 only the anchor position itself qualifies; a result,
        // if any, must start exactly there.
        if let Some(result) = rescued {
            for e in &result.extensions {
                assert_eq!(e.path.first(), Some(&far_anchor.handle));
            }
        }
    }
}
