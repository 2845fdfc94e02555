//! Property tests: the pooled, scratch-reusing parallel pipeline is
//! observationally identical to a straight-line reference that maps each
//! read independently with throwaway state.
//!
//! This is the safety net under the zero-allocation kernels and the
//! persistent worker pool: whatever dump the generator produces and however
//! the scheduler slices it, `Mapper::run` must return byte-identical
//! `ReadResult`s in input order.

use mg_core::dump::SeedDump;
use mg_core::types::{ReadInput, Seed, Workflow};
use mg_core::{Mapper, MappingOptions};
use mg_gbwt::{CachedGbwt, Gbz};
use mg_graph::pangenome::{PangenomeBuilder, Variant};
use mg_graph::{Handle, NodeId};
use mg_index::GraphPos;
use mg_sched::SchedulerKind;
use mg_support::probe::NoProbe;
use proptest::prelude::*;

fn sample_gbz() -> Gbz {
    let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTTACGTACGTAACCGGTT".to_vec())
        .variants(vec![Variant::snp(6, b'T'), Variant::deletion(20, 2)])
        .haplotypes(vec![vec![0, 0], vec![1, 0], vec![0, 1]])
        .max_node_len(5)
        .build()
        .unwrap();
    Gbz::from_pangenome(p).unwrap()
}

/// One generated read: bases, and `(read offset, node, backward, node offset)` per seed.
type RawRead = (Vec<u8>, Vec<(u32, u64, bool, u32)>);

/// Maps raw generated tuples onto in-bounds seeds for `gbz`'s graph.
fn build_dump(gbz: &Gbz, raw: Vec<RawRead>) -> SeedDump {
    let node_count = gbz.graph().node_count() as u64;
    let reads = raw
        .into_iter()
        .map(|(bases, raw_seeds)| {
            let seeds = raw_seeds
                .into_iter()
                .filter(|_| !bases.is_empty())
                .map(|(read_offset, node, backward, node_offset)| {
                    let id = NodeId::new(1 + node % node_count);
                    let handle = if backward {
                        Handle::reverse(id)
                    } else {
                        Handle::forward(id)
                    };
                    let len = gbz.graph().node_len(id) as u32;
                    Seed::new(
                        read_offset % bases.len() as u32,
                        GraphPos::new(handle, node_offset % len.max(1)),
                    )
                })
                .collect();
            ReadInput { bases, seeds }
        })
        .collect();
    SeedDump::new(Workflow::Single, reads)
}

/// The straight-line reference: every read mapped on the calling thread
/// with a fresh cache and fresh (internal) scratch — no scheduler, no pool,
/// no reuse of any kind.
fn reference_results(mapper: &Mapper<'_>, gbz: &Gbz, dump: &SeedDump, options: &MappingOptions) -> Vec<mg_core::ReadResult> {
    dump.reads
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let mut cache = CachedGbwt::new(gbz.gbwt(), options.cache_capacity);
            mapper.map_read(&mut cache, i as u64, input, options, &mut NoProbe)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn pooled_runs_match_straight_line_reference(
        raw in proptest::collection::vec(
            (
                proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 4..24),
                proptest::collection::vec(
                    (0u32..24, 0u64..64, any::<bool>(), 0u32..8),
                    0..5,
                ),
            ),
            0..12,
        ),
    ) {
        let gbz = sample_gbz();
        let dump = build_dump(&gbz, raw);
        let mapper = Mapper::new(&gbz);
        let options = MappingOptions { batch_size: 3, ..Default::default() };
        let expected = reference_results(&mapper, &gbz, &dump, &options);
        // One mapper across every configuration: each run after the first
        // re-enters the persistent pool with warm caches and used scratch.
        for kind in SchedulerKind::ALL {
            for threads in [1usize, 2, 8] {
                let options = MappingOptions {
                    threads,
                    scheduler: kind,
                    ..options.clone()
                };
                let got = mapper.run(&dump, &options);
                prop_assert_eq!(
                    &got.per_read,
                    &expected,
                    "scheduler {} with {} threads diverged from reference",
                    kind,
                    threads
                );
            }
        }
    }
}
