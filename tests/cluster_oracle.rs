//! `cluster_seeds` against a naive reference: sort the seeds by linearized
//! position, test every seed against its next `neighbor_window` neighbours
//! with the distance index — every pair, no shortcut for pairs already
//! joined, no prefilter — take connected components, score them. The kernel
//! must return the same `Vec<Cluster>` (members, scores, order),
//! reusing one scratch across reads; so every case also proves the kernel's
//! `maybe_within` prefilter never drops a pair within the limit.

use minigiraffe::core::{cluster_seeds_with_scratch, Cluster, ClusterParams, ClusterScratch, Seed};
use minigiraffe::graph::pangenome::{PangenomeBuilder, Variant};
use minigiraffe::graph::{Handle, NodeId, VariationGraph};
use minigiraffe::index::{DistanceIndex, DistanceScratch, GraphPos};
use minigiraffe::support::probe::NoProbe;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BASES: &[u8; 4] = b"ACGT";

fn reference(
    graph: &VariationGraph,
    dist: &DistanceIndex,
    seeds: &[Seed],
    params: &ClusterParams,
) -> Vec<Cluster> {
    let mut order: Vec<usize> = (0..seeds.len()).collect();
    order.sort_by_key(|&i| {
        let s = &seeds[i];
        let node = s.pos.handle.node();
        (
            dist.component(node),
            dist.approx_position(node).saturating_add(u64::from(s.pos.offset)),
            s.pos.handle.packed(),
            s.read_offset,
            i,
        )
    });
    let limit = params.distance_limit;
    let mut scratch = DistanceScratch::default();
    let mut close = |a: GraphPos, b: GraphPos| {
        if a.handle == b.handle && u64::from(a.offset.abs_diff(b.offset)) <= limit {
            return true;
        }
        dist.min_undirected_distance_with(graph, a, b, limit, &mut scratch)
            .is_some_and(|d| d <= limit)
    };
    // Component label per seed: the smallest index it is joined to.
    let mut label: Vec<usize> = (0..seeds.len()).collect();
    for (rank, &i) in order.iter().enumerate() {
        for &j in order.iter().skip(rank + 1).take(params.neighbor_window) {
            if close(seeds[i].pos, seeds[j].pos) {
                let (lo, hi) = (label[i].min(label[j]), label[i].max(label[j]));
                for l in label.iter_mut().filter(|l| **l == hi) {
                    *l = lo;
                }
            }
        }
    }
    let mut clusters: Vec<Cluster> = (0..seeds.len())
        .filter(|&root| label[root] == root)
        .map(|root| {
            let members: Vec<usize> = (0..seeds.len()).filter(|&i| label[i] == root).collect();
            let mut offsets: Vec<u32> = members.iter().map(|&i| seeds[i].read_offset).collect();
            offsets.sort_unstable();
            offsets.dedup();
            Cluster { seeds: members, score: offsets.len() as f64 }
        })
        .collect();
    clusters.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap().then(a.seeds[0].cmp(&b.seeds[0])));
    clusters
}

/// A random pangenome and, per case, seeds in a few clumps (so chains form
/// and break at the distance limit), exact duplicates, both strands, and
/// noise anywhere in the graph.
fn check_case(case_seed: u64, scratch: &mut ClusterScratch) {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let pangenome = loop {
        let len = rng.random_range(200usize..1500);
        let reference: Vec<u8> = (0..len).map(|_| BASES[rng.random_range(0usize..4)]).collect();
        let mut variants = Vec::new();
        let mut pos = 0usize;
        loop {
            pos += rng.random_range(5usize..80);
            if pos + 8 >= len {
                break;
            }
            variants.push(match rng.random_range(0u32..4) {
                0 => Variant::insertion(pos, vec![b'A'; rng.random_range(1usize..9)]),
                1 => Variant::deletion(pos, rng.random_range(1usize..5)),
                _ => Variant::snp(pos, BASES[rng.random_range(0usize..4)]),
            });
        }
        let haplotypes: Vec<Vec<usize>> = (0..rng.random_range(1usize..4))
            .map(|_| variants.iter().map(|_| rng.random_range(0usize..2)).collect())
            .collect();
        let built = PangenomeBuilder::new(reference)
            .variants(variants)
            .haplotypes(haplotypes)
            .max_node_len(rng.random_range(4usize..40))
            .build();
        if let Ok(p) = built {
            break p;
        }
    };
    let graph = pangenome.graph();
    let dist = DistanceIndex::build(graph);
    let nodes = graph.node_count() as u64;
    for _ in 0..4 {
        let read_len = rng.random_range(30u32..260);
        let mut seeds: Vec<Seed> = Vec::new();
        for _ in 0..rng.random_range(0usize..5) {
            // A clump: seeds on a run of neighbouring node ids.
            let first = rng.random_range(1..=nodes);
            let reverse = rng.random_bool(0.3);
            for _ in 0..rng.random_range(1usize..12) {
                let node = NodeId::new((first + rng.random_range(0u64..12)).min(nodes));
                let handle = if reverse { Handle::reverse(node) } else { Handle::forward(node) };
                let offset = rng.random_range(0..graph.node_len(node)) as u32;
                seeds.push(Seed::new(rng.random_range(0..read_len), GraphPos::new(handle, offset)));
            }
        }
        for _ in 0..rng.random_range(0usize..4) {
            let node = NodeId::new(rng.random_range(1..=nodes));
            let handle = if rng.random_bool(0.5) { Handle::reverse(node) } else { Handle::forward(node) };
            let offset = rng.random_range(0..graph.node_len(node)) as u32;
            seeds.push(Seed::new(rng.random_range(0..read_len), GraphPos::new(handle, offset)));
        }
        for _ in 0..rng.random_range(0usize..4) {
            if !seeds.is_empty() {
                let dup = seeds[rng.random_range(0..seeds.len())];
                seeds.push(dup);
            }
        }
        let params = ClusterParams {
            distance_limit: rng.random_range(0u64..300),
            neighbor_window: rng.random_range(1usize..14),
        };
        let got = cluster_seeds_with_scratch(graph, &dist, &seeds, read_len, &params, &mut NoProbe, scratch);
        let want = reference(graph, &dist, &seeds, &params);
        assert_eq!(got, want, "case {case_seed} params {params:?} seeds {seeds:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn kernel_equals_naive_neighbour_sweep(case_seed in 0u64..1_000_000) {
        check_case(case_seed, &mut ClusterScratch::default());
    }
}

/// One scratch across many reads of many graphs: nothing of one read's
/// order, forest or component list may leak into the next.
#[test]
fn one_scratch_serves_every_read() {
    let mut scratch = ClusterScratch::default();
    for case_seed in 0..60 {
        check_case(0xC1u64 << 32 | case_seed, &mut scratch);
    }
}
