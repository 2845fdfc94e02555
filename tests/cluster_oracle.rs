//! `cluster_seeds` against two naive references, both at the kernel's limit
//! `max(distance_limit, read_len)` and both with distances from the bounded
//! Dijkstra in both directions, not from the node records the kernel asks.
//!
//! - The windowed reference sorts the seeds by linearized position and
//!   tests every seed against its next `NEIGHBOR_WINDOW` neighbours — every
//!   pair, no shortcut for pairs already joined, no cut at a component's
//!   end — then takes connected components and scores them. On random
//!   pangenomes the kernel must return the same `Vec<Cluster>` (members,
//!   scores, order), reusing one scratch across reads.
//! - The all-pairs reference is single linkage over every pair of seeds. On
//!   simulated reads of the B-yeast and D-HPRC shapes the kernel must equal
//!   it on every read: there the window changes no cluster.

use minigiraffe::core::cluster::NEIGHBOR_WINDOW;
use minigiraffe::core::types::Workflow;
use minigiraffe::core::{cluster_seeds_with_scratch, Cluster, ClusterParams, ClusterScratch, Seed};
use minigiraffe::graph::pangenome::{PangenomeBuilder, Variant};
use minigiraffe::graph::{Handle, NodeId, VariationGraph};
use minigiraffe::index::{DistanceIndex, DistanceScratch, GraphPos};
use minigiraffe::support::probe::NoProbe;
use minigiraffe::workload::{InputSetSpec, SyntheticInput};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BASES: &[u8; 4] = b"ACGT";

/// Whether seeds `i` and `j` are within the kernel's limit either way, by
/// the bounded Dijkstra.
struct Close<'a> {
    graph: &'a VariationGraph,
    dist: &'a DistanceIndex,
    seeds: &'a [Seed],
    limit: u64,
    scratch: DistanceScratch,
}

impl<'a> Close<'a> {
    fn new(
        graph: &'a VariationGraph,
        dist: &'a DistanceIndex,
        seeds: &'a [Seed],
        read_len: u32,
        params: &ClusterParams,
    ) -> Self {
        let limit = params.distance_limit.max(u64::from(read_len));
        Close { graph, dist, seeds, limit, scratch: DistanceScratch::default() }
    }

    fn test(&mut self, i: usize, j: usize) -> bool {
        let (a, b) = (self.seeds[i].pos, self.seeds[j].pos);
        let Close { graph, dist, limit, scratch, .. } = self;
        dist.min_distance_dijkstra(graph, a, b, *limit, scratch).is_some()
            || dist.min_distance_dijkstra(graph, b, a, *limit, scratch).is_some()
    }
}

/// Puts `i` and `j` in one component: every seed is labelled with the
/// smallest index it is joined to.
fn join(label: &mut [usize], i: usize, j: usize) {
    let (lo, hi) = (label[i].min(label[j]), label[i].max(label[j]));
    for l in label.iter_mut().filter(|l| **l == hi) {
        *l = lo;
    }
}

/// The labelled components, scored by distinct read offsets and ordered as
/// the kernel orders its clusters.
fn clusters_of(seeds: &[Seed], label: &[usize]) -> Vec<Cluster> {
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

/// Every seed against its next `NEIGHBOR_WINDOW` seeds in the position
/// sort, component and sort offset read from each node's record.
fn windowed_reference(
    graph: &VariationGraph,
    dist: &DistanceIndex,
    seeds: &[Seed],
    read_len: u32,
    params: &ClusterParams,
) -> Vec<Cluster> {
    let mut order: Vec<usize> = (0..seeds.len()).collect();
    order.sort_by_key(|&i| {
        let s = &seeds[i];
        let node = dist.node(s.pos.handle.node());
        (
            node.component,
            u64::from(node.offset_min).saturating_add(u64::from(s.pos.offset)),
            s.pos.handle.packed(),
            s.read_offset,
            i,
        )
    });
    let mut close = Close::new(graph, dist, seeds, read_len, params);
    let mut label: Vec<usize> = (0..seeds.len()).collect();
    for (rank, &i) in order.iter().enumerate() {
        for &j in order.iter().skip(rank + 1).take(NEIGHBOR_WINDOW) {
            if close.test(i, j) {
                join(&mut label, i, j);
            }
        }
    }
    clusters_of(seeds, &label)
}

/// Single linkage over every pair of seeds. A pair already in one
/// component is not asked: its answer could not change the components.
fn all_pairs_reference(
    graph: &VariationGraph,
    dist: &DistanceIndex,
    seeds: &[Seed],
    read_len: u32,
    params: &ClusterParams,
) -> Vec<Cluster> {
    let mut close = Close::new(graph, dist, seeds, read_len, params);
    let mut label: Vec<usize> = (0..seeds.len()).collect();
    for i in 0..seeds.len() {
        for j in i + 1..seeds.len() {
            if label[i] != label[j] && close.test(i, j) {
                join(&mut label, i, j);
            }
        }
    }
    clusters_of(seeds, &label)
}

/// A random pangenome and, per case, seeds in a few clumps (so chains form
/// and break at the distance limit), exact duplicates, both strands, and
/// noise anywhere in the graph. Returns how many of its reads have seeds
/// that all fit in one window, and how many do not.
fn check_case(case_seed: u64, scratch: &mut ClusterScratch) -> [usize; 2] {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let mut counts = [0; 2];
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
        let params = ClusterParams { distance_limit: rng.random_range(0u64..300) };
        let got = cluster_seeds_with_scratch(graph, &dist, &seeds, read_len, &params, &mut NoProbe, scratch);
        let want = windowed_reference(graph, &dist, &seeds, read_len, &params);
        assert_eq!(got, want, "case {case_seed} read {read_len} bp, {params:?}, seeds {seeds:?}");
        counts[usize::from(seeds.len() > NEIGHBOR_WINDOW + 1)] += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn kernel_equals_naive_neighbour_sweep(case_seed in 0u64..1_000_000) {
        check_case(case_seed, &mut ClusterScratch::default());
    }
}

/// One scratch across many reads of many graphs: nothing of one read's
/// order, forest or component list may leak into the next. The reads fall
/// on both sides of the window: some have no more seeds than one window
/// covers, some have more.
#[test]
fn one_scratch_serves_every_read() {
    let mut scratch = ClusterScratch::default();
    let mut counts = [0; 2];
    for case_seed in 0..60 {
        let [within, beyond] = check_case(0xC1u64 << 32 | case_seed, &mut scratch);
        counts[0] += within;
        counts[1] += beyond;
    }
    assert!(counts[0] > 0 && counts[1] > 0, "reads within / beyond one window: {counts:?}");
}

/// The window changes nothing on the workload shapes: on simulated
/// single-end reads of B-yeast (150 bp) and D-HPRC (148 bp), seed 42, the
/// kernel at the mapper's default parameters equals single linkage over
/// every pair on every read, and some of those reads have two clusters or
/// more, so the equality is not vacuous.
#[test]
fn kernel_equals_all_pairs_on_the_workload_shapes() {
    let params = ClusterParams::default();
    for mut spec in [InputSetSpec::b_yeast(), InputSetSpec::d_hprc()] {
        spec.workflow = Workflow::Single;
        spec.reads = 4_000;
        let input = SyntheticInput::generate(&spec, 42);
        let graph = input.gbz.graph();
        let dist = DistanceIndex::build(graph);
        let mut scratch = ClusterScratch::default();
        let mut split = 0;
        for (id, read) in input.dump.reads.iter().enumerate() {
            let read_len = read.bases.len() as u32;
            let got = cluster_seeds_with_scratch(
                graph, &dist, &read.seeds, read_len, &params, &mut NoProbe, &mut scratch,
            );
            let want = all_pairs_reference(graph, &dist, &read.seeds, read_len, &params);
            assert_eq!(got, want, "{} read {id}", spec.name);
            split += usize::from(got.len() >= 2);
        }
        assert!(split > 0, "{}: no read has two clusters", spec.name);
    }
}
