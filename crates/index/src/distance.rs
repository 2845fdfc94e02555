//! Distance index: minimum graph distances between positions.
//!
//! Giraffe's clustering stage groups seeds whose minimum graph distance is
//! small. The real tool uses a snarl-tree distance index; we substitute a
//! two-tier oracle with the same interface and complexity profile:
//!
//! 1. the chain decomposition ([`ChainIndex`]), whose per-node records
//!    answer "different component" and most exact distances on bubble
//!    chains in O(1); and
//! 2. an exact bounded Dijkstra over node lengths for everything else —
//!    cheap because clustering limits are a few hundred bases and pangenome
//!    nodes are short.

use std::collections::{BinaryHeap, HashMap};

use mg_graph::{Handle, NodeId, VariationGraph};
use mg_support::mgi::{MgiFile, MgiWriter};
use mg_support::Result;

use crate::minimizer::GraphPos;
use crate::snarl::{ChainAnswer, ChainIndex, NodeRecord};

/// Reusable buffers for the bounded Dijkstra behind
/// [`DistanceIndex::min_undirected_distance_with_records`]; one per
/// thread/kernel invocation keeps the per-query allocations off the
/// clustering hot path.
#[derive(Debug, Default)]
pub struct DistanceScratch {
    dist: HashMap<Handle, u64>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
}

/// The distance index: per-node records and the chain decomposition
/// ([`ChainIndex`]), plus the exact search behind them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceIndex {
    /// Snarl-lite chain decomposition and the per-node records: the O(1)
    /// fast path for exact distances on bubble chains (the architecture of
    /// Giraffe's real distance index).
    chains: ChainIndex,
}

impl DistanceIndex {
    /// Preprocesses `graph`.
    pub fn build(graph: &VariationGraph) -> Self {
        DistanceIndex { chains: ChainIndex::build(graph) }
    }

    /// Appends the index to a `.mgi` container in its in-memory layout.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        self.chains.write_mgi(w);
    }

    /// Loads an index from a `.mgi` container.
    ///
    /// # Errors
    ///
    /// Returns [`mg_support::Error::Corrupt`] when any structural invariant
    /// fails.
    pub fn from_mgi(f: &mut MgiFile) -> Result<Self> {
        Ok(DistanceIndex { chains: ChainIndex::from_mgi(f)? })
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.chains.nodes().len()
    }

    /// The record of `node`: its component, sort offset, length and chain
    /// coordinates in one read.
    #[inline]
    pub fn node(&self, node: NodeId) -> &NodeRecord {
        self.chains.node(node)
    }

    /// The exact bounded Dijkstra from `a` to `b`, walking forward along
    /// `a.handle`, bypassing the chain fast path: the number of bases
    /// advanced from position `a` to reach position `b` (0 when they are
    /// the same position), or `None` if `b` is unreachable within `limit`.
    /// This is the independent oracle the chain decomposition and the pair
    /// check are validated against.
    #[doc(hidden)]
    pub fn min_distance_dijkstra(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
        scratch: &mut DistanceScratch,
    ) -> Option<u64> {
        if self.node(a.handle.node()).component != self.node(b.handle.node()).component {
            return None;
        }
        // Same handle, b ahead of a: direct.
        let mut best: Option<u64> = None;
        if a.handle == b.handle && b.offset >= a.offset {
            best = Some((b.offset - a.offset) as u64);
        }
        // Dijkstra over handles: dist[h] = bases from position a to the
        // *start* of handle h.
        let a_len = graph.node_len(a.handle.node()) as u64;
        // Bases from a to a.handle's end; from an offset past the end no
        // edge is taken.
        let to_end = a_len.checked_sub(u64::from(a.offset));
        scratch.dist.clear();
        scratch.heap.clear();
        let dist = &mut scratch.dist;
        let heap = &mut scratch.heap;
        for &next in graph.successors(a.handle) {
            if let Some(to_end) = to_end.filter(|&d| d <= limit) {
                let entry = dist.entry(next).or_insert(u64::MAX);
                if to_end < *entry {
                    *entry = to_end;
                    heap.push(std::cmp::Reverse((to_end, next.packed())));
                }
            }
        }
        while let Some(std::cmp::Reverse((d, packed))) = heap.pop() {
            let h = Handle::from_gbwt(packed).expect("valid handle");
            if dist.get(&h) != Some(&d) {
                continue;
            }
            if h == b.handle {
                let candidate = d + b.offset as u64;
                if candidate <= limit {
                    best = Some(best.map_or(candidate, |x| x.min(candidate)));
                }
                // A shorter path elsewhere is impossible once popped.
            }
            let len = graph.node_len(h.node()) as u64;
            let nd = d + len;
            if nd > limit {
                continue;
            }
            for &next in graph.successors(h) {
                let entry = dist.entry(next).or_insert(u64::MAX);
                if nd < *entry {
                    *entry = nd;
                    heap.push(std::cmp::Reverse((nd, next.packed())));
                }
            }
        }
        best.filter(|&d| d <= limit)
    }

    /// Minimum distance in either direction (`a` to `b` or `b` to `a`),
    /// capped at `limit`: [`DistanceIndex::min_undirected_distance_with_records`]
    /// with the two nodes' records looked up.
    pub fn min_undirected_distance(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
    ) -> Option<u64> {
        let (ra, rb) = (self.node(a.handle.node()), self.node(b.handle.node()));
        self.min_undirected_distance_with_records(
            graph,
            a,
            ra,
            b,
            rb,
            limit,
            &mut DistanceScratch::default(),
        )
    }

    /// Minimum distance in either direction, capped at `limit`, for a
    /// caller that already holds both nodes' records: `ra` must be the
    /// record of `a`'s node and `rb` that of `b`'s, as
    /// [`DistanceIndex::node`] returns them.
    /// Both directions are answered from the two records; only a direction
    /// the chains cannot answer runs the bounded search. A component the
    /// chains answer in is acyclic, so when they give a distance from `a` to
    /// `b`, no path leads back from `b` to `a` (but for the same position,
    /// at distance 0 both ways) and the other direction is not asked.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn min_undirected_distance_with_records(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        ra: &NodeRecord,
        b: GraphPos,
        rb: &NodeRecord,
        limit: u64,
        scratch: &mut DistanceScratch,
    ) -> Option<u64> {
        if ra.component != rb.component {
            return None;
        }
        let forward = match self.chains.exact_distance_between(a, ra, b, rb) {
            ChainAnswer::Distance(d) => return (d <= limit).then_some(d),
            ChainAnswer::Unreachable => None,
            ChainAnswer::Unanswerable => self.min_distance_dijkstra(graph, a, b, limit, scratch),
        };
        let backward = match self.chains.exact_distance_between(b, rb, a, ra) {
            ChainAnswer::Distance(d) => (d <= limit).then_some(d),
            ChainAnswer::Unreachable => None,
            ChainAnswer::Unanswerable => self.min_distance_dijkstra(graph, b, a, limit, scratch),
        };
        nearer(forward, backward)
    }
}

/// The nearer of two directed distances, either of which may not exist.
fn nearer(forward: Option<u64>, backward: Option<u64>) -> Option<u64> {
    match (forward, backward) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) | (None, x) => x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use mg_graph::Orientation;

    fn bubble() -> (mg_graph::Pangenome, DistanceIndex) {
        // AAAA [C|GG] TTTT : a SNP-ish bubble with unequal allele lengths.
        let p = PangenomeBuilder::new(b"AAAACTTTT".to_vec())
            .variants(vec![Variant {
                position: 4,
                ref_len: 1,
                alt_alleles: vec![b"GG".to_vec()],
            }])
            .haplotypes(vec![vec![0], vec![1]])
            .max_node_len(4)
            .build()
            .unwrap();
        let d = DistanceIndex::build(p.graph());
        (p, d)
    }

    fn pos(_p: &mg_graph::Pangenome, node: u64, orient: Orientation, off: u32) -> GraphPos {
        GraphPos::new(Handle::new(NodeId::new(node), orient), off)
    }

    /// The directed distance from `a` to `b` within `limit`, by the bounded
    /// Dijkstra; where the chains answer, their answer must agree.
    fn directed(
        d: &DistanceIndex,
        g: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
    ) -> Option<u64> {
        let exact = d.min_distance_dijkstra(g, a, b, limit, &mut DistanceScratch::default());
        let chains = match d.chains.exact_distance(a, b) {
            ChainAnswer::Distance(x) => (x <= limit).then_some(x),
            ChainAnswer::Unreachable => None,
            ChainAnswer::Unanswerable => exact,
        };
        assert_eq!(chains, exact, "{a:?} -> {b:?} within {limit}");
        exact
    }

    /// The undirected distance by the bounded Dijkstra, both ways.
    fn undirected(
        d: &DistanceIndex,
        g: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
    ) -> Option<u64> {
        let mut scratch = DistanceScratch::default();
        nearer(
            d.min_distance_dijkstra(g, a, b, limit, &mut scratch),
            d.min_distance_dijkstra(g, b, a, limit, &mut scratch),
        )
    }

    #[test]
    fn single_component() {
        let (_, d) = bubble();
        assert_eq!(d.chains.component_count(), 1);
    }

    #[test]
    fn same_node_distances() {
        let (p, d) = bubble();
        let a = pos(&p, 1, Orientation::Forward, 0);
        let b = pos(&p, 1, Orientation::Forward, 3);
        assert_eq!(directed(&d, p.graph(), a, b, 100), Some(3));
        assert_eq!(directed(&d, p.graph(), a, a, 100), Some(0));
        // Backwards on the same handle requires going around: impossible in
        // a DAG.
        assert_eq!(directed(&d, p.graph(), b, a, 100), None);
    }

    #[test]
    fn distance_across_bubble_takes_shorter_allele() {
        let (p, d) = bubble();
        // Node 1 = AAAA, node 2 = C (ref allele), node 3 = GG (alt),
        // node 4 = TTTT.
        assert_eq!(p.graph().node_count(), 4);
        let a = pos(&p, 1, Orientation::Forward, 0);
        let end = pos(&p, 4, Orientation::Forward, 0);
        // Through C: 4 + 1 = 5; through GG: 4 + 2 = 6.
        assert_eq!(directed(&d, p.graph(), a, end, 100), Some(5));
    }

    #[test]
    fn limit_cuts_search() {
        let (p, d) = bubble();
        let a = pos(&p, 1, Orientation::Forward, 0);
        let end = pos(&p, 4, Orientation::Forward, 3);
        assert_eq!(directed(&d, p.graph(), a, end, 100), Some(8));
        assert_eq!(directed(&d, p.graph(), a, end, 7), None);
        assert_eq!(directed(&d, p.graph(), a, end, 8), Some(8));
    }

    #[test]
    fn reverse_orientation_walk() {
        let (p, d) = bubble();
        // Walk from 4- (reverse) back toward 1-.
        let a = pos(&p, 4, Orientation::Reverse, 0);
        let b = pos(&p, 1, Orientation::Reverse, 0);
        // 4 bases of node 4, then 1 base of C: start of node 1 reverse = 5.
        assert_eq!(directed(&d, p.graph(), a, b, 100), Some(5));
    }

    #[test]
    fn disconnected_components() {
        let mut g = VariationGraph::new();
        let a = g.add_node(b"ACGT").unwrap();
        let b = g.add_node(b"TTTT").unwrap();
        let d = DistanceIndex::build(&g);
        assert_eq!(d.chains.component_count(), 2);
        let pa = GraphPos::new(Handle::forward(a), 0);
        let pb = GraphPos::new(Handle::forward(b), 0);
        assert_ne!(d.node(a).component, d.node(b).component);
        assert_eq!(directed(&d, &g, pa, pb, 1_000_000), None);
        assert_eq!(d.min_undirected_distance(&g, pa, pb, 1_000_000), None);
    }

    #[test]
    fn undirected_takes_min_of_directions() {
        let (p, d) = bubble();
        let a = pos(&p, 1, Orientation::Forward, 2);
        let b = pos(&p, 4, Orientation::Forward, 1);
        let fwd = directed(&d, p.graph(), a, b, 100);
        assert_eq!(directed(&d, p.graph(), b, a, 100), None);
        let both = d.min_undirected_distance(p.graph(), a, b, 100);
        assert_eq!(fwd, both);
        assert_eq!(d.min_undirected_distance(p.graph(), b, a, 100), both);
    }

    #[test]
    fn cyclic_component_detected() {
        let mut g = VariationGraph::new();
        let a = g.add_node(b"AC").unwrap();
        let b = g.add_node(b"GT").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(b), Handle::forward(a));
        let d = DistanceIndex::build(&g);
        let pa = GraphPos::new(Handle::forward(a), 0);
        let pb = GraphPos::new(Handle::forward(b), 0);
        assert_eq!(d.node(a).component, d.node(b).component);
        assert_eq!(d.chains.chain_count(), 0, "no chain through a cycle");
        // Distance still exact: a->b = 2 bases.
        assert_eq!(directed(&d, &g, pa, pb, 100), Some(2));
        // And b -> a around the cycle = 2.
        assert_eq!(directed(&d, &g, pb, pa, 100), Some(2));
        // Same-position distance around the cycle stays 0 (not 4).
        assert_eq!(directed(&d, &g, pa, pa, 100), Some(0));
    }

    #[test]
    fn mgi_roundtrip_preserves_distances() {
        let (p, d) = bubble();
        let mut w = MgiWriter::new();
        d.write_mgi(&mut w);
        let back = DistanceIndex::from_mgi(&mut MgiFile::open_bytes(w.finish()).unwrap()).unwrap();
        assert_eq!(back, d);
        let g = p.graph();
        for u in g.node_ids() {
            assert_eq!(back.node(u), d.node(u));
            for v in g.node_ids() {
                let a = GraphPos::new(Handle::forward(u), 0);
                let b = GraphPos::new(Handle::forward(v), 0);
                assert_eq!(
                    back.min_undirected_distance(g, a, b, 1000),
                    d.min_undirected_distance(g, a, b, 1000)
                );
            }
        }
        assert_eq!(back.chains.chain_count(), d.chains.chain_count());
    }

    #[test]
    fn long_chain_distance_matches_offsets() {
        let p = PangenomeBuilder::new(vec![b'A'; 200])
            .haplotypes(vec![vec![]])
            .max_node_len(9)
            .build()
            .unwrap();
        let d = DistanceIndex::build(p.graph());
        let a = GraphPos::new(Handle::forward(NodeId::new(1)), 3);
        let last = p.graph().max_node_id().unwrap();
        let b = GraphPos::new(Handle::forward(last), 0);
        // 200 bases total; last node starts at 198 (22 nodes of 9, last 2).
        let expect = 198 - 3;
        assert_eq!(directed(&d, p.graph(), a, b, 1000), Some(expect));
    }

    /// A random pangenome from `seed`: SNPs, insertions, deletions and
    /// two-allele sites, some adjacent, on short nodes.
    fn random_pangenome(seed: u64) -> mg_graph::Pangenome {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        let base = |x: u64| b"ACGT"[x as usize];
        let reference: Vec<u8> = (0..140).map(|_| base(next(4))).collect();
        let mut variants = Vec::new();
        let mut at = 1 + next(5) as usize;
        while at + 6 < reference.len() {
            let v = match next(4) {
                0 => Variant::snp(at, base(next(4))),
                1 => Variant::insertion(at, (0..1 + next(4)).map(|_| base(next(4))).collect()),
                2 => Variant::deletion(at, 1 + next(3) as usize),
                _ => Variant {
                    position: at,
                    ref_len: 1 + next(2) as usize,
                    alt_alleles: vec![vec![base(next(4)); 3], Vec::new()],
                },
            };
            at = v.ref_end().max(v.position + 1) + 1 + next(6) as usize;
            variants.push(v);
        }
        let haplotypes = (0..2 + next(2))
            .map(|_| variants.iter().map(|v| next(1 + v.alt_alleles.len() as u64) as usize).collect())
            .collect();
        PangenomeBuilder::new(reference)
            .variants(variants)
            .haplotypes(haplotypes)
            .max_node_len(3 + next(5) as usize)
            .build()
            .unwrap()
    }

    /// A random graph the chains cannot answer in: a few short nodes and
    /// random edges between random strands, so cycles and inversions occur.
    fn random_tangle(seed: u64) -> VariationGraph {
        let mut s = seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
        let mut next = move |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        let mut g = VariationGraph::new();
        let nodes: Vec<NodeId> = (0..3 + next(6))
            .map(|_| {
                let seq: Vec<u8> = (0..1 + next(5)).map(|_| b"ACGT"[next(4) as usize]).collect();
                g.add_node(&seq).unwrap()
            })
            .collect();
        let strand = |x: u64| if x == 0 { Orientation::Forward } else { Orientation::Reverse };
        for _ in 0..2 * nodes.len() {
            let from = Handle::new(nodes[next(nodes.len() as u64) as usize], strand(next(2)));
            let to = Handle::new(nodes[next(nodes.len() as u64) as usize], strand(next(2)));
            g.add_edge(from, to);
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

        /// The pair check, from held records and from looked-up ones,
        /// against the bounded Dijkstra in both directions: random pairs on
        /// random pangenomes and on random tangles (cycles and inversions,
        /// which the chains cannot answer), one node or two, all four
        /// orientation pairs, at offsets inside a node, at its last base, at
        /// its end and past it, under random limits.
        #[test]
        fn prop_pair_check_from_records_equals_the_lookup(seed in 0u64..1_000_000) {
            let pangenome = random_pangenome(seed);
            let tangle = random_tangle(seed);
            let mut answerable = 0usize;
            let mut unanswerable = 0usize;
            for g in [pangenome.graph(), &tangle] {
                let d = DistanceIndex::build(g);
                let mut scratch = DistanceScratch::default();
                let mut pick = seed;
                let n = g.node_count() as u64;
                for pair in 0..24 {
                    pick = pick.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    let u = 1 + (pick >> 33) % n;
                    let v = match pair % 3 {
                        0 => u,
                        1 => (u + (pick >> 13) % 6).min(n),
                        _ => 1 + (pick >> 13) % n,
                    };
                    let (u, v) = (NodeId::new(u), NodeId::new(v));
                    let limit = (pick >> 40) % 80;
                    let offsets = |node: NodeId| {
                        let len = g.node_len(node) as u32;
                        [0, len / 2, len - 1, len, len + 1]
                    };
                    for (ou, ov) in [
                        (Orientation::Forward, Orientation::Forward),
                        (Orientation::Reverse, Orientation::Reverse),
                        (Orientation::Forward, Orientation::Reverse),
                        (Orientation::Reverse, Orientation::Forward),
                    ] {
                        for au in offsets(u) {
                            for bv in offsets(v) {
                                let a = GraphPos::new(Handle::new(u, ou), au);
                                let b = GraphPos::new(Handle::new(v, ov), bv);
                                match d.chains.exact_distance(a, b) {
                                    ChainAnswer::Unanswerable => unanswerable += 1,
                                    _ => answerable += 1,
                                }
                                let want = undirected(&d, g, a, b, limit);
                                proptest::prop_assert_eq!(
                                    d.min_undirected_distance_with_records(
                                        g, a, d.node(u), b, d.node(v), limit, &mut scratch,
                                    ),
                                    want,
                                    "{:?} - {:?} within {}", a, b, limit
                                );
                                proptest::prop_assert_eq!(
                                    d.min_undirected_distance(g, a, b, limit),
                                    want,
                                    "{:?} - {:?} within {}", a, b, limit
                                );
                            }
                        }
                    }
                }
            }
            proptest::prop_assert!(answerable > 0 && unanswerable > 0);
        }

        /// The chain fast path against the bounded Dijkstra on random
        /// pangenomes with SNPs and indels: sampled node pairs, every
        /// offset of both nodes, all four orientation pairs. Wherever the
        /// decomposition answers it must be exact, and the pair check must
        /// equal the Dijkstra both ways at every limit.
        #[test]
        fn prop_chain_fast_path_equals_dijkstra_at_every_offset(seed in 0u64..1_000_000) {
            let p = random_pangenome(seed);
            let g = p.graph();
            let d = DistanceIndex::build(g);
            proptest::prop_assert!(d.chains.chain_count() > 0);
            let mut scratch = DistanceScratch::default();
            let mut pick = seed;
            let n = g.node_count() as u64;
            let mut answered = 0usize;
            for pair in 0..24 {
                pick = pick.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                // Half the pairs are near in id order (as seeds of one read
                // are), half anywhere.
                let u = 1 + (pick >> 33) % n;
                let v = if pair % 2 == 0 { (u + (pick >> 13) % 6).min(n) } else { 1 + (pick >> 13) % n };
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                let limit = (pick >> 40) % 60;
                for (ou, ov) in [
                    (Orientation::Forward, Orientation::Forward),
                    (Orientation::Reverse, Orientation::Reverse),
                    (Orientation::Forward, Orientation::Reverse),
                    (Orientation::Reverse, Orientation::Forward),
                ] {
                    for au in 0..g.node_len(u) as u32 {
                        for bv in 0..g.node_len(v) as u32 {
                            let a = GraphPos::new(Handle::new(u, ou), au);
                            let b = GraphPos::new(Handle::new(v, ov), bv);
                            let truth = d.min_distance_dijkstra(g, a, b, 10_000, &mut scratch);
                            match d.chains.exact_distance(a, b) {
                                ChainAnswer::Distance(x) => {
                                    answered += 1;
                                    proptest::prop_assert_eq!(truth, Some(x), "{:?} -> {:?}", a, b);
                                }
                                ChainAnswer::Unreachable => {
                                    answered += 1;
                                    proptest::prop_assert_eq!(truth, None, "{:?} -> {:?}", a, b);
                                }
                                ChainAnswer::Unanswerable => {}
                            }
                            proptest::prop_assert_eq!(
                                d.min_undirected_distance(g, a, b, limit),
                                undirected(&d, g, a, b, limit),
                                "{:?} - {:?} within {}", a, b, limit
                            );
                        }
                    }
                }
            }
            proptest::prop_assert!(answered > 0, "the fast path never answered");
        }
    }
}
