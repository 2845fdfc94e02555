//! Snarl-lite chain decomposition: the build of the [`DistanceIndex`].
//!
//! Giraffe's real distance index is built on a snarl tree: the pangenome
//! decomposes into *chains* of anchors (cut nodes every path crosses)
//! separated by *snarls* (bubbles), and distances reduce to prefix sums
//! along the chain plus small per-node entry/exit distances. This module
//! builds that architecture for the DAG components our pangenomes are:
//!
//! - anchors are found with a one-pass topological sweep (a node is an
//!   anchor exactly when all dangling edges of the cut converge on it);
//! - each segment between consecutive anchors gets per-node shortest
//!   distances to its entry and exit anchors;
//! - chain prefix sums answer anchor-to-anchor minima.
//!
//! Everything a query asks of one node lands in one 32-byte [`NodeRecord`]
//! (component, sort offset, length, chain, entry/exit anchors and the
//! distances to them), so the query reads two records and two prefix sums. Cyclic or reverse-edge
//! components get no chain; their queries, cross-chain pairs and
//! same-segment pairs fall back to the bounded Dijkstra.
//!
//! Every pass over forward edges reads one array of forward indegrees,
//! counted once: the sort offsets, each component's topological order and
//! its anchor sweep.


use mg_graph::{Handle, NodeId, VariationGraph};

use crate::distance::{DistanceIndex, NodeRecord, NONE32};

const INF: u64 = u64::MAX;

/// A 64-bit distance in a 32-bit field: [`NONE32`] when it does not fit
/// (or is [`INF`]).
fn narrow(d: u64) -> u32 {
    u32::try_from(d).unwrap_or(NONE32)
}

impl DistanceIndex {
    /// Labels components, computes every node's sort offset, and decomposes
    /// `graph`. Components containing directed cycles or reverse-orientation
    /// edges get no chain (the exact search still covers them).
    pub fn build(graph: &VariationGraph) -> Self {
        let n = graph.node_count();
        let indegree = forward_indegrees(graph);
        let mut build = Build {
            chain_of: vec![NONE32; n],
            exit_idx: vec![NONE32; n],
            entry_idx: vec![NONE32; n],
            d_in: vec![INF; n],
            d_out: vec![INF; n],
            anchor_pos: vec![NONE32; n],
            unsorted_in: indegree.clone(),
            chain_starts: vec![0],
            anchors: Vec::new(),
            prefix_min: Vec::new(),
        };
        // Component labelling (undirected) + eligibility (no reverse
        // orientation edges).
        let mut component = vec![NONE32; n];
        let mut component_count = 0;
        let mut nodes = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if component[start] != NONE32 {
                continue;
            }
            let cid = component_count;
            component_count += 1;
            nodes.clear();
            nodes.push(start as u32);
            component[start] = cid;
            let mut eligible = true;
            stack.push(start);
            while let Some(u) = stack.pop() {
                let id = NodeId::new(u as u64 + 1);
                for h in [Handle::forward(id), Handle::reverse(id)] {
                    for &next in graph.successors(h) {
                        // A forward-only edge appears as fwd->fwd and its
                        // mirror rev->rev; an orientation mismatch means a
                        // real inversion edge, which the chain model cannot
                        // answer.
                        if h.orientation() != next.orientation() {
                            eligible = false;
                        }
                        let v = (next.node().value() - 1) as usize;
                        if component[v] == NONE32 {
                            component[v] = cid;
                            nodes.push(v as u32);
                            stack.push(v);
                        }
                    }
                }
            }
            if eligible {
                build.decompose_component(graph, &indegree, &nodes);
            }
        }
        let offset_min = offsets_from_sources(graph, &indegree);
        let nodes: Vec<NodeRecord> = (0..n)
            .map(|u| NodeRecord {
                component: component[u],
                offset_min: u32::try_from(offset_min[u]).unwrap_or(u32::MAX),
                len: u32::try_from(graph.node_len(NodeId::new(u as u64 + 1)))
                    .expect("node longer than a graph position can address"),
                chain: build.chain_of[u],
                entry: build.entry_idx[u],
                exit: build.exit_idx[u],
                d_in: narrow(build.d_in[u]),
                d_out: narrow(build.d_out[u]),
            })
            .collect();
        DistanceIndex {
            nodes,
            component_count,
            chain_starts: build.chain_starts,
            anchors: build.anchors,
            prefix_min: build.prefix_min,
        }
    }
}

/// The number of forward-to-forward edges into each node's forward
/// handle, indexed by `id - 1`. In a component with no reverse-orientation
/// edge that is every edge a forward walk takes into the node.
fn forward_indegrees(graph: &VariationGraph) -> Vec<u32> {
    let mut indegree = vec![0u32; graph.node_count()];
    for id in graph.node_ids() {
        for &next in graph.successors(Handle::forward(id)) {
            if !next.orientation().is_reverse() {
                indegree[(next.node().value() - 1) as usize] += 1;
            }
        }
    }
    indegree
}

/// The per-node arrays of a build, in 64-bit arithmetic, before they are
/// packed into records.
struct Build {
    chain_of: Vec<u32>,
    exit_idx: Vec<u32>,
    entry_idx: Vec<u32>,
    d_in: Vec<u64>,
    d_out: Vec<u64>,
    /// Each anchor's index in its own chain, [`NONE32`] for other nodes.
    anchor_pos: Vec<u32>,
    /// Forward indegree not yet consumed by the topological sort of the
    /// node's component: the indegrees, counted down.
    unsorted_in: Vec<u32>,
    chain_starts: Vec<u64>,
    anchors: Vec<u32>,
    prefix_min: Vec<u64>,
}

/// Minimum bases from a component source to each node's forward start, by
/// Kahn's algorithm over forward-orientation edges from the forward
/// `indegree`s (reverse-orientation edges are ignored; nodes a cycle keeps
/// unprocessed get what their processed predecessors give, or 0).
fn offsets_from_sources(graph: &VariationGraph, indegree: &[u32]) -> Vec<u64> {
    let n = graph.node_count();
    let mut indegree = indegree.to_vec();
    let mut queue: Vec<usize> = (0..n).filter(|&u| indegree[u] == 0).collect();
    let mut offset_min = vec![u64::MAX; n];
    for &u in &queue {
        offset_min[u] = 0;
    }
    while let Some(u) = queue.pop() {
        let id = NodeId::new(u as u64 + 1);
        let len = graph.node_len(id) as u64;
        for &next in graph.successors(Handle::forward(id)) {
            if next.orientation().is_reverse() {
                continue;
            }
            let v = (next.node().value() - 1) as usize;
            offset_min[v] = offset_min[v].min(offset_min[u].saturating_add(len));
            indegree[v] -= 1;
            if indegree[v] == 0 {
                queue.push(v);
            }
        }
    }
    for offset in offset_min.iter_mut() {
        if *offset == u64::MAX {
            *offset = 0;
        }
    }
    offset_min
}

impl Build {
    /// Topologically sorts one eligible component and builds its chain.
    /// Components with cycles are skipped (left unanswerable). The
    /// component has no reverse-orientation edge, so `indegree` counts
    /// every forward edge into each of its nodes.
    fn decompose_component(&mut self, graph: &VariationGraph, indegree: &[u32], nodes: &[u32]) {
        let Build {
            chain_of,
            exit_idx,
            entry_idx,
            d_in,
            d_out,
            anchor_pos,
            unsorted_in,
            chain_starts,
            anchors: all_anchors,
            prefix_min: all_prefix,
        } = self;
        let successors = |u: u32| graph.successors(Handle::forward(NodeId::new(u as u64 + 1)));

        // Kahn over forward edges, the ready nodes kept on a stack.
        let mut ready: Vec<u32> = nodes
            .iter()
            .copied()
            .filter(|&u| indegree[u as usize] == 0)
            .collect();
        let mut topo: Vec<u32> = Vec::with_capacity(nodes.len());
        while let Some(u) = ready.pop() {
            topo.push(u);
            for &next in successors(u) {
                let v = (next.node().value() - 1) as u32;
                let d = &mut unsorted_in[v as usize];
                *d -= 1;
                if *d == 0 {
                    ready.push(v);
                }
            }
        }
        if topo.len() != nodes.len() {
            return; // directed cycle: unanswerable component
        }

        // Anchor sweep: `open` counts edges from processed to unprocessed
        // nodes. Before processing u, if open equals u's indegree, every
        // dangling edge ends at u, so every path crosses u.
        let mut open = 0i64;
        let mut anchors: Vec<u32> = Vec::new();
        for &u in &topo {
            let ind = i64::from(indegree[u as usize]);
            if open == ind {
                anchor_pos[u as usize] = anchors.len() as u32;
                anchors.push(u);
            }
            open += successors(u).len() as i64 - ind;
        }
        if anchors.is_empty() {
            return;
        }
        let is_anchor = |u: usize| anchor_pos[u] != NONE32;

        let chain_id = (chain_starts.len() - 1) as u32;
        // Anchors are addressed by their index in the whole arena.
        let base = u32::try_from(all_anchors.len()).expect("anchor arena exceeds u32 range");
        // Entry/exit indices per node, via the topo order: a node between
        // anchors i and i+1 entered from i, exits at i+1.
        let mut seen_anchors: u32 = 0;
        for &u in &topo {
            let u = u as usize;
            chain_of[u] = chain_id;
            if is_anchor(u) {
                let pos = anchor_pos[u];
                seen_anchors = pos + 1;
                entry_idx[u] = base + pos;
                exit_idx[u] = base + pos;
                d_in[u] = 0;
                d_out[u] = 0;
            } else {
                entry_idx[u] = if seen_anchors == 0 { NONE32 } else { base + seen_anchors - 1 };
                exit_idx[u] = if (seen_anchors as usize) < anchors.len() {
                    base + seen_anchors
                } else {
                    NONE32
                };
            }
        }

        // d_in: forward relaxation in topo order; anchors stay at 0 and
        // re-seed their segment.
        for &u in &topo {
            let du = d_in[u as usize];
            if du == INF {
                continue;
            }
            let len = graph.node_len(NodeId::new(u as u64 + 1)) as u64;
            for &next in successors(u) {
                let v = (next.node().value() - 1) as usize;
                if is_anchor(v) {
                    continue; // anchors stay at 0 relative to themselves
                }
                let cand = du + len;
                if cand < d_in[v] {
                    d_in[v] = cand;
                }
            }
        }
        // d_out: backward relaxation in reverse topo order.
        for &u in topo.iter().rev() {
            if is_anchor(u as usize) {
                continue; // 0 already
            }
            let len = graph.node_len(NodeId::new(u as u64 + 1)) as u64;
            let mut best = INF;
            for &next in successors(u) {
                let tail = d_out[(next.node().value() - 1) as usize];
                if tail != INF {
                    best = best.min(len + tail);
                }
            }
            d_out[u as usize] = best;
        }

        // Chain prefix sums: segment minima via a relaxation that treats
        // each anchor's d_in-from-previous-anchor. In pathological
        // multi-source components a segment can be unbridgeable; the whole
        // component then falls back to the exact search.
        let mut prefix_min = vec![0u64; anchors.len()];
        for i in 1..anchors.len() {
            // min dist from anchor i-1 start to anchor i start: relax over
            // predecessors of anchor i (they all lie in segment i-1 or are
            // anchor i-1 itself), read as the successors of its reverse
            // handle.
            let target = NodeId::new(anchors[i] as u64 + 1);
            let mut seg = INF;
            for &p in graph.successors(Handle::reverse(target)) {
                let pu = (p.node().value() - 1) as usize;
                let p_len = graph.node_len(p.node()) as u64;
                let base = if anchors[i - 1] as usize == pu { 0 } else { d_in[pu] };
                if base != INF {
                    seg = seg.min(base + p_len);
                }
            }
            if seg == INF {
                // Disconnected consecutive anchors: retract the component.
                for &u in &topo {
                    let u = u as usize;
                    chain_of[u] = NONE32;
                    exit_idx[u] = NONE32;
                    entry_idx[u] = NONE32;
                    d_in[u] = INF;
                    d_out[u] = INF;
                }
                return;
            }
            prefix_min[i] = prefix_min[i - 1] + seg;
        }
        all_anchors.extend(anchors.iter().copied());
        all_prefix.extend(prefix_min);
        chain_starts.push(all_anchors.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{ChainAnswer, DistanceScratch};
    use crate::minimizer::GraphPos;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use mg_graph::GraphBuilder;
    use proptest::prelude::*;

    fn bubble_chain() -> mg_graph::Pangenome {
        PangenomeBuilder::new(b"AAAACCCCGGGGTTTTAACCGGTTACGTACGT".to_vec())
            .variants(vec![
                Variant::snp(4, b'T'),
                Variant {
                    position: 12,
                    ref_len: 2,
                    alt_alleles: vec![b"GGG".to_vec(), b"A".to_vec()],
                },
                Variant::deletion(22, 3),
            ])
            .haplotypes(vec![vec![0, 0, 0], vec![1, 1, 1], vec![0, 2, 1]])
            .max_node_len(5)
            .build()
            .unwrap()
    }

    #[test]
    fn anchors_exist_on_bubble_chains() {
        let p = bubble_chain();
        let index = DistanceIndex::build(p.graph());
        assert_eq!(index.chain_count(), 1);
        for id in p.graph().node_ids() {
            assert_ne!(index.node(id).chain, NONE32, "{id:?} off chain");
        }
        // Anchors include source, sink, and the between-bubble nodes.
        let anchors: Vec<NodeId> = index.anchors[index.chain_starts[0] as usize..index.chain_starts[1] as usize]
            .iter()
            .map(|&u| NodeId::new(u as u64 + 1))
            .collect();
        assert!(anchors.len() >= 4, "anchors: {anchors:?}");
        assert_eq!(anchors.first(), Some(&NodeId::new(1)));
        assert_eq!(anchors.last(), Some(&p.graph().max_node_id().unwrap()));
    }

    #[test]
    fn exact_matches_dijkstra_on_all_pairs() {
        let p = bubble_chain();
        let graph = p.graph();
        let dist = DistanceIndex::build(graph);
        let mut answered = 0;
        let mut unanswerable = 0;
        for a_id in graph.node_ids() {
            for b_id in graph.node_ids() {
                for (ao, bo) in [(0u32, 0u32), (1, 0), (0, 2)] {
                    if ao as usize >= graph.node_len(a_id) || bo as usize >= graph.node_len(b_id) {
                        continue;
                    }
                    let a = GraphPos::new(Handle::forward(a_id), ao);
                    let b = GraphPos::new(Handle::forward(b_id), bo);
                    let truth = dist.min_distance_dijkstra(graph, a, b, 10_000, &mut DistanceScratch::default());
                    match dist.exact_distance(a, b) {
                        ChainAnswer::Distance(d) => {
                            answered += 1;
                            assert_eq!(truth, Some(d), "{a_id}:{ao} -> {b_id}:{bo}");
                        }
                        ChainAnswer::Unreachable => {
                            answered += 1;
                            assert_eq!(truth, None, "{a_id}:{ao} -> {b_id}:{bo}");
                        }
                        ChainAnswer::Unanswerable => unanswerable += 1,
                    }
                }
            }
        }
        assert!(answered > unanswerable, "{answered} answered vs {unanswerable}");
    }

    #[test]
    fn reverse_orientation_queries_mirror() {
        let p = bubble_chain();
        let graph = p.graph();
        let dist = DistanceIndex::build(graph);
        let last = graph.max_node_id().unwrap();
        let a = GraphPos::new(Handle::reverse(last), 0);
        let b = GraphPos::new(Handle::reverse(NodeId::new(1)), 0);
        match dist.exact_distance(a, b) {
            ChainAnswer::Distance(d) => {
                assert_eq!(dist.min_distance_dijkstra(graph, a, b, 10_000, &mut DistanceScratch::default()), Some(d));
            }
            other => panic!("expected a distance, got {other:?}"),
        }
        // Mixed orientations are unanswerable.
        let mixed = GraphPos::new(Handle::forward(NodeId::new(1)), 0);
        assert_eq!(
            dist.exact_distance(mixed, b),
            ChainAnswer::Unanswerable
        );
    }

    #[test]
    fn cyclic_components_are_unanswerable() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(b"AC").unwrap();
        let b = g.add_node(b"GT").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(b), Handle::forward(a));
        let g = g.build();
        let dist = DistanceIndex::build(&g);
        assert_eq!(dist.chain_count(), 0);
        assert_eq!(
            dist.exact_distance(
                GraphPos::new(Handle::forward(a), 0),
                GraphPos::new(Handle::forward(b), 0)
            ),
            ChainAnswer::Unanswerable
        );
    }

    #[test]
    fn cross_component_unanswerable() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(b"ACGT").unwrap();
        let b = g.add_node(b"TTTT").unwrap();
        let g = g.build();
        let dist = DistanceIndex::build(&g);
        assert_eq!(
            dist.exact_distance(
                GraphPos::new(Handle::forward(a), 0),
                GraphPos::new(Handle::forward(b), 0)
            ),
            ChainAnswer::Unanswerable
        );
    }

    #[test]
    fn multi_source_components_answer_or_fall_back_correctly() {
        // A and C are sources converging on B: A is marked an anchor, but
        // C has no path from it. Queries involving C must be unanswerable;
        // A -> B must still be exact.
        let mut g = GraphBuilder::new();
        let a = g.add_node(b"AAAA").unwrap();
        let c = g.add_node(b"CC").unwrap();
        let b = g.add_node(b"GGG").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(c), Handle::forward(b));
        let g = g.build();
        let dist = DistanceIndex::build(&g);
        let pa = GraphPos::new(Handle::forward(a), 1);
        let pb = GraphPos::new(Handle::forward(b), 2);
        let pc = GraphPos::new(Handle::forward(c), 0);
        match dist.exact_distance(pa, pb) {
            ChainAnswer::Distance(d) => {
                assert_eq!(dist.min_distance_dijkstra(&g, pa, pb, 1000, &mut DistanceScratch::default()), Some(d));
            }
            ChainAnswer::Unanswerable => {} // acceptable: falls back
            other => panic!("unexpected {other:?}"),
        }
        // C-side queries fall back rather than answering wrongly.
        match dist.exact_distance(pc, pb) {
            ChainAnswer::Distance(d) => {
                assert_eq!(dist.min_distance_dijkstra(&g, pc, pb, 1000, &mut DistanceScratch::default()), Some(d));
            }
            ChainAnswer::Unanswerable => {}
            other => panic!("unexpected {other:?}"),
        }
        // Whatever the decomposition says, the integrated oracle is exact:
        // 2 bases of C, then 2 into B.
        assert_eq!(dist.min_distance_dijkstra(&g, pc, pb, 1000, &mut DistanceScratch::default()), Some(4));
    }

    #[test]
    fn dead_end_branches_fall_back() {
        // B dead-ends inside the segment between A and D.
        let mut g = GraphBuilder::new();
        let a = g.add_node(b"AA").unwrap();
        let b = g.add_node(b"CCCC").unwrap();
        let c = g.add_node(b"G").unwrap();
        let d = g.add_node(b"TT").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(a), Handle::forward(c));
        g.add_edge(Handle::forward(c), Handle::forward(d));
        let g = g.build();
        let dist = DistanceIndex::build(&g);
        let pb = GraphPos::new(Handle::forward(b), 0);
        let pd = GraphPos::new(Handle::forward(d), 1);
        // From the dead end, d is unreachable; the chain index must not
        // fabricate a distance.
        assert_ne!(
            dist.exact_distance(pb, pd),
            ChainAnswer::Distance(0),
        );
        match dist.exact_distance(pb, pd) {
            ChainAnswer::Unanswerable | ChainAnswer::Unreachable => {}
            ChainAnswer::Distance(x) => panic!("fabricated distance {x}"),
        }
        assert_eq!(dist.min_distance_dijkstra(&g, pb, pd, 1000, &mut DistanceScratch::default()), None);
    }

    #[test]
    fn out_of_range_offsets_are_unanswerable() {
        let p = bubble_chain();
        let graph = p.graph();
        let dist = DistanceIndex::build(graph);
        let len = graph.node_len(NodeId::new(1)) as u32;
        let bad = GraphPos::new(Handle::forward(NodeId::new(1)), len);
        let ok = GraphPos::new(Handle::forward(NodeId::new(2)), 0);
        assert_eq!(dist.exact_distance(bad, ok), ChainAnswer::Unanswerable);
        assert_eq!(dist.exact_distance(ok, bad), ChainAnswer::Unanswerable);
    }

    #[test]
    fn same_node_backward_is_unreachable() {
        let p = bubble_chain();
        let graph = p.graph();
        let dist = DistanceIndex::build(graph);
        let a = GraphPos::new(Handle::forward(NodeId::new(1)), 3);
        let b = GraphPos::new(Handle::forward(NodeId::new(1)), 1);
        assert_eq!(dist.exact_distance(a, b), ChainAnswer::Unreachable);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random bubble-chain pangenomes: wherever the chain index
        /// answers, it must agree exactly with the bounded Dijkstra.
        #[test]
        fn prop_chain_distances_match_dijkstra(seed in 0u64..500) {
            let reference: Vec<u8> = {
                let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
                let mut next = move || {
                    s ^= s << 13; s ^= s >> 7; s ^= s << 17; s
                };
                (0..180).map(|_| b"ACGT"[(next() % 4) as usize]).collect()
            };
            let mut s = seed.wrapping_add(13);
            let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
            let mut variants = Vec::new();
            let mut pos = 3 + (next() % 6) as usize;
            while pos + 6 < reference.len() {
                let v = match next() % 3 {
                    0 => Variant::snp(pos, b"ACGT"[(next() % 4) as usize]),
                    1 => Variant::insertion(pos, vec![b'A'; 1 + (next() % 3) as usize]),
                    _ => Variant::deletion(pos, 1 + (next() % 2) as usize),
                };
                let end = v.ref_end().max(v.position + 1);
                variants.push(v);
                pos = end + 2 + (next() % 8) as usize;
            }
            let haps: Vec<Vec<usize>> = (0..2).map(|_| variants.iter().map(|_| (next() % 2) as usize).collect()).collect();
            let p = PangenomeBuilder::new(reference)
                .variants(variants)
                .haplotypes(haps)
                .max_node_len(6)
                .build()
                .unwrap();
            let graph = p.graph();
            let dist = DistanceIndex::build(graph);
            let n = graph.node_count() as u64;
            for _ in 0..60 {
                let a_id = NodeId::new(1 + next() % n);
                let b_id = NodeId::new(1 + next() % n);
                let a = GraphPos::new(Handle::forward(a_id), (next() % graph.node_len(a_id) as u64) as u32);
                let b = GraphPos::new(Handle::forward(b_id), (next() % graph.node_len(b_id) as u64) as u32);
                match dist.exact_distance(a, b) {
                    ChainAnswer::Distance(d) => {
                        prop_assert_eq!(dist.min_distance_dijkstra(graph, a, b, 100_000, &mut DistanceScratch::default()), Some(d));
                    }
                    ChainAnswer::Unreachable => {
                        prop_assert_eq!(dist.min_distance_dijkstra(graph, a, b, 100_000, &mut DistanceScratch::default()), None);
                    }
                    ChainAnswer::Unanswerable => {}
                }
            }
        }
    }
}
