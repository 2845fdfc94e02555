//! Snarl-lite chain decomposition: O(1) exact distances on bubble chains.
//!
//! Giraffe's real distance index is built on a snarl tree: the pangenome
//! decomposes into *chains* of anchors (cut nodes every path crosses)
//! separated by *snarls* (bubbles), and distances reduce to prefix sums
//! along the chain plus small per-node entry/exit distances. This module
//! implements that architecture for the DAG components our pangenomes are:
//!
//! - anchors are found with a one-pass topological sweep (a node is an
//!   anchor exactly when all dangling edges of the cut converge on it);
//! - each segment between consecutive anchors gets per-node shortest
//!   distances to its entry and exit anchors;
//! - chain prefix sums answer anchor-to-anchor minima.
//!
//! [`ChainIndex::exact_distance`] then answers most oriented queries in
//! O(1); cyclic or reverse-edge components, cross-chain pairs, and
//! same-segment pairs report "unanswerable" and the caller falls back to
//! the bounded Dijkstra.

use mg_graph::{Handle, NodeId, Orientation, VariationGraph};
use mg_support::mgi::{
    put_u32_slice, put_u64_slice, MgiFile, MgiWriter, Storage, TAG_CHAIN_ANCHORS, TAG_CHAIN_D_IN,
    TAG_CHAIN_D_OUT, TAG_CHAIN_ENTRY, TAG_CHAIN_EXIT, TAG_CHAIN_OF, TAG_CHAIN_PREFIX,
    TAG_CHAIN_STARTS,
};
use mg_support::{Error, Result};

use crate::minimizer::GraphPos;

const NONE32: u32 = u32::MAX;
const INF: u64 = u64::MAX;

/// The decomposition over a whole graph.
///
/// Chains are stored in CSR form — one concatenated anchor/prefix arena
/// plus per-chain start offsets — so the whole index is a handful of flat
/// arrays that serialize to (and borrow from) a `.mgi` container verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainIndex {
    /// Chain id per node (`id - 1`), or `NONE32` for nodes in components
    /// the decomposition cannot answer (cyclic, reverse edges).
    chain_of: Storage<u32>,
    /// Index of the *exit* anchor (position in the chain's anchor list)
    /// every forward path from this node must cross next; `NONE32` past
    /// the last anchor. For an anchor node: its own index.
    exit_idx: Storage<u32>,
    /// Index of the *entry* anchor every forward path into this node last
    /// crossed; `NONE32` before the first anchor. For an anchor: its own
    /// index.
    entry_idx: Storage<u32>,
    /// Min bases from the entry anchor's start to this node's start
    /// (0 for anchors); `INF` when `entry_idx` is `NONE32`.
    d_in: Storage<u64>,
    /// Min bases from this node's start to the exit anchor's start
    /// (0 for anchors); `INF` when `exit_idx` is `NONE32`.
    d_out: Storage<u64>,
    /// CSR offsets into `anchors`/`prefix_min`; chain `c` owns the range
    /// `chain_starts[c]..chain_starts[c + 1]`. Always at least `[0]`.
    chain_starts: Storage<u64>,
    /// Anchor node indices (`id - 1`) of all chains, concatenated in
    /// topological order.
    anchors: Storage<u32>,
    /// Per anchor: minimum bases from its chain's first anchor start to
    /// this anchor's start (0 at each chain's first anchor).
    prefix_min: Storage<u64>,
}

/// Outcome of an exact-distance query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainAnswer {
    /// The decomposition cannot answer this pair; fall back to search.
    Unanswerable,
    /// The positions are provably unreachable in this direction.
    Unreachable,
    /// The exact minimum distance.
    Distance(u64),
}

impl ChainIndex {
    /// Decomposes `graph`. Components containing directed cycles or
    /// reverse-orientation edges are left unanswerable (the exact search
    /// still covers them).
    pub fn build(graph: &VariationGraph) -> Self {
        let n = graph.node_count();
        let mut index = ChainIndex {
            chain_of: vec![NONE32; n].into(),
            exit_idx: vec![NONE32; n].into(),
            entry_idx: vec![NONE32; n].into(),
            d_in: vec![INF; n].into(),
            d_out: vec![INF; n].into(),
            chain_starts: vec![0u64].into(),
            anchors: Storage::default(),
            prefix_min: Storage::default(),
        };
        if n == 0 {
            return index;
        }
        // Component labelling (undirected) + eligibility (no reverse
        // orientation edges).
        let mut component = vec![NONE32; n];
        let mut eligible: Vec<bool> = Vec::new();
        let mut comp_nodes: Vec<Vec<u32>> = Vec::new();
        for start in 0..n {
            if component[start] != NONE32 {
                continue;
            }
            let cid = comp_nodes.len() as u32;
            let mut nodes = vec![start as u32];
            component[start] = cid;
            let mut ok = true;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                let id = NodeId::new(u as u64 + 1);
                for h in [Handle::forward(id), Handle::reverse(id)] {
                    for &next in graph.successors(h) {
                        // A forward-only edge appears as fwd->fwd and its
                        // mirror rev->rev; an orientation mismatch means a
                        // real inversion edge, which the chain model cannot
                        // answer.
                        if h.orientation() != next.orientation() {
                            ok = false;
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
            eligible.push(ok);
            comp_nodes.push(nodes);
        }

        for (cid, nodes) in comp_nodes.iter().enumerate() {
            if !eligible[cid] {
                continue;
            }
            index.decompose_component(graph, nodes);
        }
        index
    }

    /// Topologically sorts one eligible component and builds its chain.
    /// Components with cycles are skipped (left unanswerable).
    fn decompose_component(&mut self, graph: &VariationGraph, nodes: &[u32]) {
        // Building always runs on heap-backed storage; split the struct so
        // the per-node arrays and the CSR arenas can be written in one pass.
        let ChainIndex {
            chain_of,
            exit_idx,
            entry_idx,
            d_in,
            d_out,
            chain_starts,
            anchors: all_anchors,
            prefix_min: all_prefix,
        } = self;
        let chain_of = chain_of.vec_mut();
        let exit_idx = exit_idx.vec_mut();
        let entry_idx = entry_idx.vec_mut();
        let d_in = d_in.vec_mut();
        let d_out = d_out.vec_mut();
        let chain_starts = chain_starts.vec_mut();

        // Kahn over forward edges, restricted to the component.
        let mut indeg: std::collections::HashMap<u32, u32> = nodes.iter().map(|&u| (u, 0)).collect();
        for &u in nodes {
            let id = NodeId::new(u as u64 + 1);
            for &next in graph.successors(Handle::forward(id)) {
                let v = (next.node().value() - 1) as u32;
                *indeg.get_mut(&v).expect("successor in component") += 1;
            }
        }
        let mut queue: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = indeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&u, _)| std::cmp::Reverse(u))
            .collect();
        let mut topo: Vec<u32> = Vec::with_capacity(nodes.len());
        while let Some(std::cmp::Reverse(u)) = queue.pop() {
            topo.push(u);
            let id = NodeId::new(u as u64 + 1);
            for &next in graph.successors(Handle::forward(id)) {
                let v = (next.node().value() - 1) as u32;
                let d = indeg.get_mut(&v).expect("in component");
                *d -= 1;
                if *d == 0 {
                    queue.push(std::cmp::Reverse(v));
                }
            }
        }
        if topo.len() != nodes.len() {
            return; // directed cycle: unanswerable component
        }

        // Anchor sweep: `open` counts edges from processed to unprocessed
        // nodes. Before processing u, if open equals u's indegree, every
        // dangling edge ends at u, so every path crosses u.
        let indeg_of: std::collections::HashMap<u32, u32> = {
            let mut m: std::collections::HashMap<u32, u32> = nodes.iter().map(|&u| (u, 0)).collect();
            for &u in nodes {
                let id = NodeId::new(u as u64 + 1);
                for &next in graph.successors(Handle::forward(id)) {
                    *m.get_mut(&((next.node().value() - 1) as u32)).unwrap() += 1;
                }
            }
            m
        };
        let mut open = 0i64;
        let mut anchors: Vec<u32> = Vec::new();
        let mut anchor_pos: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for &u in &topo {
            let ind = indeg_of[&u] as i64;
            if open == ind {
                anchor_pos.insert(u, anchors.len() as u32);
                anchors.push(u);
            }
            let out = graph
                .successors(Handle::forward(NodeId::new(u as u64 + 1)))
                .len() as i64;
            open += out - ind;
        }
        if anchors.is_empty() {
            return;
        }

        let chain_id = (chain_starts.len() - 1) as u32;
        // Entry/exit indices per node, via the topo order: a node between
        // anchors i and i+1 entered from i, exits at i+1.
        let mut seen_anchors: u32 = 0;
        for &u in &topo {
            chain_of[u as usize] = chain_id;
            if let Some(&pos) = anchor_pos.get(&u) {
                seen_anchors = pos + 1;
                entry_idx[u as usize] = pos;
                exit_idx[u as usize] = pos;
                d_in[u as usize] = 0;
                d_out[u as usize] = 0;
            } else {
                entry_idx[u as usize] = if seen_anchors == 0 { NONE32 } else { seen_anchors - 1 };
                exit_idx[u as usize] = if (seen_anchors as usize) < anchors.len() {
                    seen_anchors
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
            let id = NodeId::new(u as u64 + 1);
            let len = graph.node_len(id) as u64;
            for &next in graph.successors(Handle::forward(id)) {
                let v = (next.node().value() - 1) as usize;
                if anchor_pos.contains_key(&(v as u32)) {
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
            if anchor_pos.contains_key(&u) {
                continue; // 0 already
            }
            let id = NodeId::new(u as u64 + 1);
            let len = graph.node_len(id) as u64;
            let mut best = INF;
            for &next in graph.successors(Handle::forward(id)) {
                let v = (next.node().value() - 1) as usize;
                let tail = d_out[v];
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
            // anchor i-1 itself).
            let target = NodeId::new(anchors[i] as u64 + 1);
            let mut seg = INF;
            for p in graph.predecessors(Handle::forward(target)) {
                let pu = (p.node().value() - 1) as usize;
                let p_len = graph.node_len(p.node()) as u64;
                let base = if anchors[i - 1] as usize == pu {
                    0
                } else {
                    d_in[pu]
                };
                if base != INF {
                    seg = seg.min(base + p_len);
                }
            }
            if seg == INF {
                // Disconnected consecutive anchors: retract the component.
                for &u in &topo {
                    chain_of[u as usize] = NONE32;
                    exit_idx[u as usize] = NONE32;
                    entry_idx[u as usize] = NONE32;
                    d_in[u as usize] = INF;
                    d_out[u as usize] = INF;
                }
                return;
            }
            prefix_min[i] = prefix_min[i - 1] + seg;
        }
        all_anchors.vec_mut().extend(anchors.iter().copied());
        all_prefix.vec_mut().extend(prefix_min);
        chain_starts.push(all_anchors.len() as u64);
    }

    /// Number of chains found.
    pub fn chain_count(&self) -> usize {
        self.chain_starts.len() - 1
    }

    /// The anchor/prefix arena range of chain `c`.
    fn chain_range(&self, c: u32) -> std::ops::Range<usize> {
        self.chain_starts[c as usize] as usize..self.chain_starts[c as usize + 1] as usize
    }

    /// Appends the decomposition to a `.mgi` container in its in-memory
    /// CSR layout.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &self.chain_of);
        w.section(TAG_CHAIN_OF, buf);
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &self.exit_idx);
        w.section(TAG_CHAIN_EXIT, buf);
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &self.entry_idx);
        w.section(TAG_CHAIN_ENTRY, buf);
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &self.d_in);
        w.section(TAG_CHAIN_D_IN, buf);
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &self.d_out);
        w.section(TAG_CHAIN_D_OUT, buf);
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &self.chain_starts);
        w.section(TAG_CHAIN_STARTS, buf);
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &self.anchors);
        w.section(TAG_CHAIN_ANCHORS, buf);
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &self.prefix_min);
        w.section(TAG_CHAIN_PREFIX, buf);
    }

    /// Borrows a decomposition out of a validated `.mgi` container built
    /// for a graph of `n` nodes.
    ///
    /// Validation is strict enough that no later query can index out of
    /// bounds or underflow, whatever the (checksum-valid) bytes claim.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when any structural invariant fails.
    pub fn from_mgi(f: &MgiFile, n: usize) -> Result<Self> {
        let chain_of = f.section_storage::<u32>(TAG_CHAIN_OF)?;
        let exit_idx = f.section_storage::<u32>(TAG_CHAIN_EXIT)?;
        let entry_idx = f.section_storage::<u32>(TAG_CHAIN_ENTRY)?;
        let d_in = f.section_storage::<u64>(TAG_CHAIN_D_IN)?;
        let d_out = f.section_storage::<u64>(TAG_CHAIN_D_OUT)?;
        let chain_starts = f.section_storage::<u64>(TAG_CHAIN_STARTS)?;
        let anchors = f.section_storage::<u32>(TAG_CHAIN_ANCHORS)?;
        let prefix_min = f.section_storage::<u64>(TAG_CHAIN_PREFIX)?;
        if chain_of.len() != n
            || exit_idx.len() != n
            || entry_idx.len() != n
            || d_in.len() != n
            || d_out.len() != n
        {
            return Err(Error::Corrupt(format!(
                "chain arrays disagree with node count {n}"
            )));
        }
        if chain_starts.first().copied() != Some(0)
            || chain_starts.last().copied() != Some(anchors.len() as u64)
            || !chain_starts.windows(2).all(|p| p[0] < p[1])
        {
            return Err(Error::Corrupt("chain CSR offsets malformed".into()));
        }
        if prefix_min.len() != anchors.len() {
            return Err(Error::Corrupt("chain prefix arena disagrees with anchors".into()));
        }
        if anchors.iter().any(|&u| u as usize >= n) {
            return Err(Error::Corrupt("chain anchor references nonexistent node".into()));
        }
        let chain_count = (chain_starts.len() - 1) as u32;
        for c in 0..chain_count as usize {
            let pm = &prefix_min[chain_starts[c] as usize..chain_starts[c + 1] as usize];
            if pm[0] != 0 || !pm.windows(2).all(|p| p[0] <= p[1]) {
                return Err(Error::Corrupt(
                    "chain prefix minima not zero-based and non-decreasing".into(),
                ));
            }
        }
        for u in 0..n {
            let c = chain_of[u];
            if c == NONE32 {
                continue;
            }
            if c >= chain_count {
                return Err(Error::Corrupt("node assigned to nonexistent chain".into()));
            }
            let chain_len = (chain_starts[c as usize + 1] - chain_starts[c as usize]) as u32;
            for idx in [exit_idx[u], entry_idx[u]] {
                if idx != NONE32 && idx >= chain_len {
                    return Err(Error::Corrupt(
                        "anchor index beyond its chain's anchor list".into(),
                    ));
                }
            }
        }
        Ok(ChainIndex {
            chain_of,
            exit_idx,
            entry_idx,
            d_in,
            d_out,
            chain_starts,
            anchors,
            prefix_min,
        })
    }

    /// Exact minimum oriented distance from `a` to `b` (bases advanced
    /// walking forward from `a`), answered from the decomposition alone.
    pub fn exact_distance(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
    ) -> ChainAnswer {
        // Out-of-range offsets (offset must be < node length) are not a
        // position this index reasons about.
        if a.offset as usize >= graph.node_len(a.handle.node())
            || b.offset as usize >= graph.node_len(b.handle.node())
        {
            return ChainAnswer::Unanswerable;
        }
        // Reverse-orientation walks mirror to forward walks in the
        // opposite direction: dist(a⁻ -> b⁻) = dist(mirror(b) -> mirror(a)).
        match (a.handle.orientation(), b.handle.orientation()) {
            (Orientation::Forward, Orientation::Forward) => {}
            (Orientation::Reverse, Orientation::Reverse) => {
                return self.exact_distance(graph, mirror(graph, b), mirror(graph, a));
            }
            _ => return ChainAnswer::Unanswerable,
        }
        let ia = (a.handle.node().value() - 1) as usize;
        let ib = (b.handle.node().value() - 1) as usize;
        let chain = self.chain_of[ia];
        if chain == NONE32 || self.chain_of[ib] != chain {
            return ChainAnswer::Unanswerable;
        }
        if ia == ib {
            // Same node: DAG components cannot loop back.
            return if b.offset >= a.offset {
                ChainAnswer::Distance((b.offset - a.offset) as u64)
            } else {
                ChainAnswer::Unreachable
            };
        }
        let (exit, entry) = (self.exit_idx[ia], self.entry_idx[ib]);
        if exit == NONE32 || entry == NONE32 {
            return ChainAnswer::Unanswerable;
        }
        // Dead ends inside a segment (no path to the exit anchor) and
        // unseeded entries (no path from the entry anchor, e.g. a second
        // source) cannot be answered from the decomposition.
        if self.d_out[ia] == INF || self.d_in[ib] == INF {
            return ChainAnswer::Unanswerable;
        }
        if exit > entry {
            let (entry_a, exit_b) = (self.entry_idx[ia], self.exit_idx[ib]);
            // Same bubble: the decomposition cannot see inside it.
            if entry_a == entry && exit_b == exit {
                return ChainAnswer::Unanswerable;
            }
            // b's region strictly precedes a's: impossible in a DAG.
            if entry_a != NONE32 && entry < entry_a {
                return ChainAnswer::Unreachable;
            }
            // b is the entry anchor of a's segment (or earlier anchor).
            if self.d_in[ib] == 0 && self.d_out[ib] == 0 && entry <= entry_a {
                return ChainAnswer::Unreachable;
            }
            return ChainAnswer::Unanswerable;
        }
        let pm = &self.prefix_min[self.chain_range(chain)];
        let span = pm[entry as usize] - pm[exit as usize];
        let total = self.d_out[ia] as i128 + span as i128 + self.d_in[ib] as i128
            + b.offset as i128
            - a.offset as i128;
        if total < 0 {
            ChainAnswer::Unreachable
        } else {
            ChainAnswer::Distance(total as u64)
        }
    }
}

/// Mirrors a reverse-orientation position into forward coordinates: the
/// same physical base on the forward strand.
fn mirror(graph: &VariationGraph, p: GraphPos) -> GraphPos {
    let len = graph.node_len(p.handle.node()) as u32;
    GraphPos::new(p.handle.flip(), len - 1 - p.offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{DistanceIndex, DistanceScratch};
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
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
        let index = ChainIndex::build(p.graph());
        assert_eq!(index.chain_count(), 1);
        for id in p.graph().node_ids() {
            assert_ne!(index.chain_of[(id.value() - 1) as usize], NONE32, "{id:?} off chain");
        }
        // Anchors include source, sink, and the between-bubble nodes.
        let anchors: Vec<NodeId> = index.anchors[index.chain_range(0)]
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
        let chains = ChainIndex::build(graph);
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
                    match chains.exact_distance(graph, a, b) {
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
        let chains = ChainIndex::build(graph);
        let dist = DistanceIndex::build(graph);
        let last = graph.max_node_id().unwrap();
        let a = GraphPos::new(Handle::reverse(last), 0);
        let b = GraphPos::new(Handle::reverse(NodeId::new(1)), 0);
        match chains.exact_distance(graph, a, b) {
            ChainAnswer::Distance(d) => {
                assert_eq!(dist.min_distance_dijkstra(graph, a, b, 10_000, &mut DistanceScratch::default()), Some(d));
            }
            other => panic!("expected a distance, got {other:?}"),
        }
        // Mixed orientations are unanswerable.
        let mixed = GraphPos::new(Handle::forward(NodeId::new(1)), 0);
        assert_eq!(
            chains.exact_distance(graph, mixed, b),
            ChainAnswer::Unanswerable
        );
    }

    #[test]
    fn cyclic_components_are_unanswerable() {
        let mut g = VariationGraph::new();
        let a = g.add_node(b"AC").unwrap();
        let b = g.add_node(b"GT").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(b), Handle::forward(a));
        let chains = ChainIndex::build(&g);
        assert_eq!(chains.chain_count(), 0);
        assert_eq!(
            chains.exact_distance(
                &g,
                GraphPos::new(Handle::forward(a), 0),
                GraphPos::new(Handle::forward(b), 0)
            ),
            ChainAnswer::Unanswerable
        );
    }

    #[test]
    fn cross_component_unanswerable() {
        let mut g = VariationGraph::new();
        let a = g.add_node(b"ACGT").unwrap();
        let b = g.add_node(b"TTTT").unwrap();
        let chains = ChainIndex::build(&g);
        assert_eq!(
            chains.exact_distance(
                &g,
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
        let mut g = VariationGraph::new();
        let a = g.add_node(b"AAAA").unwrap();
        let c = g.add_node(b"CC").unwrap();
        let b = g.add_node(b"GGG").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(c), Handle::forward(b));
        let chains = ChainIndex::build(&g);
        let dist = DistanceIndex::build(&g);
        let pa = GraphPos::new(Handle::forward(a), 1);
        let pb = GraphPos::new(Handle::forward(b), 2);
        let pc = GraphPos::new(Handle::forward(c), 0);
        match chains.exact_distance(&g, pa, pb) {
            ChainAnswer::Distance(d) => {
                assert_eq!(dist.min_distance_dijkstra(&g, pa, pb, 1000, &mut DistanceScratch::default()), Some(d));
            }
            ChainAnswer::Unanswerable => {} // acceptable: falls back
            other => panic!("unexpected {other:?}"),
        }
        // C-side queries fall back rather than answering wrongly.
        match chains.exact_distance(&g, pc, pb) {
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
        let mut g = VariationGraph::new();
        let a = g.add_node(b"AA").unwrap();
        let b = g.add_node(b"CCCC").unwrap();
        let c = g.add_node(b"G").unwrap();
        let d = g.add_node(b"TT").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(a), Handle::forward(c));
        g.add_edge(Handle::forward(c), Handle::forward(d));
        let chains = ChainIndex::build(&g);
        let dist = DistanceIndex::build(&g);
        let pb = GraphPos::new(Handle::forward(b), 0);
        let pd = GraphPos::new(Handle::forward(d), 1);
        // From the dead end, d is unreachable; the chain index must not
        // fabricate a distance.
        assert_ne!(
            chains.exact_distance(&g, pb, pd),
            ChainAnswer::Distance(0),
        );
        match chains.exact_distance(&g, pb, pd) {
            ChainAnswer::Unanswerable | ChainAnswer::Unreachable => {}
            ChainAnswer::Distance(x) => panic!("fabricated distance {x}"),
        }
        assert_eq!(dist.min_distance_dijkstra(&g, pb, pd, 1000, &mut DistanceScratch::default()), None);
    }

    #[test]
    fn out_of_range_offsets_are_unanswerable() {
        let p = bubble_chain();
        let graph = p.graph();
        let chains = ChainIndex::build(graph);
        let len = graph.node_len(NodeId::new(1)) as u32;
        let bad = GraphPos::new(Handle::forward(NodeId::new(1)), len);
        let ok = GraphPos::new(Handle::forward(NodeId::new(2)), 0);
        assert_eq!(chains.exact_distance(graph, bad, ok), ChainAnswer::Unanswerable);
        assert_eq!(chains.exact_distance(graph, ok, bad), ChainAnswer::Unanswerable);
    }

    #[test]
    fn same_node_backward_is_unreachable() {
        let p = bubble_chain();
        let graph = p.graph();
        let chains = ChainIndex::build(graph);
        let a = GraphPos::new(Handle::forward(NodeId::new(1)), 3);
        let b = GraphPos::new(Handle::forward(NodeId::new(1)), 1);
        assert_eq!(chains.exact_distance(graph, a, b), ChainAnswer::Unreachable);
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
            let chains = ChainIndex::build(graph);
            let dist = DistanceIndex::build(graph);
            let n = graph.node_count() as u64;
            for _ in 0..60 {
                let a_id = NodeId::new(1 + next() % n);
                let b_id = NodeId::new(1 + next() % n);
                let a = GraphPos::new(Handle::forward(a_id), (next() % graph.node_len(a_id) as u64) as u32);
                let b = GraphPos::new(Handle::forward(b_id), (next() % graph.node_len(b_id) as u64) as u32);
                match chains.exact_distance(graph, a, b) {
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
