//! Distance index: minimum graph distances between positions.
//!
//! Giraffe's clustering stage groups seeds whose minimum graph distance is
//! small. The real tool uses a snarl-tree distance index; we substitute a
//! two-tier oracle with the same interface and complexity profile:
//!
//! 1. a precomputed per-node summary (connected component id plus, for
//!    acyclic components, lower/upper distance-from-source bounds) that
//!    answers "definitely unreachable / definitely farther than the limit"
//!    in O(1); and
//! 2. an exact bounded Dijkstra over node lengths for everything else —
//!    cheap because clustering limits are a few hundred bases and pangenome
//!    nodes are short.

use std::collections::{BinaryHeap, HashMap};

use mg_graph::{Handle, NodeId, VariationGraph};
use mg_support::mgi::{
    put_u32, put_u32_slice, put_u64, put_u64_slice, FixedReader, MgiFile, MgiWriter, Storage,
    TAG_DIST_COMPONENT, TAG_DIST_CYCLIC, TAG_DIST_META, TAG_DIST_OFFSET_MAX,
    TAG_DIST_OFFSET_MIN,
};
use mg_support::{Error, Result};

use crate::minimizer::GraphPos;
use crate::snarl::{ChainAnswer, ChainIndex};

/// Reusable buffers for the bounded Dijkstra in
/// [`DistanceIndex::min_distance_with`]; one per thread/kernel invocation
/// keeps the per-query allocations off the clustering hot path.
#[derive(Debug, Default)]
pub struct DistanceScratch {
    dist: HashMap<Handle, u64>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
}

/// Per-node precomputed summaries.
///
/// All arrays live in [`Storage`], so an index loaded from a `.mgi`
/// container borrows the mapping directly instead of owning heap copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceIndex {
    /// Connected component of each node (undirected), indexed by `id - 1`.
    component: Storage<u32>,
    /// For acyclic components: minimum bases from a component source to the
    /// *start* of the node's forward orientation.
    offset_min: Storage<u64>,
    /// Maximum bases from a component source to the node start (along any
    /// simple path); saturates for cyclic components.
    offset_max: Storage<u64>,
    /// Per component, nonzero when it contains a directed cycle (no pruning
    /// there). Stored as bytes rather than bools so the array can be
    /// borrowed from a mapped file where any bit pattern must be tolerable.
    cyclic: Storage<u8>,
    component_count: u32,
    /// Snarl-lite chain decomposition: the O(1) fast path for exact
    /// distances on bubble chains (the architecture of Giraffe's real
    /// distance index).
    chains: ChainIndex,
}

impl DistanceIndex {
    /// Preprocesses `graph`.
    pub fn build(graph: &VariationGraph) -> Self {
        let n = graph.node_count();
        let mut component = vec![u32::MAX; n];
        let mut component_count = 0u32;
        // Undirected components over node ids.
        for start in 0..n {
            if component[start] != u32::MAX {
                continue;
            }
            let mut stack = vec![start];
            component[start] = component_count;
            while let Some(u) = stack.pop() {
                let id = NodeId::new(u as u64 + 1);
                for h in [Handle::forward(id), Handle::reverse(id)] {
                    for &next in graph.successors(h) {
                        let v = (next.node().value() - 1) as usize;
                        if component[v] == u32::MAX {
                            component[v] = component_count;
                            stack.push(v);
                        }
                    }
                }
            }
            component_count += 1;
        }

        // Kahn's algorithm over forward-orientation edges to detect cycles
        // and compute min/max start offsets. Reverse-orientation edges are
        // ignored here (our pangenomes are forward DAGs; graphs using them
        // simply fall back to exact search).
        let mut indegree = vec![0u32; n];
        let mut uses_reverse = vec![false; component_count as usize];
        for u in 0..n {
            let id = NodeId::new(u as u64 + 1);
            for h in [Handle::forward(id), Handle::reverse(id)] {
                for &next in graph.successors(h) {
                    if h.orientation().is_reverse() || next.orientation().is_reverse() {
                        uses_reverse[component[u] as usize] = true;
                    } else {
                        indegree[(next.node().value() - 1) as usize] += 1;
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&u| indegree[u] == 0).collect();
        let mut offset_min = vec![u64::MAX; n];
        let mut offset_max = vec![0u64; n];
        for &u in &queue {
            offset_min[u] = 0;
        }
        let mut processed = 0usize;
        while let Some(u) = queue.pop() {
            processed += 1;
            let id = NodeId::new(u as u64 + 1);
            let len = graph.node_len(id) as u64;
            for &next in graph.successors(Handle::forward(id)) {
                if next.orientation().is_reverse() {
                    continue;
                }
                let v = (next.node().value() - 1) as usize;
                offset_min[v] = offset_min[v].min(offset_min[u].saturating_add(len));
                offset_max[v] = offset_max[v].max(offset_max[u] + len);
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push(v);
                }
            }
        }
        // Unreached nodes keep offset_min = MAX; normalize for safety.
        for offset in offset_min.iter_mut() {
            if *offset == u64::MAX {
                *offset = 0;
            }
        }
        let mut cyclic = uses_reverse;
        if processed < n {
            // Mark every component containing an unprocessed node as cyclic.
            for u in 0..n {
                if indegree[u] > 0 {
                    cyclic[component[u] as usize] = true;
                }
            }
        }
        DistanceIndex {
            component: component.into(),
            offset_min: offset_min.into(),
            offset_max: offset_max.into(),
            cyclic: cyclic.iter().map(|&b| b as u8).collect::<Vec<u8>>().into(),
            component_count,
            chains: ChainIndex::build(graph),
        }
    }

    /// Appends the index (including its chain decomposition) to a `.mgi`
    /// container in its in-memory array layout.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        let mut meta = Vec::new();
        put_u64(&mut meta, self.component.len() as u64);
        put_u32(&mut meta, self.component_count);
        put_u32(&mut meta, 0); // reserved / alignment
        w.section(TAG_DIST_META, meta);
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &self.component);
        w.section(TAG_DIST_COMPONENT, buf);
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &self.offset_min);
        w.section(TAG_DIST_OFFSET_MIN, buf);
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &self.offset_max);
        w.section(TAG_DIST_OFFSET_MAX, buf);
        w.section(TAG_DIST_CYCLIC, self.cyclic.to_vec());
        self.chains.write_mgi(w);
    }

    /// Borrows an index out of a validated `.mgi` container.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when any structural invariant fails.
    pub fn from_mgi(f: &MgiFile) -> Result<Self> {
        let mut meta = FixedReader::new(f.section(TAG_DIST_META)?);
        let n = meta.read_u64()? as usize;
        let component_count = meta.read_u32()?;
        let _reserved = meta.read_u32()?;
        if !meta.is_at_end() {
            return Err(Error::Corrupt("distance meta has trailing bytes".into()));
        }
        let component = f.section_storage::<u32>(TAG_DIST_COMPONENT)?;
        let offset_min = f.section_storage::<u64>(TAG_DIST_OFFSET_MIN)?;
        let offset_max = f.section_storage::<u64>(TAG_DIST_OFFSET_MAX)?;
        let cyclic = f.section_storage::<u8>(TAG_DIST_CYCLIC)?;
        if component.len() != n || offset_min.len() != n || offset_max.len() != n {
            return Err(Error::Corrupt(format!(
                "distance arrays disagree with node count {n}"
            )));
        }
        if cyclic.len() != component_count as usize {
            return Err(Error::Corrupt(format!(
                "cyclic flags hold {} entries for {component_count} components",
                cyclic.len()
            )));
        }
        if component.iter().any(|&c| c >= component_count) {
            return Err(Error::Corrupt("node assigned to nonexistent component".into()));
        }
        if cyclic.iter().any(|&b| b > 1) {
            return Err(Error::Corrupt("cyclic flag is not 0 or 1".into()));
        }
        let chains = ChainIndex::from_mgi(f, n)?;
        Ok(DistanceIndex {
            component,
            offset_min,
            offset_max,
            cyclic,
            component_count,
            chains,
        })
    }

    /// The chain decomposition backing the O(1) fast path.
    pub fn chains(&self) -> &ChainIndex {
        &self.chains
    }

    /// Number of connected components.
    pub fn component_count(&self) -> u32 {
        self.component_count
    }

    /// Component id of a node.
    pub fn component(&self, node: NodeId) -> u32 {
        self.component[(node.value() - 1) as usize]
    }

    /// A linearized approximate position of the node (minimum bases from a
    /// component source). Seeds sorted by this key put graph-nearby seeds
    /// adjacent, which is how the clustering kernel bounds its pair checks.
    pub fn approx_position(&self, node: NodeId) -> u64 {
        self.offset_min[(node.value() - 1) as usize]
    }

    /// Whether two positions can possibly be within `limit` bases; `false`
    /// is definitive, `true` means "ask [`DistanceIndex::min_distance`]".
    pub fn maybe_within(&self, a: GraphPos, b: GraphPos, limit: u64) -> bool {
        let ca = self.component(a.handle.node());
        let cb = self.component(b.handle.node());
        if ca != cb {
            return false;
        }
        if self.cyclic[ca as usize] != 0 {
            return true;
        }
        // Safe lower bound on forward distance u -> v:
        // offset_min(v) - offset_max(u) - len(u). Check both directions.
        let ia = (a.handle.node().value() - 1) as usize;
        let ib = (b.handle.node().value() - 1) as usize;
        let forward_lb = self.offset_min[ib].saturating_sub(self.offset_max[ia]);
        let backward_lb = self.offset_min[ia].saturating_sub(self.offset_max[ib]);
        forward_lb.min(backward_lb) <= limit.saturating_add(64)
    }

    /// Exact minimum oriented distance from `a` to `b`, walking forward
    /// along `a.handle`, capped at `limit`.
    ///
    /// The distance is the number of bases advanced from position `a` to
    /// reach position `b` (0 when they are the same position). Returns
    /// `None` if `b` is unreachable within `limit`.
    pub fn min_distance(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
    ) -> Option<u64> {
        self.min_distance_with(graph, a, b, limit, &mut DistanceScratch::default())
    }

    /// [`DistanceIndex::min_distance`] with caller-provided scratch buffers
    /// (the clustering kernel reuses one across all its pair checks).
    pub fn min_distance_with(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
        scratch: &mut DistanceScratch,
    ) -> Option<u64> {
        if self.component(a.handle.node()) != self.component(b.handle.node()) {
            return None;
        }
        // Chain fast path: exact O(1) answers on bubble chains.
        match self.chains.exact_distance(graph, a, b) {
            ChainAnswer::Distance(d) => return (d <= limit).then_some(d),
            ChainAnswer::Unreachable => return None,
            ChainAnswer::Unanswerable => {}
        }
        self.min_distance_dijkstra(graph, a, b, limit, scratch)
    }

    /// The exact bounded Dijkstra, bypassing the chain fast path. This is
    /// the independent oracle the chain decomposition is validated against
    /// (using [`DistanceIndex::min_distance_with`] for that would be
    /// circular).
    #[doc(hidden)]
    pub fn min_distance_dijkstra(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
        scratch: &mut DistanceScratch,
    ) -> Option<u64> {
        if self.component(a.handle.node()) != self.component(b.handle.node()) {
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
        let to_end = a_len - a.offset as u64; // bases from a to a.handle's end
        scratch.dist.clear();
        scratch.heap.clear();
        let dist = &mut scratch.dist;
        let heap = &mut scratch.heap;
        for &next in graph.successors(a.handle) {
            if to_end <= limit {
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

    /// Minimum distance in either direction (`a` to `b` or `b` to `a`).
    pub fn min_undirected_distance(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
    ) -> Option<u64> {
        self.min_undirected_distance_with(graph, a, b, limit, &mut DistanceScratch::default())
    }

    /// [`DistanceIndex::min_undirected_distance`] with reusable scratch.
    pub fn min_undirected_distance_with(
        &self,
        graph: &VariationGraph,
        a: GraphPos,
        b: GraphPos,
        limit: u64,
        scratch: &mut DistanceScratch,
    ) -> Option<u64> {
        let forward = self.min_distance_with(graph, a, b, limit, scratch);
        let backward = self.min_distance_with(graph, b, a, limit, scratch);
        match (forward, backward) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (Some(x), None) | (None, Some(x)) => Some(x),
            (None, None) => None,
        }
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

    #[test]
    fn single_component() {
        let (_, d) = bubble();
        assert_eq!(d.component_count(), 1);
    }

    #[test]
    fn same_node_distances() {
        let (p, d) = bubble();
        let a = pos(&p, 1, Orientation::Forward, 0);
        let b = pos(&p, 1, Orientation::Forward, 3);
        assert_eq!(d.min_distance(p.graph(), a, b, 100), Some(3));
        assert_eq!(d.min_distance(p.graph(), a, a, 100), Some(0));
        // Backwards on the same handle requires going around: impossible in
        // a DAG.
        assert_eq!(d.min_distance(p.graph(), b, a, 100), None);
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
        assert_eq!(d.min_distance(p.graph(), a, end, 100), Some(5));
    }

    #[test]
    fn limit_cuts_search() {
        let (p, d) = bubble();
        let a = pos(&p, 1, Orientation::Forward, 0);
        let end = pos(&p, 4, Orientation::Forward, 3);
        assert_eq!(d.min_distance(p.graph(), a, end, 100), Some(8));
        assert_eq!(d.min_distance(p.graph(), a, end, 7), None);
        assert_eq!(d.min_distance(p.graph(), a, end, 8), Some(8));
    }

    #[test]
    fn reverse_orientation_walk() {
        let (p, d) = bubble();
        // Walk from 4- (reverse) back toward 1-.
        let a = pos(&p, 4, Orientation::Reverse, 0);
        let b = pos(&p, 1, Orientation::Reverse, 0);
        // 4 bases of node 4, then 1 base of C: start of node 1 reverse = 5.
        assert_eq!(d.min_distance(p.graph(), a, b, 100), Some(5));
    }

    #[test]
    fn disconnected_components() {
        let mut g = VariationGraph::new();
        let a = g.add_node(b"ACGT").unwrap();
        let b = g.add_node(b"TTTT").unwrap();
        let d = DistanceIndex::build(&g);
        assert_eq!(d.component_count(), 2);
        let pa = GraphPos::new(Handle::forward(a), 0);
        let pb = GraphPos::new(Handle::forward(b), 0);
        assert!(!d.maybe_within(pa, pb, 1_000_000));
        assert_eq!(d.min_distance(&g, pa, pb, 1_000_000), None);
    }

    #[test]
    fn maybe_within_is_safe() {
        // maybe_within must never return false for pairs that are actually
        // within the limit.
        let (p, d) = bubble();
        let g = p.graph();
        for u in g.node_ids() {
            for v in g.node_ids() {
                let a = GraphPos::new(Handle::forward(u), 0);
                let b = GraphPos::new(Handle::forward(v), 0);
                for limit in [0u64, 3, 10, 50] {
                    if let Some(dist) = d.min_undirected_distance(g, a, b, limit) {
                        if dist <= limit {
                            assert!(
                                d.maybe_within(a, b, limit),
                                "pruned a reachable pair {u}->{v} at {limit}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn undirected_takes_min_of_directions() {
        let (p, d) = bubble();
        let a = pos(&p, 1, Orientation::Forward, 2);
        let b = pos(&p, 4, Orientation::Forward, 1);
        let fwd = d.min_distance(p.graph(), a, b, 100);
        let both = d.min_undirected_distance(p.graph(), a, b, 100);
        assert_eq!(fwd, both);
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
        // No pruning in cyclic components.
        assert!(d.maybe_within(pa, pb, 0));
        // Distance still exact: a->b = 2 bases.
        assert_eq!(d.min_distance(&g, pa, pb, 100), Some(2));
        // And b -> a around the cycle = 2.
        assert_eq!(d.min_distance(&g, pb, pa, 100), Some(2));
        // Same-position distance around the cycle stays 0 (not 4).
        assert_eq!(d.min_distance(&g, pa, pa, 100), Some(0));
    }

    #[test]
    fn mgi_roundtrip_preserves_distances() {
        let (p, d) = bubble();
        let mut w = MgiWriter::new();
        d.write_mgi(&mut w);
        let f = MgiFile::open_bytes(w.finish()).unwrap();
        let back = DistanceIndex::from_mgi(&f).unwrap();
        assert_eq!(back, d);
        let g = p.graph();
        for u in g.node_ids() {
            assert_eq!(back.component(u), d.component(u));
            assert_eq!(back.approx_position(u), d.approx_position(u));
            for v in g.node_ids() {
                let a = GraphPos::new(Handle::forward(u), 0);
                let b = GraphPos::new(Handle::forward(v), 0);
                assert_eq!(back.maybe_within(a, b, 10), d.maybe_within(a, b, 10));
                assert_eq!(
                    back.min_distance(g, a, b, 1000),
                    d.min_distance(g, a, b, 1000)
                );
            }
        }
        assert_eq!(back.chains().chain_count(), d.chains().chain_count());
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
        assert_eq!(d.min_distance(p.graph(), a, b, 1000), Some(expect));
    }
}
