//! Distance index: minimum graph distances between positions.
//!
//! Giraffe's clustering stage groups seeds whose minimum graph distance is
//! small. The real tool uses a snarl-tree distance index; [`DistanceIndex`]
//! has the same interface and complexity profile in one type:
//!
//! 1. one 32-byte [`NodeRecord`] per node and the chains of a snarl-lite
//!    decomposition (built in [`crate::snarl`]), which answer "different
//!    component" and most exact distances on bubble chains in O(1) from
//!    two records and two prefix sums; and
//! 2. an exact bounded Dijkstra over node lengths for everything else —
//!    cheap because clustering limits are a few hundred bases and pangenome
//!    nodes are short.

use std::collections::{BinaryHeap, HashMap};

use mg_graph::{Handle, NodeId, Orientation, VariationGraph};
use mg_support::mgi::{
    put_u32, put_u32_slice, put_u64, put_u64_slice, Decode, FixedReader, MgiFile, MgiWriter,
    TAG_CHAIN_ANCHORS, TAG_CHAIN_PREFIX, TAG_CHAIN_STARTS, TAG_DIST_META, TAG_DIST_NODES,
};
use mg_support::{Error, Result};

use crate::minimizer::GraphPos;

/// "No chain" / "no anchor", and "no distance" in a record's 32-bit fields.
pub const NONE32: u32 = u32::MAX;

/// Everything the sort key and a chain query need to know about one node,
/// in one 32-byte record (two to a cache line, never straddling one).
///
/// Distances and the sort offset are stored in 32 bits. A distance that
/// does not fit is stored as [`NONE32`], which makes the pair unanswerable
/// (the exact search takes over); a sort offset that does not fit
/// saturates, which only ties seeds past 4 Gbp in one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct NodeRecord {
    /// Connected component (undirected).
    pub component: u32,
    /// Minimum bases from a component source to the start of the node's
    /// forward orientation: the clustering sort key.
    pub offset_min: u32,
    /// Node length in bases.
    pub len: u32,
    /// Chain id, or [`NONE32`] for nodes in components the decomposition
    /// cannot answer (cyclic, reverse edges).
    pub chain: u32,
    /// Index into the anchor arena of the anchor every forward path into
    /// this node last crossed (its own index for an anchor); [`NONE32`]
    /// before the chain's first anchor.
    pub entry: u32,
    /// Index into the anchor arena of the anchor every forward path from
    /// this node must cross next (its own index for an anchor); [`NONE32`]
    /// past the chain's last anchor.
    pub exit: u32,
    /// Min bases from the entry anchor's start to this node's start (0 for
    /// anchors); [`NONE32`] when there is no entry or no path from it.
    pub d_in: u32,
    /// Min bases from this node's start to the exit anchor's start (0 for
    /// anchors); [`NONE32`] when there is no exit or no path to it.
    pub d_out: u32,
}

const _: () = assert!(std::mem::size_of::<NodeRecord>() == 32);

impl NodeRecord {
    /// The eight fields in the order [`DistanceIndex::write_mgi`] stores them.
    fn fields(&self) -> [u32; 8] {
        let r = self;
        [r.component, r.offset_min, r.len, r.chain, r.entry, r.exit, r.d_in, r.d_out]
    }
}

/// A record as `NodeRecord::fields` lists it, each field a little-endian
/// `u32`.
impl Decode for NodeRecord {
    const SIZE: usize = 32;
    fn decode(bytes: &[u8]) -> NodeRecord {
        let field = |i: usize| u32::decode(&bytes[4 * i..4 * i + 4]);
        NodeRecord {
            component: field(0),
            offset_min: field(1),
            len: field(2),
            chain: field(3),
            entry: field(4),
            exit: field(5),
            d_in: field(6),
            d_out: field(7),
        }
    }
}

/// Reusable buffers for the bounded Dijkstra behind
/// [`DistanceIndex::min_undirected_distance_with_records`]; one per
/// thread/kernel invocation keeps the per-query allocations off the
/// clustering hot path.
#[derive(Debug, Default)]
pub struct DistanceScratch {
    dist: HashMap<Handle, u64>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
}

/// The distance index: the per-node records, the chain decomposition
/// over them, and the exact search behind both.
///
/// Chains are stored in CSR form — one concatenated anchor/prefix arena
/// plus per-chain start offsets — and the records address anchors by their
/// arena index, so a query never reads the CSR offsets. Every array
/// serializes to (and loads from) a `.mgi` container verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceIndex {
    /// One record per node, indexed by `id - 1`.
    pub(crate) nodes: Vec<NodeRecord>,
    pub(crate) component_count: u32,
    /// CSR offsets into `anchors`/`prefix_min`; chain `c` owns the range
    /// `chain_starts[c]..chain_starts[c + 1]`. Always at least `[0]`.
    pub(crate) chain_starts: Vec<u64>,
    /// Anchor node indices (`id - 1`) of all chains, concatenated in
    /// topological order.
    pub(crate) anchors: Vec<u32>,
    /// Per anchor: minimum bases from its chain's first anchor start to
    /// this anchor's start (0 at each chain's first anchor).
    pub(crate) prefix_min: Vec<u64>,
}

/// Outcome of a chain query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChainAnswer {
    /// The decomposition cannot answer this pair; fall back to search.
    Unanswerable,
    /// The positions are provably unreachable in this direction.
    Unreachable,
    /// The exact minimum distance.
    Distance(u64),
}

impl DistanceIndex {
    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The record of `node`: its component, sort offset, length and chain
    /// coordinates in one read.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the indexed graph.
    #[inline]
    pub fn node(&self, node: NodeId) -> &NodeRecord {
        &self.nodes[(node.value() - 1) as usize]
    }

    /// Appends the records and the decomposition to a `.mgi` container in
    /// their in-memory layouts: a meta section (node count, component
    /// count), 32-byte records written field by field, and the chains'
    /// CSR arrays.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        let mut meta = Vec::new();
        put_u64(&mut meta, self.nodes.len() as u64);
        put_u32(&mut meta, self.component_count);
        put_u32(&mut meta, 0); // reserved / alignment
        w.section(TAG_DIST_META, meta);
        let mut buf = Vec::with_capacity(self.nodes.len() * NodeRecord::SIZE);
        for r in self.nodes.iter() {
            put_u32_slice(&mut buf, &r.fields());
        }
        w.section(TAG_DIST_NODES, buf);
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

    /// Loads the records and the decomposition from a `.mgi` container.
    ///
    /// Validation is strict enough that no later query can index out of
    /// bounds or underflow, whatever the (checksum-valid) bytes claim.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when any structural invariant fails.
    pub fn from_mgi(f: &mut MgiFile) -> Result<Self> {
        let meta = f.section(TAG_DIST_META)?;
        let mut meta = FixedReader::new(&meta);
        let n = meta.read_u64()?;
        let component_count = meta.read_u32()?;
        let _reserved = meta.read_u32()?;
        if !meta.is_at_end() {
            return Err(Error::Corrupt("distance meta has trailing bytes".into()));
        }
        let nodes: Vec<NodeRecord> = f.array(TAG_DIST_NODES)?;
        let chain_starts: Vec<u64> = f.array(TAG_CHAIN_STARTS)?;
        let anchors: Vec<u32> = f.array(TAG_CHAIN_ANCHORS)?;
        let prefix_min: Vec<u64> = f.array(TAG_CHAIN_PREFIX)?;
        if nodes.len() as u64 != n {
            return Err(Error::Corrupt(format!(
                "distance index holds {} node records, meta claims {n}",
                nodes.len()
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
        if anchors.iter().any(|&u| u as usize >= nodes.len()) {
            return Err(Error::Corrupt("chain anchor references nonexistent node".into()));
        }
        for pm in chain_starts.windows(2).map(|c| &prefix_min[c[0] as usize..c[1] as usize]) {
            if pm[0] != 0 || !pm.windows(2).all(|p| p[0] <= p[1]) {
                return Err(Error::Corrupt(
                    "chain prefix minima not zero-based and non-decreasing".into(),
                ));
            }
        }
        let chain_count = chain_starts.len() - 1;
        for r in nodes.iter() {
            if r.component >= component_count {
                return Err(Error::Corrupt("node assigned to nonexistent component".into()));
            }
            // An anchor index must lie inside its node's own chain; a node
            // on no chain names no anchor.
            let range = match r.chain {
                NONE32 => 0..0,
                c if (c as usize) < chain_count => {
                    chain_starts[c as usize]..chain_starts[c as usize + 1]
                }
                _ => return Err(Error::Corrupt("node assigned to nonexistent chain".into())),
            };
            for idx in [r.entry, r.exit] {
                if idx != NONE32 && !range.contains(&u64::from(idx)) {
                    return Err(Error::Corrupt(
                        "anchor index beyond its chain's anchor list".into(),
                    ));
                }
            }
        }
        Ok(DistanceIndex {
            nodes,
            component_count,
            chain_starts,
            anchors,
            prefix_min,
        })
    }

    /// Exact minimum oriented distance from `a` to `b` (bases advanced
    /// walking forward from `a`), answered from the two nodes' records
    /// `ra` and `rb` and the prefix sums alone.
    #[inline]
    pub(crate) fn chain_distance(
        &self,
        a: GraphPos,
        ra: &NodeRecord,
        b: GraphPos,
        rb: &NodeRecord,
    ) -> ChainAnswer {
        // Out-of-range offsets (offset must be < node length) are not a
        // position this index reasons about.
        if a.offset >= ra.len || b.offset >= rb.len {
            return ChainAnswer::Unanswerable;
        }
        let same_node = a.handle.node() == b.handle.node();
        // Reverse-orientation walks mirror to forward walks in the
        // opposite direction: dist(a⁻ -> b⁻) = dist(mirror(b) -> mirror(a)).
        match (a.handle.orientation(), b.handle.orientation()) {
            (Orientation::Forward, Orientation::Forward) => {
                self.forward_distance(ra, a.offset, rb, b.offset, same_node)
            }
            (Orientation::Reverse, Orientation::Reverse) => {
                let (b, a) = (b.flipped(rb.len), a.flipped(ra.len));
                self.forward_distance(rb, b.offset, ra, a.offset, same_node)
            }
            _ => ChainAnswer::Unanswerable,
        }
    }

    /// [`DistanceIndex::chain_distance`] between forward positions: offset
    /// `a_off` on the node of `ra` to offset `b_off` on the node of `rb`.
    #[inline]
    fn forward_distance(
        &self,
        ra: &NodeRecord,
        a_off: u32,
        rb: &NodeRecord,
        b_off: u32,
        same_node: bool,
    ) -> ChainAnswer {
        if ra.chain == NONE32 || rb.chain != ra.chain {
            return ChainAnswer::Unanswerable;
        }
        if same_node {
            // Same node: DAG components cannot loop back.
            return if b_off >= a_off {
                ChainAnswer::Distance((b_off - a_off) as u64)
            } else {
                ChainAnswer::Unreachable
            };
        }
        let (exit, entry) = (ra.exit, rb.entry);
        if exit == NONE32 || entry == NONE32 {
            return ChainAnswer::Unanswerable;
        }
        // Dead ends inside a segment (no path to the exit anchor) and
        // unseeded entries (no path from the entry anchor, e.g. a second
        // source) cannot be answered from the decomposition.
        if ra.d_out == NONE32 || rb.d_in == NONE32 {
            return ChainAnswer::Unanswerable;
        }
        if exit > entry {
            let (entry_a, exit_b) = (ra.entry, rb.exit);
            // Same bubble: the decomposition cannot see inside it.
            if entry_a == entry && exit_b == exit {
                return ChainAnswer::Unanswerable;
            }
            // b's region strictly precedes a's: impossible in a DAG.
            if entry_a != NONE32 && entry < entry_a {
                return ChainAnswer::Unreachable;
            }
            // b is the entry anchor of a's segment (or earlier anchor).
            if rb.d_in == 0 && rb.d_out == 0 && entry <= entry_a {
                return ChainAnswer::Unreachable;
            }
            return ChainAnswer::Unanswerable;
        }
        // Both anchors lie in the one chain (checked at open), so the
        // prefix sums do not decrease from `exit` to `entry`.
        let span = self.prefix_min[entry as usize] - self.prefix_min[exit as usize];
        let total = i128::from(ra.d_out) + i128::from(span) + i128::from(rb.d_in)
            + i128::from(b_off)
            - i128::from(a_off);
        if total < 0 {
            ChainAnswer::Unreachable
        } else {
            ChainAnswer::Distance(total as u64)
        }
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
        let forward = match self.chain_distance(a, ra, b, rb) {
            ChainAnswer::Distance(d) => return (d <= limit).then_some(d),
            ChainAnswer::Unreachable => None,
            ChainAnswer::Unanswerable => self.min_distance_dijkstra(graph, a, b, limit, scratch),
        };
        let backward = match self.chain_distance(b, rb, a, ra) {
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
    use mg_graph::GraphBuilder;

    impl DistanceIndex {
        /// [`DistanceIndex::chain_distance`] with both records looked up.
        pub(crate) fn exact_distance(&self, a: GraphPos, b: GraphPos) -> ChainAnswer {
            self.chain_distance(a, self.node(a.handle.node()), b, self.node(b.handle.node()))
        }

        /// Number of chains found.
        pub(crate) fn chain_count(&self) -> usize {
            self.chain_starts.len() - 1
        }
    }

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
        let chains = match d.exact_distance(a, b) {
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
        assert_eq!(d.component_count, 1);
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
        let mut g = GraphBuilder::new();
        let a = g.add_node(b"ACGT").unwrap();
        let b = g.add_node(b"TTTT").unwrap();
        let g = g.build();
        let d = DistanceIndex::build(&g);
        assert_eq!(d.component_count, 2);
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
        let mut g = GraphBuilder::new();
        let a = g.add_node(b"AC").unwrap();
        let b = g.add_node(b"GT").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(b), Handle::forward(a));
        let g = g.build();
        let d = DistanceIndex::build(&g);
        let pa = GraphPos::new(Handle::forward(a), 0);
        let pb = GraphPos::new(Handle::forward(b), 0);
        assert_eq!(d.node(a).component, d.node(b).component);
        assert_eq!(d.chain_count(), 0, "no chain through a cycle");
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
        assert_eq!(back.chain_count(), d.chain_count());
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
        let mut g = GraphBuilder::new();
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
        g.build()
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
                                match d.exact_distance(a, b) {
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
            proptest::prop_assert!(d.chain_count() > 0);
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
                            match d.exact_distance(a, b) {
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
