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
//! Everything a query asks of one node lives in one 32-byte [`NodeRecord`]
//! (component, sort offset, length, chain, entry/exit anchors and the
//! distances to them), so [`ChainIndex::exact_distance`] reads two records
//! and two prefix sums. It answers most oriented queries in O(1); cyclic or
//! reverse-edge components, cross-chain pairs, and same-segment pairs
//! report "unanswerable" and the caller falls back to the bounded Dijkstra.

use mg_graph::{Handle, NodeId, Orientation, VariationGraph};
use mg_support::mgi::{
    put_u32, put_u32_slice, put_u64, put_u64_slice, Decode, FixedReader, MgiFile, MgiWriter,
    TAG_CHAIN_ANCHORS, TAG_CHAIN_PREFIX, TAG_CHAIN_STARTS, TAG_DIST_META, TAG_DIST_NODES,
};
use mg_support::{Error, Result};

use crate::minimizer::GraphPos;

/// "No chain" / "no anchor", and "no distance" in a record's 32-bit fields.
pub const NONE32: u32 = u32::MAX;
const INF: u64 = u64::MAX;

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
    /// The eight fields in the order [`ChainIndex::write_mgi`] stores them.
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

/// A 64-bit distance in a 32-bit field: [`NONE32`] when it does not fit
/// (or is [`INF`]).
fn narrow(d: u64) -> u32 {
    u32::try_from(d).unwrap_or(NONE32)
}

/// The per-node records and the chain decomposition over a whole graph.
///
/// Chains are stored in CSR form — one concatenated anchor/prefix arena
/// plus per-chain start offsets — and the records address anchors by their
/// arena index, so a query never reads the CSR offsets. Every array
/// serializes to (and loads from) a `.mgi` container verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainIndex {
    /// One record per node, indexed by `id - 1`.
    nodes: Vec<NodeRecord>,
    component_count: u32,
    /// CSR offsets into `anchors`/`prefix_min`; chain `c` owns the range
    /// `chain_starts[c]..chain_starts[c + 1]`. Always at least `[0]`.
    chain_starts: Vec<u64>,
    /// Anchor node indices (`id - 1`) of all chains, concatenated in
    /// topological order.
    anchors: Vec<u32>,
    /// Per anchor: minimum bases from its chain's first anchor start to
    /// this anchor's start (0 at each chain's first anchor).
    prefix_min: Vec<u64>,
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
    /// Labels components, computes every node's sort offset, and decomposes
    /// `graph`. Components containing directed cycles or reverse-orientation
    /// edges are left unanswerable (the exact search still covers them).
    pub fn build(graph: &VariationGraph) -> Self {
        let n = graph.node_count();
        let mut build = Build {
            chain_of: vec![NONE32; n],
            exit_idx: vec![NONE32; n],
            entry_idx: vec![NONE32; n],
            d_in: vec![INF; n],
            d_out: vec![INF; n],
            chain_starts: vec![0],
            anchors: Vec::new(),
            prefix_min: Vec::new(),
        };
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
            if eligible[cid] {
                build.decompose_component(graph, nodes);
            }
        }
        let offset_min = offsets_from_sources(graph);
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
        ChainIndex {
            nodes,
            component_count: comp_nodes.len() as u32,
            chain_starts: build.chain_starts,
            anchors: build.anchors,
            prefix_min: build.prefix_min,
        }
    }

    /// Number of chains found.
    pub fn chain_count(&self) -> usize {
        self.chain_starts.len() - 1
    }

    /// Number of connected components.
    pub fn component_count(&self) -> u32 {
        self.component_count
    }

    /// The record of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the indexed graph.
    #[inline]
    pub fn node(&self, node: NodeId) -> &NodeRecord {
        &self.nodes[(node.value() - 1) as usize]
    }

    /// Every node's record, indexed by `id - 1`.
    pub fn nodes(&self) -> &[NodeRecord] {
        &self.nodes
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
        Ok(ChainIndex {
            nodes,
            component_count,
            chain_starts,
            anchors,
            prefix_min,
        })
    }

    /// Exact minimum oriented distance from `a` to `b` (bases advanced
    /// walking forward from `a`), answered from the two nodes' records and
    /// the prefix sums alone.
    pub fn exact_distance(&self, a: GraphPos, b: GraphPos) -> ChainAnswer {
        self.exact_distance_between(a, self.node(a.handle.node()), b, self.node(b.handle.node()))
    }

    /// [`ChainIndex::exact_distance`] from records the caller already holds:
    /// `ra` and `rb` are the records of `a`'s and `b`'s nodes.
    #[inline]
    pub(crate) fn exact_distance_between(
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
        // opposite direction: dist(a⁻ -> b⁻) = dist(mirror(b) -> mirror(a)),
        // where mirroring maps offset o on a node of length l to l - 1 - o.
        match (a.handle.orientation(), b.handle.orientation()) {
            (Orientation::Forward, Orientation::Forward) => {
                self.forward_distance(ra, a.offset, rb, b.offset, same_node)
            }
            (Orientation::Reverse, Orientation::Reverse) => {
                self.forward_distance(rb, rb.len - 1 - b.offset, ra, ra.len - 1 - a.offset, same_node)
            }
            _ => ChainAnswer::Unanswerable,
        }
    }

    /// [`ChainIndex::exact_distance`] between forward positions: offset
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
}

/// The per-node arrays of a build, in 64-bit arithmetic, before they are
/// packed into records.
struct Build {
    chain_of: Vec<u32>,
    exit_idx: Vec<u32>,
    entry_idx: Vec<u32>,
    d_in: Vec<u64>,
    d_out: Vec<u64>,
    chain_starts: Vec<u64>,
    anchors: Vec<u32>,
    prefix_min: Vec<u64>,
}

/// Minimum bases from a component source to each node's forward start, by
/// Kahn's algorithm over forward-orientation edges (reverse-orientation
/// edges are ignored; nodes a cycle keeps unprocessed get what their
/// processed predecessors give, or 0).
fn offsets_from_sources(graph: &VariationGraph) -> Vec<u64> {
    let n = graph.node_count();
    let mut indegree = vec![0u32; n];
    for u in 0..n {
        let id = NodeId::new(u as u64 + 1);
        for &next in graph.successors(Handle::forward(id)) {
            if !next.orientation().is_reverse() {
                indegree[(next.node().value() - 1) as usize] += 1;
            }
        }
    }
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
    /// Components with cycles are skipped (left unanswerable).
    fn decompose_component(&mut self, graph: &VariationGraph, nodes: &[u32]) {
        let Build {
            chain_of,
            exit_idx,
            entry_idx,
            d_in,
            d_out,
            chain_starts,
            anchors: all_anchors,
            prefix_min: all_prefix,
        } = self;

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
        // Anchors are addressed by their index in the whole arena.
        let base = u32::try_from(all_anchors.len()).expect("anchor arena exceeds u32 range");
        // Entry/exit indices per node, via the topo order: a node between
        // anchors i and i+1 entered from i, exits at i+1.
        let mut seen_anchors: u32 = 0;
        for &u in &topo {
            chain_of[u as usize] = chain_id;
            if let Some(&pos) = anchor_pos.get(&u) {
                seen_anchors = pos + 1;
                entry_idx[u as usize] = base + pos;
                exit_idx[u as usize] = base + pos;
                d_in[u as usize] = 0;
                d_out[u as usize] = 0;
            } else {
                entry_idx[u as usize] = if seen_anchors == 0 { NONE32 } else { base + seen_anchors - 1 };
                exit_idx[u as usize] = if (seen_anchors as usize) < anchors.len() {
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
        all_anchors.extend(anchors.iter().copied());
        all_prefix.extend(prefix_min);
        chain_starts.push(all_anchors.len() as u64);
    }
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
                    match chains.exact_distance(a, b) {
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
        match chains.exact_distance(a, b) {
            ChainAnswer::Distance(d) => {
                assert_eq!(dist.min_distance_dijkstra(graph, a, b, 10_000, &mut DistanceScratch::default()), Some(d));
            }
            other => panic!("expected a distance, got {other:?}"),
        }
        // Mixed orientations are unanswerable.
        let mixed = GraphPos::new(Handle::forward(NodeId::new(1)), 0);
        assert_eq!(
            chains.exact_distance(mixed, b),
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
        match chains.exact_distance(pa, pb) {
            ChainAnswer::Distance(d) => {
                assert_eq!(dist.min_distance_dijkstra(&g, pa, pb, 1000, &mut DistanceScratch::default()), Some(d));
            }
            ChainAnswer::Unanswerable => {} // acceptable: falls back
            other => panic!("unexpected {other:?}"),
        }
        // C-side queries fall back rather than answering wrongly.
        match chains.exact_distance(pc, pb) {
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
            chains.exact_distance(pb, pd),
            ChainAnswer::Distance(0),
        );
        match chains.exact_distance(pb, pd) {
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
        assert_eq!(chains.exact_distance(bad, ok), ChainAnswer::Unanswerable);
        assert_eq!(chains.exact_distance(ok, bad), ChainAnswer::Unanswerable);
    }

    #[test]
    fn same_node_backward_is_unreachable() {
        let p = bubble_chain();
        let graph = p.graph();
        let chains = ChainIndex::build(graph);
        let a = GraphPos::new(Handle::forward(NodeId::new(1)), 3);
        let b = GraphPos::new(Handle::forward(NodeId::new(1)), 1);
        assert_eq!(chains.exact_distance(a, b), ChainAnswer::Unreachable);
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
                match chains.exact_distance(a, b) {
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
