//! The variation graph: sequence-labelled nodes with oriented edges.
//!
//! Nodes have dense ids `1..=node_count`. Edges connect oriented handles;
//! adding `a -> b` implicitly adds the symmetric traversal
//! `b.flip() -> a.flip()`, so walking the graph backwards is walking the
//! flipped handles forwards. Sequences are stored in one flat byte buffer so
//! node access is a slice, matching the cache behaviour of a real graph
//! implementation.

use std::borrow::Cow;

use mg_support::mgi::{
    self, FixedReader, MgiFile, MgiWriter, TAG_GRAPH_ADJ_OFFSETS, TAG_GRAPH_ADJ_TARGETS,
    TAG_GRAPH_META, TAG_GRAPH_SEQ, TAG_GRAPH_SEQ_OFFSETS,
};
use mg_support::{Error, Result};

use crate::dna;
use crate::handle::{Handle, NodeId, Orientation};

/// Successor lists per oriented handle: nested vectors while the graph is
/// being built, a flat CSR once loaded from a container. Both forms serve
/// [`VariationGraph::successors`] as a plain slice.
#[derive(Debug, Clone)]
enum AdjStore {
    /// Mutable per-handle vectors (build path).
    Dynamic(Vec<Vec<Handle>>),
    /// Flat compressed-sparse-row form (loaded path).
    Csr {
        /// `offsets[i]..offsets[i + 1]` indexes row `i` in `targets`.
        offsets: Vec<u64>,
        /// Concatenated successor handles, each row sorted ascending.
        targets: Vec<Handle>,
    },
}

impl AdjStore {
    fn row_count(&self) -> usize {
        match self {
            AdjStore::Dynamic(rows) => rows.len(),
            AdjStore::Csr { offsets, .. } => offsets.len().saturating_sub(1),
        }
    }

    fn row(&self, i: usize) -> &[Handle] {
        match self {
            AdjStore::Dynamic(rows) => &rows[i],
            AdjStore::Csr { offsets, targets } => {
                &targets[offsets[i] as usize..offsets[i + 1] as usize]
            }
        }
    }
}

// Semantic equality: the same successor lists, regardless of backing.
impl PartialEq for AdjStore {
    fn eq(&self, other: &Self) -> bool {
        self.row_count() == other.row_count()
            && (0..self.row_count()).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for AdjStore {}

/// A sequence-labelled bidirected variation graph.
///
/// # Examples
///
/// ```
/// use mg_graph::{VariationGraph, Handle, Orientation};
///
/// let mut g = VariationGraph::new();
/// let a = g.add_node(b"ACG").unwrap();
/// let b = g.add_node(b"T").unwrap();
/// g.add_edge(Handle::forward(a), Handle::forward(b));
/// assert_eq!(g.sequence(Handle::forward(a)).as_ref(), b"ACG");
/// assert_eq!(g.sequence(Handle::reverse(a)).as_ref(), b"CGT");
/// assert_eq!(g.successors(Handle::forward(a)), &[Handle::forward(b)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariationGraph {
    /// Concatenated forward sequences of all nodes.
    seq_data: Vec<u8>,
    /// Concatenated reverse-complement sequences, same offsets as
    /// `seq_data`: the precomputed arena that makes [`VariationGraph::sequence`]
    /// on a reverse handle a borrow instead of an allocation. Derived from
    /// `seq_data` (by `add_node`, or in one pass by `from_mgi`) and never
    /// stored, so it cannot disagree with the forward arena.
    rc_seq_data: Vec<u8>,
    /// `seq_offsets[i]..seq_offsets[i + 1]` is the sequence of node `i + 1`.
    seq_offsets: Vec<u64>,
    /// Successor handles per oriented handle, indexed by `packed - 2`.
    adjacency: AdjStore,
    /// Total number of distinct (unoriented) edges.
    edge_count: usize,
}

impl Default for VariationGraph {
    fn default() -> Self {
        VariationGraph::new()
    }
}

impl VariationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        VariationGraph {
            seq_data: Vec::new(),
            rc_seq_data: Vec::new(),
            seq_offsets: vec![0u64],
            adjacency: AdjStore::Dynamic(Vec::new()),
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.seq_offsets.len() - 1
    }

    /// Number of (unoriented) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Total bases stored across all nodes.
    pub fn total_sequence_len(&self) -> usize {
        self.seq_data.len()
    }

    /// The largest valid node id, or `None` for an empty graph.
    pub fn max_node_id(&self) -> Option<NodeId> {
        (self.node_count() > 0).then(|| NodeId::new(self.node_count() as u64))
    }

    /// Returns `true` if `node` exists in the graph.
    pub fn has_node(&self, node: NodeId) -> bool {
        (node.value() as usize) <= self.node_count()
    }

    /// The node boundaries in the sequence arena, `node_count + 1` of them
    /// from 0: node `i` spans `[offsets[i - 1], offsets[i])`, so its length
    /// is their difference. A plain slice, for checks that look up many
    /// nodes in a row.
    pub fn sequence_offsets(&self) -> &[u64] {
        &self.seq_offsets
    }

    /// Adds a node with the given forward sequence, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the sequence is empty or contains
    /// non-`ACGT` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the graph was loaded from a `.mgi`/`.mgz` container
    /// (loaded graphs are immutable).
    pub fn add_node(&mut self, sequence: &[u8]) -> Result<NodeId> {
        if sequence.is_empty() {
            return Err(Error::Corrupt("empty node sequence".into()));
        }
        if !dna::is_valid_sequence(sequence) {
            return Err(Error::Corrupt("node sequence contains non-ACGT bytes".into()));
        }
        let rows = self.dynamic_rows();
        rows.push(Vec::new()); // forward
        rows.push(Vec::new()); // reverse
        self.seq_data.extend_from_slice(sequence);
        push_reverse_complement(&mut self.rc_seq_data, sequence);
        self.seq_offsets.push(self.seq_data.len() as u64);
        Ok(NodeId::new(self.node_count() as u64))
    }

    fn dynamic_rows(&mut self) -> &mut Vec<Vec<Handle>> {
        match &mut self.adjacency {
            AdjStore::Dynamic(rows) => rows,
            AdjStore::Csr { .. } => panic!("cannot mutate a loaded graph"),
        }
    }

    /// Adds the edge `from -> to` (and its mirror `to.flip() -> from.flip()`).
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint node does not exist, or if the graph was
    /// loaded from a container.
    pub fn add_edge(&mut self, from: Handle, to: Handle) {
        assert!(self.has_node(from.node()), "edge from missing node {}", from.node());
        assert!(self.has_node(to.node()), "edge to missing node {}", to.node());
        let fwd = self.adj_index(from);
        let back = self.adj_index(to.flip());
        let rows = self.dynamic_rows();
        if rows[fwd].contains(&to) {
            return;
        }
        rows[fwd].push(to);
        rows[fwd].sort_unstable();
        // Mirror edge for backward traversal; identical when the edge is a
        // self-inverse (from == to.flip()).
        if !rows[back].contains(&from.flip()) {
            rows[back].push(from.flip());
            rows[back].sort_unstable();
        }
        self.edge_count += 1;
    }

    fn adj_index(&self, handle: Handle) -> usize {
        (handle.packed() - 2) as usize
    }

    /// Length in bases of `node`'s sequence.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn node_len(&self, node: NodeId) -> usize {
        let i = node.value() as usize;
        assert!(i <= self.node_count(), "missing node {node}");
        (self.seq_offsets[i] - self.seq_offsets[i - 1]) as usize
    }

    /// The forward-strand sequence of `node` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn forward_sequence(&self, node: NodeId) -> &[u8] {
        let i = node.value() as usize;
        assert!(i <= self.node_count(), "missing node {node}");
        &self.seq_data[self.seq_offsets[i - 1] as usize..self.seq_offsets[i] as usize]
    }

    /// The sequence read along `handle`: always a borrow. Forward handles
    /// slice the forward arena; reverse handles slice the precomputed
    /// reverse-complement arena, so no per-call allocation happens on
    /// either strand.
    ///
    /// The `Cow` return type is kept for API stability; the value is always
    /// `Cow::Borrowed`.
    ///
    /// # Panics
    ///
    /// Panics if the handle's node does not exist.
    pub fn sequence(&self, handle: Handle) -> Cow<'_, [u8]> {
        Cow::Borrowed(self.oriented_sequence(handle))
    }

    /// [`VariationGraph::sequence`] as a plain borrowed slice.
    ///
    /// # Panics
    ///
    /// Panics if the handle's node does not exist.
    #[inline]
    pub fn oriented_sequence(&self, handle: Handle) -> &[u8] {
        let i = handle.node().value() as usize;
        assert!(i <= self.node_count(), "missing node {}", handle.node());
        let range = self.seq_offsets[i - 1] as usize..self.seq_offsets[i] as usize;
        match handle.orientation() {
            Orientation::Forward => &self.seq_data[range],
            Orientation::Reverse => &self.rc_seq_data[range],
        }
    }

    /// Handles reachable by one edge from `handle`, in sorted order.
    ///
    /// # Panics
    ///
    /// Panics if the handle's node does not exist.
    pub fn successors(&self, handle: Handle) -> &[Handle] {
        assert!(self.has_node(handle.node()), "missing node {}", handle.node());
        self.adjacency.row(self.adj_index(handle))
    }

    /// Handles with an edge into `handle` (computed via the mirror edges).
    ///
    /// # Panics
    ///
    /// Panics if the handle's node does not exist.
    pub fn predecessors(&self, handle: Handle) -> Vec<Handle> {
        self.successors(handle.flip())
            .iter()
            .map(|h| h.flip())
            .collect()
    }

    /// Out-degree of `handle`.
    pub fn degree(&self, handle: Handle) -> usize {
        self.successors(handle).len()
    }

    /// Returns `true` if the edge `from -> to` exists.
    pub fn has_edge(&self, from: Handle, to: Handle) -> bool {
        self.has_node(from.node())
            && self.has_node(to.node())
            && self.adjacency.row(self.adj_index(from)).binary_search(&to).is_ok()
    }

    /// Iterates over all node ids in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..=self.node_count() as u64).map(NodeId::new)
    }

    /// Iterates over all distinct edges as `(from, to)` pairs, each edge
    /// reported once in its canonical direction (smaller packed endpoint
    /// first).
    pub fn edges(&self) -> impl Iterator<Item = (Handle, Handle)> + '_ {
        self.node_ids().flat_map(move |id| {
            [Handle::forward(id), Handle::reverse(id)]
                .into_iter()
                .flat_map(move |from| {
                    self.successors(from)
                        .iter()
                        .filter(move |&&to| {
                            // Keep the canonical direction of each edge pair;
                            // self-inverse edges (from == to.flip()) have only
                            // one representation and are always kept.
                            from.packed() <= to.flip().packed()
                        })
                        .map(move |&to| (from, to))
                })
        })
    }

    /// Emits the graph's five `.mgi` sections: metadata, the forward ASCII
    /// arena and its node offsets, and the adjacency lists flattened to CSR
    /// — each in its in-memory little-endian layout. The reverse-complement
    /// arena is not written; [`VariationGraph::from_mgi`] derives it.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        let mut meta = Vec::new();
        mgi::put_u64(&mut meta, self.node_count() as u64);
        mgi::put_u64(&mut meta, self.edge_count as u64);
        mgi::put_u64(&mut meta, self.seq_data.len() as u64);
        w.section(TAG_GRAPH_META, meta);
        w.section(TAG_GRAPH_SEQ, self.seq_data.clone());
        let mut offs = Vec::new();
        mgi::put_u64_slice(&mut offs, &self.seq_offsets);
        w.section(TAG_GRAPH_SEQ_OFFSETS, offs);
        let rows = self.adjacency.row_count();
        let mut adj_offsets = Vec::with_capacity((rows + 1) * 8);
        let mut targets = Vec::new();
        let mut total = 0u64;
        mgi::put_u64(&mut adj_offsets, 0);
        for i in 0..rows {
            let row = self.adjacency.row(i);
            total += row.len() as u64;
            mgi::put_u64(&mut adj_offsets, total);
            for h in row {
                mgi::put_u64(&mut targets, h.packed());
            }
        }
        w.section(TAG_GRAPH_ADJ_OFFSETS, adj_offsets);
        w.section(TAG_GRAPH_ADJ_TARGETS, targets);
    }

    /// Loads a graph from a container (`.mgz` or `.mgi`): reads the forward
    /// arena, its offsets and the adjacency as flat arrays and validates
    /// the structural invariants the accessors rely on (offset
    /// monotonicity, alphabet, sorted in-bounds adjacency rows, every
    /// edge's mirror present, the stored edge count exact). The
    /// reverse-complement arena is derived from the forward one in a single
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] (or missing-section / cast errors) if any
    /// invariant fails.
    pub fn from_mgi(f: &mut MgiFile) -> Result<Self> {
        let meta = f.section(TAG_GRAPH_META)?;
        let mut meta = FixedReader::new(&meta);
        let node_count = meta.read_u64()? as usize;
        let edge_count = meta.read_u64()? as usize;
        let seq_len = meta.read_u64()? as usize;
        if !meta.is_at_end() {
            return Err(Error::Corrupt("trailing bytes in graph metadata".into()));
        }
        let seq_data = f.section(TAG_GRAPH_SEQ)?;
        let seq_offsets: Vec<u64> = f.array(TAG_GRAPH_SEQ_OFFSETS)?;
        if seq_data.len() != seq_len {
            return Err(Error::Corrupt(format!(
                "sequence arena of {} bytes, metadata says {seq_len}",
                seq_data.len()
            )));
        }
        if seq_offsets.len() != node_count + 1 || seq_offsets.first() != Some(&0) {
            return Err(Error::Corrupt("sequence offsets do not cover the node set".into()));
        }
        if seq_offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::Corrupt("sequence offsets not strictly increasing".into()));
        }
        if *seq_offsets.last().expect("nonempty offsets") != seq_len as u64 {
            return Err(Error::Corrupt("last sequence offset does not close the arena".into()));
        }
        if !dna::is_valid_sequence(&seq_data) {
            return Err(Error::Corrupt("sequence arena contains non-ACGT bytes".into()));
        }
        let mut rc_seq_data = Vec::with_capacity(seq_len);
        for w in seq_offsets.windows(2) {
            push_reverse_complement(&mut rc_seq_data, &seq_data[w[0] as usize..w[1] as usize]);
        }
        let adj_offsets: Vec<u64> = f.array(TAG_GRAPH_ADJ_OFFSETS)?;
        let targets: Vec<Handle> = f.array(TAG_GRAPH_ADJ_TARGETS)?;
        if adj_offsets.len() != 2 * node_count + 1 || adj_offsets.first() != Some(&0) {
            return Err(Error::Corrupt("adjacency offsets do not cover the handle set".into()));
        }
        if adj_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::Corrupt("adjacency offsets decrease".into()));
        }
        if *adj_offsets.last().expect("nonempty offsets") != targets.len() as u64 {
            return Err(Error::Corrupt("last adjacency offset does not close the rows".into()));
        }
        let max_symbol = 2 * node_count as u64 + 1;
        for row in 0..2 * node_count {
            let slice = &targets[adj_offsets[row] as usize..adj_offsets[row + 1] as usize];
            for h in slice {
                if h.packed() < 2 || h.packed() > max_symbol {
                    return Err(Error::Corrupt(format!(
                        "adjacency target {} outside the node set",
                        h.packed()
                    )));
                }
            }
            // `has_edge` binary-searches rows: sorted and duplicate-free is
            // a load-bearing invariant, not a style preference.
            if slice.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Error::Corrupt("adjacency row not strictly sorted".into()));
            }
        }
        let graph = VariationGraph {
            seq_data,
            rc_seq_data,
            seq_offsets,
            adjacency: AdjStore::Csr { offsets: adj_offsets, targets },
            edge_count,
        };
        // `add_edge` gives every edge its mirror and counts it once; a
        // loaded graph must hold the same, or backward walks and the
        // distance index see a one-sided edge.
        for from in (2..=max_symbol).filter_map(Handle::from_gbwt) {
            let successors = graph.successors(from);
            if let Some(to) = successors.iter().find(|to| !graph.has_edge(to.flip(), from.flip())) {
                return Err(Error::Corrupt(format!("edge {from} -> {to} has no mirror")));
            }
        }
        let edges = graph.edges().count();
        if edges != edge_count {
            return Err(Error::Corrupt(format!(
                "metadata says {edge_count} edges, adjacency holds {edges}"
            )));
        }
        Ok(graph)
    }
}

/// Appends the reverse complement of one node's sequence (already
/// validated as `ACGT`) to the reverse arena.
fn push_reverse_complement(rc_seq_data: &mut Vec<u8>, sequence: &[u8]) {
    rc_seq_data.extend(sequence.iter().rev().map(|&b| dna::complement(b)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> (VariationGraph, [NodeId; 4]) {
        // 1: ACG -> {2: T, 3: G} -> 4: AA
        let mut g = VariationGraph::new();
        let a = g.add_node(b"ACG").unwrap();
        let b = g.add_node(b"T").unwrap();
        let c = g.add_node(b"G").unwrap();
        let d = g.add_node(b"AA").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(a), Handle::forward(c));
        g.add_edge(Handle::forward(b), Handle::forward(d));
        g.add_edge(Handle::forward(c), Handle::forward(d));
        (g, [a, b, c, d])
    }

    #[test]
    fn counts() {
        let (g, _) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.total_sequence_len(), 7);
        assert_eq!(g.max_node_id(), Some(NodeId::new(4)));
    }

    #[test]
    fn sequences_and_bases() {
        let (g, [a, ..]) = diamond();
        assert_eq!(g.sequence(Handle::forward(a)).as_ref(), b"ACG");
        assert_eq!(g.sequence(Handle::reverse(a)).as_ref(), b"CGT");
        for (i, &want) in b"ACG".iter().enumerate() {
            assert_eq!(g.oriented_sequence(Handle::forward(a))[i], want);
        }
        for (i, &want) in b"CGT".iter().enumerate() {
            assert_eq!(g.oriented_sequence(Handle::reverse(a))[i], want);
        }
    }

    #[test]
    fn successors_sorted_and_mirrored() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(
            g.successors(Handle::forward(a)),
            &[Handle::forward(b), Handle::forward(c)]
        );
        // Mirror: from 4's reverse we reach 2- and 3-.
        assert_eq!(
            g.successors(Handle::reverse(d)),
            &[Handle::reverse(b), Handle::reverse(c)]
        );
        // Predecessors of 4+ are 2+ and 3+.
        let mut preds = g.predecessors(Handle::forward(d));
        preds.sort();
        assert_eq!(preds, vec![Handle::forward(b), Handle::forward(c)]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = VariationGraph::new();
        let a = g.add_node(b"A").unwrap();
        let b = g.add_node(b"C").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(a), Handle::forward(b));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(Handle::forward(a)), 1);
    }

    #[test]
    fn has_edge_queries() {
        let (g, [a, b, _, d]) = diamond();
        assert!(g.has_edge(Handle::forward(a), Handle::forward(b)));
        assert!(g.has_edge(Handle::reverse(b), Handle::reverse(a)));
        assert!(!g.has_edge(Handle::forward(a), Handle::forward(d)));
    }

    #[test]
    fn reverse_orientation_edges() {
        // Inversion-style edge: 1+ -> 2-.
        let mut g = VariationGraph::new();
        let a = g.add_node(b"AC").unwrap();
        let b = g.add_node(b"GG").unwrap();
        g.add_edge(Handle::forward(a), Handle::reverse(b));
        assert_eq!(g.successors(Handle::forward(a)), &[Handle::reverse(b)]);
        // Mirror: 2+ -> 1-.
        assert_eq!(g.successors(Handle::forward(b)), &[Handle::reverse(a)]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_invalid_sequences() {
        let mut g = VariationGraph::new();
        assert!(g.add_node(b"").is_err());
        assert!(g.add_node(b"ACGN").is_err());
        assert!(g.add_node(b"acgt").is_err());
    }

    #[test]
    fn edges_iterator_reports_each_once() {
        let (g, _) = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
    }

    #[test]
    fn serialization_roundtrip() {
        let (g, _) = diamond();
        for g2 in mgi_roundtrips(&g) {
            assert_eq!(g2, g);
        }
    }

    #[test]
    fn deserialize_rejects_trailing_garbage() {
        let mut sections = diamond_sections();
        sections[0].1.push(0);
        assert!(matches!(load_sections(sections), Err(Error::Corrupt(_))));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = VariationGraph::new();
        for g2 in mgi_roundtrips(&g) {
            assert_eq!(g2.node_count(), 0);
            assert_eq!(g2.edge_count(), 0);
        }
    }

    /// The diamond's five `.mgi` sections, in file order, for crafting
    /// containers.
    fn diamond_sections() -> Vec<(u32, Vec<u8>)> {
        let (g, _) = diamond();
        let mut w = MgiWriter::new();
        g.write_mgi(&mut w);
        let mut f = MgiFile::open_bytes(w.finish()).unwrap();
        let tags: Vec<u32> = f.tags().collect();
        tags.into_iter().map(|tag| (tag, f.section(tag).unwrap())).collect()
    }

    /// Loads `sections` re-sectioned with fresh checksums: what a hostile
    /// writer, not a damaged disk, produces.
    fn load_sections(sections: Vec<(u32, Vec<u8>)>) -> Result<VariationGraph> {
        let mut w = MgiWriter::new();
        for (tag, payload) in sections {
            w.section(tag, payload);
        }
        VariationGraph::from_mgi(&mut MgiFile::open_bytes(w.finish()).unwrap())
    }

    /// The diamond with its adjacency rows and edge count replaced.
    fn crafted(rows: &[Vec<Handle>], edge_count: u64) -> Result<VariationGraph> {
        let mut sections = diamond_sections();
        sections[0].1[8..16].copy_from_slice(&edge_count.to_le_bytes());
        let (mut offsets, mut targets) = (vec![0u64], Vec::new());
        for row in rows {
            targets.extend(row.iter().map(|h| h.packed()));
            offsets.push(targets.len() as u64);
        }
        sections[3].1.clear();
        mgi::put_u64_slice(&mut sections[3].1, &offsets);
        sections[4].1.clear();
        mgi::put_u64_slice(&mut sections[4].1, &targets);
        load_sections(sections)
    }

    #[test]
    fn crafted_one_sided_edge_or_wrong_edge_count_is_corrupt() {
        let (g, [a, b, ..]) = diamond();
        let rows: Vec<Vec<Handle>> = (0..2 * g.node_count())
            .map(|i| g.successors(Handle::from_gbwt(i as u64 + 2).unwrap()).to_vec())
            .collect();
        // The untouched rows and count load.
        assert_eq!(crafted(&rows, g.edge_count() as u64).unwrap(), g);
        // Drop the mirror 2- -> 1- of the edge 1+ -> 2+.
        let mut one_sided = rows.clone();
        let mirror = (Handle::reverse(b).packed() - 2) as usize;
        one_sided[mirror].retain(|&h| h != Handle::reverse(a));
        assert!(matches!(crafted(&one_sided, 4), Err(Error::Corrupt(_))));
        assert!(matches!(crafted(&one_sided, 3), Err(Error::Corrupt(_))));
        // Every edge mirrored, but the metadata's count is off by one.
        for count in [3, 5] {
            assert!(matches!(crafted(&rows, count), Err(Error::Corrupt(_))), "{count}");
        }
    }

    /// Random small graphs for property tests.
    fn graph_strategy() -> impl Strategy<Value = VariationGraph> {
        let seqs = proptest::collection::vec(
            proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 1..8),
            1..20,
        );
        (seqs, proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()), 0..40))
            .prop_map(|(seqs, raw_edges)| {
                let mut g = VariationGraph::new();
                let ids: Vec<NodeId> = seqs.iter().map(|s| g.add_node(s).unwrap()).collect();
                for (f, t, fr, tr) in raw_edges {
                    let from = ids[(f % ids.len() as u64) as usize];
                    let to = ids[(t % ids.len() as u64) as usize];
                    let from = if fr { Handle::reverse(from) } else { Handle::forward(from) };
                    let to = if tr { Handle::reverse(to) } else { Handle::forward(to) };
                    g.add_edge(from, to);
                }
                g
            })
    }

    fn mgi_roundtrip(g: &VariationGraph) -> VariationGraph {
        let mut w = MgiWriter::new();
        g.write_mgi(&mut w);
        VariationGraph::from_mgi(&mut MgiFile::open_bytes(w.finish()).unwrap()).unwrap()
    }

    /// `g` written with `write_mgi` and read back with `from_mgi` twice:
    /// from the in-memory image, and from a file opened with
    /// `MgiFile::open`.
    fn mgi_roundtrips(g: &VariationGraph) -> [VariationGraph; 2] {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "mg-graph-{}-{}.mgi",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let mut w = MgiWriter::new();
        g.write_mgi(&mut w);
        w.write_to(&path).unwrap();
        let loaded = VariationGraph::from_mgi(&mut MgiFile::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        [mgi_roundtrip(g), loaded]
    }

    #[test]
    fn mgi_roundtrip_preserves_everything() {
        let (mut g, [a, b, _, d]) = diamond();
        let long: Vec<u8> = (0..70).map(|i| dna::BASES[(i * 7 + 3) % 4]).collect();
        let e = g.add_node(&long).unwrap();
        g.add_edge(Handle::forward(d), Handle::reverse(e));
        let mut w = MgiWriter::new();
        g.write_mgi(&mut w);
        let mut f = MgiFile::open_bytes(w.finish()).unwrap();
        // Each node sequence is stored once: no reverse-complement arena
        // (0x0102) and no 2-bit packed arenas (0x0110..=0x0112).
        let tags: Vec<u32> = f.tags().collect();
        assert_eq!(
            tags,
            [
                TAG_GRAPH_META,
                TAG_GRAPH_SEQ,
                TAG_GRAPH_SEQ_OFFSETS,
                TAG_GRAPH_ADJ_OFFSETS,
                TAG_GRAPH_ADJ_TARGETS
            ]
        );
        let back = VariationGraph::from_mgi(&mut f).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.successors(Handle::forward(a)), g.successors(Handle::forward(a)));
        assert!(back.has_edge(Handle::forward(b), Handle::forward(d)));
        assert_eq!(back.sequence(Handle::reverse(a)).as_ref(), b"CGT");
        // A 70-base node: its reverse handle spells the derived arena.
        assert_eq!(back.oriented_sequence(Handle::reverse(e)), dna::reverse_complement(&long));
        // Loaded graphs are immutable.
        let mut loaded = mgi_roundtrip(&g);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            loaded.add_edge(Handle::forward(a), Handle::forward(d));
        }))
        .is_err());
    }

    /// A graph whose arena and offsets span three read blocks loads whole,
    /// and one flipped byte in the last block of its offsets, whose sum
    /// the reader only knows at the end, loads no graph.
    #[test]
    fn multi_block_sections_load_and_a_late_flip_loads_nothing() {
        let mut g = VariationGraph::new();
        let nodes = 2 * mgi::BLOCK_LEN / 8 + 100;
        for i in 0..nodes {
            let id = g.add_node(&[dna::BASES[i % 4]; 8]).unwrap();
            if i > 0 {
                g.add_edge(Handle::forward(NodeId::new(id.value() - 1)), Handle::forward(id));
            }
        }
        let mut w = MgiWriter::new();
        g.write_mgi(&mut w);
        let image = w.finish();
        assert_eq!(VariationGraph::from_mgi(&mut MgiFile::open_bytes(image.clone()).unwrap()).unwrap(), g);
        // The offsets section ends 8 bytes past the last node's offset.
        let last_offset = (8 * nodes as u64).to_le_bytes();
        let at = image.windows(8).rposition(|w| w == last_offset).unwrap();
        let mut bad = image;
        bad[at] ^= 0x40;
        let loaded = VariationGraph::from_mgi(&mut MgiFile::open_bytes(bad).unwrap());
        assert!(matches!(loaded, Err(Error::ChecksumMismatch { .. })), "{loaded:?}");
    }

    proptest! {
        #[test]
        fn prop_serialization_roundtrip(g in graph_strategy()) {
            for g2 in mgi_roundtrips(&g) {
                prop_assert_eq!(&g2, &g);
                prop_assert_eq!(g2.edge_count(), g2.edges().count());
            }
        }

        #[test]
        fn prop_mgi_roundtrip(g in graph_strategy()) {
            let back = mgi_roundtrip(&g);
            prop_assert_eq!(&back, &g);
            // Semantic equality across backings: same successors, bases.
            for id in g.node_ids() {
                for h in [Handle::forward(id), Handle::reverse(id)] {
                    prop_assert_eq!(back.successors(h), g.successors(h));
                    prop_assert_eq!(back.oriented_sequence(h), g.oriented_sequence(h));
                }
            }
        }

        #[test]
        fn prop_mirror_edges_consistent(g in graph_strategy()) {
            for id in g.node_ids() {
                for from in [Handle::forward(id), Handle::reverse(id)] {
                    for &to in g.successors(from) {
                        // Every successor edge has its mirror.
                        prop_assert!(g.successors(to.flip()).contains(&from.flip()));
                        prop_assert!(g.has_edge(from, to));
                    }
                }
            }
        }

        #[test]
        fn prop_base_matches_sequence(g in graph_strategy()) {
            for id in g.node_ids() {
                for h in [Handle::forward(id), Handle::reverse(id)] {
                    let seq = g.sequence(h);
                    for (i, &b) in seq.iter().enumerate() {
                        prop_assert_eq!(g.oriented_sequence(h)[i], b);
                    }
                }
            }
        }

        #[test]
        fn prop_sequence_never_allocates(g in graph_strategy()) {
            for id in g.node_ids() {
                for h in [Handle::forward(id), Handle::reverse(id)] {
                    prop_assert!(
                        matches!(g.sequence(h), Cow::Borrowed(_)),
                        "sequence({h:?}) allocated"
                    );
                }
            }
        }

        #[test]
        fn prop_reverse_arena_is_the_reverse_complement(g in graph_strategy()) {
            // Built by `add_node`, and derived again by `from_mgi`.
            for graph in [&g, &mgi_roundtrip(&g)] {
                for id in graph.node_ids() {
                    prop_assert_eq!(
                        graph.oriented_sequence(Handle::reverse(id)),
                        dna::reverse_complement(graph.forward_sequence(id))
                    );
                }
            }
        }
    }

    #[test]
    fn reverse_sequence_borrows_the_revcomp_arena() {
        let mut g = VariationGraph::new();
        let seq: Vec<u8> = (0..70).map(|i| dna::BASES[(i * 7 + 3) % 4]).collect();
        let a = g.add_node(&seq).unwrap();
        let h = Handle::reverse(a);
        assert!(matches!(g.sequence(h), Cow::Borrowed(_)));
        assert_eq!(g.sequence(h).as_ref(), dna::reverse_complement(&seq));
    }
}
