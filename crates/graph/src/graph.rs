//! The variation graph: sequence-labelled nodes with oriented edges.
//!
//! Nodes have dense ids `1..=node_count`. Edges connect oriented handles;
//! the edge `a -> b` always comes with the symmetric traversal
//! `b.flip() -> a.flip()`, so walking the graph backwards is walking the
//! flipped handles forwards. Sequences are stored in one flat byte buffer so
//! node access is a slice, matching the cache behaviour of a real graph
//! implementation. A graph is immutable: [`GraphBuilder`] makes one in
//! process, [`VariationGraph::from_mgi`] loads one, and both hold the same
//! flat adjacency.

use std::borrow::Cow;

use mg_support::mgi::{
    self, FixedReader, MgiFile, MgiWriter, TAG_GRAPH_ADJ_OFFSETS, TAG_GRAPH_ADJ_TARGETS,
    TAG_GRAPH_META, TAG_GRAPH_SEQ, TAG_GRAPH_SEQ_OFFSETS,
};
use mg_support::{Error, Result};

use crate::dna;
use crate::handle::{Handle, NodeId, Orientation};

/// A sequence-labelled bidirected variation graph.
///
/// # Examples
///
/// ```
/// use mg_graph::{GraphBuilder, Handle};
///
/// let mut builder = GraphBuilder::new();
/// let a = builder.add_node(b"ACG").unwrap();
/// let b = builder.add_node(b"T").unwrap();
/// builder.add_edge(Handle::forward(a), Handle::forward(b));
/// let g = builder.build();
/// assert_eq!(g.sequence(Handle::forward(a)).as_ref(), b"ACG");
/// assert_eq!(g.sequence(Handle::reverse(a)).as_ref(), b"CGT");
/// assert_eq!(g.successors(Handle::forward(a)), &[Handle::forward(b)]);
/// assert_eq!(g.successors(Handle::reverse(b)), &[Handle::reverse(a)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariationGraph {
    /// Concatenated forward sequences of all nodes.
    seq_data: Vec<u8>,
    /// Concatenated reverse-complement sequences, same offsets as
    /// `seq_data`: the precomputed arena that makes [`VariationGraph::sequence`]
    /// on a reverse handle a borrow instead of an allocation. Derived from
    /// `seq_data` (by [`GraphBuilder::build`] and by `from_mgi`) and never
    /// stored, so it cannot disagree with the forward arena.
    rc_seq_data: Vec<u8>,
    /// `seq_offsets[i]..seq_offsets[i + 1]` is the sequence of node `i + 1`.
    seq_offsets: Vec<u64>,
    /// Successor rows in compressed-sparse-row form, one row per oriented
    /// handle indexed by `packed - 2`: row `i` is
    /// `adj_targets[adj_offsets[i]..adj_offsets[i + 1]]`.
    adj_offsets: Vec<u64>,
    /// Concatenated successor handles, each row strictly ascending.
    adj_targets: Vec<Handle>,
    /// Total number of distinct (unoriented) edges.
    edge_count: usize,
}

/// Builds a [`VariationGraph`] node by node and edge by edge, then lays
/// the adjacency out once in [`GraphBuilder::build`].
#[derive(Debug)]
pub struct GraphBuilder {
    seq_data: Vec<u8>,
    seq_offsets: Vec<u64>,
    /// Every edge added, with its mirror; sorted and deduplicated by
    /// `build`.
    edges: Vec<(Handle, Handle)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new()
    }
}

impl GraphBuilder {
    /// A builder with no nodes.
    pub fn new() -> Self {
        GraphBuilder { seq_data: Vec::new(), seq_offsets: vec![0], edges: Vec::new() }
    }

    /// Number of nodes added so far.
    fn node_count(&self) -> usize {
        self.seq_offsets.len() - 1
    }

    /// Adds a node with the given forward sequence, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the sequence is empty or contains
    /// non-`ACGT` bytes.
    pub fn add_node(&mut self, sequence: &[u8]) -> Result<NodeId> {
        if sequence.is_empty() {
            return Err(Error::Corrupt("empty node sequence".into()));
        }
        if !dna::is_valid_sequence(sequence) {
            return Err(Error::Corrupt("node sequence contains non-ACGT bytes".into()));
        }
        self.seq_data.extend_from_slice(sequence);
        self.seq_offsets.push(self.seq_data.len() as u64);
        Ok(NodeId::new(self.node_count() as u64))
    }

    /// Adds the edge `from -> to` and its mirror `to.flip() -> from.flip()`
    /// (the same edge when it is self-inverse). Adding an edge again, in
    /// either direction, changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint node does not exist.
    pub fn add_edge(&mut self, from: Handle, to: Handle) {
        let has = |h: Handle| (h.node().value() as usize) <= self.node_count();
        assert!(has(from), "edge from missing node {}", from.node());
        assert!(has(to), "edge to missing node {}", to.node());
        self.edges.push((from, to));
        self.edges.push((to.flip(), from.flip()));
    }

    /// The graph: every edge in its source handle's row, each row sorted
    /// and free of duplicates, and every distinct unoriented edge counted
    /// once.
    pub fn build(self) -> VariationGraph {
        let GraphBuilder { seq_data, seq_offsets, mut edges } = self;
        edges.sort_unstable();
        edges.dedup();
        let rows = 2 * (seq_offsets.len() - 1);
        let mut adj_offsets = Vec::with_capacity(rows + 1);
        adj_offsets.push(0);
        let mut end = 0;
        for from in (0..rows as u64).map(|row| row + 2) {
            end += edges[end..].iter().take_while(|(h, _)| h.packed() == from).count();
            adj_offsets.push(end as u64);
        }
        let edge_count = edges.iter().filter(|&&(from, to)| is_canonical(from, to)).count();
        let rc_seq_data = reverse_complement_arena(&seq_data, &seq_offsets);
        VariationGraph {
            seq_data,
            rc_seq_data,
            seq_offsets,
            adj_offsets,
            adj_targets: edges.into_iter().map(|(_, to)| to).collect(),
            edge_count,
        }
    }
}

/// Whether `from -> to` is the direction in which its edge is reported and
/// counted: the smaller packed endpoint first. A self-inverse edge
/// (`from == to.flip()`) has only one direction and is always canonical.
fn is_canonical(from: Handle, to: Handle) -> bool {
    from.packed() <= to.flip().packed()
}

impl VariationGraph {
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

    /// Handles reachable by one edge from `handle`, in sorted order. The
    /// handles with an edge into `handle` are `successors(handle.flip())`,
    /// each flipped.
    ///
    /// # Panics
    ///
    /// Panics if the handle's node does not exist.
    pub fn successors(&self, handle: Handle) -> &[Handle] {
        assert!(self.has_node(handle.node()), "missing node {}", handle.node());
        let row = (handle.packed() - 2) as usize;
        &self.adj_targets[self.adj_offsets[row] as usize..self.adj_offsets[row + 1] as usize]
    }

    /// Returns `true` if the edge `from -> to` exists.
    pub fn has_edge(&self, from: Handle, to: Handle) -> bool {
        self.has_node(from.node())
            && self.has_node(to.node())
            && self.successors(from).binary_search(&to).is_ok()
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
                        .filter(move |&&to| is_canonical(from, to))
                        .map(move |&to| (from, to))
                })
        })
    }

    /// Emits the graph's five `.mgi` sections: metadata, the forward ASCII
    /// arena and its node offsets, and the adjacency's two CSR arrays —
    /// each in its in-memory little-endian layout. The reverse-complement
    /// arena is not written; [`VariationGraph::from_mgi`] derives it.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        let mut meta = Vec::new();
        mgi::put_u64(&mut meta, self.node_count() as u64);
        mgi::put_u64(&mut meta, self.edge_count as u64);
        mgi::put_u64(&mut meta, self.seq_data.len() as u64);
        w.section(TAG_GRAPH_META, meta);
        w.section(TAG_GRAPH_SEQ, self.seq_data.clone());
        let mut buf = Vec::new();
        mgi::put_u64_slice(&mut buf, &self.seq_offsets);
        w.section(TAG_GRAPH_SEQ_OFFSETS, buf);
        let mut buf = Vec::new();
        mgi::put_u64_slice(&mut buf, &self.adj_offsets);
        w.section(TAG_GRAPH_ADJ_OFFSETS, buf);
        let mut buf = Vec::with_capacity(self.adj_targets.len() * 8);
        for h in &self.adj_targets {
            mgi::put_u64(&mut buf, h.packed());
        }
        w.section(TAG_GRAPH_ADJ_TARGETS, buf);
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
        let rc_seq_data = reverse_complement_arena(&seq_data, &seq_offsets);
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
            adj_offsets,
            adj_targets: targets,
            edge_count,
        };
        // `GraphBuilder` gives every edge its mirror and counts it once; a
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

/// The reverse-complement arena of a forward arena (already validated as
/// `ACGT`) cut at `seq_offsets`: each node's sequence reverse-complemented
/// in place of its forward one.
fn reverse_complement_arena(seq_data: &[u8], seq_offsets: &[u64]) -> Vec<u8> {
    let mut rc = Vec::with_capacity(seq_data.len());
    for w in seq_offsets.windows(2) {
        let node = &seq_data[w[0] as usize..w[1] as usize];
        rc.extend(node.iter().rev().map(|&b| dna::complement(b)));
    }
    rc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 1: ACG -> {2: T, 3: G} -> 4: AA, still open for more nodes.
    fn diamond_builder() -> (GraphBuilder, [NodeId; 4]) {
        let mut g = GraphBuilder::new();
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

    fn diamond() -> (VariationGraph, [NodeId; 4]) {
        let (g, ids) = diamond_builder();
        (g.build(), ids)
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
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(b"A").unwrap();
        let b = g.add_node(b"C").unwrap();
        g.add_edge(Handle::forward(a), Handle::forward(b));
        g.add_edge(Handle::forward(a), Handle::forward(b));
        // The same edge added through its mirror.
        g.add_edge(Handle::reverse(b), Handle::reverse(a));
        let g = g.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(Handle::forward(a)), &[Handle::forward(b)]);
        assert_eq!(g.successors(Handle::reverse(b)), &[Handle::reverse(a)]);
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
        let mut g = GraphBuilder::new();
        let a = g.add_node(b"AC").unwrap();
        let b = g.add_node(b"GG").unwrap();
        g.add_edge(Handle::forward(a), Handle::reverse(b));
        let g = g.build();
        assert_eq!(g.successors(Handle::forward(a)), &[Handle::reverse(b)]);
        // Mirror: 2+ -> 1-.
        assert_eq!(g.successors(Handle::forward(b)), &[Handle::reverse(a)]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_invalid_sequences() {
        let mut g = GraphBuilder::new();
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
        let g = GraphBuilder::new().build();
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
                let mut g = GraphBuilder::new();
                let ids: Vec<NodeId> = seqs.iter().map(|s| g.add_node(s).unwrap()).collect();
                for (from, to) in random_edges(&ids, &raw_edges) {
                    g.add_edge(from, to);
                }
                g.build()
            })
    }

    /// Raw random draws as edges between `ids`, either strand at each end.
    fn random_edges(ids: &[NodeId], raw: &[(u64, u64, bool, bool)]) -> Vec<(Handle, Handle)> {
        let strand = |id: NodeId, rev: bool| if rev { Handle::reverse(id) } else { Handle::forward(id) };
        raw.iter()
            .map(|&(f, t, fr, tr)| {
                let from = ids[(f % ids.len() as u64) as usize];
                let to = ids[(t % ids.len() as u64) as usize];
                (strand(from, fr), strand(to, tr))
            })
            .collect()
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
        let (mut g, [a, b, _, d]) = diamond_builder();
        let long: Vec<u8> = (0..70).map(|i| dna::BASES[(i * 7 + 3) % 4]).collect();
        let e = g.add_node(&long).unwrap();
        g.add_edge(Handle::forward(d), Handle::reverse(e));
        let g = g.build();
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
    }

    /// A graph whose arena and offsets span three read blocks loads whole,
    /// and one flipped byte in the last block of its offsets, whose sum
    /// the reader only knows at the end, loads no graph.
    #[test]
    fn multi_block_sections_load_and_a_late_flip_loads_nothing() {
        let mut g = GraphBuilder::new();
        let nodes = 2 * mgi::BLOCK_LEN / 8 + 100;
        for i in 0..nodes {
            let id = g.add_node(&[dna::BASES[i % 4]; 8]).unwrap();
            if i > 0 {
                g.add_edge(Handle::forward(NodeId::new(id.value() - 1)), Handle::forward(id));
            }
        }
        let g = g.build();
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
        /// The builder against one vector per handle filled edge by edge,
        /// each insertion checking for the edge, adding its mirror and
        /// counting it once: the same rows and the same edge count.
        #[test]
        fn prop_builder_equals_per_row_insertion(
            nodes in 1usize..12,
            raw_edges in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()), 0..40),
        ) {
            let mut g = GraphBuilder::new();
            let ids: Vec<NodeId> = (0..nodes).map(|i| g.add_node(&b"ACGT"[..1 + i % 4]).unwrap()).collect();
            let mut rows = vec![Vec::<Handle>::new(); 2 * nodes];
            let mut edge_count = 0;
            for (from, to) in random_edges(&ids, &raw_edges) {
                g.add_edge(from, to);
                let (fwd, back) = ((from.packed() - 2) as usize, (to.flip().packed() - 2) as usize);
                if rows[fwd].contains(&to) {
                    continue;
                }
                rows[fwd].push(to);
                if !rows[back].contains(&from.flip()) {
                    rows[back].push(from.flip());
                }
                edge_count += 1;
            }
            let g = g.build();
            prop_assert_eq!(g.edge_count(), edge_count);
            for (i, row) in rows.iter_mut().enumerate() {
                row.sort_unstable();
                prop_assert_eq!(g.successors(Handle::from_gbwt(i as u64 + 2).unwrap()), &row[..]);
            }
        }

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
            // The accessors agree with the arrays compared above.
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
            // Derived by `GraphBuilder::build`, and again by `from_mgi`.
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
        let mut g = GraphBuilder::new();
        let seq: Vec<u8> = (0..70).map(|i| dna::BASES[(i * 7 + 3) % 4]).collect();
        let a = g.add_node(&seq).unwrap();
        let g = g.build();
        let h = Handle::reverse(a);
        assert!(matches!(g.sequence(h), Cow::Borrowed(_)));
        assert_eq!(g.sequence(h).as_ref(), dna::reverse_complement(&seq));
    }
}
