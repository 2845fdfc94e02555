//! Core data types shared by the proxy and parent pipelines.

use mg_graph::Handle;
use mg_index::GraphPos;

/// A seed: a read offset anchored to a graph position.
///
/// Seeds are produced by the minimizer lookup (a read k-mer occurring in the
/// pangenome) and are where the walk-and-compare extension starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Seed {
    /// Offset in the read of the first matched base.
    pub read_offset: u32,
    /// Matching position in the graph.
    pub pos: GraphPos,
}

impl Seed {
    /// Creates a seed.
    pub fn new(read_offset: u32, pos: GraphPos) -> Self {
        Seed { read_offset, pos }
    }
}

/// Whether reads come from one end or both ends of the DNA fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Workflow {
    /// Single-end reads (input sets A-human, B-yeast).
    #[default]
    Single,
    /// Paired-end reads (input sets C-HPRC, D-HPRC); reads `2i` and
    /// `2i + 1` are mates.
    Paired,
}

impl std::fmt::Display for Workflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workflow::Single => write!(f, "single"),
            Workflow::Paired => write!(f, "paired"),
        }
    }
}

/// One read plus its preprocessed seeds: the unit of the proxy's input.
///
/// This is what Giraffe's preprocessing hands the seed-and-extend stage, and
/// exactly what the paper's `sequence-seeds.bin` dump captures.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReadInput {
    /// The read's bases (`ACGT`, possibly `N`).
    pub bases: Vec<u8>,
    /// Seeds found for this read, any order.
    pub seeds: Vec<Seed>,
}

/// A gapless extension: the proxy's output unit ("the offsets and scores of
/// each match").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extension {
    /// Index of the read in its dump.
    pub read_id: u64,
    /// First read base covered by the extension.
    pub read_start: u32,
    /// One past the last read base covered.
    pub read_end: u32,
    /// Graph position of the read base at `read_start`.
    pub pos: GraphPos,
    /// The oriented nodes the extension walks, in order.
    pub path: Vec<Handle>,
    /// Alignment score (matches minus mismatch penalties).
    pub score: i32,
    /// Number of mismatches tolerated inside the extension.
    pub mismatches: u32,
}

impl Extension {
    /// Number of read bases covered.
    pub fn len(&self) -> u32 {
        self.read_end - self.read_start
    }

    /// Returns `true` for a degenerate empty extension.
    pub fn is_empty(&self) -> bool {
        self.read_end == self.read_start
    }

    /// The comparison key used for functional validation: position + span +
    /// score identify a match independent of exploration order.
    pub fn validation_key(&self) -> ExtensionKey {
        ExtensionKey {
            read_id: self.read_id,
            read_start: self.read_start,
            read_end: self.read_end,
            handle: self.pos.handle.packed(),
            offset: self.pos.offset,
            score: self.score,
        }
    }
}

/// Order-independent identity of an extension (see
/// [`Extension::validation_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtensionKey {
    /// Read index in the dump.
    pub read_id: u64,
    /// Covered read interval start.
    pub read_start: u32,
    /// Covered read interval end (exclusive).
    pub read_end: u32,
    /// Packed handle of the starting graph position.
    pub handle: u64,
    /// Offset within the handle.
    pub offset: u32,
    /// Alignment score.
    pub score: i32,
}

/// All extensions found for one read.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReadResult {
    /// Index of the read in its dump.
    pub read_id: u64,
    /// Extensions, best score first.
    pub extensions: Vec<Extension>,
}

impl ReadResult {
    /// The best extension score, if any extension was found.
    pub fn best_score(&self) -> Option<i32> {
        self.extensions.first().map(|e| e.score)
    }

    /// Whether the read produced a full-length match with no mismatches.
    pub fn has_perfect_match(&self, read_len: u32) -> bool {
        self.extensions
            .iter()
            .any(|e| e.len() == read_len && e.mismatches == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::NodeId;

    fn gp(node: u64, off: u32) -> GraphPos {
        GraphPos::new(Handle::forward(NodeId::new(node)), off)
    }

    #[test]
    fn seed_ordering_is_by_read_offset_then_pos() {
        let a = Seed::new(1, gp(5, 0));
        let b = Seed::new(2, gp(1, 0));
        assert!(a < b);
    }

    #[test]
    fn extension_len_and_empty() {
        let e = Extension {
            read_id: 0,
            read_start: 10,
            read_end: 40,
            pos: gp(1, 0),
            path: vec![],
            score: 30,
            mismatches: 0,
        };
        assert_eq!(e.len(), 30);
        assert!(!e.is_empty());
    }

    #[test]
    fn validation_key_ignores_path() {
        let mut e1 = Extension {
            read_id: 7,
            read_start: 0,
            read_end: 20,
            pos: gp(3, 4),
            path: vec![Handle::forward(NodeId::new(3))],
            score: 20,
            mismatches: 0,
        };
        let e2 = e1.clone();
        e1.path.push(Handle::forward(NodeId::new(4)));
        assert_eq!(e1.validation_key(), e2.validation_key());
    }

    #[test]
    fn read_result_best_score() {
        let mut r = ReadResult { read_id: 0, extensions: vec![] };
        assert_eq!(r.best_score(), None);
        r.extensions.push(Extension {
            read_id: 0,
            read_start: 0,
            read_end: 50,
            pos: gp(1, 0),
            path: vec![],
            score: 50,
            mismatches: 0,
        });
        assert_eq!(r.best_score(), Some(50));
        assert!(r.has_perfect_match(50));
        assert!(!r.has_perfect_match(60));
    }

    #[test]
    fn workflow_display() {
        assert_eq!(Workflow::Single.to_string(), "single");
        assert_eq!(Workflow::Paired.to_string(), "paired");
    }
}
