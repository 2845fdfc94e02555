//! 2-bit packed sequence storage.
//!
//! Bases pack LSB-first into `u64` words, 32 bases per word: base `j` of a
//! buffer occupies bits `2*(j % 32)..2*(j % 32) + 2` of word `j / 32`, so
//! ascending base order is ascending bit order and a window of 32 bases at
//! any offset is two shifts away ([`word_at`]). The graph keeps one packed
//! arena per strand ([`PackedSeqStore`]) with every node aligned to a fresh
//! word boundary. The arenas are written to and mapped from `.mgi`
//! containers; the extension kernel compares the graph's ASCII arenas, not
//! these.

use mg_support::mgi::Storage;

use crate::dna;

pub use mg_kernels::{word_at, BASES_PER_WORD};

/// Word-aligned packed arenas of a graph's node sequences, one per strand.
///
/// Every node begins at a fresh word boundary, so a node's packed view is a
/// plain word-slice and never aliases its neighbours. The reverse arena
/// stores each node's reverse complement in ascending order, making the
/// oriented view of `Handle::reverse` as cheap as the forward one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSeqStore {
    /// Forward-strand words of all nodes.
    words: Storage<u64>,
    /// Reverse-complement words of all nodes, same offsets as `words`.
    rc_words: Storage<u64>,
    /// `word_offsets[i]..word_offsets[i + 1]` are the words of node `i + 1`.
    word_offsets: Storage<u64>,
}

impl Default for PackedSeqStore {
    fn default() -> Self {
        PackedSeqStore::new()
    }
}

impl PackedSeqStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PackedSeqStore {
            words: Storage::default(),
            rc_words: Storage::default(),
            word_offsets: vec![0u64].into(),
        }
    }

    /// Rebuilds a store from its three arrays (the zero-copy `.mgi` path).
    /// The caller is responsible for structural validation; see
    /// `VariationGraph::from_mgi`.
    pub(crate) fn from_parts(
        words: Storage<u64>,
        rc_words: Storage<u64>,
        word_offsets: Storage<u64>,
    ) -> Self {
        PackedSeqStore { words, rc_words, word_offsets }
    }

    /// The forward word arena.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The reverse-complement word arena.
    pub(crate) fn rc_words(&self) -> &[u64] {
        &self.rc_words
    }

    /// The per-node word offsets (one trailing sentinel).
    pub(crate) fn word_offsets(&self) -> &[u64] {
        &self.word_offsets
    }

    /// Appends a node's sequence (already validated as `ACGT`) to both
    /// strand arenas.
    ///
    /// # Panics
    ///
    /// Panics if the store is backed by a memory map (mapped stores are
    /// immutable).
    pub fn push_node(&mut self, sequence: &[u8]) {
        let n_words = sequence.len().div_ceil(BASES_PER_WORD);
        let base = *self.word_offsets.last().expect("offset sentinel") as usize;
        let words = self.words.vec_mut();
        let rc_words = self.rc_words.vec_mut();
        words.resize(words.len() + n_words, 0);
        rc_words.resize(rc_words.len() + n_words, 0);
        let last = sequence.len() - 1;
        for (j, &b) in sequence.iter().enumerate() {
            let code = dna::encode2(b) as u64;
            words[base + j / BASES_PER_WORD] |= code << (2 * (j % BASES_PER_WORD));
            let rj = last - j;
            rc_words[base + rj / BASES_PER_WORD] |= (code ^ 0b11) << (2 * (rj % BASES_PER_WORD));
        }
        self.word_offsets.vec_mut().push((base + n_words) as u64);
    }

    /// The packed view of node `node_id`'s sequence read along
    /// `orientation_reverse ? reverse : forward`, with `len` bases.
    #[inline]
    pub fn view(&self, node_index: usize, len: usize, reverse: bool) -> PackedView<'_> {
        let start = self.word_offsets[node_index - 1] as usize;
        let end = self.word_offsets[node_index] as usize;
        let arena: &[u64] = if reverse { &self.rc_words } else { &self.words };
        PackedView { words: &arena[start..end], len }
    }

    /// Approximate heap usage in bytes (zero for mapped arenas).
    pub fn heap_bytes(&self) -> usize {
        self.words.heap_bytes() + self.rc_words.heap_bytes() + self.word_offsets.heap_bytes()
    }
}

/// A borrowed, word-aligned packed view of one oriented node sequence.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    words: &'a [u64],
    len: usize,
}

impl PackedView<'_> {
    /// Bases in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for a zero-length view.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 32 bases starting at base offset `start` (cheap sub-slicing: any
    /// offset, two shifts). Bases past `len` read as zero.
    #[inline(always)]
    pub fn word(&self, start: usize) -> u64 {
        word_at(self.words, start)
    }

    /// The 2-bit code of base `offset`.
    #[inline]
    pub fn code(&self, offset: usize) -> u8 {
        debug_assert!(offset < self.len);
        ((self.words[offset / BASES_PER_WORD] >> (2 * (offset % BASES_PER_WORD))) & 0b11) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spell(view: &PackedView<'_>) -> Vec<u8> {
        (0..view.len()).map(|i| dna::decode_base(view.code(i))).collect()
    }

    #[test]
    fn store_views_match_both_strands() {
        let mut store = PackedSeqStore::new();
        store.push_node(b"ACGT");
        store.push_node(b"GGGTTTAACC");
        let v = store.view(1, 4, false);
        assert_eq!(spell(&v), b"ACGT");
        let v = store.view(1, 4, true);
        assert_eq!(spell(&v), b"ACGT"); // ACGT is its own revcomp
        let v = store.view(2, 10, false);
        assert_eq!(spell(&v), b"GGGTTTAACC");
        let v = store.view(2, 10, true);
        assert_eq!(spell(&v), dna::reverse_complement(b"GGGTTTAACC"));
    }

    #[test]
    fn word_extraction_crosses_boundaries() {
        // 40 bases: word 1 holds the last 8; extraction at offset 30 must
        // stitch both words.
        let seq: Vec<u8> = (0..40).map(|i| dna::BASES[i % 4]).collect();
        let mut store = PackedSeqStore::new();
        store.push_node(&seq);
        let view = store.view(1, 40, false);
        for start in 0..40 {
            let w = view.word(start);
            for j in 0..BASES_PER_WORD.min(40 - start) {
                let code = ((w >> (2 * j)) & 0b11) as u8;
                assert_eq!(code, dna::encode2(seq[start + j]), "start {start} lane {j}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_views_spell_the_node(
            seqs in proptest::collection::vec(
                proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 1..100),
                1..12,
            )
        ) {
            let mut store = PackedSeqStore::new();
            for s in &seqs {
                store.push_node(s);
            }
            for (i, s) in seqs.iter().enumerate() {
                let fwd = store.view(i + 1, s.len(), false);
                prop_assert_eq!(spell(&fwd), s.clone());
                let rc = store.view(i + 1, s.len(), true);
                prop_assert_eq!(spell(&rc), dna::reverse_complement(s));
            }
        }
    }
}
