//! Word-level primitives shared by the kernel crates.
//!
//! This crate is the bottom of the kernel dependency stack: the 2-bit window
//! extraction the graph's packed sequence store is built on, and the
//! splitmix k-mer hash the minimizer scheme orders windows with. All of it
//! is safe, portable integer arithmetic; there is no CPU-feature dispatch.
//! (The extension walk compares ASCII bytes eight at a time and needs
//! nothing from here.)

/// Bases per packed word.
pub const BASES_PER_WORD: usize = 32;

/// Extracts the 32 bases beginning at base offset `start` from a packed
/// buffer, crossing the word boundary when unaligned. Bases past the end of
/// `words` read as zero.
#[inline(always)]
pub fn word_at(words: &[u64], start: usize) -> u64 {
    let w = start / BASES_PER_WORD;
    let b = (start % BASES_PER_WORD) * 2;
    let lo = words.get(w).copied().unwrap_or(0) >> b;
    if b == 0 {
        lo
    } else {
        lo | (words.get(w + 1).copied().unwrap_or(0) << (64 - b))
    }
}

/// Invertible 64-bit hash (Thomas Wang / minimap2 style), used to order
/// k-mers within a minimizer window so minimizers are spread
/// pseudo-randomly. Scalar only: two 64-bit multiplies per k-mer, inlined
/// into the extraction loop, beat a 4-wide AVX2 body that has to emulate
/// each 64-bit multiply and sits behind a call boundary.
#[inline]
pub fn hash_kmer(kmer: u64) -> u64 {
    let mut x = kmer.wrapping_add(SPLITMIX_GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(SPLITMIX_M1);
    x = (x ^ (x >> 27)).wrapping_mul(SPLITMIX_M2);
    x ^ (x >> 31)
}

const SPLITMIX_GOLDEN: u64 = 0x9E3779B97F4A7C15;
const SPLITMIX_M1: u64 = 0xBF58476D1CE4E5B9;
const SPLITMIX_M2: u64 = 0x94D049BB133111EB;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_word_at_reads_lanes(words in proptest::collection::vec(any::<u64>(), 0..6), start in 0usize..200) {
            let w = word_at(&words, start);
            for j in 0..BASES_PER_WORD {
                let base = start + j;
                let expect = words
                    .get(base / BASES_PER_WORD)
                    .map_or(0, |&word| (word >> (2 * (base % BASES_PER_WORD))) & 0b11);
                prop_assert_eq!((w >> (2 * j)) & 0b11, expect);
            }
        }
    }
}
