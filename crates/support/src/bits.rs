//! Bit vectors and bit-packed integer vectors.
//!
//! [`BitVec`] is a plain (uncompressed) bit vector with a small rank
//! directory; [`IntVec`] stores fixed-width unsigned integers back to back.
//! Both are the storage primitives of the GBWT node records and of the
//! minimizer index.

/// A plain bit vector with constant-time rank support.
///
/// Bits are stored in 64-bit words. A rank directory with one entry per word
/// is built lazily by [`BitVec::enable_rank`] (and automatically by the
/// queries that need it), costing one extra `u64` per word (~1.56%
/// overhead per bit at 64 bits/entry granularity).
///
/// # Examples
///
/// ```
/// use mg_support::bits::BitVec;
///
/// let mut bv = BitVec::new(10);
/// bv.set(2, true);
/// bv.set(7, true);
/// assert!(bv.get(2));
/// assert_eq!(bv.count_ones(), 2);
/// assert_eq!(bv.rank1(3), 1);
/// assert_eq!(bv.select1(1), Some(7));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
    /// `rank_dir[i]` = number of 1 bits in `words[..i]`. Empty until built.
    rank_dir: Vec<u64>,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    pub fn new(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
            rank_dir: Vec::new(),
        }
    }

    /// Builds a bit vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut current = 0u64;
        for b in iter {
            if b {
                current |= 1 << (len % 64);
            }
            len += 1;
            if len.is_multiple_of(64) {
                words.push(current);
                current = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(current);
        }
        BitVec {
            words,
            len,
            rank_dir: Vec::new(),
        }
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range {}", self.len);
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// Sets the bit at `index` to `value`, invalidating the rank directory.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(index < self.len, "bit index {index} out of range {}", self.len);
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
        self.rank_dir.clear();
    }

    /// Appends a bit, invalidating the rank directory.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if value {
            let idx = self.len;
            self.words[idx / 64] |= 1 << (idx % 64);
        }
        self.len += 1;
        self.rank_dir.clear();
    }

    /// Total number of 1 bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Precomputes the rank directory; idempotent.
    pub fn enable_rank(&mut self) {
        if !self.rank_dir.is_empty() || self.words.is_empty() {
            return;
        }
        let mut dir = Vec::with_capacity(self.words.len());
        let mut acc = 0u64;
        for w in &self.words {
            dir.push(acc);
            acc += w.count_ones() as u64;
        }
        self.rank_dir = dir;
    }

    /// Number of 1 bits strictly before `index` (so `rank1(len)` counts all).
    ///
    /// Runs in O(1) when the rank directory is built, O(index/64) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `index > self.len()`.
    pub fn rank1(&self, index: usize) -> usize {
        assert!(index <= self.len, "rank index {index} out of range {}", self.len);
        let word_idx = index / 64;
        let bit_idx = index % 64;
        let before_words = if !self.rank_dir.is_empty() {
            // Directory covers whole words; word_idx == words.len() only when
            // index == len and len is a multiple of 64.
            if word_idx == self.words.len() {
                return self.rank_dir.last().map_or(0, |&last| {
                    last as usize + self.words.last().unwrap().count_ones() as usize
                });
            }
            self.rank_dir[word_idx] as usize
        } else {
            self.words[..word_idx]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum()
        };
        let partial = if bit_idx == 0 || word_idx == self.words.len() {
            0
        } else {
            (self.words[word_idx] & ((1u64 << bit_idx) - 1)).count_ones() as usize
        };
        before_words + partial
    }

    /// Number of 0 bits strictly before `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > self.len()`.
    pub fn rank0(&self, index: usize) -> usize {
        index - self.rank1(index)
    }

    /// Position of the `k`-th (0-based) 1 bit, or `None` if there are fewer
    /// than `k + 1` set bits. O(words) scan plus an in-word select.
    pub fn select1(&self, k: usize) -> Option<usize> {
        let mut remaining = k;
        for (wi, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if remaining < ones {
                return Some(wi * 64 + select_in_word(w, remaining));
            }
            remaining -= ones;
        }
        None
    }

    /// Iterates over the positions of all 1 bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Approximate heap usage in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.words.capacity() + self.rank_dir.capacity()) * 8
    }
}

/// Returns the bit position of the `k`-th (0-based) set bit inside `word`.
///
/// # Panics
///
/// Panics in debug builds if `word` has fewer than `k + 1` set bits.
fn select_in_word(word: u64, k: usize) -> usize {
    debug_assert!((word.count_ones() as usize) > k);
    let mut w = word;
    for _ in 0..k {
        w &= w - 1; // clear lowest set bit
    }
    w.trailing_zeros() as usize
}

/// A bit-packed vector of fixed-width unsigned integers.
///
/// All values share one width (1–64 bits); values are stored contiguously
/// across 64-bit words. This is the storage used for node identifiers inside
/// GBWT records and for minimizer hash tables.
///
/// # Examples
///
/// ```
/// use mg_support::bits::IntVec;
///
/// let mut v = IntVec::new(7);
/// v.push(100);
/// v.push(127);
/// assert_eq!(v.get(1), 127);
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntVec {
    words: Vec<u64>,
    width: u32,
    len: usize,
}

impl IntVec {
    /// Creates an empty vector holding `width`-bit values.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(width: u32) -> Self {
        assert!((1..=64).contains(&width), "width {width} must be in 1..=64");
        IntVec {
            words: Vec::new(),
            width,
            len: 0,
        }
    }

    /// Creates a vector wide enough to hold `max_value`, i.e. with width
    /// `bit_len(max_value)` (at least 1).
    pub fn with_max_value(max_value: u64) -> Self {
        Self::new(bit_width(max_value))
    }

    /// Builds a packed vector from a slice, sized for its maximum element.
    pub fn from_slice(values: &[u64]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let mut v = Self::with_max_value(max);
        for &x in values {
            v.push(x);
        }
        v
    }

    /// The fixed width in bits of each element.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a value.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the configured width.
    pub fn push(&mut self, value: u64) {
        assert!(
            self.width == 64 || value < (1u64 << self.width),
            "value {value} does not fit in {} bits",
            self.width
        );
        let bit_pos = self.len * self.width as usize;
        let word_idx = bit_pos / 64;
        let bit_idx = (bit_pos % 64) as u32;
        let end = bit_pos + self.width as usize;
        if end.div_ceil(64) > self.words.len() {
            self.words.resize(end.div_ceil(64), 0);
        }
        self.words[word_idx] |= value << bit_idx;
        if bit_idx + self.width > 64 {
            self.words[word_idx + 1] |= value >> (64 - bit_idx);
        }
        self.len += 1;
    }

    /// Returns the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn get(&self, index: usize) -> u64 {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        let bit_pos = index * self.width as usize;
        let word_idx = bit_pos / 64;
        let bit_idx = (bit_pos % 64) as u32;
        let mut value = self.words[word_idx] >> bit_idx;
        if bit_idx + self.width > 64 {
            value |= self.words[word_idx + 1] << (64 - bit_idx);
        }
        if self.width < 64 {
            value &= (1u64 << self.width) - 1;
        }
        value
    }

    /// Overwrites the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` or `value` does not fit in the width.
    pub fn set(&mut self, index: usize, value: u64) {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        assert!(
            self.width == 64 || value < (1u64 << self.width),
            "value {value} does not fit in {} bits",
            self.width
        );
        let bit_pos = index * self.width as usize;
        let word_idx = bit_pos / 64;
        let bit_idx = (bit_pos % 64) as u32;
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        self.words[word_idx] &= !(mask << bit_idx);
        self.words[word_idx] |= value << bit_idx;
        if bit_idx + self.width > 64 {
            let hi_bits = bit_idx + self.width - 64;
            let hi_mask = (1u64 << hi_bits) - 1;
            self.words[word_idx + 1] &= !hi_mask;
            self.words[word_idx + 1] |= value >> (64 - bit_idx);
        }
    }

    /// Iterates over all elements in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Approximate heap usage in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

impl FromIterator<u64> for IntVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let values: Vec<u64> = iter.into_iter().collect();
        Self::from_slice(&values)
    }
}

/// Number of bits needed to represent `value` (1 for zero).
///
/// ```
/// use mg_support::bits::bit_width;
/// assert_eq!(bit_width(0), 1);
/// assert_eq!(bit_width(1), 1);
/// assert_eq!(bit_width(255), 8);
/// assert_eq!(bit_width(256), 9);
/// ```
pub fn bit_width(value: u64) -> u32 {
    (64 - value.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_bitvec() {
        let bv = BitVec::new(0);
        assert!(bv.is_empty());
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.rank1(0), 0);
        assert_eq!(bv.select1(0), None);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bv = BitVec::new(130);
        for i in (0..130).step_by(3) {
            bv.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn set_false_clears() {
        let mut bv = BitVec::new(64);
        bv.set(10, true);
        bv.set(10, false);
        assert!(!bv.get(10));
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn rank_with_and_without_directory_agree() {
        let mut bv = BitVec::from_bools((0..500).map(|i| i % 7 == 0));
        let plain: Vec<usize> = (0..=500).map(|i| bv.rank1(i)).collect();
        bv.enable_rank();
        let cached: Vec<usize> = (0..=500).map(|i| bv.rank1(i)).collect();
        assert_eq!(plain, cached);
    }

    #[test]
    fn rank_full_length_counts_all() {
        let bv = BitVec::from_bools((0..128).map(|i| i % 2 == 0));
        assert_eq!(bv.rank1(128), 64);
        let mut bv2 = bv.clone();
        bv2.enable_rank();
        assert_eq!(bv2.rank1(128), 64);
    }

    #[test]
    fn rank0_complements_rank1() {
        let bv = BitVec::from_bools((0..100).map(|i| i % 3 == 1));
        for i in 0..=100 {
            assert_eq!(bv.rank0(i) + bv.rank1(i), i);
        }
    }

    #[test]
    fn select_finds_kth_one() {
        let bv = BitVec::from_bools((0..300).map(|i| i % 10 == 5));
        for k in 0..30 {
            assert_eq!(bv.select1(k), Some(k * 10 + 5));
        }
        assert_eq!(bv.select1(30), None);
    }

    #[test]
    fn select_rank_inverse() {
        let bv = BitVec::from_bools((0..1000).map(|i| i % 13 == 0));
        let ones = bv.count_ones();
        for k in 0..ones {
            let pos = bv.select1(k).unwrap();
            assert_eq!(bv.rank1(pos), k);
            assert!(bv.get(pos));
        }
    }

    #[test]
    fn iter_ones_matches_select() {
        let bv = BitVec::from_bools((0..200).map(|i| i % 17 == 3));
        let from_iter: Vec<usize> = bv.iter_ones().collect();
        let from_select: Vec<usize> = (0..bv.count_ones()).map(|k| bv.select1(k).unwrap()).collect();
        assert_eq!(from_iter, from_select);
    }

    #[test]
    fn push_extends() {
        let mut bv = BitVec::new(0);
        for i in 0..70 {
            bv.push(i % 2 == 0);
        }
        assert_eq!(bv.len(), 70);
        assert_eq!(bv.count_ones(), 35);
        assert!(bv.get(68));
        assert!(!bv.get(69));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::new(5).get(5);
    }

    #[test]
    fn intvec_push_get() {
        let mut v = IntVec::new(13);
        let values: Vec<u64> = (0..100).map(|i| (i * 37) % 8192).collect();
        for &x in &values {
            v.push(x);
        }
        for (i, &x) in values.iter().enumerate() {
            assert_eq!(v.get(i), x, "element {i}");
        }
    }

    #[test]
    fn intvec_64_bit_width() {
        let mut v = IntVec::new(64);
        v.push(u64::MAX);
        v.push(0);
        v.push(u64::MAX / 3);
        assert_eq!(v.get(0), u64::MAX);
        assert_eq!(v.get(1), 0);
        assert_eq!(v.get(2), u64::MAX / 3);
    }

    #[test]
    fn intvec_set_overwrites_without_corrupting_neighbors() {
        let mut v = IntVec::new(11);
        for i in 0..50 {
            v.push(i);
        }
        v.set(25, 2047);
        assert_eq!(v.get(24), 24);
        assert_eq!(v.get(25), 2047);
        assert_eq!(v.get(26), 26);
        v.set(25, 0);
        assert_eq!(v.get(25), 0);
        assert_eq!(v.get(24), 24);
        assert_eq!(v.get(26), 26);
    }

    #[test]
    fn intvec_from_slice_sizes_width() {
        let v = IntVec::from_slice(&[1, 2, 300]);
        assert_eq!(v.width(), 9);
        assert_eq!(v.get(2), 300);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn intvec_push_too_wide_panics() {
        let mut v = IntVec::new(4);
        v.push(16);
    }

    #[test]
    fn bit_width_edges() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(u64::MAX), 64);
        assert_eq!(bit_width(1 << 33), 34);
    }

    proptest! {
        #[test]
        fn prop_bitvec_rank_select_consistent(bits in proptest::collection::vec(any::<bool>(), 0..800)) {
            let mut bv = BitVec::from_bools(bits.iter().copied());
            bv.enable_rank();
            let mut count = 0usize;
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(bv.rank1(i), count);
                if b {
                    prop_assert_eq!(bv.select1(count), Some(i));
                    count += 1;
                }
            }
            prop_assert_eq!(bv.count_ones(), count);
        }

        #[test]
        fn prop_intvec_roundtrip(width in 1u32..=64, raw in proptest::collection::vec(any::<u64>(), 0..300)) {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let values: Vec<u64> = raw.iter().map(|x| x & mask).collect();
            let mut v = IntVec::new(width);
            for &x in &values {
                v.push(x);
            }
            prop_assert_eq!(v.len(), values.len());
            for (i, &x) in values.iter().enumerate() {
                prop_assert_eq!(v.get(i), x);
            }
        }

        #[test]
        fn prop_intvec_set_any_position(raw in proptest::collection::vec(0u64..5000, 1..200), pos_seed: usize, val in 0u64..5000) {
            let mut v = IntVec::from_slice(&raw);
            let width = v.width();
            let max_ok = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let val = val & max_ok;
            let pos = pos_seed % raw.len();
            v.set(pos, val);
            for (i, &old) in raw.iter().enumerate() {
                let expect = if i == pos { val } else { old };
                prop_assert_eq!(v.get(i), expect);
            }
        }
    }
}
