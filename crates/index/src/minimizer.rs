//! Minimizer index: the seeding stage of Giraffe.
//!
//! A *(k, w)-minimizer* of a sequence is the k-mer with the smallest hash in
//! each window of `w` consecutive k-mers. Indexing the minimizers of every
//! haplotype path (in both orientations) lets a mapper find, for each
//! minimizer of a read, the graph positions where that k-mer occurs — the
//! *seeds* that the clustering and extension kernels consume.

use mg_graph::{dna, Handle, VariationGraph};
use mg_support::{Error, Result};

/// A position in the graph: a spot on an oriented node.
///
/// `repr(C)` pins the layout (handle at 0, offset at 8, 4 tail padding
/// bytes, 16 bytes total), the same as its 16 stored bytes in a `.mgi`
/// section, whose padding the writer emits as zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C)]
pub struct GraphPos {
    /// The oriented node.
    pub handle: Handle,
    /// Offset in bases along the handle's oriented sequence.
    pub offset: u32,
}

impl GraphPos {
    /// Creates a graph position.
    pub fn new(handle: Handle, offset: u32) -> Self {
        GraphPos { handle, offset }
    }

    /// The same base read on the other strand: the flipped handle, at
    /// offset `node_len - 1 - offset` along it. `node_len` is the length
    /// of the position's node, and the offset must lie inside it.
    #[inline]
    pub fn flipped(self, node_len: u32) -> Self {
        GraphPos { handle: self.handle.flip(), offset: node_len - 1 - self.offset }
    }
}

/// A minimizer extracted from a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minimizer {
    /// Packed 2-bit k-mer value.
    pub kmer: u64,
    /// Offset of the k-mer's first base in the sequence.
    pub offset: u32,
}

/// Parameters of the minimizer scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizerParams {
    /// K-mer length (1..=31).
    pub k: usize,
    /// Window length in k-mers (>= 1).
    pub w: usize,
}

impl Default for MinimizerParams {
    /// Giraffe's short-read defaults: k = 29, w = 11.
    fn default() -> Self {
        MinimizerParams { k: 29, w: 11 }
    }
}

impl MinimizerParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= 31` and `w >= 1`.
    pub fn new(k: usize, w: usize) -> Self {
        assert!((1..=31).contains(&k), "k must be in 1..=31");
        assert!(w >= 1, "w must be >= 1");
        MinimizerParams { k, w }
    }
}

/// Invertible 64-bit hash (Thomas Wang / minimap2 style), used to order
/// k-mers within a window so minimizers are spread pseudo-randomly.
/// Scalar only: two 64-bit multiplies per k-mer, inlined into the
/// extraction loop, beat a 4-wide AVX2 body that has to emulate each 64-bit
/// multiply and sits behind a call boundary.
#[inline(always)]
pub fn hash_kmer(kmer: u64) -> u64 {
    let mut x = kmer.wrapping_add(SPLITMIX_GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(SPLITMIX_M1);
    x = (x ^ (x >> 27)).wrapping_mul(SPLITMIX_M2);
    x ^ (x >> 31)
}

const SPLITMIX_GOLDEN: u64 = 0x9E3779B97F4A7C15;
const SPLITMIX_M1: u64 = 0xBF58476D1CE4E5B9;
const SPLITMIX_M2: u64 = 0x94D049BB133111EB;

/// Marks a k-mer slot whose k bases include a non-ACGT byte. A real k-mer
/// is at most 62 bits (`k <= 31`), so the value cannot collide with one.
const INVALID_KMER: u64 = u64::MAX;

/// Reusable buffers for minimizer extraction and seed queries.
///
/// Holding them here lets a mapping thread seed every read without touching
/// the allocator, matching the zero-alloc extension scratch.
#[derive(Debug, Clone, Default)]
pub struct MinimizerScratch {
    /// Packed k-mer per k-mer start, [`INVALID_KMER`] across a gap.
    kmers: Vec<u64>,
    /// Hash per k-mer start; unwritten (stale) where the k-mer is invalid.
    hashes: Vec<u64>,
    /// Minimizer staging buffer for [`MinimizerIndex::query_into`].
    mins: Vec<Minimizer>,
}

/// Extracts the (k, w)-minimizers of `seq`.
///
/// A window is `w` consecutive k-mers. A k-mer spanning a non-ACGT byte is
/// invalid and is never a minimizer. A window reports only if its *last*
/// k-mer is valid, and then reports the valid k-mer with the smallest hash
/// (leftmost on ties) — invalid k-mers earlier in the window are skipped
/// rather than silencing it, so a window straddling an `N` still reports
/// the minimum of the k-mers on either side. Consecutive windows sharing
/// their minimizer report it once.
pub fn extract_minimizers(seq: &[u8], params: MinimizerParams) -> Vec<Minimizer> {
    let mut scratch = MinimizerScratch::default();
    let mut out = Vec::new();
    extract_minimizers_into(seq, params, &mut scratch, &mut out);
    out
}

/// [`extract_minimizers`] into caller-owned buffers: clears `out`, reuses
/// `scratch`, allocates only on high-water growth.
///
/// One loop over the bases: roll the 2-bit encoder, hash the k-mer that
/// ends here, and advance a sliding minimum that is compared against the
/// newcomer while it is still inside the window and recomputed from the
/// stored hashes when it has slid out (once per ~`w` steps on random
/// sequence, so about one extra comparison per base).
pub fn extract_minimizers_into(
    seq: &[u8],
    params: MinimizerParams,
    scratch: &mut MinimizerScratch,
    out: &mut Vec<Minimizer>,
) {
    out.clear();
    let k = params.k;
    let w = params.w;
    if seq.len() < k {
        return;
    }
    let mask = (1u64 << (2 * k)) - 1;
    let n_kmers = seq.len() + 1 - k;
    if scratch.kmers.len() < n_kmers {
        scratch.kmers.resize(n_kmers, 0);
        scratch.hashes.resize(n_kmers, 0);
    }
    // Slots past `n_kmers` keep an earlier read's values and are never read.
    let kmers = &mut scratch.kmers[..n_kmers];
    let hashes = &mut scratch.hashes[..n_kmers];

    // An invalid byte zeroes both the running k-mer and the valid-run
    // length through a mask instead of an unpredictable branch.
    let mut current = 0u64;
    let mut run = 0usize; // consecutive valid bases ending here
    let mut roll = |b: u8| {
        let code = dna::encode2(b);
        let keep = ((code != dna::INVALID_CODE) as u64).wrapping_neg();
        current = ((current << 2) | (code & 0b11) as u64) & mask & keep;
        run = (run + 1) & keep as usize;
        (current, run)
    };
    let (head, tail) = seq.split_at(k - 1);
    for &b in head {
        roll(b);
    }

    const NONE: usize = usize::MAX;
    let mut min_idx = NONE; // the window's minimizer; none before the first valid k-mer
    let mut min_hash = 0u64;
    let mut reported = NONE;
    for (idx, &b) in tail.iter().enumerate() {
        let (kmer, run) = roll(b);
        if run < k {
            kmers[idx] = INVALID_KMER;
            continue;
        }
        let hash = hash_kmer(kmer);
        kmers[idx] = kmer;
        hashes[idx] = hash;
        // The window of k-mers ending here starts at `idx + 1 - w`.
        if min_idx == NONE || min_idx + w <= idx {
            // The minimizer slid out (or there was none): take the leftmost
            // minimum of the valid k-mers still inside, walking leftwards so
            // `<=` keeps the earliest on hash ties.
            (min_idx, min_hash) = (idx, hash);
            for i in ((idx + 1).saturating_sub(w)..idx).rev() {
                if kmers[i] != INVALID_KMER && hashes[i] <= min_hash {
                    (min_idx, min_hash) = (i, hashes[i]);
                }
            }
        } else if hash < min_hash {
            // Strict comparison keeps the earlier k-mer on hash ties.
            (min_idx, min_hash) = (idx, hash);
        }
        if idx + 1 >= w && min_idx != reported {
            out.push(Minimizer { kmer: kmers[min_idx], offset: min_idx as u32 });
            reported = min_idx;
        }
    }
}

/// One distinct k-mer of the table, 32 bytes (two to a cache line, never
/// straddling one): the k-mer, how many positions it has, its first
/// position, and — for a k-mer with more than one — where the rest start in
/// the arena. A single hit, the common case, is answered from the entry
/// alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub(crate) struct KmerEntry {
    /// Packed 2-bit k-mer value.
    pub kmer: u64,
    /// The k-mer's first position (in position order).
    pub pos: GraphPos,
    /// Where its other `count - 1` positions start in the arena; 0 when
    /// `count == 1`.
    pub start: u32,
    /// Number of positions; at least 1.
    pub count: u32,
}

const _: () = assert!(std::mem::size_of::<KmerEntry>() == 32);

/// The minimizer index over a graph's haplotype paths.
///
/// One layout wherever the table lives: one 32-byte `KmerEntry` per distinct
/// k-mer in ascending order, and an arena holding, for each k-mer with more
/// than one hit, the positions after its first — plus a small bucket
/// directory over the k-mers' top bits, derived whenever the arrays are
/// assembled and never stored. Every position is stored once.
///
/// # Examples
///
/// ```
/// use mg_graph::pangenome::{PangenomeBuilder, Variant};
/// use mg_index::{MinimizerIndex, MinimizerParams};
///
/// let p = PangenomeBuilder::new(b"ACGTTGCAACGTACGTTGCA".to_vec())
///     .variants(vec![Variant::snp(9, b'T')])
///     .haplotypes(vec![vec![0], vec![1]])
///     .build()
///     .unwrap();
/// let params = MinimizerParams::new(5, 3);
/// let index = MinimizerIndex::build(p.graph(), p.paths().iter().map(|h| h.handles.as_slice()), params);
/// // Querying a read sampled from haplotype 0 yields seeds.
/// let hits = index.query(b"ACGTTGCAAC", 100);
/// assert!(!hits.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MinimizerIndex {
    params: MinimizerParams,
    /// One entry per distinct k-mer, strictly ascending, each within `2k`
    /// bits.
    entries: Vec<KmerEntry>,
    /// Every position but the first of each multi-hit k-mer, concatenated
    /// in k-mer order; with the entry's first, each k-mer's run is sorted
    /// and deduplicated.
    positions: Vec<GraphPos>,
    /// Sum of every entry's count.
    total_positions: usize,
    /// Bucket directory: the k-mers whose top bits equal `b` are
    /// `entries[dir[b]..dir[b + 1]]`. One bucket per indexed k-mer rounded
    /// up to a power of two, so a bucket holds between a half and one k-mer
    /// on average and a lookup is one directory read plus a search that is
    /// usually over by its first comparison.
    dir: Vec<u32>,
    /// Right shift taking a `2k`-bit k-mer to its bucket number.
    dir_shift: u32,
}

/// Two indexes are equal when their tables are: same parameters, same
/// entries, same arena. The directory is a function of the k-mers.
impl PartialEq for MinimizerIndex {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
            && self.entries == other.entries
            && self.positions == other.positions
    }
}

impl Eq for MinimizerIndex {}

/// Checks that the entries' k-mers are strictly ascending and every value
/// fits `2k` bits, and in the same pass builds the bucket directory over
/// their top bits. Returns the directory and the shift that maps a k-mer to
/// its bucket.
fn build_directory(entries: &[KmerEntry], k: usize) -> Result<(Vec<u32>, u32)> {
    if u32::try_from(entries.len()).is_err() {
        return Err(Error::Corrupt(format!(
            "minimizer table of {} k-mers exceeds the 32-bit directory",
            entries.len()
        )));
    }
    let key_bits = 2 * k as u32;
    let max_kmer = (1u64 << key_bits) - 1;
    let dir_bits = entries.len().next_power_of_two().trailing_zeros().min(key_bits);
    let dir_shift = key_bits - dir_bits;
    let mut dir = vec![0u32; (1usize << dir_bits) + 1];
    // Count each bucket into the slot after it, then prefix-sum: slot `b`
    // ends up holding the number of k-mers in buckets below `b`.
    let mut prev = None;
    for kmer in entries.iter().map(|e| e.kmer) {
        if kmer > max_kmer {
            return Err(Error::Corrupt(format!(
                "minimizer k-mer {kmer:#x} is wider than {key_bits} bits"
            )));
        }
        if prev.is_some_and(|p| p >= kmer) {
            return Err(Error::Corrupt("minimizer k-mers not strictly ascending".into()));
        }
        prev = Some(kmer);
        dir[(kmer >> dir_shift) as usize + 1] += 1;
    }
    for b in 1..dir.len() {
        dir[b] += dir[b - 1];
    }
    Ok((dir, dir_shift))
}

impl MinimizerIndex {
    /// Builds the index from haplotype paths, indexing both orientations of
    /// every path so reverse-strand reads seed on flipped handles.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows 32-bit starts.
    pub fn build<'a, I>(graph: &VariationGraph, paths: I, params: MinimizerParams) -> Self
    where
        I: IntoIterator<Item = &'a [Handle]>,
    {
        let mut pairs: Vec<(u64, GraphPos)> = Vec::new();
        let mut scratch = MinimizerScratch::default();
        for path in paths {
            Self::index_path(graph, path, params, &mut pairs, &mut scratch);
            let flipped: Vec<Handle> = path.iter().rev().map(|h| h.flip()).collect();
            Self::index_path(graph, &flipped, params, &mut pairs, &mut scratch);
        }
        // Sorting the pairs groups them by k-mer with each group's positions
        // already in run order; haplotypes sharing a position collapse.
        pairs.sort_unstable();
        pairs.dedup();
        let distinct = pairs.chunk_by(|a, b| a.0 == b.0).count();
        let mut entries: Vec<KmerEntry> = Vec::with_capacity(distinct);
        let mut positions = Vec::with_capacity(pairs.len() - distinct);
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            let mut entry = KmerEntry {
                kmer: group[0].0,
                pos: group[0].1,
                start: 0,
                count: u32::try_from(group.len()).expect("k-mer with over 2^32 positions"),
            };
            if group.len() > 1 {
                entry.start = u32::try_from(positions.len()).expect("position arena exceeds u32 range");
                positions.extend(group[1..].iter().map(|&(_, pos)| pos));
            }
            entries.push(entry);
        }
        Self::from_flat_parts(params, entries, positions)
            .expect("sorted, deduplicated k-mers of k bases each")
    }

    fn index_path(
        graph: &VariationGraph,
        path: &[Handle],
        params: MinimizerParams,
        pairs: &mut Vec<(u64, GraphPos)>,
        scratch: &mut MinimizerScratch,
    ) {
        // Spell the path, remembering where each node's bases end.
        let mut seq = Vec::new();
        let mut node_ends = Vec::with_capacity(path.len());
        for &h in path {
            seq.extend_from_slice(&graph.sequence(h));
            node_ends.push(seq.len());
        }
        let mut mins = std::mem::take(&mut scratch.mins);
        extract_minimizers_into(&seq, params, scratch, &mut mins);
        // Minimizer offsets ascend, so one cursor over the node boundaries
        // places them all.
        let mut step = 0;
        let mut node_start = 0;
        for m in &mins {
            let offset = m.offset as usize;
            while node_ends[step] <= offset {
                node_start = node_ends[step];
                step += 1;
            }
            pairs.push((m.kmer, GraphPos::new(path[step], (offset - node_start) as u32)));
        }
        scratch.mins = mins;
    }

    /// The minimizer scheme parameters.
    pub fn params(&self) -> MinimizerParams {
        self.params
    }

    /// Number of distinct indexed k-mers.
    pub fn distinct_kmers(&self) -> usize {
        self.entries.len()
    }

    /// Total indexed (k-mer, position) pairs.
    pub fn total_positions(&self) -> usize {
        self.total_positions
    }

    /// The entry of one k-mer, if indexed.
    #[inline]
    fn entry(&self, kmer: u64) -> Option<&KmerEntry> {
        // A value wider than 2k bits names a bucket past the directory.
        let bucket = (kmer >> self.dir_shift) as usize;
        let lo = *self.dir.get(bucket)? as usize;
        let hi = *self.dir.get(bucket + 1)? as usize;
        let bucket = &self.entries[lo..hi];
        bucket.get(bucket.binary_search_by_key(&kmer, |e| e.kmer).ok()?)
    }

    /// An entry's positions after its first.
    #[inline]
    fn rest(&self, entry: &KmerEntry) -> &[GraphPos] {
        if entry.count == 1 {
            &[]
        } else {
            &self.positions[entry.start as usize..][..entry.count as usize - 1]
        }
    }

    /// Graph positions of one k-mer in ascending order, if indexed.
    pub fn positions(&self, kmer: u64) -> Option<impl Iterator<Item = GraphPos> + '_> {
        let entry = self.entry(kmer)?;
        Some(std::iter::once(entry.pos).chain(self.rest(entry).iter().copied()))
    }

    /// Iterates over all indexed k-mers in ascending order.
    pub fn kmers(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|e| e.kmer)
    }

    /// The table's arrays as stored: entries and the arena.
    pub(crate) fn flat_parts(&self) -> (&[KmerEntry], &[GraphPos]) {
        (&self.entries, &self.positions)
    }

    /// Assembles an index from its flat arrays, deriving the directory.
    /// The caller vouches for the counts, runs and inline positions; the
    /// k-mers are checked here because the directory is only meaningful
    /// over ascending `2k`-bit values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when the k-mers are out of order,
    /// repeated, or wider than `2k` bits.
    pub(crate) fn from_flat_parts(
        params: MinimizerParams,
        entries: Vec<KmerEntry>,
        positions: Vec<GraphPos>,
    ) -> Result<Self> {
        let (dir, dir_shift) = build_directory(&entries, params.k)?;
        let total_positions = entries.iter().map(|e| e.count as usize).sum();
        Ok(MinimizerIndex { params, entries, positions, total_positions, dir, dir_shift })
    }

    /// Finds seed hits for a read: for each minimizer of `read`, every graph
    /// position of that k-mer. Minimizers with more than `hard_hit_cap`
    /// positions are skipped (Giraffe's repeat filter).
    ///
    /// Returns `(read offset, graph position)` pairs.
    pub fn query(&self, read: &[u8], hard_hit_cap: usize) -> Vec<(u32, GraphPos)> {
        let mut scratch = MinimizerScratch::default();
        let mut out = Vec::new();
        self.query_into(read, hard_hit_cap, &mut scratch, &mut out);
        out
    }

    /// [`MinimizerIndex::query`] into caller-owned buffers: clears `out` and
    /// fills it with `(read offset, graph position)` pairs, reusing
    /// `scratch` for the extraction sweep so a mapping thread seeds every
    /// read without touching the allocator.
    pub fn query_into(
        &self,
        read: &[u8],
        hard_hit_cap: usize,
        scratch: &mut MinimizerScratch,
        out: &mut Vec<(u32, GraphPos)>,
    ) {
        // The staging buffer rides in the scratch, taken out for the call so
        // the extraction may borrow the remaining fields mutably.
        let mut mins = std::mem::take(&mut scratch.mins);
        extract_minimizers_into(read, self.params, scratch, &mut mins);
        out.clear();
        for m in &mins {
            // The entry alone says whether the repeat filter drops the
            // k-mer, and holds the position of a single hit.
            let Some(entry) = self.entry(m.kmer) else {
                continue;
            };
            if entry.count as usize > hard_hit_cap {
                continue;
            }
            out.push((m.offset, entry.pos));
            if entry.count > 1 {
                out.extend(self.rest(entry).iter().map(|&pos| (m.offset, pos)));
            }
        }
        scratch.mins = mins;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use proptest::prelude::*;

    #[test]
    fn short_sequence_has_no_minimizers() {
        let params = MinimizerParams::new(5, 2);
        assert!(extract_minimizers(b"ACGT", params).is_empty());
        assert!(extract_minimizers(b"", params).is_empty());
    }

    #[test]
    fn single_window_picks_min_hash() {
        let params = MinimizerParams::new(3, 2);
        let seq = b"ACGT"; // k-mers: ACG, CGT; one window of 2
        let ms = extract_minimizers(seq, params);
        assert_eq!(ms.len(), 1);
        let k0 = pack(b"ACG");
        let k1 = pack(b"CGT");
        let expect = if hash_kmer(k0) <= hash_kmer(k1) { k0 } else { k1 };
        assert_eq!(ms[0].kmer, expect);
    }

    #[test]
    fn w_equals_one_reports_every_kmer() {
        let params = MinimizerParams::new(4, 1);
        let seq = b"ACGTACGTAC";
        let ms = extract_minimizers(seq, params);
        assert_eq!(ms.len(), seq.len() - 4 + 1);
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(m.offset as usize, i);
            assert_eq!(m.kmer, pack(&seq[i..i + 4]));
        }
    }

    #[test]
    fn n_bases_suppress_overlapping_kmers() {
        let params = MinimizerParams::new(3, 1);
        let seq = b"ACGNACG";
        let ms = extract_minimizers(seq, params);
        // Valid k-mers: offsets 0 (ACG) and 4 (ACG) only.
        let offsets: Vec<u32> = ms.iter().map(|m| m.offset).collect();
        assert_eq!(offsets, vec![0, 4]);
    }

    #[test]
    fn identical_kmer_run_reports_leftmost_per_window() {
        // A run of identical bases: every k-mer hashes the same, and ties
        // break to the leftmost k-mer of each window, so each of the 5
        // windows reports a distinct offset.
        let params = MinimizerParams::new(3, 2);
        let ms = extract_minimizers(b"AAAAAAAA", params);
        let offsets: Vec<u32> = ms.iter().map(|m| m.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
        assert!(ms.iter().all(|m| m.kmer == pack(b"AAA")));
    }

    fn pack(seq: &[u8]) -> u64 {
        seq.iter()
            .fold(0u64, |acc, &b| (acc << 2) | dna::encode_base(b) as u64)
    }

    #[test]
    fn scratch_reuse_matches_fresh_extraction() {
        let params = MinimizerParams::new(7, 4);
        let mut scratch = MinimizerScratch::default();
        let mut out = Vec::new();
        let seqs: [&[u8]; 4] = [
            b"ACGTTGCAACGTACGTTGCATTGACCAGTTGACGTACCAGGTT",
            b"ACGNACGTACGTNNACGTACGTACGT",
            b"TTTTTTTTTTTTTTTT",
            b"ACG",
        ];
        for seq in seqs {
            extract_minimizers_into(seq, params, &mut scratch, &mut out);
            assert_eq!(out, extract_minimizers(seq, params), "seq {seq:?}");
        }
    }

    #[test]
    fn query_into_matches_query_and_reuses_buffers() {
        let (p, index) = sample_index();
        let hap = p.paths()[0].sequence(p.graph());
        let mut scratch = MinimizerScratch::default();
        let mut out = Vec::new();
        for window in hap.windows(24).step_by(5) {
            index.query_into(window, 1000, &mut scratch, &mut out);
            assert_eq!(out, index.query(window, 1000));
        }
    }

    /// A long all-ACGT sequence against a sweep that re-packs and re-hashes
    /// every k-mer of every window from scratch.
    #[test]
    fn extraction_matches_naive_sweep_on_200kb() {
        let params = MinimizerParams::default(); // k = 29, w = 11
        let k = params.k;
        let w = params.w;
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let seq: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 60) as usize & 3]
            })
            .collect();

        let mut naive: Vec<(u32, u64)> = Vec::new();
        for ws in 0..=(seq.len() + 1 - k - w) {
            let best = (ws..ws + w)
                .min_by_key(|&i| (hash_kmer(pack(&seq[i..i + k])), i))
                .unwrap();
            let entry = (best as u32, pack(&seq[best..best + k]));
            if naive.last() != Some(&entry) {
                naive.push(entry);
            }
        }
        let fast: Vec<(u32, u64)> = extract_minimizers(&seq, params)
            .iter()
            .map(|m| (m.offset, m.kmer))
            .collect();
        assert_eq!(fast, naive);
    }

    /// `hash_kmer` is a bijection, so exactly one 64-bit value hashes to
    /// `u64::MAX` — and it is a legal 31-mer. Extraction must rank it like
    /// any other k-mer rather than mistake its hash for a gap marker.
    #[test]
    fn kmer_hashing_to_all_ones_is_still_a_minimizer() {
        const PREIMAGE: u64 = 0x3162_8AF6_7B21_31AB;
        assert_eq!(hash_kmer(PREIMAGE), u64::MAX);
        const { assert!(PREIMAGE < 1 << 62) };
        let seq: Vec<u8> = (0..31)
            .rev()
            .map(|i| dna::decode_base(((PREIMAGE >> (2 * i)) & 3) as u8))
            .collect();
        for w in [1, 2, 5] {
            let params = MinimizerParams::new(31, w);
            // Alone in its window (everything else spans an N), it reports.
            let mut gapped = vec![b'N'; w - 1];
            gapped.extend_from_slice(&seq);
            let ms = extract_minimizers(&gapped, params);
            assert_eq!(ms, vec![Minimizer { kmer: PREIMAGE, offset: (w - 1) as u32 }]);
        }
    }

    fn sample_index() -> (mg_graph::Pangenome, MinimizerIndex) {
        let p = PangenomeBuilder::new(
            b"ACGTTGCAACGTACGTTGCATTGACCAGTTGACGTACCAGGTT".to_vec(),
        )
        .variants(vec![Variant::snp(10, b'A'), Variant::deletion(25, 2)])
        .haplotypes(vec![vec![0, 0], vec![1, 0], vec![0, 1]])
        .max_node_len(7)
        .build()
        .unwrap();
        let params = MinimizerParams::new(7, 4);
        let index = MinimizerIndex::build(
            p.graph(),
            p.paths().iter().map(|h| h.handles.as_slice()),
            params,
        );
        (p, index)
    }

    #[test]
    fn index_counts_are_consistent() {
        let (_, index) = sample_index();
        assert!(index.distinct_kmers() > 0);
        let sum: usize = (0..0).len(); // placeholder to use total
        let _ = sum;
        assert!(index.total_positions() >= index.distinct_kmers());
    }

    #[test]
    fn query_on_exact_haplotype_substring_hits_correct_positions() {
        let (p, index) = sample_index();
        let hap = p.paths()[0].sequence(p.graph());
        let read = &hap[4..26];
        let hits = index.query(read, 1000);
        assert!(!hits.is_empty());
        // Every hit's k-mer must actually occur at the claimed position.
        let k = index.params().k;
        for (read_off, pos) in &hits {
            let mut spelled = Vec::new();
            // Walk from the position along haplotype 0's handle chain.
            let mut remaining = k;
            let mut handle = pos.handle;
            let mut off = pos.offset as usize;
            'outer: while remaining > 0 {
                let seq = p.graph().sequence(handle);
                while off < seq.len() && remaining > 0 {
                    spelled.push(seq[off]);
                    off += 1;
                    remaining -= 1;
                }
                if remaining > 0 {
                    // Follow any successor that continues the haplotype; for
                    // this test just take each successor and check one works.
                    for &next in p.graph().successors(handle) {
                        let test_seq = p.graph().sequence(next);
                        let want = &read[*read_off as usize + (k - remaining)..*read_off as usize + k];
                        if test_seq.len() >= remaining.min(want.len())
                            && test_seq[..remaining.min(test_seq.len())]
                                == want[..remaining.min(test_seq.len())]
                        {
                            handle = next;
                            off = 0;
                            continue 'outer;
                        }
                    }
                    break;
                }
            }
            if spelled.len() == k {
                assert_eq!(
                    &spelled[..],
                    &read[*read_off as usize..*read_off as usize + k],
                    "hit at {pos:?} spells the read k-mer"
                );
            }
        }
    }

    #[test]
    fn reverse_complement_read_still_seeds() {
        let (p, index) = sample_index();
        let hap = p.paths()[1].sequence(p.graph());
        let read = dna::reverse_complement(&hap[6..30]);
        let hits = index.query(&read, 1000);
        assert!(!hits.is_empty(), "reverse-strand read must produce seeds");
        // All those hits are on reverse-orientation handles (for this
        // forward-only pangenome).
        assert!(hits.iter().any(|(_, pos)| pos.handle.orientation().is_reverse()));
    }

    #[test]
    fn hard_hit_cap_filters_repeats() {
        let p = PangenomeBuilder::new(vec![b'A'; 60])
            .haplotypes(vec![vec![]])
            .max_node_len(10)
            .build()
            .unwrap();
        let params = MinimizerParams::new(5, 2);
        let index = MinimizerIndex::build(
            p.graph(),
            p.paths().iter().map(|h| h.handles.as_slice()),
            params,
        );
        // Poly-A k-mer occurs everywhere; a tight cap suppresses it.
        let with_cap = index.query(&[b'A'; 30], 3);
        assert!(with_cap.is_empty());
        let without_cap = index.query(&[b'A'; 30], 10_000);
        assert!(!without_cap.is_empty());
    }

    #[test]
    fn positions_lookup() {
        let (_, index) = sample_index();
        let mut found = false;
        for kmer in 0..(1u64 << 14) {
            if let Some(ps) = index.positions(kmer) {
                let ps: Vec<GraphPos> = ps.collect();
                assert!(!ps.is_empty());
                // Sorted and deduplicated.
                assert!(ps.windows(2).all(|w| w[0] < w[1]));
                found = true;
                break;
            }
        }
        assert!(found || index.distinct_kmers() == 0);
    }

    proptest! {
        /// Minimizer positions are valid and ordered; each reported k-mer
        /// matches the sequence at its offset.
        #[test]
        fn prop_minimizers_are_consistent(
            seq in proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 0..300),
            k in 2usize..8,
            w in 1usize..6,
        ) {
            let params = MinimizerParams::new(k, w);
            let ms = extract_minimizers(&seq, params);
            for m in &ms {
                let off = m.offset as usize;
                prop_assert!(off + k <= seq.len());
                prop_assert_eq!(m.kmer, pack(&seq[off..off + k]));
            }
            // Offsets strictly increase.
            prop_assert!(ms.windows(2).all(|p| p[0].offset < p[1].offset));
            // Each window of w k-mers (when seq long enough) contains at
            // least one reported minimizer.
            if seq.len() >= k + w - 1 {
                for window_start in 0..=(seq.len() + 1 - k - w) {
                    let covered = ms.iter().any(|m| {
                        let off = m.offset as usize;
                        off >= window_start && off < window_start + w
                    });
                    prop_assert!(covered, "window at {} uncovered", window_start);
                }
            }
        }

        /// The minimizer set is a subset of what a naive per-window argmin
        /// computes, and covers the same windows.
        #[test]
        fn prop_matches_naive(
            seq in proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 10..120),
            k in 2usize..6,
            w in 1usize..5,
        ) {
            let params = MinimizerParams::new(k, w);
            let fast: Vec<(u32, u64)> = extract_minimizers(&seq, params)
                .iter().map(|m| (m.offset, m.kmer)).collect();
            // Naive: for each window, the k-mer with min (hash, offset).
            let mut naive: Vec<(u32, u64)> = Vec::new();
            if seq.len() >= k + w - 1 {
                for ws in 0..=(seq.len() + 1 - k - w) {
                    let best = (ws..ws + w)
                        .min_by_key(|&i| (hash_kmer(pack(&seq[i..i + k])), i))
                        .unwrap();
                    let entry = (best as u32, pack(&seq[best..best + k]));
                    if naive.last() != Some(&entry) {
                        naive.push(entry);
                    }
                }
            }
            prop_assert_eq!(fast, naive);
        }
    }
}
