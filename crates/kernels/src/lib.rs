//! Explicit-SIMD kernels with runtime CPU-feature dispatch.
//!
//! This crate is the bottom of the kernel dependency stack: the 2-bit lane
//! primitives the packed sequence store is built on with their 256-bit wide
//! variants, selected at runtime by [`simd_tier`], and the splitmix k-mer
//! hash the minimizer scheme orders windows with.
//!
//! The dispatch ladder has three rungs:
//!
//! * **Scalar** — the byte-at-a-time oracle paths (`walk_scalar`).
//!   Selected by `MG_FORCE_SCALAR=1`/`MG_SIMD=off`; also what the
//!   cache simulator's active probes pin, independent of this crate.
//! * **SWAR** — 64-bit word-parallel lanes ([`mismatch_lanes`] over XORed
//!   packed words). The portable production floor; also the fallback when
//!   the `simd` cargo feature is off or the CPU lacks AVX2.
//! * **AVX2** — four packed words (128 bases) per XOR-compare step
//!   ([`wide_mismatch_lanes`]), via `std::arch` intrinsics behind
//!   `is_x86_feature_detected!`.
//!
//! Every wide helper is bit-identical to its narrow counterpart. The unit
//! and property tests below pin that equality on whatever tier the host
//! dispatches to.

use std::sync::atomic::{AtomicU8, Ordering};

/// Mask selecting the low bit of every 2-bit lane in a word.
pub const LANES_LO: u64 = 0x5555_5555_5555_5555;

/// Bases per packed word.
pub const BASES_PER_WORD: usize = 32;

/// Packed words per 256-bit wide comparison block.
pub const WORDS_PER_BLOCK: usize = 4;

/// Folds an XOR of two packed words to one set low-lane bit per
/// mismatching base: lane `j` of the result is `0b01` iff the `j`-th bases
/// differ.
#[inline(always)]
pub fn mismatch_lanes(xor: u64) -> u64 {
    (xor | (xor >> 1)) & LANES_LO
}

/// Masks a lane word down to its first `n` lanes (`n <= 32`).
#[inline(always)]
pub fn keep_lanes(lanes: u64, n: usize) -> u64 {
    debug_assert!(n <= BASES_PER_WORD);
    if n >= BASES_PER_WORD {
        lanes
    } else {
        lanes & ((1u64 << (2 * n)) - 1)
    }
}

/// Extracts the 32 bases beginning at base offset `start` from a packed
/// buffer, crossing the word boundary when unaligned. Bases past the end of
/// `words` read as zero; callers bound the live span with [`keep_lanes`].
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

/// Extracts [`WORDS_PER_BLOCK`] consecutive 32-base windows starting at
/// base offset `start`: `out[j]` equals
/// `word_at(words, start + j * BASES_PER_WORD)`. The windows share one bit
/// offset within their source words, which is what the AVX2 variant
/// ([`block_at_avx2`]) exploits; this portable version is the oracle.
#[inline]
pub fn block_at(words: &[u64], start: usize, out: &mut [u64; WORDS_PER_BLOCK]) {
    for (j, slot) in out.iter_mut().enumerate() {
        *slot = word_at(words, start + j * BASES_PER_WORD);
    }
}

/// [`block_at`] with the four window extractions fused into one vector
/// funnel shift: the block's source words `words[w..w + 5]` are loaded as
/// two overlapping 256-bit vectors and combined as
/// `(lo >> b) | (hi << (64 - b))` — five instructions replacing four
/// scalar two-word stitches. Falls back to the scalar loop when the five
/// source words are not all in bounds (near the end of a buffer), so the
/// result is **always** identical to [`block_at`].
///
/// # Safety
///
/// The caller must only reach this on a CPU where AVX2 was detected; on
/// builds without the `simd` feature (or off x86-64) the body is the
/// scalar loop and carries no requirement.
#[inline]
#[cfg_attr(all(feature = "simd", target_arch = "x86_64"), target_feature(enable = "avx2"))]
pub unsafe fn block_at_avx2(words: &[u64], start: usize, out: &mut [u64; WORDS_PER_BLOCK]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        let w = start / BASES_PER_WORD;
        let b = (start % BASES_PER_WORD) * 2;
        if w + WORDS_PER_BLOCK < words.len() {
            // SAFETY: the bounds check above covers both 4-word loads
            // (`w..w + 4` and `w + 1..w + 5`); AVX2 is the caller's
            // contract. `_mm256_sll_epi64` zeroes lanes for a 64-bit shift
            // count, so the aligned case (`b == 0`) degrades to `lo`.
            unsafe {
                use std::arch::x86_64::*;
                let lo = _mm256_loadu_si256(words.as_ptr().add(w).cast());
                let hi = _mm256_loadu_si256(words.as_ptr().add(w + 1).cast());
                let shr = _mm_cvtsi64_si128(b as i64);
                let shl = _mm_cvtsi64_si128(64 - b as i64);
                let win = _mm256_or_si256(_mm256_srl_epi64(lo, shr), _mm256_sll_epi64(hi, shl));
                _mm256_storeu_si256(out.as_mut_ptr().cast(), win);
            }
            return;
        }
    }
    block_at(words, start, out);
}

/// Gathers one [`WORDS_PER_BLOCK`]-word window from each packed buffer
/// (`read_words` at base `rbase`, `graph_words` at base `gbase`) and
/// lane-folds their XOR: `out[j]` holds the mismatch lanes of 32 bases
/// starting `j` words into the window, exactly as if assembled with
/// [`word_at`] and folded with [`mismatch_lanes`].
///
/// At [`SimdTier::Avx2`] the whole pipeline — two funnel-shift gathers,
/// the XOR, and the fold — runs on 256-bit registers inside **one** call
/// boundary, so a block costs one `#[target_feature]` call rather than
/// eight scalar window stitches. Below AVX2 it is the scalar composition
/// of the same steps. Identical bits on every rung.
#[inline]
pub fn wide_gather_mismatch(
    tier: SimdTier,
    read_words: &[u64],
    graph_words: &[u64],
    rbase: usize,
    gbase: usize,
    out: &mut [u64; WORDS_PER_BLOCK],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if tier == SimdTier::Avx2 {
        // SAFETY: an Avx2 tier is only ever produced by `hardware_tier`,
        // which checked `is_x86_feature_detected!("avx2")`.
        unsafe { gather_mismatch_avx2(read_words, graph_words, rbase, gbase, out) };
        return;
    }
    let _ = tier;
    let mut rw = [0u64; WORDS_PER_BLOCK];
    let mut gw = [0u64; WORDS_PER_BLOCK];
    block_at(read_words, rbase, &mut rw);
    block_at(graph_words, gbase, &mut gw);
    for j in 0..WORDS_PER_BLOCK {
        out[j] = mismatch_lanes(rw[j] ^ gw[j]);
    }
}

/// The AVX2 body of [`wide_gather_mismatch`]: [`block_at_avx2`] twice and
/// [`wide_mismatch_lanes_avx2`] once, all inlined into this one feature
/// region so the intermediate windows never leave `ymm` registers.
///
/// # Safety
///
/// Same contract as [`block_at_avx2`]: only reachable once AVX2 was
/// detected (any [`SimdTier::Avx2`] proves it).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gather_mismatch_avx2(
    read_words: &[u64],
    graph_words: &[u64],
    rbase: usize,
    gbase: usize,
    out: &mut [u64; WORDS_PER_BLOCK],
) {
    let mut rw = [0u64; WORDS_PER_BLOCK];
    let mut gw = [0u64; WORDS_PER_BLOCK];
    // SAFETY: AVX2 is this function's own contract.
    unsafe {
        block_at_avx2(read_words, rbase, &mut rw);
        block_at_avx2(graph_words, gbase, &mut gw);
        wide_mismatch_lanes_avx2(&rw, &gw, out);
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

/// A rung of the dispatch ladder, ordered weakest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Byte-at-a-time oracle paths; no word-parallel comparison at all.
    Scalar = 0,
    /// 64-bit word-parallel lanes (the portable production floor).
    Swar = 1,
    /// 256-bit `std::arch` intrinsics (four packed words per step).
    Avx2 = 2,
}

impl SimdTier {
    /// Stable display name (`scalar` / `swar` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Swar => "swar",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// The tier as a small integer for gauges (0 = scalar, 2 = AVX2).
    pub fn as_index(self) -> u64 {
        self as u64
    }

    fn from_u8(v: u8) -> SimdTier {
        match v {
            0 => SimdTier::Scalar,
            1 => SimdTier::Swar,
            _ => SimdTier::Avx2,
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The widest tier this build + CPU supports, ignoring the environment.
pub fn hardware_tier() -> SimdTier {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdTier::Avx2;
    }
    SimdTier::Swar
}

/// Parses the environment cap: `MG_FORCE_SCALAR` (any value but `0`/empty)
/// pins [`SimdTier::Scalar`]; otherwise `MG_SIMD` may name a tier
/// (`off`/`scalar`, `swar`, `avx2`). Unset or unrecognized means no cap.
fn env_cap(force_scalar: Option<&str>, mg_simd: Option<&str>) -> SimdTier {
    if force_scalar.is_some_and(|v| !v.is_empty() && v != "0") {
        return SimdTier::Scalar;
    }
    match mg_simd {
        Some("off") | Some("scalar") => SimdTier::Scalar,
        Some("swar") => SimdTier::Swar,
        _ => SimdTier::Avx2,
    }
}

const TIER_UNSET: u8 = u8::MAX;
static TIER: AtomicU8 = AtomicU8::new(TIER_UNSET);

/// The globally dispatched tier: `min(environment cap, hardware)`, detected
/// once per process and cached (the probe is one relaxed atomic load after
/// the first call).
pub fn simd_tier() -> SimdTier {
    let cached = TIER.load(Ordering::Relaxed);
    if cached != TIER_UNSET {
        return SimdTier::from_u8(cached);
    }
    let force = std::env::var("MG_FORCE_SCALAR").ok();
    let simd = std::env::var("MG_SIMD").ok();
    let tier = env_cap(force.as_deref(), simd.as_deref()).min(hardware_tier());
    TIER.store(tier as u8, Ordering::Relaxed);
    tier
}

/// The tier a kernel call should run at: an explicit per-call override
/// (clamped to what the hardware supports, so requesting AVX2 on a SWAR
/// host degrades instead of faulting) or, absent one, the global
/// [`simd_tier`]. Benches and differential tests pass overrides to compare
/// rungs inside one process; production passes `None`.
#[inline]
pub fn effective_tier(override_tier: Option<SimdTier>) -> SimdTier {
    match override_tier {
        Some(t) => t.min(hardware_tier()),
        None => simd_tier(),
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use std::arch::x86_64::*;

    /// Four packed words XOR-compared and lane-folded in one 256-bit step.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn mismatch_lanes_x4(read: &[u64; 4], graph: &[u64; 4], out: &mut [u64; 4]) {
        let r = _mm256_loadu_si256(read.as_ptr().cast());
        let g = _mm256_loadu_si256(graph.as_ptr().cast());
        let x = _mm256_xor_si256(r, g);
        let folded = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64::<1>(x)),
            _mm256_set1_epi64x(super::LANES_LO as i64),
        );
        _mm256_storeu_si256(out.as_mut_ptr().cast(), folded);
    }
}

/// Lane-folds four packed word pairs (`read[i] ^ graph[i]`, 128 bases) in
/// one step when `tier` is [`SimdTier::Avx2`], else word-by-word SWAR.
/// Callers are responsible for only passing an AVX2 tier obtained from
/// [`effective_tier`]/[`simd_tier`], which clamp to the detected hardware.
///
/// This entry re-checks the tier per call, which costs a branch and — more
/// importantly — a non-inlinable `#[target_feature]` call boundary per
/// block. Hot loops that already hoisted dispatch (one tier decision per
/// walk) should call [`wide_mismatch_lanes_avx2`] from inside their own
/// `#[target_feature(enable = "avx2")]` region instead, where it inlines.
#[inline]
pub fn wide_mismatch_lanes(tier: SimdTier, read: &[u64; 4], graph: &[u64; 4], out: &mut [u64; 4]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if tier == SimdTier::Avx2 {
        // SAFETY: an Avx2 tier is only ever produced by `hardware_tier`,
        // which checked `is_x86_feature_detected!("avx2")`.
        unsafe { wide_mismatch_lanes_avx2(read, graph, out) };
        return;
    }
    let _ = tier;
    for i in 0..WORDS_PER_BLOCK {
        out[i] = mismatch_lanes(read[i] ^ graph[i]);
    }
}

/// The AVX2 rung of [`wide_mismatch_lanes`] as a direct entry, for callers
/// that hoist tier dispatch out of their block loop. Marked
/// `#[target_feature(enable = "avx2")]` so it inlines into callers inside
/// an AVX2 region (the dispatching wrapper cannot — the feature boundary
/// pins it as an out-of-line call, which costs a staging round-trip through
/// memory per 128-base block).
///
/// On builds without the `simd` feature (or off x86-64) this degrades to
/// the SWAR fold so call sites need no `cfg`; it stays `unsafe fn` either
/// way for a uniform signature.
///
/// # Safety
///
/// The caller must only reach this on a CPU where AVX2 was detected (any
/// [`SimdTier::Avx2`] from [`effective_tier`]/[`simd_tier`] proves that).
/// The fallback body has no such requirement.
#[inline]
#[cfg_attr(all(feature = "simd", target_arch = "x86_64"), target_feature(enable = "avx2"))]
pub unsafe fn wide_mismatch_lanes_avx2(read: &[u64; 4], graph: &[u64; 4], out: &mut [u64; 4]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    // SAFETY: forwarded from the caller; same feature contract.
    unsafe {
        avx2::mismatch_lanes_x4(read, graph, out)
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    for i in 0..WORDS_PER_BLOCK {
        out[i] = mismatch_lanes(read[i] ^ graph[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tier_order_and_names() {
        assert!(SimdTier::Scalar < SimdTier::Swar);
        assert!(SimdTier::Swar < SimdTier::Avx2);
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(SimdTier::Swar.name(), "swar");
        assert_eq!(SimdTier::Avx2.name(), "avx2");
        assert_eq!(SimdTier::Avx2.as_index(), 2);
        assert_eq!(SimdTier::Avx2.to_string(), "avx2");
    }

    #[test]
    fn env_cap_parses_force_scalar_and_mg_simd() {
        assert_eq!(env_cap(Some("1"), None), SimdTier::Scalar);
        assert_eq!(env_cap(Some("yes"), Some("avx2")), SimdTier::Scalar);
        assert_eq!(env_cap(Some("0"), None), SimdTier::Avx2);
        assert_eq!(env_cap(Some(""), None), SimdTier::Avx2);
        assert_eq!(env_cap(None, Some("off")), SimdTier::Scalar);
        assert_eq!(env_cap(None, Some("scalar")), SimdTier::Scalar);
        assert_eq!(env_cap(None, Some("swar")), SimdTier::Swar);
        assert_eq!(env_cap(None, Some("avx2")), SimdTier::Avx2);
        assert_eq!(env_cap(None, Some("bogus")), SimdTier::Avx2);
        assert_eq!(env_cap(None, None), SimdTier::Avx2);
    }

    #[test]
    fn dispatch_never_exceeds_hardware() {
        let hw = hardware_tier();
        assert!(hw >= SimdTier::Swar, "SWAR is the portable floor");
        assert!(simd_tier() <= hw);
        assert_eq!(effective_tier(Some(SimdTier::Avx2)), hw.min(SimdTier::Avx2));
        assert_eq!(effective_tier(Some(SimdTier::Scalar)), SimdTier::Scalar);
        assert_eq!(effective_tier(Some(SimdTier::Swar)), SimdTier::Swar);
        assert_eq!(effective_tier(None), simd_tier());
    }

    #[cfg(not(feature = "simd"))]
    #[test]
    fn feature_off_caps_at_swar() {
        assert_eq!(hardware_tier(), SimdTier::Swar);
    }

    #[test]
    fn wide_mismatch_matches_swar_on_random_words() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51AD);
        let tier = simd_tier();
        for _ in 0..2000 {
            let r: [u64; 4] = std::array::from_fn(|_| rng.random());
            let g: [u64; 4] = std::array::from_fn(|_| rng.random());
            let mut wide = [0u64; 4];
            wide_mismatch_lanes(tier, &r, &g, &mut wide);
            let narrow: [u64; 4] = std::array::from_fn(|i| mismatch_lanes(r[i] ^ g[i]));
            assert_eq!(wide, narrow);
        }
    }

    #[test]
    fn block_gather_matches_word_at_everywhere() {
        // Covers both the funnel fast path and the near-end scalar
        // fallback: every start offset over buffers of 0..12 words.
        let callable = !cfg!(all(feature = "simd", target_arch = "x86_64"))
            || hardware_tier() >= SimdTier::Avx2;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB10C);
        for n_words in 0..12usize {
            let words: Vec<u64> = (0..n_words).map(|_| rng.random()).collect();
            for start in 0..(n_words + 2) * BASES_PER_WORD {
                let mut blk = [0u64; WORDS_PER_BLOCK];
                block_at(&words, start, &mut blk);
                for (j, &w) in blk.iter().enumerate() {
                    assert_eq!(w, word_at(&words, start + j * BASES_PER_WORD));
                }
                if callable {
                    let mut wide = [0u64; WORDS_PER_BLOCK];
                    // SAFETY: AVX2 detected (or the fallback body is active).
                    unsafe { block_at_avx2(&words, start, &mut wide) };
                    assert_eq!(wide, blk, "n_words {n_words} start {start}");
                }
            }
        }
    }

    #[test]
    fn direct_avx2_entry_matches_swar() {
        // Skip only on a simd build whose host lacks AVX2; everywhere else
        // the entry is callable (intrinsics proven by detection, or the
        // SWAR fallback body is compiled in).
        if cfg!(all(feature = "simd", target_arch = "x86_64")) && hardware_tier() < SimdTier::Avx2
        {
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15);
        for _ in 0..2000 {
            let r: [u64; 4] = std::array::from_fn(|_| rng.random());
            let g: [u64; 4] = std::array::from_fn(|_| rng.random());
            let mut wide = [0u64; 4];
            // SAFETY: AVX2 detected above (or the fallback body is active).
            unsafe { wide_mismatch_lanes_avx2(&r, &g, &mut wide) };
            let narrow: [u64; 4] = std::array::from_fn(|i| mismatch_lanes(r[i] ^ g[i]));
            assert_eq!(wide, narrow);
        }
    }

    proptest! {
        #[test]
        fn prop_wide_block_equals_four_narrow_words(
            words in proptest::collection::vec(any::<u64>(), 8..9),
        ) {
            let r: [u64; 4] = words[..4].try_into().unwrap();
            let g: [u64; 4] = words[4..8].try_into().unwrap();
            let mut wide = [0u64; 4];
            wide_mismatch_lanes(simd_tier(), &r, &g, &mut wide);
            for i in 0..4 {
                prop_assert_eq!(wide[i], mismatch_lanes(r[i] ^ g[i]));
            }
        }

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
