//! DNA alphabet utilities.
//!
//! Sequences are stored as ASCII bytes over the uppercase alphabet `ACGT`
//! (plus `N` for unknown bases in reads). These helpers validate, complement,
//! and pack bases.

/// The four DNA bases in code order (`A=0, C=1, G=2, T=3`).
pub const BASES: [u8; 4] = *b"ACGT";

/// Sentinel code returned by [`encode2`] for bytes outside `ACGT`.
pub const INVALID_CODE: u8 = 0xFF;

/// Byte → 2-bit code table: the one encoder shared by base validation and
/// the minimizer's rolling k-mer construction. Invalid bytes (including
/// `N`) map to [`INVALID_CODE`].
const ENCODE_LUT: [u8; 256] = {
    let mut lut = [INVALID_CODE; 256];
    lut[b'A' as usize] = 0;
    lut[b'C' as usize] = 1;
    lut[b'G' as usize] = 2;
    lut[b'T' as usize] = 3;
    lut
};

/// Byte → complement table. Complementing in code space is `code ^ 0b11`
/// (A↔T, C↔G); this table is that identity lifted back to ASCII, with `N`
/// fixed and a `0` sentinel for invalid bytes.
const COMPLEMENT_LUT: [u8; 256] = {
    let mut lut = [0u8; 256];
    let mut code = 0usize;
    while code < 4 {
        lut[BASES[code] as usize] = BASES[code ^ 0b11];
        code += 1;
    }
    lut[b'N' as usize] = b'N';
    lut
};

/// Branchless byte → 2-bit code lookup; [`INVALID_CODE`] for non-`ACGT`
/// bytes (including `N`).
#[inline(always)]
pub fn encode2(b: u8) -> u8 {
    ENCODE_LUT[b as usize]
}

/// Returns `true` for an uppercase `A`, `C`, `G`, or `T`.
#[inline]
pub fn is_base(b: u8) -> bool {
    ENCODE_LUT[b as usize] != INVALID_CODE
}

/// Returns `true` if every byte of `seq` is a valid base.
pub fn is_valid_sequence(seq: &[u8]) -> bool {
    seq.iter().all(|&b| is_base(b))
}

/// Maps a base to its 2-bit code.
///
/// # Panics
///
/// Panics if `b` is not a valid base; use [`encode_base_checked`] for
/// untrusted input.
pub fn encode_base(b: u8) -> u8 {
    encode_base_checked(b).unwrap_or_else(|| panic!("invalid base {:?}", b as char))
}

/// Maps a base to its 2-bit code, or `None` for non-bases (including `N`).
#[inline]
pub fn encode_base_checked(b: u8) -> Option<u8> {
    let code = encode2(b);
    (code != INVALID_CODE).then_some(code)
}

/// Maps a 2-bit code back to its base.
///
/// # Panics
///
/// Panics if `code > 3`.
pub fn decode_base(code: u8) -> u8 {
    BASES[code as usize]
}

/// Returns `true` for a byte allowed in read sequences: a base or `N`.
pub fn is_read_base(b: u8) -> bool {
    is_base(b) || b == b'N'
}

/// Checks that every byte of a read sequence is in the accepted alphabet
/// (`ACGT` plus `N`), reporting the first offender.
///
/// # Errors
///
/// Returns [`Error::InvalidBase`](mg_support::Error::InvalidBase) with the
/// offending byte and its offset.
pub fn validate_read_bases(seq: &[u8]) -> mg_support::Result<()> {
    match seq.iter().position(|&b| !is_read_base(b)) {
        None => Ok(()),
        Some(pos) => Err(mg_support::Error::InvalidBase { byte: seq[pos], pos }),
    }
}

/// Watson–Crick complement of a base, or `None` for bytes that are neither
/// bases nor `N`. Use this on untrusted input instead of [`complement`].
#[inline]
pub fn complement_checked(b: u8) -> Option<u8> {
    let c = COMPLEMENT_LUT[b as usize];
    (c != 0).then_some(c)
}

/// Watson–Crick complement of a base; `N` stays `N`.
///
/// # Panics
///
/// Panics on bytes that are neither bases nor `N`; untrusted input should
/// be screened with [`validate_read_bases`] at intake (the FASTQ reader
/// does this) or use [`complement_checked`].
pub fn complement(b: u8) -> u8 {
    complement_checked(b).unwrap_or_else(|| panic!("invalid base {:?}", b as char))
}

/// Reverse complement of a sequence.
///
/// ```
/// assert_eq!(mg_graph::dna::reverse_complement(b"ACGT"), b"ACGT");
/// assert_eq!(mg_graph::dna::reverse_complement(b"AACG"), b"CGTT");
/// ```
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn base_predicates() {
        for b in BASES {
            assert!(is_base(b));
        }
        for b in [b'N', b'a', b'X', 0u8] {
            assert!(!is_base(b));
        }
        assert!(is_valid_sequence(b"ACGTACGT"));
        assert!(!is_valid_sequence(b"ACGN"));
        assert!(is_valid_sequence(b""));
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (code, b) in BASES.iter().enumerate() {
            assert_eq!(encode_base(*b), code as u8);
            assert_eq!(decode_base(code as u8), *b);
        }
        assert_eq!(encode_base_checked(b'N'), None);
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(complement(b'A'), b'T');
        assert_eq!(complement(b'T'), b'A');
        assert_eq!(complement(b'C'), b'G');
        assert_eq!(complement(b'G'), b'C');
        assert_eq!(complement(b'N'), b'N');
    }

    #[test]
    fn revcomp_empty() {
        assert_eq!(reverse_complement(b""), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "invalid base")]
    fn complement_rejects_garbage() {
        complement(b'Q');
    }

    #[test]
    fn checked_complement_returns_none_instead_of_panicking() {
        assert_eq!(complement_checked(b'Q'), None);
        assert_eq!(complement_checked(b'a'), None);
        assert_eq!(complement_checked(b'A'), Some(b'T'));
        assert_eq!(complement_checked(b'N'), Some(b'N'));
    }

    #[test]
    fn read_base_validation_reports_offender() {
        assert!(validate_read_bases(b"ACGTN").is_ok());
        assert!(validate_read_bases(b"").is_ok());
        match validate_read_bases(b"ACxGT") {
            Err(mg_support::Error::InvalidBase { byte, pos }) => {
                assert_eq!(byte, b'x');
                assert_eq!(pos, 2);
            }
            other => panic!("expected InvalidBase, got {other:?}"),
        }
    }

    #[test]
    fn encode2_agrees_with_checked_over_all_bytes() {
        for b in 0u8..=255 {
            match encode_base_checked(b) {
                Some(code) => assert_eq!(encode2(b), code),
                None => assert_eq!(encode2(b), INVALID_CODE),
            }
        }
    }

    #[test]
    fn complement_in_code_space_is_xor() {
        // The LUT complement is exactly `code ^ 0b11` lifted to ASCII.
        for code in 0u8..4 {
            assert_eq!(complement(decode_base(code)), decode_base(code ^ 0b11));
        }
    }

    fn dna_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(proptest::sample::select(BASES.to_vec()), 0..max_len)
    }

    proptest! {
        #[test]
        fn prop_revcomp_is_involution(seq in dna_strategy(300)) {
            prop_assert_eq!(reverse_complement(&reverse_complement(&seq)), seq);
        }

        #[test]
        fn prop_revcomp_preserves_validity(seq in dna_strategy(300)) {
            prop_assert!(is_valid_sequence(&reverse_complement(&seq)));
        }
    }
}
