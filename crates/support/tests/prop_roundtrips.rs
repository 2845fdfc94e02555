//! Property suite locking down the `support` serialization primitives the
//! GBWT and container formats are built on: varints, run-length encoding,
//! and bit vectors. Everything here is a round-trip or a never-panic
//! property — the invariants the observability exporters and the `.mgz`
//! reader silently rely on.

use mg_support::bits::{BitVec, IntVec};
use mg_support::rle::{self, Run};
use mg_support::varint;
use proptest::prelude::*;

proptest! {
    // ---- varint ----

    #[test]
    fn varint_u64_roundtrips_with_bounded_length(value in any::<u64>()) {
        let mut buf = Vec::new();
        let written = varint::write_u64(&mut buf, value);
        prop_assert_eq!(written, buf.len());
        prop_assert!((1..=10).contains(&written), "LEB128 u64 takes 1..=10 bytes");
        let (decoded, read) = varint::read_u64(&buf).unwrap();
        prop_assert_eq!(decoded, value);
        prop_assert_eq!(read, written);
    }

    #[test]
    fn varint_i64_zigzag_roundtrips(value in any::<i64>()) {
        prop_assert_eq!(varint::zigzag_decode(varint::zigzag_encode(value)), value);
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, value);
        let (decoded, _) = varint::read_i64(&buf).unwrap();
        prop_assert_eq!(decoded, value);
    }

    #[test]
    fn varint_mixed_stream_roundtrips_through_cursor(
        values in proptest::collection::vec((any::<u64>(), any::<i64>()), 0..200)
    ) {
        let mut buf = Vec::new();
        for &(u, i) in &values {
            varint::write_u64(&mut buf, u);
            varint::write_i64(&mut buf, i);
        }
        let mut cur = varint::Cursor::new(&buf);
        for &(u, i) in &values {
            prop_assert_eq!(cur.read_u64().unwrap(), u);
            prop_assert_eq!(cur.read_i64().unwrap(), i);
        }
        prop_assert!(cur.is_at_end());
    }

    #[test]
    fn varint_truncation_errors_instead_of_panicking(value in any::<u64>(), cut in 0usize..10) {
        let mut buf = Vec::new();
        let written = varint::write_u64(&mut buf, value);
        if cut < written {
            // Any strict prefix must decode to an error, never a panic or
            // a silent wrong value.
            prop_assert!(varint::read_u64(&buf[..cut]).is_err());
        }
    }

    // ---- rle ----

    #[test]
    fn rle_generic_and_packed_schemes_agree(
        raw in proptest::collection::vec((0u64..16, 1u64..100_000), 0..100)
    ) {
        let runs: Vec<Run> = raw.iter().map(|&(s, l)| Run::new(s, l)).collect();
        let mut generic = Vec::new();
        rle::encode_runs(&mut generic, &runs);
        let mut packed = Vec::new();
        rle::encode_runs_packed(&mut packed, &runs, 16);
        let from_generic =
            rle::decode_runs(&mut varint::Cursor::new(&generic), runs.len()).unwrap();
        let from_packed =
            rle::decode_runs_packed(&mut varint::Cursor::new(&packed), runs.len()).unwrap();
        prop_assert_eq!(&from_generic, &from_packed);
        prop_assert_eq!(from_generic, runs);
    }

    #[test]
    fn rle_decode_into_reuses_allocation_identically(
        raw in proptest::collection::vec((0u64..16, 1u64..10_000), 1..60)
    ) {
        let runs: Vec<Run> = raw.iter().map(|&(s, l)| Run::new(s, l)).collect();
        let mut buf = Vec::new();
        rle::encode_runs_packed(&mut buf, &runs, 16);
        // A dirty, previously-used vector must come out exactly like a
        // fresh decode (the record cache depends on this).
        let mut reused = vec![Run::new(9, 999); 7];
        rle::decode_runs_packed_into(&mut varint::Cursor::new(&buf), runs.len(), &mut reused)
            .unwrap();
        prop_assert_eq!(reused, runs);
    }

    #[test]
    fn rle_collapse_expand_preserves_any_symbol_stream(
        symbols in proptest::collection::vec(any::<u64>(), 0..400)
    ) {
        let runs = rle::collapse(symbols.iter().copied());
        prop_assert_eq!(rle::expand(&runs), symbols);
    }

    #[test]
    fn rle_truncation_errors_instead_of_panicking(
        raw in proptest::collection::vec((0u64..16, 1u64..100_000), 1..40),
        frac in 0.0f64..1.0
    ) {
        let runs: Vec<Run> = raw.iter().map(|&(s, l)| Run::new(s, l)).collect();
        let mut buf = Vec::new();
        rle::encode_runs_packed(&mut buf, &runs, 16);
        let cut = ((buf.len() as f64) * frac) as usize;
        if cut < buf.len() {
            let result = rle::decode_runs_packed(&mut varint::Cursor::new(&buf[..cut]), runs.len());
            prop_assert!(result.is_err());
        }
    }

    // ---- bits ----

    #[test]
    fn bitvec_roundtrips_bools_and_rank_select_invert(
        bools in proptest::collection::vec(any::<bool>(), 0..600)
    ) {
        let mut bv = BitVec::from_bools(bools.iter().copied());
        prop_assert_eq!(bv.len(), bools.len());
        for (i, &b) in bools.iter().enumerate() {
            prop_assert_eq!(bv.get(i), b);
        }
        bv.enable_rank();
        let ones = bools.iter().filter(|&&b| b).count();
        prop_assert_eq!(bv.count_ones(), ones);
        prop_assert_eq!(bv.rank1(bv.len()), ones);
        // rank0 + rank1 partition every prefix.
        for i in 0..=bv.len() {
            prop_assert_eq!(bv.rank0(i) + bv.rank1(i), i);
        }
        // select1 is the right inverse of rank1.
        for k in 0..ones {
            let pos = bv.select1(k).unwrap();
            prop_assert!(bv.get(pos));
            prop_assert_eq!(bv.rank1(pos), k);
        }
        prop_assert_eq!(bv.select1(ones), None);
        // iter_ones agrees with get().
        let listed: Vec<usize> = bv.iter_ones().collect();
        let expected: Vec<usize> =
            bools.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(listed, expected);
    }

    #[test]
    fn bitvec_push_matches_from_bools(bools in proptest::collection::vec(any::<bool>(), 0..300)) {
        let built = BitVec::from_bools(bools.iter().copied());
        let mut pushed = BitVec::new(0);
        for &b in &bools {
            pushed.push(b);
        }
        prop_assert_eq!(pushed.len(), built.len());
        for i in 0..built.len() {
            prop_assert_eq!(pushed.get(i), built.get(i));
        }
    }

    #[test]
    fn intvec_masks_to_width_consistently(
        width in 1u32..=64,
        raw in proptest::collection::vec(any::<u64>(), 0..200)
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let mut iv = IntVec::new(width);
        for &v in &raw {
            iv.push(v & mask);
        }
        prop_assert_eq!(iv.len(), raw.len());
        for (i, &v) in raw.iter().enumerate() {
            prop_assert_eq!(iv.get(i), v & mask);
        }
    }
}
