//! Property suite locking down the `support` serialization primitives the
//! GBWT records and seed dumps are built on: varints and run-length
//! encoding. Everything here is a round-trip or a never-panic property —
//! the invariants the record cache and the seed-dump reader silently rely
//! on.

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
    fn varint_mixed_stream_roundtrips_through_cursor(
        values in proptest::collection::vec(any::<u64>(), 0..200)
    ) {
        let mut buf = Vec::new();
        for &u in &values {
            varint::write_u64(&mut buf, u);
        }
        let mut cur = varint::Cursor::new(&buf);
        for &u in &values {
            prop_assert_eq!(cur.read_u64().unwrap(), u);
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
    fn rle_packed_scheme_roundtrips(
        raw in proptest::collection::vec((0u64..16, 1u64..100_000), 0..100)
    ) {
        let runs: Vec<Run> = raw.iter().map(|&(s, l)| Run::new(s, l)).collect();
        let mut packed = Vec::new();
        rle::encode_runs_packed(&mut packed, &runs, 16);
        let mut cur = varint::Cursor::new(&packed);
        let mut decoded = Vec::new();
        rle::decode_runs_packed_into(&mut cur, runs.len(), &mut decoded).unwrap();
        prop_assert!(cur.is_at_end());
        prop_assert_eq!(decoded, runs);
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
            let result = rle::decode_runs_packed_into(
                &mut varint::Cursor::new(&buf[..cut]),
                runs.len(),
                &mut Vec::new(),
            );
            prop_assert!(result.is_err());
        }
    }
}
