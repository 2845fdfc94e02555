//! Run-length encoding of `(symbol, run-length)` pairs.
//!
//! The GBWT body of each node record is a sequence of runs: "the next `k`
//! haplotypes all continue to outgoing edge `e`". Runs are encoded as two
//! varints (`symbol`, `len - 1`), with an optional packed fast path when the
//! symbol alphabet is small: symbol and a short run share one byte, runs
//! longer than the inline budget spill into a varint continuation.

use crate::error::{Error, Result};
use crate::varint;

/// A single run of `len` copies of `symbol`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// The repeated symbol (for the GBWT: an outgoing-edge rank).
    pub symbol: u64,
    /// Number of repetitions; always at least 1.
    pub len: u64,
}

impl Run {
    /// Creates a run.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`; zero-length runs are never valid.
    pub fn new(symbol: u64, len: u64) -> Self {
        assert!(len > 0, "run length must be positive");
        Run { symbol, len }
    }
}

/// Encodes runs with the small-alphabet packed scheme.
///
/// When `sigma` (the alphabet size) satisfies `sigma <= 16`, a byte packs the
/// symbol in its low 4 bits and `min(run - 1, 14)` in its high 4 bits; the
/// high nibble value 15 flags that the remaining run length follows as a
/// varint. For larger alphabets it uses the generic scheme, two varints
/// (`symbol`, `len - 1`) per run. A leading scheme marker says which, so
/// decoding is self-describing.
pub fn encode_runs_packed(out: &mut Vec<u8>, runs: &[Run], sigma: u64) {
    if sigma <= 16 {
        out.push(1); // packed scheme marker
        for run in runs {
            debug_assert!(run.symbol < sigma.max(1));
            if run.len <= 15 {
                out.push((run.symbol as u8) | (((run.len - 1) as u8) << 4));
            } else {
                out.push((run.symbol as u8) | (15 << 4));
                varint::write_u64(out, run.len - 16);
            }
        }
    } else {
        out.push(0); // generic scheme marker
        for run in runs {
            varint::write_u64(out, run.symbol);
            varint::write_u64(out, run.len - 1);
        }
    }
}

/// Decodes `count` runs written by [`encode_runs_packed`] into `runs`,
/// clearing it first and reusing its allocation. The record cache decodes
/// every miss through this path so steady-state decompression stays
/// allocation-free.
///
/// # Errors
///
/// Propagates varint/EOF errors; returns [`Error::Corrupt`] on an unknown
/// scheme marker or a run length that overflows.
pub fn decode_runs_packed_into(
    cur: &mut varint::Cursor<'_>,
    count: usize,
    runs: &mut Vec<Run>,
) -> Result<()> {
    let scheme = cur.read_bytes(1)?[0];
    runs.clear();
    runs.reserve(count);
    match scheme {
        0 => {
            for _ in 0..count {
                let symbol = cur.read_u64()?;
                let len = cur
                    .read_u64()?
                    .checked_add(1)
                    .ok_or_else(|| Error::Corrupt("run length overflow".into()))?;
                runs.push(Run { symbol, len });
            }
            Ok(())
        }
        1 => {
            for _ in 0..count {
                let byte = cur.read_bytes(1)?[0];
                let symbol = (byte & 0x0F) as u64;
                let inline = (byte >> 4) as u64;
                let len = if inline == 15 {
                    let extra = cur.read_u64()?;
                    extra
                        .checked_add(16)
                        .ok_or_else(|| Error::Corrupt("packed run overflow".into()))?
                } else {
                    inline + 1
                };
                runs.push(Run { symbol, len });
            }
            Ok(())
        }
        other => Err(Error::Corrupt(format!("unknown RLE scheme {other}"))),
    }
}

/// Collapses a symbol sequence into maximal runs.
///
/// ```
/// use mg_support::rle::{collapse, Run};
/// let runs = collapse([3, 3, 3, 1, 2, 2].into_iter());
/// assert_eq!(runs, vec![Run::new(3, 3), Run::new(1, 1), Run::new(2, 2)]);
/// ```
pub fn collapse<I: IntoIterator<Item = u64>>(symbols: I) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for s in symbols {
        match runs.last_mut() {
            Some(last) if last.symbol == s => last.len += 1,
            _ => runs.push(Run::new(s, 1)),
        }
    }
    runs
}

/// Expands runs back into a flat symbol sequence (inverse of [`collapse`]).
pub fn expand(runs: &[Run]) -> Vec<u64> {
    let total: u64 = runs.iter().map(|r| r.len).sum();
    let mut out = Vec::with_capacity(total as usize);
    for run in runs {
        out.extend(std::iter::repeat_n(run.symbol, run.len as usize));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode(buf: &[u8], count: usize) -> Result<Vec<Run>> {
        let mut runs = Vec::new();
        decode_runs_packed_into(&mut varint::Cursor::new(buf), count, &mut runs)?;
        Ok(runs)
    }

    #[test]
    fn collapse_empty() {
        assert!(collapse(std::iter::empty()).is_empty());
    }

    #[test]
    fn collapse_merges_adjacent_only() {
        let runs = collapse([1, 1, 2, 1]);
        assert_eq!(
            runs,
            vec![Run::new(1, 2), Run::new(2, 1), Run::new(1, 1)]
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_run_panics() {
        Run::new(0, 0);
    }

    #[test]
    fn packed_roundtrip_small_alphabet() {
        let runs = vec![
            Run::new(0, 1),
            Run::new(15, 14),
            Run::new(3, 15),
            Run::new(7, 16),
            Run::new(2, 100_000),
        ];
        let mut buf = Vec::new();
        encode_runs_packed(&mut buf, &runs, 16);
        let mut cur = varint::Cursor::new(&buf);
        let mut back = Vec::new();
        decode_runs_packed_into(&mut cur, runs.len(), &mut back).unwrap();
        assert_eq!(back, runs);
        assert!(cur.is_at_end());
    }

    #[test]
    fn packed_falls_back_for_large_alphabet() {
        let runs = vec![Run::new(500, 2), Run::new(17, 1)];
        let mut buf = Vec::new();
        encode_runs_packed(&mut buf, &runs, 600);
        assert_eq!(buf[0], 0, "should use generic scheme");
        assert_eq!(decode(&buf, runs.len()).unwrap(), runs);
    }

    #[test]
    fn generic_roundtrip() {
        let runs = vec![Run::new(0, 1), Run::new(5, 1000), Run::new(u64::MAX, 3)];
        let mut buf = Vec::new();
        encode_runs_packed(&mut buf, &runs, u64::MAX);
        let mut cur = varint::Cursor::new(&buf);
        let mut back = Vec::new();
        decode_runs_packed_into(&mut cur, runs.len(), &mut back).unwrap();
        assert_eq!(back, runs);
        assert!(cur.is_at_end());
    }

    #[test]
    fn packed_is_smaller_for_short_runs() {
        let runs: Vec<Run> = (0..100).map(|i| Run::new(i % 4, 1 + i % 5)).collect();
        let mut generic = Vec::new();
        encode_runs_packed(&mut generic, &runs, 17);
        let mut packed = Vec::new();
        encode_runs_packed(&mut packed, &runs, 4);
        assert!(packed.len() < generic.len());
    }

    #[test]
    fn unknown_scheme_is_corrupt() {
        assert!(matches!(decode(&[9u8, 0, 0], 1), Err(Error::Corrupt(_))));
    }

    #[test]
    fn expand_collapse_roundtrip() {
        let symbols = vec![1, 1, 1, 2, 3, 3, 1];
        assert_eq!(expand(&collapse(symbols.iter().copied())), symbols);
    }

    proptest! {
        #[test]
        fn prop_collapse_expand_identity(symbols in proptest::collection::vec(0u64..8, 0..500)) {
            let runs = collapse(symbols.iter().copied());
            // Adjacent runs always differ in symbol.
            for pair in runs.windows(2) {
                prop_assert_ne!(pair[0].symbol, pair[1].symbol);
            }
            prop_assert_eq!(expand(&runs), symbols);
        }

        #[test]
        fn prop_packed_roundtrip(raw in proptest::collection::vec((0u64..16, 1u64..1_000_000), 0..100)) {
            let runs: Vec<Run> = raw.iter().map(|&(s, l)| Run::new(s, l)).collect();
            let mut buf = Vec::new();
            encode_runs_packed(&mut buf, &runs, 16);
            prop_assert_eq!(decode(&buf, runs.len()).unwrap(), runs);
        }

        #[test]
        fn prop_generic_roundtrip(raw in proptest::collection::vec((any::<u64>(), 1u64..1_000_000), 0..100)) {
            let runs: Vec<Run> = raw.iter().map(|&(s, l)| Run::new(s, l)).collect();
            let mut buf = Vec::new();
            encode_runs_packed(&mut buf, &runs, u64::MAX);
            prop_assert_eq!(decode(&buf, runs.len()).unwrap(), runs);
        }
    }
}
