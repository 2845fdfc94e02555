//! GBWT node records: the per-node unit of the index.
//!
//! The record of node `v` stores (a) the outgoing edges of `v` that some
//! haplotype actually takes, each with the *offset* of `v`'s block inside
//! the destination record, and (b) the BWT body: for each haplotype visit of
//! `v` (in BWT order), the rank of the edge that visit continues through,
//! run-length encoded. Records are stored compressed and decompressed on
//! access; [`crate::cache::CachedGbwt`] keeps hot records decoded.

use mg_support::rle::{self, Run};
use mg_support::varint::{self, Cursor};
use mg_support::{Error, Result};

/// The GBWT endmarker symbol, terminating every indexed sequence.
pub const ENDMARKER: u64 = 0;

/// One outgoing edge of a node record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordEdge {
    /// Destination symbol (`2 * node + orientation`, or [`ENDMARKER`]).
    pub symbol: u64,
    /// Number of visits at the destination that precede the block arriving
    /// from this record (the LF offset).
    pub offset: u64,
}

/// A decompressed node record.
///
/// # Examples
///
/// ```
/// use mg_gbwt::record::{DecodedRecord, RecordEdge};
/// use mg_support::rle::Run;
///
/// // Three visits: two continue to symbol 4, one to symbol 6.
/// let rec = DecodedRecord::new(
///     vec![RecordEdge { symbol: 4, offset: 0 }, RecordEdge { symbol: 6, offset: 5 }],
///     vec![Run::new(0, 2), Run::new(1, 1)],
/// );
/// assert_eq!(rec.total_visits(), 3);
/// assert_eq!(rec.lf(1), Some((4, 1)));
/// assert_eq!(rec.lf(2), Some((6, 5)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodedRecord {
    /// Outgoing edges, sorted by destination symbol.
    pub edges: Vec<RecordEdge>,
    /// BWT body: runs of edge ranks covering all visits in BWT order.
    pub runs: Vec<Run>,
    total: u64,
}

/// A borrowed record: what a [`crate::CachedGbwt`] lookup returns, with
/// the same fields a [`DecodedRecord`] has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Number of haplotype visits at this node.
    pub total: u64,
    /// Outgoing edges, sorted by destination symbol.
    pub edges: &'a [RecordEdge],
    /// BWT body: runs of edge ranks covering all visits in BWT order.
    pub runs: &'a [Run],
}

impl RecordView<'_> {
    /// Number of haplotype visits at this node.
    pub fn total_visits(&self) -> u64 {
        self.total
    }

    /// Returns `true` if no haplotype visits this node.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

impl DecodedRecord {
    /// Assembles a record from its parts.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if edges are unsorted or a run names a
    /// nonexistent edge.
    pub fn new(edges: Vec<RecordEdge>, runs: Vec<Run>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0].symbol < w[1].symbol));
        debug_assert!(runs.iter().all(|r| (r.symbol as usize) < edges.len()));
        let total = runs.iter().map(|r| r.len).sum();
        DecodedRecord { edges, runs, total }
    }

    /// An empty record (node not visited by any haplotype).
    pub fn empty() -> Self {
        DecodedRecord::default()
    }

    /// Resets to the empty record, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.edges.clear();
        self.runs.clear();
        self.total = 0;
    }

    /// Number of haplotype visits at this node.
    pub fn total_visits(&self) -> u64 {
        self.total
    }

    /// Returns `true` if no haplotype visits this node.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The record as a [`RecordView`].
    pub fn view(&self) -> RecordView<'_> {
        RecordView { total: self.total, edges: &self.edges, runs: &self.runs }
    }

    /// Number of outgoing edges (including a possible endmarker edge).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Index of `symbol` in the edge list, if present.
    pub fn edge_index(&self, symbol: u64) -> Option<usize> {
        self.edges
            .binary_search_by_key(&symbol, |e| e.symbol)
            .ok()
    }

    /// Follows visit `offset` one step: the LF mapping.
    ///
    /// Returns `(successor symbol, offset at successor)`, or `None` if
    /// `offset` is out of range or the visit ends here (endmarker edge).
    pub fn lf(&self, offset: u64) -> Option<(u64, u64)> {
        let mut pos = 0u64;
        for (i, run) in self.runs.iter().enumerate() {
            if offset < pos + run.len {
                let edge = self.edges[run.symbol as usize];
                if edge.symbol == ENDMARKER {
                    return None;
                }
                // The visit continues to its edge at position edge.offset +
                // (visits before it that use the same edge).
                let before: u64 = self.runs[..i]
                    .iter()
                    .filter(|r| r.symbol == run.symbol)
                    .map(|r| r.len)
                    .sum();
                return Some((edge.symbol, edge.offset + before + offset - pos));
            }
            pos += run.len;
        }
        None
    }

    /// Number of visits in `start..end` (clamped to the body) that continue
    /// through edge `edge_idx`.
    pub fn count_in_range(&self, start: u64, end: u64, edge_idx: usize) -> u64 {
        let end = end.min(self.total);
        if start >= end {
            return 0;
        }
        let mut pos = 0u64;
        let mut count = 0u64;
        for run in &self.runs {
            let run_start = pos;
            let run_end = pos + run.len;
            if run.symbol as usize == edge_idx {
                let lo = run_start.max(start);
                let hi = run_end.min(end);
                if lo < hi {
                    count += hi - lo;
                }
            }
            pos = run_end;
            if pos >= end {
                break;
            }
        }
        count
    }

    /// Number of visits among the first `prefix` that continue through
    /// `edge_idx` (the rank query behind [`crate::Gbwt::extend`]).
    pub fn rank_at(&self, prefix: u64, edge_idx: usize) -> u64 {
        self.count_in_range(0, prefix, edge_idx)
    }

    /// Successor symbols excluding the endmarker, in ascending order.
    pub fn successors(&self) -> impl Iterator<Item = u64> + '_ {
        self.edges
            .iter()
            .map(|e| e.symbol)
            .filter(|&s| s != ENDMARKER)
    }

    /// Encodes the record to bytes.
    ///
    /// Layout: `edge_count`, then edges as (delta-encoded symbol, offset)
    /// varint pairs, then `run_count` and the packed run stream.
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.edges.len() as u64);
        let mut prev = 0u64;
        for edge in &self.edges {
            varint::write_u64(out, edge.symbol - prev);
            varint::write_u64(out, edge.offset);
            prev = edge.symbol;
        }
        varint::write_u64(out, self.runs.len() as u64);
        rle::encode_runs_packed(out, &self.runs, self.edges.len() as u64);
    }

    /// Decodes a record previously written by [`DecodedRecord::encode`].
    ///
    /// # Errors
    ///
    /// Returns decoding errors and [`Error::Corrupt`] if a run names a
    /// nonexistent edge.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let mut rec = DecodedRecord::empty();
        rec.decode_into(cur)?;
        Ok(rec)
    }

    /// Decodes a record into `self`, reusing the edge and run allocations.
    /// This is the cache-miss path of [`crate::cache::CachedGbwt`]: records
    /// are decompressed into recycled storage instead of fresh vectors.
    ///
    /// On error `self` is left cleared (an empty record).
    ///
    /// # Errors
    ///
    /// Returns decoding errors and [`Error::Corrupt`] if a run names a
    /// nonexistent edge.
    pub fn decode_into(&mut self, cur: &mut Cursor<'_>) -> Result<()> {
        self.edges.clear();
        self.runs.clear();
        self.total = 0;
        let edge_count = cur.read_u64()? as usize;
        self.edges.reserve(edge_count);
        let mut prev = 0u64;
        for i in 0..edge_count {
            let delta = cur.read_u64()?;
            let offset = cur.read_u64()?;
            if i > 0 && delta == 0 {
                self.edges.clear();
                return Err(Error::Corrupt("record edges must be strictly increasing".into()));
            }
            let symbol = match prev.checked_add(delta) {
                Some(s) => s,
                None => {
                    self.edges.clear();
                    return Err(Error::Corrupt("edge symbol overflow".into()));
                }
            };
            self.edges.push(RecordEdge { symbol, offset });
            prev = symbol;
        }
        let run_count = cur.read_u64()? as usize;
        if let Err(e) = rle::decode_runs_packed_into(cur, run_count, &mut self.runs) {
            self.edges.clear();
            self.runs.clear();
            return Err(e);
        }
        for run in &self.runs {
            if run.symbol as usize >= edge_count {
                let bad = run.symbol;
                self.edges.clear();
                self.runs.clear();
                return Err(Error::Corrupt(format!(
                    "run references edge {bad} of {edge_count}"
                )));
            }
        }
        debug_assert!(self.edges.windows(2).all(|w| w[0].symbol < w[1].symbol));
        self.total = self.runs.iter().map(|r| r.len).sum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_record() -> DecodedRecord {
        // Edges to 4 (offset 10), 7 (offset 0), endmarker first.
        DecodedRecord::new(
            vec![
                RecordEdge { symbol: ENDMARKER, offset: 0 },
                RecordEdge { symbol: 4, offset: 10 },
                RecordEdge { symbol: 7, offset: 3 },
            ],
            // Body: 4 4 7 $ 4 7 7
            vec![
                Run::new(1, 2),
                Run::new(2, 1),
                Run::new(0, 1),
                Run::new(1, 1),
                Run::new(2, 2),
            ],
        )
    }

    #[test]
    fn totals() {
        let rec = sample_record();
        assert_eq!(rec.total_visits(), 7);
        assert_eq!(rec.edge_count(), 3);
        assert!(!rec.is_empty());
        assert!(DecodedRecord::empty().is_empty());
    }

    #[test]
    fn lf_follows_each_visit() {
        let rec = sample_record();
        // Visits to 4 are at body positions 0, 1, 4 -> offsets 10, 11, 12.
        assert_eq!(rec.lf(0), Some((4, 10)));
        assert_eq!(rec.lf(1), Some((4, 11)));
        assert_eq!(rec.lf(4), Some((4, 12)));
        // Visits to 7 at positions 2, 5, 6 -> offsets 3, 4, 5.
        assert_eq!(rec.lf(2), Some((7, 3)));
        assert_eq!(rec.lf(5), Some((7, 4)));
        assert_eq!(rec.lf(6), Some((7, 5)));
        // Position 3 ends (endmarker).
        assert_eq!(rec.lf(3), None);
        // Out of range.
        assert_eq!(rec.lf(7), None);
    }

    #[test]
    fn edge_index_lookup() {
        let rec = sample_record();
        assert_eq!(rec.edge_index(4), Some(1));
        assert_eq!(rec.edge_index(ENDMARKER), Some(0));
        assert_eq!(rec.edge_index(5), None);
    }

    #[test]
    fn range_counting() {
        let rec = sample_record();
        // Body: 4 4 7 $ 4 7 7 (edge indexes 1 1 2 0 1 2 2)
        assert_eq!(rec.count_in_range(0, 7, 1), 3);
        assert_eq!(rec.count_in_range(0, 7, 2), 3);
        assert_eq!(rec.count_in_range(0, 7, 0), 1);
        assert_eq!(rec.count_in_range(1, 5, 1), 2);
        assert_eq!(rec.count_in_range(3, 3, 1), 0);
        assert_eq!(rec.count_in_range(5, 100, 2), 2);
        let counts: Vec<u64> = (0..3).map(|e| rec.count_in_range(1, 6, e)).collect();
        assert_eq!(counts, vec![1, 2, 2]);
        assert_eq!(rec.rank_at(3, 1), 2);
    }

    #[test]
    fn successors_skip_endmarker() {
        let rec = sample_record();
        assert_eq!(rec.successors().collect::<Vec<_>>(), vec![4, 7]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rec = sample_record();
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let mut cur = Cursor::new(&buf);
        let back = DecodedRecord::decode(&mut cur).unwrap();
        assert_eq!(rec, back);
        assert!(cur.is_at_end());
    }

    #[test]
    fn decode_into_reuses_and_matches_decode() {
        let rec = sample_record();
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        // Seed the target with junk capacity; decode_into must fully replace
        // the contents while reusing the allocations.
        let mut target = DecodedRecord::new(
            vec![RecordEdge { symbol: 1, offset: 9 }, RecordEdge { symbol: 3, offset: 9 }],
            vec![Run::new(0, 5), Run::new(1, 5), Run::new(0, 5)],
        );
        target.decode_into(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(target, rec);
        // A failed decode leaves the target cleared, not half-written.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1); // one edge
        varint::write_u64(&mut bytes, 4); // symbol delta
        varint::write_u64(&mut bytes, 0); // offset
        varint::write_u64(&mut bytes, 1); // one run
        bytes.push(0); // generic scheme
        varint::write_u64(&mut bytes, 3); // edge index 3: invalid
        varint::write_u64(&mut bytes, 0); // run len 1
        assert!(target.decode_into(&mut Cursor::new(&bytes)).is_err());
        assert!(target.is_empty());
        assert_eq!(target, DecodedRecord::empty());
    }

    #[test]
    fn empty_record_roundtrip() {
        let rec = DecodedRecord::empty();
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let back = DecodedRecord::decode(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn decode_rejects_bad_edge_reference() {
        // One edge, but a run referencing edge 3.
        let rec = DecodedRecord::new(
            vec![RecordEdge { symbol: 4, offset: 0 }],
            vec![Run::new(0, 2)],
        );
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        // Tamper: run symbol is in the packed stream; easier to build bytes
        // manually with the generic scheme.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1); // one edge
        varint::write_u64(&mut bytes, 4); // symbol delta
        varint::write_u64(&mut bytes, 0); // offset
        varint::write_u64(&mut bytes, 1); // one run
        bytes.push(0); // generic scheme
        varint::write_u64(&mut bytes, 3); // edge index 3: invalid
        varint::write_u64(&mut bytes, 0); // run len 1
        assert!(DecodedRecord::decode(&mut Cursor::new(&bytes)).is_err());
    }

    /// Strategy: a structurally valid record.
    fn record_strategy() -> impl Strategy<Value = DecodedRecord> {
        (1usize..6).prop_flat_map(|edge_count| {
            let edges = proptest::collection::vec(0u64..1000, edge_count)
                .prop_map(move |mut syms| {
                    syms.sort_unstable();
                    syms.dedup();
                    syms.into_iter()
                        .map(|s| RecordEdge { symbol: s, offset: s * 2 })
                        .collect::<Vec<_>>()
                });
            edges.prop_flat_map(|edges| {
                let n = edges.len() as u64;
                proptest::collection::vec((0..n, 1u64..5), 0..20).prop_map(move |raw| {
                    let runs: Vec<Run> = raw.iter().map(|&(s, l)| Run::new(s, l)).collect();
                    DecodedRecord::new(edges.clone(), runs)
                })
            })
        })
    }

    proptest! {
        #[test]
        fn prop_roundtrip(rec in record_strategy()) {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let back = DecodedRecord::decode(&mut Cursor::new(&buf)).unwrap();
            prop_assert_eq!(rec, back);
        }

        #[test]
        fn prop_edge_counts_sum_to_range(rec in record_strategy(), a: u64, b: u64) {
            let total = rec.total_visits();
            let (start, end) = ((a % (total + 1)).min(b % (total + 1)), (a % (total + 1)).max(b % (total + 1)));
            let counted: u64 =
                (0..rec.edge_count()).map(|e| rec.count_in_range(start, end, e)).sum();
            prop_assert_eq!(counted, end - start);
        }

        #[test]
        fn prop_lf_offsets_within_edge_are_consecutive(rec in record_strategy()) {
            // Visits through the same edge map to consecutive offsets.
            let mut seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            for i in 0..rec.total_visits() {
                if let Some((sym, off)) = rec.lf(i) {
                    let edge = rec.edge_index(sym).unwrap();
                    let base = rec.edges[edge].offset;
                    let expected = base + seen.get(&sym).copied().unwrap_or(0);
                    prop_assert_eq!(off, expected);
                    *seen.entry(sym).or_insert(0) += 1;
                }
            }
        }
    }
}
