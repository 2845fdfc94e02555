//! The GBWT index: compressed records plus the queries Giraffe relies on.

use std::sync::atomic::{AtomicU64, Ordering};

use mg_support::mgi::{
    put_u64, put_u64_slice, FixedReader, MgiFile, MgiWriter, TAG_GBWT_ENDMARKER,
    TAG_GBWT_END_IDS, TAG_GBWT_META, TAG_GBWT_OFFSETS, TAG_GBWT_RECORDS,
};
use mg_support::probe::{MemProbe, REGION_RECORDS};
use mg_support::varint::Cursor;
use mg_support::{Error, Result};

use crate::record::{DecodedRecord, ENDMARKER};

/// Monotonic source of [`Gbwt::uid`] values.
static NEXT_GBWT_UID: AtomicU64 = AtomicU64::new(1);

/// A half-open range of visit offsets within one node record.
///
/// The result of [`Gbwt::find`] / [`Gbwt::extend`]: all haplotype positions
/// whose recent history matches the searched pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchState {
    /// The node symbol the state lives at.
    pub node: u64,
    /// Start of the visit range (inclusive).
    pub start: u64,
    /// End of the visit range (exclusive).
    pub end: u64,
}

impl SearchState {
    /// An empty state at `node`.
    pub fn empty(node: u64) -> Self {
        SearchState { node, start: 0, end: 0 }
    }

    /// Number of haplotype positions matching.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Returns `true` if no haplotype matches.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A bidirectional search state: the pattern's forward occurrences (range at
/// its last node) paired with its reverse occurrences (range at the flipped
/// first node). Both ranges always have equal size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BidirState {
    /// Range over occurrences of the pattern, at its last symbol.
    pub forward: SearchState,
    /// Range over occurrences of the reversed pattern, at the flipped first
    /// symbol.
    pub backward: SearchState,
}

impl BidirState {
    /// Number of haplotype positions matching.
    pub fn len(&self) -> u64 {
        self.forward.len()
    }

    /// Returns `true` if no haplotype matches.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Swaps search directions (the state for the reversed pattern).
    pub fn flipped(self) -> Self {
        BidirState {
            forward: self.backward,
            backward: self.forward,
        }
    }
}

/// Extends a unidirectional state through `record`, which must be the
/// record of `state.node`. This is the range arithmetic behind
/// [`Gbwt::extend`], factored out so callers holding a cached record (a
/// [`crate::CachedGbwt`] entry) can skip the re-fetch.
pub fn record_extend(record: &DecodedRecord, state: &SearchState, symbol: u64) -> SearchState {
    if state.is_empty() {
        return SearchState::empty(symbol);
    }
    let Some(edge_idx) = record.edge_index(symbol) else {
        return SearchState::empty(symbol);
    };
    let offset = record.edges[edge_idx].offset;
    let before = record.rank_at(state.start, edge_idx);
    let inside = record.count_in_range(state.start, state.end, edge_idx);
    SearchState {
        node: symbol,
        start: offset + before,
        end: offset + before + inside,
    }
}

/// Extends a bidirectional state forward through `record`, which must be
/// the record of `state.forward.node`. The range arithmetic behind
/// [`Gbwt::extend_forward`].
pub fn record_extend_forward(
    record: &DecodedRecord,
    state: &BidirState,
    symbol: u64,
) -> BidirState {
    if state.is_empty() {
        return BidirState {
            forward: SearchState::empty(symbol),
            backward: SearchState::empty(state.backward.node),
        };
    }
    let Some(edge_idx) = record.edge_index(symbol) else {
        return BidirState {
            forward: SearchState::empty(symbol),
            backward: SearchState::empty(state.backward.node),
        };
    };
    let start = state.forward.start;
    let end = state.forward.end;
    let before = record.rank_at(start, edge_idx);
    let inside = record.count_in_range(start, end, edge_idx);
    // Forward range: standard LF over the restriction to `symbol`.
    let offset = record.edges[edge_idx].offset;
    let forward = SearchState {
        node: symbol,
        start: offset + before,
        end: offset + before + inside,
    };
    // Backward range: occurrences of the reversed (flipped) pattern are
    // grouped by flipped successor; skip the groups that sort before.
    // Sequence ends (endmarker edge) have no reverse counterpart and sort
    // before every real group in the reversed index: the reverse sequence
    // *starts* there.
    let preceding: u64 = record
        .edges
        .iter()
        .enumerate()
        .filter(|(_, e)| e.symbol == ENDMARKER || (e.symbol ^ 1) < (symbol ^ 1))
        .map(|(i, _)| record.count_in_range(start, end, i))
        .sum();
    let backward = SearchState {
        node: state.backward.node,
        start: state.backward.start + preceding,
        end: state.backward.start + preceding + inside,
    };
    BidirState { forward, backward }
}

/// Structural statistics of a [`Gbwt`] (see [`Gbwt::statistics`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbwtStatistics {
    /// Total BWT runs across nonempty records.
    pub total_runs: u64,
    /// Number of records with at least one visit.
    pub nonempty_records: u64,
    /// Mean runs per nonempty record (run-length compressibility).
    pub avg_runs_per_record: f64,
    /// Compressed bytes per haplotype visit.
    pub bytes_per_visit: f64,
}

/// The compressed GBWT index.
///
/// Records are decompressed on access; wrap the index in a
/// [`crate::CachedGbwt`] to keep hot records decoded (this is the structure
/// whose initial capacity the paper autotunes).
///
/// # Examples
///
/// ```
/// use mg_graph::{Handle, NodeId};
/// use mg_gbwt::GbwtBuilder;
///
/// let path: Vec<Handle> = [1u64, 2, 3]
///     .iter().map(|&i| Handle::forward(NodeId::new(i))).collect();
/// let gbwt = GbwtBuilder::new().insert(&path).build().unwrap();
/// let state = gbwt.find(Handle::forward(NodeId::new(1)).to_gbwt());
/// assert_eq!(state.len(), 1);
/// let state = gbwt.extend(&state, Handle::forward(NodeId::new(2)).to_gbwt());
/// assert_eq!(state.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Gbwt {
    /// The compressed record blob.
    records: Vec<u8>,
    /// Byte offsets of each record in `records`, indexed by `symbol - 2`;
    /// one trailing entry.
    offsets: Vec<u64>,
    endmarker: Vec<u8>,
    sequence_count: u64,
    path_count: u64,
    bidirectional: bool,
    alphabet_size: u64,
    total_visits: u64,
    /// Sequence id of each ending visit, addressed by the endmarker-edge
    /// offsets (grouped by final node symbol ascending).
    end_ids: Vec<u64>,
    /// Process-unique identity for warm-cache reuse (see [`Gbwt::uid`]).
    /// Excluded from equality: two indexes with identical content compare
    /// equal even though their uids differ.
    uid: u64,
}

impl PartialEq for Gbwt {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
            && self.offsets == other.offsets
            && self.endmarker == other.endmarker
            && self.sequence_count == other.sequence_count
            && self.path_count == other.path_count
            && self.bidirectional == other.bidirectional
            && self.alphabet_size == other.alphabet_size
            && self.total_visits == other.total_visits
            && self.end_ids == other.end_ids
    }
}

impl Eq for Gbwt {}

impl Gbwt {
    /// Assembles an index from its parts (used by [`crate::GbwtBuilder`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        records: Vec<u8>,
        offsets: Vec<u64>,
        endmarker: Vec<u8>,
        sequence_count: u64,
        path_count: u64,
        bidirectional: bool,
        alphabet_size: u64,
        total_visits: u64,
        end_ids: Vec<u64>,
    ) -> Self {
        Gbwt {
            records,
            offsets,
            endmarker,
            sequence_count,
            path_count,
            bidirectional,
            alphabet_size,
            total_visits,
            end_ids,
            uid: NEXT_GBWT_UID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A process-unique identity for this index value, assigned at
    /// construction (clones share it, since their content is identical).
    /// Per-thread record caches record the uid they were warmed against so
    /// a persistent worker pool can tell whether a retained cache still
    /// matches the index of the next run.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of indexed sequences (paths × 2 when bidirectional).
    pub fn sequence_count(&self) -> u64 {
        self.sequence_count
    }

    /// Number of *inserted* paths.
    pub fn path_count(&self) -> u64 {
        self.path_count
    }

    /// Whether reverse sequences are indexed (required for bidirectional
    /// search).
    pub fn is_bidirectional(&self) -> bool {
        self.bidirectional
    }

    /// One past the largest symbol with a record.
    pub fn alphabet_size(&self) -> u64 {
        self.alphabet_size
    }

    /// Total haplotype visits across all node records.
    pub fn total_visits(&self) -> u64 {
        self.total_visits
    }

    /// Size in bytes of the compressed record blob.
    pub fn compressed_bytes(&self) -> usize {
        self.records.len() + self.endmarker.len()
    }

    /// Returns `true` if `symbol` has a (possibly empty) record.
    pub fn has_record(&self, symbol: u64) -> bool {
        symbol >= 2 && symbol < self.alphabet_size
    }

    /// Decompresses the record of `symbol`, reporting the memory touched and
    /// the decode work to `probe`.
    ///
    /// Unknown symbols yield an empty record, mirroring how Giraffe treats
    /// nodes absent from every haplotype.
    pub fn record_with_probe<P: MemProbe>(&self, symbol: u64, probe: &mut P) -> DecodedRecord {
        let mut record = DecodedRecord::empty();
        self.record_into_with_probe(symbol, probe, &mut record);
        record
    }

    /// Like [`Gbwt::record_with_probe`], but decompresses into `out`,
    /// reusing its edge and run allocations. The record cache routes every
    /// miss through this so steady-state decoding recycles storage.
    pub fn record_into_with_probe<P: MemProbe>(
        &self,
        symbol: u64,
        probe: &mut P,
        out: &mut DecodedRecord,
    ) {
        if !self.has_record(symbol) {
            probe.instret(2);
            out.clear();
            return;
        }
        let idx = (symbol - 2) as usize;
        let start = self.offsets[idx] as usize;
        let end = self.offsets[idx + 1] as usize;
        probe.touch(
            REGION_RECORDS.at(self.offsets.len() as u64) + start as u64,
            (end - start) as u32,
        );
        // Offset-table lookup.
        probe.touch(REGION_RECORDS.at(idx as u64), 16);
        let mut cur = Cursor::new(&self.records[start..end]);
        out.decode_into(&mut cur).expect("internal record is valid");
        // Decompression cost scales with the encoded size: varint decoding
        // and run expansion dominate a cold record access.
        probe.instret(40 + 14 * (end - start) as u64);
    }

    /// Decompresses the record of `symbol` without instrumentation.
    pub fn record(&self, symbol: u64) -> DecodedRecord {
        self.record_with_probe(symbol, &mut mg_support::probe::NoProbe)
    }

    /// Decompresses the endmarker record (sequence starts).
    pub fn endmarker_record(&self) -> DecodedRecord {
        let mut cur = Cursor::new(&self.endmarker);
        DecodedRecord::decode(&mut cur).expect("internal endmarker is valid")
    }

    /// Follows one haplotype visit a single step forward.
    ///
    /// Returns `None` when the sequence ends at this visit.
    pub fn follow(&self, symbol: u64, offset: u64) -> Option<(u64, u64)> {
        self.record(symbol).lf(offset)
    }

    /// The first visit of sequence `id`: `(symbol, offset)`.
    ///
    /// Returns `None` if `id` is out of range.
    pub fn sequence_start(&self, id: u64) -> Option<(u64, u64)> {
        if id >= self.sequence_count {
            return None;
        }
        self.endmarker_record().lf(id)
    }

    /// Reconstructs the full symbol sequence of sequence `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if `id` is out of range.
    pub fn sequence(&self, id: u64) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        let mut cursor = self
            .sequence_start(id)
            .ok_or_else(|| Error::Corrupt(format!("sequence {id} out of range")))?;
        loop {
            out.push(cursor.0);
            match self.follow(cursor.0, cursor.1) {
                Some(next) => cursor = next,
                None => break,
            }
        }
        Ok(out)
    }

    /// All visits of `symbol`: the starting point of a backward search.
    pub fn find(&self, symbol: u64) -> SearchState {
        let record = self.record(symbol);
        SearchState {
            node: symbol,
            start: 0,
            end: record.total_visits(),
        }
    }

    /// Extends a search state one symbol forward.
    pub fn extend(&self, state: &SearchState, symbol: u64) -> SearchState {
        if state.is_empty() {
            return SearchState::empty(symbol);
        }
        record_extend(&self.record(state.node), state, symbol)
    }

    /// Starts a bidirectional search at a single symbol.
    ///
    /// # Panics
    ///
    /// Panics if the index is not bidirectional.
    pub fn find_bidir(&self, symbol: u64) -> BidirState {
        assert!(self.bidirectional, "bidirectional search needs a bidirectional index");
        BidirState {
            forward: self.find(symbol),
            backward: self.find(symbol ^ 1),
        }
    }

    /// Extends a bidirectional state forward by `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if the index is not bidirectional.
    pub fn extend_forward(&self, state: &BidirState, symbol: u64) -> BidirState {
        assert!(self.bidirectional, "bidirectional search needs a bidirectional index");
        if state.is_empty() {
            return BidirState {
                forward: SearchState::empty(symbol),
                backward: SearchState::empty(state.backward.node),
            };
        }
        record_extend_forward(&self.record(state.forward.node), state, symbol)
    }

    /// Extends a bidirectional state backward by `symbol` (the new first
    /// symbol of the pattern).
    ///
    /// # Panics
    ///
    /// Panics if the index is not bidirectional.
    pub fn extend_backward(&self, state: &BidirState, symbol: u64) -> BidirState {
        self.extend_forward(&state.flipped(), symbol ^ 1).flipped()
    }

    /// Identifies the sequence that visit `(symbol, offset)` belongs to by
    /// following it forward to its end — the GBWT `locate` query that lets
    /// the mapper name the haplotypes supporting a match.
    ///
    /// Each step decompresses a record, so the cost is O(remaining path
    /// length × decode); use it on the cold annotation path, not inside
    /// mapping kernels.
    ///
    /// Returns `None` for invalid positions.
    pub fn locate(&self, symbol: u64, offset: u64) -> Option<u64> {
        let mut cursor = (symbol, offset);
        loop {
            let record = self.record(cursor.0);
            match record.lf_full(cursor.1)? {
                (ENDMARKER, end_idx) => {
                    return self.end_ids.get(end_idx as usize).copied();
                }
                next => cursor = next,
            }
        }
    }

    /// Sequence ids of every haplotype position in `state`, ascending and
    /// deduplicated. `limit` caps the work (positions located).
    pub fn locate_state(&self, state: &SearchState, limit: usize) -> Vec<u64> {
        let mut ids: Vec<u64> = (state.start..state.end)
            .take(limit)
            .filter_map(|offset| self.locate(state.node, offset))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Structural statistics: `(total runs, average runs per nonempty
    /// record, compressed bytes per visit)` — the compression profile the
    /// GBZ paper reports for real pangenomes.
    pub fn statistics(&self) -> GbwtStatistics {
        let mut runs = 0u64;
        let mut nonempty = 0u64;
        for sym in 2..self.alphabet_size {
            let record = self.record(sym);
            if !record.is_empty() {
                nonempty += 1;
                runs += record.runs.len() as u64;
            }
        }
        GbwtStatistics {
            total_runs: runs,
            nonempty_records: nonempty,
            avg_runs_per_record: if nonempty == 0 { 0.0 } else { runs as f64 / nonempty as f64 },
            bytes_per_visit: if self.total_visits == 0 {
                0.0
            } else {
                self.compressed_bytes() as f64 / self.total_visits as f64
            },
        }
    }

    /// Appends the index to a `.mgi` container: the record blob, offset
    /// table, and endmarker land in their in-memory layouts so
    /// [`Gbwt::from_mgi`] reads them back without decompressing anything.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        let mut meta = Vec::new();
        put_u64(&mut meta, self.sequence_count);
        put_u64(&mut meta, self.path_count);
        put_u64(&mut meta, self.bidirectional as u64);
        put_u64(&mut meta, self.alphabet_size);
        put_u64(&mut meta, self.total_visits);
        w.section(TAG_GBWT_META, meta);
        w.section(TAG_GBWT_RECORDS, self.records.clone());
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &self.offsets);
        w.section(TAG_GBWT_OFFSETS, buf);
        w.section(TAG_GBWT_ENDMARKER, self.endmarker.clone());
        let mut buf = Vec::new();
        put_u64_slice(&mut buf, &self.end_ids);
        w.section(TAG_GBWT_END_IDS, buf);
    }

    /// Loads an index from a container (`.mgz` or `.mgi`).
    ///
    /// Structural invariants (monotonic offsets covering the blob, the
    /// offset table matching the alphabet) are checked here; the encoded
    /// record bytes themselves are vouched for by the container's section
    /// checksums. [`Gbwt::validate_records`] is the opt-in deep check.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when any structural invariant fails.
    pub fn from_mgi(f: &mut MgiFile) -> Result<Self> {
        let meta = f.section(TAG_GBWT_META)?;
        let mut meta = FixedReader::new(&meta);
        let sequence_count = meta.read_u64()?;
        let path_count = meta.read_u64()?;
        let bidirectional_raw = meta.read_u64()?;
        let alphabet_size = meta.read_u64()?;
        let total_visits = meta.read_u64()?;
        if !meta.is_at_end() {
            return Err(Error::Corrupt("GBWT meta has trailing bytes".into()));
        }
        if bidirectional_raw > 1 {
            return Err(Error::Corrupt("GBWT bidirectional flag is not 0 or 1".into()));
        }
        let records = f.section(TAG_GBWT_RECORDS)?;
        let offsets: Vec<u64> = f.array(TAG_GBWT_OFFSETS)?;
        let endmarker = f.section(TAG_GBWT_ENDMARKER)?;
        let end_ids: Vec<u64> = f.array(TAG_GBWT_END_IDS)?;
        if offsets.is_empty() {
            return Err(Error::Corrupt("missing record offsets".into()));
        }
        if offsets.first().copied() != Some(0)
            || !offsets.windows(2).all(|p| p[0] <= p[1])
            || offsets.last().copied() != Some(records.len() as u64)
        {
            return Err(Error::Corrupt("record offsets disagree with blob size".into()));
        }
        if alphabet_size < 2 || offsets.len() as u64 != alphabet_size - 1 {
            return Err(Error::Corrupt(format!(
                "alphabet size {alphabet_size} disagrees with {} record offsets",
                offsets.len()
            )));
        }
        Ok(Gbwt {
            records,
            offsets,
            endmarker,
            sequence_count,
            path_count,
            bidirectional: bidirectional_raw != 0,
            alphabet_size,
            total_visits,
            end_ids,
            uid: NEXT_GBWT_UID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Deep validation: decodes every record (and the endmarker) once,
    /// turning any malformed encoding into [`Error::Corrupt`] instead of a
    /// later panic on the query path. `build-mgi` runs this on the file it
    /// just wrote; servers loading third-party artifacts can opt in too.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] naming the first undecodable record.
    pub fn validate_records(&self) -> Result<()> {
        let mut cur = Cursor::new(&self.endmarker);
        DecodedRecord::decode(&mut cur)
            .map_err(|e| Error::Corrupt(format!("endmarker record undecodable: {e}")))?;
        let mut scratch = DecodedRecord::empty();
        for idx in 0..self.offsets.len() - 1 {
            let start = self.offsets[idx] as usize;
            let end = self.offsets[idx + 1] as usize;
            let mut cur = Cursor::new(&self.records[start..end]);
            scratch
                .decode_into(&mut cur)
                .map_err(|e| Error::Corrupt(format!("record {idx} undecodable: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GbwtBuilder;
    use mg_graph::{Handle, NodeId};
    use proptest::prelude::*;

    fn fwd(ids: &[u64]) -> Vec<Handle> {
        ids.iter().map(|&i| Handle::forward(NodeId::new(i))).collect()
    }

    /// A small diamond pangenome: most haplotypes take 1-2-4-5, some 1-3-4-5.
    fn diamond_gbwt() -> Gbwt {
        GbwtBuilder::new()
            .insert(&fwd(&[1, 2, 4, 5]))
            .insert(&fwd(&[1, 2, 4, 5]))
            .insert(&fwd(&[1, 3, 4, 5]))
            .insert(&fwd(&[1, 2, 4, 5]))
            .build()
            .unwrap()
    }

    #[test]
    fn metadata() {
        let g = diamond_gbwt();
        assert_eq!(g.sequence_count(), 8);
        assert_eq!(g.path_count(), 4);
        assert!(g.is_bidirectional());
        // 4 paths * 4 nodes * 2 orientations of visits.
        assert_eq!(g.total_visits(), 32);
    }

    #[test]
    fn find_counts_occurrences() {
        let g = diamond_gbwt();
        assert_eq!(g.find(2).len(), 4); // node 1+: all four paths
        assert_eq!(g.find(4).len(), 3); // node 2+: three paths
        assert_eq!(g.find(6).len(), 1); // node 3+: one path
        assert_eq!(g.find(3).len(), 4); // node 1-: all four reverses
        assert_eq!(g.find(99).len(), 0); // no such record
    }

    #[test]
    fn extend_narrows_matches() {
        let g = diamond_gbwt();
        let s = g.find(2);
        let s24 = g.extend(&s, 4);
        assert_eq!(s24.len(), 3);
        let s246 = g.extend(&s24, 8);
        assert_eq!(s246.len(), 3);
        // Pattern 1+ 3+ 4+: one haplotype.
        let s26 = g.extend(&s, 6);
        assert_eq!(s26.len(), 1);
        assert_eq!(g.extend(&s26, 8).len(), 1);
        // Pattern 2+ then 3+: impossible.
        let bad = g.extend(&g.find(4), 6);
        assert!(bad.is_empty());
        // Extending an empty state stays empty.
        assert!(g.extend(&bad, 8).is_empty());
    }

    #[test]
    fn follow_walks_a_sequence() {
        let g = diamond_gbwt();
        let (mut sym, mut off) = g.sequence_start(0).unwrap();
        let mut symbols = vec![sym];
        while let Some((s, o)) = g.follow(sym, off) {
            symbols.push(s);
            sym = s;
            off = o;
        }
        assert_eq!(symbols, vec![2, 4, 8, 10]);
    }

    #[test]
    fn all_sequences_reconstruct() {
        let g = diamond_gbwt();
        assert_eq!(g.sequence(0).unwrap(), vec![2, 4, 8, 10]);
        assert_eq!(g.sequence(2).unwrap(), vec![2, 4, 8, 10]);
        assert_eq!(g.sequence(4).unwrap(), vec![2, 6, 8, 10]);
        // Reverses.
        assert_eq!(g.sequence(1).unwrap(), vec![11, 9, 5, 3]);
        assert_eq!(g.sequence(5).unwrap(), vec![11, 9, 7, 3]);
        assert!(g.sequence(8).is_err());
    }

    #[test]
    fn bidir_find_has_equal_ranges() {
        let g = diamond_gbwt();
        for sym in 2..g.alphabet_size() {
            let state = g.find_bidir(sym);
            assert_eq!(state.forward.len(), state.backward.len(), "symbol {sym}");
        }
    }

    #[test]
    fn bidir_extend_forward_matches_unidirectional_counts() {
        let g = diamond_gbwt();
        let state = g.find_bidir(2);
        let state = g.extend_forward(&state, 4);
        assert_eq!(state.len(), 3);
        assert_eq!(state.backward.len(), 3);
        let state = g.extend_forward(&state, 8);
        assert_eq!(state.len(), 3);
        let state = g.extend_forward(&state, 10);
        assert_eq!(state.len(), 3);
    }

    #[test]
    fn bidir_extend_backward_matches_pattern_counts() {
        let g = diamond_gbwt();
        // Start at node 4 (symbol 8), extend backward to 2 (symbol 4).
        let state = g.find_bidir(8);
        assert_eq!(state.len(), 4);
        let state = g.extend_backward(&state, 4);
        assert_eq!(state.len(), 3);
        let state = g.extend_backward(&state, 2);
        assert_eq!(state.len(), 3);
        // Backward to 3 instead.
        let state = g.find_bidir(8);
        let state = g.extend_backward(&state, 6);
        assert_eq!(state.len(), 1);
    }

    #[test]
    fn bidir_mixed_directions() {
        let g = diamond_gbwt();
        // Build pattern 1+ 2+ 4+ by extending both ways from 2+.
        let state = g.find_bidir(4);
        let state = g.extend_forward(&state, 8);
        let state = g.extend_backward(&state, 2);
        assert_eq!(state.len(), 3);
        // Same pattern built in the other interleaving.
        let state2 = g.find_bidir(4);
        let state2 = g.extend_backward(&state2, 2);
        let state2 = g.extend_forward(&state2, 8);
        assert_eq!(state2.len(), 3);
        assert_eq!(state.forward, state2.forward);
        assert_eq!(state.backward, state2.backward);
    }

    #[test]
    #[should_panic(expected = "bidirectional")]
    fn bidir_on_unidirectional_panics() {
        let g = GbwtBuilder::new()
            .unidirectional()
            .insert(&fwd(&[1, 2]))
            .build()
            .unwrap();
        let _ = g.find_bidir(2);
    }

    /// `g` written with `write_mgi` and read back with `from_mgi` twice:
    /// from the in-memory image, and from a file opened with
    /// `MgiFile::open`.
    fn mgi_roundtrips(g: &Gbwt) -> [Gbwt; 2] {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mg-gbwt-{}-{}.mgi",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let mut w = MgiWriter::new();
        g.write_mgi(&mut w);
        let image = w.finish();
        std::fs::write(&path, &image).unwrap();
        let from_file = Gbwt::from_mgi(&mut MgiFile::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let from_bytes = Gbwt::from_mgi(&mut MgiFile::open_bytes(image).unwrap()).unwrap();
        [from_bytes, from_file]
    }

    /// The diamond's five sections with `edit` applied, re-sectioned with
    /// fresh checksums: what a hostile writer, not a damaged disk,
    /// produces.
    fn crafted(edit: impl FnOnce(&mut [(u32, Vec<u8>)])) -> Result<Gbwt> {
        let mut w = MgiWriter::new();
        diamond_gbwt().write_mgi(&mut w);
        let mut f = MgiFile::open_bytes(w.finish()).unwrap();
        let tags: Vec<u32> = f.tags().collect();
        let mut sections: Vec<(u32, Vec<u8>)> =
            tags.into_iter().map(|tag| (tag, f.section(tag).unwrap())).collect();
        edit(&mut sections);
        let mut w = MgiWriter::new();
        for (tag, payload) in sections {
            w.section(tag, payload);
        }
        Gbwt::from_mgi(&mut MgiFile::open_bytes(w.finish()).unwrap())
    }

    #[test]
    fn serialization_roundtrip() {
        let g = diamond_gbwt();
        for back in mgi_roundtrips(&g) {
            assert_eq!(g, back);
        }
    }

    #[test]
    fn locate_matches_sequence_reconstruction() {
        // Walking any sequence and locating each visited position must
        // return that sequence's id.
        let g = diamond_gbwt();
        for id in 0..g.sequence_count() {
            let mut cursor = g.sequence_start(id).unwrap();
            loop {
                assert_eq!(
                    g.locate(cursor.0, cursor.1),
                    Some(id),
                    "sequence {id} at {cursor:?}"
                );
                match g.follow(cursor.0, cursor.1) {
                    Some(next) => cursor = next,
                    None => break,
                }
            }
        }
    }

    #[test]
    fn locate_state_names_matching_haplotypes() {
        let g = diamond_gbwt();
        // Pattern 1+ 3+ matches only path 2 (sequence 4).
        let state = g.extend(&g.find(2), 6);
        assert_eq!(g.locate_state(&state, 100), vec![4]);
        // Pattern 1+ 2+ matches paths 0, 1, 3 (sequences 0, 2, 6).
        let state = g.extend(&g.find(2), 4);
        assert_eq!(g.locate_state(&state, 100), vec![0, 2, 6]);
        // Limit caps the located positions.
        assert_eq!(g.locate_state(&state, 1).len(), 1);
    }

    #[test]
    fn locate_rejects_invalid_positions() {
        let g = diamond_gbwt();
        assert_eq!(g.locate(2, 999), None);
        assert_eq!(g.locate(999, 0), None);
    }

    #[test]
    fn mgi_roundtrip_preserves_queries() {
        let g = diamond_gbwt();
        let mut w = MgiWriter::new();
        g.write_mgi(&mut w);
        let back = Gbwt::from_mgi(&mut MgiFile::open_bytes(w.finish()).unwrap()).unwrap();
        assert_eq!(back, g);
        assert!(back.validate_records().is_ok());
        for sym in 2..g.alphabet_size() {
            assert_eq!(back.find(sym), g.find(sym));
        }
        for id in 0..g.sequence_count() {
            assert_eq!(back.sequence(id).unwrap(), g.sequence(id).unwrap());
        }
        let state = back.extend(&back.find(2), 6);
        assert_eq!(back.locate_state(&state, 100), vec![4]);
    }

    #[test]
    fn huge_counts_rejected_without_allocating() {
        // Array lengths come from the section table, never from a stored
        // count: metadata claiming 2^40 symbols is rejected against the
        // offset table it disagrees with, and nothing is sized by it.
        let meta_with = |field: usize, value: u64| {
            crafted(|s| s[0].1[field * 8..field * 8 + 8].copy_from_slice(&value.to_le_bytes()))
        };
        assert!(matches!(meta_with(3, 1 << 40), Err(Error::Corrupt(_))));
        assert!(matches!(meta_with(2, 2), Err(Error::Corrupt(_))), "bidirectional flag");
        assert!(crafted(|_| ()).is_ok());
    }

    #[test]
    fn from_mgi_rejects_truncated_sections() {
        // The offset table cut by one entry, and the record blob cut by
        // one byte, no longer cover each other.
        let cut_offsets = crafted(|s| s[2].1.truncate(s[2].1.len() - 8));
        assert!(matches!(cut_offsets, Err(Error::Corrupt(_))));
        let cut_records = crafted(|s| s[1].1.truncate(s[1].1.len() - 1));
        assert!(matches!(cut_records, Err(Error::Corrupt(_))));
    }

    #[test]
    fn record_probe_reports_accesses() {
        use mg_support::probe::CountingProbe;
        let g = diamond_gbwt();
        let mut probe = CountingProbe::default();
        let _ = g.record_with_probe(2, &mut probe);
        assert!(probe.touches >= 2);
        assert!(probe.instructions > 0);
    }

    /// Count occurrences of `pattern` as a subsequence window across all
    /// indexed sequences, the ground truth for find/extend.
    fn naive_count(g: &Gbwt, pattern: &[u64]) -> u64 {
        let mut count = 0;
        for id in 0..g.sequence_count() {
            let seq = g.sequence(id).unwrap();
            if pattern.len() > seq.len() {
                continue;
            }
            for w in seq.windows(pattern.len()) {
                if w == pattern {
                    count += 1;
                }
            }
        }
        count
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random path sets: reconstruction and search must agree with the
        /// inserted paths.
        #[test]
        fn prop_search_matches_naive(
            paths in proptest::collection::vec(
                proptest::collection::vec(1u64..12, 1..15),
                1..10,
            ),
            pattern in proptest::collection::vec(1u64..12, 1..5),
        ) {
            let mut builder = GbwtBuilder::new();
            for ids in &paths {
                builder = builder.insert(&fwd(ids));
            }
            let g = builder.build().unwrap();
            // Reconstruction.
            for (p, ids) in paths.iter().enumerate() {
                let expect: Vec<u64> = ids.iter().map(|&i| i * 2).collect();
                prop_assert_eq!(g.sequence(2 * p as u64).unwrap(), expect);
            }
            // Search: extend along the pattern, compare against naive count.
            let symbols: Vec<u64> = pattern.iter().map(|&i| i * 2).collect();
            let mut state = g.find(symbols[0]);
            for &s in &symbols[1..] {
                state = g.extend(&state, s);
            }
            prop_assert_eq!(state.len(), naive_count(&g, &symbols));
            // locate_state must name exactly the sequences containing the
            // pattern (ids of sequences with >= 1 occurrence).
            let mut expect_ids: Vec<u64> = (0..g.sequence_count())
                .filter(|&id| {
                    let seq = g.sequence(id).unwrap();
                    seq.windows(symbols.len().min(seq.len() + 1)).any(|w| w == symbols)
                })
                .collect();
            expect_ids.sort_unstable();
            prop_assert_eq!(g.locate_state(&state, usize::MAX), expect_ids);
            // Bidirectional: same count, built backward.
            let mut bstate = g.find_bidir(*symbols.last().unwrap());
            for &s in symbols.iter().rev().skip(1) {
                bstate = g.extend_backward(&bstate, s);
            }
            prop_assert_eq!(bstate.len(), state.len());
            prop_assert_eq!(bstate.backward.len(), bstate.forward.len());
        }

        #[test]
        fn prop_serialization_roundtrip(
            paths in proptest::collection::vec(
                proptest::collection::vec(1u64..9, 1..10),
                1..6,
            ),
        ) {
            let mut builder = GbwtBuilder::new();
            for ids in &paths {
                builder = builder.insert(&fwd(ids));
            }
            let g = builder.build().unwrap();
            for back in mgi_roundtrips(&g) {
                prop_assert_eq!(&back, &g);
                prop_assert!(back.validate_records().is_ok());
            }
        }
    }
}
