//! Gapped alignment: the fallback alignment phase.
//!
//! Gapless extension cannot cross indels. When the best extension leaves
//! read bases uncovered, Giraffe hands the tails to a gapped aligner
//! (dozeu/gssw banded Smith-Waterman). This module implements the same
//! role: a banded global aligner with affine gap penalties (Gotoh's three
//! states, kept in two rolling band rows plus a one-byte-per-cell
//! traceback), used by the parent's post-processing to stitch uncovered
//! read tails onto the graph walk. Tails that cannot score above zero are
//! refused by a closed-form bound before the DP runs.

use std::fmt::Write as _;

/// Scoring parameters (Giraffe's defaults: match 1, mismatch 4, gap open
/// 6, gap extend 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapParams {
    /// Score added per matching base.
    pub match_score: i32,
    /// Penalty subtracted per mismatching base.
    pub mismatch: i32,
    /// Penalty for opening a gap (first gapped base).
    pub gap_open: i32,
    /// Penalty for each additional gapped base.
    pub gap_extend: i32,
    /// Band half-width: cells with `|i - j| > band` are not computed.
    pub band: usize,
}

impl Default for GapParams {
    fn default() -> Self {
        GapParams {
            match_score: 1,
            mismatch: 4,
            gap_open: 6,
            gap_extend: 1,
            band: 16,
        }
    }
}

/// One CIGAR run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CigarOp {
    /// Matching bases (`=`).
    Match(u32),
    /// Substitutions (`X`).
    Mismatch(u32),
    /// Bases present in the read but not the reference (`I`).
    Insertion(u32),
    /// Reference bases skipped by the read (`D`).
    Deletion(u32),
}

impl CigarOp {
    fn len(self) -> u32 {
        match self {
            CigarOp::Match(n) | CigarOp::Mismatch(n) | CigarOp::Insertion(n) | CigarOp::Deletion(n) => n,
        }
    }

    fn symbol(self) -> char {
        match self {
            CigarOp::Match(_) => '=',
            CigarOp::Mismatch(_) => 'X',
            CigarOp::Insertion(_) => 'I',
            CigarOp::Deletion(_) => 'D',
        }
    }
}

/// Renders a CIGAR string (`12=1X3I4=`).
pub fn cigar_string(ops: &[CigarOp]) -> String {
    let mut out = String::new();
    for op in ops {
        write!(out, "{}{}", op.len(), op.symbol()).expect("writing to a String cannot fail");
    }
    out
}

/// A finished gapped alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GappedAlignment {
    /// Total alignment score.
    pub score: i32,
    /// Edit script, read against reference.
    pub cigar: Vec<CigarOp>,
}

impl GappedAlignment {
    /// Number of read bases consumed by the CIGAR.
    pub fn read_len(&self) -> u32 {
        self.cigar
            .iter()
            .map(|op| match op {
                CigarOp::Match(n) | CigarOp::Mismatch(n) | CigarOp::Insertion(n) => *n,
                CigarOp::Deletion(_) => 0,
            })
            .sum()
    }

    /// Number of reference bases consumed by the CIGAR.
    pub fn ref_len(&self) -> u32 {
        self.cigar
            .iter()
            .map(|op| match op {
                CigarOp::Match(n) | CigarOp::Mismatch(n) | CigarOp::Deletion(n) => *n,
                CigarOp::Insertion(_) => 0,
            })
            .sum()
    }
}

const NEG: i32 = i32::MIN / 4;

/// One band cell's three Gotoh scores: M (diagonal), X (gap in reference:
/// insertion), Y (gap in read: deletion).
#[derive(Clone, Copy)]
struct Cell {
    m: i32,
    x: i32,
    y: i32,
}

const NEG_CELL: Cell = Cell { m: NEG, x: NEG, y: NEG };

/// Traceback byte: the low two bits are M's source (0 = M, 1 = X, 2 = Y);
/// these two flag X and Y extending themselves rather than opening from M.
const X_EXTENDS: u8 = 4;
const Y_EXTENDS: u8 = 8;

/// Globally aligns `read` against `reference` inside a diagonal band.
///
/// Returns `None` when the length difference exceeds the band (the global
/// path would leave the band) or either sequence is empty.
pub fn banded_global(read: &[u8], reference: &[u8], params: &GapParams) -> Option<GappedAlignment> {
    let (n, m) = (read.len(), reference.len());
    if n == 0 || m == 0 || n.abs_diff(m) > params.band {
        return None;
    }
    let band = params.band;
    let width = 2 * band + 1;
    let (gap_open, gap_extend) = (params.gap_open, params.gap_extend);
    // Two rolling score rows. Row i's window holds columns i - band ..=
    // i + band; column j sits at offset k = j + band - i, in slot k + 1 of
    // a row with a NEG guard slot on each side. Then (i - 1, j - 1) is the
    // previous row's same slot, (i - 1, j) its next slot, and (i, j - 1)
    // this row's previous slot, carried in `left`; a neighbour outside the
    // band reads a guard. Under non-negative gap penalties, guards and
    // unreachable cells hold scores at or below NEG and never win against
    // a reachable one.
    // Only the traceback keeps every row: one byte per band cell.
    let slot = |i: usize, j: usize| j + band + 1 - i;
    let mut prev = vec![NEG_CELL; width + 2];
    let mut cur = vec![NEG_CELL; width + 2];
    let mut trace = vec![0u8; (n + 1) * width];

    // First row: deletions only.
    prev[slot(0, 0)].m = 0;
    for j in 1..=m.min(band) {
        prev[slot(0, j)].y = -(gap_open + (j as i32 - 1) * gap_extend);
        trace[j + band] = if j == 1 { 0 } else { Y_EXTENDS };
    }
    for i in 1..=n {
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(m);
        let row = &mut trace[i * width..(i + 1) * width];
        let read_base = read[i - 1];
        let mut first = lo;
        if lo == 0 {
            // Column 0: only X, an insertion run down from (0, 0).
            let s = slot(i, 0);
            let up = prev[s + 1];
            let (open, extend) = (up.m - gap_open, up.x - gap_extend);
            let (x, from) = if open >= extend { (open, 0) } else { (extend, X_EXTENDS) };
            cur[s] = Cell { m: NEG, x, y: NEG };
            row[s - 1] = from;
            first = 1;
        }
        let (s_first, s_hi) = (slot(i, first), slot(i, hi));
        let mut left = cur[s_first - 1];
        let cells = cur[s_first..=s_hi].iter_mut().zip(&mut row[s_first - 1..s_hi]);
        let above = prev[s_first..=s_hi + 1].windows(2);
        for (((cell, from), pair), &ref_base) in cells.zip(above).zip(&reference[first - 1..hi]) {
            let (diag, up) = (pair[0], pair[1]);
            // X: gap in reference (consume read base i).
            let (open, extend) = (up.m - gap_open, up.x - gap_extend);
            let (x, x_from) = if open >= extend { (open, 0) } else { (extend, X_EXTENDS) };
            // Y: gap in read (consume reference base j).
            let (open, extend) = (left.m - gap_open, left.y - gap_extend);
            let (y, y_from) = if open >= extend { (open, 0) } else { (extend, Y_EXTENDS) };
            // M: diagonal.
            let (best, m_from) = if diag.m >= diag.x && diag.m >= diag.y {
                (diag.m, 0)
            } else if diag.x >= diag.y {
                (diag.x, 1)
            } else {
                (diag.y, 2)
            };
            let sub = if read_base == ref_base { params.match_score } else { -params.mismatch };
            let m_score = if best > NEG { best + sub } else { NEG };
            left = Cell { m: m_score, x, y };
            *cell = left;
            *from = m_from | x_from | y_from;
        }
        std::mem::swap(&mut prev, &mut cur);
    }

    // Final cell, now in `prev`.
    let end = prev[slot(n, m)];
    let (mut state, score) = if end.m >= end.x && end.m >= end.y {
        (0u8, end.m)
    } else if end.x >= end.y {
        (1, end.x)
    } else {
        (2, end.y)
    };
    if score <= NEG {
        return None;
    }

    // Traceback.
    let (mut i, mut j) = (n, m);
    let mut ops_rev: Vec<CigarOp> = Vec::new();
    let push = |ops: &mut Vec<CigarOp>, op: CigarOp| match (ops.last_mut(), op) {
        (Some(CigarOp::Match(n)), CigarOp::Match(d)) => *n += d,
        (Some(CigarOp::Mismatch(n)), CigarOp::Mismatch(d)) => *n += d,
        (Some(CigarOp::Insertion(n)), CigarOp::Insertion(d)) => *n += d,
        (Some(CigarOp::Deletion(n)), CigarOp::Deletion(d)) => *n += d,
        _ => ops.push(op),
    };
    while i > 0 || j > 0 {
        let from = trace[i * width + j + band - i];
        match state {
            0 => {
                let op = if read[i - 1] == reference[j - 1] {
                    CigarOp::Match(1)
                } else {
                    CigarOp::Mismatch(1)
                };
                push(&mut ops_rev, op);
                state = from & 3;
                i -= 1;
                j -= 1;
            }
            1 => {
                push(&mut ops_rev, CigarOp::Insertion(1));
                state = if from & X_EXTENDS != 0 { 1 } else { 0 };
                i -= 1;
            }
            _ => {
                push(&mut ops_rev, CigarOp::Deletion(1));
                state = if from & Y_EXTENDS != 0 { 2 } else { 0 };
                j -= 1;
            }
        }
    }
    ops_rev.reverse();
    Some(GappedAlignment { score, cigar: ops_rev })
}

/// An upper bound on the score of any global alignment of an `n`-base read
/// against an `m`-base reference, or `None` when a negative gap penalty
/// voids it.
///
/// At most `min(n, m)` columns pair a read base with a reference base, each
/// scoring at most the better of a match and a mismatch; the other columns
/// are gaps, at least `|n - m|` of them, which cost least as one run or as
/// runs of one base each, whichever is cheaper.
fn score_bound(n: usize, m: usize, params: &GapParams) -> Option<i64> {
    if params.gap_open < 0 || params.gap_extend < 0 {
        return None;
    }
    let paired = n.min(m) as i64 * i64::from(params.match_score.max(-params.mismatch).max(0));
    let gaps = n.abs_diff(m) as i64;
    let (open, extend) = (i64::from(params.gap_open), i64::from(params.gap_extend));
    let gap_cost = if gaps > 0 { (open + (gaps - 1) * extend).min(gaps * open) } else { 0 };
    Some(paired - gap_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p() -> GapParams {
        GapParams::default()
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let a = banded_global(b"ACGTACGT", b"ACGTACGT", &p()).unwrap();
        assert_eq!(a.score, 8);
        assert_eq!(a.cigar, vec![CigarOp::Match(8)]);
        assert_eq!(cigar_string(&a.cigar), "8=");
    }

    #[test]
    fn single_substitution() {
        let a = banded_global(b"ACGTACGT", b"ACGAACGT", &p()).unwrap();
        assert_eq!(a.score, 7 - 4);
        assert_eq!(cigar_string(&a.cigar), "3=1X4=");
    }

    #[test]
    fn single_insertion_in_read() {
        let a = banded_global(b"ACGTTACGT", b"ACGTACGT", &p()).unwrap();
        // 8 matches, one 1-base gap: 8 - 6.
        assert_eq!(a.score, 8 - 6);
        assert_eq!(a.read_len(), 9);
        assert_eq!(a.ref_len(), 8);
        assert!(a.cigar.iter().any(|op| matches!(op, CigarOp::Insertion(1))));
    }

    #[test]
    fn single_deletion_from_read() {
        let a = banded_global(b"ACGACGT", b"ACGTACGT", &p()).unwrap();
        assert_eq!(a.score, 7 - 6);
        assert!(a.cigar.iter().any(|op| matches!(op, CigarOp::Deletion(1))));
    }

    #[test]
    fn affine_gaps_prefer_one_long_gap() {
        // Read missing 3 consecutive bases: one open + two extends beats
        // three opens.
        let a = banded_global(b"AAAATTTT", b"AAAACCCTTTT", &p()).unwrap();
        assert_eq!(a.score, 8 - (6 + 2));
        assert_eq!(cigar_string(&a.cigar), "4=3D4=");
    }

    #[test]
    fn empty_or_out_of_band_inputs() {
        assert!(banded_global(b"", b"ACGT", &p()).is_none());
        assert!(banded_global(b"ACGT", b"", &p()).is_none());
        // Length difference beyond the band.
        let long = vec![b'A'; 100];
        assert!(banded_global(b"ACGT", &long, &p()).is_none());
    }

    #[test]
    fn cigar_lengths_partition_both_sequences() {
        let read = b"ACGTGGTACCA";
        let reference = b"ACGTGTACGCA";
        let a = banded_global(read, reference, &p()).unwrap();
        assert_eq!(a.read_len() as usize, read.len());
        assert_eq!(a.ref_len() as usize, reference.len());
    }

    /// Unbanded reference implementation for cross-checking scores.
    // Written in the recurrence's own indices.
    #[allow(clippy::needless_range_loop)]
    fn full_global(read: &[u8], reference: &[u8], params: &GapParams) -> i32 {
        let (n, m) = (read.len(), reference.len());
        let mut m_mat = vec![vec![NEG; m + 1]; n + 1];
        let mut x_mat = vec![vec![NEG; m + 1]; n + 1];
        let mut y_mat = vec![vec![NEG; m + 1]; n + 1];
        m_mat[0][0] = 0;
        for i in 1..=n {
            x_mat[i][0] = -(params.gap_open + (i as i32 - 1) * params.gap_extend);
        }
        for j in 1..=m {
            y_mat[0][j] = -(params.gap_open + (j as i32 - 1) * params.gap_extend);
        }
        for i in 1..=n {
            for j in 0..=m {
                if j >= 1 {
                    let sub = if read[i - 1] == reference[j - 1] {
                        params.match_score
                    } else {
                        -params.mismatch
                    };
                    let best = m_mat[i - 1][j - 1].max(x_mat[i - 1][j - 1]).max(y_mat[i - 1][j - 1]);
                    if best > NEG {
                        m_mat[i][j] = best + sub;
                    }
                    y_mat[i][j] = (m_mat[i][j - 1] - params.gap_open)
                        .max(y_mat[i][j - 1] - params.gap_extend);
                }
                x_mat[i][j] =
                    (m_mat[i - 1][j] - params.gap_open).max(x_mat[i - 1][j] - params.gap_extend);
            }
        }
        m_mat[n][m].max(x_mat[n][m]).max(y_mat[n][m])
    }

    /// The three-matrix aligner `banded_global` replaced, kept verbatim as
    /// its oracle: six full band matrices, neighbours found through `idx`.
    fn banded_global_reference(
        read: &[u8],
        reference: &[u8],
        params: &GapParams,
    ) -> Option<GappedAlignment> {
        let (n, m) = (read.len(), reference.len());
        if n == 0 || m == 0 || n.abs_diff(m) > params.band {
            return None;
        }
        let band = params.band;
        let width = 2 * band + 1;
        let idx = |i: usize, j: usize| -> Option<usize> {
            // Column j sits at offset j - i + band within row i's band window.
            let lo = i.saturating_sub(band);
            if j < lo || j > i + band || j > m {
                None
            } else {
                Some(j + band - i)
            }
        };
        // Three Gotoh matrices, band-compressed rows: M (diagonal), X (gap in
        // reference: insertion), Y (gap in read: deletion).
        let rows = n + 1;
        let mut matrix_m = vec![NEG; rows * width];
        let mut matrix_x = vec![NEG; rows * width];
        let mut matrix_y = vec![NEG; rows * width];
        // Tracebacks: 0 = from M, 1 = from X, 2 = from Y.
        let mut back_m = vec![0u8; rows * width];
        let mut back_x = vec![0u8; rows * width];
        let mut back_y = vec![0u8; rows * width];

        let at = |i: usize, k: usize| i * width + k;
        matrix_m[at(0, band)] = 0;
        // First row: deletions only.
        for j in 1..=m.min(band) {
            let k = idx(0, j).expect("in band");
            matrix_y[at(0, k)] = -(params.gap_open + (j as i32 - 1) * params.gap_extend);
            back_y[at(0, k)] = if j == 1 { 0 } else { 2 };
        }
        for i in 1..=n {
            let lo = i.saturating_sub(band);
            let hi = (i + band).min(m);
            for j in lo..=hi {
                let k = idx(i, j).expect("in band");
                // X: gap in reference (consume read base i).
                if let Some(pk) = idx(i - 1, j) {
                    let open = matrix_m[at(i - 1, pk)] - params.gap_open;
                    let extend = matrix_x[at(i - 1, pk)] - params.gap_extend;
                    if open >= extend {
                        matrix_x[at(i, k)] = open;
                        back_x[at(i, k)] = 0;
                    } else {
                        matrix_x[at(i, k)] = extend;
                        back_x[at(i, k)] = 1;
                    }
                }
                // Y: gap in read (consume reference base j).
                if j >= 1 {
                    if let Some(pk) = idx(i, j - 1) {
                        let open = matrix_m[at(i, pk)] - params.gap_open;
                        let extend = matrix_y[at(i, pk)] - params.gap_extend;
                        if open >= extend {
                            matrix_y[at(i, k)] = open;
                            back_y[at(i, k)] = 0;
                        } else {
                            matrix_y[at(i, k)] = extend;
                            back_y[at(i, k)] = 2;
                        }
                    }
                }
                // M: diagonal.
                if j >= 1 {
                    if let Some(pk) = idx(i - 1, j - 1) {
                        let sub = if read[i - 1] == reference[j - 1] {
                            params.match_score
                        } else {
                            -params.mismatch
                        };
                        let from_m = matrix_m[at(i - 1, pk)];
                        let from_x = matrix_x[at(i - 1, pk)];
                        let from_y = matrix_y[at(i - 1, pk)];
                        let (best, who) = if from_m >= from_x && from_m >= from_y {
                            (from_m, 0)
                        } else if from_x >= from_y {
                            (from_x, 1)
                        } else {
                            (from_y, 2)
                        };
                        if best > NEG {
                            matrix_m[at(i, k)] = best + sub;
                            back_m[at(i, k)] = who;
                        }
                    }
                }
            }
        }

        // Final cell.
        let k_end = idx(n, m)?;
        let (mut state, score) = {
            let m_score = matrix_m[at(n, k_end)];
            let x_score = matrix_x[at(n, k_end)];
            let y_score = matrix_y[at(n, k_end)];
            if m_score >= x_score && m_score >= y_score {
                (0u8, m_score)
            } else if x_score >= y_score {
                (1, x_score)
            } else {
                (2, y_score)
            }
        };
        if score <= NEG {
            return None;
        }

        // Traceback.
        let (mut i, mut j) = (n, m);
        let mut ops_rev: Vec<CigarOp> = Vec::new();
        let push = |ops: &mut Vec<CigarOp>, op: CigarOp| match (ops.last_mut(), op) {
            (Some(CigarOp::Match(n)), CigarOp::Match(d)) => *n += d,
            (Some(CigarOp::Mismatch(n)), CigarOp::Mismatch(d)) => *n += d,
            (Some(CigarOp::Insertion(n)), CigarOp::Insertion(d)) => *n += d,
            (Some(CigarOp::Deletion(n)), CigarOp::Deletion(d)) => *n += d,
            _ => ops.push(op),
        };
        while i > 0 || j > 0 {
            let k = idx(i, j).expect("traceback stays in band");
            match state {
                0 => {
                    let op = if read[i - 1] == reference[j - 1] {
                        CigarOp::Match(1)
                    } else {
                        CigarOp::Mismatch(1)
                    };
                    push(&mut ops_rev, op);
                    state = back_m[at(i, k)];
                    i -= 1;
                    j -= 1;
                }
                1 => {
                    push(&mut ops_rev, CigarOp::Insertion(1));
                    state = back_x[at(i, k)];
                    i -= 1;
                }
                _ => {
                    push(&mut ops_rev, CigarOp::Deletion(1));
                    state = back_y[at(i, k)];
                    j -= 1;
                }
            }
        }
        ops_rev.reverse();
        Some(GappedAlignment { score, cigar: ops_rev })
    }

    proptest! {
        /// With a band at least as wide as both sequences, the banded score
        /// equals the unbanded optimum, and the CIGAR reproduces it.
        #[test]
        fn prop_matches_unbanded_dp(
            read in proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 1..18),
            reference in proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 1..18),
        ) {
            let params = GapParams { band: 20, ..Default::default() };
            let banded = banded_global(&read, &reference, &params).unwrap();
            prop_assert_eq!(banded.score, full_global(&read, &reference, &params));
            // CIGAR partitions both sequences.
            prop_assert_eq!(banded.read_len() as usize, read.len());
            prop_assert_eq!(banded.ref_len() as usize, reference.len());
            // Recomputing the score from the CIGAR agrees.
            let mut score = 0i32;
            for op in &banded.cigar {
                score += match *op {
                    CigarOp::Match(n) => n as i32 * params.match_score,
                    CigarOp::Mismatch(n) => -(n as i32) * params.mismatch,
                    CigarOp::Insertion(n) | CigarOp::Deletion(n) => {
                        -(params.gap_open + (n as i32 - 1) * params.gap_extend)
                    }
                };
            }
            prop_assert_eq!(score, banded.score);
        }
    }

    fn bases(len: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), len)
    }

    /// Non-negative scoring with the given band; zero weights make ties
    /// everywhere, so the tie-breaks are exercised as hard as the scores.
    fn gap_params(band: usize) -> impl Strategy<Value = GapParams> {
        (0i32..4, 0i32..8, 0i32..12, 0i32..4).prop_map(
            move |(match_score, mismatch, gap_open, gap_extend)| GapParams {
                match_score,
                mismatch,
                gap_open,
                gap_extend,
                band,
            },
        )
    }

    /// A read of length 0..160, a reference whose length lies within
    /// `band + 8` of it (so most pairs fit the band and some do not), and
    /// random non-negative scoring.
    fn random_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, GapParams)> {
        (0usize..160, 0usize..24, 0usize..32, any::<bool>()).prop_flat_map(
            |(n, band, delta, longer)| {
                let delta = delta % (band + 9);
                let m = if longer { (n + delta).min(159) } else { n.saturating_sub(delta) };
                (bases(n), bases(m), gap_params(band))
            },
        )
    }

    /// The shape `align_tail` produces: a read that is a copy of the
    /// reference's prefix with substitutions, insertions and deletions,
    /// against that prefix plus 0–20 trailing bases.
    fn edited_pair(
        params: impl Strategy<Value = GapParams>,
    ) -> impl Strategy<Value = (Vec<u8>, Vec<u8>, GapParams)> {
        let edit = (0usize..1000, 0u8..3, proptest::sample::select(b"ACGT".to_vec()));
        (bases(1..140), proptest::collection::vec(edit, 0..12), bases(0..21), params).prop_map(
            |(truth, edits, trailing, params)| {
                let mut read = truth.clone();
                for (at, kind, base) in edits {
                    let at = at % (read.len() + 1);
                    match kind {
                        0 if at < read.len() => read[at] = base,
                        1 => read.insert(at, base),
                        2 if at < read.len() => {
                            read.remove(at);
                        }
                        _ => {}
                    }
                }
                let mut reference = truth;
                reference.extend_from_slice(&trailing);
                (read, reference, params)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whenever the bound says a pair cannot score above zero, the
        /// reference DP agrees: it scores at most zero or finds no path.
        #[test]
        fn prop_bound_never_rejects_a_positive_score(
            case in edited_pair((0usize..24).prop_flat_map(gap_params)),
            defaults: bool,
        ) {
            let (read, reference, mut params) = case;
            if defaults {
                params = GapParams { band: params.band, ..GapParams::default() };
            }
            let bound = score_bound(read.len(), reference.len(), &params).expect("non-negative gaps");
            let aligned = banded_global_reference(&read, &reference, &params);
            if let Some(aligned) = &aligned {
                let score = i64::from(aligned.score);
                prop_assert!(score <= bound, "score {score} above bound {bound}");
            }
            if bound <= 0 {
                prop_assert!(aligned.is_none_or(|a| a.score <= 0));
            }
        }

        /// Random pairs: the same `Option`, score and CIGAR as the
        /// three-matrix reference, in band and out of it.
        #[test]
        fn prop_random_pairs_match_reference(case in random_pair()) {
            let (read, reference, params) = case;
            prop_assert_eq!(
                banded_global(&read, &reference, &params),
                banded_global_reference(&read, &reference, &params)
            );
        }

        /// Edited reads against their source plus trailing bases, under the
        /// default scoring and the default band.
        #[test]
        fn prop_edited_pairs_match_reference(case in edited_pair(Just(GapParams::default()))) {
            let (read, reference, params) = case;
            prop_assert_eq!(
                banded_global(&read, &reference, &params),
                banded_global_reference(&read, &reference, &params)
            );
        }

        /// Edited reads under random non-negative scoring and bands.
        #[test]
        fn prop_edited_pairs_random_params_match_reference(
            case in edited_pair((0usize..24).prop_flat_map(gap_params)),
        ) {
            let (read, reference, params) = case;
            prop_assert_eq!(
                banded_global(&read, &reference, &params),
                banded_global_reference(&read, &reference, &params)
            );
        }
    }
}

/// Aligns an uncovered read tail against the graph continuation beyond an
/// extension's walk.
///
/// The reference is spelled by following the extension's last handle
/// greedily (first graph successor) until `tail.len() + band` bases are
/// gathered. Returns the alignment plus the number of read bases it
/// consumed, or `None` when no continuation exists or the tail scores at
/// most zero (keeping the trimmed gapless result is better).
pub fn align_tail(
    graph: &mg_graph::VariationGraph,
    extension: &mg_core::types::Extension,
    tail: &[u8],
    params: &GapParams,
) -> Option<(GappedAlignment, u32)> {
    if tail.is_empty() {
        return None;
    }
    let last = *extension.path.last()?;
    // Bases of the last node already consumed by the extension: its length
    // minus whatever the walk left unread. The walk consumed read bases
    // from `pos.offset` across the whole path; the leftover on the last
    // node is derivable from the covered span.
    let covered = (extension.read_end - extension.read_start) as usize;
    let path_before_last: usize = extension.path[..extension.path.len() - 1]
        .iter()
        .map(|h| graph.node_len(h.node()))
        .sum::<usize>()
        .saturating_sub(extension.pos.offset as usize);
    let used_on_last = covered.saturating_sub(path_before_last);
    // Spell the continuation: rest of the last node, then greedy first
    // successors.
    let want = tail.len() + params.band;
    let mut reference = Vec::with_capacity(want);
    // `oriented_sequence` borrows from the per-strand arenas, so spelling
    // the continuation allocates nothing even across reverse handles.
    let last_seq = graph.oriented_sequence(last);
    if used_on_last < last_seq.len() {
        reference.extend_from_slice(&last_seq[used_on_last..]);
    }
    let mut cursor = last;
    while reference.len() < want {
        let Some(&next) = graph.successors(cursor).first() else {
            break;
        };
        reference.extend_from_slice(graph.oriented_sequence(next));
        cursor = next;
    }
    if reference.is_empty() {
        return None;
    }
    reference.truncate(want);
    // Global over both: a full continuation is `band` bases longer than
    // the tail, so every alignment has `band` more deletions than
    // insertions. A tail the closed-form bound says cannot score above
    // zero skips the DP.
    if score_bound(tail.len(), reference.len(), params).is_some_and(|bound| bound <= 0) {
        return None;
    }
    let aligned = banded_global(tail, &reference, params)?;
    (aligned.score > 0).then_some((aligned, tail.len() as u32))
}

#[cfg(test)]
mod tail_tests {
    use super::*;
    use mg_core::types::Extension;
    use mg_graph::pangenome::PangenomeBuilder;
    use mg_graph::{Handle, NodeId};
    use mg_index::GraphPos;

    #[test]
    fn tail_aligns_against_graph_continuation() {
        // Linear graph AAAACCCCGGGGTTTT in 4-base nodes; extension covered
        // the first 8 bases, tail = GGGGTTTT continues exactly.
        let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTT".to_vec())
            .haplotypes(vec![vec![]])
            .max_node_len(4)
            .build()
            .unwrap();
        let ext = Extension {
            read_id: 0,
            read_start: 0,
            read_end: 8,
            pos: GraphPos::new(Handle::forward(NodeId::new(1)), 0),
            path: vec![Handle::forward(NodeId::new(1)), Handle::forward(NodeId::new(2))],
            score: 8,
            mismatches: 0,
        };
        let (aligned, consumed) =
            align_tail(p.graph(), &ext, b"GGGGTTTT", &GapParams::default()).unwrap();
        assert_eq!(consumed, 8);
        assert!(aligned.score >= 6, "score {}", aligned.score);
        assert!(matches!(aligned.cigar.first(), Some(CigarOp::Match(_))));
    }

    #[test]
    fn dead_end_or_negative_tails_rejected() {
        let p = PangenomeBuilder::new(b"AAAACCCC".to_vec())
            .haplotypes(vec![vec![]])
            .max_node_len(4)
            .build()
            .unwrap();
        // Extension already at the graph's end: nothing to align against.
        let ext = Extension {
            read_id: 0,
            read_start: 0,
            read_end: 8,
            pos: GraphPos::new(Handle::forward(NodeId::new(1)), 0),
            path: vec![Handle::forward(NodeId::new(1)), Handle::forward(NodeId::new(2))],
            score: 8,
            mismatches: 0,
        };
        assert!(align_tail(p.graph(), &ext, b"TTTT", &GapParams::default()).is_none());
        // Empty tail.
        assert!(align_tail(p.graph(), &ext, b"", &GapParams::default()).is_none());
        // Garbage tail scores negative against a real continuation.
        let ext2 = Extension { read_end: 4, path: vec![Handle::forward(NodeId::new(1))], ..ext };
        assert!(align_tail(p.graph(), &ext2, b"TTTT", &GapParams::default()).is_none());
    }
}
