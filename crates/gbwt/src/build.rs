//! GBWT construction.
//!
//! Visits at each node must be stored in *reverse-prefix order*: sorted by
//! the sequence of symbols preceding the visit, read backwards, with each
//! path terminated by a unique virtual sentinel. That ordering is what makes
//! the LF mapping of [`crate::record::DecodedRecord::lf`] consistent across
//! records. We compute it exactly, by building the concatenation of all
//! *reversed* paths (plus sentinels) and running prefix-doubling over it —
//! the reverse prefix of a visit is a suffix of that text.

use mg_graph::Handle;
use mg_support::rle;
use mg_support::{Error, Result};

use crate::gbwt::Gbwt;
use crate::record::{DecodedRecord, RecordEdge, ENDMARKER};

/// Builds a [`Gbwt`] from haplotype paths.
///
/// # Examples
///
/// ```
/// use mg_graph::{Handle, NodeId};
/// use mg_gbwt::GbwtBuilder;
///
/// let path: Vec<Handle> = [1u64, 2, 3]
///     .iter()
///     .map(|&id| Handle::forward(NodeId::new(id)))
///     .collect();
/// let gbwt = GbwtBuilder::new().insert(&path).build().unwrap();
/// assert_eq!(gbwt.sequence_count(), 2); // path + its reverse
/// ```
#[derive(Debug, Clone, Default)]
pub struct GbwtBuilder {
    paths: Vec<Vec<u64>>,
}

impl GbwtBuilder {
    /// Creates a builder. The index is always bidirectional: each path is
    /// indexed with its reverse, like the GBWTs Giraffe consumes.
    pub fn new() -> Self {
        GbwtBuilder::default()
    }

    /// Queues a haplotype path for insertion.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty.
    pub fn insert(mut self, path: &[Handle]) -> Self {
        assert!(!path.is_empty(), "cannot index an empty path");
        self.paths.push(path.iter().map(|h| h.to_gbwt()).collect());
        self
    }

    /// Number of queued paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Builds the index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if no paths were inserted.
    pub fn build(self) -> Result<Gbwt> {
        if self.paths.is_empty() {
            return Err(Error::Corrupt("GBWT build requires at least one path".into()));
        }
        let path_count = self.paths.len() as u64;
        // Sequence list: forward paths interleaved with their reverses
        // (sequence 2p = forward, 2p + 1 = reverse).
        let mut seqs: Vec<Vec<u64>> = Vec::with_capacity(2 * self.paths.len());
        for path in &self.paths {
            seqs.push(path.clone());
            seqs.push(path.iter().rev().map(|&s| s ^ 1).collect());
        }
        let order = visit_order(&seqs);
        assemble(seqs, order, path_count)
    }
}

/// Final ordering information for all visits.
struct VisitOrder {
    /// `occ_rank[p][k]`: sort key of visit `(p, k)`; lower key = earlier in
    /// its node's record.
    occ_rank: Vec<Vec<u64>>,
}

/// Computes reverse-prefix ranks for every visit via prefix doubling.
fn visit_order(seqs: &[Vec<u64>]) -> VisitOrder {
    // T = concat over p of (reverse(seq_p) ++ [sentinel_p]).
    // Initial keys: sentinel_p -> p (unique, smaller than any symbol);
    // symbol s -> P + s.
    let p_count = seqs.len() as u64;
    let n: usize = seqs.iter().map(|s| s.len() + 1).sum();
    assert!(
        n < u32::MAX as usize,
        "GBWT construction is limited to < 2^32 total path positions"
    );
    let mut key = vec![0u64; n];
    let mut base = vec![0usize; seqs.len()];
    let mut pos = 0usize;
    for (p, seq) in seqs.iter().enumerate() {
        base[p] = pos;
        for (i, &sym) in seq.iter().rev().enumerate() {
            key[pos + i] = p_count + sym;
        }
        key[pos + seq.len()] = p as u64;
        pos += seq.len() + 1;
    }

    // Prefix doubling: rank[i] = order of suffix T[i..]; ties broken by
    // extending the compared prefix length h -> 2h until all distinct.
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rank: Vec<u64> = key;
    let mut tmp = vec![0u64; n];
    let mut h = 1usize;
    loop {
        let pair = |i: usize| -> (u64, u64) {
            let second = if i + h < n { rank[i + h] + 1 } else { 0 };
            (rank[i], second)
        };
        order.sort_unstable_by_key(|&i| pair(i as usize));
        let mut distinct = true;
        let mut current = 0u64;
        tmp[order[0] as usize] = 0;
        for w in order.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            if pair(a) != pair(b) {
                current += 1;
            } else {
                distinct = false;
            }
            tmp[b] = current;
        }
        std::mem::swap(&mut rank, &mut tmp);
        if distinct || h >= n {
            break;
        }
        h *= 2;
    }

    // Rank of visit (p, k): suffix starting at its reverse prefix, which is
    // region index len_p - k (the sentinel itself for k = 0).
    let occ_rank = seqs
        .iter()
        .enumerate()
        .map(|(p, seq)| {
            (0..seq.len())
                .map(|k| rank[base[p] + (seq.len() - k)])
                .collect()
        })
        .collect();
    VisitOrder { occ_rank }
}

/// Assembles all node records from ordered visits.
fn assemble(seqs: Vec<Vec<u64>>, order: VisitOrder, path_count: u64) -> Result<Gbwt> {
    let max_symbol = seqs
        .iter()
        .flat_map(|s| s.iter().copied())
        .max()
        .expect("at least one nonempty path");

    // Bucket visits by node symbol, then sort each bucket by rank.
    let mut visits: Vec<Vec<(u32, u32)>> = vec![Vec::new(); (max_symbol - 1) as usize];
    for (p, seq) in seqs.iter().enumerate() {
        for (k, &sym) in seq.iter().enumerate() {
            visits[(sym - 2) as usize].push((p as u32, k as u32));
        }
    }
    for (sym_idx, bucket) in visits.iter_mut().enumerate() {
        bucket.sort_unstable_by_key(|&(p, k)| order.occ_rank[p as usize][k as usize]);
        // Ranks are a total order; duplicate keys inside one bucket would
        // mean two visits share a reverse prefix, which sentinels forbid.
        debug_assert!(
            bucket
                .windows(2)
                .all(|w| order.occ_rank[w[0].0 as usize][w[0].1 as usize]
                    != order.occ_rank[w[1].0 as usize][w[1].1 as usize]),
            "duplicate visit rank at symbol {}",
            sym_idx + 2
        );
    }

    // first_in_group[w - 2]: (predecessor symbol -> index of its group's
    // first visit at w). Predecessor of (p, 0) is the endmarker.
    let pred = |p: u32, k: u32| -> u64 {
        if k == 0 {
            ENDMARKER
        } else {
            seqs[p as usize][(k - 1) as usize]
        }
    };
    let first_in_group: Vec<std::collections::HashMap<u64, u64>> = visits
        .iter()
        .map(|bucket| {
            let mut map = std::collections::HashMap::new();
            for (i, &(p, k)) in bucket.iter().enumerate() {
                map.entry(pred(p, k)).or_insert(i as u64);
            }
            map
        })
        .collect();

    // Encode records in symbol order. A record's endmarker edge carries the
    // number of sequence ends at smaller symbols: the ends are counted in
    // node symbol order (the loop order), then in visit order.
    let mut records = Vec::new();
    let mut offsets = Vec::with_capacity(visits.len() + 1);
    let mut total_visits = 0u64;
    let mut ends = 0u64;
    for (sym_idx, bucket) in visits.iter().enumerate() {
        offsets.push(records.len() as u64);
        let symbol = sym_idx as u64 + 2;
        if bucket.is_empty() {
            DecodedRecord::empty().encode(&mut records);
            continue;
        }
        total_visits += bucket.len() as u64;
        // Successor of each visit, in visit order.
        let succs: Vec<u64> = bucket
            .iter()
            .map(|&(p, k)| {
                let seq = &seqs[p as usize];
                if (k as usize) + 1 < seq.len() {
                    seq[k as usize + 1]
                } else {
                    ENDMARKER
                }
            })
            .collect();
        let mut edge_syms: Vec<u64> = succs.clone();
        edge_syms.sort_unstable();
        edge_syms.dedup();
        let end_base = ends;
        ends += succs.iter().filter(|&&succ| succ == ENDMARKER).count() as u64;
        let edges: Vec<RecordEdge> = edge_syms
            .iter()
            .map(|&w| RecordEdge {
                symbol: w,
                offset: if w == ENDMARKER {
                    end_base
                } else {
                    first_in_group[(w - 2) as usize]
                        .get(&symbol)
                        .copied()
                        .expect("edge implies a visit group at destination")
                },
            })
            .collect();
        let ranks = succs
            .iter()
            .map(|w| edge_syms.binary_search(w).unwrap() as u64);
        let runs = rle::collapse(ranks);
        DecodedRecord::new(edges, runs).encode(&mut records);
    }
    offsets.push(records.len() as u64);

    // Endmarker record: sequence p starts at seqs[p][0]; visits ordered by
    // sequence id.
    let firsts: Vec<u64> = seqs.iter().map(|s| s[0]).collect();
    let mut edge_syms: Vec<u64> = firsts.clone();
    edge_syms.sort_unstable();
    edge_syms.dedup();
    let edges: Vec<RecordEdge> = edge_syms
        .iter()
        .map(|&w| RecordEdge {
            symbol: w,
            offset: first_in_group[(w - 2) as usize]
                .get(&ENDMARKER)
                .copied()
                .expect("every path start is a visit group"),
        })
        .collect();
    let ranks = firsts
        .iter()
        .map(|w| edge_syms.binary_search(w).unwrap() as u64);
    let runs = rle::collapse(ranks);
    let mut endmarker = Vec::new();
    DecodedRecord::new(edges, runs).encode(&mut endmarker);

    Ok(Gbwt::from_parts(
        records,
        offsets,
        endmarker,
        path_count,
        max_symbol + 1,
        total_visits,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::NodeId;

    fn handles(ids: &[(u64, bool)]) -> Vec<Handle> {
        ids.iter()
            .map(|&(id, rev)| {
                if rev {
                    Handle::reverse(NodeId::new(id))
                } else {
                    Handle::forward(NodeId::new(id))
                }
            })
            .collect()
    }

    #[test]
    fn build_rejects_no_paths() {
        assert!(GbwtBuilder::new().build().is_err());
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn insert_rejects_empty_path() {
        let _ = GbwtBuilder::new().insert(&[]);
    }

    #[test]
    fn single_path_roundtrips() {
        let path = handles(&[(1, false), (2, false), (3, false)]);
        let gbwt = GbwtBuilder::new().insert(&path).build().unwrap();
        assert_eq!(gbwt.sequence_count(), 2);
        assert_eq!(gbwt.path_count(), 1);
        let seq = gbwt.sequence(0).unwrap();
        assert_eq!(seq, vec![2, 4, 6]);
        // Reverse: 3-, 2-, 1- = symbols 7, 5, 3.
        assert_eq!(gbwt.sequence(1).unwrap(), vec![7, 5, 3]);
    }

    #[test]
    fn shared_prefix_paths_reconstruct() {
        // Diamond: 1-2-4 and 1-3-4, twice each to create runs. Forward
        // sequences are the even ids, each followed by its reverse.
        let a = handles(&[(1, false), (2, false), (4, false)]);
        let b = handles(&[(1, false), (3, false), (4, false)]);
        let gbwt = GbwtBuilder::new().insert(&a).insert(&b).insert(&a).insert(&b).build().unwrap();
        assert_eq!(gbwt.sequence_count(), 8);
        for p in [0, 2] {
            assert_eq!(gbwt.sequence(2 * p).unwrap(), vec![2, 4, 8]);
            assert_eq!(gbwt.sequence(2 * p + 1).unwrap(), vec![9, 5, 3]);
            assert_eq!(gbwt.sequence(2 * p + 2).unwrap(), vec![2, 6, 8]);
            assert_eq!(gbwt.sequence(2 * p + 3).unwrap(), vec![9, 7, 3]);
        }
    }

    #[test]
    fn cyclic_path_reconstructs() {
        // A path revisiting node 1: 1+ 2+ 1+ 2+, and its reverse 2- 1- 2- 1-.
        let path = handles(&[(1, false), (2, false), (1, false), (2, false)]);
        let gbwt = GbwtBuilder::new().insert(&path).build().unwrap();
        assert_eq!(gbwt.sequence(0).unwrap(), vec![2, 4, 2, 4]);
        assert_eq!(gbwt.sequence(1).unwrap(), vec![5, 3, 5, 3]);
    }

    #[test]
    fn palindromic_revisits_reconstruct() {
        // Stress ordering: two paths sharing nodes in different contexts.
        let a = handles(&[(1, false), (2, false), (3, false), (2, false), (5, false)]);
        let b = handles(&[(4, false), (2, false), (3, false), (2, false), (1, false)]);
        let gbwt = GbwtBuilder::new().insert(&a).insert(&b).build().unwrap();
        assert_eq!(gbwt.sequence(0).unwrap(), vec![2, 4, 6, 4, 10]);
        assert_eq!(gbwt.sequence(2).unwrap(), vec![8, 4, 6, 4, 2]);
    }

    #[test]
    fn reverse_orientation_paths() {
        let path = handles(&[(1, false), (2, true), (3, false)]);
        let gbwt = GbwtBuilder::new().insert(&path).build().unwrap();
        assert_eq!(gbwt.sequence(0).unwrap(), vec![2, 5, 6]);
        assert_eq!(gbwt.sequence(1).unwrap(), vec![7, 4, 3]);
    }
}
