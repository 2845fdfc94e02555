//! Post-processing: extension scoring, filtering, and alignment emission.
//!
//! Giraffe refines the raw extensions after the critical functions: it
//! rescores them, discards low-scoring ones, and emits alignments (the part
//! miniGiraffe deliberately does *not* replicate). The parent pipeline
//! implements it so the proxy's input/output boundary sits exactly where
//! the paper cut it.

use mg_core::types::{Extension, ReadResult};
use mg_index::GraphPos;

/// Parameters of the post-processing stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignParams {
    /// Extensions scoring below `keep_fraction × best` are dropped.
    pub keep_fraction: f64,
    /// Alignments with score below this are dropped outright.
    pub min_score: i32,
    /// Scale from score gap to mapping quality.
    pub mapq_scale: f64,
}

impl Default for AlignParams {
    fn default() -> Self {
        AlignParams {
            keep_fraction: 0.8,
            min_score: 8,
            mapq_scale: 2.0,
        }
    }
}

/// A finished alignment record (the parent's output unit).
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Read index.
    pub read_id: u64,
    /// Graph position of the alignment start.
    pub pos: GraphPos,
    /// Covered read interval.
    pub read_start: u32,
    /// Covered read interval end (exclusive).
    pub read_end: u32,
    /// Alignment score.
    pub score: i32,
    /// Mismatches inside the alignment.
    pub mismatches: u32,
    /// Mapping quality (0–60), from the gap to the second-best candidate.
    pub mapq: u8,
    /// Whether the mate-pair distance check passed (paired workflows only;
    /// `true` for single-end).
    pub properly_paired: bool,
    /// GBWT sequence ids of haplotypes supporting the alignment's path
    /// (capped; empty when annotation is off).
    pub haplotypes: Vec<u64>,
    /// CIGAR of a gapped tail alignment appended by the fallback aligner,
    /// when gapless extension left read bases uncovered.
    pub tail_cigar: Option<String>,
}

/// Scores and filters one read's extensions into alignments, best first.
pub fn align_read(result: &ReadResult, params: &AlignParams) -> Vec<Alignment> {
    let Some(best) = result.extensions.first().map(|e| e.score) else {
        return Vec::new();
    };
    let second = result.extensions.get(1).map_or(0, |e| e.score);
    let cutoff = ((best as f64) * params.keep_fraction).floor() as i32;
    result
        .extensions
        .iter()
        .filter(|e| e.score >= cutoff && e.score >= params.min_score)
        .map(|e| make_alignment(e, best, second, params))
        .collect()
}

fn make_alignment(e: &Extension, best: i32, second: i32, params: &AlignParams) -> Alignment {
    let mapq = if e.score < best {
        0
    } else {
        (((best - second).max(0) as f64) * params.mapq_scale).min(60.0) as u8
    };
    Alignment {
        read_id: e.read_id,
        pos: e.pos,
        read_start: e.read_start,
        read_end: e.read_end,
        score: e.score,
        mismatches: e.mismatches,
        mapq,
        properly_paired: true,
        haplotypes: Vec::new(),
        tail_cigar: None,
    }
}

/// Annotates an alignment with the haplotypes whose paths contain its walk,
/// using the GBWT `locate` query (at most `limit` ids). An empty result
/// means the path is not fully haplotype-consistent (possible after
/// max-score trimming at node boundaries).
pub fn annotate_haplotypes(
    gbwt: &mg_gbwt::Gbwt,
    alignment: &mut Alignment,
    path: &[mg_graph::Handle],
    limit: usize,
) {
    let Some((&first, rest)) = path.split_first() else {
        return;
    };
    let mut state = gbwt.find(first.to_gbwt());
    for h in rest {
        state = gbwt.extend(&state, h.to_gbwt());
    }
    alignment.haplotypes = gbwt.locate_state(&state, limit);
}

/// Checks fragment-length consistency for a mate pair: the best alignments
/// of both mates must be within `max_fragment` bases in the graph.
pub fn pair_check(
    graph: &mg_graph::VariationGraph,
    dist: &mg_index::DistanceIndex,
    first: &mut [Alignment],
    second: &mut [Alignment],
    max_fragment: u64,
) {
    let ok = match (first.first(), second.first()) {
        (Some(a), Some(b)) => {
            // R2 is reverse-complemented, so its graph position sits on the
            // flipped strand; compare against the same base on the other
            // strand too.
            let b_pos = b.pos.flipped(graph.node_len(b.pos.handle.node()) as u32);
            dist.min_undirected_distance(graph, a.pos, b_pos, max_fragment)
                .is_some()
                || dist
                    .min_undirected_distance(graph, a.pos, b.pos, max_fragment)
                    .is_some()
        }
        _ => false,
    };
    for a in first.iter_mut().chain(second.iter_mut()) {
        a.properly_paired = ok;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::{Handle, NodeId};

    fn ext(score: i32, start: u32) -> Extension {
        Extension {
            read_id: 0,
            read_start: start,
            read_end: start + 50,
            pos: GraphPos::new(Handle::forward(NodeId::new(1)), start),
            path: vec![],
            score,
            mismatches: 0,
        }
    }

    #[test]
    fn empty_result_gives_no_alignments() {
        let r = ReadResult { read_id: 0, extensions: vec![] };
        assert!(align_read(&r, &AlignParams::default()).is_empty());
    }

    #[test]
    fn low_scores_filtered() {
        let r = ReadResult {
            read_id: 0,
            extensions: vec![ext(50, 0), ext(45, 1), ext(20, 2)],
        };
        let aligns = align_read(&r, &AlignParams::default());
        // 20 < 0.8 * 50 = 40: dropped.
        assert_eq!(aligns.len(), 2);
        assert_eq!(aligns[0].score, 50);
    }

    #[test]
    fn min_score_applies() {
        let r = ReadResult { read_id: 0, extensions: vec![ext(5, 0)] };
        assert!(align_read(&r, &AlignParams::default()).is_empty());
    }

    #[test]
    fn mapq_reflects_score_gap() {
        let unique = ReadResult { read_id: 0, extensions: vec![ext(50, 0)] };
        let ambiguous = ReadResult {
            read_id: 0,
            extensions: vec![ext(50, 0), ext(50, 40)],
        };
        let u = align_read(&unique, &AlignParams::default());
        let a = align_read(&ambiguous, &AlignParams::default());
        assert_eq!(u[0].mapq, 60);
        assert_eq!(a[0].mapq, 0);
        // Non-best alignments always get mapq 0.
        assert_eq!(a[1].mapq, 0);
    }

    #[test]
    fn pair_check_marks_consistent_pairs() {
        use mg_graph::pangenome::PangenomeBuilder;
        let p = PangenomeBuilder::new(vec![b'A'; 1000])
            .haplotypes(vec![vec![]])
            .max_node_len(10)
            .build()
            .unwrap();
        let dist = mg_index::DistanceIndex::build(p.graph());
        let mk = |node: u64| Alignment {
            read_id: 0,
            pos: GraphPos::new(Handle::forward(NodeId::new(node)), 0),
            read_start: 0,
            read_end: 50,
            score: 50,
            mismatches: 0,
            mapq: 60,
            properly_paired: false,
            haplotypes: Vec::new(),
            tail_cigar: None,
        };
        // Nodes 1 and 30: 290 bases apart; fragment limit 500 passes.
        let mut a = vec![mk(1)];
        let mut b = vec![mk(30)];
        pair_check(p.graph(), &dist, &mut a, &mut b, 500);
        assert!(a[0].properly_paired && b[0].properly_paired);
        // Nodes 1 and 90: 890 bases apart; limit 500 fails.
        let mut c = vec![mk(1)];
        let mut d = vec![mk(90)];
        pair_check(p.graph(), &dist, &mut c, &mut d, 500);
        assert!(!c[0].properly_paired && !d[0].properly_paired);
    }

    /// R2's alignment on a reverse strand is compared at the same base on
    /// the forward strand, not at the start of the flipped node: the mate
    /// at offset 5 of 100-base node 1's reverse strand is base 94 of its
    /// forward strand, 6 bases before R1 on node 2, while the flipped
    /// node's start is 100 bases before it.
    #[test]
    fn pair_check_mirrors_the_mates_offset() {
        let mut g = mg_graph::GraphBuilder::new();
        let one = g.add_node(&[b'A'; 100]).unwrap();
        let two = g.add_node(&[b'C'; 10]).unwrap();
        g.add_edge(Handle::forward(one), Handle::forward(two));
        let g = g.build();
        let dist = mg_index::DistanceIndex::build(&g);
        let mk = |pos| Alignment {
            read_id: 0,
            pos,
            read_start: 0,
            read_end: 5,
            score: 5,
            mismatches: 0,
            mapq: 60,
            properly_paired: false,
            haplotypes: Vec::new(),
            tail_cigar: None,
        };
        let r1 = GraphPos::new(Handle::forward(two), 0);
        let r2 = GraphPos::new(Handle::reverse(one), 5);
        assert_eq!(r2.flipped(100), GraphPos::new(Handle::forward(one), 94));
        let limit = 20;
        assert_eq!(dist.min_undirected_distance(&g, r2.flipped(100), r1, limit), Some(6));
        assert_eq!(dist.min_undirected_distance(&g, GraphPos::new(Handle::forward(one), 0), r1, limit), None);
        let (mut a, mut b) = (vec![mk(r1)], vec![mk(r2)]);
        pair_check(&g, &dist, &mut a, &mut b, limit);
        assert!(a[0].properly_paired && b[0].properly_paired);
    }

    #[test]
    fn pair_check_with_missing_mate_fails() {
        use mg_graph::pangenome::PangenomeBuilder;
        let p = PangenomeBuilder::new(vec![b'A'; 100])
            .haplotypes(vec![vec![]])
            .build()
            .unwrap();
        let dist = mg_index::DistanceIndex::build(p.graph());
        let mut a = vec![Alignment {
            read_id: 0,
            pos: GraphPos::new(Handle::forward(NodeId::new(1)), 0),
            read_start: 0,
            read_end: 50,
            score: 50,
            mismatches: 0,
            mapq: 60,
            properly_paired: true,
            haplotypes: Vec::new(),
            tail_cigar: None,
        }];
        let mut b: Vec<Alignment> = vec![];
        pair_check(p.graph(), &dist, &mut a, &mut b, 500);
        assert!(!a[0].properly_paired);
    }
}

#[cfg(test)]
mod annotate_tests {
    use super::*;
    use mg_core::types::ReadResult;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use mg_graph::{Handle, NodeId};

    #[test]
    fn annotation_names_supporting_haplotypes() {
        // Two haplotypes: only haplotype 1 takes the alt allele.
        let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTT".to_vec())
            .variants(vec![Variant::snp(6, b'G')])
            .haplotypes(vec![vec![0], vec![1]])
            .max_node_len(4)
            .build()
            .unwrap();
        let paths = p.paths().to_vec();
        let gbz = mg_gbwt::Gbz::from_pangenome(p).unwrap();
        // Annotate an alignment whose path is haplotype 1's full walk.
        let path = &paths[1].handles;
        let ext = mg_core::types::Extension {
            read_id: 0,
            read_start: 0,
            read_end: 16,
            pos: mg_index::GraphPos::new(Handle::forward(NodeId::new(1)), 0),
            path: path.clone(),
            score: 16,
            mismatches: 0,
        };
        let result = ReadResult { read_id: 0, extensions: vec![ext] };
        let mut aligns = align_read(&result, &AlignParams::default());
        annotate_haplotypes(gbz.gbwt(), &mut aligns[0], path, 16);
        // Haplotype 1 forward = sequence 2.
        assert_eq!(aligns[0].haplotypes, vec![2]);
        // A shared prefix (first node only) is supported by both forwards.
        let mut shared = aligns[0].clone();
        annotate_haplotypes(gbz.gbwt(), &mut shared, &path[..1], 16);
        assert_eq!(shared.haplotypes, vec![0, 2]);
        // Empty path leaves annotation untouched.
        let mut untouched = aligns[0].clone();
        let before = untouched.haplotypes.clone();
        annotate_haplotypes(gbz.gbwt(), &mut untouched, &[], 16);
        assert_eq!(untouched.haplotypes, before);
    }
}
