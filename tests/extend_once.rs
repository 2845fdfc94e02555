//! "Extend each walk once": `process_until_threshold_with_scratch` against
//! the reference it replaces — extend every anchor with the public
//! `extend_seed_with_scratch`, then canonicalize — on random pangenomes with
//! SNPs and indels.
//!
//! Rule 1 merges anchors of one node and one diagonal that the read joins
//! without a mismatch; that is an optimisation with a proof (DESIGN.md §4b).
//! Rule 2 is Giraffe's: an anchor lying on an exact full-length extension
//! the read already has is not walked, and whatever such an anchor yielded
//! before that extension turned up, short of another exact full-length
//! extension, is dropped. So the kernel must equal the reference after the
//! same drop, under both comparison steps of the walk. The one
//! documented exception — an anchor lying on one exact full-length walk
//! yields a *different* one — is decided by canonical anchor order, and for
//! those cases the test checks exactly that.

use minigiraffe::core::{
    extend_seed_with_scratch, process_until_threshold_with_scratch, Cluster, ExtendParams,
    ExtendScratch, Extension, KernelStats, ProcessParams, Seed,
};
use minigiraffe::gbwt::{CachedGbwt, Gbz};
use minigiraffe::graph::pangenome::{PangenomeBuilder, Variant};
use minigiraffe::graph::{Handle, NodeId};
use minigiraffe::index::GraphPos;
use minigiraffe::support::probe::{CountingProbe, MemProbe, NoProbe};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

/// Random cases per run of the property.
const CASES: u32 = 2000;

/// One kernel input: a read, its seeds, and the clusters over them.
struct Case {
    gbz: Gbz,
    read: Vec<u8>,
    seeds: Vec<Seed>,
    clusters: Vec<Cluster>,
}

/// [`common::random_read`], its anchors split into clusters.
fn random_case(rng: &mut StdRng) -> Case {
    let (gbz, read, seeds) = common::random_read(rng);
    // One to three clusters over a shuffle-free split of the seed list, all
    // above the score cutoff so every one is processed.
    let cuts = rng.random_range(1usize..=3.min(seeds.len()));
    let mut bounds: Vec<usize> = (0..cuts - 1).map(|_| rng.random_range(1..seeds.len())).collect();
    bounds.extend([0, seeds.len()]);
    bounds.sort_unstable();
    bounds.dedup();
    let clusters = bounds
        .windows(2)
        .enumerate()
        .map(|(i, w)| Cluster {
            seeds: (w[0]..w[1]).collect(),
            score: 4.0 - i as f64 * 0.5,
        })
        .collect();
    Case { gbz, read, seeds, clusters }
}

/// The kernel over the case's clusters. The probe picks the comparison
/// step: eight bases a step under [`NoProbe`], one base a step under an
/// active probe.
fn kernel(
    case: &Case,
    extend: &ExtendParams,
    process: &ProcessParams,
    probe: &mut impl MemProbe,
) -> (Vec<Extension>, KernelStats) {
    let mut cache = CachedGbwt::new(case.gbz.gbwt(), 64);
    let mut scratch = ExtendScratch::default();
    let out = process_until_threshold_with_scratch(
        case.gbz.graph(), &mut cache, &case.read, 0, &case.seeds, &case.clusters, extend, process,
        probe, &mut scratch,
    );
    (out, scratch.take_stats())
}

/// Every distinct anchor of every processed cluster, in canonical order
/// (clusters as given, anchors by `(read_offset, pos)`), with what the public
/// single-seed extension makes of it (`None`: nothing reportable), walked a
/// base a step under an active probe.
fn every_anchor(
    case: &Case,
    extend: &ExtendParams,
    process: &ProcessParams,
) -> Vec<(Seed, Option<Extension>)> {
    let mut cache = CachedGbwt::new(case.gbz.gbwt(), 64);
    let mut scratch = ExtendScratch::default();
    let mut all = Vec::new();
    let best = case.clusters.first().map_or(0.0, |c| c.score);
    for cluster in case.clusters.iter().take(process.max_clusters) {
        if cluster.score < best * process.cluster_score_cutoff {
            break;
        }
        let mut anchors: Vec<Seed> = cluster.seeds.iter().map(|&i| case.seeds[i]).collect();
        anchors.sort_unstable();
        anchors.dedup();
        for anchor in anchors {
            let ext = extend_seed_with_scratch(
                case.gbz.graph(), &mut cache, &case.read, 0, anchor, extend,
                &mut CountingProbe::default(), &mut scratch,
            );
            all.push((anchor, ext.filter(|e| e.score >= process.min_extension_score)));
        }
    }
    all
}

fn is_exact_full_length(ext: &Extension, case: &Case) -> bool {
    ext.mismatches == 0 && ext.read_start == 0 && ext.read_end as usize == case.read.len()
}

/// `true` when `anchor` sits on a node of `ext`'s path at the read offset
/// `ext` aligns that node's base to.
fn lies_on(case: &Case, anchor: &Seed, ext: &Extension) -> bool {
    let mut node_start = i64::from(ext.read_start) - i64::from(ext.pos.offset);
    ext.path.iter().any(|&h| {
        let hit = h == anchor.pos.handle
            && node_start == i64::from(anchor.read_offset) - i64::from(anchor.pos.offset);
        node_start += case.gbz.graph().node_len(h.node()) as i64;
        hit
    })
}

/// Drops what rule 2 drops given the exact full-length extensions in
/// `exact`, then canonicalizes.
fn drop_covered(
    case: &Case,
    walks: Vec<(Seed, Extension)>,
    exact: &[Extension],
    process: &ProcessParams,
) -> Vec<Extension> {
    let kept = walks
        .into_iter()
        .filter(|(a, x)| is_exact_full_length(x, case) || !exact.iter().any(|e| lies_on(case, a, e)))
        .map(|(_, x)| x)
        .collect();
    canonicalize(kept, process)
}

/// The reference: every anchor extended, then the drop.
fn reference(case: &Case, all: &[(Seed, Option<Extension>)], process: &ProcessParams) -> Vec<Extension> {
    let walks: Vec<(Seed, Extension)> =
        all.iter().filter_map(|(a, x)| Some((*a, x.clone()?))).collect();
    let exact: Vec<Extension> =
        walks.iter().filter(|(_, x)| is_exact_full_length(x, case)).map(|(_, x)| x.clone()).collect();
    drop_covered(case, walks, &exact, process)
}

/// The same with Giraffe's skip made explicit: in canonical order, an anchor
/// lying on an exact full-length extension found before it contributes
/// nothing.
fn reference_in_canonical_order(
    case: &Case,
    all: &[(Seed, Option<Extension>)],
    process: &ProcessParams,
) -> Vec<Extension> {
    let mut exact: Vec<Extension> = Vec::new();
    let mut walks = Vec::new();
    for (anchor, ext) in all {
        if exact.iter().any(|e| lies_on(case, anchor, e)) {
            continue;
        }
        if let Some(ext) = ext {
            if is_exact_full_length(ext, case) {
                exact.push(ext.clone());
            }
            walks.push((*anchor, ext.clone()));
        }
    }
    drop_covered(case, walks, &exact, process)
}

/// `true` when no anchor lying on an exact full-length extension yields a
/// different exact full-length extension: then skipping it loses nothing.
fn exact_walks_are_unambiguous(case: &Case, all: &[(Seed, Option<Extension>)]) -> bool {
    let exact: Vec<(&Seed, &Extension)> = all
        .iter()
        .filter_map(|(a, x)| Some((a, x.as_ref()?)))
        .filter(|(_, x)| is_exact_full_length(x, case))
        .collect();
    exact.iter().all(|(a, x)| exact.iter().all(|(_, e)| !lies_on(case, a, e) || e == x))
}

fn canonicalize(mut all: Vec<Extension>, process: &ProcessParams) -> Vec<Extension> {
    all.sort_by(|a, b| {
        (a.read_start, a.read_end, a.pos, std::cmp::Reverse(a.score), a.mismatches, &a.path).cmp(
            &(b.read_start, b.read_end, b.pos, std::cmp::Reverse(b.score), b.mismatches, &b.path),
        )
    });
    all.dedup_by_key(|e| (e.read_start, e.read_end, e.pos));
    all.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then_with(|| (a.read_start, a.read_end, a.pos).cmp(&(b.read_start, b.read_end, b.pos)))
    });
    all.truncate(process.max_extensions_per_read);
    all
}

/// (a) the kernel equals the extend-every-anchor reference after the drop;
/// (b) under the per-base and the eight-base comparison step; (c) every
/// distinct anchor is walked, merged away or skipped.
fn check_case(case_seed: u64) {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let case = random_case(&mut rng);
    // A small branch-step budget makes far anchors stop short of the walk a
    // near anchor completes.
    let extend = ExtendParams {
        max_mismatches: rng.random_range(0u32..6),
        max_branch_steps: if rng.random_bool(0.3) { rng.random_range(2usize..24) } else { 64 },
        ..Default::default()
    };
    let process = ProcessParams::default();
    let all = every_anchor(&case, &extend, &process);
    let want = reference_in_canonical_order(&case, &all, &process);
    if exact_walks_are_unambiguous(&case, &all) {
        assert_eq!(want, reference(&case, &all, &process), "case {case_seed}");
    }
    for (step, (got, stats)) in [
        ("per-base", kernel(&case, &extend, &process, &mut CountingProbe::default())),
        ("eight-base", kernel(&case, &extend, &process, &mut NoProbe)),
    ] {
        assert_eq!(
            got, want,
            "case {case_seed} {step} step read {:?} seeds {:?}",
            String::from_utf8_lossy(&case.read), case.seeds
        );
        assert_eq!(
            stats.anchors_walked + stats.anchors_merged + stats.anchors_skipped,
            all.len() as u64,
            "case {case_seed} stats {stats:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn kernel_equals_extend_every_anchor_reference(case_seed in 0u64..1_000_000) {
        check_case(case_seed);
    }
}

/// Rule 2's order caveat, written down: reads whose two ends fall in
/// two-letter repeats, so that two exact full-length walks differ in their
/// first and last nodes and share the anchors between — 546951:
/// `[25,21,19,15,13]` and `[23,21,19,17,13]`, every anchor on node 21 or 19
/// lies on both and yields the second. Which walks are reported then depends
/// on which anchor is asked first, and the answer must be the canonical
/// order's: in the first of these inputs graph-position order starts with
/// another anchor than canonical order, the second finds its two walks
/// inside one cluster.
#[test]
fn two_exact_walks_sharing_anchors_are_settled_in_canonical_order() {
    for case_seed in [546_951, 367_046] {
        check_case(case_seed);
    }
}

/// One 40-base node, one haplotype: the smallest graph on which two anchors
/// share a node and a diagonal.
fn one_node() -> (Gbz, Vec<u8>) {
    let reference = b"ACGTTGCAAGCTTAGGCATCGATTACGGATCCTAGCAATG".to_vec();
    let p = PangenomeBuilder::new(reference.clone())
        .haplotypes(vec![vec![]])
        .max_node_len(64)
        .build()
        .unwrap();
    (Gbz::from_pangenome(p).unwrap(), reference)
}

fn two_anchor_case(gbz: Gbz, read: Vec<u8>) -> Case {
    let node = Handle::forward(NodeId::new(1));
    // Read offset r sits on node offset 8 + r: one diagonal for both.
    let seeds = vec![
        Seed::new(1, GraphPos::new(node, 9)),
        Seed::new(12, GraphPos::new(node, 20)),
    ];
    let clusters = vec![Cluster { seeds: vec![0, 1], score: 2.0 }];
    Case { gbz, read, seeds, clusters }
}

#[test]
fn anchors_joined_by_matching_bases_merge() {
    let (gbz, reference) = one_node();
    let case = two_anchor_case(gbz, reference[8..38].to_vec());
    let (got, stats) = kernel(&case, &ExtendParams::default(), &ProcessParams::default(), &mut NoProbe);
    assert_eq!(stats.anchors_merged, 1);
    assert_eq!(got.len(), 1);
    assert_eq!((got[0].read_start, got[0].read_end, got[0].mismatches), (0, 30, 0));
    assert_eq!(got, reference_of(&case));
}

/// (b) A substitution or an `N` between two anchors of one diagonal keeps
/// both, and here it must: the left anchor carries its extension across the
/// break to the read's first base (one mismatch), the right anchor's left
/// walk gives up at the break (two bases beyond it cannot pay for it), so
/// the two anchors report different spans.
#[test]
fn a_mismatch_or_n_between_anchors_keeps_both() {
    for broken in [b'N', b'T'] {
        let (gbz, reference) = one_node();
        let mut read = reference[8..38].to_vec();
        assert_ne!(read[2], broken);
        read[2] = broken;
        let case = two_anchor_case(gbz, read);
        let (got, stats) = kernel(&case, &ExtendParams::default(), &ProcessParams::default(), &mut NoProbe);
        assert_eq!(stats.anchors_merged, 0, "break {}", broken as char);
        let spans: Vec<_> = got.iter().map(|e| (e.read_start, e.read_end, e.mismatches)).collect();
        assert_eq!(spans, vec![(3, 30, 0), (0, 30, 1)], "break {}", broken as char);
        assert_eq!(got, reference_of(&case));
    }
}

fn reference_of(case: &Case) -> Vec<Extension> {
    let process = ProcessParams::default();
    let all = every_anchor(case, &ExtendParams::default(), &process);
    reference(case, &all, &process)
}


/// The bug rule 2 fixes, on the smallest graph that shows it. A SNP, sixty
/// shared bases, then a 6-base deletion whose far side begins with the same
/// four bases as the deleted stretch; one haplotype carries neither variant,
/// the other both. The read is the first haplotype, error-free, from two
/// bases before the SNP to three bases into the deleted stretch, so its last
/// three bases also spell the deletion arm. Its anchors on the shared bases
/// see both haplotypes: their right walk ends on the deletion arm first and
/// keeps it (the true arm only ties), the state is now the second haplotype
/// alone, and the left walk stops at the SNP — bases 3..66 on a side path.
/// Only the anchors left of the SNP find the exact alignment. Reported next
/// to it, the 63-base stretch dragged MAPQ from 60 to 6.
#[test]
fn error_free_read_reports_no_stretch_of_its_own_exact_alignment() {
    use minigiraffe::core::{build_minimizer_index, Workflow};
    use minigiraffe::index::MinimizerParams;
    use minigiraffe::parent::{run_to_gaf, Parent, ParentOptions};

    let reference = b"CATCAATCGGCATTTGCGACGCTCAGTATCCAAGATTGCCGGATCGGTGATGGTACGATCTCTTGCACGTTCC\
        AATGGCACGCGTACCGGCCAAGAATCGCAGTGCTAGTGTAAACATACTGGAGCCATGAGTATACGCGCGGCGACACTC";
    assert_eq!(reference[101..105], reference[107..111], "deleted stretch and far side share a prefix");
    let p = PangenomeBuilder::new(reference.to_vec())
        .variants(vec![Variant::snp(40, b'T'), Variant::deletion(101, 6)])
        .haplotypes(vec![vec![0, 0], vec![1, 1]])
        .max_node_len(32)
        .build()
        .unwrap();
    let gbz = Gbz::from_pangenome(p).unwrap();
    let index = build_minimizer_index(&gbz, MinimizerParams::default()).unwrap();
    let parent = Parent::new(&gbz, &index, Workflow::Single);
    let read = reference[38..104].to_vec();
    let run = parent.run(&[read], &ParentOptions::default());
    let gaf = run_to_gaf(gbz.graph(), &run, "read");
    assert_eq!(
        gaf,
        "read.0\t66\t0\t66\t+\t>2>3>5>6>7\t75\t6\t72\t66\t66\t60\tAS:i:66\tNM:i:0\tpp:A:1\n"
    );
}
