//! The extension walk's eight-base comparison step (taken under `NoProbe`)
//! against its per-base step (taken under any active probe, here a
//! `CountingProbe`): every field of every extension must be equal, for
//! single anchors and for whole reads through `process_until_threshold`, on
//! random pangenomes whose nodes run from one base to two hundred — so
//! spans of whole eight-base steps and every tail length under eight occur
//! in both walk directions — and on hand-built cases that put a mismatch
//! at every position of such a step, run the mismatch budget out in the
//! middle of one, and feed the read bytes that equal no node base (`N`,
//! lowercase).
//!
//! The test knows nothing about how either step compares; it passes
//! unchanged on any walk whose two sides agree.

use minigiraffe::core::{
    extend_seed_with_scratch, process_until_threshold_with_scratch, Cluster, ExtendParams,
    ExtendScratch, Extension, ProcessParams, Seed,
};
use minigiraffe::gbwt::{CachedGbwt, Gbz};
use minigiraffe::graph::dna::reverse_complement;
use minigiraffe::graph::pangenome::{PangenomeBuilder, Variant};
use minigiraffe::graph::{Handle, NodeId};
use minigiraffe::index::GraphPos;
use minigiraffe::support::probe::{CountingProbe, MemProbe, NoProbe};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BASES: &[u8; 4] = b"ACGT";

/// Random cases per run of the property.
const CASES: u32 = 300;

/// `lens.start..lens.end` random bases.
fn random_bases(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.random_range(lens);
    (0..len).map(|_| BASES[rng.random_range(0usize..4)]).collect()
}

/// Another base than `b` (any base for a byte that is none).
fn other_base(b: u8) -> u8 {
    BASES[(BASES.iter().position(|&x| x == b).unwrap_or(0) + 1) % 4]
}

/// One side of the comparison with its own cache, scratch and probe, all
/// kept across calls as a mapping worker keeps them. The probe picks the
/// comparison step.
struct Walker<'a, P> {
    gbz: &'a Gbz,
    cache: CachedGbwt<'a>,
    scratch: ExtendScratch,
    probe: P,
}

impl<'a, P: MemProbe> Walker<'a, P> {
    fn new(gbz: &'a Gbz, probe: P) -> Self {
        Walker { gbz, cache: CachedGbwt::new(gbz.gbwt(), 64), scratch: ExtendScratch::default(), probe }
    }

    fn extend(&mut self, read: &[u8], seed: Seed, params: &ExtendParams) -> Option<Extension> {
        extend_seed_with_scratch(
            self.gbz.graph(), &mut self.cache, read, 0, seed, params, &mut self.probe,
            &mut self.scratch,
        )
    }

    fn process(&mut self, read: &[u8], seeds: &[Seed], params: &ExtendParams) -> Vec<Extension> {
        let clusters = [Cluster { seeds: (0..seeds.len()).collect(), score: 1.0 }];
        process_until_threshold_with_scratch(
            self.gbz.graph(), &mut self.cache, read, 0, seeds, &clusters, params,
            &ProcessParams::default(), &mut self.probe, &mut self.scratch,
        )
    }
}

/// The eight-base step (`production`) and the per-base step (`oracle`)
/// side by side.
struct Pair<'a> {
    production: Walker<'a, NoProbe>,
    oracle: Walker<'a, CountingProbe>,
}

impl<'a> Pair<'a> {
    fn new(gbz: &'a Gbz) -> Self {
        Pair {
            production: Walker::new(gbz, NoProbe),
            oracle: Walker::new(gbz, CountingProbe::default()),
        }
    }

    /// Extends one anchor both ways, demands equality, returns the result.
    fn extend(&mut self, read: &[u8], seed: Seed, params: &ExtendParams, what: &str) -> Option<Extension> {
        let got = self.production.extend(read, seed, params);
        let want = self.oracle.extend(read, seed, params);
        assert_eq!(
            got, want,
            "{what}: read {:?} seed {seed:?} params {params:?}",
            String::from_utf8_lossy(read)
        );
        got
    }

    /// Maps one read both ways and demands equality.
    fn process(&mut self, read: &[u8], seeds: &[Seed], params: &ExtendParams, what: &str) {
        let want = self.oracle.process(read, seeds, params);
        let got = self.production.process(read, seeds, params);
        assert_eq!(
            got, want,
            "{what}: read {:?} seeds {seeds:?} params {params:?}",
            String::from_utf8_lossy(read)
        );
    }
}

/// A random pangenome with SNPs, insertions and deletions and one to three
/// haplotypes. The node-length cap is drawn from 1..=200, small values twice
/// as often, so graphs of one-base nodes, of nodes under eight bases, and of
/// nodes many words long all occur.
fn random_gbz(rng: &mut StdRng) -> (Gbz, Vec<Vec<Handle>>) {
    loop {
        let reference = random_bases(rng, 60..700);
        let mut variants = Vec::new();
        let mut pos = 0usize;
        loop {
            pos += rng.random_range(2usize..90);
            if pos + 8 >= reference.len() {
                break;
            }
            variants.push(match rng.random_range(0u32..5) {
                0 => Variant::insertion(pos, random_bases(rng, 1..12)),
                1 => Variant::deletion(pos, rng.random_range(1usize..6)),
                _ => Variant::snp(pos, BASES[rng.random_range(0usize..4)]),
            });
        }
        let haplotypes: Vec<Vec<usize>> = (0..rng.random_range(1usize..4))
            .map(|_| variants.iter().map(|_| rng.random_range(0usize..2)).collect())
            .collect();
        let cap = if rng.random_bool(0.5) {
            rng.random_range(1usize..=16)
        } else {
            rng.random_range(1usize..=200)
        };
        let built = PangenomeBuilder::new(reference)
            .variants(variants)
            .haplotypes(haplotypes)
            .max_node_len(cap)
            .build();
        // Rejected draws (overlapping sites, an alt equal to the reference
        // base) are simply redrawn.
        if let Ok(p) = built {
            let paths: Vec<Vec<Handle>> = p.paths().iter().map(|p| p.handles.clone()).collect();
            if let Ok(gbz) = Gbz::from_pangenome(p) {
                return (gbz, paths);
            }
        }
    }
}

/// A read drawn from `path` on either strand: its bases and, per read
/// offset, the graph position that base came from (in read orientation).
fn read_from_path(rng: &mut StdRng, gbz: &Gbz, path: &[Handle]) -> (Vec<u8>, Vec<GraphPos>) {
    let graph = gbz.graph();
    let mut hap: Vec<(u8, GraphPos)> = Vec::new();
    for &h in path {
        for (off, &b) in graph.oriented_sequence(h).iter().enumerate() {
            hap.push((b, GraphPos::new(h, off as u32)));
        }
    }
    let len = rng.random_range(1usize..=hap.len().min(260));
    let start = rng.random_range(0..=hap.len() - len);
    let window = &hap[start..start + len];
    if rng.random_bool(0.5) {
        window.iter().copied().unzip()
    } else {
        let fwd: Vec<u8> = window.iter().map(|&(b, _)| b).collect();
        let truth = window
            .iter()
            .rev()
            .map(|&(_, p)| {
                let last = graph.node_len(p.handle.node()) as u32 - 1;
                GraphPos::new(p.handle.flip(), last - p.offset)
            })
            .collect();
        (reverse_complement(&fwd), truth)
    }
}

/// The scoring configurations every case runs under: the default, every
/// mismatch budget from none to four, gentle and free mismatches, a zero
/// match score (runs that leave the score where it was) and a match score
/// above the penalty (a mismatch costs less than the next match earns).
fn param_sets(rng: &mut StdRng) -> Vec<ExtendParams> {
    let budget = |max_mismatches| ExtendParams { max_mismatches, ..Default::default() };
    vec![
        ExtendParams::default(),
        budget(0),
        budget(1),
        budget(2),
        budget(3),
        ExtendParams { mismatch_penalty: 1, ..budget(rng.random_range(0u32..=4)) },
        ExtendParams { mismatch_penalty: 0, match_score: 2, ..budget(rng.random_range(0u32..=4)) },
        ExtendParams { match_score: 0, ..budget(rng.random_range(0u32..=4)) },
        ExtendParams { match_score: 3, mismatch_penalty: 2, ..budget(rng.random_range(0u32..=4)) },
        ExtendParams {
            max_branch_steps: rng.random_range(1usize..12),
            ..budget(rng.random_range(0u32..=4))
        },
    ]
}

fn check_case(case_seed: u64) {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let (gbz, paths) = random_gbz(&mut rng);
    let graph = gbz.graph();
    let mut pair = Pair::new(&gbz);
    for _ in 0..3 {
        let path = &paths[rng.random_range(0..paths.len())];
        let (mut read, truth) = read_from_path(&mut rng, &gbz, path);
        let len = read.len();

        // Anchors where the read came from: the read's first and last base,
        // every base on a node's first or last offset (thinned on graphs of
        // tiny nodes), and a few anywhere.
        let mut seeds: Vec<Seed> = vec![Seed::new(0, truth[0]), Seed::new(len as u32 - 1, truth[len - 1])];
        for (r, p) in truth.iter().enumerate() {
            let last = graph.node_len(p.handle.node()) as u32 - 1;
            if (p.offset == 0 || p.offset == last) && rng.random_bool(0.25) {
                seeds.push(Seed::new(r as u32, *p));
            }
        }
        for _ in 0..4 {
            let r = rng.random_range(0..len);
            seeds.push(Seed::new(r as u32, truth[r]));
        }
        // Anchors where it did not: random nodes on either strand at offset
        // 0, `len - 1` or anywhere, against read offset 0, `len - 1` or
        // anywhere.
        for _ in 0..6 {
            let node = NodeId::new(rng.random_range(1..=graph.node_count() as u64));
            let handle = if rng.random_bool(0.5) { Handle::forward(node) } else { Handle::reverse(node) };
            let node_len = graph.node_len(node);
            let off = match rng.random_range(0u32..3) {
                0 => 0,
                1 => node_len - 1,
                _ => rng.random_range(0..node_len),
            };
            let r = match rng.random_range(0u32..3) {
                0 => 0,
                1 => len - 1,
                _ => rng.random_range(0..len),
            };
            seeds.push(Seed::new(r as u32, GraphPos::new(handle, off as u32)));
        }

        // Errors go in after the anchors were placed: substitutions, `N`s,
        // and a lowercase byte (equal to no node base, like `N`).
        for _ in 0..rng.random_range(0usize..=5) {
            let r = rng.random_range(0..len);
            read[r] = other_base(read[r]);
        }
        if rng.random_bool(0.4) {
            for _ in 0..rng.random_range(1usize..4) {
                read[rng.random_range(0..len)] = b'N';
            }
        }
        if rng.random_bool(0.3) {
            let r = rng.random_range(0..len);
            read[r] = read[r].to_ascii_lowercase();
        }

        for params in param_sets(&mut rng) {
            for &seed in &seeds {
                pair.extend(&read, seed, &params, &format!("case {case_seed}"));
            }
            pair.process(&read, &seeds, &params, &format!("case {case_seed}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn production_walk_equals_per_base_oracle(case_seed in 0u64..1_000_000) {
        check_case(case_seed);
    }
}

/// A linear graph (one haplotype, no variants) over `reference` cut into
/// nodes of `node_len` bases.
fn linear_gbz(reference: &[u8], node_len: usize) -> Gbz {
    let p = PangenomeBuilder::new(reference.to_vec())
        .haplotypes(vec![vec![]])
        .max_node_len(node_len)
        .build()
        .unwrap();
    Gbz::from_pangenome(p).unwrap()
}

/// Forward-strand position of reference base `i` on a [`linear_gbz`].
fn linear_pos(i: usize, node_len: usize) -> GraphPos {
    GraphPos::new(Handle::forward(NodeId::new((i / node_len + 1) as u64)), (i % node_len) as u32)
}

/// The same base seen from the reverse strand.
fn flipped(gbz: &Gbz, pos: GraphPos) -> GraphPos {
    let last = gbz.graph().node_len(pos.handle.node()) as u32 - 1;
    GraphPos::new(pos.handle.flip(), last - pos.offset)
}

/// A mismatch `d` bases from the anchor, for every `d` from 0 to 40 — every
/// position of an eight-base step, five steps deep — in both walk
/// directions, on both strands, on one long node and across short ones.
/// With no budget the extension must end at the mismatch exactly; with a
/// budget and a gentle penalty it must cross it and count it.
#[test]
fn a_mismatch_at_every_distance_from_the_anchor_ends_or_joins_the_extension() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    let reference = random_bases(&mut rng, 120..121);
    for node_len in [200usize, 11, 8, 5, 1] {
        let gbz = linear_gbz(&reference, node_len);
        let mut pair = Pair::new(&gbz);
        for reverse in [false, true] {
            // The read is the reference (or its reverse complement); read
            // offset r sits on reference base r (or 119 - r, flipped).
            let clean =
                if reverse { reverse_complement(&reference) } else { reference.clone() };
            let pos_of = |r: usize| {
                if reverse {
                    flipped(&gbz, linear_pos(reference.len() - 1 - r, node_len))
                } else {
                    linear_pos(r, node_len)
                }
            };
            let anchor_at = 60usize;
            let anchor = Seed::new(anchor_at as u32, pos_of(anchor_at));
            for d in 1..=40usize {
                for rightward in [true, false] {
                    let at = if rightward { anchor_at + d } else { anchor_at - d };
                    let mut read = clean.clone();
                    read[at] = other_base(read[at]);
                    let what = format!("node_len {node_len} reverse {reverse} d {d} right {rightward}");

                    let strict = ExtendParams { max_mismatches: 0, ..Default::default() };
                    let ext = pair.extend(&read, anchor, &strict, &what).expect("anchor on the haplotype");
                    let want = if rightward { (0, at as u32) } else { (at as u32 + 1, 120) };
                    assert_eq!((ext.read_start, ext.read_end, ext.mismatches), (want.0, want.1, 0), "{what}");
                    assert_eq!(ext.score, (want.1 - want.0) as i32, "{what}");

                    let gentle = ExtendParams { max_mismatches: 1, mismatch_penalty: 1, ..Default::default() };
                    let ext = pair.extend(&read, anchor, &gentle, &what).expect("anchor on the haplotype");
                    assert_eq!((ext.read_start, ext.read_end, ext.mismatches), (0, 120, 1), "{what}");
                    assert_eq!(ext.score, 118, "{what}");
                    assert_eq!(ext.pos, pos_of(0), "{what}");
                }
            }
            // The anchor base itself mismatching is the rightward walk's
            // first base.
            let mut read = clean.clone();
            read[anchor_at] = other_base(read[anchor_at]);
            let strict = ExtendParams { max_mismatches: 0, ..Default::default() };
            let ext = pair.extend(&read, anchor, &strict, "anchor base").expect("left walk remains");
            assert_eq!((ext.read_start, ext.read_end), (0, anchor_at as u32));
        }
    }
}

/// Budgets 0..=4 against five mismatches packed inside one eight-base step:
/// the extension takes exactly as many as the budget allows and stops in
/// front of the next, wherever in the step that is — rightward and leftward.
#[test]
fn the_budget_runs_out_inside_a_step() {
    let mut rng = StdRng::seed_from_u64(0xB0D6);
    let reference = random_bases(&mut rng, 96..97);
    for node_len in [200usize, 7, 3] {
        let gbz = linear_gbz(&reference, node_len);
        let mut pair = Pair::new(&gbz);
        // Mismatches at walk distances 9, 10, 12, 14, 15 from the anchor: all
        // within the second eight-base step of either walk.
        let distances = [9usize, 10, 12, 14, 15];
        let anchor_at = 48usize;
        let anchor = Seed::new(anchor_at as u32, linear_pos(anchor_at, node_len));
        for rightward in [true, false] {
            let mut read = reference.clone();
            for &d in &distances {
                let at = if rightward { anchor_at + d } else { anchor_at - d };
                read[at] = other_base(read[at]);
            }
            for budget in 0u32..=4 {
                let params = ExtendParams {
                    max_mismatches: budget,
                    mismatch_penalty: 0,
                    ..Default::default()
                };
                let what = format!("node_len {node_len} right {rightward} budget {budget}");
                let ext = pair.extend(&read, anchor, &params, &what).expect("anchor on the haplotype");
                let stop = distances[budget as usize];
                if rightward {
                    assert_eq!((ext.read_start, ext.read_end), (0, (anchor_at + stop) as u32), "{what}");
                } else {
                    assert_eq!((ext.read_start, ext.read_end), ((anchor_at - stop) as u32 + 1, 96), "{what}");
                }
                assert_eq!(ext.mismatches, budget, "{what}");
            }
        }
    }
}

/// `N` and lowercase read bytes equal no node base — not even the node base
/// they would spell in upper case — at every position of a step, in both
/// directions.
#[test]
fn read_n_and_lowercase_bytes_mismatch_every_node_base() {
    let mut rng = StdRng::seed_from_u64(0x4E);
    let reference = random_bases(&mut rng, 80..81);
    for node_len in [200usize, 6] {
        let gbz = linear_gbz(&reference, node_len);
        let mut pair = Pair::new(&gbz);
        let anchor_at = 40usize;
        let anchor = Seed::new(anchor_at as u32, linear_pos(anchor_at, node_len));
        let strict = ExtendParams { max_mismatches: 0, ..Default::default() };
        for d in 1..=17usize {
            for at in [anchor_at + d, anchor_at - d] {
                for odd in [b'N', reference[at].to_ascii_lowercase(), b'n', 0u8, 0xFF] {
                    let mut read = reference.clone();
                    read[at] = odd;
                    let what = format!("node_len {node_len} at {at} byte {odd:#x}");
                    let ext = pair.extend(&read, anchor, &strict, &what).expect("anchor on the haplotype");
                    let want = if at > anchor_at { (0, at as u32) } else { (at as u32 + 1, 80) };
                    assert_eq!((ext.read_start, ext.read_end), want, "{what}");
                }
            }
        }
    }
}

/// Anchors on a node's first and last base against the read's first and
/// last base, for node lengths 1..=17 (every tail under eight, alone and
/// after one and two whole steps) and reads of 1..=20 bases, both strands.
#[test]
fn anchors_on_node_and_read_edges_for_every_small_length() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let reference = random_bases(&mut rng, 64..65);
    let params = [
        ExtendParams::default(),
        ExtendParams { max_mismatches: 1, mismatch_penalty: 1, ..Default::default() },
        ExtendParams { match_score: 0, ..Default::default() },
        ExtendParams { mismatch_penalty: 0, ..Default::default() },
    ];
    for node_len in 1usize..=17 {
        let gbz = linear_gbz(&reference, node_len);
        let graph = gbz.graph();
        let mut pair = Pair::new(&gbz);
        for read_len in 1usize..=20 {
            for start in [0usize, 7, 64 - read_len] {
                let mut fwd = reference[start..start + read_len].to_vec();
                if read_len > 4 {
                    fwd[read_len / 2] = other_base(fwd[read_len / 2]);
                }
                let rev = reverse_complement(&fwd);
                for node in 1..=graph.node_count() as u64 {
                    let last = graph.node_len(NodeId::new(node)) as u32 - 1;
                    for handle in [Handle::forward(NodeId::new(node)), Handle::reverse(NodeId::new(node))] {
                        for off in [0, last] {
                            for r in [0, read_len as u32 - 1] {
                                let seed = Seed::new(r, GraphPos::new(handle, off));
                                for p in &params {
                                    let what = format!("node_len {node_len} read_len {read_len}");
                                    pair.extend(&fwd, seed, p, &what);
                                    pair.extend(&rev, seed, p, &what);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Whole reads over a bubble-rich graph under extreme scores: a zero match
/// score, under which a run of matches leaves the best prefix on the
/// longest tie, and match scores above the mismatch penalty, under which a
/// walk takes every mismatch its budget allows. Crediting the matches
/// between two mismatches a run at a time must land where the per-base step
/// does.
#[test]
fn extreme_match_scores_agree_on_whole_reads() {
    for case_seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5C0 + case_seed);
        let (gbz, paths) = random_gbz(&mut rng);
        let mut pair = Pair::new(&gbz);
        let (mut read, truth) = read_from_path(&mut rng, &gbz, &paths[0]);
        let seeds: Vec<Seed> = (0..8)
            .map(|_| {
                let r = rng.random_range(0..read.len());
                Seed::new(r as u32, truth[r])
            })
            .collect();
        for _ in 0..3 {
            let r = rng.random_range(0..read.len());
            read[r] = other_base(read[r]);
        }
        for match_score in [0, 2, 5] {
            for mismatch_penalty in [0, 1, 4] {
                let params = ExtendParams { match_score, mismatch_penalty, ..Default::default() };
                let what = format!("case {case_seed}");
                for &seed in &seeds {
                    pair.extend(&read, seed, &params, &what);
                }
                pair.process(&read, &seeds, &params, &what);
            }
        }
    }
}
