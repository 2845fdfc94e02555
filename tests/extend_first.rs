//! "Extend first": `Mapper::map_read_seeded` against the composition it may
//! short-cut — `cluster_seeds_with_scratch` with the read-length distance
//! limit, then `process_until_threshold_with_scratch` over its clusters.
//!
//! The mapper may walk the read's canonically first seed before clustering
//! and, when that walk is an exact full-length extension every seed lies on,
//! report it without clustering; when every seed lies on a walk that is not
//! the whole answer, it takes one cluster of all the seeds instead of
//! running `cluster_seeds` (DESIGN.md §4b). Whatever it does, the whole
//! `ReadResult` must equal the composition's, field for field; so must the
//! kernel's anchor accounting (walked, merged, skipped). And the
//! first walk is not paid for twice: the mapper performs exactly the
//! composition's `CachedGbwt` record lookups and pruned DFS frames — or, when
//! the composition never walks the first seed (its cluster is not the first
//! one processed, and an exact walk found before it may cover it), those
//! plus one walk of that seed.
//!
//! Inputs: random pangenomes (the generator `extend_once.rs` uses), reads
//! of every input-set profile, and hand-built geometry where a shortcut
//! would be tempted — two exact walks sharing anchors, a repeat with one
//! seed off the walk, an indel whose arms share a prefix, a substitution,
//! a trimmed end, the reverse strand, a node offset past its node — under
//! both comparison steps of the walk and the option settings under which
//! one cluster or one extension is not what the composition reports. The
//! one-cluster case must come up among the random and the input-set reads,
//! or the oracle would say nothing about it.

use minigiraffe::core::{
    build_minimizer_index, cluster_seeds_with_scratch, extend_seed_with_scratch,
    process_until_threshold_with_scratch, ClusterScratch, Extension, ExtendScratch, KernelStats,
    MapScratch, Mapper, MappingOptions, ReadResult, Seed, Workflow,
};
use minigiraffe::gbwt::{CachedGbwt, Gbz};
use minigiraffe::graph::dna::reverse_complement;
use minigiraffe::graph::pangenome::{PangenomeBuilder, Variant};
use minigiraffe::graph::{Handle, NodeId};
use minigiraffe::index::{GraphPos, MinimizerParams};
use minigiraffe::obs::{Ctr, Metrics};
use minigiraffe::parent::{Parent, ParentOptions};
use minigiraffe::support::probe::{CountingProbe, NoProbe};
use minigiraffe::workload::{InputSetSpec, SyntheticInput};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;

/// Random cases per run of the property.
const CASES: u32 = 1000;

/// Record lookups a cache has served (hits and decodes alike): one per
/// `record_with_probe` call, whatever the cache held.
fn lookups(cache: &CachedGbwt<'_>) -> u64 {
    let s = cache.stats();
    s.hits + s.misses
}

/// What the composition did with one read.
struct Reference {
    result: ReadResult,
    stats: KernelStats,
    /// Record lookups of its extension kernel.
    lookups: u64,
    /// Whether it certainly walked the canonically first seed: that seed is
    /// in the first cluster, and the first cluster is processed.
    walks_first: bool,
}

/// The composition: cluster the seeds, extend the clusters.
fn reference(mapper: &Mapper<'_>, read: &[u8], seeds: &[Seed], options: &MappingOptions) -> Reference {
    let graph = mapper.gbz().graph();
    let clusters = cluster_seeds_with_scratch(
        graph,
        mapper.distance_index(),
        seeds,
        read.len() as u32,
        &options.cluster,
        &mut NoProbe,
        &mut ClusterScratch::default(),
    );
    let mut cache = CachedGbwt::new(mapper.gbz().gbwt(), 64);
    let mut scratch = ExtendScratch::default();
    let extensions = process_until_threshold_with_scratch(
        graph,
        &mut cache,
        read,
        7,
        seeds,
        &clusters,
        &options.extend,
        &options.process,
        &mut NoProbe,
        &mut scratch,
    );
    let first = seeds.iter().min();
    let walks_first = options.process.max_clusters >= 1
        && clusters.first().is_some_and(|c| {
            // The kernel cuts a cluster scoring below `cutoff ×` the best.
            c.score.partial_cmp(&(c.score * options.process.cluster_score_cutoff))
                != Some(std::cmp::Ordering::Less)
                && c.seeds.iter().any(|&i| Some(&seeds[i]) == first)
        });
    Reference {
        result: ReadResult { read_id: 7, extensions },
        stats: scratch.take_stats(),
        lookups: lookups(&cache),
        walks_first,
    }
}

/// One walk of the canonically first seed alone: its record lookups and
/// pruned frames.
fn first_walk(mapper: &Mapper<'_>, read: &[u8], seeds: &[Seed], options: &MappingOptions) -> (u64, u64) {
    let Some(&first) = seeds.iter().min() else {
        return (0, 0);
    };
    let mut cache = CachedGbwt::new(mapper.gbz().gbwt(), 64);
    let mut scratch = ExtendScratch::default();
    let _ = extend_seed_with_scratch(
        mapper.gbz().graph(),
        &mut cache,
        read,
        7,
        first,
        &options.extend,
        &mut NoProbe,
        &mut scratch,
    );
    (lookups(&cache), scratch.take_stats().pruned_frames)
}

/// What the mapper's first walk decides for a read under the default
/// options, restated from DESIGN.md §4b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// The walk is exact, full-length, and every seed lies on it.
    Settles,
    /// Every seed lies on the walk, which is not the whole answer: one
    /// cluster of all the seeds, without `cluster_seeds`.
    OneCluster,
    /// The walk yields nothing or misses a seed.
    Cluster,
}

/// The walk of the canonically first seed, and what it decides: a seed lies
/// on it when its `(handle, read_offset − pos.offset)` is a node of the
/// walk's path with that node's diagonal, its node offset inside the node
/// and its read offset inside the read.
fn rule(mapper: &Mapper<'_>, read: &[u8], seeds: &[Seed]) -> (Rule, Option<Extension>) {
    let options = MappingOptions::default();
    let graph = mapper.gbz().graph();
    let Some(&first) = seeds.iter().min() else {
        return (Rule::Cluster, None);
    };
    let mut cache = CachedGbwt::new(mapper.gbz().gbwt(), 64);
    let walked = extend_seed_with_scratch(
        graph,
        &mut cache,
        read,
        7,
        first,
        &options.extend,
        &mut NoProbe,
        &mut ExtendScratch::default(),
    );
    let Some(ext) = walked else {
        return (Rule::Cluster, None);
    };
    let mut diagonal = i64::from(ext.read_start) - i64::from(ext.pos.offset);
    let mut nodes = Vec::new();
    for &h in &ext.path {
        nodes.push((h, diagonal));
        diagonal += graph.node_len(h.node()) as i64;
    }
    let on_walk = seeds.iter().all(|s| {
        nodes.contains(&(s.pos.handle, i64::from(s.read_offset) - i64::from(s.pos.offset)))
            && (s.pos.offset as usize) < graph.node_len(s.pos.handle.node())
            && (s.read_offset as usize) < read.len()
    });
    let exact = ext.mismatches == 0 && ext.read_start == 0 && ext.read_end as usize == read.len();
    let outcome = match (on_walk, exact && ext.score >= options.process.min_extension_score) {
        (true, true) => Rule::Settles,
        (true, false) => Rule::OneCluster,
        (false, _) => Rule::Cluster,
    };
    (outcome, Some(ext))
}

/// How [`check`] runs the mapper: its options, and whether under an active
/// probe — which takes the extension walk's per-base comparison step — or
/// under none, which takes the eight-base step.
#[derive(Debug, Clone)]
struct Config {
    options: MappingOptions,
    per_base: bool,
}

/// Maps one read through the mapper — on `scratch`, which the caller keeps
/// across reads as a worker does — and holds it to the composition.
fn check(
    mapper: &Mapper<'_>,
    scratch: &mut MapScratch,
    read: &[u8],
    seeds: &[Seed],
    config: &Config,
    what: &str,
) {
    let options = &config.options;
    let metrics = Metrics::new();
    let mut obs = metrics.shard();
    let mut cache = CachedGbwt::new(mapper.gbz().gbwt(), 64);
    let got = if config.per_base {
        let mut probe = CountingProbe::default();
        mapper.map_read_seeded(&mut cache, 7, read, seeds, options, &mut probe, scratch, &mut obs)
    } else {
        mapper.map_read_seeded(&mut cache, 7, read, seeds, options, &mut NoProbe, scratch, &mut obs)
    };
    let want = reference(mapper, read, seeds, options);
    let context = || {
        format!("{what}: read {:?} seeds {seeds:?} config {config:?}", String::from_utf8_lossy(read))
    };
    assert_eq!(got, want.result, "{}", context());
    let rep = obs.report();
    assert_eq!(
        [
            rep.counter(Ctr::ExtendAnchorsWalked),
            rep.counter(Ctr::ExtendAnchorsMerged),
            rep.counter(Ctr::ExtendAnchorsSkipped),
        ],
        [want.stats.anchors_walked, want.stats.anchors_merged, want.stats.anchors_skipped],
        "anchor accounting, {}",
        context()
    );
    let extra = (
        lookups(&cache) as i64 - want.lookups as i64,
        rep.counter(Ctr::ExtendPrunedFrames) as i64 - want.stats.pruned_frames as i64,
    );
    let (walk_lookups, walk_pruned) = first_walk(mapper, read, seeds, options);
    let one_walk = (walk_lookups as i64, walk_pruned as i64);
    assert!(
        extra == (0, 0) || (!want.walks_first && extra == one_walk),
        "work beyond the composition: {extra:?}, one walk of the first seed is {one_walk:?}; {}",
        context()
    );
}

/// The default options under both comparison steps.
fn both_walks() -> Vec<Config> {
    [true, false]
        .into_iter()
        .map(|per_base| Config { options: MappingOptions::default(), per_base })
        .collect()
}

/// Settings under which the composition does not simply report the one
/// exact extension: no cluster or no extension is kept, the one cluster
/// falls below its own cutoff, the exact extension scores under the floor —
/// plus the scoring extremes (free mismatches; matches worth more than a
/// mismatch costs, with no floor; no match score), a tight branch budget
/// and no mismatch budget.
fn guards() -> Vec<MappingOptions> {
    let edit = |f: &dyn Fn(&mut MappingOptions)| {
        let mut options = MappingOptions::default();
        f(&mut options);
        options
    };
    vec![
        edit(&|o| o.process.max_clusters = 0),
        edit(&|o| o.process.max_extensions_per_read = 0),
        edit(&|o| o.extend.mismatch_penalty = 0),
        edit(&|o| {
            o.extend.match_score = 5;
            o.process.min_extension_score = -1000;
        }),
        edit(&|o| {
            o.extend.match_score = 0;
            o.process.min_extension_score = 0;
        }),
        edit(&|o| o.process.cluster_score_cutoff = 1.5),
        edit(&|o| o.process.min_extension_score = 1000),
        edit(&|o| o.extend.max_branch_steps = 3),
        edit(&|o| o.extend.max_mismatches = 0),
    ]
}

fn every_configuration() -> Vec<Config> {
    let mut all = both_walks();
    all.extend(guards().into_iter().map(|options| Config { options, per_base: false }));
    all
}

fn check_random_case(case_seed: u64) {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let (gbz, read, seeds) = common::random_read(&mut rng);
    let mapper = Mapper::new(&gbz);
    let mut scratch = MapScratch::default();
    for config in every_configuration() {
        check(&mapper, &mut scratch, &read, &seeds, &config, &format!("case {case_seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn mapper_equals_cluster_then_extend_on_random_pangenomes(case_seed in 0u64..1_000_000) {
        check_random_case(case_seed);
    }
}

/// Two exact full-length walks that share anchors (`extend_once.rs`'s
/// pinned cases): an anchor on the shared nodes yields one of them and lies
/// on both, so the walk of the *rarest* seed, or of any other than the
/// canonically first, would settle these reads differently.
#[test]
fn two_exact_walks_sharing_anchors() {
    for case_seed in [546_951, 367_046] {
        check_random_case(case_seed);
    }
}

/// Every base of haplotype `hap` with the graph position it sits on.
fn haplotype_bases(p: &minigiraffe::graph::Pangenome, hap: usize) -> Vec<(u8, GraphPos)> {
    let mut out = Vec::new();
    for &h in &p.paths()[hap].handles {
        for (off, &b) in p.graph().oriented_sequence(h).iter().enumerate() {
            out.push((b, GraphPos::new(h, off as u32)));
        }
    }
    out
}

/// A 60-base unit written twice, `gap` unique bases apart: an error-free
/// read from the first copy, every fourth base anchored where it came from,
/// and one more anchor on the second copy — at the read's first offset (the
/// canonically first seed is then off the walk or on it, by position) or in
/// its middle. Far apart the stray anchor is a cluster of its own, close by
/// it joins the read's.
#[test]
fn read_in_a_repeat_with_one_seed_off_the_walk() {
    let unit = b"ACGTTGCAAGCTTAGGCATCGATTACGGATCCTAGCAATGCCATGACTGATCGTAGCTAG";
    for gap in [20usize, 400] {
        let mut reference = b"TTGACCAGTA".to_vec();
        reference.extend_from_slice(unit);
        reference.extend((0..gap).map(|i| b"CAGT"[(i * 7 + i / 3) % 4]));
        reference.extend_from_slice(unit);
        reference.extend_from_slice(b"GATTACAGGC");
        let p = PangenomeBuilder::new(reference)
            .variants(vec![Variant::snp(5, b'G')])
            .haplotypes(vec![vec![0], vec![1]])
            .max_node_len(16)
            .build()
            .unwrap();
        let bases = haplotype_bases(&p, 0);
        let copy2 = 10 + unit.len() + gap;
        let gbz = Gbz::from_pangenome(p).unwrap();
        let mapper = Mapper::new(&gbz);
        let mut scratch = MapScratch::default();
        let (start, len) = (14, 40);
        let read: Vec<u8> = bases[start..start + len].iter().map(|&(b, _)| b).collect();
        let on_walk: Vec<Seed> =
            (0..len).step_by(4).map(|r| Seed::new(r as u32, bases[start + r].1)).collect();
        for stray_offset in [0usize, 17] {
            let stray = Seed::new(stray_offset as u32, bases[copy2 + 4 + stray_offset].1);
            let mut seeds = on_walk.clone();
            seeds.push(stray);
            seeds.reverse();
            assert_eq!(rule(&mapper, &read, &seeds).0, Rule::Cluster, "gap {gap}, stray at {stray_offset}");
            for config in every_configuration() {
                let what = format!("gap {gap}, stray anchor at read offset {stray_offset}");
                check(&mapper, &mut scratch, &read, &seeds, &config, &what);
            }
        }
        // The same read with its anchors all on the walk.
        assert_eq!(rule(&mapper, &read, &on_walk).0, Rule::Settles);
        for config in every_configuration() {
            check(&mapper, &mut scratch, &read, &on_walk, &config, &format!("gap {gap}, on the walk"));
        }
    }
}

/// `extend_once.rs`'s regression geometry: a SNP, sixty shared bases, then
/// a 6-base deletion whose far side begins with the deleted stretch's first
/// four bases. An error-free read of the first haplotype from two bases
/// before the SNP to three into the deleted stretch: anchors on the shared
/// bases walk onto the deletion arm and stop at the SNP; only anchors left
/// of the SNP find the exact alignment. Anchored at every base, from the
/// third base on (the first walk is then not exact), and by minimizers.
#[test]
fn read_spanning_an_indel_whose_arms_share_a_prefix() {
    let reference = b"CATCAATCGGCATTTGCGACGCTCAGTATCCAAGATTGCCGGATCGGTGATGGTACGATCTCTTGCACGTTCC\
        AATGGCACGCGTACCGGCCAAGAATCGCAGTGCTAGTGTAAACATACTGGAGCCATGAGTATACGCGCGGCGACACTC";
    let p = PangenomeBuilder::new(reference.to_vec())
        .variants(vec![Variant::snp(40, b'T'), Variant::deletion(101, 6)])
        .haplotypes(vec![vec![0, 0], vec![1, 1]])
        .max_node_len(32)
        .build()
        .unwrap();
    let bases = haplotype_bases(&p, 0);
    let gbz = Gbz::from_pangenome(p).unwrap();
    let mapper = Mapper::new(&gbz);
    let mut scratch = MapScratch::default();
    let read = reference[38..104].to_vec();
    let everywhere: Vec<Seed> = (0..read.len()).map(|r| Seed::new(r as u32, bases[38 + r].1)).collect();
    let index = build_minimizer_index(&gbz, MinimizerParams::default()).unwrap();
    let parent = Parent::new(&gbz, &index, Workflow::Single);
    let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
    let (captured, ..) =
        parent.map_read_full(&mut cache, 0, &read, &ParentOptions::default(), &mut NoProbe);
    for (what, seeds) in [
        ("every base", everywhere.clone()),
        ("from the third base", everywhere[3..].to_vec()),
        ("minimizers", captured.seeds),
    ] {
        for config in every_configuration() {
            check(&mapper, &mut scratch, &read, &seeds, &config, what);
        }
    }
}

/// Reads of every input-set profile, seeded as the parent seeds them (the
/// proxy's dump), through one scratch per set; some of them take the
/// one-cluster path.
#[test]
fn reads_of_every_input_set() {
    let mut specs = vec![InputSetSpec::tiny_for_tests()];
    specs.extend(InputSetSpec::all());
    let (mut one_cluster, mut total) = (0, 0);
    for spec in specs {
        let spec = spec.scaled(0.02);
        let input = SyntheticInput::generate(&spec, 11);
        let mapper = Mapper::new(&input.gbz);
        let mut scratch = MapScratch::default();
        let reads = input.dump.reads.iter().take(40);
        for (i, r) in reads.enumerate() {
            let configurations = if i % 8 == 0 { every_configuration() } else { both_walks() };
            for config in configurations {
                check(&mapper, &mut scratch, &r.bases, &r.seeds, &config, &format!("{} read {i}", spec.name));
            }
            one_cluster += usize::from(rule(&mapper, &r.bases, &r.seeds).0 == Rule::OneCluster);
            total += 1;
        }
    }
    assert!(one_cluster > 0, "no read of {total} takes the one-cluster path");
}

/// Random reads the first walk leaves on the one-cluster path, held to the
/// composition under both comparison steps: the path must come up, or the
/// proptest's oracle says nothing about it.
#[test]
fn one_cluster_comes_up_among_random_reads() {
    let cases = 300;
    let mut one_cluster = 0;
    for case_seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let (gbz, read, seeds) = common::random_read(&mut rng);
        let mapper = Mapper::new(&gbz);
        if rule(&mapper, &read, &seeds).0 == Rule::OneCluster {
            one_cluster += 1;
            let mut scratch = MapScratch::default();
            for config in both_walks() {
                check(&mapper, &mut scratch, &read, &seeds, &config, &format!("case {case_seed}"));
            }
        }
    }
    assert!(one_cluster > 0, "no case of {cases} takes the one-cluster path");
}

/// Reads the mapper cannot settle from one walk, next to ones it can, on
/// one scratch: nothing remembered from one read reaches the next.
#[test]
fn remembered_walk_never_leaks_into_the_next_read() {
    let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTTACGTACGTAACCGGTT".to_vec())
        .variants(vec![Variant::snp(6, b'T'), Variant::deletion(20, 2)])
        .haplotypes(vec![vec![0, 0], vec![1, 0], vec![0, 1]])
        .max_node_len(5)
        .build()
        .unwrap();
    let bases = haplotype_bases(&p, 0);
    let gbz = Gbz::from_pangenome(p).unwrap();
    let mapper = Mapper::new(&gbz);
    let mut scratch = MapScratch::default();
    let exact: Vec<u8> = bases[2..18].iter().map(|&(b, _)| b).collect();
    let mut mismatched = exact.clone();
    mismatched[9] = if mismatched[9] == b'A' { b'C' } else { b'A' };
    let seed = Seed::new(0, bases[2].1);
    let off_walk = Seed::new(3, GraphPos::new(Handle::forward(NodeId::new(1)), 0));
    for config in both_walks() {
        // Same first seed on different bases, alternating fast path and
        // fall-through in both orders.
        for (read, seeds) in [
            (&mismatched, vec![seed]),
            (&exact, vec![seed]),
            (&exact, vec![seed, off_walk]),
            (&mismatched, vec![seed]),
            (&exact, vec![seed, off_walk]),
            (&exact, vec![seed]),
        ] {
            check(&mapper, &mut scratch, read, &seeds, &config, "alternating reads");
        }
    }
}

/// One 40-base node and a read of its bases 8..38: an anchor on the read's
/// diagonal whose read offset is past the read's end. It lies on the exact
/// walk by `(node, diagonal)`, but no walk starts from it and rule 1 does not
/// merge it (nothing of the read lies between it and the first anchor's
/// run), so the composition counts it as skipped, not merged.
#[test]
fn anchor_past_the_read_end_on_its_walk() {
    let reference = b"ACGTTGCAAGCTTAGGCATCGATTACGGATCCTAGCAATG".to_vec();
    let p = PangenomeBuilder::new(reference.clone())
        .haplotypes(vec![vec![]])
        .max_node_len(64)
        .build()
        .unwrap();
    let gbz = Gbz::from_pangenome(p).unwrap();
    let mapper = Mapper::new(&gbz);
    let mut scratch = MapScratch::default();
    let node = Handle::forward(NodeId::new(1));
    let seeds = vec![Seed::new(1, GraphPos::new(node, 9)), Seed::new(31, GraphPos::new(node, 39))];
    for config in every_configuration() {
        check(&mapper, &mut scratch, &reference[8..38], &seeds, &config, "anchor past the read");
    }
}

/// A 96-base reference in 8-base nodes, one haplotype, and its bases with
/// their graph positions: node `k` holds reference bases `8(k−1)..8k`.
fn linear_in_short_nodes() -> (Gbz, Vec<(u8, GraphPos)>) {
    let reference = b"GATCCTAGCAATGCCATGACTGATCGTAGCTAGTTGACCAGTAACGTTGCAAGCTTAGG\
        CATCGATTACGGATCCTTCAGGACTTGCAGTCAAGT";
    let p = PangenomeBuilder::new(reference.to_vec())
        .haplotypes(vec![vec![]])
        .max_node_len(8)
        .build()
        .unwrap();
    let bases = haplotype_bases(&p, 0);
    (Gbz::from_pangenome(p).unwrap(), bases)
}

/// Replaces read base `i` with the next letter of `ACGT`.
fn substitute(read: &mut [u8], i: usize) {
    read[i] = match read[i] {
        b'A' => b'C',
        b'C' => b'G',
        b'G' => b'T',
        _ => b'A',
    };
}

/// Reference bases 4..44 with one substitution at read offset 21, anchored
/// at every fourth base where it came from: the first walk crosses the
/// substitution and every anchor lies on it, so the read takes the
/// one-cluster path. With one more anchor on node 1's diagonal but at the
/// node offset just past its end, that anchor is not on the walk and the
/// read is clustered.
#[test]
fn one_substitution_with_every_seed_on_the_walk() {
    let (gbz, bases) = linear_in_short_nodes();
    let mapper = Mapper::new(&gbz);
    let mut scratch = MapScratch::default();
    let mut read: Vec<u8> = bases[4..44].iter().map(|&(b, _)| b).collect();
    substitute(&mut read, 21);
    let seeds: Vec<Seed> = (0..40).step_by(4).map(|r| Seed::new(r as u32, bases[4 + r].1)).collect();
    let (outcome, walk) = rule(&mapper, &read, &seeds);
    assert_eq!(outcome, Rule::OneCluster);
    assert_eq!(walk.map(|e| (e.read_start, e.read_end, e.mismatches)), Some((0, 40, 1)));
    for config in every_configuration() {
        check(&mapper, &mut scratch, &read, &seeds, &config, "one substitution");
    }
    let mut past = seeds.clone();
    past.push(Seed::new(4, GraphPos::new(Handle::forward(NodeId::new(1)), 8)));
    assert_eq!(rule(&mapper, &read, &past).0, Rule::Cluster);
    for config in every_configuration() {
        check(&mapper, &mut scratch, &read, &past, &config, "node offset 8 on an 8-base node");
    }
}

/// Reference bases 4..43 with a substitution at the second-last read
/// offset: the walk trims the last two bases, and an anchor on the last
/// one lies on the walk's last node past the extension's end. It is on the
/// walk all the same.
#[test]
fn a_seed_past_the_trimmed_end_on_the_walks_last_node() {
    let (gbz, bases) = linear_in_short_nodes();
    let mapper = Mapper::new(&gbz);
    let mut scratch = MapScratch::default();
    let mut read: Vec<u8> = bases[4..43].iter().map(|&(b, _)| b).collect();
    substitute(&mut read, 37);
    let mut seeds: Vec<Seed> = (0..39).step_by(4).map(|r| Seed::new(r as u32, bases[4 + r].1)).collect();
    seeds.push(Seed::new(38, bases[42].1));
    let (outcome, walk) = rule(&mapper, &read, &seeds);
    assert_eq!(outcome, Rule::OneCluster);
    let walk = walk.unwrap();
    assert_eq!((walk.read_start, walk.read_end), (0, 37));
    assert_eq!(walk.path.last(), Some(&bases[42].1.handle));
    for config in every_configuration() {
        check(&mapper, &mut scratch, &read, &seeds, &config, "seed past the trimmed end");
    }
}

/// The reverse complement of reference bases 4..44 with a substitution at
/// read offset 15, anchored at every fourth base on the reverse strand.
#[test]
fn a_reverse_strand_read_with_every_seed_on_the_walk() {
    let (gbz, bases) = linear_in_short_nodes();
    let mapper = Mapper::new(&gbz);
    let mut scratch = MapScratch::default();
    let graph = gbz.graph();
    let forward: Vec<u8> = bases[4..44].iter().map(|&(b, _)| b).collect();
    let mut read = reverse_complement(&forward);
    substitute(&mut read, 15);
    let seeds: Vec<Seed> = (0..40)
        .step_by(4)
        .map(|r| {
            let p = bases[43 - r].1;
            let last = graph.node_len(p.handle.node()) as u32 - 1;
            Seed::new(r as u32, GraphPos::new(p.handle.flip(), last - p.offset))
        })
        .collect();
    assert!(seeds.iter().all(|s| s.pos.handle.orientation().is_reverse()));
    let (outcome, walk) = rule(&mapper, &read, &seeds);
    assert_eq!(outcome, Rule::OneCluster);
    assert_eq!(walk.map(|e| (e.read_start, e.read_end, e.mismatches)), Some((0, 40, 1)));
    for config in every_configuration() {
        check(&mapper, &mut scratch, &read, &seeds, &config, "reverse strand");
    }
}
