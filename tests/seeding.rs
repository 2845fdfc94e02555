//! Seeding oracle: minimizer extraction against a naive per-window
//! reference, and the k-mer table against an independently built map —
//! through both ways an index comes to exist (built, and `.mgi` reopened
//! from a real file).
//!
//! Both references are deliberately slow and obvious: the extraction one
//! re-packs and re-hashes every k-mer of every window, the table one keeps
//! a `BTreeMap` and a per-base position array. They state what seeding
//! *means*; the production code only has to agree with them.

use std::collections::{BTreeMap, BTreeSet};

use minigiraffe::graph::pangenome::{Pangenome, PangenomeBuilder};
use minigiraffe::graph::{dna, Handle};
use minigiraffe::index::minimizer::hash_kmer;
use minigiraffe::index::{
    extract_minimizers, extract_minimizers_into, GraphPos, Minimizer, MinimizerIndex,
    MinimizerParams, MinimizerScratch,
};
use minigiraffe::support::mgi::{
    put_u32, put_u64, put_u64_slice, MgiFile, MgiWriter, TAG_MIN_ENTRIES, TAG_MIN_META,
    TAG_MIN_POSITIONS,
};
use minigiraffe::workload::genome::{random_genome, random_panel, random_variants};
use minigiraffe::workload::genome::{GenomeParams, VariantParams};
use minigiraffe::workload::reads::simulate_single;
use minigiraffe::workload::ReadSimParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// (a) Extraction
// ---------------------------------------------------------------------------

/// The packed k-mer starting at `i`, or `None` if it spans a non-ACGT byte.
fn kmer_at(seq: &[u8], i: usize, k: usize) -> Option<u64> {
    seq[i..i + k].iter().try_fold(0u64, |acc, &b| {
        Some((acc << 2) | dna::encode_base_checked(b)? as u64)
    })
}

/// The minimizer scheme as it actually behaves, one window at a time.
///
/// A window is the `w` consecutive k-mers ending at k-mer `end`. It reports
/// only if its *last* k-mer is valid, and then reports the valid k-mer with
/// the smallest `(hash, offset)` — invalid k-mers earlier in the window are
/// skipped, not disqualifying. Consecutive windows naming the same offset
/// report it once.
fn reference_minimizers(seq: &[u8], params: MinimizerParams) -> Vec<Minimizer> {
    let (k, w) = (params.k, params.w);
    let mut out: Vec<Minimizer> = Vec::new();
    if seq.len() < k {
        return out;
    }
    let n_kmers = seq.len() + 1 - k;
    for end in (w - 1)..n_kmers {
        if kmer_at(seq, end, k).is_none() {
            continue;
        }
        let (_, offset, kmer) = (end + 1 - w..=end)
            .filter_map(|i| kmer_at(seq, i, k).map(|kmer| (hash_kmer(kmer), i, kmer)))
            .min()
            .expect("the window's last k-mer is valid");
        if out.last().map(|m| m.offset as usize) != Some(offset) {
            out.push(Minimizer {
                kmer,
                offset: offset as u32,
            });
        }
    }
    out
}

/// A read of `len` bytes: uniform ACGT, or a low-complexity alphabet (so
/// identical k-mers tie on hash and leftmost-wins is exercised), with runs
/// of non-ACGT bytes dropped on top.
fn noisy_read(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let alphabet: &[u8] = match rng.random_range(0..6u32) {
        0 => b"A",
        1 => b"AC",
        2 => b"AAAT",
        _ => b"ACGT",
    };
    let mut seq: Vec<u8> = (0..len)
        .map(|_| alphabet[rng.random_range(0..alphabet.len())])
        .collect();
    for _ in 0..rng.random_range(0..4u32) {
        if len == 0 {
            break;
        }
        let at = rng.random_range(0..len);
        let run = rng.random_range(1..=6usize).min(len - at);
        let junk = b"NNNNna-"[rng.random_range(0..7usize)];
        seq[at..at + run].fill(junk);
    }
    seq
}

#[test]
fn extraction_equals_naive_reference_with_gaps() {
    let mut rng = StdRng::seed_from_u64(0x5EED_51A6);
    let mut scratch = MinimizerScratch::default();
    let mut out = Vec::new();
    let mut windows_with_gap_that_reported = 0usize;
    for (k, w) in [(29, 11), (15, 5), (5, 3), (31, 1)] {
        let params = MinimizerParams::new(k, w);
        for len in 0..k + w + 40 {
            for _ in 0..12 {
                let seq = noisy_read(&mut rng, len);
                let expect = reference_minimizers(&seq, params);
                // One scratch across every length and parameter set: stale
                // buffer contents must never leak into a later read.
                extract_minimizers_into(&seq, params, &mut scratch, &mut out);
                assert_eq!(
                    out,
                    expect,
                    "k={k} w={w} seq={:?}",
                    String::from_utf8_lossy(&seq)
                );
                assert_eq!(extract_minimizers(&seq, params), expect);
                if seq.iter().any(|&b| !dna::is_base(b)) && !expect.is_empty() {
                    windows_with_gap_that_reported += 1;
                }
            }
        }
    }
    assert!(
        windows_with_gap_that_reported > 500,
        "the generator must actually exercise gapped reads"
    );
}

#[test]
fn window_with_a_gap_reports_the_minimum_of_its_valid_kmers() {
    // k=3 w=3: k-mers 2, 3 and 4 span the N. The window ending at k-mer 5
    // holds k-mers 3..=5, of which only 5 is valid — and it is reported.
    let ms = extract_minimizers(b"ACGTNACGT", MinimizerParams::new(3, 3));
    assert_eq!(
        ms,
        reference_minimizers(b"ACGTNACGT", MinimizerParams::new(3, 3))
    );
    assert!(ms.iter().any(|m| m.offset == 5), "{ms:?}");
    // A window whose last k-mer is invalid reports nothing, even though it
    // holds valid k-mers: k=3 w=2 over ACGN has windows {0,1}; k-mer 1 is
    // invalid, so k-mer 0 is never reported.
    assert!(extract_minimizers(b"ACGN", MinimizerParams::new(3, 2)).is_empty());
}

// ---------------------------------------------------------------------------
// (b), (c) The k-mer table
// ---------------------------------------------------------------------------

/// The table an index over `p` must hold, built the slow way: spell every
/// path in both orientations, remember each base's graph position, and file
/// every reference minimizer under its k-mer.
fn reference_table(p: &Pangenome, params: MinimizerParams) -> BTreeMap<u64, BTreeSet<GraphPos>> {
    let mut table: BTreeMap<u64, BTreeSet<GraphPos>> = BTreeMap::new();
    for path in p.paths() {
        let flipped: Vec<Handle> = path.handles.iter().rev().map(|h| h.flip()).collect();
        for walk in [&path.handles, &flipped] {
            let mut seq = Vec::new();
            let mut pos_of_base = Vec::new();
            for &h in walk {
                for (off, &b) in p.graph().sequence(h).iter().enumerate() {
                    seq.push(b);
                    pos_of_base.push(GraphPos::new(h, off as u32));
                }
            }
            for m in reference_minimizers(&seq, params) {
                table
                    .entry(m.kmer)
                    .or_default()
                    .insert(pos_of_base[m.offset as usize]);
            }
        }
    }
    table
}

/// The same index two ways: as built, and reopened from a `.mgi` file on
/// disk.
fn two_ways(built: MinimizerIndex, tag: &str) -> [MinimizerIndex; 2] {
    let dir = std::env::temp_dir().join(format!("mg-seeding-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.mgi");
    let mut w = MgiWriter::new();
    built.write_mgi(&mut w);
    w.write_to(&path).unwrap();
    let loaded = MinimizerIndex::from_mgi(&mut MgiFile::open(&path).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    [built, loaded]
}

/// Every lookup a table can be asked, checked against the reference on
/// both indexes: each indexed k-mer, its absent `±1` neighbours, the
/// smallest and largest k-mer of the scheme, and values wider than 2k bits.
fn assert_table_matches(
    indexes: &[MinimizerIndex; 2],
    expect: &BTreeMap<u64, BTreeSet<GraphPos>>,
    tag: &str,
) {
    let k = indexes[0].params().k;
    let all_ones = (1u64 << (2 * k)) - 1;
    let mut probes: BTreeSet<u64> = [
        0,
        1,
        all_ones,
        all_ones - 1,
        all_ones + 1,
        u64::MAX,
        1 << 63,
    ]
    .into_iter()
    .collect();
    for &kmer in expect.keys() {
        probes.extend([kmer, kmer.wrapping_sub(1), kmer + 1]);
    }
    let total: usize = expect.values().map(|s| s.len()).sum();
    for (way, index) in ["built", "loaded"].iter().zip(indexes) {
        assert_eq!(index.distinct_kmers(), expect.len(), "{tag}/{way}");
        assert_eq!(index.total_positions(), total, "{tag}/{way}");
        let listed: BTreeSet<u64> = index.kmers().collect();
        assert!(
            listed.iter().eq(expect.keys()),
            "{tag}/{way}: kmers() differs"
        );
        for &kmer in &probes {
            let want: Option<Vec<GraphPos>> =
                expect.get(&kmer).map(|s| s.iter().copied().collect());
            assert_eq!(
                index.positions(kmer).map(|ps| ps.collect::<Vec<_>>()),
                want,
                "{tag}/{way}: positions({kmer:#x})"
            );
        }
        assert_eq!(index, &indexes[0], "{tag}/{way}: PartialEq against built");
    }
}

fn pangenome(genome: Vec<u8>, haplotypes: usize, seed: u64, max_node_len: usize) -> Pangenome {
    let variants = random_variants(
        &genome,
        &VariantParams {
            mean_spacing: 120,
            ..Default::default()
        },
        seed,
    );
    let panel = random_panel(haplotypes, &variants, seed);
    PangenomeBuilder::new(genome)
        .variants(variants)
        .haplotypes(panel)
        .max_node_len(max_node_len)
        .build()
        .unwrap()
}

fn build(p: &Pangenome, params: MinimizerParams) -> MinimizerIndex {
    MinimizerIndex::build(
        p.graph(),
        p.paths().iter().map(|h| h.handles.as_slice()),
        params,
    )
}

#[test]
fn built_and_mapped_tables_answer_identically() {
    let genome = random_genome(
        &GenomeParams {
            len: 6_000,
            repeat_fraction: 0.1,
            repeat_len: 150,
        },
        7,
    );
    let p = pangenome(genome, 4, 7, 24);
    let params = MinimizerParams::new(15, 5);
    let expect = reference_table(&p, params);
    assert!(expect.len() > 1_000);
    let indexes = two_ways(build(&p, params), "tables");
    assert_table_matches(&indexes, &expect, "tables");

    // Whole-read seeding: 2 000 simulated reads (errors and Ns included),
    // at a cap that filters and one that does not.
    let haps: Vec<Vec<u8>> = p.paths().iter().map(|h| h.sequence(p.graph())).collect();
    let sim = ReadSimParams {
        read_len: 100,
        error_rate: 0.02,
        n_rate: 0.01,
        ..Default::default()
    };
    let mut scratch = MinimizerScratch::default();
    let mut hits = Vec::new();
    let mut seeded = 0usize;
    for read in simulate_single(&haps, 2_000, &sim, 99) {
        for cap in [2, 1_000] {
            let want: Vec<(u32, GraphPos)> = reference_minimizers(&read.bases, params)
                .iter()
                .filter_map(|m| Some((m.offset, expect.get(&m.kmer)?)))
                .filter(|(_, ps)| ps.len() <= cap)
                .flat_map(|(off, ps)| ps.iter().map(move |&pos| (off, pos)))
                .collect();
            for index in &indexes {
                assert_eq!(index.query(&read.bases, cap), want);
                index.query_into(&read.bases, cap, &mut scratch, &mut hits);
                assert_eq!(hits, want);
            }
            seeded += want.len();
        }
    }
    assert!(seeded > 20_000, "simulated reads must seed: {seeded}");
}

#[test]
fn skewed_prefixes_share_one_bucket_and_still_resolve() {
    // 300 units of AAAAAAAAAA + 30 random bases, w = 1 so every k-mer is
    // indexed: each unit contributes several distinct k-mers that all begin
    // with eight As, i.e. share their top 16 bits — more than any directory
    // sized to this table can tell apart.
    let mut rng = StdRng::seed_from_u64(0xA11A);
    let mut genome = Vec::new();
    for _ in 0..300 {
        genome.extend_from_slice(b"AAAAAAAAAA");
        genome.extend((0..30).map(|_| b"ACGT"[rng.random_range(0..4usize)]));
    }
    let p = pangenome(genome, 2, 3, 16);
    let params = MinimizerParams::new(15, 1);
    let expect = reference_table(&p, params);
    assert!(expect.len() < 1 << 16, "table must stay below 2^16 k-mers");
    let poly_a = expect
        .keys()
        .filter(|&&kmer| kmer >> (2 * (15 - 8)) == 0)
        .count();
    assert!(
        poly_a >= 300,
        "only {poly_a} k-mers share the poly-A prefix"
    );
    let indexes = two_ways(build(&p, params), "skew");
    assert_table_matches(&indexes, &expect, "skew");
}

#[test]
fn tiny_k_tables_where_the_directory_is_as_wide_as_the_kmer() {
    // k = 5: at most 1024 k-mers exist, and with w = 1 over 4 kb nearly all
    // of them are indexed, so a directory with one bucket per indexed k-mer
    // needs all 10 bits of the k-mer. k = 1 and k = 2 push the same edge
    // further (2 and 4 bits).
    let genome = random_genome(
        &GenomeParams {
            len: 4_000,
            repeat_fraction: 0.0,
            repeat_len: 50,
        },
        5,
    );
    let p = pangenome(genome, 3, 5, 12);
    for (k, w) in [(5, 1), (5, 3), (2, 2), (1, 1)] {
        let params = MinimizerParams::new(k, w);
        let expect = reference_table(&p, params);
        if (k, w) == (5, 1) {
            assert!(
                expect.len() > 512,
                "k=5 w=1 must index more than half of all 5-mers"
            );
        }
        let tag = format!("k{k}w{w}");
        let indexes = two_ways(build(&p, params), &tag);
        assert_table_matches(&indexes, &expect, &tag);
    }
}

#[test]
fn empty_and_single_kmer_tables() {
    // A reference shorter than k indexes nothing; one exactly k long
    // indexes one k-mer per strand.
    for (reference, distinct) in [(&b"ACGTA"[..], 0usize), (&b"ACGTACG"[..], 2)] {
        let p = PangenomeBuilder::new(reference.to_vec())
            .haplotypes(vec![vec![]])
            .build()
            .unwrap();
        let params = MinimizerParams::new(7, 1);
        let expect = reference_table(&p, params);
        assert_eq!(expect.len(), distinct);
        let tag = format!("n{distinct}");
        let indexes = two_ways(build(&p, params), &tag);
        assert_table_matches(&indexes, &expect, &tag);
    }
}

#[test]
fn kmers_at_one_at_the_cap_and_one_past_the_cap() {
    // Three 15-base motifs planted in a random background: once, `cap`
    // times and `cap + 1` times. With w = 1 every k-mer is indexed, so the
    // motifs' own k-mers hold exactly 1, `cap` and `cap + 1` positions per
    // strand: the single hit, the largest run the repeat filter keeps, and
    // the smallest it drops.
    const CAP: usize = 4;
    let mut rng = StdRng::seed_from_u64(0xCA9);
    let mut random = |n: usize| -> Vec<u8> {
        (0..n).map(|_| b"ACGT"[rng.random_range(0..4usize)]).collect()
    };
    let motifs: Vec<(Vec<u8>, usize)> = [1, CAP, CAP + 1].iter().map(|&c| (random(15), c)).collect();
    let mut genome = random(40);
    for (motif, copies) in &motifs {
        for _ in 0..*copies {
            genome.extend_from_slice(motif);
            genome.extend(random(40));
        }
    }
    let p = PangenomeBuilder::new(genome).haplotypes(vec![vec![]]).build().unwrap();
    let params = MinimizerParams::new(15, 1);
    let expect = reference_table(&p, params);
    let indexes = two_ways(build(&p, params), "cap");
    assert_table_matches(&indexes, &expect, "cap");

    let pack = |seq: &[u8]| kmer_at(seq, 0, 15).unwrap();
    for (motif, copies) in &motifs {
        let kept = *copies <= CAP;
        for kmer in [pack(motif), pack(&dna::reverse_complement(motif))] {
            assert_eq!(expect[&kmer].len(), *copies, "planted motif collided");
            for index in &indexes {
                assert_eq!(index.positions(kmer).map(Iterator::count), Some(*copies));
            }
        }
        // A read that is the motif alone seeds on it exactly when the run
        // fits under the cap, on either strand.
        for read in [motif.clone(), dna::reverse_complement(motif)] {
            let want: Vec<(u32, GraphPos)> = if kept {
                expect[&pack(&read)].iter().map(|&pos| (0, pos)).collect()
            } else {
                Vec::new()
            };
            for index in &indexes {
                assert_eq!(index.query(&read, CAP), want, "{copies} copies at cap {CAP}");
                assert_eq!(index.query(&read, CAP + 1).len(), *copies);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (d) Corrupt containers that reach the index reader
// ---------------------------------------------------------------------------

/// One 32-byte k-mer entry as stored: k-mer, first position (handle,
/// offset, zero padding), run start, count.
#[derive(Debug, Clone, Copy)]
struct Entry {
    kmer: u64,
    handle: u64,
    offset: u32,
    start: u32,
    count: u32,
}

/// The three minimizer sections of a small valid index, as raw payloads.
struct Sections {
    meta: [u64; 4],
    entries: Vec<Entry>,
    positions: Vec<u8>,
}

impl Sections {
    fn of(index: &MinimizerIndex) -> Sections {
        let mut w = MgiWriter::new();
        index.write_mgi(&mut w);
        let mut f = MgiFile::open_bytes(w.finish()).unwrap();
        let word = |c: &[u8], at: usize| u64::from_le_bytes(c[at..at + 8].try_into().unwrap());
        let half = |c: &[u8], at: usize| u32::from_le_bytes(c[at..at + 4].try_into().unwrap());
        let meta = f.section(TAG_MIN_META).unwrap();
        Sections {
            meta: std::array::from_fn(|i| word(&meta, 8 * i)),
            entries: f
                .section(TAG_MIN_ENTRIES)
                .unwrap()
                .chunks_exact(32)
                .map(|c| {
                    assert_eq!(half(c, 20), 0, "padding is written as zeros");
                    Entry {
                        kmer: word(c, 0),
                        handle: word(c, 8),
                        offset: half(c, 16),
                        start: half(c, 24),
                        count: half(c, 28),
                    }
                })
                .collect(),
            positions: f.section(TAG_MIN_POSITIONS).unwrap(),
        }
    }

    /// Re-sections the payloads with fresh checksums, so the container
    /// layer accepts the image and the index reader alone must judge it.
    fn open(&self) -> minigiraffe::support::Result<MinimizerIndex> {
        let mut w = MgiWriter::new();
        let mut meta = Vec::new();
        put_u64_slice(&mut meta, &self.meta);
        w.section(TAG_MIN_META, meta);
        let mut bytes = Vec::new();
        for e in &self.entries {
            put_u64(&mut bytes, e.kmer);
            put_u64(&mut bytes, e.handle);
            for half in [e.offset, 0, e.start, e.count] {
                put_u32(&mut bytes, half);
            }
        }
        w.section(TAG_MIN_ENTRIES, bytes);
        w.section(TAG_MIN_POSITIONS, self.positions.clone());
        MinimizerIndex::from_mgi(&mut MgiFile::open_bytes(w.finish())?)
    }

    /// Index of the first entry with one position, and of the first and
    /// last with more.
    fn single(&self) -> usize {
        self.entries.iter().position(|e| e.count == 1).unwrap()
    }
    fn first_run(&self) -> usize {
        self.entries.iter().position(|e| e.count > 1).unwrap()
    }
    fn last_run(&self) -> usize {
        self.entries.iter().rposition(|e| e.count > 1).unwrap()
    }
}

#[test]
fn structurally_corrupt_minimizer_sections_are_rejected_not_indexed() {
    let genome = random_genome(
        &GenomeParams {
            len: 1_500,
            repeat_fraction: 0.0,
            repeat_len: 50,
        },
        13,
    );
    let p = pangenome(genome, 2, 13, 16);
    let index = build(&p, MinimizerParams::new(7, 3));
    let n = index.distinct_kmers();
    assert!(n > 100);
    let valid = Sections::of(&index);
    assert_eq!(valid.open().unwrap(), index);
    assert!(valid.entries.iter().any(|e| e.count == 1) && valid.entries.iter().any(|e| e.count > 1));

    let corrupt = |name: &str, edit: &dyn Fn(&mut Sections)| {
        let mut s = Sections::of(&index);
        edit(&mut s);
        assert!(s.open().is_err(), "{name}: accepted");
    };
    // K-mers wider than 2k bits fall outside any directory over the top
    // bits of a 2k-bit value: first, middle, last, and all of them.
    corrupt("wide last k-mer", &|s| {
        s.entries.last_mut().unwrap().kmer = 1 << 14
    });
    corrupt("widest last k-mer", &|s| {
        s.entries.last_mut().unwrap().kmer = u64::MAX
    });
    corrupt("wide middle k-mer", &|s| s.entries[n / 2].kmer = u64::MAX - 1);
    corrupt("all k-mers wide", &|s| {
        for (i, e) in s.entries.iter_mut().enumerate() {
            e.kmer = (1 << 40) + i as u64;
        }
    });
    // Order and count.
    corrupt("swapped k-mers", &|s| {
        let (a, b) = (s.entries[3].kmer, s.entries[4].kmer);
        (s.entries[3].kmer, s.entries[4].kmer) = (b, a);
    });
    corrupt("duplicate k-mer", &|s| s.entries[10].kmer = s.entries[9].kmer);
    corrupt("entry section short", &|s| {
        s.entries.pop();
    });
    corrupt("entry section long", &|s| {
        let mut extra = s.entries[s.single()];
        extra.kmer = (1 << 14) - 1;
        s.entries.push(extra);
    });
    corrupt("meta count too large", &|s| s.meta[2] += 1);
    corrupt("meta count huge", &|s| s.meta[2] = 1 << 40);
    corrupt("meta count zero", &|s| s.meta[2] = 0);
    corrupt("entry section empty", &|s| s.entries.clear());
    // Parameters the directory's shift is derived from.
    corrupt("k = 0", &|s| s.meta[0] = 0);
    corrupt("k = 32", &|s| s.meta[0] = 32);
    corrupt("k = 2^32", &|s| s.meta[0] = 1 << 32);
    corrupt("k too small for the k-mers", &|s| s.meta[0] = 3);
    // Counts, inline positions, and the runs behind them.
    corrupt("count zero", &|s| {
        let i = s.single();
        s.entries[i].count = 0;
    });
    corrupt("single hit names a run", &|s| {
        let i = s.single();
        s.entries[i].start = 1;
    });
    corrupt("inline endmarker", &|s| {
        let i = s.single();
        s.entries[i].handle = 1;
    });
    corrupt("run start off the tiling", &|s| {
        let i = s.first_run();
        s.entries[i].start += 1;
    });
    corrupt("run start huge", &|s| {
        let i = s.last_run();
        s.entries[i].start = u32::MAX;
    });
    corrupt("run past arena", &|s| {
        let i = s.last_run();
        s.entries[i].count += 1;
    });
    corrupt("first position repeated in the rest of its run", &|s| {
        let i = s.first_run();
        let at = s.entries[i].start as usize * 16;
        let stored = &s.positions[at..at + 16];
        s.entries[i].handle = u64::from_le_bytes(stored[..8].try_into().unwrap());
        s.entries[i].offset = u32::from_le_bytes(stored[8..12].try_into().unwrap());
    });
    corrupt("run demoted to a single hit", &|s| {
        let i = s.last_run();
        s.entries[i].count = 1;
        s.entries[i].start = 0;
    });
    corrupt("arena short", &|s| {
        s.positions.truncate(s.positions.len() - 16)
    });
    corrupt("arena long", &|s| s.positions.extend_from_within(..16));
    corrupt("arena ragged", &|s| {
        s.positions.truncate(s.positions.len() - 3)
    });
    corrupt("meta total wrong", &|s| s.meta[3] -= 1);

    // And no strict prefix of a valid image opens.
    let mut w = MgiWriter::new();
    index.write_mgi(&mut w);
    let image = w.finish();
    for cut in (0..image.len()).step_by(image.len() / 97 + 1) {
        let opened =
            MgiFile::open_bytes(image[..cut].to_vec()).and_then(|mut f| MinimizerIndex::from_mgi(&mut f));
        assert!(opened.is_err(), "prefix of {cut} bytes accepted");
    }
}

#[test]
fn crafted_mgi_with_repeated_or_wide_kmers_is_rejected() {
    // A hand-written image: k = 7, w = 3, each k-mer one position.
    let crafted = |kmers: &[u64]| {
        let n = kmers.len() as u64;
        let handle = Handle::forward(minigiraffe::graph::NodeId::new(1)).packed();
        Sections {
            meta: [7, 3, n, n],
            entries: kmers
                .iter()
                .map(|&kmer| Entry { kmer, handle, offset: 0, start: 0, count: 1 })
                .collect(),
            positions: Vec::new(),
        }
        .open()
    };
    assert!(crafted(&[5, 6, 15]).is_ok());
    assert!(crafted(&[0, 1]).is_ok(), "k-mer 0 is AAAAAAA");
    assert!(crafted(&[5, 5]).is_err(), "repeated k-mer");
    assert!(crafted(&[1 << 14]).is_err(), "k-mer wider than 2k bits");
}
