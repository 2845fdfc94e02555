//! Property suite for every on-disk reader: `.mgz` (pangenome), `.mgi`
//! (index bundle), and `.bin` (seed dump) — three section sets in
//! the one checksummed `.mgi` container.
//!
//! These files cross a trust boundary — they arrive from disks, object
//! stores, and other machines — so the decoding contract is absolute:
//! any corruption (truncation, bit flips, oversized length fields,
//! trailing garbage, raw noise) must come back as a typed
//! [`mg_support::Error`], never a panic and never an allocation sized by
//! attacker-controlled counts. Every file is checksummed end to end, so
//! the contract is stronger still: *every* single-bit flip is detected.

use std::sync::OnceLock;

use minigiraffe::core::dump::{DumpReader, SeedDump};
use minigiraffe::core::types::{ReadInput, Seed, Workflow};
use minigiraffe::core::{Mapper, MappingOptions, MgiBundle};
use minigiraffe::gbwt::Gbz;
use minigiraffe::graph::{Handle, NodeId};
use minigiraffe::index::{DistanceIndex, GraphPos};
use minigiraffe::obs::Metrics;
use minigiraffe::parent::{run_to_gaf, Parent, ParentOptions};
use minigiraffe::support::mgi::{
    checksum, MgiFile, MgiWriter, BLOCK_LEN, TAG_CHAIN_STARTS, TAG_DIST_NODES, TAG_MIN_ENTRIES,
};
use minigiraffe::support::regions::NullSink;
use minigiraffe::support::Error;
use minigiraffe::workload::{InputSetSpec, SyntheticInput};
use proptest::prelude::*;

#[path = "common/hostile_dumps.rs"]
mod hostile_dumps;
use hostile_dumps::{hostile_cases, resectioned_dump, varints};

fn sample_input() -> &'static SyntheticInput {
    static INPUT: OnceLock<SyntheticInput> = OnceLock::new();
    INPUT.get_or_init(|| SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 17))
}

fn mgz_image() -> &'static [u8] {
    static IMG: OnceLock<Vec<u8>> = OnceLock::new();
    IMG.get_or_init(|| sample_input().gbz.to_bytes().unwrap())
}

fn mgi_image() -> &'static [u8] {
    static IMG: OnceLock<Vec<u8>> = OnceLock::new();
    IMG.get_or_init(|| {
        let input = sample_input();
        MgiBundle::from_parts(
            input.gbz.clone(),
            input.minimizer_index.clone(),
            DistanceIndex::build(input.gbz.graph()),
        )
        .to_bytes()
    })
}

/// Feeds `bytes` to each decoder. Returns whether each accepted the input;
/// a panic anywhere fails the property.
fn decode_mgz(bytes: &[u8]) -> bool {
    Gbz::from_bytes(bytes).is_ok()
}

fn decode_mgi(bytes: Vec<u8>) -> bool {
    MgiBundle::open_bytes(bytes).is_ok()
}

/// The index `frac` of the way into `0..len`.
fn at(len: usize, frac: f64) -> usize {
    ((len as f64 * frac) as usize).min(len - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Truncation at any point is rejected by every format (length fields
    /// and section tables make a strict prefix structurally incomplete).
    #[test]
    fn truncations_are_rejected(frac in 0.0f64..1.0) {
        prop_assert!(!decode_mgz(&mgz_image()[..at(mgz_image().len(), frac)]));
        prop_assert!(!decode_mgi(mgi_image()[..at(mgi_image().len(), frac)].to_vec()));
    }

    /// A single flipped bit never panics any decoder, and the checksummed
    /// container always detects it, in a `.mgz` as in an `.mgi`.
    #[test]
    fn single_bit_flips_never_panic_and_mgi_detects_them(
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = mgz_image().to_vec();
        let idx = at(bytes.len(), byte_frac);
        bytes[idx] ^= 1 << bit;
        prop_assert!(!decode_mgz(&bytes), "mgz accepted a bit flip at byte {idx} bit {bit}");

        let mut bytes = mgi_image().to_vec();
        let idx = at(bytes.len(), byte_frac);
        bytes[idx] ^= 1 << bit;
        prop_assert!(!decode_mgi(bytes), "mgi accepted a bit flip at byte {idx} bit {bit}");
    }

    /// Stamping a huge length into one section-table entry must be
    /// rejected without the decoder allocating anywhere near that much —
    /// the suite itself would die on an allocation abort — both as stamped
    /// (the table checksum catches it) and with the table checksum
    /// recomputed over the stamped table, as a hostile writer would.
    #[test]
    fn oversized_length_fields_do_not_allocate(
        entry_frac in 0.0f64..1.0,
        huge in (1u64 << 40)..(1u64 << 62),
    ) {
        let (stamped, resummed) = stamp_section_length(mgz_image(), entry_frac, huge);
        prop_assert!(!decode_mgz(&stamped));
        prop_assert!(!decode_mgz(&resummed));
        let (stamped, resummed) = stamp_section_length(mgi_image(), entry_frac, huge);
        prop_assert!(!decode_mgi(stamped));
        prop_assert!(!decode_mgi(resummed));
    }

    /// Appending trailing garbage is detected everywhere: the container
    /// preamble records the exact file length.
    #[test]
    fn trailing_garbage_is_rejected(
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        prop_assert!(!decode_mgz(&[mgz_image(), &garbage].concat()));
        prop_assert!(!decode_mgi([mgi_image(), &garbage].concat()));
    }

    /// Raw noise is never a valid file and never a panic.
    #[test]
    fn random_noise_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(!decode_mgz(&bytes));
        prop_assert!(!decode_mgi(bytes));
    }
}

/// `image` with the length field of the section-table entry `frac` of the
/// way through the table set to `huge`: as stamped, and with the table
/// checksum in the preamble recomputed.
fn stamp_section_length(image: &[u8], frac: f64, huge: u64) -> (Vec<u8>, Vec<u8>) {
    // Preamble: the section count is the u32 at byte 24, the table
    // checksum the u64 at byte 40; the table starts at byte 48 with one
    // 32-byte entry per section, whose length is the u64 at byte 16.
    let count = u32::from_le_bytes(image[24..28].try_into().unwrap()) as usize;
    let mut stamped = image.to_vec();
    let len_at = 48 + 32 * at(count, frac) + 16;
    stamped[len_at..len_at + 8].copy_from_slice(&huge.to_le_bytes());
    let mut resummed = stamped.clone();
    let table_sum = checksum(&resummed[48..48 + 32 * count]);
    resummed[40..48].copy_from_slice(&table_sum.to_le_bytes());
    (stamped, resummed)
}

/// A small seed dump: an empty read, a read without seeds, and seeds whose
/// fields span one to three varint bytes.
fn small_dump() -> SeedDump {
    let seed = |read_offset, node, offset| {
        Seed::new(read_offset, GraphPos::new(Handle::forward(NodeId::new(node)), offset))
    };
    SeedDump::new(
        Workflow::Paired,
        vec![
            ReadInput { bases: Vec::new(), seeds: Vec::new() },
            ReadInput { bases: b"ACGTACGT".to_vec(), seeds: Vec::new() },
            ReadInput {
                bases: b"GATTACA".to_vec(),
                seeds: vec![seed(0, 1, 0), seed(3, 70_000, 200), seed(300, 9, 5)],
            },
            ReadInput { bases: b"N".to_vec(), seeds: vec![seed(0, 2, 1)] },
        ],
    )
}

#[test]
fn seed_dump_truncated_at_every_byte_is_rejected() {
    let image = small_dump().to_bytes().unwrap();
    assert_eq!(SeedDump::from_bytes(&image).unwrap(), small_dump());
    for cut in 0..image.len() {
        assert!(SeedDump::from_bytes(&image[..cut]).is_err(), "accepted a {cut}-byte prefix");
    }
}

#[test]
fn seed_dump_detects_every_single_bit_flip() {
    let image = small_dump().to_bytes().unwrap();
    for idx in 0..image.len() {
        for bit in 0..8 {
            let mut bytes = image.clone();
            bytes[idx] ^= 1 << bit;
            assert!(
                SeedDump::from_bytes(&bytes).is_err(),
                "accepted a flip at byte {idx} bit {bit}"
            );
        }
    }
}

#[test]
fn seed_dump_rejects_trailing_garbage() {
    let image = small_dump().to_bytes().unwrap();
    for garbage in [&[0u8][..], &[0xFF; 3], &image[..20]] {
        let mut bytes = image.clone();
        bytes.extend_from_slice(garbage);
        assert!(SeedDump::from_bytes(&bytes).is_err(), "accepted {} trailing bytes", garbage.len());
    }
}

#[test]
fn seed_dump_hostile_counts_are_corrupt_not_allocations() {
    // Every image below passes the container's checksums; each count or
    // length is one no payload of that size could hold.
    let one_seed = [0u64, 4, 0];
    for (what, meta, payload) in hostile_cases() {
        let image = resectioned_dump(&meta, &payload);
        let err = SeedDump::from_bytes(&image).expect_err(what);
        assert!(matches!(err, Error::Corrupt(_)), "{what}: {err:?}");
        // The file reader goes through the same checks.
        let path = std::env::temp_dir().join(format!("mg-hostile-{}.bin", std::process::id()));
        std::fs::write(&path, &image).unwrap();
        let err = SeedDump::load(&path).expect_err(what);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, Error::Corrupt(_)), "{what} via load: {err:?}");
    }
    // The same framing around honest values decodes.
    let mut payload = varints(&[0, 1]);
    payload.extend(varints(&one_seed));
    let honest = SeedDump::from_bytes(&resectioned_dump(&[0, 1], &payload)).unwrap();
    assert_eq!(honest.reads.len(), 1);
    assert_eq!(honest.total_seeds(), 1);
}

/// The sample pangenome's `.mgi` at k = 5, w = 2: short enough k-mers that
/// many repeat, so the table holds multi-hit runs beside single hits.
fn short_kmer_mgi_image() -> &'static [u8] {
    static IMG: OnceLock<Vec<u8>> = OnceLock::new();
    IMG.get_or_init(|| {
        let params = minigiraffe::index::MinimizerParams::new(5, 2);
        MgiBundle::build(sample_input().gbz.clone(), params).unwrap().to_bytes()
    })
}

/// `image` with section `tag`'s payload passed through `edit` and every
/// section re-checksummed, so the container accepts the image and only the
/// index readers can object to it.
fn resectioned_mgi(image: &[u8], tag: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut f = MgiFile::open_bytes(image.to_vec()).unwrap();
    let mut w = MgiWriter::new();
    let mut edit = Some(edit);
    for t in f.tags().collect::<Vec<_>>() {
        let mut payload = f.section(t).unwrap();
        if t == tag {
            (edit.take().unwrap())(&mut payload);
        }
        w.section(t, payload);
    }
    assert!(edit.is_none(), "section {tag:#x} missing from the sample");
    w.finish()
}

/// Overwrites the little-endian `u32` at byte `at` of 32-byte record `r`.
fn set_u32(payload: &mut [u8], r: usize, at: usize, value: u32) {
    payload[32 * r + at..32 * r + at + 4].copy_from_slice(&value.to_le_bytes());
}

fn get_u32(payload: &[u8], r: usize, at: usize) -> u32 {
    u32::from_le_bytes(payload[32 * r + at..32 * r + at + 4].try_into().unwrap())
}

/// The two sections of packed 32-byte records — the distance index's node
/// records and the minimizer table's k-mer entries — truncated, re-strided,
/// and with each checked field out of range: every one is `Err`.
#[test]
fn packed_record_sections_reject_truncation_wrong_stride_and_out_of_range_fields() {
    let short = short_kmer_mgi_image();
    assert!(decode_mgi(resectioned_mgi(short, TAG_DIST_NODES, |_| {})), "an unedited copy opens");
    for tag in [TAG_DIST_NODES, TAG_MIN_ENTRIES] {
        type Edit = dyn Fn(&mut Vec<u8>);
        let cases: [(&str, &Edit); 5] = [
            ("one record short", &|p| p.truncate(p.len() - 32)),
            ("one byte short", &|p| p.truncate(p.len() - 1)),
            ("emptied", &|p| p.clear()),
            ("24-byte stride", &|p| {
                *p = p.chunks_exact(32).flat_map(|r| r[..24].to_vec()).collect()
            }),
            ("48-byte stride", &|p| {
                *p = p.chunks_exact(32).flat_map(|r| [r, &[0; 16]].concat()).collect()
            }),
        ];
        for (name, edit) in cases {
            assert!(!decode_mgi(resectioned_mgi(short, tag, edit)), "{tag:#x} {name}: accepted");
        }
    }

    // Node records: component, offset, len, chain, entry, exit, d_in,
    // d_out, eight u32s. Node 1 is the source anchor of the tiny
    // pangenome's one chain.
    let anchors = {
        let mut f = MgiFile::open_bytes(short.to_vec()).unwrap();
        let starts = f.section(TAG_CHAIN_STARTS).unwrap();
        u64::from_le_bytes(starts[starts.len() - 8..].try_into().unwrap()) as u32
    };
    let node_cases: [(&str, usize, u32); 7] = [
        ("component out of range", 0, u32::MAX - 1),
        ("length disagrees with the graph", 8, 1),
        ("chain out of range", 12, 7),
        ("anchor without a chain", 12, u32::MAX),
        ("entry past the anchors", 16, anchors),
        ("exit past the anchors", 20, anchors),
        ("exit far out", 20, u32::MAX - 1),
    ];
    for (name, at, value) in node_cases {
        let image = resectioned_mgi(short, TAG_DIST_NODES, |p| {
            assert_ne!(get_u32(p, 0, 12), u32::MAX, "node 1 sits on a chain");
            let value = if at == 8 { get_u32(p, 0, 8) + value } else { value };
            set_u32(p, 0, at, value);
        });
        assert!(!decode_mgi(image), "node record {name}: accepted");
    }

    // K-mer entries: k-mer u64, handle u64, offset, padding, start and
    // count, edited on the first single-hit or multi-hit entry.
    let entry_cases: [(&str, bool, usize, u32); 4] = [
        ("count zero", false, 28, 0),
        ("single hit with a run start", false, 24, 3),
        ("run start far out", true, 24, u32::MAX),
        ("run count past the arena", true, 28, u32::MAX),
    ];
    for (name, run, at, value) in entry_cases {
        let image = resectioned_mgi(short, TAG_MIN_ENTRIES, |p| {
            let r = (0..p.len() / 32).find(|&r| (get_u32(p, r, 28) > 1) == run).unwrap();
            set_u32(p, r, at, value);
        });
        assert!(!decode_mgi(image), "k-mer entry {name}: accepted");
    }
    let image =
        resectioned_mgi(short, TAG_MIN_ENTRIES, |p| p[8..16].copy_from_slice(&0u64.to_le_bytes()));
    assert!(!decode_mgi(image), "k-mer entry on the endmarker: accepted");
}

/// The GBWT meta section is five `u64`s: sequence count, path count,
/// direction word, alphabet size, total visits. A meta that describes any
/// index but a bidirectional one of twice as many sequences as paths —
/// direction word 0, or word 1 with one sequence per path — is `Corrupt`
/// from a `.mgz` and from an `.mgi`, re-checksummed so only the GBWT
/// reader can object to it.
#[test]
fn gbwt_meta_of_a_one_way_index_is_corrupt() {
    use minigiraffe::support::mgi::TAG_GBWT_META;
    fn word(p: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(p[8 * i..8 * i + 8].try_into().unwrap())
    }
    type Edit = dyn Fn(&mut Vec<u8>);
    let cases: [(&str, &Edit); 2] = [
        ("direction word 0", &|p| {
            p[16..24].copy_from_slice(&0u64.to_le_bytes())
        }),
        ("one sequence per path", &|p| {
            assert_eq!(
                (word(p, 0), word(p, 2)),
                (2 * word(p, 1), 1),
                "the sample is bidirectional"
            );
            let paths = p[8..16].to_vec();
            p[..8].copy_from_slice(&paths);
        }),
    ];
    assert!(Gbz::from_bytes(&resectioned_mgi(mgz_image(), TAG_GBWT_META, |_| {})).is_ok());
    assert!(decode_mgi(resectioned_mgi(mgi_image(), TAG_GBWT_META, |_| {})));
    for (name, edit) in cases {
        let mgz = Gbz::from_bytes(&resectioned_mgi(mgz_image(), TAG_GBWT_META, edit));
        assert!(matches!(mgz, Err(Error::Corrupt(_))), ".mgz with {name}: {:?}", mgz.err());
        let mgi = MgiBundle::open_bytes(resectioned_mgi(mgi_image(), TAG_GBWT_META, edit));
        assert!(matches!(mgi, Err(Error::Corrupt(_))), ".mgi with {name}: {:?}", mgi.err());
    }
}

/// A loaded `.mgz` and `.mgi` own their bytes: truncating both index files
/// on disk afterwards changes nothing the mapper reads, and the GAF mapped
/// from them after the truncation equals the GAF from before it. (A
/// memory-mapped container would fault on its next read instead; this
/// test died with SIGBUS while containers were `mmap`ed.) A `.bin` seed
/// dump is not loaded whole but read through the run; its rule is the next
/// test's.
#[test]
fn files_truncated_after_open_leave_the_loaded_indexes_intact() {
    let input = sample_input();
    let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
    let dir = std::env::temp_dir().join(format!("mg-truncated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mgz_path = dir.join("graph.mgz");
    let mgi_path = dir.join("graph.mgi");
    std::fs::write(&mgz_path, mgz_image()).unwrap();
    std::fs::write(&mgi_path, mgi_image()).unwrap();
    let gbz = Gbz::load(&mgz_path).unwrap();
    let bundle = MgiBundle::open(&mgi_path).unwrap();

    // Fresh parents each time, so the second pass decodes every GBWT
    // record it needs again, from the loaded bytes.
    let gaf = || {
        let from_mgz = Parent::new(&gbz, &input.minimizer_index, input.spec.workflow);
        let from_mgi = Parent::with_distance(
            bundle.gbz(),
            bundle.minimizer(),
            bundle.distance().clone(),
            input.spec.workflow,
        );
        let options = ParentOptions::default();
        (
            run_to_gaf(gbz.graph(), &from_mgz.run(&reads, &options), "mgz"),
            run_to_gaf(bundle.gbz().graph(), &from_mgi.run(&reads, &options), "mgi"),
        )
    };
    let before = gaf();
    assert!(!before.0.is_empty() && !before.1.is_empty(), "the parent mapped nothing");
    for path in [&mgz_path, &mgi_path] {
        std::fs::OpenOptions::new().write(true).open(path).unwrap().set_len(0).unwrap();
    }
    assert_eq!(gaf(), before, "GAF changed after the files were truncated on disk");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A seed dump is read a block at a time through the run and summed again
/// as it is, so a `.bin` cut short or rewritten on disk after
/// `DumpReader` opened it fails the run, after the reads before the fault
/// were mapped, as a malformed read does: it is never decoded silently.
/// Cut short, the block that is gone is an `Io` error; rewritten, the read
/// of the last block finds the second sum off.
#[test]
fn dumps_changed_on_disk_after_open_fail_the_run() {
    let input = sample_input();
    // Several blocks of the sample's reads, with one 200-base read of `N`
    // whose bases can be rewritten without making any read malformed.
    let mut reads: Vec<ReadInput> = input.dump.reads.iter().cycle().take(3000).cloned().collect();
    reads[1500] = ReadInput { bases: vec![b'N'; 200], seeds: Vec::new() };
    let total = reads.len() as u64;
    let image = SeedDump::new(input.dump.workflow, reads).to_bytes().unwrap();
    assert!(image.len() > 4 * BLOCK_LEN, "{} bytes is too few blocks", image.len());
    let base = image.windows(200).position(|w| w.iter().all(|&b| b == b'N')).unwrap() + 100;
    let path = std::env::temp_dir().join(format!("mg-changed-{}.bin", std::process::id()));
    let options = MappingOptions { batch_size: 64, ..Default::default() };
    let mapper = Mapper::new(&input.gbz);
    for what in ["cut short", "rewritten"] {
        std::fs::write(&path, &image).unwrap();
        let mut reader = DumpReader::open(&path).unwrap();
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        if what == "cut short" {
            file.set_len(image.len() as u64 / 2).unwrap();
        } else {
            use std::io::{Seek, SeekFrom, Write};
            file.seek(SeekFrom::Start(base as u64)).unwrap();
            file.write_all(b"A").unwrap();
        }
        let mut mapped = 0;
        let run = mapper.run_dump(&mut reader, &options, &NullSink, Metrics::off_ref(), |chunk| {
            mapped += chunk.len() as u64;
            Ok(())
        });
        match (what, run) {
            ("cut short", Err(Error::Io(_) | Error::Corrupt(_))) => {}
            ("rewritten", Err(Error::ChecksumMismatch { .. })) => {}
            (_, run) => panic!("dump {what} after open: {run:?}"),
        }
        assert!(0 < mapped && mapped < total, "dump {what}: mapped {mapped} of {total} reads");
    }
    std::fs::remove_file(&path).unwrap();
}
