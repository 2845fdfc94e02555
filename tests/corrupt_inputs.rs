//! Property suite for every on-disk reader: `.mgz` (pangenome container),
//! `.mgi` (zero-copy index bundle), and `.bin` (seed dump).
//!
//! These files cross a trust boundary — they arrive from disks, object
//! stores, and other machines — so the decoding contract is absolute:
//! any corruption (truncation, bit flips, oversized length fields,
//! trailing garbage, raw noise) must come back as a typed
//! [`mg_support::Error`], never a panic and never an allocation sized by
//! attacker-controlled counts. For the checksummed `.mgi` format the
//! contract is stronger: *every* single-bit flip must be detected.

use std::sync::OnceLock;

use minigiraffe::core::dump::{SeedDump, DUMP_KIND, TAG_META, TAG_READS};
use minigiraffe::core::types::{ReadInput, Seed, Workflow};
use minigiraffe::core::MgiBundle;
use minigiraffe::gbwt::Gbz;
use minigiraffe::graph::{Handle, NodeId};
use minigiraffe::index::{DistanceIndex, GraphPos};
use minigiraffe::support::container::ContainerWriter;
use minigiraffe::support::{varint, Error};
use minigiraffe::workload::{InputSetSpec, SyntheticInput};
use proptest::prelude::*;

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
    /// `.mgi` always detects it.
    #[test]
    fn single_bit_flips_never_panic_and_mgi_detects_them(
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = mgz_image().to_vec();
        let idx = at(bytes.len(), byte_frac);
        bytes[idx] ^= 1 << bit;
        let _ = decode_mgz(&bytes);

        let mut bytes = mgi_image().to_vec();
        let idx = at(bytes.len(), byte_frac);
        bytes[idx] ^= 1 << bit;
        prop_assert!(!decode_mgi(bytes), "mgi accepted a bit flip at byte {idx} bit {bit}");
    }

    /// Stamping a huge little-endian length/count over any 8 aligned bytes
    /// must be rejected (or survive harmlessly) without the decoder
    /// allocating anywhere near that much — the suite itself would die on
    /// an allocation abort.
    #[test]
    fn oversized_length_fields_do_not_allocate(
        word_frac in 0.0f64..1.0,
        huge in (1u64 << 40)..(1u64 << 62),
    ) {
        let stamp = |image: &[u8]| {
            let mut bytes = image.to_vec();
            let w = at(bytes.len() / 8, word_frac);
            bytes[w * 8..w * 8 + 8].copy_from_slice(&huge.to_le_bytes());
            bytes
        };
        let _ = decode_mgz(&stamp(mgz_image()));
        prop_assert!(!decode_mgi(stamp(mgi_image())));
    }

    /// Appending trailing garbage is detected everywhere: `.mgz` checks the
    /// end-of-container marker is final, and the `.mgi` preamble records
    /// the exact file length.
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
        let _ = decode_mgz(&bytes);
        prop_assert!(!decode_mgi(bytes));
    }
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

/// A `.bin` image with valid framing and checksums around the given meta
/// and read payloads: what a hostile writer, not a damaged disk, produces.
fn resectioned_dump(meta: &[u64], payload: &[u8]) -> Vec<u8> {
    let mut image = Vec::new();
    let mut writer = ContainerWriter::new(&mut image, DUMP_KIND).unwrap();
    writer.section(TAG_META, &varints(meta)).unwrap();
    writer.section(TAG_READS, payload).unwrap();
    writer.finish().unwrap();
    image
}

fn varints(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in values {
        varint::write_u64(&mut out, v);
    }
    out
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
    // length is one no payload of that size could hold. An unbounded
    // `Vec::with_capacity` on any of them aborts the whole test process.
    let huge = 1u64 << 42;
    let one_seed = [0u64, 4, 0];
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("read count", resectioned_dump(&[0, huge], &varints(&[0, 0]))),
        ("read count past the payload", resectioned_dump(&[0, 2], &varints(&[0, 0, 0]))),
        ("seed count", resectioned_dump(&[0, 1], &varints(&[0, huge]))),
        ("seed count past the payload", resectioned_dump(&[0, 1], &varints(&[0, 2, 0, 4, 0, 0]))),
        ("read length", resectioned_dump(&[0, 1], &varints(&[huge, 0]))),
        ("read length past the payload", resectioned_dump(&[0, 1], &varints(&[3, 65, 0]))),
        ("read offset", resectioned_dump(&[0, 1], &varints(&[0, 1, 1 << 32, 4, 0]))),
        (
            "summed read offset",
            resectioned_dump(&[0, 1], &varints(&[0, 2, u64::from(u32::MAX), 4, 0, 1, 4, 0])),
        ),
        ("node offset", resectioned_dump(&[0, 1], &varints(&[0, 1, 0, 4, 1 << 32]))),
    ];
    for (what, image) in cases {
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
