//! Seed-dump images a hostile writer, not a damaged disk, produces: valid
//! framing and checksums around counts and lengths no payload of that size
//! could hold. Shared by `corrupt_inputs.rs`, which holds every reader to
//! `Error::Corrupt` on them, and `dump_decode.rs`, which holds the chunk
//! reader to the whole-dump decode on them.

use minigiraffe::support::mgi::{MgiWriter, TAG_DUMP_META, TAG_DUMP_READS};
use minigiraffe::support::varint;

/// A `.bin` image with valid framing and checksums around the given meta
/// values and reads payload.
pub fn resectioned_dump(meta: &[u64], payload: &[u8]) -> Vec<u8> {
    let mut writer = MgiWriter::new();
    writer.section(TAG_DUMP_META, varints(meta));
    writer.section(TAG_DUMP_READS, payload.to_vec());
    writer.finish()
}

pub fn varints(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in values {
        varint::write_u64(&mut out, v);
    }
    out
}

/// `(what, meta, reads payload)`: one count or length no payload of its
/// size could hold per case. An unbounded `Vec::with_capacity` on any of
/// them aborts the whole test process.
pub fn hostile_cases() -> Vec<(&'static str, Vec<u64>, Vec<u8>)> {
    let huge = 1u64 << 42;
    vec![
        ("read count", vec![0, huge], varints(&[0, 0])),
        ("read count past the payload", vec![0, 2], varints(&[0, 0, 0])),
        ("seed count", vec![0, 1], varints(&[0, huge])),
        ("seed count past the payload", vec![0, 1], varints(&[0, 2, 0, 4, 0, 0])),
        ("read length", vec![0, 1], varints(&[huge, 0])),
        ("read length past the payload", vec![0, 1], varints(&[3, 65, 0])),
        ("read offset", vec![0, 1], varints(&[0, 1, 1 << 32, 4, 0])),
        ("summed read offset", vec![0, 1], varints(&[0, 2, u64::from(u32::MAX), 4, 0, 1, 4, 0])),
        ("node offset", vec![0, 1], varints(&[0, 1, 0, 4, 1 << 32])),
    ]
}
