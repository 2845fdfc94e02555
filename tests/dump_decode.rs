//! Decode oracle for the seed-dump (`.bin`) reader and the varint decoder
//! under it: the production reader against a naive byte-at-a-time reference
//! on dumps whose fields need one, two, five and ten varint bytes.
//!
//! The reference below parses the `.mgi` container by hand (preamble,
//! section table, two aligned payloads) and decodes every varint one byte
//! per loop turn with no fast path, so a change to `mg_support::varint` or
//! to `SeedDump`'s reader that alters a decoded value, an accepted length
//! or an error class shows here. The chunk reader the proxy streams with,
//! `DumpReader`, must yield exactly what the whole-dump decode does at every
//! chunk size, and fail at the same read with the same error.

use minigiraffe::core::dump::{DumpReader, SeedDump};
use minigiraffe::core::types::{ReadInput, Seed, Workflow};
use minigiraffe::graph::{Handle, NodeId, VariationGraph};
use minigiraffe::index::GraphPos;
use minigiraffe::support::mgi::{checksum, MgiFile, TAG_DUMP_READS};
use minigiraffe::support::varint::{self, Cursor};
use minigiraffe::support::Error;
use proptest::prelude::*;

#[path = "common/hostile_dumps.rs"]
mod hostile_dumps;
use hostile_dumps::{hostile_cases, resectioned_dump, varints};

/// How a varint decode can fail.
#[derive(Debug, PartialEq, Eq)]
enum Bad {
    Eof,
    Overflow,
}

/// The reference varint: one byte per turn, no shortcuts.
fn naive_varint(input: &[u8]) -> Result<(u64, usize), Bad> {
    let mut value = 0u64;
    for (i, &byte) in input.iter().enumerate() {
        if i >= 10 {
            return Err(Bad::Overflow);
        }
        let payload = u64::from(byte & 0x7F);
        if i == 9 && payload > 1 {
            return Err(Bad::Overflow);
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    Err(Bad::Eof)
}

fn production_varint(input: &[u8]) -> Result<(u64, usize), Bad> {
    varint::read_u64(input).map_err(|e| match e {
        Error::UnexpectedEof { .. } => Bad::Eof,
        Error::VarintOverflow => Bad::Overflow,
        other => panic!("varint decode returned {other:?}"),
    })
}

/// Byte-at-a-time reader over the reference decoder's input.
struct Naive<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Naive<'a> {
    fn varint(&mut self) -> Option<u64> {
        let (v, n) = naive_varint(&self.data[self.pos..]).ok()?;
        self.pos += n;
        Some(v)
    }

    fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        let slice = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn le_u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn le_u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// One 32-byte section-table entry with the expected tag, whose
    /// payload must sit at `offset` in `image`: `[tag u32][0 u32]
    /// [offset u64][len u64][sum u64]`. Returns the payload and the
    /// offset where the next payload must start.
    fn entry(&mut self, image: &'a [u8], tag: u32, offset: usize) -> Option<(&'a [u8], usize)> {
        if self.le_u32()? != tag || self.le_u32()? != 0 || self.le_u64()? != offset as u64 {
            return None;
        }
        let len = usize::try_from(self.le_u64()?).ok()?;
        let payload = image.get(offset..offset.checked_add(len)?)?;
        (self.le_u64()? == reference_sum(payload)).then_some((payload, align64(offset + len)))
    }
}

/// The container checksum of format version 4, written out a word at a
/// time: word `i` (eight bytes, little-endian) steps lane `i % 4`, the last
/// 0–7 bytes are one zero-padded tail word, and the sum starts from the
/// length and steps through the four lanes and then the tail word.
fn reference_sum(data: &[u8]) -> u64 {
    fn step(state: u64, word: u64) -> u64 {
        (state ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
    }
    let word_at = |at: usize, len: usize| {
        (0..len).fold(0u64, |word, b| word | u64::from(data[at + b]) << (8 * b))
    };
    let mut lanes = [
        0x243f_6a88_85a3_08d3u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let words = data.len() / 8;
    for i in 0..words {
        lanes[i % 4] = step(lanes[i % 4], word_at(8 * i, 8));
    }
    let mut sum = data.len() as u64;
    for lane in lanes {
        sum = step(sum, lane);
    }
    step(sum, word_at(8 * words, data.len() % 8))
}

fn align64(n: usize) -> usize {
    n.div_ceil(64) * 64
}

/// The reference dump decoder; `None` for anything it cannot parse.
fn naive_decode(image: &[u8]) -> Option<SeedDump> {
    // Preamble (48 bytes): magic, version 4, endianness marker, file
    // length, section count 2, reserved, table offset 48, table checksum.
    let mut file = Naive { data: image, pos: 0 };
    if file.bytes(8)? != b"MGIDX\0\0\0"
        || file.le_u32()? != 4
        || file.le_u32()? != 0x0102_0304
        || file.le_u64()? != image.len() as u64
        || file.le_u32()? != 2
        || file.le_u32()? != 0
        || file.le_u64()? != 48
    {
        return None;
    }
    let table_sum = file.le_u64()?;
    let mut table = Naive { data: file.bytes(64)?, pos: 0 };
    if reference_sum(table.data) != table_sum {
        return None;
    }
    // Payloads follow the table, each 64-byte aligned, zero padded.
    let (meta, next) = table.entry(image, 0x0500, align64(48 + 64))?;
    let (reads, end) = table.entry(image, 0x0501, next)?;
    if end != image.len() {
        return None;
    }
    let mut meta = Naive { data: meta, pos: 0 };
    let workflow = if meta.varint()? != 0 {
        Workflow::Paired
    } else {
        Workflow::Single
    };
    let read_count = meta.varint()?;
    let mut cur = Naive { data: reads, pos: 0 };
    let mut reads = Vec::new();
    for _ in 0..read_count {
        let len = usize::try_from(cur.varint()?).ok()?;
        let bases = cur.bytes(len)?.to_vec();
        let seed_count = cur.varint()?;
        let mut seeds = Vec::new();
        let mut read_offset = 0u64;
        for _ in 0..seed_count {
            read_offset = read_offset.checked_add(cur.varint()?)?;
            let handle = Handle::from_gbwt(cur.varint()?)?;
            let offset = u32::try_from(cur.varint()?).ok()?;
            seeds.push(Seed::new(
                u32::try_from(read_offset).ok()?,
                GraphPos::new(handle, offset),
            ));
        }
        reads.push(ReadInput { bases, seeds });
    }
    (cur.pos == cur.data.len()).then_some(SeedDump { workflow, reads })
}

/// A value of the varint length class `class` (0: one byte, 1: two bytes,
/// 2: five bytes, 3: ten bytes) derived from `raw`, clamped to `max`.
fn sized(class: u8, raw: u64, max: u64) -> u64 {
    let v = match class {
        0 => raw % 128,
        1 => 128 + raw % ((1 << 14) - 128),
        2 => (1 << 28) + raw % ((1 << 35) - (1 << 28)),
        _ => (1 << 63) | raw,
    };
    v.min(max)
}

type RawSeed = (u8, u64, u8, u64, u8, u64);
type RawRead = (Vec<u8>, Vec<RawSeed>);

fn build_dump(raw: Vec<RawRead>, paired: bool) -> SeedDump {
    let reads = raw
        .into_iter()
        .map(|(bases, seeds)| {
            // The format delta-encodes read offsets, so they are built as a
            // running sum that stays inside `u32`.
            let mut read_offset = 0u64;
            let seeds = seeds
                .into_iter()
                .map(|(dc, draw, hc, hraw, oc, oraw)| {
                    let room = u64::from(u32::MAX) - read_offset;
                    read_offset += sized(dc, draw, room);
                    // Packed handles: < 2^7, >= 2^14, >= 2^35 and >= 2^63.
                    let packed = match hc {
                        1 => (1 << 14) + hraw % (1 << 20),
                        2 => (1 << 35) + hraw % (1 << 40),
                        _ => sized(hc, hraw, u64::MAX),
                    }
                    .max(2);
                    let offset = match oc {
                        2 => u64::from(u32::MAX) - oraw % 1000,
                        _ => sized(oc, oraw, u64::from(u32::MAX)),
                    };
                    Seed::new(
                        read_offset as u32,
                        GraphPos::new(Handle::from_gbwt(packed).unwrap(), offset as u32),
                    )
                })
                .collect();
            ReadInput { bases, seeds }
        })
        .collect();
    let workflow = if paired { Workflow::Paired } else { Workflow::Single };
    SeedDump::new(workflow, reads)
}

fn raw_reads() -> impl Strategy<Value = Vec<RawRead>> {
    let seed = (0u8..4, any::<u64>(), 0u8..4, any::<u64>(), 0u8..3, any::<u64>());
    proptest::collection::vec(
        (
            // Empty reads, and reads whose length needs a two-byte varint.
            proptest::collection::vec(proptest::sample::select(b"ACGTN".to_vec()), 0..300),
            // Reads with no seeds, and seed counts past one varint byte.
            proptest::collection::vec(seed, 0..140),
        ),
        0..8,
    )
}

/// Chunk sizes the chunk reader is held to: one read, a pair, a size that
/// leaves a ragged last chunk, and the whole dump at once.
const CHUNK_SIZES: [usize; 4] = [1, 2, 7, usize::MAX];

/// Every read `DumpReader` yields from `image` at chunk size `max`, and how
/// it ended: the workflow after the last chunk, or the first error. Checks
/// on the way that every chunk but the last is full.
fn drain(image: &[u8], max: usize) -> (Vec<ReadInput>, Result<Workflow, String>) {
    drain_on(None, image, max)
}

/// [`drain`], decoding with `next_chunk_on(graph)` when a graph is given.
fn drain_on(
    graph: Option<&VariationGraph>,
    image: &[u8],
    max: usize,
) -> (Vec<ReadInput>, Result<Workflow, String>) {
    let mut file = match MgiFile::open_bytes(image.to_vec()) {
        Ok(file) => file,
        Err(e) => return (Vec::new(), Err(format!("{e:?}"))),
    };
    let mut reader = match DumpReader::new(&mut file) {
        Ok(reader) => reader,
        Err(e) => return (Vec::new(), Err(format!("{e:?}"))),
    };
    let (mut all, mut chunk) = (Vec::new(), Vec::new());
    let mut short = false;
    loop {
        let outcome = match graph {
            Some(graph) => reader.next_chunk_on(graph, &mut chunk, max),
            None => reader.next_chunk(&mut chunk, max),
        };
        assert!(chunk.len() <= max);
        all.extend_from_slice(&chunk);
        if let Err(e) = outcome {
            return (all, Err(format!("{e:?}")));
        }
        if chunk.is_empty() {
            assert_eq!(all.len(), reader.read_count());
            return (all, Ok(reader.workflow()));
        }
        assert!(!short, "a short chunk before the end at chunk size {max}");
        short = chunk.len() < max;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The chunk reader yields exactly the whole-dump decode at every chunk
    /// size.
    #[test]
    fn chunk_reader_equals_whole_decode(raw in raw_reads(), paired: bool) {
        let dump = build_dump(raw, paired);
        let image = dump.to_bytes().unwrap();
        let whole = SeedDump::from_bytes(&image).unwrap();
        for max in CHUNK_SIZES {
            let (reads, end) = drain(&image, max);
            prop_assert_eq!(&reads, &whole.reads);
            prop_assert_eq!(end, Ok(whole.workflow));
        }
    }

    /// The reader, the naive reference and the value that was encoded agree
    /// on every dump, in both workflows.
    #[test]
    fn reader_equals_naive_reference(raw in raw_reads(), paired: bool) {
        let dump = build_dump(raw, paired);
        let image = dump.to_bytes().unwrap();
        let reference = naive_decode(&image);
        prop_assert_eq!(reference.as_ref(), Some(&dump));
        prop_assert_eq!(SeedDump::from_bytes(&image).unwrap(), dump);
    }

    /// `varint::read_u64` equals the reference on arbitrary bytes: value,
    /// consumed length and error class.
    #[test]
    fn varint_equals_reference_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..14)) {
        prop_assert_eq!(production_varint(&bytes), naive_varint(&bytes));
    }
}

#[test]
fn chunk_reader_fails_at_the_same_read_with_the_same_error() {
    // The hostile images `tests/corrupt_inputs.rs` rejects, and bytes after
    // the last read.
    let mut cases = hostile_cases();
    cases.push(("trailing bytes", vec![0, 0], varints(&[0])));
    // The same hostile reads behind five good ones, so that the failing
    // read falls inside a chunk, on a chunk boundary, or in the first one.
    let good: Vec<ReadInput> = (0..5u64)
        .map(|i| ReadInput {
            bases: b"ACGTACGTAC"[..5 + i as usize].to_vec(),
            seeds: vec![Seed::new(i as u32, GraphPos::new(Handle::forward(NodeId::new(2 + i)), 1))],
        })
        .collect();
    let good_image = SeedDump::new(Workflow::Single, good.clone()).to_bytes().unwrap();
    let mut good_file = MgiFile::open_bytes(good_image).unwrap();
    let good_payload = good_file.section(TAG_DUMP_READS).unwrap();
    for (what, meta, payload) in cases {
        let prefixed = [&good_payload[..], &payload].concat();
        // A read count is checked before any read is decoded: behind the
        // prefix it must still exceed what the payload has room for.
        let (count, at) = if what.starts_with("read count") {
            (meta[1].max(prefixed.len() as u64 / 2 + 1), 0)
        } else {
            (meta[1] + good.len() as u64, good.len())
        };
        let images = [
            (resectioned_dump(&meta, &payload), 0),
            (resectioned_dump(&[meta[0], count], &prefixed), at),
        ];
        for (image, at) in images {
            let whole = SeedDump::from_bytes(&image).expect_err(what);
            assert!(matches!(whole, Error::Corrupt(_)), "{what}: {whole:?}");
            for max in CHUNK_SIZES {
                let (reads, end) = drain(&image, max);
                assert_eq!(end, Err(format!("{whole:?}")), "{what} at chunk size {max}");
                // Trailing bytes are found after the last read: every read
                // was yielded. Otherwise the reads before the bad one were.
                assert_eq!(reads, good[..at], "{what} at chunk size {max}");
            }
        }
    }
}

/// Decoding against a pangenome checks every seed as it is written: a read
/// whose seed lies off the graph fails at every chunk size with the reads
/// before it yielded, exactly where the unchecked decode would have gone on.
#[test]
fn chunk_reader_on_a_graph_stops_at_the_first_seed_off_it() {
    let mut graph = VariationGraph::new();
    for len in [3, 8, 1] {
        graph.add_node(&b"ACGTACGT"[..len]).unwrap();
    }
    let seed = |node, offset| {
        Seed::new(0, GraphPos::new(Handle::reverse(NodeId::new(node)), offset))
    };
    // The last base of every node, then each way off the graph.
    let on = [seed(1, 2), seed(2, 7), seed(3, 0)];
    let read = |seeds: &[Seed]| ReadInput { bases: b"ACGT".to_vec(), seeds: seeds.to_vec() };
    for (bad, fault) in [
        (seed(1, 3), "offset 3 is past the 3 bases of node 1"),
        (seed(2, 8), "offset 8 is past the 8 bases of node 2"),
        (seed(3, u32::MAX), "offset 4294967295 is past the 1 bases of node 3"),
        (seed(4, 0), "node 4 is not in the pangenome"),
        (seed(1 << 40, 0), "node 1099511627776 is not in the pangenome"),
    ] {
        for at in [0, 3, 6] {
            let mut reads = vec![read(&on); 9];
            reads[at] = read(&[on[0], bad]);
            let image = SeedDump::new(Workflow::Single, reads.clone()).to_bytes().unwrap();
            let message = format!("Corrupt(\"read {at}: seed at read offset 0: {fault}\")");
            for max in CHUNK_SIZES {
                let (yielded, end) = drain_on(Some(&graph), &image, max);
                assert_eq!(end, Err(message.clone()), "chunk size {max}");
                assert_eq!(yielded, reads[..at], "{fault} at read {at}, chunk size {max}");
                assert_eq!(drain(&image, max), (reads.clone(), Ok(Workflow::Single)));
            }
        }
    }
    let image = SeedDump::new(Workflow::Paired, vec![read(&on); 5]).to_bytes().unwrap();
    for max in CHUNK_SIZES {
        assert_eq!(drain_on(Some(&graph), &image, max), drain(&image, max));
    }
}

/// The oracle's checksum is the container's, across every lane and tail
/// boundary.
#[test]
fn reference_sum_equals_the_container_checksum() {
    let data: Vec<u8> = (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
    for len in 0..=data.len() {
        assert_eq!(reference_sum(&data[..len]), checksum(&data[..len]), "length {len}");
    }
}

#[test]
fn chunk_reader_reuses_read_buffers() {
    let reads: Vec<ReadInput> = (0..6u64)
        .map(|i| ReadInput {
            bases: vec![b'A'; 40 - i as usize],
            seeds: vec![Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(2)), 0)); 3],
        })
        .collect();
    let mut file =
        MgiFile::open_bytes(SeedDump::new(Workflow::Single, reads.clone()).to_bytes().unwrap())
            .unwrap();
    let mut reader = DumpReader::new(&mut file).unwrap();
    let mut chunk = Vec::new();
    reader.next_chunk(&mut chunk, 3).unwrap();
    let buffers: Vec<(*const u8, *const Seed)> =
        chunk.iter().map(|r| (r.bases.as_ptr(), r.seeds.as_ptr())).collect();
    reader.next_chunk(&mut chunk, 3).unwrap();
    // Each later read is shorter than the slot's earlier one: no slot had
    // to grow, so every buffer is the one the first chunk allocated.
    assert_eq!(chunk, reads[3..]);
    let reused: Vec<(*const u8, *const Seed)> =
        chunk.iter().map(|r| (r.bases.as_ptr(), r.seeds.as_ptr())).collect();
    assert_eq!(reused, buffers);
}

#[test]
fn field_widths_cover_one_two_five_and_ten_bytes() {
    // The generator above is only an oracle if it reaches the widths it is
    // meant to: pin one dump by hand and check the encoded sizes.
    let seed = |delta_class, handle_class, offset_class| {
        (delta_class, 5u64, handle_class, 7u64, offset_class, 9u64)
    };
    let dump = build_dump(
        vec![
            (Vec::new(), Vec::new()),
            (b"ACGT".to_vec(), vec![seed(0, 0, 0), seed(1, 1, 1), seed(2, 2, 2), seed(0, 3, 0)]),
        ],
        true,
    );
    let seeds = &dump.reads[1].seeds;
    let width = |v: u64| varint::write_u64(&mut Vec::new(), v);
    assert_eq!(width(u64::from(seeds[0].read_offset)), 1);
    assert_eq!(width(u64::from(seeds[1].read_offset - seeds[0].read_offset)), 2);
    assert_eq!(width(u64::from(seeds[2].read_offset - seeds[1].read_offset)), 5);
    assert_eq!(width(seeds[0].pos.handle.packed()), 1);
    assert!(seeds[1].pos.handle.packed() >= 1 << 14);
    assert!(seeds[2].pos.handle.packed() >= 1 << 35);
    assert_eq!(width(seeds[3].pos.handle.packed()), 10);
    assert_eq!(width(u64::from(seeds[1].pos.offset)), 2);
    assert!(seeds[2].pos.offset > u32::MAX - 1000);
    let image = dump.to_bytes().unwrap();
    assert_eq!(naive_decode(&image).as_ref(), Some(&dump));
    assert_eq!(SeedDump::from_bytes(&image).unwrap(), dump);
}

#[test]
fn load_equals_from_bytes_on_the_same_file() {
    let seed = (1u8, 11u64, 2u8, 13u64, 2u8, 17u64);
    let raw: Vec<RawRead> = (0..40usize)
        .map(|i| (vec![b"ACGT"[i % 4]; i * 7 % 200], vec![seed; i % 5]))
        .collect();
    for paired in [false, true] {
        let dump = build_dump(raw.clone(), paired);
        let path = std::env::temp_dir().join(format!(
            "mg-dump-decode-{}-{paired}.bin",
            std::process::id()
        ));
        dump.save(&path).unwrap();
        let image = std::fs::read(&path).unwrap();
        let loaded = SeedDump::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(image, dump.to_bytes().unwrap());
        assert_eq!(loaded, SeedDump::from_bytes(&image).unwrap());
        assert_eq!(loaded, dump);
    }
}

#[test]
fn varint_every_length_equals_the_loop() {
    for len in 1..=10u32 {
        // Smallest and largest value of each encoded length, and one inside.
        let low = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
        let high = if len == 10 { u64::MAX } else { (1u64 << (7 * len)) - 1 };
        for value in [low, low + (high - low) / 3, high] {
            let mut buf = Vec::new();
            assert_eq!(varint::write_u64(&mut buf, value), len as usize);
            assert_eq!(production_varint(&buf), Ok((value, len as usize)));
            assert_eq!(production_varint(&buf), naive_varint(&buf));
            // Bytes after the varint are not consumed.
            buf.extend_from_slice(&[0xFF, 0x00, 0x80]);
            assert_eq!(production_varint(&buf), Ok((value, len as usize)));
            // Truncation anywhere inside the varint is an EOF.
            for cut in 0..len as usize {
                assert_eq!(production_varint(&buf[..cut]), Err(Bad::Eof), "{value} cut {cut}");
                assert_eq!(naive_varint(&buf[..cut]), Err(Bad::Eof));
            }
        }
        // A padded (non-minimal) encoding of a small value at this length.
        let mut padded = vec![0x85u8];
        padded.resize(len as usize, 0x80);
        *padded.last_mut().unwrap() &= 0x7F;
        assert_eq!(production_varint(&padded), naive_varint(&padded));
        assert_eq!(production_varint(&padded), Ok((5, len as usize)));
    }
}

#[test]
fn varint_overflow_at_the_tenth_byte_and_beyond() {
    // The tenth byte may carry one payload bit.
    let mut buf = [0x80u8; 10];
    for last in 0u8..=0x7F {
        buf[9] = last;
        let expect = if last > 1 { Err(Bad::Overflow) } else { Ok((u64::from(last) << 63, 10)) };
        assert_eq!(production_varint(&buf), expect, "last byte {last:#x}");
        assert_eq!(naive_varint(&buf), expect);
    }
    // Ten continuation bytes: EOF when nothing follows, overflow when an
    // eleventh byte does.
    buf[9] = 0x81;
    assert_eq!(production_varint(&buf), Err(Bad::Eof));
    assert_eq!(naive_varint(&buf), Err(Bad::Eof));
    let mut eleven = buf.to_vec();
    eleven.push(0x00);
    assert_eq!(production_varint(&eleven), Err(Bad::Overflow));
    assert_eq!(naive_varint(&eleven), Err(Bad::Overflow));
}

#[test]
fn cursor_walks_mixed_widths_like_the_reference() {
    let values = [0u64, 127, 128, 300, (1 << 14) - 1, 1 << 14, 1 << 35, u64::from(u32::MAX), u64::MAX, 1];
    let mut buf = Vec::new();
    for &v in &values {
        varint::write_u64(&mut buf, v);
        buf.extend_from_slice(b"ACG");
    }
    // A varint cut short at the very end.
    buf.extend_from_slice(&[0x80, 0x80]);
    let mut cur = Cursor::new(&buf);
    let mut naive = Naive { data: &buf, pos: 0 };
    for &v in &values {
        assert_eq!(cur.read_u64().unwrap(), v);
        assert_eq!(naive.varint(), Some(v));
        assert_eq!(cur.read_bytes(3).unwrap(), b"ACG");
        assert_eq!(naive.bytes(3), Some(&b"ACG"[..]));
        assert_eq!(cur.position(), naive.pos);
    }
    let before = cur.position();
    assert_eq!(cur.remaining(), 2);
    assert!(matches!(cur.read_u64(), Err(Error::UnexpectedEof { .. })));
    assert_eq!(cur.position(), before, "a failed read consumes nothing");
    assert!(!cur.is_at_end());
    assert_eq!(cur.read_bytes(2).unwrap(), &[0x80, 0x80]);
    assert!(cur.is_at_end());
    assert!(matches!(cur.read_u64(), Err(Error::UnexpectedEof { .. })));
}
