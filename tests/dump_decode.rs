//! Decode oracle for the seed-dump (`.bin`) reader and the varint decoder
//! under it: the production reader against a naive byte-at-a-time reference
//! on dumps whose fields need one, two, five and ten varint bytes.
//!
//! The reference below parses the `.mgi` container by hand (preamble,
//! section table, two aligned payloads) and decodes every varint one byte
//! per loop turn with no fast path, so a change to `mg_support::varint` or
//! to the dump reader that alters a decoded value, an accepted length
//! or an error class shows here. The chunk reader the proxy streams with,
//! `DumpReader`, must yield exactly what the whole-dump decode does at every
//! chunk size, and fail at the same read with the same error.
//!
//! `DumpReader` is the one decoder — `SeedDump::from_bytes` drains it — and
//! it reads the reads section through a window of 64 KiB blocks. On dumps of
//! more than three blocks it is held to `slice_decode`, a reference here
//! that has the whole section as one byte slice: the same reads and the same
//! error text, with reads straddling every block boundary, one read longer
//! than two blocks, and faults placed past the first block.

use minigiraffe::core::dump::{DumpReader, SeedDump};
use minigiraffe::core::types::{ReadInput, Seed, Workflow};
use minigiraffe::graph::{GraphBuilder, Handle, NodeId, VariationGraph};
use minigiraffe::index::GraphPos;
use minigiraffe::support::mgi::{checksum, MgiFile, BLOCK_LEN, TAG_DUMP_READS};
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

/// The container checksum of format versions 4 and 5, written out a word at a
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

/// The two payloads of a dump image, meta and reads, parsed by hand;
/// `None` for a container that does not check out.
fn naive_sections(image: &[u8]) -> Option<(&[u8], &[u8])> {
    // Preamble (48 bytes): magic, version 5, endianness marker, file
    // length, section count 2, reserved, table offset 48, table checksum.
    let mut file = Naive { data: image, pos: 0 };
    if file.bytes(8)? != b"MGIDX\0\0\0"
        || file.le_u32()? != 5
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
    (end == image.len()).then_some((meta, reads))
}

/// The reference dump decoder; `None` for anything it cannot parse.
fn naive_decode(image: &[u8]) -> Option<SeedDump> {
    let (meta, reads) = naive_sections(image)?;
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
    let opened = MgiFile::open_bytes(image.to_vec()).and_then(DumpReader::new);
    let mut reader = match opened {
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
    let mut graph = GraphBuilder::new();
    for len in [3, 8, 1] {
        graph.add_node(&b"ACGTACGT"[..len]).unwrap();
    }
    let graph = graph.build();
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
    let file =
        MgiFile::open_bytes(SeedDump::new(Workflow::Single, reads.clone()).to_bytes().unwrap())
            .unwrap();
    let mut reader = DumpReader::new(file).unwrap();
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

// ---------------------------------------------------------------------------
// Multi-block dumps: the reader holds a window of 64 KiB blocks of the file,
// never the reads section. Held here to a decoder that has the section as
// one byte slice.
// ---------------------------------------------------------------------------

/// `value` as a `usize` no larger than `limit`, or the reader's error for it.
fn room(what: &str, value: u64, limit: usize) -> Result<usize, Error> {
    match usize::try_from(value) {
        Ok(v) if v <= limit => Ok(v),
        _ => Err(Error::Corrupt(format!(
            "{what} {value} exceeds the {limit} the payload has room for"
        ))),
    }
}

impl Naive<'_> {
    /// [`Naive::varint`] with the reader's error values.
    fn varint_or_err(&mut self) -> Result<u64, Error> {
        match naive_varint(&self.data[self.pos..]) {
            Ok((value, n)) => {
                self.pos += n;
                Ok(value)
            }
            Err(Bad::Eof) => Err(Error::UnexpectedEof { context: "varint" }),
            Err(Bad::Overflow) => Err(Error::VarintOverflow),
        }
    }

    fn left(&self) -> usize {
        self.data.len() - self.pos
    }
}

/// Read `id` at `cur`, each count bounded by the section bytes after it and
/// each seed checked against `graph` when given, with the reader's errors.
fn slice_read(
    cur: &mut Naive<'_>,
    graph: Option<&VariationGraph>,
    id: usize,
) -> Result<ReadInput, Error> {
    let corrupt = |what: &str| Error::Corrupt(what.into());
    let len = room("read length", cur.varint_or_err()?, cur.left())?;
    let bases = cur.bytes(len).ok_or(Error::UnexpectedEof { context: "bytes" })?.to_vec();
    let seed_count = room("seed count", cur.varint_or_err()?, cur.left() / 3)?;
    let mut seeds = Vec::new();
    let mut read_offset = 0u32;
    for _ in 0..seed_count {
        let delta = cur.varint_or_err()?;
        read_offset = u32::try_from(delta)
            .ok()
            .and_then(|delta| read_offset.checked_add(delta))
            .ok_or_else(|| corrupt("seed read offset overflows u32"))?;
        let handle = Handle::from_gbwt(cur.varint_or_err()?)
            .ok_or_else(|| corrupt("seed handle encodes endmarker"))?;
        let offset = u32::try_from(cur.varint_or_err()?)
            .map_err(|_| corrupt("seed node offset overflows u32"))?;
        if let Some(graph) = graph {
            let node = handle.node();
            let fault = if node.value() == 0 || node.value() > graph.node_count() as u64 {
                Some(format!("node {node} is not in the pangenome"))
            } else {
                let len = graph.node_len(node);
                (offset as usize >= len)
                    .then(|| format!("offset {offset} is past the {len} bases of node {node}"))
            };
            if let Some(fault) = fault {
                return Err(Error::Corrupt(format!(
                    "read {id}: seed at read offset {read_offset}: {fault}"
                )));
            }
        }
        seeds.push(Seed::new(read_offset, GraphPos::new(handle, offset)));
    }
    Ok(ReadInput { bases, seeds })
}

/// Decoded reads, each with its byte range in the reads section.
type Spans = Vec<(ReadInput, std::ops::Range<usize>)>;

/// The reference for the streamed reader: the reads section decoded as one
/// byte slice, with the reader's error values. Returns each read with its
/// byte range in the section, and how the decode ended.
fn slice_decode(image: &[u8], graph: Option<&VariationGraph>) -> (Spans, Result<Workflow, Error>) {
    let (meta, payload) = naive_sections(image).expect("a container that checks out");
    let mut meta = Naive { data: meta, pos: 0 };
    let workflow = if meta.varint().unwrap() != 0 {
        Workflow::Paired
    } else {
        Workflow::Single
    };
    let mut reads = Vec::new();
    let count = match room("read count", meta.varint().unwrap(), payload.len() / 2) {
        Ok(count) => count,
        Err(e) => return (reads, Err(e)),
    };
    let mut cur = Naive { data: payload, pos: 0 };
    for id in 0..count {
        let start = cur.pos;
        match slice_read(&mut cur, graph, id) {
            Ok(read) => reads.push((read, start..cur.pos)),
            Err(e) => return (reads, Err(e)),
        }
    }
    if cur.left() > 0 {
        return (reads, Err(Error::Corrupt("trailing bytes after reads".into())));
    }
    (reads, Ok(workflow))
}

/// The streamed reader on `image` at chunk sizes 1, 7 and all yields the
/// reads [`slice_decode`] does and ends with the same error text. Returns
/// the reference's read spans.
fn streams_like_the_slice(image: &[u8], graph: Option<&VariationGraph>, what: &str) -> Spans {
    let (spans, end) = slice_decode(image, graph);
    let end = end.map_err(|e| format!("{e:?}"));
    for max in [1, 7, usize::MAX] {
        let (reads, got) = drain_on(graph, image, max);
        assert_eq!(got, end, "{what} at chunk size {max}");
        assert_eq!(reads.len(), spans.len(), "{what} at chunk size {max}");
        if let Some(i) = reads.iter().zip(&spans).position(|(read, (want, _))| read != want) {
            panic!("{what} at chunk size {max}: read {i} differs from the slice decode");
        }
    }
    spans
}

/// A read of `len` bases of `base` and no seeds.
fn plain(len: usize, base: u8) -> ReadInput {
    ReadInput { bases: vec![base; len], seeds: Vec::new() }
}

/// Deterministic reads of 0..300 bases and 0..12 seeds, every seed on one
/// of [`three_nodes`]' nodes.
fn varied_reads(n: usize, seed: u64) -> Vec<ReadInput> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = |below: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % below
    };
    (0..n)
        .map(|_| {
            let bases = (0..next(300)).map(|_| b"ACGT"[next(4) as usize]).collect();
            let mut read_offset = 0;
            let seeds = (0..next(12))
                .map(|_| {
                    read_offset += next(200) as u32;
                    let node = NodeId::new(1 + next(3));
                    let handle = if next(2) == 0 { Handle::forward(node) } else { Handle::reverse(node) };
                    Seed::new(read_offset, GraphPos::new(handle, next(200) as u32))
                })
                .collect();
            ReadInput { bases, seeds }
        })
        .collect()
}

/// Three 200-base nodes: every seed [`varied_reads`] makes lies on them.
fn three_nodes() -> VariationGraph {
    let mut graph = GraphBuilder::new();
    for _ in 0..3 {
        graph.add_node(&[b'A'; 200]).unwrap();
    }
    graph.build()
}

/// Every block boundary of a dump of more than three blocks falls inside a
/// read, and the first one at every byte of one read whose fields take
/// one, two, five and ten varint bytes: the streamed reader decodes the
/// reads, and reads the 140,000-base one longer than two blocks, exactly as
/// the one-slice decode does, at every chunk size.
#[test]
fn multi_block_dumps_decode_like_one_slice_across_every_boundary() {
    let wide = ReadInput {
        // A two-byte length, then seeds of every field width.
        bases: b"ACGT".repeat(33),
        seeds: vec![
            Seed::new(1 << 28, GraphPos::new(Handle::from_gbwt(1 << 63).unwrap(), 1 << 28)),
            Seed::new((1 << 28) + 1, GraphPos::new(Handle::from_gbwt(300).unwrap(), 5)),
            Seed::new((1 << 28) + 300, GraphPos::new(Handle::from_gbwt(1 << 30).unwrap(), 300)),
        ],
    };
    let wide_len = {
        let image = SeedDump::new(Workflow::Single, vec![wide.clone()]).to_bytes().unwrap();
        naive_sections(&image).unwrap().1.len()
    };
    let giant = plain(140_000, b'G');
    // `into` bytes of the wide read lie before the first boundary: it
    // starts there, straddles it, or ends there. Its 132 bases are bytes
    // 2..134; a cut deep inside them is like a cut near their ends.
    for into in (0..=wide_len).filter(|into| !(5..131).contains(into)) {
        // A filler of f bases takes f + 4 bytes: a three-byte length and
        // a zero seed count.
        let mut reads = vec![plain(BLOCK_LEN - into - 4, b'T'), wide.clone(), giant.clone()];
        reads.extend(varied_reads(20, into as u64));
        let image = SeedDump::new(Workflow::Single, reads).to_bytes().unwrap();
        let spans = streams_like_the_slice(&image, None, &format!("{into} bytes in"));
        let len = naive_sections(&image).unwrap().1.len();
        assert!(3 * BLOCK_LEN < len, "{len} bytes is not more than three blocks");
        assert_eq!(spans[1].1.start, BLOCK_LEN - into, "the wide read starts {into} bytes before");
        for boundary in (BLOCK_LEN..len).step_by(BLOCK_LEN) {
            let inside = spans.iter().any(|(_, s)| s.start < boundary && boundary < s.end);
            let at_an_end = boundary == BLOCK_LEN && (into == 0 || into == wide_len);
            assert!(inside || at_an_end, "{into} bytes in: no read straddles byte {boundary}");
        }
    }
    // Reads of every size, over many blocks, boundaries where they fall.
    let graph = three_nodes();
    for seed in 0..4 {
        let mut reads = varied_reads(3000, seed);
        reads[1000] = giant.clone();
        let image = SeedDump::new(Workflow::Paired, reads).to_bytes().unwrap();
        assert!(naive_sections(&image).unwrap().1.len() > 4 * BLOCK_LEN);
        streams_like_the_slice(&image, None, &format!("seed {seed}"));
        streams_like_the_slice(&image, Some(&graph), &format!("seed {seed} on the graph"));
    }
}

/// A hostile count, bytes after the last read, or a seed off the pangenome
/// past the first block fail the streamed reader at the read the one-slice
/// decode fails at, with the same error, after the same reads.
#[test]
fn multi_block_faults_past_the_first_block_fail_like_one_slice() {
    let graph = three_nodes();
    let good = varied_reads(1500, 9);
    let good_image = SeedDump::new(Workflow::Single, good.clone()).to_bytes().unwrap();
    let good_payload = naive_sections(&good_image).unwrap().1.to_vec();
    assert!(good_payload.len() > 2 * BLOCK_LEN, "the faults must lie past the first block");
    let mut cases = hostile_cases();
    cases.push(("trailing bytes", vec![0, 0], varints(&[0])));
    for (what, meta, payload) in cases {
        let prefixed = [&good_payload[..], &payload].concat();
        let count = if what.starts_with("read count") {
            meta[1].max(prefixed.len() as u64 / 2 + 1)
        } else {
            meta[1] + good.len() as u64
        };
        let image = resectioned_dump(&[meta[0], count], &prefixed);
        let (spans, end) = slice_decode(&image, None);
        assert!(matches!(end, Err(Error::Corrupt(_))), "{what}: {end:?}");
        let yielded = streams_like_the_slice(&image, None, what).len();
        let expected = if what.starts_with("read count") { 0 } else { good.len() };
        assert_eq!((spans.len(), yielded), (expected, expected), "{what}");
    }
    // A seed off the pangenome, in a read past the first block.
    let off = Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(2)), 200));
    for at in [700, 1499] {
        let mut reads = good.clone();
        reads[at].seeds.insert(0, off);
        let image = SeedDump::new(Workflow::Single, reads).to_bytes().unwrap();
        let (spans, end) = slice_decode(&image, Some(&graph));
        assert!(spans.last().unwrap().1.end > BLOCK_LEN, "read {at} lies in the first block");
        let message = format!("read {at}: seed at read offset 0: offset 200 is past");
        assert!(matches!(&end, Err(Error::Corrupt(m)) if m.starts_with(&message)), "{end:?}");
        assert_eq!(streams_like_the_slice(&image, Some(&graph), "off the graph").len(), at);
        assert!(slice_decode(&image, None).1.is_ok());
    }
}
