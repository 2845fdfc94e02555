//! The one on-disk container: validate, don't rebuild.
//!
//! A `.mgi` file holds the mapper's resident state — the forward node
//! sequence arena and CSR adjacency, minimizer table, distance/snarl index,
//! and compressed GBWT — as flat little-endian arrays, so loading streams
//! each section once into the array it becomes and then checks the
//! structural invariants; no index is rebuilt. Each node sequence is stored
//! once: the graph derives its reverse-complement arena from the forward
//! one on load.
//! The other two binary files use the same container with fewer sections:
//! a `.mgz` pangenome holds exactly the graph and GBWT sections, a `.bin`
//! seed dump its two dump sections. The pieces:
//!
//! - [`MgiWriter`]: assembles the container — preamble, fixed section
//!   table, 64-byte-aligned checksummed payloads.
//! - [`MgiFile`]: opens one, checks the preamble and the table, then reads
//!   each section on request in [`BLOCK_LEN`] blocks, summing every block
//!   while it is still in cache: a `u8` section straight into its
//!   `Vec<u8>`, a typed one decoded into a `Vec<T>` of a [`Decode`] type.
//!   No section reaches its caller before its sum is verified.
//!
//! # Layout
//!
//! ```text
//! preamble (48 B): magic "MGIDX\0\0\0" | version u32 | endian u32
//!                  | file_len u64 | section_count u32 | reserved u32
//!                  | table_offset u64 | table_sum u64
//! table:           section_count × 32 B entries:
//!                  tag u32 | reserved u32 | offset u64 | len u64 | sum u64
//! payloads:        each at its table offset, 64-byte aligned, zero padded
//! ```
//!
//! Every sum is [`checksum`]: four word-wide lanes, so opening a container
//! checks its bytes at several GB/s instead of FNV-1a's one multiply per
//! byte (version 3). The version field tells the two apart: a version-3
//! file is refused, not re-summed.
//!
//! The layout is *canonical*: payload offsets must be exactly the sequence
//! the writer produces (table end, then each payload aligned up from the
//! previous end), and the file must end at the padded end of the last
//! payload. A reader therefore recomputes the unique valid layout and
//! rejects anything else — overlapping sections, gaps, or trailing garbage
//! are structurally impossible to accept.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::{Error, Result};

/// Magic bytes opening a `.mgi` container.
pub const MGI_MAGIC: [u8; 8] = *b"MGIDX\0\0\0";
/// Current container format version (`.mgi`, `.mgz` and `.bin` alike).
/// There is no reader for older versions: an `.mgi` is rebuilt from its
/// `.mgz` with `minigiraffe build-mgi`. Version 3 stores the minimizer
/// table and the distance index as packed per-k-mer and per-node records;
/// version 4 keeps that layout and sums it with [`checksum`] instead of
/// FNV-1a.
pub const MGI_VERSION: u32 = 4;
/// Endianness marker; written as a native u32, so a big-endian writer
/// produces different bytes and is rejected by little-endian readers.
pub const MGI_ENDIAN: u32 = 0x0102_0304;
/// Section payload alignment: one cache line. Every payload starts on it
/// and is zero padded to it.
pub const MGI_ALIGN: usize = 64;
/// Bytes [`MgiFile`] reads a section in: each block is summed and decoded
/// while it is still in cache. A multiple of every [`Decode::SIZE`] and of
/// the checksum's 32-byte lane group.
pub const BLOCK_LEN: usize = 64 * 1024;

const PREAMBLE_LEN: usize = 48;
const TABLE_ENTRY_LEN: usize = 32;

// Section tags, centralized here so the per-crate writers and readers agree
// without cross-crate dependencies. Grouped by component.
/// Graph scalar metadata (node count, edge count, flags).
pub const TAG_GRAPH_META: u32 = 0x0100;
/// Forward ASCII sequence arena (`u8`).
pub const TAG_GRAPH_SEQ: u32 = 0x0101;
/// Per-node byte offsets into the ASCII arena (`u64`, node_count + 1).
pub const TAG_GRAPH_SEQ_OFFSETS: u32 = 0x0103;
/// CSR adjacency row offsets (`u64`, 2 * node_count + 1).
pub const TAG_GRAPH_ADJ_OFFSETS: u32 = 0x0104;
/// CSR adjacency targets as packed handles (`u64`).
pub const TAG_GRAPH_ADJ_TARGETS: u32 = 0x0105;
/// Minimizer scalar metadata (k, w, kmer count, total positions).
pub const TAG_MIN_META: u32 = 0x0200;
/// Every multi-hit k-mer's positions after its first, concatenated in k-mer
/// order (`GraphPos`, 16 B each).
pub const TAG_MIN_POSITIONS: u32 = 0x0203;
/// One entry per distinct k-mer, ascending: k-mer, first position, arena
/// start, count (`KmerEntry`, 32 B each).
pub const TAG_MIN_ENTRIES: u32 = 0x0204;
/// Distance-index scalar metadata (node count, component count).
pub const TAG_DIST_META: u32 = 0x0300;
/// One record per node: component, sort offset, length, chain, entry and
/// exit anchors, distances to them (`NodeRecord`, 32 B each).
pub const TAG_DIST_NODES: u32 = 0x0305;
/// CSR chain row offsets (`u64`, chain_count + 1).
pub const TAG_CHAIN_STARTS: u32 = 0x0316;
/// Flattened chain anchor node ids (`u32`).
pub const TAG_CHAIN_ANCHORS: u32 = 0x0317;
/// Flattened chain prefix-distance sums (`u64`).
pub const TAG_CHAIN_PREFIX: u32 = 0x0318;
/// GBWT scalar metadata (counts, alphabet size, record length).
pub const TAG_GBWT_META: u32 = 0x0400;
/// Concatenated compressed GBWT record bodies (`u8`).
pub const TAG_GBWT_RECORDS: u32 = 0x0401;
/// Per-symbol record start offsets (`u64`, alphabet_size - 1 entries).
pub const TAG_GBWT_OFFSETS: u32 = 0x0402;
/// Compressed endmarker record body (`u8`).
pub const TAG_GBWT_ENDMARKER: u32 = 0x0403;
/// Sequence-end record ids (`u64`).
pub const TAG_GBWT_END_IDS: u32 = 0x0404;
/// Seed-dump metadata: workflow flag and read count (varints).
pub const TAG_DUMP_META: u32 = 0x0500;
/// Seed-dump reads: each read's bases and delta-encoded seeds (varints).
pub const TAG_DUMP_READS: u32 = 0x0501;

/// An element type a typed section decodes into: [`Decode::SIZE`]
/// little-endian bytes per element, laid out as the type's writer puts
/// them. Every byte pattern decodes; the index readers check what the
/// values mean.
pub trait Decode: Sized {
    /// Bytes per element; divides [`BLOCK_LEN`].
    const SIZE: usize;
    /// The element stored in `bytes`, which holds exactly `SIZE` of them.
    fn decode(bytes: &[u8]) -> Self;
}

impl Decode for u32 {
    const SIZE: usize = 4;
    fn decode(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(bytes.try_into().expect("4-byte element"))
    }
}

impl Decode for u64 {
    const SIZE: usize = 8;
    fn decode(bytes: &[u8]) -> u64 {
        le_word(bytes)
    }
}

/// The container checksum: of the section table and of every section
/// payload (format version 4). The one-block case of the streaming sum
/// [`MgiFile`] folds each section into as it reads it.
///
/// Four independent 64-bit lanes take the input's 8-byte little-endian
/// words in turn (word `i` goes to lane `i % 4`), each step
/// `lane = rotl((lane ^ word) · K, 31)` for an odd `K`. The last 0–7 bytes
/// form one zero-padded tail word. The sum starts from the input length,
/// takes the four lanes and then the tail word through the same step.
///
/// For a fixed state a step is a bijection of its word, and for a fixed
/// word a bijection of the state, so a change confined to one word or to
/// the tail always changes the sum. The multiply carries a change only
/// upwards; the rotation brings the high bits back down, so two flips of
/// one bit in one lane do not cancel as they would under the multiply
/// alone (a flip of bit 63 passes through it unchanged). The lanes keep
/// four multiplies in flight where FNV-1a, the version-3 sum, waited on
/// one per byte: several GB/s against about 0.7.
///
/// ```
/// assert_eq!(mg_support::mgi::checksum(b""), 0x4370_7fe7_305b_d2d5);
/// ```
pub fn checksum(data: &[u8]) -> u64 {
    let mut sum = Sum::new();
    sum.update(data);
    sum.finish()
}

/// Bytes of one round of the four lanes.
const LANE_GROUP: usize = 8 * SUM_SEEDS.len();

/// The checksum's starting lanes: four distinct constants, so words
/// swapped between lanes change the sum.
const SUM_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// [`checksum`] over input that arrives in blocks: every block but the last
/// a whole number of lane groups.
#[derive(Debug, Clone)]
struct Sum {
    lanes: [u64; 4],
    len: u64,
    /// The last block's bytes past its whole lane groups.
    rest: [u8; LANE_GROUP],
    rest_len: usize,
}

impl Sum {
    fn new() -> Sum {
        Sum { lanes: SUM_SEEDS, len: 0, rest: [0; LANE_GROUP], rest_len: 0 }
    }

    /// Folds in the next block.
    fn update(&mut self, block: &[u8]) {
        debug_assert_eq!(self.rest_len, 0, "only the last block may end inside a lane group");
        let mut groups = block.chunks_exact(LANE_GROUP);
        for group in &mut groups {
            for (lane, word) in self.lanes.iter_mut().zip(group.chunks_exact(8)) {
                *lane = sum_step(*lane, le_word(word));
            }
        }
        let rest = groups.remainder();
        self.rest[..rest.len()].copy_from_slice(rest);
        self.rest_len = rest.len();
        self.len += block.len() as u64;
    }

    /// The sum of every byte folded in.
    fn finish(mut self) -> u64 {
        let mut words = self.rest[..self.rest_len].chunks_exact(8);
        for (lane, word) in self.lanes.iter_mut().zip(&mut words) {
            *lane = sum_step(*lane, le_word(word));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        let sum = self.lanes.into_iter().fold(self.len, sum_step);
        sum_step(sum, u64::from_le_bytes(tail))
    }
}

/// One checksum step: a bijection of `lane` for a fixed `word` and of
/// `word` for a fixed `lane`.
#[inline(always)]
fn sum_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// The little-endian `u64` of an 8-byte slice.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

// ---------------------------------------------------------------------------
// Little-endian scalar helpers for section payloads.
// ---------------------------------------------------------------------------

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends each element of `values` as a little-endian `u64`.
pub fn put_u64_slice(out: &mut Vec<u8>, values: &[u64]) {
    out.reserve(values.len() * 8);
    for &v in values {
        put_u64(out, v);
    }
}

/// Appends each element of `values` as a little-endian `u32`.
pub fn put_u32_slice(out: &mut Vec<u8>, values: &[u32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        put_u32(out, v);
    }
}

/// A cursor over fixed-width little-endian scalars in a metadata section.
#[derive(Debug, Clone)]
pub struct FixedReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> FixedReader<'a> {
    /// Starts reading at the front of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        FixedReader { data, pos: 0 }
    }

    /// Reads the next little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn read_u32(&mut self) -> Result<u32> {
        self.take(4, "u32 field").map(u32::decode)
    }

    /// Reads the next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn read_u64(&mut self) -> Result<u64> {
        self.take(8, "u64 field").map(u64::decode)
    }

    /// Whether every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.data.len()
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if n > self.data.len() - self.pos {
            return Err(Error::UnexpectedEof { context });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
}

// ---------------------------------------------------------------------------
// MgiWriter: assemble a container image.
// ---------------------------------------------------------------------------

/// Accumulates sections and assembles the canonical `.mgi` image.
#[derive(Debug, Default)]
pub struct MgiWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl MgiWriter {
    /// Starts an empty container.
    pub fn new() -> Self {
        MgiWriter::default()
    }

    /// Appends one section. Tags must be unique within a container.
    pub fn section(&mut self, tag: u32, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(t, _)| *t != tag),
            "duplicate .mgi section tag {tag:#x}"
        );
        self.sections.push((tag, payload));
    }

    /// The canonical layout: each section's offset, then the file length.
    fn layout(&self) -> (Vec<usize>, usize) {
        let table_end = PREAMBLE_LEN + self.sections.len() * TABLE_ENTRY_LEN;
        let mut offset = align_up(table_end, MGI_ALIGN);
        let offsets = self
            .sections
            .iter()
            .map(|(_, payload)| {
                let at = offset;
                offset = align_up(offset + payload.len(), MGI_ALIGN);
                at
            })
            .collect();
        (offsets, offset)
    }

    /// Writes the image laid out as [`MgiWriter::layout`] says: preamble,
    /// table, then each payload behind its zero padding.
    fn emit(&self, offsets: &[usize], file_len: usize, out: &mut impl Write) -> std::io::Result<()> {
        const ZEROS: [u8; MGI_ALIGN] = [0; MGI_ALIGN];
        let count = self.sections.len();
        let mut table = Vec::with_capacity(count * TABLE_ENTRY_LEN);
        for ((tag, payload), &offset) in self.sections.iter().zip(offsets) {
            put_u32(&mut table, *tag);
            put_u32(&mut table, 0);
            put_u64(&mut table, offset as u64);
            put_u64(&mut table, payload.len() as u64);
            put_u64(&mut table, checksum(payload));
        }
        let mut head = Vec::with_capacity(PREAMBLE_LEN + table.len());
        head.extend_from_slice(&MGI_MAGIC);
        put_u32(&mut head, MGI_VERSION);
        put_u32(&mut head, MGI_ENDIAN);
        put_u64(&mut head, file_len as u64);
        put_u32(&mut head, count as u32);
        put_u32(&mut head, 0);
        put_u64(&mut head, PREAMBLE_LEN as u64);
        // Checksum over the table itself, so a corrupted tag or table entry
        // is detected even when its payload bytes still check out.
        put_u64(&mut head, checksum(&table));
        debug_assert_eq!(head.len(), PREAMBLE_LEN);
        head.extend_from_slice(&table);
        out.write_all(&head)?;
        let mut written = head.len();
        for ((_, payload), &offset) in self.sections.iter().zip(offsets) {
            out.write_all(&ZEROS[..offset - written])?;
            out.write_all(payload)?;
            written = offset + payload.len();
        }
        out.write_all(&ZEROS[..file_len - written])
    }

    /// Assembles the full image: preamble, table, aligned payloads.
    pub fn finish(self) -> Vec<u8> {
        let (offsets, file_len) = self.layout();
        let mut out = Vec::with_capacity(file_len);
        self.emit(&offsets, file_len, &mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Writes the image to `path` section by section, without assembling
    /// it in memory first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on write failure.
    pub fn write_to(self, path: &Path) -> Result<()> {
        let (offsets, file_len) = self.layout();
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.emit(&offsets, file_len, &mut file)?;
        file.flush()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MgiFile: open a container and stream its sections out of it.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    tag: u32,
    offset: usize,
    len: usize,
    /// The offset of the next section, or the file length after the last.
    padded_end: usize,
    sum: u64,
    /// Whether the section's sum and padding have been verified.
    verified: bool,
}

/// What an [`MgiFile`] reads from: the file, or an in-memory image.
trait Source: Read + Seek + Send {}

impl<T: Read + Seek + Send> Source for T {}

/// An opened `.mgi` container whose sections are read on request.
///
/// Opening checks the preamble (magic, version, endianness, exact file
/// length), the table's sum, the canonical section layout (recomputed and
/// compared, so overlaps, gaps, and trailing garbage are rejected) and the
/// zero padding behind the table. Reading a section checks its sum and the
/// zero padding behind it before the bytes are handed over, and
/// [`MgiFile::finish`] checks every section no reader asked for, so a
/// loader that ends with it has checked every byte of the file.
pub struct MgiFile {
    src: Box<dyn Source>,
    entries: Vec<SectionEntry>,
}

impl std::fmt::Debug for MgiFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MgiFile").field("entries", &self.entries).finish_non_exhaustive()
    }
}

impl MgiFile {
    /// Opens `path` and checks its preamble, table and layout.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on read failure, [`Error::BadMagic`] /
    /// [`Error::UnsupportedVersion`] / [`Error::Corrupt`] /
    /// [`Error::ChecksumMismatch`] on validation failure.
    pub fn open(path: &Path) -> Result<MgiFile> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        MgiFile::from_source(Box::new(file), len)
    }

    /// Opens an in-memory image (tests, in-process round trips).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MgiFile::open`].
    pub fn open_bytes(bytes: Vec<u8>) -> Result<MgiFile> {
        let len = bytes.len() as u64;
        MgiFile::from_source(Box::new(std::io::Cursor::new(bytes)), len)
    }

    fn from_source(mut src: Box<dyn Source>, file_len: u64) -> Result<MgiFile> {
        let data_len = usize::try_from(file_len)
            .map_err(|_| Error::Corrupt("file too large to read".into()))?;
        if data_len < PREAMBLE_LEN {
            return Err(Error::Corrupt(format!(
                "file of {data_len} bytes is smaller than the .mgi preamble"
            )));
        }
        let mut preamble = [0u8; PREAMBLE_LEN];
        src.read_exact(&mut preamble)?;
        if preamble[..8] != MGI_MAGIC {
            return Err(Error::BadMagic);
        }
        let mut pre = FixedReader::new(&preamble[8..]);
        let version = pre.read_u32()?;
        if version != MGI_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let endian = pre.read_u32()?;
        if endian != MGI_ENDIAN {
            return Err(Error::Corrupt(format!(
                "endianness marker {endian:#010x} does not match host layout"
            )));
        }
        if !cfg!(target_endian = "little") {
            return Err(Error::Corrupt(
                ".mgi containers require a little-endian host".into(),
            ));
        }
        let claimed_len = pre.read_u64()?;
        if claimed_len != file_len {
            return Err(Error::Corrupt(format!(
                "preamble claims {claimed_len} bytes, file has {data_len}"
            )));
        }
        let count = pre.read_u32()? as usize;
        let reserved = pre.read_u32()?;
        if reserved != 0 {
            return Err(Error::Corrupt("reserved preamble field is nonzero".into()));
        }
        let table_offset = pre.read_u64()?;
        if table_offset != PREAMBLE_LEN as u64 {
            return Err(Error::Corrupt(format!(
                "section table at {table_offset}, expected {PREAMBLE_LEN}"
            )));
        }
        let table_sum = pre.read_u64()?;
        let table_bytes = count
            .checked_mul(TABLE_ENTRY_LEN)
            .filter(|&b| PREAMBLE_LEN + b <= data_len)
            .ok_or_else(|| {
                Error::Corrupt(format!("section table of {count} entries exceeds the file"))
            })?;
        let mut table = vec![0u8; table_bytes];
        src.read_exact(&mut table)?;
        let computed = checksum(&table);
        if computed != table_sum {
            return Err(Error::ChecksumMismatch {
                stored: table_sum,
                computed,
            });
        }
        // The layout is canonical: recompute the one valid offset sequence
        // and demand the table matches it exactly. This single check makes
        // overlapping sections, gaps, and out-of-bounds payloads impossible.
        let table_end = PREAMBLE_LEN + table_bytes;
        let mut expected = align_up(table_end, MGI_ALIGN);
        let mut entries: Vec<SectionEntry> = Vec::with_capacity(count);
        for row in table.chunks_exact(TABLE_ENTRY_LEN) {
            let mut row = FixedReader::new(row);
            let tag = row.read_u32()?;
            let pad = row.read_u32()?;
            let offset = row.read_u64()? as usize;
            let len = row.read_u64()? as usize;
            let sum = row.read_u64()?;
            if pad != 0 {
                return Err(Error::Corrupt(format!(
                    "section {tag:#x}: reserved table field is nonzero"
                )));
            }
            if entries.iter().any(|e| e.tag == tag) {
                return Err(Error::Corrupt(format!("duplicate section tag {tag:#x}")));
            }
            if offset != expected {
                return Err(Error::Corrupt(format!(
                    "section {tag:#x} at offset {offset}, canonical layout requires {expected}"
                )));
            }
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= data_len)
                .ok_or_else(|| {
                    Error::Corrupt(format!("section {tag:#x} of {len} bytes exceeds the file"))
                })?;
            expected = align_up(end, MGI_ALIGN);
            entries.push(SectionEntry { tag, offset, len, padded_end: expected, sum, verified: false });
        }
        if expected != data_len {
            return Err(Error::Corrupt(format!(
                "file has {data_len} bytes after the last section's padded end {expected}"
            )));
        }
        // Alignment padding — after the table here, after every payload as
        // it is read — must be zero: any flipped bit in the file is an
        // error somewhere, never silently ignored.
        let first = entries.first().map_or(data_len, |e| e.offset);
        read_padding(src.as_mut(), first - table_end, None)?;
        Ok(MgiFile { src, entries })
    }

    /// Tags present in the container, in file order.
    pub fn tags(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.tag)
    }

    /// Rejects a container holding any section outside `allowed`. The
    /// three file kinds share this container, so a reader whose sections
    /// are a subset of another kind's (the `.mgz` sections are a subset of
    /// an `.mgi`'s) calls this to refuse the other kind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadTag`] naming the first section not in `allowed`.
    pub fn expect_only(&self, allowed: &[u32]) -> Result<()> {
        match self.tags().find(|tag| !allowed.contains(tag)) {
            Some(found) => Err(Error::BadTag { found, expected: None }),
            None => Ok(()),
        }
    }

    fn index(&self, tag: u32) -> Result<usize> {
        self.entries.iter().position(|e| e.tag == tag).ok_or(Error::BadTag {
            found: 0,
            expected: Some(tag),
        })
    }

    /// Reads a section's raw bytes, straight into the returned `Vec`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadTag`] if no section carries `tag`,
    /// [`Error::ChecksumMismatch`] or [`Error::Corrupt`] if its bytes or
    /// its padding do not check out, and [`Error::Io`] if the file cannot
    /// be read.
    pub fn section(&mut self, tag: u32) -> Result<Vec<u8>> {
        let i = self.index(tag)?;
        let mut out = vec![0u8; self.entries[i].len];
        let mut sum = Sum::new();
        self.src.seek(SeekFrom::Start(self.entries[i].offset as u64))?;
        for block in out.chunks_mut(BLOCK_LEN) {
            self.src.read_exact(block)?;
            sum.update(block);
        }
        self.verify(i, sum)?;
        Ok(out)
    }

    /// Reads a section of `T` elements, decoding each block into the
    /// returned `Vec` as it is summed.
    ///
    /// # Errors
    ///
    /// As [`MgiFile::section`], and [`Error::Corrupt`] if the section is
    /// not a whole number of `T`.
    pub fn array<T: Decode>(&mut self, tag: u32) -> Result<Vec<T>> {
        const { assert!(BLOCK_LEN.is_multiple_of(T::SIZE)) };
        let i = self.index(tag)?;
        let len = self.entries[i].len;
        if !len.is_multiple_of(T::SIZE) {
            return Err(Error::Corrupt(format!(
                "section {tag:#x} of {len} bytes is not a whole number of {}-byte elements",
                T::SIZE
            )));
        }
        let mut out = Vec::with_capacity(len / T::SIZE);
        self.stream(i, |block| out.extend(block.chunks_exact(T::SIZE).map(T::decode)))?;
        Ok(out)
    }

    /// Verifies every section no reader has read yet: its sum and its
    /// padding, a block at a time, keeping none of it. A loader ends with
    /// this, so a file it accepts has had every byte checked.
    ///
    /// # Errors
    ///
    /// As [`MgiFile::section`].
    pub fn finish(&mut self) -> Result<()> {
        for i in 0..self.entries.len() {
            if !self.entries[i].verified {
                self.stream(i, |_| {})?;
            }
        }
        Ok(())
    }

    /// Reads section `i` in [`BLOCK_LEN`] blocks through one scratch
    /// buffer, summing each block before `each` sees it, then verifies it.
    fn stream(&mut self, i: usize, mut each: impl FnMut(&[u8])) -> Result<()> {
        let SectionEntry { offset, len, .. } = self.entries[i];
        let mut block = vec![0u8; len.min(BLOCK_LEN)];
        let mut sum = Sum::new();
        self.src.seek(SeekFrom::Start(offset as u64))?;
        let mut left = len;
        while left > 0 {
            let block = &mut block[..left.min(BLOCK_LEN)];
            self.src.read_exact(block)?;
            sum.update(block);
            each(block);
            left -= block.len();
        }
        self.verify(i, sum)
    }

    /// Checks section `i`'s sum, with the source just past its payload,
    /// and the zero padding behind it.
    fn verify(&mut self, i: usize, sum: Sum) -> Result<()> {
        let e = self.entries[i];
        let computed = sum.finish();
        if computed != e.sum {
            return Err(Error::ChecksumMismatch { stored: e.sum, computed });
        }
        read_padding(self.src.as_mut(), e.padded_end - e.offset - e.len, Some(e.tag))?;
        self.entries[i].verified = true;
        Ok(())
    }
}

/// Reads the `len` bytes of alignment padding behind section `after` (or
/// behind the table) and demands they are zero.
fn read_padding(src: &mut dyn Source, len: usize, after: Option<u32>) -> Result<()> {
    let mut pad = [0u8; MGI_ALIGN];
    let pad = &mut pad[..len];
    src.read_exact(pad)?;
    if pad.iter().any(|&b| b != 0) {
        return Err(Error::Corrupt(match after {
            Some(tag) => format!("nonzero alignment padding after section {tag:#x}"),
            None => "nonzero alignment padding after the section table".into(),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut w = MgiWriter::new();
        for (tag, payload) in sections {
            w.section(*tag, payload.clone());
        }
        w.finish()
    }

    /// Opens `image` and reads every section's bytes, in file order.
    fn read_all(image: Vec<u8>) -> Result<Vec<(u32, Vec<u8>)>> {
        let mut f = MgiFile::open_bytes(image)?;
        let tags: Vec<u32> = f.tags().collect();
        tags.into_iter().map(|tag| Ok((tag, f.section(tag)?))).collect()
    }

    /// Deterministic filler bytes (a 64-bit LCG's top byte per step).
    fn filler(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// [`checksum`] fed as the reader feeds it: `block`-byte blocks, then
    /// the rest.
    fn streamed(data: &[u8], block: usize) -> u64 {
        let mut sum = Sum::new();
        for chunk in data.chunks(block) {
            sum.update(chunk);
        }
        sum.finish()
    }

    #[test]
    fn checksum_reference_values() {
        assert_eq!(checksum(b""), 0x4370_7fe7_305b_d2d5);
        assert_eq!(checksum(b"a"), 0x8ed4_7839_0c5a_cfe5);
        assert_eq!(checksum(b"foobar"), 0xfb25_bd27_283a_20bc);
        // One 32-byte block, one more whole word, a 2-byte tail.
        let forty_two = b"0123456789abcdef0123456789abcdef0123456789";
        assert_eq!(checksum(forty_two), 0x1a36_81e7_27c5_a166);
    }

    #[test]
    fn streamed_sum_equals_the_pinned_checksum_around_the_block_size() {
        const B: usize = BLOCK_LEN;
        let data = filler(2 * B + 7, 42);
        let pinned: [(usize, u64); 9] = [
            (0, 0x4370_7fe7_305b_d2d5),
            (1, 0x506f_1f71_6f6c_a7a9),
            (31, 0xe767_9365_4ba0_1190),
            (32, 0xaec9_e2ef_b9a0_10e3),
            (33, 0x5a02_6f06_f2ad_c2d2),
            (B - 1, 0xb39d_13bd_c926_6b88),
            (B, 0xd866_0a3e_ce2e_6a87),
            (B + 1, 0x8589_0570_0b5f_badc),
            (2 * B + 7, 0xe669_bd47_454e_788a),
        ];
        for (len, sum) in pinned {
            assert_eq!(checksum(&data[..len]), sum, "checksum of {len} bytes");
            assert_eq!(streamed(&data[..len], B), sum, "{len} bytes in blocks");
        }
    }

    #[test]
    fn checksum_sees_every_single_bit_flip_at_every_length() {
        // 0..=96 bytes crosses every lane and tail boundary three times.
        for len in 0..=96 {
            for base in [vec![0u8; len], filler(len, len as u64)] {
                let sum = checksum(&base);
                let mut flipped = base.clone();
                for pos in 0..len {
                    for bit in 0..8 {
                        flipped[pos] ^= 1 << bit;
                        assert_ne!(checksum(&flipped), sum, "len {len}, byte {pos}, bit {bit}");
                        flipped[pos] ^= 1 << bit;
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_sees_one_bit_flipped_in_two_words_of_a_lane() {
        // 96 bytes: lane i holds words i, i + 4 and i + 8. Without the
        // rotation, flipping bit 63 of two of them would cancel.
        for base in [vec![0u8; 96], filler(96, 7)] {
            let sum = checksum(&base);
            for (a, b) in [(0, 4), (4, 8), (0, 8)] {
                for lane in 0..4 {
                    for bit in 0..64 {
                        let mut flipped = base.clone();
                        for word in [a + lane, b + lane] {
                            flipped[word * 8 + bit / 8] ^= 1 << (bit % 8);
                        }
                        let at = format!("words {a}, {b} of lane {lane}, bit {bit}");
                        assert_ne!(checksum(&flipped), sum, "{at}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// Any edit of one byte changes the sum: it lies in one word or in
        /// the tail.
        #[test]
        fn prop_checksum_sees_every_single_byte_edit(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..300),
            at in proptest::prelude::any::<usize>(),
            xor in 1u8..=255,
        ) {
            let mut edited = payload.clone();
            edited[at % payload.len()] ^= xor;
            proptest::prop_assert_ne!(checksum(&edited), checksum(&payload));
        }

        /// The sum of blocks of any whole number of lane groups, the last
        /// block ragged, is the sum of the whole.
        #[test]
        fn prop_streamed_sum_equals_checksum(
            len in 0usize..3 * BLOCK_LEN,
            groups in 1usize..=BLOCK_LEN / LANE_GROUP,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let data = filler(len, seed);
            proptest::prop_assert_eq!(streamed(&data, groups * LANE_GROUP), checksum(&data));
        }
    }

    #[test]
    fn expect_only_rejects_a_foreign_section() {
        let f = MgiFile::open_bytes(image(&[
            (TAG_DUMP_META, vec![0, 0]),
            (TAG_DUMP_READS, Vec::new()),
        ]))
        .unwrap();
        assert!(f.expect_only(&[TAG_DUMP_META, TAG_DUMP_READS, TAG_GRAPH_SEQ]).is_ok());
        assert!(matches!(
            f.expect_only(&[TAG_DUMP_META]),
            Err(Error::BadTag { found: TAG_DUMP_READS, expected: None })
        ));
    }

    #[test]
    fn empty_container_roundtrips() {
        let mut f = MgiFile::open_bytes(image(&[])).unwrap();
        assert_eq!(f.tags().count(), 0);
        assert!(matches!(f.section(1), Err(Error::BadTag { .. })));
        assert!(f.finish().is_ok());
    }

    #[test]
    fn sections_roundtrip_with_alignment() {
        let sections = vec![
            (TAG_GRAPH_SEQ, b"ACGT".to_vec()),
            (TAG_GBWT_RECORDS, vec![7u8; 33]),
            (TAG_GRAPH_SEQ_OFFSETS, Vec::new()),
        ];
        assert_eq!(read_all(image(&sections)).unwrap(), sections);
        // Sections read in any order, and more than once.
        let mut f = MgiFile::open_bytes(image(&sections)).unwrap();
        for (tag, payload) in sections.iter().rev().chain(&sections) {
            assert_eq!(&f.section(*tag).unwrap(), payload, "tag {tag:#x}");
        }
    }

    #[test]
    fn typed_slices_decode_le_words() {
        let mut payload = Vec::new();
        put_u64_slice(&mut payload, &[1, u64::MAX, 0x0102_0304_0506_0708]);
        let mut f = MgiFile::open_bytes(image(&[(TAG_GRAPH_SEQ_OFFSETS, payload)])).unwrap();
        let words: Vec<u64> = f.array(TAG_GRAPH_SEQ_OFFSETS).unwrap();
        assert_eq!(words, [1, u64::MAX, 0x0102_0304_0506_0708]);
        let halves: Vec<u32> = f.array(TAG_GRAPH_SEQ_OFFSETS).unwrap();
        assert_eq!(halves, [1, 0, u32::MAX, u32::MAX, 0x0506_0708, 0x0102_0304]);
    }

    #[test]
    fn misaligned_element_size_rejected() {
        // Twelve bytes are three `u32`s but not a whole number of `u64`s.
        let mut f = MgiFile::open_bytes(image(&[(TAG_GRAPH_SEQ_OFFSETS, vec![0u8; 12])])).unwrap();
        assert!(matches!(f.array::<u64>(TAG_GRAPH_SEQ_OFFSETS), Err(Error::Corrupt(_))));
        assert_eq!(f.array::<u32>(TAG_GRAPH_SEQ_OFFSETS).unwrap(), [0; 3]);
    }

    #[test]
    fn multi_block_sections_roundtrip_and_a_flip_in_the_last_block_is_caught() {
        let bytes = filler(2 * BLOCK_LEN + 40, 3);
        let good = image(&[(TAG_GBWT_RECORDS, bytes.clone()), (TAG_GBWT_END_IDS, bytes.clone())]);
        let mut f = MgiFile::open_bytes(good.clone()).unwrap();
        assert_eq!(f.section(TAG_GBWT_RECORDS).unwrap(), bytes);
        let words: Vec<u64> = f.array(TAG_GBWT_END_IDS).unwrap();
        assert!(words.iter().zip(bytes.chunks_exact(8)).all(|(&w, b)| w == u64::decode(b)));
        // The last byte of each payload, in its third block.
        let first = MgiFile::open_bytes(good.clone()).unwrap().entries[0];
        let second = MgiFile::open_bytes(good.clone()).unwrap().entries[1];
        for (at, tag) in [(first.offset + first.len - 1, TAG_GBWT_RECORDS), (second.offset + second.len - 1, TAG_GBWT_END_IDS)] {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            let mut f = MgiFile::open_bytes(bad).unwrap();
            let read = if tag == TAG_GBWT_RECORDS {
                f.section(tag).map(drop)
            } else {
                f.array::<u64>(tag).map(drop)
            };
            assert!(matches!(read, Err(Error::ChecksumMismatch { .. })), "{tag:#x}: {read:?}");
            assert!(matches!(f.finish(), Err(Error::ChecksumMismatch { .. })), "{tag:#x}");
        }
    }

    #[test]
    fn finish_checks_the_sections_nobody_read() {
        let good = image(&[(TAG_GRAPH_SEQ, b"ACGT".to_vec()), (TAG_GRAPH_META, vec![1; 9])]);
        let mut f = MgiFile::open_bytes(good.clone()).unwrap();
        f.section(TAG_GRAPH_SEQ).unwrap();
        assert!(f.finish().is_ok());
        let meta = MgiFile::open_bytes(good.clone()).unwrap().entries[1];
        let mut bad = good.clone();
        bad[meta.offset] ^= 1;
        let mut f = MgiFile::open_bytes(bad).unwrap();
        f.section(TAG_GRAPH_SEQ).unwrap();
        assert!(matches!(f.finish(), Err(Error::ChecksumMismatch { .. })));
        let mut bad = good;
        bad[meta.offset + meta.len] = 1;
        assert!(matches!(MgiFile::open_bytes(bad).unwrap().finish(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn bit_flips_are_detected_everywhere() {
        let mut sections = Vec::new();
        let mut payload = Vec::new();
        put_u64_slice(&mut payload, &(0..64u64).collect::<Vec<_>>());
        sections.push((TAG_GRAPH_SEQ_OFFSETS, payload));
        sections.push((TAG_GRAPH_SEQ, vec![b'A'; 100]));
        let good = image(&sections);
        assert!(read_all(good.clone()).is_ok());
        for pos in 0..good.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = good.clone();
                bad[pos] ^= bit;
                assert!(
                    read_all(bad).is_err(),
                    "bit flip at byte {pos} (mask {bit:#x}) went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_rejected() {
        let good = image(&[(TAG_GRAPH_SEQ, b"ACGTACGT".to_vec())]);
        for cut in 0..good.len() {
            assert!(
                MgiFile::open_bytes(good[..cut].to_vec()).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 16]);
        assert!(MgiFile::open_bytes(padded).is_err(), "trailing garbage accepted");
    }

    #[test]
    fn wrong_version_and_magic_rejected() {
        let good = image(&[]);
        let mut wrong_magic = good.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            MgiFile::open_bytes(wrong_magic),
            Err(Error::BadMagic)
        ));
        for version in [1u8, 3, 99] {
            let mut wrong_version = good.clone();
            wrong_version[8] = version;
            assert!(matches!(
                MgiFile::open_bytes(wrong_version),
                Err(Error::UnsupportedVersion(v)) if v == u32::from(version)
            ));
        }
        // A big-endian writer stores the marker's bytes reversed.
        let mut wrong_endian = good;
        wrong_endian[12..16].copy_from_slice(&[0x01, 0x02, 0x03, 0x04]);
        assert!(matches!(
            MgiFile::open_bytes(wrong_endian),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn file_roundtrip_via_open() {
        let dir = std::env::temp_dir().join(format!("mgi-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.mgi");
        let mut payload = Vec::new();
        put_u64_slice(&mut payload, &[42, 43, 44]);
        let mut w = MgiWriter::new();
        w.section(TAG_GRAPH_SEQ_OFFSETS, payload);
        w.section(TAG_GRAPH_SEQ, b"ACGT".to_vec());
        // An empty section, one that ends on the alignment, and one that
        // needs padding: the streamed file is the assembled image.
        w.section(TAG_GRAPH_META, Vec::new());
        w.section(TAG_GRAPH_ADJ_OFFSETS, vec![7; MGI_ALIGN]);
        w.section(TAG_GRAPH_ADJ_TARGETS, vec![9; MGI_ALIGN + 3]);
        let mut image = MgiWriter::new();
        for (tag, payload) in &w.sections {
            image.section(*tag, payload.clone());
        }
        w.write_to(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), image.finish());
        let mut f = MgiFile::open(&path).unwrap();
        assert_eq!(f.array::<u64>(TAG_GRAPH_SEQ_OFFSETS).unwrap(), [42, 43, 44]);
        assert_eq!(f.section(TAG_GRAPH_SEQ).unwrap(), b"ACGT");
        assert!(f.finish().is_ok());
        drop(f);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
