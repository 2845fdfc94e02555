//! The one on-disk container: validate, don't parse.
//!
//! A `.mgi` file holds the mapper's resident state — the forward node
//! sequence arena and CSR adjacency, minimizer table, distance/snarl index,
//! and compressed GBWT — in the exact little-endian layouts the in-memory
//! structures use, so loading is one read of the file into an aligned
//! buffer plus bounds/invariant validation, with zero per-element
//! decoding. Each node sequence is stored once: the graph derives its
//! reverse-complement arena from the forward one on load.
//! The other two binary files use the same container with fewer sections:
//! a `.mgz` pangenome holds exactly the graph and GBWT sections, a `.bin`
//! seed dump its two dump sections. The pieces:
//!
//! - [`Mapping`]: a file's bytes, read once into a read-only heap buffer
//!   aligned to [`MGI_ALIGN`] (never `mmap`ed: a file truncated on disk
//!   after open cannot fault a reader).
//! - [`MappedSlice`]: a typed `&[T]` view into a [`Mapping`] that keeps the
//!   buffer alive via reference counting.
//! - [`Storage`]: the owned-or-mapped backing used by index structures, so
//!   one concrete type serves both the build path and the zero-copy path.
//! - [`Pod`]: the marker trait for types whose slices may be reinterpreted
//!   from container bytes.
//! - [`MgiWriter`] / [`MgiFile`]: the container format itself — preamble,
//!   fixed section table, 64-byte-aligned checksummed payloads.
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

use std::alloc::Layout;
use std::io::{Read, Write};
use std::ops::Deref;
use std::path::Path;
use std::ptr::NonNull;
use std::sync::Arc;

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
/// Section payload alignment: one cache line, so the 32-byte records the
/// index readers map (k-mer entries, node records) never straddle a line.
/// Covers every element type's own alignment too.
pub const MGI_ALIGN: usize = 64;

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

/// Marker for plain-old-data element types that may be reinterpreted from
/// container little-endian bytes.
///
/// # Safety
///
/// Implementors must guarantee that every bit pattern of the non-padding
/// bytes is a valid value, that the layout is stable (`#[repr(C)]` or
/// `#[repr(transparent)]` over such types), and that the type holds no
/// pointers or lifetimes. Types *may* contain trailing padding: casts only
/// ever go from bytes to values (the writers serialize field by field), so
/// padding bytes are never read.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: primitive integers: every bit pattern is a value, no padding, no
// pointers.
unsafe impl Pod for u8 {}
// SAFETY: as for `u8`.
unsafe impl Pod for u16 {}
// SAFETY: as for `u8`.
unsafe impl Pod for u32 {}
// SAFETY: as for `u8`.
unsafe impl Pod for u64 {}

/// The container checksum: of the section table and of every section
/// payload (format version 4).
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
    let mut lanes = SUM_SEEDS;
    let mut blocks = data.chunks_exact(8 * SUM_SEEDS.len());
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = sum_step(*lane, le_word(word));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = sum_step(*lane, le_word(word));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let sum = lanes.into_iter().fold(data.len() as u64, sum_step);
    sum_step(sum, u64::from_le_bytes(tail))
}

/// The checksum's starting lanes: four distinct constants, so words
/// swapped between lanes change the sum.
const SUM_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

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
// Mapping: a whole file in one aligned, read-only buffer.
// ---------------------------------------------------------------------------

/// A file's bytes in one read-only heap buffer aligned to [`MGI_ALIGN`],
/// which preserves every alignment guarantee the typed section views rely
/// on.
///
/// The file is read into the buffer at open, not memory-mapped: opening
/// checksums every section, so every byte is read then anyway, and a file
/// truncated or rewritten on disk afterwards cannot reach the views.
#[derive(Debug)]
pub struct Mapping {
    /// `len` bytes allocated with `layout`; dangling (never dereferenced or
    /// freed) when `len` is 0.
    ptr: NonNull<u8>,
    len: usize,
    layout: Layout,
}

// SAFETY: a `Mapping` owns its buffer outright, and nothing writes to the
// buffer after construction, so sharing or sending it is sharing or sending
// plain immutable bytes.
unsafe impl Send for Mapping {}
// SAFETY: as for `Send`: the buffer is never written after construction.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Reads all of `path` into an aligned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file cannot be read in full.
    pub fn open(path: &Path) -> Result<Mapping> {
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| Error::Corrupt("file too large to read".into()))?;
        let mut map = Mapping::zeroed(len);
        file.read_exact(map.bytes_mut())?;
        Ok(map)
    }

    /// Wraps an in-memory image, copying it into an aligned buffer.
    pub fn from_vec(bytes: Vec<u8>) -> Mapping {
        let mut map = Mapping::zeroed(bytes.len());
        map.bytes_mut().copy_from_slice(&bytes);
        map
    }

    /// A zero-filled aligned buffer of `len` bytes.
    fn zeroed(len: usize) -> Mapping {
        let layout = Layout::from_size_align(len, MGI_ALIGN).expect("valid mapping layout");
        let ptr = if len == 0 {
            NonNull::dangling()
        } else {
            // SAFETY: `layout` has a nonzero size.
            let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
            NonNull::new(ptr).unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
        };
        Mapping { ptr, len, layout }
    }

    /// The buffer, writable while the mapping is built.
    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: `ptr` is valid for `len` initialized (zeroed) bytes, or
        // dangling and well aligned when `len` is 0; `&mut self` makes this
        // the only reference to them.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` initialized bytes (or dangling and
        // well aligned when `len` is 0), and they are not written while
        // `self` is borrowed.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Total mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: `ptr` came from `alloc_zeroed(self.layout)` and is freed
            // only here.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) };
        }
    }
}

// ---------------------------------------------------------------------------
// MappedSlice: a typed view that keeps the mapping alive.
// ---------------------------------------------------------------------------

/// A `&[T]` view into a [`Mapping`], holding a reference count on the map
/// so the view is self-contained ('static).
pub struct MappedSlice<T: Pod> {
    /// Keeps the bytes `ptr` points into alive and unchanged.
    _map: Arc<Mapping>,
    /// `len` elements of `T` inside `_map`, aligned for `T`.
    ptr: *const T,
    len: usize,
}

// SAFETY: the view only reads immutable bytes owned by the `Arc<Mapping>`
// it holds (itself `Send + Sync`), and `T: Pod` is `Send + Sync`.
unsafe impl<T: Pod> Send for MappedSlice<T> {}
// SAFETY: as for `Send`: shared access is read-only.
unsafe impl<T: Pod> Sync for MappedSlice<T> {}

impl<T: Pod> MappedSlice<T> {
    /// Casts `len_bytes` bytes at `offset` inside `map` into a typed slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the range is out of bounds, the length
    /// is not a multiple of `size_of::<T>()`, or the pointer is misaligned.
    pub fn new(map: &Arc<Mapping>, offset: usize, len_bytes: usize) -> Result<MappedSlice<T>> {
        let size = std::mem::size_of::<T>();
        let end = offset
            .checked_add(len_bytes)
            .ok_or_else(|| Error::Corrupt("mapped slice range overflows".into()))?;
        if end > map.len() {
            return Err(Error::Corrupt(format!(
                "mapped slice [{offset}, {end}) exceeds mapping of {} bytes",
                map.len()
            )));
        }
        if size == 0 || !len_bytes.is_multiple_of(size) {
            return Err(Error::Corrupt(format!(
                "mapped slice of {len_bytes} bytes is not a whole number of {size}-byte elements"
            )));
        }
        let ptr = map.bytes()[offset..end].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(Error::Corrupt(format!(
                "mapped slice at offset {offset} is misaligned for {}-byte alignment",
                std::mem::align_of::<T>()
            )));
        }
        Ok(MappedSlice {
            _map: Arc::clone(map),
            ptr: ptr as *const T,
            len: len_bytes / size,
        })
    }
}

impl<T: Pod> Deref for MappedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `new` checked that the `len * size_of::<T>()` bytes at
        // `ptr` lie inside the mapping and that `ptr` is aligned for `T`;
        // `_map` keeps them alive and unwritten; and `T: Pod` makes every
        // bit pattern of them a valid `T`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Pod> Clone for MappedSlice<T> {
    fn clone(&self) -> Self {
        MappedSlice {
            _map: Arc::clone(&self._map),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for MappedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSlice")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Storage: owned-or-mapped backing for index structures.
// ---------------------------------------------------------------------------

/// The backing store of an index array: a plain `Vec` on the build path, a
/// zero-copy [`MappedSlice`] when loaded from a `.mgi`.
///
/// Everything downstream reads through `Deref<Target = [T]>`, so hot paths
/// are identical for both variants; only construction code mutates, via
/// [`Storage::vec_mut`].
pub enum Storage<T: Pod> {
    /// Heap-owned elements (build path, legacy deserializers).
    Owned(Vec<T>),
    /// Borrowed from a live [`Mapping`].
    Mapped(MappedSlice<T>),
}

impl<T: Pod> Storage<T> {
    /// The owned vector, for construction-time mutation.
    ///
    /// # Panics
    ///
    /// Panics if the storage is mapped: mapped index structures are
    /// immutable by contract.
    pub fn vec_mut(&mut self) -> &mut Vec<T> {
        match self {
            Storage::Owned(v) => v,
            Storage::Mapped(_) => panic!("cannot mutate mapped storage"),
        }
    }

    /// Heap bytes owned by this storage (zero when mapped).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Storage::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Storage::Mapped(_) => 0,
        }
    }

    /// Whether the backing is borrowed from a container [`Mapping`].
    pub fn is_mapped(&self) -> bool {
        matches!(self, Storage::Mapped(_))
    }
}

impl<T: Pod> Deref for Storage<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Storage::Owned(v) => v,
            Storage::Mapped(m) => m,
        }
    }
}

impl<T: Pod> Default for Storage<T> {
    fn default() -> Self {
        Storage::Owned(Vec::new())
    }
}

impl<T: Pod> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Self {
        Storage::Owned(v)
    }
}

impl<T: Pod> From<MappedSlice<T>> for Storage<T> {
    fn from(m: MappedSlice<T>) -> Self {
        Storage::Mapped(m)
    }
}

impl<T: Pod> Clone for Storage<T> {
    fn clone(&self) -> Self {
        match self {
            Storage::Owned(v) => Storage::Owned(v.clone()),
            Storage::Mapped(m) => Storage::Mapped(m.clone()),
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Storage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for Storage<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Pod + Eq> Eq for Storage<T> {}

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
        let bytes = self.take(4, "u32 field")?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads the next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn read_u64(&mut self) -> Result<u64> {
        let bytes = self.take(8, "u64 field")?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
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
// MgiFile: open + validate a container image.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    tag: u32,
    offset: usize,
    len: usize,
}

/// An opened, validated `.mgi` container.
///
/// Opening validates the preamble (magic, version, endianness, exact file
/// length), the canonical section layout (recomputed and compared, so
/// overlaps, gaps, and trailing garbage are rejected), and every section
/// checksum. Section payloads are then borrowed straight out of the
/// mapping.
#[derive(Debug)]
pub struct MgiFile {
    map: Arc<Mapping>,
    entries: Vec<SectionEntry>,
}

impl MgiFile {
    /// Reads and validates `path`, verifying all section checksums.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on read failure, [`Error::BadMagic`] /
    /// [`Error::UnsupportedVersion`] / [`Error::Corrupt`] /
    /// [`Error::ChecksumMismatch`] on validation failure.
    pub fn open(path: &Path) -> Result<MgiFile> {
        MgiFile::from_mapping(Arc::new(Mapping::open(path)?))
    }

    /// Validates an in-memory image (tests, in-process round trips).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MgiFile::open`].
    pub fn open_bytes(bytes: Vec<u8>) -> Result<MgiFile> {
        MgiFile::from_mapping(Arc::new(Mapping::from_vec(bytes)))
    }

    fn from_mapping(map: Arc<Mapping>) -> Result<MgiFile> {
        let data = map.bytes();
        if data.len() < PREAMBLE_LEN {
            return Err(Error::Corrupt(format!(
                "file of {} bytes is smaller than the .mgi preamble",
                data.len()
            )));
        }
        if data[..8] != MGI_MAGIC {
            return Err(Error::BadMagic);
        }
        let mut pre = FixedReader::new(&data[8..PREAMBLE_LEN]);
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
        let file_len = pre.read_u64()?;
        if file_len != data.len() as u64 {
            return Err(Error::Corrupt(format!(
                "preamble claims {file_len} bytes, file has {}",
                data.len()
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
            .filter(|&b| PREAMBLE_LEN + b <= data.len())
            .ok_or_else(|| {
                Error::Corrupt(format!("section table of {count} entries exceeds the file"))
            })?;
        let table = &data[PREAMBLE_LEN..PREAMBLE_LEN + table_bytes];
        let computed = checksum(table);
        if computed != table_sum {
            return Err(Error::ChecksumMismatch {
                stored: table_sum,
                computed,
            });
        }
        // The layout is canonical: recompute the one valid offset sequence
        // and demand the table matches it exactly. This single check makes
        // overlapping sections, gaps, and out-of-bounds payloads impossible.
        let mut expected = align_up(PREAMBLE_LEN + table_bytes, MGI_ALIGN);
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let mut row = FixedReader::new(&table[i * TABLE_ENTRY_LEN..(i + 1) * TABLE_ENTRY_LEN]);
            let tag = row.read_u32()?;
            let pad = row.read_u32()?;
            let offset = row.read_u64()? as usize;
            let len = row.read_u64()? as usize;
            let stored = row.read_u64()?;
            if pad != 0 {
                return Err(Error::Corrupt(format!(
                    "section {tag:#x}: reserved table field is nonzero"
                )));
            }
            if entries.iter().any(|e: &SectionEntry| e.tag == tag) {
                return Err(Error::Corrupt(format!("duplicate section tag {tag:#x}")));
            }
            if offset != expected {
                return Err(Error::Corrupt(format!(
                    "section {tag:#x} at offset {offset}, canonical layout requires {expected}"
                )));
            }
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= data.len())
                .ok_or_else(|| {
                    Error::Corrupt(format!("section {tag:#x} of {len} bytes exceeds the file"))
                })?;
            let computed = checksum(&data[offset..end]);
            if computed != stored {
                return Err(Error::ChecksumMismatch {
                    stored,
                    computed,
                });
            }
            expected = align_up(end, MGI_ALIGN);
            entries.push(SectionEntry { tag, offset, len });
        }
        if expected != data.len() {
            return Err(Error::Corrupt(format!(
                "file has {} bytes after the last section's padded end {expected}",
                data.len()
            )));
        }
        // Alignment padding — after the table and after every payload —
        // must be zero: any flipped bit in the file is an error somewhere,
        // never silently ignored.
        let mut end = PREAMBLE_LEN + table_bytes;
        for e in &entries {
            if data[end..e.offset].iter().any(|&b| b != 0) {
                return Err(Error::Corrupt(format!(
                    "nonzero alignment padding before section {:#x}",
                    e.tag
                )));
            }
            end = e.offset + e.len;
        }
        if data[end..].iter().any(|&b| b != 0) {
            return Err(Error::Corrupt(
                "nonzero alignment padding after the last section".into(),
            ));
        }
        Ok(MgiFile { map, entries })
    }

    /// The underlying mapping.
    pub fn mapping(&self) -> &Arc<Mapping> {
        &self.map
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

    fn entry(&self, tag: u32) -> Result<&SectionEntry> {
        self.entries.iter().find(|e| e.tag == tag).ok_or(Error::BadTag {
            found: 0,
            expected: Some(tag),
        })
    }

    /// Borrows a section's raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadTag`] if no section carries `tag`.
    pub fn section(&self, tag: u32) -> Result<&[u8]> {
        let e = self.entry(tag)?;
        Ok(&self.map.bytes()[e.offset..e.offset + e.len])
    }

    /// Borrows a section as a typed zero-copy slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadTag`] for a missing section and
    /// [`Error::Corrupt`] if the section length or alignment does not fit
    /// `T`.
    pub fn section_slice<T: Pod>(&self, tag: u32) -> Result<MappedSlice<T>> {
        let e = self.entry(tag)?;
        MappedSlice::new(&self.map, e.offset, e.len).map_err(|err| match err {
            Error::Corrupt(msg) => Error::Corrupt(format!("section {tag:#x}: {msg}")),
            other => other,
        })
    }

    /// Borrows a section as typed [`Storage`], ready to drop into an index
    /// structure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MgiFile::section_slice`].
    pub fn section_storage<T: Pod>(&self, tag: u32) -> Result<Storage<T>> {
        Ok(Storage::Mapped(self.section_slice(tag)?))
    }
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
        let f = MgiFile::open_bytes(image(&[])).unwrap();
        assert_eq!(f.tags().count(), 0);
        assert!(matches!(f.section(1), Err(Error::BadTag { .. })));
    }

    #[test]
    fn sections_roundtrip_with_alignment() {
        let sections = vec![
            (TAG_GRAPH_SEQ, b"ACGT".to_vec()),
            (TAG_GBWT_RECORDS, vec![7u8; 33]),
            (TAG_GRAPH_SEQ_OFFSETS, Vec::new()),
        ];
        let f = MgiFile::open_bytes(image(&sections)).unwrap();
        for (tag, payload) in &sections {
            assert_eq!(f.section(*tag).unwrap(), &payload[..], "tag {tag:#x}");
        }
        let tags: Vec<u32> = f.tags().collect();
        assert_eq!(tags, vec![TAG_GRAPH_SEQ, TAG_GBWT_RECORDS, TAG_GRAPH_SEQ_OFFSETS]);
    }

    #[test]
    fn typed_slices_decode_le_words() {
        let mut payload = Vec::new();
        put_u64_slice(&mut payload, &[1, u64::MAX, 0x0102_0304_0506_0708]);
        let f = MgiFile::open_bytes(image(&[(TAG_GRAPH_SEQ_OFFSETS, payload)])).unwrap();
        let words: MappedSlice<u64> = f.section_slice(TAG_GRAPH_SEQ_OFFSETS).unwrap();
        assert_eq!(&words[..], &[1, u64::MAX, 0x0102_0304_0506_0708]);
        let via_storage: Storage<u64> = f.section_storage(TAG_GRAPH_SEQ_OFFSETS).unwrap();
        assert!(via_storage.is_mapped());
        assert_eq!(via_storage.heap_bytes(), 0);
        assert_eq!(&via_storage[..], &words[..]);
    }

    #[test]
    fn misaligned_element_size_rejected() {
        let f = MgiFile::open_bytes(image(&[(TAG_GRAPH_SEQ_OFFSETS, vec![0u8; 12])])).unwrap();
        assert!(matches!(
            f.section_slice::<u64>(TAG_GRAPH_SEQ_OFFSETS),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn bit_flips_are_detected_everywhere() {
        let mut sections = Vec::new();
        let mut payload = Vec::new();
        put_u64_slice(&mut payload, &(0..64u64).collect::<Vec<_>>());
        sections.push((TAG_GRAPH_SEQ_OFFSETS, payload));
        sections.push((TAG_GRAPH_SEQ, vec![b'A'; 100]));
        let good = image(&sections);
        assert!(MgiFile::open_bytes(good.clone()).is_ok());
        for pos in 0..good.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = good.clone();
                bad[pos] ^= bit;
                assert!(
                    MgiFile::open_bytes(bad).is_err(),
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
        let f = MgiFile::open(&path).unwrap();
        let words: MappedSlice<u64> = f.section_slice(TAG_GRAPH_SEQ_OFFSETS).unwrap();
        assert_eq!(&words[..], &[42, 43, 44]);
        assert_eq!(f.section(TAG_GRAPH_SEQ).unwrap(), b"ACGT");
        drop(words);
        drop(f);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn storage_basics() {
        let mut s: Storage<u64> = Storage::default();
        s.vec_mut().extend_from_slice(&[1, 2, 3]);
        assert_eq!(&s[..], &[1, 2, 3]);
        assert!(!s.is_mapped());
        assert!(s.heap_bytes() >= 24);
        let t: Storage<u64> = vec![1, 2, 3].into();
        assert_eq!(s, t);
        let u = s.clone();
        assert_eq!(u, t);
    }

    #[test]
    #[should_panic(expected = "cannot mutate mapped storage")]
    fn mapped_storage_rejects_mutation() {
        let f = MgiFile::open_bytes(image(&[(TAG_GRAPH_SEQ_OFFSETS, vec![0u8; 8])])).unwrap();
        let mut s: Storage<u64> = f.section_storage(TAG_GRAPH_SEQ_OFFSETS).unwrap();
        s.vec_mut().push(1);
    }

    #[test]
    fn mapping_from_vec_is_aligned_and_empty_safe() {
        let m = Mapping::from_vec(vec![1, 2, 3]);
        assert_eq!(m.bytes(), &[1, 2, 3]);
        assert_eq!(m.bytes().as_ptr() as usize % MGI_ALIGN, 0);
        let empty = Mapping::from_vec(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.bytes(), &[] as &[u8]);
    }
}
