//! Seed dumps: the proxy's `.bin` input format.
//!
//! miniGiraffe does not run Giraffe's preprocessing; it consumes a dump of
//! the exact inputs Giraffe's seed-and-extend stage saw — reads plus their
//! seeds — captured right before the critical functions execute. The parent
//! pipeline ([`mg_parent`](../../parent)) exports these; the workload
//! generator synthesizes them directly.
//!
//! A `.bin` file is an [`mg_support::mgi`] container with two sections:
//! [`TAG_DUMP_META`] (workflow flag and read count) and [`TAG_DUMP_READS`]
//! (each read's bases and delta-encoded seeds), both varint streams.
//! [`DumpReader`] owns the file and decodes the reads section a chunk of
//! reads at a time out of a window of 64 KiB blocks, never holding the
//! section whole; it is the one decoder, and [`SeedDump::load`] and
//! [`SeedDump::from_bytes`] drain it into one dump.
//! A dump does not name its pangenome, so decoding alone cannot tell whether
//! a seed lies on it; [`DumpReader::next_chunk_on`] decodes against one and
//! checks each seed as it writes it, where the reads first meet the graph.

use std::path::Path;

use mg_graph::{Handle, NodeId, VariationGraph};
use mg_index::GraphPos;
use mg_support::mgi::{MgiFile, MgiWriter, SectionBlocks, TAG_DUMP_META, TAG_DUMP_READS};
use mg_support::varint::{self, Cursor};
use mg_support::{Error, Result};

use crate::types::{ReadInput, Seed, Workflow};

/// A full proxy input: every read with its seeds.
///
/// # Examples
///
/// ```
/// use mg_core::dump::SeedDump;
/// use mg_core::types::{ReadInput, Seed, Workflow};
/// use mg_graph::{Handle, NodeId};
/// use mg_index::GraphPos;
///
/// # fn main() -> mg_support::Result<()> {
/// let dump = SeedDump::new(
///     Workflow::Single,
///     vec![ReadInput {
///         bases: b"ACGT".to_vec(),
///         seeds: vec![Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(1)), 0))],
///     }],
/// );
/// let bytes = dump.to_bytes()?;
/// assert_eq!(SeedDump::from_bytes(&bytes)?, dump);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedDump {
    /// Single- or paired-end (metadata only; kernels treat reads alike).
    pub workflow: Workflow,
    /// The reads with their seeds.
    pub reads: Vec<ReadInput>,
}

impl SeedDump {
    /// Bundles reads into a dump.
    pub fn new(workflow: Workflow, reads: Vec<ReadInput>) -> Self {
        SeedDump { workflow, reads }
    }

    /// Total seeds across all reads.
    pub fn total_seeds(&self) -> usize {
        self.reads.iter().map(|r| r.seeds.len()).sum()
    }

    /// Total read bases.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(|r| r.bases.len()).sum()
    }

    /// Keeps the first `fraction` of reads (the paper's autotuning
    /// subsampling uses the first 10%), as many as
    /// [`DumpReader::subsample_len`] says.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction <= 1.0`.
    pub fn subsample(&self, fraction: f64) -> SeedDump {
        let count = subsample_len(self.reads.len(), self.workflow, fraction);
        SeedDump {
            workflow: self.workflow,
            reads: self.reads[..count].to_vec(),
        }
    }

    /// Serializes to an in-memory image.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is kept for API stability.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        Ok(self.writer().finish())
    }

    fn writer(&self) -> MgiWriter {
        let mut meta = Vec::new();
        varint::write_u64(&mut meta, matches!(self.workflow, Workflow::Paired) as u64);
        varint::write_u64(&mut meta, self.reads.len() as u64);
        let mut payload = Vec::new();
        for read in &self.reads {
            varint::write_u64(&mut payload, read.bases.len() as u64);
            payload.extend_from_slice(&read.bases);
            varint::write_u64(&mut payload, read.seeds.len() as u64);
            // Seeds delta-encoded by read offset for compactness.
            let mut prev_off = 0u64;
            for seed in &read.seeds {
                varint::write_u64(&mut payload, seed.read_offset as u64 - prev_off);
                prev_off = seed.read_offset as u64;
                varint::write_u64(&mut payload, seed.pos.handle.packed());
                varint::write_u64(&mut payload, seed.pos.offset as u64);
            }
        }
        let mut w = MgiWriter::new();
        w.section(TAG_DUMP_META, meta);
        w.section(TAG_DUMP_READS, payload);
        w
    }

    /// Deserializes an image written by [`SeedDump::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns container and codec errors on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::drain(DumpReader::new(MgiFile::open_bytes(bytes.to_vec())?)?)
    }

    /// Decodes a dump whole: `reader` drained into one `Vec`.
    fn drain(mut reader: DumpReader) -> Result<Self> {
        let mut reads = Vec::with_capacity(reader.read_count());
        reader.next_chunk(&mut reads, usize::MAX)?;
        Ok(SeedDump { workflow: reader.workflow(), reads })
    }

    /// Writes a `.bin` dump file.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.writer().write_to(path.as_ref())
    }

    /// Reads a `.bin` dump file.
    ///
    /// # Errors
    ///
    /// Returns filesystem and format errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::drain(DumpReader::open(path)?)
    }
}

/// The seed-dump decoder: owns a `.bin` file and decodes its reads section
/// a chunk of reads at a time out of a window of
/// [`BLOCK_LEN`](mg_support::mgi::BLOCK_LEN) blocks, so a caller that maps
/// and drops each chunk holds one block and one chunk, never the section
/// nor the decoded dump.
///
/// Opening verifies both sections' sums before any read is decoded, so a
/// file damaged at rest fails before the first chunk. The reads section is
/// then read a block at a time and summed again as it is (see
/// [`MgiFile::into_blocks`]): a file cut short or rewritten on disk after
/// it was opened fails the chunk that reaches the change, with an
/// [`Error::Io`] or — at the last block — an [`Error::ChecksumMismatch`],
/// as a malformed read does.
///
/// A read whose varints run past the window is decoded again once the next
/// block is in; a read longer than a block grows the window to hold it.
/// Every count and length is untrusted even under a valid checksum: each
/// is bounded by the section bytes left, in the window and behind it,
/// before anything is reserved for it (a read occupies at least 2 bytes, a
/// seed 3), and bytes left after the last read are an error.
///
/// # Examples
///
/// ```
/// use mg_core::dump::{DumpReader, SeedDump};
/// use mg_core::types::{ReadInput, Workflow};
/// use mg_support::mgi::MgiFile;
///
/// # fn main() -> mg_support::Result<()> {
/// let read = |b: &[u8]| ReadInput { bases: b.to_vec(), seeds: Vec::new() };
/// let dump = SeedDump::new(Workflow::Single, vec![read(b"AC"), read(b"GT"), read(b"A")]);
/// let mut reader = DumpReader::new(MgiFile::open_bytes(dump.to_bytes()?)?)?;
/// let mut chunk = Vec::new();
/// reader.next_chunk(&mut chunk, 2)?;
/// assert_eq!(chunk, dump.reads[..2]);
/// reader.next_chunk(&mut chunk, 2)?;
/// assert_eq!(chunk, dump.reads[2..]);
/// reader.next_chunk(&mut chunk, 2)?;
/// assert!(chunk.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DumpReader {
    workflow: Workflow,
    read_count: usize,
    /// Reads not yet decoded.
    left: usize,
    /// The reads section, a block at a time.
    blocks: SectionBlocks,
    /// Section bytes read from `blocks`: the tail of one block, or of a
    /// few for a read longer than one.
    window: Vec<u8>,
    /// Bytes of `window` decoded so far.
    pos: usize,
}

impl DumpReader {
    /// Opens a `.bin` dump file: [`DumpReader::new`] on it.
    ///
    /// # Errors
    ///
    /// As [`MgiFile::open`] and [`DumpReader::new`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        DumpReader::new(MgiFile::open(path.as_ref())?)
    }

    /// Takes a dump container: reads its metadata section, verifies its
    /// reads section (see [`MgiFile::into_blocks`]) and checks the read
    /// count against it. No read is decoded yet.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadTag`] for a container that is not a dump,
    /// container errors for a section that does not check out, and codec
    /// or [`Error::Corrupt`] errors for malformed metadata.
    pub fn new(mut f: MgiFile) -> Result<Self> {
        f.expect_only(&[TAG_DUMP_META, TAG_DUMP_READS])?;
        let meta = f.section(TAG_DUMP_META)?;
        let mut meta = Cursor::new(&meta);
        let workflow = if meta.read_u64()? != 0 {
            Workflow::Paired
        } else {
            Workflow::Single
        };
        let read_count = meta.read_u64()?;
        let blocks = f.into_blocks(TAG_DUMP_READS)?;
        let read_count = bounded(read_count, blocks.remaining() / 2, "read count")?;
        Ok(DumpReader {
            workflow,
            read_count,
            left: read_count,
            blocks,
            window: Vec::new(),
            pos: 0,
        })
    }

    /// Single- or paired-end, as the dump records it.
    pub fn workflow(&self) -> Workflow {
        self.workflow
    }

    /// Reads in the dump, decoded or not.
    pub fn read_count(&self) -> usize {
        self.read_count
    }

    /// How many leading reads [`SeedDump::subsample`] would keep of this
    /// dump: decode that many first to hold only the subsample.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction <= 1.0`.
    pub fn subsample_len(&self, fraction: f64) -> usize {
        subsample_len(self.read_count, self.workflow, fraction)
    }

    /// Decodes the next `max` reads (fewer at the end) into `reads`, which
    /// afterwards holds exactly them: empty once the dump is exhausted.
    /// Reads already in `reads` are overwritten in place, so their `bases`
    /// and `seeds` buffers are reused from chunk to chunk.
    ///
    /// # Errors
    ///
    /// Returns codec or [`Error::Corrupt`] errors for a malformed read, and
    /// [`Error::Io`] or [`Error::ChecksumMismatch`] for a file changed on
    /// disk since it was opened, with `reads` holding the reads of this
    /// call before the fault; and [`Error::Corrupt`] for bytes left after
    /// the last read, with `reads` holding the whole chunk. Either way the
    /// reader is spent: later calls decode nothing.
    pub fn next_chunk(&mut self, reads: &mut Vec<ReadInput>, max: usize) -> Result<()> {
        self.decode_chunk(reads, max, None)
    }

    /// [`DumpReader::next_chunk`] for reads about to meet `graph`: each seed
    /// must also lie on it, on a node the graph has at an offset inside that
    /// node, and is checked as it is decoded. A seed off the graph would
    /// reach the distance index and the kernels unchecked.
    ///
    /// # Errors
    ///
    /// As [`DumpReader::next_chunk`]; a seed off `graph` makes its read
    /// malformed, with an [`Error::Corrupt`] naming the read's id (its
    /// index in the dump) and the seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use mg_core::dump::{DumpReader, SeedDump};
    /// use mg_core::types::{ReadInput, Seed, Workflow};
    /// use mg_graph::{Handle, VariationGraph};
    /// use mg_index::GraphPos;
    /// use mg_support::mgi::MgiFile;
    ///
    /// # fn main() -> mg_support::Result<()> {
    /// let mut graph = VariationGraph::new();
    /// let node = graph.add_node(b"ACGTACGT")?;
    /// let read = |offset| ReadInput {
    ///     bases: b"ACGT".to_vec(),
    ///     seeds: vec![Seed::new(0, GraphPos::new(Handle::forward(node), offset))],
    /// };
    /// let file = MgiFile::open_bytes(SeedDump::new(Workflow::Single, vec![read(7)]).to_bytes()?)?;
    /// let mut chunk = Vec::new();
    /// assert!(DumpReader::new(file)?.next_chunk_on(&graph, &mut chunk, 8).is_ok());
    /// let dump = SeedDump::new(Workflow::Single, vec![read(0), read(8), read(16)]);
    /// let file = MgiFile::open_bytes(dump.to_bytes()?)?;
    /// let err = DumpReader::new(file)?.next_chunk_on(&graph, &mut chunk, 8).unwrap_err();
    /// assert!(err.to_string().contains("read 1: seed at read offset 0: offset 8 is past"));
    /// assert_eq!(chunk, dump.reads[..1]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn next_chunk_on(
        &mut self,
        graph: &VariationGraph,
        reads: &mut Vec<ReadInput>,
        max: usize,
    ) -> Result<()> {
        self.decode_chunk(reads, max, Some(graph.sequence_offsets()))
    }

    /// Both chunk decoders; `nodes`, when given, is the pangenome's
    /// [`VariationGraph::sequence_offsets`], which every seed must lie in.
    fn decode_chunk(
        &mut self,
        reads: &mut Vec<ReadInput>,
        max: usize,
        nodes: Option<&[u64]>,
    ) -> Result<()> {
        let take = max.min(self.left);
        let first_id = (self.read_count - self.left) as u64;
        let mut filled = 0;
        let mut outcome = Ok(());
        while filled < take {
            if filled == reads.len() {
                reads.push(ReadInput::default());
            }
            let id = first_id + filled as u64;
            if let Err(e) = self.decode_next(&mut reads[filled], nodes, id) {
                outcome = Err(e);
                break;
            }
            filled += 1;
        }
        reads.truncate(filled);
        self.left -= filled;
        if outcome.is_ok()
            && self.left == 0
            && (self.pos < self.window.len() || self.blocks.remaining() > 0)
        {
            outcome = Err(Error::Corrupt("trailing bytes after reads".into()));
        }
        if outcome.is_err() {
            self.left = 0;
            self.window = Vec::new();
            self.pos = 0;
        }
        outcome
    }

    /// Decodes the next read, read `id` of the dump, into `read`. A read
    /// that runs past the window is decoded again from its start once the
    /// next block is in.
    fn decode_next(&mut self, read: &mut ReadInput, nodes: Option<&[u64]>, id: u64) -> Result<()> {
        loop {
            let mut cur = Cursor::new(&self.window[self.pos..]);
            match decode_read(&mut cur, self.blocks.remaining(), read, nodes, id) {
                Ok(()) => {
                    self.pos += cur.position();
                    return Ok(());
                }
                Err(Error::UnexpectedEof { .. }) if self.blocks.remaining() > 0 => {
                    // Keep the undecoded tail, then append a block to it.
                    self.window.drain(..self.pos);
                    self.pos = 0;
                    self.blocks.read_into(&mut self.window)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Decodes the read at `cur`, read `id` of the dump, into `read`, reusing
/// its buffers, and checks each seed against `nodes` when given. `behind`
/// section bytes follow `cur`'s: counts and lengths are bounded by both.
fn decode_read(
    cur: &mut Cursor<'_>,
    behind: usize,
    read: &mut ReadInput,
    nodes: Option<&[u64]>,
    id: u64,
) -> Result<()> {
    let len = bounded(cur.read_u64()?, cur.remaining() + behind, "read length")?;
    read.bases.clear();
    read.bases.extend_from_slice(cur.read_bytes(len)?);
    let seed_count = bounded(cur.read_u64()?, (cur.remaining() + behind) / 3, "seed count")?;
    read.seeds.clear();
    read.seeds.reserve(seed_count);
    let mut read_offset = 0u32;
    for _ in 0..seed_count {
        read_offset = u32::try_from(cur.read_u64()?)
            .ok()
            .and_then(|delta| read_offset.checked_add(delta))
            .ok_or_else(|| Error::Corrupt("seed read offset overflows u32".into()))?;
        let handle = Handle::from_gbwt(cur.read_u64()?)
            .ok_or_else(|| Error::Corrupt("seed handle encodes endmarker".into()))?;
        let offset = u32::try_from(cur.read_u64()?)
            .map_err(|_| Error::Corrupt("seed node offset overflows u32".into()))?;
        if let Some(fault) = nodes.and_then(|nodes| off_graph(nodes, handle.node(), offset)) {
            return Err(Error::Corrupt(format!(
                "read {id}: seed at read offset {read_offset}: {fault}"
            )));
        }
        read.seeds.push(Seed::new(read_offset, GraphPos::new(handle, offset)));
    }
    Ok(())
}

/// Why a seed at `offset` on `node` lies off the pangenome whose sequence
/// offsets are `nodes`, or `None` when it lies on it.
#[inline]
fn off_graph(nodes: &[u64], node: NodeId, offset: u32) -> Option<String> {
    let i = usize::try_from(node.value()).unwrap_or(usize::MAX);
    if i == 0 || i >= nodes.len() {
        return Some(format!("node {node} is not in the pangenome"));
    }
    let len = nodes[i] - nodes[i - 1];
    (u64::from(offset) >= len)
        .then(|| format!("offset {offset} is past the {len} bases of node {node}"))
}

/// How many leading reads of `len` a subsample of `fraction` keeps: the
/// rounded share, at least one read of a nonempty dump, and whole pairs of
/// a paired one.
///
/// # Panics
///
/// Panics unless `0.0 < fraction <= 1.0`.
fn subsample_len(len: usize, workflow: Workflow, fraction: f64) -> usize {
    assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
    let count = ((len as f64 * fraction).round() as usize).clamp(1.min(len), len);
    match workflow {
        Workflow::Paired => count.next_multiple_of(2).min(len),
        Workflow::Single => count,
    }
}

/// `value` as a `usize` no larger than `limit`, or [`Error::Corrupt`].
fn bounded(value: u64, limit: usize, what: &str) -> Result<usize> {
    match usize::try_from(value) {
        Ok(v) if v <= limit => Ok(v),
        _ => Err(Error::Corrupt(format!(
            "{what} {value} exceeds the {limit} the payload has room for"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_dump(n: usize, workflow: Workflow) -> SeedDump {
        let reads = (0..n)
            .map(|i| ReadInput {
                bases: vec![b"ACGT"[i % 4]; 10 + i % 5],
                seeds: (0..(i % 4))
                    .map(|s| {
                        Seed::new(
                            s as u32 * 2,
                            GraphPos::new(
                                Handle::forward(NodeId::new(1 + (i + s) as u64)),
                                (s % 3) as u32,
                            ),
                        )
                    })
                    .collect(),
            })
            .collect();
        SeedDump::new(workflow, reads)
    }

    #[test]
    fn roundtrip_bytes() {
        let dump = sample_dump(13, Workflow::Single);
        assert_eq!(SeedDump::from_bytes(&dump.to_bytes().unwrap()).unwrap(), dump);
    }

    #[test]
    fn roundtrip_paired() {
        let dump = sample_dump(6, Workflow::Paired);
        let back = SeedDump::from_bytes(&dump.to_bytes().unwrap()).unwrap();
        assert_eq!(back.workflow, Workflow::Paired);
        assert_eq!(back, dump);
    }

    #[test]
    fn totals() {
        let dump = sample_dump(8, Workflow::Single);
        assert_eq!(dump.total_seeds(), dump.reads.iter().map(|r| r.seeds.len()).sum());
        assert_eq!(dump.total_bases(), dump.reads.iter().map(|r| r.bases.len()).sum());
    }

    #[test]
    fn decoding_the_subsample_prefix_equals_subsample() {
        for workflow in [Workflow::Single, Workflow::Paired] {
            for len in [0, 1, 2, 10] {
                let dump = sample_dump(len, workflow);
                for fraction in [0.11, 0.0001, 0.5, 1.0] {
                    let file = MgiFile::open_bytes(dump.to_bytes().unwrap()).unwrap();
                    let mut reader = DumpReader::new(file).unwrap();
                    let mut prefix = Vec::new();
                    reader.next_chunk(&mut prefix, reader.subsample_len(fraction)).unwrap();
                    let at = format!("{workflow} dump of {len}, fraction {fraction}");
                    assert_eq!(prefix, dump.subsample(fraction).reads, "{at}");
                }
            }
        }
    }

    #[test]
    fn subsample_takes_prefix() {
        let dump = sample_dump(100, Workflow::Single);
        let sub = dump.subsample(0.1);
        assert_eq!(sub.reads.len(), 10);
        assert_eq!(sub.reads[..], dump.reads[..10]);
    }

    #[test]
    fn subsample_keeps_whole_pairs() {
        let dump = sample_dump(10, Workflow::Paired);
        let sub = dump.subsample(0.11); // 1.1 -> rounds to 1 -> bumps to 2
        assert_eq!(sub.reads.len() % 2, 0);
        assert!(!sub.reads.is_empty());
    }

    #[test]
    fn subsample_never_empties() {
        let dump = sample_dump(3, Workflow::Single);
        assert_eq!(dump.subsample(0.0001).reads.len(), 1);
        assert_eq!(dump.subsample(1.0).reads.len(), 3);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn subsample_rejects_zero() {
        sample_dump(3, Workflow::Single).subsample(0.0);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let dump = sample_dump(4, Workflow::Single);
        let mut bytes = dump.to_bytes().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        assert!(SeedDump::from_bytes(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            raw in proptest::collection::vec(
                (
                    proptest::collection::vec(proptest::sample::select(b"ACGTN".to_vec()), 0..40),
                    proptest::collection::vec((0u32..200, 1u64..1000, any::<bool>(), 0u32..30), 0..8),
                ),
                0..20,
            ),
            paired: bool,
        ) {
            let reads: Vec<ReadInput> = raw
                .into_iter()
                .map(|(bases, seeds)| {
                    let mut seeds: Vec<Seed> = seeds
                        .into_iter()
                        .map(|(ro, node, rev, off)| {
                            let h = if rev {
                                Handle::reverse(NodeId::new(node))
                            } else {
                                Handle::forward(NodeId::new(node))
                            };
                            Seed::new(ro, GraphPos::new(h, off))
                        })
                        .collect();
                    // The format delta-encodes read offsets: keep sorted.
                    seeds.sort();
                    ReadInput { bases, seeds }
                })
                .collect();
            let workflow = if paired { Workflow::Paired } else { Workflow::Single };
            let dump = SeedDump::new(workflow, reads);
            prop_assert_eq!(SeedDump::from_bytes(&dump.to_bytes().unwrap()).unwrap(), dump);
        }
    }
}
