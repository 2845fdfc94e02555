//! On-disk forms of the minimizer and distance indices.
//!
//! Giraffe ships its indices as standalone artifacts (`.min`, `.dist`)
//! built once and memory-mapped at mapping time; these are the analogous
//! container payloads so a pangenome's indices can be built once and
//! shipped alongside the `.mgz`.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use mg_support::container::{ContainerReader, ContainerWriter};
use mg_support::mgi::{
    put_u32, put_u64, put_u64_slice, FixedReader, MgiFile, MgiWriter, Storage, TAG_MIN_KMERS,
    TAG_MIN_META, TAG_MIN_POSITIONS, TAG_MIN_STARTS,
};
use mg_support::varint::{self, Cursor};
use mg_support::{Error, Result};

use crate::minimizer::{GraphPos, MinimizerIndex, MinimizerParams};

/// Container kind for minimizer index files.
pub const MIN_KIND: [u8; 4] = *b"MGMI";
/// Section tag for the minimizer payload.
pub const TAG_MINIMIZERS: u32 = 0x0020;

impl MinimizerIndex {
    /// Serializes the index to a byte payload (k-mers ascending, as the
    /// table holds them, so the encoding is canonical: equal indices produce
    /// equal bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let params = self.params();
        varint::write_u64(&mut out, params.k as u64);
        varint::write_u64(&mut out, params.w as u64);
        varint::write_u64(&mut out, self.distinct_kmers() as u64);
        let mut prev_kmer = 0u64;
        for (kmer, positions) in self.entries() {
            varint::write_u64(&mut out, kmer - prev_kmer);
            prev_kmer = kmer;
            varint::write_u64(&mut out, positions.len() as u64);
            for pos in positions {
                varint::write_u64(&mut out, pos.handle.packed());
                varint::write_u64(&mut out, pos.offset as u64);
            }
        }
        out
    }

    /// Deserializes an index written by [`MinimizerIndex::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns codec errors and [`Error::Corrupt`] for invalid structure.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let mut cur = Cursor::new(data);
        let k = cur.read_u64()? as usize;
        let w = cur.read_u64()? as usize;
        if !(1..=31).contains(&k) || w == 0 {
            return Err(Error::Corrupt(format!("invalid minimizer params k={k} w={w}")));
        }
        let params = MinimizerParams::new(k, w);
        let kmer_count = cur.read_u64()?;
        // Counts are untrusted until the bytes behind them exist: every
        // k-mer entry costs at least two encoded bytes (delta + position
        // count), so a count the remaining input cannot possibly hold is
        // corruption — reject it before reserving anything.
        if kmer_count > (cur.remaining() / 2) as u64 {
            return Err(Error::Corrupt(format!(
                "k-mer count {kmer_count} exceeds what {} remaining bytes could encode",
                cur.remaining()
            )));
        }
        let kmer_count = kmer_count as usize;
        // The payload lists k-mers ascending (delta-coded), which is the
        // table's own order: decode straight into the flat arrays.
        let mut kmers: Vec<u64> = Vec::with_capacity(kmer_count);
        let mut starts: Vec<u64> = Vec::with_capacity(kmer_count + 1);
        let mut positions: Vec<GraphPos> = Vec::new();
        starts.push(0);
        let mut kmer = 0u64;
        for _ in 0..kmer_count {
            kmer = kmer
                .checked_add(cur.read_u64()?)
                .ok_or_else(|| Error::Corrupt("minimizer k-mer delta overflows".into()))?;
            let n = cur.read_u64()?;
            // Same guard per entry: each position is at least two bytes
            // (handle varint + offset varint).
            if n > (cur.remaining() / 2) as u64 {
                return Err(Error::Corrupt(format!(
                    "position count {n} exceeds what {} remaining bytes could encode",
                    cur.remaining()
                )));
            }
            positions.reserve(n as usize);
            for _ in 0..n {
                let handle = mg_graph::Handle::from_gbwt(cur.read_u64()?)
                    .ok_or_else(|| Error::Corrupt("minimizer position encodes endmarker".into()))?;
                let offset = cur.read_u64()?;
                let offset = u32::try_from(offset).map_err(|_| {
                    Error::Corrupt(format!("minimizer offset {offset} exceeds u32 range"))
                })?;
                positions.push(GraphPos::new(handle, offset));
            }
            kmers.push(kmer);
            starts.push(positions.len() as u64);
        }
        if !cur.is_at_end() {
            return Err(Error::Corrupt("trailing bytes after minimizer index".into()));
        }
        // A zero delta past the first entry repeats a k-mer; the directory
        // pass rejects it along with values wider than 2k bits.
        MinimizerIndex::from_flat_parts(
            params,
            Storage::Owned(kmers),
            Storage::Owned(starts),
            Storage::Owned(positions),
        )
    }

    /// Appends the index to a `.mgi` container in its flat in-memory form:
    /// sorted k-mers, CSR starts, and a 16-byte-per-entry position arena
    /// (handle, offset, explicit zero padding) that
    /// [`MinimizerIndex::from_mgi`] borrows without decoding.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        let params = self.params();
        let mut meta = Vec::new();
        put_u64(&mut meta, params.k as u64);
        put_u64(&mut meta, params.w as u64);
        put_u64(&mut meta, self.distinct_kmers() as u64);
        put_u64(&mut meta, self.total_positions() as u64);
        w.section(TAG_MIN_META, meta);

        let (kmers, starts, arena) = self.flat_parts();
        let mut kmer_bytes = Vec::new();
        put_u64_slice(&mut kmer_bytes, kmers);
        let mut start_bytes = Vec::new();
        put_u64_slice(&mut start_bytes, starts);
        let mut positions = Vec::with_capacity(arena.len() * 16);
        for pos in arena {
            put_u64(&mut positions, pos.handle.packed());
            put_u32(&mut positions, pos.offset);
            put_u32(&mut positions, 0); // tail padding, pinned to zero
        }
        w.section(TAG_MIN_KMERS, kmer_bytes);
        w.section(TAG_MIN_STARTS, start_bytes);
        w.section(TAG_MIN_POSITIONS, positions);
    }

    /// Borrows an index out of a validated `.mgi` container: the arrays are
    /// bounds- and invariant-checked but never copied or decoded.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when any structural invariant fails.
    pub fn from_mgi(f: &MgiFile) -> Result<Self> {
        let mut meta = FixedReader::new(f.section(TAG_MIN_META)?);
        let k = meta.read_u64()? as usize;
        let w = meta.read_u64()? as usize;
        let kmer_count = meta.read_u64()? as usize;
        let total_positions = meta.read_u64()? as usize;
        if !meta.is_at_end() {
            return Err(Error::Corrupt("minimizer meta has trailing bytes".into()));
        }
        if !(1..=31).contains(&k) || w == 0 {
            return Err(Error::Corrupt(format!("invalid minimizer params k={k} w={w}")));
        }
        let params = MinimizerParams::new(k, w);

        let kmers = f.section_storage::<u64>(TAG_MIN_KMERS)?;
        let starts = f.section_storage::<u64>(TAG_MIN_STARTS)?;
        let positions = f.section_storage::<GraphPos>(TAG_MIN_POSITIONS)?;
        if kmers.len() != kmer_count {
            return Err(Error::Corrupt(format!(
                "minimizer k-mer section holds {} entries, meta claims {kmer_count}",
                kmers.len()
            )));
        }
        if positions.len() != total_positions {
            return Err(Error::Corrupt(format!(
                "minimizer position arena holds {} entries, meta claims {total_positions}",
                positions.len()
            )));
        }
        if starts.len() != kmer_count + 1
            || starts.first().copied().unwrap_or(u64::MAX) != 0
            || starts.last().copied() != Some(total_positions as u64)
        {
            return Err(Error::Corrupt("minimizer CSR offsets malformed".into()));
        }
        // Every k-mer owns at least one position (build never records empty
        // runs), and each run is sorted and deduplicated.
        if !starts.windows(2).all(|p| p[0] < p[1]) {
            return Err(Error::Corrupt("minimizer CSR offsets not strictly increasing".into()));
        }
        for pos in positions.iter() {
            if mg_graph::Handle::from_gbwt(pos.handle.packed()).is_none() {
                return Err(Error::Corrupt("minimizer position encodes endmarker".into()));
            }
        }
        for i in 0..kmer_count {
            let run = &positions[starts[i] as usize..starts[i + 1] as usize];
            if !run.windows(2).all(|p| p[0] < p[1]) {
                return Err(Error::Corrupt(
                    "minimizer position run not sorted and deduplicated".into(),
                ));
            }
        }
        // Last, the pass over the k-mer section: strictly ascending, each
        // within 2k bits, and the bucket directory filled as it goes. By
        // now the section's length is known to match the rest of the table.
        MinimizerIndex::from_flat_parts(params, kmers, starts, positions)
    }

    /// Writes a `.min`-analog file.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = BufWriter::new(File::create(path)?);
        let mut writer = ContainerWriter::new(file, MIN_KIND)?;
        writer.section(TAG_MINIMIZERS, &self.to_bytes())?;
        writer.finish()?;
        Ok(())
    }

    /// Reads a `.min`-analog file.
    ///
    /// # Errors
    ///
    /// Returns filesystem and format errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let file = BufReader::new(File::open(path)?);
        let mut reader = ContainerReader::new(file, MIN_KIND)?;
        let index = Self::from_bytes(&reader.expect_section(TAG_MINIMIZERS)?)?;
        reader.expect_end()?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};

    fn sample_index() -> MinimizerIndex {
        let p = PangenomeBuilder::new(b"ACGTTGCAACGTACGTTGCATTGACCAGTTGA".to_vec())
            .variants(vec![Variant::snp(9, b'T')])
            .haplotypes(vec![vec![0], vec![1]])
            .max_node_len(7)
            .build()
            .unwrap();
        MinimizerIndex::build(
            p.graph(),
            p.paths().iter().map(|h| h.handles.as_slice()),
            MinimizerParams::new(7, 3),
        )
    }

    #[test]
    fn bytes_roundtrip_preserves_queries() {
        let index = sample_index();
        let back = MinimizerIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back.params(), index.params());
        assert_eq!(back.distinct_kmers(), index.distinct_kmers());
        assert_eq!(back.total_positions(), index.total_positions());
        // Every query result identical.
        let read = b"ACGTTGCAACGTACG";
        assert_eq!(back.query(read, 100), index.query(read, 100));
    }

    #[test]
    fn encoding_is_canonical() {
        let a = sample_index();
        let b = MinimizerIndex::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn file_roundtrip() {
        let index = sample_index();
        let dir = std::env::temp_dir().join(format!("mg-min-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.min");
        index.save(&path).unwrap();
        let back = MinimizerIndex::load(&path).unwrap();
        assert_eq!(back.to_bytes(), index.to_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let index = sample_index();
        let mut bytes = index.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(MinimizerIndex::from_bytes(&bytes).is_err());
    }

    #[test]
    fn huge_kmer_count_rejected_without_allocating() {
        // A 4-byte tail claiming 2^40 k-mers used to hit
        // `table.reserve(kmer_count)` and abort on allocation before any
        // bounds check; now it is plain corruption.
        let mut bytes = Vec::new();
        mg_support::varint::write_u64(&mut bytes, 7); // k
        mg_support::varint::write_u64(&mut bytes, 3); // w
        mg_support::varint::write_u64(&mut bytes, 1 << 40); // absurd count, no entries
        assert!(matches!(
            MinimizerIndex::from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn huge_position_count_rejected_without_allocating() {
        let mut bytes = Vec::new();
        mg_support::varint::write_u64(&mut bytes, 7); // k
        mg_support::varint::write_u64(&mut bytes, 3); // w
        mg_support::varint::write_u64(&mut bytes, 1); // one k-mer
        mg_support::varint::write_u64(&mut bytes, 5); // delta
        mg_support::varint::write_u64(&mut bytes, 1 << 41); // absurd positions
        assert!(matches!(
            MinimizerIndex::from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_offset_rejected_not_truncated() {
        // Offsets above u32::MAX used to be silently truncated with `as
        // u32`, turning corruption into a valid-looking position.
        let mut bytes = Vec::new();
        mg_support::varint::write_u64(&mut bytes, 7); // k
        mg_support::varint::write_u64(&mut bytes, 3); // w
        mg_support::varint::write_u64(&mut bytes, 1); // one k-mer
        mg_support::varint::write_u64(&mut bytes, 5); // delta
        mg_support::varint::write_u64(&mut bytes, 1); // one position
        mg_support::varint::write_u64(
            &mut bytes,
            mg_graph::Handle::forward(mg_graph::NodeId::new(1)).packed(),
        );
        mg_support::varint::write_u64(&mut bytes, (u32::MAX as u64) + 1); // offset
        assert!(matches!(
            MinimizerIndex::from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn mgi_roundtrip_is_query_identical() {
        let index = sample_index();
        let mut w = MgiWriter::new();
        index.write_mgi(&mut w);
        let f = MgiFile::open_bytes(w.finish()).unwrap();
        let back = MinimizerIndex::from_mgi(&f).unwrap();
        assert_eq!(back.params(), index.params());
        assert_eq!(back.distinct_kmers(), index.distinct_kmers());
        assert_eq!(back.total_positions(), index.total_positions());
        // The canonical encoding (and hence any downstream GAF) cannot tell
        // the backings apart.
        assert_eq!(back.to_bytes(), index.to_bytes());
        let read = b"ACGTTGCAACGTACGTTGCATTGACC";
        for cap in [1, 3, 1000] {
            assert_eq!(back.query(read, cap), index.query(read, cap));
        }
        for kmer in index.kmers() {
            assert_eq!(back.positions(kmer), index.positions(kmer));
        }
    }

    #[test]
    fn mgi_rejects_unsorted_kmers() {
        let index = sample_index();
        let mut w = MgiWriter::new();
        index.write_mgi(&mut w);
        let mut bytes = w.finish();
        // Rewriting any payload invalidates its checksum, so corrupt the
        // structure through the writer instead: swap two k-mers.
        let f = MgiFile::open_bytes(bytes.clone()).unwrap();
        let mut kmers: Vec<u8> = f.section(TAG_MIN_KMERS).unwrap().to_vec();
        assert!(kmers.len() >= 16);
        let (a, b) = kmers.split_at_mut(8);
        a[..8].swap_with_slice(&mut b[..8]);
        let mut w2 = MgiWriter::new();
        w2.section(TAG_MIN_META, f.section(TAG_MIN_META).unwrap().to_vec());
        w2.section(TAG_MIN_KMERS, kmers);
        w2.section(TAG_MIN_STARTS, f.section(TAG_MIN_STARTS).unwrap().to_vec());
        w2.section(TAG_MIN_POSITIONS, f.section(TAG_MIN_POSITIONS).unwrap().to_vec());
        bytes = w2.finish();
        let f2 = MgiFile::open_bytes(bytes).unwrap();
        assert!(matches!(MinimizerIndex::from_mgi(&f2), Err(Error::Corrupt(_))));
    }

    #[test]
    fn bad_params_rejected() {
        let mut bytes = Vec::new();
        mg_support::varint::write_u64(&mut bytes, 99); // k = 99 invalid
        mg_support::varint::write_u64(&mut bytes, 5);
        mg_support::varint::write_u64(&mut bytes, 0);
        assert!(MinimizerIndex::from_bytes(&bytes).is_err());
    }
}
