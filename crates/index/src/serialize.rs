//! The minimizer index's on-disk form: its sections of a `.mgi` container.
//!
//! Giraffe ships its minimizer index as a standalone `.min` artifact built
//! once and memory-mapped at mapping time; here the same flat table travels
//! inside the `.mgi` beside the graph and the GBWT, and is read back into
//! its two arrays as it was written.

use mg_graph::Handle;
use mg_support::mgi::{
    put_u32, put_u64, Decode, FixedReader, MgiFile, MgiWriter, TAG_MIN_ENTRIES, TAG_MIN_META,
    TAG_MIN_POSITIONS,
};
use mg_support::{Error, Result};

use crate::minimizer::{GraphPos, KmerEntry, MinimizerIndex, MinimizerParams};

/// Appends one position as its 16 stored bytes: handle, offset, and the
/// tail padding pinned to zero.
fn put_pos(out: &mut Vec<u8>, pos: &GraphPos) {
    put_u64(out, pos.handle.packed());
    put_u32(out, pos.offset);
    put_u32(out, 0);
}

/// A position as `put_pos` stores it; the padding is not read.
impl Decode for GraphPos {
    const SIZE: usize = 16;
    fn decode(bytes: &[u8]) -> GraphPos {
        GraphPos::new(Handle::decode(&bytes[..8]), u32::decode(&bytes[8..12]))
    }
}

/// An entry as [`MinimizerIndex::write_mgi`] stores it: k-mer, first
/// position, arena start, count.
impl Decode for KmerEntry {
    const SIZE: usize = 32;
    fn decode(bytes: &[u8]) -> KmerEntry {
        KmerEntry {
            kmer: u64::decode(&bytes[..8]),
            pos: GraphPos::decode(&bytes[8..24]),
            start: u32::decode(&bytes[24..28]),
            count: u32::decode(&bytes[28..]),
        }
    }
}

impl MinimizerIndex {
    /// Appends the index to a `.mgi` container in its flat in-memory form:
    /// one 32-byte entry per k-mer (k-mer, first position, arena start,
    /// count) and the 16-byte-per-position arena, every field and padding
    /// byte written explicitly, so [`MinimizerIndex::from_mgi`] reads both
    /// back without rebuilding anything.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        let params = self.params();
        let mut meta = Vec::new();
        put_u64(&mut meta, params.k as u64);
        put_u64(&mut meta, params.w as u64);
        put_u64(&mut meta, self.distinct_kmers() as u64);
        put_u64(&mut meta, self.total_positions() as u64);
        w.section(TAG_MIN_META, meta);

        let (entries, arena) = self.flat_parts();
        let mut entry_bytes = Vec::with_capacity(entries.len() * 32);
        for e in entries {
            put_u64(&mut entry_bytes, e.kmer);
            put_pos(&mut entry_bytes, &e.pos);
            put_u32(&mut entry_bytes, e.start);
            put_u32(&mut entry_bytes, e.count);
        }
        let mut positions = Vec::with_capacity(arena.len() * 16);
        for pos in arena {
            put_pos(&mut positions, pos);
        }
        w.section(TAG_MIN_ENTRIES, entry_bytes);
        w.section(TAG_MIN_POSITIONS, positions);
    }

    /// Loads an index from a `.mgi` container: the two arrays are read as
    /// they were written, then bounds- and invariant-checked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when any structural invariant fails.
    pub fn from_mgi(f: &mut MgiFile) -> Result<Self> {
        let meta = f.section(TAG_MIN_META)?;
        let mut meta = FixedReader::new(&meta);
        let k = meta.read_u64()? as usize;
        let w = meta.read_u64()? as usize;
        let kmer_count = meta.read_u64()?;
        let total_positions = meta.read_u64()?;
        if !meta.is_at_end() {
            return Err(Error::Corrupt("minimizer meta has trailing bytes".into()));
        }
        if !(1..=31).contains(&k) || w == 0 {
            return Err(Error::Corrupt(format!("invalid minimizer params k={k} w={w}")));
        }
        let params = MinimizerParams::new(k, w);

        let entries: Vec<KmerEntry> = f.array(TAG_MIN_ENTRIES)?;
        let positions: Vec<GraphPos> = f.array(TAG_MIN_POSITIONS)?;
        if entries.len() as u64 != kmer_count {
            return Err(Error::Corrupt(format!(
                "minimizer entry section holds {} entries, meta claims {kmer_count}",
                entries.len()
            )));
        }
        let real = |pos: &GraphPos| mg_graph::Handle::from_gbwt(pos.handle.packed()).is_some();
        // Every entry owns at least one position and names a real first
        // one. A single hit owns no arena; the other `count - 1` positions
        // of each multi-hit k-mer tile the arena in k-mer order, so
        // `start + count - 1` never passes its end, and each run — the
        // entry's first, then its arena slice — is sorted and deduplicated.
        let mut cursor = 0u64;
        let mut total = 0u64;
        for e in entries.iter() {
            if e.count == 0 || !real(&e.pos) {
                return Err(Error::Corrupt("minimizer entry with no real position".into()));
            }
            total += u64::from(e.count);
            if e.count == 1 {
                if e.start != 0 {
                    return Err(Error::Corrupt("single-hit minimizer entry names a run".into()));
                }
                continue;
            }
            let end = cursor + u64::from(e.count) - 1;
            if u64::from(e.start) != cursor || end > positions.len() as u64 {
                return Err(Error::Corrupt(
                    "minimizer runs do not tile the position arena".into(),
                ));
            }
            let rest = &positions[cursor as usize..end as usize];
            if e.pos >= rest[0] || !rest.iter().all(real) || !rest.windows(2).all(|p| p[0] < p[1]) {
                return Err(Error::Corrupt(
                    "minimizer position run not sorted and deduplicated".into(),
                ));
            }
            cursor = end;
        }
        if cursor != positions.len() as u64 {
            return Err(Error::Corrupt(format!(
                "minimizer position arena holds {} entries, the runs cover {cursor}",
                positions.len()
            )));
        }
        if total != total_positions {
            return Err(Error::Corrupt(format!(
                "minimizer entries count {total} positions, meta claims {total_positions}"
            )));
        }
        // Last, the pass over the k-mers: strictly ascending, each within
        // 2k bits, and the bucket directory filled as it goes.
        MinimizerIndex::from_flat_parts(params, entries, positions)
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

    fn mgi_bytes(index: &MinimizerIndex) -> Vec<u8> {
        let mut w = MgiWriter::new();
        index.write_mgi(&mut w);
        w.finish()
    }

    /// The sample index's image, each section's payload passed through
    /// `edit` and re-sectioned with a fresh checksum (so the container
    /// accepts it and the index reader alone must judge it), then opened.
    fn resectioned(edit: impl Fn(u32, &mut Vec<u8>)) -> Result<MinimizerIndex> {
        let mut f = MgiFile::open_bytes(mgi_bytes(&sample_index())).unwrap();
        let mut w = MgiWriter::new();
        for tag in [TAG_MIN_META, TAG_MIN_ENTRIES, TAG_MIN_POSITIONS] {
            let mut payload = f.section(tag).unwrap();
            edit(tag, &mut payload);
            w.section(tag, payload);
        }
        MinimizerIndex::from_mgi(&mut MgiFile::open_bytes(w.finish())?)
    }

    /// An edit setting meta word `i` (k, w, k-mer count, position count).
    fn meta_word(i: usize, value: u64) -> impl Fn(u32, &mut Vec<u8>) {
        move |tag, payload| {
            if tag == TAG_MIN_META {
                payload[i * 8..i * 8 + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
    }

    #[test]
    fn mgi_roundtrip_is_query_identical() {
        let index = sample_index();
        let back = MinimizerIndex::from_mgi(&mut MgiFile::open_bytes(mgi_bytes(&index)).unwrap()).unwrap();
        assert_eq!(back.params(), index.params());
        assert_eq!(back.distinct_kmers(), index.distinct_kmers());
        assert_eq!(back.total_positions(), index.total_positions());
        // Equality compares the table itself, so no query can tell the
        // built and the loaded index apart.
        assert_eq!(back, index);
        let read = b"ACGTTGCAACGTACGTTGCATTGACC";
        for cap in [1, 3, 1000] {
            assert_eq!(back.query(read, cap), index.query(read, cap));
        }
        for kmer in index.kmers() {
            assert!(back.positions(kmer).unwrap().eq(index.positions(kmer).unwrap()));
        }
    }

    #[test]
    fn encoding_is_canonical() {
        // Every field and padding byte is written explicitly, so an index
        // and its reopened copy serialize to the same bytes.
        let a = sample_index();
        let b = MinimizerIndex::from_mgi(&mut MgiFile::open_bytes(mgi_bytes(&a)).unwrap()).unwrap();
        assert_eq!(mgi_bytes(&a), mgi_bytes(&b));
    }

    #[test]
    fn file_roundtrip() {
        let index = sample_index();
        let dir = std::env::temp_dir().join(format!("mg-min-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.mgi");
        std::fs::write(&path, mgi_bytes(&index)).unwrap();
        let back = MinimizerIndex::from_mgi(&mut MgiFile::open(&path).unwrap()).unwrap();
        assert_eq!(back, index);
        drop(back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mgi_rejects_unsorted_kmers() {
        let swapped = resectioned(|tag, payload| {
            if tag == TAG_MIN_ENTRIES {
                let (a, b) = payload.split_at_mut(32);
                a.swap_with_slice(&mut b[..32]);
            }
        });
        assert!(matches!(swapped, Err(Error::Corrupt(_))));
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let mut bytes = mgi_bytes(&sample_index());
        bytes.truncate(bytes.len() / 2);
        assert!(MgiFile::open_bytes(bytes).and_then(|mut f| MinimizerIndex::from_mgi(&mut f)).is_err());
    }

    #[test]
    fn huge_kmer_count_rejected_without_allocating() {
        // The meta counts are checked against the sections before anything
        // is sized by them.
        assert!(matches!(resectioned(meta_word(2, 1 << 40)), Err(Error::Corrupt(_))));
    }

    #[test]
    fn huge_position_count_rejected_without_allocating() {
        assert!(matches!(resectioned(meta_word(3, 1 << 41)), Err(Error::Corrupt(_))));
    }

    #[test]
    fn bad_params_rejected() {
        assert!(resectioned(|_, _| {}).is_ok());
        assert!(resectioned(meta_word(0, 99)).is_err(), "k = 99");
        assert!(resectioned(meta_word(1, 0)).is_err(), "w = 0");
    }
}
