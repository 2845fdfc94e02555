//! The minimizer index's on-disk form: its sections of a `.mgi` container.
//!
//! Giraffe ships its minimizer index as a standalone `.min` artifact built
//! once and memory-mapped at mapping time; here the same flat table travels
//! inside the `.mgi` beside the graph and the GBWT, and is borrowed from the
//! mapping without decoding.

use mg_support::mgi::{
    put_u32, put_u64, put_u64_slice, FixedReader, MgiFile, MgiWriter, TAG_MIN_KMERS, TAG_MIN_META,
    TAG_MIN_POSITIONS, TAG_MIN_STARTS,
};
use mg_support::{Error, Result};

use crate::minimizer::{GraphPos, MinimizerIndex, MinimizerParams};

impl MinimizerIndex {
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
        let f = MgiFile::open_bytes(mgi_bytes(&sample_index())).unwrap();
        let mut w = MgiWriter::new();
        for tag in [TAG_MIN_META, TAG_MIN_KMERS, TAG_MIN_STARTS, TAG_MIN_POSITIONS] {
            let mut payload = f.section(tag).unwrap().to_vec();
            edit(tag, &mut payload);
            w.section(tag, payload);
        }
        MinimizerIndex::from_mgi(&MgiFile::open_bytes(w.finish())?)
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
        let f = MgiFile::open_bytes(mgi_bytes(&index)).unwrap();
        let back = MinimizerIndex::from_mgi(&f).unwrap();
        assert_eq!(back.params(), index.params());
        assert_eq!(back.distinct_kmers(), index.distinct_kmers());
        assert_eq!(back.total_positions(), index.total_positions());
        // Equality compares the table itself, so no query can tell the
        // backings apart.
        assert_eq!(back, index);
        let read = b"ACGTTGCAACGTACGTTGCATTGACC";
        for cap in [1, 3, 1000] {
            assert_eq!(back.query(read, cap), index.query(read, cap));
        }
        for kmer in index.kmers() {
            assert_eq!(back.positions(kmer), index.positions(kmer));
        }
    }

    #[test]
    fn encoding_is_canonical() {
        // Every field and padding byte is written explicitly, so an index
        // and its reopened copy serialize to the same bytes.
        let a = sample_index();
        let b = MinimizerIndex::from_mgi(&MgiFile::open_bytes(mgi_bytes(&a)).unwrap()).unwrap();
        assert_eq!(mgi_bytes(&a), mgi_bytes(&b));
    }

    #[test]
    fn file_roundtrip() {
        let index = sample_index();
        let dir = std::env::temp_dir().join(format!("mg-min-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.mgi");
        std::fs::write(&path, mgi_bytes(&index)).unwrap();
        let back = MinimizerIndex::from_mgi(&MgiFile::open(&path).unwrap()).unwrap();
        assert!(back.is_mapped());
        assert_eq!(back, index);
        drop(back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mgi_rejects_unsorted_kmers() {
        let swapped = resectioned(|tag, payload| {
            if tag == TAG_MIN_KMERS {
                let (a, b) = payload.split_at_mut(8);
                a.swap_with_slice(&mut b[..8]);
            }
        });
        assert!(matches!(swapped, Err(Error::Corrupt(_))));
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let mut bytes = mgi_bytes(&sample_index());
        bytes.truncate(bytes.len() / 2);
        assert!(MgiFile::open_bytes(bytes).and_then(|f| MinimizerIndex::from_mgi(&f)).is_err());
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
