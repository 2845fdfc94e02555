//! The `.mgz` file: a variation graph bundled with its GBWT.
//!
//! This is our analog of the GBZ file format Giraffe loads its pangenomes
//! from: one file holding both the sequence graph and the haplotype index,
//! whose GBWT records stay run-length compressed and are decoded one node
//! at a time by the record cache. The file is an [`mg_support::mgi`]
//! container holding exactly the ten sections [`Gbz::write_mgi`] emits —
//! five for the graph, five for the GBWT — so loading is one streamed read
//! of each section plus validation, and an `.mgi` bundle is the same
//! sections plus the prebuilt minimizer and distance indexes.

use std::path::Path;

use mg_graph::VariationGraph;
use mg_support::mgi::{
    MgiFile, MgiWriter, TAG_GBWT_ENDMARKER, TAG_GBWT_END_IDS, TAG_GBWT_META, TAG_GBWT_OFFSETS,
    TAG_GBWT_RECORDS, TAG_GRAPH_ADJ_OFFSETS, TAG_GRAPH_ADJ_TARGETS, TAG_GRAPH_META, TAG_GRAPH_SEQ,
    TAG_GRAPH_SEQ_OFFSETS,
};
use mg_support::Result;

use crate::gbwt::Gbwt;

/// The sections of a `.mgz`: the graph's five, then the GBWT's five.
const GBZ_TAGS: [u32; 10] = [
    TAG_GRAPH_META,
    TAG_GRAPH_SEQ,
    TAG_GRAPH_SEQ_OFFSETS,
    TAG_GRAPH_ADJ_OFFSETS,
    TAG_GRAPH_ADJ_TARGETS,
    TAG_GBWT_META,
    TAG_GBWT_RECORDS,
    TAG_GBWT_OFFSETS,
    TAG_GBWT_ENDMARKER,
    TAG_GBWT_END_IDS,
];

/// A pangenome reference ready for mapping: graph + haplotype index.
///
/// # Examples
///
/// ```
/// # fn main() -> mg_support::Result<()> {
/// use mg_graph::pangenome::{PangenomeBuilder, Variant};
/// use mg_gbwt::{Gbz, GbwtBuilder};
///
/// let p = PangenomeBuilder::new(b"ACGTACGTACGT".to_vec())
///     .variants(vec![Variant::snp(4, b'T')])
///     .haplotypes(vec![vec![0], vec![1]])
///     .build()?;
/// let gbz = Gbz::from_pangenome(p)?;
/// let bytes = gbz.to_bytes()?;
/// let back = Gbz::from_bytes(&bytes)?;
/// assert_eq!(back.graph().node_count(), gbz.graph().node_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gbz {
    graph: VariationGraph,
    gbwt: Gbwt,
}

impl Gbz {
    /// Bundles a graph and its GBWT.
    pub fn new(graph: VariationGraph, gbwt: Gbwt) -> Self {
        Gbz { graph, gbwt }
    }

    /// Builds a GBZ directly from a [`mg_graph::Pangenome`], indexing every
    /// haplotype path bidirectionally.
    ///
    /// # Errors
    ///
    /// Returns an error if the pangenome has no haplotype paths.
    pub fn from_pangenome(pangenome: mg_graph::Pangenome) -> Result<Self> {
        let (graph, paths) = pangenome.into_parts();
        let mut builder = crate::GbwtBuilder::new();
        for path in &paths {
            builder = builder.insert(&path.handles);
        }
        Ok(Gbz {
            graph,
            gbwt: builder.build()?,
        })
    }

    /// The sequence graph.
    pub fn graph(&self) -> &VariationGraph {
        &self.graph
    }

    /// The haplotype index.
    pub fn gbwt(&self) -> &Gbwt {
        &self.gbwt
    }

    /// Decomposes into `(graph, gbwt)`.
    pub fn into_parts(self) -> (VariationGraph, Gbwt) {
        (self.graph, self.gbwt)
    }

    /// Serializes to an in-memory `.mgz` image.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is kept for API stability.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        Ok(self.mgz_writer().finish())
    }

    /// Deserializes from an in-memory `.mgz` image.
    ///
    /// # Errors
    ///
    /// Returns container errors for malformed input, and
    /// [`mg_support::Error::BadTag`] for a container holding any section
    /// besides the ten of a `.mgz` (an `.mgi` bundle, a seed dump).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_mgz(MgiFile::open_bytes(bytes.to_vec())?)
    }

    fn mgz_writer(&self) -> MgiWriter {
        let mut w = MgiWriter::new();
        self.write_mgi(&mut w);
        w
    }

    fn from_mgz(mut f: MgiFile) -> Result<Self> {
        f.expect_only(&GBZ_TAGS)?;
        let gbz = Self::from_mgi(&mut f)?;
        f.finish()?;
        Ok(gbz)
    }

    /// Appends graph and GBWT to a `.mgi` container in their in-memory
    /// layouts (see [`VariationGraph::write_mgi`] and [`Gbwt::write_mgi`]).
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        self.graph.write_mgi(w);
        self.gbwt.write_mgi(w);
    }

    /// Loads graph and GBWT from a `.mgi` container.
    ///
    /// # Errors
    ///
    /// Returns [`mg_support::Error::Corrupt`] for structural inconsistency.
    pub fn from_mgi(f: &mut MgiFile) -> Result<Self> {
        let graph = VariationGraph::from_mgi(f)?;
        let gbwt = Gbwt::from_mgi(f)?;
        Ok(Gbz { graph, gbwt })
    }

    /// Writes a `.mgz` file.
    ///
    /// # Errors
    ///
    /// Returns IO errors from the filesystem.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.mgz_writer().write_to(path.as_ref())
    }

    /// Reads a `.mgz` file and validates it.
    ///
    /// # Errors
    ///
    /// Returns IO and format errors, including
    /// [`mg_support::Error::BadTag`] for a container that is not a `.mgz`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_mgz(MgiFile::open(path.as_ref())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};

    fn sample_gbz() -> Gbz {
        let p = PangenomeBuilder::new(b"ACGTACGTACGTACGTAACC".to_vec())
            .variants(vec![Variant::snp(4, b'T'), Variant::deletion(10, 2)])
            .haplotypes(vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]])
            .max_node_len(6)
            .build()
            .unwrap();
        Gbz::from_pangenome(p).unwrap()
    }

    #[test]
    fn bytes_roundtrip() {
        let gbz = sample_gbz();
        let bytes = gbz.to_bytes().unwrap();
        let f = MgiFile::open_bytes(bytes.clone()).unwrap();
        assert_eq!(f.tags().collect::<Vec<_>>(), GBZ_TAGS);
        let back = Gbz::from_bytes(&bytes).unwrap();
        assert_eq!(gbz, back);
        assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn file_roundtrip() {
        let gbz = sample_gbz();
        let dir = std::env::temp_dir().join(format!("mgz-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.mgz");
        gbz.save(&path).unwrap();
        let back = Gbz::load(&path).unwrap();
        assert_eq!(gbz, back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mgi_roundtrip() {
        let gbz = sample_gbz();
        let mut w = MgiWriter::new();
        gbz.write_mgi(&mut w);
        let back = Gbz::from_mgi(&mut MgiFile::open_bytes(w.finish()).unwrap()).unwrap();
        assert_eq!(gbz, back);
        for p in 0..4 {
            assert_eq!(
                back.gbwt().sequence(2 * p).unwrap(),
                gbz.gbwt().sequence(2 * p).unwrap()
            );
        }
    }

    #[test]
    fn rejects_wrong_kind() {
        let gbz = sample_gbz();
        let mut bytes = gbz.to_bytes().unwrap();
        bytes[0] = b'X'; // corrupt the magic
        assert!(Gbz::from_bytes(&bytes).is_err());
        // Every section of a `.mgz` plus one more is not a `.mgz`.
        let mut w = gbz.mgz_writer();
        w.section(mg_support::mgi::TAG_DUMP_META, Vec::new());
        assert!(matches!(
            Gbz::from_bytes(&w.finish()),
            Err(mg_support::Error::BadTag { expected: None, .. })
        ));
    }

    #[test]
    fn haplotype_paths_survive_in_gbwt() {
        let gbz = sample_gbz();
        // Four paths inserted bidirectionally.
        assert_eq!(gbz.gbwt().path_count(), 4);
        assert_eq!(gbz.gbwt().sequence_count(), 8);
        // Every forward sequence must be a valid walk in the graph.
        for p in 0..4 {
            let seq = gbz.gbwt().sequence(2 * p).unwrap();
            for w in seq.windows(2) {
                let from = mg_graph::Handle::from_gbwt(w[0]).unwrap();
                let to = mg_graph::Handle::from_gbwt(w[1]).unwrap();
                assert!(gbz.graph().has_edge(from, to), "edge {from} -> {to}");
            }
        }
    }
}
