//! The `.mgz` container: a variation graph bundled with its GBWT.
//!
//! This is our analog of the GBZ file format Giraffe loads its pangenomes
//! from: one compressed file holding both the sequence graph and the
//! haplotype index, decompressed at runtime. The container layout comes from
//! [`mg_support::container`]; payload sections are the serializations of
//! [`VariationGraph`] and [`Gbwt`].

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use mg_graph::VariationGraph;
use mg_support::container::{ContainerReader, ContainerWriter};
use mg_support::mgi::{MgiFile, MgiWriter};
use mg_support::Result;

use crate::gbwt::Gbwt;

/// Container kind discriminator for `.mgz` files.
pub const GBZ_KIND: [u8; 4] = *b"GBZG";
/// Section tag of the graph payload.
pub const TAG_GRAPH: u32 = 0x0001;
/// Section tag of the GBWT payload.
pub const TAG_GBWT: u32 = 0x0002;

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
    /// Returns any underlying IO error (not expected for in-memory writes).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut bytes = Vec::new();
        let mut writer = ContainerWriter::new(&mut bytes, GBZ_KIND)?;
        writer.section(TAG_GRAPH, &self.graph.to_bytes())?;
        writer.section(TAG_GBWT, &self.gbwt.to_bytes())?;
        writer.finish()?;
        Ok(bytes)
    }

    /// Deserializes from an in-memory `.mgz` image.
    ///
    /// # Errors
    ///
    /// Returns container/codec errors for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut reader = ContainerReader::new(bytes, GBZ_KIND)?;
        let graph = VariationGraph::from_bytes(&reader.expect_section(TAG_GRAPH)?)?;
        let gbwt = Gbwt::from_bytes(&reader.expect_section(TAG_GBWT)?)?;
        reader.expect_end()?;
        Ok(Gbz { graph, gbwt })
    }

    /// Appends graph and GBWT to a `.mgi` container in their in-memory
    /// layouts (see [`VariationGraph::write_mgi`] and [`Gbwt::write_mgi`]).
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        self.graph.write_mgi(w);
        self.gbwt.write_mgi(w);
    }

    /// Borrows graph and GBWT out of a validated `.mgi` container.
    ///
    /// # Errors
    ///
    /// Returns [`mg_support::Error::Corrupt`] for structural inconsistency.
    pub fn from_mgi(f: &MgiFile) -> Result<Self> {
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
        let file = BufWriter::new(File::create(path)?);
        let mut writer = ContainerWriter::new(file, GBZ_KIND)?;
        writer.section(TAG_GRAPH, &self.graph.to_bytes())?;
        writer.section(TAG_GBWT, &self.gbwt.to_bytes())?;
        writer.finish()?;
        Ok(())
    }

    /// Reads a `.mgz` file.
    ///
    /// # Errors
    ///
    /// Returns IO and format errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let file = BufReader::new(File::open(path)?);
        let mut reader = ContainerReader::new(file, GBZ_KIND)?;
        let graph = VariationGraph::from_bytes(&reader.expect_section(TAG_GRAPH)?)?;
        let gbwt = Gbwt::from_bytes(&reader.expect_section(TAG_GBWT)?)?;
        reader.expect_end()?;
        Ok(Gbz { graph, gbwt })
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
        let back = Gbz::from_bytes(&gbz.to_bytes().unwrap()).unwrap();
        assert_eq!(gbz, back);
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
        let f = MgiFile::open_bytes(w.finish()).unwrap();
        let back = Gbz::from_mgi(&f).unwrap();
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
        bytes[4] = b'X'; // corrupt the kind field
        assert!(Gbz::from_bytes(&bytes).is_err());
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
