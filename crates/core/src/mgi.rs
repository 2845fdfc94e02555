//! The `.mgi` bundle: every index miniGiraffe needs, in one file.
//!
//! A `.mgz` pangenome holds only the graph and the GBWT, so the minimizer
//! and distance indexes are rebuilt from scratch on every run that starts
//! from one. [`MgiBundle`] persists the **in-memory layouts** of all four
//! structures — the forward sequence arena, CSR adjacency, flat minimizer
//! table, distance / chain index, and the compressed GBWT — into one
//! [`mg_support::mgi`] container: the `.mgz`'s ten sections plus the
//! minimizer and distance sections. Opening it streams each section once
//! into the array it becomes, summing it on the way, then checks the
//! structural invariants and derives the graph's reverse-complement arena
//! in one pass: no index is rebuilt.
//!
//! Every component owns plain `Vec`s whether it was built or loaded, so a
//! bundle loaded from disk compares equal to (and writes byte-identically
//! with) the same bundle built in memory.
//!
//! # Examples
//!
//! ```
//! use mg_core::mgi::MgiBundle;
//! use mg_gbwt::Gbz;
//! use mg_graph::pangenome::{PangenomeBuilder, Variant};
//! use mg_index::MinimizerParams;
//!
//! # fn main() -> mg_support::Result<()> {
//! let p = PangenomeBuilder::new(b"ACGTACGTACGTACGT".to_vec())
//!     .variants(vec![Variant::snp(4, b'T')])
//!     .haplotypes(vec![vec![0], vec![1]])
//!     .build()?;
//! let gbz = Gbz::from_pangenome(p)?;
//! let bundle = MgiBundle::build(gbz, MinimizerParams { k: 5, w: 3 })?;
//! let image = bundle.to_bytes();
//! let loaded = MgiBundle::open_bytes(image)?;
//! assert_eq!(&bundle, &loaded);
//! # Ok(())
//! # }
//! ```

use std::path::Path;

use mg_gbwt::Gbz;
use mg_graph::Handle;
use mg_index::{DistanceIndex, MinimizerIndex, MinimizerParams};
use mg_support::mgi::{MgiFile, MgiWriter};
use mg_support::{Error, Result};

/// The complete mapping state persisted in a `.mgi` file: pangenome
/// (graph + GBWT), minimizer index, and distance index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgiBundle {
    gbz: Gbz,
    minimizer: MinimizerIndex,
    distance: DistanceIndex,
}

/// Builds a minimizer index over every haplotype path of a pangenome
/// (forward sequences; the index adds the reverse orientation itself).
///
/// This is the canonical construction shared by `minigiraffe build-mgi`,
/// `parent`, and `serve`: one forward walk per path, symbols decoded to
/// [`Handle`]s, indexed with `params`.
///
/// # Errors
///
/// Returns an error if a GBWT sequence cannot be extracted or contains a
/// symbol that is not a real node visit.
pub fn build_minimizer_index(gbz: &Gbz, params: MinimizerParams) -> Result<MinimizerIndex> {
    let mut paths = Vec::with_capacity(gbz.gbwt().path_count() as usize);
    for p in 0..gbz.gbwt().path_count() {
        let seq_id = if gbz.gbwt().is_bidirectional() { 2 * p } else { p };
        let symbols = gbz.gbwt().sequence(seq_id)?;
        let mut handles = Vec::with_capacity(symbols.len());
        for s in symbols {
            let h = Handle::from_gbwt(s).ok_or_else(|| {
                Error::Corrupt(format!("path {p}: symbol {s} is not a node visit"))
            })?;
            handles.push(h);
        }
        paths.push(handles);
    }
    Ok(MinimizerIndex::build(
        gbz.graph(),
        paths.iter().map(|p| p.as_slice()),
        params,
    ))
}

impl MgiBundle {
    /// Builds the bundle from a pangenome: indexes every haplotype path
    /// with `params` and computes the distance index.
    ///
    /// # Errors
    ///
    /// Returns an error if minimizer indexing fails (see
    /// [`build_minimizer_index`]).
    pub fn build(gbz: Gbz, params: MinimizerParams) -> Result<Self> {
        let minimizer = build_minimizer_index(&gbz, params)?;
        let distance = DistanceIndex::build(gbz.graph());
        Ok(MgiBundle {
            gbz,
            minimizer,
            distance,
        })
    }

    /// Assembles a bundle from already-constructed parts.
    pub fn from_parts(gbz: Gbz, minimizer: MinimizerIndex, distance: DistanceIndex) -> Self {
        MgiBundle {
            gbz,
            minimizer,
            distance,
        }
    }

    /// The pangenome (graph + GBWT).
    pub fn gbz(&self) -> &Gbz {
        &self.gbz
    }

    /// The minimizer index over the haplotype paths.
    pub fn minimizer(&self) -> &MinimizerIndex {
        &self.minimizer
    }

    /// The distance index over the graph.
    pub fn distance(&self) -> &DistanceIndex {
        &self.distance
    }

    /// Decomposes into `(gbz, minimizer, distance)`.
    pub fn into_parts(self) -> (Gbz, MinimizerIndex, DistanceIndex) {
        (self.gbz, self.minimizer, self.distance)
    }

    /// Appends every component to a `.mgi` writer.
    pub fn write_mgi(&self, w: &mut MgiWriter) {
        self.gbz.write_mgi(w);
        self.minimizer.write_mgi(w);
        self.distance.write_mgi(w);
    }

    /// Serializes to an in-memory `.mgi` image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = MgiWriter::new();
        self.write_mgi(&mut w);
        w.finish()
    }

    /// Writes a `.mgi` file.
    ///
    /// # Errors
    ///
    /// Returns IO errors from the filesystem.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut w = MgiWriter::new();
        self.write_mgi(&mut w);
        w.write_to(path.as_ref())
    }

    /// Loads every component from a `.mgi` container.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] for any structural inconsistency; a
    /// bundle that loads successfully cannot make a later query panic.
    pub fn from_mgi(f: &mut MgiFile) -> Result<Self> {
        let gbz = Gbz::from_mgi(f)?;
        let minimizer = MinimizerIndex::from_mgi(f)?;
        let distance = DistanceIndex::from_mgi(f)?;
        // The distance queries index node records by node id and trust
        // their lengths, so the records must be exactly the graph's nodes.
        let graph = gbz.graph();
        if distance.node_count() != graph.node_count()
            || graph
                .node_ids()
                .any(|id| distance.node(id).len as usize != graph.node_len(id))
        {
            return Err(Error::Corrupt(
                "distance index node records disagree with the graph".into(),
            ));
        }
        Ok(MgiBundle {
            gbz,
            minimizer,
            distance,
        })
    }

    /// Reads a `.mgi` file and validates layout, checksums, and structural
    /// invariants. Each section is streamed into its array once; nothing is
    /// rebuilt.
    ///
    /// # Errors
    ///
    /// Returns IO errors and [`Error::Corrupt`] for malformed files.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_file(MgiFile::open(path.as_ref())?)
    }

    /// Opens an in-memory `.mgi` image (checksums verified).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] for malformed images.
    pub fn open_bytes(bytes: Vec<u8>) -> Result<Self> {
        Self::from_file(MgiFile::open_bytes(bytes)?)
    }

    /// The bundle in `f`, once every section of it has been checked.
    fn from_file(mut f: MgiFile) -> Result<Self> {
        let bundle = Self::from_mgi(&mut f)?;
        f.finish()?;
        Ok(bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};

    fn sample_bundle() -> MgiBundle {
        let p = PangenomeBuilder::new(b"ACGTACGTACGTACGTAACCGGTT".to_vec())
            .variants(vec![Variant::snp(4, b'T'), Variant::deletion(10, 2)])
            .haplotypes(vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]])
            .max_node_len(6)
            .build()
            .unwrap();
        let gbz = Gbz::from_pangenome(p).unwrap();
        MgiBundle::build(gbz, MinimizerParams { k: 5, w: 3 }).unwrap()
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let bundle = sample_bundle();
        let loaded = MgiBundle::open_bytes(bundle.to_bytes()).unwrap();
        assert_eq!(bundle, loaded);
        // A re-serialization of the loaded bundle is byte-identical.
        assert_eq!(bundle.to_bytes(), loaded.to_bytes());
    }

    #[test]
    fn file_roundtrip() {
        let bundle = sample_bundle();
        let dir = std::env::temp_dir().join(format!("mgi-bundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.mgi");
        bundle.save(&path).unwrap();
        let loaded = MgiBundle::open(&path).unwrap();
        assert_eq!(bundle, loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_corrupt_not_panic() {
        let bundle = sample_bundle();
        let bytes = bundle.to_bytes();
        for cut in [0, 7, 48, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                MgiBundle::open_bytes(bytes[..cut].to_vec()).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }
}
