//! The GBWT: a run-length compressed index of haplotype paths.
//!
//! The Graph Burrows–Wheeler Transform stores a collection of paths through
//! a variation graph as, per node, a run-length encoded list of "which edge
//! does each visiting haplotype take next". It supports:
//!
//! - following a single haplotype ([`Gbwt::follow`], [`Gbwt::sequence`]);
//! - counting haplotypes matching a path pattern ([`Gbwt::find`] /
//!   [`Gbwt::extend`]), including bidirectionally ([`Gbwt::find_bidir`],
//!   [`Gbwt::extend_forward`], [`Gbwt::extend_backward`]) — the query the
//!   seed-and-extend kernel makes on every step;
//! - the [`CachedGbwt`] decompressed-record cache whose initial capacity is
//!   one of miniGiraffe's three tuning parameters;
//! - the [`Gbz`] file (`.mgz`), our analog of the GBZ file format,
//!   bundling graph + index (its records still run-length compressed) in
//!   one checksummed container, each array read back as it was written.
//!
//! # Examples
//!
//! ```
//! use mg_graph::pangenome::{PangenomeBuilder, Variant};
//! use mg_gbwt::{CachedGbwt, Gbz};
//!
//! # fn main() -> mg_support::Result<()> {
//! let p = PangenomeBuilder::new(b"ACGTACGTACGT".to_vec())
//!     .variants(vec![Variant::snp(6, b'A')])
//!     .haplotypes(vec![vec![0], vec![1], vec![0]])
//!     .build()?;
//! let gbz = Gbz::from_pangenome(p)?;
//! let mut cache = CachedGbwt::new(gbz.gbwt(), 256);
//! // Count haplotypes through the first node.
//! let state = cache.gbwt().find(2);
//! assert_eq!(state.len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod build;
pub mod cache;
pub mod gbwt;
pub mod gbz;
pub mod record;

pub use build::GbwtBuilder;
pub use cache::{CacheState, CacheStats, CachedGbwt, HotTier};
pub use gbwt::{BidirState, Gbwt, GbwtStatistics, SearchState};
pub use gbz::Gbz;
pub use record::{DecodedRecord, RecordEdge, RecordView, ENDMARKER};
