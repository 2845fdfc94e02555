//! Indexing structures for pangenome mapping: minimizers and distances.
//!
//! Giraffe seeds its mapping with three indices; this crate provides the two
//! that the mapping kernels consume at runtime:
//!
//! - [`MinimizerIndex`]: (k, w)-minimizers of every haplotype path, mapping
//!   read k-mers to [`GraphPos`] seed positions;
//! - [`DistanceIndex`]: minimum graph distances between positions, used by
//!   the seed-clustering kernel: one [`NodeRecord`] per node and the chains
//!   of a snarl-lite decomposition ([`snarl`] builds them), with a bounded
//!   Dijkstra for what the chains cannot answer.
//!
//! (The third index, the GBWT itself, lives in [`mg_gbwt`].)

#![forbid(unsafe_code)]

pub mod distance;
pub mod minimizer;
pub mod serialize;
pub mod snarl;

pub use distance::{DistanceIndex, DistanceScratch, NodeRecord};
pub use minimizer::{
    extract_minimizers, extract_minimizers_into, GraphPos, Minimizer, MinimizerIndex,
    MinimizerParams, MinimizerScratch,
};
