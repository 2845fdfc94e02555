//! miniGiraffe: the pangenomic mapping proxy application.
//!
//! This crate is the proxy itself — the ~2% of Giraffe that accounts for
//! its critical compute. It consumes a [`dump::SeedDump`] (reads plus the
//! seeds Giraffe's preprocessing found for them, captured right before the
//! critical functions) and a [`mg_gbwt::Gbz`] pangenome, and runs:
//!
//! 1. [`cluster::cluster_seeds_with_scratch`] — group seeds by graph
//!    distance and score the clusters (Giraffe's `cluster_seeds` region);
//! 2. [`extend::process_until_threshold_with_scratch`] — the
//!    seed-and-extend kernel:
//!    walk the graph from each promising seed in both directions over
//!    haplotype-consistent edges, comparing read bases against node bases
//!    (Giraffe's `process_until_threshold_c` region).
//!
//! The mapper walks each read's canonically first seed before step 1; when
//! that walk is an exact full-length extension every seed lies on, it is
//! the read's whole result and neither step runs, and when every seed lies
//! on a walk that is not, step 1 is one cluster of them all without the
//! kernel — byte-identical to what the two steps would report (DESIGN.md
//! §4b).
//!
//! The outer read loop is parallel and exposes the paper's three tuning
//! parameters (scheduler, batch size, initial `CachedGBWT` capacity) via
//! [`MappingOptions`]. Output is the raw extension set (offsets + scores),
//! which [`validate::validate`] compares against parent output exactly the
//! way the paper's functional validation does.
//!
//! # Examples
//!
//! ```
//! use mg_core::{run_mapping, MappingOptions};
//! use mg_core::dump::SeedDump;
//! use mg_core::types::{ReadInput, Seed, Workflow};
//! use mg_gbwt::Gbz;
//! use mg_graph::pangenome::{PangenomeBuilder, Variant};
//! use mg_graph::{Handle, NodeId};
//! use mg_index::GraphPos;
//!
//! # fn main() -> mg_support::Result<()> {
//! // A pangenome with one SNP and two haplotypes.
//! let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTT".to_vec())
//!     .variants(vec![Variant::snp(6, b'G')])
//!     .haplotypes(vec![vec![0], vec![1]])
//!     .max_node_len(4)
//!     .build()?;
//! let gbz = Gbz::from_pangenome(p)?;
//! // One read sampled from haplotype 0 with a seed at its start.
//! let dump = SeedDump::new(Workflow::Single, vec![ReadInput {
//!     bases: b"AAAACCCCGGGGTTTT".to_vec(),
//!     seeds: vec![Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(1)), 0))],
//! }]);
//! let results = run_mapping(&dump, &gbz, &MappingOptions::default());
//! assert_eq!(results.per_read[0].best_score(), Some(16));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod dump;
pub mod extend;
pub mod mgi;
pub mod pipeline;
pub mod types;
pub mod validate;

pub use cluster::{cluster_seeds_with_scratch, Cluster, ClusterParams, ClusterScratch};
pub use dump::{DumpReader, SeedDump};
pub use extend::{
    extend_seed_with_scratch, process_until_threshold_with_scratch, ExtendParams, ExtendScratch,
    KernelStats, ProcessParams,
};
pub use mgi::{build_minimizer_index, MgiBundle};
pub use pipeline::{
    run_mapping, DumpSummary, MapScratch, Mapper, MappingOptions, MappingResults,
    StreamOptions, ThreadPersist, Workers,
};
pub use types::{Extension, ExtensionKey, ReadInput, ReadResult, Seed, Workflow};
pub use validate::{validate, ValidationReport};
