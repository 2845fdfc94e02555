//! Variation graphs and pangenome construction.
//!
//! A *variation graph* represents a reference genome plus the variation of a
//! population: nodes carry DNA sequence, edges connect consecutive pieces,
//! and *paths* through the graph spell out individual haplotypes. This crate
//! provides:
//!
//! - [`handle`]: node identifiers and oriented node handles;
//! - [`dna`]: base alphabet utilities (validation, complement);
//! - [`graph::VariationGraph`]: the graph itself, immutable, with oriented
//!   traversal over one ASCII arena per strand (only the forward one is
//!   written to `.mgz` and `.mgi` containers; the reverse-complement arena
//!   is derived on load) and one flat adjacency array whether it was built
//!   in process by [`graph::GraphBuilder`] or loaded from a container;
//! - [`pangenome`]: construction of a pangenome graph from a linear
//!   reference plus a set of variants and a haplotype panel (who carries
//!   which allele) — the synthetic stand-in for HPRC/1000GP graphs.
//!
//! # Examples
//!
//! ```
//! use mg_graph::pangenome::{PangenomeBuilder, Variant};
//!
//! // A 20 bp reference with one SNP at position 5 carried by haplotype 1.
//! let reference = b"ACGTACGTACGTACGTACGT".to_vec();
//! let variants = vec![Variant::snp(5, b'C')];
//! let graph = PangenomeBuilder::new(reference)
//!     .variants(variants)
//!     .haplotypes(vec![vec![0], vec![1]])
//!     .build()
//!     .unwrap();
//! assert_eq!(graph.paths().len(), 2);
//! // Both haplotype paths spell 20 bases.
//! for path in graph.paths() {
//!     let len: usize = path.handles.iter()
//!         .map(|&h| graph.graph().sequence(h).len())
//!         .sum();
//!     assert_eq!(len, 20);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod dna;
pub mod graph;
pub mod handle;
pub mod pangenome;

pub use graph::{GraphBuilder, VariationGraph};
pub use handle::{Handle, NodeId, Orientation};
pub use pangenome::{HaplotypePath, Pangenome, PangenomeBuilder, Variant};
