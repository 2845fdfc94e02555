//! Synthetic workloads: pangenomes, reads, and the paper's input sets.
//!
//! The paper evaluates on real data (HPRC pangenomes, 1000 Genomes, yeast,
//! Illumina reads) that is tens of gigabytes; this crate synthesizes
//! statistically analogous inputs at laptop scale:
//!
//! - [`genome`]: seeded random references, variant models, haplotype panels;
//! - [`reads`]: single- and paired-end read simulation with errors;
//! - [`inputset`]: the four Table III profiles (**A-human**, **B-yeast**,
//!   **C-HPRC**, **D-HPRC**) and [`SyntheticInput::generate`], which builds
//!   pangenome + GBZ + minimizer index + seed dump in one call.
//!
//! # Examples
//!
//! ```
//! use mg_workload::{InputSetSpec, SyntheticInput};
//!
//! let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 42);
//! assert!(input.dump.total_seeds() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod fastq;
pub mod genome;
pub mod inputset;
pub mod reads;

pub use inputset::{InputSetSpec, SyntheticInput};
pub use fastq::{
    read_fastq, read_fastq_bases, write_fastq, FastqBatches, FastqReader, FastqRecord,
};
pub use reads::{ReadSimParams, SimulatedRead};
