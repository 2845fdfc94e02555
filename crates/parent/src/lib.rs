//! The Giraffe-like parent pipeline.
//!
//! miniGiraffe is validated against the application it was extracted from.
//! We cannot ship vg Giraffe, so this crate is the stand-in parent: a full
//! short-read-to-pangenome mapper that (a) contains the *same* critical
//! kernels as the proxy (shared code in [`mg_core`]), (b) surrounds them
//! with realistic preprocessing (minimizer seeding) and post-processing
//! (rescoring, filtering, alignment emission, mate-pair checks), (c) runs
//! under the VG-style batch scheduler, and (d) exports the proxy's seed
//! dumps at exactly the paper's capture boundary.
//!
//! # Examples
//!
//! ```
//! use mg_parent::{Parent, ParentOptions};
//! use mg_workload::{InputSetSpec, SyntheticInput};
//!
//! let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 1);
//! let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
//! let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
//! let run = parent.run(&reads, &ParentOptions::default());
//! assert_eq!(run.dump.reads.len(), reads.len());
//! ```

#![forbid(unsafe_code)]

pub mod align;
pub mod gaf;
pub mod gapped;
pub mod pipeline;
pub mod rescue;

pub use align::{align_read, annotate_haplotypes, pair_check, AlignParams, Alignment};
pub use gaf::{chunk_to_gaf, chunk_to_gaf_into, run_to_gaf};
pub use gapped::{banded_global, cigar_string, CigarOp, GapParams, GappedAlignment};
pub use pipeline::{Parent, ParentOptions, ParentRun, ParentStreamSummary};
pub use rescue::{rescue_mate, RescueParams};
