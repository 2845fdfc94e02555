//! miniGiraffe: a pangenomic mapping proxy application, reproduced in Rust.
//!
//! This facade crate re-exports the public API of the workspace so examples
//! and downstream users need a single dependency. See the individual crates
//! for details:
//!
//! - [`support`]: varints, run-length codecs, and the one binary container.
//! - [`graph`]: variation graphs and pangenome construction.
//! - [`gbwt`]: the GBWT haplotype index, `.mgz` (GBZ-analog) files, and the
//!   tunable `CachedGbwt`.
//! - [`index`]: minimizer and distance indices.
//! - [`workload`]: synthetic pangenomes, read simulation, the paper's four
//!   input-set profiles, and seed dumps.
//! - [`sched`]: parallel schedulers (dynamic, work-stealing, VG-style).
//! - [`obs`]: near-zero-overhead metrics (counters, histograms, stage spans)
//!   threaded through the mapping loop, with JSON/CSV export.
//! - [`core`]: the proxy itself — seed clustering and the seed-and-extend
//!   kernel, the mapping pipeline, and output validation.
//! - [`parent`]: the Giraffe-like parent pipeline the proxy is extracted from.
//! - [`server`]: the long-lived multi-tenant mapping server (`minigiraffe
//!   serve`), its wire protocol, and the concurrent-client test harness.
//! - [`perf`]: region profiling, cache simulation, machine models, and the
//!   simulated multicore executor.
//! - [`tuning`]: the autotuning harness and its statistics (ANOVA, geomean).
//!
//! # Quickstart
//!
//! ```
//! use minigiraffe::workload::{InputSetSpec, SyntheticInput};
//! use minigiraffe::core::{MappingOptions, run_mapping};
//!
//! // Generate a tiny synthetic input set and map it with default options.
//! let spec = InputSetSpec::tiny_for_tests();
//! let input = SyntheticInput::generate(&spec, 42);
//! let options = MappingOptions::default();
//! let results = run_mapping(&input.dump, &input.gbz, &options);
//! assert_eq!(results.per_read.len(), input.dump.reads.len());
//! ```

#![forbid(unsafe_code)]

pub use mg_core as core;
pub use mg_gbwt as gbwt;
pub use mg_graph as graph;
pub use mg_index as index;
pub use mg_obs as obs;
pub use mg_parent as parent;
pub use mg_perf as perf;
pub use mg_sched as sched;
pub use mg_server as server;
pub use mg_support as support;
pub use mg_tuning as tuning;
pub use mg_workload as workload;
