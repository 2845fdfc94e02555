//! Performance apparatus: profiling, counter simulation, machine models.
//!
//! This crate substitutes for everything the paper measures with hardware
//! it had and we do not:
//!
//! - [`profiler::Profiler`] — the timestamp-region instrumentation header
//!   (Figures 2–3);
//! - [`cachesim::CacheSimProbe`] — a three-level cache simulator consuming
//!   kernel memory probes, producing the Table V counter vector
//!   (instructions, IPC, L1DA/L1DM, LLDA/LLDM) and cosine-similarity
//!   comparisons;
//! - [`machine::MachineModel`] — the four Table II platforms as parameter
//!   sets;
//! - [`features`] + [`simexec`] — per-read costs measured from real kernel
//!   executions, replayed on a deterministic discrete-time multicore
//!   executor with SMT/L3/socket contention (Figures 5–8, Tables VII–VIII);
//! - [`topdown::TopDown`] — the Table IV top-down breakdown as a model over
//!   simulated counters.

#![forbid(unsafe_code)]

pub mod cachesim;
pub mod features;
pub mod machine;
pub mod profiler;
pub mod simexec;
pub mod topdown;

pub use cachesim::{cosine_similarity, CacheSimProbe, HwCounters};
pub use features::{cache_setup_instructions, collect_features, collect_features_from, SimWorkload, TaskFeatures};
pub use machine::MachineModel;
pub use profiler::{Profiler, RegionEvent};
pub use simexec::{simulate, SimOutcome, SimSched};
pub use topdown::TopDown;
