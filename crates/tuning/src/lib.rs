//! Autotuning harness and statistics (§VII-B of the paper).
//!
//! miniGiraffe exposes three tuning parameters — scheduler, batch size,
//! and initial CachedGBWT capacity. This crate sweeps their full
//! cross-product ([`ParamSpace`]) with either real host runs or the
//! simulated machines of [`mg_perf`] ([`sweep`]), and analyses the results:
//! best/worst/default comparisons, geometric-mean speedups, and a one-way
//! ANOVA per parameter ([`stats`]). Tuning is offline, as in the paper: the
//! sweep names a configuration and a run is started with it.

#![forbid(unsafe_code)]

pub mod space;
pub mod stats;
pub mod sweep;

pub use space::{ParamSpace, TuningPoint};
pub use stats::{f_distribution_p_value, geometric_mean, one_way_anova, Anova};
pub use sweep::{run_host_sweep, run_sim_sweep, FeatureCache, SweepResult, TuningRecord};
