//! Adaptive batch drivers: the [`crate::controller`] applied to one-shot
//! `map`/`parent` runs, chunk at a time.
//!
//! `minigiraffe serve --adaptive` closes the loop inside the server
//! executor; these drivers close the same loop over a batch workload so
//! adaptive and fixed-knob runs can be A/B'd on identical inputs (the
//! `smoke_adapt` bench and the `--adaptive` CLI flag sit on them). Both
//! walk the input in controller-sized chunks through the public
//! chunk-at-a-time entries ([`mg_core::Mapper::map_chunk_reads`],
//! [`mg_parent::Parent::map_chunk_gaf`]), feed the controller one epoch every
//! [`ControllerConfig`]-caller-chosen number of chunks, and apply any knob
//! move at the next chunk boundary — so output stays byte-identical to a
//! fixed-knob run over the same reads while batch size, chunk window, and
//! cache budgets converge.

use std::time::{Duration, Instant};

use mg_core::dump::SeedDump;
use mg_core::types::Workflow;
use mg_core::{Mapper, MappingOptions, MappingResults};
use mg_obs::{Metrics, Report};
use mg_parent::{Parent, ParentOptions};
use mg_sched::{effective_chunk_reads, AdmissionStats};

use crate::controller::{
    Controller, ControllerConfig, ControllerStats, EpochStats, KnobState,
};

/// What the controller did over one adaptive batch run.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Knob state after each closed epoch, in order.
    pub trajectory: Vec<KnobState>,
    /// Knobs in force when the run finished.
    pub knobs: KnobState,
    /// Accept/revert/skip counters.
    pub stats: ControllerStats,
    /// Whether the controller ended in its converged hold state.
    pub converged: bool,
}

/// An adaptive full-pipeline (`parent`) run.
#[derive(Debug, Clone)]
pub struct AdaptiveParentRun {
    /// Concatenated GAF across all chunks — byte-identical to a fixed-knob
    /// [`Parent::run`] over the same reads.
    pub gaf: String,
    /// Reads mapped.
    pub reads: u64,
    /// Chunks executed (knob-application points).
    pub chunks: u64,
    /// Wall time of the chunk loop.
    pub wall: Duration,
    /// The controller's trajectory.
    pub report: AdaptiveReport,
}

/// An adaptive proxy (`map`) run over a seed dump.
#[derive(Debug, Clone)]
pub struct AdaptiveMapRun {
    /// Aggregated results — per-read output identical to a fixed-knob
    /// [`Mapper::run`].
    pub results: MappingResults,
    /// Chunks executed.
    pub chunks: u64,
    /// The controller's trajectory.
    pub report: AdaptiveReport,
}

/// Tracks the open epoch for a batch driver: metrics snapshot at epoch
/// start, wall clock, and chunk/read counts. Batch runs have no admission
/// queue, so the admission slice of [`EpochStats`] stays zero.
struct EpochClock<'m> {
    metrics: &'m Metrics,
    epoch_chunks: u64,
    base: Report,
    started: Instant,
    chunks: u64,
    reads: u64,
}

impl<'m> EpochClock<'m> {
    fn new(metrics: &'m Metrics, epoch_chunks: u64) -> EpochClock<'m> {
        EpochClock {
            metrics,
            epoch_chunks: epoch_chunks.max(1),
            base: metrics.report(),
            started: Instant::now(),
            chunks: 0,
            reads: 0,
        }
    }

    /// Closes the chunk; every `epoch_chunks` chunks, feeds the controller
    /// and records the resulting knob state in `trajectory`.
    fn tick(&mut self, controller: &mut Controller, reads: u64, trajectory: &mut Vec<KnobState>) {
        self.chunks += 1;
        self.reads += reads;
        if self.chunks < self.epoch_chunks {
            return;
        }
        let report = self.metrics.report();
        let delta = report.delta(&self.base);
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let mut epoch = EpochStats::from_delta(&delta, &AdmissionStats::default(), wall_ns);
        // The driver counts mapped reads itself so throughput steering
        // works even when mg-obs is compiled out.
        epoch.reads = self.reads;
        controller.observe_epoch(&epoch);
        trajectory.push(controller.knobs());
        self.base = report;
        self.started = Instant::now();
        self.chunks = 0;
        self.reads = 0;
    }
}

fn initial_knobs(mapping: &MappingOptions, chunk_reads: usize) -> KnobState {
    KnobState {
        batch_size: mapping.batch_size.max(1),
        chunk_reads: effective_chunk_reads(chunk_reads, mapping.threads, mapping.batch_size),
        cache_capacity: mapping.cache_capacity.max(1),
    }
}

/// Applies the controller's knobs to a per-chunk options clone and
/// returns the chunk window (pair-clamped when `paired`).
fn apply_knobs(mapping: &mut MappingOptions, k: KnobState, paired: bool) -> usize {
    mapping.batch_size = k.batch_size.max(1);
    mapping.cache_capacity = k.cache_capacity.max(1);
    let mut chunk = effective_chunk_reads(k.chunk_reads, mapping.threads, k.batch_size);
    if paired {
        chunk = (chunk & !1).max(2);
    }
    chunk.max(1)
}

/// Runs the full parent pipeline over `reads` in controller-driven
/// chunks, starting from the knobs in `base`. GAF is byte-identical to a
/// fixed-knob [`Parent::run`] over the same reads: knob moves land only
/// between chunks and every tuned knob is result-invariant.
pub fn run_adaptive_parent(
    parent: &Parent<'_>,
    set_name: &str,
    reads: &[Vec<u8>],
    base: &ParentOptions,
    config: ControllerConfig,
    epoch_chunks: u64,
    metrics: &Metrics,
) -> AdaptiveParentRun {
    let mut controller = Controller::new(config, initial_knobs(&base.mapping, 0));
    let paired = parent.workflow() == Workflow::Paired;
    let mut clock = EpochClock::new(metrics, epoch_chunks);
    let mut trajectory = Vec::new();
    let mut gaf: Vec<u8> = Vec::new();
    let mut chunks = 0u64;
    let start = Instant::now();
    let mut lo = 0usize;
    while lo < reads.len() {
        let mut options = base.clone();
        let window = apply_knobs(&mut options.mapping, controller.knobs(), paired);
        let hi = (lo + window).min(reads.len());
        parent.map_chunk_gaf(&reads[lo..hi], lo as u64, set_name, &options, metrics, &mut gaf);
        chunks += 1;
        clock.tick(&mut controller, (hi - lo) as u64, &mut trajectory);
        lo = hi;
    }
    AdaptiveParentRun {
        gaf: String::from_utf8(gaf).expect("GAF is built from str and ASCII pieces"),
        reads: reads.len() as u64,
        chunks,
        wall: start.elapsed(),
        report: AdaptiveReport {
            trajectory,
            knobs: controller.knobs(),
            stats: controller.stats(),
            converged: controller.converged(),
        },
    }
}

/// Runs the proxy kernels over `dump` in controller-driven chunks,
/// starting from the knobs in `base`. Per-read results are identical to a
/// fixed-knob [`Mapper::run`] (global read ids flow through `base_id`).
pub fn run_adaptive_map(
    mapper: &Mapper<'_>,
    dump: &SeedDump,
    base: &MappingOptions,
    config: ControllerConfig,
    epoch_chunks: u64,
    metrics: &Metrics,
) -> AdaptiveMapRun {
    let mut controller = Controller::new(config, initial_knobs(base, 0));
    let mut clock = EpochClock::new(metrics, epoch_chunks);
    let mut trajectory = Vec::new();
    let mut results = MappingResults {
        per_read: Vec::with_capacity(dump.reads.len()),
        wall: Duration::ZERO,
        cache: Default::default(),
        cache_heap_bytes: 0,
    };
    let mut chunks = 0u64;
    let start = Instant::now();
    let mut lo = 0usize;
    while lo < dump.reads.len() {
        let mut options = base.clone();
        let window = apply_knobs(&mut options, controller.knobs(), false);
        let hi = (lo + window).min(dump.reads.len());
        let (per_read, cache, heap_bytes) =
            mapper.map_chunk_reads(&dump.reads[lo..hi], lo as u64, &options, metrics);
        results.per_read.extend(per_read);
        results.cache.merge(&cache);
        results.cache_heap_bytes = results.cache_heap_bytes.max(heap_bytes);
        chunks += 1;
        clock.tick(&mut controller, (hi - lo) as u64, &mut trajectory);
        lo = hi;
    }
    results.wall = start.elapsed();
    AdaptiveMapRun {
        results,
        chunks,
        report: AdaptiveReport {
            trajectory,
            knobs: controller.knobs(),
            stats: controller.stats(),
            converged: controller.converged(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::KnobBounds;
    use mg_parent::run_to_gaf;
    use mg_workload::{InputSetSpec, SyntheticInput};

    fn tiny_config() -> ControllerConfig {
        ControllerConfig {
            min_reads: 1,
            bounds: KnobBounds { batch: (2, 32), chunk: (2, 32), cache: (16, 512) },
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn adaptive_parent_gaf_matches_fixed_knob_oracle() {
        let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 23);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let parent =
            mg_parent::Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let mut options = ParentOptions::default();
        options.mapping.threads = 2;
        options.mapping.batch_size = 4;
        let run = run_adaptive_parent(
            &parent,
            "read",
            &reads,
            &options,
            tiny_config(),
            1,
            Metrics::off_ref(),
        );
        // The oracle maps on a parent the adaptive run never touched.
        let oracle_parent =
            mg_parent::Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let oracle = run_to_gaf(input.gbz.graph(), &oracle_parent.run(&reads, &options), "read");
        assert_eq!(run.gaf, oracle, "adaptive GAF diverged from fixed-knob oracle");
        assert_eq!(run.reads, reads.len() as u64);
        assert!(run.chunks > 1, "one chunk exercises nothing");
        assert!(!run.report.trajectory.is_empty(), "no epochs closed");
    }

    #[test]
    fn adaptive_map_results_match_fixed_knob_oracle() {
        let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 29);
        let mapper = Mapper::new(&input.gbz);
        let options = MappingOptions { threads: 2, batch_size: 4, ..Default::default() };
        let run =
            run_adaptive_map(&mapper, &input.dump, &options, tiny_config(), 1, Metrics::off_ref());
        let oracle_mapper = Mapper::new(&input.gbz);
        let oracle = oracle_mapper.run(&input.dump, &options);
        assert_eq!(run.results.per_read.len(), oracle.per_read.len());
        for (i, (got, want)) in
            run.results.per_read.iter().zip(oracle.per_read.iter()).enumerate()
        {
            assert_eq!(
                got.extensions, want.extensions,
                "read {i} extensions diverged under adaptive chunking"
            );
        }
        assert!(run.chunks > 1);
    }
}
