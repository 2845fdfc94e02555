//! Sweep runners and analysis for the autotuning study.
//!
//! Two backends share the result format: the *host* backend times real
//! proxy runs on this machine; the *simulated* backend replays measured
//! task features on a [`mg_perf::MachineModel`], which is how the four
//! Table II platforms are covered.

use mg_core::dump::SeedDump;
use mg_core::{Mapper, MappingOptions};
use mg_gbwt::Gbz;
use mg_obs::{Ctr, Hist, Metrics};
use mg_perf::{collect_features, simulate, MachineModel, SimSched, SimWorkload};
use mg_support::regions::NullSink;

use crate::space::{ParamSpace, TuningPoint};
use crate::stats::{one_way_anova, Anova};

/// One measured configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningRecord {
    /// The configuration.
    pub point: TuningPoint,
    /// Measured (or simulated) makespan in seconds.
    pub makespan_s: f64,
}

/// All measurements of one sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepResult {
    /// Records in sweep order.
    pub records: Vec<TuningRecord>,
    /// Points the sweep evaluated but could not measure (e.g. simulated
    /// configurations whose memory requirement exceeds the machine). An
    /// empty `records` with a nonzero `infeasible` means every point was
    /// skipped, which is a legitimate outcome callers must handle.
    pub infeasible: usize,
}

impl SweepResult {
    /// The fastest configuration, or `None` for an empty sweep (every
    /// point infeasible, or nothing swept).
    pub fn best(&self) -> Option<TuningRecord> {
        self.records
            .iter()
            .min_by(|a, b| a.makespan_s.total_cmp(&b.makespan_s))
            .copied()
    }

    /// The slowest configuration, or `None` for an empty sweep.
    pub fn worst(&self) -> Option<TuningRecord> {
        self.records
            .iter()
            .max_by(|a, b| a.makespan_s.total_cmp(&b.makespan_s))
            .copied()
    }

    /// The record of a specific configuration, if the sweep covered it.
    pub fn find(&self, point: TuningPoint) -> Option<TuningRecord> {
        self.records.iter().copied().find(|r| r.point == point)
    }

    /// Speedup of the best configuration over `baseline` (> 1 is faster).
    pub fn speedup_over(&self, baseline: TuningPoint) -> Option<f64> {
        let base = self.find(baseline)?;
        Some(base.makespan_s / self.best()?.makespan_s)
    }

    /// One-way ANOVA of makespan grouped by each parameter, in the order
    /// `(scheduler, batch size, cache capacity)`.
    pub fn anova_by_parameter(&self) -> (Option<Anova>, Option<Anova>, Option<Anova>) {
        let group = |key: &dyn Fn(&TuningPoint) -> u64| -> Vec<Vec<f64>> {
            let mut groups: std::collections::BTreeMap<u64, Vec<f64>> =
                std::collections::BTreeMap::new();
            for r in &self.records {
                groups.entry(key(&r.point)).or_default().push(r.makespan_s);
            }
            groups.into_values().collect()
        };
        let by_sched = group(&|p: &TuningPoint| p.scheduler as u64);
        let by_batch = group(&|p: &TuningPoint| p.batch_size as u64);
        let by_capacity = group(&|p: &TuningPoint| p.cache_capacity as u64);
        (one_way_anova(&by_sched), one_way_anova(&by_batch), one_way_anova(&by_capacity))
    }
}

/// Sweeps the space with real proxy runs on the host machine.
///
/// `repeats` runs are taken per point and the minimum kept (standard noise
/// suppression for makespan measurements). Each measured point bumps the
/// sweep-point counter of `metrics` and feeds the kept makespan into its
/// makespan histogram, and the proxy runs themselves record their full
/// per-stage/cache/scheduler activity into the same registry
/// ([`Metrics::off_ref`] records nothing).
#[allow(clippy::too_many_arguments)]
pub fn run_host_sweep(
    gbz: &Gbz,
    dump: &SeedDump,
    threads: usize,
    space: &ParamSpace,
    repeats: usize,
    base_options: &MappingOptions,
    metrics: &Metrics,
) -> SweepResult {
    let mapper = Mapper::new(gbz);
    let mut records = Vec::with_capacity(space.len());
    for point in space.points() {
        let options = MappingOptions {
            threads,
            batch_size: point.batch_size,
            cache_capacity: point.cache_capacity,
            scheduler: point.scheduler,
            ..base_options.clone()
        };
        let mut best = f64::INFINITY;
        for _ in 0..repeats.max(1) {
            let out = mapper.run_with_sink_metrics(dump, &options, &NullSink, metrics);
            best = best.min(out.wall.as_secs_f64());
        }
        metrics.add(Ctr::SweepPoints, 1);
        metrics.observe(Hist::SweepMakespanUs, (best * 1e6) as u64);
        records.push(TuningRecord { point, makespan_s: best });
    }
    SweepResult { records, infeasible: 0 }
}

/// Provides per-capacity task features for the simulated sweep (capacity
/// changes kernel work, so features must be re-collected per capacity).
///
/// The memo is keyed by the *identity of the input* — the dump's contents
/// and the non-swept base options — as well as the capacity, so one cache
/// reused across different dumps or option sets re-collects instead of
/// silently returning stale features.
#[derive(Debug, Clone, Default)]
pub struct FeatureCache {
    /// Fingerprint of the (dump, base options) the memo was filled from;
    /// `None` until first use.
    input_fingerprint: Option<u64>,
    by_capacity: std::collections::BTreeMap<usize, SimWorkload>,
}

/// Content fingerprint of a sweep input: the dump (workflow, reads, seeds)
/// plus every base option that feeds feature collection.
fn input_fingerprint(dump: &SeedDump, base_options: &MappingOptions) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (dump.workflow as u8).hash(&mut h);
    dump.reads.len().hash(&mut h);
    for read in &dump.reads {
        read.bases.hash(&mut h);
        read.seeds.hash(&mut h);
    }
    // MappingOptions carries float-bearing kernel parameter structs, so it
    // is not `Hash`; its Debug rendering is a stable, complete surrogate.
    format!("{base_options:?}").hash(&mut h);
    h.finish()
}

impl FeatureCache {
    /// Collects (and memoizes) the features for `capacity`.
    ///
    /// Passing a different dump or different base options than the memo was
    /// built from invalidates the whole memo (all capacities) first.
    pub fn features<'a>(
        &'a mut self,
        mapper: &Mapper<'_>,
        dump: &SeedDump,
        base_options: &MappingOptions,
        capacity: usize,
        required_memory_gb: f64,
        name: &str,
    ) -> &'a SimWorkload {
        let fp = input_fingerprint(dump, base_options);
        if self.input_fingerprint != Some(fp) {
            self.by_capacity.clear();
            self.input_fingerprint = Some(fp);
        }
        self.by_capacity.entry(capacity).or_insert_with(|| {
            let options = MappingOptions {
                cache_capacity: capacity,
                ..base_options.clone()
            };
            collect_features(mapper, dump, &options, required_memory_gb, name)
        })
    }
}

/// Sweeps the space on a simulated machine at `threads` thread contexts.
///
/// `tile` replicates the measured tasks so the simulated run has
/// paper-proportional read counts (see
/// [`mg_perf::SimWorkload::tiled`]); pass 1 to simulate the dump as-is.
/// Task features come from `cache`, so sweeps of several machines over one
/// input collect them once.
#[allow(clippy::too_many_arguments)]
pub fn run_sim_sweep(
    machine: &MachineModel,
    mapper: &Mapper<'_>,
    dump: &SeedDump,
    space: &ParamSpace,
    threads: usize,
    base_options: &MappingOptions,
    required_memory_gb: f64,
    name: &str,
    tile: usize,
    cache: &mut FeatureCache,
) -> SweepResult {
    let mut records = Vec::with_capacity(space.len());
    let mut infeasible = 0usize;
    for point in space.points() {
        let workload = cache
            .features(
                mapper,
                dump,
                base_options,
                point.cache_capacity,
                required_memory_gb,
                name,
            )
            .tiled(tile.max(1));
        let outcome = simulate(
            machine,
            &workload,
            threads,
            SimSched::from_kind(point.scheduler, point.batch_size),
        );
        match outcome.makespan_s {
            Some(makespan) => records.push(TuningRecord { point, makespan_s: makespan }),
            None => infeasible += 1,
        }
    }
    if infeasible > 0 {
        eprintln!(
            "sim sweep {name:?} on {}: {infeasible}/{} points infeasible (skipped)",
            machine.name,
            space.len()
        );
    }
    SweepResult { records, infeasible }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sched::SchedulerKind;

    fn record(s: SchedulerKind, b: usize, c: usize, t: f64) -> TuningRecord {
        TuningRecord {
            point: TuningPoint { scheduler: s, batch_size: b, cache_capacity: c },
            makespan_s: t,
        }
    }

    fn sample_sweep() -> SweepResult {
        SweepResult {
            records: vec![
                record(SchedulerKind::Dynamic, 512, 256, 10.0),
                record(SchedulerKind::Dynamic, 512, 4096, 6.0),
                record(SchedulerKind::Dynamic, 128, 256, 9.5),
                record(SchedulerKind::WorkStealing, 512, 256, 9.8),
                record(SchedulerKind::WorkStealing, 128, 4096, 6.2),
            ],
            infeasible: 0,
        }
    }

    #[test]
    fn best_and_worst() {
        let sweep = sample_sweep();
        assert_eq!(sweep.best().unwrap().makespan_s, 6.0);
        assert_eq!(sweep.worst().unwrap().makespan_s, 10.0);
        // An empty sweep has no best/worst instead of panicking.
        let empty = SweepResult::default();
        assert!(empty.best().is_none());
        assert!(empty.worst().is_none());
    }

    #[test]
    fn speedup_over_default() {
        let sweep = sample_sweep();
        let speedup = sweep.speedup_over(TuningPoint::default_config()).unwrap();
        assert!((speedup - 10.0 / 6.0).abs() < 1e-12);
        // Missing baseline -> None.
        let missing = TuningPoint {
            scheduler: SchedulerKind::Vg,
            batch_size: 1,
            cache_capacity: 1,
        };
        assert!(sweep.speedup_over(missing).is_none());
    }

    #[test]
    fn anova_attributes_capacity_effect() {
        // Build a sweep where capacity drives makespan and the other two
        // parameters do nothing.
        let mut records = Vec::new();
        for (si, s) in SchedulerKind::TUNED.iter().enumerate() {
            for (bi, &b) in [128usize, 512, 2048].iter().enumerate() {
                for &c in &[256usize, 1024, 4096] {
                    let noise = (si as f64) * 0.001 + (bi as f64) * 0.002;
                    let t = match c {
                        256 => 10.0,
                        1024 => 8.0,
                        _ => 6.0,
                    } + noise;
                    records.push(record(*s, b, c, t));
                }
            }
        }
        let sweep = SweepResult { records, infeasible: 0 };
        let (sched, batch, capacity) = sweep.anova_by_parameter();
        let capacity = capacity.unwrap();
        assert!(capacity.is_significant(), "capacity p={}", capacity.p_value);
        assert!(!sched.unwrap().is_significant());
        assert!(!batch.unwrap().is_significant());
    }

    #[test]
    fn host_sweep_smoke() {
        use mg_core::types::{ReadInput, Seed, Workflow};
        use mg_graph::pangenome::PangenomeBuilder;
        use mg_graph::{Handle, NodeId};
        use mg_index::GraphPos;

        let p = PangenomeBuilder::new(b"ACGTACGTACGTACGTACGTACGT".to_vec())
            .haplotypes(vec![vec![]])
            .max_node_len(6)
            .build()
            .unwrap();
        let gbz = Gbz::from_pangenome(p).unwrap();
        let dump = SeedDump::new(
            Workflow::Single,
            (0..20)
                .map(|_| ReadInput {
                    bases: b"ACGTACGTACGT".to_vec(),
                    seeds: vec![Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(1)), 0))],
                })
                .collect(),
        );
        let space = ParamSpace::small();
        let sweep =
            run_host_sweep(&gbz, &dump, 2, &space, 1, &MappingOptions::default(), Metrics::off_ref());
        assert_eq!(sweep.records.len(), space.len());
        assert!(sweep.records.iter().all(|r| r.makespan_s >= 0.0));
        assert!(sweep.best().unwrap().makespan_s <= sweep.worst().unwrap().makespan_s);
    }

    #[test]
    fn host_sweep_metrics_count_every_point() {
        use mg_core::types::{ReadInput, Seed, Workflow};
        use mg_graph::pangenome::PangenomeBuilder;
        use mg_graph::{Handle, NodeId};
        use mg_index::GraphPos;

        let p = PangenomeBuilder::new(b"ACGTACGTACGTACGTACGTACGT".to_vec())
            .haplotypes(vec![vec![]])
            .max_node_len(6)
            .build()
            .unwrap();
        let gbz = Gbz::from_pangenome(p).unwrap();
        let dump = SeedDump::new(
            Workflow::Single,
            (0..10)
                .map(|_| ReadInput {
                    bases: b"ACGTACGTACGT".to_vec(),
                    seeds: vec![Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(1)), 0))],
                })
                .collect(),
        );
        let space = ParamSpace::small();
        let metrics = Metrics::new();
        let sweep = run_host_sweep(
            &gbz,
            &dump,
            1,
            &space,
            2,
            &MappingOptions::default(),
            &metrics,
        );
        let rep = metrics.report();
        assert_eq!(rep.counter(Ctr::SweepPoints), space.len() as u64);
        assert_eq!(rep.hist_count(Hist::SweepMakespanUs), space.len() as u64);
        // Every point ran `repeats` instrumented proxy runs over the dump.
        assert_eq!(
            rep.counter(Ctr::ReadsMapped),
            (space.len() * 2 * dump.reads.len()) as u64
        );
        assert_eq!(sweep.records.len(), space.len());
    }

    #[test]
    fn sim_sweep_smoke() {
        use mg_core::types::{ReadInput, Seed, Workflow};
        use mg_graph::pangenome::PangenomeBuilder;
        use mg_graph::{Handle, NodeId};
        use mg_index::GraphPos;

        let p = PangenomeBuilder::new(b"ACGTACGTACGTACGTACGTACGT".to_vec())
            .haplotypes(vec![vec![]])
            .max_node_len(6)
            .build()
            .unwrap();
        let gbz = Gbz::from_pangenome(p).unwrap();
        let mapper = Mapper::new(&gbz);
        let dump = SeedDump::new(
            Workflow::Single,
            (0..30)
                .map(|_| ReadInput {
                    bases: b"ACGTACGTACGT".to_vec(),
                    seeds: vec![Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(1)), 0))],
                })
                .collect(),
        );
        let space = ParamSpace::small();
        let machine = MachineModel::local_amd();
        let sweep = run_sim_sweep(
            &machine,
            &mapper,
            &dump,
            &space,
            16,
            &MappingOptions::default(),
            20.0,
            "smoke",
            4,
            &mut FeatureCache::default(),
        );
        assert_eq!(sweep.records.len(), space.len());
        assert!(sweep.records.iter().all(|r| r.makespan_s > 0.0));
        // Deterministic.
        let sweep2 = run_sim_sweep(
            &machine,
            &mapper,
            &dump,
            &space,
            16,
            &MappingOptions::default(),
            20.0,
            "smoke",
            4,
            &mut FeatureCache::default(),
        );
        assert_eq!(sweep, sweep2);
    }

    /// Every axis of the small space moves some simulated makespan on the
    /// tiny input: some two points that differ along that axis alone take
    /// different times. An axis the simulator ignores only repeats points.
    #[test]
    fn every_axis_of_the_small_space_moves_the_simulated_makespan() {
        use mg_workload::{InputSetSpec, SyntheticInput};

        let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 42);
        let mapper = Mapper::new(&input.gbz);
        let space = ParamSpace::small();
        let sweep = run_sim_sweep(
            &MachineModel::local_amd(),
            &mapper,
            &input.dump,
            &space,
            16,
            &MappingOptions::default(),
            1.0,
            "tiny",
            100,
            &mut FeatureCache::default(),
        );
        assert_eq!(sweep.records.len(), space.len());
        // `along(p, q)` is `p` moved to `q`'s value on one axis.
        type Along = fn(TuningPoint, TuningPoint) -> TuningPoint;
        let axes: [(&str, Along); 3] = [
            ("scheduler", |p, q| TuningPoint { scheduler: q.scheduler, ..p }),
            ("batch size", |p, q| TuningPoint { batch_size: q.batch_size, ..p }),
            ("cache capacity", |p, q| TuningPoint { cache_capacity: q.cache_capacity, ..p }),
        ];
        for (name, along) in axes {
            let moves = sweep.records.iter().any(|a| {
                sweep.records.iter().any(|b| {
                    b.point != a.point
                        && along(a.point, b.point) == b.point
                        && a.makespan_s != b.makespan_s
                })
            });
            assert!(moves, "{name} never moves the makespan: {:?}", sweep.records);
        }
    }

    #[test]
    fn sim_sweep_oom_yields_no_records() {
        use mg_core::types::Workflow;
        use mg_graph::pangenome::PangenomeBuilder;

        let p = PangenomeBuilder::new(b"ACGTACGT".to_vec())
            .haplotypes(vec![vec![]])
            .build()
            .unwrap();
        let gbz = Gbz::from_pangenome(p).unwrap();
        let mapper = Mapper::new(&gbz);
        let dump = SeedDump::new(Workflow::Single, vec![]);
        let sweep = run_sim_sweep(
            &MachineModel::chi_intel(), // 256 GB
            &mapper,
            &dump,
            &ParamSpace::small(),
            8,
            &MappingOptions::default(),
            300.0, // needs 300 GB
            "oom",
            1,
            &mut FeatureCache::default(),
        );
        assert!(sweep.records.is_empty());
        // Every point was evaluated and counted as infeasible, and the
        // Option accessors report the emptiness instead of panicking.
        assert_eq!(sweep.infeasible, ParamSpace::small().len());
        assert!(sweep.best().is_none());
        assert!(sweep.worst().is_none());
    }

    #[test]
    fn feature_cache_invalidates_on_input_change() {
        use mg_core::types::{ReadInput, Seed, Workflow};
        use mg_graph::pangenome::PangenomeBuilder;
        use mg_graph::{Handle, NodeId};
        use mg_index::GraphPos;

        let p = PangenomeBuilder::new(b"ACGTACGTACGTACGTACGTACGT".to_vec())
            .haplotypes(vec![vec![]])
            .max_node_len(6)
            .build()
            .unwrap();
        let gbz = Gbz::from_pangenome(p).unwrap();
        let mapper = Mapper::new(&gbz);
        let dump_for = |n: usize| {
            SeedDump::new(
                Workflow::Single,
                (0..n)
                    .map(|_| ReadInput {
                        bases: b"ACGTACGTACGT".to_vec(),
                        seeds: vec![Seed::new(
                            0,
                            GraphPos::new(Handle::forward(NodeId::new(1)), 0),
                        )],
                    })
                    .collect(),
            )
        };
        let small = dump_for(5);
        let large = dump_for(17);
        let opts = MappingOptions::default();

        let mut cache = FeatureCache::default();
        let n_small = cache.features(&mapper, &small, &opts, 256, 1.0, "a").tasks.len();
        // Same input hits the memo and returns the identical workload.
        let n_again = cache.features(&mapper, &small, &opts, 256, 1.0, "a").tasks.len();
        assert_eq!(n_small, n_again);
        // A different dump through the *same* cache must re-collect, not
        // serve the stale small-dump features.
        let n_large = cache.features(&mapper, &large, &opts, 256, 1.0, "a").tasks.len();
        assert_ne!(n_small, n_large);
        assert_eq!(n_large, large.reads.len());
        // Changing only the base options also invalidates.
        let other_opts = MappingOptions { batch_size: opts.batch_size + 1, ..opts.clone() };
        let fresh = FeatureCache::default()
            .features(&mapper, &large, &other_opts, 256, 1.0, "a")
            .tasks
            .len();
        let mut cache2 = cache;
        let swapped = cache2.features(&mapper, &large, &other_opts, 256, 1.0, "a").tasks.len();
        assert_eq!(swapped, fresh);
    }
}
