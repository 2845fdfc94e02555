//! Case studies: Figures 5–8, Tables VII–VIII, and the ANOVA (§VII).

use crate::{render_table, required_memory_gb, sim_task_target, tile_factor, Ctx};
use mg_core::{Mapper, MappingOptions};
use mg_perf::{collect_features, simulate, MachineModel, SimSched};
use mg_tuning::{
    run_sim_sweep, FeatureCache, ParamSpace, SweepResult, TuningPoint,
};
use mg_workload::InputSetSpec;

/// Thread ladder swept per machine in Figure 5.
fn thread_ladder(max: usize) -> Vec<usize> {
    [1usize, 2, 4, 8, 16, 24, 32, 48, 64, 80, 96, 128, 160]
        .into_iter()
        .filter(|&t| t <= max)
        .collect()
}

/// Figure 5 + Table VII — proxy scaling on the four machines; fastest
/// execution time per input × machine.
pub fn fig5(ctx: &Ctx) -> String {
    let machines = MachineModel::all();
    let mut csv = Vec::new();
    let mut fastest: Vec<Vec<String>> = Vec::new();
    let mut report = String::new();
    for spec in InputSetSpec::all() {
        let input = ctx.generate(&spec);
        let mapper = Mapper::new(&input.gbz);
        // Figure 5 runs the *full* inputs (only the tuning study
        // subsamples), so tile to 5x the tuning-scale task counts.
        let workload = collect_features(
            &mapper,
            &input.dump,
            &MappingOptions::default(),
            required_memory_gb(spec.name),
            spec.name,
        )
        .tiled(tile_factor(input.dump.reads.len(), 5 * sim_task_target(spec.name)));
        let mut fast_row = vec![spec.name.to_string()];
        let mut rows = Vec::new();
        for machine in &machines {
            let mut best = f64::INFINITY;
            let t1 = simulate(machine, &workload, 1, SimSched::Dynamic { batch: 512 }).makespan_s;
            for threads in thread_ladder(machine.total_threads()) {
                let out = simulate(machine, &workload, threads, SimSched::Dynamic { batch: 512 });
                match out.makespan_s {
                    Some(t) => {
                        best = best.min(t);
                        let speedup = t1.map_or(0.0, |one| one / t);
                        rows.push(vec![
                            machine.name.to_string(),
                            threads.to_string(),
                            format!("{t:.4}"),
                            format!("{speedup:.1}"),
                        ]);
                        csv.push(format!(
                            "{},{},{},{t:.6},{speedup:.3}",
                            spec.name, machine.name, threads
                        ));
                    }
                    None => {
                        rows.push(vec![
                            machine.name.to_string(),
                            threads.to_string(),
                            "OOM".to_string(),
                            "-".to_string(),
                        ]);
                        csv.push(format!("{},{},{},OOM,-", spec.name, machine.name, threads));
                        break;
                    }
                }
            }
            fast_row.push(if best.is_finite() {
                format!("{best:.4}")
            } else {
                "OOM".to_string()
            });
        }
        fastest.push(fast_row);
        report.push_str(&render_table(
            &format!("Figure 5: proxy scaling, input {} (simulated)", spec.name),
            &["machine", "threads", "makespan (s)", "speedup"],
            &rows,
        ));
    }
    ctx.write_csv(
        "fig5_scaling.csv",
        "input,machine,threads,makespan_s,speedup",
        &csv,
    );
    let header: Vec<&str> = std::iter::once("input set")
        .chain(machines.iter().map(|m| m.name))
        .collect();
    ctx.write_csv(
        "table7_fastest.csv",
        &header.join(","),
        &fastest.iter().map(|r| r.join(",")).collect::<Vec<_>>(),
    );
    report.push_str(&render_table(
        "Table VII: fastest execution times (s) per input set and machine",
        &header,
        &fastest,
    ));
    report
}

/// Figure 6 — speedup for different initial CachedGBWT capacities against
/// the no-cache baseline (C-HPRC on local-intel, both schedulers).
pub fn fig6(ctx: &Ctx) -> String {
    let spec = InputSetSpec::c_hprc();
    let input = ctx.generate(&spec);
    let mapper = Mapper::new(&input.gbz);
    let machine = MachineModel::local_intel();
    let threads = 48;
    let tile = tile_factor(input.dump.reads.len(), sim_task_target(spec.name));
    let features_for = |capacity: usize| {
        collect_features(
            &mapper,
            &input.dump,
            &MappingOptions { cache_capacity: capacity, ..Default::default() },
            required_memory_gb(spec.name),
            spec.name,
        )
        .tiled(tile)
    };
    let baseline_workload = features_for(0);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for sched_name in ["openmp-dynamic", "work-stealing"] {
        let sched = |batch: usize| {
            if sched_name == "openmp-dynamic" {
                SimSched::Dynamic { batch }
            } else {
                SimSched::WorkStealing { batch }
            }
        };
        let baseline = simulate(&machine, &baseline_workload, threads, sched(512))
            .makespan_s
            .expect("fits");
        for capacity in [64usize, 256, 1024, 4096, 16384, 65536, 262144] {
            let workload = features_for(capacity);
            let t = simulate(&machine, &workload, threads, sched(512))
                .makespan_s
                .expect("fits");
            rows.push(vec![
                sched_name.to_string(),
                capacity.to_string(),
                format!("{:.3}", baseline / t),
            ]);
            csv.push(format!("{sched_name},{capacity},{:.4}", baseline / t));
        }
    }
    ctx.write_csv("fig6_capacity.csv", "scheduler,capacity,speedup_vs_nocache", &csv);
    let mut report = render_table(
        "Figure 6: speedup vs no-cache for initial CachedGBWT capacities (C-HPRC, local-intel)",
        &["scheduler", "capacity", "speedup vs no cache"],
        &rows,
    );
    report.push_str("paper: maximum speedups at capacity <= 4096; larger capacities degrade\n");
    report
}

/// Data used by Figures 7–8 and Table VIII: one sweep per input × machine.
pub struct TuningStudy {
    /// `(input, machine, sweep)` triples.
    pub sweeps: Vec<(String, &'static str, SweepResult)>,
}

/// Runs the exhaustive cross-product on every input × machine (the paper
/// subsamples each input to its first 10% for this study).
pub fn tuning_study(ctx: &Ctx) -> TuningStudy {
    let machines = MachineModel::all();
    let mut sweeps = Vec::new();
    for spec in InputSetSpec::all() {
        let input = ctx.generate(&spec);
        let mapper = Mapper::new(&input.gbz);
        // First 10% of reads, exactly like the paper — the subsample also
        // shrinks D-HPRC below the 256 GB machines' DRAM, so nothing OOMs
        // in this study. `sim_task_target` already encodes the subsampled
        // read scale.
        let dump = input.dump.subsample(0.1);
        let tile = tile_factor(dump.reads.len(), sim_task_target(spec.name));
        let mut features = FeatureCache::default();
        for machine in &machines {
            let sweep = run_sim_sweep(
                machine,
                &mapper,
                &dump,
                &ParamSpace::default(),
                machine.total_threads(),
                &MappingOptions::default(),
                required_memory_gb(spec.name) / 10.0,
                spec.name,
                tile,
                &mut features,
            );
            sweeps.push((spec.name.to_string(), machine.name, sweep));
        }
    }
    TuningStudy { sweeps }
}

/// Figure 7 + Table VIII — best-tuned vs default makespans, and the
/// configurations behind the best results.
pub fn fig7(ctx: &Ctx, study: &TuningStudy) -> String {
    let mut rows = Vec::new();
    let mut config_rows = Vec::new();
    let mut csv = Vec::new();
    let mut per_input_speedups: std::collections::BTreeMap<String, Vec<f64>> =
        std::collections::BTreeMap::new();
    for (input, machine, sweep) in &study.sweeps {
        let Some(best) = sweep.best() else {
            rows.push(vec![
                input.clone(),
                machine.to_string(),
                "OOM".into(),
                "OOM".into(),
                "-".into(),
            ]);
            continue;
        };
        let default = sweep
            .find(TuningPoint::default_config())
            .expect("default in space");
        let speedup = default.makespan_s / best.makespan_s;
        per_input_speedups
            .entry(input.clone())
            .or_default()
            .push(speedup);
        rows.push(vec![
            input.clone(),
            machine.to_string(),
            format!("{:.4}", default.makespan_s),
            format!("{:.4}", best.makespan_s),
            format!("{speedup:.2}"),
        ]);
        config_rows.push(vec![
            input.clone(),
            machine.to_string(),
            best.point.batch_size.to_string(),
            best.point.cache_capacity.to_string(),
            best.point.scheduler.to_string(),
        ]);
        csv.push(format!(
            "{input},{machine},{:.6},{:.6},{speedup:.3},{},{},{}",
            default.makespan_s,
            best.makespan_s,
            best.point.batch_size,
            best.point.cache_capacity,
            best.point.scheduler
        ));
    }
    ctx.write_csv(
        "fig7_tuning.csv",
        "input,machine,default_s,best_s,speedup,best_bs,best_cc,best_sched",
        &csv,
    );
    let mut report = render_table(
        "Figure 7: best-tuned vs default makespan per input and machine",
        &["input set", "machine", "default (s)", "best (s)", "speedup"],
        &rows,
    );
    report.push_str(&render_table(
        "Table VIII: configuration parameters of the fastest results",
        &["input set", "machine", "BS", "CC", "scheduler"],
        &config_rows,
    ));
    let mut all: Vec<f64> = Vec::new();
    for (input, speedups) in &per_input_speedups {
        all.extend(speedups);
        report.push_str(&format!(
            "{input}: geomean speedup {:.2}x, max {:.2}x\n",
            mg_tuning::geometric_mean(speedups),
            speedups.iter().copied().fold(0.0, f64::max)
        ));
    }
    if !all.is_empty() {
        report.push_str(&format!(
            "overall geometric mean speedup: {:.2}x (paper: 1.15x, max 3.32x)\n",
            mg_tuning::geometric_mean(&all)
        ));
    }
    report
}

/// Figure 8 — makespan heat map of all parameter combinations for D-HPRC
/// on chi-intel.
pub fn fig8(ctx: &Ctx, study: &TuningStudy) -> String {
    let Some((_, _, sweep)) = study
        .sweeps
        .iter()
        .find(|(i, m, _)| i == "D-HPRC" && *m == "chi-intel")
    else {
        return "fig8: D-HPRC @ chi-intel sweep missing".to_string();
    };
    let space = ParamSpace::default();
    let mut report = String::new();
    let mut csv = Vec::new();
    for &scheduler in &space.schedulers {
        let mut rows = Vec::new();
        for &batch in &space.batch_sizes {
            let mut row = vec![batch.to_string()];
            for &capacity in &space.cache_capacities {
                let point = TuningPoint { scheduler, batch_size: batch, cache_capacity: capacity };
                let cell = sweep
                    .find(point)
                    .map_or("-".to_string(), |r| format!("{:.4}", r.makespan_s));
                csv.push(format!("{scheduler},{batch},{capacity},{cell}"));
                row.push(cell);
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("BS \\ CC".to_string())
            .chain(space.cache_capacities.iter().map(|c| c.to_string()))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        report.push_str(&render_table(
            &format!("Figure 8: makespan (s) heat map, D-HPRC @ chi-intel, {scheduler}"),
            &header_refs,
            &rows,
        ));
    }
    ctx.write_csv("fig8_heatmap.csv", "scheduler,batch,capacity,makespan_s", &csv);
    let (Some(best), Some(worst)) = (sweep.best(), sweep.worst()) else {
        report.push_str("sweep produced no measurable configurations\n");
        return report;
    };
    let spread = worst.makespan_s / best.makespan_s;
    let default = sweep.find(TuningPoint::default_config());
    report.push_str(&format!(
        "best {:.4}s, worst {:.4}s (avoidable slowdown {spread:.2}x; paper: 1.76x); default config: {}\n",
        best.makespan_s,
        worst.makespan_s,
        default.map_or("missing".into(), |d| format!("{:.4}s", d.makespan_s)),
    ));
    report
}

/// The ANOVA of §VII-B over the Figure 8 sweep.
pub fn anova(ctx: &Ctx, study: &TuningStudy) -> String {
    let Some((_, _, sweep)) = study
        .sweeps
        .iter()
        .find(|(i, m, _)| i == "D-HPRC" && *m == "chi-intel")
    else {
        return "anova: D-HPRC @ chi-intel sweep missing".to_string();
    };
    let (sched, batch, capacity) = sweep.anova_by_parameter();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, result) in [("scheduler", sched), ("batch size", batch), ("cache capacity", capacity)] {
        match result {
            Some(a) => {
                rows.push(vec![
                    name.to_string(),
                    format!("{:.3}", a.f_statistic),
                    format!("{:.3}", a.p_value),
                    if a.is_significant() { "yes" } else { "no" }.to_string(),
                ]);
                csv.push(format!("{name},{:.4},{:.4}", a.f_statistic, a.p_value));
            }
            None => rows.push(vec![name.to_string(), "-".into(), "-".into(), "-".into()]),
        }
    }
    ctx.write_csv("anova.csv", "parameter,f_statistic,p_value", &csv);
    let mut report = render_table(
        "ANOVA: parameter effect on makespan (D-HPRC @ chi-intel)",
        &["parameter", "F", "p-value", "significant (p<0.05)"],
        &rows,
    );
    report.push_str("paper: capacity p=0.047 (significant), batch p=0.878, scheduler p=0.859\n");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx() -> Ctx {
        Ctx {
            seed: 11,
            scale: 0.04,
            out_dir: std::env::temp_dir().join(format!("mg-case-{}", std::process::id())),
        }
    }

    #[test]
    fn fig6_nocache_baseline_loses_to_moderate_capacity() {
        let ctx = test_ctx();
        let report = fig6(&ctx);
        // Every capacity row should show speedup > 1 (caching helps) for at
        // least the moderate capacities.
        let moderate: Vec<f64> = report
            .lines()
            .filter(|l| l.contains("openmp-dynamic") && (l.contains(" 256 ") || l.contains(" 1024 ")))
            .filter_map(|l| l.split_whitespace().last()?.parse().ok())
            .collect();
        assert!(!moderate.is_empty());
        assert!(moderate.iter().all(|&s| s > 1.0), "{report}");
        std::fs::remove_dir_all(&ctx.out_dir).ok();
    }

    #[test]
    fn thread_ladder_respects_machine_limits() {
        assert_eq!(thread_ladder(64).last(), Some(&64));
        assert_eq!(thread_ladder(160).last(), Some(&160));
        assert!(!thread_ladder(48).contains(&64));
    }
}
