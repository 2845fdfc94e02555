//! Autotuning (paper §VII-B): sweep scheduler × batch size × CachedGBWT
//! capacity on a simulated machine and compare the best configuration
//! against Giraffe's defaults.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use minigiraffe::core::{Mapper, MappingOptions};
use minigiraffe::perf::MachineModel;
use minigiraffe::tuning::{run_sim_sweep, FeatureCache, ParamSpace, TuningPoint};
use minigiraffe::workload::{InputSetSpec, SyntheticInput};

fn main() {
    let spec = InputSetSpec::a_human();
    println!("generating input set {}...", spec.name);
    let input = SyntheticInput::generate(&spec, 11);
    let mapper = Mapper::new(&input.gbz);
    // The paper subsamples to the first 10% of reads for tuning runs.
    let dump = input.dump.subsample(0.1);

    let machine = MachineModel::chi_arm();
    let threads = machine.total_threads();
    println!(
        "sweeping {} configurations on simulated {} ({} threads)...",
        ParamSpace::default().len(),
        machine.name,
        threads
    );
    // Tile the measured per-read costs to the paper's subsampled scale
    // (~100k reads for A-human), so batch-vs-thread granularity matches.
    let tile = (100_000 / dump.reads.len()).max(1);
    let sweep = run_sim_sweep(
        &machine,
        &mapper,
        &dump,
        &ParamSpace::default(),
        threads,
        &MappingOptions::default(),
        40.0,
        spec.name,
        tile,
        &mut FeatureCache::default(),
    );

    let best = sweep.best().expect("sweep measured at least one configuration");
    let default = sweep
        .find(TuningPoint::default_config())
        .expect("default config in the sweep space");
    println!("default ({}): {:.4}s", default.point, default.makespan_s);
    println!("best    ({}): {:.4}s", best.point, best.makespan_s);
    println!(
        "speedup from tuning: {:.2}x (worst config would be {:.2}x slower than best)",
        default.makespan_s / best.makespan_s,
        sweep.worst().expect("non-empty sweep").makespan_s / best.makespan_s
    );

    let (sched, batch, capacity) = sweep.anova_by_parameter();
    println!("\nANOVA (which parameter matters?):");
    for (name, anova) in [("scheduler", sched), ("batch size", batch), ("cache capacity", capacity)] {
        match anova {
            Some(a) => println!(
                "  {name:<15} F = {:>8.3}  p = {:.3}  {}",
                a.f_statistic,
                a.p_value,
                if a.is_significant() { "significant" } else { "not significant" }
            ),
            None => println!("  {name:<15} (no variance)"),
        }
    }
}
