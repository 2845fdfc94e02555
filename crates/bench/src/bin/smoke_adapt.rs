//! Adaptive-tuning smoke bench: the closed-loop controller from defaults
//! versus the offline-sweep optimum, on the four golden workloads.
//!
//! For each input set the bench runs [`run_adaptive_parent`] starting from
//! the stock default knobs (batch 512, cache 256, chunk window
//! `threads × batch`) and byte-compares its GAF against a fixed-knob
//! [`Parent::run`] on a controller-untouched parent **before any timing**
//! — adaptation is an execution strategy, never a result change. The reads
//! are tiled so the controller sees enough chunk-boundary epochs to sweep
//! its axes even at small `MG_SCALE`.
//!
//! The offline optimum is a small batch × cache grid timed under the same
//! single-thread pipeline (the two axes the controller probes here; the
//! chunk window is a serve-path knob). The convergence signal is
//! `throughput(converged knobs) / throughput(grid optimum)`, measured as a
//! paired ratio and hardened across fresh child processes exactly like
//! `smoke_shard` — per-process memory layout biases a single process's
//! ratio by several percent in either direction, and the median across
//! processes cancels it. Writes `BENCH_ADAPT.json` under `MG_OUT` for the
//! verify gate.

use std::hint::black_box;
use std::time::Instant;

use mg_bench::{parent_reads, Ctx};
use mg_index::DistanceIndex;
use mg_obs::Metrics;
use mg_parent::{run_to_gaf, Parent, ParentOptions};
use mg_tuning::{run_adaptive_parent, ControllerConfig, KnobState};
use mg_workload::InputSetSpec;

/// Extra fresh-process timing samples beyond this process's own.
const CHILD_SAMPLES: usize = 6;

/// When set, the binary runs setup + one paired timing sample over the
/// knob pair in `MG_ADAPT_KNOBS_A` / `MG_ADAPT_KNOBS_B` and prints
/// `adapt_ratio <r>` instead of the full bench.
const CHILD_ENV: &str = "MG_ADAPT_TIMING_CHILD";

/// Controller sweep needs several epochs per axis; tile the scaled read
/// set up to roughly this many reads so enough chunk boundaries exist.
const TILE_TARGET: usize = 8192;

fn with_knobs(base: &ParentOptions, k: &KnobState) -> ParentOptions {
    let mut options = base.clone();
    options.mapping.batch_size = k.batch_size.max(1);
    options.mapping.cache_capacity = k.cache_capacity.max(1);
    options
}

/// Times one `parent.run` pass per rep for each side back-to-back,
/// alternating which side goes first, and returns (best A seconds, best B
/// seconds, median per-rep time_b/time_a ratio — i.e. throughput A over
/// throughput B).
fn paired_timing(
    parent: &Parent,
    reads: &[Vec<u8>],
    a: &ParentOptions,
    b: &ParentOptions,
    reps: usize,
    passes: usize,
) -> (f64, f64, f64) {
    let (mut a_s, mut b_s) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(reps);
    let time_side = |options: &ParentOptions| -> f64 {
        let t = Instant::now();
        for _ in 0..passes {
            black_box(parent.run(reads, options));
        }
        t.elapsed().as_secs_f64() / passes as f64
    };
    for rep in 0..reps {
        let (ta, tb) = if rep % 2 == 0 {
            let ta = time_side(a);
            (ta, time_side(b))
        } else {
            let tb = time_side(b);
            (time_side(a), tb)
        };
        a_s = a_s.min(ta);
        b_s = b_s.min(tb);
        ratios.push(tb / ta);
    }
    ratios.sort_by(f64::total_cmp);
    (a_s, b_s, ratios[ratios.len() / 2])
}

/// Best-of-`reps` seconds for one fixed-knob pass (after one warm pass).
fn time_point(parent: &Parent, reads: &[Vec<u8>], options: &ParentOptions, reps: usize) -> f64 {
    black_box(parent.run(reads, options));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(parent.run(reads, options));
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn parse_knobs(var: &str) -> Option<KnobState> {
    let raw = std::env::var(var).ok()?;
    let mut it = raw.split(',');
    let batch = it.next()?.trim().parse().ok()?;
    let cache = it.next()?.trim().parse().ok()?;
    Some(KnobState {
        batch_size: batch,
        cache_capacity: cache,
        ..KnobState::default_for(1)
    })
}

/// Re-execs this binary in child-timing mode over the given knob pair and
/// parses its ratio.
fn child_ratio(a: &KnobState, b: &KnobState) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .env(CHILD_ENV, "1")
        .env("MG_ADAPT_KNOBS_A", format!("{},{}", a.batch_size, a.cache_capacity))
        .env("MG_ADAPT_KNOBS_B", format!("{},{}", b.batch_size, b.cache_capacity))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("adapt_ratio "))
        .and_then(|v| v.trim().parse().ok())
}

struct WorkloadResult {
    name: &'static str,
    reads: usize,
    tile: usize,
    chunks: u64,
    epochs: u64,
    accepted: u64,
    reverted: u64,
    skipped: u64,
    converged: bool,
    oracle_match: bool,
    knobs: KnobState,
    best_knobs: KnobState,
    default_rps: f64,
    adaptive_rps: f64,
    best_rps: f64,
    ratio: f64,
}

/// Adaptive run + oracle compare + grid optimum + paired ratio for one
/// golden workload. `timing_reps`/`passes` size the paired measurement.
fn run_workload(
    ctx: &Ctx,
    spec: InputSetSpec,
    timing_reps: usize,
    passes: usize,
) -> WorkloadResult {
    let name = spec.name;
    let input = ctx.generate(&spec);
    let reads = parent_reads(&input);
    let tile = (TILE_TARGET / reads.len().max(1)).clamp(1, 256);
    let tiled: Vec<Vec<u8>> = reads.iter().cycle().take(reads.len() * tile).cloned().collect();

    let distance = DistanceIndex::build(input.gbz.graph());
    let parent = Parent::with_distance(
        &input.gbz,
        &input.minimizer_index,
        distance.clone(),
        input.spec.workflow,
    );

    let mut base = ParentOptions::default();
    base.mapping.threads = 1; // single-thread keeps the grid comparison clean

    // Adaptive run from stock defaults, one epoch per chunk so the tiled
    // read set yields enough probe opportunities. GAF oracle BEFORE any
    // timing: a controller-untouched parent maps the identical tiled reads
    // with fixed default knobs.
    let metrics = Metrics::new();
    let run = run_adaptive_parent(
        &parent,
        "smoke",
        &tiled,
        &base,
        ControllerConfig::default(),
        1,
        &metrics,
    );
    let oracle_parent = Parent::with_distance(
        &input.gbz,
        &input.minimizer_index,
        distance,
        input.spec.workflow,
    );
    let oracle_gaf = run_to_gaf(input.gbz.graph(), &oracle_parent.run(&tiled, &base), "smoke");
    let oracle_match = !oracle_gaf.is_empty() && run.gaf == oracle_gaf;
    assert!(oracle_match, "{name}: adaptive GAF diverged from the fixed-knob oracle");

    // Offline optimum: small batch × cache grid under the same pipeline
    // (untiled reads — relative timing only). Defaults are a grid point,
    // so the optimum is never worse than the starting configuration.
    let mut best_knobs = KnobState::default_for(1);
    let mut best_s = f64::INFINITY;
    let mut default_s = f64::INFINITY;
    for batch in [128usize, 512, 2048] {
        for cache in [64usize, 256, 1024] {
            let point =
                KnobState { batch_size: batch, cache_capacity: cache, ..KnobState::default_for(1) };
            let s = time_point(&parent, &reads, &with_knobs(&base, &point), 2);
            if batch == 512 && cache == 256 {
                default_s = s;
            }
            if s < best_s {
                best_s = s;
                best_knobs = point;
            }
        }
    }

    // Converged-knob throughput vs the grid optimum, paired so host drift
    // cancels within each rep.
    let (adapt_s, opt_s, ratio) = paired_timing(
        &parent,
        &reads,
        &with_knobs(&base, &run.report.knobs),
        &with_knobs(&base, &best_knobs),
        timing_reps,
        passes,
    );
    let rps = |s: f64| reads.len() as f64 / s;
    WorkloadResult {
        name,
        reads: reads.len(),
        tile,
        chunks: run.chunks,
        epochs: run.report.stats.epochs,
        accepted: run.report.stats.accepted,
        reverted: run.report.stats.reverted,
        skipped: run.report.stats.skipped,
        converged: run.report.converged,
        oracle_match,
        knobs: run.report.knobs,
        best_knobs,
        default_rps: rps(default_s),
        adaptive_rps: rps(adapt_s),
        best_rps: rps(opt_s.min(best_s)),
        ratio,
    }
}

fn main() {
    let ctx = Ctx::from_env();
    let timing_reps = 5usize;
    let passes = 2usize;

    if std::env::var_os(CHILD_ENV).is_some() {
        // Fresh-process timing sample on the gate workload: identical
        // deterministic setup, warm pass per side, then the paired loop
        // over the knob pair handed down by the parent process.
        let a = parse_knobs("MG_ADAPT_KNOBS_A").expect("MG_ADAPT_KNOBS_A");
        let b = parse_knobs("MG_ADAPT_KNOBS_B").expect("MG_ADAPT_KNOBS_B");
        let input = ctx.generate(&InputSetSpec::b_yeast());
        let reads = parent_reads(&input);
        let distance = DistanceIndex::build(input.gbz.graph());
        let parent = Parent::with_distance(
            &input.gbz,
            &input.minimizer_index,
            distance,
            input.spec.workflow,
        );
        let mut base = ParentOptions::default();
        base.mapping.threads = 1;
        let (_, _, ratio) = paired_timing(
            &parent,
            &reads,
            &with_knobs(&base, &a),
            &with_knobs(&base, &b),
            timing_reps,
            passes,
        );
        println!("adapt_ratio {ratio:.4}");
        return;
    }

    let specs = [
        InputSetSpec::a_human(),
        InputSetSpec::b_yeast(),
        InputSetSpec::c_hprc(),
        InputSetSpec::d_hprc(),
    ];
    let mut results = Vec::with_capacity(specs.len());
    for spec in specs {
        let r = run_workload(&ctx, spec, timing_reps, passes);
        println!(
            "{:<8}: {:>6} reads x{:<3} | {:>3} epochs ({} accepted, {} reverted, {} skipped){} | knobs {} (sweep best bs{}/cc{}) | adaptive/optimum {:.3}",
            r.name,
            r.reads,
            r.tile,
            r.epochs,
            r.accepted,
            r.reverted,
            r.skipped,
            if r.converged { ", converged" } else { "" },
            r.knobs,
            r.best_knobs.batch_size,
            r.best_knobs.cache_capacity,
            r.ratio,
        );
        results.push(r);
    }
    let oracle_match_all = results.iter().all(|r| r.oracle_match);

    // Harden the gated B-yeast ratio across fresh processes: one process
    // is not enough — per-process memory layout (ASLR, allocator arena
    // placement) biases the paired loops differently for the life of the
    // process, so re-measure the same knob pair in re-exec'd children and
    // gate on the median ratio across processes.
    let gate = results.iter().find(|r| r.name == "B-yeast").expect("B-yeast result");
    let mut ratios = vec![gate.ratio];
    for child in 0..CHILD_SAMPLES {
        match child_ratio(&gate.knobs, &gate.best_knobs) {
            Some(r) => ratios.push(r),
            None => eprintln!("child {child}: re-exec failed; continuing with fewer samples"),
        }
    }
    ratios.sort_by(f64::total_cmp);
    let convergence_ratio = ratios[ratios.len() / 2];
    let ratio_line = ratios.iter().map(|r| format!("{r:.3}")).collect::<Vec<_>>().join(" ");

    println!("oracle          : GAF byte-identical on all {} workloads", results.len());
    println!("ratio samples   : [{ratio_line}] across {} processes", ratios.len());
    println!(
        "convergence     : adaptive/optimum = {convergence_ratio:.3} on B-yeast (median across processes, gate target >= 0.90)"
    );

    let workloads_json = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"name\": \"{}\",\n",
                    "      \"reads\": {},\n",
                    "      \"tile\": {},\n",
                    "      \"chunks\": {},\n",
                    "      \"epochs\": {},\n",
                    "      \"accepted\": {},\n",
                    "      \"reverted\": {},\n",
                    "      \"skipped\": {},\n",
                    "      \"converged\": {},\n",
                    "      \"oracle_match\": {},\n",
                    "      \"batch_size\": {},\n",
                    "      \"cache_capacity\": {},\n",
                    "      \"sweep_best_batch_size\": {},\n",
                    "      \"sweep_best_cache_capacity\": {},\n",
                    "      \"default_reads_per_sec\": {:.2},\n",
                    "      \"adaptive_reads_per_sec\": {:.2},\n",
                    "      \"sweep_best_reads_per_sec\": {:.2},\n",
                    "      \"ratio\": {:.4}\n",
                    "    }}"
                ),
                r.name,
                r.reads,
                r.tile,
                r.chunks,
                r.epochs,
                r.accepted,
                r.reverted,
                r.skipped,
                r.converged,
                r.oracle_match,
                r.knobs.batch_size,
                r.knobs.cache_capacity,
                r.best_knobs.batch_size,
                r.best_knobs.cache_capacity,
                r.default_rps,
                r.adaptive_rps,
                r.best_rps,
                r.ratio,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"oracle_match\": {},\n",
            "  \"convergence_ratio\": {:.4},\n",
            "  \"timing_processes\": {},\n",
            "  \"timing_reps\": {},\n",
            "  \"passes_per_rep\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"debug_assertions\": {}\n",
            "}}\n"
        ),
        oracle_match_all,
        convergence_ratio,
        ratios.len(),
        timing_reps,
        passes,
        workloads_json,
        cfg!(debug_assertions),
    );
    std::fs::create_dir_all(&ctx.out_dir).expect("create results dir");
    let path = ctx.out_dir.join("BENCH_ADAPT.json");
    std::fs::write(&path, json).expect("write BENCH_ADAPT.json");
    println!("wrote {}", path.display());
    assert!(oracle_match_all, "adaptive GAF diverged from the fixed-knob oracle");
}
