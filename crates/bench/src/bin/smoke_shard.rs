//! Sharded-mapping smoke bench: routing selectivity, single-thread
//! throughput parity, and cold-start of the per-shard `.mgi` deployment.
//!
//! Builds the default shard deployment (4 region shards with halo
//! windows) over B-yeast and drives the same read set through both
//! pipelines:
//!
//! * **mono** — the monolithic [`Parent::run`];
//! * **sharded** — [`ShardedParent::run`], minimizer-hit routing per read,
//!   resident reads on per-shard subgraph state, fallback on the full
//!   pangenome.
//!
//! The GAF from both runs must be byte-identical (routing is an execution
//! strategy, never a result change). Routing counters give the mean
//! shards probed per read — the router must prune most shards, not scan
//! them. Throughput is interleaved round-robin so host drift cancels, and
//! cold start compares parse-and-rebuild against opening the shard
//! directory (and one single shard, the serve-one-region floor). Writes
//! `BENCH_SHARD.json` under `MG_OUT` for the verify gate.

use std::hint::black_box;
use std::time::Instant;

use mg_bench::{parent_reads, Ctx};
use mg_core::shard::{ShardParams, ShardSet};
use mg_core::MgiBundle;
use mg_gbwt::Gbz;
use mg_index::DistanceIndex;
use mg_obs::{Ctr, Hist, Metrics};
use mg_parent::{run_to_gaf, Parent, ParentOptions, ShardedParent};
use mg_support::regions::NullSink;
use mg_workload::InputSetSpec;

/// Extra fresh-process timing samples beyond this process's own (see the
/// layout-bias note at the measurement site).
const CHILD_SAMPLES: usize = 6;

/// When set, the binary runs setup + one paired timing sample and prints
/// `paired_ratio <r>` instead of the full bench.
const CHILD_ENV: &str = "MG_SHARD_TIMING_CHILD";

/// Times `passes`-pass windows of both pipelines back-to-back for `reps`
/// reps, alternating which side goes first. Returns (best mono window,
/// best sharded window, median paired mono/sharded time ratio).
fn paired_timing(
    parent: &Parent,
    sharded: &ShardedParent,
    reads: &[Vec<u8>],
    options: &ParentOptions,
    reps: usize,
    passes: usize,
) -> (f64, f64, f64) {
    let (mut mono_s, mut shard_s) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(reps);
    let time_side = |sharded_side: bool| -> f64 {
        let t = Instant::now();
        for _ in 0..passes {
            if sharded_side {
                black_box(sharded.run(reads, options));
            } else {
                black_box(parent.run(reads, options));
            }
        }
        t.elapsed().as_secs_f64() / passes as f64
    };
    for rep in 0..reps {
        let (m, s) = if rep % 2 == 0 {
            let m = time_side(false);
            (m, time_side(true))
        } else {
            let s = time_side(true);
            (time_side(false), s)
        };
        mono_s = mono_s.min(m);
        shard_s = shard_s.min(s);
        ratios.push(m / s);
    }
    ratios.sort_by(f64::total_cmp);
    (mono_s, shard_s, ratios[ratios.len() / 2])
}

/// Re-execs this binary in child-timing mode and parses its ratio.
fn child_ratio() -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe).env(CHILD_ENV, "1").output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("paired_ratio "))
        .and_then(|v| v.trim().parse().ok())
}

fn main() {
    let ctx = Ctx::from_env();
    let spec = InputSetSpec::b_yeast();
    let input = ctx.generate(&spec);
    let reads = parent_reads(&input);
    let reps = 3usize;
    // Throughput samples: more reps, and several mapping passes per timed
    // window — a single pass over the scaled read set is ~30 ms, short
    // enough for scheduler jitter to swing the ratio by several percent.
    let timing_reps = 5usize;
    let passes = 3usize;

    let distance = DistanceIndex::build(input.gbz.graph());
    let parent = Parent::with_distance(
        &input.gbz,
        &input.minimizer_index,
        distance.clone(),
        input.spec.workflow,
    );

    let params = ShardParams::default();
    let t0 = Instant::now();
    let set = ShardSet::build(&input.gbz, &input.minimizer_index, &distance, &params)
        .expect("build shard set");
    let build_s = t0.elapsed().as_secs_f64();
    let k = set.shard_count();
    let sharded = ShardedParent::new(&parent, &set).expect("wire sharded parent");

    let mut options = ParentOptions::default();
    options.mapping.threads = 1; // the parity gate is single-thread

    if std::env::var_os("MG_SHARD_PROFILE").is_some() {
        use mg_index::minimizer::{extract_minimizers_into, Minimizer, MinimizerScratch};
        let mut scratch = MinimizerScratch::default();
        let mut mins: Vec<Minimizer> = Vec::new();
        let t = Instant::now();
        for r in &reads {
            extract_minimizers_into(r, set.manifest.params, &mut scratch, &mut mins);
            black_box(&mins);
        }
        let extract_s = t.elapsed().as_secs_f64();
        let mut nmin = 0usize;
        let t = Instant::now();
        for r in &reads {
            extract_minimizers_into(r, set.manifest.params, &mut scratch, &mut mins);
            nmin += mins.len();
            for m in &mins {
                let hashed = mg_index::KmerBloom::probe_hashes(m.kmer);
                for b in &set.manifest.blooms {
                    black_box(b.contains_hashed(hashed));
                }
            }
        }
        let bloom_s = t.elapsed().as_secs_f64() - extract_s;
        let mut rs = mg_core::shard::RouteScratch::default();
        let mut seeds = Vec::new();
        let t = Instant::now();
        for r in &reads {
            black_box(set.route_read(r, options.hard_hit_cap, &mut rs, &mut seeds));
        }
        let route_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for r in &reads {
            black_box(input.minimizer_index.query(r, options.hard_hit_cap));
        }
        let mono_q_s = t.elapsed().as_secs_f64();
        let per = 1e9 / reads.len() as f64;
        eprintln!(
            "profile: {:.0} min/read; extract {:.0} ns, +bloom {:.0} ns, route {:.0} ns, mono query(extract+lookup+alloc) {:.0} ns",
            nmin as f64 / reads.len() as f64,
            extract_s * per,
            bloom_s * per,
            route_s * per,
            mono_q_s * per,
        );
        for side in ["mono", "shard"] {
            // Warm pass, then a counted pass.
            let m = Metrics::new();
            if side == "mono" {
                black_box(parent.run(&reads, &options));
                black_box(parent.run_with_sink_metrics(&reads, &options, &NullSink, &m));
            } else {
                black_box(sharded.run(&reads, &options));
                black_box(sharded.run_with_sink_metrics(&reads, &options, &NullSink, &m));
            }
            let rep = m.report();
            eprintln!(
                "profile {side}: cache hits {} misses {} seeding_ns/read {:.0} cluster/extend/rescore ns/read {:?}",
                rep.counter(Ctr::CacheHits),
                rep.counter(Ctr::CacheMisses),
                rep.stage_ns(mg_obs::Stage::Seeding) as f64 / reads.len() as f64,
                [mg_obs::Stage::Clustering, mg_obs::Stage::Extension, mg_obs::Stage::Rescoring]
                    .map(|st| (rep.stage_ns(st) as f64 / reads.len() as f64).round()),
            );
        }
        return;
    }

    if std::env::var_os(CHILD_ENV).is_some() {
        // Fresh-process timing sample: identical deterministic setup, one
        // untimed warm-up pass per side (caches warm), then the
        // paired loop. The parent gates on the median across processes.
        black_box(parent.run(&reads, &options));
        black_box(sharded.run(&reads, &options));
        let (_, _, ratio) = paired_timing(&parent, &sharded, &reads, &options, 5, passes);
        println!("paired_ratio {ratio:.4}");
        return;
    }

    // Differential oracle + routing counters in one instrumented pass.
    let metrics = Metrics::new();
    let mono_run = parent.run(&reads, &options);
    let shard_run = sharded.run_with_sink_metrics(&reads, &options, &NullSink, &metrics);
    let mono_gaf = run_to_gaf(input.gbz.graph(), &mono_run, "smoke");
    let shard_gaf = run_to_gaf(input.gbz.graph(), &shard_run, "smoke");
    let oracle_match = !mono_gaf.is_empty() && mono_gaf == shard_gaf;

    let report = metrics.report();
    let routed = report.counter(Ctr::RouteReadsTotal).max(1);
    let probed = report.counter(Ctr::RouteShardsProbed);
    let resident = report.counter(Ctr::RouteResidentReads);
    let fallback = report.counter(Ctr::RouteFallbackReads);
    let merge_ns = report.counter(Ctr::ShardMergeNs);
    let mean_probed = probed as f64 / routed as f64;
    let resident_fraction = resident as f64 / routed as f64;
    let fanout_p99 = report.hist_quantile(Hist::RouteFanout, 0.99);

    // Throughput: both pipelines are warm (warmed above); interleave
    // the timed reps round-robin so host drift hits both sides equally,
    // and keep the best rep of each (the least-perturbed sample).
    // Each rep times the two sides back-to-back and contributes one paired
    // ratio — pairing cancels slow host drift, alternating which side goes
    // first cancels any first-mover advantage, and the median ratio is
    // immune to a single perturbed rep (the min-based rates are not).
    let (mono_s, shard_s, own_ratio) =
        paired_timing(&parent, &sharded, &reads, &options, timing_reps, passes);
    let mono_rps = reads.len() as f64 / mono_s;
    let shard_rps = reads.len() as f64 / shard_s;
    // One process is not enough: per-process memory layout (ASLR, allocator
    // arena placement) biases the two hot loops differently and the bias
    // holds for the life of the process, so the paired ratio can sit several
    // percent off in either direction no matter how many in-process reps
    // run. Re-measure in fresh child processes (`MG_SHARD_TIMING_CHILD=1`
    // re-exec, deterministic same-seed setup) and gate on the median ratio
    // across processes.
    let mut ratios = vec![own_ratio];
    for child in 0..CHILD_SAMPLES {
        match child_ratio() {
            Some(r) => ratios.push(r),
            None => eprintln!("child {child}: re-exec failed; continuing with fewer samples"),
        }
    }
    ratios.sort_by(f64::total_cmp);
    let throughput_ratio = ratios[ratios.len() / 2];
    let ratio_line =
        ratios.iter().map(|r| format!("{r:.3}")).collect::<Vec<_>>().join(" ");

    // Cold start: parse + rebuild vs opening the shard directory, plus a
    // single shard alone — the floor for serving one region. First rep of
    // each warms the page cache; best-of keeps the steady-state number.
    let dir = std::env::temp_dir().join(format!("smoke-shard-{}", std::process::id()));
    let shard_dir = dir.join("shards");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mgz_path = dir.join("smoke.mgz");
    input.gbz.save(&mgz_path).expect("write .mgz");
    set.save_dir(&shard_dir).expect("save shard dir");

    let mut parsed_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let gbz = Gbz::load(&mgz_path).expect("load .mgz");
        black_box(MgiBundle::build(gbz, spec.minimizer).expect("rebuild indexes"));
        parsed_s = parsed_s.min(t.elapsed().as_secs_f64());
    }
    let mut open_all_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(ShardSet::open_dir(&shard_dir).expect("open shard dir"));
        open_all_s = open_all_s.min(t.elapsed().as_secs_f64());
    }
    let mut open_one_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(MgiBundle::open(shard_dir.join(ShardSet::shard_file(0))).expect("open shard 0"));
        open_one_s = open_one_s.min(t.elapsed().as_secs_f64());
    }
    let cold_speedup = parsed_s / open_all_s;
    let one_shard_speedup = parsed_s / open_one_s;

    println!("input           : {} ({} reads, {k} shards, built in {build_s:.3}s)", spec.name, reads.len());
    println!("oracle          : {}", if oracle_match { "GAF byte-identical" } else { "MISMATCH" });
    println!(
        "routing         : mean {mean_probed:.2} shards probed / read (of {k}), fanout p99 <= {fanout_p99}"
    );
    println!(
        "residency       : {:.1}% resident, {fallback} fallback reads, merge {:.0} ns/read",
        resident_fraction * 100.0,
        merge_ns as f64 / resident.max(1) as f64
    );
    println!(
        "mono            : {mono_rps:>12.0} reads/s (1 thread, best of {timing_reps}x{passes}-pass)"
    );
    println!(
        "sharded         : {shard_rps:>12.0} reads/s (1 thread, best of {timing_reps}x{passes}-pass)"
    );
    println!("ratio samples   : [{ratio_line}] across {} processes", ratios.len());
    println!(
        "throughput      : sharded/mono = {throughput_ratio:.3} (median across processes; audit input, not gated)"
    );
    println!("cold start      : parse+rebuild {parsed_s:.4}s, open {k} shards {open_all_s:.4}s ({cold_speedup:.1}x)");
    println!(
        "one-shard start : {open_one_s:.4}s ({one_shard_speedup:.1}x, superlinear vs {k} shards when > {k}x)"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"input\": \"{}\",\n",
            "  \"reads\": {},\n",
            "  \"reps\": {},\n",
            "  \"passes_per_rep\": {},\n",
            "  \"timing_processes\": {},\n",
            "  \"shard_count\": {},\n",
            "  \"shard_build_s\": {:.4},\n",
            "  \"oracle_match\": {},\n",
            "  \"mean_shards_probed\": {:.4},\n",
            "  \"fanout_p99\": {},\n",
            "  \"resident_fraction\": {:.4},\n",
            "  \"fallback_reads\": {},\n",
            "  \"merge_ns_per_resident_read\": {:.1},\n",
            "  \"mono_reads_per_sec\": {:.2},\n",
            "  \"sharded_reads_per_sec\": {:.2},\n",
            "  \"throughput_ratio\": {:.4},\n",
            "  \"parsed_startup_s\": {:.6},\n",
            "  \"shard_dir_open_s\": {:.6},\n",
            "  \"one_shard_open_s\": {:.6},\n",
            "  \"cold_speedup\": {:.2},\n",
            "  \"one_shard_speedup\": {:.2},\n",
            "  \"debug_assertions\": {}\n",
            "}}\n"
        ),
        spec.name,
        reads.len(),
        timing_reps,
        passes,
        ratios.len(),
        k,
        build_s,
        oracle_match,
        mean_probed,
        fanout_p99,
        resident_fraction,
        fallback,
        merge_ns as f64 / resident.max(1) as f64,
        mono_rps,
        shard_rps,
        throughput_ratio,
        parsed_s,
        open_all_s,
        open_one_s,
        cold_speedup,
        one_shard_speedup,
        cfg!(debug_assertions),
    );
    std::fs::create_dir_all(&ctx.out_dir).expect("create results dir");
    let path = ctx.out_dir.join("BENCH_SHARD.json");
    std::fs::write(&path, json).expect("write BENCH_SHARD.json");
    println!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(oracle_match, "sharded GAF diverged from the monolithic GAF");
}
