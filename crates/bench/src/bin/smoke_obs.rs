//! Observability smoke test: exports a full metrics report for an
//! instrumented mapping run and measures the overhead of instrumentation.
//!
//! Maps a synthetic dump with the paper's default tuning point three ways:
//!
//! * **plain** — `Mapper::run`, no registry anywhere near the hot loop;
//! * **off** — `Mapper::run_with_sink_metrics` with a disabled registry,
//!   the cost of threading the observability layer through when it is off;
//! * **on** — `Mapper::run_with_sink_metrics` with a live registry.
//!
//! Prints all three rates and writes `METRICS.json` / `METRICS.csv` (the
//! merged report: per-stage timings, cache hits/misses/evictions,
//! scheduler activity) and `OBS_OVERHEAD.json` (the three rates) under
//! `MG_OUT`, default the working directory.

use std::io::Write as _;
use std::time::Instant;

use mg_bench::Ctx;
use mg_core::{Mapper, MappingOptions};
use mg_obs::{Ctr, Metrics, Stage};
use mg_support::regions::NullSink;
use mg_workload::InputSetSpec;

fn main() {
    let ctx = Ctx::from_env();
    let input = ctx.generate(&InputSetSpec::b_yeast());
    let reads = input.dump.reads.len();
    let options = MappingOptions::default();
    let reps = 5usize;

    let mapper = Mapper::new(&input.gbz);
    // Warm the pool and caches once so all three measurements see the
    // same steady state.
    std::hint::black_box(mapper.run(&input.dump, &options));

    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(mapper.run(&input.dump, &options).total_extensions());
    }
    let plain_secs = t0.elapsed().as_secs_f64();

    let off = Metrics::off();
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(mapper.run_with_sink_metrics(&input.dump, &options, &NullSink, &off));
    }
    let off_secs = t0.elapsed().as_secs_f64();

    let metrics = Metrics::new();
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(mapper.run_with_sink_metrics(&input.dump, &options, &NullSink, &metrics));
    }
    let on_secs = t0.elapsed().as_secs_f64();

    let rep = metrics.report();
    let total = (reads * reps) as f64;
    let plain_rps = total / plain_secs;
    let off_rps = total / off_secs;
    let on_rps = total / on_secs;

    println!("input           : {} ({reads} reads, {reps} reps)", InputSetSpec::b_yeast().name);
    println!("config          : {} / batch {} / capacity {}", options.scheduler, options.batch_size, options.cache_capacity);
    println!("plain           : {plain_rps:>12.0} reads/s");
    println!("metrics off     : {off_rps:>12.0} reads/s   ({:+.2}% vs plain)", (plain_secs / off_secs - 1.0) * -100.0);
    println!("metrics on      : {on_rps:>12.0} reads/s   ({:+.2}% vs plain)", (plain_secs / on_secs - 1.0) * -100.0);
    println!("reads mapped    : {}", rep.counter(Ctr::ReadsMapped));
    for stage in Stage::ALL {
        println!(
            "stage {:<10}: {:>10} ns over {} spans",
            stage.name(),
            rep.stage_ns(stage),
            rep.stage_count(stage)
        );
    }
    println!(
        "cache           : {} hits / {} misses / {} evictions",
        rep.counter(Ctr::CacheHits),
        rep.counter(Ctr::CacheMisses),
        rep.counter(Ctr::CacheEvictions)
    );

    assert_eq!(
        rep.counter(Ctr::ReadsMapped),
        (reads * reps) as u64,
        "instrumented runs must account for every read exactly once"
    );

    let out = std::env::var_os("MG_OUT").map(std::path::PathBuf::from).unwrap_or_default();
    let write = |name: &str, body: &str| {
        let path = out.join(name);
        let mut file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        file.write_all(body.as_bytes()).unwrap_or_else(|e| panic!("write {name}: {e}"));
        println!("wrote {}", path.display());
    };
    write("METRICS.json", &rep.to_json());
    write("METRICS.csv", &rep.to_csv());
    write(
        "OBS_OVERHEAD.json",
        &format!(
            concat!(
                "{{\n",
                "  \"input\": \"{}\",\n",
                "  \"reads\": {},\n",
                "  \"reps\": {},\n",
                "  \"plain_reads_per_sec\": {:.2},\n",
                "  \"metrics_off_reads_per_sec\": {:.2},\n",
                "  \"metrics_on_reads_per_sec\": {:.2},\n",
                "  \"on_overhead_fraction\": {:.6},\n",
                "  \"debug_assertions\": {}\n",
                "}}\n"
            ),
            InputSetSpec::b_yeast().name,
            reads,
            reps,
            plain_rps,
            off_rps,
            on_rps,
            1.0 - on_rps / plain_rps,
            cfg!(debug_assertions),
        ),
    );
}
