//! `mg-benchmark`: the one end-to-end benchmark and layer ledger.
//!
//! ```text
//! mg-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the JSON result
//! mg-benchmark [--seed N] [--seconds S] [--quick]              every workload, end to end and traced
//! mg-benchmark --aa [--seed N] [--seconds S]                   two full sets of the same build, compared
//! ```
//!
//! Start it through `benchmark/run.sh`, which builds `minigiraffe` and this
//! harness and tells the harness where the binary and its scratch space are.

mod alloc;
mod e2e;
mod inputs;
mod layers;
mod metrics;
mod proc;
mod serve;
mod stats;
mod trace;
mod truth;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use e2e::{Ctx, Effort, Observed};
use layers::{Indexes, Source};
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use stats::{median, percentile, quartiles};
use workloads::{Kind, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where the harness finds things; `run.sh` sets both variables.
struct Env {
    /// The `minigiraffe` release binary under test.
    bin: PathBuf,
    /// `benchmark/out`: generated inputs, child outputs, traces.
    out: PathBuf,
}

impl Env {
    fn from_env() -> Result<Env, String> {
        let var = |name: &str| {
            std::env::var_os(name).map(PathBuf::from).ok_or_else(|| {
                format!("{name} is not set; start the harness through benchmark/run.sh")
            })
        };
        let env = Env {
            bin: var("MG_BENCH_MINIGIRAFFE")?,
            out: var("MG_BENCH_OUT")?,
        };
        if !env.bin.is_file() {
            return Err(format!("{} is not a file", env.bin.display()));
        }
        Ok(env)
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    // 15 s is `run_seconds` of BENCHMARK.json.
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One finished run of one workload in one mode.
struct Outcome {
    values: Values,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Counts that must repeat exactly between runs of one input.
    exact: Vec<(&'static str, u64)>,
    /// The human-readable report.
    text: String,
}

/// A scratch directory under `out/` that is removed when the run ends,
/// whichever way it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(out: &Path, tag: &str) -> Result<WorkDir, String> {
        let dir = out.join(format!("work-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn git(args: &[&str]) -> String {
    std::process::Command::new("git")
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".into())
}

/// What a reader needs to judge whether the machine was quiet.
fn context_line(seed: u64, load_before: &str) -> String {
    format!(
        "context: seed {seed} · nproc {} · loadavg before [{load_before}] after [{}] · root commit {} · harness commit {}",
        proc::nproc(),
        proc::loadavg(),
        git(&["rev-parse", "--short", "HEAD"]),
        git(&["log", "-1", "--format=%h", "--", "benchmark", "BENCHMARK.json"]),
    )
}

/// Median with its sample count, quartiles and their distance as a share of
/// the median, for end-to-end metric `name`.
fn stat_row(name: &str, samples: &[f64]) -> String {
    let def = END_TO_END
        .iter()
        .find(|d| d.name == name)
        .expect("a defined end-to-end metric");
    let (q1, q2, q3) = quartiles(samples);
    format!(
        "  {name:<14} {q2:>14.4} {:<8} n={:<3} q1={q1:.4} q3={q3:.4} spread={:.2}% ({} is better, bound {}%)\n",
        def.unit,
        samples.len(),
        100.0 * stats::iqr_share(samples),
        def.better.as_str(),
        100.0 * def.bound
    )
}

fn end_to_end(
    env: &Env,
    w: &Workload,
    seed: u64,
    effort: &Effort,
    scale: f64,
) -> Result<Outcome, String> {
    let load_before = proc::loadavg();
    let work = WorkDir::create(&env.out, &format!("{}-e2e-{seed}", w.name))?;
    let inputs = inputs::generate(w, seed, w.scaled(w.reads, scale), &work.0)?;
    let ctx = Ctx {
        bin: &env.bin,
        w,
        inputs: &inputs,
        dir: &work.0,
    };
    let obs = ctx.measure(effort)?;

    let rates: Vec<f64> = obs.passes.iter().map(e2e::Pass::reads_per_s).collect();
    let rss: Vec<f64> = obs.passes.iter().map(|p| p.cost.peak_rss_mib).collect();
    let values: Values = vec![
        ("reads_per_s", median(&rates)),
        ("peak_rss_mib", median(&rss)),
        ("placed_pct", obs.placement.placed_pct()),
        ("setup_s", median(&obs.setup_s)),
    ];

    let mut text = format!(
        "== {} · end to end ==\nwhy: {}\n{}\n",
        w.name,
        w.why,
        context_line(seed, &load_before)
    );
    text += &format!(
        "input: {} reads, {} bytes · output: {} bytes, fnv64 {:016x}\n",
        inputs.origins.len(),
        inputs.input_bytes,
        obs.out_bytes,
        obs.out_fnv64
    );
    text += "  pass      reads/s     wall_s   child_cpu_s   peak_rss_mib\n";
    for (i, p) in obs.passes.iter().enumerate() {
        text += &format!(
            "  {:>4} {:>12.1} {:>10.4} {:>13.2} {:>14.2}\n",
            i + 1,
            p.reads_per_s(),
            p.cost.wall_s,
            p.cost.cpu_s,
            p.cost.peak_rss_mib
        );
    }
    text += &stat_row("reads_per_s", &rates);
    text += &stat_row("peak_rss_mib", &rss);
    text += &stat_row("setup_s", &obs.setup_s);
    text += &format!(
        "  {:<14} {:>14.4} {:<8} placed {} · unmapped {} · misplaced {} · error-free unplaced {}\n",
        "placed_pct",
        obs.placement.placed_pct(),
        "%",
        obs.placement.placed(),
        obs.placement.unmapped,
        obs.placement.misplaced,
        obs.placement.clean_unplaced
    );
    if w.kind == Kind::Serve {
        let jobs = &obs.jobs.done_ms;
        text += &format!(
            "  client-observed SUBMIT to DONE over {} jobs: p50 {:.3} ms · p95 {:.3} ms\n",
            jobs.len(),
            percentile(jobs, 50.0),
            percentile(jobs, 95.0)
        );
    }
    text += &format!(
        "  failed_share   {} failed / {} attempted\n",
        obs.failed, obs.attempted
    );
    for problem in &obs.problems {
        text += &format!("  PROBLEM: {problem}\n");
    }
    Ok(Outcome {
        values,
        correct: obs.problems.is_empty(),
        attempted: obs.attempted,
        failed: obs.failed,
        exact: vec![
            ("out_bytes", obs.out_bytes),
            ("out_fnv64", obs.out_fnv64),
            ("unmapped_reads", obs.placement.unmapped),
            ("misplaced_reads", obs.placement.misplaced),
        ],
        text,
    })
}

/// The traced run: child output, plain in-process runs and the staged
/// replay on the head of the workload's input, folded into the ledger.
fn traced(env: &Env, w: &Workload, seed: u64, scale: f64) -> Result<Outcome, String> {
    let load_before = proc::loadavg();
    let work = WorkDir::create(&env.out, &format!("{}-trace-{seed}", w.name))?;
    let dir = &work.0;
    let inputs = inputs::generate(w, seed, w.scaled(w.trace_reads, scale), dir)?;
    let ctx = Ctx {
        bin: &env.bin,
        w,
        inputs: &inputs,
        dir,
    };
    ctx.build_mgi()?;

    // What the real program writes for this input, and (serve) how its
    // clients saw it arrive.
    let mut problems = Vec::new();
    let mut served = Observed::default();
    let child_output = match w.kind {
        Kind::Serve => {
            served = ctx.measure(&Effort {
                setup_reps: 0,
                ..Effort::full(0.0)
            })?;
            problems.append(&mut served.problems);
            served.payload_gaf.concat()
        }
        _ => {
            let out = dir.join("child.out");
            ctx.run_cli(&inputs.reads_path, &out)?;
            std::fs::read(&out).map_err(|e| format!("reading {}: {e}", out.display()))?
        }
    };

    let indexes = Indexes::load(&inputs.mgi, &inputs.mgz)?;
    let bundle = indexes.for_kind(w.kind);
    let names: Vec<String> = (0..inputs.payloads.len()).map(e2e::job_name).collect();
    let source = match w.kind {
        Kind::Serve => Source::Jobs(
            names
                .iter()
                .cloned()
                .zip(inputs.payloads.iter().map(Vec::as_slice))
                .collect(),
        ),
        _ => Source::File(&inputs.reads_path),
    };
    let plain = layers::plain_run(w.kind, bundle, &source, 1, &dir.join("plain.out"))?;
    let (counted, alloc_count, alloc_bytes) =
        alloc::counted(|| layers::plain_run(w.kind, bundle, &source, 1, &dir.join("counted.out")));
    let counted = counted?;
    // This box runs with cpuset load balancing off: a second thread that
    // starts after a single-threaded phase can sit on its parent's CPU for
    // seconds before it is moved. One discarded two-thread run wakes the
    // other CPU so the measured one finds it.
    layers::plain_run(w.kind, bundle, &source, 2, &dir.join("plain2.out"))?;
    let plain2 = layers::plain_run(w.kind, bundle, &source, 2, &dir.join("plain2.out"))?;
    let replay = layers::staged_replay(w.kind, bundle, &source, &dir.join("replay.out"))?;

    for (what, bytes) in [
        ("plain in-process run", &plain.output),
        ("allocation-counted run", &counted.output),
        ("two-thread run", &plain2.output),
        ("staged replay", &replay.output),
    ] {
        if *bytes != child_output {
            problems.push(format!(
                "{what} wrote {} bytes (fnv64 {:016x}), the child {} bytes (fnv64 {:016x})",
                bytes.len(),
                stats::fnv64(bytes),
                child_output.len(),
                stats::fnv64(&child_output)
            ));
        }
    }

    let trace_path = env.out.join(format!("trace-{}.jsonl", w.name));
    replay
        .trace
        .write_jsonl(&trace_path, w.name)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let t = &replay.trace;
    let reads = replay.reads as f64;
    let per_read = |ns: u64| ns as f64 / reads;
    let count = |span: &str, counter: &str| t.total_count(span, counter) as f64;
    const TIMED: [&str; 7] = [
        "workload.fastq",
        "index.minimizer",
        "core.cluster",
        "core.extend",
        "parent.post",
        "parent.pair",
        "parent.gaf",
    ];
    let layer_ns: u64 = TIMED.iter().map(|l| t.total_ns(l)).sum();
    // The driver is whatever the real entry point spends beyond the layer
    // calls; by this definition the ledger adds up to the plain wall.
    let driver_ns = plain.wall_ns as f64 - layer_ns as f64;
    let lookups = count("core.extend", "cache_lookups");
    let fastq_s = t.total_ns("workload.fastq") as f64 / 1e9;
    let rps = |reads: f64, wall_ns: u64| reads / (wall_ns as f64 / 1e9);
    // Serve-only statistics are 0 on the workloads that have no server.
    let or_zero = |samples: &[f64], stat: &dyn Fn(&[f64]) -> f64| {
        if samples.is_empty() {
            0.0
        } else {
            stat(samples)
        }
    };
    let p50 = |v: &[f64]| or_zero(v, &|v| percentile(v, 50.0));
    let serve_rates: Vec<f64> = served.passes.iter().map(e2e::Pass::reads_per_s).collect();
    let serve_rps = or_zero(&serve_rates, &median);
    let busy_rejects: u64 = ["rejected_full", "rejected_client", "rejected_draining"]
        .iter()
        .filter_map(|k| serve::json_u64(&served.server_stats, k))
        .sum();

    let values: Values = vec![
        (
            "workload.fastq.ns_per_read",
            per_read(t.total_ns("workload.fastq")),
        ),
        (
            "workload.fastq.bytes_per_s",
            if fastq_s > 0.0 {
                inputs.input_bytes as f64 / fastq_s
            } else {
                0.0
            },
        ),
        (
            "index.minimizer.ns_per_read",
            per_read(t.total_ns("index.minimizer")),
        ),
        (
            "index.minimizer.seeds_per_read",
            count("index.minimizer", "seeds") / reads,
        ),
        (
            "core.cluster.ns_per_read",
            per_read(t.total_ns("core.cluster")),
        ),
        (
            "core.cluster.clusters_per_read",
            count("core.cluster", "clusters") / reads,
        ),
        (
            "core.extend.ns_per_read",
            per_read(t.total_ns("core.extend")),
        ),
        (
            "core.extend.extensions_per_read",
            count("core.extend", "extensions") / reads,
        ),
        (
            "gbwt.cache.hit_ratio",
            if lookups > 0.0 {
                count("core.extend", "cache_hits") / lookups
            } else {
                0.0
            },
        ),
        (
            "gbwt.cache.decodes_per_read",
            count("core.extend", "cache_decodes") / reads,
        ),
        (
            "gbwt.cache.rehashes",
            count("core.extend", "cache_rehashes"),
        ),
        (
            "parent.post.ns_per_read",
            per_read(t.total_ns("parent.post")),
        ),
        (
            "parent.post.tail_fallbacks_per_read",
            count("parent.post", "tail_fallbacks") / reads,
        ),
        (
            "parent.pair.ns_per_read",
            per_read(t.total_ns("parent.pair")),
        ),
        ("parent.gaf.ns_per_read", per_read(t.total_ns("parent.gaf"))),
        (
            "parent.gaf.gaf_bytes_per_read",
            replay.output.len() as f64 / reads,
        ),
        ("parent.driver.ns_per_read", driver_ns / reads),
        ("parent.driver.share", driver_ns / plain.wall_ns as f64),
        ("alloc.count_per_read", alloc_count as f64 / reads),
        ("alloc.bytes_per_read", alloc_bytes as f64 / reads),
        (
            "sched.efficiency_t2",
            rps(reads, plain2.wall_ns) / (2.0 * rps(reads, plain.wall_ns)),
        ),
        ("server.accept_ms_p50", p50(&served.jobs.accept_ms)),
        ("server.first_gaf_ms_p50", p50(&served.jobs.first_gaf_ms)),
        ("server.job_ms_p50", p50(&served.jobs.done_ms)),
        (
            "server.job_ms_p95",
            or_zero(&served.jobs.done_ms, &|v| percentile(v, 95.0)),
        ),
        ("server.busy_rejects", busy_rejects as f64),
        // Against the same jobs mapped in-process with as many threads as
        // the server has: what sockets, framing and admission cost.
        (
            "server.overhead_share",
            if serve_rps > 0.0 {
                1.0 - serve_rps / rps(reads, plain2.wall_ns)
            } else {
                0.0
            },
        ),
        ("support.mgi.open_ms", indexes.open_ms),
        ("support.mgi.build_ms", indexes.build_ms),
        ("ledger.wall_ns_per_read", per_read(plain.wall_ns)),
        (
            "trace_overhead_pct",
            100.0 * (replay.wall_ns as f64 / plain.wall_ns as f64 - 1.0),
        ),
    ];

    let mut text = format!(
        "== {} · per layer ==\n{}\n",
        w.name,
        context_line(seed, &load_before)
    );
    text += &format!(
        "traced input: {} reads · in-process wall at 1 thread {:.4} s, at 2 threads {:.4} s, staged replay {:.4} s · trace {}\n",
        replay.reads,
        plain.wall_ns as f64 / 1e9,
        plain2.wall_ns as f64 / 1e9,
        replay.wall_ns as f64 / 1e9,
        trace_path.display()
    );
    text += "  layer                  ns/read    share of wall\n";
    for l in TIMED {
        let ns = t.total_ns(l);
        text += &format!(
            "  {l:<18} {:>11.1} {:>15.2}%\n",
            per_read(ns),
            100.0 * ns as f64 / plain.wall_ns as f64
        );
    }
    text += &format!(
        "  {:<18} {:>11.1} {:>15.2}%\n  {:<18} {:>11.1} {:>15.2}%\n",
        "parent.driver",
        driver_ns / reads,
        100.0 * driver_ns / plain.wall_ns as f64,
        "= wall",
        per_read(plain.wall_ns),
        100.0
    );
    for def in &PER_LAYER {
        text += &format!(
            "  {:<38} {:>16.4} {:<14} ({} is better)\n",
            def.name,
            metrics::value_of(&values, def.name),
            def.unit,
            def.better.as_str()
        );
    }
    for problem in &problems {
        text += &format!("  PROBLEM: {problem}\n");
    }
    Ok(Outcome {
        values,
        correct: problems.is_empty(),
        attempted: replay.reads,
        failed: if problems.is_empty() { 0 } else { replay.reads },
        exact: vec![
            ("replay_bytes", replay.output.len() as u64),
            ("replay_fnv64", stats::fnv64(&replay.output)),
        ],
        text,
    })
}

fn run_one(env: &Env, w: &Workload, args: &Args) -> Result<Outcome, String> {
    let (effort, scale) = if args.quick {
        (Effort::quick(), 0.05)
    } else {
        (Effort::full(args.seconds), 1.0)
    };
    if args.trace {
        traced(env, w, args.seed, scale)
    } else {
        end_to_end(env, w, args.seed, &effort, scale)
    }
}

/// Runs one mode of one workload and fails loudly if its output checks did.
fn checked(env: &Env, w: &Workload, args: &Args, trace: bool) -> Result<Outcome, String> {
    let outcome = run_one(
        env,
        w,
        &Args {
            trace,
            ..args.clone()
        },
    )?;
    print!("{}", outcome.text);
    if outcome.correct {
        Ok(outcome)
    } else {
        Err(format!(
            "{}: output check failed (see PROBLEM lines above)",
            w.name
        ))
    }
}

/// Every workload, end to end and traced.
fn suite(env: &Env, args: &Args) -> Result<(), String> {
    for w in &WORKLOADS {
        checked(env, w, args, false)?;
        checked(env, w, args, true)?;
        println!();
    }
    Ok(())
}

/// Runs of one build in each of the two A/A sets, per workload.
const AA_RUNS_PER_SET: usize = 3;

/// Two sets of runs of the same build must agree: the set medians of every
/// end-to-end metric within half its bound, every exact-repeat count
/// identical in every run. The sets are interleaved (A B B A A B), so a
/// machine that speeds up or slows down over minutes moves both alike.
fn aa(env: &Env, args: &Args) -> Result<(), String> {
    let mut failures = 0;
    let mut table = String::new();
    for w in &WORKLOADS {
        let mut sets: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * AA_RUNS_PER_SET {
            // 0 1 1 0 0 1: each set goes first as often as the other.
            sets[i.div_ceil(2) % 2].push(checked(env, w, args, false)?);
        }
        let traced = [checked(env, w, args, true)?, checked(env, w, args, true)?];
        for def in &END_TO_END {
            let [va, vb] = [0, 1].map(|s| {
                median(
                    &sets[s]
                        .iter()
                        .map(|o| metrics::value_of(&o.values, def.name))
                        .collect::<Vec<_>>(),
                )
            });
            let differ = (va - vb).abs() / va.abs().min(vb.abs());
            let ok = differ <= def.bound / 2.0;
            failures += usize::from(!ok);
            table += &format!(
                "  {:<20} {:<12} {va:>14.4} {vb:>14.4} {:>9.2}% {:>8.2}%{}\n",
                w.name,
                def.name,
                100.0 * differ,
                50.0 * def.bound,
                if ok { "" } else { "  DISAGREE" }
            );
        }
        for runs in [
            sets.iter().flatten().collect::<Vec<_>>(),
            traced.iter().collect(),
        ] {
            for other in &runs[1..] {
                for ((name, first), (_, again)) in runs[0].exact.iter().zip(&other.exact) {
                    if first != again {
                        failures += 1;
                        table += &format!(
                            "  {:<20} {name}: {first} in one run, {again} in another  DISAGREE\n",
                            w.name
                        );
                    }
                }
            }
        }
    }
    println!(
        "== A/A: two interleaved sets of {AA_RUNS_PER_SET} runs of the same build, seed {} ==",
        args.seed
    );
    println!("  workload             metric      median of A    median of B     differ   allowed");
    print!("{table}");
    if failures == 0 {
        println!("A/A passed: every metric within half its bound, every exact count identical");
        Ok(())
    } else {
        Err(format!("A/A failed: {failures} disagreements"))
    }
}

fn real_main() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    let env = Env::from_env()?;
    std::fs::create_dir_all(&env.out)
        .map_err(|e| format!("creating {}: {e}", env.out.display()))?;
    match &args.workload {
        Some(name) => {
            let w = workloads::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {name:?}; choose one of {}",
                    names.join(", ")
                )
            })?;
            let outcome = run_one(&env, w, &args)?;
            print!("{}", outcome.text);
            let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!(
                "{}",
                metrics::result_line(
                    defs,
                    &outcome.values,
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed
                )
            );
            Ok(())
        }
        None if args.aa => aa(&env, &args),
        None => suite(&env, &args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mg-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A fresh directory under `benchmark/out/` for one test, so the harness's
/// tests write where the harness itself does.
#[cfg(test)]
fn test_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload stream-hprc-t2 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("stream-hprc-t2"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let b = parse_args(&argv("--quick --seed 3")).unwrap();
        assert!(b.quick && !b.aa && b.workload.is_none());
        assert_eq!(b.seed, 3);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--seconds nan")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn counting_allocator_sees_allocations_only_while_asked() {
        let (v, count, bytes) = alloc::counted(|| vec![0u8; 4096]);
        assert!(
            count >= 1 && bytes >= 4096,
            "{count} allocations, {bytes} bytes"
        );
        drop(v);
    }
}
