//! The miniGiraffe command-line proxy application.
//!
//! Mirrors the paper's standalone executable: it loads a pangenome
//! (`.mgz`) and a seed dump (`.bin`), runs the mapping kernels under the
//! configured scheduler/batch/capacity, and writes the raw extension
//! results. Extra subcommands cover workload generation, dump export via
//! the parent pipeline, and output validation.
//!
//! ```sh
//! minigiraffe generate --input-set A-human --out data/
//! minigiraffe map data/A-human.bin data/A-human.mgz --threads 4 --batch 512 --capacity 256
//! minigiraffe validate data/A-human.bin data/A-human.mgz data/expected.csv
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use minigiraffe::core::{DumpReader, Mapper, MappingOptions, ReadResult, SeedDump};
use minigiraffe::gbwt::Gbz;
use minigiraffe::obs::Metrics;
use minigiraffe::perf::Profiler;
use minigiraffe::sched::SchedulerKind;
use minigiraffe::support::regions::{NullSink, RegionSink};
use minigiraffe::support::Error;
use minigiraffe::workload::{InputSetSpec, SyntheticInput};

/// Stdout, locked once for the whole run: every subcommand prints through
/// it with `say!`. The first failed write is kept and later ones are
/// dropped, so a subcommand still finishes its work (the files it writes, a
/// server it drains) whatever became of its stdout, and `main` reports the
/// failure once, at exit.
struct Out {
    stdout: std::io::StdoutLock<'static>,
    written: std::io::Result<()>,
}

impl Out {
    fn print(&mut self, args: std::fmt::Arguments<'_>) {
        if self.written.is_ok() {
            self.written = self.stdout.write_fmt(args);
        }
    }
}

/// `println!` into an [`Out`].
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        $out.print(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Out { stdout: std::io::stdout().lock(), written: Ok(()) };
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..], &mut out),
        Some("build-mgi") => cmd_build_mgi(&args[1..], &mut out),
        Some("map") => cmd_map(&args[1..], &mut out),
        Some("parent") => cmd_parent(&args[1..], &mut out),
        Some("serve") => cmd_serve(&args[1..], &mut out),
        Some("validate") => cmd_validate(&args[1..], &mut out),
        Some("tune") => cmd_tune(&args[1..], &mut out),
        Some("info") => cmd_info(&args[1..], &mut out),
        Some("--help" | "-h" | "help") | None => {
            out.print(format_args!("{USAGE}"));
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    let written = out.written.and_then(|()| out.stdout.flush());
    match (result, written) {
        (Err(message), _) => eprintln!("error: {message}"),
        // A reader that closed the pipe early (`| head`) took what it wanted.
        (Ok(()), Err(e)) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("error: writing to stdout: {e}");
        }
        _ => return ExitCode::SUCCESS,
    }
    ExitCode::FAILURE
}

const USAGE: &str = "\
miniGiraffe: a pangenomic mapping proxy application

USAGE:
  minigiraffe generate --input-set <A-human|B-yeast|C-HPRC|D-HPRC|tiny>
                       [--seed N] [--scale F] --out <dir>
      Synthesize an input set: writes <set>.mgz (pangenome) and
      <set>.bin (reads + seeds).

  minigiraffe build-mgi <pangenome.mgz> [--out <index.mgi>]
                        [--k N] [--w N]
      Build the index container: pangenome + minimizer index +
      distance index, persisted as flat arrays. `map`, `parent`, and
      `serve` accept it via --mgi and then start by reading each array
      back instead of rebuilding both indexes. The file is reopened
      and fully verified (checksums + structural invariants + GBWT
      record decode) before the command reports success.

  minigiraffe map <seeds.bin> <pangenome.mgz | --mgi <index.mgi>>
                  [--threads N] [--batch N] [--capacity N]
                  [--scheduler dynamic|ws|vg]
                  [--instrument <timeline.csv>] [--out <results.csv>]
      Run the proxy kernels; prints a summary and optionally writes
      per-extension results and a region timeline. The dump's checksums
      are verified first; its reads are then decoded, mapped and written
      one chunk of --threads x --batch reads at a time, out of the file
      read 64 KiB at a time, so memory is one block of the file plus one
      chunk. A malformed read, or a dump changed on disk during the run,
      stops the run with an error; the results of the reads before it
      have been written.

  minigiraffe parent <reads.fastq> <pangenome.mgz | --mgi <index.mgi>>
                     [--threads N] [--batch N] [--capacity N]
                     [--scheduler dynamic|ws|vg]
                     [--gaf <out.gaf>] [--paired true]
                     [--stream <reads-per-batch> | --dump <seeds.bin>]
      Run the full Giraffe-like parent pipeline on raw reads: seeding,
      kernels, post-processing, and with --paired true mate rescue and
      pair checks on reads 2i, 2i+1. Reads are ingested in batches of
      --stream reads (default 512) through a bounded backpressure queue
      and GAF is written incrementally, so memory stays constant in the
      input size. A malformed record stops the run with an error naming
      it; the GAF of the reads before it has been written. --dump
      instead captures the whole run — every read's seeds and kernel
      results, held to the end — and writes the seed dump the proxy
      consumes (and GAF with --gaf); it cannot be combined with
      --stream, and a malformed record fails it before anything is
      written.

  minigiraffe serve <pangenome.mgz | --mgi <index.mgi>>
                    [--addr HOST] [--port N]
                    [--threads N] [--batch N] [--capacity N]
                    [--scheduler dynamic|ws|vg]
                    [--max-pending N] [--max-active N] [--client-cap N]
                    [--paired true] [--write-timeout-ms N]
      Run the long-lived mapping server: loads the pangenome and builds
      the minimizer index once (or reads everything from --mgi), then
      multiplexes concurrent FASTQ mapping jobs from TCP clients onto
      one resident worker pool, streaming GAF back per job. Jobs are
      interleaved one chunk of --threads x --batch reads at a time
      (even when --paired true), as `parent` streams. Admission
      control bounds the pending queue and per-client in-flight jobs;
      SHUTDOWN drains gracefully. A client that stops reading its GAF
      stream is disconnected after --write-timeout-ms (default 30000;
      0 disables). See README \"server mode\" for the frame protocol.

  minigiraffe validate <seeds.bin> <pangenome.mgz> <expected.csv>
      Map the dump and compare against an expected-output CSV
      (written by `map --out`) row for row, in any order, as multisets;
      exits nonzero on any mismatch.

  minigiraffe tune <seeds.bin> <pangenome.mgz>
                   [--threads N] [--subsample F] [--repeats N]
      Exhaustively sweep scheduler x batch size x CachedGBWT capacity on
      this machine (the paper's autotuning study) and report the best
      configuration against Giraffe's defaults.

  minigiraffe info <pangenome.mgz | seeds.bin>
      Print structural statistics of a data file.

  --scheduler defaults to dynamic wherever it is accepted.
";

/// Flags of `options_from_flags`.
const MAPPING_FLAGS: &[&str] = &["threads", "batch", "capacity", "scheduler"];
/// Flags of `load_bundle`.
const BUNDLE_FLAGS: &[&str] = &["mgi", "k", "w"];

/// Splits `args` into positionals and `--name value` flags. Every flag
/// must be one `subcommand` reads — a name in one of the `known` lists —
/// so a misspelt flag fails instead of silently leaving its default in
/// force.
fn parse_flags(
    args: &[String],
    subcommand: &str,
    known: &[&[&str]],
) -> Result<(Vec<String>, std::collections::HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !known.iter().any(|list| list.contains(&name)) {
                return Err(format!("unknown flag --{name} for {subcommand}"));
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, flags))
}

fn flag<T: std::str::FromStr>(
    flags: &std::collections::HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        Some(raw) => raw
            .parse()
            .map_err(|e| format!("invalid --{name} {raw:?}: {e}")),
        None => Ok(default),
    }
}

fn minimizer_params_from_flags(
    flags: &std::collections::HashMap<String, String>,
) -> Result<minigiraffe::index::MinimizerParams, String> {
    let default = minigiraffe::index::MinimizerParams::default();
    let k: usize = flag(flags, "k", default.k)?;
    let w: usize = flag(flags, "w", default.w)?;
    if !(1..=31).contains(&k) {
        return Err(format!("--k {k} out of range (1..=31)"));
    }
    if w < 1 {
        return Err("--w must be >= 1".into());
    }
    Ok(minigiraffe::index::MinimizerParams { k, w })
}

/// Whether a file that failed to load was written by an older build. A file
/// that opens with `MGZ\0` was written in the stream container `.mgz` and
/// `.bin` used before they moved onto the `.mgi` section table, and one with
/// an older container version by an older build; no reader for either
/// remains, so the message says how to replace the file.
fn written_by_an_older_build(path: &str, e: &minigiraffe::support::Error) -> bool {
    use std::io::Read;
    let mut magic = [0u8; 4];
    (std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut magic)).is_ok()
        && &magic == b"MGZ\0")
        || matches!(e, minigiraffe::support::Error::UnsupportedVersion(_))
}

/// The message for a `.mgz` that failed to load.
fn load_error(path: &str, e: minigiraffe::support::Error) -> String {
    if written_by_an_older_build(path, &e) {
        format!(
            "loading {path}: written in the container layout of an older build, which this \
             build no longer reads; regenerate it with `minigiraffe generate`, then rebuild \
             any .mgi from the new .mgz with `minigiraffe build-mgi`"
        )
    } else {
        format!("loading {path}: {e}")
    }
}

/// The message for a `.bin` seed dump that failed to load: an old one is
/// regenerated with its pangenome or captured again from the parent.
fn dump_error(path: &str, e: minigiraffe::support::Error) -> String {
    if written_by_an_older_build(path, &e) {
        format!(
            "loading {path}: written in the container layout of an older build, which this \
             build no longer reads; regenerate it with `minigiraffe generate` (then rebuild \
             any .mgi from the new .mgz with `minigiraffe build-mgi`), or capture it again \
             with `minigiraffe parent <reads.fastq> <pangenome.mgz> --dump {path}`"
        )
    } else {
        format!("loading {path}: {e}")
    }
}

/// Resolves the pangenome + indexes for `map`/`parent`/`serve`: either a
/// `--mgi` container whose arrays are read back as they were written, or
/// a `.mgz` positional that is read the same way and then indexed from
/// scratch.
fn load_bundle(
    mgz_path: Option<&String>,
    flags: &std::collections::HashMap<String, String>,
) -> Result<minigiraffe::core::MgiBundle, String> {
    use minigiraffe::core::MgiBundle;
    match (flags.get("mgi"), mgz_path) {
        (Some(mgi), None) => {
            if let Some(name) = ["k", "w"].into_iter().find(|name| flags.contains_key(*name)) {
                return Err(format!(
                    "--{name} has no effect with --mgi: the container carries the minimizer \
                     parameters it was built with (pass --{name} to build-mgi)"
                ));
            }
            let start = std::time::Instant::now();
            let bundle = MgiBundle::open(mgi).map_err(|e| match e {
                minigiraffe::support::Error::UnsupportedVersion(found) => format!(
                    "opening {mgi}: .mgi version {found}, this build reads version {}; \
                     rebuild it with `minigiraffe build-mgi`",
                    minigiraffe::support::mgi::MGI_VERSION
                ),
                e => format!("opening {mgi}: {e}"),
            })?;
            eprintln!("opened {mgi} in {:.3}s (no index rebuilt)", start.elapsed().as_secs_f64());
            Ok(bundle)
        }
        (None, Some(mgz)) => {
            let gbz = Gbz::load(mgz).map_err(|e| load_error(mgz, e))?;
            eprintln!(
                "building minimizer + distance indexes from {} haplotypes...",
                gbz.gbwt().path_count()
            );
            MgiBundle::build(gbz, minimizer_params_from_flags(flags)?).map_err(|e| e.to_string())
        }
        (Some(_), Some(_)) => Err("pass either <pangenome.mgz> or --mgi, not both".into()),
        (None, None) => Err("expected <pangenome.mgz> or --mgi <index.mgi>".into()),
    }
}

fn cmd_build_mgi(args: &[String], out: &mut Out) -> Result<(), String> {
    use minigiraffe::core::{build_minimizer_index, MgiBundle};
    use minigiraffe::index::DistanceIndex;

    let (positional, flags) = parse_flags(args, "build-mgi", &[&["out", "k", "w"]])?;
    let [mgz_path] = &positional[..] else {
        return Err("expected <pangenome.mgz>".into());
    };
    let out_path: String = match flags.get("out") {
        Some(path) => path.clone(),
        None => {
            let mut p = PathBuf::from(mgz_path);
            p.set_extension("mgi");
            p.to_string_lossy().into_owned()
        }
    };
    let params = minimizer_params_from_flags(&flags)?;

    let start = std::time::Instant::now();
    let gbz = Gbz::load(mgz_path).map_err(|e| load_error(mgz_path, e))?;
    eprintln!(
        "loaded {mgz_path} in {:.3}s; indexing {} haplotypes (k={}, w={})...",
        start.elapsed().as_secs_f64(),
        gbz.gbwt().path_count(),
        params.k,
        params.w
    );
    let build_start = std::time::Instant::now();
    let minimizer = build_minimizer_index(&gbz, params).map_err(|e| e.to_string())?;
    let minimizer_s = build_start.elapsed().as_secs_f64();
    let distance_start = std::time::Instant::now();
    let distance = DistanceIndex::build(gbz.graph());
    eprintln!(
        "built the minimizer index in {minimizer_s:.3}s and the distance index in {:.3}s",
        distance_start.elapsed().as_secs_f64()
    );
    let bundle = MgiBundle::from_parts(gbz, minimizer, distance);
    bundle.save(&out_path).map_err(|e| format!("writing {out_path}: {e}"))?;

    // Reopen and verify the file we just wrote: checksums + structural
    // invariants via open, then the deep GBWT record decode.
    let verify_start = std::time::Instant::now();
    let reopened = MgiBundle::open(&out_path).map_err(|e| format!("verifying {out_path}: {e}"))?;
    reopened
        .gbz()
        .gbwt()
        .validate_records()
        .map_err(|e| format!("verifying {out_path}: {e}"))?;
    let bytes = std::fs::metadata(&out_path).map_err(|e| e.to_string())?.len();
    say!(
        out,
        "wrote {out_path} ({bytes} bytes); verified in {:.3}s ({} distinct k-mers, {} nodes)",
        verify_start.elapsed().as_secs_f64(),
        reopened.minimizer().distinct_kmers(),
        reopened.gbz().graph().node_count()
    );
    Ok(())
}

/// `--paired true` maps mate pairs (reads `2i`, `2i+1`) as fragments;
/// the default is single-end.
fn workflow_from_flags(
    flags: &std::collections::HashMap<String, String>,
) -> Result<minigiraffe::core::Workflow, String> {
    use minigiraffe::core::Workflow;
    Ok(if flag(flags, "paired", false)? { Workflow::Paired } else { Workflow::Single })
}

fn cmd_serve(args: &[String], out: &mut Out) -> Result<(), String> {
    use minigiraffe::parent::{Parent, ParentOptions};
    use minigiraffe::server::{MappingServer, ServerConfig};

    const SERVE_FLAGS: &[&str] = &[
        "addr",
        "port",
        "max-pending",
        "max-active",
        "client-cap",
        "paired",
        "write-timeout-ms",
    ];
    let (positional, flags) =
        parse_flags(args, "serve", &[BUNDLE_FLAGS, MAPPING_FLAGS, SERVE_FLAGS])?;
    let gbz_path = match &positional[..] {
        [] => None,
        [p] => Some(p),
        _ => return Err("expected <pangenome.mgz> or --mgi <index.mgi>".into()),
    };
    let bundle = load_bundle(gbz_path, &flags)?;
    let source = gbz_path.or_else(|| flags.get("mgi")).cloned().unwrap_or_default();
    let workflow = workflow_from_flags(&flags)?;
    let options = ParentOptions {
        mapping: options_from_flags(&flags)?,
        ..Default::default()
    };
    let config = ServerConfig {
        options,
        max_pending: flag(&flags, "max-pending", 16)?,
        max_active: flag(&flags, "max-active", 4)?,
        per_client_cap: flag(&flags, "client-cap", 4)?,
        fault_job: None,
        write_timeout: std::time::Duration::from_millis(flag(&flags, "write-timeout-ms", 30_000u64)?),
    };
    let addr: String = flag(&flags, "addr", "127.0.0.1".to_string())?;
    let port: u16 = flag(&flags, "port", 7777)?;
    let listener = std::net::TcpListener::bind((addr.as_str(), port))
        .map_err(|e| format!("binding {addr}:{port}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;

    eprintln!(
        "serving {} on {local} ({} threads, {} scheduler); SHUTDOWN frame drains and exits",
        source,
        config.options.mapping.threads,
        config.options.mapping.scheduler
    );
    let (gbz, minimizer, distance) = bundle.into_parts();
    let parent = Parent::with_distance(&gbz, &minimizer, distance, workflow);
    let server = MappingServer::new(&parent, config);
    server.serve_tcp(listener).map_err(|e| format!("serving: {e}"))?;
    say!(out, "{}", server.stats_json());
    Ok(())
}

fn cmd_parent(args: &[String], out: &mut Out) -> Result<(), String> {
    use minigiraffe::core::StreamOptions;
    use minigiraffe::parent::{run_to_gaf, Parent, ParentOptions};
    use minigiraffe::workload::FastqReader;

    let (positional, flags) = parse_flags(
        args,
        "parent",
        &[BUNDLE_FLAGS, MAPPING_FLAGS, &["gaf", "dump", "stream", "paired"]],
    )?;
    let (reads_path, gbz_path) = match &positional[..] {
        [reads] => (reads, None),
        [reads, gbz] => (reads, Some(gbz)),
        _ => return Err("expected <reads.fastq> <pangenome.mgz | --mgi index.mgi>".into()),
    };
    let ingest: usize = flag(&flags, "stream", 512)?;
    if flags.contains_key("dump") && flags.contains_key("stream") {
        return Err("--dump captures the whole run; drop --stream".into());
    }
    let bundle = load_bundle(gbz_path, &flags)?;
    let options = ParentOptions {
        mapping: options_from_flags(&flags)?,
        ..Default::default()
    };
    let (gbz, minimizer, distance) = bundle.into_parts();
    let parent = Parent::with_distance(&gbz, &minimizer, distance, workflow_from_flags(&flags)?);

    if let Some(dump) = flags.get("dump") {
        // The capture boundary: every read's seeds and kernel results are
        // held to the end of the run, because the dump needs all of them.
        let reads = minigiraffe::workload::fastq::load_read_bases(reads_path)
            .map_err(|e| format!("loading {reads_path}: {e}"))?;
        eprintln!("mapping {} reads...", reads.len());
        let run = parent.run(&reads, &options);
        let aligned = run.alignments.iter().filter(|a| !a.is_empty()).count();
        say!(
            out,
            "aligned {aligned}/{} reads ({} alignments) in {:.3}s",
            reads.len(),
            run.total_alignments(),
            run.wall.as_secs_f64()
        );
        if let Some(gaf) = flags.get("gaf") {
            std::fs::write(gaf, run_to_gaf(gbz.graph(), &run, "read"))
                .map_err(|e| format!("writing {gaf}: {e}"))?;
            say!(out, "wrote alignments to {gaf}");
        }
        run.dump.save(dump).map_err(|e| format!("writing {dump}: {e}"))?;
        say!(out, "wrote seed dump to {dump}");
        return Ok(());
    }

    let file =
        std::fs::File::open(reads_path).map_err(|e| format!("opening {reads_path}: {e}"))?;
    let batches = FastqReader::new(std::io::BufReader::new(file)).base_batches(ingest);
    let mut gaf_out: Box<dyn std::io::Write> = match flags.get("gaf") {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
        )),
        None => Box::new(std::io::sink()),
    };
    eprintln!("streaming reads in batches of {ingest}...");
    let mapped = parent.run_streaming(
        batches,
        &options,
        &StreamOptions::default(),
        "read",
        &mut gaf_out,
    );
    // A malformed record stops the run after the reads before it were
    // mapped: their GAF is flushed before the error is reported.
    let flushed = gaf_out.flush();
    let summary = mapped.map_err(|e| e.to_string())?;
    flushed.map_err(|e| format!("flushing GAF: {e}"))?;
    say!(
        out,
        "mapped {} reads in {:.3}s ({} batches, {} chunks; queue high water {}, producer blocked {:.1} ms)",
        summary.reads,
        summary.wall.as_secs_f64(),
        summary.batches,
        summary.chunks,
        summary.queue_high_water,
        summary.producer_blocked_ns as f64 / 1e6
    );
    if let Some(gaf) = flags.get("gaf") {
        say!(out, "wrote alignments to {gaf}");
    }
    Ok(())
}

fn cmd_generate(args: &[String], out: &mut Out) -> Result<(), String> {
    let (_, flags) = parse_flags(args, "generate", &[&["input-set", "seed", "scale", "out"]])?;
    let set = flags
        .get("input-set")
        .ok_or("--input-set is required")?
        .as_str();
    let spec = match set {
        "A-human" => InputSetSpec::a_human(),
        "B-yeast" => InputSetSpec::b_yeast(),
        "C-HPRC" => InputSetSpec::c_hprc(),
        "D-HPRC" => InputSetSpec::d_hprc(),
        "tiny" => InputSetSpec::tiny_for_tests(),
        other => return Err(format!("unknown input set {other:?}")),
    };
    let seed: u64 = flag(&flags, "seed", 42)?;
    let scale: f64 = flag(&flags, "scale", 1.0)?;
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(format!("invalid --scale {scale}: must be a positive number"));
    }
    let out_dir: PathBuf = flags.get("out").ok_or("--out is required")?.into();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let spec = spec.scaled(scale);
    eprintln!("generating {} ({} reads, seed {seed})...", spec.name, spec.reads);
    let input = SyntheticInput::generate(&spec, seed);
    let gbz_path = out_dir.join(format!("{}.mgz", spec.name));
    let dump_path = out_dir.join(format!("{}.bin", spec.name));
    let fastq_path = out_dir.join(format!("{}.fastq", spec.name));
    input.gbz.save(&gbz_path).map_err(|e| e.to_string())?;
    input.dump.save(&dump_path).map_err(|e| e.to_string())?;
    minigiraffe::workload::fastq::save_reads_fastq(&fastq_path, &input.sim_reads, spec.name)
        .map_err(|e| e.to_string())?;
    say!(out, "wrote {}", gbz_path.display());
    say!(out, "wrote {}", dump_path.display());
    say!(out, "wrote {}", fastq_path.display());
    Ok(())
}

/// The pangenome and the first `fraction` of the dump's reads, as
/// `SeedDump::subsample` keeps them. Only those are held; the rest are
/// decoded a chunk at a time and checked against the pangenome, so a seed
/// off it anywhere in the dump is an error.
fn load_subsample(positional: &[String], fraction: f64) -> Result<(SeedDump, Gbz), String> {
    let [dump_path, gbz_path] = positional else {
        return Err("expected <seeds.bin> <pangenome.mgz>".into());
    };
    let mut reader = open_dump(dump_path)?;
    let gbz = Gbz::load(gbz_path).map_err(|e| load_error(gbz_path, e))?;
    let keep = reader.subsample_len(fraction);
    let (mut reads, mut rest) = (Vec::with_capacity(keep), Vec::new());
    reader.next_chunk_on(gbz.graph(), &mut reads, keep).map_err(|e| dump_error(dump_path, e))?;
    loop {
        reader
            .next_chunk_on(gbz.graph(), &mut rest, INFO_CHUNK_READS)
            .map_err(|e| dump_error(dump_path, e))?;
        if rest.is_empty() {
            return Ok((SeedDump::new(reader.workflow(), reads), gbz));
        }
    }
}

fn options_from_flags(
    flags: &std::collections::HashMap<String, String>,
) -> Result<MappingOptions, String> {
    let scheduler: SchedulerKind = match flags.get("scheduler") {
        Some(raw) => raw.parse()?,
        None => SchedulerKind::Dynamic,
    };
    Ok(MappingOptions {
        threads: flag(flags, "threads", 1)?,
        batch_size: flag(flags, "batch", 512)?,
        cache_capacity: flag(flags, "capacity", 256)?,
        scheduler,
        ..Default::default()
    })
}

/// The header of the extension CSV `map --out` writes.
const CSV_HEADER: &[u8] = b"read_id,read_start,read_end,handle,offset,score,mismatches\n";

/// Appends one CSV row per extension of `results`, in order.
fn push_rows(out: &mut Vec<u8>, results: &[ReadResult]) {
    use minigiraffe::parent::gaf::{push_int, push_uint};
    for e in results.iter().flat_map(|read| &read.extensions) {
        for v in [
            e.read_id,
            u64::from(e.read_start),
            u64::from(e.read_end),
            e.pos.handle.packed(),
            u64::from(e.pos.offset),
        ] {
            push_uint(out, v);
            out.push(b',');
        }
        push_int(out, i64::from(e.score));
        out.push(b',');
        push_uint(out, u64::from(e.mismatches));
        out.push(b'\n');
    }
}

/// Opens a `.bin` seed dump and checks both its sections against their
/// sums before any read is decoded; the reads are then decoded a block of
/// the file at a time.
fn open_dump(path: &str) -> Result<DumpReader, String> {
    DumpReader::open(path).map_err(|e| dump_error(path, e))
}

fn cmd_map(args: &[String], out: &mut Out) -> Result<(), String> {
    let (positional, flags) = parse_flags(
        args,
        "map",
        &[BUNDLE_FLAGS, MAPPING_FLAGS, &["instrument", "out"]],
    )?;
    // A usage error surfaces before the dump is opened, and a damaged dump
    // before the bundle is: both are checked whole first. The dump's reads
    // are then read a block of the file and decoded a chunk at a time, so
    // memory is the bundle, one block and one chunk.
    let (dump_path, gbz_path) = match &positional[..] {
        [dump] if flags.contains_key("mgi") => (dump, None),
        [dump, gbz] => (dump, Some(gbz)),
        _ => return Err("expected <seeds.bin> <pangenome.mgz | --mgi index.mgi>".into()),
    };
    let mut reader = open_dump(dump_path)?;
    let bundle = load_bundle(gbz_path, &flags)?;
    let options = options_from_flags(&flags)?;
    eprintln!(
        "mapping {} reads with {} threads, batch {}, capacity {}, {} scheduler",
        reader.read_count(),
        options.threads,
        options.batch_size,
        options.cache_capacity,
        options.scheduler
    );
    let mut csv = match flags.get("out") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            let mut writer = std::io::BufWriter::new(file);
            writer.write_all(CSV_HEADER).map_err(|e| format!("writing {path}: {e}"))?;
            Some((path, writer))
        }
        None => None,
    };
    let mut rows = Vec::new();
    let profiler = flags.get("instrument").map(|_| Profiler::new());
    let sink: &dyn RegionSink = match &profiler {
        Some(profiler) => profiler,
        None => &NullSink,
    };
    let (gbz, _, distance) = bundle.into_parts();
    let mapper = Mapper::with_distance(&gbz, distance);
    let mapped = mapper.run_dump(&mut reader, &options, sink, Metrics::off_ref(), |results| {
        if let Some((_, writer)) = &mut csv {
            rows.clear();
            push_rows(&mut rows, results);
            writer.write_all(&rows)?;
        }
        Ok(())
    });
    // A malformed read stops the run after the reads before it were mapped:
    // their rows are flushed before the error is reported.
    let flushed = match &mut csv {
        Some((path, writer)) => writer.flush().map_err(|e| format!("writing {path}: {e}")),
        None => Ok(()),
    };
    let summary = mapped.map_err(|e| match (e, &csv) {
        (Error::Io(e), Some((path, _))) => format!("writing {path}: {e}"),
        (e, _) => format!("reading {dump_path}: {e}"),
    })?;
    flushed?;
    if let (Some(profiler), Some(timeline)) = (&profiler, flags.get("instrument")) {
        std::fs::write(timeline, profiler.timeline_csv())
            .map_err(|e| format!("writing {timeline}: {e}"))?;
        eprintln!("wrote region timeline to {timeline}");
    }
    say!(
        out,
        "mapped {:.2}% of reads; {} extensions; makespan {:.3}s",
        summary.mapped_fraction() * 100.0,
        summary.extensions,
        summary.wall.as_secs_f64()
    );
    say!(
        out,
        "CachedGBWT: {} hits / {} misses ({:.1}% hit rate), {} rehashes",
        summary.cache.hits,
        summary.cache.misses,
        summary.cache.hit_rate() * 100.0,
        summary.cache.rehashes
    );
    if let Some((path, _)) = &csv {
        say!(out, "wrote extensions to {path}");
    }
    Ok(())
}

fn cmd_validate(args: &[String], out: &mut Out) -> Result<(), String> {
    let (positional, flags) = parse_flags(args, "validate", &[MAPPING_FLAGS])?;
    let [dump_path, gbz_path, expected_path] = &positional[..] else {
        return Err("expected <seeds.bin> <pangenome.mgz> <expected.csv>".into());
    };
    let mut reader = open_dump(dump_path)?;
    let gbz = Gbz::load(gbz_path).map_err(|e| load_error(gbz_path, e))?;
    let options = options_from_flags(&flags)?;
    let mut produced = CSV_HEADER.to_vec();
    Mapper::new(&gbz)
        .run_dump(&mut reader, &options, &NullSink, Metrics::off_ref(), |results| {
            push_rows(&mut produced, results);
            Ok(())
        })
        .map_err(|e| format!("reading {dump_path}: {e}"))?;
    let actual = String::from_utf8(produced).expect("CSV is ASCII digits");
    let expected = std::fs::read_to_string(expected_path)
        .map_err(|e| format!("reading {expected_path}: {e}"))?;
    // Order-independent comparison of the CSV rows as multisets: one merge
    // over the two sorted lists, a row missing as often as it is short.
    fn canon(s: &str) -> Vec<&str> {
        let mut rows: Vec<&str> = s.lines().skip(1).filter(|l| !l.is_empty()).collect();
        rows.sort_unstable();
        rows
    }
    let (want, got) = (canon(&expected), canon(&actual));
    let (mut w, mut g, mut missing, mut extra) = (0, 0, 0, 0);
    while w < want.len() && g < got.len() {
        match want[w].cmp(got[g]) {
            std::cmp::Ordering::Less => (missing, w) = (missing + 1, w + 1),
            std::cmp::Ordering::Greater => (extra, g) = (extra + 1, g + 1),
            std::cmp::Ordering::Equal => (w, g) = (w + 1, g + 1),
        }
    }
    missing += want.len() - w;
    extra += got.len() - g;
    say!(
        out,
        "expected {} extensions, produced {}; missing {missing}, extra {extra}",
        want.len(),
        got.len()
    );
    if missing == 0 && extra == 0 {
        say!(out, "PASS: 100% match");
        Ok(())
    } else {
        Err("outputs differ from expected".into())
    }
}

fn cmd_tune(args: &[String], out: &mut Out) -> Result<(), String> {
    use minigiraffe::tuning::{run_host_sweep, ParamSpace, TuningPoint};

    let (positional, flags) =
        parse_flags(args, "tune", &[&["threads", "subsample", "repeats"]])?;
    let threads: usize = flag(&flags, "threads", 4)?;
    let subsample: f64 = flag(&flags, "subsample", 0.1)?;
    let repeats: usize = flag(&flags, "repeats", 2)?;
    if !(subsample > 0.0 && subsample <= 1.0) {
        return Err(format!("invalid --subsample {subsample}: must be in (0, 1]"));
    }
    let (dump, gbz) = load_subsample(&positional, subsample)?;
    let space = ParamSpace::default();
    eprintln!(
        "sweeping {} configurations over {} reads with {threads} threads ({repeats} repeats)...",
        space.len(),
        dump.reads.len()
    );
    let options = MappingOptions::default();
    let sweep = run_host_sweep(&gbz, &dump, threads, &space, repeats, &options, Metrics::off_ref());
    let Some(best) = sweep.best() else {
        return Err("sweep produced no measurable configurations".into());
    };
    say!(
        out,
        "best:    {}  {:.4}s",
        best.point, best.makespan_s
    );
    match sweep.find(TuningPoint::default_config()) {
        Some(default) => say!(
            out,
            "default: {}  {:.4}s  (tuning speedup {:.2}x)",
            default.point,
            default.makespan_s,
            default.makespan_s / best.makespan_s
        ),
        None => say!(out, "default configuration not in the sweep space"),
    }
    let (sched, batch, capacity) = sweep.anova_by_parameter();
    for (name, a) in [("scheduler", sched), ("batch", batch), ("capacity", capacity)] {
        if let Some(a) = a {
            say!(
                out,
                "anova {name:<9} F={:<8.2} p={:.3} {}",
                a.f_statistic,
                a.p_value,
                if a.is_significant() { "(significant)" } else { "" }
            );
        }
    }
    Ok(())
}

/// Reads `info` and `tune` decode at a time from a seed dump.
const INFO_CHUNK_READS: usize = 512;

fn cmd_info(args: &[String], out: &mut Out) -> Result<(), String> {
    let (positional, _) = parse_flags(args, "info", &[])?;
    let [path] = &positional[..] else {
        return Err("expected one data file".into());
    };
    if path.ends_with(".mgz") {
        let gbz = Gbz::load(path).map_err(|e| load_error(path, e))?;
        say!(out, "pangenome {path}");
        say!(out, "  nodes:        {}", gbz.graph().node_count());
        say!(out, "  edges:        {}", gbz.graph().edge_count());
        say!(out, "  sequence:     {} bp", gbz.graph().total_sequence_len());
        say!(out, "  haplotypes:   {}", gbz.gbwt().path_count());
        say!(out, "  gbwt visits:  {}", gbz.gbwt().total_visits());
        say!(out, "  compressed:   {} bytes", gbz.gbwt().compressed_bytes());
        let stats = gbz.gbwt().statistics();
        say!(out, "  bwt runs:     {} ({:.2}/record)", stats.total_runs, stats.avg_runs_per_record);
        say!(out, "  bytes/visit:  {:.2}", stats.bytes_per_visit);
    } else {
        // Counted a chunk at a time: memory is one block of the file and
        // one chunk.
        let mut reader = open_dump(path)?;
        let (mut bases, mut seeds) = (0usize, 0usize);
        let mut chunk = Vec::new();
        loop {
            reader.next_chunk(&mut chunk, INFO_CHUNK_READS).map_err(|e| dump_error(path, e))?;
            if chunk.is_empty() {
                break;
            }
            bases += chunk.iter().map(|r| r.bases.len()).sum::<usize>();
            seeds += chunk.iter().map(|r| r.seeds.len()).sum::<usize>();
        }
        let reads = reader.read_count();
        say!(out, "seed dump {path}");
        say!(out, "  workflow:     {}", reader.workflow());
        say!(out, "  reads:        {reads}");
        say!(out, "  bases:        {bases}");
        say!(out, "  seeds:        {seeds}");
        let mean = if reads == 0 { 0.0 } else { seeds as f64 / reads as f64 };
        say!(out, "  seeds/read:   {mean:.1}");
    }
    Ok(())
}
