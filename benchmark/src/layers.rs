//! The per-layer ledger: every timed call into the mapping library lives in
//! this file and nowhere else in the harness.
//!
//! Two kinds of in-process run are made on the same input the child maps:
//!
//! * a **plain run** does what the `minigiraffe` subcommand does, through
//!   the same public entry points (`Mapper::run`, `Parent::run`,
//!   `Parent::run_streaming`), and yields the wall time the ledger must add
//!   up to, the allocation counts and the two-thread efficiency;
//! * a **staged replay** takes the same reads 512 at a time and runs one
//!   layer over the whole chunk before the next layer starts, so a single
//!   `Instant` pair per (chunk, layer) times each public kernel call with no
//!   timer inside the per-read loop. Its output must equal the plain run's
//!   and the child's byte for byte: that is the proof it did the same work.
//!
//! What the real driver adds around the kernels (scheduling, result slots,
//! queueing, chunk assembly, hot-tier construction, file loading) is the
//! plain wall minus the replay's layer spans: `parent.driver`.

use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mg_core::types::{ReadInput, ReadResult, Seed, Workflow};
use mg_core::{
    cluster_seeds_with_scratch, process_until_threshold_with_scratch, Cluster, ClusterScratch,
    ExtendScratch, MapScratch, Mapper, MappingOptions, MgiBundle, SeedDump, StreamOptions,
};
use mg_gbwt::{CachedGbwt, Gbz, HotTier};
use mg_index::{GraphPos, MinimizerParams, MinimizerScratch};
use mg_parent::{
    align_read, chunk_to_gaf, pair_check, rescue_mate, run_to_gaf, Alignment, Parent, ParentOptions,
};
use mg_support::probe::NoProbe;
use mg_support::regions::NullSink;
use mg_workload::FastqReader;

use crate::trace::{SpanId, Trace};
use crate::workloads::{Kind, CHUNK_READS, STREAM_BATCH};

/// The read-name prefix `minigiraffe parent` gives GAF records.
const CLI_SET_NAME: &str = "read";

/// What a run reads: a file (CLI workloads) or named in-memory FASTQ jobs
/// (serve).
pub enum Source<'a> {
    File(&'a Path),
    Jobs(Vec<(String, &'a [u8])>),
}

/// The index both ways a command can get it.
pub struct Indexes {
    /// `MgiBundle::open` of the container `build-mgi` wrote.
    pub opened: MgiBundle,
    /// `.mgz` parse plus index construction, as a command given a `.mgz`
    /// does at start.
    pub built: MgiBundle,
    pub open_ms: f64,
    pub build_ms: f64,
}

impl Indexes {
    pub fn load(mgi: &Path, mgz: &Path) -> Result<Indexes, String> {
        let t = Instant::now();
        let opened = MgiBundle::open(mgi).map_err(|e| format!("opening {}: {e}", mgi.display()))?;
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let gbz = Gbz::load(mgz).map_err(|e| format!("loading {}: {e}", mgz.display()))?;
        let built = MgiBundle::build(gbz, MinimizerParams::default()).map_err(|e| e.to_string())?;
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(Indexes {
            opened,
            built,
            open_ms,
            build_ms,
        })
    }

    /// The bundle the workload's command maps with: the batch workload is
    /// given the `.mgz`, every other one `--mgi`.
    pub fn for_kind(&self, kind: Kind) -> &MgiBundle {
        if kind == Kind::Batch {
            &self.built
        } else {
            &self.opened
        }
    }
}

/// `MappingOptions` exactly as the CLI derives them from `--threads N` and
/// defaults for everything else.
fn cli_mapping(threads: usize) -> MappingOptions {
    MappingOptions {
        threads,
        ..Default::default()
    }
}

fn cli_parent_options(threads: usize) -> ParentOptions {
    ParentOptions {
        mapping: cli_mapping(threads),
        ..Default::default()
    }
}

fn new_parent(bundle: &MgiBundle, kind: Kind) -> Parent<'_> {
    let workflow = if kind == Kind::Serve {
        Workflow::Paired
    } else {
        Workflow::Single
    };
    Parent::with_distance(
        bundle.gbz(),
        bundle.minimizer(),
        bundle.distance().clone(),
        workflow,
    )
}

/// The extension CSV `minigiraffe map --out` writes.
const CSV_HEADER: &str = "read_id,read_start,read_end,handle,offset,score,mismatches\n";

fn csv_rows(results: &[ReadResult], out: &mut Vec<u8>) {
    for read in results {
        for e in &read.extensions {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                e.read_id,
                e.read_start,
                e.read_end,
                e.pos.handle.packed(),
                e.pos.offset,
                e.score,
                e.mismatches
            )
            .expect("write to Vec");
        }
    }
}

/// All FASTQ batches of `bytes`, bases only, as the streaming CLI path
/// feeds them to the mapper.
fn parse_batches(input: impl std::io::BufRead) -> Result<Vec<Vec<Vec<u8>>>, String> {
    FastqReader::new(input)
        .batches(STREAM_BATCH)
        .map(|b| b.map(|recs| recs.into_iter().map(|r| r.bases).collect()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("parsing FASTQ: {e}"))
}

fn open_fastq(path: &Path) -> Result<BufReader<std::fs::File>, String> {
    std::fs::File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("opening {}: {e}", path.display()))
}

/// One plain in-process run: wall nanoseconds and the bytes it wrote.
pub struct PlainRun {
    pub wall_ns: u64,
    pub output: Vec<u8>,
}

/// Does in-process what the workload's command does after opening its
/// index, with `threads` mapper threads, writing the output file `out`.
pub fn plain_run(
    kind: Kind,
    bundle: &MgiBundle,
    source: &Source<'_>,
    threads: usize,
    out: &Path,
) -> Result<PlainRun, String> {
    let io = |e: std::io::Error| format!("writing {}: {e}", out.display());
    let started = Instant::now();
    let in_memory = match (kind, source) {
        (Kind::Map, Source::File(path)) => {
            let dump =
                SeedDump::load(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            let mapper = Mapper::with_distance(bundle.gbz(), bundle.distance().clone());
            let results = mapper.run(&dump, &cli_mapping(threads));
            let mut csv = CSV_HEADER.as_bytes().to_vec();
            csv_rows(&results.per_read, &mut csv);
            std::fs::write(out, &csv).map_err(io)?;
            None
        }
        (Kind::Stream, Source::File(path)) => {
            // Parsed up front rather than overlapped, so that at one thread
            // every layer's busy time lies on the wall being measured.
            let batches = parse_batches(open_fastq(path)?)?;
            let parent = new_parent(bundle, kind);
            let mut gaf = BufWriter::new(std::fs::File::create(out).map_err(io)?);
            parent
                .run_streaming(
                    batches.into_iter().map(Ok),
                    &cli_parent_options(threads),
                    &StreamOptions::default(),
                    CLI_SET_NAME,
                    &mut gaf,
                )
                .map_err(|e| format!("streaming run: {e}"))?;
            gaf.flush().map_err(io)?;
            None
        }
        (Kind::Batch, Source::File(path)) => {
            let reads = mg_workload::fastq::load_read_bases(path)
                .map_err(|e| format!("loading {}: {e}", path.display()))?;
            let parent = new_parent(bundle, kind);
            let run = parent.run(&reads, &cli_parent_options(threads));
            let gaf = run_to_gaf(bundle.gbz().graph(), &run, CLI_SET_NAME);
            std::fs::write(out, gaf).map_err(io)?;
            None
        }
        (Kind::Serve, Source::Jobs(jobs)) => {
            // One streaming run per job on one resident parent: what the
            // server does for a job, minus sockets, framing and admission.
            let parent = new_parent(bundle, kind);
            let options = cli_parent_options(threads);
            let mut gaf = Vec::new();
            for (name, fastq) in jobs {
                let batches = parse_batches(*fastq)?;
                parent
                    .run_streaming(
                        batches.into_iter().map(Ok),
                        &options,
                        &StreamOptions::default(),
                        name,
                        &mut gaf,
                    )
                    .map_err(|e| format!("job {name}: {e}"))?;
            }
            Some(gaf)
        }
        _ => return Err("workload kind and input source do not match".into()),
    };
    let wall_ns = started.elapsed().as_nanos() as u64;
    Ok(PlainRun {
        wall_ns,
        output: written(in_memory, out)?,
    })
}

/// What a run wrote, fetched once its clock has stopped: the bytes it kept
/// in memory (serve jobs) or else the file `out`.
fn written(in_memory: Option<Vec<u8>>, out: &Path) -> Result<Vec<u8>, String> {
    match in_memory {
        Some(bytes) => Ok(bytes),
        None => std::fs::read(out).map_err(|e| format!("reading {}: {e}", out.display())),
    }
}

/// Per-thread state of the staged replay: what a pool worker keeps.
struct Stages<'a> {
    parent: &'a Parent<'a>,
    options: ParentOptions,
    cache: CachedGbwt<'a>,
    cluster: ClusterScratch,
    extend: ExtendScratch,
    seeding: MinimizerScratch,
    hits: Vec<(u32, GraphPos)>,
    hot: Option<Arc<HotTier>>,
}

impl<'a> Stages<'a> {
    fn new(parent: &'a Parent<'a>) -> Self {
        let options = cli_parent_options(1);
        let cache = CachedGbwt::new(parent.mapper().gbz().gbwt(), options.mapping.cache_capacity);
        Stages {
            parent,
            options,
            cache,
            cluster: ClusterScratch::default(),
            extend: ExtendScratch::default(),
            seeding: MinimizerScratch::default(),
            hits: Vec::new(),
            hot: None,
        }
    }

    fn set_hot(&mut self, hot: Option<Arc<HotTier>>) {
        self.cache.set_hot(hot.clone());
        self.hot = hot;
    }

    /// `index.minimizer`: seeds every read of the chunk.
    fn seed(&mut self, trace: &mut Trace, chunk: SpanId, reads: Vec<Vec<u8>>) -> Vec<ReadInput> {
        let minimizer = self.parent.minimizer();
        let cap = self.options.hard_hit_cap;
        trace.span("index.minimizer", chunk, || {
            let inputs: Vec<ReadInput> = reads
                .into_iter()
                .map(|bases| {
                    minimizer.query_into(&bases, cap, &mut self.seeding, &mut self.hits);
                    let seeds = self
                        .hits
                        .iter()
                        .map(|&(off, pos)| Seed::new(off, pos))
                        .collect();
                    ReadInput { bases, seeds }
                })
                .collect();
            let seeds = inputs.iter().map(|r| r.seeds.len() as u64).sum();
            let counts = vec![("reads", inputs.len() as u64), ("seeds", seeds)];
            (inputs, counts)
        })
    }

    /// `core.cluster` then `core.extend` over the chunk.
    fn kernels(
        &mut self,
        trace: &mut Trace,
        chunk: SpanId,
        base_id: u64,
        inputs: &[ReadInput],
    ) -> Vec<ReadResult> {
        let gbz = self.parent.mapper().gbz();
        let dist = self.parent.mapper().distance_index();
        let mapping = &self.options.mapping;
        let clusters: Vec<Vec<Cluster>> = trace.span("core.cluster", chunk, || {
            let clusters: Vec<Vec<Cluster>> = inputs
                .iter()
                .map(|r| {
                    let read_len = r.bases.len() as u32;
                    let mut params = mapping.cluster;
                    params.distance_limit = params.distance_limit.max(u64::from(read_len));
                    cluster_seeds_with_scratch(
                        gbz.graph(),
                        dist,
                        &r.seeds,
                        read_len,
                        &params,
                        &mut NoProbe,
                        &mut self.cluster,
                    )
                })
                .collect();
            let total = clusters.iter().map(|c| c.len() as u64).sum();
            let counts = vec![("reads", inputs.len() as u64), ("clusters", total)];
            (clusters, counts)
        });
        trace.span("core.extend", chunk, || {
            let before = self.cache.stats();
            let results: Vec<ReadResult> = inputs
                .iter()
                .zip(&clusters)
                .enumerate()
                .map(|(i, (r, clusters))| {
                    let read_id = base_id + i as u64;
                    let extensions = process_until_threshold_with_scratch(
                        gbz.graph(),
                        &mut self.cache,
                        &r.bases,
                        read_id,
                        &r.seeds,
                        clusters,
                        &mapping.extend,
                        &mapping.process,
                        &mut NoProbe,
                        &mut self.extend,
                    );
                    ReadResult {
                        read_id,
                        extensions,
                    }
                })
                .collect();
            let after = self.cache.stats();
            let counts = vec![
                ("reads", inputs.len() as u64),
                (
                    "extensions",
                    results.iter().map(|r| r.extensions.len() as u64).sum(),
                ),
                (
                    "cache_lookups",
                    after.total_lookups() - before.total_lookups(),
                ),
                (
                    "cache_hits",
                    (after.hits + after.hot_hits) - (before.hits + before.hot_hits),
                ),
                ("cache_decodes", after.misses - before.misses),
                ("cache_rehashes", after.rehashes - before.rehashes),
            ];
            (results, counts)
        })
    }

    /// `parent.post`: rescoring plus the gapped-tail fallback.
    fn post(
        &mut self,
        trace: &mut Trace,
        chunk: SpanId,
        inputs: &[ReadInput],
        results: &[ReadResult],
    ) -> Vec<Vec<Alignment>> {
        trace.span("parent.post", chunk, || {
            let alignments: Vec<Vec<Alignment>> = inputs
                .iter()
                .zip(results)
                .map(|(input, result)| {
                    self.parent
                        .post_process(input, result, &self.options, &NullSink, 0)
                })
                .collect();
            let tails = alignments
                .iter()
                .flatten()
                .filter(|a| a.tail_cigar.is_some())
                .count();
            let counts = vec![
                ("reads", inputs.len() as u64),
                ("tail_fallbacks", tails as u64),
            ];
            (alignments, counts)
        })
    }

    /// `parent.pair`: mate rescue and the fragment check, as the paired
    /// workflow runs them on each chunk after the per-read work.
    fn pair(
        &mut self,
        trace: &mut Trace,
        chunk: SpanId,
        base_id: u64,
        inputs: &[ReadInput],
        alignments: &mut [Vec<Alignment>],
    ) {
        let mapper = self.parent.mapper();
        trace.span("parent.pair", chunk, || {
            let mut cache =
                CachedGbwt::new(mapper.gbz().gbwt(), self.options.mapping.cache_capacity)
                    .with_hot(self.hot.clone());
            let mut scratch = MapScratch::default();
            let mut rescued = 0u64;
            for a in (0..inputs.len().saturating_sub(1)).step_by(2) {
                let b = a + 1;
                let (mapped, unmapped) = match (alignments[a].is_empty(), alignments[b].is_empty())
                {
                    (false, true) => (a, b),
                    (true, false) => (b, a),
                    _ => continue,
                };
                let anchor = alignments[mapped][0].pos;
                if let Some(result) = rescue_mate(
                    mapper,
                    self.parent.minimizer(),
                    &mut cache,
                    base_id + unmapped as u64,
                    &inputs[unmapped],
                    anchor,
                    &self.options.mapping,
                    &self.options.rescue,
                    &NullSink,
                    0,
                    &mut NoProbe,
                    &mut scratch,
                ) {
                    alignments[unmapped] = align_read(&result, &self.options.align);
                    rescued += 1;
                }
            }
            for pair in alignments.chunks_mut(2) {
                if let [first, second] = pair {
                    pair_check(
                        mapper.gbz().graph(),
                        mapper.distance_index(),
                        first,
                        second,
                        self.options.max_fragment,
                    );
                }
            }
            (
                (),
                vec![("reads", inputs.len() as u64), ("rescued", rescued)],
            )
        })
    }
}

/// The staged replay of one workload input.
pub struct Replay {
    pub trace: Trace,
    pub reads: u64,
    pub wall_ns: u64,
    pub output: Vec<u8>,
}

/// The replay in progress: the stages' state, the trace, and where in the
/// run it is.
struct Replaying<'a> {
    stages: Stages<'a>,
    trace: Trace,
    run: SpanId,
    next_chunk: u32,
    reads: u64,
}

impl Replaying<'_> {
    /// Replays one FASTQ document chunk by chunk, appending GAF named
    /// `<set_name>.<read index>` to `out`. With `freeze_hot` the hot tier is
    /// built from the first chunk's seeds, as the streaming path does; the
    /// batch path maps its one chunk cold.
    fn fastq(
        &mut self,
        input: impl std::io::BufRead,
        set_name: &str,
        paired: bool,
        freeze_hot: bool,
        out: &mut impl std::io::Write,
    ) -> Result<(), String> {
        let mut batches = FastqReader::new(input).batches(CHUNK_READS);
        let mut base_id = 0u64;
        loop {
            let index = self.next_chunk;
            let span = self
                .trace
                .open("workload.fastq", Some(self.run), Some(index));
            let batch = batches
                .next()
                .transpose()
                .map_err(|e| format!("parsing FASTQ {set_name}: {e}"))?;
            let reads: Vec<Vec<u8>> = batch
                .unwrap_or_default()
                .into_iter()
                .map(|r| r.bases)
                .collect();
            let n = reads.len() as u64;
            self.trace.close(span, &[("reads", n)]);
            if reads.is_empty() {
                return Ok(());
            }
            let inputs = self.chunk(index, base_id, reads, set_name, paired, out)?;
            if freeze_hot && self.stages.hot.is_none() {
                let mapper = self.stages.parent.mapper();
                let hot = mapper.build_hot_tier(&inputs, &self.stages.options.mapping);
                self.stages.set_hot(hot);
            }
            base_id += n;
            self.reads += n;
            self.next_chunk += 1;
        }
    }

    /// One chunk of a parent workload through every stage; appends its GAF.
    fn chunk(
        &mut self,
        index: u32,
        base_id: u64,
        reads: Vec<Vec<u8>>,
        set_name: &str,
        paired: bool,
        out: &mut impl std::io::Write,
    ) -> Result<Vec<ReadInput>, String> {
        let (stages, trace) = (&mut self.stages, &mut self.trace);
        let chunk = trace.open("chunk", Some(self.run), Some(index));
        let n = reads.len() as u64;
        let inputs = stages.seed(trace, chunk, reads);
        let results = stages.kernels(trace, chunk, base_id, &inputs);
        let mut alignments = stages.post(trace, chunk, &inputs, &results);
        if paired {
            // A rescued mate's extensions replace nothing in `results` in
            // the real pipeline either: GAF looks an alignment's extension
            // up in the un-rescued kernel output and skips what it cannot
            // find.
            stages.pair(trace, chunk, base_id, &inputs, &mut alignments);
        }
        let graph = stages.parent.mapper().gbz().graph();
        let written = trace.span("parent.gaf", chunk, || {
            let gaf = chunk_to_gaf(graph, set_name, base_id, &inputs, &results, &alignments);
            let result = out.write_all(gaf.as_bytes());
            (result, vec![("reads", n), ("gaf_bytes", gaf.len() as u64)])
        });
        written.map_err(|e| format!("writing GAF: {e}"))?;
        trace.close(chunk, &[("reads", n)]);
        Ok(inputs)
    }
}

/// Runs the staged replay of `kind` over `source` on one thread, writing
/// the output file `out` the way the command does.
pub fn staged_replay(
    kind: Kind,
    bundle: &MgiBundle,
    source: &Source<'_>,
    out: &Path,
) -> Result<Replay, String> {
    let io = |e: std::io::Error| format!("writing {}: {e}", out.display());
    let started = Instant::now();
    let parent = new_parent(bundle, kind);
    let mut trace = Trace::default();
    let run = trace.open("run", None, None);
    let mut r = Replaying {
        stages: Stages::new(&parent),
        trace,
        run,
        next_chunk: 0,
        reads: 0,
    };

    let in_memory = match (kind, source) {
        (Kind::Map, Source::File(path)) => {
            let dump =
                SeedDump::load(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            // `Mapper::run` counts seed anchors over the whole dump and
            // freezes the hot tier before it maps anything.
            let hot = parent
                .mapper()
                .build_hot_tier(&dump.reads, &r.stages.options.mapping);
            r.stages.set_hot(hot);
            let mut csv = CSV_HEADER.as_bytes().to_vec();
            for (index, inputs) in dump.reads.chunks(CHUNK_READS).enumerate() {
                let n = inputs.len() as u64;
                let chunk = r.trace.open("chunk", Some(run), Some(index as u32));
                let results =
                    r.stages
                        .kernels(&mut r.trace, chunk, (index * CHUNK_READS) as u64, inputs);
                r.trace.span("parent.gaf", chunk, || {
                    let before = csv.len();
                    csv_rows(&results, &mut csv);
                    (
                        (),
                        vec![("reads", n), ("gaf_bytes", (csv.len() - before) as u64)],
                    )
                });
                r.trace.close(chunk, &[("reads", n)]);
            }
            r.reads = dump.reads.len() as u64;
            let span = r.trace.open("parent.gaf", Some(run), None);
            std::fs::write(out, &csv).map_err(io)?;
            r.trace.close(span, &[]);
            None
        }
        (Kind::Stream | Kind::Batch, Source::File(path)) => {
            let mut gaf = BufWriter::new(std::fs::File::create(out).map_err(io)?);
            r.fastq(
                open_fastq(path)?,
                CLI_SET_NAME,
                false,
                kind == Kind::Stream,
                &mut gaf,
            )?;
            let span = r.trace.open("parent.gaf", Some(run), None);
            gaf.flush().map_err(io)?;
            r.trace.close(span, &[]);
            None
        }
        (Kind::Serve, Source::Jobs(jobs)) => {
            let mut gaf = Vec::new();
            for (name, fastq) in jobs {
                r.fastq(*fastq, name, true, true, &mut gaf)?;
            }
            Some(gaf)
        }
        _ => return Err("workload kind and input source do not match".into()),
    };
    r.trace.close(run, &[("reads", r.reads)]);
    let wall_ns = started.elapsed().as_nanos() as u64;
    Ok(Replay {
        trace: r.trace,
        reads: r.reads,
        wall_ns,
        output: written(in_memory, out)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;
    use crate::workloads::{by_name, SERVE_JOB_READS};

    fn scratch(tag: &str) -> std::path::PathBuf {
        crate::test_dir(&format!("layers-{tag}"))
    }

    /// Builds the container in-process (the harness proper has the CLI do
    /// it) and checks replay == plain at one and two threads.
    fn replay_matches_plain(name: &str, reads: usize) {
        let w = by_name(name).unwrap();
        let dir = scratch(name);
        let inputs = generate(w, 11, reads, &dir).unwrap();
        let gbz = Gbz::load(&inputs.mgz).unwrap();
        MgiBundle::build(gbz, MinimizerParams::default())
            .unwrap()
            .save(&inputs.mgi)
            .unwrap();
        let indexes = Indexes::load(&inputs.mgi, &inputs.mgz).unwrap();
        let bundle = indexes.for_kind(w.kind);
        let names: Vec<String> = (0..inputs.payloads.len())
            .map(|p| format!("p{p:03}"))
            .collect();
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
        let plain = plain_run(w.kind, bundle, &source, 1, &dir.join("plain.out")).unwrap();
        let plain2 = plain_run(w.kind, bundle, &source, 2, &dir.join("plain2.out")).unwrap();
        let replay = staged_replay(w.kind, bundle, &source, &dir.join("replay.out")).unwrap();
        assert!(!plain.output.is_empty());
        assert_eq!(
            plain.output, plain2.output,
            "{name}: thread count changed the output"
        );
        assert_eq!(
            plain.output, replay.output,
            "{name}: replay diverged from the plain run"
        );
        assert_eq!(replay.reads, reads as u64);

        // The spans form a tree whose self times add up to the root, and the
        // kernels the workload uses all did work.
        let t = &replay.trace;
        let total: u64 = (0..t.spans.len()).map(|i| t.self_time_ns(i)).sum();
        assert_eq!(total, t.spans[0].duration_ns());
        assert_eq!(t.total_count("core.extend", "reads"), reads as u64);
        assert!(t.total_count("core.extend", "extensions") > 0);
        assert!(t.total_count("core.extend", "cache_lookups") > 0);
        if w.kind == Kind::Map {
            assert_eq!(t.total_ns("index.minimizer"), 0);
        } else {
            assert!(t.total_count("index.minimizer", "seeds") > 0);
            assert!(t.total_count("parent.gaf", "gaf_bytes") == replay.output.len() as u64);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn map_replay_matches() {
        replay_matches_plain("proxy-yeast-t1", 1200);
    }

    #[test]
    fn stream_replay_matches() {
        replay_matches_plain("stream-short-t2", 1500);
    }

    #[test]
    fn noisy_batch_replay_matches_and_uses_the_tail_fallback() {
        replay_matches_plain("batch-noisy-t1", 1200);
    }

    #[test]
    fn paired_serve_replay_matches() {
        replay_matches_plain("serve-paired-c2", 2 * SERVE_JOB_READS);
    }
}
