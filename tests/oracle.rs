//! Differential oracle: the proxy kernels, post-processed through the
//! parent's own rescoring path, must reproduce the parent pipeline's GAF
//! output byte for byte — the paper's functional-validation boundary,
//! pushed all the way to the interchange format.
//!
//! Each seeded workload is also pinned to a golden snapshot under
//! `tests/golden/`, so behavior drift in *either* pipeline (kernels,
//! rescoring, gapped fallback, GAF rendering) fails loudly. Regenerate the
//! snapshots with `MG_BLESS=1 cargo test --test oracle` after an
//! intentional change, and review the diff.

use std::path::PathBuf;

use minigiraffe::core::{run_mapping, ReadResult, StreamOptions};
use minigiraffe::gbwt::CachedGbwt;
use minigiraffe::parent::{run_to_gaf, Parent, ParentOptions, ParentRun};
use minigiraffe::support::probe::CountingProbe;
use minigiraffe::support::regions::NullSink;
use minigiraffe::workload::{write_fastq, FastqReader, FastqRecord, InputSetSpec, SyntheticInput};

/// The seeded workloads the oracle covers. Distinct seeds give distinct
/// pangenomes, haplotype walks, and read errors; the error-dense spec
/// exercises trimmed extensions, and the noisy 150 bp spec the gapped tail
/// fallback.
fn workloads() -> Vec<(String, SyntheticInput)> {
    let mut out = Vec::new();
    for seed in [11u64, 23, 47] {
        out.push((format!("tiny-{seed}"), SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), seed)));
    }
    let mut dense = InputSetSpec::tiny_for_tests();
    dense.read_sim.error_rate = 0.03;
    out.push(("dense-29".to_string(), SyntheticInput::generate(&dense, 29)));
    out.push(("noisy-29".to_string(), SyntheticInput::generate(&noisy_spec(), 29)));
    out
}

/// 150 bp reads at 4 % errors: long enough that trimmed extensions leave
/// tails the gapped fallback aligns (the 60 bp workloads never get a
/// `cg:Z:` tag).
fn noisy_spec() -> InputSetSpec {
    let mut noisy = InputSetSpec::tiny_for_tests();
    noisy.reads = 200;
    noisy.read_sim.read_len = 150;
    noisy.read_sim.error_rate = 0.04;
    noisy
}

/// Runs the parent end-to-end and renders its GAF.
fn parent_gaf<'a>(input: &'a SyntheticInput, name: &str) -> (Parent<'a>, ParentRun, String) {
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
    let run = parent.run(&reads, &ParentOptions::default());
    let gaf = run_to_gaf(input.gbz.graph(), &run, name);
    (parent, run, gaf)
}

/// Replays the parent's captured dump through the proxy kernels, then
/// post-processes the raw kernel output with the parent's own rescoring
/// path, and renders the same GAF.
fn proxy_gaf(
    parent: &Parent<'_>,
    run: &ParentRun,
    input: &SyntheticInput,
    name: &str,
    options: &ParentOptions,
) -> String {
    let proxy = run_mapping(&run.dump, &input.gbz, &options.mapping);
    render_gaf(parent, run, input, name, options, proxy.per_read)
}

/// Post-processes kernel results of the dump's reads with the parent's own
/// rescoring path and renders them as GAF.
fn render_gaf(
    parent: &Parent<'_>,
    run: &ParentRun,
    input: &SyntheticInput,
    name: &str,
    options: &ParentOptions,
    per_read: Vec<ReadResult>,
) -> String {
    let alignments: Vec<_> = run
        .dump
        .reads
        .iter()
        .zip(&per_read)
        .map(|(read_input, result)| parent.post_process(read_input, result, options, &NullSink, 0))
        .collect();
    let proxy_run = ParentRun {
        kernel_results: per_read,
        alignments,
        dump: run.dump.clone(),
        rescued: vec![None; run.dump.reads.len()],
        wall: run.wall,
    };
    run_to_gaf(input.gbz.graph(), &proxy_run, name)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/oracle_{name}.gaf"))
}

#[test]
fn proxy_reproduces_parent_gaf_byte_for_byte() {
    for (name, input) in workloads() {
        let (parent, run, expected) = parent_gaf(&input, &name);
        let got = proxy_gaf(&parent, &run, &input, &name, &ParentOptions::default());
        assert!(!expected.is_empty(), "{name}: parent emitted no alignments");
        assert_eq!(
            got, expected,
            "{name}: proxy GAF diverged from the parent pipeline"
        );
    }
}

#[test]
fn parent_gaf_matches_golden_snapshot() {
    let bless = std::env::var_os("MG_BLESS").is_some();
    for (name, input) in workloads() {
        let (_, _, gaf) = parent_gaf(&input, &name);
        let path = golden_path(&name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &gaf).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden snapshot {} ({e}); run MG_BLESS=1 cargo test --test oracle",
                path.display()
            )
        });
        assert_eq!(
            gaf, golden,
            "{name}: GAF drifted from the committed snapshot; if intentional, \
             re-bless with MG_BLESS=1 cargo test --test oracle and review the diff"
        );
    }
}

#[test]
fn noisy_golden_pins_the_gapped_tail_fallback() {
    // The snapshot only guards the fallback if the fallback fires in it:
    // every `cg:Z:` tag is a tail the gapped aligner placed.
    let golden = std::fs::read_to_string(golden_path("noisy-29")).expect("noisy-29 golden snapshot");
    let tails = golden.lines().filter(|line| line.contains("cg:Z:")).count();
    assert!(tails >= 20, "noisy-29: only {tails} gapped tails in the golden snapshot");
}

/// Serializes a workload's simulated reads as FASTQ bytes, the wire form
/// the streaming entry point ingests.
fn fastq_bytes(input: &SyntheticInput) -> Vec<u8> {
    let records: Vec<FastqRecord> = input
        .sim_reads
        .iter()
        .enumerate()
        .map(|(i, r)| FastqRecord {
            name: format!("r{i}"),
            quality: vec![b'I'; r.bases.len()],
            bases: r.bases.clone(),
        })
        .collect();
    let mut bytes = Vec::new();
    write_fastq(&mut bytes, &records).expect("in-memory FASTQ write");
    bytes
}

#[test]
fn streaming_ingestion_reproduces_golden_gaf_across_schedulers() {
    // The full streaming shape — FASTQ bytes through the chunked reader,
    // across the bounded hand-off queue, mapped chunk by chunk, GAF
    // rendered incrementally — must land on the same bytes as the batch
    // pipeline (and therefore the committed golden snapshots) for every
    // workload under every scheduler. Ingestion batches (5 records) and
    // mapping chunks (4 threads × batch 3 = 12 reads) are deliberately
    // misaligned so chunk boundaries land everywhere.
    for (name, input) in workloads() {
        let (_, _, expected) = parent_gaf(&input, &name);
        let fastq = fastq_bytes(&input);
        if let Ok(golden) = std::fs::read_to_string(golden_path(&name)) {
            assert_eq!(expected, golden, "{name}: batch GAF drifted from snapshot");
        }
        for kind in minigiraffe::sched::SchedulerKind::ALL {
            let mut options = ParentOptions::default();
            options.mapping.scheduler = kind;
            options.mapping.threads = 4;
            options.mapping.batch_size = 3;
            let stream = StreamOptions { queue_batches: 2 };
            let batches = FastqReader::new(&fastq[..])
                .batches(5)
                .map(|item| item.map(|recs| recs.into_iter().map(|r| r.bases).collect()));
            let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
            let mut gaf = Vec::new();
            let summary = parent
                .run_streaming(batches, &options, &stream, &name, &mut gaf)
                .unwrap_or_else(|e| panic!("{name}: streaming run failed under {kind}: {e}"));
            assert_eq!(summary.reads as usize, input.sim_reads.len());
            assert!(
                summary.queue_high_water <= stream.queue_batches,
                "{name}: queue overflowed its bound under {kind}"
            );
            let got = String::from_utf8(gaf).expect("GAF is UTF-8");
            assert_eq!(
                got, expected,
                "{name}: streaming GAF diverged from the batch pipeline under {kind}"
            );
        }
    }
}

/// The dump's reads mapped one at a time through `Mapper::map_read` under
/// an active probe — which takes the extension walk's per-base comparison
/// step — post-processed and rendered like [`proxy_gaf`].
fn per_base_gaf(parent: &Parent<'_>, run: &ParentRun, input: &SyntheticInput, name: &str) -> String {
    let options = ParentOptions::default();
    let mut cache = CachedGbwt::new(input.gbz.gbwt(), options.mapping.cache_capacity);
    let mut probe = CountingProbe::default();
    let per_read = run
        .dump
        .reads
        .iter()
        .enumerate()
        .map(|(id, read)| parent.mapper().map_read(&mut cache, id as u64, read, &options.mapping, &mut probe))
        .collect();
    assert!(probe.branches > 0, "{name}: the probe saw no base compared");
    render_gaf(parent, run, input, name, &options, per_read)
}

#[test]
fn production_walk_matches_scalar_oracle_gaf_across_schedulers() {
    // The eight-bases-a-step comparison (the production default — pooled
    // workers map with no active probe) must land on the same GAF bytes as
    // the per-base step an active probe selects, for every golden workload
    // under every scheduler; any divergence in span, score, path, or
    // rescoring shows up byte-for-byte.
    for (name, input) in workloads() {
        let (parent, run, _) = parent_gaf(&input, &name);
        let per_base = per_base_gaf(&parent, &run, &input, &name);
        for kind in minigiraffe::sched::SchedulerKind::ALL {
            let mut production_options = ParentOptions::default();
            production_options.mapping.scheduler = kind;
            production_options.mapping.threads = 4;
            production_options.mapping.batch_size = 3;
            let production = proxy_gaf(&parent, &run, &input, &name, &production_options);
            assert!(!production.is_empty(), "{name}: no alignments under {kind}");
            assert_eq!(
                production, per_base,
                "{name}: the eight-base step diverged from the per-base step under {kind}"
            );
        }
    }
}

#[test]
fn oracle_holds_across_schedulers_and_threads() {
    // The dump replay must be bit-stable under every scheduler the proxy
    // sweeps — otherwise the oracle would only pin one configuration.
    let (name, input) = workloads().swap_remove(0);
    let (parent, run, expected) = parent_gaf(&input, &name);
    for kind in minigiraffe::sched::SchedulerKind::ALL {
        let mut options = ParentOptions::default();
        options.mapping.scheduler = kind;
        options.mapping.threads = 4;
        options.mapping.batch_size = 3;
        let proxy = run_mapping(&run.dump, &input.gbz, &options.mapping);
        let alignments: Vec<_> = run
            .dump
            .reads
            .iter()
            .zip(&proxy.per_read)
            .map(|(ri, r)| parent.post_process(ri, r, &options, &NullSink, 0))
            .collect();
        let proxy_run = ParentRun {
            kernel_results: proxy.per_read.clone(),
            alignments,
            dump: run.dump.clone(),
            rescued: vec![None; run.dump.reads.len()],
            wall: proxy.wall,
        };
        let got = run_to_gaf(input.gbz.graph(), &proxy_run, &name);
        assert_eq!(got, expected, "{name}: {kind} with 4 threads diverged");
    }
}
