//! One GAF, many paths: every way the system turns raw reads into GAF
//! bytes must land on the batch pipeline's bytes.
//!
//! The reference is `run_to_gaf(Parent::run)` on a parent nothing else
//! touches. Against it: `Parent::run_streaming` across thread counts, all
//! three schedulers and batch sizes, and so chunk windows of `threads ×
//! batch_size` reads (chunk, grain and pair boundaries land everywhere);
//! the same reads as a server job over the
//! in-process transport; and `Parent::map_chunk_gaf` called chunk by chunk
//! with the batch size and cache capacity changing between calls. The
//! inputs are chosen for the pair-local tail: a paired set in which mate
//! rescue fires, the same set with a trailing unpaired read, and a set
//! with reads that cannot be seeded at all.
//!
//! The batch path's `ParentRun::rescued` is held to a serial reference
//! rescue over the finished run, kept here as the independent
//! implementation of "rescue half-mapped pairs, in read order".

use std::sync::mpsc::channel;

use minigiraffe::core::types::{ReadResult, Workflow};
use minigiraffe::core::{MapScratch, StreamOptions};
use minigiraffe::gbwt::CachedGbwt;
use minigiraffe::obs::Metrics;
use minigiraffe::parent::{
    align_read, pair_check, rescue_mate, run_to_gaf, Alignment, Parent, ParentOptions, ParentRun,
};
use minigiraffe::sched::SchedulerKind;
use minigiraffe::server::{BlockingClient, Conn, JobOutcome, MappingServer, ServerConfig};
use minigiraffe::support::probe::NoProbe;
use minigiraffe::support::regions::NullSink;
use minigiraffe::workload::{write_fastq, FastqRecord, InputSetSpec, SyntheticInput};

/// One oracle case: a pangenome, the reads to map on it, and the options
/// every path maps them with.
struct Case {
    name: &'static str,
    input: SyntheticInput,
    reads: Vec<Vec<u8>>,
    options: ParentOptions,
}

impl Case {
    fn parent(&self) -> Parent<'_> {
        Parent::new(&self.input.gbz, &self.input.minimizer_index, self.input.spec.workflow)
    }

    /// The batch run on a parent no other path has touched.
    fn batch(&self) -> ParentRun {
        self.parent().run(&self.reads, &self.options)
    }

    fn expected(&self) -> String {
        run_to_gaf(self.input.gbz.graph(), &self.batch(), self.name)
    }
}

fn reads_of(input: &SyntheticInput) -> Vec<Vec<u8>> {
    input.sim_reads.iter().map(|r| r.bases.clone()).collect()
}

/// A paired input dense enough in repeats, at a hit cap low enough, that
/// some mates seed nowhere and are recovered by rescue (the recipe of
/// `tests/shard_oracle.rs`).
fn rescue_case() -> (SyntheticInput, ParentOptions) {
    let mut spec = InputSetSpec::tiny_for_tests();
    spec.workflow = Workflow::Paired;
    spec.genome.repeat_fraction = 0.3;
    spec.genome.repeat_len = 150;
    spec.hard_hit_cap = 2;
    let options = ParentOptions { hard_hit_cap: 2, ..Default::default() };
    let input = [5u64, 41, 97]
        .into_iter()
        .map(|seed| SyntheticInput::generate(&spec, seed))
        .find(|input| {
            let parent = Parent::new(&input.gbz, &input.minimizer_index, Workflow::Paired);
            parent.run(&reads_of(input), &options).rescued.iter().any(Option::is_some)
        })
        .expect("no candidate seed exercises rescue; densify the repeats");
    (input, options)
}

fn cases() -> Vec<Case> {
    let single = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 11);
    let single_reads = reads_of(&single);

    let (paired, paired_options) = rescue_case();
    let paired_reads = reads_of(&paired);
    // The same pairs plus one read with no mate: the batch path leaves it
    // unpaired, and so must every chunked path wherever its chunk ends.
    let (odd, odd_options) = rescue_case();
    let mut odd_reads = reads_of(&odd);
    // A copy of a read that maps on its own (not through rescue).
    let mappable = Parent::new(&odd.gbz, &odd.minimizer_index, Workflow::Paired)
        .run(&odd_reads, &odd_options)
        .kernel_results
        .iter()
        .position(|r| !r.extensions.is_empty())
        .expect("some read of the rescue case maps");
    odd_reads.push(odd_reads[mappable].clone());

    // Reads no seed can come from: all-N, shorter than a k-mer, one base, and
    // a low-complexity run the genome does not contain, spread between
    // mappable reads so they land inside, at the start of and at the end
    // of chunks and grains.
    let unmappable = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 23);
    let mut unmappable_reads = reads_of(&unmappable);
    unmappable_reads[0] = vec![b'N'; 60];
    unmappable_reads[5] = b"ACGT".to_vec();
    unmappable_reads[6] = b"A".to_vec();
    unmappable_reads[13] = b"AC".repeat(30);
    let last = unmappable_reads.len() - 1;
    unmappable_reads[last] = vec![b'N'; 7];

    vec![
        Case { name: "single", input: single, reads: single_reads, options: Default::default() },
        Case { name: "paired", input: paired, reads: paired_reads, options: paired_options },
        Case { name: "odd", input: odd, reads: odd_reads, options: odd_options },
        Case {
            name: "unmappable",
            input: unmappable,
            reads: unmappable_reads,
            options: Default::default(),
        },
    ]
}

/// `reads` as in-memory ingestion batches of five: misaligned with every
/// chunk window and batch size the matrix uses.
fn batches(
    reads: &[Vec<u8>],
) -> impl Iterator<Item = minigiraffe::support::Result<Vec<Vec<u8>>>> + Send + '_ {
    reads.chunks(5).map(|c| Ok(c.to_vec()))
}

fn fastq_of(reads: &[Vec<u8>]) -> Vec<u8> {
    let records: Vec<FastqRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, bases)| FastqRecord::with_uniform_quality(format!("r{i}"), bases.clone(), b'F'))
        .collect();
    let mut out = Vec::new();
    write_fastq(&mut out, &records).expect("in-memory FASTQ write");
    out
}

#[test]
fn the_cases_exercise_what_they_claim() {
    for case in cases() {
        let run = case.batch();
        let rescued = run.rescued.iter().flatten().count();
        let unmapped = run.alignments.iter().filter(|a| a.is_empty()).count();
        match case.name {
            "paired" | "odd" => assert!(rescued > 0, "{}: rescue never fired", case.name),
            "unmappable" => assert!(unmapped >= 5, "only {unmapped} reads stayed unmapped"),
            _ => {}
        }
        if case.name == "odd" {
            assert_eq!(case.reads.len() % 2, 1);
            // The trailing read is a copy of a read that maps, and maps like
            // it, but is never pair-checked: with no mate to fail the check
            // against, it keeps `align_read`'s default.
            let last = run.alignments.last().expect("odd read present");
            assert!(!last.is_empty() && last.iter().all(|a| a.properly_paired));
        }
        assert!(!case.expected().is_empty(), "{}: no GAF at all", case.name);
    }
}

#[test]
fn streaming_matches_batch_across_threads_schedulers_batches_and_chunks() {
    for case in cases() {
        let expected = case.expected();
        // One parent for the whole matrix: its pool and every thread's
        // kept state are reused across heterogeneous runs.
        let parent = case.parent();
        for threads in [1usize, 2, 3] {
            for kind in SchedulerKind::ALL {
                // A chunk is `threads × batch_size` reads (even when
                // paired): 1 to 1,536 reads across the matrix, odd and even.
                for batch_size in [1usize, 3, 7, 512] {
                    let mut options = case.options.clone();
                    options.mapping.threads = threads;
                    options.mapping.scheduler = kind;
                    options.mapping.batch_size = batch_size;
                    let stream = StreamOptions { queue_batches: 2 };
                    let mut gaf = Vec::new();
                    let summary = parent
                        .run_streaming(batches(&case.reads), &options, &stream, case.name, &mut gaf)
                        .expect("in-memory batches cannot fail");
                    assert_eq!(summary.reads as usize, case.reads.len());
                    assert_eq!(
                        String::from_utf8(gaf).expect("GAF is UTF-8"),
                        expected,
                        "{}: streaming diverged at threads={threads} {kind} batch={batch_size}",
                        case.name
                    );
                }
            }
        }
    }
}

#[test]
fn server_job_matches_batch() {
    for case in cases() {
        let expected = case.expected();
        let parent = case.parent();
        // Chunks of `threads × batch_size` reads: 7 (6 when paired), then 6.
        for (threads, batch_size) in [(1usize, 7usize), (2, 3)] {
            let mut options = case.options.clone();
            options.mapping.threads = threads;
            options.mapping.scheduler = SchedulerKind::Dynamic;
            options.mapping.batch_size = batch_size;
            let server = MappingServer::new(
                &parent,
                ServerConfig { options: options.clone(), ..Default::default() },
            );
            let (tx, rx) = channel::<Conn>();
            std::thread::scope(|scope| {
                scope.spawn(|| server.serve(rx));
                let (server_side, client_side) = Conn::pair();
                tx.send(server_side).unwrap();
                let mut client = BlockingClient::new(client_side);
                let outcome = client.run_job(case.name, &fastq_of(&case.reads));
                // Drain before asserting, or a failure deadlocks the scope.
                server.ctl().request_shutdown();
                match outcome.expect("client ran") {
                    JobOutcome::Done { gaf, summary } => {
                        assert_eq!(summary.reads as usize, case.reads.len());
                        assert_eq!(
                            String::from_utf8(gaf).expect("GAF is UTF-8"),
                            expected,
                            "{}: served GAF diverged at {threads} × {batch_size}",
                            case.name
                        );
                    }
                    JobOutcome::Failed { message } => panic!("{}: job failed: {message}", case.name),
                }
            });
        }
    }
}

#[test]
fn chunk_calls_with_knobs_moving_between_them_match_batch() {
    // What a long-lived executor does to one warm parent: chunk after chunk
    // on the same pool, with the scheduler grain and the cache capacity
    // different from one call to the next (a capacity change rebinds every
    // thread's kept cache cold).
    const BATCHES: [usize; 3] = [1, 3, 512];
    const CAPACITIES: [usize; 3] = [1, 64, 256];
    for case in cases() {
        let expected = case.expected();
        let parent = case.parent();
        let paired = parent.workflow() == Workflow::Paired;
        for chunk_reads in [2usize, 7, 64] {
            // Cuts stay on pair boundaries when paired.
            let step = if paired { chunk_reads & !1 } else { chunk_reads };
            let mut gaf = Vec::new();
            for (call, lo) in (0..case.reads.len()).step_by(step).enumerate() {
                let hi = (lo + step).min(case.reads.len());
                let mut options = case.options.clone();
                options.mapping.threads = 2;
                options.mapping.batch_size = BATCHES[call % 3];
                // Out of step with the batch cycle: nine calls see all nine
                // combinations.
                options.mapping.cache_capacity = CAPACITIES[(call + call / 3) % 3];
                parent.map_chunk_gaf(
                    &case.reads[lo..hi],
                    lo as u64,
                    case.name,
                    &options,
                    Metrics::off_ref(),
                    &mut gaf,
                );
            }
            assert_eq!(
                String::from_utf8(gaf).expect("GAF is UTF-8"),
                expected,
                "{}: chunk calls of {chunk_reads} reads diverged",
                case.name
            );
        }
    }
}

/// The reference pair tail: post-processed alignments of a finished run,
/// then — serially, in read order, on a cache of its own — rescue of every
/// half-mapped pair and the fragment check of every pair.
fn serial_pair_tail(
    case: &Case,
    parent: &Parent<'_>,
    run: &ParentRun,
) -> (Vec<Option<ReadResult>>, Vec<Vec<Alignment>>) {
    let options = &case.options;
    let mapper = parent.mapper();
    let mut alignments: Vec<Vec<Alignment>> = run
        .dump
        .reads
        .iter()
        .zip(&run.kernel_results)
        .map(|(input, result)| parent.post_process(input, result, options, &NullSink, 0))
        .collect();
    let n = alignments.len();
    let mut rescued: Vec<Option<ReadResult>> = vec![None; n];
    if parent.workflow() != Workflow::Paired {
        return (rescued, alignments);
    }
    let mut cache = CachedGbwt::new(mapper.gbz().gbwt(), options.mapping.cache_capacity);
    let mut scratch = MapScratch::default();
    for a in (0..n.saturating_sub(1)).step_by(2) {
        let b = a + 1;
        let (mapped, unmapped) = match (alignments[a].is_empty(), alignments[b].is_empty()) {
            (false, true) => (a, b),
            (true, false) => (b, a),
            _ => continue,
        };
        let anchor = alignments[mapped][0].pos;
        if let Some(result) = rescue_mate(
            mapper,
            parent.minimizer(),
            &mut cache,
            unmapped as u64,
            &run.dump.reads[unmapped],
            anchor,
            &options.mapping,
            &options.rescue,
            &NullSink,
            0,
            &mut NoProbe,
            &mut scratch,
        ) {
            alignments[unmapped] = align_read(&result, &options.align);
            rescued[unmapped] = Some(result);
        }
    }
    for pair in alignments.chunks_exact_mut(2) {
        let (first, second) = pair.split_at_mut(1);
        pair_check(
            mapper.gbz().graph(),
            mapper.distance_index(),
            &mut first[0],
            &mut second[0],
            options.max_fragment,
        );
    }
    (rescued, alignments)
}

#[test]
fn batch_rescue_matches_a_serial_rescue_over_the_finished_run() {
    for case in cases() {
        let parent = case.parent();
        for (threads, batch_size) in [(1usize, 512usize), (3, 1), (2, 3)] {
            let mut options = case.options.clone();
            options.mapping.threads = threads;
            options.mapping.batch_size = batch_size;
            let run = parent.run(&case.reads, &options);
            let (rescued, alignments) = serial_pair_tail(&case, &parent, &run);
            assert_eq!(
                run.rescued, rescued,
                "{}: rescued mates diverged from the serial reference at threads={threads}",
                case.name
            );
            assert_eq!(
                run.alignments, alignments,
                "{}: alignments diverged from the serial reference at threads={threads}",
                case.name
            );
        }
    }
}
