//! The concurrent-client lock on `minigiraffe serve`.
//!
//! Every test drives a real [`MappingServer`] — admission queue, chunk
//! executor, shared worker pool — through the harness client
//! over in-process loopback (one test uses real TCP), and holds the
//! streamed GAF to the sequential one-shot oracle: for each job,
//! [`Parent::run`] over the same reads on a *separate* parent instance.
//! Byte equality there means multi-tenant interleaving changed nothing.

use std::sync::mpsc::channel;
use std::sync::Arc;

use mg_core::types::{Seed, Workflow};
use mg_core::{cluster_seeds_with_scratch, ClusterScratch};
use mg_obs::{Ctr, Hist};
use mg_parent::{run_to_gaf, Parent, ParentOptions};
use mg_sched::SchedulerKind;
use mg_server::{
    drive_clients, BlockingClient, ClientPlan, Conn, JobOutcome, MappingServer, Profile,
    ServerConfig, ServerCtl,
};
use mg_support::probe::NoProbe;
use mg_workload::{write_fastq, FastqRecord, InputSetSpec, SyntheticInput};

/// Requests drain on drop so a failing assertion unwinds cleanly instead
/// of deadlocking the scope join on a server that never exits.
struct ShutdownGuard<'a>(&'a Arc<ServerCtl>);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

fn fixture(seed: u64) -> SyntheticInput {
    SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), seed)
}

fn paired_fixture(seed: u64) -> SyntheticInput {
    let mut spec = InputSetSpec::tiny_for_tests();
    spec.workflow = Workflow::Paired;
    SyntheticInput::generate(&spec, seed)
}

fn raw_reads(input: &SyntheticInput) -> Vec<Vec<u8>> {
    input.sim_reads.iter().map(|r| r.bases.clone()).collect()
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

/// Mapping options; the server maps a job in chunks of `threads ×
/// batch_size` reads.
fn options(scheduler: SchedulerKind, threads: usize, batch_size: usize) -> ParentOptions {
    let mut options = ParentOptions::default();
    options.mapping.scheduler = scheduler;
    options.mapping.threads = threads;
    options.mapping.batch_size = batch_size;
    options
}

/// A counter of the server's metrics registry.
fn counter(server: &MappingServer<'_>, c: Ctr) -> u64 {
    server.metrics().report().counter(c)
}

/// The sequential oracle: a one-shot batch run on a parent instance the
/// server never touches (own pool, own caches).
fn oracle_gaf(
    input: &SyntheticInput,
    reads: &[Vec<u8>],
    options: &ParentOptions,
    name: &str,
) -> String {
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    run_to_gaf(input.gbz.graph(), &parent.run(reads, options), name)
}

/// Distinct anchors of the clusters the kernel processes for `reads`,
/// seeded as the parent seeds them: every one is walked, merged into
/// another or skipped, whether the read's first walk settled it (then its
/// seeds are the one cluster clustering would have formed) or not.
fn distinct_anchors(parent: &Parent<'_>, reads: &[Vec<u8>], options: &ParentOptions) -> u64 {
    let mapper = parent.mapper();
    let (cluster, process) = (options.mapping.cluster, options.mapping.process);
    let mut scratch = ClusterScratch::default();
    let run = parent.run(reads, options);
    run.dump
        .reads
        .iter()
        .map(|read| {
            let clusters = cluster_seeds_with_scratch(
                mapper.gbz().graph(),
                mapper.distance_index(),
                &read.seeds,
                read.bases.len() as u32,
                &cluster,
                &mut NoProbe,
                &mut scratch,
            );
            let best = clusters.first().map_or(0.0, |c| c.score);
            clusters
                .iter()
                .take(process.max_clusters)
                .take_while(|c| c.score >= best * process.cluster_score_cutoff)
                .map(|c| {
                    let mut anchors: Vec<Seed> = c.seeds.iter().map(|&i| read.seeds[i]).collect();
                    anchors.sort_unstable();
                    anchors.dedup();
                    anchors.len() as u64
                })
                .sum::<u64>()
        })
        .sum()
}

/// The unsigned integer after `"key":` in a JSON text.
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).unwrap_or_else(|| panic!("{key} missing: {json}")) + needle.len();
    let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} is no number: {json}"))
}

fn expect_done(outcome: &JobOutcome) -> (&[u8], mg_server::JobSummary) {
    match outcome {
        JobOutcome::Done { gaf, summary } => (gaf, *summary),
        JobOutcome::Failed { message } => panic!("job failed: {message}"),
    }
}

/// Polls `STATS` until the executor reports `jobs` executing jobs. Used
/// while the test holds the mapper's pool, so the state cannot pass by.
fn wait_for_executing(client: &mut BlockingClient, jobs: usize) {
    let needle = format!("\"executing\":{jobs},");
    for _ in 0..10_000 {
        if client.stats().expect("STATS").contains(&needle) {
            return;
        }
        std::thread::yield_now();
    }
    panic!("the executor never reported {jobs} executing");
}

/// Eight concurrent clients (mixed steady/bursty pacing), two jobs each,
/// over in-process loopback: every job's streamed GAF must be
/// byte-identical to the sequential oracle.
fn eight_clients_match_oracle(scheduler: SchedulerKind) {
    let input = fixture(11);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(scheduler, 2, 4);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            max_pending: 32,
            max_active: 4,
            per_client_cap: 4,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let slice = |c: usize, j: usize| {
        let lo = (c * 5 + j * 10) % 30;
        lo..lo + 10
    };
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let plans: Vec<ClientPlan> = (0..8)
            .map(|c| ClientPlan {
                label: format!("c{c}"),
                jobs: (0..2).map(|j| fastq_of(&reads[slice(c, j)])).collect(),
                profile: if c % 2 == 0 { Profile::Steady } else { Profile::Bursty },
                seed: 0x5eed ^ c as u64,
            })
            .collect();
        let reports = drive_clients(&tx, &plans);
        for (c, report) in reports.into_iter().enumerate() {
            let report = report.expect("client ran");
            assert_eq!(report.rejected, 0, "client {c} saw spurious BUSY");
            assert_eq!(report.outcomes.len(), 2);
            for (j, (name, outcome)) in report.outcomes.iter().enumerate() {
                let (gaf, summary) = expect_done(outcome);
                let expect = oracle_gaf(&input, &reads[slice(c, j)], &options, name);
                assert_eq!(
                    std::str::from_utf8(gaf).unwrap(),
                    expect,
                    "client {c} job {j} GAF diverged from the sequential oracle"
                );
                assert_eq!(summary.reads, 10);
                assert_eq!(summary.chunks, 2, "10 reads at 2 threads × batch 4 is 2 chunks");
                assert_eq!(summary.gaf_bytes, expect.len() as u64);
            }
        }
    });
    assert_eq!(counter(&server, Ctr::ServeJobsCompleted), 16);
    assert_eq!(counter(&server, Ctr::ServeJobsFailed), 0);
}

#[test]
fn eight_clients_match_oracle_dynamic() {
    eight_clients_match_oracle(SchedulerKind::Dynamic);
}

#[test]
fn eight_clients_match_oracle_work_stealing() {
    eight_clients_match_oracle(SchedulerKind::WorkStealing);
}

#[test]
fn ping_stats_and_clean_drain() {
    let input = fixture(3);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 1, 8);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options.clone(), ..ServerConfig::default() },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        client.ping().expect("PONG");
        let outcome = client.run_job("set", &fastq_of(&reads[..6])).expect("job ran");
        let (gaf, summary) = expect_done(&outcome);
        assert_eq!(
            std::str::from_utf8(gaf).unwrap(),
            oracle_gaf(&input, &reads[..6], &options, "set")
        );
        assert!(summary.latency_us >= summary.queue_wait_us);
        let stats = client.stats().expect("STATS");
        for needle in [
            "\"accepted\":1",
            "\"completed\":1",
            "\"failed\":0",
            "\"rejected_full\":0",
            "\"latency_us\":{\"count\":1",
            "\"draining\":false",
            "\"cache\":{\"private_hits\":",
            "\"private_hit_rate\":",
            "\"extend\":{\"anchors_walked\":",
            "\"anchors_skipped\":",
            "\"extend_first_reads\":",
            // Six reads of a single-end job: parsed into no dump record,
            // rendered on the workers, no pair to check.
            "\"stages\":{\"parse\":{\"ns\":0,\"count\":0},\"seeding\":{",
            "\"pairing\":{\"ns\":0,\"count\":0}",
            "\"count\":6}}",
        ] {
            assert!(stats.contains(needle), "STATS missing {needle}: {stats}");
        }
        let accounted: u64 = ["anchors_walked", "anchors_merged", "anchors_skipped"]
            .iter()
            .map(|key| json_u64(&stats, key))
            .sum();
        assert_eq!(accounted, distinct_anchors(&parent, &reads[..6], &options), "{stats}");
        client.shutdown().expect("SHUTDOWN sent");
    });
    assert!(server.ctl().stopped());
}

#[test]
fn real_tcp_round_trip() {
    let input = fixture(5);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2, 8);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options.clone(), ..ServerConfig::default() },
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
        let _guard = ShutdownGuard(server.ctl());
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut client = BlockingClient::new(Conn::tcp(stream).expect("conn"));
        client.ping().expect("PONG over TCP");
        let outcome = client.run_job("tcp", &fastq_of(&reads[..8])).expect("job over TCP");
        let (gaf, _) = expect_done(&outcome);
        assert_eq!(
            std::str::from_utf8(gaf).unwrap(),
            oracle_gaf(&input, &reads[..8], &options, "tcp")
        );
        client.shutdown().expect("SHUTDOWN over TCP");
    });
}

/// A hog streaming a large job cannot starve a small job submitted after
/// it: chunk-level interleaving finishes the small one first.
#[test]
fn small_job_finishes_under_a_hog() {
    let input = fixture(7);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 1, 4);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            max_pending: 8,
            max_active: 2,
            per_client_cap: 2,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (hog_server, hog_side) = Conn::pair();
        let (small_server, small_side) = Conn::pair();
        tx.send(hog_server).unwrap();
        tx.send(small_server).unwrap();
        let mut hog = BlockingClient::new(hog_side);
        let mut small = BlockingClient::new(small_side);
        // Both jobs are in before the hog maps a read: the executor pops the
        // hog and then waits for the pool the test holds.
        let pool = parent.mapper().lock_pool();
        let hog_job = hog.submit("hog", &fastq_of(&reads[..32])).unwrap().expect("admitted");
        wait_for_executing(&mut hog, 1);
        let small_job =
            small.submit("small", &fastq_of(&reads[..4])).unwrap().expect("admitted");
        drop(pool);
        let small_done = expect_done(&small.wait_job(small_job).unwrap()).1;
        let hog_done = expect_done(&hog.wait_job(hog_job).unwrap()).1;
        // The small job was submitted later yet finished earlier, so its
        // latency is strictly below the hog's — the fairness property.
        assert!(
            small_done.latency_us < hog_done.latency_us,
            "small job ({} us) should undercut the hog ({} us)",
            small_done.latency_us,
            hog_done.latency_us
        );
        assert_eq!(hog_done.chunks, 8);
        small.shutdown().unwrap();
    });
    assert_eq!(counter(&server, Ctr::ServeJobsCompleted), 2);
}

#[test]
fn queue_full_and_client_caps_reject_with_busy() {
    let input = fixture(9);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options(SchedulerKind::Dynamic, 1, 4),
            max_pending: 1,
            max_active: 1,
            per_client_cap: 2,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (a_server, a_side) = Conn::pair();
        let (b_server, b_side) = Conn::pair();
        tx.send(a_server).unwrap();
        tx.send(b_server).unwrap();
        let mut a = BlockingClient::new(a_side);
        let mut b = BlockingClient::new(b_side);
        let fastq = fastq_of(&reads[..8]);
        // Job 1 must still be executing while the submits below race it, or
        // the cap and queue slots free up and the rejections never happen.
        // Holding the mapper's pool keeps it there: the executor pops it and
        // then waits for the pool before mapping a single read.
        let pool = parent.mapper().lock_pool();
        // Client A fills its own cap: two in flight, the third bounces
        // off the per-client limit (freed only when a job *finishes*).
        let job1 = a.submit("a0", &fastq).unwrap().expect("first admitted");
        // Wait until the executor has popped job1, so job2 lands in the
        // now-empty 1-slot pending queue instead of racing the pop.
        wait_for_executing(&mut a, 1);
        let job2 = a.submit("a1", &fastq).unwrap().expect("second admitted");
        let saturated = a.submit("a2", &fastq).unwrap().expect_err("third must bounce");
        assert!(saturated.contains("in flight"), "wrong BUSY reason: {saturated}");
        // Client B is under ITS cap but the shared pending queue is full
        // (A's second job is parked there while the first executes).
        let full = b.submit("b0", &fastq).unwrap().expect_err("queue is full");
        assert!(full.contains("queue full"), "wrong BUSY reason: {full}");
        drop(pool);
        // Rejection is not punishment: everything admitted still runs.
        expect_done(&a.wait_job(job1).unwrap());
        expect_done(&a.wait_job(job2).unwrap());
        b.shutdown().unwrap();
    });
    assert_eq!(counter(&server, Ctr::ServeJobsCompleted), 2);
    let stats = server.stats_json();
    assert!(stats.contains("\"rejected_full\":1"), "{stats}");
    assert!(stats.contains("\"rejected_client\":1"), "{stats}");
}

/// Drain on shutdown: every accepted job completes; nothing is lost, new
/// work is refused.
#[test]
fn drain_loses_no_accepted_jobs() {
    let input = fixture(13);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 1, 4);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            max_pending: 8,
            max_active: 2,
            per_client_cap: 4,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        let mut jobs = Vec::new();
        for i in 0..3 {
            let fastq = fastq_of(&reads[i * 8..(i + 1) * 8]);
            jobs.push((i, client.submit(&format!("d{i}"), &fastq).unwrap().expect("admitted")));
        }
        client.shutdown().unwrap();
        // Post-drain submissions bounce; the reason says why.
        let refused = client
            .submit("late", &fastq_of(&reads[..4]))
            .unwrap()
            .expect_err("draining server must refuse");
        assert!(refused.contains("draining"), "wrong BUSY reason: {refused}");
        // Every job accepted before the drain still completes, correctly.
        for (i, job) in jobs {
            let outcome = client.wait_job(job).unwrap();
            let (gaf, _) = expect_done(&outcome);
            let expect =
                oracle_gaf(&input, &reads[i * 8..(i + 1) * 8], &options, &format!("d{i}"));
            assert_eq!(std::str::from_utf8(gaf).unwrap(), expect);
        }
    });
    assert!(server.ctl().stopped());
    assert_eq!(counter(&server, Ctr::ServeJobsCompleted), 3, "drain must not lose accepted jobs");
}

/// A job whose FASTQ does not parse fails alone: the submitting client
/// gets `ERR`, everyone else keeps mapping.
#[test]
fn corrupt_fastq_fails_one_job_not_the_server() {
    let input = fixture(17);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 1, 8);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options.clone(), ..ServerConfig::default() },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        match client.run_job("bad", b"this is not FASTQ\n").expect("client survives") {
            JobOutcome::Failed { message } => {
                assert!(message.contains("bad FASTQ"), "wrong error: {message}")
            }
            JobOutcome::Done { .. } => panic!("corrupt FASTQ must not map"),
        }
        // Same connection, next job: unaffected.
        let outcome = client.run_job("good", &fastq_of(&reads[..6])).expect("job ran");
        let (gaf, _) = expect_done(&outcome);
        assert_eq!(
            std::str::from_utf8(gaf).unwrap(),
            oracle_gaf(&input, &reads[..6], &options, "good")
        );
        client.shutdown().unwrap();
    });
    assert_eq!(counter(&server, Ctr::ServeJobsFailed), 1);
    assert_eq!(counter(&server, Ctr::ServeJobsCompleted), 1);
}

/// Every SUBMIT answered with `ACCEPT` is counted once, a malformed one
/// too: once the server is idle, `accepted == completed + failed`.
#[test]
fn malformed_and_good_jobs_balance_the_job_books() {
    let input = fixture(17);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options(SchedulerKind::Dynamic, 1, 8), ..ServerConfig::default() },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        let bad = client.run_job("bad", b"this is not FASTQ\n").expect("client survives");
        assert!(matches!(bad, JobOutcome::Failed { .. }), "corrupt FASTQ must fail");
        expect_done(&client.run_job("good", &fastq_of(&reads[..6])).expect("job ran"));
        let stats = client.stats().expect("STATS");
        let [accepted, completed, failed] =
            ["accepted", "completed", "failed"].map(|key| json_u64(&stats, key));
        assert_eq!((completed, failed), (1, 1), "{stats}");
        assert_eq!(accepted, completed + failed, "{stats}");
        client.shutdown().unwrap();
    });
}

/// Every leaf key of a JSON object as a dotted path, in document order.
/// Enough JSON for `STATS`: objects, numbers, booleans and plain strings.
fn key_paths(json: &str) -> Vec<String> {
    let (mut paths, mut stack, mut key) = (Vec::new(), Vec::<String>::new(), None::<String>);
    let mut rest = json;
    while let Some(c) = rest.chars().next() {
        rest = &rest[c.len_utf8()..];
        match c {
            '"' => {
                let end = rest.find('"').expect("string closes");
                let text = &rest[..end];
                rest = &rest[end + 1..];
                match rest.strip_prefix(':') {
                    Some(after) => {
                        key = Some(text.to_string());
                        rest = after;
                    }
                    None => paths.extend(key.take().map(|k| [&stack[..], &[k]].concat().join("."))),
                }
            }
            '{' => stack.extend(key.take()),
            '}' => {
                stack.pop();
            }
            ',' | ' ' | '\n' => {}
            _ => paths.extend(key.take().map(|k| [&stack[..], &[k]].concat().join("."))),
        }
    }
    paths
}

/// The `STATS` keys, in order, are a contract: the benchmark harness and
/// operators' scripts read them by name.
#[test]
fn stats_schema_is_pinned() {
    let input = fixture(3);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let server = MappingServer::new(&parent, ServerConfig::default());
    let mut expected: Vec<String> = [
        "jobs.accepted",
        "jobs.completed",
        "jobs.failed",
        "jobs.rejected_full",
        "jobs.rejected_client",
        "jobs.rejected_draining",
        "jobs.pending",
        "jobs.executing",
        "jobs.pending_high_water",
        "latency_us.count",
        "latency_us.p50",
        "latency_us.p99",
        "reads_mapped",
        "gaf_bytes",
        "proto_errors",
        "draining",
        "uptime_ms",
        "cache.private_hits",
        "cache.private_misses",
        "cache.private_hit_rate",
        "extend.anchors_walked",
        "extend.anchors_merged",
        "extend.anchors_skipped",
        "extend.extend_first_reads",
    ]
    .map(String::from)
    .to_vec();
    for stage in ["parse", "seeding", "clustering", "extension", "rescoring", "pairing", "render"] {
        expected.push(format!("stages.{stage}.ns"));
        expected.push(format!("stages.{stage}.count"));
    }
    assert_eq!(key_paths(&server.stats_json()), expected);
    assert_eq!(key_paths(r#"{"a":{"b":1,"c":"x"},"d":false}"#), ["a.b", "a.c", "d"]);
}

/// Satellite 3's serving half: a worker panic inside a served job fails
/// exactly that job; the pool, the executor, and the resident state all
/// survive, and an identical retry maps correctly.
#[test]
fn worker_panic_fails_job_pool_survives() {
    let input = fixture(19);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2, 4);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            max_pending: 8,
            max_active: 2,
            per_client_cap: 4,
            // Job 1, read 2: the first chunk of the first job panics in a
            // pool worker mid-mapping.
            fault_job: Some((1, 2)),
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        let fastq = fastq_of(&reads[..8]);
        match client.run_job("doomed", &fastq).expect("client survives the fault") {
            JobOutcome::Failed { message } => {
                assert!(message.contains("mapping fault"), "wrong error: {message}");
                assert!(message.contains("injected fault"), "wrong error: {message}");
            }
            JobOutcome::Done { .. } => panic!("faulted job must fail"),
        }
        // Identical payload, next job id: runs on the SAME pool the panic
        // unwound through, and must match the oracle exactly.
        let outcome = client.run_job("retry", &fastq).expect("retry ran");
        let (gaf, _) = expect_done(&outcome);
        assert_eq!(
            std::str::from_utf8(gaf).unwrap(),
            oracle_gaf(&input, &reads[..8], &options, "retry")
        );
        client.shutdown().unwrap();
    });
    assert_eq!(counter(&server, Ctr::ServeJobsFailed), 1);
    assert_eq!(counter(&server, Ctr::ServeJobsCompleted), 1);
}

/// The fault path frame by frame. Workers render GAF while they map and
/// the executor stitches it into the frame it is building, so a fault in a
/// job's *second* chunk must leave on the wire exactly: the first chunk's
/// `GAF`, then `ERR` — no byte of the faulted chunk. A job interleaved on
/// the same pool at that moment completes untouched, and the next job maps
/// on the worker buffers the fault unwound past exactly as a fresh server
/// would.
#[test]
fn worker_panic_leaks_no_partial_gaf_and_spares_the_interleaved_job() {
    use mg_server::{Frame, FrameDecoder, ReadOutcome};

    let input = fixture(19);
    let reads = raw_reads(&input);
    // Fifty chunks of bystander against the doomed job's two: still
    // running when the fault strikes.
    let long: Vec<Vec<u8>> = reads.iter().cycle().take(400).cloned().collect();
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2, 4);
    let config = |fault_job| ServerConfig {
        options: options.clone(),
        max_pending: 8,
        max_active: 2,
        per_client_cap: 4,
        fault_job,
        write_timeout: std::time::Duration::from_secs(30),
    };
    let submit = |conn: &Conn, name: &str, reads: &[Vec<u8>]| {
        let mut w = conn.writer.lock().unwrap();
        Frame::Submit { name: name.to_string(), fastq: fastq_of(reads) }
            .write_to(&mut **w)
            .expect("submit");
    };
    /// Every frame up to and including job `job`'s `DONE`, in wire order.
    fn frames_until_done(conn: &mut Conn, decoder: &mut FrameDecoder, job: u64) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            while let Some(frame) = decoder.next_frame().expect("server frames parse") {
                let last = matches!(frame, Frame::Done { job: j, .. } if j == job);
                frames.push(frame);
                if last {
                    return frames;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server hung; got {frames:?}");
            match conn.reader.read_timed(&mut buf, std::time::Duration::from_millis(100)) {
                Ok(ReadOutcome::Data(n)) => decoder.push(&buf[..n]),
                Ok(ReadOutcome::TimedOut) => {}
                other => panic!("connection lost: {other:?}"),
            }
        }
    }
    let gaf_of = |frames: &[Frame], job: u64| -> Vec<u8> {
        let mut gaf = Vec::new();
        for frame in frames {
            if let Frame::Gaf { job: j, data } = frame {
                if *j == job {
                    gaf.extend_from_slice(data);
                }
            }
        }
        gaf
    };

    // Job 2, read 10: the second chunk of the second job submitted.
    let server = MappingServer::new(&parent, config(Some((2, 10))));
    let (tx, rx) = channel::<Conn>();
    let retried = std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        // One connection, so both jobs' frames arrive as one ordered
        // stream and "at the time" can be read off it.
        let (server_side, mut conn) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut decoder = FrameDecoder::new();
        submit(&conn, "bystander", &long);
        submit(&conn, "doomed", &reads[..24]);
        let frames = frames_until_done(&mut conn, &mut decoder, 1);

        let doomed: Vec<&Frame> = frames
            .iter()
            .filter(|f| {
                matches!(f, Frame::Accept { job: 2 } | Frame::Gaf { job: 2, .. }
                    | Frame::Done { job: 2, .. } | Frame::Error { job: 2, .. })
            })
            .collect();
        match &doomed[..] {
            [Frame::Accept { .. }, Frame::Gaf { data, .. }, Frame::Error { message, .. }] => {
                assert_eq!(
                    std::str::from_utf8(data).unwrap(),
                    oracle_gaf(&input, &reads[..8], &options, "doomed"),
                    "the chunk before the fault arrives whole, and nothing after it"
                );
                assert!(message.contains("injected fault"), "wrong error: {message}");
            }
            other => panic!("faulted job's stream must be ACCEPT, GAF, ERR; got {other:?}"),
        }
        // The stream ends with the bystander's DONE, so the ERR came before
        // it: the bystander was mid-job on the same pool when the fault
        // struck.
        assert!(matches!(frames.last(), Some(Frame::Done { job: 1, .. })));
        assert_eq!(
            String::from_utf8(gaf_of(&frames, 1)).unwrap(),
            oracle_gaf(&input, &long, &options, "bystander"),
            "the interleaved job diverged from the oracle"
        );

        // Same payload as the doomed job, on the executor and worker
        // buffers the fault unwound past.
        submit(&conn, "retry", &reads[..24]);
        let frames = frames_until_done(&mut conn, &mut decoder, 3);
        server.ctl().request_shutdown();
        let summary = match frames.last() {
            Some(Frame::Done { summary, .. }) => *summary,
            _ => unreachable!("frames_until_done ends on DONE"),
        };
        (gaf_of(&frames, 3), summary)
    });
    assert_eq!(counter(&server, Ctr::ServeJobsFailed), 1);
    assert_eq!(counter(&server, Ctr::ServeJobsCompleted), 2);

    // The same job on a server that never faulted.
    let fresh_parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let fresh = MappingServer::new(&fresh_parent, config(None));
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| fresh.serve(rx));
        let _guard = ShutdownGuard(fresh.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        let outcome = client.run_job("retry", &fastq_of(&reads[..24])).expect("fresh job ran");
        let (gaf, summary) = expect_done(&outcome);
        assert!(!gaf.is_empty());
        assert_eq!(retried.0, gaf, "job after the fault diverged from a fresh server");
        assert_eq!(
            (retried.1.reads, retried.1.chunks, retried.1.gaf_bytes),
            (summary.reads, summary.chunks, summary.gaf_bytes)
        );
        client.shutdown().unwrap();
    });
}

/// Satellite 4: per-job aggregation resets between jobs on the warm pool.
/// Two identical back-to-back jobs must report identical per-job figures
/// (reads, chunks, GAF bytes) and identical GAF — not cumulative ones —
/// and the server-wide counters must be exactly the two-job sums.
#[test]
fn identical_jobs_back_to_back_report_identical_summaries() {
    let input = fixture(23);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = options(SchedulerKind::Dynamic, 2, 2);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            ..ServerConfig::default()
        },
    );
    let (tx, rx) = channel::<Conn>();
    let mut per_job = None;
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        let fastq = fastq_of(&reads[..10]);
        let first = client.run_job("same", &fastq).expect("first job");
        let second = client.run_job("same", &fastq).expect("second job");
        let (gaf1, s1) = expect_done(&first);
        let (gaf2, s2) = expect_done(&second);
        assert_eq!(gaf1, gaf2, "identical jobs must stream identical GAF");
        assert_eq!(s1.reads, s2.reads);
        assert_eq!(s1.chunks, s2.chunks);
        assert_eq!(
            s1.gaf_bytes, s2.gaf_bytes,
            "job 2's summary must restart from zero on the warm pool, not accumulate"
        );
        assert_eq!(s1.reads, 10);
        assert_eq!(s1.chunks, 3);
        let stats = client.stats().expect("STATS");
        assert!(stats.contains("\"reads_mapped\":20"), "{stats}");
        assert!(stats.contains(&format!("\"gaf_bytes\":{}", 2 * s1.gaf_bytes)), "{stats}");
        per_job = Some(s1);
        client.shutdown().unwrap();
    });
    // The obs registry agrees with the wire summaries: server-wide totals
    // are exactly the two-job sums.
    let s1 = per_job.expect("summaries captured");
    let report = server.metrics().report();
    assert_eq!(report.counter(Ctr::ServeJobsCompleted), 2);
    assert_eq!(report.counter(Ctr::ServeGafBytes), 2 * s1.gaf_bytes);
    assert_eq!(report.hist_count(Hist::ServeJobReads), 2);
    assert_eq!(report.hist_sum(Hist::ServeJobReads), 2 * s1.reads);
    assert_eq!(report.hist_count(Hist::ServeJobLatencyUs), 2);
}

/// Unparseable bytes on a connection drop that connection only; the
/// server keeps accepting new ones.
#[test]
fn garbage_bytes_drop_the_connection_not_the_server() {
    let input = fixture(29);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let server = MappingServer::new(
        &parent,
        ServerConfig { options: options(SchedulerKind::Dynamic, 1, 8), ..ServerConfig::default() },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut poisoner = BlockingClient::new(client_side);
        poisoner.send_raw(&[0xff; 16]).expect("raw write");
        // The server abandons the stream: the client sees it close.
        assert!(poisoner.ping().is_err(), "poisoned connection must be dropped");
        // A fresh connection is unaffected.
        let (server_side, client_side) = Conn::pair();
        tx.send(server_side).unwrap();
        let mut client = BlockingClient::new(client_side);
        client.ping().expect("server still alive");
        client.shutdown().unwrap();
    });
    assert_eq!(counter(&server, Ctr::ServeProtoErrors), 1);
}

/// Paired workflow over the server: chunks clamp to pair boundaries, and
/// the streamed GAF (rescue, pair check and all) matches the one-shot
/// oracle.
#[test]
fn paired_workflow_matches_oracle() {
    let input = paired_fixture(31);
    let reads = raw_reads(&input);
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    // One thread × batch 5: odd on purpose, the chunk must clamp to even so
    // pairs stay whole within a chunk.
    let options = options(SchedulerKind::Dynamic, 1, 5);
    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            max_pending: 8,
            max_active: 2,
            per_client_cap: 2,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );
    let (tx, rx) = channel::<Conn>();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(rx));
        let _guard = ShutdownGuard(server.ctl());
        let plans: Vec<ClientPlan> = (0..2)
            .map(|c| ClientPlan {
                label: format!("p{c}"),
                jobs: vec![fastq_of(&reads[c * 12..(c + 1) * 12])],
                profile: Profile::Steady,
                seed: c as u64,
            })
            .collect();
        let reports = drive_clients(&tx, &plans);
        for (c, report) in reports.into_iter().enumerate() {
            let report = report.expect("client ran");
            let (name, outcome) = &report.outcomes[0];
            let (gaf, summary) = expect_done(outcome);
            let expect = oracle_gaf(&input, &reads[c * 12..(c + 1) * 12], &options, name);
            assert_eq!(
                std::str::from_utf8(gaf).unwrap(),
                expect,
                "paired client {c} diverged from the oracle"
            );
            assert_eq!(summary.chunks, 3, "12 reads at even-clamped chunk 4 is 3 chunks");
        }
        server.ctl().request_shutdown();
    });
    assert_eq!(counter(&server, Ctr::ServeJobsCompleted), 2);
}
