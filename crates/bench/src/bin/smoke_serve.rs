//! Serving smoke bench: the multi-tenant mapping server under a real
//! concurrent-client load, over real TCP loopback.
//!
//! Brings up a [`MappingServer`] holding the resident state (pangenome,
//! minimizer index, distance index, worker pool), then fires 8
//! concurrent clients (half steady, half bursty) at it, each submitting
//! several FASTQ jobs. For every completed job the streamed GAF is
//! byte-compared against the sequential one-shot oracle ([`Parent::run`]
//! on a server-untouched parent instance). Reports client-observed and
//! server-side latency quantiles plus admission counters, and
//! writes `BENCH_SERVE.json` under `MG_OUT` for the verify gate.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use mg_bench::{parent_reads, Ctx};
use mg_parent::{run_to_gaf, Parent, ParentOptions};
use mg_server::{
    run_client, BlockingClient, ClientPlan, Conn, JobOutcome, MappingServer, Profile,
    ServerConfig,
};
use mg_workload::{write_fastq, FastqRecord, InputSetSpec};

const CLIENTS: usize = 8;
const JOBS_PER_CLIENT: usize = 3;

fn fastq_of(reads: &[Vec<u8>]) -> Vec<u8> {
    let records: Vec<FastqRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, bases)| FastqRecord::with_uniform_quality(format!("r{i}"), bases.clone(), b'I'))
        .collect();
    let mut out = Vec::new();
    write_fastq(&mut out, &records).expect("in-memory FASTQ write");
    out
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let ctx = Ctx::from_env();
    let input = ctx.generate(&InputSetSpec::b_yeast());
    let reads = parent_reads(&input);
    let n = reads.len();
    println!("input           : {} ({n} reads, scale {})", input.spec.name, ctx.scale);

    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let mut options = ParentOptions::default();
    options.mapping.threads = 4;
    options.mapping.batch_size = 64;

    // Each job maps a deterministic slice; slices overlap across clients
    // so the caches see repeated traffic, like a real
    // multi-tenant window over one pangenome.
    let job_len = (n / 8).clamp(16, 2048).min(n);
    let span = (n - job_len).max(1);
    let slice = move |c: usize, j: usize| {
        let lo = ((c * 37 + j * 113) * 16) % span;
        lo..lo + job_len
    };

    let server = MappingServer::new(
        &parent,
        ServerConfig {
            options: options.clone(),
            chunk_reads: 0, // threads x batch
            max_pending: CLIENTS * JOBS_PER_CLIENT,
            max_active: 4,
            per_client_cap: JOBS_PER_CLIENT,
            fault_job: None,
            write_timeout: std::time::Duration::from_secs(30),
        },
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    println!("serving         : {addr} ({CLIENTS} clients x {JOBS_PER_CLIENT} jobs of {job_len} reads)");

    let wall = Instant::now();
    let mut reports = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let plan = ClientPlan {
                label: format!("c{c}"),
                jobs: (0..JOBS_PER_CLIENT).map(|j| fastq_of(&reads[slice(c, j)])).collect(),
                profile: if c % 2 == 0 { Profile::Steady } else { Profile::Bursty },
                seed: ctx.seed ^ c as u64,
            };
            handles.push(scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let conn = Conn::tcp(stream).expect("conn");
                run_client(conn, &plan).expect("client failed")
            }));
        }
        for handle in handles {
            reports.push(handle.join().expect("client thread panicked"));
        }
        // One more connection for the STATS snapshot, then drain.
        let stream = TcpStream::connect(addr).expect("connect for stats");
        let mut admin = BlockingClient::new(Conn::tcp(stream).expect("conn"));
        println!("stats           : {}", admin.stats().expect("STATS"));
        admin.shutdown().expect("SHUTDOWN");
    });
    let wall = wall.elapsed();

    // Oracle pass: every job's GAF against a sequential one-shot run on a
    // parent instance the server never touched.
    let oracle_parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let mut oracle_match = true;
    let mut latencies: Vec<Duration> = Vec::new();
    let mut completed = 0usize;
    for (c, report) in reports.iter().enumerate() {
        assert_eq!(report.rejected, 0, "client {c} was rejected under an uncontended config");
        latencies.extend_from_slice(&report.latencies);
        for (j, (name, outcome)) in report.outcomes.iter().enumerate() {
            match outcome {
                JobOutcome::Done { gaf, .. } => {
                    completed += 1;
                    let expect = run_to_gaf(
                        input.gbz.graph(),
                        &oracle_parent.run(&reads[slice(c, j)], &options),
                        name,
                    );
                    if gaf != expect.as_bytes() {
                        eprintln!("MISMATCH: client {c} job {j} diverged from the oracle");
                        oracle_match = false;
                    }
                }
                JobOutcome::Failed { message } => {
                    eprintln!("FAILED: client {c} job {j}: {message}");
                    oracle_match = false;
                }
            }
        }
    }

    latencies.sort();
    let p50 = quantile(&latencies, 0.50);
    let p99 = quantile(&latencies, 0.99);
    let total_jobs = CLIENTS * JOBS_PER_CLIENT;
    let total_reads = total_jobs * job_len;
    let ctl = server.ctl();
    println!(
        "completed       : {completed}/{total_jobs} jobs, {total_reads} reads in {:.2}s ({:.0} reads/s)",
        wall.as_secs_f64(),
        total_reads as f64 / wall.as_secs_f64()
    );
    println!(
        "client latency  : p50 {:.1} ms, p99 {:.1} ms ({} samples)",
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        latencies.len()
    );
    println!(
        "server latency  : p50 {} us, p99 {} us",
        ctl.latency_quantile_us(0.50),
        ctl.latency_quantile_us(0.99)
    );
    println!("oracle          : {}", if oracle_match { "byte-identical" } else { "DIVERGED" });

    let json = format!(
        concat!(
            "{{\n",
            "  \"input\": \"{}\",\n",
            "  \"clients\": {},\n",
            "  \"jobs_per_client\": {},\n",
            "  \"reads_per_job\": {},\n",
            "  \"jobs_completed\": {},\n",
            "  \"jobs_expected\": {},\n",
            "  \"oracle_match\": {},\n",
            "  \"wall_secs\": {:.3},\n",
            "  \"reads_per_sec\": {:.1},\n",
            "  \"client_p50_ms\": {:.3},\n",
            "  \"client_p99_ms\": {:.3},\n",
            "  \"server_p50_us\": {},\n",
            "  \"server_p99_us\": {}\n",
            "}}\n"
        ),
        input.spec.name,
        CLIENTS,
        JOBS_PER_CLIENT,
        job_len,
        completed,
        total_jobs,
        oracle_match,
        wall.as_secs_f64(),
        total_reads as f64 / wall.as_secs_f64(),
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        ctl.latency_quantile_us(0.50),
        ctl.latency_quantile_us(0.99),
    );
    std::fs::create_dir_all(&ctx.out_dir).expect("create results dir");
    let path = ctx.out_dir.join("BENCH_SERVE.json");
    std::fs::write(&path, json).expect("write BENCH_SERVE.json");
    println!("wrote {}", path.display());
}
