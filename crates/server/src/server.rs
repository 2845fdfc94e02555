//! The long-lived mapping server.
//!
//! One [`MappingServer`] owns the expensive state — the pangenome, the
//! minimizer index, the distance index, the mapper's persistent worker
//! pool and its warm caches — and multiplexes mapping jobs from many
//! concurrent clients onto it. Connections are cheap threads that parse
//! frames and talk to the admission queue; all mapping happens on one
//! executor thread that interleaves admitted jobs *chunk by chunk* on the
//! shared pool, so a large job cannot starve a small one and the pool's
//! per-thread caches stay warm across job boundaries.
//!
//! Determinism: GAF output for a job depends only on its own reads.
//! Chunks carry global read ids (`base_id`), per-read work is
//! deterministic and cache-independent, and paired chunks start on pair
//! boundaries — so however jobs interleave, each job's concatenated GAF is
//! byte-identical to a one-shot [`Parent::run`] over the same reads. The
//! harness tests hold the server to exactly that oracle.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mg_obs::{Ctr, Gauge, Hist, Metrics, Stage};
use mg_parent::{Parent, ParentOptions};
use mg_sched::AdmissionQueue;
use mg_workload::read_fastq_bases;

use crate::protocol::{Frame, FrameDecoder, JobSummary};
use crate::transport::{Conn, ReadOutcome};

/// How a [`MappingServer`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Mapping configuration shared by every job (threads, scheduler,
    /// cache capacity, post-processing). A job is mapped in chunks of
    /// [`Parent::chunk_reads`] reads, as a stream is.
    pub options: ParentOptions,
    /// Admission: jobs the pending queue holds before `BUSY`.
    pub max_pending: usize,
    /// Jobs the executor interleaves at once; admitted jobs beyond this
    /// wait in the pending queue.
    pub max_active: usize,
    /// Admission: per-client in-flight (pending + executing) cap.
    pub per_client_cap: usize,
    /// Fault injection for the resilience tests: `(job id, global read
    /// id)` — mapping that read of that job panics inside a pool worker.
    pub fault_job: Option<(u64, u64)>,
    /// Bound on how long one outbound frame may stall on a client that
    /// stops reading before the connection is dropped. Zero disables the
    /// bound (writes may block indefinitely).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            options: ParentOptions::default(),
            max_pending: 16,
            max_active: 4,
            per_client_cap: 4,
            fault_job: None,
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// One admitted mapping job.
struct Job {
    id: u64,
    client: u64,
    name: String,
    reads: Vec<Vec<u8>>,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    submitted: Instant,
}

/// A job the executor is actively interleaving.
struct ActiveJob {
    job: Job,
    next_read: usize,
    chunks: u64,
    gaf_bytes: u64,
    queue_wait_us: u64,
    started: bool,
}

impl ActiveJob {
    fn new(job: Job) -> ActiveJob {
        ActiveJob { job, next_read: 0, chunks: 0, gaf_bytes: 0, queue_wait_us: 0, started: false }
    }
}

/// Shared control block: the admission queue, which keeps the admission
/// figures of `STATS`, the executor's stopped flag and the id counters.
/// Job outcomes are counted in the server's metrics registry
/// ([`MappingServer::metrics`]).
pub struct ServerCtl {
    queue: AdmissionQueue<Job>,
    stopped: AtomicBool,
    next_job: AtomicU64,
    next_client: AtomicU64,
    started_at: Instant,
}

impl ServerCtl {
    fn new(config: &ServerConfig) -> ServerCtl {
        ServerCtl {
            queue: AdmissionQueue::new(config.max_pending, config.per_client_cap),
            stopped: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            started_at: Instant::now(),
        }
    }

    /// Flips the server into drain mode: in-flight and pending jobs
    /// finish, new submissions get `BUSY (draining)`, and once the queue
    /// is empty the executor exits.
    pub fn request_shutdown(&self) {
        self.queue.drain();
    }

    /// Whether the executor has exited (drain complete).
    pub fn stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }
}

/// Sends already-encoded frames as one write, swallowing I/O errors: a
/// client that hung up mid-job must not take the executor down with it.
fn send_bytes(writer: &Arc<Mutex<Box<dyn Write + Send>>>, frames: &[u8]) {
    let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = w.write_all(frames).and_then(|()| w.flush());
}

/// Sends one frame; see [`send_bytes`].
fn send(writer: &Arc<Mutex<Box<dyn Write + Send>>>, frame: &Frame) {
    send_bytes(writer, &frame.encode());
}

/// The long-lived multi-tenant mapping server.
pub struct MappingServer<'a> {
    parent: &'a Parent<'a>,
    config: ServerConfig,
    ctl: Arc<ServerCtl>,
    metrics: Metrics,
}

impl<'a> MappingServer<'a> {
    /// Builds a server over an already-constructed parent (index and
    /// distance index built, pool cold).
    pub fn new(parent: &'a Parent<'a>, config: ServerConfig) -> MappingServer<'a> {
        let ctl = Arc::new(ServerCtl::new(&config));
        MappingServer { parent, config, ctl, metrics: Metrics::new() }
    }

    /// The shared control block (shutdown, admission, lifecycle).
    pub fn ctl(&self) -> &Arc<ServerCtl> {
        &self.ctl
    }

    /// The server's metrics registry: job outcomes, proto errors, and
    /// everything the mapping records.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The `STATS` payload. Admission figures come from the admission
    /// queue; job outcomes, latency quantiles, cache hit rates, the
    /// extension kernel's anchor accounting (and how many reads its first
    /// walk settled without clustering) and the per-stage time and span
    /// counts come from the metrics registry.
    pub fn stats_json(&self) -> String {
        let a = self.ctl.queue.stats();
        let rep = self.metrics.report();
        let hits = rep.counter(Ctr::CacheHits);
        let misses = rep.counter(Ctr::CacheMisses);
        let hit_rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
        // Where the pool's time went, in the stage vocabulary of the metrics
        // export and the benchmark ledger.
        let stages: Vec<String> = Stage::ALL
            .iter()
            .map(|&st| {
                format!(
                    "\"{}\":{{\"ns\":{},\"count\":{}}}",
                    st.name(),
                    rep.stage_ns(st),
                    rep.stage_count(st)
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"jobs\":{{\"accepted\":{},\"completed\":{},\"failed\":{},",
                "\"rejected_full\":{},\"rejected_client\":{},\"rejected_draining\":{},",
                "\"pending\":{},\"executing\":{},\"pending_high_water\":{}}},",
                "\"latency_us\":{{\"count\":{},\"p50\":{},\"p99\":{}}},",
                "\"reads_mapped\":{},\"gaf_bytes\":{},",
                "\"proto_errors\":{},\"draining\":{},\"uptime_ms\":{},",
                "\"cache\":{{\"private_hits\":{},\"private_misses\":{},",
                "\"private_hit_rate\":{:.4}}},",
                "\"extend\":{{\"anchors_walked\":{},\"anchors_merged\":{},",
                "\"anchors_skipped\":{},\"extend_first_reads\":{}}},",
                "\"stages\":{{{}}}}}"
            ),
            a.accepted,
            rep.counter(Ctr::ServeJobsCompleted),
            rep.counter(Ctr::ServeJobsFailed),
            a.rejected_full,
            a.rejected_client,
            a.rejected_draining,
            a.pending,
            a.executing,
            a.pending_high_water,
            rep.hist_count(Hist::ServeJobLatencyUs),
            rep.hist_quantile(Hist::ServeJobLatencyUs, 0.50),
            rep.hist_quantile(Hist::ServeJobLatencyUs, 0.99),
            rep.hist_sum(Hist::ServeJobReads),
            rep.counter(Ctr::ServeGafBytes),
            rep.counter(Ctr::ServeProtoErrors),
            self.ctl.queue.is_draining(),
            self.ctl.started_at.elapsed().as_millis(),
            hits,
            misses,
            hit_rate,
            rep.counter(Ctr::ExtendAnchorsWalked),
            rep.counter(Ctr::ExtendAnchorsMerged),
            rep.counter(Ctr::ExtendAnchorsSkipped),
            rep.counter(Ctr::ExtendFirstReads),
            stages.join(","),
        )
    }

    /// Serves connections from `conns` until a client (or
    /// [`ServerCtl::request_shutdown`]) drains the server and the last
    /// admitted job completes. Blocks the calling thread.
    pub fn serve(&self, conns: Receiver<Conn>) {
        std::thread::scope(|scope| {
            scope.spawn(|| self.executor());
            loop {
                if self.ctl.stopped() {
                    break;
                }
                match conns.recv_timeout(Duration::from_millis(50)) {
                    Ok(conn) => {
                        scope.spawn(move || self.handle_conn(conn));
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        // No more connections will arrive; wait for the
                        // executor to drain.
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        });
    }

    /// Serves TCP connections on `listener` until drained. The bench and
    /// the CLI `serve` subcommand sit on this.
    pub fn serve_tcp(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let (tx, rx) = std::sync::mpsc::channel();
        let write_timeout = self.config.write_timeout;
        std::thread::scope(|scope| {
            let ctl = Arc::clone(&self.ctl);
            scope.spawn(move || {
                while !ctl.stopped() {
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            let _ = stream.set_nonblocking(false);
                            if let Ok(conn) = Conn::tcp_with_timeout(stream, write_timeout) {
                                if tx.send(conn).is_err() {
                                    break;
                                }
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            });
            self.serve(rx);
        });
        Ok(())
    }

    /// The single mapping executor: admits jobs up to `max_active` and
    /// round-robins one chunk per job per turn on the shared pool.
    fn executor(&self) {
        let ctl = &*self.ctl;
        let mut active: VecDeque<ActiveJob> = VecDeque::new();
        // Every step's outbound frames are built here, in place; it grows
        // to one chunk's GAF once and is reused for the life of the server.
        let mut out: Vec<u8> = Vec::new();
        loop {
            while active.len() < self.config.max_active.max(1) {
                match ctl.queue.try_pop() {
                    Some((_client, job)) => active.push_back(ActiveJob::new(job)),
                    None => break,
                }
            }
            if active.is_empty() {
                if ctl.queue.drained() {
                    break;
                }
                match ctl.queue.pop_wait(Duration::from_millis(50)) {
                    Some((_client, job)) => active.push_back(ActiveJob::new(job)),
                    None => continue,
                }
            }
            self.metrics.gauge_max(Gauge::ServeActiveMax, active.len() as u64);
            let mut aj = active.pop_front().expect("active job present");
            if self.step(&mut aj, &mut out) {
                active.push_back(aj);
            }
        }
        ctl.stopped.store(true, Ordering::SeqCst);
    }

    /// Maps one chunk of one job. Returns `true` while the job has reads
    /// left; emits `DONE`/`ERR` and releases admission otherwise.
    ///
    /// Write contract: whatever the step has to say — the chunk's `GAF`
    /// frame, and `DONE` after a job's last chunk — is built in `out` and
    /// leaves as exactly one write, so no small trailing write exists for
    /// the transport to delay.
    fn step(&self, aj: &mut ActiveJob, out: &mut Vec<u8>) -> bool {
        let ctl = &*self.ctl;
        out.clear();
        if !aj.started {
            aj.started = true;
            aj.queue_wait_us = aj.job.submitted.elapsed().as_micros() as u64;
            self.metrics.observe(Hist::ServeQueueWaitUs, aj.queue_wait_us);
        }
        let n = aj.job.reads.len();
        let lo = aj.next_read;
        let hi = (lo + self.parent.chunk_reads(&self.config.options)).min(n);
        if lo < hi {
            // Only the job a fault is aimed at maps with options of its own.
            let faulted = match self.config.fault_job {
                Some((job, read)) if job == aj.job.id => Some(ParentOptions {
                    fault_read: Some(read),
                    ..self.config.options.clone()
                }),
                _ => None,
            };
            let options = faulted.as_ref().unwrap_or(&self.config.options);
            let reads = &aj.job.reads[lo..hi];
            // The workers render while they map, and what they rendered
            // is stitched straight into the frame being built.
            let rendered = catch_unwind(AssertUnwindSafe(|| {
                Frame::encode_gaf_with(out, aj.job.id, |buf| {
                    self.parent.map_chunk_gaf(
                        reads,
                        lo as u64,
                        &aj.job.name,
                        options,
                        &self.metrics,
                        buf,
                    )
                })
            }));
            match rendered {
                Ok(gaf_len) => {
                    if gaf_len == 0 {
                        // A chunk that placed no read sends no GAF frame.
                        out.clear();
                    }
                    aj.chunks += 1;
                    aj.gaf_bytes += gaf_len as u64;
                    aj.next_read = hi;
                }
                Err(panic) => {
                    // The fault struck with a GAF frame half built: none of
                    // it may reach the client ahead of the ERR.
                    out.clear();
                    let what = panic_message(&*panic);
                    self.metrics.add(Ctr::ServeJobsFailed, 1);
                    send(
                        &aj.job.writer,
                        &Frame::Error {
                            job: aj.job.id,
                            message: format!("mapping fault: {what}"),
                        },
                    );
                    ctl.queue.finish(aj.job.client);
                    return false;
                }
            }
        }
        let done = aj.next_read >= n;
        if done {
            let latency_us = aj.job.submitted.elapsed().as_micros() as u64;
            self.metrics.add(Ctr::ServeJobsCompleted, 1);
            self.metrics.add(Ctr::ServeGafBytes, aj.gaf_bytes);
            self.metrics.observe(Hist::ServeJobLatencyUs, latency_us);
            self.metrics.observe(Hist::ServeJobReads, n as u64);
            Frame::Done {
                job: aj.job.id,
                summary: JobSummary {
                    reads: n as u64,
                    chunks: aj.chunks,
                    gaf_bytes: aj.gaf_bytes,
                    queue_wait_us: aj.queue_wait_us,
                    latency_us,
                },
            }
            .encode_into(out);
        }
        if !out.is_empty() {
            send_bytes(&aj.job.writer, out);
        }
        if done {
            ctl.queue.finish(aj.job.client);
        }
        !done
    }

    /// One connection: parse frames, answer control frames inline, hand
    /// submissions to admission.
    fn handle_conn(&self, conn: Conn) {
        let ctl = &*self.ctl;
        let client = ctl.next_client.fetch_add(1, Ordering::SeqCst) + 1;
        let Conn { mut reader, writer } = conn;
        let mut decoder = FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            match reader.read_timed(&mut buf, Duration::from_millis(100)) {
                Ok(ReadOutcome::Data(n)) => {
                    decoder.push(&buf[..n]);
                    loop {
                        match decoder.next_frame() {
                            Ok(Some(frame)) => self.dispatch(frame, client, &writer),
                            Ok(None) => break,
                            Err(_) => {
                                // Framing is lost; nothing sensible can be
                                // sent on a stream we can no longer parse.
                                self.metrics.add(Ctr::ServeProtoErrors, 1);
                                return;
                            }
                        }
                    }
                }
                Ok(ReadOutcome::TimedOut) => {
                    if ctl.stopped() {
                        return;
                    }
                }
                Ok(ReadOutcome::Eof) | Err(_) => return,
            }
        }
    }

    fn dispatch(&self, frame: Frame, client: u64, writer: &Arc<Mutex<Box<dyn Write + Send>>>) {
        let ctl = &*self.ctl;
        match frame {
            Frame::Ping => send(writer, &Frame::Pong),
            Frame::Stats => send(writer, &Frame::StatsReply { json: self.stats_json() }),
            Frame::Shutdown => ctl.request_shutdown(),
            Frame::Submit { name, fastq } => {
                let job_id = ctl.next_job.fetch_add(1, Ordering::SeqCst) + 1;
                match read_fastq_bases(&fastq[..]) {
                    Err(e) => {
                        // The job is born failed: acknowledge it so the
                        // client can correlate, then report the parse
                        // error. It is counted as accepted and failed but
                        // never queued, so other clients' jobs are
                        // unaffected.
                        ctl.queue.admit_failed();
                        self.metrics.add(Ctr::ServeJobsFailed, 1);
                        let mut verdict = Frame::Accept { job: job_id }.encode();
                        Frame::Error { job: job_id, message: format!("bad FASTQ: {e}") }
                            .encode_into(&mut verdict);
                        send_bytes(writer, &verdict);
                    }
                    Ok(reads) => {
                        let job = Job {
                            id: job_id,
                            client,
                            name,
                            reads,
                            writer: Arc::clone(writer),
                            submitted: Instant::now(),
                        };
                        // Hold the connection writer across the admission
                        // verdict so the executor's first GAF frame for
                        // this job cannot overtake our ACCEPT.
                        let mut w =
                            writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        let verdict = match ctl.queue.try_submit(client, job) {
                            Ok(()) => Frame::Accept { job: job_id },
                            Err((why, _job)) => Frame::Busy { reason: why.to_string() },
                        };
                        let _ = verdict.write_to(&mut **w);
                    }
                }
            }
            // Server-to-client frames arriving at the server are ignored:
            // tolerated (the sender is confused, not malicious) but never
            // answered.
            Frame::Pong
            | Frame::Accept { .. }
            | Frame::Busy { .. }
            | Frame::Gaf { .. }
            | Frame::Done { .. }
            | Frame::Error { .. }
            | Frame::StatsReply { .. } => {}
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}
