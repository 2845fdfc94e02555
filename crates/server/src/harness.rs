//! The concurrent-client test harness.
//!
//! This is the instrument that locks the server's behaviour down: a
//! blocking protocol client plus a synthetic multi-client driver with
//! seeded, reproducible traffic shapes. The integration tests drive the
//! server exclusively through this module, over either transport
//! ([`Conn::pair`] loopback or real TCP), and hold every job's streamed
//! GAF to the sequential one-shot oracle.

use std::io::Write;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{Frame, FrameDecoder, JobSummary, ProtoError};
use crate::transport::{Conn, ReadOutcome};

/// How long client waits spin before declaring the server hung. Generous:
/// debug-build mapping of a few hundred reads is slow.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// What finally happened to one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// `DONE` arrived; all GAF bytes are collected.
    Done {
        /// Concatenated GAF payload bytes, in stream order.
        gaf: Vec<u8>,
        /// The server's `DONE` summary.
        summary: JobSummary,
    },
    /// `ERR` arrived.
    Failed {
        /// The server's failure message.
        message: String,
    },
}

/// A synchronous protocol client over any [`Conn`].
pub struct BlockingClient {
    conn: Conn,
    decoder: FrameDecoder,
    /// Frames read while waiting for something else (e.g. a `GAF` for job
    /// 3 arriving while we wait on job 2's `DONE`).
    stash: Vec<Frame>,
}

/// Client-side errors: transport failure, protocol violation, or timeout.
#[derive(Debug)]
pub enum ClientError {
    /// The connection closed or errored.
    Transport(String),
    /// The peer sent bytes that do not parse.
    Protocol(ProtoError),
    /// No qualifying frame arrived within the client timeout.
    TimedOut(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::TimedOut(what) => write!(f, "timed out waiting for {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl BlockingClient {
    /// Wraps a connection.
    pub fn new(conn: Conn) -> BlockingClient {
        BlockingClient { conn, decoder: FrameDecoder::new(), stash: Vec::new() }
    }

    fn write_frame(&mut self, frame: &Frame) -> Result<(), ClientError> {
        let mut w =
            self.conn.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        frame.write_to(&mut **w).map_err(|e| ClientError::Transport(e.to_string()))
    }

    /// Pulls the next frame matching `want`, stashing everything else.
    fn wait_for(
        &mut self,
        what: &'static str,
        mut want: impl FnMut(&Frame) -> bool,
    ) -> Result<Frame, ClientError> {
        if let Some(i) = self.stash.iter().position(&mut want) {
            return Ok(self.stash.remove(i));
        }
        let deadline = Instant::now() + CLIENT_TIMEOUT;
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            while let Some(frame) =
                self.decoder.next_frame().map_err(ClientError::Protocol)?
            {
                if want(&frame) {
                    return Ok(frame);
                }
                self.stash.push(frame);
            }
            if Instant::now() >= deadline {
                return Err(ClientError::TimedOut(what));
            }
            match self
                .conn
                .reader
                .read_timed(&mut buf, Duration::from_millis(100))
                .map_err(|e| ClientError::Transport(e.to_string()))?
            {
                ReadOutcome::Data(n) => self.decoder.push(&buf[..n]),
                ReadOutcome::TimedOut => {}
                ReadOutcome::Eof => {
                    return Err(ClientError::Transport("connection closed".into()))
                }
            }
        }
    }

    /// `PING` → waits for `PONG`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.write_frame(&Frame::Ping)?;
        self.wait_for("PONG", |f| matches!(f, Frame::Pong)).map(|_| ())
    }

    /// `STATS` → the server's JSON snapshot.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.write_frame(&Frame::Stats)?;
        match self.wait_for("STATS_OK", |f| matches!(f, Frame::StatsReply { .. }))? {
            Frame::StatsReply { json } => Ok(json),
            _ => unreachable!(),
        }
    }

    /// Asks the server to drain and exit. Fire-and-forget.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.write_frame(&Frame::Shutdown)
    }

    /// Submits one job; returns `Ok(job_id)` on `ACCEPT`, `Err(reason)`
    /// inside `Ok` on `BUSY`.
    #[allow(clippy::result_large_err)]
    pub fn submit(
        &mut self,
        name: &str,
        fastq: &[u8],
    ) -> Result<Result<u64, String>, ClientError> {
        self.write_frame(&Frame::Submit { name: name.to_string(), fastq: fastq.to_vec() })?;
        let verdict = self.wait_for("ACCEPT or BUSY", |f| {
            matches!(f, Frame::Accept { .. } | Frame::Busy { .. })
        })?;
        match verdict {
            Frame::Accept { job } => Ok(Ok(job)),
            Frame::Busy { reason } => Ok(Err(reason)),
            _ => unreachable!(),
        }
    }

    /// Collects job `job` to completion: concatenates its `GAF` frames
    /// until `DONE` or `ERR`.
    pub fn wait_job(&mut self, job: u64) -> Result<JobOutcome, ClientError> {
        let mut gaf = Vec::new();
        loop {
            let frame = self.wait_for("GAF, DONE, or ERR", |f| match f {
                Frame::Gaf { job: j, .. }
                | Frame::Done { job: j, .. }
                | Frame::Error { job: j, .. } => *j == job,
                _ => false,
            })?;
            match frame {
                Frame::Gaf { data, .. } => gaf.extend_from_slice(&data),
                Frame::Done { summary, .. } => return Ok(JobOutcome::Done { gaf, summary }),
                Frame::Error { message, .. } => return Ok(JobOutcome::Failed { message }),
                _ => unreachable!(),
            }
        }
    }

    /// Submits and waits in one call.
    pub fn run_job(&mut self, name: &str, fastq: &[u8]) -> Result<JobOutcome, ClientError> {
        match self.submit(name, fastq)? {
            Ok(job) => self.wait_job(job),
            Err(reason) => Ok(JobOutcome::Failed { message: format!("rejected: {reason}") }),
        }
    }

    /// Writes raw bytes straight past the frame encoder (tests use this to
    /// poison a connection with garbage).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        let mut w =
            self.conn.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        w.write_all(bytes)
            .and_then(|()| w.flush())
            .map_err(|e| ClientError::Transport(e.to_string()))
    }
}

/// Traffic shape for the synthetic driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Jobs submitted back to back with small jittered gaps.
    Steady,
    /// Jobs submitted in a burst up front, then the client waits.
    Bursty,
}

/// One synthetic client's plan: which jobs to run and how to pace them.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// Client label, used in job names (`{label}.jobN`).
    pub label: String,
    /// The FASTQ payload each job submits.
    pub jobs: Vec<Vec<u8>>,
    /// Pacing.
    pub profile: Profile,
    /// Seed for the pacing jitter.
    pub seed: u64,
}

/// What one synthetic client observed.
#[derive(Debug)]
pub struct ClientReport {
    /// Client label.
    pub label: String,
    /// Per-job `(name, outcome)`, submission order.
    pub outcomes: Vec<(String, JobOutcome)>,
    /// Client-observed submit→done latencies (successful jobs only).
    pub latencies: Vec<Duration>,
    /// Jobs rejected with `BUSY`.
    pub rejected: usize,
}

/// Runs one synthetic client over `conn` according to `plan`.
///
/// Bursty clients submit everything first (collecting whatever admission
/// lets through) and then wait for results; steady clients run jobs one at
/// a time with jittered think time. Either way each job's GAF is collected
/// with [`BlockingClient::wait_job`] and reported per job name.
pub fn run_client(conn: Conn, plan: &ClientPlan) -> Result<ClientReport, ClientError> {
    let mut client = BlockingClient::new(conn);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let mut outcomes = Vec::new();
    let mut latencies = Vec::new();
    let mut rejected = 0usize;
    match plan.profile {
        Profile::Steady => {
            for (i, fastq) in plan.jobs.iter().enumerate() {
                let name = format!("{}.job{i}", plan.label);
                let started = Instant::now();
                match client.submit(&name, fastq)? {
                    Ok(job) => {
                        let outcome = client.wait_job(job)?;
                        if matches!(outcome, JobOutcome::Done { .. }) {
                            latencies.push(started.elapsed());
                        }
                        outcomes.push((name, outcome));
                    }
                    Err(reason) => {
                        rejected += 1;
                        outcomes.push((name, JobOutcome::Failed {
                            message: format!("rejected: {reason}"),
                        }));
                    }
                }
                std::thread::sleep(Duration::from_millis(rng.random_range(0..5u64)));
            }
        }
        Profile::Bursty => {
            let mut in_flight = Vec::new();
            for (i, fastq) in plan.jobs.iter().enumerate() {
                let name = format!("{}.job{i}", plan.label);
                let started = Instant::now();
                match client.submit(&name, fastq)? {
                    Ok(job) => in_flight.push((name, job, started)),
                    Err(reason) => {
                        rejected += 1;
                        outcomes.push((name, JobOutcome::Failed {
                            message: format!("rejected: {reason}"),
                        }));
                    }
                }
            }
            for (name, job, started) in in_flight {
                let outcome = client.wait_job(job)?;
                if matches!(outcome, JobOutcome::Done { .. }) {
                    latencies.push(started.elapsed());
                }
                outcomes.push((name, outcome));
            }
        }
    }
    Ok(ClientReport { label: plan.label.clone(), outcomes, latencies, rejected })
}

/// Drives `plans.len()` clients concurrently against a server that
/// consumes connections from `conns` (see [`MappingServer::serve`]), one
/// thread and one in-process loopback connection per client. Returns the
/// reports in plan order.
///
/// [`MappingServer::serve`]: crate::server::MappingServer::serve
pub fn drive_clients(
    conns: &Sender<Conn>,
    plans: &[ClientPlan],
) -> Vec<Result<ClientReport, ClientError>> {
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for plan in plans {
            let (server_side, client_side) = Conn::pair();
            conns.send(server_side).expect("server stopped accepting connections");
            handles.push(scope.spawn(move || run_client(client_side, plan)));
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}
