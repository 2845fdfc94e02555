//! End-to-end measurement: the `minigiraffe` release binary run as a child
//! process, timed and sampled from outside, its output digested and scored
//! against the simulator's truth. Nothing here calls the mapping library.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::inputs::Inputs;
use crate::proc::{self, ChildCost};
use crate::serve::{self, Client, JobReply};
use crate::stats::{fnv64, Fnv64};
use crate::truth::Placement;
use crate::workloads::{Kind, Workload, SERVE_JOBS_PER_CLIENT_PASS, SERVE_JOB_READS, STREAM_BATCH};

/// How much measuring one run does.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Timed passes go on until this many seconds have been measured.
    pub seconds: f64,
    /// ... and at least this many passes have run.
    pub min_passes: usize,
    /// Set-up repetitions; the reported set-up time is their median.
    pub setup_reps: usize,
}

impl Effort {
    /// A full run: fewer than three passes and a median means little.
    pub fn full(seconds: f64) -> Effort {
        Effort {
            seconds,
            min_passes: 3,
            setup_reps: 9,
        }
    }

    /// `--quick`: one pass, enough to see that everything still runs.
    pub fn quick() -> Effort {
        Effort {
            seconds: 0.0,
            min_passes: 1,
            setup_reps: 3,
        }
    }
}

/// One timed pass over the whole input.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub reads: u64,
    /// Wall time, and beside it the child's CPU seconds, so a pass that
    /// waited for a busy machine is recognisable.
    pub cost: ChildCost,
}

impl Pass {
    pub fn reads_per_s(&self) -> f64 {
        self.reads as f64 / self.cost.wall_s
    }
}

/// Client-side timings of the serve jobs in the timed passes, milliseconds.
#[derive(Debug, Clone, Default)]
pub struct JobTimes {
    pub accept_ms: Vec<f64>,
    pub first_gaf_ms: Vec<f64>,
    pub done_ms: Vec<f64>,
}

/// Everything one end-to-end run observed.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub passes: Vec<Pass>,
    pub setup_s: Vec<f64>,
    pub placement: Placement,
    /// Output bytes and digest of one pass (every pass must repeat them).
    pub out_bytes: u64,
    pub out_fnv64: u64,
    /// Operations in the timed passes: reads (CLI) or jobs (serve).
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    pub jobs: JobTimes,
    /// Serve only: the server's STATS document after the last pass.
    pub server_stats: String,
    /// Serve only: each payload's GAF as first streamed back.
    pub payload_gaf: Vec<Vec<u8>>,
}

pub struct Ctx<'a> {
    pub bin: &'a Path,
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    pub dir: &'a Path,
}

/// Runs `cmd` to completion with its stderr in `log`; a non-zero exit is an
/// error that quotes it.
fn run_child(mut cmd: Command, log: &Path) -> Result<ChildCost, String> {
    let stderr =
        std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr);
    let started = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawning {:?}: {e}", cmd.get_program()))?;
    let (status, cost) = proc::wait_sampled(child, started).map_err(|e| format!("waiting: {e}"))?;
    if !status.success() {
        let said = std::fs::read_to_string(log).unwrap_or_default();
        return Err(format!("{cmd:?} exited with {status}: {}", said.trim()));
    }
    Ok(cost)
}

impl Ctx<'_> {
    fn log(&self) -> PathBuf {
        self.dir.join("child.stderr")
    }

    /// `minigiraffe build-mgi graph.mgz --out graph.mgi`.
    pub fn build_mgi(&self) -> Result<ChildCost, String> {
        let mut cmd = Command::new(self.bin);
        cmd.arg("build-mgi")
            .arg(&self.inputs.mgz)
            .arg("--out")
            .arg(&self.inputs.mgi);
        run_child(cmd, &self.log())
    }

    /// The workload's exact CLI command on `reads`, writing `out`.
    pub fn run_cli(&self, reads: &Path, out: &Path) -> Result<ChildCost, String> {
        let threads = self.w.threads.to_string();
        let mut cmd = Command::new(self.bin);
        match self.w.kind {
            Kind::Map => {
                cmd.arg("map").arg(reads).arg("--mgi").arg(&self.inputs.mgi);
                cmd.args(["--threads", &threads]).arg("--out").arg(out);
            }
            Kind::Stream => {
                cmd.arg("parent")
                    .arg(reads)
                    .arg("--mgi")
                    .arg(&self.inputs.mgi);
                cmd.args(["--threads", &threads, "--stream", &STREAM_BATCH.to_string()]);
                cmd.arg("--gaf").arg(out);
            }
            Kind::Batch => {
                cmd.arg("parent").arg(reads).arg(&self.inputs.mgz);
                cmd.args(["--threads", &threads]).arg("--gaf").arg(out);
            }
            Kind::Serve => unreachable!("serve is not a one-shot command"),
        }
        run_child(cmd, &self.log())
    }

    /// Set-up, `reps` times: build the index container the command
    /// opens (`--mgi` workloads), then start the workload's exact command on
    /// a 2-read input and let it finish (serve: spawn to first PONG). The
    /// batch workload builds its indexes inside the launch itself.
    fn setup(&self, reps: usize, obs: &mut Observed) -> Result<(), String> {
        let tiny_out = self.dir.join("tiny.out");
        for _ in 0..reps {
            let mut total = 0.0;
            if self.w.kind != Kind::Batch {
                total += self.build_mgi()?.wall_s;
            }
            total += match self.w.kind {
                Kind::Serve => {
                    let (server, ready_s) =
                        serve::spawn(self.bin, &self.inputs.mgi, self.w.threads, &self.log())?;
                    server.shutdown()?;
                    ready_s
                }
                _ => self.run_cli(&self.inputs.tiny_path, &tiny_out)?.wall_s,
            };
            obs.setup_s.push(total);
        }
        Ok(())
    }

    /// Runs the whole end-to-end measurement: set-up repetitions, then
    /// timed passes.
    pub fn measure(&self, effort: &Effort) -> Result<Observed, String> {
        let mut obs = Observed::default();
        self.setup(effort.setup_reps, &mut obs)?;
        match self.w.kind {
            Kind::Serve => self.measure_serve(effort, &mut obs)?,
            _ => self.measure_cli(effort, &mut obs)?,
        }
        if obs.placement.placed_pct() < self.w.min_placed_pct {
            obs.problems.push(format!(
                "only {:.2}% of reads placed on their source haplotype (floor {}%)",
                obs.placement.placed_pct(),
                self.w.min_placed_pct
            ));
        }
        if obs.failed > 0 {
            obs.problems.push(format!(
                "{} of {} operations failed",
                obs.failed, obs.attempted
            ));
        }
        Ok(obs)
    }

    fn measure_cli(&self, effort: &Effort, obs: &mut Observed) -> Result<(), String> {
        let out = self.dir.join(if self.w.kind == Kind::Map {
            "out.csv"
        } else {
            "out.gaf"
        });
        let reads = self.inputs.origins.len() as u64;
        // One discarded pass fills the page cache with the input and the
        // index; users rerun on files they just wrote too.
        self.run_cli(&self.inputs.reads_path, &out)?;
        let bytes = std::fs::read(&out).map_err(|e| format!("reading {}: {e}", out.display()))?;
        obs.out_bytes = bytes.len() as u64;
        obs.out_fnv64 = fnv64(&bytes);
        obs.placement = match self.w.kind {
            Kind::Map => self
                .inputs
                .truth
                .evaluate_csv(&self.inputs.origins, &bytes)?,
            _ => self
                .inputs
                .truth
                .evaluate_gaf(&self.inputs.origins, &bytes)?,
        };
        drop(bytes);

        let window = Instant::now();
        while obs.passes.len() < effort.min_passes
            || window.elapsed().as_secs_f64() < effort.seconds
        {
            let cost = self.run_cli(&self.inputs.reads_path, &out)?;
            obs.passes.push(Pass { reads, cost });
            obs.attempted += reads;
            let digest = file_fnv64(&out)?;
            if digest != obs.out_fnv64 {
                obs.failed += reads;
                obs.problems.push(format!(
                    "pass {} wrote digest {digest:016x}, the first pass {:016x}",
                    obs.passes.len(),
                    obs.out_fnv64
                ));
            }
        }
        Ok(())
    }

    fn measure_serve(&self, effort: &Effort, obs: &mut Observed) -> Result<(), String> {
        let (server, _) = serve::spawn(self.bin, &self.inputs.mgi, self.w.threads, &self.log())?;
        let pid = server.pid();
        let (result, sampler) = proc::sampled(pid, || self.drive_serve(&server, effort, obs));
        result?;
        for p in &mut obs.passes {
            p.cost.peak_rss_mib = sampler.peak_rss_mib();
        }
        server.shutdown()
    }

    /// Closed loop: each of `threads` clients keeps exactly one job in
    /// flight, sending the next as soon as the previous one is DONE. A pass
    /// is `SERVE_JOBS_PER_CLIENT_PASS` jobs per client against the resident
    /// server, timed from the first SUBMIT to the last DONE.
    fn drive_serve(
        &self,
        server: &serve::Server,
        effort: &Effort,
        obs: &mut Observed,
    ) -> Result<(), String> {
        let mut conns = Vec::new();
        for _ in 0..self.w.threads {
            conns.push(Client::connect(server.addr)?);
        }
        obs.payload_gaf = vec![Vec::new(); self.inputs.payloads.len()];
        let mut state = ServeLoop {
            pid: server.pid(),
            conns,
            digests: vec![None; self.inputs.payloads.len()],
            next_job: 0,
        };
        // Untimed until every distinct payload has been mapped once: the
        // pool is spawned, the hot tier frozen, and every payload's GAF has
        // been scored against the truth.
        while state.digests.iter().any(Option::is_none) {
            self.serve_pass(&mut state, false, obs)?;
        }
        let window = Instant::now();
        while obs.passes.len() < effort.min_passes
            || window.elapsed().as_secs_f64() < effort.seconds
        {
            self.serve_pass(&mut state, true, obs)?;
        }
        obs.server_stats = state.conns[0].stats()?;
        Ok(())
    }

    fn serve_pass(
        &self,
        state: &mut ServeLoop,
        timed: bool,
        obs: &mut Observed,
    ) -> Result<(), String> {
        let clients = state.conns.len();
        let payloads = &self.inputs.payloads;
        let epoch = Instant::now();
        let barrier = Barrier::new(clients);
        let first = state.next_job;
        state.next_job += clients * SERVE_JOBS_PER_CLIENT_PASS;
        let cpu_before = cpu_seconds(state.pid);
        let per_client: Vec<ClientPass> = std::thread::scope(|scope| {
            let handles: Vec<_> = state
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let start = epoch.elapsed();
                        let mut replies = Vec::new();
                        for k in 0..SERVE_JOBS_PER_CLIENT_PASS {
                            // Clients interleave through the payload pool,
                            // so both always map distinct jobs.
                            let p = (first + k * clients + c) % payloads.len();
                            replies.push((p, conn.run_job(&job_name(p), &payloads[p])));
                        }
                        ClientPass {
                            start,
                            end: epoch.elapsed(),
                            replies,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let start = per_client.iter().map(|c| c.start).min().unwrap_or_default();
        let end = per_client.iter().map(|c| c.end).max().unwrap_or_default();
        let mut jobs = 0u64;
        for (p, reply) in per_client.into_iter().flat_map(|c| c.replies) {
            jobs += 1;
            let ok = self.check_job(p, reply, &mut state.digests, timed, obs);
            if timed {
                obs.attempted += 1;
                obs.failed += u64::from(!ok);
            }
        }
        if timed {
            obs.passes.push(Pass {
                reads: jobs * SERVE_JOB_READS as u64,
                cost: ChildCost {
                    wall_s: (end - start).as_secs_f64(),
                    cpu_s: cpu_seconds(state.pid) - cpu_before,
                    // Filled in from the whole-run sampler when the loop ends.
                    peak_rss_mib: 0.0,
                },
            });
        }
        Ok(())
    }

    /// Scores one job reply; returns whether it counts as a success.
    fn check_job(
        &self,
        p: usize,
        reply: Result<JobReply, String>,
        digests: &mut [Option<u64>],
        timed: bool,
        obs: &mut Observed,
    ) -> bool {
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                obs.problems.push(e);
                return false;
            }
        };
        if timed {
            obs.jobs.accept_ms.push(reply.accept_s * 1e3);
            obs.jobs.first_gaf_ms.push(reply.first_gaf_s * 1e3);
            obs.jobs.done_ms.push(reply.done_s * 1e3);
        }
        if reply.reads != SERVE_JOB_READS as u64 {
            obs.problems.push(format!(
                "job {}: DONE reports {} reads",
                job_name(p),
                reply.reads
            ));
            return false;
        }
        let digest = fnv64(&reply.gaf);
        match digests[p] {
            Some(first) if first == digest => true,
            Some(first) => {
                obs.problems.push(format!(
                    "job {}: digest {digest:016x}, first time {first:016x}",
                    job_name(p)
                ));
                false
            }
            None => {
                digests[p] = Some(digest);
                let origins = &self.inputs.origins[p * SERVE_JOB_READS..(p + 1) * SERVE_JOB_READS];
                match self.inputs.truth.evaluate_gaf(origins, &reply.gaf) {
                    Ok(placed) => {
                        let total = &mut obs.placement;
                        total.reads += placed.reads;
                        total.unmapped += placed.unmapped;
                        total.misplaced += placed.misplaced;
                        total.clean_unplaced += placed.clean_unplaced;
                        obs.out_bytes += reply.gaf.len() as u64;
                        // Order-independent combination of the per-payload
                        // digests, so the total repeats whatever order the
                        // two clients finished in.
                        obs.out_fnv64 = obs.out_fnv64.wrapping_add(digest);
                        obs.payload_gaf[p] = reply.gaf;
                        true
                    }
                    Err(e) => {
                        obs.problems.push(format!("job {}: {e}", job_name(p)));
                        false
                    }
                }
            }
        }
    }
}

/// The name a payload is always submitted under: the server prefixes GAF
/// read names with it, so equal payloads must stream back equal bytes.
pub fn job_name(payload: usize) -> String {
    format!("p{payload:03}")
}

struct ServeLoop {
    pid: u32,
    conns: Vec<Client>,
    /// First-seen digest per payload: every later submission of the same
    /// payload must stream back the same bytes.
    digests: Vec<Option<u64>>,
    next_job: usize,
}

struct ClientPass {
    start: Duration,
    end: Duration,
    replies: Vec<(usize, Result<JobReply, String>)>,
}

fn cpu_seconds(pid: u32) -> f64 {
    let mut s = proc::Sampler::default();
    s.sample(pid);
    s.cpu_s()
}

fn file_fnv64(path: &Path) -> Result<u64, String> {
    use std::io::Read as _;
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut hash = Fnv64::default();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        if n == 0 {
            return Ok(hash.finish());
        }
        hash.update(&buf[..n]);
    }
}
