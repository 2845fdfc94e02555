//! Discrete-time multicore executor: cross-machine runs without the
//! machines.
//!
//! Replays a [`SimWorkload`] (per-read costs measured from real kernel
//! executions) on a [`MachineModel`]: threads are placed on cores/sockets,
//! SMT siblings share core throughput, co-resident threads share the
//! socket's L3, remote sockets pay a memory-latency factor, and the chosen
//! scheduler policy distributes read batches. The outcome is the makespan —
//! deterministic, so every figure regenerates bit-identically.

use crate::features::SimWorkload;
use crate::machine::MachineModel;

/// Scheduler policy in the simulated executor: the three
/// [`mg_sched::SchedulerKind`]s, plus a static partitioner the simulations
/// use as their no-balancing baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimSched {
    /// Contiguous equal chunks, no balancing.
    Static,
    /// Self-scheduling batches off a shared queue (OpenMP dynamic).
    Dynamic {
        /// Reads per batch.
        batch: usize,
    },
    /// Pre-split shares with round-robin batch stealing.
    WorkStealing {
        /// Reads per batch.
        batch: usize,
    },
    /// VG-style: dynamic plus a dispatch overhead paid by thread 0.
    Vg {
        /// Reads per batch.
        batch: usize,
    },
}

impl SimSched {
    /// Translates a runtime scheduler kind + batch size.
    pub fn from_kind(kind: mg_sched::SchedulerKind, batch: usize) -> Self {
        match kind {
            mg_sched::SchedulerKind::Dynamic => SimSched::Dynamic { batch },
            mg_sched::SchedulerKind::WorkStealing => SimSched::WorkStealing { batch },
            mg_sched::SchedulerKind::Vg => SimSched::Vg { batch },
        }
    }

    fn batch(&self) -> usize {
        match *self {
            SimSched::Static => usize::MAX,
            SimSched::Dynamic { batch } | SimSched::WorkStealing { batch } | SimSched::Vg { batch } => {
                batch.max(1)
            }
        }
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// End-to-end wall time in seconds (the paper's makespan), or `None`
    /// when the workload does not fit in the machine's DRAM.
    pub makespan_s: Option<f64>,
    /// Busy seconds per thread.
    pub per_thread_busy_s: Vec<f64>,
    /// Total CPU seconds across threads.
    pub total_cpu_s: f64,
}

impl SimOutcome {
    /// `true` when the machine ran out of memory (Figure 5's missing
    /// D-HPRC points).
    pub fn is_oom(&self) -> bool {
        self.makespan_s.is_none()
    }
}

/// Per-thread execution-rate context derived from placement.
#[derive(Debug, Clone, Copy)]
struct ThreadContext {
    /// Seconds per abstract instruction (includes SMT sharing).
    sec_per_instr: f64,
    /// Seconds per memory "line cost unit" (includes L3 pressure and
    /// socket distance).
    sec_per_line: f64,
    /// Fixed per-batch scheduling overhead in seconds.
    batch_overhead_s: f64,
}

/// Upper bound on the fraction of lines served by the private L1/L2 when
/// the per-thread working set fits entirely (temporal locality of kernel
/// accesses).
const PRIVATE_HIT_CEILING: f64 = 0.85;
/// Floor on the private hit fraction even when the working set thrashes
/// (spatial locality within records and reads).
const PRIVATE_HIT_FLOOR: f64 = 0.35;

fn thread_contexts(
    machine: &MachineModel,
    workload: &SimWorkload,
    threads: usize,
    sched: SimSched,
) -> Vec<ThreadContext> {
    // Count core and socket occupancy.
    let mut per_core: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    let mut per_socket = vec![0usize; machine.sockets];
    let placements: Vec<(usize, usize, usize)> =
        (0..threads).map(|t| machine.place_thread(t)).collect();
    for &(socket, core, _) in &placements {
        *per_core.entry((socket, core)).or_insert(0) += 1;
        per_socket[socket] += 1;
    }
    let hz = machine.freq_ghz * 1e9;
    placements
        .iter()
        .map(|&(socket, core, _)| {
            let on_core = per_core[&(socket, core)];
            let smt = machine.smt_factor(on_core);
            let on_socket = per_socket[socket].max(1);
            // Private L1/L2 service fraction: degrades when the per-thread
            // working set (CachedGBWT table + decoded records) outgrows L2 —
            // this is how an oversized initial capacity pollutes the caches.
            let l2_bytes = machine.l2_kb as f64 * 1024.0;
            let fit = (l2_bytes / workload.private_hot_bytes.max(1) as f64).clamp(0.0, 1.0);
            let private_hit = PRIVATE_HIT_FLOOR + (PRIVATE_HIT_CEILING - PRIVATE_HIT_FLOOR) * fit;
            // L3 share of this thread's socket: each resident thread's
            // private set plus the shared compressed index compete.
            let l3_per_thread = machine.l3_mb * 1024.0 * 1024.0 / on_socket as f64;
            let pressure_bytes = workload.hot_bytes + workload.private_hot_bytes;
            let resident = (l3_per_thread / pressure_bytes.max(1) as f64).clamp(0.0, 1.0);
            let socket_factor = if socket > 0 { machine.cross_socket_factor } else { 1.0 };
            // Cycles for one touched line: private-hit portion pays the L2
            // penalty, the rest pays L3 or DRAM depending on residency.
            let line_cycles = private_hit * machine.l2_penalty
                + (1.0 - private_hit)
                    * (resident * machine.l3_penalty + (1.0 - resident) * machine.mem_penalty)
                    * socket_factor;
            let dispatch = match sched {
                SimSched::Vg { .. } => 3e-6,
                SimSched::WorkStealing { .. } => 4e-7,
                SimSched::Dynamic { .. } => 6e-7,
                SimSched::Static => 0.0,
            };
            ThreadContext {
                sec_per_instr: machine.base_cpi / (hz * smt),
                sec_per_line: line_cycles / (hz * smt),
                batch_overhead_s: dispatch,
            }
        })
        .collect()
}

fn task_seconds(task: &crate::features::TaskFeatures, ctx: &ThreadContext) -> f64 {
    let lines = (task.bytes / crate::cachesim::LINE_BYTES).max(1) as f64;
    task.instructions as f64 * ctx.sec_per_instr + lines * ctx.sec_per_line
}

/// Simulates one run; deterministic.
///
/// # Panics
///
/// Panics if `threads` is 0 or exceeds the machine's thread contexts.
pub fn simulate(
    machine: &MachineModel,
    workload: &SimWorkload,
    threads: usize,
    sched: SimSched,
) -> SimOutcome {
    assert!(threads >= 1, "at least one thread");
    assert!(
        threads <= machine.total_threads(),
        "{threads} threads exceed {}'s {} contexts",
        machine.name,
        machine.total_threads()
    );
    if workload.required_memory_gb > machine.dram_gb as f64 {
        return SimOutcome {
            makespan_s: None,
            per_thread_busy_s: vec![0.0; threads],
            total_cpu_s: 0.0,
        };
    }
    let contexts = thread_contexts(machine, workload, threads, sched);
    let n = workload.tasks.len();
    // Every thread pays the CachedGBWT setup (allocation + first touch)
    // before mapping its first batch.
    let mut clocks: Vec<f64> = contexts
        .iter()
        .map(|ctx| workload.setup_instructions_per_thread as f64 * ctx.sec_per_instr)
        .collect();
    match sched {
        SimSched::Static => {
            let chunk = n.div_ceil(threads.max(1));
            for (t, clock) in clocks.iter_mut().enumerate() {
                let start = (t * chunk).min(n);
                let end = ((t + 1) * chunk).min(n);
                for task in &workload.tasks[start..end] {
                    *clock += task_seconds(task, &contexts[t]);
                }
            }
        }
        SimSched::Dynamic { .. } | SimSched::Vg { .. } => {
            // Self-scheduling: each batch goes to the earliest-free thread.
            let batch = sched.batch();
            let mut next = 0usize;
            while next < n {
                let t = argmin(&clocks);
                let end = (next + batch).min(n);
                clocks[t] += contexts[t].batch_overhead_s;
                for task in &workload.tasks[next..end] {
                    clocks[t] += task_seconds(task, &contexts[t]);
                }
                next = end;
            }
            if let SimSched::Vg { .. } = sched {
                // Thread 0 also pays the dispatch loop for every batch.
                clocks[0] += (n.div_ceil(batch)) as f64 * 2e-6;
            }
        }
        SimSched::WorkStealing { batch } => {
            let batch = batch.max(1);
            // Pre-split shares, then event-driven consumption with stealing
            // from the most-loaded victim.
            let chunk = n.div_ceil(threads);
            let mut cursors: Vec<(usize, usize)> = (0..threads)
                .map(|t| ((t * chunk).min(n), ((t + 1) * chunk).min(n)))
                .collect();
            loop {
                let t = argmin(&clocks);
                // Own share first.
                let (start, end) = cursors[t];
                let (src, steal) = if start < end {
                    (t, false)
                } else {
                    // Steal round-robin starting from the next thread, the
                    // same victim order as mg_sched::WorkStealingScheduler.
                    match (1..threads)
                        .map(|d| (t + d) % threads)
                        .find(|&v| cursors[v].0 < cursors[v].1)
                    {
                        Some(v) => (v, true),
                        None => break,
                    }
                };
                let (s, e) = cursors[src];
                let take = (s + batch).min(e);
                cursors[src].0 = take;
                clocks[t] += contexts[t].batch_overhead_s * if steal { 2.0 } else { 1.0 };
                for task in &workload.tasks[s..take] {
                    clocks[t] += task_seconds(task, &contexts[t]);
                }
                // A thread with no work left and nothing to steal exits the
                // loop naturally when all cursors drain.
                if clocks[t].is_nan() {
                    break;
                }
            }
        }
    }
    let total: f64 = clocks.iter().sum();
    SimOutcome {
        makespan_s: Some(clocks.iter().copied().fold(0.0, f64::max)),
        per_thread_busy_s: clocks,
        total_cpu_s: total,
    }
}

fn argmin(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v < values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::TaskFeatures;

    fn uniform_workload(n: usize, instr: u64, bytes: u64) -> SimWorkload {
        SimWorkload {
            name: "uniform".into(),
            tasks: vec![
                TaskFeatures { instructions: instr, bytes, cache_hits: 10, cache_misses: 1 };
                n
            ],
            hot_bytes: 8 << 20,
            required_memory_gb: 32.0,
            setup_instructions_per_thread: 3_000,
            private_hot_bytes: 64 << 10,
        }
    }

    #[test]
    fn single_thread_time_is_sum() {
        let machine = MachineModel::local_amd();
        let w = uniform_workload(100, 10_000, 4_000);
        let out = simulate(&machine, &w, 1, SimSched::Dynamic { batch: 10 });
        let makespan = out.makespan_s.unwrap();
        assert!(makespan > 0.0);
        assert!((out.total_cpu_s - makespan).abs() / makespan < 1e-9);
    }

    #[test]
    fn more_threads_reduce_makespan() {
        let machine = MachineModel::local_amd();
        let w = uniform_workload(4096, 50_000, 16_000);
        let t1 = simulate(&machine, &w, 1, SimSched::Dynamic { batch: 16 }).makespan_s.unwrap();
        let t16 = simulate(&machine, &w, 16, SimSched::Dynamic { batch: 16 }).makespan_s.unwrap();
        let t64 = simulate(&machine, &w, 64, SimSched::Dynamic { batch: 16 }).makespan_s.unwrap();
        assert!(t16 < t1 / 8.0, "16 threads: {t16} vs {t1}");
        assert!(t64 < t16, "64 threads still faster");
        // Speedup at 64 physical cores is near-linear on the AMD model.
        let speedup = t1 / t64;
        assert!(speedup > 40.0, "speedup {speedup}");
    }

    #[test]
    fn smt_beyond_cores_gives_diminishing_returns() {
        let machine = MachineModel::local_intel(); // 48 cores, 96 contexts
        let w = uniform_workload(8192, 50_000, 16_000);
        let t48 = simulate(&machine, &w, 48, SimSched::Dynamic { batch: 16 }).makespan_s.unwrap();
        let t96 = simulate(&machine, &w, 96, SimSched::Dynamic { batch: 16 }).makespan_s.unwrap();
        let smt_gain = t48 / t96;
        assert!(smt_gain > 0.9, "SMT not catastrophic: {smt_gain}");
        assert!(smt_gain < 1.5, "SMT far from doubling: {smt_gain}");
    }

    #[test]
    fn oom_when_memory_exceeds_dram() {
        let machine = MachineModel::chi_intel(); // 256 GB
        let mut w = uniform_workload(100, 1000, 1000);
        w.required_memory_gb = 300.0;
        let out = simulate(&machine, &w, 8, SimSched::Dynamic { batch: 4 });
        assert!(out.is_oom());
        // Fits on the 768 GB machine.
        let ok = simulate(&MachineModel::local_amd(), &w, 8, SimSched::Dynamic { batch: 4 });
        assert!(!ok.is_oom());
    }

    #[test]
    fn amd_beats_arm_on_the_same_workload() {
        let w = uniform_workload(2048, 80_000, 30_000);
        let amd = simulate(&MachineModel::local_amd(), &w, 64, SimSched::Dynamic { batch: 16 })
            .makespan_s
            .unwrap();
        let arm = simulate(&MachineModel::chi_arm(), &w, 64, SimSched::Dynamic { batch: 16 })
            .makespan_s
            .unwrap();
        assert!(amd < arm, "amd {amd} vs arm {arm}");
    }

    #[test]
    fn skewed_tasks_favor_dynamic_over_static() {
        // A few huge tasks at the front of the range.
        let mut w = uniform_workload(1000, 10_000, 4_000);
        for t in w.tasks.iter_mut().take(10) {
            t.instructions = 2_000_000;
        }
        let machine = MachineModel::local_intel();
        let stat = simulate(&machine, &w, 8, SimSched::Static).makespan_s.unwrap();
        let dyna = simulate(&machine, &w, 8, SimSched::Dynamic { batch: 4 }).makespan_s.unwrap();
        assert!(dyna < stat, "dynamic {dyna} vs static {stat}");
    }

    #[test]
    fn all_schedulers_do_all_work() {
        let w = uniform_workload(777, 20_000, 8_000);
        let machine = MachineModel::chi_intel();
        let reference = simulate(&machine, &w, 1, SimSched::Static).total_cpu_s;
        for sched in [
            SimSched::Static,
            SimSched::Dynamic { batch: 32 },
            SimSched::WorkStealing { batch: 32 },
            SimSched::Vg { batch: 32 },
        ] {
            let out = simulate(&machine, &w, 4, sched);
            // Total CPU time within 2x of the single-thread reference (it
            // grows only with contention factors and overheads).
            assert!(out.total_cpu_s >= reference * 0.9, "{sched:?}");
            assert!(out.total_cpu_s <= reference * 3.0, "{sched:?}");
            assert!(out.makespan_s.unwrap() > 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let w = uniform_workload(500, 30_000, 12_000);
        let machine = MachineModel::chi_arm();
        let a = simulate(&machine, &w, 32, SimSched::WorkStealing { batch: 8 });
        let b = simulate(&machine, &w, 32, SimSched::WorkStealing { batch: 8 });
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_threads_panics() {
        let w = uniform_workload(10, 100, 100);
        simulate(&MachineModel::chi_arm(), &w, 65, SimSched::Static);
    }
}

#[cfg(test)]
mod setup_tests {
    use super::*;
    use crate::features::{SimWorkload, TaskFeatures};

    fn workload(setup: u64, n: usize) -> SimWorkload {
        SimWorkload {
            name: "setup".into(),
            tasks: vec![TaskFeatures { instructions: 1000, bytes: 640, cache_hits: 0, cache_misses: 0 }; n],
            hot_bytes: 1 << 20,
            required_memory_gb: 1.0,
            setup_instructions_per_thread: setup,
            private_hot_bytes: 32 << 10,
        }
    }

    #[test]
    fn setup_cost_charges_every_thread() {
        let machine = MachineModel::local_amd();
        let cheap = simulate(&machine, &workload(0, 64), 8, SimSched::Static).makespan_s.unwrap();
        let costly = simulate(&machine, &workload(10_000_000, 64), 8, SimSched::Static)
            .makespan_s
            .unwrap();
        // Setup is per-thread and serial with the work: the makespan grows
        // by at least the setup time of one thread.
        let setup_s = 10_000_000.0 * machine.base_cpi / (machine.freq_ghz * 1e9);
        assert!(costly - cheap >= setup_s * 0.9, "cheap {cheap} costly {costly}");
    }

    #[test]
    fn tiled_workload_multiplies_makespan_roughly_linearly() {
        let machine = MachineModel::chi_intel();
        let base = workload(0, 500);
        let t1 = simulate(&machine, &base, 4, SimSched::Dynamic { batch: 16 }).makespan_s.unwrap();
        let t4 = simulate(&machine, &base.tiled(4), 4, SimSched::Dynamic { batch: 16 })
            .makespan_s
            .unwrap();
        let ratio = t4 / t1;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn larger_private_working_set_slows_memory_bound_tasks() {
        let machine = MachineModel::chi_arm(); // small L2 feels pollution first
        let mut small = workload(0, 256);
        small.tasks.iter_mut().for_each(|t| t.bytes = 64_000);
        let mut big = small.clone();
        big.private_hot_bytes = 8 << 20; // far over the 256 KiB L2
        let fast = simulate(&machine, &small, 4, SimSched::Static).makespan_s.unwrap();
        let slow = simulate(&machine, &big, 4, SimSched::Static).makespan_s.unwrap();
        assert!(slow > fast * 1.3, "fast {fast} slow {slow}");
    }
}
