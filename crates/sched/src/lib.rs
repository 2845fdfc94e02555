//! Parallel schedulers for the mapping loop.
//!
//! The scheduler is one of miniGiraffe's three tuning parameters. The proxy
//! ships the OpenMP-dynamic analog ([`DynamicScheduler`]) plus an in-house
//! work-stealing scheduler ([`WorkStealingScheduler`]); the parent pipeline
//! uses the VG-style main-thread dispatcher ([`VgScheduler`]). A plain
//! static partitioner ([`StaticScheduler`]) rounds out the set for ablation.
//!
//! All schedulers run `n` independent tasks (reads to map) on `threads`
//! threads of a persistent [`WorkerPool`] with per-thread mutable state
//! (each worker owns its `CachedGbwt`, like Giraffe's per-thread caches),
//! and there is one way in: [`SchedulerKind::run`].
//!
//! # Examples
//!
//! ```
//! use mg_obs::Metrics;
//! use mg_sched::{PoolTask, SchedulerKind, WorkerPool};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! struct Sum<'a>(&'a AtomicU64);
//! impl PoolTask for Sum<'_> {
//!     fn run(&mut self, i: usize) {
//!         self.0.fetch_add(i as u64, Ordering::Relaxed);
//!     }
//! }
//!
//! let mut pool = WorkerPool::new();
//! let sum = AtomicU64::new(0);
//! SchedulerKind::Dynamic.run(64, &mut pool, 1000, 4, Metrics::off_ref(), &|_thread, _cell| {
//!     Box::new(Sum(&sum))
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! ```

mod admission;
mod pool;
mod queue;

pub use admission::{AdmissionError, AdmissionQueue, AdmissionStats};
pub use pool::{PoolCell, PoolTask, WorkerPool};
pub use queue::{bounded_queue, QueueStats, StreamReceiver, StreamSender};

use mg_obs::{Ctr, Gauge, Hist, Metrics};

use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Mutex, PoisonError};

/// The one definition of the in-flight chunk window default, shared by the
/// streaming pipelines and the serving executor:
/// `requested` reads per chunk when nonzero, else one full dispatch worth
/// of work (`threads × batch_size`). Always >= 1.
///
/// ```
/// use mg_sched::effective_chunk_reads;
/// assert_eq!(effective_chunk_reads(0, 4, 512), 2048); // default: threads × batch
/// assert_eq!(effective_chunk_reads(100, 4, 512), 100); // explicit wins
/// assert_eq!(effective_chunk_reads(0, 0, 0), 1); // degenerate inputs clamp
/// ```
#[inline]
pub fn effective_chunk_reads(requested: usize, threads: usize, batch_size: usize) -> usize {
    if requested == 0 {
        threads.max(1).saturating_mul(batch_size.max(1)).max(1)
    } else {
        requested
    }
}

/// Dispatch grains every thread gets out of one chunk, at least: with
/// fewer, a chunk of `threads × batch_size` reads is one grain per thread
/// and the balancing schedulers have nothing to balance. Picked by
/// measurement between 4 and 8 (EXPERIMENTS.md, PR 18).
pub const CHUNK_GRAINS_PER_THREAD: usize = 8;

/// Reads per scheduler grain when one chunk of `chunk_reads` reads is
/// dispatched on its own: `batch_size`, capped so every thread gets at
/// least [`CHUNK_GRAINS_PER_THREAD`] grains. A whole-input batch run has
/// grains to spare and keeps `batch_size` as given. Always >= 1.
///
/// ```
/// use mg_sched::chunk_grain_reads;
/// assert_eq!(chunk_grain_reads(1024, 2, 512), 64); // 16 grains, 8 a thread
/// assert_eq!(chunk_grain_reads(1000, 2, 512), 63); // rounded up: never a 17th
/// assert_eq!(chunk_grain_reads(90_000, 1, 512), 512); // long chunks keep the batch
/// assert_eq!(chunk_grain_reads(1024, 2, 16), 16); // a smaller batch wins
/// assert_eq!(chunk_grain_reads(0, 0, 0), 1); // degenerate inputs clamp
/// ```
#[inline]
pub fn chunk_grain_reads(chunk_reads: usize, threads: usize, batch_size: usize) -> usize {
    let per_grain = chunk_reads.div_ceil(threads.max(1).saturating_mul(CHUNK_GRAINS_PER_THREAD));
    batch_size.min(per_grain).max(1)
}

/// Identifies a scheduler implementation; the tuning harness sweeps this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchedulerKind {
    /// Contiguous equal chunks, no balancing.
    Static,
    /// Shared-counter dynamic batches (the OpenMP `schedule(dynamic)`
    /// analog miniGiraffe defaults to).
    Dynamic,
    /// Equal pre-split plus round-robin batch stealing (the paper's
    /// in-house scheduler).
    WorkStealing,
    /// VG-style: the main thread dispatches batches and processes one
    /// itself when all workers are busy (the parent's scheduler).
    Vg,
}

impl SchedulerKind {
    /// All kinds, in sweep order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Static,
        SchedulerKind::Dynamic,
        SchedulerKind::WorkStealing,
        SchedulerKind::Vg,
    ];

    /// The two schedulers the paper's autotuning study sweeps.
    pub const TUNED: [SchedulerKind; 2] = [SchedulerKind::Dynamic, SchedulerKind::WorkStealing];

    /// Processes tasks `0..n` on `threads` threads of `pool`, handing out
    /// `batch` indexes at a time (clamped to at least 1; the static
    /// partitioner ignores it). Every index is processed exactly once.
    ///
    /// `make_task(thread_id, cell)` builds the per-thread [`PoolTask`] on
    /// its pool thread, with the thread's persistent [`PoolCell`] available
    /// to warm-start from; the task's `finish` gets the cell back after the
    /// thread's last index. With `threads <= 1` everything runs inline on
    /// the calling thread against cell 0, in index order. Dispatched
    /// batches, completions, steals, queue depths and idle time are recorded
    /// into `metrics`; pass [`Metrics::off_ref`] when not observing.
    ///
    /// A panicking task unwinds out of this call after every thread has
    /// stopped, and the pool stays usable.
    #[allow(clippy::too_many_arguments)]
    pub fn run<'env>(
        self,
        batch: usize,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        make_task: &(dyn Fn(usize, &mut PoolCell) -> Box<dyn PoolTask + 'env> + Sync + 'env),
    ) {
        if threads <= 1 || n == 0 {
            // One body on thread 0 processes everything in order, as one
            // batch, so metric reconciliation holds at every thread count.
            return pool.scoped(1, &|t, cell| {
                let mut task = make_task(t, cell);
                let mut tally = Tally::default();
                if n > 0 {
                    metrics.gauge_max(Gauge::ThreadsMax, 1);
                    tally.batch(&mut *task, 0..n, metrics);
                }
                tally.flush(metrics);
                task.finish(cell);
            });
        }
        metrics.gauge_max(Gauge::ThreadsMax, threads as u64);
        let batch = batch.max(1);
        match self {
            SchedulerKind::Static => run_static(pool, n, threads, metrics, make_task),
            SchedulerKind::Dynamic => run_dynamic(batch, pool, n, threads, metrics, make_task),
            SchedulerKind::WorkStealing => run_stealing(batch, pool, n, threads, metrics, make_task),
            SchedulerKind::Vg => run_vg(batch, pool, n, threads, metrics, make_task),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchedulerKind::Static => "static",
            SchedulerKind::Dynamic => "openmp-dynamic",
            SchedulerKind::WorkStealing => "work-stealing",
            SchedulerKind::Vg => "vg-batch",
        };
        write!(f, "{s}")
    }
}

impl FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" => Ok(SchedulerKind::Static),
            "openmp-dynamic" | "dynamic" | "openmp" => Ok(SchedulerKind::Dynamic),
            "work-stealing" | "ws" => Ok(SchedulerKind::WorkStealing),
            "vg-batch" | "vg" => Ok(SchedulerKind::Vg),
            other => Err(format!("unknown scheduler {other:?}")),
        }
    }
}


/// Builds one thread's [`PoolTask`] for a dispatch; see [`SchedulerKind::run`].
type MakeTask<'a, 'env> =
    &'a (dyn Fn(usize, &mut PoolCell) -> Box<dyn PoolTask + 'env> + Sync + 'env);

/// One thread's batch and completion counts for one dispatch, folded into
/// the registry once at the end.
#[derive(Default)]
struct Tally {
    batches: u64,
    done: u64,
}

impl Tally {
    /// Runs `range` on `task` as one counted batch.
    fn batch(&mut self, task: &mut dyn PoolTask, range: Range<usize>, metrics: &Metrics) {
        let len = range.len() as u64;
        for i in range {
            task.run(i);
        }
        self.batches += 1;
        self.done += len;
        metrics.observe(Hist::BatchReads, len);
    }

    fn flush(&self, metrics: &Metrics) {
        if self.batches > 0 {
            metrics.add(Ctr::PoolBatches, self.batches);
            metrics.add(Ctr::PoolTasksCompleted, self.done);
        }
    }
}

/// Contiguous equal chunks, one per thread. No balancing at all: the
/// baseline the dynamic schedulers are measured against.
fn run_static(
    pool: &mut WorkerPool,
    n: usize,
    threads: usize,
    metrics: &Metrics,
    make_task: MakeTask<'_, '_>,
) {
    let chunk = n.div_ceil(threads);
    pool.scoped(threads, &|t, cell| {
        let mut task = make_task(t, cell);
        let mut tally = Tally::default();
        let start = (t * chunk).min(n);
        let end = ((t + 1) * chunk).min(n);
        if end > start {
            // Each thread's contiguous share is one "batch".
            tally.batch(&mut *task, start..end, metrics);
        }
        tally.flush(metrics);
        task.finish(cell);
    });
}

/// Dynamic batches off a shared atomic counter — the behaviour of OpenMP's
/// `schedule(dynamic, batch)` that miniGiraffe uses by default.
fn run_dynamic(
    batch: usize,
    pool: &mut WorkerPool,
    n: usize,
    threads: usize,
    metrics: &Metrics,
    make_task: MakeTask<'_, '_>,
) {
    let cursor = AtomicUsize::new(0);
    pool.scoped(threads, &|t, cell| {
        let mut task = make_task(t, cell);
        let mut tally = Tally::default();
        loop {
            let start = cursor.fetch_add(batch, Ordering::Relaxed);
            if start >= n {
                break;
            }
            tally.batch(&mut *task, start..(start + batch).min(n), metrics);
        }
        tally.flush(metrics);
        task.finish(cell);
    });
}

/// The paper's in-house scheduler: the range is pre-split evenly; each
/// thread consumes its own share in `batch`-sized chunks through a
/// per-thread atomic cursor, and when it runs dry it steals batches from
/// victims round-robin with an atomic read-modify-write.
fn run_stealing(
    batch: usize,
    pool: &mut WorkerPool,
    n: usize,
    threads: usize,
    metrics: &Metrics,
    make_task: MakeTask<'_, '_>,
) {
    let chunk = n.div_ceil(threads);
    let shares: Vec<(AtomicUsize, usize)> = (0..threads)
        .map(|t| {
            let start = (t * chunk).min(n);
            let end = ((t + 1) * chunk).min(n);
            (AtomicUsize::new(start), end)
        })
        .collect();
    pool.scoped(threads, &|t, cell| {
        let mut task = make_task(t, cell);
        let mut tally = Tally::default();
        let mut steals = 0u64;
        // Own share first, then victims round-robin from t + 1.
        for v in 0..threads {
            let (cursor, end) = &shares[(t + v) % threads];
            loop {
                let start = cursor.fetch_add(batch, Ordering::Relaxed);
                if start >= *end {
                    break;
                }
                tally.batch(&mut *task, start..(start + batch).min(*end), metrics);
                if v > 0 {
                    steals += 1;
                }
            }
        }
        tally.flush(metrics);
        if steals > 0 {
            metrics.add(Ctr::PoolSteals, steals);
        }
        task.finish(cell);
    });
}

/// VG-style batch dispatcher: worker threads pull batches from a bounded
/// queue fed by the main thread; when every worker is busy (queue full) the
/// main thread processes a batch itself, mirroring VG's task launcher that
/// the workload characterization observed.
fn run_vg(
    batch: usize,
    pool: &mut WorkerPool,
    n: usize,
    threads: usize,
    metrics: &Metrics,
    make_task: MakeTask<'_, '_>,
) {
    let observe = metrics.enabled();
    // Thread 0 is the dispatcher; the rest are workers sharing the receiver
    // of a bounded channel. The dispatcher takes the sender out of the slot
    // and drops it when dispatch ends, which winds the workers down.
    let (tx, rx) = mpsc::sync_channel::<Range<usize>>(threads - 1);
    let tx_slot = Mutex::new(Some(tx));
    let rx = Mutex::new(rx);
    // In-flight batch count, maintained only when observing: the channel
    // has no len(), so the dispatcher and workers keep the depth themselves
    // for the queue-depth gauge.
    let depth = AtomicUsize::new(0);
    pool.scoped(threads, &|t, cell| {
        let mut task = make_task(t, cell);
        let mut tally = Tally::default();
        if t == 0 {
            let tx = tx_slot.lock().unwrap().take().expect("dispatcher runs once");
            // Dispatch batches; on backpressure, map a batch here.
            let mut next = 0usize;
            while next < n {
                let end = (next + batch).min(n);
                // Count the batch as in flight *before* sending: once
                // try_send succeeds a worker may already have received and
                // decremented it.
                if observe {
                    let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
                    metrics.gauge_max(Gauge::QueueDepthMax, d as u64);
                }
                match tx.try_send(next..end) {
                    Ok(()) => {}
                    Err(TrySendError::Full(range)) => {
                        if observe {
                            depth.fetch_sub(1, Ordering::Relaxed);
                        }
                        tally.batch(&mut *task, range, metrics);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        unreachable!("workers outlive the dispatch loop")
                    }
                }
                next = end;
            }
        } else {
            let mut idle_ns = 0u64;
            loop {
                let waited = observe.then(std::time::Instant::now);
                // The guard is a temporary, so the lock is released before
                // the batch runs and a panicking task holds none. Poison is
                // shrugged off as `Mapper::lock_pool` does: the receiver
                // stays coherent whoever unwound.
                let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok(range) = next else { break };
                if let Some(t0) = waited {
                    idle_ns += t0.elapsed().as_nanos() as u64;
                    depth.fetch_sub(1, Ordering::Relaxed);
                }
                tally.batch(&mut *task, range, metrics);
            }
            if idle_ns > 0 {
                metrics.add(Ctr::PoolIdleNs, idle_ns);
            }
        }
        tally.flush(metrics);
        task.finish(cell);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Bumps `seen[i]` for every index it is handed.
    struct Count<'a>(&'a [AtomicU64]);

    impl PoolTask for Count<'_> {
        fn run(&mut self, i: usize) {
            self.0[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Calls the closure on every index it is handed.
    struct RunFn<R>(R);

    impl<R: FnMut(usize) + Send> PoolTask for RunFn<R> {
        fn run(&mut self, i: usize) {
            (self.0)(i);
        }
    }

    #[test]
    fn every_index_processed_exactly_once() {
        // One persistent pool shared by all four kinds and many run shapes:
        // the scheduler contract must hold on recycled threads too.
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            for n in [0usize, 1, 7, 100, 1000] {
                for threads in [1usize, 2, 4, 7] {
                    let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                    kind.run(16, &mut pool, n, threads, Metrics::off_ref(), &|_t, _cell| {
                        Box::new(Count(&seen))
                    });
                    for (i, c) in seen.iter().enumerate() {
                        assert_eq!(
                            c.load(Ordering::Relaxed),
                            1,
                            "{kind}: index {i} with n={n} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn per_thread_state_sums_to_total() {
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            let counted = Mutex::new(0u64);
            struct State<'a> {
                count: u64,
                sink: &'a Mutex<u64>,
            }
            impl PoolTask for State<'_> {
                fn run(&mut self, _i: usize) {
                    self.count += 1;
                }
            }
            impl Drop for State<'_> {
                fn drop(&mut self) {
                    *self.sink.lock().unwrap() += self.count;
                }
            }
            kind.run(8, &mut pool, 500, 4, Metrics::off_ref(), &|_t, _cell| {
                Box::new(State { count: 0, sink: &counted })
            });
            assert_eq!(*counted.lock().unwrap(), 500, "{kind}");
        }
    }

    #[test]
    fn dynamic_balances_skewed_work() {
        // One heavy task must not serialize the rest: with dynamic batches
        // of 1, fast threads take the remainder while one sleeps.
        let done = AtomicU64::new(0);
        SchedulerKind::Dynamic.run(
            1,
            &mut WorkerPool::new(),
            64,
            4,
            Metrics::off_ref(),
            &|_t, _cell| {
                Box::new(RunFn(|i| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }))
            },
        );
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn work_stealing_uneven_shares_exactly_once() {
        let n = 4001; // not divisible by 4: last share is short
        let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        SchedulerKind::WorkStealing.run(
            4,
            &mut WorkerPool::new(),
            n,
            4,
            Metrics::off_ref(),
            &|_t, _cell| Box::new(Count(&seen)),
        );
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn vg_scheduler_two_threads() {
        // threads = 2 means one worker + the dispatching main thread.
        let seen: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(0)).collect();
        SchedulerKind::Vg.run(32, &mut WorkerPool::new(), 300, 2, Metrics::off_ref(), &|_t, _cell| {
            Box::new(Count(&seen))
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn kind_display_and_parse_roundtrip() {
        for kind in SchedulerKind::ALL {
            let s = kind.to_string();
            assert_eq!(s.parse::<SchedulerKind>().unwrap(), kind);
        }
        assert!("garbage".parse::<SchedulerKind>().is_err());
        assert_eq!("ws".parse::<SchedulerKind>().unwrap(), SchedulerKind::WorkStealing);
        assert_eq!("openmp".parse::<SchedulerKind>().unwrap(), SchedulerKind::Dynamic);
    }

    #[test]
    fn zero_batch_is_clamped_to_one() {
        let metrics = Metrics::new();
        let seen: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        SchedulerKind::Dynamic.run(0, &mut WorkerPool::new(), 10, 2, &metrics, &|_t, _cell| {
            Box::new(Count(&seen))
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        if metrics.enabled() {
            assert_eq!(metrics.report().counter(Ctr::PoolBatches), 10);
        }
    }

    #[test]
    fn state_round_trips_through_cells() {
        // Each thread counts its tasks into run state, stashes the total in
        // its cell at finish, and the next run warm-starts from it.
        struct Warm(u64);
        impl PoolTask for Warm {
            fn run(&mut self, _i: usize) {
                self.0 += 1;
            }
            fn finish(self: Box<Self>, cell: &mut PoolCell) {
                *cell = Box::new(self.0);
            }
        }
        let mut pool = WorkerPool::new();
        for round in 1u64..=3 {
            SchedulerKind::Dynamic.run(8, &mut pool, 200, 3, Metrics::off_ref(), &|_t, cell| {
                Box::new(Warm(cell.downcast_ref::<u64>().copied().unwrap_or(0)))
            });
            let total: u64 = (0..3)
                .map(|t| pool.cell_mut(t).downcast_ref::<u64>().copied().unwrap_or(0))
                .sum();
            assert_eq!(total, 200 * round, "round {round}");
        }
    }

    #[test]
    fn finish_runs_on_every_thread() {
        struct Fin<'a>(&'a AtomicU64);
        impl PoolTask for Fin<'_> {
            fn run(&mut self, _i: usize) {}
            fn finish(self: Box<Self>, _cell: &mut PoolCell) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            let finished = AtomicU64::new(0);
            kind.run(8, &mut pool, 100, 4, Metrics::off_ref(), &|_t, _cell| {
                Box::new(Fin(&finished))
            });
            assert_eq!(finished.load(Ordering::Relaxed), 4, "{kind}");
        }
    }

    #[test]
    fn single_thread_runs_inline_in_order() {
        let order = Mutex::new(Vec::new());
        let tid = std::thread::current().id();
        for kind in SchedulerKind::ALL {
            order.lock().unwrap().clear();
            kind.run(8, &mut WorkerPool::new(), 20, 1, Metrics::off_ref(), &|_t, _cell| {
                Box::new(RunFn(|i| {
                    assert_eq!(std::thread::current().id(), tid);
                    order.lock().unwrap().push(i);
                }))
            });
            assert_eq!(*order.lock().unwrap(), (0..20).collect::<Vec<_>>(), "{kind}");
        }
    }
}
