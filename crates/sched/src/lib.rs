//! Parallel schedulers for the mapping loop.
//!
//! The scheduler is one of miniGiraffe's three tuning parameters. The proxy
//! ships the OpenMP-dynamic analog ([`SchedulerKind::Dynamic`]) plus an
//! in-house work-stealing scheduler ([`SchedulerKind::WorkStealing`]); the
//! parent pipeline uses the VG-style main-thread dispatcher
//! ([`SchedulerKind::Vg`]).
//!
//! All schedulers run `n` independent tasks (reads to map) on `threads`
//! threads of a persistent [`WorkerPool`] — the caller is thread 0 — and
//! give each thread `&mut` its own slot of caller-kept state (each worker's
//! `CachedGbwt`, like Giraffe's per-thread caches). There is one way in:
//! [`SchedulerKind::run`].
//!
//! # Examples
//!
//! ```
//! use mg_obs::Metrics;
//! use mg_sched::{SchedulerKind, WorkerPool};
//!
//! let mut pool = WorkerPool::new();
//! // One slot per thread: here, each thread's running sum.
//! let mut sums = [0u64; 4];
//! let off = Metrics::off_ref();
//! SchedulerKind::Dynamic.run(64, &mut pool, &mut sums, 1000, 4, off, &|_thread, sum, grains| {
//!     for i in grains {
//!         *sum += i as u64;
//!     }
//! });
//! assert_eq!(sums.iter().sum::<u64>(), 999 * 1000 / 2);
//! ```

#![deny(unsafe_code)]

mod admission;
mod pool;
mod queue;

pub use admission::{AdmissionError, AdmissionQueue, AdmissionStats};
pub use pool::WorkerPool;
pub use queue::{bounded_queue, QueueStats, StreamReceiver, StreamSender};

use mg_obs::{Ctr, Gauge, Hist, Metrics};

use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Mutex, PoisonError};

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
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Dynamic,
        SchedulerKind::WorkStealing,
        SchedulerKind::Vg,
    ];

    /// The two schedulers the paper's autotuning study sweeps.
    pub const TUNED: [SchedulerKind; 2] = [SchedulerKind::Dynamic, SchedulerKind::WorkStealing];

    /// Processes tasks `0..n` on `threads` threads of `pool`, handing out
    /// `batch` indexes at a time (clamped to at least 1). Every index is
    /// processed exactly once.
    ///
    /// `body(thread, slot, grains)` runs once on every thread with `&mut
    /// state[thread]` — warm state the caller keeps from one dispatch to
    /// the next — and must drain `grains`, the indexes the scheduler hands
    /// that thread. Thread 0 is the caller. With `threads <= 1` everything
    /// runs inline on the calling thread against slot 0, in index order.
    /// Dispatched batches, completions, steals, queue depths and idle time
    /// are recorded into `metrics`; pass [`Metrics::off_ref`] when not
    /// observing.
    ///
    /// A panicking body unwinds out of this call with its own payload after
    /// every thread has stopped; the other threads' slots are as their
    /// bodies left them, and the pool stays usable.
    ///
    /// # Panics
    ///
    /// If `state` has fewer slots than `threads` (or none).
    #[allow(clippy::too_many_arguments)]
    pub fn run<S: Send>(
        self,
        batch: usize,
        pool: &mut WorkerPool,
        state: &mut [S],
        n: usize,
        threads: usize,
        metrics: &Metrics,
        body: &Body<'_, S>,
    ) {
        assert!(
            state.len() >= threads.max(1),
            "{threads} threads need as many state slots, got {}",
            state.len()
        );
        let inline = threads <= 1 || n == 0;
        // Each thread takes its own slot once. Only this shim is generic:
        // the three schedulers are compiled once, whatever the state type.
        let slots: Vec<Mutex<Option<&mut S>>> = state[..if inline { 1 } else { threads }]
            .iter_mut()
            .map(|s| Mutex::new(Some(s)))
            .collect();
        let each = |t: usize, grains: &mut Grains<'_>| {
            let slot = slots[t].lock().unwrap_or_else(PoisonError::into_inner).take();
            body(t, slot.expect("one body per thread"), grains)
        };
        if inline {
            // One grain on thread 0 covers everything in order, so metric
            // reconciliation holds at every thread count.
            if n > 0 {
                metrics.gauge_max(Gauge::ThreadsMax, 1);
            }
            let mut all = (n > 0).then_some(0..n);
            return feed(0, metrics, &mut || all.take(), &each);
        }
        metrics.gauge_max(Gauge::ThreadsMax, threads as u64);
        let batch = batch.max(1);
        match self {
            SchedulerKind::Dynamic => run_dynamic(batch, pool, threads, n, metrics, &each),
            SchedulerKind::WorkStealing => run_stealing(batch, pool, threads, n, metrics, &each),
            SchedulerKind::Vg => run_vg(batch, pool, threads, n, metrics, &each),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
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
            "openmp-dynamic" | "dynamic" | "openmp" => Ok(SchedulerKind::Dynamic),
            "work-stealing" | "ws" => Ok(SchedulerKind::WorkStealing),
            "vg-batch" | "vg" => Ok(SchedulerKind::Vg),
            other => Err(format!("unknown scheduler {other:?}")),
        }
    }
}

/// What [`SchedulerKind::run`] calls once per thread: `(thread, slot, grains)`.
pub type Body<'b, S> = dyn Fn(usize, &mut S, &mut Grains<'_>) + Sync + 'b;

/// One thread's body once its slot is bound: `(thread, grains)`.
type ThreadBody<'b> = dyn Fn(usize, &mut Grains<'_>) + Sync + 'b;

/// The indexes [`SchedulerKind::run`] hands one thread in one dispatch,
/// grain by grain; the thread's body iterates it to the end.
pub struct Grains<'a> {
    grain: Range<usize>,
    /// Length of `grain` when it was handed out.
    len: u64,
    next_grain: &'a mut dyn FnMut() -> Option<Range<usize>>,
    metrics: &'a Metrics,
    batches: u64,
    done: u64,
    drained: bool,
}

impl Iterator for Grains<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self.grain.next() {
            Some(i) => Some(i),
            None => self.advance(),
        }
    }
}

impl Grains<'_> {
    /// Counts the grain just finished, then starts the next one.
    fn advance(&mut self) -> Option<usize> {
        if self.len > 0 {
            self.batches += 1;
            self.done += self.len;
            self.metrics.observe(Hist::BatchReads, self.len);
            self.len = 0;
        }
        let Some(grain) = (self.next_grain)() else {
            self.drained = true;
            return None;
        };
        debug_assert!(!grain.is_empty(), "schedulers hand out non-empty grains");
        self.len = grain.len() as u64;
        self.grain = grain;
        self.grain.next()
    }
}

/// Runs one thread's body over the grains `next_grain` hands it, then folds
/// the thread's batch and completion counts into the registry at once.
fn feed(
    thread: usize,
    metrics: &Metrics,
    next_grain: &mut dyn FnMut() -> Option<Range<usize>>,
    body: &ThreadBody<'_>,
) {
    let mut grains =
        Grains { grain: 0..0, len: 0, next_grain, metrics, batches: 0, done: 0, drained: false };
    body(thread, &mut grains);
    debug_assert!(grains.drained, "a scheduler body must drain its grains");
    if grains.batches > 0 {
        metrics.add(Ctr::PoolBatches, grains.batches);
        metrics.add(Ctr::PoolTasksCompleted, grains.done);
    }
}

/// Dynamic batches off a shared atomic counter — the behaviour of OpenMP's
/// `schedule(dynamic, batch)` that miniGiraffe uses by default.
fn run_dynamic(
    batch: usize,
    pool: &mut WorkerPool,
    threads: usize,
    n: usize,
    metrics: &Metrics,
    body: &ThreadBody<'_>,
) {
    let cursor = AtomicUsize::new(0);
    pool.scoped(threads, &|t| {
        let mut next = || {
            let start = cursor.fetch_add(batch, Ordering::Relaxed);
            (start < n).then(|| start..(start + batch).min(n))
        };
        feed(t, metrics, &mut next, body);
    });
}

/// The paper's in-house scheduler: the range is pre-split evenly; each
/// thread consumes its own share in `batch`-sized chunks through a
/// per-thread atomic cursor, and when it runs dry it steals batches from
/// victims round-robin with an atomic read-modify-write.
fn run_stealing(
    batch: usize,
    pool: &mut WorkerPool,
    threads: usize,
    n: usize,
    metrics: &Metrics,
    body: &ThreadBody<'_>,
) {
    let chunk = n.div_ceil(threads);
    let shares: Vec<(AtomicUsize, usize)> = (0..threads)
        .map(|t| {
            let start = (t * chunk).min(n);
            let end = ((t + 1) * chunk).min(n);
            (AtomicUsize::new(start), end)
        })
        .collect();
    pool.scoped(threads, &|t| {
        let mut steals = 0u64;
        // Own share first, then victims round-robin from t + 1.
        let mut victim = 0;
        let mut next = || {
            while victim < threads {
                let (cursor, end) = &shares[(t + victim) % threads];
                let start = cursor.fetch_add(batch, Ordering::Relaxed);
                if start < *end {
                    steals += u64::from(victim > 0);
                    return Some(start..(start + batch).min(*end));
                }
                victim += 1;
            }
            None
        };
        feed(t, metrics, &mut next, body);
        if steals > 0 {
            metrics.add(Ctr::PoolSteals, steals);
        }
    });
}

/// VG-style batch dispatcher: worker threads pull batches from a bounded
/// queue fed by the main thread; when every worker is busy (queue full) the
/// main thread processes a batch itself, mirroring VG's task launcher that
/// the workload characterization observed.
fn run_vg(
    batch: usize,
    pool: &mut WorkerPool,
    threads: usize,
    n: usize,
    metrics: &Metrics,
    body: &ThreadBody<'_>,
) {
    let observe = metrics.enabled();
    // Thread 0 is the dispatcher; the rest are workers sharing the receiver
    // of a bounded channel. The dispatcher takes the sender out of the slot
    // and drops it when dispatch ends (or it unwinds), which winds the
    // workers down.
    let (tx, rx) = mpsc::sync_channel::<Range<usize>>(threads - 1);
    let tx_slot = Mutex::new(Some(tx));
    let rx = Mutex::new(rx);
    // In-flight batch count, maintained only when observing: the channel
    // has no len(), so the dispatcher and workers keep the depth themselves
    // for the queue-depth gauge.
    let depth = AtomicUsize::new(0);
    pool.scoped(threads, &|t| {
        if t == 0 {
            let mut tx = tx_slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            let mut next = 0usize;
            // Dispatch batches; on backpressure, map a batch here.
            let mut dispatch = || {
                while next < n {
                    let grain = next..(next + batch).min(n);
                    next = grain.end;
                    // Count the batch as in flight *before* sending: once
                    // try_send succeeds a worker may already have received
                    // and decremented it.
                    if observe {
                        let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
                        metrics.gauge_max(Gauge::QueueDepthMax, d as u64);
                    }
                    match tx.as_ref().expect("one dispatcher per run").try_send(grain) {
                        Ok(()) => {}
                        Err(TrySendError::Full(grain)) => {
                            if observe {
                                depth.fetch_sub(1, Ordering::Relaxed);
                            }
                            return Some(grain);
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            unreachable!("workers outlive the dispatch loop")
                        }
                    }
                }
                tx = None;
                None
            };
            feed(0, metrics, &mut dispatch, body);
        } else {
            let mut idle_ns = 0u64;
            let mut pull = || {
                let waited = observe.then(std::time::Instant::now);
                // The guard is a temporary, so the lock is released before
                // the batch runs and a panicking body holds none. Poison is
                // shrugged off: the receiver stays coherent whoever unwound.
                let grain = rx.lock().unwrap_or_else(PoisonError::into_inner).recv().ok()?;
                if let Some(t0) = waited {
                    idle_ns += t0.elapsed().as_nanos() as u64;
                    depth.fetch_sub(1, Ordering::Relaxed);
                }
                Some(grain)
            };
            feed(t, metrics, &mut pull, body);
            if idle_ns > 0 {
                metrics.add(Ctr::PoolIdleNs, idle_ns);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    /// Bumps `seen[i]` for every index a thread is handed.
    fn count(seen: &[AtomicU64]) -> impl Fn(usize, &mut (), &mut Grains<'_>) + Sync + '_ {
        move |_t, _slot, grains| {
            for i in grains {
                seen[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn every_index_processed_exactly_once() {
        // One pool and one state array shared by all three kinds and many
        // run shapes, as a mapper keeps them from dispatch to dispatch.
        let mut pool = WorkerPool::new();
        let mut state = [(); 7];
        for kind in SchedulerKind::ALL {
            for n in [0usize, 1, 7, 100, 1000] {
                for threads in [1usize, 2, 4, 7] {
                    let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                    let off = Metrics::off_ref();
                    kind.run(16, &mut pool, &mut state, n, threads, off, &count(&seen));
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
            let mut counts = [0u64; 4];
            kind.run(8, &mut pool, &mut counts, 500, 4, Metrics::off_ref(), &|_t, count, grains| {
                *count += grains.count() as u64;
            });
            assert_eq!(counts.iter().sum::<u64>(), 500, "{kind}");
        }
    }

    #[test]
    fn state_round_trips_through_cells() {
        // Each thread counts its indexes into its own typed cell (its slot
        // of `state`), and the next dispatch starts from what the last one
        // left there.
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            let mut state = [0u64; 3];
            for round in 1u64..=3 {
                kind.run(8, &mut pool, &mut state, 200, 3, Metrics::off_ref(), &|_t, seen, grains| {
                    *seen += grains.count() as u64;
                });
                assert_eq!(state.iter().sum::<u64>(), 200 * round, "{kind} round {round}");
            }
        }
    }

    #[test]
    fn every_thread_gets_its_own_slot() {
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            let caller = std::thread::current().id();
            let mut state = vec![None; 5];
            kind.run(8, &mut pool, &mut state, 100, 4, Metrics::off_ref(), &|t, slot, grains| {
                grains.for_each(drop);
                *slot = Some((t, std::thread::current().id()));
            });
            assert_eq!(state[4], None, "{kind}: a slot past `threads` is left alone");
            let ids: Vec<_> = state[..4].iter().map(|s| s.expect("every thread ran")).collect();
            assert_eq!(ids.iter().map(|&(t, _)| t).collect::<Vec<_>>(), [0, 1, 2, 3], "{kind}");
            assert_eq!(ids[0].1, caller, "{kind}: thread 0 is the caller");
            assert!(ids[1..].iter().all(|&(_, id)| id != caller), "{kind}");
        }
    }

    #[test]
    fn dynamic_balances_skewed_work() {
        // One heavy task must not serialize the rest: with dynamic batches
        // of 1, fast threads take the remainder while one sleeps.
        let done = AtomicU64::new(0);
        let mut pool = WorkerPool::new();
        let off = Metrics::off_ref();
        SchedulerKind::Dynamic.run(1, &mut pool, &mut [(); 4], 64, 4, off, &|_t, _slot, grains| {
            for i in grains {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                done.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn work_stealing_uneven_shares_exactly_once() {
        let n = 4001; // not divisible by 4: last share is short
        let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let (mut pool, off) = (WorkerPool::new(), Metrics::off_ref());
        SchedulerKind::WorkStealing.run(4, &mut pool, &mut [(); 4], n, 4, off, &count(&seen));
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn vg_scheduler_two_threads() {
        // threads = 2 means one worker + the dispatching main thread.
        let seen: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(0)).collect();
        let (mut pool, off) = (WorkerPool::new(), Metrics::off_ref());
        SchedulerKind::Vg.run(32, &mut pool, &mut [(); 2], 300, 2, off, &count(&seen));
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn kind_display_and_parse_roundtrip() {
        for kind in SchedulerKind::ALL {
            let s = kind.to_string();
            assert_eq!(s.parse::<SchedulerKind>().unwrap(), kind);
        }
        assert!("garbage".parse::<SchedulerKind>().is_err());
        assert!("static".parse::<SchedulerKind>().is_err());
        assert_eq!("ws".parse::<SchedulerKind>().unwrap(), SchedulerKind::WorkStealing);
        assert_eq!("openmp".parse::<SchedulerKind>().unwrap(), SchedulerKind::Dynamic);
    }

    #[test]
    fn zero_batch_is_clamped_to_one() {
        let metrics = Metrics::new();
        let seen: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        let mut pool = WorkerPool::new();
        SchedulerKind::Dynamic.run(0, &mut pool, &mut [(); 2], 10, 2, &metrics, &count(&seen));
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        if metrics.enabled() {
            assert_eq!(metrics.report().counter(Ctr::PoolBatches), 10);
        }
    }

    #[test]
    fn single_thread_runs_inline_in_order() {
        let order = Mutex::new(Vec::new());
        let tid = std::thread::current().id();
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            order.lock().unwrap().clear();
            kind.run(8, &mut pool, &mut [()], 20, 1, Metrics::off_ref(), &|_t, _slot, grains| {
                for i in grains {
                    assert_eq!(std::thread::current().id(), tid);
                    order.lock().unwrap().push(i);
                }
            });
            assert_eq!(*order.lock().unwrap(), (0..20).collect::<Vec<_>>(), "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "4 threads need as many state slots, got 3")]
    fn too_few_state_slots_is_refused() {
        let (mut pool, off) = (WorkerPool::new(), Metrics::off_ref());
        SchedulerKind::Dynamic.run(8, &mut pool, &mut [(); 3], 10, 4, off, &|_t, _slot, grains| {
            grains.for_each(drop);
        });
    }

    #[test]
    fn caller_panic_still_waits_for_workers() {
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            let finished = AtomicU64::new(0);
            let err = catch_unwind(AssertUnwindSafe(|| {
                let off = Metrics::off_ref();
                kind.run(4, &mut pool, &mut [(); 4], 100, 4, off, &|t, _slot, grains| {
                    if t == 0 {
                        panic!("boom on caller");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    grains.for_each(drop);
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }))
            .expect_err("panic must propagate");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"boom on caller"), "{kind}");
            // Every worker ran to completion before the panic resumed.
            assert_eq!(finished.load(Ordering::Relaxed), 3, "{kind}");
        }
    }

    #[test]
    fn worker_panic_payload_is_reraised_and_the_state_stays_usable() {
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            let mut state = [0u64; 3];
            let err = catch_unwind(AssertUnwindSafe(|| {
                let off = Metrics::off_ref();
                kind.run(4, &mut pool, &mut state, 100, 3, off, &|t, _slot, grains| {
                    if t == 1 {
                        panic!("boom on worker");
                    }
                    grains.for_each(drop);
                });
            }))
            .expect_err("panic must propagate");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"boom on worker"), "{kind}");
            // The next dispatch on the same pool and state runs every index
            // once.
            let seen: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            kind.run(4, &mut pool, &mut state, 100, 3, Metrics::off_ref(), &|_t, slot, grains| {
                for i in grains {
                    *slot += 1;
                    seen[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{kind}");
            assert_eq!(state.iter().sum::<u64>(), 100, "{kind}");
        }
    }
}
