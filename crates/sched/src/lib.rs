//! Parallel schedulers for the mapping loop.
//!
//! The scheduler is one of miniGiraffe's three tuning parameters. The proxy
//! ships the OpenMP-dynamic analog ([`DynamicScheduler`]) plus an in-house
//! work-stealing scheduler ([`WorkStealingScheduler`]); the parent pipeline
//! uses the VG-style main-thread dispatcher ([`VgScheduler`]). A plain
//! static partitioner ([`StaticScheduler`]) rounds out the set for ablation.
//!
//! All schedulers run `n` independent tasks (reads to map) on `threads`
//! worker threads with per-thread mutable state (each worker owns its
//! `CachedGbwt`, like Giraffe's per-thread caches).
//!
//! # Examples
//!
//! ```
//! use mg_sched::{Scheduler, SchedulerKind, DynamicScheduler};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let scheduler = DynamicScheduler::new(64);
//! let sum = AtomicU64::new(0);
//! scheduler.run(1000, 4, |_thread| (), &|_state, i| {
//!     sum.fetch_add(i as u64, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! # let _ = SchedulerKind::Dynamic;
//! ```

mod admission;
mod pool;
mod queue;

pub use admission::{AdmissionError, AdmissionLimits, AdmissionQueue, AdmissionStats};
pub use pool::{PoolCell, PoolTask, WorkerPool};
pub use queue::{bounded_queue, QueueStats, StreamReceiver, StreamSender};

use pool::{Launch, ScopeLaunch};

use mg_obs::{Ctr, Gauge, Hist, Metrics};

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The one definition of the in-flight chunk window default, shared by the
/// streaming pipelines, the serving executor, and the adaptive controller:
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

/// Runs `n` independent tasks across worker threads.
///
/// Implementors decide how indexes are distributed; every index in `0..n`
/// is processed exactly once.
pub trait Scheduler: Send + Sync {
    /// A short stable name (used in result tables: `openmp-dynamic`,
    /// `work-stealing`, ...).
    fn name(&self) -> &'static str;

    /// The batch size this scheduler hands to threads at a time (0 when the
    /// scheduler has no batching notion).
    fn batch_size(&self) -> usize;

    /// Processes tasks `0..n` on `threads` threads.
    ///
    /// `init(thread_id)` builds the per-thread state; `task(&mut state, i)`
    /// processes item `i`. With `threads <= 1` everything runs inline on
    /// the calling thread.
    fn run<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env;

    /// Processes tasks `0..n` on a persistent [`WorkerPool`] instead of
    /// throwaway scoped threads.
    ///
    /// Dispatch is identical to [`Scheduler::run`]; the difference is where
    /// per-thread state lives. `init(thread_id, cell)` builds the run state
    /// (pulling warm pieces out of the thread's persistent [`PoolCell`] if
    /// it wants), and `fini(thread_id, state, cell)` runs after the
    /// thread's last task so warm state can be stashed back for the next
    /// run. With `threads <= 1` everything runs inline on the calling
    /// thread against cell 0.
    fn run_pooled<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env;

    /// [`Scheduler::run`] with scheduler-level metrics (dispatched batches,
    /// completions, steals, queue depths, idle time) recorded into
    /// `metrics`. The default ignores the registry.
    fn run_obs<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        let _ = metrics;
        self.run(n, threads, init, task);
    }

    /// [`Scheduler::run_pooled`] with scheduler-level metrics recorded into
    /// `metrics`. The default ignores the registry.
    #[allow(clippy::too_many_arguments)]
    fn run_pooled_obs<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        let _ = metrics;
        self.run_pooled(pool, n, threads, init, task, fini);
    }
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

    /// Instantiates the scheduler with a batch size.
    pub fn build(self, batch_size: usize) -> Box<dyn AnyScheduler> {
        match self {
            SchedulerKind::Static => Box::new(StaticScheduler),
            SchedulerKind::Dynamic => Box::new(DynamicScheduler::new(batch_size)),
            SchedulerKind::WorkStealing => Box::new(WorkStealingScheduler::new(batch_size)),
            SchedulerKind::Vg => Box::new(VgScheduler::new(batch_size)),
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

/// Object-safe wrapper over [`Scheduler`] for loops whose concrete
/// scheduler is picked at runtime (e.g. by the tuning sweep).
pub trait AnyScheduler: Send + Sync {
    /// See [`Scheduler::name`].
    fn name(&self) -> &'static str;
    /// See [`Scheduler::batch_size`].
    fn batch_size(&self) -> usize;
    /// Type-erased run: `make_worker(thread_id)` returns the closure that
    /// processes one index on that thread.
    fn run_erased<'env>(
        &self,
        n: usize,
        threads: usize,
        make_worker: &(dyn Fn(usize) -> Box<dyn FnMut(usize) + Send + 'env> + Sync + 'env),
    );

    /// Type-erased [`Scheduler::run_pooled`]: `make_task(thread_id, cell)`
    /// builds the per-thread [`PoolTask`] on its pool thread, with the
    /// thread's persistent cell available to warm-start from; the task's
    /// `finish` gets the cell back after the thread's last index.
    fn run_pooled_erased<'env>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        make_task: &(dyn Fn(usize, &mut PoolCell) -> Box<dyn PoolTask + 'env> + Sync + 'env),
    );

    /// [`AnyScheduler::run_erased`] with scheduler-level metrics.
    fn run_erased_obs<'env>(
        &self,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        make_worker: &(dyn Fn(usize) -> Box<dyn FnMut(usize) + Send + 'env> + Sync + 'env),
    );

    /// [`AnyScheduler::run_pooled_erased`] with scheduler-level metrics.
    fn run_pooled_erased_obs<'env>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        make_task: &(dyn Fn(usize, &mut PoolCell) -> Box<dyn PoolTask + 'env> + Sync + 'env),
    );
}

impl<T: Scheduler> AnyScheduler for T {
    fn name(&self) -> &'static str {
        Scheduler::name(self)
    }

    fn batch_size(&self) -> usize {
        Scheduler::batch_size(self)
    }

    fn run_erased<'env>(
        &self,
        n: usize,
        threads: usize,
        make_worker: &(dyn Fn(usize) -> Box<dyn FnMut(usize) + Send + 'env> + Sync + 'env),
    ) {
        self.run(
            n,
            threads,
            |t| make_worker(t),
            &|worker: &mut Box<dyn FnMut(usize) + Send + 'env>, i| worker(i),
        );
    }

    fn run_pooled_erased<'env>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        make_task: &(dyn Fn(usize, &mut PoolCell) -> Box<dyn PoolTask + 'env> + Sync + 'env),
    ) {
        self.run_pooled(
            pool,
            n,
            threads,
            |t, cell: &mut PoolCell| make_task(t, cell),
            &|task: &mut Box<dyn PoolTask + 'env>, i| task.run(i),
            |_t, task: Box<dyn PoolTask + 'env>, cell: &mut PoolCell| task.finish(cell),
        );
    }

    fn run_erased_obs<'env>(
        &self,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        make_worker: &(dyn Fn(usize) -> Box<dyn FnMut(usize) + Send + 'env> + Sync + 'env),
    ) {
        self.run_obs(
            n,
            threads,
            metrics,
            |t| make_worker(t),
            &|worker: &mut Box<dyn FnMut(usize) + Send + 'env>, i| worker(i),
        );
    }

    fn run_pooled_erased_obs<'env>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        make_task: &(dyn Fn(usize, &mut PoolCell) -> Box<dyn PoolTask + 'env> + Sync + 'env),
    ) {
        self.run_pooled_obs(
            pool,
            n,
            threads,
            metrics,
            |t, cell: &mut PoolCell| make_task(t, cell),
            &|task: &mut Box<dyn PoolTask + 'env>, i| task.run(i),
            |_t, task: Box<dyn PoolTask + 'env>, cell: &mut PoolCell| task.finish(cell),
        );
    }
}

/// Contiguous equal chunks, one per thread. No balancing at all: the
/// baseline the dynamic schedulers are measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticScheduler;

impl StaticScheduler {
    #[allow(clippy::too_many_arguments)]
    fn drive<'env, S, I, F>(
        &self,
        launch: &mut dyn Launch,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        if threads <= 1 || n == 0 {
            return drive_inline(launch, n, metrics, &init, task, &fini);
        }
        metrics.gauge_max(Gauge::ThreadsMax, threads as u64);
        let chunk = n.div_ceil(threads);
        launch.launch(threads, &|t, cell| {
            let mut state = init(t, cell);
            let start = (t * chunk).min(n);
            let end = ((t + 1) * chunk).min(n);
            for i in start..end {
                task(&mut state, i);
            }
            if end > start {
                // Each thread's contiguous share is one "batch".
                metrics.add(Ctr::PoolBatches, 1);
                metrics.add(Ctr::PoolTasksCompleted, (end - start) as u64);
                metrics.observe(Hist::BatchReads, (end - start) as u64);
            }
            fini(t, state, cell);
        });
    }
}

impl Scheduler for StaticScheduler {
    fn name(&self) -> &'static str {
        "static"
    }

    fn batch_size(&self) -> usize {
        0
    }

    fn run<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        self.drive(&mut ScopeLaunch, n, threads, Metrics::off_ref(), unpooled_init(init), task, unpooled_fini());
    }

    fn run_pooled<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        self.drive(pool, n, threads, Metrics::off_ref(), init, task, fini);
    }

    fn run_obs<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        self.drive(&mut ScopeLaunch, n, threads, metrics, unpooled_init(init), task, unpooled_fini());
    }

    fn run_pooled_obs<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        self.drive(pool, n, threads, metrics, init, task, fini);
    }
}

/// Shared `threads <= 1 || n == 0` path: one body on thread 0 processes
/// everything in order (and still reports completions, so metric
/// reconciliation holds at every thread count).
fn drive_inline<'env, S>(
    launch: &mut dyn Launch,
    n: usize,
    metrics: &Metrics,
    init: &(dyn Fn(usize, &mut PoolCell) -> S + Sync + 'env),
    task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    fini: &(dyn Fn(usize, S, &mut PoolCell) + Sync + 'env),
) where
    S: Send,
{
    launch.launch(1, &|t, cell| {
        let mut state = init(t, cell);
        for i in 0..n {
            task(&mut state, i);
        }
        if n > 0 {
            metrics.gauge_max(Gauge::ThreadsMax, 1);
            metrics.add(Ctr::PoolBatches, 1);
            metrics.add(Ctr::PoolTasksCompleted, n as u64);
            metrics.observe(Hist::BatchReads, n as u64);
        }
        fini(t, state, cell);
    });
}

/// Adapts a pool-less `init` (no cell access) for `drive`.
fn unpooled_init<'env, S, I>(init: I) -> impl Fn(usize, &mut PoolCell) -> S + Sync + 'env
where
    I: Fn(usize) -> S + Sync + 'env,
{
    move |t, _cell| init(t)
}

/// A `fini` that just drops the run state.
fn unpooled_fini<S>() -> impl Fn(usize, S, &mut PoolCell) + Sync {
    |_t, state, _cell| drop(state)
}

/// Dynamic batches off a shared atomic counter — the behaviour of OpenMP's
/// `schedule(dynamic, batch)` that miniGiraffe uses by default.
#[derive(Debug, Clone, Copy)]
pub struct DynamicScheduler {
    batch: usize,
}

impl DynamicScheduler {
    /// Creates the scheduler; `batch` is clamped to at least 1.
    pub fn new(batch: usize) -> Self {
        DynamicScheduler { batch: batch.max(1) }
    }
}

impl DynamicScheduler {
    #[allow(clippy::too_many_arguments)]
    fn drive<'env, S, I, F>(
        &self,
        launch: &mut dyn Launch,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        if threads <= 1 || n == 0 {
            return drive_inline(launch, n, metrics, &init, task, &fini);
        }
        metrics.gauge_max(Gauge::ThreadsMax, threads as u64);
        let cursor = AtomicUsize::new(0);
        launch.launch(threads, &|t, cell| {
            let mut state = init(t, cell);
            let mut batches = 0u64;
            let mut done = 0u64;
            loop {
                let start = cursor.fetch_add(self.batch, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + self.batch).min(n);
                for i in start..end {
                    task(&mut state, i);
                }
                batches += 1;
                done += (end - start) as u64;
                metrics.observe(Hist::BatchReads, (end - start) as u64);
            }
            if batches > 0 {
                metrics.add(Ctr::PoolBatches, batches);
                metrics.add(Ctr::PoolTasksCompleted, done);
            }
            fini(t, state, cell);
        });
    }
}

impl Scheduler for DynamicScheduler {
    fn name(&self) -> &'static str {
        "openmp-dynamic"
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn run<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        self.drive(&mut ScopeLaunch, n, threads, Metrics::off_ref(), unpooled_init(init), task, unpooled_fini());
    }

    fn run_pooled<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        self.drive(pool, n, threads, Metrics::off_ref(), init, task, fini);
    }

    fn run_obs<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        self.drive(&mut ScopeLaunch, n, threads, metrics, unpooled_init(init), task, unpooled_fini());
    }

    fn run_pooled_obs<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        self.drive(pool, n, threads, metrics, init, task, fini);
    }
}

/// The paper's in-house scheduler: the range is pre-split evenly; each
/// thread consumes its own share in `batch`-sized chunks through a
/// per-thread atomic cursor, and when it runs dry it steals batches from
/// victims round-robin with an atomic read-modify-write.
#[derive(Debug, Clone, Copy)]
pub struct WorkStealingScheduler {
    batch: usize,
}

impl WorkStealingScheduler {
    /// Creates the scheduler; `batch` is clamped to at least 1.
    pub fn new(batch: usize) -> Self {
        WorkStealingScheduler { batch: batch.max(1) }
    }
}

impl WorkStealingScheduler {
    #[allow(clippy::too_many_arguments)]
    fn drive<'env, S, I, F>(
        &self,
        launch: &mut dyn Launch,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        if threads <= 1 || n == 0 {
            return drive_inline(launch, n, metrics, &init, task, &fini);
        }
        metrics.gauge_max(Gauge::ThreadsMax, threads as u64);
        let chunk = n.div_ceil(threads);
        let shares: Vec<(AtomicUsize, usize)> = (0..threads)
            .map(|t| {
                let start = (t * chunk).min(n);
                let end = ((t + 1) * chunk).min(n);
                (AtomicUsize::new(start), end)
            })
            .collect();
        launch.launch(threads, &|t, cell| {
            let mut state = init(t, cell);
            let mut batches = 0u64;
            let mut steals = 0u64;
            let mut done = 0u64;
            // Own share first, then victims round-robin from t + 1.
            for v in 0..threads {
                let victim = (t + v) % threads;
                let (cursor, end) = &shares[victim];
                loop {
                    let start = cursor.fetch_add(self.batch, Ordering::Relaxed);
                    if start >= *end {
                        break;
                    }
                    let stop = (start + self.batch).min(*end);
                    for i in start..stop {
                        task(&mut state, i);
                    }
                    batches += 1;
                    done += (stop - start) as u64;
                    if v > 0 {
                        steals += 1;
                    }
                    metrics.observe(Hist::BatchReads, (stop - start) as u64);
                }
            }
            if batches > 0 {
                metrics.add(Ctr::PoolBatches, batches);
                metrics.add(Ctr::PoolTasksCompleted, done);
            }
            if steals > 0 {
                metrics.add(Ctr::PoolSteals, steals);
            }
            fini(t, state, cell);
        });
    }
}

impl Scheduler for WorkStealingScheduler {
    fn name(&self) -> &'static str {
        "work-stealing"
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn run<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        self.drive(&mut ScopeLaunch, n, threads, Metrics::off_ref(), unpooled_init(init), task, unpooled_fini());
    }

    fn run_pooled<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        self.drive(pool, n, threads, Metrics::off_ref(), init, task, fini);
    }

    fn run_obs<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        self.drive(&mut ScopeLaunch, n, threads, metrics, unpooled_init(init), task, unpooled_fini());
    }

    fn run_pooled_obs<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        self.drive(pool, n, threads, metrics, init, task, fini);
    }
}

/// VG-style batch dispatcher: worker threads pull batches from a bounded
/// queue fed by the main thread; when every worker is busy (queue full) the
/// main thread processes a batch itself, mirroring VG's task launcher that
/// the workload characterization observed.
#[derive(Debug, Clone, Copy)]
pub struct VgScheduler {
    batch: usize,
}

impl VgScheduler {
    /// Creates the scheduler; `batch` is clamped to at least 1.
    pub fn new(batch: usize) -> Self {
        VgScheduler { batch: batch.max(1) }
    }
}

impl VgScheduler {
    #[allow(clippy::too_many_arguments)]
    fn drive<'env, S, I, F>(
        &self,
        launch: &mut dyn Launch,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        if threads <= 1 || n == 0 {
            return drive_inline(launch, n, metrics, &init, task, &fini);
        }
        metrics.gauge_max(Gauge::ThreadsMax, threads as u64);
        let observe = metrics.enabled();
        // Thread 0 is the dispatcher; the rest are workers fed by a
        // bounded channel. The dispatcher takes the sender out of the slot
        // and drops it when dispatch ends, which winds the workers down.
        let workers = threads - 1;
        let (tx, rx) = crossbeam::channel::bounded::<(usize, usize)>(workers.max(1));
        let tx_slot = std::sync::Mutex::new(Some(tx));
        // In-flight batch count, maintained only when observing: the shim
        // channel has no len(), so the dispatcher and workers keep the
        // depth themselves for the queue-depth gauge.
        let depth = AtomicUsize::new(0);
        launch.launch(threads, &|t, cell| {
            let mut state = init(t, cell);
            let mut batches = 0u64;
            let mut done = 0u64;
            if t == 0 {
                let tx = tx_slot.lock().unwrap().take().expect("dispatcher runs once");
                // Dispatch batches; on backpressure, map a batch here.
                let mut next = 0usize;
                while next < n {
                    let end = (next + self.batch).min(n);
                    // Count the batch as in flight *before* sending: once
                    // try_send succeeds a worker may already have received
                    // and decremented it.
                    if observe {
                        let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
                        metrics.gauge_max(Gauge::QueueDepthMax, d as u64);
                    }
                    match tx.try_send((next, end)) {
                        Ok(()) => {}
                        Err(crossbeam::channel::TrySendError::Full(_)) => {
                            if observe {
                                depth.fetch_sub(1, Ordering::Relaxed);
                            }
                            for i in next..end {
                                task(&mut state, i);
                            }
                            batches += 1;
                            done += (end - next) as u64;
                            metrics.observe(Hist::BatchReads, (end - next) as u64);
                        }
                        Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                            unreachable!("workers outlive the dispatch loop")
                        }
                    }
                    next = end;
                }
            } else {
                let rx = rx.clone();
                let mut idle_ns = 0u64;
                loop {
                    let waited = if observe { Some(std::time::Instant::now()) } else { None };
                    let Ok((start, end)) = rx.recv() else { break };
                    if let Some(t0) = waited {
                        idle_ns += t0.elapsed().as_nanos() as u64;
                        depth.fetch_sub(1, Ordering::Relaxed);
                    }
                    for i in start..end {
                        task(&mut state, i);
                    }
                    batches += 1;
                    done += (end - start) as u64;
                    metrics.observe(Hist::BatchReads, (end - start) as u64);
                }
                if idle_ns > 0 {
                    metrics.add(Ctr::PoolIdleNs, idle_ns);
                }
            }
            if batches > 0 {
                metrics.add(Ctr::PoolBatches, batches);
                metrics.add(Ctr::PoolTasksCompleted, done);
            }
            fini(t, state, cell);
        });
    }
}

impl Scheduler for VgScheduler {
    fn name(&self) -> &'static str {
        "vg-batch"
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn run<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        self.drive(&mut ScopeLaunch, n, threads, Metrics::off_ref(), unpooled_init(init), task, unpooled_fini());
    }

    fn run_pooled<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        self.drive(pool, n, threads, Metrics::off_ref(), init, task, fini);
    }

    fn run_obs<'env, S, I>(
        &self,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
    ) where
        S: Send,
        I: Fn(usize) -> S + Sync + 'env,
    {
        self.drive(&mut ScopeLaunch, n, threads, metrics, unpooled_init(init), task, unpooled_fini());
    }

    fn run_pooled_obs<'env, S, I, F>(
        &self,
        pool: &mut WorkerPool,
        n: usize,
        threads: usize,
        metrics: &Metrics,
        init: I,
        task: &(dyn Fn(&mut S, usize) + Sync + 'env),
        fini: F,
    ) where
        S: Send,
        I: Fn(usize, &mut PoolCell) -> S + Sync + 'env,
        F: Fn(usize, S, &mut PoolCell) + Sync + 'env,
    {
        self.drive(pool, n, threads, metrics, init, task, fini);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    fn all_schedulers() -> Vec<Box<dyn AnyScheduler>> {
        SchedulerKind::ALL.iter().map(|k| k.build(16)).collect()
    }

    #[test]
    fn every_index_processed_exactly_once() {
        for sched in all_schedulers() {
            for n in [0usize, 1, 7, 100, 1000] {
                for threads in [1usize, 2, 4, 7] {
                    let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                    let seen_ref = &seen;
                    sched.run_erased(n, threads, &move |_t| {
                        Box::new(move |i| {
                            seen_ref[i].fetch_add(1, Ordering::Relaxed);
                        })
                    });
                    for (i, c) in seen.iter().enumerate() {
                        assert_eq!(
                            c.load(Ordering::Relaxed),
                            1,
                            "{}: index {i} with n={n} threads={threads}",
                            sched.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn per_thread_state_sums_to_total() {
        for kind in SchedulerKind::ALL {
            let counted = Mutex::new(0u64);
            let counted_ref = &counted;
            struct State<'a> {
                count: u64,
                sink: &'a Mutex<u64>,
            }
            impl State<'_> {
                fn bump(&mut self) {
                    self.count += 1;
                }
            }
            impl Drop for State<'_> {
                fn drop(&mut self) {
                    *self.sink.lock().unwrap() += self.count;
                }
            }
            kind.build(8).run_erased(500, 4, &move |_t| {
                let mut state = State { count: 0, sink: counted_ref };
                Box::new(move |_i| state.bump())
            });
            assert_eq!(*counted.lock().unwrap(), 500, "{kind}");
        }
    }

    #[test]
    fn dynamic_balances_skewed_work() {
        // One heavy task must not serialize the rest: with dynamic batches
        // of 1, fast threads take the remainder while one sleeps.
        let sched = DynamicScheduler::new(1);
        let done = AtomicU64::new(0);
        sched.run(
            64,
            4,
            |_t| (),
            &|_s, i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                done.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn work_stealing_processes_all_with_uneven_shares() {
        let processed = Mutex::new(vec![0u64; 4]);
        let pb = &processed;
        WorkStealingScheduler::new(4).run(
            4001, // not divisible by 4: last share is short
            4,
            |t| t,
            &|t, _i| {
                pb.lock().unwrap()[*t] += 1;
            },
        );
        assert_eq!(processed.lock().unwrap().iter().sum::<u64>(), 4001);
    }

    #[test]
    fn vg_scheduler_two_threads() {
        // threads = 2 means one worker + the dispatching main thread.
        let seen = Mutex::new(vec![false; 300]);
        let seen_ref = &seen;
        VgScheduler::new(32).run(
            300,
            2,
            |_t| (),
            &|_s, i| {
                let mut v = seen_ref.lock().unwrap();
                assert!(!v[i], "index {i} processed twice");
                v[i] = true;
            },
        );
        assert!(seen.lock().unwrap().iter().all(|&b| b));
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
    fn batch_size_reported_and_clamped() {
        assert_eq!(SchedulerKind::Dynamic.build(128).batch_size(), 128);
        assert_eq!(SchedulerKind::WorkStealing.build(256).batch_size(), 256);
        assert_eq!(SchedulerKind::Vg.build(512).batch_size(), 512);
        assert_eq!(Scheduler::batch_size(&DynamicScheduler::new(0)), 1);
    }

    #[test]
    fn pooled_every_index_processed_exactly_once() {
        // One persistent pool shared by all four kinds and many run shapes:
        // the scheduler contract must hold on recycled threads too.
        let mut pool = WorkerPool::new();
        for sched in all_schedulers() {
            for n in [0usize, 1, 7, 1000] {
                for threads in [1usize, 2, 7] {
                    let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                    let seen_ref = &seen;
                    sched.run_pooled_erased(&mut pool, n, threads, &move |_t, _cell| {
                        struct Count<'a>(&'a [AtomicU64]);
                        impl PoolTask for Count<'_> {
                            fn run(&mut self, i: usize) {
                                self.0[i].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Box::new(Count(seen_ref))
                    });
                    for (i, c) in seen.iter().enumerate() {
                        assert_eq!(
                            c.load(Ordering::Relaxed),
                            1,
                            "{}: index {i} with n={n} threads={threads}",
                            sched.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_work_stealing_uneven_shares_exactly_once() {
        let mut pool = WorkerPool::new();
        let n = 4001; // not divisible by 4: last share is short
        let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let seen_ref = &seen;
        WorkStealingScheduler::new(4).run_pooled(
            &mut pool,
            n,
            4,
            |_t, _cell| (),
            &|_s, i| {
                seen_ref[i].fetch_add(1, Ordering::Relaxed);
            },
            |_t, _s, _cell| {},
        );
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pooled_state_round_trips_through_cells() {
        // Each thread counts its tasks into run state, stashes the total in
        // its cell at fini, and the next run warm-starts from it.
        let mut pool = WorkerPool::new();
        let sched = DynamicScheduler::new(8);
        for round in 1u64..=3 {
            sched.run_pooled(
                &mut pool,
                200,
                3,
                |_t, cell: &mut PoolCell| {
                    let warm = cell.downcast_ref::<u64>().copied().unwrap_or(0);
                    (warm, 0u64)
                },
                &|state: &mut (u64, u64), _i| state.1 += 1,
                |_t, (warm, count), cell: &mut PoolCell| {
                    *cell = Box::new(warm + count);
                },
            );
            let total: u64 = (0..3)
                .map(|t| pool.cell_mut(t).downcast_ref::<u64>().copied().unwrap_or(0))
                .sum();
            assert_eq!(total, 200 * round, "round {round}");
        }
    }

    #[test]
    fn pooled_finish_runs_on_every_thread() {
        let mut pool = WorkerPool::new();
        for kind in SchedulerKind::ALL {
            let finished = AtomicU64::new(0);
            let fref = &finished;
            kind.build(8).run_pooled_erased(&mut pool, 100, 4, &move |_t, _cell| {
                struct Fin<'a>(&'a AtomicU64);
                impl PoolTask for Fin<'_> {
                    fn run(&mut self, _i: usize) {}
                    fn finish(self: Box<Self>, _cell: &mut PoolCell) {
                        self.0.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Box::new(Fin(fref))
            });
            assert_eq!(finished.load(Ordering::Relaxed), 4, "{kind}");
        }
    }

    #[test]
    fn single_thread_runs_inline_in_order() {
        let order = Mutex::new(Vec::new());
        let tid = std::thread::current().id();
        DynamicScheduler::new(8).run(
            20,
            1,
            |_t| (),
            &|_s, i| {
                assert_eq!(std::thread::current().id(), tid);
                order.lock().unwrap().push(i);
            },
        );
        assert_eq!(*order.lock().unwrap(), (0..20).collect::<Vec<_>>());
    }
}
