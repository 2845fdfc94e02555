//! A persistent worker pool the schedulers dispatch onto.
//!
//! Spawning OS threads and rebuilding per-thread state (each mapping
//! worker's `CachedGbwt` most of all) on every `run()` call is pure
//! overhead once a process maps more than one dump — the bench harness and
//! the tuning sweep call the mapping loop hundreds of times. [`WorkerPool`]
//! keeps the threads alive between runs and gives every thread a persistent
//! [`PoolCell`] state slot, so warmed caches and kernel scratch survive
//! from one run to the next.
//!
//! The pool is deliberately dumb: it knows nothing about scheduling. A
//! scheduler builds its dispatch state (shared cursor, steal shares,
//! batch channel, ...) and asks the pool to execute one body per thread via
//! [`WorkerPool::scoped`], which blocks until every body has returned —
//! the same structured-concurrency contract as [`std::thread::scope`], just
//! without the thread churn.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A worker thread's persistent state slot, carried across runs.
///
/// Starts out holding `()`; user code downcasts and replaces it freely.
pub type PoolCell = Box<dyn Any + Send>;

fn empty_cell() -> PoolCell {
    Box::new(())
}

/// A per-thread unit of work for
/// [`SchedulerKind::run`](crate::SchedulerKind::run): built on its thread at
/// the start of a run (with access to the thread's [`PoolCell`]), fed every
/// index the scheduler assigns to that thread, and finished with the cell
/// again so warm state can be stashed for the next run.
pub trait PoolTask: Send {
    /// Processes one task index.
    fn run(&mut self, i: usize);

    /// Called once after the thread's last index; store anything worth
    /// keeping (warm caches, scratch buffers) back into `cell`.
    fn finish(self: Box<Self>, cell: &mut PoolCell) {
        let _ = cell;
    }
}

type Body<'b> = dyn Fn(usize, &mut PoolCell) + Sync + 'b;

struct Job {
    thread: usize,
    cell: PoolCell,
    body: &'static Body<'static>,
}

struct Done {
    thread: usize,
    cell: PoolCell,
    panic: Option<Box<dyn Any + Send>>,
}

struct WorkerHandle {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// Persistent worker threads plus one state slot per thread.
///
/// Thread 0 is the calling thread; threads `1..` are pool-owned OS threads
/// spawned on first use and reused until the pool is dropped. State slots
/// are keyed by thread index, so a run with `t` threads sees exactly the
/// cells the previous `t`-thread run left behind.
///
/// # Examples
///
/// ```
/// use mg_sched::{PoolCell, WorkerPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let mut pool = WorkerPool::new();
/// let sum = AtomicU64::new(0);
/// pool.scoped(4, &|t, _cell| {
///     sum.fetch_add(t as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 0 + 1 + 2 + 3);
/// assert_eq!(pool.threads(), 4);
/// // State slots persist across scoped calls.
/// *pool.cell_mut(2) = Box::new(42u32);
/// pool.scoped(4, &|t, cell: &mut PoolCell| {
///     if t == 2 {
///         assert_eq!(cell.downcast_ref::<u32>(), Some(&42));
///     }
/// });
/// ```
pub struct WorkerPool {
    workers: Vec<WorkerHandle>,
    cells: Vec<PoolCell>,
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
}

impl WorkerPool {
    /// An empty pool; threads are spawned lazily by [`WorkerPool::scoped`].
    pub fn new() -> Self {
        let (done_tx, done_rx) = channel();
        WorkerPool { workers: Vec::new(), cells: vec![empty_cell()], done_tx, done_rx }
    }

    /// How many threads the pool can currently field without spawning
    /// (pool workers plus the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// The persistent state slot for `thread`, growing the slot table if
    /// needed.
    pub fn cell_mut(&mut self, thread: usize) -> &mut PoolCell {
        while self.cells.len() <= thread {
            self.cells.push(empty_cell());
        }
        &mut self.cells[thread]
    }

    fn ensure(&mut self, threads: usize) {
        while self.cells.len() < threads {
            self.cells.push(empty_cell());
        }
        while self.workers.len() + 1 < threads {
            let (tx, rx) = channel::<Job>();
            let done = self.done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mg-pool-{}", self.workers.len() + 1))
                .spawn(move || worker_loop(rx, done))
                .expect("spawn pool worker");
            self.workers.push(WorkerHandle { tx, handle: Some(handle) });
        }
    }

    /// Runs `body(t, cell_t)` for every `t in 0..threads`, body 0 on the
    /// calling thread and the rest on pool workers, and blocks until all
    /// bodies have returned. A panicking body does not kill its pool
    /// thread: the first panic payload is re-raised here after every body
    /// has finished, and the pool remains usable.
    pub fn scoped<'env>(
        &mut self,
        threads: usize,
        body: &(dyn Fn(usize, &mut PoolCell) + Sync + 'env),
    ) {
        let threads = threads.max(1);
        self.ensure(threads);
        // SAFETY: the lifetime extension is sound because this function
        // does not return until every dispatched job has sent its `Done`
        // message — even when a body panics (panics are caught on both
        // sides and re-raised only after the completion drain). `body` and
        // everything it borrows therefore outlive all uses on the workers.
        let body_static: &'static Body<'static> =
            unsafe { std::mem::transmute::<&Body<'_>, &'static Body<'static>>(body) };
        let mut dispatched = 0usize;
        for t in 1..threads {
            let cell = std::mem::replace(&mut self.cells[t], empty_cell());
            self.workers[t - 1]
                .tx
                .send(Job { thread: t, cell, body: body_static })
                .expect("pool worker alive");
            dispatched += 1;
        }
        let mut cell0 = std::mem::replace(&mut self.cells[0], empty_cell());
        let mut first_panic = catch_unwind(AssertUnwindSafe(|| body(0, &mut cell0))).err();
        self.cells[0] = cell0;
        for _ in 0..dispatched {
            let done = self.done_rx.recv().expect("pool worker completion");
            self.cells[done.thread] = done.cell;
            if first_panic.is_none() {
                first_panic = done.panic;
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }
}

fn worker_loop(rx: Receiver<Job>, done: Sender<Done>) {
    while let Ok(job) = rx.recv() {
        let Job { thread, mut cell, body } = job;
        let panic = catch_unwind(AssertUnwindSafe(|| body(thread, &mut cell))).err();
        if done.send(Done { thread, cell, panic }).is_err() {
            break;
        }
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads()).finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Disconnect the job channel; the worker loop exits on its own.
            let (dead_tx, _) = channel();
            worker.tx = dead_tx;
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn scoped_runs_every_body_once() {
        let mut pool = WorkerPool::new();
        for threads in [1usize, 2, 5] {
            let ran = Mutex::new(vec![0u32; threads]);
            pool.scoped(threads, &|t, _cell| {
                ran.lock().unwrap()[t] += 1;
            });
            assert_eq!(*ran.lock().unwrap(), vec![1u32; threads]);
        }
        assert_eq!(pool.threads(), 5);
    }

    #[test]
    fn threads_are_reused_across_runs() {
        let mut pool = WorkerPool::new();
        let first = Mutex::new(vec![None; 4]);
        pool.scoped(4, &|t, _cell| {
            first.lock().unwrap()[t] = Some(std::thread::current().id());
        });
        let second = Mutex::new(vec![None; 4]);
        pool.scoped(4, &|t, _cell| {
            second.lock().unwrap()[t] = Some(std::thread::current().id());
        });
        assert_eq!(*first.lock().unwrap(), *second.lock().unwrap());
    }

    #[test]
    fn cells_persist_across_runs_and_clear() {
        let mut pool = WorkerPool::new();
        pool.scoped(3, &|t, cell| {
            *cell = Box::new(t as u64 + 100);
        });
        let seen = Mutex::new(vec![0u64; 3]);
        pool.scoped(3, &|t, cell| {
            seen.lock().unwrap()[t] = *cell.downcast_ref::<u64>().unwrap();
        });
        assert_eq!(*seen.lock().unwrap(), vec![100, 101, 102]);
        // A body that clears its cell leaves it clear for the next run.
        pool.scoped(3, &|_t, cell| *cell = empty_cell());
        pool.scoped(3, &|_t, cell| {
            assert!(cell.downcast_ref::<u64>().is_none());
        });
    }

    #[test]
    fn cell_zero_belongs_to_the_calling_thread() {
        let mut pool = WorkerPool::new();
        let caller = std::thread::current().id();
        pool.scoped(2, &|t, cell| {
            if t == 0 {
                assert_eq!(std::thread::current().id(), caller);
                *cell = Box::new("caller");
            }
        });
        assert_eq!(pool.cell_mut(0).downcast_ref::<&str>(), Some(&"caller"));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(3, &|t, _cell| {
                if t == 1 {
                    panic!("boom on worker");
                }
            });
        }))
        .expect_err("panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom on worker"));
        // The pool still works afterwards.
        let count = AtomicUsize::new(0);
        pool.scoped(3, &|_t, _cell| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_panic_still_waits_for_workers() {
        let mut pool = WorkerPool::new();
        let finished = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(4, &|t, _cell| {
                if t == 0 {
                    panic!("boom on caller");
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom on caller"));
        // All worker bodies ran to completion before the panic resumed.
        assert_eq!(finished.load(Ordering::Relaxed), 3);
    }
}
