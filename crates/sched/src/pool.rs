//! A persistent worker pool the schedulers dispatch onto.
//!
//! The streaming loop and the server dispatch one chunk every few
//! milliseconds, and spawning and joining scoped threads for every dispatch
//! measured 8.5 % of `stream-short-t2`'s throughput (EXPERIMENTS.md "No
//! `unsafe` tiers"). [`WorkerPool`] keeps the threads alive between
//! dispatches. It holds no state of its own: what a thread keeps from one
//! dispatch to the next is the caller's typed slot, handed to it by
//! [`SchedulerKind::run`](crate::SchedulerKind::run).
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

type Body<'b> = dyn Fn(usize) + Sync + 'b;

struct Job {
    thread: usize,
    body: &'static Body<'static>,
}

/// A finished job: the panic payload, if its body panicked.
type Done = Option<Box<dyn Any + Send>>;

struct WorkerHandle {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// Persistent worker threads.
///
/// Thread 0 is the calling thread; threads `1..` are pool-owned OS threads
/// spawned on first use and reused until the pool is dropped.
///
/// # Examples
///
/// ```
/// use mg_sched::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let mut pool = WorkerPool::new();
/// let sum = AtomicU64::new(0);
/// pool.scoped(4, &|t| {
///     sum.fetch_add(t as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 0 + 1 + 2 + 3);
/// assert_eq!(pool.threads(), 4);
/// ```
pub struct WorkerPool {
    workers: Vec<WorkerHandle>,
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
}

impl WorkerPool {
    /// An empty pool; threads are spawned lazily by [`WorkerPool::scoped`].
    pub fn new() -> Self {
        let (done_tx, done_rx) = channel();
        WorkerPool { workers: Vec::new(), done_tx, done_rx }
    }

    /// How many threads the pool can currently field without spawning
    /// (pool workers plus the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    fn ensure(&mut self, threads: usize) {
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

    /// Runs `body(t)` for every `t in 0..threads`, body 0 on the calling
    /// thread and the rest on pool workers, and blocks until all bodies
    /// have returned. A panicking body does not kill its pool thread: the
    /// first panic payload (the caller's, else the first to finish) is
    /// re-raised here intact after every body has finished, and the pool
    /// remains usable.
    pub fn scoped<'env>(&mut self, threads: usize, body: &(dyn Fn(usize) + Sync + 'env)) {
        let threads = threads.max(1);
        self.ensure(threads);
        // SAFETY: the lifetime extension is sound because this function
        // does not return until every dispatched job has sent its `Done`
        // message — even when a body panics (panics are caught on both
        // sides and re-raised only after the completion drain). `body` and
        // everything it borrows therefore outlive all uses on the workers.
        #[allow(unsafe_code)]
        let body_static: &'static Body<'static> =
            unsafe { std::mem::transmute::<&Body<'_>, &'static Body<'static>>(body) };
        for (t, worker) in (1..threads).zip(&self.workers) {
            worker.tx.send(Job { thread: t, body: body_static }).expect("pool worker alive");
        }
        let mut first_panic = catch_unwind(AssertUnwindSafe(|| body(0))).err();
        for _ in 1..threads {
            let panic = self.done_rx.recv().expect("pool worker completion");
            first_panic = first_panic.or(panic);
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }
}

fn worker_loop(rx: Receiver<Job>, done: Sender<Done>) {
    while let Ok(Job { thread, body }) = rx.recv() {
        let panic = catch_unwind(AssertUnwindSafe(|| body(thread))).err();
        if done.send(panic).is_err() {
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
            pool.scoped(threads, &|t| {
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
        pool.scoped(4, &|t| {
            first.lock().unwrap()[t] = Some(std::thread::current().id());
        });
        let second = Mutex::new(vec![None; 4]);
        pool.scoped(4, &|t| {
            second.lock().unwrap()[t] = Some(std::thread::current().id());
        });
        assert_eq!(*first.lock().unwrap(), *second.lock().unwrap());
    }

    #[test]
    fn cells_persist_across_runs_and_clear() {
        // The pool keeps nothing between runs: a thread's cell is the
        // caller's typed slot, which every scheduler hands back on the next
        // dispatch exactly as the last body left it.
        use crate::{Metrics, SchedulerKind};
        let mut pool = WorkerPool::new();
        let off = Metrics::off_ref();
        for kind in SchedulerKind::ALL {
            let mut cells = [None::<u64>; 3];
            kind.run(8, &mut pool, &mut cells, 100, 3, off, &|t, cell, grains| {
                grains.for_each(drop);
                *cell = Some(t as u64 + 100);
            });
            let seen = Mutex::new(vec![None; 3]);
            kind.run(8, &mut pool, &mut cells, 100, 3, off, &|t, cell, grains| {
                grains.for_each(drop);
                seen.lock().unwrap()[t] = *cell;
            });
            assert_eq!(*seen.lock().unwrap(), vec![Some(100), Some(101), Some(102)], "{kind}");
            // A body that clears its cell leaves it clear for the next run.
            kind.run(8, &mut pool, &mut cells, 100, 3, off, &|_t, cell, grains| {
                grains.for_each(drop);
                *cell = None;
            });
            let cleared = AtomicUsize::new(0);
            kind.run(8, &mut pool, &mut cells, 100, 3, off, &|_t, cell, grains| {
                grains.for_each(drop);
                if cell.is_none() {
                    cleared.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(cleared.load(Ordering::Relaxed), 3, "{kind}");
        }
    }

    #[test]
    fn body_zero_runs_on_the_calling_thread() {
        let mut pool = WorkerPool::new();
        let caller = std::thread::current().id();
        let ids = Mutex::new(vec![None; 3]);
        pool.scoped(3, &|t| {
            ids.lock().unwrap()[t] = Some(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids[0], Some(caller));
        assert!(ids[1..].iter().all(|id| id.is_some() && *id != Some(caller)));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(3, &|t| {
                if t == 1 {
                    panic!("boom on worker");
                }
            });
        }))
        .expect_err("panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom on worker"));
        // The pool still works afterwards.
        let count = AtomicUsize::new(0);
        pool.scoped(3, &|_t| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_panic_still_waits_for_workers() {
        let mut pool = WorkerPool::new();
        let finished = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(4, &|t| {
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
