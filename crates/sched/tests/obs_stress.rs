//! Concurrency stress tests for the scheduler metrics: dispatched batches
//! and completions must reconcile to exactly-once processing for every
//! scheduler kind and thread count, and a panicking worker must neither
//! poison the metrics registry nor wedge the persistent pool.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};

use mg_obs::{Ctr, Hist, Metrics};
use mg_sched::{Grains, SchedulerKind, WorkerPool};

/// Bumps `seen[i]` for every index a thread is handed.
fn count(seen: &[AtomicU64]) -> impl Fn(usize, &mut (), &mut Grains<'_>) + Sync + '_ {
    move |_t, _slot, grains| {
        for i in grains {
            seen[i].fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn metrics_reconcile_to_exactly_once_processing() {
    // One pool and one state array across every configuration, like the
    // mapper's.
    let mut pool = WorkerPool::new();
    let mut state = [(); 8];
    for kind in SchedulerKind::ALL {
        for threads in [1usize, 2, 8] {
            for n in [0usize, 1, 97, 1000] {
                let metrics = Metrics::new();
                let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                kind.run(16, &mut pool, &mut state, n, threads, &metrics, &count(&seen));
                for (i, c) in seen.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "{kind}: index {i} with n={n} threads={threads}"
                    );
                }
                let rep = metrics.report();
                assert_eq!(
                    rep.counter(Ctr::PoolTasksCompleted),
                    n as u64,
                    "{kind}: completions with n={n} threads={threads}"
                );
                // Every completion arrived through a counted batch.
                assert_eq!(
                    rep.hist_sum(Hist::BatchReads),
                    n as u64,
                    "{kind}: batch histogram with n={n} threads={threads}"
                );
                assert_eq!(rep.hist_count(Hist::BatchReads), rep.counter(Ctr::PoolBatches));
                if n > 0 {
                    assert!(rep.counter(Ctr::PoolBatches) >= 1);
                }
                // Steals are a subset of batches, and only work stealing
                // ever reports them.
                assert!(rep.counter(Ctr::PoolSteals) <= rep.counter(Ctr::PoolBatches));
                if kind != SchedulerKind::WorkStealing {
                    assert_eq!(rep.counter(Ctr::PoolSteals), 0, "{kind} must not steal");
                }
            }
        }
    }
}

#[test]
fn steals_reported_under_forced_imbalance() {
    // Thread 0's share is made slow so the others run dry and steal.
    let metrics = Metrics::new();
    let n = 64usize;
    let done = AtomicU64::new(0);
    let mut pool = WorkerPool::new();
    let mut state = [(); 4];
    SchedulerKind::WorkStealing.run(1, &mut pool, &mut state, n, 4, &metrics, &|_t, _slot, grains| {
        for i in grains {
            if i < n / 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), n as u64);
    let rep = metrics.report();
    assert_eq!(rep.counter(Ctr::PoolTasksCompleted), n as u64);
    assert!(
        rep.counter(Ctr::PoolSteals) > 0,
        "slow first share must force at least one steal"
    );
}

#[test]
fn panicking_worker_neither_poisons_metrics_nor_wedges_the_pool() {
    let mut pool = WorkerPool::new();
    let mut state = [(); 4];
    let n = 200usize;
    // The bomb on the first index lands on the first grain dispatched (for
    // VG, a worker's or the dispatcher's); on the last, on the last one.
    for kind in SchedulerKind::ALL {
        for bomb in [0, n - 1] {
            let metrics = Metrics::new();
            let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                kind.run(4, &mut pool, &mut state, n, 4, &metrics, &|_t, _slot, grains| {
                    for i in grains {
                        if i == bomb {
                            panic!("task {i} explodes");
                        }
                        seen[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }));
            assert!(caught.is_err(), "{kind}: the worker panic at {bomb} must surface");
            // The registry is still usable: not poisoned, still recording,
            // and the partial counts it holds stay readable.
            let partial = metrics.report().counter(Ctr::PoolTasksCompleted);
            metrics.add(Ctr::PoolTasksCompleted, 1);
            assert_eq!(metrics.report().counter(Ctr::PoolTasksCompleted), partial + 1);
            // The pool survives: a fresh run on the same pool and state
            // reconciles exactly.
            let metrics2 = Metrics::new();
            let seen2: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            kind.run(4, &mut pool, &mut state, n, 4, &metrics2, &count(&seen2));
            assert!(
                seen2.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{kind}: rerun after a panic at {bomb} missed or repeated an index"
            );
            assert_eq!(metrics2.report().counter(Ctr::PoolTasksCompleted), n as u64);
        }
    }
}
