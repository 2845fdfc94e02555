//! Admission control for the long-lived serving path.
//!
//! A bounded pending-job queue with per-client in-flight caps and a drain
//! switch. Connection threads call [`AdmissionQueue::try_submit`] and get
//! an immediate verdict — admitted, or a typed [`AdmissionError`] the
//! transport turns into a `BUSY` frame — so a saturated server rejects
//! cheaply instead of buffering unboundedly (the same backpressure idea as
//! the streaming hand-off queue, applied at job granularity). The serving
//! executor pops admitted jobs with [`AdmissionQueue::pop_wait`] and
//! reports completion with [`AdmissionQueue::finish`], which is what makes
//! the per-client cap an *in-flight* cap (pending + executing), not just a
//! queue-depth cap.
//!
//! The queue is deliberately scheduler-agnostic: it hands out `(client,
//! job)` pairs in FIFO order and leaves fairness between admitted jobs to
//! the executor's chunk-level interleaving.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Why a job was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The shared pending queue is at capacity.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The submitting client already has its maximum jobs in flight.
    ClientSaturated {
        /// Jobs this client currently has pending or executing.
        in_flight: usize,
        /// The configured per-client cap.
        cap: usize,
    },
    /// The server is draining: it finishes accepted jobs but takes no new
    /// ones.
    Draining,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "pending queue full ({capacity} jobs)")
            }
            AdmissionError::ClientSaturated { in_flight, cap } => {
                write!(f, "client has {in_flight} jobs in flight (cap {cap})")
            }
            AdmissionError::Draining => write!(f, "server is draining"),
        }
    }
}

/// Counters the queue keeps about its own behaviour, for `STATS` export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Jobs acknowledged: admitted to the pending queue, or failed on
    /// arrival ([`AdmissionQueue::admit_failed`]).
    pub accepted: u64,
    /// Jobs refused because the queue was full.
    pub rejected_full: u64,
    /// Jobs refused by the per-client in-flight cap.
    pub rejected_client: u64,
    /// Jobs refused because the queue was draining.
    pub rejected_draining: u64,
    /// Jobs currently pending (admitted, not yet popped).
    pub pending: usize,
    /// Deepest pending-queue occupancy observed.
    pub pending_high_water: usize,
    /// Jobs popped by the executor and not yet finished.
    pub executing: usize,
}

struct Inner<T> {
    pending: VecDeque<(u64, T)>,
    /// Per-client in-flight counts: pending + executing jobs.
    in_flight: HashMap<u64, usize>,
    draining: bool,
    stats: AdmissionStats,
    /// Maximum pending (admitted, not yet popped) jobs.
    capacity: usize,
    /// Maximum in-flight (pending + executing) jobs per client.
    per_client_cap: usize,
}

/// A bounded, drain-aware pending-job queue with per-client in-flight caps.
///
/// # Examples
///
/// ```
/// use mg_sched::{AdmissionError, AdmissionQueue};
///
/// let queue: AdmissionQueue<&str> = AdmissionQueue::new(2, 1);
/// queue.try_submit(7, "job a").unwrap();
/// // Client 7 is at its in-flight cap of 1.
/// let (err, _) = queue.try_submit(7, "job b").unwrap_err();
/// assert_eq!(err, AdmissionError::ClientSaturated { in_flight: 1, cap: 1 });
/// let (client, job) = queue.try_pop().unwrap();
/// assert_eq!((client, job), (7, "job a"));
/// // Popped but not finished: still in flight.
/// assert!(queue.try_submit(7, "job b").is_err());
/// queue.finish(7);
/// assert!(queue.try_submit(7, "job b").is_ok());
/// ```
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue holding at most `capacity` pending jobs, with at most
    /// `per_client_cap` jobs in flight per client (both clamped to >= 1).
    pub fn new(capacity: usize, per_client_cap: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                pending: VecDeque::new(),
                in_flight: HashMap::new(),
                draining: false,
                stats: AdmissionStats::default(),
                capacity: capacity.max(1),
                per_client_cap: per_client_cap.max(1),
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Submits a job for `client`. On rejection the job is handed back with
    /// the reason, so the caller can report `BUSY` without cloning payloads.
    pub fn try_submit(&self, client: u64, job: T) -> Result<(), (AdmissionError, T)> {
        let mut inner = self.lock();
        if inner.draining {
            inner.stats.rejected_draining += 1;
            return Err((AdmissionError::Draining, job));
        }
        // The client cap is checked first: a hog that saturated its own
        // allowance is told so even when it also filled the shared queue.
        let (capacity, per_client_cap) = (inner.capacity, inner.per_client_cap);
        let in_flight = inner.in_flight.get(&client).copied().unwrap_or(0);
        if in_flight >= per_client_cap {
            inner.stats.rejected_client += 1;
            return Err((
                AdmissionError::ClientSaturated { in_flight, cap: per_client_cap },
                job,
            ));
        }
        if inner.pending.len() >= capacity {
            inner.stats.rejected_full += 1;
            return Err((AdmissionError::QueueFull { capacity }, job));
        }
        *inner.in_flight.entry(client).or_insert(0) += 1;
        inner.pending.push_back((client, job));
        inner.stats.accepted += 1;
        inner.stats.pending = inner.pending.len();
        inner.stats.pending_high_water = inner.stats.pending_high_water.max(inner.pending.len());
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Counts a job the caller acknowledged but failed before it could be
    /// queued (its payload did not parse): accepted and finished at once,
    /// so it holds no slot, and `accepted` still equals completed plus
    /// failed once the queue is idle.
    pub fn admit_failed(&self) {
        self.lock().stats.accepted += 1;
    }

    /// Pops the oldest pending job without blocking.
    pub fn try_pop(&self) -> Option<(u64, T)> {
        let mut inner = self.lock();
        let item = inner.pending.pop_front();
        if item.is_some() {
            inner.stats.pending = inner.pending.len();
            inner.stats.executing += 1;
        }
        item
    }

    /// Waits up to `timeout` for a pending job. Returns immediately with
    /// `None` when the queue is draining and empty (the executor's exit
    /// signal).
    pub fn pop_wait(&self, timeout: Duration) -> Option<(u64, T)> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.pending.pop_front() {
                inner.stats.pending = inner.pending.len();
                inner.stats.executing += 1;
                return Some(item);
            }
            if inner.draining {
                return None;
            }
            let (next, wait) = self
                .ready
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            inner = next;
            if wait.timed_out() && inner.pending.is_empty() {
                return None;
            }
        }
    }

    /// Marks one of `client`'s in-flight jobs finished (completed or
    /// failed), freeing a slot under its cap.
    pub fn finish(&self, client: u64) {
        let mut inner = self.lock();
        inner.stats.executing = inner.stats.executing.saturating_sub(1);
        if let Some(count) = inner.in_flight.get_mut(&client) {
            *count -= 1;
            if *count == 0 {
                inner.in_flight.remove(&client);
            }
        }
    }

    /// Flips the queue into drain mode: every future submit is rejected
    /// with [`AdmissionError::Draining`]; already-admitted jobs stay
    /// pending and still pop. Wakes blocked poppers so they can observe the
    /// drain.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.ready.notify_all();
    }

    /// Whether the queue is draining.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Whether the drain is complete: draining, nothing pending, nothing
    /// executing.
    pub fn drained(&self) -> bool {
        let inner = self.lock();
        inner.draining && inner.pending.is_empty() && inner.stats.executing == 0
    }

    /// Snapshot of the queue's counters. `pending_high_water` is
    /// cumulative across the queue's whole life, including a graceful
    /// drain.
    pub fn stats(&self) -> AdmissionStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(3, 8);
        for i in 0..3u32 {
            q.try_submit(u64::from(i), i).unwrap();
        }
        let (err, job) = q.try_submit(9, 99).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { capacity: 3 });
        assert_eq!(job, 99);
        for i in 0..3u32 {
            assert_eq!(q.try_pop(), Some((u64::from(i), i)));
        }
        assert_eq!(q.try_pop(), None);
        // Popping freed queue slots.
        q.try_submit(9, 99).unwrap();
    }

    #[test]
    fn per_client_cap_counts_executing_jobs() {
        let q: AdmissionQueue<&str> = AdmissionQueue::new(16, 2);
        q.try_submit(1, "a").unwrap();
        q.try_submit(1, "b").unwrap();
        let (err, _) = q.try_submit(1, "c").unwrap_err();
        assert_eq!(err, AdmissionError::ClientSaturated { in_flight: 2, cap: 2 });
        // Another client is unaffected.
        q.try_submit(2, "x").unwrap();
        // Popping does not free the cap; finishing does.
        q.try_pop().unwrap();
        assert!(q.try_submit(1, "c").is_err());
        q.finish(1);
        q.try_submit(1, "c").unwrap();
    }

    #[test]
    fn drain_rejects_new_but_pops_pending() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(8, 8);
        q.try_submit(1, 10).unwrap();
        q.drain();
        assert_eq!(q.try_submit(1, 11), Err((AdmissionError::Draining, 11)));
        assert!(!q.drained(), "job 10 still pending");
        assert_eq!(q.pop_wait(Duration::from_millis(10)), Some((1, 10)));
        assert!(!q.drained(), "job 10 still executing");
        q.finish(1);
        assert!(q.drained());
        assert_eq!(q.pop_wait(Duration::from_millis(10)), None);
    }

    #[test]
    fn pop_wait_wakes_on_submit() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(8, 8));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_wait(Duration::from_secs(5)));
        // Give the popper a moment to block, then submit.
        std::thread::sleep(Duration::from_millis(20));
        q.try_submit(3, 42).unwrap();
        assert_eq!(popper.join().unwrap(), Some((3, 42)));
    }

    #[test]
    fn pending_high_water_survives_drain() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(8, 8);
        q.try_submit(1, 10).unwrap();
        q.try_submit(2, 20).unwrap();
        q.try_submit(3, 30).unwrap();
        assert_eq!(q.stats().pending_high_water, 3);
        // A graceful drain — reject new, pop and finish everything — must
        // not erase the high-water: `STATS` reports it after the jobs that
        // caused it completed.
        q.drain();
        while let Some((client, _)) = q.try_pop() {
            q.finish(client);
        }
        assert!(q.drained());
        assert_eq!(q.stats().pending, 0);
        assert_eq!(q.stats().pending_high_water, 3, "drain erased the high-water");
    }

    #[test]
    fn a_job_failed_on_arrival_is_accepted_and_holds_no_slot() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1, 1);
        q.admit_failed();
        let s = q.stats();
        assert_eq!((s.accepted, s.pending, s.executing), (1, 0, 0));
        // Neither the queue slot nor the client's cap is taken.
        q.try_submit(1, 0).unwrap();
        assert_eq!(q.stats().accepted, 2);
    }

    #[test]
    fn stats_reconcile() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(2, 1);
        q.try_submit(1, 0).unwrap();
        q.try_submit(2, 0).unwrap();
        let _ = q.try_submit(1, 0); // client cap
        let _ = q.try_submit(3, 0); // queue full
        let s = q.stats();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.rejected_client, 1);
        assert_eq!(s.rejected_full, 1);
        assert_eq!(s.pending, 2);
        assert_eq!(s.pending_high_water, 2);
        q.try_pop().unwrap();
        q.finish(1);
        let s = q.stats();
        assert_eq!(s.pending, 1);
        assert_eq!(s.executing, 0);
        assert_eq!(s.pending_high_water, 2);
    }
}
