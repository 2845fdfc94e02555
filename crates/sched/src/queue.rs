//! Bounded hand-off queue for streaming ingestion.
//!
//! [`bounded_queue`] wraps `std`'s bounded channel with the instrumentation
//! the streaming pipeline reports: queue depth with its high-water mark,
//! and how long the producer sat blocked on a full queue (the backpressure
//! that keeps ingestion memory bounded). The channel itself provides the
//! blocking semantics; this layer only counts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Counters shared by both halves of a [`bounded_queue`].
#[derive(Debug, Default)]
struct QueueCounters {
    /// Items sent and not yet received, kept here because the channel does
    /// not report its length.
    depth: AtomicUsize,
    high_water: AtomicUsize,
    blocked_ns: AtomicU64,
    sends: AtomicU64,
}

/// Snapshot of a queue's activity, taken from either half at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Deepest occupancy observed (≤ the queue's capacity).
    pub high_water: usize,
    /// Total nanoseconds senders spent blocked on a full queue.
    pub blocked_ns: u64,
    /// Items successfully sent.
    pub sends: u64,
}

/// Sending half of a [`bounded_queue`].
pub struct StreamSender<T> {
    tx: SyncSender<T>,
    capacity: usize,
    counters: Arc<QueueCounters>,
}

/// Receiving half of a [`bounded_queue`].
pub struct StreamReceiver<T> {
    rx: Receiver<T>,
    counters: Arc<QueueCounters>,
}

/// Creates a bounded hand-off queue of `capacity` slots (minimum 1), for
/// one producer and one consumer.
///
/// `send` blocks while the queue is full — that blocking *is* the
/// backpressure bounding the producer's memory — and the time spent
/// blocked is accounted in [`QueueStats::blocked_ns`].
pub fn bounded_queue<T>(capacity: usize) -> (StreamSender<T>, StreamReceiver<T>) {
    let capacity = capacity.max(1);
    let (tx, rx) = sync_channel(capacity);
    let counters = Arc::new(QueueCounters::default());
    (
        StreamSender { tx, capacity, counters: Arc::clone(&counters) },
        StreamReceiver { rx, counters },
    )
}

impl<T> StreamSender<T> {
    /// Sends `value`, blocking while the queue is full. Returns the value
    /// back when the receiver is gone (the consumer stopped; the producer
    /// should too).
    pub fn send(&self, value: T) -> Result<(), T> {
        // Fast path: a non-blocking send needs no clock reads.
        let value = match self.tx.try_send(value) {
            Ok(()) => {
                self.sent();
                return Ok(());
            }
            Err(TrySendError::Disconnected(v)) => return Err(v),
            Err(TrySendError::Full(v)) => v,
        };
        let t0 = Instant::now();
        let outcome = self.tx.send(value);
        self.counters
            .blocked_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match outcome {
            Ok(()) => {
                self.sent();
                Ok(())
            }
            Err(e) => Err(e.0),
        }
    }

    fn sent(&self) {
        self.counters.sends.fetch_add(1, Ordering::Relaxed);
        // Every send so far is counted, so the depth is the items in the
        // channel plus at most one the consumer has received and not yet
        // subtracted. The channel never holds more than `capacity`, so the
        // clamp only drops that lag.
        let depth = self.counters.depth.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        self.counters
            .high_water
            .fetch_max(depth.min(self.capacity), Ordering::Relaxed);
    }

    /// This queue's activity so far.
    pub fn stats(&self) -> QueueStats {
        stats_of(&self.counters)
    }
}

impl<T> StreamReceiver<T> {
    /// Receives the next item, blocking until one arrives; `None` once the
    /// sender is dropped and the queue drained.
    pub fn recv(&self) -> Option<T> {
        let value = self.rx.recv().ok()?;
        self.counters.depth.fetch_sub(1, Ordering::Relaxed);
        Some(value)
    }

    /// This queue's activity so far.
    pub fn stats(&self) -> QueueStats {
        stats_of(&self.counters)
    }
}

fn stats_of(c: &QueueCounters) -> QueueStats {
    QueueStats {
        high_water: c.high_water.load(Ordering::Relaxed),
        blocked_ns: c.blocked_ns.load(Ordering::Relaxed),
        sends: c.sends.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_stats() {
        let (tx, rx) = bounded_queue(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
        let stats = rx.stats();
        assert_eq!(stats.sends, 4);
        assert_eq!(stats.high_water, 4);
        assert_eq!(stats.blocked_ns, 0);
    }

    #[test]
    fn high_water_never_exceeds_capacity() {
        let (tx, rx) = bounded_queue(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            tx.stats()
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        let stats = producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(stats.sends, 100);
        assert!(stats.high_water <= 2, "high water {} > capacity", stats.high_water);
    }

    #[test]
    fn full_queue_blocks_and_accounts_the_wait() {
        let (tx, rx) = bounded_queue(1);
        tx.send(0u32).unwrap();
        let producer = std::thread::spawn(move || {
            // Queue is full: this blocks until the consumer drains a slot.
            tx.send(1).unwrap();
            tx.stats()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        let stats = producer.join().unwrap();
        assert!(
            stats.blocked_ns >= 10_000_000,
            "producer blocked only {}ns",
            stats.blocked_ns
        );
    }

    #[test]
    fn recv_returns_none_after_sender_drops() {
        let (tx, rx) = bounded_queue(2);
        tx.send(7u32).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_returns_value_when_receiver_gone() {
        let (tx, rx) = bounded_queue(1);
        drop(rx);
        assert_eq!(tx.send(3u32), Err(3));
    }
}
