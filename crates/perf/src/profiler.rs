//! The region profiler: the paper's instrumentation header.
//!
//! The methodology instruments Giraffe with timestamp collectors per named
//! region, buffered per thread and dumped after the run to avoid overhead.
//! [`Profiler`] implements [`RegionSink`] the same way: every stage
//! interval a worker closes becomes one [`RegionEvent`], and the events
//! rebuild the per-thread timeline of Figure 2 (`map --instrument` writes
//! it as CSV). Per-stage totals (Figure 3, Table VI) come from the metrics
//! registry, which the same stage boundaries feed.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mg_support::regions::{RegionSink, Stage};

/// One recorded region interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionEvent {
    /// Worker thread index.
    pub thread: usize,
    /// The stage the interval was spent in.
    pub stage: Stage,
    /// Microseconds from profiler start.
    pub start_us: u64,
    /// Microseconds from profiler start.
    pub end_us: u64,
}

impl RegionEvent {
    /// Interval length in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Collects region events with per-record cost of one mutex push.
///
/// # Examples
///
/// ```
/// use std::time::Instant;
/// use mg_perf::profiler::Profiler;
/// use mg_support::regions::{RegionSink, Stage};
///
/// let profiler = Profiler::new();
/// let start = Instant::now();
/// profiler.record(0, Stage::Clustering, start, Instant::now());
/// assert_eq!(profiler.events()[0].stage, Stage::Clustering);
/// assert!(profiler.timeline_csv().contains("\n0,clustering,"));
/// ```
#[derive(Debug)]
pub struct Profiler {
    origin: Instant,
    events: Mutex<Vec<RegionEvent>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Starts a profiler; timestamps are relative to this call.
    pub fn new() -> Self {
        Profiler {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Locks the event buffer, shrugging off poison: every update under the
    /// lock is one `Vec` push or clear, so a panic while it was held left a
    /// valid buffer.
    fn lock_events(&self) -> MutexGuard<'_, Vec<RegionEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// All events recorded so far, in arrival order.
    pub fn events(&self) -> Vec<RegionEvent> {
        self.lock_events().clone()
    }

    /// Clears recorded events.
    pub fn reset(&self) {
        self.lock_events().clear();
    }

    /// The per-thread timelines (events sorted by start time) — Figure 2.
    pub fn timeline(&self) -> Vec<(usize, Vec<RegionEvent>)> {
        let mut by_thread: std::collections::BTreeMap<usize, Vec<RegionEvent>> =
            std::collections::BTreeMap::new();
        for e in self.lock_events().iter() {
            by_thread.entry(e.thread).or_default().push(*e);
        }
        by_thread
            .into_iter()
            .map(|(t, mut events)| {
                events.sort_by_key(|e| e.start_us);
                (t, events)
            })
            .collect()
    }

    /// Renders the timeline as CSV (`thread,region,start_us,end_us`).
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("thread,region,start_us,end_us\n");
        for (thread, events) in self.timeline() {
            for e in events {
                out.push_str(&format!("{thread},{},{},{}\n", e.stage.name(), e.start_us, e.end_us));
            }
        }
        out
    }
}

impl RegionSink for Profiler {
    fn record(&self, thread: usize, stage: Stage, start: Instant, end: Instant) {
        let start_us = start.duration_since(self.origin).as_micros() as u64;
        let end_us = end.duration_since(self.origin).as_micros() as u64;
        self.lock_events().push(RegionEvent {
            thread,
            stage,
            start_us,
            end_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_events_with_monotonic_timestamps() {
        let p = Profiler::new();
        let t0 = Instant::now();
        let t1 = Instant::now();
        p.record(0, Stage::Clustering, t0, t1);
        p.record(0, Stage::Extension, t1, Instant::now());
        let events = p.events();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert!(e.end_us >= e.start_us);
        }
        assert!(events[1].start_us >= events[0].end_us);
    }

    #[test]
    fn timeline_groups_and_sorts_by_thread() {
        let p = Profiler::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(100);
        let t2 = t0 + Duration::from_micros(300);
        p.record(1, Stage::Extension, t1, t2);
        p.record(0, Stage::Clustering, t0, t1);
        p.record(1, Stage::Clustering, t0, t1);
        let timeline = p.timeline();
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].0, 0);
        assert_eq!(timeline[1].0, 1);
        // Thread 1's events sorted by start.
        assert_eq!(timeline[1].1[0].stage, Stage::Clustering);
        assert_eq!(timeline[1].1[1].stage, Stage::Extension);
    }

    #[test]
    fn empty_profiler_summary() {
        let p = Profiler::new();
        assert!(p.events().is_empty());
        assert!(p.timeline().is_empty());
        assert_eq!(p.timeline_csv(), "thread,region,start_us,end_us\n");
    }

    #[test]
    fn reset_clears() {
        let p = Profiler::new();
        let t0 = Instant::now();
        p.record(0, Stage::Seeding, t0, t0);
        p.reset();
        assert!(p.events().is_empty());
    }

    #[test]
    fn csv_contains_rows() {
        let p = Profiler::new();
        let t0 = Instant::now();
        p.record(2, Stage::Extension, t0, t0 + Duration::from_micros(5));
        let csv = p.timeline_csv();
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("2,extension,"));
    }
}
