//! The region profiler: the paper's instrumentation header.
//!
//! The methodology instruments Giraffe with timestamp collectors per named
//! region, buffered per thread and dumped after the run to avoid overhead.
//! [`Profiler`] implements [`RegionSink`] the same way and reconstructs:
//!
//! - the per-thread timeline of region intervals (Figure 2);
//! - the aggregate share of runtime per region (Figure 3).

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mg_support::regions::RegionSink;

/// One recorded region interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionEvent {
    /// Worker thread index.
    pub thread: usize,
    /// Region name.
    pub region: &'static str,
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

/// Aggregate time of one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionShare {
    /// Region name.
    pub region: &'static str,
    /// Total microseconds across all threads.
    pub total_us: u64,
    /// Number of interval events.
    pub count: u64,
    /// Fraction of the summed region time (Figure 3's percentage).
    pub share: f64,
}

/// Collects region events with per-record cost of one mutex push.
///
/// # Examples
///
/// ```
/// use mg_perf::profiler::Profiler;
/// use mg_support::regions::{RegionSink, RegionTimer};
///
/// let profiler = Profiler::new();
/// {
///     let _t = RegionTimer::start(&profiler, 0, "cluster_seeds");
/// }
/// assert_eq!(profiler.events().len(), 1);
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

    /// Aggregate per-region totals and shares — Figure 3. Shares are of the
    /// total instrumented time (I/O and parsing are simply not
    /// instrumented, matching the paper's exclusion).
    pub fn region_summary(&self) -> Vec<RegionShare> {
        let mut totals: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for e in self.lock_events().iter() {
            let entry = totals.entry(e.region).or_insert((0, 0));
            entry.0 += e.duration_us();
            entry.1 += 1;
        }
        let grand: u64 = totals.values().map(|&(t, _)| t).sum();
        let mut shares: Vec<RegionShare> = totals
            .into_iter()
            .map(|(region, (total_us, count))| RegionShare {
                region,
                total_us,
                count,
                share: if grand == 0 { 0.0 } else { total_us as f64 / grand as f64 },
            })
            .collect();
        shares.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        shares
    }

    /// Renders the timeline as CSV (`thread,region,start_us,end_us`).
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("thread,region,start_us,end_us\n");
        for (thread, events) in self.timeline() {
            for e in events {
                out.push_str(&format!("{thread},{},{},{}\n", e.region, e.start_us, e.end_us));
            }
        }
        out
    }
}

impl RegionSink for Profiler {
    fn record(&self, thread: usize, region: &'static str, start: Instant, end: Instant) {
        let start_us = start.duration_since(self.origin).as_micros() as u64;
        let end_us = end.duration_since(self.origin).as_micros() as u64;
        self.lock_events().push(RegionEvent {
            thread,
            region,
            start_us,
            end_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_support::regions::RegionTimer;

    #[test]
    fn records_events_with_monotonic_timestamps() {
        let p = Profiler::new();
        {
            let _a = RegionTimer::start(&p, 0, "outer");
            let _b = RegionTimer::start(&p, 0, "inner");
        }
        let events = p.events();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert!(e.end_us >= e.start_us);
        }
    }

    #[test]
    fn timeline_groups_and_sorts_by_thread() {
        let p = Profiler::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(100);
        let t2 = t0 + std::time::Duration::from_micros(300);
        p.record(1, "b", t1, t2);
        p.record(0, "a", t0, t1);
        p.record(1, "a", t0, t1);
        let timeline = p.timeline();
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].0, 0);
        assert_eq!(timeline[1].0, 1);
        // Thread 1's events sorted by start.
        assert_eq!(timeline[1].1[0].region, "a");
        assert_eq!(timeline[1].1[1].region, "b");
    }

    #[test]
    fn region_summary_shares_sum_to_one() {
        let p = Profiler::new();
        let t0 = Instant::now();
        let us = |n: u64| t0 + std::time::Duration::from_micros(n);
        p.record(0, "extend", us(0), us(300));
        p.record(0, "cluster", us(300), us(400));
        p.record(1, "extend", us(0), us(300));
        let summary = p.region_summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].region, "extend");
        assert_eq!(summary[0].total_us, 600);
        assert_eq!(summary[0].count, 2);
        let total_share: f64 = summary.iter().map(|s| s.share).sum();
        assert!((total_share - 1.0).abs() < 1e-12);
        assert!((summary[0].share - 600.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profiler_summary() {
        let p = Profiler::new();
        assert!(p.region_summary().is_empty());
        assert_eq!(p.timeline_csv(), "thread,region,start_us,end_us\n");
    }

    #[test]
    fn reset_clears() {
        let p = Profiler::new();
        let t0 = Instant::now();
        p.record(0, "x", t0, t0);
        p.reset();
        assert!(p.events().is_empty());
    }

    #[test]
    fn csv_contains_rows() {
        let p = Profiler::new();
        let t0 = Instant::now();
        p.record(2, "extend", t0, t0 + std::time::Duration::from_micros(5));
        let csv = p.timeline_csv();
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("2,extend,"));
    }
}
