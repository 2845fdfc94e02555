//! Region timing sinks: the instrumentation seam of the pipelines.
//!
//! The paper's methodology instruments Giraffe with a low-overhead
//! timestamp-collecting header whose data is dumped after the run. Our
//! pipelines are generic over a [`RegionSink`]; the profiler in `mg-perf`
//! implements it and reconstructs the paper's thread timelines (Fig. 2) and
//! per-region runtime shares (Fig. 3). [`NullSink`] compiles to nothing.

use std::time::Instant;

/// Receives `(thread, region, start, end)` interval events.
///
/// Implementations must be cheap and thread-safe: the mapping loop calls
/// this from every worker for every instrumented region.
pub trait RegionSink: Sync {
    /// Records that `thread` spent `start..end` in `region`.
    fn record(&self, thread: usize, region: &'static str, start: Instant, end: Instant);

    /// Whether [`RegionSink::record`] keeps anything. A caller that reads
    /// the clock only to hand the instants to `record` skips the reads when
    /// it does not, so timing a region into a [`NullSink`] costs nothing.
    #[inline(always)]
    fn is_recording(&self) -> bool {
        true
    }
}

/// Ignores every event; the default when profiling is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RegionSink for NullSink {
    #[inline(always)]
    fn record(&self, _thread: usize, _region: &'static str, _start: Instant, _end: Instant) {}

    #[inline(always)]
    fn is_recording(&self) -> bool {
        false
    }
}

/// RAII timer: records the region on drop. Reads the clock only for a sink
/// that is recording.
///
/// ```
/// use mg_support::regions::{NullSink, RegionTimer};
/// let sink = NullSink;
/// {
///     let _t = RegionTimer::start(&sink, 0, "cluster_seeds");
///     // ... timed work ...
/// }
/// ```
pub struct RegionTimer<'a, S: RegionSink + ?Sized> {
    sink: &'a S,
    thread: usize,
    region: &'static str,
    start: Option<Instant>,
}

impl<'a, S: RegionSink + ?Sized> RegionTimer<'a, S> {
    /// Starts timing `region` on `thread`.
    pub fn start(sink: &'a S, thread: usize, region: &'static str) -> Self {
        RegionTimer {
            sink,
            thread,
            region,
            start: sink.is_recording().then(Instant::now),
        }
    }
}

impl<S: RegionSink + ?Sized> Drop for RegionTimer<'_, S> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.sink.record(self.thread, self.region, start, Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Collector(Mutex<Vec<(usize, &'static str)>>);

    impl RegionSink for Collector {
        fn record(&self, thread: usize, region: &'static str, start: Instant, end: Instant) {
            assert!(end >= start);
            self.0.lock().unwrap().push((thread, region));
        }
    }

    #[test]
    fn timer_records_on_drop() {
        let sink = Collector(Mutex::new(Vec::new()));
        {
            let _t = RegionTimer::start(&sink, 3, "extend");
            assert!(sink.0.lock().unwrap().is_empty());
        }
        assert_eq!(*sink.0.lock().unwrap(), vec![(3, "extend")]);
    }

    #[test]
    fn nested_timers_record_inner_first() {
        let sink = Collector(Mutex::new(Vec::new()));
        {
            let _outer = RegionTimer::start(&sink, 0, "outer");
            {
                let _inner = RegionTimer::start(&sink, 0, "inner");
            }
        }
        assert_eq!(*sink.0.lock().unwrap(), vec![(0, "inner"), (0, "outer")]);
    }

    #[test]
    fn a_sink_that_is_not_recording_is_handed_nothing() {
        struct Deaf;
        impl RegionSink for Deaf {
            fn record(&self, _: usize, region: &'static str, _: Instant, _: Instant) {
                panic!("{region} handed to a sink that is not recording");
            }
            fn is_recording(&self) -> bool {
                false
            }
        }
        let _t = RegionTimer::start(&Deaf, 0, "extend");
        let _d = RegionTimer::start(&Deaf as &dyn RegionSink, 0, "cluster");
    }

    #[test]
    fn null_sink_is_usable_through_dyn() {
        let sink: &dyn RegionSink = &NullSink;
        let _t = RegionTimer::start(sink, 0, "x");
    }
}
