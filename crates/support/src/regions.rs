//! The stage vocabulary and the region sinks: the instrumentation seam of
//! the pipelines.
//!
//! The paper's methodology instruments Giraffe with a low-overhead
//! timestamp-collecting header whose data is dumped after the run. Our
//! pipelines name every timed region with one [`Stage`]: each stage boundary
//! reads the clock once (through `mg_obs::ObsShard`), and the interval goes
//! both to the worker's metrics shard and, when one is attached, to a
//! [`RegionSink`]. The profiler in `mg-perf` implements the sink and
//! reconstructs the paper's thread timelines (Fig. 2). [`NullSink`] keeps
//! nothing, and a shard never attaches it, so it costs no clock read.
//!
//! `Stage` lives here rather than in `mg-obs` so that this crate, which
//! `mg-obs` depends on, can name it in [`RegionSink::record`]; `mg_obs`
//! re-exports it.

use std::time::Instant;

/// Pipeline stages: the one vocabulary of the metrics spans and the region
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Read intake: the capture emitter's copy of a read and its seed list
    /// into the dump record (parent pipeline).
    Parse = 0,
    /// Minimizer extraction + index lookup (parent pipeline).
    Seeding = 1,
    /// The `cluster_seeds` kernel.
    Clustering = 2,
    /// The `process_until_threshold_c` seed-and-extend kernel.
    Extension = 3,
    /// Alignment scoring and the gapped tail fallback (parent pipeline).
    Rescoring = 4,
    /// Mate rescue and the fragment check, once per mate pair (parent
    /// pipeline, paired workflows).
    Pairing = 5,
    /// GAF rendering of a finished read on the worker that mapped it
    /// (parent pipeline, GAF-producing paths).
    Render = 6,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 7;
    /// All stages in pipeline order (which is also index order).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::Seeding,
        Stage::Clustering,
        Stage::Extension,
        Stage::Rescoring,
        Stage::Pairing,
        Stage::Render,
    ];

    /// Stable lowercase name used by the exporters and the timeline CSV.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Seeding => "seeding",
            Stage::Clustering => "clustering",
            Stage::Extension => "extension",
            Stage::Rescoring => "rescoring",
            Stage::Pairing => "pairing",
            Stage::Render => "render",
        }
    }
}

/// Receives `(thread, stage, start, end)` interval events.
///
/// Implementations must be cheap and thread-safe: the mapping loop calls
/// this from every worker for every stage boundary.
pub trait RegionSink: Sync {
    /// Records that `thread` spent `start..end` in `stage`.
    fn record(&self, thread: usize, stage: Stage, start: Instant, end: Instant);

    /// Whether [`RegionSink::record`] keeps anything. A sink that does not
    /// is never attached to a worker's shard, so timing into a
    /// [`NullSink`] reads no clock.
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
    fn record(&self, _thread: usize, _stage: Stage, _start: Instant, _end: Instant) {}

    #[inline(always)]
    fn is_recording(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_usable_through_dyn() {
        let sink: &dyn RegionSink = &NullSink;
        assert!(!sink.is_recording());
        let t = Instant::now();
        sink.record(0, Stage::Extension, t, t);
    }

    #[test]
    fn stages_are_in_index_order_with_distinct_names() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i);
        }
        let names: std::collections::HashSet<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::COUNT);
    }
}
