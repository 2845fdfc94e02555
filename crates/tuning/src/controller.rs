//! Online adaptive tuning: a closed-loop controller over the live knobs.
//!
//! The offline sweep ([`crate::sweep`]) finds the throughput optimum of the
//! parameter space by measuring every point; this module finds it *while
//! serving*, from the default configuration, using only the per-epoch
//! deltas of signals mg-obs already collects. The controller is a guarded
//! coordinate-descent hill climber:
//!
//! - **Epochs.** The caller slices time into epochs (a fixed number of
//!   executor chunks, or one batch pass), computes the [`mg_obs::Report`]
//!   delta and wall time for the epoch, and feeds an [`EpochStats`] to
//!   [`Controller::observe_epoch`]. The returned knobs apply from the next
//!   chunk boundary — never mid-chunk — so every knob the controller moves
//!   (`batch_size`, `chunk_reads`, `cache_capacity`) is one the pipeline
//!   already proves result-invariant, and GAF output stays byte-identical
//!   to a fixed-knob run.
//! - **Hill climbing with hysteresis.** One axis moves at a time, by one
//!   guarded multiplicative step (×2 / ÷2 within bounds). A trial step is
//!   kept only if throughput improves by at least [`ControllerConfig::
//!   hysteresis`] relative to the re-measured baseline; otherwise the knobs
//!   revert and the next axis is tried. A noisy epoch therefore costs at
//!   most one reverted probe, and a knob can never oscillate faster than
//!   the accept threshold allows.
//! - **Noise guards.** Epochs with fewer than [`ControllerConfig::
//!   min_reads`] reads are ignored outright (a burst gap is not a signal),
//!   and after a full sweep of axes without an accepted move the controller
//!   holds the current point for [`ControllerConfig::hold_epochs`] epochs
//!   before re-probing, so a converged server spends almost all of its time
//!   at the optimum rather than probing around it.
//! - **Signal-directed probes.** The mg-obs deltas pick each axis's first
//!   probe direction: worker idle time steers `batch_size`, admission
//!   pending high-water steers the in-flight window, the cache hit rate
//!   steers the cache capacity. The *accept* decision is always measured
//!   throughput — hints only order the search.
//!
//! The controller is pure and deterministic: identical `EpochStats`
//! sequences produce identical knob trajectories (the simulation tests
//! below replay seeded synthetic load profiles and assert exactly that).

use mg_obs::{Ctr, Gauge, Report, Stage};
use mg_sched::{effective_chunk_reads, AdmissionStats};

/// The live-tunable knobs the controller drives.
///
/// All three are result-invariant: they move work between batches and
/// chunks and resize the cache without changing any per-read outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobState {
    /// Reads handed to a pool worker at a time.
    pub batch_size: usize,
    /// Reads per executor chunk — the in-flight window between knob
    /// application points.
    pub chunk_reads: usize,
    /// Initial per-thread CachedGBWT capacity.
    pub cache_capacity: usize,
}

impl KnobState {
    /// The serve defaults: Giraffe's batch and capacity plus the derived
    /// chunk window for the given thread count.
    pub fn default_for(threads: usize) -> KnobState {
        KnobState {
            batch_size: 512,
            chunk_reads: effective_chunk_reads(0, threads, 512),
            cache_capacity: 256,
        }
    }
}

impl std::fmt::Display for KnobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bs{}/cr{}/cc{}",
            self.batch_size, self.chunk_reads, self.cache_capacity
        )
    }
}

/// Per-knob `[min, max]` guard rails for the multiplicative steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobBounds {
    /// Batch size range (powers of two inside it are reachable).
    pub batch: (usize, usize),
    /// Executor chunk window range.
    pub chunk: (usize, usize),
    /// Private cache capacity range (≤ 4096 after Figure 6).
    pub cache: (usize, usize),
}

impl Default for KnobBounds {
    fn default() -> Self {
        KnobBounds {
            batch: (64, 2048),
            chunk: (64, 1 << 16),
            cache: (64, 4096),
        }
    }
}

/// Controller tuning — thresholds and guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Minimum relative throughput gain for a probe step to be kept
    /// (e.g. `0.03` = 3%). This is the hysteresis band: anything inside
    /// it reads as noise and the knobs revert.
    pub hysteresis: f64,
    /// Epochs below this many reads are ignored (noise guard for bursty
    /// load gaps).
    pub min_reads: u64,
    /// Epochs to hold the converged point before re-probing.
    pub hold_epochs: u32,
    /// Guard rails per knob.
    pub bounds: KnobBounds,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            hysteresis: 0.03,
            min_reads: 64,
            hold_epochs: 8,
            bounds: KnobBounds::default(),
        }
    }
}

/// One epoch's worth of signal: the flows between two knob-application
/// points, plus the wall time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochStats {
    /// Reads mapped this epoch.
    pub reads: u64,
    /// Wall-clock nanoseconds the epoch spanned.
    pub wall_ns: u64,
    /// Pool worker idle nanoseconds accumulated this epoch.
    pub idle_ns: u64,
    /// CachedGBWT hits / misses this epoch.
    pub cache_hits: u64,
    /// See [`EpochStats::cache_hits`].
    pub cache_misses: u64,
    /// Seeding / extension stage nanoseconds this epoch.
    pub seeding_ns: u64,
    /// See [`EpochStats::seeding_ns`].
    pub extension_ns: u64,
    /// Deepest pool queue occupancy observed (gauge level).
    pub queue_high_water: u64,
    /// Admission pending high-water for the epoch (from
    /// [`mg_sched::AdmissionQueue::epoch_rollover`]).
    pub pending_high_water: u64,
}

impl EpochStats {
    /// Builds an epoch from an [`mg_obs::Report::delta`], the admission
    /// snapshot returned by `epoch_rollover`, and the measured wall time.
    pub fn from_delta(delta: &Report, admission: &AdmissionStats, wall_ns: u64) -> EpochStats {
        EpochStats {
            reads: delta.counter(Ctr::ReadsMapped),
            wall_ns,
            idle_ns: delta.counter(Ctr::PoolIdleNs),
            cache_hits: delta.counter(Ctr::CacheHits),
            cache_misses: delta.counter(Ctr::CacheMisses),
            seeding_ns: delta.stage_ns(Stage::Seeding),
            extension_ns: delta.stage_ns(Stage::Extension),
            queue_high_water: delta.gauge(Gauge::QueueDepthMax),
            pending_high_water: admission.pending_high_water as u64,
        }
    }

    /// Reads per second — the score hill climbing maximises.
    pub fn throughput(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.reads as f64 * 1e9 / self.wall_ns as f64
    }

    /// Fraction of pool time spent idle (0 when unknown).
    pub fn idle_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.idle_ns as f64 / self.wall_ns as f64).min(1.0)
    }

    /// Cache hit rate (1.0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 1.0;
        }
        self.cache_hits as f64 / total as f64
    }

}

/// The knob axes, in probe order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    Batch,
    Chunk,
    Cache,
}

impl Axis {
    const ALL: [Axis; 3] = [Axis::Batch, Axis::Chunk, Axis::Cache];
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Up,
    Down,
}

impl Dir {
    fn flip(self) -> Dir {
        match self {
            Dir::Up => Dir::Down,
            Dir::Down => Dir::Up,
        }
    }
}

/// What the controller is doing between epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Measuring the current point; the next valid epoch becomes the
    /// baseline score.
    Measure,
    /// A trial step was applied; the next valid epoch decides keep/revert.
    Probe { baseline: f64, prev: KnobState, axis_idx: usize, dir: Dir, flipped: bool },
    /// Converged: hold the point for `remaining` epochs, then re-measure.
    Hold { remaining: u32 },
}

/// What [`Controller::observe_epoch`] decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Epoch ignored (below the `min_reads` noise guard).
    Skipped,
    /// Baseline (re-)measured; knobs unchanged.
    Measured,
    /// A trial step was applied; `knobs` take effect next chunk.
    Probed(KnobState),
    /// The previous trial was kept (it beat the hysteresis band).
    Accepted,
    /// The previous trial regressed or stalled; `knobs` are the restored
    /// pre-trial state.
    Reverted(KnobState),
    /// Converged: holding the current point.
    Holding,
}

impl Decision {
    /// The knobs to apply from the next chunk on, if this decision moved
    /// them.
    pub fn new_knobs(&self) -> Option<KnobState> {
        match self {
            Decision::Probed(k) | Decision::Reverted(k) => Some(*k),
            _ => None,
        }
    }
}

/// Rolling counters for `STATS` reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Valid epochs observed (past the noise guard).
    pub epochs: u64,
    /// Epochs dropped by the noise guard.
    pub skipped: u64,
    /// Trial steps kept.
    pub accepted: u64,
    /// Trial steps rolled back.
    pub reverted: u64,
}

/// The epoch-based feedback controller. See the module docs for the
/// control law.
#[derive(Debug, Clone)]
pub struct Controller {
    config: ControllerConfig,
    knobs: KnobState,
    state: State,
    /// Axis to start the next sweep from (rotates so one sticky axis
    /// cannot starve the others).
    sweep_start: usize,
    /// Probes since the last accepted move; a full quota without an
    /// accept means converged.
    stale_probes: usize,
    /// Consecutive converged sweeps: each doubles the hold period (capped
    /// at 8× the base) so a stable workload is probed ever more rarely.
    /// Any accepted move resets the backoff.
    hold_backoff: u32,
    stats: ControllerStats,
}

impl Controller {
    /// A controller starting from `initial` (usually
    /// [`KnobState::default_for`]): zero a priori configuration.
    pub fn new(config: ControllerConfig, initial: KnobState) -> Controller {
        Controller {
            config,
            knobs: initial,
            state: State::Measure,
            sweep_start: 0,
            stale_probes: 0,
            hold_backoff: 0,
            stats: ControllerStats::default(),
        }
    }

    /// The knobs currently in force.
    pub fn knobs(&self) -> KnobState {
        self.knobs
    }

    /// Rolling accept/revert counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Whether the controller is in its converged hold state.
    pub fn converged(&self) -> bool {
        matches!(self.state, State::Hold { .. })
    }

    /// A sweep without this many consecutive failed probes in a row has
    /// not yet visited both directions of every axis.
    fn probe_quota(&self) -> usize {
        Axis::ALL.len() * 2
    }

    fn axis_at(&self, idx: usize) -> Axis {
        Axis::ALL[idx % Axis::ALL.len()]
    }

    /// The signal-directed first probe direction for an axis.
    fn hint(&self, axis: Axis, e: &EpochStats) -> Dir {
        match axis {
            // Idle workers amortise scheduling badly: try bigger batches
            // first. Busy pool: try smaller ones for better balance.
            Axis::Batch => {
                if e.idle_fraction() > 0.05 {
                    Dir::Up
                } else {
                    Dir::Down
                }
            }
            // Jobs stacking up behind the executor favour a smaller
            // in-flight window (finer interleaving); an empty pending
            // queue can afford a wider one.
            Axis::Chunk => {
                if e.pending_high_water > 1 {
                    Dir::Down
                } else {
                    Dir::Up
                }
            }
            // A cold cache wants more capacity; a saturated one
            // may be paying eviction scans for nothing.
            Axis::Cache => {
                if e.cache_hit_rate() < 0.9 {
                    Dir::Up
                } else {
                    Dir::Down
                }
            }
        }
    }

    /// One guarded multiplicative step along `axis`; `None` when the
    /// bound in that direction is already met.
    fn stepped(&self, axis: Axis, dir: Dir) -> Option<KnobState> {
        let mut next = self.knobs;
        let (value, (lo, hi)) = match axis {
            Axis::Batch => (&mut next.batch_size, self.config.bounds.batch),
            Axis::Chunk => (&mut next.chunk_reads, self.config.bounds.chunk),
            Axis::Cache => (&mut next.cache_capacity, self.config.bounds.cache),
        };
        let stepped = match dir {
            Dir::Up => value.saturating_mul(2).max(1).min(hi),
            Dir::Down => (*value / 2).max(lo),
        };
        if stepped == *value || stepped < lo || stepped > hi {
            return None;
        }
        *value = stepped;
        Some(next)
    }

    /// Starts the next trial step from `axis_idx`/`dir`, skipping axes
    /// pinned at their bounds. Enters `Hold` once a full quota of probes
    /// fails to move anything.
    fn next_probe(&mut self, baseline: f64, mut axis_idx: usize, mut dir: Dir, mut flipped: bool) -> Decision {
        for _ in 0..self.probe_quota() {
            if self.stale_probes >= self.probe_quota() {
                break;
            }
            let axis = self.axis_at(axis_idx);
            if let Some(trial) = self.stepped(axis, dir) {
                let prev = self.knobs;
                self.knobs = trial;
                self.state = State::Probe { baseline, prev, axis_idx, dir, flipped };
                return Decision::Probed(trial);
            }
            // Bound hit: the flipped direction of the same axis counts as
            // the next probe slot.
            self.stale_probes += 1;
            if flipped {
                axis_idx += 1;
                flipped = false;
            } else {
                dir = dir.flip();
                flipped = true;
            }
        }
        self.sweep_start = (self.sweep_start + 1) % Axis::ALL.len();
        self.stale_probes = 0;
        let hold = self.config.hold_epochs.max(1) << self.hold_backoff.min(3);
        self.hold_backoff = (self.hold_backoff + 1).min(3);
        self.state = State::Hold { remaining: hold };
        Decision::Holding
    }

    /// Feeds one epoch of signal; returns what the controller decided.
    /// Any knobs in [`Decision::new_knobs`] must be applied from the next
    /// chunk boundary.
    pub fn observe_epoch(&mut self, e: &EpochStats) -> Decision {
        if e.reads < self.config.min_reads {
            self.stats.skipped += 1;
            return Decision::Skipped;
        }
        self.stats.epochs += 1;
        let score = e.throughput();
        match self.state {
            State::Measure => {
                let start = self.sweep_start;
                let dir = self.hint(self.axis_at(start), e);
                self.next_probe(score, start, dir, false)
            }
            State::Probe { baseline, prev, axis_idx, dir, flipped } => {
                if score >= baseline * (1.0 + self.config.hysteresis) {
                    // Keep the step and re-measure before pushing the same
                    // axis further: acceptance resets the staleness count.
                    self.stats.accepted += 1;
                    self.stale_probes = 0;
                    self.hold_backoff = 0;
                    self.sweep_start = axis_idx % Axis::ALL.len();
                    self.state = State::Measure;
                    Decision::Accepted
                } else {
                    // Inside the hysteresis band or worse: roll back and
                    // move on. The restored knobs apply next chunk.
                    self.stats.reverted += 1;
                    self.stale_probes += 1;
                    self.knobs = prev;
                    let (next_idx, next_dir, next_flipped) = if flipped {
                        (axis_idx + 1, dir, false)
                    } else {
                        (axis_idx, dir.flip(), true)
                    };
                    let next_dir = if next_flipped { next_dir } else { self.hint(self.axis_at(next_idx), e) };
                    let decision = self.next_probe(baseline, next_idx, next_dir, next_flipped);
                    match decision {
                        Decision::Probed(k) => Decision::Probed(k),
                        _ => Decision::Reverted(prev),
                    }
                }
            }
            State::Hold { remaining } => {
                if remaining > 1 {
                    self.state = State::Hold { remaining: remaining - 1 };
                    Decision::Holding
                } else {
                    // Hold expired: re-measure so a load shift since
                    // convergence gets a fresh baseline.
                    self.state = State::Measure;
                    Decision::Measured
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic SplitMix64 for seeded noise.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// Uniform in [-1, 1).
        fn signed_unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// A synthetic concave response surface: throughput peaks at
    /// `bs=1024, cc=1024`, falls off quadratically in log2 distance, and
    /// is insensitive to the chunk window (like a single-tenant server).
    fn surface(k: &KnobState) -> f64 {
        let d_bs = (k.batch_size as f64).log2() - 10.0;
        let d_cc = (k.cache_capacity as f64).log2() - 10.0;
        1000.0 * (1.0 - 0.05 * d_bs * d_bs - 0.05 * d_cc * d_cc)
    }

    /// One synthetic epoch at `k`: `scale` models load level, `noise` is
    /// a relative perturbation.
    fn epoch(k: &KnobState, scale: f64, noise: f64) -> EpochStats {
        let throughput = surface(k) * scale * (1.0 + noise);
        let reads = 4096u64;
        EpochStats {
            reads,
            wall_ns: (reads as f64 * 1e9 / throughput) as u64,
            idle_ns: 0,
            ..EpochStats::default()
        }
    }

    fn drive(controller: &mut Controller, epochs: usize, seed: u64, scale: impl Fn(usize) -> f64, amplitude: f64) -> Vec<KnobState> {
        let mut rng = Rng(seed);
        let mut trajectory = Vec::new();
        for i in 0..epochs {
            let noise = rng.signed_unit() * amplitude;
            let e = epoch(&controller.knobs(), scale(i), noise);
            controller.observe_epoch(&e);
            trajectory.push(controller.knobs());
        }
        trajectory
    }

    #[test]
    fn climbs_to_surface_optimum_from_defaults() {
        let mut c = Controller::new(ControllerConfig::default(), KnobState::default_for(4));
        drive(&mut c, 64, 42, |_| 1.0, 0.0);
        // A re-probe sweep may be in flight at any fixed epoch; give it
        // room to finish before checking the held point.
        for _ in 0..16 {
            if c.converged() {
                break;
            }
            drive(&mut c, 1, 43, |_| 1.0, 0.0);
        }
        let k = c.knobs();
        assert_eq!(k.batch_size, 1024, "batch should climb 512 → 1024");
        assert_eq!(k.cache_capacity, 1024, "capacity should climb 256 → 1024");
        assert!(c.converged(), "noise-free surface must reach Hold");
        assert!(c.stats().accepted >= 3);
    }

    #[test]
    fn trajectories_are_deterministic() {
        let run = || {
            let mut c = Controller::new(ControllerConfig::default(), KnobState::default_for(4));
            drive(&mut c, 200, 7, |i| if i < 100 { 1.0 } else { 0.5 }, 0.01)
        };
        assert_eq!(run(), run(), "same inputs must give the same trajectory");
    }

    #[test]
    fn steady_profile_knob_trajectory_is_monotone() {
        // Under steady load the accepted values of each knob must move
        // monotonically toward the optimum — an accepted move is never
        // later un-done (reverted *probes* bounce by design; the accepted
        // baseline sequence must not).
        let mut c = Controller::new(ControllerConfig::default(), KnobState::default_for(4));
        let trajectory = drive(&mut c, 128, 11, |_| 1.0, 0.005);
        // Collapse to the sequence of distinct held points: a point is
        // "held" when it persists for 2+ epochs (probes last exactly one).
        let mut held: Vec<KnobState> = Vec::new();
        for w in trajectory.windows(2) {
            if w[0] == w[1] && held.last() != Some(&w[0]) {
                held.push(w[0]);
            }
        }
        for pair in held.windows(2) {
            assert!(
                pair[1].batch_size >= pair[0].batch_size,
                "accepted batch sequence regressed: {} after {}",
                pair[1], pair[0]
            );
            assert!(
                pair[1].cache_capacity >= pair[0].cache_capacity,
                "accepted capacity sequence regressed: {} after {}",
                pair[1], pair[0]
            );
        }
    }

    #[test]
    fn noisy_epochs_cannot_thrash_knobs() {
        // 1% relative noise at the surface optimum: hysteresis must keep
        // the controller from random-walking. Accepted moves stay rare
        // and the knobs stay within one step of where they started.
        let flat_start = KnobState {
            batch_size: 1024,
            chunk_reads: 4096,
            cache_capacity: 1024,
        };
        let mut c = Controller::new(ControllerConfig::default(), flat_start);
        let trajectory = drive(&mut c, 300, 1234, |_| 1.0, 0.01);
        let changes = trajectory.windows(2).filter(|w| w[0] != w[1]).count();
        // Every probe is one change out and (if reverted) one change
        // back; converged holds contribute none. Thrashing would show as
        // changes on most epochs.
        assert!(changes < 120, "knobs changed {changes}/300 epochs — thrashing");
        assert!(
            c.stats().accepted <= 2,
            "flat surface accepted {} moves under noise",
            c.stats().accepted
        );
        let k = c.knobs();
        assert!(k.batch_size >= 512 && k.batch_size <= 2048);
        assert!(k.cache_capacity >= 512 && k.cache_capacity <= 2048);
    }

    #[test]
    fn bursty_profile_skips_quiet_epochs_and_recovers() {
        // Bursty load: every other epoch is nearly empty. The noise guard
        // must skip the gaps (no decisions from them) and the controller
        // must still converge on the loaded epochs.
        let mut c = Controller::new(ControllerConfig::default(), KnobState::default_for(4));
        let mut rng = Rng(99);
        for i in 0..160 {
            let mut e = epoch(&c.knobs(), 1.0, rng.signed_unit() * 0.005);
            if i % 2 == 1 {
                e.reads = 3; // burst gap, below min_reads
                let d = c.observe_epoch(&e);
                assert_eq!(d, Decision::Skipped);
                continue;
            }
            c.observe_epoch(&e);
        }
        assert_eq!(c.stats().skipped, 80);
        for _ in 0..16 {
            if c.converged() {
                break;
            }
            let e = epoch(&c.knobs(), 1.0, 0.0);
            c.observe_epoch(&e);
        }
        assert_eq!(c.knobs().batch_size, 1024);
        assert_eq!(c.knobs().cache_capacity, 1024);
    }

    #[test]
    fn load_shift_rebaselines_without_thrash() {
        // Halving global throughput mid-run (a burst of heavier reads)
        // must not send the knobs on a walk: every sweep re-measures its
        // baseline, so the shift costs at most one reverted sweep before
        // the baseline reflects the new load, and the held point never
        // moves.
        let mut c = Controller::new(ControllerConfig::default(), KnobState::default_for(4));
        drive(&mut c, 64, 5, |_| 1.0, 0.0);
        let converged = c.knobs();
        let before_reverts = c.stats().reverted;
        drive(&mut c, 64, 6, |_| 0.5, 0.0);
        for _ in 0..16 {
            if c.converged() {
                break;
            }
            drive(&mut c, 1, 6, |_| 0.5, 0.0);
        }
        assert_eq!(c.knobs(), converged, "load shift moved converged knobs");
        let extra_reverts = c.stats().reverted - before_reverts;
        assert!(extra_reverts <= 12, "{extra_reverts} reverts after load shift");
    }

    #[test]
    fn bounds_are_hard_guards() {
        let config = ControllerConfig {
            bounds: KnobBounds { batch: (256, 512), chunk: (512, 512), cache: (256, 256) },
            ..ControllerConfig::default()
        };
        let start = KnobState {
            batch_size: 512,
            chunk_reads: 512,
            cache_capacity: 256,
        };
        let mut c = Controller::new(config, start);
        let trajectory = drive(&mut c, 64, 3, |_| 1.0, 0.0);
        for k in &trajectory {
            assert!(k.batch_size >= 256 && k.batch_size <= 512);
            assert_eq!(k.chunk_reads, 512);
            assert_eq!(k.cache_capacity, 256);
        }
    }

    #[test]
    fn epoch_stats_from_delta_maps_signals() {
        let metrics = mg_obs::Metrics::new();
        metrics.add(Ctr::ReadsMapped, 100);
        metrics.add(Ctr::CacheHits, 90);
        metrics.add(Ctr::CacheMisses, 10);
        let epoch0 = metrics.report();
        metrics.add(Ctr::ReadsMapped, 50);
        metrics.add(Ctr::CacheHits, 30);
        metrics.add(Ctr::CacheMisses, 30);
        metrics.add(Ctr::PoolIdleNs, 1_000);
        metrics.span(Stage::Seeding, 2_000);
        let delta = metrics.report().delta(&epoch0);
        let admission = AdmissionStats { pending_high_water: 5, ..AdmissionStats::default() };
        let e = EpochStats::from_delta(&delta, &admission, 10_000);
        if metrics.enabled() {
            assert_eq!(e.reads, 50);
            assert_eq!(e.cache_hits, 30);
            assert_eq!(e.cache_misses, 30);
            assert_eq!(e.idle_ns, 1_000);
            assert_eq!(e.seeding_ns, 2_000);
            assert!((e.cache_hit_rate() - 0.5).abs() < 1e-9);
        }
        assert_eq!(e.pending_high_water, 5);
        assert_eq!(e.wall_ns, 10_000);
    }
}
