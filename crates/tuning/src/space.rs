//! The autotuning parameter space (§VII-B).
//!
//! Three parameters are swept exhaustively (full cross-product): the
//! scheduler (OpenMP-dynamic vs the in-house work-stealing), the batch size
//! (powers of two, 128–2048) and the initial CachedGBWT capacity (bounded
//! to ≤ 4096 after the Figure 6 preliminary showed larger capacities
//! degrade). The defaults are Giraffe's: OpenMP, 512, 256.

use mg_sched::SchedulerKind;

/// One configuration point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuningPoint {
    /// Scheduler implementation.
    pub scheduler: SchedulerKind,
    /// Reads per scheduling batch.
    pub batch_size: usize,
    /// Initial CachedGBWT capacity.
    pub cache_capacity: usize,
}

impl std::fmt::Display for TuningPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/bs{}/cc{}", self.scheduler, self.batch_size, self.cache_capacity)
    }
}

impl TuningPoint {
    /// Giraffe's default configuration: OpenMP-dynamic, batch 512,
    /// capacity 256.
    pub fn default_config() -> Self {
        TuningPoint {
            scheduler: SchedulerKind::Dynamic,
            batch_size: 512,
            cache_capacity: 256,
        }
    }
}

/// The sweep space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpace {
    /// Schedulers considered.
    pub schedulers: Vec<SchedulerKind>,
    /// Batch sizes considered.
    pub batch_sizes: Vec<usize>,
    /// Cache capacities considered.
    pub cache_capacities: Vec<usize>,
}

impl Default for ParamSpace {
    /// The paper's space: {OpenMP, work-stealing} × {128..2048} ×
    /// {256..4096}, powers of two.
    fn default() -> Self {
        ParamSpace {
            schedulers: SchedulerKind::TUNED.to_vec(),
            batch_sizes: vec![128, 256, 512, 1024, 2048],
            cache_capacities: vec![256, 512, 1024, 2048, 4096],
        }
    }
}

impl ParamSpace {
    /// A reduced space for tests and quick runs.
    pub fn small() -> Self {
        ParamSpace {
            schedulers: SchedulerKind::TUNED.to_vec(),
            batch_sizes: vec![128, 512],
            cache_capacities: vec![256, 1024],
        }
    }

    /// Number of points in the cross-product.
    pub fn len(&self) -> usize {
        self.schedulers.len() * self.batch_sizes.len() * self.cache_capacities.len()
    }

    /// Returns `true` for an empty space.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the full cross-product in deterministic order.
    pub fn points(&self) -> impl Iterator<Item = TuningPoint> + '_ {
        self.schedulers.iter().flat_map(move |&scheduler| {
            self.batch_sizes.iter().flat_map(move |&batch_size| {
                self.cache_capacities.iter().map(move |&cache_capacity| TuningPoint {
                    scheduler,
                    batch_size,
                    cache_capacity,
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_matches_paper() {
        let space = ParamSpace::default();
        assert_eq!(space.len(), 2 * 5 * 5);
        assert!(space.batch_sizes.contains(&128));
        assert!(space.batch_sizes.contains(&2048));
        assert!(space.cache_capacities.iter().all(|&c| c <= 4096));
    }

    #[test]
    fn points_cover_cross_product_without_duplicates() {
        let space = ParamSpace::default();
        let points: Vec<TuningPoint> = space.points().collect();
        assert_eq!(points.len(), space.len());
        let distinct: std::collections::HashSet<_> = points.iter().collect();
        assert_eq!(distinct.len(), points.len());
    }

    #[test]
    fn default_config_is_giraffes() {
        let d = TuningPoint::default_config();
        assert_eq!(d.scheduler, SchedulerKind::Dynamic);
        assert_eq!(d.batch_size, 512);
        assert_eq!(d.cache_capacity, 256);
    }

    #[test]
    fn display_is_parseable_by_eye() {
        let p = TuningPoint::default_config();
        assert_eq!(p.to_string(), "openmp-dynamic/bs512/cc256");
    }
}
