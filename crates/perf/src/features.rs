//! Per-read task features: the bridge from real kernel execution to the
//! simulated-machine executor.
//!
//! Cross-machine experiments (Figures 5–8, Tables VII–VIII) need per-task
//! costs on machines we do not have. We run the *real* proxy kernels once,
//! single-threaded, recording per read the abstract instructions, bytes
//! touched, and CachedGBWT behaviour; [`crate::simexec`] then replays those
//! features under each machine model. Because the features come from real
//! kernel executions, parameter effects (batch size via scheduling, cache
//! capacity via rehash/decompression work) are captured faithfully.

use mg_core::dump::SeedDump;
use mg_core::{Mapper, MappingOptions};
use mg_gbwt::CachedGbwt;
use mg_support::probe::CountingProbe;

/// Cost profile of mapping one read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskFeatures {
    /// Abstract instructions the kernels retired.
    pub instructions: u64,
    /// Bytes touched (reads of GBWT records, cache slots, sequences).
    pub bytes: u64,
    /// CachedGBWT hits while mapping this read.
    pub cache_hits: u64,
    /// CachedGBWT misses (decompressions) while mapping this read.
    pub cache_misses: u64,
}

/// A workload ready for the simulated executor.
#[derive(Debug, Clone, PartialEq)]
pub struct SimWorkload {
    /// Input-set name.
    pub name: String,
    /// Per-read features, in read order.
    pub tasks: Vec<TaskFeatures>,
    /// Size of the hot shared data (compressed GBWT + decoded cache),
    /// which competes for L3 across threads.
    pub hot_bytes: u64,
    /// Declared full-scale memory requirement in GiB (drives the
    /// out-of-memory outcomes of Figure 5: D-HPRC exceeds the 256 GiB
    /// machines).
    pub required_memory_gb: f64,
    /// One-time per-thread cost (CachedGBWT allocation and first touch),
    /// proportional to the configured capacity.
    pub setup_instructions_per_thread: u64,
    /// Per-thread private working set (cache table + decoded records); the
    /// executor models its pollution of the private L1/L2.
    pub private_hot_bytes: u64,
}

impl SimWorkload {
    /// Total instructions across tasks.
    pub fn total_instructions(&self) -> u64 {
        self.tasks.iter().map(|t| t.instructions).sum()
    }

    /// Mean bytes touched per task.
    pub fn mean_bytes(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.tasks.iter().map(|t| t.bytes).sum::<u64>() as f64 / self.tasks.len() as f64
        }
    }

    /// Replicates the task list `factor` times. The simulated experiments
    /// use this to reach paper-proportional read counts: per-task costs are
    /// measured from real kernel executions on the synthesized reads, then
    /// tiled — "more reads with this cost distribution" — so scheduling
    /// granularity effects (batches vs threads) match the paper's scale.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is 0.
    pub fn tiled(&self, factor: usize) -> SimWorkload {
        assert!(factor > 0, "tile factor must be positive");
        let mut tasks = Vec::with_capacity(self.tasks.len() * factor);
        for _ in 0..factor {
            tasks.extend_from_slice(&self.tasks);
        }
        SimWorkload {
            name: self.name.clone(),
            tasks,
            hot_bytes: self.hot_bytes,
            required_memory_gb: self.required_memory_gb,
            setup_instructions_per_thread: self.setup_instructions_per_thread,
            private_hot_bytes: self.private_hot_bytes,
        }
    }
}

/// Modelled one-time per-thread cost of building a CachedGBWT with the
/// given initial capacity (allocation, zeroing, first touch).
pub fn cache_setup_instructions(capacity: usize) -> u64 {
    12 * capacity as u64
}

/// Collects features from an arbitrary per-task function: `task(i, probe)`
/// performs task `i`, reporting its work to the probe. Used to profile the
/// *parent* pipeline (whose per-read work includes seeding and
/// post-processing) for the simulated strong-scaling runs of Figure 4.
pub fn collect_features_from(
    n: usize,
    hot_bytes: u64,
    required_memory_gb: f64,
    name: &str,
    setup_instructions_per_thread: u64,
    private_hot_bytes: u64,
    mut task: impl FnMut(usize, &mut CountingProbe) -> (u64, u64),
) -> SimWorkload {
    let mut tasks = Vec::with_capacity(n);
    let mut probe = CountingProbe::default();
    let mut prev = probe;
    for i in 0..n {
        let (cache_hits, cache_misses) = task(i, &mut probe);
        tasks.push(TaskFeatures {
            instructions: probe.instructions - prev.instructions,
            bytes: probe.bytes - prev.bytes,
            cache_hits,
            cache_misses,
        });
        prev = probe;
    }
    SimWorkload {
        name: name.to_string(),
        tasks,
        hot_bytes,
        required_memory_gb,
        setup_instructions_per_thread,
        private_hot_bytes,
    }
}

/// Runs the proxy kernels over `dump` single-threaded, extracting per-read
/// [`TaskFeatures`]. `required_memory_gb` is the full-scale footprint the
/// input set would need (Table III's real sizes).
pub fn collect_features(
    mapper: &Mapper<'_>,
    dump: &SeedDump,
    options: &MappingOptions,
    required_memory_gb: f64,
    name: &str,
) -> SimWorkload {
    let mut cache = CachedGbwt::new(mapper.gbz().gbwt(), options.cache_capacity);
    let mut prev = cache.stats();
    let workload = collect_features_from(
        dump.reads.len(),
        mapper.gbz().gbwt().compressed_bytes() as u64,
        required_memory_gb,
        name,
        cache_setup_instructions(options.cache_capacity),
        0, // the cache's footprint, known after the run below
        |i, probe| {
            let _ = mapper.map_read(&mut cache, i as u64, &dump.reads[i], options, probe);
            let stats = cache.stats();
            let delta = (stats.hits - prev.hits, stats.misses - prev.misses);
            prev = stats;
            delta
        },
    );
    SimWorkload { private_hot_bytes: cache.heap_bytes() as u64, ..workload }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_core::types::{ReadInput, Seed, Workflow};
    use mg_gbwt::Gbz;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use mg_graph::{Handle, NodeId};
    use mg_index::GraphPos;

    fn setup() -> (Gbz, SeedDump) {
        let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTTACGTACGTAACCGGTT".to_vec())
            .variants(vec![Variant::snp(6, b'T')])
            .haplotypes(vec![vec![0], vec![1]])
            .max_node_len(5)
            .build()
            .unwrap();
        let gbz = Gbz::from_pangenome(p).unwrap();
        let reads = (0..12)
            .map(|i| ReadInput {
                bases: b"AAAACCCCGGGGTTTT".to_vec(),
                seeds: vec![Seed::new(
                    0,
                    GraphPos::new(Handle::forward(NodeId::new(1)), (i % 3) as u32),
                )],
            })
            .collect();
        (gbz, SeedDump::new(Workflow::Single, reads))
    }

    #[test]
    fn features_cover_every_read() {
        let (gbz, dump) = setup();
        let mapper = Mapper::new(&gbz);
        let workload =
            collect_features(&mapper, &dump, &MappingOptions::default(), 40.0, "test");
        assert_eq!(workload.tasks.len(), 12);
        assert!(workload.tasks.iter().all(|t| t.instructions > 0));
        assert!(workload.tasks.iter().all(|t| t.bytes > 0));
        assert!(workload.hot_bytes > 0);
        assert!(workload.total_instructions() > 0);
        assert!(workload.mean_bytes() > 0.0);
    }

    #[test]
    fn later_reads_hit_the_warm_cache() {
        let (gbz, dump) = setup();
        let mapper = Mapper::new(&gbz);
        let workload =
            collect_features(&mapper, &dump, &MappingOptions::default(), 40.0, "test");
        let first = &workload.tasks[0];
        let last = &workload.tasks[11];
        assert!(first.cache_misses > 0, "cold cache misses");
        assert!(
            last.cache_misses <= first.cache_misses,
            "warm cache should not miss more"
        );
        assert!(last.cache_hits > 0);
    }

    #[test]
    fn small_capacity_costs_more_instructions() {
        let (gbz, dump) = setup();
        let mapper = Mapper::new(&gbz);
        let tiny = collect_features(
            &mapper,
            &dump,
            &MappingOptions { cache_capacity: 8, ..Default::default() },
            40.0,
            "tiny",
        );
        let big = collect_features(
            &mapper,
            &dump,
            &MappingOptions { cache_capacity: 4096, ..Default::default() },
            40.0,
            "big",
        );
        // The tiny cache may rehash; the big one never does. Either way the
        // feature collection must be deterministic per configuration.
        let tiny2 = collect_features(
            &mapper,
            &dump,
            &MappingOptions { cache_capacity: 8, ..Default::default() },
            40.0,
            "tiny",
        );
        assert_eq!(tiny.tasks, tiny2.tasks);
        assert!(big.hot_bytes >= tiny.hot_bytes, "bigger table, bigger footprint");
    }
}
