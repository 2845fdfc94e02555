//! Software cache-hierarchy simulation: the stand-in for `perf` counters.
//!
//! The paper validates miniGiraffe against Giraffe with hardware counters
//! (instructions, IPC, L1D/LLC accesses and misses — Table V). Without PMU
//! access we reproduce the measurement itself: kernels report every logical
//! memory access through [`mg_support::probe::MemProbe`], and
//! [`CacheSimProbe`] replays them through a three-level set-associative LRU
//! hierarchy, yielding the same counter vector for proxy and parent runs.

use mg_support::probe::MemProbe;

use crate::machine::MachineModel;

/// Cache line size used throughout (bytes).
pub const LINE_BYTES: u64 = 64;

/// One set-associative LRU cache level.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    /// Level name for reports ("L1D", "L2", "LLC").
    pub name: &'static str,
    sets: Vec<Vec<u64>>, // per set: tags, most recent last
    ways: usize,
    set_shift: u32,
    set_mask: u64,
    /// Total accesses at this level.
    pub accesses: u64,
    /// Total misses at this level.
    pub misses: u64,
}

impl CacheLevel {
    /// Creates a level of `size_bytes` with `ways` associativity. The set
    /// count is rounded *down* to a power of two, so the modelled capacity
    /// never exceeds the configured size; degenerate sizes get one set.
    pub fn new(name: &'static str, size_bytes: usize, ways: usize) -> Self {
        let lines = size_bytes / LINE_BYTES as usize;
        let raw_sets = (lines / ways).max(1);
        // Largest power of two <= raw_sets.
        let set_count = 1usize << (usize::BITS - 1 - raw_sets.leading_zeros());
        CacheLevel {
            name,
            sets: vec![Vec::with_capacity(ways); set_count],
            ways,
            set_shift: LINE_BYTES.trailing_zeros(),
            set_mask: set_count as u64 - 1,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses one cache line; returns `true` on hit.
    pub fn access(&mut self, line_addr: u64) -> bool {
        self.accesses += 1;
        let set = ((line_addr >> self.set_shift) & self.set_mask) as usize;
        let tags = &mut self.sets[set];
        if let Some(pos) = tags.iter().position(|&t| t == line_addr) {
            let tag = tags.remove(pos);
            tags.push(tag);
            true
        } else {
            self.misses += 1;
            if tags.len() >= self.ways {
                tags.remove(0);
            }
            tags.push(line_addr);
            false
        }
    }
}

/// The counter vector of Table V.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HwCounters {
    /// Abstract instructions retired.
    pub instructions: u64,
    /// Modelled cycles.
    pub cycles: u64,
    /// L1 data accesses.
    pub l1da: u64,
    /// L1 data misses.
    pub l1dm: u64,
    /// Last-level (L3) data accesses.
    pub llda: u64,
    /// Last-level data misses.
    pub lldm: u64,
    /// Branch instructions observed.
    pub branches: u64,
    /// Modelled branch mispredictions.
    pub branch_misses: u64,
    /// Memory-stall cycles (for the top-down model).
    pub memory_stall_cycles: u64,
}

impl HwCounters {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L1D miss rate.
    pub fn l1d_miss_rate(&self) -> f64 {
        if self.l1da == 0 { 0.0 } else { self.l1dm as f64 / self.l1da as f64 }
    }

    /// LLC miss rate.
    pub fn llc_miss_rate(&self) -> f64 {
        if self.llda == 0 { 0.0 } else { self.lldm as f64 / self.llda as f64 }
    }

    /// The vector compared by cosine similarity in the paper's validation:
    /// `[instructions, IPC, L1DA, L1DM, LLDA, LLDM]`.
    pub fn validation_vector(&self) -> [f64; 6] {
        [
            self.instructions as f64,
            self.ipc(),
            self.l1da as f64,
            self.l1dm as f64,
            self.llda as f64,
            self.lldm as f64,
        ]
    }
}

/// A [`MemProbe`] that drives the cache hierarchy of one machine model.
///
/// # Examples
///
/// ```
/// use mg_perf::cachesim::CacheSimProbe;
/// use mg_perf::machine::MachineModel;
/// use mg_support::probe::MemProbe;
///
/// let mut probe = CacheSimProbe::new(&MachineModel::local_intel());
/// probe.touch(0x1000, 64);
/// probe.touch(0x1000, 64); // second touch hits L1
/// probe.instret(10);
/// let counters = probe.counters();
/// assert_eq!(counters.l1da, 2);
/// assert_eq!(counters.l1dm, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSimProbe {
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
    instructions: u64,
    branches: u64,
    branch_flips: u64,
    last_branch: bool,
    l2_penalty: f64,
    l3_penalty: f64,
    mem_penalty: f64,
    base_cpi: f64,
}

impl CacheSimProbe {
    /// Builds a probe with `machine`'s cache sizes and penalties
    /// (single-thread view: full L3).
    pub fn new(machine: &MachineModel) -> Self {
        CacheSimProbe {
            l1: CacheLevel::new("L1D", machine.l1d_kb * 1024, 8),
            l2: CacheLevel::new("L2", machine.l2_kb * 1024, 8),
            l3: CacheLevel::new("LLC", (machine.l3_mb * 1024.0 * 1024.0) as usize, 16),
            instructions: 0,
            branches: 0,
            branch_flips: 0,
            last_branch: false,
            l2_penalty: machine.l2_penalty,
            l3_penalty: machine.l3_penalty,
            mem_penalty: machine.mem_penalty,
            base_cpi: machine.base_cpi,
        }
    }

    /// The accumulated counter vector.
    pub fn counters(&self) -> HwCounters {
        // Branch misses: a one-bit last-outcome predictor — every outcome
        // flip mispredicts.
        let branch_misses = self.branch_flips;
        let l2_hits = self.l1.misses - self.l2.misses;
        let l3_hits = self.l2.misses - self.l3.misses;
        let memory_stall = self.l2_penalty * l2_hits as f64
            + self.l3_penalty * l3_hits as f64
            + self.mem_penalty * self.l3.misses as f64;
        let cycles =
            (self.base_cpi * self.instructions as f64 + memory_stall + 14.0 * branch_misses as f64)
                .round() as u64;
        HwCounters {
            instructions: self.instructions,
            cycles: cycles.max(1),
            l1da: self.l1.accesses,
            l1dm: self.l1.misses,
            llda: self.l3.accesses,
            lldm: self.l3.misses,
            branches: self.branches,
            branch_misses,
            memory_stall_cycles: memory_stall.round() as u64,
        }
    }

    /// Access to the raw levels (for reports).
    pub fn levels(&self) -> [&CacheLevel; 3] {
        [&self.l1, &self.l2, &self.l3]
    }
}

impl MemProbe for CacheSimProbe {
    /// The simulator consumes the full per-base access stream: kernels with
    /// a word-parallel fast path must fall back to their scalar loop under
    /// this probe so `REGION_READ`/`REGION_GRAPH_SEQ` traffic keeps base
    /// granularity (see DESIGN.md §8).
    const ACTIVE: bool = true;

    fn touch(&mut self, addr: u64, len: u32) {
        let first = addr / LINE_BYTES;
        let last = (addr + len.max(1) as u64 - 1) / LINE_BYTES;
        for line in first..=last {
            let line_addr = line * LINE_BYTES;
            if !self.l1.access(line_addr) && !self.l2.access(line_addr) {
                self.l3.access(line_addr);
            }
        }
        // Each load is also an instruction.
        self.instructions += (last - first + 1).max(1);
    }

    fn instret(&mut self, n: u64) {
        self.instructions += n;
    }

    fn branch(&mut self, taken: bool) {
        self.branches += 1;
        if self.branches > 1 && taken != self.last_branch {
            self.branch_flips += 1;
        }
        self.last_branch = taken;
    }
}

/// Cosine similarity between two counter vectors (the paper reports 0.9996
/// between proxy and parent).
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must have equal length");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return if na == nb { 1.0 } else { 0.0 };
    }
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn level_lru_eviction() {
        // 2-way, tiny: 2 sets of 2 ways = 256 bytes.
        let mut level = CacheLevel::new("t", 256, 2);
        let same_set = |i: u64| i * 2 * LINE_BYTES; // stride hits one set
        assert!(!level.access(same_set(0)));
        assert!(!level.access(same_set(1)));
        assert!(level.access(same_set(0))); // still resident
        assert!(!level.access(same_set(2))); // evicts LRU = 1
        assert!(level.access(same_set(0)));
        assert!(!level.access(same_set(1))); // 1 was evicted
    }

    #[test]
    fn hierarchy_counts_inclusive_behaviour() {
        let mut probe = CacheSimProbe::new(&MachineModel::local_intel());
        probe.touch(0, 64);
        probe.touch(0, 64);
        let c = probe.counters();
        assert_eq!(c.l1da, 2);
        assert_eq!(c.l1dm, 1);
        assert_eq!(c.llda, 1); // only the first miss reached L3
        assert_eq!(c.lldm, 1);
    }

    #[test]
    fn multi_line_touch_counts_every_line() {
        let mut probe = CacheSimProbe::new(&MachineModel::local_intel());
        probe.touch(0, 256); // 4 lines
        assert_eq!(probe.counters().l1da, 4);
        // Unaligned spanning touch.
        let mut probe2 = CacheSimProbe::new(&MachineModel::local_intel());
        probe2.touch(60, 8); // crosses a line boundary
        assert_eq!(probe2.counters().l1da, 2);
    }

    #[test]
    fn working_set_larger_than_l1_misses() {
        let machine = MachineModel::local_intel(); // 32 KiB L1
        let mut probe = CacheSimProbe::new(&machine);
        // Two passes over 128 KiB: second pass still misses L1, hits L2.
        for pass in 0..2 {
            for i in 0..(128 * 1024 / 64) {
                probe.touch(i * 64, 8);
            }
            let c = probe.counters();
            if pass == 1 {
                assert!(c.l1dm > c.l1da / 4, "L1 thrashing expected");
                assert_eq!(c.lldm, 2048, "L3 holds the whole set after pass 1");
            }
        }
    }

    #[test]
    fn ipc_reflects_memory_stalls() {
        let machine = MachineModel::local_intel();
        // Compute-only run.
        let mut fast = CacheSimProbe::new(&machine);
        fast.instret(1_000_000);
        fast.touch(0, 8);
        // Memory-bound run: random large strides.
        let mut slow = CacheSimProbe::new(&machine);
        slow.instret(1_000_000);
        let mut addr = 0u64;
        for _ in 0..100_000 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            slow.touch(addr % (1 << 32), 8);
        }
        assert!(fast.counters().ipc() > slow.counters().ipc() * 2.0);
    }

    #[test]
    fn branch_flip_mispredictions() {
        let mut probe = CacheSimProbe::new(&MachineModel::local_intel());
        for i in 0..100 {
            probe.branch(i % 2 == 0); // alternating: worst case
        }
        let alternating = probe.counters().branch_misses;
        let mut probe2 = CacheSimProbe::new(&MachineModel::local_intel());
        for _ in 0..100 {
            probe2.branch(true); // monotone: near-zero misses
        }
        assert!(alternating > 90);
        assert_eq!(probe2.counters().branch_misses, 0);
    }

    #[test]
    fn cosine_similarity_basics() {
        assert!((cosine_similarity(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0], &[0.0]), 1.0);
        assert_eq!(cosine_similarity(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn cosine_rejects_mismatched_lengths() {
        cosine_similarity(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn prop_misses_never_exceed_accesses(addrs in proptest::collection::vec(0u64..1 << 20, 1..500)) {
            let mut probe = CacheSimProbe::new(&MachineModel::chi_arm());
            for a in addrs {
                probe.touch(a, 8);
            }
            let c = probe.counters();
            prop_assert!(c.l1dm <= c.l1da);
            prop_assert!(c.lldm <= c.llda);
            prop_assert!(c.llda <= c.l1dm); // only L2 misses reach L3
            prop_assert!(c.ipc() > 0.0);
        }

        #[test]
        fn prop_cosine_in_unit_range(a in proptest::collection::vec(0.0f64..1e6, 6), b in proptest::collection::vec(0.0f64..1e6, 6)) {
            let s = cosine_similarity(&a, &b);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&s));
        }
    }
}
