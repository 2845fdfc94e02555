//! Memory/instruction probes for hardware-counter simulation.
//!
//! The mapping kernels are generic over a [`MemProbe`]. In production the
//! [`NoProbe`] implementation compiles to nothing; during counter-validation
//! experiments a recording probe (in `mg-perf`) feeds every logical memory
//! access into a cache-hierarchy simulator, reproducing the role Linux
//! `perf` hardware counters play in the paper. Both run the same kernel
//! code: a probe's [`MemProbe::ACTIVE`] only picks whether the extension
//! walk compares eight bases a step or one base a step, reporting each.
//! Cache hits, misses and rehashes are not probe events; they are counted
//! by the cache itself (`CachedGbwt::stats`).

/// Receives the logical memory accesses and instruction counts of a kernel.
///
/// Addresses are *logical*: stable per-object identifiers (for example, the
/// byte offset of a GBWT record in its backing buffer) rather than real
/// pointers, so traces are deterministic across runs and machines. Every
/// address lies in one of the [`REGIONS`].
pub trait MemProbe {
    /// Whether this probe consumes the per-base `touch`/`instret`/`branch`
    /// stream. It selects how a kernel compares, never what it computes:
    /// the extension walk compares eight bases a step when `ACTIVE` is
    /// `false`, emitting no per-base events, and one base a step when it is
    /// `true`, reporting every logical access at base granularity (the
    /// cache-simulator contract). Visit order, pruning and results are the
    /// same either way.
    ///
    /// Defaults to `true` — a probe must opt out explicitly. [`NoProbe`]
    /// sets `false`.
    const ACTIVE: bool = true;

    /// Records a read of `len` bytes at logical address `addr`.
    fn touch(&mut self, addr: u64, len: u32);

    /// Records the retirement of `n` abstract instructions.
    fn instret(&mut self, n: u64);

    /// Records a taken/not-taken branch outcome (for the top-down model).
    #[inline]
    fn branch(&mut self, _taken: bool) {}
}

/// A region of the logical address space: room for `slots` elements of
/// `stride` bytes each, from `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// The first address.
    pub base: u64,
    /// Bytes per element.
    pub stride: u64,
    /// Elements the region has room for.
    pub slots: u64,
}

impl Region {
    /// The first address of element `index`.
    #[inline(always)]
    pub const fn at(self, index: u64) -> u64 {
        self.base + index * self.stride
    }
}

/// GBWT records: the offset table, 8 bytes an entry, then the record blob
/// from the table's end.
pub const REGION_RECORDS: Region = Region { base: 0x1000_0000_0000, stride: 8, slots: 1 << 41 };
/// `CachedGbwt` table slots, one 64-byte line each.
pub const REGION_CACHE: Region = Region { base: 0x2000_0000_0000, stride: 64, slots: 1 << 38 };
/// Graph sequence bytes: a 256-byte window per node id. Pangenome nodes
/// are capped well below that (`PangenomeBuilder::max_node_len` defaults
/// to 32), so windows never alias.
pub const REGION_GRAPH_SEQ: Region =
    Region { base: 0x3000_0000_0000, stride: 256, slots: 1 << 36 };
/// The bases of the read being extended, one byte each at its read offset.
pub const REGION_READ: Region = Region { base: 0x4000_0000_0000, stride: 1, slots: 1 << 32 };
/// The seed array of the read being clustered, touched whole from the base.
pub const REGION_SEEDS: Region = Region { base: 0x5000_0000_0000, stride: 1, slots: 1 << 32 };
/// The parent's seeding: a 4 KiB window of read bases per read id.
pub const REGION_PARENT_READS: Region =
    Region { base: 0x6000_0000_0000, stride: 4096, slots: 1 << 32 };
/// The parent's seeding: the seed list it fills, one of a ring of 512
/// 64 KiB buffers picked by read id.
pub const REGION_PARENT_SEEDS: Region =
    Region { base: 0x7000_0000_0000, stride: 65536, slots: 512 };

/// The logical address map: every region a probe is told of. A new region
/// goes here too, and the map's test checks that it overlaps no other.
pub const REGIONS: [Region; 7] = [
    REGION_RECORDS,
    REGION_CACHE,
    REGION_GRAPH_SEQ,
    REGION_READ,
    REGION_SEEDS,
    REGION_PARENT_READS,
    REGION_PARENT_SEEDS,
];

/// A probe that ignores everything; optimizes away entirely.
///
/// ```
/// use mg_support::probe::{MemProbe, NoProbe};
/// let mut p = NoProbe;
/// p.touch(0x10, 8);
/// p.instret(100);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl MemProbe for NoProbe {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn touch(&mut self, _addr: u64, _len: u32) {}

    #[inline(always)]
    fn instret(&mut self, _n: u64) {}
}

/// A probe that simply counts events, useful in tests and quick estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// Number of `touch` calls observed.
    pub touches: u64,
    /// Total bytes across all touches.
    pub bytes: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Total branch events.
    pub branches: u64,
}

impl MemProbe for CountingProbe {
    #[inline]
    fn touch(&mut self, _addr: u64, len: u32) {
        self.touches += 1;
        self.bytes += len as u64;
    }

    #[inline]
    fn instret(&mut self, n: u64) {
        self.instructions += n;
    }

    #[inline]
    fn branch(&mut self, _taken: bool) {
        self.branches += 1;
    }
}

impl<P: MemProbe> MemProbe for &mut P {
    const ACTIVE: bool = P::ACTIVE;

    #[inline(always)]
    fn touch(&mut self, addr: u64, len: u32) {
        (**self).touch(addr, len);
    }

    #[inline(always)]
    fn instret(&mut self, n: u64) {
        (**self).instret(n);
    }

    #[inline(always)]
    fn branch(&mut self, taken: bool) {
        (**self).branch(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_two_regions_overlap() {
        let end = |r: Region| r.stride.checked_mul(r.slots).and_then(|n| n.checked_add(r.base));
        let mut map = REGIONS;
        map.sort_by_key(|r| r.base);
        for pair in map.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(end(a).is_some_and(|end| end <= b.base), "{a:?} runs into {b:?}");
        }
        assert!(end(map[map.len() - 1]).is_some(), "the last region wraps the address space");
    }

    #[test]
    fn counting_probe_accumulates() {
        let mut p = CountingProbe::default();
        p.touch(0, 8);
        p.touch(64, 4);
        p.instret(10);
        p.instret(5);
        p.branch(true);
        assert_eq!(p.touches, 2);
        assert_eq!(p.bytes, 12);
        assert_eq!(p.instructions, 15);
        assert_eq!(p.branches, 1);
    }

    #[test]
    fn probe_through_mut_ref() {
        fn run(probe: &mut impl MemProbe) {
            probe.touch(1, 1);
            probe.instret(1);
        }
        let mut p = CountingProbe::default();
        run(&mut &mut p);
        assert_eq!(p.touches, 1);
        assert_eq!(p.instructions, 1);
    }

    #[test]
    fn no_probe_is_inert() {
        let mut p = NoProbe;
        p.touch(123, 456);
        p.instret(789);
        p.branch(false);
        assert_eq!(p, NoProbe);
    }
}
