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
/// pointers, so traces are deterministic across runs and machines.
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
