//! Memory/instruction probes for hardware-counter simulation.
//!
//! The mapping kernels are generic over a [`MemProbe`]. In production the
//! [`NoProbe`] implementation compiles to nothing; during counter-validation
//! experiments a recording probe (in `mg-perf`) feeds every logical memory
//! access into a cache-hierarchy simulator, reproducing the role Linux
//! `perf` hardware counters play in the paper.

/// A structured cache event emitted by `CachedGbwt` through the probe it
/// already receives, so the observability layer can count hits, misses,
/// evictions, and resizes without widening the kernel signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A record lookup was served from the cache.
    Hit,
    /// A record lookup decoded from the backing index.
    Miss,
    /// `n` cached entries were discarded (cold re-bind of a warm cache).
    Eviction(u64),
    /// The cache table doubled; `moved_slots` occupied slots were rehashed.
    Resize {
        /// Occupied slots moved during the rehash.
        moved_slots: u64,
    },
}

/// Receives the logical memory accesses and instruction counts of a kernel.
///
/// Addresses are *logical*: stable per-object identifiers (for example, the
/// byte offset of a GBWT record in its backing buffer) rather than real
/// pointers, so traces are deterministic across runs and machines.
pub trait MemProbe {
    /// Whether this probe consumes the per-base `touch`/`instret`/`branch`
    /// stream. Kernels with a data-parallel fast path may take it when
    /// `ACTIVE` is `false`, skipping per-base event generation entirely;
    /// when `true` they must run the scalar path so every logical access is
    /// reported at base granularity (the cache-simulator contract).
    ///
    /// Defaults to `true` — a probe must opt out explicitly. [`NoProbe`]
    /// and [`CacheTally`] (which ignores memory traffic) set `false`.
    const ACTIVE: bool = true;

    /// Records a read of `len` bytes at logical address `addr`.
    fn touch(&mut self, addr: u64, len: u32);

    /// Records the retirement of `n` abstract instructions.
    fn instret(&mut self, n: u64);

    /// Records a taken/not-taken branch outcome (for the top-down model).
    #[inline]
    fn branch(&mut self, _taken: bool) {}

    /// Records a structured cache event. Defaults to a no-op so existing
    /// probes (and `NoProbe`) pay nothing.
    #[inline]
    fn cache_event(&mut self, _e: CacheEvent) {}
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

/// A probe that only tallies [`CacheEvent`]s, ignoring memory traffic. The
/// instrumented mapping workers own one next to their metrics shard and
/// fold the tallies in when they finish.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Lookups served from the per-thread cache.
    pub hits: u64,
    /// Lookups that decoded from the backing index.
    pub misses: u64,
    /// Entries discarded by cold re-binds.
    pub evictions: u64,
    /// Table doublings.
    pub resizes: u64,
    /// Occupied slots moved across all doublings.
    pub rehashed_slots: u64,
}

impl MemProbe for CacheTally {
    /// Only [`CacheEvent`]s matter to the tally; it does not need the
    /// per-base access stream.
    const ACTIVE: bool = false;

    #[inline(always)]
    fn touch(&mut self, _addr: u64, _len: u32) {}

    #[inline(always)]
    fn instret(&mut self, _n: u64) {}

    #[inline]
    fn cache_event(&mut self, e: CacheEvent) {
        match e {
            CacheEvent::Hit => self.hits += 1,
            CacheEvent::Miss => self.misses += 1,
            CacheEvent::Eviction(n) => self.evictions += n,
            CacheEvent::Resize { moved_slots } => {
                self.resizes += 1;
                self.rehashed_slots += moved_slots;
            }
        }
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

    #[inline(always)]
    fn cache_event(&mut self, e: CacheEvent) {
        (**self).cache_event(e);
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
        p.cache_event(CacheEvent::Hit);
        assert_eq!(p, NoProbe);
    }

    #[test]
    fn cache_tally_counts_events() {
        let mut t = CacheTally::default();
        t.cache_event(CacheEvent::Hit);
        t.cache_event(CacheEvent::Hit);
        t.cache_event(CacheEvent::Miss);
        t.cache_event(CacheEvent::Eviction(4));
        t.cache_event(CacheEvent::Resize { moved_slots: 16 });
        t.cache_event(CacheEvent::Resize { moved_slots: 32 });
        t.touch(0, 64); // ignored
        assert_eq!(t.hits, 2);
        assert_eq!(t.misses, 1);
        assert_eq!(t.evictions, 4);
        assert_eq!(t.resizes, 2);
        assert_eq!(t.rehashed_slots, 48);
    }

    #[test]
    fn cache_events_forward_through_mut_ref() {
        let mut t = CacheTally::default();
        {
            let r = &mut t;
            r.cache_event(CacheEvent::Miss);
        }
        assert_eq!(t.misses, 1);
    }
}
