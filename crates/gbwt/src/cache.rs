//! `CachedGbwt`: decompressed-record caching with a tunable initial
//! capacity.
//!
//! Giraffe keeps visited GBWT nodes decompressed in a per-thread cache so
//! repeated accesses skip decompression. The cache is an open-addressing
//! hash table; when it fills past its load limit it *doubles and rehashes*,
//! which is expensive. The paper exposes the initial capacity as a tuning
//! parameter (default 256) and finds it the statistically significant one:
//! too small means repeated rehash storms, too large means slow
//! initialization and poor locality. This implementation reproduces those
//! trade-offs directly.
//!
//! A table entry is one 64-byte `Slot`, aligned to a cache line: the key,
//! the visit count and up to two edges inline, plus arena references for the
//! runs and for the edges of records with more than two. A hit on a record
//! with at most two edges — nearly all of them — reads that one line until
//! the caller scans its runs.

use std::sync::Arc;

use mg_support::probe::{MemProbe, REGION_CACHE};
use mg_support::rle::Run;

use crate::gbwt::Gbwt;
use crate::record::{DecodedRecord, RecordEdge, RecordView};


/// Statistics accumulated by a [`CachedGbwt`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the per-thread cache.
    pub hits: u64,
    /// Lookups that had to decompress the record.
    pub misses: u64,
    /// Number of grow-and-rehash events.
    pub rehashes: u64,
    /// Total slots moved across all rehashes.
    pub rehashed_slots: u64,
    /// Cached entries discarded by a cold re-bind ([`CachedGbwt::with_state`]
    /// against a different index or capacity). The cache itself never evicts
    /// under pressure — it only grows — so this is the only eviction source.
    pub evictions: u64,
    /// Always 0; see [`HotTier`].
    pub hot_hits: u64,
}

/// What is left of the deleted shared hot tier, kept only because
/// `benchmark/src/layers.rs` (frozen in any PR that claims a gain) names
/// it: this uninhabited type (`Option<Arc<HotTier>>` is always `None`),
/// [`CachedGbwt::set_hot`]/[`CachedGbwt::with_hot`] (no-ops),
/// `Mapper::build_hot_tier` (returns `None`) and [`CacheStats::hot_hits`]
/// (always 0). A `benchmark` PR that drops those calls deletes all five.
#[derive(Debug)]
pub enum HotTier {}

impl CacheStats {
    /// Folds `other` into this accumulator — the one definition of
    /// cross-thread / cross-chunk cache-stat aggregation.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.rehashes += other.rehashes;
        self.rehashed_slots += other.rehashed_slots;
        self.evictions += other.evictions;
    }

    /// Total record lookups.
    pub fn total_lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A decompressed-record cache over a [`Gbwt`].
///
/// Not `Sync`: like Giraffe's `CachedGBWT`, each worker thread owns one.
///
/// # Examples
///
/// ```
/// use mg_graph::{Handle, NodeId};
/// use mg_gbwt::{CachedGbwt, GbwtBuilder};
///
/// let path: Vec<Handle> = [1u64, 2].iter()
///     .map(|&i| Handle::forward(NodeId::new(i))).collect();
/// let gbwt = GbwtBuilder::new().insert(&path).build().unwrap();
/// let mut cache = CachedGbwt::new(&gbwt, 64);
/// let first = cache.record(2).total_visits();
/// let again = cache.record(2).total_visits();
/// assert_eq!(first, again);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct CachedGbwt<'a> {
    gbwt: &'a Gbwt,
    state: CacheState,
}

/// One table entry, exactly one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Slot {
    /// `symbol + 1`; 0 marks an empty slot.
    key: u64,
    /// Haplotype visits at the node.
    total: u64,
    /// The edges, when there are at most two.
    inline: [RecordEdge; 2],
    /// Where the edges start in [`CacheState::edges`] when there are more
    /// than two.
    edge_start: u32,
    edge_count: u32,
    /// Where the runs start in [`CacheState::runs`].
    run_start: u32,
    run_count: u32,
}

const NO_EDGE: RecordEdge = RecordEdge { symbol: 0, offset: 0 };
const EMPTY_SLOT: Slot = Slot {
    key: 0,
    total: 0,
    inline: [NO_EDGE; 2],
    edge_start: 0,
    edge_count: 0,
    run_start: 0,
    run_count: 0,
};
const _: () = assert!(std::mem::size_of::<Slot>() == REGION_CACHE.stride as usize);

/// The detachable storage of a [`CachedGbwt`]: table, arenas, statistics,
/// and the identity of the index it was warmed against.
///
/// A persistent worker pool keeps one `CacheState` per thread across `run()`
/// calls and rebinds it with [`CachedGbwt::with_state`]. When the next run
/// maps against the same index (same [`Gbwt::uid`]) with the same configured
/// capacity, the warmed table carries over and only the statistics reset;
/// otherwise the state is rebuilt cold (reusing its allocations).
#[derive(Debug, Default)]
pub struct CacheState {
    /// [`Gbwt::uid`] of the index this table was filled from (0 = never
    /// bound; uids start at 1).
    gbwt_uid: u64,
    /// The capacity the cache was configured with (pre-rounding), so a
    /// tuning sweep that varies the capacity never reuses a table built
    /// under a different setting.
    initial_capacity: usize,
    /// Open-addressing table, a power of two long; empty when caching is
    /// disabled (capacity 0: the "no caching structure" baseline of the
    /// paper's Figure 6, where every lookup decompresses).
    slots: Vec<Slot>,
    /// Edges of the cached records with more than two, appended on a miss.
    edges: Vec<RecordEdge>,
    /// Runs of every cached record, appended on a miss.
    runs: Vec<Run>,
    len: usize,
    stats: CacheStats,
    /// Recycled decode target: disabled-mode lookups and cache misses
    /// decompress into this, reusing its buffers.
    scratch: DecodedRecord,
}

impl CacheState {
    /// Reinitializes for `uid` and `initial_capacity`, keeping allocations
    /// where possible.
    fn reset_for(&mut self, uid: u64, initial_capacity: usize) {
        let discarded = self.len as u64;
        self.gbwt_uid = uid;
        self.initial_capacity = initial_capacity;
        self.stats = CacheStats {
            evictions: discarded,
            ..CacheStats::default()
        };
        self.len = 0;
        let capacity = if initial_capacity == 0 {
            0
        } else {
            initial_capacity.max(8).next_power_of_two()
        };
        self.slots.clear();
        self.slots.resize(capacity, EMPTY_SLOT);
        self.edges.clear();
        self.runs.clear();
        // Shrinking (a sweep stepping 4096 → 8) must not pin the old
        // table: return the surplus storage to the allocator, keeping
        // arenas about as large as one run per slot. `shrink_to` is a no-op
        // when the table grew.
        self.slots.shrink_to(capacity);
        self.edges.shrink_to(capacity);
        self.runs.shrink_to(capacity);
    }

    /// The record a filled slot describes.
    #[inline]
    fn view(&self, slot: usize) -> RecordView<'_> {
        let s = &self.slots[slot];
        let edge_count = s.edge_count as usize;
        let edges = if edge_count <= s.inline.len() {
            &s.inline[..edge_count]
        } else {
            &self.edges[s.edge_start as usize..][..edge_count]
        };
        RecordView {
            total: s.total,
            edges,
            runs: &self.runs[s.run_start as usize..][..s.run_count as usize],
        }
    }

    /// Fills `slot` with the record in `scratch` under `key`, appending its
    /// runs (and edges beyond two) to the arenas.
    fn fill(&mut self, slot: usize, key: u64) {
        let record = &self.scratch;
        let arena_index = |len: usize| u32::try_from(len).expect("cache arena exceeds u32 range");
        let mut filled = Slot {
            key,
            total: record.total_visits(),
            edge_count: arena_index(record.edges.len()),
            run_start: arena_index(self.runs.len()),
            run_count: arena_index(record.runs.len()),
            ..EMPTY_SLOT
        };
        if record.edges.len() <= filled.inline.len() {
            filled.inline[..record.edges.len()].copy_from_slice(&record.edges);
        } else {
            filled.edge_start = arena_index(self.edges.len());
            self.edges.extend_from_slice(&record.edges);
        }
        self.runs.extend_from_slice(&record.runs);
        self.slots[slot] = filled;
    }
}

/// Maximum load factor before growing (num/den).
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

impl<'a> CachedGbwt<'a> {
    /// Creates a cache with the given initial capacity (rounded up to a
    /// power of two, minimum 8). A capacity of **0** disables caching
    /// entirely: every lookup decompresses the record (Figure 6's
    /// no-cache baseline).
    pub fn new(gbwt: &'a Gbwt, initial_capacity: usize) -> Self {
        CachedGbwt::with_state(gbwt, initial_capacity, CacheState::default())
    }

    /// Rebinds a detached [`CacheState`] to `gbwt`. If `state` was warmed
    /// against the same index (by [`Gbwt::uid`]) with the same configured
    /// capacity, the cached records carry over and only statistics reset;
    /// otherwise the state is rebuilt cold.
    pub fn with_state(gbwt: &'a Gbwt, initial_capacity: usize, mut state: CacheState) -> Self {
        if state.gbwt_uid == gbwt.uid() && state.initial_capacity == initial_capacity {
            state.stats = CacheStats::default();
        } else {
            state.reset_for(gbwt.uid(), initial_capacity);
        }
        CachedGbwt { gbwt, state }
    }

    /// No-op; see [`HotTier`].
    pub fn set_hot(&mut self, _tier: Option<Arc<HotTier>>) {}

    /// No-op; see [`HotTier`].
    pub fn with_hot(self, _tier: Option<Arc<HotTier>>) -> Self {
        self
    }

    /// Detaches the storage so a pooled worker can keep it warm for the
    /// next run (see [`CachedGbwt::with_state`]).
    pub fn into_state(self) -> CacheState {
        self.state
    }

    /// The wrapped index.
    pub fn gbwt(&self) -> &'a Gbwt {
        self.gbwt
    }

    /// Current table capacity (slots).
    pub fn capacity(&self) -> usize {
        self.state.slots.len()
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.state.len
    }

    /// Returns `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.state.len == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.state.stats
    }

    #[inline]
    fn slot_of(&self, symbol: u64) -> usize {
        // Fibonacci hashing over the symbol.
        let h = symbol.wrapping_mul(0x9E3779B97F4A7C15);
        (h >> (64 - self.capacity().trailing_zeros())) as usize
    }

    /// The first empty slot at or after `symbol`'s home slot.
    #[inline]
    fn free_slot(&self, symbol: u64) -> usize {
        let mask = self.capacity() - 1;
        let mut slot = self.slot_of(symbol);
        while self.state.slots[slot].key != 0 {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Looks up the record of `symbol`, decompressing and inserting on miss.
    pub fn record(&mut self, symbol: u64) -> RecordView<'_> {
        self.record_with_probe(symbol, &mut mg_support::probe::NoProbe)
    }

    /// [`CachedGbwt::record`] with instrumentation: probe-visible table slot
    /// touches, plus the decompression accesses on a miss.
    pub fn record_with_probe<P: MemProbe>(&mut self, symbol: u64, probe: &mut P) -> RecordView<'_> {
        if self.state.slots.is_empty() {
            self.state.stats.misses += 1;
            self.gbwt
                .record_into_with_probe(symbol, probe, &mut self.state.scratch);
            return self.state.scratch.view();
        }
        let key = symbol + 1;
        let mask = self.capacity() - 1;
        let mut slot = self.slot_of(symbol);
        loop {
            probe.touch(REGION_CACHE.at(slot as u64), REGION_CACHE.stride as u32);
            probe.instret(3);
            let found = self.state.slots[slot].key;
            if found == key {
                self.state.stats.hits += 1;
                // A hit is modelled as the slot line plus the record header
                // (the caller's scan of edges/runs is charged by the kernels
                // themselves, identically for hits and misses).
                probe.touch(REGION_CACHE.at(slot as u64) + 8, 64);
                return self.state.view(slot);
            }
            if found == 0 {
                break;
            }
            slot = (slot + 1) & mask;
        }
        // Miss: decompress into the recycled scratch record, then copy it
        // into the slot and the arenas.
        self.state.stats.misses += 1;
        self.gbwt
            .record_into_with_probe(symbol, probe, &mut self.state.scratch);
        if (self.state.len + 1) * LOAD_DEN > self.capacity() * LOAD_NUM {
            self.grow(probe);
            slot = self.free_slot(symbol);
        }
        self.state.fill(slot, key);
        self.state.len += 1;
        probe.touch(REGION_CACHE.at(slot as u64), REGION_CACHE.stride as u32);
        self.state.view(slot)
    }

    /// Doubles the table and reinserts every entry (the expensive rehash the
    /// paper's capacity tuning avoids). The arenas do not move.
    fn grow<P: MemProbe>(&mut self, probe: &mut P) {
        let doubled = vec![EMPTY_SLOT; self.capacity() * 2];
        let old = std::mem::replace(&mut self.state.slots, doubled);
        self.state.stats.rehashes += 1;
        for entry in old.into_iter().filter(|s| s.key != 0) {
            self.state.stats.rehashed_slots += 1;
            // Rehash cost: read the old slot, write the new one.
            probe.instret(6);
            let slot = self.free_slot(entry.key - 1);
            probe.touch(REGION_CACHE.at(slot as u64), REGION_CACHE.stride as u32);
            self.state.slots[slot] = entry;
        }
    }

    /// Approximate heap footprint of the cache in bytes (drives the memory
    /// pressure model in the simulated-machine experiments).
    pub fn heap_bytes(&self) -> usize {
        self.state.slots.capacity() * std::mem::size_of::<Slot>()
            + self.state.edges.capacity() * std::mem::size_of::<RecordEdge>()
            + self.state.runs.capacity() * std::mem::size_of::<Run>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GbwtBuilder;
    use mg_graph::{Handle, NodeId};
    use mg_support::probe::CountingProbe;

    fn chain_gbwt(n: u64) -> Gbwt {
        let path: Vec<Handle> = (1..=n).map(|i| Handle::forward(NodeId::new(i))).collect();
        GbwtBuilder::new().insert(&path).build().unwrap()
    }

    #[test]
    fn hit_after_miss() {
        let g = chain_gbwt(4);
        let mut cache = CachedGbwt::new(&g, 16);
        let direct = g.record(4);
        assert_eq!(cache.record(4), direct.view());
        assert_eq!(cache.record(4), direct.view());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let g = chain_gbwt(2);
        assert_eq!(CachedGbwt::new(&g, 1).capacity(), 8);
        assert_eq!(CachedGbwt::new(&g, 100).capacity(), 128);
        assert_eq!(CachedGbwt::new(&g, 256).capacity(), 256);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let g = chain_gbwt(4);
        let mut cache = CachedGbwt::new(&g, 0);
        assert_eq!(cache.capacity(), 0, "disabled");
        let direct = g.record(4);
        assert_eq!(cache.record(4), direct.view());
        assert_eq!(cache.record(4), direct.view());
        // Every lookup is a miss; nothing is retained.
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn growth_rehashes_and_preserves_entries() {
        let g = chain_gbwt(64);
        let mut cache = CachedGbwt::new(&g, 8);
        // Touch every record of every orientation: 128 symbols > 8 slots.
        for sym in 2..g.alphabet_size() {
            let _ = cache.record(sym);
        }
        assert!(cache.stats().rehashes >= 3);
        assert_eq!(cache.len() as u64, g.alphabet_size() - 2);
        // Everything still correct and now hits.
        let before_hits = cache.stats().hits;
        for sym in 2..g.alphabet_size() {
            assert_eq!(cache.record(sym), g.record(sym).view(), "symbol {sym}");
        }
        assert_eq!(
            cache.stats().hits - before_hits,
            g.alphabet_size() - 2
        );
    }

    #[test]
    fn big_initial_capacity_never_rehashes() {
        let g = chain_gbwt(64);
        let mut cache = CachedGbwt::new(&g, 4096);
        for sym in 2..g.alphabet_size() {
            let _ = cache.record(sym);
        }
        assert_eq!(cache.stats().rehashes, 0);
        assert_eq!(cache.capacity(), 4096);
    }

    #[test]
    fn probe_sees_more_work_on_miss_than_hit() {
        let g = chain_gbwt(8);
        let mut cache = CachedGbwt::new(&g, 64);
        let mut miss_probe = CountingProbe::default();
        let _ = cache.record_with_probe(2, &mut miss_probe);
        let mut hit_probe = CountingProbe::default();
        let _ = cache.record_with_probe(2, &mut hit_probe);
        assert!(miss_probe.instructions > hit_probe.instructions);
        assert!(miss_probe.touches > hit_probe.touches);
    }

    #[test]
    fn unknown_symbols_cache_empty_records() {
        let g = chain_gbwt(4);
        let mut cache = CachedGbwt::new(&g, 16);
        assert!(cache.record(500).is_empty());
        assert!(cache.record(500).is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn stats_reset() {
        let g = chain_gbwt(4);
        let mut cache = CachedGbwt::new(&g, 16);
        let _ = cache.record(2);
        // A warm rebind resets the statistics; the contents stay.
        let cache = CachedGbwt::with_state(&g, 16, cache.into_state());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn warm_state_carries_over_for_same_index_and_capacity() {
        let g = chain_gbwt(8);
        let mut cache = CachedGbwt::new(&g, 64);
        for sym in 2..g.alphabet_size() {
            let _ = cache.record(sym);
        }
        let warmed_len = cache.len();
        assert!(warmed_len > 0);
        let state = cache.into_state();

        let mut cache = CachedGbwt::with_state(&g, 64, state);
        // Contents carried over, statistics reset.
        assert_eq!(cache.len(), warmed_len);
        assert_eq!(cache.stats(), CacheStats::default());
        for sym in 2..g.alphabet_size() {
            assert_eq!(cache.record(sym), g.record(sym).view(), "symbol {sym}");
        }
        assert_eq!(cache.stats().misses, 0);
        assert_eq!(cache.stats().hits, g.alphabet_size() - 2);
    }

    #[test]
    fn state_rebuilds_cold_for_different_index_or_capacity() {
        let g1 = chain_gbwt(8);
        let g2 = chain_gbwt(8); // identical content, different uid
        assert_ne!(g1.uid(), g2.uid());

        let mut cache = CachedGbwt::new(&g1, 64);
        let _ = cache.record(2);
        let state = cache.into_state();
        let mut cache = CachedGbwt::with_state(&g2, 64, state);
        assert_eq!(cache.len(), 0);
        let _ = cache.record(2);
        assert_eq!(cache.stats().misses, 1);

        // Same index, different configured capacity: also cold, and the
        // behavior (including rehash statistics) matches a fresh cache.
        let state = cache.into_state();
        let cache = CachedGbwt::with_state(&g1, 8, state);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.capacity(), CachedGbwt::new(&g1, 8).capacity());

        // Capacity 0 after a warm run: disabled mode.
        let state = cache.into_state();
        let mut cache = CachedGbwt::with_state(&g1, 0, state);
        assert_eq!(cache.capacity(), 0, "disabled");
        let _ = cache.record(2);
        let _ = cache.record(2);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn cold_rebind_counts_evictions() {
        let g1 = chain_gbwt(8);
        let g2 = chain_gbwt(8);
        let mut cache = CachedGbwt::new(&g1, 64);
        for sym in 2..g1.alphabet_size() {
            let _ = cache.record(sym);
        }
        let cached = cache.len() as u64;
        assert!(cached > 0);
        // Warm rebind: nothing discarded.
        let state = cache.into_state();
        let cache = CachedGbwt::with_state(&g1, 64, state);
        assert_eq!(cache.stats().evictions, 0);
        // Cold rebind to a different index: every cached entry is discarded.
        let state = cache.into_state();
        let cache = CachedGbwt::with_state(&g2, 64, state);
        assert_eq!(cache.stats().evictions, cached);
    }

    #[test]
    fn hit_rate() {
        let mut stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        stats.hits = 3;
        stats.misses = 1;
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(stats.total_lookups(), 4);
    }

    #[test]
    fn shrinking_rebind_releases_table_memory() {
        // Regression: `reset_for` used to keep the old table's backing
        // storage (and the DecodedRecord allocations recycled in its slots)
        // when a sweep stepped the capacity down, so a 4096-slot point
        // pinned its footprint under every smaller point that followed.
        let g = chain_gbwt(64);
        let mut cache = CachedGbwt::new(&g, 4096);
        for sym in 2..g.alphabet_size() {
            let _ = cache.record(sym);
        }
        let big = cache.heap_bytes();
        assert!(big > 4096 * 8, "warmed 4096-slot table should be sizable");

        let state = cache.into_state();
        let shrunk = CachedGbwt::with_state(&g, 8, state);
        assert_eq!(shrunk.capacity(), 8);
        let small = shrunk.heap_bytes();
        let fresh = CachedGbwt::new(&g, 8).heap_bytes();
        assert!(
            small <= fresh + 4096,
            "shrunk table must release the old footprint: {small} bytes kept \
             vs {fresh} fresh (was {big} warm)"
        );

        // And the shrunk cache still works.
        let mut shrunk = shrunk;
        assert_eq!(shrunk.record(2), g.record(2).view());
    }

    /// One probe event, in the order the cache reported it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Touch(u64, u32),
        Instret(u64),
    }

    /// A probe that keeps the whole event stream.
    #[derive(Debug, Default)]
    struct Trace(Vec<Ev>);

    impl MemProbe for Trace {
        fn touch(&mut self, addr: u64, len: u32) {
            self.0.push(Ev::Touch(addr, len));
        }
        fn instret(&mut self, n: u64) {
            self.0.push(Ev::Instret(n));
        }
    }

    /// The table the cache must behave as, written out longhand: Fibonacci
    /// hash, linear probing, power-of-two capacity of at least 8, growth
    /// past a 3/4 load by doubling and reinserting in old-slot order, and
    /// capacity 0 as "decode every time". It keeps only keys; a miss
    /// replays the index's own decode into the trace, so the expected event
    /// stream (slot touches included) is exact.
    #[derive(Debug)]
    struct ReferenceTable {
        initial: usize,
        keys: Vec<u64>,
        len: usize,
        stats: CacheStats,
    }

    impl ReferenceTable {
        fn new(initial: usize) -> Self {
            let capacity = if initial == 0 { 0 } else { initial.max(8).next_power_of_two() };
            ReferenceTable { initial, keys: vec![0; capacity], len: 0, stats: CacheStats::default() }
        }

        fn slot(&self, symbol: u64) -> usize {
            let bits = self.keys.len().trailing_zeros();
            (symbol.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
        }

        fn free_slot(&self, symbol: u64) -> usize {
            let mut slot = self.slot(symbol);
            while self.keys[slot] != 0 {
                slot = (slot + 1) % self.keys.len();
            }
            slot
        }

        /// A warm rebind keeps the keys and resets the statistics; any
        /// other rebind starts cold and counts what it discards.
        fn rebind(&mut self, same_index: bool, initial: usize) {
            if same_index && initial == self.initial {
                self.stats = CacheStats::default();
            } else {
                let discarded = self.len as u64;
                *self = ReferenceTable::new(initial);
                self.stats.evictions = discarded;
            }
        }

        fn lookup(&mut self, gbwt: &Gbwt, symbol: u64, trace: &mut Trace) {
            let region = |slot: usize| REGION_CACHE.at(slot as u64);
            if self.keys.is_empty() {
                self.stats.misses += 1;
                let _ = gbwt.record_with_probe(symbol, trace);
                return;
            }
            let mut slot = self.slot(symbol);
            loop {
                trace.touch(region(slot), 64);
                trace.instret(3);
                if self.keys[slot] == symbol + 1 {
                    self.stats.hits += 1;
                    trace.touch(region(slot) + 8, 64);
                    return;
                }
                if self.keys[slot] == 0 {
                    break;
                }
                slot = (slot + 1) % self.keys.len();
            }
            self.stats.misses += 1;
            let _ = gbwt.record_with_probe(symbol, trace);
            if (self.len + 1) * 4 > self.keys.len() * 3 {
                let doubled = vec![0; self.keys.len() * 2];
                let old = std::mem::replace(&mut self.keys, doubled);
                self.stats.rehashes += 1;
                let mut moved = 0;
                for key in old.into_iter().filter(|&k| k != 0) {
                    moved += 1;
                    trace.instret(6);
                    let to = self.free_slot(key - 1);
                    trace.touch(region(to), 64);
                    self.keys[to] = key;
                }
                self.stats.rehashed_slots += moved;
                slot = self.free_slot(symbol);
            }
            self.keys[slot] = symbol + 1;
            self.len += 1;
            trace.touch(region(slot), 64);
        }
    }

    fn gbwt_of(paths: &[Vec<u64>]) -> Gbwt {
        let mut builder = GbwtBuilder::new();
        for ids in paths {
            let path: Vec<Handle> = ids.iter().map(|&s| Handle::from_gbwt(s).unwrap()).collect();
            builder = builder.insert(&path);
        }
        builder.build().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Random haplotypes (nodes repeat within a path, paths end
        /// anywhere) and random lookup traces, across the paper's capacity
        /// range, a warm rebind and a capacity change: every lookup equals
        /// the index's own decode, and after every step the statistics,
        /// table shape and probe stream equal the reference table's.
        #[test]
        fn prop_lookups_and_stats_match_the_reference_table(
            paths in proptest::collection::vec(proptest::collection::vec(2u64..24, 1..14), 1..8),
            trace in proptest::collection::vec(0u64..30, 1..160),
            next_capacity in proptest::sample::select(vec![0usize, 8, 64, 256, 4096]),
        ) {
            let gbwt = gbwt_of(&paths);
            for initial in [0usize, 8, 64, 256, 4096] {
                let mut cache = CachedGbwt::new(&gbwt, initial);
                let mut reference = ReferenceTable::new(initial);
                // Fresh, then warm on the same index and capacity, then
                // cold at another capacity.
                for phase in 0..3 {
                    if phase == 1 {
                        cache = CachedGbwt::with_state(&gbwt, initial, cache.into_state());
                        reference.rebind(true, initial);
                    } else if phase == 2 {
                        cache = CachedGbwt::with_state(&gbwt, next_capacity, cache.into_state());
                        reference.rebind(true, next_capacity);
                    }
                    proptest::prop_assert_eq!(cache.stats(), reference.stats);
                    for &symbol in &trace[phase * trace.len() / 3..] {
                        let mut got = Trace::default();
                        let mut want = Trace::default();
                        let record = cache.record_with_probe(symbol, &mut got);
                        let direct = gbwt.record(symbol);
                        proptest::prop_assert_eq!(record.total_visits(), direct.total_visits());
                        proptest::prop_assert_eq!(record.edges, &direct.edges[..]);
                        proptest::prop_assert_eq!(record.runs, &direct.runs[..]);
                        reference.lookup(&gbwt, symbol, &mut want);
                        proptest::prop_assert_eq!(got.0, want.0, "probe stream of symbol {}", symbol);
                        proptest::prop_assert_eq!(cache.stats(), reference.stats);
                        proptest::prop_assert_eq!(cache.capacity(), reference.keys.len());
                        proptest::prop_assert_eq!(cache.len(), reference.len);
                    }
                }
            }
        }
    }
}
