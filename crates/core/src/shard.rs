//! Sharded pangenome mapping: partitioning, the shard manifest, and the
//! minimizer-hit router.
//!
//! A *shard* is a self-contained slice of the pangenome — induced subgraph,
//! projected GBWT, core-filtered minimizer table, and sliced distance
//! index — bundled as one `.mgi` file, so an N-shard deployment is N cheap
//! zero-copy opens. The partition is by contiguous node-id ranges (node
//! ids follow the reference coordinate, so a range is a genomic region),
//! snapped to bubble-chain anchors so variant bubbles do not straddle a
//! cut:
//!
//! - the **core** ranges partition the node-id space exactly: every node
//!   belongs to one core, and a read whose seeds all land in one core is
//!   *resident* there;
//! - each shard's **window** extends its core by a margin of graph bases
//!   (an undirected Dijkstra ball), so every cluster-distance query and
//!   extension walk a resident read can perform stays strictly inside the
//!   shard.
//!
//! Residency is what makes sharding byte-stable: for a resident read the
//! shard kernel sees the same seeds (translated by a constant packed-handle
//! shift), the same distances, and the same haplotype branch counts as the
//! monolithic pipeline, so it produces the translated image of the exact
//! same extensions. Reads that are not resident (seeds spanning cores, or
//! too long for the margin) fall back to the monolithic path — correctness
//! never depends on routing quality.
//!
//! The **router** extracts a read's minimizers once, finds candidate
//! shards through per-shard k-mer Bloom summaries (no false negatives),
//! probes only those shards' minimizer tables, applies the *global*
//! hard-hit cap (per-shard counts summed over candidates — cores partition
//! positions, so the sum is the monolithic count), and emits the resident
//! shard's local seed list when exactly one shard has hits.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use mg_gbwt::Gbz;
use mg_graph::partition::IdWindow;
use mg_graph::{Handle, NodeId, VariationGraph};
use mg_index::minimizer::{extract_minimizers_into, Minimizer, MinimizerScratch};
use mg_index::{
    DistanceIndex, GraphPos, KmerBloom, MinimizerIndex, MinimizerParams, ShardMaskFilter,
};
use mg_support::container::{ContainerReader, ContainerWriter};
use mg_support::mgi::{put_u64, FixedReader};
use mg_support::{Error, Result};

use crate::mgi::MgiBundle;
use crate::types::Seed;

/// Container kind discriminator for shard manifest files.
pub const MANIFEST_KIND: [u8; 4] = *b"MGSM";
/// Section tag: manifest header + per-shard geometry.
pub const TAG_SHARD_META: u32 = 0x0001;
/// Section tag: per-shard k-mer Bloom summaries.
pub const TAG_SHARD_BLOOM: u32 = 0x0002;
/// Section tag: core-boundary edges (global packed-handle pairs).
pub const TAG_SHARD_BOUNDARY: u32 = 0x0003;

/// File name of the manifest inside a shard directory.
pub const MANIFEST_FILE: &str = "shards.mgsm";

/// Partitioning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardParams {
    /// Number of shards to cut the graph into (clamped to the node count).
    pub shard_count: usize,
    /// Maximum graph-distance limit (in bases) a resident read's kernels
    /// may query. Reads (or cluster limits) exceeding this fall back to
    /// the monolithic pipeline; larger values grow the window overlap.
    pub resident_limit: u64,
}

impl Default for ShardParams {
    fn default() -> Self {
        ShardParams { shard_count: 4, resident_limit: 600 }
    }
}

/// One shard's geometry inside the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard index (dense, ascending with node-id ranges).
    pub id: u32,
    /// The owned node-id range; cores partition `1..=node_count`.
    pub core: IdWindow,
    /// The loaded node-id range: core plus the residency margin.
    pub window: IdWindow,
}

/// The routing table header: everything a router needs without opening any
/// shard `.mgi` — geometry, per-shard k-mer summaries, and the edges that
/// cross core boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Total node count of the unsharded graph.
    pub node_count: u64,
    /// The residency margin the windows were built with.
    pub resident_limit: u64,
    /// Minimizer scheme shared by all shards (and the monolithic index).
    pub params: MinimizerParams,
    /// Per-shard geometry, ascending by core range.
    pub metas: Vec<ShardMeta>,
    /// Per-shard k-mer membership summaries (no false negatives: a k-mer
    /// with a position in shard `s`'s core is always present in `blooms[s]`).
    pub blooms: Vec<KmerBloom>,
    /// Edges whose endpoints lie in different cores, as global packed
    /// handles in canonical edge direction.
    pub boundary: Vec<(u64, u64)>,
}

impl ShardManifest {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.metas.len()
    }

    /// The shard whose core owns `node`, by binary search.
    pub fn core_shard(&self, node: NodeId) -> Option<usize> {
        let v = node.value();
        if v == 0 || v > self.node_count {
            return None;
        }
        let i = self.metas.partition_point(|m| m.core.hi < v);
        debug_assert!(self.metas[i].core.contains(node));
        Some(i)
    }

    /// Serializes the manifest to a writer.
    ///
    /// # Errors
    ///
    /// Returns underlying IO errors.
    pub fn write_to(&self, w: impl std::io::Write) -> Result<()> {
        let mut writer = ContainerWriter::new(w, MANIFEST_KIND)?;
        let mut meta = Vec::new();
        put_u64(&mut meta, self.node_count);
        put_u64(&mut meta, self.resident_limit);
        put_u64(&mut meta, self.params.k as u64);
        put_u64(&mut meta, self.params.w as u64);
        put_u64(&mut meta, self.metas.len() as u64);
        for m in &self.metas {
            put_u64(&mut meta, m.core.lo);
            put_u64(&mut meta, m.core.hi);
            put_u64(&mut meta, m.window.lo);
            put_u64(&mut meta, m.window.hi);
        }
        writer.section(TAG_SHARD_META, &meta)?;
        let mut blooms = Vec::new();
        for b in &self.blooms {
            put_u64(&mut blooms, b.words().len() as u64);
            for &word in b.words() {
                put_u64(&mut blooms, word);
            }
        }
        writer.section(TAG_SHARD_BLOOM, &blooms)?;
        let mut boundary = Vec::new();
        put_u64(&mut boundary, self.boundary.len() as u64);
        for &(from, to) in &self.boundary {
            put_u64(&mut boundary, from);
            put_u64(&mut boundary, to);
        }
        writer.section(TAG_SHARD_BOUNDARY, &boundary)?;
        writer.finish()?;
        Ok(())
    }

    /// Deserializes and structurally validates a manifest: cores must
    /// partition `1..=node_count` contiguously in ascending order, windows
    /// must contain their cores and stay in range, and every shard needs a
    /// well-formed Bloom summary. Untrusted input cannot make a validated
    /// manifest panic later.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on any structural violation.
    pub fn read_from(r: impl std::io::Read) -> Result<Self> {
        let mut reader = ContainerReader::new(r, MANIFEST_KIND)?;
        let meta_bytes = reader.expect_section(TAG_SHARD_META)?;
        let mut meta = FixedReader::new(&meta_bytes);
        let node_count = meta.read_u64()?;
        let resident_limit = meta.read_u64()?;
        let k = meta.read_u64()? as usize;
        let w = meta.read_u64()? as usize;
        if !(1..=31).contains(&k) || w == 0 {
            return Err(Error::Corrupt(format!("bad minimizer scheme k={k} w={w}")));
        }
        let shard_count = meta.read_u64()? as usize;
        if shard_count == 0 || shard_count as u64 > node_count {
            return Err(Error::Corrupt(format!(
                "manifest has {shard_count} shards for {node_count} nodes"
            )));
        }
        let mut metas = Vec::with_capacity(shard_count);
        let mut next_core = 1u64;
        for id in 0..shard_count {
            let core_lo = meta.read_u64()?;
            let core_hi = meta.read_u64()?;
            let window_lo = meta.read_u64()?;
            let window_hi = meta.read_u64()?;
            if core_lo != next_core || core_hi < core_lo || core_hi > node_count {
                return Err(Error::Corrupt(format!(
                    "shard {id} core [{core_lo}, {core_hi}] does not continue the partition at {next_core}"
                )));
            }
            if window_lo == 0 || window_lo > core_lo || window_hi < core_hi || window_hi > node_count {
                return Err(Error::Corrupt(format!(
                    "shard {id} window [{window_lo}, {window_hi}] does not cover core [{core_lo}, {core_hi}]"
                )));
            }
            next_core = core_hi + 1;
            metas.push(ShardMeta {
                id: id as u32,
                core: IdWindow::new(core_lo, core_hi),
                window: IdWindow::new(window_lo, window_hi),
            });
        }
        if next_core != node_count + 1 {
            return Err(Error::Corrupt(format!(
                "cores end at {} but the graph has {node_count} nodes",
                next_core - 1
            )));
        }
        if !meta.is_at_end() {
            return Err(Error::Corrupt("shard meta has trailing bytes".into()));
        }
        let bloom_bytes = reader.expect_section(TAG_SHARD_BLOOM)?;
        let mut bloom_r = FixedReader::new(&bloom_bytes);
        let mut blooms = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let words = bloom_r.read_u64()? as usize;
            // An absurd word count would allocate unbounded memory before
            // the power-of-two check; clamp against the payload size.
            if words > bloom_bytes.len() / 8 {
                return Err(Error::Corrupt(format!("shard {id} bloom overruns section")));
            }
            let mut v = Vec::with_capacity(words);
            for _ in 0..words {
                v.push(bloom_r.read_u64()?);
            }
            let bloom = KmerBloom::from_words(v)
                .ok_or_else(|| Error::Corrupt(format!("shard {id} bloom is malformed")))?;
            blooms.push(bloom);
        }
        if !bloom_r.is_at_end() {
            return Err(Error::Corrupt("shard blooms have trailing bytes".into()));
        }
        let boundary_bytes = reader.expect_section(TAG_SHARD_BOUNDARY)?;
        let mut bound_r = FixedReader::new(&boundary_bytes);
        let pairs = bound_r.read_u64()? as usize;
        if pairs > boundary_bytes.len() / 16 {
            return Err(Error::Corrupt("boundary list overruns section".into()));
        }
        let mut boundary = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let from = bound_r.read_u64()?;
            let to = bound_r.read_u64()?;
            boundary.push((from, to));
        }
        if !bound_r.is_at_end() {
            return Err(Error::Corrupt("boundary list has trailing bytes".into()));
        }
        reader.expect_end()?;
        Ok(ShardManifest {
            node_count,
            resident_limit,
            params: MinimizerParams::new(k, w),
            metas,
            blooms,
            boundary,
        })
    }
}

/// One loadable shard: geometry plus the full mapping bundle in
/// window-local coordinates.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The shard's manifest entry.
    pub meta: ShardMeta,
    /// Graph + GBWT + minimizer + distance slice, window-local.
    pub bundle: MgiBundle,
}

/// A complete shard deployment: manifest plus every shard's bundle.
#[derive(Debug, Clone)]
pub struct ShardSet {
    /// The routing table.
    pub manifest: ShardManifest,
    /// The shards, ascending by core range.
    pub shards: Vec<Shard>,
    /// In-memory interleaving of the manifest's per-shard Bloom filters
    /// (`None` above eight shards): one probe walk scores every shard.
    /// Rebuilt from the manifest on open, never serialized.
    mask: Option<ShardMaskFilter>,
}

/// Computes, for every node, the minimum undirected base-distance ball of
/// radius `margin` around the `core` range, and returns the enclosing id
/// window. Distance here is the sum of node lengths *left behind* along a
/// path, so any directed walk covering at most `margin` bases from a core
/// node only visits nodes inside the ball — the superset property the
/// residency argument needs.
fn window_around(graph: &VariationGraph, core: IdWindow, margin: u64) -> IdWindow {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = graph.node_count() as u64;
    let mut dist = vec![u64::MAX; graph.node_count() + 1];
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    for id in core.lo..=core.hi {
        dist[id as usize] = 0;
        heap.push(Reverse((0, id)));
    }
    let (mut lo, mut hi) = (core.lo, core.hi);
    while let Some(Reverse((d, id))) = heap.pop() {
        if d > dist[id as usize] {
            continue;
        }
        lo = lo.min(id);
        hi = hi.max(id);
        let step = d + graph.node_len(NodeId::new(id)) as u64;
        if step > margin {
            continue;
        }
        let node = NodeId::new(id);
        for h in [Handle::forward(node), Handle::reverse(node)] {
            for &next in graph.successors(h) {
                let v = next.node().value();
                if step < dist[v as usize] {
                    dist[v as usize] = step;
                    heap.push(Reverse((step, v)));
                }
            }
        }
    }
    IdWindow::new(lo.max(1), hi.min(n))
}

/// Cuts `1..=node_count` into `shard_count` contiguous core ranges of
/// roughly equal total bases, snapping each cut to the nearest bubble-chain
/// anchor at or after the target so no variant bubble straddles a core
/// boundary.
fn cut_cores(
    graph: &VariationGraph,
    dist: &DistanceIndex,
    shard_count: usize,
) -> Vec<IdWindow> {
    let n = graph.node_count() as u64;
    let k = shard_count.clamp(1, n as usize) as u64;
    let total: u64 = graph.node_ids().map(|id| graph.node_len(id) as u64).sum();
    // Anchors are the nodes every haplotype passes through; a cut placed on
    // an anchor keeps each bubble (the variant region between consecutive
    // anchors) wholly on one side.
    let chains = dist.chains();
    let mut cores = Vec::with_capacity(k as usize);
    let mut lo = 1u64;
    let mut acc = 0u64;
    let mut next_target = total / k;
    for id in 1..=n {
        acc += graph.node_len(NodeId::new(id)) as u64;
        let remaining_shards = k - cores.len() as u64;
        let remaining_ids = n - id;
        // Cut when past the byte target on an anchor (or anywhere if the
        // graph has no chains), but never starve the remaining shards of
        // ids: each still-open shard needs at least one node.
        let snapped = chains.chain_count() == 0 || chains.is_on_chain(NodeId::new(id));
        let must_cut = remaining_ids + 1 == remaining_shards;
        if cores.len() as u64 + 1 < k && ((acc >= next_target && snapped) || must_cut) {
            cores.push(IdWindow::new(lo, id));
            lo = id + 1;
            next_target = acc + (total - acc) / (k - cores.len() as u64);
        }
    }
    cores.push(IdWindow::new(lo, n));
    cores
}

impl ShardSet {
    /// Partitions a pangenome into shards.
    ///
    /// The monolithic minimizer and distance indexes are projected, not
    /// rebuilt, so each shard answers queries with the *global* values
    /// (approximate positions, components, per-k-mer position runs) — the
    /// precondition for byte-stable sharded mapping.
    ///
    /// # Errors
    ///
    /// Returns an error if a shard's GBWT projection fails (e.g. a window
    /// no haplotype walk intersects).
    pub fn build(
        gbz: &Gbz,
        minimizer: &MinimizerIndex,
        distance: &DistanceIndex,
        params: &ShardParams,
    ) -> Result<ShardSet> {
        let graph = gbz.graph();
        let n = graph.node_count() as u64;
        if n == 0 {
            return Err(Error::Corrupt("cannot shard an empty graph".into()));
        }
        let max_node_len = graph
            .node_ids()
            .map(|id| graph.node_len(id) as u64)
            .max()
            .unwrap_or(0);
        // Any directed walk of <= resident_limit bases from a core node
        // stays inside the margin ball; the node-length terms absorb entry
        // and exit offsets, the +64 the distance index's prefilter slack.
        let margin = params.resident_limit + 2 * max_node_len + 64;
        let cores = cut_cores(graph, distance, params.shard_count);

        let mut metas = Vec::with_capacity(cores.len());
        let mut shards = Vec::with_capacity(cores.len());
        for (id, &core) in cores.iter().enumerate() {
            let window = window_around(graph, core, margin);
            let meta = ShardMeta { id: id as u32, core, window };
            let (local_gbz, _window_boundary) = gbz.project_window(window)?;
            let local_min = minimizer.project_range(core, window);
            let local_dist = distance.project_window(local_gbz.graph(), window);
            metas.push(meta);
            shards.push(Shard {
                meta,
                bundle: MgiBundle::from_parts(local_gbz, local_min, local_dist),
            });
        }

        // One pass over the monolithic table fills every shard's summary.
        let mut blooms: Vec<KmerBloom> = metas
            .iter()
            .map(|_| KmerBloom::with_capacity(minimizer.distinct_kmers() / metas.len().max(1) + 16))
            .collect();
        for kmer in minimizer.kmers() {
            let Some(ps) = minimizer.positions(kmer) else { continue };
            let mut last = usize::MAX;
            for p in ps {
                let s = metas.partition_point(|m| m.core.hi < p.handle.node().value());
                if s != last {
                    blooms[s].insert(kmer);
                    last = s;
                }
            }
        }

        let boundary: Vec<(u64, u64)> = graph
            .edges()
            .filter(|(from, to)| {
                metas.partition_point(|m| m.core.hi < from.node().value())
                    != metas.partition_point(|m| m.core.hi < to.node().value())
            })
            .map(|(from, to)| (from.packed(), to.packed()))
            .collect();

        let manifest = ShardManifest {
            node_count: n,
            resident_limit: params.resident_limit,
            params: minimizer.params(),
            metas,
            blooms,
            boundary,
        };
        let mask = ShardMaskFilter::build(&manifest.blooms);
        Ok(ShardSet { manifest, shards, mask })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// File name of shard `i`'s bundle inside a shard directory.
    pub fn shard_file(i: usize) -> String {
        format!("shard-{i:03}.mgi")
    }

    /// Writes the deployment to `dir`: `shards.mgsm` plus one `.mgi` per
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(Error::Io)?;
        let manifest = File::create(dir.join(MANIFEST_FILE)).map_err(Error::Io)?;
        self.manifest.write_to(BufWriter::new(manifest))?;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.bundle.save(dir.join(Self::shard_file(i)))?;
        }
        Ok(())
    }

    /// Opens a deployment from `dir`: validates the manifest, then maps
    /// every shard `.mgi` zero-copy and cross-checks each bundle's node
    /// count against its manifest window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when manifest and shards disagree.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<ShardSet> {
        Self::open_dir_with(dir, |p| MgiBundle::open(p))
    }

    /// [`ShardSet::open_dir`] skipping per-section checksum verification,
    /// for repeated opens of already-verified files.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when manifest and shards disagree.
    pub fn open_dir_trusted(dir: impl AsRef<Path>) -> Result<ShardSet> {
        Self::open_dir_with(dir, |p| MgiBundle::open_trusted(p))
    }

    fn open_dir_with(
        dir: impl AsRef<Path>,
        open: impl Fn(&std::path::Path) -> Result<MgiBundle>,
    ) -> Result<ShardSet> {
        let dir = dir.as_ref();
        let manifest_file = File::open(dir.join(MANIFEST_FILE)).map_err(Error::Io)?;
        let manifest = ShardManifest::read_from(BufReader::new(manifest_file))?;
        let mut shards = Vec::with_capacity(manifest.shard_count());
        for (i, &meta) in manifest.metas.iter().enumerate() {
            let bundle = open(&dir.join(Self::shard_file(i)))?;
            if bundle.gbz().graph().node_count() as u64 != meta.window.len() {
                return Err(Error::Corrupt(format!(
                    "shard {i} bundle has {} nodes but its window spans {}",
                    bundle.gbz().graph().node_count(),
                    meta.window.len()
                )));
            }
            if bundle.minimizer().params() != manifest.params {
                return Err(Error::Corrupt(format!(
                    "shard {i} minimizer scheme disagrees with the manifest"
                )));
            }
            shards.push(Shard { meta, bundle });
        }
        let mask = ShardMaskFilter::build(&manifest.blooms);
        Ok(ShardSet { manifest, shards, mask })
    }

    /// Routes one read: extracts its minimizers once, scores candidate
    /// shards through the Bloom summaries, applies the global hard-hit cap
    /// (candidate-shard counts summed), and — when exactly one shard owns
    /// every surviving seed — fills `seeds_out` with that shard's local
    /// seed list, ordered exactly as the monolithic
    /// [`MinimizerIndex::query_into`] orders the same seeds.
    pub fn route_read(
        &self,
        bases: &[u8],
        hard_hit_cap: usize,
        scratch: &mut RouteScratch,
        seeds_out: &mut Vec<Seed>,
    ) -> RouteOutcome {
        seeds_out.clear();
        let mut mins = std::mem::take(&mut scratch.mins);
        extract_minimizers_into(bases, self.manifest.params, &mut scratch.extract, &mut mins);
        // All per-shard bookkeeping lives in bitmasks (shard counts are
        // small): `probed` = shards whose tables were consulted, `hit` =
        // shards holding at least one surviving seed.
        let mut probed_mask = 0u64;
        let mut hit_mask = 0u64;
        // Optimistic single-owner fill: while every surviving minimizer has
        // hit the same shard, append its positions to `seeds_out` as they
        // are counted, so the common resident read never looks a k-mer up
        // twice. `owner` may be poisoned by a minimizer the cap later
        // drops; the fanout check below catches that and refills.
        let mut owner: Option<u32> = None;
        let mut spoiled = false;
        for m in &mins {
            let cand = self.candidate_mask(KmerBloom::probe_hashes(m.kmer));
            probed_mask |= cand;
            let seed_start = seeds_out.len();
            let mut count = 0usize;
            let mut m_hits = 0u64;
            let mut c = cand;
            while c != 0 {
                let s = c.trailing_zeros() as usize;
                c &= c - 1;
                if let Some(ps) = self.shards[s].bundle.minimizer().positions(m.kmer) {
                    count += ps.len();
                    m_hits |= 1 << s;
                    if !spoiled {
                        match owner {
                            Some(o) if o != s as u32 => {
                                spoiled = true;
                                seeds_out.clear();
                            }
                            _ => {
                                owner = Some(s as u32);
                                if seeds_out.len() + ps.len() > MAX_ROUTED_SEEDS {
                                    spoiled = true;
                                    seeds_out.clear();
                                } else {
                                    let offset = m.offset;
                                    seeds_out
                                        .extend(ps.iter().map(|&pos| Seed::new(offset, pos)));
                                }
                            }
                        }
                    }
                }
            }
            if count > hard_hit_cap {
                // The monolithic repeat filter drops this minimizer; undo
                // its optimistic seeds and keep its shard hits out of the
                // fan-out.
                if !spoiled {
                    seeds_out.truncate(seed_start);
                }
            } else {
                hit_mask |= m_hits;
            }
        }
        let fanout = hit_mask.count_ones();
        let mut resident = None;
        if fanout == 1 {
            let s = hit_mask.trailing_zeros() as usize;
            if !spoiled && owner == Some(s as u32) {
                // The optimistic fill already holds exactly this shard's
                // seeds in minimizer order.
                resident = Some(s);
            } else {
                // Rare: the fill was spoiled by a cap-dropped minimizer
                // that hit another shard first. Refill from the survivors.
                resident = self.refill_resident(&mins, hard_hit_cap, s, seeds_out);
            }
        } else {
            seeds_out.clear();
        }
        scratch.mins = mins;
        RouteOutcome { probed: probed_mask.count_ones(), fanout, resident }
    }

    /// Candidate-shard bitmask for a hashed k-mer: one interleaved-filter
    /// walk when the mask is available (≤ 8 shards), else one probe per
    /// per-shard filter.
    #[inline]
    fn candidate_mask(&self, hashed: (u64, u64)) -> u64 {
        match &self.mask {
            Some(mask) => mask.candidates(hashed) as u64,
            None => {
                let mut c = 0u64;
                for (s, b) in self.manifest.blooms.iter().enumerate() {
                    if b.contains_hashed(hashed) {
                        c |= 1 << s;
                    }
                }
                c
            }
        }
    }

    /// Cold path for [`ShardSet::route_read`]: the optimistic fill was
    /// spoiled (a cap-dropped minimizer hit another shard first), but every
    /// surviving seed lives in shard `s`. Re-derives the per-minimizer cap
    /// decisions and fills `seeds_out` from shard `s` in minimizer order;
    /// `None` only on pathological overflow (the caller falls back).
    #[cold]
    fn refill_resident(
        &self,
        mins: &[Minimizer],
        hard_hit_cap: usize,
        s: usize,
        seeds_out: &mut Vec<Seed>,
    ) -> Option<usize> {
        seeds_out.clear();
        let shard = &self.shards[s];
        for m in mins {
            let mut count = 0usize;
            let mut c = self.candidate_mask(KmerBloom::probe_hashes(m.kmer));
            while c != 0 {
                let t = c.trailing_zeros() as usize;
                c &= c - 1;
                if let Some(ps) = self.shards[t].bundle.minimizer().positions(m.kmer) {
                    count += ps.len();
                }
            }
            if count > hard_hit_cap {
                continue;
            }
            if let Some(ps) = shard.bundle.minimizer().positions(m.kmer) {
                if seeds_out.len() + ps.len() > MAX_ROUTED_SEEDS {
                    seeds_out.clear();
                    return None;
                }
                for &pos in ps {
                    seeds_out.push(Seed::new(m.offset, pos));
                }
            }
        }
        Some(s)
    }
}

/// Backstop against a pathological read routing an absurd seed list; the
/// monolithic fallback handles such reads instead.
const MAX_ROUTED_SEEDS: usize = 1 << 20;

/// Reusable buffers for [`ShardSet::route_read`].
#[derive(Debug, Default)]
pub struct RouteScratch {
    extract: MinimizerScratch,
    mins: Vec<Minimizer>,
}

impl RouteScratch {
    /// The minimizers extracted by the last [`ShardSet::route_read`] call —
    /// a routing miss can fall back to whole-index seeding from these
    /// without paying a second extraction sweep.
    pub fn minimizers(&self) -> &[Minimizer] {
        &self.mins
    }
}

/// What routing one read decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Distinct shards whose minimizer tables were probed.
    pub probed: u32,
    /// Distinct shards that had at least one surviving seed.
    pub fanout: u32,
    /// The resident shard, when every surviving seed lands in one core.
    pub resident: Option<usize>,
}

impl ShardManifest {
    /// Routes a pre-seeded dump read by core ownership: `Some(shard)` when
    /// every seed's node sits in one shard's core (no minimizer extraction
    /// — the proxy path starts from captured seeds). Also reports the
    /// distinct-core fan-out for the routing histogram.
    pub fn route_seeds(&self, seeds: &[Seed]) -> (Option<usize>, u32) {
        let mut owner: Option<usize> = None;
        for sd in seeds {
            match (owner, self.core_shard(sd.pos.handle.node())) {
                (None, Some(s)) => owner = Some(s),
                (Some(o), Some(s)) if s != o => return (None, 2),
                _ => {}
            }
        }
        (owner, u32::from(owner.is_some()))
    }
}

/// Runs the proxy mapping loop over a seed dump with shard routing: reads
/// whose seeds all land in one shard core (and whose clustering radius
/// fits the halo) run that shard's kernel; everything else runs the
/// monolithic kernel. Results are byte-identical to
/// [`crate::run_mapping`] over the same dump; the routing counters in
/// `metrics` report how much work stayed shard-local.
pub fn run_mapping_sharded(
    dump: &crate::dump::SeedDump,
    gbz: &Gbz,
    distance: DistanceIndex,
    set: &ShardSet,
    options: &crate::MappingOptions,
    metrics: &mg_obs::Metrics,
) -> crate::MappingResults {
    use std::sync::OnceLock;
    use std::time::Instant;

    let mapper = crate::Mapper::with_distance(gbz, distance);
    let shard_mappers: Vec<crate::Mapper<'_>> = set
        .shards
        .iter()
        .map(|s| crate::Mapper::with_distance(s.bundle.gbz(), s.bundle.distance().clone()))
        .collect();
    let start = Instant::now();
    let n = dump.reads.len();
    let slots: Vec<OnceLock<crate::ReadResult>> = (0..n).map(|_| OnceLock::new()).collect();
    let mut pool = mapper.lock_pool();
    options.scheduler.run(
        options.batch_size,
        &mut pool,
        n,
        options.threads.max(1),
        metrics,
        &|thread, cell| {
            let persist = match cell.downcast_mut::<crate::ThreadPersist>() {
                Some(p) => std::mem::take(p),
                None => crate::ThreadPersist::default(),
            };
            Box::new(DumpShardWorker {
                mapper: &mapper,
                shard_mappers: &shard_mappers,
                set,
                reads: &dump.reads,
                options,
                thread,
                slots: &slots,
                cache: mg_gbwt::CachedGbwt::with_state(
                    gbz.gbwt(),
                    options.cache_capacity,
                    persist.cache,
                ),
                shard_caches: (0..set.shard_count()).map(|_| None).collect(),
                scratch: persist.scratch,
                local_seeds: Vec::new(),
                metrics,
                obs: metrics.shard(),
            })
        },
    );
    drop(pool);
    let per_read = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(|| panic!("scheduler never processed read {i}"))
        })
        .collect();
    crate::MappingResults {
        per_read,
        wall: start.elapsed(),
        cache: mg_gbwt::CacheStats::default(),
        cache_heap_bytes: 0,
    }
}

/// Pool worker for [`run_mapping_sharded`]: per assigned read, route by
/// seed-core ownership, run the resident shard's kernel with translated
/// seeds (or the monolithic kernel), translate extensions back.
struct DumpShardWorker<'e, 'g> {
    mapper: &'e crate::Mapper<'g>,
    shard_mappers: &'e [crate::Mapper<'g>],
    set: &'e ShardSet,
    reads: &'e [crate::ReadInput],
    options: &'e crate::MappingOptions,
    thread: usize,
    slots: &'e [std::sync::OnceLock<crate::ReadResult>],
    cache: mg_gbwt::CachedGbwt<'e>,
    shard_caches: Vec<Option<mg_gbwt::CachedGbwt<'e>>>,
    scratch: crate::MapScratch,
    local_seeds: Vec<Seed>,
    metrics: &'e mg_obs::Metrics,
    obs: mg_obs::ObsShard,
}

impl mg_sched::PoolTask for DumpShardWorker<'_, '_> {
    fn run(&mut self, i: usize) {
        use mg_obs::{Ctr, Hist};
        use mg_support::probe::NoProbe;
        use mg_support::regions::NullSink;

        let read = &self.reads[i];
        let read_id = i as u64;
        let (owner, fanout) = self.set.manifest.route_seeds(&read.seeds);
        self.obs.inc(Ctr::RouteReadsTotal);
        self.obs.add(Ctr::RouteShardsProbed, fanout as u64);
        self.obs.observe(Hist::RouteFanout, fanout as u64);
        let radius = (read.bases.len() as u64).max(self.options.cluster.distance_limit);
        let resident = owner.filter(|_| radius <= self.set.manifest.resident_limit);
        let result = match resident {
            Some(s) => {
                self.obs.inc(Ctr::RouteResidentReads);
                let window = self.set.shards[s].meta.window;
                let mut local = std::mem::take(&mut self.local_seeds);
                local.clear();
                local.extend(read.seeds.iter().map(|sd| {
                    Seed::new(
                        sd.read_offset,
                        GraphPos::new(window.to_local(sd.pos.handle), sd.pos.offset),
                    )
                }));
                let input = crate::ReadInput { bases: read.bases.clone(), seeds: local };
                if self.shard_caches[s].is_none() {
                    self.shard_caches[s] = Some(mg_gbwt::CachedGbwt::new(
                        self.set.shards[s].bundle.gbz().gbwt(),
                        self.options.cache_capacity,
                    ));
                }
                let cache = self.shard_caches[s].as_mut().expect("cache just created");
                let local_result = self.shard_mappers[s].map_read_with_scratch(
                    cache,
                    read_id,
                    &input,
                    self.options,
                    &NullSink,
                    self.thread,
                    &mut NoProbe,
                    &mut self.scratch,
                    &mut self.obs,
                );
                self.local_seeds = input.seeds;
                crate::ReadResult {
                    read_id,
                    extensions: local_result
                        .extensions
                        .iter()
                        .map(|e| extension_to_global(window, e))
                        .collect(),
                }
            }
            None => {
                self.obs.inc(Ctr::RouteFallbackReads);
                self.mapper.map_read_with_scratch(
                    &mut self.cache,
                    read_id,
                    read,
                    self.options,
                    &NullSink,
                    self.thread,
                    &mut NoProbe,
                    &mut self.scratch,
                    &mut self.obs,
                )
            }
        };
        self.slots[i].set(result).expect("each read mapped once");
    }

    fn finish(self: Box<Self>, cell: &mut mg_sched::PoolCell) {
        let this = *self;
        this.metrics.absorb(&this.obs);
        *cell = Box::new(crate::ThreadPersist {
            cache: this.cache.into_state(),
            scratch: this.scratch,
        });
    }
}

/// Translates a shard-local extension back into global coordinates: the
/// seed position and every path handle shift by the window offset; read
/// offsets, score, and mismatches are coordinate-free.
pub fn extension_to_global(window: IdWindow, ext: &crate::types::Extension) -> crate::types::Extension {
    crate::types::Extension {
        read_id: ext.read_id,
        read_start: ext.read_start,
        read_end: ext.read_end,
        pos: GraphPos::new(window.to_global(ext.pos.handle), ext.pos.offset),
        path: ext.path.iter().map(|&h| window.to_global(h)).collect(),
        score: ext.score,
        mismatches: ext.mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use proptest::prelude::*;

    fn sample_gbz(reference_len: usize, max_node_len: usize) -> Gbz {
        let reference: Vec<u8> = (0..reference_len)
            .map(|i| b"ACGT"[(i * 7 + i / 9) % 4])
            .collect();
        let variants = (1..reference_len / 40)
            .map(|i| Variant::snp(i * 37, b"TGCA"[i % 4]))
            .collect::<Vec<_>>();
        let hap_count = 4;
        let haplotypes = (0..hap_count)
            .map(|h| (0..variants.len()).map(|v| (v + h) % 2).collect())
            .collect();
        let p = PangenomeBuilder::new(reference)
            .variants(variants)
            .haplotypes(haplotypes)
            .max_node_len(max_node_len)
            .build()
            .unwrap();
        Gbz::from_pangenome(p).unwrap()
    }

    fn sample_set(shard_count: usize) -> (MgiBundle, ShardSet) {
        let gbz = sample_gbz(1200, 16);
        let bundle = MgiBundle::build(gbz, MinimizerParams::new(15, 5)).unwrap();
        let params = ShardParams { shard_count, resident_limit: 120 };
        let set = ShardSet::build(
            bundle.gbz(),
            bundle.minimizer(),
            bundle.distance(),
            &params,
        )
        .unwrap();
        (bundle, set)
    }

    #[test]
    fn build_produces_contiguous_cores_and_covering_windows() {
        let (bundle, set) = sample_set(4);
        let n = bundle.gbz().graph().node_count() as u64;
        assert_eq!(set.shard_count(), 4);
        let mut next = 1u64;
        for shard in &set.shards {
            assert_eq!(shard.meta.core.lo, next);
            assert!(shard.meta.window.lo <= shard.meta.core.lo);
            assert!(shard.meta.window.hi >= shard.meta.core.hi);
            assert_eq!(
                shard.bundle.gbz().graph().node_count() as u64,
                shard.meta.window.len()
            );
            next = shard.meta.core.hi + 1;
        }
        assert_eq!(next, n + 1);
    }

    #[test]
    fn manifest_roundtrips_and_validates() {
        let (_, set) = sample_set(3);
        let mut bytes = Vec::new();
        set.manifest.write_to(&mut bytes).unwrap();
        let back = ShardManifest::read_from(&bytes[..]).unwrap();
        assert_eq!(back, set.manifest);
        // Flipping any byte (or truncating) must fail validation, not panic.
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(ShardManifest::read_from(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn save_and_open_dir_roundtrip() {
        let (_, set) = sample_set(3);
        let dir = std::env::temp_dir().join(format!("mg-shards-{}", std::process::id()));
        set.save_dir(&dir).unwrap();
        let back = ShardSet::open_dir(&dir).unwrap();
        assert_eq!(back.manifest, set.manifest);
        assert_eq!(back.shard_count(), set.shard_count());
        for (a, b) in back.shards.iter().zip(&set.shards) {
            assert!(a.bundle.is_mapped());
            assert_eq!(&a.bundle, &b.bundle);
        }
        let trusted = ShardSet::open_dir_trusted(&dir).unwrap();
        assert_eq!(trusted.manifest, set.manifest);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn routed_seeds_match_monolithic_query() {
        let (bundle, set) = sample_set(4);
        let cap = 128;
        let gbwt = bundle.gbz().gbwt();
        let walk = gbwt.sequence(0).unwrap();
        let mut seq = Vec::new();
        for &s in &walk {
            let h = Handle::from_gbwt(s).unwrap();
            seq.extend_from_slice(&bundle.gbz().graph().sequence(h));
        }
        let mut scratch = RouteScratch::default();
        let mut routed = Vec::new();
        let mut resident_reads = 0;
        for read in seq.windows(60).step_by(17) {
            let outcome = set.route_read(read, cap, &mut scratch, &mut routed);
            let global = bundle.minimizer().query(read, cap);
            assert!(outcome.probed <= set.shard_count() as u32);
            if let Some(s) = outcome.resident {
                resident_reads += 1;
                let window = set.shards[s].meta.window;
                let translated: Vec<(u32, GraphPos)> = routed
                    .iter()
                    .map(|seed| {
                        (seed.read_offset, GraphPos::new(window.to_global(seed.pos.handle), seed.pos.offset))
                    })
                    .collect();
                assert_eq!(translated, global, "resident seed list must be the global list");
            } else {
                // Non-resident: the global seeds must genuinely span
                // several cores (or none at all).
                let cores: std::collections::BTreeSet<usize> = global
                    .iter()
                    .filter_map(|(_, p)| set.manifest.core_shard(p.handle.node()))
                    .collect();
                assert_ne!(cores.len(), 1, "read with single-core seeds must be resident");
            }
        }
        assert!(resident_reads > 0, "no read routed to a resident shard");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The partition invariants hold for arbitrary geometry: every
        /// node in exactly one core, every edge intra-core or recorded as
        /// a boundary link, manifests cover the full id space.
        #[test]
        fn prop_sharding_is_a_true_partition(
            reference_len in 200usize..900,
            max_node_len in 4usize..40,
            shard_count in 1usize..6,
            resident_limit in 16u64..300,
        ) {
            let gbz = sample_gbz(reference_len, max_node_len);
            let minimizer = crate::mgi::build_minimizer_index(&gbz, MinimizerParams::new(9, 4)).unwrap();
            let distance = DistanceIndex::build(gbz.graph());
            let params = ShardParams { shard_count, resident_limit };
            let set = ShardSet::build(&gbz, &minimizer, &distance, &params).unwrap();
            let n = gbz.graph().node_count() as u64;

            // Every node id lands in exactly one core.
            let mut owners = vec![0u32; n as usize + 1];
            for shard in &set.shards {
                for id in shard.meta.core.lo..=shard.meta.core.hi {
                    owners[id as usize] += 1;
                }
            }
            prop_assert!(owners[1..].iter().all(|&c| c == 1), "cores must partition ids");

            // Reassembled manifests cover the id space with no gaps.
            let mut next = 1u64;
            for m in &set.manifest.metas {
                prop_assert_eq!(m.core.lo, next);
                next = m.core.hi + 1;
            }
            prop_assert_eq!(next, n + 1);

            // Every edge is intra-core or recorded as a boundary link.
            let boundary: std::collections::BTreeSet<(u64, u64)> =
                set.manifest.boundary.iter().copied().collect();
            for (from, to) in gbz.graph().edges() {
                let a = set.manifest.core_shard(from.node()).unwrap();
                let b = set.manifest.core_shard(to.node()).unwrap();
                if a != b {
                    prop_assert!(
                        boundary.contains(&(from.packed(), to.packed())),
                        "cross-core edge {from} -> {to} not recorded"
                    );
                } else {
                    prop_assert!(
                        !boundary.contains(&(from.packed(), to.packed())),
                        "intra-core edge {from} -> {to} wrongly recorded"
                    );
                }
            }

            // Bloom summaries have no false negatives over core k-mers.
            for kmer in minimizer.kmers() {
                for p in minimizer.positions(kmer).unwrap() {
                    let s = set.manifest.core_shard(p.handle.node()).unwrap();
                    prop_assert!(
                        set.manifest.blooms[s].contains(kmer),
                        "k-mer {kmer:#x} missing from shard {s} bloom"
                    );
                }
            }

            // The manifest roundtrips.
            let mut bytes = Vec::new();
            set.manifest.write_to(&mut bytes).unwrap();
            prop_assert_eq!(ShardManifest::read_from(&bytes[..]).unwrap(), set.manifest);
        }
    }
}
