//! The seed-and-extend kernel: Giraffe's hottest region
//! (`process_until_threshold_c`).
//!
//! Each seed anchors a read offset to a graph position. The gapless
//! extension walks the graph from that anchor in both directions, comparing
//! read bases with node bases, following only haplotype-consistent edges
//! (tracked with a bidirectional GBWT search state through the per-thread
//! [`CachedGbwt`]), tolerating a bounded number of mismatches, and keeping
//! the best-scoring span. [`process_until_threshold_with_scratch`] drives
//! the kernel over a read's clusters in score order, and walks each distinct
//! extension once: anchors that provably yield the same extension are
//! merged before any is walked (rule 1), and anchors lying on an exact
//! full-length extension the read already has are not walked at all (rule 2,
//! from Giraffe's `GaplessExtender::extend`).
//!
//! There is one walk for the host and for the counter simulator. The probe
//! the kernel runs under picks only how a node's bases are compared: eight
//! at a time under [`NoProbe`](mg_support::probe::NoProbe), one at a time,
//! each reported to the probe, under an active one ([`MemProbe::ACTIVE`]).
//! Visit order, pruning and results are the same either way.

use mg_gbwt::{BidirState, CachedGbwt, RecordEdge, SearchState, ENDMARKER};
use mg_graph::{Handle, VariationGraph};
use mg_index::GraphPos;
use mg_support::probe::{MemProbe, REGION_GRAPH_SEQ, REGION_READ};

use crate::cluster::Cluster;
use crate::types::{Extension, Seed};

/// Scoring and search parameters of the gapless extension.
///
/// Both scores are unsigned: a match never lowers a walk's score and a
/// mismatch never raises it, which is what branch-and-bound pruning, the
/// run-at-a-time crediting of matches and rule 1 rest on (DESIGN.md §4b).
/// They are 16 bits wide so that `i32::from` carries them into the walk's
/// signed score without a cast that could flip their sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendParams {
    /// Score added per matching base.
    pub match_score: u16,
    /// Score subtracted per mismatching base.
    pub mismatch_penalty: u16,
    /// Maximum mismatches tolerated inside one extension.
    pub max_mismatches: u32,
    /// Node-crossing budget per direction per seed: bounds the DFS over
    /// haplotype-consistent branches.
    pub max_branch_steps: usize,
}

impl Default for ExtendParams {
    fn default() -> Self {
        ExtendParams {
            match_score: 1,
            mismatch_penalty: 4,
            max_mismatches: 4,
            max_branch_steps: 64,
        }
    }
}

/// Cluster-processing parameters (the `process_until_threshold_c` policy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessParams {
    /// At most this many clusters are extended per read.
    pub max_clusters: usize,
    /// Clusters scoring below `cutoff × best_cluster_score` are skipped.
    pub cluster_score_cutoff: f64,
    /// At most this many extensions are reported per read.
    pub max_extensions_per_read: usize,
    /// Extensions scoring below this are discarded.
    pub min_extension_score: i32,
}

impl Default for ProcessParams {
    fn default() -> Self {
        ProcessParams {
            max_clusters: 8,
            cluster_score_cutoff: 0.5,
            max_extensions_per_read: 16,
            min_extension_score: 1,
        }
    }
}

/// Sentinel path-arena index: the frame is still on the anchor node.
const NO_PATH: u32 = u32::MAX;

/// One DFS frame of a directional walk. `Copy`: the walked path lives in
/// the scratch arena as a parent-pointer chain, not in the frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    state: BidirState,
    handle: Handle,
    node_off: usize,
    consumed: u32,
    score: i32,
    mismatches: u32,
    /// Arena index of the last node entered, or [`NO_PATH`] on the anchor.
    path: u32,
}

/// Result of walking one direction from the anchor: the best-scoring
/// prefix seen (also used as the running best during the walk).
#[derive(Debug, Clone, Copy)]
struct DirectionResult {
    score: i32,
    /// Read bases consumed in this direction.
    consumed: u32,
    mismatches: u32,
    /// Arena index of the best prefix's last node ([`NO_PATH`]: anchor only).
    path: u32,
    state: BidirState,
}

/// Reusable per-thread storage of the extension kernel.
///
/// The DFS over haplotype-consistent branches keeps its frame stack, the
/// walked paths (a parent-pointer arena instead of one `Vec<Handle>` clone
/// per frame), the branch enumeration buffers, and the per-cluster anchor
/// list here. A worker allocates one `ExtendScratch` and reuses it for
/// every read it maps, so the hot kernel performs no per-frame — and after
/// warm-up, no per-read — heap allocation beyond the returned extensions.
#[derive(Debug, Default)]
pub struct ExtendScratch {
    /// DFS frame stack of the current directional walk.
    stack: Vec<Frame>,
    /// Path arena: `(parent index or NO_PATH, handle entered)`. Paths are
    /// reconstructed by chasing parents only when a walk finishes.
    arena: Vec<(u32, Handle)>,
    /// Branch states enumerated at the current node boundary.
    branches: Vec<(BidirState, Handle)>,
    /// Per edge of the record being branched over: visits before the
    /// current range, visits inside it.
    tally: Vec<[u64; 2]>,
    /// Reconstructed paths of the two directional walks, in walk order.
    left_path: Vec<Handle>,
    right_path: Vec<Handle>,
    /// The cluster's distinct anchors in canonical order while they are
    /// merged.
    cluster_anchors: Vec<Seed>,
    /// Deduplicated, merged anchors of the cluster being processed.
    anchors: Vec<Seed>,
    /// Every `(node, diagonal)` the read's exact full-length extensions
    /// walk (rule 2).
    exact_walks: Vec<(Handle, i64)>,
    /// The anchor each of the read's extensions came from, in step with the
    /// extension list.
    origins: Vec<Seed>,
    /// The read's candidate extensions; the few that survive deduplication
    /// leave in a vector of their own length.
    extensions: Vec<Extension>,
    /// The walk [`extend_first`] made of a read it did not settle: its
    /// anchor and what it yielded. The read's
    /// [`process_until_threshold_with_scratch`] call takes it instead of
    /// walking that anchor again, and clears it.
    first_walk: Option<(Seed, Option<Extension>)>,
    /// Every `(node, diagonal)` of the extension [`extend_first`] walked.
    first_path: Vec<(Handle, i64)>,
    /// Read offsets, and nodes of the first walk, that the read's seeds hit
    /// ([`extend_first`]'s anchor accounting), one bit each.
    offsets_hit: Vec<u64>,
    nodes_hit: Vec<u64>,
    /// Kernel activity accumulated since the last [`ExtendScratch::take_stats`].
    stats: KernelStats,
}

/// Counters of anchor walking, merging and pruning inside the extension
/// kernel, accumulated in the scratch (plain `u64`s — the kernel never
/// touches an observability shard directly) and drained per read into mg-obs
/// by the mapping pipeline. Walked, merged and skipped add up to the
/// distinct anchors of the clusters processed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Anchors walked, including the first walk of a read `extend_first`
    /// settles and a remembered first walk reused.
    pub anchors_walked: u64,
    /// DFS subtrees skipped by branch-and-bound pruning (`subtree_is_dead`).
    pub pruned_frames: u64,
    /// Anchors not walked because an anchor of the same node and diagonal,
    /// joined to them by matching read bases, yields the identical
    /// extension (rule 1; exact duplicates are not counted).
    pub anchors_merged: u64,
    /// Anchors not walked because they lie on an exact full-length
    /// extension the read already has (rule 2).
    pub anchors_skipped: u64,
}

impl ExtendScratch {
    /// Returns and resets the kernel activity counters.
    pub fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }
}

/// Reconstructs a walk path from the arena's parent chain into `out`, in
/// walk order (anchor outward).
fn reconstruct_path(arena: &[(u32, Handle)], mut idx: u32, out: &mut Vec<Handle>) {
    out.clear();
    while idx != NO_PATH {
        let (parent, handle) = arena[idx as usize];
        out.push(handle);
        idx = parent;
    }
    out.reverse();
}

/// Extends one seed bidirectionally on caller-provided scratch storage;
/// returns `None` when the anchor is not on any haplotype.
///
/// The walk extends right from the anchor first (including the anchor
/// base), then left from the resulting haplotype state, each direction
/// keeping its best-scoring prefix. Mismatch budget is shared: the left
/// walk gets whatever the right walk left over.
#[allow(clippy::too_many_arguments)]
pub fn extend_seed_with_scratch<P: MemProbe>(
    graph: &VariationGraph,
    cache: &mut CachedGbwt<'_>,
    read: &[u8],
    read_id: u64,
    seed: Seed,
    params: &ExtendParams,
    probe: &mut P,
    scratch: &mut ExtendScratch,
) -> Option<Extension> {
    let anchor = seed.pos;
    if seed.read_offset as usize >= read.len() {
        return None;
    }
    if anchor.offset as usize >= graph.node_len(anchor.handle.node()) {
        return None;
    }
    // Initial haplotype state at the anchor node.
    let sym = anchor.handle.to_gbwt();
    let fwd_total = cache.record_with_probe(sym, probe).total_visits();
    let bwd_total = cache.record_with_probe(sym ^ 1, probe).total_visits();
    probe.instret(8);
    if fwd_total == 0 {
        return None;
    }
    let init = BidirState {
        forward: SearchState { node: sym, start: 0, end: fwd_total },
        backward: SearchState { node: sym ^ 1, start: 0, end: bwd_total },
    };

    // Right: consume read[read_offset..], graph bases from anchor.offset.
    let right = walk(
        Dir::Right, graph, cache, read, seed, init, params, params.max_mismatches, probe, scratch,
    );
    // The left walk reuses (and clears) the arena, so materialize the right
    // path first.
    let mut right_path = std::mem::take(&mut scratch.right_path);
    reconstruct_path(&scratch.arena, right.path, &mut right_path);
    let budget_left = params.max_mismatches - right.mismatches.min(params.max_mismatches);
    // Left: consume read[..read_offset] backwards, graph bases left of the
    // anchor, continuing the haplotype state of the chosen right prefix.
    let left = walk(
        Dir::Left, graph, cache, read, seed, right.state, params, budget_left, probe, scratch,
    );
    let mut left_path = std::mem::take(&mut scratch.left_path);
    reconstruct_path(&scratch.arena, left.path, &mut left_path);

    let result = (|| {
        let read_start = seed.read_offset - left.consumed;
        let read_end = seed.read_offset + right.consumed;
        if read_end <= read_start {
            return None;
        }
        // Start position: `left.consumed` bases before the anchor, on the
        // first node of the left path (or the anchor node).
        let (start_handle, start_offset) =
            start_position(graph, anchor, left.consumed, &left_path);
        let mut path: Vec<Handle> =
            Vec::with_capacity(left_path.len() + 1 + right_path.len());
        path.extend(left_path.iter().rev().copied());
        path.push(anchor.handle);
        path.extend_from_slice(&right_path);
        Some(Extension {
            read_id,
            read_start,
            read_end,
            pos: GraphPos::new(start_handle, start_offset),
            path,
            score: left.score + right.score,
            mismatches: left.mismatches + right.mismatches,
        })
    })();
    scratch.right_path = right_path;
    scratch.left_path = left_path;
    result
}

/// Computes the graph position of the extension's first read base.
fn start_position(
    graph: &VariationGraph,
    anchor: GraphPos,
    left_consumed: u32,
    left_path: &[Handle],
) -> (Handle, u32) {
    if left_path.is_empty() {
        (anchor.handle, anchor.offset - left_consumed)
    } else {
        // The left walk consumed `anchor.offset` bases on the anchor node
        // and then walked into `left_path`; the final node holds the rest.
        let mut remaining = left_consumed - anchor.offset;
        for (i, &h) in left_path.iter().enumerate() {
            let len = graph.node_len(h.node()) as u32;
            if remaining <= len {
                return (h, len - remaining);
            }
            debug_assert!(i + 1 < left_path.len(), "left walk accounting");
            remaining -= len;
        }
        let last = *left_path.last().expect("nonempty path");
        (last, 0)
    }
}

/// The direction a walk consumes the read in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Rightward from the anchor: read offsets grow, graph offsets grow.
    Right,
    /// Leftward from the anchor: read offsets shrink, graph offsets shrink
    /// (predecessors explored via the backward record).
    Left,
}

/// Returns `true` when no continuation of `frame` can replace `best` under
/// [`best_check`]'s comparison, so the frame's whole DFS subtree is
/// output-dead and can be skipped. Exact because the scores are unsigned:
/// the per-base score delta is at most `match_score`, so the all-match
/// continuation `(score + match_score * read_rem, consumed + read_rem)`
/// bounds every reachable `(score, consumed)` pair.
/// The bound uses only frame-local values, which a frame holds identically
/// whether its bases were compared a step or a base at a time, so the
/// comparison step never changes which frames are pruned — nor the branch
/// step budget, which evolves identically.
#[inline(always)]
fn subtree_is_dead(
    frame: &Frame,
    read_rem: usize,
    best: &DirectionResult,
    params: &ExtendParams,
) -> bool {
    let smax = frame.score + i32::from(params.match_score) * read_rem as i32;
    let cmax = frame.consumed + read_rem as u32;
    smax < best.score || (smax == best.score && cmax <= best.consumed)
}

/// Updates the running best prefix from the frame: a better score, or an
/// equal score and a longer prefix.
#[inline(always)]
fn best_check(frame: &Frame, best: &mut DirectionResult) {
    if frame.score > best.score || (frame.score == best.score && frame.consumed > best.consumed) {
        *best = DirectionResult {
            score: frame.score,
            consumed: frame.consumed,
            mismatches: frame.mismatches,
            path: frame.path,
            state: frame.state,
        };
    }
}

/// Advances the frame over `run` consecutive matching bases.
///
/// The match score is unsigned, so the score is monotone non-decreasing
/// over the run and `consumed` strictly increases: the run's final base
/// dominates every per-base best-check, and one check at the end is
/// bit-identical.
#[inline(always)]
fn apply_match_run(frame: &mut Frame, run: u32, params: &ExtendParams, best: &mut DirectionResult) {
    if run == 0 {
        return;
    }
    frame.score += i32::from(params.match_score) * run as i32;
    frame.consumed += run;
    frame.node_off += run as usize;
    best_check(frame, best);
}

/// Bases compared per step of the walk when no active probe watches it: the
/// bytes of one `u64`.
const STEP: usize = 8;

/// XOR of up to [`STEP`] read bytes with as many node bytes, arranged in
/// walk order: the byte the walk reaches first is the low byte, so the
/// non-zero bytes of the result, from the low end, are the mismatches in the
/// order a base-by-base walk meets them. Rightward walks meet memory-first
/// bytes first (little-endian load), leftward walks memory-last bytes first
/// (big-endian load); a slice shorter than a step is assembled byte by byte
/// in the same order, its missing high bytes zero — equal on both sides.
/// Bytes are compared as they are: a read `N`, or any byte that is no
/// uppercase base, differs from every node base by itself.
#[inline(always)]
fn xor_in_walk_order(dir: Dir, read: &[u8], node: &[u8]) -> u64 {
    debug_assert!(read.len() == node.len() && read.len() <= STEP);
    match (dir, <[u8; STEP]>::try_from(read), <[u8; STEP]>::try_from(node)) {
        (Dir::Right, Ok(r), Ok(g)) => u64::from_le_bytes(r) ^ u64::from_le_bytes(g),
        (Dir::Left, Ok(r), Ok(g)) => u64::from_be_bytes(r) ^ u64::from_be_bytes(g),
        (Dir::Right, ..) => {
            read.iter().zip(node).rev().fold(0, |w, (r, g)| w << 8 | u64::from(r ^ g))
        }
        (Dir::Left, ..) => read.iter().zip(node).fold(0, |w, (r, g)| w << 8 | u64::from(r ^ g)),
    }
}

/// Walks one direction from the anchor: a DFS over haplotype-consistent
/// branches, comparing read bases with node bases under a shared mismatch
/// budget, keeping the best-scoring prefix. Both directions share one body;
/// only index arithmetic and the branch record differ (see [`Dir`]).
///
/// A leftward walk compares the same bytes as a rightward one, back to
/// front: the read's bytes left of the anchor against the bytes of
/// [`VariationGraph::oriented_sequence`] of the walked handle, both taken
/// from the end of what is left. Nothing is packed, complemented or masked
/// beforehand, so a read pays for exactly the bases its walks compare.
///
/// The probe picks only how a node's span is compared. Without an active
/// probe ([`MemProbe::ACTIVE`] false, the production walk) a step XORs
/// eight read bytes against eight node bytes and spends per-base work only
/// on the mismatches. An active probe — the counter simulator's — gets one
/// base a step, each reported as it is compared ([`report_base`]), so the
/// simulator sees every logical access at base granularity. Visit order,
/// pruning and the branch step budget are the same code either way, and
/// matched bases are credited a run at a time ([`apply_match_run`]), which
/// per-base updates cannot tell apart.
#[allow(clippy::too_many_arguments)]
fn walk<P: MemProbe>(
    dir: Dir,
    graph: &VariationGraph,
    cache: &mut CachedGbwt<'_>,
    read: &[u8],
    seed: Seed,
    init: BidirState,
    params: &ExtendParams,
    budget: u32,
    probe: &mut P,
    scratch: &mut ExtendScratch,
) -> DirectionResult {
    let mut best = DirectionResult {
        score: 0,
        consumed: 0,
        mismatches: 0,
        path: NO_PATH,
        state: init,
    };
    let mut steps = 0usize;
    scratch.arena.clear();
    scratch.stack.clear();
    scratch.stack.push(Frame {
        state: init,
        handle: seed.pos.handle,
        node_off: 0,
        consumed: 0,
        score: 0,
        mismatches: 0,
        path: NO_PATH,
    });
    // The read bytes on the walk's side of the anchor, in memory order
    // (inclusive of the anchor base on the right, exclusive on the left),
    // and where they start in the read.
    let (read_from, read_side) = match dir {
        Dir::Right => (seed.read_offset as usize, &read[seed.read_offset as usize..]),
        Dir::Left => (0, &read[..seed.read_offset as usize]),
    };
    // An active probe is told of each base as it is compared: one a step.
    let step = if P::ACTIVE { 1 } else { STEP };
    while let Some(mut frame) = scratch.stack.pop() {
        // Branch-and-bound: frames pushed before the best prefix improved
        // are often provably unable to beat it now; skipping them is exact
        // (see `subtree_is_dead`) and prunes whole bubble arms once a clean
        // full-length walk has been found.
        let mut read_rem = read_side.len() - frame.consumed as usize;
        if subtree_is_dead(&frame, read_rem, &best, params) {
            scratch.stats.pruned_frames += 1;
            continue;
        }
        // One node per turn: the frame walks its node, and at the boundary
        // carries on into the branch the stack would hand back first.
        loop {
            // The node bytes this frame offers, in memory order, and where
            // they start in the node: the whole node, or on the anchor node
            // the part on the walk's side of the anchor.
            let node = graph.oriented_sequence(frame.handle);
            let (node_from, node_side) = match (dir, frame.path == NO_PATH) {
                (Dir::Right, true) => (seed.pos.offset as usize, &node[seed.pos.offset as usize..]),
                (Dir::Left, true) => (0, &node[..seed.pos.offset as usize]),
                (_, false) => (0, node),
            };
            // The read's edge ends the frame before the node boundary is
            // allowed to branch.
            let span = read_rem.min(node_side.len() - frame.node_off);
            // What is left of both sides' bytes, cut to the span: the walk
            // meets `rs[i]` with `gs[i]`, rightwards from the front,
            // leftwards from the back.
            let (r, g) = match dir {
                Dir::Right => (frame.consumed as usize, frame.node_off),
                Dir::Left => (read_rem - span, node_side.len() - frame.node_off - span),
            };
            let (rs, gs) = (&read_side[r..r + span], &node_side[g..g + span]);
            // Matched bases seen since the last mismatch, not yet credited.
            let mut run = 0u32;
            let mut done = 0usize;
            let exhausted = 'span: loop {
                if done == span {
                    break false;
                }
                let chunk = (span - done).min(step);
                // A tail after whole steps loads the span's last whole step
                // again and drops the bases already walked; a span shorter
                // than a step is assembled byte by byte.
                let width = if span >= step { step } else { chunk };
                let at = match dir {
                    Dir::Right => done + chunk - width..done + chunk,
                    Dir::Left => span - done - chunk..span - done - chunk + width,
                };
                if P::ACTIVE {
                    let i = at.start;
                    let (read_at, node_at) = (read_from + r + i, node_from + g + i);
                    report_base(probe, read_at, frame.handle, node_at, rs[i] == gs[i]);
                }
                let mut xor =
                    xor_in_walk_order(dir, &rs[at.clone()], &gs[at]) >> (8 * (width - chunk));
                // Bases of this step already accounted for.
                let mut pos = 0u32;
                while xor != 0 {
                    let mismatch = xor.trailing_zeros() >> 3;
                    apply_match_run(&mut frame, run + mismatch - pos, params, &mut best);
                    run = 0;
                    frame.mismatches += 1;
                    if frame.mismatches > budget {
                        // Not consumed: the frame dies without branching.
                        break 'span true;
                    }
                    frame.score -= i32::from(params.mismatch_penalty);
                    frame.consumed += 1;
                    frame.node_off += 1;
                    best_check(&frame, &mut best);
                    pos = mismatch + 1;
                    xor &= !(0xFF << (8 * mismatch));
                }
                run += chunk as u32 - pos;
                done += chunk;
            };
            if exhausted {
                break;
            }
            apply_match_run(&mut frame, run, params, &mut best);
            read_rem -= span;
            if read_rem == 0
                || steps >= params.max_branch_steps
                || subtree_is_dead(&frame, read_rem, &best, params)
            {
                break;
            }
            // Node exhausted with read left over: branch over the
            // haplotype-consistent edges.
            branch_states_into(
                cache, &frame.state, dir == Dir::Left, &mut steps, params, probe,
                &mut scratch.branches, &mut scratch.tally,
            );
            // The last branch is the one a pop would return next, and the
            // bound that would prune it at that pop was just found not to
            // hold (it starts from this frame's exact `(score, consumed)`):
            // walk it without the round trip through the stack.
            let Some((&(last_state, last_handle), rest)) = scratch.branches.split_last() else {
                break;
            };
            for &(state, handle) in rest {
                scratch.arena.push((frame.path, handle));
                let path = (scratch.arena.len() - 1) as u32;
                scratch.stack.push(Frame { state, handle, node_off: 0, path, ..frame });
            }
            scratch.arena.push((frame.path, last_handle));
            let path = (scratch.arena.len() - 1) as u32;
            frame = Frame { state: last_state, handle: last_handle, node_off: 0, path, ..frame };
        }
    }
    best
}

/// Reports one compared base to an active probe, as the cache simulator
/// reads it: the read byte, the node byte in its [`REGION_GRAPH_SEQ`]
/// window, six instructions, and whether the two matched.
#[inline(always)]
fn report_base<P: MemProbe>(
    probe: &mut P,
    read_at: usize,
    handle: Handle,
    node_at: usize,
    matched: bool,
) {
    probe.touch(REGION_READ.at(read_at as u64), 1);
    probe.touch(REGION_GRAPH_SEQ.at(handle.node().value()) + node_at as u64, 1);
    probe.instret(6);
    probe.branch(matched);
}

/// Enumerates the haplotype-consistent branch states at a node boundary
/// into `out` (cleared first), without cloning the record. `backward`
/// selects the direction: `false` extends the pattern forward (successors of
/// the forward node), `true` extends it backward (predecessors via the
/// backward record, states returned un-flipped).
///
/// The range arithmetic is [`mg_gbwt::gbwt::record_extend_forward`]'s, done
/// for every edge at once: a record with a single successor — most of them
/// — needs no look at its runs (every visit of the range leaves through
/// that edge), any other gets one scan of the runs into `tally` (per edge:
/// visits before the range, visits inside it; grown when a record has more
/// edges than any before it, never shrunk).
#[allow(clippy::too_many_arguments)]
fn branch_states_into<P: MemProbe>(
    cache: &mut CachedGbwt<'_>,
    state: &BidirState,
    backward: bool,
    steps: &mut usize,
    params: &ExtendParams,
    probe: &mut P,
    out: &mut Vec<(BidirState, Handle)>,
    tally: &mut Vec<[u64; 2]>,
) {
    out.clear();
    let look = if backward { state.flipped() } else { *state };
    let record = cache.record_with_probe(look.forward.node, probe);
    probe.instret(6 + 2 * record.runs.len() as u64);
    let end = look.forward.end.min(record.total_visits());
    let start = look.forward.start.min(end);
    // The state after leaving through `edge`, given the visits through it
    // before the range and inside it, and the visits inside the range
    // through edges that sort before it in the reverse index.
    let mut branch = |edge: &RecordEdge, before: u64, inside: u64, preceding: u64| {
        let next = BidirState {
            forward: SearchState {
                node: edge.symbol,
                start: edge.offset + before,
                end: edge.offset + before + inside,
            },
            backward: SearchState {
                node: look.backward.node,
                start: look.backward.start + preceding,
                end: look.backward.start + preceding + inside,
            },
        };
        let handle = Handle::from_gbwt(edge.symbol).expect("real symbol");
        if backward {
            // Backward branches walk the flipped handle in read space.
            out.push((next.flipped(), handle.flip()));
        } else {
            out.push((next, handle));
        }
    };
    if let [edge] = record.edges {
        if *steps < params.max_branch_steps && edge.symbol != ENDMARKER && start < end {
            *steps += 1;
            branch(edge, start, end - start, 0);
        }
        return;
    }
    let edges = record.edges.len();
    if tally.len() < edges {
        tally.resize(edges, [0; 2]);
    }
    let tally = &mut tally[..edges];
    tally.fill([0; 2]);
    let mut pos = 0u64;
    for run in record.runs {
        let run_end = pos + run.len;
        let [before, inside] = &mut tally[run.symbol as usize];
        *before += run_end.min(start).saturating_sub(pos);
        *inside += run_end.min(end).saturating_sub(pos.max(start));
        pos = run_end;
        if pos >= end {
            break;
        }
    }
    for (edge, &[before, inside]) in record.edges.iter().zip(tally.iter()) {
        if *steps >= params.max_branch_steps {
            break;
        }
        if edge.symbol == ENDMARKER || inside == 0 {
            continue;
        }
        *steps += 1;
        // Occurrences of the reversed (flipped) pattern are grouped by
        // flipped successor; skip the groups that sort before. Sequence
        // ends (endmarker edge) have no reverse counterpart and sort before
        // every real group: the reverse sequence *starts* there.
        let preceding = record
            .edges
            .iter()
            .zip(tally.iter())
            .filter(|(e, _)| e.symbol == ENDMARKER || (e.symbol ^ 1) < (edge.symbol ^ 1))
            .map(|(_, t)| t[1])
            .sum();
        branch(edge, before, inside, preceding);
    }
}

/// The read-vs-node diagonal of an anchor: the read offset its node's first
/// base would align to (negative when the node starts left of the read).
fn diagonal(seed: &Seed) -> i64 {
    i64::from(seed.read_offset) - i64::from(seed.pos.offset)
}

/// Fills `scratch.anchors` with the anchors of `cluster` that need walking,
/// in the canonical `(read_offset, pos)` order.
///
/// One sort puts the cluster's seeds in canonical order and brings exact
/// duplicates (the same read offset hitting the same graph position via
/// several minimizers) together. Rule 1, exact merge: an anchor on the node
/// and diagonal of the nearest anchor before it on that node and diagonal,
/// with the read equal to the node on every base between the two, produces
/// the same [`Extension`] as that one, field for field, because matches
/// never lower the score (DESIGN.md §4b has the proof) — so of every run
/// the read matches without a break only the leftmost anchor is kept. Each
/// anchor is compared with that predecessor only: the predecessor either
/// starts the run or was itself joined to it by matching bases. An `N` in
/// the read never equals a node base, and an anchor past the end of the
/// read or the node merges with nothing.
fn prepare_anchors(
    graph: &VariationGraph,
    read: &[u8],
    seeds: &[Seed],
    cluster: &Cluster,
    scratch: &mut ExtendScratch,
) {
    let all = &mut scratch.cluster_anchors;
    all.clear();
    all.extend(cluster.seeds.iter().map(|&i| seeds[i]));
    all.sort_unstable();
    all.dedup();
    scratch.anchors.clear();
    for (k, &anchor) in all.iter().enumerate() {
        if !merges_into_predecessor(graph, read, &all[..k], anchor) {
            scratch.anchors.push(anchor);
        }
    }
    scratch.stats.anchors_merged += (all.len() - scratch.anchors.len()) as u64;
}

/// Rule 1 for `anchor`, given the distinct anchors before it in canonical
/// order: whether the nearest of them on its node and diagonal joins it by
/// matching read bases. That predecessor is the first one met going back,
/// and it lies at most the anchor's node offset back in the read, since its
/// own node offset, that offset less the read bases between them, is not
/// negative; the search stops there.
fn merges_into_predecessor(
    graph: &VariationGraph,
    read: &[u8],
    before: &[Seed],
    anchor: Seed,
) -> bool {
    let (r1, g1) = (anchor.read_offset, anchor.pos.offset);
    let Some(previous) = before
        .iter()
        .rev()
        .take_while(|s| u64::from(s.read_offset) + u64::from(g1) >= u64::from(r1))
        .find(|s| s.pos.handle == anchor.pos.handle && diagonal(s) == diagonal(&anchor))
    else {
        return false;
    };
    let (r0, g0) = (previous.read_offset as usize, previous.pos.offset as usize);
    let (r1, g1) = (r1 as usize, g1 as usize);
    r1 < read.len() && {
        let node = graph.oriented_sequence(anchor.pos.handle);
        g1 < node.len() && read[r0..r1] == node[g0..g1]
    }
}

/// `true` for an extension that covers the whole read without a mismatch.
fn is_exact_full_length(ext: &Extension, read: &[u8]) -> bool {
    ext.mismatches == 0 && ext.read_start == 0 && ext.read_end as usize == read.len()
}

/// Admits one extension to the read's list, remembering the anchor it came
/// from and, for an exact full-length one, every `(node, diagonal)` it
/// walks: an anchor with one of those lies on it.
fn admit(
    graph: &VariationGraph,
    read: &[u8],
    anchor: Seed,
    ext: Extension,
    scratch: &mut ExtendScratch,
    extensions: &mut Vec<Extension>,
) {
    if is_exact_full_length(&ext, read) {
        let mut node_diagonal = i64::from(ext.read_start) - i64::from(ext.pos.offset);
        for &h in &ext.path {
            scratch.exact_walks.push((h, node_diagonal));
            node_diagonal += graph.node_len(h.node()) as i64;
        }
    }
    scratch.origins.push(anchor);
    extensions.push(ext);
}

/// `true` when `anchor` lies on one of the read's exact full-length
/// extensions.
fn on_exact_walk(exact_walks: &[(Handle, i64)], anchor: &Seed) -> bool {
    exact_walks.contains(&(anchor.pos.handle, diagonal(anchor)))
}

/// Walks a cluster's anchors, `scratch.anchors`, one at a time in canonical
/// order and admits what they yield to `extensions`.
///
/// Rule 2 (Giraffe's `GaplessExtender::extend`): an anchor that lies on an
/// exact full-length extension the read already has — from an anchor before
/// it in canonical order, or from an earlier cluster — is not walked. For an
/// error-free read the first anchor yields that extension and the rest are
/// skipped.
#[allow(clippy::too_many_arguments)]
fn walk_anchors<P: MemProbe>(
    graph: &VariationGraph,
    cache: &mut CachedGbwt<'_>,
    read: &[u8],
    read_id: u64,
    extend: &ExtendParams,
    process: &ProcessParams,
    probe: &mut P,
    scratch: &mut ExtendScratch,
    extensions: &mut Vec<Extension>,
) {
    // Index loop: each anchor is copied out so the scratch can be lent to
    // the extension below.
    for i in 0..scratch.anchors.len() {
        let anchor = scratch.anchors[i];
        if on_exact_walk(&scratch.exact_walks, &anchor) {
            scratch.stats.anchors_skipped += 1;
            continue;
        }
        scratch.stats.anchors_walked += 1;
        let walk = match scratch.first_walk.take_if(|(first, _)| *first == anchor) {
            Some((_, remembered)) => remembered,
            None => {
                extend_seed_with_scratch(graph, cache, read, read_id, anchor, extend, probe, scratch)
            }
        };
        if let Some(ext) = walk.filter(|ext| ext.score >= process.min_extension_score) {
            admit(graph, read, anchor, ext, scratch, extensions);
        }
    }
}

/// Sets bit `i` of a bit set.
fn mark(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Bits set in a bit set.
fn marked(bits: &[u64]) -> u64 {
    bits.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// What [`extend_first`] made of a read's first walk.
#[derive(Debug, PartialEq)]
pub(crate) enum FirstWalk {
    /// The walk is the read's whole result.
    Settled(Extension),
    /// Every seed lies on the walk: the read's clusters are one cluster of
    /// all its seeds, and the clustering kernel need not run. Holds the
    /// number of distinct read offsets the seeds hit, the cluster's score.
    OneCluster(u64),
    /// The seeds go to the clustering kernel.
    Cluster,
}

/// Extend first: walks the read's canonically first seed (the least by
/// `(read_offset, pos)`) and checks, in one pass over the seeds, whether
/// every seed lies on the walk's extension — its `(handle, diagonal)` is
/// one of the path's nodes, at a node offset inside that node and a read
/// offset inside the read.
///
/// - [`FirstWalk::Settled`]: the extension is what clustering and
///   [`process_until_threshold_with_scratch`] would report — exact,
///   full-length, scoring at least `min_extension_score`, and every seed
///   lies on it.
/// - [`FirstWalk::OneCluster`]: every seed lies on the extension, which is
///   not the whole answer (it has a mismatch, stops short, or scores under
///   the floor); clustering would return one cluster of all the seeds.
/// - [`FirstWalk::Cluster`]: the walk yields nothing or misses a seed.
///
/// In the last two cases the walk waits in `scratch` for the read's
/// `process_until_threshold_with_scratch` call to reuse.
///
/// The path's diagonals strictly increase (every node has a base), so a
/// seed's diagonal names the one node of the path it can lie on. Seeds
/// mostly arrive in read order, so the search starts at the node the seed
/// before was found on; it looks at every node before it gives up, so any
/// order of the seeds gets the same answer.
///
/// Why (DESIGN.md §4b): seeds on one walk are exactly their read-offset
/// difference apart along it, at most `read_len − 1`, and the clustering
/// kernel's limit is at least `read_len` and compares each seed with its
/// successor in the position sort, so they are one cluster. For a settled
/// read, its canonically first anchor is this seed, which rule 1 never
/// merges away and which is walked first; rule 2 then skips every other
/// anchor. The caller checks that one cluster and one extension survive
/// `max_clusters`, `cluster_score_cutoff` and `max_extensions_per_read`. The kernel
/// statistics of a settled read are the ones that path records: one anchor
/// walked, the rest merged (same node and diagonal — the read matches the
/// node between them) or skipped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_first<P: MemProbe>(
    graph: &VariationGraph,
    cache: &mut CachedGbwt<'_>,
    read: &[u8],
    read_id: u64,
    seeds: &[Seed],
    extend: &ExtendParams,
    process: &ProcessParams,
    probe: &mut P,
    scratch: &mut ExtendScratch,
) -> FirstWalk {
    let Some(&first) = seeds.iter().min() else {
        return FirstWalk::Cluster;
    };
    let walked = extend_seed_with_scratch(graph, cache, read, read_id, first, extend, probe, scratch);
    let on_walk = walked.as_ref().is_some_and(|ext| {
        // The path's nodes with their diagonals, and the diagonal just past
        // its last node.
        let walk = &mut scratch.first_path;
        walk.clear();
        let mut node_diagonal = i64::from(ext.read_start) - i64::from(ext.pos.offset);
        for &h in &ext.path {
            walk.push((h, node_diagonal));
            node_diagonal += graph.node_len(h.node()) as i64;
        }
        let past_end = node_diagonal;
        let (offsets, nodes) = (&mut scratch.offsets_hit, &mut scratch.nodes_hit);
        offsets.clear();
        offsets.resize(read.len().div_ceil(64), 0);
        nodes.clear();
        nodes.resize(walk.len().div_ceil(64), 0);
        let mut at = 0;
        seeds.iter().all(|s| {
            let key = (s.pos.handle, diagonal(s));
            let Some(node) = (at..walk.len()).chain(0..at).find(|&j| walk[j] == key) else {
                return false;
            };
            at = node;
            // The walk's node holds the read from its diagonal on for the
            // node's length.
            let len = walk.get(node + 1).map_or(past_end, |w| w.1) - key.1;
            let inside = (s.read_offset as usize) < read.len() && i64::from(s.pos.offset) < len;
            if inside {
                mark(offsets, s.read_offset as usize);
                mark(nodes, node);
            }
            inside
        })
    });
    let settles = walked.as_ref().is_some_and(|ext| {
        on_walk && ext.score >= process.min_extension_score && is_exact_full_length(ext, read)
    });
    // A read offset on the walk determines the seed, so the distinct
    // anchors are the offsets hit; rule 1 leaves one per node hit.
    if settles {
        let distinct = marked(&scratch.offsets_hit);
        let anchors = marked(&scratch.nodes_hit);
        let stats = &mut scratch.stats;
        stats.anchors_walked += 1;
        stats.anchors_merged += distinct - anchors;
        stats.anchors_skipped += anchors - 1;
        return FirstWalk::Settled(walked.expect("a settling walk yields an extension"));
    }
    scratch.first_walk = Some((first, walked));
    if on_walk {
        FirstWalk::OneCluster(marked(&scratch.offsets_hit))
    } else {
        FirstWalk::Cluster
    }
}

/// Processes a read's clusters best-first, extending each cluster's
/// anchors until the threshold policy says stop (the
/// `process_until_threshold_c` driver), on caller-provided scratch storage.
#[allow(clippy::too_many_arguments)]
pub fn process_until_threshold_with_scratch<P: MemProbe>(
    graph: &VariationGraph,
    cache: &mut CachedGbwt<'_>,
    read: &[u8],
    read_id: u64,
    seeds: &[Seed],
    clusters: &[Cluster],
    extend: &ExtendParams,
    process: &ProcessParams,
    probe: &mut P,
    scratch: &mut ExtendScratch,
) -> Vec<Extension> {
    let mut extensions = std::mem::take(&mut scratch.extensions);
    scratch.exact_walks.clear();
    scratch.origins.clear();
    let best_cluster_score = clusters.first().map_or(0.0, |c| c.score);
    for cluster in clusters.iter().take(process.max_clusters) {
        if cluster.score < best_cluster_score * process.cluster_score_cutoff {
            break;
        }
        prepare_anchors(graph, read, seeds, cluster, scratch);
        walk_anchors(graph, cache, read, read_id, extend, process, probe, scratch, &mut extensions);
    }
    // Rule 2 must not depend on when an exact full-length extension turned
    // up: whatever an anchor on it yielded before that, short of another
    // exact full-length extension, goes too (a stretch of the same walk
    // whose search ran out of branch steps, or one that strayed onto a
    // sequence-identical side path).
    if !scratch.exact_walks.is_empty() {
        let mut origins = scratch.origins.iter();
        extensions.retain(|ext| {
            let anchor = origins.next().expect("one origin per extension");
            is_exact_full_length(ext, read) || !on_exact_walk(&scratch.exact_walks, anchor)
        });
    }
    // Deduplicate identical spans, keep the best-scoring representative.
    // The key is a total order over extension content (mismatches and path
    // break residual ties), so the representative each span keeps does not
    // depend on the order the anchors were extended in.
    extensions.sort_by(|a, b| {
        (a.read_start, a.read_end, a.pos, std::cmp::Reverse(a.score), a.mismatches, &a.path).cmp(
            &(b.read_start, b.read_end, b.pos, std::cmp::Reverse(b.score), b.mismatches, &b.path),
        )
    });
    extensions.dedup_by_key(|e| (e.read_start, e.read_end, e.pos));
    // Best first; deterministic tie-break by span then position.
    extensions.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then_with(|| (a.read_start, a.read_end, a.pos).cmp(&(b.read_start, b.read_end, b.pos)))
    });
    extensions.truncate(process.max_extensions_per_read);
    probe.instret(extensions.len() as u64 * 10);
    scratch.first_walk = None;
    // Out at their length; the scratch keeps the capacity the walk grew.
    let mut kept = Vec::with_capacity(extensions.len());
    kept.append(&mut extensions);
    scratch.extensions = extensions;
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_gbwt::Gbz;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use mg_graph::NodeId;
    use mg_support::probe::{CountingProbe, NoProbe};

    /// Reference AAAACCCCGGGGTTTT with a SNP at 6 (C->G) and two haplotypes.
    fn bubble_gbz() -> Gbz {
        let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTT".to_vec())
            .variants(vec![Variant::snp(6, b'G')])
            .haplotypes(vec![vec![0], vec![1]])
            .max_node_len(4)
            .build()
            .unwrap();
        Gbz::from_pangenome(p).unwrap()
    }

    fn anchor(node: u64, off: u32, read_off: u32) -> Seed {
        Seed::new(read_off, GraphPos::new(Handle::forward(NodeId::new(node)), off))
    }

    #[test]
    fn perfect_read_extends_fully() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        // The reference haplotype sequence itself.
        let read = b"AAAACCCCGGGGTTTT";
        // Anchor in the middle of node 1 (AAAA), read offset 2.
        let seed = anchor(1, 2, 2);
        let ext = extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            read,
            0,
            seed,
            &ExtendParams::default(),
            &mut NoProbe,
            &mut ExtendScratch::default(),
        )
        .expect("extension exists");
        assert_eq!(ext.read_start, 0);
        assert_eq!(ext.read_end, 16);
        assert_eq!(ext.score, 16);
        assert_eq!(ext.mismatches, 0);
        assert_eq!(ext.pos.handle, Handle::forward(NodeId::new(1)));
        assert_eq!(ext.pos.offset, 0);
    }

    #[test]
    fn alt_haplotype_read_follows_alt_allele() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        // Haplotype 1: AAAACC G CGGGGTTTT (SNP at position 6).
        let read = b"AAAACCGCGGGGTTTT";
        let seed = anchor(1, 0, 0);
        let ext = extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            read,
            0,
            seed,
            &ExtendParams::default(),
            &mut NoProbe,
            &mut ExtendScratch::default(),
        )
        .unwrap();
        assert_eq!(ext.read_end - ext.read_start, 16);
        assert_eq!(ext.mismatches, 0);
        assert_eq!(ext.score, 16);
    }

    #[test]
    fn mismatches_tolerated_up_to_budget() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        // Reference read with 2 errors; a gentle penalty keeps both errors
        // worth retaining (each is followed by enough matches).
        let mut read = b"AAAACCCCGGGGTTTT".to_vec();
        read[3] = b'T';
        read[10] = b'A';
        let seed = anchor(2, 1, 5); // anchor on node 2 (CC), base 5 of read
        let params = ExtendParams {
            max_mismatches: 2,
            mismatch_penalty: 1,
            ..Default::default()
        };
        let ext = extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            &read,
            0,
            seed,
            &params,
            &mut NoProbe,
            &mut ExtendScratch::default(),
        )
            .unwrap();
        assert_eq!(ext.mismatches, 2);
        assert_eq!(ext.read_start, 0);
        assert_eq!(ext.read_end, 16);
        assert_eq!(ext.score, 14 - 2);
    }

    #[test]
    fn trailing_mismatch_is_trimmed_for_score() {
        // With the default penalty (4), a mismatch near the read edge costs
        // more than the bases beyond it recover, so the kernel trims it —
        // the max-score semantics of gapless extension.
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        let mut read = b"AAAACCCCGGGGTTTT".to_vec();
        read[1] = b'G'; // one match beyond it on the left edge
        let seed = anchor(2, 1, 5);
        let params = ExtendParams { max_mismatches: 2, ..Default::default() };
        let ext = extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            &read,
            0,
            seed,
            &params,
            &mut NoProbe,
            &mut ExtendScratch::default(),
        )
            .unwrap();
        // Trimmed to [2, 16): 14 matches, no mismatches.
        assert_eq!(ext.read_start, 2);
        assert_eq!(ext.read_end, 16);
        assert_eq!(ext.mismatches, 0);
        assert_eq!(ext.score, 14);
    }

    #[test]
    fn budget_exhaustion_trims_extension() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        // Garbage right half: extension should stop at the junk.
        let read = b"AAAACCCCTTTTAAAA".to_vec();
        let seed = anchor(1, 0, 0);
        let params = ExtendParams { max_mismatches: 1, ..Default::default() };
        let ext = extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            &read,
            0,
            seed,
            &params,
            &mut NoProbe,
            &mut ExtendScratch::default(),
        )
            .unwrap();
        // First 8 bases match the reference haplotype.
        assert_eq!(ext.read_start, 0);
        assert!(ext.read_end >= 8 && ext.read_end < 16, "read_end {}", ext.read_end);
        assert!(ext.score >= 8 - 4);
    }

    #[test]
    fn seed_not_on_haplotype_returns_none() {
        // Build a GBZ where node 3 (alt G) exists but strip haplotype 1 so
        // nothing visits it.
        let p = PangenomeBuilder::new(b"AAAACCCCGGGGTTTT".to_vec())
            .variants(vec![Variant::snp(6, b'G')])
            .haplotypes(vec![vec![0]])
            .max_node_len(4)
            .build()
            .unwrap();
        // Find a node that only the alt allele uses: spell sequences.
        let gbz = Gbz::from_pangenome(p).unwrap();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        let mut unvisited = None;
        for id in gbz.graph().node_ids() {
            if gbz.gbwt().find(Handle::forward(id).to_gbwt()).is_empty() {
                unvisited = Some(id);
                break;
            }
        }
        let node = unvisited.expect("alt node unvisited");
        let seed = Seed::new(0, GraphPos::new(Handle::forward(node), 0));
        let read = b"GGGG";
        assert!(extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            read,
            0,
            seed,
            &ExtendParams::default(),
            &mut NoProbe,
            &mut ExtendScratch::default(),
        )
        .is_none());
    }

    #[test]
    fn reverse_strand_read_extends_on_flipped_handles() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        // Reverse complement of the reference.
        let read = mg_graph::dna::reverse_complement(b"AAAACCCCGGGGTTTT");
        // Anchor: read starts at the flipped last node. Node 5/6? Find the
        // node whose reverse sequence starts the read.
        let mut found = false;
        for id in gbz.graph().node_ids() {
            let h = Handle::reverse(id);
            if gbz.graph().sequence(h)[0] == read[0]
                && !gbz.gbwt().find(h.to_gbwt()).is_empty()
            {
                let seed = Seed::new(0, GraphPos::new(h, 0));
                if let Some(ext) = extend_seed_with_scratch(
                    gbz.graph(),
                    &mut cache,
                    &read,
                    0,
                    seed,
                    &ExtendParams::default(),
                    &mut NoProbe,
                    &mut ExtendScratch::default(),
                ) {
                    if ext.len() == 16 && ext.mismatches == 0 {
                        found = true;
                        break;
                    }
                }
            }
        }
        assert!(found, "some reverse anchor yields a perfect reverse extension");
    }

    #[test]
    fn out_of_range_seed_rejected() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        // read_offset beyond the read.
        let seed = anchor(1, 0, 10);
        assert!(extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            b"ACGT",
            0,
            seed,
            &ExtendParams::default(),
            &mut NoProbe,
            &mut ExtendScratch::default(),
        )
        .is_none());
        // node offset beyond the node.
        let seed = anchor(1, 100, 0);
        assert!(extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            b"ACGT",
            0,
            seed,
            &ExtendParams::default(),
            &mut NoProbe,
            &mut ExtendScratch::default(),
        )
        .is_none());
    }

    #[test]
    fn probe_counts_base_comparisons() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        let read = b"AAAACCCCGGGGTTTT";
        let mut probe = CountingProbe::default();
        let _ = extend_seed_with_scratch(
            gbz.graph(),
            &mut cache,
            read,
            0,
            anchor(1, 0, 0),
            &ExtendParams::default(),
            &mut probe,
            &mut ExtendScratch::default(),
        );
        // At least one touch per compared base (read + graph).
        assert!(probe.touches >= 32, "touches {}", probe.touches);
        assert!(probe.branches >= 16);
    }

    #[test]
    fn process_clusters_dedupes_and_ranks() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        let read = b"AAAACCCCGGGGTTTT";
        // Two seeds anchoring the same alignment + one bogus seed.
        let seeds = vec![anchor(1, 0, 0), anchor(1, 2, 2), anchor(4, 0, 1)];
        let clusters = vec![Cluster { seeds: vec![0, 1, 2], score: 3.0 }];
        let exts = process_until_threshold_with_scratch(
            gbz.graph(),
            &mut cache,
            read,
            7,
            &seeds,
            &clusters,
            &ExtendParams::default(),
            &ProcessParams::default(),
            &mut NoProbe,
            &mut ExtendScratch::default(),
        );
        assert!(!exts.is_empty());
        // Scores descending.
        assert!(exts.windows(2).all(|w| w[0].score >= w[1].score));
        // Best is the perfect full-length match.
        assert_eq!(exts[0].score, 16);
        assert_eq!(exts[0].read_id, 7);
        // The two same-span anchors deduplicated: no adjacent repeats.
        let span = |e: &Extension| (e.read_start, e.read_end, e.pos);
        assert!(
            exts.windows(2).all(|w| span(&w[0]) != span(&w[1])),
            "duplicate span survived dedup"
        );
    }

    #[test]
    fn threshold_policy_skips_weak_clusters() {
        let gbz = bubble_gbz();
        let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
        let read = b"AAAACCCCGGGGTTTT";
        let seeds = vec![anchor(1, 0, 0), anchor(4, 0, 12)];
        let clusters = vec![
            Cluster { seeds: vec![0], score: 10.0 },
            Cluster { seeds: vec![1], score: 1.0 },
        ];
        let process = ProcessParams { cluster_score_cutoff: 0.5, ..Default::default() };
        let exts = process_until_threshold_with_scratch(
            gbz.graph(),
            &mut cache,
            read,
            0,
            &seeds,
            &clusters,
            &ExtendParams::default(),
            &process,
            &mut NoProbe,
            &mut ExtendScratch::default(),
        );
        // Weak cluster (score 1 < 5) skipped: all extensions from cluster 0's
        // anchor, which starts at node 1.
        assert!(exts
            .iter()
            .all(|e| e.path.first() == Some(&Handle::forward(NodeId::new(1)))));
    }

    #[test]
    fn production_walk_matches_scalar_oracle() {
        let gbz = bubble_gbz();
        // Reads covering clean matches, mismatches, an N, budget exhaustion,
        // and the reverse strand; anchors on both sides of the bubble so
        // both walk directions and both orientations run.
        let reads: Vec<Vec<u8>> = vec![
            b"AAAACCCCGGGGTTTT".to_vec(),
            b"AAAACCGCGGGGTTTT".to_vec(),
            b"AAAACCNCGGGGTTTT".to_vec(),
            b"AATACCCCGGGGATTT".to_vec(),
            b"AAAACCCCTTTTAAAA".to_vec(),
            mg_graph::dna::reverse_complement(b"AAAACCCCGGGGTTTT"),
        ];
        let param_sets = [
            ExtendParams::default(),
            ExtendParams { max_mismatches: 1, ..Default::default() },
            ExtendParams { max_mismatches: 2, mismatch_penalty: 1, ..Default::default() },
            ExtendParams { match_score: 0, ..Default::default() },
        ];
        for read in &reads {
            for params in &param_sets {
                for node in 1..=4u64 {
                    let node_len =
                        gbz.graph().node_len(NodeId::new(node)) as u32;
                    for off in 0..node_len {
                        for read_off in [0u32, 2, 5, 12] {
                            for handle in
                                [Handle::forward(NodeId::new(node)), Handle::reverse(NodeId::new(node))]
                            {
                                let seed = Seed::new(read_off, GraphPos::new(handle, off));
                                let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
                                let production = extend_seed_with_scratch(
                                    gbz.graph(),
                                    &mut cache,
                                    read,
                                    0,
                                    seed,
                                    params,
                                    &mut NoProbe,
                                    &mut ExtendScratch::default(),
                                );
                                let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
                                // An active probe selects the per-base step.
                                let per_base = extend_seed_with_scratch(
                                    gbz.graph(),
                                    &mut cache,
                                    read,
                                    0,
                                    seed,
                                    params,
                                    &mut CountingProbe::default(),
                                    &mut ExtendScratch::default(),
                                );
                                assert_eq!(
                                    production, per_base,
                                    "read {:?} params {:?} seed {:?}",
                                    std::str::from_utf8(read).unwrap(),
                                    params,
                                    seed,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Checks `branch_states_into` at `state` against the index's own
    /// one-symbol extensions, in both directions and cut short by the step
    /// budget.
    fn check_branches(
        cache: &mut CachedGbwt<'_>,
        tally: &mut Vec<[u64; 2]>,
        state: &BidirState,
    ) {
        let gbwt = cache.gbwt();
        let mut out = Vec::new();
        for backward in [false, true] {
            let from = if backward { state.backward.node } else { state.forward.node };
            let want: Vec<(BidirState, Handle)> = gbwt
                .record(from)
                .successors()
                .map(|symbol| {
                    let handle = Handle::from_gbwt(symbol).unwrap();
                    if backward {
                        (gbwt.extend_backward(state, symbol ^ 1), handle.flip())
                    } else {
                        (gbwt.extend_forward(state, symbol), handle)
                    }
                })
                .filter(|(next, _)| !next.is_empty())
                .collect();
            for budget in [64usize, 1, 0] {
                let params = ExtendParams { max_branch_steps: budget, ..Default::default() };
                let mut steps = 0usize;
                branch_states_into(
                    cache, state, backward, &mut steps, &params, &mut NoProbe, &mut out, tally,
                );
                let kept = want.len().min(budget);
                assert_eq!(out, want[..kept], "backward {backward} state {state:?}");
                assert_eq!(steps, kept);
            }
        }
    }

    /// States of every width the paths offer: each node's whole range, then
    /// narrowed along the path, on both strands.
    fn check_branches_along(gbwt: &mg_gbwt::Gbwt, paths: &[Vec<Handle>]) {
        let mut cache = CachedGbwt::new(gbwt, 64);
        let mut tally = Vec::new();
        for path in paths {
            for start in 0..path.len() {
                let mut state = gbwt.find_bidir(path[start].to_gbwt());
                check_branches(&mut cache, &mut tally, &state);
                for h in path[start + 1..].iter().take(5) {
                    state = gbwt.extend_forward(&state, h.to_gbwt());
                    check_branches(&mut cache, &mut tally, &state);
                }
                let mut state = gbwt.find_bidir(path[start].flip().to_gbwt());
                check_branches(&mut cache, &mut tally, &state);
                for h in path[..start].iter().rev().take(5) {
                    state = gbwt.extend_forward(&state, h.flip().to_gbwt());
                    check_branches(&mut cache, &mut tally, &state);
                }
            }
        }
    }

    #[test]
    fn branch_enumeration_matches_one_symbol_extensions_on_pangenomes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB4A);
        for _ in 0..40 {
            let reference: Vec<u8> = (0..rng.random_range(40usize..160))
                .map(|_| b"ACGT"[rng.random_range(0usize..4)])
                .collect();
            let mut variants = Vec::new();
            let mut pos = 2usize;
            while pos + 6 < reference.len() {
                variants.push(match rng.random_range(0u32..3) {
                    0 => Variant::insertion(pos, vec![b'T'; rng.random_range(1usize..4)]),
                    1 => Variant::deletion(pos, rng.random_range(1usize..3)),
                    _ => Variant::snp(pos, b"ACGT"[rng.random_range(0usize..4)]),
                });
                pos += rng.random_range(4usize..20);
            }
            let haplotypes: Vec<Vec<usize>> = (0..rng.random_range(1usize..7))
                .map(|_| variants.iter().map(|_| rng.random_range(0usize..2)).collect())
                .collect();
            let Ok(p) = PangenomeBuilder::new(reference)
                .variants(variants)
                .haplotypes(haplotypes)
                .max_node_len(rng.random_range(2usize..9))
                .build()
            else {
                continue;
            };
            let paths: Vec<Vec<Handle>> = p.paths().iter().map(|p| p.handles.clone()).collect();
            let gbz = Gbz::from_pangenome(p).unwrap();
            check_branches_along(gbz.gbwt(), &paths);
        }
    }

    /// What pangenome haplotypes never do: paths that end in the middle of
    /// others (an endmarker edge beside real ones) and a node followed by
    /// both strands of another (two successors that differ in the low bit,
    /// whose order the reverse index swaps).
    #[test]
    fn branch_enumeration_handles_path_ends_and_both_strands_of_a_successor() {
        let fwd = |i: u64| Handle::forward(NodeId::new(i));
        let rev = |i: u64| Handle::reverse(NodeId::new(i));
        let paths = vec![
            vec![fwd(1), fwd(2), fwd(3), fwd(5)],
            vec![fwd(1), fwd(2)],
            vec![fwd(1), fwd(2), rev(3), fwd(5)],
            vec![fwd(1), fwd(2), fwd(4), fwd(5)],
            vec![fwd(2), fwd(3)],
            vec![rev(4), fwd(2), rev(3)],
            vec![fwd(1), fwd(2), fwd(4), fwd(5)],
        ];
        let mut builder = mg_gbwt::GbwtBuilder::new();
        for path in &paths {
            builder = builder.insert(path);
        }
        let gbwt = builder.build().unwrap();
        let after_two = gbwt.record(fwd(2).to_gbwt());
        assert_eq!(after_two.edges.len(), 4, "endmarker, 3+, 3-, 4+");
        check_branches_along(&gbwt, &paths);
    }

    #[test]
    fn deterministic_results() {
        let gbz = bubble_gbz();
        let read = b"AAAACCGCGGGGTTTT";
        let seeds = vec![anchor(1, 0, 0), anchor(2, 0, 4), anchor(4, 2, 10)];
        let clusters = vec![Cluster { seeds: vec![0, 1, 2], score: 3.0 }];
        let run = || {
            let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
            process_until_threshold_with_scratch(
                gbz.graph(),
                &mut cache,
                read,
                0,
                &seeds,
                &clusters,
                &ExtendParams::default(),
                &ProcessParams::default(),
                &mut NoProbe,
                &mut ExtendScratch::default(),
            )
        };
        assert_eq!(run(), run());
    }
}
