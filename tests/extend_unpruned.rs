//! The extension walk's branch-and-bound pruning against a walk that prunes
//! nothing: a per-base depth-first search over every haplotype-consistent
//! branch, in the walk's own visit order, with no step budget. Pruning is
//! exact only if the bound it prunes with is admissible — the all-match
//! continuation `score + match_score × bases left` — so a bound that
//! forgets the match score (or any other that is too low) makes the pruned
//! walk miss a better extension the unpruned one finds.
//!
//! Every seed of random reads (clean, and at 3 % substitutions) on the
//! test graph and on a B-yeast-shaped pangenome is extended both ways at
//! match scores 1, 2, 3 and 5, with two mismatch penalties. The pruned
//! walk gets a branch budget it never runs out of, since a budget spent in
//! a different order is not what this test is about.

use minigiraffe::core::{extend_seed_with_scratch, ExtendParams, ExtendScratch, Extension, Seed};
use minigiraffe::gbwt::{BidirState, CachedGbwt, Gbz};
use minigiraffe::graph::Handle;
use minigiraffe::index::GraphPos;
use minigiraffe::support::probe::NoProbe;
use minigiraffe::workload::{InputSetSpec, SyntheticInput};

/// The best prefix of one direction, as the walk keeps it: a better score,
/// or an equal score and more read consumed, replaces it.
#[derive(Debug, Clone)]
struct Best {
    score: i32,
    consumed: u32,
    mismatches: u32,
    /// Nodes entered after the anchor node, in walk order.
    path: Vec<Handle>,
    state: BidirState,
}

/// One directional walk that prunes nothing.
struct Unpruned<'a> {
    gbz: &'a Gbz,
    /// The read bytes on the walk's side of the anchor, in walk order.
    read_side: Vec<u8>,
    seed: Seed,
    right: bool,
    params: ExtendParams,
    budget: u32,
}

/// A frame's running totals.
#[derive(Debug, Clone, Copy)]
struct Totals {
    score: i32,
    consumed: u32,
    mismatches: u32,
}

impl Unpruned<'_> {
    /// Walks `handle` base by base, then every branch out of it.
    fn node(&self, handle: Handle, state: BidirState, mut t: Totals, path: &mut Vec<Handle>, best: &mut Best) {
        let node = self.gbz.graph().oriented_sequence(handle);
        let anchor = self.seed.pos.offset as usize;
        // The node's bytes in walk order.
        let bases: Vec<u8> = match (self.right, path.is_empty()) {
            (true, true) => node[anchor..].to_vec(),
            (true, false) => node.to_vec(),
            (false, true) => node[..anchor].iter().rev().copied().collect(),
            (false, false) => node.iter().rev().copied().collect(),
        };
        for g in bases {
            let Some(&r) = self.read_side.get(t.consumed as usize) else {
                return;
            };
            if r == g {
                t.score += i32::from(self.params.match_score);
            } else {
                t.mismatches += 1;
                if t.mismatches > self.budget {
                    return;
                }
                t.score -= i32::from(self.params.mismatch_penalty);
            }
            t.consumed += 1;
            if t.score > best.score || (t.score == best.score && t.consumed > best.consumed) {
                *best = Best {
                    score: t.score,
                    consumed: t.consumed,
                    mismatches: t.mismatches,
                    path: path.clone(),
                    state,
                };
            }
        }
        if t.consumed as usize == self.read_side.len() {
            return;
        }
        // The haplotype-consistent branches, in the order the index lists
        // them; the walk takes the last first and then the rest from the end.
        let gbwt = self.gbz.gbwt();
        let from = if self.right { state.forward.node } else { state.backward.node };
        let branches: Vec<(BidirState, Handle)> = gbwt
            .record(from)
            .successors()
            .map(|symbol| {
                let next = Handle::from_gbwt(symbol).expect("a real symbol");
                if self.right {
                    (gbwt.extend_forward(&state, symbol), next)
                } else {
                    (gbwt.extend_backward(&state, symbol ^ 1), next.flip())
                }
            })
            .filter(|(next, _)| !next.is_empty())
            .collect();
        for (next, handle) in branches.into_iter().rev() {
            path.push(handle);
            self.node(handle, next, t, path, best);
            path.pop();
        }
    }

    fn walk(&self, init: BidirState) -> Best {
        let mut best = Best { score: 0, consumed: 0, mismatches: 0, path: Vec::new(), state: init };
        let start = Totals { score: 0, consumed: 0, mismatches: 0 };
        self.node(self.seed.pos.handle, init, start, &mut Vec::new(), &mut best);
        best
    }
}

/// The extension of `seed` by two walks that prune nothing: right from the
/// anchor base on, then left from the state the right walk ended in, with
/// what is left of the mismatch budget; assembled as the kernel assembles
/// its walks.
fn unpruned_extension(gbz: &Gbz, read: &[u8], seed: Seed, params: &ExtendParams) -> Option<Extension> {
    let graph = gbz.graph();
    let anchor = seed.pos;
    if seed.read_offset as usize >= read.len() || anchor.offset as usize >= graph.node_len(anchor.handle.node()) {
        return None;
    }
    let init = gbz.gbwt().find_bidir(anchor.handle.to_gbwt());
    if init.is_empty() {
        return None;
    }
    let at = seed.read_offset as usize;
    let side = |right: bool, budget: u32| Unpruned {
        gbz,
        read_side: if right { read[at..].to_vec() } else { read[..at].iter().rev().copied().collect() },
        seed,
        right,
        params: *params,
        budget,
    };
    let right = side(true, params.max_mismatches).walk(init);
    let left = side(false, params.max_mismatches - right.mismatches.min(params.max_mismatches)).walk(right.state);
    let read_start = seed.read_offset - left.consumed;
    let read_end = seed.read_offset + right.consumed;
    if read_end <= read_start {
        return None;
    }
    // The first read base sits `left.consumed` bases before the anchor.
    let start = if left.path.is_empty() {
        GraphPos::new(anchor.handle, anchor.offset - left.consumed)
    } else {
        let mut remaining = left.consumed - anchor.offset;
        let mut at = None;
        for &h in &left.path {
            let len = graph.node_len(h.node()) as u32;
            if remaining <= len {
                at = Some(GraphPos::new(h, len - remaining));
                break;
            }
            remaining -= len;
        }
        at.expect("the left walk consumed its path")
    };
    let mut path: Vec<Handle> = left.path.iter().rev().copied().collect();
    path.push(anchor.handle);
    path.extend_from_slice(&right.path);
    Some(Extension {
        read_id: 0,
        read_start,
        read_end,
        pos: start,
        path,
        score: left.score + right.score,
        mismatches: left.mismatches + right.mismatches,
    })
}

/// Extends every distinct seed of every read both ways under every scoring
/// and demands equal extensions; returns how many extensions were compared.
fn check_input(spec: &InputSetSpec, seed: u64) -> usize {
    let input = SyntheticInput::generate(spec, seed);
    let gbz = &input.gbz;
    let mut cache = CachedGbwt::new(gbz.gbwt(), 64);
    let mut scratch = ExtendScratch::default();
    let mut compared = 0;
    for read in &input.dump.reads {
        let mut seeds = read.seeds.clone();
        seeds.sort_unstable();
        seeds.dedup();
        for match_score in [1, 2, 3, 5] {
            for mismatch_penalty in [4, 1] {
                let params = ExtendParams {
                    match_score,
                    mismatch_penalty,
                    max_branch_steps: usize::MAX,
                    ..ExtendParams::default()
                };
                for &s in &seeds {
                    let pruned = extend_seed_with_scratch(
                        gbz.graph(), &mut cache, &read.bases, 0, s, &params, &mut NoProbe, &mut scratch,
                    );
                    let want = unpruned_extension(gbz, &read.bases, s, &params);
                    assert_eq!(
                        pruned, want,
                        "{} seed {seed}: read {:?} seed {s:?} params {params:?}",
                        spec.name,
                        String::from_utf8_lossy(&read.bases)
                    );
                    compared += usize::from(want.is_some());
                }
            }
        }
    }
    compared
}

/// `spec` with `reads` reads at `error_rate` substitutions.
fn reads_of(mut spec: InputSetSpec, reads: usize, error_rate: f64) -> InputSetSpec {
    spec.reads = reads;
    spec.read_sim.error_rate = error_rate;
    spec
}

#[test]
fn pruned_walk_equals_an_unpruned_walk_on_the_test_graph() {
    for (seed, error_rate) in [(1, 0.001), (2, 0.03), (3, 0.03)] {
        let compared = check_input(&reads_of(InputSetSpec::tiny_for_tests(), 40, error_rate), seed);
        assert!(compared > 100, "only {compared} extensions compared");
    }
}

#[test]
fn pruned_walk_equals_an_unpruned_walk_on_a_b_yeast_shaped_pangenome() {
    for (seed, error_rate) in [(42, 0.002), (7, 0.03)] {
        let compared = check_input(&reads_of(InputSetSpec::b_yeast(), 30, error_rate), seed);
        assert!(compared > 100, "only {compared} extensions compared");
    }
}
