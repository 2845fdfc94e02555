//! The `cluster_seeds` kernel: the first of Giraffe's two critical
//! functions.
//!
//! Seeds of one read are grouped into clusters of mutually close graph
//! positions (within a distance limit of at least the read length) using
//! the distance index, and each cluster gets a quality score: the distinct
//! read offsets its seeds hit. High-scoring clusters feed the extension
//! kernel.

use mg_index::{DistanceIndex, DistanceScratch, NodeRecord};
use mg_support::probe::{MemProbe, REGION_SEEDS};

use crate::types::Seed;

/// How many sorted neighbours each seed is checked against. Bounds the pair
/// checks at `O(seeds × window)` like Giraffe's distance-index sweep bounds
/// its work. An unbounded window returns the same clusters on the
/// benchmark's reads but is slower (EXPERIMENTS.md, "The unbounded window,
/// measured again").
pub const NEIGHBOR_WINDOW: usize = 12;

/// Clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Two seeds join a cluster when their minimum graph distance is at
    /// most this many bases, or the read's length if that is more (Giraffe
    /// derives the limit from the read length).
    pub distance_limit: u64,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams { distance_limit: 200 }
    }
}

/// A cluster of seed indices with its quality score.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Indices into the read's seed array, ascending.
    pub seeds: Vec<usize>,
    /// Cluster score: distinct read offsets represented (Giraffe's cluster
    /// score counts distinct minimizers).
    pub score: f64,
}

/// Union-find over seed indices.
///
/// [`UnionFind::link`] makes the smaller root the joint root, and path
/// compression points a member at its root, so every parent index is at
/// most its member's own: a set's root is its smallest member.
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// Reinitializes for `n` elements, reusing the allocation.
    fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Joins the sets rooted at `ra` and `rb` and returns the joint root.
    /// Deterministic: the smaller index becomes the root, so a set's root is
    /// always its smallest member, whatever the order of finds and unions.
    fn link(&mut self, ra: usize, rb: usize) -> usize {
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        self.parent[hi] = lo as u32;
        lo
    }
}

/// A seed's place in the position sort, computed once per seed:
/// `(component, linearized position, oriented node, read offset, seed
/// index)`. The index makes the order total.
type SortKey = (u32, u64, u64, u32, u32);

/// Reusable per-thread storage of the clustering kernel: the position-sort
/// order, each seed's node record, the union-find, the distance-query
/// scratch, each seed's cluster and each cluster's size while the clusters
/// are gathered, the per-cluster offset buffer, and the one cluster the
/// one-cluster path lends out. A worker holds one and reuses it for every
/// read it maps.
#[derive(Debug, Default)]
pub struct ClusterScratch {
    order: Vec<SortKey>,
    records: Vec<NodeRecord>,
    uf: UnionFind,
    dist: DistanceScratch,
    slot: Vec<u32>,
    sizes: Vec<usize>,
    offsets: Vec<u32>,
    one: Vec<Cluster>,
}

/// Clusters the seeds of one read on caller-provided scratch storage.
///
/// Two seeds are close when their minimum graph distance, either way, is at
/// most `max(params.distance_limit, read_len)`. Seeds are sorted by
/// (component, linearized graph position), one node record read per seed
/// and kept for the sweep; each seed is checked against the next
/// [`NEIGHBOR_WINDOW`] seeds, those in its component with an exact bounded
/// distance query answered from the two kept records, and close pairs are
/// unioned. The sort puts a component's seeds together, so a seed's window
/// ends at the first seed of another component. Clusters come back sorted
/// by score (descending), ties broken by first seed index — a deterministic
/// order regardless of thread count.
pub fn cluster_seeds_with_scratch<P: MemProbe>(
    graph: &mg_graph::VariationGraph,
    dist: &DistanceIndex,
    seeds: &[Seed],
    read_len: u32,
    params: &ClusterParams,
    probe: &mut P,
    scratch: &mut ClusterScratch,
) -> Vec<Cluster> {
    if seeds.is_empty() {
        return Vec::new();
    }
    probe.touch(REGION_SEEDS.base, std::mem::size_of_val(seeds) as u32);
    probe.instret(seeds.len() as u64 * 4);
    let ClusterScratch { order, records, uf, dist: dist_scratch, slot, sizes, offsets, .. } = scratch;

    // Sort the seeds by linearized position so nearby seeds are adjacent.
    order.clear();
    records.clear();
    for (i, s) in seeds.iter().enumerate() {
        let node = *dist.node(s.pos.handle.node());
        order.push((
            node.component,
            u64::from(node.offset_min).saturating_add(s.pos.offset as u64),
            s.pos.handle.packed(),
            s.read_offset,
            i as u32,
        ));
        records.push(node);
    }
    order.sort_unstable();
    probe.instret((seeds.len() as f64 * (seeds.len() as f64).log2().max(1.0)) as u64);

    uf.reset(seeds.len());
    let limit = params.distance_limit.max(u64::from(read_len));
    for (rank, &(component, .., i)) in order.iter().enumerate() {
        let i = i as usize;
        let mut root = uf.find(i);
        let window = &order[rank + 1..][..NEIGHBOR_WINDOW.min(order.len() - rank - 1)];
        for (k, &(other_component, .., j)) in window.iter().enumerate() {
            let j = j as usize;
            // Transitivity: pairs already clustered need no distance query
            // (this is what makes the sweep near-linear, like Giraffe's
            // distance-index clustering).
            let other = if uf.parent[j] as usize == root { root } else { uf.find(j) };
            if other == root {
                probe.instret(2);
                continue;
            }
            let (a, b) = (seeds[i].pos, seeds[j].pos);
            probe.instret(6);
            // Seeds in different components are never close, and the sort
            // puts every later seed of the window in another component too.
            // The simulator is told of each skipped one as the checks it
            // would have taken.
            if component != other_component {
                if P::ACTIVE {
                    (k + 1..window.len()).for_each(|_| probe.instret(6));
                }
                break;
            }
            // Same-handle fast path: the offset gap is itself a walk.
            if a.handle == b.handle {
                let gap = a.offset.abs_diff(b.offset) as u64;
                probe.instret(4);
                if gap <= limit {
                    root = uf.link(root, other);
                    continue;
                }
            }
            // Exact check, either direction.
            probe.instret(40);
            if dist
                .min_undirected_distance_with_records(
                    graph, a, &records[i], b, &records[j], limit, dist_scratch,
                )
                .is_some_and(|d| d <= limit)
            {
                root = uf.link(root, other);
            }
        }
    }

    // Gather the clusters without sorting: a set's root is its smallest
    // member and every parent index is at most its member's, so one pass in
    // index order meets each cluster at its root first and finds every
    // other member's cluster at its parent. A second pass hands each
    // cluster its members, ascending.
    slot.clear();
    sizes.clear();
    for i in 0..seeds.len() {
        let parent = uf.parent[i] as usize;
        let c = if parent == i {
            sizes.push(0);
            sizes.len() - 1
        } else {
            slot[parent] as usize
        };
        sizes[c] += 1;
        slot.push(c as u32);
    }
    let mut clusters: Vec<Cluster> = sizes
        .iter()
        .map(|&n| Cluster { seeds: Vec::with_capacity(n), score: 0.0 })
        .collect();
    for (i, &c) in slot.iter().enumerate() {
        clusters[c as usize].seeds.push(i);
    }
    for cluster in clusters.iter_mut() {
        cluster.score = distinct_offsets(seeds, &cluster.seeds, offsets);
    }
    clusters.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.seeds[0].cmp(&b.seeds[0]))
    });
    probe.instret(clusters.len() as u64 * 8);
    clusters
}

/// The one cluster of all of a read's seeds, scored as
/// [`cluster_seeds_with_scratch`] scores its clusters, given the number of
/// distinct read offsets among the seeds: what that kernel returns when
/// every seed lies on one walk of the read, so that every pair is within
/// its read-length distance limit (DESIGN.md §4b). `seeds` is not empty.
/// The cluster is lent from `scratch`, whose storage it reuses.
pub(crate) fn one_cluster<'s, P: MemProbe>(
    seeds: &[Seed],
    distinct: u64,
    probe: &mut P,
    scratch: &'s mut ClusterScratch,
) -> &'s [Cluster] {
    probe.touch(REGION_SEEDS.base, std::mem::size_of_val(seeds) as u32);
    probe.instret(seeds.len() as u64 * 4);
    let one = &mut scratch.one;
    if one.is_empty() {
        one.push(Cluster { seeds: Vec::new(), score: 0.0 });
    }
    let cluster = &mut one[0];
    cluster.seeds.clear();
    cluster.seeds.extend(0..seeds.len());
    cluster.score = distinct as f64;
    one
}

/// A cluster's score: the number of distinct read offsets its seeds hit
/// (distinct minimizers).
fn distinct_offsets(seeds: &[Seed], members: &[usize], offsets: &mut Vec<u32>) -> f64 {
    offsets.clear();
    offsets.extend(members.iter().map(|&i| seeds[i].read_offset));
    offsets.sort_unstable();
    offsets.dedup();
    offsets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::pangenome::{PangenomeBuilder, Variant};
    use mg_graph::{Handle, NodeId};
    use mg_support::probe::{CountingProbe, NoProbe};
    use mg_index::GraphPos;

    /// A long linear pangenome: two far-apart regions.
    fn linear() -> (mg_graph::Pangenome, DistanceIndex) {
        let p = PangenomeBuilder::new(vec![b'A'; 2000])
            .haplotypes(vec![vec![]])
            .max_node_len(20)
            .build()
            .unwrap();
        let d = DistanceIndex::build(p.graph());
        (p, d)
    }

    fn seed_at(p: &mg_graph::Pangenome, read_off: u32, base_pos: u64) -> Seed {
        // Node i covers bases [20 * (i - 1), 20 * i).
        let node = base_pos / 20 + 1;
        let off = (base_pos % 20) as u32;
        let _ = p;
        Seed::new(read_off, GraphPos::new(Handle::forward(NodeId::new(node)), off))
    }

    #[test]
    fn empty_seeds_give_no_clusters() {
        let (p, d) = linear();
        let out = cluster_seeds_with_scratch(
            p.graph(),
            &d,
            &[],
            100,
            &ClusterParams::default(),
            &mut NoProbe,
            &mut ClusterScratch::default(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn single_seed_is_one_cluster() {
        let (p, d) = linear();
        let seeds = [seed_at(&p, 0, 100)];
        let out = cluster_seeds_with_scratch(
            p.graph(),
            &d,
            &seeds,
            100,
            &ClusterParams::default(),
            &mut NoProbe,
            &mut ClusterScratch::default(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seeds, vec![0]);
        assert_eq!(out[0].score, 1.0);
    }

    #[test]
    fn nearby_seeds_cluster_far_seeds_split() {
        let (p, d) = linear();
        // Three seeds around base 100, two around base 1500.
        let seeds = [
            seed_at(&p, 0, 100),
            seed_at(&p, 10, 110),
            seed_at(&p, 20, 120),
            seed_at(&p, 0, 1500),
            seed_at(&p, 30, 1530),
        ];
        let params = ClusterParams { distance_limit: 150 };
        let out = cluster_seeds_with_scratch(
            p.graph(),
            &d,
            &seeds,
            100,
            &params,
            &mut NoProbe,
            &mut ClusterScratch::default(),
        );
        assert_eq!(out.len(), 2);
        // Best cluster first: 3 distinct offsets beats 2.
        assert_eq!(out[0].seeds, vec![0, 1, 2]);
        assert_eq!(out[0].score, 3.0);
        assert_eq!(out[1].seeds, vec![3, 4]);
    }

    #[test]
    fn chained_seeds_form_one_cluster() {
        // Seeds each within limit of the next but first and last far apart:
        // transitive clustering must chain them.
        let (p, d) = linear();
        let seeds: Vec<Seed> = (0..8).map(|i| seed_at(&p, i * 5, 100 + i as u64 * 100)).collect();
        let params = ClusterParams { distance_limit: 120 };
        let out = cluster_seeds_with_scratch(
            p.graph(),
            &d,
            &seeds,
            150,
            &params,
            &mut NoProbe,
            &mut ClusterScratch::default(),
        );
        assert_eq!(out.len(), 1, "chain should union into one cluster");
        assert_eq!(out[0].seeds.len(), 8);
    }

    #[test]
    fn the_read_length_raises_the_limit() {
        let (p, d) = linear();
        // 150 bases apart: beyond a limit of 100, within a 160-base read.
        let seeds = [seed_at(&p, 0, 100), seed_at(&p, 5, 250)];
        let params = ClusterParams { distance_limit: 100 };
        let clusters = |read_len| {
            cluster_seeds_with_scratch(
                p.graph(),
                &d,
                &seeds,
                read_len,
                &params,
                &mut NoProbe,
                &mut ClusterScratch::default(),
            )
            .len()
        };
        assert_eq!(clusters(100), 2);
        assert_eq!(clusters(149), 2);
        assert_eq!(clusters(150), 1);
        assert_eq!(clusters(160), 1);
    }

    #[test]
    fn different_components_never_cluster() {
        let mut g = mg_graph::VariationGraph::new();
        let a = g.add_node(b"AAAA").unwrap();
        let b = g.add_node(b"CCCC").unwrap();
        let d = DistanceIndex::build(&g);
        let seeds = [
            Seed::new(0, GraphPos::new(Handle::forward(a), 0)),
            Seed::new(1, GraphPos::new(Handle::forward(b), 0)),
        ];
        let out = cluster_seeds_with_scratch(
            &g,
            &d,
            &seeds,
            50,
            &ClusterParams::default(),
            &mut NoProbe,
            &mut ClusterScratch::default(),
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn seeds_across_a_bubble_cluster() {
        let p = PangenomeBuilder::new(b"AAAAAAAACCCCCCCCTTTTTTTT".to_vec())
            .variants(vec![Variant::snp(10, b'G')])
            .haplotypes(vec![vec![0], vec![1]])
            .max_node_len(6)
            .build()
            .unwrap();
        let d = DistanceIndex::build(p.graph());
        // One seed before the bubble, one on the alt allele, one after.
        let before = Seed::new(0, GraphPos::new(Handle::forward(NodeId::new(1)), 2));
        let after_node = p.graph().max_node_id().unwrap();
        let after = Seed::new(12, GraphPos::new(Handle::forward(after_node), 1));
        let out = cluster_seeds_with_scratch(
            p.graph(),
            &d,
            &[before, after],
            50,
            &ClusterParams { distance_limit: 30 },
            &mut NoProbe,
            &mut ClusterScratch::default(),
        );
        assert_eq!(out.len(), 1, "seeds straddling the bubble must cluster");
    }

    #[test]
    fn deterministic_order() {
        let (p, d) = linear();
        let seeds: Vec<Seed> = (0..20)
            .map(|i| seed_at(&p, (i * 7) % 60, ((i * 137) % 1900) as u64))
            .collect();
        let params = ClusterParams { distance_limit: 100 };
        let a = cluster_seeds_with_scratch(
            p.graph(),
            &d,
            &seeds,
            100,
            &params,
            &mut NoProbe,
            &mut ClusterScratch::default(),
        );
        let b = cluster_seeds_with_scratch(
            p.graph(),
            &d,
            &seeds,
            100,
            &params,
            &mut NoProbe,
            &mut ClusterScratch::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn probe_sees_work() {
        let (p, d) = linear();
        let seeds: Vec<Seed> = (0..10).map(|i| seed_at(&p, i, 100 + i as u64 * 10)).collect();
        let mut probe = CountingProbe::default();
        let _ = cluster_seeds_with_scratch(
            p.graph(),
            &d,
            &seeds,
            100,
            &ClusterParams::default(),
            &mut probe,
            &mut ClusterScratch::default(),
        );
        assert!(probe.instructions > 0);
        assert!(probe.touches > 0);
    }

    #[test]
    fn union_find_chains_compress() {
        let mut uf = UnionFind::default();
        uf.reset(5);
        let union = |uf: &mut UnionFind, a, b| {
            let (ra, rb) = (uf.find(a), uf.find(b));
            uf.link(ra, rb);
        };
        union(&mut uf, 0, 1);
        union(&mut uf, 1, 2);
        union(&mut uf, 3, 4);
        assert_eq!(uf.find(2), 0);
        assert_eq!(uf.find(4), 3);
        union(&mut uf, 2, 4);
        for i in 0..5 {
            assert_eq!(uf.find(i), 0);
        }
    }
}
