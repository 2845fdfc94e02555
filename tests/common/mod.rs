//! The random kernel input shared by the kernel property tests
//! (`extend_once.rs`, `extend_first.rs`): a random pangenome, a read drawn
//! from one of its haplotypes, and anchors where the read came from plus a
//! few repeated and a few noise ones.

use minigiraffe::core::Seed;
use minigiraffe::gbwt::Gbz;
use minigiraffe::graph::dna::reverse_complement;
use minigiraffe::graph::pangenome::{PangenomeBuilder, Variant};
use minigiraffe::graph::{Handle, NodeId};
use minigiraffe::index::GraphPos;
use rand::rngs::StdRng;
use rand::Rng;

const BASES: &[u8; 4] = b"ACGT";

/// `lens.start..lens.end` random bases over the first `letters` of `ACGT`.
fn random_bases(rng: &mut StdRng, lens: std::ops::Range<usize>, letters: usize) -> Vec<u8> {
    let len = rng.random_range(lens);
    (0..len).map(|_| BASES[rng.random_range(0..letters)]).collect()
}

/// A random pangenome (SNPs, insertions and deletions a few bases apart,
/// one to four haplotypes, short and long nodes) and a read drawn from one
/// of its haplotypes on either strand. Anchors are placed where the read
/// really came from — at random read offsets, and at every base that falls
/// on a node's first or last offset — before substitutions and `N`s are
/// written into the read, so runs of anchors on one diagonal with and
/// without a mismatch between them both occur. A few anchors are repeated
/// and a few are noise.
pub fn random_read(rng: &mut StdRng) -> (Gbz, Vec<u8>, Vec<Seed>) {
    // Half the genomes are written in two letters: indels in such repeats
    // give walks that differ in their nodes and agree in their bases.
    let letters = if rng.random_bool(0.5) { 2 } else { 4 };
    let (gbz, paths) = loop {
        let reference = random_bases(rng, 80..320, letters);
        let mut variants = Vec::new();
        let mut pos = 0usize;
        loop {
            pos += rng.random_range(3usize..40);
            if pos + 8 >= reference.len() {
                break;
            }
            variants.push(match rng.random_range(0u32..4) {
                0 => Variant::insertion(pos, random_bases(rng, 1..6, letters)),
                1 => Variant::deletion(pos, rng.random_range(1usize..5)),
                _ => Variant::snp(pos, BASES[rng.random_range(0..letters)]),
            });
        }
        let haplotypes: Vec<Vec<usize>> = (0..rng.random_range(1usize..5))
            .map(|_| variants.iter().map(|_| rng.random_range(0usize..2)).collect())
            .collect();
        let built = PangenomeBuilder::new(reference)
            .variants(variants)
            .haplotypes(haplotypes)
            .max_node_len(rng.random_range(3usize..48))
            .build();
        // Rejected draws (overlapping sites, an alt equal to the reference
        // base) are simply redrawn.
        if let Ok(p) = built {
            let paths = p.paths().to_vec();
            if let Ok(gbz) = Gbz::from_pangenome(p) {
                break (gbz, paths);
            }
        }
    };
    let graph = gbz.graph();
    // Every base of one haplotype with the graph position it sits on.
    let path = &paths[rng.random_range(0..paths.len())];
    let mut hap: Vec<(u8, GraphPos)> = Vec::new();
    for &h in &path.handles {
        for (off, &b) in graph.oriented_sequence(h).iter().enumerate() {
            hap.push((b, GraphPos::new(h, off as u32)));
        }
    }
    let len = rng.random_range(12usize..=hap.len().min(150));
    let start = rng.random_range(0..=hap.len() - len);
    let forward = rng.random_bool(0.5);
    // The read and, per read offset, where that base lies in the graph.
    let (mut read, truth): (Vec<u8>, Vec<GraphPos>) = if forward {
        hap[start..start + len].iter().copied().unzip()
    } else {
        let fwd: Vec<u8> = hap[start..start + len].iter().map(|&(b, _)| b).collect();
        let truth = hap[start..start + len]
            .iter()
            .rev()
            .map(|&(_, p)| {
                let last = graph.node_len(p.handle.node()) as u32 - 1;
                GraphPos::new(p.handle.flip(), last - p.offset)
            })
            .collect();
        (reverse_complement(&fwd), truth)
    };

    let mut seeds: Vec<Seed> = Vec::new();
    for _ in 0..rng.random_range(2usize..24) {
        let r = rng.random_range(0..len);
        seeds.push(Seed::new(r as u32, truth[r]));
    }
    for (r, p) in truth.iter().enumerate() {
        let last = graph.node_len(p.handle.node()) as u32 - 1;
        if (p.offset == 0 || p.offset == last) && rng.random_bool(0.5) {
            seeds.push(Seed::new(r as u32, *p));
        }
    }
    for _ in 0..rng.random_range(0usize..3) {
        let dup = seeds[rng.random_range(0..seeds.len())];
        seeds.push(dup);
    }
    for _ in 0..rng.random_range(0usize..4) {
        let node = NodeId::new(rng.random_range(1..=graph.node_count() as u64));
        let handle = if rng.random_bool(0.5) { Handle::forward(node) } else { Handle::reverse(node) };
        let off = rng.random_range(0..graph.node_len(node)) as u32;
        seeds.push(Seed::new(rng.random_range(0..len) as u32, GraphPos::new(handle, off)));
    }

    for _ in 0..rng.random_range(0usize..=4) {
        let r = rng.random_range(0..len);
        read[r] = BASES[(BASES.iter().position(|&b| b == read[r]).unwrap_or(0) + 1) % 4];
    }
    if rng.random_bool(0.3) {
        for _ in 0..rng.random_range(1usize..3) {
            read[rng.random_range(0..len)] = b'N';
        }
    }
    (gbz, read, seeds)
}
