//! Pangenome construction from a linear reference plus variation.
//!
//! A pangenome graph is built the way the HPRC / 1000GP graphs the paper
//! uses are: start from a linear reference, cut it at variant boundaries,
//! and add alternative-allele nodes. Each haplotype in the panel picks one
//! allele per variant, yielding a path through the graph; those paths are
//! exactly what the GBWT indexes.

use mg_support::{Error, Result};

use crate::dna;
use crate::graph::{GraphBuilder, VariationGraph};
use crate::handle::{Handle, NodeId};

/// A single variant site against the reference.
///
/// `position` is the 0-based reference offset of the first affected base.
/// Allele 0 is always the reference allele.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// 0-based reference position of the variant site.
    pub position: usize,
    /// Length of the replaced reference span (0 for a pure insertion).
    pub ref_len: usize,
    /// Alternative alleles (allele numbers 1..). May be empty sequences only
    /// for deletions (`ref_len > 0`).
    pub alt_alleles: Vec<Vec<u8>>,
}

impl Variant {
    /// A single-nucleotide polymorphism replacing one base with `alt`.
    pub fn snp(position: usize, alt: u8) -> Self {
        Variant {
            position,
            ref_len: 1,
            alt_alleles: vec![vec![alt]],
        }
    }

    /// An insertion of `sequence` *before* the base at `position`.
    pub fn insertion(position: usize, sequence: Vec<u8>) -> Self {
        Variant {
            position,
            ref_len: 0,
            alt_alleles: vec![sequence],
        }
    }

    /// A deletion of `len` reference bases starting at `position`.
    pub fn deletion(position: usize, len: usize) -> Self {
        Variant {
            position,
            ref_len: len,
            alt_alleles: vec![Vec::new()],
        }
    }

    /// Total number of alleles including the reference allele.
    pub fn allele_count(&self) -> usize {
        self.alt_alleles.len() + 1
    }

    /// End of the replaced reference span (exclusive).
    pub fn ref_end(&self) -> usize {
        self.position + self.ref_len
    }
}

/// A haplotype's walk through the pangenome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaplotypePath {
    /// Index of the haplotype in the panel.
    pub haplotype: usize,
    /// The oriented nodes visited, in order.
    pub handles: Vec<Handle>,
}

impl HaplotypePath {
    /// Spells out the DNA sequence of this path in `graph`.
    pub fn sequence(&self, graph: &VariationGraph) -> Vec<u8> {
        let mut out = Vec::new();
        for &h in &self.handles {
            out.extend_from_slice(graph.sequence(h).as_ref());
        }
        out
    }
}

/// A pangenome: the variation graph plus the haplotype paths through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pangenome {
    graph: VariationGraph,
    paths: Vec<HaplotypePath>,
    /// Node ids of the reference-allele backbone, in reference order.
    reference_backbone: Vec<NodeId>,
}

impl Pangenome {
    /// The underlying variation graph.
    pub fn graph(&self) -> &VariationGraph {
        &self.graph
    }

    /// All haplotype paths.
    pub fn paths(&self) -> &[HaplotypePath] {
        &self.paths
    }

    /// The reference backbone node ids, in order.
    pub fn reference_backbone(&self) -> &[NodeId] {
        &self.reference_backbone
    }

    /// Decomposes into `(graph, paths)`, giving up the backbone.
    pub fn into_parts(self) -> (VariationGraph, Vec<HaplotypePath>) {
        (self.graph, self.paths)
    }
}

/// Builds a [`Pangenome`] from a reference, variants, and a haplotype panel.
///
/// # Examples
///
/// ```
/// use mg_graph::pangenome::{PangenomeBuilder, Variant};
///
/// let p = PangenomeBuilder::new(b"AAAACCCCGGGG".to_vec())
///     .variants(vec![Variant::snp(4, b'T'), Variant::deletion(8, 2)])
///     .haplotypes(vec![vec![0, 0], vec![1, 1]])
///     .build()
///     .unwrap();
/// assert_eq!(p.paths()[0].sequence(p.graph()), b"AAAACCCCGGGG");
/// assert_eq!(p.paths()[1].sequence(p.graph()), b"AAAATCCCGG");
/// ```
#[derive(Debug, Clone)]
pub struct PangenomeBuilder {
    reference: Vec<u8>,
    variants: Vec<Variant>,
    /// `haplotypes[h][v]` = allele chosen by haplotype `h` at variant `v`.
    haplotypes: Vec<Vec<usize>>,
    max_node_len: usize,
}

impl PangenomeBuilder {
    /// Starts a builder for the given reference sequence.
    pub fn new(reference: Vec<u8>) -> Self {
        PangenomeBuilder {
            reference,
            variants: Vec::new(),
            haplotypes: Vec::new(),
            max_node_len: 32,
        }
    }

    /// Sets the variant sites (will be sorted by position).
    pub fn variants(mut self, variants: Vec<Variant>) -> Self {
        self.variants = variants;
        self
    }

    /// Sets the haplotype panel: one allele choice per variant per haplotype.
    pub fn haplotypes(mut self, haplotypes: Vec<Vec<usize>>) -> Self {
        self.haplotypes = haplotypes;
        self
    }

    /// Caps node sequence length; longer reference chunks are split into
    /// several nodes (default 32, like typical vg graphs' short nodes).
    pub fn max_node_len(mut self, len: usize) -> Self {
        assert!(len > 0, "max node length must be positive");
        self.max_node_len = len;
        self
    }

    /// Builds the pangenome.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the reference or an allele contains
    /// invalid bases, variants overlap or run past the reference end, a
    /// haplotype's allele vector has the wrong length, or an allele index is
    /// out of range.
    pub fn build(self) -> Result<Pangenome> {
        if !dna::is_valid_sequence(&self.reference) {
            return Err(Error::Corrupt("reference contains non-ACGT bytes".into()));
        }
        if self.reference.is_empty() {
            return Err(Error::Corrupt("empty reference".into()));
        }
        let mut variants = self.variants;
        variants.sort_by_key(|v| v.position);
        // Validate variants: in-bounds, non-overlapping, valid alleles.
        let mut prev_end = 0usize;
        for (i, v) in variants.iter().enumerate() {
            if v.ref_end() > self.reference.len() {
                return Err(Error::Corrupt(format!(
                    "variant {i} spans past reference end"
                )));
            }
            // Insertions at the same position as a previous site's end are
            // fine; true overlaps are not. Also forbid adjacent sites with no
            // reference base between them when both need an anchor.
            if v.position < prev_end {
                return Err(Error::Corrupt(format!("variant {i} overlaps previous site")));
            }
            if v.alt_alleles.is_empty() {
                return Err(Error::Corrupt(format!("variant {i} has no alt alleles")));
            }
            for alt in &v.alt_alleles {
                if !dna::is_valid_sequence(alt) {
                    return Err(Error::Corrupt(format!("variant {i} allele has invalid bases")));
                }
                if alt.is_empty() && v.ref_len == 0 {
                    return Err(Error::Corrupt(format!(
                        "variant {i} is a no-op (empty insertion)"
                    )));
                }
            }
            prev_end = v.ref_end().max(v.position + 1);
        }
        for (h, alleles) in self.haplotypes.iter().enumerate() {
            if alleles.len() != variants.len() {
                return Err(Error::Corrupt(format!(
                    "haplotype {h} chooses {} alleles for {} variants",
                    alleles.len(),
                    variants.len()
                )));
            }
            for (v, &a) in alleles.iter().enumerate() {
                if a >= variants[v].allele_count() {
                    return Err(Error::Corrupt(format!(
                        "haplotype {h} picks allele {a} of variant {v} which has only {} alleles",
                        variants[v].allele_count()
                    )));
                }
            }
        }

        let mut graph = GraphBuilder::new();
        // Per reference chunk between variants: the chain of node ids.
        // allele_nodes[v][a] = node chain for allele a of variant v.
        let mut backbone_chunks: Vec<Vec<NodeId>> = Vec::new();
        let mut allele_nodes: Vec<Vec<Vec<NodeId>>> = Vec::new();

        let add_chunk = |graph: &mut GraphBuilder, seq: &[u8]| -> Result<Vec<NodeId>> {
            let mut chain = Vec::new();
            for piece in seq.chunks(self.max_node_len) {
                let id = graph.add_node(piece)?;
                if let Some(&prev) = chain.last() {
                    graph.add_edge(Handle::forward(prev), Handle::forward(id));
                }
                chain.push(id);
            }
            Ok(chain)
        };

        let mut cursor = 0usize;
        for v in &variants {
            // Reference chunk before the site (may be empty).
            let before = add_chunk(&mut graph, &self.reference[cursor..v.position])?;
            backbone_chunks.push(before);
            // Allele 0: the reference span; alleles 1..: alternatives.
            let mut site_alleles = Vec::with_capacity(v.allele_count());
            site_alleles.push(add_chunk(
                &mut graph,
                &self.reference[v.position..v.ref_end()],
            )?);
            for alt in &v.alt_alleles {
                site_alleles.push(add_chunk(&mut graph, alt)?);
            }
            allele_nodes.push(site_alleles);
            cursor = v.ref_end();
        }
        let tail = add_chunk(&mut graph, &self.reference[cursor..])?;
        backbone_chunks.push(tail);

        // Trace every haplotype path (and the reference backbone) through the
        // chunk/site structure, adding edges as we go. Empty chains (empty
        // chunks or deletion alleles) are bridged through because the edge is
        // always added between consecutive *visited* nodes.
        let trace = |graph: &mut GraphBuilder,
                     alleles: Option<&[usize]>|
         -> Vec<NodeId> {
            let mut path: Vec<NodeId> = Vec::new();
            for (site, chunk) in backbone_chunks.iter().enumerate() {
                for &id in chunk {
                    if let Some(&prev) = path.last() {
                        graph.add_edge(Handle::forward(prev), Handle::forward(id));
                    }
                    path.push(id);
                }
                if site < allele_nodes.len() {
                    let allele = alleles.map_or(0, |a| a[site]);
                    for &id in &allele_nodes[site][allele] {
                        if let Some(&prev) = path.last() {
                            graph.add_edge(Handle::forward(prev), Handle::forward(id));
                        }
                        path.push(id);
                    }
                }
            }
            path
        };

        let reference_backbone = trace(&mut graph, None);
        let mut paths = Vec::with_capacity(self.haplotypes.len());
        for (h, alleles) in self.haplotypes.iter().enumerate() {
            let nodes = trace(&mut graph, Some(alleles));
            paths.push(HaplotypePath {
                haplotype: h,
                handles: nodes.into_iter().map(Handle::forward).collect(),
            });
        }

        Ok(Pangenome {
            graph: graph.build(),
            paths,
            reference_backbone,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_variants_is_linear_chain() {
        let p = PangenomeBuilder::new(b"ACGTACGTACGT".to_vec())
            .max_node_len(5)
            .haplotypes(vec![vec![], vec![]])
            .build()
            .unwrap();
        // 12 bases at max 5 per node = 3 nodes.
        assert_eq!(p.graph().node_count(), 3);
        assert_eq!(p.graph().edge_count(), 2);
        for path in p.paths() {
            assert_eq!(path.sequence(p.graph()), b"ACGTACGTACGT");
        }
    }

    #[test]
    fn snp_creates_bubble() {
        let p = PangenomeBuilder::new(b"AAAATTTT".to_vec())
            .variants(vec![Variant::snp(4, b'G')])
            .haplotypes(vec![vec![0], vec![1]])
            .build()
            .unwrap();
        assert_eq!(p.paths()[0].sequence(p.graph()), b"AAAATTTT");
        assert_eq!(p.paths()[1].sequence(p.graph()), b"AAAAGTTT");
        // The two alleles are distinct single-base nodes feeding the tail.
        assert!(p.graph().node_count() >= 4);
    }

    #[test]
    fn insertion_and_deletion() {
        let p = PangenomeBuilder::new(b"AAAACCCC".to_vec())
            .variants(vec![
                Variant::insertion(4, b"GG".to_vec()),
                Variant::deletion(6, 2),
            ])
            .haplotypes(vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]])
            .build()
            .unwrap();
        assert_eq!(p.paths()[0].sequence(p.graph()), b"AAAACCCC");
        assert_eq!(p.paths()[1].sequence(p.graph()), b"AAAAGGCCCC");
        assert_eq!(p.paths()[2].sequence(p.graph()), b"AAAACC");
        assert_eq!(p.paths()[3].sequence(p.graph()), b"AAAAGGCC");
    }

    #[test]
    fn multiallelic_site() {
        let variant = Variant {
            position: 2,
            ref_len: 1,
            alt_alleles: vec![vec![b'C'], vec![b'G'], b"TT".to_vec()],
        };
        let p = PangenomeBuilder::new(b"AAAAA".to_vec())
            .variants(vec![variant])
            .haplotypes(vec![vec![0], vec![1], vec![2], vec![3]])
            .build()
            .unwrap();
        let seqs: Vec<Vec<u8>> = p.paths().iter().map(|h| h.sequence(p.graph())).collect();
        assert_eq!(seqs[0], b"AAAAA");
        assert_eq!(seqs[1], b"AACAA");
        assert_eq!(seqs[2], b"AAGAA");
        assert_eq!(seqs[3], b"AATTAA");
    }

    #[test]
    fn reference_backbone_spells_reference() {
        let reference = b"ACGTACGTAACCGGTT".to_vec();
        let p = PangenomeBuilder::new(reference.clone())
            .variants(vec![Variant::snp(3, b'A'), Variant::deletion(8, 3)])
            .haplotypes(vec![vec![1, 1]])
            .build()
            .unwrap();
        let spelled: Vec<u8> = p
            .reference_backbone()
            .iter()
            .flat_map(|&id| p.graph().forward_sequence(id).to_vec())
            .collect();
        assert_eq!(spelled, reference);
    }

    #[test]
    fn rejects_overlapping_variants() {
        let err = PangenomeBuilder::new(b"ACGTACGT".to_vec())
            .variants(vec![Variant::deletion(2, 3), Variant::snp(4, b'A')])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("overlaps"));
    }

    #[test]
    fn rejects_out_of_bounds_variant() {
        assert!(PangenomeBuilder::new(b"ACGT".to_vec())
            .variants(vec![Variant::snp(4, b'A')])
            .build()
            .is_err());
    }

    #[test]
    fn rejects_wrong_allele_vector_length() {
        assert!(PangenomeBuilder::new(b"ACGTACGT".to_vec())
            .variants(vec![Variant::snp(1, b'C')])
            .haplotypes(vec![vec![0, 1]])
            .build()
            .is_err());
    }

    #[test]
    fn rejects_allele_out_of_range() {
        assert!(PangenomeBuilder::new(b"ACGTACGT".to_vec())
            .variants(vec![Variant::snp(1, b'C')])
            .haplotypes(vec![vec![2]])
            .build()
            .is_err());
    }

    #[test]
    fn rejects_empty_insertion() {
        assert!(PangenomeBuilder::new(b"ACGT".to_vec())
            .variants(vec![Variant::insertion(2, Vec::new())])
            .build()
            .is_err());
    }

    #[test]
    fn node_length_cap_respected() {
        let p = PangenomeBuilder::new(vec![b'A'; 1000])
            .max_node_len(17)
            .build()
            .unwrap();
        for id in p.graph().node_ids() {
            assert!(p.graph().node_len(id) <= 17);
        }
    }

    proptest! {
        /// Every haplotype path must spell exactly the sequence obtained by
        /// applying its chosen alleles to the reference.
        #[test]
        fn prop_paths_spell_applied_variants(
            ref_len in 20usize..200,
            seed in 0u64..1000,
        ) {
            // Deterministic pseudo-random reference and variants from seed.
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let reference: Vec<u8> = (0..ref_len).map(|_| dna::BASES[(next() % 4) as usize]).collect();
            // Non-overlapping variant sites every ~10 bases.
            let mut variants = Vec::new();
            let mut pos = (next() % 5) as usize;
            while pos + 3 < ref_len {
                let kind = next() % 3;
                let v = match kind {
                    0 => Variant::snp(pos, dna::BASES[(next() % 4) as usize]),
                    1 => Variant::insertion(pos, vec![dna::BASES[(next() % 4) as usize]; 1 + (next() % 3) as usize]),
                    _ => Variant::deletion(pos, 1 + (next() % 2) as usize),
                };
                let end = v.ref_end().max(v.position + 1);
                variants.push(v);
                pos = end + 3 + (next() % 7) as usize;
            }
            // Two haplotypes with random allele picks.
            let haps: Vec<Vec<usize>> = (0..2)
                .map(|_| variants.iter().map(|_| (next() % 2) as usize).collect())
                .collect();
            let p = PangenomeBuilder::new(reference.clone())
                .variants(variants.clone())
                .haplotypes(haps.clone())
                .max_node_len(8)
                .build()
                .unwrap();
            for (h, alleles) in haps.iter().enumerate() {
                // Expected sequence: apply alleles left to right.
                let mut expect = Vec::new();
                let mut cursor = 0usize;
                for (v, &a) in variants.iter().zip(alleles) {
                    expect.extend_from_slice(&reference[cursor..v.position]);
                    if a == 0 {
                        expect.extend_from_slice(&reference[v.position..v.ref_end()]);
                    } else {
                        expect.extend_from_slice(&v.alt_alleles[a - 1]);
                    }
                    cursor = v.ref_end();
                }
                expect.extend_from_slice(&reference[cursor..]);
                prop_assert_eq!(p.paths()[h].sequence(p.graph()), expect);
            }
        }
    }
}
