//! The paper's four input sets, scaled to laptop size.
//!
//! Table III combines short-read sets with pangenome references:
//!
//! | set     | workflow | reads  | pangenome            |
//! |---------|----------|--------|----------------------|
//! | A-human | single   | 1.0 M  | 1000GPlons (18 GB)   |
//! | B-yeast | single   | 24.5 M | yeast_all (0.1 GB)   |
//! | C-HPRC  | paired   | 8.0 M  | hprc-v1.1 GRCh38     |
//! | D-HPRC  | paired   | 71.1 M | hprc-v1.0 CHM13      |
//!
//! We keep the *relative* shape — A has the biggest graph but fewest reads,
//! B a tiny graph with many reads, C and D paired workflows with D by far
//! the largest read count — at roughly 1/4000 of the read counts and
//! laptop-sized graphs.

use mg_core::dump::SeedDump;
use mg_core::mgi::build_minimizer_index;
use mg_core::types::{ReadInput, Seed, Workflow};
use mg_gbwt::Gbz;
use mg_graph::pangenome::PangenomeBuilder;
use mg_index::{MinimizerIndex, MinimizerParams};
use mg_support::Result;

use crate::genome::{random_genome, random_panel, random_variants, GenomeParams, VariantParams};
use crate::reads::{simulate_paired, simulate_single, ReadSimParams, SimulatedRead};

/// Full description of a synthetic input set.
#[derive(Debug, Clone, PartialEq)]
pub struct InputSetSpec {
    /// Short name ("A-human", ...).
    pub name: &'static str,
    /// Single- or paired-end workflow.
    pub workflow: Workflow,
    /// Reference genome parameters.
    pub genome: GenomeParams,
    /// Variant model.
    pub variants: VariantParams,
    /// Number of haplotypes in the panel.
    pub haplotypes: usize,
    /// Number of reads (for paired workflows this counts reads, and must be
    /// even: `reads / 2` fragments are simulated).
    pub reads: usize,
    /// Read simulator parameters.
    pub read_sim: ReadSimParams,
    /// Minimizer scheme used to produce seeds.
    pub minimizer: MinimizerParams,
    /// Seeds with more hits than this are dropped (repeat filter).
    pub hard_hit_cap: usize,
    /// Maximum node length of the constructed graph. Giraffe's GBZ caps
    /// nodes at 1024 bases, so real graphs carry long unary runs between
    /// variant sites; the paper sets use that cap (node lengths are then
    /// bounded by variant spacing), while the tiny test set keeps the
    /// vg-chop 32 so every span fits one packed word and golden snapshots
    /// stay put.
    pub max_node_len: usize,
}

impl InputSetSpec {
    /// Input set A-human: biggest graph, fewest reads, single-end.
    pub fn a_human() -> Self {
        InputSetSpec {
            name: "A-human",
            workflow: Workflow::Single,
            genome: GenomeParams { len: 120_000, repeat_fraction: 0.06, repeat_len: 400 },
            variants: VariantParams { mean_spacing: 90, ..Default::default() },
            haplotypes: 24,
            reads: 250,
            read_sim: ReadSimParams { read_len: 148, ..Default::default() },
            minimizer: MinimizerParams::new(29, 11),
            hard_hit_cap: 64,
            max_node_len: 1024,
        }
    }

    /// Input set B-yeast: small graph, many reads, single-end.
    pub fn b_yeast() -> Self {
        InputSetSpec {
            name: "B-yeast",
            workflow: Workflow::Single,
            genome: GenomeParams { len: 30_000, repeat_fraction: 0.04, repeat_len: 250 },
            variants: VariantParams { mean_spacing: 150, ..Default::default() },
            haplotypes: 8,
            reads: 6_000,
            read_sim: ReadSimParams { read_len: 150, ..Default::default() },
            minimizer: MinimizerParams::new(29, 11),
            hard_hit_cap: 64,
            max_node_len: 1024,
        }
    }

    /// Input set C-HPRC: medium graph, paired-end.
    pub fn c_hprc() -> Self {
        InputSetSpec {
            name: "C-HPRC",
            workflow: Workflow::Paired,
            genome: GenomeParams { len: 80_000, repeat_fraction: 0.05, repeat_len: 350 },
            variants: VariantParams { mean_spacing: 110, ..Default::default() },
            haplotypes: 16,
            reads: 2_000,
            read_sim: ReadSimParams { read_len: 148, ..Default::default() },
            minimizer: MinimizerParams::new(29, 11),
            hard_hit_cap: 64,
            max_node_len: 1024,
        }
    }

    /// Input set D-HPRC: the largest read count, paired-end.
    pub fn d_hprc() -> Self {
        InputSetSpec {
            name: "D-HPRC",
            workflow: Workflow::Paired,
            genome: GenomeParams { len: 100_000, repeat_fraction: 0.05, repeat_len: 350 },
            variants: VariantParams { mean_spacing: 100, ..Default::default() },
            haplotypes: 16,
            reads: 18_000,
            read_sim: ReadSimParams { read_len: 148, ..Default::default() },
            minimizer: MinimizerParams::new(29, 11),
            hard_hit_cap: 64,
            max_node_len: 1024,
        }
    }

    /// All four paper input sets, in Table III order.
    pub fn all() -> Vec<InputSetSpec> {
        vec![
            Self::a_human(),
            Self::b_yeast(),
            Self::c_hprc(),
            Self::d_hprc(),
        ]
    }

    /// A tiny spec for unit tests and doc examples (fractions of a second).
    pub fn tiny_for_tests() -> Self {
        InputSetSpec {
            name: "tiny",
            workflow: Workflow::Single,
            genome: GenomeParams { len: 3_000, repeat_fraction: 0.0, repeat_len: 100 },
            variants: VariantParams { mean_spacing: 150, ..Default::default() },
            haplotypes: 4,
            reads: 40,
            read_sim: ReadSimParams { read_len: 60, error_rate: 0.001, ..Default::default() },
            minimizer: MinimizerParams::new(15, 5),
            hard_hit_cap: 128,
            max_node_len: 32,
        }
    }

    /// Scales the read count by `factor`, leaving the pangenome unchanged
    /// (autotuning uses 0.1-ish subsampling; benches use small factors for
    /// quick runs).
    ///
    /// # Panics
    ///
    /// Panics unless `factor > 0`.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.reads = ((self.reads as f64 * factor).round() as usize).max(2);
        if self.workflow == Workflow::Paired {
            self.reads = self.reads.next_multiple_of(2);
        }
        self
    }
}

/// A fully generated input: pangenome, seed dump, and provenance.
#[derive(Debug, Clone)]
pub struct SyntheticInput {
    /// The spec this was generated from.
    pub spec: InputSetSpec,
    /// The pangenome reference (graph + GBWT).
    pub gbz: Gbz,
    /// The proxy input: reads + seeds.
    pub dump: SeedDump,
    /// Raw simulated reads with provenance (for the parent pipeline and
    /// analyses).
    pub sim_reads: Vec<SimulatedRead>,
    /// The minimizer index used for seeding (the parent pipeline reuses it).
    pub minimizer_index: MinimizerIndex,
}

impl SyntheticInput {
    /// Generates the complete input set deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is internally inconsistent (e.g. reads longer
    /// than every haplotype).
    pub fn generate(spec: &InputSetSpec, seed: u64) -> Self {
        Self::try_generate(spec, seed).expect("spec produces a valid pangenome")
    }

    /// Fallible version of [`SyntheticInput::generate`].
    ///
    /// # Errors
    ///
    /// Returns construction errors from the pangenome builder, the GBWT or
    /// the minimizer build.
    pub fn try_generate(spec: &InputSetSpec, seed: u64) -> Result<Self> {
        let reference = random_genome(&spec.genome, seed);
        let variants = random_variants(&reference, &spec.variants, seed);
        let panel = random_panel(spec.haplotypes, &variants, seed);
        let pangenome = PangenomeBuilder::new(reference)
            .variants(variants)
            .haplotypes(panel)
            .max_node_len(spec.max_node_len)
            .build()?;
        let hap_seqs: Vec<Vec<u8>> = pangenome
            .paths()
            .iter()
            .map(|p| p.sequence(pangenome.graph()))
            .collect();
        let gbz = Gbz::from_pangenome(pangenome)?;
        let minimizer_index = build_minimizer_index(&gbz, spec.minimizer)?;

        let sim_reads = match spec.workflow {
            Workflow::Single => simulate_single(&hap_seqs, spec.reads, &spec.read_sim, seed),
            Workflow::Paired => {
                simulate_paired(&hap_seqs, spec.reads / 2, &spec.read_sim, seed)
            }
        };
        let reads = sim_reads
            .iter()
            .map(|r| {
                let seeds = minimizer_index
                    .query(&r.bases, spec.hard_hit_cap)
                    .into_iter()
                    .map(|(off, pos)| Seed::new(off, pos))
                    .collect();
                ReadInput { bases: r.bases.clone(), seeds }
            })
            .collect();
        Ok(SyntheticInput {
            spec: spec.clone(),
            gbz,
            dump: SeedDump::new(spec.workflow, reads),
            sim_reads,
            minimizer_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_core::{run_mapping, MappingOptions};

    #[test]
    fn tiny_input_generates_and_maps() {
        let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 42);
        assert_eq!(input.dump.reads.len(), 40);
        assert!(input.dump.total_seeds() > 0, "reads must have seeds");
        let results = run_mapping(&input.dump, &input.gbz, &MappingOptions::default());
        // Most low-error reads map with a near-full-length extension.
        let good = results
            .per_read
            .iter()
            .filter(|r| r.best_score().unwrap_or(0) >= 40)
            .count();
        assert!(
            good * 10 >= results.per_read.len() * 7,
            "only {good}/{} reads mapped well",
            results.per_read.len()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = InputSetSpec::tiny_for_tests();
        let a = SyntheticInput::generate(&spec, 7);
        let b = SyntheticInput::generate(&spec, 7);
        assert_eq!(a.dump, b.dump);
        assert_eq!(a.gbz, b.gbz);
        let c = SyntheticInput::generate(&spec, 8);
        assert_ne!(a.dump, c.dump);
    }

    #[test]
    fn paired_spec_produces_even_reads() {
        let mut spec = InputSetSpec::tiny_for_tests();
        spec.workflow = Workflow::Paired;
        spec.reads = 10;
        spec.read_sim.fragment_len = 200;
        spec.read_sim.fragment_jitter = 20;
        let input = SyntheticInput::generate(&spec, 1);
        assert_eq!(input.dump.reads.len(), 10);
        assert_eq!(input.dump.workflow, Workflow::Paired);
    }

    #[test]
    fn all_specs_have_distinct_shapes() {
        let specs = InputSetSpec::all();
        assert_eq!(specs.len(), 4);
        // A has the largest genome, D the most reads, B the smallest genome.
        let a = &specs[0];
        let b = &specs[1];
        let d = &specs[3];
        assert!(a.genome.len > b.genome.len);
        assert!(d.reads > a.reads);
        assert!(d.reads > b.reads);
        assert_eq!(a.workflow, Workflow::Single);
        assert_eq!(d.workflow, Workflow::Paired);
    }

    #[test]
    fn scaled_preserves_pairing() {
        let spec = InputSetSpec::c_hprc().scaled(0.01);
        assert_eq!(spec.reads % 2, 0);
        assert!(spec.reads >= 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero() {
        let _ = InputSetSpec::tiny_for_tests().scaled(0.0);
    }
}
