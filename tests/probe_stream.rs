//! The simulated event stream, pinned: every `touch`, `instret` and
//! `branch` a probed mapping emits, in order, folded into one FNV-1a
//! digest per input and pipeline. The counter simulator (Table V, Figure 5)
//! consumes exactly this stream, so a change to the extension walk's visit
//! order, pruning, branch budget or per-base comparison — anything the
//! simulated counters would see — changes a digest here, while the GAF
//! oracles only see the outputs. A deliberate change to the stream
//! re-records the digests from the failure message, after a review of why
//! the stream moved.

use minigiraffe::core::{Mapper, MappingOptions};
use minigiraffe::gbwt::CachedGbwt;
use minigiraffe::parent::{Parent, ParentOptions};
use minigiraffe::support::probe::MemProbe;
use minigiraffe::workload::{InputSetSpec, SyntheticInput};

/// Folds every probe event, tagged by kind, into a 64-bit FNV-1a digest.
#[derive(Debug)]
struct DigestProbe {
    hash: u64,
    events: u64,
}

impl Default for DigestProbe {
    fn default() -> Self {
        DigestProbe { hash: 0xcbf2_9ce4_8422_2325, events: 0 }
    }
}

impl DigestProbe {
    fn fold(&mut self, tag: u8, value: u64) {
        self.events += 1;
        for byte in std::iter::once(tag).chain(value.to_le_bytes()) {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl MemProbe for DigestProbe {
    fn touch(&mut self, addr: u64, len: u32) {
        self.fold(1, addr);
        self.fold(2, u64::from(len));
    }

    fn instret(&mut self, n: u64) {
        self.fold(3, n);
    }

    fn branch(&mut self, taken: bool) {
        self.fold(4, u64::from(taken));
    }
}

/// The inputs: the single-end test set; B-yeast's pangenome with a few
/// hundred reads simulated as mate pairs; and 150 bp reads at 4 % errors on
/// the test graph, whose walks die of the mismatch budget mid-node.
fn inputs() -> Vec<(&'static str, SyntheticInput)> {
    let mut tiny = InputSetSpec::tiny_for_tests();
    tiny.reads = 300;
    let mut yeast = InputSetSpec::b_yeast().scaled(0.05);
    yeast.workflow = minigiraffe::core::types::Workflow::Paired;
    let mut noisy = InputSetSpec::tiny_for_tests();
    noisy.reads = 200;
    noisy.read_sim.read_len = 150;
    noisy.read_sim.error_rate = 0.04;
    vec![
        ("tiny", SyntheticInput::generate(&tiny, 42)),
        ("b-yeast-paired", SyntheticInput::generate(&yeast, 42)),
        ("noisy", SyntheticInput::generate(&noisy, 42)),
    ]
}

/// The proxy's stream: every dump read through `Mapper::map_read` on one
/// fresh cache.
fn proxy_stream(input: &SyntheticInput, options: &MappingOptions) -> DigestProbe {
    let mapper = Mapper::new(&input.gbz);
    let mut cache = CachedGbwt::new(input.gbz.gbwt(), options.cache_capacity);
    let mut probe = DigestProbe::default();
    for (id, read) in input.dump.reads.iter().enumerate() {
        mapper.map_read(&mut cache, id as u64, read, options, &mut probe);
    }
    probe
}

/// The parent's stream: seeding, kernels and post-processing of every
/// simulated read through `Parent::map_read_full` on one fresh cache.
fn parent_stream(input: &SyntheticInput) -> DigestProbe {
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let options = ParentOptions::default();
    let mut cache = CachedGbwt::new(input.gbz.gbwt(), options.mapping.cache_capacity);
    let mut probe = DigestProbe::default();
    for (id, read) in input.sim_reads.iter().enumerate() {
        parent.map_read_full(&mut cache, id as u64, &read.bases, &options, &mut probe);
    }
    probe
}

#[test]
fn probed_mapping_emits_the_pinned_event_stream() {
    // (input, pipeline) → (digest, events). The short branch budget makes
    // walks run it out, which the default budget of 64 never does here.
    const EXPECTED: &[(&str, &str, u64, u64)] = &[
        ("tiny", "proxy", 0xbb37d8beef5698ba, 136487),
        ("tiny", "parent", 0xe8f402dbb79f0d37, 137687),
        ("tiny", "proxy, 3 branch steps", 0xf36c66fcce0c4340, 177052),
        ("b-yeast-paired", "proxy", 0x52aea1d4f44f5684, 595626),
        ("b-yeast-paired", "parent", 0xd8c4199f3ec22e9e, 596826),
        ("b-yeast-paired", "proxy, 3 branch steps", 0x3c8e0cb95ac068ce, 597542),
        ("noisy", "proxy", 0x7eb6db8e0291d566, 1004571),
        ("noisy", "parent", 0xa5e0a3ce98c44315, 1005371),
        ("noisy", "proxy, 3 branch steps", 0x9fc2bbf572460351, 694643),
    ];
    let mut got = Vec::new();
    for (name, input) in inputs() {
        assert!(input.dump.reads.len() >= 200, "{name}: too few reads to pin anything");
        let mut short_budget = MappingOptions::default();
        short_budget.extend.max_branch_steps = 3;
        for (pipeline, probe) in [
            ("proxy", proxy_stream(&input, &MappingOptions::default())),
            ("parent", parent_stream(&input)),
            ("proxy, 3 branch steps", proxy_stream(&input, &short_budget)),
        ] {
            got.push((name, pipeline, probe.hash, probe.events));
        }
    }
    assert_eq!(got, EXPECTED, "the probed event stream moved");
}
