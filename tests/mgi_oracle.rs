//! Differential oracle for the `.mgi` container: a bundle roundtripped
//! through a real file and opened back must drive the parent pipeline to
//! the *byte-identical* GAF the freshly-built indexes produce — on every
//! golden workload. The loaded structures are not "equivalent"; they are
//! the same arrays read back, and this test pins that all the way to the
//! interchange format (and to the committed golden snapshots when present).

use std::path::PathBuf;

use minigiraffe::core::MgiBundle;
use minigiraffe::index::DistanceIndex;
use minigiraffe::parent::{run_to_gaf, Parent, ParentOptions};
use minigiraffe::workload::{InputSetSpec, SyntheticInput};

/// Same seeded workloads as `tests/oracle.rs`.
fn workloads() -> Vec<(String, SyntheticInput)> {
    let mut out = Vec::new();
    for seed in [11u64, 23, 47] {
        out.push((
            format!("tiny-{seed}"),
            SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), seed),
        ));
    }
    let mut dense = InputSetSpec::tiny_for_tests();
    dense.read_sim.error_rate = 0.03;
    out.push(("dense-29".to_string(), SyntheticInput::generate(&dense, 29)));
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/oracle_{name}.gaf"))
}

/// Runs the parent over `reads` with the given backing and renders GAF.
fn gaf_of(parent: &Parent<'_>, reads: &[Vec<u8>], graph: &minigiraffe::graph::VariationGraph, name: &str) -> String {
    let run = parent.run(reads, &ParentOptions::default());
    run_to_gaf(graph, &run, name)
}

#[test]
fn mapped_bundle_reproduces_parent_gaf_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("mgi-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, input) in workloads() {
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();

        // Owned baseline: the indexes exactly as the generator built them.
        let owned_parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let expected = gaf_of(&owned_parent, &reads, input.gbz.graph(), &name);
        assert!(!expected.is_empty(), "{name}: parent emitted no alignments");

        // Persist those same indexes and open them back.
        let bundle = MgiBundle::from_parts(
            input.gbz.clone(),
            input.minimizer_index.clone(),
            DistanceIndex::build(input.gbz.graph()),
        );
        let path = dir.join(format!("{name}.mgi"));
        bundle.save(&path).unwrap();
        let mapped = MgiBundle::open(&path).unwrap();
        assert_eq!(bundle, mapped, "{name}: loaded bundle differs structurally");
        mapped.gbz().gbwt().validate_records().unwrap();

        let mapped_parent = Parent::with_distance(
            mapped.gbz(),
            mapped.minimizer(),
            mapped.distance().clone(),
            input.spec.workflow,
        );
        let got = gaf_of(&mapped_parent, &reads, mapped.gbz().graph(), &name);
        // Reverse-strand reads walk the reverse-complement arena that
        // `open()` derives from the stored forward one.
        assert!(
            got.lines().any(|l| l.split('\t').nth(4) == Some("-")),
            "{name}: no reverse-strand alignment through the mapped bundle"
        );
        assert_eq!(
            got, expected,
            "{name}: GAF from the mapped bundle diverged from the owned pipeline"
        );

        // And against the committed snapshot, when one exists: the mapped
        // path must not be merely self-consistent but pinned to history.
        if let Ok(golden) = std::fs::read_to_string(golden_path(&name)) {
            assert_eq!(
                got, golden,
                "{name}: mapped-bundle GAF drifted from the golden snapshot"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_bytes_agrees_with_checked_open() {
    let (name, input) = workloads().swap_remove(0);
    let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
    let bundle = MgiBundle::from_parts(
        input.gbz.clone(),
        input.minimizer_index.clone(),
        DistanceIndex::build(input.gbz.graph()),
    );
    let image = bundle.to_bytes();

    let from_bytes = MgiBundle::open_bytes(image.clone()).unwrap();
    assert_eq!(bundle, from_bytes);

    let dir = std::env::temp_dir().join(format!("mgi-oracle-open-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.mgi");
    std::fs::write(&path, &image).unwrap();
    let checked = MgiBundle::open(&path).unwrap();
    assert_eq!(bundle, checked);

    // Both loads answer the pipeline identically.
    let mut gafs = Vec::new();
    for b in [&from_bytes, &checked] {
        let parent = Parent::with_distance(
            b.gbz(),
            b.minimizer(),
            b.distance().clone(),
            input.spec.workflow,
        );
        gafs.push(gaf_of(&parent, &reads, b.gbz().graph(), &name));
    }
    assert!(!gafs[0].is_empty());
    assert_eq!(gafs[0], gafs[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}
