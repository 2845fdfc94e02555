//! Integration tests of the interchange formats: FASTQ, GAF, `.mgz`,
//! `.mgi`, and seed dumps, exercised across crate boundaries.

use minigiraffe::core::{MgiBundle, SeedDump};
use minigiraffe::gbwt::Gbz;
use minigiraffe::parent::{run_to_gaf, Parent, ParentOptions};
use minigiraffe::workload::fastq::{load_read_bases, save_reads_fastq};
use minigiraffe::workload::{InputSetSpec, SyntheticInput};

#[test]
fn fastq_to_gaf_pipeline_via_files() {
    let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 3);
    let dir = std::env::temp_dir().join(format!("mg-fmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fq = dir.join("reads.fastq");
    save_reads_fastq(&fq, &input.sim_reads, "t").unwrap();
    let reads = load_read_bases(&fq).unwrap();
    assert_eq!(reads.len(), input.sim_reads.len());

    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let run = parent.run(&reads, &ParentOptions::default());
    let gaf = run_to_gaf(input.gbz.graph(), &run, "t");
    assert_eq!(gaf.lines().count(), run.total_alignments());
    // GAF read names index into the FASTQ order.
    for line in gaf.lines().take(5) {
        let name = line.split('\t').next().unwrap();
        let idx: usize = name.strip_prefix("t.").unwrap().parse().unwrap();
        assert!(idx < reads.len());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn all_binary_formats_reject_cross_loading() {
    // Loading one format's file as another must fail cleanly (distinct
    // container kinds), never misparse.
    let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 5);
    let dir = std::env::temp_dir().join(format!("mg-kinds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gbz_path = dir.join("x.mgz");
    let dump_path = dir.join("x.bin");
    let mgi_path = dir.join("x.mgi");
    input.gbz.save(&gbz_path).unwrap();
    input.dump.save(&dump_path).unwrap();
    MgiBundle::build(input.gbz.clone(), input.spec.minimizer)
        .unwrap()
        .save(&mgi_path)
        .unwrap();

    assert!(Gbz::load(&dump_path).is_err());
    assert!(Gbz::load(&mgi_path).is_err());
    assert!(SeedDump::load(&gbz_path).is_err());
    assert!(SeedDump::load(&mgi_path).is_err());
    assert!(MgiBundle::open(&gbz_path).is_err());
    assert!(MgiBundle::open(&dump_path).is_err());
    // And each loads as itself.
    assert!(Gbz::load(&gbz_path).is_ok());
    assert!(SeedDump::load(&dump_path).is_ok());
    assert!(MgiBundle::open(&mgi_path).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The writers' bytes are pinned: the container sum of one tiny `.mgz`,
/// `.mgi` and `.bin` image, so a reader change that reaches the writer
/// shows here.
#[test]
fn tiny_images_have_pinned_checksums() {
    use minigiraffe::support::mgi::checksum;
    let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 5);
    let mgz = input.gbz.to_bytes().unwrap();
    let mgi = MgiBundle::build(input.gbz.clone(), input.spec.minimizer).unwrap().to_bytes();
    let bin = input.dump.to_bytes().unwrap();
    let sums = [checksum(&mgz), checksum(&mgi), checksum(&bin)];
    let lens = [mgz.len(), mgi.len(), bin.len()];
    assert_eq!(lens, [16192, 94208, 4864]);
    assert_eq!(sums, [0x5c14_1c5d_56d2_2377, 0xd0fb_023e_ec8a_dfa6, 0x9aa0_9a03_462d_050f]);
}

/// The `.mgz` and `.mgi` bytes of the graph shapes the benchmark maps,
/// B-yeast and D-HPRC at seed 42, are pinned: the graph writer, the
/// pangenome builder and the chain decomposition must reproduce them to
/// the byte. The read count is cut to four because only the indexes are
/// pinned.
#[test]
fn benchmark_shape_images_have_pinned_checksums() {
    use minigiraffe::support::mgi::checksum;
    let pinned = [
        (InputSetSpec::b_yeast(), [114_944, 561_088], [0x710e_f673_c771_1055, 0x7d79_69f8_7ed6_0902]),
        (InputSetSpec::d_hprc(), [511_360, 2_261_376], [0x4c84_3499_2050_75e2, 0x5682_0462_17b8_24e7]),
    ];
    for (spec, lens, sums) in pinned {
        let spec = InputSetSpec { reads: 4, ..spec };
        let input = SyntheticInput::generate(&spec, 42);
        let mgz = input.gbz.to_bytes().unwrap();
        let mgi = MgiBundle::build(input.gbz.clone(), input.spec.minimizer).unwrap().to_bytes();
        assert_eq!([mgz.len(), mgi.len()], lens, "{}", spec.name);
        assert_eq!([checksum(&mgz), checksum(&mgi)], sums, "{}", spec.name);
    }
}
