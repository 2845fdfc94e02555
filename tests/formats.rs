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
    assert_eq!(lens, [16128, 94144, 4864]);
    assert_eq!(sums, [0x4aa9_8f1e_5f99_b495, 0x5920_2963_058e_4dcc, 0x55ed_9f1f_477b_802b]);
}

/// The `.mgz` and `.mgi` bytes of the four paper shapes at seed 42 are
/// pinned (B-yeast, C-HPRC and D-HPRC are the graphs the benchmark maps):
/// the graph writer, the pangenome builder, the minimizer build and the
/// chain decomposition must reproduce them to the byte. The read count is cut to four because only the indexes are
/// pinned.
#[test]
fn benchmark_shape_images_have_pinned_checksums() {
    use minigiraffe::support::mgi::checksum;
    let pinned = [
        (InputSetSpec::a_human(), [691_520, 2_950_400], [0xc4db_0d60_8399_43a3, 0xc13e_4c86_76d4_76cb]),
        (InputSetSpec::b_yeast(), [114_816, 560_960], [0x30ad_8216_2d0e_469d, 0xd2e1_88a8_0736_1d50]),
        (InputSetSpec::c_hprc(), [381_440, 1_737_728], [0x9adb_7dcf_0975_36a3, 0x1e0b_669e_5e23_68f4]),
        (InputSetSpec::d_hprc(), [511_104, 2_261_120], [0xc386_a44c_5687_888d, 0xd6fd_f93a_bd52_cad6]),
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

/// Every section of an image, as `(tag, len, checksum)` rows in file
/// order.
fn section_rows(image: Vec<u8>) -> Vec<(u32, usize, u64)> {
    use minigiraffe::support::mgi::{checksum, MgiFile};
    let mut file = MgiFile::open_bytes(image).unwrap();
    let tags: Vec<u32> = file.tags().collect();
    tags.into_iter()
        .map(|tag| {
            let bytes = file.section(tag).unwrap();
            (tag, bytes.len(), checksum(&bytes))
        })
        .collect()
}

/// Each section of the pinned images is pinned on its own, so a format
/// change that drops or moves a section shows which one, and that the
/// others kept every byte. An `.mgi` holds its `.mgz`'s sections first,
/// then the minimizer and distance sections.
#[test]
fn every_section_of_the_pinned_images_is_pinned() {
    type Rows = &'static [(u32, usize, u64)];
    let tiny_mgz: Rows = &[
        (0x0100, 24, 0xa9e8aa795cc0b32d),
        (0x0101, 3046, 0x9181e3d0a5510949),
        (0x0103, 1424, 0x3ea48cf7b85f2e07),
        (0x0104, 2840, 0x9994991ef5ad3686),
        (0x0105, 2880, 0xd491429a010779e1),
        (0x0400, 40, 0x9aea3b8e23a8e816),
        (0x0401, 2346, 0xa37f15e7b3e759ff),
        (0x0402, 2840, 0x0ac8c444dcf0db03),
        (0x0403, 16, 0x07fe277ce741e9f7),
    ];
    let tiny_index: Rows = &[
        (0x0200, 32, 0xfe0475957d478e4c),
        (0x0204, 69920, 0x3cefb270128a76fb),
        (0x0203, 16, 0x0e2ad1a748c23819),
        (0x0300, 16, 0xc54d866b4ebf57d9),
        (0x0305, 5664, 0xe71e1109e4aff310),
        (0x0316, 144, 0x274b87d1b8c5d072),
        (0x0317, 568, 0xf071ffa5fc89f293),
        (0x0318, 1136, 0x72729288646f9a91),
    ];
    let tiny_bin: Rows = &[(0x0500, 2, 0x2a0917c663a27ede), (0x0501, 4641, 0xb7e2343c2d2c353a)];
    let human_mgz: Rows = &[
        (0x0100, 24, 0x8b8a7d66e1c5ba6f),
        (0x0101, 122756, 0x810ce0d6f5902782),
        (0x0103, 56880, 0x53494d18ac200698),
        (0x0104, 113752, 0xd5362d9e2d3ba466),
        (0x0105, 142128, 0xceea01f8512f5c23),
        (0x0400, 40, 0x1cb24f17e178252c),
        (0x0401, 141446, 0x395e03d5e1f6f18b),
        (0x0402, 113752, 0xb72dc45bf04e5fc3),
        (0x0403, 56, 0xb1b3177e034ed060),
    ];
    let human_index: Rows = &[
        (0x0200, 32, 0x73824f18ed044755),
        (0x0204, 1956672, 0x9505f449fae10b6d),
        (0x0203, 33264, 0xcd50d0e8dcb82e62),
        (0x0300, 16, 0xc1eb8cf3cf395309),
        (0x0305, 227488, 0xc1c09a7e179f291e),
        (0x0316, 2776, 0xdafcb52e303f4131),
        (0x0317, 12736, 0x9294a9e8d9a9a462),
        (0x0318, 25472, 0xd59aac9876f9b883),
    ];
    let yeast_mgz: Rows = &[
        (0x0100, 24, 0x6df849760aed2388),
        (0x0101, 30455, 0x25edd0309c79d9bf),
        (0x0103, 9128, 0x21ad76ba6e96d019),
        (0x0104, 18248, 0xed8d3d79df4caca0),
        (0x0105, 20752, 0xbf06adb7324063e0),
        (0x0400, 40, 0x2c6c49158a507856),
        (0x0401, 17195, 0x5700af7754d3a8b1),
        (0x0402, 18248, 0x17ca55bba341ec82),
        (0x0403, 24, 0x02e2caa59e4c16be),
    ];
    let yeast_index: Rows = &[
        (0x0200, 32, 0xeb49fa0fa333b6a7),
        (0x0204, 395840, 0xb5e20e1d4b040251),
        (0x0203, 4816, 0x47e90a4b477ac52c),
        (0x0300, 16, 0xab9034e1caf4a397),
        (0x0305, 36480, 0x324aedfa941d11ca),
        (0x0316, 936, 0x51e4163175d91cdf),
        (0x0317, 2508, 0x7457e2e5522f119a),
        (0x0318, 5016, 0x4f9f4cfead6e16b2),
    ];
    let chprc_mgz: Rows = &[
        (0x0100, 24, 0xafd348bc666fb468),
        (0x0101, 81535, 0x58551a8e44229acf),
        (0x0103, 30928, 0xa02c8c0d19c703f2),
        (0x0104, 61848, 0x51bbe2715cc81eb5),
        (0x0105, 76000, 0xfc65760dd244c88c),
        (0x0400, 40, 0xa927160f5e2ce494),
        (0x0401, 68530, 0x03d18036fc7786d4),
        (0x0402, 61848, 0xd4130f3dfc6b8200),
        (0x0403, 40, 0x843411d13b89af4d),
    ];
    let chprc_index: Rows = &[
        (0x0200, 32, 0xc15b66e7f851b029),
        (0x0204, 1189984, 0xfdc29018552c586f),
        (0x0203, 18608, 0xf16b886211dd8512),
        (0x0300, 16, 0x72a78c3643970b98),
        (0x0305, 123680, 0xd5b2a98bfb01ac03),
        (0x0316, 1816, 0x8f966cfa95cc35a9),
        (0x0317, 7212, 0x8ecda99985df0c95),
        (0x0318, 14424, 0xa3b38f0e40fdb672),
    ];
    let hprc_mgz: Rows = &[
        (0x0100, 24, 0xdedee0ad399c12e1),
        (0x0101, 102086, 0x2870cef3bd7de226),
        (0x0103, 42424, 0xe0fec1afd497c1af),
        (0x0104, 84840, 0xf977982b44f36273),
        (0x0105, 103040, 0xfe67b7b9db10f099),
        (0x0400, 40, 0x746ac1840aa556ff),
        (0x0401, 93175, 0xfc2824d72fd08c63),
        (0x0402, 84840, 0x04d167a651bf1e05),
        (0x0403, 40, 0xe9f30f0cad39357e),
    ];
    let hprc_index: Rows = &[
        (0x0200, 32, 0x30ff23c8f177ec8f),
        (0x0204, 1523264, 0xbc4aa9e7cd2ac3e4),
        (0x0203, 23168, 0x9a90d0b3ea182f3c),
        (0x0300, 16, 0x3c23b53dbcf7e768),
        (0x0305, 169664, 0x1a01d091e3385aaf),
        (0x0316, 2792, 0xe6374203bb5658a6),
        (0x0317, 10232, 0x023aef38f393111e),
        (0x0318, 20464, 0x7ebc5583c437ed30),
    ];

    let shape = |spec| SyntheticInput::generate(&InputSetSpec { reads: 4, ..spec }, 42);
    let tiny = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 5);
    assert_eq!(section_rows(tiny.dump.to_bytes().unwrap()), tiny_bin, "tiny.bin");
    let shapes = [
        (tiny, tiny_mgz, tiny_index),
        (shape(InputSetSpec::a_human()), human_mgz, human_index),
        (shape(InputSetSpec::b_yeast()), yeast_mgz, yeast_index),
        (shape(InputSetSpec::c_hprc()), chprc_mgz, chprc_index),
        (shape(InputSetSpec::d_hprc()), hprc_mgz, hprc_index),
    ];
    for (input, mgz, index) in shapes {
        let name = input.spec.name;
        assert_eq!(section_rows(input.gbz.to_bytes().unwrap()), mgz, "{name}.mgz");
        let mgi = MgiBundle::build(input.gbz.clone(), input.spec.minimizer).unwrap().to_bytes();
        assert_eq!(section_rows(mgi), [mgz, index].concat(), "{name}.mgi");
    }
}
