//! End-to-end tests of the `minigiraffe` command-line application: the
//! complete toolchain generate → parent → map → validate, driven through
//! the real binary.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use minigiraffe::obs::Stage;

fn binary() -> PathBuf {
    // Integration tests live next to the binary under target/<profile>/.
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.join("minigiraffe")
}

fn run(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(binary())
        .args(args)
        .output()
        .expect("spawn minigiraffe");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mg-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn full_toolchain_generate_parent_map_validate() {
    let dir = TempDir::new("chain");
    // generate
    let (ok, stdout, stderr) = run(&[
        "generate", "--input-set", "tiny", "--seed", "9", "--out", &dir.path(""),
    ]);
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("tiny.mgz"));
    assert!(stdout.contains("tiny.fastq"));

    // info on both artifacts
    let (ok, stdout, _) = run(&["info", &dir.path("tiny.mgz")]);
    assert!(ok);
    assert!(stdout.contains("haplotypes:   4"));
    let (ok, stdout, _) = run(&["info", &dir.path("tiny.bin")]);
    assert!(ok);
    assert!(stdout.contains("reads:        40"));

    // parent: FASTQ -> GAF + exported dump
    let (ok, stdout, stderr) = run(&[
        "parent",
        &dir.path("tiny.fastq"),
        &dir.path("tiny.mgz"),
        "--gaf",
        &dir.path("out.gaf"),
        "--dump",
        &dir.path("exported.bin"),
    ]);
    assert!(ok, "parent failed: {stderr}");
    assert!(stdout.contains("aligned 40/40"), "{stdout}");
    let gaf = std::fs::read_to_string(dir.path("out.gaf")).unwrap();
    assert!(gaf.lines().count() >= 40);
    assert!(gaf.contains("AS:i:"));

    // Without --dump the same command streams, in batches of 512 reads or
    // of --stream: one command, one GAF, whichever emitter wrote it.
    let (fastq, mgz) = (dir.path("tiny.fastq"), dir.path("tiny.mgz"));
    let streamed = dir.path("streamed.gaf");
    for stream in [&[][..], &["--stream", "7"][..]] {
        let mut args = vec!["parent", &fastq, &mgz, "--gaf", &streamed];
        args.extend(stream);
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "parent {stream:?} failed: {stderr}");
        assert!(stdout.contains("mapped 40 reads"), "{stdout}");
        assert_eq!(std::fs::read_to_string(&streamed).unwrap(), gaf, "parent {stream:?}");
    }
    let (ok, _, stderr) = run(&[
        "parent", &dir.path("tiny.fastq"), &dir.path("tiny.mgz"), "--dump", &dir.path("x.bin"),
        "--stream", "7",
    ]);
    assert!(!ok && stderr.contains("--dump"), "--dump with --stream must be refused: {stderr}");

    // proxy map on the exported dump, writing results
    let (ok, stdout, stderr) = run(&[
        "map",
        &dir.path("exported.bin"),
        &dir.path("tiny.mgz"),
        "--threads",
        "2",
        "--out",
        &dir.path("results.csv"),
    ]);
    assert!(ok, "map failed: {stderr}");
    assert!(stdout.contains("mapped 100.00%"), "{stdout}");

    // validate against its own output: exact match, exit 0
    let (ok, stdout, _) = run(&[
        "validate",
        &dir.path("exported.bin"),
        &dir.path("tiny.mgz"),
        &dir.path("results.csv"),
    ]);
    assert!(ok);
    assert!(stdout.contains("PASS: 100% match"));

    // validate with a different scheduler still matches (results are
    // parameter-invariant)
    let (ok, stdout, _) = run(&[
        "validate",
        &dir.path("exported.bin"),
        &dir.path("tiny.mgz"),
        &dir.path("results.csv"),
        "--scheduler",
        "ws",
        "--threads",
        "3",
        "--capacity",
        "0",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("PASS"));
}

#[test]
fn map_instrument_writes_a_stage_timeline() {
    let dir = TempDir::new("instrument");
    let (ok, _, stderr) = run(&[
        "generate", "--input-set", "tiny", "--seed", "9", "--out", &dir.path(""),
    ]);
    assert!(ok, "generate failed: {stderr}");
    let timeline = dir.path("timeline.csv");
    let (ok, stdout, stderr) = run(&[
        "map",
        &dir.path("tiny.bin"),
        &dir.path("tiny.mgz"),
        "--threads",
        "2",
        "--instrument",
        &timeline,
    ]);
    assert!(ok, "map --instrument failed: {stderr}");
    assert!(stdout.contains("mapped 100.00%"), "{stdout}");
    let csv = std::fs::read_to_string(&timeline).unwrap();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("thread,region,start_us,end_us"));
    let mut rows = std::collections::HashMap::<&str, usize>::new();
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        let [thread, label, start, end] = fields[..] else {
            panic!("not four fields: {line}");
        };
        assert!(
            Stage::ALL.iter().any(|s| s.name() == label),
            "{label} is not a stage name: {line}"
        );
        assert!(thread.parse::<usize>().unwrap() < 2, "{line}");
        assert!(start.parse::<u64>().unwrap() <= end.parse::<u64>().unwrap(), "{line}");
        *rows.entry(label).or_default() += 1;
    }
    assert!(rows.get("clustering").is_some_and(|&n| n >= 1), "no clustering row: {rows:?}");
    assert!(rows.get("extension").is_some_and(|&n| n >= 1), "no extension row: {rows:?}");
}

/// Runs the binary with `stdout` as its standard output; returns its exit
/// code and stderr.
fn run_into(args: &[&str], stdout: impl Into<Stdio>) -> (Option<i32>, String) {
    let output = Command::new(binary())
        .args(args)
        .stdout(stdout)
        .output()
        .expect("spawn minigiraffe");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn a_closed_stdout_pipe_ends_the_output_quietly() {
    let dir = TempDir::new("epipe");
    let (ok, _, stderr) = run(&[
        "generate", "--input-set", "tiny", "--seed", "9", "--out", &dir.path(""),
    ]);
    assert!(ok, "generate failed: {stderr}");
    let closed = || {
        // The reader is gone before the child starts: its first write
        // fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        writer
    };
    let (code, stderr) = run_into(&["info", &dir.path("tiny.mgz")], closed());
    assert_eq!((code, stderr.as_str()), (Some(0), ""));
    // The work is done whatever became of stdout.
    let csv = dir.path("out.csv");
    let (code, stderr) =
        run_into(&["map", &dir.path("tiny.bin"), &dir.path("tiny.mgz"), "--out", &csv], closed());
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("error") && !stderr.contains("panicked"), "{stderr}");
    assert!(std::fs::read_to_string(&csv).unwrap().starts_with("read_id,"));
}

#[test]
fn a_full_stdout_is_an_error_not_a_panic() {
    let dir = TempDir::new("enospc");
    let (ok, _, stderr) = run(&[
        "generate", "--input-set", "tiny", "--seed", "9", "--out", &dir.path(""),
    ]);
    assert!(ok, "generate failed: {stderr}");
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("/dev/full");
    let (code, stderr) = run_into(&["info", &dir.path("tiny.mgz")], full);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("error: writing to stdout: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn validate_detects_tampered_expectations() {
    let dir = TempDir::new("tamper");
    let (ok, _, _) = run(&[
        "generate", "--input-set", "tiny", "--out", &dir.path(""),
    ]);
    assert!(ok);
    let (ok, _, _) = run(&[
        "map",
        &dir.path("tiny.bin"),
        &dir.path("tiny.mgz"),
        "--out",
        &dir.path("results.csv"),
    ]);
    assert!(ok);
    // Tamper with one expected row's score.
    let csv = std::fs::read_to_string(dir.path("results.csv")).unwrap();
    let mut lines: Vec<String> = csv.lines().map(String::from).collect();
    let last = lines.last_mut().unwrap();
    *last = last.rsplit_once(',').map(|(head, _)| format!("{head},999")).unwrap();
    std::fs::write(dir.path("tampered.csv"), lines.join("\n") + "\n").unwrap();
    let (ok, stdout, stderr) = run(&[
        "validate",
        &dir.path("tiny.bin"),
        &dir.path("tiny.mgz"),
        &dir.path("tampered.csv"),
    ]);
    assert!(!ok, "tampered expectations must fail validation");
    assert!(stdout.contains("missing 1, extra 1") || stderr.contains("differ"), "{stdout}{stderr}");
}

#[test]
fn validate_counts_a_duplicated_expected_row() {
    let dir = TempDir::new("duplicate");
    let (ok, _, stderr) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (dump, mgz, results) = (dir.path("tiny.bin"), dir.path("tiny.mgz"), dir.path("results.csv"));
    let (ok, _, stderr) = run(&["map", &dump, &mgz, "--out", &results]);
    assert!(ok, "map failed: {stderr}");
    // The rows are a multiset: an expected row the mapper produced once is
    // missing once if it is expected twice.
    let csv = std::fs::read_to_string(&results).unwrap();
    let mut lines: Vec<&str> = csv.lines().collect();
    lines.insert(2, lines[1]);
    std::fs::write(dir.path("duplicated.csv"), lines.join("\n") + "\n").unwrap();
    let (ok, stdout, stderr) = run(&["validate", &dump, &mgz, &dir.path("duplicated.csv")]);
    assert!(!ok, "a duplicated expected row must fail validation: {stdout}");
    assert!(stdout.contains("missing 1, extra 0"), "{stdout}{stderr}");
    assert!(!stdout.contains("PASS"), "{stdout}");
}

#[test]
fn map_on_a_hostile_dump_writes_the_good_prefix_then_fails() {
    use minigiraffe::core::SeedDump;
    use minigiraffe::support::mgi::{MgiFile, MgiWriter, TAG_DUMP_META, TAG_DUMP_READS};
    use minigiraffe::support::varint;

    let dir = TempDir::new("hostile");
    let (ok, _, stderr) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (dump, mgz) = (dir.path("tiny.bin"), dir.path("tiny.mgz"));
    let good = SeedDump::load(&dump).unwrap();
    assert_eq!(good.reads.len(), 40);
    // Read 20 of 41 claims a node offset past u32: the checksums hold, the
    // count check fails. At --batch 7 it falls inside the third chunk.
    let payload = |reads: &[_]| {
        let image = SeedDump::new(good.workflow, reads.to_vec()).to_bytes().unwrap();
        MgiFile::open_bytes(image).unwrap().section(TAG_DUMP_READS).unwrap().to_vec()
    };
    let mut reads = payload(&good.reads[..20]);
    for v in [0, 1, 0, 4, 1u64 << 32] {
        varint::write_u64(&mut reads, v);
    }
    reads.extend(payload(&good.reads[20..]));
    let mut meta = Vec::new();
    varint::write_u64(&mut meta, 0);
    varint::write_u64(&mut meta, 41);
    let mut writer = MgiWriter::new();
    writer.section(TAG_DUMP_META, meta);
    writer.section(TAG_DUMP_READS, reads);
    std::fs::write(dir.path("hostile.bin"), writer.finish()).unwrap();

    let (all, out) = (dir.path("all.csv"), dir.path("out.csv"));
    let (ok, _, stderr) = run(&["map", &dump, &mgz, "--out", &all]);
    assert!(ok, "map failed: {stderr}");
    let before: String = std::fs::read_to_string(&all)
        .unwrap()
        .lines()
        .filter(|row| row.split(',').next().unwrap().parse::<u64>().map_or(true, |id| id < 20))
        .map(|row| format!("{row}\n"))
        .collect();
    for threads in ["1", "2"] {
        let args =
            ["map", &dir.path("hostile.bin"), &mgz, "--threads", threads, "--batch", "7", "--out", &out];
        let (code, stderr) = run_into(&args, Stdio::null());
        assert_eq!(code, Some(1), "{stderr}");
        assert!(
            stderr.contains("corrupt data: seed node offset overflows u32"),
            "the error must be the count check's: {stderr}"
        );
        assert_eq!(std::fs::read_to_string(&out).unwrap(), before, "--threads {threads}");
    }
}

/// A seed off the pangenome — a node the graph does not have, or a node
/// offset past its node's end — passes every decoding check (a dump does not
/// name its pangenome) and used to reach the kernels: the first panicked in
/// `node_len`, the second underflowed the distance index. `map` writes the
/// reads before the bad one, then every dump reader fails with the error.
#[test]
fn seeds_off_the_pangenome_are_corrupt_not_a_panic() {
    use minigiraffe::core::{ReadInput, Seed, SeedDump};
    use minigiraffe::graph::{Handle, NodeId};
    use minigiraffe::index::GraphPos;

    let dir = TempDir::new("offgraph");
    // Seed 4's pangenome has 8-base nodes.
    let (ok, _, stderr) =
        run(&["generate", "--input-set", "tiny", "--seed", "4", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (dump, mgz) = (dir.path("tiny.bin"), dir.path("tiny.mgz"));
    let good = SeedDump::load(&dump).unwrap();
    let graph = minigiraffe::gbwt::Gbz::load(&mgz).unwrap().graph().clone();
    let eight = (1..=graph.node_count() as u64)
        .map(NodeId::new)
        .find(|&n| graph.node_len(n) == 8)
        .expect("the pangenome has an 8-base node");
    let past_the_graph = NodeId::new(graph.node_count() as u64 + 5);
    let (all, out) = (dir.path("all.csv"), dir.path("out.csv"));
    let (ok, _, stderr) = run(&["map", &dump, &mgz, "--out", &all]);
    assert!(ok, "map failed: {stderr}");
    let before: String = std::fs::read_to_string(&all)
        .unwrap()
        .lines()
        .filter(|row| row.split(',').next().unwrap().parse::<u64>().map_or(true, |id| id < 20))
        .map(|row| format!("{row}\n"))
        .collect();
    for (node, offset, fault) in [
        (past_the_graph, 0, format!("node {past_the_graph} is not in the pangenome")),
        (eight, 16, format!("offset 16 is past the 8 bases of node {eight}")),
    ] {
        // Read 20 of 40 gains the bad seed, first in read order; at
        // --batch 7 it falls inside the third chunk.
        let mut reads = good.reads.clone();
        let bad = Seed::new(0, GraphPos::new(Handle::forward(node), offset));
        reads[20] = ReadInput { seeds: [vec![bad], reads[20].seeds.clone()].concat(), ..reads[20].clone() };
        let hostile = dir.path("hostile.bin");
        SeedDump::new(good.workflow, reads).save(&hostile).unwrap();
        let message = format!("corrupt data: read 20: seed at read offset 0: {fault}");
        for threads in ["1", "2"] {
            let args = ["map", &hostile, &mgz, "--threads", threads, "--batch", "7", "--out", &out];
            let (code, stderr) = run_into(&args, Stdio::null());
            assert_eq!(code, Some(1), "{stderr}");
            assert!(stderr.contains(&message), "map --threads {threads}: {stderr}");
            assert_eq!(std::fs::read_to_string(&out).unwrap(), before, "--threads {threads}");
        }
        for args in [
            vec!["validate", &hostile, &mgz, &all],
            vec!["tune", &hostile, &mgz, "--threads", "1", "--repeats", "1"],
        ] {
            let (code, stderr) = run_into(&args, Stdio::null());
            assert_eq!(code, Some(1), "{}: {stderr}", args[0]);
            assert!(stderr.contains(&message), "{}: {stderr}", args[0]);
        }
    }
}

/// `info` counts a dump a chunk at a time; what it prints must be what a
/// whole decode counts, across several chunks and a short last one.
#[test]
fn info_on_a_dump_prints_the_whole_decode_counts() {
    use minigiraffe::core::{ReadInput, SeedDump, Workflow};

    let dir = TempDir::new("info");
    let (ok, _, stderr) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let tiny = SeedDump::load(dir.path("tiny.bin")).unwrap();
    // 1,301 reads of varying length and seed count, paired.
    let reads: Vec<ReadInput> = (0..1301)
        .map(|i| {
            let r = &tiny.reads[i % tiny.reads.len()];
            let cut = i % 5;
            ReadInput {
                bases: r.bases[..r.bases.len() - cut].to_vec(),
                seeds: r.seeds[..r.seeds.len().saturating_sub(cut)].to_vec(),
            }
        })
        .collect();
    let path = dir.path("many.bin");
    SeedDump::new(Workflow::Paired, reads).save(&path).unwrap();
    let whole = SeedDump::load(&path).unwrap();
    let (ok, stdout, stderr) = run(&["info", &path]);
    assert!(ok, "info failed: {stderr}");
    let mean = whole.total_seeds() as f64 / whole.reads.len() as f64;
    assert_eq!(
        stdout,
        format!(
            "seed dump {path}\n  workflow:     {}\n  reads:        {}\n  bases:        {}\n  \
             seeds:        {}\n  seeds/read:   {mean:.1}\n",
            whole.workflow,
            whole.reads.len(),
            whole.total_bases(),
            whole.total_seeds()
        )
    );
}

#[test]
fn bad_usage_fails_cleanly() {
    // Unknown subcommand.
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    // Missing required positional.
    let (ok, _, stderr) = run(&["map", "/nonexistent.bin"]);
    assert!(!ok);
    assert!(stderr.contains("expected"));
    // Bad flag value.
    let dir = TempDir::new("badflag");
    let (genok, _, _) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(genok);
    let (ok, _, stderr) = run(&[
        "map", &dir.path("tiny.bin"), &dir.path("tiny.mgz"), "--threads", "lots",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--threads"));
    // A flag the subcommand does not read is refused, not ignored: a
    // misspelt --threads would otherwise map on one thread without a word.
    let (ok, _, stderr) = run(&[
        "map", &dir.path("tiny.bin"), &dir.path("tiny.mgz"), "--thread", "4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --thread for map"), "got: {stderr}");
    let (ok, _, stderr) = run(&[
        "parent", &dir.path("tiny.fastq"), &dir.path("tiny.mgz"), "--adaptive", "true",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --adaptive for parent"), "got: {stderr}");
    let (ok, _, stderr) = run(&[
        "parent", &dir.path("tiny.fastq"), &dir.path("tiny.mgz"), "--shards", "d",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --shards for parent"), "got: {stderr}");
    // The deleted subcommand, spelt in halves so a grep for it finds no code.
    let (ok, _, stderr) = run(&[concat!("build-", "shards")]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "got: {stderr}");
    // --k/--w with --mgi would be ignored (the container carries its own
    // minimizer parameters): refused, pointing at build-mgi.
    let (built, _, _) = run(&["build-mgi", &dir.path("tiny.mgz"), "--out", &dir.path("tiny.mgi")]);
    assert!(built);
    let (ok, _, stderr) = run(&[
        "map", &dir.path("tiny.bin"), "--mgi", &dir.path("tiny.mgi"), "--k", "11",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--k") && stderr.contains("build-mgi"), "got: {stderr}");
    // Nonexistent input file.
    let (ok, _, stderr) = run(&["info", "/nonexistent.mgz"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
    // Help exits zero.
    let (ok, stdout, _) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn a_version_1_mgi_is_refused_with_a_rebuild_hint() {
    let dir = TempDir::new("mgi-v1");
    let (ok, _, stderr) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (ok, _, stderr) =
        run(&["build-mgi", &dir.path("tiny.mgz"), "--out", &dir.path("tiny.mgi")]);
    assert!(ok, "build-mgi failed: {stderr}");
    // The preamble's version field: a little-endian u32 after the 8-byte magic.
    let mut image = std::fs::read(dir.path("tiny.mgi")).unwrap();
    image[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(dir.path("v1.mgi"), image).unwrap();
    let gaf = dir.path("out.gaf");
    let (ok, _, stderr) =
        run(&["parent", &dir.path("tiny.fastq"), "--mgi", &dir.path("v1.mgi"), "--gaf", &gaf]);
    assert!(!ok, "a version-1 container must be refused");
    assert!(stderr.contains("version 1") && stderr.contains("build-mgi"), "got: {stderr}");
    assert!(!std::path::Path::new(&gaf).exists(), "no GAF may be written");
}

#[test]
fn version_2_files_are_refused_with_a_rebuild_hint() {
    // Version 2 is the container before the packed k-mer entries and node
    // records: an `.mgi` of that version must be rebuilt, and a `.mgz`
    // regenerated.
    let dir = TempDir::new("v2");
    let (ok, _, stderr) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (ok, _, stderr) =
        run(&["build-mgi", &dir.path("tiny.mgz"), "--out", &dir.path("tiny.mgi")]);
    assert!(ok, "build-mgi failed: {stderr}");
    for name in ["tiny.mgi", "tiny.mgz"] {
        let mut image = std::fs::read(dir.path(name)).unwrap();
        image[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(dir.path(&format!("v2-{name}")), image).unwrap();
    }
    let (fastq, gaf) = (dir.path("tiny.fastq"), dir.path("out.gaf"));
    let (old_mgi, old_mgz) = (dir.path("v2-tiny.mgi"), dir.path("v2-tiny.mgz"));
    let (ok, _, stderr) = run(&["parent", &fastq, "--mgi", &old_mgi, "--gaf", &gaf]);
    assert!(!ok, "a version-2 .mgi must be refused");
    assert!(stderr.contains("version 2") && stderr.contains("build-mgi"), "got: {stderr}");
    let (ok, _, stderr) = run(&["parent", &fastq, &old_mgz, "--gaf", &gaf]);
    assert!(!ok, "a version-2 .mgz must be refused");
    assert!(stderr.contains("minigiraffe generate"), "got: {stderr}");
    assert!(!std::path::Path::new(&gaf).exists(), "no GAF may be written");
}

#[test]
fn version_3_files_are_refused_with_a_rebuild_hint() {
    // Version 3 is the version-4 layout summed with FNV-1a: every file
    // kind of that version is refused by the library as such and by the
    // CLI with the command that replaces it.
    use minigiraffe::support::Error;

    let dir = TempDir::new("v3");
    let (ok, _, stderr) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (ok, _, stderr) =
        run(&["build-mgi", &dir.path("tiny.mgz"), "--out", &dir.path("tiny.mgi")]);
    assert!(ok, "build-mgi failed: {stderr}");
    for name in ["tiny.mgi", "tiny.mgz", "tiny.bin"] {
        let mut image = std::fs::read(dir.path(name)).unwrap();
        image[8..12].copy_from_slice(&3u32.to_le_bytes());
        let old = dir.path(&format!("v3-{name}"));
        std::fs::write(&old, image).unwrap();
        let opened = minigiraffe::support::mgi::MgiFile::open(std::path::Path::new(&old));
        assert!(matches!(opened, Err(Error::UnsupportedVersion(3))), "{name}: {opened:?}");
    }
    let (fastq, mgz, gaf) = (dir.path("tiny.fastq"), dir.path("tiny.mgz"), dir.path("out.gaf"));
    let (old_mgi, old_mgz, old_bin) =
        (dir.path("v3-tiny.mgi"), dir.path("v3-tiny.mgz"), dir.path("v3-tiny.bin"));
    let (csv, mgi) = (dir.path("out.csv"), dir.path("rebuilt.mgi"));
    let (ok, _, stderr) = run(&["parent", &fastq, "--mgi", &old_mgi, "--gaf", &gaf]);
    assert!(!ok, "a version-3 .mgi must be refused");
    assert!(stderr.contains("version 3") && stderr.contains("build-mgi"), "got: {stderr}");
    for args in [
        vec!["parent", &fastq, &old_mgz, "--gaf", &gaf],
        vec!["build-mgi", &old_mgz, "--out", &mgi],
        vec!["info", &old_mgz],
    ] {
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "{args:?} accepted a version-3 .mgz");
        assert!(
            stderr.contains(&old_mgz) && stderr.contains("minigiraffe generate"),
            "{args:?} got: {stderr}"
        );
    }
    for args in [
        vec!["map", &old_bin, &mgz, "--out", &csv],
        vec!["validate", &old_bin, &mgz, &csv],
        vec!["tune", &old_bin, &mgz, "--threads", "1", "--repeats", "1"],
        vec!["info", &old_bin],
    ] {
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "{args:?} accepted a version-3 .bin");
        assert!(
            stderr.contains(&old_bin)
                && stderr.contains("minigiraffe generate")
                && stderr.contains("--dump"),
            "{args:?} got: {stderr}"
        );
    }
    for out in [gaf, mgi, csv] {
        assert!(!std::path::Path::new(&out).exists(), "{out} may not be written");
    }
}

#[test]
fn build_mgi_from_a_saved_mgz_equals_the_in_memory_build() {
    // Loading a `.mgz` loses nothing: the index `build-mgi` writes from the
    // saved file is byte for byte the one built from the generator's
    // in-memory pangenome.
    use minigiraffe::core::MgiBundle;
    use minigiraffe::index::MinimizerParams;
    use minigiraffe::workload::{InputSetSpec, SyntheticInput};

    let dir = TempDir::new("mgz-lossless");
    let (ok, _, stderr) =
        run(&["generate", "--input-set", "tiny", "--seed", "42", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (ok, _, stderr) =
        run(&["build-mgi", &dir.path("tiny.mgz"), "--out", &dir.path("tiny.mgi")]);
    assert!(ok, "build-mgi failed: {stderr}");
    let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 42);
    let built = MgiBundle::build(input.gbz, MinimizerParams::default()).unwrap();
    assert!(std::fs::read(dir.path("tiny.mgi")).unwrap() == built.to_bytes());
}

#[test]
fn an_mgz_or_bin_in_the_retired_layout_is_refused_with_a_regenerate_hint() {
    let dir = TempDir::new("old-layout");
    let (ok, _, stderr) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    // The header of the stream container `.mgz` and `.bin` files used
    // before they moved onto the `.mgi` section table: magic, kind,
    // version 1, then an empty end-of-container trailer.
    let old = |kind: &[u8]| {
        [b"MGZ\0", kind, &1u32.to_le_bytes(), &u32::MAX.to_le_bytes(), &0u64.to_le_bytes()]
            .concat()
    };
    std::fs::write(dir.path("old.mgz"), old(b"GBZG")).unwrap();
    std::fs::write(dir.path("old.bin"), old(b"SEED")).unwrap();
    let (fastq, mgz, old_mgz, old_bin) =
        (dir.path("tiny.fastq"), dir.path("tiny.mgz"), dir.path("old.mgz"), dir.path("old.bin"));
    let (gaf, mgi) = (dir.path("out.gaf"), dir.path("x.mgi"));
    let cases = [
        ("old.mgz", vec!["parent", &fastq, &old_mgz, "--gaf", &gaf]),
        ("old.mgz", vec!["build-mgi", &old_mgz, "--out", &mgi]),
        ("old.bin", vec!["map", &old_bin, &mgz]),
        ("old.bin", vec!["info", &old_bin]),
    ];
    for (file, args) in cases {
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "{args:?} accepted a retired-layout file");
        assert!(
            stderr.contains(file)
                && stderr.contains("minigiraffe generate")
                && stderr.contains("build-mgi"),
            "{args:?} got: {stderr}"
        );
    }
    assert!(!std::path::Path::new(&gaf).exists(), "no GAF may be written");
    // Any other unreadable file keeps the plain error.
    std::fs::write(dir.path("noise.mgz"), b"not a pangenome").unwrap();
    let (ok, _, stderr) = run(&["info", &dir.path("noise.mgz")]);
    assert!(!ok);
    assert!(!stderr.contains("minigiraffe generate"), "got: {stderr}");
}

/// The FASTQ records of `text`, four lines each (the simulator writes no
/// blank lines).
fn fastq_records(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    lines.chunks(4).map(|r| r.join("\n") + "\n").collect()
}

#[test]
fn a_truncated_record_fails_the_run_after_the_good_prefix() {
    let dir = TempDir::new("truncated");
    let (ok, _, _) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok);
    let records = fastq_records(&std::fs::read_to_string(dir.path("tiny.fastq")).unwrap());
    assert_eq!(records.len(), 40);
    let (good, last) = records.split_at(39);
    let (prefix_fastq, prefix_gaf) = (dir.path("prefix.fastq"), dir.path("prefix.gaf"));
    let (truncated, out) = (dir.path("truncated.fastq"), dir.path("truncated.gaf"));
    std::fs::write(&prefix_fastq, good.concat()).unwrap();
    // The last record cut in the middle of its quality line, as a partial
    // download leaves it.
    let cut = &last[0][..last[0].len() - 40];
    std::fs::write(&truncated, good.concat() + cut).unwrap();

    let mgz = dir.path("tiny.mgz");
    let (ok, _, stderr) = run(&["parent", &prefix_fastq, &mgz, "--gaf", &prefix_gaf]);
    assert!(ok, "{stderr}");
    let prefix = std::fs::read(&prefix_gaf).unwrap();
    assert!(!prefix.is_empty());
    for stream in [&[][..], &["--stream", "7"][..]] {
        let mut args = vec!["parent", &truncated, &mgz, "--gaf", &out];
        args.extend(stream);
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "a truncated record must fail the run");
        assert!(stderr.contains("record \"tiny.39\""), "the error must name the record: {stderr}");
        assert_eq!(std::fs::read(&out).unwrap(), prefix, "the good prefix's GAF, {stream:?}");
    }
    // The capture path reads the whole file before it maps anything.
    let (ok, _, stderr) = run(&[
        "parent", &truncated, &mgz, "--gaf", &dir.path("captured.gaf"),
        "--dump", &dir.path("captured.bin"),
    ]);
    assert!(!ok && stderr.contains("record \"tiny.39\""), "{stderr}");
    assert!(!std::path::Path::new(&dir.path("captured.gaf")).exists());
    assert!(!std::path::Path::new(&dir.path("captured.bin")).exists());
}

#[test]
fn paired_flag_maps_mate_pairs_like_the_library() {
    use minigiraffe::core::types::Workflow;
    use minigiraffe::core::MgiBundle;
    use minigiraffe::gbwt::Gbz;
    use minigiraffe::index::MinimizerParams;
    use minigiraffe::parent::{run_to_gaf, Parent, ParentOptions};
    use minigiraffe::workload::fastq::{load_read_bases, save_reads_fastq};
    use minigiraffe::workload::{InputSetSpec, SyntheticInput};

    let dir = TempDir::new("paired");
    let mut spec = InputSetSpec::tiny_for_tests();
    spec.workflow = Workflow::Paired;
    // Fragments either side of the pair check's 1200 bp limit, so the
    // paired output differs from the single-end one.
    spec.read_sim.fragment_len = 1100;
    spec.read_sim.fragment_jitter = 300;
    let input = SyntheticInput::generate(&spec, 5);
    let (mgz, fastq) = (dir.path("paired.mgz"), dir.path("paired.fastq"));
    input.gbz.save(&mgz).unwrap();
    save_reads_fastq(&fastq, &input.sim_reads, "paired").unwrap();

    // The reference: the capture emitter on the bundle the CLI builds.
    let bundle = MgiBundle::build(Gbz::load(&mgz).unwrap(), MinimizerParams::default()).unwrap();
    let parent = Parent::with_distance(
        bundle.gbz(),
        bundle.minimizer(),
        bundle.distance().clone(),
        Workflow::Paired,
    );
    let reads = load_read_bases(&fastq).unwrap();
    let run_all = parent.run(&reads, &ParentOptions::default());
    let expected = run_to_gaf(bundle.gbz().graph(), &run_all, "read");
    assert!(
        expected.contains("pp:A:1") && expected.contains("pp:A:0"),
        "the reference must pair some mates and reject others"
    );

    let paired_gaf = dir.path("p.gaf");
    let (ok, _, stderr) = run(&["parent", &fastq, &mgz, "--paired", "true", "--gaf", &paired_gaf]);
    assert!(ok, "{stderr}");
    assert_eq!(std::fs::read_to_string(&paired_gaf).unwrap(), expected);
    // Single-end is still the default: no pair check rejects anything.
    let (ok, _, stderr) = run(&["parent", &fastq, &mgz, "--gaf", &dir.path("s.gaf")]);
    assert!(ok, "{stderr}");
    assert!(!std::fs::read_to_string(dir.path("s.gaf")).unwrap().contains("pp:A:0"));
}

/// A `--subsample` outside (0, 1] or a `--scale` that is not a positive
/// number is a usage error naming the flag, exit 1, before any file is
/// read or created: never a panic.
#[test]
fn bad_subsample_and_scale_are_usage_errors() {
    let dir = TempDir::new("bad-values");
    let missing = dir.path("missing.bin");
    for value in ["0", "1.5", "nan"] {
        let args = ["tune", &missing, &missing, "--subsample", value, "--repeats", "1"];
        let (code, stderr) = run_into(&args, Stdio::null());
        assert_eq!(code, Some(1), "--subsample {value}: {stderr}");
        assert!(stderr.contains("--subsample") && !stderr.contains("panicked"), "{stderr}");
        assert!(!stderr.contains("missing.bin"), "read a file first: {stderr}");
    }
    for value in ["0", "-1", "nan"] {
        let out = dir.path(&format!("out-{value}"));
        let args = ["generate", "--input-set", "tiny", "--scale", value, "--out", &out];
        let (code, stderr) = run_into(&args, Stdio::null());
        assert_eq!(code, Some(1), "--scale {value}: {stderr}");
        assert!(stderr.contains("--scale") && !stderr.contains("panicked"), "{stderr}");
        assert!(!std::path::Path::new(&out).exists(), "--scale {value} created {out}");
    }
}

/// `parent --scheduler vg` maps to the same GAF as the CLI's default
/// (`dynamic`) scheduler.
#[test]
fn parent_scheduler_vg_writes_the_default_gaf() {
    let dir = TempDir::new("sched-vg");
    let (ok, _, stderr) = run(&["generate", "--input-set", "tiny", "--out", &dir.path("")]);
    assert!(ok, "generate failed: {stderr}");
    let (fastq, mgz) = (dir.path("tiny.fastq"), dir.path("tiny.mgz"));
    let (default, vg) = (dir.path("default.gaf"), dir.path("vg.gaf"));
    let (ok, _, stderr) = run(&["parent", &fastq, &mgz, "--threads", "2", "--gaf", &default]);
    assert!(ok, "parent failed: {stderr}");
    let args = ["parent", &fastq, &mgz, "--scheduler", "vg", "--threads", "2", "--gaf", &vg];
    let (ok, _, stderr) = run(&args);
    assert!(ok, "parent --scheduler vg failed: {stderr}");
    let gaf = std::fs::read(&default).unwrap();
    assert!(!gaf.is_empty());
    assert_eq!(std::fs::read(&vg).unwrap(), gaf);
}
