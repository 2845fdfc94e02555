//! Mapping a seed dump streams it: `Mapper::run_dump` holds one block of
//! the dump file and one chunk of decoded reads and results, neither the
//! file's reads section nor the decoded dump, so a dump many chunks long
//! raises the process's high-water mark by less than two chunks and a
//! fixed slack that does not grow with the file. A reader that holds the
//! reads section shows as the file on top of that; decoding the whole dump
//! first, or keeping every chunk's results, as the decoded dump.
//!
//! The test writes the dumps and a child process maps them: this test
//! binary run again on `child_streams_the_dumps` alone, which does nothing
//! unless the parent names the files. Writing a dump holds its payload, and
//! the mark never falls again; in the child, no page but the mapping's
//! counts.
//!
//! Release only (`scripts/verify.sh` runs it): it maps sixty thousand
//! reads. Its own test binary, so no other test's allocations move the
//! process-wide mark. It sits beside `stream_rss.rs`, the parent's FASTQ
//! stream bound.

use std::path::{Path, PathBuf};
use std::process::Command;

use mg_core::{DumpReader, Mapper, MappingOptions, ReadInput};
use mg_gbwt::Gbz;
use mg_obs::Metrics;
use mg_support::mem::peak_rss_bytes;
use mg_support::mgi::{MgiFile, MgiWriter, TAG_DUMP_META, TAG_DUMP_READS};
use mg_support::regions::NullSink;
use mg_support::varint;
use mg_workload::{InputSetSpec, SyntheticInput};

/// Reads per chunk: `threads × batch_size`.
const CHUNK_READS: usize = 1024;
const CHUNKS: usize = 60;
/// What the large run may grow by besides two chunks, whatever the file's
/// size: the reader's window (one or two 64 KiB blocks) and allocator
/// rounding.
const SLACK_BYTES: u64 = 1 << 20;
/// Names the child's directory: set only on the child this test starts.
const CHILD_DIR: &str = "MG_DUMP_RSS_CHILD_DIR";

/// Writes a dump of `copies` copies of `reads` (an encoded reads section)
/// straight from its payload, so making the file never decodes it.
fn write_dump(path: &Path, reads: &[u8], per_copy: usize, copies: usize) {
    let mut meta = Vec::new();
    varint::write_u64(&mut meta, 0);
    varint::write_u64(&mut meta, (per_copy * copies) as u64);
    let mut writer = MgiWriter::new();
    writer.section(TAG_DUMP_META, meta);
    writer.section(TAG_DUMP_READS, reads.repeat(copies));
    writer.write_to(path).unwrap();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: maps 60 chunks of 1024 reads")]
fn streaming_a_dump_holds_one_block_and_one_chunk() {
    if peak_rss_bytes().is_none() {
        eprintln!("no /proc/self/status on this platform; skipping");
        return;
    }
    let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 3);
    let per_copy = input.dump.reads.len();
    let reads = MgiFile::open_bytes(input.dump.to_bytes().unwrap())
        .and_then(|mut f| f.section(TAG_DUMP_READS))
        .unwrap();
    let dir = std::env::temp_dir().join(format!("mg-dump-rss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let _removed = Removed(dir.clone());
    input.gbz.save(dir.join("graph.mgz")).unwrap();
    write_dump(&dir.join("small.bin"), &reads, per_copy, (2 * CHUNK_READS).div_ceil(per_copy));
    let copies = (CHUNKS * CHUNK_READS).div_ceil(per_copy);
    write_dump(&dir.join("large.bin"), &reads, per_copy, copies);

    let child = Command::new(std::env::current_exe().unwrap())
        .args(["child_streams_the_dumps", "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_DIR, &dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success(),
        "the child failed: {}\n{stdout}{}",
        child.status,
        String::from_utf8_lossy(&child.stderr)
    );
    let report = stdout
        .lines()
        .find_map(|line| Some(line.split_once("dump_rss: ")?.1))
        .unwrap_or_else(|| panic!("the child reported nothing:\n{stdout}"));
    let numbers: Vec<u64> = report.split(' ').map(|n| n.parse().unwrap()).collect();
    let [mapped, chunks, grown] = numbers[..] else {
        panic!("malformed report {report:?}");
    };
    assert_eq!(mapped as usize, copies * per_copy);
    assert_eq!(chunks as usize, (copies * per_copy).div_ceil(CHUNK_READS));

    // A decoded read is its bases and seeds plus the `Vec`s that own them.
    let read_bytes = |r: &ReadInput| {
        r.bases.len() + std::mem::size_of_val(&r.seeds[..]) + std::mem::size_of::<ReadInput>()
    };
    let mean_read = input.dump.reads.iter().map(read_bytes).sum::<usize>() / per_copy;
    let chunk_bytes = (CHUNK_READS * mean_read) as u64;
    let file_bytes = std::fs::metadata(dir.join("large.bin")).unwrap().len();
    eprintln!(
        "file {file_bytes} B, chunk {chunk_bytes} B, high-water mark grew {grown} B over the warm-up"
    );
    assert!(
        grown < 2 * chunk_bytes + SLACK_BYTES,
        "streaming a {file_bytes} B dump of {CHUNKS} chunks raised peak RSS by {grown} B: more \
         than two {chunk_bytes} B chunks and {SLACK_BYTES} B"
    );
}

/// The child's half: maps the two-chunk dump to bring threads, caches,
/// buffers and the allocator to their working size, then the large one,
/// and reports the reads and chunks mapped and how far the high-water mark
/// rose over the warm-up. Does nothing outside the child.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: the child of the test above")]
fn child_streams_the_dumps() {
    let Some(dir) = std::env::var_os(CHILD_DIR).map(PathBuf::from) else {
        return;
    };
    let gbz = Gbz::load(dir.join("graph.mgz")).unwrap();
    let mapper = Mapper::new(&gbz);
    let options = MappingOptions {
        threads: 2,
        batch_size: CHUNK_READS / 2,
        ..Default::default()
    };
    let stream = |name: &str| {
        let mut reader = DumpReader::open(dir.join(name)).unwrap();
        mapper
            .run_dump(&mut reader, &options, &NullSink, Metrics::off_ref(), |_| Ok(()))
            .unwrap()
    };
    stream("small.bin");
    let warm = peak_rss_bytes().expect("checked by the parent");
    let summary = stream("large.bin");
    let grown = peak_rss_bytes().expect("checked by the parent") - warm;
    println!("dump_rss: {} {} {grown}", summary.reads, summary.chunks);
}

struct Removed(PathBuf);

impl Drop for Removed {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
