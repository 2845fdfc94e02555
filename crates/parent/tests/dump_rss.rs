//! Mapping a seed dump streams it: `Mapper::run_dump` holds the dump file
//! and one chunk of decoded reads and results, not the decoded dump, so a
//! dump many chunks long raises the process's high-water mark by less than
//! its file plus two chunks. Decoding the whole dump first, or keeping
//! every chunk's results, shows as the decoded dump on top of the file.
//!
//! Release only (`scripts/verify.sh` runs it): it maps sixty thousand
//! reads. Its own test binary, so no other test's allocations move the
//! process-wide mark. It sits beside `stream_rss.rs`, the parent's FASTQ
//! stream bound.

use std::path::{Path, PathBuf};

use mg_core::{DumpReader, Mapper, MappingOptions, ReadInput};
use mg_obs::Metrics;
use mg_support::mem::peak_rss_bytes;
use mg_support::mgi::{MgiFile, MgiWriter, TAG_DUMP_META, TAG_DUMP_READS};
use mg_support::regions::NullSink;
use mg_support::varint;
use mg_workload::{InputSetSpec, SyntheticInput};

/// Reads per chunk: `threads × batch_size`.
const CHUNK_READS: usize = 1024;
const CHUNKS: usize = 60;

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

struct Removed(PathBuf);

impl Drop for Removed {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: maps 60 chunks of 1024 reads")]
fn streaming_a_dump_holds_the_file_and_one_chunk() {
    if peak_rss_bytes().is_none() {
        eprintln!("no /proc/self/status on this platform; skipping");
        return;
    }
    let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 3);
    let per_copy = input.dump.reads.len();
    let reads = MgiFile::open_bytes(input.dump.to_bytes().unwrap())
        .and_then(|mut f| f.section(TAG_DUMP_READS))
        .unwrap();
    let path = |tag: &str| std::env::temp_dir().join(format!("mg-dump-rss-{tag}-{}.bin", std::process::id()));
    let (small, large) = (Removed(path("small")), Removed(path("large")));
    write_dump(&small.0, &reads, per_copy, (2 * CHUNK_READS).div_ceil(per_copy));
    let copies = (CHUNKS * CHUNK_READS).div_ceil(per_copy);
    write_dump(&large.0, &reads, per_copy, copies);

    let mapper = Mapper::new(&input.gbz);
    let options = MappingOptions {
        threads: 2,
        batch_size: CHUNK_READS / 2,
        ..Default::default()
    };
    let stream = |path: &Path| {
        let mut file = MgiFile::open(path).unwrap();
        let mut reader = DumpReader::new(&mut file).unwrap();
        mapper
            .run_dump(&mut reader, &options, &NullSink, Metrics::off_ref(), |_| Ok(()))
            .unwrap()
    };

    // A two-chunk dump brings threads, caches, buffers and the allocator
    // to their working size; writing the large file already peaked at its
    // payload and its image.
    stream(&small.0);
    let warm = peak_rss_bytes().expect("checked above");
    let summary = stream(&large.0);
    assert_eq!(summary.reads as usize, copies * per_copy);
    assert_eq!(summary.chunks as usize, (copies * per_copy).div_ceil(CHUNK_READS));
    let grown = peak_rss_bytes().expect("checked above") - warm;

    // A decoded read is its bases and seeds plus the `Vec`s that own them.
    let read_bytes = |r: &ReadInput| {
        r.bases.len() + std::mem::size_of_val(&r.seeds[..]) + std::mem::size_of::<ReadInput>()
    };
    let mean_read = input.dump.reads.iter().map(read_bytes).sum::<usize>() / per_copy;
    let chunk_bytes = (CHUNK_READS * mean_read) as u64;
    let file_bytes = std::fs::metadata(&large.0).unwrap().len();
    eprintln!(
        "file {file_bytes} B, chunk {chunk_bytes} B, high-water mark grew {grown} B over the warm-up"
    );
    assert!(
        grown < file_bytes + 2 * chunk_bytes,
        "streaming {CHUNKS} chunks raised peak RSS by {grown} B: more than the {file_bytes} B \
         file plus two {chunk_bytes} B chunks"
    );
}
