//! Streaming memory is bounded by the queue-and-chunk window, not by the
//! input: the one clause of the retired `smoke_stream` bench that the
//! benchmark harness (throughput and peak RSS of `stream-short-t2` /
//! `stream-hprc-t2`) does not already measure.
//!
//! The streaming pipeline holds at most `queue_batches` batches in the
//! hand-off queue, one more in the blocked producer, one chunk being
//! mapped, and what the workers rendered for it. A stream fifty windows
//! long must therefore not raise the process's high-water mark by more
//! than a small multiple of one window over what a two-window stream
//! already reached. Anything that grows with the input — a queue that does
//! not block, chunks that are kept, a buffer that is never cleared — shows
//! as tens of windows.
//!
//! Release only (`scripts/verify.sh` runs it): it maps over a million
//! reads. Its own test binary, so no other test's allocations move the
//! process-wide mark.

use mg_core::StreamOptions;
use mg_parent::{Parent, ParentOptions};
use mg_support::mem::peak_rss_bytes;
use mg_workload::{InputSetSpec, SyntheticInput};

/// Reads per ingestion batch and per mapping chunk.
const BATCH_READS: usize = 4096;
const QUEUE_BATCHES: usize = 4;
/// Queue, blocked producer, and the chunk being mapped.
const WINDOW_READS: usize = (QUEUE_BATCHES + 2) * BATCH_READS;
const WINDOWS: usize = 50;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: maps 50 windows of 24k reads")]
fn streaming_rss_is_bounded_by_the_window_not_the_input() {
    if peak_rss_bytes().is_none() {
        eprintln!("no /proc/self/status on this platform; skipping");
        return;
    }
    let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 3);
    let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
    let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
    let mut options = ParentOptions::default();
    // A mapping chunk is `threads × batch_size` reads: one ingestion batch.
    options.mapping.threads = 2;
    options.mapping.batch_size = BATCH_READS / 2;
    let stream = StreamOptions { queue_batches: QUEUE_BATCHES };

    // Batches are made as the producer asks for them: the input never
    // exists whole, exactly as with a FASTQ file read incrementally.
    let stream_windows = |windows: usize| {
        let batches = (0..windows * WINDOW_READS / BATCH_READS).map(|b| {
            Ok((0..BATCH_READS)
                .map(|i| reads[(b * BATCH_READS + i) % reads.len()].clone())
                .collect::<Vec<Vec<u8>>>())
        });
        let summary = parent
            .run_streaming(batches, &options, &stream, "rss", &mut std::io::sink())
            .expect("generated batches cannot fail");
        assert_eq!(summary.reads as usize, windows * WINDOW_READS);
        assert!(summary.queue_high_water <= QUEUE_BATCHES);
    };

    // Two windows bring threads, caches, buffers and the allocator to
    // their working size.
    stream_windows(2);
    let warm = peak_rss_bytes().expect("checked above");
    stream_windows(WINDOWS);
    let grown = peak_rss_bytes().expect("checked above") - warm;

    // A read in flight is its bases plus the `Vec` that owns them.
    let read_bytes = reads[0].len() + std::mem::size_of::<Vec<u8>>();
    let window_bytes = (WINDOW_READS * read_bytes) as u64;
    let input_bytes = window_bytes * WINDOWS as u64;
    eprintln!(
        "window {window_bytes} B, input {input_bytes} B, high-water mark grew {grown} B over the warm-up"
    );
    assert!(
        grown < 2 * window_bytes,
        "streaming {WINDOWS} windows raised peak RSS by {grown} B: more than twice the \
         {window_bytes} B window"
    );
}
