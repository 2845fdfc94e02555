//! Property suite: the streaming FASTQ reader and the batch `read_fastq`
//! must agree on arbitrary well-formed *and* malformed inputs — same
//! records, same error, same error position — including CRLF line endings,
//! blank lines between records, and every corruption the parser rejects.
//! The base batches the streaming CLI maps are held to `read_fastq_bases`
//! the same way.
//!
//! `read_fastq` is built on the streaming core, so this suite is the lock
//! that keeps a future divergence (a separate fast path, a rewritten batch
//! loop) from silently changing intake semantics.

use mg_workload::{read_fastq, read_fastq_bases, FastqReader, FastqRecord};
use proptest::prelude::*;

/// One generated input segment. `kind` picks the shape, `len` the sequence
/// length, `seed` the base content, `crlf` the line terminator.
type Segment = (usize, usize, u64, usize);

const KINDS: usize = 10;

/// Renders a segment as FASTQ bytes. Kinds 0–4 are valid records (majority
/// weight, so most generated files parse clean for a while); the rest cover
/// each rejection path the parser has.
fn render(out: &mut Vec<u8>, idx: usize, (kind, len, seed, crlf): Segment) {
    let eol: &[u8] = if crlf == 1 { b"\r\n" } else { b"\n" };
    let len = len.max(1);
    let bases: Vec<u8> = (0..len).map(|i| b"ACGTN"[((seed >> (i % 16)) as usize + i) % 5]).collect();
    let qual = vec![b'F'; len];
    let name = format!("r{idx}");
    let mut record = |bases: &[u8], plus: &[u8], qual: &[u8]| {
        out.extend_from_slice(format!("@{name}").as_bytes());
        out.extend_from_slice(eol);
        out.extend_from_slice(bases);
        out.extend_from_slice(eol);
        out.extend_from_slice(plus);
        out.extend_from_slice(eol);
        out.extend_from_slice(qual);
        out.extend_from_slice(eol);
    };
    match kind {
        0..=4 => record(&bases, b"+", &qual),
        5 => out.extend_from_slice(eol), // blank line between records
        6 => {
            // Invalid base somewhere in the sequence.
            let mut bad = bases.clone();
            bad[seed as usize % len] = b'!';
            record(&bad, b"+", &qual);
        }
        7 => record(&bases, b"+", &qual[..len - 1]), // quality too short
        8 => record(&bases, b"x", &qual),            // missing '+' separator
        _ => record(b"", b"+", b""),                 // blank sequence line
    }
}

fn render_all(segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::new();
    for (idx, seg) in segments.iter().enumerate() {
        render(&mut out, idx, *seg);
    }
    out
}

/// Collects the streaming reader's output: the record prefix plus the
/// first error, if any.
fn stream_outcome(bytes: &[u8]) -> (Vec<FastqRecord>, Option<String>) {
    let mut records = Vec::new();
    let mut error = None;
    for item in FastqReader::new(bytes) {
        match item {
            Ok(r) => records.push(r),
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    (records, error)
}

/// The bases-only reader is `read_fastq` minus names and qualities: same
/// sequences on clean input, same error on malformed input.
fn bases_reader_agrees(bytes: &[u8]) -> bool {
    let full = read_fastq(bytes)
        .map(|records| records.into_iter().map(|r| r.bases).collect::<Vec<_>>())
        .map_err(|e| e.to_string());
    read_fastq_bases(bytes).map_err(|e| e.to_string()) == full
}

/// The base batches the streaming CLI maps flatten to `read_fastq_bases`:
/// the same sequences on clean input; on malformed input the same good
/// prefix, then the same first error, then nothing.
fn base_batches_agree(bytes: &[u8], batch_size: usize) {
    let mut flat = Vec::new();
    let mut error = None;
    let mut batches = FastqReader::new(bytes).base_batches(batch_size);
    for item in batches.by_ref() {
        match item {
            Ok(mut b) => {
                prop_assert!(!b.is_empty() && b.len() <= batch_size);
                flat.append(&mut b);
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    prop_assert!(batches.next().is_none(), "base batches must fuse after an error");
    match (read_fastq_bases(bytes), error) {
        (Ok(all), None) => prop_assert_eq!(flat, all),
        (Err(e), Some(got)) => {
            prop_assert_eq!(got, e.to_string());
            let (prefix, _) = stream_outcome(bytes);
            prop_assert_eq!(flat, prefix.into_iter().map(|r| r.bases).collect::<Vec<_>>());
        }
        (whole, batched) => panic!(
            "read_fastq_bases {:?} but base batches ended with {batched:?}",
            whole.map(|b| b.len()).map_err(|e| e.to_string())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn streaming_and_batch_reader_agree(
        segments in proptest::collection::vec(
            (0usize..KINDS, 0usize..12, any::<u64>(), 0usize..2),
            0..20,
        ),
        batch_size in 1usize..6,
    ) {
        let bytes = render_all(&segments);
        let (streamed, stream_err) = stream_outcome(&bytes);

        match read_fastq(&bytes[..]) {
            Ok(batch) => {
                prop_assert!(stream_err.is_none(), "batch Ok but stream errored: {stream_err:?}");
                prop_assert_eq!(&streamed, &batch);
                // Clean inputs have exactly the valid records, in order.
                let valid = segments.iter().filter(|(k, ..)| *k <= 4).count();
                prop_assert_eq!(batch.len(), valid);
            }
            Err(e) => {
                // Same error, same position (the message names the record
                // or line), after the same prefix of good records.
                prop_assert_eq!(stream_err.as_deref(), Some(e.to_string().as_str()));
                let malformed = segments.iter().position(|(k, ..)| *k >= 6)
                    .expect("an error implies a malformed segment");
                let good_before = segments[..malformed].iter().filter(|(k, ..)| *k <= 4).count();
                prop_assert_eq!(streamed.len(), good_before);
            }
        }

        // The batched view flattens to the same records and surfaces the
        // same error, regardless of batch size.
        let mut flat = Vec::new();
        let mut batched_err = None;
        for item in FastqReader::new(&bytes[..]).batches(batch_size) {
            match item {
                Ok(mut b) => {
                    prop_assert!(!b.is_empty(), "batches must never be empty");
                    prop_assert!(b.len() <= batch_size);
                    flat.append(&mut b);
                }
                Err(e) => {
                    batched_err = Some(e.to_string());
                    break;
                }
            }
        }
        prop_assert_eq!(flat, streamed);
        prop_assert_eq!(batched_err, stream_err);
        prop_assert!(bases_reader_agrees(&bytes));
        base_batches_agree(&bytes, batch_size);
    }

    #[test]
    fn streaming_reader_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        batch_size in 1usize..6,
    ) {
        // Raw fuzz: any byte soup must parse or error, never panic, and
        // both entry points must agree on which.
        let (streamed, stream_err) = stream_outcome(&bytes);
        match read_fastq(&bytes[..]) {
            Ok(batch) => {
                prop_assert!(stream_err.is_none());
                prop_assert_eq!(streamed, batch);
            }
            Err(e) => {
                prop_assert_eq!(stream_err.as_deref(), Some(e.to_string().as_str()));
            }
        }
        prop_assert!(bases_reader_agrees(&bytes));
        base_batches_agree(&bytes, batch_size);
    }
}
