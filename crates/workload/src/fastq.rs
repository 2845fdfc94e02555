//! FASTQ reading and writing.
//!
//! The paper's read inputs are Illumina FASTQ files (Table III); the
//! simulator can emit its reads as FASTQ and the parent pipeline can
//! consume FASTQ directly, so the toolchain round-trips through the real
//! interchange format.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use mg_support::{Error, Result};

/// One FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read name (without the leading `@`).
    pub name: String,
    /// Base sequence.
    pub bases: Vec<u8>,
    /// Per-base Phred+33 qualities; same length as `bases`.
    pub quality: Vec<u8>,
}

impl FastqRecord {
    /// Creates a record with uniform quality `q` (Phred+33 encoded char).
    pub fn with_uniform_quality(name: String, bases: Vec<u8>, q: u8) -> Self {
        let quality = vec![q; bases.len()];
        FastqRecord { name, bases, quality }
    }
}

/// Writes records in FASTQ format.
///
/// # Errors
///
/// Returns IO errors.
pub fn write_fastq<W: Write>(mut out: W, records: &[FastqRecord]) -> Result<()> {
    for r in records {
        out.write_all(b"@")?;
        out.write_all(r.name.as_bytes())?;
        out.write_all(b"\n")?;
        out.write_all(&r.bases)?;
        out.write_all(b"\n+\n")?;
        out.write_all(&r.quality)?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// What one parsed record becomes. It is called with the record's name,
/// bases and quality string while they still sit in the reader's line
/// buffers, after every check has passed, so each entry point copies out
/// only what it keeps.
type Build<T> = fn(name: &str, bases: &[u8], quality: &[u8]) -> T;

fn whole_record(name: &str, bases: &[u8], quality: &[u8]) -> FastqRecord {
    FastqRecord { name: name.to_string(), bases: bases.to_vec(), quality: quality.to_vec() }
}

fn bases_only(_name: &str, bases: &[u8], _quality: &[u8]) -> Vec<u8> {
    bases.to_vec()
}

/// Parses a FASTQ stream into a fully materialized vector.
///
/// Streaming consumers that must not hold the whole file in memory should
/// use [`FastqReader`] (record at a time) or [`FastqBatches`] (batch at a
/// time) instead; all of them share the same parser.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] for malformed records: missing `@`/`+`
/// markers, truncated records, a blank sequence line, or a quality line
/// whose length differs from the sequence line. Sequences are validated
/// against the read alphabet (`ACGT` plus `N`): a bad byte yields
/// [`Error::Corrupt`] naming the record and position, so malformed input
/// surfaces as an error at intake instead of a panic inside a mapping
/// worker.
pub fn read_fastq<R: Read>(input: R) -> Result<Vec<FastqRecord>> {
    FastqReader::new(BufReader::new(input)).collect()
}

/// Parses a FASTQ stream keeping only the base sequences — the mapping
/// pipeline's input shape. Accepts and rejects exactly what [`read_fastq`]
/// does (same parser, same errors), but a record's name and quality string
/// are checked where they were read and never copied.
///
/// # Errors
///
/// As [`read_fastq`].
pub fn read_fastq_bases<R: Read>(input: R) -> Result<Vec<Vec<u8>>> {
    let mut reader = FastqReader::new(BufReader::new(input));
    std::iter::from_fn(|| reader.next_with(bases_only)).collect()
}

/// A streaming FASTQ parser: an iterator of `Result<FastqRecord>` over any
/// [`BufRead`], holding one record in memory at a time.
///
/// The iterator fuses after the first error (malformed input yields one
/// `Err`, then `None`), matching [`read_fastq`]'s stop-at-first-error
/// behavior.
#[derive(Debug)]
pub struct FastqReader<R: BufRead> {
    reader: R,
    lineno: usize,
    /// Line buffers reused for every record: the header (the record's name
    /// is read out of it until the record is done), the sequence, and the
    /// separator and then the quality.
    header: String,
    seq: String,
    line: String,
    failed: bool,
}

impl<R: BufRead> FastqReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        FastqReader {
            reader,
            lineno: 0,
            header: String::new(),
            seq: String::new(),
            line: String::new(),
            failed: false,
        }
    }

    /// Groups this reader's records into batches of up to `batch_size`.
    pub fn batches(self, batch_size: usize) -> FastqBatches<R> {
        FastqBatches::new(self, batch_size, whole_record)
    }

    /// Groups this reader's base sequences into batches of up to
    /// `batch_size` — the shape the streaming mapping path consumes. Every
    /// record is checked exactly as [`FastqReader::batches`] checks it, in
    /// the reader's own line buffers; the bases are the one allocation per
    /// record.
    pub fn base_batches(self, batch_size: usize) -> FastqBatches<R, Vec<u8>> {
        FastqBatches::new(self, batch_size, bases_only)
    }

    /// The next record as `build` makes it; `None` at end of stream and
    /// after the first error.
    fn next_with<T>(&mut self, build: Build<T>) -> Option<Result<T>> {
        if self.failed {
            return None;
        }
        match self.parse_record(build) {
            Ok(Some(item)) => Some(Ok(item)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    /// Parses the next record, or `Ok(None)` at end of stream.
    ///
    /// This is the single parsing core behind every entry point — records,
    /// bases, whole file or batches — so they agree on records, errors, and
    /// error positions by construction.
    fn parse_record<T>(&mut self, build: Build<T>) -> Result<Option<T>> {
        let FastqReader { reader, lineno, header, seq, line, .. } = self;
        loop {
            header.clear();
            if reader.read_line(header)? == 0 {
                return Ok(None);
            }
            *lineno += 1;
            if !header.trim_end().is_empty() {
                break;
            }
            // Blank lines between records (and trailing ones) are tolerated.
        }
        let header_line = header.trim_end();
        let name = header_line
            .strip_prefix('@')
            .ok_or_else(|| {
                Error::Corrupt(format!("line {lineno}: expected '@', got {header_line:?}"))
            })?
            .split_whitespace()
            .next()
            .unwrap_or("");
        seq.clear();
        if reader.read_line(seq)? == 0 {
            return Err(Error::Corrupt(format!("record {name:?}: missing sequence line")));
        }
        *lineno += 1;
        let bases = seq.trim_end().as_bytes();
        if bases.is_empty() {
            // A blank sequence line is a four-line record with zero bases; its
            // empty quality line passes the length check, so without this the
            // zero-length read flows all the way into the mapping kernels.
            return Err(Error::Corrupt(format!("record {name:?}: blank sequence line")));
        }
        if let Err(Error::InvalidBase { byte, pos }) = mg_graph::dna::validate_read_bases(bases) {
            return Err(Error::Corrupt(format!(
                "record {name:?}: invalid base {:?} at position {pos}",
                byte as char
            )));
        }
        line.clear();
        if reader.read_line(line)? == 0 || !line.starts_with('+') {
            return Err(Error::Corrupt(format!("record {name:?}: missing '+' separator")));
        }
        *lineno += 1;
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(Error::Corrupt(format!("record {name:?}: missing quality line")));
        }
        *lineno += 1;
        let quality = line.trim_end().as_bytes();
        if quality.len() != bases.len() {
            return Err(Error::Corrupt(format!(
                "record {name:?}: {} quality values for {} bases",
                quality.len(),
                bases.len()
            )));
        }
        Ok(Some(build(name, bases, quality)))
    }
}

impl<R: BufRead> Iterator for FastqReader<R> {
    type Item = Result<FastqRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_with(whole_record)
    }
}

/// Batched view of a [`FastqReader`]: yields `Ok(Vec<T>)` chunks of up to
/// `batch_size` records — whole [`FastqRecord`]s from
/// [`FastqReader::batches`], base sequences from
/// [`FastqReader::base_batches`] — the unit the streaming mapping path
/// hands across its bounded queue, with constant memory in the input size.
///
/// Records parsed before a malformed one are flushed as a final short
/// `Ok` batch, then the error is yielded, then the iterator fuses.
#[derive(Debug)]
pub struct FastqBatches<R: BufRead, T = FastqRecord> {
    reader: FastqReader<R>,
    build: Build<T>,
    batch_size: usize,
    pending_err: Option<Error>,
}

impl<R: BufRead, T> FastqBatches<R, T> {
    fn new(reader: FastqReader<R>, batch_size: usize, build: Build<T>) -> Self {
        FastqBatches { reader, build, batch_size: batch_size.max(1), pending_err: None }
    }
}

impl<R: BufRead, T> Iterator for FastqBatches<R, T> {
    type Item = Result<Vec<T>>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.pending_err.take() {
            return Some(Err(e));
        }
        let mut batch = Vec::new();
        while batch.len() < self.batch_size {
            match self.reader.next_with(self.build) {
                Some(Ok(item)) => batch.push(item),
                Some(Err(e)) => {
                    if batch.is_empty() {
                        return Some(Err(e));
                    }
                    // Flush the good prefix; yield the error next call.
                    self.pending_err = Some(e);
                    return Some(Ok(batch));
                }
                None => break,
            }
        }
        if batch.is_empty() { None } else { Some(Ok(batch)) }
    }
}

/// Writes simulated reads to a FASTQ file, deriving per-base qualities from
/// the simulator's error model (constant Q37-ish with injected-error bases
/// marked low).
///
/// # Errors
///
/// Returns filesystem errors.
pub fn save_reads_fastq(
    path: impl AsRef<Path>,
    reads: &[crate::reads::SimulatedRead],
    set_name: &str,
) -> Result<()> {
    let records: Vec<FastqRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| {
            FastqRecord::with_uniform_quality(
                format!("{set_name}.{i} hap={} origin={} strand={}", r.haplotype, r.origin, if r.reverse { '-' } else { '+' }),
                r.bases.clone(),
                b'F', // Phred+33 Q37, NovaSeq-style
            )
        })
        .collect();
    let file = BufWriter::new(std::fs::File::create(path)?);
    write_fastq(file, &records)
}

/// Loads just the base sequences from a FASTQ file (the parent pipeline's
/// input shape).
///
/// # Errors
///
/// Returns IO and format errors.
pub fn load_read_bases(path: impl AsRef<Path>) -> Result<Vec<Vec<u8>>> {
    read_fastq_bases(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<FastqRecord> {
        vec![
            FastqRecord {
                name: "read0".into(),
                bases: b"ACGTACGT".to_vec(),
                quality: b"FFFFFFFF".to_vec(),
            },
            FastqRecord {
                name: "read1".into(),
                bases: b"GGGN".to_vec(),
                quality: b"FF!#".to_vec(),
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let records = sample();
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        assert_eq!(read_fastq(&buf[..]).unwrap(), records);
    }

    #[test]
    fn empty_stream_is_empty() {
        assert!(read_fastq(&b""[..]).unwrap().is_empty());
    }

    #[test]
    fn name_stops_at_whitespace() {
        let text = b"@read7 extra metadata\nACGT\n+\nFFFF\n";
        let records = read_fastq(&text[..]).unwrap();
        assert_eq!(records[0].name, "read7");
    }

    #[test]
    fn malformed_inputs_rejected() {
        // Missing @.
        assert!(read_fastq(&b"read\nACGT\n+\nFFFF\n"[..]).is_err());
        // Missing + line.
        assert!(read_fastq(&b"@r\nACGT\nFFFF\n"[..]).is_err());
        // Quality length mismatch.
        assert!(read_fastq(&b"@r\nACGT\n+\nFF\n"[..]).is_err());
        // Truncated mid-record.
        assert!(read_fastq(&b"@r\nACGT\n"[..]).is_err());
    }

    #[test]
    fn invalid_bases_are_an_error_not_a_panic() {
        // Regression: garbage bases used to sail through intake and abort a
        // mapping worker via dna::complement's panic. They must be rejected
        // here, with the record and offset named.
        let err = read_fastq(&b"@r\nAC!T\n+\nFFFF\n"[..]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid base"), "got: {msg}");
        assert!(msg.contains("'!'"), "got: {msg}");
        assert!(msg.contains("position 2"), "got: {msg}");
        // Lowercase bases are also outside the accepted alphabet.
        assert!(read_fastq(&b"@r\nacgt\n+\nFFFF\n"[..]).is_err());
        // N remains legal in reads.
        assert!(read_fastq(&b"@r\nACGN\n+\nFFFF\n"[..]).is_ok());
    }

    #[test]
    fn trailing_blank_lines_tolerated() {
        let text = b"@r\nAC\n+\nFF\n\n\n";
        assert_eq!(read_fastq(&text[..]).unwrap().len(), 1);
    }

    #[test]
    fn blank_sequence_line_rejected() {
        // Regression: a record whose sequence line is blank used to pass
        // (empty bases + empty quality satisfy the length check), sending a
        // zero-length read into the mapping kernels.
        let err = read_fastq(&b"@empty\n\n+\n\n"[..]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("blank sequence line"), "got: {msg}");
        assert!(msg.contains("\"empty\""), "error must name the record: {msg}");
        // Also rejected mid-file, after a good record.
        let err = read_fastq(&b"@a\nAC\n+\nFF\n@b\n\n+\n\n@c\nGG\n+\nFF\n"[..]).unwrap_err();
        assert!(err.to_string().contains("\"b\""), "got: {err}");
        // A blank line *between* records is still tolerated.
        let ok = read_fastq(&b"@a\nAC\n+\nFF\n\n@b\nGG\n+\nFF\n"[..]).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn streaming_reader_agrees_with_batch_reader() {
        let mut buf = Vec::new();
        write_fastq(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(b"\n@last one\nACGT\n+\nFFFF\n");
        let batch = read_fastq(&buf[..]).unwrap();
        let streamed: Vec<FastqRecord> = FastqReader::new(&buf[..])
            .collect::<Result<Vec<FastqRecord>>>()
            .unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn streaming_reader_fuses_after_error() {
        let text = b"@a\nAC\n+\nFF\n@b\nAC\n+\nF\n@c\nGG\n+\nFF\n";
        let mut reader = FastqReader::new(&text[..]);
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("\"b\""), "got: {err}");
        assert!(reader.next().is_none(), "reader must fuse after an error");
    }

    #[test]
    fn batches_chunk_and_flush_before_error() {
        let mut buf = Vec::new();
        for i in 0..7 {
            buf.extend_from_slice(format!("@r{i}\nACGT\n+\nFFFF\n").as_bytes());
        }
        let sizes: Vec<usize> = FastqReader::new(&buf[..])
            .batches(3)
            .map(|b| b.unwrap().len())
            .collect();
        assert_eq!(sizes, vec![3, 3, 1]);

        // A malformed third record: the good prefix arrives as a short Ok
        // batch, then the error, then the iterator fuses.
        let text = b"@a\nAC\n+\nFF\n@b\nGG\n+\nFF\n@c\nA!\n+\nFF\n";
        let mut batches = FastqReader::new(&text[..]).batches(8);
        assert_eq!(batches.next().unwrap().unwrap().len(), 2);
        assert!(batches.next().unwrap().is_err());
        assert!(batches.next().is_none());
    }

    #[test]
    fn simulated_reads_roundtrip_through_files() {
        let haps = vec![crate::genome::random_genome(
            &crate::genome::GenomeParams { len: 500, repeat_fraction: 0.0, repeat_len: 1 },
            3,
        )];
        let reads = crate::reads::simulate_single(
            &haps,
            10,
            &crate::reads::ReadSimParams { read_len: 80, ..Default::default() },
            3,
        );
        let dir = std::env::temp_dir().join(format!("mg-fastq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fq");
        save_reads_fastq(&path, &reads, "test").unwrap();
        let bases = load_read_bases(&path).unwrap();
        assert_eq!(bases.len(), 10);
        for (loaded, sim) in bases.iter().zip(&reads) {
            assert_eq!(loaded, &sim.bases);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
