//! The five workloads: what each runs, on what input, and why it is here.
//!
//! Read counts are frozen: they were tuned once so a pass lasts about 1.5 s
//! on the 2-core box the benchmark was written on, and every later commit is
//! measured on the same inputs.

use mg_workload::InputSetSpec;

/// Which `minigiraffe` subcommand a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `map <dump.bin> --mgi … --out …`: the proxy kernels on a seed dump.
    Map,
    /// `parent <reads.fastq> --mgi … --stream 512 --gaf …`.
    Stream,
    /// `parent <reads.fastq> <graph.mgz> --gaf …`: in-memory batch path.
    Batch,
    /// `serve --mgi … --paired true` with closed-loop TCP clients.
    Serve,
}

/// One workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    /// The paper input set whose pangenome shape this workload uses.
    pub graph: fn() -> InputSetSpec,
    /// Reads in one pass (serve: reads in the pool of distinct job payloads).
    pub reads: usize,
    pub read_len: usize,
    /// Per-base substitution rate of the read simulator.
    pub error_rate: f64,
    /// `--threads` of the measured command; serve also uses it as the
    /// client count. Never above `nproc` of the box this was tuned on (2).
    pub threads: usize,
    /// Reads the in-process ledger runs on (a prefix of the pass input).
    pub trace_reads: usize,
    /// Lowest share of reads that must be placed on their source haplotype
    /// for a run to count as correct; a floor well under the measured value,
    /// there to catch an output that is wrong wholesale.
    pub min_placed_pct: f64,
}

/// Reads per serve job (500 pairs).
pub const SERVE_JOB_READS: usize = 1000;
/// Jobs each serve client runs back to back in one pass.
pub const SERVE_JOBS_PER_CLIENT_PASS: usize = 16;
/// Ingestion batch of the streaming workloads (`--stream`).
pub const STREAM_BATCH: usize = 512;
/// Reads per ledger chunk: one span per (chunk, layer).
pub const CHUNK_READS: usize = 512;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "proxy-yeast-t1",
        why: "The paper's proxy, single-threaded: cluster, extend and CachedGBWT are nearly all of the wall and seeding, FASTQ and GAF do no work, so kernel changes show undiluted and I/O changes must not move it.",
        kind: Kind::Map,
        graph: InputSetSpec::b_yeast,
        reads: 90_000,
        read_len: 150,
        error_rate: 0.002,
        threads: 1,
        trace_reads: 60_000,
        min_placed_pct: 97.0,
    },
    Workload {
        name: "stream-hprc-t2",
        why: "Full FASTQ-to-GAF streaming on the largest graph with two workers and overlapped parsing: extension-dominated, the headline throughput and the only CLI case that scales across threads.",
        kind: Kind::Stream,
        graph: InputSetSpec::d_hprc,
        reads: 90_000,
        read_len: 148,
        error_rate: 0.002,
        threads: 2,
        trace_reads: 40_000,
        min_placed_pct: 97.0,
    },
    Workload {
        name: "stream-short-t2",
        why: "Many cheap 75 bp reads on a small graph: per-read kernel time is so low that parsing, chunk dispatch, allocation and GAF rendering are about half the CPU, so driver and I/O work shows here.",
        kind: Kind::Stream,
        graph: InputSetSpec::b_yeast,
        reads: 280_000,
        read_len: 75,
        error_rate: 0.002,
        threads: 2,
        trace_reads: 120_000,
        min_placed_pct: 95.0,
    },
    Workload {
        name: "batch-noisy-t1",
        why: "4% error reads through the in-memory batch path from a .mgz: extensions die early, seeding and the gapped-tail fallback weigh most, some reads stay unmapped; index build and batch memory show here.",
        kind: Kind::Batch,
        graph: InputSetSpec::b_yeast,
        reads: 90_000,
        read_len: 150,
        error_rate: 0.04,
        threads: 1,
        trace_reads: 60_000,
        min_placed_pct: 80.0,
    },
    Workload {
        name: "serve-paired-c2",
        why: "Resident server under two closed-loop TCP clients sending 1000-read paired jobs: the only path through framing, admission, chunk interleave and socket writes, and the only reachable paired-end path.",
        kind: Kind::Serve,
        graph: InputSetSpec::c_hprc,
        reads: 64 * SERVE_JOB_READS,
        read_len: 148,
        error_rate: 0.002,
        threads: 2,
        trace_reads: 32 * SERVE_JOB_READS,
        min_placed_pct: 97.0,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `count` scaled for `--quick`, kept even (pairs) and, for serve, a
    /// whole number of jobs.
    pub fn scaled(&self, count: usize, scale: f64) -> usize {
        let n = ((count as f64 * scale).round() as usize).max(2);
        match self.kind {
            Kind::Serve => n.div_ceil(SERVE_JOB_READS).max(2) * SERVE_JOB_READS,
            _ => n.next_multiple_of(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_meet_the_benchmark_contract() {
        let mut names = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(names.insert(w.name), "duplicate workload {}", w.name);
            assert!(w.name.len() <= 64);
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                w.why.is_ascii() && w.why.len() <= 200,
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(
                w.threads <= 2,
                "{} would oversubscribe the 2-core box",
                w.name
            );
            assert!(w.trace_reads <= w.reads);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn scaling_keeps_pairs_and_whole_jobs() {
        let serve = by_name("serve-paired-c2").unwrap();
        assert_eq!(serve.scaled(serve.reads, 1.0), serve.reads);
        assert_eq!(serve.scaled(serve.reads, 0.05) % SERVE_JOB_READS, 0);
        let short = by_name("stream-short-t2").unwrap();
        assert_eq!(short.scaled(short.reads, 0.05) % 2, 0);
        assert!(by_name("nope").is_none());
    }
}
