//! Input generation: everything a run reads is made here from `--seed`.
//!
//! The pangenome, the reads and their order all derive from the one seed;
//! the measured program only ever sees the files written here. A smaller
//! read count yields a prefix of a larger one (the simulator draws reads in
//! sequence), which is how the traced run works on the head of the same
//! input the end-to-end run maps.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use mg_core::types::{ReadInput, Seed, Workflow};
use mg_core::SeedDump;
use mg_workload::reads::{simulate_paired, simulate_single};
use mg_workload::{ReadSimParams, SimulatedRead, SyntheticInput};

use crate::truth::{ReadOrigin, Truth};
use crate::workloads::{Kind, Workload, SERVE_JOB_READS};

/// `hard_hit_cap` of the parent pipeline; the dump is seeded the same way
/// so `map` sees what `parent` would have computed.
const HARD_HIT_CAP: usize = 64;

/// The generated files and the truth that goes with them.
pub struct Inputs {
    /// The pangenome, as the `.mgz` every index is built from.
    pub mgz: PathBuf,
    /// Where `minigiraffe build-mgi` is told to put the container.
    pub mgi: PathBuf,
    /// The pass input: `.bin` seed dump (map) or `.fastq` (parent). Empty
    /// for serve, whose input travels in `payloads`.
    pub reads_path: PathBuf,
    /// The first two reads in the same format, for set-up launches.
    pub tiny_path: PathBuf,
    /// Serve only: one FASTQ document per distinct job.
    pub payloads: Vec<Vec<u8>>,
    pub origins: Vec<ReadOrigin>,
    pub truth: Truth,
    /// Bytes of read input one pass consumes.
    pub input_bytes: u64,
}

fn io_err(what: &str, path: &Path, e: impl std::fmt::Display) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Reads as FASTQ, named `r<index>`, constant quality.
fn fastq_bytes(reads: &[SimulatedRead], first_index: usize, out: &mut Vec<u8>) {
    for (i, r) in reads.iter().enumerate() {
        writeln!(out, "@r{}", first_index + i).expect("write to Vec");
        out.extend_from_slice(&r.bases);
        out.extend_from_slice(b"\n+\n");
        out.resize(out.len() + r.bases.len(), b'F');
        out.push(b'\n');
    }
}

fn write_fastq(path: &Path, reads: &[SimulatedRead]) -> Result<u64, String> {
    let file = std::fs::File::create(path).map_err(|e| io_err("creating", path, e))?;
    let mut out = std::io::BufWriter::new(file);
    let mut buf = Vec::with_capacity(1 << 20);
    let mut total = 0u64;
    for (c, chunk) in reads.chunks(2048).enumerate() {
        buf.clear();
        fastq_bytes(chunk, c * 2048, &mut buf);
        out.write_all(&buf)
            .map_err(|e| io_err("writing", path, e))?;
        total += buf.len() as u64;
    }
    out.flush().map_err(|e| io_err("flushing", path, e))?;
    Ok(total)
}

fn write_dump(path: &Path, input: &SyntheticInput, reads: &[SimulatedRead]) -> Result<u64, String> {
    let reads = reads
        .iter()
        .map(|r| ReadInput {
            bases: r.bases.clone(),
            seeds: input
                .minimizer_index
                .query(&r.bases, HARD_HIT_CAP)
                .into_iter()
                .map(|(off, pos)| Seed::new(off, pos))
                .collect(),
        })
        .collect();
    SeedDump::new(Workflow::Single, reads)
        .save(path)
        .map_err(|e| io_err("writing", path, e))?;
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| io_err("stat", path, e))
}

/// Generates workload `w`'s input with `reads` reads into `dir`.
pub fn generate(w: &Workload, seed: u64, reads: usize, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
    // Only the pangenome and its index are wanted from the input-set
    // generator; reads are simulated below with this workload's own length
    // and error rate, without seeding a dump nobody maps.
    let mut spec = (w.graph)();
    spec.reads = 2;
    let input = SyntheticInput::try_generate(&spec, seed).map_err(|e| format!("pangenome: {e}"))?;
    let mgz = dir.join("graph.mgz");
    input
        .gbz
        .save(&mgz)
        .map_err(|e| io_err("writing", &mgz, e))?;
    let (truth, hap_seqs) = Truth::from_gbz(&input.gbz)?;

    let sim = ReadSimParams {
        read_len: w.read_len,
        error_rate: w.error_rate,
        ..spec.read_sim
    };
    let sim_reads = match w.kind {
        Kind::Serve => simulate_paired(&hap_seqs, reads / 2, &sim, seed),
        _ => simulate_single(&hap_seqs, reads, &sim, seed),
    };
    let origins: Vec<ReadOrigin> = sim_reads.iter().map(ReadOrigin::from).collect();

    let ext = if w.kind == Kind::Map { "bin" } else { "fastq" };
    let reads_path = dir.join(format!("reads.{ext}"));
    let tiny_path = dir.join(format!("tiny.{ext}"));
    let mut payloads = Vec::new();
    let input_bytes = match w.kind {
        Kind::Map => {
            write_dump(&tiny_path, &input, &sim_reads[..2])?;
            write_dump(&reads_path, &input, &sim_reads)?
        }
        Kind::Stream | Kind::Batch => {
            write_fastq(&tiny_path, &sim_reads[..2])?;
            write_fastq(&reads_path, &sim_reads)?
        }
        Kind::Serve => {
            for job in sim_reads.chunks(SERVE_JOB_READS) {
                let mut bytes = Vec::new();
                fastq_bytes(job, 0, &mut bytes);
                payloads.push(bytes);
            }
            payloads.iter().map(|p| p.len() as u64).sum()
        }
    };
    Ok(Inputs {
        mgz,
        mgi: dir.join("graph.mgi"),
        reads_path,
        tiny_path,
        payloads,
        origins,
        truth,
        input_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    fn scratch(tag: &str) -> PathBuf {
        crate::test_dir(&format!("inputs-{tag}"))
    }

    #[test]
    fn same_seed_same_bytes_and_smaller_is_a_prefix() {
        let w = by_name("stream-short-t2").unwrap();
        let (a, b, c) = (scratch("a"), scratch("b"), scratch("c"));
        let ia = generate(w, 5, 400, &a).unwrap();
        let ib = generate(w, 5, 400, &b).unwrap();
        let ic = generate(w, 5, 100, &c).unwrap();
        let fa = std::fs::read(&ia.reads_path).unwrap();
        assert_eq!(fa, std::fs::read(&ib.reads_path).unwrap());
        assert_eq!(
            std::fs::read(&ia.mgz).unwrap(),
            std::fs::read(&ic.mgz).unwrap()
        );
        let fc = std::fs::read(&ic.reads_path).unwrap();
        assert_eq!(&fa[..fc.len()], &fc[..]);
        assert_eq!(ia.origins[..100], ic.origins[..]);
        assert_eq!(ia.input_bytes, fa.len() as u64);
        let other = generate(w, 6, 100, &c).unwrap();
        assert_ne!(std::fs::read(&other.reads_path).unwrap(), fc);
        for d in [a, b, c] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn serve_payloads_are_whole_paired_jobs() {
        let w = by_name("serve-paired-c2").unwrap();
        let dir = scratch("serve");
        let inputs = generate(w, 9, 3 * SERVE_JOB_READS, &dir).unwrap();
        assert_eq!(inputs.payloads.len(), 3);
        assert_eq!(inputs.origins.len(), 3 * SERVE_JOB_READS);
        for p in &inputs.payloads {
            assert_eq!(p.iter().filter(|&&b| b == b'@').count(), SERVE_JOB_READS);
        }
        // Mates share a haplotype.
        assert_eq!(inputs.origins[0].haplotype, inputs.origins[1].haplotype);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
