//! GAF output: the Graph Alignment Format Giraffe emits.
//!
//! GAF is the graph analog of PAF: one tab-separated line per alignment
//! with the path written as `>`/`<`-oriented node steps. The parent
//! pipeline renders its alignments as GAF so downstream pangenome tools
//! (and eyeballs) can consume them.
//!
//! Rendering appends straight into a caller-owned byte buffer: the chunk
//! workers render each fragment they finish into a buffer their thread
//! keeps, so a line costs no heap allocation once that buffer has grown to
//! the thread's share of a chunk. [`chunk_to_gaf_into`] and the
//! `String`-returning functions render a captured run through the same
//! writer.

use mg_core::types::Extension;
use mg_graph::{Handle, Orientation};

use crate::align::Alignment;

/// Appends `v` in decimal. Shared with the CLI's CSV writer: one integer
/// renderer for every text output, no `format!` per field.
pub fn push_uint(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `v` in decimal, with a leading `-` when negative.
pub fn push_int(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_uint(out, v.unsigned_abs());
}

/// Appends a tab, then `v` in decimal.
fn push_field(out: &mut Vec<u8>, v: u64) {
    out.push(b'\t');
    push_uint(out, v);
}

fn push_path(out: &mut Vec<u8>, path: &[Handle]) {
    for h in path {
        out.push(match h.orientation() {
            Orientation::Forward => b'>',
            Orientation::Reverse => b'<',
        });
        push_uint(out, h.node().value());
    }
}

fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("GAF is built from str and ASCII pieces")
}

/// Appends every column after the read name (each with its leading tab):
/// read length, read start, read end, strand, path, path length, path
/// start, path end, matches, alignment block length, mapq, then the
/// `AS`/`NM`/`pp` typed tags and, when present, `cg`.
fn push_columns(
    out: &mut Vec<u8>,
    graph: &mg_graph::VariationGraph,
    read_len: usize,
    alignment: &Alignment,
    extension: &Extension,
) {
    let path_len: usize = extension
        .path
        .iter()
        .map(|h| graph.node_len(h.node()))
        .sum();
    let block = (alignment.read_end - alignment.read_start) as usize;
    let matches = block - alignment.mismatches as usize;
    let path_start = extension.pos.offset as usize;
    let path_end = (path_start + block).min(path_len);
    push_field(out, read_len as u64);
    push_field(out, u64::from(alignment.read_start));
    push_field(out, u64::from(alignment.read_end));
    out.extend_from_slice(match extension.pos.handle.orientation() {
        Orientation::Forward => b"\t+\t",
        Orientation::Reverse => b"\t-\t",
    });
    push_path(out, &extension.path);
    push_field(out, path_len as u64);
    push_field(out, path_start as u64);
    push_field(out, path_end as u64);
    push_field(out, matches as u64);
    push_field(out, block as u64);
    push_field(out, u64::from(alignment.mapq));
    out.extend_from_slice(b"\tAS:i:");
    push_int(out, i64::from(alignment.score));
    out.extend_from_slice(b"\tNM:i:");
    push_uint(out, u64::from(alignment.mismatches));
    out.extend_from_slice(if alignment.properly_paired { b"\tpp:A:1" } else { b"\tpp:A:0" });
    if let Some(cigar) = &alignment.tail_cigar {
        out.extend_from_slice(b"\tcg:Z:");
        out.extend_from_slice(cigar.as_bytes());
    }
}

/// Appends one read's GAF lines to `out`: one per alignment whose extension
/// is found in `result`, the read's *un-rescued* kernel output — an
/// alignment a rescued mate brought along has no extension there and emits
/// nothing. The chunk workers render through here as each fragment
/// finishes; [`chunk_to_gaf_into`] loops over it.
pub(crate) fn read_to_gaf_into(
    graph: &mg_graph::VariationGraph,
    set_name: &str,
    read_len: usize,
    result: &mg_core::types::ReadResult,
    alignments: &[Alignment],
    out: &mut Vec<u8>,
) {
    for alignment in alignments {
        // Find the extension this alignment came from. The gapped tail
        // fallback may have advanced read_end past the extension's, so
        // match on start + position only.
        let Some(extension) = result.extensions.iter().find(|e| {
            e.read_start == alignment.read_start && e.pos == alignment.pos
        }) else {
            continue;
        };
        out.extend_from_slice(set_name.as_bytes());
        out.push(b'.');
        push_uint(out, result.read_id);
        push_columns(out, graph, read_len, alignment, extension);
        out.push(b'\n');
    }
}

/// Appends one mapped chunk's GAF text to `out`, one line per emitted
/// alignment, unmapped reads skipped. `reads`, `kernel_results`, and
/// `alignments` are parallel slices covering reads
/// `base_id..base_id + reads.len()` of the run (read names stay global:
/// `{set_name}.{read_id}`), so per-chunk output concatenates to exactly the
/// batch [`run_to_gaf`] text.
pub fn chunk_to_gaf_into(
    graph: &mg_graph::VariationGraph,
    set_name: &str,
    base_id: u64,
    reads: &[mg_core::types::ReadInput],
    kernel_results: &[mg_core::types::ReadResult],
    alignments: &[Vec<Alignment>],
    out: &mut Vec<u8>,
) {
    for (result, alignments) in kernel_results.iter().zip(alignments) {
        let read_len = reads[(result.read_id - base_id) as usize].bases.len();
        read_to_gaf_into(graph, set_name, read_len, result, alignments, out);
    }
}

/// [`chunk_to_gaf_into`] into a fresh `String`.
pub fn chunk_to_gaf(
    graph: &mg_graph::VariationGraph,
    set_name: &str,
    base_id: u64,
    reads: &[mg_core::types::ReadInput],
    kernel_results: &[mg_core::types::ReadResult],
    alignments: &[Vec<Alignment>],
) -> String {
    let mut out = Vec::new();
    chunk_to_gaf_into(graph, set_name, base_id, reads, kernel_results, alignments, &mut out);
    into_text(out)
}

/// Renders a whole run (alignments zipped with their kernel extensions) as
/// GAF text, one line per emitted alignment, unmapped reads skipped.
pub fn run_to_gaf(graph: &mg_graph::VariationGraph, run: &crate::ParentRun, set_name: &str) -> String {
    chunk_to_gaf(
        graph,
        set_name,
        0,
        &run.dump.reads,
        &run.kernel_results,
        &run.alignments,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Parent, ParentOptions};
    use mg_graph::NodeId;
    use mg_workload::{InputSetSpec, SyntheticInput};

    #[test]
    fn integers_render_like_display() {
        for v in [0i64, 7, -7, 10, 99, 100, i64::from(i32::MIN), i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            push_int(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
        let mut out = Vec::new();
        push_uint(&mut out, u64::MAX);
        assert_eq!(out, u64::MAX.to_string().as_bytes());
    }

    #[test]
    fn path_syntax() {
        let path = vec![
            Handle::forward(NodeId::new(12)),
            Handle::reverse(NodeId::new(13)),
            Handle::forward(NodeId::new(14)),
        ];
        let mut out = Vec::new();
        push_path(&mut out, &path);
        assert_eq!(out, b">12<13>14");
        out.clear();
        push_path(&mut out, &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn full_run_renders_valid_gaf() {
        let input = SyntheticInput::generate(&InputSetSpec::tiny_for_tests(), 8);
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let run = parent.run(&reads, &ParentOptions::default());
        let gaf = run_to_gaf(input.gbz.graph(), &run, "tiny");
        assert!(!gaf.is_empty());
        for line in gaf.lines() {
            let cols: Vec<&str> = line.split('\t').collect();
            assert!(cols.len() >= 12, "GAF line has {} columns: {line}", cols.len());
            // Read length and coordinates are consistent.
            let read_len: usize = cols[1].parse().unwrap();
            let start: usize = cols[2].parse().unwrap();
            let end: usize = cols[3].parse().unwrap();
            assert!(start < end && end <= read_len, "{line}");
            // Strand column and path syntax.
            assert!(cols[4] == "+" || cols[4] == "-");
            assert!(cols[5].starts_with('>') || cols[5].starts_with('<'));
            // Matches never exceed the block length.
            let matches: usize = cols[9].parse().unwrap();
            let block: usize = cols[10].parse().unwrap();
            assert!(matches <= block);
            // Tags present.
            assert!(line.contains("AS:i:"));
            assert!(line.contains("NM:i:"));
        }
        // Every line corresponds to an emitted alignment.
        assert_eq!(gaf.lines().count(), run.total_alignments());
    }
}

#[cfg(test)]
mod tail_gaf_tests {
    use super::*;
    use crate::{Parent, ParentOptions};
    use mg_workload::{InputSetSpec, SyntheticInput};

    #[test]
    fn tail_extended_alignments_stay_in_gaf() {
        // Error-dense 150 bp reads force trimmed extensions + gapped tails;
        // every emitted alignment must still render (the fallback changes
        // read_end, which must not break extension matching).
        let mut spec = InputSetSpec::tiny_for_tests();
        spec.read_sim.read_len = 150;
        spec.read_sim.error_rate = 0.04;
        let input = SyntheticInput::generate(&spec, 29);
        let parent = Parent::new(&input.gbz, &input.minimizer_index, input.spec.workflow);
        let reads: Vec<Vec<u8>> = input.sim_reads.iter().map(|r| r.bases.clone()).collect();
        let run = parent.run(&reads, &ParentOptions::default());
        let gaf = run_to_gaf(input.gbz.graph(), &run, "e");
        assert_eq!(gaf.lines().count(), run.total_alignments());
        // The fallback fires at this read length, error rate and seed, and
        // every tail CIGAR reaches the GAF.
        let tails = run
            .alignments
            .iter()
            .flatten()
            .filter(|a| a.tail_cigar.is_some())
            .count();
        assert!(tails > 0, "no alignment used the gapped tail fallback");
        assert_eq!(gaf.matches("cg:Z:").count(), tails, "tail CIGARs must reach the GAF");
    }
}
