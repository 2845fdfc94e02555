//! The metric vocabulary: every name the benchmark prints, with its unit
//! and direction, and the one-line JSON result the PR driver reads.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    // Reads in the input over wall time from child spawn to exit (serve:
    // first SUBMIT to last DONE); median over the timed passes.
    e2e("reads_per_s", "reads/s", Better::Higher, 0.25),
    // Child VmHWM; median over the timed passes.
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20),
    // Reads whose first output record lies on the haplotype interval they
    // were simulated from, over all reads.
    e2e("placed_pct", "%", Better::Higher, 0.02),
    // Index container build plus a launch of the workload's exact command
    // on a 2-read input (serve: spawn to first PONG); median over reps.
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single layers, from the traced run. Named `<module>.<metric>`.
pub const PER_LAYER: [MetricDef; 31] = [
    layer("workload.fastq.ns_per_read", "ns/read", Better::Lower),
    layer("workload.fastq.bytes_per_s", "B/s", Better::Higher),
    layer("index.minimizer.ns_per_read", "ns/read", Better::Lower),
    layer(
        "index.minimizer.seeds_per_read",
        "seeds/read",
        Better::Lower,
    ),
    layer("core.cluster.ns_per_read", "ns/read", Better::Lower),
    layer(
        "core.cluster.clusters_per_read",
        "clusters/read",
        Better::Lower,
    ),
    layer("core.extend.ns_per_read", "ns/read", Better::Lower),
    layer("core.extend.extensions_per_read", "ext/read", Better::Lower),
    layer("gbwt.cache.hit_ratio", "ratio", Better::Higher),
    layer("gbwt.cache.decodes_per_read", "decodes/read", Better::Lower),
    layer("gbwt.cache.rehashes", "count", Better::Lower),
    layer("parent.post.ns_per_read", "ns/read", Better::Lower),
    layer(
        "parent.post.tail_fallbacks_per_read",
        "fallbacks/read",
        Better::Lower,
    ),
    layer("parent.pair.ns_per_read", "ns/read", Better::Lower),
    layer("parent.gaf.ns_per_read", "ns/read", Better::Lower),
    layer("parent.gaf.gaf_bytes_per_read", "B/read", Better::Lower),
    layer("parent.driver.ns_per_read", "ns/read", Better::Lower),
    layer("parent.driver.share", "ratio", Better::Lower),
    layer("alloc.count_per_read", "allocs/read", Better::Lower),
    layer("alloc.bytes_per_read", "B/read", Better::Lower),
    layer("sched.efficiency_t2", "ratio", Better::Higher),
    layer("server.accept_ms_p50", "ms", Better::Lower),
    layer("server.first_gaf_ms_p50", "ms", Better::Lower),
    layer("server.job_ms_p50", "ms", Better::Lower),
    layer("server.job_ms_p95", "ms", Better::Lower),
    layer("server.busy_rejects", "count", Better::Lower),
    layer("server.overhead_share", "ratio", Better::Lower),
    layer("support.mgi.open_ms", "ms", Better::Lower),
    layer("support.mgi.build_ms", "ms", Better::Lower),
    layer("ledger.wall_ns_per_read", "ns/read", Better::Lower),
    layer("trace_overhead_pct", "%", Better::Lower),
];

/// Named values of one run, in definition order.
pub type Values = Vec<(&'static str, f64)>;

pub fn value_of(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// The last line of a run's standard output.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, def) in defs.iter().enumerate() {
        let v = value_of(values, def.name);
        assert!(v.is_finite(), "metric {} has no finite value", def.name);
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest decimal that reads back as the same f64:
        // the value as measured, with all its digits.
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            def.name, def.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(legal_name(def.name), "name {:?}", def.name);
            assert!(legal_unit(def.unit), "unit {:?} of {}", def.unit, def.name);
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
        }
        for w in &WORKLOADS {
            assert!(
                seen.insert(w.name),
                "workload {} reuses a metric name",
                w.name
            );
        }
        for def in &END_TO_END {
            assert!(
                def.bound > 0.0 && def.bound <= 0.25,
                "{} bound {}",
                def.name,
                def.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    #[test]
    fn benchmark_json_lists_exactly_these() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = json.split_whitespace().collect();
        for w in &WORKLOADS {
            let why = w.why.replace('"', "\\\"");
            let entry = format!("{{\"name\":\"{}\",\"why\":\"{}\"}}", w.name, why);
            let entry: String = entry.split_whitespace().collect();
            assert!(
                flat.contains(&entry),
                "BENCHMARK.json lacks workload entry {entry}"
            );
        }
        assert_eq!(flat.matches("\"why\":").count(), WORKLOADS.len());
        for def in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                def.name,
                def.unit,
                def.better.as_str(),
                def.bound
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for def in &PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                def.name,
                def.unit,
                def.better.as_str()
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            flat.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let defs = [
            e2e("a", "ms", Better::Lower, 0.1),
            e2e("b.c", "1/s", Better::Higher, 0.1),
        ];
        let values: Values = vec![("a", 1.2034567891), ("b.c", 3.0)];
        let line = result_line(&defs, &values, true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \"b.c\": {\"value\": 3, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
