//! Experiment harnesses reproducing every table and figure of the paper.
//!
//! Each experiment is a function in [`experiments`]; the `exp_*` binaries
//! are thin wrappers, and `run_all` executes the full evaluation. Results
//! print as the paper's tables/series and are also written as CSV under
//! `results/`.
//!
//! ```sh
//! cargo run --release -p mg-bench --bin exp_table6_runtime
//! cargo run --release -p mg-bench --bin run_all
//! ```
//!
//! Scale and seed come from the environment: `MG_SEED` (default 42) and
//! `MG_SCALE` (default 1.0, multiplies read counts).

#![forbid(unsafe_code)]

pub mod experiments;

use std::io::Write as _;
use std::path::PathBuf;

use mg_workload::{InputSetSpec, SyntheticInput};

/// Shared configuration for all experiments.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed for synthetic generation.
    pub seed: u64,
    /// Multiplier on input read counts.
    pub scale: f64,
    /// Directory CSV outputs land in.
    pub out_dir: PathBuf,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            seed: 42,
            scale: 1.0,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl Ctx {
    /// Reads `MG_SEED` / `MG_SCALE` / `MG_OUT` from the environment.
    pub fn from_env() -> Self {
        let mut ctx = Ctx::default();
        if let Ok(seed) = std::env::var("MG_SEED") {
            ctx.seed = seed.parse().expect("MG_SEED must be an integer");
        }
        if let Ok(scale) = std::env::var("MG_SCALE") {
            ctx.scale = scale.parse().expect("MG_SCALE must be a float");
        }
        if let Ok(out) = std::env::var("MG_OUT") {
            ctx.out_dir = PathBuf::from(out);
        }
        ctx
    }

    /// Generates one of the paper's input sets at this context's scale.
    pub fn generate(&self, spec: &InputSetSpec) -> SyntheticInput {
        let spec = spec.clone().scaled(self.scale);
        SyntheticInput::generate(&spec, self.seed)
    }

    /// Writes a CSV file under the results directory; also returns the
    /// path. Errors are escalated: the harness should fail loudly.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        let mut file = std::fs::File::create(&path).expect("create csv");
        writeln!(file, "{header}").expect("write csv");
        for row in rows {
            writeln!(file, "{row}").expect("write csv");
        }
        path
    }
}

/// Extracts the raw read sequences of a synthetic input (the parent
/// pipeline's input shape).
pub fn parent_reads(input: &SyntheticInput) -> Vec<Vec<u8>> {
    input.sim_reads.iter().map(|r| r.bases.clone()).collect()
}

/// Full-scale memory requirement (GiB) each input set would need, after
/// Table III / §VII-A: the smallest input needs 32 GB; D-HPRC exceeds the
/// 256 GB machines.
pub fn required_memory_gb(name: &str) -> f64 {
    match name {
        "A-human" => 40.0,
        "B-yeast" => 20.0,
        "C-HPRC" => 60.0,
        "D-HPRC" => 290.0,
        _ => 16.0,
    }
}

/// Target simulated task counts per input set (≈ paper read counts / 10,
/// the tuning subsample, capped for simulation speed). Keeping relative
/// order (D ≫ B > C > A) preserves batch-granularity effects.
pub fn sim_task_target(name: &str) -> usize {
    match name {
        "A-human" => 100_000,
        "B-yeast" => 240_000,
        "C-HPRC" => 160_000,
        "D-HPRC" => 360_000,
        _ => 50_000,
    }
}

/// Tile factor turning `tasks` measured reads into ≈ `target` simulated
/// tasks.
pub fn tile_factor(tasks: usize, target: usize) -> usize {
    (target / tasks.max(1)).max(1)
}

/// Renders an aligned text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_defaults() {
        let ctx = Ctx::default();
        assert_eq!(ctx.seed, 42);
        assert_eq!(ctx.scale, 1.0);
    }

    #[test]
    fn memory_requirements_shape() {
        assert!(required_memory_gb("D-HPRC") > 256.0);
        assert!(required_memory_gb("A-human") < 256.0);
        assert!(required_memory_gb("B-yeast") >= 16.0);
    }

    #[test]
    fn sim_targets_keep_relative_order() {
        assert!(sim_task_target("D-HPRC") > sim_task_target("B-yeast"));
        assert!(sim_task_target("B-yeast") > sim_task_target("A-human"));
    }

    #[test]
    fn tile_factor_never_zero() {
        assert_eq!(tile_factor(0, 100), 100);
        assert_eq!(tile_factor(50, 100), 2);
        assert_eq!(tile_factor(1000, 100), 1);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("333"));
    }

    #[test]
    fn csv_write_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mg-bench-{}", std::process::id()));
        let ctx = Ctx { out_dir: dir.clone(), ..Default::default() };
        let path = ctx.write_csv("t.csv", "a,b", &["1,2".to_string()]);
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
