//! Shared utilities for the figure-regeneration binaries
//! (`src/bin/figNN.rs`) and the Criterion benches.
//!
//! Each binary regenerates the data series of one figure of the paper;
//! see `DESIGN.md` for the figure → binary index. The binaries accept:
//!
//! * `--full` — the paper-scale SSD (428 blocks/chip ≈ 32 GB),
//! * `--smoke` — a tiny CI-scale run,
//! * `--requests N` — override the simulated request count,
//! * (default) — the reduced scale (64 blocks/chip), which preserves the
//!   topology and FTL behaviour at laptop runtimes.

use cubeftl::harness::{EvalConfig, RunOutput, Scenario, WorkloadSource};
use cubeftl::{AgingState, FtlConfig, FtlKind, MetricRegistry, SimReport};
use nand3d::{NandChip, NandConfig};

/// Seed used by every figure binary (reproducible output).
pub const FIGURE_SEED: u64 = 2019;

/// A paper-configuration chip for characterization figures.
pub fn paper_chip() -> NandChip {
    NandChip::new(NandConfig::paper(), FIGURE_SEED)
}

/// The paper's exemplar h-layers on `chip`: (label, layer index) for
/// (α, β, κ, ω) — top edge, most reliable, mid-stack rugged, bottom edge.
pub fn exemplar_layers(chip: &NandChip) -> [(&'static str, u16); 4] {
    let [a, b, k, o] = chip.process().exemplar_layers();
    [
        ("h-layer_alpha", a),
        ("h-layer_beta", b),
        ("h-layer_kappa", k),
        ("h-layer_omega", o),
    ]
}

/// Runs a scenario a binary assembled itself: a rejection is a bug in
/// that binary, so it panics with the reason.
pub fn run(sc: &Scenario) -> RunOutput {
    sc.run()
        .unwrap_or_else(|e| panic!("scenario rejected: {e}"))
}

/// One plain single-device evaluation cell: its device report.
pub fn eval(
    kind: FtlKind,
    workload: impl Into<WorkloadSource>,
    aging: AgingState,
    cfg: &EvalConfig,
) -> SimReport {
    run(&Scenario::new(kind, workload, aging, cfg)).into_sim()
}

/// [`eval`] under an explicit FTL configuration — the entry point of
/// the ablation studies (μ_TH sweeps, active-block counts, …).
pub fn eval_custom(
    kind: FtlKind,
    workload: impl Into<WorkloadSource>,
    aging: AgingState,
    cfg: &EvalConfig,
    ftl_cfg: FtlConfig,
) -> SimReport {
    run(&Scenario {
        ftl: Some(ftl_cfg),
        ..Scenario::new(kind, workload, aging, cfg)
    })
    .into_sim()
}

/// Parses the common CLI flags of the figure binaries.
pub fn eval_config_from_args() -> EvalConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = if args.iter().any(|a| a == "--full") {
        EvalConfig::paper()
    } else if args.iter().any(|a| a == "--smoke") {
        EvalConfig::smoke()
    } else {
        EvalConfig::reduced()
    };
    if let Some(i) = args.iter().position(|a| a == "--requests") {
        if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
            cfg.requests = n;
        }
    }
    cfg
}

/// Version stamp shared by every `BENCH_*.json` artifact. Bump it when
/// an entry is renamed or its meaning changes so downstream consumers
/// (the CI regression-warning step, local diff scripts) can tell a
/// schema break from a real perf shift.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Writes a `BENCH_<name>.json` perf artifact: the registry exported
/// through the metrics exporter (name-sorted NDJSON, one object per
/// line — the schema of every other telemetry export). This seeds the
/// perf trajectory ROADMAP item 4 asks for: each bench binary registers
/// its headline numbers plus a `bench.wall_ms` gauge, CI uploads the
/// files, and successive runs form the baseline for regression gates.
///
/// Every artifact carries `bench.schema_version` =
/// [`BENCH_SCHEMA_VERSION`], injected here so individual binaries
/// cannot drift out of step.
///
/// The file lands in `$BENCH_JSON_DIR` when set, else the current
/// directory. Returns the path written.
pub fn write_bench_json(name: &str, reg: &mut MetricRegistry) -> std::path::PathBuf {
    reg.counter("bench.schema_version", BENCH_SCHEMA_VERSION);
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_owned());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    std::fs::write(&path, reg.to_ndjson())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    // stderr, so binaries with machine-readable stdout (active_sweep)
    // can export without polluting their pipe output.
    eprintln!("\nperf export written to {}", path.display());
    path
}

/// A minimal fixed-width text-table printer for figure output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a ratio as `x.xx`.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats with three decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Prints a figure banner to stderr — for binaries whose stdout is a
/// machine-readable export (e.g. `active_sweep`'s metrics NDJSON).
pub fn banner_err(title: &str) {
    eprintln!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["layer", "BER"]);
        t.row(["h-layer_alpha", "1.00"]);
        t.row(["β", "0.52"]);
        let s = t.render();
        assert!(s.contains("layer"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn exemplars_are_usable() {
        let chip = paper_chip();
        let ex = exemplar_layers(&chip);
        assert_eq!(ex[0].1, 0);
        assert_eq!(ex[3].1, 47);
    }
}
