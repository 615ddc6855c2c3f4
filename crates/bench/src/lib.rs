//! Shared utilities for the figure-regeneration binaries
//! (`src/bin/figNN.rs`) and the experiment binaries.
//!
//! Each binary regenerates the data series of one figure of the paper;
//! see `DESIGN.md` for the figure → binary index. The binaries that
//! run the simulator parse their command line through [`BenchArgs`]:
//!
//! * `--full` — the paper-scale SSD (428 blocks/chip ≈ 32 GB),
//! * `--smoke` — a tiny CI-scale run,
//! * `--requests N` — override the simulated request count,
//! * (default) — the reduced scale (64 blocks/chip), which preserves the
//!   topology and FTL behaviour at laptop runtimes,
//! * `--out PATH` — where a binary writes a result file,
//!
//! and exit non-zero on anything else.

use cubeftl::harness::{EvalConfig, RunOutput, Scenario, WorkloadSource};
use cubeftl::{AgingState, FtlConfig, FtlKind, SimReport};
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

/// The parsed command line of a bench binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// The evaluation scale — paper (`--full`), CI (`--smoke`) or the
    /// reduced default — with `--requests N` applied.
    pub cfg: EvalConfig,
    /// Whether `--full` chose the paper scale.
    pub full: bool,
    /// `--out PATH`: where to write the binary's result file.
    pub out: Option<String>,
}

impl BenchArgs {
    /// Parses the process arguments: `--full | --smoke | --requests N`,
    /// and `--out PATH` for a binary that `writes_a_file`. Anything
    /// else is reported on stderr and the process exits with status 2.
    pub fn parse(writes_a_file: bool) -> Self {
        Self::try_parse(std::env::args().skip(1), writes_a_file).unwrap_or_else(|e| {
            let out = if writes_a_file { " [--out PATH]" } else { "" };
            eprintln!("{e}\nflags: [--full | --smoke] [--requests N]{out}");
            std::process::exit(2)
        })
    }

    fn try_parse(
        mut args: impl Iterator<Item = String>,
        writes_a_file: bool,
    ) -> Result<Self, String> {
        let mut parsed = BenchArgs {
            cfg: EvalConfig::reduced(),
            full: false,
            out: None,
        };
        let mut requests = None;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--full" => (parsed.cfg, parsed.full) = (EvalConfig::paper(), true),
                "--smoke" => (parsed.cfg, parsed.full) = (EvalConfig::smoke(), false),
                "--requests" => {
                    let v = value()?;
                    let n = v.parse::<u64>();
                    requests = Some(n.map_err(|_| format!("--requests: {v:?} is not a count"))?);
                }
                "--out" if writes_a_file => parsed.out = Some(value()?),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        parsed.cfg.requests = requests.unwrap_or(parsed.cfg.requests);
        Ok(parsed)
    }
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
    fn bench_args_reject_what_they_do_not_know() {
        let parse = |line: &str, writes_a_file| {
            BenchArgs::try_parse(line.split_whitespace().map(str::to_owned), writes_a_file)
        };
        let ok = parse("--smoke --requests 300 --out f.csv", true).unwrap();
        assert_eq!(ok.cfg.requests, 300);
        assert_eq!(ok.cfg.blocks_per_chip, EvalConfig::smoke().blocks_per_chip);
        assert_eq!((ok.out.as_deref(), ok.full), (Some("f.csv"), false));
        assert!(parse("--full", false).unwrap().full);
        for bad in [
            "--smok",
            "--requests",
            "--requests many",
            "--out f.csv",
            "extra",
        ] {
            assert!(parse(bad, false).is_err(), "{bad} must be rejected");
        }
        assert!(parse("--out", true).is_err(), "--out needs its path");
    }

    #[test]
    fn exemplars_are_usable() {
        let chip = paper_chip();
        let ex = exemplar_layers(&chip);
        assert_eq!(ex[0].1, 0);
        assert_eq!(ex[3].1, 47);
    }
}
