//! Shared pieces of the experiments the `bench` binary runs
//! (`src/main.rs`, one module per experiment under `src/exp/`);
//! `DESIGN.md` has the figure → experiment index. An experiment is said
//! once, through three things this crate owns:
//!
//! **The sweep.** An experiment that runs the simulator names its cells
//! as labelled [`Scenario`]s and hands them to [`Sweep::run`], which runs
//! them in order through [`run`]. What it reports is one [`Columns`]
//! list over its row type (a [`Cell`], an epoch of one, a tenant of
//! one, …): a column is one entry — the table header, the name in the
//! result file if it is written there, and the extractor — so the
//! printed [`Columns::table`] and the [`Columns::file_table`] cannot
//! drift apart, and adding a column is a one-line diff. A number
//! carries the two precisions it is shown at ([`num2`]: table, file). Orderings between
//! cells are asserted through [`assert_order`], whose message names
//! both cells. Double-run and thread-count byte-identity are *not*
//! re-proved here: `tests/{kv,lifetime,qos,retry_cluster,array}.rs`
//! own those.
//!
//! **The one `--out` rule.** [`write_out`] is the only place this crate
//! writes a file, and an experiment calls it exactly when `--out PATH`
//! names the file; [`write_curve`] is it plus the `curve written to`
//! echo. Everything else an experiment prints goes to stdout.
//!
//! **One measurement per anchor.** Each scalar anchor of the paper is
//! measured once, in [`anchors`], on the population of the figure that
//! regenerates it: that figure, `summary` and `tests/paper_anchors.rs`
//! all call the same function, so no anchor has a second sampling.
//! Underneath, the device-level protocols take their population as an
//! argument:
//!
//! * [`delta_h_of`] / [`delta_v_of`] — per-h-layer ΔH and per-block ΔV
//!   of a chip at `(P/E, months)`: Fig. 5, Fig. 6, `campaign`;
//! * [`program_blocks`] — erase and program every WL of the given
//!   blocks in one program order: Fig. 13, Fig. 14, the retry fractions;
//! * [`read_passes`] — the PS-unaware vs ORT-seeded read pass: Fig. 14,
//!   the retry fractions.

pub mod anchors;

use cubeftl::harness::{EvalConfig, RunOutput, Scenario, WorkloadSource};
use cubeftl::{AgingState, FtlKind, ProgramOrder, SimReport, StandardWorkload};
use ftl::Opm;
use nand3d::{delta_h, delta_v, BlockId, NandChip, NandConfig, ProgramParams, ReadParams, WlData};
use std::fmt::{Debug, Display};

/// Seed used by every figure (reproducible output).
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

/// Runs a scenario an experiment assembled itself: a rejection is a bug
/// in that experiment, so it panics with the reason.
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

/// A fresh cubeFTL cell under `workload` with `blocks` active blocks per
/// chip (the §5.2 memory/availability trade-off); GC keeps at least one
/// free block per write point.
pub fn active_blocks_cell(workload: StandardWorkload, blocks: usize, cfg: &EvalConfig) -> Scenario {
    let mut cfg = cfg.clone();
    cfg.ftl.active_blocks_per_chip = blocks;
    cfg.ftl.gc_free_block_threshold = cfg.ftl.gc_free_block_threshold.max(blocks);
    Scenario::new(FtlKind::Cube, workload, AgingState::Fresh, &cfg)
}

/// One executed cell of a [`Sweep`].
#[derive(Debug)]
pub struct Cell<L> {
    /// What the experiment calls the cell (`"eager"`, `(batch, gap)`, …).
    pub label: L,
    /// Everything the cell's scenario produced.
    pub out: RunOutput,
    /// Host wall-clock time of the run, ms — informational, never
    /// asserted and never written to a file.
    pub wall_ms: f64,
}

impl<L> Cell<L> {
    /// The cell's device report ([`RunOutput::sim`]).
    pub fn sim(&self) -> &SimReport {
        self.out.sim()
    }
}

/// An experiment as a value: labelled scenarios, run in order.
#[derive(Debug)]
pub struct Sweep<L> {
    /// The executed cells, in the order they were given.
    pub cells: Vec<Cell<L>>,
}

impl<L: PartialEq + Debug> Sweep<L> {
    /// Runs every scenario through [`run`], in order.
    pub fn run(cells: impl IntoIterator<Item = (L, Scenario)>) -> Self {
        let run_cell = |(label, sc)| {
            let wall = std::time::Instant::now();
            let out = run(&sc);
            let wall_ms = wall.elapsed().as_secs_f64() * 1000.0;
            Cell {
                label,
                out,
                wall_ms,
            }
        };
        Sweep {
            cells: cells.into_iter().map(run_cell).collect(),
        }
    }

    /// The cell labelled `label`.
    pub fn cell(&self, label: &L) -> &Cell<L> {
        let found = self.cells.iter().find(|c| c.label == *label);
        found.unwrap_or_else(|| panic!("the sweep has no cell labelled {label:?}"))
    }
}

/// One value of a [`Columns`] column.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Shown as is, in the table and in the file.
    Text(String),
    /// A number with the decimals it takes in the table and in the file.
    Num(f64, usize, usize),
}

/// A [`Val::Text`] of anything printable (labels, counters).
pub fn text(v: impl Display) -> Val {
    Val::Text(v.to_string())
}

/// A number shown with `decimals` decimals everywhere.
pub fn num(v: f64, decimals: usize) -> Val {
    Val::Num(v, decimals, decimals)
}

/// A number shown with `table` decimals in the printed table and `file`
/// decimals in the result file.
pub fn num2(v: f64, table: usize, file: usize) -> Val {
    Val::Num(v, table, file)
}

/// What an experiment reports about rows of type `R`, each quantity
/// declared once: its header in the printed table, its name in the
/// result file (`""` keeps it out of either) and how it is read off a
/// row.
pub struct Columns<'a, R>(Vec<Column<'a, R>>);

struct Column<'a, R> {
    head: &'a str,
    file: &'a str,
    get: Box<dyn Fn(&R) -> Val + 'a>,
}

impl<R> Default for Columns<'_, R> {
    fn default() -> Self {
        Columns(Vec::new())
    }
}

impl<'a, R> Columns<'a, R> {
    /// Adds a column of the printed table only.
    pub fn col(&mut self, head: &'a str, get: impl Fn(&R) -> Val + 'a) {
        self.out_col(head, "", get);
    }

    /// Adds a column headed `head` in the printed table and named
    /// `file` in the result file.
    pub fn out_col(&mut self, head: &'a str, file: &'a str, get: impl Fn(&R) -> Val + 'a) {
        let get = Box::new(get);
        self.0.push(Column { head, file, get });
    }

    /// The printed table of `rows`: every column with a header.
    pub fn table(&self, rows: &[R]) -> Table {
        self.tabulate(rows, false)
    }

    /// The result file of `rows` ([`Table::csv`] renders it): every
    /// column with a file name.
    pub fn file_table(&self, rows: &[R]) -> Table {
        self.tabulate(rows, true)
    }

    fn tabulate(&self, rows: &[R], file: bool) -> Table {
        let name = |c: &Column<'a, R>| if file { c.file } else { c.head };
        let cols: Vec<_> = self.0.iter().filter(|c| !name(c).is_empty()).collect();
        let mut t = Table::new(cols.iter().map(|c| name(c)));
        for row in rows {
            t.row(cols.iter().map(|c| match (c.get)(row) {
                Val::Text(s) => s,
                Val::Num(v, table, f) => format!("{v:.*}", if file { f } else { table }),
            }));
        }
        t
    }
}

/// Asserts `a < b` or `a <= b` (`rel` is `"<"` or `"<="`) between two
/// labelled measurements of `what`; the message names both and their
/// values.
pub fn assert_order(what: &str, a: (impl Debug, f64), rel: &str, b: (impl Debug, f64)) {
    let holds = match rel {
        "<" => a.1 < b.1,
        "<=" => a.1 <= b.1,
        _ => panic!("assert_order relates by \"<\" or \"<=\", not {rel:?}"),
    };
    let (la, lb) = (a.0, b.0);
    assert!(
        holds,
        "{what}: {la:?} = {} {rel} {lb:?} = {} must hold",
        a.1, b.1
    );
}

/// Writes a result file — the one place an experiment touches the
/// filesystem. A failure is reported and exits with status 1.
pub fn write_out(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// [`write_out`] for a curve CSV where `--out PATH` names one (`out`),
/// echoing where it went.
pub fn write_curve(out: Option<&str>, curve: &Table) {
    if let Some(path) = out {
        write_out(path, &curve.csv());
        println!("\ncurve written to {path}");
    }
}

/// ΔH of every `(block, h-layer)` pair in `blocks` × `hlayers` on `chip`
/// aged to `(pe, months)`, block-major.
pub fn delta_h_of(
    chip: &NandChip,
    blocks: impl IntoIterator<Item = u32>,
    hlayers: impl IntoIterator<Item = u16> + Clone,
    (pe, months): (u32, f64),
) -> Vec<f64> {
    let (g, rel) = (chip.geometry(), chip.reliability());
    let ber = |b, h, v| rel.ber(chip.process(), g.wl_addr(BlockId(b), h, v), pe, months);
    let of_layer = |b, h| {
        let bers: Vec<f64> = (0..g.wls_per_hlayer).map(|v| ber(b, h, v)).collect();
        delta_h(&bers)
    };
    let of_block = |b| hlayers.clone().into_iter().map(move |h| of_layer(b, h));
    blocks.into_iter().flat_map(of_block).collect()
}

/// ΔV (over the leading WL of every h-layer) of each of `blocks` on
/// `chip` aged to `(pe, months)`.
pub fn delta_v_of(
    chip: &NandChip,
    blocks: impl IntoIterator<Item = u32>,
    (pe, months): (u32, f64),
) -> Vec<f64> {
    let (g, rel) = (chip.geometry(), chip.reliability());
    let ber = |b, h| rel.ber(chip.process(), g.wl_addr(BlockId(b), h, 0), pe, months);
    let of_block = |b| {
        let bers: Vec<f64> = (0..g.hlayers_per_block).map(|h| ber(b, h)).collect();
        delta_v(&bers)
    };
    blocks.into_iter().map(of_block).collect()
}

/// Erases each of `blocks` and programs every WL of it in `order` under
/// the default parameters; the post-program BER of each WL, in program
/// order.
pub fn program_blocks(
    chip: &mut NandChip,
    blocks: impl IntoIterator<Item = BlockId>,
    order: ProgramOrder,
) -> Vec<f64> {
    let g = *chip.geometry();
    let mut bers = Vec::new();
    for block in blocks {
        chip.erase(block).expect("block in range");
        for wl in order.sequence(&g, block) {
            let report = chip.program_wl(wl, WlData::host(0), &ProgramParams::default());
            bers.push(report.expect("erased WL").post_ber);
        }
    }
    bers
}

/// `NumRetry` of one population read by both schemes ([`read_passes`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NumRetry {
    /// Page reads per scheme.
    pub reads: u64,
    /// Total retries of the PS-unaware reads.
    pub unaware: u64,
    /// Total retries of the PS-aware reads.
    pub aware: u64,
    /// PS-unaware reads by retry count (bucket 7 holds 7 and more).
    pub unaware_hist: [u64; 8],
    /// PS-aware reads by retry count.
    pub aware_hist: [u64; 8],
}

impl NumRetry {
    /// The PS-aware reads' `NumRetry` reduction, as a fraction.
    pub fn reduction(&self) -> f64 {
        1.0 - self.aware as f64 / self.unaware as f64
    }
}

/// The Fig. 14 protocol: reads every page of `blocks` back twice, each
/// time once from the default references (PS-unaware) and once from its
/// h-layer's entry in a fresh ORT, which the outcome updates (PS-aware)
/// — so the second pass starts at the optimum.
pub fn read_passes(chip: &mut NandChip, blocks: &[BlockId]) -> NumRetry {
    let g = *chip.geometry();
    let mut opm = Opm::new(&g, 1);
    let mut n = NumRetry::default();
    for _pass in 0..2 {
        for wl in blocks.iter().flat_map(|&b| g.wls_of_block(b)) {
            for page in g.pages_of_wl(wl) {
                let r = chip.read_page(page, ReadParams::default());
                let unaware = r.expect("written page").retries;
                let start = ReadParams::from_offset(opm.read_offset(0, wl));
                let r = chip.read_page(page, start).expect("written page");
                opm.update_read_offset(0, wl, r.final_offset);
                n.reads += 1;
                n.unaware += u64::from(unaware);
                n.aware += u64::from(r.retries);
                n.unaware_hist[(unaware as usize).min(7)] += 1;
                n.aware_hist[(r.retries as usize).min(7)] += 1;
            }
        }
    }
    n
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

    /// The table as CSV: the header line, then one line per row.
    pub fn csv(&self) -> String {
        let lines = std::iter::once(&self.headers).chain(&self.rows);
        lines.map(|cells| cells.join(",") + "\n").collect()
    }

    /// Appends the rows of `other`, a table under the same headers.
    pub fn append(&mut self, other: Table) {
        assert_eq!(self.headers, other.headers, "appended table's headers");
        self.rows.extend(other.rows);
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
    fn one_column_list_yields_the_table_and_the_file() {
        let mut cols = Columns::<(&str, f64)>::default();
        cols.out_col("cell", "label", |r| text(r.0));
        cols.out_col("IOPS", "iops", |r| num2(r.1, 0, 2));
        cols.col("x2", |r| num(r.1 * 2.0, 1));
        cols.out_col("", "raw", |r| text(r.1));
        let rows = [("a", 1.256), ("b", 20.0)];
        let shown = cols.table(&rows).render();
        assert_eq!(
            shown.lines().collect::<Vec<_>>(),
            [
                "cell  IOPS  x2",
                "----------------",
                "a     1     2.5",
                "b     20    40.0"
            ]
        );
        // A column without a file name is absent from the header and
        // from every line; each precision is the file's own.
        let file = cols.file_table(&rows).csv();
        assert_eq!(file, "label,iops,raw\na,1.26,1.256\nb,20.00,20\n");
        for line in file.lines() {
            assert_eq!(line.split(',').count(), 3, "arity of {line:?}");
        }
    }

    #[test]
    fn appending_needs_the_same_header() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        let mut more = Table::new(["a", "b"]);
        more.row(["3", "4"]);
        t.append(more);
        assert_eq!(t.csv(), "a,b\n1,2\n3,4\n");
        let other = std::panic::catch_unwind(move || t.append(Table::new(["a", "c"])));
        assert!(other.is_err(), "a different header must be refused");
    }

    #[test]
    #[should_panic(expected = "NumRetry: (\"eol\", 2) = 7 < \"fresh\" = 3 must hold")]
    fn a_broken_ordering_names_both_cells_and_values() {
        assert_order("NumRetry", ("fresh", 3.0), "<", ("eol", 7.0));
        assert_order("NumRetry", ("fresh", 3.0), "<=", ("fresh", 3.0));
        assert_order("NumRetry", (("eol", 2), 7.0), "<", ("fresh", 3.0));
    }

    #[test]
    fn a_sweep_runs_its_cells_in_order_and_finds_them_by_label() {
        let cfg = EvalConfig {
            requests: 200,
            ..EvalConfig::smoke()
        };
        let cell = |kind| {
            Scenario::new(
                kind,
                cubeftl::StandardWorkload::Oltp,
                AgingState::Fresh,
                &cfg,
            )
        };
        let sweep = Sweep::run([FtlKind::Cube, FtlKind::Page].map(|kind| (kind, cell(kind))));
        let labels: Vec<FtlKind> = sweep.cells.iter().map(|c| c.label).collect();
        assert_eq!(labels, [FtlKind::Cube, FtlKind::Page]);
        assert_eq!(sweep.cell(&FtlKind::Page).sim().completed, 200);
        let page = eval(
            FtlKind::Page,
            cubeftl::StandardWorkload::Oltp,
            AgingState::Fresh,
            &cfg,
        );
        assert_eq!(sweep.cell(&FtlKind::Page).sim().iops, page.iops);
        let missing = std::panic::catch_unwind(|| sweep.cell(&FtlKind::Vert).wall_ms);
        assert!(missing.is_err(), "an unknown label must not resolve");
    }

    /// A small chip (8 blocks x 8 h-layers x 4 WLs x 3 pages).
    fn small_chip() -> NandChip {
        NandChip::new(NandConfig::small(), FIGURE_SEED)
    }

    #[test]
    fn delta_h_and_delta_v_follow_their_definitions_over_the_given_population() {
        let chip = small_chip();
        let (pe, months) = (1000, 6.0);
        let ber = |b, h, v| {
            let wl = chip.geometry().wl_addr(BlockId(b), h, v);
            chip.reliability().ber(chip.process(), wl, pe, months)
        };
        let ratio = |bers: Vec<f64>| {
            let max = bers.iter().cloned().fold(f64::MIN, f64::max);
            max / bers.iter().cloned().fold(f64::MAX, f64::min)
        };
        // Block-major over blocks {1, 5} x h-layers {0, 3}.
        let dhs = delta_h_of(&chip, [1, 5], [0, 3], (pe, months));
        let want: Vec<f64> = [(1, 0), (1, 3), (5, 0), (5, 3)]
            .map(|(b, h)| ratio((0..4).map(|v| ber(b, h, v)).collect()))
            .to_vec();
        assert_eq!(dhs, want);
        // ΔV spans the leading WL of all 8 h-layers of each block.
        let dvs = delta_v_of(&chip, [2, 7], (pe, months));
        let want = [2, 7].map(|b| ratio((0..8).map(|h| ber(b, h, 0)).collect()));
        assert_eq!(dvs, want);
        assert!(dvs.iter().all(|&dv| dv > 1.0), "layers differ: {dvs:?}");
    }

    #[test]
    fn program_blocks_erases_then_writes_every_wl_of_each_block() {
        let mut chip = small_chip();
        let blocks = [BlockId(1), BlockId(6)];
        for order in ProgramOrder::ALL {
            // The second and third rounds only work if each block is
            // erased first.
            let bers = program_blocks(&mut chip, blocks, order);
            assert_eq!(bers.len(), 2 * 8 * 4, "one BER per WL of two blocks");
            assert!(bers.iter().all(|&b| b > 0.0));
        }
        let g = *chip.geometry();
        for wl in blocks.iter().flat_map(|&b| g.wls_of_block(b)) {
            let page = g.pages_of_wl(wl).next().expect("a WL has pages");
            assert!(chip.read_page(page, ReadParams::default()).is_ok());
        }
        let untouched = g.page_addr(BlockId(0), 0, 0, 0);
        assert!(chip.read_page(untouched, ReadParams::default()).is_err());
    }

    #[test]
    fn read_passes_count_every_page_once_per_scheme_and_pass() {
        let mut chip = small_chip();
        let blocks = [BlockId(2), BlockId(3)];
        program_blocks(&mut chip, blocks, ProgramOrder::HorizontalFirst);
        // Fresh cells decode at the default references: no retries.
        let pages = 2 * 8 * 4 * 3;
        let fresh = read_passes(&mut chip, &blocks);
        let mut want = NumRetry {
            reads: 2 * pages,
            ..NumRetry::default()
        };
        want.unaware_hist[0] = 2 * pages;
        want.aware_hist[0] = 2 * pages;
        assert_eq!(fresh, want);

        // Aged cells retry; the ORT removes most of the second pass's.
        chip.set_aging(AgingState::EndOfLife);
        let aged = read_passes(&mut chip, &blocks);
        assert_eq!(aged.reads, 2 * pages);
        assert_eq!(aged.unaware_hist.iter().sum::<u64>(), aged.reads);
        assert_eq!(aged.aware_hist.iter().sum::<u64>(), aged.reads);
        assert!(aged.unaware > 0, "end-of-life reads must retry");
        assert!(aged.aware < aged.unaware, "{aged:?}");
    }

    #[test]
    fn exemplars_are_usable() {
        let chip = paper_chip();
        let ex = exemplar_layers(&chip);
        assert_eq!(ex[0].1, 0);
        assert_eq!(ex[3].1, 47);
    }
}
