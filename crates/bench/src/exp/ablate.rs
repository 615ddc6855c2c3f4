//! Ablation studies of cubeFTL's design choices (the knobs DESIGN.md
//! calls out) plus the ambient-temperature extension.
//!
//! 1. `μ_TH` — the WAM's burst threshold (§5.2).
//! 2. Write-buffer size — the backpressure knee of Fig. 18(a).
//! 3. Ambient-disturbance rate — cost of the §4.1.4 safety path.
//! 4. Ambient temperature (extension; cf. HeatWatch \[40\]).
//!
//! The active-blocks-per-chip trade-off of §5.2 is `active_sweep`'s,
//! across four workloads.
//!
//! Run with: `cargo run --release -p bench -- ablate`

use bench::{banner, num, text, Cell, Columns, Sweep, Table};
use cubeftl::harness::{EvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, StandardWorkload};

/// The host write-latency percentile `pct` of a cell, ms.
fn write_ms<L>(c: &Cell<L>, pct: f64) -> f64 {
    c.sim().write_latency.percentile(pct) / 1000.0
}

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    // A cubeFTL cell under `workload`, with the evaluation
    // configuration (its FTL included) varied by the section.
    let cube = |workload, aging, cfg: &EvalConfig| Scenario::new(FtlKind::Cube, workload, aging, cfg);
    let (fresh, rocks) = (AgingState::Fresh, StandardWorkload::Rocks);

    // ---- 1. μ_TH sweep --------------------------------------------------
    banner("ablation 1 — WAM burst threshold μ_TH (Rocks, fresh)");
    let sweep = Sweep::run([0.0, 0.5, 0.8, 0.9, 0.99].map(|mu| {
        let mut c = cfg.clone();
        c.ftl.mu_threshold = mu;
        (mu, cube(rocks, fresh, &c))
    }));
    let mut cols = Columns::<Cell<f64>>::default();
    cols.col("μ_TH", |c| text(c.label));
    cols.col("IOPS", |c| num(c.sim().iops, 0));
    cols.col("p90 write (ms)", |c| num(write_ms(c, 90.0), 3));
    cols.col("follower share", |c| {
        let ftl = &c.sim().ftl;
        let share = ftl.follower_wl_programs as f64 / ftl.host_wl_programs.max(1) as f64;
        num(share, 2)
    });
    cols.table(&sweep.cells).print();
    println!("(μ_TH = 0 spends followers immediately; μ_TH ≈ 1 never banks for bursts;");
    println!(" the paper's 0.9 balances burst absorption against leader availability)");

    // ---- 2. write-buffer size --------------------------------------------
    banner("ablation 2 — write-buffer size (Rocks, fresh)");
    let sweep = Sweep::run([16usize, 48, 128, 256].map(|pages| {
        let mut c = cfg.clone();
        c.ssd.buffer_pages = pages;
        (pages, cube(rocks, fresh, &c))
    }));
    let mut cols = Columns::<Cell<usize>>::default();
    cols.col("buffer (pages)", |c| text(c.label));
    cols.col("IOPS", |c| num(c.sim().iops, 0));
    cols.col("p50 write (ms)", |c| num(write_ms(c, 50.0), 3));
    cols.col("p90 write (ms)", |c| num(write_ms(c, 90.0), 3));
    cols.table(&sweep.cells).print();

    // ---- 3. disturbance rate ---------------------------------------------
    banner("ablation 3 — ambient disturbance rate (Mail, mid-life)");
    let sweep = Sweep::run([0.0, 0.002, 0.01, 0.05].map(|p| {
        let mut c = cfg.clone();
        c.disturbance_prob = p;
        let (mail, midlife) = (StandardWorkload::Mail, AgingState::MidLife);
        (p, cube(mail, midlife, &c))
    }));
    let mut cols = Columns::<Cell<f64>>::default();
    cols.col("P(disturbance)", |c| text(c.label));
    cols.col("IOPS", |c| num(c.sim().iops, 0));
    cols.col("safety re-programs", |c| {
        text(c.sim().ftl.safety_reprograms)
    });
    cols.table(&sweep.cells).print();
    println!("(the §4.1.4 safety check turns rare condition changes into re-programs");
    println!(" instead of reliability loss; its cost stays small at realistic rates)");

    // ---- 4. ambient temperature (extension; cf. HeatWatch [40]) ----------
    banner("extension — ambient temperature (Web, 2K P/E + 1-month retention)");
    let kinds = [FtlKind::Page, FtlKind::Cube];
    let sweep = Sweep::run([5.0, 30.0, 45.0, 55.0].iter().flat_map(|&celsius| {
        let mut c = cfg.clone();
        c.ambient_celsius = celsius;
        // The section isolates the Arrhenius effect on retention.
        c.disturbance_prob = 0.0;
        let (web, midlife) = (StandardWorkload::Web, AgingState::MidLife);
        kinds.map(|kind| ((celsius, kind), Scenario::new(kind, web, midlife, &c)))
    }));
    // One table row per temperature: the pageFTL and the cubeFTL cell.
    let mut t = Table::new([
        "temperature (°C)",
        "pageFTL IOPS",
        "cubeFTL IOPS",
        "cube/page",
    ]);
    for row in sweep.cells.chunks(kinds.len()) {
        let (page, cube) = (row[0].sim().iops, row[1].sim().iops);
        t.row([
            format!("{}", row[0].label.0),
            format!("{page:.0}"),
            format!("{cube:.0}"),
            format!("{:.2}", cube / page),
        ]);
    }
    t.print();
    println!("(heat accelerates retention loss (Arrhenius), pushing more reads into the");
    println!(" retry path — cubeFTL's ORT advantage widens with temperature)");
}
