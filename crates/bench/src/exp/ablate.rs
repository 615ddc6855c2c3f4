//! Ablation studies of cubeFTL's design choices (the knobs DESIGN.md
//! calls out) plus the two §8 future-work extensions.
//!
//! 1. `μ_TH` — the WAM's burst threshold (§5.2).
//! 2. Active blocks per chip — the §5.2 memory/availability trade-off.
//! 3. Write-buffer size — the backpressure knee of Fig. 18(a).
//! 4. Ambient-disturbance rate — cost of the §4.1.4 safety path.
//! 5. PS-aware ECC decode-mode selection (extension, §8).
//! 6. Latency predictability (extension, §8).
//!
//! Run with: `cargo run --release -p bench -- ablate`

use bench::{active_blocks_cell, banner, num, text, Cell, Columns, Sweep, Table};
use cubeftl::harness::{EvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, StandardWorkload};
use ftl::{LatencyPredictor, Opm};
use nand3d::{BlockId, EccModel, NandChip, NandConfig, ProgramParams, WlData};

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

    // ---- 2. active blocks per chip --------------------------------------
    banner("ablation 2 — active blocks per chip (OLTP, fresh)");
    let oltp = StandardWorkload::Oltp;
    let sweep = Sweep::run([1usize, 2, 4].map(|blocks| (blocks, active_blocks_cell(oltp, blocks, cfg))));
    let mut cols = Columns::<Cell<usize>>::default();
    cols.col("active blocks", |c| text(c.label));
    cols.col("IOPS", |c| num(c.sim().iops, 0));
    cols.col("p90 write (ms)", |c| num(write_ms(c, 90.0), 3));
    cols.table(&sweep.cells).print();
    println!("(the paper settles on two per chip, §5.2)");

    // ---- 3. write-buffer size --------------------------------------------
    banner("ablation 3 — write-buffer size (Rocks, fresh)");
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

    // ---- 4. disturbance rate ---------------------------------------------
    banner("ablation 4 — ambient disturbance rate (Mail, mid-life)");
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

    // ---- 5. ambient temperature (extension; cf. HeatWatch [40]) ----------
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

    // ---- 6. PS-aware ECC decode (extension) --------------------------------
    banner("extension — PS-aware LDPC decode-mode selection (§8)");
    let ecc = EccModel::ldpc();
    let chip = NandChip::new(NandConfig::paper(), 7);
    let g = *chip.geometry();
    let rel = chip.reliability();
    let mut t = Table::new([
        "aging",
        "escalating (µs/read)",
        "PS-predicted (µs/read)",
        "saving",
    ]);
    for (label, pe, months) in [
        ("fresh", 0u32, 0.0f64),
        ("2K + 1 month", 2000, 1.0),
        ("2K + 1 year", 2000, 12.0),
    ] {
        let mut unaware = 0.0;
        let mut aware = 0.0;
        let mut n = 0.0;
        for b in 0..16u32 {
            for h in 0..g.hlayers_per_block {
                let wl = g.wl_addr(BlockId(b), h, 1);
                let raw = rel.ber(chip.process(), wl, pe, months);
                // PS prediction: the leader WL of the same h-layer has
                // virtually the same BER (ΔH ≈ 1).
                let predicted = rel.ber(chip.process(), g.wl_addr(BlockId(b), h, 0), pe, months);
                unaware += ecc.decode_escalating_us(raw).unwrap_or(200.0);
                aware += ecc.decode_predicted_us(raw, predicted).unwrap_or(200.0);
                n += 1.0;
            }
        }
        t.row([
            label.to_owned(),
            format!("{:.1}", unaware / n),
            format!("{:.1}", aware / n),
            format!("{:.0}%", (1.0 - aware / unaware) * 100.0),
        ]);
    }
    t.print();

    // ---- 7. latency predictability (extension) ----------------------------
    banner("extension — deterministic latency via PS (§8)");
    let mut chip = NandChip::new(NandConfig::paper(), 13);
    let mut opm = Opm::new(&g, 1);
    let predictor = LatencyPredictor;
    let mut exact = 0u32;
    let mut total = 0u32;
    let mut max_err: f64 = 0.0;
    for b in 0..8u32 {
        chip.erase(BlockId(b)).unwrap();
        for h in 0..g.hlayers_per_block {
            let leader = g.wl_addr(BlockId(b), h, 0);
            let report = chip
                .program_wl(leader, WlData::host(0), &ProgramParams::default())
                .unwrap();
            opm.record_leader(0, leader, &report, chip.ispp());
            for v in 1..g.wls_per_hlayer {
                let wl = g.wl_addr(BlockId(b), h, v);
                let forecast = predictor.follower_tprog(&opm, 0, wl);
                let params = opm.follower_params(0, wl).unwrap().to_program_params();
                let actual = chip.program_wl(wl, WlData::host(1), &params).unwrap();
                let err = LatencyPredictor::error_fraction(&forecast, &actual);
                max_err = max_err.max(err);
                exact += u32::from(err < 0.01);
                total += 1;
            }
        }
    }
    println!(
        "follower tPROG forecast: {exact}/{total} exact (<1% error), worst error {:.1}%",
        max_err * 100.0
    );
    println!("(PS makes per-WL response times predictable before issuing the command —");
    println!(" the paper's proposed answer to the SSD long-tail problem)");
}
