//! Background-maintenance effectiveness under a retention-heavy scenario.
//!
//! Runs the read-heavy Web workload at EndOfLife (2K P/E + 1-year
//! retention) with seeded uncorrectable-read injection, maintenance off
//! vs on. The scrubber refreshes aged blocks before their raw BER
//! escapes the retry window, so the "maint on" row must show fewer
//! uncorrectable recoveries and a lower mean retry count — the magnitude
//! of the reliability-for-bandwidth trade the maintenance subsystem
//! buys (the throughput and tail-latency columns show its price).
//!
//! Run with: `cargo run --release -p bench -- maint`

use bench::{assert_order, banner, num, text, Cell, Columns, Sweep};
use cubeftl::harness::Scenario;
use cubeftl::{AgingState, FaultKind, FaultPlan, FtlKind, MaintConfig, StandardWorkload};

pub fn run(args: &crate::BenchArgs) {
    let mut cfg = args.cfg.clone();
    cfg.faults = Some(
        FaultPlan::seeded(cfg.seed)
            .with_rate(FaultKind::UncorrectableRead, 0.02)
            .with_rate(FaultKind::StuckRetry, 0.01),
    );

    banner("background maintenance — retention-heavy scenario (Web, EndOfLife)");
    // "eager" trades host bandwidth for scrub coverage: a small
    // host-priority gap and a large migration batch, the settings the
    // reliability-direction e2e test uses.
    let mut eager = MaintConfig::default_on();
    eager.scrub_batch_pages = 96;
    eager.gap_us = 50.0;
    let settings = [
        ("off", None),
        ("on", Some(MaintConfig::default_on())),
        ("eager", Some(eager)),
    ];
    let sweep = Sweep::run(settings.map(|(label, maint)| {
        cfg.maint = maint;
        let (web, eol) = (StandardWorkload::Web, AgingState::EndOfLife);
        (label, Scenario::new(FtlKind::Cube, web, eol, &cfg))
    }));

    let wa = |w: Option<f64>| w.map_or(text(""), |w| num(w, 2));
    let mut cols = Columns::<Cell<&str>>::default();
    cols.col("maint", |c| text(c.label));
    cols.col("IOPS", |c| num(c.sim().iops, 0));
    cols.col("p99 rd (ms)", |c| {
        num(c.sim().read_latency.percentile(99.0) / 1000.0, 3)
    });
    cols.col("mean retries", |c| {
        let ftl = &c.sim().ftl;
        num(ftl.read_retries as f64 / ftl.nand_reads.max(1) as f64, 3)
    });
    cols.col("uncorrectable", |c| {
        text(c.sim().ftl.uncorrectable_recoveries)
    });
    cols.col("WA(h)", |c| wa(c.sim().wa_host()));
    cols.col("WA(t)", |c| wa(c.sim().wa_total()));
    cols.table(&sweep.cells).print();

    for c in &sweep.cells[1..] {
        let r = c.sim();
        println!(
            "\nmaint-{} background work: {} scrubs ({} page moves, {} sample reads),",
            c.label, r.ftl.scrub_blocks, r.ftl.scrub_page_moves, r.ftl.scrub_sample_reads
        );
        println!(
            " {} re-monitored layers, {} wear-level moves, {} maintenance-GC moves,",
            r.ftl.remonitored_layers, r.ftl.wear_level_moves, r.ftl.maint_gc_page_moves
        );
        println!(
            " {} background ops over {} chips (mean busy {:.1}%)",
            r.background_ops(),
            r.chip_stats.len(),
            r.mean_busy_fraction() * 100.0
        );
    }

    let uncorrectable = |label| {
        let n = sweep.cell(&label).sim().ftl.uncorrectable_recoveries;
        (label, n as f64)
    };
    let (off, on, eager) = (
        uncorrectable("off"),
        uncorrectable("on"),
        uncorrectable("eager"),
    );
    assert_order("uncorrectable recoveries", eager, "<", off);
    println!(
        "\n(eager scrubbing cut uncorrectable recoveries {} -> {};",
        off.1, eager.1
    );
    println!(" the default keeps host priority — gap 200 µs, batch 12 — and trades");
    println!(" coverage for tail latency: {} -> {})", off.1, on.1);
}
