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
//! Run with: `cargo run --release -p bench --bin maint`

use bench::{banner, eval, BenchArgs, Table};
use cubeftl::{AgingState, FaultKind, FaultPlan, FtlKind, MaintConfig, StandardWorkload};

fn main() {
    let mut cfg = BenchArgs::parse(false).cfg;
    cfg.requests = cfg.requests.min(30_000);
    cfg.faults = Some(
        FaultPlan::seeded(cfg.seed)
            .with_rate(FaultKind::UncorrectableRead, 0.02)
            .with_rate(FaultKind::StuckRetry, 0.01),
    );

    banner("background maintenance — retention-heavy scenario (Web, EndOfLife)");
    let mut t = Table::new([
        "maint",
        "IOPS",
        "p99 rd (ms)",
        "mean retries",
        "uncorrectable",
        "WA(h)",
        "WA(t)",
    ]);
    // "eager" trades host bandwidth for scrub coverage: a small
    // host-priority gap and a large migration batch, the settings the
    // reliability-direction e2e test uses.
    let mut eager = MaintConfig::default_on();
    eager.scrub_batch_pages = 96;
    let mut reports = Vec::new();
    for (label, maint, gap_us) in [
        ("off", None, 0.0),
        ("on", Some(MaintConfig::default_on()), 200.0),
        ("eager", Some(eager), 50.0),
    ] {
        cfg.maint = maint;
        cfg.ssd.maint.enabled = maint.is_some();
        cfg.ssd.maint.min_gap_us = gap_us;
        let r = eval(
            FtlKind::Cube,
            StandardWorkload::Web,
            AgingState::EndOfLife,
            &cfg,
        );
        t.row([
            label.to_owned(),
            format!("{:.0}", r.iops),
            format!("{:.3}", r.read_latency.percentile(99.0) / 1000.0),
            format!(
                "{:.3}",
                r.ftl.read_retries as f64 / r.ftl.nand_reads.max(1) as f64
            ),
            format!("{}", r.ftl.uncorrectable_recoveries),
            r.wa_host().map(|w| format!("{w:.2}")).unwrap_or_default(),
            r.wa_total().map(|w| format!("{w:.2}")).unwrap_or_default(),
        ]);
        reports.push(r);
    }
    t.print();

    for (label, r) in ["on", "eager"].iter().zip(&reports[1..]) {
        println!(
            "\nmaint-{label} background work: {} scrubs ({} page moves, {} sample reads),",
            r.ftl.scrub_blocks, r.ftl.scrub_page_moves, r.ftl.scrub_sample_reads
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

    let (off, eager) = (&reports[0], &reports[2]);
    assert!(
        eager.ftl.uncorrectable_recoveries < off.ftl.uncorrectable_recoveries,
        "scrubbing must reduce uncorrectable recoveries ({} -> {})",
        off.ftl.uncorrectable_recoveries,
        eager.ftl.uncorrectable_recoveries
    );
    println!(
        "\n(eager scrubbing cut uncorrectable recoveries {} -> {};",
        off.ftl.uncorrectable_recoveries, eager.ftl.uncorrectable_recoveries
    );
    println!(" the default keeps host priority — gap 200 µs, batch 12 — and trades");
    println!(
        " coverage for tail latency: {} -> {})",
        off.ftl.uncorrectable_recoveries, reports[1].ftl.uncorrectable_recoveries
    );
}
