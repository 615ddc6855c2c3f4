//! Sudden-power-off recovery cost and post-boot warm-up.
//!
//! Two experiments:
//!
//! 1. **Recovery-cost sweep** — the double-run SPO harness at one fixed
//!    cut point across checkpoint cadences. Denser checkpoints shrink
//!    the post-checkpoint OOB scan (the dominant boot cost) at the
//!    price of periodic metadata programs; every row re-asserts the
//!    zero-loss contract against the uninterrupted golden run.
//!
//! 2. **Cadence × cut-rate grid** — the cut point swept too: a seeded
//!    per-request Bernoulli trigger at several rates against several
//!    checkpoint cadences. Every cell that fires must recover with zero
//!    host-acknowledged loss, wherever the cut lands; cells whose draw
//!    never fires within the run double as the no-cut control.
//!
//! 3. **Warm-up curve** — recovery deliberately boots the OPM/ORT cold
//!    (monitored parameters are *re-derived*, never deserialized), so
//!    the first touch of each h-layer pays conservative full-verify
//!    programs and full read-retry searches. The curve shows mean
//!    tPROG and NumRetry per post-boot window converging back to the
//!    warm device's numbers as leaders are re-monitored.
//!
//! Run with: `cargo run --release -p bench -- spo` (`--smoke` for the
//! CI-sized variant).

use bench::{banner, num, text, Cell, Columns, Sweep, Table};
use cubeftl::harness::{CrashReport, EvalConfig, Scenario, SpoConfig};
use cubeftl::{AgingState, FtlDriver, FtlKind, SpoTrigger, StandardWorkload};
use ssdsim::HostContext;

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    let cut_at = cfg.requests * 3 / 4;

    banner("sudden power-off — recovery cost vs checkpoint cadence (OLTP, MidLife)");
    let sweep = Sweep::run([0u64, 1024, 256, 64].map(|interval| {
        let spo = SpoConfig {
            trigger: SpoTrigger::AtOps(cut_at),
            ckpt_interval_host_wls: interval,
        };
        (interval, crash_scenario(cfg, spo))
    }));
    for c in &sweep.cells {
        let r = crash(c);
        assert_eq!(
            r.shards_cut(),
            1,
            "cut at {cut_at} of {} must fire",
            cfg.requests
        );
        assert!(
            r.lost_lpns.is_empty(),
            "host-acknowledged data lost at interval {}: {:?}",
            c.label,
            r.lost_lpns
        );
    }
    let rec = |c: &Cell<u64>| crash(c).recoveries[0].expect("recovery ran");
    let mut cols = Columns::<Cell<u64>>::default();
    cols.col("ckpt every", |c| text(cadence(c.label)));
    cols.col("ckpts", |c| text(crash(c).checkpoints_taken));
    cols.col("scanned/total blk", |c| {
        let scanned = rec(c).blocks_scanned;
        text(format!("{scanned}/{}", crash(c).total_blocks))
    });
    cols.col("OOB replayed", |c| text(rec(c).oob_records_replayed));
    cols.col("torn WLs", |c| text(rec(c).torn_wls_quarantined));
    cols.col("recovery ms", |c| num(rec(c).nand_us / 1000.0, 3));
    cols.col("lost LPNs", |c| text(crash(c).lost_lpns.len()));
    cols.table(&sweep.cells).print();
    println!(
        "\n(every row recovers the full L2P map from checkpoint + OOB scan alone and\n\
         \x20loses zero host-acknowledged writes; denser checkpoints bound the boot scan)"
    );

    banner("zero-loss grid — checkpoint cadence x seeded cut rate (OLTP, MidLife)");
    cadence_rate_grid(cfg);

    banner("post-boot warm-up — cold OPM/ORT re-monitored on first touch per h-layer");
    warmup_curve();
}

/// One OLTP mid-life crash experiment on a single Cube device.
fn crash_scenario(cfg: &EvalConfig, spo: SpoConfig) -> Scenario {
    let (oltp, midlife) = (StandardWorkload::Oltp, AgingState::MidLife);
    Scenario {
        spo: Some(spo),
        ..Scenario::new(FtlKind::Cube, oltp, midlife, cfg)
    }
}

fn crash<L>(c: &Cell<L>) -> &CrashReport {
    c.out.crash.as_ref().expect("a cut was armed")
}

fn cadence(interval: u64) -> String {
    match interval {
        0 => "off".to_owned(),
        n => format!("{n} WLs"),
    }
}

/// Sweeps the crash-consistency contract over where the cut lands, not
/// just when: a seeded Bernoulli trigger draws once per completed
/// request, so each (cadence, rate) cell cuts at a different,
/// reproducible point in the run — early cuts land mid-prefill-GC,
/// late cuts after many checkpoints. Every fired cell must lose zero
/// host-acknowledged LPNs.
fn cadence_rate_grid(cfg: &EvalConfig) {
    let mut cfg = cfg.clone();
    cfg.requests = cfg.requests.min(6_000);
    let rates = [0.0005, 0.002, 0.008];
    let sweep = Sweep::run([0u64, 256, 64].iter().flat_map(|&interval| {
        let cfg = &cfg;
        rates.iter().enumerate().map(move |(i, &rate)| {
            let spo = SpoConfig {
                // One seed per cell: the cut point varies across the
                // grid but every cell is individually reproducible.
                trigger: SpoTrigger::Seeded {
                    seed: 7 + i as u64,
                    rate,
                },
                ckpt_interval_host_wls: interval,
            };
            ((interval, rate), crash_scenario(cfg, spo))
        })
    }));
    let mut fired_cells = 0;
    for c in &sweep.cells {
        let r = crash(c);
        assert!(
            r.lost_lpns.is_empty(),
            "lost {} host-acknowledged LPNs at cadence {}, rate {}",
            r.lost_lpns.len(),
            c.label.0,
            c.label.1
        );
        fired_cells += u32::from(r.recoveries[0].is_some());
    }
    // One table row per cadence, one column per rate.
    let outcome = |c: &Cell<(u64, f64)>| match &crash(c).recoveries[0] {
        Some(rec) => {
            let (cut, ms) = (c.sim().completed, rec.nand_us / 1000.0);
            format!("cut@{cut} ({ms:.1}ms, 0 lost)")
        }
        None => "no cut".to_owned(),
    };
    let mut t = Table::new(["ckpt \\ rate", "0.0005", "0.002", "0.008"]);
    for row in sweep.cells.chunks(rates.len()) {
        let cells = row.iter().map(outcome);
        t.row(std::iter::once(cadence(row[0].label.0)).chain(cells));
    }
    t.print();
    assert!(
        fired_cells >= 6,
        "the grid must actually exercise crashes ({fired_cells} cells fired)"
    );
    println!(
        "\n(cells show the cut point in completed requests and the recovery NAND cost;\n\
         \x20every fired cell recovered with zero host-acknowledged loss)"
    );
}

/// Drives the cube FTL directly (no queueing) so the per-pass means
/// isolate the NAND-parameter warm-up from scheduling noise: write the
/// working set, power-cycle, then re-touch the same set pass after
/// pass. Pass 0 pays the cold-OPM/ORT tax (conservative full-verify
/// programs and full retry searches until each h-layer's leader is
/// re-monitored on first touch); later passes converge back to the
/// warm device's numbers.
fn warmup_curve() {
    let cfg = cubeftl::FtlConfig::small();
    let ctx = HostContext {
        buffer_utilization: 0.5,
        now_us: 0.0,
    };
    let working_set: u64 = 600;
    let passes = 4;

    // Warm baseline: same device, same passes, no power cycle.
    let mut warm = cubeftl::Ftl::cube(cfg);
    warm.set_aging(cubeftl::AgingState::MidLife);
    write_pass(&mut warm, working_set, &ctx, cfg.chips);
    let warm_tprog = write_pass(&mut warm, working_set, &ctx, cfg.chips);
    let warm_retry = read_pass_mean_retries(&mut warm, working_set, &ctx);

    // Crashed device: identical history, then a power cycle that tears
    // nothing — the curve below is purely the cold monitored state.
    let mut crashed = cubeftl::Ftl::cube(cfg);
    crashed.set_aging(cubeftl::AgingState::MidLife);
    write_pass(&mut crashed, working_set, &ctx, cfg.chips);
    let (mut cold, report) = crashed.power_cycle(&[]);
    println!(
        "recovery: {} blocks probed, {} scanned, {} OOB records replayed, {:.2} ms\n",
        report.blocks_probed,
        report.blocks_scanned,
        report.oob_records_replayed,
        report.nand_us / 1000.0
    );

    let mut t = Table::new(["post-boot pass", "tPROG (µs)", "vs warm", "NumRetry/read"]);
    let mut curve = Vec::new();
    for pass in 0..passes {
        let retries = read_pass_mean_retries(&mut cold, working_set, &ctx);
        let tprog = write_pass(&mut cold, working_set, &ctx, cfg.chips);
        t.row([
            format!("{pass}"),
            format!("{tprog:.1}"),
            format!("{:+.1}%", (tprog / warm_tprog - 1.0) * 100.0),
            format!("{retries:.3}"),
        ]);
        curve.push((tprog, retries));
    }
    t.print();
    let (first, last) = (curve[0], curve[passes - 1]);
    println!(
        "\nwarm baseline: tPROG {warm_tprog:.1} µs, {warm_retry:.3} retries/read; \
         cold pass 0 {:+.1}%, pass {} {:+.1}%",
        (first.0 / warm_tprog - 1.0) * 100.0,
        passes - 1,
        (last.0 / warm_tprog - 1.0) * 100.0
    );
    assert!(
        first.0 > warm_tprog * 1.02,
        "the first post-boot pass must pay the cold-OPM tax \
         ({:.1} vs warm {warm_tprog:.1} µs)",
        first.0
    );
    assert!(
        last.0 < first.0,
        "re-monitoring on first touch must warm later passes back up \
         ({:.1} -> {:.1} µs)",
        first.0,
        last.0
    );
    assert!(
        first.1 >= last.1,
        "cold-ORT retry searches must not increase after warm-up \
         ({:.3} -> {:.3})",
        first.1,
        last.1
    );
    println!(
        "(the cold boot pays full-verify programs until each h-layer's leader is re-monitored)"
    );
}

/// Overwrites LPNs `0..n` once, round-robin across chips; returns the
/// mean per-WL program latency over the writes that ran no GC (GC
/// frequency depends on pass number, not on monitored state, and would
/// otherwise swamp the parameter warm-up the curve isolates).
fn write_pass(ftl: &mut cubeftl::Ftl, n: u64, ctx: &HostContext, chips: usize) -> f64 {
    let mut total = 0.0;
    let mut wls = 0u64;
    for (i, chunk) in (0..n).collect::<Vec<_>>().chunks(3).enumerate() {
        let mut lpns = [u64::MAX; 3];
        lpns[..chunk.len()].copy_from_slice(chunk);
        let w = ftl.write_wl(i % chips, lpns, ctx);
        if !w.did_gc {
            total += w.nand_us;
            wls += 1;
        }
    }
    total / wls.max(1) as f64
}

fn read_pass_mean_retries(ftl: &mut cubeftl::Ftl, n: u64, ctx: &HostContext) -> f64 {
    let mut retries = 0u64;
    let mut reads = 0u64;
    for lpn in 0..n {
        if let Some(r) = ftl.read_page(lpn, ctx) {
            retries += u64::from(r.retries);
            reads += 1;
        }
    }
    retries as f64 / reads.max(1) as f64
}
