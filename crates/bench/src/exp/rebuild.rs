//! Array-resilience cost: degraded-read latency inflation and rebuild
//! time vs the idle-window budget.
//!
//! A 3-shard parity array loses shard 1 mid-run; the survivors serve
//! degraded reads by two-fragment reconstruction while the background
//! rebuild repopulates a blank spare, paced by the idle-window
//! scheduler (`batch` pages per unit, a host-priority `gap` between
//! units). Two costs are measured:
//!
//! 1. **Degraded-read inflation** — read latency of the degraded phase
//!    (reconstruction fan-out on the survivors plus rebuild traffic in
//!    the background) against the healthy full-run baseline.
//! 2. **Rebuild time vs idle-window budget** — the virtual time the
//!    rebuild needs to drain across pacing settings: a wider gap yields
//!    more bandwidth to the host and stretches the window of exposure.
//!
//! Every cell re-asserts the zero-host-acknowledged-loss audit.
//! `--out PATH` writes the default cell's rebuild curve (virtual time,
//! ops done) as CSV.
//!
//! Run with: `cargo run --release -p bench -- rebuild` (`--smoke` for
//! the CI-sized variant).

use bench::{assert_order, banner, num, text, write_out, Cell, Columns, Sweep};
use cubeftl::harness::{
    ArrayEvalConfig, ArrayFailureConfig, FailSpec, FailureReport, Phase, Scenario,
};
use cubeftl::{AgingState, FtlKind, StandardWorkload};

/// A cell is one rebuild pacing: (batch pages, host-priority gap µs).
type Row = Cell<(u32, f64)>;

fn failure(c: &Row) -> &FailureReport {
    c.out.failure.as_ref().expect("failure spec was set")
}

/// A read-latency percentile of a cell's degraded phase, µs.
fn degraded(c: &Row, pct: f64) -> f64 {
    c.out.phases[1].merged.read_latency.percentile(pct)
}

pub fn run(crate::BenchArgs { cfg, out, .. }: &crate::BenchArgs) {
    let workload = StandardWorkload::Oltp;
    let aging = AgingState::MidLife;
    let mut arr = ArrayEvalConfig::new(3);
    arr.stripe_pages = 16;

    // The healthy baseline fixes both the latency yardstick and the
    // failure instant: the shard dies ~40% into the shortest shard's
    // healthy makespan, so the degraded phase always has work left.
    let array = Scenario {
        array: Some(arr),
        ..Scenario::new(FtlKind::Cube, workload, aging, cfg)
    };
    let healthy = bench::run(&array);
    let healthy_p50 = healthy.merged().read_latency.percentile(50.0);
    let healthy_p99 = healthy.merged().read_latency.percentile(99.0);
    let makespan = healthy.phases[0]
        .shards
        .iter()
        .map(|s| s.sim_time_us)
        .fold(f64::INFINITY, f64::min);
    let fail = FailSpec {
        shard: 1,
        at_us: (makespan * 0.4).max(1.0),
    };

    banner("array rebuild — degraded latency and rebuild time vs idle-window budget");
    println!(
        "3 shards + 1 spare, stripe 16, shard 1 dies at {:.1} ms; healthy read \
         p50 {:.3} / p99 {:.3} ms\n",
        fail.at_us / 1000.0,
        healthy_p50 / 1000.0,
        healthy_p99 / 1000.0,
    );
    let pacings = [(8u32, 50.0f64), (8, 200.0), (8, 800.0), (32, 200.0)];
    let sweep = Sweep::run(pacings.map(|(batch, gap_us)| {
        let mut fc = ArrayFailureConfig::off();
        fc.parity = true;
        fc.fail = Some(fail);
        fc.spare_shards = 1;
        fc.rebuild.batch_pages = batch;
        fc.rebuild.gap_us = gap_us;
        let sc = Scenario {
            failure: Some(fc),
            ..array.clone()
        };
        ((batch, gap_us), sc)
    }));
    for c in &sweep.cells {
        let (r, (batch, gap_us)) = (failure(c), c.label);
        assert!(
            r.audit.zero_loss,
            "batch {batch} gap {gap_us}: rebuild must reach zero loss ({:?})",
            r.audit
        );
        assert_eq!(r.audit.rebuilt_mapped_pages, r.audit.acked_pages);
        assert!(r.resilience.degraded_reads > 0, "degraded reads exercised");
        assert_eq!(c.out.phases[1].phase, Phase::Degraded, "degraded phase ran");
    }

    let rebuild_us = |c: &Row| failure(c).resilience.rebuild_time_us;
    let mut cols = Columns::<Row>::default();
    cols.col("batch/gap µs", |c| {
        text(format!("{}/{:.0}", c.label.0, c.label.1))
    });
    cols.col("rebuild ms", |c| num(rebuild_us(c) / 1000.0, 1));
    cols.col("pages", |c| text(failure(c).resilience.rebuild_pages));
    cols.col("degr p50 (ms)", |c| num(degraded(c, 50.0) / 1000.0, 3));
    cols.col("degr p99 (ms)", |c| num(degraded(c, 99.0) / 1000.0, 3));
    cols.col("p99 vs healthy", |c| {
        let inflation = (degraded(c, 99.0) / healthy_p99 - 1.0) * 100.0;
        text(format!("{inflation:+.1}%"))
    });
    cols.col("lost", |c| text(failure(c).audit.lost_pages));
    cols.table(&sweep.cells).print();

    // A wider host-priority gap must stretch the rebuild: the pacing
    // budget, not raw NAND bandwidth, bounds the drain.
    let at = |label| (label, rebuild_us(sweep.cell(&label)));
    let (tightest, widest) = (at((8, 50.0)), at((8, 800.0)));
    assert_order("rebuild time (µs) by (batch, gap)", tightest, "<", widest);
    println!(
        "\n(the idle-window budget bounds the drain: gap {:.0} -> {:.0} µs stretches \
         the rebuild {:.1}x;\n\x20every cell rebuilt every array-acked page onto the \
         spare with zero host-acknowledged loss)",
        tightest.0 .1,
        widest.0 .1,
        widest.1 / tightest.1,
    );

    // The default cell's rebuild curve.
    if let Some(path) = out {
        let curve = &failure(sweep.cell(&(8, 200.0))).rebuild.curve;
        let mut csv = String::from("t_us,ops_done\n");
        for (t_us, ops) in curve {
            csv.push_str(&format!("{t_us},{ops}\n"));
        }
        write_out(path, &csv);
        println!("\nrebuild curve ({} points) written to {path}", curve.len());
    }
}
