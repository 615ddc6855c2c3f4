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
//! Every cell re-asserts the zero-host-acknowledged-loss audit. The
//! default cell's rebuild curve (virtual time, ops done) is written to
//! `rebuild_curve.csv` in the current directory.
//!
//! Run with: `cargo run --release -p bench --bin rebuild` (`--smoke`
//! for the CI-sized variant).

use bench::{banner, run, BenchArgs, Table};
use cubeftl::harness::{ArrayEvalConfig, ArrayFailureConfig, FailSpec, Phase, Scenario};
use cubeftl::{AgingState, FtlKind, StandardWorkload};

fn main() {
    let mut cfg = BenchArgs::parse(false).cfg;
    cfg.requests = cfg.requests.min(4_000);
    let workload = StandardWorkload::Oltp;
    let aging = AgingState::MidLife;
    let mut arr = ArrayEvalConfig::new(3);
    arr.stripe_pages = 16;

    // The healthy baseline fixes both the latency yardstick and the
    // failure instant: the shard dies ~40% into the shortest shard's
    // healthy makespan, so the degraded phase always has work left.
    let array = Scenario {
        array: Some(arr),
        ..Scenario::new(FtlKind::Cube, workload, aging, &cfg)
    };
    let healthy = run(&array);
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
    let mut t = Table::new([
        "batch/gap µs",
        "rebuild ms",
        "pages",
        "degr p50 (ms)",
        "degr p99 (ms)",
        "p99 vs healthy",
        "lost",
    ]);
    let mut default_cell = None;
    let mut gap_times = Vec::new();
    for (batch, gap_us) in [(8u32, 50.0f64), (8, 200.0), (8, 800.0), (32, 200.0)] {
        let mut fc = ArrayFailureConfig::off();
        fc.parity = true;
        fc.fail = Some(fail);
        fc.spare_shards = 1;
        fc.rebuild.batch_pages = batch;
        fc.rebuild.gap_us = gap_us;
        let out = run(&Scenario {
            failure: Some(fc),
            ..array.clone()
        });
        let r = out.failure.expect("failure spec was set");
        assert!(
            r.audit.zero_loss,
            "batch {batch} gap {gap_us}: rebuild must reach zero loss ({:?})",
            r.audit
        );
        assert_eq!(r.audit.rebuilt_mapped_pages, r.audit.acked_pages);
        assert!(r.resilience.degraded_reads > 0, "degraded reads exercised");
        let d = &out.phases[1].merged;
        assert_eq!(out.phases[1].phase, Phase::Degraded, "degraded phase ran");
        let (p50, p99) = (
            d.read_latency.percentile(50.0),
            d.read_latency.percentile(99.0),
        );
        t.row([
            format!("{batch}/{gap_us:.0}"),
            format!("{:.1}", r.resilience.rebuild_time_us / 1000.0),
            format!("{}", r.resilience.rebuild_pages),
            format!("{:.3}", p50 / 1000.0),
            format!("{:.3}", p99 / 1000.0),
            format!("{:+.1}%", (p99 / healthy_p99 - 1.0) * 100.0),
            format!("{}", r.audit.lost_pages),
        ]);
        if batch == 8 {
            gap_times.push((gap_us, r.resilience.rebuild_time_us));
        }
        if batch == 8 && gap_us == 200.0 {
            default_cell = Some(r);
        }
    }
    t.print();

    // A wider host-priority gap must stretch the rebuild: the pacing
    // budget, not raw NAND bandwidth, bounds the drain.
    let (tightest, widest) = (gap_times[0], gap_times[gap_times.len() - 1]);
    assert!(
        widest.1 > tightest.1,
        "gap {} µs must rebuild slower than gap {} µs ({:.0} vs {:.0} µs)",
        widest.0,
        tightest.0,
        widest.1,
        tightest.1
    );
    println!(
        "\n(the idle-window budget bounds the drain: gap {:.0} -> {:.0} µs stretches \
         the rebuild {:.1}x;\n\x20every cell rebuilt every array-acked page onto the \
         spare with zero host-acknowledged loss)",
        tightest.0,
        widest.0,
        widest.1 / tightest.1,
    );

    // The default cell's rebuild curve — the CI artifact.
    let r = default_cell.expect("default cell ran");
    let path = std::path::Path::new("./rebuild_curve.csv");
    let mut csv = String::from("t_us,ops_done\n");
    for (t_us, ops) in &r.rebuild.curve {
        csv.push_str(&format!("{t_us},{ops}\n"));
    }
    std::fs::write(path, csv).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "\nrebuild curve ({} points) written to {}",
        r.rebuild.curve.len(),
        path.display()
    );
}
