//! Sharded-array scaling curve: aggregate throughput and determinism
//! across 1/2/4/8 shards.
//!
//! Each shard is a complete independent device (own FTL, chips, seeded
//! workload substream); the array front-end fans a fixed total request
//! budget out across the shards and merges the per-shard reports in
//! shard order. Two claims are asserted, not just printed:
//!
//! 1. **Scaling** — the aggregate simulated array throughput (the sum
//!    of per-shard IOPS, i.e. what a host striping across `N`
//!    independent devices observes) at 4 shards must be at least 1.5×
//!    the 1-shard baseline. Wall-clock speedup is reported too, but is
//!    informational only: CI machines may have a single core, where the
//!    thread-per-shard engine cannot help wall time.
//! 2. **Determinism** — the merged report is byte-identical when the
//!    same 4-shard array runs on 1 worker thread vs 4, and when the
//!    whole experiment is repeated; thread scheduling must never reach
//!    the results.
//!
//! Run with: `cargo run --release -p bench --bin shard` (`--smoke` for
//! the CI-sized variant).

use bench::{banner, run, BenchArgs, Table};
use cubeftl::harness::{ArrayEvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, StandardWorkload};
use std::time::Instant;

fn main() {
    let mut cfg = BenchArgs::parse(false).cfg;
    cfg.requests = cfg.requests.min(8_000);
    let workload = StandardWorkload::Oltp;
    let aging = AgingState::MidLife;

    banner("sharded array — aggregate throughput vs shard count (OLTP, MidLife)");
    let mut t = Table::new([
        "shards",
        "agg IOPS",
        "vs 1 shard",
        "makespan ms",
        "wall ms",
        "p99 rd (ms)",
    ]);
    let array_run = |arr: ArrayEvalConfig| {
        run(&Scenario {
            array: Some(arr),
            ..Scenario::new(FtlKind::Cube, workload, aging, &cfg)
        })
    };
    let mut base_iops = 0.0;
    let mut iops_at_4 = 0.0;
    for shards in [1usize, 2, 4, 8] {
        let arr = ArrayEvalConfig::new(shards);
        let wall = Instant::now();
        let r = array_run(arr);
        let wall_ms = wall.elapsed().as_secs_f64() * 1000.0;
        let m = r.merged();
        assert_eq!(
            m.completed, cfg.requests,
            "the array must complete the full budget at {shards} shards"
        );
        if shards == 1 {
            base_iops = m.iops;
        }
        if shards == 4 {
            iops_at_4 = m.iops;
        }
        t.row([
            format!("{shards}"),
            format!("{:.0}", m.iops),
            format!("{:.2}x", m.iops / base_iops),
            format!("{:.1}", m.sim_time_us / 1000.0),
            format!("{wall_ms:.0}"),
            format!("{:.3}", m.read_latency.percentile(99.0) / 1000.0),
        ]);
    }
    t.print();
    assert!(
        iops_at_4 >= 1.5 * base_iops,
        "4 shards must deliver >= 1.5x the 1-shard aggregate throughput \
         ({iops_at_4:.0} vs {base_iops:.0} IOPS)"
    );
    println!(
        "\n(aggregate IOPS sums independent per-shard device throughput — the \
         host-visible\n\x20array rate; wall-clock depends on the machine's core count and is \
         not asserted)"
    );

    banner("determinism — merged report vs worker-thread count and repetition");
    let report_at = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(4);
        arr.threads = threads;
        format!("{:?}", array_run(arr).merged())
    };
    let one = report_at(1);
    assert_eq!(one, report_at(4), "1 vs 4 worker threads must not differ");
    assert_eq!(one, report_at(4), "repeated runs must not differ");
    println!(
        "merged 4-shard report is byte-identical on 1 vs 4 worker threads and across\n\
         repeated runs ({} debug-printed bytes compared)",
        one.len()
    );
}
