//! Sharded-array scaling curve: aggregate throughput across 1/2/4/8
//! shards.
//!
//! Each shard is a complete independent device (own FTL, chips, seeded
//! workload substream); the array front-end fans a fixed total request
//! budget out across the shards and merges the per-shard reports in
//! shard order. The scaling claim is asserted, not just printed: the
//! aggregate simulated array throughput (the sum of per-shard IOPS,
//! i.e. what a host striping across `N` independent devices observes)
//! at 4 shards must be at least 1.5× the 1-shard baseline. Wall-clock
//! time is reported too, but is informational only: CI machines may
//! have a single core, where the thread-per-shard engine cannot help
//! wall time. (That the merged report is byte-identical at any
//! worker-thread count and across repeated runs is proved by
//! `tests/array.rs`, not here.)
//!
//! Run with: `cargo run --release -p bench -- shard` (`--smoke` for the
//! CI-sized variant).

use bench::{assert_order, banner, num, text, Cell, Columns, Sweep};
use cubeftl::harness::{ArrayEvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, StandardWorkload};

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    banner("sharded array — aggregate throughput vs shard count (OLTP, MidLife)");
    let sweep = Sweep::run([1usize, 2, 4, 8].map(|shards| {
        let (oltp, midlife) = (StandardWorkload::Oltp, AgingState::MidLife);
        let sc = Scenario {
            array: Some(ArrayEvalConfig::new(shards)),
            ..Scenario::new(FtlKind::Cube, oltp, midlife, cfg)
        };
        (shards, sc)
    }));
    for c in &sweep.cells {
        assert_eq!(
            c.out.merged().completed,
            cfg.requests,
            "the array must complete the full budget at {} shards",
            c.label
        );
    }

    let iops = |shards| (shards, sweep.cell(&shards).out.merged().iops);
    let mut cols = Columns::<Cell<usize>>::default();
    cols.col("shards", |c| text(c.label));
    cols.col("agg IOPS", |c| num(iops(c.label).1, 0));
    cols.col("vs 1 shard", |c| {
        text(format!("{:.2}x", iops(c.label).1 / iops(1).1))
    });
    cols.col("makespan ms", |c| {
        num(c.out.merged().sim_time_us / 1000.0, 1)
    });
    cols.col("wall ms", |c| num(c.wall_ms, 0));
    cols.col("p99 rd (ms)", |c| {
        num(c.out.merged().read_latency.percentile(99.0) / 1000.0, 3)
    });
    cols.table(&sweep.cells).print();
    let bar = ("1.5 x 1 shard", 1.5 * iops(1).1);
    assert_order("aggregate IOPS", bar, "<=", iops(4));
    println!(
        "\n(aggregate IOPS sums independent per-shard device throughput — the \
         host-visible\n\x20array rate; wall-clock depends on the machine's core count and is \
         not asserted)"
    );
}
