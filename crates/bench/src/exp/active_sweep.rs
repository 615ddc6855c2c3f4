//! Sensitivity sweep: active blocks per chip × workload (the §5.2
//! memory/availability trade-off, swept across write intensities — the
//! ROADMAP §5.4 gap).
//!
//! One active block serializes every program on the chip's single open
//! block; more active blocks widen WAM's placement choice at the cost of
//! controller DRAM for per-block write points. The paper settles on two
//! (§5.2) from OLTP alone — this sweep shows where that choice holds and
//! where it leaves throughput behind, per workload.
//!
//! `--out PATH` writes the results through the telemetry metric registry
//! as NDJSON (`sweep.active{n}.{workload}.*`), not ad-hoc prints: feed
//! them to the same tooling that consumes `cubeftl-sim --metrics-out`.
//! The human-readable table goes to stdout.
//!
//! Run with: `cargo run --release -p bench -- active_sweep`

use bench::{banner, num, text, write_out, Cell, Columns, Sweep};
use cubeftl::harness::Scenario;
use cubeftl::{AgingState, FtlKind, MetricRegistry, StandardWorkload};

pub fn run(crate::BenchArgs { cfg, out, .. }: &crate::BenchArgs) {
    banner("sensitivity — active blocks per chip × workload (cubeFTL, fresh)");
    let workloads = [
        ("mail", StandardWorkload::Mail),
        ("web", StandardWorkload::Web),
        ("oltp", StandardWorkload::Oltp),
        ("rocks", StandardWorkload::Rocks),
    ];
    let sweep = Sweep::run(workloads.iter().flat_map(|&(name, workload)| {
        [1usize, 2, 4].map(|blocks| {
            // GC keeps at least one free block per write point.
            let mut c = cfg.clone();
            c.ftl.active_blocks_per_chip = blocks;
            c.ftl.gc_free_block_threshold = c.ftl.gc_free_block_threshold.max(blocks);
            let cell = Scenario::new(FtlKind::Cube, workload, AgingState::Fresh, &c);
            ((name, blocks), cell)
        })
    }));

    let mut reg = MetricRegistry::new();
    for c in &sweep.cells {
        let (r, (name, blocks)) = (c.sim(), c.label);
        let prefix = format!("sweep.active{blocks}.{name}");
        reg.gauge(&format!("{prefix}.iops"), r.iops);
        reg.gauge(
            &format!("{prefix}.p90_write_us"),
            r.write_latency.percentile(90.0),
        );
        reg.gauge(
            &format!("{prefix}.p99_read_us"),
            r.read_latency.percentile(99.0),
        );
        reg.counter(&format!("{prefix}.gc_runs"), r.ftl.gc_runs);
        reg.gauge(&format!("{prefix}.wa_total"), r.wa_total().unwrap_or(0.0));
    }
    let mut cols = Columns::<Cell<(&str, usize)>>::default();
    cols.col("workload", |c| text(c.label.0));
    cols.col("active blocks", |c| text(c.label.1));
    cols.col("IOPS", |c| num(c.sim().iops, 0));
    cols.col("p90 write (ms)", |c| {
        num(c.sim().write_latency.percentile(90.0) / 1000.0, 3)
    });
    cols.col("GC runs", |c| text(c.sim().ftl.gc_runs));
    cols.col("WA(t)", |c| num(c.sim().wa_total().unwrap_or(0.0), 2));
    cols.table(&sweep.cells).print();
    println!("(the paper's choice of two active blocks per chip is §5.2)");

    if let Some(path) = out {
        write_out(path, &reg.to_ndjson());
        println!("metrics: {} entries -> {path}", reg.entries().len());
    }
}
