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
//! Results are emitted through the telemetry metric registry as NDJSON
//! (`sweep.active{n}.{workload}.*`), not ad-hoc prints: pipe them into
//! the same tooling that consumes `cubeftl-sim --metrics-out`. A
//! human-readable table still goes to stderr for interactive runs.
//!
//! Run with: `cargo run --release -p bench --bin active_sweep`
//! (`--out PATH` writes the NDJSON to a file instead of stdout).

use bench::{banner_err, num, text, write_out, BenchArgs, Cell, Columns, Sweep};
use cubeftl::harness::Scenario;
use cubeftl::{AgingState, FtlKind, MetricRegistry, StandardWorkload};

fn main() {
    let args = BenchArgs::parse(true);
    let mut cfg = args.cfg;
    cfg.requests = cfg.requests.min(40_000);

    banner_err("sensitivity — active blocks per chip × workload (cubeFTL, fresh)");
    let workloads = [
        ("mail", StandardWorkload::Mail),
        ("web", StandardWorkload::Web),
        ("oltp", StandardWorkload::Oltp),
        ("rocks", StandardWorkload::Rocks),
    ];
    let sweep = Sweep::run(workloads.iter().flat_map(|&(name, workload)| {
        [1usize, 2, 4].map(|blocks| {
            let mut ftl_cfg = cfg.ftl_config();
            ftl_cfg.active_blocks_per_chip = blocks;
            // GC must keep at least one free block per write point.
            ftl_cfg.gc_free_block_threshold = ftl_cfg.gc_free_block_threshold.max(blocks);
            let sc = Scenario {
                ftl: Some(ftl_cfg),
                ..Scenario::new(FtlKind::Cube, workload, AgingState::Fresh, &cfg)
            };
            ((name, blocks), sc)
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
    eprint!("{}", cols.table(&sweep.cells).render());
    eprintln!("(the paper's choice of two active blocks per chip is §5.2)");

    let ndjson = reg.to_ndjson();
    match &args.out {
        Some(path) => {
            write_out(path, &ndjson);
            eprintln!("metrics: {} entries -> {path}", reg.entries().len());
        }
        None => print!("{ndjson}"),
    }
}
