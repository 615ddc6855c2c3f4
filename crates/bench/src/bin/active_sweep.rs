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

use bench::{banner_err, eval_custom, BenchArgs, Table};
use cubeftl::{AgingState, FtlKind, MetricRegistry, StandardWorkload};

fn main() {
    let args = BenchArgs::parse(true);
    let out = args.out.as_deref();
    let mut cfg = args.cfg;
    cfg.requests = cfg.requests.min(40_000);

    banner_err("sensitivity — active blocks per chip × workload (cubeFTL, fresh)");
    let mut reg = MetricRegistry::new();
    let mut table = Table::new([
        "workload",
        "active blocks",
        "IOPS",
        "p90 write (ms)",
        "GC runs",
        "WA(t)",
    ]);
    let workloads = [
        ("mail", StandardWorkload::Mail),
        ("web", StandardWorkload::Web),
        ("oltp", StandardWorkload::Oltp),
        ("rocks", StandardWorkload::Rocks),
    ];
    for (name, workload) in workloads {
        for blocks in [1usize, 2, 4] {
            let mut ftl_cfg = cfg.ftl_config();
            ftl_cfg.active_blocks_per_chip = blocks;
            // GC must keep at least one free block per write point.
            ftl_cfg.gc_free_block_threshold = ftl_cfg.gc_free_block_threshold.max(blocks);
            let r = eval_custom(FtlKind::Cube, workload, AgingState::Fresh, &cfg, ftl_cfg);
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
            table.row([
                name.to_owned(),
                blocks.to_string(),
                format!("{:.0}", r.iops),
                format!("{:.3}", r.write_latency.percentile(90.0) / 1000.0),
                r.ftl.gc_runs.to_string(),
                format!("{:.2}", r.wa_total().unwrap_or(0.0)),
            ]);
        }
    }
    eprint!("{}", table.render());
    eprintln!("(the paper's choice of two active blocks per chip is §5.2)");

    let ndjson = reg.to_ndjson();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &ndjson) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("metrics: {} entries -> {path}", reg.entries().len());
        }
        None => print!("{ndjson}"),
    }
}
