//! Runs the paper's Rocks scenario (RocksDB under YCSB-A, modelled as an
//! LSM-tree block stream) against all four FTLs at the end-of-life aging
//! state, reporting IOPS and latency percentiles.
//!
//! Run with: `cargo run --release --example ycsb_rocksdb`

use cubeftl::harness::{EvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, StandardWorkload};

fn main() {
    let mut cfg = EvalConfig::reduced();
    cfg.requests = 40_000;
    println!(
        "Rocks (YCSB-A over an LSM model), {} requests, {} blocks/chip, 2K P/E + 1-year retention\n",
        cfg.requests, cfg.blocks_per_chip()
    );

    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>12} {:>10}",
        "FTL", "IOPS", "p50 rd (ms)", "p99 rd (ms)", "p90 wr (ms)", "retries"
    );
    let mut page_iops = None;
    for kind in FtlKind::ALL {
        let r = Scenario::new(kind, StandardWorkload::Rocks, AgingState::EndOfLife, &cfg)
            .run()
            .expect("a plain scenario is valid")
            .into_sim();
        let base = *page_iops.get_or_insert(r.iops);
        println!(
            "{:<10} {:>9.0} {:>12.3} {:>12.3} {:>12.3} {:>10}  ({:+.0}% IOPS vs pageFTL)",
            r.ftl_name,
            r.iops,
            r.read_latency.percentile(50.0) / 1000.0,
            r.read_latency.percentile(99.0) / 1000.0,
            r.write_latency.percentile(90.0) / 1000.0,
            r.ftl.read_retries,
            (r.iops / base - 1.0) * 100.0,
        );
    }
    println!("\ncubeFTL wins on both ends: follower WLs absorb the LSM's flush/compaction");
    println!("bursts, and the per-h-layer ORT removes most read retries of the aged chips.");
}
