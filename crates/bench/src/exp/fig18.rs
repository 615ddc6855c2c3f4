//! Figure 18 — I/O latency distributions under the Rocks workload
//! (fresh state): pageFTL, vertFTL, cubeFTL- (WAM disabled) and cubeFTL.
//!
//! (a) Write-latency CDF — cubeFTL flushes the write buffer faster with
//! follower WLs, shortening the backpressure tail (paper: 90th-percentile
//! write latency 0.72 ms vs pageFTL's 1.10 ms, ≈1.53×).
//! (b) Read-latency CDF — even with no read retries at the fresh state,
//! reads queue behind fewer/shorter programs under cubeFTL.

use bench::{banner, num, text, Columns, Sweep};
use cubeftl::harness::Scenario;
use cubeftl::{AgingState, FtlKind, StandardWorkload};

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    println!(
        "scale: {} blocks/chip, {} requests per FTL",
        cfg.blocks_per_chip(), cfg.requests
    );

    // page, vert, cube-, cube
    let sweep = Sweep::run(FtlKind::ALL.map(|kind| {
        let (rocks, fresh) = (StandardWorkload::Rocks, AgingState::Fresh);
        (kind, Scenario::new(kind, rocks, fresh, cfg))
    }));

    for (write, title) in [
        (
            true,
            "Fig. 18(a) — write latency percentiles, Rocks, fresh (ms)",
        ),
        (
            false,
            "Fig. 18(b) — read latency percentiles, Rocks, fresh (ms)",
        ),
    ] {
        banner(title);
        // One row per percentile, one column per FTL.
        let mut cols = Columns::<f64>::default();
        cols.col("percentile", |p| text(format!("p{p:.0}")));
        for c in &sweep.cells {
            let r = c.sim();
            let lat = if write {
                &r.write_latency
            } else {
                &r.read_latency
            };
            cols.col(c.label.name(), move |&p| num(lat.percentile(p) / 1000.0, 3));
        }
        cols.table(&[50.0, 70.0, 80.0, 90.0, 95.0, 99.0]).print();
        println!();
    }

    let write_pct = |kind, p| sweep.cell(&kind).sim().write_latency.percentile(p);
    println!(
        "90th-percentile write latency: pageFTL/cubeFTL = {:.2}x (paper: ≈1.53x)",
        write_pct(FtlKind::Page, 90.0) / write_pct(FtlKind::Cube, 90.0)
    );
    println!(
        "80th-percentile write latency: cubeFTL is {:.0}% shorter than cubeFTL- (paper: ≈42%)",
        (1.0 - write_pct(FtlKind::Cube, 80.0) / write_pct(FtlKind::CubeMinus, 80.0)) * 100.0
    );
}
