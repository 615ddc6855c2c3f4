//! Figure 18 — I/O latency distributions under the Rocks workload
//! (fresh state): pageFTL, vertFTL, cubeFTL- (WAM disabled) and cubeFTL.
//!
//! (a) Write-latency CDF — cubeFTL flushes the write buffer faster with
//! follower WLs, shortening the backpressure tail (paper: 90th-percentile
//! write latency 0.72 ms vs pageFTL's 1.10 ms, ≈1.53×).
//! (b) Read-latency CDF — even with no read retries at the fresh state,
//! reads queue behind fewer/shorter programs under cubeFTL.

use bench::anchors::{fig18_latency, fig18_p80_write_shortening, fig18_p90_write_ratio, fig18_sweep};
use bench::{banner, num, text, Columns};

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    println!(
        "scale: {} blocks/chip, {} requests per FTL",
        cfg.blocks_per_chip(), cfg.requests
    );

    let sweep = &fig18_sweep(cfg);

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
            let kind = c.label;
            cols.col(kind.name(), move |&p| {
                num(fig18_latency(sweep, kind, write, p) / 1000.0, 3)
            });
        }
        cols.table(&[50.0, 70.0, 80.0, 90.0, 95.0, 99.0]).print();
        println!();
    }

    println!(
        "90th-percentile write latency: pageFTL/cubeFTL = {:.2}x (paper: ≈1.53x)",
        fig18_p90_write_ratio(sweep)
    );
    println!(
        "80th-percentile write latency: cubeFTL is {:.0}% shorter than cubeFTL- (paper: ≈42%)",
        fig18_p80_write_shortening(sweep) * 100.0
    );
}
