//! Figure 18 — I/O latency distributions under the Rocks workload
//! (fresh state): pageFTL, vertFTL, cubeFTL- (WAM disabled) and cubeFTL.
//!
//! (a) Write-latency CDF — cubeFTL flushes the write buffer faster with
//! follower WLs, shortening the backpressure tail (paper: 90th-percentile
//! write latency 0.72 ms vs pageFTL's 1.10 ms, ≈1.53×).
//! (b) Read-latency CDF — even with no read retries at the fresh state,
//! reads queue behind fewer/shorter programs under cubeFTL.

use bench::{banner, eval, BenchArgs, Table};
use cubeftl::{AgingState, FtlKind, StandardWorkload};

fn main() {
    let cfg = BenchArgs::parse(false).cfg;
    println!(
        "scale: {} blocks/chip, {} requests per FTL",
        cfg.blocks_per_chip, cfg.requests
    );

    let kinds = FtlKind::ALL; // page, vert, cube-, cube
    let mut reports: Vec<_> = kinds
        .iter()
        .map(|&k| eval(k, StandardWorkload::Rocks, AgingState::Fresh, &cfg))
        .collect();

    for (which, title) in [
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
        let mut headers = vec!["percentile".to_owned()];
        headers.extend(kinds.iter().map(|k| k.name().to_owned()));
        let mut t = Table::new(headers);
        for p in [50.0, 70.0, 80.0, 90.0, 95.0, 99.0] {
            let mut row = vec![format!("p{p:.0}")];
            for r in reports.iter_mut() {
                let lat = if which {
                    r.write_latency.percentile(p)
                } else {
                    r.read_latency.percentile(p)
                };
                row.push(format!("{:.3}", lat / 1000.0));
            }
            t.row(row);
        }
        t.print();
        println!();
    }

    let p90 = |r: &mut cubeftl::SimReport| r.write_latency.percentile(90.0);
    let page90 = p90(&mut reports[0]);
    let cube90 = p90(&mut reports[3]);
    println!(
        "90th-percentile write latency: pageFTL/cubeFTL = {:.2}x (paper: ≈1.53x)",
        page90 / cube90
    );
    let p80 = |r: &mut cubeftl::SimReport| r.write_latency.percentile(80.0);
    let minus80 = p80(&mut reports[2]);
    let cube80 = p80(&mut reports[3]);
    println!(
        "80th-percentile write latency: cubeFTL is {:.0}% shorter than cubeFTL- (paper: ≈42%)",
        (1.0 - cube80 / minus80) * 100.0
    );
}
