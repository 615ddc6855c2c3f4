//! Figure 14 — effect of the PS-aware read on `NumRetry`.
//!
//! Writes a population of pages, ages the chip to 2K P/E + 1-year
//! retention, and reads everything back twice per scheme:
//!
//! * **PS-unaware**: every read starts from the default read references
//!   and walks to the per-h-layer optimum.
//! * **PS-aware**: reads start from the ORT entry of the page's h-layer;
//!   after the first read of an h-layer, subsequent reads start at the
//!   optimum (up to rare environment-induced mispredictions).
//!
//! The paper reports a 66% average `NumRetry` reduction.

use bench::anchors::fig14_num_retry;
use bench::{banner, num, text, Columns};

pub fn run(_: &crate::BenchArgs) {
    let n = fig14_num_retry();

    banner("Fig. 14 — NumRetry distribution at 2K P/E + 1-year retention");
    let pct = |hist: &[u64; 8], retries: usize| 100.0 * hist[retries] as f64 / n.reads as f64;
    let mut cols = Columns::<usize>::default();
    cols.col("NumRetry", |&r| text(if r == 7 { "7+".to_owned() } else { r.to_string() }));
    cols.col("PS-unaware (%)", |&r| num(pct(&n.unaware_hist, r), 1));
    cols.col("PS-aware (%)", |&r| num(pct(&n.aware_hist, r), 1));
    cols.table(&Vec::from_iter(0..8)).print();

    let unaware_avg = n.unaware as f64 / n.reads as f64;
    let aware_avg = n.aware as f64 / n.reads as f64;
    println!("\naverage NumRetry: PS-unaware {unaware_avg:.2}, PS-aware {aware_avg:.2}");
    println!(
        "reduction: {:.0}% (paper: 66% on average)",
        100.0 * n.reduction()
    );
}
