//! Figure 13 — reliability of the three program sequences.
//!
//! Programs whole blocks in horizontal-first, vertical-first and mixed
//! (MOS) order and compares the resulting BER. 3D NAND's select-line
//! transistors isolate v-layers, so the orders are reliability-equivalent
//! (the paper measured <3% difference, attributable to RTN).

use bench::anchors::{fig13_orders, max_over_min};
use bench::{banner, f3, Table};

pub fn run(_: &crate::BenchArgs) {
    banner("Fig. 13 — normalized BER per program sequence");
    let results = fig13_orders();
    let reference = results[0].1;
    let mut t = Table::new(["program sequence", "mean BER (normalized)"]);
    for (order, ber) in &results {
        t.row([order.label().to_owned(), f3(ber / reference)]);
    }
    t.print();

    println!(
        "\nmax difference between sequences: {:.2}% (paper: <3%, from RTN)",
        (max_over_min(results.map(|r| r.1)) - 1.0) * 100.0
    );
}
