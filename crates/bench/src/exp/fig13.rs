//! Figure 13 — reliability of the three program sequences.
//!
//! Programs whole blocks in horizontal-first, vertical-first and mixed
//! (MOS) order and compares the resulting BER. 3D NAND's select-line
//! transistors isolate v-layers, so the orders are reliability-equivalent
//! (the paper measured <3% difference, attributable to RTN).

use bench::{banner, f3, paper_chip, program_blocks, Table};
use cubeftl::ProgramOrder;
use nand3d::BlockId;

pub fn run(_: &crate::BenchArgs) {
    let mut chip = paper_chip();

    banner("Fig. 13 — normalized BER per program sequence");
    // Program the *same* blocks for every order (erasing in between),
    // so the comparison isolates the ordering effect the way the
    // paper's controlled experiment does.
    let results = ProgramOrder::ALL.map(|order| {
        let blocks = (0..8u32).map(|rep| BlockId(60 + rep * 7));
        let bers = program_blocks(&mut chip, blocks, order);
        (order, bers.iter().sum::<f64>() / bers.len() as f64)
    });

    let reference = results[0].1;
    let mut t = Table::new(["program sequence", "mean BER (normalized)"]);
    for (order, ber) in &results {
        t.row([order.label().to_owned(), f3(ber / reference)]);
    }
    t.print();

    let max = results.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    let min = results.iter().map(|r| r.1).fold(f64::MAX, f64::min);
    println!(
        "\nmax difference between sequences: {:.2}% (paper: <3%, from RTN)",
        (max / min - 1.0) * 100.0
    );
}
