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

use bench::{banner, paper_chip, program_blocks, read_passes, Table};
use cubeftl::ProgramOrder;
use nand3d::{AgingState, BlockId};

pub fn run(_: &crate::BenchArgs) {
    let mut chip = paper_chip();
    let blocks_per_chip = chip.geometry().blocks_per_chip;

    // Program a population of pages across blocks and layers.
    let blocks: Vec<BlockId> = (0..24u32)
        .map(|b| BlockId(b * 16 % blocks_per_chip))
        .collect();
    program_blocks(
        &mut chip,
        blocks.iter().copied(),
        ProgramOrder::HorizontalFirst,
    );

    chip.set_aging(AgingState::EndOfLife);
    chip.env_mut().set_disturbance_prob(0.01);
    let n = read_passes(&mut chip, &blocks);

    banner("Fig. 14 — NumRetry distribution at 2K P/E + 1-year retention");
    let mut t = Table::new(["NumRetry", "PS-unaware (%)", "PS-aware (%)"]);
    for retries in 0..8usize {
        let label = if retries == 7 {
            "7+".to_owned()
        } else {
            retries.to_string()
        };
        t.row([
            label,
            format!(
                "{:.1}",
                100.0 * n.unaware_hist[retries] as f64 / n.reads as f64
            ),
            format!(
                "{:.1}",
                100.0 * n.aware_hist[retries] as f64 / n.reads as f64
            ),
        ]);
    }
    t.print();

    let unaware_avg = n.unaware as f64 / n.reads as f64;
    let aware_avg = n.aware as f64 / n.reads as f64;
    println!("\naverage NumRetry: PS-unaware {unaware_avg:.2}, PS-aware {aware_avg:.2}");
    println!(
        "reduction: {:.0}% (paper: 66% on average)",
        100.0 * (1.0 - aware_avg / unaware_avg)
    );
}
