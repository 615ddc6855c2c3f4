//! Figure 6 — vertical inter-layer variability.
//!
//! (a–c) Per-h-layer normalized BER (leading WL) at three aging states;
//! ΔV grows from ≈1.6 (fresh) to ≈2.3 (2K P/E + 1-year retention).
//! (d) Per-block ΔV differences (two sample blocks and the population
//! spread).

use bench::anchors::{fig06_mean_delta_v, fig06d_delta_v, quartile_blocks, FIG06_AGINGS};
use bench::{banner, f2, f3, paper_chip, Table};
use nand3d::BlockId;

pub fn run(_: &crate::BenchArgs) {
    let chip = paper_chip();
    let g = *chip.geometry();
    let process = chip.process();
    let rel = chip.reliability();
    let block = BlockId(17);

    // Normalization reference: the most reliable h-layer of a fresh
    // block with no retention (as in the paper).
    let reference = (0..g.hlayers_per_block)
        .map(|h| rel.ber(process, g.wl_addr(block, h, 0), 0, 0.0))
        .fold(f64::MAX, f64::min);

    banner("Fig. 6(a)-(c) — normalized BER per h-layer (leading WL), block 17");
    let mut t = Table::new(["h-layer", "fresh", "2K+1mo", "2K+1yr"]);
    for h in 0..g.hlayers_per_block {
        let mut row = vec![format!("{h}")];
        for (pe, months) in FIG06_AGINGS {
            let ber = rel.ber(process, g.wl_addr(block, h, 0), pe, months);
            row.push(f2(ber / reference));
        }
        t.row(row);
    }
    t.print();

    banner("ΔV per aging state (averaged over 64 blocks)");
    let mut t = Table::new(["aging", "mean ΔV", "paper"]);
    let paper_vals = ["≈1.6", "-", "≈2.3"];
    let mean_dvs = fig06_mean_delta_v();
    for (((pe, months), dv), paper) in FIG06_AGINGS.into_iter().zip(mean_dvs).zip(paper_vals) {
        t.row([
            format!("{pe} P/E + {months} mo"),
            f3(dv),
            paper.to_owned(),
        ]);
    }
    t.print();

    banner("Fig. 6(d) — per-block ΔV differences (2K P/E + 1-year retention)");
    // The paper shows two sample blocks differing by 18%; the upper and
    // lower quartiles of the population are representative samples.
    let dvs = fig06d_delta_v();
    let ((bmax, vmax), (bmin, vmin)) = quartile_blocks(&dvs);
    let mut t = Table::new(["block", "ΔV"]);
    t.row([format!("Block I  (#{bmax})"), f3(vmax)]);
    t.row([format!("Block II (#{bmin})"), f3(vmin)]);
    t.print();
    println!(
        "\nBlock I ΔV exceeds Block II by {:.0}% (paper: 18%); population spread {:.0}%",
        (vmax / vmin - 1.0) * 100.0,
        (dvs.last().expect("nonempty").1 / dvs[0].1 - 1.0) * 100.0
    );
}
