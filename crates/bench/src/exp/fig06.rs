//! Figure 6 — vertical inter-layer variability.
//!
//! (a–c) Per-h-layer normalized BER (leading WL) at three aging states;
//! ΔV grows from ≈1.6 (fresh) to ≈2.3 (2K P/E + 1-year retention).
//! (d) Per-block ΔV differences (two sample blocks and the population
//! spread).

use bench::{banner, delta_v_of, f2, f3, paper_chip, Table};
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
    let states = [(0u32, 0.0f64), (2000, 1.0), (2000, 12.0)];
    for h in 0..g.hlayers_per_block {
        let mut row = vec![format!("{h}")];
        for (pe, months) in states {
            let ber = rel.ber(process, g.wl_addr(block, h, 0), pe, months);
            row.push(f2(ber / reference));
        }
        t.row(row);
    }
    t.print();

    banner("ΔV per aging state (averaged over 64 blocks)");
    let mut t = Table::new(["aging", "mean ΔV", "paper"]);
    let paper_vals = ["≈1.6", "-", "≈2.3"];
    for ((pe, months), paper) in states.into_iter().zip(paper_vals) {
        let sum: f64 = delta_v_of(&chip, 0..64, (pe, months)).iter().sum();
        t.row([
            format!("{pe} P/E + {months} mo"),
            f3(sum / 64.0),
            paper.to_owned(),
        ]);
    }
    t.print();

    banner("Fig. 6(d) — per-block ΔV differences (2K P/E + 1-year retention)");
    let dvs = delta_v_of(&chip, 0..128, (2000, 12.0));
    let mut dvs: Vec<(u32, f64)> = (0..128).zip(dvs).collect();
    dvs.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    // The paper shows two sample blocks differing by 18%; the upper and
    // lower quartiles of the population are representative samples.
    let (bmin, vmin) = dvs[dvs.len() / 4];
    let (bmax, vmax) = dvs[dvs.len() * 3 / 4];
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
