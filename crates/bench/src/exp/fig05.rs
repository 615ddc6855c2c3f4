//! Figure 5 — horizontal intra-layer similarity.
//!
//! (a,b) Normalized retention BER of the four WLs on four exemplar
//! h-layers under two aging conditions — the per-WL bars are equal
//! (ΔH = 1). (c) ΔH across blocks, P/E cycles and retention times.
//! (d) tPROG of each WL on the same h-layer.

use bench::{banner, delta_h_of, exemplar_layers, f2, f3, paper_chip, Table};
use nand3d::BlockId;

pub fn run(_: &crate::BenchArgs) {
    let chip = paper_chip();
    let g = *chip.geometry();
    let process = chip.process();
    let rel = chip.reliability();
    let block = BlockId(17);

    for (title, pe, months) in [
        (
            "Fig. 5(a) — normalized retention BER, 1K P/E + 6-month retention",
            1000u32,
            6.0,
        ),
        (
            "Fig. 5(b) — normalized retention BER, 2K P/E + 1-year retention",
            2000,
            12.0,
        ),
    ] {
        banner(title);
        // Normalize over the best h-layer's BER (as the paper does).
        let best = (0..g.hlayers_per_block)
            .map(|h| rel.ber(process, g.wl_addr(block, h, 0), pe, months))
            .fold(f64::MAX, f64::min);
        let mut t = Table::new(["h-layer", "WL1", "WL2", "WL3", "WL4", "ΔH"]);
        for (label, h) in exemplar_layers(&chip) {
            let bers: Vec<f64> = (0..4u16)
                .map(|v| rel.ber(process, g.wl_addr(block, h, v), pe, months))
                .collect();
            let dh = delta_h_of(&chip, [block.0], [h], (pe, months));
            let mut row: Vec<String> = vec![label.to_owned()];
            row.extend(bers.iter().map(|b| f2(b / best)));
            row.push(f3(dh[0]));
            t.row(row);
        }
        t.print();
    }

    banner("Fig. 5(c) — ΔH across blocks, P/E cycles and retention times");
    let mut t = Table::new(["P/E", "retention (mo)", "blocks", "max ΔH", "mean ΔH"]);
    for (pe, months) in [
        (0u32, 0.0f64),
        (1000, 1.0),
        (1000, 12.0),
        (2000, 1.0),
        (2000, 12.0),
    ] {
        let blocks = (0..g.blocks_per_chip).step_by(4);
        let dhs = delta_h_of(&chip, blocks, 0..g.hlayers_per_block, (pe, months));
        t.row([
            pe.to_string(),
            format!("{months}"),
            (g.blocks_per_chip / 4).to_string(),
            f3(dhs.iter().fold(0.0, |max, &dh| dh.max(max))),
            f3(dhs.iter().sum::<f64>() / dhs.len() as f64),
        ]);
    }
    t.print();
    println!("\n(paper: virtually all ΔH values are 1 regardless of aging)");

    banner("Fig. 5(d) — tPROG of the WLs on the same h-layer (µs)");
    let engine = chip.ispp();
    let env = chip.env();
    let mut t = Table::new(["h-layer", "WL1", "WL2", "WL3", "WL4", "equal"]);
    for (label, h) in exemplar_layers(&chip) {
        let tp: Vec<f64> = (0..4u16)
            .map(|v| {
                let chars = engine.characterize(process, g.wl_addr(block, h, v), env, 0);
                engine.default_tprog_us(&chars)
            })
            .collect();
        let equal = tp.windows(2).all(|w| w[0] == w[1]);
        let mut row: Vec<String> = vec![label.to_owned()];
        row.extend(tp.iter().map(|v| format!("{v:.1}")));
        row.push(equal.to_string());
        t.row(row);
    }
    t.print();
}
