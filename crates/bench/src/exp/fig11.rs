//! Figure 11 — `V_Start`/`V_Final` adjustment based on `BER_EP1`.
//!
//! (a) `BER_EP1` monitored at program time predicts the retention BER the
//! WL will exhibit (rank correlation across h-layers and aging states).
//! (b) The `S_M` → total-adjustment conversion table, with the paper's
//! anchor: `S_M = 1.7 → 320 mV → tPROG −19.7%`.

use bench::{banner, f2, f3, paper_chip, Table};
use nand3d::ispp::{margin_mv_for_spare, split_margin_mv};
use nand3d::{BlockId, ProgramParams};

pub fn run(_: &crate::BenchArgs) {
    let chip = paper_chip();
    let g = *chip.geometry();
    let engine = chip.ispp();
    let rel = chip.reliability();
    let block = BlockId(17);

    banner("Fig. 11(a) — BER_EP1 vs 1-year retention BER (per h-layer, 2K P/E)");
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut t = Table::new(["h-layer", "normalized BER_EP1", "normalized retention BER"]);
    let ep1_ref = rel.ber_ep1(chip.process(), g.wl_addr(block, 12, 0), 0);
    let ret_ref = rel.ber(chip.process(), g.wl_addr(block, 12, 0), 0, 0.0);
    for h in (0..g.hlayers_per_block).step_by(4) {
        let wl = g.wl_addr(block, h, 0);
        let ep1 = rel.ber_ep1(chip.process(), wl, 2000);
        let ret = rel.ber(chip.process(), wl, 2000, 12.0);
        pairs.push((ep1, ret));
        t.row([h.to_string(), f2(ep1 / ep1_ref), f2(ret / ret_ref)]);
    }
    t.print();
    // Kendall-style inversion count.
    let mut sorted = pairs.clone();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let mut inversions = 0usize;
    let mut total = 0usize;
    for i in 0..sorted.len() {
        for j in (i + 1)..sorted.len() {
            total += 1;
            if sorted[i].1 > sorted[j].1 {
                inversions += 1;
            }
        }
    }
    println!(
        "\nrank agreement: {:.0}% (BER_EP1 is a usable predictor of retention BER)",
        100.0 * (1.0 - inversions as f64 / total as f64)
    );

    banner("Fig. 11(b) — S_M conversion table and the 320 mV anchor");
    let ispp = engine.ispp_model();
    let mut t = Table::new(["S_M", "total margin (mV)", "V_Start (mV)", "V_Final (mV)"]);
    for sm in [0.0, 0.5, 1.0, 1.7, 2.0, 2.5, 3.0] {
        let mv = margin_mv_for_spare(sm, ispp);
        let (up, down) = split_margin_mv(mv, ispp);
        t.row([
            format!("{sm:.1}"),
            format!("{mv:.0}"),
            format!("{up:.0}"),
            format!("{down:.0}"),
        ]);
    }
    t.print();

    // The anchor measurement: a 320 mV total adjustment on a typical WL.
    let env = chip.env();
    let chars = engine.characterize(chip.process(), g.wl_addr(block, 12, 1), env, 0);
    let default = engine
        .program(&chars, &ProgramParams::default())
        .expect("default");
    let (up, down) = split_margin_mv(320.0, ispp);
    let adjusted = engine
        .program(
            &chars,
            &ProgramParams {
                v_start_up_mv: up,
                v_final_down_mv: down,
                ..ProgramParams::default()
            },
        )
        .expect("legal");
    println!(
        "\n320 mV total adjustment: tPROG {} -> {} µs ({} reduction; paper: 19.7%)",
        f2(default.latency_us),
        f2(adjusted.latency_us),
        f3(1.0 - adjusted.latency_us / default.latency_us)
    );
}
