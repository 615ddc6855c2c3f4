//! Figure 10 — BER changes over `V_Start` / `V_Final` adjustment margins
//! for different h-layers.
//!
//! Sweeps the window adjustment on exemplar h-layers and reports the
//! resulting post-program BER (normalized to the unadjusted program).
//! Good layers tolerate large margins; the worst layers under aged
//! conditions run out of spare margin quickly.

use bench::{banner, exemplar_layers, f2, paper_chip, Table};
use nand3d::{BlockId, ProgramParams};

pub fn run(_: &crate::BenchArgs) {
    let chip = paper_chip();
    let g = *chip.geometry();
    let engine = chip.ispp();
    let ispp = engine.ispp_model();
    let block = BlockId(17);

    for (title, pe, months, sweep_start) in [
        (
            "Fig. 10(a) — BER over V_Start adjustment margins (2K P/E + 1 yr)",
            2000u32,
            12.0,
            true,
        ),
        (
            "Fig. 10(b) — BER over V_Final adjustment margins (2K P/E + 1 yr)",
            2000,
            12.0,
            false,
        ),
    ] {
        banner(title);
        let mut env = chip.env().clone();
        env.set_aging_raw(pe, months);
        let mut headers = vec!["margin (mV)".to_owned()];
        headers.extend(exemplar_layers(&chip).iter().map(|(l, _)| (*l).to_owned()));
        let mut t = Table::new(headers);
        let steps = (ispp.max_adjust_mv / ispp.delta_v_ispp_mv) as u32;
        for step in 0..=steps {
            let mv = f64::from(step) * ispp.delta_v_ispp_mv;
            let mut row = vec![format!("{mv:.0}")];
            for (_, h) in exemplar_layers(&chip) {
                let chars = engine.characterize(chip.process(), g.wl_addr(block, h, 1), &env, 0);
                let params = if sweep_start {
                    ProgramParams {
                        v_start_up_mv: mv,
                        ..ProgramParams::default()
                    }
                } else {
                    ProgramParams {
                        v_final_down_mv: mv,
                        ..ProgramParams::default()
                    }
                };
                let out = engine.program(&chars, &params).expect("legal sweep");
                row.push(f2(out.post_ber / chars.base_ber));
            }
            t.row(row);
        }
        t.print();
        println!();
    }

    banner("Safe total margins per exemplar layer (mV)");
    let mut t = Table::new(["h-layer", "fresh", "2K+1mo", "2K+1yr"]);
    for (label, h) in exemplar_layers(&chip) {
        let mut row = vec![label.to_owned()];
        for (pe, months) in [(0u32, 0.0f64), (2000, 1.0), (2000, 12.0)] {
            let mut env = chip.env().clone();
            env.set_aging_raw(pe, months);
            let chars = engine.characterize(chip.process(), g.wl_addr(block, h, 1), &env, 0);
            row.push(format!("{:.0}", chars.safe_margin_mv));
        }
        t.row(row);
    }
    t.print();
    println!("\n(paper [13]: h-layer_beta can statically spend only 130 mV over its lifetime;");
    println!(" run-time monitoring lets cubeFTL spend the full current margin instead)");
}
