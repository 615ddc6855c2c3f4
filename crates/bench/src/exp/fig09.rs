//! Figure 9 — error balancing between h-layers.
//!
//! Before balancing (a): under the default `V_Start`/`V_Final`, reliable
//! h-layers sit far below the ECC limit — wasted spare margin `S_M`.
//! After balancing (b): each h-layer spends its own measured margin on a
//! shorter program, pushing every layer's BER *toward* (but never past)
//! the ECC correction capability.

use bench::{banner, exemplar_layers, f2, paper_chip, Table};
use nand3d::config::ReliabilityParams;
use nand3d::ispp::split_margin_mv;
use nand3d::{AgingState, BlockId, ProgramParams};

pub fn run(_: &crate::BenchArgs) {
    let mut chip = paper_chip();
    chip.set_aging(AgingState::MidLife);
    let g = *chip.geometry();
    let engine = chip.ispp();
    let ecc = ReliabilityParams::PAPER.ecc_capability_ber;
    let block = BlockId(17);

    banner("Fig. 9 — BER per h-layer before/after PS-aware window adjustment");
    let mut t = Table::new([
        "h-layer",
        "before (x ECC limit)",
        "after (x ECC limit)",
        "margin spent (mV)",
        "tPROG saved",
    ]);
    for (label, h) in exemplar_layers(&chip) {
        let chars = engine.characterize(chip.process(), g.wl_addr(block, h, 1), chip.env(), 0);
        let before = engine
            .program(&chars, &ProgramParams::default())
            .expect("default");
        let (up, down) = split_margin_mv(chars.safe_margin_mv, engine.ispp_model());
        let after = engine
            .program(
                &chars,
                &ProgramParams {
                    v_start_up_mv: up,
                    v_final_down_mv: down,
                    ..ProgramParams::default()
                },
            )
            .expect("within safe margin");
        assert!(
            after.post_ber < ecc,
            "balancing must stay under the ECC limit"
        );
        t.row([
            label.to_owned(),
            f2(before.post_ber / ecc),
            f2(after.post_ber / ecc),
            format!("{:.0}", chars.safe_margin_mv),
            format!(
                "{:.1}%",
                100.0 * (1.0 - after.latency_us / before.latency_us)
            ),
        ]);
    }
    t.print();
    println!("\n(paper Fig. 9: the spare margin S_M of reliable layers is re-spent on");
    println!(" shorter programs while BER stays within the ECC correction capability)");
}
