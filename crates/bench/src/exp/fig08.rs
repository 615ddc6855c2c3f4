//! Figure 8 — the effect of skipped VFYs on per-state BER and the
//! distribution of `[L_min, L_max]`.
//!
//! (a) For each program state P1..P7, sweep the number of skipped VFYs
//! and measure the resulting BER (normalized over the worst h-layer at
//! 2K P/E + 1-year retention). Skipping up to the state's safe limit
//! leaves the BER unchanged; beyond it, over-programmed fast cells raise
//! the BER rapidly.
//! (b) The measured `[L_min, L_max]` intervals and safe skip counts per
//! state.

use bench::{banner, f2, paper_chip, Table};
use nand3d::{BlockId, ProgramParams, NUM_PROGRAM_STATES};

pub fn run(_: &crate::BenchArgs) {
    let chip = paper_chip();
    let g = *chip.geometry();
    let engine = chip.ispp();
    let env = chip.env();
    let wl = g.wl_addr(BlockId(17), 12, 1);
    let chars = engine.characterize(chip.process(), wl, env, 0);

    // Normalization: worst h-layer at end of life (as in the figure).
    let mut aged_env = env.clone();
    aged_env.set_aging_raw(2000, 12.0);
    let worst = (0..g.hlayers_per_block)
        .map(|h| {
            engine
                .characterize(chip.process(), g.wl_addr(BlockId(17), h, 0), &aged_env, 0)
                .base_ber
        })
        .fold(f64::MIN, f64::max);

    banner("Fig. 8(a) — normalized BER vs number of skipped VFYs per state");
    let mut headers = vec!["N_skip".to_owned()];
    headers.extend((1..=NUM_PROGRAM_STATES).map(|s| format!("P{s}")));
    let mut t = Table::new(headers);
    for n_skip in 0..=10u8 {
        let mut row = vec![n_skip.to_string()];
        for s in 0..NUM_PROGRAM_STATES {
            let mut params = ProgramParams::default();
            params.n_skip[s] = n_skip;
            let out = engine.program(&chars, &params).expect("legal params");
            row.push(f2(out.post_ber / worst));
        }
        t.row(row);
    }
    t.print();
    println!(
        "\nSafe skip limits (L_min - 1): {:?}",
        chars
            .intervals
            .iter()
            .map(|iv| iv.safe_skip())
            .collect::<Vec<_>>()
    );
    println!("(paper: P7 can safely skip ~7 VFYs, P1 only 1; BER grows beyond the limit)");

    banner("Fig. 8(b) — [L_min, L_max] distribution per program state");
    let mut t = Table::new([
        "state",
        "L_min (mean)",
        "L_max (mean)",
        "N_skip (mean)",
        "width",
    ]);
    let mut lmin_sum = [0.0f64; NUM_PROGRAM_STATES];
    let mut lmax_sum = [0.0f64; NUM_PROGRAM_STATES];
    let mut n = 0.0;
    for b in (0..g.blocks_per_chip).step_by(8) {
        for h in 0..g.hlayers_per_block {
            let c = engine.characterize(chip.process(), g.wl_addr(BlockId(b), h, 0), env, 0);
            for s in 0..NUM_PROGRAM_STATES {
                lmin_sum[s] += f64::from(c.intervals[s].lmin);
                lmax_sum[s] += f64::from(c.intervals[s].lmax);
            }
            n += 1.0;
        }
    }
    for s in 0..NUM_PROGRAM_STATES {
        let lmin = lmin_sum[s] / n;
        let lmax = lmax_sum[s] / n;
        t.row([
            format!("P{}", s + 1),
            format!("{lmin:.1}"),
            format!("{lmax:.1}"),
            format!("{:.1}", lmin - 1.0),
            format!("{:.1}", lmax - lmin),
        ]);
    }
    t.print();
    println!("\n(paper example: P7 state has L_min = 7, L_max = 9)");
}
