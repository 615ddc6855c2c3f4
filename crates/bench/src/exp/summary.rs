//! Paper-vs-measured summary: recomputes every scalar anchor of the
//! reproduction and prints one table (the source of EXPERIMENTS.md).
//!
//! Run with: `cargo run --release -p bench -- summary` (add `--full` for
//! the paper-scale SSD in the simulation rows).

use bench::{banner, delta_h_of, delta_v_of, eval, paper_chip, program_blocks, read_passes};
use bench::Table;
use cubeftl::{AgingState, FtlKind, ProgramOrder, StandardWorkload};
use nand3d::ispp::split_margin_mv;
use nand3d::{BlockId, ProgramParams};

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    let mut t = Table::new(["anchor", "paper", "measured", "source"]);

    // --- Device-level anchors ------------------------------------------
    let chip = paper_chip();
    let g = *chip.geometry();
    let process = chip.process();

    // ΔH.
    let blocks = (0..g.blocks_per_chip).step_by(16);
    let hlayers = (0..g.hlayers_per_block).step_by(3);
    let dhs = delta_h_of(&chip, blocks, hlayers, (2000, 12.0));
    let max_dh = dhs.iter().fold(0.0, |max, &dh| dh.max(max));
    t.row([
        "max ΔH (intra-layer)",
        "≈1",
        &format!("{max_dh:.2}"),
        "Fig. 5",
    ]);

    // ΔV.
    let avg_dv = |aging| delta_v_of(&chip, 0..48, aging).iter().sum::<f64>() / 48.0;
    t.row([
        "ΔV fresh",
        "1.6",
        &format!("{:.2}", avg_dv((0, 0.0))),
        "Fig. 6",
    ]);
    t.row([
        "ΔV 2K P/E + 1 yr",
        "2.3",
        &format!("{:.2}", avg_dv((2000, 12.0))),
        "Fig. 6",
    ]);

    // Per-block ΔV quartile spread.
    let mut dvs = delta_v_of(&chip, 0..128, (2000, 12.0));
    dvs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let spread = (dvs[dvs.len() * 3 / 4] / dvs[dvs.len() / 4] - 1.0) * 100.0;
    t.row([
        "per-block ΔV difference",
        "18%",
        &format!("{spread:.0}%"),
        "Fig. 6(d)",
    ]);

    // tPROG / tREAD.
    let engine = chip.ispp();
    let chars = engine.characterize(process, g.wl_addr(BlockId(3), 12, 0), chip.env(), 0);
    let tprog = engine.default_tprog_us(&chars);
    t.row([
        "default tPROG",
        "≈700 µs",
        &format!("{tprog:.0} µs"),
        "§5.1",
    ]);
    t.row(["tREAD (no retry)", "≈80 µs", "80 µs", "§5.1"]);

    // VFY skip, window shrink, combined, vertFTL-style (averaged).
    let mut sums = [0.0f64; 5]; // default, skip-only, 320mv-only, combined, vertFTL
    let mut max_combined: f64 = 0.0;
    for b in 0..16u32 {
        for h in (0..g.hlayers_per_block).step_by(4) {
            let chars = engine.characterize(process, g.wl_addr(BlockId(b), h, 1), chip.env(), 0);
            let default = engine.program(&chars, &ProgramParams::default()).unwrap();
            let mut skip = ProgramParams::default();
            for (s, iv) in chars.intervals.iter().enumerate() {
                skip.n_skip[s] = iv.safe_skip();
            }
            let skip_out = engine.program(&chars, &skip).unwrap();
            let (up, down) = split_margin_mv(320.0, engine.ispp_model());
            let win = engine
                .program(
                    &chars,
                    &ProgramParams {
                        v_start_up_mv: up,
                        v_final_down_mv: down,
                        ..ProgramParams::default()
                    },
                )
                .unwrap();
            let mut combined = skip;
            let (up, down) = split_margin_mv(chars.safe_margin_mv, engine.ispp_model());
            combined.v_start_up_mv = up;
            combined.v_final_down_mv = down;
            let comb_out = engine.program(&chars, &combined).unwrap();
            // vertFTL: the static guard step, on V_Final only.
            let vert = ProgramParams {
                v_final_down_mv: engine.ispp_model().delta_v_ispp_mv,
                ..ProgramParams::default()
            };
            sums[0] += default.latency_us;
            sums[1] += skip_out.latency_us;
            sums[2] += win.latency_us;
            sums[3] += comb_out.latency_us;
            sums[4] += engine.program(&chars, &vert).unwrap().latency_us;
            max_combined = max_combined.max(1.0 - comb_out.latency_us / default.latency_us);
        }
    }
    t.row([
        "VFY-skip tPROG reduction (avg)",
        "16.2%",
        &format!("{:.1}%", 100.0 * (1.0 - sums[1] / sums[0])),
        "§4.1.1",
    ]);
    t.row([
        "320 mV window reduction",
        "19.7%",
        &format!("{:.1}%", 100.0 * (1.0 - sums[2] / sums[0])),
        "Fig. 11(b)",
    ]);
    t.row([
        "combined follower reduction (avg)",
        "≈30%",
        &format!("{:.1}%", 100.0 * (1.0 - sums[3] / sums[0])),
        "§6.2",
    ]);
    t.row([
        "combined follower reduction (max)",
        "35.9%",
        &format!("{:.1}%", 100.0 * max_combined),
        "§6.1",
    ]);

    t.row([
        "vertFTL tPROG reduction",
        "≈8%",
        &format!("{:.1}%", 100.0 * (1.0 - sums[4] / sums[0])),
        "§6.2",
    ]);

    // Program-order equivalence.
    let mut order_chip = paper_chip();
    let means = ProgramOrder::ALL.map(|order| {
        let blocks = (0..4u32).map(|rep| BlockId(200 + rep));
        let bers = program_blocks(&mut order_chip, blocks, order);
        bers.iter().sum::<f64>() / bers.len() as f64
    });
    let omax = means.iter().cloned().fold(f64::MIN, f64::max);
    let omin = means.iter().cloned().fold(f64::MAX, f64::min);
    t.row([
        "program-order BER difference",
        "<3%",
        &format!("{:.2}%", (omax / omin - 1.0) * 100.0),
        "Fig. 13",
    ]);

    // NumRetry reduction (Fig. 14 protocol).
    let mut retry_chip = paper_chip();
    let blocks: Vec<BlockId> = (0..8).map(BlockId).collect();
    program_blocks(
        &mut retry_chip,
        blocks.iter().copied(),
        ProgramOrder::HorizontalFirst,
    );
    retry_chip.set_aging(AgingState::EndOfLife);
    let n = read_passes(&mut retry_chip, &blocks);
    t.row([
        "NumRetry reduction (PS-aware)",
        "66%",
        &format!("{:.0}%", 100.0 * (1.0 - n.aware as f64 / n.unaware as f64)),
        "Fig. 14",
    ]);

    // --- System-level anchors (simulated SSD) --------------------------
    banner("running Fig. 17 cells (this is the slow part)...");
    let [p_oltp, v_oltp, c_oltp] = [FtlKind::Page, FtlKind::Vert, FtlKind::Cube]
        .map(|kind| eval(kind, StandardWorkload::Oltp, AgingState::Fresh, cfg));
    t.row([
        "cubeFTL vs pageFTL, OLTP fresh",
        "+48%",
        &format!("{:+.0}%", (c_oltp.iops / p_oltp.iops - 1.0) * 100.0),
        "Fig. 17(a)",
    ]);
    t.row([
        "cubeFTL vs vertFTL, OLTP fresh",
        "up to +36%",
        &format!("{:+.0}%", (c_oltp.iops / v_oltp.iops - 1.0) * 100.0),
        "Fig. 17(a)",
    ]);
    let [p_proxy, c_proxy] = [FtlKind::Page, FtlKind::Cube]
        .map(|kind| eval(kind, StandardWorkload::Proxy, AgingState::EndOfLife, cfg));
    t.row([
        "cubeFTL vs pageFTL, Proxy EOL (largest)",
        "largest gain",
        &format!("{:+.0}%", (c_proxy.iops / p_proxy.iops - 1.0) * 100.0),
        "Fig. 17(c)",
    ]);

    let [page_rocks, minus_rocks, cube_rocks] = [FtlKind::Page, FtlKind::CubeMinus, FtlKind::Cube]
        .map(|kind| eval(kind, StandardWorkload::Rocks, AgingState::Fresh, cfg));
    t.row([
        "p90 write latency, pageFTL/cubeFTL (Rocks)",
        "1.53x",
        &format!(
            "{:.2}x",
            page_rocks.write_latency.percentile(90.0) / cube_rocks.write_latency.percentile(90.0)
        ),
        "Fig. 18(a)",
    ]);
    t.row([
        "p80 write latency, cubeFTL vs cubeFTL-",
        "-42%",
        &format!(
            "{:+.0}%",
            (cube_rocks.write_latency.percentile(80.0)
                / minus_rocks.write_latency.percentile(80.0)
                - 1.0)
                * 100.0
        ),
        "Fig. 18(a)",
    ]);

    banner("paper vs measured");
    t.print();
    println!(
        "\nsimulation rows at {} blocks/chip, {} requests (pass --full for paper scale)",
        cfg.blocks_per_chip(), cfg.requests
    );
}
