//! Paper-vs-measured summary: recomputes every scalar anchor of the
//! reproduction and prints one table (the source of EXPERIMENTS.md).
//!
//! Run with: `cargo run --release -p bench --bin summary` (add `--full`
//! for the paper-scale SSD in the simulation rows).

use bench::{banner, eval, paper_chip, BenchArgs, Table};
use cubeftl::{AgingState, FtlKind, ProgramOrder, StandardWorkload};
use ftl::Opm;
use nand3d::ispp::split_margin_mv;
use nand3d::{delta_h, delta_v, BlockId, ProgramParams, ReadParams, WlData};

fn main() {
    let cfg = BenchArgs::parse(false).cfg;
    let mut t = Table::new(["anchor", "paper", "measured", "source"]);

    // --- Device-level anchors ------------------------------------------
    let chip = paper_chip();
    let g = *chip.geometry();
    let rel = chip.reliability();
    let process = chip.process();

    // ΔH.
    let mut max_dh: f64 = 0.0;
    for b in (0..g.blocks_per_chip).step_by(16) {
        for h in (0..g.hlayers_per_block).step_by(3) {
            let bers: Vec<f64> = (0..g.wls_per_hlayer)
                .map(|v| rel.ber(process, g.wl_addr(BlockId(b), h, v), 2000, 12.0))
                .collect();
            max_dh = max_dh.max(delta_h(&bers));
        }
    }
    t.row([
        "max ΔH (intra-layer)",
        "≈1",
        &format!("{max_dh:.2}"),
        "Fig. 5",
    ]);

    // ΔV.
    let avg_dv = |pe: u32, months: f64| -> f64 {
        (0..48u32)
            .map(|b| {
                let bers: Vec<f64> = (0..g.hlayers_per_block)
                    .map(|h| rel.ber(process, g.wl_addr(BlockId(b), h, 0), pe, months))
                    .collect();
                delta_v(&bers)
            })
            .sum::<f64>()
            / 48.0
    };
    t.row([
        "ΔV fresh",
        "1.6",
        &format!("{:.2}", avg_dv(0, 0.0)),
        "Fig. 6",
    ]);
    t.row([
        "ΔV 2K P/E + 1 yr",
        "2.3",
        &format!("{:.2}", avg_dv(2000, 12.0)),
        "Fig. 6",
    ]);

    // Per-block ΔV quartile spread.
    let mut dvs: Vec<f64> = (0..128u32)
        .map(|b| {
            let bers: Vec<f64> = (0..g.hlayers_per_block)
                .map(|h| rel.ber(process, g.wl_addr(BlockId(b), h, 0), 2000, 12.0))
                .collect();
            delta_v(&bers)
        })
        .collect();
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
    let mut sums = [0.0f64; 4]; // default, skip-only, 320mv-only, combined
    let mut max_combined: f64 = 0.0;
    let mut n = 0.0;
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
            sums[0] += default.latency_us;
            sums[1] += skip_out.latency_us;
            sums[2] += win.latency_us;
            sums[3] += comb_out.latency_us;
            max_combined = max_combined.max(1.0 - comb_out.latency_us / default.latency_us);
            n += 1.0;
        }
    }
    let _ = n;
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

    // vertFTL static reduction.
    let mut vert_sum = 0.0;
    let mut def_sum = 0.0;
    for b in 0..16u32 {
        for h in (0..g.hlayers_per_block).step_by(4) {
            let chars = engine.characterize(process, g.wl_addr(BlockId(b), h, 1), chip.env(), 0);
            def_sum += engine
                .program(&chars, &ProgramParams::default())
                .unwrap()
                .latency_us;
            vert_sum += engine
                .program(
                    &chars,
                    &ProgramParams {
                        v_final_down_mv: engine.ispp_model().delta_v_ispp_mv,
                        ..ProgramParams::default()
                    },
                )
                .unwrap()
                .latency_us;
        }
    }
    t.row([
        "vertFTL tPROG reduction",
        "≈8%",
        &format!("{:.1}%", 100.0 * (1.0 - vert_sum / def_sum)),
        "§6.2",
    ]);

    // Program-order equivalence.
    let mut order_chip = paper_chip();
    let mut means = Vec::new();
    for order in ProgramOrder::ALL {
        let mut sum = 0.0;
        let mut count = 0.0;
        for rep in 0..4u32 {
            let b = BlockId(200 + rep);
            order_chip.erase(b).unwrap();
            for wl in order.sequence(&g, b).collect::<Vec<_>>() {
                sum += order_chip
                    .program_wl(wl, WlData::host(0), &ProgramParams::default())
                    .unwrap()
                    .post_ber;
                count += 1.0;
            }
        }
        means.push(sum / count);
    }
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
    for b in 0..8u32 {
        retry_chip.erase(BlockId(b)).unwrap();
        for wl in g.wls_of_block(BlockId(b)).collect::<Vec<_>>() {
            retry_chip
                .program_wl(wl, WlData::host(0), &ProgramParams::default())
                .unwrap();
        }
    }
    retry_chip.set_aging(AgingState::EndOfLife);
    let mut opm = Opm::new(&g, 1);
    let mut unaware = 0u64;
    let mut aware = 0u64;
    let mut reads = 0u64;
    for _pass in 0..2 {
        for b in 0..8u32 {
            for wl in g.wls_of_block(BlockId(b)).collect::<Vec<_>>() {
                for page in g.pages_of_wl(wl).collect::<Vec<_>>() {
                    let r = retry_chip.read_page(page, ReadParams::default()).unwrap();
                    unaware += u64::from(r.retries);
                    let start = opm.read_offset(0, wl);
                    let r = retry_chip
                        .read_page(page, ReadParams::from_offset(start))
                        .unwrap();
                    opm.update_read_offset(0, wl, r.final_offset);
                    aware += u64::from(r.retries);
                    reads += 1;
                }
            }
        }
    }
    let _ = reads;
    t.row([
        "NumRetry reduction (PS-aware)",
        "66%",
        &format!("{:.0}%", 100.0 * (1.0 - aware as f64 / unaware as f64)),
        "Fig. 14",
    ]);

    // --- System-level anchors (simulated SSD) --------------------------
    banner("running Fig. 17 cells (this is the slow part)...");
    let [p_oltp, v_oltp, c_oltp] = [FtlKind::Page, FtlKind::Vert, FtlKind::Cube]
        .map(|kind| eval(kind, StandardWorkload::Oltp, AgingState::Fresh, &cfg));
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
        .map(|kind| eval(kind, StandardWorkload::Proxy, AgingState::EndOfLife, &cfg));
    t.row([
        "cubeFTL vs pageFTL, Proxy EOL (largest)",
        "largest gain",
        &format!("{:+.0}%", (c_proxy.iops / p_proxy.iops - 1.0) * 100.0),
        "Fig. 17(c)",
    ]);

    let page_rocks = eval(
        FtlKind::Page,
        StandardWorkload::Rocks,
        AgingState::Fresh,
        &cfg,
    );
    let minus_rocks = eval(
        FtlKind::CubeMinus,
        StandardWorkload::Rocks,
        AgingState::Fresh,
        &cfg,
    );
    let cube_rocks = eval(
        FtlKind::Cube,
        StandardWorkload::Rocks,
        AgingState::Fresh,
        &cfg,
    );
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
        cfg.blocks_per_chip, cfg.requests
    );
}
