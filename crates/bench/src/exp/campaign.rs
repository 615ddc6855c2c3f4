//! The §3.1 characterization campaign, at sampled scale.
//!
//! The paper tested 160 chips × 128 blocks (11,520,000 pages /
//! 3,840,000 WLs), measuring `N_ret(w_ij, x, t)` across P/E cycles and
//! retention times. This binary runs the same protocol over a sampled
//! population (default 8 chips × 128 blocks; `--full` raises it) and
//! reports the two §3.1 metrics across the aging grid:
//!
//! * `ΔH` distribution (intra-layer similarity — expected ≈ 1),
//! * `ΔV` distribution (inter-layer variability — expected 1.6…2.3).
//!
//! Run with: `cargo run --release -p bench -- campaign`

use bench::{banner, delta_h_of, delta_v_of, f3, Table, FIGURE_SEED};
use nand3d::{FlashArray, NandConfig};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

pub fn run(args: &crate::BenchArgs) {
    let chips = if args.full { 32 } else { 8 };
    let blocks_per_chip = 128u32;
    let array = FlashArray::new(NandConfig::paper(), chips, FIGURE_SEED);
    let g = *array.chip(0).expect("chip 0").geometry();

    let wls = chips as u64
        * u64::from(blocks_per_chip)
        * u64::from(g.hlayers_per_block)
        * u64::from(g.wls_per_hlayer);
    println!(
        "population: {chips} chips x {blocks_per_chip} blocks = {} WLs / {} pages",
        wls,
        wls * u64::from(g.pages_per_wl)
    );
    println!("(paper: 160 chips x 128 blocks = 3,840,000 WLs / 11,520,000 pages)");

    let grid = [
        (0u32, 0.0f64),
        (500, 1.0),
        (1000, 6.0),
        (2000, 1.0),
        (2000, 12.0),
    ];

    banner("ΔH distribution per aging condition (intra-layer similarity, §3.2)");
    let mut t = Table::new(["P/E", "ret (mo)", "p50", "p99", "max", "share > 1.08"]);
    for aging @ (pe, months) in grid {
        let of_chip = |chip| delta_h_of(chip, 0..blocks_per_chip, 0..g.hlayers_per_block, aging);
        let mut dhs: Vec<f64> = array.iter().flat_map(of_chip).collect();
        dhs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let above = dhs.iter().filter(|d| **d > 1.08).count();
        t.row([
            pe.to_string(),
            format!("{months}"),
            f3(percentile(&dhs, 50.0)),
            f3(percentile(&dhs, 99.0)),
            f3(*dhs.last().expect("nonempty")),
            format!("{:.2}%", 100.0 * above as f64 / dhs.len() as f64),
        ]);
    }
    t.print();
    println!("\n(paper: virtually all ΔH values are 1 regardless of flash aging conditions)");

    banner("ΔV distribution per aging condition (inter-layer variability, §3.3)");
    let mut t = Table::new(["P/E", "ret (mo)", "p25", "p50", "p75", "max"]);
    for aging @ (pe, months) in grid {
        let of_chip = |chip| delta_v_of(chip, 0..blocks_per_chip, aging);
        let mut dvs: Vec<f64> = array.iter().flat_map(of_chip).collect();
        dvs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        t.row([
            pe.to_string(),
            format!("{months}"),
            f3(percentile(&dvs, 25.0)),
            f3(percentile(&dvs, 50.0)),
            f3(percentile(&dvs, 75.0)),
            f3(*dvs.last().expect("nonempty")),
        ]);
    }
    t.print();
    println!("\n(paper: ΔV ≈ 1.6 fresh, ≈ 2.3 at 2K P/E + 1-year retention, not easily");
    println!(" predictable across blocks — motivating run-time monitoring over offline");
    println!(" per-layer tables)");
}
