//! Figure 17 — normalized IOPS of pageFTL / vertFTL / cubeFTL under six
//! workloads at three aging states.
//!
//! This is the paper's headline evaluation (§6.2): cubeFTL improves IOPS
//! by up to 48% over pageFTL and 36% over vertFTL. Run with `--full` for
//! the paper-scale 32-GB SSD (slow); the default reduced scale keeps the
//! topology and FTL behaviour.

use bench::anchors::{fig17_grid, fig17_max_gains};
use bench::{banner, Table};
use cubeftl::AgingState;

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    println!(
        "scale: {} blocks/chip, {} requests per cell",
        cfg.blocks_per_chip(), cfg.requests
    );

    let grid = fig17_grid(cfg);
    for aging in AgingState::ALL {
        banner(&format!("Fig. 17 — normalized IOPS, {aging}"));
        let mut t = Table::new(["workload", "pageFTL", "vertFTL", "cubeFTL", "cube/page"]);
        for row in grid.iter().filter(|r| r.aging == aging) {
            let norm = |iops: f64| format!("{:.2}", iops / row.iops[0]);
            let mut cells = vec![row.workload.label().to_owned()];
            cells.extend(row.iops.map(norm));
            cells.push(format!("+{:.0}%", row.gains()[0] * 100.0));
            t.row(cells);
        }
        t.print();
    }

    let [vs_page, vs_vert] = fig17_max_gains(&grid);
    println!(
        "\nmax cubeFTL gain: +{:.0}% over pageFTL (paper: up to 48%), +{:.0}% over vertFTL (paper: up to 36%)",
        vs_page * 100.0,
        vs_vert * 100.0
    );
}
