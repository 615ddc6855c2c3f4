//! Figure 17 — normalized IOPS of pageFTL / vertFTL / cubeFTL under six
//! workloads at three aging states.
//!
//! This is the paper's headline evaluation (§6.2): cubeFTL improves IOPS
//! by up to 48% over pageFTL and 36% over vertFTL. Run with `--full` for
//! the paper-scale 32-GB SSD (slow); the default reduced scale keeps the
//! topology and FTL behaviour.

use bench::{banner, eval, Table};
use cubeftl::{AgingState, FtlKind, StandardWorkload};

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    println!(
        "scale: {} blocks/chip, {} requests per cell",
        cfg.blocks_per_chip(), cfg.requests
    );

    let mut best_vs_page: f64 = 0.0;
    let mut best_vs_vert: f64 = 0.0;
    for aging in AgingState::ALL {
        banner(&format!("Fig. 17 — normalized IOPS, {aging}"));
        let mut t = Table::new(["workload", "pageFTL", "vertFTL", "cubeFTL", "cube/page"]);
        for workload in StandardWorkload::ALL {
            let [page, vert, cube] = [FtlKind::Page, FtlKind::Vert, FtlKind::Cube]
                .map(|kind| eval(kind, workload, aging, cfg));
            let norm = |iops: f64| format!("{:.2}", iops / page.iops);
            best_vs_page = best_vs_page.max(cube.iops / page.iops - 1.0);
            best_vs_vert = best_vs_vert.max(cube.iops / vert.iops - 1.0);
            t.row([
                workload.label().to_owned(),
                norm(page.iops),
                norm(vert.iops),
                norm(cube.iops),
                format!("+{:.0}%", (cube.iops / page.iops - 1.0) * 100.0),
            ]);
        }
        t.print();
    }

    println!(
        "\nmax cubeFTL gain: +{:.0}% over pageFTL (paper: up to 48%), +{:.0}% over vertFTL (paper: up to 36%)",
        best_vs_page * 100.0,
        best_vs_vert * 100.0
    );
}
