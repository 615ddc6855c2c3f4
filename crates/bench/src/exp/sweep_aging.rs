//! Extra experiment: IOPS across a *continuous* aging sweep.
//!
//! The paper evaluates three discrete aging states (fresh, 2K+1mo,
//! 2K+1yr). This sweep fills in the curve: cubeFTL's advantage over
//! pageFTL grows with retention as read retries start to dominate, while
//! vertFTL stays flat — making the crossover structure of Fig. 17
//! visible as a single trend line per FTL.
//!
//! Run with: `cargo run --release -p bench -- sweep_aging`

use bench::{banner, Table};
use cubeftl::{FtlConfig, FtlKind, StandardWorkload};
use ftl::Ftl;
use ssdsim::SsdSim;

pub fn run(crate::BenchArgs { cfg, .. }: &crate::BenchArgs) {
    banner("IOPS vs retention time at 2K P/E (Mail workload)");
    let mut t = Table::new([
        "retention (months)",
        "pageFTL",
        "vertFTL",
        "cubeFTL",
        "cube/page",
    ]);
    for months in [0.0f64, 0.5, 1.0, 3.0, 6.0, 9.0, 12.0] {
        let mut iops = Vec::new();
        for kind in [FtlKind::Page, FtlKind::Vert, FtlKind::Cube] {
            // Custom aging: pin raw (pe, months) rather than one of the
            // three named states.
            let mut ftl = Ftl::new(kind, FtlConfig { seed: cfg.seed, ..cfg.ftl });
            let mut sim = SsdSim::new(cfg.ssd);
            ftl.set_aging_raw(2000, months);
            let logical = ftl.logical_pages();
            let prefill = (logical as f64 * cfg.prefill_fraction) as u64;
            sim.prefill(&mut ftl, 0..prefill);
            ftl.set_disturbance_prob(cfg.disturbance_prob);
            ftl.reset_stats();
            let stream = StandardWorkload::Mail.build(prefill.max(1024), cfg.seed);
            let r = sim.run(&mut ftl, stream, cfg.requests);
            iops.push(r.iops);
        }
        t.row([
            format!("{months}"),
            format!("{:.0}", iops[0]),
            format!("{:.0}", iops[1]),
            format!("{:.0}", iops[2]),
            format!("{:.2}", iops[2] / iops[0]),
        ]);
    }
    t.print();
    println!("\n(the cube/page ratio rises with retention: program-side gains are flat,");
    println!(" read-retry elimination grows as more reads need retries)");
}
