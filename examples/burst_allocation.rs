//! Demonstrates the WL Allocation Manager's adaptive behaviour (§5.2):
//! calm writes are served by slow leader WLs (banking the fast
//! followers), and bursts are served from the banked follower pool.
//!
//! Run with: `cargo run --release --example burst_allocation`

use cubeftl::{FtlConfig, FtlDriver};
use ftl::{Ftl, FtlKind};
use ssdsim::HostContext;

fn phase(ftl: &mut Ftl, label: &str, mu: f64, wls: u64, start_lpn: u64) -> u64 {
    let before = ftl.stats().follower_wl_programs;
    let mut total_us = 0.0;
    for i in 0..wls {
        let lpn = start_lpn + i * 3;
        let ctx = HostContext {
            buffer_utilization: mu,
            now_us: 0.0,
        };
        total_us += ftl
            .write_wl((i % 2) as usize, [lpn, lpn + 1, lpn + 2], &ctx)
            .nand_us;
    }
    let followers = ftl.stats().follower_wl_programs - before;
    println!(
        "{label:<28} μ = {mu:<4}  {wls} WLs in {:>7.2} ms   followers used: {followers:>3}/{wls}",
        total_us / 1000.0
    );
    followers
}

fn main() {
    let cfg = FtlConfig::small();
    let mut ftl = Ftl::new(FtlKind::Cube, cfg);

    println!("cubeFTL's WAM (μ_TH = {}):\n", cfg.mu_threshold);
    // Calm traffic: leaders are spent, followers banked for later.
    let calm = phase(&mut ftl, "calm phase (background)", 0.2, 24, 0);
    // Burst: the banked followers serve it at reduced tPROG.
    let burst = phase(&mut ftl, "burst phase (write spike)", 0.97, 24, 300);
    // Back to calm.
    phase(&mut ftl, "calm again", 0.2, 12, 600);

    println!(
        "\nburst used {}x more follower WLs than the calm phase —",
        if calm == 0 {
            burst
        } else {
            burst / calm.max(1)
        }
    );
    println!("that asymmetry is what keeps the write buffer draining fast under pressure");
    println!("(compare cubeFTL vs cubeFTL- in Fig. 18: `cargo run -p bench -- fig18`).");
}
