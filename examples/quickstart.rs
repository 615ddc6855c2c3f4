//! Quickstart: build a small PS-aware SSD stack, write and read through
//! cubeFTL, and look at the monitored NAND parameters that make it fast.
//!
//! Run with: `cargo run --release --example quickstart`

use cubeftl::{FtlConfig, FtlDriver, NandChip, NandConfig, ProgramParams};
use ftl::{Ftl, FtlKind};
use nand3d::WlData;
use ssdsim::HostContext;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Level 1: a raw 3D NAND chip -----------------------------------
    // The device model exposes the micro-operation behaviour the paper
    // builds on: program a leader WL, read its monitored ISPP statistics,
    // and reuse them to program a follower WL of the same h-layer faster.
    let mut chip = NandChip::new(NandConfig::small(), 7);
    let block = cubeftl::BlockId(0);
    chip.erase(block)?;

    let leader = chip.geometry().wl_addr(block, 3, 0);
    let leader_report = chip.program_wl(leader, WlData::host(0), &ProgramParams::default())?;
    println!(
        "leader WL  {leader}: tPROG = {:.1} µs (default parameters)",
        leader_report.latency_us
    );

    // Thanks to the horizontal intra-layer similarity, the leader's
    // [L_min, L_max] intervals tell us exactly which verify steps the
    // followers can skip (§4.1.1).
    let mut params = ProgramParams::default();
    for (state, interval) in leader_report.loop_intervals.iter().enumerate() {
        params.n_skip[state] = interval.safe_skip();
    }
    let follower = chip.geometry().wl_addr(block, 3, 1);
    let follower_report = chip.program_wl(follower, WlData::host(3), &params)?;
    println!(
        "follower WL {follower}: tPROG = {:.1} µs ({:.1}% faster, same reliability)",
        follower_report.latency_us,
        100.0 * (1.0 - follower_report.latency_us / leader_report.latency_us)
    );

    // --- Level 2: the full FTL ------------------------------------------
    // cubeFTL packages the same trick (plus V_Start/V_Final shrinking,
    // the mixed program order and the ORT) behind a page-level FTL.
    let mut ftl = Ftl::new(FtlKind::Cube, FtlConfig::small());
    let ctx = HostContext {
        buffer_utilization: 0.95, // a write burst: the WAM picks follower WLs
        now_us: 0.0,
    };
    let mut total_us = 0.0;
    for i in 0..32u64 {
        let w = ftl.write_wl(0, [i * 3, i * 3 + 1, i * 3 + 2], &ctx);
        total_us += w.nand_us;
    }
    println!(
        "\ncubeFTL burst: 32 WLs in {:.1} ms ({} served by follower WLs)",
        total_us / 1000.0,
        ftl.stats().follower_wl_programs
    );

    let read = ftl.read_page(17, &ctx).expect("just written");
    println!(
        "read lpn 17 from chip {}: {:.1} µs, {} retries",
        read.chip, read.nand_us, read.retries
    );
    Ok(())
}
