//! Integration tests for the extension features: trace record/replay,
//! the configurable WAM, and the OPM kept per chip.

use cubeftl::harness::{EvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, StandardWorkload};
use ftl::{Ftl, FtlConfig};
use nand3d::BlockId;
use ssdsim::{FtlDriver, HostContext, SsdSim};
use workloads::Trace;

#[test]
fn trace_replay_reproduces_simulation_bit_for_bit() {
    // Record a trace, run it twice through fresh stacks: identical
    // reports; and the serialized form round-trips.
    let cfg = FtlConfig::small();
    let mut gen = StandardWorkload::Mongo.build(800, 3);
    let trace = Trace::record(gen.as_mut(), 1_500);
    let csv = trace.to_msr_csv(16_384);
    let parsed = Trace::from_msr_csv(&csv, 16_384, 800).expect("parse");

    let run = |t: &Trace| {
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        let mut sim = SsdSim::new(ssdsim::SsdConfig::small());
        sim.prefill(&mut ftl, 0..800);
        ftl.reset_stats();
        let r = sim.run(&mut ftl, t.replay(), t.len() as u64);
        (r.iops, r.sim_time_us, r.completed, r.ftl)
    };
    assert_eq!(run(&trace), run(&parsed));
}

#[test]
fn wam_active_block_knob_changes_behaviour_but_not_correctness() {
    for blocks in [1usize, 2, 3] {
        let mut cfg = EvalConfig::smoke();
        cfg.ftl.active_blocks_per_chip = blocks;
        cfg.ftl.gc_free_block_threshold = cfg.ftl.gc_free_block_threshold.max(blocks);
        let r = Scenario::new(
            FtlKind::Cube,
            StandardWorkload::Mail,
            AgingState::Fresh,
            &cfg,
        )
        .run()
        .expect("a custom FTL configuration is a valid scenario")
        .into_sim();
        assert_eq!(r.completed, cfg.requests, "{blocks} active blocks");
    }
}

#[test]
fn trace_of_every_workload_replays_through_every_ftl() {
    let cfg = FtlConfig::small();
    for workload in StandardWorkload::ALL {
        let mut gen = workload.build(800, 7);
        let trace = Trace::record(gen.as_mut(), 400);
        for kind in [FtlKind::Page, FtlKind::Cube] {
            let mut ftl = Ftl::new(kind, cfg);
            let mut sim = SsdSim::new(ssdsim::SsdConfig::small());
            sim.prefill(&mut ftl, 0..800);
            let r = sim.run(&mut ftl, trace.replay(), 400);
            assert_eq!(r.completed, 400, "{} on {}", kind.name(), trace.label());
        }
    }
}

#[test]
fn opm_is_shared_correctly_across_chips() {
    // Writes on chip 0 must not leak monitored parameters to chip 1.
    let cfg = FtlConfig::small();
    let mut ftl = Ftl::new(FtlKind::Cube, cfg);
    let ctx = HostContext {
        buffer_utilization: 0.95,
        now_us: 0.0,
    };
    for i in 0..20u64 {
        ftl.write_wl(0, [i * 3, i * 3 + 1, i * 3 + 2], &ctx);
    }
    let opm = ftl.opm().expect("cubeFTL has an OPM");
    // Only chip 0's active h-layers carry parameters.
    let g = cfg.nand.geometry;
    let chip1_params = (0..g.hlayers_per_block)
        .filter(|h| {
            opm.follower_params(1, g.wl_addr(BlockId(0), *h, 1))
                .is_some()
        })
        .count();
    assert_eq!(chip1_params, 0, "chip 1 must have no monitored layers yet");
}
