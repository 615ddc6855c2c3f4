//! Integration tests for the extension features: trace record/replay,
//! latency prediction, PS-aware ECC, and the configurable WAM.

use cubeftl::harness::{EvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, StandardWorkload};
use ftl::{Ftl, FtlConfig, LatencyPredictor, Opm};
use nand3d::{BlockId, EccModel, NandChip, NandConfig, ProgramParams, WlData};
use ssdsim::{FtlDriver, HostContext, SsdSim};
use workloads::Trace;

#[test]
fn trace_replay_reproduces_simulation_bit_for_bit() {
    // Record a trace, run it twice through fresh stacks: identical
    // reports; and the serialized form round-trips.
    let cfg = FtlConfig::small();
    let mut gen = StandardWorkload::Mongo.build(800, 3);
    let trace = Trace::record(gen.as_mut(), 1_500);
    let text = trace.to_text();
    let parsed: Trace = text.parse().expect("parse");

    let run = |t: &Trace| {
        let mut ftl = Ftl::cube(cfg);
        let mut sim = SsdSim::new(ssdsim::SsdConfig::small());
        sim.prefill(&mut ftl, 0..800);
        ftl.reset_stats();
        let r = sim.run(&mut ftl, t.replay(), t.len() as u64);
        (r.iops, r.sim_time_us, r.completed, r.ftl)
    };
    assert_eq!(run(&trace), run(&parsed));
}

#[test]
fn predictor_enables_deadline_scheduling_decisions() {
    // End-to-end: monitor leaders through the chip, then check the
    // predictor's forecasts rank WLs correctly (a deadline scheduler
    // only needs correct relative order + tight absolute error).
    let config = NandConfig::small();
    let mut chip = NandChip::new(config, 21);
    let mut opm = Opm::new(&config.geometry, 1);
    let predictor = LatencyPredictor;
    let g = config.geometry;

    chip.erase(BlockId(0)).unwrap();
    let mut pairs = Vec::new();
    for h in 0..g.hlayers_per_block {
        let leader = g.wl_addr(BlockId(0), h, 0);
        let report = chip
            .program_wl(leader, WlData::host(0), &ProgramParams::default())
            .unwrap();
        opm.record_leader(0, leader, &report, chip.ispp());
        let follower = g.wl_addr(BlockId(0), h, 1);
        let forecast = predictor.follower_tprog(&opm, 0, follower);
        let params = opm
            .follower_params(0, follower)
            .unwrap()
            .to_program_params();
        let actual = chip.program_wl(follower, WlData::host(3), &params).unwrap();
        pairs.push((forecast.latency_us, actual.latency_us));
    }
    for (f, a) in &pairs {
        assert!((f - a).abs() / a < 0.01, "forecast {f} vs actual {a}");
    }
}

#[test]
fn ps_aware_ecc_never_loses_and_wins_when_aged() {
    let ecc = EccModel::ldpc();
    let chip = NandChip::new(NandConfig::paper(), 9);
    let g = *chip.geometry();
    let rel = chip.reliability();
    let mut total_unaware = 0.0;
    let mut total_aware = 0.0;
    for b in 0..8u32 {
        for h in 0..g.hlayers_per_block {
            let raw = rel.ber(chip.process(), g.wl_addr(BlockId(b), h, 2), 2000, 12.0);
            let predicted = rel.ber(chip.process(), g.wl_addr(BlockId(b), h, 0), 2000, 12.0);
            let unaware = ecc.decode_escalating_us(raw).expect("correctable");
            let aware = ecc
                .decode_predicted_us(raw, predicted)
                .expect("correctable");
            // ΔH ≈ 1 means the leader's BER predicts the right mode, so
            // the PS-aware decode never pays *more* than escalation.
            assert!(aware <= unaware + 1e-9);
            total_unaware += unaware;
            total_aware += aware;
        }
    }
    assert!(
        total_aware < 0.95 * total_unaware,
        "PS-aware decoding should save time at end of life"
    );
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
    let mut ftl = Ftl::cube(cfg);
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
