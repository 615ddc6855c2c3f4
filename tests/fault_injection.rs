//! End-to-end fault injection: seeded fault plans flow from the harness
//! through the FTL into the NAND model, every injected anomaly is
//! recovered, and the recovery work is visible in the [`SimReport`].

mod common;

use common::eval;
use cubeftl::harness::EvalConfig;
use cubeftl::{AgingState, FaultKind, FaultPlan, FtlKind, StandardWorkload};

/// All five fault classes, hot enough to fire repeatedly in a smoke run.
fn hot_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_rate(FaultKind::IsppLoopOutlier, 0.02)
        .with_rate(FaultKind::BerSpike, 0.02)
        .with_rate(FaultKind::ProgramAbort, 0.01)
        .with_rate(FaultKind::StuckRetry, 0.05)
        .with_rate(FaultKind::UncorrectableRead, 0.02)
}

fn faulty_cfg(seed: u64) -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.faults = Some(hot_plan(seed));
    cfg
}

#[test]
fn every_ftl_completes_under_heavy_faults() {
    // Faults cost latency but never data: every request completes and
    // every read returns the mapped page (the FTL debug-asserts that the
    // page content matches the LPN on every NAND read).
    let cfg = faulty_cfg(0xFA17);
    for kind in FtlKind::ALL {
        for workload in [StandardWorkload::Mail, StandardWorkload::Oltp] {
            let r = eval(kind, workload, AgingState::MidLife, &cfg);
            assert_eq!(
                r.completed,
                cfg.requests,
                "{} under {} lost requests with faults on",
                kind.name(),
                workload.label()
            );
        }
    }
}

#[test]
fn recovery_counters_surface_in_the_report() {
    let cfg = faulty_cfg(0xFA17);
    let r = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::MidLife,
        &cfg,
    );
    let s = &r.ftl;
    assert!(s.program_aborts > 0, "no aborts fired");
    assert!(s.safety_reprograms > 0, "no §4.1.4 re-programs fired");
    assert!(s.safety_demotions > 0, "re-programs must demote the layer");
    assert!(s.stuck_retry_recoveries > 0, "no stuck-retry recoveries");
    assert!(
        s.uncorrectable_recoveries > 0,
        "no uncorrectable recoveries"
    );
    assert_eq!(
        s.recovery_actions(),
        s.safety_reprograms
            + s.safety_demotions
            + s.program_aborts
            + s.stuck_retry_recoveries
            + s.uncorrectable_recoveries
    );
    // Abort re-issues and safety re-programs are extra NAND programs and
    // must show up as write amplification.
    let wa = r.wa_host().expect("the run wrote data");
    assert!(wa > 1.0, "recovery programs must amplify writes, wa={wa}");
}

#[test]
fn faults_cost_latency_but_not_results() {
    let clean = EvalConfig::smoke();
    let faulty = faulty_cfg(0xFA17);
    let kind = FtlKind::Cube;
    let a = eval(kind, StandardWorkload::Web, AgingState::MidLife, &clean);
    let b = eval(kind, StandardWorkload::Web, AgingState::MidLife, &faulty);
    // Same workload stream either way.
    assert_eq!(a.completed, b.completed);
    assert_eq!((a.reads, a.writes), (b.reads, b.writes));
    // Stuck-retry and uncorrectable recoveries pay extra read retries.
    assert!(
        b.ftl.read_retries > a.ftl.read_retries,
        "faulted reads must retry more: {} vs {}",
        b.ftl.read_retries,
        a.ftl.read_retries
    );
}

#[test]
fn safety_check_absorbs_ber_spikes_for_ps_aware_kinds() {
    // A BerSpike-only plan: the PS-aware kinds must detect the spikes on
    // monitored h-layers via §4.1.4 and re-program; the PS-unaware
    // baseline has no safety check and silently (safely) carries the
    // elevated BER — it must report zero recovery actions.
    let mut cfg = EvalConfig::smoke();
    cfg.faults = Some(FaultPlan::seeded(3).with_rate(FaultKind::BerSpike, 0.05));
    let cube = eval(
        FtlKind::Cube,
        StandardWorkload::Oltp,
        AgingState::MidLife,
        &cfg,
    );
    let page = eval(
        FtlKind::Page,
        StandardWorkload::Oltp,
        AgingState::MidLife,
        &cfg,
    );
    assert!(
        cube.ftl.safety_reprograms > 0,
        "cubeFTL must catch injected BER spikes"
    );
    assert_eq!(page.ftl.safety_reprograms, 0, "pageFTL has no safety check");
    assert_eq!(page.ftl.recovery_actions(), 0);
}

#[test]
fn plan_seed_uncorrelates_chips() {
    // Two plans with the same rates and different seeds must not inject
    // the same fault pattern (per-chip streams are derived from the plan
    // seed, not from the chip's process seed).
    let a = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::MidLife,
        &faulty_cfg(1),
    );
    let b = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::MidLife,
        &faulty_cfg(2),
    );
    assert_ne!(
        format!("{:?}", a.ftl),
        format!("{:?}", b.ftl),
        "fault streams must depend on the plan seed"
    );
}
