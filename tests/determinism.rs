//! Determinism guarantees: the simulator is a pure function of its
//! configuration. Same seed + same plan ⇒ byte-identical reports, with
//! and without fault injection.
//!
//! The golden-value test pins one full configuration to exact counter
//! values. If an intentional model change shifts them, update the
//! constants — the point is that *unintentional* drift (a stray RNG
//! draw, an iteration-order dependence, a platform difference) fails
//! loudly.

mod common;

use common::{check_golden, eval, run};
use cubeftl::harness::{EvalConfig, Phase, QosSpec, Scenario, SpoConfig, TelemetrySpec};
use cubeftl::{
    events_to_ndjson, AgingState, FaultKind, FaultPlan, FtlKind, KvConfig, SimReport,
    StandardWorkload,
};

/// A smoke-scale config with every fault class enabled at a rate high
/// enough to fire many times in 2k requests.
fn faulty_cfg() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.faults = Some(
        FaultPlan::seeded(0xDEC0DE)
            .with_rate(FaultKind::IsppLoopOutlier, 0.01)
            .with_rate(FaultKind::BerSpike, 0.01)
            .with_rate(FaultKind::ProgramAbort, 0.005)
            .with_rate(FaultKind::StuckRetry, 0.02)
            .with_rate(FaultKind::UncorrectableRead, 0.01),
    );
    cfg
}

#[test]
fn double_run_is_byte_identical_without_faults() {
    let cfg = EvalConfig::smoke();
    for kind in [FtlKind::Page, FtlKind::Cube] {
        let a = eval(kind, StandardWorkload::Oltp, AgingState::MidLife, &cfg);
        let b = eval(kind, StandardWorkload::Oltp, AgingState::MidLife, &cfg);
        // Debug formatting covers every field, including every latency
        // sample, bit-exactly.
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{} diverged between identical runs",
            kind.name()
        );
    }
}

#[test]
fn double_run_is_byte_identical_with_faults() {
    let cfg = faulty_cfg();
    let a = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::MidLife,
        &cfg,
    );
    let b = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::MidLife,
        &cfg,
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(
        a.ftl.recovery_actions() > 0,
        "the faulty config must actually exercise recovery paths"
    );
}

#[test]
fn fault_seed_changes_the_fault_stream_but_not_correctness() {
    let cfg_a = faulty_cfg();
    let mut cfg_b = faulty_cfg();
    if let Some(plan) = &mut cfg_b.faults {
        plan.seed = 0x5EED;
    }
    let a = eval(
        FtlKind::Cube,
        StandardWorkload::Web,
        AgingState::MidLife,
        &cfg_a,
    );
    let b = eval(
        FtlKind::Cube,
        StandardWorkload::Web,
        AgingState::MidLife,
        &cfg_b,
    );
    assert_ne!(
        format!("{:?}", a.ftl),
        format!("{:?}", b.ftl),
        "different fault seeds should draw different fault streams"
    );
    // Both runs stay correct regardless of the stream.
    assert_eq!(a.completed, cfg_a.requests);
    assert_eq!(b.completed, cfg_b.requests);
}

#[test]
fn golden_smoke_report_is_stable() {
    let cfg = EvalConfig::smoke();
    assert_golden_smoke(&eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::Fresh,
        &cfg,
    ));
}

/// Integer-exact golden values for the default smoke configuration
/// (seed 42). These pin the whole pipeline: workload generation,
/// buffering, WL allocation, GC and NAND timing.
fn assert_golden_smoke(r: &SimReport) {
    assert_eq!(r.completed, 2_000);
    assert_eq!(
        (r.reads, r.writes, r.trims),
        (GOLDEN_READS, GOLDEN_WRITES, GOLDEN_TRIMS)
    );
    assert_eq!(r.ftl.host_wl_programs, GOLDEN_HOST_WLS);
    assert_eq!(r.ftl.gc_page_moves, GOLDEN_GC_MOVES);
    assert_eq!(r.ftl.read_retries, GOLDEN_RETRIES);
    assert_eq!(r.ftl.safety_reprograms, GOLDEN_SAFETY);
}

const GOLDEN_READS: u64 = 999;
const GOLDEN_WRITES: u64 = 939;
const GOLDEN_TRIMS: u64 = 62;
const GOLDEN_HOST_WLS: u64 = 312;
const GOLDEN_GC_MOVES: u64 = 0;
const GOLDEN_RETRIES: u64 = 0;
const GOLDEN_SAFETY: u64 = 0;

#[test]
fn golden_faulty_report_is_stable() {
    let cfg = faulty_cfg();
    let r = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::Fresh,
        &cfg,
    );
    assert_eq!(
        (
            r.ftl.program_aborts,
            r.ftl.safety_reprograms,
            r.ftl.stuck_retry_recoveries,
            r.ftl.uncorrectable_recoveries,
        ),
        GOLDEN_FAULTY
    );
}

const GOLDEN_FAULTY: (u64, u64, u64, u64) = (2, 2, 10, 8);

#[test]
fn double_run_is_byte_identical_with_maintenance() {
    // EndOfLife over the faulty config so all three maintenance services
    // have work (12-month retention crosses every default budget), at a
    // request count long enough for background ops to actually dispatch.
    let mut cfg = faulty_cfg();
    cfg.requests = 6_000;
    cfg.maint = Some(cubeftl::MaintConfig::default_on());
    let a = eval(
        FtlKind::Cube,
        StandardWorkload::Web,
        AgingState::EndOfLife,
        &cfg,
    );
    let b = eval(
        FtlKind::Cube,
        StandardWorkload::Web,
        AgingState::EndOfLife,
        &cfg,
    );
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "maintenance-enabled runs diverged"
    );
    assert!(
        a.ftl.maint_actions() > 0,
        "the config must actually exercise background maintenance"
    );
    assert!(
        a.chip_stats.iter().any(|c| c.maint_ops > 0),
        "background ops must be dispatched through the scheduler"
    );
}

#[test]
fn spo_at_fixed_op_double_run_is_byte_identical() {
    // Same seed + same SPO point ⇒ the cut snapshot, the recovery
    // report, the recovered mapping and the resumed run must all be
    // byte-identical — crash recovery may not introduce a single
    // nondeterministic draw or iteration-order dependence.
    let sc = Scenario {
        spo: Some(SpoConfig::at_ops(1_100)),
        ..Scenario::new(
            FtlKind::Cube,
            StandardWorkload::Oltp,
            AgingState::MidLife,
            &EvalConfig::smoke(),
        )
    };
    let crash = |sc: &Scenario| {
        let r = run(sc);
        (r.crash.clone().expect("a cut was armed"), r)
    };
    let ((a, ra), (b, rb)) = (crash(&sc), crash(&sc));
    assert_eq!(a.shards_cut(), 1, "the armed trigger must fire");
    assert_eq!(a.events, b.events, "cut snapshots diverged");
    assert_eq!(
        format!("{:?}", a.recoveries),
        format!("{:?}", b.recoveries),
        "recovery reports diverged"
    );
    assert_eq!(
        format!("{:?}", ra.phase(Phase::Resumed)),
        format!("{:?}", rb.phase(Phase::Resumed)),
        "post-recovery resumed runs diverged"
    );
    assert_eq!(a.lost_lpns, b.lost_lpns);
    assert!(a.lost_lpns.is_empty(), "no host-acknowledged loss");
}

#[test]
fn scenario_with_every_spec_off_reproduces_the_goldens() {
    // Every feature is a field of the one scenario type; with each of
    // them spelled out at its off value the run must still land on the
    // constants above and on the committed telemetry snapshots — an
    // off spec may not leave a trace in the pipeline.
    let off = |requests: u64, telemetry: TelemetrySpec| {
        let mut cfg = EvalConfig::smoke();
        cfg.requests = requests;
        Scenario {
            array: None,
            qos: QosSpec::off(),
            kv: KvConfig::default_shape(),
            lifetime: None,
            spo: None,
            failure: None,
            telemetry,
            capture: false,
            ..Scenario::new(
                FtlKind::Cube,
                StandardWorkload::Mail,
                AgingState::Fresh,
                &cfg,
            )
        }
    };
    assert_golden_smoke(run(&off(2_000, TelemetrySpec::off())).sim());
    let sc = off(300, TelemetrySpec::all(2_000.0));
    let traced = run(&sc);
    let telemetry = &traced.telemetry;
    check_golden("golden_trace.ndjson", &events_to_ndjson(&telemetry.events));
    check_golden("golden_series.csv", &telemetry.series.to_csv());
    check_golden("golden_metrics.ndjson", &traced.metrics(&sc).to_ndjson());
}
