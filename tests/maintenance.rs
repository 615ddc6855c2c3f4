//! End-to-end background-maintenance guarantees: the retention scrubber
//! must actually improve reliability under a retention-heavy fault plan,
//! and disabling maintenance must leave the simulator bit-identical to
//! the seed behaviour.

mod common;

use common::eval;
use cubeftl::harness::EvalConfig;
use cubeftl::{
    AgingState, FaultKind, FaultPlan, Ftl, FtlConfig, FtlKind, MaintConfig, SimReport, SsdSim,
    StandardWorkload,
};

/// A retention-heavy scenario: a read-mostly workload over EndOfLife
/// data (2K P/E + 1-year baked retention) with seeded uncorrectable and
/// stuck-retry injection — the regime the scrubber exists for.
fn retention_heavy_cfg() -> EvalConfig {
    let mut cfg = EvalConfig::reduced();
    cfg.requests = 30_000;
    cfg.faults = Some(
        FaultPlan::seeded(cfg.seed)
            .with_rate(FaultKind::UncorrectableRead, 0.03)
            .with_rate(FaultKind::StuckRetry, 0.01),
    );
    cfg
}

fn run(cfg: &EvalConfig) -> SimReport {
    eval(
        FtlKind::Cube,
        StandardWorkload::Web,
        AgingState::EndOfLife,
        cfg,
    )
}

fn mean_retries(r: &SimReport) -> f64 {
    r.ftl.read_retries as f64 / r.ftl.nand_reads.max(1) as f64
}

#[test]
fn scrubber_reduces_uncorrectables_and_retries_under_retention_faults() {
    let mut cfg = retention_heavy_cfg();
    let off = run(&cfg);

    // Give maintenance generous bandwidth (small host-priority gap,
    // large migration batch): this test asserts the reliability
    // direction; the throughput price is the bench's concern.
    let mut maint = MaintConfig::default_on();
    maint.scrub_batch_pages = 96;
    maint.gap_us = 50.0;
    cfg.maint = Some(maint);
    let on = run(&cfg);

    assert_eq!(off.completed, on.completed, "both runs must finish");
    assert!(
        on.ftl.scrub_blocks > 0,
        "the scrubber must have refreshed blocks ({} scrubs)",
        on.ftl.scrub_blocks
    );
    assert!(
        on.ftl.uncorrectable_recoveries < off.ftl.uncorrectable_recoveries,
        "scrubbing must reduce uncorrectable recoveries (off {}, on {})",
        off.ftl.uncorrectable_recoveries,
        on.ftl.uncorrectable_recoveries,
    );
    assert!(
        mean_retries(&on) < mean_retries(&off),
        "scrubbing must reduce the mean read-retry count (off {:.3}, on {:.3})",
        mean_retries(&off),
        mean_retries(&on),
    );
}

#[test]
fn disabled_maintenance_is_bit_identical_to_seed_behavior() {
    // `maint: None` must be indistinguishable from a stack built by hand
    // that never touches the maintenance API at all.
    let cfg = retention_heavy_cfg();
    assert!(cfg.maint.is_none());
    let baseline = run(&cfg);

    let mut sim = SsdSim::new(cfg.ssd);
    let seed = cfg.seed;
    let mut ftl = Ftl::new(FtlKind::Cube, FtlConfig { seed, ..cfg.ftl });
    ftl.set_aging(AgingState::EndOfLife);
    ftl.set_ambient_celsius(cfg.ambient_celsius);
    let prefill = (ftl.logical_pages() as f64 * cfg.prefill_fraction) as u64;
    sim.prefill(&mut ftl, 0..prefill);
    ftl.set_disturbance_prob(cfg.disturbance_prob);
    ftl.set_fault_plan(cfg.faults.as_ref().expect("the config injects faults"));
    ftl.reset_stats();
    let stream = StandardWorkload::Web.build(prefill.max(1024), cfg.seed);
    let seed_stack = sim.run(&mut ftl, stream, cfg.requests);

    assert_eq!(format!("{baseline:?}"), format!("{seed_stack:?}"));
    assert_eq!(baseline.ftl.maint_actions(), 0);
    assert_eq!(baseline.background_ops(), 0);
}
