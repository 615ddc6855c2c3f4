//! Lifetime fast-forward aging campaigns, end to end through the
//! harness: byte-identical double runs, worker-thread invariance on
//! sharded arrays, a one-epoch campaign as the identity, and property
//! tests on the aging semantics.
//!
//! The thread-invariance test honours `CUBEFTL_THREADS` (CI runs the
//! suite at 2 and 8) as the second worker-thread count.

mod common;

use common::run;
use cubeftl::harness::{ArrayEvalConfig, EvalConfig, Scenario, TelemetrySpec, WorkloadSource};
use cubeftl::{AgingState, EventMask, FtlKind, LifetimeConfig, StandardWorkload, Trace};
use nand3d::Environment;
use proptest::prelude::*;

fn cfg() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.requests = 1_200;
    cfg
}

/// A short three-epoch campaign sized for test runtimes.
fn campaign() -> LifetimeConfig {
    let mut life = LifetimeConfig::campaign();
    life.epochs = 3;
    life
}

/// A fresh Cube device (or array) under `life`, the aging category
/// armed: the barrier events are the run's whole event list.
fn scenario(
    workload: impl Into<WorkloadSource>,
    aging: AgingState,
    arr: Option<ArrayEvalConfig>,
    life: Option<LifetimeConfig>,
) -> Scenario {
    Scenario {
        array: arr,
        lifetime: life,
        telemetry: TelemetrySpec {
            events: EventMask::AGING,
            sample_interval_us: None,
        },
        ..Scenario::new(FtlKind::Cube, workload, aging, &cfg())
    }
}

fn usr_trace() -> Trace {
    common::msr_trace("traces/msr_usr_wr.csv")
}

#[test]
fn campaign_double_run_is_byte_identical() {
    let sc = scenario(
        StandardWorkload::Mail,
        AgingState::Fresh,
        None,
        Some(campaign()),
    );
    let (a, b) = (run(&sc), run(&sc));
    assert_eq!(
        format!("{:?}", a.phases),
        format!("{:?}", b.phases),
        "per-epoch reports diverged between identical campaigns"
    );
    assert_eq!(format!("{:?}", a.aging), format!("{:?}", b.aging));
    assert_eq!(a.telemetry.events, b.telemetry.events);
}

#[test]
fn array_campaign_is_identical_at_any_thread_count() {
    // Per-shard generator substreams and a striped trace replay alike:
    // aging runs at the epoch barriers, so the thread count cannot
    // matter.
    let sources: [WorkloadSource; 2] = [StandardWorkload::Oltp.into(), (&usr_trace()).into()];
    for source in sources {
        let at = |threads: usize| {
            let mut arr = ArrayEvalConfig::new(4);
            arr.threads = threads;
            let r = run(&scenario(
                source.clone(),
                AgingState::Fresh,
                Some(arr),
                Some(campaign()),
            ));
            assert_eq!(r.epochs().count(), 3, "every epoch ran");
            format!("{:?} {:?} {:?}", r.phases, r.aging, r.telemetry.events)
        };
        let one = at(1);
        assert_eq!(one, at(common::threads()), "1 vs env worker threads");
        assert_eq!(one, at(2), "1 vs 2 worker threads");
    }
}

/// A one-epoch campaign ([`LifetimeConfig::off`]) applies no aging
/// step, so it must report exactly what the scenario without a
/// campaign reports.
fn assert_off_campaign_is_the_identity(plain: Scenario) {
    let r = run(&Scenario {
        lifetime: Some(LifetimeConfig::off()),
        ..plain.clone()
    });
    let aging = r.aging.as_ref().expect("campaign part present");
    assert_eq!(r.epochs().count(), 1, "off config runs a single epoch");
    assert!(aging.summaries.is_empty(), "no aging steps applied");
    assert!(r.telemetry.events.is_empty(), "no barrier events emitted");
    assert_eq!(
        format!("{:?}", r.phases),
        format!("{:?}", run(&plain).phases),
        "a disengaged campaign must reproduce the plain run exactly"
    );
}

#[test]
fn off_campaign_reproduces_run_eval_byte_for_byte() {
    assert_off_campaign_is_the_identity(scenario(
        StandardWorkload::Web,
        AgingState::MidLife,
        None,
        None,
    ));
}

#[test]
fn off_campaign_reproduces_run_trace_eval_byte_for_byte() {
    assert_off_campaign_is_the_identity(scenario(&usr_trace(), AgingState::Fresh, None, None));
}

#[test]
fn off_campaign_reproduces_run_array_eval_byte_for_byte() {
    assert_off_campaign_is_the_identity(scenario(
        StandardWorkload::Oltp,
        AgingState::Fresh,
        Some(ArrayEvalConfig::new(4)),
        None,
    ));
}

#[test]
fn campaign_ages_the_device_and_emits_barrier_events() {
    let life = campaign();
    let r = run(&scenario(
        StandardWorkload::Mail,
        AgingState::Fresh,
        None,
        Some(life),
    ));
    let aging = r.aging.as_ref().expect("campaign ran");
    assert_eq!(r.epochs().count(), life.epochs as usize);
    assert_eq!(aging.summaries.len(), life.steps() as usize);
    assert_eq!(r.telemetry.events.len(), life.steps() as usize);
    for s in aging.summaries.iter().flatten() {
        assert!(s.blocks_aged > 0, "every step must touch blocks");
        assert!(s.pe_added > 0);
        assert!(s.retention_added_months > 0.0);
    }
    // Barrier timestamps sit on the concatenated campaign timeline.
    let mut last = 0.0;
    for e in &r.telemetry.events {
        assert!(e.t_us >= last, "barrier events must not run backwards");
        last = e.t_us;
    }
    // An aged device retries at least as much as the fresh epoch.
    assert!(r.retry_rate(r.epochs().count() - 1) >= r.retry_rate(0));
}

#[test]
fn write_heavy_trace_replays_inside_every_campaign_epoch() {
    let trace = usr_trace();
    let writes = trace
        .requests()
        .iter()
        .filter(|r| matches!(r.op, ssdsim::HostOp::Write))
        .count();
    assert!(
        writes * 5 >= trace.len() * 4,
        "usr trace must stay write-heavy ({writes}/{})",
        trace.len()
    );
    let life = campaign();
    let sc = scenario(&trace, AgingState::Fresh, None, Some(life));
    let r = run(&sc);
    assert_eq!(r.epochs().count(), life.epochs as usize);
    for rep in r.epochs() {
        assert_eq!(
            rep.merged.completed,
            trace.len() as u64,
            "every epoch replays the whole trace"
        );
    }
    assert_eq!(
        format!("{:?}", r.phases),
        format!("{:?}", run(&sc).phases),
        "trace campaign must be deterministic"
    );
}

proptest! {
    /// Fast-forward aging is monotone: a block's effective P/E count
    /// and retention age never decrease across an arbitrary sequence of
    /// epoch advances.
    #[test]
    fn aging_is_monotone(
        blocks in 1usize..16,
        steps in prop::collection::vec((0u32..2_000, 0.0f64..24.0), 1..12),
    ) {
        let mut env = Environment::new(blocks, 7);
        env.enable_lifetime_aging();
        let block = blocks - 1;
        let (mut last_pe, mut last_ret) = (env.pe(block), env.retention_months_of(block));
        for (pe_add, months_add) in steps {
            env.advance_block_age(block, pe_add, months_add);
            let (pe, ret) = (env.pe(block), env.retention_months_of(block));
            prop_assert!(pe >= last_pe, "P/E went backwards: {last_pe} -> {pe}");
            prop_assert!(ret >= last_ret, "retention went backwards: {last_ret} -> {ret}");
            last_pe = pe;
            last_ret = ret;
        }
    }

    /// Scrubbing (an erase, or an explicit refresh mark) resets a
    /// block's fast-forwarded retention age to zero but never its
    /// accumulated P/E wear — reliability is bought back, wear is not.
    #[test]
    fn scrub_resets_retention_not_pe(
        blocks in 1usize..16,
        pe_add in 1u32..5_000,
        months_add in 0.1f64..36.0,
        via_erase in prop::bool::ANY,
    ) {
        let mut env = Environment::new(blocks, 11);
        env.enable_lifetime_aging();
        let block = 0;
        env.advance_block_age(block, pe_add, months_add);
        prop_assert!(env.retention_months_of(block) > 0.0);
        let wear_before = env.pe(block) - env.erase_count(block);
        let erases_before = env.erase_count(block);
        if via_erase {
            env.record_erase(block);
            prop_assert_eq!(env.erase_count(block), erases_before + 1);
        } else {
            env.mark_refreshed(block);
            prop_assert_eq!(env.erase_count(block), erases_before);
        }
        prop_assert_eq!(
            env.retention_months_of(block), 0.0,
            "refresh must zero the fast-forwarded retention age"
        );
        prop_assert_eq!(
            env.pe(block) - env.erase_count(block), wear_before,
            "refresh must not undo fast-forwarded P/E wear"
        );
    }
}
