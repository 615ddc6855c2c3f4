//! Sharded-array determinism and correctness, end to end through the
//! harness: same master seed ⇒ byte-identical merged report at any
//! worker-thread count, on repeated runs, and across trace routing.
//!
//! `CUBEFTL_SHARDS` (CI sets 4) overrides the default shard count so
//! the same suite exercises whichever array width the job asks for;
//! `CUBEFTL_THREADS` adds a worker-thread count to the invariance test.

mod common;

use common::run;
use cubeftl::harness::{
    ArrayEvalConfig, EvalConfig, Phase, RunOutput, Scenario, SpoConfig, WorkloadSource,
};
use cubeftl::{AgingState, FtlKind, SpoTrigger, StandardWorkload};

/// Shard count under test: `CUBEFTL_SHARDS` if set (CI runs the suite
/// once with 4), else 2 to keep the default run fast.
fn shards_under_test() -> usize {
    std::env::var("CUBEFTL_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

fn cfg() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.requests = 1_200;
    cfg
}

/// One Cube array cell.
fn array_run(
    workload: impl Into<WorkloadSource>,
    aging: AgingState,
    cfg: &EvalConfig,
    arr: &ArrayEvalConfig,
) -> RunOutput {
    run(&Scenario {
        array: Some(*arr),
        ..Scenario::new(FtlKind::Cube, workload, aging, cfg)
    })
}

#[test]
fn array_double_run_is_byte_identical() {
    let cfg = cfg();
    for shards in [1, shards_under_test().max(2)] {
        let arr = ArrayEvalConfig::new(shards);
        let run = || array_run(StandardWorkload::Oltp, AgingState::MidLife, &cfg, &arr);
        assert_eq!(
            format!("{:?}", run().merged()),
            format!("{:?}", run().merged()),
            "{shards}-shard array diverged between identical runs"
        );
    }
}

#[test]
fn array_report_is_identical_at_any_thread_count() {
    let cfg = cfg();
    let shards = shards_under_test().max(2);
    let at = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(shards);
        arr.threads = threads;
        let r = array_run(StandardWorkload::Mail, AgingState::Fresh, &cfg, &arr);
        format!("{:?}", r.merged())
    };
    let one = at(1);
    assert_eq!(one, at(2), "1 vs 2 worker threads");
    assert_eq!(one, at(common::threads()), "1 vs env worker threads");
    assert_eq!(one, at(shards), "1 vs {shards} worker threads");
}

#[test]
fn array_completes_the_exact_budget_and_sums_shard_counters() {
    let cfg = cfg();
    let arr = ArrayEvalConfig::new(shards_under_test());
    let out = array_run(StandardWorkload::Oltp, AgingState::Fresh, &cfg, &arr);
    let (merged, shards) = (out.merged(), &out.phases[0].shards);
    assert_eq!(merged.completed, cfg.requests);
    assert_eq!(merged.shards, arr.shards);
    assert_eq!(
        merged.completed,
        shards.iter().map(|s| s.completed).sum::<u64>()
    );
    assert_eq!(
        merged.per_shard_completed,
        shards.iter().map(|s| s.completed).collect::<Vec<_>>()
    );
    let iops_sum: f64 = shards.iter().map(|s| s.iops).sum();
    assert!((merged.iops - iops_sum).abs() < 1e-9);
    // The makespan is the slowest shard, not a sum.
    for s in shards {
        assert!(s.sim_time_us <= merged.sim_time_us);
    }
}

#[test]
fn an_ftl_setting_made_once_reaches_every_shard() {
    // `cfg.ftl` is the one FTL every shard is built from: a 4-entry ORT
    // set there evicts on one device and on each shard of an array.
    let mut cfg = cfg();
    cfg.ftl.ort_capacity = 4;
    let (web, eol) = (StandardWorkload::Web, AgingState::EndOfLife);
    let device = common::eval(FtlKind::Cube, web, eol, &cfg);
    assert!(device.ftl.ort_evictions > 0, "one device never evicted");
    let out = array_run(web, eol, &cfg, &ArrayEvalConfig::new(2));
    for (s, shard) in out.phases[0].shards.iter().enumerate() {
        assert!(shard.ftl.ort_evictions > 0, "shard {s} never evicted");
    }
}

#[test]
fn array_trace_routing_is_deterministic() {
    let trace = common::msr_trace("sample_trace.csv");
    let cfg = cfg();
    let arr = ArrayEvalConfig::new(shards_under_test().max(2));
    let run = || array_run(&trace, AgingState::Fresh, &cfg, &arr);
    let a = run();
    let b = run();
    assert_eq!(format!("{:?}", a.merged()), format!("{:?}", b.merged()));
    // Striping may split spans at stripe boundaries but never drops or
    // invents host work: at least one fragment per trace request.
    assert!(a.merged().completed >= trace.len() as u64);
}

/// A Cube array scenario cut mid-run on every shard: at half the
/// fastest shard's uninterrupted makespan (each shard starts at virtual
/// time zero, so all of them are still busy then).
fn mid_run_cut(
    workload: StandardWorkload,
    aging: AgingState,
    cfg: &EvalConfig,
    arr: &ArrayEvalConfig,
    ckpt_interval_host_wls: u64,
) -> Scenario {
    let min_time = array_run(workload, aging, cfg, arr).phases[0]
        .shards
        .iter()
        .map(|s| s.sim_time_us)
        .fold(f64::INFINITY, f64::min);
    assert!(min_time.is_finite() && min_time > 0.0);
    Scenario {
        array: Some(*arr),
        spo: Some(SpoConfig {
            trigger: SpoTrigger::AtTimeUs(min_time * 0.5),
            ckpt_interval_host_wls,
        }),
        ..Scenario::new(FtlKind::Cube, workload, aging, cfg)
    }
}

#[test]
fn array_wide_spo_recovers_every_shard_with_zero_loss() {
    let mut cfg = cfg();
    cfg.requests = 2_000;
    let arr = ArrayEvalConfig::new(shards_under_test().max(2));
    let r = run(&mid_run_cut(
        StandardWorkload::Mail,
        AgingState::MidLife,
        &cfg,
        &arr,
        32,
    ));
    let crash = r.crash.as_ref().expect("a cut was armed");
    assert_eq!(
        crash.shards_cut(),
        arr.shards,
        "every shard cut at the instant"
    );
    assert!(
        crash.lost_lpns.is_empty(),
        "host-acknowledged data lost: {:?}",
        crash.lost_lpns
    );
    assert!(crash.recoveries.iter().all(Option::is_some));
    let resumed = &r
        .phase(Phase::Resumed)
        .expect("workload remainder resumed")
        .merged;
    // Requests in flight at the cut were issued but never acknowledged,
    // so they are neither completed nor replayed; the shortfall is
    // bounded by the per-device queue depth.
    let done = r.merged().completed + resumed.completed;
    assert!(resumed.completed > 0, "the remainder must actually resume");
    assert!(done <= cfg.requests);
    assert!(
        cfg.requests - done <= 32 * arr.shards as u64,
        "shortfall {} exceeds the array's possible in-flight window",
        cfg.requests - done
    );
}

#[test]
fn array_spo_experiment_is_deterministic() {
    let mut cfg = cfg();
    cfg.requests = 1_500;
    let arr = ArrayEvalConfig::new(2);
    let sc = mid_run_cut(StandardWorkload::Oltp, AgingState::Fresh, &cfg, &arr, 64);
    let run = || {
        let r = run(&sc);
        let lost = &r.crash.as_ref().expect("a cut was armed").lost_lpns;
        format!("{:?} {:?} {lost:?}", r.merged(), r.phase(Phase::Resumed))
    };
    assert_eq!(run(), run());
}
