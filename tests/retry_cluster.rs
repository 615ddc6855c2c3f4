//! §4.2.2-closure acceptance suite: the v2 read pipeline (cross-block
//! ΔV_Ref cluster seeding + retry-chain optimization) end to end.
//!
//! Locks in the three contracts of the pipeline:
//!
//! * **conservative off-switch** — `--ort-cluster off --retry-opt off`
//!   (the defaults) reproduce the pre-cluster pipeline bit for bit,
//!   pinned by the same golden constants as `determinism.rs`;
//! * **the NumRetry bar** — under an SRAM-bounded ORT the v2 pipeline
//!   removes ≥66% of NumRetry at the aged EndOfLife state, and never
//!   regresses fresh or mid-life states;
//! * **determinism** — the retry-chain NDJSON trace is byte-identical
//!   across double runs, across array worker-thread counts, and under
//!   both bounded and unbounded `--ort-capacity`, with a golden
//!   snapshot (`tests/data/golden_retry.ndjson`, regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test retry_cluster`).

mod common;

use common::{check_golden, eval, run};
use cubeftl::harness::{
    ArrayEvalConfig, EvalConfig, Phase, RunOutput, Scenario, SpoConfig, TelemetrySpec,
};
use cubeftl::{
    events_to_ndjson, AgingState, EventMask, FtlKind, OrtClusterConfig, RetryOptConfig,
    StandardWorkload,
};

/// The smoke config with the ORT bounded to model scarce controller
/// SRAM — LRU eviction keeps producing the cold lookups the cluster
/// targets — and enough read traffic to warm the cluster.
fn bounded_cfg(requests: u64) -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.requests = requests;
    cfg.ftl.ort_capacity = 4;
    cfg
}

/// `bounded_cfg` with the full v2 pipeline on.
fn v2_cfg(requests: u64) -> EvalConfig {
    let mut cfg = bounded_cfg(requests);
    cfg.ftl.ort_cluster = OrtClusterConfig::on();
    cfg.ftl.retry_opt = RetryOptConfig::on();
    cfg
}

fn retry_tel() -> TelemetrySpec {
    TelemetrySpec {
        events: EventMask::READ_RETRY,
        sample_interval_us: None,
    }
}

/// NumRetry of one Rocks run at `aging` under `cfg`.
fn num_retry(cfg: &EvalConfig, aging: AgingState) -> u64 {
    eval(FtlKind::Cube, StandardWorkload::Rocks, aging, cfg)
        .ftl
        .read_retries
}

/// One Cube Rocks run at `aging` with the retry chain traced.
fn retry_traced(cfg: &EvalConfig, aging: AgingState, arr: Option<ArrayEvalConfig>) -> RunOutput {
    run(&Scenario {
        array: arr,
        telemetry: retry_tel(),
        ..Scenario::new(FtlKind::Cube, StandardWorkload::Rocks, aging, cfg)
    })
}

#[test]
fn cluster_off_reproduces_the_pre_pr_golden() {
    // The defaults (cluster off, retry-opt off) must keep the golden
    // smoke report of determinism.rs intact — same constants, same
    // pipeline, bit for bit.
    let cfg = EvalConfig::smoke();
    assert!(
        !cfg.ftl.ort_cluster.enabled,
        "the cluster must default to off"
    );
    assert_eq!(cfg.ftl.retry_opt, RetryOptConfig::default());
    let r = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::Fresh,
        &cfg,
    );
    assert_eq!(r.completed, 2_000);
    assert_eq!((r.reads, r.writes, r.trims), (999, 939, 62));
    assert_eq!(r.ftl.host_wl_programs, 312);
    assert_eq!(r.ftl.gc_page_moves, 0);
    assert_eq!(r.ftl.read_retries, 0);
    assert_eq!(r.ftl.safety_reprograms, 0);

    // An explicit `--ort-cluster off --retry-opt off` is the same
    // configuration, not merely a similar one: the full report (every
    // counter, every latency sample) matches the default run exactly.
    let mut explicit_off = EvalConfig::smoke();
    explicit_off.ftl.ort_cluster = OrtClusterConfig::default();
    explicit_off.ftl.retry_opt = RetryOptConfig::default();
    let r2 = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::Fresh,
        &explicit_off,
    );
    assert_eq!(
        format!("{r:?}"),
        format!("{r2:?}"),
        "explicit off-switches diverged from the defaults"
    );
}

#[test]
fn cold_start_vs_cluster_seeded_numretry_across_states() {
    let baseline = bounded_cfg(15_000);
    let v2 = v2_cfg(15_000);

    // Fresh: nothing retries, so there is nothing to seed or optimize —
    // the v2 pipeline must not disturb a retry-free run.
    assert_eq!(num_retry(&baseline, AgingState::Fresh), 0);
    assert_eq!(num_retry(&v2, AgingState::Fresh), 0);

    // MidLife: retries exist and v2 must already help.
    let base_mid = num_retry(&baseline, AgingState::MidLife);
    let v2_mid = num_retry(&v2, AgingState::MidLife);
    assert!(base_mid > 0, "mid-life must produce retries");
    assert!(
        v2_mid < base_mid,
        "v2 must reduce mid-life NumRetry ({v2_mid} vs {base_mid})"
    );

    // EndOfLife: the tentpole bar — ≥66% of NumRetry removed.
    let base_eol = num_retry(&baseline, AgingState::EndOfLife);
    let v2_eol = num_retry(&v2, AgingState::EndOfLife);
    let reduction = 1.0 - v2_eol as f64 / base_eol.max(1) as f64;
    assert!(
        reduction >= 0.66,
        "v2 must cut NumRetry by >= 66% at EndOfLife, got {:.1}% ({base_eol} -> {v2_eol})",
        reduction * 100.0
    );
}

#[test]
fn cluster_seeding_marks_the_trace_and_feeds_the_counters() {
    // The seeded/early_term event tags and the aggregate counters must
    // tell the same story: seeded retry events appear iff the cluster
    // seeded lookups, and the trace's NumRetry equals the counter.
    let cfg = v2_cfg(15_000);
    let out = retry_traced(&cfg, AgingState::EndOfLife, None);
    let report = out.sim();
    let mut num = 0u64;
    let mut seeded = 0u64;
    for e in &out.telemetry.events {
        if let cubeftl::EventKind::ReadRetry {
            retries, seeded: s, ..
        } = e.kind
        {
            num += u64::from(retries);
            seeded += u64::from(s);
        }
    }
    assert_eq!(num, report.ftl.read_retries, "trace vs counter NumRetry");
    assert!(seeded > 0, "aged + bounded ORT must produce seeded retries");
    assert!(
        report.ftl.cluster_seeds >= seeded,
        "every seeded retry event starts from a seeded lookup ({seeded} events, {} seeds)",
        report.ftl.cluster_seeds
    );
    assert!(
        report.ftl.cluster_hits + report.ftl.cluster_mispredicts > 0,
        "seeded outcomes must be scored"
    );
}

#[test]
fn post_spo_boot_reseeds_from_the_rebuilt_cluster() {
    // After a power cut the ORT boots empty and the cluster is rebuilt
    // from live decodes — the resumed run must then seed its cold
    // lookups again, and the whole crash path stays deterministic with
    // the v2 pipeline on.
    let sc = Scenario {
        spo: Some(SpoConfig::at_ops(1_100)),
        ..Scenario::new(
            FtlKind::Cube,
            StandardWorkload::Rocks,
            AgingState::EndOfLife,
            &v2_cfg(2_000),
        )
    };
    let (a, b) = (run(&sc), run(&sc));
    let (crash_a, crash_b) = (a.crash.as_ref(), b.crash.as_ref());
    let crash = crash_a.expect("a cut was armed");
    assert_eq!(crash.shards_cut(), 1, "the armed trigger must fire");
    assert!(crash.lost_lpns.is_empty(), "no host-acknowledged loss");
    let resumed = a.phase(Phase::Resumed).expect("workload had a remainder");
    assert!(
        resumed.merged.ftl.cluster_seeds > 0,
        "the rebuilt cluster must seed cold post-SPO lookups"
    );
    assert_eq!(
        format!("{:?}", crash.recoveries),
        format!("{:?}", crash_b.expect("a cut was armed").recoveries),
        "recovery reports diverged with the v2 pipeline on"
    );
    assert_eq!(
        format!("{resumed:?}"),
        format!("{:?}", b.phase(Phase::Resumed).expect("rerun resumed too")),
        "post-recovery resumed runs diverged with the v2 pipeline on"
    );
}

#[test]
fn golden_retry_trace_is_stable_and_double_run_identical() {
    // A short aged v2 run keeps the committed snapshot small while still
    // covering seeded, unseeded and early-terminated chains.
    let cfg = v2_cfg(800);
    let trace = |cfg: &EvalConfig| {
        events_to_ndjson(
            &retry_traced(cfg, AgingState::MidLife, None)
                .telemetry
                .events,
        )
    };
    let a = trace(&cfg);
    assert_eq!(a, trace(&cfg), "double run diverged");
    check_golden("golden_retry.ndjson", &a);
}

/// Shard count under test: `CUBEFTL_SHARDS` if set (CI runs the suite
/// once with 4, matching `tests/array.rs`), else 2 to keep the default
/// run fast.
fn shards_under_test() -> usize {
    std::env::var("CUBEFTL_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(2)
}

#[test]
fn retry_trace_is_thread_count_invariant() {
    // N shards at 1 vs N worker threads with the v2 pipeline on: the
    // concatenated retry trace must be byte-identical — per-shard
    // clusters are isolated, so fan-out order cannot leak in.
    let shards = shards_under_test();
    let cfg = v2_cfg(4_000);
    let at = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(shards);
        arr.threads = threads;
        let r = retry_traced(&cfg, AgingState::EndOfLife, Some(arr));
        (
            events_to_ndjson(&r.telemetry.events),
            format!("{:?}", r.merged()),
        )
    };
    let one = at(1);
    assert_eq!(one, at(shards), "1 vs {shards} worker threads");
    assert_eq!(one, at(common::threads()), "1 vs env worker threads");
}

#[test]
fn retry_trace_is_deterministic_at_any_ort_capacity() {
    // Bounded and unbounded tables each reproduce their own trace
    // byte-for-byte — and the traces differ from each other, proving
    // the capacity knob actually changes eviction behaviour.
    let run = |capacity: usize| {
        let mut cfg = v2_cfg(6_000);
        cfg.ftl.ort_capacity = capacity;
        events_to_ndjson(
            &retry_traced(&cfg, AgingState::EndOfLife, None)
                .telemetry
                .events,
        )
    };
    let bounded = run(4);
    assert_eq!(bounded, run(4), "bounded double run diverged");
    let unbounded = run(usize::MAX);
    assert_eq!(unbounded, run(usize::MAX), "unbounded double run diverged");
    assert_ne!(
        bounded, unbounded,
        "capacity 4 and unbounded must evict differently under load"
    );
}
