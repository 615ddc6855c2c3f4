//! Trace-file replay through the harness: the MSR-Cambridge-style
//! sample trace in `tests/data/` parses, folds into the simulated
//! address space, and replays deterministically on single devices and
//! sharded arrays alike.

mod common;

use common::{eval, run};
use cubeftl::harness::{EvalConfig, Phase, QosSpec, Scenario, ScenarioError, SpoConfig};
use cubeftl::{AgingState, FtlKind, Trace};

fn sample() -> Trace {
    common::msr_trace("sample_trace.csv")
}

#[test]
fn sample_trace_parses_with_mixed_ops_and_spans() {
    let trace = sample();
    assert_eq!(trace.len(), 40, "one request per data row, header skipped");
    let reads = trace
        .requests()
        .iter()
        .filter(|r| matches!(r.op, ssdsim::HostOp::Read))
        .count();
    assert!(reads > 10 && reads < 30, "mixed read/write trace");
    // Sizes above one page become multi-page spans.
    assert!(trace.requests().iter().any(|r| r.n_pages > 1));
    assert!(trace.requests().iter().all(|r| r.n_pages >= 1));
}

#[test]
fn trace_replay_completes_every_request_deterministically() {
    let cfg = EvalConfig::smoke();
    let run = || eval(FtlKind::Cube, &sample(), AgingState::Fresh, &cfg);
    let a = run();
    assert_eq!(a.completed, 40);
    assert!(a.reads > 0 && a.writes > 0);
    assert_eq!(format!("{a:?}"), format!("{:?}", run()));
}

#[test]
fn trace_lpns_fold_into_the_device_address_space() {
    let cfg = EvalConfig::smoke();
    // The raw trace addresses terabyte offsets; the smoke device is a
    // few thousand pages. Replay must fold, not reject or overflow.
    let r = eval(FtlKind::Page, &sample(), AgingState::Fresh, &cfg);
    assert_eq!(r.completed, 40);
}

#[test]
fn trace_replay_survives_a_power_cut_with_zero_loss() {
    // The crash barrier does not care where requests come from: a
    // replayed trace is cut, recovered and resumed over its unissued
    // remainder like any generator stream — byte-identically on a rerun.
    let trace = common::msr_trace("traces/ycsb_a.csv");
    let sc = Scenario {
        spo: Some(SpoConfig::at_ops(400)),
        ..Scenario::new(
            FtlKind::Cube,
            &trace,
            AgingState::Fresh,
            &EvalConfig::smoke(),
        )
    };
    let r = run(&sc);
    let crash = r.crash.as_ref().expect("a cut was armed");
    assert_eq!(crash.shards_cut(), 1, "the cut lands inside the trace");
    assert!(crash.lost_lpns.is_empty(), "lost {:?}", crash.lost_lpns);
    let resumed = r.phase(Phase::Resumed).expect("the remainder resumes");
    assert!(resumed.merged.completed > 0);
    let done = r.sim().completed + resumed.merged.completed;
    assert!(done <= trace.len() as u64);
    let again = run(&sc);
    assert_eq!(
        format!("{:?} {:?}", r.phases, r.crash),
        format!("{:?} {:?}", again.phases, again.crash),
    );
}

#[test]
fn a_write_larger_than_the_write_buffer_is_rejected_not_replayed() {
    // Row 2 of the file is a 4-MiB write: 256 pages against the paper
    // SSD's 48-page buffer. Real MSR volumes contain such rows.
    let trace = common::msr_trace("oversized_write.csv");
    let cfg = EvalConfig::smoke();
    let plain = Scenario::new(FtlKind::Cube, &trace, AgingState::Fresh, &cfg);
    let err = plain.run().expect_err("the write can never be buffered");
    let want = |source| ScenarioError::OversizedWrite {
        source,
        pages: 256,
        buffer: 48,
        index: 2,
    };
    assert_eq!(err, want("--trace-file"));
    assert_eq!(
        err.to_string(),
        "--trace-file: write of 256 pages exceeds the 48-page write buffer (request 2)"
    );
    // The same file as the QoS front's tenant-0 replay.
    let qos = Scenario {
        qos: QosSpec {
            tenants: 4,
            trace: Some(trace),
            ..QosSpec::off()
        },
        ..Scenario::new(
            FtlKind::Cube,
            cubeftl::StandardWorkload::Mail,
            AgingState::Fresh,
            &cfg,
        )
    };
    assert_eq!(qos.run().expect_err("rejected"), want("--qos-trace"));
}
