//! End-to-end guarantees of the multi-queue QoS front-end
//! (`crates/hostq`): a disengaged spec is inert whatever its knobs say,
//! engaged runs are byte-identical across repeats and worker-thread
//! counts, overload differentiates service by class, recorded traces
//! replay as tenant streams, and the DWRR core holds its scheduling
//! invariants under property testing.
//!
//! The thread-invariance test honours `CUBEFTL_THREADS` (the second
//! worker-thread count to compare against single-threaded; default 4)
//! so CI can pin different counts.

mod common;

use common::run;
use cubeftl::harness::{ArrayEvalConfig, EvalConfig, QosSpec, Scenario, TelemetrySpec};
use cubeftl::{
    events_to_ndjson, AgingState, DwrrScheduler, FtlKind, HostQueueConfig, StandardWorkload,
    TenantMix, Trace,
};
use proptest::prelude::*;
use std::collections::VecDeque;

fn smoke(requests: u64) -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.requests = requests;
    cfg
}

/// A Cube device under Mail traffic with `qos` in front of it.
fn scenario(aging: AgingState, requests: u64, qos: QosSpec, tel: TelemetrySpec) -> Scenario {
    Scenario {
        qos,
        telemetry: tel,
        ..Scenario::new(
            FtlKind::Cube,
            StandardWorkload::Mail,
            aging,
            &smoke(requests),
        )
    }
}

/// An engaged spec: 8 queues, 32 tenants, a 4-step weight cycle.
fn engaged_spec() -> QosSpec {
    QosSpec {
        tenants: 32,
        weights: vec![8, 4, 2, 1],
        front: queues(8),
        ..QosSpec::off()
    }
}

/// The default front over `n` queue pairs.
fn queues(n: u32) -> HostQueueConfig {
    HostQueueConfig {
        queues: n,
        ..HostQueueConfig::default()
    }
}

/// `--queues 1 --tenants 1` is the closed loop, not an approximation of
/// it: with one queue and one tenant every other knob is inert, so the
/// run — report, trace and series — is the plain run's.
fn assert_knobs_are_inert_when_disengaged(base: Scenario) {
    let knobs = QosSpec {
        tenants: 1,
        front: HostQueueConfig {
            sq_depth: 2,
            slo_read_us: Some(1.0),
            ..queues(1)
        },
        ..engaged_spec()
    };
    assert!(!knobs.engaged());
    let plain = run(&base);
    let qos = run(&Scenario {
        qos: knobs,
        ..base.clone()
    });
    assert_eq!(format!("{:?}", plain.phases), format!("{:?}", qos.phases));
    assert_eq!(
        events_to_ndjson(&plain.telemetry.events),
        events_to_ndjson(&qos.telemetry.events)
    );
    assert_eq!(
        plain.telemetry.series.to_csv(),
        qos.telemetry.series.to_csv()
    );
    assert!(qos.qos.is_none(), "disengaged run has no tenants");
}

#[test]
fn disengaged_spec_is_byte_identical_to_the_legacy_path() {
    assert_knobs_are_inert_when_disengaged(scenario(
        AgingState::Fresh,
        2_000,
        QosSpec::off(),
        TelemetrySpec::all(2_000.0),
    ));
}

#[test]
fn disengaged_array_spec_is_byte_identical_to_the_legacy_path() {
    assert_knobs_are_inert_when_disengaged(Scenario {
        array: Some(ArrayEvalConfig::new(4)),
        ..scenario(
            AgingState::Fresh,
            1_200,
            QosSpec::off(),
            TelemetrySpec::all(1_000.0),
        )
    });
}

#[test]
fn engaged_double_run_is_byte_identical() {
    let mut spec = engaged_spec();
    spec.front.slo_read_us = Some(5_000.0);
    let sc = scenario(AgingState::Fresh, 2_500, spec, TelemetrySpec::all(2_000.0));
    let (a, b) = (run(&sc), run(&sc));
    assert_eq!(format!("{:?}", a.sim()), format!("{:?}", b.sim()));
    assert_eq!(format!("{:?}", a.qos), format!("{:?}", b.qos));
    assert_eq!(
        events_to_ndjson(&a.telemetry.events),
        events_to_ndjson(&b.telemetry.events)
    );
    assert_eq!(a.telemetry.series.to_csv(), b.telemetry.series.to_csv());
    let served = a.qos.expect("engaged").total().completed;
    assert!(served > 0, "the run must serve requests");
}

#[test]
fn sharded_qos_run_is_worker_thread_invariant() {
    // 4 shards × 8 queues × 32 tenants at 1 worker thread vs N
    // (CUBEFTL_THREADS, default 4): device reports, per-tenant
    // outcomes, traces and series must all be byte-identical — shard
    // fan-in follows shard order, never completion order.
    let at = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(4);
        arr.threads = threads;
        run(&Scenario {
            array: Some(arr),
            ..scenario(
                AgingState::MidLife,
                2_400,
                engaged_spec(),
                TelemetrySpec::all(2_000.0),
            )
        })
    };
    let (a, b) = (at(1), at(common::threads()));
    assert_eq!(format!("{:?}", a.merged()), format!("{:?}", b.merged()));
    assert_eq!(format!("{:?}", a.qos), format!("{:?}", b.qos));
    assert_eq!(
        events_to_ndjson(&a.telemetry.events),
        events_to_ndjson(&b.telemetry.events)
    );
    assert_eq!(a.telemetry.series.to_csv(), b.telemetry.series.to_csv());
    // Every tenant appears exactly once after the shard merge.
    let ids: Vec<u32> = a
        .qos
        .expect("engaged")
        .tenants
        .iter()
        .map(|t| t.id)
        .collect();
    assert_eq!(ids, (0..32).collect::<Vec<u32>>());
}

#[test]
fn overload_differentiates_service_by_class() {
    // Uniform single-page streams under heavy overload: the submission
    // queues saturate, so completions track DWRR service shares and the
    // protected class sees a lower queueing tail than best-effort.
    let spec = QosSpec {
        tenants: 8,
        weights: vec![8, 4, 2, 1],
        front: queues(4),
        ..QosSpec::off()
    };
    let r = run(&Scenario {
        workload: TenantMix::Uniform.into(),
        ..scenario(AgingState::Fresh, 6_000, spec, TelemetrySpec::off())
    });
    let qos = r.qos.expect("engaged");
    let total = qos.total();
    assert!(total.shed > 0, "the run must actually overload");
    let by_class: std::collections::HashMap<_, _> = qos.by_class().into_iter().collect();
    let protected = &by_class[&cubeftl::TenantClass::Protected];
    let best_effort = &by_class[&cubeftl::TenantClass::BestEffort];
    // Per-tenant service: protected tenants carry 8× the weight of
    // best-effort ones (both classes have the same tenant count here).
    assert_eq!(protected.tenants, best_effort.tenants);
    assert!(
        protected.completed > 4 * best_effort.completed,
        "protected service ({}) must dominate best-effort ({})",
        protected.completed,
        best_effort.completed
    );
    assert!(
        protected.read_latency.percentile(99.0) < best_effort.read_latency.percentile(99.0),
        "the protected read tail must beat best-effort"
    );
}

#[test]
fn recorded_traces_replay_as_tenant_zero() {
    // Each committed MSR-style CSV parses and replays as tenant 0's
    // stream; the remaining tenants stay synthetic. Double runs are
    // byte-identical.
    let dir = format!("{}/tests/data/traces", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("trace corpus directory")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    assert!(paths.len() >= 2, "the trace corpus must have several files");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read trace CSV");
        let trace = Trace::from_msr_csv(&text, 16 * 1024, 1 << 40)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(trace.len() >= 16, "{}: trace too short", path.display());
        let spec = QosSpec {
            tenants: 4,
            weights: vec![4, 1],
            trace: Some(trace.clone()),
            ..QosSpec::off()
        };
        let sc = scenario(AgingState::Fresh, 600, spec, TelemetrySpec::off());
        let (ra, rb) = (run(&sc), run(&sc));
        assert_eq!(format!("{:?}", ra.qos), format!("{:?}", rb.qos));
        // Tenant 0 completed something and never more than the trace
        // (plus nothing synthetic leaked into it).
        let t0 = &ra.qos.as_ref().expect("engaged").tenants[0];
        assert!(t0.completed > 0, "{}: tenant 0 idle", path.display());
        assert!(
            t0.admitted + t0.shed <= trace.len() as u64,
            "{}: tenant 0 over-ran its trace",
            path.display()
        );
    }
}

/// The ledger's `qos_open` flag line without its size.
const QOS_OPEN_LINE: &str = "--ftl cube --workload mail --aging midlife --queues 4 \
                             --tenants 12 --tenant-weights 4,2,1 --qos-arrival-us 650 \
                             --qos-slo-read-us 270000 --qos-slo-write-us 70000 --seed 42";

/// Runs the ledger's `qos_open` flag line at 1/50 of its 450 000
/// requests, with its metrics in the test's directory `dir`; returns
/// stdout and the metrics. A failed run panics.
fn qos_open_line_at_one_fiftieth(dir: &str) -> (String, String) {
    common::cli_metrics(dir, &format!("{QOS_OPEN_LINE} --blocks 64 --requests 9000"))
}

/// In a debug build the harness runs `Ftl::audit` at every barrier, so
/// a broken FTL invariant on this run panics the binary.
#[test]
fn qos_open_line_at_one_fiftieth_passes_the_audit() {
    let (stdout, _) = qos_open_line_at_one_fiftieth("qos_open_audit");
    assert!(stdout.contains("9000 admitted, 0 shed"), "{stdout}");
}

/// The open loop finds idle chips at almost every flush; those flushes
/// take the chips in turn, so no chip works much longer than another.
#[test]
fn qos_open_line_at_one_fiftieth_keeps_every_chip_equally_busy() {
    let (_, text) = qos_open_line_at_one_fiftieth("qos_open_balance");
    let busy: Vec<f64> = text
        .lines()
        .filter(|l| l.contains("\"metric\":\"ssd.chip") && l.contains(".busy_us\""))
        .map(|l| {
            let v = &l[l.rfind("\"value\":").expect("a value") + 8..];
            v.trim_end_matches('}').parse().expect("a number")
        })
        .collect();
    assert_eq!(busy.len(), 8, "{text}");
    let max = busy.iter().copied().fold(f64::MIN, f64::max);
    let min = busy.iter().copied().fold(f64::MAX, f64::min);
    assert!(max <= 1.5 * min, "per-chip busy µs {busy:?}");
}

/// On 32 blocks per chip the `qos_open` line collects garbage (WA about
/// 3.9) in background units of up to 48 pages, about 15 ms of chip time
/// each. A GC unit yields to a queued host read at its next WL
/// boundary, so no read waits for a whole unit: the longest read is
/// bounded by one erase (a unit of one WL runs whole, erase included),
/// one GC step (three page reads and one WL program), and the read
/// itself at its most retries plus its page transfer (ECC decoding is
/// part of the model's sense time).
#[test]
fn qos_open_line_on_32_blocks_serves_every_read_within_an_erase_and_a_gc_step() {
    let (stdout, text) = common::cli_metrics(
        "qos_open_32_blocks",
        &format!("{QOS_OPEN_LINE} --blocks 32 --requests 22500"),
    );
    assert!(
        common::metric(&text, "ssd.ftl.gc_runs", "value") > 0.0,
        "{stdout}"
    );
    let (read_max, program_max) = common::nand_worst_us();
    let gc_step = 3.0 * read_max + program_max;
    let erase = nand3d::NandTiming::PAPER.t_erase_us;
    let bound = erase + gc_step + read_max + common::READ_BUS_AND_SUBMIT_US;
    let longest = common::metric(&text, "ssd.read_latency_us", "max");
    assert!(
        longest <= bound,
        "a host read took {longest} µs, over one erase, one GC step and one read ({bound} µs)"
    );
}

// ---------------------------------------------------------------------
// DWRR scheduler properties
// ---------------------------------------------------------------------

/// Drives a scheduler over synthetic backlogs, returning per-tenant
/// serve counts. Backlogs refill to stay saturated when `saturate`.
fn drive(
    sched: &mut DwrrScheduler,
    backlog: &mut [VecDeque<u32>],
    picks: usize,
    saturate: bool,
) -> Vec<u64> {
    let mut served = vec![0u64; backlog.len()];
    for _ in 0..picks {
        let Some(t) = sched.pick(&mut |t| {
            backlog[t as usize]
                .front()
                .map(|&pages| DwrrScheduler::cost(pages))
        }) else {
            break;
        };
        let pages = backlog[t as usize].pop_front().expect("picked a backlog");
        if saturate {
            backlog[t as usize].push_back(pages);
        }
        served[t as usize] += 1;
    }
    served
}

proptest! {
    /// Work conservation: while any backlog is non-empty, `pick` never
    /// returns `None`, and it drains every queue to exhaustion.
    #[test]
    fn dwrr_is_work_conserving(
        weights in prop::collection::vec(1u32..17, 1..8),
        lens in prop::collection::vec(0usize..12, 1..8),
        pages in 1u32..16,
    ) {
        let n = weights.len().min(lens.len());
        let weights = &weights[..n];
        let mut backlog: Vec<VecDeque<u32>> = lens[..n]
            .iter()
            .map(|&l| std::iter::repeat_n(pages, l).collect())
            .collect();
        let total: usize = backlog.iter().map(|q| q.len()).sum();
        let order: Vec<u32> = (0..n as u32).collect();
        let mut s = DwrrScheduler::new(weights, order);
        let served = drive(&mut s, &mut backlog, total + 8, false);
        prop_assert_eq!(served.iter().sum::<u64>() as usize, total,
            "every queued request must be served");
        prop_assert!(backlog.iter().all(|q| q.is_empty()));
        prop_assert_eq!(s.pick(&mut |_| None), None);
    }

    /// Weight proportionality: with every tenant saturated at uniform
    /// cost, long-run service shares match weight shares within ±5%.
    #[test]
    fn dwrr_service_is_weight_proportional(
        weights in prop::collection::vec(1u32..17, 2..8),
        pages in 1u32..8,
    ) {
        let n = weights.len();
        let mut backlog: Vec<VecDeque<u32>> =
            (0..n).map(|_| VecDeque::from(vec![pages])).collect();
        let order: Vec<u32> = (0..n as u32).collect();
        let mut s = DwrrScheduler::new(&weights, order);
        let w_total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        // Long horizon: every tenant expects >= 64 serves, so ±1 serve
        // of round-boundary quantization stays well inside ±5%.
        let picks = (w_total as usize) * 64;
        let served = drive(&mut s, &mut backlog, picks, true);
        let total: u64 = served.iter().sum();
        prop_assert!(total > 0);
        for (i, &got) in served.iter().enumerate() {
            let expect = total as f64 * f64::from(weights[i]) / w_total as f64;
            let err = (got as f64 - expect).abs() / expect;
            prop_assert!(err <= 0.05,
                "tenant {i} (weight {}): served {got}, expected {expect:.1} (err {err:.3})",
                weights[i]);
        }
    }

    /// Replay bijectivity: the same pick sequence over the same
    /// backlogs leaves an identical state fingerprint and identical
    /// serve order — scheduler state is a pure function of its inputs.
    #[test]
    fn dwrr_replay_reaches_an_identical_fingerprint(
        weights in prop::collection::vec(1u32..17, 1..8),
        lens in prop::collection::vec(1usize..24, 1..8),
        pages in 1u32..16,
    ) {
        let n = weights.len().min(lens.len());
        let weights = &weights[..n];
        let run = || {
            let mut backlog: Vec<VecDeque<u32>> = lens[..n]
                .iter()
                .map(|&l| std::iter::repeat_n(pages, l).collect())
            .collect();
            let order: Vec<u32> = (0..n as u32).collect();
            let mut s = DwrrScheduler::new(weights, order);
            let mut picks = Vec::new();
            while let Some(t) = s.pick(&mut |t| {
                backlog[t as usize]
                    .front()
                    .map(|&p| DwrrScheduler::cost(p))
            }) {
                backlog[t as usize].pop_front();
                picks.push(t);
            }
            (picks, s.fingerprint())
        };
        let (picks_a, fp_a) = run();
        let (picks_b, fp_b) = run();
        prop_assert_eq!(picks_a, picks_b);
        prop_assert_eq!(fp_a, fp_b);
    }
}
