//! Array resilience, end to end through the harness: rotating parity,
//! whole-shard failure injection, degraded reads, deterministic
//! background rebuild — and the zero-host-acknowledged-loss audit.
//!
//! Determinism discipline matches `tests/array.rs`: the same master
//! seed must produce a byte-identical report on repeated runs and at
//! any worker-thread count — whatever the request source: a generator,
//! a KV engine or a recorded trace; with everything off the parity
//! router must be plain LPN striping.

mod common;

use cubeftl::harness::{
    ArrayEvalConfig, ArrayFailureConfig, EvalConfig, FailSpec, FailureReport, Phase, RunOutput,
    Scenario, SpoConfig, TelemetrySpec, WorkloadSource,
};
use cubeftl::{
    events_to_ndjson, page_fingerprint, xor_parity, AgingState, EventKind, EventMask, FtlKind,
    HostRequest, KvConfig, PageRole, ParityRouter, SpoTrigger, StandardWorkload, TenantMix,
    YcsbKind,
};
use proptest::prelude::*;

fn cfg() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.requests = 1_000;
    cfg
}

/// Worker threads driving the engine: `CUBEFTL_THREADS` (CI re-runs
/// the suite at 2 and 8) — results must be identical at any value.
fn arr(shards: usize) -> ArrayEvalConfig {
    let mut arr = ArrayEvalConfig::new(shards);
    arr.stripe_pages = 16;
    arr.threads = common::threads();
    arr
}

/// One mid-life failure experiment under `workload` (KV engines shaped
/// small, so flushes and compactions cycle at test scale), optionally
/// with an array-wide power cut composed into the degraded phase. The
/// barrier categories are armed, so the run's one event list carries
/// the failure audit's events.
fn failure_run_of(
    workload: impl Into<WorkloadSource>,
    arr: &ArrayEvalConfig,
    fc: &ArrayFailureConfig,
    spo_cut_at_us: Option<f64>,
) -> (RunOutput, FailureReport) {
    let out = common::run(&Scenario {
        array: Some(*arr),
        failure: Some(*fc),
        spo: spo_cut_at_us.map(|t| SpoConfig {
            trigger: SpoTrigger::AtTimeUs(t),
            ckpt_interval_host_wls: 64,
        }),
        kv: KvConfig {
            keys: 2_048,
            memtable_entries: 256,
            sst_entries: 256,
            ..KvConfig::default_shape()
        },
        telemetry: TelemetrySpec {
            events: EventMask::DEGRADED.union(EventMask::REBUILD),
            sample_interval_us: None,
        },
        ..Scenario::new(FtlKind::Cube, workload, AgingState::MidLife, &cfg())
    });
    let failure = out.failure.clone().expect("failure spec was set");
    (out, failure)
}

/// [`failure_run_of`] the OLTP generator.
fn failure_run(
    arr: &ArrayEvalConfig,
    fc: &ArrayFailureConfig,
    spo_cut_at_us: Option<f64>,
) -> (RunOutput, FailureReport) {
    failure_run_of(StandardWorkload::Oltp, arr, fc, spo_cut_at_us)
}

/// A failure scenario reliably mid-run at smoke scale.
fn fail_cfg() -> ArrayFailureConfig {
    let mut fc = ArrayFailureConfig::off();
    fc.parity = true;
    fc.fail = Some(FailSpec {
        shard: 1,
        at_us: 3_000.0,
    });
    fc.spare_shards = 1;
    fc
}

#[test]
fn parity_off_routes_identically_to_plain_striping() {
    // The defaults-off router IS the array's plain striper: global page
    // `g` lands on shard `(g / P) % S` at local `(g / (P·S))·P + g % P`,
    // every request stream fanning out in stream order.
    let (s, p) = (3u64, 16u64);
    let off = ParityRouter::new(s as usize, p, false);
    let stream: Vec<HostRequest> = (0..500u64)
        .map(|i| {
            let lpn = (i * 37) % 700;
            match i % 3 {
                0 => HostRequest::read(lpn),
                1 => HostRequest::write_span(lpn, 1 + (i % 5) as u32),
                _ => HostRequest::trim_span(lpn, 1 + (i % 3) as u32),
            }
        })
        .collect();
    let mut plain = vec![Vec::new(); s as usize];
    for r in &stream {
        for g in r.lpns() {
            plain[((g / p) % s) as usize].push((r.op, (g / (p * s)) * p + g % p));
        }
    }
    for (routed, plain) in off.route_stream(stream).iter().zip(&plain) {
        for r in routed {
            assert!(
                r.lpn % p + u64::from(r.n_pages) <= p,
                "fragment crosses a stripe"
            );
        }
        let pages: Vec<_> = routed
            .iter()
            .flat_map(|r| r.lpns().map(move |l| (r.op, l)))
            .collect();
        assert_eq!(&pages, plain, "parity-off routing must be plain striping");
    }
}

#[test]
fn healthy_run_is_deterministic_and_loss_free() {
    let arr = arr(3);
    let mut fc = ArrayFailureConfig::off();
    fc.parity = true;
    let (out_a, a) = failure_run(&arr, &fc, None);
    let (out_b, b) = failure_run(&arr, &fc, None);
    assert!(a.audit.zero_loss);
    assert!(out_a.phase(Phase::Degraded).is_none());
    assert_eq!(a.resilience.failed_shard, None);
    assert!(out_a.merged().completed > 0);
    assert_eq!(
        format!("{:?}", (out_a.merged(), &a.audit)),
        format!("{:?}", (out_b.merged(), &b.audit)),
        "healthy parity-on run diverged between identical runs"
    );
}

#[test]
fn failure_degraded_rebuild_reaches_zero_loss() {
    let (out, r) = failure_run(&arr(3), &fail_cfg(), None);
    assert_eq!(r.resilience.failed_shard, Some(1));
    assert_eq!(r.resilience.spare_shard, Some(3));
    assert!(
        r.audit.durable_data_pages > 0,
        "the dead shard must have held durable data"
    );
    assert!(r.audit.acked_pages > 0, "some pages were array-acked");
    assert_eq!(r.audit.lost_pages, 0, "parity must eliminate loss");
    assert!(r.audit.zero_loss);
    // The rebuild actually moved the acked pages onto the spare.
    assert_eq!(r.audit.rebuilt_mapped_pages, r.audit.acked_pages);
    assert!(r.resilience.rebuild_pages >= r.audit.acked_pages);
    assert!(r.resilience.rebuild_time_us > 0.0, "rebuild drained");
    assert!(r.rebuild.curve.windows(2).all(|w| w[0].1 <= w[1].1));
    // Degraded reads served during the rebuild, fanned out to both
    // survivors.
    assert!(r.resilience.degraded_reads > 0, "degraded reads served");
    assert_eq!(
        r.resilience.degraded_fragment_reads,
        r.resilience.degraded_reads * 2
    );
    assert_eq!(r.resilience.per_shard_degraded_reads[1], 0);
    // The barrier emitted the degraded/rebuild trace events.
    let events = &out.telemetry.events;
    assert!(events.iter().any(|e| e
        .to_json()
        .contains("\"shard_fail\",\"failed\":1,\"phase\":\"inject\"")));
    assert!(events
        .iter()
        .any(|e| e.to_json().contains("\"rebuild_unit\"")));
    assert!(events
        .iter()
        .any(|e| e.to_json().contains("\"degraded_read\"")));
}

#[test]
fn parity_off_failure_loses_the_dead_shard() {
    let mut fc = fail_cfg();
    fc.parity = false; // no redundancy: the dead shard's data is gone
    let (_, r) = failure_run(&arr(3), &fc, None);
    assert!(r.audit.durable_data_pages > 0);
    assert_eq!(r.audit.lost_pages, r.audit.durable_data_pages);
    assert!(!r.audit.zero_loss, "parity off must show the loss");
    assert_eq!(r.resilience.degraded_reads, 0);
    assert_eq!(r.resilience.rebuild_pages, 0);
}

#[test]
fn failure_report_is_identical_at_any_thread_count_and_on_reruns() {
    // The barrier is independent of where requests come from: a
    // generator, a KV engine (whose app report rides along) and a
    // recorded trace all reach zero loss, identically at any thread
    // count.
    let shards = 3;
    let fc = fail_cfg();
    let sources: [(WorkloadSource, bool); 3] = [
        (StandardWorkload::Oltp.into(), false),
        (TenantMix::Kv(YcsbKind::A).into(), true),
        ((&common::msr_trace("traces/ycsb_a.csv")).into(), false),
    ];
    for (source, runs_engine) in sources {
        let at = |threads: usize| {
            let mut a = arr(shards);
            a.threads = threads;
            let (out, r) = failure_run_of(source.clone(), &a, &fc, None);
            assert!(r.audit.zero_loss, "{source:?} lost data");
            assert!(r.audit.acked_pages > 0, "{source:?} acked nothing");
            let apps = out.kv.as_ref().map_or(0, |kv| kv.apps.len());
            assert_eq!(apps, usize::from(runs_engine), "one engine feeds the array");
            assert!(!out.telemetry.events.is_empty(), "the barrier emitted");
            format!("{:?}", (&out.phases, &r, &out.kv, &out.telemetry.events))
        };
        let one = at(1);
        assert_eq!(one, at(2), "1 vs 2 worker threads");
        assert_eq!(one, at(common::threads()), "1 vs env worker threads");
        assert_eq!(one, at(shards + 1), "1 vs N+1 worker threads");
        assert_eq!(one, at(1), "double run");
    }
}

#[test]
fn failure_composes_with_an_array_spo_cut() {
    let arr = arr(3);
    let fc = fail_cfg();
    let cut = Some(2_000.0); // mid-degraded-phase
    let (out, r) = failure_run(&arr, &fc, cut);
    let crash = out.crash.as_ref().expect("a cut was armed");
    assert!(
        crash.recoveries.iter().any(Option::is_some),
        "the composed SPO cut must land on at least one shard"
    );
    assert!(
        crash.lost_lpns.is_empty(),
        "crash recovery lost acknowledged data: {:?}",
        crash.lost_lpns
    );
    assert!(r.audit.zero_loss, "failure + SPO still reaches zero loss");
    assert_eq!(r.audit.rebuilt_mapped_pages, r.audit.acked_pages);
    // Determinism holds for the composed scenario too.
    let (_, rerun) = failure_run(&arr, &fc, cut);
    assert_eq!(
        format!("{:?}", (&r.resilience, &r.audit, &r.rebuild)),
        format!("{:?}", (&rerun.resilience, &rerun.audit, &rerun.rebuild)),
    );
}

/// A failure run's event trace spans every phase on one timeline: no
/// phase's device-side events are dropped at the next `run_begin`, and
/// no shard's clock runs backwards across a barrier — the failure's, or
/// a power cut's composed into the degraded phase.
#[test]
fn failure_trace_keeps_every_phase_on_one_timeline() {
    let run = |threads: usize, cut_at_us: Option<f64>| {
        let mut cfg = EvalConfig::smoke();
        cfg.ftl.nand.geometry.blocks_per_chip = 16;
        let mut arr = ArrayEvalConfig::new(4);
        arr.stripe_pages = 16;
        arr.threads = threads;
        common::run(&Scenario {
            array: Some(arr),
            failure: Some(fail_cfg()),
            spo: cut_at_us.map(|t| SpoConfig {
                trigger: SpoTrigger::AtTimeUs(t),
                ckpt_interval_host_wls: 64,
            }),
            telemetry: TelemetrySpec {
                events: EventMask::ALL,
                sample_interval_us: None,
            },
            ..Scenario::new(
                FtlKind::Cube,
                StandardWorkload::Oltp,
                AgingState::Fresh,
                &cfg,
            )
        })
    };
    for cut_at_us in [None, Some(2_000.0)] {
        let out = run(1, cut_at_us);
        let phases: Vec<Phase> = out.phases.iter().map(|p| p.phase).collect();
        let mut want = vec![Phase::Main, Phase::Degraded];
        want.extend(cut_at_us.map(|_| Phase::Resumed));
        assert_eq!(phases, want);
        let events = &out.telemetry.events;
        let completed: u64 = out.phases.iter().map(|p| p.merged.completed).sum();
        let host_io = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::HostIo { .. }))
            .count() as u64;
        assert_eq!(host_io, completed, "one host_io event per completion");
        let mut last = std::collections::BTreeMap::new();
        for e in events {
            let t = last.entry(e.shard).or_insert(0.0);
            assert!(
                e.t_us >= *t,
                "shard {} runs backwards at {}",
                e.shard,
                e.t_us
            );
            *t = e.t_us;
        }
        assert_eq!(
            events_to_ndjson(events),
            events_to_ndjson(&run(common::threads(), cut_at_us).telemetry.events),
            "the trace must not depend on the worker-thread count"
        );
    }
}

proptest! {
    /// XOR reconstruction is exact for arbitrary stripe contents: drop
    /// any one data fingerprint and parity restores it.
    #[test]
    fn xor_reconstruction_is_exact(
        lpns in prop::collection::vec(0u64..1_000_000, 2..12),
        versions in prop::collection::vec(0u64..1_000, 2..12),
        drop_idx in 0usize..12,
    ) {
        let n = lpns.len().min(versions.len());
        let fps: Vec<u64> = (0..n)
            .map(|i| page_fingerprint(lpns[i], versions[i]))
            .collect();
        let parity = xor_parity(fps.iter().copied());
        let drop_idx = drop_idx % n;
        let survivors = fps
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop_idx)
            .map(|(_, f)| *f);
        prop_assert_eq!(xor_parity(survivors) ^ parity, fps[drop_idx]);
    }

    /// The rotating parity placement is a bijection: every global data
    /// LPN maps to exactly one non-parity local page and back, and
    /// every local page has exactly one role.
    #[test]
    fn rotating_parity_placement_is_a_bijection(
        shards in 2usize..7,
        stripe in 1u64..17,
        rows in 1u64..9,
    ) {
        let r = ParityRouter::new(shards, stripe, true);
        let global = stripe * (shards as u64 - 1) * rows;
        let local = r.local_pages(global);
        prop_assert_eq!(local, rows * stripe);
        let mut seen = vec![false; global as usize];
        let mut parity_pages = 0u64;
        for s in 0..shards {
            for l in 0..local {
                match r.page_at(s, l) {
                    PageRole::Data(g) => {
                        prop_assert!(g < global, "data LPN {} out of range", g);
                        prop_assert!(!seen[g as usize], "duplicate owner for {}", g);
                        seen[g as usize] = true;
                        // Roundtrip through the forward map.
                        prop_assert_eq!(r.to_local(g), (s, l));
                    }
                    PageRole::Parity { row } => {
                        prop_assert_eq!(row, l / stripe);
                        prop_assert_eq!(s, r.parity_shard(row));
                        parity_pages += 1;
                    }
                }
            }
        }
        prop_assert!(seen.into_iter().all(|b| b), "every global LPN covered");
        prop_assert_eq!(parity_pages, rows * stripe);
    }
}
