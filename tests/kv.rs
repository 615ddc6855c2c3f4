//! The kvsim application layer end to end through the harness: an
//! engine shape that is inert without a KV personality, byte-identical
//! double runs, YCSB-A vs YCSB-C app-WA ordering, worker-thread
//! invariance on sharded arrays, one engine per tenant behind the QoS
//! front-end, trace-capture round-trips, the device-level crash audit
//! under a KV stream, and property tests on the Zipf sampler and LSM
//! engine.
//!
//! The thread-invariance test honours `CUBEFTL_THREADS` (CI runs the
//! suite at 2 and 8) as the second worker-thread count.

mod common;

use common::{eval, run};
use cubeftl::harness::{
    ArrayEvalConfig, EvalConfig, QosSpec, RunOutput, Scenario, SpoConfig, WorkloadSource,
};
use cubeftl::{
    splitmix64, AgingState, FtlKind, HostQueueConfig, IntZipf, KvAppReport, KvConfig, KvStream,
    LsmTree, SplitMix, SpoTrigger, StandardWorkload, TenantMix, Trace, YcsbKind,
};
use proptest::prelude::*;

const PAGE_BYTES: u64 = 16 * 1024;

fn cfg() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.requests = 2_500;
    cfg
}

/// A small engine shape so flushes and compactions cycle many times
/// inside a test-scale run.
fn spec() -> KvConfig {
    KvConfig {
        keys: 2_048,
        memtable_entries: 256,
        sst_entries: 256,
        ..KvConfig::default_shape()
    }
}

/// A fresh Cube device driven by `workload`, its KV engines (if any)
/// shaped by [`spec`].
fn scenario(workload: impl Into<WorkloadSource>) -> Scenario {
    Scenario {
        kv: spec(),
        ..Scenario::new(FtlKind::Cube, workload, AgingState::Fresh, &cfg())
    }
}

/// [`scenario`] under the YCSB workload `kind`.
fn kv_scenario(kind: YcsbKind) -> Scenario {
    scenario(TenantMix::Kv(kind))
}

/// The single engine's app-level results.
fn app(r: &RunOutput) -> &KvAppReport {
    &r.kv.as_ref().expect("engaged run reports app metrics").apps[0]
}

/// The engine shape is inert unless the workload names a KV
/// personality: the scenario's own workload drives the device and no KV
/// part is reported.
fn assert_shape_is_inert_when_disengaged(base: &Scenario) {
    let plain = run(base);
    let r = run(&Scenario {
        kv: spec(),
        ..base.clone()
    });
    assert!(r.kv.is_none(), "disengaged run reports no app metrics");
    assert!(r.captured.is_none());
    assert_eq!(
        format!("{:?} {:?}", r.phases, r.telemetry),
        format!("{:?} {:?}", plain.phases, plain.telemetry),
        "a disengaged KV spec must leave the run untouched"
    );
}

#[test]
fn defaults_off_reproduces_run_eval_traced_byte_for_byte() {
    assert_shape_is_inert_when_disengaged(&Scenario::new(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::MidLife,
        &cfg(),
    ));
}

#[test]
fn defaults_off_reproduces_run_array_eval_traced_byte_for_byte() {
    assert_shape_is_inert_when_disengaged(&Scenario {
        array: Some(ArrayEvalConfig::new(4)),
        ..Scenario::new(
            FtlKind::Cube,
            StandardWorkload::Oltp,
            AgingState::Fresh,
            &cfg(),
        )
    });
}

#[test]
fn engaged_kv_run_is_byte_identical_across_reruns() {
    let sc = kv_scenario(YcsbKind::A);
    let (a, b) = (run(&sc), run(&sc));
    assert!(app(&a).stats.ops > 0, "measured ops ran");
    assert!(app(&a).stats.flushes > 0, "memtable flushed at least once");
    assert_eq!(
        format!("{:?} {:?}", a.sim(), a.kv),
        format!("{:?} {:?}", b.sim(), b.kv),
        "engaged KV run must be deterministic"
    );
}

#[test]
fn ycsb_a_amplifies_writes_more_than_ycsb_c() {
    let at = |kind: YcsbKind| app(&run(&kv_scenario(kind))).clone();
    let a = at(YcsbKind::A);
    let c = at(YcsbKind::C);
    assert!(
        a.app_wa_permille > 1000,
        "YCSB-A app-WA must exceed 1.0 ({} permille)",
        a.app_wa_permille
    );
    assert!(
        a.app_wa_permille > c.app_wa_permille,
        "update-heavy A must out-amplify read-only C ({} vs {})",
        a.app_wa_permille,
        c.app_wa_permille
    );
    assert_eq!(c.stats.updates, 0, "YCSB-C is read-only");
    assert!(
        a.stats.sst_pages_written + a.stats.wal_pages_written
            > c.stats.sst_pages_written + c.stats.wal_pages_written,
        "A must write more device pages than C"
    );
}

#[test]
fn array_kv_run_is_identical_at_any_thread_count() {
    let at = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(4);
        arr.threads = threads;
        let r = run(&Scenario {
            array: Some(arr),
            ..kv_scenario(YcsbKind::A)
        });
        let kv = r.kv.as_ref().expect("engaged");
        assert_eq!(kv.apps.len(), 4, "one KV engine per shard");
        format!("{:?} {kv:?}", r.phases)
    };
    let one = at(1);
    assert_eq!(one, at(common::threads()), "1 vs env worker threads");
    assert_eq!(one, at(2), "1 vs 2 worker threads");
}

#[test]
fn every_tenant_behind_a_front_runs_its_own_engine() {
    // A KV personality is a tenant's generator like any other: each of
    // the four tenants drives its own engine (in tenant-id order, on
    // whichever shard the tenant routes to), and the app reports are as
    // deterministic as the device's.
    let sc = Scenario {
        qos: QosSpec {
            tenants: 4,
            weights: vec![4, 1],
            front: HostQueueConfig {
                queues: 2,
                arrival_interval_us: 40.0,
                ..HostQueueConfig::default()
            },
            ..QosSpec::off()
        },
        ..kv_scenario(YcsbKind::A)
    };
    let r = run(&sc);
    let kv = r.kv.as_ref().expect("KV tenants report app metrics");
    assert_eq!(kv.apps.len(), 4, "one engine per tenant");
    assert!(kv.apps.iter().all(|a| a.kind == YcsbKind::A));
    let ops = |i: usize| kv.apps[i].stats.ops;
    assert!(ops(1) > 0, "every tenant's engine served ops");
    assert!(ops(0) > ops(1), "the weight-4 tenant out-ran the weight-1");
    let qos = r.qos.as_ref().expect("front-end engaged");
    assert_eq!(qos.tenants.len(), 4);
    let again = run(&sc);
    assert_eq!(
        format!("{:?} {:?} {:?}", r.phases, r.qos, r.kv),
        format!("{:?} {:?} {:?}", again.phases, again.qos, again.kv),
    );
    let sharded = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(2);
        arr.threads = threads;
        let r = run(&Scenario {
            array: Some(arr),
            ..sc.clone()
        });
        assert_eq!(r.kv.as_ref().expect("KV tenants").apps.len(), 4);
        format!("{:?} {:?} {:?}", r.phases, r.qos, r.kv)
    };
    assert_eq!(sharded(1), sharded(common::threads().max(2)));
}

/// Replays `trace` with capture on and returns the re-captured CSV.
fn recapture(trace: &Trace) -> String {
    let r = run(&Scenario {
        capture: true,
        ..scenario(trace)
    });
    r.captured
        .expect("capture requested")
        .to_msr_csv(PAGE_BYTES)
}

#[test]
fn kv_capture_round_trips_byte_identically() {
    let r = run(&Scenario {
        capture: true,
        ..kv_scenario(YcsbKind::A)
    });
    let captured = r.captured.expect("capture requested");
    assert_eq!(captured.label(), "ycsb_a");
    let csv = captured.to_msr_csv(PAGE_BYTES);
    let parsed = Trace::from_msr_csv(&csv, PAGE_BYTES, 1 << 40).expect("captured CSV parses");
    assert_eq!(parsed.requests(), captured.requests());
    // Replaying the capture and re-capturing reproduces the same bytes.
    assert_eq!(
        recapture(&parsed),
        csv,
        "capture -> replay -> capture must be byte-identical"
    );
}

#[test]
fn plain_workload_capture_round_trips_byte_identically() {
    let sc = scenario(StandardWorkload::Web);
    let plain = run(&sc).into_sim();
    let r = run(&Scenario {
        capture: true,
        ..sc
    });
    assert_eq!(
        format!("{:?}", r.sim()),
        format!("{plain:?}"),
        "capturing must not perturb the run"
    );
    let captured = r.captured.expect("capture requested");
    assert_eq!(captured.len() as u64, plain.completed);
    let csv = captured.to_msr_csv(PAGE_BYTES);
    let parsed = Trace::from_msr_csv(&csv, PAGE_BYTES, 1 << 40).expect("capture parses");
    assert_eq!(recapture(&parsed), csv);
}

#[test]
fn kv_stream_survives_a_power_cut_with_zero_device_loss() {
    // The crash barrier is independent of where requests come from: a
    // KV-driven device (and a KV-driven array) recovers every
    // acknowledged LPN, resumes the same engine's stream, and does so
    // byte-identically on a rerun.
    let single = Scenario {
        spo: Some(SpoConfig::at_ops(1_200)),
        ..kv_scenario(YcsbKind::A)
    };
    let array = Scenario {
        array: Some(ArrayEvalConfig::new(4)),
        spo: Some(SpoConfig {
            trigger: SpoTrigger::AtTimeUs(20_000.0),
            ckpt_interval_host_wls: 64,
        }),
        ..kv_scenario(YcsbKind::A)
    };
    for (sc, shards) in [(single, 1), (array, 4)] {
        let r = run(&sc);
        let crash = r.crash.as_ref().expect("a cut was armed");
        assert_eq!(crash.shards_cut(), shards, "the cut lands mid-run");
        assert!(crash.lost_lpns.is_empty(), "lost {:?}", crash.lost_lpns);
        assert_eq!(r.kv.as_ref().expect("engaged").apps.len(), shards);
        let again = run(&sc);
        assert_eq!(
            format!("{:?} {:?} {:?}", r.phases, r.crash, r.kv),
            format!("{:?} {:?} {:?}", again.phases, again.crash, again.kv),
        );
    }
}

#[test]
fn shipped_ycsb_a_sample_trace_replays_deterministically() {
    let trace = common::msr_trace("traces/ycsb_a.csv");
    assert_eq!(trace.label(), "ycsb_a", "capture carries its label");
    assert!(trace.len() > 100, "non-trivial sample");
    let reads = trace
        .requests()
        .iter()
        .filter(|r| matches!(r.op, ssdsim::HostOp::Read))
        .count();
    assert!(reads > 0 && reads < trace.len(), "mixed op trace");
    let cfg = cfg();
    let run = || eval(FtlKind::Cube, &trace, AgingState::Fresh, &cfg);
    let a = run();
    assert_eq!(a.completed, trace.len() as u64);
    assert_eq!(format!("{a:?}"), format!("{:?}", run()));
}

proptest! {
    /// The integer Zipf sampler stays in range and is a pure function
    /// of its RNG state.
    #[test]
    fn zipf_samples_stay_in_range_and_deterministic(
        n in 1u64..50_000,
        seed in 0u64..u64::MAX,
    ) {
        let z = IntZipf::new(n);
        let draw = |seed: u64| {
            let mut rng = SplitMix::new(seed);
            (0..64).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(seed);
        for &x in &a {
            prop_assert!(x < n, "sample {x} out of range 0..{n}");
        }
        prop_assert_eq!(a, draw(seed), "same seed must reproduce the stream");
    }

    /// No key is ever lost across arbitrary put/update sequences, no
    /// matter how many flushes and compactions they force.
    #[test]
    fn lsm_never_loses_a_key(
        puts in prop::collection::vec(0u64..512, 1..1_500),
    ) {
        let mut cfg = KvConfig::default_shape();
        cfg.keys = 512;
        cfg.memtable_entries = 64;
        cfg.sst_entries = 64;
        cfg.l0_files = 2;
        cfg.fanout = 2;
        cfg.max_levels = 3;
        let mut t = LsmTree::new(cfg, 8_192);
        for &k in &puts {
            t.put(k, false);
            while t.take_io().is_some() {}
        }
        for &k in &puts {
            prop_assert!(t.contains(k), "key {} lost", k);
        }
    }

    /// Bounded levels hold their size targets after maintenance, and
    /// the level count never exceeds the configured maximum.
    #[test]
    fn lsm_levels_stay_size_bounded(
        churn in 200u64..3_000,
        seed in 0u64..u64::MAX,
    ) {
        let mut cfg = KvConfig::default_shape();
        cfg.keys = 512;
        cfg.memtable_entries = 64;
        cfg.sst_entries = 64;
        cfg.l0_files = 2;
        cfg.fanout = 2;
        cfg.max_levels = 3;
        let max_levels = cfg.max_levels as usize;
        let mut t = LsmTree::new(cfg, 8_192);
        for i in 0..churn {
            t.put(splitmix64(i ^ seed) % 512, false);
            while t.take_io().is_some() {}
        }
        prop_assert!(t.level_count() <= max_levels);
        prop_assert!(t.level_runs(0) < t.config().l0_files as usize);
        for n in 1..t.level_count().saturating_sub(1) {
            prop_assert!(
                t.level_entries(n) <= t.level_target(n as u32),
                "level {} over target after maintenance", n
            );
        }
    }

    /// The YCSB stream wrapper is a pure function of (kind, seed): two
    /// streams with equal parameters emit identical device requests.
    #[test]
    fn kv_stream_is_a_pure_function_of_its_seed(
        seed in 0u64..u64::MAX,
        kind_ix in 0usize..5,
    ) {
        let kind = [YcsbKind::A, YcsbKind::B, YcsbKind::C, YcsbKind::D, YcsbKind::F][kind_ix];
        let mut cfg = KvConfig::default_shape();
        cfg.keys = 1_024;
        cfg.memtable_entries = 128;
        cfg.sst_entries = 128;
        let draw = || {
            let mut s = KvStream::new(cfg, kind, 8_192, seed);
            (0..256).map(|_| s.next().expect("endless stream")).collect::<Vec<_>>()
        };
        prop_assert_eq!(draw(), draw());
    }
}
