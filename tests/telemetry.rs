//! Telemetry subsystem guarantees: schema-valid output files, golden
//! snapshots, byte-identity across double runs and thread counts, and
//! zero perturbation of the simulation itself.
//!
//! The golden files live in `tests/data/golden_*`. If an intentional
//! model change shifts them, regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test telemetry` and review the diff —
//! the point is that *unintentional* drift fails loudly.

mod common;

use common::{check_golden, eval, run};
use cubeftl::harness::{
    ArrayEvalConfig, ArrayFailureConfig, EvalConfig, FailSpec, QosSpec, Scenario, SpoConfig,
    TelemetryOutput, TelemetrySpec, WorkloadSource,
};
use cubeftl::{
    events_to_ndjson, AgingState, EventMask, FtlKind, LifetimeConfig, MaintConfig, SimReport,
    SpoTrigger, StandardWorkload, TenantMix, YcsbKind,
};
use std::collections::BTreeMap;
use telemetry::json::parse_object_keys;
use telemetry::{validate_ndjson, validate_trace_ndjson, EventKind, TraceEvent};

/// One traced fresh Cube scenario of `requests` smoke-scale requests.
fn scenario(workload: impl Into<WorkloadSource>, requests: u64, tel: TelemetrySpec) -> Scenario {
    let mut cfg = EvalConfig::smoke();
    cfg.requests = requests;
    Scenario {
        telemetry: tel,
        ..Scenario::new(FtlKind::Cube, workload, AgingState::Fresh, &cfg)
    }
}

/// Runs `sc`: the device report and the telemetry.
fn traced_run(sc: &Scenario) -> (SimReport, TelemetryOutput) {
    let mut r = run(sc);
    let telemetry = std::mem::take(&mut r.telemetry);
    (r.into_sim(), telemetry)
}

/// Runs [`scenario`].
fn traced(
    workload: impl Into<WorkloadSource>,
    requests: u64,
    tel: TelemetrySpec,
) -> (SimReport, TelemetryOutput) {
    traced_run(&scenario(workload, requests, tel))
}

/// The smoke scenario with every category on and a tight sampling
/// interval (2 ms of virtual time).
fn smoke_scenario(requests: u64) -> Scenario {
    scenario(
        StandardWorkload::Mail,
        requests,
        TelemetrySpec::all(2_000.0),
    )
}

/// Runs [`smoke_scenario`].
fn traced_smoke(requests: u64) -> (SimReport, TelemetryOutput) {
    traced_run(&smoke_scenario(requests))
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    // A fully instrumented run must report bit-identically to the plain
    // run — the trace observes the simulation, never steers it. (This is
    // also what keeps the pre-PR golden snapshot in determinism.rs
    // valid with telemetry compiled in.)
    let cfg = EvalConfig::smoke();
    let plain = eval(
        FtlKind::Cube,
        StandardWorkload::Mail,
        AgingState::Fresh,
        &cfg,
    );
    let (traced, out) = traced_smoke(cfg.requests);
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "telemetry perturbed the simulation"
    );
    assert!(!out.events.is_empty(), "the trace must capture events");
    assert!(!out.series.rows.is_empty(), "the sampler must produce rows");
}

#[test]
fn traced_double_run_is_byte_identical() {
    let (_, a) = traced_smoke(2_000);
    let (_, b) = traced_smoke(2_000);
    assert_eq!(
        events_to_ndjson(&a.events),
        events_to_ndjson(&b.events),
        "trace files diverged between identical runs"
    );
    assert_eq!(a.series.to_csv(), b.series.to_csv());
    assert_eq!(a.series.to_ndjson(), b.series.to_ndjson());
}

#[test]
fn emitted_files_are_schema_valid() {
    let sc = smoke_scenario(2_000);
    let r = run(&sc);
    let out = &r.telemetry;
    let trace = events_to_ndjson(&out.events);
    let n = validate_trace_ndjson(&trace).expect("trace NDJSON is well-formed");
    assert_eq!(n, out.events.len());

    let series = out.series.to_ndjson();
    let n = validate_ndjson(&series).expect("series NDJSON is well-formed");
    assert_eq!(n, out.series.rows.len());

    let reg = r.metrics(&sc);
    let metrics = reg.to_ndjson();
    let n = validate_ndjson(&metrics).expect("metrics NDJSON is well-formed");
    assert_eq!(n, reg.entries().len());
    assert!(n > 0, "the registry must have entries");
}

#[test]
fn event_mask_filters_categories() {
    let tel = TelemetrySpec {
        events: EventMask::ISPP,
        sample_interval_us: None,
    };
    let (_, out) = traced(StandardWorkload::Mail, 500, tel);
    assert!(!out.events.is_empty(), "ISPP events must fire on writes");
    for e in &out.events {
        let line = e.to_json();
        assert!(
            line.contains("\"kind\":\"ispp_program\""),
            "mask leaked a foreign category: {line}"
        );
    }
    assert!(out.series.rows.is_empty(), "sampling was off");
}

#[test]
fn golden_trace_and_series_are_stable() {
    // A short run keeps the committed files small while still covering
    // host I/O, ISPP and GC event emission plus several sample rows.
    let sc = smoke_scenario(300);
    let r = run(&sc);
    check_golden(
        "golden_trace.ndjson",
        &events_to_ndjson(&r.telemetry.events),
    );
    check_golden("golden_series.csv", &r.telemetry.series.to_csv());
    check_golden("golden_metrics.ndjson", &r.metrics(&sc).to_ndjson());
}

#[test]
fn array_telemetry_is_thread_count_invariant() {
    // 4 shards at 1 vs 4 worker threads: trace, series and merged report
    // must be byte-identical — fan-in follows shard order, never
    // completion order.
    let mut cfg = EvalConfig::smoke();
    cfg.requests = 1_200;
    let tel = TelemetrySpec::all(1_000.0);
    let at = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(4);
        arr.threads = threads;
        run(&Scenario {
            array: Some(arr),
            telemetry: tel,
            ..Scenario::new(
                FtlKind::Cube,
                StandardWorkload::Oltp,
                AgingState::MidLife,
                &cfg,
            )
        })
    };
    let (ra, rb) = (at(1), at(4));
    let (ta, tb) = (&ra.telemetry, &rb.telemetry);
    assert_eq!(
        events_to_ndjson(&ta.events),
        events_to_ndjson(&tb.events),
        "array trace diverged across thread counts"
    );
    assert_eq!(ta.series.to_csv(), tb.series.to_csv());
    assert_eq!(
        format!("{:?}", ra.merged()),
        format!("{:?}", rb.merged()),
        "merged report diverged across thread counts"
    );

    // Every shard contributed, tagged with its index, in shard order.
    let shards: Vec<u32> = ta.events.iter().map(|e| e.shard).collect();
    assert!(
        shards.windows(2).all(|w| w[0] <= w[1]),
        "shard streams must be concatenated in shard order"
    );
    for s in 0..4 {
        assert!(
            shards.contains(&s),
            "shard {s} emitted no events — per-shard tagging broken"
        );
    }
}

#[test]
fn trace_replay_emits_telemetry_like_any_other_stream() {
    // Collectors hang off the device, not off the request source: a
    // replayed trace is traced and sampled exactly like a generator,
    // without perturbing the replay, byte-identically on a rerun.
    let trace = common::msr_trace("traces/ycsb_a.csv");
    let tel = TelemetrySpec::all(2_000.0);
    let (report, out) = traced(&trace, 0, tel);
    let (plain, _) = traced(&trace, 0, TelemetrySpec::off());
    assert_eq!(report.completed, trace.len() as u64);
    assert_eq!(format!("{plain:?}"), format!("{report:?}"));
    let ndjson = events_to_ndjson(&out.events);
    let n = validate_trace_ndjson(&ndjson).expect("trace NDJSON is well-formed");
    assert!(n > 0, "the replay must emit events");
    assert!(!out.series.rows.is_empty(), "the sampler must produce rows");
    let (_, again) = traced(&trace, 0, tel);
    assert_eq!(ndjson, events_to_ndjson(&again.events));
    assert_eq!(out.series.to_csv(), again.series.to_csv());
}

/// Six tiny scenarios, every category armed and the sampler on; between
/// them they compose every barrier the pipeline has.
fn reachability_scenarios() -> Vec<(&'static str, Scenario)> {
    let tel = TelemetrySpec::all(2_000.0);
    let mut cfg = EvalConfig::smoke();
    cfg.ftl.nand.geometry.blocks_per_chip = 16;
    cfg.requests = 600;
    let base = |workload: WorkloadSource, aging| Scenario {
        telemetry: tel,
        ..Scenario::new(FtlKind::Cube, workload, aging, &cfg)
    };
    let mut arr = ArrayEvalConfig::new(4);
    arr.stripe_pages = 16;
    let mut maint = cfg.clone();
    maint.maint = Some(MaintConfig::default_on());
    let mut life = LifetimeConfig::campaign();
    life.epochs = 3;
    vec![
        (
            "plain + maint",
            Scenario {
                cfg: maint,
                ..base(StandardWorkload::Web.into(), AgingState::EndOfLife)
            },
        ),
        (
            "spo",
            Scenario {
                spo: Some(SpoConfig {
                    trigger: SpoTrigger::AtOps(300),
                    ckpt_interval_host_wls: 32,
                }),
                ..base(StandardWorkload::Oltp.into(), AgingState::MidLife)
            },
        ),
        (
            "campaign",
            Scenario {
                lifetime: Some(life),
                ..base(StandardWorkload::Mail.into(), AgingState::Fresh)
            },
        ),
        (
            "failure + spare + cut",
            Scenario {
                array: Some(arr),
                failure: Some(ArrayFailureConfig {
                    parity: true,
                    fail: Some(FailSpec {
                        shard: 1,
                        at_us: 3_000.0,
                    }),
                    spare_shards: 1,
                    ..ArrayFailureConfig::off()
                }),
                spo: Some(SpoConfig {
                    trigger: SpoTrigger::AtTimeUs(2_000.0),
                    ckpt_interval_host_wls: 64,
                }),
                ..base(StandardWorkload::Oltp.into(), AgingState::Fresh)
            },
        ),
        (
            "qos + slo",
            Scenario {
                qos: QosSpec {
                    queues: 4,
                    tenants: 12,
                    weights: vec![8, 4, 2, 1],
                    slo_read_us: Some(5_000.0),
                    ..QosSpec::off()
                },
                ..base(StandardWorkload::Mail.into(), AgingState::Fresh)
            },
        ),
        (
            "kv",
            base(TenantMix::Kv(YcsbKind::A).into(), AgingState::Fresh),
        ),
    ]
}

/// Telemetry is a spec like any other: every category `--trace-events`
/// advertises is emitted by some scenario, and whatever phases and
/// barriers a scenario composes, its one event list and its one series
/// sit on one timeline.
#[test]
fn every_category_is_reachable_on_one_timeline() {
    let mut reached = EventMask::NONE;
    for (name, sc) in reachability_scenarios() {
        let out = run(&sc).telemetry;
        assert!(!out.events.is_empty(), "{name}: no events");
        // Per shard tag the clock never runs backwards — barrier events
        // included. The KV engines stamp their own clock (the measured
        // op ordinal), so they are a stream of their own.
        let mut last = BTreeMap::new();
        for e in &out.events {
            reached = reached.union(e.kind.category());
            let t = last
                .entry((e.shard, e.kind.category() == EventMask::KV))
                .or_insert(0.0);
            assert!(
                e.t_us >= *t,
                "{name}: shard {} runs backwards: {e:?}",
                e.shard
            );
            *t = e.t_us;
        }
        assert!(!out.series.rows.is_empty(), "{name}: no samples");
        let mut last = BTreeMap::new();
        for (shard, row) in &out.series.rows {
            let (t, done) = last.entry(*shard).or_insert((0.0, 0));
            assert!(row.t_us > *t, "{name}: shard {shard} sampled twice at {t}");
            assert!(row.completed >= *done, "{name}: shard {shard} uncounted");
            (*t, *done) = (row.t_us, row.completed);
        }
    }
    let missing: Vec<&str> = EventMask::NAMES
        .iter()
        .filter(|(_, bit)| !reached.contains(*bit))
        .map(|(name, _)| *name)
        .collect();
    assert!(missing.is_empty(), "no scenario emits {missing:?}");
    assert_eq!(reached, EventMask::ALL);
}

/// One hand-built event per kind — plus `fault: None` and `Some`, both
/// `bool` values and non-finite `f64`s (clamped to `0`) — so every
/// declared field of every kind is serialized at least once.
fn one_event_per_kind() -> Vec<TraceEvent> {
    let kinds = [
        EventKind::HostIo {
            op: "read",
            lpn: 123_456_789_012,
            latency_us: 61.25,
        },
        EventKind::HostIo {
            op: "trim",
            lpn: 0,
            latency_us: f64::NAN,
        },
        EventKind::IsppProgram {
            chip: 3,
            leader: true,
            pulses: 11,
            verifies: 54,
            margin_excess_loops: 2,
            latency_us: 717.5,
            aborted: false,
        },
        EventKind::IsppProgram {
            chip: 0,
            leader: false,
            pulses: 7,
            verifies: 9,
            margin_excess_loops: 0,
            latency_us: f64::INFINITY,
            aborted: true,
        },
        EventKind::ReadRetry {
            chip: 1,
            lpn: 42,
            retries: 5,
            fault: None,
            seeded: true,
            early_term: false,
        },
        EventKind::ReadRetry {
            chip: 2,
            lpn: 43,
            retries: 9,
            fault: Some("uncorrectable"),
            seeded: false,
            early_term: true,
        },
        EventKind::GcVictim {
            chip: 1,
            block: 17,
            moved_wls: 96,
            wear_aware: true,
        },
        EventKind::Maint {
            chip: 2,
            service: "scrub",
            page_moves: 12,
        },
        EventKind::Checkpoint {
            pages: 3,
            bytes: 40_960,
            latency_us: 2109.0,
        },
        EventKind::Spo {
            phase: "recovery_done",
            detail: 8000,
        },
        EventKind::Opm {
            chip: 0,
            layer: 288,
            action: "demote",
        },
        EventKind::HostQueue {
            queue: 3,
            tenant: 11,
            action: "shed",
            depth: 64,
        },
        EventKind::TenantSlo {
            tenant: 7,
            completed: 1500,
            shed: 20,
            read_p99_us: 812.5,
            write_p99_us: 0.0,
            violations: 4,
        },
        EventKind::ShardFail {
            failed: 1,
            phase: "detect",
            detail: 512,
        },
        EventKind::DegradedRead {
            lpn: 4242,
            fragments: 3,
        },
        EventKind::RebuildUnit {
            spare: 4,
            action: "write",
            pages: 64,
        },
        EventKind::EpochAdvance {
            epoch: 2,
            pe_add: 48_000,
            retention_add_months: 2.25,
            blocks: 96,
        },
        EventKind::KvMaint {
            op_index: 900,
            action: "compact",
            level: 2,
            pages_in: 128,
            pages_out: 120,
        },
    ];
    (0u32..)
        .zip(kinds)
        .map(|(i, kind)| TraceEvent {
            t_us: if i == 1 {
                f64::NEG_INFINITY
            } else {
                f64::from(i) * 12.5
            },
            shard: i % 4,
            seq: u64::from(i) * 3,
            kind,
        })
        .collect()
}

#[test]
fn golden_event_kinds_are_stable() {
    check_golden(
        "golden_event_kinds.ndjson",
        &events_to_ndjson(&one_event_per_kind()),
    );
}

#[test]
fn every_golden_event_line_has_its_declared_keys_in_declared_order() {
    for name in ["golden_event_kinds.ndjson", "golden_trace.ndjson"] {
        let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for line in text.lines() {
            let keys = parse_object_keys(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            assert_eq!(keys[..4], ["t_us", "shard", "seq", "kind"], "{line}");
            let (_, _, fields) = EventKind::SCHEMA
                .iter()
                .find(|(kind, ..)| line.contains(&format!("\"kind\":\"{kind}\"")))
                .unwrap_or_else(|| panic!("{name}: undeclared kind: {line}"));
            assert_eq!(keys[4..], **fields, "{line}");
        }
    }
    // The hand-built file covers the whole schema, one kind at a time.
    let kinds = events_to_ndjson(&one_event_per_kind());
    for (kind, category, _) in EventKind::SCHEMA {
        assert!(kinds.contains(&format!("\"kind\":\"{kind}\"")), "{kind}");
        assert!(EventMask::ALL.contains(*category), "{kind}");
    }
}

#[test]
fn all_is_the_union_of_the_named_categories() {
    let union = EventMask::NAMES
        .iter()
        .fold(EventMask::NONE, |m, (_, bit)| m.union(*bit));
    assert_eq!(EventMask::ALL, union);
    assert_eq!(
        EventMask::parse(&EventMask::name_list(",")),
        Ok(EventMask::ALL)
    );
}
