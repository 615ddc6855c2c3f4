//! Read-retry pipeline v2: the NumRetry-vs-age curve, cluster off vs on.
//!
//! Runs the read-heavy Rocks workload at each aging state under an
//! SRAM-constrained ORT (LRU-evicted, so cold lookups keep occurring at
//! steady state — the configuration the cross-block cluster targets),
//! once with the baseline pipeline and once with the v2 pipeline
//! (`--ort-cluster on --retry-opt on`). NumRetry is measured from the
//! telemetry event trace, not the aggregate counters, so the curve can
//! split seeded from unseeded chains.
//!
//! Asserts the tentpole bar — at the aged EndOfLife state the v2
//! pipeline must cut NumRetry by at least 66% — and that the retry
//! trace is byte-identical across a double run (the pipeline adds no
//! nondeterminism).
//!
//! `--out PATH` writes the curve as CSV for plotting; `--smoke` runs the
//! CI-scale configuration.
//!
//! Run with: `cargo run --release -p bench --bin retry`

use bench::{banner, run, BenchArgs, Table};
use cubeftl::harness::{Scenario, TelemetrySpec};
use cubeftl::{
    events_to_ndjson, AgingState, EventKind, EventMask, FtlKind, OrtClusterConfig, RetryOptConfig,
    StandardWorkload, TraceEvent,
};

/// The reduction bar of the tentpole: v2 must cut NumRetry by at least
/// this fraction at the aged EndOfLife state.
const REDUCTION_BAR: f64 = 0.66;

/// Per-chip ORT capacity modelling scarce controller SRAM, scaled with
/// the device (one entry per block ≈ 1/48 of the full table): small
/// enough that LRU eviction keeps producing cold lookups at steady
/// state at every benchmark scale.
fn sram_ort_capacity(blocks_per_chip: u32) -> usize {
    (blocks_per_chip as usize / 4).max(4)
}

/// What one traced run contributed to the curve.
struct CurvePoint {
    aging: &'static str,
    pipeline: &'static str,
    reads: u64,
    retry_events: u64,
    num_retry: u64,
    seeded_events: u64,
    early_terms: u64,
    trace: String,
}

fn sum_trace(events: &[TraceEvent]) -> (u64, u64, u64, u64) {
    let (mut evs, mut num, mut seeded, mut early) = (0u64, 0u64, 0u64, 0u64);
    for e in events {
        if let EventKind::ReadRetry {
            retries,
            seeded: s,
            early_term,
            ..
        } = e.kind
        {
            evs += 1;
            num += u64::from(retries);
            seeded += u64::from(s);
            early += u64::from(early_term);
        }
    }
    (evs, num, seeded, early)
}

fn main() {
    let args = BenchArgs::parse(true);
    let out_path = args.out.as_deref();
    let mut cfg = args.cfg;
    // Enough read traffic for the cluster to warm past its per-h-layer
    // sample threshold even at smoke scale, bounded for CI runtimes.
    cfg.requests = cfg.requests.clamp(15_000, 30_000);
    cfg.ort_capacity = sram_ort_capacity(cfg.blocks_per_chip);
    let tel = TelemetrySpec {
        events: EventMask::READ_RETRY,
        sample_interval_us: None,
    };

    banner("read-retry pipeline v2 — NumRetry vs age (Rocks, SRAM-bounded ORT)");
    let mut points: Vec<CurvePoint> = Vec::new();
    for (aging_label, aging) in [
        ("fresh", AgingState::Fresh),
        ("midlife", AgingState::MidLife),
        ("eol", AgingState::EndOfLife),
    ] {
        for (pipeline, cluster, opt) in [
            (
                "baseline",
                OrtClusterConfig::default(),
                RetryOptConfig::default(),
            ),
            ("v2", OrtClusterConfig::on(), RetryOptConfig::on()),
        ] {
            cfg.ort_cluster = cluster;
            cfg.retry_opt = opt;
            let out = run(&Scenario {
                telemetry: tel,
                ..Scenario::new(FtlKind::Cube, StandardWorkload::Rocks, aging, &cfg)
            });
            let (report, telemetry) = (out.sim(), &out.telemetry);
            let (retry_events, num_retry, seeded_events, early_terms) =
                sum_trace(&telemetry.events);
            assert_eq!(
                num_retry, report.ftl.read_retries,
                "trace NumRetry must agree with the aggregate counter"
            );
            if std::env::var("RETRY_DEBUG").is_ok() {
                eprintln!(
                    "DBG {aging_label}/{pipeline}: reads={} hits={} misses={} evict={} seeds={} chits={} mis={} fallbacks={}",
                    report.ftl.nand_reads,
                    report.ftl.ort_hits,
                    report.ftl.ort_misses,
                    report.ftl.ort_evictions,
                    report.ftl.cluster_seeds,
                    report.ftl.cluster_hits,
                    report.ftl.cluster_mispredicts,
                    report.ftl.ort_fallbacks,
                );
            }
            points.push(CurvePoint {
                aging: aging_label,
                pipeline,
                reads: report.ftl.nand_reads,
                retry_events,
                num_retry,
                seeded_events,
                early_terms,
                trace: events_to_ndjson(&telemetry.events),
            });
        }
    }

    let mut t = Table::new([
        "aging",
        "pipeline",
        "NumRetry",
        "retries/read",
        "retry events",
        "seeded",
        "early term",
        "reduction",
    ]);
    for pair in points.chunks(2) {
        let (base, v2) = (&pair[0], &pair[1]);
        for p in pair {
            let reduction = if p.pipeline == "v2" && base.num_retry > 0 {
                format!(
                    "{:.1}%",
                    (1.0 - v2.num_retry as f64 / base.num_retry as f64) * 100.0
                )
            } else {
                String::new()
            };
            t.row([
                p.aging.to_owned(),
                p.pipeline.to_owned(),
                format!("{}", p.num_retry),
                format!("{:.3}", p.num_retry as f64 / p.reads.max(1) as f64),
                format!("{}", p.retry_events),
                format!("{}", p.seeded_events),
                format!("{}", p.early_terms),
                reduction,
            ]);
        }
    }
    t.print();

    if let Some(path) = &out_path {
        let mut csv = String::from(
            "aging,pipeline,reads,retry_events,num_retry,seeded_events,early_terminations\n",
        );
        for p in &points {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                p.aging,
                p.pipeline,
                p.reads,
                p.retry_events,
                p.num_retry,
                p.seeded_events,
                p.early_terms
            ));
        }
        std::fs::write(path, csv).expect("write curve CSV");
        println!("\ncurve written to {path}");
    }

    // Fresh state: the cluster has nothing to seed (offset 0 everywhere)
    // and must not disturb the run.
    let fresh: Vec<&CurvePoint> = points.iter().filter(|p| p.aging == "fresh").collect();
    assert_eq!(
        fresh[0].num_retry, fresh[1].num_retry,
        "fresh state has no retries to remove"
    );

    // The tentpole bar: ≥66% NumRetry reduction at the aged state.
    let eol: Vec<&CurvePoint> = points.iter().filter(|p| p.aging == "eol").collect();
    let (base, v2) = (eol[0], eol[1]);
    let reduction = 1.0 - v2.num_retry as f64 / base.num_retry.max(1) as f64;
    assert!(
        reduction >= REDUCTION_BAR,
        "v2 must cut NumRetry by >= {:.0}% at EndOfLife, got {:.1}% ({} -> {})",
        REDUCTION_BAR * 100.0,
        reduction * 100.0,
        base.num_retry,
        v2.num_retry
    );

    // Determinism: a double run of the v2 EndOfLife cell reproduces the
    // retry trace byte for byte.
    let again = run(&Scenario {
        telemetry: tel,
        ..Scenario::new(
            FtlKind::Cube,
            StandardWorkload::Rocks,
            AgingState::EndOfLife,
            &cfg,
        )
    });
    assert_eq!(
        v2.trace,
        events_to_ndjson(&again.telemetry.events),
        "double run must reproduce the retry trace byte-identically"
    );

    println!(
        "\n(v2 cut NumRetry {} -> {} at EndOfLife, a {:.1}% reduction — cross-block",
        base.num_retry,
        v2.num_retry,
        reduction * 100.0
    );
    println!(" cluster seeding turns evicted/cold ORT lookups from full retry walks into");
    println!(" one-step refinements, and the retry-chain optimizations shorten what's left;");
    println!(" the double-run trace check held, so the pipeline stays deterministic)");
}
