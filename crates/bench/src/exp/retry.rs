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
//! pipeline must cut NumRetry by at least 66% — and that the trace's
//! NumRetry agrees with the aggregate counter in every cell. (Double-run
//! trace byte-identity is proved by `tests/retry_cluster.rs`, not here.)
//!
//! `--out PATH` writes the curve as CSV for plotting; `--smoke` runs the
//! CI-scale configuration.
//!
//! Run with: `cargo run --release -p bench -- retry`

use bench::{banner, num, text, write_curve, Cell, Columns, Sweep};
use cubeftl::harness::{Scenario, TelemetrySpec};
use cubeftl::{
    AgingState, EventKind, EventMask, FtlKind, OrtClusterConfig, RetryOptConfig, StandardWorkload,
    TraceEvent,
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

/// What a cell's retry trace sums to.
#[derive(Default)]
struct TraceSum {
    events: u64,
    num_retry: u64,
    seeded: u64,
    early_terms: u64,
}

/// A row is one traced (aging, pipeline) cell and its trace's sums.
type Row<'a> = (&'a Cell<(&'static str, &'static str)>, TraceSum);

fn trace_sum(events: &[TraceEvent]) -> TraceSum {
    let mut sum = TraceSum::default();
    for e in events {
        if let EventKind::ReadRetry {
            retries,
            seeded,
            early_term,
            ..
        } = e.kind
        {
            sum.events += 1;
            sum.num_retry += u64::from(retries);
            sum.seeded += u64::from(seeded);
            sum.early_terms += u64::from(early_term);
        }
    }
    sum
}

pub fn run(args: &crate::BenchArgs) {
    let mut cfg = args.cfg.clone();
    cfg.ftl.ort_capacity = sram_ort_capacity(cfg.blocks_per_chip());

    banner("read-retry pipeline v2 — NumRetry vs age (Rocks, SRAM-bounded ORT)");
    let agings = [
        ("fresh", AgingState::Fresh),
        ("midlife", AgingState::MidLife),
        ("eol", AgingState::EndOfLife),
    ];
    let pipelines = [
        (
            "baseline",
            OrtClusterConfig::default(),
            RetryOptConfig::default(),
        ),
        ("v2", OrtClusterConfig::on(), RetryOptConfig::on()),
    ];
    let sweep = Sweep::run(agings.iter().flat_map(|&(aging_label, aging)| {
        pipelines.map(|(pipeline, cluster, opt)| {
            cfg.ftl.ort_cluster = cluster;
            cfg.ftl.retry_opt = opt;
            let telemetry = TelemetrySpec {
                events: EventMask::READ_RETRY,
                sample_interval_us: None,
            };
            let sc = Scenario {
                telemetry,
                ..Scenario::new(FtlKind::Cube, StandardWorkload::Rocks, aging, &cfg)
            };
            ((aging_label, pipeline), sc)
        })
    }));
    let rows: Vec<Row> = (sweep.cells.iter())
        .map(|c| (c, trace_sum(&c.out.telemetry.events)))
        .collect();
    for (c, sum) in &rows {
        assert_eq!(
            sum.num_retry,
            c.sim().ftl.read_retries,
            "trace NumRetry must agree with the aggregate counter"
        );
    }

    let num_retry = |aging, pipeline| {
        let row = rows.iter().find(|r| r.0.label == (aging, pipeline));
        row.expect("cell ran").1.num_retry
    };
    // NumRetry removed relative to the same aging's baseline cell.
    let reduction = |r: &Row| {
        let base = num_retry(r.0.label.0, "baseline");
        let cut = 1.0 - r.1.num_retry as f64 / base.max(1) as f64;
        (r.0.label.1 == "v2" && base > 0).then_some(cut)
    };
    let reads = |r: &Row| r.0.sim().ftl.nand_reads;
    let mut cols = Columns::<Row>::default();
    cols.out_col("aging", "aging", |r| text(r.0.label.0));
    cols.out_col("pipeline", "pipeline", |r| text(r.0.label.1));
    cols.out_col("", "reads", |r| text(reads(r)));
    cols.out_col("", "retry_events", |r| text(r.1.events));
    cols.out_col("NumRetry", "num_retry", |r| text(r.1.num_retry));
    cols.col("retries/read", |r| {
        num(r.1.num_retry as f64 / reads(r).max(1) as f64, 3)
    });
    cols.col("retry events", |r| text(r.1.events));
    cols.out_col("seeded", "seeded_events", |r| text(r.1.seeded));
    cols.out_col("early term", "early_terminations", |r| {
        text(r.1.early_terms)
    });
    cols.col("reduction", |r| {
        text(reduction(r).map_or(String::new(), |cut| format!("{:.1}%", cut * 100.0)))
    });
    cols.table(&rows).print();
    write_curve(args.out.as_deref(), &cols.file_table(&rows));

    // Fresh state: the cluster has nothing to seed (offset 0 everywhere)
    // and must not disturb the run.
    assert_eq!(
        num_retry("fresh", "baseline"),
        num_retry("fresh", "v2"),
        "fresh state has no retries to remove"
    );

    // The tentpole bar: ≥66% NumRetry reduction at the aged state.
    let (base, v2) = (num_retry("eol", "baseline"), num_retry("eol", "v2"));
    let reduction = 1.0 - v2 as f64 / base.max(1) as f64;
    assert!(
        reduction >= REDUCTION_BAR,
        "v2 must cut NumRetry by >= {:.0}% at EndOfLife, got {:.1}% ({base} -> {v2})",
        REDUCTION_BAR * 100.0,
        reduction * 100.0,
    );

    println!(
        "\n(v2 cut NumRetry {base} -> {v2} at EndOfLife, a {:.1}% reduction — cross-block",
        reduction * 100.0
    );
    println!(" cluster seeding turns evicted/cold ORT lookups from full retry walks into");
    println!(" one-step refinements, and the retry-chain optimizations shorten what's left)");
}
