//! KV application layer: YCSB-A vs YCSB-C on the kvsim LSM engine
//! (PR 10 tentpole), fresh and aged.
//!
//! Runs the miniature LSM-tree engine (`crates/kvsim`) against cubeFTL
//! under the update-heavy YCSB-A and the read-only YCSB-C workloads, at
//! the fresh and end-of-life aging states. Each cell yields both device
//! metrics (IOPS, mean tPROG, NumRetry, retry/read, device WA) and
//! app-level metrics (KV ops, app-WA, p99 read/update page costs,
//! compactions) — the device-side drift composes with the application's
//! own write amplification.
//!
//! Asserts the acceptance bars:
//!
//! * YCSB-A's app-level WA exceeds 1.0 (compaction really amplifies);
//! * at equal measured op counts, YCSB-A's device write traffic
//!   strictly exceeds YCSB-C's;
//! * the aged device retries more than the fresh one under both
//!   workloads (the read path really degrades).
//!
//! (Double-run and 1-vs-4-thread byte-identity of KV runs are proved by
//! `tests/kv.rs`, not here.)
//!
//! `--out PATH` writes the curve as CSV; `--smoke` runs the CI-scale
//! configuration.
//!
//! Run with: `cargo run --release -p bench -- kv`

use bench::{assert_order, banner, num, num2, text, write_curve, Cell, Columns, Sweep};
use cubeftl::harness::Scenario;
use cubeftl::{AgingState, FtlKind, KvAppReport, KvConfig, KvStream, TenantMix, YcsbKind};

/// A cell is one (aging, workload) pair.
type Row = Cell<(&'static str, YcsbKind)>;

/// The engine shape the bench drives: a small memtable so flushes and
/// compactions cycle many times inside a CI-scale run.
fn bench_spec() -> KvConfig {
    KvConfig {
        keys: 4_096,
        memtable_entries: 512,
        sst_entries: 512,
        ..KvConfig::default_shape()
    }
}

/// The app-level report of a cell's one engine.
fn app(c: &Row) -> &KvAppReport {
    &c.out.kv.as_ref().expect("KV layer engaged").apps[0]
}

/// Measured device write traffic (SST + WAL pages) a standalone engine
/// emits for exactly `ops` measured operations — the equal-op-count
/// comparison the A-vs-C bar is stated over.
fn write_pages_at_ops(kind: YcsbKind, space: u64, seed: u64, ops: u64) -> u64 {
    let mut s = KvStream::new(bench_spec(), kind, space, seed);
    while s.report().stats.ops < ops {
        let _ = s.next();
    }
    let r = s.report();
    r.stats.sst_pages_written - r.load_sst_pages + r.stats.wal_pages_written
}

pub fn run(crate::BenchArgs { cfg, out, .. }: &crate::BenchArgs) {
    banner("kv application layer — YCSB-A vs YCSB-C on the kvsim LSM engine (cubeFTL)");
    let spec = bench_spec();
    println!(
        "engine: {} keys, memtable {} entries, L0 trigger {}, fanout {}, {} levels; \
         {} device requests per cell\n",
        spec.keys, spec.memtable_entries, spec.l0_files, spec.fanout, spec.max_levels, cfg.requests,
    );

    let agings = [(AgingState::Fresh, "fresh"), (AgingState::EndOfLife, "eol")];
    let sweep = Sweep::run(agings.iter().flat_map(|&(aging, label)| {
        [YcsbKind::A, YcsbKind::C].map(|kind| {
            let sc = Scenario {
                kv: bench_spec(),
                ..Scenario::new(FtlKind::Cube, TenantMix::Kv(kind), aging, cfg)
            };
            ((label, kind), sc)
        })
    }));

    let wa = |w: Option<f64>| w.unwrap_or(0.0);
    let mut cols = Columns::<Row>::default();
    cols.out_col("aging", "aging", |c| text(c.label.0));
    cols.out_col("workload", "workload", |c| text(c.label.1.label()));
    cols.out_col("IOPS", "iops", |c| num2(c.sim().iops, 0, 2));
    cols.out_col("tPROG(us)", "tprog_mean_us", |c| {
        num2(c.sim().write_latency.mean(), 1, 3)
    });
    cols.out_col("NumRetry", "num_retry", |c| text(c.sim().ftl.read_retries));
    cols.out_col("retry/read", "retry_per_read", |c| {
        num2(c.out.retry_rate(0), 3, 5)
    });
    cols.out_col("WA(dev)", "wa_host", |c| num2(wa(c.sim().wa_host()), 2, 5));
    cols.out_col("", "wa_total", |c| num(wa(c.sim().wa_total()), 5));
    cols.out_col("kv ops", "kv_ops", |c| text(app(c).stats.ops));
    cols.out_col("", "kv_reads", |c| text(app(c).stats.reads));
    cols.out_col("", "kv_updates", |c| text(app(c).stats.updates));
    cols.col("app-WA", |c| num(app(c).app_wa(), 2));
    cols.out_col("", "app_wa_permille", |c| text(app(c).app_wa_permille));
    cols.out_col("rd p99 pg", "read_p99_pages", |c| {
        text(app(c).read_p99_pages)
    });
    cols.out_col("", "update_p99_pages", |c| text(app(c).update_p99_pages));
    cols.out_col("", "flushes", |c| text(app(c).stats.flushes));
    cols.out_col("compactions", "compactions", |c| {
        text(app(c).stats.compactions)
    });
    cols.out_col("", "compaction_debt_pages", |c| {
        text(app(c).compaction_debt_pages)
    });
    cols.table(&sweep.cells).print();
    write_curve(out.as_deref(), &cols.file_table(&sweep.cells));

    let fresh_a = app(sweep.cell(&("fresh", YcsbKind::A)));

    // Bar 1: compaction amplifies — YCSB-A writes more than one device
    // page per user page at the application level.
    assert!(
        fresh_a.app_wa_permille > 1000,
        "YCSB-A app-WA must exceed 1.0 ({} permille)",
        fresh_a.app_wa_permille
    );
    assert!(
        fresh_a.stats.compactions > 0,
        "YCSB-A must trigger compactions"
    );

    // Bar 2: at equal measured op counts, the update-heavy workload's
    // device write traffic strictly exceeds the read-only one's.
    let ops = 20_000u64;
    let space = 16_384u64;
    let wr_a = write_pages_at_ops(YcsbKind::A, space, cfg.seed, ops);
    let wr_c = write_pages_at_ops(YcsbKind::C, space, cfg.seed, ops);
    println!(
        "\nequal-op write traffic ({ops} ops over {space} pages): \
         ycsb_a {wr_a} pages vs ycsb_c {wr_c} pages"
    );
    let pages = "device write pages at equal op counts";
    assert_order(pages, ("ycsb_c", wr_c as f64), "<", ("ycsb_a", wr_a as f64));

    // Bar 3: the aged device retries more than the fresh one under
    // both workloads.
    let retries = |aging, kind| {
        let label = (aging, kind);
        (label, sweep.cell(&label).sim().ftl.read_retries as f64)
    };
    for kind in [YcsbKind::A, YcsbKind::C] {
        assert_order(
            "NumRetry",
            retries("fresh", kind),
            "<",
            retries("eol", kind),
        );
    }

    println!(
        "\n(YCSB-A amplified {:.2}x at the application level and out-wrote read-only",
        fresh_a.app_wa()
    );
    println!(
        " YCSB-C {}-vs-{} pages at equal op counts; aging added {} retries under A)",
        wr_a,
        wr_c,
        retries("eol", YcsbKind::A).1 - retries("fresh", YcsbKind::A).1
    );
}
