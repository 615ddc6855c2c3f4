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
//!   workloads (the read path really degrades);
//! * a double run reproduces the curve CSV byte-for-byte;
//! * a 4-shard array KV run is byte-identical at 1 and 4 worker
//!   threads.
//!
//! `--out PATH` overrides the curve path (default `./kv_curve.csv`);
//! `--smoke` runs the CI-scale configuration.
//!
//! Run with: `cargo run --release -p bench --bin kv`

use bench::{banner, run, BenchArgs, Table};
use cubeftl::harness::{ArrayEvalConfig, EvalConfig, KvSpec, Scenario};
use cubeftl::{AgingState, FtlKind, KvAppReport, KvStream, TenantMix, YcsbKind};

/// One cell of the curve: device and app metrics for one
/// (aging, workload) pair.
struct CurvePoint {
    aging: &'static str,
    kind: YcsbKind,
    iops: f64,
    tprog_mean_us: f64,
    num_retry: u64,
    retry_per_read: f64,
    wa_host: f64,
    wa_total: f64,
    app: KvAppReport,
}

/// The engine shape the bench drives: a small memtable so flushes and
/// compactions cycle many times inside a CI-scale run.
fn bench_spec() -> KvSpec {
    KvSpec {
        keys: 4_096,
        memtable_entries: 512,
        ..KvSpec::default()
    }
}

/// A Cube device (or array) driven by the bench's engine under `kind`.
fn kv_scenario(
    aging: AgingState,
    kind: YcsbKind,
    cfg: &EvalConfig,
    arr: Option<ArrayEvalConfig>,
) -> Scenario {
    Scenario {
        array: arr,
        kv: bench_spec(),
        ..Scenario::new(FtlKind::Cube, TenantMix::Kv(kind), aging, cfg)
    }
}

/// Runs one evaluation cell.
fn run_cell(
    aging: AgingState,
    aging_label: &'static str,
    kind: YcsbKind,
    cfg: &EvalConfig,
) -> CurvePoint {
    let mut r = run(&kv_scenario(aging, kind, cfg, None));
    let app = r.kv.take().expect("KV layer engaged").apps.remove(0);
    let sim = r.sim();
    CurvePoint {
        aging: aging_label,
        kind,
        iops: sim.iops,
        tprog_mean_us: sim.write_latency.mean(),
        num_retry: sim.ftl.read_retries,
        retry_per_read: r.retry_rate(0),
        wa_host: sim.wa_host().unwrap_or(0.0),
        wa_total: sim.wa_total().unwrap_or(0.0),
        app,
    }
}

/// The curve as CSV — also the double-run byte-identity witness.
fn curve_csv(points: &[CurvePoint]) -> String {
    let mut csv = String::from(
        "aging,workload,iops,tprog_mean_us,num_retry,retry_per_read,wa_host,wa_total,\
         kv_ops,kv_reads,kv_updates,app_wa_permille,read_p99_pages,update_p99_pages,\
         flushes,compactions,compaction_debt_pages\n",
    );
    for p in points {
        csv.push_str(&format!(
            "{},{},{:.2},{:.3},{},{:.5},{:.5},{:.5},{},{},{},{},{},{},{},{},{}\n",
            p.aging,
            p.kind.label(),
            p.iops,
            p.tprog_mean_us,
            p.num_retry,
            p.retry_per_read,
            p.wa_host,
            p.wa_total,
            p.app.stats.ops,
            p.app.stats.reads,
            p.app.stats.updates,
            p.app.app_wa_permille,
            p.app.read_p99_pages,
            p.app.update_p99_pages,
            p.app.stats.flushes,
            p.app.stats.compactions,
            p.app.compaction_debt_pages,
        ));
    }
    csv
}

/// Measured device write traffic (SST + WAL pages) a standalone engine
/// emits for exactly `ops` measured operations — the equal-op-count
/// comparison the A-vs-C bar is stated over.
fn write_pages_at_ops(kind: YcsbKind, space: u64, seed: u64, ops: u64) -> u64 {
    let mut s = KvStream::new(bench_spec().kv_config(), kind, space, seed);
    while s.report().stats.ops < ops {
        let _ = s.next();
    }
    let r = s.report();
    r.stats.sst_pages_written - r.load_sst_pages + r.stats.wal_pages_written
}

fn main() {
    let args = BenchArgs::parse(true);
    let out_path = args.out.as_deref().unwrap_or("./kv_curve.csv");

    let mut cfg = args.cfg;
    // Enough device requests that the engine cycles through many
    // flush/compaction rounds, bounded for CI runtimes.
    cfg.requests = cfg.requests.clamp(8_000, 24_000);

    banner("kv application layer — YCSB-A vs YCSB-C on the kvsim LSM engine (cubeFTL)");
    let spec = bench_spec();
    println!(
        "engine: {} keys, memtable {} entries, L0 trigger {}, fanout {}, {} levels; \
         {} device requests per cell\n",
        spec.keys, spec.memtable_entries, spec.l0_files, spec.fanout, spec.max_levels, cfg.requests,
    );

    let cells = [(AgingState::Fresh, "fresh"), (AgingState::EndOfLife, "eol")];
    let mut points = Vec::new();
    for (aging, label) in cells {
        for kind in [YcsbKind::A, YcsbKind::C] {
            points.push(run_cell(aging, label, kind, &cfg));
        }
    }

    let mut t = Table::new([
        "aging",
        "workload",
        "IOPS",
        "tPROG(us)",
        "NumRetry",
        "retry/read",
        "WA(dev)",
        "kv ops",
        "app-WA",
        "rd p99 pg",
        "compactions",
    ]);
    for p in &points {
        t.row([
            p.aging.to_owned(),
            p.kind.label().to_owned(),
            format!("{:.0}", p.iops),
            format!("{:.1}", p.tprog_mean_us),
            p.num_retry.to_string(),
            format!("{:.3}", p.retry_per_read),
            format!("{:.2}", p.wa_host),
            p.app.stats.ops.to_string(),
            format!("{:.2}", p.app.app_wa()),
            p.app.read_p99_pages.to_string(),
            p.app.stats.compactions.to_string(),
        ]);
    }
    t.print();

    let csv = curve_csv(&points);
    std::fs::write(out_path, &csv).expect("write curve CSV");
    println!("\ncurve written to {out_path}");

    let cell = |aging: &str, kind: YcsbKind| {
        points
            .iter()
            .find(|p| p.aging == aging && p.kind == kind)
            .expect("cell ran")
    };
    let fresh_a = cell("fresh", YcsbKind::A);
    let fresh_c = cell("fresh", YcsbKind::C);
    let eol_a = cell("eol", YcsbKind::A);
    let eol_c = cell("eol", YcsbKind::C);

    // Bar 1: compaction amplifies — YCSB-A writes more than one device
    // page per user page at the application level.
    assert!(
        fresh_a.app.app_wa_permille > 1000,
        "YCSB-A app-WA must exceed 1.0 ({} permille)",
        fresh_a.app.app_wa_permille
    );
    assert!(
        fresh_a.app.stats.compactions > 0,
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
    assert!(
        wr_a > wr_c,
        "YCSB-A must out-write YCSB-C at equal op counts ({wr_a} vs {wr_c} pages)"
    );

    // Bar 3: the aged device retries more than the fresh one under
    // both workloads.
    assert!(
        eol_a.num_retry > fresh_a.num_retry,
        "end-of-life must retry more than fresh under YCSB-A ({} vs {})",
        eol_a.num_retry,
        fresh_a.num_retry
    );
    assert!(
        eol_c.num_retry > fresh_c.num_retry,
        "end-of-life must retry more than fresh under YCSB-C ({} vs {})",
        eol_c.num_retry,
        fresh_c.num_retry
    );

    // Bar 4: a double run reproduces the curve byte-for-byte.
    let mut again = Vec::new();
    for (aging, label) in cells {
        for kind in [YcsbKind::A, YcsbKind::C] {
            again.push(run_cell(aging, label, kind, &cfg));
        }
    }
    assert_eq!(
        csv,
        curve_csv(&again),
        "double run must reproduce the KV curve byte-identically"
    );

    // Bar 5: a 4-shard array KV run is worker-thread invariant — the
    // witness is the run's whole metric registry.
    let metrics_at = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(4);
        arr.threads = threads;
        let sc = kv_scenario(AgingState::Fresh, YcsbKind::A, &cfg, Some(arr));
        run(&sc).metrics(&sc).to_ndjson()
    };
    assert_eq!(
        metrics_at(1),
        metrics_at(4),
        "array KV run must be byte-identical at 1 and 4 worker threads"
    );

    println!(
        "\n(YCSB-A amplified {:.2}x at the application level and out-wrote read-only",
        fresh_a.app.app_wa()
    );
    println!(
        " YCSB-C {}-vs-{} pages at equal op counts; aging added {} retries under A;",
        wr_a,
        wr_c,
        eol_a.num_retry - fresh_a.num_retry
    );
    println!(" the double-run and 1-vs-4-thread checks held, so the KV stack is deterministic)");
}
