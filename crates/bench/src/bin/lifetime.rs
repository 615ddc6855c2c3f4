//! Lifetime campaign: the fresh → end-of-life drift curve.
//!
//! Runs one fast-forward aging campaign (PR 9 tentpole) on the Mail
//! workload, twice: once with background maintenance off — the raw
//! drift curve — and once with maintenance on, where retention
//! scrubbing and wear leveling race the same aging schedule. Each
//! epoch's report yields the headline drift metrics: IOPS, mean tPROG
//! (host write-latency mean), NumRetry, retries/read, and write
//! amplification.
//!
//! Asserts the acceptance bars:
//!
//! * retries/read on the maintenance-off curve is monotone
//!   non-decreasing from fresh to end-of-life, and strictly higher at
//!   the end than at the start (the device really ages);
//! * maintenance pays for itself at end-of-life: the maintenance-on
//!   campaign's final-epoch retry rate is below the maintenance-off
//!   one's;
//! * a double run reproduces the curve CSV byte-for-byte;
//! * a 4-shard array campaign is byte-identical at 1 and 4 worker
//!   threads.
//!
//! `--out PATH` overrides the curve path (default
//! `./lifetime_curve.csv`); `--smoke` runs the CI-scale configuration.
//! The schedule and maintenance tuning are the ones the assertions
//! assume; explore others with `cubeftl-sim --lifetime-*` / `--maint-*`.
//!
//! Run with: `cargo run --release -p bench --bin lifetime`

use bench::{banner, run, BenchArgs, Table};
use cubeftl::harness::{ArrayEvalConfig, EvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, LifetimeConfig, MaintConfig, StandardWorkload};

/// What one campaign epoch contributed to the curve.
struct CurvePoint {
    maint: &'static str,
    epoch: u32,
    pe_cum: u32,
    months_cum: f64,
    iops: f64,
    tprog_mean_us: f64,
    num_retry: u64,
    retry_per_read: f64,
    wa_host: f64,
    wa_total: f64,
    gc_runs: u64,
    scrub_blocks: u64,
}

/// One Cube Mail campaign from a fresh device (or array).
fn campaign(cfg: &EvalConfig, life: &LifetimeConfig, arr: Option<ArrayEvalConfig>) -> Scenario {
    Scenario {
        array: arr,
        lifetime: Some(*life),
        ..Scenario::new(
            FtlKind::Cube,
            StandardWorkload::Mail,
            AgingState::Fresh,
            cfg,
        )
    }
}

/// Runs one single-device campaign and flattens it into curve points.
fn run_campaign(label: &'static str, cfg: &EvalConfig, life: &LifetimeConfig) -> Vec<CurvePoint> {
    let r = run(&campaign(cfg, life, None));
    let summaries = &r.aging.as_ref().expect("campaign ran").summaries;
    let mut pe_cum = 0u32;
    let mut months_cum = 0.0f64;
    let mut points = Vec::new();
    for (e, rep) in r.epochs().map(|p| &p.shards[0]).enumerate() {
        if e > 0 {
            pe_cum += life.pe_per_epoch;
            months_cum += summaries[e - 1][0].retention_added_months;
        }
        points.push(CurvePoint {
            maint: label,
            epoch: e as u32,
            pe_cum,
            months_cum,
            iops: rep.iops,
            tprog_mean_us: rep.write_latency.mean(),
            num_retry: rep.ftl.read_retries,
            retry_per_read: r.retry_rate(e),
            wa_host: rep.wa_host().unwrap_or(0.0),
            wa_total: rep.wa_total().unwrap_or(0.0),
            gc_runs: rep.ftl.gc_runs,
            scrub_blocks: rep.ftl.scrub_blocks,
        });
    }
    points
}

/// The curve as CSV — also the double-run byte-identity witness.
fn curve_csv(points: &[CurvePoint]) -> String {
    let mut csv = String::from(
        "maint,epoch,pe_cum,months_cum,iops,tprog_mean_us,num_retry,retry_per_read,\
         wa_host,wa_total,gc_runs,scrub_blocks\n",
    );
    for p in points {
        csv.push_str(&format!(
            "{},{},{},{:.4},{:.2},{:.3},{},{:.5},{:.5},{:.5},{},{}\n",
            p.maint,
            p.epoch,
            p.pe_cum,
            p.months_cum,
            p.iops,
            p.tprog_mean_us,
            p.num_retry,
            p.retry_per_read,
            p.wa_host,
            p.wa_total,
            p.gc_runs,
            p.scrub_blocks,
        ));
    }
    csv
}

fn main() {
    let args = BenchArgs::parse(true);
    let out_path = args.out.as_deref().unwrap_or("./lifetime_curve.csv");

    let mut cfg = args.cfg;
    // Five workload phases per campaign; bound each for CI runtimes.
    cfg.requests = cfg.requests.clamp(2_000, 12_000);
    let mut life = LifetimeConfig::campaign();
    // The bench schedule leans on retention over P/E wear: retention
    // loss is what scrubbing can actually cure (a refresh resets it,
    // while P/E wear is permanent), so it is the regime where the
    // maintenance-payoff bar is meaningful — and keeping cumulative
    // P/E low keeps the device out of the wholesale recalibration
    // storms whose rewrites reset retention mid-campaign and break the
    // per-epoch monotonicity the curve asserts.
    life.pe_per_epoch = 100;

    banner("lifetime campaign — fresh -> end-of-life drift (Mail, cubeFTL)");
    println!(
        "campaign: {} epochs x (+{} P/E, +{} months), variation {}, pattern wear {}\n",
        life.epochs,
        life.pe_per_epoch,
        life.months_per_epoch,
        life.variation_strength,
        if life.pattern_wear { "on" } else { "off" },
    );

    cfg.maint = None;
    let no_maint = run_campaign("off", &cfg, &life);
    let mut maint = MaintConfig::default_on();
    // The stock 6-month scrub bar is sized for the paper's static aging
    // states; under this accelerated schedule (~12 retention-months per
    // campaign) the scrubber must engage proactively to race the drift.
    maint.scrub_retention_min_months = 2.0;
    cfg.maint = Some(maint);
    let with_maint = run_campaign("on", &cfg, &life);

    let mut t = Table::new([
        "maint",
        "epoch",
        "+P/E",
        "+months",
        "IOPS",
        "tPROG(us)",
        "NumRetry",
        "retry/read",
        "WA(h)",
        "WA(t)",
    ]);
    for p in no_maint.iter().chain(with_maint.iter()) {
        t.row([
            p.maint.to_owned(),
            p.epoch.to_string(),
            p.pe_cum.to_string(),
            format!("{:.1}", p.months_cum),
            format!("{:.0}", p.iops),
            format!("{:.1}", p.tprog_mean_us),
            p.num_retry.to_string(),
            format!("{:.3}", p.retry_per_read),
            format!("{:.2}", p.wa_host),
            format!("{:.2}", p.wa_total),
        ]);
    }
    t.print();

    let mut csv = curve_csv(&no_maint);
    csv.push_str(
        curve_csv(&with_maint)
            .split_once('\n')
            .map(|x| x.1)
            .unwrap_or(""),
    );
    std::fs::write(out_path, &csv).expect("write curve CSV");
    println!("\ncurve written to {out_path}");

    // Bar 1: the maintenance-off retry curve is monotone non-decreasing
    // and the device really ages.
    for w in no_maint.windows(2) {
        assert!(
            w[1].retry_per_read >= w[0].retry_per_read,
            "retries/read must not decrease with age without maintenance \
             (epoch {} {:.4} -> epoch {} {:.4})",
            w[0].epoch,
            w[0].retry_per_read,
            w[1].epoch,
            w[1].retry_per_read
        );
    }
    let (fresh, eol) = (no_maint.first().unwrap(), no_maint.last().unwrap());
    assert!(
        eol.retry_per_read > fresh.retry_per_read,
        "end-of-life must retry more than fresh ({:.4} vs {:.4})",
        eol.retry_per_read,
        fresh.retry_per_read
    );
    assert!(
        eol.wa_total >= fresh.wa_total,
        "write amplification must not improve with age ({:.4} -> {:.4})",
        fresh.wa_total,
        eol.wa_total
    );

    // Bar 2: maintenance pays for itself at end-of-life.
    let eol_maint = with_maint.last().unwrap();
    assert!(
        eol_maint.retry_per_read < eol.retry_per_read,
        "maintenance must beat no-maintenance on end-of-life retry rate \
         ({:.4} vs {:.4})",
        eol_maint.retry_per_read,
        eol.retry_per_read
    );

    // Bar 3: a double run reproduces the maintenance-off curve CSV
    // byte-for-byte.
    cfg.maint = None;
    let again = run_campaign("off", &cfg, &life);
    assert_eq!(
        curve_csv(&no_maint),
        curve_csv(&again),
        "double run must reproduce the drift curve byte-identically"
    );

    // Bar 4: a 4-shard array campaign is worker-thread invariant — the
    // witness is the campaign's whole metric registry, epoch by epoch.
    let mut short = life;
    short.epochs = 3;
    let metrics_at = |threads: usize| {
        let mut arr = ArrayEvalConfig::new(4);
        arr.threads = threads;
        let sc = campaign(&cfg, &short, Some(arr));
        run(&sc).metrics(&sc).to_ndjson()
    };
    assert_eq!(
        metrics_at(1),
        metrics_at(4),
        "array campaign must be byte-identical at 1 and 4 worker threads"
    );

    println!(
        "\n(the device aged {} P/E and {:.1} retention-months across {} epochs:",
        eol.pe_cum, eol.months_cum, life.epochs
    );
    println!(
        " retries/read drifted {:.3} -> {:.3} without maintenance; with scrubbing and",
        fresh.retry_per_read, eol.retry_per_read
    );
    println!(
        " wear leveling racing the same schedule it held {:.3} at end-of-life — and the",
        eol_maint.retry_per_read
    );
    println!(" double-run and 1-vs-4-thread checks held, so the campaign is deterministic)");
}
