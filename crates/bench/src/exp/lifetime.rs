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
//!   one's.
//!
//! (Double-run and 1-vs-4-thread byte-identity of campaigns are proved
//! by `tests/lifetime.rs`, not here.)
//!
//! `--out PATH` writes the curve as CSV; `--smoke` runs the CI-scale
//! configuration. The schedule and maintenance tuning are the ones the
//! assertions assume; explore others with `cubeftl-sim --lifetime-*` /
//! `--maint-*`.
//!
//! Run with: `cargo run --release -p bench -- lifetime`

use bench::{assert_order, banner, num2, text, write_curve, Cell, Columns, Sweep};
use cubeftl::harness::Scenario;
use cubeftl::{AgingState, FtlKind, LifetimeConfig, MaintConfig, SimReport, StandardWorkload};

/// A row is one epoch of one campaign (labelled by its maintenance
/// setting).
type Row<'a> = (&'a Cell<&'static str>, usize);

/// The device report of a row's epoch.
fn rep<'a>(&(c, e): &Row<'a>) -> &'a SimReport {
    &c.out.epochs().nth(e).expect("epoch ran").shards[0]
}

/// Retention months the aging barriers before a row's epoch added.
fn months_cum(&(c, e): &Row) -> f64 {
    let steps = &c.out.aging.as_ref().expect("campaign ran").summaries[..e];
    steps
        .iter()
        .fold(0.0, |sum, s| sum + s[0].retention_added_months)
}

pub fn run(args: &crate::BenchArgs) {
    let mut cfg = args.cfg.clone();
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

    let mut maint = MaintConfig::default_on();
    // The stock 6-month scrub bar is sized for the paper's static aging
    // states; under this accelerated schedule (~12 retention-months per
    // campaign) the scrubber must engage proactively to race the drift.
    maint.scrub_retention_min_months = 2.0;
    // One Cube Mail campaign from a fresh device per maintenance setting.
    let sweep = Sweep::run([("off", None), ("on", Some(maint))].map(|(label, maint)| {
        cfg.maint = maint;
        let (kind, mail) = (FtlKind::Cube, StandardWorkload::Mail);
        let sc = Scenario {
            lifetime: Some(life),
            ..Scenario::new(kind, mail, AgingState::Fresh, &cfg)
        };
        (label, sc)
    }));
    let epochs = |c| (0..life.epochs as usize).map(move |e| (c, e));
    let rows: Vec<Row> = sweep.cells.iter().flat_map(epochs).collect();

    let wa = |w: Option<f64>| w.unwrap_or(0.0);
    let mut cols = Columns::<Row>::default();
    cols.out_col("maint", "maint", |r| text(r.0.label));
    cols.out_col("epoch", "epoch", |r| text(r.1));
    cols.out_col("+P/E", "pe_cum", |r| text(r.1 as u32 * life.pe_per_epoch));
    cols.out_col("+months", "months_cum", |r| num2(months_cum(r), 1, 4));
    cols.out_col("IOPS", "iops", |r| num2(rep(r).iops, 0, 2));
    cols.out_col("tPROG(us)", "tprog_mean_us", |r| {
        num2(rep(r).write_latency.mean(), 1, 3)
    });
    cols.out_col("NumRetry", "num_retry", |r| text(rep(r).ftl.read_retries));
    cols.out_col("retry/read", "retry_per_read", |r| {
        num2(r.0.out.retry_rate(r.1), 3, 5)
    });
    cols.out_col("WA(h)", "wa_host", |r| num2(wa(rep(r).wa_host()), 2, 5));
    cols.out_col("WA(t)", "wa_total", |r| num2(wa(rep(r).wa_total()), 2, 5));
    cols.out_col("", "gc_runs", |r| text(rep(r).ftl.gc_runs));
    cols.out_col("", "scrub_blocks", |r| text(rep(r).ftl.scrub_blocks));
    cols.table(&rows).print();
    write_curve(args.out.as_deref(), &cols.file_table(&rows));

    // Bar 1: the maintenance-off retry curve is monotone non-decreasing
    // and the device really ages.
    let last = life.epochs as usize - 1;
    let off = sweep.cell(&"off");
    let retry = |c: &Cell<&'static str>, e| ((c.label, e), c.out.retry_rate(e));
    for e in 0..last {
        let what = "retries/read by epoch without maintenance";
        assert_order(what, retry(off, e), "<=", retry(off, e + 1));
    }
    assert_order("retries/read", retry(off, 0), "<", retry(off, last));
    let wa_total = |e| (("off", e), wa(rep(&(off, e)).wa_total()));
    assert_order("total WA", wa_total(0), "<=", wa_total(last));

    // Bar 2: maintenance pays for itself at end-of-life.
    let on = sweep.cell(&"on");
    let what = "end-of-life retries/read";
    assert_order(what, retry(on, last), "<", retry(off, last));

    println!(
        "\n(the device aged {} P/E and {:.1} retention-months across {} epochs:",
        last as u32 * life.pe_per_epoch,
        months_cum(&(off, last)),
        life.epochs
    );
    println!(
        " retries/read drifted {:.3} -> {:.3} without maintenance; with scrubbing and",
        retry(off, 0).1,
        retry(off, last).1
    );
    println!(
        " wear leveling racing the same schedule it held {:.3} at end-of-life)",
        retry(on, last).1
    );
}
