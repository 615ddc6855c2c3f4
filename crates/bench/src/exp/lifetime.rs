//! Lifetime campaign: the fresh → end-of-life drift curve.
//!
//! Runs one fast-forward aging campaign (PR 9 tentpole) on the Mail
//! workload, twice per workload seed: once with background maintenance
//! off — the raw drift curve — and once with maintenance on, where
//! retention scrubbing and wear leveling race the same aging schedule.
//! Each epoch's report yields the headline drift metrics: IOPS, mean
//! tPROG (host write-latency mean), NumRetry, retries/read (every
//! origin's retries — host and GC — per host read request, the bars'
//! measure), host retries/read (the host's own NAND reads' retries per
//! such read, which GC traffic does not move), write amplification, and
//! the blocks scrubbing refreshed. The tables print seed 42's curves and
//! every seed's end-of-life pair.
//!
//! Asserts the acceptance bars, on every seed of [`SEEDS`]:
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
//! `--out PATH` writes every seed's curves as CSV; `--smoke` runs the
//! CI-scale configuration. The schedule and maintenance tuning are the
//! ones the assertions assume; explore others with `cubeftl-sim
//! --lifetime-*` / `--maint-*`.
//!
//! Run with: `cargo run --release -p bench -- lifetime`

use bench::{assert_order, banner, f3, num2, text, write_curve, Cell, Columns, Sweep, Table};
use cubeftl::harness::{EvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, LifetimeConfig, MaintConfig, SimReport, StandardWorkload};

/// Workload seeds each campaign pair runs at: one seed's pair is one
/// draw, so the bars must hold on each of them.
const SEEDS: [u64; 5] = [42, 1, 2, 3, 4];

/// A campaign's label: its maintenance setting and workload seed.
type Label = (&'static str, u64);

/// A row is one epoch of one campaign.
type Row<'a> = (&'a Cell<Label>, usize);

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
    let cfg = &args.cfg;
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
    // One Cube Mail campaign from a fresh device per maintenance setting
    // and seed.
    let settings = [("off", None), ("on", Some(maint))];
    let sweep = Sweep::run(SEEDS.iter().flat_map(|&seed| {
        settings.map(|(label, maint)| {
            let cfg = EvalConfig { seed, maint, ..cfg.clone() };
            let (kind, mail) = (FtlKind::Cube, StandardWorkload::Mail);
            let sc = Scenario {
                lifetime: Some(life),
                ..Scenario::new(kind, mail, AgingState::Fresh, &cfg)
            };
            ((label, seed), sc)
        })
    }));
    let epochs = |c| (0..life.epochs as usize).map(move |e| (c, e));
    let rows: Vec<Row> = sweep.cells.iter().flat_map(epochs).collect();

    let wa = |w: Option<f64>| w.unwrap_or(0.0);
    let mut cols = Columns::<Row>::default();
    cols.out_col("", "seed", |r| text(r.0.label.1));
    cols.out_col("maint", "maint", |r| text(r.0.label.0));
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
    cols.out_col("host r/r", "host_retry_per_read", |r| {
        let ftl = &rep(r).ftl;
        let reads = ftl.host_nand_reads.max(1) as f64;
        num2(ftl.host_read_retries as f64 / reads, 3, 5)
    });
    cols.out_col("WA(h)", "wa_host", |r| num2(wa(rep(r).wa_host()), 2, 5));
    cols.out_col("WA(t)", "wa_total", |r| num2(wa(rep(r).wa_total()), 2, 5));
    cols.out_col("", "gc_runs", |r| text(rep(r).ftl.gc_runs));
    cols.out_col("scrubbed", "scrub_blocks", |r| text(rep(r).ftl.scrub_blocks));
    let first = |r: &&Row| r.0.label.1 == SEEDS[0];
    let curve: Vec<Row> = rows.iter().filter(first).copied().collect();
    cols.table(&curve).print();
    write_curve(args.out.as_deref(), &cols.file_table(&rows));

    // Both bars hold on every seed. Bar 1: the maintenance-off retry
    // curve is monotone non-decreasing and the device really ages.
    // Bar 2: maintenance pays for itself at end-of-life.
    let last = life.epochs as usize - 1;
    let retry = |c: &Cell<Label>, e| ((c.label, e), c.out.retry_rate(e));
    let wa_total = |c: &Cell<Label>, e| ((c.label, e), wa(rep(&(c, e)).wa_total()));
    println!("\nend-of-life retries/read per seed (epoch {last}):");
    let mut eol = Table::new(["seed", "off", "on"]);
    for seed in SEEDS {
        let (off, on) = (sweep.cell(&("off", seed)), sweep.cell(&("on", seed)));
        for e in 0..last {
            let what = "retries/read by epoch without maintenance";
            assert_order(what, retry(off, e), "<=", retry(off, e + 1));
        }
        assert_order("retries/read", retry(off, 0), "<", retry(off, last));
        assert_order("total WA", wa_total(off, 0), "<=", wa_total(off, last));
        let what = "end-of-life retries/read";
        assert_order(what, retry(on, last), "<", retry(off, last));
        eol.row([seed.to_string(), f3(retry(off, last).1), f3(retry(on, last).1)]);
    }
    eol.print();

    println!(
        "\n(each campaign aged the device {} P/E and {:.1} retention-months in {} epochs)",
        last as u32 * life.pe_per_epoch,
        months_cum(&(sweep.cell(&("off", SEEDS[0])), last)),
        life.epochs
    );
}
