//! Multi-tenant QoS front-end: weight-proportionality under saturation
//! plus the overload sweep (the protected tenant's SLO holds while shed
//! load lands only on best-effort tenants).
//!
//! **Calibration** first measures the device's uniform-traffic capacity
//! by slamming a small saturated burst through the front (queues stay
//! backlogged end to end, so device IOPS equals service capacity).
//!
//! **Phase A** then drives 4 tenants with weights 8:4:2:1 at 2× that
//! capacity. Tenants emit single-page uniform traffic
//! ([`TenantMix::Uniform`]), so completed request counts equal DWRR
//! service shares; the bench asserts every tenant's completion share
//! lands within ±5% of its configured weight share.
//!
//! **Phase B** sweeps offered load at 1.0/1.5/2.0× capacity with
//! *equal* per-tenant arrival rates over weights `[8, 1, 1, 1]`:
//! offered load is uniform while service stays weight-differentiated,
//! so admission control sheds the best-effort tenants first. At 2× the
//! bench asserts the protected tenant shed nothing, its p99 read
//! latency stayed within the SLO, and every shed request landed on a
//! best-effort tenant.
//!
//! (Double-run byte-identity of an engaged run is proved by
//! `tests/qos.rs`, not here.)
//!
//! `--out PATH` writes both phases as one CSV (`phase` column).
//!
//! Run with: `cargo run --release -p bench -- qos` (`--smoke` for the
//! CI-sized variant).

use bench::{banner, num, num2, text, write_curve, Cell, Columns, Sweep};
use cubeftl::harness::{EvalConfig, QosSpec, RunOutput, Scenario};
use cubeftl::{
    AgingState, ClassSummary, FtlKind, HostQueueConfig, QosReport, TenantClass, TenantMix,
    TenantSummary,
};

/// Phase A / calibration weights.
const PROP_WEIGHTS: [u32; 4] = [8, 4, 2, 1];
/// Phase B weights: one protected tenant vs three best-effort ones.
const SWEEP_WEIGHTS: [u32; 4] = [8, 1, 1, 1];
/// Completion-share tolerance of the proportionality assert.
const SHARE_TOLERANCE: f64 = 0.05;
/// Read SLO in mean uniform-request service times. A saturated
/// best-effort queue drains in ~176 service times (sq_depth / a 1/11
/// weight share); the protected tenant's p99 sits near ~80 — its DWRR
/// drain is ~22, plus device-level queueing (GC, write-buffer stalls)
/// shared with every tenant. 120 splits the two regimes.
const SLO_SERVICE_TIMES: f64 = 120.0;

/// Four queues, one per tenant, each 16 deep, at `arrival_interval_us`.
fn base_front(arrival_interval_us: f64) -> HostQueueConfig {
    HostQueueConfig {
        queues: 4,
        sq_depth: 16,
        arrival_interval_us,
        ..HostQueueConfig::default()
    }
}

/// A mid-life Cube device behind `front` with four tenants of
/// `weights`, every tenant emitting uniform single-page traffic.
fn qos_scenario(cfg: &EvalConfig, weights: &[u32], front: HostQueueConfig) -> Scenario {
    let qos = QosSpec {
        tenants: 4,
        weights: weights.to_vec(),
        front,
        ..QosSpec::off()
    };
    Scenario {
        qos,
        ..Scenario::new(FtlKind::Cube, TenantMix::Uniform, AgingState::MidLife, cfg)
    }
}

fn qos(out: &RunOutput) -> &QosReport {
    out.qos.as_ref().expect("front-end engaged")
}

/// Measures uniform-traffic device capacity (requests per simulated
/// second): a short all-at-once burst keeps every queue backlogged for
/// the whole run, so the device serves at capacity end to end.
fn calibrate(cfg: &EvalConfig) -> f64 {
    let mut cal_cfg = cfg.clone();
    cal_cfg.requests = cfg.requests.min(2_000);
    let sc = qos_scenario(&cal_cfg, &PROP_WEIGHTS, base_front(0.01));
    let iops = bench::run(&sc).sim().iops;
    assert!(iops > 0.0, "calibration run completed nothing");
    iops
}

pub fn run(crate::BenchArgs { cfg, out, .. }: &crate::BenchArgs) {
    banner("QoS front-end — capacity calibration (uniform single-page traffic)");
    let capacity = calibrate(cfg);
    let service_us = 1e6 / capacity;
    let slo_read_us = SLO_SERVICE_TIMES * service_us;
    println!(
        "device capacity {capacity:.0} req/s (mean service {service_us:.2} us); \
         read SLO {:.3} ms",
        slo_read_us / 1000.0
    );

    // ---- Phase A: weight-proportional service under saturation -------
    banner("phase A — completion shares vs weights 8:4:2:1 at 2x capacity");
    let front_a = base_front(1e6 / (2.0 * capacity));
    let ra = bench::run(&qos_scenario(cfg, &PROP_WEIGHTS, front_a));
    let tenants = &qos(&ra).tenants;
    let total_completed: u64 = tenants.iter().map(|t| t.completed).sum();
    let w_total: u32 = PROP_WEIGHTS.iter().sum();
    let share = |t: &TenantSummary| t.completed as f64 / total_completed as f64;
    let expected = |t: &TenantSummary| f64::from(t.weight) / f64::from(w_total);
    let err = |t: &TenantSummary| (share(t) - expected(t)).abs() / expected(t);
    let mut cols = Columns::<TenantSummary>::default();
    cols.out_col("", "phase", |_| text("proportionality"));
    cols.out_col("", "cell", |_| text("2x"));
    cols.col("tenant", |t| text(t.id));
    cols.out_col("", "tenant_or_class", |t| text(format!("tenant{}", t.id)));
    cols.out_col("weight", "weight", |t| text(t.weight));
    cols.out_col("admitted", "admitted", |t| text(t.admitted));
    cols.out_col("shed", "shed", |t| text(t.shed));
    cols.out_col("completed", "completed", |t| text(t.completed));
    cols.out_col("share", "share", |t| num2(share(t), 3, 4));
    cols.out_col("expected", "expected_share", |t| num2(expected(t), 3, 4));
    cols.col("err", |t| text(format!("{:.1}%", err(t) * 100.0)));
    cols.out_col("", "read_p99_us", |t| {
        num(t.read_latency.percentile(99.0), 1)
    });
    cols.out_col("", "slo_violations", |t| text(t.violations));
    for t in tenants {
        assert!(
            err(t) <= SHARE_TOLERANCE,
            "tenant {} (weight {}): completion share {:.3} strays {:.1}% from the \
             configured weight share {:.3} (tolerance {:.0}%)",
            t.id,
            t.weight,
            share(t),
            err(t) * 100.0,
            expected(t),
            SHARE_TOLERANCE * 100.0
        );
    }
    cols.table(tenants).print();
    let mut curve = cols.file_table(tenants);
    println!(
        "\n(every share within {:.0}% of its weight share; worst error {:.1}%)",
        SHARE_TOLERANCE * 100.0,
        tenants.iter().map(err).fold(0.0, f64::max) * 100.0
    );

    // ---- Phase B: overload sweep with a protected tenant -------------
    banner("phase B — overload sweep, weights [8,1,1,1], equal arrival rates");
    let sweep = Sweep::run([1.0f64, 1.5, 2.0].map(|load| {
        let front = HostQueueConfig {
            weighted_arrivals: false,
            slo_read_us: Some(slo_read_us),
            ..base_front(1e6 / (load * capacity))
        };
        (load, qos_scenario(cfg, &SWEEP_WEIGHTS, front))
    }));
    // One row per (load, tenant class).
    type Row = (f64, TenantClass, ClassSummary);
    let classes = |c: &Cell<f64>| {
        let (load, by_class) = (c.label, qos(&c.out).by_class());
        by_class
            .into_iter()
            .map(move |(class, sum)| (load, class, sum))
    };
    let rows: Vec<Row> = sweep.cells.iter().flat_map(classes).collect();
    let p99 = |r: &Row| r.2.read_latency.percentile(99.0);
    let mut cols = Columns::<Row>::default();
    cols.out_col("", "phase", |_| text("overload"));
    cols.out_col("load", "cell", |r| text(format!("{:.1}x", r.0)));
    cols.out_col("class", "tenant_or_class", |r| text(r.1.label()));
    cols.col("tenants", |r| text(r.2.tenants));
    cols.out_col("", "weight", |_| text(""));
    cols.out_col("admitted", "admitted", |r| text(r.2.admitted));
    cols.out_col("shed", "shed", |r| text(r.2.shed));
    cols.out_col("completed", "completed", |r| text(r.2.completed));
    cols.out_col("", "share", |_| text(""));
    cols.out_col("", "expected_share", |_| text(""));
    cols.col("p99 rd (ms)", |r| num(p99(r) / 1000.0, 3));
    cols.out_col("", "read_p99_us", |r| num(p99(r), 1));
    cols.out_col("SLO viol", "slo_violations", |r| text(r.2.violations));
    cols.table(&rows).print();
    curve.append(cols.file_table(&rows));

    let at_2x = |class| {
        let row = rows.iter().find(|r| r.0 == 2.0 && r.1 == class);
        &row.expect("class present in the 2x cell").2
    };
    let protected = at_2x(TenantClass::Protected);
    let best_effort = at_2x(TenantClass::BestEffort);
    let prot_p99 = protected.read_latency.percentile(99.0);
    assert!(
        protected.shed == 0,
        "protected tenant must shed nothing at 2x overload, shed {}",
        protected.shed
    );
    assert!(
        best_effort.shed > 0,
        "2x overload must shed best-effort load (shed none — not actually overloaded?)"
    );
    assert!(
        prot_p99 <= slo_read_us,
        "protected p99 read latency {:.3} ms must stay within the {:.3} ms SLO",
        prot_p99 / 1000.0,
        slo_read_us / 1000.0
    );
    println!(
        "\n(at 2x overload: protected shed 0 of {} arrivals and held p99 read \
         {:.3} ms <= SLO {:.3} ms,\n\x20while all {} shed requests landed on \
         best-effort tenants — p99 read {:.3} ms)",
        protected.admitted,
        prot_p99 / 1000.0,
        slo_read_us / 1000.0,
        best_effort.shed,
        best_effort.read_latency.percentile(99.0) / 1000.0
    );

    write_curve(out.as_deref(), &curve);
}
