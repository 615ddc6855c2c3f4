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
//! A double run of the 2× cell must reproduce the full report
//! byte-identically (the front adds no nondeterminism).
//!
//! `--out PATH` writes both phases as one CSV (`phase` column).
//!
//! Run with: `cargo run --release -p bench --bin qos` (`--smoke` for
//! the CI-sized variant).

use bench::{banner, run, BenchArgs, Table};
use cubeftl::harness::{EvalConfig, QosSpec, Scenario};
use cubeftl::{AgingState, FtlKind, QosReport, SimReport, TenantClass, TenantMix};

const KIND: FtlKind = FtlKind::Cube;
const WORKLOAD: TenantMix = TenantMix::Uniform;
const AGING: AgingState = AgingState::MidLife;

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

fn base_spec() -> QosSpec {
    QosSpec {
        queues: 4,
        tenants: 4,
        weights: PROP_WEIGHTS.to_vec(),
        sq_depth: 16,
        ..QosSpec::off()
    }
}

/// The device report and per-tenant outcome of one engaged run.
struct QosRun {
    sim: SimReport,
    qos: QosReport,
}

fn qos_run(cfg: &EvalConfig, spec: &QosSpec) -> QosRun {
    let mut r = run(&Scenario {
        qos: spec.clone(),
        ..Scenario::new(KIND, WORKLOAD, AGING, cfg)
    });
    QosRun {
        qos: r.qos.take().expect("front-end engaged"),
        sim: r.into_sim(),
    }
}

/// Measures uniform-traffic device capacity (requests per simulated
/// second): a short all-at-once burst keeps every queue backlogged for
/// the whole run, so the device serves at capacity end to end.
fn calibrate(cfg: &EvalConfig) -> f64 {
    let mut cal_cfg = cfg.clone();
    cal_cfg.requests = cfg.requests.min(2_000);
    let spec = QosSpec {
        arrival_interval_us: 0.01,
        ..base_spec()
    };
    let r = qos_run(&cal_cfg, &spec);
    assert!(r.sim.iops > 0.0, "calibration run completed nothing");
    r.sim.iops
}

fn main() {
    let args = BenchArgs::parse(true);
    let out_path = args.out.as_deref();
    let mut cfg = args.cfg;
    cfg.requests = cfg.requests.clamp(6_000, 20_000);
    let mut csv = String::from(
        "phase,cell,tenant_or_class,weight,admitted,shed,completed,share,expected_share,\
         read_p99_us,slo_violations\n",
    );

    banner("QoS front-end — capacity calibration (uniform single-page traffic)");
    let capacity = calibrate(&cfg);
    let service_us = 1e6 / capacity;
    let slo_read_us = SLO_SERVICE_TIMES * service_us;
    println!(
        "device capacity {capacity:.0} req/s (mean service {service_us:.2} us); \
         read SLO {:.3} ms",
        slo_read_us / 1000.0
    );

    // ---- Phase A: weight-proportional service under saturation -------
    banner("phase A — completion shares vs weights 8:4:2:1 at 2x capacity");
    let spec_a = QosSpec {
        arrival_interval_us: 1e6 / (2.0 * capacity),
        ..base_spec()
    };
    let ra = qos_run(&cfg, &spec_a);
    let total_completed: u64 = ra.qos.tenants.iter().map(|t| t.completed).sum();
    let w_total: u32 = PROP_WEIGHTS.iter().sum();
    let mut t = Table::new([
        "tenant",
        "weight",
        "admitted",
        "shed",
        "completed",
        "share",
        "expected",
        "err",
    ]);
    let mut worst_err = 0.0f64;
    for tn in &ra.qos.tenants {
        let share = tn.completed as f64 / total_completed as f64;
        let expected = f64::from(tn.weight) / f64::from(w_total);
        let err = (share - expected).abs() / expected;
        worst_err = worst_err.max(err);
        t.row([
            format!("{}", tn.id),
            format!("{}", tn.weight),
            format!("{}", tn.admitted),
            format!("{}", tn.shed),
            format!("{}", tn.completed),
            format!("{:.3}", share),
            format!("{:.3}", expected),
            format!("{:.1}%", err * 100.0),
        ]);
        csv.push_str(&format!(
            "proportionality,2x,tenant{},{},{},{},{},{:.4},{:.4},{:.1},{}\n",
            tn.id,
            tn.weight,
            tn.admitted,
            tn.shed,
            tn.completed,
            share,
            expected,
            tn.read_latency.percentile(99.0),
            tn.violations,
        ));
        assert!(
            err <= SHARE_TOLERANCE,
            "tenant {} (weight {}): completion share {share:.3} strays {:.1}% from the \
             configured weight share {expected:.3} (tolerance {:.0}%)",
            tn.id,
            tn.weight,
            err * 100.0,
            SHARE_TOLERANCE * 100.0
        );
    }
    t.print();
    println!(
        "\n(every share within {:.0}% of its weight share; worst error {:.1}%)",
        SHARE_TOLERANCE * 100.0,
        worst_err * 100.0
    );

    // ---- Phase B: overload sweep with a protected tenant -------------
    banner("phase B — overload sweep, weights [8,1,1,1], equal arrival rates");
    let mut t = Table::new([
        "load",
        "class",
        "tenants",
        "admitted",
        "shed",
        "completed",
        "p99 rd (ms)",
        "SLO viol",
    ]);
    let mut at_2x = None;
    for load in [1.0f64, 1.5, 2.0] {
        let spec = QosSpec {
            weights: SWEEP_WEIGHTS.to_vec(),
            arrival_interval_us: 1e6 / (load * capacity),
            equal_arrivals: true,
            slo_read_us: Some(slo_read_us),
            ..base_spec()
        };
        let r = qos_run(&cfg, &spec);
        for (class, sum) in r.qos.by_class() {
            t.row([
                format!("{load:.1}x"),
                class.label().to_owned(),
                format!("{}", sum.tenants),
                format!("{}", sum.admitted),
                format!("{}", sum.shed),
                format!("{}", sum.completed),
                format!("{:.3}", sum.read_latency.percentile(99.0) / 1000.0),
                format!("{}", sum.violations),
            ]);
            csv.push_str(&format!(
                "overload,{load:.1}x,{},,{},{},{},,,{:.1},{}\n",
                class.label(),
                sum.admitted,
                sum.shed,
                sum.completed,
                sum.read_latency.percentile(99.0),
                sum.violations,
            ));
        }
        if load == 2.0 {
            at_2x = Some((r, spec));
        }
    }
    t.print();

    let (r2, spec2) = at_2x.expect("2x cell ran");
    let classes = r2.qos.by_class();
    let protected = &classes
        .iter()
        .find(|(c, _)| *c == TenantClass::Protected)
        .expect("protected class present")
        .1;
    let best_effort = &classes
        .iter()
        .find(|(c, _)| *c == TenantClass::BestEffort)
        .expect("best-effort class present")
        .1;
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

    // Determinism: the 2x cell double-runs byte-identically.
    let again = qos_run(&cfg, &spec2);
    assert_eq!(
        format!("{:?}", (&r2.sim, &r2.qos.tenants)),
        format!("{:?}", (&again.sim, &again.qos.tenants)),
        "double run must reproduce the 2x overload cell byte-identically"
    );
    println!("(double run of the 2x cell reproduced byte-identically)");

    if let Some(path) = &out_path {
        std::fs::write(path, &csv).expect("write QoS CSV");
        println!("\ncurve written to {path}");
    }
}
