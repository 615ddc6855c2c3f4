//! Per-tenant outcome summaries: shard-ordered merge and
//! bounded-cardinality metric registration.

use telemetry::{LogHistogram, MetricRegistry};
use workloads::TenantClass;

/// The outcome of one tenant's run (or its merge across shards).
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Global tenant id.
    pub id: u32,
    /// DWRR weight.
    pub weight: u32,
    /// Service class.
    pub class: TenantClass,
    /// Workload label.
    pub label: String,
    /// Arrivals admitted to the submission queue.
    pub admitted: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Requests completed by the device.
    pub completed: u64,
    /// Read latency distribution (µs, from scheduled arrival).
    pub read_latency: LogHistogram,
    /// Write latency distribution (µs, from scheduled arrival).
    pub write_latency: LogHistogram,
    /// SLO violations (completions past the configured target).
    pub violations: u64,
}

/// Aggregate over one service class.
#[derive(Debug, Clone, Default)]
pub struct ClassSummary {
    /// Tenants in the class.
    pub tenants: u64,
    /// Summed admissions.
    pub admitted: u64,
    /// Summed sheds.
    pub shed: u64,
    /// Summed completions.
    pub completed: u64,
    /// Merged read latency.
    pub read_latency: LogHistogram,
    /// Merged write latency.
    pub write_latency: LogHistogram,
    /// Summed violations.
    pub violations: u64,
}

impl ClassSummary {
    fn absorb(&mut self, t: &TenantSummary) {
        self.tenants += 1;
        self.admitted += t.admitted;
        self.shed += t.shed;
        self.completed += t.completed;
        self.read_latency.absorb(&t.read_latency);
        self.write_latency.absorb(&t.write_latency);
        self.violations += t.violations;
    }
}

/// The QoS outcome of a run: tenants in ascending global-id order.
#[derive(Debug, Clone, Default)]
pub struct QosReport {
    /// Per-tenant outcomes, ascending global id.
    pub tenants: Vec<TenantSummary>,
    /// Arrivals shed per submission queue, indexed by queue (empty when
    /// the front did not attribute sheds to queues — e.g. reports built
    /// directly from tenant summaries).
    pub queue_shed: Vec<u64>,
}

impl QosReport {
    /// Cardinality bound for per-tenant detail (metrics, trace
    /// summaries, CLI table rows): only the lowest global ids get
    /// per-tenant series; everything else is covered by the per-class
    /// aggregates. Keeps thousand-tenant runs from exploding the
    /// registry.
    pub const MAX_TENANT_DETAIL: usize = 16;

    /// Builds a report from per-tenant summaries already in ascending
    /// global-id order.
    pub fn from_tenants(tenants: impl Iterator<Item = TenantSummary>) -> Self {
        let report = QosReport {
            tenants: tenants.collect(),
            queue_shed: Vec::new(),
        };
        debug_assert!(
            report.tenants.windows(2).all(|w| w[0].id < w[1].id),
            "tenants must be in ascending global-id order"
        );
        report
    }

    /// Merges per-shard reports. Call in shard order (the fan-in
    /// barrier already yields shards by index) — each global tenant id
    /// must appear on exactly one shard, so the merge is a stable
    /// id-sorted interleave and independent of thread scheduling.
    pub fn merge(shards: Vec<QosReport>) -> QosReport {
        // Queue indices are global (tenant id % queues), so the per-
        // queue shed counts sum elementwise across shards.
        let mut queue_shed: Vec<u64> = Vec::new();
        for r in &shards {
            if r.queue_shed.len() > queue_shed.len() {
                queue_shed.resize(r.queue_shed.len(), 0);
            }
            for (q, shed) in r.queue_shed.iter().enumerate() {
                queue_shed[q] += shed;
            }
        }
        let mut all: Vec<TenantSummary> = shards.into_iter().flat_map(|r| r.tenants).collect();
        all.sort_by_key(|t| t.id);
        debug_assert!(
            all.windows(2).all(|w| w[0].id < w[1].id),
            "a tenant id appeared on more than one shard"
        );
        QosReport {
            tenants: all,
            queue_shed,
        }
    }

    /// Population-wide totals.
    pub fn total(&self) -> ClassSummary {
        let mut sum = ClassSummary::default();
        for t in &self.tenants {
            sum.absorb(t);
        }
        sum
    }

    /// Aggregates by service class, in declaration order.
    pub fn by_class(&self) -> Vec<(TenantClass, ClassSummary)> {
        [
            TenantClass::Protected,
            TenantClass::Standard,
            TenantClass::BestEffort,
        ]
        .into_iter()
        .filter_map(|class| {
            let mut sum = ClassSummary::default();
            for t in self.tenants.iter().filter(|t| t.class == class) {
                sum.absorb(t);
            }
            (sum.tenants > 0).then_some((class, sum))
        })
        .collect()
    }

    /// Registers QoS metrics with bounded cardinality: population
    /// totals, per-class aggregates, and per-tenant detail for the
    /// [`QosReport::MAX_TENANT_DETAIL`] lowest global ids only.
    pub fn register_metrics(&self, reg: &mut MetricRegistry) {
        let total = self.total();
        reg.counter("qos.tenants", self.tenants.len() as u64);
        reg.counter("qos.admitted", total.admitted);
        reg.counter("qos.shed", total.shed);
        reg.counter("qos.completed", total.completed);
        reg.counter("qos.slo_violations", total.violations);
        for (class, sum) in self.by_class() {
            let p = format!("qos.class.{}", class.label());
            reg.counter(&format!("{p}.tenants"), sum.tenants);
            reg.counter(&format!("{p}.admitted"), sum.admitted);
            reg.counter(&format!("{p}.shed"), sum.shed);
            reg.counter(&format!("{p}.completed"), sum.completed);
            reg.counter(&format!("{p}.slo_violations"), sum.violations);
            reg.gauge(
                &format!("{p}.read_p99_us"),
                sum.read_latency.percentile(99.0),
            );
            reg.gauge(
                &format!("{p}.write_p99_us"),
                sum.write_latency.percentile(99.0),
            );
        }
        for (q, shed) in self.queue_shed.iter().enumerate() {
            reg.counter(&format!("qos.queue{q}.shed"), *shed);
        }
        for t in self.tenants.iter().take(Self::MAX_TENANT_DETAIL) {
            let p = format!("qos.tenant.{}", t.id);
            reg.counter(&format!("{p}.admitted"), t.admitted);
            reg.counter(&format!("{p}.shed"), t.shed);
            reg.counter(&format!("{p}.completed"), t.completed);
            reg.counter(&format!("{p}.slo_violations"), t.violations);
            reg.gauge(&format!("{p}.weight"), f64::from(t.weight));
            reg.histogram(&format!("{p}.read_latency_us"), &t.read_latency);
            reg.histogram(&format!("{p}.write_latency_us"), &t.write_latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(id: u32, weight: u32, class: TenantClass, completed: u64) -> TenantSummary {
        TenantSummary {
            id,
            weight,
            class,
            label: "Uniform".into(),
            admitted: completed,
            shed: id as u64,
            completed,
            read_latency: LogHistogram::new(),
            write_latency: LogHistogram::new(),
            violations: 0,
        }
    }

    #[test]
    fn merge_interleaves_shards_by_global_id() {
        let a = QosReport::from_tenants(
            vec![
                tenant(0, 8, TenantClass::Protected, 10),
                tenant(2, 1, TenantClass::BestEffort, 5),
            ]
            .into_iter(),
        );
        let b = QosReport::from_tenants(
            vec![
                tenant(1, 4, TenantClass::Standard, 7),
                tenant(3, 1, TenantClass::BestEffort, 3),
            ]
            .into_iter(),
        );
        let m = QosReport::merge(vec![a, b]);
        assert_eq!(
            m.tenants.iter().map(|t| t.id).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert_eq!(m.total().completed, 25);
        assert_eq!(m.total().shed, 6); // ids 0..=3, shed == id
        let classes = m.by_class();
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[2].1.tenants, 2);
    }

    #[test]
    fn queue_shed_merges_elementwise_and_registers() {
        let mut a =
            QosReport::from_tenants(vec![tenant(0, 1, TenantClass::Standard, 1)].into_iter());
        a.queue_shed = vec![3, 0, 7];
        let mut b =
            QosReport::from_tenants(vec![tenant(1, 1, TenantClass::Standard, 1)].into_iter());
        b.queue_shed = vec![1, 5, 2];
        let m = QosReport::merge(vec![a, b]);
        assert_eq!(m.queue_shed, vec![4, 5, 9]);
        let mut reg = MetricRegistry::new();
        m.register_metrics(&mut reg);
        let nd = reg.to_ndjson();
        assert!(nd.contains("\"qos.queue0.shed\""));
        assert!(nd.contains("\"qos.queue2.shed\""));
    }

    #[test]
    fn metric_cardinality_is_bounded() {
        let many =
            QosReport::from_tenants((0..1000).map(|i| tenant(i, 1, TenantClass::Standard, 1)));
        let mut reg = MetricRegistry::new();
        many.register_metrics(&mut reg);
        assert!(
            reg.entries().len() < 160,
            "registry must stay bounded, got {}",
            reg.entries().len()
        );
    }
}
