//! The multi-queue host front-end: open-loop arrivals, bounded
//! per-tenant submission queues with deterministic shedding, DWRR
//! dispatch, and per-tenant completion/SLO accounting.

use crate::report::{QosReport, TenantSummary};
use crate::sched::DwrrScheduler;
use ssdsim::{FrontRequest, HostFront, HostOp, HostRequest};
use std::collections::{BinaryHeap, VecDeque};
use telemetry::{Collector, EventKind, EventMask, LogHistogram, TraceEvent};
use workloads::{TenantProfile, Workload};

/// Configuration of one [`HostQueueFront`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostQueueConfig {
    /// Submission/completion queue pairs. Tenant `t` maps to queue
    /// `t % queues` (by global tenant id).
    pub queues: u32,
    /// Per-tenant submission queue depth bound: arrivals beyond it are
    /// shed (admission control).
    pub sq_depth: usize,
    /// Aggregate mean inter-arrival time across the whole population,
    /// in µs. With `weighted_arrivals`, tenant `i`'s own interval is
    /// `arrival_interval_us * W / w_i` (W = total weight), so arrival
    /// rates are weight-proportional and sum to the aggregate rate;
    /// otherwise every tenant gets `arrival_interval_us * n` (equal
    /// rates summing to the same aggregate).
    pub arrival_interval_us: f64,
    /// Weight-proportional arrival rates (the default). Turn off for
    /// overload experiments where offered load must be uniform while
    /// *service* stays weight-differentiated — that separation is what
    /// lets admission control shed best-effort tenants while the
    /// protected class keeps up.
    pub weighted_arrivals: bool,
    /// Read-latency SLO in µs (`None` = untracked).
    pub slo_read_us: Option<f64>,
    /// Write-latency SLO in µs (`None` = untracked).
    pub slo_write_us: Option<f64>,
}

impl Default for HostQueueConfig {
    fn default() -> Self {
        HostQueueConfig {
            queues: 1,
            sq_depth: 16,
            arrival_interval_us: 2.0,
            weighted_arrivals: true,
            slo_read_us: None,
            slo_write_us: None,
        }
    }
}

/// One arrival instant in the heap (min-heap by time, tenant-id
/// tie-break — both deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    t_us: f64,
    /// Local tenant index.
    tenant: u32,
}

impl Eq for Arrival {}

impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest.
        other
            .t_us
            .total_cmp(&self.t_us)
            .then_with(|| other.tenant.cmp(&self.tenant))
    }
}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An admitted request waiting in its submission queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: HostRequest,
    /// Scheduled arrival instant — latency is measured from here, so
    /// submission-queue wait counts against the SLO.
    arrival_us: f64,
}

/// A dispatched request awaiting completion.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    tenant: u32,
    arrival_us: f64,
    op: HostOp,
}

/// Per-tenant runtime state.
struct TenantState {
    profile: TenantProfile,
    /// Queue pair this tenant maps to (`global_id % queues`).
    queue: u32,
    stream: Box<dyn Workload + Send>,
    /// Arrivals this tenant may still generate.
    remaining: u64,
    interval_us: f64,
    sq: VecDeque<Pending>,
    admitted: u64,
    shed: u64,
    completed: u64,
    read_latency: LogHistogram,
    write_latency: LogHistogram,
    violations: u64,
}

/// The NVMe-style front-end: implements [`HostFront`] over a tenant
/// population. See the crate docs for the determinism argument.
pub struct HostQueueFront {
    cfg: HostQueueConfig,
    tenants: Vec<TenantState>,
    sched: DwrrScheduler,
    arrivals: BinaryHeap<Arrival>,
    /// In-flight token slab; freed slots are recycled LIFO.
    inflight: Vec<Option<InFlight>>,
    free_tokens: Vec<u32>,
    outstanding: usize,
    trace: Collector,
    last_t_us: f64,
}

/// Splits a total arrival budget across `profiles` proportionally to
/// weight, deterministically: each tenant gets `⌊total·w/W⌋` and the
/// remainder goes to the lowest tenant ids, so the budgets sum exactly
/// to `total`. Weight-proportional budgets make every arrival process
/// end at (nearly) the same virtual instant, keeping the population
/// saturated together.
pub fn split_arrival_budget(total: u64, profiles: &[TenantProfile]) -> Vec<u64> {
    let w_total: u64 = profiles.iter().map(|p| u64::from(p.weight)).sum();
    let mut budgets: Vec<u64> = profiles
        .iter()
        .map(|p| total * u64::from(p.weight) / w_total)
        .collect();
    let mut rem = total - budgets.iter().sum::<u64>();
    for b in budgets.iter_mut() {
        if rem == 0 {
            break;
        }
        *b += 1;
        rem -= 1;
    }
    budgets
}

/// Splits a total arrival budget evenly across `n` tenants (remainder
/// to the lowest indices, summing exactly to `total`) — the partner of
/// [`split_arrival_budget`] for equal-rate arrivals
/// (`weighted_arrivals: false`).
pub fn split_even_budget(total: u64, n: usize) -> Vec<u64> {
    let n64 = n as u64;
    (0..n64)
        .map(|i| total / n64 + u64::from(i < total % n64))
        .collect()
}

impl HostQueueFront {
    /// Builds the front over a tenant population. `streams[i]` is
    /// tenant `i`'s request source and `budgets[i]` its arrival count
    /// (see [`split_arrival_budget`]). Profiles may carry any global
    /// ids (a shard passes its subset); scheduling runs over local
    /// dense indices in (queue, global id) order.
    pub fn new(
        cfg: HostQueueConfig,
        profiles: Vec<TenantProfile>,
        streams: Vec<Box<dyn Workload + Send>>,
        budgets: Vec<u64>,
    ) -> Self {
        assert!(cfg.queues >= 1, "need at least one queue pair");
        assert!(cfg.sq_depth >= 1, "submission queues need depth >= 1");
        assert!(
            cfg.arrival_interval_us > 0.0 && cfg.arrival_interval_us.is_finite(),
            "arrival interval must be positive"
        );
        assert!(!profiles.is_empty(), "need at least one tenant");
        assert_eq!(profiles.len(), streams.len());
        assert_eq!(profiles.len(), budgets.len());

        let w_total: u64 = profiles.iter().map(|p| u64::from(p.weight)).sum();
        let weights: Vec<u32> = profiles.iter().map(|p| p.weight).collect();
        // Flattened (queue, global id) walk order over local indices.
        let mut order: Vec<u32> = (0..profiles.len() as u32).collect();
        order.sort_by_key(|&i| {
            let p = &profiles[i as usize];
            (p.id % cfg.queues, p.id)
        });
        let sched = DwrrScheduler::new(&weights, order);

        let mut arrivals = BinaryHeap::with_capacity(profiles.len());
        let mut tenants = Vec::with_capacity(profiles.len());
        let population = budgets.len() as f64;
        for (i, (profile, stream)) in profiles.into_iter().zip(streams).enumerate() {
            let interval_us = if cfg.weighted_arrivals {
                cfg.arrival_interval_us * w_total as f64 / f64::from(profile.weight)
            } else {
                cfg.arrival_interval_us * population
            };
            // Deterministic per-tenant phase in [0, 1) from the stream
            // seed: staggers first arrivals so the population does not
            // arrive in lockstep.
            let phase = (profile.seed >> 11) as f64 / (1u64 << 53) as f64;
            let remaining = budgets[i];
            if remaining > 0 {
                arrivals.push(Arrival {
                    t_us: phase * interval_us,
                    tenant: i as u32,
                });
            }
            tenants.push(TenantState {
                queue: profile.id % cfg.queues,
                profile,
                stream,
                remaining,
                interval_us,
                sq: VecDeque::new(),
                admitted: 0,
                shed: 0,
                completed: 0,
                read_latency: LogHistogram::new(),
                write_latency: LogHistogram::new(),
                violations: 0,
            });
        }
        HostQueueFront {
            cfg,
            tenants,
            sched,
            arrivals,
            inflight: Vec::new(),
            free_tokens: Vec::new(),
            outstanding: 0,
            trace: Collector::disabled(),
            last_t_us: 0.0,
        }
    }

    /// Arms event tracing ([`EventMask::HOSTQ`] shed transitions and
    /// the end-of-run [`EventMask::SLO`] summaries), tagging events
    /// with `shard`.
    pub fn enable_telemetry(&mut self, mask: EventMask, shard: u32) {
        self.trace = if mask.is_empty() {
            Collector::disabled()
        } else {
            Collector::enabled(mask, shard)
        };
    }

    /// Drains the front's trace events (merge with the device and FTL
    /// streams via [`telemetry::merge_streams`]).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Every tenant's global id and request stream, in the order the
    /// profiles were passed in.
    pub fn streams(&self) -> impl Iterator<Item = (u32, &dyn Workload)> {
        self.tenants.iter().map(|t| {
            let stream: &dyn Workload = t.stream.as_ref();
            (t.profile.id, stream)
        })
    }

    /// Arrivals shed per submission queue so far, indexed by queue
    /// (tenant sheds attributed to the queue the tenant maps to).
    pub fn queue_shed(&self) -> Vec<u64> {
        let mut shed = vec![0u64; self.cfg.queues as usize];
        for t in &self.tenants {
            shed[t.queue as usize] += t.shed;
        }
        shed
    }

    /// Builds the per-tenant outcome report and emits one
    /// [`EventKind::TenantSlo`] trace event per tenant in the bounded
    /// reporting set (the [`QosReport::MAX_TENANT_DETAIL`] lowest
    /// global ids), stamped at the last observed virtual time.
    pub fn report(&mut self) -> QosReport {
        let mut by_id: Vec<usize> = (0..self.tenants.len()).collect();
        by_id.sort_by_key(|&i| self.tenants[i].profile.id);
        if self.trace.wants(EventMask::SLO) {
            for &i in by_id.iter().take(QosReport::MAX_TENANT_DETAIL) {
                let t = &self.tenants[i];
                self.trace.emit(
                    self.last_t_us,
                    EventKind::TenantSlo {
                        tenant: t.profile.id,
                        completed: t.completed,
                        shed: t.shed,
                        read_p99_us: t.read_latency.percentile(99.0),
                        write_p99_us: t.write_latency.percentile(99.0),
                        violations: t.violations,
                    },
                );
            }
        }
        let mut report = QosReport::from_tenants(by_id.iter().map(|&i| {
            let t = &self.tenants[i];
            TenantSummary {
                id: t.profile.id,
                weight: t.profile.weight,
                class: t.profile.class,
                label: t.stream.label().to_owned(),
                admitted: t.admitted,
                shed: t.shed,
                completed: t.completed,
                read_latency: t.read_latency.clone(),
                write_latency: t.write_latency.clone(),
                violations: t.violations,
            }
        }));
        report.queue_shed = self.queue_shed();
        report
    }

    fn admit(&mut self, local: u32, t_us: f64) {
        let tenant = &mut self.tenants[local as usize];
        let Some(req) = tenant.stream.next() else {
            // Finite stream (trace replay) ran dry: stop its arrivals.
            tenant.remaining = 0;
            return;
        };
        tenant.remaining -= 1;
        if tenant.remaining > 0 {
            self.arrivals.push(Arrival {
                t_us: t_us + tenant.interval_us,
                tenant: local,
            });
        }
        if tenant.sq.len() < self.cfg.sq_depth {
            tenant.sq.push_back(Pending {
                req,
                arrival_us: t_us,
            });
            tenant.admitted += 1;
        } else {
            tenant.shed += 1;
            let (queue, id, depth) = (tenant.queue, tenant.profile.id, tenant.sq.len() as u32);
            if self.trace.wants(EventMask::HOSTQ) {
                self.trace.emit(
                    t_us,
                    EventKind::HostQueue {
                        queue,
                        tenant: id,
                        action: "shed",
                        depth,
                    },
                );
            }
        }
    }
}

impl HostFront for HostQueueFront {
    fn next_arrival_us(&self) -> Option<f64> {
        self.arrivals.peek().map(|a| a.t_us)
    }

    fn advance(&mut self, now_us: f64) {
        self.last_t_us = self.last_t_us.max(now_us);
        while let Some(&top) = self.arrivals.peek() {
            if top.t_us > now_us {
                break;
            }
            self.arrivals.pop();
            self.admit(top.tenant, top.t_us);
        }
    }

    fn pop(&mut self, now_us: f64) -> Option<FrontRequest> {
        let tenants = &mut self.tenants;
        let local = self.sched.pick(&mut |t| {
            tenants[t as usize]
                .sq
                .front()
                .map(|p| DwrrScheduler::cost(p.req.n_pages))
        })?;
        let pending = self.tenants[local as usize]
            .sq
            .pop_front()
            .expect("scheduler picked a backlogged tenant");
        let slot = InFlight {
            tenant: local,
            arrival_us: pending.arrival_us,
            op: pending.req.op,
        };
        let token = match self.free_tokens.pop() {
            Some(tok) => {
                self.inflight[tok as usize] = Some(slot);
                tok
            }
            None => {
                self.inflight.push(Some(slot));
                (self.inflight.len() - 1) as u32
            }
        };
        self.outstanding += 1;
        self.last_t_us = self.last_t_us.max(now_us);
        Some(FrontRequest {
            req: pending.req,
            token,
        })
    }

    fn complete(&mut self, token: u32, now_us: f64) {
        let slot = self.inflight[token as usize]
            .take()
            .expect("completion token is in flight");
        self.free_tokens.push(token);
        self.outstanding -= 1;
        self.last_t_us = self.last_t_us.max(now_us);
        let latency = now_us - slot.arrival_us;
        let tenant = &mut self.tenants[slot.tenant as usize];
        tenant.completed += 1;
        match slot.op {
            HostOp::Read => {
                tenant.read_latency.record(latency);
                if self.cfg.slo_read_us.is_some_and(|slo| latency > slo) {
                    tenant.violations += 1;
                }
            }
            HostOp::Write | HostOp::Trim => {
                tenant.write_latency.record(latency);
                if slot.op == HostOp::Write
                    && self.cfg.slo_write_us.is_some_and(|slo| latency > slo)
                {
                    tenant.violations += 1;
                }
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.arrivals.is_empty()
            && self.outstanding == 0
            && self.tenants.iter().all(|t| t.sq.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{build_population, TenantMix};

    fn front(n: u32, weights: &[u32], total: u64, cfg: HostQueueConfig) -> HostQueueFront {
        let profiles = build_population(n, weights, Some(TenantMix::Uniform), 11);
        let streams = profiles.iter().map(|p| p.build_stream(4096)).collect();
        let budgets = split_arrival_budget(total, &profiles);
        HostQueueFront::new(cfg, profiles, streams, budgets)
    }

    #[test]
    fn budget_split_is_weight_proportional_and_exact() {
        let profiles = build_population(3, &[8, 4, 1], None, 1);
        let budgets = split_arrival_budget(1000, &profiles);
        assert_eq!(budgets.iter().sum::<u64>(), 1000);
        assert_eq!(budgets, vec![616, 308, 76]);
    }

    #[test]
    fn arrivals_admit_then_shed_at_depth_bound() {
        let mut f = front(
            1,
            &[1],
            100,
            HostQueueConfig {
                sq_depth: 4,
                ..HostQueueConfig::default()
            },
        );
        // Consume every arrival without ever dispatching: only sq_depth
        // can be admitted, the rest shed.
        f.advance(1e12);
        let r = f.report();
        assert_eq!(r.tenants[0].admitted, 4);
        assert_eq!(r.tenants[0].shed, 96);
        assert!(!f.exhausted(), "admitted requests still queued");
    }

    #[test]
    fn pop_complete_round_trips_tokens_and_latency() {
        let mut f = front(2, &[3, 1], 8, HostQueueConfig::default());
        f.advance(1e12);
        let mut served = 0;
        while let Some(fr) = f.pop(500.0) {
            f.complete(fr.token, 700.0);
            served += 1;
        }
        assert_eq!(served, 8);
        assert!(f.exhausted());
        let r = f.report();
        assert_eq!(r.total().completed, 8);
        assert_eq!(r.total().shed, 0);
    }

    #[test]
    fn double_run_reports_identically() {
        let run = || {
            let mut f = front(16, &[8, 2, 1], 400, HostQueueConfig::default());
            f.advance(1e12);
            while let Some(fr) = f.pop(1e12) {
                f.complete(fr.token, 1e12 + 5.0);
            }
            format!("{:?}", f.report())
        };
        assert_eq!(run(), run());
    }
}
