//! The fan-in: merging per-shard [`SimReport`]s into one array-wide
//! report.
//!
//! Merging happens strictly in shard-index order at a sequence point
//! after every shard has finished — never in completion order — so the
//! merged report is byte-identical no matter how the shard threads were
//! scheduled.

use ssdsim::{ChipStats, FtlStats, RebuildProgress, SimReport};
use telemetry::LogHistogram;

/// Array-wide results: per-shard reports folded in shard order.
#[derive(Debug, Clone)]
pub struct ArrayReport {
    /// FTL name (shared by every shard).
    pub ftl_name: String,
    /// Number of shards merged.
    pub shards: usize,
    /// Aggregate array throughput: the sum of per-shard IOPS — what the
    /// host sees from `shards` devices serving in parallel.
    pub iops: f64,
    /// Array makespan: the slowest shard's simulated time, µs.
    pub sim_time_us: f64,
    /// Completed host requests across all shards.
    pub completed: u64,
    /// Completed reads across all shards.
    pub reads: u64,
    /// Completed writes across all shards.
    pub writes: u64,
    /// Completed TRIMs across all shards.
    pub trims: u64,
    /// Read latencies of every shard, concatenated in shard order.
    pub read_latency: LogHistogram,
    /// Write latencies of every shard, concatenated in shard order.
    pub write_latency: LogHistogram,
    /// FTL counters accumulated over all shards.
    pub ftl: FtlStats,
    /// Chip statistics of every shard, concatenated in shard order
    /// (shard `s`, chip `c` lands at index `s * chips_per_shard + c`).
    pub chip_stats: Vec<ChipStats>,
    /// Per-shard throughput, indexed by shard.
    pub per_shard_iops: Vec<f64>,
    /// Per-shard completed requests, indexed by shard.
    pub per_shard_completed: Vec<u64>,
}

impl ArrayReport {
    /// Folds per-shard reports, in the order given (callers pass them in
    /// shard-index order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn merge(reports: &[SimReport]) -> Self {
        assert!(!reports.is_empty(), "cannot merge zero shards");
        let mut merged = ArrayReport {
            ftl_name: reports[0].ftl_name.clone(),
            shards: reports.len(),
            iops: 0.0,
            sim_time_us: 0.0,
            completed: 0,
            reads: 0,
            writes: 0,
            trims: 0,
            read_latency: LogHistogram::new(),
            write_latency: LogHistogram::new(),
            ftl: FtlStats::default(),
            chip_stats: Vec::new(),
            per_shard_iops: Vec::with_capacity(reports.len()),
            per_shard_completed: Vec::with_capacity(reports.len()),
        };
        for r in reports {
            merged.iops += r.iops;
            merged.sim_time_us = merged.sim_time_us.max(r.sim_time_us);
            merged.completed += r.completed;
            merged.reads += r.reads;
            merged.writes += r.writes;
            merged.trims += r.trims;
            merged.read_latency.absorb(&r.read_latency);
            merged.write_latency.absorb(&r.write_latency);
            merged.ftl.accumulate(&r.ftl);
            merged.chip_stats.extend_from_slice(&r.chip_stats);
            merged.per_shard_iops.push(r.iops);
            merged.per_shard_completed.push(r.completed);
        }
        merged
    }

    /// Host-attributed write amplification over the whole array
    /// ([`ssdsim::FtlStats::wa_host`] on the accumulated counters).
    pub fn wa_host(&self) -> Option<f64> {
        self.ftl.wa_host()
    }

    /// Total write amplification over the whole array
    /// ([`ssdsim::FtlStats::wa_total`] on the accumulated counters).
    pub fn wa_total(&self) -> Option<f64> {
        self.ftl.wa_total()
    }

    /// Total fault-recovery actions across all shards.
    pub fn recovery_actions(&self) -> u64 {
        self.ftl.recovery_actions()
    }

    /// Registers the merged array metrics under `prefix`: array-wide
    /// gauges and counters, the merged latency histograms, the
    /// accumulated FTL counters (under `{prefix}.ftl`) and per-shard
    /// throughput (under `{prefix}.shard{s}`).
    pub fn register_metrics(&self, reg: &mut telemetry::MetricRegistry, prefix: &str) {
        ssdsim::register_host_metrics!(self, reg, prefix);
        if let Some(wa) = self.wa_host() {
            reg.gauge(&format!("{prefix}.wa_host"), wa);
        }
        if let Some(wa) = self.wa_total() {
            reg.gauge(&format!("{prefix}.wa_total"), wa);
        }
        self.ftl.register_metrics(reg, &format!("{prefix}.ftl"));
        for (s, (iops, completed)) in self
            .per_shard_iops
            .iter()
            .zip(&self.per_shard_completed)
            .enumerate()
        {
            reg.gauge(&format!("{prefix}.shard{s}.iops"), *iops);
            reg.counter(&format!("{prefix}.shard{s}.completed"), *completed);
        }
    }
}

/// Outcome of a failure-injection run: what the degraded path served,
/// what the rebuild moved, and the zero-host-acknowledged-loss audit.
/// All counters are derived at the deterministic phase barriers, so the
/// report is byte-identical at any worker-thread count.
///
/// "Array-acknowledged" means both legs of a write were durable at the
/// failure instant: the data page on the (now dead) shard *and* its
/// row's parity page on the surviving parity holder. Pages whose data
/// leg was durable but whose parity leg had not yet landed are
/// [`unprotected`](Self::unprotected_pages) — a real array would not
/// have acknowledged them to the host, so they are not loss.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Whether rotating parity was enabled for the run.
    pub parity: bool,
    /// The failed shard, when a failure was injected.
    pub failed_shard: Option<u32>,
    /// Virtual time of the failure injection, µs.
    pub fail_at_us: f64,
    /// Spare shard that absorbed the rebuild, if one was provisioned.
    pub spare_shard: Option<u32>,
    /// Lost data pages served to the host by XOR reconstruction.
    pub degraded_reads: u64,
    /// Survivor fragment reads issued to serve those (≈ `(S−1)×`).
    pub degraded_fragment_reads: u64,
    /// Survivor fragment reads issued by the rebuild.
    pub rebuild_reads: u64,
    /// Dead-shard host writes redirected to the spare.
    pub redirected_writes: u64,
    /// Dead-shard requests with no redirect target (reads with parity
    /// off, writes without a spare).
    pub dropped_requests: u64,
    /// Durable data pages on the failed shard at the failure instant
    /// (mapped or PLP-buffered, within the routed region).
    pub durable_data_pages: u64,
    /// Of those, array-acknowledged (parity leg also durable).
    pub acked_pages: u64,
    /// Array-acknowledged pages mapped on the spare after the rebuild.
    pub rebuilt_mapped_pages: u64,
    /// Array-acknowledged pages that are neither on the spare nor
    /// reconstructable from survivors — with parity off, every durable
    /// data page. **Must be 0 with parity on.**
    pub lost_pages: u64,
    /// Per-shard survivor fragment reads served for degraded host
    /// reads, indexed by shard (0 on the failed shard itself).
    pub per_shard_degraded_reads: Vec<u64>,
    /// Per-shard survivor fragment reads served for the rebuild,
    /// indexed by shard.
    pub per_shard_rebuild_reads: Vec<u64>,
    /// The spare's rebuild progress over every phase after the failure:
    /// `writes_done` pages reconstructed onto it, drained at
    /// `done_at_us` (µs after the failure instant), and the curve.
    pub rebuild: RebuildProgress,
}

impl ResilienceReport {
    /// No array-acknowledged page was lost.
    pub fn zero_loss(&self) -> bool {
        self.lost_pages == 0
    }

    /// Durable data pages whose parity leg had not landed (data-leg
    /// only: the array had not acknowledged them yet).
    pub fn unprotected_pages(&self) -> u64 {
        self.durable_data_pages - self.acked_pages
    }

    /// Registers the resilience counters under `{prefix}.resilience`:
    /// run-wide counters plus per-shard failure/degraded-read/rebuild
    /// detail (`{prefix}.shard{s}.*`). The audit's page counts,
    /// `dropped_requests` and the rebuild curve are not registered.
    pub fn register_metrics(&self, reg: &mut telemetry::MetricRegistry, prefix: &str) {
        let p = format!("{prefix}.resilience");
        reg.counter(&format!("{p}.parity"), u64::from(self.parity));
        if let Some(f) = self.failed_shard {
            reg.counter(&format!("{p}.failed_shard"), u64::from(f));
            reg.gauge(&format!("{p}.fail_at_us"), self.fail_at_us);
        }
        if let Some(s) = self.spare_shard {
            reg.counter(&format!("{p}.spare_shard"), u64::from(s));
        }
        reg.counter(&format!("{p}.degraded_reads"), self.degraded_reads);
        reg.counter(
            &format!("{p}.degraded_fragment_reads"),
            self.degraded_fragment_reads,
        );
        reg.counter(&format!("{p}.rebuild_pages"), self.rebuild.writes_done);
        reg.counter(&format!("{p}.rebuild_reads"), self.rebuild_reads);
        reg.gauge(&format!("{p}.rebuild_time_us"), self.rebuild.done_at_us);
        reg.counter(&format!("{p}.redirected_writes"), self.redirected_writes);
        reg.counter(&format!("{p}.lost_pages"), self.lost_pages);
        let shards = self
            .per_shard_degraded_reads
            .len()
            .max(self.per_shard_rebuild_reads.len());
        for s in 0..shards {
            let failed = self.failed_shard == Some(s as u32);
            reg.counter(&format!("{prefix}.shard{s}.failed"), u64::from(failed));
            reg.counter(
                &format!("{prefix}.shard{s}.degraded_fragment_reads"),
                self.per_shard_degraded_reads.get(s).copied().unwrap_or(0),
            );
            reg.counter(
                &format!("{prefix}.shard{s}.rebuild_reads"),
                self.per_shard_rebuild_reads.get(s).copied().unwrap_or(0),
            );
        }
    }
}
