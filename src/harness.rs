//! One-call paper experiments: configure, prefill, age, run, report.
//!
//! The paper's evaluation (§6) is one experiment shape — build an FTL,
//! prefill, age, drive a workload, report — so the harness has one
//! value describing an experiment, [`Scenario`], and one way to run it,
//! [`Scenario::run`]. Every feature is an orthogonal field of the
//! scenario (sharded array, QoS front-end, lifetime campaign, sudden
//! power-off, shard failure, telemetry, trace capture), and exactly one
//! field — [`Scenario::workload`] — says where requests come from: a
//! [`TenantMix`] personality per epoch, or a recorded trace.
//! [`Scenario::validate`] names the combinations that are not
//! supported, each with its reason.
//!
//! Every setting a scenario reads is set in exactly one place. The
//! device is [`Scenario::cfg`]: an [`EvalConfig`] holds the simulator
//! platform, the one [`FtlConfig`] every shard is built from (its seed
//! derived per shard) and the background maintenance, which is on
//! exactly when [`EvalConfig::maint`] is `Some`. The QoS front is
//! [`QosSpec::front`], the one [`HostQueueConfig`] every shard's front
//! is built from. The KV engine is [`Scenario::kv`], the one
//! [`KvConfig`] every KV personality's engine is built from.
//!
//! `run` is one pipeline. It prepares the shard list once — a single
//! device is a one-element list seeded with the master seed, an array
//! seeds shard `s` with [`shard_seed`] — and then executes a sequence
//! of *phases* separated by *barriers*:
//!
//! ```text
//! [golden]  per epoch: [age] → main → [fail: redirect + rebuild plan → degraded]
//!                                   → [cut: crash recovery → resumed]
//! drain telemetry / QoS / KV reports in shard order
//! ```
//!
//! Every barrier first gathers the stopped shards' events and sampled
//! series onto the run's one timeline (each phase clock restarts at
//! zero; the gather moves the phase to where it started), so telemetry
//! is a spec like any other: whatever phases a scenario composes, they
//! all export through [`TelemetryOutput`]. Only the golden phase — the
//! untraced reference of the crash experiment — stays off it.
//!
//! A phase hands each shard and its host (request stream or QoS front —
//! the engine does not care which) to the worker pool and collects the
//! reports in shard order. A barrier is a sequence point — every shard
//! has stopped — at which the caller's thread rewrites the shard list:
//! crash recovery after a power cut, the failure redirect and rebuild
//! plan, or a lifetime aging step. Everything a barrier computes is a pure
//! function of the stopped shards, so any scenario is byte-identical at
//! any worker-thread count.

use ftl::{Ftl, FtlConfig, FtlKind, MaintConfig, RecoveryReport};
use hostq::{split_arrival_budget, split_even_budget, HostQueueConfig, HostQueueFront, QosReport};
use kvsim::{KvAppReport, KvConfig, KvEvent, ENTRY_HEADER_BYTES, PAGE_BYTES};
use lifetime::{EpochSummary, LifetimeConfig, LifetimeEngine};
use nand3d::{AgingState, FaultPlan, AMBIENT_CELSIUS_RANGE};
use ssdarray::{
    ArrayReport, ArrayShard, PageRole, ParityRouter, RebuildPlan, ResilienceReport, SsdArray,
};
use ssdsim::detrand::mix64;
use ssdsim::{
    HostFront, HostOp, HostRequest, RebuildOp, RebuildProgress, RebuildSchedule, SimReport,
    SpoEvent, SpoTrigger, SsdConfig, SsdSim,
};
use std::collections::{BTreeMap, BTreeSet};
use telemetry::{
    merge_streams, Collector, EventKind, EventMask, MetricRegistry, SampleRow, Series, TraceEvent,
};
use workloads::{
    build_population, shard_seed, StandardWorkload, TenantMix, TenantProfile, Trace, Workload,
};

/// Scale, length and device of one evaluation run — the one place a
/// scenario's device settings are set.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Host requests to simulate per run.
    pub requests: u64,
    /// Fraction of the logical space written before measuring (drives
    /// realistic GC behaviour).
    pub prefill_fraction: f64,
    /// Ambient-disturbance probability per NAND operation.
    pub disturbance_prob: f64,
    /// Ambient temperature, °C (the paper evaluates at 30 °C).
    pub ambient_celsius: f64,
    /// Workload/process seed; every shard's FTL seed derives from it.
    pub seed: u64,
    /// Host platform parameters. `ssd.chips` must equal `ftl.chips`.
    pub ssd: SsdConfig,
    /// The FTL every shard is built from: its geometry's blocks per
    /// chip (428 reproduces the paper's 32-GB SSD; smaller values
    /// shrink capacity for faster runs), ORT capacity and cluster
    /// (`--ort-capacity`, `--ort-cluster`), retry-chain options
    /// (`--retry-opt`), μ_TH, active blocks, GC threshold. Its `seed`
    /// is derived, not read: a single device takes [`EvalConfig::seed`]
    /// and array shard `s` takes [`shard_seed`] of it.
    pub ftl: FtlConfig,
    /// Optional fault-injection plan, installed after prefill so the
    /// measured run (not the setup phase) sees the injected faults.
    pub faults: Option<FaultPlan>,
    /// Background maintenance (retention scrubbing, wear leveling, OPM
    /// re-monitoring, and the host-priority gap of its dispatch): on
    /// exactly when `Some`. Enabled after prefill so the measured run
    /// interleaves maintenance with host traffic.
    pub maint: Option<MaintConfig>,
}

impl EvalConfig {
    /// The paper-scale configuration (428 blocks/chip ≈ 32 GB).
    pub fn paper() -> Self {
        EvalConfig {
            requests: 200_000,
            prefill_fraction: 0.9,
            disturbance_prob: 0.002,
            ambient_celsius: 30.0,
            seed: 42,
            ssd: SsdConfig::paper(),
            ftl: FtlConfig::paper(),
            faults: None,
            maint: None,
        }
    }

    /// A reduced-scale configuration for figure regeneration on a laptop
    /// (64 blocks/chip ≈ 4.8 GB SSD, same chip/bus topology and FTL
    /// behaviour).
    pub fn reduced() -> Self {
        let mut cfg = EvalConfig {
            requests: 60_000,
            ..EvalConfig::paper()
        };
        cfg.ftl.nand.geometry.blocks_per_chip = 64;
        cfg
    }

    /// A tiny smoke-test configuration (12 blocks/chip) for doc
    /// examples and CI.
    pub fn smoke() -> Self {
        let mut cfg = EvalConfig {
            requests: 2_000,
            prefill_fraction: 0.5,
            disturbance_prob: 0.0,
            ..EvalConfig::paper()
        };
        cfg.ftl.nand.geometry.blocks_per_chip = 12;
        cfg
    }

    /// Blocks per chip of the FTL's geometry.
    pub fn blocks_per_chip(&self) -> u32 {
        self.ftl.nand.geometry.blocks_per_chip
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::paper()
    }
}

/// Telemetry switches of a run. With everything off
/// ([`TelemetrySpec::off`]) the engine stays on its zero-cost path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySpec {
    /// Event categories to trace (`EventMask::NONE` disables tracing).
    pub events: EventMask,
    /// Time-series sampling interval in virtual µs (`None` disables
    /// sampling).
    pub sample_interval_us: Option<f64>,
}

impl TelemetrySpec {
    /// Everything off.
    pub fn off() -> Self {
        TelemetrySpec {
            events: EventMask::NONE,
            sample_interval_us: None,
        }
    }

    /// Everything on: all event categories, one sample every
    /// `interval_us` of virtual time.
    pub fn all(interval_us: f64) -> Self {
        TelemetrySpec {
            events: EventMask::ALL,
            sample_interval_us: Some(interval_us),
        }
    }
}

/// Telemetry artifacts of one run — the only event list and the only
/// series, whatever phases the scenario composed.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOutput {
    /// The merged event trace: per shard and phase, the device-side
    /// stream merged with the FTL-side (and QoS-front) stream in
    /// virtual-time order, phases laid end to end on one timeline with
    /// the barrier events (shard failure, rebuild, aging steps) in
    /// between; shard streams concatenated in shard-id order. KV
    /// maintenance events follow, engine by engine — their `t_us` is
    /// the measured-op ordinal (the KV layer has no device clock).
    pub events: Vec<TraceEvent>,
    /// The sampled time series (empty when sampling was off), shard by
    /// shard: `t_us` is strictly increasing across a shard's phases and
    /// `completed` keeps counting from one phase into the next.
    pub series: Series,
}

/// A sudden power-off on top of a scenario: when the power dies and how
/// often the FTL checkpoints its map before that.
///
/// On a single device the run becomes the double-run crash experiment
/// (an uninterrupted golden phase first); on an array the trigger must
/// be [`SpoTrigger::AtTimeUs`] — the cut hits **every shard at the same
/// virtual instant**, and each shard runs its own crash recovery. With
/// a shard failure injected, the instant counts from the start of the
/// degraded phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoConfig {
    /// When the power dies.
    pub trigger: SpoTrigger,
    /// Checkpoint interval in host WL programs (0 disables periodic
    /// checkpoints; recovery then scans every block).
    pub ckpt_interval_host_wls: u64,
}

impl SpoConfig {
    /// Cut power after `ops` completed host requests, checkpointing
    /// every 64 host WLs (the CLI default).
    pub fn at_ops(ops: u64) -> Self {
        SpoConfig {
            trigger: SpoTrigger::AtOps(ops),
            ckpt_interval_host_wls: 64,
        }
    }
}

/// Scale-out parameters of a sharded-array scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayEvalConfig {
    /// Independent device shards.
    pub shards: usize,
    /// LPN-striping stripe size in pages (trace and failure routing
    /// only; synthetic workloads draw per-shard substreams directly).
    pub stripe_pages: u64,
    /// Worker threads for the engine; 0 means one per shard. Purely a
    /// resource knob — any value yields the same merged report.
    pub threads: usize,
}

impl ArrayEvalConfig {
    /// `shards` shards, 64-page stripes, one thread per shard.
    pub fn new(shards: usize) -> Self {
        ArrayEvalConfig {
            shards,
            stripe_pages: 64,
            threads: 0,
        }
    }
}

/// A whole-shard failure injection: which shard dies, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailSpec {
    /// The shard that fails.
    pub shard: usize,
    /// Virtual time of the failure, µs (must be positive).
    pub at_us: f64,
}

impl FailSpec {
    /// Parses the CLI form `<shard>@<us>` (e.g. `--fail-shard 1@3000`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (shard, at) = s
            .split_once('@')
            .ok_or_else(|| format!("expected <shard>@<us>, got '{s}'"))?;
        let shard = shard
            .trim()
            .parse::<usize>()
            .map_err(|e| format!("bad shard id '{shard}': {e}"))?;
        let at_us = at
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("bad failure time '{at}': {e}"))?;
        if !(at_us > 0.0 && at_us.is_finite()) {
            return Err(format!("failure time must be positive, got {at_us}"));
        }
        Ok(FailSpec { shard, at_us })
    }

    /// A seeded failure plan: the victim shard and the cut instant are
    /// drawn deterministically from `seed` (splitmix64), the instant
    /// landing in the 30–70 % band of `makespan_us` (a probe run's
    /// shortest shard makespan) so the failure reliably hits mid-run.
    pub fn seeded(seed: u64, shards: usize, makespan_us: f64) -> Self {
        let z = mix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let shard = (z % shards.max(1) as u64) as usize;
        let frac = 0.3 + 0.4 * ((z >> 8) % 1000) as f64 / 1000.0;
        FailSpec {
            shard,
            at_us: (makespan_us * frac).max(1.0),
        }
    }
}

/// Array-resilience switches of a sharded scenario: rotating
/// cross-shard parity, whole-shard failure injection, hot spares and
/// the background rebuild pacing. With the spec present the host
/// stream is one global stream routed through the [`ParityRouter`]
/// (with everything off it is plain LPN striping) instead of per-shard
/// substreams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayFailureConfig {
    /// Rotating cross-shard XOR parity (RAID-5-style, one parity stripe
    /// per row).
    pub parity: bool,
    /// Optional whole-shard failure injection.
    pub fail: Option<FailSpec>,
    /// Hot spares provisioned beyond the array (the first absorbs the
    /// rebuild and the dead shard's redirected writes; additional
    /// spares stand by cold).
    pub spare_shards: usize,
    /// Background rebuild pacing (unit size, host-priority gap) — the
    /// rebuild service's own, apart from [`MaintConfig::gap_us`].
    pub rebuild: RebuildSchedule,
}

impl ArrayFailureConfig {
    /// Everything off: plain striping, no failure, no spare.
    pub fn off() -> Self {
        ArrayFailureConfig {
            parity: false,
            fail: None,
            spare_shards: 0,
            rebuild: RebuildSchedule::on(),
        }
    }
}

/// The zero-host-acknowledged-loss audit of one failure-injection run.
///
/// "Array-acknowledged" means both legs of a write were durable at the
/// failure instant: the data page on the (now dead) shard *and* its
/// row's parity page on the surviving parity holder. Pages whose data
/// leg was durable but whose parity leg had not yet landed are counted
/// `unprotected` — a real array would not have acknowledged them to the
/// host, so they are not loss.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureAudit {
    /// Durable data pages on the failed shard at the failure instant
    /// (mapped or PLP-buffered, within the routed region).
    pub durable_data_pages: u64,
    /// Of those, array-acknowledged (parity leg also durable).
    pub acked_pages: u64,
    /// Of those, data-leg-only durable (array had not acked them yet).
    pub unprotected_pages: u64,
    /// Array-acknowledged pages mapped on the spare after the rebuild.
    pub rebuilt_mapped_pages: u64,
    /// Dead-shard requests with no redirect target (reads with parity
    /// off, writes without a spare).
    pub dropped_requests: u64,
    /// Array-acknowledged pages that are neither on the spare nor
    /// reconstructable from survivors — with parity off, every durable
    /// data page. **Must be 0 with parity on.**
    pub lost_pages: u64,
    /// `lost_pages == 0`.
    pub zero_loss: bool,
}

/// Multi-queue QoS front-end switches: the tenant population, and the
/// front every shard runs over its share of it.
///
/// With one queue and one tenant ([`QosSpec::off`], or `--queues 1
/// --tenants 1`) the spec is *not engaged*: every shard is driven by
/// its closed-loop request stream and the other knobs are inert.
#[derive(Debug, Clone, PartialEq)]
pub struct QosSpec {
    /// Tenant population size (`--tenants`).
    pub tenants: u32,
    /// DWRR weight cycle over tenant ids (`--tenant-weights`).
    pub weights: Vec<u32>,
    /// Optional recorded trace replayed by tenant 0 instead of its
    /// synthetic stream (`--qos-trace`; single-device runs only).
    pub trace: Option<Trace>,
    /// The front: queue pairs (`--queues`), per-tenant submission queue
    /// depth (`--qos-sq-depth`), aggregate mean inter-arrival time
    /// (`--qos-arrival-us`), weight-proportional arrival rates (off
    /// under `--qos-equal-arrivals`) and the latency SLOs
    /// (`--qos-slo-read-us`, `--qos-slo-write-us`).
    pub front: HostQueueConfig,
}

impl QosSpec {
    /// The disengaged spec (closed-loop single-stream behaviour).
    pub fn off() -> Self {
        QosSpec {
            tenants: 1,
            weights: vec![1],
            trace: None,
            front: HostQueueConfig::default(),
        }
    }

    /// Whether the multi-queue front-end is engaged.
    pub fn engaged(&self) -> bool {
        self.front.queues > 1 || self.tenants > 1
    }

    /// Splits the run's request budget into per-tenant arrival budgets,
    /// matching the arrival-rate mode.
    fn budgets(&self, total: u64, profiles: &[TenantProfile]) -> Vec<u64> {
        if self.front.weighted_arrivals {
            split_arrival_budget(total, profiles)
        } else {
            split_even_budget(total, profiles.len())
        }
    }

    /// Builds tenant streams over `space` pages (KV tenants run an
    /// engine of shape `kv`), honouring the tenant-0 trace override.
    fn streams(
        &self,
        profiles: &[TenantProfile],
        space: u64,
        kv: KvConfig,
    ) -> Vec<Box<dyn Workload + Send>> {
        profiles
            .iter()
            .map(|p| match (&self.trace, p.id) {
                (Some(trace), 0) => replay(trace.label(), fold_requests(trace.requests(), space)),
                _ => p.mix.build(kv, space, p.seed),
            })
            .collect()
    }
}

/// Registers the app-level results of one KV stream under `prefix`
/// (e.g. `"kv."` or `"kv.shard0."`): raw engine counters, derived
/// gauges (app-WA, p99 page costs) and throughput against the device's
/// virtual clock.
fn register_kv_metrics(
    reg: &mut MetricRegistry,
    prefix: &str,
    app: &KvAppReport,
    sim_time_us: f64,
) {
    let s = &app.stats;
    for (name, value) in [
        ("ops", s.ops),
        ("reads", s.reads),
        ("updates", s.updates),
        ("inserts", s.inserts),
        ("rmws", s.rmws),
        ("read_hits", s.read_hits),
        ("user_bytes", s.user_bytes),
        ("flushes", s.flushes),
        ("compactions", s.compactions),
        ("sst_pages_written", s.sst_pages_written),
        ("compaction_pages_written", s.compaction_pages_written),
        ("compaction_pages_read", s.compaction_pages_read),
        ("wal_pages_written", s.wal_pages_written),
        ("probe_pages_read", s.probe_pages_read),
        ("keys", app.keys),
        ("load_sst_pages", app.load_sst_pages),
        ("compaction_debt_pages", app.compaction_debt_pages),
    ] {
        reg.counter(&format!("{prefix}{name}"), value);
    }
    for (name, value) in [
        ("app_wa", app.app_wa()),
        ("read_p99_pages", app.read_p99_pages as f64),
        ("update_p99_pages", app.update_p99_pages as f64),
        ("ops_per_sec", kv_ops_per_sec(s.ops, sim_time_us)),
    ] {
        reg.gauge(&format!("{prefix}{name}"), value);
    }
}

/// KV throughput: `ops` against `sim_time_us` of the device's virtual
/// clock (0 when no time passed).
pub fn kv_ops_per_sec(ops: u64, sim_time_us: f64) -> f64 {
    if sim_time_us > 0.0 {
        ops as f64 / (sim_time_us / 1e6)
    } else {
        0.0
    }
}

/// Where a scenario's host requests come from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// Generator personalities, seeded per shard and per epoch: epoch
    /// `e` runs phase `e % len`. One phase is the plain case; several
    /// let a lifetime campaign model phase-varying load (e.g. YCSB-A
    /// churn epochs followed by YCSB-C read-back epochs; outside a
    /// campaign only phase 0 runs). KV phases take their engine shape
    /// from [`Scenario::kv`]; with the QoS front-end engaged
    /// every tenant runs the phase's personality.
    Phases(Vec<TenantMix>),
    /// A recorded trace, its LPNs folded into the device's logical
    /// space (modulo the space, spans clamped at its end) — striped
    /// across the shards of an array, replayed whole in every epoch of
    /// a lifetime campaign.
    Trace(Trace),
}

impl WorkloadSource {
    /// Whether any phase runs a KV personality (a [`kvsim`] engine).
    pub fn names_kv(&self) -> bool {
        matches!(self, WorkloadSource::Phases(p)
            if p.iter().any(|mix| matches!(mix, TenantMix::Kv(_))))
    }
}

impl From<TenantMix> for WorkloadSource {
    fn from(mix: TenantMix) -> Self {
        WorkloadSource::Phases(vec![mix])
    }
}

impl From<StandardWorkload> for WorkloadSource {
    fn from(w: StandardWorkload) -> Self {
        TenantMix::Standard(w).into()
    }
}

impl From<&Trace> for WorkloadSource {
    fn from(t: &Trace) -> Self {
        WorkloadSource::Trace(t.clone())
    }
}

impl From<Vec<TenantMix>> for WorkloadSource {
    fn from(phases: Vec<TenantMix>) -> Self {
        WorkloadSource::Phases(phases)
    }
}

/// The largest [`FaultKind::ProgramAbort`](nand3d::FaultKind) rate a
/// scenario may ask for (`--fault-rate abort=RATE`). An aborted WL stays
/// erased but spent, so a high rate eats the over-provisioned space GC
/// lives on. Measured on every `--ftl` kind at `--blocks 16` over seeds
/// 1..8: 0.3 completed every run tried (12 000 OLTP and Mail requests,
/// 3 000 of each workload); 0.4 starves GC at 12 000 OLTP requests and
/// 0.5 at 3 000, and 0.7 and up leave WAM without an active block.
pub const MAX_PROGRAM_ABORT_RATE: f64 = 0.3;

/// The most shards a scenario may ask for (`--shards`). Every shard is
/// a whole device, built and prefilled before the run starts. Measured
/// at 200 requests on a 2-core Xeon: at `--blocks 12` (the smallest
/// device) 64 shards peak at 180 MB RSS and 256 at 707 MB; at the
/// reduced preset's 64 blocks per chip a shard costs about 14.5 MB.
/// Four billion shards ask the allocator for 10 TB up front.
pub const MAX_SHARDS: usize = 256;

/// The largest tenant population a scenario may ask for (`--tenants`).
/// Every tenant holds its own generator, queue and statistics, built
/// before the first arrival. Measured on one device at `--blocks 12
/// --requests 200 --queues 2` on a 2-core Xeon: 10 000 tenants take
/// 15 MB peak RSS and 5.5 s, 100 000 take 100 MB and 55 s (about 1 KB
/// and 0.55 ms per tenant).
pub const MAX_TENANTS: u32 = 100_000;

/// Why a [`Scenario`] cannot run. The messages name the `cubeftl-sim`
/// flag behind each field, since the CLI prints them verbatim. Every
/// rejected *combination* of features gives its reason in one line: it
/// is meaningless, or deferred — the engine (not the telemetry, which
/// has one) needs a timeline across phases and epochs that their
/// zero-restarting virtual clocks lack.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// `WorkloadSource::Phases` with no phase.
    NoPhases,
    /// An array of zero shards.
    NoShards,
    /// An array of more than [`MAX_SHARDS`] shards.
    TooManyShards(usize),
    /// A tenant population above [`MAX_TENANTS`].
    TooManyTenants(u32),
    /// `requests` does not fit this platform's `usize`.
    RequestsOverflow(u64),
    /// The simulator's chips (`cfg.ssd.chips`) are not the chips the
    /// FTL is sized for (`cfg.ftl.chips`).
    ChipsDisagree { ssd: usize, ftl: usize },
    /// The block count per chip is below what GC and the active blocks
    /// need, or the device's pages (all chips) overflow the mapping's
    /// 32-bit page index ([`ftl::FtlConfig::max_blocks_per_chip`]).
    BlocksOutOfRange { blocks: u32, min: u32, max: u32 },
    /// An ambient temperature outside [`nand3d::AMBIENT_CELSIUS_RANGE`].
    TempOutOfRange(f64),
    /// A KV value that, with its entry header, does not fit a device
    /// page (`max` = `kvsim::PAGE_BYTES - kvsim::ENTRY_HEADER_BYTES`).
    KvValueTooLarge { bytes: u32, max: u32 },
    /// A program-abort fault rate above [`MAX_PROGRAM_ABORT_RATE`].
    AbortRateTooHigh(f64),
    /// A series sampling interval finer than any simulated operation:
    /// the sampler emits one row per interval of virtual time, so the
    /// run would not end.
    SampleIntervalTooSmall { interval_us: f64, min_us: f64 },
    /// A cut or failure instant at or before time zero.
    NotAfterTimeZero(&'static str),
    /// The stripe unit exceeds the smallest shard's logical space.
    StripeTooLarge { stripe: u64, local: u64 },
    /// A trace source with the QoS front-end engaged.
    /// Meaningless: one stream has no tenants; [`QosSpec::trace`] is tenant 0's.
    TraceWithQos,
    /// The QoS front-end with a power cut.
    /// Deferred (phase timeline): queued arrivals would cross the cut.
    QosWithSpo,
    /// The tenant-0 trace override on an array.
    /// Deferred: the override folds into one device's space, not a striped one.
    TenantTraceOnArray,
    /// Fewer tenants than shards: some shard's front would be empty.
    FewerTenantsThanShards,
    /// More queue pairs than tenants: a queue no tenant maps to is never
    /// scheduled.
    MoreQueuesThanTenants,
    /// A failure spec without an array of at least two shards.
    ResilienceNeedsArray,
    /// The failed shard is not in the array.
    FailedShardOutOfRange { shard: usize, shards: usize },
    /// A failure spec with the QoS front-end engaged.
    /// Deferred (phase timeline): arrivals would cross into the degraded phase.
    ResilienceWithQos,
    /// Trace capture on an array.
    /// Meaningless: a capture is the one stream a single device replays.
    CaptureOnArray,
    /// Trace capture with a front-end, cut, failure or campaign.
    /// Deferred (phase timeline): the recorder covers one phase's streams.
    CaptureMode,
    /// A lifetime campaign with a power cut.
    /// Deferred (epoch timeline): the cut needs an instant on it.
    LifetimeWithSpo,
    /// A lifetime campaign with the QoS front-end.
    /// Deferred (epoch timeline): fronts and their clocks are rebuilt per epoch.
    LifetimeWithQos,
    /// A lifetime campaign with a failure spec.
    /// Deferred (epoch timeline): the failure needs an instant on it.
    LifetimeWithResilience,
    /// A power cut on an array that is not an `AtTimeUs` instant.
    ArraySpoNeedsInstant,
    /// A replayed trace holds a write the device's buffer can never
    /// accept: request `index` of the replay stream built from the
    /// `source` flag's file.
    OversizedWrite {
        source: &'static str,
        pages: u32,
        buffer: usize,
        index: usize,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ScenarioError::*;
        match self {
            NoPhases => f.write_str("need at least one workload phase"),
            NoShards => f.write_str("need at least one shard"),
            TooManyShards(n) => write!(
                f,
                "--shards {n}: every shard is a whole device built up front; \
                 use at most {MAX_SHARDS}"
            ),
            TooManyTenants(n) => write!(
                f,
                "--tenants {n}: every tenant's generator and queue are built up front; \
                 use at most {MAX_TENANTS}"
            ),
            RequestsOverflow(n) => write!(f, "{n} requests do not fit this platform's usize"),
            ChipsDisagree { ssd, ftl } => write!(
                f,
                "the SSD has {ssd} chips but the FTL is sized for {ftl}: \
                 give cfg.ssd.chips and cfg.ftl.chips one count"
            ),
            BlocksOutOfRange { blocks, min, max } => write!(
                f,
                "{blocks} blocks per chip is out of range: this configuration takes {min} to {max}"
            ),
            TempOutOfRange(celsius) => write!(
                f,
                "--temp {celsius} is outside the operating range: use {} to {} °C",
                AMBIENT_CELSIUS_RANGE.start(),
                AMBIENT_CELSIUS_RANGE.end()
            ),
            KvValueTooLarge { bytes, max } => write!(
                f,
                "--kv-value-bytes {bytes} does not fit a page: use at most {max}"
            ),
            AbortRateTooHigh(rate) => write!(
                f,
                "--fault-rate abort={rate} is more than the device can absorb: \
                 use at most {MAX_PROGRAM_ABORT_RATE}"
            ),
            SampleIntervalTooSmall {
                interval_us,
                min_us,
            } => write!(
                f,
                "--sample-interval-us {interval_us} is finer than any simulated operation: \
                 use at least {min_us}"
            ),
            NotAfterTimeZero(what) => write!(f, "{what} must be after time zero"),
            StripeTooLarge { stripe, local } => write!(
                f,
                "stripe of {stripe} pages exceeds the shard-local space of {local} pages"
            ),
            TraceWithQos => f.write_str(
                "--trace-file replays a single closed-loop stream; with the QoS \
                 front-end use --qos-trace PATH (replayed as tenant 0)",
            ),
            QosWithSpo => {
                f.write_str("the QoS front-end cannot be combined with a sudden power-off")
            }
            TenantTraceOnArray => f.write_str("--qos-trace replays on one device: drop --shards"),
            FewerTenantsThanShards => {
                f.write_str("every shard needs a tenant: use --tenants >= --shards")
            }
            MoreQueuesThanTenants => {
                f.write_str("every queue pair needs a tenant: use --queues <= --tenants")
            }
            ResilienceNeedsArray => f.write_str(
                "array resilience flags (--array-parity/--fail-shard/--fail-seed/\
                 --spare-shards/--rebuild-*) need an array: pass --shards > 1",
            ),
            FailedShardOutOfRange { shard, shards } => {
                write!(f, "--fail-shard {shard}: the array has shards 0..{shards}")
            }
            ResilienceWithQos => {
                f.write_str("array resilience cannot be combined with the QoS front-end")
            }
            CaptureOnArray => {
                f.write_str("--capture-trace-out records one device's stream: drop --shards")
            }
            CaptureMode => f.write_str(
                "--capture-trace-out is only available in the standard \
                 single-device run modes (synthetic, --kv, or --trace-file replay)",
            ),
            LifetimeWithSpo => {
                f.write_str("a lifetime campaign cannot be combined with a sudden power-off")
            }
            LifetimeWithQos => {
                f.write_str("a lifetime campaign cannot be combined with the QoS front-end")
            }
            LifetimeWithResilience => {
                f.write_str("a lifetime campaign cannot be combined with array resilience")
            }
            ArraySpoNeedsInstant => f.write_str(
                "--shards cuts the whole array at one virtual instant: \
                 use --spo-at-us (not --spo-at or --spo-rate)",
            ),
            OversizedWrite {
                source,
                pages,
                buffer,
                index,
            } => write!(
                f,
                "{source}: write of {pages} pages exceeds the {buffer}-page write buffer \
                 (request {index})"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One experiment: an FTL on a device (or array) of a given age, the
/// one workload source, and the orthogonal feature specs. Build one with
/// [`Scenario::new`] and set the fields the experiment needs; see the
/// module docs for how [`Scenario::run`] executes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The FTL under test.
    pub kind: FtlKind,
    /// The pre-baked aging state the device starts from.
    pub aging: AgingState,
    /// Scale, length, seed and the device: simulator, FTL (the hook for
    /// ablation studies — μ_TH sweeps, active-block counts, …), faults
    /// and maintenance.
    pub cfg: EvalConfig,
    /// Where host requests come from — the only field that names a
    /// generator.
    pub workload: WorkloadSource,
    /// Sharded array; `None` = one device seeded with the master seed.
    pub array: Option<ArrayEvalConfig>,
    /// Multi-queue QoS front-end (open-loop tenants instead of the
    /// closed-loop stream, when engaged).
    pub qos: QosSpec,
    /// Engine shape of the workload's KV personalities
    /// ([`KvConfig::default_shape`] unless set); inert when the
    /// workload names none.
    pub kv: KvConfig,
    /// Fast-forward aging campaign: `epochs` workload epochs separated
    /// by aging barriers.
    pub lifetime: Option<LifetimeConfig>,
    /// Sudden power-off, crash recovery and resume.
    pub spo: Option<SpoConfig>,
    /// Array resilience: parity routing, shard failure, rebuild.
    pub failure: Option<ArrayFailureConfig>,
    /// Device/FTL/front telemetry, armed after prefill so the trace
    /// covers exactly the measured run.
    pub telemetry: TelemetrySpec,
    /// Record the device-level request stream as a replayable trace
    /// (single device only). The recorder only observes.
    pub capture: bool,
}

/// Which step of the pipeline a [`PhaseReport`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The uninterrupted reference run of a single-device power-cut
    /// experiment (same seed, stream and checkpoint cadence, no cut).
    Golden,
    /// The first measured phase of an epoch: the whole run, or the part
    /// up to the power cut or the shard failure.
    Main,
    /// Survivors plus the spare after a shard failure.
    Degraded,
    /// The workload remainder after crash recovery.
    Resumed,
}

/// Reports of one executed phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// The pipeline step.
    pub phase: Phase,
    /// The array-wide report (shard-order fan-in; over one shard for a
    /// single device).
    pub merged: ArrayReport,
    /// Per-shard reports, in shard order.
    pub shards: Vec<SimReport>,
}

/// The crash-recovery part of a run with a power cut armed. Vectors
/// are indexed by position in the phase that was cut.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// Device state at the cut per shard (`None` where the trigger
    /// never fired — e.g. the shard drained first).
    pub events: Vec<Option<SpoEvent>>,
    /// What boot-time recovery did per shard (`None` where no cut
    /// landed).
    pub recoveries: Vec<Option<RecoveryReport>>,
    /// Host-acknowledged `(shard id, local LPN)` pairs that were mapped
    /// (or PLP-buffer-resident) at the cut but unmapped after recovery.
    /// **Must be empty** — any entry is host-visible data loss.
    pub lost_lpns: Vec<(usize, u64)>,
    /// Checkpoints taken across all shards before the cut.
    pub checkpoints_taken: u64,
    /// Total blocks across all shards (bounds the recovery scan cost).
    pub total_blocks: u64,
}

impl CrashReport {
    /// Shards whose trigger fired.
    pub fn shards_cut(&self) -> usize {
        self.events.iter().flatten().count()
    }
}

/// The resilience part of a run with an [`ArrayFailureConfig`].
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Resilience counters (degraded reads, rebuild traffic, loss).
    pub resilience: ResilienceReport,
    /// The spare's combined rebuild progress (reads/writes/curve).
    pub rebuild: RebuildProgress,
    /// The zero-loss audit.
    pub audit: FailureAudit,
}

/// The aging part of a lifetime campaign.
#[derive(Debug, Clone, Default)]
pub struct AgingReport {
    /// Per-step, per-shard aging summaries (`summaries[k][s]` is shard
    /// `s` of the step between epoch `k` and epoch `k + 1`).
    pub summaries: Vec<Vec<EpochSummary>>,
}

/// The application-level part of a run whose (last) epoch ran KV
/// engines.
#[derive(Debug, Clone, Default)]
pub struct KvReport {
    /// App-level results per engine: in shard order, or in tenant-id
    /// order under the QoS front-end (one engine per tenant). A failure
    /// run has the one engine behind its routed global stream.
    pub apps: Vec<KvAppReport>,
    /// What `apps` counts engines in: `"tenant"` under the QoS
    /// front-end, `"shard"` on an array, `None` for the single
    /// anonymous engine of one device or of a failure run's global
    /// stream.
    pub unit: Option<&'static str>,
}

/// Everything one [`Scenario::run`] produced: the executed phases in
/// order, plus one optional part per engaged feature.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Reports of the executed phases, in execution order. FTL counters
    /// are reset at each epoch boundary, so every epoch's reports cover
    /// exactly that epoch.
    pub phases: Vec<PhaseReport>,
    /// Device telemetry (empty with [`TelemetrySpec::off`]).
    pub telemetry: TelemetryOutput,
    /// Crash recovery, when a power cut was armed.
    pub crash: Option<CrashReport>,
    /// Resilience counters and audit, with a failure spec.
    pub failure: Option<FailureReport>,
    /// Aging steps, in a lifetime campaign.
    pub aging: Option<AgingReport>,
    /// Per-tenant outcomes, with the QoS front-end engaged.
    pub qos: Option<QosReport>,
    /// App-level results, when KV engines ran.
    pub kv: Option<KvReport>,
    /// The captured device-level request stream, when capture was on.
    pub captured: Option<Trace>,
}

impl RunOutput {
    /// The first phase of kind `phase`, if one ran.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// The main phase of every epoch (one entry outside a campaign).
    pub fn epochs(&self) -> impl Iterator<Item = &PhaseReport> {
        self.phases.iter().filter(|p| p.phase == Phase::Main)
    }

    /// The array-wide report of the (first) main phase.
    pub fn merged(&self) -> &ArrayReport {
        &self.main_phase().merged
    }

    /// The device report of the (first) main phase — shard 0's on an
    /// array.
    pub fn sim(&self) -> &SimReport {
        &self.main_phase().shards[0]
    }

    /// [`RunOutput::sim`] by value.
    pub fn into_sim(mut self) -> SimReport {
        let at = self.phases.iter().position(|p| p.phase == Phase::Main);
        self.phases
            .swap_remove(at.expect("every run has a main phase"))
            .shards
            .swap_remove(0)
    }

    fn main_phase(&self) -> &PhaseReport {
        self.phase(Phase::Main).expect("every run has a main phase")
    }

    /// The end-of-run metric registry of this run of `sc` — what
    /// `--metrics-out` writes. One rule names the phases: a main phase
    /// registers under `ssd` (a device) or `array`, a degraded one
    /// under `degraded`, a resumed one under `resumed`, each with
    /// `epoch{e}.` in front inside a lifetime campaign; the golden
    /// reference never registers. Beside them: the KV engines (`kv.*`,
    /// counted per [`KvReport::unit`]), the QoS front and the
    /// resilience counters.
    pub fn metrics(&self, sc: &Scenario) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        let mut epochs = 0;
        // The engines ran from the last main phase on (a campaign
        // builds fresh ones per epoch).
        let mut engine_time_us = 0.0;
        for p in &self.phases {
            // One device's main phase registers its `SimReport`.
            let device = p.phase == Phase::Main && sc.array.is_none();
            let name = match p.phase {
                Phase::Golden => continue,
                Phase::Main if device => "ssd",
                Phase::Main => "array",
                Phase::Degraded => "degraded",
                Phase::Resumed => "resumed",
            };
            if p.phase == Phase::Main {
                (epochs, engine_time_us) = (epochs + 1, 0.0);
            }
            engine_time_us += p.merged.sim_time_us;
            let name = match sc.lifetime {
                Some(_) => format!("epoch{}.{name}", epochs - 1),
                None => name.to_owned(),
            };
            if device {
                p.shards[0].register_metrics(&mut reg, &name);
            } else {
                p.merged.register_metrics(&mut reg, &name);
            }
        }
        if let Some(kv) = &self.kv {
            for (i, app) in kv.apps.iter().enumerate() {
                let prefix = kv.unit.map_or("kv.".to_owned(), |u| format!("kv.{u}{i}."));
                register_kv_metrics(&mut reg, &prefix, app, engine_time_us);
            }
        }
        if let Some(qos) = &self.qos {
            qos.register_metrics(&mut reg);
        }
        if let Some(f) = &self.failure {
            f.resilience.register_metrics(&mut reg, "array");
        }
        reg
    }

    /// Read retries per completed read of epoch `e` — a campaign's
    /// headline drift metric.
    pub fn retry_rate(&self, e: usize) -> f64 {
        let m = &self.epochs().nth(e).expect("epoch ran").merged;
        if m.reads == 0 {
            0.0
        } else {
            m.ftl.read_retries as f64 / m.reads as f64
        }
    }
}

/// Folds a trace's LPNs into `logical_pages` (modulo the space, spans
/// clamped at its end) so any recorded trace replays on any geometry.
fn fold_requests(requests: &[HostRequest], logical_pages: u64) -> Vec<HostRequest> {
    requests
        .iter()
        .map(|r| {
            let lpn = r.lpn % logical_pages;
            let span = u64::from(r.n_pages).min(logical_pages - lpn);
            HostRequest {
                op: r.op,
                lpn,
                n_pages: u32::try_from(span).expect("span fits"),
            }
        })
        .collect()
}

/// A closed-loop replay of `requests` under `label`.
fn replay(label: &str, requests: Vec<HostRequest>) -> Box<dyn Workload + Send> {
    Box::new(Trace::from_requests(label, requests).into_replay())
}

/// Rejects a replay stream holding a write larger than the device's
/// `buffer`-page write buffer — recorded volumes contain multi-megabyte
/// writes, and the engine can only assert on one.
fn check_writes(
    source: &'static str,
    requests: &[HostRequest],
    buffer: usize,
) -> Result<(), ScenarioError> {
    let oversized = |r: &HostRequest| r.op == HostOp::Write && r.n_pages as usize > buffer;
    match requests.iter().position(oversized) {
        Some(index) => Err(ScenarioError::OversizedWrite {
            source,
            pages: requests[index].n_pages,
            buffer,
            index,
        }),
        None => Ok(()),
    }
}

/// Per-epoch seed of a workload stream. Epoch 0 uses the master seed
/// unchanged — a one-epoch run is the plain run — and later epochs draw
/// fresh domain-separated substreams, so the device does not replay the
/// identical request sequence at every age.
fn epoch_seed(seed: u64, epoch: u32) -> u64 {
    if epoch == 0 {
        seed
    } else {
        // Domain separator: ASCII "LIFETIME".
        shard_seed(seed ^ 0x4C49_4645_5449_4D45, epoch as usize)
    }
}

/// Sums two [`RebuildProgress`] snapshots from consecutive phases,
/// shifting the second phase's timestamps by `offset_us`.
fn combine_progress(a: &RebuildProgress, b: &RebuildProgress, offset_us: f64) -> RebuildProgress {
    let mut curve = a.curve.clone();
    curve.extend(
        b.curve
            .iter()
            .map(|&(t, n)| (offset_us + t, a.ops_done() + n)),
    );
    RebuildProgress {
        reads_done: a.reads_done + b.reads_done,
        writes_done: a.writes_done + b.writes_done,
        skipped: a.skipped + b.skipped,
        done_at_us: if b.ops_done() > 0 || b.done_at_us > 0.0 {
            offset_us + b.done_at_us
        } else {
            a.done_at_us
        },
        curve,
    }
}

/// Converts the engine's maintenance log into shard-tagged trace events
/// under `mask` (timestamp = measured-op ordinal; the KV layer has no
/// device clock).
fn kv_trace_events(events: &[KvEvent], mask: EventMask, shard: u32) -> Vec<TraceEvent> {
    let mut c = Collector::enabled(mask, shard);
    for e in events {
        c.emit(
            e.op_index as f64,
            EventKind::KvMaint {
                op_index: e.op_index,
                action: e.action,
                level: e.level,
                pages_in: e.pages_in,
                pages_out: e.pages_out,
            },
        );
    }
    c.take()
}

/// Every LPN of `ftl` that is durable at a power cut: mapped in the
/// FTL, or resident in the PLP-protected buffer dump.
fn durable_ledger(ftl: &Ftl, event: &SpoEvent) -> Vec<u64> {
    let mut durable: Vec<u64> = (0..ftl.logical_pages())
        .filter(|&l| ftl.is_mapped(l))
        .collect();
    durable.extend(event.buffered_lpns.iter().copied());
    durable.sort_unstable();
    durable.dedup();
    durable
}

/// One closed-loop shard's request stream, optionally recording every
/// yielded request for [`Scenario::capture`].
struct Stream {
    src: Box<dyn Workload + Send>,
    recorded: Option<Vec<HostRequest>>,
}

impl Stream {
    fn new(src: Box<dyn Workload + Send>, capture: bool) -> Self {
        Stream {
            src,
            recorded: capture.then(Vec::new),
        }
    }
}

impl Iterator for Stream {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        let req = self.src.next();
        if let (Some(rec), Some(r)) = (&mut self.recorded, req) {
            rec.push(r);
        }
        req
    }
}

/// The host side of the shard list: closed-loop streams or QoS fronts.
enum Hosts {
    Streams(Vec<Stream>),
    Fronts(Vec<HostQueueFront>),
}

/// What the shard list runs next: every shard's host side and request
/// budget. With a failure spec `routed` keeps the global stream in
/// issue order as `(shard, fragment)` pairs — the failure barrier
/// redirects its unissued remainder — and `global` the generator it
/// was drawn from.
struct Load {
    hosts: Hosts,
    budgets: Vec<u64>,
    routed: Vec<(usize, HostRequest)>,
    global: Option<Box<dyn Workload + Send>>,
}

impl Load {
    /// `hosts` under `budgets`, nothing routed.
    fn new(hosts: Hosts, budgets: Vec<u64>) -> Self {
        Load {
            hosts,
            budgets,
            routed: Vec::new(),
            global: None,
        }
    }

    /// Closed-loop replay of one pre-routed request list per shard.
    fn replay(label: &str, per_shard: Vec<Vec<HostRequest>>, capture: bool) -> Self {
        let budgets = per_shard.iter().map(|v| v.len() as u64).collect();
        let streams = per_shard
            .into_iter()
            .map(|v| Stream::new(replay(label, v), capture))
            .collect();
        Load::new(Hosts::Streams(streams), budgets)
    }

    /// Runs `phase` of `sc` over `devs` with this load's host list,
    /// whichever kind it holds ([`Scenario::exec`]).
    fn run(
        &mut self,
        sc: &Scenario,
        phase: Phase,
        devs: &mut Vec<Dev>,
        spo: Option<SpoTrigger>,
        plans: Option<Vec<Option<RebuildPlan>>>,
    ) -> (PhaseReport, Vec<Option<SpoEvent>>) {
        match &mut self.hosts {
            Hosts::Streams(h) => sc.exec(phase, devs, h, &self.budgets, spo, plans),
            Hosts::Fronts(h) => sc.exec(phase, devs, h, &self.budgets, spo, plans),
        }
    }
}

/// One prepared shard between phases.
struct Dev {
    /// Shard id: seed index and telemetry tag (a hot spare takes the
    /// first id past the array).
    id: usize,
    sim: SsdSim,
    ftl: Ftl,
    /// Pages written by the prefill.
    prefill: u64,
}

impl Dev {
    /// The address space the shard's generators draw from.
    fn space(&self) -> u64 {
        self.prefill.max(1024)
    }
}

/// What the failure barrier hands to the final audit.
struct FailureState {
    fail: FailSpec,
    router: ParityRouter,
    spare: Option<usize>,
    durable_data: Vec<u64>,
    acked: Vec<u64>,
    degraded_reads: u64,
    degraded_fragment_reads: u64,
    per_shard_degraded_reads: Vec<u64>,
    redirected_writes: u64,
    dropped_requests: u64,
    degraded_read_events: Vec<(u64, u32)>,
    /// Rebuild progress per degraded-phase participant, and that
    /// phase's makespan (the resumed phase's clock offset).
    progress: Vec<RebuildProgress>,
    offset_us: f64,
}

impl Scenario {
    /// A plain single-device scenario: every feature spec off.
    pub fn new(
        kind: FtlKind,
        workload: impl Into<WorkloadSource>,
        aging: AgingState,
        cfg: &EvalConfig,
    ) -> Self {
        Scenario {
            kind,
            aging,
            cfg: cfg.clone(),
            workload: workload.into(),
            array: None,
            qos: QosSpec::off(),
            kv: KvConfig::default_shape(),
            lifetime: None,
            spo: None,
            failure: None,
            telemetry: TelemetrySpec::off(),
            capture: false,
        }
    }

    /// Checks the scenario for unsupported combinations and
    /// out-of-range values, in the order the CLI reports them.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        use ScenarioError::*;
        let check = |bad: bool, e: ScenarioError| if bad { Err(e) } else { Ok(()) };
        let trace = matches!(self.workload, WorkloadSource::Trace(_));
        let campaign = self.lifetime.is_some();
        let qos = self.qos.engaged();
        let shards = self.array.map(|a| a.shards);
        let not_positive = |t: f64| t <= 0.0 || t.is_nan();

        check(shards == Some(0), NoShards)?;
        if let Some(n) = shards.filter(|&n| n > MAX_SHARDS) {
            return Err(TooManyShards(n));
        }
        check(
            matches!(&self.workload, WorkloadSource::Phases(p) if p.is_empty()),
            NoPhases,
        )?;
        usize::try_from(self.cfg.requests).map_err(|_| RequestsOverflow(self.cfg.requests))?;
        let ftl = &self.cfg.ftl;
        let (ssd, chips) = (self.cfg.ssd.chips, ftl.chips);
        check(ssd != chips, ChipsDisagree { ssd, ftl: chips })?;
        let g = ftl.nand.geometry;
        // GC must keep its free-block threshold and the open blocks
        // aside and still have closed blocks to collect.
        let reserved = ftl.gc_free_block_threshold.max(ftl.active_blocks_per_chip) as u32;
        let (blocks, min, max) = (
            g.blocks_per_chip,
            2 * reserved + 2,
            ftl.max_blocks_per_chip(),
        );
        check(
            !(min..=max).contains(&blocks),
            BlocksOutOfRange { blocks, min, max },
        )?;
        let celsius = self.cfg.ambient_celsius;
        let in_range = AMBIENT_CELSIUS_RANGE.contains(&celsius);
        check(!in_range, TempOutOfRange(celsius))?;
        let (bytes, max) = (self.kv.value_bytes, PAGE_BYTES - ENTRY_HEADER_BYTES);
        let too_large = self.workload.names_kv() && bytes > max;
        check(too_large, KvValueTooLarge { bytes, max })?;
        let abort = self.cfg.faults.as_ref().map_or(0.0, |f| f.abort_rate);
        check(abort > MAX_PROGRAM_ABORT_RATE, AbortRateTooHigh(abort))?;
        if let Some(interval_us) = self.telemetry.sample_interval_us {
            // 1 µs: below the shortest simulated operation.
            let min_us = 1.0;
            let too_small = SampleIntervalTooSmall {
                interval_us,
                min_us,
            };
            check(interval_us.is_nan() || interval_us < min_us, too_small)?;
        }
        if qos {
            let tenants = self.qos.tenants;
            check(tenants > MAX_TENANTS, TooManyTenants(tenants))?;
            check(trace, TraceWithQos)?;
            check(self.spo.is_some(), QosWithSpo)?;
            if let Some(n) = shards {
                check(self.qos.trace.is_some(), TenantTraceOnArray)?;
                check((tenants as usize) < n, FewerTenantsThanShards)?;
            }
            check(self.qos.front.queues > tenants, MoreQueuesThanTenants)?;
        }
        if let Some(fc) = &self.failure {
            let n = shards.filter(|&n| n > 1).ok_or(ResilienceNeedsArray)?;
            if let Some(f) = fc.fail {
                check(
                    f.shard >= n,
                    FailedShardOutOfRange {
                        shard: f.shard,
                        shards: n,
                    },
                )?;
                check(not_positive(f.at_us), NotAfterTimeZero("the failure"))?;
            }
            check(qos, ResilienceWithQos)?;
        }
        if self.capture {
            check(shards.is_some(), CaptureOnArray)?;
            check(
                qos || self.spo.is_some() || self.failure.is_some() || campaign,
                CaptureMode,
            )?;
        }
        if campaign {
            check(self.spo.is_some(), LifetimeWithSpo)?;
            check(qos, LifetimeWithQos)?;
            check(self.failure.is_some(), LifetimeWithResilience)?;
        }
        if let Some(spo) = &self.spo {
            match spo.trigger {
                SpoTrigger::AtTimeUs(t) => check(not_positive(t), NotAfterTimeZero("the cut"))?,
                _ => check(shards.is_some(), ArraySpoNeedsInstant)?,
            }
        }
        Ok(())
    }

    /// Runs the scenario. Fully deterministic for a given value, at any
    /// worker-thread count; see the module docs for the pipeline.
    pub fn run(&self) -> Result<RunOutput, ScenarioError> {
        self.validate()?;
        let mut out = RunOutput {
            crash: self.spo.map(|_| CrashReport::default()),
            aging: self.lifetime.map(|_| AgingReport::default()),
            ..RunOutput::default()
        };
        if self.spo.is_some() && self.array.is_none() {
            // The double-run crash experiment: an identically prepared
            // device runs the same stream uninterrupted first — the
            // untraced reference, not part of the run's timeline.
            let mut devs = self.prepare(TelemetrySpec::off());
            let mut load = self.load(&devs, 0)?;
            let golden = load.run(self, Phase::Golden, &mut devs, None, None);
            out.phases.push(golden.0);
        }

        let mut devs = self.prepare(self.telemetry);
        // One aging engine per shard, seeded from the shard id: shard
        // campaigns are independent, so neither the fan-out order nor
        // the thread count can matter.
        let mut engines: Vec<LifetimeEngine> = match self.lifetime {
            Some(life) => devs
                .iter()
                .map(|d| {
                    LifetimeEngine::new(LifetimeConfig {
                        seed: self.seed_for(life.seed, d.id),
                        ..life
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        let mut load = self.load(&devs, 0)?;
        // Every phase clock restarts at zero and `run_begin` resets the
        // simulator's collector and sampler, so each phase is gathered
        // onto the timeline before the next one runs, and at the drain.
        let mut line = Timeline {
            mask: self.telemetry.events,
            ..Timeline::default()
        };
        let mut t_offset = 0.0;
        for epoch in 0..self.lifetime.map_or(1, |l| l.epochs.max(1)) {
            if let (Some(aging), true) = (&mut out.aging, epoch > 0) {
                line.gather(&mut devs, &mut load.hosts, &out.phases);
                line.start_us = t_offset;
                let step = age(&mut devs, &mut engines, epoch, &mut line);
                aging.summaries.push(step);
                load = self.load(&devs, epoch)?;
            }
            let fail = self.failure.and_then(|fc| fc.fail);
            let cut = self.spo.map(|s| s.trigger);
            // With a failure spec the main phase stops at the failure
            // instant, and the cut belongs to the degraded phase.
            let (stop, mut cut_armed) = match &self.failure {
                Some(_) => (fail.map(|f| SpoTrigger::AtTimeUs(f.at_us)), false),
                None => (cut, true),
            };
            let (main, mut events) = load.run(self, Phase::Main, &mut devs, stop, None);
            let mut span = main.merged.sim_time_us;
            t_offset += span;
            out.phases.push(main);

            let mut failure = None;
            if let Some(fail) = fail {
                // The dead shard leaves at the barrier, its events with it.
                line.gather(&mut devs, &mut load.hosts, &out.phases);
                let (mut state, plans) = self.fail_barrier(fail, &mut devs, &mut load, &events);
                let (degraded, cut_events) =
                    load.run(self, Phase::Degraded, &mut devs, cut, Some(plans));
                (line.start_us, span) = (fail.at_us, degraded.merged.sim_time_us);
                state.offset_us = span;
                state.progress = rebuild_progress(&devs);
                out.phases.push(degraded);
                (events, cut_armed) = (cut_events, true);
                failure = Some(state);
            }
            let mut resumed_progress = vec![RebuildProgress::default(); devs.len()];
            if let (Some(crash), true) = (&mut out.crash, cut_armed) {
                // Recovery stamps its events on the clock of the phase
                // it cut, so they are gathered with that phase.
                let plans = self.recover(&mut devs, &events, &mut load.budgets, crash);
                crash.events = events;
                if load.budgets.iter().any(|&b| b > 0) || plans.iter().any(Option::is_some) {
                    line.gather(&mut devs, &mut load.hosts, &out.phases);
                    line.start_us += span;
                    let resumed = load.run(self, Phase::Resumed, &mut devs, None, Some(plans));
                    out.phases.push(resumed.0);
                    resumed_progress = rebuild_progress(&devs);
                }
            }
            if let Some(fc) = &self.failure {
                out.failure = Some(match failure {
                    Some(state) => state.audit(fc.parity, &devs, &resumed_progress, &mut line),
                    None => FailureReport {
                        resilience: ResilienceReport {
                            parity: fc.parity,
                            ..ResilienceReport::default()
                        },
                        audit: FailureAudit {
                            zero_loss: true,
                            ..FailureAudit::default()
                        },
                        ..FailureReport::default()
                    },
                });
            }
        }
        self.drain(&mut devs, load, line, &mut out);
        Ok(out)
    }

    /// Shard `s`'s seed under master seed `base`: the master seed
    /// itself on a single device, [`shard_seed`] on an array.
    fn seed_for(&self, base: u64, s: usize) -> u64 {
        if self.array.is_some() {
            shard_seed(base, s)
        } else {
            base
        }
    }

    /// Worker threads of the engine (an array's `threads`, where 0
    /// means one per shard).
    pub fn threads(&self) -> usize {
        match self.array {
            Some(a) if a.threads == 0 => a.shards,
            Some(a) => a.threads,
            None => 1,
        }
    }

    /// Builds every shard: device simulator and prefilled FTL, with
    /// `tel` armed.
    fn prepare(&self, tel: TelemetrySpec) -> Vec<Dev> {
        (0..self.array.map_or(1, |a| a.shards))
            .map(|s| self.prepare_dev(s, self.cfg.prefill_fraction, tel))
            .collect()
    }

    /// One fully prepared shard, seeded from the master seed and the
    /// shard id, prefilled to `prefill_fraction` of its logical space.
    fn prepare_dev(&self, id: usize, prefill_fraction: f64, tel: TelemetrySpec) -> Dev {
        let cfg = &self.cfg;
        let mut sim = SsdSim::new(cfg.ssd);
        let seed = self.seed_for(cfg.seed, id);
        let mut ftl = Ftl::new(self.kind, FtlConfig { seed, ..cfg.ftl });
        ftl.set_aging(self.aging);
        ftl.set_ambient_celsius(cfg.ambient_celsius);
        let prefill = (ftl.logical_pages() as f64 * prefill_fraction) as u64;
        sim.prefill(&mut ftl, 0..prefill);
        ftl.set_disturbance_prob(cfg.disturbance_prob);
        if let Some(plan) = &cfg.faults {
            ftl.set_fault_plan(plan);
        }
        if let Some(maint) = cfg.maint {
            ftl.enable_maintenance(maint);
            sim.enable_maintenance(maint.gap_us);
        }
        if let Some(spo) = &self.spo {
            ftl.enable_checkpointing(spo.ckpt_interval_host_wls);
        }
        if self.lifetime.is_some_and(|l| l.steps() > 0) {
            ftl.enable_lifetime_aging();
        }
        ftl.reset_stats();
        // Arm telemetry only now: prefill runs at t = 0 and would
        // otherwise flood the trace with setup writes outside the
        // measured window.
        sim.enable_telemetry(tel.events, id as u32, tel.sample_interval_us);
        ftl.enable_telemetry(tel.events, id as u32);
        Dev {
            id,
            sim,
            ftl,
            prefill,
        }
    }

    /// The stream of one shard for `epoch` over `space` pages.
    fn source(&self, epoch: u32, space: u64, seed: u64) -> Box<dyn Workload + Send> {
        match &self.workload {
            WorkloadSource::Phases(phases) => {
                phases[epoch as usize % phases.len()].build(self.kv, space, seed)
            }
            WorkloadSource::Trace(t) => replay(t.label(), fold_requests(t.requests(), space)),
        }
    }

    /// The routed region of an array: whole stripes of the smallest
    /// shard, so no fragment can overflow its device. Returns
    /// `(stripes per shard, stripe pages)`.
    fn stripes(&self, devs: &[Dev]) -> Result<(u64, u64), ScenarioError> {
        let stripe = self.array.map_or(1, |a| a.stripe_pages);
        let local = devs
            .iter()
            .map(|d| d.ftl.logical_pages())
            .min()
            .unwrap_or(0);
        if stripe == 0 || local / stripe == 0 {
            return Err(ScenarioError::StripeTooLarge { stripe, local });
        }
        Ok((local / stripe, stripe))
    }

    /// Builds what the shard list runs in `epoch`.
    fn load(&self, devs: &[Dev], epoch: u32) -> Result<Load, ScenarioError> {
        let cfg = &self.cfg;
        let n = devs.len();
        let seed = epoch_seed(cfg.seed, epoch);
        Ok(match (&self.workload, &self.failure) {
            (WorkloadSource::Phases(phases), _) if self.qos.engaged() => {
                // Every tenant runs the epoch's personality. Tenant `t`
                // routes to shard `t % shards`, global ids intact;
                // every shard runs its own front over its subset.
                let mix = phases[epoch as usize % phases.len()];
                let all =
                    build_population(self.qos.tenants, &self.qos.weights, Some(mix), cfg.seed);
                let budgets = self.qos.budgets(cfg.requests, &all);
                if let Some(t) = &self.qos.trace {
                    let folded = fold_requests(t.requests(), devs[0].space());
                    check_writes("--qos-trace", &folded, cfg.ssd.buffer_pages)?;
                }
                let fronts = devs
                    .iter()
                    .map(|d| {
                        let (profiles, shard_budgets): (Vec<_>, Vec<_>) = all
                            .iter()
                            .zip(&budgets)
                            .filter(|(p, _)| p.id as usize % n == d.id)
                            .map(|(p, b)| (*p, *b))
                            .unzip();
                        let streams = self.qos.streams(&profiles, d.space(), self.kv);
                        let mut front =
                            HostQueueFront::new(self.qos.front, profiles, streams, shard_budgets);
                        front.enable_telemetry(self.telemetry.events, d.id as u32);
                        front
                    })
                    .collect();
                Load::new(Hosts::Fronts(fronts), vec![u64::MAX; n])
            }
            (_, Some(fc)) => {
                // One global stream over the prefilled rows (every
                // shard prefills local `0..prefill`, so rows below
                // `prefill / stripe` are fully resident on data and
                // parity shards alike), routed fragment by fragment in
                // global order.
                let (rows, p) = self.stripes(devs)?;
                let router = ParityRouter::new(n, p, fc.parity);
                let d = router.data_shards() as u64;
                let global = rows * p * d;
                let hot_rows = (devs[n - 1].prefill / p).clamp(1, rows);
                let hot = (hot_rows * p * d).max(1024).min(global);
                let mut source = self.source(epoch, hot, seed);
                let stream: Vec<HostRequest> = source
                    .by_ref()
                    .take(usize::try_from(cfg.requests).unwrap_or(usize::MAX))
                    .collect();
                let routed: Vec<(usize, HostRequest)> = fold_requests(&stream, global)
                    .into_iter()
                    .flat_map(|r| router.split(r))
                    .collect();
                let mut per_shard = vec![Vec::new(); n];
                for &(s, req) in &routed {
                    per_shard[s].push(req);
                }
                // Only a recorded trace can hold such a write:
                // generators size theirs to the buffer.
                for fragments in &per_shard {
                    check_writes("--trace-file", fragments, cfg.ssd.buffer_pages)?;
                }
                Load {
                    routed,
                    global: Some(source),
                    ..Load::replay("", per_shard, false)
                }
            }
            (WorkloadSource::Trace(t), None) if self.array.is_some() => {
                // The global trace is folded into the striped global
                // space and fanned out through the parity-off router
                // (plain striping; spans split at stripe boundaries),
                // so every shard replays exactly the fragments that map
                // to it.
                let (rows, p) = self.stripes(devs)?;
                let folded = fold_requests(t.requests(), rows * p * n as u64);
                let per_shard = ParityRouter::new(n, p, false).route_stream(folded);
                for fragments in &per_shard {
                    check_writes("--trace-file", fragments, cfg.ssd.buffer_pages)?;
                }
                Load::replay("", per_shard, false)
            }
            (WorkloadSource::Trace(t), None) => {
                let folded = fold_requests(t.requests(), devs[0].ftl.logical_pages());
                check_writes("--trace-file", &folded, cfg.ssd.buffer_pages)?;
                Load::replay(t.label(), vec![folded], self.capture)
            }
            (WorkloadSource::Phases(_), None) => {
                let streams = devs
                    .iter()
                    .map(|d| {
                        let seed = self.seed_for(seed, d.id);
                        Stream::new(self.source(epoch, d.space(), seed), self.capture)
                    })
                    .collect();
                Load::new(Hosts::Streams(streams), split_even_budget(cfg.requests, n))
            }
        })
    }

    /// Executes one phase, whatever the hosts are: hands every shard and
    /// its host to the worker pool, waits for all of them (the fan-in
    /// sequence point) and takes both back in shard order. `plans[i]`
    /// arms background rebuild work on shard `i`.
    fn exec<H: HostFront + Send>(
        &self,
        phase: Phase,
        devs: &mut Vec<Dev>,
        hosts: &mut Vec<H>,
        budgets: &[u64],
        spo: Option<SpoTrigger>,
        plans: Option<Vec<Option<RebuildPlan>>>,
    ) -> (PhaseReport, Vec<Option<SpoEvent>>) {
        let meta: Vec<(usize, u64)> = devs.iter().map(|d| (d.id, d.prefill)).collect();
        let mut plans = plans.unwrap_or_default().into_iter();
        let shards = devs
            .drain(..)
            .zip(hosts.drain(..))
            .zip(budgets)
            .map(|((d, workload), &requests)| ArrayShard {
                sim: d.sim,
                ftl: d.ftl,
                workload,
                requests,
                spo,
                rebuild: plans.next().flatten(),
            })
            .collect();
        let mut array = SsdArray::new(shards).with_threads(self.threads());
        let run = array.run();
        for (sh, (id, prefill)) in array.into_shards().into_iter().zip(meta) {
            devs.push(Dev {
                id,
                sim: sh.sim,
                ftl: sh.ftl,
                prefill,
            });
            hosts.push(sh.workload);
        }
        (
            PhaseReport {
                phase,
                merged: run.report,
                shards: run.shard_reports,
            },
            run.spo_events,
        )
    }

    /// The crash-recovery barrier. Every shard whose cut landed suffers
    /// the power-cut physics (every in-flight flush tears its WL
    /// program, and its in-flight GC erase when one ran), boots through
    /// [`Ftl::power_cycle`] (L2P rebuilt from checkpoint + OOB scan,
    /// torn WLs quarantined, interrupted blocks re-erased, the PLP dump
    /// replayed; OPM/ORT come back cold by design) and is audited
    /// against its durable ledger. `budgets` become the unissued
    /// remainders; the returned plans carry unfinished rebuild work
    /// across the cut (the next run would otherwise discard it).
    fn recover(
        &self,
        devs: &mut Vec<Dev>,
        events: &[Option<SpoEvent>],
        budgets: &mut [u64],
        crash: &mut CrashReport,
    ) -> Vec<Option<RebuildPlan>> {
        for d in devs.iter() {
            let g = d.ftl.geometry();
            crash.checkpoints_taken += d.ftl.checkpoints_taken();
            crash.total_blocks += u64::from(g.blocks_per_chip) * d.ftl.mapping().chips() as u64;
        }
        crash.recoveries = vec![None; devs.len()];
        let sched = self
            .failure
            .map_or_else(RebuildSchedule::on, |fc| fc.rebuild);
        let stopped: Vec<Dev> = std::mem::take(devs);
        let mut plans = Vec::with_capacity(stopped.len());
        for (pos, mut d) in stopped.into_iter().enumerate() {
            let pending = d.sim.take_rebuild_pending();
            plans.push((!pending.is_empty()).then_some(RebuildPlan {
                sched,
                ops: pending,
            }));
            budgets[pos] = match &events[pos] {
                Some(event) => {
                    let durable = durable_ledger(&d.ftl, event);
                    for f in &event.interrupted_flushes {
                        d.ftl.power_cut(f.chip, f.lpns, f.did_gc);
                    }
                    let (mut recovered, recovery) = d.ftl.power_cycle(&event.buffered_lpns);
                    crash.lost_lpns.extend(
                        durable
                            .into_iter()
                            .filter(|&l| !recovered.is_mapped(l))
                            .map(|l| (d.id, l)),
                    );
                    if let Some(maint) = self.cfg.maint {
                        recovered.enable_maintenance(maint);
                    }
                    d.ftl = recovered;
                    crash.recoveries[pos] = Some(recovery);
                    budgets[pos].saturating_sub(event.issued)
                }
                None => 0,
            };
            devs.push(d);
        }
        plans
    }

    /// The failure barrier (sequence point: every shard stopped at the
    /// failure instant). Computes the dead shard's durable ledger,
    /// redirects its unissued remainder — reads become survivor
    /// fragment reads for XOR reconstruction, writes and trims move to
    /// the hot spare — swaps the spare into the dead slot and plans the
    /// background rebuild (survivors read fragments, the spare programs
    /// reconstructed pages). Rewrites `devs` and `load` for the degraded
    /// phase and returns the rebuild plans with it.
    fn fail_barrier(
        &self,
        fail: FailSpec,
        devs: &mut Vec<Dev>,
        load: &mut Load,
        events: &[Option<SpoEvent>],
    ) -> (FailureState, Vec<Option<RebuildPlan>>) {
        let fc = self.failure.expect("a failure was injected");
        let s_total = devs.len();
        let failed = fail.shard;
        let (rows, p) = self
            .stripes(devs)
            .expect("this epoch's load was routed over these stripes");
        let router = ParityRouter::new(s_total, p, fc.parity);
        let issued: Vec<u64> = (0..s_total)
            .map(|s| events[s].as_ref().map_or(load.budgets[s], |e| e.issued))
            .collect();
        let buffered: Vec<BTreeSet<u64>> = events
            .iter()
            .map(|e| {
                e.as_ref()
                    .map_or_else(BTreeSet::new, |e| e.buffered_lpns.iter().copied().collect())
            })
            .collect();
        let durable = |s: usize, l: u64| devs[s].ftl.is_mapped(l) || buffered[s].contains(&l);

        // The dead shard's durable ledger over the routed region, split
        // by page role; live parity stripes (any survivor data in the
        // row) join the rebuild so the spare restores full redundancy.
        let mut durable_data: Vec<u64> = Vec::new();
        let mut rebuild_set: Vec<u64> = Vec::new();
        for l in 0..rows * p {
            let keep = match router.page_at(failed, l) {
                PageRole::Data(_) => {
                    let d = durable(failed, l);
                    if d {
                        durable_data.push(l);
                    }
                    d
                }
                PageRole::Parity { .. } => (0..s_total).any(|t| t != failed && durable(t, l)),
            };
            if keep {
                rebuild_set.push(l);
            }
        }
        // Array-acknowledged = both legs durable at the failure instant.
        let acked: Vec<u64> = durable_data
            .iter()
            .copied()
            .filter(|&l| fc.parity && durable(router.parity_shard(l / p), l))
            .collect();

        // Redirect the dead shard's unissued remainder.
        let spare = (fc.spare_shards > 0).then_some(s_total);
        let mut ids: Vec<usize> = (0..s_total).collect();
        match spare {
            Some(id) => ids[failed] = id,
            None => {
                ids.remove(failed);
            }
        }
        let pos_of = |id: usize| {
            ids.iter()
                .position(|&x| x == id)
                .expect("participant shard")
        };
        let mut state = FailureState {
            fail,
            router,
            spare,
            durable_data,
            acked,
            degraded_reads: 0,
            degraded_fragment_reads: 0,
            per_shard_degraded_reads: vec![0; s_total + usize::from(spare.is_some())],
            redirected_writes: 0,
            dropped_requests: 0,
            degraded_read_events: Vec::new(),
            progress: Vec::new(),
            offset_us: 0.0,
        };
        let mut phase_b: Vec<Vec<HostRequest>> = vec![Vec::new(); ids.len()];
        let mut cursors = vec![0u64; s_total];
        for &(s, req) in &load.routed {
            cursors[s] += 1;
            if cursors[s] <= issued[s] {
                continue; // already issued in the healthy phase
            }
            if s != failed {
                phase_b[pos_of(s)].push(req);
                continue;
            }
            match req.op {
                HostOp::Read if fc.parity => {
                    // Degraded read: every survivor serves its fragment
                    // at the same local index; XOR reconstructs the
                    // data.
                    let pages = u64::from(req.n_pages);
                    state.degraded_reads += pages;
                    for t in (0..s_total).filter(|&t| t != failed) {
                        phase_b[pos_of(t)].push(HostRequest {
                            op: HostOp::Read,
                            ..req
                        });
                        state.degraded_fragment_reads += pages;
                        state.per_shard_degraded_reads[t] += pages;
                    }
                    state
                        .degraded_read_events
                        .push((req.lpn, (s_total - 1) as u32));
                }
                HostOp::Read => state.dropped_requests += 1,
                HostOp::Write | HostOp::Trim => match spare {
                    // The spare takes over the dead slot; the
                    // fragment's parity update already sits in its
                    // holder's stream.
                    Some(id) => {
                        phase_b[pos_of(id)].push(req);
                        state.redirected_writes += 1;
                    }
                    None => state.dropped_requests += 1,
                },
            }
        }

        // Survivors plus the spare in the dead slot: a blank standby
        // device of the same geometry under its own seed.
        devs.remove(failed);
        if let Some(id) = spare {
            devs.insert(failed, self.prepare_dev(id, 0.0, self.telemetry));
        }
        let do_rebuild = fc.parity && spare.is_some() && !rebuild_set.is_empty();
        let plans = ids
            .iter()
            .map(|&id| {
                let op: fn(u64) -> RebuildOp = if id == s_total {
                    RebuildOp::Write
                } else {
                    RebuildOp::Read
                };
                do_rebuild.then(|| RebuildPlan {
                    sched: fc.rebuild,
                    ops: rebuild_set.iter().map(|&l| op(l)).collect(),
                })
            })
            .collect();
        *load = Load {
            global: load.global.take(),
            ..Load::replay("", phase_b, false)
        };
        (state, plans)
    }

    /// The fan-in after the last phase: every shard sits back in its
    /// index slot, so the QoS outcomes, app reports and the capture
    /// drain in shard order — byte-identical at any worker-thread count
    /// — and the timeline's per-shard buffers concatenate in shard-id
    /// order.
    fn drain(&self, devs: &mut [Dev], mut load: Load, mut line: Timeline, out: &mut RunOutput) {
        // The QoS reports first: they close each front's event stream
        // with its end-of-run SLO summaries.
        let qos: Vec<QosReport> = match &mut load.hosts {
            Hosts::Fronts(fronts) => fronts.iter_mut().map(HostQueueFront::report).collect(),
            Hosts::Streams(_) => Vec::new(),
        };
        line.gather(devs, &mut load.hosts, &out.phases);
        let (mut streams, fronts) = match load.hosts {
            Hosts::Streams(s) => (s, Vec::new()),
            Hosts::Fronts(f) => (Vec::new(), f),
        };
        let (mut events, mut rows) = (Vec::new(), Vec::new());
        for shard in line.shards.into_values() {
            events.extend(shard.events);
            rows.extend(shard.rows);
        }
        // Whatever drives a stream, the engine behind it reports here,
        // keyed by the order `KvReport::apps` documents.
        let mut apps: Vec<(u32, KvAppReport)> = Vec::new();
        let mut app = |key: u32, shard: usize, stream: &dyn Workload| {
            if let Some(engine) = stream.kv_engine() {
                apps.push((key, engine.report()));
                events.extend(kv_trace_events(engine.events(), line.mask, shard as u32));
            }
        };
        if let Some(global) = &load.global {
            app(0, 0, global.as_ref());
        }
        for (i, d) in devs.iter().enumerate() {
            if let Some(front) = fronts.get(i) {
                front.streams().for_each(|(t, s)| app(t, d.id, s));
            }
            if let Some(s) = streams.get(i) {
                app(i as u32, d.id, s.src.as_ref());
            }
        }
        apps.sort_by_key(|&(key, _)| key);
        let interval_us = self.telemetry.sample_interval_us.unwrap_or(0.0);
        out.telemetry = TelemetryOutput {
            events,
            series: Series { interval_us, rows },
        };
        out.qos = self.qos.engaged().then(|| QosReport::merge(qos));
        out.kv = (!apps.is_empty()).then(|| KvReport {
            apps: apps.into_iter().map(|(_, app)| app).collect(),
            unit: if self.qos.engaged() {
                Some("tenant")
            } else if self.array.is_some() && self.failure.is_none() {
                Some("shard")
            } else {
                None
            },
        });
        out.captured = streams.pop().and_then(|s| {
            let recorded = s.recorded?;
            Some(Trace::from_requests(s.src.label(), recorded))
        });
    }
}

impl FailureState {
    /// The end of a failure experiment: combines each participant's
    /// rebuild progress over the degraded and resumed phases, audits
    /// the array-acknowledged pages against the final shard list and
    /// emits the barrier-level trace events.
    fn audit(
        self,
        parity: bool,
        devs: &[Dev],
        resumed: &[RebuildProgress],
        line: &mut Timeline,
    ) -> FailureReport {
        let s_total = self.router.shards();
        let failed = self.fail.shard;
        let p = self.router.stripe_pages();
        let progress: Vec<RebuildProgress> = self
            .progress
            .iter()
            .zip(resumed)
            .map(|(b, c)| combine_progress(b, c, self.offset_us))
            .collect();
        let spare_pos = devs.iter().position(|d| d.id == s_total);
        let spare_progress = spare_pos
            .map(|pos| progress[pos].clone())
            .unwrap_or_default();
        let mut per_shard_rebuild_reads = vec![0u64; self.per_shard_degraded_reads.len()];
        for (d, prog) in devs.iter().zip(&progress) {
            if d.id < s_total {
                per_shard_rebuild_reads[d.id] = prog.reads_done;
            }
        }

        let spare_ftl = spare_pos.map(|pos| &devs[pos].ftl);
        let on_spare = |l: u64| spare_ftl.is_some_and(|f| f.is_mapped(l));
        let rebuilt_mapped_pages = self.acked.iter().filter(|&&l| on_spare(l)).count() as u64;
        // A page survives if the spare holds it, or if it is still
        // reconstructable: the parity leg (and every survivor data leg)
        // lives on an alive shard. Survivor durability after a composed
        // power cut is audited separately through the crash report.
        let lost_pages = if parity {
            self.acked
                .iter()
                .filter(|&&l| {
                    let holder = self.router.parity_shard(l / p);
                    !(on_spare(l) || devs.iter().any(|d| d.id == holder))
                })
                .count() as u64
        } else {
            self.durable_data.len() as u64
        };
        let durable_data_pages = self.durable_data.len() as u64;
        let audit = FailureAudit {
            durable_data_pages,
            acked_pages: self.acked.len() as u64,
            unprotected_pages: durable_data_pages - self.acked.len() as u64,
            rebuilt_mapped_pages,
            dropped_requests: self.dropped_requests,
            lost_pages,
            zero_loss: lost_pages == 0,
        };

        // Barrier-level trace events (degraded/rebuild categories),
        // numbered as one stream whatever the scenario's mask keeps.
        let at = self.fail.at_us;
        let mut collector =
            Collector::enabled(EventMask::DEGRADED.union(EventMask::REBUILD), failed as u32);
        let mut shard_fail = |t: f64, phase: &'static str, detail: u64| {
            let failed = failed as u32;
            collector.emit(
                t,
                EventKind::ShardFail {
                    failed,
                    phase,
                    detail,
                },
            );
        };
        shard_fail(at, "inject", durable_data_pages);
        shard_fail(at, "detect", self.degraded_reads + self.redirected_writes);
        for &(lpn, fragments) in &self.degraded_read_events {
            collector.emit(at, EventKind::DegradedRead { lpn, fragments });
        }
        if self.spare.is_some() {
            let mut unit = |t: f64, spare: usize, action: &'static str, pages: u64| {
                let spare = spare as u32;
                collector.emit(
                    at + t,
                    EventKind::RebuildUnit {
                        spare,
                        action,
                        pages,
                    },
                );
            };
            for &(t, ops) in &spare_progress.curve {
                unit(t, s_total, "write", ops);
            }
            for (d, prog) in devs.iter().zip(&progress) {
                if d.id < s_total && prog.reads_done > 0 {
                    unit(prog.done_at_us, d.id, "read", prog.reads_done);
                }
            }
            if spare_progress.writes_done > 0 {
                collector.emit(
                    at + spare_progress.done_at_us,
                    EventKind::ShardFail {
                        failed: failed as u32,
                        phase: "restored",
                        detail: rebuilt_mapped_pages,
                    },
                );
            }
        }

        line.insert(failed, collector.take());
        FailureReport {
            resilience: ResilienceReport {
                parity,
                failed_shard: Some(failed as u32),
                fail_at_us: at,
                spare_shard: self.spare.map(|id| id as u32),
                degraded_reads: self.degraded_reads,
                degraded_fragment_reads: self.degraded_fragment_reads,
                rebuild_pages: spare_progress.writes_done,
                rebuild_reads: per_shard_rebuild_reads.iter().sum(),
                rebuild_time_us: spare_progress.done_at_us,
                redirected_writes: self.redirected_writes,
                lost_pages,
                per_shard_degraded_reads: self.per_shard_degraded_reads,
                per_shard_rebuild_reads,
            },
            rebuild: spare_progress,
            audit,
        }
    }
}

/// What one shard id contributed to the run's timeline.
#[derive(Default)]
struct ShardLine {
    events: Vec<TraceEvent>,
    rows: Vec<(u32, SampleRow)>,
    /// Host requests completed in the phases gathered so far.
    completed: u64,
}

/// The run's one timeline: what the collectors and samplers of every
/// phase recorded, per shard id, each phase moved to where it started.
#[derive(Default)]
struct Timeline {
    /// The scenario's event mask (barrier events are filtered by it).
    mask: EventMask,
    /// Where the phase now in the collectors starts, µs.
    start_us: f64,
    shards: BTreeMap<usize, ShardLine>,
}

impl Timeline {
    /// The fan-in at the end of the phase `ran` ends with: per shard,
    /// the device-side event stream merged with the FTL-side and
    /// QoS-front streams in virtual-time order, and the sampled rows,
    /// both moved to the phase's start and appended to that shard's
    /// line; a row's `completed` continues the shard's count.
    fn gather(&mut self, devs: &mut [Dev], hosts: &mut Hosts, ran: &[PhaseReport]) {
        let phase = ran.last().expect("a phase ran");
        let start_us = self.start_us;
        for (i, d) in devs.iter_mut().enumerate() {
            let mut trace = merge_streams(d.sim.take_trace(), d.ftl.take_trace());
            if let Hosts::Fronts(fronts) = hosts {
                trace = merge_streams(trace, fronts[i].take_trace());
            }
            let line = self.shards.entry(d.id).or_default();
            line.events.extend(trace.into_iter().map(|e| TraceEvent {
                t_us: e.t_us + start_us,
                ..e
            }));
            let base = line.completed;
            let rows = d.sim.take_series().rows.into_iter().map(|(shard, r)| {
                let row = SampleRow {
                    t_us: r.t_us + start_us,
                    completed: r.completed + base,
                    ..r
                };
                (shard, row)
            });
            line.rows.extend(rows);
            line.completed += phase.shards[i].completed;
        }
    }

    /// Adds what a barrier emitted for shard `id`, after everything the
    /// shard recorded so far: the events the scenario's mask keeps, in
    /// time order.
    fn insert(&mut self, id: usize, mut emitted: Vec<TraceEvent>) {
        emitted.retain(|e| self.mask.contains(e.kind.category()));
        emitted.sort_by(|a, b| a.t_us.total_cmp(&b.t_us));
        self.shards.entry(id).or_default().events.extend(emitted);
    }
}

/// Every shard's rebuild progress over the phase that just ran.
fn rebuild_progress(devs: &[Dev]) -> Vec<RebuildProgress> {
    devs.iter()
        .map(|d| d.sim.rebuild_progress().clone())
        .collect()
}

/// The lifetime aging barrier before `epoch` (sequence point: every
/// shard drained). Walks the shards in index order on this thread:
/// every block's virtual age advances — P/E cycles scaled by the
/// similarity-model wear-rate spread and the resident data's pattern
/// stress, retention months shaped by the early-retention-loss curve —
/// so OPM re-monitoring, retry chains and background maintenance race
/// real drift across epochs instead of meeting a pre-baked aged state.
fn age(
    devs: &mut [Dev],
    engines: &mut [LifetimeEngine],
    epoch: u32,
    line: &mut Timeline,
) -> Vec<EpochSummary> {
    devs.iter_mut()
        .zip(engines)
        .map(|(d, engine)| {
            let s = d.ftl.advance_lifetime_epoch(engine);
            let mut c = Collector::enabled(EventMask::AGING, d.id as u32);
            c.emit(
                line.start_us,
                EventKind::EpochAdvance {
                    epoch,
                    pe_add: s.pe_added,
                    retention_add_months: s.retention_added_months,
                    blocks: s.blocks_aged,
                },
            );
            line.insert(d.id, c.take());
            d.ftl.reset_stats();
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(kind: FtlKind, workload: StandardWorkload, aging: AgingState) -> SimReport {
        Scenario::new(kind, workload, aging, &EvalConfig::smoke())
            .run()
            .expect("a plain scenario is valid")
            .into_sim()
    }

    #[test]
    fn smoke_eval_completes_all_requests() {
        let r = eval(FtlKind::Page, StandardWorkload::Mail, AgingState::Fresh);
        assert_eq!(r.completed, EvalConfig::smoke().requests);
        assert!(r.iops > 0.0);
        assert!(r.reads > 0 && r.writes > 0);
    }

    #[test]
    fn eval_is_deterministic() {
        let a = eval(FtlKind::Cube, StandardWorkload::Web, AgingState::MidLife);
        let b = eval(FtlKind::Cube, StandardWorkload::Web, AgingState::MidLife);
        assert_eq!(a.iops, b.iops);
        assert_eq!(a.sim_time_us, b.sim_time_us);
    }

    /// The block bound follows the device: `max` validates and `max + 1`
    /// is rejected at two chip counts, and the device's pages at `max`
    /// fit the mapping's `u32` page index. Nothing is built.
    #[test]
    fn block_bound_is_the_device_wide_page_index() {
        for (chips, want) in [(8, 932_067), (3, 2_485_513)] {
            let mut cfg = EvalConfig::smoke();
            cfg.ftl.chips = chips;
            cfg.ssd.chips = chips;
            let with_blocks = |blocks| {
                let mut cfg = cfg.clone();
                cfg.ftl.nand.geometry.blocks_per_chip = blocks;
                Scenario::new(
                    FtlKind::Cube,
                    StandardWorkload::Web,
                    AgingState::Fresh,
                    &cfg,
                )
            };
            let max = cfg.ftl.max_blocks_per_chip();
            assert_eq!(max, want);
            assert_eq!(with_blocks(max).validate(), Ok(()));
            assert!(matches!(
                with_blocks(max + 1).validate(),
                Err(ScenarioError::BlocksOutOfRange { blocks, max: m, .. })
                    if blocks == max + 1 && m == max
            ));
            let pages = u64::from(max) * u64::from(cfg.ftl.nand.geometry.pages_per_block());
            assert!(pages * (chips as u64) < u64::from(u32::MAX));
        }
    }

    #[test]
    fn cube_beats_page_on_a_write_heavy_workload() {
        let page = eval(FtlKind::Page, StandardWorkload::Oltp, AgingState::Fresh);
        let cube = eval(FtlKind::Cube, StandardWorkload::Oltp, AgingState::Fresh);
        assert!(
            cube.iops > page.iops,
            "cubeFTL {} IOPS vs pageFTL {} IOPS",
            cube.iops,
            page.iops
        );
    }
}
