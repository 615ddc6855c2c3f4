//! The SSD simulation engine.
//!
//! [`SsdSim`] models the evaluation platform of §6.1: a host — any
//! [`HostFront`], a plain request iterator being the closed loop at a
//! fixed queue depth — against an SSD with a DRAM write
//! buffer, `B` buses and `C` chips (chip `i` sits on bus `i mod B`).
//! Writes complete when buffered; a background flush drains the buffer to
//! NAND one WL (3 pages) at a time through the FTL under test. Reads hit
//! the buffer or queue on the chip holding the mapped page. Buses
//! serialize data transfers; chips serialize NAND operations.
//!
//! Time is simulated in µs (`f64`) through a deterministic event queue;
//! running the same workload against the same FTL always produces the
//! same [`SimReport`].

use crate::buffer::WriteBuffer;
use crate::driver::{FtlDriver, HostContext};
use crate::front::HostFront;
use crate::request::{HostOp, HostRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use telemetry::{
    Collector, EventKind as TraceKind, EventMask, LogHistogram, MetricRegistry, SampleRow, Series,
    TraceEvent,
};

/// When the simulated power supply dies mid-run (see
/// [`SsdSim::run_begin`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpoTrigger {
    /// Cut power as soon as `n` host requests have completed.
    AtOps(u64),
    /// Cut power at a fixed simulated time, µs.
    AtTimeUs(f64),
    /// Seeded random cut: one Bernoulli draw per completed host request
    /// from a dedicated RNG stream (the engine's event order is
    /// untouched when this never fires).
    Seeded {
        /// Seed of the dedicated SPO RNG stream.
        seed: u64,
        /// Per-completed-request cut probability.
        rate: f64,
    },
}

/// A flush batch that a sudden power-off caught between
/// [`FtlDriver::write_wl`] and its chip-completion event: the WL program
/// (and, when `did_gc` is set, the preceding victim-block erase) was
/// interrupted mid-operation on the NAND die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlightFlush {
    /// Chip the flush was executing (or queued) on.
    pub chip: usize,
    /// The batch's LPNs (`u64::MAX` = pad).
    pub lpns: [u64; 3],
    /// Whether the FTL ran a garbage-collection erase for this flush.
    pub did_gc: bool,
}

/// Everything the harness needs to model the physical consequences of a
/// sudden power-off and to audit the recovery afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct SpoEvent {
    /// Simulated time of the cut, µs.
    pub at_us: f64,
    /// Host requests issued (pulled from the workload) before the cut.
    pub issued: u64,
    /// Host requests completed (acknowledged) before the cut.
    pub completed: u64,
    /// Pages of every *acknowledged* write request — how much data the
    /// device must not lose.
    pub acked_write_pages: u64,
    /// Every LPN trimmed before the cut (a resurrected trimmed LPN is
    /// acceptable; a lost acknowledged LPN is not).
    pub trimmed_lpns: Vec<u64>,
    /// The power-loss-protection dump: all buffer-resident LPNs in
    /// deterministic order, oldest copy first (so a sequential replay
    /// leaves the newest copy mapped).
    pub buffered_lpns: Vec<u64>,
    /// Flush batches interrupted mid-NAND-operation, in chip order.
    pub interrupted_flushes: Vec<InFlightFlush>,
}

/// Static configuration of the simulated SSD platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// Number of NAND chips.
    pub chips: usize,
    /// Number of buses; chip `i` is attached to bus `i % buses`.
    pub buses: usize,
    /// Host queue depth (outstanding requests the closed loop keeps).
    pub queue_depth: usize,
    /// Write-buffer capacity in pages.
    pub buffer_pages: usize,
    /// Host submission overhead per request, µs.
    pub t_submit_us: f64,
    /// DRAM buffer access latency (write acceptance / read hit), µs.
    pub t_buffer_us: f64,
    /// Bus transfer time per 16-KB page, µs.
    pub t_xfer_page_us: f64,
    /// Maximum flush operations queued per chip at a time.
    pub max_pending_flush_per_chip: usize,
}

impl SsdConfig {
    /// The paper's platform: 2 buses × 4 chips (§6.1), queue depth 32.
    pub fn paper() -> Self {
        SsdConfig {
            chips: 8,
            buses: 2,
            queue_depth: 32,
            buffer_pages: 48,
            t_submit_us: 1.5,
            t_buffer_us: 5.0,
            t_xfer_page_us: 20.0,
            max_pending_flush_per_chip: 2,
        }
    }

    /// A small platform for tests.
    pub fn small() -> Self {
        SsdConfig {
            chips: 2,
            buses: 1,
            queue_depth: 4,
            buffer_pages: 16,
            t_submit_us: 1.5,
            t_buffer_us: 5.0,
            t_xfer_page_us: 20.0,
            max_pending_flush_per_chip: 2,
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig::paper()
    }
}

/// Per-chip queueing and utilization statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChipStats {
    /// Deepest the chip's op queue got, counting the in-flight op.
    pub max_queue_depth: usize,
    /// Total time the chip spent executing operations, µs.
    pub busy_us: f64,
    /// Background maintenance operations executed on this chip.
    pub maint_ops: u64,
    /// NAND time spent on background maintenance, µs.
    pub maint_us: f64,
}

impl ChipStats {
    /// Fraction of `sim_time_us` the chip was busy, in `[0, 1]`.
    pub fn busy_fraction(&self, sim_time_us: f64) -> f64 {
        if sim_time_us <= 0.0 {
            0.0
        } else {
            (self.busy_us / sim_time_us).min(1.0)
        }
    }
}

/// Background maintenance operations dispatched across `chips`.
pub fn background_ops(chips: &[ChipStats]) -> u64 {
    chips.iter().map(|c| c.maint_ops).sum()
}

/// Deepest per-chip queue observed on any of `chips`.
pub fn max_queue_depth(chips: &[ChipStats]) -> usize {
    chips.iter().map(|c| c.max_queue_depth).max().unwrap_or(0)
}

/// Mean per-chip busy-time fraction of `chips` over `sim_time_us`.
pub fn mean_busy_fraction(chips: &[ChipStats], sim_time_us: f64) -> f64 {
    if chips.is_empty() {
        return 0.0;
    }
    chips
        .iter()
        .map(|c| c.busy_fraction(sim_time_us))
        .sum::<f64>()
        / chips.len() as f64
}

/// The twelve registrations every device-level report shares — one
/// device's [`SimReport`] or an array's merged report — and the one
/// place their metric names are spelled: throughput, makespan, the
/// completion counters, both latency histograms and their p99/p999
/// gauges. `$report` is any value with `SimReport`'s `iops`,
/// `sim_time_us`, `completed`, `reads`, `writes`, `trims`,
/// `read_latency` and `write_latency` fields.
#[macro_export]
macro_rules! register_host_metrics {
    ($report:expr, $reg:expr, $prefix:expr) => {{
        let (r, reg, prefix) = ($report, &mut *$reg, $prefix);
        reg.gauge(&format!("{prefix}.iops"), r.iops);
        reg.gauge(&format!("{prefix}.sim_time_us"), r.sim_time_us);
        reg.counter(&format!("{prefix}.completed"), r.completed);
        reg.counter(&format!("{prefix}.reads"), r.reads);
        reg.counter(&format!("{prefix}.writes"), r.writes);
        reg.counter(&format!("{prefix}.trims"), r.trims);
        reg.histogram(&format!("{prefix}.read_latency_us"), &r.read_latency);
        reg.histogram(&format!("{prefix}.write_latency_us"), &r.write_latency);
        reg.gauge(
            &format!("{prefix}.read_p99_us"),
            r.read_latency.percentile(99.0),
        );
        reg.gauge(
            &format!("{prefix}.read_p999_us"),
            r.read_latency.percentile(99.9),
        );
        reg.gauge(
            &format!("{prefix}.write_p99_us"),
            r.write_latency.percentile(99.0),
        );
        reg.gauge(
            &format!("{prefix}.write_p999_us"),
            r.write_latency.percentile(99.9),
        );
    }};
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// FTL name.
    pub ftl_name: String,
    /// Completed host requests per second.
    pub iops: f64,
    /// Total simulated time, µs.
    pub sim_time_us: f64,
    /// Completed host requests.
    pub completed: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Completed TRIM (discard) requests.
    pub trims: u64,
    /// Host read-request latencies, µs.
    pub read_latency: LogHistogram,
    /// Host write-request latencies, µs.
    pub write_latency: LogHistogram,
    /// FTL-internal counters at the end of the run.
    pub ftl: crate::driver::FtlStats,
    /// Per-chip queueing/utilization statistics.
    pub chip_stats: Vec<ChipStats>,
}

impl SimReport {
    /// Host-attributed write amplification ([`FtlStats::wa_host`]).
    pub fn wa_host(&self) -> Option<f64> {
        self.ftl.wa_host()
    }

    /// Total write amplification ([`FtlStats::wa_total`]).
    pub fn wa_total(&self) -> Option<f64> {
        self.ftl.wa_total()
    }

    /// Total background maintenance operations dispatched across chips.
    pub fn background_ops(&self) -> u64 {
        background_ops(&self.chip_stats)
    }

    /// Deepest per-chip queue observed anywhere in the array.
    pub fn max_queue_depth(&self) -> usize {
        max_queue_depth(&self.chip_stats)
    }

    /// Mean per-chip busy-time fraction over the run.
    pub fn mean_busy_fraction(&self) -> f64 {
        mean_busy_fraction(&self.chip_stats, self.sim_time_us)
    }

    /// Registers the report's numbers into a metric registry under
    /// `prefix` (e.g. `ssd.iops`, `ssd.ftl.gc_runs`,
    /// `ssd.chip0.busy_us`). The report itself stays the compatibility
    /// view; the registry is the export surface.
    pub fn register_metrics(&self, reg: &mut MetricRegistry, prefix: &str) {
        crate::register_host_metrics!(self, reg, prefix);
        reg.gauge(&format!("{prefix}.wa_host"), self.wa_host().unwrap_or(0.0));
        reg.gauge(
            &format!("{prefix}.wa_total"),
            self.wa_total().unwrap_or(0.0),
        );
        self.ftl.register_metrics(reg, &format!("{prefix}.ftl"));
        for (i, c) in self.chip_stats.iter().enumerate() {
            reg.gauge(
                &format!("{prefix}.chip{i}.max_queue_depth"),
                c.max_queue_depth as f64,
            );
            reg.gauge(&format!("{prefix}.chip{i}.busy_us"), c.busy_us);
            reg.counter(&format!("{prefix}.chip{i}.maint_ops"), c.maint_ops);
            reg.gauge(&format!("{prefix}.chip{i}.maint_us"), c.maint_us);
        }
    }
}

/// Pacing of the background rebuild service: how many rebuild page
/// operations one unit may dispatch, and the host-priority gap between
/// units. Mirrors the idle-window discipline of background maintenance
/// ([`SsdSim::enable_maintenance`]) — rebuild ops only ever start on
/// idle chips, and after each unit the service backs off by `gap_us` so
/// host traffic reclaims the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildSchedule {
    /// Page operations dispatched per rebuild unit (bounded burst).
    pub batch_pages: u32,
    /// Minimum virtual µs between the end of one unit and the start of
    /// the next.
    pub gap_us: f64,
}

impl RebuildSchedule {
    /// The default pacing: 8-page units, 200 µs host-priority gap (the
    /// background-maintenance default).
    pub fn on() -> Self {
        RebuildSchedule {
            batch_pages: 8,
            gap_us: 200.0,
        }
    }
}

/// One background rebuild page operation against this device's local
/// space. Survivor shards run `Read`s (fragment fetches for XOR
/// reconstruction); the spare shard runs `Write`s (programming the
/// reconstructed pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildOp {
    /// Read the page mapped at this local LPN.
    Read(u64),
    /// Program reconstructed data at this local LPN.
    Write(u64),
}

/// Progress of the background rebuild service on one device. Not part
/// of [`SimReport`] — read it through [`SsdSim::rebuild_progress`]
/// after the run, so reports of rebuild-free runs stay byte-identical
/// to every pre-rebuild golden.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RebuildProgress {
    /// Fragment reads completed.
    pub reads_done: u64,
    /// Reconstruction writes completed.
    pub writes_done: u64,
    /// Read ops skipped because the local page was never mapped
    /// (nothing durable to fetch).
    pub skipped: u64,
    /// Virtual time the queue fully drained, µs (0.0 if it never did).
    pub done_at_us: f64,
    /// `(t_us, cumulative ops)` checkpoint per completed rebuild unit —
    /// the rebuild curve the bench plots against the idle-window budget.
    pub curve: Vec<(f64, u64)>,
}

impl RebuildProgress {
    /// Total rebuild ops accounted for (reads + writes + skips).
    pub fn ops_done(&self) -> u64 {
        self.reads_done + self.writes_done + self.skipped
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// A buffered write request completes at the host interface.
    WriteAccepted { req: usize },
    /// One page of a read request is served (from buffer or NAND).
    ReadPartServed { req: usize },
    /// A chip finished its current operation.
    ChipIdle { chip: usize },
    /// Rebuild-service poll timer: keeps the event loop alive while
    /// rebuild work is pending but nothing else is in flight (e.g.
    /// after the host workload drained, between paced units).
    RebuildTick,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    t: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone)]
enum ChipOp {
    Read {
        req: usize,
        nand_us: f64,
    },
    Flush {
        lpns: [u64; 3],
        nand_us: f64,
        did_gc: bool,
    },
    /// A background maintenance operation. Data moves stay on-chip, so
    /// no bus transfer is charged.
    Maint {
        nand_us: f64,
    },
    /// A background rebuild page operation. The page crosses the device
    /// boundary (survivor fragment out, reconstructed page in), so one
    /// page of bus transfer is charged like a host read.
    Rebuild {
        nand_us: f64,
    },
}

#[derive(Debug, Default)]
struct ChipState {
    busy: bool,
    queue: VecDeque<ChipOp>,
    pending_flushes: usize,
    current: Option<ChipOp>,
    /// Earliest time the maintenance scheduler may use this chip again
    /// (the host-priority/starvation bound, and the idle-poll backoff).
    maint_allowed_at: f64,
    stats: ChipStats,
}

#[derive(Debug)]
struct InFlightRequest {
    arrival_us: f64,
    /// Pages not yet served. A read counts down to zero, one
    /// `ReadPartServed`/`ChipOp::Read` per page; a write or trim keeps
    /// its span until its single `WriteAccepted`.
    pages_left: u32,
    op: HostOp,
    /// First LPN of the request's span.
    lpn: u64,
    /// The host's token, echoed back on completion.
    token: u32,
}

/// The in-flight request table, a slab: events name requests by slot. A
/// slot is live from [`RequestTable::insert`] to [`RequestTable::remove`]
/// and is reused before the table grows, so the table holds as many
/// slots as requests were ever in flight at once — at most
/// `queue_depth`, however long the run.
#[derive(Debug, Default)]
struct RequestTable {
    slots: Vec<Option<InFlightRequest>>,
    free: Vec<usize>,
}

impl RequestTable {
    fn insert(&mut self, request: InFlightRequest) -> usize {
        match self.free.pop() {
            Some(id) => {
                self.slots[id] = Some(request);
                id
            }
            None => {
                self.slots.push(Some(request));
                self.slots.len() - 1
            }
        }
    }

    /// The live request in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free: no event may name a request after
    /// the one that completed it.
    fn get_mut(&mut self, id: usize) -> &mut InFlightRequest {
        self.slots[id].as_mut().expect("event names a free slot")
    }

    /// Frees slot `id` and returns its request (panics like
    /// [`RequestTable::get_mut`]).
    fn remove(&mut self, id: usize) -> InFlightRequest {
        let request = self.slots[id].take().expect("event names a free slot");
        self.free.push(id);
        request
    }

    /// Slots allocated so far, live or free.
    fn slots(&self) -> usize {
        self.slots.len()
    }
}

/// A write waiting for buffer room: its table slot and its span.
#[derive(Debug)]
struct StalledWrite {
    req: usize,
    lpn: u64,
    pages: u32,
}

/// Outcome of one bounded [`SsdSim::run_step`] slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The event budget ran out with simulation work still pending;
    /// call [`SsdSim::run_step`] again.
    Running,
    /// The workload drained and every in-flight event completed.
    Drained,
    /// The armed sudden-power-off trigger fired; the device state at the
    /// cut is available from [`SsdSim::run_end`].
    PowerCut,
}

/// The simulation engine. Owns the platform state; borrows the FTL and
/// the workload for the duration of [`SsdSim::run`].
#[derive(Debug)]
pub struct SsdSim {
    config: SsdConfig,
    now: f64,
    seq: u64,
    host_free_at: f64,
    bus_free_at: Vec<f64>,
    chips: Vec<ChipState>,
    buffer: WriteBuffer,
    events: BinaryHeap<Event>,
    requests: RequestTable,
    stalled: VecDeque<StalledWrite>,
    /// Host requests pulled from the host this run.
    issued: u64,
    outstanding: usize,
    completed: u64,
    reads_done: u64,
    writes_done: u64,
    trims_done: u64,
    /// Pages of the completed write requests (the SPO ledger).
    acked_write_pages: u64,
    read_latency: LogHistogram,
    write_latency: LogHistogram,
    /// TRIMmed LPNs of the current run — recorded only while an SPO
    /// trigger is armed (`None` otherwise, zero cost on normal runs).
    spo_trims: Option<Vec<u64>>,
    /// Cap on host requests pulled from the workload this run.
    issue_limit: u64,
    /// The armed sudden-power-off trigger, if any.
    spo: Option<SpoTrigger>,
    /// Dedicated RNG stream for [`SpoTrigger::Seeded`].
    spo_rng: Option<StdRng>,
    /// Set once the armed trigger fires; consumed by [`SsdSim::run_end`].
    spo_event: Option<SpoEvent>,
    /// Structured event trace sink (inert unless
    /// [`SsdSim::enable_telemetry`] armed a mask).
    trace: Collector,
    /// Virtual-time series sampler (`None` = sampling off).
    sampler: Option<SamplerState>,
    /// Host-priority gap of background maintenance, µs (`None` =
    /// maintenance off: the FTL's hook is never polled).
    maint_gap_us: Option<f64>,
    /// Pacing of the background rebuild service (`None` = rebuild off,
    /// the zero-cost default path).
    rebuild_sched: Option<RebuildSchedule>,
    /// Pending rebuild page operations, dispatched front-to-back.
    rebuild_queue: VecDeque<RebuildOp>,
    /// Rebuild ops currently executing on chips (one unit at a time:
    /// the next unit starts only after this reaches zero again).
    rebuild_inflight: u32,
    /// Earliest time the next rebuild unit may start.
    rebuild_allowed_at: f64,
    /// Whether a [`EventKind::RebuildTick`] is already in the heap
    /// (dedupes the liveness timer).
    rebuild_tick_armed: bool,
    /// Round-robin cursor for placing rebuild writes on chips.
    rebuild_chip: usize,
    /// Progress accounting for the current run's rebuild service.
    rebuild_progress: RebuildProgress,
}

/// State of the periodic registry sampler: the next virtual-time
/// threshold, per-window accumulators, and the rows collected so far.
/// Sampling is driven by event-loop time-threshold crossings, which are
/// idempotent at `run_step` slice boundaries, so the rows are a pure
/// function of the workload/FTL/config — independent of step budgets
/// and worker-thread counts.
#[derive(Debug)]
struct SamplerState {
    /// Sampling interval, virtual µs.
    interval_us: f64,
    /// Next sample threshold, virtual µs.
    next_us: f64,
    /// Shard tag stamped on every row.
    shard: u32,
    /// Rows collected this run.
    series: Series,
    /// Host completions as of the previous row (window base).
    win_completed: u64,
    /// NAND program latencies of host flushes in the current window
    /// (tPROG proxy; GC-carrying flushes excluded).
    win_tprog: LogHistogram,
    /// FTL counters as of the previous row (window deltas).
    last_ftl: crate::driver::FtlStats,
}

impl SamplerState {
    /// A sampler at the start of a run: first threshold one interval in.
    fn new(interval_us: f64, shard: u32) -> Self {
        SamplerState {
            interval_us,
            next_us: interval_us,
            shard,
            series: Series::new(interval_us),
            win_completed: 0,
            win_tprog: LogHistogram::new(),
            last_ftl: crate::driver::FtlStats::default(),
        }
    }
}

// The sharded array engine (crate `ssdarray`) runs one `SsdSim` per
// worker thread; keep the engine `Send`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SsdSim>();
};

impl SsdSim {
    /// Creates an engine for `config`.
    pub fn new(config: SsdConfig) -> Self {
        assert!(config.chips > 0 && config.buses > 0, "need chips and buses");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        SsdSim {
            now: 0.0,
            seq: 0,
            host_free_at: 0.0,
            bus_free_at: vec![0.0; config.buses],
            chips: (0..config.chips).map(|_| ChipState::default()).collect(),
            buffer: WriteBuffer::new(config.buffer_pages),
            events: BinaryHeap::new(),
            requests: RequestTable::default(),
            stalled: VecDeque::new(),
            issued: 0,
            outstanding: 0,
            completed: 0,
            reads_done: 0,
            writes_done: 0,
            trims_done: 0,
            acked_write_pages: 0,
            read_latency: LogHistogram::new(),
            write_latency: LogHistogram::new(),
            spo_trims: None,
            issue_limit: 0,
            spo: None,
            spo_rng: None,
            spo_event: None,
            trace: Collector::disabled(),
            sampler: None,
            maint_gap_us: None,
            rebuild_sched: None,
            rebuild_queue: VecDeque::new(),
            rebuild_inflight: 0,
            rebuild_allowed_at: 0.0,
            rebuild_tick_armed: false,
            rebuild_chip: 0,
            rebuild_progress: RebuildProgress::default(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Arms telemetry for subsequent runs: event categories in `mask`
    /// are traced (tagged with `shard`), and when `sample_interval_us`
    /// is set the engine snapshots a time-series row every that many
    /// virtual µs. Call before [`SsdSim::run_begin`]; with
    /// `EventMask::NONE` and no interval this is a no-op and the engine
    /// stays on the zero-cost path.
    pub fn enable_telemetry(
        &mut self,
        mask: EventMask,
        shard: u32,
        sample_interval_us: Option<f64>,
    ) {
        self.trace = if mask.is_empty() {
            Collector::disabled()
        } else {
            Collector::enabled(mask, shard)
        };
        self.sampler = sample_interval_us.map(|interval_us| {
            assert!(
                interval_us > 0.0 && interval_us.is_finite(),
                "sample interval must be positive"
            );
            SamplerState::new(interval_us, shard)
        });
    }

    /// Arms background maintenance for subsequent runs: while host
    /// requests are outstanding the engine offers idle chips to the
    /// FTL's [`FtlDriver::maintenance_step`] hook. Host traffic keeps
    /// strict priority: a chip is only offered while its queue is empty,
    /// and after each background operation (or an idle poll that found
    /// nothing due) it stays reserved for host work for at least
    /// `gap_us` — the starvation bound that keeps maintenance from
    /// monopolizing a chip under sparse traffic. Like the telemetry
    /// arming it carries over [`SsdSim::run_begin`]; without it the hook
    /// is never polled.
    pub fn enable_maintenance(&mut self, gap_us: f64) {
        self.maint_gap_us = Some(gap_us);
    }

    /// Drains the simulator-side trace events collected so far (host
    /// I/O completions). The caller merges them with the FTL-side
    /// stream via [`telemetry::merge_streams`].
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Drains the sampled time series (empty when sampling is off).
    pub fn take_series(&mut self) -> Series {
        match &mut self.sampler {
            Some(s) => {
                let interval = s.interval_us;
                std::mem::replace(&mut s.series, Series::new(interval))
            }
            None => Series::default(),
        }
    }

    /// Writes `lpns` through the FTL without simulating time — used to
    /// establish realistic mappings and block occupancy before a measured
    /// run (the FTL's stats should be reset afterwards by the caller via
    /// a fresh measurement window).
    pub fn prefill<F: FtlDriver + ?Sized>(&mut self, ftl: &mut F, lpns: impl Iterator<Item = u64>) {
        let ctx = HostContext {
            buffer_utilization: 0.0,
            now_us: 0.0,
        };
        let mut batch = [u64::MAX; 3];
        let mut n = 0usize;
        let mut chip = 0usize;
        for lpn in lpns {
            batch[n] = lpn;
            n += 1;
            if n == 3 {
                ftl.write_wl(chip, batch, &ctx);
                chip = (chip + 1) % self.config.chips;
                batch = [u64::MAX; 3];
                n = 0;
            }
        }
        if n > 0 {
            ftl.write_wl(chip, batch, &ctx);
        }
    }

    /// Runs up to `max_requests` from `workload` against `ftl` and
    /// returns the report. The engine can be reused for further runs;
    /// statistics restart each run.
    pub fn run<F, W>(&mut self, ftl: &mut F, workload: W, max_requests: u64) -> SimReport
    where
        F: FtlDriver + ?Sized,
        W: IntoIterator<Item = HostRequest>,
    {
        self.run_begin(max_requests, None);
        let mut workload = workload.into_iter();
        while self.run_step(ftl, &mut workload, u64::MAX) == StepOutcome::Running {}
        self.run_end(ftl).0
    }

    /// Arms a new run: resets the platform state, caps the number of
    /// host requests pulled from the host at `max_requests` and
    /// installs an optional sudden-power-off trigger. If the trigger
    /// fires before the run drains, [`SsdSim::run_step`] halts
    /// mid-operation with [`StepOutcome::PowerCut`], [`SsdSim::run_end`]
    /// returns the [`SpoEvent`] describing the exact device state at the
    /// cut beside the report of the truncated run, and the host keeps
    /// its unissued remainder for the post-recovery resume run.
    ///
    /// Together with [`SsdSim::run_step`] and [`SsdSim::run_end`] this
    /// is the stepping API an external engine (the sharded array
    /// front-end) drives; [`SsdSim::run`] is the one-call wrapper.
    pub fn run_begin(&mut self, max_requests: u64, spo: Option<SpoTrigger>) {
        self.reset();
        self.issue_limit = max_requests;
        // The SPO machinery only exists while a trigger is armed: normal
        // runs create no RNG, record no trims and take the exact same
        // event path as before.
        self.spo = spo;
        self.spo_trims = spo.map(|_| Vec::new());
        self.spo_rng = match spo {
            Some(SpoTrigger::Seeded { seed, .. }) => {
                Some(StdRng::seed_from_u64(seed ^ 0x5b0f_f00d))
            }
            _ => None,
        };
    }

    /// Arms the background rebuild service for the current run: `ops`
    /// are dispatched front-to-back in units of at most
    /// `sched.batch_pages`, each op starting only on an idle chip and
    /// each unit separated by `sched.gap_us` of host-priority backoff.
    /// Rebuild work keeps the event loop alive past the host's last
    /// request (or arrival), whatever the host is, so a run drains only
    /// once the queue is empty.
    ///
    /// Call **after** [`SsdSim::run_begin`] — arming belongs to one run
    /// and is cleared by the next `run_begin`. The op list is computed
    /// by the caller before the run starts, so the service itself is a
    /// pure function of `(ops, sched, host, ftl)` and byte-identity
    /// across step budgets and thread counts is preserved.
    pub fn arm_rebuild(
        &mut self,
        sched: RebuildSchedule,
        ops: impl IntoIterator<Item = RebuildOp>,
    ) {
        assert!(sched.batch_pages > 0, "rebuild unit must move pages");
        assert!(
            sched.gap_us >= 0.0 && sched.gap_us.is_finite(),
            "rebuild gap must be a finite non-negative time"
        );
        self.rebuild_sched = Some(sched);
        self.rebuild_queue = ops.into_iter().collect();
        self.rebuild_inflight = 0;
        self.rebuild_allowed_at = 0.0;
        self.rebuild_tick_armed = false;
        self.rebuild_chip = 0;
        self.rebuild_progress = RebuildProgress::default();
    }

    /// Progress of the current run's rebuild service (all-zero when
    /// rebuild was never armed).
    pub fn rebuild_progress(&self) -> &RebuildProgress {
        &self.rebuild_progress
    }

    /// Drains the pending rebuild queue — used to carry unfinished
    /// rebuild work across a power cut into the recovery run (the next
    /// [`SsdSim::run_begin`] would otherwise discard it).
    pub fn take_rebuild_pending(&mut self) -> Vec<RebuildOp> {
        self.rebuild_sched = None;
        self.rebuild_inflight = 0;
        self.rebuild_tick_armed = false;
        self.rebuild_queue.drain(..).collect()
    }

    /// Advances the armed run by at most `max_events` steps. This is
    /// the engine's one event loop, whatever the host is. A step is a
    /// device event from the heap or — for a host with an arrival
    /// process — a time-jump to its next arrival, taken whenever that
    /// arrival precedes every pending event *and* the device has queue
    /// room (otherwise the arrival is consumed naturally once event
    /// processing moves `now` past it). After every step the engine
    /// hands the step's completion back to the host, polls it for new
    /// work, offers idle chips to maintenance and the rebuild service,
    /// and checks the armed power-off trigger; an
    /// [`SpoTrigger::AtTimeUs`] cut precedes any step at or past its
    /// instant, arrivals included.
    ///
    /// The outcome is a pure function of the host, the FTL and the
    /// configuration: slicing a run into any sequence of budgets yields
    /// byte-identical results, because the polls at a slice boundary
    /// are idempotent at an unchanged simulated time.
    pub fn run_step<F, H>(&mut self, ftl: &mut F, host: &mut H, max_events: u64) -> StepOutcome
    where
        F: FtlDriver + ?Sized,
        H: HostFront + ?Sized,
    {
        if self.spo_event.is_some() {
            return StepOutcome::PowerCut;
        }
        self.poll(ftl, host);
        let mut sliced = 0u64;
        while sliced < max_events {
            let next_event = self.events.peek().map(|e| e.t);
            let arrival = if self.can_issue() {
                host.next_arrival_us()
                    .filter(|&ta| next_event.is_none_or(|te| ta < te))
            } else {
                None
            };
            let Some(t) = arrival.or(next_event) else {
                return StepOutcome::Drained;
            };
            if let Some(SpoTrigger::AtTimeUs(t_cut)) = self.spo {
                if t >= t_cut {
                    // Power dies strictly before the next step executes.
                    self.sample_until(t_cut, ftl);
                    self.now = self.now.max(t_cut);
                    return self.cut_power();
                }
            }
            self.sample_until(t, ftl);
            sliced += 1;
            let completed_before = self.completed;
            if arrival.is_some() {
                // Jump virtual time to the arrival; the poll admits it.
                self.now = self.now.max(t);
            } else {
                let ev = self.events.pop().expect("peeked event exists");
                debug_assert!(ev.t >= self.now - 1e-9, "time went backwards");
                self.now = ev.t;
                match ev.kind {
                    EventKind::WriteAccepted { req } => self.finish_request(req, host),
                    EventKind::ReadPartServed { req } => self.read_part_done(req, host),
                    EventKind::ChipIdle { chip } => self.chip_op_done(chip, ftl, host),
                    EventKind::RebuildTick => self.rebuild_tick_armed = false,
                }
            }
            self.poll(ftl, host);
            let fired = match self.spo {
                Some(SpoTrigger::AtOps(n)) => self.completed >= n,
                Some(SpoTrigger::Seeded { rate, .. }) if rate > 0.0 => {
                    let rng = self.spo_rng.as_mut().expect("seeded trigger has an RNG");
                    (completed_before..self.completed).any(|_| rng.gen_bool(rate))
                }
                _ => false,
            };
            if fired {
                return self.cut_power();
            }
        }
        StepOutcome::Running
    }

    /// Finalizes the armed run and returns its report plus the SPO
    /// event, if the trigger fired.
    pub fn run_end<F: FtlDriver + ?Sized>(&mut self, ftl: &F) -> (SimReport, Option<SpoEvent>) {
        let spo_event = self.spo_event.take();
        if spo_event.is_none() {
            debug_assert_eq!(self.outstanding, 0, "drain left requests in flight");
        }
        self.spo = None;
        self.spo_rng = None;
        self.spo_trims = None;
        let sim_time_us = self.now.max(1e-9);
        let report = SimReport {
            ftl_name: ftl.name().to_owned(),
            iops: self.completed as f64 / (sim_time_us / 1e6),
            sim_time_us,
            completed: self.completed,
            reads: self.reads_done,
            writes: self.writes_done,
            trims: self.trims_done,
            read_latency: std::mem::take(&mut self.read_latency),
            write_latency: std::mem::take(&mut self.write_latency),
            ftl: ftl.stats(),
            chip_stats: self.chips.iter().map(|c| c.stats).collect(),
        };
        (report, spo_event)
    }

    // The three `run_front_*` names are one-line aliases kept for their
    // single caller, `benchmark/layers` (frozen for one PR); the next
    // `benchmark` PR moves it to `run_begin`/`run_step`/`run_end` and
    // deletes them.
    #[doc(hidden)]
    pub fn run_front_begin(&mut self, max_requests: u64) {
        self.run_begin(max_requests, None)
    }

    #[doc(hidden)]
    pub fn run_step_front<F, H>(&mut self, ftl: &mut F, front: &mut H, max: u64) -> StepOutcome
    where
        F: FtlDriver + ?Sized,
        H: HostFront + ?Sized,
    {
        self.run_step(ftl, front, max)
    }

    #[doc(hidden)]
    pub fn run_front_end<F: FtlDriver + ?Sized>(&mut self, ftl: &F) -> SimReport {
        self.run_end(ftl).0
    }

    /// Whether the device can accept another host request right now.
    fn can_issue(&self) -> bool {
        self.outstanding < self.config.queue_depth && self.issued < self.issue_limit
    }

    /// The poll after every step: advances the host to `now`
    /// (consuming arrivals), pulls requests while the device has queue
    /// room, then offers idle chips to maintenance and the rebuild
    /// service. Idempotent at an unchanged `now`.
    fn poll<F, H>(&mut self, ftl: &mut F, host: &mut H)
    where
        F: FtlDriver + ?Sized,
        H: HostFront + ?Sized,
    {
        host.advance(self.now);
        while self.can_issue() {
            let Some(fr) = host.pop(self.now) else { break };
            self.issue(fr.req, fr.token, ftl);
        }
        self.try_maint(ftl);
        self.try_rebuild(ftl);
    }

    /// The armed trigger fired: freeze the device state at `now`.
    fn cut_power(&mut self) -> StepOutcome {
        self.spo_event = Some(self.spo_snapshot());
        StepOutcome::PowerCut
    }

    /// Captures the device state at the instant of the power cut: the
    /// interrupted flush batches (current + queued per chip, in chip
    /// order), the PLP buffer dump and the acknowledged-write ledger.
    fn spo_snapshot(&mut self) -> SpoEvent {
        let mut interrupted = Vec::new();
        for (chip, c) in self.chips.iter().enumerate() {
            if let Some(ChipOp::Flush { lpns, did_gc, .. }) = &c.current {
                interrupted.push(InFlightFlush {
                    chip,
                    lpns: *lpns,
                    did_gc: *did_gc,
                });
            }
            for op in &c.queue {
                if let ChipOp::Flush { lpns, did_gc, .. } = op {
                    interrupted.push(InFlightFlush {
                        chip,
                        lpns: *lpns,
                        did_gc: *did_gc,
                    });
                }
            }
        }
        // PLP dump: in-flight batches first (older copies), then the
        // FIFO queue (newer copies), keeping only the last occurrence of
        // each LPN so a sequential replay maps the newest data.
        let mut dump: Vec<u64> = interrupted
            .iter()
            .flat_map(|f| f.lpns)
            .filter(|&l| l != u64::MAX)
            .collect();
        dump.extend(self.buffer.queued_lpns());
        let mut seen = HashSet::new();
        let mut buffered: Vec<u64> = dump
            .iter()
            .rev()
            .filter(|&&l| seen.insert(l))
            .copied()
            .collect();
        buffered.reverse();
        SpoEvent {
            at_us: self.now,
            issued: self.issued,
            completed: self.completed,
            acked_write_pages: self.acked_write_pages,
            trimmed_lpns: self.spo_trims.take().unwrap_or_default(),
            buffered_lpns: buffered,
            interrupted_flushes: interrupted,
        }
    }

    /// Back to the state [`SsdSim::new`] builds; only the arming carries
    /// over: telemetry (collector mask and shard, sampler interval and
    /// shard) and the maintenance gap.
    fn reset(&mut self) {
        let armed = std::mem::replace(self, SsdSim::new(self.config));
        self.trace = armed.trace;
        self.trace.reset();
        self.sampler = armed
            .sampler
            .map(|s| SamplerState::new(s.interval_us, s.shard));
        self.maint_gap_us = armed.maint_gap_us;
    }

    fn push_event(&mut self, t: f64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Event {
            t,
            seq: self.seq,
            kind,
        });
    }

    fn ctx(&self) -> HostContext {
        HostContext {
            buffer_utilization: self.buffer.utilization(),
            now_us: self.now,
        }
    }

    fn issue<F: FtlDriver + ?Sized>(&mut self, req: HostRequest, token: u32, ftl: &mut F) {
        assert!(
            req.op != HostOp::Write || (req.n_pages as usize) <= self.config.buffer_pages,
            "request larger than the write buffer"
        );
        let submit = self.now.max(self.host_free_at);
        self.host_free_at = submit + self.config.t_submit_us;

        let id = self.requests.insert(InFlightRequest {
            arrival_us: submit,
            pages_left: req.n_pages,
            op: req.op,
            lpn: req.lpn,
            token,
        });
        debug_assert!(
            self.requests.slots() <= self.config.queue_depth,
            "request table outgrew the queue depth"
        );
        self.issued += 1;
        self.outstanding += 1;

        match req.op {
            HostOp::Write => {
                if self.buffer.has_room(req.n_pages as usize) {
                    for lpn in req.lpns() {
                        let accepted = self.buffer.push(lpn);
                        debug_assert!(accepted, "room was checked");
                    }
                    self.push_event(
                        submit + self.config.t_buffer_us,
                        EventKind::WriteAccepted { req: id },
                    );
                } else {
                    self.stalled.push_back(StalledWrite {
                        req: id,
                        lpn: req.lpn,
                        pages: req.n_pages,
                    });
                }
                self.try_flush(ftl);
            }
            HostOp::Trim => {
                // TRIM is a mapping-table operation: it completes at
                // DRAM speed and leaves reclaimable garbage behind.
                if let Some(trims) = &mut self.spo_trims {
                    trims.extend(req.lpns());
                }
                for lpn in req.lpns() {
                    ftl.trim(lpn);
                }
                self.push_event(
                    submit + self.config.t_buffer_us,
                    EventKind::WriteAccepted { req: id },
                );
            }
            HostOp::Read => {
                for lpn in req.lpns() {
                    if self.buffer.contains(lpn) {
                        self.push_event(
                            submit + self.config.t_buffer_us,
                            EventKind::ReadPartServed { req: id },
                        );
                        continue;
                    }
                    let ctx = self.ctx();
                    match ftl.read_page(lpn, &ctx) {
                        Some(pr) => {
                            self.enqueue_chip_op(
                                pr.chip,
                                ChipOp::Read {
                                    req: id,
                                    nand_us: pr.nand_us,
                                },
                            );
                        }
                        None => {
                            // Never-written page: served as an unmapped
                            // read at DRAM speed.
                            self.push_event(
                                submit + self.config.t_buffer_us,
                                EventKind::ReadPartServed { req: id },
                            );
                        }
                    }
                }
            }
        }
    }

    /// One page of read request `req` was served (from buffer or NAND).
    fn read_part_done<H: HostFront + ?Sized>(&mut self, req: usize, host: &mut H) {
        let r = self.requests.get_mut(req);
        r.pages_left -= 1;
        if r.pages_left == 0 {
            self.finish_request(req, host);
        }
    }

    /// Completes request `req` and hands its token back to the host. An
    /// event completes at most one request, so the host sees completions
    /// in completion order, each before the poll at its instant.
    fn finish_request<H: HostFront + ?Sized>(&mut self, req: usize, host: &mut H) {
        // The slot is freed here and nowhere else. No later event names
        // it: a read's last `ReadPartServed`/`ChipOp::Read` and a write's
        // or trim's single `WriteAccepted` are the only ways in.
        let r = self.requests.remove(req);
        let latency = self.now - r.arrival_us;
        let (op, lpn) = (r.op, r.lpn);
        host.complete(r.token, self.now);
        match op {
            HostOp::Write => {
                self.write_latency.record(latency);
                self.writes_done += 1;
                self.acked_write_pages += u64::from(r.pages_left);
            }
            HostOp::Read => {
                self.read_latency.record(latency);
                self.reads_done += 1;
            }
            HostOp::Trim => self.trims_done += 1,
        }
        self.completed += 1;
        self.outstanding -= 1;
        if self.trace.wants(EventMask::HOST_IO) {
            let op = match op {
                HostOp::Read => "read",
                HostOp::Write => "write",
                HostOp::Trim => "trim",
            };
            self.trace.emit(
                self.now,
                TraceKind::HostIo {
                    op,
                    lpn,
                    latency_us: latency,
                },
            );
        }
    }

    fn enqueue_chip_op(&mut self, chip: usize, op: ChipOp) {
        assert!(chip < self.chips.len(), "FTL returned invalid chip {chip}");
        if matches!(op, ChipOp::Flush { .. }) {
            self.chips[chip].pending_flushes += 1;
        }
        self.chips[chip].queue.push_back(op);
        let depth = self.chips[chip].queue.len() + usize::from(self.chips[chip].busy);
        let c = &mut self.chips[chip];
        c.stats.max_queue_depth = c.stats.max_queue_depth.max(depth);
        if !self.chips[chip].busy {
            self.start_next_op(chip);
        }
    }

    fn start_next_op(&mut self, chip: usize) {
        let Some(op) = self.chips[chip].queue.pop_front() else {
            return;
        };
        let bus = chip % self.config.buses;
        let pages = match &op {
            ChipOp::Read { .. } | ChipOp::Rebuild { .. } => 1.0,
            ChipOp::Flush { lpns, .. } => lpns.iter().filter(|&&l| l != u64::MAX).count() as f64,
            ChipOp::Maint { .. } => 0.0,
        };
        let nand_us = match &op {
            ChipOp::Read { nand_us, .. }
            | ChipOp::Flush { nand_us, .. }
            | ChipOp::Maint { nand_us }
            | ChipOp::Rebuild { nand_us } => *nand_us,
        };
        let done = if pages > 0.0 {
            let transfer = pages * self.config.t_xfer_page_us;
            let start = self.now.max(self.bus_free_at[bus]);
            self.bus_free_at[bus] = start + transfer;
            start + transfer + nand_us
        } else {
            // Bus-less (on-chip) operation.
            self.now + nand_us
        };
        self.chips[chip].busy = true;
        self.chips[chip].stats.busy_us += done - self.now;
        self.chips[chip].current = Some(op);
        self.push_event(done, EventKind::ChipIdle { chip });
    }

    fn chip_op_done<F, H>(&mut self, chip: usize, ftl: &mut F, host: &mut H)
    where
        F: FtlDriver + ?Sized,
        H: HostFront + ?Sized,
    {
        let op = self.chips[chip]
            .current
            .take()
            .expect("chip completion without an operation");
        self.chips[chip].busy = false;
        match op {
            ChipOp::Read { req, .. } => self.read_part_done(req, host),
            ChipOp::Flush {
                lpns,
                nand_us,
                did_gc,
            } => {
                // GC-free flushes are the run's tPROG proxy: the NAND
                // time is the WL program alone.
                if !did_gc {
                    if let Some(s) = &mut self.sampler {
                        s.win_tprog.record(nand_us);
                    }
                }
                self.chips[chip].pending_flushes -= 1;
                self.buffer.complete_flush(lpns);
                self.retry_stalled_writes();
            }
            ChipOp::Maint { .. } => {
                // Starvation bound: the chip now belongs to host traffic
                // for at least the configured gap.
                let gap_us = self
                    .maint_gap_us
                    .expect("maintenance ops run only when armed");
                self.chips[chip].maint_allowed_at = self.now + gap_us;
            }
            ChipOp::Rebuild { .. } => self.rebuild_op_done(),
        }
        self.start_next_op(chip);
        self.try_flush(ftl);
    }

    /// One rebuild page op finished on a chip; the last of its unit
    /// closes the unit.
    fn rebuild_op_done(&mut self) {
        debug_assert!(self.rebuild_inflight > 0, "rebuild completion unaccounted");
        self.rebuild_inflight -= 1;
        if self.rebuild_inflight == 0 {
            self.close_rebuild_unit();
        }
    }

    /// Closes a rebuild unit: checkpoint the progress curve, start the
    /// host-priority gap, and keep the liveness timer armed while work
    /// remains.
    fn close_rebuild_unit(&mut self) {
        let gap = self.rebuild_sched.map_or(0.0, |s| s.gap_us.max(1.0));
        self.rebuild_allowed_at = self.now + gap;
        self.rebuild_progress
            .curve
            .push((self.now, self.rebuild_progress.ops_done()));
        if self.rebuild_queue.is_empty() {
            self.rebuild_progress.done_at_us = self.now;
        } else {
            self.arm_rebuild_tick(self.rebuild_allowed_at);
        }
    }

    /// Pushes the rebuild liveness timer unless one is already pending.
    fn arm_rebuild_tick(&mut self, at: f64) {
        if self.rebuild_tick_armed {
            return;
        }
        self.rebuild_tick_armed = true;
        self.push_event(at.max(self.now), EventKind::RebuildTick);
    }

    fn retry_stalled_writes(&mut self) {
        while let Some(front) = self.stalled.front() {
            if !self.buffer.has_room(front.pages as usize) {
                break;
            }
            let sw = self.stalled.pop_front().expect("front exists");
            for lpn in sw.lpn..sw.lpn + u64::from(sw.pages) {
                let accepted = self.buffer.push(lpn);
                debug_assert!(accepted, "room was checked");
            }
            self.push_event(
                self.now + self.config.t_buffer_us,
                EventKind::WriteAccepted { req: sw.req },
            );
        }
    }

    fn try_flush<F: FtlDriver + ?Sized>(&mut self, ftl: &mut F) {
        loop {
            let min_pages = if self.stalled.is_empty() { 3 } else { 1 };
            if self.buffer.queued() < min_pages {
                return;
            }
            // Pick the least-loaded chip that can still accept a flush.
            let Some(chip) = self.pick_flush_chip(ftl) else {
                return;
            };
            let Some(lpns) = self.buffer.take_for_flush(min_pages) else {
                return;
            };
            let ctx = self.ctx();
            let w = ftl.write_wl(chip, lpns, &ctx);
            self.enqueue_chip_op(
                chip,
                ChipOp::Flush {
                    lpns,
                    nand_us: w.nand_us,
                    did_gc: w.did_gc,
                },
            );
        }
    }

    /// Offers every idle chip to the FTL's maintenance hook. Runs only
    /// while host requests are outstanding, so maintenance can never
    /// keep the event loop alive past the workload — and an idle poll
    /// that finds nothing due backs the chip off by the host-priority
    /// gap rather than re-asking on every event.
    fn try_maint<F: FtlDriver + ?Sized>(&mut self, ftl: &mut F) {
        let Some(gap_us) = self.maint_gap_us else {
            return;
        };
        if self.outstanding == 0 {
            return;
        }
        for chip in 0..self.chips.len() {
            let c = &self.chips[chip];
            if c.busy || !c.queue.is_empty() || self.now < c.maint_allowed_at {
                continue;
            }
            let ctx = self.ctx();
            match ftl.maintenance_step(chip, &ctx) {
                Some(work) => {
                    self.chips[chip].stats.maint_ops += 1;
                    self.chips[chip].stats.maint_us += work.nand_us;
                    self.enqueue_chip_op(
                        chip,
                        ChipOp::Maint {
                            nand_us: work.nand_us,
                        },
                    );
                }
                None => self.chips[chip].maint_allowed_at = self.now + gap_us.max(1.0),
            }
        }
    }

    /// Dispatches the next rebuild unit when the service is armed, no
    /// unit is in flight, the host-priority gap has elapsed, and an
    /// idle window is open (at least one chip has nothing queued — the
    /// maintenance scheduler's idleness signal). The unit then
    /// dispatches atomically: each op makes exactly one FTL call, so
    /// FTL side effects cannot depend on how often a slice boundary
    /// re-polls the service — the precondition checks are state-only.
    /// Counters account ops at dispatch; the unit closes (and the
    /// curve checkpoints) when the last of its ops completes.
    fn try_rebuild<F: FtlDriver + ?Sized>(&mut self, ftl: &mut F) {
        let Some(sched) = self.rebuild_sched else {
            return;
        };
        if self.rebuild_queue.is_empty() || self.rebuild_inflight > 0 {
            return;
        }
        if self.now < self.rebuild_allowed_at {
            self.arm_rebuild_tick(self.rebuild_allowed_at);
            return;
        }
        let idle_window = self.chips.iter().any(|c| !c.busy && c.queue.is_empty());
        if !idle_window {
            // Device saturated by host work: back off by the gap. The
            // timer lands strictly in the future (gap ≥ 1 µs), so a
            // blocked poll cannot spin at one timestamp; chip-idle
            // events re-poll sooner anyway.
            self.arm_rebuild_tick(self.now + sched.gap_us.max(1.0));
            return;
        }
        let mut dispatched = 0u32;
        while dispatched < sched.batch_pages {
            let Some(op) = self.rebuild_queue.pop_front() else {
                break;
            };
            dispatched += 1;
            match op {
                RebuildOp::Read(lpn) => {
                    let ctx = self.ctx();
                    match ftl.read_page(lpn, &ctx) {
                        Some(pr) => {
                            self.rebuild_inflight += 1;
                            self.rebuild_progress.reads_done += 1;
                            self.enqueue_chip_op(
                                pr.chip,
                                ChipOp::Rebuild {
                                    nand_us: pr.nand_us,
                                },
                            );
                        }
                        None => {
                            // Never-mapped page: nothing durable to
                            // fetch — account and move on.
                            self.rebuild_progress.skipped += 1;
                        }
                    }
                }
                RebuildOp::Write(lpn) => {
                    let chip = self.pick_rebuild_chip();
                    let ctx = self.ctx();
                    let w = ftl.write_wl(chip, [lpn, u64::MAX, u64::MAX], &ctx);
                    self.rebuild_inflight += 1;
                    self.rebuild_progress.writes_done += 1;
                    self.enqueue_chip_op(chip, ChipOp::Rebuild { nand_us: w.nand_us });
                }
            }
        }
        if dispatched > 0 && self.rebuild_inflight == 0 {
            // The whole unit was skips: close it here, nothing will
            // complete on a chip.
            self.close_rebuild_unit();
        }
    }

    /// The chip for the next rebuild write: the first idle chip from
    /// the round-robin cursor when one exists (preferring the idle
    /// window), else plain round-robin — reconstruction load spreads
    /// over the spare's chips either way.
    fn pick_rebuild_chip(&mut self) -> usize {
        let n = self.chips.len();
        for i in 0..n {
            let chip = (self.rebuild_chip + i) % n;
            if !self.chips[chip].busy && self.chips[chip].queue.is_empty() {
                self.rebuild_chip = (chip + 1) % n;
                return chip;
            }
        }
        let chip = self.rebuild_chip % n;
        self.rebuild_chip = (chip + 1) % n;
        chip
    }

    /// Emits a sample row for every interval threshold at or below `t`.
    /// Called just before simulated time advances to `t`, so each row
    /// reflects the device state at its threshold instant (nothing can
    /// change between two consecutive event times).
    fn sample_until<F: FtlDriver + ?Sized>(&mut self, t: f64, ftl: &F) {
        if self.sampler.is_none() {
            return;
        }
        let mut s = self.sampler.take().expect("sampler present");
        while s.next_us <= t {
            let stats = ftl.stats();
            let d_completed = self.completed - s.win_completed;
            let d_reads = stats.nand_reads - s.last_ftl.nand_reads;
            let d_retries = stats.read_retries - s.last_ftl.read_retries;
            s.series.push(
                s.shard,
                SampleRow {
                    t_us: s.next_us,
                    completed: self.completed,
                    iops: d_completed as f64 / (s.interval_us / 1e6),
                    tprog_mean_us: s.win_tprog.mean(),
                    tprog_p99_us: s.win_tprog.percentile(99.0),
                    retry_rate: if d_reads == 0 {
                        0.0
                    } else {
                        d_retries as f64 / d_reads as f64
                    },
                    queue_depth: self
                        .chips
                        .iter()
                        .map(|c| c.queue.len() as u64 + u64::from(c.busy))
                        .sum(),
                    free_blocks: ftl.free_blocks(),
                    wa_total: stats.wa_total().unwrap_or(0.0),
                },
            );
            s.win_completed = self.completed;
            s.win_tprog = LogHistogram::new();
            s.last_ftl = stats;
            s.next_us += s.interval_us;
        }
        self.sampler = Some(s);
    }

    fn pick_flush_chip<F: FtlDriver + ?Sized>(&self, ftl: &F) -> Option<usize> {
        self.chips
            .iter()
            .enumerate()
            .filter(|(_, c)| c.pending_flushes < self.config.max_pending_flush_per_chip)
            .filter(|(i, _)| ftl.accepts_flush(*i))
            .min_by_key(|(_, c)| (c.queue.len() + usize::from(c.busy), c.pending_flushes))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{FtlStats, PageRead, WlWrite};
    use crate::front::FrontRequest;
    use std::collections::HashMap;

    /// A stub FTL with fixed latencies, striping reads by LPN.
    struct StubFtl {
        chips: usize,
        program_us: f64,
        read_us: f64,
        mapped: HashMap<u64, usize>,
        stats: FtlStats,
        utilizations: Vec<f64>,
        /// Background-maintenance units this stub still wants to run
        /// (0 = never asks for maintenance).
        maint_budget: u64,
        /// A chip that accepts no flush.
        full_chip: Option<usize>,
    }

    impl StubFtl {
        fn new(chips: usize) -> Self {
            StubFtl {
                chips,
                program_us: 700.0,
                read_us: 80.0,
                mapped: HashMap::new(),
                stats: FtlStats::default(),
                utilizations: Vec::new(),
                maint_budget: 0,
                full_chip: None,
            }
        }
    }

    impl FtlDriver for StubFtl {
        fn write_wl(&mut self, chip: usize, lpns: [u64; 3], ctx: &HostContext) -> WlWrite {
            self.utilizations.push(ctx.buffer_utilization);
            for lpn in lpns {
                if lpn != u64::MAX {
                    self.mapped.insert(lpn, chip);
                }
            }
            self.stats.host_wl_programs += 1;
            WlWrite {
                nand_us: self.program_us,
                did_gc: false,
                leader: true,
            }
        }

        fn accepts_flush(&self, chip: usize) -> bool {
            self.full_chip != Some(chip)
        }

        fn read_page(&mut self, lpn: u64, _ctx: &HostContext) -> Option<PageRead> {
            let chip = *self.mapped.get(&lpn)?;
            self.stats.nand_reads += 1;
            Some(PageRead {
                chip: chip % self.chips,
                nand_us: self.read_us,
                retries: 0,
            })
        }

        fn trim(&mut self, lpn: u64) {
            if self.mapped.remove(&lpn).is_some() {
                self.stats.host_trims += 1;
            }
        }

        fn maintenance_step(
            &mut self,
            _chip: usize,
            _ctx: &HostContext,
        ) -> Option<crate::driver::MaintWork> {
            if self.maint_budget == 0 {
                return None;
            }
            self.maint_budget -= 1;
            self.stats.scrub_blocks += 1;
            Some(crate::driver::MaintWork { nand_us: 300.0 })
        }

        fn stats(&self) -> FtlStats {
            self.stats
        }

        fn name(&self) -> &str {
            "stub"
        }
    }

    /// An open-loop stub front: request `i` arrives at `arrivals[i].0`
    /// with token `i`, waits in one FIFO, and completions are logged.
    struct StubFront {
        arrivals: Vec<(f64, HostRequest)>,
        consumed: usize,
        queue: VecDeque<FrontRequest>,
        done: Vec<(u32, f64)>,
    }

    impl StubFront {
        /// `n` mixed requests over LPNs `0..120`, request `i` arriving at
        /// `at(i)` µs (non-decreasing).
        fn new(n: u64, at: impl Fn(u64) -> f64) -> Self {
            Self::from_requests(mixed_requests(n), at)
        }

        /// `requests`, request `i` arriving at `at(i)` µs (non-decreasing).
        fn from_requests(
            requests: impl Iterator<Item = HostRequest>,
            at: impl Fn(u64) -> f64,
        ) -> Self {
            StubFront {
                arrivals: requests.zip(0..).map(|(r, i)| (at(i), r)).collect(),
                consumed: 0,
                queue: VecDeque::new(),
                done: Vec::new(),
            }
        }
    }

    impl HostFront for StubFront {
        fn next_arrival_us(&self) -> Option<f64> {
            self.arrivals.get(self.consumed).map(|a| a.0)
        }

        fn advance(&mut self, now_us: f64) {
            while let Some(&(t, req)) = self.arrivals.get(self.consumed) {
                if t > now_us {
                    break;
                }
                let token = self.consumed as u32;
                self.queue.push_back(FrontRequest { req, token });
                self.consumed += 1;
            }
        }

        fn pop(&mut self, _now_us: f64) -> Option<FrontRequest> {
            self.queue.pop_front()
        }

        fn complete(&mut self, token: u32, now_us: f64) {
            self.done.push((token, now_us));
        }

        fn exhausted(&self) -> bool {
            self.consumed == self.arrivals.len() && self.queue.is_empty()
        }
    }

    fn mixed_requests(n: u64) -> impl Iterator<Item = HostRequest> + Clone {
        (0..n).map(|i| match i % 3 {
            0 => HostRequest::read(i % 120),
            1 => HostRequest::write(i % 120),
            _ => HostRequest::read_span(i % 100, 3),
        })
    }

    /// [`mixed_requests`] with every seventh request a 2-page trim and
    /// every seventh a 5-page write (which stalls the 16-page buffer).
    fn mixed_with_trims(n: u64) -> impl Iterator<Item = HostRequest> + Clone {
        mixed_requests(n).zip(0u64..).map(|(r, i)| match i % 7 {
            3 => HostRequest::trim_span(i % 110, 2),
            5 => HostRequest::write_span(i % 100, 5),
            _ => r,
        })
    }

    /// A small device with LPNs `0..120` mapped.
    fn prefilled() -> (SsdSim, StubFtl) {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        sim.prefill(&mut ftl, 0..120);
        (sim, ftl)
    }

    #[test]
    fn pure_write_workload_is_bound_by_flush_throughput() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let n = 600u64;
        let report = sim.run(&mut ftl, (0..n).map(HostRequest::write), n);
        assert_eq!(report.completed, n);
        assert_eq!(report.writes, n);
        // 600 pages = 200 WLs over 2 chips ≈ 100 sequential programs of
        // (60 µs transfer + 700 µs NAND), with a single bus serializing
        // transfers. Expect sim time in the right ballpark.
        let min_expected = 100.0 * 700.0; // perfect overlap
        let max_expected = 200.0 * 800.0; // fully serial
        assert!(
            (min_expected..max_expected).contains(&report.sim_time_us),
            "sim time {} µs",
            report.sim_time_us
        );
        assert_eq!(ftl.stats.host_wl_programs, 200);
    }

    #[test]
    fn buffered_writes_complete_fast_until_backpressure() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let report = sim.run(&mut ftl, (0..400u64).map(HostRequest::write), 400);
        let lat = report.write_latency;
        // The fastest writes (those that find buffer room — the first
        // ~buffer_pages of them) only pay the buffer latency...
        assert!(lat.percentile(2.0) <= cfg.t_buffer_us + 1e-9);
        // ... while the tail pays for NAND programs (backpressure).
        assert!(lat.percentile(99.0) > 100.0);
    }

    #[test]
    fn flushes_pass_over_a_chip_that_accepts_none() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        ftl.full_chip = Some(0);
        let report = sim.run(&mut ftl, (0..400u64).map(HostRequest::write), 400);
        assert_eq!(report.writes, 400, "the other chips absorb every write");
        assert!(ftl.mapped.values().all(|&chip| chip != 0));
    }

    #[test]
    fn reads_after_writes_hit_nand_with_read_latency() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        sim.prefill(&mut ftl, 0..1000);
        let report = sim.run(&mut ftl, (0..1000u64).map(HostRequest::read), 1000);
        assert_eq!(report.reads, 1000);
        assert!(report.ftl.nand_reads >= 1000);
        let lat = report.read_latency;
        assert!(lat.percentile(50.0) >= 80.0, "NAND reads cost ≥ tREAD");
        assert!(report.iops > 0.0);
    }

    #[test]
    fn buffer_hits_serve_reads_at_dram_speed() {
        let cfg = SsdConfig {
            buffer_pages: 64,
            ..SsdConfig::small()
        };
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        // Write 2 pages then immediately read them back: the reads should
        // mostly hit the buffer (flushes need 3 queued pages).
        let reqs = vec![
            HostRequest::write(1),
            HostRequest::write(2),
            HostRequest::read(1),
            HostRequest::read(2),
        ];
        let report = sim.run(&mut ftl, reqs, 4);
        assert_eq!(report.completed, 4);
        assert_eq!(report.ftl.nand_reads, 0, "reads must hit the buffer");
    }

    #[test]
    fn mixed_workload_completes_and_reports_utilization() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        sim.prefill(&mut ftl, 0..64);
        let reqs: Vec<HostRequest> = (0..500u64)
            .map(|i| {
                if i % 2 == 0 {
                    HostRequest::write(i % 64)
                } else {
                    HostRequest::read(i % 64)
                }
            })
            .collect();
        let report = sim.run(&mut ftl, reqs, 500);
        assert_eq!(report.completed, 500);
        assert!(report.reads > 0 && report.writes > 0);
        assert!(!ftl.utilizations.is_empty());
        assert!(ftl.utilizations.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn multi_page_requests_complete_once() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        sim.prefill(&mut ftl, 0..32);
        let reqs = vec![
            HostRequest::write_span(0, 6),
            HostRequest::read_span(0, 6),
            HostRequest::read_span(8, 4),
        ];
        let report = sim.run(&mut ftl, reqs, 3);
        assert_eq!(report.completed, 3);
        assert_eq!(report.writes, 1);
        assert_eq!(report.reads, 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SsdConfig::small();
        let reqs: Vec<HostRequest> = (0..300u64)
            .map(|i| {
                if i % 3 == 0 {
                    HostRequest::read(i % 50)
                } else {
                    HostRequest::write(i % 50)
                }
            })
            .collect();
        let run = || {
            let mut sim = SsdSim::new(cfg);
            let mut ftl = StubFtl::new(cfg.chips);
            sim.prefill(&mut ftl, 0..50);
            let r = sim.run(&mut ftl, reqs.clone(), 300);
            (r.iops, r.sim_time_us, r.completed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn engine_is_reusable() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let a = sim.run(&mut ftl, (0..60u64).map(HostRequest::write), 60);
        let b = sim.run(&mut ftl, (0..60u64).map(HostRequest::write), 60);
        assert_eq!(a.completed, b.completed);
        assert!((a.sim_time_us - b.sim_time_us).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "larger than the write buffer")]
    fn oversized_request_rejected() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        sim.run(
            &mut ftl,
            std::iter::once(HostRequest::write_span(0, 1000)),
            1,
        );
    }

    #[test]
    fn more_buses_reduce_transfer_contention() {
        // A read-heavy workload over two chips: with a single bus the
        // transfers serialize; with two buses they overlap, so the run
        // finishes strictly sooner.
        let run_with = |buses: usize| {
            let cfg = SsdConfig {
                chips: 2,
                buses,
                queue_depth: 8,
                buffer_pages: 16,
                t_submit_us: 0.5,
                t_buffer_us: 5.0,
                t_xfer_page_us: 150.0, // transfer-dominated: one bus saturates
                max_pending_flush_per_chip: 2,
            };
            let mut sim = SsdSim::new(cfg);
            let mut ftl = StubFtl::new(cfg.chips);
            sim.prefill(&mut ftl, 0..512);
            sim.run(
                &mut ftl,
                (0..2000u64).map(|i| HostRequest::read(i % 512)),
                2000,
            )
            .sim_time_us
        };
        let one = run_with(1);
        let two = run_with(2);
        assert!(
            two < one * 0.85,
            "two buses ({two} µs) should beat one bus ({one} µs)"
        );
    }

    #[test]
    fn flushes_spread_across_chips() {
        // With all chips idle, consecutive flushes must fan out rather
        // than pile onto chip 0.
        let cfg = SsdConfig {
            chips: 4,
            buses: 2,
            ..SsdConfig::small()
        };
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let report = sim.run(&mut ftl, (0..240u64).map(HostRequest::write), 240);
        assert_eq!(report.completed, 240);
        let mut per_chip = [0u32; 4];
        for chip in ftl.mapped.values() {
            per_chip[*chip] += 1;
        }
        for (i, count) in per_chip.iter().enumerate() {
            assert!(*count > 0, "chip {i} never received a flush: {per_chip:?}");
        }
    }

    #[test]
    fn stalled_writes_all_complete_exactly_once() {
        // Saturate the buffer; every issued write must complete exactly
        // once despite stalling.
        let cfg = SsdConfig {
            buffer_pages: 6,
            ..SsdConfig::small()
        };
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let n = 300u64;
        let report = sim.run(&mut ftl, (0..n).map(HostRequest::write), n);
        assert_eq!(report.writes, n);
        assert_eq!(report.write_latency.len(), n);
    }

    #[test]
    fn trims_complete_fast_and_unmap() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        sim.prefill(&mut ftl, 0..30);
        let reqs = vec![
            HostRequest::trim_span(0, 10),
            HostRequest::read(0),
            HostRequest::read(20),
        ];
        let report = sim.run(&mut ftl, reqs, 3);
        assert_eq!(report.trims, 1);
        assert_eq!(report.reads, 2);
        // The trimmed page reads as unmapped (DRAM-speed in the stub's
        // case: the mapping is gone so read_page returns None).
        assert!(!ftl.mapped.contains_key(&0));
        assert!(ftl.mapped.contains_key(&20));
    }

    #[test]
    fn wa_host_reported() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let report = sim.run(&mut ftl, (0..120u64).map(HostRequest::write), 120);
        // The stub never garbage-collects, so WA = 1 exactly.
        assert_eq!(report.wa_host(), Some(1.0));
        // A fresh FTL that never wrote reports no WA.
        let mut fresh = StubFtl::new(cfg.chips);
        let empty = sim.run(&mut fresh, std::iter::empty(), 0);
        assert_eq!(empty.wa_host(), None);
    }

    #[test]
    fn queue_stats_are_collected() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let report = sim.run(&mut ftl, (0..200u64).map(HostRequest::write), 200);
        assert_eq!(report.chip_stats.len(), cfg.chips);
        assert!(report.max_queue_depth() >= 1);
        let busy = report.mean_busy_fraction();
        assert!(
            busy > 0.0 && busy <= 1.0,
            "busy fraction out of range: {busy}"
        );
        for c in &report.chip_stats {
            assert!(c.busy_us <= report.sim_time_us + 1e-9);
        }
    }

    #[test]
    fn maintenance_runs_in_idle_windows_and_is_counted() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        sim.enable_maintenance(50.0);
        let mut ftl = StubFtl::new(cfg.chips);
        ftl.maint_budget = 40;
        sim.prefill(&mut ftl, 0..512);
        let report = sim.run(
            &mut ftl,
            (0..2000u64).map(|i| HostRequest::read(i % 512)),
            2000,
        );
        assert_eq!(report.completed, 2000);
        let bg = report.background_ops();
        assert!(bg > 0, "idle windows should admit background work");
        assert_eq!(bg, report.ftl.scrub_blocks, "counters must agree");
        assert!(report.chip_stats.iter().any(|c| c.maint_us > 0.0));
    }

    #[test]
    fn maintenance_disabled_never_dispatches() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg); // maintenance never armed
        let mut ftl = StubFtl::new(cfg.chips);
        ftl.maint_budget = 40;
        let report = sim.run(&mut ftl, (0..200u64).map(HostRequest::write), 200);
        assert_eq!(report.background_ops(), 0);
        assert_eq!(ftl.maint_budget, 40, "hook must never be polled");
    }

    #[test]
    fn endless_maintenance_demand_cannot_stall_the_run() {
        // An FTL that always has maintenance due must not keep the event
        // loop alive after the host workload drains.
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        sim.enable_maintenance(10.0);
        let mut ftl = StubFtl::new(cfg.chips);
        ftl.maint_budget = u64::MAX;
        let report = sim.run(&mut ftl, (0..120u64).map(HostRequest::write), 120);
        assert_eq!(report.completed, 120);
        assert!(report.background_ops() > 0);
    }

    #[test]
    fn larger_host_priority_gap_throttles_maintenance() {
        let run_with = |gap: f64| {
            let cfg = SsdConfig::small();
            let mut sim = SsdSim::new(cfg);
            sim.enable_maintenance(gap);
            let mut ftl = StubFtl::new(cfg.chips);
            ftl.maint_budget = u64::MAX;
            // All three LPNs land on chip 0, so chip 1 sees host traffic
            // never and is limited purely by the gap.
            sim.prefill(&mut ftl, 0..3);
            sim.run(
                &mut ftl,
                (0..1500u64).map(|i| HostRequest::read(i % 3)),
                1500,
            )
            .background_ops()
        };
        let eager = run_with(10.0);
        let throttled = run_with(5_000.0);
        assert!(
            throttled < eager,
            "gap 5000 µs ({throttled} ops) should throttle vs 10 µs ({eager} ops)"
        );
    }

    #[test]
    fn wa_total_includes_maintenance_moves() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let mut report = sim.run(&mut ftl, (0..120u64).map(HostRequest::write), 120);
        assert_eq!(report.wa_host(), report.wa_total());
        // Maintenance moves inflate only the total.
        report.ftl.scrub_page_moves = report.ftl.host_wl_programs * 3;
        assert_eq!(report.wa_host(), Some(1.0));
        assert_eq!(report.wa_total(), Some(2.0));
    }

    #[test]
    fn zero_requests_is_a_noop() {
        let cfg = SsdConfig::small();
        let mut sim = SsdSim::new(cfg);
        let mut ftl = StubFtl::new(cfg.chips);
        let report = sim.run(&mut ftl, std::iter::empty(), 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.iops, 0.0);
    }

    #[test]
    fn rebuild_service_drains_past_the_workload_and_is_slice_invariant() {
        let run_with = |max_events: u64| {
            let cfg = SsdConfig::small();
            let mut sim = SsdSim::new(cfg);
            let mut ftl = StubFtl::new(cfg.chips);
            sim.prefill(&mut ftl, 0..120);
            sim.run_begin(60, None);
            let ops = (0..50u64)
                .map(RebuildOp::Read)
                .chain([RebuildOp::Read(9_999)]) // never mapped: skipped
                .chain((5_000..5_030u64).map(RebuildOp::Write));
            sim.arm_rebuild(
                RebuildSchedule {
                    batch_pages: 4,
                    gap_us: 50.0,
                },
                ops,
            );
            let mut workload = (0..60u64).map(|i| HostRequest::read(i % 120));
            while sim.run_step(&mut ftl, &mut workload, max_events) == StepOutcome::Running {}
            let progress = sim.rebuild_progress().clone();
            let (report, _) = sim.run_end(&ftl);
            (format!("{report:?}"), progress)
        };
        let (report_a, prog) = run_with(u64::MAX);
        assert_eq!(prog.reads_done, 50);
        assert_eq!(prog.skipped, 1);
        assert_eq!(prog.writes_done, 30);
        assert_eq!(prog.ops_done(), 81);
        assert!(
            prog.done_at_us > 0.0,
            "queue must drain even after the host workload ends"
        );
        assert!(!prog.curve.is_empty());
        assert!(
            prog.curve
                .windows(2)
                .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1),
            "rebuild curve must be monotonic"
        );
        assert_eq!(prog.curve.last().unwrap().1, 81);
        // Step-slice budgets must not leak into results or progress.
        let (report_b, prog_b) = run_with(7);
        assert_eq!(report_a, report_b);
        assert_eq!(prog, prog_b);
    }

    #[test]
    fn rebuild_gap_paces_units() {
        let done_at = |gap_us: f64| {
            let cfg = SsdConfig::small();
            let mut sim = SsdSim::new(cfg);
            let mut ftl = StubFtl::new(cfg.chips);
            sim.prefill(&mut ftl, 0..60);
            sim.run_begin(0, None);
            sim.arm_rebuild(
                RebuildSchedule {
                    batch_pages: 2,
                    gap_us,
                },
                (0..40u64).map(RebuildOp::Read),
            );
            let mut workload = std::iter::empty();
            while sim.run_step(&mut ftl, &mut workload, u64::MAX) == StepOutcome::Running {}
            assert_eq!(sim.rebuild_progress().reads_done, 40);
            sim.rebuild_progress().done_at_us
        };
        let fast = done_at(10.0);
        let slow = done_at(2_000.0);
        assert!(
            slow > fast,
            "larger host-priority gap must stretch the rebuild ({fast} vs {slow})"
        );
    }

    #[test]
    fn front_driven_run_is_slice_invariant() {
        // A burst that saturates the queue, then sparse arrivals the
        // engine has to jump to.
        let at = |i: u64| {
            if i < 100 {
                i as f64 * 35.0
            } else {
                50_000.0 + i as f64 * 1_500.0
            }
        };
        let run_with = |max_events: u64| {
            let (mut sim, mut ftl) = prefilled();
            let mut front = StubFront::new(200, at);
            sim.run_begin(u64::MAX, None);
            while sim.run_step(&mut ftl, &mut front, max_events) == StepOutcome::Running {}
            assert!(front.exhausted());
            (format!("{:?}", sim.run_end(&ftl).0), front.done)
        };
        let whole = run_with(u64::MAX);
        assert_eq!(whole.1.len(), 200);
        assert!(whole.1.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(whole, run_with(1));
        assert_eq!(whole, run_with(7));
    }

    #[test]
    fn an_iterator_gives_one_report_through_every_entry_point() {
        let (mut sim, mut ftl) = prefilled();
        let via_run = format!("{:?}", sim.run(&mut ftl, mixed_requests(300), 300));

        let (mut sim, mut ftl) = prefilled();
        let mut stream = mixed_requests(300);
        sim.run_begin(300, None);
        while sim.run_step(&mut ftl, &mut stream, 7) == StepOutcome::Running {}
        assert_eq!(via_run, format!("{:?}", sim.run_end(&ftl).0));

        let (mut sim, mut ftl) = prefilled();
        let mut stream = mixed_requests(300);
        sim.run_front_begin(300);
        while sim.run_step_front(&mut ftl, &mut stream, 7) == StepOutcome::Running {}
        assert_eq!(via_run, format!("{:?}", sim.run_front_end(&ftl)));
    }

    #[test]
    fn timed_cut_under_a_front_precedes_arrivals_and_completions_at_its_instant() {
        // Sparse arrivals: the device idles between them, so the cut at
        // arrival 10's instant is decided on the arrival-jump path.
        let t_cut = 10_000.0;
        let (mut sim, mut ftl) = prefilled();
        let mut front = StubFront::new(40, |i| i as f64 * 1_000.0);
        sim.run_begin(u64::MAX, Some(SpoTrigger::AtTimeUs(t_cut)));
        let outcome = loop {
            match sim.run_step(&mut ftl, &mut front, 7) {
                StepOutcome::Running => {}
                done => break done,
            }
        };
        assert_eq!(outcome, StepOutcome::PowerCut);
        assert_eq!(
            sim.run_step(&mut ftl, &mut front, 7),
            StepOutcome::PowerCut,
            "a cut run stays cut"
        );
        let (report, event) = sim.run_end(&ftl);
        let event = event.expect("the trigger fired");
        assert_eq!(event.at_us, t_cut);
        assert_eq!(front.consumed, 10, "arrivals before the cut, none at it");
        assert_eq!(event.issued, 10);
        assert!(front.done.iter().all(|&(_, t)| t < t_cut));
        assert_eq!(front.done.len() as u64, event.completed);
        assert_eq!(report.completed, event.completed);
    }

    #[test]
    fn rebuild_under_a_front_drains_past_the_last_arrival_like_the_closed_loop() {
        let sched = RebuildSchedule {
            batch_pages: 4,
            gap_us: 50.0,
        };
        let ops = || {
            (0..50u64)
                .map(RebuildOp::Read)
                .chain((5_000..5_030u64).map(RebuildOp::Write))
        };
        let run_with = |host: &mut dyn HostFront| {
            let (mut sim, mut ftl) = prefilled();
            sim.run_begin(u64::MAX, None);
            sim.arm_rebuild(sched, ops());
            while sim.run_step(&mut ftl, host, 7) == StepOutcome::Running {}
            let progress = sim.rebuild_progress().clone();
            (format!("{:?}", sim.run_end(&ftl).0), progress)
        };
        // Every arrival at t = 0 *is* the closed loop: the backlog is
        // pulled at exactly the instants the iterator would be.
        let closed = run_with(&mut mixed_requests(60));
        assert_eq!(closed.1.ops_done(), 80);
        assert_eq!(closed, run_with(&mut StubFront::new(60, |_| 0.0)));

        // Timed arrivals: the service keeps the run alive past the last.
        let mut front = StubFront::new(20, |i| i as f64 * 100.0);
        let (_, progress) = run_with(&mut front);
        assert!(front.exhausted());
        assert_eq!(front.done.len(), 20);
        assert_eq!(progress.ops_done(), 80);
        assert!(
            progress.done_at_us > 1_900.0,
            "drained after the last arrival"
        );
    }

    #[test]
    fn request_table_is_bounded_by_queue_depth() {
        let n = 20_000u64;
        for queue_depth in [1usize, 4, 32] {
            let cfg = SsdConfig {
                queue_depth,
                ..SsdConfig::small()
            };
            let mut sim = SsdSim::new(cfg);
            let mut ftl = StubFtl::new(cfg.chips);
            sim.prefill(&mut ftl, 0..120);
            sim.run_begin(n, None);
            let mut stream = mixed_with_trims(n);
            while sim.run_step(&mut ftl, &mut stream, 1) == StepOutcome::Running {
                assert!(
                    sim.requests.slots() <= queue_depth,
                    "{} slots at queue depth {queue_depth}",
                    sim.requests.slots()
                );
            }
            assert!(sim.requests.slots() <= queue_depth);
            assert!(sim.requests.slots.iter().all(Option::is_none), "drained");
            assert_eq!(sim.requests.free.len(), sim.requests.slots());
            // The iterator front's tokens are all 0: completions can only
            // be counted against issues.
            assert_eq!(sim.issued, n);
            let report = sim.run_end(&ftl).0;
            assert_eq!(report.completed, n);
            assert!(report.trims > 0 && report.reads > 0);
            assert!(
                report.write_latency.max() > 100.0,
                "some writes must have stalled"
            );
        }
    }

    #[test]
    fn every_token_completes_once_across_slot_reuse() {
        // A saturating burst, then arrivals sparse enough for the table
        // to empty between them: slots are reused in both regimes.
        let n = 12_000u64;
        let at = |i: u64| {
            if i < 8_000 {
                i as f64 * 20.0
            } else {
                1_000_000.0 + i as f64 * 2_000.0
            }
        };
        let (mut sim, mut ftl) = prefilled();
        let mut front = StubFront::from_requests(mixed_with_trims(n), at);
        sim.run_begin(u64::MAX, None);
        while sim.run_step(&mut ftl, &mut front, 64) == StepOutcome::Running {}
        assert!(front.exhausted());
        assert!(sim.requests.slots() <= sim.config.queue_depth);
        assert_eq!(sim.run_end(&ftl).0.completed, n);
        let mut seen = vec![false; n as usize];
        for &(token, t_done) in &front.done {
            assert!(!seen[token as usize], "token {token} completed twice");
            seen[token as usize] = true;
            assert!(
                t_done >= front.arrivals[token as usize].0,
                "token {token} completed before it arrived"
            );
        }
        assert!(seen.iter().all(|&s| s), "every token completes");
    }

    #[test]
    fn spo_event_counts_match_the_grow_only_table() {
        // The expected numbers were printed by the engine as it was when
        // `requests` kept one entry per issued request for the whole run
        // and the acked-write ledger was rebuilt by walking it.
        for (queue_depth, at, issued, acked_write_pages, trimmed, buffered) in [
            (4usize, 1_500u64, 1_504u64, 1_428u64, 430usize, 12usize),
            (1, 700, 701, 667, 200, 8),
            (32, 2_345, 2_377, 2_180, 680, 16),
        ] {
            let cfg = SsdConfig {
                queue_depth,
                ..SsdConfig::small()
            };
            let mut sim = SsdSim::new(cfg);
            let mut ftl = StubFtl::new(cfg.chips);
            sim.prefill(&mut ftl, 0..120);
            sim.run_begin(4_000, Some(SpoTrigger::AtOps(at)));
            let mut stream = mixed_with_trims(4_000);
            let outcome = loop {
                match sim.run_step(&mut ftl, &mut stream, 7) {
                    StepOutcome::Running => {}
                    done => break done,
                }
            };
            assert_eq!(outcome, StepOutcome::PowerCut);
            let event = sim.run_end(&ftl).1.expect("the trigger fired");
            assert_eq!(event.issued, issued);
            assert_eq!(event.completed, at);
            assert_eq!(event.acked_write_pages, acked_write_pages);
            assert_eq!(event.trimmed_lpns.len(), trimmed);
            assert_eq!(event.buffered_lpns.len(), buffered);
        }
    }
}
