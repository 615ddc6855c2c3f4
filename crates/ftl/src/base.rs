//! The FTL family: one shared page-level engine, four parameter policies.
//!
//! [`Ftl`] owns the flash array, the page mapping, the free-block pools
//! and the garbage collector. A [`FtlKind`] selects how WLs are
//! allocated and parameterized:
//!
//! | kind | allocation | program params | read params |
//! |---|---|---|---|
//! | [`FtlKind::Page`] | horizontal-first | device defaults | default references |
//! | [`FtlKind::Vert`] | horizontal-first | offline conservative `V_Final` −1 step (all WLs) | default references |
//! | [`FtlKind::CubeMinus`] | horizontal-first | OPM (leaders default, followers optimized) | ORT |
//! | [`FtlKind::Cube`] | WAM (mixed order, `μ`-driven) | OPM | ORT |

use crate::config::FtlConfig;
use crate::cube::opm::Opm;
use crate::cube::wam::{Wam, WlChoice};
use crate::gc::{select_victim, select_victim_wear_aware};
use crate::maint::{MaintConfig, MaintState};
use crate::mapping::{Mapping, Ppn};
use crate::order::ProgramOrder;
use crate::recovery::{Checkpoint, RecoveryReport, CKPT_PAGE_PROGRAM_US, OOB_READ_US};
use lifetime::{block_pattern_stress, page_state_fraction, EpochSummary, LifetimeEngine};
use nand3d::{
    AgingState, BlockId, Environment, FaultCounters, FaultPlan, FlashArray, Geometry, OobStatus,
    PageAddr, PageState, ProgramParams, ReadFaultKind, ReadParams, WlAddr, WlData, WlOob,
};
use ssdsim::{FtlDriver, FtlStats, HostContext, MaintWork, PageRead, WlWrite};
use std::collections::VecDeque;
use telemetry::{Collector, EventKind, EventMask, MetricRegistry, TraceEvent};

/// Which FTL variant an [`Ftl`] instance behaves as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtlKind {
    /// `pageFTL` — the PS-unaware baseline (§6.1).
    Page,
    /// `vertFTL` — offline conservative `V_Final`-only adjustment, after
    /// Hung et al. \[13\] (§6.1).
    Vert,
    /// `cubeFTL-` — cubeFTL with the WAM disabled (§6.3).
    CubeMinus,
    /// `cubeFTL` — the full PS-aware FTL (§5).
    Cube,
}

impl FtlKind {
    /// All four variants in the paper's comparison order.
    pub const ALL: [FtlKind; 4] = [
        FtlKind::Page,
        FtlKind::Vert,
        FtlKind::CubeMinus,
        FtlKind::Cube,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            FtlKind::Page => "pageFTL",
            FtlKind::Vert => "vertFTL",
            FtlKind::CubeMinus => "cubeFTL-",
            FtlKind::Cube => "cubeFTL",
        }
    }

    /// Whether the variant uses the OPM (PS-aware parameters).
    pub fn ps_aware(self) -> bool {
        matches!(self, FtlKind::Cube | FtlKind::CubeMinus)
    }
}

/// Sequential (horizontal-first) write point for the non-WAM variants.
#[derive(Debug, Clone, Copy)]
struct SeqAlloc {
    block: BlockId,
    next: u32,
}

/// Page size used to charge checkpoint-flush latency (the paper's
/// platform uses 16-KB pages).
const CKPT_PAGE_BYTES: usize = 16 * 1024;

/// Periodic L2P-checkpointing state (crash consistency; see
/// [`crate::recovery`]).
#[derive(Debug)]
struct CkptState {
    /// Host WLs between checkpoint flushes.
    interval_host_wls: u64,
    /// Host WLs programmed since the last flush.
    host_wls_since: u64,
    /// Last flushed blob (the content of the reserved metadata region).
    blob: Option<Vec<u8>>,
    /// Checkpoints flushed so far.
    taken: u64,
    /// Cumulative metadata pages programmed into the region (the region
    /// is a ring: every `pages_per_block` of these recycles one block).
    pages_written: u64,
    /// Real chip-0 block backing the metadata region (allocated from
    /// the free pool at the first flush with headroom). Its ring
    /// erases are real, so its wear is visible to — and managed by —
    /// wear leveling and scrubbing like any other block. Empty while
    /// the region runs virtual (pool pressure, or pre-promotion
    /// recovery state).
    region: Vec<BlockId>,
}

/// A page-level FTL over a [`FlashArray`]. See the
/// [crate docs](crate) for the four variants.
#[derive(Debug)]
pub struct Ftl {
    kind: FtlKind,
    config: FtlConfig,
    array: FlashArray,
    mapping: Mapping,
    /// Per chip: erased blocks ready for allocation.
    free_blocks: Vec<VecDeque<BlockId>>,
    /// Per chip: whether each block is in the free pool.
    is_free: Vec<Vec<bool>>,
    /// Per chip: sequential write point (Page / Vert / CubeMinus).
    seq: Vec<Option<SeqAlloc>>,
    /// WAM (Cube only).
    wam: Option<Wam>,
    /// OPM (Cube and CubeMinus).
    opm: Option<Opm>,
    stats: FtlStats,
    /// Re-entrancy guard: GC's own writes must not trigger GC.
    in_gc: bool,
    /// Scratch list of the LPNs one page migration moves.
    migrate_lpns: Vec<u64>,
    /// Background maintenance services (when enabled).
    maint: Option<MaintState>,
    /// Whether the current write originates from a maintenance migration
    /// (excluded from host counters, like GC's own writes).
    in_maint: bool,
    /// Monotonic operation sequence number stamped on every OOB record
    /// and tagged erase (the total order crash recovery replays in).
    seq_counter: u64,
    /// Per chip: the block GC erased most recently (what an SPO cutting
    /// a GC-carrying flush interrupts mid-erase).
    last_gc_erase: Vec<Option<BlockId>>,
    /// Periodic L2P checkpointing, when enabled.
    ckpt: Option<CkptState>,
    /// Structured event trace sink (inert unless enabled).
    trace: Collector,
    /// Virtual time of the current host call, µs — stamps trace events
    /// emitted from internal helpers that carry no [`HostContext`].
    tel_now_us: f64,
}

// The array front-end runs one Ftl per shard on worker threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Ftl>();
};

impl Ftl {
    /// Creates an FTL of the given kind.
    pub fn new(kind: FtlKind, config: FtlConfig) -> Self {
        config.validate();
        let g = config.nand.geometry;
        let mut array = FlashArray::new(config.nand, config.chips, config.seed);
        for chip in array.iter_mut() {
            chip.set_retry_opt(config.retry_opt);
        }
        let mapping = Mapping::new(g, config.chips, config.logical_pages());
        let free_blocks = (0..config.chips)
            .map(|_| (0..g.blocks_per_chip).map(BlockId).collect())
            .collect();
        let is_free = vec![vec![true; g.blocks_per_chip as usize]; config.chips];
        Ftl {
            kind,
            array,
            mapping,
            free_blocks,
            is_free,
            seq: vec![None; config.chips],
            wam: (kind == FtlKind::Cube).then(|| {
                Wam::with_active_blocks(
                    g,
                    config.chips,
                    config.mu_threshold,
                    config.active_blocks_per_chip,
                )
            }),
            opm: kind.ps_aware().then(|| {
                let mut opm = Opm::with_ort_capacity(&g, config.chips, config.ort_capacity);
                opm.set_cluster(config.ort_cluster);
                opm
            }),
            stats: FtlStats::default(),
            in_gc: false,
            migrate_lpns: Vec::new(),
            maint: None,
            in_maint: false,
            seq_counter: 0,
            last_gc_erase: vec![None; config.chips],
            ckpt: None,
            trace: Collector::disabled(),
            tel_now_us: 0.0,
            config,
        }
    }

    /// A `pageFTL` (PS-unaware baseline).
    pub fn page(config: FtlConfig) -> Self {
        Ftl::new(FtlKind::Page, config)
    }

    /// A `vertFTL` (conservative offline `V_Final` adjustment).
    pub fn vert(config: FtlConfig) -> Self {
        Ftl::new(FtlKind::Vert, config)
    }

    /// The full PS-aware `cubeFTL`.
    pub fn cube(config: FtlConfig) -> Self {
        Ftl::new(FtlKind::Cube, config)
    }

    /// `cubeFTL-`: cubeFTL with the WAM disabled (§6.3 ablation).
    pub fn cube_minus(config: FtlConfig) -> Self {
        Ftl::new(FtlKind::CubeMinus, config)
    }

    /// The variant this instance runs as.
    pub fn kind(&self) -> FtlKind {
        self.kind
    }

    /// The configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Host-visible logical page count.
    pub fn logical_pages(&self) -> u64 {
        self.mapping.logical_pages()
    }

    /// Pins every chip to an aging state (§6.2 evaluation conditions).
    pub fn set_aging(&mut self, state: AgingState) {
        self.array.set_aging(state);
    }

    /// Pins every chip to raw (P/E, retention-months) conditions — for
    /// aging sweeps beyond the three named states.
    pub fn set_aging_raw(&mut self, pe: u32, retention_months: f64) {
        for chip in self.array.iter_mut() {
            chip.env_mut().set_aging_raw(pe, retention_months);
        }
    }

    /// Engages per-block lifetime aging on every chip (idempotent):
    /// each block's current age is captured into per-block vectors that
    /// become authoritative, replacing the fixed aged-state presets;
    /// [`Ftl::advance_lifetime_epoch`] then steps individual blocks and
    /// erases rejuvenate retention (never wear) per block.
    pub fn enable_lifetime_aging(&mut self) {
        for chip in self.array.iter_mut() {
            chip.env_mut().enable_lifetime_aging();
        }
    }

    /// Applies one epoch barrier of `engine`'s aging plan to every
    /// block of every chip: the P/E fast-forward is scaled by the
    /// block's h-layer similarity-model aging sensitivity, the engine's
    /// seeded per-block variation, and (when enabled) the STAR
    /// data-pattern stress of the pages it holds; the retention
    /// fast-forward is added to data-holding blocks only (free blocks
    /// hold nothing to lose charge from). The walk is chip-major then
    /// block-ordered and draws from no RNG, so campaigns are identical
    /// at any worker-thread count.
    pub fn advance_lifetime_epoch(&mut self, engine: &mut LifetimeEngine) -> EpochSummary {
        let k = engine.begin_step();
        let g = self.geometry();
        let blocks = g.blocks_per_chip as usize;
        let pattern_on = engine.config().pattern_wear;
        let pattern_strength = engine.config().pattern_wear_strength;
        let mut summary = EpochSummary {
            step: k,
            retention_added_months: engine.plan().step_delta(k).retention_months,
            mean_pattern_stress: 1.0,
            ..EpochSummary::default()
        };
        let mut stress_sum = 0.0;
        let mut stress_n = 0u64;
        for chip in 0..self.config.chips {
            // Immutable pass: per-block sensitivity (mean of the
            // similarity model's h-layer aging sensitivities, 1.0 =
            // nominal) and resident-data pattern stress.
            let c = self.array.chip(chip).expect("valid chip");
            let mut info = Vec::with_capacity(blocks);
            for b in 0..blocks {
                let block = BlockId(b as u32);
                let sens_norm = (0..g.hlayers_per_block)
                    .map(|h| c.process().aging_sensitivity(block, h))
                    .sum::<f64>()
                    / f64::from(g.hlayers_per_block);
                let stress = if pattern_on {
                    let mut fractions = Vec::new();
                    for w in 0..g.wls_per_block() {
                        let wl = ProgramOrder::HorizontalFirst.wl_at(&g, block, w);
                        if c.wl_state(wl) != PageState::Written {
                            continue;
                        }
                        if let Some(oob) = c.wl_oob(wl) {
                            fractions.extend(
                                oob.lpns
                                    .iter()
                                    .filter(|&&lpn| lpn != WlData::PAD)
                                    .map(|&lpn| page_state_fraction(lpn)),
                            );
                        }
                    }
                    block_pattern_stress(fractions.into_iter(), pattern_strength)
                } else {
                    1.0
                };
                info.push((sens_norm, stress));
            }
            let free = self.is_free[chip].clone();
            let env = self.array.chip_mut(chip).expect("valid chip").env_mut();
            env.enable_lifetime_aging();
            for (b, &(sens, stress)) in info.iter().enumerate() {
                let d = engine.block_delta(k, chip, b, sens, stress);
                let months = if free[b] { 0.0 } else { d.retention_months };
                env.advance_block_age(b, d.pe, months);
                summary.blocks_aged += 1;
                summary.pe_added += u64::from(d.pe);
                if !free[b] {
                    stress_sum += stress;
                    stress_n += 1;
                }
            }
        }
        if stress_n > 0 {
            summary.mean_pattern_stress = stress_sum / stress_n as f64;
        }
        summary
    }

    /// The real blocks currently backing the checkpoint metadata region
    /// (empty when checkpointing is off or the region runs virtual).
    pub fn ckpt_region(&self) -> Vec<BlockId> {
        self.ckpt
            .as_ref()
            .map(|c| c.region.clone())
            .unwrap_or_default()
    }

    /// Sets the ambient temperature of every chip, °C (30 °C is the
    /// paper's evaluation reference).
    pub fn set_ambient_celsius(&mut self, celsius: f64) {
        self.array.set_ambient_celsius(celsius);
    }

    /// Sets the ambient-disturbance probability on every chip (exercises
    /// the §4.1.4 safety check and §4.2 ORT mispredictions).
    pub fn set_disturbance_prob(&mut self, p: f64) {
        self.array.set_disturbance_prob(p);
    }

    /// Installs a fault-injection plan on every chip (each chip draws a
    /// distinct deterministic fault stream derived from the plan seed).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.array.set_fault_plan(plan);
    }

    /// Array-wide totals of injected faults.
    pub fn fault_counters(&self) -> FaultCounters {
        self.array.fault_counters()
    }

    /// Clears the measurement counters (call after prefill, before a
    /// measured run). Buffered trace events are discarded too, so a
    /// collector enabled before prefill starts the measured run clean.
    pub fn reset_stats(&mut self) {
        self.stats = FtlStats::default();
        if let Some(opm) = &mut self.opm {
            opm.reset_ort_counters();
        }
        self.trace.reset();
    }

    /// Enables structured event tracing for the categories in `mask`,
    /// tagging every event with `shard` (0 for a single device). Events
    /// are virtual-timestamped with the `now_us` of the host call they
    /// occur under, so the trace is deterministic.
    pub fn enable_telemetry(&mut self, mask: EventMask, shard: u32) {
        self.trace = if mask.is_empty() {
            Collector::disabled()
        } else {
            Collector::enabled(mask, shard)
        };
    }

    /// Drains the buffered trace events (time-ordered; sequence numbers
    /// continue across calls).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Advances the trace clock to `now_us` — for out-of-band entry
    /// points ([`Ftl::power_cut`], [`Ftl::take_checkpoint`]) invoked
    /// outside a [`HostContext`]-carrying call.
    pub fn set_trace_now(&mut self, now_us: f64) {
        self.tel_now_us = now_us;
    }

    /// Registers the FTL's physical-layer counters — per-chip NAND
    /// command totals, array-wide injected-fault totals and the current
    /// free-pool size — under `prefix` (e.g. `nand.chip0.programs`,
    /// `nand.free_blocks`). The logical FTL counters live in
    /// [`FtlStats::register_metrics`].
    pub fn register_metrics(&self, reg: &mut MetricRegistry, prefix: &str) {
        self.array.register_metrics(reg, prefix);
        reg.gauge(
            &format!("{prefix}.free_blocks"),
            FtlDriver::free_blocks(self) as f64,
        );
    }

    /// The underlying flash array (for characterization experiments).
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Enables (or disables) the background maintenance subsystem:
    /// retention scrubbing, wear leveling and periodic OPM re-monitoring,
    /// performed one bounded unit at a time via
    /// [`FtlDriver::maintenance_step`] during chip idle windows. Enabling
    /// also turns on per-block retention tracking so scrubbed blocks
    /// actually rejuvenate (an erase resets the block's retention clock).
    pub fn enable_maintenance(&mut self, config: MaintConfig) {
        if config.enabled {
            self.maint = Some(MaintState::new(config, self.config.chips));
            self.array.set_block_retention_tracking(true);
        } else {
            self.maint = None;
            self.array.set_block_retention_tracking(false);
        }
    }

    /// The active maintenance configuration, if the subsystem is enabled.
    pub fn maint_config(&self) -> Option<MaintConfig> {
        self.maint.as_ref().map(|m| m.config)
    }

    /// Whether the wear-leveling service steers victim selection and
    /// free-block allocation.
    fn wear_leveling_on(&self) -> bool {
        self.maint.as_ref().is_some_and(|m| m.config.wear_leveling)
    }

    /// Live erase counts of every block on `chip`, for the checkpoint.
    fn erase_counts(&self, chip: usize) -> Vec<u32> {
        let env = self.array.chip(chip).expect("valid chip").env();
        (0..self.geometry().blocks_per_chip as usize)
            .map(|b| env.erase_count(b))
            .collect()
    }

    /// The NAND geometry this FTL was configured with.
    pub fn geometry(&self) -> Geometry {
        self.config.nand.geometry
    }

    /// Pops a free block on `chip`, updating the free-pool bitmap.
    fn pop_free_block(&mut self, chip: usize) -> Option<BlockId> {
        let wear = wear_env(&self.maint, &self.array, chip);
        take_free_block(&mut self.free_blocks[chip], &mut self.is_free[chip], wear)
    }

    /// Selects the next WL to program on `chip` according to the
    /// variant's allocation policy.
    fn select_wl(&mut self, chip: usize, mu: f64) -> WlChoice {
        if let Some(wam) = &mut self.wam {
            let wear = wear_env(&self.maint, &self.array, chip);
            let free = &mut self.free_blocks[chip];
            let is_free = &mut self.is_free[chip];
            return wam.select(chip, mu, || take_free_block(free, is_free, wear));
        }
        // Sequential horizontal-first write point.
        let g = self.geometry();
        let per_block = g.wls_per_block();
        loop {
            match &mut self.seq[chip] {
                Some(sa) if sa.next < per_block => {
                    let wl = ProgramOrder::HorizontalFirst.wl_at(&g, sa.block, sa.next);
                    sa.next += 1;
                    return if wl.is_leader() {
                        WlChoice::Leader(wl)
                    } else {
                        WlChoice::Follower(wl)
                    };
                }
                _ => {
                    let b = self
                        .pop_free_block(chip)
                        .expect("GC must maintain free blocks");
                    self.seq[chip] = Some(SeqAlloc { block: b, next: 0 });
                }
            }
        }
    }

    /// The program parameters the variant applies to `choice`.
    fn program_params(&self, chip: usize, choice: &WlChoice) -> ProgramParams {
        match self.kind {
            FtlKind::Page => ProgramParams::default(),
            FtlKind::Vert => {
                // Offline, conservative: spend only the always-safe guard
                // step, on V_Final only (Hung et al. [13] adjust V_Final).
                ProgramParams {
                    v_final_down_mv: self.config.nand.model.ispp.delta_v_ispp_mv,
                    ..ProgramParams::default()
                }
            }
            FtlKind::Cube | FtlKind::CubeMinus => {
                if choice.is_leader() {
                    // Leaders are monitored with default parameters
                    // (footnote 4).
                    ProgramParams::default()
                } else {
                    let opm = self.opm.as_ref().expect("PS-aware kinds have an OPM");
                    opm.follower_params(chip, choice.addr())
                        .map(|p| p.to_program_params())
                        .unwrap_or_default()
                }
            }
        }
    }

    /// Programs one WL (with §4.1.4 safety handling for PS-aware kinds)
    /// and maps `lpns` onto it. Returns the NAND latency spent.
    fn program_and_map(&mut self, chip: usize, lpns: [u64; 3], mu: f64) -> (f64, bool) {
        let mut latency = 0.0;
        let g = self.geometry();
        let mut choice = self.select_wl(chip, mu);
        let mut attempts = 0u32;
        let leader = choice.is_leader();
        loop {
            attempts += 1;
            let params = self.program_params(chip, &choice);
            let wl = choice.addr();
            let report = self
                .array
                .chip_mut(chip)
                .expect("chip index validated by simulator")
                .program_wl(wl, WlData::from_pages(lpns), &params)
                .expect("allocator hands out erased WLs");
            latency += report.latency_us;
            if self.trace.wants(EventMask::ISPP) {
                self.trace.emit(
                    self.tel_now_us,
                    EventKind::IsppProgram {
                        chip: chip as u32,
                        leader: choice.is_leader(),
                        pulses: report.pulses,
                        verifies: report.verifies,
                        margin_excess_loops: report.margin_excess_loops,
                        latency_us: report.latency_us,
                        aborted: report.aborted,
                    },
                );
            }

            if report.aborted {
                // Program suspend/abort: the WL holds no valid data (it
                // stays free on the chip side), so re-issue the same pages
                // on the next WL the allocator hands out.
                self.stats.program_aborts += 1;
                assert!(
                    attempts < 64,
                    "fault plan aborts every program attempt on chip {chip}"
                );
                choice = self.select_wl(chip, mu);
                continue;
            }

            if let Some(opm) = &mut self.opm {
                let engine_report = &report;
                // Leaders are always monitored. A follower whose h-layer
                // has no monitored parameters (and is not §4.1.4-demoted)
                // also ran with full-verify defaults — after a crash this
                // is the "re-monitor on first touch" path that rebuilds
                // the cold OPM one layer at a time.
                if choice.is_leader()
                    || (opm.follower_params(chip, wl).is_none() && !opm.is_demoted(chip, wl))
                {
                    let engine = self.array.chip(chip).expect("valid chip").ispp();
                    opm.record_leader(chip, wl, engine_report, engine);
                    if self.trace.wants(EventMask::OPM) {
                        self.trace.emit(
                            self.tel_now_us,
                            EventKind::Opm {
                                chip: chip as u32,
                                layer: wl.block.0 * u32::from(g.hlayers_per_block)
                                    + u32::from(wl.h.0),
                                action: "monitor",
                            },
                        );
                    }
                }
                if opm.safety_check(chip, wl, engine_report) && attempts < 4 {
                    // §4.1.4: the WL is considered improperly programmed;
                    // re-program the same data on the following WL with
                    // fresh monitoring (default parameters). The h-layer's
                    // monitored parameters are demoted (discarded) until a
                    // new leader re-monitors it.
                    let newly_demoted = opm.demote_layer(chip, wl);
                    self.stats.safety_reprograms += 1;
                    self.stats.safety_demotions += u64::from(newly_demoted);
                    if self.trace.wants(EventMask::OPM) {
                        self.trace.emit(
                            self.tel_now_us,
                            EventKind::Opm {
                                chip: chip as u32,
                                layer: wl.block.0 * u32::from(g.hlayers_per_block)
                                    + u32::from(wl.h.0),
                                action: "demote",
                            },
                        );
                    }
                    // Re-monitor: force default params by treating the
                    // retry as a leader-style program.
                    choice = WlChoice::Leader(self.select_wl(chip, mu).addr());
                    continue;
                }
            }

            // Success: map the live pages and deposit the OOB record
            // recovery replays (LPNs + sequence number + status tag).
            self.seq_counter += 1;
            self.array
                .chip_mut(chip)
                .expect("valid chip")
                .write_oob(
                    wl,
                    WlOob {
                        lpns,
                        seq: self.seq_counter,
                        status: OobStatus::Complete,
                    },
                )
                .expect("WL was just programmed");
            for (i, lpn) in lpns.iter().enumerate() {
                if *lpn == WlData::PAD {
                    continue;
                }
                let page = PageAddr {
                    wl,
                    page: nand3d::PageIndex(i as u8),
                };
                self.mapping.map(
                    *lpn,
                    Ppn {
                        chip: chip as u32,
                        page: g.page_flat(page) as u32,
                    },
                );
            }
            if !choice.is_leader() {
                self.stats.follower_wl_programs += 1;
            }
            self.stats.host_wl_programs += u64::from(!self.in_gc && !self.in_maint);
            return (latency, leader);
        }
    }

    /// Runs garbage collection on `chip` until the free pool is above the
    /// threshold. Returns the NAND latency spent.
    fn run_gc(&mut self, chip: usize, mu: f64) -> f64 {
        let mut latency = 0.0;
        let g = self.geometry();
        let per_block = g.pages_per_block();
        // Bound the work per invocation: GC latency is charged to the
        // triggering write, and unbounded rounds would stall the host.
        let mut rounds = 0;
        while self.free_blocks[chip].len() <= self.config.gc_free_block_threshold && rounds < 16 {
            rounds += 1;
            let Some(victim) = self.gc_victim(chip) else {
                // No block holds any garbage (e.g. right after a unique
                // prefill): collecting would only shuffle valid pages
                // between blocks without freeing anything. Keep writing
                // into the remaining free pool; overwrites will create
                // reclaimable garbage before it runs out (guaranteed by
                // the over-provisioning: unique data can never fill the
                // physical space).
                break;
            };
            // Profitability check: migrating the victim consumes free WLs
            // for its valid pages; require at least one WL of net gain or
            // GC cannot make forward progress.
            let reclaimable = per_block - self.mapping.valid_in_block(chip, victim.0);
            if reclaimable < u32::from(g.pages_per_wl) {
                break;
            }

            let (moved, _) = self.migrate_pages(chip, victim, usize::MAX, mu, &mut latency);
            if self.in_maint {
                self.stats.maint_gc_page_moves += moved;
            } else {
                self.stats.gc_page_moves += moved;
            }

            // All pages moved: erase (stamped with the operation sequence
            // so recovery can tell the block changed hands) and return it
            // to the pool.
            self.mapping.assert_block_clean(chip, victim.0);
            self.seq_counter += 1;
            latency += self
                .array
                .chip_mut(chip)
                .expect("valid chip")
                .erase_tagged(victim, self.seq_counter)
                .expect("victim in range");
            self.last_gc_erase[chip] = Some(victim);
            if let Some(opm) = &mut self.opm {
                opm.invalidate_block(chip, victim.0);
            }
            self.free_blocks[chip].push_back(victim);
            self.is_free[chip][victim.0 as usize] = true;
            self.stats.erases += 1;
            self.stats.gc_runs += 1;
            if self.trace.wants(EventMask::GC) {
                self.trace.emit(
                    self.tel_now_us,
                    EventKind::GcVictim {
                        chip: chip as u32,
                        block: victim.0,
                        moved_wls: (moved as u32).div_ceil(3),
                        wear_aware: self.wear_leveling_on(),
                    },
                );
            }
        }
        latency
    }

    /// Whether `block` currently backs the checkpoint metadata region
    /// on `chip`. Region blocks hold no mapped pages (their content is
    /// the checkpoint blob), so victim selection would otherwise see
    /// them as maximally profitable and erase the live checkpoint.
    fn ckpt_region_contains(&self, chip: usize, block: BlockId) -> bool {
        chip == 0
            && self
                .ckpt
                .as_ref()
                .is_some_and(|c| c.region.contains(&block))
    }

    /// Whether `block` is currently open for writing on `chip`.
    fn is_active(&self, chip: usize, block: BlockId) -> bool {
        match &self.wam {
            Some(wam) => wam.active_blocks(chip).any(|b| b == block),
            None => self.seq[chip].is_some_and(|sa| sa.block == block),
        }
    }

    /// Whether `block` is a closed data block of `chip` — neither free,
    /// nor open for writing, nor backing the checkpoint region — and so
    /// eligible for GC, wear leveling and scrubbing.
    fn is_closed(&self, chip: usize, block: BlockId) -> bool {
        !self.is_free[chip][block.0 as usize]
            && !self.is_active(chip, block)
            && !self.ckpt_region_contains(chip, block)
    }

    /// The block to reclaim next on `chip`: the closed block with the
    /// fewest valid pages, wear-aware while wear leveling is on. `None`
    /// when no closed block holds any garbage.
    fn gc_victim(&self, chip: usize) -> Option<BlockId> {
        let g = self.geometry();
        let per_block = g.pages_per_block();
        let candidates = (0..g.blocks_per_chip)
            .map(BlockId)
            .filter(|b| self.is_closed(chip, *b));
        match self.maint.as_ref().filter(|m| m.config.wear_leveling) {
            Some(m) => {
                let env = self.array.chip(chip).expect("valid chip").env();
                select_victim_wear_aware(
                    &self.mapping,
                    chip,
                    candidates,
                    per_block,
                    |b| env.erase_count(b.0 as usize),
                    m.config.wear_spread_limit,
                )
            }
            None => select_victim(&self.mapping, chip, candidates, per_block),
        }
    }

    /// Moves up to `limit` valid pages of `block` to fresh WLs: each is
    /// read through the variant's read policy (the ORT benefits GC reads
    /// too), then they are re-programmed three to a WL. The NAND time is
    /// added to `latency` term by term. Returns the number of pages
    /// moved and whether `block` has valid pages left.
    fn migrate_pages(
        &mut self,
        chip: usize,
        block: BlockId,
        limit: usize,
        mu: f64,
        latency: &mut f64,
    ) -> (u64, bool) {
        // The list must be taken before the mapping changes under it;
        // its buffer is reused from one migration to the next.
        let mut lpns = std::mem::take(&mut self.migrate_lpns);
        lpns.clear();
        lpns.extend(
            self.mapping
                .valid_pages_of_block(chip, block.0)
                .map(|(lpn, _)| lpn),
        );
        let pages_left = lpns.len() > limit;
        lpns.truncate(limit);
        for lpn in &lpns {
            *latency += self
                .read_mapped(*lpn)
                .expect("valid page must be mapped")
                .nand_us;
        }
        for group in lpns.chunks(3) {
            let mut wl = [WlData::PAD; 3];
            wl[..group.len()].copy_from_slice(group);
            *latency += self.program_and_map(chip, wl, mu).0;
        }
        let moved = lpns.len() as u64;
        self.migrate_lpns = lpns;
        (moved, pages_left)
    }

    /// Reads the mapped location of `lpn` with the variant's read policy.
    fn read_mapped(&mut self, lpn: u64) -> Option<PageRead> {
        let ppn = self.mapping.lookup(lpn)?;
        let g = self.geometry();
        let page = g.page_unflat(ppn.page as usize);
        let chip = ppn.chip as usize;
        let lookup = self
            .opm
            .as_mut()
            .map(|opm| opm.lookup_offset(chip, page.wl));
        let params = match lookup {
            Some(l) if l.seeded => ReadParams::seeded_from(l.offset),
            Some(l) => ReadParams::from_offset(l.offset),
            None => ReadParams::default(),
        };
        let report = self
            .array
            .chip_mut(chip)
            .expect("mapped chip exists")
            .read_page(page, params)
            .expect("mapped page is readable");
        debug_assert_eq!(report.data, lpn, "mapping returned wrong data");
        // Maintenance migration reads are background work: they must not
        // distort the host-visible read statistics.
        if !self.in_maint {
            self.stats.nand_reads += 1;
            self.stats.read_retries += u64::from(report.retries);
            self.stats.early_terminations += u64::from(report.early_terminated);
            match report.fault {
                // Stale cached ΔV_Ref: the extra retry found a working
                // offset, and the ORT update below refreshes the cached
                // entry.
                Some(ReadFaultKind::StuckRetry) => self.stats.stuck_retry_recoveries += 1,
                // First attempt uncorrectable: recovered via a full offset
                // scan (charged as MAX_OFFSET_INDEX + 1 retries).
                Some(ReadFaultKind::Uncorrectable) => self.stats.uncorrectable_recoveries += 1,
                None => {}
            }
        }
        if let Some(opm) = &mut self.opm {
            if let Some(l) = lookup {
                opm.note_read_outcome(l, report.final_offset);
            }
            opm.update_read_offset(chip, page.wl, report.final_offset);
        }
        if (report.retries > 0 || report.fault.is_some()) && self.trace.wants(EventMask::READ_RETRY)
        {
            self.trace.emit(
                self.tel_now_us,
                EventKind::ReadRetry {
                    chip: chip as u32,
                    lpn,
                    retries: report.retries,
                    fault: report.fault.map(|f| match f {
                        ReadFaultKind::StuckRetry => "stuck_retry",
                        ReadFaultKind::Uncorrectable => "uncorrectable",
                    }),
                    seeded: lookup.is_some_and(|l| l.seeded),
                    early_term: report.early_terminated,
                },
            );
        }
        Some(PageRead {
            chip,
            nand_us: report.latency_us,
            retries: report.retries,
        })
    }

    /// Reference to the OPM (PS-aware kinds only); exposed for
    /// experiments.
    pub fn opm(&self) -> Option<&Opm> {
        self.opm.as_ref()
    }

    /// The page mapping (read-only; exposed for recovery verification).
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Whether `lpn` currently has a physical location.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        self.mapping.lookup(lpn).is_some()
    }

    /// Enables periodic L2P checkpointing: every `interval_host_wls` host
    /// WL programs, the full L2P map and per-block erase counters are
    /// serialized into the reserved metadata region (latency charged to
    /// the triggering write). An interval of 0 disables.
    pub fn enable_checkpointing(&mut self, interval_host_wls: u64) {
        self.ckpt = (interval_host_wls > 0).then_some(CkptState {
            interval_host_wls,
            host_wls_since: 0,
            blob: None,
            taken: 0,
            pages_written: 0,
            region: Vec::new(),
        });
    }

    /// Number of checkpoints flushed so far (0 if checkpointing is off).
    pub fn checkpoints_taken(&self) -> u64 {
        self.ckpt.as_ref().map_or(0, |c| c.taken)
    }

    /// The current operation sequence number (advanced by every program
    /// and tagged erase).
    pub fn seq_counter(&self) -> u64 {
        self.seq_counter
    }

    /// Flushes a checkpoint of the L2P map + erase counters to the
    /// reserved metadata region now, returning the NAND time charged
    /// (metadata pages × full-verify program latency). Requires
    /// checkpointing to be enabled; no-op returning 0.0 otherwise.
    pub fn take_checkpoint(&mut self) -> f64 {
        if self.ckpt.is_none() {
            return 0.0;
        }
        let erase_counts = (0..self.config.chips)
            .map(|c| self.erase_counts(c))
            .collect();
        let ckpt = Checkpoint {
            seq: self.seq_counter,
            l2p: self.mapping.l2p_snapshot(),
            erase_counts,
        };
        let pages = ckpt.pages(CKPT_PAGE_BYTES);
        let blob = ckpt.encode();
        let bytes = blob.len() as u64;
        let mut latency = pages as f64 * CKPT_PAGE_PROGRAM_US;
        // Metadata-region wear: the flushed pages are real NAND programs,
        // and the ring recycles (erases) a region block every time the
        // cumulative page count fills one.
        let per_block = u64::from(self.geometry().pages_per_block());
        self.stats.ckpt_page_programs += pages;
        // Back the region with a real chip-0 block once the pool can
        // spare one: its ring erases then wear a physical block that
        // wear leveling and scrubbing see. Under pool pressure the
        // region keeps running virtual (counters advance identically).
        if self.ckpt.as_ref().expect("checked above").region.is_empty()
            && self.free_blocks[0].len() > self.config.gc_free_block_threshold + 1
        {
            let b = self.pop_free_block(0).expect("pool checked non-empty");
            self.ckpt.as_mut().expect("checked above").region.push(b);
        }
        let st = self.ckpt.as_mut().expect("checked above");
        let filled_before = st.pages_written / per_block;
        st.pages_written += pages;
        let crossings = st.pages_written / per_block - filled_before;
        self.stats.ckpt_erases += crossings;
        st.blob = Some(blob);
        st.taken += 1;
        st.host_wls_since = 0;
        let region_block = st.region.first().copied();
        if let Some(b) = region_block {
            for _ in 0..crossings {
                self.seq_counter += 1;
                latency += self
                    .array
                    .chip_mut(0)
                    .expect("chip 0 exists")
                    .erase_tagged(b, self.seq_counter)
                    .expect("region block in range");
            }
        }
        if self.trace.wants(EventMask::CKPT) {
            self.trace.emit(
                self.tel_now_us,
                EventKind::Checkpoint {
                    pages: pages as u32,
                    bytes,
                    latency_us: latency,
                },
            );
        }
        latency
    }

    /// Advances the checkpoint clock by one host WL and flushes when the
    /// interval is reached. Returns the NAND time spent, if any.
    fn checkpoint_tick(&mut self) -> Option<f64> {
        let st = self.ckpt.as_mut()?;
        st.host_wls_since += 1;
        (st.host_wls_since >= st.interval_host_wls).then(|| self.take_checkpoint())
    }

    /// Models the physical consequences of a sudden power-off caught
    /// while `chip` was flushing `lpns`: the WLs holding those pages are
    /// left partially programmed ([`PageState::Partial`], elevated BER,
    /// OOB re-tagged torn). If the flush had triggered GC
    /// (`gc_in_flight`), the GC victim's erase pulse is interrupted too,
    /// leaving that block unusable until re-erased. Returns the number of
    /// WLs torn. Call once per in-flight flush before [`Ftl::power_cycle`].
    pub fn power_cut(&mut self, chip: usize, lpns: [u64; 3], gc_in_flight: bool) -> u64 {
        let g = self.geometry();
        let mut wls: Vec<WlAddr> = Vec::new();
        for lpn in lpns {
            if lpn == WlData::PAD {
                continue;
            }
            let Some(ppn) = self.mapping.lookup(lpn) else {
                continue;
            };
            if ppn.chip as usize != chip {
                continue;
            }
            let wl = g.page_unflat(ppn.page as usize).wl;
            // Tear only the WL this flush actually programmed: a later
            // enqueued flush's GC may already have relocated the data, in
            // which case the mapping points at the (complete) relocation
            // WL — whose OOB trio differs — and tearing it would destroy
            // co-relocated victims' newest copies.
            let programmed_here = self
                .array
                .chip(chip)
                .expect("valid chip")
                .wl_oob(wl)
                .is_some_and(|oob| oob.lpns == lpns);
            if programmed_here && !wls.contains(&wl) {
                wls.push(wl);
            }
        }
        let chip_ref = self.array.chip_mut(chip).expect("valid chip");
        let mut torn = 0u64;
        for wl in wls {
            torn += u64::from(chip_ref.interrupt_program(wl));
        }
        if gc_in_flight {
            if let Some(b) = self.last_gc_erase[chip] {
                chip_ref.interrupt_erase(b);
            }
        }
        self.trace.emit(
            self.tel_now_us,
            EventKind::Spo {
                phase: "cut",
                detail: torn,
            },
        );
        torn
    }

    /// Boot-time recovery after a sudden power-off: consumes the dead
    /// FTL (its RAM state is gone) and rebuilds a fresh one from flash
    /// contents alone —
    ///
    /// 1. load the last checkpoint from the reserved metadata region,
    /// 2. probe every block's metadata page; re-erase blocks whose erase
    ///    pulse was interrupted; drop checkpoint entries pointing into
    ///    blocks erased since the checkpoint,
    /// 3. fully OOB-scan only the blocks programmed since the checkpoint,
    ///    quarantining torn WLs via the §4.1.4 path (their h-layers boot
    ///    demoted) and collecting complete records newer than the
    ///    checkpoint,
    /// 4. replay those records in sequence order on top of the restored
    ///    checkpoint entries,
    /// 5. re-write the host pages the power-loss-protection capacitor
    ///    dumped from the write buffer (`plp_lpns`).
    ///
    /// The OPM/ORT are deliberately **not** restored: the recovered FTL
    /// boots with cold monitored state and re-derives it on first touch
    /// per h-layer (conservative full-verify programs, full read-retry).
    pub fn power_cycle(self, plp_lpns: &[u64]) -> (Ftl, RecoveryReport) {
        let Ftl {
            kind,
            config,
            mut array,
            ckpt,
            mut trace,
            tel_now_us,
            ..
        } = self;
        trace.emit(
            tel_now_us,
            EventKind::Spo {
                phase: "recovery_begin",
                detail: 0,
            },
        );
        let g = config.nand.geometry;
        let chips = config.chips;
        let blocks = g.blocks_per_chip;
        let mut report = RecoveryReport::default();

        // 1. Load the last checkpoint (reject dimension mismatches — a
        // corrupt region must degrade to a full scan, not a panic).
        let ckpt_interval = ckpt.as_ref().map(|c| c.interval_host_wls);
        let ckpt_taken = ckpt.as_ref().map_or(0, |c| c.taken);
        let ckpt_pages_written = ckpt.as_ref().map_or(0, |c| c.pages_written);
        let blob = ckpt.and_then(|c| c.blob);
        let checkpoint = blob
            .as_deref()
            .and_then(|b| Checkpoint::decode(b).ok())
            .filter(|c| {
                c.l2p.len() as u64 == config.logical_pages()
                    && c.erase_counts.len() == chips
                    && c.erase_counts.iter().all(|e| e.len() == blocks as usize)
            });
        report.checkpoint_loaded = checkpoint.is_some();
        let ckpt_seq = checkpoint.as_ref().map_or(0, |c| c.seq);
        report.checkpoint_seq = ckpt_seq;

        // 2. Probe every block's metadata page: recover the sequence
        // horizon, find interrupted erases, blocks erased since the
        // checkpoint, and blocks needing a full OOB scan.
        let mut seq_horizon = ckpt_seq;
        let mut erased_since = vec![vec![false; blocks as usize]; chips];
        let mut to_reerase: Vec<(usize, BlockId)> = Vec::new();
        let mut to_scan: Vec<(usize, BlockId)> = Vec::new();
        for (chip, erased) in erased_since.iter_mut().enumerate() {
            let c = array.chip(chip).expect("valid chip");
            for b in 0..blocks {
                let block = BlockId(b);
                report.blocks_probed += 1;
                report.nand_us += OOB_READ_US;
                seq_horizon = seq_horizon
                    .max(c.block_prog_seq(block))
                    .max(c.block_erase_seq(block));
                if c.block_erase_interrupted(block) {
                    to_reerase.push((chip, block));
                    erased[b as usize] = true;
                    continue;
                }
                if c.block_erase_seq(block) > ckpt_seq {
                    erased[b as usize] = true;
                }
                if c.block_prog_seq(block) > ckpt_seq {
                    to_scan.push((chip, block));
                }
            }
        }
        let mut seq_counter = seq_horizon;
        for &(chip, block) in &to_reerase {
            seq_counter += 1;
            report.nand_us += array
                .chip_mut(chip)
                .expect("valid chip")
                .erase_tagged(block, seq_counter)
                .expect("probed block in range");
            report.interrupted_erases_redone += 1;
        }

        // 3. Full OOB scan of the dirty blocks only.
        let mut torn: Vec<(usize, WlAddr)> = Vec::new();
        let mut replay: Vec<(u64, usize, WlAddr, [u64; 3])> = Vec::new();
        for &(chip, block) in &to_scan {
            report.blocks_scanned += 1;
            let c = array.chip(chip).expect("valid chip");
            for w in 0..g.wls_per_block() {
                let wl = ProgramOrder::HorizontalFirst.wl_at(&g, block, w);
                report.nand_us += OOB_READ_US;
                match c.wl_state(wl) {
                    PageState::Partial => torn.push((chip, wl)),
                    PageState::Written => match c.wl_oob(wl) {
                        Some(oob) if oob.status == OobStatus::Complete && oob.seq > ckpt_seq => {
                            replay.push((oob.seq, chip, wl, oob.lpns));
                        }
                        // Records at or before the checkpoint are already
                        // reflected in it; torn/missing OOB holds no
                        // trustworthy mapping.
                        _ => {}
                    },
                    PageState::Free => {}
                }
            }
        }
        report.torn_wls_quarantined = torn.len() as u64;

        // 4. Rebuild the L2P map: checkpoint entries first (minus stale
        // ones), then the post-checkpoint records in sequence order.
        let mut mapping = Mapping::new(g, chips, config.logical_pages());
        if let Some(c) = &checkpoint {
            for (lpn, entry) in c.l2p.iter().enumerate() {
                let Some(ppn) = entry else { continue };
                let chip = ppn.chip as usize;
                let in_range = chip < chips && u64::from(ppn.page) < g.pages_per_chip();
                let stale = !in_range || {
                    let wl = g.page_unflat(ppn.page as usize).wl;
                    erased_since[chip][wl.block.0 as usize]
                        || array.chip(chip).expect("valid chip").wl_state(wl) != PageState::Written
                };
                if stale {
                    report.stale_ckpt_entries_dropped += 1;
                    continue;
                }
                mapping.map(lpn as u64, *ppn);
                report.ckpt_entries_restored += 1;
            }
        }
        replay.sort_unstable_by_key(|&(seq, ..)| seq);
        for (_, chip, wl, lpns) in &replay {
            for (i, lpn) in lpns.iter().enumerate() {
                if *lpn == WlData::PAD {
                    continue;
                }
                let page = PageAddr {
                    wl: *wl,
                    page: nand3d::PageIndex(i as u8),
                };
                mapping.map(
                    *lpn,
                    Ppn {
                        chip: *chip as u32,
                        page: g.page_flat(page) as u32,
                    },
                );
                report.oob_records_replayed += 1;
            }
        }

        // Rebuild the free pools from physical state: a block is free iff
        // every WL is erased. Torn and partially-written blocks stay
        // closed; GC reclaims them once their garbage makes them
        // profitable victims.
        let mut free_blocks: Vec<VecDeque<BlockId>> = Vec::with_capacity(chips);
        let mut is_free: Vec<Vec<bool>> = Vec::with_capacity(chips);
        for chip in 0..chips {
            let c = array.chip(chip).expect("valid chip");
            let mut pool = VecDeque::new();
            let mut flags = vec![false; blocks as usize];
            for b in 0..blocks {
                let block = BlockId(b);
                let all_free = (0..g.wls_per_block()).all(|w| {
                    c.wl_state(ProgramOrder::HorizontalFirst.wl_at(&g, block, w)) == PageState::Free
                });
                if all_free {
                    pool.push_back(block);
                    flags[b as usize] = true;
                }
            }
            free_blocks.push(pool);
            is_free.push(flags);
        }

        // 5. Fresh volatile state: the OPM/ORT boot cold (re-derived on
        // first touch per h-layer), the WAM and write points reset.
        // H-layers holding a torn WL boot demoted — the §4.1.4 quarantine.
        let mut opm = kind.ps_aware().then(|| {
            let mut opm = Opm::with_ort_capacity(&g, chips, config.ort_capacity);
            // The cluster boots empty like the ORT — it re-warms from
            // post-boot decode traffic, deterministically.
            opm.set_cluster(config.ort_cluster);
            opm
        });
        if let Some(opm) = &mut opm {
            for &(chip, wl) in &torn {
                report.layers_demoted += u64::from(opm.demote_layer(chip, wl));
                // A torn WL's h-layer is also untrusted for cluster
                // seeding until a fresh decode re-vouches for it.
                report.cluster_keys_quarantined +=
                    u64::from(opm.quarantine_cluster_key(chip, wl.block.0, wl.h.0));
            }
        }
        let mut ftl = Ftl {
            kind,
            array,
            mapping,
            free_blocks,
            is_free,
            seq: vec![None; chips],
            wam: (kind == FtlKind::Cube).then(|| {
                Wam::with_active_blocks(
                    g,
                    chips,
                    config.mu_threshold,
                    config.active_blocks_per_chip,
                )
            }),
            opm,
            stats: FtlStats::default(),
            in_gc: false,
            migrate_lpns: Vec::new(),
            maint: None,
            in_maint: false,
            seq_counter,
            last_gc_erase: vec![None; chips],
            ckpt: ckpt_interval.map(|interval_host_wls| CkptState {
                interval_host_wls,
                host_wls_since: 0,
                blob,
                taken: ckpt_taken,
                pages_written: ckpt_pages_written,
                // The pre-crash region block's WLs are all erased, so
                // the pool rebuild above reclaimed it as free; the next
                // flush re-allocates a backing block.
                region: Vec::new(),
            }),
            trace,
            tel_now_us,
            config,
        };

        // Resume the write points that were open at the power cut: the
        // partially-filled blocks (most recent program sequence first)
        // are re-opened rather than abandoned. Their remaining follower
        // WLs sit under pre-crash leaders whose monitored parameters
        // died with the RAM, so the next program on each such h-layer
        // runs conservative full-verify defaults and re-monitors — the
        // post-boot tPROG warm-up.
        for chip in 0..chips {
            let mut partial: Vec<(u64, BlockId)> = (0..blocks)
                .map(BlockId)
                .filter(|&b| {
                    let c = ftl.array.chip(chip).expect("valid chip");
                    !ftl.is_free[chip][b.0 as usize]
                        && (0..g.wls_per_block()).any(|w| {
                            c.wl_state(ProgramOrder::HorizontalFirst.wl_at(&g, b, w))
                                == PageState::Free
                        })
                })
                .map(|b| {
                    let c = ftl.array.chip(chip).expect("valid chip");
                    (c.block_prog_seq(b), b)
                })
                .collect();
            partial.sort_unstable_by_key(|&(seq, b)| (std::cmp::Reverse(seq), b.0));
            if let Some(wam) = &mut ftl.wam {
                for &(_, b) in partial.iter().take(config.active_blocks_per_chip) {
                    let c = ftl.array.chip(chip).expect("valid chip");
                    wam.resume_block(chip, b, |wl| c.wl_state(wl) == PageState::Free);
                }
            } else if let Some(&(_, b)) = partial.first() {
                // Sequential write point: continue one past the last
                // used WL in program order (abort holes stay skipped).
                let next = (0..g.wls_per_block())
                    .rev()
                    .find(|&w| {
                        ftl.array
                            .chip(chip)
                            .expect("valid chip")
                            .wl_state(ProgramOrder::HorizontalFirst.wl_at(&g, b, w))
                            != PageState::Free
                    })
                    .map_or(0, |w| w + 1);
                ftl.seq[chip] = Some(SeqAlloc { block: b, next });
            }
        }

        // The re-opened write points hold h-layers whose leader-program
        // history died with the RAM: their upcoming WLs will be
        // re-programmed under conservative defaults, so their pre-cut
        // `ΔV_Ref` behaviour is not representative of the cluster
        // average. Quarantine those keys from cluster seeding until a
        // fresh decode re-vouches for each one.
        if let Some(opm) = &mut ftl.opm {
            if let Some(wam) = &ftl.wam {
                for chip in 0..chips {
                    for (block, h) in wam.open_layers(chip) {
                        report.cluster_keys_quarantined +=
                            u64::from(opm.quarantine_cluster_key(chip, block.0, h));
                    }
                }
            }
        }

        // 6. Replay the PLP buffer dump: host-acknowledged pages that were
        // still buffer-resident (including those on torn WLs) are
        // re-written through the normal allocation path.
        ftl.in_maint = true;
        for (i, group) in plp_lpns.chunks(3).enumerate() {
            let chip = i % chips;
            if ftl.free_blocks[chip].len() <= ftl.config.gc_free_block_threshold {
                ftl.in_gc = true;
                report.nand_us += ftl.run_gc(chip, 0.0);
                ftl.in_gc = false;
            }
            let mut lpns = [WlData::PAD; 3];
            lpns[..group.len()].copy_from_slice(group);
            let (t, _) = ftl.program_and_map(chip, lpns, 0.0);
            report.nand_us += t;
            report.plp_pages_replayed += group.len() as u64;
        }
        ftl.in_maint = false;
        ftl.stats = FtlStats::default();
        ftl.trace.emit(
            ftl.tel_now_us,
            EventKind::Spo {
                phase: "recovery_done",
                detail: report.oob_records_replayed,
            },
        );
        (ftl, report)
    }

    /// Performs one bounded unit of background maintenance on `chip`,
    /// rotating among the three services so a hungry one cannot starve
    /// the others of idle windows. Returns the NAND time spent, or
    /// `None` when nothing is due.
    /// Most stale h-layers one re-monitor dispatch handles (each costs a
    /// leader sample read, so this bounds the dispatch's chip time).
    const REMONITOR_LAYER_BATCH: usize = 8;

    fn maintenance_unit(&mut self, chip: usize, mu: f64) -> Option<f64> {
        const SERVICES: u8 = 3;
        let start = self.maint.as_ref()?.next_service[chip];
        for i in 0..SERVICES {
            let svc = (start + i) % SERVICES;
            let work = match svc {
                0 => self.maint_scrub_step(chip, mu),
                1 => self.maint_remonitor_step(chip),
                _ => self.maint_wear_step(chip, mu),
            };
            if let Some(t) = work {
                self.maint
                    .as_mut()
                    .expect("maintenance enabled")
                    .next_service[chip] = (svc + 1) % SERVICES;
                return Some(t);
            }
        }
        None
    }

    /// Retention scrubbing: walks blocks from the per-chip cursor to the
    /// first one holding aged data, samples its BER via a leader-WL read
    /// (which refreshes the h-layer's ORT `ΔV_Ref` entry in place) and
    /// refreshes the whole block when its retention age or sampled BER
    /// crosses the configured thresholds.
    fn maint_scrub_step(&mut self, chip: usize, mu: f64) -> Option<f64> {
        let cfg = self.maint.as_ref()?.config;
        let g = self.geometry();
        let blocks = g.blocks_per_chip;
        let st = self.maint.as_mut().expect("maintenance enabled");
        let cursor = st.scrub_cursor[chip];
        // Taking the flag clears it; it is re-armed below only while the
        // cursor block is still mid-refresh, so a block recycled out from
        // under the scrubber (e.g. by GC) cannot inherit a stale resume.
        let resuming = std::mem::take(&mut st.scrub_resume[chip]);
        for i in 0..blocks {
            let b = BlockId((cursor + i) % blocks);
            if self.is_free[chip][b.0 as usize] || self.is_active(chip, b) {
                continue;
            }
            if self.ckpt_region_contains(chip, b) {
                // Metadata scrub: the region block holds the checkpoint
                // blob, not mapped pages, so refreshing it is an
                // in-place erase plus a rewrite of the live metadata
                // pages — the block stays in the region.
                let retention = self
                    .array
                    .chip(chip)
                    .expect("valid chip")
                    .block_retention_months(b);
                if retention < cfg.scrub_retention_min_months {
                    continue;
                }
                let per_block = u64::from(g.pages_per_block());
                let live = self
                    .ckpt
                    .as_ref()
                    .map_or(0, |c| c.pages_written % per_block);
                self.seq_counter += 1;
                let mut latency = self
                    .array
                    .chip_mut(chip)
                    .expect("valid chip")
                    .erase_tagged(b, self.seq_counter)
                    .expect("region block in range");
                latency += live as f64 * CKPT_PAGE_PROGRAM_US;
                self.stats.scrub_blocks += 1;
                self.stats.scrub_page_moves += live;
                let st = self.maint.as_mut().expect("maintenance enabled");
                st.scrub_cursor[chip] = (b.0 + 1) % blocks;
                st.scrub_resume[chip] = false;
                if self.trace.wants(EventMask::MAINT) {
                    self.trace.emit(
                        self.tel_now_us,
                        EventKind::Maint {
                            chip: chip as u32,
                            service: "scrub",
                            page_moves: live,
                        },
                    );
                }
                return Some(latency);
            }
            let mut latency = 0.0;
            let refresh = if resuming && i == 0 {
                // Mid-refresh block: the decision was already made (and
                // its BER sampled) when the refresh started.
                true
            } else {
                let chip_ref = self.array.chip(chip).expect("valid chip");
                let retention = chip_ref.block_retention_months(b);
                if retention <= 0.0 {
                    continue;
                }
                let sample_wl = (0..g.hlayers_per_block)
                    .map(|h| g.wl_addr(b, h, 0))
                    .find(|wl| chip_ref.wl_state(*wl) == PageState::Written);
                let sampled_ber = sample_wl
                    .and_then(|wl| chip_ref.wl_current_ber(wl))
                    .unwrap_or(0.0);
                if let Some(wl) = sample_wl {
                    latency += self.maint_sample_read(chip, wl);
                    self.stats.scrub_sample_reads += 1;
                }
                retention >= cfg.scrub_retention_min_months || sampled_ber > cfg.scrub_ber_threshold
            };
            // The cursor parks on a partially-migrated block so the next
            // scrub window resumes it; otherwise it moves on.
            let mut next_cursor = (b.0 + 1) % blocks;
            let mut in_progress = false;
            let mut moved = 0u64;
            if refresh {
                let (t, outcome) = self.refresh_block(chip, b, mu, cfg.scrub_batch_pages);
                latency += t;
                match outcome {
                    RefreshOutcome::Erased { pages_moved } => {
                        self.stats.scrub_blocks += 1;
                        self.stats.scrub_page_moves += pages_moved;
                        moved = pages_moved;
                    }
                    RefreshOutcome::Partial { pages_moved } => {
                        self.stats.scrub_page_moves += pages_moved;
                        moved = pages_moved;
                        next_cursor = b.0;
                        in_progress = true;
                    }
                    RefreshOutcome::Stalled => {}
                }
            }
            let st = self.maint.as_mut().expect("maintenance enabled");
            st.scrub_cursor[chip] = next_cursor;
            st.scrub_resume[chip] = in_progress;
            if latency > 0.0 {
                if self.trace.wants(EventMask::MAINT) {
                    self.trace.emit(
                        self.tel_now_us,
                        EventKind::Maint {
                            chip: chip as u32,
                            service: "scrub",
                            page_moves: moved,
                        },
                    );
                }
                return Some(latency);
            }
        }
        None
    }

    /// Periodic OPM re-monitoring: finds the next block holding h-layers
    /// whose monitored parameters are older than the configured P/E-count
    /// or retention-time budget, drops them (the next program on the
    /// layer re-monitors leader-style instead of reusing drifted skips
    /// and windows) and refreshes each layer's ORT entry with a leader
    /// sample read. At most [`Self::REMONITOR_LAYER_BATCH`] layers are
    /// handled per dispatch so the chip op stays short; a block with more
    /// stale layers is resumed on the next window (re-monitored layers
    /// lose their `recorded_pe` stamp, so they are skipped naturally).
    fn maint_remonitor_step(&mut self, chip: usize) -> Option<f64> {
        let cfg = self.maint.as_ref()?.config;
        self.opm.as_ref()?;
        let g = self.geometry();
        let blocks = g.blocks_per_chip;
        let cursor = self
            .maint
            .as_ref()
            .expect("maintenance enabled")
            .remonitor_cursor[chip];
        for i in 0..blocks {
            let b = BlockId((cursor + i) % blocks);
            if self.is_free[chip][b.0 as usize] {
                continue;
            }
            let (pe_now, retention) = {
                let c = self.array.chip(chip).expect("valid chip");
                (c.env().pe(b.0 as usize), c.block_retention_months(b))
            };
            let mut latency = 0.0;
            let mut handled = 0usize;
            let mut remaining = false;
            for h in 0..g.hlayers_per_block {
                let wl = g.wl_addr(b, h, 0);
                let Some(recorded) = self
                    .opm
                    .as_ref()
                    .expect("checked above")
                    .recorded_pe(chip, wl)
                else {
                    continue;
                };
                let stale = pe_now.saturating_sub(recorded) > cfg.remonitor_pe_budget
                    || retention > cfg.remonitor_retention_budget_months;
                if !stale {
                    continue;
                }
                if handled == Self::REMONITOR_LAYER_BATCH {
                    remaining = true;
                    break;
                }
                let written =
                    self.array.chip(chip).expect("valid chip").wl_state(wl) == PageState::Written;
                self.opm
                    .as_mut()
                    .expect("checked above")
                    .invalidate_layer(chip, wl);
                if written {
                    latency += self.maint_sample_read(chip, wl);
                }
                self.stats.remonitored_layers += 1;
                handled += 1;
            }
            if handled > 0 {
                let next = if remaining { b.0 } else { (b.0 + 1) % blocks };
                self.maint
                    .as_mut()
                    .expect("maintenance enabled")
                    .remonitor_cursor[chip] = next;
                if self.trace.wants(EventMask::MAINT) {
                    self.trace.emit(
                        self.tel_now_us,
                        EventKind::Maint {
                            chip: chip as u32,
                            service: "remonitor",
                            page_moves: 0,
                        },
                    );
                }
                return Some(latency);
            }
        }
        None
    }

    /// Wear leveling: when the chip's erase-count spread exceeds the
    /// configured bound, recycle the coldest closed block — its cold data
    /// migrates to (hotter) free blocks and the least-worn block joins
    /// the allocation pool, narrowing the spread from both ends.
    fn maint_wear_step(&mut self, chip: usize, mu: f64) -> Option<f64> {
        let cfg = self.maint.as_ref()?.config;
        if !cfg.wear_leveling {
            return None;
        }
        if let Some(t) = self.maint_ckpt_wear_step(chip) {
            return Some(t);
        }
        let env = self.array.chip(chip).expect("valid chip").env();
        let wear = |b: u32| env.erase_count(b as usize);
        let blocks = 0..self.geometry().blocks_per_chip;
        let hottest = blocks.clone().map(wear).max()?;
        let (coldest_block, coldest) = blocks
            .map(BlockId)
            .filter(|b| self.is_closed(chip, *b))
            .map(|b| (b, wear(b.0)))
            .min_by_key(|(b, e)| (*e, b.0))?;
        if hottest.saturating_sub(coldest) <= cfg.wear_spread_limit {
            return None;
        }
        // A partial migration leaves the block as the coldest closed one,
        // so the next wear window resumes it automatically.
        let batch = cfg.scrub_batch_pages;
        let (latency, outcome) = self.refresh_block(chip, coldest_block, mu, batch);
        let moved = match outcome {
            RefreshOutcome::Erased { pages_moved } | RefreshOutcome::Partial { pages_moved } => {
                self.stats.wear_level_moves += pages_moved;
                pages_moved
            }
            RefreshOutcome::Stalled => 0,
        };
        if latency > 0.0 && self.trace.wants(EventMask::MAINT) {
            self.trace.emit(
                self.tel_now_us,
                EventKind::Maint {
                    chip: chip as u32,
                    service: "wear_level",
                    page_moves: moved,
                },
            );
        }
        (latency > 0.0).then_some(latency)
    }

    /// Wear-levels the checkpoint region itself: ring erases land on
    /// one block every flush interval, so it runs hot. When its erase
    /// count exceeds the coldest free block's by more than the spread
    /// bound, the ring moves — the live metadata pages are rewritten
    /// into the least-worn free block and the hot block returns to the
    /// allocation pool (erased, so its retention clock is young).
    fn maint_ckpt_wear_step(&mut self, chip: usize) -> Option<f64> {
        if chip != 0 {
            return None;
        }
        let cfg = self.maint.as_ref()?.config;
        let old = *self.ckpt.as_ref()?.region.first()?;
        if self.free_blocks[0].is_empty() {
            return None;
        }
        let env = self.array.chip(0).expect("chip 0 exists").env();
        let wear = |b: &BlockId| env.erase_count(b.0 as usize);
        let coldest_free = self.free_blocks[0].iter().map(wear).min()?;
        if wear(&old).saturating_sub(coldest_free) <= cfg.wear_spread_limit {
            return None;
        }
        let fresh = self.pop_free_block(0).expect("pool checked non-empty");
        let per_block = u64::from(self.geometry().pages_per_block());
        let live = self
            .ckpt
            .as_ref()
            .map_or(0, |c| c.pages_written % per_block);
        let mut latency = live as f64 * CKPT_PAGE_PROGRAM_US;
        self.seq_counter += 1;
        latency += self
            .array
            .chip_mut(0)
            .expect("chip 0 exists")
            .erase_tagged(old, self.seq_counter)
            .expect("region block in range");
        let st = self.ckpt.as_mut().expect("region checked above");
        st.region.clear();
        st.region.push(fresh);
        self.free_blocks[0].push_back(old);
        self.is_free[0][old.0 as usize] = true;
        self.stats.erases += 1;
        self.stats.wear_level_moves += live;
        if self.trace.wants(EventMask::MAINT) {
            self.trace.emit(
                self.tel_now_us,
                EventKind::Maint {
                    chip: 0,
                    service: "wear_level",
                    page_moves: live,
                },
            );
        }
        Some(latency)
    }

    /// Refreshes `block` incrementally: migrates up to `batch` of its
    /// valid pages to fresh WLs per call and, once none remain, erases
    /// it, returning it to the free pool young (per-block retention
    /// tracking resets its age on erase). Bounding the batch keeps each
    /// maintenance dispatch short, so host requests never queue behind a
    /// whole-block migration; callers resume a
    /// [`RefreshOutcome::Partial`] block on their next idle window.
    ///
    /// When the free pool is at the GC threshold, this dispatch instead
    /// spends its batch draining the chip's best reclaim victim (often
    /// `block` itself — a half-drained block is the emptiest around), so
    /// maintenance never issues the multi-block GC pass the host write
    /// path is allowed. With no reclaimable garbage at all it gives up
    /// ([`RefreshOutcome::Stalled`]) and a later pass retries once
    /// overwrites have created some.
    fn refresh_block(
        &mut self,
        chip: usize,
        block: BlockId,
        mu: f64,
        batch: u32,
    ) -> (f64, RefreshOutcome) {
        if self.free_blocks[chip].len() <= self.config.gc_free_block_threshold {
            if self.free_blocks[chip].is_empty() {
                // Migration itself consumes free WLs; without any free
                // block the batch below could strand the allocator.
                return (0.0, RefreshOutcome::Stalled);
            }
            let Some(victim) = self.gc_victim(chip) else {
                return (0.0, RefreshOutcome::Stalled);
            };
            if victim != block {
                let (latency, outcome) = self.migrate_block_batch(chip, victim, mu, batch);
                let moved = match outcome {
                    RefreshOutcome::Erased { pages_moved }
                    | RefreshOutcome::Partial { pages_moved } => pages_moved,
                    RefreshOutcome::Stalled => 0,
                };
                self.stats.maint_gc_page_moves += moved;
                // `block` itself made no progress; report Partial so the
                // caller parks on it and retries next window.
                return (latency, RefreshOutcome::Partial { pages_moved: 0 });
            }
        }
        self.migrate_block_batch(chip, block, mu, batch)
    }

    /// The migration core of [`Self::refresh_block`]: moves up to `batch`
    /// valid pages of `block` and erases it once clean. Assumes the free
    /// pool can absorb one batch.
    fn migrate_block_batch(
        &mut self,
        chip: usize,
        block: BlockId,
        mu: f64,
        batch: u32,
    ) -> (f64, RefreshOutcome) {
        let mut latency = 0.0;
        let limit = batch.max(1) as usize;
        let (pages_moved, pages_left) = self.migrate_pages(chip, block, limit, mu, &mut latency);
        if pages_left {
            return (latency, RefreshOutcome::Partial { pages_moved });
        }
        self.mapping.assert_block_clean(chip, block.0);
        self.seq_counter += 1;
        latency += self
            .array
            .chip_mut(chip)
            .expect("valid chip")
            .erase_tagged(block, self.seq_counter)
            .expect("block in range");
        if let Some(opm) = &mut self.opm {
            opm.invalidate_block(chip, block.0);
        }
        self.free_blocks[chip].push_back(block);
        self.is_free[chip][block.0 as usize] = true;
        self.stats.erases += 1;
        (latency, RefreshOutcome::Erased { pages_moved })
    }

    /// Reads one page of a leader WL during maintenance (BER sampling and
    /// ORT refresh). Charged to the maintenance time budget, not to the
    /// host read statistics.
    fn maint_sample_read(&mut self, chip: usize, wl: nand3d::WlAddr) -> f64 {
        let page = PageAddr {
            wl,
            page: nand3d::PageIndex(0),
        };
        let lookup = self.opm.as_mut().map(|opm| opm.lookup_offset(chip, wl));
        let params = match lookup {
            Some(l) if l.seeded => ReadParams::seeded_from(l.offset),
            Some(l) => ReadParams::from_offset(l.offset),
            None => ReadParams::default(),
        };
        let report = self
            .array
            .chip_mut(chip)
            .expect("valid chip")
            .read_page(page, params)
            .expect("sampled WL is written");
        if let Some(opm) = &mut self.opm {
            if let Some(l) = lookup {
                opm.note_read_outcome(l, report.final_offset);
            }
            opm.update_read_offset(chip, wl, report.final_offset);
        }
        report.latency_us
    }
}

/// The erase counters that steer allocation and victim selection on
/// `chip` while the wear-leveling service is on. A function of the two
/// fields it reads, so callers can go on mutating the free pools.
fn wear_env<'a>(
    maint: &Option<MaintState>,
    array: &'a FlashArray,
    chip: usize,
) -> Option<&'a Environment> {
    maint
        .as_ref()
        .is_some_and(|m| m.config.wear_leveling)
        .then(|| array.chip(chip).expect("valid chip").env())
}

/// Takes the next block to allocate out of a chip's free pool: FIFO
/// order, or — under wear leveling, `wear` given — the least-worn free
/// block (cold blocks absorb new writes), ties broken by block id.
fn take_free_block(
    free: &mut VecDeque<BlockId>,
    is_free: &mut [bool],
    wear: Option<&Environment>,
) -> Option<BlockId> {
    let b = match wear {
        Some(env) => {
            let i = free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| (env.erase_count(b.0 as usize), b.0))?
                .0;
            free.remove(i)?
        }
        None => free.pop_front()?,
    };
    is_free[b.0 as usize] = false;
    Some(b)
}

/// Result of one bounded [`Ftl::refresh_block`] dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefreshOutcome {
    /// No free-pool headroom and GC could not make any; retry later.
    Stalled,
    /// Some valid pages migrated but the block still holds more; the
    /// caller should resume it on its next idle window.
    Partial { pages_moved: u64 },
    /// The block is fully migrated, erased and back in the free pool.
    Erased { pages_moved: u64 },
}

impl FtlDriver for Ftl {
    fn write_wl(&mut self, chip: usize, lpns: [u64; 3], ctx: &HostContext) -> WlWrite {
        self.tel_now_us = ctx.now_us;
        let mut nand_us = 0.0;
        let mut did_gc = false;
        if !self.in_gc && self.free_blocks[chip].len() <= self.config.gc_free_block_threshold {
            self.in_gc = true;
            nand_us += self.run_gc(chip, ctx.buffer_utilization);
            self.in_gc = false;
            did_gc = true;
        }
        let (t, leader) = self.program_and_map(chip, lpns, ctx.buffer_utilization);
        nand_us += t;
        if let Some(t) = self.checkpoint_tick() {
            nand_us += t;
        }
        WlWrite {
            nand_us,
            did_gc,
            leader,
        }
    }

    fn read_page(&mut self, lpn: u64, ctx: &HostContext) -> Option<PageRead> {
        self.tel_now_us = ctx.now_us;
        self.read_mapped(lpn)
    }

    fn trim(&mut self, lpn: u64) {
        if self.mapping.unmap(lpn).is_some() {
            self.stats.host_trims += 1;
        }
    }

    fn maintenance_step(&mut self, chip: usize, ctx: &HostContext) -> Option<MaintWork> {
        self.maint.as_ref()?;
        self.tel_now_us = ctx.now_us;
        self.in_maint = true;
        let work = self.maintenance_unit(chip, ctx.buffer_utilization);
        self.in_maint = false;
        work.map(|nand_us| MaintWork { nand_us })
    }

    fn stats(&self) -> FtlStats {
        let mut stats = self.stats;
        if let Some(opm) = &self.opm {
            let (hits, misses, evictions) = opm.ort_counters();
            stats.ort_hits = hits;
            stats.ort_misses = misses;
            stats.ort_evictions = evictions;
            stats.ort_fallbacks = opm.ort_fallbacks();
            let (seeds, chits, mispredicts) = opm.cluster_counters();
            stats.cluster_seeds = seeds;
            stats.cluster_hits = chits;
            stats.cluster_mispredicts = mispredicts;
        }
        stats
    }

    fn free_blocks(&self) -> u64 {
        self.free_blocks.iter().map(|p| p.len() as u64).sum()
    }

    fn name(&self) -> &str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(mu: f64) -> HostContext {
        HostContext {
            buffer_utilization: mu,
            now_us: 0.0,
        }
    }

    fn write_all<F: FtlDriver>(
        ftl: &mut F,
        lpns: impl Iterator<Item = u64>,
        chips: usize,
        mu: f64,
    ) {
        let mut batch = [WlData::PAD; 3];
        let mut n = 0;
        let mut chip = 0;
        for lpn in lpns {
            batch[n] = lpn;
            n += 1;
            if n == 3 {
                ftl.write_wl(chip, batch, &ctx(mu));
                chip = (chip + 1) % chips;
                batch = [WlData::PAD; 3];
                n = 0;
            }
        }
        if n > 0 {
            ftl.write_wl(chip, batch, &ctx(mu));
        }
    }

    #[test]
    fn write_then_read_roundtrip_all_kinds() {
        for kind in FtlKind::ALL {
            let cfg = FtlConfig::small();
            let mut ftl = Ftl::new(kind, cfg);
            write_all(&mut ftl, 0..300, cfg.chips, 0.5);
            for lpn in 0..300 {
                let r = ftl
                    .read_page(lpn, &ctx(0.0))
                    .unwrap_or_else(|| panic!("{}: lpn {lpn} unmapped", kind.name()));
                assert!(r.nand_us > 0.0);
            }
            assert!(ftl.read_page(100_000_000, &ctx(0.0)).is_none());
        }
    }

    #[test]
    fn overwrites_remap_to_latest() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..30, cfg.chips, 0.5);
        write_all(&mut ftl, 0..30, cfg.chips, 0.5);
        for lpn in 0..30 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some());
        }
    }

    #[test]
    fn gc_reclaims_space_under_sustained_overwrites() {
        let cfg = FtlConfig::small();
        for kind in FtlKind::ALL {
            let mut ftl = Ftl::new(kind, cfg);
            let working_set = 200u64;
            // Write far more data than physical capacity / 3 to force GC.
            let total = cfg.nand.geometry.pages_per_chip() * cfg.chips as u64 * 3;
            write_all(
                &mut ftl,
                (0..total).map(|i| i % working_set),
                cfg.chips,
                0.5,
            );
            let stats = ftl.stats();
            assert!(stats.gc_runs > 0, "{}: GC never ran", kind.name());
            assert!(stats.erases > 0);
            // All data still readable after GC.
            for lpn in 0..working_set {
                assert!(
                    ftl.read_page(lpn, &ctx(0.0)).is_some(),
                    "{}: lost lpn {lpn}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn cube_writes_followers_under_bursts() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        // Calm phase banks leaders; burst phase must hit followers.
        write_all(&mut ftl, 0..120, cfg.chips, 0.2);
        let calm_followers = ftl.stats().follower_wl_programs;
        write_all(&mut ftl, 120..240, cfg.chips, 0.95);
        let burst_followers = ftl.stats().follower_wl_programs - calm_followers;
        assert!(
            burst_followers > 30,
            "burst should be served by followers, got {burst_followers}"
        );
    }

    #[test]
    fn cube_is_faster_than_page_on_average() {
        // The core claim: PS-aware programming shortens tPROG (§6).
        let cfg = FtlConfig::small();
        let mut total = std::collections::HashMap::new();
        for kind in [FtlKind::Page, FtlKind::Cube] {
            let mut ftl = Ftl::new(kind, cfg);
            let mut t = 0.0;
            let mut batch = [WlData::PAD; 3];
            let mut n = 0;
            let mut chip = 0;
            for lpn in 0..600u64 {
                batch[n] = lpn;
                n += 1;
                if n == 3 {
                    // High μ so cubeFTL uses its follower pool.
                    t += ftl.write_wl(chip, batch, &ctx(0.95)).nand_us;
                    chip = (chip + 1) % cfg.chips;
                    batch = [WlData::PAD; 3];
                    n = 0;
                }
            }
            total.insert(kind.name(), t);
        }
        let page = total["pageFTL"];
        let cube = total["cubeFTL"];
        let reduction = 1.0 - cube / page;
        assert!(
            (0.10..0.40).contains(&reduction),
            "cube vs page write-time reduction {reduction:.3}"
        );
    }

    #[test]
    fn vert_is_mildly_faster_than_page() {
        let cfg = FtlConfig::small();
        let mut times = Vec::new();
        for kind in [FtlKind::Page, FtlKind::Vert] {
            let mut ftl = Ftl::new(kind, cfg);
            let mut t = 0.0;
            for i in 0..100u64 {
                let lpns = [i * 3, i * 3 + 1, i * 3 + 2];
                t += ftl
                    .write_wl((i % cfg.chips as u64) as usize, lpns, &ctx(0.5))
                    .nand_us;
            }
            times.push(t);
        }
        let reduction = 1.0 - times[1] / times[0];
        assert!(
            (0.04..0.12).contains(&reduction),
            "vertFTL reduction {reduction:.3}, expected ≈8% (§6.2)"
        );
    }

    #[test]
    fn cube_reads_need_fewer_retries_when_aged() {
        let cfg = FtlConfig::small();
        let mut retries = std::collections::HashMap::new();
        for kind in [FtlKind::Page, FtlKind::Cube] {
            let mut ftl = Ftl::new(kind, cfg);
            write_all(&mut ftl, 0..600, cfg.chips, 0.5);
            ftl.set_aging(AgingState::EndOfLife);
            ftl.reset_stats();
            // Re-read everything twice: the second pass benefits from the
            // ORT populated by the first.
            for _ in 0..2 {
                for lpn in 0..600 {
                    ftl.read_page(lpn, &ctx(0.0)).unwrap();
                }
            }
            retries.insert(kind.name(), ftl.stats().read_retries);
        }
        let page = retries["pageFTL"] as f64;
        let cube = retries["cubeFTL"] as f64;
        assert!(
            cube < page * 0.6,
            "cubeFTL retries {cube} vs pageFTL {page}: expected ≥40% fewer"
        );
    }

    #[test]
    fn safety_reprograms_occur_under_disturbance() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        ftl.set_disturbance_prob(0.05);
        write_all(&mut ftl, (0..3000).map(|i| i % 700), cfg.chips, 0.95);
        assert!(
            ftl.stats().safety_reprograms > 0,
            "disturbances must trigger the §4.1.4 safety path"
        );
        // Data integrity preserved despite re-programs.
        for lpn in 0..700 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some());
        }
    }

    #[test]
    fn stats_reset_clears_counters() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::page(cfg);
        write_all(&mut ftl, 0..30, cfg.chips, 0.5);
        assert!(ftl.stats().host_wl_programs > 0);
        ftl.reset_stats();
        assert_eq!(ftl.stats().host_wl_programs, 0);
    }

    #[test]
    fn names_match_paper() {
        let cfg = FtlConfig::small();
        assert_eq!(Ftl::page(cfg).name(), "pageFTL");
        assert_eq!(Ftl::vert(cfg).name(), "vertFTL");
        assert_eq!(Ftl::cube(cfg).name(), "cubeFTL");
        assert_eq!(Ftl::cube_minus(cfg).name(), "cubeFTL-");
    }

    #[test]
    fn targeted_ber_spike_triggers_one_safety_reprogram_and_remonitor() {
        use nand3d::FaultKind;
        let cfg = FtlConfig::small();
        // cubeFTL- allocates sequentially (horizontal-first), so chip 0's
        // first block programs WL (b0,h0,v0) leader, then (b0,h0,v1)
        // follower. Spike the follower's post-program BER 4× — past the
        // §4.1.4 safety factor of 3×.
        let mut ftl = Ftl::cube_minus(cfg);
        let plan = FaultPlan::seeded(7).with_target(0, 0, 1, FaultKind::BerSpike);
        ftl.set_fault_plan(&plan);

        ftl.write_wl(0, [0, 1, 2], &ctx(0.5)); // leader (b0,h0,v0)
        ftl.write_wl(0, [3, 4, 5], &ctx(0.5)); // follower (b0,h0,v1) — spiked
        ftl.write_wl(0, [6, 7, 8], &ctx(0.5)); // follower (b0,h0,v3)

        let stats = ftl.stats();
        assert_eq!(stats.safety_reprograms, 1, "exactly one §4.1.4 re-program");
        assert_eq!(stats.safety_demotions, 1, "the h-layer was demoted once");
        assert_eq!(stats.host_wl_programs, 3, "re-program is not a host WL");
        assert_eq!(ftl.fault_counters().ber_spikes, 1);
        // The re-program on the next WL ran leader-style with default
        // parameters and re-monitored the layer: it is no longer demoted.
        let g = cfg.nand.geometry;
        let wl = g.wl_addr(BlockId(0), 0, 1);
        let opm = ftl.opm().expect("cubeFTL- has an OPM");
        assert!(!opm.is_demoted(0, wl), "re-monitor lifts the demotion");
        assert!(
            opm.follower_params(0, wl).is_some(),
            "fresh monitored parameters recorded by the re-program"
        );
        // All data (including the re-programmed WL) reads back.
        for lpn in 0..9 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some(), "lost lpn {lpn}");
        }
    }

    #[test]
    fn targeted_abort_reissues_on_next_wl() {
        use nand3d::FaultKind;
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube_minus(cfg);
        let plan = FaultPlan::seeded(7).with_target(0, 0, 1, FaultKind::ProgramAbort);
        ftl.set_fault_plan(&plan);

        ftl.write_wl(0, [0, 1, 2], &ctx(0.5));
        ftl.write_wl(0, [3, 4, 5], &ctx(0.5)); // aborted once, re-issued
        let stats = ftl.stats();
        assert_eq!(stats.program_aborts, 1);
        assert_eq!(stats.host_wl_programs, 2);
        assert_eq!(ftl.fault_counters().program_aborts, 1);
        for lpn in 0..6 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some(), "lost lpn {lpn}");
        }
    }

    #[test]
    fn read_faults_are_recovered_and_counted() {
        use nand3d::FaultKind;
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        let plan = FaultPlan::seeded(11)
            .with_rate(FaultKind::StuckRetry, 0.05)
            .with_rate(FaultKind::UncorrectableRead, 0.05);
        ftl.set_fault_plan(&plan);
        ftl.reset_stats();
        for lpn in 0..300 {
            // read_mapped debug-asserts the page data matches the LPN, so
            // a faulted read returning wrong data would panic here.
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some());
        }
        let stats = ftl.stats();
        let counters = ftl.fault_counters();
        assert!(stats.stuck_retry_recoveries > 0, "no stuck retries seen");
        assert!(stats.uncorrectable_recoveries > 0, "no uncorrectables seen");
        // No GC ran, so every injected read fault maps to one recovery.
        assert_eq!(stats.stuck_retry_recoveries, counters.stuck_retries);
        assert_eq!(stats.uncorrectable_recoveries, counters.uncorrectable_reads);
        // Uncorrectable recoveries pay a full offset scan.
        assert!(stats.read_retries >= stats.uncorrectable_recoveries * 8);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        use nand3d::FaultKind;
        let run = || {
            let cfg = FtlConfig::small();
            let mut ftl = Ftl::cube(cfg);
            let plan = FaultPlan::seeded(99)
                .with_rate(FaultKind::IsppLoopOutlier, 0.02)
                .with_rate(FaultKind::BerSpike, 0.02)
                .with_rate(FaultKind::ProgramAbort, 0.01)
                .with_rate(FaultKind::StuckRetry, 0.02)
                .with_rate(FaultKind::UncorrectableRead, 0.02);
            ftl.set_fault_plan(&plan);
            write_all(&mut ftl, (0..1200).map(|i| i % 400), cfg.chips, 0.7);
            for lpn in 0..400 {
                ftl.read_page(lpn, &ctx(0.0)).unwrap();
            }
            (ftl.stats(), ftl.fault_counters())
        };
        let (s1, c1) = run();
        let (s2, c2) = run();
        assert_eq!(s1, s2, "stats must not depend on anything but the seed");
        assert_eq!(c1, c2, "fault draws must be reproducible");
        assert!(c1.total() > 0, "the plan should actually inject faults");
    }

    #[test]
    fn trim_unmaps() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::page(cfg);
        write_all(&mut ftl, 0..3, cfg.chips, 0.5);
        assert!(ftl.read_page(0, &ctx(0.0)).is_some());
        ftl.trim(0);
        assert!(ftl.read_page(0, &ctx(0.0)).is_none());
    }

    #[test]
    fn maintenance_step_is_noop_until_enabled() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        ftl.set_aging(AgingState::EndOfLife);
        assert!(ftl.maintenance_step(0, &ctx(0.0)).is_none());
        assert_eq!(ftl.maint_config(), None);
        let stats = ftl.stats();
        assert_eq!(stats.scrub_blocks + stats.scrub_sample_reads, 0);
    }

    #[test]
    fn scrubber_refreshes_aged_blocks_and_counts_work() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        ftl.set_aging(AgingState::EndOfLife); // 12 months > 6-month bar
        ftl.enable_maintenance(MaintConfig::default_on());
        ftl.reset_stats();

        let host_writes_before = ftl.stats().host_wl_programs;
        let mut steps = 0;
        while ftl.maintenance_step(0, &ctx(0.0)).is_some() && steps < 10_000 {
            steps += 1;
        }
        let stats = ftl.stats();
        assert!(stats.scrub_blocks > 0, "no blocks were refreshed");
        assert!(stats.scrub_sample_reads > 0, "no BER sampling happened");
        assert!(stats.scrub_page_moves > 0, "no pages migrated");
        assert_eq!(
            stats.host_wl_programs, host_writes_before,
            "maintenance writes must not count as host writes"
        );
        assert_eq!(
            stats.nand_reads, 0,
            "maintenance reads must not count as host reads"
        );
        // Scrubbed data remains readable.
        for lpn in 0..300 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some(), "lost lpn {lpn}");
        }
        // Refreshed blocks read young: retries drop versus an unscrubbed
        // EndOfLife FTL reading the same data.
        let retries_scrubbed = {
            let mut r = 0;
            ftl.reset_stats();
            for lpn in 0..300 {
                r += ftl.read_page(lpn, &ctx(0.0)).unwrap().retries;
            }
            r
        };
        let mut unscrubbed = Ftl::cube(cfg);
        write_all(&mut unscrubbed, 0..300, cfg.chips, 0.5);
        unscrubbed.set_aging(AgingState::EndOfLife);
        let retries_unscrubbed = {
            let mut r = 0;
            for lpn in 0..300 {
                r += unscrubbed.read_page(lpn, &ctx(0.0)).unwrap().retries;
            }
            r
        };
        assert!(
            retries_scrubbed < retries_unscrubbed,
            "scrubbing should reduce retries: {retries_scrubbed} vs {retries_unscrubbed}"
        );
    }

    #[test]
    fn scrubber_idles_on_fresh_data() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        // Fresh aging: retention 0 — nothing qualifies, not even for
        // sampling.
        ftl.enable_maintenance(MaintConfig::default_on());
        assert!(ftl.maintenance_step(0, &ctx(0.0)).is_none());
        assert_eq!(ftl.stats().scrub_sample_reads, 0);
    }

    #[test]
    fn remonitor_drops_stale_layer_params() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube_minus(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        assert!(ftl.opm().unwrap().pending_layers() > 0);
        ftl.set_aging(AgingState::EndOfLife); // 12 months > 6-month budget
        let mut maint = MaintConfig::default_on();
        // Isolate the re-monitor service.
        maint.scrub_retention_min_months = f64::INFINITY;
        maint.scrub_ber_threshold = f64::INFINITY;
        maint.wear_leveling = false;
        ftl.enable_maintenance(maint);

        let pending_before = ftl.opm().unwrap().pending_layers();
        let mut steps = 0;
        while ftl.maintenance_step(0, &ctx(0.0)).is_some() && steps < 10_000 {
            steps += 1;
        }
        let stats = ftl.stats();
        assert!(stats.remonitored_layers > 0, "no layers re-monitored");
        assert!(
            ftl.opm().unwrap().pending_layers() < pending_before,
            "stale monitored parameters should have been dropped"
        );
        assert_eq!(stats.scrub_blocks, 0, "scrubber was disabled");
    }

    #[test]
    fn maintenance_preserves_determinism() {
        let run = || {
            let cfg = FtlConfig::small();
            let mut ftl = Ftl::cube(cfg);
            write_all(&mut ftl, 0..400, cfg.chips, 0.5);
            ftl.set_aging(AgingState::EndOfLife);
            ftl.enable_maintenance(MaintConfig::default_on());
            for chip in 0..cfg.chips {
                for _ in 0..50 {
                    if ftl.maintenance_step(chip, &ctx(0.0)).is_none() {
                        break;
                    }
                }
            }
            write_all(&mut ftl, (0..600).map(|i| i % 400), cfg.chips, 0.7);
            for lpn in 0..400 {
                ftl.read_page(lpn, &ctx(0.0)).unwrap();
            }
            ftl.stats()
        };
        assert_eq!(run(), run(), "maintenance must be fully deterministic");
    }

    #[test]
    fn power_cycle_rebuilds_mapping_from_oob_alone() {
        // No checkpoint ever taken: the whole map must come back from
        // the per-WL OOB records, in sequence order.
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        write_all(&mut ftl, 0..100, cfg.chips, 0.5); // overwrites: replay order matters
        let (mut ftl, report) = ftl.power_cycle(&[]);
        assert!(!report.checkpoint_loaded);
        assert_eq!(report.ckpt_entries_restored, 0);
        assert!(report.oob_records_replayed >= 300);
        for lpn in 0..300 {
            assert!(
                ftl.read_page(lpn, &ctx(0.0)).is_some(),
                "lpn {lpn} lost across the power cycle"
            );
        }
    }

    #[test]
    fn power_cycle_restores_checkpoint_and_scans_only_the_tail() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        ftl.enable_checkpointing(u64::MAX); // manual flushes only
        write_all(&mut ftl, 0..200, cfg.chips, 0.5);
        assert!(ftl.take_checkpoint() > 0.0, "flush charges NAND time");
        assert_eq!(ftl.checkpoints_taken(), 1);
        write_all(&mut ftl, 200..260, cfg.chips, 0.5);
        let (mut ftl, report) = ftl.power_cycle(&[]);
        assert!(report.checkpoint_loaded);
        assert!(report.ckpt_entries_restored >= 150);
        assert!(
            report.blocks_scanned < report.blocks_probed,
            "only post-checkpoint blocks get the full OOB scan \
             ({} of {} probed)",
            report.blocks_scanned,
            report.blocks_probed
        );
        for lpn in 0..260 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some());
        }
    }

    #[test]
    fn power_cut_tears_wls_and_recovery_replays_the_plp_dump() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..120, cfg.chips, 0.5);
        // LPNs 0..3 were mid-flush on chip 0 when the power died.
        let torn = ftl.power_cut(0, [0, 1, 2], false);
        assert!(torn > 0, "mapped LPNs must tear their WL");
        let (mut ftl, report) = ftl.power_cycle(&[0, 1, 2]);
        assert_eq!(report.torn_wls_quarantined, torn);
        assert!(
            report.layers_demoted > 0,
            "cubeFTL boots the torn WL's h-layer demoted (§4.1.4)"
        );
        assert_eq!(report.plp_pages_replayed, 3);
        // The torn copies are gone but the PLP replay re-wrote the data.
        for lpn in 0..120 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some());
        }
    }

    #[test]
    fn power_cycle_boots_the_opm_cold() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..200, cfg.chips, 0.5);
        assert!(
            ftl.opm().unwrap().pending_layers() > 0,
            "the warm run must have monitored some layers"
        );
        let seq_before = ftl.seq_counter();
        let (ftl, _) = ftl.power_cycle(&[]);
        assert_eq!(
            ftl.opm().unwrap().pending_layers(),
            0,
            "monitored parameters must NOT survive the power cycle"
        );
        assert!(
            ftl.seq_counter() >= seq_before,
            "the sequence horizon is recovered from flash, never rewound"
        );
    }

    #[test]
    fn hot_checkpoint_block_is_wear_leveled_back_into_the_pool() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        ftl.enable_checkpointing(u64::MAX); // manual flushes only
        write_all(&mut ftl, 0..120, cfg.chips, 0.5);
        assert!(ftl.take_checkpoint() > 0.0);
        let region = ftl.ckpt_region();
        assert_eq!(region.len(), 1, "first flush allocates a real region block");
        let old = region[0];

        // Ring-erase the region block until it is clearly the hottest
        // thing on the chip.
        let erase_count =
            |ftl: &Ftl, b: BlockId| ftl.array().chip(0).unwrap().env().erase_count(b.0 as usize);
        let mut guard = 0;
        while erase_count(&ftl, old) < 8 {
            ftl.take_checkpoint();
            guard += 1;
            assert!(guard < 20_000, "flushes never crossed a block boundary");
        }

        let mut maint = MaintConfig::default_on();
        maint.wear_spread_limit = 2;
        // Isolate wear leveling from the scrubber.
        maint.scrub_retention_min_months = f64::INFINITY;
        maint.scrub_ber_threshold = f64::INFINITY;
        ftl.enable_maintenance(maint);

        let mut steps = 0;
        while ftl.ckpt_region() == vec![old] && steps < 1000 {
            if ftl.maintenance_step(0, &ctx(0.0)).is_none() {
                break;
            }
            steps += 1;
        }
        let region_now = ftl.ckpt_region();
        assert_eq!(region_now.len(), 1);
        assert_ne!(region_now[0], old, "hot region block must be swapped out");

        // The recycled block's wear is frozen: further ring erases land
        // on the new region block, not the old one.
        let old_wear = erase_count(&ftl, old);
        let new_wear = erase_count(&ftl, region_now[0]);
        for _ in 0..guard {
            ftl.take_checkpoint();
        }
        assert_eq!(erase_count(&ftl, old), old_wear, "old block left the ring");
        assert!(
            erase_count(&ftl, region_now[0]) > new_wear,
            "the new region block absorbs the ring erases"
        );
        // And it is back in the allocation pool: sustained overwrites
        // may allocate it again without tripping any region guard.
        write_all(&mut ftl, (0..1200).map(|i| i % 120), cfg.chips, 0.7);
        for lpn in 0..120 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some(), "lost lpn {lpn}");
        }
    }

    #[test]
    fn wear_leveling_allocates_the_least_worn_free_block_lowest_id_first() {
        // Cube allocates through the WAM's closure, Page through the
        // sequential write point: both must pick by wear, then by id.
        for kind in [FtlKind::Cube, FtlKind::Page] {
            let mut ftl = Ftl::new(kind, FtlConfig::small());
            // Wear every block of chip 0 except 3 and 5; FIFO order
            // would hand out block 0.
            for b in (0..ftl.geometry().blocks_per_chip).filter(|b| ![3, 5].contains(b)) {
                for _ in 0..=b % 2 {
                    ftl.array.chip_mut(0).unwrap().erase(BlockId(b)).unwrap();
                }
            }
            ftl.enable_maintenance(MaintConfig::default_on());
            let mut allocated = Vec::new();
            while allocated.len() < 3 {
                let block = ftl.select_wl(0, 0.0).addr().block;
                if !allocated.contains(&block) {
                    allocated.push(block);
                }
            }
            assert_eq!(
                allocated,
                [BlockId(3), BlockId(5), BlockId(0)],
                "{}: unworn blocks by id, then the least worn",
                kind.name()
            );
            assert!(allocated.iter().all(|b| !ftl.is_free[0][b.0 as usize]));
        }
    }

    #[test]
    fn checkpoint_region_is_never_a_gc_victim() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        ftl.enable_checkpointing(u64::MAX);
        write_all(&mut ftl, 0..120, cfg.chips, 0.5);
        ftl.take_checkpoint();
        let region = ftl.ckpt_region();
        assert_eq!(region.len(), 1);
        // Hammer the device hard enough for sustained GC on chip 0.
        write_all(&mut ftl, (0..2400).map(|i| i % 200), cfg.chips, 0.9);
        assert!(ftl.stats().gc_runs > 0, "workload must trigger GC");
        assert_eq!(
            ftl.ckpt_region(),
            region,
            "GC must never erase the live checkpoint region"
        );
    }

    #[test]
    fn lifetime_epochs_age_blocks_monotonically() {
        use lifetime::LifetimeConfig;
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::page(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        ftl.enable_lifetime_aging();
        let read_retries = |ftl: &mut Ftl| {
            let mut r = 0u64;
            for lpn in 0..300 {
                r += u64::from(ftl.read_page(lpn, &ctx(0.0)).unwrap().retries);
            }
            r
        };
        let fresh = read_retries(&mut ftl);
        let mut engine = LifetimeEngine::new(LifetimeConfig::campaign());
        let mut last = fresh;
        for _ in 0..engine.config().steps() {
            let summary = ftl.advance_lifetime_epoch(&mut engine);
            assert!(summary.pe_added > 0, "every step must add wear");
            assert!(summary.blocks_aged > 0);
            let now = read_retries(&mut ftl);
            assert!(
                now >= last,
                "aging must never reduce retries: {now} < {last}"
            );
            last = now;
        }
        assert!(
            last > fresh,
            "end of life must retry more than fresh: {last} vs {fresh}"
        );
    }

    #[test]
    fn lifetime_epoch_application_is_deterministic() {
        use lifetime::LifetimeConfig;
        let run = || {
            let cfg = FtlConfig::small();
            let mut ftl = Ftl::cube(cfg);
            write_all(&mut ftl, 0..300, cfg.chips, 0.5);
            ftl.enable_lifetime_aging();
            let mut engine = LifetimeEngine::new(LifetimeConfig::campaign());
            let s1 = ftl.advance_lifetime_epoch(&mut engine);
            write_all(&mut ftl, (0..300).map(|i| i % 300), cfg.chips, 0.7);
            let s2 = ftl.advance_lifetime_epoch(&mut engine);
            (s1, s2, ftl.stats())
        };
        assert_eq!(run(), run(), "campaigns must be byte-reproducible");
    }

    #[test]
    fn interrupted_gc_erase_is_redone_on_boot() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        // Overwrite heavily so GC has certainly erased a victim.
        write_all(&mut ftl, (0..1200).map(|i| i % 200), cfg.chips, 0.9);
        assert!(ftl.stats().gc_runs > 0, "workload must trigger GC");
        ftl.power_cut(0, [WlData::PAD; 3], true);
        let (mut ftl, report) = ftl.power_cycle(&[]);
        assert_eq!(report.interrupted_erases_redone, 1);
        for lpn in 0..200 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some());
        }
    }
}
