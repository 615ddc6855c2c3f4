//! The FTL family: one shared page-level engine, four parameter policies.
//!
//! [`Ftl`] owns the flash array, the page mapping, the free-block pools
//! and the garbage collector. The four kinds differ in two decisions
//! only — how WLs are allocated (every kind through a [`Wam`]) and how
//! they are parameterized (a `Params` value) — and `Ftl::cold` makes
//! both from one row per [`FtlKind`]:
//!
//! | kind | WAM | params | ORT |
//! |---|---|---|---|
//! | [`FtlKind::Page`] | [`Wam::horizontal_first`] | `Default`: device defaults | none: default references |
//! | [`FtlKind::Vert`] | [`Wam::horizontal_first`] | `VertGuard`: offline conservative `V_Final` −1 step on every WL | none: default references |
//! | [`FtlKind::CubeMinus`] | [`Wam::horizontal_first`] | `Opm`: leaders at defaults and monitored, followers optimized | the OPM's |
//! | [`FtlKind::Cube`] | §5.2: mixed order, `μ > mu_threshold` takes followers, `active_blocks_per_chip` | `Opm` | the OPM's |
//!
//! This file holds the struct, its constructors and accessors and the
//! [`FtlDriver`] entry points; the mechanisms live beside it, each said
//! once: [`crate::write`] (pools, allocation, program-and-map),
//! [`crate::read`] (the policy read), [`crate::gc`] (victim selection,
//! migration, release), [`crate::recovery`] (checkpoints, power cut,
//! power cycle), [`crate::maint`] (background services) and
//! [`crate::aging`] (lifetime epochs).

use crate::config::FtlConfig;
use crate::cube::opm::Opm;
use crate::cube::wam::Wam;
use crate::gc::{Cause, Migration};
use crate::maint::MaintState;
use crate::mapping::Mapping;
use crate::recovery::CkptState;
use crate::write::FreePool;
use nand3d::{AgingState, BlockId, FaultCounters, FaultPlan, FlashArray, Geometry, NandChip};
use ssdsim::{FtlDriver, FtlStats, HostContext, MaintWork, PageRead, WlWrite};
use telemetry::{Collector, EventMask, MetricRegistry, TraceEvent};

/// Which FTL variant an [`Ftl`] instance behaves as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtlKind {
    /// `pageFTL` — the PS-unaware baseline (§6.1).
    Page,
    /// `vertFTL` — offline conservative `V_Final`-only adjustment, after
    /// Hung et al. \[13\] (§6.1).
    Vert,
    /// `cubeFTL-` — cubeFTL with the WAM's §5.2 policy disabled: it
    /// allocates horizontal-first (§6.3).
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
}

/// How an [`Ftl`] parameterizes its WL programs and reads — the second
/// of the two decisions the kinds differ in (the module table). Only
/// `Opm` holds state, so "PS-aware" and "has an OPM" are one fact.
#[derive(Debug, Clone)]
pub(crate) enum Params {
    /// Device defaults and default read references (`pageFTL`).
    Default,
    /// Offline, conservative: the always-safe guard step off `V_Final`
    /// on every WL, after Hung et al. \[13\]; default read references
    /// (`vertFTL`).
    VertGuard,
    /// The §5.1 OPM and its ORT (`cubeFTL-`, `cubeFTL`).
    Opm(Opm),
}

/// On whose behalf the FTL reads or programs a page. The shared paths
/// take it as an argument; it decides only which counters an operation
/// feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// A host request (a rebuild's survivor reads arrive through the
    /// same `read_page`): counts as a host WL program, and its reads in
    /// `nand_reads` and `host_nand_reads`.
    Host,
    /// Garbage collection, a background unit or the foreground floor:
    /// its reads count in `nand_reads` but not `host_nand_reads`, its
    /// programs are not host WLs, its page moves are `gc_page_moves`.
    Gc,
    /// Background maintenance (and the post-crash PLP replay): its
    /// reads count only in `maint_nand_reads`, its programs are not host
    /// WLs.
    Maint,
}

/// A page-level FTL over a [`FlashArray`]. See the
/// [crate docs](crate) for the four variants.
#[derive(Debug, Clone)]
pub struct Ftl {
    pub(crate) kind: FtlKind,
    pub(crate) config: FtlConfig,
    pub(crate) array: FlashArray,
    pub(crate) mapping: Mapping,
    /// Per chip: erased blocks ready for allocation.
    pub(crate) free: Vec<FreePool>,
    /// The active blocks and the kind's WL allocation policy.
    pub(crate) wam: Wam,
    /// The kind's WL parameter policy.
    pub(crate) params: Params,
    pub(crate) stats: FtlStats,
    /// Scratch list of the `(lpn, flat page)` pairs one page migration
    /// moves.
    pub(crate) migrate_batch: Vec<(u64, u32)>,
    /// Per chip: the block its background units are draining, if any
    /// (`crate::gc`'s one mover for GC, scrubbing and wear leveling).
    pub(crate) migration: Vec<Option<Migration>>,
    /// Background maintenance services (when enabled).
    pub(crate) maint: Option<MaintState>,
    /// Monotonic operation sequence number stamped on every OOB record
    /// and tagged erase (the total order crash recovery replays in).
    pub(crate) seq_counter: u64,
    /// Per chip: the block GC erased most recently (what an SPO cutting
    /// a GC-carrying flush interrupts mid-erase).
    pub(crate) last_gc_erase: Vec<Option<BlockId>>,
    /// Periodic L2P checkpointing, when enabled.
    pub(crate) ckpt: Option<CkptState>,
    /// Structured event trace sink (inert unless enabled).
    pub(crate) trace: Collector,
    /// Virtual time of the current host call, µs — stamps trace events
    /// emitted from internal helpers that carry no [`HostContext`].
    pub(crate) tel_now_us: f64,
}

/// The FTL's chip access. `Ftl::new` builds the array with
/// `config.chips` chips and nothing ever adds or removes one, and every
/// chip index the FTL handles (the simulator's dispatch, a mapped PPN, a
/// per-chip pool, cursor or loop) is below that count, so a lookup never
/// misses. [`FlashArray::chip`] keeps its `Result` for outside callers.
pub(crate) trait Chips {
    /// Chip `chip` of the array.
    fn nand(&self, chip: usize) -> &NandChip;
    /// Chip `chip` of the array, mutably.
    fn nand_mut(&mut self, chip: usize) -> &mut NandChip;
}

impl Chips for FlashArray {
    fn nand(&self, chip: usize) -> &NandChip {
        self.chip(chip).expect("chip index below config.chips")
    }

    fn nand_mut(&mut self, chip: usize) -> &mut NandChip {
        self.chip_mut(chip).expect("chip index below config.chips")
    }
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
        let all_blocks = || (0..g.blocks_per_chip).map(BlockId);
        let free = (0..config.chips)
            .map(|_| FreePool::new(g.blocks_per_chip, all_blocks()))
            .collect();
        Ftl::cold(kind, config, array, mapping, free)
    }

    /// An FTL over the given durable state (flash contents, mapping,
    /// free pools) with every piece of volatile state cold: empty
    /// OPM/ORT, closed write points, zeroed counters, no maintenance,
    /// checkpointing or tracing. Construction and crash recovery both
    /// start here.
    pub(crate) fn cold(
        kind: FtlKind,
        config: FtlConfig,
        array: FlashArray,
        mapping: Mapping,
        free: Vec<FreePool>,
    ) -> Self {
        let (g, chips) = (config.nand.geometry, config.chips);
        let horizontal_first = || Wam::horizontal_first(g, chips);
        let opm = || {
            let mut opm = Opm::with_ort_capacity(&g, chips, config.ort_capacity);
            opm.set_cluster(config.ort_cluster);
            Params::Opm(opm)
        };
        let (wam, params) = match kind {
            FtlKind::Page => (horizontal_first(), Params::Default),
            FtlKind::Vert => (horizontal_first(), Params::VertGuard),
            FtlKind::CubeMinus => (horizontal_first(), opm()),
            FtlKind::Cube => {
                let (mu, active) = (config.mu_threshold, config.active_blocks_per_chip);
                (Wam::with_active_blocks(g, chips, mu, active), opm())
            }
        };
        Ftl {
            kind,
            array,
            mapping,
            free,
            wam,
            params,
            stats: FtlStats::default(),
            migrate_batch: Vec::new(),
            migration: vec![None; config.chips],
            maint: None,
            seq_counter: 0,
            last_gc_erase: vec![None; config.chips],
            ckpt: None,
            trace: Collector::disabled(),
            tel_now_us: 0.0,
            config,
        }
    }

    /// The variant this instance runs as.
    pub fn kind(&self) -> FtlKind {
        self.kind
    }

    /// The configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// The NAND geometry this FTL was configured with.
    pub fn geometry(&self) -> Geometry {
        self.config.nand.geometry
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
        if let Params::Opm(opm) = &mut self.params {
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

    /// Reference to the OPM (PS-aware kinds only); exposed for
    /// experiments.
    pub fn opm(&self) -> Option<&Opm> {
        match &self.params {
            Params::Opm(opm) => Some(opm),
            Params::Default | Params::VertGuard => None,
        }
    }

    /// The page mapping (read-only; exposed for recovery verification).
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Whether `lpn` currently has a physical location.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        self.mapping.lookup(lpn).is_some()
    }

    /// The current operation sequence number (advanced by every program
    /// and tagged erase).
    pub fn seq_counter(&self) -> u64 {
        self.seq_counter
    }
}

impl FtlDriver for Ftl {
    fn write_wl(&mut self, chip: usize, lpns: [u64; 3], ctx: &HostContext) -> WlWrite {
        self.tel_now_us = ctx.now_us;
        let mu = ctx.buffer_utilization;
        // A flush did GC only if it erased a victim.
        let gc = if self.pool_at_floor(chip) {
            self.run_gc(chip, mu)
        } else {
            None
        };
        let (mut nand_us, gc_wls) = gc.unwrap_or((0.0, 0));
        let (t, leader) = self.program_and_map(chip, lpns, mu, Origin::Host);
        nand_us += t;
        if let Some(t) = self.checkpoint_tick() {
            nand_us += t;
        }
        WlWrite {
            nand_us,
            did_gc: gc.is_some(),
            gc_wls,
            leader,
        }
    }

    fn accepts_flush(&self, chip: usize) -> bool {
        self.has_room(chip)
    }

    fn read_page(&mut self, lpn: u64, ctx: &HostContext) -> Option<PageRead> {
        self.tel_now_us = ctx.now_us;
        self.read_mapped(lpn, Origin::Host)
    }

    fn trim(&mut self, lpn: u64) {
        if self.mapping.unmap(lpn).is_some() {
            self.stats.host_trims += 1;
        }
    }

    /// The one background hook: a unit of `chip`'s in-flight migration,
    /// or of a GC victim while its free pool is down to the threshold,
    /// otherwise one maintenance service unit once
    /// [`Ftl::enable_maintenance`] ran.
    fn maintenance_step(&mut self, chip: usize, ctx: &HostContext) -> Option<MaintWork> {
        if !self.pool_low(chip) && self.maint.is_none() && self.in_flight(chip).is_none() {
            // Nothing can be due: the trace clock stays where the last
            // host call set it.
            return None;
        }
        self.tel_now_us = ctx.now_us;
        let mu = ctx.buffer_utilization;
        let (nand_us, gc, wls) = match self.gc_unit(chip, mu) {
            Some((nand_us, cause, wls)) => (nand_us, cause == Cause::Gc, wls),
            None => (self.maintenance_unit(chip, mu)?, false, 0),
        };
        self.debug_audit_chip(chip);
        Some(MaintWork { nand_us, gc, wls })
    }

    fn stats(&self) -> FtlStats {
        let mut stats = self.stats;
        if let Some(opm) = self.opm() {
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
        self.free.iter().map(|p| p.len() as u64).sum()
    }

    fn name(&self) -> &str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, write_all};

    #[test]
    fn stats_reset_clears_counters() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Page, cfg);
        write_all(&mut ftl, 0..30, cfg.chips, 0.5);
        assert!(ftl.stats().host_wl_programs > 0);
        ftl.reset_stats();
        assert_eq!(ftl.stats().host_wl_programs, 0);
    }

    #[test]
    fn names_match_paper() {
        let cfg = FtlConfig::small();
        let names = ["pageFTL", "vertFTL", "cubeFTL-", "cubeFTL"];
        for (kind, name) in FtlKind::ALL.into_iter().zip(names) {
            assert_eq!(Ftl::new(kind, cfg).name(), name);
        }
    }

    #[test]
    fn trim_unmaps() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Page, cfg);
        write_all(&mut ftl, 0..3, cfg.chips, 0.5);
        assert!(ftl.read_page(0, &ctx(0.0)).is_some());
        ftl.trim(0);
        assert!(ftl.read_page(0, &ctx(0.0)).is_none());
    }
}
