//! Background maintenance services: retention scrubbing, wear leveling
//! and periodic OPM re-monitoring.
//!
//! The paper's monitored parameters are only valid while the leader-WL
//! measurements stay representative — `ΔV` grows from 1.6 fresh to 2.3
//! at 2K P/E + 1-year retention (§3), and §4.1.4 prescribes re-monitoring
//! after anomalies. This module supplies the *time-driven* counterpart to
//! that event-driven safety net: during chip idle windows (offered by the
//! simulator once [`SsdSim::enable_maintenance`](ssdsim::SsdSim::enable_maintenance) armed
//! it with [`MaintConfig::gap_us`]) the FTL
//!
//! 1. **scrubs** blocks by retention age — samples BER via a leader-WL
//!    read (refreshing the ORT `ΔV_Ref` entry in place) and migrates the
//!    block's pages to fresh WLs before they drift uncorrectable,
//! 2. **wear-levels** — steers GC victim selection and free-block
//!    allocation toward cold blocks and recycles the coldest closed block
//!    when the erase-count spread exceeds a bound, and
//! 3. **re-monitors** h-layers whose OPM parameters are older than a
//!    P/E-count or retention-time budget, so VFY-skip/`MaxLoop` margins
//!    track aging instead of drifting optimistic.
//!
//! All services are deterministic: cursors walk blocks in address order
//! and every decision derives from simulated state, never wall-clock.
//!
//! The configuration comes first; the services themselves — one bounded
//! unit per [`FtlDriver::maintenance_step`](ssdsim::FtlDriver), every
//! read and write of theirs under `Origin::Maint` — follow.

use crate::base::{Chips, Ftl, Params};
use crate::gc::{Cause, GC_UNIT_PAGES};
use crate::recovery::CKPT_PAGE_PROGRAM_US;
use nand3d::{BlockId, PageState};
use telemetry::EventKind;

/// Tuning knobs of the background maintenance services. There is no
/// off switch inside: a device without maintenance simply never has
/// one enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintConfig {
    /// Host-priority gap, µs: after each background operation (a GC
    /// unit included) a chip stays reserved for host work at least this
    /// long. The simulator's dispatch enforces it
    /// (`SsdSim::enable_maintenance`); the FTL services ignore it.
    pub gap_us: f64,
    /// Retention age (months, temperature-unadjusted) at which a block
    /// qualifies for a scrub refresh regardless of its sampled BER.
    pub scrub_retention_min_months: f64,
    /// Sampled leader-WL BER above which a block is refreshed even
    /// before it reaches the retention-age bar.
    pub scrub_ber_threshold: f64,
    /// Re-monitor an h-layer once the block has seen this many P/E
    /// cycles since its parameters were recorded.
    pub remonitor_pe_budget: u32,
    /// Target bound on the hot/cold erase-count spread; the wear-level
    /// service recycles cold blocks while the spread exceeds it.
    pub wear_spread_limit: u32,
}

impl MaintConfig {
    /// All three services on, with defaults sized for the paper's aging
    /// states: a 200 µs host-priority gap, a 6-month scrub bar
    /// (EndOfLife data at 12 months qualifies, MidLife at 1 month does
    /// not), a BER escape hatch one decade under typical ECC limits,
    /// and re-monitoring budgets of 50 P/E cycles or 6 months.
    pub fn default_on() -> Self {
        MaintConfig {
            gap_us: 200.0,
            scrub_retention_min_months: 6.0,
            scrub_ber_threshold: 1e-3,
            remonitor_pe_budget: 50,
            wear_spread_limit: 8,
        }
    }
}

/// Per-chip progress of the maintenance services (owned by
/// [`Ftl`](crate::Ftl) when maintenance is enabled).
#[derive(Debug, Clone)]
pub(crate) struct MaintState {
    pub(crate) config: MaintConfig,
    /// Next block each chip's scrubber examines.
    pub(crate) scrub_cursor: Vec<u32>,
    /// Next block each chip's OPM re-monitor examines.
    pub(crate) remonitor_cursor: Vec<u32>,
    /// Round-robin position over the three services per chip, so one
    /// hungry service cannot starve the others of idle windows.
    pub(crate) next_service: Vec<u8>,
}

impl MaintState {
    pub(crate) fn new(config: MaintConfig, chips: usize) -> Self {
        MaintState {
            config,
            scrub_cursor: vec![0; chips],
            remonitor_cursor: vec![0; chips],
            next_service: vec![0; chips],
        }
    }
}

/// Most stale h-layers one re-monitor dispatch handles (each costs a
/// leader sample read, so this bounds the dispatch's chip time).
const REMONITOR_LAYER_BATCH: usize = 8;

/// Re-monitor an h-layer once its block's data is older than this many
/// months (beside [`MaintConfig::remonitor_pe_budget`]).
const REMONITOR_RETENTION_BUDGET_MONTHS: f64 = 6.0;

impl Ftl {
    /// Enables the background maintenance subsystem: retention
    /// scrubbing, wear leveling and periodic OPM re-monitoring,
    /// performed one bounded unit at a time via
    /// [`FtlDriver::maintenance_step`](ssdsim::FtlDriver) during chip
    /// idle windows. Enabling also turns on per-block retention tracking
    /// so scrubbed blocks actually rejuvenate (an erase resets the
    /// block's retention clock).
    pub fn enable_maintenance(&mut self, config: MaintConfig) {
        self.maint = Some(MaintState::new(config, self.config.chips));
        self.array.track_block_retention();
    }

    /// Whether the wear-leveling service steers victim selection and
    /// free-block allocation: whenever maintenance is on.
    pub(crate) fn wear_leveling_on(&self) -> bool {
        self.maint.is_some()
    }

    fn maint_state(&mut self) -> &mut MaintState {
        self.maint.as_mut().expect("maintenance enabled")
    }

    /// Records one unit of `service` in the event trace.
    pub(crate) fn trace_maint(&mut self, chip: usize, service: &'static str, page_moves: u64) {
        self.trace.emit(
            self.tel_now_us,
            EventKind::Maint {
                chip: chip as u32,
                service,
                page_moves,
            },
        );
    }

    /// Performs one bounded unit of background maintenance on `chip`,
    /// rotating among the three services so a hungry one cannot starve
    /// the others of idle windows. Returns the NAND time spent, or
    /// `None` when nothing is due.
    pub(crate) fn maintenance_unit(&mut self, chip: usize, mu: f64) -> Option<f64> {
        const SERVICES: u8 = 3;
        let start = self.maint.as_ref()?.next_service[chip];
        for i in 0..SERVICES {
            let svc = (start + i) % SERVICES;
            let work = match svc {
                0 => self.scrub_step(chip, mu),
                1 => self.remonitor_step(chip),
                _ => self.wear_step(chip, mu),
            };
            if let Some(t) = work {
                self.maint_state().next_service[chip] = (svc + 1) % SERVICES;
                return Some(t);
            }
        }
        None
    }

    /// Retention scrubbing: walks blocks from the per-chip cursor to the
    /// first one holding aged data, samples its BER via a leader-WL read
    /// (which refreshes the h-layer's ORT `ΔV_Ref` entry in place) and,
    /// when its retention age or sampled BER crosses the configured
    /// thresholds, makes the block the chip's in-flight migration — a
    /// refresh — and runs its first unit. A refresh consumes free WLs,
    /// so the scrubber starts none while the free pool is down to the GC
    /// threshold: GC units come first there. (It only runs with no
    /// migration in flight: the hook continues that one first.)
    fn scrub_step(&mut self, chip: usize, mu: f64) -> Option<f64> {
        let cfg = self.maint.as_ref()?.config;
        if self.pool_low(chip) {
            return None;
        }
        let g = self.geometry();
        let blocks = g.blocks_per_chip;
        let cursor = self.maint_state().scrub_cursor[chip];
        for i in 0..blocks {
            let b = BlockId((cursor + i) % blocks);
            if self.free[chip].contains(b) || self.is_active(chip, b) {
                continue;
            }
            let chip_ref = self.array.nand(chip);
            let retention = chip_ref.block_retention_months(b);
            if self.ckpt_region_contains(chip, b) {
                // Metadata scrub: the region block holds checkpoint
                // pages, not mapped pages, so refreshing it is an
                // in-place erase plus a rewrite of the live metadata
                // pages — the block stays in the region.
                if retention < cfg.scrub_retention_min_months {
                    continue;
                }
                let live = self.ckpt_live_pages();
                let mut latency = self.erase_tagged(chip, b);
                latency += live as f64 * CKPT_PAGE_PROGRAM_US;
                self.stats.scrub_blocks += 1;
                self.stats.scrub_page_moves += live;
                self.maint_state().scrub_cursor[chip] = (b.0 + 1) % blocks;
                self.trace_maint(chip, "scrub", live);
                return Some(latency);
            }
            if retention <= 0.0 {
                continue;
            }
            let sample_wl = (0..g.hlayers_per_block)
                .map(|h| g.wl_addr(b, h, 0))
                .find(|wl| chip_ref.wl_state(*wl) == PageState::Written);
            let sampled_ber = sample_wl
                .and_then(|wl| chip_ref.wl_current_ber(wl))
                .unwrap_or(0.0);
            let mut latency = 0.0;
            if let Some(wl) = sample_wl {
                latency += self.sample_read(chip, wl);
                self.stats.scrub_sample_reads += 1;
            }
            self.maint_state().scrub_cursor[chip] = (b.0 + 1) % blocks;
            if retention >= cfg.scrub_retention_min_months || sampled_ber > cfg.scrub_ber_threshold
            {
                self.start_migration(chip, b, Cause::Scrub);
                let (t, ..) = self.migrate(chip, GC_UNIT_PAGES, mu)?;
                return Some(latency + t);
            }
            if latency > 0.0 {
                self.trace_maint(chip, "scrub", 0);
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
    /// sample read. At most [`REMONITOR_LAYER_BATCH`] layers are handled
    /// per dispatch so the chip op stays short; a block with more stale
    /// layers is resumed on the next window (re-monitored layers lose
    /// their `recorded_pe` stamp, so they are skipped naturally).
    fn remonitor_step(&mut self, chip: usize) -> Option<f64> {
        let cfg = self.maint.as_ref()?.config;
        let g = self.geometry();
        let blocks = g.blocks_per_chip;
        let cursor = self.maint_state().remonitor_cursor[chip];
        for i in 0..blocks {
            let b = BlockId((cursor + i) % blocks);
            if self.free[chip].contains(b) {
                continue;
            }
            let (pe_now, retention) = {
                let c = self.array.nand(chip);
                (c.env().pe(b.0 as usize), c.block_retention_months(b))
            };
            let mut latency = 0.0;
            let mut handled = 0usize;
            let mut remaining = false;
            for h in 0..g.hlayers_per_block {
                let wl = g.wl_addr(b, h, 0);
                // A kind without an OPM has nothing to re-monitor.
                let Params::Opm(opm) = &mut self.params else {
                    return None;
                };
                let Some(recorded) = opm.recorded_pe(chip, wl) else {
                    continue;
                };
                let stale = pe_now.saturating_sub(recorded) > cfg.remonitor_pe_budget
                    || retention > REMONITOR_RETENTION_BUDGET_MONTHS;
                if !stale {
                    continue;
                }
                if handled == REMONITOR_LAYER_BATCH {
                    remaining = true;
                    break;
                }
                opm.invalidate_layer(chip, wl);
                let written = self.array.nand(chip).wl_state(wl) == PageState::Written;
                if written {
                    latency += self.sample_read(chip, wl);
                }
                self.stats.remonitored_layers += 1;
                handled += 1;
            }
            if handled > 0 {
                let next = if remaining { b.0 } else { (b.0 + 1) % blocks };
                self.maint_state().remonitor_cursor[chip] = next;
                self.trace_maint(chip, "remonitor", 0);
                return Some(latency);
            }
        }
        None
    }

    /// Wear leveling: when the chip's erase-count spread exceeds the
    /// configured bound, recycle the coldest closed block — it becomes
    /// the chip's in-flight migration, its cold data moves to (hotter)
    /// free blocks and the least-worn block joins the allocation pool,
    /// narrowing the spread from both ends. Like a refresh, a recycling
    /// starts only while the free pool is above the GC threshold; moving
    /// the checkpoint ring frees as much as it takes.
    fn wear_step(&mut self, chip: usize, mu: f64) -> Option<f64> {
        let cfg = self.maint.as_ref()?.config;
        if let Some(t) = self.ckpt_wear_step(chip) {
            return Some(t);
        }
        if self.pool_low(chip) {
            return None;
        }
        let env = self.array.nand(chip).env();
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
        self.start_migration(chip, coldest_block, Cause::Wear);
        self.migrate(chip, GC_UNIT_PAGES, mu).map(|(t, ..)| t)
    }

    /// Wear-levels the checkpoint region itself: ring erases land on
    /// one block every flush interval, so it runs hot. When its erase
    /// count exceeds the coldest free block's by more than the spread
    /// bound, the ring moves — the live metadata pages are rewritten
    /// into the least-worn free block and the hot block is released to
    /// the allocation pool (erased, so its retention clock is young).
    fn ckpt_wear_step(&mut self, chip: usize) -> Option<f64> {
        if chip != 0 {
            return None;
        }
        let cfg = self.maint.as_ref()?.config;
        let old = *self.ckpt.as_ref()?.region.first()?;
        let env = self.array.nand(0).env();
        let wear = |b: BlockId| env.erase_count(b.0 as usize);
        let coldest_free = self.free[0].iter().map(wear).min()?;
        if wear(old).saturating_sub(coldest_free) <= cfg.wear_spread_limit {
            return None;
        }
        let fresh = self.pop_free_block(0).expect("pool checked non-empty");
        let live = self.ckpt_live_pages();
        let mut latency = live as f64 * CKPT_PAGE_PROGRAM_US;
        self.ckpt.as_mut().expect("region checked above").region = vec![fresh];
        latency += self.release_block(0, old);
        self.stats.wear_level_moves += live;
        self.trace_maint(0, "wear_level", live);
        Some(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, overwrite_wl, write_all};
    use crate::{FtlConfig, FtlKind};
    use nand3d::AgingState;
    use ssdsim::FtlDriver;

    #[test]
    fn default_on_orders_thresholds_sanely() {
        let c = MaintConfig::default_on();
        assert_eq!(c.gap_us, 200.0);
        // MidLife (1 month) must not qualify for scrubbing; EndOfLife
        // (12 months) must.
        assert!(c.scrub_retention_min_months > 1.0);
        assert!(c.scrub_retention_min_months < 12.0);
        assert!(c.scrub_ber_threshold.is_finite());
        assert!(c.wear_spread_limit >= 1);
    }

    #[test]
    fn maintenance_step_is_noop_until_enabled() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        ftl.set_aging(AgingState::EndOfLife);
        assert!(ftl.maintenance_step(0, &ctx(0.0)).is_none());
        let stats = ftl.stats();
        assert_eq!(stats.scrub_blocks + stats.scrub_sample_reads, 0);
    }

    #[test]
    fn scrubber_refreshes_aged_blocks_and_counts_work() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
        let mut unscrubbed = Ftl::new(FtlKind::Cube, cfg);
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
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        // Fresh aging: retention 0 — nothing qualifies, not even for
        // sampling.
        ftl.enable_maintenance(MaintConfig::default_on());
        assert!(ftl.maintenance_step(0, &ctx(0.0)).is_none());
        assert_eq!(ftl.stats().scrub_sample_reads, 0);
    }

    /// One paper-geometry chip of 24 blocks (576-page blocks, a dozen
    /// units a refresh), data a year old, and host overwrites that
    /// outpace the idle windows six to one, so the pool hovers at the GC
    /// threshold: GC and a stock scrubber share the windows.
    #[test]
    fn the_stock_scrubber_finishes_refreshes_while_overwrites_hold_the_pool_low() {
        let mut cfg = FtlConfig::paper();
        cfg.chips = 1;
        cfg.nand.geometry.blocks_per_chip = 24;
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        let space = ftl.logical_pages() * 6 / 10;
        write_all(&mut ftl, 0..space, 1, 0.5);
        let mut x = 5;
        for _ in 0..3000 {
            ftl.write_wl(0, overwrite_wl(&mut x, space), &ctx(0.5));
        }
        ftl.set_aging(AgingState::EndOfLife);
        ftl.enable_maintenance(MaintConfig::default_on());
        ftl.reset_stats();
        let mut low = 0;
        for i in 0..3000 {
            ftl.write_wl(0, overwrite_wl(&mut x, space), &ctx(0.5));
            low += u32::from(ftl.pool_low(0));
            if i % 6 == 0 {
                ftl.maintenance_step(0, &ctx(0.5));
            }
        }
        let stats = ftl.stats();
        assert!(low > 500, "the pool was low after only {low} writes");
        assert!(stats.gc_runs > 0, "GC never ran");
        assert!(
            stats.scrub_blocks > 0,
            "no refresh finished ({} scrub page moves)",
            stats.scrub_page_moves
        );
    }

    #[test]
    fn a_slot_whose_block_was_erased_since_is_dropped_not_resumed() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        ftl.set_aging(AgingState::EndOfLife);
        ftl.enable_maintenance(MaintConfig::default_on());
        // One scrub window starts refreshing chip 0's first aged block
        // and moves its first unit.
        assert!(ftl.scrub_step(0, 0.5).is_some());
        let m = ftl.in_flight(0).expect("a refresh is in flight");
        assert_eq!(m.cause, Cause::Scrub);
        assert!(ftl.mapping.valid_in_block(0, m.block.0) > 0);
        // The block is drained and released, a stale slot is left
        // naming it, and the allocator fills and closes it again with
        // fresh (young) overwrites.
        ftl.migrate(0, usize::MAX, 0.5);
        ftl.migration[0] = Some(m);
        let mut lpn = 0;
        for _ in 0..10_000 {
            if ftl.is_closed(0, m.block) {
                break;
            }
            ftl.write_wl(0, [lpn, lpn + 1, lpn + 2], &ctx(0.5));
            lpn = (lpn + 3) % 300;
        }
        let held = ftl.mapping.valid_in_block(0, m.block.0);
        assert!(
            ftl.is_closed(0, m.block) && held > 0,
            "the block was never refilled"
        );
        // The slot is dropped, not resumed on data nobody sampled.
        assert_eq!(ftl.in_flight(0), None);
        assert_eq!(ftl.migrate(0, GC_UNIT_PAGES, 0.5), None);
        assert_eq!(
            ftl.mapping.valid_in_block(0, m.block.0),
            held,
            "a refresh resumed on a block erased since it started"
        );
    }

    #[test]
    fn remonitor_drops_stale_layer_params() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::CubeMinus, cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        assert!(ftl.opm().unwrap().pending_layers() > 0);
        ftl.set_aging(AgingState::EndOfLife); // 12 months > 6-month budget
        let mut maint = MaintConfig::default_on();
        // Isolate the re-monitor service.
        maint.scrub_retention_min_months = f64::INFINITY;
        maint.scrub_ber_threshold = f64::INFINITY;
        maint.wear_spread_limit = u32::MAX;
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
            let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
    fn hot_checkpoint_block_is_wear_leveled_back_into_the_pool() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
}
