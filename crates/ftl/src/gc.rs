//! Greedy garbage collection and the one mover of a block's pages.
//!
//! All four FTL variants share the same GC policy (the paper's
//! contribution is orthogonal to GC): when a chip runs low on free
//! blocks, the block with the fewest valid pages among the closed blocks
//! is migrated and erased. Retention scrubbing and wear leveling move
//! pages the same way (refresh is migration), so a chip has one mover:
//! at most one in-flight [`Migration`], whose [`Cause`] — GC, scrub or
//! wear — only decides the counters it feeds. Every unit continues it
//! from where the last one stopped: bounded background units
//! ([`GC_UNIT_PAGES`] pages each) on idle chips through the one
//! background hook (`Ftl::gc_unit`), and — a last-resort floor one
//! block under `gc_free_block_threshold` — the rest of it under a host
//! write (`Ftl::run_gc`, also the PLP replay's top-up). A chooser names
//! a new block only while the slot is empty: greedy GC here while the
//! pool is low, else the scrubber and the wear leveler
//! (`crate::maint`). Underneath there is one migration routine,
//! `Ftl::migrate`, and one way a drained block returns to the free pool,
//! `Ftl::release_block`.

use crate::base::{Chips, Ftl, Origin, Params};
use crate::mapping::{Mapping, Ppn};
use crate::write::MAX_SAFETY_ATTEMPTS;
use nand3d::{BlockId, Environment, WlData};
use telemetry::EventKind;

/// Selects the victim on `chip`: the candidate block with the fewest
/// valid pages, lowest id on ties. Returns `None` when `candidates` is
/// empty or every candidate is fully valid (nothing reclaimable).
///
/// With `wear` — the chip's erase counters and a spread limit, while
/// wear leveling is on — reclaimable candidates whose erase count
/// exceeds the coldest one's by more than the limit are excluded
/// (erasing them again would widen the hot/cold spread), and ties on
/// the valid count break toward the less-worn block before the id.
pub fn select_victim(
    mapping: &Mapping,
    chip: usize,
    candidates: impl Iterator<Item = BlockId> + Clone,
    pages_per_block: u32,
    wear: Option<(&Environment, u32)>,
) -> Option<BlockId> {
    let wear_of = |b: BlockId| wear.map_or(0, |(env, _)| env.erase_count(b.0 as usize));
    let reclaimable = candidates.filter(|b| mapping.valid_in_block(chip, b.0) < pages_per_block);
    let hottest_allowed = match wear {
        Some((_, spread_limit)) => reclaimable
            .clone()
            .map(wear_of)
            .min()?
            .saturating_add(spread_limit),
        None => u32::MAX,
    };
    reclaimable
        .filter(|b| wear_of(*b) <= hottest_allowed)
        .min_by_key(|b| (mapping.valid_in_block(chip, b.0), wear_of(*b), b.0))
}

/// Most valid pages one background GC unit migrates: an idle chip
/// collects its victim this many pages at a time. The unit bounds the
/// work of one hook call and how long a flush queued behind it waits. A
/// host read does not wait for it: the simulator lets the read run at
/// the unit's next WL boundary (`ssdsim::MaintWork::wls`), as it does
/// at a floor flush's (`ssdsim::WlWrite::gc_wls`), so where the floor
/// does every collection (the `write_gc` ledger line runs no unit) a
/// read waits for neither. A
/// multiple of the three pages a WL holds, or every unit would end on a
/// padded WL (32 pages raised `qos_open`'s WA by 9 %). One-WL units
/// that run whole read about as fast on `qos_open` (seed 42: mean read
/// 130.5 µs, against 128.7 µs for yielding 48-page units) but run 15×
/// the units (156,516 against 10,331) at about ×1.28 the host CPU.
pub const GC_UNIT_PAGES: usize = 48;
const _: () = assert!(GC_UNIT_PAGES.is_multiple_of(3), "a unit ends on a full WL");

/// Why a chip's in-flight [`Migration`] moves its block. The cause
/// picks the counters and trace events its pages feed and the origin of
/// its reads and programs; the moving is the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Garbage collection: the greedy victim, chosen while the free
    /// pool is low.
    Gc,
    /// A retention scrub's refresh of an aged block.
    Scrub,
    /// Wear leveling: the coldest closed block, recycled.
    Wear,
}

/// The one block a chip's background units are draining. Every unit —
/// a [`GC_UNIT_PAGES`] maintenance step, the foreground floor and the
/// PLP replay's top-up — continues it from `next_page`; a chooser picks
/// a new block only once it is released, or once its erase stamp moved
/// (the block was erased since, so its pages are not the ones chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Migration {
    pub(crate) block: BlockId,
    /// The block's erase sequence number when the migration started.
    erase_stamp: u64,
    /// Offset in the block of the first page the P2L walk has not
    /// passed: every valid page left sits at or after it.
    next_page: u32,
    pub(crate) cause: Cause,
}

impl Ftl {
    /// The foreground floor under a host write once the background
    /// units fell behind, and the PLP replay's top-up after a power
    /// cycle: drains the block [`Ftl::floor_victim`] names whole.
    /// Returns the NAND latency spent and the WLs the migration
    /// programmed, or `None` when nothing is in flight and no block holds
    /// a WL of garbage, so nothing was erased.
    pub(crate) fn run_gc(&mut self, chip: usize, mu: f64) -> Option<(f64, u32)> {
        // No block holding a WL of garbage (e.g. right after a unique
        // prefill): collecting would only shuffle valid pages between
        // blocks without freeing anything. Keep writing into the
        // remaining free pool; overwrites will create reclaimable garbage
        // before it runs out (`has_room` keeps the flushes away from a
        // chip where they have not).
        let victim = self.floor_victim(chip)?;
        if self.in_flight(chip).is_none() {
            self.start_migration(chip, victim, Cause::Gc);
        }
        self.last_gc_erase[chip] = Some(victim);
        self.migrate(chip, usize::MAX, mu)
            .map(|(t, _, wls)| (t, wls))
    }

    /// One background unit on an idle `chip`: continues the in-flight
    /// migration, or — while the free pool is down to the threshold —
    /// starts one of the greedy victim, for up to [`GC_UNIT_PAGES`]
    /// pages. Returns what [`Ftl::migrate`] returns, or `None` when
    /// nothing is in flight and the pool is not low or no victim is
    /// profitable.
    pub(crate) fn gc_unit(&mut self, chip: usize, mu: f64) -> Option<(f64, Cause, u32)> {
        if self.in_flight(chip).is_none() {
            let low = self.pool_low(chip);
            let victim = low.then(|| self.profitable_victim(chip)).flatten()?;
            self.start_migration(chip, victim, Cause::Gc);
        }
        self.migrate(chip, GC_UNIT_PAGES, mu)
    }

    /// `chip`'s in-flight migration, unless its block was erased since
    /// it started.
    pub(crate) fn in_flight(&self, chip: usize) -> Option<Migration> {
        let chip_ref = self.array.nand(chip);
        self.migration[chip].filter(|m| chip_ref.block_erase_seq(m.block) == m.erase_stamp)
    }

    /// Makes `block` `chip`'s in-flight migration, for `cause`.
    pub(crate) fn start_migration(&mut self, chip: usize, block: BlockId, cause: Cause) {
        let erase_stamp = self.array.nand(chip).block_erase_seq(block);
        self.migration[chip] = Some(Migration {
            block,
            erase_stamp,
            next_page: 0,
            cause,
        });
    }

    /// Continues `chip`'s in-flight migration: moves up to `limit` of
    /// its block's valid pages, from `next_page` on, to fresh WLs,
    /// releases the block once none remain, and books the step to the
    /// migration's cause — counters (a released GC victim counts as one
    /// GC run, a released scrub block as one refresh) and one trace
    /// event. A staged batch: (1) the block's P2L walk collects the
    /// first `limit` `(lpn, page)` pairs and stops; (2) one tight pass
    /// checks that the L2P maps every LPN back to that page — loads that
    /// depend on nothing but the list, so their cache misses overlap here
    /// instead of queueing one behind each read, and the entries are
    /// resident when stage 4 remaps them; (3) the pages are read by
    /// physical address through the variant's read policy (the ORT
    /// benefits GC reads too), in the block's physical order — the order
    /// of the P2L walk, which fixes the chip's RNG draws and the trace;
    /// (4) they are re-programmed three to a WL. The NAND time is summed
    /// term by term from zero. Returns it, the cause and the WLs
    /// programmed (the steps a GC unit's time splits into), or `None`
    /// when nothing is in flight.
    ///
    /// # Panics
    ///
    /// Panics, before any page is read, if the L2P and the P2L disagree
    /// about a page of the block.
    pub(crate) fn migrate(
        &mut self,
        chip: usize,
        limit: usize,
        mu: f64,
    ) -> Option<(f64, Cause, u32)> {
        let m = self.in_flight(chip)?;
        let (block, next_page, cause) = (m.block, m.next_page, m.cause);
        let origin = match cause {
            Cause::Gc => Origin::Gc,
            Cause::Scrub | Cause::Wear => Origin::Maint,
        };
        // The list must be taken before the mapping changes under it;
        // its buffer is reused from one migration to the next.
        let mut batch = std::mem::take(&mut self.migrate_batch);
        batch.clear();
        let drained = self.mapping.valid_in_block(chip, block.0) as usize <= limit;
        let walk = self.mapping.valid_pages_of_block(chip, block.0, next_page);
        batch.extend(walk.take(limit));
        for &(lpn, page) in &batch {
            let here = Ppn {
                chip: chip as u32,
                page,
            };
            assert_eq!(
                self.mapping.lookup(lpn),
                Some(here),
                "valid page of lpn {lpn} must be mapped where the P2L holds it"
            );
        }
        let g = self.geometry();
        let first = block.0 * g.pages_per_block();
        let mut latency = 0.0;
        for &(lpn, page) in &batch {
            let addr = g.page_in_block(block, page - first);
            latency += self.read_at(lpn, chip, addr, origin).nand_us;
        }
        for group in batch.chunks(3) {
            let mut wl = [WlData::PAD; 3];
            for (slot, &(lpn, _)) in wl.iter_mut().zip(group) {
                *slot = lpn;
            }
            latency += self.program_and_map(chip, wl, mu, origin).0;
        }
        let moved = batch.len() as u64;
        let wls = (moved as u32).div_ceil(3);
        let next_page = batch.last().map_or(next_page, |&(_, p)| p - first + 1);
        self.migrate_batch = batch;
        self.migration[chip] = (!drained).then_some(Migration { next_page, ..m });
        if drained {
            latency += self.release_block(chip, block);
        }
        match cause {
            Cause::Gc => {
                self.stats.gc_page_moves += moved;
                self.stats.gc_runs += u64::from(drained);
                let event = EventKind::GcVictim {
                    chip: chip as u32,
                    block: block.0,
                    moved_wls: wls,
                    wear_aware: self.wear_leveling_on(),
                };
                self.trace.emit(self.tel_now_us, event);
            }
            Cause::Scrub => {
                self.stats.scrub_page_moves += moved;
                self.stats.scrub_blocks += u64::from(drained);
                self.trace_maint(chip, "scrub", moved);
            }
            Cause::Wear => {
                self.stats.wear_level_moves += moved;
                self.trace_maint(chip, "wear_level", moved);
            }
        }
        Some((latency, cause, wls))
    }

    /// Whether `block` is currently open for writing on `chip`.
    pub(crate) fn is_active(&self, chip: usize, block: BlockId) -> bool {
        self.wam.active_blocks(chip).any(|b| b == block)
    }

    /// Whether `block` is a closed data block of `chip` — neither free,
    /// nor open for writing, nor backing the checkpoint region (which
    /// holds no mapped pages, so victim selection would see it as
    /// maximally profitable and erase the live checkpoint) — and so
    /// eligible for GC, wear leveling and scrubbing.
    pub(crate) fn is_closed(&self, chip: usize, block: BlockId) -> bool {
        !self.free[chip].contains(block)
            && !self.is_active(chip, block)
            && !self.ckpt_region_contains(chip, block)
    }

    /// The block to reclaim next on `chip`: the closed block with the
    /// fewest valid pages, wear-aware while wear leveling is on. `None`
    /// when no closed block holds any garbage.
    pub(crate) fn gc_victim(&self, chip: usize) -> Option<BlockId> {
        let g = self.geometry();
        let candidates = (0..g.blocks_per_chip)
            .map(BlockId)
            .filter(|b| self.is_closed(chip, *b));
        let wear = self.maint.as_ref().map(|m| {
            let env = self.array.nand(chip).env();
            (env, m.config.wear_spread_limit)
        });
        select_victim(&self.mapping, chip, candidates, g.pages_per_block(), wear)
    }

    /// [`Ftl::gc_victim`], if collecting it gains anything: migrating
    /// the victim consumes free WLs for its valid pages, so it must hold
    /// at least one WL of garbage or GC makes no forward progress.
    fn profitable_victim(&self, chip: usize) -> Option<BlockId> {
        let g = self.geometry();
        self.gc_victim(chip).filter(|v| {
            let reclaimable = g.pages_per_block() - self.mapping.valid_in_block(chip, v.0);
            reclaimable >= u32::from(g.pages_per_wl)
        })
    }

    /// The block the foreground floor drains next on `chip`: the
    /// in-flight migration's, else the profitable victim.
    fn floor_victim(&self, chip: usize) -> Option<BlockId> {
        self.in_flight(chip)
            .map(|m| m.block)
            .or_else(|| self.profitable_victim(chip))
    }

    /// Whether `chip` can take a host WL and still collect garbage
    /// afterwards. Flushes are placed by queue length, not by fill, so a
    /// chip can be handed more valid data than its blocks hold next to
    /// the open ones; once its erased WLs — open blocks plus free pool —
    /// are down to what one host program can take
    /// (`MAX_SAFETY_ATTEMPTS`) plus a block's worth for the victim GC
    /// moves next, it sits out unless the block the floor drains next
    /// ([`Ftl::floor_victim`]) fits. Trims and overwrites landing
    /// elsewhere turn its pages into garbage, and it takes flushes again.
    pub(crate) fn has_room(&self, chip: usize) -> bool {
        let g = self.geometry();
        let free = self.free[chip].len() as u32;
        // Asked per chip on every flush: two free blocks are room
        // enough whatever the open blocks hold.
        if free >= 2 {
            return true;
        }
        let room = self.wam.unwritten_wls(chip) + free * g.wls_per_block();
        room >= g.wls_per_block() + MAX_SAFETY_ATTEMPTS
            || self.floor_victim(chip).is_some_and(|v| {
                let valid = self.mapping.valid_in_block(chip, v.0);
                valid.div_ceil(u32::from(g.pages_per_wl)) + MAX_SAFETY_ATTEMPTS <= room
            })
    }

    /// Erases `block` on `chip`, stamped with the next operation
    /// sequence number (so recovery can tell the block changed hands).
    /// Returns the erase latency.
    pub(crate) fn erase_tagged(&mut self, chip: usize, block: BlockId) -> f64 {
        self.seq_counter += 1;
        self.array
            .nand_mut(chip)
            .erase_tagged(block, self.seq_counter)
            .expect("block in range")
    }

    /// The one way a block holding no valid page returns to the free
    /// pool: erase it (young again under per-block retention tracking),
    /// drop its h-layers' monitored parameters and queue it for
    /// allocation. Returns the erase latency.
    pub(crate) fn release_block(&mut self, chip: usize, block: BlockId) -> f64 {
        self.mapping.assert_block_clean(chip, block.0);
        let latency = self.erase_tagged(chip, block);
        if let Params::Opm(opm) = &mut self.params {
            opm.invalidate_block(chip, block.0);
        }
        self.free[chip].put(block);
        self.stats.erases += 1;
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, overwrite_wl, write_all};
    use crate::{FtlConfig, FtlKind};
    use nand3d::Geometry;
    use ssdsim::FtlDriver;

    /// Erase counters with block `b` erased `erases[b]` times.
    fn worn(erases: &[u32]) -> Environment {
        let mut env = Environment::new(erases.len(), 0);
        for (b, &n) in erases.iter().enumerate() {
            for _ in 0..n {
                env.record_erase(b);
            }
        }
        env
    }

    #[test]
    fn picks_min_valid_block() {
        let g = Geometry::small();
        let mut m = Mapping::new(g, 1, 1000);
        let ppb = g.pages_per_block();
        // Block 0: 2 valid pages; block 1: 1 valid page; block 2: empty.
        m.map(1, Ppn { chip: 0, page: 0 });
        m.map(2, Ppn { chip: 0, page: 1 });
        m.map(3, Ppn { chip: 0, page: ppb });
        let candidates = [BlockId(0), BlockId(1)];
        let victim = select_victim(&m, 0, candidates.into_iter(), ppb, None);
        assert_eq!(victim, Some(BlockId(1)));
    }

    #[test]
    fn fully_valid_blocks_are_not_victims() {
        let g = Geometry::small();
        let mut m = Mapping::new(g, 1, 1000);
        let ppb = g.pages_per_block();
        for p in 0..ppb {
            m.map(u64::from(p), Ppn { chip: 0, page: p });
        }
        assert_eq!(
            select_victim(&m, 0, [BlockId(0)].into_iter(), ppb, None),
            None,
            "no garbage to reclaim"
        );
    }

    #[test]
    fn empty_candidates_yield_none() {
        let g = Geometry::small();
        let m = Mapping::new(g, 1, 10);
        assert_eq!(select_victim(&m, 0, std::iter::empty(), 96, None), None);
    }

    #[test]
    fn ties_break_deterministically() {
        let g = Geometry::small();
        let m = Mapping::new(g, 1, 10);
        let victim = select_victim(&m, 0, [BlockId(3), BlockId(1)].into_iter(), 96, None);
        assert_eq!(victim, Some(BlockId(1)), "lowest id wins ties");
    }

    #[test]
    fn wear_aware_excludes_hot_blocks_greedy_would_pick() {
        let g = Geometry::small();
        let mut m = Mapping::new(g, 1, 1000);
        let ppb = g.pages_per_block();
        // Block 0: 1 valid page but heavily worn; block 1: 3 valid pages,
        // cold. Greedy picks block 0; wear-aware refuses to widen the
        // spread and takes the cold block instead.
        m.map(1, Ppn { chip: 0, page: 0 });
        for p in 0..3 {
            m.map(
                10 + u64::from(p),
                Ppn {
                    chip: 0,
                    page: ppb + p,
                },
            );
        }
        let wear = worn(&[40, 2]);
        let candidates = [BlockId(0), BlockId(1)];
        assert_eq!(
            select_victim(&m, 0, candidates.into_iter(), ppb, None),
            Some(BlockId(0)),
            "greedy ignores wear"
        );
        assert_eq!(
            select_victim(&m, 0, candidates.into_iter(), ppb, Some((&wear, 8))),
            Some(BlockId(1)),
            "wear-aware excludes the hot block"
        );
    }

    #[test]
    fn wear_aware_matches_greedy_when_spread_is_bounded() {
        let g = Geometry::small();
        let mut m = Mapping::new(g, 1, 1000);
        let ppb = g.pages_per_block();
        // Block 0: 1 valid page, slightly worn; block 1: 2 valid pages,
        // cold. The spread (3) is inside the limit, so the emptiest block
        // wins exactly as under greedy selection.
        m.map(1, Ppn { chip: 0, page: 0 });
        m.map(2, Ppn { chip: 0, page: ppb });
        m.map(
            3,
            Ppn {
                chip: 0,
                page: ppb + 1,
            },
        );
        let wear = worn(&[5, 2]);
        let candidates = [BlockId(0), BlockId(1)];
        assert_eq!(
            select_victim(&m, 0, candidates.into_iter(), ppb, Some((&wear, 8))),
            Some(BlockId(0)),
            "within the spread limit the emptiest block still wins"
        );
    }

    #[test]
    fn wear_aware_breaks_valid_count_ties_toward_cold_blocks() {
        let g = Geometry::small();
        let m = Mapping::new(g, 1, 10);
        // All candidates empty; block 4 is the least worn.
        let wear = worn(&[3, 3, 7, 3, 1, 3, 3]);
        let victim = select_victim(
            &m,
            0,
            [BlockId(2), BlockId(4), BlockId(6)].into_iter(),
            96,
            Some((&wear, 100)),
        );
        assert_eq!(victim, Some(BlockId(4)), "cold block wins the tie");
    }

    #[test]
    fn wear_aware_all_clean_yields_none() {
        let g = Geometry::small();
        let mut m = Mapping::new(g, 1, 1000);
        let ppb = g.pages_per_block();
        // Every candidate fully valid: nothing reclaimable at any wear.
        for p in 0..ppb {
            m.map(u64::from(p), Ppn { chip: 0, page: p });
        }
        assert_eq!(
            select_victim(&m, 0, [BlockId(0)].into_iter(), ppb, Some((&worn(&[0]), 8))),
            None
        );
        assert_eq!(
            select_victim(&m, 0, std::iter::empty(), ppb, Some((&worn(&[0]), 8))),
            None,
            "no candidates at all"
        );
    }

    #[test]
    fn wear_aware_single_candidate_is_selected_even_when_hot() {
        let g = Geometry::small();
        let mut m = Mapping::new(g, 1, 1000);
        let ppb = g.pages_per_block();
        m.map(1, Ppn { chip: 0, page: 0 });
        // With a single (reclaimable) candidate, the spread window is
        // anchored on that candidate itself, so it is always eligible.
        assert_eq!(
            select_victim(
                &m,
                0,
                [BlockId(0)].into_iter(),
                ppb,
                Some((&worn(&[1000]), 0))
            ),
            Some(BlockId(0)),
            "sole free-able block must remain selectable"
        );
    }

    #[test]
    fn gc_reclaims_space_under_sustained_overwrites() {
        let cfg = FtlConfig::small();
        for kind in crate::FtlKind::ALL {
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

    /// One chip of the paper's geometry (576-page blocks) on 24 blocks,
    /// filled to 0.6 of its logical space and overwritten until its
    /// free pool sits at the threshold with garbage to collect.
    fn gc_bound_chip() -> (Ftl, u64) {
        let mut cfg = FtlConfig::paper();
        cfg.chips = 1;
        cfg.nand.geometry.blocks_per_chip = 24;
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        let space = ftl.logical_pages() * 6 / 10;
        write_all(&mut ftl, 0..space, 1, 0.5);
        let mut x = 3;
        for _ in 0..3000 {
            ftl.write_wl(0, overwrite_wl(&mut x, space), &ctx(0.5));
        }
        (ftl, space)
    }

    #[test]
    fn background_units_stay_within_one_unit_and_keep_the_floor_idle() {
        let (mut ftl, space) = gc_bound_chip();
        let t = nand3d::NandTiming::PAPER;
        let (mut x, mut max_program, mut max_read) = (7u64, 0.0f64, 0.0f64);
        let (mut units, mut longest_unit) = (0u64, 0.0f64);
        // An idle spell after the prefill tops the pool up first.
        while ftl.maintenance_step(0, &ctx(0.5)).is_some() {}
        let gc_runs_before = ftl.stats().gc_runs;
        for i in 0..3000u64 {
            let w = ftl.write_wl(0, overwrite_wl(&mut x, space), &ctx(0.5));
            assert!(!w.did_gc, "write {i} collected in the foreground");
            max_program = max_program.max(w.nand_us);
            if let Some(r) = ftl.read_page(x % space, &ctx(0.0)) {
                max_read = max_read.max(r.nand_us);
            }
            // Every write leaves one idle window of background work.
            if let Some(work) = ftl.maintenance_step(0, &ctx(0.5)) {
                assert!(work.gc, "no maintenance is enabled");
                units += 1;
                longest_unit = longest_unit.max(work.nand_us);
            }
        }
        let runs = ftl.stats().gc_runs - gc_runs_before;
        assert!(runs > 10, "only {runs} victims collected");
        assert!(
            units > 2 * runs,
            "{units} units for {runs} victims: none was partial"
        );
        // A unit's pages are read and re-programmed three to a WL, plus
        // one program (a safety re-program) and the victim's erase.
        let pages = GC_UNIT_PAGES as f64;
        let bound = pages * max_read + (pages / 3.0 + 1.0) * max_program + t.t_erase_us;
        assert!(
            longest_unit <= bound,
            "a unit held the chip {longest_unit} µs, over the {bound} µs bound"
        );
    }

    #[test]
    fn the_foreground_floor_collects_one_victim_when_units_fall_behind() {
        let (mut ftl, space) = gc_bound_chip();
        let floor = ftl.config.gc_free_block_threshold - 1;
        let mut x = 11u64;
        let mut collections = 0;
        for _ in 0..3000 {
            let free = ftl.free[0].len();
            let runs = ftl.stats().gc_runs;
            let w = ftl.write_wl(0, overwrite_wl(&mut x, space), &ctx(0.5));
            assert_eq!(w.did_gc, free <= floor, "{free} free blocks");
            let collected = ftl.stats().gc_runs - runs;
            assert!(collected <= 1, "one write collected {collected} victims");
            collections += collected;
            assert!(
                ftl.free[0].len() >= floor - 1,
                "the pool fell under the floor"
            );
        }
        assert!(collections > 10, "the floor fired {collections} times");
    }

    /// A migration in flight when the floor fires is the block the floor
    /// drains, even when greedy GC would pick another: the floor is a
    /// unit of the one mover, and a refresh it abandoned would be paid
    /// for and finish nothing.
    #[test]
    fn the_floor_drains_the_in_flight_block_first() {
        let (mut ftl, space) = gc_bound_chip();
        let g = ftl.geometry();
        let fullest = (0..g.blocks_per_chip)
            .map(BlockId)
            .filter(|b| ftl.is_closed(0, *b))
            .max_by_key(|b| (ftl.mapping.valid_in_block(0, b.0), b.0))
            .expect("closed blocks");
        assert_ne!(ftl.profitable_victim(0), Some(fullest));
        ftl.start_migration(0, fullest, Cause::Scrub);
        ftl.migrate(0, GC_UNIT_PAGES, 0.5);
        assert!(ftl.in_flight(0).is_some(), "one unit drained the block");
        let mut x = 13;
        for _ in 0..1000 {
            if ftl
                .write_wl(0, overwrite_wl(&mut x, space), &ctx(0.5))
                .did_gc
            {
                break;
            }
        }
        assert!(
            ftl.free[0].contains(fullest),
            "the floor collected another block before the one in flight"
        );
        assert_eq!(ftl.in_flight(0), None);
        assert_eq!(ftl.stats().scrub_blocks, 1, "the refresh finished");
    }

    /// A write at the floor on a chip holding only valid data erases
    /// nothing, so it reports no GC: a power cut during its flush would
    /// otherwise redo the erase of a victim an earlier GC freed.
    #[test]
    fn a_floor_write_with_no_garbage_reports_no_gc() {
        // Unique LPNs, all on chip 0: no block there holds garbage, and
        // the other chip's share of the logical space leaves room to
        // fill chip 0 down to the floor.
        let mut ftl = Ftl::new(FtlKind::Cube, FtlConfig::small());
        let mut lpn = 0;
        while !ftl.pool_at_floor(0) {
            ftl.write_wl(0, [lpn, lpn + 1, lpn + 2], &ctx(0.5));
            lpn += 3;
        }
        assert!(lpn + 3 <= ftl.logical_pages());
        let w = ftl.write_wl(0, [lpn, lpn + 1, lpn + 2], &ctx(0.5));
        assert!(!w.did_gc, "a floor write that erased nothing reported a GC");
        assert_eq!(ftl.stats().gc_runs, 0);
    }

    #[test]
    #[should_panic(expected = "must be mapped where the P2L holds it")]
    fn migration_refuses_a_victim_whose_l2p_disagrees() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        let g = ftl.geometry();
        let block = (0..g.blocks_per_chip)
            .map(BlockId)
            .find(|b| ftl.is_closed(0, *b) && ftl.mapping.valid_in_block(0, b.0) > 3)
            .expect("300 pages close a block");
        // The L2P entry of the block's third valid page now names its
        // neighbour; the P2L still holds the page.
        let (lpn, page) = ftl
            .mapping
            .valid_pages_of_block(0, block.0, 0)
            .nth(2)
            .unwrap();
        let elsewhere = Ppn {
            chip: 0,
            page: page + 1,
        };
        ftl.mapping.corrupt_l2p(lpn, elsewhere);
        let reads_before = ftl.stats().nand_reads;
        ftl.start_migration(0, block, Cause::Gc);
        let migration = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ftl.migrate(0, usize::MAX, 0.5)
        }));
        let refusal = migration.expect_err("a corrupt L2P entry must stop the migration");
        assert_eq!(ftl.stats().nand_reads, reads_before, "no page read yet");
        std::panic::resume_unwind(refusal);
    }

    #[test]
    fn an_overfilled_chip_sits_out_until_trims_make_room() {
        let cfg = FtlConfig::small();
        for kind in crate::FtlKind::ALL {
            let mut ftl = Ftl::new(kind, cfg);
            let g = ftl.geometry();
            // Unique data to chip 0 alone: more logical pages than the
            // chip has physical ones, and never a page of garbage.
            let mut lpn = 0;
            while ftl.has_room(0) {
                assert!(lpn < g.pages_per_chip(), "{}: never refused", kind.name());
                ftl.write_wl(0, [lpn, lpn + 1, lpn + 2], &ctx(0.5));
                lpn += 3;
            }
            assert!(ftl.has_room(1), "{}: chip 1 is empty", kind.name());
            let held = ftl.mapping.valid_in_block(0, 0);
            assert_eq!(held, g.pages_per_block(), "{}: no garbage", kind.name());
            // A block's worth of trims later GC has a victim that fits,
            // the chip takes flushes again and collects under them.
            for lpn in ftl
                .mapping
                .valid_pages_of_block(0, 0, 0)
                .map(|(l, _)| l)
                .collect::<Vec<_>>()
            {
                ftl.trim(lpn);
            }
            assert!(ftl.has_room(0), "{}: still refusing", kind.name());
            for _ in 0..g.wls_per_block() / 2 {
                assert!(ftl.has_room(0), "{}: refusing again", kind.name());
                ftl.write_wl(0, [lpn, lpn + 1, lpn + 2], &ctx(0.5));
                lpn += 3;
            }
            assert!(ftl.stats().gc_runs > 0, "{}: GC never ran", kind.name());
        }
    }

    #[test]
    fn checkpoint_region_is_never_a_gc_victim() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
}
