//! The write path: free-block pools, WL allocation, parameter selection
//! and the one program-and-map routine every writer goes through — the
//! host, garbage collection, maintenance migrations and the post-crash
//! PLP replay differ only in the `Origin` they pass.

use crate::base::{Chips, Ftl, Origin, Params};
use crate::cube::wam::WlChoice;
use crate::maint::MaintState;
use crate::order::ProgramOrder;
use nand3d::config::IsppModel;
use nand3d::{BlockId, Environment, FlashArray, Geometry, ProgramParams, WlAddr, WlData};
use std::collections::VecDeque;
use telemetry::{EventKind, EventMask};

/// One chip's erased blocks: the allocation queue plus a membership
/// bitmap, kept in step by construction.
#[derive(Debug, Clone)]
pub(crate) struct FreePool {
    pub(crate) queue: VecDeque<BlockId>,
    pub(crate) is_free: Vec<bool>,
}

impl FreePool {
    /// A pool over `blocks` blocks holding `free`, in allocation order.
    pub(crate) fn new(blocks: u32, free: impl Iterator<Item = BlockId>) -> Self {
        let queue: VecDeque<BlockId> = free.collect();
        let mut is_free = vec![false; blocks as usize];
        for b in &queue {
            is_free[b.0 as usize] = true;
        }
        FreePool { queue, is_free }
    }

    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub(crate) fn contains(&self, block: BlockId) -> bool {
        self.is_free[block.0 as usize]
    }

    /// The free blocks, in allocation order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.queue.iter().copied()
    }

    /// Takes the next block to allocate: FIFO order, or — under wear
    /// leveling, `wear` given — the least-worn free block (cold blocks
    /// absorb new writes), ties broken by block id.
    pub(crate) fn take(&mut self, wear: Option<&Environment>) -> Option<BlockId> {
        let b = match wear {
            Some(env) => {
                let i = self
                    .queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, b)| (env.erase_count(b.0 as usize), b.0))?
                    .0;
                self.queue.remove(i)?
            }
            None => self.queue.pop_front()?,
        };
        self.is_free[b.0 as usize] = false;
        Some(b)
    }

    /// Returns an erased block to the back of the queue
    /// ([`Ftl::release_block`] is the only caller).
    pub(crate) fn put(&mut self, block: BlockId) {
        debug_assert!(!self.contains(block), "block released twice");
        self.queue.push_back(block);
        self.is_free[block.0 as usize] = true;
    }
}

/// WLs one `program_and_map` call can take, fault-plan aborts aside: the
/// program and the §4.1.4 safety check's re-programs, which stop after
/// this many attempts.
pub(crate) const MAX_SAFETY_ATTEMPTS: u32 = 4;

/// Every WL of `block`, in (horizontal-first) program order.
pub(crate) fn block_wls(
    g: &Geometry,
    block: BlockId,
) -> impl DoubleEndedIterator<Item = WlAddr> + ExactSizeIterator + '_ {
    ProgramOrder::HorizontalFirst.sequence(g, block)
}

/// The erase counters that steer allocation and victim selection on
/// `chip` while maintenance, and with it wear leveling, is on. A
/// function of the two fields it reads, so callers can go on mutating
/// the free pools.
pub(crate) fn wear_env<'a>(
    maint: &Option<MaintState>,
    array: &'a FlashArray,
    chip: usize,
) -> Option<&'a Environment> {
    maint.is_some().then(|| array.nand(chip).env())
}

impl Ftl {
    /// Whether `chip`'s free pool is down to the GC threshold.
    pub(crate) fn pool_low(&self, chip: usize) -> bool {
        self.free[chip].len() <= self.config.gc_free_block_threshold
    }

    /// Pops a free block on `chip` (the least worn under wear leveling).
    pub(crate) fn pop_free_block(&mut self, chip: usize) -> Option<BlockId> {
        let wear = wear_env(&self.maint, &self.array, chip);
        self.free[chip].take(wear)
    }

    /// Selects the next WL to program on `chip` through the WAM, which
    /// opens a fresh block from the free pool when it needs one.
    pub(crate) fn select_wl(&mut self, chip: usize, mu: f64) -> WlChoice {
        let wear = wear_env(&self.maint, &self.array, chip);
        let free = &mut self.free[chip];
        self.wam.select(chip, mu, || free.take(wear))
    }

    /// The program parameters the variant applies to `choice`.
    fn program_params(&self, chip: usize, choice: &WlChoice) -> ProgramParams {
        match &self.params {
            Params::Default => ProgramParams::default(),
            Params::VertGuard => ProgramParams {
                v_final_down_mv: IsppModel::PAPER.delta_v_ispp_mv,
                ..ProgramParams::default()
            },
            // Leaders are monitored with default parameters (footnote 4).
            Params::Opm(_) if choice.is_leader() => ProgramParams::default(),
            Params::Opm(opm) => opm
                .follower_params(chip, choice.addr())
                .map(|p| p.to_program_params())
                .unwrap_or_default(),
        }
    }

    /// Records an OPM action on `wl`'s h-layer in the event trace.
    fn trace_opm(&mut self, chip: usize, wl: WlAddr, action: &'static str) {
        if self.trace.wants(EventMask::OPM) {
            let hlayers = u32::from(self.geometry().hlayers_per_block);
            self.trace.emit(
                self.tel_now_us,
                EventKind::Opm {
                    chip: chip as u32,
                    layer: wl.block.0 * hlayers + u32::from(wl.h.0),
                    action,
                },
            );
        }
    }

    /// Programs one WL (with §4.1.4 safety handling for PS-aware kinds)
    /// and maps `lpns` onto it. `origin` says on whose behalf: only a
    /// host write counts as a host WL. Returns the NAND latency spent
    /// and whether the first WL tried was a leader.
    pub(crate) fn program_and_map(
        &mut self,
        chip: usize,
        lpns: [u64; 3],
        mu: f64,
        origin: Origin,
    ) -> (f64, bool) {
        let mut latency = 0.0;
        let mut choice = self.select_wl(chip, mu);
        let mut attempts = 0u32;
        let leader = choice.is_leader();
        loop {
            attempts += 1;
            let params = self.program_params(chip, &choice);
            let wl = choice.addr();
            let report = self
                .array
                .nand_mut(chip)
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

            if let Params::Opm(opm) = &mut self.params {
                // Leaders are always monitored. A follower whose h-layer
                // has no monitored parameters (and is not §4.1.4-demoted)
                // also ran with full-verify defaults — after a crash this
                // is the "re-monitor on first touch" path that rebuilds
                // the cold OPM one layer at a time.
                let monitored = choice.is_leader()
                    || (opm.follower_params(chip, wl).is_none() && !opm.is_demoted(chip, wl));
                if monitored {
                    let engine = self.array.nand(chip).ispp();
                    opm.record_leader(chip, wl, &report, engine);
                }
                // §4.1.4: a WL failing the safety check is considered
                // improperly programmed. The h-layer's monitored
                // parameters are demoted (discarded) until a new leader
                // re-monitors it.
                let demoted = (opm.safety_check(chip, wl, &report)
                    && attempts < MAX_SAFETY_ATTEMPTS)
                    .then(|| opm.demote_layer(chip, wl));
                if monitored {
                    self.trace_opm(chip, wl, "monitor");
                }
                if let Some(newly_demoted) = demoted {
                    self.stats.safety_reprograms += 1;
                    self.stats.safety_demotions += u64::from(newly_demoted);
                    self.trace_opm(chip, wl, "demote");
                    // Re-program the same data on the following WL with
                    // fresh monitoring: force default params by treating
                    // the retry as a leader-style program.
                    choice = WlChoice::Leader(self.select_wl(chip, mu).addr());
                    continue;
                }
            }

            // Success: map the live pages and complete the OOB record
            // recovery replays (the program stored the LPNs; this stamps
            // the sequence number). Invariant: the counter, one step per
            // WL program and tagged erase, stays below the spare record's
            // 32-bit limit (DESIGN.md "Memory model").
            self.seq_counter += 1;
            self.array
                .nand_mut(chip)
                .write_oob(wl, self.seq_counter)
                .expect("WL was just programmed; an FTL makes fewer than u32::MAX WL programs");
            self.mapping.map_wl(chip, wl, &lpns);
            if !choice.is_leader() {
                self.stats.follower_wl_programs += 1;
            }
            self.stats.host_wl_programs += u64::from(origin == Origin::Host);
            return (latency, leader);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, write_all};
    use crate::{FtlConfig, FtlKind, MaintConfig};
    use nand3d::{FaultKind, FaultPlan};
    use ssdsim::FtlDriver;

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
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        write_all(&mut ftl, 0..30, cfg.chips, 0.5);
        write_all(&mut ftl, 0..30, cfg.chips, 0.5);
        for lpn in 0..30 {
            assert!(ftl.read_page(lpn, &ctx(0.0)).is_some());
        }
    }

    #[test]
    fn cube_writes_followers_under_bursts() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
    fn safety_reprograms_occur_under_disturbance() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
    fn targeted_ber_spike_triggers_one_safety_reprogram_and_remonitor() {
        let cfg = FtlConfig::small();
        // cubeFTL- allocates horizontal-first, so chip 0's
        // first block programs WL (b0,h0,v0) leader, then (b0,h0,v1)
        // follower. Spike the follower's post-program BER 4× — past the
        // §4.1.4 safety factor of 3×.
        let mut ftl = Ftl::new(FtlKind::CubeMinus, cfg);
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
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::CubeMinus, cfg);
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
    fn fault_injection_is_deterministic() {
        let run = || {
            let cfg = FtlConfig::small();
            let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
    fn wear_leveling_allocates_the_least_worn_free_block_lowest_id_first() {
        // Cube's WAM opens two blocks at once, Page's horizontal-first
        // WAM one at a time: both must pick by wear, then by id.
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
            assert!(allocated.iter().all(|b| !ftl.free[0].contains(*b)));
        }
    }
}
