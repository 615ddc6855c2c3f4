//! Crash consistency: L2P checkpoints, the power-cut physics and
//! boot-time recovery.
//!
//! A real SSD cannot keep its FTL state across a sudden power-off (SPO);
//! everything the controller needs must be rebuilt from flash. This
//! module provides the two durable artifacts the rebuild consumes:
//!
//! * a **checkpoint** — a periodic copy of the L2P map flushed into a
//!   reserved metadata region, with the sequence number it was taken
//!   at, and
//! * the **per-WL OOB records** ([`nand3d::WlOob`]) deposited on every
//!   program, which recovery replays in sequence order for the blocks
//!   programmed after the last checkpoint.
//!
//! What is deliberately *not* persisted: the OPM's monitored loop
//! windows/`BER_EP1` margins and the ORT's ΔV_Ref offsets (§4.1, §4.2).
//! Those are re-derived on first touch per h-layer after boot — programs
//! fall back to conservative full-verify parameters and reads to the
//! full retry search until each h-layer's leader WL is re-monitored —
//! which is exactly the post-boot warm-up curve the `spo` bench plots.
//!
//! No byte of the checkpoint is ever read outside this module, so it is
//! kept as the table itself; only its size is simulated. A flush is
//! charged the pages of its on-flash form: a 28-byte header, an 8-byte
//! `(chip, page)` entry per LPN and a 4-byte erase counter per block.
//! The erase counters count toward that size but are never restored,
//! and nothing can corrupt the copy, so recovery has no full-scan
//! fallback for a bad checkpoint.

use crate::base::{Chips, Ftl, Origin, Params};
use crate::mapping::Mapping;
use crate::write::{block_wls, FreePool};
use nand3d::{BlockId, OobStatus, PageState, WlAddr, WlData};
use ssdsim::FtlStats;
use telemetry::{EventKind, EventMask};

/// Nominal program latency charged per metadata page when a checkpoint
/// is flushed to the reserved region (full-verify TLC page program; the
/// metadata region is not parameter-optimized).
pub const CKPT_PAGE_PROGRAM_US: f64 = 703.0;

/// Nominal latency charged per OOB probe/scan read during recovery
/// (spare-area read at default references, no retry search).
pub const OOB_READ_US: f64 = 61.0;

/// What boot-time recovery did and what it cost, returned by
/// `Ftl::power_cycle`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryReport {
    /// Whether a flushed checkpoint was found.
    pub checkpoint_loaded: bool,
    /// Sequence number of the loaded checkpoint (0 if none).
    pub checkpoint_seq: u64,
    /// Checkpoint L2P entries restored as-is.
    pub ckpt_entries_restored: u64,
    /// Checkpoint L2P entries dropped because their block was erased (or
    /// torn) after the checkpoint was taken.
    pub stale_ckpt_entries_dropped: u64,
    /// Blocks whose metadata page was probed (one OOB read each).
    pub blocks_probed: u64,
    /// Blocks fully OOB-scanned because they were programmed since the
    /// checkpoint.
    pub blocks_scanned: u64,
    /// OOB records replayed into the L2P map, in sequence order.
    pub oob_records_replayed: u64,
    /// Torn (partially programmed) WLs quarantined via the §4.1.4 path.
    pub torn_wls_quarantined: u64,
    /// H-layers demoted to conservative parameters because they held a
    /// torn WL.
    pub layers_demoted: u64,
    /// Blocks whose in-flight erase was interrupted and that were
    /// re-erased during recovery.
    pub interrupted_erases_redone: u64,
    /// Buffered host pages re-written from the power-loss-protection
    /// dump during recovery.
    pub plp_pages_replayed: u64,
    /// `(block, h-layer)` keys excluded from cross-block cluster seeding
    /// at boot (torn WLs and re-opened write points); always 0 with the
    /// cluster disabled.
    pub cluster_keys_quarantined: u64,
    /// Total NAND time the recovery consumed (probe + scan reads,
    /// re-erases, PLP re-programs), µs.
    pub nand_us: f64,
}

/// Page size used to charge checkpoint-flush latency (the paper's
/// platform uses 16-KB pages).
const CKPT_PAGE_BYTES: u64 = 16 * 1024;

/// Periodic L2P-checkpointing state.
#[derive(Debug, Clone)]
pub(crate) struct CkptState {
    /// Host WLs between checkpoint flushes.
    interval_host_wls: u64,
    /// Host WLs programmed since the last flush.
    host_wls_since: u64,
    /// The last flush (the content of the reserved metadata region):
    /// the sequence number it was taken at and a copy of the L2P table.
    flushed: Option<(u64, Vec<u32>)>,
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
    pub(crate) region: Vec<BlockId>,
}

impl Ftl {
    /// Enables periodic L2P checkpointing: every `interval_host_wls` host
    /// WL programs, the full L2P map is flushed into the reserved
    /// metadata region (latency charged to the triggering write). An
    /// interval of 0 disables.
    pub fn enable_checkpointing(&mut self, interval_host_wls: u64) {
        self.ckpt = (interval_host_wls > 0).then_some(CkptState {
            interval_host_wls,
            host_wls_since: 0,
            flushed: None,
            taken: 0,
            pages_written: 0,
            region: Vec::new(),
        });
    }

    /// Number of checkpoints flushed so far (0 if checkpointing is off).
    pub fn checkpoints_taken(&self) -> u64 {
        self.ckpt.as_ref().map_or(0, |c| c.taken)
    }

    /// The real blocks currently backing the checkpoint metadata region
    /// (empty when checkpointing is off or the region runs virtual).
    pub fn ckpt_region(&self) -> Vec<BlockId> {
        self.ckpt
            .as_ref()
            .map(|c| c.region.clone())
            .unwrap_or_default()
    }

    /// Whether `block` currently backs the checkpoint metadata region
    /// on `chip`.
    pub(crate) fn ckpt_region_contains(&self, chip: usize, block: BlockId) -> bool {
        chip == 0
            && self
                .ckpt
                .as_ref()
                .is_some_and(|c| c.region.contains(&block))
    }

    /// Metadata pages the region's current ring block holds.
    pub(crate) fn ckpt_live_pages(&self) -> u64 {
        let per_block = u64::from(self.geometry().pages_per_block());
        self.ckpt
            .as_ref()
            .map_or(0, |c| c.pages_written % per_block)
    }

    /// Flushes a checkpoint of the L2P map to the reserved metadata
    /// region now, returning the NAND time charged (metadata pages ×
    /// full-verify program latency). Requires checkpointing to be
    /// enabled; no-op returning 0.0 otherwise.
    pub fn take_checkpoint(&mut self) -> f64 {
        if self.ckpt.is_none() {
            return 0.0;
        }
        // The on-flash form (see the module docs): header, one 8-byte
        // entry per LPN, one 4-byte erase counter per block.
        let blocks = u64::from(self.geometry().blocks_per_chip) * self.config.chips as u64;
        let bytes = 28 + 8 * self.mapping.logical_pages() + 4 * blocks;
        let pages = bytes.div_ceil(CKPT_PAGE_BYTES);
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
            && self.free[0].len() > self.config.gc_free_block_threshold + 1
        {
            let b = self.pop_free_block(0).expect("pool checked non-empty");
            self.ckpt.as_mut().expect("checked above").region.push(b);
        }
        let st = self.ckpt.as_mut().expect("checked above");
        let filled_before = st.pages_written / per_block;
        st.pages_written += pages;
        let crossings = st.pages_written / per_block - filled_before;
        self.stats.ckpt_erases += crossings;
        st.flushed = Some((self.seq_counter, self.mapping.l2p().to_vec()));
        st.taken += 1;
        st.host_wls_since = 0;
        if let Some(b) = st.region.first().copied() {
            for _ in 0..crossings {
                latency += self.erase_tagged(0, b);
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
    pub(crate) fn checkpoint_tick(&mut self) -> Option<f64> {
        let st = self.ckpt.as_mut()?;
        st.host_wls_since += 1;
        (st.host_wls_since >= st.interval_host_wls).then(|| self.take_checkpoint())
    }

    /// Models the physical consequences of a sudden power-off caught
    /// while `chip` was flushing `lpns`: the WLs holding those pages are
    /// left partially programmed ([`PageState::Partial`], elevated BER,
    /// OOB record read back torn). If the flush had triggered GC
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
                .nand(chip)
                .wl_oob(wl)
                .is_some_and(|oob| oob.lpns == lpns);
            if programmed_here && !wls.contains(&wl) {
                wls.push(wl);
            }
        }
        let chip_ref = self.array.nand_mut(chip);
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

        // 1. Load the last checkpoint.
        let checkpoint = ckpt.as_ref().and_then(|c| c.flushed.as_ref());
        report.checkpoint_loaded = checkpoint.is_some();
        let ckpt_seq = checkpoint.map_or(0, |&(seq, _)| seq);
        report.checkpoint_seq = ckpt_seq;

        // 2. Probe every block's metadata page: recover the sequence
        // horizon, find interrupted erases, blocks erased since the
        // checkpoint, and blocks needing a full OOB scan.
        let mut seq_horizon = ckpt_seq;
        let mut erased_since = vec![vec![false; blocks as usize]; chips];
        let mut to_reerase: Vec<(usize, BlockId)> = Vec::new();
        let mut to_scan: Vec<(usize, BlockId)> = Vec::new();
        for (chip, erased) in erased_since.iter_mut().enumerate() {
            let c = array.nand(chip);
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
                .nand_mut(chip)
                .erase_tagged(block, seq_counter)
                .expect("probed block in range");
            report.interrupted_erases_redone += 1;
        }

        // 3. Full OOB scan of the dirty blocks only.
        let mut torn: Vec<(usize, WlAddr)> = Vec::new();
        let mut replay: Vec<(u64, usize, WlAddr, [u64; 3])> = Vec::new();
        for &(chip, block) in &to_scan {
            report.blocks_scanned += 1;
            let c = array.nand(chip);
            for wl in block_wls(&g, block) {
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
        if let Some((_, l2p)) = checkpoint {
            for (lpn, &entry) in l2p.iter().enumerate() {
                let Some(ppn) = mapping.ppn_of(entry) else {
                    continue;
                };
                let chip = ppn.chip as usize;
                let wl = g.page_unflat(ppn.page as usize).wl;
                if erased_since[chip][wl.block.0 as usize]
                    || array.nand(chip).wl_state(wl) != PageState::Written
                {
                    report.stale_ckpt_entries_dropped += 1;
                    continue;
                }
                mapping.map(lpn as u64, ppn);
                report.ckpt_entries_restored += 1;
            }
        }
        replay.sort_unstable_by_key(|&(seq, ..)| seq);
        for (_, chip, wl, lpns) in &replay {
            report.oob_records_replayed += mapping.map_wl(*chip, *wl, lpns);
        }

        // Rebuild the free pools from physical state: a block is free iff
        // every WL is erased. Torn and partially-written blocks stay
        // closed; GC reclaims them once their garbage makes them
        // profitable victims.
        let free = array
            .iter()
            .map(|c| {
                let erased =
                    |b: &BlockId| block_wls(&g, *b).all(|wl| c.wl_state(wl) == PageState::Free);
                FreePool::new(blocks, (0..blocks).map(BlockId).filter(erased))
            })
            .collect();

        // 5. Fresh volatile state: the OPM/ORT (and its cluster) boot
        // cold — re-derived on first touch per h-layer, re-warmed from
        // post-boot decode traffic, deterministically — and the WAM
        // resets. The pre-crash region block's WLs are all
        // erased, so the pool rebuild above reclaimed it as free; the
        // next flush re-allocates a backing block.
        let mut ftl = Ftl {
            seq_counter,
            ckpt: ckpt.map(|c| CkptState {
                host_wls_since: 0,
                region: Vec::new(),
                ..c
            }),
            trace,
            tel_now_us,
            ..Ftl::cold(kind, config, array, mapping, free)
        };
        // Resume the write points that were open at the power cut: the
        // partially-filled blocks (most recent program sequence first)
        // are re-opened rather than abandoned. Their remaining follower
        // WLs sit under pre-crash leaders whose monitored parameters
        // died with the RAM, so the next program on each such h-layer
        // runs conservative full-verify defaults and re-monitors — the
        // post-boot tPROG warm-up.
        for chip in 0..chips {
            let c = ftl.array.nand(chip);
            let is_erased = |wl: WlAddr| c.wl_state(wl) == PageState::Free;
            let mut partial: Vec<(u64, BlockId)> = (0..blocks)
                .map(BlockId)
                .filter(|&b| !ftl.free[chip].contains(b) && block_wls(&g, b).any(is_erased))
                .map(|b| (c.block_prog_seq(b), b))
                .collect();
            partial.sort_unstable_by_key(|&(seq, b)| (std::cmp::Reverse(seq), b.0));
            for &(_, b) in partial.iter().take(ftl.wam.active_per_chip()) {
                ftl.wam.resume_block(chip, b, is_erased);
            }
        }

        // H-layers holding a torn WL boot demoted — the §4.1.4
        // quarantine — and untrusted for cluster seeding until a fresh
        // decode re-vouches for them. So do the open layers of the
        // re-opened write points: their leader-program history died with
        // the RAM and their upcoming WLs run conservative defaults, so
        // their pre-cut `ΔV_Ref` behaviour is not representative of the
        // cluster average.
        if let Params::Opm(opm) = &mut ftl.params {
            for &(chip, wl) in &torn {
                report.layers_demoted += u64::from(opm.demote_layer(chip, wl));
                report.cluster_keys_quarantined +=
                    u64::from(opm.quarantine_cluster_key(chip, wl.block.0, wl.h.0));
            }
            for chip in 0..chips {
                for (block, h) in ftl.wam.open_layers(chip) {
                    report.cluster_keys_quarantined +=
                        u64::from(opm.quarantine_cluster_key(chip, block.0, h));
                }
            }
        }

        // 6. Replay the PLP buffer dump: host-acknowledged pages that were
        // still buffer-resident (including those on torn WLs) are
        // re-written through the normal allocation path.
        for (i, group) in plp_lpns.chunks(3).enumerate() {
            let chip = i % chips;
            if ftl.pool_low(chip) {
                report.nand_us += ftl.run_gc(chip, 0.0).map_or(0.0, |(t, _)| t);
            }
            let mut lpns = [WlData::PAD; 3];
            lpns[..group.len()].copy_from_slice(group);
            report.nand_us += ftl.program_and_map(chip, lpns, 0.0, Origin::Maint).0;
            report.plp_pages_replayed += group.len() as u64;
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::wam::WlChoice;
    use crate::testutil::{ctx, write_all};
    use crate::{FtlConfig, FtlKind, OrtClusterConfig};
    use nand3d::{FaultKind, FaultPlan};
    use ssdsim::FtlDriver;

    /// The flushed checkpoint's charged size, pinned: `28 + 8·LPNs +
    /// 4·chips·blocks` bytes, rounded up to 16-KB metadata pages.
    #[test]
    fn flushed_checkpoint_size_is_pinned() {
        let paper = |blocks| {
            let mut cfg = FtlConfig::paper();
            cfg.nand.geometry.blocks_per_chip = blocks;
            cfg
        };
        for (cfg, pages, bytes) in [
            (FtlConfig::small(), 1, 9_308),
            (paper(16), 32, 516_636),
            (paper(64), 127, 2_066_460),
        ] {
            let mut ftl = Ftl::new(FtlKind::Page, cfg);
            ftl.enable_telemetry(EventMask::CKPT, 0);
            ftl.enable_checkpointing(u64::MAX);
            ftl.take_checkpoint();
            assert_eq!(ftl.stats().ckpt_page_programs, pages);
            let trace = ftl.take_trace();
            let [event] = trace.as_slice() else {
                panic!("one checkpoint event, got {trace:?}")
            };
            let EventKind::Checkpoint {
                pages: p, bytes: b, ..
            } = event.kind
            else {
                panic!("not a checkpoint event: {event:?}")
            };
            assert_eq!((u64::from(p), b), (pages, bytes));
        }
    }

    #[test]
    fn power_cycle_rebuilds_mapping_from_oob_alone() {
        // No checkpoint ever taken: the whole map must come back from
        // the per-WL OOB records, in sequence order.
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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

    /// A pageFTL whose program of F(1,3) — chip 0, block 0, h-layer 1,
    /// v-layer 3 — aborts once.
    fn page_with_an_abort_hole() -> Ftl {
        let mut ftl = Ftl::new(FtlKind::Page, FtlConfig::small());
        ftl.set_fault_plan(&FaultPlan::default().with_target(0, 1, 3, FaultKind::ProgramAbort));
        ftl
    }

    #[test]
    fn power_cycle_hands_out_an_abort_hole_above_the_last_follower_again() {
        let mut ftl = page_with_an_abort_hole();
        let g = ftl.geometry();
        // L0 F(0,1..3) L1 F(1,1) F(1,2) program; F(1,3) aborts and its
        // pages land on L2. Then the cut.
        for i in 0..8 {
            ftl.write_wl(0, [3 * i, 3 * i + 1, 3 * i + 2], &ctx(0.5));
        }
        assert_eq!(ftl.stats().program_aborts, 1);
        let (mut ftl, _) = ftl.power_cycle(&[]);
        // The follower cursor resumes one past F(1,2), the last used
        // follower: the hole is written under L2 (mixed order, §4.1.3).
        let wl = |h, v| g.wl_addr(BlockId(0), h, v);
        assert_eq!(ftl.select_wl(0, 0.5), WlChoice::Follower(wl(1, 3)));
        assert_eq!(ftl.select_wl(0, 0.5), WlChoice::Follower(wl(2, 1)));
    }

    #[test]
    fn power_cycle_closes_a_block_whose_only_erased_wls_are_skipped_holes() {
        let mut ftl = page_with_an_abort_hole();
        let g = ftl.geometry();
        // 31 WLs of data fill block 0 around the F(1,3) hole.
        for i in 0..u64::from(g.wls_per_block() - 1) {
            ftl.write_wl(0, [3 * i, 3 * i + 1, 3 * i + 2], &ctx(0.5));
        }
        assert_eq!(
            ftl.mapping.valid_in_block(0, 0),
            g.pages_per_block() - u32::from(g.pages_per_wl)
        );
        let (ftl, _) = ftl.power_cycle(&[]);
        assert!(ftl.is_closed(0, BlockId(0)), "no write point resumes on it");
        assert_eq!(ftl.gc_victim(0), Some(BlockId(0)), "GC may collect it");
    }

    #[test]
    fn power_cycle_quarantines_the_resumed_layers_of_cube_minus() {
        let cfg = FtlConfig {
            ort_cluster: OrtClusterConfig::on(),
            ..FtlConfig::small()
        };
        let mut ftl = Ftl::new(FtlKind::CubeMinus, cfg);
        // Five WLs per chip: L0 F(0,1..3) L1.
        write_all(&mut ftl, 0..30, cfg.chips, 0.5);
        let (_, report) = ftl.power_cycle(&[]);
        assert_eq!(report.torn_wls_quarantined, 0);
        // Per chip: h-layer 1, whose followers are still erased, and the
        // leader frontier h-layer 2.
        assert_eq!(report.cluster_keys_quarantined, 2 * cfg.chips as u64);
    }

    #[test]
    fn interrupted_gc_erase_is_redone_on_boot() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
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
