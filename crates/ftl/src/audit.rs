//! The FTL's self-audit: the invariants its bookkeeping must hold
//! between any two operations, each checked against a recount of the
//! raw tables.
//!
//! [`Ftl::audit`] walks the whole device state, so it is a referee, not
//! a runtime guard: the harness runs it at every barrier of a debug
//! build (crash recovery, array failure, lifetime aging, the final
//! drain), `tests/spo_sweep.rs` after every power cycle and the FTL
//! proptests at the end of every case. Its per-chip part (invariants 1
//! to 4 on one chip's pages and blocks) runs after every background
//! unit of a debug build, so a half-migrated GC victim is checked where
//! it stands.

use crate::base::{Chips, Ftl};
use crate::cube::opm::LayerSlot;
use crate::mapping::NONE;
use nand3d::{PageState, WlAddr};
use std::fmt;

/// The first invariant [`Ftl::audit`] found broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The L2P and the P2L disagree: `lpn`'s L2P entry names global
    /// page `page`, or `page`'s P2L entry names `lpn`, and the other
    /// table does not point back.
    Bijection {
        /// The logical page.
        lpn: u64,
        /// The global page index (chip × pages per chip + page).
        page: u32,
    },
    /// A block's valid-page count differs from a recount of its P2L.
    ValidCount {
        /// The chip.
        chip: usize,
        /// The block.
        block: u32,
        /// The kept count.
        counted: u32,
        /// The recount.
        recounted: u32,
    },
    /// A block is held twice: by the free pool's queue and its bitmap
    /// disagreeing, or by two of the free pool, the WAM's active blocks
    /// and the checkpoint region.
    BlockOwners {
        /// The chip.
        chip: usize,
        /// The block.
        block: u32,
        /// What went wrong, in words.
        what: &'static str,
    },
    /// A WL of an active block breaks the WAM's cursors: a follower it
    /// handed out sits on an h-layer whose leader it has not handed out
    /// and that is not demoted, or a WL it has yet to hand out is not
    /// erased.
    WamCursor {
        /// The chip.
        chip: usize,
        /// The WL.
        wl: WlAddr,
        /// What went wrong, in words.
        what: &'static str,
    },
    /// An OPM counter disagrees with a recount of its flag bits.
    OpmCount {
        /// The counter: `pending_layers`, `demoted_layers` or
        /// `ort_entries` (one chip's, `chip` given).
        counter: &'static str,
        /// The chip, for a per-chip counter.
        chip: Option<usize>,
        /// The kept count.
        counted: usize,
        /// The recount.
        recounted: usize,
    },
    /// Two cached entries of `chip`'s bounded ORT carry the same LRU
    /// stamp, so the eviction victim is ambiguous.
    OrtStamp {
        /// The chip.
        chip: usize,
        /// The shared stamp.
        stamp: u64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Bijection { lpn, page } => {
                write!(f, "L2P and P2L disagree on lpn {lpn} / global page {page}")
            }
            AuditError::ValidCount {
                chip,
                block,
                counted,
                recounted,
            } => write!(
                f,
                "chip {chip} block {block}: valid count {counted}, P2L holds {recounted}"
            ),
            AuditError::BlockOwners { chip, block, what } => {
                write!(f, "chip {chip} block {block}: {what}")
            }
            AuditError::WamCursor { chip, wl, what } => write!(
                f,
                "chip {chip} WL (block {}, h {}, v {}): {what}",
                wl.block.0, wl.h.0, wl.v.0
            ),
            AuditError::OpmCount {
                counter,
                chip,
                counted,
                recounted,
            } => {
                write!(f, "OPM {counter} is {counted}, its flags count {recounted}")?;
                match chip {
                    Some(c) => write!(f, " on chip {c}"),
                    None => Ok(()),
                }
            }
            AuditError::OrtStamp { chip, stamp } => {
                write!(f, "chip {chip}: two ORT entries share LRU stamp {stamp}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

impl Ftl {
    /// Checks the FTL's invariants against recounts of its raw tables:
    ///
    /// 1. the L2P and the P2L are inverse bijections between the mapped
    ///    LPNs and the valid pages;
    /// 2. every block's valid count equals the P2L entries in it;
    /// 3. per chip, the free pool's queue and its membership bits agree,
    ///    and the free pool, the WAM's active blocks and the checkpoint
    ///    region hold pairwise disjoint blocks;
    /// 4. every follower WL the WAM has handed out sits on an h-layer
    ///    whose leader it handed out before (programmed, torn, or an
    ///    aborted program's erased hole the WAM skips for good) or that
    ///    is demoted, and every WL of an active block it has yet to hand
    ///    out is erased;
    /// 5. the OPM's `pending_layers()`, `demoted_layers()` and per-chip
    ///    `ort_entries()` equal recounts of its flag bits;
    /// 6. the cached entries of a bounded ORT carry unique LRU stamps.
    ///
    /// Returns the first violation found. O(device): a referee for
    /// tests and debug-build barriers, never called on a hot path.
    pub fn audit(&self) -> Result<(), AuditError> {
        self.audit_l2p()?;
        for chip in 0..self.config.chips {
            self.audit_chip(chip)?;
        }
        self.audit_opm()
    }

    /// [`Ftl::audit`], panicking with the violation — in debug builds
    /// only; a release build skips the walk.
    pub fn debug_audit(&self) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.audit() {
                panic!("{} failed its audit: {e}", self.kind.name());
            }
        }
    }

    /// The per-chip part of [`Ftl::debug_audit`] (O(pages per chip)):
    /// after a background unit on `chip`, in debug builds only.
    pub(crate) fn debug_audit_chip(&self, chip: usize) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.audit_chip(chip) {
                panic!(
                    "{} failed its audit after a background unit: {e}",
                    self.kind.name()
                );
            }
        }
    }

    /// Invariants 1 (from each page's side) to 4 on `chip`.
    fn audit_chip(&self, chip: usize) -> Result<(), AuditError> {
        self.audit_p2l(chip)?;
        self.audit_blocks(chip)?;
        self.audit_wam(chip)
    }

    /// Invariant 1 from each LPN's side.
    fn audit_l2p(&self) -> Result<(), AuditError> {
        let m = &self.mapping;
        for (lpn, &page) in m.l2p().iter().enumerate() {
            if page != NONE && m.p2l.get(page as usize) != Some(&(lpn as u32)) {
                let lpn = lpn as u64;
                return Err(AuditError::Bijection { lpn, page });
            }
        }
        Ok(())
    }

    /// Invariant 1 from the side of `chip`'s pages, and invariant 2.
    fn audit_p2l(&self, chip: usize) -> Result<(), AuditError> {
        let m = &self.mapping;
        let l2p = m.l2p();
        let g = self.geometry();
        let per_chip = g.pages_per_chip() as usize;
        let first = chip * per_chip;
        let pages = &m.p2l[first..first + per_chip];
        for (page, &lpn) in (first..).zip(pages) {
            if lpn != NONE && l2p.get(lpn as usize) != Some(&(page as u32)) {
                let (lpn, page) = (u64::from(lpn), page as u32);
                return Err(AuditError::Bijection { lpn, page });
            }
        }
        let per_block = g.pages_per_block() as usize;
        let first_block = chip * g.blocks_per_chip as usize;
        for (block, pages) in pages.chunks(per_block).enumerate() {
            let recounted = pages.iter().filter(|&&l| l != NONE).count() as u32;
            let counted = m.valid[first_block + block];
            if counted != recounted {
                return Err(AuditError::ValidCount {
                    chip,
                    block: block as u32,
                    counted,
                    recounted,
                });
            }
        }
        Ok(())
    }

    /// Invariant 3 on `chip`.
    fn audit_blocks(&self, chip: usize) -> Result<(), AuditError> {
        let pool = &self.free[chip];
        let err = |block: usize, what| AuditError::BlockOwners {
            chip,
            block: block as u32,
            what,
        };
        let mut held = vec![false; pool.is_free.len()];
        for b in pool.iter() {
            if std::mem::replace(&mut held[b.0 as usize], true) {
                return Err(err(b.0 as usize, "queued twice in the free pool"));
            }
        }
        if let Some(i) = (0..held.len()).find(|&i| held[i] != pool.is_free[i]) {
            return Err(err(i, "the free pool's queue and its free bit disagree"));
        }
        let region = if chip == 0 {
            self.ckpt_region()
        } else {
            Vec::new()
        };
        for b in self.wam.active_blocks(chip).chain(region) {
            if std::mem::replace(&mut held[b.0 as usize], true) {
                return Err(err(
                    b.0 as usize,
                    "held twice by the free pool, the active blocks and the checkpoint region",
                ));
            }
        }
        Ok(())
    }

    /// Invariant 4 on `chip`.
    fn audit_wam(&self, chip: usize) -> Result<(), AuditError> {
        let g = self.geometry();
        let nand = self.array.nand(chip);
        for b in &self.wam.per_chip[chip].active {
            for h in 0..g.hlayers_per_block {
                for v in 0..g.wls_per_hlayer {
                    let wl = g.wl_addr(b.block, h, v);
                    let err = |what| AuditError::WamCursor { chip, wl, what };
                    let handed_out = if v == 0 {
                        h < b.next_leader_h
                    } else {
                        (h, v) < b.next_follower
                    };
                    let demoted = self.opm().is_some_and(|o| o.is_demoted(chip, wl));
                    if v > 0 && handed_out && h >= b.next_leader_h && !demoted {
                        return Err(err("follower handed out above the leader cursor"));
                    }
                    if !handed_out && nand.wl_state(wl) != PageState::Free {
                        return Err(err("not handed out yet, but not erased"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Invariants 5 and 6.
    fn audit_opm(&self) -> Result<(), AuditError> {
        let Some(opm) = self.opm() else {
            return Ok(());
        };
        let count = |chip: Option<usize>, counter, counted, recounted| {
            (counted == recounted)
                .then_some(())
                .ok_or(AuditError::OpmCount {
                    counter,
                    chip,
                    counted,
                    recounted,
                })
        };
        let slots = || opm.chips.iter().flat_map(|c| &c.slots);
        let flagged = |flag| slots().filter(|s| s.has(flag)).count();
        count(
            None,
            "pending_layers",
            opm.pending_layers(),
            flagged(LayerSlot::LEADER),
        )?;
        count(
            None,
            "demoted_layers",
            opm.demoted_layers(),
            flagged(LayerSlot::DEMOTED),
        )?;
        for (chip, table) in opm.chips.iter().enumerate() {
            let present = table.ort.iter().filter(|e| e.present()).count();
            let mut listed = vec![false; table.ort.len()];
            let listed_present = table
                .cached
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| !std::mem::replace(&mut listed[i], true) && table.ort[i].present())
                .count();
            count(Some(chip), "ort_entries", table.cached.len(), present)?;
            count(
                Some(chip),
                "ort_entries",
                table.cached.len(),
                listed_present,
            )?;
            if !table.stamps.is_empty() {
                let mut stamps: Vec<u64> = table
                    .cached
                    .iter()
                    .map(|&i| table.stamps[i as usize])
                    .collect();
                stamps.sort_unstable();
                if let Some(w) = stamps.windows(2).find(|w| w[0] == w[1]) {
                    return Err(AuditError::OrtStamp { chip, stamp: w[0] });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Params;
    use crate::testutil::{ctx, write_all};
    use crate::{FtlConfig, FtlKind, MaintConfig};
    use nand3d::{FaultKind, FaultPlan};
    use ssdsim::FtlDriver;

    /// A device of every kind audits clean after every 33 WL writes,
    /// after a read-back and after a power cycle — with GC, wear-aware
    /// allocation, a bounded ORT, faults and checkpoints behind it.
    #[test]
    fn a_busy_device_audits_clean() {
        for kind in FtlKind::ALL {
            let mut cfg = FtlConfig::small();
            cfg.ort_capacity = 16;
            let mut ftl = Ftl::new(kind, cfg);
            ftl.enable_checkpointing(8);
            ftl.enable_maintenance(MaintConfig::default_on());
            ftl.set_fault_plan(
                &FaultPlan::seeded(5)
                    .with_rate(FaultKind::ProgramAbort, 0.02)
                    .with_rate(FaultKind::BerSpike, 0.02),
            );
            for round in 0..24 {
                write_all(
                    &mut ftl,
                    (0..99).map(|i| (round * 99 + i) % 500),
                    cfg.chips,
                    0.95,
                );
                assert_eq!(ftl.audit(), Ok(()), "{} round {round}", kind.name());
            }
            for lpn in 0..500 {
                ftl.read_page(lpn, &ctx(0.0));
            }
            assert_eq!(ftl.audit(), Ok(()), "{}", kind.name());
            let (ftl, _) = ftl.power_cycle(&[]);
            assert_eq!(ftl.audit(), Ok(()), "{} after a power cycle", kind.name());
        }
    }

    #[test]
    fn each_broken_invariant_is_reported() {
        let cfg = FtlConfig::small();
        let mut base = Ftl::new(FtlKind::Cube, cfg);
        write_all(&mut base, 0..90, cfg.chips, 0.95);
        assert_eq!(base.audit(), Ok(()));

        let mut ftl = base.clone();
        ftl.mapping.p2l[0] = 7;
        assert!(matches!(ftl.audit(), Err(AuditError::Bijection { .. })));

        let mut ftl = base.clone();
        ftl.mapping.valid[0] += 1;
        assert!(matches!(ftl.audit(), Err(AuditError::ValidCount { .. })));

        let mut ftl = base.clone();
        let active = ftl.wam.active_blocks(0).next().unwrap();
        ftl.free[0].queue.push_back(active);
        ftl.free[0].is_free[active.0 as usize] = true;
        assert!(matches!(ftl.audit(), Err(AuditError::BlockOwners { .. })));

        let mut ftl = base.clone();
        ftl.wam.per_chip[0].active[0].next_leader_h = 0;
        assert!(matches!(ftl.audit(), Err(AuditError::WamCursor { .. })));

        let mut ftl = base.clone();
        let Params::Opm(opm) = &mut ftl.params else {
            unreachable!("cubeFTL has an OPM")
        };
        opm.chips[1].slots[0].flags ^= LayerSlot::DEMOTED;
        assert!(matches!(ftl.audit(), Err(AuditError::OpmCount { .. })));

        let mut cfg = FtlConfig::small();
        cfg.ort_capacity = 4;
        let mut ftl = Ftl::new(FtlKind::Cube, cfg);
        write_all(&mut ftl, 0..90, cfg.chips, 0.95);
        for lpn in 0..90 {
            ftl.read_page(lpn, &ctx(0.0));
        }
        assert_eq!(ftl.audit(), Ok(()));
        let Params::Opm(opm) = &mut ftl.params else {
            unreachable!("cubeFTL has an OPM")
        };
        let table = &mut opm.chips[0];
        let (a, b) = (table.cached[0] as usize, table.cached[1] as usize);
        table.stamps[a] = table.stamps[b];
        assert!(matches!(ftl.audit(), Err(AuditError::OrtStamp { .. })));
    }
}
