//! The read path: one policy read — ORT lookup, read parameters, NAND
//! read, ORT / cluster update — under the host's mapped reads, a
//! migration's reads by physical address and maintenance's leader-WL
//! sample reads alike.

use crate::base::{Ftl, Origin};
use crate::cube::opm::OffsetLookup;
use nand3d::{PageAddr, PageIndex, ReadFaultKind, ReadParams, ReadReport, WlAddr};
use ssdsim::PageRead;
use telemetry::{EventKind, EventMask};

impl Ftl {
    /// Reads `page` of `chip` with the variant's read policy: PS-aware
    /// kinds start from the h-layer's ORT offset (or a cluster seed) and
    /// feed the decoding offset back; the others read at the default
    /// references. Counts nothing — callers attribute the read.
    fn policy_read(&mut self, chip: usize, page: PageAddr) -> (ReadReport, Option<OffsetLookup>) {
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
            .expect("valid chip")
            .read_page(page, params)
            .expect("policy reads target written pages");
        if let (Some(opm), Some(l)) = (&mut self.opm, lookup) {
            opm.note_read_outcome(l, report.final_offset);
            opm.update_read_offset(chip, page.wl, report.final_offset);
        }
        (report, lookup)
    }

    /// Reads the mapped location of `lpn` — the host's entry: one L2P
    /// lookup, then [`Ftl::read_at`].
    pub(crate) fn read_mapped(&mut self, lpn: u64, origin: Origin) -> Option<PageRead> {
        let ppn = self.mapping.lookup(lpn)?;
        let page = self.geometry().page_unflat(ppn.page as usize);
        Some(self.read_at(lpn, ppn.chip as usize, page, origin))
    }

    /// Reads `page` of `chip`, which the caller knows to hold `lpn` (the
    /// host through the L2P, a migration through the victim's P2L). Host
    /// and GC reads feed the host-visible read statistics; maintenance
    /// migration reads are background work and must not distort them.
    pub(crate) fn read_at(
        &mut self,
        lpn: u64,
        chip: usize,
        page: PageAddr,
        origin: Origin,
    ) -> PageRead {
        let (report, lookup) = self.policy_read(chip, page);
        debug_assert_eq!(
            self.array.chip(chip).expect("valid chip").page_tag(page),
            Some(lpn),
            "mapping returned wrong data"
        );
        if origin != Origin::Maint {
            self.stats.nand_reads += 1;
            self.stats.read_retries += u64::from(report.retries);
            self.stats.early_terminations += u64::from(report.early_terminated);
            match report.fault {
                // Stale cached ΔV_Ref: the extra retry found a working
                // offset, and the ORT update refreshed the cached entry.
                Some(ReadFaultKind::StuckRetry) => self.stats.stuck_retry_recoveries += 1,
                // First attempt uncorrectable: recovered via a full offset
                // scan (charged as MAX_OFFSET_INDEX + 1 retries).
                Some(ReadFaultKind::Uncorrectable) => self.stats.uncorrectable_recoveries += 1,
                None => {}
            }
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
        PageRead {
            chip,
            nand_us: report.latency_us,
            retries: report.retries,
        }
    }

    /// Reads the first page of `wl` during maintenance (BER sampling
    /// and ORT refresh). Charged to the maintenance time budget, not to
    /// the host read statistics. Returns the NAND latency.
    pub(crate) fn sample_read(&mut self, chip: usize, wl: WlAddr) -> f64 {
        let page = PageAddr {
            wl,
            page: PageIndex(0),
        };
        self.policy_read(chip, page).0.latency_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, write_all};
    use crate::{FtlConfig, FtlKind};
    use nand3d::{AgingState, FaultKind, FaultPlan};
    use ssdsim::FtlDriver;

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
    fn read_faults_are_recovered_and_counted() {
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::cube(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        let plan = FaultPlan::seeded(11)
            .with_rate(FaultKind::StuckRetry, 0.05)
            .with_rate(FaultKind::UncorrectableRead, 0.05);
        ftl.set_fault_plan(&plan);
        ftl.reset_stats();
        for lpn in 0..300 {
            // read_at debug-asserts the page data matches the LPN, so
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
}
