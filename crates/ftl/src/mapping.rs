//! Page-level address translation (L2P/P2L) and per-block validity
//! accounting.

use nand3d::{Geometry, PageAddr, PageIndex, WlAddr, WlData};
use serde::{Deserialize, Serialize};

/// A physical page number: chip index plus the page's flat index within
/// the chip (see [`Geometry::page_flat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ppn {
    /// Chip holding the page.
    pub chip: u32,
    /// Flat per-chip page index.
    pub page: u32,
}

const UNMAPPED: u64 = u64::MAX;

/// The L2P entry of an unmapped LPN (`chip == u32::MAX`), in the table
/// and in the checkpoint that serializes it.
pub(crate) const UNMAPPED_PPN: Ppn = Ppn {
    chip: u32::MAX,
    page: 0,
};

/// Decodes one L2P entry.
#[inline]
pub(crate) fn mapped(entry: Ppn) -> Option<Ppn> {
    (entry.chip != UNMAPPED_PPN.chip).then_some(entry)
}

/// Bidirectional page mapping with per-block valid-page counts.
///
/// The L2P direction serves host reads; the P2L direction and the valid
/// counts serve garbage collection (victim selection and migration).
#[derive(Debug, Clone)]
pub struct Mapping {
    geometry: Geometry,
    chips: usize,
    /// Logical page → physical page (`UNMAPPED_PPN` if none): 8 bytes
    /// per LPN, the entry a checkpoint writes to flash.
    l2p: Vec<Ppn>,
    /// Per chip: flat physical page → logical page (or `UNMAPPED`).
    p2l: Vec<Vec<u64>>,
    /// Per chip, per block: number of valid (mapped) pages.
    valid: Vec<Vec<u32>>,
}

impl Mapping {
    /// A mapping for `logical_pages` host pages over `chips` chips of
    /// `geometry`.
    pub fn new(geometry: Geometry, chips: usize, logical_pages: u64) -> Self {
        let pages_per_chip = geometry.pages_per_chip() as usize;
        Mapping {
            geometry,
            chips,
            l2p: vec![UNMAPPED_PPN; logical_pages as usize],
            p2l: vec![vec![UNMAPPED; pages_per_chip]; chips],
            valid: vec![vec![0; geometry.blocks_per_chip as usize]; chips],
        }
    }

    /// Number of host-visible logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Current physical location of `lpn`, or `None` if never written or
    /// trimmed.
    #[inline]
    pub fn lookup(&self, lpn: u64) -> Option<Ppn> {
        self.l2p.get(lpn as usize).copied().and_then(mapped)
    }

    /// The logical page stored at `ppn`, or `None` if the physical page
    /// is free or stale.
    #[inline]
    pub fn reverse(&self, ppn: Ppn) -> Option<u64> {
        let l = self.p2l[ppn.chip as usize][ppn.page as usize];
        (l != UNMAPPED).then_some(l)
    }

    /// Valid pages in `block` of `chip`.
    #[inline]
    pub fn valid_in_block(&self, chip: usize, block: u32) -> u32 {
        self.valid[chip][block as usize]
    }

    fn block_of_page(&self, page_flat: u32) -> u32 {
        page_flat / self.geometry.pages_per_block()
    }

    /// Maps `lpn` to `ppn`, invalidating any previous location. Returns
    /// the previous location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range or `ppn` already holds live data.
    pub fn map(&mut self, lpn: u64, ppn: Ppn) -> Option<Ppn> {
        assert!((lpn as usize) < self.l2p.len(), "lpn {lpn} out of range");
        assert!(
            self.p2l[ppn.chip as usize][ppn.page as usize] == UNMAPPED,
            "physical page already mapped"
        );
        let old = self.unmap(lpn);
        self.l2p[lpn as usize] = ppn;
        self.p2l[ppn.chip as usize][ppn.page as usize] = lpn;
        let b = self.block_of_page(ppn.page) as usize;
        self.valid[ppn.chip as usize][b] += 1;
        old
    }

    /// Installs one programmed WL: maps every live page of `lpns`
    /// (padding skipped) to its page of `wl` on `chip`. Returns the
    /// number of pages mapped. The write path and crash recovery's OOB
    /// replay both install through here.
    pub fn map_wl(&mut self, chip: usize, wl: WlAddr, lpns: &[u64; 3]) -> u64 {
        let mut mapped = 0;
        for (i, &lpn) in lpns.iter().enumerate() {
            if lpn == WlData::PAD {
                continue;
            }
            let page = PageAddr {
                wl,
                page: PageIndex(i as u8),
            };
            let ppn = Ppn {
                chip: chip as u32,
                page: self.geometry.page_flat(page) as u32,
            };
            self.map(lpn, ppn);
            mapped += 1;
        }
        mapped
    }

    /// Unmaps `lpn` (TRIM or overwrite), returning its old location.
    pub fn unmap(&mut self, lpn: u64) -> Option<Ppn> {
        let entry = self.l2p.get_mut(lpn as usize)?;
        let old = mapped(std::mem::replace(entry, UNMAPPED_PPN))?;
        self.p2l[old.chip as usize][old.page as usize] = UNMAPPED;
        let b = self.block_of_page(old.page) as usize;
        self.valid[old.chip as usize][b] -= 1;
        Some(old)
    }

    /// Iterates over the logical pages still valid in `block` of `chip`
    /// together with their physical flat indices.
    pub fn valid_pages_of_block(
        &self,
        chip: usize,
        block: u32,
    ) -> impl Iterator<Item = (u64, u32)> + '_ {
        let per_block = self.geometry.pages_per_block();
        let first = block * per_block;
        (first..first + per_block).filter_map(move |p| {
            let l = self.p2l[chip][p as usize];
            (l != UNMAPPED).then_some((l, p))
        })
    }

    /// Asserts that a freshly erased block has no valid pages and clears
    /// its reverse mappings.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages.
    pub fn assert_block_clean(&mut self, chip: usize, block: u32) {
        assert_eq!(
            self.valid[chip][block as usize], 0,
            "erasing block with valid pages"
        );
        let per_block = self.geometry.pages_per_block();
        let first = (block * per_block) as usize;
        for p in first..first + per_block as usize {
            self.p2l[chip][p] = UNMAPPED;
        }
    }

    /// The full L2P table in LPN order, read in place — the payload a
    /// periodic checkpoint serializes.
    pub fn l2p_entries(&self) -> impl ExactSizeIterator<Item = Option<Ppn>> + '_ {
        self.l2p.iter().copied().map(mapped)
    }

    /// Total valid pages across all chips (live data).
    pub fn total_valid(&self) -> u64 {
        self.valid
            .iter()
            .flat_map(|v| v.iter())
            .map(|&c| u64::from(c))
            .sum()
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Overwrites the L2P entry of `lpn` alone, leaving the P2L and the
    /// valid counts as they were: the corruption a migration must catch.
    #[cfg(test)]
    pub(crate) fn corrupt_l2p(&mut self, lpn: u64, ppn: Ppn) {
        self.l2p[lpn as usize] = ppn;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> Mapping {
        Mapping::new(Geometry::small(), 2, 100)
    }

    #[test]
    fn map_lookup_roundtrip() {
        let mut m = mapping();
        let ppn = Ppn { chip: 1, page: 17 };
        assert_eq!(m.map(5, ppn), None);
        assert_eq!(m.lookup(5), Some(ppn));
        assert_eq!(m.reverse(ppn), Some(5));
        assert_eq!(m.valid_in_block(1, 0), 1);
    }

    #[test]
    fn remap_invalidates_old_location() {
        let mut m = mapping();
        let a = Ppn { chip: 0, page: 3 };
        let b = Ppn { chip: 0, page: 99 };
        m.map(7, a);
        assert_eq!(m.map(7, b), Some(a));
        assert_eq!(m.lookup(7), Some(b));
        assert_eq!(m.reverse(a), None);
        // page 3 is in block 0, page 99 is in block 99/96=1
        assert_eq!(m.valid_in_block(0, 0), 0);
        assert_eq!(m.valid_in_block(0, 1), 1);
    }

    #[test]
    fn unmap_clears_both_directions() {
        let mut m = mapping();
        let ppn = Ppn { chip: 0, page: 42 };
        m.map(1, ppn);
        assert_eq!(m.unmap(1), Some(ppn));
        assert_eq!(m.lookup(1), None);
        assert_eq!(m.reverse(ppn), None);
        assert_eq!(m.unmap(1), None);
        assert_eq!(m.total_valid(), 0);
    }

    #[test]
    fn valid_pages_of_block_enumerates() {
        let mut m = mapping();
        m.map(1, Ppn { chip: 0, page: 0 });
        m.map(2, Ppn { chip: 0, page: 5 });
        m.map(3, Ppn { chip: 0, page: 96 }); // next block
        let pages: Vec<_> = m.valid_pages_of_block(0, 0).collect();
        assert_eq!(pages, vec![(1, 0), (2, 5)]);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_same_ppn_rejected() {
        let mut m = mapping();
        m.map(1, Ppn { chip: 0, page: 9 });
        m.map(2, Ppn { chip: 0, page: 9 });
    }

    #[test]
    #[should_panic(expected = "valid pages")]
    fn erase_with_valid_pages_rejected() {
        let mut m = mapping();
        m.map(1, Ppn { chip: 0, page: 0 });
        m.assert_block_clean(0, 0);
    }

    #[test]
    fn clean_block_can_be_reused() {
        let mut m = mapping();
        let ppn = Ppn { chip: 0, page: 0 };
        m.map(1, ppn);
        m.unmap(1);
        m.assert_block_clean(0, 0);
        m.map(2, ppn);
        assert_eq!(m.lookup(2), Some(ppn));
    }
}
