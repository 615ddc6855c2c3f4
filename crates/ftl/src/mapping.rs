//! Page-level address translation (L2P/P2L) and per-block validity
//! accounting.

use nand3d::{Geometry, PageAddr, PageIndex, WlAddr, WlData};

/// A physical page number: chip index plus the page's flat index within
/// the chip (see [`Geometry::page_flat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppn {
    /// Chip holding the page.
    pub chip: u32,
    /// Flat per-chip page index.
    pub page: u32,
}

/// The entry of both tables that names no page: an unmapped LPN in the
/// L2P, a free or stale physical page in the P2L.
pub(crate) const NONE: u32 = u32::MAX;

/// Bidirectional page mapping with per-block valid-page counts.
///
/// A physical page is one *global page index*, `chip × pages_per_chip +
/// page` (a [`Ppn`] flattened), which fits in a `u32` with `u32::MAX`
/// to spare for "no page" (`Mapping::new` asserts it;
/// `FtlConfig::max_blocks_per_chip` is the block count that keeps it),
/// so each table is a flat `Vec<u32>`, 4 bytes per page. The L2P
/// direction serves host reads; the P2L direction and the valid counts
/// serve garbage collection (victim selection and migration). A
/// checkpoint is a copy of the L2P table, restored entry by entry.
#[derive(Debug, Clone)]
pub struct Mapping {
    geometry: Geometry,
    chips: usize,
    pages_per_chip: u32,
    /// Logical page → global physical page, or `NONE`.
    l2p: Vec<u32>,
    /// Global physical page → logical page, or `NONE`.
    pub(crate) p2l: Vec<u32>,
    /// Global block (`chip × blocks_per_chip + block`, which is a global
    /// page divided by `pages_per_block`) → number of valid pages.
    pub(crate) valid: Vec<u32>,
}

impl Mapping {
    /// A mapping for `logical_pages` host pages over `chips` chips of
    /// `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the device's pages, or `logical_pages`, do not fit
    /// below `u32::MAX`.
    pub fn new(geometry: Geometry, chips: usize, logical_pages: u64) -> Self {
        let pages = geometry.pages_per_chip() * chips as u64;
        assert!(
            pages < u64::from(NONE) && logical_pages < u64::from(NONE),
            "{pages} physical and {logical_pages} logical pages do not fit a u32 page index"
        );
        Mapping {
            geometry,
            chips,
            pages_per_chip: geometry.pages_per_chip() as u32,
            l2p: vec![NONE; logical_pages as usize],
            p2l: vec![NONE; pages as usize],
            valid: vec![0; geometry.blocks_per_chip as usize * chips],
        }
    }

    /// Number of host-visible logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// The global page index of `ppn`.
    #[inline]
    fn global(&self, ppn: Ppn) -> usize {
        assert!(
            ppn.page < self.pages_per_chip,
            "page {} out of range",
            ppn.page
        );
        ppn.chip as usize * self.pages_per_chip as usize + ppn.page as usize
    }

    /// The `Ppn` of global page `g`.
    #[inline]
    fn ppn(&self, g: u32) -> Ppn {
        Ppn {
            chip: g / self.pages_per_chip,
            page: g % self.pages_per_chip,
        }
    }

    /// The global block of global page `g`.
    #[inline]
    fn block_of(&self, g: usize) -> usize {
        g / self.geometry.pages_per_block() as usize
    }

    /// Current physical location of `lpn`, or `None` if never written or
    /// trimmed.
    #[inline]
    pub fn lookup(&self, lpn: u64) -> Option<Ppn> {
        self.ppn_of(*self.l2p.get(lpn as usize)?)
    }

    /// The page an L2P entry names, or `None` for an unmapped one.
    #[inline]
    pub(crate) fn ppn_of(&self, entry: u32) -> Option<Ppn> {
        (entry != NONE).then(|| self.ppn(entry))
    }

    /// The logical page stored at `ppn`, or `None` if the physical page
    /// is free or stale.
    #[inline]
    pub fn reverse(&self, ppn: Ppn) -> Option<u64> {
        let l = self.p2l[self.global(ppn)];
        (l != NONE).then_some(u64::from(l))
    }

    /// Valid pages in `block` of `chip`.
    #[inline]
    pub fn valid_in_block(&self, chip: usize, block: u32) -> u32 {
        debug_assert!(block < self.geometry.blocks_per_chip);
        self.valid[chip * self.geometry.blocks_per_chip as usize + block as usize]
    }

    /// Maps `lpn` to `ppn`, invalidating any previous location. Returns
    /// the previous location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range or `ppn` already holds live data.
    pub fn map(&mut self, lpn: u64, ppn: Ppn) -> Option<Ppn> {
        assert!((lpn as usize) < self.l2p.len(), "lpn {lpn} out of range");
        let g = self.global(ppn);
        assert!(self.p2l[g] == NONE, "physical page already mapped");
        let old = self.unmap(lpn);
        self.l2p[lpn as usize] = g as u32;
        self.p2l[g] = lpn as u32;
        let b = self.block_of(g);
        self.valid[b] += 1;
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
        let g = std::mem::replace(entry, NONE);
        if g == NONE {
            return None;
        }
        self.p2l[g as usize] = NONE;
        let b = self.block_of(g as usize);
        self.valid[b] -= 1;
        Some(self.ppn(g))
    }

    /// The global page range of `block` of `chip`.
    fn block_pages(&self, chip: usize, block: u32) -> std::ops::Range<usize> {
        let per_block = self.geometry.pages_per_block() as usize;
        let first = self.global(Ppn {
            chip: chip as u32,
            page: block * per_block as u32,
        });
        first..first + per_block
    }

    /// Iterates over the logical pages still valid in `block` of `chip`,
    /// from page offset `from` of the block on, together with their
    /// physical flat indices.
    pub fn valid_pages_of_block(
        &self,
        chip: usize,
        block: u32,
        from: u32,
    ) -> impl Iterator<Item = (u64, u32)> + '_ {
        let first_page = block * self.geometry.pages_per_block() + from;
        let pages = self.block_pages(chip, block);
        self.p2l[pages.start + from as usize..pages.end]
            .iter()
            .zip(first_page..)
            .filter_map(|(&l, p)| (l != NONE).then_some((u64::from(l), p)))
    }

    /// Asserts that a freshly erased block has no valid pages and clears
    /// its reverse mappings.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages.
    pub fn assert_block_clean(&mut self, chip: usize, block: u32) {
        assert_eq!(
            self.valid_in_block(chip, block),
            0,
            "erasing block with valid pages"
        );
        let pages = self.block_pages(chip, block);
        self.p2l[pages].fill(NONE);
    }

    /// The L2P table in LPN order (entries decode through
    /// [`Mapping::ppn_of`]): what a checkpoint copies.
    pub(crate) fn l2p(&self) -> &[u32] {
        &self.l2p
    }

    /// Total valid pages across all chips (live data).
    pub fn total_valid(&self) -> u64 {
        self.valid.iter().map(|&c| u64::from(c)).sum()
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Overwrites the L2P entry of `lpn` alone, leaving the P2L and the
    /// valid counts as they were: the corruption a migration must catch.
    #[cfg(test)]
    pub(crate) fn corrupt_l2p(&mut self, lpn: u64, ppn: Ppn) {
        self.l2p[lpn as usize] = self.global(ppn) as u32;
    }
}

#[cfg(test)]
mod tests;
