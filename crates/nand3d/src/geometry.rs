//! The cubic organization of 3D NAND flash memory.
//!
//! A 3D NAND block is a small cube (paper Fig. 1(a)): word lines (WLs) are
//! arranged in **horizontal layers** (h-layers) stacked along the z axis,
//! and the WLs at the same y position across all h-layers form a
//! **vertical layer** (v-layer). The paper's chips have 48 h-layers with
//! 4 WLs (v-layers) each; every WL carries three TLC pages.
//!
//! This module provides the typed address space used by every other layer
//! of the reproduction: [`BlockId`], [`WlAddr`] (block + h-layer +
//! v-layer), and [`PageAddr`] (WL + page-in-WL). All addresses are plain
//! `Copy` data; [`Geometry`] holds the dimensions and the flattening /
//! unflattening arithmetic.

use std::fmt;

/// Identifier of a NAND chip inside a [`FlashArray`](crate::FlashArray).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChipId(pub u32);

/// Identifier of a flash block within one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Index of a horizontal layer within a block (0 = **topmost** layer; the
/// etching process proceeds top → bottom, so layer 0 has the widest channel
/// holes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HLayer(pub u16);

/// Index of a vertical layer within a block. WL `v = 0` of each h-layer is
/// the **leading WL** whose monitored parameters PS-aware techniques reuse
/// for the remaining (follower) WLs `v > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VLayer(pub u16);

/// Index of a logical page within a TLC word line (0 = LSB, 1 = CSB,
/// 2 = MSB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageIndex(pub u8);

/// Address of one word line: a (block, h-layer, v-layer) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WlAddr {
    /// The block containing this WL.
    pub block: BlockId,
    /// Horizontal layer (z position).
    pub h: HLayer,
    /// Vertical layer (y position).
    pub v: VLayer,
}

impl WlAddr {
    /// Returns `true` if this is the leading WL of its h-layer (`v == 0`).
    ///
    /// The leading WL is programmed with default parameters so that its
    /// monitored ISPP statistics can be reused for the followers
    /// (paper §4.1.3).
    #[inline]
    pub fn is_leader(&self) -> bool {
        self.v.0 == 0
    }
}

impl fmt::Display for WlAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w[b{}:h{}:v{}]", self.block.0, self.h.0, self.v.0)
    }
}

/// Address of one logical page: a WL plus the page slot within the WL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr {
    /// The word line holding this page.
    pub wl: WlAddr,
    /// Page slot within the TLC word line.
    pub page: PageIndex,
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:p{}", self.wl, self.page.0)
    }
}

/// Dimensions of one chip and the address arithmetic over them.
///
/// The default [`Geometry::paper`] matches the evaluation platform of
/// §6.1: 428 blocks/chip, 48 h-layers/block, 4 WLs/h-layer, 3 pages/WL
/// (TLC) and 16-KB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of blocks per chip.
    pub blocks_per_chip: u32,
    /// Number of horizontal layers per block.
    pub hlayers_per_block: u16,
    /// Number of WLs (v-layers) per horizontal layer.
    pub wls_per_hlayer: u16,
    /// Number of logical pages per WL (3 for TLC).
    pub pages_per_wl: u8,
    /// Page size in bytes.
    pub page_size: u32,
}

impl Geometry {
    /// The configuration of the paper's evaluation platform (§6.1).
    pub fn paper() -> Self {
        Geometry {
            blocks_per_chip: 428,
            hlayers_per_block: 48,
            wls_per_hlayer: 4,
            pages_per_wl: 3,
            page_size: 16 * 1024,
        }
    }

    /// A small geometry for unit tests and doc examples (8 blocks,
    /// 8 h-layers).
    pub fn small() -> Self {
        Geometry {
            blocks_per_chip: 8,
            hlayers_per_block: 8,
            wls_per_hlayer: 4,
            pages_per_wl: 3,
            page_size: 16 * 1024,
        }
    }

    /// Word lines per block.
    #[inline]
    pub fn wls_per_block(&self) -> u32 {
        u32::from(self.hlayers_per_block) * u32::from(self.wls_per_hlayer)
    }

    /// Logical pages per block.
    #[inline]
    pub fn pages_per_block(&self) -> u32 {
        self.wls_per_block() * u32::from(self.pages_per_wl)
    }

    /// Logical pages per chip.
    #[inline]
    pub fn pages_per_chip(&self) -> u64 {
        u64::from(self.pages_per_block()) * u64::from(self.blocks_per_chip)
    }

    /// Usable bytes per chip.
    #[inline]
    pub fn bytes_per_chip(&self) -> u64 {
        self.pages_per_chip() * u64::from(self.page_size)
    }

    /// Builds a [`WlAddr`], checking nothing; combine with
    /// [`Geometry::contains_wl`] for validation.
    #[inline]
    pub fn wl_addr(&self, block: BlockId, h: u16, v: u16) -> WlAddr {
        WlAddr {
            block,
            h: HLayer(h),
            v: VLayer(v),
        }
    }

    /// Builds a [`PageAddr`].
    #[inline]
    pub fn page_addr(&self, block: BlockId, h: u16, v: u16, page: u8) -> PageAddr {
        PageAddr {
            wl: self.wl_addr(block, h, v),
            page: PageIndex(page),
        }
    }

    /// Whether `block` is a valid block index.
    #[inline]
    pub fn contains_block(&self, block: BlockId) -> bool {
        block.0 < self.blocks_per_chip
    }

    /// Whether `wl` is a valid word-line address.
    #[inline]
    pub fn contains_wl(&self, wl: WlAddr) -> bool {
        self.contains_block(wl.block)
            && wl.h.0 < self.hlayers_per_block
            && wl.v.0 < self.wls_per_hlayer
    }

    /// Whether `page` is a valid page address.
    #[inline]
    pub fn contains_page(&self, page: PageAddr) -> bool {
        self.contains_wl(page.wl) && page.page.0 < self.pages_per_wl
    }

    /// Flattens a WL address to a dense per-chip index in
    /// `0..blocks_per_chip * wls_per_block()`.
    #[inline]
    pub fn wl_flat(&self, wl: WlAddr) -> usize {
        let per_block = self.wls_per_block() as usize;
        wl.block.0 as usize * per_block
            + wl.h.0 as usize * self.wls_per_hlayer as usize
            + wl.v.0 as usize
    }

    /// Flattens a page address to a dense per-chip index in
    /// `0..pages_per_chip()`.
    #[inline]
    pub fn page_flat(&self, page: PageAddr) -> usize {
        self.wl_flat(page.wl) * self.pages_per_wl as usize + page.page.0 as usize
    }

    /// Inverse of [`Geometry::page_flat`].
    pub fn page_unflat(&self, flat: usize) -> PageAddr {
        let per_block = self.pages_per_block() as usize;
        self.page_in_block(
            BlockId((flat / per_block) as u32),
            (flat % per_block) as u32,
        )
    }

    /// The address of the `index`-th page of `block` in flat
    /// (programming) order, `index < pages_per_block()`.
    #[inline]
    pub fn page_in_block(&self, block: BlockId, index: u32) -> PageAddr {
        let pages_per_wl = u32::from(self.pages_per_wl);
        let wls_per_hlayer = u32::from(self.wls_per_hlayer);
        let wl = index / pages_per_wl;
        self.page_addr(
            block,
            (wl / wls_per_hlayer) as u16,
            (wl % wls_per_hlayer) as u16,
            (index % pages_per_wl) as u8,
        )
    }

    /// Iterates over all WL addresses of a block in `(h, v)`
    /// lexicographic order.
    pub fn wls_of_block(&self, block: BlockId) -> impl Iterator<Item = WlAddr> + '_ {
        let hs = self.hlayers_per_block;
        let vs = self.wls_per_hlayer;
        (0..hs).flat_map(move |h| {
            (0..vs).map(move |v| WlAddr {
                block,
                h: HLayer(h),
                v: VLayer(v),
            })
        })
    }

    /// Iterates over the pages of one WL in slot order.
    pub fn pages_of_wl(&self, wl: WlAddr) -> impl Iterator<Item = PageAddr> + '_ {
        (0..self.pages_per_wl).map(move |p| PageAddr {
            wl,
            page: PageIndex(p),
        })
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_capacity_matches_evaluation_platform() {
        // §6.1: 8 chips of this geometry give a 32-GB SSD.
        let g = Geometry::paper();
        let ssd_bytes = g.bytes_per_chip() * 8;
        let gb = ssd_bytes as f64 / 1e9;
        assert!((31.0..34.0).contains(&gb), "got {gb} GB");
    }

    #[test]
    fn page_flat_roundtrip() {
        let g = Geometry::small();
        for flat in 0..g.pages_per_chip() as usize {
            let addr = g.page_unflat(flat);
            assert!(g.contains_page(addr));
            assert_eq!(g.page_flat(addr), flat);
        }
    }

    #[test]
    fn wl_flat_is_dense_and_ordered() {
        let g = Geometry::small();
        let mut prev = None;
        for b in 0..g.blocks_per_chip {
            for wl in g.wls_of_block(BlockId(b)) {
                let f = g.wl_flat(wl);
                if let Some(p) = prev {
                    assert_eq!(f, p + 1);
                }
                prev = Some(f);
            }
        }
        assert_eq!(
            prev.unwrap() + 1,
            (g.blocks_per_chip * g.wls_per_block()) as usize
        );
    }

    #[test]
    fn leader_classification() {
        let g = Geometry::paper();
        assert!(g.wl_addr(BlockId(0), 5, 0).is_leader());
        assert!(!g.wl_addr(BlockId(0), 5, 1).is_leader());
        assert!(!g.wl_addr(BlockId(0), 5, 3).is_leader());
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g = Geometry::small();
        assert!(!g.contains_block(BlockId(g.blocks_per_chip)));
        assert!(!g.contains_wl(g.wl_addr(BlockId(0), g.hlayers_per_block, 0)));
        assert!(!g.contains_wl(g.wl_addr(BlockId(0), 0, g.wls_per_hlayer)));
        assert!(!g.contains_page(g.page_addr(BlockId(0), 0, 0, g.pages_per_wl)));
    }

    #[test]
    fn pages_of_wl_yields_all_slots() {
        let g = Geometry::paper();
        let wl = g.wl_addr(BlockId(3), 10, 2);
        let pages: Vec<_> = g.pages_of_wl(wl).collect();
        assert_eq!(pages.len(), 3);
        assert!(pages.iter().all(|p| p.wl == wl));
    }

    #[test]
    fn wls_of_block_counts() {
        let g = Geometry::paper();
        assert_eq!(g.wls_of_block(BlockId(0)).count(), 48 * 4);
    }
}
