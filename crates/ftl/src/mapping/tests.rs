use super::*;
use crate::recovery::{mapped, Checkpoint, UNMAPPED_PPN};
use nand3d::BlockId;
use proptest::prelude::*;

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

/// Both tables are one `u32` per page: a global page index per LPN, an
/// LPN per physical page, one flat vector each.
#[test]
fn tables_are_four_bytes_per_page() {
    fn entry_bytes<T>(_: &[T]) -> usize {
        std::mem::size_of::<T>()
    }
    let m = Mapping::new(Geometry::small(), 3, 100);
    assert_eq!((entry_bytes(&m.l2p), m.l2p.len()), (4, 100));
    let pages = 3 * Geometry::small().pages_per_chip() as usize;
    assert_eq!((entry_bytes(&m.p2l), m.p2l.len()), (4, pages));
    assert_eq!(
        m.valid.len(),
        3 * Geometry::small().blocks_per_chip as usize
    );
}

const UNMAPPED: u64 = u64::MAX;

/// The mapping as it was before its tables became flat `u32` page
/// indices — an 8-byte `Ppn` per LPN, a `u64` LPN per physical page in
/// one vector per chip, and per-chip valid counts — kept verbatim as
/// the reference the flat tables are compared against.
#[derive(Debug, Clone)]
struct RefMapping {
    geometry: Geometry,
    chips: usize,
    l2p: Vec<Ppn>,
    p2l: Vec<Vec<u64>>,
    valid: Vec<Vec<u32>>,
}

impl RefMapping {
    fn new(geometry: Geometry, chips: usize, logical_pages: u64) -> Self {
        let pages_per_chip = geometry.pages_per_chip() as usize;
        RefMapping {
            geometry,
            chips,
            l2p: vec![UNMAPPED_PPN; logical_pages as usize],
            p2l: vec![vec![UNMAPPED; pages_per_chip]; chips],
            valid: vec![vec![0; geometry.blocks_per_chip as usize]; chips],
        }
    }

    fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    fn lookup(&self, lpn: u64) -> Option<Ppn> {
        self.l2p.get(lpn as usize).copied().and_then(mapped)
    }

    fn reverse(&self, ppn: Ppn) -> Option<u64> {
        let l = self.p2l[ppn.chip as usize][ppn.page as usize];
        (l != UNMAPPED).then_some(l)
    }

    fn valid_in_block(&self, chip: usize, block: u32) -> u32 {
        self.valid[chip][block as usize]
    }

    fn block_of_page(&self, page_flat: u32) -> u32 {
        page_flat / self.geometry.pages_per_block()
    }

    fn map(&mut self, lpn: u64, ppn: Ppn) -> Option<Ppn> {
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

    fn map_wl(&mut self, chip: usize, wl: WlAddr, lpns: &[u64; 3]) -> u64 {
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

    fn unmap(&mut self, lpn: u64) -> Option<Ppn> {
        let entry = self.l2p.get_mut(lpn as usize)?;
        let old = mapped(std::mem::replace(entry, UNMAPPED_PPN))?;
        self.p2l[old.chip as usize][old.page as usize] = UNMAPPED;
        let b = self.block_of_page(old.page) as usize;
        self.valid[old.chip as usize][b] -= 1;
        Some(old)
    }

    fn valid_pages_of_block(
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

    fn assert_block_clean(&mut self, chip: usize, block: u32) {
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

    fn l2p_entries(&self) -> impl ExactSizeIterator<Item = Option<Ppn>> + '_ {
        self.l2p.iter().copied().map(mapped)
    }

    fn total_valid(&self) -> u64 {
        self.valid
            .iter()
            .flat_map(|v| v.iter())
            .map(|&c| u64::from(c))
            .sum()
    }

    fn chips(&self) -> usize {
        self.chips
    }
}

/// The checkpoint blob a flush of `entries` writes, with a per-chip
/// erase-count table of the geometry's shape.
fn blob(entries: impl ExactSizeIterator<Item = Option<Ppn>>, g: Geometry, chips: usize) -> Vec<u8> {
    Checkpoint {
        seq: 7,
        l2p: entries.collect(),
        erase_counts: vec![vec![1; g.blocks_per_chip as usize]; chips],
    }
    .encode()
}

/// Every answer of `m` equals the reference's: every LPN (and two past
/// the end), every physical page of every chip, every block's count and
/// valid pages, the whole L2P and the checkpoint blob it encodes to.
fn agrees(m: &Mapping, r: &RefMapping) -> Result<(), String> {
    let g = Geometry::small();
    prop_assert_eq!(m.chips(), r.chips());
    prop_assert_eq!(m.logical_pages(), r.logical_pages());
    prop_assert_eq!(m.total_valid(), r.total_valid());
    for lpn in 0..r.logical_pages() + 2 {
        prop_assert_eq!(m.lookup(lpn), r.lookup(lpn), "lookup({})", lpn);
    }
    for chip in 0..r.chips() {
        for page in 0..g.pages_per_chip() as u32 {
            let ppn = Ppn {
                chip: chip as u32,
                page,
            };
            prop_assert_eq!(m.reverse(ppn), r.reverse(ppn), "reverse({:?})", ppn);
        }
        for block in 0..g.blocks_per_chip {
            let (got, want) = (m.valid_in_block(chip, block), r.valid_in_block(chip, block));
            prop_assert_eq!(got, want, "valid_in_block({}, {})", chip, block);
            let got: Vec<_> = m.valid_pages_of_block(chip, block).collect();
            let want: Vec<_> = r.valid_pages_of_block(chip, block).collect();
            prop_assert_eq!(got, want, "valid_pages_of_block({}, {})", chip, block);
        }
    }
    prop_assert!(m.l2p_entries().eq(r.l2p_entries()), "l2p_entries");
    prop_assert!(
        blob(m.l2p_entries(), g, r.chips()) == blob(r.l2p_entries(), g, r.chips()),
        "checkpoint blob"
    );
    Ok(())
}

proptest! {
    /// The mapping against the reference it replaced, over random
    /// `map` / `map_wl` / `unmap` / `assert_block_clean` sequences at
    /// 1–4 chips of the small geometry: every return value and, after
    /// every step, every answer equal. A small LPN space makes remaps
    /// (and so invalidations in other blocks and chips) frequent; a
    /// block is cleaned by unmapping its valid pages first, as GC does.
    #[test]
    fn flat_tables_match_the_per_chip_mapping(
        chips in 1usize..5,
        logical in 1u64..160,
        ops in prop::collection::vec((0u8..8, 0u32..4, 0u32..768, 0u64..200, 0u64..200), 1..60),
    ) {
        let g = Geometry::small();
        let (mut m, mut r) = (Mapping::new(g, chips, logical), RefMapping::new(g, chips, logical));
        let per_block = g.pages_per_block();
        for &(op, chip, page, a, b) in &ops {
            let chip = (chip as usize % chips) as u32;
            let ppn = Ppn { chip, page };
            let (block, lpn) = (page / per_block, a % logical);
            match op {
                0..=2 => {
                    if r.reverse(ppn).is_none() {
                        prop_assert_eq!(m.map(lpn, ppn), r.map(lpn, ppn));
                    }
                }
                3 | 4 => {
                    let wl = g.page_in_block(BlockId(block), page % per_block).wl;
                    let first = g.page_flat(PageAddr { wl, page: PageIndex(0) }) as u32;
                    let free = (first..first + 3)
                        .all(|p| r.reverse(Ppn { chip, page: p }).is_none());
                    if free {
                        // A PAD in the slot `b` names, and LPNs that may repeat.
                        let mut lpns = [lpn, b % logical, (a + b) % logical];
                        if b % 4 < 3 {
                            lpns[(b % 4) as usize] = WlData::PAD;
                        }
                        let got = m.map_wl(chip as usize, wl, &lpns);
                        prop_assert_eq!(got, r.map_wl(chip as usize, wl, &lpns));
                    }
                }
                5 | 6 => {
                    // Past the end as well: both must answer `None`.
                    let lpn = a % (logical + 2);
                    prop_assert_eq!(m.unmap(lpn), r.unmap(lpn));
                }
                _ => {
                    let live: Vec<_> = r.valid_pages_of_block(chip as usize, block).collect();
                    for (lpn, _) in live {
                        prop_assert_eq!(m.unmap(lpn), r.unmap(lpn));
                    }
                    m.assert_block_clean(chip as usize, block);
                    r.assert_block_clean(chip as usize, block);
                }
            }
            agrees(&m, &r)?;
        }
    }
}
