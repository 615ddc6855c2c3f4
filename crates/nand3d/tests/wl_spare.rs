//! Differential referee for the chip's per-WL spare area.
//!
//! [`RefSpare`] keeps a WL's data tags, post-program BER and OOB record
//! the plain way — one array each, as `NandChip` once stored them — and
//! models every command's effect on them. A `NandChip` and a `RefSpare`
//! see the same random sequences of `erase`, `program_wl`, `write_oob`,
//! `interrupt_program` (of a drawn WL, or of the WL the last `write_oob`
//! addressed) and `interrupt_erase` on `Geometry::small()`
//! (with and without program aborts), and after every step the chip's
//! `page_tag` of every page, `wl_oob` and `wl_state` of every WL,
//! `block_prog_seq` of every block and every returned error or flag must
//! equal the reference's.

use nand3d::{
    BlockId, FaultKind, FaultPlan, Geometry, NandChip, NandConfig, NandError, OobStatus, PageState,
    ProgramParams, WlAddr, WlData, WlOob,
};
use proptest::prelude::*;

/// The spare-area model: per-WL state, data tags, post-program BER and
/// OOB record, plus the per-block program-sequence tracker.
struct RefSpare {
    g: Geometry,
    wl_state: Vec<PageState>,
    wl_data: Vec<WlData>,
    wl_post_ber: Vec<f64>,
    wl_oob: Vec<Option<WlOob>>,
    block_prog_seq: Vec<u64>,
}

impl RefSpare {
    fn new(g: Geometry) -> Self {
        let wls = (g.blocks_per_chip * g.wls_per_block()) as usize;
        RefSpare {
            g,
            wl_state: vec![PageState::Free; wls],
            wl_data: vec![WlData::from_pages([WlData::PAD; 3]); wls],
            wl_post_ber: vec![0.0; wls],
            wl_oob: vec![None; wls],
            block_prog_seq: vec![0; g.blocks_per_chip as usize],
        }
    }

    fn block_wls(&self, block: BlockId) -> std::ops::Range<usize> {
        let first = self.g.wl_flat(self.g.wl_addr(block, 0, 0));
        first..first + self.g.wls_per_block() as usize
    }

    /// The tags `wl` holds (all padding for an address off the chip).
    fn data_of(&self, wl: WlAddr) -> [u64; 3] {
        if self.g.contains_wl(wl) {
            self.wl_data[self.g.wl_flat(wl)].pages
        } else {
            [WlData::PAD; 3]
        }
    }

    fn erase(&mut self, block: BlockId) -> Result<(), NandError> {
        if !self.g.contains_block(block) {
            return Err(NandError::BlockOutOfRange(block));
        }
        for i in self.block_wls(block) {
            self.wl_state[i] = PageState::Free;
            self.wl_data[i] = WlData::from_pages([WlData::PAD; 3]);
            self.wl_post_ber[i] = 0.0;
            self.wl_oob[i] = None;
        }
        self.block_prog_seq[block.0 as usize] = 0;
        Ok(())
    }

    /// The error `program_wl` must return, if any.
    fn program_error(&self, wl: WlAddr) -> Option<NandError> {
        if !self.g.contains_wl(wl) {
            Some(NandError::WlOutOfRange(wl))
        } else if self.wl_state[self.g.wl_flat(wl)] != PageState::Free {
            Some(NandError::ProgramOnDirtyWl(wl))
        } else {
            None
        }
    }

    fn programmed(&mut self, wl: WlAddr, data: WlData, post_ber: f64) {
        let i = self.g.wl_flat(wl);
        self.wl_state[i] = PageState::Written;
        self.wl_data[i] = data;
        self.wl_post_ber[i] = post_ber;
    }

    fn write_oob(&mut self, wl: WlAddr, seq: u64) -> Result<(), NandError> {
        if !self.g.contains_wl(wl) {
            return Err(NandError::WlOutOfRange(wl));
        }
        let i = self.g.wl_flat(wl);
        if self.wl_state[i] != PageState::Written {
            return Err(NandError::ReadUnwritten(
                self.g.page_addr(wl.block, wl.h.0, wl.v.0, 0),
            ));
        }
        if seq >= u64::from(u32::MAX) {
            return Err(NandError::SeqOutOfRange(seq));
        }
        self.wl_oob[i] = Some(WlOob {
            lpns: self.data_of(wl),
            seq,
            status: OobStatus::Complete,
        });
        let b = wl.block.0 as usize;
        self.block_prog_seq[b] = self.block_prog_seq[b].max(seq);
        Ok(())
    }

    fn interrupt_program(&mut self, wl: WlAddr) -> bool {
        if !self.g.contains_wl(wl) {
            return false;
        }
        let i = self.g.wl_flat(wl);
        if self.wl_state[i] != PageState::Written {
            return false;
        }
        self.wl_state[i] = PageState::Partial;
        self.wl_post_ber[i] = (self.wl_post_ber[i] * 8.0).max(1e-3);
        if let Some(oob) = &mut self.wl_oob[i] {
            oob.status = OobStatus::Torn;
        }
        true
    }

    fn interrupt_erase(&mut self, block: BlockId) -> bool {
        if !self.g.contains_block(block) {
            return false;
        }
        let wls = self.block_wls(block);
        if self.wl_state[wls.clone()]
            .iter()
            .any(|s| *s != PageState::Free)
        {
            return false;
        }
        for i in wls {
            self.wl_state[i] = PageState::Partial;
        }
        true
    }

    fn page_tag(&self, wl: WlAddr, page: usize) -> Option<u64> {
        let i = self.g.wl_flat(wl);
        (self.wl_state[i] == PageState::Written).then(|| self.wl_data[i].pages[page])
    }
}

/// One command, decoded from a raw draw `(kind, block, h, v, tags, seq)`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Erase(BlockId),
    Program(WlAddr, WlData),
    WriteOob(WlAddr, u64),
    InterruptProgram(WlAddr),
    /// A power cut catching the WL the last `write_oob` addressed: the
    /// FTL stamps every WL right after programming it, so a torn WL
    /// usually carries a record.
    InterruptStamped,
    InterruptErase(BlockId),
}

/// Mostly the first two blocks and h-layers, so commands meet written,
/// torn and free WLs alike; now and then one past the geometry.
fn hot(d: u16) -> u16 {
    if d < 21 {
        d % 2
    } else {
        d - 19
    }
}

/// A page tag: padding, one just under `u32::MAX`, or a small LPN.
fn tag(d: u64) -> u64 {
    match d % 8 {
        0 => WlData::PAD,
        1 => u64::from(u32::MAX) - 1 - (d >> 3) % 3,
        _ => (d >> 3) % 1000,
    }
}

/// A sequence number: `u64::MAX`, one of `u32::MAX - 1`, `u32::MAX` and
/// `u32::MAX + 1`, an arbitrary one or a small one.
fn seq(d: u64) -> u64 {
    match d % 8 {
        0 => u64::MAX,
        1 => u64::from(u32::MAX) - 1 + (d >> 3) % 3,
        2 | 3 => d,
        _ => d % 50,
    }
}

fn decode(g: &Geometry, (kind, b, h, v, tags, s): (u8, u16, u16, u16, u64, u64)) -> Op {
    let block = BlockId(u32::from(hot(b)));
    let wl = g.wl_addr(block, hot(h), v);
    match kind {
        0 => Op::Erase(block),
        1..=4 => {
            let t = |i: u32| tag(tags >> (21 * i) & 0x1f_ffff);
            Op::Program(wl, WlData::from_pages([t(0), t(1), t(2)]))
        }
        5..=7 => Op::WriteOob(wl, seq(s)),
        8 => Op::InterruptProgram(wl),
        9 => Op::InterruptStamped,
        _ => Op::InterruptErase(block),
    }
}

fn assert_same(chip: &NandChip, r: &RefSpare) -> Result<(), String> {
    let g = r.g;
    for b in 0..g.blocks_per_chip {
        let block = BlockId(b);
        prop_assert_eq!(chip.block_prog_seq(block), r.block_prog_seq[b as usize]);
        for h in 0..g.hlayers_per_block {
            for v in 0..g.wls_per_hlayer {
                let wl = g.wl_addr(block, h, v);
                let i = g.wl_flat(wl);
                let (state, oob) = (chip.wl_state(wl), chip.wl_oob(wl));
                prop_assert_eq!(
                    state,
                    r.wl_state[i],
                    "{}: {:?} vs {:?}",
                    wl,
                    state,
                    r.wl_state[i]
                );
                prop_assert_eq!(oob, r.wl_oob[i], "{}: {:?} vs {:?}", wl, oob, r.wl_oob[i]);
                for p in 0..g.pages_per_wl {
                    let page = g.page_addr(block, h, v, p);
                    let (got, want) = (chip.page_tag(page), r.page_tag(wl, p.into()));
                    prop_assert_eq!(got, want, "{}: {:?} vs {:?}", page, got, want);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn spare_area_matches_the_reference(
        draws in prop::collection::vec((0u8..11, 0u16..28, 0u16..28, 0u16..5, 0u64..u64::MAX, 0u64..u64::MAX), 1..160),
        aborts in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut chip = NandChip::new(NandConfig::small(), seed);
        if aborts {
            chip.set_fault_plan(
                &FaultPlan::seeded(seed).with_rate(FaultKind::ProgramAbort, 0.3),
                0,
            );
        }
        let g = *chip.geometry();
        let mut r = RefSpare::new(g);
        let mut stamped = None;
        for draw in draws {
            match decode(&g, draw) {
                Op::Erase(block) => {
                    prop_assert_eq!(chip.erase(block).map(|_| ()), r.erase(block));
                }
                Op::Program(wl, data) => {
                    let want = r.program_error(wl);
                    match chip.program_wl(wl, data, &ProgramParams::default()) {
                        Ok(report) => {
                            prop_assert_eq!(want, None);
                            if !report.aborted {
                                r.programmed(wl, data, report.post_ber);
                            }
                        }
                        Err(e) => prop_assert_eq!(Some(e), want),
                    }
                }
                Op::WriteOob(wl, seq) => {
                    let got = chip.write_oob(wl, seq);
                    prop_assert_eq!(got, r.write_oob(wl, seq));
                    stamped = Some(wl);
                }
                Op::InterruptProgram(wl) => {
                    prop_assert_eq!(chip.interrupt_program(wl), r.interrupt_program(wl));
                }
                Op::InterruptStamped => {
                    if let Some(wl) = stamped {
                        prop_assert_eq!(chip.interrupt_program(wl), r.interrupt_program(wl));
                    }
                }
                Op::InterruptErase(block) => {
                    prop_assert_eq!(chip.interrupt_erase(block), r.interrupt_erase(block));
                }
            }
            assert_same(&chip, &r)?;
        }
    }
}
