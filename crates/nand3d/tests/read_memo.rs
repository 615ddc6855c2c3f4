//! Referee for the chip's memoised read physics: a seeded script that
//! interleaves reads and programs with every event that can change a
//! block's wear or retention age, and pins an FNV-1a of every report
//! field. The constant was captured from the code *before* the memo
//! existed (every read re-deriving its optimum from the formulas), so a
//! cache that misses an invalidation — or perturbs the RNG draw order —
//! moves it.

use nand3d::{
    AgingState, BlockId, FaultKind, FaultPlan, NandChip, NandConfig, ProgramParams, ProgramReport,
    ReadParams, ReadReport, RetryOptConfig, TargetedFault, WlData,
};

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn read(&mut self, r: &ReadReport, tag: u64) {
        self.word(r.latency_us.to_bits());
        self.word(u64::from(r.retries));
        self.word(u64::from(r.final_offset));
        self.word(tag);
        self.word(r.fault.map_or(0, |f| 1 + f as u64));
        self.word(u64::from(r.early_terminated));
    }

    fn program(&mut self, r: &ProgramReport) {
        self.word(r.latency_us.to_bits());
        for iv in r.loop_intervals {
            self.word(u64::from(iv.lmin) << 8 | u64::from(iv.lmax));
        }
        self.word(r.ber_ep1.to_bits());
        self.word(r.post_ber.to_bits());
        self.word(u64::from(r.pulses));
        self.word(u64::from(r.verifies));
        self.word(u64::from(r.margin_excess_loops));
        self.word(u64::from(r.disturbed));
        self.word(u64::from(r.pe_cycles));
        self.word(u64::from(r.aborted));
    }
}

struct Script {
    chip: NandChip,
    fnv: Fnv,
    rng: u64,
    next_tag: u64,
}

impl Script {
    /// splitmix64.
    fn draw(&mut self, n: u64) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// Erases `block` and programs every WL of it with default
    /// parameters (aborted programs are re-issued, as an FTL would).
    fn rewrite(&mut self, block: u32) {
        self.chip.erase(BlockId(block)).unwrap();
        let g = *self.chip.geometry();
        for h in 0..g.hlayers_per_block {
            for v in 0..g.wls_per_hlayer {
                let wl = g.wl_addr(BlockId(block), h, v);
                loop {
                    let data = WlData::host(self.next_tag);
                    let r = self
                        .chip
                        .program_wl(wl, data, &ProgramParams::default())
                        .unwrap();
                    self.fnv.program(&r);
                    if !r.aborted {
                        break;
                    }
                }
                self.next_tag += 3;
            }
        }
    }

    fn rewrite_random(&mut self) {
        let block = self.draw(7) as u32;
        self.rewrite(block);
    }

    /// `n` reads of random written pages (blocks `0..7`; block 7 stays
    /// empty) from random starting offsets, a quarter of them seeded.
    fn reads(&mut self, n: usize) {
        let g = *self.chip.geometry();
        for _ in 0..n {
            let block = self.draw(7) as u32;
            let h = self.draw(u64::from(g.hlayers_per_block)) as u16;
            let v = self.draw(u64::from(g.wls_per_hlayer)) as u16;
            let page = g.page_addr(BlockId(block), h, v, self.draw(3) as u8);
            let start = self.draw(8) as u8;
            let params = if self.draw(4) == 0 {
                ReadParams::seeded_from(start)
            } else {
                ReadParams::from_offset(start)
            };
            let r = self.chip.read_page(page, params).unwrap();
            self.fnv.read(&r, self.chip.page_tag(page).unwrap());
        }
    }
}

#[test]
fn read_reports_survive_every_aging_event() {
    let mut s = Script {
        chip: NandChip::new(NandConfig::small(), 17),
        fnv: Fnv(0xcbf2_9ce4_8422_2325),
        rng: 0x5eed,
        next_tag: 0,
    };
    for b in 0..7 {
        s.rewrite(b);
    }
    s.reads(200);

    // The paper's three aging states, then raw sweeps that move only
    // one half of the (P/E, retention) pair at a time.
    for state in [
        AgingState::MidLife,
        AgingState::EndOfLife,
        AgingState::Fresh,
    ] {
        s.chip.set_aging(state);
        s.reads(300);
    }
    for (pe, months) in [
        (2000, 12.0),
        (500, 12.0),
        (500, 3.0),
        (1500, 3.0),
        (2000, 6.0),
    ] {
        s.chip.env_mut().set_aging_raw(pe, months);
        s.reads(300);
        s.rewrite_random();
    }
    s.chip.env_mut().set_disturbance_prob(0.15);
    s.reads(300);

    // A temperature change mid-run, both directions, then back.
    for celsius in [55.0, 5.0, 30.0] {
        s.chip.env_mut().set_ambient_celsius(celsius);
        s.reads(300);
        s.rewrite_random();
    }

    // Erases without tracking wear the block but keep its age; with
    // tracking on an erased (or empty, or scrub-marked) block is young.
    s.chip.set_aging(AgingState::EndOfLife);
    s.rewrite(2);
    s.reads(300);
    s.chip.track_block_retention();
    s.reads(200);
    s.rewrite(3);
    s.reads(300);
    s.chip.env_mut().mark_refreshed(4);
    s.reads(300);

    // Injected read faults (rates and one-shot targets), then every
    // retry-chain optimization on top of them.
    let mut plan = FaultPlan::seeded(9);
    plan.stuck_retry_rate = 0.1;
    plan.uncorrectable_rate = 0.1;
    plan.ber_spike_rate = 0.1;
    plan.abort_rate = 0.05;
    plan.ispp_outlier_rate = 0.1;
    for h in 0..4 {
        plan.targeted.push(TargetedFault {
            block: 1,
            h,
            v: 1,
            kind: if h % 2 == 0 {
                FaultKind::StuckRetry
            } else {
                FaultKind::UncorrectableRead
            },
        });
    }
    s.chip.set_fault_plan(&plan, 0);
    s.reads(400);
    s.chip.set_retry_opt(RetryOptConfig::on());
    s.reads(400);
    s.rewrite(5);
    s.chip.set_fault_plan(&FaultPlan::none(), 0);
    s.reads(200);

    // A preset re-bakes every block, refreshed ones included; a zero
    // preset returns to live accounting; a fresh preset ages everything
    // again.
    s.chip.set_aging(AgingState::EndOfLife);
    s.reads(300);
    s.chip.env_mut().set_aging_raw(0, 0.0);
    s.reads(200);
    s.chip.set_aging(AgingState::MidLife);
    s.chip.track_block_retention();
    s.rewrite(6);
    s.reads(200);

    // A lifetime campaign: blocks advance individually between reads,
    // erases rejuvenate retention only, and the ambient temperature
    // moves under it.
    s.chip.env_mut().enable_lifetime_aging();
    s.reads(300);
    for step in 0..60 {
        let block = s.draw(8) as usize;
        let (pe, months) = match step % 3 {
            0 => (s.draw(400) as u32, 0.0),
            1 => (0, s.draw(30) as f64 / 10.0),
            _ => (s.draw(200) as u32, s.draw(20) as f64 / 10.0),
        };
        s.chip.env_mut().advance_block_age(block, pe, months);
        s.reads(25);
        if step % 10 == 9 {
            s.rewrite_random();
        }
        if step == 30 {
            s.chip.env_mut().set_ambient_celsius(45.0);
        }
    }
    s.chip.env_mut().mark_refreshed(0);
    s.chip.set_retry_opt(RetryOptConfig::default());
    s.reads(300);

    assert_eq!(
        s.fnv.0, 0x6fcb_9703_9dc6_e034,
        "captured on the pre-memo code"
    );
}
