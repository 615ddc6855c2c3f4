//! Direct `NandChip` operation loops on a paper-configuration chip:
//! what one leader or follower WL program and one fresh or end-of-life
//! page read cost the host. They bound how much of `ftl.*_ns` is the
//! NAND model itself.

use nand3d::ispp::{margin_mv_for_spare, split_margin_mv};
use nand3d::{
    AgingState, BlockId, NandChip, NandConfig, ProgramParams, ReadParams, WlData,
    NUM_PROGRAM_STATES,
};
use std::hint::black_box;
use std::time::Instant;

/// Blocks programmed and read back (192 WLs and 576 pages each).
const BLOCKS: u32 = 16;

/// Median host ns per operation. Single operations take a few hundred
/// ns, so one pre-emption would swamp a mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandLoops {
    pub program_leader_ns: f64,
    pub program_follower_ns: f64,
    pub read_fresh_ns: f64,
    pub read_eol_ns: f64,
}

/// Programs `BLOCKS` blocks the way a PS-aware FTL does — the first WL
/// of each h-layer with default parameters, the rest with the skip
/// counts and window adjustment its report allows (§4.1, §5.1) — then
/// reads every page with default references, fresh and at end of life.
pub fn measure(seed: u64) -> NandLoops {
    let mut chip = NandChip::new(NandConfig::paper(), seed);
    let g = *chip.geometry();
    let (mut leader_ns, mut follower_ns) = (Vec::new(), Vec::new());
    for b in 0..BLOCKS {
        let block = BlockId(b);
        chip.erase(block).expect("block is in range");
        for h in 0..g.hlayers_per_block {
            let mut params = ProgramParams::default();
            for v in 0..g.wls_per_hlayer {
                let wl = g.wl_addr(block, h, v);
                let data = WlData::host(u64::from(b) << 20 | u64::from(h) << 8 | u64::from(v));
                let start = Instant::now();
                let report = chip
                    .program_wl(black_box(wl), data, black_box(&params))
                    .expect("programs a free WL in order");
                let ns = start.elapsed().as_nanos() as f64;
                black_box(&report);
                if v > 0 {
                    follower_ns.push(ns);
                    continue;
                }
                leader_ns.push(ns);
                let engine = chip.ispp();
                for s in 0..NUM_PROGRAM_STATES {
                    params.n_skip[s] = report.loop_intervals[s].safe_skip();
                }
                let spare = engine.spare_margin(report.ber_ep1, report.pe_cycles);
                let total_mv = margin_mv_for_spare(spare, engine.ispp_model());
                (params.v_start_up_mv, params.v_final_down_mv) =
                    split_margin_mv(total_mv, engine.ispp_model());
            }
        }
    }
    // One sample per WL: its pages read back to back.
    let read_all = |chip: &mut NandChip| {
        let mut per_page_ns = Vec::new();
        for b in 0..BLOCKS {
            for h in 0..g.hlayers_per_block {
                for v in 0..g.wls_per_hlayer {
                    let start = Instant::now();
                    for p in 0..g.pages_per_wl {
                        let page = g.page_addr(BlockId(b), h, v, p);
                        black_box(
                            chip.read_page(black_box(page), ReadParams::default())
                                .expect("page was programmed"),
                        );
                    }
                    per_page_ns.push(start.elapsed().as_nanos() as f64 / f64::from(g.pages_per_wl));
                }
            }
        }
        median(per_page_ns)
    };
    let read_fresh_ns = read_all(&mut chip);
    chip.set_aging(AgingState::EndOfLife);
    let read_eol_ns = read_all(&mut chip);
    NandLoops {
        program_leader_ns: median(leader_ns),
        program_follower_ns: median(follower_ns),
        read_fresh_ns,
        read_eol_ns,
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loops_time_every_operation_kind() {
        let n = measure(1);
        for ns in [
            n.program_leader_ns,
            n.program_follower_ns,
            n.read_fresh_ns,
            n.read_eol_ns,
        ] {
            assert!(ns.is_finite() && ns > 0.0);
        }
    }
}
