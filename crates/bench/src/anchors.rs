//! The paper's scalar anchors, each measured once.
//!
//! An anchor is taken on the population of the figure that regenerates
//! it — the experiment EXPERIMENTS.md names beside it — by one function
//! here. That figure prints it through the function, `bench summary`
//! tabulates it against its band, and `tests/paper_anchors.rs` asserts
//! the device anchors' bands on the same calls, so no anchor has two
//! numbers. Every device-level function builds its own [`paper_chip`].

use crate::{
    delta_h_of, delta_v_of, eval, paper_chip, program_blocks, read_passes, NumRetry, Sweep,
};
use cubeftl::harness::{EvalConfig, Scenario};
use cubeftl::{AgingState, FtlKind, ProgramOrder, StandardWorkload};
use nand3d::ispp::split_margin_mv;
use nand3d::{BlockId, ProgramParams, ReadParams, WlData};

/// The largest over the smallest of `values`.
pub fn max_over_min(values: impl IntoIterator<Item = f64>) -> f64 {
    let (min, max) = values
        .into_iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    max / min
}

/// The aging conditions of Fig. 5(c), as `(P/E cycles, retention months)`.
pub const FIG05C_AGINGS: [(u32, f64); 5] = [
    (0, 0.0),
    (1000, 1.0),
    (1000, 12.0),
    (2000, 1.0),
    (2000, 12.0),
];

/// Fig. 5(c): ΔH of every fourth block × every h-layer, at each of
/// [`FIG05C_AGINGS`].
pub fn fig05c_delta_h() -> [Vec<f64>; 5] {
    let chip = paper_chip();
    let g = *chip.geometry();
    FIG05C_AGINGS.map(|aging| {
        let blocks = (0..g.blocks_per_chip).step_by(4);
        delta_h_of(&chip, blocks, 0..g.hlayers_per_block, aging)
    })
}

/// The max-ΔH anchor: the largest ΔH of Fig. 5(c).
pub fn max_delta_h() -> f64 {
    let dhs = fig05c_delta_h();
    dhs.iter().flatten().fold(0.0, |max, &dh| dh.max(max))
}

/// The aging states of Fig. 6(a)–(c), as `(P/E cycles, retention months)`.
pub const FIG06_AGINGS: [(u32, f64); 3] = [(0, 0.0), (2000, 1.0), (2000, 12.0)];

/// The ΔV anchors: mean ΔV over blocks 0–63 at each of [`FIG06_AGINGS`].
pub fn fig06_mean_delta_v() -> [f64; 3] {
    let chip = paper_chip();
    FIG06_AGINGS.map(|aging| {
        let sum: f64 = delta_v_of(&chip, 0..64, aging).iter().sum();
        sum / 64.0
    })
}

/// Fig. 6(d): per-block ΔV over blocks `0..128` at 2K P/E + 1-year
/// retention, as `(block, ΔV)` in ascending ΔV.
pub fn fig06d_delta_v() -> Vec<(u32, f64)> {
    let dvs = delta_v_of(&paper_chip(), 0..128, (2000, 12.0));
    let mut dvs: Vec<(u32, f64)> = (0..128).zip(dvs).collect();
    dvs.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    dvs
}

/// The per-block ΔV difference anchor on [`fig06d_delta_v`]'s blocks:
/// the paper's two sample blocks are the upper- and lower-quartile ones,
/// as `(Block I, Block II)`.
pub fn quartile_blocks(dvs: &[(u32, f64)]) -> ((u32, f64), (u32, f64)) {
    (dvs[dvs.len() * 3 / 4], dvs[dvs.len() / 4])
}

/// One WL programmed twice: tPROG under the default parameters and
/// under adjusted ones, µs.
#[derive(Debug, Clone, Copy)]
pub struct TprogPair {
    /// tPROG under [`ProgramParams::default`].
    pub default_us: f64,
    /// tPROG under the adjusted parameters.
    pub adjusted_us: f64,
}

impl TprogPair {
    /// The adjustment's tPROG reduction, as a fraction.
    pub fn reduction(&self) -> f64 {
        1.0 - self.adjusted_us / self.default_us
    }
}

/// The 320 mV anchor (Fig. 11(b)): block 17, h-layer 12, WL 1 under a
/// 320 mV total `V_Start`/`V_Final` adjustment.
pub fn fig11_320mv() -> TprogPair {
    let chip = paper_chip();
    let engine = chip.ispp();
    let wl = chip.geometry().wl_addr(BlockId(17), 12, 1);
    let chars = engine.characterize(chip.process(), wl, chip.env(), 0);
    let default = engine.program(&chars, &ProgramParams::default());
    let (up, down) = split_margin_mv(320.0, engine.ispp_model());
    let adjusted = engine.program(
        &chars,
        &ProgramParams {
            v_start_up_mv: up,
            v_final_down_mv: down,
            ..ProgramParams::default()
        },
    );
    TprogPair {
        default_us: default.expect("default").latency_us,
        adjusted_us: adjusted.expect("legal").latency_us,
    }
}

/// The §5.1 latency anchors, `(tPROG, tREAD)` in µs: block 0's leading
/// WL of h-layer 12 programmed under the default parameters, then its
/// first page read from the default references.
pub fn default_latencies() -> (f64, f64) {
    let mut chip = paper_chip();
    let g = *chip.geometry();
    chip.erase(BlockId(0)).expect("block in range");
    let wl = g.wl_addr(BlockId(0), 12, 0);
    let program = chip.program_wl(wl, WlData::host(0), &ProgramParams::default());
    let tprog = program.expect("erased WL").latency_us;
    let read = chip.read_page(g.page_addr(BlockId(0), 12, 0, 0), ReadParams::default());
    (tprog, read.expect("written page").latency_us)
}

/// The follower tPROG anchors, as fractions of the default tPROG summed
/// over the same WLs.
#[derive(Debug, Clone, Copy)]
pub struct FollowerTprog {
    /// VFY skipping alone (§4.1.1).
    pub vfy_skip: f64,
    /// VFY skipping plus the WL's safe window margin (§6.2), averaged.
    pub combined_avg: f64,
    /// The same, the largest single-WL reduction (§6.1).
    pub combined_max: f64,
    /// vertFTL's static guard step on `V_Final` alone (§6.2).
    pub vert: f64,
}

/// The follower tPROG anchors over WL 1 of every fourth h-layer of
/// blocks 0–15, each WL characterized on its own.
pub fn follower_tprog() -> FollowerTprog {
    let chip = paper_chip();
    let (g, engine) = (*chip.geometry(), chip.ispp());
    let mut sums = [0.0f64; 4]; // default, skip-only, combined, vertFTL
    let mut max_combined: f64 = 0.0;
    for b in 0..16u32 {
        for h in (0..g.hlayers_per_block).step_by(4) {
            let wl = g.wl_addr(BlockId(b), h, 1);
            let chars = engine.characterize(chip.process(), wl, chip.env(), 0);
            let default = engine.program(&chars, &ProgramParams::default()).unwrap();
            let mut skip = ProgramParams::default();
            for (s, iv) in chars.intervals.iter().enumerate() {
                skip.n_skip[s] = iv.safe_skip();
            }
            let skip_out = engine.program(&chars, &skip).unwrap();
            let mut combined = skip;
            let (up, down) = split_margin_mv(chars.safe_margin_mv, engine.ispp_model());
            combined.v_start_up_mv = up;
            combined.v_final_down_mv = down;
            let comb_out = engine.program(&chars, &combined).unwrap();
            // vertFTL: the static guard step, on V_Final only.
            let vert = ProgramParams {
                v_final_down_mv: engine.ispp_model().delta_v_ispp_mv,
                ..ProgramParams::default()
            };
            sums[0] += default.latency_us;
            sums[1] += skip_out.latency_us;
            sums[2] += comb_out.latency_us;
            sums[3] += engine.program(&chars, &vert).unwrap().latency_us;
            max_combined = max_combined.max(1.0 - comb_out.latency_us / default.latency_us);
        }
    }
    FollowerTprog {
        vfy_skip: 1.0 - sums[1] / sums[0],
        combined_avg: 1.0 - sums[2] / sums[0],
        combined_max: max_combined,
        vert: 1.0 - sums[3] / sums[0],
    }
}

/// Fig. 13: the mean post-program BER of each program order over the
/// same eight blocks, erased in between, so the comparison isolates the
/// ordering the way the paper's controlled experiment does.
pub fn fig13_orders() -> [(ProgramOrder, f64); 3] {
    let mut chip = paper_chip();
    ProgramOrder::ALL.map(|order| {
        let blocks = (0..8u32).map(|rep| BlockId(60 + rep * 7));
        let bers = program_blocks(&mut chip, blocks, order);
        (order, bers.iter().sum::<f64>() / bers.len() as f64)
    })
}

/// Fig. 14: both read schemes over 24 blocks spread across the chip at
/// 2K P/E + 1-year retention, with a 1% ambient disturbance rate.
pub fn fig14_num_retry() -> NumRetry {
    let mut chip = paper_chip();
    let n = chip.geometry().blocks_per_chip;
    let blocks: Vec<BlockId> = (0..24).map(|b| BlockId(b * 16 % n)).collect();
    program_blocks(&mut chip, blocks.clone(), ProgramOrder::HorizontalFirst);
    chip.set_aging(AgingState::EndOfLife);
    chip.env_mut().set_disturbance_prob(0.01);
    read_passes(&mut chip, &blocks)
}

/// The §6.2 retry-model anchors: the share of PS-unaware reads of
/// blocks 0–5 that retry, at each of [`AgingState::ALL`].
pub fn retry_fractions() -> [f64; 3] {
    let mut chip = paper_chip();
    let blocks: Vec<BlockId> = (0..6).map(BlockId).collect();
    program_blocks(&mut chip, blocks.clone(), ProgramOrder::HorizontalFirst);
    AgingState::ALL.map(|state| {
        chip.set_aging(state);
        let n = read_passes(&mut chip, &blocks);
        1.0 - n.unaware_hist[0] as f64 / n.reads as f64
    })
}

/// One workload at one aging state of Fig. 17: the IOPS of pageFTL,
/// vertFTL and cubeFTL.
#[derive(Debug, Clone, Copy)]
pub struct Fig17Row {
    /// The aging state of the row's three cells.
    pub aging: AgingState,
    /// Their workload.
    pub workload: StandardWorkload,
    /// pageFTL's, vertFTL's and cubeFTL's IOPS, in that order.
    pub iops: [f64; 3],
}

impl Fig17Row {
    /// cubeFTL's IOPS gain over pageFTL and over vertFTL, as fractions.
    pub fn gains(&self) -> [f64; 2] {
        let [page, vert, cube] = self.iops;
        [cube / page - 1.0, cube / vert - 1.0]
    }
}

/// Fig. 17's grid: every standard workload at every aging state,
/// aging-major.
pub fn fig17_grid(cfg: &EvalConfig) -> Vec<Fig17Row> {
    let row = |aging, workload| {
        let kinds = [FtlKind::Page, FtlKind::Vert, FtlKind::Cube];
        let iops = kinds.map(|kind| eval(kind, workload, aging, cfg).iops);
        Fig17Row {
            aging,
            workload,
            iops,
        }
    };
    let rows = AgingState::ALL.map(|a| StandardWorkload::ALL.map(|w| row(a, w)));
    rows.into_iter().flatten().collect()
}

/// The "up to" anchors: cubeFTL's largest gain over pageFTL and over
/// vertFTL anywhere in the grid (zero where it never gains).
pub fn fig17_max_gains(grid: &[Fig17Row]) -> [f64; 2] {
    let max = |over: usize| grid.iter().fold(0.0, |m: f64, r| m.max(r.gains()[over]));
    [max(0), max(1)]
}

/// Fig. 18's sweep: every FTL kind under Rocks at the fresh state.
pub fn fig18_sweep(cfg: &EvalConfig) -> Sweep<FtlKind> {
    Sweep::run(FtlKind::ALL.map(|kind| {
        let (rocks, fresh) = (StandardWorkload::Rocks, AgingState::Fresh);
        (kind, Scenario::new(kind, rocks, fresh, cfg))
    }))
}

/// The `p`th-percentile write (`write`) or read latency of `kind` in
/// Fig. 18's sweep, µs.
pub fn fig18_latency(sweep: &Sweep<FtlKind>, kind: FtlKind, write: bool, p: f64) -> f64 {
    let r = sweep.cell(&kind).sim();
    let lat = if write {
        &r.write_latency
    } else {
        &r.read_latency
    };
    lat.percentile(p)
}

/// The Fig. 18(a) ratio anchor: pageFTL's p90 write latency over
/// cubeFTL's.
pub fn fig18_p90_write_ratio(sweep: &Sweep<FtlKind>) -> f64 {
    let p90 = |kind| fig18_latency(sweep, kind, true, 90.0);
    p90(FtlKind::Page) / p90(FtlKind::Cube)
}

/// The WAM anchor of Fig. 18(a): how much shorter cubeFTL's p80 write
/// latency is than cubeFTL-'s, as a fraction.
pub fn fig18_p80_write_shortening(sweep: &Sweep<FtlKind>) -> f64 {
    let p80 = |kind| fig18_latency(sweep, kind, true, 80.0);
    1.0 - p80(FtlKind::Cube) / p80(FtlKind::CubeMinus)
}

/// The Fig. 18 ordering anchors: of the adjacent pairs of cubeFTL ≤
/// cubeFTL- ≤ vertFTL ≤ pageFTL at p80 and at p90 (six in all), how
/// many the write (`write`) or read latencies invert.
pub fn fig18_out_of_order(sweep: &Sweep<FtlKind>, write: bool) -> usize {
    let lat = |kind, p| fig18_latency(sweep, kind, write, p);
    // `FtlKind::ALL` runs from pageFTL down to cubeFTL.
    let pairs = FtlKind::ALL
        .windows(2)
        .flat_map(|w| [(w[0], w[1], 80.0), (w[0], w[1], 90.0)]);
    pairs
        .filter(|&(slower, faster, p)| lat(slower, p) < lat(faster, p))
        .count()
}
