//! The incremental step pulse programming (ISPP) engine.
//!
//! ISPP (paper §2.2, Fig. 3) ramps the program voltage from `V_Start` to
//! `V_Final` in `ΔV_ISPP` steps. After every program pulse (PGM), each
//! still-unfinished program state is verified (VFY); verified cells are
//! inhibited. The program latency is
//!
//! ```text
//! tPROG = Σ_{i=1}^{MaxLoop} (tPGM + k_i · tVFY)            (Eq. 1)
//! ```
//!
//! where `k_i` is the number of verify operations in loop `i`. In the
//! default (PS-unaware) schedule every state `Pi` is verified on every
//! loop from loop 1 until its slowest cells finish, so state `Pi` costs
//! `L_max^Pi` verifies (its cumulative completion loop).
//!
//! The PS-aware optimizations of §4.1 manipulate two knobs:
//!
//! * **VFY skipping** (§4.1.1): skip the first
//!   `N = Σ_{s<i} L_max^s + (L_min^Pi − 1)` verifies of state `Pi`
//!   (in cumulative loop numbers this is simply `L_min^Pi − 1`), which is
//!   safe because no cell can have finished before loop `L_min^Pi`.
//! * **Window shrinking** (§4.1.2): raise `V_Start` and/or lower
//!   `V_Final`. The ramp covers the window, so each removed `ΔV_ISPP`
//!   step removes one loop; the price is Vth-window compression, which
//!   consumes the spare BER margin `S_M`.
//!
//! [`IsppEngine::characterize`] derives the ground-truth per-state loop
//! intervals and safe margin of a WL; [`IsppEngine::program`] executes a
//! program with arbitrary [`ProgramParams`] and reports latency, the
//! observed intervals, and any BER penalty from unsafe parameters.
//!
//! The intervals (the WL's *ladder*) depend on two small integers only —
//! the net whole-loop shift of layer, wear and disturbance, and whether
//! the cells are aged enough to spread wider — so the engine tabulates
//! `build_ladder` over both once at construction and a characterization
//! indexes the table; the BER terms, which carry the WL's own RTN
//! factor, are computed per program.

use crate::config::{IsppModel, NandTiming, ReliabilityParams};
use crate::environment::Environment;
use crate::error::NandError;
use crate::geometry::WlAddr;
use crate::process::ProcessModel;
use crate::reliability::ReliabilityModel;

/// Number of programmed states of a TLC cell (P1..P7; the erased state E
/// is not programmed).
pub const NUM_PROGRAM_STATES: usize = 7;

/// Index of a program state: `0` = P1 … `6` = P7.
pub type StateIndex = usize;

/// The interval `[L_min, L_max]` of ISPP loops over which the cells of
/// one program state finish, in *cumulative* loop numbers (loop 1 is the
/// first pulse of the WL program).
///
/// `L_min` is the loop where the fastest cells of the state reach their
/// target; `L_max` the loop where the slowest do. Skipping more than
/// `L_min − 1` verifies over-programs the fast cells (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopInterval {
    /// First loop at which any cell of the state can finish.
    pub lmin: u8,
    /// Loop at which the slowest cells finish.
    pub lmax: u8,
}

impl LoopInterval {
    /// Number of verifies a follower still performs for this state after
    /// skipping the safe maximum (`L_max − L_min + 1`).
    #[inline]
    pub fn width(&self) -> u8 {
        self.lmax - self.lmin + 1
    }

    /// The largest number of verifies that can be skipped for this state
    /// without risking over-program errors (`L_min − 1`).
    #[inline]
    pub fn safe_skip(&self) -> u8 {
        self.lmin.saturating_sub(1)
    }
}

/// Parameters of one WL program operation, as set through the device's
/// Set-Features interface (§4.1.4, §5.1).
///
/// The default (`ProgramParams::default()`) is the conservative
/// PS-unaware configuration: no skipped verifies, full program window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramParams {
    /// Verifies to skip per program state, in cumulative loop numbers
    /// (i.e. the OPM passes `L_min^Pi − 1` measured on the leader WL).
    pub n_skip: [u8; NUM_PROGRAM_STATES],
    /// Increase of `V_Start` in mV (≥ 0).
    pub v_start_up_mv: f64,
    /// Decrease of `V_Final` in mV (≥ 0).
    pub v_final_down_mv: f64,
}

impl Default for ProgramParams {
    fn default() -> Self {
        ProgramParams {
            n_skip: [0; NUM_PROGRAM_STATES],
            v_start_up_mv: 0.0,
            v_final_down_mv: 0.0,
        }
    }
}

impl ProgramParams {
    /// Total window adjustment in mV.
    #[inline]
    pub fn total_adjust_mv(&self) -> f64 {
        self.v_start_up_mv + self.v_final_down_mv
    }

    /// Whether any optimization is applied at all.
    pub fn is_default(&self) -> bool {
        self.n_skip.iter().all(|&n| n == 0) && self.total_adjust_mv() == 0.0
    }
}

/// Ground truth about how a particular WL programs *right now*: its loop
/// intervals under the default window and the spare margin its h-layer
/// has under current operating conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WlCharacteristics {
    /// Per-state completion intervals under the default window.
    pub intervals: [LoopInterval; NUM_PROGRAM_STATES],
    /// The largest total `V_Start`+`V_Final` adjustment (mV) that does not
    /// degrade reliability for this WL under current conditions.
    pub safe_margin_mv: f64,
    /// `BER_EP1` this WL would exhibit if programmed now (§4.1.2).
    pub ber_ep1: f64,
    /// Raw post-program BER under default parameters (before any
    /// penalty).
    pub base_ber: f64,
}

/// Result of executing one WL program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsppOutcome {
    /// Number of program pulses executed (`MaxLoop` actually used).
    pub pulses: u32,
    /// Total number of verify steps executed.
    pub verifies: u32,
    /// Program latency in µs (Eq. (1)).
    pub latency_us: f64,
    /// The loop intervals observed by the device's monitor during this
    /// program, in cumulative loop numbers of the *applied* window.
    /// A PS-aware FTL records these from leader-WL programs.
    pub observed_intervals: [LoopInterval; NUM_PROGRAM_STATES],
    /// `BER_EP1` monitored after this program.
    pub ber_ep1: f64,
    /// Total skipped verifies beyond the safe limit (over-program
    /// exposure), across states.
    pub over_skip_excess: u32,
    /// Window shrink beyond the safe margin, in loops (under-margin
    /// exposure).
    pub margin_excess_loops: u32,
    /// Raw BER of the WL right after this program, including any penalty
    /// from unsafe parameters. The §4.1.4 safety check compares this
    /// against the previous WL of the same h-layer.
    pub post_ber: f64,
}

impl IsppOutcome {
    /// Fault-injection hook: a transient program-disturb burst multiplies
    /// the post-program raw BER (the §4.1.4 safety check observes the
    /// spike through the Get-Features report). Latency and monitored
    /// intervals are unchanged — the anomaly is invisible until checked.
    pub fn apply_ber_spike(&mut self, factor: f64) {
        assert!(factor >= 1.0, "a spike cannot lower the BER");
        self.post_ber *= factor;
    }
}

/// The ISPP program engine for one chip.
///
/// Stateless apart from the ladder table derived from the calibrated
/// [`IsppModel::PAPER`]; all per-WL state comes in through
/// [`WlCharacteristics`].
#[derive(Debug, Clone)]
pub struct IsppEngine {
    /// The loop ladder of every `(extra spread, net loop shift)` pair,
    /// the shift clamped to `±max_loop` (beyond that every state already
    /// sits on a rail): `2 · (2·max_loop + 1)` ladders of 14 bytes,
    /// indexed by [`IsppEngine::ladder`].
    ladders: Vec<Ladder>,
}

/// The seven `[L_min, L_max]` intervals of one WL program.
type Ladder = [LoopInterval; NUM_PROGRAM_STATES];

impl IsppEngine {
    /// Creates an engine, tabulating the calibrated ladders.
    pub fn new() -> Self {
        let ispp = &IsppModel::PAPER;
        debug_assert!(
            ispp.base_lmax.iter().all(|&b| b <= ispp.max_loop),
            "a base ladder above MaxLoop still moves past the table's ±max_loop"
        );
        let max = i32::from(ispp.max_loop);
        let ladders = [0u8, 1]
            .into_iter()
            .flat_map(|extra| (-max..=max).map(move |net| build_ladder(ispp, net, extra)))
            .collect();
        IsppEngine { ladders }
    }

    /// The ladder of a WL whose layer, wear and disturbance shift its
    /// completion loops by `net`, with the wider spread of aged cells
    /// when `extra_spread` is 1.
    fn ladder(&self, net: i32, extra_spread: u8) -> Ladder {
        let max = i32::from(IsppModel::PAPER.max_loop);
        let row = usize::from(extra_spread) * (2 * max + 1) as usize;
        self.ladders[row + (net.clamp(-max, max) + max) as usize]
    }

    /// The ISPP window parameters.
    pub fn ispp_model(&self) -> &IsppModel {
        &IsppModel::PAPER
    }

    /// Derives the ground-truth program characteristics of `wl` under the
    /// current environment. `disturbance_shift` models a sudden ambient
    /// change (§4.1.4): it shifts every loop interval and shrinks the
    /// safe margin, invalidating previously monitored parameters.
    pub fn characterize(
        &self,
        process: &ProcessModel,
        wl: WlAddr,
        env: &Environment,
        disturbance_shift: i8,
    ) -> WlCharacteristics {
        let block = wl.block.0 as usize;
        let months = env.effective_retention_months_of(block);
        let term = ReliabilityModel.retention_term(months);
        self.characterize_at(process, wl, env.pe(block), term, disturbance_shift)
    }

    /// [`IsppEngine::characterize`] of a WL in a block with `pe`
    /// effective P/E cycles and the given
    /// [`ReliabilityModel::retention_term`] — the chip memoises both per
    /// block, so its programs enter here.
    pub(crate) fn characterize_at(
        &self,
        process: &ProcessModel,
        wl: WlAddr,
        pe: u32,
        retention_term: f64,
        disturbance_shift: i8,
    ) -> WlCharacteristics {
        let ispp = &IsppModel::PAPER;

        // Program-speed shifts: degraded (wide-hole / rugged) layers need
        // more loops, while cycled cells program faster — both integer
        // loop shifts, so WLs of one h-layer quantize to *identical*
        // intervals (Fig. 5(d)).
        let factor = process.layer_factor(wl.block, wl.h.0);
        let layer_shift = ((factor - 1.0) * 1.3).round() as i32;
        let pe_shift = (f64::from(pe) / 2000.0).round() as i32;
        let net = layer_shift - pe_shift + i32::from(disturbance_shift);

        // Aged cells have wider program-speed variation.
        let extra_spread = u8::from(pe >= 1500);

        let intervals = self.ladder(net, extra_spread);

        let mut ber_ep1 = ReliabilityModel.ber_ep1(process, wl, pe);
        if disturbance_shift != 0 {
            // A sudden ambient change inflates the monitored error level.
            ber_ep1 *= 1.0 + 0.9 * f64::from(disturbance_shift.unsigned_abs());
        }
        let spare = self.spare_margin(ber_ep1, pe);
        let safe_margin_mv = margin_mv_for_spare(spare, ispp);

        let base_ber = ReliabilityModel.ber_at(process, wl, pe, retention_term);

        WlCharacteristics {
            intervals,
            safe_margin_mv,
            ber_ep1,
            base_ber,
        }
    }

    /// Normalized spare margin `S_M = BER_EP1^Max − BER_EP1` (§4.1.2), in
    /// the normalized units of Fig. 11.
    ///
    /// The measured `BER_EP1` is first discounted by the wear component
    /// the lifetime budget already provisions for (the default window is
    /// sized for end-of-life wear, so wear growth alone does not consume
    /// spare margin — this matches the paper's evaluation, where the
    /// follower speedups persist at 2K P/E, Fig. 17(b)/(c)).
    pub fn spare_margin(&self, ber_ep1: f64, pe: u32) -> f64 {
        let x = (f64::from(pe) / 2000.0).min(1.5);
        let provisioned_wear = 1.0 + 0.5 * ReliabilityParams::PAPER.pe_wear * x;
        let norm = self.normalized_ep1(ber_ep1) / provisioned_wear;
        (self.max_normalized_ep1() - norm).max(0.0)
    }

    /// `BER_EP1` normalized over the fresh best-layer reference value.
    pub fn normalized_ep1(&self, ber_ep1: f64) -> f64 {
        ber_ep1 / (0.30 * ReliabilityParams::PAPER.base_ber)
    }

    /// The maximum allowed normalized `BER_EP1` (`BER_EP1^Max`), decided
    /// "from a large-scale characterization study" (§4.1.2) — here, the
    /// worst process corner at end of life (Fig. 9(a): the default window
    /// is provisioned for the worst layer under the worst operating
    /// condition). Typical layers keep spare margin across their whole
    /// lifetime; only the worst layers at end of life fall back to the
    /// single guard step.
    pub fn max_normalized_ep1(&self) -> f64 {
        let p = &ReliabilityParams::PAPER;
        let worst_factor = (1.0 + p.bottom_edge_amp + 0.25) * 1.18;
        worst_factor * 1.84
    }

    /// Executes one WL program with `params` on a WL whose ground truth is
    /// `chars`.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::IllegalParameters`] if the adjustment exceeds
    /// the device limit or is negative.
    pub fn program(
        &self,
        chars: &WlCharacteristics,
        params: &ProgramParams,
    ) -> Result<IsppOutcome, NandError> {
        let ispp = &IsppModel::PAPER;
        if params.v_start_up_mv < 0.0 || params.v_final_down_mv < 0.0 {
            return Err(NandError::IllegalParameters(
                "negative window adjustment".to_owned(),
            ));
        }
        if params.total_adjust_mv() > ispp.max_adjust_mv {
            return Err(NandError::IllegalParameters(format!(
                "total adjustment {:.0} mV exceeds device limit {:.0} mV",
                params.total_adjust_mv(),
                ispp.max_adjust_mv
            )));
        }

        let r_start = (params.v_start_up_mv / ispp.delta_v_ispp_mv).floor() as u8;
        let r_final = (params.v_final_down_mv / ispp.delta_v_ispp_mv).floor() as u8;
        let removed = u32::from(r_start) + u32::from(r_final);

        // The shrunk window compresses every state's trajectory: raising
        // V_Start removes leading loops (shifts all intervals down);
        // lowering V_Final squeezes the top of the ramp, which the device
        // realizes by compressing the highest states.
        let mut observed = chars.intervals;
        for iv in &mut observed {
            iv.lmax = iv.lmax.saturating_sub(r_start).max(1);
            iv.lmin = iv.lmin.saturating_sub(r_start).max(1);
        }
        let window = chars.intervals[NUM_PROGRAM_STATES - 1]
            .lmax
            .saturating_sub(r_start)
            .saturating_sub(r_final)
            .max(1);
        // Compress completion loops into the reduced window from the top.
        for s in (0..NUM_PROGRAM_STATES).rev() {
            let cap = window
                .saturating_sub((NUM_PROGRAM_STATES - 1 - s) as u8)
                .max(1);
            if observed[s].lmax > cap {
                let d = observed[s].lmax - cap;
                observed[s].lmax = cap;
                observed[s].lmin = observed[s].lmin.saturating_sub(d).max(1);
            }
        }

        let pulses = u32::from(window);

        // Verify counts: default cost of state s is its (adjusted)
        // cumulative completion loop; the OPM's skip request removes the
        // leading verifies. Loops removed by V_Start no longer exist, so
        // they cannot also be skipped.
        let mut verifies = 0u32;
        let mut over_skip_excess = 0u32;
        for ((obs, truth), n_skip) in observed.iter().zip(chars.intervals).zip(params.n_skip) {
            let skip_requested = u32::from(n_skip);
            let effective_skip = skip_requested.saturating_sub(u32::from(r_start));
            let cost = u32::from(obs.lmax);
            verifies += cost.saturating_sub(effective_skip).max(1);
            // Ground truth: skipping at or beyond L_min means the fastest
            // cells pass unverified → over-programmed.
            let safe = u32::from(truth.safe_skip());
            over_skip_excess += skip_requested.saturating_sub(safe);
        }

        let t = &NandTiming::PAPER;
        let latency_us = f64::from(pulses) * t.t_pgm_us
            + f64::from(verifies) * t.t_vfy_us
            + if params.is_default() {
                0.0
            } else {
                t.t_set_features_us
            };

        // Reliability accounting: window compression squeezes the Vth
        // states together (see `vth`), so every removed loop costs a
        // small BER uptick even inside the safe margin — that is the
        // spare margin being *spent* (Figs. 9, 10). Shrinking beyond the
        // margin, or skipping past `L_min`, degrades reliability sharply
        // (Fig. 8(a)).
        let safe_loops = (chars.safe_margin_mv / ispp.delta_v_ispp_mv).floor() as u32;
        let margin_excess_loops = removed.saturating_sub(safe_loops);
        let base_ber = ReliabilityParams::PAPER.base_ber;
        let mut post_ber = chars.base_ber;
        let consumed = removed.min(safe_loops);
        if consumed > 0 {
            post_ber += base_ber * 0.25 * f64::from(consumed);
        }
        if over_skip_excess > 0 {
            post_ber += base_ber * 0.8 * (1.6f64.powi(over_skip_excess as i32) - 1.0);
        }
        if margin_excess_loops > 0 {
            post_ber += base_ber * 1.2 * (2.2f64.powi(margin_excess_loops as i32) - 1.0);
        }

        Ok(IsppOutcome {
            pulses,
            verifies,
            latency_us,
            observed_intervals: observed,
            ber_ep1: chars.ber_ep1,
            over_skip_excess,
            margin_excess_loops,
            post_ber,
        })
    }

    /// Convenience: the default (PS-unaware) program latency of a WL.
    pub fn default_tprog_us(&self, chars: &WlCharacteristics) -> f64 {
        self.program(chars, &ProgramParams::default())
            .expect("default parameters are always legal")
            .latency_us
    }
}

impl Default for IsppEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// The loop intervals of a WL whose completion loops are shifted by `net`
/// from the model's base ladder — the formula behind
/// [`IsppEngine::ladder`]'s table.
fn build_ladder(ispp: &IsppModel, net: i32, extra_spread: u8) -> Ladder {
    let mut intervals = [LoopInterval { lmin: 1, lmax: 1 }; NUM_PROGRAM_STATES];
    for ((iv, base), spread) in intervals
        .iter_mut()
        .zip(ispp.base_lmax)
        .zip(ispp.base_spread)
    {
        let lmax = clamp_loop(i32::from(base) + net, ispp.max_loop);
        let lmin = lmax.saturating_sub(spread + extra_spread).max(1);
        *iv = LoopInterval { lmin, lmax };
    }
    // Keep completion order monotonic after clamping.
    for s in 1..NUM_PROGRAM_STATES {
        if intervals[s].lmax <= intervals[s - 1].lmax {
            intervals[s].lmax = (intervals[s - 1].lmax + 1).min(ispp.max_loop);
            intervals[s].lmin = intervals[s]
                .lmax
                .saturating_sub(ispp.base_spread[s] + extra_spread)
                .max(1);
        }
    }
    intervals
}

fn clamp_loop(v: i32, max_loop: u8) -> u8 {
    v.clamp(1, i32::from(max_loop)) as u8
}

/// The offline conversion table of §4.1.2: maps a measured spare margin
/// `S_M` (normalized units, Fig. 11) to the total `V_Start`+`V_Final`
/// adjustment in mV, quantized to whole `ΔV_ISPP` steps.
///
/// The default window is provisioned with one guard step beyond the
/// worst-case corner (`BER_EP1^Max`), so even `S_M = 0` affords one step —
/// this is the headroom a conservative offline scheme like vertFTL \[13\]
/// spends statically on every WL (~8% tPROG, §6.2).
///
/// Anchor: `S_M = 1.7 → 320 mV` (Fig. 11(b)).
pub fn margin_mv_for_spare(s_m: f64, ispp: &IsppModel) -> f64 {
    const SM_PER_STEP: f64 = 0.9;
    let steps = 1.0 + (s_m.max(0.0) / SM_PER_STEP).floor();
    (steps * ispp.delta_v_ispp_mv).min(ispp.max_adjust_mv)
}

/// The predefined split table of §4.1.2: divides a total adjustment
/// margin between `V_Start` (raised) and `V_Final` (lowered).
///
/// Raising `V_Start` benefits every state, so it receives the first and
/// every odd step; `V_Final` receives the even steps.
pub fn split_margin_mv(total_mv: f64, ispp: &IsppModel) -> (f64, f64) {
    let steps = (total_mv / ispp.delta_v_ispp_mv).floor() as u32;
    let start_steps = steps.div_ceil(2);
    let final_steps = steps / 2;
    (
        f64::from(start_steps) * ispp.delta_v_ispp_mv,
        f64::from(final_steps) * ispp.delta_v_ispp_mv,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BlockId, Geometry};

    fn setup() -> (IsppEngine, ProcessModel, Environment) {
        let geometry = Geometry::paper();
        let process = ProcessModel::new(geometry, 99);
        let env = Environment::new(geometry.blocks_per_chip as usize, 1);
        (IsppEngine::new(), process, env)
    }

    fn wl(process: &ProcessModel, b: u32, h: u16, v: u16) -> WlAddr {
        process.geometry().wl_addr(BlockId(b), h, v)
    }

    /// The interval loop as `characterize_at` ran it on every program
    /// before the ladders were tabulated.
    fn ref_ladder(ispp: &IsppModel, net: i32, extra_spread: u8) -> Ladder {
        let mut intervals = [LoopInterval { lmin: 1, lmax: 1 }; NUM_PROGRAM_STATES];
        for ((iv, base), spread) in intervals
            .iter_mut()
            .zip(ispp.base_lmax)
            .zip(ispp.base_spread)
        {
            let lmax = clamp_loop(i32::from(base) + net, ispp.max_loop);
            let lmin = lmax.saturating_sub(spread + extra_spread).max(1);
            *iv = LoopInterval { lmin, lmax };
        }
        // Keep completion order monotonic after clamping.
        for s in 1..NUM_PROGRAM_STATES {
            if intervals[s].lmax <= intervals[s - 1].lmax {
                intervals[s].lmax = (intervals[s - 1].lmax + 1).min(ispp.max_loop);
                intervals[s].lmin = intervals[s]
                    .lmax
                    .saturating_sub(ispp.base_spread[s] + extra_spread)
                    .max(1);
            }
        }
        intervals
    }

    #[test]
    fn ladder_table_matches_the_formula() {
        let (engine, ..) = setup();
        let ispp = *engine.ispp_model();
        // Past ±max_loop the lookup clamps; the formula must not care.
        let reach = i32::from(ispp.max_loop) + 4;
        for extra_spread in [0, 1] {
            for net in -reach..=reach {
                assert_eq!(
                    engine.ladder(net, extra_spread),
                    ref_ladder(&ispp, net, extra_spread),
                    "net {net}, extra spread {extra_spread}"
                );
            }
        }
        assert_eq!(
            engine.ladders.len(),
            2 * (2 * usize::from(ispp.max_loop) + 1)
        );
    }

    #[test]
    fn default_program_latency_near_700us() {
        let (engine, process, env) = setup();
        // A mid-stack, non-degraded layer is the nominal case.
        let chars = engine.characterize(&process, wl(&process, 0, 12, 0), &env, 0);
        let t = engine.default_tprog_us(&chars);
        assert!((600.0..820.0).contains(&t), "tPROG {t} µs");
    }

    #[test]
    fn wls_of_same_hlayer_have_identical_characteristics() {
        // Fig. 5(d): identical tPROG within an h-layer.
        let (engine, process, env) = setup();
        for h in [0u16, 7, 24, 47] {
            let leader = engine.characterize(&process, wl(&process, 3, h, 0), &env, 0);
            for v in 1..4 {
                let follower = engine.characterize(&process, wl(&process, 3, h, v), &env, 0);
                assert_eq!(leader.intervals, follower.intervals);
                assert_eq!(
                    engine.default_tprog_us(&leader),
                    engine.default_tprog_us(&follower)
                );
            }
        }
    }

    #[test]
    fn different_hlayers_can_differ() {
        // Program-speed shifts quantize to whole loops, so not every pair
        // of layers differs — but a block must contain at least two
        // distinct interval sets (Fig. 5(d) shows per-layer tPROG
        // differences).
        let (engine, process, env) = setup();
        let distinct: std::collections::HashSet<_> = (0..48u16)
            .map(|h| {
                engine
                    .characterize(&process, wl(&process, 3, h, 0), &env, 0)
                    .intervals
            })
            .collect();
        assert!(
            distinct.len() >= 2,
            "all 48 h-layers share one interval set"
        );
    }

    #[test]
    fn safe_skip_preserves_ber_and_saves_about_16_percent() {
        // §4.1.1: skipped VFYs reduce average tPROG by 16.2% without
        // degrading reliability.
        let (engine, process, env) = setup();
        let mut total_default = 0.0;
        let mut total_skip = 0.0;
        let mut n = 0.0;
        for b in 0..24u32 {
            for h in (0..48u16).step_by(4) {
                let chars = engine.characterize(&process, wl(&process, b, h, 1), &env, 0);
                let default = engine.program(&chars, &ProgramParams::default()).unwrap();
                let mut params = ProgramParams::default();
                for s in 0..NUM_PROGRAM_STATES {
                    params.n_skip[s] = chars.intervals[s].safe_skip();
                }
                let skipped = engine.program(&chars, &params).unwrap();
                assert_eq!(skipped.over_skip_excess, 0);
                assert!((skipped.post_ber - default.post_ber).abs() < 1e-12);
                assert_eq!(
                    skipped.pulses, default.pulses,
                    "skip does not change pulses"
                );
                total_default += default.latency_us;
                total_skip += skipped.latency_us;
                n += 1.0;
            }
        }
        let reduction = 1.0 - total_skip / total_default;
        assert!(
            (0.12..0.21).contains(&reduction),
            "VFY-skip tPROG reduction {:.3}, expected ≈0.162",
            reduction
        );
        let _ = n;
    }

    #[test]
    fn excess_skip_raises_ber() {
        // Fig. 8(a): the more VFYs skipped beyond the safe point, the
        // higher the BER.
        let (engine, process, env) = setup();
        let chars = engine.characterize(&process, wl(&process, 0, 12, 1), &env, 0);
        let mut prev = 0.0;
        for extra in 0..4u8 {
            let mut params = ProgramParams::default();
            for s in 0..NUM_PROGRAM_STATES {
                params.n_skip[s] = chars.intervals[s].safe_skip() + extra;
            }
            let out = engine.program(&chars, &params).unwrap();
            if extra == 0 {
                assert_eq!(out.over_skip_excess, 0);
            } else {
                assert!(out.over_skip_excess > 0);
                assert!(out.post_ber > prev, "BER must grow with excess skips");
            }
            prev = out.post_ber;
        }
    }

    #[test]
    fn window_shrink_of_320mv_removes_two_loops_and_about_19_percent() {
        // Fig. 11(b): 320 mV total adjustment → tPROG −19.7%.
        let (engine, process, env) = setup();
        let chars = engine.characterize(&process, wl(&process, 0, 12, 1), &env, 0);
        let default = engine.program(&chars, &ProgramParams::default()).unwrap();
        let (up, down) = split_margin_mv(320.0, engine.ispp_model());
        let params = ProgramParams {
            v_start_up_mv: up,
            v_final_down_mv: down,
            ..ProgramParams::default()
        };
        let out = engine.program(&chars, &params).unwrap();
        assert_eq!(out.pulses, default.pulses - 2);
        let reduction = 1.0 - out.latency_us / default.latency_us;
        assert!(
            (0.15..0.24).contains(&reduction),
            "window-shrink reduction {:.3}, expected ≈0.197",
            reduction
        );
    }

    #[test]
    fn combined_follower_optimization_lands_near_30_percent() {
        // §6.2: cubeFTL achieves ≈30% average tPROG reduction; §6.1 caps
        // follower tPROG reduction at 35.9%.
        let (engine, process, env) = setup();
        let mut reductions = Vec::new();
        for b in 0..24u32 {
            for h in (0..48u16).step_by(3) {
                let chars = engine.characterize(&process, wl(&process, b, h, 1), &env, 0);
                let default = engine.program(&chars, &ProgramParams::default()).unwrap();
                let total = chars.safe_margin_mv.min(engine.ispp_model().max_adjust_mv);
                let (up, down) = split_margin_mv(total, engine.ispp_model());
                let mut params = ProgramParams {
                    v_start_up_mv: up,
                    v_final_down_mv: down,
                    ..ProgramParams::default()
                };
                for s in 0..NUM_PROGRAM_STATES {
                    params.n_skip[s] = chars.intervals[s].safe_skip();
                }
                let out = engine.program(&chars, &params).unwrap();
                assert_eq!(out.over_skip_excess, 0);
                assert_eq!(out.margin_excess_loops, 0, "requested only the safe margin");
                reductions.push(1.0 - out.latency_us / default.latency_us);
            }
        }
        let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
        let max = reductions.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (0.25..0.34).contains(&avg),
            "avg follower reduction {avg:.3}"
        );
        assert!(
            max <= 0.40,
            "max follower reduction {max:.3} (paper: 35.9%)"
        );
        assert!(
            max >= 0.28,
            "max follower reduction {max:.3} (paper: 35.9%)"
        );
    }

    #[test]
    fn margin_table_anchor() {
        let ispp = IsppModel::PAPER;
        // Fig. 11(b): S_M = 1.7 → 320 mV.
        assert_eq!(margin_mv_for_spare(1.7, &ispp), 320.0);
        // The guard step is available even with no measured spare margin.
        assert_eq!(margin_mv_for_spare(0.0, &ispp), 160.0);
        assert_eq!(margin_mv_for_spare(-1.0, &ispp), 160.0);
        assert_eq!(margin_mv_for_spare(100.0, &ispp), ispp.max_adjust_mv);
    }

    #[test]
    fn split_margin_is_exhaustive_and_quantized() {
        let ispp = IsppModel::PAPER;
        for steps in 0..6u32 {
            let total = f64::from(steps) * ispp.delta_v_ispp_mv;
            let (up, down) = split_margin_mv(total, &ispp);
            assert_eq!(up + down, total);
            assert!(up >= down, "V_Start gets the first step");
        }
    }

    #[test]
    fn disturbance_shifts_intervals_and_shrinks_margin() {
        let (engine, process, env) = setup();
        let calm = engine.characterize(&process, wl(&process, 5, 20, 2), &env, 0);
        let disturbed = engine.characterize(&process, wl(&process, 5, 20, 2), &env, 2);
        assert_ne!(calm.intervals, disturbed.intervals);
        assert!(disturbed.safe_margin_mv <= calm.safe_margin_mv);
        assert!(disturbed.ber_ep1 > calm.ber_ep1);
    }

    #[test]
    fn unsafe_window_shrink_raises_ber() {
        let (engine, process, env) = setup();
        let mut aged = env;
        aged.set_aging_raw(2000, 12.0);
        // Worst layer at end of life: margin should be small; requesting
        // the maximum must incur a penalty.
        let chars = engine.characterize(&process, wl(&process, 0, 47, 1), &aged, 0);
        let max = engine.ispp_model().max_adjust_mv;
        let (up, down) = split_margin_mv(max, engine.ispp_model());
        let params = ProgramParams {
            v_start_up_mv: up,
            v_final_down_mv: down,
            ..ProgramParams::default()
        };
        let out = engine.program(&chars, &params).unwrap();
        if chars.safe_margin_mv < max {
            assert!(out.margin_excess_loops > 0);
            assert!(out.post_ber > chars.base_ber);
        }
    }

    #[test]
    fn illegal_parameters_rejected() {
        let (engine, process, env) = setup();
        let chars = engine.characterize(&process, wl(&process, 0, 12, 1), &env, 0);
        let too_big = ProgramParams {
            v_start_up_mv: 400.0,
            v_final_down_mv: 400.0,
            ..ProgramParams::default()
        };
        assert!(matches!(
            engine.program(&chars, &too_big),
            Err(NandError::IllegalParameters(_))
        ));
        let negative = ProgramParams {
            v_start_up_mv: -1.0,
            ..ProgramParams::default()
        };
        assert!(engine.program(&chars, &negative).is_err());
    }

    #[test]
    fn vertftl_style_conservative_final_only_gives_about_8_percent() {
        // §6.2: vertFTL reduces tPROG by only ~8% on average.
        let (engine, process, env) = setup();
        let mut total_default = 0.0;
        let mut total_vert = 0.0;
        for b in 0..16u32 {
            for h in (0..48u16).step_by(4) {
                let chars = engine.characterize(&process, wl(&process, b, h, 1), &env, 0);
                let default = engine.program(&chars, &ProgramParams::default()).unwrap();
                let params = ProgramParams {
                    v_final_down_mv: engine.ispp_model().delta_v_ispp_mv,
                    ..ProgramParams::default()
                };
                let out = engine.program(&chars, &params).unwrap();
                total_default += default.latency_us;
                total_vert += out.latency_us;
            }
        }
        let reduction = 1.0 - total_vert / total_default;
        assert!(
            (0.05..0.11).contains(&reduction),
            "vertFTL-style reduction {reduction:.3}"
        );
    }

    #[test]
    fn loop_interval_helpers() {
        let iv = LoopInterval { lmin: 7, lmax: 9 };
        assert_eq!(iv.width(), 3);
        assert_eq!(iv.safe_skip(), 6);
        let first = LoopInterval { lmin: 1, lmax: 3 };
        assert_eq!(first.safe_skip(), 0);
    }
}
