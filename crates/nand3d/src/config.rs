//! Device configuration and the calibrated model constants.
//!
//! All behavioural constants of the reproduction live here, each annotated
//! with the paper anchor it was calibrated against. They are constants,
//! not settings: each model type carries one associated `PAPER` value
//! ([`NandTiming::PAPER`], [`IsppModel::PAPER`],
//! [`ReliabilityParams::PAPER`], [`RetryModel::PAPER`]) that every engine
//! reads directly, so no chip holds a copy. A chip's only setting is its
//! [`Geometry`]. The rest of the crate never hard-codes a number; tests in
//! this crate and in `crates/bench` check that the calibrated model
//! reproduces the paper's scalar anchors, and `tests/calibration.rs` pins
//! every value bit for bit.

use crate::geometry::Geometry;

/// Operation timing parameters (µs).
///
/// `t_pgm`/`t_vfy` are the per-micro-operation costs of Eq. (1); the
/// derived default WL program latency lands at the ≈700 µs the paper
/// quotes for average `tPROG` (§5.1), and the read path at ≈80 µs
/// `tREAD`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandTiming {
    /// Latency of one ISPP program pulse (PGM), µs.
    pub t_pgm_us: f64,
    /// Latency of one verify step (VFY), µs.
    pub t_vfy_us: f64,
    /// Base page read latency (sense + transfer), µs.
    pub t_read_us: f64,
    /// Additional latency per read retry (re-sense with shifted
    /// references + transfer), µs.
    pub t_retry_us: f64,
    /// Block erase latency, µs.
    pub t_erase_us: f64,
    /// Latency of a Set/Get-Features parameter access (§4.1.4: "<1 µs").
    pub t_set_features_us: f64,
}

impl NandTiming {
    /// The calibrated values.
    pub const PAPER: NandTiming = NandTiming {
        // Calibrated so the default TLC WL program (11 loops, 50
        // verifies — see `IsppModel`) costs ≈703 µs, matching the
        // ≈700 µs average tPROG of §5.1.
        t_pgm_us: 48.0,
        t_vfy_us: 3.5,
        // §5.1 quotes an average tREAD of ≈80 µs.
        t_read_us: 80.0,
        t_retry_us: 45.0,
        t_erase_us: 3500.0,
        t_set_features_us: 0.8,
    };
}

/// The ISPP program-window model (paper §2.2 and Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsppModel {
    /// Program voltage increment per loop, mV (`ΔV_ISPP`). 160 mV makes
    /// the 320-mV total adjustment of Fig. 11(b) remove exactly two ISPP
    /// loops.
    pub delta_v_ispp_mv: f64,
    /// Cumulative loop index at which the *slowest* cells of each program
    /// state P1..P7 finish under default `V_Start`/`V_Final`
    /// (`L_max` in cumulative loop numbers). Anchored to Fig. 8(b):
    /// P7 completes around loop 9–11.
    pub base_lmax: [u8; 7],
    /// Completion spread per state: `L_min = L_max - spread` (cumulative).
    /// Anchored to Fig. 8(b) (P7: `L_min`=7, `L_max`=9 → spread 2) and to
    /// the 16.2% average tPROG reduction of the VFY-skip technique
    /// (§4.1.1).
    pub base_spread: [u8; 7],
    /// Default total number of ISPP loops:
    /// `MaxLoop = (V_Final − V_Start) / ΔV_ISPP` (Eq. (1)). The default
    /// window is provisioned for the worst h-layer under worst-case aging,
    /// so `MaxLoop == base_lmax[6]`: the ramp always covers the full
    /// window, and shrinking the window is what removes loops (§4.1.2).
    pub max_loop: u8,
    /// Maximum total `V_Start`+`V_Final` adjustment the device accepts, mV.
    pub max_adjust_mv: f64,
}

impl IsppModel {
    /// The calibrated values.
    pub const PAPER: IsppModel = IsppModel {
        delta_v_ispp_mv: 160.0,
        base_lmax: [3, 4, 6, 7, 9, 10, 11],
        base_spread: [1, 1, 1, 1, 2, 2, 2],
        max_loop: 11,
        max_adjust_mv: 320.0,
    };
}

/// The reliability model: retention BER as a function of the WL's h-layer,
/// P/E cycles and retention time (paper §3, Figs. 5/6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityParams {
    /// Base raw BER of the best h-layer of a fresh block (fraction of
    /// bits).
    pub base_ber: f64,
    /// Strength of the top-edge channel-hole widening (h-layer α region,
    /// Fig. 6(a)).
    pub top_edge_amp: f64,
    /// Decay length (in layers) of the top-edge effect.
    pub top_edge_decay: f64,
    /// Strength of the bottom-edge effect (h-layer ω region).
    pub bottom_edge_amp: f64,
    /// Decay length of the bottom-edge effect.
    pub bottom_edge_decay: f64,
    /// Amplitude of the mid-stack rugged-hole bump (h-layer κ region,
    /// caused by etchant fluid dynamics).
    pub mid_bump_amp: f64,
    /// Center of the mid-stack bump as a fraction of stack depth.
    pub mid_bump_center: f64,
    /// Width of the mid-stack bump as a fraction of stack depth.
    pub mid_bump_width: f64,
    /// P/E-cycling wear coefficient (BER multiplier at end of life).
    pub pe_wear: f64,
    /// Retention-loss coefficient at end of life (BER multiplier after
    /// 12 months at 2K P/E).
    pub retention_amp: f64,
    /// Sub-linear exponent of retention time (early charge loss makes
    /// retention BER grow fast initially, §1).
    pub retention_exp: f64,
    /// Cross term: how much *faster* unreliable layers age than reliable
    /// ones (drives ΔV growth from 1.6 fresh to 2.3 at 2K+1yr, Fig. 6).
    pub aging_cross: f64,
    /// 1-σ of the per-(block, layer) lognormal factor; drives the ±18%
    /// per-block ΔV spread of Fig. 6(d).
    pub block_sigma: f64,
    /// 1-σ of the per-WL random telegraph noise; footnote 2 bounds the
    /// intra-layer difference at <3%, so this is ≈1%.
    pub rtn_sigma: f64,
    /// ECC correction capability as a raw BER threshold (errors above
    /// this fraction per codeword are uncorrectable).
    pub ecc_capability_ber: f64,
}

impl ReliabilityParams {
    /// The calibrated values.
    pub const PAPER: ReliabilityParams = ReliabilityParams {
        base_ber: 2.0e-4,
        top_edge_amp: 0.40,
        top_edge_decay: 2.2,
        bottom_edge_amp: 0.50,
        bottom_edge_decay: 3.0,
        mid_bump_amp: 0.25,
        mid_bump_center: 0.62,
        mid_bump_width: 0.10,
        pe_wear: 1.4,
        retention_amp: 2.6,
        retention_exp: 0.45,
        aging_cross: 0.90,
        block_sigma: 0.055,
        rtn_sigma: 0.010,
        ecc_capability_ber: 1.2e-2,
    };
}

/// The read-retry model (paper §2.3, §4.2 and Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryModel {
    /// Probability that a read at a given aging state fails at its
    /// starting references and enters the retry loop, for
    /// (fresh, 2K P/E + 1 month, 2K P/E + 1 year). §6.2: 0%, 30%, 90%.
    pub retry_need: [f64; 3],
    /// `V_th` shift per retention decade that one offset step compensates;
    /// controls how many retry steps the PS-unaware search needs.
    pub shift_per_step: f64,
    /// Probability per read that the environment (temperature excursion,
    /// extra retention) moved the optimum since it was last cached,
    /// causing a PS-aware misprediction (§4.2: "rarely mispredicted").
    pub misprediction_prob: f64,
    /// Probability per read that ambient temperature fluctuation shifts
    /// the effective optimum by ±1 step while data sits under retention.
    /// This is the residual retry cost even a PS-aware read pays, which
    /// keeps the average `NumRetry` reduction at the paper's 66% rather
    /// than 100% (Fig. 14).
    pub thermal_jitter_prob: f64,
}

impl RetryModel {
    /// The calibrated values.
    pub const PAPER: RetryModel = RetryModel {
        retry_need: [0.0, 0.30, 0.90],
        shift_per_step: 1.0,
        misprediction_prob: 0.02,
        thermal_jitter_prob: 0.5,
    };
}

/// Full configuration of one NAND chip: its geometry. The behavioural
/// model is the calibrated constants above, the same for every chip.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NandConfig {
    /// Chip dimensions.
    pub geometry: Geometry,
}

impl NandConfig {
    /// The paper's evaluation-platform chip (§6.1).
    pub fn paper() -> Self {
        NandConfig {
            geometry: Geometry::paper(),
        }
    }

    /// A small chip for tests and examples.
    pub fn small() -> Self {
        NandConfig {
            geometry: Geometry::small(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tprog_is_near_700us() {
        // Default program: `max_loop`... the *used* loops are
        // base_lmax[6] = 11 pulses, and the default verify schedule
        // performs sum(base_lmax) = 50 verifies (every state is verified
        // from loop 1 until its completion, §2.2).
        let (m, t) = (IsppModel::PAPER, NandTiming::PAPER);
        let pulses = f64::from(m.base_lmax[6]);
        let verifies: f64 = m.base_lmax.iter().map(|&l| f64::from(l)).sum();
        let tprog = pulses * t.t_pgm_us + verifies * t.t_vfy_us;
        assert!(
            (650.0..750.0).contains(&tprog),
            "default tPROG = {tprog} µs, expected ≈700 µs (§5.1)"
        );
    }

    #[test]
    fn lmax_is_monotonic_and_within_max_loop() {
        let m = IsppModel::PAPER;
        for w in m.base_lmax.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(m.base_lmax[6] <= m.max_loop);
        for (l, s) in m.base_lmax.iter().zip(m.base_spread.iter()) {
            assert!(s < l, "spread must leave L_min >= 1");
        }
    }

    #[test]
    fn adjustment_is_loop_quantized() {
        let m = IsppModel::PAPER;
        // Fig. 11(b): a 320-mV total margin must remove exactly 2 loops.
        let loops = (320.0 / m.delta_v_ispp_mv).floor() as u32;
        assert_eq!(loops, 2);
    }

    #[test]
    fn retry_need_matches_paper_fractions() {
        let r = RetryModel::PAPER;
        assert_eq!(r.retry_need, [0.0, 0.30, 0.90]);
    }

    #[test]
    fn config_implements_data_structure_traits() {
        fn assert_data<T: Clone + std::fmt::Debug + PartialEq>() {}
        assert_data::<NandConfig>();
        assert_eq!(NandConfig::paper(), NandConfig::paper());
        assert_ne!(NandConfig::paper(), NandConfig::small());
    }
}
