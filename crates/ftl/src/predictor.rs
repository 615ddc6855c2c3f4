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
use nand3d::config::IsppModel;
use nand3d::{LoopInterval, NandTiming, ProgramParams, ProgramReport, WlAddr, NUM_PROGRAM_STATES};

/// A latency forecast with the information it was built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forecast {
    /// Predicted latency, µs.
    pub latency_us: f64,
    /// Whether the forecast is backed by leader monitoring (`false`
    /// means a default-parameter fallback estimate).
    pub monitored: bool,
}

/// Predicts per-operation NAND latencies from OPM state. Besides the
/// monitored values it reads only data-sheet constants: the calibrated
/// [`NandTiming::PAPER`] and the ISPP step of [`IsppModel::PAPER`].
#[derive(Debug, Clone, Copy)]
pub struct LatencyPredictor;

impl LatencyPredictor {
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
        Forecast {
            latency_us: Self::monitored_tprog_us(
                &params.leader_intervals,
                &params.to_program_params(),
            ),
            monitored: true,
        }
    }

    /// The tPROG of a follower programmed with `params` on an h-layer
    /// whose leader finished its states at `leader` — the equation
    /// behind [`follower_tprog`](Self::follower_tprog), fed the very
    /// parameters the write path programs the follower with.
    pub(crate) fn monitored_tprog_us(
        leader: &[LoopInterval; NUM_PROGRAM_STATES],
        params: &ProgramParams,
    ) -> f64 {
        let step_mv = IsppModel::PAPER.delta_v_ispp_mv;
        let r_start = (params.v_start_up_mv / step_mv).floor() as u8;
        let r_final = (params.v_final_down_mv / step_mv).floor() as u8;

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
        let t = &NandTiming::PAPER;
        f64::from(pulses) * t.t_pgm_us + f64::from(verifies) * t.t_vfy_us + t.t_set_features_us
    }

    /// The conservative estimate for unmonitored WLs (default-parameter
    /// program of a nominal WL).
    pub fn default_tprog_estimate(&self) -> f64 {
        // MaxLoop pulses, every state verified until its completion —
        // the data-sheet "typical" value.
        11.0 * NandTiming::PAPER.t_pgm_us + 50.0 * NandTiming::PAPER.t_vfy_us
    }

    /// Prediction error of a forecast against a measured report.
    pub fn error_fraction(forecast: &Forecast, report: &ProgramReport) -> f64 {
        (forecast.latency_us - report.latency_us).abs() / report.latency_us
    }
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
        (chip, opm, LatencyPredictor)
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
