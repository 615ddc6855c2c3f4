//! A physical threshold-voltage (Vth) distribution model.
//!
//! The behavioral engines ([`ispp`](crate::ispp), [`read`](crate::read))
//! are calibrated directly against the paper's reported statistics; this
//! module provides the *physical underpinning* those statistics come
//! from: eight Gaussian Vth states (E, P1..P7) whose means shift and
//! widths grow with retention and wear, separated by read reference
//! voltages (paper Fig. 4).
//!
//! It is used to
//!
//! * regenerate Fig. 4 (the optimal-read-reference illustration, see
//!   `bench fig04`),
//! * cross-validate the behavioral models: the overlap-derived BER grows
//!   with aging like [`ReliabilityModel`](crate::ReliabilityModel), the
//!   overlap-minimizing reference offsets drift like
//!   [`RetryEngine::optimal_offset`](crate::RetryEngine::optimal_offset),
//!   and compressing the program window (§4.1.2) measurably increases
//!   state overlap — the physical reason window shrinking consumes the
//!   spare margin `S_M`.

/// Number of Vth states of a TLC cell (E plus P1..P7).
pub const NUM_STATES: usize = 8;

/// One Gaussian Vth state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VthState {
    /// Mean threshold voltage, volts.
    pub mean_v: f64,
    /// Standard deviation, volts.
    pub sigma_v: f64,
}

impl VthState {
    /// Probability that a cell of this state lies *above* `v` (upper
    /// Gaussian tail).
    pub fn tail_above(&self, v: f64) -> f64 {
        0.5 * erfc((v - self.mean_v) / (self.sigma_v * std::f64::consts::SQRT_2))
    }

    /// Probability that a cell of this state lies *below* `v`.
    pub fn tail_below(&self, v: f64) -> f64 {
        1.0 - self.tail_above(v)
    }
}

/// A full TLC Vth landscape: eight states and seven read references.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VthLandscape {
    /// The eight states, E first.
    pub states: [VthState; NUM_STATES],
    /// Default read reference voltages `V_Ref(1..7)`; `V_Ref(i)`
    /// separates `P(i-1)` from `Pi`.
    pub default_refs: [f64; NUM_STATES - 1],
    /// Voltage step of one `ΔV_Ref` retry offset.
    pub ref_step_v: f64,
}

/// Operating conditions the landscape is evaluated under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VthConditions {
    /// Process factor of the WL's h-layer (≥ ~1, from
    /// [`ProcessModel`](crate::ProcessModel)).
    pub layer_factor: f64,
    /// P/E cycles.
    pub pe: u32,
    /// Retention months.
    pub retention_months: f64,
    /// Total `V_Start`/`V_Final` window compression applied at program
    /// time, mV (0 for the default window).
    pub window_shrink_mv: f64,
}

impl Default for VthConditions {
    fn default() -> Self {
        VthConditions {
            layer_factor: 1.0,
            pe: 0,
            retention_months: 0.0,
            window_shrink_mv: 0.0,
        }
    }
}

/// The Vth model: derives a [`VthLandscape`] for given conditions.
#[derive(Debug, Clone)]
pub struct VthModel {
    /// Erase-state mean, volts.
    erase_mean_v: f64,
    /// P1 mean under the default window, volts.
    p1_mean_v: f64,
    /// Spacing between adjacent programmed states, volts.
    state_gap_v: f64,
    /// Fresh per-state σ, volts.
    base_sigma_v: f64,
    /// Retention shift of the highest state after 12 months at 2K P/E,
    /// volts (higher states lose more charge).
    retention_shift_v: f64,
    /// σ growth at end of life (fraction).
    wear_sigma_growth: f64,
    ref_step_v: f64,
}

impl Default for VthModel {
    fn default() -> Self {
        VthModel {
            erase_mean_v: -2.0,
            p1_mean_v: 0.6,
            state_gap_v: 0.75,
            base_sigma_v: 0.100,
            retention_shift_v: 0.30,
            wear_sigma_growth: 0.30,
            ref_step_v: 0.06,
        }
    }
}

impl VthModel {
    /// Derives the Vth landscape under `cond`.
    pub fn landscape(&self, cond: &VthConditions) -> VthLandscape {
        let x = f64::from(cond.pe) / 2000.0;
        let t = (cond.retention_months / 12.0).max(0.0);
        let shrink_v = cond.window_shrink_mv / 1000.0;

        // Window compression squeezes the programmed states together
        // (V_Start up pushes P1 higher, V_Final down pulls P7 lower).
        let p1 = self.p1_mean_v + shrink_v * 0.5 / 7.0;
        let gap = self.state_gap_v - shrink_v / 7.0;

        // Retention: higher states lose more charge (their floating
        // charge is larger), sub-linear in time (early charge loss);
        // wear steepens the loss and widens every state.
        let loss = self.retention_shift_v * t.powf(0.45) * (0.35 + x) * cond.layer_factor.sqrt();
        let sigma = self.base_sigma_v
            * (1.0 + self.wear_sigma_growth * x)
            * (0.8 + 0.2 * cond.layer_factor);

        let mut states = [VthState {
            mean_v: 0.0,
            sigma_v: sigma,
        }; NUM_STATES];
        states[0].mean_v = self.erase_mean_v + 0.15 * loss; // E drifts up slightly
        states[0].sigma_v = sigma * 1.5; // the erase state is broad
        for (i, state) in states.iter_mut().enumerate().skip(1) {
            let nominal = p1 + gap * (i as f64 - 1.0);
            let state_loss = loss * (i as f64 / 7.0);
            state.mean_v = nominal - state_loss;
        }

        // Default references sit midway between the *fresh* state means.
        let mut default_refs = [0.0; NUM_STATES - 1];
        for (i, r) in default_refs.iter_mut().enumerate() {
            let lo = if i == 0 {
                self.erase_mean_v
            } else {
                self.p1_mean_v + self.state_gap_v * (i as f64 - 1.0)
            };
            let hi = self.p1_mean_v + self.state_gap_v * i as f64;
            *r = (lo + hi) / 2.0;
        }

        VthLandscape {
            states,
            default_refs,
            ref_step_v: self.ref_step_v,
        }
    }
}

impl VthLandscape {
    /// Raw BER when reading with the retry table at `offset` steps (the
    /// mechanism of Fig. 4): one offset index selects a *coordinated*
    /// shift of all seven references, scaled per level because higher
    /// states lose more charge (this is how vendor retry tables — and
    /// the paper's `D` sets of seven `ΔV_Ref`s — are organized). The
    /// result is the adjacent-state overlap averaged over the seven
    /// boundaries.
    pub fn ber_at_offset(&self, offset: u8) -> f64 {
        let mut errors = 0.0;
        for i in 0..NUM_STATES - 1 {
            let level_scale = (i + 1) as f64 / (NUM_STATES - 1) as f64;
            let shift = f64::from(offset) * self.ref_step_v * level_scale;
            let r = self.default_refs[i] - shift;
            // Cells of the lower state read as the upper one and vice
            // versa.
            errors += self.states[i].tail_above(r);
            errors += self.states[i + 1].tail_below(r);
        }
        errors / (NUM_STATES - 1) as f64 / 2.0
    }

    /// The offset index minimizing the overlap BER (the ground truth the
    /// retry search of §2.3 converges to).
    pub fn optimal_offset(&self, max_offset: u8) -> u8 {
        (0..=max_offset)
            .min_by(|a, b| {
                self.ber_at_offset(*a)
                    .partial_cmp(&self.ber_at_offset(*b))
                    .expect("finite BER")
            })
            .unwrap_or(0)
    }

    /// The `BER_EP1` analogue: overlap between the erase state and P1 at
    /// the first reference.
    pub fn ber_ep1(&self) -> f64 {
        let r = self.default_refs[0];
        (self.states[0].tail_above(r) + self.states[1].tail_below(r)) / 2.0
    }
}

/// Complementary error function (Abramowitz–Stegun 7.1.26 rational
/// approximation; max absolute error ≈ 1.5e-7, ample for BER work).
pub fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erfc_pos = poly * (-x * x).exp();
    if sign_negative {
        2.0 - erfc_pos
    } else {
        erfc_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn landscape(pe: u32, months: f64) -> VthLandscape {
        VthModel::default().landscape(&VthConditions {
            layer_factor: 1.1,
            pe,
            retention_months: months,
            window_shrink_mv: 0.0,
        })
    }

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-5);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-5);
        assert!(erfc(5.0) < 2e-12);
        assert!((erfc(-5.0) - 2.0).abs() < 2e-12);
    }

    #[test]
    fn states_are_ordered_and_separated_when_fresh() {
        let l = landscape(0, 0.0);
        for w in l.states.windows(2) {
            assert!(w[0].mean_v < w[1].mean_v, "states out of order");
            // At least 3σ of separation when fresh.
            assert!(w[1].mean_v - w[0].mean_v > 3.0 * w[0].sigma_v.min(w[1].sigma_v));
        }
    }

    #[test]
    fn fresh_ber_is_negligible_at_default_refs() {
        let l = landscape(0, 0.0);
        assert!(
            l.ber_at_offset(0) < 1e-3,
            "fresh BER {}",
            l.ber_at_offset(0)
        );
        assert_eq!(l.optimal_offset(7), 0, "fresh optimum is the default");
    }

    #[test]
    fn retention_shifts_the_optimum_like_the_retry_engine() {
        // The overlap-minimizing offset must drift up with retention,
        // the same qualitative behaviour the behavioral retry engine is
        // calibrated to.
        let fresh = landscape(2000, 0.0).optimal_offset(7);
        let month = landscape(2000, 1.0).optimal_offset(7);
        let year = landscape(2000, 12.0).optimal_offset(7);
        assert!(fresh <= month && month <= year);
        assert!(year >= 2, "1-year optimum {year} should be several steps");
    }

    #[test]
    fn reading_at_the_optimum_beats_the_default_when_aged() {
        let l = landscape(2000, 12.0);
        let opt = l.optimal_offset(7);
        assert!(opt > 0);
        assert!(
            l.ber_at_offset(opt) < 0.5 * l.ber_at_offset(0),
            "optimal {} vs default {}",
            l.ber_at_offset(opt),
            l.ber_at_offset(0)
        );
    }

    #[test]
    fn ber_grows_monotonically_with_aging() {
        let fresh = landscape(0, 0.0).ber_at_offset(0);
        let mid = landscape(2000, 1.0).ber_at_offset(0);
        let old = landscape(2000, 12.0).ber_at_offset(0);
        assert!(fresh < mid && mid < old);
    }

    #[test]
    fn window_compression_increases_overlap() {
        // The physical reason §4.1.2's adjustment consumes spare margin.
        let model = VthModel::default();
        let mut prev = 0.0;
        for shrink in [0.0, 160.0, 320.0, 480.0] {
            let l = model.landscape(&VthConditions {
                layer_factor: 1.0,
                pe: 2000,
                retention_months: 12.0,
                window_shrink_mv: shrink,
            });
            let ber = l.ber_at_offset(l.optimal_offset(7));
            assert!(ber >= prev, "shrink {shrink} reduced BER?");
            prev = ber;
        }
    }

    #[test]
    fn worse_layers_have_higher_overlap_ber() {
        let model = VthModel::default();
        let good = model.landscape(&VthConditions {
            layer_factor: 1.0,
            pe: 2000,
            retention_months: 12.0,
            window_shrink_mv: 0.0,
        });
        let bad = model.landscape(&VthConditions {
            layer_factor: 1.6,
            pe: 2000,
            retention_months: 12.0,
            window_shrink_mv: 0.0,
        });
        assert!(bad.ber_at_offset(0) > good.ber_at_offset(0));
    }

    #[test]
    fn ber_ep1_tracks_overall_health() {
        // Footnote 1: E↔P1 errors reflect the NAND health status.
        let fresh = landscape(0, 0.0).ber_ep1();
        let old = landscape(2000, 12.0).ber_ep1();
        assert!(old > fresh);
    }

    #[test]
    fn tails_are_complementary() {
        let s = VthState {
            mean_v: 1.0,
            sigma_v: 0.1,
        };
        for v in [0.5, 1.0, 1.5] {
            assert!((s.tail_above(v) + s.tail_below(v) - 1.0).abs() < 1e-12);
        }
        assert!((s.tail_above(1.0) - 0.5).abs() < 1e-9);
    }
}
