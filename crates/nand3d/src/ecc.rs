//! An LDPC-style ECC decode-latency model (extension).
//!
//! The paper's conclusion (§8) suggests the intra-layer similarity could
//! also "improve the quality and speed of an error-correction coding
//! algorithm … by exploiting various information collected from the
//! leader WL". This module models that idea:
//!
//! Modern controllers decode in escalating modes — a fast hard-decision
//! pass, then progressively stronger soft-decision passes with extra
//! sensing. Choosing the starting mode requires an estimate of the raw
//! BER. A PS-unaware controller starts from the optimistic default and
//! escalates on failure, paying the failed passes; a PS-aware controller
//! can predict the raw BER of a page from its h-layer's leader-WL
//! monitoring and *start in the right mode*.
//!
//! The model is deliberately simple (three modes with fixed costs and
//! BER ceilings) and is an optional add-on: the default simulator timing
//! does not include it, but the `ablate` binary and this module's tests
//! quantify the benefit.

/// A decoding mode: a latency cost and the raw BER it can correct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeMode {
    /// Human-readable name.
    pub name: &'static str,
    /// Decode latency, µs (including any extra soft-sensing reads).
    pub latency_us: f64,
    /// The largest raw BER this mode corrects.
    pub max_ber: f64,
}

/// The escalating-mode ECC decoder model.
#[derive(Debug, Clone)]
pub struct EccModel {
    modes: Vec<DecodeMode>,
}

impl EccModel {
    /// A typical three-mode LDPC configuration: hard decision, 1-bit
    /// soft, 2-bit soft. Ceilings bracket the calibrated reliability
    /// model: fresh pages decode hard, end-of-life pages need soft
    /// passes.
    pub fn ldpc() -> Self {
        EccModel {
            modes: vec![
                DecodeMode {
                    name: "hard",
                    latency_us: 6.0,
                    max_ber: 1.2e-3,
                },
                DecodeMode {
                    name: "soft-1",
                    latency_us: 28.0,
                    max_ber: 5.0e-3,
                },
                DecodeMode {
                    name: "soft-2",
                    latency_us: 75.0,
                    max_ber: 1.2e-2,
                },
            ],
        }
    }

    /// The configured modes, weakest first.
    pub fn modes(&self) -> &[DecodeMode] {
        &self.modes
    }

    /// The index of the weakest mode that corrects `raw_ber`, or `None`
    /// if the page is uncorrectable.
    pub fn required_mode(&self, raw_ber: f64) -> Option<usize> {
        self.modes.iter().position(|m| raw_ber <= m.max_ber)
    }

    /// Decode latency when escalating from the weakest mode (PS-unaware:
    /// no prior BER knowledge). Sums the cost of every failed pass plus
    /// the succeeding one.
    ///
    /// Returns `None` for uncorrectable pages.
    pub fn decode_escalating_us(&self, raw_ber: f64) -> Option<f64> {
        let need = self.required_mode(raw_ber)?;
        Some(self.modes[..=need].iter().map(|m| m.latency_us).sum())
    }

    /// Decode latency when starting from the mode predicted for
    /// `predicted_ber` (PS-aware: the leader WL of the h-layer told us
    /// what to expect). If the prediction undershoots, the remaining
    /// escalation is paid; overshooting pays the stronger mode's cost
    /// directly.
    ///
    /// Returns `None` for uncorrectable pages.
    pub fn decode_predicted_us(&self, raw_ber: f64, predicted_ber: f64) -> Option<f64> {
        let need = self.required_mode(raw_ber)?;
        let start = self
            .required_mode(predicted_ber)
            .unwrap_or(self.modes.len() - 1);
        if start >= need {
            // The predicted mode succeeds immediately (possibly stronger
            // than strictly necessary — its full cost is still paid).
            Some(self.modes[start].latency_us)
        } else {
            Some(self.modes[start..=need].iter().map(|m| m.latency_us).sum())
        }
    }
}

impl Default for EccModel {
    fn default() -> Self {
        EccModel::ldpc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_are_escalating() {
        let e = EccModel::ldpc();
        for w in e.modes().windows(2) {
            assert!(w[0].latency_us < w[1].latency_us);
            assert!(w[0].max_ber < w[1].max_ber);
        }
        // The strongest mode's ceiling is the retry model's ECC budget.
        let budget = crate::config::ReliabilityParams::PAPER.ecc_capability_ber;
        assert_eq!(e.modes().last().map(|m| m.max_ber), Some(budget));
    }

    #[test]
    fn clean_pages_decode_hard_either_way() {
        let e = EccModel::ldpc();
        let ber = 5e-4;
        assert_eq!(e.decode_escalating_us(ber), Some(6.0));
        assert_eq!(e.decode_predicted_us(ber, ber), Some(6.0));
    }

    #[test]
    fn accurate_prediction_skips_failed_passes() {
        let e = EccModel::ldpc();
        let ber = 8e-3; // needs soft-2
        let unaware = e.decode_escalating_us(ber).unwrap();
        let aware = e.decode_predicted_us(ber, 9e-3).unwrap();
        assert_eq!(unaware, 6.0 + 28.0 + 75.0);
        assert_eq!(aware, 75.0);
        assert!(aware < unaware * 0.75);
    }

    #[test]
    fn underprediction_still_escalates_correctly() {
        let e = EccModel::ldpc();
        let ber = 8e-3;
        // Predicted too optimistic: start at soft-1, pay soft-1 + soft-2.
        let t = e.decode_predicted_us(ber, 3e-3).unwrap();
        assert_eq!(t, 28.0 + 75.0);
    }

    #[test]
    fn overprediction_never_fails() {
        let e = EccModel::ldpc();
        // Predicted worse than reality: pays the strong mode directly
        // (slower than needed, but correct).
        let t = e.decode_predicted_us(5e-4, 8e-3).unwrap();
        assert_eq!(t, 75.0);
    }

    #[test]
    fn uncorrectable_pages_return_none() {
        let e = EccModel::ldpc();
        assert_eq!(e.decode_escalating_us(5e-2), None);
        assert_eq!(e.decode_predicted_us(5e-2, 1e-3), None);
    }
}
