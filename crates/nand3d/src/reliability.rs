//! The retention-BER model and the ΔV/ΔH variability metrics.
//!
//! The paper's reliability measure is `N_ret(w_ij, x, t)` — the number of
//! retention bit errors of WL `w_ij` after `t` months of retention when
//! the WL was pre-cycled `x` times (§3.1). [`ReliabilityModel`] computes
//! the corresponding raw BER. Calibration anchors:
//!
//! * ΔH (max/min within an h-layer) ≈ 1 for all aging conditions
//!   (Fig. 5),
//! * ΔV (max/min across h-layers of one block) ≈ 1.6 for a fresh block
//!   and ≈ 2.3 at 2K P/E + 1-year retention (Fig. 6(a)–(c)),
//! * per-block ΔV differences around 18% (Fig. 6(d)),
//! * less reliable layers age *faster*, producing the nonlinear dynamic
//!   behaviour of Fig. 6(c).

use crate::config::ReliabilityParams;
use crate::geometry::WlAddr;
use crate::process::ProcessModel;

/// Computes raw retention BER for WLs under given aging conditions.
///
/// The model composes the per-WL process factor with P/E wear and
/// retention loss:
///
/// ```text
/// ber(w, x, t) = base · f(w) · (1 + wear·x̂) · (1 + ret·s(w)·t̂^q·(0.35 + x̂))
/// ```
///
/// where `f(w)` is the process factor, `s(w)` the layer's aging
/// sensitivity, `x̂ = x/2000`, `t̂ = t/12 months`. The `s(w)` cross term is
/// what makes bad layers pull away from good ones as the chip ages,
/// growing ΔV from ≈1.6 to ≈2.3. The coefficients are the calibrated
/// [`ReliabilityParams::PAPER`].
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityModel;

impl ReliabilityModel {
    /// Raw retention BER of WL `wl` after `retention_months` months with
    /// `pe` program/erase cycles, under the process variation of
    /// `process`.
    pub fn ber(&self, process: &ProcessModel, wl: WlAddr, pe: u32, retention_months: f64) -> f64 {
        self.ber_at(process, wl, pe, self.retention_term(retention_months))
    }

    /// [`ReliabilityModel::ber`] from the block's
    /// [`ReliabilityModel::retention_term`].
    pub(crate) fn ber_at(&self, process: &ProcessModel, wl: WlAddr, pe: u32, term: f64) -> f64 {
        let f = process.wl_factor(wl);
        let s = process.aging_sensitivity(wl.block, wl.h.0);
        self.ber_from_terms(f, s, pe, term)
    }

    /// Same as [`ReliabilityModel::ber`] but starting from precomputed
    /// process factors (used by the ISPP engine which already has them).
    pub fn ber_from_factors(
        &self,
        process_factor: f64,
        aging_sensitivity: f64,
        pe: u32,
        retention_months: f64,
    ) -> f64 {
        let t_q = self.retention_term(retention_months);
        self.ber_from_terms(process_factor, aging_sensitivity, pe, t_q)
    }

    /// `t̂^q` of the BER formula. It depends on the block's retention age
    /// alone, so the chip memoises it per block.
    pub(crate) fn retention_term(&self, retention_months: f64) -> f64 {
        let t = (retention_months / 12.0).max(0.0);
        t.powf(ReliabilityParams::PAPER.retention_exp)
    }

    /// [`ReliabilityModel::ber_from_factors`] from the block's
    /// [`ReliabilityModel::retention_term`].
    fn ber_from_terms(
        &self,
        process_factor: f64,
        aging_sensitivity: f64,
        pe: u32,
        retention_term: f64,
    ) -> f64 {
        let p = &ReliabilityParams::PAPER;
        let x = f64::from(pe) / 2000.0;
        let wear = 1.0 + p.pe_wear * x;
        let retention = 1.0 + p.retention_amp * aging_sensitivity * retention_term * (0.35 + x);
        p.base_ber * process_factor * wear * retention
    }

    /// The BER between the erase state and the lowest program state
    /// (`BER_EP1`), monitored right after programming the leading WL
    /// (§4.1.2). It reflects the NAND health status (footnote 1) and so
    /// correlates with the retention BER the layer will exhibit
    /// (Fig. 11(a)); retention has not yet acted on freshly programmed
    /// data, so only the wear/process part contributes, plus the
    /// fraction of the future retention loss already visible as early
    /// charge loss.
    pub fn ber_ep1(&self, process: &ProcessModel, wl: WlAddr, pe: u32) -> f64 {
        let p = &ReliabilityParams::PAPER;
        let f = process.wl_factor(wl);
        let s = process.aging_sensitivity(wl.block, wl.h.0);
        let x = f64::from(pe) / 2000.0;
        // Early charge loss appears within seconds of programming (§1);
        // model it as a fixed small retention equivalent.
        let early = 0.02;
        let wear = 1.0 + p.pe_wear * x;
        let retention = 1.0 + p.retention_amp * s * early * (0.35 + x);
        0.30 * p.base_ber * f * wear * retention
    }

    /// The worst-case BER budget the default `V_Start`/`V_Final` window is
    /// provisioned for: the BER of a hypothetical worst h-layer at end of
    /// life with 1-year retention. Spare margin (`S_M`) computations
    /// measure against this (§4.1.2).
    pub fn worst_case_ber(&self) -> f64 {
        // Worst process factor the etching profile can produce
        // (edge layer, +3σ block), worst aging sensitivity.
        let p = &ReliabilityParams::PAPER;
        let worst_factor = (1.0 + p.bottom_edge_amp + 0.25) * 1.18;
        let worst_sens = 1.0 + p.aging_cross * (worst_factor - 1.0) + 0.45;
        self.ber_from_factors(worst_factor, worst_sens, 2000, 12.0)
    }
}

/// The intra-layer variability metric `ΔH` of §3.1: the ratio of the
/// maximum to the minimum BER among the WLs of one h-layer.
///
/// Values near 1 mean strong process similarity.
///
/// # Panics
///
/// Panics if `bers` is empty or contains a non-positive value.
pub fn delta_h(bers: &[f64]) -> f64 {
    ratio_max_min(bers)
}

/// The inter-layer variability metric `ΔV` of §3.1: the ratio of the
/// maximum to the minimum BER among the (leading) WLs across the h-layers
/// of one block.
///
/// # Panics
///
/// Panics if `bers` is empty or contains a non-positive value.
pub fn delta_v(bers: &[f64]) -> f64 {
    ratio_max_min(bers)
}

fn ratio_max_min(bers: &[f64]) -> f64 {
    assert!(!bers.is_empty(), "variability metric of empty slice");
    let mut max = f64::MIN;
    let mut min = f64::MAX;
    for &b in bers {
        assert!(b > 0.0, "variability metric requires positive BERs");
        max = max.max(b);
        min = min.min(b);
    }
    max / min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BlockId, Geometry};

    fn setup(seed: u64) -> (ProcessModel, ReliabilityModel) {
        (ProcessModel::new(Geometry::paper(), seed), ReliabilityModel)
    }

    fn block_layer_bers(
        process: &ProcessModel,
        model: &ReliabilityModel,
        block: BlockId,
        pe: u32,
        months: f64,
    ) -> Vec<f64> {
        let g = *process.geometry();
        (0..g.hlayers_per_block)
            .map(|h| model.ber(process, g.wl_addr(block, h, 0), pe, months))
            .collect()
    }

    /// Average ΔV over many blocks at an aging condition.
    fn avg_delta_v(process: &ProcessModel, model: &ReliabilityModel, pe: u32, months: f64) -> f64 {
        let blocks = 64;
        (0..blocks)
            .map(|b| delta_v(&block_layer_bers(process, model, BlockId(b), pe, months)))
            .sum::<f64>()
            / f64::from(blocks)
    }

    #[test]
    fn delta_h_is_one_for_all_aging_conditions() {
        // Fig. 5: virtually all ΔH values are 1 regardless of aging.
        let (p, m) = setup(3);
        let g = *p.geometry();
        for (pe, months) in [(0u32, 0.0f64), (1000, 6.0), (2000, 12.0)] {
            for b in [0u32, 57, 300] {
                for h in [0u16, 13, 30, 47] {
                    let bers: Vec<f64> = (0..g.wls_per_hlayer)
                        .map(|v| m.ber(&p, g.wl_addr(BlockId(b), h, v), pe, months))
                        .collect();
                    let dh = delta_h(&bers);
                    assert!(
                        dh < 1.08,
                        "ΔH = {dh} at block {b} layer {h} ({pe} P/E, {months} mo)"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_v_grows_from_1_6_to_2_3() {
        // Fig. 6: ΔV ≈ 1.6 fresh, ≈ 2.3 at 2K P/E + 1-year retention.
        let (p, m) = setup(3);
        let fresh = avg_delta_v(&p, &m, 0, 0.0);
        let aged = avg_delta_v(&p, &m, 2000, 12.0);
        assert!(
            (1.35..1.95).contains(&fresh),
            "fresh ΔV = {fresh}, expected ≈1.6"
        );
        assert!(
            (2.0..2.7).contains(&aged),
            "aged ΔV = {aged}, expected ≈2.3"
        );
        assert!(aged > fresh * 1.2, "ΔV must grow with aging");
    }

    #[test]
    fn per_block_delta_v_spread_exists() {
        // Fig. 6(d): ΔV of one block can exceed another's by ~18%.
        let (p, m) = setup(3);
        let dvs: Vec<f64> = (0..128u32)
            .map(|b| delta_v(&block_layer_bers(&p, &m, BlockId(b), 2000, 12.0)))
            .collect();
        let max = dvs.iter().cloned().fold(f64::MIN, f64::max);
        let min = dvs.iter().cloned().fold(f64::MAX, f64::min);
        let spread = max / min - 1.0;
        assert!(
            spread > 0.10,
            "per-block ΔV spread {spread:.3}, expected noticeable (paper: 18%)"
        );
    }

    #[test]
    fn ber_monotonic_in_pe_and_retention() {
        let (p, m) = setup(5);
        let wl = p.geometry().wl_addr(BlockId(10), 24, 1);
        let b00 = m.ber(&p, wl, 0, 0.0);
        let b10 = m.ber(&p, wl, 2000, 0.0);
        let b01 = m.ber(&p, wl, 0, 12.0);
        let b11 = m.ber(&p, wl, 2000, 12.0);
        assert!(b10 > b00);
        assert!(b01 > b00);
        assert!(b11 > b10);
        assert!(b11 > b01);
    }

    #[test]
    fn retention_has_early_fast_component() {
        // Early charge loss: the first month costs disproportionately
        // more than a later month (sub-linear exponent).
        let (p, m) = setup(5);
        let wl = p.geometry().wl_addr(BlockId(10), 24, 1);
        let b0 = m.ber(&p, wl, 2000, 0.0);
        let b1 = m.ber(&p, wl, 2000, 1.0);
        let b6 = m.ber(&p, wl, 2000, 6.0);
        let b12 = m.ber(&p, wl, 2000, 12.0);
        let first = b1 - b0;
        let later = (b12 - b6) / 6.0;
        assert!(
            first > later,
            "first month {first} vs later monthly {later}"
        );
    }

    #[test]
    fn ber_ep1_correlates_with_retention_ber() {
        // Fig. 11(a): BER_EP1 predicts the retention BER. Check rank
        // correlation over layers: layer order by BER_EP1 should broadly
        // match order by retention BER.
        let (p, m) = setup(7);
        let g = *p.geometry();
        let block = BlockId(42);
        let mut pairs: Vec<(f64, f64)> = (0..g.hlayers_per_block)
            .map(|h| {
                let wl = g.wl_addr(block, h, 0);
                (m.ber_ep1(&p, wl, 2000), m.ber(&p, wl, 2000, 12.0))
            })
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // count inversions in the second component
        let mut inversions = 0usize;
        let mut total = 0usize;
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                total += 1;
                if pairs[i].1 > pairs[j].1 {
                    inversions += 1;
                }
            }
        }
        let tau_disagreement = inversions as f64 / total as f64;
        assert!(
            tau_disagreement < 0.15,
            "BER_EP1 poorly ordered vs retention BER ({tau_disagreement})"
        );
    }

    #[test]
    fn worst_case_ber_dominates_population() {
        let (p, m) = setup(11);
        let g = *p.geometry();
        let worst = m.worst_case_ber();
        for b in 0..64u32 {
            for h in 0..g.hlayers_per_block {
                let ber = m.ber(&p, g.wl_addr(BlockId(b), h, 0), 2000, 12.0);
                assert!(ber < worst, "population BER {ber} above worst-case {worst}");
            }
        }
    }

    #[test]
    fn worst_case_leaves_margin_under_ecc() {
        // The default window satisfies reliability at the worst layer
        // under worst conditions (Fig. 9(a)) — i.e. worst-case BER must
        // still be correctable.
        let (_, m) = setup(11);
        assert!(m.worst_case_ber() < ReliabilityParams::PAPER.ecc_capability_ber);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn delta_metrics_reject_empty() {
        delta_h(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn delta_metrics_reject_nonpositive() {
        delta_v(&[1.0, 0.0]);
    }
}
