//! The manufacturing-process variation model.
//!
//! 3D NAND channel holes are etched in one pass from the top h-layer down
//! to the substrate (paper §2.1). The high aspect ratio of the holes makes
//! their diameter and shape vary with depth, which is the *root cause* of
//! both process characteristics:
//!
//! * all WLs of one h-layer are etched by the same step at the same time →
//!   **intra-layer similarity** (only RTN-scale noise remains), and
//! * different h-layers see different hole geometry → **inter-layer
//!   variability**, strongest at the block edges (α/ω layers) plus a
//!   mid-stack rugged-hole region (κ layers) caused by etchant fluid
//!   dynamics.
//!
//! [`ProcessModel`] deterministically derives, from a seed, a
//! *layer factor* ≥ 1 for every (block, h-layer) pair: the multiplier the
//! reliability model applies to the base BER. Within an h-layer only a
//! tiny per-WL RTN term differs.

use crate::config::ReliabilityParams;
use crate::geometry::{BlockId, Geometry, WlAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-chip process variation.
///
/// Construction samples every (block, h-layer) factor up front so that
/// lookups during simulation are branch-free array reads.
#[derive(Debug, Clone)]
pub struct ProcessModel {
    geometry: Geometry,
    /// `layer_factor[block * hlayers + h]` — the deterministic reliability
    /// multiplier shared by all WLs of that h-layer.
    layer_factor: Vec<f64>,
    /// Per-block global multiplier (physical location on the wafer/die).
    block_factor: Vec<f64>,
    /// RTN noise per WL, a multiplicative factor ≈ 1 ± 1%.
    rtn: Vec<f64>,
    /// Aging-sensitivity cross coefficient per (block, h-layer): less
    /// reliable layers age faster (paper §3.3).
    aging_sensitivity: Vec<f64>,
}

impl ProcessModel {
    /// Samples a process model for one chip.
    ///
    /// The same `(geometry, seed)` pair always produces the same model,
    /// which keeps every experiment reproducible. The variation
    /// coefficients are the calibrated [`ReliabilityParams::PAPER`].
    pub fn new(geometry: Geometry, seed: u64) -> Self {
        let params = &ReliabilityParams::PAPER;
        let hlayers = usize::from(geometry.hlayers_per_block);
        let blocks = geometry.blocks_per_chip as usize;
        let wls = blocks * hlayers * usize::from(geometry.wls_per_hlayer);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer_factor = Vec::with_capacity(blocks * hlayers);
        let mut block_factor = Vec::with_capacity(blocks);
        let mut aging_sensitivity = Vec::with_capacity(blocks * hlayers);

        for _ in 0..blocks {
            // Lognormal-ish per-block multiplier: exp(N(0, σ)).
            let g: f64 = sample_gaussian(&mut rng);
            block_factor.push((params.block_sigma * g).exp());
            for h in 0..hlayers {
                let profile = etching_profile(h, hlayers, params);
                // Small per-(block, layer) jitter so the *pattern* of
                // inter-layer variability differs between blocks
                // (Fig. 6(d)): the same layer is not equally bad in every
                // block.
                let jitter = (params.block_sigma * sample_gaussian(&mut rng)).exp();
                let factor = profile * jitter;
                layer_factor.push(factor);
                // Worse layers age disproportionately faster; add noise so
                // the aging pattern is "not easily predictable" (§1, §3.3).
                let sens = 1.0
                    + params.aging_cross * (factor - 1.0)
                    + 0.15 * sample_gaussian(&mut rng).abs();
                aging_sensitivity.push(sens.max(0.2));
            }
        }

        let rtn = (0..wls)
            .map(|_| (params.rtn_sigma * sample_gaussian(&mut rng)).exp())
            .collect();

        ProcessModel {
            geometry,
            layer_factor,
            block_factor,
            rtn,
            aging_sensitivity,
        }
    }

    /// The geometry this model was sampled for.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    #[inline]
    fn layer_index(&self, block: BlockId, h: u16) -> usize {
        block.0 as usize * usize::from(self.geometry.hlayers_per_block) + usize::from(h)
    }

    /// The deterministic reliability multiplier of one h-layer of one
    /// block (≥ ~1; larger means less reliable). Identical for all WLs of
    /// the h-layer — this is the intra-layer similarity.
    #[inline]
    pub fn layer_factor(&self, block: BlockId, h: u16) -> f64 {
        self.layer_factor[self.layer_index(block, h)] * self.block_factor[block.0 as usize]
    }

    /// How much faster this h-layer degrades with P/E + retention than the
    /// nominal rate (≥ 0.2; 1.0 = nominal).
    #[inline]
    pub fn aging_sensitivity(&self, block: BlockId, h: u16) -> f64 {
        self.aging_sensitivity[self.layer_index(block, h)]
    }

    /// The full per-WL factor: layer factor times the WL's random
    /// telegraph noise. The RTN term is the *only* thing distinguishing
    /// WLs of the same h-layer (footnote 2 of the paper bounds it <3%).
    #[inline]
    pub fn wl_factor(&self, wl: WlAddr) -> f64 {
        self.layer_factor(wl.block, wl.h.0) * self.rtn[self.geometry.wl_flat(wl)]
    }

    /// The layer indices the paper uses as named exemplars, mapped onto
    /// this geometry: (α, β, κ, ω) = (top edge, most reliable, mid-stack
    /// rugged region, bottom edge).
    pub fn exemplar_layers(&self) -> [u16; 4] {
        let n = self.geometry.hlayers_per_block;
        let alpha = 0;
        let omega = n - 1;
        let kappa =
            ((f64::from(n) * ReliabilityParams::PAPER.mid_bump_center).round() as u16).min(n - 1);
        // β: the layer with the lowest average factor across blocks.
        let mut best = (f64::INFINITY, 0u16);
        for h in 0..n {
            let avg: f64 = (0..self.geometry.blocks_per_chip)
                .map(|b| self.layer_factor(BlockId(b), h))
                .sum::<f64>()
                / f64::from(self.geometry.blocks_per_chip);
            if avg < best.0 {
                best = (avg, h);
            }
        }
        [alpha, best.1, kappa, omega]
    }
}

/// The deterministic depth profile of the etching process: reliability
/// multiplier as a function of h-layer position.
///
/// Layer 0 is the topmost layer. Both edges are degraded (channel-hole
/// widening at the top, tapering and rugged shapes at the bottom,
/// Fig. 2(b)), with an additional mid-stack bump.
fn etching_profile(h: usize, hlayers: usize, p: &ReliabilityParams) -> f64 {
    let h = h as f64;
    let n = hlayers as f64;
    let top = p.top_edge_amp * (-h / p.top_edge_decay).exp();
    let bottom = p.bottom_edge_amp * (-(n - 1.0 - h) / p.bottom_edge_decay).exp();
    let x = h / (n - 1.0);
    let mid = p.mid_bump_amp * (-((x - p.mid_bump_center) / p.mid_bump_width).powi(2)).exp();
    1.0 + top + bottom + mid
}

/// Standard-normal sample via Box–Muller (avoids depending on
/// `rand_distr`).
fn sample_gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;

    fn model(seed: u64) -> ProcessModel {
        ProcessModel::new(Geometry::paper(), seed)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = model(7);
        let b = model(7);
        let wl = a.geometry().wl_addr(BlockId(3), 20, 2);
        assert_eq!(a.wl_factor(wl), b.wl_factor(wl));
        assert_eq!(
            a.layer_factor(BlockId(5), 40),
            b.layer_factor(BlockId(5), 40)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = model(7);
        let b = model(8);
        let wl = a.geometry().wl_addr(BlockId(3), 20, 2);
        assert_ne!(a.wl_factor(wl), b.wl_factor(wl));
    }

    #[test]
    fn intra_layer_similarity_is_rtn_scale() {
        // Paper footnote 2: intra-layer differences are <3% (RTN only).
        let m = model(11);
        let g = *m.geometry();
        for b in [0u32, 100, 400] {
            for h in [0u16, 10, 24, 47] {
                let factors: Vec<f64> = (0..g.wls_per_hlayer)
                    .map(|v| m.wl_factor(g.wl_addr(BlockId(b), h, v)))
                    .collect();
                let max = factors.iter().cloned().fold(f64::MIN, f64::max);
                let min = factors.iter().cloned().fold(f64::MAX, f64::min);
                assert!(
                    max / min < 1.08,
                    "intra-layer spread {} at block {b} layer {h}",
                    max / min
                );
            }
        }
    }

    #[test]
    fn edge_layers_are_less_reliable() {
        // Fig. 6(a): α (top) and ω (bottom) layers have high BER.
        let m = model(13);
        let g = *m.geometry();
        let avg = |h: u16| -> f64 {
            (0..g.blocks_per_chip)
                .map(|b| m.layer_factor(BlockId(b), h))
                .sum::<f64>()
                / f64::from(g.blocks_per_chip)
        };
        let mid = avg(12); // a "good" region away from edges and κ bump
        assert!(avg(0) > 1.25 * mid, "top edge {} vs mid {}", avg(0), mid);
        assert!(
            avg(47) > 1.25 * mid,
            "bottom edge {} vs mid {}",
            avg(47),
            mid
        );
    }

    #[test]
    fn exemplar_layers_are_distinct_and_ordered() {
        let m = model(17);
        let [alpha, beta, kappa, omega] = m.exemplar_layers();
        assert_eq!(alpha, 0);
        assert_eq!(omega, 47);
        assert!(beta != alpha && beta != omega && beta != kappa);
        // β must be the most reliable of the four exemplars on average.
        let g = *m.geometry();
        let avg = |h: u16| -> f64 {
            (0..g.blocks_per_chip)
                .map(|b| m.layer_factor(BlockId(b), h))
                .sum::<f64>()
                / f64::from(g.blocks_per_chip)
        };
        for other in [alpha, kappa, omega] {
            assert!(avg(beta) < avg(other));
        }
    }

    #[test]
    fn blocks_differ_in_variability_pattern() {
        // Fig. 6(d): per-block differences exist.
        let m = model(19);
        let a: Vec<f64> = (0..48).map(|h| m.layer_factor(BlockId(0), h)).collect();
        let b: Vec<f64> = (0..48).map(|h| m.layer_factor(BlockId(1), h)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn aging_sensitivity_correlates_with_factor() {
        let m = model(23);
        // On average across many layers, a higher factor should mean a
        // higher aging sensitivity (worse layers age faster, §3.3).
        let mut hi = Vec::new();
        let mut lo = Vec::new();
        for b in 0..50u32 {
            for h in 0..48u16 {
                let f = m.layer_factor(BlockId(b), h);
                let s = m.aging_sensitivity(BlockId(b), h);
                if f > 1.5 {
                    hi.push(s);
                } else if f < 1.1 {
                    lo.push(s);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&hi) > mean(&lo));
    }
}
