//! Lifetime aging: per-block virtual-age fast-forwards at the epoch
//! barriers of a campaign (DESIGN.md §15).

use crate::base::Ftl;
use crate::write::block_wls;
use lifetime::{block_pattern_stress, page_state_fraction, EpochSummary, LifetimeEngine};
use nand3d::{BlockId, PageState, WlData};

impl Ftl {
    /// Engages per-block lifetime aging on every chip (idempotent):
    /// each block's current age is captured into per-block vectors that
    /// become authoritative, replacing the fixed aged-state presets;
    /// [`Ftl::advance_lifetime_epoch`] then steps individual blocks and
    /// erases rejuvenate retention (never wear) per block.
    pub fn enable_lifetime_aging(&mut self) {
        for chip in self.array.iter_mut() {
            chip.env_mut().enable_lifetime_aging();
        }
    }

    /// Applies one epoch barrier of `engine`'s aging plan to every
    /// block of every chip: the P/E fast-forward is scaled by the
    /// block's h-layer similarity-model aging sensitivity, the engine's
    /// seeded per-block variation, and (when enabled) the STAR
    /// data-pattern stress of the pages it holds; the retention
    /// fast-forward is added to data-holding blocks only (free blocks
    /// hold nothing to lose charge from). The walk is chip-major then
    /// block-ordered and draws from no RNG, so campaigns are identical
    /// at any worker-thread count.
    pub fn advance_lifetime_epoch(&mut self, engine: &mut LifetimeEngine) -> EpochSummary {
        let k = engine.begin_step();
        let g = self.geometry();
        let blocks = g.blocks_per_chip as usize;
        let pattern_on = engine.config().pattern_wear;
        let mut summary = EpochSummary {
            step: k,
            retention_added_months: engine.plan().step_delta(k).retention_months,
            mean_pattern_stress: 1.0,
            ..EpochSummary::default()
        };
        let mut stress_sum = 0.0;
        let mut stress_n = 0u64;
        for chip in 0..self.config.chips {
            // Immutable pass: per-block sensitivity (mean of the
            // similarity model's h-layer aging sensitivities, 1.0 =
            // nominal) and resident-data pattern stress.
            let c = self.array.chip(chip).expect("valid chip");
            let mut info = Vec::with_capacity(blocks);
            for b in 0..blocks {
                let block = BlockId(b as u32);
                let sens_norm = (0..g.hlayers_per_block)
                    .map(|h| c.process().aging_sensitivity(block, h))
                    .sum::<f64>()
                    / f64::from(g.hlayers_per_block);
                let stress = if pattern_on {
                    let fractions = block_wls(&g, block)
                        .filter(|wl| c.wl_state(*wl) == PageState::Written)
                        .filter_map(|wl| c.wl_oob(wl))
                        .flat_map(|oob| oob.lpns)
                        .filter(|&lpn| lpn != WlData::PAD)
                        .map(page_state_fraction);
                    block_pattern_stress(fractions)
                } else {
                    1.0
                };
                info.push((sens_norm, stress));
            }
            let free = &self.free[chip];
            let env = self.array.chip_mut(chip).expect("valid chip").env_mut();
            env.enable_lifetime_aging();
            for (b, &(sens, stress)) in info.iter().enumerate() {
                let d = engine.block_delta(k, chip, b, sens, stress);
                let holds_data = !free.contains(BlockId(b as u32));
                let months = if holds_data { d.retention_months } else { 0.0 };
                env.advance_block_age(b, d.pe, months);
                summary.blocks_aged += 1;
                summary.pe_added += u64::from(d.pe);
                if holds_data {
                    stress_sum += stress;
                    stress_n += 1;
                }
            }
        }
        if stress_n > 0 {
            summary.mean_pattern_stress = stress_sum / stress_n as f64;
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, write_all};
    use crate::FtlConfig;
    use ssdsim::FtlDriver;

    #[test]
    fn lifetime_epochs_age_blocks_monotonically() {
        use lifetime::LifetimeConfig;
        let cfg = FtlConfig::small();
        let mut ftl = Ftl::page(cfg);
        write_all(&mut ftl, 0..300, cfg.chips, 0.5);
        ftl.enable_lifetime_aging();
        let read_retries = |ftl: &mut Ftl| {
            let mut r = 0u64;
            for lpn in 0..300 {
                r += u64::from(ftl.read_page(lpn, &ctx(0.0)).unwrap().retries);
            }
            r
        };
        let fresh = read_retries(&mut ftl);
        let mut engine = LifetimeEngine::new(LifetimeConfig::campaign());
        let mut last = fresh;
        for _ in 0..engine.config().steps() {
            let summary = ftl.advance_lifetime_epoch(&mut engine);
            assert!(summary.pe_added > 0, "every step must add wear");
            assert!(summary.blocks_aged > 0);
            let now = read_retries(&mut ftl);
            assert!(
                now >= last,
                "aging must never reduce retries: {now} < {last}"
            );
            last = now;
        }
        assert!(
            last > fresh,
            "end of life must retry more than fresh: {last} vs {fresh}"
        );
    }

    #[test]
    fn lifetime_epoch_application_is_deterministic() {
        use lifetime::LifetimeConfig;
        let run = || {
            let cfg = FtlConfig::small();
            let mut ftl = Ftl::cube(cfg);
            write_all(&mut ftl, 0..300, cfg.chips, 0.5);
            ftl.enable_lifetime_aging();
            let mut engine = LifetimeEngine::new(LifetimeConfig::campaign());
            let s1 = ftl.advance_lifetime_epoch(&mut engine);
            write_all(&mut ftl, (0..300).map(|i| i % 300), cfg.chips, 0.7);
            let s2 = ftl.advance_lifetime_epoch(&mut engine);
            (s1, s2, ftl.stats())
        };
        assert_eq!(run(), run(), "campaigns must be byte-reproducible");
    }
}
