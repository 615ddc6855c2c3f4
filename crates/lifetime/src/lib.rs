//! Fast-forward device aging between workload phases.
//!
//! The paper evaluates its process-similarity mechanisms at three fixed
//! aged states (§6.2: fresh, 2K P/E + 1 month, 2K P/E + 1 year). This
//! crate models the *trajectory* between those snapshots: an epoch-based
//! campaign advances virtual device age between workload phases, so the
//! OPM/ORT, retry chains and background maintenance race real drift
//! instead of meeting a pre-baked state.
//!
//! Three effects compose, each deterministic and purely arithmetic:
//!
//! * **Early retention loss** (Luo et al., arXiv 1807.05140): retention
//!   age accrues sub-linearly in campaign steps — the first idle period
//!   after programming costs the most margin — via the
//!   [`AgingPlan`]'s concave cumulative-retention curve.
//! * **Process-variation wear rates** (ibid.): each block ages at its
//!   own rate. The per-block factor is derived from the h-layer
//!   similarity model's aging sensitivity (passed in by the FTL, which
//!   owns the chips) plus a seeded per-block jitter.
//! * **Data-pattern wear** (STAR, arXiv 2511.06249): the cell-state
//!   composition of the data actually resident in a block shifts its
//!   wear. Written-page fingerprints map to a high-charge-state
//!   fraction; blocks holding charge-heavy data age faster.
//!
//! The crate is dependency-free and owns no device state: the FTL walks
//! its chips at an epoch barrier, asks [`LifetimeEngine`] for each
//! block's age delta, and applies it to the NAND environment. Nothing
//! here draws from an RNG stream — every number is a pure function of
//! (seed, chip, block, step), so campaigns are byte-identical across
//! reruns and worker-thread counts.

/// Campaign shape: how many epochs, and how much age each inter-epoch
/// step fast-forwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeConfig {
    /// Workload epochs in the campaign. `E` epochs bracket `E − 1`
    /// aging steps; 0 or 1 disengages fast-forward aging entirely.
    pub epochs: u32,
    /// Nominal P/E cycles fast-forwarded per aging step (scaled
    /// per block by variation and pattern stress).
    pub pe_per_epoch: u32,
    /// Nominal retention months fast-forwarded per aging step (shaped
    /// by the early-retention-loss curve; the campaign total is
    /// `months_per_epoch × (epochs − 1)`).
    pub months_per_epoch: f64,
    /// Exponent `q ≤ 1` of the cumulative retention curve
    /// `C(k) ∝ (k/K)^q`: smaller ⇒ more of the total retention age
    /// lands in the early steps (Luo et al. report strongly concave
    /// early retention loss). 1.0 is linear accrual.
    pub early_retention_exp: f64,
    /// Strength of the per-block wear-rate spread in `[0, 1]`: 0 ages
    /// every block identically, 1 spreads rates by up to ±100% around
    /// the similarity-model sensitivity.
    pub variation_strength: f64,
    /// Whether resident-data cell-state composition modulates wear
    /// (the STAR effect), by [`PATTERN_WEAR_STRENGTH`].
    pub pattern_wear: bool,
    /// Seed of the per-block jitter (domain-separated internally).
    pub seed: u64,
}

impl LifetimeConfig {
    /// A disengaged campaign: one epoch, no aging steps. Running with
    /// this configuration reproduces a plain evaluation byte-for-byte.
    pub fn off() -> Self {
        LifetimeConfig {
            epochs: 1,
            pe_per_epoch: 0,
            months_per_epoch: 0.0,
            early_retention_exp: 1.0,
            variation_strength: 0.0,
            pattern_wear: false,
            seed: 0,
        }
    }

    /// The default fresh→worn-out campaign: five epochs stepping to the
    /// paper's end-of-life point (2K P/E, 12 months) with moderate
    /// variation and pattern wear.
    pub fn campaign() -> Self {
        LifetimeConfig {
            epochs: 5,
            pe_per_epoch: 500,
            months_per_epoch: 3.0,
            early_retention_exp: 0.6,
            variation_strength: 0.3,
            pattern_wear: true,
            seed: 0x11FE,
        }
    }

    /// Aging steps this campaign performs (one between each pair of
    /// consecutive epochs).
    pub fn steps(&self) -> u32 {
        self.epochs.saturating_sub(1)
    }

    /// Whether the campaign fast-forwards any age at all.
    pub fn engaged(&self) -> bool {
        self.steps() > 0 && (self.pe_per_epoch > 0 || self.months_per_epoch > 0.0)
    }

    /// Panics on out-of-range parameters (mirrors `FtlConfig::validate`).
    pub fn validate(&self) {
        assert!(
            self.months_per_epoch >= 0.0,
            "months_per_epoch must be non-negative"
        );
        assert!(
            self.early_retention_exp > 0.0 && self.early_retention_exp <= 1.0,
            "early_retention_exp must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.variation_strength),
            "variation_strength must be in [0, 1]"
        );
    }
}

/// Nominal (pre-variation) age advance of one campaign step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochDelta {
    /// P/E cycles to fast-forward.
    pub pe: u32,
    /// Retention months to fast-forward.
    pub retention_months: f64,
}

/// The campaign's step schedule: uniform P/E accrual, concave
/// (early-fast) retention accrual.
#[derive(Debug, Clone, Copy)]
pub struct AgingPlan {
    cfg: LifetimeConfig,
}

impl AgingPlan {
    /// A plan over `cfg` (validated).
    pub fn new(cfg: LifetimeConfig) -> Self {
        cfg.validate();
        AgingPlan { cfg }
    }

    /// Cumulative retention months after `k` of the plan's steps:
    /// `M_total · (k/K)^q`. Concave for `q < 1`, so early steps carry
    /// more of the total — Luo et al.'s early retention loss in
    /// fast-forward form.
    pub fn cumulative_retention_months(&self, k: u32) -> f64 {
        let steps = self.cfg.steps();
        if steps == 0 || k == 0 {
            return 0.0;
        }
        let total = self.cfg.months_per_epoch * f64::from(steps);
        let frac = f64::from(k.min(steps)) / f64::from(steps);
        total * frac.powf(self.cfg.early_retention_exp)
    }

    /// The nominal age advance of step `k` (1-based).
    pub fn step_delta(&self, k: u32) -> EpochDelta {
        assert!(k >= 1 && k <= self.cfg.steps(), "step out of plan range");
        EpochDelta {
            pe: self.cfg.pe_per_epoch,
            retention_months: self.cumulative_retention_months(k)
                - self.cumulative_retention_months(k - 1),
        }
    }
}

/// splitmix64 — a private copy of `ssdsim::detrand::mix64` over the
/// golden-gamma offset: this crate has no dependencies by design.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a 64-bit hash to a unit sample in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// High-charge cell-state fraction of one written page, from its
/// logical fingerprint. The STAR model keys wear on the cell-state
/// composition of the *data*; with no payload bytes in the simulator,
/// the deterministic page fingerprint stands in: the popcount of the
/// mixed LPN models the fraction of cells programmed to high-charge
/// states.
pub fn page_state_fraction(lpn: u64) -> f64 {
    let h = splitmix64(lpn ^ 0x57A8_C0DE_57A8_C0DE);
    f64::from((h & 0xffff_ffff_ffff).count_ones()) / 48.0
}

/// Strength of the pattern-wear modulation: block stress ranges over
/// `[1 − strength, 1 + strength]`.
pub const PATTERN_WEAR_STRENGTH: f64 = 0.2;

/// Pattern-wear stress of a block from its resident pages' state
/// fractions: charge-heavy data (> 0.5 mean high-charge fraction) wears
/// the block faster, charge-light data slower. Neutral (1.0) for an
/// empty block. Clamped to `[1 − PATTERN_WEAR_STRENGTH,
/// 1 + PATTERN_WEAR_STRENGTH]` by construction.
pub fn block_pattern_stress(fractions: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for f in fractions {
        sum += f;
        n += 1;
    }
    if n == 0 {
        return 1.0;
    }
    let mean = sum / f64::from(n);
    1.0 + PATTERN_WEAR_STRENGTH * (mean - 0.5) * 2.0
}

/// What the FTL reports back after applying one aging step: the inputs
/// to the per-epoch drift rows and the AGING trace events.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochSummary {
    /// 1-based campaign step just applied.
    pub step: u32,
    /// Blocks whose age advanced.
    pub blocks_aged: u64,
    /// Total P/E cycles added across those blocks.
    pub pe_added: u64,
    /// Nominal retention months added this step.
    pub retention_added_months: f64,
    /// Mean pattern-wear stress across data-holding blocks (1.0 when
    /// the effect is off).
    pub mean_pattern_stress: f64,
}

/// The campaign driver: owns the plan, the per-block variation factors
/// and the step counter. One engine serves one device (shard) — arrays
/// build one per shard from the shard's derived seed.
#[derive(Debug, Clone)]
pub struct LifetimeEngine {
    cfg: LifetimeConfig,
    plan: AgingPlan,
    /// Cached per-chip, per-block wear-rate factors (built on first
    /// touch per chip so the engine needs no geometry up front).
    factors: Vec<Vec<f64>>,
    steps_applied: u32,
}

impl LifetimeEngine {
    /// An engine over `cfg` (validated).
    pub fn new(cfg: LifetimeConfig) -> Self {
        LifetimeEngine {
            cfg,
            plan: AgingPlan::new(cfg),
            factors: Vec::new(),
            steps_applied: 0,
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &LifetimeConfig {
        &self.cfg
    }

    /// The step schedule.
    pub fn plan(&self) -> &AgingPlan {
        &self.plan
    }

    /// Steps applied so far.
    pub fn steps_applied(&self) -> u32 {
        self.steps_applied
    }

    /// Begins the next aging step, returning its 1-based index.
    ///
    /// # Panics
    ///
    /// Panics when the plan's steps are exhausted.
    pub fn begin_step(&mut self) -> u32 {
        assert!(
            self.steps_applied < self.cfg.steps(),
            "aging plan exhausted: {} steps configured",
            self.cfg.steps()
        );
        self.steps_applied += 1;
        self.steps_applied
    }

    /// The wear-rate factor of `(chip, block)`: the similarity-model
    /// sensitivity ratio (`sens_norm`, 1.0 = chip-nominal) modulated by
    /// a seeded per-block jitter of ±`variation_strength`. Cached on
    /// first call per block — the sensitivity is a process constant, so
    /// later calls ignore the argument.
    pub fn variation_factor(&mut self, chip: usize, block: usize, sens_norm: f64) -> f64 {
        if self.factors.len() <= chip {
            self.factors.resize(chip + 1, Vec::new());
        }
        let per_chip = &mut self.factors[chip];
        if per_chip.len() <= block {
            per_chip.resize(block + 1, 0.0);
        }
        if per_chip[block] == 0.0 {
            let h = splitmix64(self.cfg.seed ^ ((chip as u64) << 32) ^ block as u64);
            let jitter = 2.0 * unit(h) - 1.0;
            let f = sens_norm * (1.0 + self.cfg.variation_strength * jitter);
            per_chip[block] = f.clamp(0.25, 4.0);
        }
        per_chip[block]
    }

    /// The age advance of `(chip, block)` for step `k`: nominal step
    /// delta × variation factor × pattern stress on the P/E leg;
    /// retention advances by the nominal (global-clock) amount.
    pub fn block_delta(
        &mut self,
        k: u32,
        chip: usize,
        block: usize,
        sens_norm: f64,
        pattern_stress: f64,
    ) -> EpochDelta {
        let nominal = self.plan.step_delta(k);
        let f = self.variation_factor(chip, block, sens_norm);
        let stress = if self.cfg.pattern_wear {
            pattern_stress
        } else {
            1.0
        };
        EpochDelta {
            pe: (f64::from(nominal.pe) * f * stress).round() as u32,
            retention_months: nominal.retention_months,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_is_disengaged() {
        let cfg = LifetimeConfig::off();
        assert_eq!(cfg.steps(), 0);
        assert!(!cfg.engaged());
        let plan = AgingPlan::new(cfg);
        assert_eq!(plan.cumulative_retention_months(3), 0.0);
    }

    #[test]
    fn retention_accrual_is_early_heavy_and_sums_to_total() {
        let mut cfg = LifetimeConfig::campaign();
        cfg.epochs = 5;
        cfg.months_per_epoch = 3.0;
        cfg.early_retention_exp = 0.6;
        let plan = AgingPlan::new(cfg);
        let deltas: Vec<f64> = (1..=4)
            .map(|k| plan.step_delta(k).retention_months)
            .collect();
        // Concave cumulative curve ⇒ strictly decreasing increments.
        for w in deltas.windows(2) {
            assert!(w[0] > w[1], "early steps must carry more: {deltas:?}");
        }
        let total: f64 = deltas.iter().sum();
        assert!((total - 12.0).abs() < 1e-9, "campaign total: {total}");
        // Every step still advances age — monotone aging.
        assert!(deltas.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn linear_exponent_gives_uniform_steps() {
        let mut cfg = LifetimeConfig::campaign();
        cfg.early_retention_exp = 1.0;
        let plan = AgingPlan::new(cfg);
        for k in 1..=cfg.steps() {
            assert!((plan.step_delta(k).retention_months - cfg.months_per_epoch).abs() < 1e-9);
        }
    }

    #[test]
    fn variation_factor_is_deterministic_and_bounded() {
        let cfg = LifetimeConfig::campaign();
        let mut a = LifetimeEngine::new(cfg);
        let mut b = LifetimeEngine::new(cfg);
        for chip in 0..3 {
            for block in 0..32 {
                let f = a.variation_factor(chip, block, 1.0);
                assert_eq!(f, b.variation_factor(chip, block, 1.0));
                assert!((0.25..=4.0).contains(&f), "factor {f} out of bounds");
            }
        }
        // Different seeds draw different spreads.
        let mut c = LifetimeEngine::new(LifetimeConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        });
        let differs = (0..32)
            .any(|b| (a.variation_factor(0, b, 1.0) - c.variation_factor(0, b, 1.0)).abs() > 1e-12);
        assert!(differs, "seed must matter");
    }

    #[test]
    fn sensitivity_scales_the_factor() {
        let mut cfg = LifetimeConfig::campaign();
        cfg.variation_strength = 0.0;
        let mut eng = LifetimeEngine::new(cfg);
        assert_eq!(eng.variation_factor(0, 0, 1.0), 1.0);
        assert_eq!(eng.variation_factor(0, 1, 1.5), 1.5);
        assert_eq!(
            eng.variation_factor(0, 1, 9.9),
            1.5,
            "factor is cached on first touch"
        );
    }

    #[test]
    fn pattern_stress_is_neutral_at_center_and_bounded() {
        assert_eq!(block_pattern_stress([].into_iter()), 1.0);
        let s = block_pattern_stress([0.5, 0.5].into_iter());
        assert!((s - 1.0).abs() < 1e-12);
        let heavy = block_pattern_stress([1.0, 1.0].into_iter());
        let light = block_pattern_stress([0.0, 0.0].into_iter());
        assert!((heavy - 1.2).abs() < 1e-12);
        assert!((light - 0.8).abs() < 1e-12);
    }

    #[test]
    fn page_state_fraction_is_pure_and_in_range() {
        for lpn in [0u64, 1, 7, 1 << 40, u64::MAX] {
            let f = page_state_fraction(lpn);
            assert_eq!(f, page_state_fraction(lpn));
            assert!((0.0..=1.0).contains(&f));
        }
        // The fingerprint discriminates between pages.
        assert_ne!(page_state_fraction(1), page_state_fraction(2));
    }

    #[test]
    fn block_delta_composes_all_three_effects() {
        let mut cfg = LifetimeConfig::campaign();
        cfg.variation_strength = 0.0;
        cfg.pattern_wear = true;
        let mut eng = LifetimeEngine::new(cfg);
        let k = eng.begin_step();
        let base = eng.block_delta(k, 0, 0, 1.0, 1.0);
        assert_eq!(base.pe, cfg.pe_per_epoch);
        let stressed = eng.block_delta(k, 0, 1, 1.0, 1.2);
        assert!(stressed.pe > base.pe, "pattern stress must add wear");
        let slow = eng.block_delta(k, 0, 2, 0.5, 1.0);
        assert!(slow.pe < base.pe, "low sensitivity must slow wear");
        assert_eq!(base.retention_months, stressed.retention_months);
    }

    #[test]
    #[should_panic(expected = "aging plan exhausted")]
    fn step_counter_is_bounded_by_the_plan() {
        let mut eng = LifetimeEngine::new(LifetimeConfig::off());
        eng.begin_step();
    }

    #[test]
    #[should_panic(expected = "variation_strength")]
    fn config_validation_rejects_out_of_range() {
        AgingPlan::new(LifetimeConfig {
            variation_strength: 1.5,
            ..LifetimeConfig::campaign()
        });
    }
}
