//! The read operation and read-retry model.
//!
//! Retention and P/E cycling shift the Vth distributions, so reads at the
//! default read reference voltages (`V_Ref`) may contain more errors than
//! the ECC can correct (paper §2.3, Fig. 4). The controller then *retries*
//! with adjusted offsets `ΔV_Ref` until the page decodes; `tREAD` grows
//! linearly with the number of retries.
//!
//! The model quantizes the Vth shift of an h-layer into an **optimal
//! offset index** in `0..=`[`MAX_OFFSET_INDEX`]. A read started at offset
//! `o` succeeds when `|o − optimal|` is small enough for the ECC and
//! otherwise costs one retry per search step. Thanks to the horizontal
//! similarity, the optimum is a property of the *h-layer* (plus
//! conditions), so a PS-aware FTL can cache it per h-layer (§4.2).

use crate::config::{NandTiming, RetryModel};
use crate::environment::Environment;
use crate::faults::ReadFaultKind;
use crate::geometry::WlAddr;
use crate::process::ProcessModel;

/// The largest read-offset index (§5.1: three bits encode
/// `2^3 − 1 = 7` adjustment levels per reference).
pub const MAX_OFFSET_INDEX: u8 = 7;

/// The part of the Vth shift every h-layer of a block shares,
/// `2.1 · t̂^0.3 · (0.25 + x̂)`: retention (`t̂ = months / 12`) dominates
/// the shift and wear (`x̂ = pe / 2000`) steepens it. It moves only when
/// the block's wear or retention age does, so the chip memoises it per
/// block.
pub(crate) fn shift_prefix(pe: u32, months: f64) -> f64 {
    #[cfg(test)]
    EVALS.with(|e| e.set((e.get().0 + 1, e.get().1)));
    let x = f64::from(pe) / 2000.0;
    let t = (months / 12.0).max(0.0);
    2.1 * t.powf(0.3) * (0.25 + x)
}

#[cfg(test)]
thread_local! {
    /// Evaluations of ([`shift_prefix`], [`RetryEngine::layer_offset`])
    /// on this thread.
    pub(crate) static EVALS: std::cell::Cell<(u64, u64)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Parameters of one page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadParams {
    /// Starting `ΔV_Ref` offset index. `0` is the device default;
    /// a PS-aware FTL passes its cached per-h-layer optimum (the ORT
    /// entry, §5.1).
    pub start_offset: u8,
    /// `true` when `start_offset` is a cross-block *cluster seed* rather
    /// than this block's own cached optimum. A seeded chain hedges: if
    /// walking from the seed turns out costlier than the plain
    /// default-start walk would have been, the chain abandons the seed
    /// (early termination) and pays the default cost instead — a seed
    /// can therefore never make a read slower than a cold start.
    pub seeded: bool,
}

impl ReadParams {
    /// A read starting from the cached offset `offset`.
    pub fn from_offset(offset: u8) -> Self {
        ReadParams {
            start_offset: offset,
            seeded: false,
        }
    }

    /// A read starting from a cluster-seeded offset (see
    /// [`ReadParams::seeded`]).
    pub fn seeded_from(offset: u8) -> Self {
        ReadParams {
            start_offset: offset,
            seeded: true,
        }
    }
}

/// Result of one page read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryOutcome {
    /// Number of read retries performed (`NumRetry`).
    pub retries: u32,
    /// Read latency in µs, `t_read + retries · t_retry`.
    pub latency_us: f64,
    /// The offset index that finally decoded; the FTL stores this in its
    /// ORT for subsequent reads of the h-layer.
    pub final_offset: u8,
    /// Whether the starting offset already decoded (no retry needed).
    pub first_try: bool,
    /// Whether a hopeless retry chain was cut short: a cluster-seeded
    /// walk abandoned in favour of the default schedule, or a full
    /// offset scan stopped at the shortened budget (with
    /// [`RetryOptConfig::early_terminate`]).
    pub early_terminated: bool,
}

/// Park-et-al-style retry-chain optimizations (arXiv 2104.09611),
/// individually switchable. All off by default — the conservative
/// setting reproduces the unoptimized chain bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryOptConfig {
    /// Cold reads (default start, no seed) jump to an offset predicted
    /// from the block's P/E count and retention age after the first
    /// failed sensing, instead of stepping one offset at a time.
    pub predict: bool,
    /// Retry steps speculate two offsets ahead per sensing, halving long
    /// walks (rounded up — the final fine-tune step still lands exactly).
    pub speculate: bool,
    /// Uncorrectable-fault full scans stop at half the offset budget
    /// (soft-decision sensing recognizes a hopeless chain early).
    pub early_terminate: bool,
}

impl RetryOptConfig {
    /// Every optimization enabled (`--retry-opt on`).
    pub fn on() -> Self {
        RetryOptConfig {
            predict: true,
            speculate: true,
            early_terminate: true,
        }
    }
}

/// The read-retry engine for one chip: the calibrated
/// [`RetryModel::PAPER`] and [`NandTiming::PAPER`] plus the chip's
/// retry-chain optimization switches.
#[derive(Debug, Clone, Default)]
pub struct RetryEngine {
    opt: RetryOptConfig,
}

impl RetryEngine {
    /// Creates an engine with every retry-chain optimization off.
    pub fn new() -> Self {
        RetryEngine::default()
    }

    /// Sets the retry-chain optimization switches.
    pub fn set_opt(&mut self, opt: RetryOptConfig) {
        self.opt = opt;
    }

    /// The current retry-chain optimization switches.
    pub fn opt(&self) -> RetryOptConfig {
        self.opt
    }

    /// The ground-truth optimal offset index of `wl`'s h-layer under the
    /// current conditions.
    ///
    /// The shift grows with retention time and P/E wear, scaled by the
    /// layer's aging sensitivity — so different h-layers of one block
    /// have different optima (§4.2: "each h-layer in a block has
    /// different D"), while WLs of one h-layer share one.
    pub fn optimal_offset(&self, process: &ProcessModel, wl: WlAddr, env: &Environment) -> u8 {
        let block = wl.block.0 as usize;
        let prefix = shift_prefix(env.pe(block), env.effective_retention_months_of(block));
        self.layer_offset(prefix, process, wl)
    }

    /// [`RetryEngine::optimal_offset`] from the block's [`shift_prefix`]:
    /// the layer's aging sensitivity scales the shift and its layer
    /// factor spreads the optimum across h-layers.
    pub(crate) fn layer_offset(&self, prefix: f64, process: &ProcessModel, wl: WlAddr) -> u8 {
        #[cfg(test)]
        EVALS.with(|e| e.set((e.get().0, e.get().1 + 1)));
        let sens = process.aging_sensitivity(wl.block, wl.h.0);
        let factor = process.layer_factor(wl.block, wl.h.0);
        self.offset_index(prefix * sens * (0.6 + 0.4 * factor))
    }

    /// Quantizes a Vth shift into an offset index.
    fn offset_index(&self, shift: f64) -> u8 {
        let steps = shift / RetryModel::PAPER.shift_per_step;
        (steps.round() as i64).clamp(0, i64::from(MAX_OFFSET_INDEX)) as u8
    }

    /// Samples the ambient thermal jitter for one read: a ±1 step shift
    /// of the effective optimum that occurs with
    /// [`RetryModel::thermal_jitter_prob`](crate::config::RetryModel::thermal_jitter_prob)
    /// while data sits under retention. Returns 0 for fresh data
    /// (including blocks whose retention clock was reset by a scrub).
    pub fn sample_thermal_jitter(&self, env: &mut Environment, block: usize) -> i8 {
        if env.effective_retention_months_of(block) <= 0.0 {
            return 0;
        }
        let p = RetryModel::PAPER.thermal_jitter_prob;
        if env.sample_uniform() < p {
            if env.sample_uniform() < 0.5 {
                -1
            } else {
                1
            }
        } else {
            0
        }
    }

    /// Whether a read of `wl` at this aging state needs the retry path at
    /// all when started from the *device default* references.
    ///
    /// Matches the probabilistic model of §6.2: 0% of reads retry when
    /// fresh, 30% at 2K P/E + 1 month, 90% at 2K P/E + 1 year. The
    /// per-read draw comes from `env`'s deterministic RNG stream.
    pub fn needs_retry_at_default(
        &self,
        process: &ProcessModel,
        wl: WlAddr,
        env: &mut Environment,
    ) -> bool {
        let optimal = self.optimal_offset(process, wl, env);
        let p = self.retry_need_probability(env, wl.block.0 as usize);
        Self::draw_needs_retry(optimal, p, env)
    }

    /// The per-read draw behind [`RetryEngine::needs_retry_at_default`]:
    /// an h-layer whose optimum is the default never retries (and draws
    /// nothing); any other retries with probability `p`.
    pub(crate) fn draw_needs_retry(optimal: u8, p: f64, env: &mut Environment) -> bool {
        optimal != 0 && env.sample_uniform() < p
    }

    /// The probability that a read of a page in `block` needs retries
    /// under the environment's aging condition (linear interpolation of
    /// the §6.2 anchors over retention time at 2K P/E).
    pub fn retry_need_probability(&self, env: &Environment, block: usize) -> f64 {
        let months = env.effective_retention_months_of(block);
        let pe_frac = (f64::from(env.pe(block)) / 2000.0).min(1.0);
        let need = &RetryModel::PAPER.retry_need;
        let by_retention = if months <= 0.0 {
            0.0
        } else if months <= 1.0 {
            need[1] * months
        } else {
            need[1] + (need[2] - need[1]) * ((months - 1.0) / 11.0).min(1.0)
        };
        by_retention * pe_frac
    }

    /// The offset a PS-*unaware* predictor would jump to for a cold read
    /// of `block`: the central shift under the block's P/E count and
    /// retention age, with neutral layer sensitivity (Luo et al., arXiv
    /// 1807.05140: condition the prediction on wear and retention).
    /// Deterministic — no RNG draw, so enabling prediction never
    /// perturbs the simulation's random stream.
    pub fn predicted_offset(&self, env: &Environment, block: usize) -> u8 {
        let months = env.effective_retention_months_of(block);
        self.predicted_from(shift_prefix(env.pe(block), months))
    }

    /// [`RetryEngine::predicted_offset`] from the block's
    /// [`shift_prefix`]: the optimal-offset formula with sens = 1 and the
    /// central layer factor 0.5 — what is knowable without per-layer
    /// monitoring.
    pub(crate) fn predicted_from(&self, prefix: f64) -> u8 {
        self.offset_index(prefix * 0.8)
    }

    /// The retry-chain cost of reaching `optimal` from `params`:
    /// `(retries, early_terminated)`.
    ///
    /// * Plain chain: one retry per offset step, `|start − optimal|`.
    /// * Seeded chain: the walk from the seed races the embedded default
    ///   schedule; when the default walk (`optimal` steps from offset 0)
    ///   is strictly shorter, the seed is abandoned — early termination
    ///   of a hopeless chain — and the default cost is paid. A seed can
    ///   never lose to a cold start.
    /// * `predict`: a cold read (default start, unseeded) spends one
    ///   retry jumping to `predicted` (the block's
    ///   [`RetryEngine::predicted_offset`]), then walks from there —
    ///   taken only when it beats the plain walk.
    /// * `speculate`: chains longer than one step sense two offsets per
    ///   retry (rounded up).
    fn chain_cost(&self, params: ReadParams, optimal: u8, predicted: u8) -> (u32, bool) {
        let walk = u32::from(params.start_offset.abs_diff(optimal));
        // Cost of the predicted jump (one retry to move there, then the
        // residual walk), when prediction is on and has something to say.
        let jump = self
            .opt
            .predict
            .then_some(predicted)
            .filter(|&p| p > 0)
            .map(|p| 1 + u32::from(p.abs_diff(optimal)));
        let (mut cost, mut early_terminated) = if params.seeded {
            // The seed races every schedule the controller could have
            // used without it — the embedded default walk and, when
            // prediction is on, the predicted jump — so a seed can never
            // lose to a cold start, optimized or not.
            let mut fallback = u32::from(optimal);
            if let Some(j) = jump {
                fallback = fallback.min(j);
            }
            if fallback < walk {
                (fallback, true)
            } else {
                (walk, false)
            }
        } else {
            let mut c = walk;
            // Prediction applies to cold reads only: a warm non-default
            // start is already the block's own cached optimum.
            if params.start_offset == 0 {
                if let Some(j) = jump {
                    c = c.min(j);
                }
            }
            (c, false)
        };
        if self.opt.speculate && cost > 1 {
            cost = cost.div_ceil(2);
        }
        if cost == 0 {
            early_terminated = false;
        }
        (cost, early_terminated)
    }

    /// Executes one page read of `wl` starting from `params.start_offset`.
    ///
    /// `needs_retry` is the outcome of
    /// [`RetryEngine::needs_retry_at_default`] (sampled once per read by
    /// the chip); `disturbed` marks a sudden ambient change that moves the
    /// optimum by one step, modelling ORT mispredictions (§4.2);
    /// `thermal_jitter` is the per-read ±1 drift sampled by
    /// [`RetryEngine::sample_thermal_jitter`].
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        process: &ProcessModel,
        wl: WlAddr,
        env: &Environment,
        params: ReadParams,
        needs_retry: bool,
        disturbed: bool,
        thermal_jitter: i8,
    ) -> RetryOutcome {
        self.read_faulted(
            process,
            wl,
            env,
            params,
            needs_retry,
            disturbed,
            thermal_jitter,
            None,
        )
    }

    /// [`RetryEngine::read`] of an h-layer whose ground-truth optimum
    /// under the current conditions is `base`, in a block whose
    /// [`RetryEngine::predicted_offset`] is `predicted`.
    fn read_at(
        &self,
        base: u8,
        predicted: u8,
        params: ReadParams,
        needs_retry: bool,
        disturbed: bool,
        thermal_jitter: i8,
    ) -> RetryOutcome {
        let mut optimal = (i16::from(base) + i16::from(thermal_jitter))
            .clamp(0, i16::from(MAX_OFFSET_INDEX)) as u8;
        if disturbed {
            optimal = (optimal + 1).min(MAX_OFFSET_INDEX);
        }

        let t = &NandTiming::PAPER;
        if !needs_retry {
            // The page decodes at the starting references: either the
            // shift is benign at this aging state, or the cached offset
            // is already optimal. Starting *at* the optimum always
            // decodes first try.
            return RetryOutcome {
                retries: 0,
                latency_us: t.t_read_us,
                final_offset: if params.start_offset == optimal {
                    optimal
                } else {
                    params.start_offset
                },
                first_try: true,
                early_terminated: false,
            };
        }

        // The retry loop walks offsets away from the starting point until
        // it hits the optimum (Fig. 4: `V_Ref` is adjusted by one offset
        // per retry); seeding and the chain optimizations only shorten
        // that walk — the chain always ends decoding at the optimum.
        let (retries, early_terminated) = self.chain_cost(params, optimal, predicted);
        RetryOutcome {
            retries,
            latency_us: t.t_read_us + f64::from(retries) * t.t_retry_us,
            final_offset: optimal,
            first_try: retries == 0,
            early_terminated,
        }
    }

    /// Fault-injection hook around [`RetryEngine::read`]: applies an
    /// injected read fault to the retry search.
    ///
    /// * [`ReadFaultKind::StuckRetry`] — the cached `ΔV_Ref` has drifted
    ///   stale: the effective optimum moves (+2 steps) and the retry path
    ///   is forced, so the read pays at least one corrective retry and
    ///   reports the refreshed working offset for the FTL's ORT.
    /// * [`ReadFaultKind::Uncorrectable`] — the first attempt fails even
    ///   near the optimum; the controller falls back to a full offset
    ///   scan (one retry per offset level) before the page decodes. Data
    ///   is always recovered — the fault costs latency, never integrity.
    #[allow(clippy::too_many_arguments)]
    pub fn read_faulted(
        &self,
        process: &ProcessModel,
        wl: WlAddr,
        env: &Environment,
        params: ReadParams,
        needs_retry: bool,
        disturbed: bool,
        thermal_jitter: i8,
        fault: Option<ReadFaultKind>,
    ) -> RetryOutcome {
        let block = wl.block.0 as usize;
        let prefix = shift_prefix(env.pe(block), env.effective_retention_months_of(block));
        self.read_faulted_at(
            self.layer_offset(prefix, process, wl),
            self.predicted_from(prefix),
            params,
            needs_retry,
            disturbed,
            thermal_jitter,
            fault,
        )
    }

    /// [`RetryEngine::read_faulted`] from the h-layer's optimum `base`
    /// and the block's `predicted` offset — the chip memoises both, so
    /// its reads enter here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_faulted_at(
        &self,
        base: u8,
        predicted: u8,
        params: ReadParams,
        needs_retry: bool,
        disturbed: bool,
        thermal_jitter: i8,
        fault: Option<ReadFaultKind>,
    ) -> RetryOutcome {
        let t = &NandTiming::PAPER;
        let read = |needs_retry, jitter| {
            self.read_at(base, predicted, params, needs_retry, disturbed, jitter)
        };
        match fault {
            None => read(needs_retry, thermal_jitter),
            Some(ReadFaultKind::StuckRetry) => {
                let mut out = read(true, thermal_jitter.saturating_add(2));
                if out.retries == 0 {
                    // The drifted optimum collided with the cached offset;
                    // the stale entry still costs one corrective retry.
                    out.retries = 1;
                    out.latency_us += t.t_retry_us;
                    out.first_try = false;
                }
                out
            }
            Some(ReadFaultKind::Uncorrectable) => {
                let mut out = read(true, thermal_jitter);
                let full_scan = u32::from(MAX_OFFSET_INDEX) + 1;
                // With early termination on, soft-decision sensing stops
                // the hopeless scan at half the offset budget.
                let scan = if self.opt.early_terminate {
                    out.early_terminated = true;
                    full_scan / 2
                } else {
                    full_scan
                };
                out.retries = out.retries.max(scan);
                out.latency_us = t.t_read_us + f64::from(out.retries) * t.t_retry_us;
                out.first_try = false;
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::AgingState;
    use crate::geometry::{BlockId, Geometry};

    fn setup() -> (RetryEngine, ProcessModel, Environment) {
        let geometry = Geometry::paper();
        let process = ProcessModel::new(geometry, 7);
        let env = Environment::new(geometry.blocks_per_chip as usize, 3);
        (RetryEngine::new(), process, env)
    }

    #[test]
    fn fresh_chips_never_retry() {
        let (engine, process, mut env) = setup();
        env.set_aging(AgingState::Fresh);
        let g = *process.geometry();
        for b in 0..8u32 {
            for h in (0..48u16).step_by(7) {
                let wl = g.wl_addr(BlockId(b), h, 0);
                assert_eq!(engine.optimal_offset(&process, wl, &env), 0);
                assert!(!engine.needs_retry_at_default(&process, wl, &mut env));
            }
        }
    }

    #[test]
    fn optimal_offset_shared_within_hlayer() {
        // §4.2: the optimum is an h-layer property.
        let (engine, process, mut env) = setup();
        env.set_aging(AgingState::EndOfLife);
        let g = *process.geometry();
        for h in [0u16, 15, 33, 47] {
            let offsets: Vec<u8> = (0..4u16)
                .map(|v| engine.optimal_offset(&process, g.wl_addr(BlockId(9), h, v), &env))
                .collect();
            assert!(offsets.windows(2).all(|w| w[0] == w[1]), "{offsets:?}");
        }
    }

    #[test]
    fn optimal_offsets_differ_across_hlayers() {
        let (engine, process, mut env) = setup();
        env.set_aging(AgingState::EndOfLife);
        let g = *process.geometry();
        let offsets: Vec<u8> = (0..48u16)
            .map(|h| engine.optimal_offset(&process, g.wl_addr(BlockId(9), h, 0), &env))
            .collect();
        let distinct: std::collections::HashSet<u8> = offsets.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "all h-layers share one offset: {offsets:?}"
        );
    }

    #[test]
    fn offset_grows_with_aging() {
        let (engine, process, mut env) = setup();
        let wl = process.geometry().wl_addr(BlockId(4), 24, 0);
        env.set_aging(AgingState::Fresh);
        let fresh = engine.optimal_offset(&process, wl, &env);
        env.set_aging(AgingState::MidLife);
        let mid = engine.optimal_offset(&process, wl, &env);
        env.set_aging(AgingState::EndOfLife);
        let old = engine.optimal_offset(&process, wl, &env);
        assert!(fresh <= mid && mid <= old);
        assert!(old > fresh, "offsets must move over life");
    }

    #[test]
    fn retry_need_fractions_match_paper() {
        let (engine, _process, mut env) = setup();
        env.set_aging(AgingState::Fresh);
        assert_eq!(engine.retry_need_probability(&env, 0), 0.0);
        env.set_aging(AgingState::MidLife);
        assert!((engine.retry_need_probability(&env, 0) - 0.30).abs() < 1e-9);
        env.set_aging(AgingState::EndOfLife);
        assert!((engine.retry_need_probability(&env, 0) - 0.90).abs() < 1e-9);
    }

    #[test]
    fn unaware_read_pays_distance_aware_read_pays_zero() {
        let (engine, process, mut env) = setup();
        env.set_aging(AgingState::EndOfLife);
        let wl = process.geometry().wl_addr(BlockId(11), 40, 2);
        let optimal = engine.optimal_offset(&process, wl, &env);
        assert!(optimal > 0);

        let unaware = engine.read(&process, wl, &env, ReadParams::default(), true, false, 0);
        assert_eq!(unaware.retries, u32::from(optimal));
        assert!(!unaware.first_try);
        assert_eq!(unaware.final_offset, optimal);

        let aware = engine.read(
            &process,
            wl,
            &env,
            ReadParams::from_offset(optimal),
            true,
            false,
            0,
        );
        assert_eq!(aware.retries, 0);
        assert!(aware.first_try);
        assert!(aware.latency_us < unaware.latency_us);
    }

    #[test]
    fn disturbance_costs_one_retry_for_aware_reads() {
        let (engine, process, mut env) = setup();
        env.set_aging(AgingState::EndOfLife);
        let wl = process.geometry().wl_addr(BlockId(11), 20, 1);
        let optimal = engine.optimal_offset(&process, wl, &env);
        assert!(optimal < MAX_OFFSET_INDEX, "need headroom for the shift");
        let out = engine.read(
            &process,
            wl,
            &env,
            ReadParams::from_offset(optimal),
            true,
            true,
            0,
        );
        assert_eq!(out.retries, 1);
        assert_eq!(out.final_offset, optimal + 1);
    }

    #[test]
    fn latency_is_linear_in_retries() {
        let (engine, process, mut env) = setup();
        env.set_aging(AgingState::EndOfLife);
        let g = *process.geometry();
        let t = NandTiming::PAPER;
        for h in 0..48u16 {
            let wl = g.wl_addr(BlockId(2), h, 0);
            let out = engine.read(&process, wl, &env, ReadParams::default(), true, false, 0);
            let expected = t.t_read_us + f64::from(out.retries) * t.t_retry_us;
            assert!((out.latency_us - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn seeded_chain_never_loses_to_cold_start() {
        let (engine, process, mut env) = setup();
        env.set_aging(AgingState::EndOfLife);
        let g = *process.geometry();
        for h in 0..48u16 {
            let wl = g.wl_addr(BlockId(5), h, 0);
            for jitter in [-1i8, 0, 1] {
                let cold = engine.read(
                    &process,
                    wl,
                    &env,
                    ReadParams::default(),
                    true,
                    false,
                    jitter,
                );
                for seed in 0..=MAX_OFFSET_INDEX {
                    let seeded = engine.read(
                        &process,
                        wl,
                        &env,
                        ReadParams::seeded_from(seed),
                        true,
                        false,
                        jitter,
                    );
                    assert!(
                        seeded.retries <= cold.retries,
                        "seed {seed} at h {h} jitter {jitter}: {} > {}",
                        seeded.retries,
                        cold.retries
                    );
                    assert_eq!(seeded.final_offset, cold.final_offset);
                }
            }
        }
    }

    #[test]
    fn hopeless_seed_early_terminates_to_the_default_walk() {
        let (engine, process, mut env) = setup();
        env.set_aging(AgingState::MidLife);
        let g = *process.geometry();
        // Find an h-layer whose optimum is 1: a seed at MAX is hopeless
        // (walk 6+), the embedded default schedule wins in 1.
        let wl = (0..48u16)
            .map(|h| g.wl_addr(BlockId(3), h, 0))
            .find(|&wl| engine.optimal_offset(&process, wl, &env) == 1)
            .expect("some h-layer has optimum 1 at midlife");
        let out = engine.read(
            &process,
            wl,
            &env,
            ReadParams::seeded_from(MAX_OFFSET_INDEX),
            true,
            false,
            0,
        );
        assert_eq!(out.retries, 1, "pays the default walk, not the seed walk");
        assert!(
            out.early_terminated,
            "the hopeless seed chain was abandoned"
        );

        // A perfect seed decodes first-try and is not an early termination.
        let exact = engine.read(
            &process,
            wl,
            &env,
            ReadParams::seeded_from(1),
            true,
            false,
            0,
        );
        assert_eq!(exact.retries, 0);
        assert!(!exact.early_terminated);
    }

    #[test]
    fn prediction_shortcuts_cold_walks() {
        let (mut engine, process, mut env) = setup();
        env.set_aging(AgingState::EndOfLife);
        let g = *process.geometry();
        let wl = (0..48u16)
            .map(|h| g.wl_addr(BlockId(7), h, 0))
            .max_by_key(|&wl| engine.optimal_offset(&process, wl, &env))
            .unwrap();
        let optimal = engine.optimal_offset(&process, wl, &env);
        assert!(optimal >= 3, "need a long cold walk to shortcut");
        let plain = engine.read(&process, wl, &env, ReadParams::default(), true, false, 0);
        assert_eq!(plain.retries, u32::from(optimal));

        engine.set_opt(RetryOptConfig {
            predict: true,
            speculate: false,
            early_terminate: false,
        });
        let predicted = engine.read(&process, wl, &env, ReadParams::default(), true, false, 0);
        let p = engine.predicted_offset(&env, wl.block.0 as usize);
        assert!(p > 0, "aged block has a nonzero predicted shift");
        assert_eq!(
            predicted.retries,
            u32::from(optimal).min(1 + u32::from(p.abs_diff(optimal)))
        );
        assert!(predicted.retries < plain.retries);
        // Prediction never touches warm (nonzero-start) or seeded reads.
        let warm = engine.read(
            &process,
            wl,
            &env,
            ReadParams::from_offset(optimal),
            true,
            false,
            0,
        );
        assert_eq!(warm.retries, 0);
    }

    #[test]
    fn speculative_stepping_halves_long_chains() {
        let (mut engine, process, mut env) = setup();
        env.set_aging(AgingState::EndOfLife);
        let g = *process.geometry();
        let wl = (0..48u16)
            .map(|h| g.wl_addr(BlockId(7), h, 0))
            .max_by_key(|&wl| engine.optimal_offset(&process, wl, &env))
            .unwrap();
        let plain = engine.read(&process, wl, &env, ReadParams::default(), true, false, 0);
        assert!(plain.retries > 1);
        engine.set_opt(RetryOptConfig {
            predict: false,
            speculate: true,
            early_terminate: false,
        });
        let spec = engine.read(&process, wl, &env, ReadParams::default(), true, false, 0);
        assert_eq!(spec.retries, plain.retries.div_ceil(2));
        assert_eq!(spec.final_offset, plain.final_offset);
    }

    #[test]
    fn retry_opt_default_is_all_off() {
        let opt = RetryOptConfig::default();
        assert!(!opt.predict && !opt.speculate && !opt.early_terminate);
        let on = RetryOptConfig::on();
        assert!(on.predict && on.speculate && on.early_terminate);
    }
}
