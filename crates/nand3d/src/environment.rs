//! Operating conditions: P/E cycling, retention time and environmental
//! disturbances.
//!
//! The paper evaluates three aging states (§6.2): fresh (0K P/E, no
//! retention), 2K P/E + 1-month retention, and 2K P/E + 1-year retention.
//! [`AgingState`] names them; [`Environment`] keeps one age per block
//! (P/E cycles and retention months), and models the *sudden
//! operating-condition changes* (e.g. temperature surges, §4.1.4) that
//! can invalidate monitored parameters and must be caught by the safety
//! check.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three evaluation aging states of §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgingState {
    /// 0K P/E cycles, no retention ("fresh").
    Fresh,
    /// 2K P/E cycles with 1-month retention.
    MidLife,
    /// 2K P/E cycles with 1-year retention (end of lifetime).
    EndOfLife,
}

impl AgingState {
    /// All three states in paper order (Fig. 17(a)–(c)).
    pub const ALL: [AgingState; 3] = [
        AgingState::Fresh,
        AgingState::MidLife,
        AgingState::EndOfLife,
    ];

    /// P/E cycles of this state.
    pub fn pe_cycles(self) -> u32 {
        match self {
            AgingState::Fresh => 0,
            AgingState::MidLife | AgingState::EndOfLife => 2000,
        }
    }

    /// Retention time in months.
    pub fn retention_months(self) -> f64 {
        match self {
            AgingState::Fresh => 0.0,
            AgingState::MidLife => 1.0,
            AgingState::EndOfLife => 12.0,
        }
    }

    /// Index into per-state lookup tables (e.g.
    /// [`RetryModel::retry_need`](crate::config::RetryModel::retry_need)).
    pub fn index(self) -> usize {
        match self {
            AgingState::Fresh => 0,
            AgingState::MidLife => 1,
            AgingState::EndOfLife => 2,
        }
    }

    /// Human-readable label used by the experiment harness.
    pub fn label(self) -> &'static str {
        match self {
            AgingState::Fresh => "0K P/E, no retention",
            AgingState::MidLife => "2K P/E, 1-month retention",
            AgingState::EndOfLife => "2K P/E, 1-year retention",
        }
    }
}

impl std::fmt::Display for AgingState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The plausible operating range of the ambient temperature, °C.
pub const AMBIENT_CELSIUS_RANGE: std::ops::RangeInclusive<f64> = -40.0..=125.0;

/// Reference ambient temperature of the paper's evaluation (§6.2: all
/// aging states are evaluated at 30 °C).
pub const REFERENCE_CELSIUS: f64 = 30.0;

/// Activation energy of charge loss used for Arrhenius scaling, eV
/// (typical for charge-trap retention; cf. HeatWatch \[40\]).
pub const ACTIVATION_ENERGY_EV: f64 = 1.1;

/// Boltzmann constant in eV/K.
const BOLTZMANN_EV_PER_K: f64 = 8.617e-5;

/// `exp(Ea/k · (1/T_ref − 1/T))` at ambient temperature `celsius`.
fn arrhenius_acceleration(celsius: f64) -> f64 {
    let t_ref = REFERENCE_CELSIUS + 273.15;
    let t = celsius + 273.15;
    (ACTIVATION_ENERGY_EV / BOLTZMANN_EV_PER_K * (1.0 / t_ref - 1.0 / t)).exp()
}

/// Mutable operating conditions of one chip.
///
/// Every block has one age: a P/E offset on top of its live erase count
/// and the retention months of its data. An aging preset
/// ([`Environment::set_aging`]) fills both for every block, mirroring how
/// the paper pre-cycles blocks and bakes chips to emulate retention; a
/// lifetime epoch adds to one block ([`Environment::advance_block_age`]);
/// and once erases rejuvenate, an erase or
/// [`Environment::mark_refreshed`] zeroes the block's retention.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Per-block program/erase cycle counts.
    pe_cycles: Vec<u32>,
    /// Per-block P/E cycles on top of the live counts: an aging preset's
    /// pre-cycling plus a lifetime campaign's fast-forwards.
    pe_offset: Vec<u32>,
    /// Per-block retention age of the data, months at the reference
    /// temperature.
    retention_months: Vec<f64>,
    /// Whether an erase (or a scrub mark) zeroes the block's retention:
    /// refreshed data is young however long the device sat. Set by
    /// retention tracking and by a lifetime campaign; off by default so
    /// characterization experiments keep the paper's uniform aging
    /// states.
    rejuvenate: bool,
    /// Per-block "erased since retention tracking began" marks, empty
    /// until [`Environment::track_block_retention`]. An aging preset
    /// clears them.
    refreshed: Vec<bool>,
    /// Bernoulli process modelling sudden ambient changes: probability
    /// that a given operation happens under disturbed conditions.
    disturbance_prob: f64,
    /// Ambient temperature, °C. Retention loss accelerates above the
    /// 30 °C reference following an Arrhenius law.
    ambient_celsius: f64,
    /// [`arrhenius_acceleration`] of `ambient_celsius`, refreshed by
    /// [`Environment::set_ambient_celsius`] only.
    retention_acceleration: f64,
    rng: StdRng,
}

impl Environment {
    /// A fresh environment for `blocks` blocks.
    pub fn new(blocks: usize, seed: u64) -> Self {
        Environment {
            pe_cycles: vec![0; blocks],
            pe_offset: vec![0; blocks],
            retention_months: vec![0.0; blocks],
            rejuvenate: false,
            refreshed: Vec::new(),
            disturbance_prob: 0.0,
            ambient_celsius: REFERENCE_CELSIUS,
            retention_acceleration: arrhenius_acceleration(REFERENCE_CELSIUS),
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Starts per-block retention tracking: from here on erasing a block
    /// resets its retention age to zero and marks it refreshed until the
    /// next aging preset. Background scrubbing relies on this — moving
    /// data to a freshly erased block is what buys the reliability back.
    pub fn track_block_retention(&mut self) {
        self.rejuvenate = true;
        if self.refreshed.is_empty() {
            self.refreshed = vec![false; self.pe_cycles.len()];
        }
    }

    /// Whether `block` was erased (and thus retention-refreshed) since
    /// tracking began.
    #[inline]
    pub fn block_is_refreshed(&self, block: usize) -> bool {
        self.refreshed.get(block) == Some(&true)
    }

    /// Refreshes `block` without an erase: zeroes its retention age
    /// while erases rejuvenate, and marks it refreshed while tracking.
    /// Used when tracking starts on a chip with empty blocks: blocks
    /// holding no data cannot carry the preset's retention age, so data
    /// written into them afterwards is young.
    pub fn mark_refreshed(&mut self, block: usize) {
        if self.rejuvenate {
            self.retention_months[block] = 0.0;
        }
        if let Some(mark) = self.refreshed.get_mut(block) {
            *mark = true;
        }
    }

    /// Pins every block to one of the paper's aging states.
    pub fn set_aging(&mut self, state: AgingState) {
        self.set_aging_raw(state.pe_cycles(), state.retention_months());
    }

    /// Pins every block to raw P/E cycles (on top of its live erases) and
    /// retention months (for sweeps).
    pub fn set_aging_raw(&mut self, pe: u32, retention_months: f64) {
        self.pe_offset.fill(pe);
        self.retention_months.fill(retention_months);
        self.refreshed.fill(false);
    }

    /// Engages lifetime aging: from here on erases rejuvenate retention
    /// (never wear) per block, while epoch barriers advance individual
    /// blocks with [`Environment::advance_block_age`].
    pub fn enable_lifetime_aging(&mut self) {
        self.rejuvenate = true;
    }

    /// Fast-forwards `block` by `pe_add` P/E cycles and `months_add`
    /// retention months (reference temperature).
    pub fn advance_block_age(&mut self, block: usize, pe_add: u32, months_add: f64) {
        assert!(months_add >= 0.0, "aging cannot run backwards");
        self.pe_offset[block] = self.pe_offset[block].saturating_add(pe_add);
        self.retention_months[block] += months_add;
    }

    /// Sets the probability that any one operation happens under suddenly
    /// changed ambient conditions (triggers §4.1.4 safety-check paths and
    /// §4.2 ORT mispredictions).
    pub fn set_disturbance_prob(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.disturbance_prob = p;
    }

    /// Effective P/E cycles of `block`: its offset plus its live erases.
    #[inline]
    pub fn pe(&self, block: usize) -> u32 {
        self.pe_offset[block].saturating_add(self.pe_cycles[block])
    }

    /// Retention time of `block`'s data in months at the reference
    /// temperature.
    #[inline]
    pub fn retention_months_of(&self, block: usize) -> f64 {
        self.retention_months[block]
    }

    /// Sets the ambient temperature in °C (default: the paper's 30 °C).
    ///
    /// # Panics
    ///
    /// Panics outside [`AMBIENT_CELSIUS_RANGE`].
    pub fn set_ambient_celsius(&mut self, celsius: f64) {
        assert!(
            AMBIENT_CELSIUS_RANGE.contains(&celsius),
            "temperature out of operating range"
        );
        self.ambient_celsius = celsius;
        self.retention_acceleration = arrhenius_acceleration(celsius);
    }

    /// The ambient temperature, °C.
    #[inline]
    pub fn ambient_celsius(&self) -> f64 {
        self.ambient_celsius
    }

    /// Arrhenius acceleration factor of retention loss relative to the
    /// 30 °C reference: `exp(Ea/k · (1/T_ref − 1/T))`. Equals 1 at 30 °C,
    /// ≈4–5× at 55 °C, well below 1 in cold storage.
    #[inline]
    pub fn retention_acceleration(&self) -> f64 {
        self.retention_acceleration
    }

    /// Temperature-adjusted retention of `block`'s data (see
    /// [`Environment::retention_months_of`]). The acceleration factor is
    /// cached; only a temperature change refreshes it.
    #[inline]
    pub fn effective_retention_months_of(&self, block: usize) -> f64 {
        self.retention_months_of(block) * self.retention_acceleration
    }

    /// Records one erase of `block`: one more P/E cycle, and the block
    /// refreshed as by [`Environment::mark_refreshed`] (new data is
    /// young once erases rejuvenate; accumulated wear always stays).
    #[inline]
    pub fn record_erase(&mut self, block: usize) {
        self.pe_cycles[block] = self.pe_cycles[block].saturating_add(1);
        self.mark_refreshed(block);
    }

    /// Live erase count of `block` (without its P/E offset).
    #[inline]
    pub fn erase_count(&self, block: usize) -> u32 {
        self.pe_cycles[block]
    }

    /// Samples whether the next operation happens under disturbed ambient
    /// conditions.
    #[inline]
    pub fn sample_disturbance(&mut self) -> bool {
        self.disturbance_prob > 0.0 && self.rng.gen::<f64>() < self.disturbance_prob
    }

    /// Uniform sample in `[0, 1)` from the environment's RNG (used by the
    /// chip for per-operation stochastic decisions so that everything
    /// stays on one deterministic stream).
    #[inline]
    pub fn sample_uniform(&mut self) -> f64 {
        self.rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aging_state_values_match_paper() {
        assert_eq!(AgingState::Fresh.pe_cycles(), 0);
        assert_eq!(AgingState::MidLife.pe_cycles(), 2000);
        assert_eq!(AgingState::EndOfLife.pe_cycles(), 2000);
        assert_eq!(AgingState::Fresh.retention_months(), 0.0);
        assert_eq!(AgingState::MidLife.retention_months(), 1.0);
        assert_eq!(AgingState::EndOfLife.retention_months(), 12.0);
    }

    #[test]
    fn presets_and_live_counts_compose() {
        let mut env = Environment::new(4, 1);
        assert_eq!(env.pe(0), 0);
        env.record_erase(0);
        env.record_erase(0);
        assert_eq!(env.erase_count(0), 2);
        assert_eq!(env.pe(0), 2, "live erases count toward effective P/E");
        env.set_aging(AgingState::EndOfLife);
        assert_eq!(env.pe(0), 2002);
        assert_eq!(env.retention_months_of(0), 12.0);
        env.set_aging_raw(0, 0.0);
        assert_eq!(env.retention_months_of(0), 0.0);
        assert_eq!(env.pe(0), 2);
    }

    #[test]
    fn block_retention_tracking_resets_age_on_erase() {
        let mut env = Environment::new(2, 1);
        env.set_aging(AgingState::EndOfLife);
        assert_eq!(env.retention_months_of(0), 12.0);

        // Without tracking, erases do not touch the retention clock.
        env.record_erase(0);
        assert_eq!(env.retention_months_of(0), 12.0);
        assert!(!env.block_is_refreshed(0));

        env.track_block_retention();
        env.record_erase(0);
        assert_eq!(env.retention_months_of(0), 0.0, "refreshed block is young");
        assert_eq!(env.effective_retention_months_of(0), 0.0);
        assert_eq!(env.retention_months_of(1), 12.0, "other block unaffected");
        assert!(env.block_is_refreshed(0));
        assert!(!env.block_is_refreshed(1));

        // A new preset re-bakes every block's age and clears the marks.
        env.set_aging(AgingState::EndOfLife);
        assert_eq!(env.retention_months_of(0), 12.0);
        assert!(!env.block_is_refreshed(0));
    }

    #[test]
    fn lifetime_aging_layers_on_per_block() {
        let mut env = Environment::new(3, 1);
        env.set_aging(AgingState::MidLife);
        env.record_erase(0);
        assert_eq!(
            env.retention_months_of(0),
            1.0,
            "erases do not rejuvenate yet"
        );

        env.enable_lifetime_aging();
        assert_eq!(env.retention_months_of(0), 1.0);
        assert_eq!(env.pe(0), 2001, "preset + live erase, no fast-forward yet");

        env.advance_block_age(0, 500, 3.0);
        env.advance_block_age(1, 250, 3.0);
        assert_eq!(env.pe(0), 2501);
        assert_eq!(env.pe(1), 2250);
        assert_eq!(env.pe(2), 2000, "untouched block keeps its age");
        assert_eq!(env.retention_months_of(0), 4.0);
        assert_eq!(env.retention_months_of(2), 1.0);

        // Erase rejuvenates retention but never wear, and marks nothing
        // refreshed without tracking.
        env.record_erase(0);
        assert_eq!(env.retention_months_of(0), 0.0);
        assert_eq!(env.pe(0), 2502, "erase adds wear on top of fast-forward");
        assert!(!env.block_is_refreshed(0));

        // mark_refreshed (scrub without erase) also zeroes retention.
        env.advance_block_age(1, 0, 2.0);
        env.mark_refreshed(1);
        assert_eq!(env.retention_months_of(1), 0.0);
        assert_eq!(env.pe(1), 2250);
    }

    #[test]
    fn lifetime_engagement_respects_refreshed_marks() {
        let mut env = Environment::new(2, 1);
        env.set_aging(AgingState::EndOfLife);
        env.track_block_retention();
        env.record_erase(0);
        env.enable_lifetime_aging();
        assert_eq!(
            env.retention_months_of(0),
            0.0,
            "refreshed block engages young"
        );
        assert_eq!(env.retention_months_of(1), 12.0);
    }

    #[test]
    fn temperature_reference_is_neutral() {
        let env = Environment::new(1, 0);
        assert!((env.retention_acceleration() - 1.0).abs() < 1e-12);
        assert_eq!(env.ambient_celsius(), REFERENCE_CELSIUS);
    }

    #[test]
    fn heat_accelerates_and_cold_preserves() {
        let mut env = Environment::new(1, 0);
        env.set_aging_raw(2000, 6.0);
        env.set_ambient_celsius(55.0);
        let hot = env.effective_retention_months_of(0);
        assert!(
            hot > 6.0 * 3.0,
            "55°C should accelerate several-fold: {hot}"
        );
        env.set_ambient_celsius(5.0);
        let cold = env.effective_retention_months_of(0);
        assert!(cold < 6.0 * 0.1, "5°C should slow retention loss: {cold}");
    }

    #[test]
    #[should_panic(expected = "operating range")]
    fn absurd_temperature_rejected() {
        Environment::new(1, 0).set_ambient_celsius(400.0);
    }

    #[test]
    fn disturbance_rate_is_respected() {
        let mut env = Environment::new(1, 5);
        env.set_disturbance_prob(0.25);
        let n = 20_000;
        let hits = (0..n).filter(|_| env.sample_disturbance()).count();
        let rate = hits as f64 / n as f64;
        assert!((0.22..0.28).contains(&rate), "rate {rate}");
    }

    #[test]
    fn zero_disturbance_never_fires() {
        let mut env = Environment::new(1, 5);
        assert!((0..1000).all(|_| !env.sample_disturbance()));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn disturbance_prob_validated() {
        Environment::new(1, 0).set_disturbance_prob(1.5);
    }
}
