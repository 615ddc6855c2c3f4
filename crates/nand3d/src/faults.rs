//! Deterministic fault injection for the NAND model.
//!
//! A [`FaultPlan`] describes anomalies to inject into chip operations —
//! either **targeted** at specific `(block, h-layer, v-layer)` WL
//! addresses (each fires exactly once per chip) or drawn at **seeded
//! random rates** per operation. The plan is pure data; each chip turns
//! it into a [`FaultInjector`] whose RNG stream is derived from the plan
//! seed and the chip index, *separate* from the chip's environment RNG —
//! so enabling faults perturbs only the faulted operations, and the same
//! plan + seed reproduces the identical fault sequence on every run.
//!
//! Five fault kinds model the §4.1.4 / §4.2 hazard space:
//!
//! * [`FaultKind::IsppLoopOutlier`] — a WL needs anomalously many ISPP
//!   loops (process outlier / ambient upset): injected as an extra
//!   disturbance shift into characterization, which moves the monitored
//!   loop intervals and inflates `BER_EP1`.
//! * [`FaultKind::BerSpike`] — a transient post-program raw-BER spike
//!   (program disturb burst); trips the §4.1.4 safety check when it
//!   exceeds the ×3 threshold.
//! * [`FaultKind::StuckRetry`] — the h-layer's cached `ΔV_Ref` has gone
//!   stale (reference drift between reads); the read must re-search and
//!   the FTL's ORT entry is refreshed by the outcome.
//! * [`FaultKind::UncorrectableRead`] — the first decode attempt fails
//!   even near the optimum; recovery is a full offset scan (max retry
//!   latency). Data is still recovered — injection may cost latency but
//!   never corrupts host data.
//! * [`FaultKind::ProgramAbort`] — a program-suspend/abort event: the
//!   WL is left unprogrammed (still erased) and the FTL must re-issue
//!   the data on the next WL.

use crate::geometry::WlAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Program: ISPP loop-count outlier (extra characterization shift).
    IsppLoopOutlier,
    /// Program: transient post-program BER spike.
    BerSpike,
    /// Read: stale cached `ΔV_Ref` (ORT entry no longer decodes).
    StuckRetry,
    /// Read: ECC-uncorrectable first attempt, full-scan recovery.
    UncorrectableRead,
    /// Program: suspend/abort — the WL stays erased.
    ProgramAbort,
}

impl FaultKind {
    /// All kinds, in a stable order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::IsppLoopOutlier,
        FaultKind::BerSpike,
        FaultKind::StuckRetry,
        FaultKind::UncorrectableRead,
        FaultKind::ProgramAbort,
    ];

    /// Whether the kind fires on program operations (else on reads).
    pub fn is_program_fault(self) -> bool {
        matches!(
            self,
            FaultKind::IsppLoopOutlier | FaultKind::BerSpike | FaultKind::ProgramAbort
        )
    }
}

/// A fault pinned to one WL address; fires once per chip when that WL
/// sees a matching operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedFault {
    /// Block index.
    pub block: u32,
    /// Horizontal layer within the block.
    pub h: u16,
    /// Vertical (WL) index within the h-layer.
    pub v: u16,
    /// What to inject.
    pub kind: FaultKind,
}

/// A complete, seedable fault-injection plan.
///
/// `FaultPlan::default()` injects nothing. Rates are per matching
/// operation and must be `< 1.0` for program faults (an FTL cannot make
/// progress if *every* program attempt aborts).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG stream (independent of the environment
    /// seed; per-chip streams are derived from it).
    pub seed: u64,
    /// Faults pinned to specific WL addresses (fire once per chip each).
    pub targeted: Vec<TargetedFault>,
    /// Per-program probability of an ISPP loop-count outlier.
    pub ispp_outlier_rate: f64,
    /// Per-program probability of a transient BER spike.
    pub ber_spike_rate: f64,
    /// Per-read probability of a stale cached `ΔV_Ref`.
    pub stuck_retry_rate: f64,
    /// Per-read probability of an uncorrectable first attempt.
    pub uncorrectable_rate: f64,
    /// Per-program probability of a suspend/abort event.
    pub abort_rate: f64,
    /// Multiplier applied to `post_ber` by a BER spike. The default 4.0
    /// clears the §4.1.4 ×3 safety threshold.
    pub ber_spike_factor: f64,
    /// Extra characterization shift of a loop outlier (steps). The
    /// default 3 exceeds the ambient-disturbance shift of 2.
    pub loop_outlier_shift: i8,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            targeted: Vec::new(),
            ispp_outlier_rate: 0.0,
            ber_spike_rate: 0.0,
            stuck_retry_rate: 0.0,
            uncorrectable_rate: 0.0,
            abort_rate: 0.0,
            ber_spike_factor: 4.0,
            loop_outlier_shift: 3,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan with the given RNG seed (add targets or rates).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a targeted fault at `(block, h, v)`.
    #[must_use]
    pub fn with_target(mut self, block: u32, h: u16, v: u16, kind: FaultKind) -> Self {
        self.targeted.push(TargetedFault { block, h, v, kind });
        self
    }

    /// Sets the random-injection rate of one fault kind.
    #[must_use]
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        match kind {
            FaultKind::IsppLoopOutlier => self.ispp_outlier_rate = rate,
            FaultKind::BerSpike => self.ber_spike_rate = rate,
            FaultKind::StuckRetry => self.stuck_retry_rate = rate,
            FaultKind::UncorrectableRead => self.uncorrectable_rate = rate,
            FaultKind::ProgramAbort => self.abort_rate = rate,
        }
        self
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        !self.targeted.is_empty()
            || self.ispp_outlier_rate > 0.0
            || self.ber_spike_rate > 0.0
            || self.stuck_retry_rate > 0.0
            || self.uncorrectable_rate > 0.0
            || self.abort_rate > 0.0
    }
}

/// A fault resolved against one program operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProgramFault {
    /// Add this many characterization shift steps.
    LoopOutlier(i8),
    /// Multiply the post-program BER by this factor.
    BerSpike(f64),
    /// Abort the program; the WL stays erased.
    Abort,
}

/// A fault resolved against one read operation. Carried on
/// [`ReadReport`](crate::chip::ReadReport) so the FTL can count its
/// recovery actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFaultKind {
    /// Stale cached `ΔV_Ref`: forced re-search from the cached offset.
    StuckRetry,
    /// Uncorrectable first attempt: full offset-scan recovery.
    Uncorrectable,
}

/// Counts of injected faults (per chip; sum over the array for totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// ISPP loop-count outliers injected into programs.
    pub ispp_loop_outliers: u64,
    /// Post-program BER spikes injected.
    pub ber_spikes: u64,
    /// Program suspend/abort events injected.
    pub program_aborts: u64,
    /// Stale-`ΔV_Ref` reads injected.
    pub stuck_retries: u64,
    /// Uncorrectable first-attempt reads injected.
    pub uncorrectable_reads: u64,
}

impl FaultCounters {
    /// Total injected faults of all kinds.
    pub fn total(&self) -> u64 {
        self.ispp_loop_outliers
            + self.ber_spikes
            + self.program_aborts
            + self.stuck_retries
            + self.uncorrectable_reads
    }

    /// Registers every fault counter under `prefix` (e.g.
    /// `nand.faults.ber_spikes`).
    pub fn register_metrics(&self, reg: &mut telemetry::MetricRegistry, prefix: &str) {
        for (name, value) in [
            ("ispp_loop_outliers", self.ispp_loop_outliers),
            ("ber_spikes", self.ber_spikes),
            ("program_aborts", self.program_aborts),
            ("stuck_retries", self.stuck_retries),
            ("uncorrectable_reads", self.uncorrectable_reads),
        ] {
            reg.counter(&format!("{prefix}.{name}"), value);
        }
    }

    /// Element-wise sum (for array-level totals).
    #[must_use]
    pub fn merged(&self, other: &FaultCounters) -> FaultCounters {
        FaultCounters {
            ispp_loop_outliers: self.ispp_loop_outliers + other.ispp_loop_outliers,
            ber_spikes: self.ber_spikes + other.ber_spikes,
            program_aborts: self.program_aborts + other.program_aborts,
            stuck_retries: self.stuck_retries + other.stuck_retries,
            uncorrectable_reads: self.uncorrectable_reads + other.uncorrectable_reads,
        }
    }
}

/// The per-chip runtime state of a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Fault RNG: a stream of its own, so plans never perturb the
    /// environment's draws (determinism of the un-faulted behaviour).
    rng: StdRng,
    /// Targeted faults not yet fired, keyed by WL address. Looked up by
    /// key only (never iterated), so map order cannot leak into results.
    pending: HashMap<(u32, u16, u16), Vec<FaultKind>>,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Instantiates `plan` for the chip at `chip_index`.
    pub fn new(plan: FaultPlan, chip_index: u64) -> Self {
        let mut pending: HashMap<(u32, u16, u16), Vec<FaultKind>> = HashMap::new();
        for t in &plan.targeted {
            pending.entry((t.block, t.h, t.v)).or_default().push(t.kind);
        }
        let rng = StdRng::seed_from_u64(
            plan.seed ^ 0xFA17_0000_0000_0000u64 ^ chip_index.wrapping_mul(0x9e37_79b9),
        );
        FaultInjector {
            plan,
            rng,
            pending,
            counters: FaultCounters::default(),
        }
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injected-fault counts so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    fn take_targeted(&mut self, wl: WlAddr, programs: bool) -> Option<FaultKind> {
        let key = (wl.block.0, wl.h.0, wl.v.0);
        let queue = self.pending.get_mut(&key)?;
        let pos = queue
            .iter()
            .position(|k| k.is_program_fault() == programs)?;
        let kind = queue.remove(pos);
        if queue.is_empty() {
            self.pending.remove(&key);
        }
        Some(kind)
    }

    /// Resolves the fault (if any) for a program of `wl`. At most one
    /// fault fires per operation; targeted faults take precedence over
    /// random draws.
    pub fn on_program(&mut self, wl: WlAddr) -> Option<ProgramFault> {
        let kind = self.take_targeted(wl, true).or_else(|| {
            // Draw in a fixed order; only kinds with nonzero rates touch
            // the RNG, so an all-zero plan leaves the stream untouched.
            if self.plan.abort_rate > 0.0 && self.rng.gen_bool(self.plan.abort_rate) {
                Some(FaultKind::ProgramAbort)
            } else if self.plan.ispp_outlier_rate > 0.0
                && self.rng.gen_bool(self.plan.ispp_outlier_rate)
            {
                Some(FaultKind::IsppLoopOutlier)
            } else if self.plan.ber_spike_rate > 0.0 && self.rng.gen_bool(self.plan.ber_spike_rate)
            {
                Some(FaultKind::BerSpike)
            } else {
                None
            }
        })?;
        Some(match kind {
            FaultKind::IsppLoopOutlier => {
                self.counters.ispp_loop_outliers += 1;
                ProgramFault::LoopOutlier(self.plan.loop_outlier_shift)
            }
            FaultKind::BerSpike => {
                self.counters.ber_spikes += 1;
                ProgramFault::BerSpike(self.plan.ber_spike_factor)
            }
            FaultKind::ProgramAbort => {
                self.counters.program_aborts += 1;
                ProgramFault::Abort
            }
            _ => unreachable!("take_targeted filters by operation kind"),
        })
    }

    /// Resolves the fault (if any) for a read of a page on `wl`.
    pub fn on_read(&mut self, wl: WlAddr) -> Option<ReadFaultKind> {
        let kind = self.take_targeted(wl, false).or_else(|| {
            if self.plan.stuck_retry_rate > 0.0 && self.rng.gen_bool(self.plan.stuck_retry_rate) {
                Some(FaultKind::StuckRetry)
            } else if self.plan.uncorrectable_rate > 0.0
                && self.rng.gen_bool(self.plan.uncorrectable_rate)
            {
                Some(FaultKind::UncorrectableRead)
            } else {
                None
            }
        })?;
        Some(match kind {
            FaultKind::StuckRetry => {
                self.counters.stuck_retries += 1;
                ReadFaultKind::StuckRetry
            }
            FaultKind::UncorrectableRead => {
                self.counters.uncorrectable_reads += 1;
                ReadFaultKind::Uncorrectable
            }
            _ => unreachable!("take_targeted filters by operation kind"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BlockId, HLayer, VLayer};

    fn wl(b: u32, h: u16, v: u16) -> WlAddr {
        WlAddr {
            block: BlockId(b),
            h: HLayer(h),
            v: VLayer(v),
        }
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 0);
        for b in 0..4 {
            assert_eq!(inj.on_program(wl(b, 0, 0)), None);
            assert_eq!(inj.on_read(wl(b, 0, 0)), None);
        }
        assert_eq!(inj.counters().total(), 0);
        assert!(!FaultPlan::none().is_active());
    }

    #[test]
    fn targeted_fault_fires_exactly_once() {
        let plan = FaultPlan::seeded(1).with_target(2, 3, 1, FaultKind::ProgramAbort);
        assert!(plan.is_active());
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.on_program(wl(2, 3, 0)), None, "other WL untouched");
        assert_eq!(inj.on_program(wl(2, 3, 1)), Some(ProgramFault::Abort));
        assert_eq!(inj.on_program(wl(2, 3, 1)), None, "consumed");
        assert_eq!(inj.counters().program_aborts, 1);
    }

    #[test]
    fn targeted_read_and_program_faults_coexist_on_one_wl() {
        let plan = FaultPlan::seeded(1)
            .with_target(0, 0, 0, FaultKind::BerSpike)
            .with_target(0, 0, 0, FaultKind::StuckRetry);
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.on_read(wl(0, 0, 0)), Some(ReadFaultKind::StuckRetry));
        assert!(matches!(
            inj.on_program(wl(0, 0, 0)),
            Some(ProgramFault::BerSpike(f)) if f == 4.0
        ));
        assert_eq!(inj.on_read(wl(0, 0, 0)), None);
        assert_eq!(inj.on_program(wl(0, 0, 0)), None);
    }

    #[test]
    fn random_rates_hit_near_expectation_and_deterministically() {
        let plan = FaultPlan::seeded(77).with_rate(FaultKind::UncorrectableRead, 0.2);
        let mut a = FaultInjector::new(plan.clone(), 3);
        let mut b = FaultInjector::new(plan, 3);
        let n = 10_000;
        let mut hits = 0u64;
        for i in 0..n {
            let addr = wl(i % 8, (i % 6) as u16, (i % 4) as u16);
            let fa = a.on_read(addr);
            assert_eq!(fa, b.on_read(addr), "same plan+seed must agree");
            hits += u64::from(fa.is_some());
        }
        let rate = hits as f64 / f64::from(n);
        assert!((0.17..0.23).contains(&rate), "rate {rate}");
        assert_eq!(a.counters().uncorrectable_reads, hits);
    }

    #[test]
    fn chips_get_distinct_fault_streams() {
        let plan = FaultPlan::seeded(5).with_rate(FaultKind::BerSpike, 0.3);
        let mut a = FaultInjector::new(plan.clone(), 0);
        let mut b = FaultInjector::new(plan, 1);
        let pattern_a: Vec<bool> = (0..64)
            .map(|i| a.on_program(wl(i, 0, 0)).is_some())
            .collect();
        let pattern_b: Vec<bool> = (0..64)
            .map(|i| b.on_program(wl(i, 0, 0)).is_some())
            .collect();
        assert_ne!(pattern_a, pattern_b);
    }

    #[test]
    fn rate_builder_routes_to_the_right_field() {
        let plan = FaultPlan::seeded(0)
            .with_rate(FaultKind::IsppLoopOutlier, 0.1)
            .with_rate(FaultKind::BerSpike, 0.2)
            .with_rate(FaultKind::StuckRetry, 0.3)
            .with_rate(FaultKind::UncorrectableRead, 0.4)
            .with_rate(FaultKind::ProgramAbort, 0.5);
        assert_eq!(plan.ispp_outlier_rate, 0.1);
        assert_eq!(plan.ber_spike_rate, 0.2);
        assert_eq!(plan.stuck_retry_rate, 0.3);
        assert_eq!(plan.uncorrectable_rate, 0.4);
        assert_eq!(plan.abort_rate, 0.5);
    }
}
