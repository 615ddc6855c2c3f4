//! Seeded synthetic tenant populations for the multi-queue host
//! front-end (`crates/hostq`).
//!
//! A tenant is an independent request stream with a scheduling weight
//! and a service class. Populations scale to thousands of tenants:
//! each tenant's stream seed derives from the master seed and the
//! tenant id through a splitmix64 finalizer (the same construction as
//! [`shard_seed`](crate::shard::shard_seed) but over a disjoint
//! constant, so tenant streams never collide with shard streams), and
//! its workload personality is either fixed or cycled over the six
//! standard generators.

use crate::{StandardWorkload, Workload, YcsbWorkload};
use kvsim::{KvConfig, YcsbKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssdsim::detrand::mix64;
use ssdsim::HostRequest;

/// Domain-separation constant for tenant seed derivation (distinct from
/// the shard gamma so tenant 0 never replays shard 0's stream).
const TENANT_GAMMA: u64 = 0xD1B5_4A32_D192_ED03;

/// Derives the stream seed of `tenant` from the master seed: a
/// splitmix64 finalizer over the master offset by a per-tenant gamma
/// multiple. Distinct tenant ids give distinct outputs for any master
/// seed (the finalizer is a bijection on `u64`).
pub fn tenant_seed(master: u64, tenant: u32) -> u64 {
    mix64(master ^ TENANT_GAMMA.wrapping_mul(u64::from(tenant) + 1))
}

/// Service class of a tenant — determines which reporting aggregate it
/// lands in and which side of an overload experiment it sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantClass {
    /// Highest-weight tenants: the overload experiments assert their
    /// SLO holds while load is shed elsewhere.
    Protected,
    /// The middle of the weight range.
    Standard,
    /// Lowest-weight tenants: shed first under overload.
    BestEffort,
}

impl TenantClass {
    /// Display/metric label.
    pub fn label(self) -> &'static str {
        match self {
            TenantClass::Protected => "protected",
            TenantClass::Standard => "standard",
            TenantClass::BestEffort => "best_effort",
        }
    }

    /// Derives the class from a tenant's weight relative to the
    /// population's weight range: the maximum weight is `Protected`,
    /// the minimum is `BestEffort`, everything between is `Standard`.
    /// A uniform-weight population is all `Standard`.
    pub fn from_weight(weight: u32, min_weight: u32, max_weight: u32) -> TenantClass {
        if min_weight == max_weight {
            TenantClass::Standard
        } else if weight == max_weight {
            TenantClass::Protected
        } else if weight == min_weight {
            TenantClass::BestEffort
        } else {
            TenantClass::Standard
        }
    }
}

/// The request-stream personality of a host: the one type that names a
/// generator, for a tenant of a population and for a whole scenario
/// alike, with the one [`TenantMix::parse`] and the one
/// [`TenantMix::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantMix {
    /// One of the six §6.1 generators.
    Standard(StandardWorkload),
    /// Single-page 50/50 read/write uniform traffic — every request
    /// costs the scheduler exactly one page, which makes completed
    /// request counts directly comparable to scheduler service shares
    /// (the weight-proportionality benchmark uses this).
    Uniform,
    /// A kvsim application tenant: a full LSM engine under the given
    /// YCSB workload, so the tenant's traffic carries real flush and
    /// compaction bursts instead of a synthetic approximation.
    Kv(YcsbKind),
}

impl TenantMix {
    /// Parses the names the CLI takes: a standard workload label
    /// (case-insensitive) or any [`YcsbKind`] spelling (`a`, `ycsb_a`,
    /// …).
    pub fn parse(s: &str) -> Option<Self> {
        StandardWorkload::parse(s)
            .map(TenantMix::Standard)
            .or_else(|| YcsbKind::parse(s).map(TenantMix::Kv))
    }

    /// Builds the request stream over `logical_pages`; a KV personality
    /// runs an engine of shape `kv`.
    pub fn build(self, kv: KvConfig, logical_pages: u64, seed: u64) -> Box<dyn Workload + Send> {
        match self {
            TenantMix::Standard(w) => w.build(logical_pages, seed),
            TenantMix::Uniform => Box::new(UniformTenantWorkload::new(logical_pages, seed)),
            TenantMix::Kv(kind) => Box::new(YcsbWorkload::new(kv, kind, logical_pages, seed)),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TenantMix::Standard(w) => w.label(),
            TenantMix::Uniform => "Uniform",
            TenantMix::Kv(kind) => kind.label(),
        }
    }
}

/// One tenant of a population: identity, scheduling weight, service
/// class, stream personality and derived stream seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantProfile {
    /// Tenant id (dense, 0-based across the population).
    pub id: u32,
    /// DWRR scheduling weight (≥ 1).
    pub weight: u32,
    /// Service class (reporting aggregate).
    pub class: TenantClass,
    /// Stream personality.
    pub mix: TenantMix,
    /// Stream seed ([`tenant_seed`] of the population's master seed).
    pub seed: u64,
}

impl TenantProfile {
    /// Builds this tenant's request stream over `logical_pages` (KV
    /// tenants at the default engine shape).
    pub fn build_stream(&self, logical_pages: u64) -> Box<dyn Workload + Send> {
        self.mix
            .build(KvConfig::default_shape(), logical_pages, self.seed)
    }
}

/// Builds a population of `n` tenants. `weights` is cycled over the
/// tenant ids (`[8, 4, 1]` gives tenants 0,3,6,… weight 8); classes
/// derive from each weight's position in the cycle's range via
/// [`TenantClass::from_weight`]. With `base` the whole population runs
/// one personality; without it the six standard generators are cycled.
/// Stream seeds derive from `master_seed` via [`tenant_seed`].
pub fn build_population(
    n: u32,
    weights: &[u32],
    base: Option<TenantMix>,
    master_seed: u64,
) -> Vec<TenantProfile> {
    assert!(n >= 1, "a population needs at least one tenant");
    assert!(
        !weights.is_empty() && weights.iter().all(|&w| w >= 1),
        "weights must be non-empty and >= 1"
    );
    let min_w = *weights.iter().min().expect("non-empty");
    let max_w = *weights.iter().max().expect("non-empty");
    (0..n)
        .map(|id| {
            let weight = weights[id as usize % weights.len()];
            let mix = base.unwrap_or_else(|| {
                TenantMix::Standard(
                    StandardWorkload::ALL[id as usize % StandardWorkload::ALL.len()],
                )
            });
            TenantProfile {
                id,
                weight,
                class: TenantClass::from_weight(weight, min_w, max_w),
                mix,
                seed: tenant_seed(master_seed, id),
            }
        })
        .collect()
}

/// Single-page uniform traffic: 50/50 read/write over the whole logical
/// space, one page per request. See [`TenantMix::Uniform`].
pub struct UniformTenantWorkload {
    rng: StdRng,
    logical_pages: u64,
}

impl UniformTenantWorkload {
    /// A new seeded stream over `logical_pages`.
    pub fn new(logical_pages: u64, seed: u64) -> Self {
        UniformTenantWorkload {
            rng: StdRng::seed_from_u64(seed ^ 0x7e4a_9d11),
            logical_pages: logical_pages.max(1),
        }
    }
}

impl Iterator for UniformTenantWorkload {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        let lpn = self.rng.gen_range(0..self.logical_pages);
        Some(if self.rng.gen_bool(0.5) {
            HostRequest::read(lpn)
        } else {
            HostRequest::write(lpn)
        })
    }
}

impl Workload for UniformTenantWorkload {
    fn label(&self) -> &str {
        "Uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn tenant_seeds_are_distinct_and_disjoint_from_shard_seeds() {
        let mut seen = HashSet::new();
        for master in [0u64, 42] {
            for t in 0..512u32 {
                assert!(seen.insert(tenant_seed(master, t)), "collision");
            }
        }
        for t in 0..64u32 {
            assert_ne!(
                tenant_seed(42, t),
                crate::shard::shard_seed(42, t as usize),
                "tenant and shard streams must be domain-separated"
            );
        }
        // Pinned values: any change here silently breaks QoS replays.
        assert_eq!(
            [0, 1, 2, 3].map(|t| tenant_seed(42, t)),
            [
                0x6BB1_50A2_DF30_D29B,
                0x34CD_C529_004B_4D22,
                0x870F_C6FE_AED8_BBFD,
                0xBA5E_DFA4_8CF4_51E8
            ]
        );
    }

    #[test]
    fn population_cycles_weights_and_mixes() {
        let pop = build_population(8, &[8, 4, 1], None, 7);
        assert_eq!(pop.len(), 8);
        assert_eq!(pop[0].weight, 8);
        assert_eq!(pop[3].weight, 8);
        assert_eq!(pop[2].weight, 1);
        assert_eq!(pop[0].class, TenantClass::Protected);
        assert_eq!(pop[1].class, TenantClass::Standard);
        assert_eq!(pop[2].class, TenantClass::BestEffort);
        assert_eq!(pop[0].mix, TenantMix::Standard(StandardWorkload::Mail));
        assert_eq!(pop[6].mix, TenantMix::Standard(StandardWorkload::Mail));
        let uni = build_population(3, &[1], Some(TenantMix::Uniform), 7);
        assert!(uni.iter().all(|t| t.mix == TenantMix::Uniform));
        assert!(uni.iter().all(|t| t.class == TenantClass::Standard));
    }

    #[test]
    fn uniform_stream_is_deterministic_and_single_page() {
        let a: Vec<_> = UniformTenantWorkload::new(10_000, 3).take(200).collect();
        let b: Vec<_> = UniformTenantWorkload::new(10_000, 3).take(200).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|r| r.n_pages == 1 && r.lpn < 10_000));
        let c: Vec<_> = UniformTenantWorkload::new(10_000, 4).take(200).collect();
        assert_ne!(a, c);
    }
}
