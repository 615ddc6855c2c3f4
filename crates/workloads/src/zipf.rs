//! A YCSB-style Zipfian sampler.
//!
//! Implements the Gray et al. "quickly generating billion-record
//! synthetic databases" algorithm used by YCSB's `ZipfianGenerator`:
//! constant-time sampling after an O(n) zeta precomputation. Combined
//! with a multiplicative hash scatter so that the popular items are
//! spread over the address space rather than clustered at low LPNs.
//!
//! The precomputation is a pure function of `(n, θ)`, computed once per
//! process: every sampler over the same law (each tenant, shard,
//! lifetime epoch or bench cell) copies it out of one memo.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// The constants of one Zipf law over `0..n` with skew θ.
#[derive(Debug, Clone, Copy)]
struct Law {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `ζ(2, θ) = 1 + 0.5^θ`: a draw below it (scaled by ζ(n)) is rank 1.
    rank1_cut: f64,
}

/// Every law built so far, keyed by `(n, θ bits)`.
static LAWS: Mutex<BTreeMap<(u64, u64), Law>> = Mutex::new(BTreeMap::new());

impl Law {
    /// The law for `(n, theta)`, computed on its first request.
    fn get(n: u64, theta: f64) -> Law {
        // A panic in `compute` inserts nothing, so a poisoned map still
        // holds only finished laws.
        let mut laws = LAWS.lock().unwrap_or_else(PoisonError::into_inner);
        *laws
            .entry((n, theta.to_bits()))
            .or_insert_with(|| Law::compute(n, theta))
    }

    fn compute(n: u64, theta: f64) -> Law {
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        Law {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            rank1_cut: 1.0 + 0.5f64.powf(theta),
        }
    }
}

/// Zipf-distributed sampler over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    law: Law,
    scatter: bool,
    rng: StdRng,
}

impl Zipfian {
    /// YCSB's default skew.
    pub const DEFAULT_THETA: f64 = 0.99;

    /// A sampler over `0..n` with skew `theta` (0 < θ < 1; larger is more
    /// skewed). `scatter` hashes ranks over the space (YCSB's
    /// `ScrambledZipfian` behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64, scatter: bool, seed: u64) -> Self {
        assert!(n > 0, "zipfian over empty domain");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0,1)"
        );
        Zipfian {
            law: Law::get(n, theta),
            scatter,
            rng: StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d),
        }
    }

    /// A scrambled sampler with the YCSB default skew.
    pub fn ycsb(n: u64, seed: u64) -> Self {
        Zipfian::new(n, Self::DEFAULT_THETA, true, seed)
    }

    /// Draws the next sample in `0..n`.
    pub fn sample(&mut self) -> u64 {
        let Law {
            n,
            alpha,
            zetan,
            eta,
            rank1_cut,
        } = self.law;
        let u: f64 = self.rng.gen();
        let uz = u * zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < rank1_cut {
            1
        } else {
            (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64
        };
        let rank = rank.min(n - 1);
        if self.scatter {
            // FNV-ish multiplicative scramble, then fold into range.
            rank.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x1234_5678)
                % n
        } else {
            rank
        }
    }

    /// The domain size.
    pub fn domain(&self) -> u64 {
        self.law.n
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // For very large n, subsample the tail: the zeta sum converges and
    // the tail contribution is approximated by an integral.
    const EXACT_LIMIT: u64 = 1_000_000;
    if n <= EXACT_LIMIT {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=EXACT_LIMIT)
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        // ∫_{EXACT_LIMIT}^{n} x^{-θ} dx
        let a = EXACT_LIMIT as f64;
        let b = n as f64;
        head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn samples_stay_in_range() {
        let mut z = Zipfian::ycsb(1000, 1);
        for _ in 0..10_000 {
            assert!(z.sample() < 1000);
        }
    }

    #[test]
    fn unscrambled_head_is_heavy() {
        let mut z = Zipfian::new(10_000, 0.99, false, 2);
        let mut head = 0u64;
        let n = 50_000;
        for _ in 0..n {
            if z.sample() < 100 {
                head += 1;
            }
        }
        // With θ=0.99 the first 1% of ranks should carry well over a
        // third of the mass.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.35, "head mass {frac}");
    }

    #[test]
    fn scrambled_spreads_but_keeps_skew() {
        let mut z = Zipfian::ycsb(10_000, 3);
        let mut counts = vec![0u32; 10_000];
        for _ in 0..100_000 {
            counts[z.sample() as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(max > 1_000, "hottest key too cold: {max}");
        assert!(nonzero > 2_000, "scramble failed to spread: {nonzero}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut z = Zipfian::ycsb(500, 9);
            (0..100).map(|_| z.sample()).collect()
        };
        let b: Vec<u64> = {
            let mut z = Zipfian::ycsb(500, 9);
            (0..100).map(|_| z.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn large_domain_zeta_approximation_works() {
        let mut z = Zipfian::ycsb(50_000_000, 4);
        for _ in 0..1000 {
            assert!(z.sample() < 50_000_000);
        }
    }

    /// FNV-1a over the first 10 000 samples.
    fn sample_hash(z: &mut Zipfian) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..10_000 {
            for b in z.sample().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn samples_and_zeta_match_the_pinned_hashes() {
        // (n, θ, scatter, seed). Rows 0–1 share n at Web's and Mail's θ,
        // in one process, so a law looked up by n alone serves one of
        // them the other's; row 3 is past `EXACT_LIMIT` (the integral
        // tail); row 4 builds row 1's law again.
        let cases = [
            (100_000, 0.85, true, 7),
            (100_000, 0.90, true, 7),
            (100_000, 0.90, false, 8),
            (50_000_000, 0.99, true, 9),
            (100_000, 0.90, true, 7),
        ];
        // (FNV of the samples, ζ(n, θ) bits), row by row.
        let pinned: [(u64, u64); 5] = [
            (0x8961_dc7e_0577_be8c, 0x403f_6393_7252_1d19),
            (0xe477_93fb_b0b7_0b89, 0x4036_3153_5f07_5b42),
            (0x9ff6_f0b0_7f83_bcdb, 0x4036_3153_5f07_5b42),
            (0x08cb_e751_4b1e_9593, 0x4033_f8f3_8e07_3fae),
            (0xe477_93fb_b0b7_0b89, 0x4036_3153_5f07_5b42),
        ];
        for (i, (&(n, theta, scatter, seed), &want)) in cases.iter().zip(&pinned).enumerate() {
            let hash = sample_hash(&mut Zipfian::new(n, theta, scatter, seed));
            let got = (hash, zeta(n, theta).to_bits());
            assert_eq!(got, want, "case {i}: n {n}, θ {theta}");
        }
    }

    fn law_bits(l: Law) -> [u64; 5] {
        [
            l.n,
            l.alpha.to_bits(),
            l.zetan.to_bits(),
            l.eta.to_bits(),
            l.rank1_cut.to_bits(),
        ]
    }

    proptest! {
        /// A sampler built from the memo, on a miss or a hit, holds the
        /// floats a fresh computation gives and draws what a sampler
        /// over the fresh law draws.
        #[test]
        fn memo_hits_return_the_fresh_law(
            n in 1u64..200_000,
            theta in 0.01f64..0.99,
            scatter in prop::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            let fresh = Law::compute(n, theta);
            let mut reference = Zipfian {
                law: fresh,
                scatter,
                rng: StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d),
            };
            let want: Vec<u64> = (0..200).map(|_| reference.sample()).collect();
            for _ in 0..2 {
                let mut z = Zipfian::new(n, theta, scatter, seed);
                prop_assert_eq!(law_bits(z.law), law_bits(fresh));
                let got: Vec<u64> = (0..200).map(|_| z.sample()).collect();
                prop_assert_eq!(&got, &want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_rejected() {
        Zipfian::ycsb(0, 0);
    }
}
