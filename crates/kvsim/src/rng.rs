//! The crate's only randomness source: a splitmix64 counter stream.
//!
//! Every draw is a 64-bit finalizer over an incrementing state, so the
//! stream is a pure function of the seed — no platform floats, no
//! library RNG, nothing that could drift between builds. The same
//! finalizer doubles as the key/value fingerprint hash.

use ssdsim::detrand::mix64;

/// Weyl-sequence increment of splitmix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijection on `u64` with full avalanche.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN))
}

/// A seeded splitmix64 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A new stream; distinct seeds give unrelated streams.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// The next 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// A draw reduced to `[0, bound)`; `bound` must be positive.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// A draw reduced to `[0, 10_000)` for per-mille style mix splits.
    #[inline]
    pub fn permyriad(&mut self) -> u64 {
        self.below(10_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix::new(8);
        let c: Vec<u64> = (0..64).map(|_| r.next_u64()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn finalizer_is_injective_on_a_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }
}
