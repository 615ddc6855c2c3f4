//! Deterministic log-bucketed histogram with bounded memory.
//!
//! Values are binned by their IEEE-754 bit pattern: the bucket index is
//! the exponent plus the top [`LogHistogram::SUB_BUCKET_BITS`] mantissa
//! bits, giving 64 sub-buckets per octave. Bucket boundaries are exact
//! powers of `2^(1/64)` steps, so the **relative resolution is
//! `2^-6 ≈ 1.56%`**: any reported percentile is the *lower bound* of the
//! bucket holding the rank, i.e. it under-estimates the true
//! nearest-rank value by at most 1.6% (count, sum, mean, min and max are
//! exact). Bucketing uses only integer bit manipulation — no `log2`, no
//! libm — so it is bit-stable across platforms.
//!
//! Storage is dense: one counter for bucket 0 (every non-positive or
//! non-finite sample) and a `Vec<u64>` over the positive buckets from
//! the smallest to the largest one touched, so `record` is an index and
//! an increment. Iteration order is value order (deterministic), and
//! memory is 512 B per octave spanned by the positive samples — about
//! 10 KB for latencies between 1 µs and 1 s, at most about 1 MB for the
//! whole `f64` range (up to twice that once the front has grown) — never
//! a function of the number of samples.

/// A log-bucketed histogram of non-negative `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    /// Samples in bucket 0: non-positive and non-finite values. Kept
    /// apart so a `0.0` beside a `100.0` does not stretch `counts` over
    /// the 65 000 buckets between them.
    floor: u64,
    /// Bucket index of `counts[0]` (at least 1 once anything is held).
    base: u32,
    /// Counts of the positive buckets `base..base + counts.len()`; a
    /// bucket no sample fell into holds 0.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    /// Exact extrema; meaningful only when `count > 0`.
    min: f64,
    max: f64,
}

impl PartialEq for LogHistogram {
    /// Content equality: the same samples compare equal however the
    /// bucket array grew to hold them.
    fn eq(&self, other: &Self) -> bool {
        self.floor == other.floor
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets().eq(other.buckets())
    }
}

impl LogHistogram {
    /// Mantissa bits kept per bucket: 2^6 = 64 sub-buckets per octave.
    pub const SUB_BUCKET_BITS: u32 = 6;

    /// Worst-case relative error of a percentile: one bucket width.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 64.0;

    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Bucket index of `v`: 0 for non-positive (or non-finite) values,
    /// otherwise exponent + top mantissa bits, offset by one.
    fn bucket_index(v: f64) -> u32 {
        if v > 0.0 && v.is_finite() {
            (v.to_bits() >> (52 - Self::SUB_BUCKET_BITS)) as u32 + 1
        } else {
            0
        }
    }

    /// Lower bound of the bucket `idx` (its percentile representative).
    fn bucket_lower_bound(idx: u32) -> f64 {
        if idx == 0 {
            0.0
        } else {
            f64::from_bits(u64::from(idx - 1) << (52 - Self::SUB_BUCKET_BITS))
        }
    }

    /// The occupied buckets in value order: `(index, count)`, bucket 0
    /// first.
    fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let floor = (self.floor > 0).then_some((0, self.floor));
        let positive = (self.base..).zip(self.counts.iter().copied());
        floor.into_iter().chain(positive.filter(|&(_, n)| n > 0))
    }

    /// Adds `n` samples to bucket `idx`.
    fn add(&mut self, idx: u32, n: u64) {
        if idx == 0 {
            self.floor += n;
        } else if let Some(c) = self.counts.get_mut(idx.wrapping_sub(self.base) as usize) {
            *c += n;
        } else {
            self.grow_to(idx);
            self.counts[(idx - self.base) as usize] += n;
        }
    }

    /// Grows `counts` to hold the positive bucket `idx`. The front grows
    /// by at least the current length, so a run of ever smaller samples
    /// costs amortised O(1) each; the back grows to exactly `idx`.
    fn grow_to(&mut self, idx: u32) {
        if self.counts.is_empty() {
            self.base = idx;
            self.counts.push(0);
        } else if idx < self.base {
            let pad = (self.base - idx).max(self.counts.len() as u32);
            let base = self.base.saturating_sub(pad).max(1);
            let front = (self.base - base) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, front));
            self.base = base;
        } else {
            self.counts.resize((idx - self.base) as usize + 1, 0);
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.add(Self::bucket_index(v), 1);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Merges another histogram into this one.
    pub fn absorb(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (idx, n) in other.buckets() {
            self.add(idx, n);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of recorded samples (exact).
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (exact; 0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (exact; 0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact; 0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank percentile, reported as the lower bound of the
    /// bucket holding the rank (≤ 1.6% below the true sample; clamped
    /// into `[min, max]`). `p = 100` returns the exact maximum; an empty
    /// histogram answers 0, as [`LogHistogram::mean`] does.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
        if self.count == 0 {
            return 0.0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                return Self::bucket_lower_bound(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fraction of samples at or below each point, evaluated at bucket
    /// granularity: a point inside a bucket counts the whole bucket
    /// (over-estimates by at most one bucket's population). Monotone in
    /// the query point by construction.
    pub fn cdf(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&p| {
                let below: u64 = self
                    .buckets()
                    .take_while(|&(idx, _)| Self::bucket_lower_bound(idx) <= p)
                    .map(|(_, n)| n)
                    .sum();
                let frac = if self.count == 0 {
                    0.0
                } else {
                    below as f64 / self.count as f64
                };
                (p, frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests;
