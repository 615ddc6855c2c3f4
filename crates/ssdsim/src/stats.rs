//! Latency recording, percentiles and CDFs.

use serde::{Deserialize, Serialize};
use telemetry::LogHistogram;

/// Records a stream of latencies (µs) and answers distribution queries
/// (mean, percentiles, CDF series) — the raw material for the latency
/// CDFs of Fig. 18.
///
/// Backed by a deterministic log-bucketed histogram
/// ([`telemetry::LogHistogram`]) rather than a raw sample buffer, so
/// memory is bounded by the span of the latencies — about 10 KB for
/// 1 µs to 1 s, however many samples — not a `Vec` of every sample.
/// The trade: percentiles and CDF points are reported at
/// bucket granularity (the lower bound of the bucket holding the rank),
/// under-estimating the true nearest-rank sample by at most
/// [`LogHistogram::MAX_RELATIVE_ERROR`] (1.6%); count, mean and max
/// stay exact.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyRecorder {
    hist: LogHistogram,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency_us: f64) {
        debug_assert!(latency_us >= 0.0, "negative latency");
        self.hist.record(latency_us);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.hist.len() as usize
    }

    /// The underlying histogram (for metric registration).
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }

    /// Merges every bucket of `other`. The array front-end merges
    /// per-shard recorders this way, always in shard order, so the
    /// merged distribution is independent of thread interleaving.
    pub fn absorb(&mut self, other: &LatencyRecorder) {
        self.hist.absorb(&other.hist);
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Mean latency (exact), or 0 when empty.
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }

    /// The `p`-th percentile (0 < p ≤ 100) by nearest-rank at bucket
    /// granularity (≤ 1.6% below the true sample; `p = 100` is the
    /// exact maximum), or 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range");
        if self.hist.is_empty() {
            return 0.0;
        }
        self.hist.percentile(p)
    }

    /// A CDF as `points` evenly spaced `(latency_us, cumulative
    /// fraction)` pairs.
    pub fn cdf(&self, points: usize) -> Vec<(f64, f64)> {
        if self.hist.is_empty() || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                (self.hist.percentile(frac * 100.0), frac)
            })
            .collect()
    }

    /// Maximum sample (exact), or 0 when empty.
    pub fn max(&self) -> f64 {
        self.hist.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentiles_within_bucket_resolution() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(f64::from(i));
        }
        assert_eq!(r.len(), 100);
        assert!((r.mean() - 50.5).abs() < 1e-9, "mean stays exact");
        for (p, exact) in [(50.0, 50.0), (90.0, 90.0)] {
            let got = r.percentile(p);
            assert!(got <= exact + 1e-9, "p{p}: {got} above exact {exact}");
            assert!(
                got >= exact * (1.0 - LogHistogram::MAX_RELATIVE_ERROR) - 1e-9,
                "p{p}: {got} below resolution bound of {exact}"
            );
        }
        assert_eq!(r.percentile(100.0), 100.0, "p100 is the exact max");
        assert_eq!(r.max(), 100.0);
    }

    #[test]
    fn empty_recorder_is_calm() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.percentile(99.0), 0.0);
        assert!(r.cdf(10).is_empty());
    }

    #[test]
    fn cdf_is_monotonic() {
        let mut r = LatencyRecorder::new();
        for i in [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0] {
            r.record(i);
        }
        let cdf = r.cdf(5);
        assert_eq!(cdf.len(), 5);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_validated() {
        LatencyRecorder::new().percentile(0.0);
    }

    #[test]
    fn absorb_matches_direct_recording() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        let mut all = LatencyRecorder::new();
        for i in 0..200 {
            let v = (i % 23) as f64 * 31.5 + 5.0;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.absorb(&b);
        assert_eq!(a.len(), all.len());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert_eq!(a.percentile(99.0), all.percentile(99.0));
    }

    #[test]
    fn bounded_memory_on_million_sample_runs() {
        let mut r = LatencyRecorder::new();
        for i in 0..1_000_000u64 {
            r.record(60.0 + (i % 5000) as f64 / 3.0);
        }
        assert_eq!(r.len(), 1_000_000);
        // The whole recorder is a sparse bucket map: well under the
        // 8 MB a Vec<f64> of these samples would need.
        assert!(std::mem::size_of_val(&r) < 128);
    }
}
