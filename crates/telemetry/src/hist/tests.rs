use super::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[test]
fn exact_aggregates_survive_bucketing() {
    let mut h = LogHistogram::new();
    for v in [5.0, 100.0, 250.0, 1000.0] {
        h.record(v);
    }
    assert_eq!(h.len(), 4);
    assert!((h.mean() - 338.75).abs() < 1e-9);
    assert_eq!(h.min(), 5.0);
    assert_eq!(h.max(), 1000.0);
    assert_eq!(h.percentile(100.0), 1000.0);
}

#[test]
fn an_empty_histogram_answers_zero() {
    let h = LogHistogram::new();
    assert!(h.is_empty());
    for p in [1.0, 50.0, 99.9, 100.0] {
        assert_eq!(h.percentile(p), 0.0, "p{p}");
    }
    assert_eq!((h.mean(), h.min(), h.max()), (0.0, 0.0, 0.0));
}

#[test]
#[should_panic(expected = "outside (0, 100]")]
fn percentile_range_is_checked_even_when_empty() {
    LogHistogram::new().percentile(0.0);
}

#[test]
fn percentile_under_estimates_within_one_bucket() {
    let mut h = LogHistogram::new();
    for i in 1..=1000 {
        h.record(i as f64);
    }
    for p in [10.0, 50.0, 90.0, 99.0] {
        let exact = (p / 100.0 * 1000.0_f64).ceil();
        let approx = h.percentile(p);
        assert!(approx <= exact + 1e-9, "p{p}: {approx} > {exact}");
        assert!(
            approx >= exact * (1.0 - LogHistogram::MAX_RELATIVE_ERROR) - 1e-9,
            "p{p}: {approx} below error bound of {exact}"
        );
    }
}

#[test]
fn absorb_matches_recording_directly() {
    let mut a = LogHistogram::new();
    let mut b = LogHistogram::new();
    let mut all = LogHistogram::new();
    for i in 0..500 {
        let v = (i as f64) * 1.7 + 0.3;
        if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        all.record(v);
    }
    a.absorb(&b);
    assert_eq!(a, all);
}

#[test]
fn cdf_is_monotonic() {
    let mut h = LogHistogram::new();
    for i in 0..300 {
        h.record((i % 37) as f64 + 0.5);
    }
    let pts: Vec<f64> = (0..40).map(|i| i as f64).collect();
    let cdf = h.cdf(&pts);
    for w in cdf.windows(2) {
        assert!(w[1].1 >= w[0].1);
    }
    assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
}

#[test]
fn zero_and_negative_fall_into_the_floor_bucket() {
    let mut h = LogHistogram::new();
    h.record(0.0);
    h.record(-3.0);
    h.record(2.0);
    assert_eq!(h.len(), 3);
    assert_eq!(h.percentile(50.0), 0.0_f64.clamp(h.min(), h.max()));
    assert_eq!(h.max(), 2.0);
}

#[test]
fn memory_is_bounded_by_the_octave_span() {
    let mut h = LogHistogram::new();
    for i in 0..1_000_000u64 {
        h.record(50.0 + (i % 1000) as f64);
    }
    assert_eq!(h.len(), 1_000_000);
    // 50..1050 spans 4.4 octaves of 64 buckets each.
    assert!(h.counts.len() < 300, "got {} buckets", h.counts.len());
    // Bucket 0 is a counter of its own: a zero beside 100 allocates
    // one positive bucket, not the 65 000 between them.
    let mut h = LogHistogram::new();
    h.record(100.0);
    h.record(0.0);
    assert_eq!((h.floor, h.counts.len()), (1, 1));
    // The whole finite range, smallest sample last so the front
    // grows: 2 047 binary exponents, about 1 MB.
    let mut h = LogHistogram::new();
    h.record(f64::MAX);
    h.record(f64::from_bits(1));
    assert_eq!(h.counts.len(), 2_047 * 64);
}

/// The histogram as it was first written — a `BTreeMap` keyed by
/// bucket index — kept verbatim as the reference the dense bucket
/// array is compared against.
#[derive(Debug, Clone, Default, PartialEq)]
struct RefHist {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RefHist {
    fn bucket_index(v: f64) -> u32 {
        if v > 0.0 && v.is_finite() {
            (v.to_bits() >> (52 - LogHistogram::SUB_BUCKET_BITS)) as u32 + 1
        } else {
            0
        }
    }

    fn bucket_lower_bound(idx: u32) -> f64 {
        if idx == 0 {
            0.0
        } else {
            f64::from_bits(u64::from(idx - 1) << (52 - LogHistogram::SUB_BUCKET_BITS))
        }
    }

    fn record(&mut self, v: f64) {
        *self.buckets.entry(Self::bucket_index(v)).or_insert(0) += 1;
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

    fn absorb(&mut self, other: &RefHist) {
        if other.count == 0 {
            return;
        }
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
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

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    fn percentile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
        if self.count == 0 {
            return 0.0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Self::bucket_lower_bound(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn cdf(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&p| {
                let below: u64 = self
                    .buckets
                    .iter()
                    .take_while(|&(&idx, _)| Self::bucket_lower_bound(idx) <= p)
                    .map(|(_, &n)| n)
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

const PERCENTILES: [f64; 12] = [
    1e-3, 0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 99.99, 100.0,
];

/// One sample of every kind a histogram can be fed: µs-scale
/// latencies (most of them), zeros of both signs, negatives, NaN,
/// ±inf, subnormals and values near the ends of the exponent range.
fn sample(kind: u8, u: f64) -> f64 {
    match kind {
        0..=5 => 10f64.powf(u * 6.0),
        6 => 0.0,
        7 => -0.0,
        8 => -1e3 * u,
        9 => f64::NAN,
        10 => f64::INFINITY,
        11 => f64::NEG_INFINITY,
        12 => f64::from_bits(1 + (u * (1u64 << 52) as f64) as u64),
        13 => 1e300 * (1.0 + u),
        14 => 1e-300 * (1.0 + u),
        _ => [f64::MAX, f64::MIN_POSITIVE, f64::MIN][(u * 3.0) as usize],
    }
}

/// `v`'s bit pattern, every NaN as one: the sign and payload of a NaN
/// an arithmetic operation returns are unspecified, and an optimised
/// build does not produce the same one in every inlined copy of a sum.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// The exact aggregates of `h` equal the reference's, bit for bit.
fn aggregates_agree(h: &LogHistogram, r: &RefHist) -> Result<(), String> {
    prop_assert_eq!(h.len(), r.count);
    prop_assert_eq!(h.is_empty(), r.count == 0);
    prop_assert_eq!(bits(h.sum()), bits(r.sum));
    prop_assert_eq!(bits(h.mean()), bits(r.mean()));
    prop_assert_eq!(bits(h.min()), bits(r.min()));
    prop_assert_eq!(bits(h.max()), bits(r.max()));
    Ok(())
}

/// Everything observable of `h` equals the reference, bit for bit:
/// the aggregates, a grid of percentiles and the CDF at points on
/// both sides of every bucket kind.
fn agrees(h: &LogHistogram, r: &RefHist) -> Result<(), String> {
    let pairs = |c: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
        c.into_iter().map(|(p, f)| (bits(p), bits(f))).collect()
    };
    aggregates_agree(h, r)?;
    // Memory: the array spans the positive buckets touched, with fewer
    // leading zeros than that from growing at the front.
    let mut positive = r.buckets.keys().filter(|&&idx| idx > 0);
    let span = match (positive.next(), positive.next_back()) {
        (Some(lo), Some(hi)) => hi - lo + 1,
        (lo, _) => u32::from(lo.is_some()),
    };
    prop_assert!(
        h.counts.len() <= 2 * span as usize,
        "{} buckets for a span of {span}",
        h.counts.len()
    );
    // `clamp` panics on a NaN bound, which an all-NaN histogram has
    // on either side alike.
    if !r.min.is_nan() && !r.max.is_nan() {
        for p in PERCENTILES {
            prop_assert_eq!(bits(h.percentile(p)), bits(r.percentile(p)), "p{}", p);
        }
    }
    let points = [
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        1e-310,
        1e-300,
        0.5,
        1.0,
        100.0,
        1e6,
        1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ];
    prop_assert_eq!(pairs(h.cdf(&points)), pairs(r.cdf(&points)));
    Ok(())
}

proptest! {
    /// The histogram against the `BTreeMap` one it replaced: random
    /// `record` / `absorb` sequences over two histograms, the exact
    /// aggregates bit-equal and `==` answering as the reference's
    /// does after every step, every accessor bit-equal at the end.
    /// (Percentiles and the CDF walk every bucket of the span, up to
    /// 131 008 once `f64::MAX` and a subnormal are both in.)
    #[test]
    fn dense_buckets_match_the_btree_histogram(
        ops in prop::collection::vec((0u8..8, 0u8..16, 0.0f64..1.0), 1..200),
    ) {
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        let (mut ra, mut rb) = (RefHist::default(), RefHist::default());
        for &(op, kind, u) in &ops {
            let v = sample(kind, u);
            match op {
                0..=2 => {
                    a.record(v);
                    ra.record(v);
                }
                3 | 4 => {
                    b.record(v);
                    rb.record(v);
                }
                5 => {
                    a.absorb(&b);
                    ra.absorb(&rb);
                }
                6 => {
                    b.absorb(&a);
                    rb.absorb(&ra);
                }
                _ => {
                    b = LogHistogram::new();
                    rb = RefHist::default();
                }
            }
            aggregates_agree(&a, &ra)?;
            aggregates_agree(&b, &rb)?;
            prop_assert_eq!(a == b, ra == rb);
        }
        agrees(&a, &ra)?;
        agrees(&b, &rb)?;
        prop_assert_eq!(a == a.clone(), ra == ra.clone());
    }

    /// Equal content compares equal however it was built: the same
    /// samples recorded forwards, backwards, and split over two
    /// histograms merged either way round. The samples are dyadic
    /// over 40 octaves, so every order sums them exactly and the
    /// reference's `==` holds for every pair.
    #[test]
    fn equality_ignores_how_a_histogram_grew(
        samples in prop::collection::vec((0u8..8, 1u32..64, 0i32..40), 1..120),
    ) {
        let values: Vec<f64> = samples
            .iter()
            .map(|&(kind, k, e)| {
                let v = f64::from(k) * 2f64.powi(e - 20);
                match kind {
                    0 => 0.0,
                    1 => -v,
                    _ => v,
                }
            })
            .collect();
        let build = |vals: &mut dyn Iterator<Item = f64>| {
            let (mut h, mut r) = (LogHistogram::new(), RefHist::default());
            for v in vals {
                h.record(v);
                r.record(v);
            }
            (h, r)
        };
        let half = values.len() / 2;
        let forward = build(&mut values.iter().copied());
        let backward = build(&mut values.iter().rev().copied());
        let (mut lo_hi, mut lo_hi_ref) = build(&mut values[..half].iter().copied());
        let hi = build(&mut values[half..].iter().rev().copied());
        lo_hi.absorb(&hi.0);
        lo_hi_ref.absorb(&hi.1);
        let (mut hi_lo, mut hi_lo_ref) = hi;
        let lo = build(&mut values[..half].iter().copied());
        hi_lo.absorb(&lo.0);
        hi_lo_ref.absorb(&lo.1);
        let built = [
            (forward.0, forward.1),
            (backward.0, backward.1),
            (lo_hi, lo_hi_ref),
            (hi_lo, hi_lo_ref),
        ];
        for (h, r) in &built {
            agrees(h, r)?;
            for (h2, r2) in &built {
                prop_assert!(r == r2, "the reference must see equal content");
                prop_assert_eq!(h == h2, r == r2);
            }
        }
    }
}
