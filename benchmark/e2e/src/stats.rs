//! Median and bound arithmetic shared by the runner and `--agree`.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// By what share of `base` the value `new` is worse, in the metric's
/// bad direction; negative when `new` is better.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / base.abs()
    }
}

/// Whether two measurements of the same thing agree: neither is worse
/// than the other by more than `bound` (a share), or by more than
/// `abs_slack` in the metric's own unit, whichever allowance is larger.
pub fn agree(better: Better, a: f64, b: f64, bound: f64, abs_slack: f64) -> bool {
    let spread = worsening(better, a, b).max(worsening(better, b, a));
    spread <= bound || (a - b).abs() <= abs_slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 200.0, 180.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 200.0, 220.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn agreement_is_symmetric_and_honours_the_absolute_slack() {
        // 10 % apart: inside a 15 % bound either way round, outside 5 %.
        assert!(agree(Better::Higher, 100.0, 90.0, 0.15, 0.0));
        assert!(agree(Better::Higher, 90.0, 100.0, 0.15, 0.0));
        assert!(!agree(Better::Higher, 100.0, 90.0, 0.05, 0.0));
        // Exact metrics: bound 0 admits only equal values.
        assert!(agree(Better::Lower, 1.25, 1.25, 0.0, 0.0));
        assert!(!agree(Better::Lower, 1.25, 1.2500001, 0.0, 0.0));
        // setup_s: +15 % or +0.05 s, whichever is larger.
        assert!(agree(Better::Lower, 0.10, 0.14, 0.15, 0.05));
        assert!(!agree(Better::Lower, 0.10, 0.16, 0.15, 0.05));
    }
}
