//! `--agree A B`: do two result sets of the same code agree?
//!
//! A result set is the saved standard output of a run: lines of
//! `workload metric value unit`. Host end-to-end metrics must sit
//! within their bound of each other; every simulated value
//! (`sim_*`, `ok_ops_share`, the fingerprint, the exact per-layer
//! counts) must be identical, because the same seed gives the same
//! simulation. Host-time per-layer values are printed, not judged.

use crate::spec::{END_TO_END, PER_LAYER, SETUP_ABS_SLACK_S};
use crate::stats::{agree, worsening, Better};
use std::collections::BTreeMap;

/// `(workload, metric) -> (value text, unit)`, in file order per key.
pub type ResultSet = BTreeMap<(String, String), (String, String)>;

/// Reads the `workload metric value unit` lines of a saved run; JSON
/// result lines, comments and blank lines are skipped.
pub fn parse_results(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('{') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, unit] = fields[..] else {
            return Err(format!("line {}: expected 4 fields: {line}", i + 1));
        };
        set.insert(
            (workload.to_owned(), metric.to_owned()),
            (value.to_owned(), unit.to_owned()),
        );
    }
    if set.is_empty() {
        return Err("no result lines".into());
    }
    Ok(set)
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// Byte-equal value text.
    Exact,
    /// Within `bound` (plus an absolute slack) either way round.
    Bound(Better, f64, f64),
    /// Host time of one layer: report only, with its good direction.
    Report(Better),
}

fn rule(metric: &str) -> Rule {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == metric) {
        if metric.starts_with("sim_") || metric == "ok_ops_share" {
            return Rule::Exact;
        }
        let slack = if metric == "setup_s" {
            SETUP_ABS_SLACK_S
        } else {
            0.0
        };
        return Rule::Bound(m.better, m.bound, slack);
    }
    match PER_LAYER.iter().find(|m| m.name == metric) {
        Some(m) if !m.exact => Rule::Report(m.better),
        // Exact per-layer counts, and lines outside both tables
        // (`sim_fingerprint`), repeat byte for byte.
        _ => Rule::Exact,
    }
}

/// Compares two result sets; prints one line per metric and returns
/// the number of disagreements.
pub fn compare(a: &ResultSet, b: &ResultSet) -> usize {
    let mut failures = 0;
    for (key, (va, unit)) in a {
        let (workload, metric) = key;
        let Some((vb, _)) = b.get(key) else {
            println!("{workload} {metric} MISSING in the second set");
            failures += 1;
            continue;
        };
        let nums = va.parse::<f64>().ok().zip(vb.parse::<f64>().ok());
        let spread = nums.map(|(x, y)| {
            worsening(Better::Lower, x, y)
                .abs()
                .max(worsening(Better::Lower, y, x).abs())
        });
        let shown = spread.map_or("n/a".to_owned(), |s| format!("{:.3}%", s * 100.0));
        let verdict = match (rule(metric), nums) {
            (Rule::Exact, _) if va == vb => "ok (identical)".to_owned(),
            (Rule::Exact, _) => "FAIL (must be identical)".to_owned(),
            (Rule::Bound(better, bound, slack), Some((x, y))) => {
                if agree(better, x, y, bound, slack) {
                    format!("ok (bound {:.1}%)", bound * 100.0)
                } else {
                    format!("FAIL (bound {:.1}%)", bound * 100.0)
                }
            }
            (Rule::Bound(..), None) => "FAIL (not a number)".to_owned(),
            (Rule::Report(better), _) => format!("reported ({} is better)", better.label()),
        };
        if verdict.starts_with("FAIL") {
            failures += 1;
        }
        println!("{workload} {metric} {va} vs {vb} {unit} spread {shown} {verdict}");
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{} {} MISSING in the first set", key.0, key.1);
        failures += 1;
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "\
# perf ledger
read_retry setup_s 0.33 s
read_retry req_per_wall_s 600000 1/s
read_retry sim_iops 36140.41 1/s
read_retry sim_fingerprint 00ff hash
read_retry ftl.read_page_ns 812 ns
{\"correct\": true}
";

    #[test]
    fn parses_result_lines_and_skips_the_rest() {
        let set = parse_results(A).unwrap();
        assert_eq!(set.len(), 5);
        assert_eq!(
            set[&("read_retry".to_owned(), "sim_iops".to_owned())],
            ("36140.41".to_owned(), "1/s".to_owned())
        );
        assert!(parse_results("a b c\n").is_err());
        assert!(parse_results("# nothing\n").is_err());
    }

    #[test]
    fn host_metrics_get_their_bound_and_simulated_ones_none() {
        let a = parse_results(A).unwrap();
        assert_eq!(compare(&a, &a), 0);
        // 10 % off on a 25 % bound, 0.04 s off on set-up, layer time
        // far off: all fine.
        let b = parse_results(
            &A.replace("600000", "540000")
                .replace("0.33", "0.37")
                .replace("812", "1400"),
        )
        .unwrap();
        assert_eq!(compare(&a, &b), 0);
        // Outside the bound.
        let c = parse_results(&A.replace("600000", "400000")).unwrap();
        assert_eq!(compare(&a, &c), 1);
        // Any simulated difference fails, however small.
        let d = parse_results(&A.replace("36140.41", "36140.42").replace("00ff", "00fe")).unwrap();
        assert_eq!(compare(&a, &d), 2);
        // A metric present on one side only fails.
        let e = parse_results(&A.replace("read_retry setup_s 0.33 s\n", "")).unwrap();
        assert_eq!(compare(&a, &e), 1);
        assert_eq!(compare(&e, &a), 1);
    }
}
