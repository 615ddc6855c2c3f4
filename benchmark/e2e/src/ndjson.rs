//! Reader for the simulator's `--metrics-out` NDJSON: one object per
//! line, `{"metric": NAME, "type": "counter"|"gauge", "value": V}` or
//! `{"metric": NAME, "type": "histogram", "count", "mean", "p50", "p99",
//! "min", "max"}`. The schema is golden-tested in `tests/telemetry.rs`.

use crate::json::Json;
use std::collections::BTreeMap;

/// One exported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// The summary a histogram line carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    pub min: f64,
    pub max: f64,
}

/// A parsed metrics file, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFile {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsFile {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut metrics = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (name, metric) = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            metrics.insert(name, metric);
        }
        Ok(MetricsFile { metrics })
    }

    /// A counter or gauge as a number; `None` for histograms and
    /// unknown names.
    pub fn num(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name)? {
            Metric::Counter(v) => Some(*v as f64),
            Metric::Gauge(v) => Some(*v),
            Metric::Histogram(_) => None,
        }
    }

    pub fn hist(&self, name: &str) -> Option<Histogram> {
        match self.metrics.get(name)? {
            Metric::Histogram(h) => Some(*h),
            _ => None,
        }
    }

    /// Every `(name, metric)` whose name starts with `prefix` and ends
    /// with `suffix`, in name order.
    pub fn matching<'a>(
        &'a self,
        prefix: &'a str,
        suffix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Metric)> {
        self.metrics
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(n, m)| (n.as_str(), m))
    }
}

fn parse_line(line: &str) -> Result<(String, Metric), String> {
    let obj = Json::parse(line)?;
    let field = |k: &str| obj.get(k).ok_or_else(|| format!("missing \"{k}\""));
    let num = |k: &str| {
        field(k)?
            .as_f64()
            .ok_or_else(|| format!("\"{k}\" is not a number"))
    };
    let name = field("metric")?
        .as_str()
        .ok_or("\"metric\" is not a string")?
        .to_owned();
    let metric = match field("type")?.as_str() {
        Some("counter") => {
            let v = num("value")?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("counter {name} is not a whole number"));
            }
            Metric::Counter(v as u64)
        }
        Some("gauge") => Metric::Gauge(num("value")?),
        Some("histogram") => Metric::Histogram(Histogram {
            count: num("count")? as u64,
            mean: num("mean")?,
            p50: num("p50")?,
            p99: num("p99")?,
            min: num("min")?,
            max: num("max")?,
        }),
        other => return Err(format!("unknown metric type {other:?}")),
    };
    Ok((name, metric))
}

/// 64-bit FNV-1a of a file's bytes: the `sim_fingerprint`. Two runs of
/// the same code and seed must print the same one.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"metric":"ssd.completed","type":"counter","value":1000000}
{"metric":"ssd.iops","type":"gauge","value":36310.009780098}
{"metric":"ssd.read_latency_us","type":"histogram","count":840860,"mean":1047.04,"p50":944,"p99":2944,"min":5,"max":6500}
{"metric":"qos.tenant.0.read_latency_us","type":"histogram","count":3,"mean":1.5,"p50":1,"p99":2,"min":1,"max":2}
"#;

    #[test]
    fn reads_counter_gauge_and_histogram_lines() {
        let f = MetricsFile::parse(SAMPLE).unwrap();
        assert_eq!(f.num("ssd.completed"), Some(1_000_000.0));
        assert_eq!(f.num("ssd.iops"), Some(36310.009780098));
        let h = f.hist("ssd.read_latency_us").unwrap();
        assert_eq!(
            (h.count, h.p50, h.p99, h.max),
            (840_860, 944.0, 2944.0, 6500.0)
        );
        // A histogram is not a number and a number is not a histogram.
        assert_eq!(f.num("ssd.read_latency_us"), None);
        assert_eq!(f.hist("ssd.iops"), None);
        assert_eq!(f.num("ssd.absent"), None);
        let tenants: Vec<_> = f
            .matching("qos.tenant.", ".read_latency_us")
            .map(|(n, _)| n)
            .collect();
        assert_eq!(tenants, ["qos.tenant.0.read_latency_us"]);
    }

    #[test]
    fn rejects_lines_outside_the_schema() {
        for bad in [
            r#"{"metric":"x","type":"counter","value":1.5}"#,
            r#"{"metric":"x","type":"counter"}"#,
            r#"{"metric":"x","type":"timer","value":1}"#,
            r#"{"type":"gauge","value":1}"#,
            r#"{"metric":"x","type":"histogram","count":1}"#,
        ] {
            assert!(MetricsFile::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn fingerprint_separates_one_changed_byte() {
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fingerprint(b"ssd.iops 1"), fingerprint(b"ssd.iops 2"));
        assert_eq!(
            fingerprint(SAMPLE.as_bytes()),
            fingerprint(SAMPLE.as_bytes())
        );
    }
}
