//! Named metric registry: counters, gauges, log-bucketed histograms.
//!
//! Components register their end-of-run state under dotted names
//! (`ssd.reads`, `ftl.gc_page_moves`, `chip0.max_queue_depth`, ...);
//! the registry exports everything as NDJSON, sorted by metric name so
//! the output is independent of registration order.

use crate::{fmt_num, LogHistogram};
use std::fmt::Write as _;

/// One registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic event count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A full latency/size distribution.
    Histogram(LogHistogram),
}

/// An insertion-ordered collection of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRegistry {
    entries: Vec<(String, MetricValue)>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.entries
            .push((name.to_owned(), MetricValue::Counter(value)));
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.entries
            .push((name.to_owned(), MetricValue::Gauge(value)));
    }

    /// Registers a histogram (cloned; the caller keeps its copy).
    pub fn histogram(&mut self, name: &str, hist: &LogHistogram) {
        self.entries
            .push((name.to_owned(), MetricValue::Histogram(hist.clone())));
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The registered `(name, value)` pairs in registration order.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Exports every metric as NDJSON, one object per line, sorted by
    /// metric name. Histograms export their exact aggregates plus
    /// bucketed p50/p99 (see [`LogHistogram::percentile`]).
    pub fn to_ndjson(&self) -> String {
        let mut sorted: Vec<&(String, MetricValue)> = self.entries.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::with_capacity(sorted.len() * 64);
        for (name, value) in sorted {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"metric\":\"{name}\",\"type\":\"counter\",\"value\":{v}}}"
                    );
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"metric\":\"{name}\",\"type\":\"gauge\",\"value\":{}}}",
                        fmt_num(*v)
                    );
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{{\"metric\":\"{name}\",\"type\":\"histogram\",\"count\":{},\
                         \"mean\":{},\"p50\":{},\"p99\":{},\"min\":{},\"max\":{}}}",
                        h.len(),
                        fmt_num(h.mean()),
                        fmt_num(h.percentile(50.0)),
                        fmt_num(h.percentile(99.0)),
                        fmt_num(h.min()),
                        fmt_num(h.max())
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_sorted_by_name_not_registration_order() {
        let mut reg = MetricRegistry::new();
        reg.counter("z.last", 1);
        reg.gauge("a.first", 2.5);
        let out = reg.to_ndjson();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("a.first"));
        assert!(lines[1].contains("z.last"));
    }

    #[test]
    fn histogram_line_carries_exact_aggregates() {
        let mut h = LogHistogram::new();
        h.record(10.0);
        h.record(20.0);
        let mut reg = MetricRegistry::new();
        reg.histogram("lat", &h);
        let out = reg.to_ndjson();
        assert!(out.contains("\"count\":2"));
        assert!(out.contains("\"mean\":15"));
        assert!(out.contains("\"max\":20"));
    }

    #[test]
    fn lookup_by_name() {
        let mut reg = MetricRegistry::new();
        reg.counter("x", 7);
        assert_eq!(reg.get("x"), Some(&MetricValue::Counter(7)));
        assert_eq!(reg.get("y"), None);
    }
}
