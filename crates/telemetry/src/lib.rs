//! # telemetry — deterministic instrumentation for the cubeFTL stack
//!
//! Three building blocks, shared by every crate in the workspace:
//!
//! * a **structured event trace** ([`TraceEvent`] / [`Collector`]):
//!   typed, virtual-timestamped records of the interesting things a run
//!   does — host I/O completions, ISPP programs, read-retry chains, GC
//!   victims, maintenance units, …: the kinds and categories are the
//!   two tables in [`event`] — gated by a per-category [`EventMask`]
//!   and serialized to NDJSON;
//! * a **metric registry** ([`MetricRegistry`]): named counters, gauges
//!   and log-bucketed histograms that `nand3d`, `ftl`, `ssdsim` and
//!   `ssdarray` register their end-of-run state into, exported as
//!   NDJSON (the legacy `SimReport`/`FtlStats` structs stay as
//!   compatibility views over the same numbers);
//! * a **time-series sampler** ([`Series`] / [`SampleRow`]): periodic
//!   snapshots on virtual-time boundaries (the column table in
//!   [`series`]) exported as CSV or NDJSON.
//!
//! ## Determinism rules
//!
//! Everything here is deterministic by construction, so telemetry files
//! from double runs — at any worker-thread count — are byte-identical:
//!
//! * **Virtual time only.** Every timestamp is simulated µs; wall-clock
//!   never enters any record.
//! * **Ordered merge.** Per-source event streams are merged with a
//!   stable two-way merge ([`merge_streams`]); multi-shard streams are
//!   concatenated strictly in shard order, never completion order.
//! * **Zero-cost when disabled.** A [`Collector`] with an empty mask
//!   never allocates; call sites guard payload construction behind
//!   [`Collector::wants`].
//! * **No floating-point re-derivation.** Serialized numbers use Rust's
//!   shortest-roundtrip `f64` formatting, which is platform- and
//!   run-stable.

use std::fmt::Write as _;

/// A value a telemetry writer can serialize — the five field kinds the
/// schema uses: integers, `f64` (non-finite values clamped to `0` so
/// the output is always a valid JSON/CSV number), `bool`, a quoted
/// `&'static str`, and `Option<&'static str>` (`null` when absent).
pub(crate) trait Value {
    /// Appends the JSON form (for numbers also the CSV form).
    fn write(&self, out: &mut String);
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_values!(u32, u64, bool);

impl Value for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push('0');
        }
    }
}

impl Value for &'static str {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
}

impl Value for Option<&'static str> {
    fn write(&self, out: &mut String) {
        match self {
            Some(s) => s.write(out),
            None => out.push_str("null"),
        }
    }
}

/// Formats an `f64` for serialization: shortest-roundtrip decimal form
/// (Rust's `Display`), with non-finite values clamped to `0` so the
/// output is always a valid JSON/CSV number.
pub fn fmt_num(v: f64) -> String {
    let mut s = String::new();
    v.write(&mut s);
    s
}

/// Appends `,"name":value` to a JSON object under construction.
macro_rules! json_field {
    ($out:expr, $name:ident, $value:expr) => {{
        $out.push_str(concat!(",\"", stringify!($name), "\":"));
        crate::Value::write($value, $out);
    }};
}

pub mod event;
pub mod hist;
pub mod json;
pub mod registry;
pub mod series;

pub use event::{events_to_ndjson, merge_streams, Collector, EventKind, EventMask, TraceEvent};
pub use hist::LogHistogram;
pub use json::{validate_ndjson, validate_trace_ndjson};
pub use registry::{MetricRegistry, MetricValue};
pub use series::{SampleRow, Series};
