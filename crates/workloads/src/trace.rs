//! Trace recording and replay.
//!
//! Workload generators are deterministic per seed, but experiments often
//! need to pin the *exact* request stream across codebase versions or
//! share it between tools. A [`Trace`] holds a request stream; its one
//! file format is MSR-Cambridge-style CSV ([`Trace::from_msr_csv`],
//! [`Trace::to_msr_csv`]). [`Trace::replay`] turns it back into a
//! request iterator usable anywhere a generator is.

use crate::Workload;
use ssdsim::{HostOp, HostRequest};
use std::fmt::Write as _;

/// A recorded request stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    requests: Vec<HostRequest>,
    label: String,
}

/// Error parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// Records up to `n` requests from a generator.
    pub fn record(source: &mut dyn Workload, n: usize) -> Self {
        let label = source.label().to_owned();
        Trace {
            requests: source.take(n).collect(),
            label,
        }
    }

    /// Builds a trace from explicit requests.
    pub fn from_requests(label: impl Into<String>, requests: Vec<HostRequest>) -> Self {
        Trace {
            requests,
            label: label.into(),
        }
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The recorded requests.
    pub fn requests(&self) -> &[HostRequest] {
        &self.requests
    }

    /// An owning iterator replaying the trace as a [`Workload`].
    pub fn replay(&self) -> TraceReplay {
        self.clone().into_replay()
    }

    /// [`Trace::replay`] without the copy.
    pub fn into_replay(self) -> TraceReplay {
        TraceReplay {
            requests: self.requests,
            label: self.label,
            pos: 0,
        }
    }

    /// The workload label the trace was recorded from.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Parses an MSR-Cambridge-style CSV block trace.
    ///
    /// Accepted rows are either the full seven-field MSR form
    /// (`Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`)
    /// or the reduced four-field form (`Timestamp,Offset,Size,Type`);
    /// `Type` is `Read`/`Write` (case-insensitive, `R`/`W` accepted),
    /// `Offset` and `Size` are bytes. Byte ranges are converted to page
    /// spans of `page_bytes` (span = ceil, at least one page) and folded
    /// into the `logical_pages` address space modulo its size, so any
    /// real trace replays against any simulated device geometry.
    /// Timestamps only order the rows (the simulator is closed-loop);
    /// rows must already be in issue order, as MSR traces are.
    pub fn from_msr_csv(
        text: &str,
        page_bytes: u64,
        logical_pages: u64,
    ) -> Result<Self, ParseTraceError> {
        assert!(page_bytes > 0, "page size must be positive");
        assert!(logical_pages > 0, "need a logical address space");
        let mut requests = Vec::new();
        let mut label = "MSR-trace".to_owned();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            let err = |message: String| ParseTraceError {
                line: idx + 1,
                message,
            };
            if let Some(rest) = line.strip_prefix("# label:") {
                label = rest.trim().to_owned();
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            let (op_field, offset_field, size_field) = match fields.len() {
                7 => (fields[3], fields[4], fields[5]),
                4 => (fields[3], fields[1], fields[2]),
                n => return Err(err(format!("expected 4 or 7 CSV fields, got {n}"))),
            };
            // Header row: skip if the type column is a column name (both
            // header forms name it `Type`).
            if idx == 0 && op_field.eq_ignore_ascii_case("type") {
                continue;
            }
            let op = match op_field.to_ascii_lowercase().as_str() {
                "read" | "r" => HostOp::Read,
                "write" | "w" => HostOp::Write,
                "trim" | "t" => HostOp::Trim,
                other => return Err(err(format!("unknown op `{other}`"))),
            };
            let offset: u64 = offset_field
                .parse()
                .map_err(|_| err(format!("bad byte offset `{offset_field}`")))?;
            let size: u64 = size_field
                .parse()
                .map_err(|_| err(format!("bad byte size `{size_field}`")))?;
            let lpn = (offset / page_bytes) % logical_pages;
            let span = size.div_ceil(page_bytes).max(1);
            // Clamp the span to the address space end; u32 is ample (a
            // single request never spans billions of pages).
            let span = span.min(logical_pages - lpn);
            let n_pages = u32::try_from(span).unwrap_or(u32::MAX);
            requests.push(HostRequest { op, lpn, n_pages });
        }
        Ok(Trace { requests, label })
    }

    /// Serializes the trace as MSR-Cambridge-style CSV (the full
    /// seven-field form [`Trace::from_msr_csv`] accepts): row index as
    /// the timestamp, page-aligned byte offsets/sizes at `page_bytes`
    /// per page. Re-parsing the output against the same page size and
    /// an address space at least as large as the recorded LPNs yields
    /// the identical request sequence (`--capture-trace-out` relies on
    /// this round trip).
    pub fn to_msr_csv(&self, page_bytes: u64) -> String {
        assert!(page_bytes > 0, "page size must be positive");
        let mut out = String::with_capacity(64 + self.requests.len() * 40);
        out.push_str("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
        let _ = writeln!(out, "# label: {}", self.label);
        for (i, r) in self.requests.iter().enumerate() {
            let op = match r.op {
                HostOp::Read => "Read",
                HostOp::Write => "Write",
                HostOp::Trim => "Trim",
            };
            let _ = writeln!(
                out,
                "{i},cubeftl,0,{op},{},{},0",
                r.lpn * page_bytes,
                u64::from(r.n_pages) * page_bytes
            );
        }
        out
    }
}

/// Iterator replaying a [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceReplay {
    requests: Vec<HostRequest>,
    label: String,
    pos: usize,
}

impl Iterator for TraceReplay {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        let r = self.requests.get(self.pos).copied();
        self.pos += 1;
        r
    }
}

impl Workload for TraceReplay {
    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StandardWorkload;

    #[test]
    fn replay_matches_recording() {
        let mut gen = StandardWorkload::Rocks.build(10_000, 5);
        let trace = Trace::record(gen.as_mut(), 100);
        let replayed: Vec<_> = trace.replay().collect();
        assert_eq!(replayed, trace.requests());
        // Replay again from a fresh iterator: identical.
        let again: Vec<_> = trace.replay().collect();
        assert_eq!(again, replayed);
    }

    #[test]
    fn msr_csv_full_and_reduced_forms_parse() {
        let text = "\
Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
128166372003061629,prxy,0,Read,65536,16384,500
128166372003061700,prxy,0,Write,131072,32768,600
";
        let t = Trace::from_msr_csv(text, 16384, 1_000_000).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests()[0], HostRequest::read_span(4, 1));
        assert_eq!(t.requests()[1], HostRequest::write_span(8, 2));

        // Blank lines and `#` comments are skipped.
        let reduced = "1000,65536,4096,R\n# a comment\n\n2000,16384,16385,w\n";
        let t = Trace::from_msr_csv(reduced, 16384, 1_000_000).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests()[0], HostRequest::read_span(4, 1));
        assert_eq!(t.requests()[1], HostRequest::write_span(1, 2), "size ceils");

        // Empty input is an empty trace.
        let t = Trace::from_msr_csv("", 16384, 1_000_000).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.replay().count(), 0);
    }

    #[test]
    fn msr_csv_folds_into_address_space() {
        // Offset far beyond the device wraps modulo the space; spans are
        // clamped at the end of the space.
        let t = Trace::from_msr_csv("0,163840,65536,R\n", 16384, 12).unwrap();
        let r = t.requests()[0];
        assert_eq!(r.lpn, 10);
        assert_eq!(r.n_pages, 2, "span clamped at space end");
        for lpn in r.lpns() {
            assert!(lpn < 12);
        }
    }

    #[test]
    fn msr_csv_rejects_malformed_rows() {
        assert!(Trace::from_msr_csv("1,2,3\n", 16384, 100).is_err());
        assert!(Trace::from_msr_csv("1000,65536,4096,Fsync\n", 16384, 100).is_err());
        let e = Trace::from_msr_csv("0,0,1,R\n1000,notanumber,4096,R\n", 16384, 100).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn msr_csv_first_row_is_a_header_only_if_it_names_the_type_column() {
        // A malformed first data row is an error, not a skipped header.
        let e = Trace::from_msr_csv("0,host,0,Read,abc,4096,0\n", 16384, 100).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("bad byte offset"), "{}", e.message);
        let e = Trace::from_msr_csv("0,abc,4096,R\n", 16384, 100).unwrap_err();
        assert_eq!(e.line, 1);
        // Both header forms name the type column `Type`.
        let full = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n0,h,0,W,0,1,0\n";
        assert_eq!(Trace::from_msr_csv(full, 16384, 100).unwrap().len(), 1);
        let reduced = "Timestamp,Offset,Size,Type\n0,0,1,W\n";
        assert_eq!(Trace::from_msr_csv(reduced, 16384, 100).unwrap().len(), 1);
        // Only the first row may be a header.
        let e =
            Trace::from_msr_csv("0,0,1,W\nTimestamp,Offset,Size,Type\n", 16384, 100).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn msr_csv_export_round_trips_including_trims() {
        let mut gen = StandardWorkload::Mail.build(10_000, 5);
        let mut trace = Trace::record(gen.as_mut(), 300);
        assert_eq!((trace.len(), trace.label()), (300, "Mail"));
        trace.requests.push(HostRequest::trim_span(123, 4));
        let csv = trace.to_msr_csv(16_384);
        let parsed = Trace::from_msr_csv(&csv, 16_384, 10_000).unwrap();
        assert_eq!(parsed.requests(), trace.requests());
        assert_eq!(parsed.label(), trace.label(), "label survives the CSV");
        // And the export is byte-stable.
        assert_eq!(parsed.to_msr_csv(16_384), csv);
    }
}
