//! Trace recording and replay.
//!
//! Workload generators are deterministic per seed, but experiments often
//! need to pin the *exact* request stream across codebase versions or
//! share it between tools. A [`Trace`] captures a request stream in a
//! simple line-oriented text format:
//!
//! ```text
//! # cubeftl trace v1
//! R 4096 1
//! W 128 3
//! T 640 4
//! ```
//!
//! (`R`/`W`/`T` for read/write/trim, first LPN, page count.) [`Trace::replay`] turns it back
//! into a request iterator usable anywhere a generator is.

use crate::Workload;
use ssdsim::{HostOp, HostRequest};
use std::fmt::Write as _;
use std::str::FromStr;

/// Header line identifying the format.
pub const TRACE_HEADER: &str = "# cubeftl trace v1";

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

    /// Serializes to the line format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(TRACE_HEADER);
        out.push('\n');
        let _ = writeln!(out, "# label: {}", self.label);
        for r in &self.requests {
            let op = match r.op {
                HostOp::Read => 'R',
                HostOp::Write => 'W',
                HostOp::Trim => 'T',
            };
            let _ = writeln!(out, "{op} {} {}", r.lpn, r.n_pages);
        }
        out
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
            // Header row: skip if the type column is a column name.
            if idx == 0 && offset_field.parse::<u64>().is_err() {
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

impl FromStr for Trace {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut lines = s.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == TRACE_HEADER => {}
            _ => {
                return Err(ParseTraceError {
                    line: 1,
                    message: format!("missing header `{TRACE_HEADER}`"),
                })
            }
        }
        let mut label = String::new();
        let mut requests = Vec::new();
        for (idx, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# label:") {
                label = rest.trim().to_owned();
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let err = |message: String| ParseTraceError {
                line: idx + 1,
                message,
            };
            let op = match parts.next() {
                Some("R") => HostOp::Read,
                Some("W") => HostOp::Write,
                Some("T") => HostOp::Trim,
                other => return Err(err(format!("expected R, W or T, got {other:?}"))),
            };
            let lpn: u64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err("bad LPN".to_owned()))?;
            let n_pages: u32 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err("bad page count".to_owned()))?;
            if n_pages == 0 {
                return Err(err("page count must be positive".to_owned()));
            }
            if parts.next().is_some() {
                return Err(err("trailing fields".to_owned()));
            }
            requests.push(HostRequest { op, lpn, n_pages });
        }
        Ok(Trace { requests, label })
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
    fn record_serialize_parse_roundtrip() {
        let mut gen = StandardWorkload::Mail.build(10_000, 5);
        let trace = Trace::record(gen.as_mut(), 200);
        assert_eq!(trace.len(), 200);
        assert_eq!(trace.label(), "Mail");
        let text = trace.to_text();
        let parsed: Trace = text.parse().expect("roundtrip");
        assert_eq!(parsed, trace);
    }

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
    fn parse_rejects_garbage() {
        assert!("not a trace".parse::<Trace>().is_err());
        let bad_op = format!("{TRACE_HEADER}\nX 1 1\n");
        let e = bad_op.parse::<Trace>().unwrap_err();
        assert_eq!(e.line, 2);
        let bad_pages = format!("{TRACE_HEADER}\nR 1 0\n");
        assert!(bad_pages.parse::<Trace>().is_err());
        let trailing = format!("{TRACE_HEADER}\nR 1 1 junk\n");
        assert!(trailing.parse::<Trace>().is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = format!("{TRACE_HEADER}\n# a comment\n\nR 7 2\nW 9 1\n");
        let t: Trace = text.parse().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests()[0], HostRequest::read_span(7, 2));
        assert_eq!(t.requests()[1], HostRequest::write(9));
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

        let reduced = "1000,65536,4096,R\n2000,16384,16385,w\n";
        let t = Trace::from_msr_csv(reduced, 16384, 1_000_000).unwrap();
        assert_eq!(t.requests()[0], HostRequest::read_span(4, 1));
        assert_eq!(t.requests()[1], HostRequest::write_span(1, 2), "size ceils");
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
    fn msr_csv_export_round_trips_including_trims() {
        let mut gen = StandardWorkload::Mail.build(10_000, 5);
        let mut trace = Trace::record(gen.as_mut(), 300);
        trace.requests.push(HostRequest::trim_span(123, 4));
        let csv = trace.to_msr_csv(16_384);
        let parsed = Trace::from_msr_csv(&csv, 16_384, 10_000).unwrap();
        assert_eq!(parsed.requests(), trace.requests());
        assert_eq!(parsed.label(), trace.label(), "label survives the CSV");
        // And the export is byte-stable.
        assert_eq!(parsed.to_msr_csv(16_384), csv);
    }

    #[test]
    fn empty_trace_is_valid() {
        let t: Trace = TRACE_HEADER.parse().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.replay().count(), 0);
    }
}
