//! Virtual-time series: periodic registry snapshots as CSV or NDJSON.
//!
//! The simulator appends one [`SampleRow`] every `--sample-interval-us`
//! of *virtual* time (sampling is driven by event-loop time-threshold
//! crossings, so the rows are independent of how the run is sliced into
//! steps and of the worker-thread count). Windowed columns (IOPS, tPROG
//! mean/p99, retry rate) cover the interval since the previous row;
//! cumulative/instantaneous columns (completed, queue depth, free
//! blocks, WA) are as of the sample instant.

use crate::Value;
use std::fmt::Write as _;

/// The column table: one entry per column, `name: type`, in export
/// order. [`SampleRow`], the CSV header and both row writers come from
/// here.
macro_rules! sample_columns {
    ($($(#[$doc:meta])* $col:ident: $ty:ty,)*) => {
        /// One sample of the time series.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct SampleRow {
            $($(#[$doc])* pub $col: $ty,)*
        }

        /// CSV column order shared by the writer and its header.
        const COLUMNS: &[&str] = &[$(stringify!($col)),*];

        impl SampleRow {
            /// Appends every column as `,value`.
            fn write_csv(&self, out: &mut String) {
                $(out.push(','); self.$col.write(out);)*
            }

            /// Appends every column as `,"name":value`.
            fn write_json(&self, out: &mut String) {
                $(json_field!(out, $col, &self.$col);)*
            }
        }
    };
}

sample_columns! {
    /// Virtual sample instant in µs.
    t_us: f64,
    /// Cumulative host requests completed.
    completed: u64,
    /// Window throughput in IOPS.
    iops: f64,
    /// Mean NAND program latency of host WL programs in the window, µs.
    tprog_mean_us: f64,
    /// p99 NAND program latency of host WL programs in the window, µs.
    tprog_p99_us: f64,
    /// Read retries per NAND read in the window.
    retry_rate: f64,
    /// Operations queued across all chips at the sample instant.
    queue_depth: u64,
    /// Free blocks across all chips at the sample instant.
    free_blocks: u64,
    /// Cumulative total write amplification (0 until the first host WL).
    wa_total: f64,
}

/// A complete sampled series for one run (or one shard).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// Sampling interval in virtual µs.
    pub interval_us: f64,
    /// Rows in time order. For a multi-shard array, shard series are
    /// concatenated in shard order with a `shard` column in the export.
    pub rows: Vec<(u32, SampleRow)>,
}

impl Series {
    /// An empty series with the given interval.
    pub fn new(interval_us: f64) -> Self {
        Series {
            interval_us,
            rows: Vec::new(),
        }
    }

    /// Appends a row for `shard`.
    pub fn push(&mut self, shard: u32, row: SampleRow) {
        self.rows.push((shard, row));
    }

    /// Appends another series (used for shard-order fan-in).
    pub fn extend(&mut self, other: &Series) {
        self.rows.extend_from_slice(&other.rows);
    }

    /// Exports as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 + self.rows.len() * 64);
        out.push_str("shard,");
        out.push_str(&COLUMNS.join(","));
        out.push('\n');
        for (shard, r) in &self.rows {
            let _ = write!(out, "{shard}");
            r.write_csv(&mut out);
            out.push('\n');
        }
        out
    }

    /// Exports as NDJSON, one `{"type":"sample",...}` object per row.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 160);
        for (shard, r) in &self.rows {
            let _ = write!(out, "{{\"type\":\"sample\",\"shard\":{shard}");
            r.write_json(&mut out);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: f64) -> SampleRow {
        SampleRow {
            t_us: t,
            completed: 10,
            iops: 1000.0,
            tprog_mean_us: 586.5,
            tprog_p99_us: 703.0,
            retry_rate: 0.25,
            queue_depth: 3,
            free_blocks: 40,
            wa_total: 1.5,
        }
    }

    #[test]
    fn csv_header_matches_row_arity() {
        let mut s = Series::new(100.0);
        s.push(0, row(100.0));
        let csv = s.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let data = lines.next().unwrap();
        assert_eq!(header.split(',').count(), data.split(',').count());
        // Every `SampleRow` field is 8 bytes wide, so this fails when a
        // field exists outside the `sample_columns!` list.
        assert_eq!(std::mem::size_of::<SampleRow>(), 8 * COLUMNS.len());
        assert!(header.starts_with("shard,t_us,"));
        assert!(data.starts_with("0,100,10,1000,"));
    }

    #[test]
    fn shard_fan_in_concatenates_in_call_order() {
        let mut merged = Series::new(50.0);
        let mut s0 = Series::new(50.0);
        s0.push(0, row(50.0));
        let mut s1 = Series::new(50.0);
        s1.push(1, row(50.0));
        merged.extend(&s0);
        merged.extend(&s1);
        let shards: Vec<u32> = merged.rows.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, vec![0, 1]);
    }

    #[test]
    fn ndjson_rows_are_self_describing() {
        let mut s = Series::new(10.0);
        s.push(2, row(20.0));
        let line = s.to_ndjson();
        assert!(line.starts_with("{\"type\":\"sample\",\"shard\":2,\"t_us\":20,"));
        assert!(line.trim_end().ends_with('}'));
    }
}
