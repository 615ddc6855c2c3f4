//! The frozen benchmark definition: four workloads and the metric
//! tables. `BENCHMARK.json` at the repository root states the same
//! names, units, directions and bounds; `tests::matches_benchmark_json`
//! fails when the two drift apart.
//!
//! Nothing here is calibrated at run time. Request counts were sized
//! once, on the commit that added the benchmark, so that one timed
//! invocation takes about four seconds of wall on the 2-core reference
//! box; arrival interval and SLOs of `qos_open` were fixed the same way
//! (see `benchmark/README.md`).

use crate::stats::Better;

/// One benchmark workload: a frozen `cubeftl-sim` flag line.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Every flag except `--requests`, `--seed` and output files.
    pub flags: &'static [&'static str],
    /// Host requests per timed invocation.
    pub requests: u64,
    /// Open loop: arrivals are scheduled in virtual time regardless of
    /// completions, and `admitted + shed` must equal `requests`.
    pub open_loop: bool,
    /// Metric-name prefix of the device report (`ssd` or `array`).
    pub prefix: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_retry",
        why: "Read-dominant web traffic on an end-of-life device: ORT lookups and retry chains, no GC; highest request rate, so per-request engine overhead shows first.",
        flags: &[
            "--ftl", "cube", "--workload", "web", "--aging", "eol", "--blocks", "256",
        ],
        requests: 2_400_000,
        open_loop: false,
        prefix: "ssd",
    },
    Workload {
        name: "write_gc",
        why: "Fig. 17 OLTP fresh: small random writes at 0.9 prefill keep the device GC-bound (victim selection, mapping, WAM/OPM, ISPP); fresh cells never retry.",
        flags: &[
            "--ftl", "cube", "--workload", "oltp", "--aging", "fresh", "--blocks", "64",
        ],
        requests: 600_000,
        open_loop: false,
        prefix: "ssd",
    },
    Workload {
        name: "kv_array4",
        why: "YCSB-A through the kvsim LSM engine on a 4-shard array with 2 worker threads: span writes, trims, compaction bursts and the ssdarray fan-in.",
        flags: &[
            "--ftl", "cube", "--kv", "a", "--shards", "4", "--array-threads", "2",
            "--aging", "midlife", "--blocks", "64", "--kv-keys", "100000",
        ],
        requests: 2_500_000,
        open_loop: false,
        prefix: "array",
    },
    Workload {
        name: "qos_open",
        why: "Open-loop mail traffic from 12 weighted tenants over 4 queues at about three quarters of no-shed capacity: the only run of hostq and ssdsim's front loop.",
        flags: &[
            "--ftl", "cube", "--workload", "mail", "--aging", "midlife", "--blocks", "64",
            "--queues", "4", "--tenants", "12", "--tenant-weights", "4,2,1",
            "--qos-arrival-us", "650", "--qos-slo-read-us", "270000",
            "--qos-slo-write-us", "70000",
        ],
        requests: 450_000,
        open_loop: true,
        prefix: "ssd",
    },
];

/// `--quick` divides every request count by this.
pub const QUICK_DIVISOR: u64 = 20;

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The simulator arguments of one invocation.
    pub fn args(&self, requests: u64, seed: u64) -> Vec<String> {
        let mut a: Vec<String> = self.flags.iter().map(|s| (*s).to_owned()).collect();
        a.extend(["--requests".into(), requests.to_string()]);
        a.extend(["--seed".into(), seed.to_string()]);
        a
    }
}

/// Replaces the value following `flag` (which must be present).
pub fn with_flag_value(args: &[String], flag: &str, value: &str) -> Vec<String> {
    let at = args
        .iter()
        .position(|a| a == flag)
        .unwrap_or_else(|| panic!("{flag} is not on the flag line"));
    let mut out = args.to_vec();
    out[at + 1] = value.to_owned();
    out
}

/// An end-to-end metric and the share of the baseline median by which
/// it may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Bounds cover ten runs at ten different seeds (that is how the
/// driver measures spread), so the simulated metrics carry their
/// seed-to-seed variation here. For one seed they repeat exactly and
/// `--agree` demands exactly that.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_per_wall_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_req",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "ok_ops_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.005,
    },
    EndToEnd {
        name: "sim_iops",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.03,
    },
    EndToEnd {
        name: "sim_read_mean_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_wa_total",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.04,
    },
    EndToEnd {
        name: "sim_senses_per_read",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// Absolute allowance on `setup_s` in `--agree`: its bound or +0.05 s,
/// whichever is larger (a 0.1 s set-up moves by more than its bound on
/// scheduling noise alone).
pub const SETUP_ABS_SLACK_S: f64 = 0.05;

/// A per-layer metric (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly for a fixed seed (a count the simulation
    /// determines); the rest are host time and move with the machine.
    pub exact: bool,
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// Counts from the untraced CLI run's metrics NDJSON first, then host
/// time from the in-process traced run (`*_ns` is the mean per call).
/// A metric that does not apply to a workload (`hostq.*` off
/// `qos_open`, `kvsim.*` off `kv_array4`, …) reads 0 there.
pub const PER_LAYER: [PerLayer; 56] = [
    exact("ftl.gc_runs_per_kreq", "1/kreq", Lower),
    exact("ftl.gc_page_moves_per_kreq", "1/kreq", Lower),
    exact("ftl.erases_per_kreq", "1/kreq", Lower),
    // Follower ÷ host WL programs (§4.1); GC programs WLs too, so a
    // GC-heavy run can read above 1.
    exact("ftl.follower_wl_share", "ratio", Higher),
    exact("ftl.ort_hit_share", "share", Higher),
    exact("nand3d.reads_per_req", "ratio", Lower),
    exact("nand3d.retries_per_read", "ratio", Lower),
    exact("ssdsim.chip_busy_share", "share", Higher),
    exact("ssdsim.max_queue_depth", "count", Lower),
    exact("ssdsim.read_samples", "count", Higher),
    exact("ssdsim.read_p50_us", "sim_us", Lower),
    exact("ssdsim.read_p99_us", "sim_us", Lower),
    exact("ssdsim.write_p99_us", "sim_us", Lower),
    exact("hostq.shed_share", "share", Lower),
    exact("hostq.slo_violation_share", "share", Lower),
    exact("hostq.read_p99_us", "sim_us", Lower),
    exact("hostq.write_p99_us", "sim_us", Lower),
    exact("kvsim.app_wa", "ratio", Lower),
    exact("kvsim.ops_per_req", "ratio", Higher),
    exact("ssdarray.shard_iops_spread", "ratio", Lower),
    exact("ftl.iops_gain_vs_page", "ratio", Higher),
    exact("bench.regime_ok", "bool", Higher),
    exact("trace.counters_equal", "bool", Higher),
    exact("workloads.next_calls", "count", Lower),
    host("workloads.next_ns", "ns", Lower),
    host("workloads.busy_share", "share", Lower),
    exact("kvsim.next_calls", "count", Lower),
    host("kvsim.next_ns", "ns", Lower),
    host("kvsim.busy_share", "share", Lower),
    exact("ftl.write_wl_calls", "count", Lower),
    host("ftl.write_wl_ns", "ns", Lower),
    exact("ftl.read_page_calls", "count", Lower),
    host("ftl.read_page_ns", "ns", Lower),
    exact("ftl.trim_calls", "count", Lower),
    host("ftl.trim_ns", "ns", Lower),
    exact("ftl.maint_calls", "count", Lower),
    host("ftl.maint_ns", "ns", Lower),
    host("ftl.busy_share", "share", Lower),
    host("hostq.advance_ns", "ns", Lower),
    exact("hostq.pop_calls", "count", Lower),
    host("hostq.pop_ns", "ns", Lower),
    host("hostq.complete_ns", "ns", Lower),
    host("hostq.busy_share", "share", Lower),
    host("ssdsim.self_ns_per_req", "ns", Lower),
    host("ssdsim.self_share", "share", Lower),
    host("ssdarray.wall_speedup_2t", "ratio", Higher),
    host("ssdarray.cpu_overhead_share", "share", Lower),
    // Exact on the single-device workloads; on kv_array4 the worker
    // threads' channel traffic makes them indicative only.
    host("alloc.count_per_req", "ratio", Lower),
    host("alloc.bytes_per_req", "B", Lower),
    host("alloc.peak_heap_mb", "MB", Lower),
    host("nand3d.program_wl_ns.leader", "ns", Lower),
    host("nand3d.program_wl_ns.follower", "ns", Lower),
    host("nand3d.read_page_ns.fresh", "ns", Lower),
    host("nand3d.read_page_ns.eol", "ns", Lower),
    host("telemetry.armed_overhead_share", "share", Lower),
    host("trace.overhead_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn line(name: &str, seed: u64) -> String {
        let w = Workload::find(name).unwrap();
        w.args(w.requests, seed).join(" ")
    }

    /// The flag lines are frozen: later changes measure against numbers
    /// taken with exactly these commands.
    #[test]
    fn flag_lines_are_frozen() {
        assert_eq!(
            line("read_retry", 42),
            "--ftl cube --workload web --aging eol --blocks 256 --requests 2400000 --seed 42"
        );
        assert_eq!(
            line("write_gc", 42),
            "--ftl cube --workload oltp --aging fresh --blocks 64 --requests 600000 --seed 42"
        );
        assert_eq!(
            line("kv_array4", 7),
            "--ftl cube --kv a --shards 4 --array-threads 2 --aging midlife --blocks 64 \
             --kv-keys 100000 --requests 2500000 --seed 7"
        );
        assert_eq!(
            line("qos_open", 42),
            "--ftl cube --workload mail --aging midlife --blocks 64 --queues 4 --tenants 12 \
             --tenant-weights 4,2,1 --qos-arrival-us 650 --qos-slo-read-us 270000 \
             --qos-slo-write-us 70000 --requests 450000 --seed 42"
        );
    }

    #[test]
    fn flag_values_are_replaced_in_place() {
        let w = Workload::find("kv_array4").unwrap();
        let one = with_flag_value(&w.args(10, 1), "--array-threads", "1");
        assert_eq!(one[7], "1");
        assert_eq!(one.len(), w.args(10, 1).len());
    }

    /// No drift between the committed `BENCHMARK.json` and the names,
    /// units, directions and bounds this binary prints.
    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (s(m, "name"), s(m, "unit"), s(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.label().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
            .collect();
        assert_eq!(layers, ours);

        let paths = list("paths");
        assert_eq!(paths, [Json::Str("benchmark".into())]);
    }
}
