//! Turns one `--metrics-out` file into the benchmark's simulated
//! end-to-end metrics, its exact per-layer counts, the output check and
//! the regime guard. Everything here repeats exactly for a fixed seed.

use crate::ndjson::{Metric, MetricsFile};
use crate::spec::Workload;

/// Named metric values in the order they were computed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} computed twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.push(n, v);
        }
    }
}

/// Sum that is +0.0 when empty (`Iterator::sum` gives -0.0, which
/// would print as "-0").
fn total(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |a, b| a + b)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reads `PREFIX.NAME` of the device report as a number.
fn dev(w: &Workload, f: &MetricsFile, name: &str) -> Result<f64, String> {
    let full = format!("{}.{name}", w.prefix);
    f.num(&full)
        .ok_or_else(|| format!("metrics file has no number {full}"))
}

/// Count-weighted mean over the per-tenant histograms ending in
/// `suffix`: the open loop's latency, which counts from arrival (the
/// device-side `ssd.*_latency_us` counts from dispatch).
fn tenant_mean(f: &MetricsFile, suffix: &str) -> f64 {
    let (sum, n) = f
        .matching("qos.tenant.", suffix)
        .filter_map(|(_, m)| match m {
            Metric::Histogram(h) => Some((h.mean * h.count as f64, h.count as f64)),
            _ => None,
        })
        .fold((0.0, 0.0), |(s, n), (hs, hn)| (s + hs, n + hn));
    ratio(sum, n)
}

/// The output check on one metrics file: every offered request is
/// accounted for. Returns `(attempted, lost, ok_ops_share)`, where
/// `lost` counts requests the simulator neither completed nor (open
/// loop) shed, and `ok_ops_share` is completed ÷ requested on a closed
/// loop and completed-within-SLO ÷ offered on the open loop (shed and
/// late requests both count against it).
pub fn ok_ops(w: &Workload, f: &MetricsFile, requests: u64) -> Result<(u64, u64, f64), String> {
    let offered = requests as f64;
    let completed = dev(w, f, "completed")?;
    if !w.open_loop {
        let lost = (offered - completed).max(0.0) as u64;
        return Ok((requests, lost, completed / offered));
    }
    let q = |name: &str| {
        f.num(&format!("qos.{name}"))
            .ok_or_else(|| format!("metrics file has no qos.{name}"))
    };
    let (admitted, shed, done, late) = (
        q("admitted")?,
        q("shed")?,
        q("completed")?,
        q("slo_violations")?,
    );
    let lost = (offered - shed - done).max(0.0) as u64;
    if admitted + shed != offered || done != completed {
        return Err(format!(
            "open loop does not add up: admitted {admitted} + shed {shed} vs offered {offered}, \
             front completed {done} vs device {completed}"
        ));
    }
    Ok((requests, lost, (done - late) / offered))
}

/// The simulated end-to-end metrics.
pub fn sim_end_to_end(w: &Workload, f: &MetricsFile) -> Result<Values, String> {
    let mut v = Values::default();
    v.push("sim_iops", dev(w, f, "iops")?);
    let read_mean = if w.open_loop {
        tenant_mean(f, ".read_latency_us")
    } else {
        f.hist(&format!("{}.read_latency_us", w.prefix))
            .ok_or("metrics file has no read latency histogram")?
            .mean
    };
    v.push("sim_read_mean_us", read_mean);
    v.push("sim_wa_total", dev(w, f, "wa_total")?);
    // 1 + the paper's NumRetry: array senses per NAND page read. The
    // plain ratio is 0 on fresh cells, and a bounded metric may not be.
    let reads = dev(w, f, "ftl.nand_reads")?;
    v.push(
        "sim_senses_per_read",
        1.0 + ratio(dev(w, f, "ftl.read_retries")?, reads),
    );
    Ok(v)
}

/// The per-layer counts the metrics file alone yields.
pub fn exact_layers(w: &Workload, f: &MetricsFile, requests: u64) -> Result<Values, String> {
    let mut v = Values::default();
    let kreq = requests as f64 / 1000.0;
    let ftl = |name: &str| dev(w, f, &format!("ftl.{name}"));
    v.push("ftl.gc_runs_per_kreq", ftl("gc_runs")? / kreq);
    v.push("ftl.gc_page_moves_per_kreq", ftl("gc_page_moves")? / kreq);
    v.push("ftl.erases_per_kreq", ftl("erases")? / kreq);
    v.push(
        "ftl.follower_wl_share",
        ratio(ftl("follower_wl_programs")?, ftl("host_wl_programs")?),
    );
    let (hits, misses) = (ftl("ort_hits")?, ftl("ort_misses")?);
    v.push("ftl.ort_hit_share", ratio(hits, hits + misses));
    let completed = dev(w, f, "completed")?;
    v.push("nand3d.reads_per_req", ratio(ftl("nand_reads")?, completed));
    v.push(
        "nand3d.retries_per_read",
        ratio(ftl("read_retries")?, ftl("nand_reads")?),
    );

    // Per-chip statistics exist on single-device runs only.
    let sim_time_us = dev(w, f, "sim_time_us")?;
    let chip = |suffix: &str| -> Vec<f64> {
        f.matching("ssd.chip", suffix)
            .filter_map(|(n, _)| f.num(n))
            .collect()
    };
    let busy = chip(".busy_us");
    v.push(
        "ssdsim.chip_busy_share",
        ratio(total(&busy), busy.len() as f64 * sim_time_us),
    );
    v.push(
        "ssdsim.max_queue_depth",
        chip(".max_queue_depth").into_iter().fold(0.0, f64::max),
    );
    let hist = |name: &str| {
        f.hist(&format!("{}.{name}", w.prefix))
            .ok_or_else(|| format!("metrics file has no histogram {}.{name}", w.prefix))
    };
    let (rd, wr) = (hist("read_latency_us")?, hist("write_latency_us")?);
    v.push("ssdsim.read_samples", rd.count as f64);
    v.push("ssdsim.read_p50_us", rd.p50);
    v.push("ssdsim.read_p99_us", rd.p99);
    v.push("ssdsim.write_p99_us", wr.p99);

    let qos = |name: &str| f.num(&format!("qos.{name}")).unwrap_or(0.0);
    v.push("hostq.shed_share", qos("shed") / requests as f64);
    v.push(
        "hostq.slo_violation_share",
        qos("slo_violations") / requests as f64,
    );
    // Worst class, counted from arrival.
    let worst = |suffix: &str| {
        f.matching("qos.class.", suffix)
            .filter_map(|(n, _)| f.num(n))
            .fold(0.0, f64::max)
    };
    v.push("hostq.read_p99_us", worst(".read_p99_us"));
    v.push("hostq.write_p99_us", worst(".write_p99_us"));

    let kv = |suffix: &str| -> Vec<f64> {
        f.matching("kv.shard", suffix)
            .filter_map(|(n, _)| f.num(n))
            .collect()
    };
    let app_wa = kv(".app_wa");
    v.push("kvsim.app_wa", ratio(total(&app_wa), app_wa.len() as f64));
    v.push("kvsim.ops_per_req", ratio(total(&kv(".ops")), completed));
    // `.iops` also ends `array.iops`; only per-shard names carry "shard".
    let shard_iops: Vec<f64> = f
        .matching("array.shard", ".iops")
        .filter_map(|(n, _)| f.num(n))
        .collect();
    let max = shard_iops.iter().copied().fold(0.0, f64::max);
    let min = shard_iops.iter().copied().fold(f64::INFINITY, f64::min);
    v.push(
        "ssdarray.shard_iops_spread",
        if shard_iops.is_empty() {
            0.0
        } else {
            ratio(max, min)
        },
    );
    Ok(v)
}

/// The regime guard: each workload must still be the workload it was
/// frozen as. Returns one line per violated condition.
pub fn regime_failures(w: &Workload, f: &MetricsFile, all: &Values) -> Result<Vec<String>, String> {
    let get = |name: &str| {
        all.get(name)
            .ok_or_else(|| format!("regime guard needs {name}"))
    };
    let completed = dev(w, f, "completed")?;
    let reads = dev(w, f, "reads")? / completed;
    let writes = dev(w, f, "writes")? / completed;
    let retries = get("nand3d.retries_per_read")?;
    let wa = get("sim_wa_total")?;
    let mut bad = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    match w.name {
        "read_retry" => {
            need(
                wa <= 1.15,
                format!("sim_wa_total {wa} > 1.15 (GC took over)"),
            );
            need(retries >= 0.5, format!("retries per read {retries} < 0.5"));
            need(reads >= 0.8, format!("read share {reads} < 0.8"));
        }
        "write_gc" => {
            need(wa >= 2.5, format!("sim_wa_total {wa} < 2.5 (not GC-bound)"));
            need(retries == 0.0, format!("retries per read {retries} != 0"));
        }
        "kv_array4" => {
            let app_wa = get("kvsim.app_wa")?;
            need(app_wa >= 2.0, format!("kvsim.app_wa {app_wa} < 2"));
            let gc = get("ftl.gc_runs_per_kreq")?;
            need(gc > 0.0, "no GC ran".to_owned());
            need(dev(w, f, "trims")? > 0.0, "no trims".to_owned());
        }
        "qos_open" => {
            let shed = get("hostq.shed_share")?;
            let late = get("hostq.slo_violation_share")?;
            need(shed <= 0.01, format!("hostq.shed_share {shed} > 0.01"));
            need(
                late <= 0.02,
                format!("hostq.slo_violation_share {late} > 0.02"),
            );
            need(reads >= 0.2, format!("read share {reads} < 0.2"));
            need(writes >= 0.2, format!("write share {writes} < 0.2"));
        }
        other => return Err(format!("no regime guard for workload {other}")),
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(lines: &[(&str, &str)]) -> MetricsFile {
        let text: String = lines
            .iter()
            .map(|(name, rest)| format!("{{\"metric\":\"{name}\",{rest}}}\n"))
            .collect();
        MetricsFile::parse(&text).unwrap()
    }

    fn c(v: u64) -> String {
        format!("\"type\":\"counter\",\"value\":{v}")
    }

    fn g(v: f64) -> String {
        format!("\"type\":\"gauge\",\"value\":{v}")
    }

    fn h(count: u64, mean: f64) -> String {
        format!(
            "\"type\":\"histogram\",\"count\":{count},\"mean\":{mean},\"p50\":1,\"p99\":2,\"min\":1,\"max\":3"
        )
    }

    #[test]
    fn closed_loop_counts_completed_against_requested() {
        let w = Workload::find("read_retry").unwrap();
        let f = file(&[("ssd.completed", &c(990))]);
        assert_eq!(ok_ops(w, &f, 1000).unwrap(), (1000, 10, 0.99));
    }

    #[test]
    fn open_loop_counts_shed_and_late_as_not_ok() {
        let w = Workload::find("qos_open").unwrap();
        let lines = [
            ("ssd.completed", c(980)),
            ("qos.admitted", c(980)),
            ("qos.shed", c(20)),
            ("qos.completed", c(980)),
            ("qos.slo_violations", c(30)),
        ];
        let borrowed: Vec<(&str, &str)> = lines.iter().map(|(n, r)| (*n, r.as_str())).collect();
        let (attempted, lost, ok) = ok_ops(w, &file(&borrowed), 1000).unwrap();
        assert_eq!((attempted, lost), (1000, 0));
        assert!((ok - 0.95).abs() < 1e-12);
        // admitted + shed must equal the offered count.
        assert!(ok_ops(w, &file(&borrowed), 1001).is_err());
    }

    #[test]
    fn open_loop_read_latency_is_the_count_weighted_tenant_mean() {
        let w = Workload::find("qos_open").unwrap();
        let lines = [
            ("ssd.iops", g(1500.0)),
            ("ssd.wa_total", g(2.0)),
            ("ssd.ftl.nand_reads", c(400)),
            ("ssd.ftl.read_retries", c(100)),
            ("qos.tenant.0.read_latency_us", h(300, 10.0)),
            ("qos.tenant.1.read_latency_us", h(100, 50.0)),
            ("qos.tenant.1.write_latency_us", h(100, 9999.0)),
        ];
        let borrowed: Vec<(&str, &str)> = lines.iter().map(|(n, r)| (*n, r.as_str())).collect();
        let v = sim_end_to_end(w, &file(&borrowed)).unwrap();
        assert_eq!(v.get("sim_read_mean_us"), Some(20.0));
        assert_eq!(v.get("sim_senses_per_read"), Some(1.25));
    }

    #[test]
    fn senses_per_read_is_one_when_nothing_retries() {
        let w = Workload::find("write_gc").unwrap();
        let lines = [
            ("ssd.iops", g(5000.0)),
            ("ssd.wa_total", g(4.0)),
            ("ssd.ftl.nand_reads", c(400)),
            ("ssd.ftl.read_retries", c(0)),
            ("ssd.read_latency_us", h(10, 7.0)),
        ];
        let borrowed: Vec<(&str, &str)> = lines.iter().map(|(n, r)| (*n, r.as_str())).collect();
        let v = sim_end_to_end(w, &file(&borrowed)).unwrap();
        assert_eq!(v.get("sim_senses_per_read"), Some(1.0));
        assert_eq!(v.get("sim_read_mean_us"), Some(7.0));
    }
}
