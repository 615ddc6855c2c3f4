//! The four benchmark scenarios rebuilt in-process from the simulator's
//! own flag line, with the timing wrappers of [`crate::probe`] at every
//! seam. Construction mirrors what `cubeftl-sim` does for these flags
//! (paper SSD, 0.9 prefill, 0.002 disturbance, 30 °C); the driver
//! checks that the counters this run exports equal the CLI's, so any
//! drift from the CLI shows as a failed check, not as a silent
//! difference.

use crate::alloc;
use crate::probe::{Probe, TimedFront, TimedFtl, TimedIter};
use ftl::{Ftl, FtlConfig, FtlKind, OrtClusterConfig};
use hostq::{split_arrival_budget, HostQueueConfig, HostQueueFront};
use kvsim::{KvConfig, KvStream, YcsbKind};
use nand3d::{AgingState, RetryOptConfig};
use ssdarray::{ArrayShard, SsdArray};
use ssdsim::{SsdConfig, SsdSim, StepOutcome};
use std::sync::Arc;
use std::time::Instant;
use telemetry::MetricRegistry;
use workloads::{build_population, shard_seed, StandardWorkload, TenantMix, Workload};

const PREFILL_FRACTION: f64 = 0.9;
const DISTURBANCE_PROB: f64 = 0.002;
const AMBIENT_CELSIUS: f64 = 30.0;

/// `--queues/--tenants/--qos-*`: the open-loop host front.
#[derive(Debug, Clone, PartialEq)]
pub struct Qos {
    pub queues: u32,
    pub tenants: u32,
    pub weights: Vec<u32>,
    pub arrival_us: f64,
    pub slo_read_us: Option<f64>,
    pub slo_write_us: Option<f64>,
}

/// The subset of `cubeftl-sim` flags the benchmark's flag lines use.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    pub kind: FtlKind,
    pub workload: StandardWorkload,
    pub aging: AgingState,
    pub blocks: u32,
    pub requests: u64,
    pub seed: u64,
    pub kv: Option<YcsbKind>,
    pub kv_keys: u64,
    pub shards: usize,
    pub array_threads: usize,
    pub qos: Option<Qos>,
}

impl Flags {
    /// Parses simulator flags; returns the flags and the arguments it
    /// did not consume (the binary's own options).
    pub fn parse(args: &[String]) -> Result<(Flags, Vec<(String, String)>), String> {
        let mut f = Flags {
            kind: FtlKind::Cube,
            workload: StandardWorkload::Rocks,
            aging: AgingState::Fresh,
            blocks: 64,
            requests: 60_000,
            seed: 42,
            kv: None,
            kv_keys: KvConfig::default_shape().keys,
            shards: 1,
            array_threads: 0,
            qos: None,
        };
        let mut qos = Qos {
            queues: 1,
            tenants: 1,
            weights: vec![1],
            arrival_us: 2.0,
            slo_read_us: None,
            slo_write_us: None,
        };
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--ftl" => {
                    f.kind = match value.as_str() {
                        "cube" => FtlKind::Cube,
                        "page" => FtlKind::Page,
                        _ => return Err(bad()),
                    }
                }
                "--workload" => {
                    f.workload = match value.as_str() {
                        "mail" => StandardWorkload::Mail,
                        "web" => StandardWorkload::Web,
                        "oltp" => StandardWorkload::Oltp,
                        _ => return Err(bad()),
                    }
                }
                "--aging" => {
                    f.aging = match value.as_str() {
                        "fresh" => AgingState::Fresh,
                        "midlife" => AgingState::MidLife,
                        "eol" => AgingState::EndOfLife,
                        _ => return Err(bad()),
                    }
                }
                "--blocks" => f.blocks = value.parse().map_err(|_| bad())?,
                "--requests" => f.requests = value.parse().map_err(|_| bad())?,
                "--seed" => f.seed = value.parse().map_err(|_| bad())?,
                "--kv" => f.kv = Some(YcsbKind::parse(value).ok_or_else(bad)?),
                "--kv-keys" => f.kv_keys = value.parse().map_err(|_| bad())?,
                "--shards" => f.shards = value.parse().map_err(|_| bad())?,
                "--array-threads" => f.array_threads = value.parse().map_err(|_| bad())?,
                "--queues" => qos.queues = value.parse().map_err(|_| bad())?,
                "--tenants" => qos.tenants = value.parse().map_err(|_| bad())?,
                "--tenant-weights" => {
                    qos.weights = value
                        .split(',')
                        .map(|w| w.parse::<u32>().ok().filter(|w| *w >= 1))
                        .collect::<Option<Vec<u32>>>()
                        .filter(|w| !w.is_empty())
                        .ok_or_else(bad)?;
                }
                "--qos-arrival-us" => qos.arrival_us = value.parse().map_err(|_| bad())?,
                "--qos-slo-read-us" => qos.slo_read_us = Some(value.parse().map_err(|_| bad())?),
                "--qos-slo-write-us" => qos.slo_write_us = Some(value.parse().map_err(|_| bad())?),
                _ => rest.push((flag.clone(), value.clone())),
            }
        }
        if f.blocks == 0 || f.requests == 0 || f.shards == 0 {
            return Err("--blocks, --requests and --shards must be at least 1".into());
        }
        if qos.queues > 1 || qos.tenants > 1 {
            if f.shards > 1 || f.kv.is_some() {
                return Err("the QoS front runs on a single device without --kv here".into());
            }
            f.qos = Some(qos);
        }
        if f.kv.is_some() != (f.shards > 1) {
            return Err("--kv is only rebuilt on an array (--shards > 1) here".into());
        }
        Ok((f, rest))
    }

    fn ftl_config(&self, seed: u64) -> FtlConfig {
        let mut cfg = FtlConfig::paper();
        cfg.nand.geometry.blocks_per_chip = self.blocks;
        cfg.seed = seed;
        cfg.ort_capacity = usize::MAX;
        cfg.ort_cluster = OrtClusterConfig::default();
        cfg.retry_opt = RetryOptConfig::default();
        cfg
    }

    /// Builds, prefills and ages one device; returns it with the size
    /// of the prefilled logical space.
    fn device(&self, seed: u64) -> (SsdSim, Ftl, u64) {
        let mut sim = SsdSim::new(SsdConfig::paper());
        let mut ftl = Ftl::new(self.kind, self.ftl_config(seed));
        ftl.set_aging(self.aging);
        ftl.set_ambient_celsius(AMBIENT_CELSIUS);
        let prefill = (ftl.logical_pages() as f64 * PREFILL_FRACTION) as u64;
        sim.prefill(&mut ftl, 0..prefill);
        ftl.set_disturbance_prob(DISTURBANCE_PROB);
        ftl.reset_stats();
        (sim, ftl, prefill.max(1024))
    }

    fn threads(&self) -> usize {
        if self.array_threads == 0 {
            self.shards
        } else {
            self.array_threads.min(self.shards)
        }
    }
}

/// Host cost of the run phase alone (set-up excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// When the phase began: the zero of the span clock.
    pub started: Instant,
    pub wall_ns: u64,
    /// Process CPU ns, all threads.
    pub cpu_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub peak_heap_bytes: u64,
}

/// What one in-process run produced.
pub struct RunResult {
    /// The device report's metrics, as the CLI's `--metrics-out` would
    /// print the same lines.
    pub counters: String,
    pub completed: u64,
    pub phase: Phase,
    /// Worker threads the run phase used.
    pub threads: usize,
    /// One probe per shard when the run was traced.
    pub probes: Vec<Arc<Probe>>,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this process has used, all threads, in ns.
fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the
    // kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("scenario.rs declares the 64-bit Linux layout of struct timespec");

/// Runs `phase` and returns its result with what it cost the host.
fn timed<T>(phase: impl FnOnce() -> T) -> (T, Phase) {
    let heap = alloc::begin_phase();
    let cpu = process_cpu_ns();
    let started = Instant::now();
    let out = phase();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu;
    let (allocs, alloc_bytes, peak_heap_bytes) = alloc::end_phase(heap);
    (
        out,
        Phase {
            started,
            wall_ns,
            cpu_ns,
            allocs,
            alloc_bytes,
            peak_heap_bytes,
        },
    )
}

/// Runs the scenario once. `traced` arms one probe per shard;
/// `threads` overrides the flag line's worker-thread count.
pub fn run(flags: &Flags, traced: bool, threads: Option<usize>) -> RunResult {
    let probe = || traced.then(Probe::new);
    if let Some(qos) = &flags.qos {
        let (mut sim, ftl, space) = flags.device(flags.seed);
        let profiles = build_population(
            qos.tenants,
            &qos.weights,
            Some(TenantMix::Standard(flags.workload)),
            flags.seed,
        );
        let budgets = split_arrival_budget(flags.requests, &profiles);
        let p = probe();
        let streams = profiles
            .iter()
            .map(|t| -> Box<dyn Workload + Send> {
                Box::new(TimedIter::new(t.build_stream(space), p.clone()))
            })
            .collect();
        let cfg = HostQueueConfig {
            queues: qos.queues,
            sq_depth: HostQueueConfig::default().sq_depth,
            arrival_interval_us: qos.arrival_us,
            weighted_arrivals: true,
            slo_read_us: qos.slo_read_us,
            slo_write_us: qos.slo_write_us,
        };
        let mut front = TimedFront::new(
            HostQueueFront::new(cfg, profiles, streams, budgets),
            p.clone(),
        );
        let mut ftl = TimedFtl::new(ftl, p.clone());
        let (report, phase) = timed(|| {
            sim.run_front_begin(u64::MAX);
            while sim.run_step_front(&mut ftl, &mut front, u64::MAX) == StepOutcome::Running {}
            sim.run_front_end(&ftl)
        });
        let mut reg = MetricRegistry::new();
        report.register_metrics(&mut reg, "ssd");
        front.inner.report().register_metrics(&mut reg);
        return RunResult {
            counters: reg.to_ndjson(),
            completed: report.completed,
            phase,
            threads: 1,
            probes: p.into_iter().collect(),
        };
    }

    if let Some(kind) = flags.kv {
        let d = KvConfig::default_shape();
        let kv_cfg = KvConfig {
            keys: flags.kv_keys,
            sst_entries: d.memtable_entries,
            ..d
        };
        let base = flags.requests / flags.shards as u64;
        let rem = flags.requests % flags.shards as u64;
        let mut probes = Vec::new();
        let shards = (0..flags.shards)
            .map(|s| {
                let seed = shard_seed(flags.seed, s);
                let (sim, ftl, space) = flags.device(seed);
                let stream = KvStream::new(kv_cfg, kind, space, seed);
                let p = probe();
                probes.extend(p.clone());
                ArrayShard {
                    sim,
                    ftl: TimedFtl::new(ftl, p.clone()),
                    workload: TimedIter::new(stream, p),
                    requests: base + u64::from((s as u64) < rem),
                    spo: None,
                    rebuild: None,
                }
            })
            .collect();
        let mut array = SsdArray::new(shards).with_threads(threads.unwrap_or(flags.threads()));
        let used = array.threads();
        let (out, phase) = timed(|| array.run());
        let mut reg = MetricRegistry::new();
        out.report.register_metrics(&mut reg, "array");
        return RunResult {
            counters: reg.to_ndjson(),
            completed: out.report.completed,
            phase,
            threads: used,
            probes,
        };
    }

    let (mut sim, ftl, space) = flags.device(flags.seed);
    let p = probe();
    let mut ftl = TimedFtl::new(ftl, p.clone());
    let stream = TimedIter::new(flags.workload.build(space, flags.seed), p.clone());
    let (report, phase) = timed(|| sim.run(&mut ftl, stream, flags.requests));
    let mut reg = MetricRegistry::new();
    report.register_metrics(&mut reg, "ssd");
    RunResult {
        counters: reg.to_ndjson(),
        completed: report.completed,
        phase,
        threads: 1,
        probes: p.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_flag_lines() {
        let (f, rest) = Flags::parse(&args(
            "--ftl cube --workload mail --aging midlife --blocks 64 --queues 4 --tenants 12 \
             --tenant-weights 4,2,1 --qos-arrival-us 650 --qos-slo-read-us 270000 \
             --qos-slo-write-us 70000 --requests 450000 --seed 7 --counters-out x",
        ))
        .unwrap();
        let q = f.qos.as_ref().unwrap();
        assert_eq!((q.queues, q.tenants, q.arrival_us), (4, 12, 650.0));
        assert_eq!(q.weights, [4, 2, 1]);
        assert_eq!(
            (f.requests, f.seed, f.aging),
            (450_000, 7, AgingState::MidLife)
        );
        assert_eq!(rest, [("--counters-out".to_owned(), "x".to_owned())]);

        let (f, _) = Flags::parse(&args(
            "--ftl cube --kv a --shards 4 --array-threads 2 --aging midlife --blocks 64 \
             --kv-keys 100000 --requests 2500000 --seed 42",
        ))
        .unwrap();
        assert_eq!((f.shards, f.threads(), f.kv_keys), (4, 2, 100_000));
        assert!(f.kv.is_some() && f.qos.is_none());
    }

    #[test]
    fn rejects_flag_lines_it_cannot_rebuild() {
        for bad in [
            "--workload rocks",
            "--ftl vert",
            "--blocks 0",
            "--kv a",
            "--shards 4",
            "--kv a --shards 4 --queues 4",
            "--seed",
        ] {
            assert!(Flags::parse(&args(bad)).is_err(), "{bad} must be rejected");
        }
    }

    /// A traced run and an untraced one export the same counters: the
    /// wrappers observe, they do not perturb.
    #[test]
    fn tracing_does_not_change_the_simulation() {
        for line in [
            "--workload oltp --aging fresh --blocks 12 --requests 3000",
            "--workload mail --aging midlife --blocks 12 --requests 2000 --queues 2 --tenants 3 \
             --qos-arrival-us 400 --qos-slo-read-us 5000",
            "--kv a --shards 2 --array-threads 2 --blocks 12 --kv-keys 2000 --requests 3000",
        ] {
            let (flags, _) = Flags::parse(&args(line)).unwrap();
            let plain = run(&flags, false, None);
            let traced = run(&flags, true, Some(1));
            assert_eq!(plain.counters, traced.counters, "{line}");
            assert!(plain.probes.is_empty());
            assert_eq!(traced.probes.len(), flags.shards);
            assert!(traced
                .probes
                .iter()
                .all(|p| p.calls(crate::probe::Seam::Next) > 0));
        }
    }
}
