//! The traced half of the perf ledger: where does the simulator's
//! wall-clock go, layer by layer?
//!
//! Takes one of the benchmark's `cubeftl-sim` flag lines, rebuilds the
//! scenario in-process and runs it untraced, traced and untraced
//! again, with timing wrappers around the public seams that separate the layers
//! (request iterator, `FtlDriver`, `HostFront`, `SsdArray::run`).
//! Prints `metric value` lines for `bench-e2e` to fold into the
//! per-layer table, the device counters as metrics NDJSON (they must
//! equal the CLI's), and a bounded span sample as NDJSON.
//!
//! This package links the crates directly, so it may break when their
//! API is refactored; the end-to-end half does not link them and keeps
//! working.

mod alloc;
mod nand;
mod probe;
mod scenario;

use probe::{Probe, Seam};
use scenario::{Flags, RunResult};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: bench-layers <cubeftl-sim flags of one benchmark workload>
                    --counters-out PATH --spans-out PATH";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-layers: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (flags, rest) = Flags::parse(args)?;
    let mut counters_out = None;
    let mut spans_out = None;
    for (flag, value) in rest {
        match flag.as_str() {
            "--counters-out" => counters_out = Some(value),
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let counters_out = counters_out.ok_or("--counters-out is required")?;
    let spans_out = spans_out.ok_or("--spans-out is required")?;

    // Single runs on the shared reference box are too noisy to compare
    // (the same pair read anywhere from -18 % to +33 % tracing
    // overhead), and the first run of a process is the coldest. So the
    // runs mirror each other around the traced one — [1 thread,]
    // untraced, traced, untraced[, 1 thread] — and each comparison uses
    // the mean of its two outer runs, which cancels a steady drift.
    // The single-worker runs exist on an array only: they price the
    // thread engine, wall saved against CPU added.
    let array = flags.shards > 1;
    let single_a = array.then(|| scenario::run(&flags, false, Some(1)));
    let plain = scenario::run(&flags, false, None);
    let traced = scenario::run(&flags, true, None);
    let plain_b = scenario::run(&flags, false, None);
    let single_b = array.then(|| scenario::run(&flags, false, Some(1)));
    let same = |r: &RunResult| r.counters == plain.counters;
    if !same(&traced) {
        return Err("the traced run's counters differ from the untraced run's".into());
    }
    if !same(&plain_b) {
        return Err("two untraced runs gave different counters".into());
    }
    let singles: Vec<&RunResult> = single_a.iter().chain(&single_b).collect();
    if !singles.iter().all(|r| same(r)) {
        return Err("one worker thread gave different counters than several".into());
    }
    std::fs::write(&counters_out, &plain.counters)
        .map_err(|e| format!("cannot write {counters_out}: {e}"))?;
    write_spans(&spans_out, &traced, flags.kv.is_some())
        .map_err(|e| format!("cannot write {spans_out}: {e}"))?;

    print_metrics(&flags, [&plain, &plain_b], &traced, &singles);
    Ok(())
}

fn write_spans(path: &str, traced: &RunResult, kv: bool) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (shard, probe) in traced.probes.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":0,\"parent\":null,\"name\":\"ssdsim.run\",\"shard\":{shard},\"start_ns\":0,\"end_ns\":{}}}",
            traced.phase.wall_ns
        )?;
        for s in probe.take_spans() {
            // A stream pulled while the front was being built precedes
            // the run phase; pin it to the phase's start.
            let start_ns = s
                .start
                .saturating_duration_since(traced.phase.started)
                .as_nanos() as u64;
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"shard\":{shard},\"start_ns\":{start_ns},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.seam.name(kv),
                start_ns + s.ns
            )?;
        }
    }
    out.flush()
}

/// Mean wall and CPU ns of some runs' run phases.
fn mean_cost(runs: &[&RunResult]) -> (f64, f64) {
    let n = runs.len() as f64;
    (
        runs.iter().map(|r| r.phase.wall_ns as f64).sum::<f64>() / n,
        runs.iter().map(|r| r.phase.cpu_ns as f64).sum::<f64>() / n,
    )
}

fn print_metrics(
    flags: &Flags,
    plain: [&RunResult; 2],
    traced: &RunResult,
    singles: &[&RunResult],
) {
    let line = |name: &str, value: f64| println!("{name} {value}");
    let (plain_wall, plain_cpu) = mean_cost(&plain);
    let sum = |f: &dyn Fn(&Arc<Probe>) -> u64| traced.probes.iter().map(f).sum::<u64>() as f64;
    let calls = |s: Seam| sum(&|p| p.calls(s));
    let ns = |s: Seam| sum(&|p| p.ns(s));
    let mean = |s: Seam| {
        if calls(s) == 0.0 {
            0.0
        } else {
            ns(s) / calls(s)
        }
    };
    // What the worker threads had available during the traced run.
    let capacity_ns = traced.phase.wall_ns as f64 * traced.threads as f64;
    let share = |ns: f64| ns / capacity_ns;

    let kv = flags.kv.is_some();
    let nested = sum(&|p| p.nested_next_ns());
    for (layer, on) in [("workloads", !kv), ("kvsim", kv)] {
        let pick = |v: f64| if on { v } else { 0.0 };
        line(&format!("{layer}.next_calls"), pick(calls(Seam::Next)));
        line(&format!("{layer}.next_ns"), pick(mean(Seam::Next)));
        line(&format!("{layer}.busy_share"), pick(share(ns(Seam::Next))));
    }

    let ftl_seams = [
        ("write_wl", Seam::WriteWl),
        ("read_page", Seam::ReadPage),
        ("trim", Seam::Trim),
        ("maint", Seam::Maint),
    ];
    for (name, seam) in ftl_seams {
        line(&format!("ftl.{name}_calls"), calls(seam));
        line(&format!("ftl.{name}_ns"), mean(seam));
    }
    let ftl_ns: f64 = ftl_seams.iter().map(|(_, s)| ns(*s)).sum();
    line("ftl.busy_share", share(ftl_ns));

    line("hostq.advance_ns", mean(Seam::Advance));
    line("hostq.pop_calls", calls(Seam::Pop));
    line("hostq.pop_ns", mean(Seam::Pop));
    line("hostq.complete_ns", mean(Seam::Complete));
    // The front pulls the tenant streams itself; their time is the
    // stream layer's, not the front's.
    let hostq_ns = ns(Seam::Advance) + ns(Seam::Pop) + ns(Seam::Complete) - nested;
    line("hostq.busy_share", share(hostq_ns));

    // Run wall minus every child span: event heap, write buffer,
    // request table, latency histograms — and, on an array, worker
    // idle time and the fan-in.
    let self_ns = capacity_ns - ns(Seam::Next) - ftl_ns - hostq_ns;
    line("ssdsim.self_ns_per_req", self_ns / traced.completed as f64);
    line("ssdsim.self_share", share(self_ns));

    let (speedup, cpu_overhead) = if singles.is_empty() {
        (0.0, 0.0)
    } else {
        let (single_wall, single_cpu) = mean_cost(singles);
        (single_wall / plain_wall, plain_cpu / single_cpu - 1.0)
    };
    line("ssdarray.wall_speedup_2t", speedup);
    line("ssdarray.cpu_overhead_share", cpu_overhead);

    // The first untraced run's counts; on a single device every run
    // allocates exactly the same.
    let plain = plain[0];
    let requests = plain.completed as f64;
    line("alloc.count_per_req", plain.phase.allocs as f64 / requests);
    line(
        "alloc.bytes_per_req",
        plain.phase.alloc_bytes as f64 / requests,
    );
    line(
        "alloc.peak_heap_mb",
        plain.phase.peak_heap_bytes as f64 / (1024.0 * 1024.0),
    );

    let loops = nand::measure(flags.seed);
    line("nand3d.program_wl_ns.leader", loops.program_leader_ns);
    line("nand3d.program_wl_ns.follower", loops.program_follower_ns);
    line("nand3d.read_page_ns.fresh", loops.read_fresh_ns);
    line("nand3d.read_page_ns.eol", loops.read_eol_ns);

    line(
        "trace.overhead_share",
        traced.phase.wall_ns as f64 / plain_wall - 1.0,
    );
}
