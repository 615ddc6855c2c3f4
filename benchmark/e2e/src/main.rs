//! The perf ledger's driver.
//!
//! Spawns the release `cubeftl-sim` binary on four frozen workloads and
//! reports two kinds of time that are never mixed: **host** time (what
//! the simulator costs to run; medians of repeated invocations) and
//! **simulated** time (what the modelled SSD would take; parsed from
//! the `--metrics-out` NDJSON, identical for a fixed seed). It links no
//! crate of the repository: the CLI flags are the one surface that
//! stays put while the library is refactored. The traced run
//! (`--trace 1`) adds the per-layer table, part of it from the
//! `bench-layers` binary, which does link the crates.
//!
//! Every metric is printed as `workload metric value unit`; each
//! workload ends with one JSON line for the benchmark driver.

mod agree;
mod calib;
mod child;
mod derive;
mod json;
mod ndjson;
mod spec;
mod stats;

use derive::Values;
use ndjson::MetricsFile;
use spec::{Workload, END_TO_END, PER_LAYER, QUICK_DIVISOR, WORKLOADS};
use stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "\
usage: bench-e2e --sim PATH --layers PATH --out DIR
                 [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced] [--quick]
       bench-e2e --agree A B
  --sim      the release cubeftl-sim binary (never built from here)
  --layers   the bench-layers binary (needed by the traced run only)
  --out      directory for temporary metrics files and span samples
  --workload one of read_retry, write_gc, kv_array4, qos_open (default: all four)
  --seed     workload seed (default 42)
  --seconds  keep repeating the timed invocation until this much wall time has
             been measured, at least three times (default 12; 0 with --quick)
  --trace 1  the traced run: per-layer metrics instead of end-to-end ones
  --quick    1/20 of every request count, for smoke use
  --agree    compare two saved outputs metric by metric against the bounds";

/// Set-up invocations per run (`--requests 1`); `setup_s` is their
/// median. `--quick` makes do with three.
const SETUP_REPS: usize = 5;
const QUICK_SETUP_REPS: usize = 3;
/// Timed invocations per run, at least.
const MIN_TIMED_REPS: usize = 3;

struct Options {
    sim: PathBuf,
    layers: PathBuf,
    out: PathBuf,
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

enum Mode {
    Run(Options),
    Agree(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut sim = None;
    let mut layers = None;
    let mut out = None;
    let mut workloads: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let mut seed = 42u64;
    let mut seconds: Option<f64> = None;
    let mut traced = false;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--traced" => traced = true,
            "--quick" => quick = true,
            "--agree" => {
                let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
                    return Err("--agree takes two files".into());
                };
                return Ok(Mode::Agree(a.into(), b.into()));
            }
            _ => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--sim" => sim = Some(PathBuf::from(value)),
                    "--layers" => layers = Some(PathBuf::from(value)),
                    "--out" => out = Some(PathBuf::from(value)),
                    "--workload" => {
                        let w = Workload::find(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?;
                        workloads = vec![w];
                    }
                    "--seed" => seed = value.parse().map_err(|_| "--seed takes a number")?,
                    "--seconds" => {
                        let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                        if !(0.0..=600.0).contains(&s) {
                            return Err("--seconds must be within 0..=600".into());
                        }
                        seconds = Some(s);
                    }
                    "--trace" => {
                        traced = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err("--trace takes 0 or 1".into()),
                        }
                    }
                    _ => return Err(format!("unknown flag {flag}")),
                }
                i += 1;
            }
        }
        i += 1;
    }
    Ok(Mode::Run(Options {
        sim: sim.ok_or("--sim is required")?,
        layers: layers.ok_or("--layers is required")?,
        out: out.ok_or("--out is required")?,
        workloads,
        seed,
        seconds: seconds.unwrap_or(if quick { 0.0 } else { 12.0 }),
        traced,
        quick,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Agree(a, b) => run_agree(&a, &b),
        Mode::Run(opts) => run_all(&opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_agree(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        agree::parse_results(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let failures = agree::compare(&load(a)?, &load(b)?);
    if failures == 0 {
        println!("agree: every metric within its bound");
    } else {
        println!("agree: {failures} metric(s) outside their bound");
    }
    Ok(failures == 0)
}

fn run_all(opts: &Options) -> Result<bool, String> {
    if !opts.sim.is_file() {
        return Err(format!(
            "{} is missing: build it first with `cargo build --release --offline --bin cubeftl-sim` \
             (benchmark/run.sh does); this driver never builds the root workspace itself",
            opts.sim.display()
        ));
    }
    if opts.traced && !opts.layers.is_file() {
        return Err(format!("{} is missing", opts.layers.display()));
    }
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    println!(
        "# perf ledger: seed {}, {} run{}",
        opts.seed,
        if opts.traced { "traced" } else { "untraced" },
        if opts.quick {
            ", quick (1/20 length)"
        } else {
            ""
        }
    );
    let mut all_ok = true;
    for w in &opts.workloads {
        println!("# {}: {}", w.name, w.why);
        let outcome = if opts.traced {
            run_traced(opts, w)?
        } else {
            run_untraced(opts, w)?
        };
        all_ok &= outcome.report(w, opts.traced)?;
    }
    Ok(all_ok)
}

/// What one workload's run produced.
struct Outcome {
    values: Values,
    fingerprint: u64,
    attempted: u64,
    failed: u64,
    /// Failed output checks and regime guards; empty when all held.
    problems: Vec<String>,
}

impl Outcome {
    /// Prints every metric as `workload metric value unit`, then the
    /// driver's JSON line; returns whether every check held.
    fn report(&self, w: &Workload, traced: bool) -> Result<bool, String> {
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .find(|(n, _)| *n == name)
                .map(|(_, u)| u)
                .ok_or_else(|| format!("{name} is in neither metric table"))
        };
        for (name, value) in &self.values.0 {
            println!("{} {name} {value} {}", w.name, unit_of(name)?);
        }
        println!("{} sim_fingerprint {:016x} hash", w.name, self.fingerprint);
        for p in &self.problems {
            println!("# {} CHECK FAILED: {p}", w.name);
        }
        let names: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut metrics = Vec::new();
        for name in names {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("{name} was not measured on {}", w.name))?;
            if !value.is_finite() {
                // `inf` and `NaN` are not JSON.
                return Err(format!("{name} is {value} on {}", w.name));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)?
            ));
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(correct)
    }
}

/// A metrics file produced by one simulator invocation, removed again
/// when the value is dropped.
struct TempFile(PathBuf);

impl TempFile {
    fn new(opts: &Options, w: &Workload, tag: &str) -> Self {
        TempFile(opts.out.join(format!(
            "{}.s{}.p{}.{tag}",
            w.name,
            opts.seed,
            std::process::id()
        )))
    }

    fn arg(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }

    fn read(&self) -> Result<Vec<u8>, String> {
        std::fs::read(&self.0).map_err(|e| format!("cannot read {}: {e}", self.0.display()))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        // Best effort: a leftover file under the ignored out/ directory
        // is harmless.
        let _ = std::fs::remove_file(&self.0);
    }
}

fn requests_of(opts: &Options, w: &Workload) -> u64 {
    if opts.quick {
        w.requests / QUICK_DIVISOR
    } else {
        w.requests
    }
}

/// One simulator invocation writing its metrics to `file`.
fn sim_with_metrics(
    opts: &Options,
    args: &[String],
    file: &TempFile,
) -> Result<(child::ChildCost, Vec<u8>), String> {
    let mut args = args.to_vec();
    args.extend(["--metrics-out".into(), file.arg()]);
    let cost = child::run(&opts.sim, &args)?;
    Ok((cost, file.read()?))
}

fn parse_metrics(bytes: &[u8]) -> Result<MetricsFile, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "metrics file is not UTF-8")?;
    MetricsFile::parse(text)
}

/// Simulated metrics, exact per-layer counts, output check and regime
/// guard from one metrics file. Returns `(attempted, lost)`.
fn simulated(
    opts: &Options,
    w: &Workload,
    file: &MetricsFile,
    requests: u64,
    values: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let (attempted, lost, ok_share) = derive::ok_ops(w, file, requests)?;
    if lost > 0 {
        problems.push(format!(
            "{lost} of {attempted} requests were neither completed nor shed"
        ));
    }
    values.extend(derive::sim_end_to_end(w, file)?);
    values.extend(derive::exact_layers(w, file, requests)?);
    let regime = derive::regime_failures(w, file, values)?;
    values.push("bench.regime_ok", if regime.is_empty() { 1.0 } else { 0.0 });
    for r in regime {
        if opts.quick {
            // A twentieth of the length does not reach the frozen
            // regime (the device has not filled, the LSM is still
            // loading); report it, do not fail the smoke run on it.
            println!("# {} regime guard (not enforced with --quick): {r}", w.name);
        } else {
            problems.push(format!("regime guard: {r}"));
        }
    }
    // Any failed check so far (differing repetitions included) means
    // none of the run's operations count.
    values.push(
        "ok_ops_share",
        if problems.is_empty() { ok_share } else { 0.0 },
    );
    Ok((attempted, lost))
}

/// The untraced run: set-up invocations, repeated timed invocations,
/// output checks. Host metrics are medians over the repetitions.
fn run_untraced(opts: &Options, w: &Workload) -> Result<Outcome, String> {
    let requests = requests_of(opts, w);
    let mut problems = Vec::new();

    // The calibration kernel runs around the set-ups and after every
    // timed invocation, so its median sees the same stretch of machine
    // weather as they do.
    let mut kernel_s = vec![calib::sample()];
    let setup_args = w.args(1, opts.seed);
    let setup_reps = if opts.quick {
        QUICK_SETUP_REPS
    } else {
        SETUP_REPS
    };
    let mut setups = Vec::new();
    for _ in 0..setup_reps {
        setups.push(child::run(&opts.sim, &setup_args)?);
    }
    kernel_s.push(calib::sample());
    let setup_s = median(&setups.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let setup_cpu_s = median(&setups.iter().map(|c| c.cpu_s).collect::<Vec<_>>());

    let timed_args = w.args(requests, opts.seed);
    let file = TempFile::new(opts, w, "timed.ndjson");
    let started = Instant::now();
    let mut costs = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    while costs.len() < MIN_TIMED_REPS || started.elapsed().as_secs_f64() < opts.seconds {
        let (cost, bytes) = sim_with_metrics(opts, &timed_args, &file)?;
        costs.push(cost);
        kernel_s.push(calib::sample());
        match &first {
            None => first = Some(bytes),
            Some(f) if *f != bytes => problems.push(format!(
                "repetition {} wrote different metrics than the first (same seed must give the same bytes)",
                costs.len()
            )),
            Some(_) => {}
        }
    }
    let bytes = first.expect("at least one timed repetition ran");

    if w.flags.contains(&"--array-threads") {
        // Same seed ⇒ same bytes at any worker-thread count.
        let one = spec::with_flag_value(&timed_args, "--array-threads", "1");
        let (_, single) = sim_with_metrics(opts, &one, &file)?;
        if single != bytes {
            problems.push("--array-threads 1 wrote different metrics than 2 threads".into());
        }
    }

    let metrics = parse_metrics(&bytes)?;
    // Host metrics are reported at reference machine speed (calib.rs).
    let speed = calib::REFERENCE_S / median(&kernel_s);
    let completed = metrics
        .num(&format!("{}.completed", w.prefix))
        .ok_or("metrics file has no completed counter")?;
    let per_rep = |f: &dyn Fn(&child::ChildCost) -> f64| -> f64 {
        median(&costs.iter().map(f).collect::<Vec<_>>())
    };
    // Never credit an invocation with less than a hundredth of its own
    // wall: at --quick length set-up noise can exceed the run itself.
    let raw_req_per_wall_s = per_rep(&|c| completed / (c.wall_s - setup_s).max(c.wall_s / 100.0));
    let raw_cpu_us_per_req = per_rep(&|c| (c.cpu_s - setup_cpu_s).max(0.0) * 1e6 / completed);
    let mut values = Values::default();
    values.push("setup_s", setup_s * speed);
    values.push("req_per_wall_s", raw_req_per_wall_s / speed);
    values.push("cpu_us_per_req", raw_cpu_us_per_req * speed);
    values.push("peak_rss_mb", per_rep(&|c| c.peak_rss_mb));
    println!(
        "# {}: machine speed {speed:.3} of reference (kernel median {:.3} s over {} samples); \
         as measured: setup_s {setup_s:.4}, req_per_wall_s {raw_req_per_wall_s:.0}, \
         cpu_us_per_req {raw_cpu_us_per_req:.4}",
        w.name,
        median(&kernel_s),
        kernel_s.len(),
    );
    let (attempted, lost) = simulated(opts, w, &metrics, requests, &mut values, &mut problems)?;
    println!(
        "# {}: {} timed invocations of {requests} requests, wall {:.2}..{:.2} s each, {setup_reps} set-ups",
        w.name,
        costs.len(),
        costs.iter().map(|c| c.wall_s).fold(f64::INFINITY, f64::min),
        costs.iter().map(|c| c.wall_s).fold(0.0, f64::max),
    );
    Ok(Outcome {
        values,
        fingerprint: ndjson::fingerprint(&bytes),
        attempted,
        failed: if problems.is_empty() { lost } else { attempted },
        problems,
    })
}

/// The traced run: one CLI invocation for the exact counts, the same
/// command under pageFTL, telemetry armed against disarmed (on
/// `read_retry`), and the in-process `bench-layers` run whose simulated
/// counters must equal the CLI's.
fn run_traced(opts: &Options, w: &Workload) -> Result<Outcome, String> {
    let requests = requests_of(opts, w);
    let mut problems = Vec::new();
    let mut values = Values::default();
    let args = w.args(requests, opts.seed);

    let file = TempFile::new(opts, w, "cube.ndjson");
    let (_, bytes) = sim_with_metrics(opts, &args, &file)?;
    let metrics = parse_metrics(&bytes)?;
    let (attempted, lost) = simulated(opts, w, &metrics, requests, &mut values, &mut problems)?;

    let page = spec::with_flag_value(&args, "--ftl", "page");
    let (_, page_bytes) = sim_with_metrics(opts, &page, &file)?;
    let page_iops = parse_metrics(&page_bytes)?
        .num(&format!("{}.iops", w.prefix))
        .ok_or("pageFTL run exported no iops")?;
    let cube_iops = values.get("sim_iops").expect("sim_iops was just computed");
    values.push("ftl.iops_gain_vs_page", cube_iops / page_iops);
    match w.name {
        "write_gc" => println!(
            "# write_gc is Fig. 17 OLTP fresh: the paper reports cubeFTL at 1.48x pageFTL IOPS; \
             this model gives {:.3}x (EXPERIMENTS.md row `~`)",
            cube_iops / page_iops
        ),
        _ => println!(
            "# {} has no paper reference for ftl.iops_gain_vs_page; no error figure is given",
            w.name
        ),
    }

    values.push(
        "telemetry.armed_overhead_share",
        if w.name == "read_retry" {
            telemetry_overhead(opts, w, requests)?
        } else {
            0.0
        },
    );

    let counters = TempFile::new(opts, w, "layers.ndjson");
    let spans = opts
        .out
        .join(format!("{}.s{}.spans.ndjson", w.name, opts.seed));
    let out = Command::new(&opts.layers)
        .args(&args)
        .args(["--counters-out", &counters.arg()])
        .arg("--spans-out")
        .arg(&spans)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", opts.layers.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} failed ({}): {}",
            opts.layers.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, value] = fields[..] else {
            return Err(format!("bench-layers printed an unexpected line: {line}"));
        };
        let known = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("bench-layers printed unknown metric {name}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bench-layers printed a non-number for {name}"))?;
        values.push(known.name, value);
    }

    // The wrappers must not perturb the simulation: every counter line
    // the in-process run exported must appear verbatim in the CLI's file.
    let cli_text = String::from_utf8_lossy(&bytes);
    let cli_lines: std::collections::BTreeSet<&str> = cli_text.lines().collect();
    let layers_bytes = counters.read()?;
    let layers_text = String::from_utf8_lossy(&layers_bytes);
    let differing: Vec<&str> = layers_text
        .lines()
        .filter(|l| !cli_lines.contains(l))
        .collect();
    if layers_text.lines().count() == 0 {
        problems.push("the traced run exported no counters".into());
    }
    for l in differing.iter().take(5) {
        problems.push(format!("traced run differs from the CLI run: {l}"));
    }
    values.push(
        "trace.counters_equal",
        if differing.is_empty() { 1.0 } else { 0.0 },
    );
    println!("# {}: span sample written to {}", w.name, spans.display());

    Ok(Outcome {
        values,
        fingerprint: ndjson::fingerprint(&bytes),
        attempted,
        failed: if problems.is_empty() { lost } else { attempted },
        problems,
    })
}

/// CLI wall with `--trace-out`, `--series-out` and `--metrics-out` all
/// armed ÷ wall with none, minus 1, at a quarter of the run length (the
/// event trace of a full run would be gigabytes).
fn telemetry_overhead(opts: &Options, w: &Workload, requests: u64) -> Result<f64, String> {
    let args = w.args(requests / 4, opts.seed);
    let disarmed = child::run(&opts.sim, &args)?;
    let files = [
        TempFile::new(opts, w, "armed.trace.ndjson"),
        TempFile::new(opts, w, "armed.series.csv"),
        TempFile::new(opts, w, "armed.metrics.ndjson"),
    ];
    let mut armed_args = args;
    armed_args.extend([
        "--trace-out".into(),
        files[0].arg(),
        "--series-out".into(),
        files[1].arg(),
        "--sample-interval-us".into(),
        "1000".into(),
        "--metrics-out".into(),
        files[2].arg(),
    ]);
    let armed = child::run(&opts.sim, &armed_args)?;
    Ok(armed.wall_s / disarmed.wall_s - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_flags_parse() {
        let Mode::Run(o) = parse_args(&args(
            "--sim a --layers b --out c --workload qos_open --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(o.workloads.len(), 1);
        assert_eq!(o.workloads[0].name, "qos_open");
        assert_eq!(
            (o.seed, o.seconds, o.traced, o.quick),
            (7, 10.0, true, false)
        );

        let Mode::Run(o) = parse_args(&args("--sim a --layers b --out c --quick")).unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(o.workloads.len(), 4);
        assert_eq!((o.seed, o.traced, o.quick), (42, false, true));

        assert!(matches!(
            parse_args(&args("--agree x y")).unwrap(),
            Mode::Agree(..)
        ));
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            "--layers b --out c",
            "--sim a --layers b --out c --workload nope",
            "--sim a --layers b --out c --trace 2",
            "--sim a --layers b --out c --seed x",
            "--sim a --layers b --out c --seconds -1",
            "--sim a --layers b --out c --bogus 1",
            "--agree onlyone",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} must be rejected");
        }
    }

    /// Every name the runner pushes is in a table, so `report` can
    /// always find its unit; the JSON takes exactly the table's names.
    #[test]
    fn printed_names_are_table_names() {
        let untraced = [
            "setup_s",
            "req_per_wall_s",
            "cpu_us_per_req",
            "peak_rss_mb",
            "ok_ops_share",
            "sim_iops",
            "sim_read_mean_us",
            "sim_wa_total",
            "sim_senses_per_read",
        ];
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(e2e, untraced);
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "per-layer names are unique");
        assert!(PER_LAYER.iter().all(|m| !e2e.contains(&m.name)));
    }
}
