//! `bench <name> [--full | --smoke] [--requests N] [--out PATH]` runs
//! one experiment of the reproduction: a paper figure (`fig04` …
//! `fig18`), the scalar `summary`, or an experiment beyond the paper.
//! Each is one entry of [`EXPERIMENTS`] and one module under `src/exp/`
//! with a `pub fn run(&BenchArgs)`; `DESIGN.md` has the figure →
//! experiment index. The flags are parsed here, once, for every
//! experiment:
//!
//! * `--full` — the paper-scale SSD (428 blocks/chip ≈ 32 GB),
//! * `--smoke` — a tiny CI-scale run,
//! * (default) — the reduced scale (64 blocks/chip), which preserves the
//!   topology and FTL behaviour at laptop runtimes,
//! * `--requests N` — the simulated request count, clamped into the
//!   experiment's range,
//! * `--out PATH` — the result file, for an experiment that writes one;
//!   no file is written without it.
//!
//! A missing or unknown name, or any other flag, prints the usage and
//! exits with status 2. `tools/bench_smoke.sh OUTDIR` runs every
//! experiment at CI scale — the referee for "no number moved".

use cubeftl::harness::EvalConfig;
use std::ops::RangeInclusive;

/// An experiment's parsed flags.
pub struct BenchArgs {
    /// The evaluation scale — paper (`--full`), CI (`--smoke`) or the
    /// reduced default — with `--requests N` applied and clamped.
    pub cfg: EvalConfig,
    /// Whether `--full` chose the paper scale.
    pub full: bool,
    /// `--out PATH`: where to write the experiment's result file.
    pub out: Option<String>,
}

/// One experiment: its name, whether it writes a result file (and so
/// takes `--out PATH`), the request counts it runs at, and its body.
struct Experiment(&'static str, bool, RangeInclusive<u64>, fn(&BenchArgs));

/// Declares the module `src/exp/<name>.rs` of every experiment and
/// [`EXPERIMENTS`], its table, from one `name(writes a file, requests)`
/// list.
macro_rules! experiments {
    ($($name:ident($file:expr, $requests:expr),)*) => {
        mod exp {
            $(pub mod $name;)*
        }
        const EXPERIMENTS: &[Experiment] = &[
            $(Experiment(stringify!($name), $file, $requests, exp::$name::run),)*
        ];
    };
}

/// Any request count: the experiment simulates no host requests, or
/// runs at whatever count it is given.
const ANY: RangeInclusive<u64> = 0..=u64::MAX;

// The upper bounds keep CI runtimes short. A floor is the fewest
// requests at which the experiment's own assertions have something to
// check: `kv` many flush/compaction rounds, `lifetime` five phases per
// campaign, `maint` uncorrectable reads, `rebuild` degraded reads,
// `retry` a cluster warmed past its per-h-layer sample threshold, `shard`
// a request for each of 8 shards, `spo` seeded cuts that fire.
experiments! {
    ablate(false, 0..=40_000),
    active_sweep(true, 0..=40_000),
    campaign(false, ANY),
    fig04(false, ANY),
    fig05(false, ANY),
    fig06(false, ANY),
    fig08(false, ANY),
    fig09(false, ANY),
    fig10(false, ANY),
    fig11(false, ANY),
    fig13(false, ANY),
    fig14(false, ANY),
    fig17(false, ANY),
    fig18(false, ANY),
    kv(true, 8_000..=24_000),
    lifetime(true, 2_000..=12_000),
    maint(false, 4_000..=30_000),
    qos(true, 6_000..=20_000),
    rebuild(true, 300..=4_000),
    retry(true, 15_000..=30_000),
    shard(false, 10..=8_000),
    spo(false, 500..=20_000),
    summary(false, ANY),
    sweep_aging(false, 0..=30_000),
}

fn main() {
    let (Experiment(.., run), args) = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", usage());
        std::process::exit(2)
    });
    run(&args);
}

/// Parses `<name> [flags]`: the named experiment and its flags.
fn parse(
    mut argv: impl Iterator<Item = String>,
) -> Result<(&'static Experiment, BenchArgs), String> {
    let name = argv.next().ok_or("no experiment named")?;
    let found = EXPERIMENTS.iter().find(|e| e.0 == name);
    let exp = found.ok_or(format!("unknown experiment {name:?}"))?;
    let (mut cfg, mut full, mut out, mut requests) = (EvalConfig::reduced(), false, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--full" => (cfg, full) = (EvalConfig::paper(), true),
            "--smoke" => (cfg, full) = (EvalConfig::smoke(), false),
            "--requests" => {
                let v = value()?;
                let n = v.parse::<u64>();
                requests = Some(n.map_err(|_| format!("--requests: {v:?} is not a count"))?);
            }
            "--out" if exp.1 => out = Some(value()?),
            _ => return Err(format!("{name}: unknown flag {flag:?}")),
        }
    }
    let requests = requests.unwrap_or(cfg.requests);
    cfg.requests = requests.clamp(*exp.2.start(), *exp.2.end());
    Ok((exp, BenchArgs { cfg, full, out }))
}

/// The command line, with every experiment's name; `*` marks those
/// that write a result file.
fn usage() -> String {
    let name = |e: &Experiment| format!("{}{}", e.0, if e.1 { "*" } else { "" });
    let names: Vec<String> = EXPERIMENTS.iter().map(name).collect();
    let flags = "[--full | --smoke] [--requests N] [--out PATH, for names marked *]";
    format!("usage: bench <name> {flags}\nnames: {}", names.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_parse_names_the_experiment_checks_its_flags_and_clamps_its_requests() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            EXPERIMENTS.len(),
            "experiment names are unique"
        );
        let usage = usage();
        for name in &names {
            let listed = usage
                .split_whitespace()
                .any(|w| w.trim_end_matches('*') == *name);
            assert!(listed, "the usage lists {name}: {usage}");
        }

        let parse = |line: &str| parse(line.split_whitespace().map(str::to_owned)).map(|p| p.1);
        let ok = parse("kv --smoke --requests 9000 --out f.csv").expect("a valid line");
        assert_eq!(
            ok.cfg.blocks_per_chip(),
            EvalConfig::smoke().blocks_per_chip()
        );
        assert_eq!((ok.out.as_deref(), ok.full), (Some("f.csv"), false));
        // The request count each line runs at: the scale's default or
        // `--requests`, clamped into the experiment's range.
        for (line, requests) in [
            ("kv --smoke --requests 9000 --out f.csv", 9_000),
            ("fig04", EvalConfig::reduced().requests),
            ("fig17 --full", EvalConfig::paper().requests),
            ("maint --smoke --requests 1", 4_000),
            ("kv --requests 1000000000", 24_000),
            ("retry --smoke", 15_000),
        ] {
            let args = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(args.cfg.requests, requests, "{line}");
        }
        assert!(parse("fig17 --full").expect("a valid line").full);
        for (line, why) in [
            ("", "no experiment named"),
            ("nope", "unknown experiment \"nope\""),
            ("fig04 --smok", "unknown flag \"--smok\""),
            ("maint --out f.csv", "unknown flag \"--out\""),
            ("maint --requests", "--requests needs a value"),
            ("maint --requests many", "\"many\" is not a count"),
            ("maint extra", "unknown flag \"extra\""),
            ("kv --out", "--out needs a value"),
        ] {
            let Err(e) = parse(line) else {
                panic!("{line:?} must be rejected")
            };
            assert!(
                e.contains(why),
                "{line:?} is rejected for {why:?}, not {e:?}"
            );
        }
    }
}
