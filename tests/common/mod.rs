//! Helpers shared by the integration suites.
#![allow(dead_code)]

use cubeftl::harness::{EvalConfig, RunOutput, Scenario, WorkloadSource};
use cubeftl::{AgingState, FtlKind, SimReport, Trace};

/// The second worker-thread count of every thread-invariance test
/// (compared against one thread): `CUBEFTL_THREADS` if set — CI runs
/// the array suites at 2 and 8 — else 4. Results must be identical at
/// any value.
pub fn threads() -> usize {
    std::env::var("CUBEFTL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Runs a scenario the test expects to be valid.
pub fn run(sc: &Scenario) -> RunOutput {
    sc.run()
        .unwrap_or_else(|e| panic!("scenario rejected: {e}"))
}

/// One plain single-device evaluation cell: its device report.
pub fn eval(
    kind: FtlKind,
    workload: impl Into<WorkloadSource>,
    aging: AgingState,
    cfg: &EvalConfig,
) -> SimReport {
    run(&Scenario::new(kind, workload, aging, cfg)).into_sim()
}

/// Parses the MSR-style CSV `tests/data/<name>` at 16-KB pages.
pub fn msr_trace(name: &str) -> Trace {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Trace::from_msr_csv(&text, 16 * 1024, 1 << 40).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Golden-file comparison against `tests/data/<name>`. If an
/// intentional model change shifts a snapshot, regenerate with
/// `UPDATE_GOLDEN=1` and review the diff — the point is that
/// *unintentional* drift fails loudly.
pub fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        golden, actual,
        "{name} drifted from the golden snapshot; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// Runs the CLI with `args` plus `--metrics-out` into the test's own
/// directory `dir`, which must be unique to the test; a failed run
/// panics. Returns stdout and the metrics file.
pub fn cli_metrics(dir: &str, args: &str) -> (String, String) {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&dir).expect("create the output directory");
    let metrics = dir.join("metrics.ndjson");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cubeftl-sim"))
        .args(args.split_whitespace())
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("run cubeftl-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    let text = std::fs::read_to_string(&metrics).expect("read the metrics");
    (String::from_utf8_lossy(&out.stdout).into_owned(), text)
}

/// Field `field` of metric `name` in a `--metrics-out` file.
pub fn metric(text: &str, name: &str, field: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.contains(&format!("\"metric\":\"{name}\"")))
        .unwrap_or_else(|| panic!("no {name} in {text}"));
    let v = &line[line.find(&format!("\"{field}\":")).expect("the field") + field.len() + 3..];
    v[..v.find([',', '}']).expect("a number's end")]
        .parse()
        .expect("a number")
}

/// The paper chip's longest page read (every retry step) and longest
/// WL program (every ISPP loop, each verifying every program state),
/// µs.
pub fn nand_worst_us() -> (f64, f64) {
    let t = nand3d::NandTiming::PAPER;
    let ispp = nand3d::config::IsppModel::PAPER;
    let read_max = t.t_read_us + f64::from(nand3d::MAX_OFFSET_INDEX + 1) * t.t_retry_us;
    let states = nand3d::NUM_PROGRAM_STATES as f64;
    let program_max = f64::from(ispp.max_loop) * (t.t_pgm_us + states * t.t_vfy_us);
    (read_max, program_max)
}

/// A host read's time off the chip: its page transfer on `ssdsim`'s
/// bus (20 µs) and the host's submission (1.5 µs).
pub const READ_BUS_AND_SUBMIT_US: f64 = 20.0 + 1.5;
