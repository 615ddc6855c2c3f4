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
