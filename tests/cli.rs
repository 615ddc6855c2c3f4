//! Byte-level pins of the `cubeftl-sim` binary: one flag line per run
//! mode, each compared — stdout, stderr, exit code and every output
//! file — against a snapshot under `tests/data/cli/`.
//!
//! The snapshots were generated before the harness collapsed into one
//! `Scenario`/`run`, so they hold the CLI to the bytes the per-mode
//! runners produced. A missing snapshot is written and the test fails
//! once ("re-run"); to regenerate one on purpose, delete its file.
//!
//! `{out}` in a flag line is the case's private output directory (it is
//! substituted back in the captured text, so snapshots are
//! machine-independent). Output files are pinned by size and FNV-1a
//! hash, not content — the telemetry suite already pins the formats.
//!
//! The thread-invariance test honours `CUBEFTL_THREADS` (CI runs the
//! suite at 2 and 8) as the second `--array-threads` count.

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the binary on `args` from the repository root and renders
/// everything observable about the run as snapshot text.
fn observe(name: &str, args: &str) -> String {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create the case's output directory");
    let out_str = out.to_str().expect("utf-8 temp path");
    let run = Command::new(env!("CARGO_BIN_EXE_cubeftl-sim"))
        .args(args.split_whitespace().map(|a| a.replace("{out}", out_str)))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cubeftl-sim");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).replace(out_str, "{out}");
    let mut files: Vec<String> = std::fs::read_dir(&out)
        .expect("list the output directory")
        .map(|e| {
            let path = e.expect("directory entry").path();
            let body = std::fs::read(&path).expect("read an output file");
            format!(
                "{} {} bytes fnv64 {:016x}\n",
                path.file_name().expect("file name").to_string_lossy(),
                body.len(),
                fnv64(&body)
            )
        })
        .collect();
    files.sort();
    format!(
        "$ cubeftl-sim {args}\nexit: {:?}\n--- stdout\n{}--- stderr\n{}--- files\n{}",
        run.status.code(),
        text(&run.stdout),
        text(&run.stderr),
        files.concat()
    )
}

fn check(name: &str, args: &str) {
    let snap = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/cli")
        .join(format!("{name}.snap"));
    let got = observe(name, args);
    match std::fs::read_to_string(&snap) {
        Ok(want) => assert!(
            got == want,
            "{name}: output drifted from {}\n--- got\n{got}\n--- want\n{want}",
            snap.display()
        ),
        Err(_) => {
            std::fs::write(&snap, &got).expect("write the new snapshot");
            panic!("{name}: no snapshot yet; wrote {} — re-run", snap.display());
        }
    }
}

macro_rules! cases {
    ($($name:ident: $args:expr;)*) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), $args);
        }
    )*};
}

/// Every telemetry writer at once.
const FILES: &str = "--trace-out {out}/trace.ndjson --metrics-out {out}/metrics.ndjson \
                     --series-out {out}/series.csv --sample-interval-us 2000";

cases! {
    plain: "--ftl cube --blocks 16 --requests 3000";
    plain_files: &format!("--ftl cube --blocks 16 --requests 1500 --workload mail --aging eol {FILES}");
    plain_trace_events: "--ftl cube --blocks 16 --requests 1500 --aging eol \
                         --trace-out {out}/trace.ndjson --trace-events retry,gc";
    all_kinds: "--ftl all --blocks 16 --requests 2000 --workload oltp --aging midlife --temp 45";
    faults_maint: "--ftl all --blocks 16 --requests 1200 --workload web --aging eol --maint \
                   --maint-gap-us 50 --maint-scrub-batch 96 --fault-seed 7 \
                   --fault-rate ber-spike=0.02 --fault-rate abort=0.01 \
                   --fault-rate stuck-retry=0.05 --fault-rate uncorrectable=0.02";
    read_pipeline_v2: "--ftl cube --blocks 16 --requests 3000 --workload rocks --aging eol \
                       --ort-capacity 16 --ort-cluster on --retry-opt on";
    shards4: &format!("--ftl cube --blocks 16 --requests 3000 --shards 4 {FILES}");
    shards4_one_thread: &format!("--ftl cube --blocks 16 --requests 3000 --shards 4 --array-threads 1 {FILES}");
    shards4_all_kinds: "--ftl all --blocks 12 --requests 2000 --shards 4 --array-stripe 16 --maint";
    trace_file: "--ftl all --blocks 16 --trace-file tests/data/sample_trace.csv";
    trace_file_native_shards4: "--ftl cube --blocks 16 --shards 4 --array-stripe 8 \
                                --trace-file tests/data/traces/ycsb_a.csv";
    capture_plain: "--ftl cube --blocks 16 --requests 800 --workload proxy \
                    --capture-trace-out {out}/cap.csv --metrics-out {out}/metrics.ndjson";
    capture_kv: "--ftl cube --blocks 16 --requests 800 --kv b --capture-trace-out {out}/cap.csv";
    capture_replay: "--ftl cube --blocks 16 --trace-file tests/data/traces/ycsb_a.csv \
                     --capture-trace-out {out}/cap.csv";
    kv_a: &format!("--ftl cube --blocks 16 --requests 3000 --kv a --aging eol {FILES}");
    kv_a_all_kinds: "--ftl all --blocks 16 --requests 2000 --kv f --kv-keys 4000 --kv-fanout 4";
    kv_memtable: "--ftl cube --blocks 16 --requests 3000 --kv a --kv-keys 4000 --kv-memtable-entries 512";
    // A key space that churns the whole prefilled device: flush placement
    // must pass over the chips it has overfilled (this line used to die in
    // `Wam::select`, "the allocator returned none").
    kv_churns_a_tight_device: "--ftl cube --kv a --blocks 16 --kv-value-bytes 16360 \
                               --kv-keys 1000000 --requests 300000";
    kv_a_shards4: &format!("--ftl cube --blocks 16 --requests 3000 --kv a --shards 4 --array-threads 2 {FILES}");
    qos: &format!("--ftl cube --blocks 16 --requests 3000 --queues 4 --tenants 12 \
                   --tenant-weights 8,4,2,1 --qos-slo-read-us 5000 {FILES}");
    qos_all_kinds_trace: "--ftl all --blocks 16 --requests 2000 --queues 2 --tenants 20 \
                          --qos-equal-arrivals --qos-arrival-us 40 --qos-sq-depth 4 \
                          --qos-trace tests/data/traces/msr_web_rd.csv";
    qos_shards4: &format!("--ftl cube --blocks 16 --requests 3000 --shards 4 --queues 4 --tenants 12 {FILES}");
    spo_at: "--ftl all --blocks 16 --requests 1500 --workload oltp --aging midlife \
             --spo-at 800 --ckpt-interval 32";
    spo_never_fires: "--ftl cube --blocks 16 --requests 1000 --spo-at 5000";
    spo_rate: "--ftl cube --blocks 16 --requests 3000 --workload mail --spo-rate 0.002 \
               --spo-seed 45063 --ckpt-interval 0 --maint";
    spo_shards4: "--ftl all --blocks 16 --requests 3000 --workload mail --aging midlife \
                  --shards 4 --spo-at-us 40000";
    spo_files: &format!("--ftl cube --blocks 16 --requests 1500 --workload oltp --aging midlife \
                         --spo-at 800 --ckpt-interval 32 {FILES}");
    spo_shards4_files: &format!("--ftl cube --blocks 16 --requests 3000 --workload mail \
                                 --aging midlife --shards 4 --spo-at-us 40000 {FILES}");
    failure: "--ftl cube --blocks 16 --requests 2000 --workload oltp --shards 4 --array-stripe 16 \
              --array-parity --fail-shard 1@3000 --spare-shards 1 \
              --trace-out {out}/trace.ndjson --trace-events degraded,rebuild \
              --metrics-out {out}/metrics.ndjson";
    failure_series: "--ftl cube --blocks 16 --requests 2000 --workload oltp --shards 4 \
                     --array-stripe 16 --array-parity --fail-shard 1@3000 --spare-shards 1 \
                     --series-out {out}/series.csv --sample-interval-us 2000";
    failure_trace_events: "--ftl cube --blocks 16 --requests 2000 --workload oltp --shards 4 \
                           --array-stripe 16 --array-parity --fail-shard 1@3000 --spare-shards 1 \
                           --trace-out {out}/trace.ndjson --trace-events degraded";
    failure_spo: "--ftl cube --blocks 16 --requests 2000 --workload oltp --shards 4 --array-stripe 16 \
                  --array-parity --fail-shard 1@3000 --spare-shards 1 --spo-at-us 2000 \
                  --rebuild-batch 4 --rebuild-gap-us 100";
    failure_spo_trace_events_spo: "--ftl cube --blocks 16 --requests 2000 --workload oltp --shards 4 \
                                   --array-stripe 16 --array-parity --fail-shard 1@3000 \
                                   --spare-shards 1 --spo-at-us 2000 --rebuild-batch 4 \
                                   --rebuild-gap-us 100 --trace-out {out}/trace.ndjson \
                                   --trace-events spo";
    failure_seeded: "--ftl cube --blocks 16 --requests 2000 --workload oltp --shards 3 \
                     --array-stripe 16 --array-parity --fail-seed 7 --spare-shards 1";
    failure_parity_off: "--ftl cube --blocks 16 --requests 2000 --workload oltp --shards 3 \
                         --array-stripe 16 --fail-shard 1@3000 --spare-shards 1";
    failure_healthy: "--ftl cube --blocks 16 --requests 1500 --shards 3 --array-parity \
                      --metrics-out {out}/metrics.ndjson";
    lifetime: "--ftl all --blocks 16 --requests 2000 --workload mail --lifetime-epochs 3 \
               --lifetime-pe 150 --lifetime-months 3 --maint";
    lifetime_files: &format!("--ftl cube --blocks 16 --requests 1500 --lifetime-epochs 3 {FILES}");
    lifetime_shards4: "--ftl cube --blocks 16 --requests 2000 --lifetime-epochs 3 --shards 4 \
                       --array-threads 2";
    lifetime_trace_file: "--ftl cube --blocks 16 --lifetime-epochs 3 \
                          --trace-file tests/data/traces/ycsb_a.csv";
    lifetime_workloads: "--ftl cube --blocks 16 --requests 2000 --lifetime-epochs 3 \
                         --lifetime-workloads a,c --kv-keys 4000";
    lifetime_workloads_shards4: "--ftl cube --blocks 16 --requests 2000 --shards 4 \
                                 --lifetime-workloads oltp,a --lifetime-pattern-wear on";
    trace_file_files: &format!("--ftl cube --blocks 16 --trace-file tests/data/traces/ycsb_a.csv {FILES}");
    trace_file_spo: "--ftl cube --blocks 16 --trace-file tests/data/traces/ycsb_a.csv --spo-at 400";
    kv_spo: "--ftl cube --blocks 16 --requests 3000 --kv a --kv-keys 4000 --spo-at 1500";
    kv_spo_shards4: "--ftl cube --blocks 16 --requests 3000 --kv a --kv-keys 4000 --shards 4 \
                     --spo-at-us 20000";
    kv_failure: "--ftl cube --blocks 16 --requests 2000 --kv a --kv-keys 4000 --shards 4 \
                 --array-stripe 16 --array-parity --fail-shard 1@3000 --spare-shards 1 \
                 --metrics-out {out}/metrics.ndjson";
    trace_file_failure: "--ftl cube --blocks 16 --trace-file tests/data/traces/ycsb_a.csv --shards 4 \
                         --array-stripe 16 --array-parity --fail-shard 1@3000 --spare-shards 1";
    kv_lifetime: "--ftl cube --blocks 16 --requests 2000 --kv a --kv-keys 4000 --lifetime-epochs 3";
    lifetime_trace_file_shards4: "--ftl cube --blocks 16 --lifetime-epochs 3 --shards 4 \
                                  --array-stripe 8 --trace-file tests/data/traces/ycsb_a.csv";
    kv_qos: &format!("--ftl cube --blocks 16 --requests 1500 --kv a --kv-keys 4000 --queues 4 \
                      --tenants 4 --tenant-weights 4,1 --qos-arrival-us 3000 {FILES}");
    rejects_kv_with_trace_file: "--ftl cube --blocks 16 --kv a --trace-file tests/data/sample_trace.csv";
    rejects_tiny_sample_interval: "--ftl cube --blocks 16 --series-out {out}/series.csv \
                                   --sample-interval-us 0.0000001";
    rejects_lifetime_with_spo: "--ftl cube --blocks 16 --lifetime-epochs 3 --spo-at 100";
    rejects_array_spo_by_ops: "--ftl cube --blocks 16 --shards 4 --spo-at 100";
    rejects_resilience_without_array: "--ftl cube --blocks 16 --array-parity";
    rejects_fewer_tenants_than_shards: "--ftl cube --blocks 16 --shards 4 --queues 4 --tenants 2";
    // Each of the next three used to abort in the allocator.
    rejects_more_queues_than_tenants: "--requests 200 --blocks 12 --queues 4294967295";
    rejects_more_tenants_than_a_run_builds: "--requests 200 --blocks 12 --queues 2 \
                                             --tenants 4294967295";
    rejects_more_shards_than_a_run_builds: "--requests 200 --blocks 12 --shards 4000000000";
    rejects_capture_on_an_array: "--ftl cube --blocks 16 --shards 4 --capture-trace-out {out}/cap.csv";
    rejects_qos_knob_without_engagement: "--ftl cube --blocks 16 --qos-sq-depth 4";
    rejects_unknown_flag: "--ftl cube --bogus 1";
    rejects_oversized_trace_write: "--ftl cube --blocks 16 --trace-file tests/data/oversized_write.csv";
    rejects_too_few_blocks: "--ftl cube --blocks 4";
    rejects_too_many_blocks: "--ftl cube --blocks 4000000000";
    rejects_temp_out_of_range: "--ftl cube --blocks 16 --temp 1e9";
    rejects_kv_value_larger_than_a_page: "--ftl cube --blocks 16 --kv a --kv-value-bytes 16385";
    rejects_abort_rate_the_device_cannot_absorb: "--ftl cube --blocks 16 --requests 500 \
                                                  --fault-rate abort=0.8";
    rejects_zero_ort_capacity: "--ftl cube --blocks 16 --ort-capacity 0";
}

/// The last value inside each range `Scenario::validate` checks is not
/// rejected with its neighbour.
#[test]
fn boundary_values_of_the_checked_ranges_still_run() {
    for flags in [
        "--temp -40",
        "--temp 125",
        "--kv a --kv-value-bytes 16360",
        "--fault-rate abort=0.3",
    ] {
        let line = format!("--ftl cube --blocks 16 --requests 500 {flags}");
        let seen = observe("boundary_values", &line);
        assert!(seen.contains("\nexit: Some(0)\n"), "{seen}");
    }
}

/// Each flag writes the scenario field it names, so the order the flags
/// come in cannot change the run.
#[test]
fn flag_order_does_not_change_the_output() {
    for pair in [
        ["--maint-gap-us 500 --maint", "--maint --maint-gap-us 500"],
        [
            "--array-stripe 32 --shards 2",
            "--shards 2 --array-stripe 32",
        ],
        [
            "--rebuild-gap-us 100 --spare-shards 1 --array-parity --shards 3 --fail-shard 1@2000",
            "--shards 3 --fail-shard 1@2000 --array-parity --rebuild-gap-us 100 --spare-shards 1",
        ],
        [
            "--lifetime-pe 500 --lifetime-epochs 3",
            "--lifetime-epochs 3 --lifetime-pe 500",
        ],
    ] {
        let [a, b] = pair.map(|flags| {
            let seen = observe(
                "flag_order",
                &format!("--blocks 16 --requests 1500 {flags}"),
            );
            assert!(seen.contains("\nexit: Some(0)\n"), "{seen}");
            seen.lines().skip(1).collect::<Vec<_>>().join("\n")
        });
        assert_eq!(a, b, "{pair:?}");
    }
}

#[test]
fn sharded_run_is_identical_at_any_array_threads() {
    // Everything but the flag line and the banner's thread count —
    // table, summaries, every output file — must be byte-identical,
    // whichever source and barriers the run composes.
    let lines = [
        format!("--requests 2000 --kv a --shards 4 {FILES}"),
        "--requests 2000 --kv a --kv-keys 4000 --shards 4 --array-stripe 16 --array-parity \
         --fail-shard 1@3000 --spare-shards 1 --metrics-out {out}/metrics.ndjson"
            .to_owned(),
        "--trace-file tests/data/traces/ycsb_a.csv --shards 4 --array-stripe 16 --array-parity \
         --fail-shard 1@3000 --spare-shards 1 --trace-out {out}/trace.ndjson"
            .to_owned(),
        "--requests 2000 --kv a --kv-keys 4000 --shards 4 --lifetime-epochs 3".to_owned(),
        "--lifetime-epochs 3 --shards 4 --array-stripe 8 \
         --trace-file tests/data/traces/ycsb_a.csv"
            .to_owned(),
        format!(
            "--requests 1500 --kv a --kv-keys 4000 --shards 4 --queues 4 --tenants 8 \
             --qos-arrival-us 1000 {FILES}"
        ),
        format!(
            "--requests 3000 --workload mail --aging midlife --shards 4 --spo-at-us 40000 {FILES}"
        ),
        format!("--requests 1500 --shards 4 --lifetime-epochs 3 {FILES}"),
        format!(
            "--requests 2000 --workload oltp --shards 4 --array-stripe 16 --array-parity \
             --fail-shard 1@3000 --spare-shards 1 --spo-at-us 2000 {FILES}"
        ),
    ];
    for (i, line) in lines.iter().enumerate() {
        let at = |threads: usize| {
            let flags = format!("--ftl cube --blocks 16 {line} --array-threads {threads}");
            observe(&format!("array_threads_{i}_{threads}"), &flags)
                .lines()
                .filter(|l| !l.starts_with("$ ") && !l.starts_with("array: "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = at(1);
        assert!(one.contains("exit: Some(0)"), "{line}: {one}");
        assert_eq!(one, at(common::threads().max(2)), "{line}");
    }
}
