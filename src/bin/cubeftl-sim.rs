//! `cubeftl-sim` — run one SSD simulation from the command line.
//!
//! ```text
//! cubeftl-sim [--ftl page|vert|cube|cube-|all] [--workload mail|web|proxy|oltp|rocks|mongo]
//!             [--aging fresh|midlife|eol] [--requests N] [--blocks N] [--seed N] [--temp C]
//!             [--fault-seed N] [--fault-rate CLASS=RATE]...
//!             [--maint] [--maint-gap-us F] [--maint-scrub-months F] [--maint-scrub-ber F]
//!             [--maint-remonitor-pe N] [--maint-wear-limit N]
//!             [--spo-at N | --spo-at-us T | --spo-rate P] [--spo-seed N] [--ckpt-interval N]
//!             [--shards N] [--array-stripe PAGES] [--array-threads N]
//!             [--array-parity] [--fail-shard ID@US | --fail-seed N] [--spare-shards N]
//!             [--rebuild-batch PAGES] [--rebuild-gap-us T]
//!             [--ort-capacity N] [--ort-cluster on|off] [--retry-opt on|off] [--trace-file PATH]
//!             [--queues N] [--tenants N] [--tenant-weights A,B,C] [--qos-sq-depth N]
//!             [--qos-arrival-us T] [--qos-equal-arrivals] [--qos-slo-read-us T]
//!             [--qos-slo-write-us T] [--qos-trace PATH]
//!             [--lifetime-epochs N] [--lifetime-pe N] [--lifetime-months F] [--lifetime-exp Q]
//!             [--lifetime-variation F] [--lifetime-pattern-wear on|off] [--lifetime-seed N]
//!             [--lifetime-workloads W1,W2,...]
//!             [--kv a|b|c|d|f] [--kv-keys N] [--kv-value-bytes N] [--kv-memtable-entries N]
//!             [--kv-l0-files N] [--kv-fanout N] [--kv-levels N]
//!             [--capture-trace-out PATH]
//!             [--trace-out PATH] [--trace-events SPEC] [--metrics-out PATH]
//!             [--series-out PATH] [--sample-interval-us T]
//! ```
//!
//! Every flag writes the field of the one `harness::Scenario` it names,
//! so the order flags come in does not matter; `Scenario::run` executes
//! it once per `--ftl` kind. The report is composed the same way: one
//! banner per engaged spec, then per kind the main phase's row (or a
//! campaign's epoch table) followed by a block for each feature the run
//! produced — resilience, crash, QoS, KV. The binary exits non-zero
//! exactly when an audit found host-acknowledged data lost.
//!
//! `--fault-rate` enables seeded fault injection (repeatable); CLASS is one
//! of `ispp-outlier`, `ber-spike`, `stuck-retry`, `uncorrectable`, `abort`.
//! RATE is a probability; an `abort` rate above
//! `harness::MAX_PROGRAM_ABORT_RATE` (0.3) is rejected (aborted WLs eat the space GC
//! needs). `--temp` takes −40 to 125 °C and `--kv-value-bytes` at most
//! 16360 (a page less the entry header); `Scenario::validate` owns all
//! three checks.
//!
//! `--maint` enables the background maintenance subsystem (retention
//! scrubbing, wear leveling, OPM re-monitoring) with default thresholds;
//! any `--maint-*` knob implies `--maint`. Every knob, the host-priority
//! gap included, fills the one `MaintConfig` the scenario carries, and
//! maintenance is on exactly when it carries one. `--maint-gap-us` is
//! that gap (default 200): after each background op a chip stays
//! reserved for host work that long before the next one may be
//! dispatched on it.
//!
//! `--spo-at N` arms a sudden power-off after N completed host requests
//! (`--spo-at-us` cuts at a simulated time instead, `--spo-rate` draws a
//! seeded per-request Bernoulli cut). The run then becomes the crash
//! experiment, the same pipeline on one device as on an array: the cut,
//! the power-cut physics (torn WL programs, interrupted erases), a
//! boot-time recovery that rebuilds the L2P map from the last checkpoint
//! plus an OOB scan (the OPM/ORT boot cold and re-monitor on first
//! touch), an audit of every host-acknowledged page against the durable
//! ledger at the cut, and a resumed run over the workload remainder.
//! `--ckpt-interval` sets the periodic L2P checkpoint cadence in host WL
//! programs (default 64; 0 disables, forcing a full-array OOB rebuild);
//! without a cut it is rejected.
//!
//! `--shards N` (N > 1, at most `harness::MAX_SHARDS` = 256) runs a
//! sharded multi-device array: host LPNs are
//! striped across N independent devices (`--array-stripe` pages per
//! stripe unit), each with its own FTL, chips and seeded workload
//! substream, built and executed on `--array-threads` worker threads
//! (default: one per shard) and merged deterministically — the same seed
//! produces a byte-identical merged report at any thread count. Without
//! `--shards > 1`, `--array-stripe` and `--array-threads` are rejected.
//! Combined with a
//! power cut, the array demands `--spo-at-us`: every shard is cut at the
//! same virtual instant and recovered independently.
//!
//! `--array-parity` adds RAID-5-style rotating cross-shard XOR parity to
//! the array (one parity page per stripe row, rotated left-symmetric).
//! `--fail-shard ID@US` kills a whole shard at a virtual instant (or
//! `--fail-seed N` derives a deterministic failure plan from a seed);
//! the surviving shards serve degraded reads by fan-out reconstruction
//! while a background rebuild — paced by the idle-window scheduler,
//! `--rebuild-batch` pages per unit with a `--rebuild-gap-us` host
//! priority gap — repopulates a blank spare (`--spare-shards 1`). Any
//! of these flags engages array resilience. Adding
//! `--spo-at-us` composes an array-wide power cut into the degraded
//! phase. The run exits non-zero unless the audit proves zero
//! host-acknowledged loss. The request source is free (`--workload`,
//! `--kv` or `--trace-file`: one global stream, routed); array
//! resilience cannot be combined with the QoS front-end, a lifetime
//! campaign or `--capture-trace-out`.
//!
//! `--ort-capacity N` bounds the per-chip offset-reuse table to N entries
//! with LRU eviction (default: unbounded); hit/miss/eviction counters
//! show up in the per-FTL output. `--ort-cluster on` enables the
//! cross-block ΔV_Ref cluster (§4.2.2 closure): ORT misses seed their
//! starting offset from an EWMA of recently decoded offsets on the same
//! chip and h-layer, instead of starting at offset 0. `--retry-opt on`
//! enables the retry-chain optimizations (P/E+retention-conditioned
//! offset prediction, speculative double-stepping, early-terminated
//! uncorrectable scans). Both default to off, which reproduces the
//! pre-cluster pipeline byte-for-byte. `--ort-capacity` and
//! `--ort-cluster` need a kind with an ORT among `--ftl`'s (`cube`,
//! `cube-` or `all`); `--retry-opt` is a chip option every kind reads.
//! `--trace-file PATH` replays an MSR-Cambridge-style CSV trace instead
//! of a synthetic workload (byte offsets folded into the simulated
//! address space at 16-KB page granularity); the run replays the whole
//! trace, so `--requests` is ignored and the header counts the trace.
//!
//! `--queues N` / `--tenants N` (either > 1) engage the NVMe-style
//! multi-queue QoS front-end (`crates/hostq`): the closed loop is
//! replaced by a population of seeded open-loop tenants (at most
//! `harness::MAX_TENANTS` = 100 000) spread over N submission/completion
//! queue pairs (no more pairs than tenants) and scheduled by an integer
//! deficit-weighted-round-robin arbiter. `--tenant-weights A,B,C` cycles
//! DWRR weights over tenant ids (the largest weight is the *protected*
//! class, the smallest *best-effort*). `--queues` and the `--qos-*`
//! knobs fill the one `HostQueueConfig` the scenario's `QosSpec`
//! carries as its front: `--qos-sq-depth` bounds each
//! tenant's submission queue (beyond it arrivals are deterministically
//! shed); `--qos-arrival-us` sets the aggregate mean inter-arrival gap
//! (rates are weight-proportional per tenant, or uniform with
//! `--qos-equal-arrivals`);
//! `--qos-slo-read-us`/`--qos-slo-write-us` arm per-op latency SLOs
//! (violations counted per tenant). `--qos-trace PATH` replays a
//! recorded trace as tenant 0's stream instead of its synthetic
//! generator (single-device runs only). With `--shards`, tenant `t`
//! routes to shard `t % shards` and results merge in shard order — the
//! per-tenant outcome is byte-identical at any `--array-threads` count.
//! With `--queues 1 --tenants 1` (the default) the front-end is
//! disengaged and the device is driven by its closed-loop stream.
//! Engaged, every tenant runs the workload the run names — with `--kv`
//! one LSM engine per tenant, each reporting its own app-level results
//! — and it cannot be combined with `--trace-file` (use `--qos-trace`),
//! SPO cuts, array resilience, a lifetime campaign or
//! `--capture-trace-out`.
//!
//! `--lifetime-epochs N` (N > 1, or any other `--lifetime-*` knob)
//! engages the fast-forward aging campaign (`crates/lifetime`): the
//! device is built and prefilled once, then alternates N workload
//! epochs with N − 1 aging steps. Each step advances every block's
//! virtual age at a barrier — `--lifetime-pe` P/E cycles per step
//! (scaled per block by the similarity model's wear-rate spread,
//! `--lifetime-variation` jitter, and with `--lifetime-pattern-wear on`
//! the resident data's cell-state composition) plus `--lifetime-months`
//! retention months per step shaped by the concave early-retention-loss
//! curve (`--lifetime-exp`, q ≤ 1; smaller front-loads the loss). The
//! output is one row per epoch: the IOPS/retry/WA drift curve from
//! fresh to end-of-life. Unset knobs default to the standard campaign
//! (5 epochs to the paper's 2K P/E + 12 months end-of-life point).
//! Combines with `--maint` (maintenance races the drift), `--shards`
//! (each shard ages under its own seeded engine, byte-identical at any
//! `--array-threads` count), `--kv` (a fresh engine per epoch) and
//! `--trace-file` (the recorded trace replays at every age point, on
//! one device or striped over the array); it cannot be combined with
//! SPO cuts, the QoS front-end, array resilience or
//! `--capture-trace-out`.
//!
//! `--kv KIND` replaces the synthetic workload with the kvsim
//! application layer (`crates/kvsim`): a real miniature LSM-tree KV
//! engine (memtable → SST flush → leveled compaction, group-commit WAL)
//! driven by a YCSB-style generator — KIND is one of `a` (50/50
//! read/update, zipfian), `b` (95/5), `c` (read-only), `d`
//! (read-latest with inserts), `f` (read-modify-write). The device
//! sees the engine's actual flush/compaction/probe traffic, and the
//! output adds app-level results: KV ops/s, read/update p99 page
//! costs, app-level write amplification (SST+WAL pages per user page)
//! and outstanding compaction debt. The `--kv-*` knobs shape the
//! engine (key count, value size, memtable/SST entries, L0 trigger,
//! level fanout and count); the key count is clamped to fit the
//! device. Combines with `--shards` (one independent engine per
//! shard, byte-identical at any `--array-threads` count), the
//! telemetry files (`kv.*` metrics, `kv` trace events), SPO cuts
//! (`--spo-at`, or `--shards N --spo-at-us`: the crash experiment's
//! device-level zero-acknowledged-loss audit over the engine's LPNs),
//! the QoS front-end (one engine per tenant), array resilience (one
//! engine behind the routed global stream) and a lifetime campaign.
//! `--kv`, `--trace-file` and `--lifetime-workloads` each name the
//! request source, so at most one of them may be given. Without `--kv`
//! every run is byte-identical to the pre-KV binary.
//!
//! `--capture-trace-out PATH` records the device-level request stream
//! of a single-device run (synthetic, `--kv`, or `--trace-file`
//! replay) as an MSR-style CSV that `--trace-file` replays
//! byte-identically. Capture observes without perturbing: the run's
//! report is unchanged. Requires a single `--ftl` kind; it cannot be
//! combined with `--shards`, the QoS front-end, SPO cuts, array
//! resilience or a lifetime campaign.
//!
//! `--lifetime-workloads W1,W2,...` overrides the lifetime campaign's
//! workload per epoch: epoch `e` runs phase `e mod N` of the list.
//! Each phase is a standard workload name (`mail`, `web`, `proxy`,
//! `oltp`, `rocks`, `mongo`) or a YCSB KV kind (`a`..`f`, driving the
//! kvsim engine shaped by the `--kv-*` knobs) — e.g.
//! `--lifetime-workloads a,a,c` ages the device under update-heavy
//! churn and then reads it back. The flag engages the campaign like
//! any other `--lifetime-*` knob.
//!
//! The telemetry flags export deterministic, virtual-timestamped run
//! data (see `crates/telemetry`): `--trace-out PATH` writes the
//! structured event trace as NDJSON, filtered by `--trace-events SPEC`
//! (`all`, `none`, or a comma list of `host,ispp,retry,gc,maint,ckpt,
//! spo,opm,hostq,slo,degraded,rebuild,aging,kv` — the table in
//! `telemetry::event`; default `all`); `--series-out PATH` writes a time
//! series sampled every `--sample-interval-us T` of virtual time (CSV when the
//! path ends in `.csv`, NDJSON otherwise; T is at least 1 µs);
//! `--metrics-out PATH` writes the end-of-run metric registry (named
//! counters, gauges and latency histograms) as NDJSON. The files
//! require a single `--ftl` kind; beyond that they are what the flags
//! say on every run. Whatever phases a run composes — the cut and the
//! resumed run of an SPO experiment, the degraded phase after a shard
//! failure, the epochs of a lifetime campaign — sit end to end on one
//! timeline, with the barrier
//! events (`spo`, `degraded`, `rebuild`, `aging`) in between; the
//! series keeps counting `completed` across them, and the metrics name
//! each phase (`ssd`/`array`, `degraded`, `resumed`, with `epoch{e}.`
//! in front inside a campaign). Double runs produce byte-identical
//! files at any `--array-threads`.
//!
//! Examples:
//!
//! ```sh
//! cargo run --release --bin cubeftl-sim -- --workload rocks --aging eol --ftl all
//! cargo run --release --bin cubeftl-sim -- --ftl cube --workload oltp --requests 100000
//! cargo run --release --bin cubeftl-sim -- --ftl cube --fault-rate ber-spike=0.01 --fault-rate abort=0.005
//! cargo run --release --bin cubeftl-sim -- --ftl cube --aging eol --maint --maint-gap-us 500
//! cargo run --release --bin cubeftl-sim -- --ftl cube --spo-at 40000 --ckpt-interval 128
//! cargo run --release --bin cubeftl-sim -- --ftl cube --shards 4 --array-stripe 64
//! cargo run --release --bin cubeftl-sim -- --ftl cube --shards 4 --spo-at-us 80000
//! cargo run --release --bin cubeftl-sim -- --ftl cube --shards 4 --array-parity --fail-shard 1@30000 --spare-shards 1
//! cargo run --release --bin cubeftl-sim -- --ftl cube --trace-file tests/data/sample_trace.csv
//! cargo run --release --bin cubeftl-sim -- --ftl cube --queues 4 --tenants 64 --tenant-weights 8,4,2,1
//! cargo run --release --bin cubeftl-sim -- --ftl cube --shards 4 --queues 8 --tenants 32 --qos-slo-read-us 5000
//! cargo run --release --bin cubeftl-sim -- --ftl cube --maint --lifetime-epochs 5 --lifetime-pe 500
//! cargo run --release --bin cubeftl-sim -- --ftl cube --trace-out run.ndjson --trace-events ispp,retry,gc
//! cargo run --release --bin cubeftl-sim -- --ftl cube --series-out run.csv --sample-interval-us 5000 --metrics-out metrics.ndjson
//! cargo run --release --bin cubeftl-sim -- --ftl cube --spo-at 40000 --series-out warmup.csv --sample-interval-us 5000
//! cargo run --release --bin cubeftl-sim -- --ftl cube --lifetime-epochs 5 --trace-out drift.ndjson --trace-events aging,retry
//! ```

use cubeftl::harness::{
    kv_ops_per_sec, ArrayEvalConfig, ArrayFailureConfig, CrashReport, EvalConfig, FailSpec,
    KvReport, Phase, RunOutput, Scenario, ScenarioError, SpoConfig, WorkloadSource,
    MAX_PROGRAM_ABORT_RATE,
};
use cubeftl::{
    events_to_ndjson, AgingState, ArrayReport, EventMask, FaultKind, FaultPlan, FtlKind,
    LifetimeConfig, MaintConfig, OrtClusterConfig, QosReport, RecoveryReport, ResilienceReport,
    RetryOptConfig, SpoEvent, SpoTrigger, StandardWorkload, TenantMix, Trace, YcsbKind,
};
use std::process::ExitCode;
use std::str::FromStr;

/// Page size the simulator models (bus transfer is per 16-KB page);
/// byte-addressed trace files are converted at this granularity.
const PAGE_BYTES: u64 = 16 * 1024;

/// Prints one line of a run's summary under the table's FTL column.
macro_rules! detail {
    ($($arg:tt)*) => {
        println!("{:<10} {}", "", format_args!($($arg)*))
    };
}

/// Why the binary stops before running anything.
enum Stop {
    /// A malformed command line: print the usage text.
    Usage,
    /// `--help`.
    Help,
    /// A well-formed but unsupported request: print the message.
    Message(String),
}

impl From<ScenarioError> for Stop {
    fn from(e: ScenarioError) -> Self {
        Stop::Message(e.to_string())
    }
}

fn parse_ftl(s: &str) -> Option<Vec<FtlKind>> {
    Some(match s {
        "page" => vec![FtlKind::Page],
        "vert" => vec![FtlKind::Vert],
        "cube" => vec![FtlKind::Cube],
        "cube-" | "cube_minus" => vec![FtlKind::CubeMinus],
        "all" => FtlKind::ALL.to_vec(),
        _ => return None,
    })
}

fn parse_aging(s: &str) -> Option<AgingState> {
    Some(match s {
        "fresh" => AgingState::Fresh,
        "midlife" | "mid" => AgingState::MidLife,
        "eol" | "endoflife" => AgingState::EndOfLife,
        _ => return None,
    })
}

fn parse_fault_class(s: &str) -> Option<FaultKind> {
    Some(match s {
        "ispp-outlier" => FaultKind::IsppLoopOutlier,
        "ber-spike" => FaultKind::BerSpike,
        "stuck-retry" => FaultKind::StuckRetry,
        "uncorrectable" => FaultKind::UncorrectableRead,
        "abort" => FaultKind::ProgramAbort,
        _ => return None,
    })
}

/// Parses a flag value and range-checks it; anything else is a usage
/// error.
fn num<T: FromStr>(v: &str, ok: impl Fn(&T) -> bool) -> Result<T, Stop> {
    v.parse().ok().filter(ok).ok_or(Stop::Usage)
}

fn any<T>(_: &T) -> bool {
    true
}

fn positive(t: &f64) -> bool {
    *t > 0.0 && t.is_finite()
}

fn on_off(v: &str) -> Result<bool, Stop> {
    match v {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(Stop::Usage),
    }
}

fn usage() {
    eprintln!(
        "usage: cubeftl-sim [--ftl page|vert|cube|cube-|all] [--workload mail|web|proxy|oltp|rocks|mongo]\n\
         \x20                  [--aging fresh|midlife|eol] [--requests N] [--blocks N] [--seed N] [--temp C]\n\
         \x20                  [--fault-seed N] [--fault-rate CLASS=RATE]...\n\
         \x20                  [--maint] [--maint-gap-us F] [--maint-scrub-months F] [--maint-scrub-ber F]\n\
         \x20                  [--maint-remonitor-pe N] [--maint-wear-limit N]\n\
         \x20                  [--spo-at N | --spo-at-us T | --spo-rate P] [--spo-seed N] [--ckpt-interval N]\n\
         \x20                  [--shards N] [--array-stripe PAGES] [--array-threads N]\n\
         \x20                  [--array-parity] [--fail-shard ID@US | --fail-seed N] [--spare-shards N]\n\
         \x20                  [--rebuild-batch PAGES] [--rebuild-gap-us T]\n\
         \x20                  [--ort-capacity N] [--ort-cluster on|off] [--retry-opt on|off]\n\
         \x20                  [--trace-file PATH]\n\
         \x20                  [--queues N] [--tenants N] [--tenant-weights A,B,C] [--qos-sq-depth N]\n\
         \x20                  [--qos-arrival-us T] [--qos-equal-arrivals] [--qos-slo-read-us T]\n\
         \x20                  [--qos-slo-write-us T] [--qos-trace PATH]\n\
         \x20                  [--lifetime-epochs N] [--lifetime-pe N] [--lifetime-months F]\n\
         \x20                  [--lifetime-exp Q] [--lifetime-variation F]\n\
         \x20                  [--lifetime-pattern-wear on|off] [--lifetime-seed N]\n\
         \x20                  [--lifetime-workloads W1,W2,...]\n\
         \x20                  [--kv a|b|c|d|f] [--kv-keys N] [--kv-value-bytes N]\n\
         \x20                  [--kv-memtable-entries N] [--kv-l0-files N] [--kv-fanout N]\n\
         \x20                  [--kv-levels N] [--capture-trace-out PATH]\n\
         \x20                  [--trace-out PATH] [--trace-events SPEC] [--metrics-out PATH]\n\
         \x20                  [--series-out PATH] [--sample-interval-us T]\n\
         \x20 CLASS: ispp-outlier|ber-spike|stuck-retry|uncorrectable|abort (abort RATE <= {})\n\
         \x20 SPEC:  all|none|comma list of {}\n\
         \x20 W:     mail|web|proxy|oltp|rocks|mongo or a YCSB KV kind a|b|c|d|f",
        MAX_PROGRAM_ABORT_RATE,
        EventMask::name_list(",")
    );
}

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(code) => code,
        Err(Stop::Help) => {
            usage();
            ExitCode::SUCCESS
        }
        Err(Stop::Usage) => {
            usage();
            ExitCode::FAILURE
        }
        Err(Stop::Message(m)) => {
            eprintln!("{m}");
            ExitCode::FAILURE
        }
    }
}

/// Where the output-file flags point.
#[derive(Default)]
struct Outputs {
    trace: Option<String>,
    series: Option<String>,
    metrics: Option<String>,
    capture: Option<String>,
}

// The optional specs a group of flags writes: the first flag of the
// group engages the spec with its defaults, every flag sets its field.

fn maint(sc: &mut Scenario) -> &mut MaintConfig {
    sc.cfg.maint.get_or_insert_with(MaintConfig::default_on)
}

fn lifetime(sc: &mut Scenario) -> &mut LifetimeConfig {
    sc.lifetime.get_or_insert_with(LifetimeConfig::campaign)
}

fn failure(sc: &mut Scenario) -> &mut ArrayFailureConfig {
    sc.failure.get_or_insert_with(ArrayFailureConfig::off)
}

/// The array `--shards` and `--array-*` shape; dropped after the parse
/// unless it has more than one shard.
fn array(sc: &mut Scenario) -> &mut ArrayEvalConfig {
    sc.array.get_or_insert(ArrayEvalConfig::new(1))
}

/// Flags → [`Scenario`] → [`Scenario::run`] per `--ftl` kind → print.
fn run(args: &[String]) -> Result<ExitCode, Stop> {
    let mut sc = Scenario::new(
        FtlKind::Cube,
        StandardWorkload::Rocks,
        AgingState::Fresh,
        &EvalConfig::reduced(),
    );
    // What the scenario does not hold: the kinds it runs as, the
    // banner's echoes, the values patched in after the parse (flag order
    // must not matter), the flags naming the request source, and the
    // output files.
    let mut kinds = vec![FtlKind::Cube];
    let mut workload = StandardWorkload::Rocks;
    let mut celsius: Option<f64> = None;
    let mut fault_seed: Option<u64> = None;
    let mut fault_rates: Vec<(FaultKind, f64)> = Vec::new();
    let mut spo_seed: Option<u64> = None;
    let mut ckpt_interval: Option<u64> = None;
    let mut fail_seed: Option<u64> = None;
    let mut trace_file: Option<String> = None;
    let mut qos_trace_file: Option<String> = None;
    let mut phases: Option<Vec<TenantMix>> = None;
    let mut kv_kind: Option<YcsbKind> = None;
    // The --qos-* / --kv-* / --array-stripe / --array-threads /
    // --ort-capacity / --ort-cluster knobs are inert without their layer
    // engaged; that combination is rejected instead of silently ignored.
    let (mut qos_knob_seen, mut kv_knob_seen, mut array_knob_seen) = (false, false, false);
    let mut ort_knob_seen = false;
    let mut out = Outputs::default();
    let mut trace_events: Option<String> = None;
    // A power cut; its checkpoint cadence is patched in after the parse.
    let cut = |trigger| {
        Some(SpoConfig {
            trigger,
            ckpt_interval_host_wls: 0,
        })
    };

    let mut args = args.iter().map(String::as_str);
    while let Some(flag) = args.next() {
        qos_knob_seen |= flag.starts_with("--qos-") || flag == "--tenant-weights";
        kv_knob_seen |= flag.starts_with("--kv-");
        array_knob_seen |= flag == "--array-stripe" || flag == "--array-threads";
        ort_knob_seen |= flag == "--ort-capacity" || flag == "--ort-cluster";
        let v = match flag {
            "--maint" | "--qos-equal-arrivals" | "--array-parity" | "--help" | "-h" => "",
            _ => args.next().ok_or(Stop::Usage)?,
        };
        match flag {
            "--maint" => _ = maint(&mut sc),
            "--qos-equal-arrivals" => sc.qos.front.weighted_arrivals = false,
            "--array-parity" => failure(&mut sc).parity = true,
            "--help" | "-h" => return Err(Stop::Help),
            "--ftl" => kinds = parse_ftl(v).ok_or(Stop::Usage)?,
            "--workload" => workload = StandardWorkload::parse(v).ok_or(Stop::Usage)?,
            "--aging" => sc.aging = parse_aging(v).ok_or(Stop::Usage)?,
            "--requests" => sc.cfg.requests = num(v, any)?,
            "--blocks" => sc.cfg.ftl.nand.geometry.blocks_per_chip = num(v, any)?,
            "--seed" => sc.cfg.seed = num(v, any)?,
            "--temp" => sc.cfg.ambient_celsius = *celsius.insert(num(v, any)?),
            "--fault-seed" => fault_seed = Some(num(v, any)?),
            "--fault-rate" => {
                let (class, rate) = v.split_once('=').ok_or(Stop::Usage)?;
                let kind = parse_fault_class(class).ok_or(Stop::Usage)?;
                fault_rates.push((kind, num(rate, |r| (0.0..=1.0).contains(r))?));
            }
            "--maint-gap-us" => maint(&mut sc).gap_us = num(v, |&g| g >= 0.0)?,
            "--maint-scrub-months" => {
                maint(&mut sc).scrub_retention_min_months = num(v, |&m| m > 0.0)?
            }
            "--maint-scrub-ber" => maint(&mut sc).scrub_ber_threshold = num(v, |&b| b > 0.0)?,
            "--maint-remonitor-pe" => maint(&mut sc).remonitor_pe_budget = num(v, any)?,
            "--maint-wear-limit" => maint(&mut sc).wear_spread_limit = num(v, |&n| n > 0)?,
            "--spo-at" => sc.spo = cut(SpoTrigger::AtOps(num(v, |&n| n > 0)?)),
            "--spo-at-us" => sc.spo = cut(SpoTrigger::AtTimeUs(num(v, |&t| t > 0.0)?)),
            "--spo-rate" => {
                let rate = num(v, |p| (0.0..=1.0).contains(p))?;
                sc.spo = cut(SpoTrigger::Seeded { seed: 0, rate });
            }
            "--spo-seed" => spo_seed = Some(num(v, any)?),
            "--ckpt-interval" => ckpt_interval = Some(num(v, any)?),
            "--shards" => array(&mut sc).shards = num(v, |&n| n >= 1)?,
            "--array-stripe" => array(&mut sc).stripe_pages = num(v, |&n| n >= 1)?,
            "--array-threads" => array(&mut sc).threads = num(v, any)?,
            "--fail-shard" => {
                let f = FailSpec::parse(v).map_err(|e| Stop::Message(format!("--fail-shard: {e}")));
                failure(&mut sc).fail = Some(f?);
            }
            "--fail-seed" => {
                fail_seed = Some(num(v, any)?);
                failure(&mut sc);
            }
            "--spare-shards" => {
                failure(&mut sc).spare = match num(v, any)? {
                    0u32 => false,
                    1 => true,
                    n => {
                        let why = "the rebuild provisions one hot spare; use 0 or 1";
                        return Err(Stop::Message(format!("--spare-shards {n}: {why}")));
                    }
                }
            }
            "--rebuild-batch" => failure(&mut sc).rebuild.batch_pages = num(v, |&n| n >= 1)?,
            "--rebuild-gap-us" => {
                failure(&mut sc).rebuild.gap_us = num(v, |t: &f64| *t >= 0.0 && t.is_finite())?
            }
            "--ort-capacity" => sc.cfg.ftl.ort_capacity = num(v, |&n| n >= 1)?,
            "--ort-cluster" if on_off(v)? => sc.cfg.ftl.ort_cluster = OrtClusterConfig::on(),
            "--ort-cluster" => sc.cfg.ftl.ort_cluster = OrtClusterConfig::default(),
            "--retry-opt" if on_off(v)? => sc.cfg.ftl.retry_opt = RetryOptConfig::on(),
            "--retry-opt" => sc.cfg.ftl.retry_opt = RetryOptConfig::default(),
            "--trace-file" => trace_file = Some(v.to_owned()),
            "--queues" => sc.qos.front.queues = num(v, |&n| n >= 1)?,
            "--tenants" => sc.qos.tenants = num(v, |&n| n >= 1)?,
            "--tenant-weights" => {
                sc.qos.weights = v
                    .split(',')
                    .map(|w| num(w.trim(), |&w| w >= 1))
                    .collect::<Result<_, _>>()?;
            }
            "--qos-sq-depth" => sc.qos.front.sq_depth = num(v, |&n| n >= 1)?,
            "--qos-arrival-us" => sc.qos.front.arrival_interval_us = num(v, positive)?,
            "--qos-slo-read-us" => sc.qos.front.slo_read_us = Some(num(v, positive)?),
            "--qos-slo-write-us" => sc.qos.front.slo_write_us = Some(num(v, positive)?),
            "--qos-trace" => qos_trace_file = Some(v.to_owned()),
            "--lifetime-epochs" => lifetime(&mut sc).epochs = num(v, |&n| n >= 1)?,
            "--lifetime-pe" => lifetime(&mut sc).pe_per_epoch = num(v, any)?,
            "--lifetime-months" => {
                lifetime(&mut sc).months_per_epoch = num(v, |m: &f64| *m >= 0.0 && m.is_finite())?
            }
            "--lifetime-exp" => {
                lifetime(&mut sc).early_retention_exp = num(v, |&q| q > 0.0 && q <= 1.0)?
            }
            "--lifetime-variation" => {
                lifetime(&mut sc).variation_strength = num(v, |s| (0.0..=1.0).contains(s))?
            }
            "--lifetime-pattern-wear" => lifetime(&mut sc).pattern_wear = on_off(v)?,
            "--lifetime-seed" => lifetime(&mut sc).seed = num(v, any)?,
            "--lifetime-workloads" => {
                let parsed: Option<Vec<TenantMix>> =
                    v.split(',').map(|p| TenantMix::parse(p.trim())).collect();
                phases = Some(parsed.ok_or_else(|| {
                    Stop::Message(
                        "--lifetime-workloads: each phase is mail|web|proxy|oltp|rocks|mongo \
                         or a YCSB KV kind (a|b|c|d|f)"
                            .to_owned(),
                    )
                })?);
                lifetime(&mut sc);
            }
            "--kv" => kv_kind = Some(YcsbKind::parse(v).ok_or(Stop::Usage)?),
            "--kv-keys" => sc.kv.keys = num(v, |&n| n >= 1)?,
            "--kv-value-bytes" => sc.kv.value_bytes = num(v, |&n| n >= 1)?,
            "--kv-memtable-entries" => {
                // The SST run size follows the memtable.
                let n = num(v, |&n| n >= 1)?;
                (sc.kv.memtable_entries, sc.kv.sst_entries) = (n, n);
            }
            "--kv-l0-files" => sc.kv.l0_files = num(v, |&n| n >= 2)?,
            "--kv-fanout" => sc.kv.fanout = num(v, |&n| n >= 2)?,
            "--kv-levels" => sc.kv.max_levels = num(v, |&n| n >= 2)?,
            "--capture-trace-out" => out.capture = Some(v.to_owned()),
            "--trace-out" => out.trace = Some(v.to_owned()),
            "--trace-events" => trace_events = Some(v.to_owned()),
            "--metrics-out" => out.metrics = Some(v.to_owned()),
            "--series-out" => out.series = Some(v.to_owned()),
            "--sample-interval-us" => sc.telemetry.sample_interval_us = Some(num(v, positive)?),
            _ => return Err(Stop::Usage),
        }
    }
    sc.array = sc.array.filter(|a| a.shards > 1);

    if fault_seed.is_some() && fault_rates.is_empty() {
        // A seed alone injects nothing; require at least one rate.
        return Err(Stop::Usage);
    }
    if !fault_rates.is_empty() {
        let plan = FaultPlan::seeded(fault_seed.unwrap_or(sc.cfg.seed));
        let with_rate = |plan: FaultPlan, (kind, rate)| plan.with_rate(kind, rate);
        sc.cfg.faults = Some(fault_rates.into_iter().fold(plan, with_rate));
    }
    if let Some(spo) = &mut sc.spo {
        spo.ckpt_interval_host_wls = ckpt_interval.unwrap_or(64);
    }
    match sc.spo.as_mut().map(|s| &mut s.trigger) {
        Some(SpoTrigger::Seeded { seed, .. }) => *seed = spo_seed.unwrap_or(sc.cfg.seed),
        // A seed alone arms nothing; it only parameterizes --spo-rate.
        _ if spo_seed.is_some() => return Err(Stop::Usage),
        _ => {}
    }

    let message = |m: &str| Err(Stop::Message(m.to_owned()));
    if trace_events.is_some() && out.trace.is_none() {
        return message("--trace-events only filters --trace-out; add --trace-out PATH");
    }
    if out.series.is_some() != sc.telemetry.sample_interval_us.is_some() {
        return message("--series-out and --sample-interval-us must be given together");
    }
    // --trace-out alone traces every category.
    sc.telemetry.events = match (&out.trace, &trace_events) {
        (None, _) => EventMask::NONE,
        (Some(_), None) => EventMask::ALL,
        (Some(_), Some(spec)) => {
            EventMask::parse(spec).map_err(|e| Stop::Message(format!("--trace-events: {e}")))?
        }
    };
    let telemetry_on = out.trace.is_some() || out.series.is_some() || out.metrics.is_some();
    if telemetry_on && kinds.len() > 1 {
        return message("telemetry output files cover one run: use a single --ftl kind");
    }

    // One field says where requests come from, so at most one flag may
    // (--workload only sets the default the others replace).
    let named = [
        ("--kv", kv_kind.is_some()),
        ("--trace-file", trace_file.is_some()),
        ("--lifetime-workloads", phases.is_some()),
    ];
    let mut named = named.iter().filter(|(_, given)| *given);
    if let (Some((a, _)), Some((b, _))) = (named.next(), named.next()) {
        return message(&format!(
            "{a} and {b} both name the request source: pick one"
        ));
    }
    sc.workload =
        match trace_file.as_deref().map(load_trace).transpose()? {
            // A trace replays its own length, whatever --requests says.
            Some(t) => {
                sc.cfg.requests = t.len() as u64;
                WorkloadSource::Trace(t)
            }
            None => WorkloadSource::Phases(phases.unwrap_or_else(|| {
                vec![kv_kind.map_or(TenantMix::Standard(workload), TenantMix::Kv)]
            })),
        };
    // The header names the source the run uses: the trace's label, or
    // the phase list (one phase outside a campaign).
    let source = match &sc.workload {
        WorkloadSource::Trace(t) => t.label().to_owned(),
        WorkloadSource::Phases(p) => p.iter().map(|m| m.label()).collect::<Vec<_>>().join("/"),
    };
    sc.check_blocks()?;
    let cfg = &sc.cfg;
    println!(
        "workload {source}, {}, {} blocks/chip, {} requests, seed {}{}{}{}\n",
        sc.aging,
        cfg.blocks_per_chip(),
        cfg.requests,
        cfg.seed,
        celsius.map(|c| format!(", {c} °C")).unwrap_or_default(),
        cfg.faults
            .as_ref()
            .map(|p| format!(", faults on (seed {})", p.seed))
            .unwrap_or_default(),
        cfg.maint
            .map(|m| format!(", maint on (gap {} µs)", m.gap_us))
            .unwrap_or_default()
    );
    if let (Some(path), WorkloadSource::Trace(t)) = (&trace_file, &sc.workload) {
        println!("trace {path}: {} requests ({})", t.len(), t.label());
    }

    // Checks that concern flags rather than the scenario they build.
    if qos_knob_seen && !sc.qos.engaged() {
        return message("QoS flags need the front-end engaged: pass --queues > 1 or --tenants > 1");
    }
    if ckpt_interval.is_some() && sc.spo.is_none() {
        return message(
            "--ckpt-interval sets the checkpoint cadence of a power-cut run: \
             add --spo-at, --spo-at-us or --spo-rate",
        );
    }
    if array_knob_seen && sc.array.is_none() {
        return message("--array-stripe/--array-threads shape an array: pass --shards > 1");
    }
    // cubeFTL and cubeFTL- are the kinds whose OPM keeps an ORT.
    let has_ort = |k: &FtlKind| matches!(k, FtlKind::Cube | FtlKind::CubeMinus);
    if ort_knob_seen && !kinds.iter().any(has_ort) {
        return message("--ort-capacity/--ort-cluster shape an ORT: pass --ftl cube, cube- or all");
    }
    sc.qos.trace = qos_trace_file.as_deref().map(load_trace).transpose()?;
    let failing = sc.failure.is_some_and(|fc| fc.fail.is_some());
    if sc.array.is_some() && failing && fail_seed.is_some() {
        return message("--fail-shard and --fail-seed are exclusive: pick one");
    }
    if kv_knob_seen && !sc.workload.names_kv() {
        return message(
            "KV engine knobs (--kv-*) shape the kvsim engine: pass --kv KIND \
             or a KV phase in --lifetime-workloads",
        );
    }

    sc.capture = out.capture.is_some();
    sc.validate()?;
    if sc.capture && kinds.len() > 1 {
        return message("--capture-trace-out covers one run: use a single --ftl kind");
    }
    if let (Some(path), Some(t)) = (&qos_trace_file, &sc.qos.trace) {
        let (n, label) = (t.len(), t.label());
        println!("qos trace {path}: {n} requests ({label}) as tenant 0");
    }

    print_banners(&sc);
    let mut lost = false;
    for kind in kinds {
        sc.kind = kind;
        if let (Some(seed), Some(fc)) = (fail_seed, &mut sc.failure) {
            // The seeded plan needs the healthy makespan; probe it with a
            // plain array run (deterministic, so the plan is too). The
            // failure lands inside every shard's run: use the shortest.
            let probe = Scenario {
                array: sc.array,
                kv: sc.kv,
                ..Scenario::new(kind, sc.workload.clone(), sc.aging, &sc.cfg)
            };
            let healthy = probe.run()?;
            let shards = &healthy.phases[0].shards;
            let makespan = shards
                .iter()
                .map(|s| s.sim_time_us)
                .fold(f64::INFINITY, f64::min);
            // The resilience block's failure line reports the plan.
            fc.fail = Some(FailSpec::seeded(seed, shards.len(), makespan));
        }
        let r = sc.run()?;
        print_run(&sc, &r);
        lost |= host_data_lost(&r);
        if let (Some(path), Some(c)) = (&out.capture, &r.captured) {
            std::fs::write(path, c.to_msr_csv(PAGE_BYTES))
                .map_err(|e| Stop::Message(format!("cannot write {path}: {e}")))?;
            println!("capture: {} requests -> {path}", c.len());
        }
        write_telemetry(&out, &sc, &r).map_err(Stop::Message)?;
    }
    Ok(ExitCode::from(u8::from(lost)))
}

/// Whether the run lost host-acknowledged data: a page the crash audit
/// found unmapped after recovery, or one the resilience audit could not
/// rebuild. The binary exits non-zero exactly then.
fn host_data_lost(r: &RunOutput) -> bool {
    r.crash.as_ref().is_some_and(|c| !c.lost_lpns.is_empty())
        || r.failure.as_ref().is_some_and(|f| !f.zero_loss())
}

/// One banner per engaged spec, once before the per-FTL output, then
/// the table header (a campaign's epoch table prints its own).
fn print_banners(sc: &Scenario) {
    if let Some(arr) = sc.array {
        println!(
            "array: {} shards, stripe {} pages, {} worker threads\n",
            arr.shards,
            arr.stripe_pages,
            sc.threads()
        );
    }
    let qos = &sc.qos;
    if qos.engaged() {
        println!(
            "qos: {} queues, {} tenants (weights {:?}), sq depth {}, arrival {} µs\n",
            qos.front.queues,
            qos.tenants,
            qos.weights,
            qos.front.sq_depth,
            qos.front.arrival_interval_us
        );
    }
    if let WorkloadSource::Phases(phases) = &sc.workload {
        if let TenantMix::Kv(kind) = phases[0] {
            let c = sc.kv;
            println!(
                "kv: {} over {} keys ({}-byte values), memtable {} entries, \
                 L0 trigger {}, fanout {}, {} levels\n",
                kind.label(),
                c.keys,
                c.value_bytes,
                c.memtable_entries,
                c.l0_files,
                c.fanout,
                c.max_levels,
            );
        }
    }
    if let Some(life) = &sc.lifetime {
        println!(
            "lifetime campaign: {} epochs × {} requests, +{} P/E and +{} months per step \
             (exp {}), variation {}, pattern wear {}, seed {}",
            life.epochs.max(1),
            sc.cfg.requests,
            life.pe_per_epoch,
            life.months_per_epoch,
            life.early_retention_exp,
            life.variation_strength,
            if life.pattern_wear { "on" } else { "off" },
            life.seed,
        );
        if let WorkloadSource::Phases(phases) = &sc.workload {
            if phases.len() > 1 {
                let names: Vec<&str> = phases.iter().map(|p| p.label()).collect();
                println!("phases (cycled per epoch): {}", names.join(", "));
            }
        }
        println!();
    }
    if let Some(fc) = &sc.failure {
        println!(
            "array resilience: parity {}, {} spare shard(s), rebuild batch {} pages / gap {:.0} µs\n",
            if fc.parity { "on" } else { "off" },
            u8::from(fc.spare),
            fc.rebuild.batch_pages,
            fc.rebuild.gap_us,
        );
    }
    if let Some(spo) = &sc.spo {
        let scope = match (sc.array, sc.failure) {
            (None, _) => "",
            (Some(_), None) => " on every shard at once",
            (Some(_), Some(_)) => " on every shard, timed from the degraded phase",
        };
        let cadence = match spo.ckpt_interval_host_wls {
            0 => "∞ (disabled)".to_owned(),
            n => n.to_string(),
        };
        println!(
            "sudden power-off armed: {:?}{scope}, checkpoint every {cadence} host WLs\n",
            spo.trigger
        );
    }
    if sc.lifetime.is_none() {
        // The columns of `print_row`.
        println!(
            "FTL              IOPS  p50 rd (ms)  p99 rd (ms)  p90 wr (ms)   GC runs   retries  WA(h)  WA(t)"
        );
    }
}

/// One kind's report, its blocks in the order of the banners: the
/// epoch table of a campaign or the main phase's row and the lines
/// under it (a device prints as its one-shard merge: field for field
/// the device report), then the resilience, crash, QoS and KV blocks
/// the run produced. A multi-line block ends the kind with a blank line.
fn print_run(sc: &Scenario, r: &RunOutput) {
    let m = r.merged();
    if sc.lifetime.is_some() {
        print_epochs(sc, r);
    } else {
        print_row(m);
        if sc.array.is_some() {
            let per_shard: Vec<String> =
                m.per_shard_iops.iter().map(|i| format!("{i:.0}")).collect();
            detail!(
                "shards: [{}] IOPS, makespan {:.1} ms, {} requests total",
                per_shard.join(", "),
                m.sim_time_us / 1000.0,
                m.completed,
            );
        }
        print_detail_lines(m, sc.cfg.maint.is_some(), sc.cfg.faults.is_some());
    }
    if let Some(f) = &r.failure {
        print_resilience(f, r);
    }
    if let Some(crash) = &r.crash {
        print_crash(crash, r);
    }
    if let Some(qos) = &r.qos {
        print_qos_summary(qos);
    }
    if let Some(kv) = &r.kv {
        print_kv(kv, r.kv_time_us());
    }
    if sc.lifetime.is_some() || r.crash.is_some() || r.failure.is_some() {
        println!();
    }
}

/// The app-level KV outcome lines under a report row: the one engine's
/// results, or with one engine per [`KvReport::unit`] the aggregate
/// plus each engine's app-WA.
fn print_kv(kv: &KvReport, sim_time_us: f64) {
    let Some(unit) = kv.unit else {
        let (app, s) = (&kv.apps[0], &kv.apps[0].stats);
        detail!(
            "kv: {} ({} keys): {} ops ({} rd / {} upd / {} ins / {} rmw) at {:.0} ops/s",
            app.kind.label(),
            app.keys,
            s.ops,
            s.reads,
            s.updates,
            s.inserts,
            s.rmws,
            kv_ops_per_sec(s.ops, sim_time_us),
        );
        detail!(
            "kv: app-WA {:.2}, rd p99 {} pages, upd p99 {} pages, \
             {} flushes, {} compactions, debt {} pages",
            app.app_wa(),
            app.read_p99_pages,
            app.update_p99_pages,
            s.flushes,
            s.compactions,
            app.compaction_debt_pages,
        );
        return;
    };
    let apps = &kv.apps;
    let ops: u64 = apps.iter().map(|a| a.stats.ops).sum();
    let was: Vec<String> = apps.iter().map(|a| format!("{:.2}", a.app_wa())).collect();
    detail!(
        "kv: {} total ops across {} engines at {:.0} ops/s, per-{unit} app-WA [{}]",
        ops,
        apps.len(),
        kv_ops_per_sec(ops, sim_time_us),
        was.join(", "),
    );
}

/// Writes the requested telemetry files, whatever the run composed.
/// The metric registry is built only when `--metrics-out` asked for it.
fn write_telemetry(out: &Outputs, sc: &Scenario, r: &RunOutput) -> Result<(), String> {
    let write = |path: &str, contents: &str| {
        std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if let Some(path) = &out.trace {
        let events = &r.telemetry.events;
        write(path, &events_to_ndjson(events))?;
        println!("trace: {} events -> {path}", events.len());
    }
    if let Some(path) = &out.series {
        let series = &r.telemetry.series;
        let body = if path.ends_with(".csv") {
            series.to_csv()
        } else {
            series.to_ndjson()
        };
        write(path, &body)?;
        println!("series: {} samples -> {path}", series.rows.len());
    }
    if let Some(path) = &out.metrics {
        let reg = r.metrics(sc);
        write(path, &reg.to_ndjson())?;
        println!("metrics: {} entries -> {path}", reg.entries().len());
    }
    Ok(())
}

/// Loads an MSR-Cambridge-style CSV trace file (byte offsets converted
/// to 16-KB pages; LPNs are folded into the simulated address space at
/// run time).
fn load_trace(path: &str) -> Result<Trace, Stop> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Stop::Message(format!("cannot read trace {path}: {e}")))?;
    Trace::from_msr_csv(&text, PAGE_BYTES, 1 << 40)
        .map_err(|e| Stop::Message(format!("{path}: {e}")))
}

fn fmt_wa(w: Option<f64>) -> String {
    w.map_or_else(|| "-".to_owned(), |w| format!("{w:.2}"))
}

/// The headline row of one device or array, and under it the
/// read-vs-write tail split: the table keeps its historic columns
/// (p50/p99 read, p90 write); the detail line carries the full
/// p99/p999 split for both directions.
fn print_row(m: &ArrayReport) {
    let (read, write) = (&m.read_latency, &m.write_latency);
    println!(
        "{:<10} {:>10.0} {:>12.3} {:>12.3} {:>12.3} {:>9} {:>9} {:>6} {:>6}",
        m.ftl_name,
        m.iops,
        read.percentile(50.0) / 1000.0,
        read.percentile(99.0) / 1000.0,
        write.percentile(90.0) / 1000.0,
        m.ftl.gc_runs,
        m.ftl.read_retries,
        fmt_wa(m.wa_host()),
        fmt_wa(m.wa_total()),
    );
    detail!(
        "latency: rd p99 {:.3} / p999 {:.3} ms, wr p99 {:.3} / p999 {:.3} ms",
        read.percentile(99.0) / 1000.0,
        read.percentile(99.9) / 1000.0,
        write.percentile(99.0) / 1000.0,
        write.percentile(99.9) / 1000.0,
    );
}

/// The per-FTL detail lines of a table row.
fn print_detail_lines(m: &ArrayReport, maint_on: bool, faults_on: bool) {
    let (ftl, chips) = (&m.ftl, &m.chip_stats);
    detail!(
        "chips: max queue depth {}, mean busy {:.1}%{}",
        ssdsim::max_queue_depth(chips),
        ssdsim::mean_busy_fraction(chips, m.sim_time_us) * 100.0,
        if maint_on {
            format!(
                ", {} background ops ({} scrubs, {} re-monitors, {} wear moves)",
                ssdsim::background_ops(chips),
                ftl.scrub_blocks,
                ftl.remonitored_layers,
                ftl.wear_level_moves,
            )
        } else {
            String::new()
        }
    );
    if let Some(rate) = ftl.ort_hit_rate() {
        detail!(
            "ORT: {:.1}% hit rate ({} hits, {} misses, {} evictions)",
            rate * 100.0,
            ftl.ort_hits,
            ftl.ort_misses,
            ftl.ort_evictions,
        );
    }
    if ftl.cluster_seeds > 0 {
        detail!(
            "cluster: {} seeded cold reads ({} exact, {} refined), {} early terminations",
            ftl.cluster_seeds,
            ftl.cluster_hits,
            ftl.cluster_mispredicts,
            ftl.early_terminations,
        );
    }
    if faults_on {
        detail!(
            "recoveries: {} safety re-programs, {} demotions, {} aborts, \
             {} stuck retries, {} uncorrectable",
            ftl.safety_reprograms,
            ftl.safety_demotions,
            ftl.program_aborts,
            ftl.stuck_retry_recoveries,
            ftl.uncorrectable_recoveries,
        );
    }
}

/// The per-tenant QoS outcome: population totals, per-class aggregates,
/// and a per-tenant table bounded to the
/// [`QosReport::MAX_TENANT_DETAIL`] lowest global ids (the rest is
/// covered by the class rows).
fn print_qos_summary(qos: &QosReport) {
    let total = qos.total();
    let offered = total.admitted + total.shed;
    let shed_pct = if offered > 0 {
        total.shed as f64 / offered as f64 * 100.0
    } else {
        0.0
    };
    detail!(
        "qos: {} tenants, {} admitted, {} shed ({:.1}%), {} SLO violations",
        qos.tenants.len(),
        total.admitted,
        total.shed,
        shed_pct,
        total.violations,
    );
    for (class, s) in qos.by_class() {
        detail!(
            "  {:<11} {:>5} tenants {:>9} done {:>7} shed  rd p99 {:>9.3} ms  \
             wr p99 {:>9.3} ms  {:>5} viol",
            class.label(),
            s.tenants,
            s.completed,
            s.shed,
            s.read_latency.percentile(99.0) / 1000.0,
            s.write_latency.percentile(99.0) / 1000.0,
            s.violations,
        );
    }
    detail!(
        "  tenant   wt class        admitted    shed completed  rd p99 (ms)  wr p99 (ms)  viol"
    );
    for t in qos.tenants.iter().take(QosReport::MAX_TENANT_DETAIL) {
        detail!(
            "  {:>6} {:>4} {:<11} {:>9} {:>7} {:>9} {:>12.3} {:>12.3} {:>5}",
            t.id,
            t.weight,
            t.class.label(),
            t.admitted,
            t.shed,
            t.completed,
            t.read_latency.percentile(99.0) / 1000.0,
            t.write_latency.percentile(99.0) / 1000.0,
            t.violations,
        );
    }
    if qos.tenants.len() > QosReport::MAX_TENANT_DETAIL {
        detail!(
            "  ... {} more tenants folded into the class aggregates",
            qos.tenants.len() - QosReport::MAX_TENANT_DETAIL,
        );
    }
}

/// The fast-forward aging campaign: one drift row per epoch — the
/// metrics the campaign exists to expose (throughput, retry pressure,
/// write amplification), keyed by the cumulative nominal age behind the
/// epoch — and, for a single device, the verdict line: retry and WA
/// drift from the fresh epoch to end-of-life.
fn print_epochs(sc: &Scenario, r: &RunOutput) {
    let life = sc.lifetime.as_ref().expect("a campaign prints its epochs");
    println!("FTL        epoch     +P/E  +months       IOPS   retries  retry/read   GC runs  WA(h)  WA(t)");
    let summaries = &r.aging.as_ref().expect("campaign ran").summaries;
    let (mut pe, mut months) = (0u64, 0.0);
    for (e, rep) in r.epochs().enumerate() {
        if e > 0 {
            pe += u64::from(life.pe_per_epoch);
            months += summaries[e - 1][0].retention_added_months;
        }
        let m = &rep.merged;
        println!(
            "{:<10} {:>5} {:>8} {:>8.1} {:>10.0} {:>9} {:>11.4} {:>9} {:>6} {:>6}",
            m.ftl_name,
            e,
            pe,
            months,
            m.iops,
            m.ftl.read_retries,
            r.retry_rate(e),
            m.ftl.gc_runs,
            fmt_wa(m.wa_host()),
            fmt_wa(m.wa_total()),
        );
    }
    if let (None, Some(fresh), Some(eol)) = (sc.array, r.epochs().next(), r.epochs().last()) {
        let last = r.epochs().count() - 1;
        detail!(
            "drift: retry/read {:.4} -> {:.4}, WA(h) {} -> {}, IOPS {:.0} -> {:.0}",
            r.retry_rate(0),
            r.retry_rate(last),
            fmt_wa(fresh.merged.wa_host()),
            fmt_wa(eol.merged.wa_host()),
            fresh.merged.iops,
            eol.merged.iops,
        );
    }
}

/// The resilience block: the failure, the degraded phase, the rebuild
/// onto the spare and the audit of the dead shard's acknowledged pages.
fn print_resilience(f: &ResilienceReport, r: &RunOutput) {
    let healthy = r.merged();
    match f.failed_shard {
        Some(s) => {
            println!(
                "  failure  shard {s} died at {:.1} ms; {} requests completed before, \
                 {} durable data pages on the dead shard ({} array-acked, {} unprotected)",
                f.fail_at_us / 1000.0,
                healthy.completed,
                f.durable_data_pages,
                f.acked_pages,
                f.unprotected_pages(),
            );
        }
        None => {
            println!(
                "  failure  none injected; healthy run: {} requests at {:.0} aggregate IOPS",
                healthy.completed, healthy.iops,
            );
        }
    }
    if let Some(d) = r.phase(Phase::Degraded) {
        println!(
            "  degraded {} requests on the survivors: {} degraded reads \
             ({} survivor fragment reads), {} writes redirected, {} dropped",
            d.merged.completed,
            f.degraded_reads,
            f.degraded_fragment_reads,
            f.redirected_writes,
            f.dropped_requests,
        );
    }
    if let Some(spare) = f.spare_shard {
        println!(
            "  rebuild  {} pages onto spare shard {spare} in {:.1} ms \
             ({} survivor reads, idle-window paced)",
            f.rebuild.writes_done,
            f.rebuild.done_at_us / 1000.0,
            f.rebuild_reads,
        );
    }
    if f.zero_loss() {
        println!(
            "  audit    zero host-acknowledged loss: {}/{} acked pages rebuilt and mapped",
            f.rebuilt_mapped_pages, f.acked_pages,
        );
    } else {
        println!(
            "  audit    LOST {} host-acknowledged pages{}",
            f.lost_pages,
            if f.parity {
                ""
            } else {
                " — parity off, the dead shard is unrecoverable"
            },
        );
    }
}

/// The crash block: the cut, boot-time recovery, the resumed remainder
/// and the zero-loss audit, summed over the shards the cut hit (a
/// device is a one-shard array). Recovery takes as long as its slowest
/// shard: the shards boot side by side.
fn print_crash(crash: &CrashReport, r: &RunOutput) {
    // A shard has a recovery exactly where it has a cut.
    let recoveries = crash.recoveries.iter().flatten();
    let hit: Vec<_> = crash.events.iter().flatten().zip(recoveries).collect();
    if hit.is_empty() {
        println!("  cut      the trigger never fired");
        return;
    }
    let sum = |f: fn(&SpoEvent, &RecoveryReport) -> u64| -> u64 {
        hit.iter().map(|&(e, rec)| f(e, rec)).sum()
    };
    let latest = |f: fn(&SpoEvent, &RecoveryReport) -> f64| {
        hit.iter().map(|&(e, rec)| f(e, rec)).fold(0.0, f64::max)
    };
    println!(
        "  cut      {}/{} shards at {:.1} ms: {} issued, {} acked ({} acked writes, \
         {} in PLP buffer), {} checkpoints taken",
        hit.len(),
        crash.events.len(),
        latest(|e, _| e.at_us) / 1000.0,
        sum(|e, _| e.issued),
        sum(|e, _| e.completed),
        sum(|e, _| e.acked_write_pages),
        sum(|e, _| e.buffered_lpns.len() as u64),
        crash.checkpoints_taken,
    );
    println!(
        "  recovery in {:.3} ms: {} checkpoint(s) loaded ({} entries), {}/{} blocks scanned \
         ({} probed), {} OOB records replayed",
        latest(|_, rec| rec.nand_us) / 1000.0,
        sum(|_, rec| u64::from(rec.checkpoint_loaded)),
        sum(|_, rec| rec.ckpt_entries_restored),
        sum(|_, rec| rec.blocks_scanned),
        crash.total_blocks,
        sum(|_, rec| rec.blocks_probed),
        sum(|_, rec| rec.oob_records_replayed),
    );
    println!(
        "  physics  {} torn WLs quarantined, {} h-layers demoted, \
         {} interrupted erases redone, {} PLP pages replayed",
        sum(|_, rec| rec.torn_wls_quarantined),
        sum(|_, rec| rec.layers_demoted),
        sum(|_, rec| rec.interrupted_erases_redone),
        sum(|_, rec| rec.plp_pages_replayed),
    );
    match r.phase(Phase::Resumed) {
        Some(res) => println!(
            "  resumed  {} remaining requests at {:.0} IOPS",
            res.merged.completed, res.merged.iops,
        ),
        None => println!("  resumed  nothing left to replay"),
    }
    if crash.lost_lpns.is_empty() {
        println!("  audit    zero host-acknowledged data loss");
    } else {
        let lost = &crash.lost_lpns;
        println!(
            "  audit    LOST {} host-acknowledged (shard, LPN) pairs: {:?}",
            lost.len(),
            &lost[..lost.len().min(16)]
        );
    }
}
