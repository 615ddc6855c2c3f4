//! # cubeftl — a reproduction of "Exploiting Process Similarity of 3D
//! Flash Memory for High Performance SSDs" (MICRO 2019)
//!
//! This workspace re-implements the paper's full stack:
//!
//! * [`nand3d`] — a behavioral 3D TLC NAND model with the paper's two
//!   process characteristics: horizontal intra-layer **similarity** and
//!   vertical inter-layer **variability**, plus micro-operation-level
//!   ISPP programming and read-retry engines.
//! * [`ftl`] — the PS-aware **cubeFTL** (OPM + WAM + safety check) and
//!   the `pageFTL` / `vertFTL` / `cubeFTL-` comparison points.
//! * [`ssdsim`] — a closed-loop SSD timing simulator (buses, chips,
//!   write buffer, queueing) standing in for the paper's FlashBench
//!   platform.
//! * [`workloads`] — the six evaluation workloads (Filebench
//!   Mail/Web/Proxy/OLTP, YCSB-A over LSM and B-tree engine models).
//!
//! The [`harness`] module glues these together: one
//! [`harness::Scenario`] value describes an experiment (FTL, aging,
//! scale, workload source, and the array / QoS / KV / lifetime /
//! power-cut / shard-failure / telemetry specs as orthogonal fields)
//! and [`harness::Scenario::run`] executes it through one
//! phase-and-barrier pipeline, returning a [`harness::RunOutput`].
//! `crates/bench` hosts one binary per paper figure.
//!
//! # Quickstart
//!
//! ```
//! use cubeftl::harness::{EvalConfig, Scenario};
//! use cubeftl::{AgingState, FtlKind, StandardWorkload};
//!
//! let cfg = EvalConfig::smoke();
//! let scenario = Scenario::new(FtlKind::Cube, StandardWorkload::Mail, AgingState::Fresh, &cfg);
//! let report = scenario.run()?.into_sim();
//! assert!(report.iops > 0.0);
//! # Ok::<(), cubeftl::harness::ScenarioError>(())
//! ```

pub use ftl::{
    Ftl, FtlConfig, FtlKind, MaintConfig, Opm, OrtClusterConfig, ProgramOrder, RecoveryReport, Wam,
};
pub use lifetime::{
    block_pattern_stress, page_state_fraction, AgingPlan, EpochDelta, EpochSummary, LifetimeConfig,
    LifetimeEngine,
};

pub use hostq::{
    split_arrival_budget, split_even_budget, ClassSummary, DwrrScheduler, HostQueueConfig,
    HostQueueFront, QosReport, TenantSummary,
};
pub use kvsim::{
    splitmix64, IntZipf, KvAppReport, KvConfig, KvEvent, KvOp, KvStats, KvStream, LsmTree,
    SplitMix, YcsbGen, YcsbKind,
};
pub use nand3d::{
    AgingState, BlockId, FaultCounters, FaultKind, FaultPlan, FlashArray, Geometry, NandChip,
    NandConfig, OobStatus, ProgramParams, ReadParams, RetryOptConfig, TargetedFault, WlAddr, WlOob,
};
pub use ssdarray::{
    page_fingerprint, xor_parity, ArrayReport, ArrayRunOutcome, ArrayShard, PageRole, ParityRouter,
    RebuildPlan, ResilienceReport, SsdArray,
};
pub use ssdsim::{
    ChipStats, FrontRequest, FtlDriver, FtlStats, HostFront, HostRequest, MaintWork, RebuildOp,
    RebuildProgress, RebuildSchedule, SimReport, SpoEvent, SpoTrigger, SsdConfig, SsdSim,
    StepOutcome,
};
pub use telemetry::{
    events_to_ndjson, merge_streams, EventKind, EventMask, LogHistogram, MetricRegistry, SampleRow,
    Series, TraceEvent,
};
pub use workloads::{
    build_population, shard_seed, tenant_seed, StandardWorkload, TenantClass, TenantMix,
    TenantProfile, Trace, TraceReplay, UniformTenantWorkload, Workload, YcsbWorkload,
};

pub mod harness;
