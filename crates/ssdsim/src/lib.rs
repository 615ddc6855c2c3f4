//! # ssdsim — an event-driven SSD timing simulator
//!
//! This crate reproduces the role of the unified SSD development platform
//! the paper evaluates on (§6.1, FlashBench \[23\]): it turns per-operation
//! NAND latencies into end-to-end IOPS and request latencies under
//! queueing, bus contention and write-buffer dynamics.
//!
//! The simulator has one event loop ([`SsdSim::run_step`]) whose host
//! side is an argument, a [`HostFront`]. Driven by a plain request
//! iterator — the trivial front — it is the paper's closed-loop host
//! model: it keeps a fixed number of outstanding requests (the queue
//! depth) against an SSD built from
//!
//! * a [`FtlDriver`] — the flash translation layer under test (the
//!   `ftl` crate provides `pageFTL`, `vertFTL`, `cubeFTL` and
//!   `cubeFTL-`),
//! * a DRAM [`WriteBuffer`] whose utilization `μ` feeds cubeFTL's WL
//!   allocation manager (§5.2), and
//! * a channel/chip topology (2 buses × 4 chips in the paper
//!   configuration) with per-chip FIFO queues and per-bus transfer
//!   serialization.
//!
//! Outputs are collected in a [`SimReport`]: IOPS, read/write latency
//! distributions (for the CDFs of Fig. 18) and FTL-internal counters.

pub mod buffer;
pub mod detrand;
pub mod driver;
pub mod front;
pub mod request;
pub mod ssd;

pub use buffer::WriteBuffer;
pub use driver::{FtlDriver, FtlStats, HostContext, MaintWork, PageRead, WlWrite};
pub use front::{FrontRequest, HostFront};
pub use request::{HostOp, HostRequest};
pub use ssd::{
    background_ops, max_queue_depth, mean_busy_fraction, ChipStats, InFlightFlush, RebuildOp,
    RebuildProgress, RebuildSchedule, SimReport, SpoEvent, SpoTrigger, SsdConfig, SsdSim,
    StepOutcome,
};
