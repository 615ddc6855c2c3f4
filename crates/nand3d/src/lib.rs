//! # nand3d — a behavioral model of 3D TLC NAND flash memory
//!
//! This crate is the device substrate for the reproduction of
//! *"Exploiting Process Similarity of 3D Flash Memory for High Performance
//! SSDs"* (MICRO 2019). It models the **cubic organization** of 3D NAND
//! (blocks → horizontal layers → word lines → TLC pages) together with the
//! two process characteristics the paper is built on:
//!
//! * **horizontal intra-layer similarity** — word lines (WLs) on the same
//!   horizontal layer (h-layer) of a block behave virtually identically
//!   (paper §3.2, Fig. 5), and
//! * **vertical inter-layer variability** — h-layers differ substantially
//!   and age nonlinearly (paper §3.3, Fig. 6).
//!
//! On top of the process model it implements the micro-operation level
//! behaviour the paper's optimizations manipulate:
//!
//! * the **ISPP program engine** ([`ispp`]) with per-state verify
//!   scheduling, `V_Start`/`V_Final` windows and skip-aware verify counts
//!   (paper §2.2, §4.1), and
//! * the **read-retry engine** ([`read`]) that searches for working read
//!   reference voltage offsets (paper §2.3, §4.2).
//!
//! The top-level entry points are [`NandChip`] (a single chip with full
//! command semantics) and [`FlashArray`] (a multi-chip package used by the
//! SSD simulator).
//!
//! # Example
//!
//! ```
//! use nand3d::{NandChip, NandConfig, ProgramParams, WlData};
//!
//! # fn main() -> Result<(), nand3d::NandError> {
//! let mut chip = NandChip::new(NandConfig::small(), 42);
//! let block = nand3d::BlockId(0);
//! chip.erase(block)?;
//!
//! // Program the leading WL of h-layer 0 with default (safe) parameters.
//! let wl = chip.geometry().wl_addr(block, 0, 0);
//! let report = chip.program_wl(wl, WlData::host(1), &ProgramParams::default())?;
//! assert!(report.latency_us > 0.0);
//!
//! // The report exposes the monitored ISPP loop intervals, which a
//! // PS-aware FTL reuses for the remaining WLs of the same h-layer.
//! assert_eq!(report.loop_intervals.len(), 7);
//! # Ok(())
//! # }
//! ```

pub mod chip;
pub mod config;
pub mod ecc;
pub mod environment;
pub mod error;
pub mod faults;
pub mod geometry;
pub mod ispp;
pub mod process;
pub mod read;
pub mod reliability;
pub mod vth;

pub use chip::{
    FlashArray, NandChip, OobStatus, PageState, ProgramReport, ReadReport, WlData, WlOob,
};
pub use config::{NandConfig, NandTiming};
pub use ecc::{DecodeMode, EccModel};
pub use environment::{
    AgingState, Environment, ACTIVATION_ENERGY_EV, AMBIENT_CELSIUS_RANGE, REFERENCE_CELSIUS,
};
pub use error::NandError;
pub use faults::{
    FaultCounters, FaultInjector, FaultKind, FaultPlan, ProgramFault, ReadFaultKind, TargetedFault,
};
pub use geometry::{BlockId, ChipId, Geometry, HLayer, PageAddr, PageIndex, VLayer, WlAddr};
pub use ispp::{IsppEngine, LoopInterval, ProgramParams, StateIndex, NUM_PROGRAM_STATES};
pub use process::ProcessModel;
pub use read::{ReadParams, RetryEngine, RetryOptConfig, MAX_OFFSET_INDEX};
pub use reliability::{delta_h, delta_v, ReliabilityModel};
pub use vth::{VthConditions, VthLandscape, VthModel, VthState};
