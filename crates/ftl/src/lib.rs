//! # ftl — flash translation layers for 3D NAND SSDs
//!
//! The core contribution of the reproduced paper (*"Exploiting Process
//! Similarity of 3D Flash Memory for High Performance SSDs"*, MICRO
//! 2019): a page-level FTL family sharing mapping, allocation and garbage
//! collection, differing in how much they know about the 3D NAND process:
//!
//! * [`Ftl::page`] — **pageFTL**: the PS-unaware baseline. Default NAND
//!   parameters, horizontal-first program order, default read references.
//! * [`Ftl::vert`] — **vertFTL** (after Hung et al. \[13\]): an offline,
//!   conservative per-layer `V_Final`-only reduction (~8% tPROG).
//! * [`Ftl::cube`] — **cubeFTL**: the PS-aware FTL of §5. Its Optimal
//!   Parameter Manager ([`Opm`]) monitors every leader-WL program and
//!   reuses `[L_min, L_max]` and `BER_EP1` for follower WLs of the same
//!   h-layer (VFY skipping + window shrinking, §4.1), maintains the
//!   optimal read-reference table (ORT, §4.2), and runs the §4.1.4
//!   safety check. Its WL Allocation Manager ([`Wam`]) serves bursty
//!   writes from fast follower WLs using the mixed-order scheme (§5.2).
//! * [`Ftl::cube_minus`] — **cubeFTL-**: cubeFTL with the WAM's §5.2
//!   policy disabled (horizontal-first allocation, like pageFTL and
//!   vertFTL: every kind allocates through a [`Wam`]), the ablation of
//!   §6.3.
//!
//! All four implement [`ssdsim::FtlDriver`] and run unmodified under the
//! `ssdsim` engine.
//!
//! # Modules
//!
//! [`base`] holds the [`Ftl`] struct, its constructors and accessors
//! and the `FtlDriver` entry points. The shared mechanisms each exist
//! once, and take *who is asking* (`Origin`: host, GC or maintenance)
//! as an argument: [`mod@write`] (free pools, WL allocation,
//! program-and-map), [`read`] (the policy read), [`gc`] (victim
//! selection, block migration, `release_block`), [`recovery`]
//! (checkpoint codec, metadata ring, power cut and power cycle),
//! [`maint`] (scrub / re-monitor / wear-level services) and [`aging`]
//! (lifetime epochs), over [`mapping`] (L2P/P2L), [`cube`] (OPM and
//! WAM), [`order`] (program orders), [`config`] and [`predictor`].
//!
//! # Example
//!
//! ```
//! use ftl::{Ftl, FtlConfig};
//! use ssdsim::{FtlDriver, HostContext};
//!
//! let mut ftl = Ftl::cube(FtlConfig::small());
//! let ctx = HostContext { buffer_utilization: 0.0, now_us: 0.0 };
//! let w = ftl.write_wl(0, [0, 1, 2], &ctx);
//! assert!(w.nand_us > 0.0);
//! let r = ftl.read_page(1, &ctx).expect("page was written");
//! assert_eq!(r.chip, 0);
//! ```

pub mod aging;
pub mod base;
pub mod config;
pub mod cube;
pub mod gc;
pub mod maint;
pub mod mapping;
pub mod order;
pub mod predictor;
pub mod read;
pub mod recovery;
#[cfg(test)]
mod testutil;
pub mod write;

pub use base::{Ftl, FtlKind};
pub use config::{FtlConfig, OrtClusterConfig};
pub use cube::opm::{LeaderParams, OffsetLookup, Opm};
pub use cube::wam::{Wam, WlChoice};
pub use maint::MaintConfig;
pub use mapping::{Mapping, Ppn};
pub use order::ProgramOrder;
pub use predictor::{Forecast, LatencyPredictor};
pub use recovery::{Checkpoint, CheckpointError, RecoveryReport};
