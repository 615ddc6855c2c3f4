//! # workloads — synthetic I/O streams for the cubeFTL evaluation
//!
//! The paper evaluates six workloads (§6.1): four Filebench
//! personalities — **Mail**, **Web**, **Proxy**, **OLTP** — and two
//! database applications driven by YCSB workload A (50/50 reads and
//! updates) — **Rocks** (RocksDB, an LSM tree) and **Mongo** (MongoDB,
//! a B-tree engine).
//!
//! Running the real applications is out of scope for a simulator, so
//! this crate generates block-level request streams with the same
//! first-order statistics the FTLs react to: read/write mix, request
//! sizes, access skew, and — crucially for cubeFTL's WL allocation
//! manager — **write burstiness** (memtable flushes and compactions for
//! the LSM model, checkpoints for the B-tree model, mail-delivery and
//! commit bursts for the Filebench personalities).
//!
//! Every generator is an `Iterator<Item = HostRequest>` and is
//! deterministic for a given seed.
//!
//! # Example
//!
//! ```
//! use workloads::{StandardWorkload, Workload};
//!
//! let mut w = StandardWorkload::Rocks.build(100_000, 7);
//! let first: Vec<_> = w.by_ref().take(100).collect();
//! assert_eq!(first.len(), 100);
//! assert_eq!(w.label(), "Rocks");
//! ```

pub mod filebench;
pub mod kv;
pub mod shard;
pub mod tenants;
pub mod trace;
pub mod zipf;

pub use filebench::{FilebenchKind, FilebenchWorkload};
pub use kv::{MongoWorkload, RocksWorkload};
pub use shard::shard_seed;
pub use tenants::{
    build_population, tenant_seed, TenantClass, TenantMix, TenantProfile, UniformTenantWorkload,
};
pub use trace::{Trace, TraceReplay};
pub use zipf::Zipfian;

use ssdsim::HostRequest;

/// A labelled, endless request stream.
pub trait Workload: Iterator<Item = HostRequest> {
    /// Display name for reports (matches the paper's figure labels).
    fn label(&self) -> &str;

    /// The application engine behind the stream, when it runs one: its
    /// app-level report and maintenance log reach the run's fan-in
    /// through here, whichever host interface drives the stream.
    fn kv_engine(&self) -> Option<&kvsim::KvStream> {
        None
    }
}

/// A YCSB run of the kvsim LSM engine over the device's logical space.
/// Where [`RocksWorkload`] *approximates* an LSM tree's block-level
/// traffic statistically, the engine emits the device requests its
/// mechanics produce, so its app-level write amplification composes
/// with the device's own. Its report and flush/compaction log are read
/// off [`Workload::kv_engine`].
impl Workload for kvsim::KvStream {
    fn label(&self) -> &str {
        self.kind().label()
    }

    fn kv_engine(&self) -> Option<&kvsim::KvStream> {
        Some(self)
    }
}

/// The six evaluation workloads of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StandardWorkload {
    /// Filebench varmail: mail-server I/O.
    Mail,
    /// Filebench webserver: read-dominant web serving.
    Web,
    /// Filebench webproxy: proxy cache.
    Proxy,
    /// Filebench OLTP: write-intensive transactional DB.
    Oltp,
    /// RocksDB under YCSB-A (LSM tree).
    Rocks,
    /// MongoDB under YCSB-A (B-tree engine).
    Mongo,
}

impl StandardWorkload {
    /// All six in the paper's presentation order (Fig. 17).
    pub const ALL: [StandardWorkload; 6] = [
        StandardWorkload::Mail,
        StandardWorkload::Web,
        StandardWorkload::Proxy,
        StandardWorkload::Oltp,
        StandardWorkload::Rocks,
        StandardWorkload::Mongo,
    ];

    /// Parses a figure label, case-insensitively (`mail`, `OLTP`, …).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|w| w.label().eq_ignore_ascii_case(s))
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            StandardWorkload::Mail => "Mail",
            StandardWorkload::Web => "Web",
            StandardWorkload::Proxy => "Proxy",
            StandardWorkload::Oltp => "OLTP",
            StandardWorkload::Rocks => "Rocks",
            StandardWorkload::Mongo => "Mongo",
        }
    }

    /// Builds the generator over a logical address space of
    /// `logical_pages` pages. The generator is `Send` so the array
    /// front-end can move it onto a shard worker thread.
    pub fn build(self, logical_pages: u64, seed: u64) -> Box<dyn Workload + Send> {
        match self {
            StandardWorkload::Mail => Box::new(FilebenchWorkload::new(
                FilebenchKind::Mail,
                logical_pages,
                seed,
            )),
            StandardWorkload::Web => Box::new(FilebenchWorkload::new(
                FilebenchKind::Web,
                logical_pages,
                seed,
            )),
            StandardWorkload::Proxy => Box::new(FilebenchWorkload::new(
                FilebenchKind::Proxy,
                logical_pages,
                seed,
            )),
            StandardWorkload::Oltp => Box::new(FilebenchWorkload::new(
                FilebenchKind::Oltp,
                logical_pages,
                seed,
            )),
            StandardWorkload::Rocks => Box::new(RocksWorkload::new(logical_pages, seed)),
            StandardWorkload::Mongo => Box::new(MongoWorkload::new(logical_pages, seed)),
        }
    }
}

impl std::fmt::Display for StandardWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdsim::HostOp;

    #[test]
    fn all_workloads_produce_requests_in_range() {
        let space = 50_000u64;
        for kind in StandardWorkload::ALL {
            let w = kind.build(space, 3);
            for req in w.take(5_000) {
                for lpn in req.lpns() {
                    assert!(lpn < space, "{kind}: lpn {lpn} out of range");
                }
                assert!(req.n_pages >= 1);
            }
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        for kind in StandardWorkload::ALL {
            let a: Vec<_> = kind.build(10_000, 9).take(500).collect();
            let b: Vec<_> = kind.build(10_000, 9).take(500).collect();
            assert_eq!(a, b, "{kind} not deterministic");
            let c: Vec<_> = kind.build(10_000, 10).take(500).collect();
            assert_ne!(a, c, "{kind} ignores seed");
        }
    }

    #[test]
    fn read_write_mix_matches_personality() {
        let space = 100_000u64;
        let mix = |kind: StandardWorkload| -> f64 {
            let mut pages_r = 0u64;
            let mut pages_w = 0u64;
            for req in kind.build(space, 5).take(40_000) {
                match req.op {
                    HostOp::Read => pages_r += u64::from(req.n_pages),
                    HostOp::Write => pages_w += u64::from(req.n_pages),
                    HostOp::Trim => {}
                }
            }
            pages_w as f64 / (pages_r + pages_w) as f64
        };
        // §6.1/§6.2 qualitative anchors: Web and Proxy are read-dominant,
        // OLTP is the most write-intensive, YCSB-A is update-heavy.
        let web = mix(StandardWorkload::Web);
        let proxy = mix(StandardWorkload::Proxy);
        let mail = mix(StandardWorkload::Mail);
        let oltp = mix(StandardWorkload::Oltp);
        assert!(web < 0.30, "Web write fraction {web}");
        assert!(proxy < 0.30, "Proxy write fraction {proxy}");
        assert!((0.35..0.65).contains(&mail), "Mail write fraction {mail}");
        assert!(
            oltp > mail && oltp > web && oltp > proxy,
            "OLTP must be most write-intensive"
        );
        assert!(oltp > 0.75, "OLTP write fraction {oltp}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StandardWorkload::Rocks.build(1000, 0).label(), "Rocks");
        assert_eq!(StandardWorkload::Mail.to_string(), "Mail");
        for kind in StandardWorkload::ALL {
            assert_eq!(kind.build(1000, 0).label(), kind.label());
            assert_eq!(
                StandardWorkload::parse(&kind.label().to_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(StandardWorkload::parse("a"), None);
    }

    #[test]
    fn a_kv_stream_is_a_labelled_workload_with_its_engine() {
        let build = |kind| TenantMix::Kv(kind).build(kvsim::KvConfig::default_shape(), 16_384, 9);
        let mut w = build(kvsim::YcsbKind::A);
        assert_eq!(w.label(), "ycsb_a");
        let reqs: Vec<_> = w.by_ref().take(3_000).collect();
        assert!(reqs.iter().flat_map(|r| r.lpns()).all(|lpn| lpn < 16_384));
        let again: Vec<_> = build(kvsim::YcsbKind::A).take(3_000).collect();
        assert_eq!(reqs, again, "stream must be deterministic");
        let r = w.kv_engine().expect("runs an engine").report();
        assert!(r.stats.ops > 0);
        assert_eq!(build(kvsim::YcsbKind::B).label(), "ycsb_b");
    }
}
