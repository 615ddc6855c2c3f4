//! Application-level KV workloads: the [`kvsim`] engine behind the
//! [`Workload`] trait.
//!
//! Where [`RocksWorkload`](crate::RocksWorkload) *approximates* an LSM
//! tree's block-level traffic statistically, [`YcsbWorkload`] runs an
//! actual (miniature) LSM engine and emits the device requests its
//! mechanics produce — so compaction-driven application-level write
//! amplification composes multiplicatively with the device's own WA
//! instead of being baked into a synthetic mix.

use crate::Workload;
use kvsim::{KvConfig, KvStream, YcsbKind};
use ssdsim::HostRequest;

/// A YCSB workload driving the kvsim LSM engine over the device's
/// logical space. Endless and deterministic per `(config, kind, seed)`.
/// App-level results (ops, hit rates, p99 page costs, app-WA,
/// compaction debt) and the flush/compaction log are read off the
/// engine through [`Workload::kv_engine`].
#[derive(Debug)]
pub struct YcsbWorkload {
    stream: KvStream,
    label: &'static str,
}

impl YcsbWorkload {
    /// An engine of shape `cfg` over `logical_pages` (key count clamped
    /// to fit the space).
    pub fn new(cfg: KvConfig, kind: YcsbKind, logical_pages: u64, seed: u64) -> Self {
        YcsbWorkload {
            stream: KvStream::new(cfg, kind, logical_pages, seed),
            label: kind.label(),
        }
    }
}

impl Iterator for YcsbWorkload {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        self.stream.next()
    }
}

impl Workload for YcsbWorkload {
    fn label(&self) -> &str {
        self.label
    }

    fn kv_engine(&self) -> Option<&KvStream> {
        Some(&self.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_labels_and_streams() {
        let shape = KvConfig::default_shape;
        let mut w = YcsbWorkload::new(shape(), YcsbKind::A, 16_384, 9);
        assert_eq!(w.label(), "ycsb_a");
        let reqs: Vec<_> = (&mut w).take(3_000).collect();
        assert_eq!(reqs.len(), 3_000);
        for r in &reqs {
            for lpn in r.lpns() {
                assert!(lpn < 16_384, "lpn {lpn} out of space");
            }
        }
        let again: Vec<_> = YcsbWorkload::new(shape(), YcsbKind::A, 16_384, 9)
            .take(3_000)
            .collect();
        assert_eq!(reqs, again, "stream must be deterministic");
    }

    #[test]
    fn report_reflects_measured_ops() {
        let mut w = YcsbWorkload::new(KvConfig::default_shape(), YcsbKind::B, 16_384, 5);
        for _ in (&mut w).take(4_000) {}
        let r = w.kv_engine().expect("runs an engine").report();
        assert!(r.stats.ops > 0);
        assert!(r.stats.reads >= r.stats.updates, "B is read-mostly");
    }
}
