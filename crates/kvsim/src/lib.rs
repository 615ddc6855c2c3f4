//! kvsim — a deterministic application-level workload engine.
//!
//! The paper's §5 evaluation drives cubeFTL with YCSB running on
//! RocksDB; this crate reproduces that layer in miniature so the
//! simulator can be exercised by *application* streams whose device
//! traffic emerges from real storage-engine mechanics (memtable
//! flushes, leveled compaction, WAL commits, read probes) rather than
//! from a synthetic address generator.
//!
//! Determinism rules, matching the rest of the workspace:
//!
//! - integer arithmetic only — no floats anywhere in the op or I/O
//!   path (derived float metrics are computed by reporting code);
//! - a single seeded splitmix64 counter stream per [`KvStream`] is the
//!   only randomness, consumed exclusively by the YCSB generator; the
//!   LSM engine itself is a pure function of the op sequence;
//! - no wall-clock, no `HashMap` iteration order, no thread count in
//!   the stream: the emitted [`HostRequest`] sequence is a pure
//!   function of `(config, kind, seed)`.
//!
//! The stream runs in two phases. A **load phase** inserts every key
//! (bulk load: no WAL, not measured) and force-flushes, so even a
//! read-only workload probes real on-device SSTs. The **measured
//! phase** then applies generator ops forever, counting per-op device
//! page costs into integer histograms. App-level write amplification
//! is `SST pages written / user pages written` — the multiplicative
//! partner of the device's own WA.

pub mod lsm;
pub mod rng;
pub mod ycsb;
pub mod zipf;

pub use lsm::{KvConfig, KvEvent, KvStats, LsmTree, ENTRY_HEADER_BYTES, PAGE_BYTES};
pub use rng::{splitmix64, SplitMix};
pub use ycsb::{KvOp, YcsbGen, YcsbKind};
pub use zipf::IntZipf;

use ssdsim::HostRequest;

/// An endless iterator of device requests produced by a YCSB generator
/// feeding an LSM engine. Pass `&mut stream` to `SsdSim::run` so the
/// stream (and its stats) survives the run for reporting.
#[derive(Debug)]
pub struct KvStream {
    gen: YcsbGen,
    lsm: LsmTree,
    /// Per-op read-probe page costs: `read_cost[pages]` ops.
    read_cost: Vec<u64>,
    /// Per-op write page costs, flush/compaction bursts included.
    update_cost: Vec<u64>,
    load_requests: u64,
}

impl KvStream {
    /// Builds the engine over `space_pages` logical pages, clamps the
    /// key count to fit, and runs the bulk-load phase (its device
    /// requests are queued, not yet consumed).
    pub fn new(cfg: KvConfig, kind: YcsbKind, space_pages: u64, seed: u64) -> Self {
        let cfg = cfg.clamped(space_pages);
        let mut lsm = LsmTree::new(cfg, space_pages);
        let keys = cfg.keys;
        let gen = YcsbGen::new(kind, keys, seed);
        lsm.begin_load();
        // Load order is scattered (splitmix64 over the key id) so the
        // initial runs overlap and compaction starts exercised.
        for i in 0..keys {
            lsm.put(splitmix64(i ^ 0x4c4f_4144) % keys, true); // "LOAD"
        }
        // Ensure every key exists even where the scatter collided.
        for k in 0..keys {
            if !lsm.contains(k) {
                lsm.put(k, true);
            }
        }
        lsm.end_load();
        let mut s = KvStream {
            gen,
            lsm,
            read_cost: Vec::new(),
            update_cost: Vec::new(),
            load_requests: 0,
        };
        s.load_requests = s.lsm.stats().sst_pages_written;
        s
    }

    /// The engine's configuration after clamping.
    pub fn config(&self) -> &KvConfig {
        self.lsm.config()
    }

    /// The workload kind driving the stream.
    pub fn kind(&self) -> YcsbKind {
        self.gen.kind()
    }

    /// Applies one generator op to the engine, tallying its page
    /// costs. Returns whether any device I/O was queued.
    fn step(&mut self) -> bool {
        let before = self.lsm.stats();
        let read_before = before.probe_pages_read;
        let written_before = before.sst_pages_written + before.wal_pages_written;
        self.lsm.next_op();
        let op = self.gen.next_op();
        match op {
            KvOp::Read(k) => {
                self.lsm.get(k);
            }
            KvOp::Update(k) => {
                self.lsm.put(k, false);
            }
            KvOp::Insert(k) => {
                self.lsm.put(k, true);
            }
            KvOp::ReadModifyWrite(k) => {
                self.lsm.get(k);
                self.lsm.put(k, false);
                self.lsm.stats_mut().rmws += 1;
            }
        }
        let after = self.lsm.stats();
        let read_pages = after.probe_pages_read - read_before;
        let write_pages = after.sst_pages_written + after.wal_pages_written - written_before;
        match op {
            KvOp::Read(_) => {
                bump(&mut self.read_cost, read_pages);
            }
            KvOp::Update(_) | KvOp::Insert(_) => {
                bump(&mut self.update_cost, write_pages);
            }
            KvOp::ReadModifyWrite(_) => {
                bump(&mut self.read_cost, read_pages);
                bump(&mut self.update_cost, write_pages);
            }
        }
        self.lsm.has_io()
    }

    /// Snapshot of app-level results so far.
    pub fn report(&self) -> KvAppReport {
        let stats = self.lsm.stats().clone();
        let epp = u64::from(self.config().entries_per_page());
        let user_pages = stats.user_bytes.div_ceil(u64::from(PAGE_BYTES));
        // Measured SST traffic only: the bulk load writes every key
        // once before op 0 and would otherwise dilute the steady-state
        // amplification signal.
        let measured_sst = stats.sst_pages_written - self.load_requests;
        KvAppReport {
            kind: self.gen.kind(),
            keys: self.config().keys,
            entries_per_page: epp,
            read_p99_pages: percentile(&self.read_cost, 99),
            update_p99_pages: percentile(&self.update_cost, 99),
            app_wa_permille: ((measured_sst + stats.wal_pages_written) * 1000)
                .checked_div(user_pages)
                .unwrap_or(0),
            compaction_debt_pages: self.lsm.compaction_debt_pages(),
            load_sst_pages: self.load_requests,
            stats,
        }
    }

    /// Flush/compaction events for telemetry.
    pub fn events(&self) -> &[KvEvent] {
        self.lsm.events()
    }
}

/// Raises the histogram bucket for a cost observation: `hist[pages]`,
/// with the page count clamped to `u32::MAX`.
fn bump(hist: &mut Vec<u64>, pages: u64) {
    let bucket = pages.min(u64::from(u32::MAX)) as usize;
    if bucket >= hist.len() {
        hist.resize(bucket + 1, 0);
    }
    hist[bucket] += 1;
}

/// Integer percentile over a cost histogram (nearest-rank; 0 when the
/// histogram is empty).
fn percentile(hist: &[u64], pct: u64) -> u64 {
    let rank = (hist.iter().sum::<u64>() * pct).div_ceil(100).max(1);
    let mut seen = 0u64;
    hist.iter()
        .position(|&count| {
            seen += count;
            seen >= rank
        })
        .map_or(0, |bucket| bucket as u64)
}

impl Iterator for KvStream {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        loop {
            if let Some(req) = self.lsm.take_io() {
                return Some(req);
            }
            // Memtable hits cost no I/O; keep applying ops until the
            // engine queues device traffic. Post-load, every SST probe
            // or eventual flush guarantees progress.
            self.step();
        }
    }
}

/// App-level results of one KV stream, all integer-valued.
#[derive(Debug, Clone, PartialEq)]
pub struct KvAppReport {
    /// Workload kind.
    pub kind: YcsbKind,
    /// Key-space size after clamping.
    pub keys: u64,
    /// Entries per device page.
    pub entries_per_page: u64,
    /// Raw engine counters.
    pub stats: KvStats,
    /// 99th-percentile read cost, probe pages per op.
    pub read_p99_pages: u64,
    /// 99th-percentile update cost, written pages per op (flush and
    /// compaction bursts land on the triggering op).
    pub update_p99_pages: u64,
    /// App-level WA × 1000: measured (SST + WAL) pages per user page.
    pub app_wa_permille: u64,
    /// Outstanding compaction backlog at end of run, pages.
    pub compaction_debt_pages: u64,
    /// SST pages written by the unmeasured bulk load.
    pub load_sst_pages: u64,
}

impl KvAppReport {
    /// App-level write amplification as a float (reporting only).
    pub fn app_wa(&self) -> f64 {
        self.app_wa_permille as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPACE: u64 = 16_384;

    fn small() -> KvConfig {
        KvConfig {
            keys: 2_048,
            memtable_entries: 256,
            sst_entries: 256,
            ..KvConfig::default_shape()
        }
    }

    #[test]
    fn stream_is_deterministic_and_endless() {
        let draw = |seed: u64| -> Vec<HostRequest> {
            let mut s = KvStream::new(small(), YcsbKind::A, SPACE, seed);
            (&mut s).take(5_000).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn read_only_c_still_probes_the_device() {
        let mut s = KvStream::new(small(), YcsbKind::C, SPACE, 7);
        let reqs: Vec<HostRequest> = (&mut s).take(2_000).collect();
        assert_eq!(reqs.len(), 2_000);
        let r = s.report();
        assert!(r.stats.reads > 0);
        assert_eq!(r.stats.updates, 0);
        assert!(r.stats.probe_pages_read > 0, "C must hit SSTs");
    }

    #[test]
    fn update_heavy_a_amplifies_writes() {
        let mut s = KvStream::new(small(), YcsbKind::A, SPACE, 7);
        for _ in (&mut s).take(30_000) {}
        let r = s.report();
        assert!(r.stats.updates > 0);
        assert!(
            r.app_wa_permille > 1000,
            "compaction must amplify: {} permille",
            r.app_wa_permille
        );
        assert!(r.stats.compactions > 0);
    }

    #[test]
    fn report_percentiles_are_populated() {
        let mut s = KvStream::new(small(), YcsbKind::B, SPACE, 3);
        for _ in (&mut s).take(10_000) {}
        let r = s.report();
        assert!(r.read_p99_pages >= 1);
        assert!(r.stats.ops > 0);
    }

    #[test]
    fn keyspace_is_clamped_to_fit_small_devices() {
        let cfg = KvConfig {
            keys: 1 << 40,
            ..KvConfig::default_shape()
        };
        let s = KvStream::new(cfg, YcsbKind::C, 4_096, 1);
        assert!(s.config().keys < 1 << 40);
        assert!(s.config().keys >= 64);
    }
}
