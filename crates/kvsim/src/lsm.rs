//! The deterministic LSM-tree storage engine.
//!
//! A faithful-at-page-granularity model of a leveled LSM tree
//! (memtable → L0 flush → leveled compaction with a bounded level
//! count), whose every storage access is emitted as a page-level
//! [`HostRequest`] against the simulated device:
//!
//! - **updates** append to a group-commit WAL ring and the in-memory
//!   memtable; a full memtable flushes as a sorted run (SST) into L0;
//! - **L0** compacts into L1 when it reaches `l0_files` runs; levels
//!   `1..` hold non-overlapping runs and compact one victim at a time
//!   into the next level when they exceed their size target
//!   (`fanout`× the level above); the last level absorbs everything,
//!   bounding the level count at `max_levels`;
//! - **reads** probe the memtable (no I/O), then one page per
//!   key-range-covering run, newest first, until the key is found;
//! - **SST space** comes from a first-fit extent allocator over the
//!   device's logical pages; dead runs are trimmed back to it.
//!
//! Everything is integer arithmetic over splitmix64 fingerprints; the
//! engine itself consumes no randomness at all — its behaviour is a
//! pure function of the operation sequence it is fed.

use crate::rng::splitmix64;
use ssdsim::HostRequest;
use std::collections::{BTreeMap, VecDeque};

/// Device page size the engine packs entries into (matches the
/// simulator's 16-KiB page).
pub const PAGE_BYTES: u32 = 16 * 1024;

/// Bytes of key, fingerprint and length header in front of every
/// entry's value payload inside an SST page.
pub const ENTRY_HEADER_BYTES: u32 = 24;

/// Largest single span the engine emits (pages); longer SST reads and
/// writes are chunked so request sizes stay in the range the device
/// model was calibrated for — and, crucially, within the simulator's
/// write buffer (16 pages in the reduced config).
const SPAN_PAGES: u32 = 8;

/// Sizing and shape of one LSM engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Key-space size (distinct keys; clamped by [`KvConfig::clamped`]
    /// so the worst-case SST footprint fits the device).
    pub keys: u64,
    /// Value payload per entry, bytes.
    pub value_bytes: u32,
    /// Memtable flush threshold, entries.
    pub memtable_entries: u32,
    /// Maximum entries per SST run.
    pub sst_entries: u32,
    /// L0 run count that triggers an L0→L1 compaction.
    pub l0_files: u32,
    /// Size ratio between adjacent levels.
    pub fanout: u32,
    /// Total level count (L0 plus `max_levels − 1` leveled tiers; the
    /// last tier absorbs everything, so the count is a hard bound).
    pub max_levels: u32,
    /// WAL ring size, pages (0 disables the WAL).
    pub wal_pages: u32,
}

impl KvConfig {
    /// The default shape: 1-KiB values, 2 Ki-entry memtable/SSTs,
    /// 4-run L0, fanout 4, four levels, a 64-page WAL ring.
    pub fn default_shape() -> Self {
        KvConfig {
            keys: 8_192,
            value_bytes: 1024,
            memtable_entries: 2048,
            sst_entries: 2048,
            l0_files: 4,
            fanout: 4,
            max_levels: 4,
            wal_pages: 64,
        }
    }

    /// Bytes one entry occupies inside an SST page (key, fingerprint
    /// and length header plus the value payload).
    pub fn entry_bytes(&self) -> u32 {
        ENTRY_HEADER_BYTES + self.value_bytes
    }

    /// Entries packed per device page (at least one).
    pub fn entries_per_page(&self) -> u32 {
        (PAGE_BYTES / self.entry_bytes()).max(1)
    }

    /// Clamps the key count so the engine's worst-case footprint —
    /// live runs across every level plus transient compaction outputs —
    /// fits in `space_pages` logical pages with headroom.
    pub fn clamped(mut self, space_pages: u64) -> Self {
        let epp = u64::from(self.entries_per_page());
        let data_pages = space_pages.saturating_sub(u64::from(self.wal_pages));
        // Live data ≤ ~2× the key count (bottom level plus upper-level
        // duplicates) and compaction transiently doubles the touched
        // runs: budget 6 entry-slots of space per key.
        let max_keys = (data_pages * epp / 6).max(64);
        self.keys = self.keys.min(max_keys);
        self
    }

    /// Panics unless the configuration is coherent.
    pub fn validate(&self) {
        assert!(self.keys >= 1, "need at least one key");
        assert!(self.value_bytes >= 1, "need a value payload");
        assert!(
            self.value_bytes <= PAGE_BYTES - ENTRY_HEADER_BYTES,
            "value must fit a page"
        );
        assert!(self.memtable_entries >= 1, "need a memtable");
        assert!(self.sst_entries >= 1, "need SST capacity");
        assert!(self.l0_files >= 2, "L0 trigger must be at least 2");
        assert!(self.fanout >= 2, "fanout must be at least 2");
        assert!(self.max_levels >= 2, "need at least L0 and one level");
    }

    /// Entry-count target of leveled tier `n` (1-based; the last tier
    /// is unbounded).
    fn level_target(&self, n: u32) -> u64 {
        let base = u64::from(self.memtable_entries) * u64::from(self.l0_files);
        base.saturating_mul(u64::from(self.fanout).saturating_pow(n))
    }
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig::default_shape()
    }
}

/// One sorted run: its key range, entries, and device extent. The
/// range sits inline so that searching a level for the run covering a
/// key reads the level's run array only, never a run's entries.
#[derive(Debug, Clone)]
struct Sst {
    first: u64,
    last: u64,
    entries: Vec<(u64, u64)>,
    lpn: u64,
    pages: u32,
}

impl Sst {
    fn covers(&self, key: u64) -> bool {
        self.first <= key && key <= self.last
    }

    /// One search of the run: the device page holding `key`'s slot (or
    /// its insertion point), and the fingerprint if the key is there.
    fn probe(&self, key: u64, epp: u32) -> (u64, Option<u64>) {
        let (pos, hit) = match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(p) => (p, Some(self.entries[p].1)),
            Err(p) => (p, None),
        };
        let page = (pos as u64 / u64::from(epp)).min(u64::from(self.pages) - 1);
        (self.lpn + page, hit)
    }
}

/// The runs a lookup of `key` has to search, in the order their
/// versions supersede each other: L0 newest first (its runs overlap),
/// then at most one run per leveled tier.
fn covering(levels: &[Vec<Sst>], key: u64) -> impl Iterator<Item = &Sst> {
    let (l0, tiers) = levels.split_first().expect("L0 exists");
    let tiered = tiers
        .iter()
        .filter_map(move |tier| tier.get(tier.partition_point(|s| s.last < key)));
    l0.iter().rev().chain(tiered).filter(move |s| s.covers(key))
}

/// One flush or compaction, recorded for telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvEvent {
    /// Measured-op ordinal at which the event ran (load-phase events
    /// carry ordinal 0).
    pub op_index: u64,
    /// `"flush"` or `"compact"`.
    pub action: &'static str,
    /// Output level of the run(s) written.
    pub level: u32,
    /// Pages read from input runs.
    pub pages_in: u64,
    /// Pages written to output runs.
    pub pages_out: u64,
}

/// Raw counters of one engine instance. Derived, reporting-only
/// numbers (ops/s, app-WA as a float) live with the callers; the
/// engine itself stays integer-only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KvStats {
    /// Measured operations completed (load phase excluded).
    pub ops: u64,
    /// Measured point reads.
    pub reads: u64,
    /// Measured updates (including the write half of RMWs).
    pub updates: u64,
    /// Measured inserts of previously unwritten keys (YCSB-D).
    pub inserts: u64,
    /// Measured read-modify-writes (also counted in `reads`/`updates`).
    pub rmws: u64,
    /// Reads that found their key.
    pub read_hits: u64,
    /// User payload bytes written by measured updates/inserts.
    pub user_bytes: u64,
    /// SST pages written (flushes plus compaction outputs), load
    /// phase included.
    pub sst_pages_written: u64,
    /// Of those, pages written by compactions.
    pub compaction_pages_written: u64,
    /// SST pages read by compactions.
    pub compaction_pages_read: u64,
    /// WAL pages written.
    pub wal_pages_written: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Probe page-reads issued by point reads.
    pub probe_pages_read: u64,
}

/// The engine: memtable, leveled runs, extent allocator, and the
/// outbound device-request queue.
#[derive(Debug)]
pub struct LsmTree {
    cfg: KvConfig,
    epp: u32,
    mem: BTreeMap<u64, u64>,
    levels: Vec<Vec<Sst>>,
    cursors: Vec<u64>,
    free: BTreeMap<u64, u64>,
    data_pages: u64,
    wal_next: u32,
    wal_batch: u32,
    seq: u64,
    out: VecDeque<HostRequest>,
    stats: KvStats,
    events: Vec<KvEvent>,
    op_index: u64,
    loading: bool,
}

impl LsmTree {
    /// A new engine over `space_pages` logical pages. The WAL ring
    /// takes the top of the space; SST extents come from the rest.
    pub fn new(cfg: KvConfig, space_pages: u64) -> Self {
        cfg.validate();
        let data_pages = space_pages.saturating_sub(u64::from(cfg.wal_pages));
        assert!(
            data_pages >= 64,
            "kv engine needs at least 64 data pages, got {data_pages}"
        );
        let mut free = BTreeMap::new();
        free.insert(0u64, data_pages);
        LsmTree {
            epp: cfg.entries_per_page(),
            mem: BTreeMap::new(),
            levels: vec![Vec::new(); cfg.max_levels as usize],
            cursors: vec![0; cfg.max_levels as usize],
            free,
            data_pages,
            wal_next: 0,
            wal_batch: 0,
            seq: 0,
            out: VecDeque::new(),
            stats: KvStats::default(),
            events: Vec::new(),
            op_index: 0,
            loading: false,
            cfg,
        }
    }

    /// The configuration (post-clamp).
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// Mutable counters (the stream tallies composite ops here).
    pub fn stats_mut(&mut self) -> &mut KvStats {
        &mut self.stats
    }

    /// Flush/compaction events so far.
    pub fn events(&self) -> &[KvEvent] {
        &self.events
    }

    /// Pending device requests, drained by the stream.
    pub fn take_io(&mut self) -> Option<HostRequest> {
        self.out.pop_front()
    }

    /// Whether device requests are pending.
    pub fn has_io(&self) -> bool {
        !self.out.is_empty()
    }

    /// Marks the start of the bulk-load phase: inserts skip the WAL
    /// (bulk loads bypass the commit log) and are not counted as
    /// measured operations.
    pub fn begin_load(&mut self) {
        self.loading = true;
    }

    /// Ends the bulk load: the memtable remainder is flushed so every
    /// loaded key is probe-able on the device, and measured-op
    /// accounting starts.
    pub fn end_load(&mut self) {
        if !self.mem.is_empty() {
            self.flush_memtable();
            self.maintain();
        }
        self.loading = false;
    }

    /// Bumps the measured-op ordinal (the stream calls this once per
    /// application operation).
    pub fn next_op(&mut self) {
        if !self.loading {
            self.op_index += 1;
            self.stats.ops += 1;
        }
    }

    /// Point read: probes the memtable, then covering runs newest
    /// first, one page per probe. Returns the fingerprint if found.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let mut probes = 0u64;
        let found = self.get_inner(key, &mut probes);
        self.stats.probe_pages_read += probes;
        if !self.loading {
            self.stats.reads += 1;
            if found.is_some() {
                self.stats.read_hits += 1;
            }
        }
        found
    }

    /// Whether `key` exists, without emitting any device I/O (used by
    /// the bulk loader; not a measured operation).
    pub fn contains(&self, key: u64) -> bool {
        self.mem.contains_key(&key)
            || covering(&self.levels, key).any(|sst| sst.probe(key, self.epp).1.is_some())
    }

    fn get_inner(&mut self, key: u64, probes: &mut u64) -> Option<u64> {
        if let Some(&fp) = self.mem.get(&key) {
            return Some(fp);
        }
        for sst in covering(&self.levels, key) {
            let (page, hit) = sst.probe(key, self.epp);
            self.out.push_back(HostRequest::read(page));
            *probes += 1;
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// Upsert: WAL append (group commit, one page per page-worth of
    /// entries), memtable insert, flush + compaction when full. The
    /// value fingerprint is splitmix64 over the key and a global
    /// version counter, so every write is distinguishable.
    pub fn put(&mut self, key: u64, insert: bool) {
        self.seq += 1;
        let fp = splitmix64(key ^ self.seq.rotate_left(17));
        if !self.loading {
            if insert {
                self.stats.inserts += 1;
            } else {
                self.stats.updates += 1;
            }
            self.stats.user_bytes += u64::from(self.cfg.entry_bytes());
            if self.cfg.wal_pages > 0 {
                self.wal_batch += 1;
                if self.wal_batch >= self.epp {
                    self.wal_batch = 0;
                    let lpn = self.data_pages + u64::from(self.wal_next);
                    self.wal_next = (self.wal_next + 1) % self.cfg.wal_pages;
                    self.out.push_back(HostRequest::write(lpn));
                    self.stats.wal_pages_written += 1;
                }
            }
        }
        self.mem.insert(key, fp);
        if self.mem.len() >= self.cfg.memtable_entries as usize {
            self.flush_memtable();
            self.maintain();
        }
    }

    /// Pages of compaction work outstanding right now: entries beyond
    /// each bounded tier's target (plus the L0 backlog beyond its
    /// trigger), expressed in device pages.
    pub fn compaction_debt_pages(&self) -> u64 {
        let epp = u64::from(self.epp);
        let l0_cap = u64::from(self.cfg.l0_files) * u64::from(self.cfg.memtable_entries);
        let mut debt_entries = self.level_entries(0).saturating_sub(l0_cap);
        for n in 1..self.levels.len() - 1 {
            debt_entries += self
                .level_entries(n)
                .saturating_sub(self.cfg.level_target(n as u32));
        }
        debt_entries.div_ceil(epp)
    }

    /// Total entries resident in tier `n`.
    pub fn level_entries(&self, n: usize) -> u64 {
        self.levels[n].iter().map(|s| s.entries.len() as u64).sum()
    }

    /// Runs resident in tier `n`.
    pub fn level_runs(&self, n: usize) -> usize {
        self.levels[n].len()
    }

    /// Number of tiers (== `max_levels`).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Entry-count target of bounded tier `n` (1-based).
    pub fn level_target(&self, n: u32) -> u64 {
        self.cfg.level_target(n)
    }

    fn alloc(&mut self, pages: u64) -> u64 {
        let slot = self
            .free
            .iter()
            .find(|(_, &len)| len >= pages)
            .map(|(&lpn, &len)| (lpn, len));
        let Some((lpn, len)) = slot else {
            panic!(
                "kv engine out of device space allocating {pages} pages \
                 ({} data pages, {} free extents) — lower --kv-keys",
                self.data_pages,
                self.free.len()
            );
        };
        self.free.remove(&lpn);
        if len > pages {
            self.free.insert(lpn + pages, len - pages);
        }
        lpn
    }

    fn release(&mut self, lpn: u64, pages: u64) {
        let mut lpn = lpn;
        let mut pages = pages;
        // Coalesce with the left neighbour…
        if let Some((&p, &l)) = self.free.range(..lpn).next_back() {
            if p + l == lpn {
                self.free.remove(&p);
                lpn = p;
                pages += l;
            }
        }
        // …and the right neighbour.
        if let Some((&p, &l)) = self.free.range(lpn + pages..).next() {
            if lpn + pages == p {
                self.free.remove(&p);
                pages += l;
            }
        }
        self.free.insert(lpn, pages);
    }

    fn emit_span(&mut self, kind: SpanKind, lpn: u64, pages: u64) {
        let mut at = lpn;
        let mut left = pages;
        while left > 0 {
            let n = left.min(u64::from(SPAN_PAGES)) as u32;
            self.out.push_back(match kind {
                SpanKind::Read => HostRequest::read_span(at, n),
                SpanKind::Write => HostRequest::write_span(at, n),
                SpanKind::Trim => HostRequest::trim_span(at, n),
            });
            at += u64::from(n);
            left -= u64::from(n);
        }
    }

    /// Writes `entries` (sorted, deduplicated) as runs of at most
    /// `sst_entries` into tier `level`, emitting the device writes.
    /// Each run is streamed into a vector of exactly its size: resident
    /// runs hold no spare capacity. Returns the pages written.
    fn write_runs(
        &mut self,
        mut entries: impl ExactSizeIterator<Item = (u64, u64)>,
        level: usize,
    ) -> u64 {
        let mut written = 0u64;
        while entries.len() > 0 {
            let take = entries.len().min(self.cfg.sst_entries as usize);
            let mut run = Vec::with_capacity(take);
            run.extend(entries.by_ref().take(take));
            let pages = (run.len() as u64).div_ceil(u64::from(self.epp));
            let lpn = self.alloc(pages);
            self.emit_span(SpanKind::Write, lpn, pages);
            written += pages;
            let sst = Sst {
                first: run[0].0,
                last: run[take - 1].0,
                entries: run,
                lpn,
                pages: u32::try_from(pages).expect("run pages fit"),
            };
            if level == 0 {
                self.levels[0].push(sst);
            } else {
                let at = self.levels[level].partition_point(|s| s.first < sst.first);
                self.levels[level].insert(at, sst);
            }
        }
        self.stats.sst_pages_written += written;
        written
    }

    fn flush_memtable(&mut self) {
        if self.mem.is_empty() {
            return;
        }
        let mem = std::mem::take(&mut self.mem);
        let written = self.write_runs(mem.into_iter(), 0);
        self.stats.flushes += 1;
        self.events.push(KvEvent {
            op_index: self.op_index,
            action: "flush",
            level: 0,
            pages_in: 0,
            pages_out: written,
        });
    }

    /// Runs compactions until every bounded tier is back under its
    /// target and L0 is under its trigger.
    fn maintain(&mut self) {
        loop {
            if self.levels[0].len() >= self.cfg.l0_files as usize {
                // L0 runs overlap each other: all of them go down at once.
                let l0 = std::mem::take(&mut self.levels[0]);
                self.compact(l0, 1);
                continue;
            }
            let mut acted = false;
            for n in 1..self.levels.len() - 1 {
                if self.level_entries(n) > self.cfg.level_target(n as u32) {
                    self.compact_level(n);
                    acted = true;
                    break;
                }
            }
            if !acted {
                return;
            }
        }
    }

    /// Merges `upper` (overlapping runs, newest first) and `lower` (the
    /// disjoint runs of one tier, in key order) into one sorted,
    /// deduplicated entry list in a single linear pass. `lower` is
    /// concatenated into one sorted source behind `upper`, so there are
    /// at most `l0_files + 1` heads however many runs overlap; each step
    /// emits the smallest head from the earliest source that has it
    /// (the newest version) and advances every source past that key.
    fn merge(mut upper: Vec<Vec<(u64, u64)>>, lower: Vec<Vec<(u64, u64)>>) -> Vec<(u64, u64)> {
        upper.push(lower.concat());
        let mut heads: Vec<&[(u64, u64)]> = upper.iter().map(Vec::as_slice).collect();
        let mut out = Vec::with_capacity(heads.iter().map(|h| h.len()).sum());
        loop {
            // Strictly smaller only: of equal keys the earliest source stays.
            let mut min: Option<&(u64, u64)> = None;
            for head in &heads {
                if let Some(e) = head.first() {
                    if min.is_none_or(|m| e.0 < m.0) {
                        min = Some(e);
                    }
                }
            }
            let Some(&min) = min else { return out };
            out.push(min);
            for head in &mut heads {
                if head.first().is_some_and(|e| e.0 == min.0) {
                    *head = &head[1..];
                }
            }
        }
    }

    fn compact_level(&mut self, n: usize) {
        // Victim: the run at or after the round-robin cursor (wraps),
        // so compaction pressure sweeps the key space evenly.
        let cursor = self.cursors[n];
        let level = &mut self.levels[n];
        let idx = level.partition_point(|s| s.first < cursor);
        let idx = if idx >= level.len() { 0 } else { idx };
        let victim = level.remove(idx);
        self.cursors[n] = victim.last.wrapping_add(1);
        self.compact(vec![victim], n + 1);
    }

    /// Merges `upper` (runs taken off the level above, oldest first)
    /// with every overlapping run of level `into`, and writes the
    /// result back into `into`.
    fn compact(&mut self, upper: Vec<Sst>, into: usize) {
        let lo = upper.iter().map(|s| s.first).min().expect("upper has runs");
        let hi = upper.iter().map(|s| s.last).max().expect("upper has runs");
        let overlap = Self::extract_overlap(&mut self.levels[into], lo, hi);
        // The inputs' extents are all that outlives the merge; their
        // entry vectors move into it.
        let extents: Vec<(u64, u64)> = upper
            .iter()
            .chain(&overlap)
            .map(|sst| (sst.lpn, u64::from(sst.pages)))
            .collect();
        let merged = Self::merge(
            upper.into_iter().rev().map(|sst| sst.entries).collect(),
            overlap.into_iter().map(|sst| sst.entries).collect(),
        );
        let mut pages_in = 0u64;
        for &(lpn, pages) in &extents {
            pages_in += pages;
            self.emit_span(SpanKind::Read, lpn, pages);
        }
        let pages_out = self.write_runs(merged.into_iter(), into);
        for &(lpn, pages) in &extents {
            self.emit_span(SpanKind::Trim, lpn, pages);
            self.release(lpn, pages);
        }
        self.stats.compactions += 1;
        self.stats.compaction_pages_read += pages_in;
        self.stats.compaction_pages_written += pages_out;
        self.events.push(KvEvent {
            op_index: self.op_index,
            action: "compact",
            level: into as u32,
            pages_in,
            pages_out,
        });
    }

    /// Removes and returns the runs of `level` overlapping `[lo, hi]`.
    fn extract_overlap(level: &mut Vec<Sst>, lo: u64, hi: u64) -> Vec<Sst> {
        let start = level.partition_point(|s| s.last < lo);
        let mut end = start;
        while end < level.len() && level[end].first <= hi {
            end += 1;
        }
        level.drain(start..end).collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum SpanKind {
    Read,
    Write,
    Trim,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssdsim::HostOp;

    fn tiny() -> KvConfig {
        KvConfig {
            keys: 512,
            value_bytes: 1024,
            memtable_entries: 64,
            sst_entries: 64,
            l0_files: 2,
            fanout: 2,
            max_levels: 3,
            wal_pages: 8,
        }
    }

    fn free_plus_live_pages(t: &LsmTree) -> u64 {
        let free: u64 = t.free.values().sum();
        let live: u64 = t.levels.iter().flatten().map(|s| u64::from(s.pages)).sum();
        free + live
    }

    /// The merge as it was before it became a linear pass: every entry
    /// of every source, newest source first, into an ordered map that
    /// keeps the first value it sees for a key.
    fn ref_merge(sources: Vec<Vec<(u64, u64)>>) -> Vec<(u64, u64)> {
        let mut map = BTreeMap::new();
        for src in sources {
            for (k, v) in src {
                map.entry(k).or_insert(v);
            }
        }
        map.into_iter().collect()
    }

    /// A sorted, duplicate-free run over `keys` whose values carry
    /// `source`, so the output shows which source won each key.
    fn run_of(mut keys: Vec<u64>, source: u64) -> Vec<(u64, u64)> {
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|k| (k, source << 32 | k)).collect()
    }

    fn drain(t: &mut LsmTree) -> Vec<HostRequest> {
        let mut v = Vec::new();
        while let Some(r) = t.take_io() {
            v.push(r);
        }
        v
    }

    #[test]
    fn no_key_is_lost_across_flushes_and_compactions() {
        let mut t = LsmTree::new(tiny(), 4_096);
        for k in 0..512u64 {
            t.put(k * 7 % 512, false);
        }
        drain(&mut t);
        for k in 0..512u64 {
            assert!(t.get(k).is_some(), "key {k} lost");
        }
    }

    #[test]
    fn newest_version_wins() {
        let mut t = LsmTree::new(tiny(), 4_096);
        t.put(42, false);
        let v1 = t.get(42).unwrap();
        for k in 0..200u64 {
            t.put(k, false); // force flushes over key 42's runs
        }
        t.put(42, false);
        let v2 = t.get(42).unwrap();
        assert_ne!(v1, v2, "update must supersede the old version");
        // And it stays the newest across further churn.
        for k in 200..400u64 {
            t.put(k, false);
        }
        assert_eq!(t.get(42).unwrap(), v2);
    }

    #[test]
    fn bounded_levels_hold_their_targets_after_maintenance() {
        let mut t = LsmTree::new(tiny(), 8_192);
        for i in 0..6_000u64 {
            t.put(splitmix64(i) % 512, false);
            drain(&mut t);
        }
        assert!(t.level_runs(0) < t.config().l0_files as usize);
        for n in 1..t.level_count() - 1 {
            assert!(
                t.level_entries(n) <= t.level_target(n as u32),
                "level {n} over target after maintenance"
            );
        }
        assert_eq!(t.level_count(), 3, "level count is bounded");
    }

    #[test]
    fn reads_emit_probe_pages_and_writes_emit_wal_and_sst_traffic() {
        let mut t = LsmTree::new(tiny(), 4_096);
        t.begin_load();
        for k in 0..256u64 {
            t.put(k, true);
        }
        t.end_load();
        let load_io = drain(&mut t);
        assert!(
            load_io.iter().any(|r| r.op == HostOp::Write),
            "load must write SSTs"
        );
        assert_eq!(t.stats().ops, 0, "load is not measured");
        t.next_op();
        assert!(t.get(17).is_some());
        let io = drain(&mut t);
        assert!(!io.is_empty(), "post-load read must probe the device");
        assert!(io.iter().all(|r| r.op == HostOp::Read));
    }

    #[test]
    fn trims_return_extents_to_the_allocator() {
        let mut t = LsmTree::new(tiny(), 4_096);
        for i in 0..4_000u64 {
            t.put(splitmix64(i) % 512, false);
            drain(&mut t);
        }
        assert_eq!(
            free_plus_live_pages(&t),
            t.data_pages,
            "allocator leaked extents"
        );
    }

    #[test]
    fn resident_runs_hold_no_spare_capacity() {
        let mut t = LsmTree::new(tiny(), 8_192);
        for i in 0..6_000u64 {
            t.put(splitmix64(i) % 512, false);
            drain(&mut t);
        }
        for sst in t.levels.iter().flatten() {
            assert!(
                sst.entries.capacity() <= t.cfg.sst_entries as usize,
                "a run of {} entries holds room for {}",
                sst.entries.len(),
                sst.entries.capacity()
            );
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut t = LsmTree::new(tiny(), 4_096);
            let mut io = Vec::new();
            for i in 0..2_000u64 {
                t.put(splitmix64(i) % 512, false);
                t.get(splitmix64(i ^ 0xabc) % 512);
                io.extend(drain(&mut t));
            }
            (io, format!("{:?}", t.stats()))
        };
        assert_eq!(run(), run());
    }

    proptest! {
        /// The linear merge against the ordered-map merge it replaced:
        /// one to four overlapping upper runs (newest first) over zero
        /// to six disjoint lower runs, all keys below 40 so that most
        /// keys sit in several sources; single-entry runs and an empty
        /// lower tier included.
        #[test]
        fn merge_matches_the_btree_reference(
            upper_keys in prop::collection::vec(prop::collection::vec(0u64..40, 1..30), 1..5),
            lower_keys in prop::collection::vec(0u64..40, 0..40),
            lower_cuts in prop::collection::vec(1usize..9, 0..7),
        ) {
            let upper: Vec<_> = upper_keys
                .into_iter()
                .zip(0..)
                .map(|(keys, source)| run_of(keys, source))
                .collect();
            // One sorted key set cut front to back into the tier's runs.
            let tier = run_of(lower_keys, 9);
            let mut rest = tier.as_slice();
            let mut lower = Vec::new();
            for cut in lower_cuts {
                let (run, tail) = rest.split_at(cut.min(rest.len()));
                if !run.is_empty() {
                    lower.push(run.to_vec());
                }
                rest = tail;
            }
            let every_source = upper.iter().chain(&lower).cloned().collect();
            prop_assert_eq!(LsmTree::merge(upper, lower), ref_merge(every_source));
        }

        /// Every `get` returns the fingerprint of the key's last `put`
        /// through whatever flushes and compactions the sequence
        /// forces. The model recomputes the fingerprint on its own.
        #[test]
        fn every_get_returns_the_last_put(
            ops in prop::collection::vec((0u8..3, 0u64..512), 1..3_000),
        ) {
            let mut t = LsmTree::new(tiny(), 8_192);
            let mut model = BTreeMap::new();
            let mut seq = 0u64;
            // 0 = put, 1 = get, 2 = read-modify-write.
            for &(op, key) in &ops {
                if op != 0 {
                    prop_assert_eq!(t.get(key), model.get(&key).copied(), "key {}", key);
                }
                if op != 1 {
                    t.put(key, false);
                    seq += 1;
                    model.insert(key, splitmix64(key ^ seq.rotate_left(17)));
                }
                drain(&mut t);
            }
            for (&key, &fp) in &model {
                prop_assert_eq!(t.get(key), Some(fp), "key {} at the end", key);
            }
            prop_assert_eq!(free_plus_live_pages(&t), t.data_pages);
        }
    }
}
