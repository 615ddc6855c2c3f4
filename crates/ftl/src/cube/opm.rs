//! The Optimal Parameter Manager (OPM) of cubeFTL (paper §5.1).
//!
//! The OPM turns the horizontal intra-layer similarity into program and
//! read parameters:
//!
//! * From each **leader-WL program** it records the monitored
//!   `[L_min^Pi, L_max^Pi]` loop intervals and the `V_Start`/`V_Final`
//!   adjustment that `BER_EP1` affords through the offline `S_M`
//!   conversion table, and keeps them for the followers of that h-layer
//!   until the block is erased; the per-state skip counts `N_skip^Pi`
//!   follow from the intervals.
//! * For reads it maintains the **optimal read-reference table (ORT)**:
//!   the most recent working `ΔV_Ref` offset per h-layer (2 bytes per
//!   h-layer in the paper's encoding, ~0.001% space overhead).
//!
//! Both live in flat per-chip tables with a slot per h-layer of every
//! block, allocated once — the program state in 32-byte `LayerSlot`s,
//! the ORT (with the recovery quarantine flags) in a 4-byte-per-entry
//! table of its own, which is all a page read touches: every operation
//! is an index, and an erase touches one block's h-layers however large
//! the device is.

use crate::config::OrtClusterConfig;
use nand3d::config::IsppModel;
use nand3d::ispp::{margin_mv_for_spare, split_margin_mv};
use nand3d::{
    Geometry, IsppEngine, LoopInterval, ProgramParams, ProgramReport, WlAddr, MAX_OFFSET_INDEX,
    NUM_PROGRAM_STATES,
};
use std::cell::Cell;

/// Parameters monitored from a leader-WL program, ready for reuse by the
/// followers of the same h-layer. The record is what the monitor saw —
/// the loop intervals — and the window split in whole `ΔV_ISPP` steps;
/// the skip counts and the voltages are derived from them on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderParams {
    /// The raw monitored `[L_min, L_max]` intervals; the skip counts
    /// [`n_skip`](Self::n_skip) derive from them.
    pub leader_intervals: [LoopInterval; NUM_PROGRAM_STATES],
    /// `V_Start` increase, in `ΔV_ISPP` steps.
    start_steps: u8,
    /// `V_Final` decrease, in `ΔV_ISPP` steps.
    final_steps: u8,
}

impl LeaderParams {
    /// Derives the follower parameters from a leader-WL program report
    /// (§5.1): `N_skip^Pi` from the loop intervals, and the window
    /// adjustment from `BER_EP1` through the `S_M` conversion and split
    /// tables.
    fn from_report(report: &ProgramReport, engine: &IsppEngine) -> Self {
        let ispp = &IsppModel::PAPER;
        let spare = engine.spare_margin(report.ber_ep1, report.pe_cycles);
        let total_mv = margin_mv_for_spare(spare, ispp);
        // The split is whole steps of at most `max_adjust_mv`, so the
        // counts are exact and fit a byte.
        let (up_mv, down_mv) = split_margin_mv(total_mv, ispp);
        LeaderParams {
            leader_intervals: report.loop_intervals,
            start_steps: (up_mv / ispp.delta_v_ispp_mv) as u8,
            final_steps: (down_mv / ispp.delta_v_ispp_mv) as u8,
        }
    }

    /// Per-state skip counts (`N_skip^Pi = L_min^Pi − 1` in cumulative
    /// loop numbers).
    pub fn n_skip(&self) -> [u8; NUM_PROGRAM_STATES] {
        self.leader_intervals.map(|iv| iv.safe_skip())
    }

    /// `V_Start` increase, mV.
    pub fn v_start_up_mv(&self) -> f64 {
        f64::from(self.start_steps) * IsppModel::PAPER.delta_v_ispp_mv
    }

    /// `V_Final` decrease, mV.
    pub fn v_final_down_mv(&self) -> f64 {
        f64::from(self.final_steps) * IsppModel::PAPER.delta_v_ispp_mv
    }

    /// The optimized [`ProgramParams`] for a follower WL.
    pub fn to_program_params(&self) -> ProgramParams {
        ProgramParams {
            n_skip: self.n_skip(),
            v_start_up_mv: self.v_start_up_mv(),
            v_final_down_mv: self.v_final_down_mv(),
        }
    }
}

/// One h-layer's ORT entry: the last known good read offset, while
/// [`OrtSlot::PRESENT`], and the key's recovery quarantine. Four bytes,
/// in a table of their own beside the [`LayerSlot`]s, because a page
/// read needs nothing else from the OPM — neither to look its offset up
/// nor to store the decoded one back: at 256 blocks a chip's whole ORT
/// is 48 KB and stays cache-resident where the slot table (32 B per
/// h-layer) cannot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OrtSlot {
    offset: u8,
    /// [`OrtSlot::PRESENT`] and [`OrtSlot::QUARANTINED`].
    pub(crate) flags: u8,
    /// Q8.8 EWMA of the key's decoded offsets — only maintained in
    /// smoothed mode (cluster enabled), where `offset` is its rounding.
    /// Smoothing filters the per-read ±1 thermal jitter out of the
    /// cached start, so warm reads launch from the jitter-free optimum
    /// instead of chasing the previous read's jitter.
    ewma_q8: u16,
}

impl OrtSlot {
    /// `offset` (and `ewma_q8`) hold a cached entry. LRU eviction clears
    /// this bit alone.
    pub(crate) const PRESENT: u8 = 1;
    /// Excluded from cluster seeding until the next decode — set by
    /// crash recovery for torn or resumed h-layers whose pre-cut offsets
    /// are no longer trustworthy. Independent of `PRESENT`: a key keeps
    /// its quarantine through an eviction, and an erase lifts it while
    /// the offset stays.
    const QUARANTINED: u8 = 2;

    pub(crate) fn present(self) -> bool {
        self.flags & Self::PRESENT != 0
    }

    fn quarantined(self) -> bool {
        self.flags & Self::QUARANTINED != 0
    }
}

/// Everything the OPM holds about one h-layer of one block besides its
/// [`OrtSlot`]: what a program needs to know, in 32 bytes. The paper's
/// OPM is a table indexed by position (§5.1) and so is this one: a
/// chip's slots sit at `block * hlayers_per_block + h`, so every lookup
/// is an index and an erase clears one contiguous run of slots. A field
/// holds a value only while its flag is set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerSlot {
    /// Post-program BER of the last WL programmed on the h-layer
    /// (safety-check reference), while [`LayerSlot::POST_BER`].
    last_post_ber: f64,
    /// P/E cycle count of the block when `leader` was monitored — the
    /// maintenance subsystem's staleness reference for periodic
    /// re-monitoring — while [`LayerSlot::LEADER`].
    recorded_pe: u32,
    /// Leader-derived program parameters, while [`LayerSlot::LEADER`].
    /// They outlive the followers that consume them: the flag is only
    /// cleared by a safety-check invalidation or the block's erase.
    leader: LeaderParams,
    /// [`LayerSlot::LEADER`], [`LayerSlot::POST_BER`] and
    /// [`LayerSlot::DEMOTED`].
    pub(crate) flags: u8,
}

impl LayerSlot {
    /// `leader` and `recorded_pe` hold a monitor's record: the two are
    /// written together by `record_leader` and dropped together.
    pub(crate) const LEADER: u8 = 1;
    /// `last_post_ber` holds a reference. Set apart from `LEADER`
    /// because the safety check also records it on unmonitored layers.
    const POST_BER: u8 = 2;
    /// Demoted by the §4.1.4 safety check: the monitored parameters were
    /// discarded (followers fall back to conservative defaults — no VFY
    /// skips, full window) until a leader-style program re-monitors the
    /// layer.
    pub(crate) const DEMOTED: u8 = 4;

    /// No flag set: every slot of a fresh table.
    const EMPTY: LayerSlot = LayerSlot {
        last_post_ber: 0.0,
        recorded_pe: 0,
        leader: LeaderParams {
            leader_intervals: [LoopInterval { lmin: 0, lmax: 0 }; NUM_PROGRAM_STATES],
            start_steps: 0,
            final_steps: 0,
        },
        flags: 0,
    };

    pub(crate) fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// One chip's slot table, its ORT and the bookkeeping of the ORT's
/// capacity bound.
///
/// The paper sizes the ORT at ~2 bytes per h-layer of the whole device
/// (§5.1); a real controller holds it in scarce SRAM, so it is modelled
/// as a cache: at most `capacity` entries per chip are present, and
/// caching one more evicts the least recently used. A lookup miss falls
/// back to the default offset (0 — read reference unshifted). With
/// `capacity` equal to the slot count (the default) nothing is ever
/// evicted and the ORT is the paper's full table.
#[derive(Debug, Clone)]
pub(crate) struct ChipTable {
    pub(crate) slots: Vec<LayerSlot>,
    /// The ORT, indexed like `slots`. An entry describes the cells' read
    /// behaviour, not a program, so it survives the block's erase.
    pub(crate) ort: Vec<OrtSlot>,
    /// LRU stamp of each present entry, indexed like `slots` — empty
    /// unless `capacity` is below the slot count: a full table never
    /// evicts, so it keeps (and on every hit dirties) no recency at all.
    pub(crate) stamps: Vec<u64>,
    /// Indices of the present entries, in no particular order: an
    /// eviction scans these (at most `capacity`) stamps rather than the
    /// table, and their number is the entry count.
    pub(crate) cached: Vec<u32>,
    capacity: usize,
    /// Monotonic access counter, bumped by every touch of a present
    /// entry; stamps are unique per entry, so the LRU victim is
    /// unambiguous.
    tick: u64,
}

impl ChipTable {
    fn new(slots: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ChipTable {
            slots: vec![LayerSlot::EMPTY; slots],
            ort: vec![OrtSlot::default(); slots],
            stamps: vec![0; if capacity < slots { slots } else { 0 }],
            cached: Vec::new(),
            capacity,
            tick: 0,
        }
    }

    /// Marks entry `i` the most recently used (bounded tables only).
    fn touch(&mut self, i: usize) {
        if let Some(stamp) = self.stamps.get_mut(i) {
            self.tick += 1;
            *stamp = self.tick;
        }
    }

    /// Slot `i`'s cached offset, bumping the entry's recency.
    fn ort_get(&mut self, i: usize) -> Option<u8> {
        let e = self.ort[i];
        e.present().then(|| {
            self.touch(i);
            e.offset
        })
    }

    /// Inserts or refreshes slot `i`'s entry, lifting its quarantine in
    /// the same store; returns `true` when a victim was evicted to make
    /// room. In smoothed mode a refresh folds the new decode into the
    /// entry's Q8.8 EWMA (weight 1/4) and caches its rounding; otherwise
    /// the entry stores the decode verbatim.
    fn ort_insert(&mut self, i: usize, offset: u8, smooth: bool) -> bool {
        let old = self.ort[i];
        let mut fresh = OrtSlot {
            offset,
            flags: OrtSlot::PRESENT,
            ewma_q8: u16::from(offset) << 8,
        };
        if old.present() && smooth {
            let ewma = (u32::from(old.ewma_q8) * 3 + u32::from(fresh.ewma_q8)) / 4;
            fresh.offset = (((ewma + 128) >> 8) as u8).min(MAX_OFFSET_INDEX);
            fresh.ewma_q8 = ewma as u16;
        }
        let evicted = !old.present() && self.cached.len() >= self.capacity;
        if evicted {
            let stamps = &self.stamps;
            let lru = self
                .cached
                .iter_mut()
                .min_by_key(|s| stamps[**s as usize])
                .expect("capacity is at least 1");
            self.ort[*lru as usize].flags &= !OrtSlot::PRESENT;
            *lru = i as u32;
        } else if !old.present() {
            self.cached.push(i as u32);
        }
        self.ort[i] = fresh;
        self.touch(i);
        evicted
    }
}

/// The result of an ORT starting-offset lookup: the offset to issue the
/// read at, and whether it came from the cross-block h-layer cluster
/// (rather than a cached per-block entry or the cold default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetLookup {
    /// Starting `ΔV_Ref` offset for the read.
    pub offset: u8,
    /// `true` when the offset was seeded from the h-layer cluster
    /// because the block's own ORT entry was cold.
    pub seeded: bool,
}

/// Decode samples an h-layer cluster must accumulate before its average
/// seeds cold blocks: a single early outlier never seeds on its own.
const CLUSTER_MIN_SAMPLES: u32 = 2;

/// Per-chip cross-block offset cluster (§4.2.2): one exponentially
/// weighted moving average of recently decoded `ΔV_Ref` offsets per
/// h-layer, aggregated across all blocks of the chip. Horizontal process
/// similarity makes the optimal offset primarily an h-layer property, so
/// a block whose own ORT entry is cold (fresh block, LRU-evicted entry,
/// post-SPO boot) is seeded from its h-layer's cluster average instead
/// of cold-starting at offset 0.
///
/// The average is kept in Q8.8 fixed point — integer arithmetic only, so
/// the prediction is bit-deterministic and free of float rounding drift.
#[derive(Debug, Clone)]
struct OffsetCluster {
    /// EWMA of decoded offsets per h-layer, Q8.8 fixed point.
    ewma_q8: Vec<u32>,
    /// Saturating decode-sample count per h-layer.
    samples: Vec<u32>,
}

impl OffsetCluster {
    fn new(hlayers: usize) -> Self {
        OffsetCluster {
            ewma_q8: vec![0; hlayers],
            samples: vec![0; hlayers],
        }
    }

    /// Folds one decoded offset into the h-layer average (weight 1/4 for
    /// the new sample — recent decodes dominate, single outliers don't).
    fn record(&mut self, h: usize, offset: u8) {
        let x = u32::from(offset) << 8;
        self.ewma_q8[h] = if self.samples[h] == 0 {
            x
        } else {
            (self.ewma_q8[h] * 3 + x) / 4
        };
        self.samples[h] = self.samples[h].saturating_add(1);
    }

    /// The rounded cluster average for `h`, once at least
    /// [`CLUSTER_MIN_SAMPLES`] decodes have been folded in.
    fn predict(&self, h: usize) -> Option<u8> {
        (self.samples[h] >= CLUSTER_MIN_SAMPLES)
            .then(|| (((self.ewma_q8[h] + 128) >> 8) as u8).min(MAX_OFFSET_INDEX))
    }
}

/// The Optimal Parameter Manager.
#[derive(Debug, Clone)]
pub struct Opm {
    /// One slot table per chip, allocated once for the whole device.
    pub(crate) chips: Vec<ChipTable>,
    /// H-layers per block: the slot stride of one block.
    pub(crate) hlayers: usize,
    /// Slots currently holding leader parameters.
    pending: usize,
    /// Slots currently demoted.
    demoted: usize,
    /// ORT lookups served from a cached entry.
    ort_hits: u64,
    /// ORT lookups that fell back to the default offset.
    ort_misses: u64,
    /// ORT entries evicted to make room.
    ort_evictions: u64,
    /// ORT misses that fell all the way back to the default offset 0
    /// (no cached entry and no cluster seed). Counted on both the read
    /// path and the `peek_offset` prediction path — a `Cell` so the
    /// shared-reference peek can count without mutable access.
    ort_fallbacks: Cell<u64>,
    /// Cross-block offset clusters, one per chip (`None`: feature off).
    cluster: Option<Vec<OffsetCluster>>,
    /// ORT misses answered with a cluster seed.
    cluster_seeds: u64,
    /// Seeded reads whose decode confirmed the seed exactly.
    cluster_hits: u64,
    /// Seeded reads whose decode landed on a different offset.
    cluster_mispredicts: u64,
    /// Safety-check threshold: a follower whose post-program BER exceeds
    /// the previous WL's by this factor is considered improperly
    /// programmed (§4.1.4).
    safety_factor: f64,
}

impl Opm {
    /// An OPM for `chips` chips of `geometry`, with an unbounded ORT
    /// (every h-layer of every block can hold a cached offset — the
    /// paper's full-table configuration).
    pub fn new(geometry: &Geometry, chips: usize) -> Self {
        Self::with_ort_capacity(geometry, chips, usize::MAX)
    }

    /// An OPM whose per-chip ORT holds at most `ort_capacity` h-layer
    /// entries (LRU-evicted beyond that). `usize::MAX` means unbounded;
    /// the capacity is clamped to at least 1.
    pub fn with_ort_capacity(geometry: &Geometry, chips: usize, ort_capacity: usize) -> Self {
        let hlayers = usize::from(geometry.hlayers_per_block);
        let slots = geometry.blocks_per_chip as usize * hlayers;
        let capacity = ort_capacity.min(slots);
        Opm {
            chips: (0..chips)
                .map(|_| ChipTable::new(slots, capacity))
                .collect(),
            hlayers,
            pending: 0,
            demoted: 0,
            ort_hits: 0,
            ort_misses: 0,
            ort_evictions: 0,
            ort_fallbacks: Cell::new(0),
            cluster: None,
            cluster_seeds: 0,
            cluster_hits: 0,
            cluster_mispredicts: 0,
            safety_factor: 3.0,
        }
    }

    /// Enables (or disables) the cross-block offset cluster. Enabling
    /// starts from empty clusters — the feature warms up from decode
    /// traffic, exactly as it would after a power cycle.
    pub fn set_cluster(&mut self, cfg: OrtClusterConfig) {
        if cfg.enabled {
            let (chips, hlayers) = (self.chips.len(), self.hlayers);
            self.cluster = Some((0..chips).map(|_| OffsetCluster::new(hlayers)).collect());
        } else {
            self.cluster = None;
        }
        for e in self.chips.iter_mut().flat_map(|c| &mut c.ort) {
            e.flags &= !OrtSlot::QUARANTINED;
        }
    }

    /// Excludes one (block, h-layer) key on `chip` from cluster seeding
    /// until its next successful decode. Crash recovery quarantines the
    /// torn and resumed h-layers it cannot vouch for. Returns `true` if
    /// the key was newly quarantined (always `false` with the cluster
    /// off, so recovery reports stay identical to the pre-cluster ones).
    pub fn quarantine_cluster_key(&mut self, chip: usize, block: u32, h: u16) -> bool {
        if self.cluster.is_none() {
            return false;
        }
        let i = self.index(block, h);
        let e = &mut self.chips[chip].ort[i];
        let newly = !e.quarantined();
        e.flags |= OrtSlot::QUARANTINED;
        newly
    }

    /// Index of h-layer `h` of `block` in its chip's slot table.
    fn index(&self, block: u32, h: u16) -> usize {
        block as usize * self.hlayers + usize::from(h)
    }

    fn slot(&self, chip: usize, wl: WlAddr) -> &LayerSlot {
        &self.chips[chip].slots[self.index(wl.block.0, wl.h.0)]
    }

    fn slot_mut(&mut self, chip: usize, wl: WlAddr) -> &mut LayerSlot {
        let i = self.index(wl.block.0, wl.h.0);
        &mut self.chips[chip].slots[i]
    }

    /// Records a leader-WL program report and the follower parameters
    /// derived from it (§5.1).
    pub fn record_leader(
        &mut self,
        chip: usize,
        wl: WlAddr,
        report: &ProgramReport,
        engine: &IsppEngine,
    ) {
        let slot = self.slot_mut(chip, wl);
        let (was_pending, was_demoted) =
            (slot.has(LayerSlot::LEADER), slot.has(LayerSlot::DEMOTED));
        slot.leader = LeaderParams::from_report(report, engine);
        slot.last_post_ber = report.post_ber;
        slot.recorded_pe = report.pe_cycles;
        // A fresh monitor re-promotes a demoted layer (§4.1.4: the
        // re-programmed WL runs with default parameters and its report
        // becomes the new reference).
        slot.flags = LayerSlot::LEADER | LayerSlot::POST_BER;
        self.pending += usize::from(!was_pending);
        self.demoted -= usize::from(was_demoted);
    }

    /// The follower program parameters for `wl`'s h-layer, if its leader
    /// has been monitored.
    pub fn follower_params(&self, chip: usize, wl: WlAddr) -> Option<&LeaderParams> {
        let slot = self.slot(chip, wl);
        slot.has(LayerSlot::LEADER).then_some(&slot.leader)
    }

    /// Runs the §4.1.4 safety check on a just-completed WL program:
    /// compares its post-program BER against the previous WL of the same
    /// h-layer. Returns `true` if the WL must be considered improperly
    /// programmed (and the data re-programmed on the following WL).
    pub fn safety_check(&mut self, chip: usize, wl: WlAddr, report: &ProgramReport) -> bool {
        let safety_factor = self.safety_factor;
        let slot = self.slot_mut(chip, wl);
        let anomalous =
            slot.has(LayerSlot::POST_BER) && report.post_ber > slot.last_post_ber * safety_factor;
        if !anomalous {
            slot.last_post_ber = report.post_ber;
            slot.flags |= LayerSlot::POST_BER;
        }
        anomalous
    }

    /// Invalidates the monitored parameters of an h-layer (used after a
    /// safety-check failure so the next program re-monitors, and when a
    /// block is erased).
    pub fn invalidate_layer(&mut self, chip: usize, wl: WlAddr) {
        let slot = self.slot_mut(chip, wl);
        let was_pending = slot.has(LayerSlot::LEADER);
        slot.flags &= !(LayerSlot::LEADER | LayerSlot::POST_BER);
        self.pending -= usize::from(was_pending);
    }

    /// The block P/E count at the time `wl`'s h-layer parameters were
    /// monitored, if the layer currently holds monitored parameters. The
    /// maintenance subsystem compares this against the block's current
    /// P/E count to decide when re-monitoring is due.
    pub fn recorded_pe(&self, chip: usize, wl: WlAddr) -> Option<u32> {
        let slot = self.slot(chip, wl);
        slot.has(LayerSlot::LEADER).then_some(slot.recorded_pe)
    }

    /// §4.1.4 demotion: drops the h-layer's monitored VFY-skip/window
    /// parameters — followers revert to conservative
    /// `ProgramParams::default()` (no skips, full window, full MaxLoop
    /// budget) — and flags the layer until a leader-style program
    /// re-monitors it. Returns `true` if the layer was not already
    /// demoted.
    pub fn demote_layer(&mut self, chip: usize, wl: WlAddr) -> bool {
        self.invalidate_layer(chip, wl);
        let slot = self.slot_mut(chip, wl);
        let newly = !slot.has(LayerSlot::DEMOTED);
        slot.flags |= LayerSlot::DEMOTED;
        self.demoted += usize::from(newly);
        newly
    }

    /// Whether `wl`'s h-layer is currently demoted (awaiting re-monitor).
    pub fn is_demoted(&self, chip: usize, wl: WlAddr) -> bool {
        self.slot(chip, wl).has(LayerSlot::DEMOTED)
    }

    /// Number of h-layers currently demoted.
    pub fn demoted_layers(&self) -> usize {
        self.demoted
    }

    /// Drops all monitored program parameters of `block` (erase): one
    /// contiguous run of `hlayers` slots, whatever the device size. An
    /// erase also clears demotion flags — a fresh block starts clean —
    /// and recovery quarantines (in the block's run of ORT entries),
    /// which are moot once the block is re-programmed from scratch.
    /// Cached read offsets stay.
    pub fn invalidate_block(&mut self, chip: usize, block: u32) {
        let first = self.index(block, 0);
        let table = &mut self.chips[chip];
        for slot in &mut table.slots[first..first + self.hlayers] {
            self.pending -= usize::from(slot.has(LayerSlot::LEADER));
            self.demoted -= usize::from(slot.has(LayerSlot::DEMOTED));
            slot.flags = 0;
        }
        for e in &mut table.ort[first..first + self.hlayers] {
            e.flags &= !OrtSlot::QUARANTINED;
        }
    }

    /// The cluster seed for `wl`, if one is available: the cluster is
    /// enabled, the h-layer has enough decode samples, the layer is not
    /// demoted (§4.1.4 — its process behaviour is suspect) and the key
    /// is not quarantined by crash recovery.
    fn cluster_seed(&self, chip: usize, wl: WlAddr) -> Option<u8> {
        let clusters = self.cluster.as_ref()?;
        let i = self.index(wl.block.0, wl.h.0);
        let table = &self.chips[chip];
        if table.slots[i].has(LayerSlot::DEMOTED) || table.ort[i].quarantined() {
            return None;
        }
        clusters[chip].predict(usize::from(wl.h.0))
    }

    /// The starting read offset for `wl` (§4.2): the block's own cached
    /// ORT entry when warm (counts a hit, refreshes LRU recency);
    /// otherwise a cross-block cluster seed for the h-layer when
    /// available (counts a miss and a seed); otherwise the default
    /// offset 0 (counts a miss and a fallback).
    pub fn lookup_offset(&mut self, chip: usize, wl: WlAddr) -> OffsetLookup {
        let i = self.index(wl.block.0, wl.h.0);
        if let Some(offset) = self.chips[chip].ort_get(i) {
            self.ort_hits += 1;
            return OffsetLookup {
                offset,
                seeded: false,
            };
        }
        self.ort_misses += 1;
        if let Some(offset) = self.cluster_seed(chip, wl) {
            self.cluster_seeds += 1;
            return OffsetLookup {
                offset,
                seeded: true,
            };
        }
        self.ort_fallbacks.set(self.ort_fallbacks.get() + 1);
        OffsetLookup {
            offset: 0,
            seeded: false,
        }
    }

    /// The ORT entry for `wl`'s h-layer: the starting read offset for a
    /// read of any WL on that h-layer (§4.2). Counts a hit or a miss and
    /// refreshes the entry's LRU recency; a miss returns the cluster
    /// seed when one is available, else the default offset 0 (read
    /// references unshifted).
    pub fn read_offset(&mut self, chip: usize, wl: WlAddr) -> u8 {
        self.lookup_offset(chip, wl).offset
    }

    /// The starting offset for `wl` without touching the hit/miss/seed
    /// counters or the LRU recency — for latency *prediction*, which
    /// inspects the table without performing a read. Follows exactly the
    /// `lookup_offset` decision (cached entry, then cluster seed, then
    /// default) and counts a fallback when it lands on the default, so
    /// `ort_fallbacks` agrees between the read path and prediction.
    pub fn peek_offset(&self, chip: usize, wl: WlAddr) -> u8 {
        let e = self.chips[chip].ort[self.index(wl.block.0, wl.h.0)];
        if e.present() {
            return e.offset;
        }
        self.cluster_seed(chip, wl).unwrap_or_else(|| {
            self.ort_fallbacks.set(self.ort_fallbacks.get() + 1);
            0
        })
    }

    /// Scores a seeded lookup against the offset the decode actually
    /// landed on: an exact match is a cluster hit, anything else a
    /// mispredict. No-op for unseeded lookups.
    pub fn note_read_outcome(&mut self, lookup: OffsetLookup, final_offset: u8) {
        if lookup.seeded {
            if final_offset == lookup.offset {
                self.cluster_hits += 1;
            } else {
                self.cluster_mispredicts += 1;
            }
        }
    }

    /// Updates the ORT after a read decoded at `final_offset`, evicting
    /// the least recently used entry of the chip's table when full. The
    /// decode also feeds the h-layer cluster and lifts any recovery
    /// quarantine on the key — a fresh decode re-vouches for it. Writes
    /// the key's ORT entry and nothing else of the chip's tables.
    pub fn update_read_offset(&mut self, chip: usize, wl: WlAddr, final_offset: u8) {
        let smooth = self.cluster.is_some();
        let i = self.index(wl.block.0, wl.h.0);
        if self.chips[chip].ort_insert(i, final_offset, smooth) {
            self.ort_evictions += 1;
        }
        if let Some(clusters) = self.cluster.as_mut() {
            clusters[chip].record(usize::from(wl.h.0), final_offset);
        }
    }

    /// `(hits, misses, evictions)` of the ORT since the last reset.
    pub fn ort_counters(&self) -> (u64, u64, u64) {
        (self.ort_hits, self.ort_misses, self.ort_evictions)
    }

    /// ORT lookups (read path and prediction peeks) that fell back to
    /// the default offset 0 — no cached entry and no cluster seed.
    pub fn ort_fallbacks(&self) -> u64 {
        self.ort_fallbacks.get()
    }

    /// `(seeds, hits, mispredicts)` of the cross-block cluster since the
    /// last reset.
    pub fn cluster_counters(&self) -> (u64, u64, u64) {
        (
            self.cluster_seeds,
            self.cluster_hits,
            self.cluster_mispredicts,
        )
    }

    /// Resets the ORT and cluster counters (entries are kept).
    pub fn reset_ort_counters(&mut self) {
        self.ort_hits = 0;
        self.ort_misses = 0;
        self.ort_evictions = 0;
        self.ort_fallbacks.set(0);
        self.cluster_seeds = 0;
        self.cluster_hits = 0;
        self.cluster_mispredicts = 0;
    }

    /// Number of ORT entries currently cached on `chip`.
    pub fn ort_entries(&self, chip: usize) -> usize {
        self.chips[chip].cached.len()
    }

    /// Per-chip ORT capacity (h-layer entries).
    pub fn ort_capacity(&self) -> usize {
        self.chips.first().map_or(0, |c| c.capacity)
    }

    /// Number of h-layers currently holding leader parameters. They are
    /// held until the block's erase, so the count follows the written
    /// blocks, not just the active ones.
    pub fn pending_layers(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand3d::{LoopInterval, NandChip, NandConfig, WlData};
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn setup() -> (Opm, NandChip) {
        let config = NandConfig::small();
        let chip = NandChip::new(config, 3);
        let opm = Opm::new(&config.geometry, 2);
        (opm, chip)
    }

    fn report_with(post_ber: f64, pe_cycles: u32) -> ProgramReport {
        ProgramReport {
            latency_us: 700.0,
            loop_intervals: [LoopInterval { lmin: 2, lmax: 3 }; NUM_PROGRAM_STATES],
            ber_ep1: 1e-4,
            post_ber,
            pulses: 11,
            verifies: 50,
            margin_excess_loops: 0,
            disturbed: false,
            pe_cycles,
            aborted: false,
        }
    }

    #[test]
    fn leader_report_produces_follower_params() {
        let (mut opm, mut chip) = setup();
        chip.erase(nand3d::BlockId(0)).unwrap();
        let leader = chip.geometry().wl_addr(nand3d::BlockId(0), 2, 0);
        let report = chip
            .program_wl(leader, WlData::host(0), &ProgramParams::default())
            .unwrap();
        opm.record_leader(0, leader, &report, chip.ispp());

        let follower = chip.geometry().wl_addr(nand3d::BlockId(0), 2, 1);
        let params = opm.follower_params(0, follower).expect("leader recorded");
        // Skips must match the leader's observed L_min − 1.
        for (s, iv) in report.loop_intervals.iter().enumerate() {
            assert_eq!(params.n_skip()[s], iv.safe_skip());
        }
        // The window adjustment is quantized and within device limits.
        let total = params.v_start_up_mv() + params.v_final_down_mv();
        assert!(total >= 160.0, "guard step is always available");
        assert!(total <= chip.ispp().ispp_model().max_adjust_mv);
        // Different h-layer: no parameters.
        let other = chip.geometry().wl_addr(nand3d::BlockId(0), 3, 1);
        assert!(opm.follower_params(0, other).is_none());
    }

    #[test]
    fn follower_program_with_opm_params_is_faster() {
        let (mut opm, mut chip) = setup();
        chip.erase(nand3d::BlockId(1)).unwrap();
        let g = *chip.geometry();
        let leader = g.wl_addr(nand3d::BlockId(1), 4, 0);
        let report = chip
            .program_wl(leader, WlData::host(0), &ProgramParams::default())
            .unwrap();
        opm.record_leader(0, leader, &report, chip.ispp());

        let follower = g.wl_addr(nand3d::BlockId(1), 4, 2);
        let params = opm
            .follower_params(0, follower)
            .unwrap()
            .to_program_params();
        let fr = chip.program_wl(follower, WlData::host(3), &params).unwrap();
        assert!(fr.latency_us < report.latency_us * 0.85);
        // The spent window margin costs a small, bounded BER uptick —
        // spare margin traded for speed, still far below the ECC limit
        // and below the ×3 safety-check threshold.
        assert!(fr.post_ber < report.post_ber * 2.0);
        assert!(fr.post_ber < nand3d::config::ReliabilityParams::PAPER.ecc_capability_ber);
    }

    #[test]
    fn safety_check_flags_anomalies() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        let wl = g.wl_addr(nand3d::BlockId(0), 1, 0);
        let mk = |post_ber: f64| report_with(post_ber, 0);
        assert!(
            !opm.safety_check(0, wl, &mk(1e-4)),
            "first WL sets baseline"
        );
        let next = g.wl_addr(nand3d::BlockId(0), 1, 1);
        assert!(!opm.safety_check(0, next, &mk(1.5e-4)), "small growth ok");
        let bad = g.wl_addr(nand3d::BlockId(0), 1, 2);
        assert!(opm.safety_check(0, bad, &mk(9e-4)), "6x jump is anomalous");
        // The anomalous value must NOT become the new baseline.
        let after = g.wl_addr(nand3d::BlockId(0), 1, 3);
        assert!(opm.safety_check(0, after, &mk(9e-4)), "still anomalous");
    }

    #[test]
    fn demotion_resets_layer_to_conservative_until_remonitored() {
        let (mut opm, mut chip) = setup();
        chip.erase(nand3d::BlockId(0)).unwrap();
        let g = *chip.geometry();
        let leader = g.wl_addr(nand3d::BlockId(0), 2, 0);
        let report = chip
            .program_wl(leader, WlData::host(0), &ProgramParams::default())
            .unwrap();
        opm.record_leader(0, leader, &report, chip.ispp());
        let follower = g.wl_addr(nand3d::BlockId(0), 2, 3);
        assert!(opm.follower_params(0, follower).is_some());
        assert!(!opm.is_demoted(0, follower));

        // §4.1.4: demotion discards the monitored parameters — followers
        // fall back to conservative defaults — and flags the layer.
        assert!(opm.demote_layer(0, follower), "first demotion is new");
        assert!(!opm.demote_layer(0, follower), "re-demotion is idempotent");
        assert!(opm.follower_params(0, follower).is_none());
        assert!(opm.is_demoted(0, leader), "flag is per h-layer, not per WL");
        assert_eq!(opm.demoted_layers(), 1);
        // Other layers are untouched.
        assert!(!opm.is_demoted(0, g.wl_addr(nand3d::BlockId(0), 3, 0)));

        // A fresh leader-style monitor re-promotes the layer.
        let retry = g.wl_addr(nand3d::BlockId(0), 2, 1);
        let retry_report = chip
            .program_wl(retry, WlData::host(3), &ProgramParams::default())
            .unwrap();
        opm.record_leader(0, retry, &retry_report, chip.ispp());
        assert!(!opm.is_demoted(0, follower));
        assert_eq!(opm.demoted_layers(), 0);
        assert!(opm.follower_params(0, follower).is_some());
    }

    #[test]
    fn erase_clears_demotion_flags() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        let wl = g.wl_addr(nand3d::BlockId(1), 4, 2);
        opm.demote_layer(0, wl);
        let other_block = g.wl_addr(nand3d::BlockId(2), 4, 2);
        opm.demote_layer(0, other_block);
        assert_eq!(opm.demoted_layers(), 2);
        opm.invalidate_block(0, 1);
        assert_eq!(opm.demoted_layers(), 1, "only block 1's flag is cleared");
        assert!(!opm.is_demoted(0, wl));
        assert!(opm.is_demoted(0, other_block));
    }

    #[test]
    fn ort_roundtrip_and_default() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        let wl = g.wl_addr(nand3d::BlockId(3), 5, 1);
        assert_eq!(opm.read_offset(0, wl), 0, "default offset");
        opm.update_read_offset(0, wl, 4);
        // Any WL of the same h-layer sees the update.
        let peer = g.wl_addr(nand3d::BlockId(3), 5, 3);
        assert_eq!(opm.read_offset(0, peer), 4);
        // Other layers/chips/blocks unaffected.
        assert_eq!(opm.read_offset(0, g.wl_addr(nand3d::BlockId(3), 6, 0)), 0);
        assert_eq!(opm.read_offset(1, wl), 0);
        assert_eq!(opm.read_offset(0, g.wl_addr(nand3d::BlockId(2), 5, 1)), 0);
    }

    #[test]
    fn invalidate_block_drops_parameters() {
        let (mut opm, mut chip) = setup();
        chip.erase(nand3d::BlockId(0)).unwrap();
        let g = *chip.geometry();
        let leader = g.wl_addr(nand3d::BlockId(0), 0, 0);
        let report = chip
            .program_wl(leader, WlData::host(0), &ProgramParams::default())
            .unwrap();
        opm.record_leader(0, leader, &report, chip.ispp());
        assert_eq!(opm.pending_layers(), 1);
        opm.invalidate_block(0, 0);
        assert_eq!(opm.pending_layers(), 0);
        assert!(opm
            .follower_params(0, g.wl_addr(nand3d::BlockId(0), 0, 1))
            .is_none());
    }

    #[test]
    fn record_leader_stamps_monitoring_pe() {
        let (mut opm, mut chip) = setup();
        chip.erase(nand3d::BlockId(0)).unwrap();
        let g = *chip.geometry();
        let leader = g.wl_addr(nand3d::BlockId(0), 2, 0);
        let report = chip
            .program_wl(leader, WlData::host(0), &ProgramParams::default())
            .unwrap();
        opm.record_leader(0, leader, &report, chip.ispp());
        let follower = g.wl_addr(nand3d::BlockId(0), 2, 2);
        assert_eq!(opm.recorded_pe(0, follower), Some(report.pe_cycles));
        assert_eq!(
            opm.recorded_pe(0, g.wl_addr(nand3d::BlockId(0), 3, 0)),
            None,
            "unmonitored layer has no stamp"
        );
        // Invalidation (safety check or erase) clears the stamp.
        opm.invalidate_layer(0, follower);
        assert_eq!(opm.recorded_pe(0, follower), None);
    }

    #[test]
    fn ort_memory_matches_paper_overhead_estimate() {
        // §5.1: ~2 bytes per h-layer → ~10 MB for a 1-TB SSD (this
        // model's entry is 4). At full capacity the per-chip bound is
        // one entry per h-layer per block.
        let config = NandConfig::paper();
        let opm = Opm::new(&config.geometry, 8);
        let per_chip = opm.ort_capacity();
        assert_eq!(per_chip, 428 * 48);
        let bytes_total = per_chip * std::mem::size_of::<OrtSlot>() * 8;
        let ssd_bytes = config.geometry.bytes_per_chip() * 8;
        let overhead = bytes_total as f64 / ssd_bytes as f64;
        assert!(overhead < 1e-4, "ORT overhead {overhead}");
    }

    #[test]
    fn slot_size_matches_the_design_notes() {
        // DESIGN.md "OPM memory" quotes bytes per h-layer from this.
        assert_eq!(std::mem::size_of::<LayerSlot>(), 32);
    }

    #[test]
    fn ort_entry_is_four_bytes() {
        assert_eq!(std::mem::size_of::<OrtSlot>(), 4);
    }

    #[test]
    fn unbounded_ort_allocates_no_stamps() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        for block in 0..g.blocks_per_chip {
            for h in 0..g.hlayers_per_block {
                let wl = g.wl_addr(nand3d::BlockId(block), h, 0);
                opm.update_read_offset(0, wl, 2);
                assert_eq!(opm.read_offset(0, wl), 2);
            }
        }
        assert!(opm.chips.iter().all(|c| c.stamps.capacity() == 0));
        assert_eq!(opm.chips[0].tick, 0, "a full table keeps no recency");
        let bounded = Opm::with_ort_capacity(&g, 1, 4);
        assert_eq!(bounded.chips[0].stamps.len(), bounded.chips[0].slots.len());
    }

    #[test]
    fn ort_counts_hits_and_misses() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        let wl = g.wl_addr(nand3d::BlockId(0), 2, 0);
        assert_eq!(opm.read_offset(0, wl), 0, "cold table misses");
        opm.update_read_offset(0, wl, 3);
        assert_eq!(opm.read_offset(0, wl), 3, "cached entry hits");
        assert_eq!(opm.peek_offset(0, wl), 3);
        assert_eq!(opm.ort_counters(), (1, 1, 0), "peek does not count");
        opm.reset_ort_counters();
        assert_eq!(opm.ort_counters(), (0, 0, 0));
        assert_eq!(opm.ort_entries(0), 1, "reset keeps entries");
    }

    #[test]
    fn ort_capacity_evicts_least_recently_used() {
        let config = NandConfig::small();
        let g = config.geometry;
        let mut opm = Opm::with_ort_capacity(&g, 1, 2);
        let a = g.wl_addr(nand3d::BlockId(0), 0, 0);
        let b = g.wl_addr(nand3d::BlockId(0), 1, 0);
        let c = g.wl_addr(nand3d::BlockId(0), 2, 0);
        opm.update_read_offset(0, a, 1);
        opm.update_read_offset(0, b, 2);
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(opm.read_offset(0, a), 1);
        opm.update_read_offset(0, c, 3);
        assert_eq!(opm.ort_counters().2, 1, "one eviction");
        assert_eq!(opm.ort_entries(0), 2);
        assert_eq!(opm.peek_offset(0, a), 1, "recently used survives");
        assert_eq!(opm.peek_offset(0, c), 3, "new entry cached");
        assert_eq!(opm.read_offset(0, b), 0, "LRU victim falls to default");
    }

    #[test]
    fn unbounded_ort_never_evicts() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        for block in 0..g.blocks_per_chip {
            for h in 0..g.hlayers_per_block {
                opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(block), h, 0), 1);
            }
        }
        assert_eq!(opm.ort_counters().2, 0, "full table fits at capacity");
        assert_eq!(
            opm.ort_entries(0),
            g.blocks_per_chip as usize * usize::from(g.hlayers_per_block)
        );
    }

    #[test]
    fn cluster_seeds_cold_lookup_from_hlayer_average() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        opm.set_cluster(OrtClusterConfig::on());
        // Two blocks decode their h-layer 5 at offset 4.
        opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(0), 5, 0), 4);
        opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(1), 5, 1), 4);
        // A third block with no ORT entry is seeded from the cluster.
        let cold = g.wl_addr(nand3d::BlockId(2), 5, 0);
        let lookup = opm.lookup_offset(0, cold);
        assert_eq!(
            lookup,
            OffsetLookup {
                offset: 4,
                seeded: true
            }
        );
        assert_eq!(opm.peek_offset(0, cold), 4, "peek follows the same path");
        // A different h-layer has no samples: default fallback.
        let other = opm.lookup_offset(0, g.wl_addr(nand3d::BlockId(2), 6, 0));
        assert_eq!(
            other,
            OffsetLookup {
                offset: 0,
                seeded: false
            }
        );
        let (seeds, _, _) = opm.cluster_counters();
        assert_eq!(seeds, 1);
        assert_eq!(opm.ort_fallbacks(), 1, "only the unseeded miss fell back");
        // Other chips keep their own cluster.
        assert_eq!(opm.read_offset(1, cold), 0);
    }

    #[test]
    fn cluster_needs_min_samples_before_seeding() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        opm.set_cluster(OrtClusterConfig::on());
        opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(0), 2, 0), 5);
        let cold = g.wl_addr(nand3d::BlockId(2), 2, 0);
        assert_eq!(opm.read_offset(0, cold), 0, "one sample < threshold 2");
        opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(1), 2, 0), 5);
        assert_eq!(opm.read_offset(0, cold), 5, "second sample arms the seed");
    }

    #[test]
    fn cluster_respects_quarantine_and_demotion() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        opm.set_cluster(OrtClusterConfig::on());
        opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(0), 4, 0), 3);
        opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(3), 4, 0), 3);

        // Crash recovery quarantines block 1's h-layer 4: no seed.
        assert!(opm.quarantine_cluster_key(0, 1, 4));
        assert!(!opm.quarantine_cluster_key(0, 1, 4), "already quarantined");
        let cold = g.wl_addr(nand3d::BlockId(1), 4, 0);
        assert_eq!(opm.read_offset(0, cold), 0, "quarantined key not seeded");
        // A successful decode lifts the quarantine.
        opm.update_read_offset(0, cold, 3);
        assert_eq!(opm.read_offset(0, g.wl_addr(nand3d::BlockId(1), 4, 1)), 3);

        // §4.1.4 demotion suppresses seeding for the suspect layer.
        let suspect = g.wl_addr(nand3d::BlockId(2), 4, 0);
        opm.demote_layer(0, suspect);
        let lookup = opm.lookup_offset(0, suspect);
        assert!(!lookup.seeded, "demoted layer is not seeded");
        assert_eq!(lookup.offset, 0);
    }

    #[test]
    fn quarantine_is_noop_with_cluster_off() {
        let (mut opm, _chip) = setup();
        assert!(
            !opm.quarantine_cluster_key(0, 1, 4),
            "cluster off: nothing to quarantine, recovery reports unchanged"
        );
        // Erase clears any quarantine for the block.
        opm.set_cluster(OrtClusterConfig::on());
        assert!(opm.quarantine_cluster_key(0, 1, 4));
        opm.invalidate_block(0, 1);
        assert!(opm.quarantine_cluster_key(0, 1, 4), "erase cleared the key");
    }

    #[test]
    fn quarantine_outlives_eviction_and_erase_keeps_offsets() {
        let g = NandConfig::small().geometry;
        let mut opm = Opm::with_ort_capacity(&g, 1, 1);
        opm.set_cluster(OrtClusterConfig::on());
        let suspect = g.wl_addr(nand3d::BlockId(1), 4, 0);
        let other = g.wl_addr(nand3d::BlockId(0), 4, 0);
        opm.update_read_offset(0, suspect, 5);
        assert!(opm.quarantine_cluster_key(0, 1, 4));
        // The one-entry table evicts the suspect key's offset...
        opm.update_read_offset(0, other, 5);
        assert_eq!(opm.ort_counters().2, 1);
        // ...but not its quarantine: the cold lookup is still not seeded.
        let cold = opm.lookup_offset(0, suspect);
        assert_eq!(
            cold,
            OffsetLookup {
                offset: 0,
                seeded: false
            }
        );
        assert!(!opm.quarantine_cluster_key(0, 1, 4), "still quarantined");
        // An erase lifts the quarantine: the h-layer's cluster seeds it.
        opm.invalidate_block(0, 1);
        assert!(opm.lookup_offset(0, suspect).seeded);
        // A quarantined key with a cached offset: the erase lifts the
        // quarantine and leaves the offset.
        assert!(opm.quarantine_cluster_key(0, 0, 4));
        opm.invalidate_block(0, 0);
        assert_eq!(
            opm.lookup_offset(0, other),
            OffsetLookup {
                offset: 5,
                seeded: false
            },
            "the ORT entry survives (a hit, not a cluster seed)"
        );
        assert!(opm.quarantine_cluster_key(0, 0, 4), "erase cleared the key");
    }

    #[test]
    fn smoothed_ort_filters_read_jitter() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        let wl = g.wl_addr(nand3d::BlockId(0), 3, 0);
        // Cluster off: the last decode wins verbatim.
        opm.update_read_offset(0, wl, 4);
        opm.update_read_offset(0, wl, 5);
        assert_eq!(opm.read_offset(0, wl), 5);

        // Cluster on: jittering decodes around 4 are averaged away, so
        // the warm start stays at the jitter-free optimum.
        opm.set_cluster(OrtClusterConfig::on());
        let jittery = g.wl_addr(nand3d::BlockId(1), 3, 0);
        for &o in &[4u8, 5, 4, 3, 4, 5, 4, 3] {
            opm.update_read_offset(0, jittery, o);
        }
        assert_eq!(opm.read_offset(0, jittery), 4);
    }

    #[test]
    fn cluster_counters_score_seeded_outcomes() {
        let (mut opm, chip) = setup();
        let g = *chip.geometry();
        opm.set_cluster(OrtClusterConfig::on());
        opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(0), 1, 0), 2);
        opm.update_read_offset(0, g.wl_addr(nand3d::BlockId(2), 1, 0), 2);
        let cold = g.wl_addr(nand3d::BlockId(1), 1, 0);
        let lookup = opm.lookup_offset(0, cold);
        assert!(lookup.seeded);
        opm.note_read_outcome(lookup, 2);
        opm.note_read_outcome(lookup, 3);
        let unseeded = OffsetLookup {
            offset: 0,
            seeded: false,
        };
        opm.note_read_outcome(unseeded, 7);
        assert_eq!(opm.cluster_counters(), (1, 1, 1));
        opm.reset_ort_counters();
        assert_eq!(opm.cluster_counters(), (0, 0, 0));
        assert_eq!(opm.ort_fallbacks(), 0);
    }

    type Key = (usize, u32, u16);

    /// The reference's ORT entry: one cached `ΔV_Ref` offset, its Q8.8
    /// EWMA and its LRU stamp, as the table held them before the ORT
    /// became [`OrtSlot`]s beside the slots.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct OrtEntry {
        offset: u8,
        ewma_q8: u16,
        stamp: u64,
    }

    /// [`LeaderParams`] as the 88-byte slot stored it — every field a
    /// value of its own — with its derivation, verbatim: the reference
    /// the stored record is compared against bit for bit.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct RefLeaderParams {
        n_skip: [u8; NUM_PROGRAM_STATES],
        leader_intervals: [LoopInterval; NUM_PROGRAM_STATES],
        v_start_up_mv: f64,
        v_final_down_mv: f64,
        leader_post_ber: f64,
    }

    impl RefLeaderParams {
        fn from_report(report: &ProgramReport, engine: &IsppEngine) -> Self {
            let mut n_skip = [0u8; NUM_PROGRAM_STATES];
            for (s, iv) in report.loop_intervals.iter().enumerate() {
                n_skip[s] = iv.safe_skip();
            }
            let spare = engine.spare_margin(report.ber_ep1, report.pe_cycles);
            let total_mv = margin_mv_for_spare(spare, engine.ispp_model());
            let (v_start_up_mv, v_final_down_mv) = split_margin_mv(total_mv, engine.ispp_model());
            RefLeaderParams {
                n_skip,
                leader_intervals: report.loop_intervals,
                v_start_up_mv,
                v_final_down_mv,
                leader_post_ber: report.post_ber,
            }
        }

        fn to_program_params(self) -> ProgramParams {
            ProgramParams {
                n_skip: self.n_skip,
                v_start_up_mv: self.v_start_up_mv,
                v_final_down_mv: self.v_final_down_mv,
            }
        }
    }

    /// A [`ProgramParams`] with its voltages as bits: `0.0` and `-0.0`,
    /// or two roundings of one voltage, compare unequal.
    fn param_bits(p: &ProgramParams) -> ([u8; NUM_PROGRAM_STATES], u64, u64) {
        (
            p.n_skip,
            p.v_start_up_mv.to_bits(),
            p.v_final_down_mv.to_bits(),
        )
    }

    /// What the referee draws for one leader-WL program report: per-state
    /// `(L_min, L_max − L_min)` pairs, `BER_EP1` and the P/E count (which
    /// together reach both window splits, see
    /// `drawn_reports_reach_both_window_splits`), and the post-program
    /// BER's relation to the h-layer's last one: `0..=4` draws
    /// `1e-4 × 4^k` afresh, `5` exactly three times the last (the safety
    /// threshold, not anomalous) and `6` the next `f64` above that
    /// (anomalous).
    type ReportDraw = (Vec<(u8, u8)>, f64, u32, u8);

    fn report_draw() -> impl Strategy<Value = ReportDraw> {
        (
            prop::collection::vec((1u8..9, 0u8..4), NUM_PROGRAM_STATES..NUM_PROGRAM_STATES + 1),
            5e-5..3e-4,
            0u32..3000,
            0u8..7,
        )
    }

    /// The report `draw` describes, given the h-layer's last accepted
    /// post-program BER (`1e-4` stands in for a layer without one).
    fn drawn_report(draw: &ReportDraw, last_post_ber: Option<f64>) -> ProgramReport {
        let (states, ber_ep1, pe_cycles, post) = draw;
        let mut loop_intervals = [LoopInterval { lmin: 1, lmax: 1 }; NUM_PROGRAM_STATES];
        for (iv, &(lmin, width)) in loop_intervals.iter_mut().zip(states) {
            *iv = LoopInterval {
                lmin,
                lmax: lmin + width,
            };
        }
        let threshold = last_post_ber.unwrap_or(1e-4) * 3.0;
        let post_ber = match post {
            5 => threshold,
            6 => threshold.next_up(),
            k => 1e-4 * 4f64.powi(i32::from(*k)),
        };
        ProgramReport {
            loop_intervals,
            ber_ep1: *ber_ep1,
            ..report_with(post_ber, *pe_cycles)
        }
    }

    #[test]
    fn drawn_reports_reach_both_window_splits() {
        // `margin_mv_for_spare` grants one guard step and at most two
        // (`max_adjust_mv` is 320 mV), so the split is 160/0 or 160/160
        // mV; the draw's corners must reach both, or the referee could
        // not tell a slot that drops the V_Final step.
        let chip = NandChip::new(NandConfig::small(), 3);
        let mut splits = HashSet::new();
        for ber_ep1 in [5e-5, 1e-4, 2e-4, 3e-4] {
            for pe in [0, 1000, 2999] {
                let draw = (vec![(2, 1); NUM_PROGRAM_STATES], ber_ep1, pe, 0);
                let p = RefLeaderParams::from_report(&drawn_report(&draw, None), chip.ispp());
                splits.insert((p.v_start_up_mv.to_bits(), p.v_final_down_mv.to_bits()));
            }
        }
        let want: HashSet<_> = [(160.0f64, 0.0f64), (160.0, 160.0)]
            .map(|(up, down)| (up.to_bits(), down.to_bits()))
            .into();
        assert_eq!(splits, want);
    }

    /// The OPM as it was before the slot table — one hash container per
    /// field keyed by `(chip, block, h)`, erase by `retain`, LRU victim
    /// by a scan for the minimum stamp — kept as the reference the table
    /// is compared against.
    #[derive(Default)]
    struct RefOpm {
        leader: HashMap<Key, RefLeaderParams>,
        last_post_ber: HashMap<Key, f64>,
        recorded_pe: HashMap<Key, u32>,
        demoted: HashSet<Key>,
        quarantine: HashSet<Key>,
        ort: HashMap<Key, OrtEntry>,
        tick: [u64; 2],
        capacity: usize,
        cluster: Option<Vec<OffsetCluster>>,
        /// hits, misses, evictions, seeds, cluster hits, mispredicts.
        counters: [u64; 6],
        fallbacks: Cell<u64>,
    }

    impl RefOpm {
        fn record_leader(&mut self, key: Key, report: &ProgramReport, engine: &IsppEngine) {
            self.leader
                .insert(key, RefLeaderParams::from_report(report, engine));
            self.last_post_ber.insert(key, report.post_ber);
            self.recorded_pe.insert(key, report.pe_cycles);
            self.demoted.remove(&key);
        }

        fn safety_check(&mut self, key: Key, report: &ProgramReport) -> bool {
            let anomalous = self
                .last_post_ber
                .get(&key)
                .is_some_and(|prev| report.post_ber > prev * 3.0);
            if !anomalous {
                self.last_post_ber.insert(key, report.post_ber);
            }
            anomalous
        }

        fn invalidate_layer(&mut self, key: Key) {
            self.leader.remove(&key);
            self.last_post_ber.remove(&key);
            self.recorded_pe.remove(&key);
        }

        fn demote_layer(&mut self, key: Key) -> bool {
            self.invalidate_layer(key);
            self.demoted.insert(key)
        }

        fn invalidate_block(&mut self, chip: usize, block: u32) {
            let keep = |k: &Key| !(k.0 == chip && k.1 == block);
            self.leader.retain(|k, _| keep(k));
            self.last_post_ber.retain(|k, _| keep(k));
            self.recorded_pe.retain(|k, _| keep(k));
            self.demoted.retain(keep);
            self.quarantine.retain(keep);
        }

        fn quarantine_cluster_key(&mut self, key: Key) -> bool {
            self.cluster.is_some() && self.quarantine.insert(key)
        }

        fn cluster_seed(&self, key: Key) -> Option<u8> {
            let clusters = self.cluster.as_ref()?;
            if self.demoted.contains(&key) || self.quarantine.contains(&key) {
                return None;
            }
            clusters[key.0].predict(usize::from(key.2))
        }

        fn lookup_offset(&mut self, key: Key) -> OffsetLookup {
            self.tick[key.0] += 1;
            if let Some(e) = self.ort.get_mut(&key) {
                e.stamp = self.tick[key.0];
                self.counters[0] += 1;
                return OffsetLookup {
                    offset: e.offset,
                    seeded: false,
                };
            }
            self.counters[1] += 1;
            let seed = self.cluster_seed(key);
            match seed {
                Some(_) => self.counters[3] += 1,
                None => self.fallbacks.set(self.fallbacks.get() + 1),
            }
            OffsetLookup {
                offset: seed.unwrap_or(0),
                seeded: seed.is_some(),
            }
        }

        fn peek_offset(&self, key: Key) -> u8 {
            match self.ort.get(&key) {
                Some(e) => e.offset,
                None => self.cluster_seed(key).unwrap_or_else(|| {
                    self.fallbacks.set(self.fallbacks.get() + 1);
                    0
                }),
            }
        }

        fn note_read_outcome(&mut self, lookup: OffsetLookup, final_offset: u8) {
            if lookup.seeded {
                self.counters[if final_offset == lookup.offset { 4 } else { 5 }] += 1;
            }
        }

        fn update_read_offset(&mut self, key: Key, offset: u8) {
            self.tick[key.0] += 1;
            let stamp = self.tick[key.0];
            let mut fresh = OrtEntry {
                offset,
                ewma_q8: u16::from(offset) << 8,
                stamp,
            };
            if let Some(e) = self.ort.get(&key) {
                if self.cluster.is_some() {
                    let ewma = (u32::from(e.ewma_q8) * 3 + u32::from(fresh.ewma_q8)) / 4;
                    fresh.offset = (((ewma + 128) >> 8) as u8).min(MAX_OFFSET_INDEX);
                    fresh.ewma_q8 = ewma as u16;
                }
            } else if self.ort_entries(key.0) >= self.capacity {
                let victim = *self
                    .ort
                    .iter()
                    .filter(|(k, _)| k.0 == key.0)
                    .min_by_key(|(_, e)| e.stamp)
                    .expect("full cache has a victim")
                    .0;
                self.ort.remove(&victim);
                self.counters[2] += 1;
            }
            self.ort.insert(key, fresh);
            if let Some(clusters) = self.cluster.as_mut() {
                clusters[key.0].record(usize::from(key.2), offset);
            }
            self.quarantine.remove(&key);
        }

        fn ort_entries(&self, chip: usize) -> usize {
            self.ort.keys().filter(|k| k.0 == chip).count()
        }
    }

    proptest! {
        /// The slot table against the hash-map OPM it replaced: random
        /// operation sequences, cluster on and off, ORT capacities 1, 4
        /// and the full table. Every return value and every counter must
        /// agree after every step — which, for the bounded capacities,
        /// pins the LRU victim — and the follower parameters and their
        /// intervals bit for bit. Reports draw their intervals, both
        /// window splits, and post-BERs on both sides of the ×3 safety
        /// threshold.
        #[test]
        fn slot_table_matches_the_hash_map_opm(
            ops in prop::collection::vec(
                ((0u8..14, 0usize..2, 0u32..4, 0u16..6, 0u8..8), report_draw()),
                1..300,
            ),
        ) {
            let g = Geometry {
                blocks_per_chip: 4,
                hlayers_per_block: 6,
                wls_per_hlayer: 3,
                pages_per_wl: 3,
                page_size: 16 * 1024,
            };
            let chip = NandChip::new(NandConfig::small(), 3);
            let engine = chip.ispp();
            for (cluster_on, capacity) in [false, true]
                .into_iter()
                .flat_map(|c| [1, 4, usize::MAX].map(|cap| (c, cap)))
            {
                let mut opm = Opm::with_ort_capacity(&g, 2, capacity);
                opm.set_cluster(OrtClusterConfig { enabled: cluster_on });
                let mut reference = RefOpm {
                    capacity: capacity.min(4 * 6),
                    cluster: cluster_on.then(|| vec![OffsetCluster::new(6); 2]),
                    ..RefOpm::default()
                };
                for ((op, chip, block, h, offset), draw) in &ops {
                    let (op, chip, block, h, offset) = (*op, *chip, *block, *h, *offset);
                    let wl = g.wl_addr(nand3d::BlockId(block), h, 0);
                    let key = (chip, block, h);
                    let report = drawn_report(draw, reference.last_post_ber.get(&key).copied());
                    match op {
                        0 | 1 => {
                            opm.record_leader(chip, wl, &report, engine);
                            reference.record_leader(key, &report, engine);
                        }
                        2 | 3 => prop_assert_eq!(
                            opm.safety_check(chip, wl, &report),
                            reference.safety_check(key, &report)
                        ),
                        4 => prop_assert_eq!(
                            opm.demote_layer(chip, wl),
                            reference.demote_layer(key)
                        ),
                        5 => {
                            opm.invalidate_layer(chip, wl);
                            reference.invalidate_layer(key);
                        }
                        6 => {
                            opm.invalidate_block(chip, block);
                            reference.invalidate_block(chip, block);
                        }
                        7 | 8 => {
                            let lookup = opm.lookup_offset(chip, wl);
                            prop_assert_eq!(lookup, reference.lookup_offset(key));
                            opm.note_read_outcome(lookup, offset);
                            reference.note_read_outcome(lookup, offset);
                        }
                        9 => prop_assert_eq!(
                            opm.peek_offset(chip, wl),
                            reference.peek_offset(key)
                        ),
                        10..=12 => {
                            opm.update_read_offset(chip, wl, offset);
                            reference.update_read_offset(key, offset);
                        }
                        _ => prop_assert_eq!(
                            opm.quarantine_cluster_key(chip, block, h),
                            reference.quarantine_cluster_key(key)
                        ),
                    }
                    let got = opm.follower_params(chip, wl);
                    let want = reference.leader.get(&key);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        prop_assert_eq!(got.leader_intervals, want.leader_intervals);
                        prop_assert_eq!(
                            param_bits(&got.to_program_params()),
                            param_bits(&want.to_program_params())
                        );
                    }
                    prop_assert_eq!(
                        opm.recorded_pe(chip, wl),
                        reference.recorded_pe.get(&key).copied()
                    );
                    prop_assert_eq!(opm.is_demoted(chip, wl), reference.demoted.contains(&key));
                    let c = reference.counters;
                    prop_assert_eq!(opm.ort_counters(), (c[0], c[1], c[2]));
                    prop_assert_eq!(opm.cluster_counters(), (c[3], c[4], c[5]));
                    prop_assert_eq!(opm.ort_fallbacks(), reference.fallbacks.get());
                    prop_assert_eq!(opm.pending_layers(), reference.leader.len());
                    prop_assert_eq!(opm.demoted_layers(), reference.demoted.len());
                    for chip in 0..2 {
                        prop_assert_eq!(opm.ort_entries(chip), reference.ort_entries(chip));
                    }
                }
            }
        }
    }
}
