//! The interface between the simulator and a flash translation layer.
//!
//! The simulator owns time, queueing and the write buffer; the FTL owns
//! placement, mapping, NAND parameter selection and garbage collection.
//! Each call hands the FTL a chip to place data on (the simulator picks
//! an idle chip to maximize parallelism) plus a [`HostContext`] carrying
//! the write-buffer utilization `μ` that cubeFTL's WL allocation manager
//! consumes (§5.2).

/// Per-call context the simulator passes to the FTL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostContext {
    /// Write-buffer utilization `μ` in `[0, 1]` at dispatch time.
    pub buffer_utilization: f64,
    /// Simulated time in µs.
    pub now_us: f64,
}

/// Result of asking the FTL to program one WL worth of host pages.
///
/// A write that ran the foreground GC floor first is a *floor flush*:
/// the simulator runs its `nand_us` as `gc_wls + 1` equal steps, the WL
/// program last, and cuts it at the next step boundary once a host read
/// queues on its chip, as it cuts a GC unit ([`MaintWork`]). The FTL
/// has applied the whole write, GC included, when it returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WlWrite {
    /// NAND time the chip is busy for this write, µs: any GC the FTL ran
    /// first, plus the WL program itself (and a §4.1.4 re-program if the
    /// safety check fired).
    pub nand_us: f64,
    /// Whether a garbage collection ran as part of this write (it erased
    /// a victim).
    pub did_gc: bool,
    /// WLs that garbage collection programmed (0 without one): the GC
    /// steps of a floor flush.
    pub gc_wls: u32,
    /// Whether the WL was a (slow) leader WL (`false` = follower).
    pub leader: bool,
}

/// Result of asking the FTL to perform one unit of background work
/// (a garbage-collection unit, or a maintenance service: retention
/// scrub, wear-level migration, OPM re-monitor) on an idle chip.
///
/// The FTL applies the whole unit when it returns it; the simulator
/// only schedules its chip time. A GC unit's time is `wls` equal steps,
/// and the simulator cuts it at the next step boundary once a host read
/// queues on its chip: the reads run, then the rest of the unit (which
/// can be cut again). A floor flush ([`WlWrite::gc_wls`]) yields by the
/// same rule; every other unit runs whole (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintWork {
    /// NAND time the chip is busy with the background operation, µs.
    /// Background data moves stay on-chip (copy-back style), so the
    /// simulator charges no bus transfer for them.
    pub nand_us: f64,
    /// Whether the unit collected garbage (counted in
    /// [`ChipStats::gc_units`](crate::ChipStats)) rather than ran a
    /// maintenance service (counted in `maint_ops`).
    pub gc: bool,
    /// WLs the unit programmed when it continued the chip's in-flight
    /// migration (0 for a maintenance service's own unit): a GC unit's
    /// `nand_us` is this many equal steps, and it may yield to a host
    /// read at the boundary between two.
    pub wls: u32,
}

/// Result of asking the FTL to read one logical page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRead {
    /// Chip holding the mapped physical page.
    pub chip: usize,
    /// NAND time for the read, including read retries, µs.
    pub nand_us: f64,
    /// Number of read retries the NAND performed (`NumRetry`).
    pub retries: u32,
}

/// Declares [`FtlStats`] from the one list of its counters: the struct
/// (every field a `u64`), [`FtlStats::accumulate`] and
/// [`FtlStats::register_metrics`] (metric name = field name).
macro_rules! ftl_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// FTL-internal counters, reported alongside the simulator's own
        /// statistics.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct FtlStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl FtlStats {
            /// Adds every counter of `other` — the array front-end merges
            /// per-shard stats this way, in shard order.
            pub fn accumulate(&mut self, other: &FtlStats) {
                $(self.$name += other.$name;)*
            }

            /// Registers every counter under `prefix` (e.g. `ftl.gc_runs`).
            pub fn register_metrics(&self, reg: &mut telemetry::MetricRegistry, prefix: &str) {
                $(reg.counter(&format!("{prefix}.{}", stringify!($name)), self.$name);)*
            }
        }
    };
}

ftl_stats! {
    /// Host WLs programmed.
    host_wl_programs,
    /// WLs programmed on the fast follower path.
    follower_wl_programs,
    /// Garbage collections run.
    gc_runs,
    /// Valid pages migrated by GC.
    gc_page_moves,
    /// Blocks erased.
    erases,
    /// Total read retries observed.
    read_retries,
    /// Page reads served from NAND.
    nand_reads,
    /// §4.1.4 safety-check re-programs.
    safety_reprograms,
    /// §4.1.4 h-layer demotions: monitored parameters discarded and the
    /// layer held at conservative defaults until re-monitored.
    safety_demotions,
    /// Program suspend/abort events recovered by re-issuing the data on
    /// the next WL.
    program_aborts,
    /// Reads recovered from a stale cached `ΔV_Ref` (ORT refreshed).
    stuck_retry_recoveries,
    /// Reads recovered from an uncorrectable first attempt via a full
    /// offset scan.
    uncorrectable_recoveries,
    /// Host TRIMs applied (pages unmapped).
    host_trims,
    /// Blocks refreshed (migrated and erased) by the retention scrubber.
    scrub_blocks,
    /// Valid pages migrated by the retention scrubber.
    scrub_page_moves,
    /// Leader-WL sample reads issued by the scrubber to probe block BER.
    scrub_sample_reads,
    /// H-layers re-monitored by the periodic OPM refresh service.
    remonitored_layers,
    /// Valid pages migrated by the wear-leveling service.
    wear_level_moves,
    /// ORT lookups answered by a cached per-h-layer `ΔV_Ref` entry.
    ort_hits,
    /// ORT lookups that found no cached entry (the read starts from the
    /// default offset).
    ort_misses,
    /// ORT entries evicted by the capacity-bounded LRU.
    ort_evictions,
    /// ORT lookups (read path and prediction peeks) that fell all the
    /// way back to the default offset 0 — no cached entry and no
    /// cross-block cluster seed.
    ort_fallbacks,
    /// ORT misses answered by the cross-block h-layer offset cluster.
    cluster_seeds,
    /// Cluster-seeded reads whose decode confirmed the seed exactly.
    cluster_hits,
    /// Cluster-seeded reads whose decode landed on a different offset.
    cluster_mispredicts,
    /// Host reads whose hopeless retry chain was cut short (seeded walk
    /// abandoned for the default schedule, or a shortened full scan).
    early_terminations,
    /// Metadata pages programmed into the reserved checkpoint region by
    /// L2P checkpoint flushes — real NAND wear, counted into total
    /// write amplification.
    ckpt_page_programs,
    /// Checkpoint-region block erases (the region is a ring: a block is
    /// recycled whenever cumulative checkpoint pages fill one).
    ckpt_erases,
    /// The host's share of `nand_reads`: page reads for host requests
    /// (a rebuild's survivor reads included) — the paper's NumRetry
    /// denominator. GC's share is `nand_reads - host_nand_reads`.
    host_nand_reads,
    /// The host's share of `read_retries`.
    host_read_retries,
    /// Page reads of maintenance migrations (scrub and wear-level
    /// refreshes, the PLP replay), counted in neither `nand_reads` nor
    /// `host_nand_reads`; the scrubber's sample reads are
    /// `scrub_sample_reads`.
    maint_nand_reads,
    /// Read retries of `maint_nand_reads`.
    maint_read_retries,
}

impl FtlStats {
    /// Total fault-recovery actions taken (safety re-programs and
    /// demotions, abort re-issues, and faulted-read recoveries).
    pub fn recovery_actions(&self) -> u64 {
        self.safety_reprograms
            + self.safety_demotions
            + self.program_aborts
            + self.stuck_retry_recoveries
            + self.uncorrectable_recoveries
    }

    /// NAND pages written by background maintenance (scrub and
    /// wear-level migrations).
    pub fn maint_page_moves(&self) -> u64 {
        self.scrub_page_moves + self.wear_level_moves
    }

    /// Host-attributed write amplification: NAND pages programmed on
    /// behalf of host traffic (host WLs + host-triggered GC migrations +
    /// safety re-programs) per host page written. `None` when nothing
    /// was written.
    pub fn wa_host(&self) -> Option<f64> {
        self.wa(0)
    }

    /// Total write amplification: background maintenance (scrub and
    /// wear-level migrations) and
    /// checkpoint-region metadata programs on top of the
    /// host-attributed pages. `wa_total == wa_host` when maintenance
    /// and checkpointing are off.
    pub fn wa_total(&self) -> Option<f64> {
        self.wa(self.maint_page_moves() + self.ckpt_page_programs)
    }

    /// NAND pages programmed for the host plus `background_pages`, per
    /// host page written (three pages per WL).
    fn wa(&self, background_pages: u64) -> Option<f64> {
        let host_pages = self.host_wl_programs * 3;
        let nand_pages = (self.host_wl_programs + self.safety_reprograms + self.program_aborts) * 3
            + self.gc_page_moves
            + background_pages;
        (host_pages > 0).then(|| nand_pages as f64 / host_pages as f64)
    }

    /// Total background maintenance actions (block scrubs, wear-level
    /// migrations and OPM re-monitors) — the CLI's background-op count.
    pub fn maint_actions(&self) -> u64 {
        self.scrub_blocks + self.wear_level_moves + self.remonitored_layers
    }

    /// Fraction of ORT lookups served from the table, or `None` when no
    /// lookup happened.
    pub fn ort_hit_rate(&self) -> Option<f64> {
        let total = self.ort_hits + self.ort_misses;
        (total > 0).then(|| self.ort_hits as f64 / total as f64)
    }
}

/// A flash translation layer drivable by [`SsdSim`](crate::SsdSim).
///
/// Implementations must always succeed on writes — running garbage
/// collection internally when space runs out — and may return `None` from
/// [`FtlDriver::read_page`] only for logical pages that were never
/// written.
pub trait FtlDriver {
    /// Programs up to one WL (3 pages) of host data on `chip`. Entries in
    /// `lpns` may be padded with `u64::MAX` when fewer than 3 pages are
    /// flushed.
    fn write_wl(&mut self, chip: usize, lpns: [u64; 3], ctx: &HostContext) -> WlWrite;

    /// Reads the current mapping of `lpn`. Returns `None` if the page was
    /// never written.
    fn read_page(&mut self, lpn: u64, ctx: &HostContext) -> Option<PageRead>;

    /// Whether `chip` can take a buffer flush now: the simulator places
    /// flushes by queue length and asks before it picks a chip, so that
    /// a chip already holding all the data its blocks can carry is
    /// passed over instead of overfilled. Default: always.
    fn accepts_flush(&self, chip: usize) -> bool {
        let _ = chip;
        true
    }

    /// Invalidate a logical page (TRIM). Default: ignored.
    fn trim(&mut self, lpn: u64) {
        let _ = lpn;
    }

    /// The one background hook: performs one bounded unit of background
    /// work on an idle `chip` — a garbage-collection unit while its free
    /// pool is low, else a maintenance service unit (scrub one block,
    /// migrate one cold block, re-monitor one h-layer, …) — and returns
    /// its NAND cost, or `None` when nothing is due there. The simulator
    /// offers idle chips while the host stream is live, after each chip's
    /// host-priority gap (0 unless maintenance is armed), and may let a
    /// host read run between the WL steps of a GC unit ([`MaintWork`]).
    /// Default: the FTL performs no background work.
    fn maintenance_step(&mut self, chip: usize, ctx: &HostContext) -> Option<MaintWork> {
        let _ = (chip, ctx);
        None
    }

    /// FTL-internal counters.
    fn stats(&self) -> FtlStats;

    /// Free blocks currently available across all chips — sampled into
    /// the telemetry time series. Default: 0 (unknown).
    fn free_blocks(&self) -> u64 {
        0
    }

    /// Short name for reports (e.g. `"cubeFTL"`).
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ftl_stats_default_is_zeroed() {
        let s = FtlStats::default();
        assert_eq!(s.host_wl_programs, 0);
        assert_eq!(s.gc_runs, 0);
        assert_eq!(s.read_retries, 0);
    }

    #[test]
    fn every_ftl_stats_field_is_a_listed_counter() {
        let one = FtlStats {
            erases: 1,
            ckpt_erases: 2,
            ..FtlStats::default()
        };
        let mut sum = one;
        sum.accumulate(&one);
        let mut reg = telemetry::MetricRegistry::new();
        sum.register_metrics(&mut reg, "ftl");
        assert_eq!(
            std::mem::size_of::<FtlStats>(),
            8 * reg.len(),
            "a field outside the `ftl_stats!` list escapes accumulate and register_metrics"
        );
        let keys: Vec<&str> = reg.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.len(), 32);
        assert_eq!(keys[0], "ftl.host_wl_programs");
        assert_eq!(keys[27], "ftl.ckpt_erases");
        assert_eq!(keys[31], "ftl.maint_read_retries");
        assert_eq!((sum.erases, sum.ckpt_erases, sum.gc_runs), (2, 4, 0));
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &mut dyn FtlDriver) {}
    }
}
