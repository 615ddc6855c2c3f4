//! Structured event trace: typed records, category mask, collector.

use crate::fmt_num;
use std::fmt::Write as _;

/// Bitmask of event categories a [`Collector`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventMask(u32);

/// The category table: one entry per category, `CONSTANT "name"` — its
/// bit is its position in the list. The constants, [`EventMask::NAMES`]
/// and [`EventMask::ALL`] all come from here.
macro_rules! event_categories {
    ($($(#[$doc:meta])* $cat:ident $name:literal,)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Bit { $($cat),* }

        impl EventMask {
            $($(#[$doc])* pub const $cat: EventMask = EventMask(1 << Bit::$cat as u32);)*
            /// Every category.
            pub const ALL: EventMask = EventMask(0 $(| Self::$cat.0)*);
            /// Name table used by [`EventMask::parse`] and `--trace-events`.
            pub const NAMES: [(&'static str, EventMask); [$($name),*].len()] =
                [$(($name, Self::$cat)),*];
        }
    };
}

event_categories! {
    /// Host I/O completions (read/write/trim latency).
    HOST_IO "host",
    /// ISPP WL programs (pulses, verifies, margin excess, abort flag).
    ISPP "ispp",
    /// Read-retry chains (retry count, recovered fault kind).
    READ_RETRY "retry",
    /// GC victim selection and migration/erase.
    GC "gc",
    /// Background maintenance units (scrub, wear-level, re-monitor).
    MAINT "maint",
    /// L2P checkpoint flushes to the metadata region.
    CKPT "ckpt",
    /// Sudden-power-off cut and boot-recovery phases.
    SPO "spo",
    /// OPM leader monitor / §4.1.4 demotion transitions.
    OPM "opm",
    /// Host front-end queue transitions (admission shed, backpressure).
    HOSTQ "hostq",
    /// Per-tenant SLO attainment summaries.
    SLO "slo",
    /// Whole-shard failure and degraded-mode reconstruction reads.
    DEGRADED "degraded",
    /// Background rebuild units onto a spare shard.
    REBUILD "rebuild",
    /// Lifetime-campaign epoch barriers (fast-forward aging steps).
    AGING "aging",
    /// kvsim application-level maintenance (memtable flushes, LSM
    /// compactions).
    KV "kv",
}

impl EventMask {
    /// No category (the disabled collector).
    pub const NONE: EventMask = EventMask(0);

    /// Whether every bit of `other` is enabled here.
    pub fn contains(self, other: EventMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no category is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two masks.
    pub fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// The category names of [`EventMask::NAMES`] joined by `sep` — the
    /// list `--trace-events` help and errors print.
    pub fn name_list(sep: &str) -> String {
        Self::NAMES.map(|(n, _)| n).join(sep)
    }

    /// Parses a `--trace-events` value: `all`, `none`, or a
    /// comma-separated list of category names (see [`EventMask::NAMES`]).
    pub fn parse(spec: &str) -> Result<EventMask, String> {
        match spec.trim() {
            "all" => return Ok(Self::ALL),
            "none" | "" => return Ok(Self::NONE),
            _ => {}
        }
        let mut mask = Self::NONE;
        for part in spec.split(',') {
            let part = part.trim();
            match Self::NAMES.iter().find(|(name, _)| *name == part) {
                Some((_, bit)) => mask = mask.union(*bit),
                None => {
                    return Err(format!(
                        "unknown event category {part:?} (expected one of: all, none, {})",
                        Self::name_list(", ")
                    ))
                }
            }
        }
        Ok(mask)
    }
}

/// The event table: one entry per kind — `Variant "json_kind" CATEGORY
/// { field: type, ... }` with the fields in export order; the type is
/// the field's value kind (see `crate::Value`). [`EventKind`], its
/// category, its serializer and [`EventKind::SCHEMA`] all come from
/// here.
macro_rules! event_kinds {
    ($($(#[$doc:meta])* $variant:ident $json:literal $cat:ident {
        $($(#[$fdoc:meta])* $field:ident: $ty:ty,)*
    })*) => {
        /// The typed payload of one trace event.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum EventKind {
            $($(#[$doc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl EventKind {
            /// Every kind as `(JSON kind, category, field names in
            /// export order)`.
            pub const SCHEMA: &'static [(&'static str, EventMask, &'static [&'static str])] =
                &[$(($json, EventMask::$cat, &[$(stringify!($field)),*])),*];

            /// The mask category this event belongs to.
            pub fn category(&self) -> EventMask {
                match self {
                    $(EventKind::$variant { .. } => EventMask::$cat,)*
                }
            }

            /// Appends `"json_kind"` and then every field as
            /// `,"name":value`, in declared order.
            fn write_json(&self, out: &mut String) {
                match self {
                    $(EventKind::$variant { $($field),* } => {
                        out.push_str(concat!("\"", $json, "\""));
                        $(json_field!(out, $field, $field);)*
                    })*
                }
            }
        }
    };
}

event_kinds! {
    /// A host request completed.
    HostIo "host_io" HOST_IO {
        /// `"read"`, `"write"` or `"trim"`.
        op: &'static str,
        /// First logical page of the request.
        lpn: u64,
        /// Host-visible latency in µs.
        latency_us: f64,
    }
    /// One WL program through the ISPP engine.
    IsppProgram "ispp_program" ISPP {
        /// Chip index.
        chip: u32,
        /// Whether this WL was the h-layer leader (full-verify monitor).
        leader: bool,
        /// Program pulses executed.
        pulses: u32,
        /// Verify steps executed (skipped verifies = pulses − verifies).
        verifies: u32,
        /// Window shrink beyond the safe MaxLoop margin, in loops.
        margin_excess_loops: u32,
        /// NAND program latency in µs.
        latency_us: f64,
        /// Whether the program aborted (injected fault).
        aborted: bool,
    }
    /// A page read that needed the retry chain.
    ReadRetry "read_retry" READ_RETRY {
        /// Chip index.
        chip: u32,
        /// Logical page read.
        lpn: u64,
        /// Retries performed before decoding.
        retries: u32,
        /// Injected fault kind recovered from, if any.
        fault: Option<&'static str>,
        /// Whether the starting ΔV_Ref came from the cross-block cluster
        /// (ORT miss seeded by the h-layer aggregate).
        seeded: bool,
        /// Whether the retry chain terminated early (seeded-chain guard
        /// or the `--retry-opt` early-termination scan).
        early_term: bool,
    }
    /// GC migrated valid WLs off a victim block: one event per
    /// background unit and per foreground collection.
    GcVictim "gc_victim" GC {
        /// Chip index.
        chip: u32,
        /// Victim block id.
        block: u32,
        /// Valid WLs migrated off the victim by this step.
        moved_wls: u32,
        /// Whether the wear-aware selector was used.
        wear_aware: bool,
    }
    /// One background maintenance unit ran.
    Maint "maint" MAINT {
        /// Chip index.
        chip: u32,
        /// `"scrub"`, `"wear_level"` or `"remonitor"`.
        service: &'static str,
        /// Pages moved by this unit.
        page_moves: u64,
    }
    /// An L2P checkpoint was flushed to the metadata region.
    Checkpoint "checkpoint" CKPT {
        /// Metadata pages programmed.
        pages: u32,
        /// Encoded checkpoint size in bytes.
        bytes: u64,
        /// Latency charged to the triggering write, in µs.
        latency_us: f64,
    }
    /// A sudden-power-off phase boundary.
    Spo "spo" SPO {
        /// `"cut"`, `"recovery_begin"` or `"recovery_done"`.
        phase: &'static str,
        /// Phase detail: completed ops at the cut, or replayed WLs.
        detail: u64,
    }
    /// An OPM transition on one (chip, h-layer).
    Opm "opm" OPM {
        /// Chip index.
        chip: u32,
        /// h-layer index.
        layer: u32,
        /// `"monitor"` (leader promoted/recorded) or `"demote"`
        /// (§4.1.4 safety-check demotion).
        action: &'static str,
    }
    /// A host front-end queue transition: an arrival was shed by
    /// admission control (submission queue at its depth bound).
    HostQueue "host_queue" HOSTQ {
        /// Submission queue index.
        queue: u32,
        /// Tenant the arrival belonged to.
        tenant: u32,
        /// `"shed"` (the only transition traced today; backpressure
        /// accounting lives in the metric registry).
        action: &'static str,
        /// Queue occupancy at the instant of the transition.
        depth: u32,
    }
    /// End-of-run SLO attainment for one tenant (emitted for the
    /// bounded-cardinality reporting set only).
    TenantSlo "tenant_slo" SLO {
        /// Tenant id.
        tenant: u32,
        /// Requests completed for this tenant.
        completed: u64,
        /// Arrivals shed for this tenant.
        shed: u64,
        /// p99 read latency in µs (0 when the tenant issued no reads).
        read_p99_us: f64,
        /// p99 write latency in µs (0 when the tenant issued no writes).
        write_p99_us: f64,
        /// SLO violations counted against this tenant.
        violations: u64,
    }
    /// A whole-shard failure boundary (injection, detection at the
    /// barrier, or rebuild-complete restoration of full redundancy).
    ShardFail "shard_fail" DEGRADED {
        /// Array index of the failed shard.
        failed: u32,
        /// `"inject"`, `"detect"` or `"restored"`.
        phase: &'static str,
        /// Phase detail: durable pages at stake (detect), rebuilt
        /// pages (restored), or the failure time in µs (inject).
        detail: u64,
    }
    /// A degraded-mode read: a lost page served by XOR-reconstructing
    /// it from the surviving shards' pages of the same stripe row.
    DegradedRead "degraded_read" DEGRADED {
        /// Global data LPN reconstructed.
        lpn: u64,
        /// Surviving fragments read to rebuild it (S − 1).
        fragments: u32,
    }
    /// One bounded background rebuild unit ran against the spare.
    RebuildUnit "rebuild_unit" REBUILD {
        /// Spare shard serving as rebuild target.
        spare: u32,
        /// `"read"` (survivor fragment reads) or `"write"` (spare
        /// reconstruction writes).
        action: &'static str,
        /// Pages moved by this unit.
        pages: u64,
    }
    /// A lifetime-campaign epoch barrier: virtual device age was
    /// fast-forwarded between workload phases.
    EpochAdvance "epoch_advance" AGING {
        /// Workload epoch about to start (1-based; epoch 0 is the
        /// fresh baseline and carries no barrier).
        epoch: u32,
        /// Total P/E cycles added across the device at this barrier.
        pe_add: u64,
        /// Nominal retention months added at this barrier (early
        /// retention loss makes early barriers carry more).
        retention_add_months: f64,
        /// Blocks whose age advanced.
        blocks: u64,
    }
    /// A kvsim maintenance action: a memtable flush or an LSM
    /// compaction moved SST data on the device.
    KvMaint "kv_maint" KV {
        /// Measured application op ordinal the action landed on
        /// (0 during the bulk-load phase).
        op_index: u64,
        /// `"flush"` or `"compact"`.
        action: &'static str,
        /// Output level the run(s) were written into.
        level: u32,
        /// Pages read from input runs.
        pages_in: u64,
        /// Pages written to output runs.
        pages_out: u64,
    }
}

/// One trace record: a virtual timestamp, its origin shard, a
/// per-collector sequence number, and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event in µs.
    pub t_us: f64,
    /// Shard the event originated on (0 for a single device).
    pub shard: u32,
    /// Per-collector sequence number (tie-break within a timestamp).
    pub seq: u64,
    /// Typed payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Serializes the event as one NDJSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"t_us\":{},\"shard\":{},\"seq\":{},\"kind\":",
            fmt_num(self.t_us),
            self.shard,
            self.seq
        );
        self.kind.write_json(&mut s);
        s.push('}');
        s
    }
}

/// Serializes a slice of events as NDJSON (one line each, `\n`-ended).
pub fn events_to_ndjson(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128);
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// A mask-gated event sink owned by one component (the simulator or the
/// FTL of one shard). With an empty mask the collector is inert: no
/// event is ever pushed and the buffer never allocates.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    mask: EventMask,
    shard: u32,
    seq: u64,
    events: Vec<TraceEvent>,
}

impl Collector {
    /// The inert collector (records nothing, never allocates).
    pub fn disabled() -> Self {
        Collector::default()
    }

    /// A collector recording the categories in `mask`, tagging every
    /// event with `shard`.
    pub fn enabled(mask: EventMask, shard: u32) -> Self {
        Collector {
            mask,
            shard,
            seq: 0,
            events: Vec::new(),
        }
    }

    /// Whether events of category `cat` would be recorded. Call sites
    /// use this to skip payload construction entirely when tracing is
    /// off — the disabled path must cost one mask test and nothing else.
    #[inline]
    pub fn wants(&self, cat: EventMask) -> bool {
        self.mask.contains(cat) && !cat.is_empty()
    }

    /// Records one event (dropped unless its category is enabled).
    #[inline]
    pub fn emit(&mut self, t_us: f64, kind: EventKind) {
        if !self.wants(kind.category()) {
            return;
        }
        self.events.push(TraceEvent {
            t_us,
            shard: self.shard,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the buffered events (the collector stays enabled and its
    /// sequence numbering continues).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Discards buffered events and restarts sequence numbering, keeping
    /// the mask and shard tag — called at the start of each run.
    pub fn reset(&mut self) {
        self.events = Vec::new();
        self.seq = 0;
    }
}

/// Stable two-way merge of two time-ordered event streams. On timestamp
/// ties the first stream wins — callers pass the device/simulator stream
/// first and the FTL stream second, so the tie-break is by source rank
/// and then by each stream's own sequence numbers: fully deterministic.
pub fn merge_streams(a: Vec<TraceEvent>, b: Vec<TraceEvent>) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        if a[ia].t_us <= b[ib].t_us {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out.extend_from_slice(&a[ia..]);
    out.extend_from_slice(&b[ib..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_parsing_round_trips_names() {
        assert_eq!(EventMask::parse("all").unwrap(), EventMask::ALL);
        assert_eq!(EventMask::parse("none").unwrap(), EventMask::NONE);
        let m = EventMask::parse("host,gc,ckpt").unwrap();
        assert!(m.contains(EventMask::HOST_IO));
        assert!(m.contains(EventMask::GC));
        assert!(m.contains(EventMask::CKPT));
        assert!(!m.contains(EventMask::ISPP));
        assert!(EventMask::parse("bogus").is_err());
    }

    #[test]
    fn disabled_collector_never_allocates() {
        let mut c = Collector::disabled();
        for i in 0..1000 {
            c.emit(
                i as f64,
                EventKind::HostIo {
                    op: "read",
                    lpn: i,
                    latency_us: 61.0,
                },
            );
        }
        assert!(c.is_empty());
        assert_eq!(c.events.capacity(), 0, "disabled path must not allocate");
    }

    #[test]
    fn mask_filters_categories() {
        let mut c = Collector::enabled(EventMask::GC, 0);
        c.emit(
            1.0,
            EventKind::HostIo {
                op: "read",
                lpn: 0,
                latency_us: 1.0,
            },
        );
        c.emit(
            2.0,
            EventKind::GcVictim {
                chip: 0,
                block: 3,
                moved_wls: 7,
                wear_aware: false,
            },
        );
        assert_eq!(c.len(), 1);
        assert!(matches!(c.take()[0].kind, EventKind::GcVictim { .. }));
    }

    #[test]
    fn merge_is_time_ordered_with_first_stream_winning_ties() {
        let ev = |t: f64, shard: u32, seq: u64| TraceEvent {
            t_us: t,
            shard,
            seq,
            kind: EventKind::Spo {
                phase: "cut",
                detail: 0,
            },
        };
        let a = vec![ev(1.0, 0, 0), ev(5.0, 0, 1)];
        let b = vec![ev(1.0, 1, 0), ev(2.0, 1, 1)];
        let merged = merge_streams(a, b);
        let order: Vec<(f64, u32)> = merged.iter().map(|e| (e.t_us, e.shard)).collect();
        assert_eq!(order, vec![(1.0, 0), (1.0, 1), (2.0, 1), (5.0, 0)]);
    }

    #[test]
    fn resilience_categories_parse_and_serialize() {
        let m = EventMask::parse("degraded,rebuild").unwrap();
        assert!(m.contains(EventMask::DEGRADED));
        assert!(m.contains(EventMask::REBUILD));
        assert!(EventMask::ALL.contains(m));
        let mut c = Collector::enabled(m, 3);
        c.emit(
            10.0,
            EventKind::ShardFail {
                failed: 1,
                phase: "detect",
                detail: 512,
            },
        );
        c.emit(
            11.0,
            EventKind::DegradedRead {
                lpn: 42,
                fragments: 3,
            },
        );
        c.emit(
            12.0,
            EventKind::RebuildUnit {
                spare: 4,
                action: "write",
                pages: 64,
            },
        );
        let lines = events_to_ndjson(&c.take());
        assert!(lines.contains("\"kind\":\"shard_fail\",\"failed\":1,\"phase\":\"detect\""));
        assert!(lines.contains("\"kind\":\"degraded_read\",\"lpn\":42,\"fragments\":3"));
        assert!(lines
            .contains("\"kind\":\"rebuild_unit\",\"spare\":4,\"action\":\"write\",\"pages\":64"));
    }

    #[test]
    fn aging_category_parses_and_serializes() {
        let m = EventMask::parse("aging").unwrap();
        assert!(m.contains(EventMask::AGING));
        assert!(EventMask::ALL.contains(m));
        assert!(!EventMask::parse("maint,ckpt").unwrap().contains(m));
        let mut c = Collector::enabled(m, 1);
        c.emit(
            0.0,
            EventKind::EpochAdvance {
                epoch: 2,
                pe_add: 48_000,
                retention_add_months: 2.25,
                blocks: 96,
            },
        );
        c.emit(
            0.0,
            EventKind::Maint {
                chip: 0,
                service: "scrub",
                page_moves: 4,
            },
        );
        assert_eq!(c.len(), 1, "mask must gate other categories out");
        let lines = events_to_ndjson(&c.take());
        assert!(lines.contains(
            "\"kind\":\"epoch_advance\",\"epoch\":2,\"pe_add\":48000,\
             \"retention_add_months\":2.25,\"blocks\":96"
        ));
    }

    #[test]
    fn json_lines_carry_the_envelope_keys() {
        let ev = TraceEvent {
            t_us: 12.5,
            shard: 2,
            seq: 7,
            kind: EventKind::Checkpoint {
                pages: 3,
                bytes: 4096,
                latency_us: 2109.0,
            },
        };
        let line = ev.to_json();
        assert!(line.starts_with("{\"t_us\":12.5,\"shard\":2,\"seq\":7,"));
        assert!(line.contains("\"kind\":\"checkpoint\""));
        assert!(line.ends_with('}'));
    }
}
