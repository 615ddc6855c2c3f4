//! Device-state fingerprints: the referee for refactors of `Ftl`'s
//! write, read, migration, recovery, maintenance and aging paths.
//!
//! Each script drives an [`Ftl`] directly through [`FtlDriver`] (no
//! harness, no simulator) and folds the whole resulting device state —
//! every LPN's physical location, per-block valid and erase counts, the
//! operation sequence number, the checkpoint region, the counters and
//! the summed NAND time — into one FNV-1a hash per FTL kind. The 20
//! constants were re-captured when garbage collection moved into
//! bounded background units (a foreground collection now takes one
//! victim at the floor, and the hook's GC units run inside
//! `maintenance_step`); a change that moves any of them changed what
//! the device does, not just how the code reads.

use cubeftl::{
    AgingState, BlockId, FaultKind, FaultPlan, Ftl, FtlConfig, FtlDriver, FtlKind, LifetimeConfig,
    LifetimeEngine, MaintConfig, MetricRegistry,
};
use ssdsim::HostContext;

const PAD: u64 = u64::MAX;

/// An [`Ftl`] plus the round-robin chip cursor, clock and NAND-time sum
/// a script needs to drive it.
struct Rig {
    ftl: Ftl,
    chips: usize,
    next_chip: usize,
    now_us: f64,
    nand_us: f64,
    /// Background GC units the hook ran in [`Rig::maintain`].
    gc_units: u64,
    rng: u64,
}

impl Rig {
    fn new(kind: FtlKind) -> Self {
        let cfg = FtlConfig::small();
        Rig {
            ftl: Ftl::new(kind, cfg),
            chips: cfg.chips,
            next_chip: 0,
            now_us: 0.0,
            nand_us: 0.0,
            gc_units: 0,
            rng: 0x9E37_79B9_7F4A_7C15 ^ kind as u64,
        }
    }

    fn ctx(&mut self, mu: f64) -> HostContext {
        self.now_us += 10.0;
        HostContext {
            buffer_utilization: mu,
            now_us: self.now_us,
        }
    }

    /// A xorshift draw in `0..n`.
    fn draw(&mut self, n: u64) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % n
    }

    fn write(&mut self, lpns: [u64; 3], mu: f64) {
        let ctx = self.ctx(mu);
        let chip = self.next_chip;
        self.next_chip = (chip + 1) % self.chips;
        self.nand_us += self.ftl.write_wl(chip, lpns, &ctx).nand_us;
    }

    /// Writes `lpns` three to a WL (the tail padded), chips round-robin.
    fn write_all(&mut self, lpns: impl IntoIterator<Item = u64>, mu: f64) {
        let lpns: Vec<u64> = lpns.into_iter().collect();
        for group in lpns.chunks(3) {
            let mut wl = [PAD; 3];
            wl[..group.len()].copy_from_slice(group);
            self.write(wl, mu);
        }
    }

    /// `wls` WLs of random overwrites inside `0..space`; a WL never
    /// carries one LPN twice.
    fn overwrite(&mut self, wls: usize, space: u64, mu: f64) {
        for _ in 0..wls {
            let a = self.draw(space);
            let b = (a + 1 + self.draw(space - 2)) % space;
            let mut c = self.draw(space);
            while c == a || c == b {
                c = (c + 1) % space;
            }
            self.write([a, b, c], mu);
        }
    }

    fn read(&mut self, lpn: u64) {
        let ctx = self.ctx(0.0);
        if let Some(r) = self.ftl.read_page(lpn, &ctx) {
            self.nand_us += r.nand_us;
        }
    }

    fn read_random(&mut self, n: usize, space: u64) {
        for _ in 0..n {
            let lpn = self.draw(space);
            self.read(lpn);
        }
    }

    /// Up to `n` background units (GC or maintenance) on every chip in
    /// turn.
    fn maintain(&mut self, n: usize) {
        for _ in 0..n {
            for chip in 0..self.chips {
                let ctx = self.ctx(0.3);
                if let Some(w) = self.ftl.maintenance_step(chip, &ctx) {
                    self.nand_us += w.nand_us;
                    self.gc_units += u64::from(w.gc);
                }
            }
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        let mapping = self.ftl.mapping();
        for lpn in 0..self.ftl.logical_pages() {
            match mapping.lookup(lpn) {
                Some(ppn) => {
                    h.u64(u64::from(ppn.chip));
                    h.u64(u64::from(ppn.page));
                }
                None => h.u64(u64::MAX),
            }
        }
        let blocks = self.ftl.geometry().blocks_per_chip;
        for chip in 0..self.chips {
            let env = self.ftl.array().chip(chip).expect("valid chip").env();
            for b in 0..blocks {
                h.u64(u64::from(mapping.valid_in_block(chip, b)));
                h.u64(u64::from(env.erase_count(b as usize)));
            }
        }
        h.u64(self.ftl.seq_counter());
        for BlockId(b) in self.ftl.ckpt_region() {
            h.u64(u64::from(b));
        }
        let mut reg = MetricRegistry::new();
        self.ftl.stats().register_metrics(&mut reg, "ftl");
        h.bytes(reg.to_ndjson().as_bytes());
        h.u64(self.nand_us.to_bits());
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Sustained random overwrites of a working set that fills the logical
/// space: every write past the prefill is GC-bound.
fn gc_overwrites(kind: FtlKind) -> u64 {
    let mut rig = Rig::new(kind);
    let space = rig.ftl.logical_pages() * 9 / 10;
    rig.write_all(0..space, 0.5);
    rig.overwrite(900, space, 0.95);
    rig.read_random(200, space);
    for lpn in (0..space).step_by(17) {
        rig.ftl.trim(lpn);
    }
    rig.overwrite(300, space, 0.2);
    let stats = rig.ftl.stats();
    assert!(stats.gc_runs > 20 && stats.gc_page_moves > 0 && stats.host_trims > 0);
    rig.fingerprint()
}

/// Every maintenance service: scrub (data blocks and the checkpoint
/// region), re-monitor, wear leveling (data blocks and the checkpoint
/// ring) and the hook's GC units, interleaved with host overwrites.
fn maintenance(kind: FtlKind) -> u64 {
    let mut rig = Rig::new(kind);
    // The checkpoint region takes one of chip 0's eight blocks.
    let space = rig.ftl.logical_pages() * 6 / 10;
    rig.ftl.enable_checkpointing(4);
    rig.write_all(0..space, 0.5);
    rig.overwrite(400, space, 0.7);
    // Ring-erase the region block until it is the hottest on its chip.
    for _ in 0..3000 {
        rig.nand_us += rig.ftl.take_checkpoint();
    }
    rig.ftl.set_aging(AgingState::EndOfLife);
    let mut maint = MaintConfig::default_on();
    maint.wear_spread_limit = 1;
    maint.scrub_retention_min_months = 0.5;
    rig.ftl.enable_maintenance(maint);
    let mut engine = LifetimeEngine::new(LifetimeConfig::campaign());
    let mut region = rig.ftl.ckpt_region();
    let mut ring_moves = 0;
    for round in 0..60 {
        rig.maintain(12);
        rig.overwrite(25, space, if round % 2 == 0 { 0.95 } else { 0.4 });
        rig.read_random(10, space);
        if round == 30 {
            // The region block holds no data WLs, so only an epoch
            // barrier ages it into the metadata scrub.
            rig.ftl.advance_lifetime_epoch(&mut engine);
        }
        let now = rig.ftl.ckpt_region();
        ring_moves += usize::from(now != region);
        region = now;
    }
    assert!(ring_moves > 0, "the hot checkpoint ring never moved");
    let stats = rig.ftl.stats();
    assert!(stats.scrub_page_moves > 0 && stats.scrub_sample_reads > 0);
    assert!(stats.wear_level_moves > 0 && rig.gc_units > 0);
    assert!(stats.ckpt_erases > 0 && stats.ckpt_page_programs > 0);
    assert_eq!(stats.remonitored_layers > 0, rig.ftl.opm().is_some());
    rig.fingerprint()
}

/// A seeded fault plan with every fault kind the FTL recovers from.
fn faults(kind: FtlKind) -> u64 {
    let mut rig = Rig::new(kind);
    let space = rig.ftl.logical_pages() * 9 / 10;
    rig.ftl.set_fault_plan(
        &FaultPlan::seeded(77)
            .with_rate(FaultKind::ProgramAbort, 0.02)
            .with_rate(FaultKind::BerSpike, 0.04)
            .with_rate(FaultKind::IsppLoopOutlier, 0.02)
            .with_rate(FaultKind::StuckRetry, 0.05)
            .with_rate(FaultKind::UncorrectableRead, 0.03),
    );
    rig.ftl.set_disturbance_prob(0.02);
    rig.write_all(0..space, 0.6);
    rig.ftl.set_aging(AgingState::MidLife);
    for _ in 0..10 {
        rig.overwrite(60, space, 0.9);
        rig.read_random(80, space);
    }
    let stats = rig.ftl.stats();
    assert!(stats.program_aborts > 0 && stats.gc_runs > 0);
    assert!(stats.stuck_retry_recoveries > 0 && stats.uncorrectable_recoveries > 0);
    assert_eq!(stats.safety_reprograms > 0, rig.ftl.opm().is_some());
    rig.fingerprint()
}

/// Periodic checkpoints, a power cut that tears an in-flight flush and
/// interrupts a GC erase, recovery with a PLP replay, then more traffic
/// on the resumed write points — twice.
fn power_cycle(kind: FtlKind) -> u64 {
    let mut rig = Rig::new(kind);
    let space = rig.ftl.logical_pages() * 9 / 10;
    rig.ftl.enable_checkpointing(64);
    rig.write_all(0..space, 0.5);
    rig.overwrite(350, space, 0.8);
    let mut recovered = 0u64;
    for cut in 0..2u64 {
        let torn_lpns = [3 + cut, 400 + cut, 800 + cut];
        rig.write(torn_lpns, 0.8);
        let chip = (rig.next_chip + rig.chips - 1) % rig.chips;
        let torn = rig.ftl.power_cut(chip, torn_lpns, true);
        assert!(torn > 0, "the in-flight WL must tear");
        let plp: Vec<u64> = torn_lpns.into_iter().chain(20..27).collect();
        let dead = std::mem::replace(&mut rig.ftl, Ftl::new(kind, FtlConfig::small()));
        let (ftl, report) = dead.power_cycle(&plp);
        rig.ftl = ftl;
        assert!(report.checkpoint_loaded && report.plp_pages_replayed == 10);
        recovered ^= report.oob_records_replayed
            ^ report.ckpt_entries_restored << 16
            ^ report.blocks_scanned << 32
            ^ report.nand_us.to_bits();
        rig.overwrite(200, space, 0.6);
        rig.read_random(100, space);
    }
    for lpn in 0..space {
        assert!(rig.ftl.is_mapped(lpn), "lpn {lpn} lost");
    }
    rig.fingerprint() ^ recovered
}

/// One lifetime epoch barrier between two stretches of traffic.
fn lifetime(kind: FtlKind) -> u64 {
    let mut rig = Rig::new(kind);
    let space = rig.ftl.logical_pages() * 9 / 10;
    rig.write_all(0..space, 0.5);
    rig.overwrite(250, space, 0.9);
    rig.ftl.enable_lifetime_aging();
    let mut engine = LifetimeEngine::new(LifetimeConfig::campaign());
    let summary = rig.ftl.advance_lifetime_epoch(&mut engine);
    assert!(summary.pe_added > 0);
    rig.overwrite(250, space, 0.9);
    rig.read_random(300, space);
    rig.fingerprint() ^ summary.pe_added ^ summary.mean_pattern_stress.to_bits()
}

type Script = fn(FtlKind) -> u64;

/// Script × kind (pageFTL, vertFTL, cubeFTL-, cubeFTL).
const WANT: [(&str, Script, [u64; 4]); 5] = [
    (
        "gc_overwrites",
        gc_overwrites,
        [
            0xf71c01ac08e2b1b1,
            0x34a6dd13dad48767,
            0x14a160152578e271,
            0x43d4c61edeea519b,
        ],
    ),
    (
        "maintenance",
        maintenance,
        [
            0x30e0f006e2e473f8,
            0x505d4623f4a3ef96,
            0x2bd1eebd09f2bfd3,
            0xd7c57ef5c58c94c0,
        ],
    ),
    (
        "faults",
        faults,
        [
            0xdf24ea20145ed219,
            0xd373365c88316ba6,
            0x69af34e20bd68ce5,
            0xa55a3fa798d25108,
        ],
    ),
    (
        "power_cycle",
        power_cycle,
        [
            0x8615d5c7652da1c2,
            0xae331f319c04f035,
            0x59899253f0d85859,
            0x053bddd97b722a0c,
        ],
    ),
    (
        "lifetime",
        lifetime,
        [
            0xd4f7e4590a37d077,
            0xb5305cbb9ddc68a8,
            0x66271ab62d7e769d,
            0x3b54ae77db838fa3,
        ],
    ),
];

#[test]
fn device_state_fingerprints_are_pinned() {
    let mut drifted = false;
    for (name, script, want) in WANT {
        let got = FtlKind::ALL.map(script);
        if got != want {
            drifted = true;
            eprintln!("    (\"{name}\", {name}, {got:#018x?}),");
        }
    }
    assert!(!drifted, "device state drifted; got rows printed above");
}
