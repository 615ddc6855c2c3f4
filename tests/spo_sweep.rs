//! A power cut at every completed-request boundary: the referee for
//! crash recovery.
//!
//! Each sweep records an OLTP request stream, prefills a device and
//! steps it one event at a time. After every step that completed a host
//! request it forks the engine and the FTL (both are `Clone`), cuts the
//! fork's power ([`SsdSim::cut_power`]), tears every interrupted flush
//! ([`Ftl::power_cut`]), boots the fork through [`Ftl::power_cycle`]
//! with the power-loss-protection dump and checks the recovered map
//! against the device as it stood at the cut:
//!
//! * (a) every LPN durable at the cut (mapped, or in the dump) is mapped;
//! * (b) every durable LPN outside the dump maps to a complete WL whose
//!   OOB sequence number is at least that of the WL it mapped to at the
//!   cut;
//! * (c) every dumped LPN maps to a page programmed after the cut (OOB
//!   sequence number above the cut's `seq_counter()`);
//! * (d) every mapped LPN's page carries that LPN as its tag.
//! * (e) the recovered FTL passes [`Ftl::audit`].
//!
//! A fork is only a referee if it cuts the device a real trigger cuts,
//! so a sample of the forked cuts is compared with the [`SpoEvent`] an
//! armed [`SpoTrigger::AtOps`] produces on a fresh copy of the same run.
//!
//! Garbage collection runs in bounded background units, so a victim can
//! stand half-migrated at a cut: some of its valid pages already on
//! fresh WLs, the rest still on it. The units window cuts there: the
//! paper chip's 576-page blocks on the small platform, where a victim
//! takes several units, and it must cut inside a victim (GC moved pages
//! since the last victim release) at least once. Retention scrubbing
//! refreshes a block through the same mover, so the scrub window runs
//! that device at EndOfLife with maintenance on and must cut inside a
//! refresh (scrub moved pages since the last refreshed block) at least
//! once.
//!
//! The default window is `FtlConfig::small()` on `SsdConfig::small()`
//! over 300 requests, checkpoints off and every 8 host WLs.
//! `CUBEFTL_SPO_WINDOW=long` selects the paper chip at 16 blocks per
//! chip on the paper platform over a longer window, checkpoints off,
//! every 8 and every 64 host WLs.

use cubeftl::{
    AgingState, FrontRequest, Ftl, FtlConfig, FtlDriver, FtlKind, FtlStats, HostFront, HostRequest,
    MaintConfig, OobStatus, SpoEvent, SpoTrigger, SsdConfig, SsdSim, StandardWorkload, StepOutcome,
    WlOob,
};
use ftl::Ppn;
use nand3d::Geometry;
use std::collections::HashSet;

/// The device and the stream one sweep cuts.
struct Window {
    ssd: SsdConfig,
    ftl: FtlConfig,
    requests: usize,
    /// Checkpoint cadences in host WLs (0 = off).
    ckpts: &'static [u64],
    /// Every `stride`-th cut is also compared with a real trigger.
    stride: u64,
    aging: AgingState,
    maint: Option<MaintConfig>,
}

/// The units window: `FtlConfig::small()` with the paper chip's
/// 576-page blocks (twelve per chip) on `SsdConfig::small()` over 300
/// requests, checkpoints off.
fn units_window() -> Window {
    let mut ftl = FtlConfig::small();
    ftl.nand.geometry = Geometry {
        blocks_per_chip: 12,
        ..Geometry::paper()
    };
    Window {
        ssd: SsdConfig::small(),
        ftl,
        requests: 300,
        ckpts: &[0],
        stride: 37,
        aging: AgingState::MidLife,
        maint: None,
    }
}

/// The scrub window: the units window at queue depth 1, so one chip
/// idles while the other serves the request in flight, on 24 blocks
/// per chip, so the prefilled pool stays above the GC threshold and the
/// scrubber may start refreshes, at EndOfLife (data a year old) with
/// stock maintenance on, over 150 requests.
fn scrub_window() -> Window {
    let mut w = units_window();
    w.ssd.queue_depth = 1;
    w.ftl.nand.geometry.blocks_per_chip = 24;
    w.requests = 150;
    Window {
        aging: AgingState::EndOfLife,
        maint: Some(MaintConfig::default_on()),
        ..w
    }
}

fn window() -> Window {
    match std::env::var("CUBEFTL_SPO_WINDOW").as_deref() {
        Err(_) | Ok("short") => Window {
            ssd: SsdConfig::small(),
            ftl: FtlConfig::small(),
            requests: 300,
            ckpts: &[0, 8],
            stride: 37,
            aging: AgingState::MidLife,
            maint: None,
        },
        Ok("long") => {
            let mut ftl = FtlConfig::paper();
            ftl.nand.geometry.blocks_per_chip = 16;
            Window {
                ssd: SsdConfig::paper(),
                ftl,
                requests: 2_000,
                ckpts: &[0, 8, 64],
                stride: 211,
                aging: AgingState::MidLife,
                maint: None,
            }
        }
        Ok(other) => panic!("CUBEFTL_SPO_WINDOW={other}: expected short or long"),
    }
}

/// The recorded stream as a closed-loop host that counts completions.
struct Recorded<'a> {
    stream: &'a [HostRequest],
    issued: usize,
    completed: u64,
}

impl<'a> Recorded<'a> {
    fn new(stream: &'a [HostRequest]) -> Self {
        Recorded {
            stream,
            issued: 0,
            completed: 0,
        }
    }
}

impl HostFront for Recorded<'_> {
    fn next_arrival_us(&self) -> Option<f64> {
        None
    }

    fn advance(&mut self, _now_us: f64) {}

    fn pop(&mut self, _now_us: f64) -> Option<FrontRequest> {
        let req = *self.stream.get(self.issued)?;
        self.issued += 1;
        Some(FrontRequest { req, token: 0 })
    }

    fn complete(&mut self, _token: u32, _now_us: f64) {
        self.completed += 1;
    }

    fn exhausted(&self) -> bool {
        self.issued == self.stream.len()
    }
}

#[derive(Clone)]
struct Device {
    sim: SsdSim,
    ftl: Ftl,
}

/// A device prefilled to 90 % of its logical space, as the harness
/// prepares one, checkpointing every `ckpt` host WLs.
fn prepare(w: &Window, kind: FtlKind, ckpt: u64) -> Device {
    let mut sim = SsdSim::new(w.ssd);
    let mut ftl = Ftl::new(kind, w.ftl);
    ftl.set_aging(w.aging);
    let prefill = (ftl.logical_pages() as f64 * 0.9) as u64;
    sim.prefill(&mut ftl, 0..prefill);
    if let Some(maint) = w.maint {
        ftl.enable_maintenance(maint);
        sim.enable_maintenance(maint.gap_us);
    }
    ftl.enable_checkpointing(ckpt);
    ftl.reset_stats();
    Device { sim, ftl }
}

/// The OOB record of the WL holding `ppn`, if that WL is complete.
fn complete_oob(ftl: &Ftl, ppn: Ppn) -> Option<WlOob> {
    let wl = ftl.geometry().page_unflat(ppn.page as usize).wl;
    let chip = ftl.array().chip(ppn.chip as usize).ok()?;
    chip.wl_oob(wl)
        .filter(|oob| oob.status == OobStatus::Complete)
}

/// Applies the power-cut physics to the frozen `ftl`, boots it and
/// checks properties (a)–(e); the error names the first violation.
fn check_cut(mut ftl: Ftl, event: &SpoEvent) -> Result<(), String> {
    let seq_at_cut = ftl.seq_counter();
    let dumped: HashSet<u64> = event.buffered_lpns.iter().copied().collect();
    // The OOB sequence number of the WL each LPN maps to at the cut.
    let mut at_cut = vec![None; ftl.logical_pages() as usize];
    for (lpn, seq) in at_cut.iter_mut().enumerate() {
        if let Some(ppn) = ftl.mapping().lookup(lpn as u64) {
            let oob = complete_oob(&ftl, ppn)
                .ok_or_else(|| format!("lpn {lpn} maps to an incomplete WL before the cut"))?;
            *seq = Some(oob.seq);
        }
    }
    for f in &event.interrupted_flushes {
        ftl.power_cut(f.chip, f.lpns, f.did_gc);
    }
    let (rec, _) = ftl.power_cycle(&event.buffered_lpns);
    rec.audit()
        .map_err(|e| format!("(e) audit after recovery: {e}"))?;
    let g = rec.geometry();
    for (lpn, was) in at_cut.into_iter().enumerate() {
        let lpn = lpn as u64;
        let dumped = dumped.contains(&lpn);
        let Some(ppn) = rec.mapping().lookup(lpn) else {
            if dumped || was.is_some() {
                return Err(format!("(a) durable lpn {lpn} is unmapped after recovery"));
            }
            continue;
        };
        let chip = rec.array().chip(ppn.chip as usize).expect("mapped chip");
        let tag = chip.page_tag(g.page_unflat(ppn.page as usize));
        if tag != Some(lpn) {
            return Err(format!(
                "(d) lpn {lpn} maps to {ppn:?}, whose tag is {tag:?}"
            ));
        }
        let oob = complete_oob(&rec, ppn);
        if dumped {
            if oob.is_none_or(|o| o.seq <= seq_at_cut) {
                return Err(format!(
                    "(c) dumped lpn {lpn} maps to {oob:?}, not a program after seq {seq_at_cut}"
                ));
            }
        } else if let Some(seq) = was {
            if oob.is_none_or(|o| o.seq < seq) {
                return Err(format!(
                    "(b) lpn {lpn} maps to {oob:?}, older than its seq {seq} at the cut"
                ));
            }
        }
    }
    Ok(())
}

/// The cut an armed `AtOps(ops)` trigger makes on a copy of `start`.
fn triggered(start: &Device, stream: &[HostRequest], ops: u64) -> SpoEvent {
    let mut d = start.clone();
    let mut host = Recorded::new(stream);
    d.sim
        .run_begin(stream.len() as u64, Some(SpoTrigger::AtOps(ops)));
    while d.sim.run_step(&mut d.ftl, &mut host, u64::MAX) == StepOutcome::Running {}
    d.sim.run_end(&d.ftl).1.expect("the trigger fires")
}

/// A migration's progress in the counters: blocks it finished, pages it
/// moved.
type Progress = fn(&FtlStats) -> (u64, u64);

/// GC's progress: victims released, pages moved.
fn gc(s: &FtlStats) -> (u64, u64) {
    (s.gc_runs, s.gc_page_moves)
}

/// Scrubbing's progress: blocks refreshed, pages moved.
fn scrub(s: &FtlStats) -> (u64, u64) {
    (s.scrub_blocks, s.scrub_page_moves)
}

/// Cuts `kind`'s run at every completed-request boundary of `w`, once
/// per checkpoint cadence. Returns how many cuts landed inside a
/// half-moved block, by `progress`: pages moved since the last block it
/// finished.
fn sweep(w: &Window, kind: FtlKind, progress: Progress) -> u64 {
    let mut inside = 0;
    for &ckpt in w.ckpts {
        let start = prepare(w, kind, ckpt);
        let stream: Vec<HostRequest> = StandardWorkload::Oltp
            .build(start.ftl.logical_pages(), 42)
            .take(w.requests)
            .collect();
        let mut dev = start.clone();
        let mut host = Recorded::new(&stream);
        dev.sim.run_begin(stream.len() as u64, None);
        let (mut cuts, mut compared) = (0u64, 0u64);
        // Pages moved when the last block was finished.
        let mut finished = (0, 0);
        let mut failures = Vec::new();
        loop {
            let before = host.completed;
            let outcome = dev.sim.run_step(&mut dev.ftl, &mut host, 1);
            let (blocks, moves) = progress(&dev.ftl.stats());
            if blocks != finished.0 {
                finished = (blocks, moves);
            }
            if host.completed > before {
                inside += u64::from(moves > finished.1);
                let mut fork = dev.clone();
                fork.sim.cut_power();
                let event = fork.sim.run_end(&fork.ftl).1.expect("the cut is recorded");
                assert_eq!(event.completed, host.completed);
                if cuts % w.stride == 0 {
                    assert_eq!(
                        event,
                        triggered(&start, &stream, host.completed),
                        "{} ckpt {ckpt}: the fork cut at op {} differs from a real trigger",
                        kind.name(),
                        host.completed
                    );
                    compared += 1;
                }
                if let Err(e) = check_cut(fork.ftl, &event) {
                    failures.push(format!("op {}: {e}", host.completed));
                }
                cuts += 1;
            }
            if outcome == StepOutcome::Drained {
                break;
            }
        }
        assert!(
            failures.is_empty(),
            "{} ckpt {ckpt}: {} of {cuts} cuts failed, first: {}",
            kind.name(),
            failures.len(),
            failures[0]
        );
        assert_eq!(host.completed, stream.len() as u64, "the run drained");
        assert!(cuts > stream.len() as u64 / 2 && compared > 1);
        if ckpt > 0 {
            assert!(
                dev.ftl.checkpoints_taken() > 0,
                "the window flushes a checkpoint"
            );
        }
    }
    inside
}

#[test]
fn page_ftl_recovers_at_every_cut() {
    sweep(&window(), FtlKind::Page, gc);
}

#[test]
fn vert_ftl_recovers_at_every_cut() {
    sweep(&window(), FtlKind::Vert, gc);
}

#[test]
fn cube_minus_ftl_recovers_at_every_cut() {
    sweep(&window(), FtlKind::CubeMinus, gc);
}

#[test]
fn cube_ftl_recovers_at_every_cut() {
    sweep(&window(), FtlKind::Cube, gc);
}

#[test]
fn cube_ftl_recovers_at_cuts_inside_gc_units() {
    let inside = sweep(&units_window(), FtlKind::Cube, gc);
    assert!(inside > 0, "no cut landed inside a half-migrated GC victim");
}

#[test]
fn cube_ftl_recovers_at_cuts_inside_scrub_refreshes() {
    let inside = sweep(&scrub_window(), FtlKind::Cube, scrub);
    assert!(
        inside > 0,
        "no cut landed inside a half-moved scrub refresh"
    );
}
