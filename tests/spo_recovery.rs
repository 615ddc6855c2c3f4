//! End-to-end sudden-power-off recovery: the acceptance tests for the
//! crash-consistency subsystem.
//!
//! A single-device scenario with an [`SpoConfig`] runs its seeded
//! workload until the armed trigger cuts it short, then applies the
//! power-cut physics (torn WL programs, interrupted erases), boots a
//! fresh FTL from flash contents alone ([`cubeftl::Ftl::power_cycle`])
//! and resumes the remainder. The contract under test:
//!
//! * **zero host-acknowledged data loss** — every LPN that was mapped
//!   or PLP-buffer-resident at the cut is mapped after recovery;
//! * **bounded recovery scan** — with periodic checkpoints, recovery
//!   fully OOB-scans only the blocks programmed since the last
//!   checkpoint, not the whole array;
//! * **cold monitored state** — the OPM/ORT are rebuilt from nothing
//!   (re-monitored on first touch per h-layer), never deserialized.

mod common;

use cubeftl::harness::{CrashReport, EvalConfig, Phase, RunOutput, Scenario, SpoConfig};
use cubeftl::{AgingState, FtlKind, SpoTrigger, StandardWorkload};

/// One single-device crash experiment: the run and its crash part,
/// whose `events[0]` / `recoveries[0]` are `None` if the trigger never
/// fired.
fn crash_run(
    kind: FtlKind,
    workload: StandardWorkload,
    aging: AgingState,
    spo: SpoConfig,
) -> (RunOutput, CrashReport) {
    let out = common::run(&Scenario {
        spo: Some(spo),
        ..Scenario::new(kind, workload, aging, &EvalConfig::smoke())
    });
    let crash = out.crash.clone().expect("a cut was armed");
    (out, crash)
}

fn spo_run(kind: FtlKind, cut_at: u64, ckpt_interval: u64) -> (RunOutput, CrashReport) {
    let spo = SpoConfig {
        trigger: SpoTrigger::AtOps(cut_at),
        ckpt_interval_host_wls: ckpt_interval,
    };
    crash_run(kind, StandardWorkload::Oltp, AgingState::MidLife, spo)
}

#[test]
fn spo_recovery_loses_no_acknowledged_write() {
    for kind in [FtlKind::Page, FtlKind::Cube] {
        let (out, r) = spo_run(kind, 900, 64);
        let rec = r.recoveries[0].expect("trigger armed at op 900 must fire");
        assert!(
            r.lost_lpns.is_empty(),
            "{}: lost host-acknowledged LPNs {:?} (recovery: {rec:?})",
            kind.name(),
            r.lost_lpns
        );
        // The cut happened mid-traffic: something must have actually been
        // at risk, otherwise the test proves nothing.
        let spo = r.events[0].as_ref().expect("event captured");
        assert!(spo.completed >= 900, "cut after 900 completions");
        assert!(
            !spo.buffered_lpns.is_empty() || !spo.interrupted_flushes.is_empty(),
            "{}: the cut should catch in-flight state",
            kind.name()
        );
        assert_eq!(
            rec.plp_pages_replayed,
            spo.buffered_lpns.len() as u64,
            "every PLP-dumped page is re-written during recovery"
        );
        // The resumed run drains the workload remainder.
        let resumed = out.phase(Phase::Resumed).expect("workload had a remainder");
        assert!(resumed.merged.completed > 0);
    }
}

#[test]
fn recovery_rebuilds_map_from_checkpoint_plus_bounded_scan() {
    let (_, r) = spo_run(FtlKind::Cube, 1200, 32);
    let rec = r.recoveries[0].expect("recovery ran");
    assert!(
        r.checkpoints_taken > 0,
        "interval 32 must checkpoint before op 1200"
    );
    assert!(rec.checkpoint_loaded, "recovery must find the checkpoint");
    assert!(
        rec.ckpt_entries_restored > 0,
        "the bulk of the map comes from the checkpoint"
    );
    // Every block gets one metadata-page probe; only the ones programmed
    // since the checkpoint get the full OOB scan.
    assert_eq!(rec.blocks_probed, r.total_blocks);
    assert!(
        rec.blocks_scanned < r.total_blocks,
        "scan must be bounded: {} of {} blocks scanned",
        rec.blocks_scanned,
        r.total_blocks
    );
    assert!(rec.nand_us > 0.0, "recovery charges NAND time");
}

#[test]
fn without_checkpoints_recovery_scans_more_but_still_loses_nothing() {
    let (_, with_ckpt) = spo_run(FtlKind::Cube, 1000, 32);
    let (_, without) = spo_run(FtlKind::Cube, 1000, 0);
    let (a, b) = (
        with_ckpt.recoveries[0].expect("recovery ran"),
        without.recoveries[0].expect("recovery ran"),
    );
    assert!(!b.checkpoint_loaded, "interval 0 disables checkpointing");
    assert_eq!(b.ckpt_entries_restored, 0);
    assert!(
        b.blocks_scanned > a.blocks_scanned,
        "no checkpoint ⇒ every written block is scanned ({} vs {})",
        b.blocks_scanned,
        a.blocks_scanned
    );
    assert!(
        b.oob_records_replayed > a.oob_records_replayed,
        "the whole map is rebuilt from OOB replay alone"
    );
    assert!(without.lost_lpns.is_empty(), "OOB replay alone is lossless");
}

#[test]
fn torn_wls_are_quarantined_and_their_layers_demoted() {
    // A late cut on the cube FTL: flush batches are in flight on several
    // chips, so their WLs are torn and (for the PS-aware FTL) their
    // h-layers must boot demoted.
    let (_, r) = spo_run(FtlKind::Cube, 1500, 64);
    let spo = r.events[0].as_ref().expect("event captured");
    let rec = r.recoveries[0].expect("recovery ran");
    if spo.interrupted_flushes.is_empty() {
        // Nothing was in flight at this cut point: nothing to quarantine.
        assert_eq!(rec.torn_wls_quarantined, 0);
        return;
    }
    assert!(
        rec.torn_wls_quarantined > 0,
        "in-flight flushes {:?} must tear WLs",
        spo.interrupted_flushes
    );
    assert!(
        rec.layers_demoted > 0,
        "cubeFTL quarantines torn WLs' h-layers via the §4.1.4 path"
    );
    assert!(
        r.lost_lpns.is_empty(),
        "torn data is PLP-replayed, not lost"
    );
}

#[test]
fn seeded_random_trigger_is_reproducible() {
    let spo = SpoConfig {
        trigger: SpoTrigger::Seeded {
            seed: 0xB007,
            rate: 0.002,
        },
        ckpt_interval_host_wls: 64,
    };
    let run = || {
        crash_run(
            FtlKind::Cube,
            StandardWorkload::Mail,
            AgingState::Fresh,
            spo,
        )
        .1
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.events, b.events,
        "same SPO seed ⇒ identical cut point and device snapshot"
    );
    assert_eq!(format!("{:?}", a.recoveries), format!("{:?}", b.recoveries));
    assert!(a.lost_lpns.is_empty());
}

#[test]
fn unfired_trigger_leaves_the_run_untouched() {
    // A trigger beyond the request count never fires. Without periodic
    // checkpoints the run must equal the same scenario with no SPO
    // machinery at all, bit for bit: a dormant trigger may not perturb
    // the event path.
    let (out, r) = spo_run(FtlKind::Cube, u64::MAX, 0);
    assert_eq!(r.shards_cut(), 0);
    assert!(r.recoveries[0].is_none() && out.phase(Phase::Resumed).is_none());
    assert!(r.lost_lpns.is_empty());
    let plain = common::run(&Scenario::new(
        FtlKind::Cube,
        StandardWorkload::Oltp,
        AgingState::MidLife,
        &EvalConfig::smoke(),
    ));
    assert_eq!(format!("{:?}", out.phases), format!("{:?}", plain.phases));
}
