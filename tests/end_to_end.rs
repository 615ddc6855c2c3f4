//! Cross-crate integration tests: workloads → simulator → FTL → NAND.

mod common;

use common::eval;
use cubeftl::harness::{EvalConfig, Scenario, ScenarioError};
use cubeftl::{AgingState, FtlKind, StandardWorkload};

fn smoke() -> EvalConfig {
    EvalConfig::smoke()
}

#[test]
fn every_ftl_completes_every_workload_fresh() {
    let cfg = smoke();
    for kind in FtlKind::ALL {
        for workload in StandardWorkload::ALL {
            let r = eval(kind, workload, AgingState::Fresh, &cfg);
            assert_eq!(
                r.completed,
                cfg.requests,
                "{} under {} lost requests",
                kind.name(),
                workload.label()
            );
            assert!(r.iops > 0.0);
        }
    }
}

#[test]
fn every_ftl_survives_end_of_life() {
    let cfg = smoke();
    for kind in FtlKind::ALL {
        let r = eval(kind, StandardWorkload::Mail, AgingState::EndOfLife, &cfg);
        assert_eq!(r.completed, cfg.requests, "{}", kind.name());
    }
}

#[test]
fn aged_reads_are_slower_for_the_ps_unaware_baseline() {
    // §6.2: read retries appear with aging and hurt pageFTL.
    let cfg = smoke();
    let fresh = eval(
        FtlKind::Page,
        StandardWorkload::Web,
        AgingState::Fresh,
        &cfg,
    );
    let aged = eval(
        FtlKind::Page,
        StandardWorkload::Web,
        AgingState::EndOfLife,
        &cfg,
    );
    assert_eq!(fresh.ftl.read_retries, 0, "fresh state must not retry");
    assert!(aged.ftl.read_retries > 0, "EOL must retry");
    assert!(aged.iops < fresh.iops, "retries must cost IOPS");
}

#[test]
fn cube_reduces_retries_against_page_at_end_of_life() {
    let cfg = smoke();
    let page = eval(
        FtlKind::Page,
        StandardWorkload::Proxy,
        AgingState::EndOfLife,
        &cfg,
    );
    let cube = eval(
        FtlKind::Cube,
        StandardWorkload::Proxy,
        AgingState::EndOfLife,
        &cfg,
    );
    // Normalize per NAND read (the FTLs may issue different GC reads).
    let page_rate = page.ftl.read_retries as f64 / page.ftl.nand_reads.max(1) as f64;
    let cube_rate = cube.ftl.read_retries as f64 / cube.ftl.nand_reads.max(1) as f64;
    assert!(
        cube_rate < 0.55 * page_rate,
        "retry rate: cube {cube_rate:.3} vs page {page_rate:.3} (paper: −66%)"
    );
}

#[test]
fn cube_uses_followers_page_does_not_optimize() {
    let cfg = smoke();
    let cube = eval(
        FtlKind::Cube,
        StandardWorkload::Oltp,
        AgingState::Fresh,
        &cfg,
    );
    assert!(
        cube.ftl.follower_wl_programs * 2 > cube.ftl.host_wl_programs,
        "cubeFTL should serve most OLTP writes from follower WLs"
    );
}

#[test]
fn vert_beats_page_cube_beats_vert_on_writes() {
    // Fig. 17(a) ordering for a write-heavy workload.
    let cfg = smoke();
    let page = eval(
        FtlKind::Page,
        StandardWorkload::Oltp,
        AgingState::Fresh,
        &cfg,
    );
    let vert = eval(
        FtlKind::Vert,
        StandardWorkload::Oltp,
        AgingState::Fresh,
        &cfg,
    );
    let cube = eval(
        FtlKind::Cube,
        StandardWorkload::Oltp,
        AgingState::Fresh,
        &cfg,
    );
    assert!(
        vert.iops > page.iops,
        "vertFTL {} vs pageFTL {}",
        vert.iops,
        page.iops
    );
    assert!(
        cube.iops > vert.iops,
        "cubeFTL {} vs vertFTL {}",
        cube.iops,
        vert.iops
    );
}

#[test]
fn chip_counts_that_disagree_are_a_typed_error() {
    // The simulator and the FTL each keep a chip count; a scenario whose
    // two counts differ is refused before anything runs.
    for chips in [4, 16] {
        let mut cfg = smoke();
        cfg.ssd.chips = chips;
        let sc = Scenario::new(
            FtlKind::Cube,
            StandardWorkload::Mail,
            AgingState::Fresh,
            &cfg,
        );
        let want = ScenarioError::ChipsDisagree {
            ssd: chips,
            ftl: cfg.ftl.chips,
        };
        assert_eq!(sc.validate(), Err(want.clone()));
        assert_eq!(sc.run().err(), Some(want.clone()));
        let message = want.to_string();
        assert!(message.contains(&format!("{chips} chips")), "{message}");
        assert!(message.contains("sized for 8"), "{message}");
    }
}

#[test]
fn reports_are_internally_consistent() {
    let cfg = smoke();
    let r = eval(
        FtlKind::Cube,
        StandardWorkload::Mongo,
        AgingState::MidLife,
        &cfg,
    );
    assert_eq!(r.reads + r.writes, r.completed);
    assert_eq!(r.read_latency.len(), r.reads);
    assert_eq!(r.write_latency.len(), r.writes);
    assert!(r.sim_time_us > 0.0);
    let computed_iops = r.completed as f64 / (r.sim_time_us / 1e6);
    assert!((computed_iops - r.iops).abs() / r.iops < 1e-9);
}

#[test]
fn trims_flow_through_the_stack_and_reduce_gc_work() {
    // The Rocks workload TRIMs compacted SSTable ranges; the trimmed
    // pages become migration-free garbage, so GC moves fewer valid
    // pages than it would if the same stream carried no TRIMs.
    let mut cfg = EvalConfig::reduced();
    cfg.requests = 20_000;
    cfg.prefill_fraction = 0.95;
    let r = eval(
        FtlKind::Cube,
        StandardWorkload::Rocks,
        AgingState::Fresh,
        &cfg,
    );
    assert!(r.trims > 0, "Rocks must issue TRIMs");
    assert!(r.ftl.host_trims > 0, "TRIMs must reach the FTL mapping");
    assert_eq!(r.completed, cfg.requests);
}

#[test]
fn write_amplification_exceeds_one_under_gc() {
    let mut cfg = EvalConfig::reduced();
    cfg.requests = 70_000;
    cfg.prefill_fraction = 0.97;
    // Mongo's random leaf updates scatter invalidations, so GC victims
    // carry valid pages to migrate (unlike pure log overwrites, which
    // invalidate whole blocks and make GC free).
    let r = eval(
        FtlKind::Page,
        StandardWorkload::Mongo,
        AgingState::Fresh,
        &cfg,
    );
    let wa = r.wa_host().expect("Mongo writes");
    assert!(r.ftl.gc_runs > 0);
    assert!(wa > 1.0, "GC migrations must amplify writes: {wa}");
    assert!(
        wa < 4.0,
        "WA {wa} implausibly high for 12.5% OP at this utilization"
    );
}

#[test]
fn mail_deletes_files_via_trim() {
    let cfg = smoke();
    let r = eval(
        FtlKind::Page,
        StandardWorkload::Mail,
        AgingState::Fresh,
        &cfg,
    );
    assert!(r.trims > 0, "varmail constantly deletes mail files");
}

#[test]
fn larger_scale_run_is_stable() {
    // One reduced-scale cell as a deeper smoke test (GC active).
    let mut cfg = EvalConfig::reduced();
    cfg.requests = 25_000;
    cfg.prefill_fraction = 0.95;
    let r = eval(
        FtlKind::Cube,
        StandardWorkload::Oltp,
        AgingState::MidLife,
        &cfg,
    );
    assert_eq!(r.completed, cfg.requests);
    assert!(
        r.ftl.gc_runs > 0,
        "reduced scale at 0.95 prefill must trigger GC"
    );
}

#[test]
fn write_heavy_trace_survives_a_lifetime_epoch() {
    // The write-heavy MSR usr trace replayed inside a fast-forward
    // aging campaign: the full stack (trace folding -> simulator -> FTL
    // -> per-block NAND aging) holds together when the device ages
    // between replays.
    use cubeftl::LifetimeConfig;

    let cfg = smoke();
    let trace = common::msr_trace("traces/msr_usr_wr.csv");
    let mut life = LifetimeConfig::campaign();
    life.epochs = 2;
    let r = common::run(&Scenario {
        lifetime: Some(life),
        ..Scenario::new(FtlKind::Cube, &trace, AgingState::Fresh, &cfg)
    });
    assert_eq!(r.epochs().count(), 2);
    let summaries = &r.aging.as_ref().expect("campaign ran").summaries;
    assert_eq!(summaries.len(), 1, "one aging step between the replays");
    assert!(summaries[0][0].blocks_aged > 0);
    for rep in r.epochs() {
        assert_eq!(rep.merged.completed, trace.len() as u64);
        assert!(
            rep.merged.writes > rep.merged.reads,
            "the usr volume is write-heavy"
        );
    }
}

/// On 32 blocks per chip the `write_gc` ledger line (Fig. 17's OLTP on a
/// fresh device) is bound by the foreground floor: most flushes drain a
/// whole victim before their own WL program. A flush that ran the floor
/// yields to a queued host read at its next step boundary, as a GC unit
/// does, and a read queues ahead of a queued one. So the longest read
/// is bounded by one GC step (three page reads and one WL program), the
/// host WL program of a flush ahead of it, and the read itself at its
/// most retries plus its page transfer and submission. A floor flush
/// spreads its erase over its steps, so a flush that moved few WLs has
/// longer steps than that; this line stays well inside the bound.
#[test]
fn write_gc_line_on_32_blocks_serves_every_read_within_a_gc_step_and_a_program() {
    let (stdout, text) = common::cli_metrics(
        "write_gc_32_blocks",
        "--ftl cube --workload oltp --aging fresh --blocks 32 --requests 30000 --seed 42",
    );
    assert!(
        common::metric(&text, "ssd.ftl.gc_runs", "value") > 0.0,
        "{stdout}"
    );
    let (read_max, program_max) = common::nand_worst_us();
    let gc_step = 3.0 * read_max + program_max;
    let bound = gc_step + program_max + read_max + common::READ_BUS_AND_SUBMIT_US;
    let longest = common::metric(&text, "ssd.read_latency_us", "max");
    assert!(
        longest <= bound,
        "a host read took {longest} µs, over one GC step, one program and one read ({bound} µs)"
    );
}
