//! Criterion benchmarks of FTL operations: sustained WL writes (with GC)
//! and page reads, per FTL variant, at `FtlConfig::small()`; plus the
//! OPM erase hook and a steady-state GC cycle at evaluation geometry.
//!
//! `FtlConfig::small()` (8 blocks × 8 h-layers, 2 chips) is not enough
//! on its own: a cost that grows with the size of the FTL's tables —
//! the OPM once walked every monitored h-layer of the device on every
//! erase — is invisible on a 128-entry table. `opm/invalidate_block`
//! and `ftl/gc_cycle` therefore run at the reduced (64 blocks × 48
//! h-layers × 8 chips) and paper (428 blocks) geometries, where such a
//! term shows as a ratio between the two sizes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cubeftl::harness::EvalConfig;
use ftl::{Ftl, FtlConfig, FtlKind, Opm};
use nand3d::{BlockId, IsppEngine, LoopInterval, NandConfig, ProgramReport, NUM_PROGRAM_STATES};
use ssdsim::detrand::mix64;
use ssdsim::{FtlDriver, HostContext};
use std::hint::black_box;

fn ctx() -> HostContext {
    HostContext {
        buffer_utilization: 0.95,
        now_us: 0.0,
    }
}

fn bench_ftl(c: &mut Criterion) {
    let cfg = FtlConfig::small();

    let mut group = c.benchmark_group("ftl/write_wl");
    for kind in FtlKind::ALL {
        group.bench_function(kind.name(), |b| {
            // Fresh FTL per batch so GC state stays comparable.
            b.iter_batched_ref(
                || (Ftl::new(kind, cfg), 0u64),
                |(ftl, lpn)| {
                    let lpns = [*lpn % 900, (*lpn + 1) % 900, (*lpn + 2) % 900];
                    *lpn += 3;
                    black_box(ftl.write_wl(0, lpns, &ctx()));
                },
                BatchSize::NumIterations(256),
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ftl/read_page");
    for kind in [FtlKind::Page, FtlKind::Cube] {
        let mut ftl = Ftl::new(kind, cfg);
        for i in 0..300u64 {
            let lpns = [i * 3, i * 3 + 1, i * 3 + 2];
            ftl.write_wl((i % 2) as usize, lpns, &ctx());
        }
        ftl.set_aging(nand3d::AgingState::EndOfLife);
        let mut lpn = 0u64;
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                lpn = (lpn + 7) % 900;
                black_box(ftl.read_page(lpn, &ctx()))
            })
        });
    }
    group.finish();
}

/// An OPM for 8 chips of `blocks` paper-shaped blocks with leader
/// parameters recorded on every h-layer: the table as it stands once
/// the device has been written through.
fn full_opm(blocks: u32) -> Opm {
    let mut nand = NandConfig::paper();
    nand.geometry.blocks_per_chip = blocks;
    let g = nand.geometry;
    let engine = IsppEngine::new(nand.model);
    let report = ProgramReport {
        latency_us: 700.0,
        loop_intervals: [LoopInterval { lmin: 2, lmax: 3 }; NUM_PROGRAM_STATES],
        ber_ep1: 1e-4,
        post_ber: 1e-4,
        pulses: 11,
        verifies: 50,
        margin_excess_loops: 0,
        disturbed: false,
        pe_cycles: 0,
        aborted: false,
    };
    let mut opm = Opm::new(&g, 8);
    for chip in 0..8 {
        for block in 0..blocks {
            for h in 0..g.hlayers_per_block {
                opm.record_leader(chip, g.wl_addr(BlockId(block), h, 0), &report, &engine);
            }
        }
    }
    opm
}

fn bench_opm_erase(c: &mut Criterion) {
    let mut group = c.benchmark_group("opm/invalidate_block");
    for (scale, blocks) in [("reduced_64x48x8", 64u32), ("paper_428x48x8", 428)] {
        let full = full_opm(blocks);
        group.bench_function(scale, |b| {
            // Every iteration erases a block whose h-layers are all
            // monitored, out of a table that is still (nearly) full.
            b.iter_batched_ref(
                || (full.clone(), 0u32),
                |(opm, i)| {
                    opm.invalidate_block((*i % 8) as usize, *i / 8 % blocks);
                    *i += 1;
                    black_box(opm.pending_layers())
                },
                BatchSize::NumIterations(u64::from(blocks) * 8),
            )
        });
    }
    group.finish();
}

fn bench_gc_cycle(c: &mut Criterion) {
    let cfg = EvalConfig::reduced().ftl_config();
    let mut ftl = Ftl::cube(cfg);
    // Fill 0.9 of the logical space, then overwrite at random until
    // every chip collects steadily.
    let span = ftl.logical_pages() * 9 / 10;
    for wl in 0..span / 3 {
        let lpns = [wl * 3, wl * 3 + 1, wl * 3 + 2];
        ftl.write_wl((wl % cfg.chips as u64) as usize, lpns, &ctx());
    }
    let mut draws = 0u64;
    let mut chip = 0;
    let mut write_random_wl = |ftl: &mut Ftl| {
        chip = (chip + 1) % cfg.chips;
        let lpns = [(); 3].map(|()| {
            draws += 1;
            mix64(draws) % span
        });
        ftl.write_wl(chip, lpns, &ctx())
    };
    while ftl.stats().gc_runs < 32 * cfg.chips as u64 {
        write_random_wl(&mut ftl);
    }

    let mut group = c.benchmark_group("ftl/gc_cycle");
    group.bench_function(FtlKind::Cube.name(), |b| {
        // One steady-state cycle: the host WL writes up to and including
        // the one whose GC reclaims a block (victim selection, ~440 page
        // moves, the erase and its OPM invalidation).
        b.iter(|| while !write_random_wl(&mut ftl).did_gc {})
    });
    group.finish();
}

criterion_group!(benches, bench_ftl, bench_opm_erase, bench_gc_cycle);
criterion_main!(benches);
