//! Criterion benchmark of the full pipeline: workload generator →
//! closed-loop simulator → FTL → NAND model. Measures simulator
//! throughput (simulated host requests per wall-clock second) for the
//! paper's headline comparison pair.

use bench::eval;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cubeftl::harness::EvalConfig;
use cubeftl::{AgingState, FtlKind, StandardWorkload};
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let cfg = EvalConfig::smoke();

    let mut group = c.benchmark_group("sim/mail_fresh");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.requests));
    for kind in [FtlKind::Page, FtlKind::Cube] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| black_box(eval(kind, StandardWorkload::Mail, AgingState::Fresh, &cfg)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("sim/rocks_eol");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cfg.requests));
    for kind in [FtlKind::Page, FtlKind::Cube] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                black_box(eval(
                    kind,
                    StandardWorkload::Rocks,
                    AgingState::EndOfLife,
                    &cfg,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
