//! Macro-benchmarks: whole solver steps at reduced scale, executed for
//! real on this host — the DSL targets side by side with the hand-written
//! baseline. (The paper-scale comparisons use the figure binaries; these
//! benches track regressions in the actual execution paths.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pbte_baseline::BaselineSolver;
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::GpuStrategy;
use pbte_gpu::DeviceSpec;

fn cfg(steps: usize) -> BteConfig {
    BteConfig::small(12, 8, 8, steps)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_12x12_8dirs_10bands_5steps");
    group.sample_size(10);

    group.bench_function("dsl_cpu_seq", |b| {
        b.iter_batched(
            || hotspot_2d(&cfg(5)).solver(ExecTarget::CpuSeq).unwrap(),
            |mut s| {
                black_box(s.solve().unwrap());
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("dsl_cpu_parallel", |b| {
        b.iter_batched(
            || hotspot_2d(&cfg(5)).solver(ExecTarget::CpuParallel).unwrap(),
            |mut s| {
                black_box(s.solve().unwrap());
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("dsl_gpu_hybrid", |b| {
        b.iter_batched(
            || {
                hotspot_2d(&cfg(5))
                    .solver(ExecTarget::GpuHybrid {
                        spec: DeviceSpec::a6000(),
                        strategy: GpuStrategy::AsyncBoundary,
                    })
                    .unwrap()
            },
            |mut s| {
                black_box(s.solve().unwrap());
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("baseline_hand_written", |b| {
        b.iter_batched(
            || BaselineSolver::new(&cfg(5)),
            |mut s| {
                s.run(5);
                black_box(s.temperature()[0]);
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_targets_3steps");
    group.sample_size(10);
    group.bench_function("dist_cells_4ranks", |b| {
        b.iter_batched(
            || {
                hotspot_2d(&cfg(3))
                    .solver(ExecTarget::DistCells { ranks: 4 })
                    .unwrap()
            },
            |mut s| {
                black_box(s.solve().unwrap());
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("dist_bands_4ranks", |b| {
        b.iter_batched(
            || {
                hotspot_2d(&cfg(3))
                    .solver(ExecTarget::DistBands {
                        ranks: 4,
                        index: "b".into(),
                    })
                    .unwrap()
            },
            |mut s| {
                black_box(s.solve().unwrap());
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_distributed);
criterion_main!(benches);
