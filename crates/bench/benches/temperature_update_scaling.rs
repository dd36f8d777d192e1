//! Scaling behaviour of the post-step temperature update — one lane per
//! ownership scope of the block kernel (`pbte_bte::temperature`).
//!
//! 1. **Threading** — the same full update at 1, 2, and 4 rayon threads
//!    (`serial` is one chunk, no pool involved; threaded, the cells are
//!    cut into block-aligned chunks inside one parallel region). The
//!    mesh is 64 × 64 — eight 512-cell blocks, so one, two and four
//!    threads all get whole blocks. On a multi-core host the threaded
//!    rows shrink with the thread count; on a single-core host (like CI
//!    containers) they measure only the chunking overhead. `serial_die`
//!    is the serial update on the benchmark's own hot-spot die (64 × 64
//!    cells, 12 directions × 11 band groups) — what `hotspot_seq` pays
//!    48 times per run; there every solve converges at the lockstep first
//!    Newton iteration. `serial_die_far` is the same die with `T_old`
//!    displaced by 7 K, so every solve continues past the first iteration
//!    in the scalar loop.
//! 2. **Cell ownership** — `owned_cells_gapped` updates every cell except
//!    each 37th: an owned-cell list whose runs the kernel must cut into
//!    blocks without crossing a gap, as a cell-partitioned rank does.
//! 3. **Newton strategy** — per-rank work of one band-partitioned rank
//!    out of 4 under `RedundantNewton` (solves all cells, the paper's
//!    behaviour) vs `DividedNewton` (solves `n_cells/4`). The reducer
//!    runs only this rank's part of each fold and moves nothing, so this
//!    isolates compute; the communication side
//!    of the trade lives in the α–β model (`FigureModel`).
//!
//! No timing assertions are made anywhere — the numbers are for
//! eyeballing; correctness (every scope, block length and thread count
//! bit-identical to a cells-outer oracle) is covered by
//! `crates/bte/tests/temperature_blocks.rs`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_bte::temperature::{TemperatureStrategy, TemperatureUpdate};
use pbte_dsl::exec::CompiledProblem;
use pbte_dsl::problem::{Reducer, StepContext};
use pbte_dsl::Fields;
use std::hint::black_box;

/// Stand-in for one rank of a band-partitioned world: a fold applies this
/// rank's `add` and moves nothing (compute-only measurement), rank/size
/// drive the cell slicing.
struct FakeRank {
    rank: usize,
    n_ranks: usize,
}

impl Reducer for FakeRank {
    fn fold(&mut self, buf: &mut [f64], add: &mut dyn FnMut(&mut [f64])) {
        add(buf)
    }
    fn rank(&self) -> usize {
        self.rank
    }
    fn n_ranks(&self) -> usize {
        self.n_ranks
    }
}

struct Setup {
    cp: CompiledProblem,
    fields: Fields,
    upd: TemperatureUpdate,
}

fn setup(cfg: BteConfig) -> Setup {
    let bte = hotspot_2d(&cfg);
    let material = bte.material.clone();
    let vars = bte.vars;
    let (cp, fields) = CompiledProblem::compile(bte.problem).expect("compiles");
    Setup {
        cp,
        fields,
        upd: TemperatureUpdate::new(material, vars),
    }
}

/// One full update on a fields clone, with an explicit thread capability
/// and ownership/reducer configuration.
#[allow(clippy::too_many_arguments)]
fn run_update(
    s: &Setup,
    fields: &mut Fields,
    threads: usize,
    owned_bands: Option<std::ops::Range<usize>>,
    owned_cells: Option<&[usize]>,
    reducer: &mut dyn Reducer,
    strategy: TemperatureStrategy,
) {
    let upd = s.upd.clone().with_strategy(strategy);
    let mut rec = pbte_dsl::exec::Recorder::null();
    let mut ctx = StepContext {
        fields,
        mesh: s.cp.mesh(),
        time: 0.0,
        step: 0,
        owned_index_range: owned_bands.map(|r| ("b".to_string(), r)),
        owned_cells,
        reducer,
        threads,
        rec: &mut rec,
    };
    upd.run(&mut ctx);
    black_box(rec.work);
}

fn bench_threading(c: &mut Criterion) {
    let s = setup(BteConfig::small(64, 8, 10, 1));
    let die = setup(BteConfig::small(64, 12, 8, 1));
    let mut die_far = setup(BteConfig::small(64, 12, 8, 1));
    let t = die_far.upd.vars.t;
    die_far
        .fields
        .slice_mut(t)
        .iter_mut()
        .for_each(|t| *t += 7.0);
    let gapped: Vec<usize> = (0..s.fields.n_cells).filter(|c| c % 37 != 36).collect();
    let mut group = c.benchmark_group("temperature_update");
    group.sample_size(20);
    let lanes: [(&str, &Setup, Option<&[usize]>); 4] = [
        ("serial", &s, None),
        ("serial_die", &die, None),
        ("serial_die_far", &die_far, None),
        ("owned_cells_gapped", &s, Some(&gapped)),
    ];
    for (name, s, owned) in lanes {
        group.bench_function(name, |b| {
            let mut reducer = pbte_dsl::exec::LocalLinks;
            b.iter_batched(
                || s.fields.clone(),
                |mut f| run_update(s, &mut f, 1, None, owned, &mut reducer, Default::default()),
                BatchSize::LargeInput,
            )
        });
    }
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_function(&format!("threaded_x{threads}"), |b| {
            let mut reducer = pbte_dsl::exec::LocalLinks;
            b.iter_batched(
                || s.fields.clone(),
                |mut f| {
                    pool.install(|| {
                        // threads.max(2) forces the chunked code path even
                        // for the x1 row, so x1 vs serial shows the pure
                        // chunking overhead.
                        let t = threads.max(2).min(pool.current_num_threads().max(2));
                        run_update(&s, &mut f, t, None, None, &mut reducer, Default::default())
                    })
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_newton_strategy(c: &mut Criterion) {
    let s = setup(BteConfig::small(24, 8, 10, 1));
    let n_bands = s.upd.material.n_bands();
    let p = 4;
    let owned = 0..n_bands.div_ceil(p);
    let mut group = c.benchmark_group("newton_strategy_rank0_of_4");
    group.sample_size(20);
    for (name, strategy) in [
        ("redundant", TemperatureStrategy::RedundantNewton),
        ("divided", TemperatureStrategy::DividedNewton),
    ] {
        let owned = owned.clone();
        group.bench_function(name, |b| {
            let mut reducer = FakeRank {
                rank: 0,
                n_ranks: p,
            };
            b.iter_batched(
                || s.fields.clone(),
                |mut f| {
                    let bands = Some(owned.clone());
                    run_update(&s, &mut f, 1, bands, None, &mut reducer, strategy)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_threading, bench_newton_strategy);
criterion_main!(benches);
