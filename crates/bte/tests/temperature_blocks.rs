//! The blocked temperature kernel against a cells-outer oracle.
//!
//! `TemperatureUpdate::run_blocked` cuts the cells into blocks, thread
//! chunks and owned-cell runs; none of that may change a cell's
//! arithmetic. The oracle below is the naive per-cell reference — written
//! from `table().io`, `beta_table().get` and `solve_counted` only, one
//! cell at a time, with whole-grid buffers — and the kernel must match it
//! bit for bit on `T`, `Io` and `beta`, with equal Newton iteration
//! count, solve count and iteration histogram, in every ownership scope:
//!
//! 1. everything owned, at 1, 2 and 3 threads;
//! 2. a band range (one rank of a band-partitioned world) under both
//!    Newton strategies, with a recording reducer that must see the same
//!    folds — order, lengths, contents — from both;
//! 3. an owned-cell list with gaps and single-cell runs.
//!
//! Temperatures are drawn inside, at and outside the table range with an
//! occasional NaN; the block length goes through the kernel's parameter,
//! so block edges fall everywhere relative to the mesh, the thread chunks
//! and the owned runs. The block Newton runs its first iteration in
//! lockstep and continues a cell alone after it, so both exits are pinned
//! under every iteration cap and tolerance that moves them: on blocks
//! where every cell converges at iteration 1, on blocks where none does,
//! and on a band range under both strategies.
//!
//! The physics health probes have an oracle of their own, `check`: a
//! separate pass after the update, as the probes ran when they were a
//! post-step callback. With the probes on, the update must find what
//! `check` finds — rule, severity and message bytes, and the bits of the
//! `energy_residual` sample — in every scope, and leave the bits of the
//! update with them off.

use pbte_bte::material::Material;
use pbte_bte::temperature::{BteVars, TemperatureStrategy, TemperatureUpdate, BLOCK, ENERGY_TOL};
use pbte_dsl::entities::{Index, Location, Registry, Variable};
use pbte_dsl::exec::{LocalLinks, Recorder};
use pbte_dsl::problem::{Reducer, StepContext};
use pbte_dsl::Fields;
use pbte_mesh::grid::UniformGrid;
use pbte_mesh::Mesh;
use pbte_runtime::telemetry::{rules, Severity, HIST_BUCKETS};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

const VARS: BteVars = BteVars {
    i: 0,
    io: 1,
    beta: 2,
    t: 3,
};

/// A 2-D and a 3-D material, built once (the tables are the slow part).
fn material(three_d: bool) -> Arc<Material> {
    static MATERIALS: OnceLock<[Arc<Material>; 2]> = OnceLock::new();
    MATERIALS.get_or_init(|| {
        [
            Arc::new(Material::silicon_2d(4, 8, 250.0, 400.0)),
            Arc::new(Material::silicon_3d(3, 2, 4, 250.0, 400.0)),
        ]
    })[three_d as usize]
        .clone()
}

/// Any mesh will do: the update never looks at it.
fn mesh() -> &'static Mesh {
    static MESH: OnceLock<Mesh> = OnceLock::new();
    MESH.get_or_init(|| UniformGrid::new_2d(1, 1, 1.0, 1.0).build())
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ self.0 >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ z >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ z >> 31
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A temperature inside, at or outside the `[250, 400]` table.
    fn temperature(&mut self) -> f64 {
        match self.next() % 8 {
            0 => 250.0,
            1 => 400.0,
            2 => 180.0 + 60.0 * self.unit(),
            3 => 405.0 + 200.0 * self.unit(),
            _ => 250.0 + 150.0 * self.unit(),
        }
    }
}

/// What the intensities of a cell are drawn around.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// The equilibrium of a random temperature, scaled by `0.5..1.5` per
    /// degree of freedom; `T_old` drawn independently.
    Mixed,
    /// The equilibrium of `T_old` itself: every solve converges at the
    /// first iteration under the default tolerance.
    Settled,
    /// The equilibrium of a temperature 15 K from `T_old`, both inside the
    /// table: no solve converges at the first iteration under the default
    /// tolerance.
    Far,
}

/// `I[d, b]`, `Io[b]`, `beta[b]`, `T` over `n_cells` cells: intensities
/// and temperatures of `kind`, `Io` / `beta` holding a sentinel so a slot
/// the update must not touch shows if it does.
fn fields(material: &Material, n_cells: usize, rng: &mut Rng, kind: Kind, poison: bool) -> Fields {
    let (n_dirs, n_bands) = (material.n_dirs(), material.n_bands());
    let registry = Registry {
        indices: vec![
            Index {
                name: "d".into(),
                len: n_dirs,
            },
            Index {
                name: "b".into(),
                len: n_bands,
            },
        ],
        variables: [
            ("I", vec![0, 1]),
            ("Io", vec![1]),
            ("beta", vec![1]),
            ("T", vec![]),
        ]
        .into_iter()
        .map(|(name, indices)| Variable {
            name: name.into(),
            location: Location::Cell,
            indices,
        })
        .collect(),
        coefficients: Vec::new(),
    };
    let mut f = Fields::new(&registry, n_cells);
    for cell in 0..n_cells {
        let (t_old, around) = match kind {
            Kind::Mixed => (None, 260.0 + 130.0 * rng.unit()),
            Kind::Settled => {
                let t = rng.temperature();
                (Some(t), t)
            }
            Kind::Far => {
                let t = 270.0 + 110.0 * rng.unit();
                (Some(t), if t < 325.0 { t + 15.0 } else { t - 15.0 })
            }
        };
        for d in 0..n_dirs {
            for b in 0..n_bands {
                let scale = match kind {
                    Kind::Mixed => 0.5 + rng.unit(),
                    _ => 1.0,
                };
                let v = material.table().io(b, around) * scale;
                f.set(VARS.i, cell, d * n_bands + b, v);
            }
        }
        let t_old = t_old.unwrap_or_else(|| rng.temperature());
        f.set(VARS.t, cell, 0, t_old);
    }
    f.slice_mut(VARS.io).fill(-1.0);
    f.slice_mut(VARS.beta).fill(-2.0);
    if poison {
        // One NaN temperature and one non-finite intensity.
        let cell = rng.next() as usize % n_cells;
        f.set(VARS.t, cell, 0, f64::NAN);
        let (cell, flat) = (
            rng.next() as usize % n_cells,
            rng.next() as usize % (n_dirs * n_bands),
        );
        let bad = [f64::NAN, f64::INFINITY][rng.next() as usize % 2];
        f.set(VARS.i, cell, flat, bad);
    }
    f
}

/// Stands in for the other ranks of a band-partitioned world. A fold of
/// kind `k` hands a rank after the first the running buffer `before[k]`
/// of the ranks before it, records the bits `add` made of it, and lets
/// the ranks after it finish. Kind 0 is the energy sum (they add positive
/// energies), kind 1 — under `DividedNewton` only — shares `T` (they
/// write temperatures past this rank's slice), kind 2 is the probes'
/// budget, `2·n_cells` long (they add positive emissions and
/// absorptions).
#[derive(Clone)]
struct RecordingReducer {
    rank: usize,
    n_ranks: usize,
    n_cells: usize,
    slice_end: usize,
    before: [Vec<f64>; 3],
    after: [Vec<f64>; 3],
    seen: Vec<Vec<u64>>,
}

impl RecordingReducer {
    /// Rank `rank` of `n_ranks` over `n_cells` cells.
    fn new(rank: usize, n_ranks: usize, n_cells: usize, rng: &mut Rng) -> RecordingReducer {
        let mut draw =
            |n: usize, lo: f64, span: f64| (0..n).map(|_| lo + span * rng.unit()).collect();
        RecordingReducer {
            rank,
            n_ranks,
            n_cells,
            slice_end: n_cells * (rank + 1) / n_ranks,
            before: [
                draw(n_cells, 0.0, 1e9),
                draw(n_cells, 255.0, 140.0),
                draw(2 * n_cells, 0.0, 1e9),
            ],
            after: [
                draw(n_cells, 0.0, 1e9),
                draw(n_cells, 255.0, 140.0),
                draw(2 * n_cells, 0.0, 1e9),
            ],
            seen: Vec::new(),
        }
    }
}

impl Reducer for RecordingReducer {
    fn fold(&mut self, buf: &mut [f64], add: &mut dyn FnMut(&mut [f64])) {
        let k = match self.seen.len() {
            _ if buf.len() != self.n_cells => 2,
            k => k.min(1),
        };
        if self.rank > 0 {
            buf.copy_from_slice(&self.before[k]);
        }
        add(buf);
        // NaN payloads are not pinned (see `assert_same_bits`).
        let bits = |v: &f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
        self.seen.push(buf.iter().map(bits).collect());
        match k {
            1 => buf[self.slice_end..].copy_from_slice(&self.after[1][self.slice_end..]),
            _ => (buf.iter_mut().zip(&self.after[k])).for_each(|(v, o)| *v += o),
        }
    }
    fn rank(&self) -> usize {
        self.rank
    }
    fn n_ranks(&self) -> usize {
        self.n_ranks
    }
}

/// What an update counted.
#[derive(Debug, PartialEq)]
struct Counts {
    newton_iters: u64,
    solves: u64,
    hist: [u64; HIST_BUCKETS],
    /// Solves that returned at `max_iter`.
    stalled: u64,
    /// Solved cells with a non-finite energy sum.
    non_finite: u64,
}

/// The naive cells-outer reference: the update as its definition reads,
/// one cell at a time, every lookup through the public table methods.
fn oracle(
    upd: &TemperatureUpdate,
    f: &mut Fields,
    bands: Option<Range<usize>>,
    owned_cells: Option<&[usize]>,
    reducer: &mut dyn Reducer,
) -> Counts {
    let m = &upd.material;
    let (n_dirs, n_bands, n_cells) = (m.n_dirs(), m.n_bands(), f.n_cells);
    let banded = bands.is_some();
    let bands = bands.unwrap_or(0..n_bands);
    let all: Vec<usize> = (0..n_cells).collect();
    let owned = owned_cells.unwrap_or(&all);

    let mut s = vec![0.0; n_cells];
    let mut add = |s: &mut [f64]| {
        for &cell in owned {
            let t_old = f.value(VARS.t, cell, 0);
            for b in bands.clone() {
                let mut e = 0.0;
                for d in 0..n_dirs {
                    e += m.angles.weights[d] * f.value(VARS.i, cell, d * n_bands + b);
                }
                s[cell] += m.beta_table().get(b, t_old) * e;
            }
        }
    };
    match banded {
        true => reducer.fold(&mut s, &mut add),
        false => add(&mut s),
    }

    let divided =
        banded && owned_cells.is_none() && upd.strategy == TemperatureStrategy::DividedNewton;
    let solved: Vec<usize> = match divided {
        true => {
            let (r, p) = (reducer.rank(), reducer.n_ranks());
            (n_cells * r / p..n_cells * (r + 1) / p).collect()
        }
        false => owned.to_vec(),
    };
    let mut counts = Counts {
        newton_iters: 0,
        solves: solved.len() as u64,
        hist: [0; HIST_BUCKETS],
        stalled: 0,
        non_finite: 0,
    };
    let mut t_new = f.slice(VARS.t).to_vec();
    for &cell in &solved {
        let t_old = f.value(VARS.t, cell, 0);
        let beta: Vec<f64> = (0..n_bands).map(|b| m.beta_table().get(b, t_old)).collect();
        let (t, it) = upd.solve_counted(&beta, s[cell], t_old);
        counts.newton_iters += it as u64;
        counts.hist[(it as usize).min(HIST_BUCKETS - 1)] += 1;
        counts.stalled += (it as usize >= upd.max_iter) as u64;
        counts.non_finite += !s[cell].is_finite() as u64;
        t_new[cell] = t;
    }
    if divided {
        let mine = t_new.clone();
        reducer.fold(&mut t_new, &mut |t| {
            (solved.iter()).for_each(|&cell| t[cell] = mine[cell]);
        });
    }
    f.slice_mut(VARS.t).copy_from_slice(&t_new);

    for &cell in owned {
        let t = f.value(VARS.t, cell, 0);
        for b in bands.clone() {
            f.set(VARS.io, cell, b, m.table().io(b, t));
            f.set(VARS.beta, cell, b, m.beta_table().get(b, t));
        }
    }
    counts
}

/// One kernel update on `f` with a buffered recorder.
fn kernel(
    upd: &TemperatureUpdate,
    f: &mut Fields,
    bands: Option<Range<usize>>,
    owned_cells: Option<&[usize]>,
    reducer: &mut dyn Reducer,
    threads: usize,
    block: usize,
) -> (Counts, Recorder) {
    let scope = (bands, owned_cells, threads, block);
    let rec = update(upd, f, scope, reducer, |_, _| {});
    let counts = Counts {
        newton_iters: rec.work.newton_iters,
        solves: rec.work.temperature_solves,
        hist: *rec.histogram("newton_iters").expect("histogram observed"),
        stalled: reported(&rec, rules::NEWTON_STALLED),
        non_finite: reported(&rec, rules::NON_FINITE_ENERGY),
    };
    (counts, rec)
}

/// Owned bands, owned cells, threads and block length of an update.
type Scope<'a> = (Option<Range<usize>>, Option<&'a [usize]>, usize, usize);

/// One kernel update on `f` in `scope`, then `after` on the same step
/// context, with a buffered recorder.
fn update(
    upd: &TemperatureUpdate,
    f: &mut Fields,
    (bands, owned_cells, threads, block): Scope,
    reducer: &mut dyn Reducer,
    after: fn(&TemperatureUpdate, &mut StepContext),
) -> Recorder {
    let mut rec = Recorder::buffered();
    let mut ctx = StepContext {
        fields: f,
        mesh: mesh(),
        time: 0.0,
        step: 7,
        owned_index_range: bands.map(|r| ("b".to_string(), r)),
        owned_cells,
        reducer,
        threads,
        rec: &mut rec,
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| upd.run_blocked(&mut ctx, block));
    after(upd, &mut ctx);
    rec
}

/// The cells a finding of `rule` counts (`step k: n of m temperature
/// solves …`); 0 when it did not fire.
fn reported(rec: &Recorder, rule: &str) -> u64 {
    let events = rec.events();
    let Some(event) = events.into_iter().find(|e| e.name == rule) else {
        return 0;
    };
    let n = event.message.split_whitespace().nth(2);
    n.and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count in `{}`", event.message))
}

/// Bitwise equality, with any NaN equal to any NaN (a NaN's payload may
/// legitimately depend on operand order the compiler is free to pick).
fn assert_same_bits(what: &str, a: &Fields, b: &Fields) -> Result<(), TestCaseError> {
    for (var, name) in [(VARS.t, "T"), (VARS.io, "Io"), (VARS.beta, "beta")] {
        for (k, (x, y)) in a.slice(var).iter().zip(b.slice(var)).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: {name}[{k}] kernel {x:e} vs oracle {y:e}"
            );
        }
    }
    Ok(())
}

/// An owned-cell list: runs of 1..=2·block+1 cells separated by gaps of
/// 1..=3.
fn gapped(n_cells: usize, block: usize, rng: &mut Rng) -> Vec<usize> {
    let mut owned = Vec::new();
    let mut cell = rng.next() as usize % 2;
    while cell < n_cells {
        let run = 1 + rng.next() as usize % (2 * block + 1);
        owned.extend(cell..(cell + run).min(n_cells));
        cell += run + 1 + rng.next() as usize % 3;
    }
    owned
}

/// The mesh sizes that put a block edge everywhere it can go.
fn n_cells_for(block: usize, which: usize) -> usize {
    [1, block - 1, block, block + 1, 3 * block + 7][which % 5].max(1)
}

/// Small blocks, and the shipped one.
fn block_for(which: usize) -> usize {
    [1, 2, 3, 5, 8, 16, BLOCK][which % 7]
}

/// Iteration caps that move the Newton exits: none at all, the lockstep
/// iteration alone, one continued iteration, the default.
const MAX_ITERS: [usize; 4] = [0, 1, 2, 50];

/// Tolerances that move them: never met, the default, always met at the
/// first iteration.
const TOLS: [f64; 3] = [0.0, 1e-9, 1e3];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(70))]

    #[test]
    fn everything_owned_matches_the_oracle_at_any_thread_count(
        seed in any::<u64>(),
        shape in (0usize..7, 0usize..5, any::<bool>(), any::<bool>()),
    ) {
        let (block, size, three_d, poison) = shape;
        let (block, mut rng) = (block_for(block), Rng(seed));
        let material = material(three_d);
        let upd = TemperatureUpdate::new(material.clone(), VARS);
        let start = fields(&material, n_cells_for(block, size), &mut rng, Kind::Mixed, poison);
        let mut expected = start.clone();
        let want = oracle(&upd, &mut expected, None, None, &mut LocalLinks);
        for threads in [1, 2, 3] {
            let mut got = start.clone();
            let (counts, _) = kernel(&upd, &mut got, None, None, &mut LocalLinks, threads, block);
            assert_same_bits(&format!("threads {threads} block {block}"), &got, &expected)?;
            prop_assert_eq!(&counts, &want);
        }
    }

    #[test]
    fn a_band_range_matches_the_oracle_under_both_strategies(
        seed in any::<u64>(),
        shape in (0usize..7, 0usize..5, any::<bool>(), any::<bool>()),
        rank in 0usize..3,
        divided in any::<bool>(),
    ) {
        let (block, size, three_d, poison) = shape;
        let (block, mut rng) = (block_for(block), Rng(seed));
        let material = material(three_d);
        let strategy = match divided {
            true => TemperatureStrategy::DividedNewton,
            false => TemperatureStrategy::RedundantNewton,
        };
        let upd = TemperatureUpdate::new(material.clone(), VARS).with_strategy(strategy);
        let n_cells = n_cells_for(block, size);
        let start = fields(&material, n_cells, &mut rng, Kind::Mixed, poison);
        // Rank `rank` of 3 owns a third of the bands.
        let n_bands = material.n_bands();
        let bands = n_bands * rank / 3..n_bands * (rank + 1) / 3;
        let mut world = RecordingReducer::new(rank, 3, n_cells, &mut rng);
        let mut expected = start.clone();
        let want = oracle(&upd, &mut expected, Some(bands.clone()), None, &mut world);
        let oracle_calls = std::mem::take(&mut world.seen);

        let mut got = start.clone();
        let (counts, _) = kernel(&upd, &mut got, Some(bands), None, &mut world, 1, block);
        assert_same_bits(&format!("rank {rank} {strategy:?} block {block}"), &got, &expected)?;
        prop_assert_eq!(&counts, &want);
        // Same folds: count, lengths, contents, order.
        prop_assert_eq!(world.seen.len(), 1 + divided as usize);
        prop_assert_eq!(&world.seen, &oracle_calls);
    }

    #[test]
    fn an_owned_cell_list_with_gaps_matches_the_oracle(
        seed in any::<u64>(),
        shape in (0usize..7, 0usize..5, any::<bool>(), any::<bool>()),
    ) {
        let (block, size, three_d, poison) = shape;
        let (block, mut rng) = (block_for(block), Rng(seed));
        let material = material(three_d);
        let upd = TemperatureUpdate::new(material.clone(), VARS);
        let n_cells = n_cells_for(block, size);
        let start = fields(&material, n_cells, &mut rng, Kind::Mixed, poison);
        let owned = gapped(n_cells, block, &mut rng);
        let mut expected = start.clone();
        let want = oracle(&upd, &mut expected, None, Some(&owned), &mut LocalLinks);
        let mut got = start.clone();
        // Threads are offered; a cell-partitioned rank must not use them.
        let (counts, _) = kernel(&upd, &mut got, None, Some(&owned), &mut LocalLinks, 2, block);
        assert_same_bits(&format!("{} owned block {block}", owned.len()), &got, &expected)?;
        prop_assert_eq!(&counts, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_newton_exit_matches_the_oracle(
        seed in any::<u64>(),
        shape in (0usize..7, 0usize..5, any::<bool>()),
        settings in (0usize..4, 0usize..3),
        kind in 0usize..3,
        rank in 0usize..3,
    ) {
        let (block, size, three_d) = shape;
        let (block, mut rng) = (block_for(block), Rng(seed));
        let material = material(three_d);
        let (max_iter, tol) = (MAX_ITERS[settings.0], TOLS[settings.1]);
        let upd = TemperatureUpdate {
            max_iter,
            tol,
            ..TemperatureUpdate::new(material.clone(), VARS)
        };
        let kind = [Kind::Settled, Kind::Far, Kind::Mixed][kind];
        let n_cells = n_cells_for(block, size);
        let start = fields(&material, n_cells, &mut rng, kind, kind == Kind::Mixed);
        let what = format!("{kind:?} max_iter {max_iter} tol {tol:e} block {block}");

        // Everything owned: the fields decide the first exit.
        let mut expected = start.clone();
        let want = oracle(&upd, &mut expected, None, None, &mut LocalLinks);
        let (at_first, solves) = (want.hist[1.min(max_iter)], want.solves);
        match kind {
            Kind::Settled if tol > 0.0 => prop_assert_eq!(at_first, solves, "{}", what),
            Kind::Far if tol < 1.0 && max_iter >= 2 => prop_assert_eq!(at_first, 0, "{}", what),
            _ => {}
        }
        for threads in [1, 2] {
            let mut got = start.clone();
            let (counts, _) = kernel(&upd, &mut got, None, None, &mut LocalLinks, threads, block);
            assert_same_bits(&format!("{what} threads {threads}"), &got, &expected)?;
            prop_assert_eq!(&counts, &want);
        }

        // A band range of rank `rank` of 3, under both strategies.
        let n_bands = material.n_bands();
        let bands = n_bands * rank / 3..n_bands * (rank + 1) / 3;
        for strategy in TemperatureStrategy::ALL {
            let upd = upd.clone().with_strategy(strategy);
            let mut world = RecordingReducer::new(rank, 3, n_cells, &mut rng);
            let mut expected = start.clone();
            let want = oracle(&upd, &mut expected, Some(bands.clone()), None, &mut world);
            let oracle_calls = std::mem::take(&mut world.seen);
            let mut got = start.clone();
            let (counts, _) = kernel(&upd, &mut got, Some(bands.clone()), None, &mut world, 1, block);
            assert_same_bits(&format!("{what} rank {rank} {strategy:?}"), &got, &expected)?;
            prop_assert_eq!(&counts, &want);
            prop_assert_eq!(&world.seen, &oracle_calls);
        }
    }
}

/// A located lookup is the plain lookup: `x_at(b, locate(t))` equals
/// `io` / `dio` / `get` bit for bit, on the grid nodes, between them, at
/// both clamps and beyond them.
#[test]
fn located_lookups_equal_the_plain_ones() {
    for three_d in [false, true] {
        let m = material(three_d);
        let (t_min, t_max) = (m.grid().t_min, m.grid().t_max);
        let mut temperatures = vec![t_min, t_max, t_min - 40.0, t_max + 40.0, 0.0, f64::MAX];
        temperatures.extend((0..=1200).map(|k| t_min + 0.125 * k as f64));
        temperatures.extend((0..40).map(|k| m.grid().temperature(7 * k)));
        for &t in &temperatures {
            let at = m.locate(t);
            for b in 0..m.n_bands() {
                assert_eq!(m.io_at(b, at).to_bits(), m.table().io(b, t).to_bits());
                assert_eq!(m.dio_at(b, at).to_bits(), m.table().dio(b, t).to_bits());
                assert_eq!(
                    m.beta_at(b, at).to_bits(),
                    m.beta_table().get(b, t).to_bits()
                );
            }
        }
        // Out-of-range temperatures clamp to the edge rows.
        for b in 0..m.n_bands() {
            assert_eq!(m.io_at(b, m.locate(10.0)), m.table().io(b, t_min));
            assert_eq!(m.beta_at(b, m.locate(1e4)), m.beta_table().get(b, t_max));
        }
    }
}

/// A solve that cannot meet its tolerance is counted and reported once
/// per update under `temperature/newton-stalled`; the values it returns
/// are used as before.
#[test]
fn a_stalled_newton_solve_is_reported() {
    let material = material(false);
    let mut upd = TemperatureUpdate::new(material.clone(), VARS);
    upd.tol = 0.0; // |ΔT| < 0 never holds: every solve runs to max_iter
    let mut f = fields(&material, 37, &mut Rng(11), Kind::Mixed, false);
    let (counts, rec) = kernel(&upd, &mut f, None, None, &mut LocalLinks, 1, BLOCK);
    assert_eq!(counts.newton_iters, 37 * upd.max_iter as u64);
    let stalled: Vec<_> = rec.events().into_iter().collect();
    assert_eq!(stalled.len(), 1, "one event per update: {stalled:?}");
    assert_eq!(stalled[0].name, rules::NEWTON_STALLED);
    assert!(
        stalled[0].message.contains("37 of 37"),
        "{}",
        stalled[0].message
    );
    let diags = pbte_dsl::exec::telemetry_diagnostics(&rec);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, rules::NEWTON_STALLED);
    // The returned temperature is used: a warning, not a failure.
    assert_eq!(diags[0].severity, pbte_dsl::Severity::Warning);
}

/// A non-finite energy sum is bisected to a table edge by the solve — a
/// plausible temperature — so the update says so under
/// `temperature/non-finite-energy`.
#[test]
fn a_non_finite_energy_sum_is_reported() {
    let material = material(true);
    let upd = TemperatureUpdate::new(material.clone(), VARS);
    let mut f = fields(&material, 20, &mut Rng(5), Kind::Mixed, false);
    f.set(VARS.i, 3, 2, f64::NAN);
    f.set(VARS.i, 11, 0, f64::INFINITY);
    let (_, rec) = kernel(&upd, &mut f, None, None, &mut LocalLinks, 1, 8);
    let events = rec.events();
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(events[0].name, rules::NON_FINITE_ENERGY);
    assert!(
        events[0].message.contains("2 of 20"),
        "{}",
        events[0].message
    );
    // The laundering the warning is about: both cells hold a finite T.
    assert!(f.slice(VARS.t).iter().all(|t| t.is_finite()));
    // Never a good answer: it fails the run.
    assert_eq!(events[0].severity, pbte_dsl::Severity::Error);
    let diags = pbte_dsl::exec::telemetry_diagnostics(&rec);
    assert_eq!(diags[0].rule, rules::NON_FINITE_ENERGY);
    assert_eq!(diags[0].severity, pbte_dsl::Severity::Error);
}

/// A healthy update raises neither warning, and its one span covers the
/// whole update and carries the three phase times, in every ownership
/// scope: everything owned at one and two threads, a band range under
/// both strategies, an owned-cell list. On one task the phases add to at
/// most the span (within the attributes' 9-decimal print); threaded, they
/// sum task seconds and are only checked to be there.
#[test]
fn a_healthy_update_is_quiet_and_its_span_is_split_by_phase() {
    let material = material(false);
    let n_cells = 2048;
    let start = fields(&material, n_cells, &mut Rng(3), Kind::Mixed, false);
    let owned = gapped(n_cells, 16, &mut Rng(4));
    let bands = Some(0..material.n_bands());
    let redundant = TemperatureStrategy::RedundantNewton;
    let divided = TemperatureStrategy::DividedNewton;
    let cases = [
        ("2 threads", redundant, None, None, 2),
        ("1 thread", redundant, None, None, 1),
        ("band range, redundant", redundant, bands.clone(), None, 1),
        ("band range, divided", divided, bands, None, 1),
        ("owned cells", redundant, None, Some(&owned[..]), 1),
    ];
    for (what, strategy, bands, owned_cells, threads) in cases {
        let upd = TemperatureUpdate::new(material.clone(), VARS).with_strategy(strategy);
        let mut f = start.clone();
        let scope = (bands, owned_cells, threads, 16);
        let rec = update(&upd, &mut f, scope, &mut LocalLinks, |_, _| {});
        assert!(rec.events().is_empty(), "{what}: {:?}", rec.events());
        let spans = rec.spans();
        assert_eq!(spans.len(), 1, "{what}: one NewtonSolve span per update");
        let attr = |key: &str| {
            let found = spans[0].attrs.iter().find(|(k, _)| *k == key);
            found
                .unwrap_or_else(|| panic!("{what}: span lacks `{key}`: {:?}", spans[0].attrs))
                .1
                .clone()
        };
        for key in ["solves", "iters", "step"] {
            attr(key);
        }
        let phases: f64 = ["energy_s", "newton_s", "rewrite_s"]
            .map(|key| attr(key).parse::<f64>().expect("a phase time"))
            .iter()
            .sum();
        if threads == 1 {
            assert!(
                spans[0].dur >= phases - 1e-8,
                "{what}: span {:e} s < phases {phases:e} s",
                spans[0].dur
            );
        }
    }
}

/// The physics health probes as a separate pass after the update — the
/// post-step callback they once were — and the oracle of the probes the
/// update runs itself. NaN and negative intensities are scanned over the
/// owned dofs, `d`, `b`, then cell ascending; the energy budget sums the
/// owned bands ascending per cell, in one fold in rank order under band
/// partitioning.
fn check(upd: &TemperatureUpdate, ctx: &mut StepContext) {
    let material = &upd.material;
    let (n_bands, n_dirs) = (material.n_bands(), material.n_dirs());
    let n_cells = ctx.fields.n_cells;
    let weights = &material.angles.weights;
    let all: Vec<usize> = (0..n_cells).collect();
    let owned = ctx.owned_cells.unwrap_or(&all);
    let (banded, owned_b) = match &ctx.owned_index_range {
        Some((_, range)) => (true, range.clone()),
        None => (false, 0..n_bands),
    };

    let i = ctx.fields.slice(VARS.i);
    let (mut nan_count, mut neg_count) = (0u64, 0u64);
    let mut first_nan: Option<(usize, usize, usize)> = None;
    let mut first_neg: Option<(usize, usize, usize, f64)> = None;
    for d in 0..n_dirs {
        for b in owned_b.clone() {
            for &cell in owned {
                let v = i[(d * n_bands + b) * n_cells + cell];
                if v.is_nan() {
                    nan_count += 1;
                    first_nan.get_or_insert((d, b, cell));
                } else if v < 0.0 {
                    neg_count += 1;
                    first_neg.get_or_insert((d, b, cell, v));
                }
            }
        }
    }

    let four_pi = 4.0 * std::f64::consts::PI;
    let (io, beta) = (ctx.fields.slice(VARS.io), ctx.fields.slice(VARS.beta));
    let mut acc = vec![0.0; 2 * n_cells];
    let mut add = |acc: &mut [f64]| {
        let (emission, absorption) = acc.split_at_mut(n_cells);
        for &cell in owned {
            for b in owned_b.clone() {
                let bb = beta[b * n_cells + cell];
                emission[cell] += bb * four_pi * io[b * n_cells + cell];
                let mut s = 0.0;
                for (d, &w) in weights.iter().enumerate().take(n_dirs) {
                    s += w * i[(d * n_bands + b) * n_cells + cell];
                }
                absorption[cell] += bb * s;
            }
        }
    };
    match banded {
        true => ctx.reducer.fold(&mut acc, &mut add),
        false => add(&mut acc),
    }
    let (emission, absorption) = acc.split_at(n_cells);
    let (mut max_rel, mut worst_cell) = (0.0f64, 0usize);
    for &cell in owned {
        let residual = emission[cell] - absorption[cell];
        let rel = residual.abs() / emission[cell].abs().max(f64::MIN_POSITIVE);
        if rel > max_rel {
            (max_rel, worst_cell) = (rel, cell);
        }
    }

    let step = ctx.step;
    if let Some((d, b, cell)) = first_nan {
        let message = format!(
            "{nan_count} NaN intensity value(s) at step {step}; first at \
             direction {d}, band {b}, cell {cell}"
        );
        ctx.rec.warn(Severity::Error, rules::NAN_INTENSITY, message);
    }
    if let Some((d, b, cell, v)) = first_neg {
        let message = format!(
            "{neg_count} negative intensity value(s) at step {step}; first is \
             {v:.3e} at direction {d}, band {b}, cell {cell}"
        );
        ctx.rec
            .warn(Severity::Warning, rules::NEGATIVE_INTENSITY, message);
    }
    if nan_count == 0 {
        ctx.rec.sample("energy_residual", step, max_rel);
        if max_rel > ENERGY_TOL {
            let message = format!(
                "energy budget violated at step {step}: max relative residual \
                 {max_rel:.3e} (tol {ENERGY_TOL:.1e}) at cell {worst_cell}"
            );
            ctx.rec
                .warn(Severity::Warning, rules::ENERGY_BUDGET, message);
        }
    }
}

/// What an update found: every finding's rule, severity and message, and
/// the bits of every `energy_residual` sample.
type Found = (Vec<(&'static str, Severity, String)>, Vec<u64>);

fn found(rec: &Recorder) -> Found {
    let events = rec.events().into_iter();
    let samples = rec.samples().into_iter();
    (
        events
            .map(|e| (e.name, e.severity, e.message.clone()))
            .collect(),
        (samples.filter(|s| s.name == "energy_residual"))
            .map(|s| s.value.to_bits())
            .collect(),
    )
}

/// The states the probes are held to `check` on.
#[derive(Clone, Copy, Debug)]
enum Seeded {
    /// Settled intensities: nothing to find.
    Clean,
    /// Settled, with one to three NaN intensities.
    Nan,
    /// Settled, with one to three intensities made negative, each one's
    /// weighted energy moved into another direction of its band and cell.
    Negative,
    /// `T_old` 15 K from the intensities' temperature and a Newton that
    /// returns after one step (`tol = 1e3`): the budget is off.
    FarOff,
}

/// A seeded state and the Newton tolerance it is updated with.
fn seeded(material: &Material, n_cells: usize, rng: &mut Rng, seed: Seeded) -> (Fields, f64) {
    let kind = match seed {
        Seeded::FarOff => Kind::Far,
        _ => Kind::Settled,
    };
    let mut f = fields(material, n_cells, rng, kind, false);
    let (n_dirs, n_bands) = (material.n_dirs(), material.n_bands());
    let w = &material.angles.weights;
    for _ in 0..1 + rng.next() % 3 {
        let (cell, d, b) = (
            rng.next() as usize % n_cells,
            rng.next() as usize % n_dirs,
            rng.next() as usize % n_bands,
        );
        match seed {
            Seeded::Nan => f.set(VARS.i, cell, d * n_bands + b, f64::NAN),
            Seeded::Negative => {
                let (old, tiny) = (f.value(VARS.i, cell, d * n_bands + b), 1e-300);
                let other = (d + 1) % n_dirs * n_bands + b;
                let moved =
                    f.value(VARS.i, cell, other) + (w[d] / w[(d + 1) % n_dirs]) * (old + tiny);
                f.set(VARS.i, cell, d * n_bands + b, -tiny);
                f.set(VARS.i, cell, other, moved);
            }
            Seeded::Clean | Seeded::FarOff => {}
        }
    }
    let tol = match seed {
        Seeded::FarOff => 1e3,
        _ => 1e-9,
    };
    (f, tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With the probes on, the update finds what `check` finds after it,
    /// and leaves the bits it leaves with them off: everything owned at 1
    /// and 2 threads, a band range under both strategies (the same folds
    /// too), and an owned-cell list.
    #[test]
    fn the_probes_find_what_a_pass_after_the_update_finds(
        seed in any::<u64>(),
        shape in (0usize..7, 0usize..5, any::<bool>()),
        state in 0usize..4,
        rank in 0usize..3,
    ) {
        let (block, size, three_d) = shape;
        let (block, mut rng) = (block_for(block), Rng(seed));
        let material = material(three_d);
        let n_cells = n_cells_for(block, size);
        let state = [Seeded::Clean, Seeded::Nan, Seeded::Negative, Seeded::FarOff][state];
        let (start, tol) = seeded(&material, n_cells, &mut rng, state);
        let plain = TemperatureUpdate { tol, ..TemperatureUpdate::new(material.clone(), VARS) };
        let probed = TemperatureUpdate { probes: true, ..plain.clone() };
        let n_bands = material.n_bands();
        let bands = n_bands * rank / 3..n_bands * (rank + 1) / 3;
        let owned = gapped(n_cells, block, &mut rng);
        let world = RecordingReducer::new(rank, 3, n_cells, &mut rng);

        let [redundant, divided] = TemperatureStrategy::ALL;
        let scopes: [(Scope, TemperatureStrategy); 5] = [
            ((None, None, 1, block), redundant),
            ((None, None, 2, block), redundant),
            ((Some(bands.clone()), None, 1, block), redundant),
            ((Some(bands), None, 1, block), divided),
            ((None, Some(&owned[..]), 2, block), redundant),
        ];
        for (scope, strategy) in scopes {
            let (bands, owned, threads) = (&scope.0, scope.1.map(<[usize]>::len), scope.2);
            let what = format!("{state:?} bands {bands:?} owned {owned:?} threads {threads}");
            let what = format!("{what} {strategy:?} block {block}");
            let owns_all = matches!(scope, (None, None, ..));
            let (mut got, mut want) = (start.clone(), start.clone());
            let (mut got_world, mut want_world) = (world.clone(), world.clone());
            let probed = probed.clone().with_strategy(strategy);
            let plain = plain.clone().with_strategy(strategy);
            let got_rec = update(&probed, &mut got, scope.clone(), &mut got_world, |_, _| {});
            let want_rec = update(&plain, &mut want, scope, &mut want_world, check);
            assert_same_bits(&what, &got, &want)?;
            let findings = found(&got_rec);
            prop_assert_eq!(&findings, &found(&want_rec), "{}", what);
            prop_assert_eq!(&got_world.seen, &want_world.seen, "{}", what);
            // Owning every dof, the seeded probe fires.
            let rule = match state {
                Seeded::Clean => None,
                Seeded::Nan => Some(rules::NAN_INTENSITY),
                Seeded::Negative => Some(rules::NEGATIVE_INTENSITY),
                Seeded::FarOff => Some(rules::ENERGY_BUDGET),
            };
            if let (Some(rule), true) = (rule, owns_all) {
                prop_assert!(findings.0.iter().any(|f| f.0 == rule), "{}: {:?}", what, findings);
            }
        }
    }
}
