//! The nonlinear temperature update — the CPU callback at the heart of the
//! paper's hybrid design.
//!
//! After every intensity step the local "temperature" of each cell is the
//! value `T` at which energy-conserving scattering holds:
//!
//! `R(T) = Σ_b β_b · 4π·I⁰_b(T)  −  Σ_b β_b · Σ_d w_d I_{d,b}  =  0`
//!
//! (the scattering operator integrated over directions and bands must
//! deposit zero net energy). `R` is strictly increasing in `T`, so a
//! Newton iteration with the analytic `dI⁰/dT` (bisection-guarded)
//! converges in a few steps. Then `Io[b] ← I⁰_b(T)` and
//! `beta[b] ← β_b(T)` are rewritten for the next step.
//!
//! **Blocks.** The update is one kernel over blocks of at most [`BLOCK`]
//! consecutive cells, three phases per block. *Energy*
//! (`s = Σ_b β_b(T_old) Σ_d w_d I`: the intensity planes streamed once,
//! directions then bands ascending from `0.0`) keeps the `β_b(T_old)` it
//! looks up as the block's `n_bands × block` β matrix. *Newton* reads that
//! matrix and runs its first iteration in lockstep: bands outer, cells
//! inner, every cell's residual and slope an independent chain added in
//! [`TemperatureUpdate::solve_counted`]'s order; then per cell the bracket
//! update and step, and a cell not yet converged continues alone in the
//! same Newton loop `solve_counted` runs. *Rewrite* sets `Io`, `beta` at
//! `T_new`. A temperature is located on the material's one grid once per
//! value (`T_old`, `T_new`) and every table lookup of the block reuses
//! that `(row, fraction)`; between phases a block lives in its task's
//! scratch (~24 KB of stack plus the β matrix, allocated once per task
//! and update), so the fused path holds no `n_bands × n_cells` energy
//! matrix. Block edges, thread chunks and gaps in an owned-cell list
//! decide which cells share a loop, never a cell's arithmetic, so every
//! scope, block length and thread count gives the same bits
//! (`tests/temperature_blocks.rs` holds the cells-outer oracle). What
//! stays expensive is the energy phase: it reads the whole intensity
//! array at memory bandwidth, and only accumulating inside the intensity
//! sweep (a declared reduction) would remove that.
//!
//! **Distribution.** All degrees of freedom of a cell couple here — this
//! is why the paper calls the bands "loosely coupled". Under band
//! partitioning every rank first sums the directions of its own bands
//! into `bands × n_cells` rows (the expensive pass, in parallel across
//! ranks); then one per-cell fold in rank order adds `β_b(T_old)·e_b`
//! band by band (the *only* communication of the band-parallel strategy,
//! Fig 3 bottom). The ranks own contiguous band ranges in rank order, so
//! the fold adds in the fused path's order and every rank gets the
//! sequential target's bits. The [`TemperatureStrategy`] decides who
//! solves which cells next; each solved block fills its β matrix over all
//! bands (the fold summed only the rank's own) and runs the same block
//! Newton. Under cell partitioning each rank updates the
//! cells it owns and no reduction is needed.
//!
//! **Threading.** With `ctx.threads > 1` and nothing partitioned the
//! update enters one rayon region: the cells are cut into block-aligned
//! chunks and each task runs the three phases on its own cells of `T`,
//! `Io` and `beta`. Band-partitioned ranks run serially — the ranks are
//! the parallelism, and the fold separates the phases.
//!
//! **Span.** One `newton solve` span covers the whole update, entry to
//! exit, on every scope; its `energy_s` / `newton_s` / `rewrite_s`
//! attributes split it by phase. On one task they add to at most the
//! span; on a threaded run they sum the tasks' seconds, so they can add
//! to more.

use crate::equilibrium::Located;
use crate::material::Material;
use pbte_dsl::analysis;
use pbte_dsl::problem::{Problem, StepContext};
use pbte_runtime::telemetry::{
    rules, Recorder, Severity, SpanKind, TraceConfig, Track, HIST_BUCKETS,
};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Cells per block of the update: the three phases hand a block to each
/// other through their task's scratch, so it must stay cache-resident.
pub const BLOCK: usize = 512;

/// Handle to the BTE variables inside the DSL problem.
#[derive(Debug, Clone, Copy)]
pub struct BteVars {
    pub i: usize,
    pub io: usize,
    pub beta: usize,
    pub t: usize,
}

/// How the per-cell Newton solves are distributed under band partitioning
/// (irrelevant on undistributed and cell-partitioned targets, where each
/// cell is solved exactly once regardless).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TemperatureStrategy {
    /// Every rank solves all cells (the paper's behaviour, and the reason
    /// Fig 5's temperature share grows with process count): each rank
    /// needs the new `T` to rewrite its owned bands' `Io`/`beta`, and
    /// recomputing it avoids a second reduction. One fold per step (the
    /// energy sum).
    #[default]
    RedundantNewton,
    /// Each rank solves a contiguous `n_cells/ranks` slice of cells and a
    /// second fold shares the `T` field: each rank writes its solved slice
    /// into the running buffer, and the last rank sends the whole field
    /// to every rank. Per-rank Newton work drops from `n_cells` to
    /// `~n_cells/ranks` at the cost of `n_cells·8` more bytes per message
    /// per step.
    DividedNewton,
}

impl TemperatureStrategy {
    /// Both strategies.
    pub const ALL: [TemperatureStrategy; 2] = [
        TemperatureStrategy::RedundantNewton,
        TemperatureStrategy::DividedNewton,
    ];

    /// Stable lowercase name: the `strategy` of a `.pbte` file and of the
    /// command lines.
    pub fn name(self) -> &'static str {
        match self {
            TemperatureStrategy::RedundantNewton => "redundant",
            TemperatureStrategy::DividedNewton => "divided",
        }
    }

    /// Inverse of [`TemperatureStrategy::name`]: the one parser of
    /// strategy names.
    pub fn from_name(name: &str) -> Option<TemperatureStrategy> {
        TemperatureStrategy::ALL
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// Configuration of the update.
#[derive(Debug, Clone)]
pub struct TemperatureUpdate {
    pub material: Arc<Material>,
    pub vars: BteVars,
    /// Newton convergence tolerance on |ΔT| in kelvin.
    pub tol: f64,
    /// Iteration cap before declaring failure.
    pub max_iter: usize,
    /// Newton distribution under band partitioning.
    pub strategy: TemperatureStrategy,
    /// Run the physics health probes (DESIGN.md, "Physics health probes").
    pub probes: bool,
}

/// Largest relative energy residual the budget probe accepts. The update
/// solves the budget to `|ΔT| < 1e-9 K`, which leaves residuals around
/// 1e-12; `1e-6` keeps a wide margin above float noise while catching any
/// genuinely broken state.
pub const ENERGY_TOL: f64 = 1e-6;

impl TemperatureUpdate {
    /// The name [`install`](Self::install) registers the update under.
    pub const NAME: &str = "temperature_update";

    /// Standard settings.
    pub fn new(material: Arc<Material>, vars: BteVars) -> TemperatureUpdate {
        TemperatureUpdate {
            material,
            vars,
            tol: 1e-9,
            max_iter: 50,
            strategy: TemperatureStrategy::default(),
            probes: false,
        }
    }

    /// Select the Newton distribution strategy.
    pub fn with_strategy(mut self, strategy: TemperatureStrategy) -> TemperatureUpdate {
        self.strategy = strategy;
        self
    }

    /// Register as the problem's post-step function
    /// (`postStepFunction(temperature_update)`), declaring its field
    /// accesses so the static plan verifier can check the transfer
    /// schedule against them: it reads the intensity (energy sums) and
    /// the previous temperature (Newton initial guess), and writes the
    /// temperature plus the equilibrium intensity and scattering rate.
    pub fn install(self, problem: &mut Problem) {
        let [i, t, io, beta] = [self.vars.i, self.vars.t, self.vars.io, self.vars.beta]
            .map(|v| problem.registry.variables[v].name.clone());
        problem.post_step(
            TemperatureUpdate::NAME,
            &[&i, &t],
            &[&t, &io, &beta],
            move |ctx| self.run(ctx),
        );
    }

    /// Execute the update for one step.
    pub fn run(&self, ctx: &mut StepContext) {
        self.run_blocked(ctx, BLOCK)
    }

    /// [`run`](Self::run) with blocks of `block ≤ BLOCK` cells. The block
    /// length cannot change a bit of the result; it is a parameter so the
    /// tests can put block edges anywhere.
    pub fn run_blocked(&self, ctx: &mut StepContext, block: usize) {
        assert!((1..=BLOCK).contains(&block), "block length {block}");
        let clock = ctx.rec.config();
        let span_t0 = clock.now();
        let material = &*self.material;
        let n_cells = ctx.fields.n_cells;
        // Ownership: a band range under band partitioning, a cell list
        // under cell partitioning, everything otherwise.
        let banded = ctx.owned_index_range.is_some();
        let bands = match &ctx.owned_index_range {
            Some((_, range)) => range.clone(),
            None => 0..material.n_bands(),
        };
        let owned = match ctx.owned_cells {
            Some(cells) => owned_blocks(cells, block),
            None => blocks(0..n_cells, block),
        };
        let vars = self.vars;
        let [i, t, io, beta] = ctx.fields.slices_mut([vars.i, vars.t, vars.io, vars.beta]);
        let owned_rows = bands.start * n_cells..bands.end * n_cells;
        let (io, beta) = (&mut io[owned_rows.clone()], &mut beta[owned_rows]);
        let pass = Pass {
            upd: self,
            i,
            n_cells,
            bands,
            clock,
        };
        // With threads and nothing partitioned each task owns a
        // block-aligned chunk of the cells; otherwise there is one chunk.
        let tasks = match ctx.owned_cells {
            None if !banded => ctx.threads.max(1),
            _ => 1,
        };
        let chunk_len = n_cells.div_ceil(tasks).next_multiple_of(block);
        let mut chunks = carve(t, io, beta, n_cells, chunk_len);
        let mut solved = owned.clone();

        if !banded {
            // One pass: each block goes energy → newton → rewrite while
            // it is in cache.
            let task = |chunk: &mut Chunk| {
                let mut scratch = Scratch::new(material.n_bands(), block.min(n_cells));
                let mine = chunk.cell0..chunk.cell0 + chunk.t.len();
                for cells in owned.iter().filter(|cells| mine.contains(&cells.start)) {
                    pass.fused(chunk, cells.clone(), &mut scratch);
                }
            };
            match &mut chunks[..] {
                [whole] => task(whole),
                many => many.par_iter_mut().for_each(task),
            }
        } else {
            // Band-partitioned: the energy sum needs every rank's bands.
            // Each rank sums its bands' directions into rows (the
            // expensive pass, in parallel across ranks); a fold in rank
            // order then adds `β_b(T_old)·e_b` band by band, the fused
            // path's sequence per cell (Fig 3, bottom).
            let Chunk {
                t, io, beta, tally, ..
            } = &mut chunks[0];
            let mut scratch = Scratch::new(material.n_bands(), block.min(n_cells));
            let mut rows = vec![0.0; pass.bands.len() * n_cells];
            for (b, row) in pass.bands.clone().zip(rows.chunks_mut(n_cells.max(1))) {
                for cells in &owned {
                    pass.band_sum(b, cells.clone(), &mut row[cells.clone()], tally);
                }
            }
            tally.phase_s[0] = clock.now() - span_t0;
            let mut s = vec![0.0; n_cells];
            ctx.reducer.fold(&mut s, &mut |s| {
                for cells in &owned {
                    let at = locate(material, &t[cells.clone()], &mut scratch.at);
                    // Only the energy sum is wanted here: the solved
                    // blocks below need β over every band.
                    let beta = &mut scratch.beta[..cells.len()];
                    for (b, row) in pass.bands.clone().zip(rows.chunks(n_cells.max(1))) {
                        let (e, s) = (&row[cells.clone()], &mut s[cells.clone()]);
                        absorb(material, b, at, e, beta, s);
                    }
                }
            });

            // `DividedNewton`: this rank solves its slice of the cells and
            // a fold in rank order writes each rank's slice into `T`.
            // Otherwise every rank solves all its cells in place.
            let newton_t0 = clock.now();
            let mut divided = None;
            if self.strategy == TemperatureStrategy::DividedNewton && ctx.owned_cells.is_none() {
                let (r, p) = (ctx.reducer.rank(), ctx.reducer.n_ranks().max(1));
                let slice = analysis::divided_slice(n_cells, r, p);
                (solved, divided) = (blocks(slice.clone(), block), Some(slice));
            }
            for cells in &solved {
                let at = locate(material, &t[cells.clone()], &mut scratch.at);
                let beta = &mut scratch.beta[..material.n_bands() * cells.len()];
                for (b, row) in beta.chunks_exact_mut(cells.len()).enumerate() {
                    (row.iter_mut().zip(at))
                        .for_each(|(beta, &at)| *beta = material.beta_at(b, at));
                }
                let (s, t) = (&s[cells.clone()], &mut t[cells.clone()]);
                self.newton_block(at, beta, s, t, &mut scratch.residual, tally);
            }
            if let Some(slice) = divided {
                let mine = t[slice.clone()].to_vec();
                ctx.reducer
                    .fold(t, &mut |t| t[slice.clone()].copy_from_slice(&mine));
            }
            let newton_s = clock.now() - newton_t0;

            let t0 = clock.now();
            for cells in &owned {
                let at = locate(material, &t[cells.clone()], &mut scratch.at);
                pass.rewrite(at, cells.start, io, beta);
            }
            if self.probes {
                // The budget sums every band: a fold in rank order adds
                // this rank's bands at the new `T` (collective, so every
                // rank with the probes on reaches it every step).
                let mut acc = vec![0.0; 2 * n_cells];
                ctx.reducer.fold(&mut acc, &mut |acc| {
                    let (em, ab) = acc.split_at_mut(n_cells);
                    for cells in &owned {
                        let planes = io.iter().zip(&*beta).zip(rows.chunks(n_cells.max(1)));
                        for ((io, beta), e) in planes {
                            let c = cells.clone();
                            let (em, ab) = (&mut em[c.clone()], &mut ab[c.clone()]);
                            budget(&io[c.clone()], &beta[c.clone()], &e[c], em, ab);
                        }
                    }
                });
                let (em, ab) = acc.split_at(n_cells);
                for cells in &owned {
                    let c = cells.clone();
                    residual(c.start, &em[c.clone()], &ab[c], tally);
                }
            }
            (tally.phase_s[1], tally.phase_s[2]) = (newton_s, clock.now() - t0);
        }
        let mut tally = Tally::default();
        chunks.iter().for_each(|chunk| tally.merge(&chunk.tally));
        let solves = solved.iter().map(|cells| cells.len() as u64).sum::<u64>();
        let span_dur = clock.now() - span_t0;

        // The recorder lent through `ctx.rec` is the one accounting path:
        // counters, the iteration histogram, the span and the warnings all
        // land in the same sink the executor reports from.
        ctx.rec.work.newton_iters += tally.iters;
        ctx.rec.work.temperature_solves += solves;
        ctx.rec.observe_buckets("newton_iters", &tally.hist);
        if ctx.rec.enabled() {
            let [energy_s, newton_s, rewrite_s] = tally.phase_s.map(|s| format!("{s:.9}"));
            let attrs = vec![
                ("step", ctx.step.to_string()),
                ("solves", solves.to_string()),
                ("iters", tally.iters.to_string()),
                ("energy_s", energy_s),
                ("newton_s", newton_s),
                ("rewrite_s", rewrite_s),
            ];
            ctx.rec.span(
                SpanKind::NewtonSolve,
                "newton solve",
                span_t0,
                span_dur,
                Track::Host,
                attrs,
            );
        }
        // Findings are kept on every sink, traced or not. A stalled
        // Newton still returns a temperature; a non-finite energy sum
        // never gives a good one.
        let step = ctx.step;
        let mut warn = |severity, rule, n: u64, what: &str| {
            if n > 0 {
                let message = format!("step {step}: {n} of {solves} temperature solves {what}");
                ctx.rec.warn(severity, rule, message);
            }
        };
        warn(
            Severity::Warning,
            rules::NEWTON_STALLED,
            tally.stalled,
            "returned at max_iter",
        );
        warn(
            Severity::Error,
            rules::NON_FINITE_ENERGY,
            tally.non_finite,
            "had a non-finite energy sum",
        );
        if self.probes {
            report_probes(ctx.rec, step, &tally);
        }
    }

    /// Solve `Σ_b β_b 4π I⁰_b(T) = target` for `T`, starting from
    /// `t_guess`. Newton with analytic derivative, clamped to the table
    /// range, bisection fallback if Newton leaves the bracket.
    pub fn solve(&self, beta: &[f64], target: f64, t_guess: f64) -> f64 {
        self.solve_counted(beta, target, t_guess).0
    }

    /// [`solve`](Self::solve), also returning the number of Newton
    /// iterations performed (feeds `WorkCounters::newton_iters`).
    pub fn solve_counted(&self, beta: &[f64], target: f64, t_guess: f64) -> (f64, u32) {
        let (lo, hi) = (self.material.grid().t_min, self.material.grid().t_max);
        self.newton_from(beta.iter(), target, t_guess.clamp(lo, hi), lo, hi, 0)
    }

    /// The Newton loop from iteration `iter0` at `t` inside the bracket
    /// `[lo, hi]`: the one loop of every solve. `beta` yields `β_b` in
    /// ascending bands.
    fn newton_from<'a>(
        &self,
        beta: impl Iterator<Item = &'a f64> + Clone,
        target: f64,
        mut t: f64,
        mut lo: f64,
        mut hi: f64,
        iter0: usize,
    ) -> (f64, u32) {
        let material = &self.material;
        for iter in iter0..self.max_iter {
            let at = material.locate(t);
            let (mut r, mut dr) = (-target, 0.0);
            for (b, &bb) in beta.clone().enumerate() {
                r += bb * FOUR_PI * material.io_at(b, at);
                dr += bb * FOUR_PI * material.dio_at(b, at);
            }
            let t_next = bracket_step(t, r, dr, &mut lo, &mut hi);
            if (t_next - t).abs() < self.tol {
                return (t_next, iter as u32 + 1);
            }
            t = t_next;
        }
        (t, self.max_iter as u32)
    }

    /// The Newton phase of a block: `t` goes from `T_old` to `T_new`.
    /// `at` locates `T_old` and `beta` holds `β_b(T_old)` band-major
    /// (`beta[b·len + c]`), both left by the energy phase. The first
    /// iteration runs in lockstep — bands outer, cells inner, so each
    /// cell's residual is its own dependent chain beside the others —
    /// and adds in [`solve_counted`](Self::solve_counted)'s order; a cell
    /// it leaves unconverged continues alone in
    /// [`newton_from`](Self::newton_from).
    fn newton_block(
        &self,
        at: &[Located],
        beta: &[f64],
        s: &[f64],
        t: &mut [f64],
        residual: &mut Residual,
        tally: &mut Tally,
    ) {
        let material = &self.material;
        let (t_min, t_max) = (material.grid().t_min, material.grid().t_max);
        let len = t.len();
        let (r, dr) = (&mut residual.r[..len], &mut residual.dr[..len]);
        (r.iter_mut().zip(&mut *dr).zip(s)).for_each(|((r, dr), &s)| (*r, *dr) = (-s, 0.0));
        for (b, beta) in beta.chunks_exact(len).enumerate() {
            for (((r, dr), &bb), &at) in r.iter_mut().zip(&mut *dr).zip(beta).zip(at) {
                *r += bb * FOUR_PI * material.io_at(b, at);
                *dr += bb * FOUR_PI * material.dio_at(b, at);
            }
        }
        for (c, (t, &s)) in t.iter_mut().zip(s).enumerate() {
            let t0 = t.clamp(t_min, t_max);
            let (t_new, it) = match self.max_iter {
                0 => (t0, 0),
                _ => {
                    let (mut lo, mut hi) = (t_min, t_max);
                    let t1 = bracket_step(t0, r[c], dr[c], &mut lo, &mut hi);
                    match (t1 - t0).abs() < self.tol {
                        true => (t1, 1),
                        false => self.newton_from(beta[c..].iter().step_by(len), s, t1, lo, hi, 1),
                    }
                }
            };
            tally.iters += it as u64;
            tally.hist[(it as usize).min(HIST_BUCKETS - 1)] += 1;
            tally.stalled += (it as usize >= self.max_iter) as u64;
            tally.non_finite += !s.is_finite() as u64;
            *t = t_new;
        }
    }
}

/// `4π`, the solid angle every equilibrium intensity is weighted by.
const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

/// One Newton step from `t` on the residual `r` with slope `dr`: narrow
/// the bracket `[lo, hi]` by the residual's sign, step, and bisect instead
/// when the step leaves the bracket (which can only happen near the table
/// edges).
fn bracket_step(t: f64, r: f64, dr: f64, lo: &mut f64, hi: &mut f64) -> f64 {
    if r > 0.0 {
        *hi = hi.min(t);
    } else {
        *lo = lo.max(t);
    }
    let t_next = t - r / dr;
    match (*lo..=*hi).contains(&t_next) {
        true => t_next,
        false => 0.5 * (*lo + *hi),
    }
}

/// `span` cut into blocks of at most `block` cells.
fn blocks(span: Range<usize>, block: usize) -> Vec<Range<usize>> {
    let cut = |start: usize| start..(start + block).min(span.end);
    span.clone().step_by(block).map(cut).collect()
}

/// An owned-cell list as blocks of at most `block` consecutive cells: a
/// gap in the list ends a block.
fn owned_blocks(owned: &[usize], block: usize) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    for &cell in owned {
        match out.last_mut() {
            Some(last) if last.end == cell && last.len() < block => last.end += 1,
            _ => out.push(cell..cell + 1),
        }
    }
    out
}

/// What a pass over some cells counted. Chunks tally privately and the
/// driver merges, so every count is exact at any thread count.
#[derive(Clone, Copy, Default)]
struct Tally {
    iters: u64,
    hist: [u64; HIST_BUCKETS],
    /// Solves that returned at `max_iter`.
    stalled: u64,
    /// Solved cells whose energy sum was NaN or infinite.
    non_finite: u64,
    /// Seconds in energy, newton, rewrite (zero under the null sink).
    phase_s: [f64; 3],
    /// The probes' NaN and negative intensities.
    nan: Flagged,
    negative: Flagged,
    /// The probes' largest relative energy residual and its cell, the
    /// earlier cell on a tie.
    max_rel: f64,
    worst_cell: usize,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.iters += other.iters;
        self.stalled += other.stalled;
        self.non_finite += other.non_finite;
        (self.hist.iter_mut().zip(other.hist)).for_each(|(a, b)| *a += b);
        (self.phase_s.iter_mut().zip(other.phase_s)).for_each(|(a, b)| *a += b);
        self.nan.merge(&other.nan);
        self.negative.merge(&other.negative);
        if other.max_rel > self.max_rel {
            (self.max_rel, self.worst_cell) = (other.max_rel, other.worst_cell);
        }
    }
}

/// Intensities a probe flagged: how many, and the least `(d, b, cell)` of
/// them with its value.
#[derive(Clone, Copy, Default)]
struct Flagged {
    count: u64,
    least: Option<((usize, usize, usize), f64)>,
}

impl Flagged {
    fn add(&mut self, key: (usize, usize, usize), v: f64) {
        self.merge(&Flagged {
            count: 1,
            least: Some((key, v)),
        });
    }

    fn merge(&mut self, other: &Flagged) {
        self.count += other.count;
        if let Some((key, v)) = other.least {
            if self.least.is_none_or(|(least, _)| key < least) {
                self.least = Some((key, v));
            }
        }
    }
}

/// What the probes look for: a NaN or negative intensity (`-0.0` is
/// neither).
fn flagged(v: f64) -> bool {
    v.is_nan() || v < 0.0
}

/// Band `b`'s term of the energy budget over a block, at the rewritten
/// `Io` and `beta`: `em += β·4π·Io`, `ab += β·e`.
fn budget(io: &[f64], beta: &[f64], e: &[f64], em: &mut [f64], ab: &mut [f64]) {
    for ((((em, ab), &io), &beta), &e) in em.iter_mut().zip(ab).zip(io).zip(beta).zip(e) {
        *em += beta * FOUR_PI * io;
        *ab += beta * e;
    }
}

/// The budget probe over the cells `cell0 .. cell0 + em.len()`: the
/// largest relative residual so far and its cell, the earlier on a tie.
fn residual(cell0: usize, em: &[f64], ab: &[f64], tally: &mut Tally) {
    for (c, (&em, &ab)) in em.iter().zip(ab).enumerate() {
        let rel = (em - ab).abs() / em.abs().max(f64::MIN_POSITIVE);
        if rel > tally.max_rel {
            (tally.max_rel, tally.worst_cell) = (rel, cell0 + c);
        }
    }
}

/// The probes' findings of one update, after its own: a NaN hides the
/// budget verdict (its sums are NaN, and NaN compares false).
fn report_probes(rec: &mut Recorder, step: usize, tally: &Tally) {
    if let Some(((d, b, cell), _)) = tally.nan.least {
        let message = format!(
            "{} NaN intensity value(s) at step {step}; first at \
             direction {d}, band {b}, cell {cell}",
            tally.nan.count
        );
        rec.warn(Severity::Error, rules::NAN_INTENSITY, message);
    }
    if let Some(((d, b, cell), v)) = tally.negative.least {
        let message = format!(
            "{} negative intensity value(s) at step {step}; first is \
             {v:.3e} at direction {d}, band {b}, cell {cell}",
            tally.negative.count
        );
        rec.warn(Severity::Warning, rules::NEGATIVE_INTENSITY, message);
    }
    if tally.nan.count == 0 {
        let (max_rel, cell) = (tally.max_rel, tally.worst_cell);
        rec.sample("energy_residual", step, max_rel);
        if max_rel > ENERGY_TOL {
            let message = format!(
                "energy budget violated at step {step}: max relative residual \
                 {max_rel:.3e} (tol {ENERGY_TOL:.1e}) at cell {cell}"
            );
            rec.warn(Severity::Warning, rules::ENERGY_BUDGET, message);
        }
    }
}

/// One block between its phases.
struct Scratch {
    at: [Located; BLOCK],
    /// `Σ_d w_d I_{d,b}` of the block, band-major like `beta`.
    e: Vec<f64>,
    s: [f64; BLOCK],
    /// `β_b(T_old)` of the block, band-major: `beta[b·len + c]`.
    beta: Vec<f64>,
    residual: Residual,
    /// The block's emission and absorption (the probes only).
    em: [f64; BLOCK],
    ab: [f64; BLOCK],
}

/// The lockstep Newton iteration's residual and slope per cell.
struct Residual {
    r: [f64; BLOCK],
    dr: [f64; BLOCK],
}

impl Scratch {
    /// Scratch for blocks of at most `block` cells.
    fn new(n_bands: usize, block: usize) -> Scratch {
        Scratch {
            at: [Located::default(); BLOCK],
            e: vec![0.0; n_bands * block],
            s: [0.0; BLOCK],
            beta: vec![0.0; n_bands * block],
            residual: Residual {
                r: [0.0; BLOCK],
                dr: [0.0; BLOCK],
            },
            em: [0.0; BLOCK],
            ab: [0.0; BLOCK],
        }
    }
}

/// Locate a block's temperatures: once per cell and value, for every
/// table lookup of the phase that follows.
fn locate<'a>(material: &Material, t: &[f64], at: &'a mut [Located; BLOCK]) -> &'a [Located] {
    (at.iter_mut().zip(t)).for_each(|(at, &t)| *at = material.locate(t));
    &at[..t.len()]
}

/// Band `b`'s term of the energy sum over a block: `s += β_b(T_old)·e`,
/// the one place both the fused and the band-partitioned path add it.
/// The `β_b(T_old)` it looks up are left in `beta` for the Newton phase.
fn absorb(
    material: &Material,
    b: usize,
    at: &[Located],
    e: &[f64],
    beta: &mut [f64],
    s: &mut [f64],
) {
    for (((s, &e), beta), &at) in s.iter_mut().zip(e).zip(beta).zip(at) {
        *beta = material.beta_at(b, at);
        *s += *beta * e;
    }
}

/// The cells `cell0 .. cell0 + t.len()` of `T` and of every owned band row
/// of `Io` and `beta` — what one task of the parallel region writes.
struct Chunk<'a> {
    cell0: usize,
    t: &'a mut [f64],
    io: Vec<&'a mut [f64]>,
    beta: Vec<&'a mut [f64]>,
    tally: Tally,
}

/// Cut `T` and the owned band rows of `Io` / `beta` into chunks of
/// `chunk_len` cells: band rows, then cell chunks, regrouped per chunk.
/// The chunks are disjoint borrows, which is the whole race argument.
fn carve<'a>(
    t: &'a mut [f64],
    io: &'a mut [f64],
    beta: &'a mut [f64],
    n_cells: usize,
    chunk_len: usize,
) -> Vec<Chunk<'a>> {
    let (n_cells, chunk_len) = (n_cells.max(1), chunk_len.max(1));
    let mut chunks: Vec<Chunk> = (t.chunks_mut(chunk_len).enumerate())
        .map(|(c, t)| Chunk {
            cell0: c * chunk_len,
            t,
            io: Vec::new(),
            beta: Vec::new(),
            tally: Tally::default(),
        })
        .collect();
    for (io_row, beta_row) in io.chunks_mut(n_cells).zip(beta.chunks_mut(n_cells)) {
        let segments = io_row
            .chunks_mut(chunk_len)
            .zip(beta_row.chunks_mut(chunk_len));
        for (chunk, (io, beta)) in chunks.iter_mut().zip(segments) {
            chunk.io.push(io);
            chunk.beta.push(beta);
        }
    }
    chunks
}

/// What every block of one update shares.
struct Pass<'a> {
    upd: &'a TemperatureUpdate,
    /// The intensity, `I[(d·n_bands + b)·n_cells + cell]`.
    i: &'a [f64],
    n_cells: usize,
    /// Owned bands.
    bands: Range<usize>,
    clock: TraceConfig,
}

impl Pass<'_> {
    /// The three phases back to back on one block, `cells` of the chunk.
    fn fused(&self, chunk: &mut Chunk, cells: Range<usize>, scratch: &mut Scratch) {
        let material = &self.upd.material;
        let local = cells.start - chunk.cell0..cells.end - chunk.cell0;
        let t0 = self.clock.now();
        let at = locate(material, &chunk.t[local.clone()], &mut scratch.at);
        let (len, tally) = (cells.len(), &mut chunk.tally);
        let s = &mut scratch.s[..len];
        let e = &mut scratch.e[..material.n_bands() * len];
        let beta = &mut scratch.beta[..material.n_bands() * len];
        self.energy(cells.clone(), at, e, beta, s, tally);
        let t1 = self.clock.now();
        let t = &mut chunk.t[local.clone()];
        self.upd
            .newton_block(at, beta, s, t, &mut scratch.residual, tally);
        let t2 = self.clock.now();
        let at = locate(material, &chunk.t[local.clone()], &mut scratch.at);
        self.rewrite(at, local.start, &mut chunk.io, &mut chunk.beta);
        if self.upd.probes {
            let (em, ab) = (&mut scratch.em[..len], &mut scratch.ab[..len]);
            em.fill(0.0);
            ab.fill(0.0);
            let rows = chunk.io.iter().zip(&chunk.beta).zip(e.chunks_exact(len));
            for ((io, beta), e) in rows {
                budget(&io[local.clone()], &beta[local.clone()], e, em, ab);
            }
            residual(cells.start, em, ab, &mut chunk.tally);
        }
        let (t3, sum) = (self.clock.now(), &mut chunk.tally.phase_s);
        (sum[0], sum[1], sum[2]) = (sum[0] + (t1 - t0), sum[1] + (t2 - t1), sum[2] + (t3 - t2));
    }

    /// The energy phase of the block `cells`: `s = Σ_b β_b(T_old) ·
    /// Σ_d w_d I_{d,b}` over the owned bands (all of them on this path),
    /// ascending from `0.0`; `e` keeps the block's direction sums and
    /// `beta` its `β_b(T_old)`, both band-major.
    fn energy(
        &self,
        cells: Range<usize>,
        at: &[Located],
        e: &mut [f64],
        beta: &mut [f64],
        s: &mut [f64],
        tally: &mut Tally,
    ) {
        s.fill(0.0);
        let rows = e
            .chunks_exact_mut(s.len())
            .zip(beta.chunks_exact_mut(s.len()));
        for (b, (e, beta)) in self.bands.clone().zip(rows) {
            self.band_sum(b, cells.clone(), e, tally);
            absorb(&self.upd.material, b, at, e, beta, s);
        }
    }

    /// Band `b`'s direction sum over `cells` into `e`. With the probes on,
    /// a block whose intensities the sum flagged is scanned again, exactly,
    /// for its NaN and negative values.
    fn band_sum(&self, b: usize, cells: Range<usize>, e: &mut [f64], tally: &mut Tally) {
        if !self.upd.probes {
            self.direction_sum::<false>(b, cells.start, e);
            return;
        }
        if !self.direction_sum::<true>(b, cells.start, e) {
            return;
        }
        let material = &self.upd.material;
        for d in 0..material.n_dirs() {
            let plane = &self.i[(d * material.n_bands() + b) * self.n_cells..];
            for cell in cells.clone() {
                let v = plane[cell];
                if v.is_nan() {
                    tally.nan.add((d, b, cell), v);
                } else if v < 0.0 {
                    tally.negative.add((d, b, cell), v);
                }
            }
        }
    }

    /// Band `b`'s direction sum over the cells `cell0 .. cell0 + e.len()`:
    /// `e = Σ_d w_d I_{d,b}`, each cell's sum from `0.0` in `d` order.
    /// `LANES` cells at a time, their sums held in registers while the
    /// directions stream past, so each of the cells' intensity planes is
    /// read once and `e` written once. With `PROBE`, also whether any of
    /// those intensities is NaN or negative: a flag beside each lane's
    /// sum, never in it.
    fn direction_sum<const PROBE: bool>(&self, b: usize, cell0: usize, e: &mut [f64]) -> bool {
        const LANES: usize = 8;
        let material = &self.upd.material;
        let row = |d: usize| (d * material.n_bands() + b) * self.n_cells + cell0;
        let weights = material.angles.weights.iter().enumerate();
        let at = e.len() / LANES * LANES;
        let mut lanes = e.chunks_exact_mut(LANES);
        let mut flags = [false; LANES];
        for (j, e) in (&mut lanes).enumerate() {
            let mut acc = [0.0f64; LANES];
            for (d, &w) in weights.clone() {
                let plane = &self.i[row(d) + j * LANES..][..LANES];
                for ((acc, flag), &v) in acc.iter_mut().zip(&mut flags).zip(plane) {
                    *acc += w * v;
                    *flag |= PROBE && flagged(v);
                }
            }
            e.copy_from_slice(&acc);
        }
        for (c, e) in lanes.into_remainder().iter_mut().enumerate() {
            let sum = |sum, (d, &w): (usize, &f64)| sum + w * self.i[row(d) + at + c];
            *e = weights.clone().fold(0.0, sum);
            flags[0] |= PROBE
                && weights
                    .clone()
                    .any(|(d, _)| flagged(self.i[row(d) + at + c]));
        }
        flags.contains(&true)
    }

    /// The rewrite phase: `Io` and `beta` of the owned bands at the
    /// block's located `T_new`, band by band so the stores stream. The
    /// block starts `off` cells into each row segment.
    fn rewrite(&self, at: &[Located], off: usize, io: &mut [&mut [f64]], beta: &mut [&mut [f64]]) {
        let material = &self.upd.material;
        for (b, (io_row, beta_row)) in self.bands.clone().zip(io.iter_mut().zip(beta)) {
            let cells = off..off + at.len();
            let rows = io_row[cells.clone()].iter_mut().zip(&mut beta_row[cells]);
            for ((io, beta), &at) in rows.zip(at) {
                *io = material.io_at(b, at);
                *beta = material.beta_at(b, at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;

    fn setup() -> (Arc<Material>, TemperatureUpdate) {
        let m = Arc::new(Material::silicon_2d(10, 8, 250.0, 400.0));
        let upd = TemperatureUpdate::new(
            m.clone(),
            BteVars {
                i: 0,
                io: 1,
                beta: 2,
                t: 3,
            },
        );
        (m, upd)
    }

    #[test]
    fn newton_recovers_known_temperature() {
        let (m, upd) = setup();
        let n = m.n_bands();
        let mut beta = vec![0.0; n];
        for t_true in [260.0, 300.0, 342.7, 395.0] {
            m.beta_all(t_true, &mut beta);
            // Target constructed from the exact equilibrium at t_true.
            let four_pi = 4.0 * std::f64::consts::PI;
            let target: f64 = (0..n)
                .map(|b| beta[b] * four_pi * m.table().io(b, t_true))
                .sum();
            for guess in [255.0, 300.0, 399.0] {
                let t = upd.solve(&beta, target, guess);
                assert!(
                    (t - t_true).abs() < 1e-6,
                    "t_true={t_true}, guess={guess}: got {t}"
                );
            }
        }
    }

    #[test]
    fn solution_is_monotone_in_target() {
        let (m, upd) = setup();
        let n = m.n_bands();
        let mut beta = vec![0.0; n];
        m.beta_all(300.0, &mut beta);
        let four_pi = 4.0 * std::f64::consts::PI;
        let base: f64 = (0..n)
            .map(|b| beta[b] * four_pi * m.table().io(b, 300.0))
            .sum();
        let t1 = upd.solve(&beta, base * 0.9, 300.0);
        let t2 = upd.solve(&beta, base, 300.0);
        let t3 = upd.solve(&beta, base * 1.1, 300.0);
        assert!(t1 < t2 && t2 < t3);
    }

    #[test]
    fn out_of_table_targets_clamp() {
        let (m, upd) = setup();
        let n = m.n_bands();
        let mut beta = vec![0.0; n];
        m.beta_all(300.0, &mut beta);
        let t = upd.solve(&beta, 1e30, 300.0);
        assert!((t - m.grid().t_max).abs() < 1.0);
        let t = upd.solve(&beta, 0.0, 300.0);
        assert!((t - m.grid().t_min).abs() < 1.0);
    }

    #[test]
    fn solve_counted_reports_positive_iterations() {
        let (m, upd) = setup();
        let n = m.n_bands();
        let mut beta = vec![0.0; n];
        m.beta_all(300.0, &mut beta);
        let four_pi = 4.0 * std::f64::consts::PI;
        let target: f64 = (0..n)
            .map(|b| beta[b] * four_pi * m.table().io(b, 310.0))
            .sum();
        let (t, iters) = upd.solve_counted(&beta, target, 300.0);
        assert!((t - upd.solve(&beta, target, 300.0)).abs() == 0.0);
        assert!(iters >= 1 && iters as usize <= upd.max_iter);
    }
}
