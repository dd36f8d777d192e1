//! The fused row-kernel tier of the intensity phase.
//!
//! Three execution tiers evaluate the RHS (see DESIGN.md §"Kernel
//! tiers"): the `vm` tier's per-dof evaluation of the compiled
//! statements, the fused row kernel this module
//! implements — a [`RegProgram`] for the source
//! term, then a flux pass over the `hot` SoA geometry (on meshes with few
//! face orientations the αβγ table, walked in three loops — straight-line
//! stride-1 and strided stencil runs, which read interior neighbors and
//! walls alike, then the CSR walk of the cells no run takes; the flux's
//! own [`RegProgram`] batched over face slots otherwise — the native tier
//! walks runs on that path too, this one's lane walk does not),
//! evaluated over a whole contiguous cell span per call — and the native
//! tier, which AOT-compiles the same two passes to machine code through
//! [`crate::nativegen`]. All tiers are bit-identical per
//! DOF, independent of how a cell range is split into spans, so every
//! executor (sequential, threaded, distributed, GPU) can route through
//! the same kernels without disturbing the cross-target identity tests.
//!
//! This module is also where a sweep is *walked*: [`sweep`] visits every
//! tile of a rank's [`Scope`] once through [`rhs_block`], by
//! [`for_each_tile`] — in order on the calling thread when the scope has
//! one worker (the sequential target, every distributed rank), carved
//! into per-tile `&mut` slices under one parallel region when it has more
//! (the threaded target). There is no other walker: `driver::axpy` goes
//! through the same helper and the device launch reads the same tiles.
//!
//! [`IntensityKernels`] binds the per-flat register programs once, when it
//! is built: a bound program reads the stage time when it runs, so one
//! binding serves every stage of the run. The native tier extends that
//! story to machine code: preparation (lowering, validation, `rustc`,
//! `dlopen`) happens once per compiled problem, and failures degrade to
//! the row tier with a [`Diagnostic`] instead of erroring.

use super::{
    seq, CompiledProblem, FluxLinearization, Segment, StencilRun, WorkCounters, SLOT_NBR, SLOT_ROW,
};
use crate::analysis::{rules, Diagnostic, Scope, Severity, Tile};
use crate::bytecode::{
    KernelKind, Operand, RegExpr, RegProgram, FACE_INPUTS, FACE_NORMAL, FACE_U1, FACE_U2, ROW_CHUNK,
};
use crate::entities::Fields;
use crate::nativegen::{self, NativeArgs, NativeLib};
use crate::problem::KernelTier;
use rayon::prelude::*;
use std::sync::Arc;

/// Per-sweep scratch of one worker: the register file of the row
/// evaluator and the variable base pointers the native call passes —
/// built once per sweep ([`IntensityKernels::scratch`]), not per span.
pub(crate) struct Scratch {
    regs: Vec<[f64; ROW_CHUNK]>,
    ptrs: Vec<*const f64>,
}

/// Per-flat compiled kernels for one worker's scope.
pub(crate) struct IntensityKernels {
    pub tier: KernelTier,
    flats: Vec<usize>,
    /// Row programs of the volume, per flat (Row tier only).
    reg: Vec<RegProgram>,
    /// Row programs of the flux, per flat (Row tier with a compiled flux
    /// only — the table path and the other tiers leave it empty).
    flux_reg: Vec<RegProgram>,
    max_regs: usize,
    /// Loaded native plan (Native tier only).
    native: Option<Arc<NativeLib>>,
    /// Why the Native tier degraded to Row, when it did.
    native_fallback: Option<Diagnostic>,
}

impl IntensityKernels {
    /// Kernels for a scope at the tier the problem requests.
    pub fn for_scope(cp: &CompiledProblem, flats: &[usize]) -> IntensityKernels {
        Self::with_tier(cp, flats, cp.resolved_tier())
    }

    /// Kernels pinned to a tier, which is the tier that runs (`Bound` is a
    /// `Row` request) — except that `Native` falls back to `Row` when
    /// preparation fails, with a structured [`Diagnostic`] recording why.
    /// On `Row` every program is bound here, once for the whole run.
    pub fn with_tier(cp: &CompiledProblem, flats: &[usize], tier: KernelTier) -> IntensityKernels {
        let mut tier = tier.requested();
        let mut native = None;
        let mut native_fallback = None;
        if tier == KernelTier::Native {
            match nativegen::prepare(cp) {
                Ok(lib) => native = Some(lib),
                Err(reason) => {
                    tier = KernelTier::Row;
                    let diag = Diagnostic {
                        severity: Severity::Warning,
                        rule: rules::NATIVE_FALLBACK,
                        entity: String::new(),
                        location: "intensity phase".to_string(),
                        message: format!(
                            "native tier unavailable, falling back to the row tier: {reason}"
                        ),
                    };
                    // Warn on stderr once per process; every scope still
                    // carries the diagnostic, which a solve records as a
                    // finding (`driver::run_scope`).
                    static ONCE: std::sync::Once = std::sync::Once::new();
                    ONCE.call_once(|| eprintln!("{}", diag.render()));
                    native_fallback = Some(diag);
                }
            }
        }
        // On the Row tier the volume program, and a compiled flux, are
        // bound per flat.
        let bind = |kind| flats.iter().map(|&flat| cp.bind(kind, flat)).collect();
        let row = tier == KernelTier::Row;
        let reg = if row {
            bind(KernelKind::Volume)
        } else {
            Vec::new()
        };
        let flux_reg = if row && cp.compiled_flux() {
            bind(KernelKind::Flux)
        } else {
            Vec::new()
        };
        let max_regs = reg.iter().chain(&flux_reg).map(RegProgram::n_regs).max();
        IntensityKernels {
            tier,
            flats: flats.to_vec(),
            reg,
            flux_reg,
            max_regs: max_regs.unwrap_or(0),
            native,
            native_fallback,
        }
    }

    /// The scope's `k`-th flat.
    pub fn flat(&self, k: usize) -> usize {
        self.flats[k]
    }

    /// The loaded native plan (Native tier only).
    pub fn native(&self) -> &NativeLib {
        self.native
            .as_deref()
            .expect("native tier requires a prepared plan")
    }

    /// The fallback diagnostic, when the Native tier degraded to Row.
    pub fn native_fallback(&self) -> Option<&Diagnostic> {
        self.native_fallback.as_ref()
    }

    /// Fresh scratch for sweeps over `vars`: registers sized for the
    /// widest kernel in the scope, and the base pointer of every variable.
    pub fn scratch(&self, vars: &[&[f64]]) -> Scratch {
        Scratch {
            regs: vec![[0.0; ROW_CHUNK]; self.max_regs.max(1)],
            ptrs: vars.iter().map(|s| s.as_ptr()).collect(),
        }
    }
}

/// Visit every tile of `scope` once with its slice of `out` (the global
/// `flat * n_cells + cell` layout) — the one walk of the sweeps and the
/// updates. With one worker it is an in-order loop on the calling thread
/// over one `init()` state: the sequential target and every distributed
/// rank. With more, `out` is carved into per-tile slices (tiles must
/// ascend through `out`, as they do on the full scope the threaded target
/// owns) and ONE parallel region visits them, each task writing only its
/// own tile — so the split cannot change what a dof reads or computes.
pub(crate) fn for_each_tile<S>(
    scope: &Scope,
    out: &mut [f64],
    init: impl Fn() -> S + Sync,
    visit: impl Fn(&mut S, &Tile, &mut [f64]) + Sync,
) {
    if scope.workers <= 1 {
        let mut state = init();
        for tile in &scope.tiles {
            let at = scope.at(tile);
            visit(&mut state, tile, &mut out[at..at + tile.len]);
        }
        return;
    }
    let mut pieces = Vec::with_capacity(scope.tiles.len());
    let (mut rest, mut base) = (out, 0);
    for tile in &scope.tiles {
        let skip = scope
            .at(tile)
            .checked_sub(base)
            .expect("a fanned-out scope lists its tiles in ascending order");
        let (piece, tail) = rest[skip..].split_at_mut(tile.len);
        pieces.push((tile, piece));
        (rest, base) = (tail, base + skip + tile.len);
    }
    pieces
        .par_iter_mut()
        .for_each(|(tile, piece)| visit(&mut init(), tile, piece));
}

/// One sweep of `cp` over `scope`: the RHS of every owned dof into
/// `out[flat * n_cells + cell]` — or, with `fused_dt`, the Euler update
/// `u + dt·rhs` — one [`rhs_block`] call per tile through
/// [`for_each_tile`]. Each dof is independent within a sweep, so the tile
/// cut cannot change results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    kernels: &IntensityKernels,
    cp: &CompiledProblem,
    fields: &Fields,
    scope: &Scope,
    ghosts: &[f64],
    time: f64,
    fused_dt: Option<f64>,
    out: &mut [f64],
    work: &mut WorkCounters,
) {
    let vars = fields.as_slices();
    for_each_tile(
        scope,
        out,
        || kernels.scratch(&vars),
        |scratch, tile, out| {
            rhs_block(
                kernels, cp, &vars, tile.k, tile.cell0, out, ghosts, time, fused_dt, scratch,
            )
        },
    );
    scope.account(work);
}

/// `source − flux·invV`, or the fused update `u + dt·(source − flux·invV)`
/// when `fused_dt` is set — the last step of every span kernel.
#[inline(always)]
fn finish_dof(
    source: f64,
    flux_sum: f64,
    inv_volume: f64,
    u_here: f64,
    fused_dt: Option<f64>,
) -> f64 {
    let rhs = source - flux_sum * inv_volume;
    match fused_dt {
        Some(dt) => u_here + dt * rhs,
        None => rhs,
    }
}

/// What the table flux of one flat reads: the plan and its αβγ table, the
/// whole unknown `u` and its row `u_row` of `flat`, the ghost values, and
/// the fused update's step, if any.
#[derive(Clone, Copy)]
struct TableFlux<'a> {
    cp: &'a CompiledProblem,
    lin: &'a FluxLinearization,
    u: &'a [f64],
    u_row: &'a [f64],
    flat: usize,
    ghosts: &'a [f64],
    fused_dt: Option<f64>,
}

impl TableFlux<'_> {
    /// The table flux of `cell` by the CSR walk, `o` holding its source on
    /// entry: `seq::flux_sum_dof`'s linearized fast path face for face
    /// (same order, same operations), so results are bit-identical to the
    /// per-DOF tiers. Reads boundary faces through `Walls::ghost_read` and
    /// handles any face count.
    fn csr(&self, cell: usize, o: &mut f64) {
        let hot = &self.cp.hot;
        let u_here = self.u_row[cell];
        let mut flux_sum = 0.0;
        for k in hot.offsets[cell] as usize..hot.offsets[cell + 1] as usize {
            let nb = hot.nbr[k];
            let u2 = if nb >= 0 {
                self.u_row[nb as usize]
            } else {
                let (slot, n_cells) = ((-(nb + 1)) as usize, self.u_row.len());
                let walls = &self.cp.walls;
                walls.ghost_read(self.ghosts, self.u, n_cells, slot, self.flat, cell)
            };
            flux_sum += hot.area[k] * self.lin.eval(self.flat, hot.class[k], u_here, u2);
        }
        *o = finish_dof(*o, flux_sum, hot.inv_volume[cell], u_here, self.fused_dt);
    }

    /// Where slot `s` of `run` reads from the run's cell `j0` on: the
    /// values, the index of cell `j0`'s value, and the index step from one
    /// cell of the run to the next — the neighbor row, or
    /// `Walls::ghost_read`'s ghost row or gather column, as one affine
    /// stream.
    fn stream(&self, run: &StencilRun, s: usize, j0: usize) -> (&[f64], isize, isize) {
        let walls = &self.cp.walls;
        let c = run.cell(j0) as isize;
        let (at, stride) = (run.at[s] as isize, run.stride as isize);
        match run.kind[s] {
            SLOT_NBR => (self.u_row, c + at, stride),
            SLOT_ROW => {
                let step = run.step[s] as isize;
                let row = walls.at(0, self.flat) as isize + at + j0 as isize * step;
                (self.ghosts, row, step)
            }
            _ => {
                let source = walls.column(at as usize)[self.flat] as isize;
                (self.u, source * self.u_row.len() as isize + c, stride)
            }
        }
    }

    /// The table flux over the cells `j0 .. j1` of the stencil run `run` of
    /// `NF`-face cells, `out` covering the cells from `cell0`: per slot, the
    /// αβγ of the run's class and the slot's stream are hoisted out of the
    /// loop, leaving `flux += area · (γ + α·u + β·u2)` for slots `0..NF` in
    /// order — per dof the operation sequence of [`Self::csr`] on the same
    /// values, so the same bits.
    fn stencil<const NF: usize>(
        &self,
        run: &StencilRun,
        j0: usize,
        j1: usize,
        cell0: usize,
        out: &mut [f64],
    ) {
        let (hot, lin) = (&self.cp.hot, self.lin);
        let coef: [[f64; 3]; NF] = std::array::from_fn(|s| {
            let at = self.flat * lin.n_classes + run.class[s] as usize;
            [lin.gamma[at], lin.alpha[at], lin.beta[at]]
        });
        let streams: [_; NF] = std::array::from_fn(|s| self.stream(run, s, j0));
        let (c0, n) = (run.cell(j0), j1 - j0);
        if streams.iter().all(|&(_, _, step)| step == 1) {
            // Every stream steps one value per cell, as do the cells (the
            // stride is 1) and their face slots: all of them are slices.
            let u2: [&[f64]; NF] = std::array::from_fn(|s| {
                let (values, at, _) = streams[s];
                &values[at as usize..at as usize + n]
            });
            let k0 = hot.offsets[c0] as usize;
            let area = hot.area[k0..k0 + NF * n].chunks_exact(NF);
            let cells = self.u_row[c0..c0 + n]
                .iter()
                .zip(&hot.inv_volume[c0..c0 + n]);
            let out = out[c0 - cell0..c0 - cell0 + n].iter_mut().zip(area);
            for (j, ((o, area), (&u_here, &inv_volume))) in out.zip(cells).enumerate() {
                let mut flux_sum = 0.0;
                for s in 0..NF {
                    let [gamma, alpha, beta] = coef[s];
                    flux_sum += area[s] * (gamma + alpha * u_here + beta * u2[s][j]);
                }
                *o = finish_dof(*o, flux_sum, inv_volume, u_here, self.fused_dt);
            }
            return;
        }
        for j in 0..n {
            let c = run.cell(j0 + j);
            let u_here = self.u_row[c];
            let k = hot.offsets[c] as usize;
            let mut flux_sum = 0.0;
            for s in 0..NF {
                let [gamma, alpha, beta] = coef[s];
                let (values, at, step) = streams[s];
                let u2 = values[(at + j as isize * step) as usize];
                flux_sum += hot.area[k + s] * (gamma + alpha * u_here + beta * u2);
            }
            let o = &mut out[c - cell0];
            *o = finish_dof(*o, flux_sum, hot.inv_volume[c], u_here, self.fused_dt);
        }
    }

    /// [`Self::stencil`] unrolled for a run's face count (triangles to
    /// hexahedra); any other count takes the CSR walk cell by cell.
    fn run(&self, run: &StencilRun, j0: usize, j1: usize, cell0: usize, out: &mut [f64]) {
        match run.nf {
            3 => self.stencil::<3>(run, j0, j1, cell0, out),
            4 => self.stencil::<4>(run, j0, j1, cell0, out),
            5 => self.stencil::<5>(run, j0, j1, cell0, out),
            6 => self.stencil::<6>(run, j0, j1, cell0, out),
            _ => (j0..j1).for_each(|j| {
                let c = run.cell(j);
                self.csr(c, &mut out[c - cell0])
            }),
        }
    }
}

/// Combine precomputed source values with the face-flux sum over a
/// contiguous cell span, through the αβγ table. On entry `out[i]` holds
/// the source for cell `cell0 + i`; on exit it holds the RHS or the fused
/// update (see [`finish_dof`]).
///
/// The span is walked in three independent loops
/// ([`HotGeometry::segments`]): the stride-1 [`StencilRun`]s overlapping
/// it, then the strided ones, each clipped to the span and run by the
/// straight-line [`TableFlux::stencil`], then the cells of no run (a grid's
/// corners, every cell of a mesh without runs) by the CSR walk of
/// [`TableFlux::csr`]. A span may start or end anywhere inside a run; both
/// paths produce the same bits per dof, so the split never shows in the
/// result.
fn flux_combine(flux: TableFlux, cell0: usize, out: &mut [f64]) {
    for segment in flux.cp.hot.segments(cell0, cell0 + out.len()) {
        match segment {
            Segment::Run(run, j0, j1) => flux.run(run, j0, j1, cell0, out),
            Segment::Cell(c) => flux.csr(c, &mut out[c - cell0]),
        }
    }
}

/// The general sibling of [`flux_combine`] for meshes without an αβγ
/// table: the flux's own row program, batched over the span's face slots.
///
/// The CSR slots `offsets[cell0] .. offsets[cell0 + out.len()]` are walked
/// in `ROW_CHUNK` lanes: gather the face inputs (owner value, neighbor or
/// `Walls::ghost_read` value, oriented normal) — and, for a flux that reads
/// them, the cell variables at the owner cell and the face centroids a
/// function coefficient is evaluated at — evaluate `flux` once per chunk,
/// then per cell accumulate `flux_sum += area[k] * f[k]` from 0.0 in slot
/// order: the operation sequence of `seq::flux_sum_dof`'s per-face branch,
/// so results are bit-identical to the `vm` tier however the span is
/// split. A cell's sum carries across chunk boundaries.
#[allow(clippy::too_many_arguments)]
fn flux_combine_compiled(
    flux: &RegProgram,
    cp: &CompiledProblem,
    vars: &[&[f64]],
    u_row: &[f64],
    flat: usize,
    ghosts: &[f64],
    cell0: usize,
    out: &mut [f64],
    time: f64,
    fused_dt: Option<f64>,
    regs: &mut [[f64; ROW_CHUNK]],
) {
    let hot = &cp.hot;
    let n_cells = u_row.len();
    let u = vars[cp.system.unknown];
    let walls = &cp.walls;
    let face_base = cp.flux.face_base;
    let mut lanes = [[0.0f64; ROW_CHUNK]; FACE_INPUTS];
    // The cell variables the flux reads, each gathered at the owner cell
    // of every lane, and the face centroids a function coefficient is
    // evaluated at.
    let operands = flux.stmts().iter().flat_map(|s| s.expr.operands());
    let mut cell_loads: Vec<(u16, usize)> = operands
        .filter_map(|o| match *o {
            Operand::Load { var, offset } if var < face_base => Some((var, offset)),
            _ => None,
        })
        .collect();
    cell_loads.sort_unstable();
    cell_loads.dedup();
    let mut cell_lanes = vec![[0.0f64; ROW_CHUNK]; cell_loads.len()];
    let calls_fn = flux
        .stmts()
        .iter()
        .any(|s| matches!(s.expr, RegExpr::CoefFn { .. }));
    let mut centroids = vec![pbte_mesh::Point::zero(); if calls_fn { ROW_CHUNK } else { 0 }];
    let mesh = cp.mesh();
    let cell_end = cell0 + out.len();
    let end = hot.offsets[cell_end] as usize;
    let mut k0 = hot.offsets[cell0] as usize;
    // `cell` is the cell whose sum is open; cells before it are finished.
    let mut cell = cell0;
    let mut flux_sum = 0.0;
    let mut finish = |cell: usize, flux_sum: f64| {
        let o = &mut out[cell - cell0];
        *o = finish_dof(*o, flux_sum, hot.inv_volume[cell], u_row[cell], fused_dt);
    };
    while k0 < end {
        let len = (end - k0).min(ROW_CHUNK);
        let mut owner = cell;
        for (l, k) in (k0..k0 + len).enumerate() {
            while k >= hot.offsets[owner + 1] as usize {
                owner += 1;
            }
            let nb = hot.nbr[k];
            lanes[FACE_U1 as usize][l] = u_row[owner];
            lanes[FACE_U2 as usize][l] = if nb >= 0 {
                u_row[nb as usize]
            } else {
                walls.ghost_read(ghosts, u, n_cells, (-(nb + 1)) as usize, flat, owner)
            };
            let n = hot.normal(k);
            for (axis, &component) in n.iter().enumerate() {
                lanes[FACE_NORMAL as usize + axis][l] = component;
            }
            for (&(var, offset), lane) in cell_loads.iter().zip(&mut cell_lanes) {
                lane[l] = vars[var as usize][offset + owner];
            }
            if calls_fn {
                let face = mesh.cell_faces(owner)[k - hot.offsets[owner] as usize];
                centroids[l] = mesh.faces[face].centroid;
            }
        }
        let load = |var: u16, offset| match var.checked_sub(face_base) {
            Some(input) => &lanes[input as usize][..len],
            None => {
                let at = cell_loads.iter().position(|&l| l == (var, offset));
                &cell_lanes[at.expect("every cell load is gathered")][..len]
            }
        };
        flux.eval_chunk(len, load, &centroids, 0, time, regs);
        for (k, f) in (k0..).zip(&regs[0][..len]) {
            while k >= hot.offsets[cell + 1] as usize {
                finish(cell, flux_sum);
                cell += 1;
                flux_sum = 0.0;
            }
            flux_sum += hot.area[k] * f;
        }
        k0 += len;
    }
    // The open cell, and any trailing cells without faces.
    while cell < cell_end {
        finish(cell, flux_sum);
        cell += 1;
        flux_sum = 0.0;
    }
}

/// Evaluate a full row-kernel span: batched source via [`RegProgram`],
/// then the fused flux/update combine (table or compiled). `out` covers
/// cells `cell0 .. cell0 + out.len()`; `regs` is the register file of the
/// caller's [`Scratch`].
#[allow(clippy::too_many_arguments)]
fn rhs_span(
    kernels: &IntensityKernels,
    k: usize,
    cp: &CompiledProblem,
    vars: &[&[f64]],
    n_cells: usize,
    ghosts: &[f64],
    cell0: usize,
    out: &mut [f64],
    time: f64,
    fused_dt: Option<f64>,
    regs: &mut [[f64; ROW_CHUNK]],
) {
    let flat = kernels.flat(k);
    let centroids = &cp.mesh().cell_centroids;
    kernels.reg[k].eval_row(vars, cell0, out, centroids, time, regs);
    let u = vars[cp.system.unknown];
    let u_row = &u[flat * n_cells..(flat + 1) * n_cells];
    match &cp.flux_lin {
        Some(lin) => {
            let flux = TableFlux {
                cp,
                lin,
                u,
                u_row,
                flat,
                ghosts,
                fused_dt,
            };
            flux_combine(flux, cell0, out)
        }
        None => flux_combine_compiled(
            &kernels.flux_reg[k],
            cp,
            vars,
            u_row,
            flat,
            ghosts,
            cell0,
            out,
            time,
            fused_dt,
            regs,
        ),
    }
}

/// Evaluate a full span through the AOT-compiled native kernel — the
/// machine-code equivalent of [`rhs_span`], bit-identical by construction
/// (the emitted code performs the same scalar operations in the same
/// order; see `crate::nativegen`).
#[allow(clippy::too_many_arguments)]
fn rhs_span_native(
    lib: &NativeLib,
    cp: &CompiledProblem,
    vars: &[&[f64]],
    ptrs: &[*const f64],
    flat: usize,
    ghosts: &[f64],
    cell0: usize,
    out: &mut [f64],
    time: f64,
    fused_dt: Option<f64>,
) {
    let hot = &cp.hot;
    debug_assert!(
        vars.iter().map(|s| s.as_ptr()).eq(ptrs.iter().copied()),
        "scratch was built for other variables"
    );
    // A kernel loads every variable's base pointer at entry.
    debug_assert_eq!(
        ptrs.len(),
        cp.flux.face_base as usize,
        "one pointer per variable"
    );
    let (kernel, row) = lib.kernel(flat);
    // The flat's row of a flux table (none on a compiled-flux plan).
    let lin_row = |table: fn(&FluxLinearization) -> &Vec<f64>| match &cp.flux_lin {
        Some(lin) => table(lin)[flat * lin.n_classes..].as_ptr(),
        None => std::ptr::null(),
    };
    let args = NativeArgs {
        vars: ptrs.as_ptr(),
        ghosts: ghosts.as_ptr(),
        wall_read: cp.walls.read.as_ptr(),
        wall_columns: cp.walls.columns.as_ptr(),
        offsets: hot.offsets.as_ptr(),
        nbr: hot.nbr.as_ptr(),
        area: hot.area.as_ptr(),
        class: hot.class.as_ptr(),
        inv_volume: hot.inv_volume.as_ptr(),
        out: out.as_mut_ptr(),
        cell0,
        len: out.len(),
        fused_dt: fused_dt.unwrap_or(0.0),
        fused: fused_dt.is_some() as u8,
        time,
        normals: hot.normals.as_ptr(),
        runs: hot.runs.as_ptr(),
        n_runs: hot.runs.len(),
        strided: hot.strided.as_ptr(),
        n_strided: hot.strided.len(),
        rest: hot.rest.as_ptr(),
        n_rest: hot.rest.len(),
        flat,
        row: row.words.as_ptr(),
        alpha: lin_row(|lin| &lin.alpha),
        beta: lin_row(|lin| &lin.beta),
        gamma: lin_row(|lin| &lin.gamma),
        n_cells: hot.inv_volume.len(),
        n_rows: cp.walls.n_rows,
        n_flat: cp.walls.n_flat,
    };
    // SAFETY: the kernel was generated for this plan's shapes and proven,
    // with this row, to compute the flat's program (same variable layout,
    // one pointer per variable, same geometry arrays and wall tables, the
    // load offsets in the row),
    // the span `cell0 .. cell0 + out.len()` is in bounds by the same
    // contract `rhs_span` relies on, and all pointers outlive the call.
    unsafe { kernel(&args) };
}

/// Evaluate the RHS of the scope's `k`-th flat over the contiguous cells
/// `cell0 .. cell0 + out.len()` at the kernels' tier. This is the one tier
/// dispatch of the intensity phase: the tile walk ([`sweep`], on one worker
/// or many) and the device row launch both call it, so every executor runs
/// the same per-dof arithmetic. With `fused_dt` the explicit update is folded
/// in (`out = u + dt·rhs`). `scratch` is [`IntensityKernels::scratch`] of
/// these `vars`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rhs_block(
    kernels: &IntensityKernels,
    cp: &CompiledProblem,
    vars: &[&[f64]],
    k: usize,
    cell0: usize,
    out: &mut [f64],
    ghosts: &[f64],
    time: f64,
    fused_dt: Option<f64>,
    scratch: &mut Scratch,
) {
    let flat = kernels.flat(k);
    let n_cells = cp.hot.inv_volume.len();
    match kernels.tier {
        KernelTier::Row => rhs_span(
            kernels,
            k,
            cp,
            vars,
            n_cells,
            ghosts,
            cell0,
            out,
            time,
            fused_dt,
            &mut scratch.regs,
        ),
        KernelTier::Native => rhs_span_native(
            kernels.native(),
            cp,
            vars,
            &scratch.ptrs,
            flat,
            ghosts,
            cell0,
            out,
            time,
            fused_dt,
        ),
        // `Vm`, one (cell, flat) pair at a time: `IntensityKernels::with_tier`
        // resolves every request to one of these three tiers.
        _ => {
            let u_row = &vars[cp.system.unknown][flat * n_cells..(flat + 1) * n_cells];
            for (i, o) in out.iter_mut().enumerate() {
                let rhs = seq::eval_rhs_dof_vm(cp, vars, ghosts, cell0 + i, flat, time);
                *o = match fused_dt {
                    Some(dt) => u_row[cell0 + i] + dt * rhs,
                    None => rhs,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::MIN_RUN;
    use super::super::SLOT_GATHER;
    use super::*;
    use crate::entities::Fields;
    use crate::problem::{BoundaryCondition, Problem};
    use pbte_mesh::{Mesh, Point, UniformGrid};

    /// 16×16 quads with jittered interior vertices, each cut into two
    /// triangles: ~1 500 face orientations (no αβγ table), and three faces
    /// per cell, so `ROW_CHUNK` lanes never end on a cell boundary.
    fn jittered_triangles() -> Mesh {
        let n = 16;
        let base = UniformGrid::new_2d(n, n, 1.0, 1.0).build();
        let mut verts: Vec<Point> = base.vertices.clone();
        for (i, v) in verts.iter_mut().enumerate() {
            if v.x > 1e-9 && v.x < 1.0 - 1e-9 && v.y > 1e-9 && v.y < 1.0 - 1e-9 {
                let wobble = |k: u64| {
                    let mut x = (2 * i as u64 + k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    (x >> 40) as f64 / (1u64 << 24) as f64 - 0.5
                };
                v.x += wobble(0) * 0.2 / n as f64;
                v.y += wobble(1) * 0.2 / n as f64;
            }
        }
        let cells: Vec<Vec<usize>> = (0..base.n_cells())
            .flat_map(|c| {
                let q = base.cell_vertices(c);
                [vec![q[0], q[1], q[2]], vec![q[0], q[2], q[3]]]
            })
            .collect();
        let mut mesh = Mesh::from_cells(2, verts, &cells);
        mesh.add_boundary_region("wall", |_| true);
        mesh
    }

    /// Four-direction upwind transport with decay on `mesh`. Its boundary
    /// region `wall` is a fixed value; `mirror`, when the mesh has it, a
    /// lowered gather — a different permutation of the directions per
    /// side, so each side reads its own gather column.
    fn upwind_plan(mesh: Mesh) -> (CompiledProblem, Fields) {
        let dim = mesh.dim;
        let mirrored = mesh.region_id("mirror").is_some();
        let mut p = Problem::new("rows-upwind");
        p.domain(dim);
        p.mesh(mesh);
        p.set_steps(1e-3, 1);
        let d = p.index("d", 4);
        let i_var = p.variable("I", &[d]);
        p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -0.6, 0.28]);
        p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.8, -0.96]);
        p.initial(i_var, |x, idx| {
            (17.0 * x.x + 5.0 * x.y + 3.0 * x.z + idx[0] as f64).sin()
        });
        p.boundary(i_var, "wall", BoundaryCondition::Value(0.25));
        if mirrored {
            let source = |n: Point, d: usize| match n.x < 0.0 {
                true => 3 - d,
                false => (d + 1) % 4,
            };
            p.boundary(
                i_var,
                "mirror",
                BoundaryCondition::gather(
                    &["I"],
                    move |q| q.fields.value(0, q.owner_cell, source(q.normal, q.idx[0])),
                    move |n, idx| Some(source(n, idx[0])),
                ),
            );
        }
        if dim == 3 {
            p.coefficient_array("Sz", &[d], vec![0.0, 0.0, 0.0, 0.0]);
            p.conservation_form(i_var, "-I[d] + surface(upwind([Sx[d];Sy[d];Sz[d]], I[d]))");
        } else {
            p.conservation_form(i_var, "-I[d] + surface(upwind([Sx[d];Sy[d]], I[d]))");
        }
        CompiledProblem::compile(p).unwrap()
    }

    fn triangle_plan() -> (CompiledProblem, Fields) {
        upwind_plan(jittered_triangles())
    }

    /// `grid` with `swaps` seeded transpositions applied to its cell
    /// numbering (0: the grid's own order) — same geometry, same answer
    /// per cell, but every swapped cell cuts a stencil run in two.
    fn renumbered(grid: &UniformGrid, seed: u64, swaps: usize) -> Mesh {
        let base = grid.build();
        let mut order: Vec<usize> = (0..base.n_cells()).collect();
        let mut x = seed;
        let mut draw = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z ^ z >> 27) >> 16) as usize % base.n_cells()
        };
        for _ in 0..swaps {
            let (a, b) = (draw(), draw());
            order.swap(a, b);
        }
        let cells: Vec<Vec<usize>> = order
            .iter()
            .map(|&c| base.cell_vertices(c).to_vec())
            .collect();
        let mut mesh = Mesh::from_cells(base.dim, base.vertices.clone(), &cells);
        let (eps, lx) = (1e-9 * grid.lx, grid.lx);
        mesh.add_boundary_region("mirror", |c| c.x < eps || c.x > lx - eps);
        mesh.add_boundary_region("wall", |_| true);
        mesh
    }

    /// One sweep over all dofs at `tier`, every flat's cell range cut into
    /// spans of `span` cells. `out` starts as NaN, so a dof the kernel
    /// never writes fails every bitwise comparison.
    fn sweep(
        cp: &CompiledProblem,
        fields: &Fields,
        tier: KernelTier,
        span: usize,
        fused_dt: Option<f64>,
    ) -> Vec<f64> {
        let n_cells = fields.n_cells;
        let flats: Vec<usize> = (0..cp.n_flat).collect();
        let mut ghosts = super::super::walls::Ghosts::for_plan(cp);
        let ghosts = ghosts.refresh(cp, fields, &flats, 0.0, &mut Default::default(), false);
        let kernels = IntensityKernels::with_tier(cp, &flats, tier);
        assert_eq!(kernels.tier, tier);
        let vars = fields.as_slices();
        let mut scratch = kernels.scratch(&vars);
        let mut out = vec![f64::NAN; cp.n_flat * n_cells];
        for k in 0..cp.n_flat {
            for cell0 in (0..n_cells).step_by(span) {
                let len = span.min(n_cells - cell0);
                let at = k * n_cells + cell0;
                rhs_block(
                    &kernels,
                    cp,
                    &vars,
                    k,
                    cell0,
                    &mut out[at..at + len],
                    ghosts,
                    0.0,
                    fused_dt,
                    &mut scratch,
                );
            }
        }
        out
    }

    /// The compiled flux carries a cell's partial sum across lane chunks
    /// and across nothing else: however the cell range is cut, with and
    /// without the fused update, every dof equals the `Vm` tier's, whose
    /// flux is the compiled flux program face by face.
    #[test]
    fn compiled_flux_is_bit_identical_to_the_vm_flux_for_any_span_split() {
        let (cp, fields) = triangle_plan();
        assert!(cp.compiled_flux());
        for fused_dt in [None, Some(1e-3)] {
            let n_cells = fields.n_cells;
            let reference = sweep(&cp, &fields, KernelTier::Vm, n_cells, fused_dt);
            for span in [1, 7, ROW_CHUNK, ROW_CHUNK + 1, n_cells] {
                let row = sweep(&cp, &fields, KernelTier::Row, span, fused_dt);
                for (i, (a, b)) in row.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "fused {fused_dt:?} span {span} dof {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Whether `tier` resolves on this host (Native needs a `rustc`).
    fn available(cp: &CompiledProblem, tier: KernelTier) -> bool {
        IntensityKernels::with_tier(cp, &[0], tier).tier == tier
    }

    /// Row and Native against `Vm` (the per-dof CSR walk), bit for bit,
    /// with the cell range cut so that spans start, end and straddle
    /// inside stencil runs — interior and wall rows, and the strided x-end
    /// columns, which every span shorter than the mesh clips — with and
    /// without the fused update.
    fn assert_runs_match_the_csr_walk(cp: &CompiledProblem, fields: &Fields, nx: usize) {
        assert!(cp.flux_lin.is_some(), "a table plan");
        let n_cells = fields.n_cells;
        let spans = [
            1,
            7,
            MIN_RUN - 1,
            MIN_RUN,
            ROW_CHUNK,
            nx - 2,
            nx - 1,
            nx,
            nx + 1,
            2 * nx + 3,
            n_cells,
        ];
        for fused_dt in [None, Some(1e-3)] {
            let reference = sweep(cp, fields, KernelTier::Vm, n_cells, fused_dt);
            for tier in [KernelTier::Row, KernelTier::Native] {
                if !available(cp, tier) {
                    continue;
                }
                for span in spans {
                    let got = sweep(cp, fields, tier, span, fused_dt);
                    for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{tier:?} fused {fused_dt:?} span {span} dof {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// (cells in stride-1 runs, their count, strided runs, the remainder)
    /// of a plan's run tables.
    fn run_census(cp: &CompiledProblem) -> (usize, usize, usize, Vec<u32>) {
        let hot = &cp.hot;
        let cells = hot.runs.iter().map(|r| r.len as usize).sum();
        (cells, hot.runs.len(), hot.strided.len(), hot.rest.clone())
    }

    /// The cells of a grid outside the ends of its rows that run along
    /// neither end of its columns: the corners of a 2-D grid, the
    /// x-end∧y-end columns of a 3-D one.
    fn grid_rest(grid: &UniformGrid) -> Vec<u32> {
        let (nx, ny) = (grid.nx, grid.ny);
        let layers = grid.nz.max(1);
        let corners = [0, nx - 1, nx * (ny - 1), nx * ny - 1];
        let rest = (0..layers).flat_map(|z| corners.map(|c| (z * nx * ny + c) as u32));
        rest.collect()
    }

    #[test]
    fn stencil_runs_are_bit_identical_to_the_csr_walk_for_any_span_split() {
        // Rows of 18 and 8 cells, x-end columns of 10 and 8: all ≥ MIN_RUN.
        // The x ends gather, every other wall is a fixed value, so the runs
        // read all three slot kinds; the hexes' x∧y edges are 1 cell long.
        let quads = UniformGrid::new_2d(20, 12, 1.0, 0.6);
        let hexes = UniformGrid::new_3d(10, 10, 3, 1.2, 0.5, 0.4);
        for (grid, faces, swaps) in [(&quads, 4, 6), (&hexes, 6, 2)] {
            let (cp, fields) = upwind_plan(renumbered(grid, 0, 0));
            let (nx, ny, layers) = (grid.nx, grid.ny, grid.nz.max(1));
            let rows = ny * layers;
            let census = run_census(&cp);
            assert_eq!(
                census,
                ((nx - 2) * rows, rows, 2 * layers, grid_rest(grid)),
                "{}-D",
                grid.nz.min(1) + 2
            );
            let hot = &cp.hot;
            assert!(hot.runs.iter().chain(&hot.strided).all(|r| r.nf == faces));
            assert!(hot
                .strided
                .iter()
                .all(|r| (r.stride, r.len) == (nx as u32, ny as u32 - 2)));
            // The wall rows read ghost rows, the x-end columns the gathers.
            assert!(hot
                .runs
                .iter()
                .any(|r| r.kind[..faces as usize].contains(&SLOT_ROW)));
            assert!(hot.strided.iter().all(|r| r.kind.contains(&SLOT_GATHER)));
            assert_runs_match_the_csr_walk(&cp, &fields, nx);

            // Renumbered: runs cut short or lost, same bits.
            let (shuffled, fields) = upwind_plan(renumbered(grid, 0x5EED, swaps));
            let (cut_cells, _, _, rest) = run_census(&shuffled);
            let cells = census.0;
            assert!(0 < cut_cells && cut_cells < cells, "{cut_cells} of {cells}");
            assert!(rest.len() > census.3.len());
            assert_runs_match_the_csr_walk(&shuffled, &fields, nx);
        }
    }

    #[test]
    fn run_table_covers_a_grid_but_its_corners_and_no_jittered_cell() {
        let grid = UniformGrid::new_2d(64, 64, 1.0, 1.0);
        let (cp, _) = upwind_plan(renumbered(&grid, 0, 0));
        assert_eq!(run_census(&cp), (64 * 62, 64, 2, grid_rest(&grid)));
        assert_eq!(cp.hot.run_cells_in(0, 64 * 64), 64 * 64 - 4);
        // Row 0 holds cells 0..64, its run 1..63; cell 64 starts a column.
        assert_eq!(cp.hot.run_cells_in(60, 10), 9);
        assert_eq!(cp.hot.run_cells_in(120, 80), 80);
        // A run is a shape of the connectivity, not of the flux path: the
        // jittered triangles have no flux table and no run either, because
        // the two halves of a quad alternate neighbor offsets.
        let (cp, _) = triangle_plan();
        assert!(cp.compiled_flux() && cp.hot.runs.is_empty() && cp.hot.strided.is_empty());
        assert_eq!(cp.hot.rest.len(), cp.mesh().n_cells());
    }

    /// The compiled-flux emission is pinned: it changes only on purpose (a
    /// changed source is a changed cache key, so every cached `.so` is
    /// recompiled). Last moved when the flats became one kernel per
    /// statement shape, reading the flat's constants, load offsets and
    /// sizes from `Args`.
    #[test]
    fn compiled_flux_source_is_pinned() {
        let (cp, _) = triangle_plan();
        let (text, n_shapes, _) = nativegen::lower_source(&cp).unwrap();
        assert_eq!(n_shapes, 1);
        assert_eq!(nativegen::fnv1a(&text), 0xeebb_06ba_4e0d_0c69);
        assert_eq!(text.len(), 6_930);
    }

    /// The table-plan emission is pinned the same way, on a hot-spot-like
    /// uniform grid. Last moved when its source statements joined the flux
    /// loops, one pass per flat row.
    #[test]
    fn table_plan_source_is_pinned() {
        let grid = UniformGrid::new_2d(24, 24, 1.0, 1.0);
        let (cp, _) = upwind_plan(renumbered(&grid, 0, 0));
        assert!(cp.flux_lin.is_some(), "a table plan");
        let (text, n_shapes, _) = nativegen::lower_source(&cp).unwrap();
        assert_eq!(n_shapes, 1);
        assert_eq!(nativegen::fnv1a(&text), 0xcdd0_178c_1861_ec24);
        assert_eq!(text.len(), 10_281);
    }

    /// `(cell0, len)` of every tile of the first flat.
    fn first_row(tiles: &[Tile]) -> Vec<(usize, usize)> {
        let row = tiles.iter().filter(|t| t.k == 0);
        row.map(|t| (t.cell0, t.len)).collect()
    }

    #[test]
    fn spans_merges_contiguous_runs() {
        let cells = [0usize, 1, 2, 5, 6, 9];
        let tiles = Scope::tile(&cells, 2, 1);
        assert_eq!(first_row(&tiles), vec![(0, 3), (5, 2), (9, 1)]);
        // Flat-major: the same row again for the second flat.
        assert_eq!(tiles.len(), 6);
        assert!(tiles[3..].iter().all(|t| t.k == 1));
        // Cut in two: near-equal pieces, empty ones dropped.
        assert_eq!(
            first_row(&Scope::tile(&cells, 1, 2)),
            vec![(0, 1), (1, 2), (5, 1), (6, 1), (9, 1)]
        );
    }

    #[test]
    fn spans_handles_unsorted_lists() {
        let cells = [4usize, 2, 3, 1];
        let got = first_row(&Scope::tile(&cells, 1, 1));
        assert_eq!(got, vec![(4, 1), (2, 2), (1, 1)]);
        assert_eq!(got.iter().map(|&(_, l)| l).sum::<usize>(), cells.len());
    }

    #[test]
    fn spans_empty() {
        assert!(Scope::tile(&[], 3, 2).is_empty());
        assert!(Scope::tile(&[1, 2], 0, 2).is_empty());
    }

    /// Satellite (a): whatever the owned-cell list (contiguous, gapped,
    /// unsorted, length-1 runs), the flat subset and the cut, the tiles
    /// cover every owned dof exactly once, nothing else, flat-major.
    #[test]
    fn tiles_cover_every_owned_dof_exactly_once() {
        const N_CELLS: usize = 41;
        const N_FLAT: usize = 6;
        let mut x = 0x0071_17E5_u64;
        let mut draw = |n: usize| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z ^ z >> 27) >> 16) as usize % n
        };
        for case in 0..400 {
            // Keep each cell with a per-case density (1 in 1 .. 1 in 4), then
            // sometimes scramble the order.
            let density = 1 + draw(4);
            let mut cells: Vec<usize> = (0..N_CELLS).filter(|_| draw(density) == 0).collect();
            if case % 3 == 0 {
                for _ in 0..cells.len() {
                    let (a, b) = (draw(cells.len()), draw(cells.len()));
                    cells.swap(a, b);
                }
            }
            let flats: Vec<usize> = (0..N_FLAT).filter(|_| draw(2) == 0).collect();
            for parts in [1, 2, 3, 7, N_CELLS + 5] {
                let offsets: Vec<u32> = (0..=N_CELLS as u32).map(|c| 3 * c).collect();
                let scope = Scope::new(&offsets, cells.clone(), flats.clone(), parts);
                assert_eq!(scope.faces, 3 * cells.len() as u64);
                let mut hits = vec![0u32; N_FLAT * N_CELLS];
                let mut last_k = 0;
                for (tile, span) in scope.tiles.iter().zip(scope.spans()) {
                    assert!(
                        tile.len > 0 && tile.k >= last_k,
                        "flat-major, no empty tile"
                    );
                    last_k = tile.k;
                    assert_eq!(span.len(), tile.len);
                    for dof in span {
                        hits[dof] += 1;
                    }
                }
                for (dof, &n) in hits.iter().enumerate() {
                    let owned =
                        flats.contains(&(dof / N_CELLS)) && cells.contains(&(dof % N_CELLS));
                    assert_eq!(n, owned as u32, "case {case} parts {parts} dof {dof}");
                }
                // A maximal span is cut into min(parts, its length) pieces.
                let spans = first_row(&Scope::tile(&cells, 1, 1));
                let pieces: usize = spans.iter().map(|&(_, len)| len.min(parts)).sum();
                assert_eq!(scope.tiles.len(), pieces * flats.len());
            }
        }
    }
}
