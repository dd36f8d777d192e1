//! The fused row-kernel tier of the intensity phase.
//!
//! Four execution tiers evaluate the RHS (see DESIGN.md §"Kernel
//! tiers"): the generic stack VM, the per-flat bound program, the fused
//! row kernel this module implements — a [`RegProgram`] for the source
//! term plus a straight-line flux loop over the `hot` SoA geometry,
//! evaluated over a whole contiguous cell span per call — and the native
//! tier, which AOT-compiles the same per-flat row programs to machine
//! code through [`crate::nativegen`]. All tiers are bit-identical per
//! DOF, independent of how a cell range is split into spans, so every
//! executor (sequential, threaded, distributed, GPU) can route through
//! the same kernels without disturbing the cross-target identity tests.
//!
//! [`IntensityKernels`] also owns the cross-step bind cache: when the
//! volume program provably never reads `t`, the per-flat specialization is
//! reused for the whole run instead of being rebuilt every step. The
//! native tier extends that story to machine code: preparation (lowering,
//! validation, `rustc`, `dlopen`) happens once at scope construction, and
//! failures degrade to the row tier with a [`Diagnostic`] instead of
//! erroring.

use super::{seq, CompiledProblem, HotGeometry};
use crate::analysis::{rules, Diagnostic, Severity};
use crate::bytecode::{BoundProgram, RegProgram, ROW_CHUNK};
use crate::nativegen::{self, NativeArgs, NativeLib};
use crate::problem::KernelTier;
use pbte_mesh::Point;
use std::sync::Arc;

/// How a flux sum treats boundary faces.
#[derive(Clone, Copy)]
pub(crate) enum FluxBoundary<'a> {
    /// Read ghost values at `slot * n_flat + flat`.
    Ghosts(&'a [f64]),
    /// Skip boundary faces entirely — the GPU `AsyncBoundary` strategy
    /// adds the host-computed boundary contribution separately.
    Skip,
}

/// Per-flat compiled kernels for one worker's scope, plus the bind cache.
pub(crate) struct IntensityKernels {
    pub tier: KernelTier,
    flats: Vec<usize>,
    bound: Vec<BoundProgram>,
    reg: Vec<RegProgram>,
    /// Time the cached programs were bound at (bit pattern compared).
    bound_time: f64,
    /// Whether the volume program reads `t` (forces per-stage rebinds).
    time_dependent: bool,
    rebind_per_step: bool,
    max_regs: usize,
    /// Total face count over the scope's cells, summed once (fixes the
    /// old `faces_per_cell_hint` sampling of `cells[0]` only).
    faces_in_scope: Option<u64>,
    /// How many times `ensure` actually re-bound (diagnostics/tests).
    pub rebinds: u64,
    /// Loaded native plan (Native tier only).
    native: Option<Arc<NativeLib>>,
    /// Why the Native tier degraded to Row, when it did.
    native_fallback: Option<Diagnostic>,
}

impl IntensityKernels {
    /// Kernels for a scope using the problem's resolved tier.
    pub fn for_scope(cp: &CompiledProblem, flats: &[usize]) -> IntensityKernels {
        Self::with_tier(cp, flats, cp.resolved_tier())
    }

    /// Kernels pinned to a tier (`Row` falls back to `Bound` when the
    /// flux didn't linearize — the row flux loop needs the αβγ tables —
    /// and `Native` falls back to `Row` when preparation fails, with a
    /// structured [`Diagnostic`] recording why).
    pub fn with_tier(cp: &CompiledProblem, flats: &[usize], tier: KernelTier) -> IntensityKernels {
        let mut tier = match tier {
            KernelTier::Row if cp.flux_lin.is_none() => KernelTier::Bound,
            t => t,
        };
        let mut native = None;
        let mut native_fallback = None;
        if tier == KernelTier::Native {
            match nativegen::prepare(cp, cp.mesh().n_cells()) {
                Ok(lib) => native = Some(lib),
                Err(reason) => {
                    tier = if cp.flux_lin.is_some() {
                        KernelTier::Row
                    } else {
                        KernelTier::Bound
                    };
                    let diag = Diagnostic {
                        severity: Severity::Warning,
                        rule: rules::NATIVE_FALLBACK,
                        entity: String::new(),
                        location: "intensity phase".to_string(),
                        message: format!(
                            "native tier unavailable, falling back to the {} tier: {reason}",
                            tier.name()
                        ),
                    };
                    // Warn on stderr once per process; every scope still
                    // carries the structured diagnostic for inspection.
                    static ONCE: std::sync::Once = std::sync::Once::new();
                    ONCE.call_once(|| eprintln!("{}", diag.render()));
                    native_fallback = Some(diag);
                }
            }
        }
        IntensityKernels {
            tier,
            flats: flats.to_vec(),
            bound: Vec::new(),
            reg: Vec::new(),
            bound_time: f64::NAN,
            time_dependent: cp.volume.references_time(),
            rebind_per_step: cp.problem.rebind_per_step,
            max_regs: 0,
            faces_in_scope: None,
            rebinds: 0,
            native,
            native_fallback,
        }
    }

    /// Make the cached per-flat programs valid for `time`. A no-op unless
    /// this is the first call, the program reads `t` and `time` changed,
    /// or per-step rebinding was forced.
    pub fn ensure(&mut self, cp: &CompiledProblem, n_cells: usize, time: f64) {
        // The VM tier binds nothing; the native tier was fully prepared
        // at construction (it is only reachable for time-independent,
        // cache-friendly plans, so there is never anything to re-bind).
        if matches!(self.tier, KernelTier::Vm | KernelTier::Native) {
            return;
        }
        let stale = self.bound.is_empty()
            || self.rebind_per_step
            || (self.time_dependent && self.bound_time.to_bits() != time.to_bits());
        if !stale {
            return;
        }
        let dt = cp.problem.dt;
        let coefficients = &cp.problem.registry.coefficients;
        let mut bound = Vec::with_capacity(self.flats.len());
        let mut reg = Vec::with_capacity(self.flats.len());
        let mut max_regs = 0usize;
        for &flat in &self.flats {
            let b = cp
                .volume
                .bind(&cp.idx_of_flat[flat], n_cells, dt, time, coefficients);
            if self.tier == KernelTier::Row {
                let r = RegProgram::compile(&b);
                max_regs = max_regs.max(r.n_regs());
                reg.push(r);
            }
            bound.push(b);
        }
        self.bound = bound;
        self.reg = reg;
        self.max_regs = max_regs;
        self.bound_time = time;
        self.rebinds += 1;
    }

    /// The scope's `k`-th flat.
    pub fn flat(&self, k: usize) -> usize {
        self.flats[k]
    }

    /// Bound program for the scope's `k`-th flat.
    pub fn bound(&self, k: usize) -> &BoundProgram {
        &self.bound[k]
    }

    /// Row program for the scope's `k`-th flat (Row tier only).
    pub fn reg(&self, k: usize) -> &RegProgram {
        &self.reg[k]
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

    /// Fresh register scratch sized for the widest kernel in the scope.
    pub fn scratch(&self) -> Vec<[f64; ROW_CHUNK]> {
        vec![[0.0; ROW_CHUNK]; self.max_regs.max(1)]
    }

    /// Exact face count over the scope's cells, summed once per scope and
    /// cached (the scope's cell set never changes between steps).
    pub fn faces_for_cells(&mut self, hot: &HotGeometry, cells: &[usize]) -> u64 {
        *self.faces_in_scope.get_or_insert_with(|| {
            cells
                .iter()
                .map(|&c| (hot.offsets[c + 1] - hot.offsets[c]) as u64)
                .sum()
        })
    }
}

/// Iterator over maximal contiguous ascending runs `(first_cell, len)` of
/// a cell list. Distributed scopes (RCB partitions) may be non-contiguous;
/// any list is handled — non-consecutive cells just yield length-1 spans.
pub(crate) fn spans(cells: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos >= cells.len() {
            return None;
        }
        let start = cells[pos];
        let mut len = 1usize;
        while pos + len < cells.len() && cells[pos + len] == start + len {
            len += 1;
        }
        pos += len;
        Some((start, len))
    })
}

/// Combine precomputed source values with the face-flux sum over a
/// contiguous cell span. On entry `out[i]` holds the source for cell
/// `cell0 + i`; on exit it holds the RHS `source − flux·invV`, or the
/// fused update `u + dt·(source − flux·invV)` when `fused_dt` is set.
///
/// The flux loop replicates `seq::flux_sum_dof`'s linearized fast path
/// exactly (same face order, same operations) so results are bit-identical
/// to the per-DOF tiers.
#[allow(clippy::too_many_arguments)]
fn flux_combine(
    cp: &CompiledProblem,
    u_row: &[f64],
    flat: usize,
    boundary: FluxBoundary,
    cell0: usize,
    out: &mut [f64],
    fused_dt: Option<f64>,
) {
    let hot = &cp.hot;
    let lin = cp
        .flux_lin
        .as_ref()
        .expect("row tier requires a linearized flux");
    let n_flat = cp.n_flat;
    for (i, o) in out.iter_mut().enumerate() {
        let cell = cell0 + i;
        let u_here = u_row[cell];
        let start = hot.offsets[cell] as usize;
        let end = hot.offsets[cell + 1] as usize;
        let mut flux_sum = 0.0;
        for k in start..end {
            let nb = hot.nbr[k];
            let u2 = if nb >= 0 {
                u_row[nb as usize]
            } else {
                match boundary {
                    FluxBoundary::Ghosts(g) => g[(-(nb + 1)) as usize * n_flat + flat],
                    FluxBoundary::Skip => continue,
                }
            };
            flux_sum += hot.area[k] * lin.eval(flat, hot.class[k], u_here, u2);
        }
        let rhs = *o - flux_sum * hot.inv_volume[cell];
        *o = match fused_dt {
            Some(dt) => u_here + dt * rhs,
            None => rhs,
        };
    }
}

/// Evaluate a full row-kernel span: batched source via [`RegProgram`],
/// then the fused flux/update combine. `out` covers cells
/// `cell0 .. cell0 + out.len()`; `regs` is scratch from
/// [`IntensityKernels::scratch`].
#[allow(clippy::too_many_arguments)]
fn rhs_span(
    reg: &RegProgram,
    cp: &CompiledProblem,
    vars: &[&[f64]],
    n_cells: usize,
    flat: usize,
    boundary: FluxBoundary,
    cell0: usize,
    out: &mut [f64],
    centroids: &[Point],
    time: f64,
    fused_dt: Option<f64>,
    regs: &mut [[f64; ROW_CHUNK]],
) {
    reg.eval_row(vars, cell0, out, centroids, time, regs);
    let u_row = &vars[cp.system.unknown][flat * n_cells..(flat + 1) * n_cells];
    flux_combine(cp, u_row, flat, boundary, cell0, out, fused_dt);
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
    flat: usize,
    boundary: FluxBoundary,
    cell0: usize,
    out: &mut [f64],
    fused_dt: Option<f64>,
) {
    let hot = &cp.hot;
    let ptrs: Vec<*const f64> = vars.iter().map(|s| s.as_ptr()).collect();
    let (ghosts, skip_boundary) = match boundary {
        FluxBoundary::Ghosts(g) => (g.as_ptr(), 0u8),
        FluxBoundary::Skip => (std::ptr::null(), 1u8),
    };
    let args = NativeArgs {
        vars: ptrs.as_ptr(),
        ghosts,
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
        skip_boundary,
    };
    // SAFETY: the kernel was generated for this exact plan (same variable
    // layout, same geometry arrays, same n_cells baked into the load
    // offsets), the span `cell0 .. cell0 + out.len()` is in bounds by the
    // same contract `rhs_span` relies on, and all pointers outlive the
    // call.
    unsafe { (lib.kernel(flat))(&args) };
}

/// Evaluate the RHS of the scope's `k`-th flat over the contiguous cells
/// `cell0 .. cell0 + out.len()` at the kernels' tier. This is the one tier
/// dispatch of the intensity phase: the serial span walk, the rayon chunk
/// walk and the device row launch all call it, so every executor runs the
/// same per-dof arithmetic. With `fused_dt` the explicit update is folded
/// in (`out = u + dt·rhs`). `regs` is scratch from
/// [`IntensityKernels::scratch`]; [`IntensityKernels::ensure`] must have
/// been called for `time`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rhs_block(
    kernels: &IntensityKernels,
    cp: &CompiledProblem,
    vars: &[&[f64]],
    k: usize,
    cell0: usize,
    out: &mut [f64],
    boundary: FluxBoundary,
    time: f64,
    fused_dt: Option<f64>,
    regs: &mut [[f64; ROW_CHUNK]],
) {
    let flat = kernels.flat(k);
    let n_cells = cp.hot.inv_volume.len();
    // The per-dof tiers evaluate one (cell, flat) pair at a time.
    let u_row = &vars[cp.system.unknown][flat * n_cells..(flat + 1) * n_cells];
    let per_dof = |out: &mut [f64], rhs: f64, i: usize| {
        out[i] = match fused_dt {
            Some(dt) => u_row[cell0 + i] + dt * rhs,
            None => rhs,
        };
    };
    match kernels.tier {
        KernelTier::Row => rhs_span(
            kernels.reg(k),
            cp,
            vars,
            n_cells,
            flat,
            boundary,
            cell0,
            out,
            &cp.mesh().cell_centroids,
            time,
            fused_dt,
            regs,
        ),
        KernelTier::Native => rhs_span_native(
            kernels.native(),
            cp,
            vars,
            flat,
            boundary,
            cell0,
            out,
            fused_dt,
        ),
        KernelTier::Bound => {
            let bound = kernels.bound(k);
            for i in 0..out.len() {
                let rhs = seq::eval_rhs_dof_bound(cp, vars, boundary, cell0 + i, flat, time, bound);
                per_dof(out, rhs, i);
            }
        }
        KernelTier::Vm => {
            for i in 0..out.len() {
                let rhs = seq::eval_rhs_dof_vm(cp, vars, boundary, cell0 + i, flat, time);
                per_dof(out, rhs, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::spans;

    #[test]
    fn spans_merges_contiguous_runs() {
        let cells = [0usize, 1, 2, 5, 6, 9];
        let got: Vec<_> = spans(&cells).collect();
        assert_eq!(got, vec![(0, 3), (5, 2), (9, 1)]);
    }

    #[test]
    fn spans_handles_unsorted_lists() {
        let cells = [4usize, 2, 3, 1];
        let got: Vec<_> = spans(&cells).collect();
        assert_eq!(got, vec![(4, 1), (2, 2), (1, 1)]);
        assert_eq!(got.iter().map(|&(_, l)| l).sum::<usize>(), cells.len());
    }

    #[test]
    fn spans_empty() {
        assert_eq!(spans(&[]).count(), 0);
    }
}
