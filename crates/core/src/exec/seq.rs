//! Per-dof building blocks of a step — the reference semantics every
//! span kernel must reproduce bit for bit: the per-dof RHS evaluator
//! behind [`super::rows::rhs_block`] (the `Vm` tier, which evaluates the
//! compiled register statements one dof at a time through
//! [`Program::eval`](crate::bytecode::Program::eval)), and the
//! step-callback runner. There is no sequential sweep here: serial is
//! `rows::sweep` with one worker. Boundary faces are read through
//! the plan's lowered walls ([`super::walls`]); only walls left to a
//! closure are evaluated on the host, by `walls::compute_ghosts`.
//! The time loop that composes them is [`super::driver::drive`].

use super::CompiledProblem;
use crate::bytecode::VmCtx;
use crate::entities::Fields;
use crate::problem::{Reducer, StepContext};
use pbte_runtime::telemetry::{Recorder, SpanKind, Track};

/// Face-flux sum for one (cell, flat) pair on the `vm` tier: the αβγ
/// table when the plan has one, the compiled flux program face by face
/// otherwise — a cell variable read at the owner `cell`, a function
/// coefficient at the face centroid: the reference semantics the compiled
/// flux of the Row/Native tiers (`rows::flux_combine_compiled`) reproduces
/// bit for bit. Boundary faces are read from `ghosts` through
/// [`Walls::ghost_read`](super::Walls).
#[inline]
pub(crate) fn flux_sum_dof(
    cp: &CompiledProblem,
    vars: &[&[f64]],
    ghosts: &[f64],
    cell: usize,
    flat: usize,
    time: f64,
    u_here: f64,
) -> f64 {
    let mesh = cp.mesh();
    let unknown = cp.system.unknown;
    let n_cells = cp.hot.inv_volume.len();
    let mut flux_sum = 0.0;
    if let Some(lin) = &cp.flux_lin {
        // Compact structure-of-arrays hot loop over the cell's faces.
        let hot = &cp.hot;
        let u_row = &vars[unknown][flat * n_cells..(flat + 1) * n_cells];
        let start = hot.offsets[cell] as usize;
        let end = hot.offsets[cell + 1] as usize;
        for k in start..end {
            let nb = hot.nbr[k];
            let u2 = if nb >= 0 {
                u_row[nb as usize]
            } else {
                let slot = (-(nb + 1)) as usize;
                cp.walls
                    .ghost_read(ghosts, vars[unknown], n_cells, slot, flat, cell)
            };
            flux_sum += hot.area[k] * lin.eval(flat, hot.class[k], u_here, u2);
        }
    } else {
        let mut vm = VmCtx {
            vars,
            n_cells,
            coefficients: &cp.problem.registry.coefficients,
            idx: &cp.idx_of_flat[flat],
            cell,
            u1: u_here,
            u2: 0.0,
            normal: [0.0; 3],
            position: mesh.cell_centroids[cell],
            dt: cp.problem.dt,
            time,
        };
        for &fid in mesh.cell_faces(cell) {
            let face = &mesh.faces[fid];
            let u2 = match face.other_cell(cell) {
                Some(nb) => vars[unknown][flat * n_cells + nb],
                None => {
                    let slot = cp.bface_slot[fid];
                    cp.walls
                        .ghost_read(ghosts, vars[unknown], n_cells, slot, flat, cell)
                }
            };
            let n = face.normal_from(cell);
            vm.u2 = u2;
            vm.normal = [n.x, n.y, n.z];
            // Past the mesh dimension every tier reads +0.0 (the negated
            // side of a 2-D face would otherwise carry a −0.0 `z`).
            vm.normal[mesh.dim..].fill(0.0);
            vm.position = face.centroid;
            flux_sum += face.area * cp.flux.eval(&vm);
        }
    }
    flux_sum
}

/// Evaluate the discrete right-hand side `s(u) − (1/V)Σ_f A_f f(u)` for one
/// (cell, flat) pair through the compiled statements (no per-flat binding) —
/// the `KernelTier::Vm` baseline the Row and Native tiers reproduce bit for
/// bit.
#[inline]
pub(crate) fn eval_rhs_dof_vm(
    cp: &CompiledProblem,
    vars: &[&[f64]],
    ghosts: &[f64],
    cell: usize,
    flat: usize,
    time: f64,
) -> f64 {
    let n_cells = cp.hot.inv_volume.len();
    let vm = VmCtx {
        vars,
        n_cells,
        coefficients: &cp.problem.registry.coefficients,
        idx: &cp.idx_of_flat[flat],
        cell,
        u1: 0.0,
        u2: 0.0,
        normal: [0.0; 3],
        position: cp.mesh().cell_centroids[cell],
        dt: cp.problem.dt,
        time,
    };
    let source = cp.volume.eval(&vm);
    let u_here = vars[cp.system.unknown][flat * n_cells + cell];
    let flux = flux_sum_dof(cp, vars, ghosts, cell, flat, time, u_here);
    source - flux * cp.hot.inv_volume[cell]
}

/// Run pre- or post-step callbacks with a given reducer and ownership info.
/// `threads` is the parallelism the executor makes available to the
/// callbacks (1 = serial). Callbacks account their own work through
/// `ctx.rec` — the executor's recorder is lent to them directly, so there
/// is no merge step; each callback additionally gets a `Callback` span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_callbacks(
    cp: &CompiledProblem,
    fields: &mut Fields,
    pre: bool,
    time: f64,
    step: usize,
    owned_index_range: Option<(String, std::ops::Range<usize>)>,
    owned_cells: Option<&[usize]>,
    reducer: &mut dyn Reducer,
    threads: usize,
    rec: &mut Recorder,
) {
    let callbacks = if pre {
        &cp.problem.pre_steps
    } else {
        &cp.problem.post_steps
    };
    for cb in callbacks {
        #[cfg(debug_assertions)]
        let untouched = undeclared_digests(cb, fields);
        let t0 = rec.now();
        let mut ctx = StepContext {
            fields,
            mesh: cp.mesh(),
            time,
            step,
            owned_index_range: owned_index_range.clone(),
            owned_cells,
            reducer,
            threads: threads.max(1),
            rec,
        };
        (cb.f)(&mut ctx);
        #[cfg(debug_assertions)]
        assert_declared_writes(cb, fields, &untouched);
        if rec.enabled() {
            let dur = rec.now() - t0;
            rec.span(
                SpanKind::Callback,
                &cb.name,
                t0,
                dur,
                Track::Host,
                vec![
                    ("step", step.to_string()),
                    ("pre", if pre { "true" } else { "false" }.to_string()),
                ],
            );
        }
    }
}

/// The digest of the bits of every variable `cb` does not declare as
/// written, by variable id: what the callback must leave as it found it.
#[cfg(debug_assertions)]
fn undeclared_digests(
    cb: &crate::problem::StepCallback,
    fields: &Fields,
) -> Vec<(usize, pbte_mesh::Digest)> {
    let names = fields.names();
    let undeclared = (0..fields.n_vars()).filter(|&v| !cb.writes.contains(&names[v]));
    let digest = |v: usize| {
        let mut d = pbte_mesh::Digest::new();
        d.f64s(fields.slice(v));
        (v, d)
    };
    undeclared.map(digest).collect()
}

/// Debug-build guard on the transfer proof's one host-write fact: panics
/// naming the callback and the variable when `cb` changed the bits of a
/// variable it does not declare as written.
#[cfg(debug_assertions)]
fn assert_declared_writes(
    cb: &crate::problem::StepCallback,
    fields: &Fields,
    before: &[(usize, pbte_mesh::Digest)],
) {
    let after = undeclared_digests(cb, fields);
    for ((v, was), (_, now)) in before.iter().zip(&after) {
        assert!(
            was == now,
            "step callback `{}` wrote `{}`, which it does not declare as written",
            cb.name,
            fields.names()[*v]
        );
    }
}
