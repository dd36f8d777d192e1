//! Matrix-free implicit time integration and pseudo-transient steady state.
//!
//! Explicit stepping pays a CFL-bounded `dt` (see `analysis::intervals`);
//! reaching long horizons on fine meshes costs thousands of RHS sweeps.
//! This module breaks that wall with a θ-scheme
//!
//! ```text
//! u − u_n = dt [(1−θ) f(u_n, t) + θ f(u, t+dt)]        θ=1   backward Euler
//!                                                      θ=1/2 Crank–Nicolson
//! ```
//!
//! solved per step by Newton's method. The Jacobian is never assembled:
//! the linearization `J·v` is *another symbolic program* — derived in
//! `pipeline::jvp_system` by differentiating the conservation form with
//! respect to the unknown and lowered through the same DSL → IR →
//! bytecode → native pipeline as the primal RHS (`CompiledProblem::jvp`).
//! A matvec is therefore one RHS-shaped sweep of the JVP plan with the
//! direction vector installed in the unknown's slot, which means every
//! kernel tier (VM/Bound/Row/Native) and every executor reuses its
//! existing machinery, halo exchange included.
//!
//! The linear systems `(I − dtθJ)δ = −G` are solved with BiCGStab under
//! Jacobi *right* preconditioning; the diagonal comes from the symbolic
//! JVP too (volume derivative evaluated at `v ≡ 1` plus the `α`
//! coefficients of the linearized flux). Every Krylov scalar — dots and
//! norms — goes through [`pbte_runtime::exact`]'s superaccumulator with
//! limb transport over the executor's `Reducer`, so the reduction is
//! *exact* and the whole Krylov trajectory is bit-identical across
//! targets, rank counts, and kernel tiers.
//!
//! For steady problems the same machinery runs in pseudo-transient
//! continuation: repeated backward-Euler steps whose `dt` grows by
//! switched evolution relaxation (SER) as the residual falls, so the
//! iteration turns into an approximate Newton solve of `f(u) = 0` and
//! reaches steady state in a handful of sweeps.

use super::driver::{Backend, Dofs, Plan};
use super::{CompiledProblem, StepLinks};
use crate::bytecode::VmCtx;
use crate::entities::Fields;
use crate::problem::{KrylovConfig, Reducer};
use pbte_runtime::exact::{ExactAcc, TRANSPORT_LEN};
use pbte_runtime::telemetry::{Recorder, SpanKind, Track, WorkCounters};

/// Exact global dot product over the owned dofs: a superaccumulator per
/// rank, limb transport through the reducer (each limb stays well under
/// 2^53 so the f64 allreduce adds them exactly in any association), one
/// rounding at the very end. Order- and partition-independent by
/// construction — the backbone of cross-target bit identity.
pub(crate) fn exact_dot(a: &[f64], b: &[f64], d: Dofs, reducer: &mut dyn Reducer) -> f64 {
    let mut acc = ExactAcc::new();
    for i in d.iter() {
        acc.add_prod(a[i], b[i]);
    }
    let mut buf = [0.0f64; TRANSPORT_LEN];
    acc.to_transport(&mut buf);
    if reducer.n_ranks() > 1 {
        reducer.allreduce_sum(&mut buf);
    }
    ExactAcc::from_transport(&buf).value()
}

fn exact_norm(a: &[f64], d: Dofs, reducer: &mut dyn Reducer) -> f64 {
    exact_dot(a, a, d, reducer).sqrt()
}

/// `out[i] = w[i] − dt_theta·out[i]` over the owned dofs, turning a JVP
/// sweep into the implicit operator `A·w = w − dtθ(J·w)`.
fn finish_matvec(out: &mut [f64], w: &[f64], dt_theta: f64, d: Dofs) {
    for i in d.iter() {
        out[i] = w[i] - dt_theta * out[i];
    }
}

/// One application of `A = I − dtθJ`: install `w` in the JVP fields'
/// unknown slot, halo-exchange it (interface neighbours need direction
/// values too), sweep the JVP plan, combine.
#[allow(clippy::too_many_arguments)]
fn apply_a(
    backend: &mut dyn Backend,
    jcp: &CompiledProblem,
    jfields: &mut Fields,
    unknown: usize,
    w: &[f64],
    dt_theta: f64,
    time: f64,
    d: Dofs,
    links: &mut dyn StepLinks,
    out: &mut [f64],
    work: &mut WorkCounters,
) {
    jfields.slice_mut(unknown).copy_from_slice(w);
    links.halo_exchange(jfields);
    backend.rhs(jcp, Plan::Jvp, jfields, time, out, work);
    work.jvp_evals += 1;
    finish_matvec(out, w, dt_theta, d);
}

/// Jacobi diagonal of `A = I − dtθJ`, from the symbolic linearization:
/// the JVP volume program is linear in the unknown (the derivation gate
/// enforces it), so evaluating it with `v ≡ 1` yields `∂s/∂u` per dof;
/// the flux's own-cell slope is the `α` table of the JVP plan's
/// linearized flux. When the flux didn't linearize the diagonal degrades
/// to the volume part only — Jacobi is a preconditioner, so this costs
/// iterations, never correctness.
#[allow(clippy::too_many_arguments)]
fn build_diag(
    jcp: &CompiledProblem,
    jfields: &mut Fields,
    unknown: usize,
    d: Dofs,
    dt_theta: f64,
    time: f64,
    inv_diag: &mut [f64],
) {
    jfields.slice_mut(unknown).fill(1.0);
    let vars = jfields.as_slices();
    let mesh = jcp.mesh();
    let hot = &jcp.hot;
    for &flat in d.flats {
        for &cell in d.cells {
            let vm = VmCtx {
                vars: &vars,
                n_cells: d.n_cells,
                coefficients: &jcp.problem.registry.coefficients,
                idx: &jcp.idx_of_flat[flat],
                cell,
                u1: 0.0,
                u2: 0.0,
                normal: [0.0; 3],
                position: mesh.cell_centroids[cell],
                dt: jcp.problem.dt,
                time,
            };
            let dsdu = jcp.volume.eval(&vm);
            let mut asum = 0.0;
            if let Some(lin) = &jcp.flux_lin {
                let start = hot.offsets[cell] as usize;
                let end = hot.offsets[cell + 1] as usize;
                for k in start..end {
                    asum += hot.area[k] * lin.alpha[flat * lin.n_classes + hot.class[k] as usize];
                }
            }
            let dfdu = dsdu - asum * hot.inv_volume[cell];
            let diag = 1.0 - dt_theta * dfdu;
            let i = flat * d.n_cells + cell;
            inv_diag[i] = if diag != 0.0 { 1.0 / diag } else { 1.0 };
        }
    }
}

/// Krylov work vectors, allocated once per solve and reused every step.
pub(crate) struct KrylovVecs {
    r: Vec<f64>,
    r0: Vec<f64>,
    p: Vec<f64>,
    v: Vec<f64>,
    s: Vec<f64>,
    t: Vec<f64>,
    /// Shared scratch for the right-preconditioned directions `M⁻¹p` and
    /// `M⁻¹s` (their live ranges never overlap).
    hat: Vec<f64>,
    pub inv_diag: Vec<f64>,
}

impl KrylovVecs {
    pub fn new(n: usize) -> KrylovVecs {
        KrylovVecs {
            r: vec![0.0; n],
            r0: vec![0.0; n],
            p: vec![0.0; n],
            v: vec![0.0; n],
            s: vec![0.0; n],
            t: vec![0.0; n],
            hat: vec![0.0; n],
            inv_diag: vec![1.0; n],
        }
    }
}

/// Outcome of one BiCGStab solve.
pub(crate) struct KrylovStats {
    pub iters: u64,
    pub converged: bool,
    pub rnorm: f64,
    pub bnorm: f64,
}

/// Jacobi-right-preconditioned BiCGStab for `A x = b`,
/// `A = I − dtθJ`. `x` must come in zeroed. Deterministic: all scalars
/// are exact global dots, breakdown tests compare against exact zero,
/// and the iteration emits a `krylov_residual` sample per iteration plus
/// one `krylov_solve` kernel span.
#[allow(clippy::too_many_arguments)]
fn bicgstab(
    backend: &mut dyn Backend,
    jcp: &CompiledProblem,
    jfields: &mut Fields,
    unknown: usize,
    b: &[f64],
    x: &mut [f64],
    kv: &mut KrylovVecs,
    dt_theta: f64,
    time: f64,
    d: Dofs,
    tol: f64,
    max_iters: usize,
    links: &mut dyn StepLinks,
    rec: &mut Recorder,
    step: usize,
) -> KrylovStats {
    let k0 = rec.now();
    let mut stats = KrylovStats {
        iters: 0,
        converged: false,
        rnorm: 0.0,
        bnorm: 0.0,
    };
    let bnorm = exact_norm(b, d, links);
    stats.bnorm = bnorm;
    if bnorm == 0.0 {
        // x = 0 solves exactly; nothing to do.
        stats.converged = true;
        return stats;
    }
    let tol_abs = tol * bnorm;
    for i in d.iter() {
        kv.r[i] = b[i];
        kv.r0[i] = b[i];
        kv.p[i] = 0.0;
        kv.v[i] = 0.0;
    }
    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut rnorm = bnorm;
    while stats.iters < max_iters as u64 {
        let rho_new = exact_dot(&kv.r0, &kv.r, d, links);
        if rho_new == 0.0 {
            break; // breakdown: return the best iterate found so far
        }
        if stats.iters == 0 {
            for i in d.iter() {
                kv.p[i] = kv.r[i];
            }
        } else {
            let beta = (rho_new / rho) * (alpha / omega);
            for i in d.iter() {
                kv.p[i] = kv.r[i] + beta * (kv.p[i] - omega * kv.v[i]);
            }
        }
        for i in d.iter() {
            kv.hat[i] = kv.inv_diag[i] * kv.p[i];
        }
        apply_a(
            backend,
            jcp,
            jfields,
            unknown,
            &kv.hat,
            dt_theta,
            time,
            d,
            links,
            &mut kv.v,
            &mut rec.work,
        );
        let r0v = exact_dot(&kv.r0, &kv.v, d, links);
        if r0v == 0.0 {
            break;
        }
        alpha = rho_new / r0v;
        for i in d.iter() {
            kv.s[i] = kv.r[i] - alpha * kv.v[i];
            x[i] += alpha * kv.hat[i];
        }
        stats.iters += 1;
        rec.work.krylov_iters += 1;
        let snorm = exact_norm(&kv.s, d, links);
        rec.sample("krylov_residual", step, snorm);
        if snorm <= tol_abs {
            rnorm = snorm;
            stats.converged = true;
            break;
        }
        for i in d.iter() {
            kv.hat[i] = kv.inv_diag[i] * kv.s[i];
        }
        apply_a(
            backend,
            jcp,
            jfields,
            unknown,
            &kv.hat,
            dt_theta,
            time,
            d,
            links,
            &mut kv.t,
            &mut rec.work,
        );
        let tt = exact_dot(&kv.t, &kv.t, d, links);
        if tt == 0.0 {
            break;
        }
        omega = exact_dot(&kv.t, &kv.s, d, links) / tt;
        for i in d.iter() {
            x[i] += omega * kv.hat[i];
            kv.r[i] = kv.s[i] - omega * kv.t[i];
        }
        rho = rho_new;
        rnorm = exact_norm(&kv.r, d, links);
        rec.sample("krylov_residual", step, rnorm);
        if rnorm <= tol_abs {
            stats.converged = true;
            break;
        }
        if omega == 0.0 {
            break;
        }
    }
    stats.rnorm = rnorm;
    if rec.enabled() {
        let dur = rec.now() - k0;
        rec.span(
            SpanKind::Kernel,
            "krylov_solve",
            k0,
            dur,
            Track::Host,
            vec![
                ("step", step.to_string()),
                ("iters", stats.iters.to_string()),
                ("converged", stats.converged.to_string()),
            ],
        );
    }
    stats
}

/// Workspace for the θ-step driver, allocated once per solve.
pub(crate) struct ImplicitWorkspace {
    /// Fields clone whose unknown slot carries the Krylov direction; all
    /// other variables are refreshed from the live fields each step so
    /// the JVP sees the step's frozen coefficients (Io, β, …).
    pub jfields: Fields,
    pub u_n: Vec<f64>,
    pub f_n: Vec<f64>,
    pub f_np: Vec<f64>,
    pub g: Vec<f64>,
    pub delta: Vec<f64>,
    pub kv: KrylovVecs,
    /// The `dtθ` the cached diagonal was built for (bits compared); the
    /// steady driver clears it when SER changes `dt`.
    pub diag_dt_theta: Option<u64>,
}

impl ImplicitWorkspace {
    pub fn new(fields: &Fields, n: usize) -> ImplicitWorkspace {
        ImplicitWorkspace {
            jfields: fields.clone(),
            u_n: vec![0.0; n],
            f_n: vec![0.0; n],
            f_np: vec![0.0; n],
            g: vec![0.0; n],
            delta: vec![0.0; n],
            kv: KrylovVecs::new(n),
            diag_dt_theta: None,
        }
    }
}

/// Outcome of one implicit step.
pub(crate) struct StepOutcome {
    pub newton_iters: u64,
    pub krylov_iters: u64,
    pub converged: bool,
    /// ‖G‖ at entry — for the steady driver's SER controller this is
    /// `dt·‖f(u_n)‖`, measured exactly.
    pub g0_norm: f64,
}

/// One θ-scheme step: Newton on
/// `G(u) = u − u_n − dt(1−θ)f(u_n,t) − dtθ f(u,t+dt)`.
///
/// The RHS is affine in the unknown within a step (coefficient fields are
/// frozen between callbacks), so Newton converges in one solve plus one
/// verification residual; the loop still caps at `max_newton` and
/// re-checks, which keeps the driver correct for mildly nonlinear
/// problems. Pre/post callbacks are the caller's job — this function only
/// advances the unknown.
///
/// `forcing: Some(η)` switches to the steady driver's inexact mode: one
/// Krylov solve to relative residual `η`, no verification pass (the next
/// pseudo-step's entry residual is the verification).
#[allow(clippy::too_many_arguments)]
pub(crate) fn theta_step(
    cp: &CompiledProblem,
    jcp: &CompiledProblem,
    backend: &mut dyn Backend,
    fields: &mut Fields,
    ws: &mut ImplicitWorkspace,
    theta: f64,
    dt: f64,
    time: f64,
    step: usize,
    d: Dofs,
    cfg: &KrylovConfig,
    forcing: Option<f64>,
    links: &mut dyn StepLinks,
    rec: &mut Recorder,
) -> StepOutcome {
    let unknown = cp.system.unknown;
    let n0 = rec.now();
    let mut out = StepOutcome {
        newton_iters: 0,
        krylov_iters: 0,
        converged: false,
        g0_norm: 0.0,
    };
    let dt_theta = dt * theta;
    let c_n = dt * (1.0 - theta);
    let t_np = time + dt;

    // Freeze the step's coefficient fields into the JVP's evaluation
    // state (the unknown slot is overwritten per matvec).
    ws.jfields.clone_from(fields);
    ws.u_n.copy_from_slice(fields.slice(unknown));

    // The explicit part of the θ combination, evaluated once at u_n.
    if c_n != 0.0 {
        links.halo_exchange(fields);
        backend.rhs(cp, Plan::Main, fields, time, &mut ws.f_n, &mut rec.work);
        rec.work.rhs_evals += 1;
    }

    // Refresh the Jacobi diagonal when dtθ changed (steady varies dt).
    let bits = dt_theta.to_bits();
    if ws.diag_dt_theta != Some(bits) {
        build_diag(
            jcp,
            &mut ws.jfields,
            unknown,
            d,
            dt_theta,
            t_np,
            &mut ws.kv.inv_diag,
        );
        ws.diag_dt_theta = Some(bits);
    }

    let lin_tol = forcing.unwrap_or(cfg.tol);
    let max_newton = if forcing.is_some() {
        1
    } else {
        cfg.max_newton.max(1)
    };
    let mut g0 = 0.0f64;
    for newton in 0..max_newton {
        links.halo_exchange(fields);
        backend.rhs(cp, Plan::Main, fields, t_np, &mut ws.f_np, &mut rec.work);
        rec.work.rhs_evals += 1;
        {
            let u = fields.slice(unknown);
            for i in d.iter() {
                let expl = if c_n != 0.0 { c_n * ws.f_n[i] } else { 0.0 };
                ws.g[i] = u[i] - ws.u_n[i] - expl - dt_theta * ws.f_np[i];
            }
        }
        let gnorm = exact_norm(&ws.g, d, links);
        rec.sample("newton_residual", step, gnorm);
        if newton == 0 {
            g0 = gnorm;
            out.g0_norm = gnorm;
            if gnorm == 0.0 {
                out.converged = true;
                break;
            }
        } else if gnorm <= cfg.tol * g0 {
            out.converged = true;
            break;
        }
        out.newton_iters += 1;
        // Solve (I − dtθJ) δ = −G.
        for i in d.iter() {
            ws.g[i] = -ws.g[i];
            ws.delta[i] = 0.0;
        }
        let stats = bicgstab(
            backend,
            jcp,
            &mut ws.jfields,
            unknown,
            &ws.g,
            &mut ws.delta,
            &mut ws.kv,
            dt_theta,
            t_np,
            d,
            lin_tol,
            cfg.max_iters,
            links,
            rec,
            step,
        );
        if forcing.is_some() {
            out.converged = stats.converged;
        }
        out.krylov_iters += stats.iters;
        {
            let u = fields.slice_mut(unknown);
            for i in d.iter() {
                u[i] += ws.delta[i];
            }
        }
    }
    if rec.enabled() {
        let dur = rec.now() - n0;
        rec.span(
            SpanKind::NewtonSolve,
            "implicit_newton",
            n0,
            dur,
            Track::Host,
            vec![
                ("step", step.to_string()),
                ("newton_iters", out.newton_iters.to_string()),
                ("krylov_iters", out.krylov_iters.to_string()),
                ("converged", out.converged.to_string()),
            ],
        );
    }
    out
}
