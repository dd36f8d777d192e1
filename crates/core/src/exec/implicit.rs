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
//! kernel tier (VM/Row/Native) and every executor reuses its
//! existing machinery, halo exchange included.
//!
//! The linear systems `(I − dtθJ)δ = −G` are solved with BiCGStab under
//! Jacobi *right* preconditioning; the diagonal comes from the symbolic
//! JVP too (volume derivative evaluated at `v ≡ 1` plus the `α`
//! coefficients of the linearized flux). Every Krylov scalar — dots and
//! norms — is the exact sum rounded once, from [`pbte_runtime::exact`]:
//! a certified double-double dot where its error bound proves the
//! rounding, the limb superaccumulator (transported over the executor's
//! `Reducer`) where it does not. So the whole Krylov trajectory is
//! bit-identical across targets, rank counts, and kernel tiers.
//!
//! For steady problems the same machinery runs in pseudo-transient
//! continuation: repeated backward-Euler steps whose `dt` grows by
//! switched evolution relaxation (SER) as the residual falls, so the
//! iteration turns into an approximate Newton solve of `f(u) = 0` and
//! reaches steady state in a handful of sweeps.

use super::driver::Engine;
use super::{CompiledProblem, StepLinks};
use crate::analysis::Scope;
use crate::bytecode::{KernelKind, ROW_CHUNK};
use crate::dataflow::Plan;
use crate::entities::Fields;
use crate::problem::{KrylovConfig, Reducer};
use pbte_runtime::exact::{Dot2, ExactAcc, Partial, PARTIAL_LEN, TRANSPORT_LEN};
use pbte_runtime::telemetry::{rules, Recorder, Severity, SpanKind, Track};

/// Close rank-local dots into their global values: the exact sums, each
/// rounded once, bit for bit what the limbs give on any partition.
///
/// Each rank closes its certified dots ([`Dot2::partial`]). On one rank
/// a sum certifies or not on its own; on several, one fold gathers a
/// `ranks × 4K` buffer in which each rank writes `(hi, lo, err, ok)` per
/// sum into its own row. Every rank combines the rows in rank order, so
/// all ranks reach the same decision. Only when a sum declines does every
/// rank rebuild its `[ExactAcc; K]` from the stored operands (`exact`)
/// and fold its limbs in (each limb stays well under 2^53, so the f64
/// adds are exact), one rounding per sum at the very end. Such sums are
/// counted in `fallbacks`. Sums that are known at the same point of the
/// iteration travel in one message, at most two.
fn reduce<const K: usize>(
    dots: [Dot2; K],
    exact: impl FnOnce() -> [ExactAcc; K],
    reducer: &mut dyn Reducer,
    fallbacks: &mut u64,
) -> [f64; K] {
    const { assert!(K <= 2, "one message carries at most two sums") };
    if let Some(sums) = certify(&dots, reducer) {
        return sums;
    }
    *fallbacks += K as u64;
    let mut accs = exact();
    let [mut mine, mut buf] = [[0.0f64; 2 * TRANSPORT_LEN]; 2];
    let (mine, buf) = (
        &mut mine[..K * TRANSPORT_LEN],
        &mut buf[..K * TRANSPORT_LEN],
    );
    for (acc, image) in accs.iter_mut().zip(mine.chunks_exact_mut(TRANSPORT_LEN)) {
        acc.to_transport(image);
    }
    reducer.fold(buf, &mut |running| {
        (running.iter_mut().zip(&*mine)).for_each(|(sum, limb)| *sum += limb)
    });
    let mut sums = [0.0; K];
    for (sum, image) in sums.iter_mut().zip(buf.chunks_exact(TRANSPORT_LEN)) {
        *sum = ExactAcc::from_transport(image).value();
    }
    sums
}

/// The certified half of [`reduce`]: every sum, or `None` on every rank
/// alike when any one of them declines.
fn certify<const K: usize>(dots: &[Dot2; K], reducer: &mut dyn Reducer) -> Option<[f64; K]> {
    let ranks = reducer.n_ranks();
    let mut sums = [0.0; K];
    if ranks == 1 {
        for (sum, dot) in sums.iter_mut().zip(dots) {
            *sum = dot.value()?;
        }
        return Some(sums);
    }
    let (width, rank) = (K * PARTIAL_LEN, reducer.rank());
    let mut rows = vec![0.0; ranks * width];
    reducer.fold(&mut rows, &mut |rows| {
        let row = &mut rows[rank * width..][..width];
        for (dot, slot) in dots.iter().zip(row.chunks_exact_mut(PARTIAL_LEN)) {
            Partial::to_row(dot.partial(), slot);
        }
    });
    for (k, sum) in sums.iter_mut().enumerate() {
        let parts = rows
            .chunks_exact(width)
            .map(|row| Partial::from_row(&row[k * PARTIAL_LEN..][..PARTIAL_LEN]))
            .collect::<Option<Vec<_>>>()?;
        *sum = Partial::combine(&parts).certify()?;
    }
    Some(sums)
}

/// The limb accumulators of `K` dots over the owned dofs, rebuilt from
/// the stored operands: the fallback behind each [`reduce`].
fn exact_dots<const K: usize>(pairs: [(&[f64], &[f64]); K], d: &Scope) -> [ExactAcc; K] {
    let mut accs = std::array::from_fn(|_| ExactAcc::new());
    for span in d.spans() {
        for (acc, (a, b)) in accs.iter_mut().zip(pairs) {
            for (&x, &y) in a[span.clone()].iter().zip(&b[span.clone()]) {
                acc.add_prod(x, y);
            }
        }
    }
    accs
}

// The vector passes below walk the owned dofs span by span
// (`Scope::spans`), each operand sliced once per span. Every update that
// feeds a Krylov scalar adds its certified dot over the span it has just
// written, while the span is still in cache, so a BiCGStab stage reads
// its vectors from memory once.

/// Newton residual pass: `b = −G(u)` with
/// `G = u − u_n − c_n·f_n − dtθ·f_np`, `δ = 0`, and the local part of
/// `‖G‖²` (= `‖b‖²`: negation is exact).
#[allow(clippy::too_many_arguments)]
fn residual_pass(
    u: &[f64],
    u_n: &[f64],
    f_n: &[f64],
    f_np: &[f64],
    c_n: f64,
    dt_theta: f64,
    b: &mut [f64],
    delta: &mut [f64],
    d: &Scope,
) -> Dot2 {
    let mut gg = Dot2::new();
    for span in d.spans() {
        let (u, u_n) = (&u[span.clone()], &u_n[span.clone()]);
        let (f_n, f_np) = (&f_n[span.clone()], &f_np[span.clone()]);
        let b = &mut b[span.clone()];
        delta[span].fill(0.0);
        for (i, b) in b.iter_mut().enumerate() {
            let expl = if c_n != 0.0 { c_n * f_n[i] } else { 0.0 };
            *b = -(u[i] - u_n[i] - expl - dt_theta * f_np[i]);
        }
        gg.add_dot(b, b);
    }
    gg
}

/// BiCGStab start: `r = p = b` and the first preconditioned direction
/// `y = M⁻¹p`.
fn start_pass(b: &[f64], inv_diag: &[f64], r: &mut [f64], p: &mut [f64], y: &mut [f64], d: &Scope) {
    for span in d.spans() {
        let (b, inv_diag) = (&b[span.clone()], &inv_diag[span.clone()]);
        r[span.clone()].copy_from_slice(b);
        p[span.clone()].copy_from_slice(b);
        for ((y, &m), &b) in y[span].iter_mut().zip(inv_diag).zip(b) {
            *y = m * b;
        }
    }
}

/// Search direction: `p = r + β(p − ωv)`, `y = M⁻¹p`.
#[allow(clippy::too_many_arguments)]
fn direction_pass(
    r: &[f64],
    v: &[f64],
    inv_diag: &[f64],
    beta: f64,
    omega: f64,
    p: &mut [f64],
    y: &mut [f64],
    d: &Scope,
) {
    for span in d.spans() {
        let (r, v, inv_diag) = (&r[span.clone()], &v[span.clone()], &inv_diag[span.clone()]);
        let (p, y) = (&mut p[span.clone()], &mut y[span]);
        for (i, (p, y)) in p.iter_mut().zip(y).enumerate() {
            *p = r[i] + beta * (*p - omega * v[i]);
            *y = inv_diag[i] * *p;
        }
    }
}

/// First half-step matvec: `v = y − dtθ·v` (turning the JVP sweep `J·y`
/// left in `v` into `A·y`) with the local part of `r̂₀·v`.
fn matvec_pass(v: &mut [f64], y: &[f64], r0: &[f64], dt_theta: f64, d: &Scope) -> Dot2 {
    let mut r0v = Dot2::new();
    for span in d.spans() {
        let (y, r0, v) = (&y[span.clone()], &r0[span.clone()], &mut v[span]);
        for (v, &y) in v.iter_mut().zip(y) {
            *v = y - dt_theta * *v;
        }
        r0v.add_dot(r0, v);
    }
    r0v
}

/// First half-step update: `s = r − αv` over `r`'s storage (`r` is not
/// read again before the full step rebuilds it from `s`), `x += αy`, the
/// next direction `y = M⁻¹s` (harmless when the half-step converges), and
/// the local part of `‖s‖²`.
fn half_step_pass(
    v: &[f64],
    inv_diag: &[f64],
    alpha: f64,
    r: &mut [f64],
    x: &mut [f64],
    y: &mut [f64],
    d: &Scope,
) -> Dot2 {
    let mut ss = Dot2::new();
    for span in d.spans() {
        let (v, inv_diag) = (&v[span.clone()], &inv_diag[span.clone()]);
        let (s, x, y) = (&mut r[span.clone()], &mut x[span.clone()], &mut y[span]);
        for (i, ((s, x), y)) in s.iter_mut().zip(x).zip(y).enumerate() {
            *s -= alpha * v[i];
            *x += alpha * *y;
            *y = inv_diag[i] * *s;
        }
        ss.add_dot(s, s);
    }
    ss
}

/// Second half-step matvec: `t = y − dtθ·t` with the local parts of
/// `t·t` and `t·s`.
fn stabilizer_pass(t: &mut [f64], y: &[f64], s: &[f64], dt_theta: f64, d: &Scope) -> [Dot2; 2] {
    let mut tt = Dot2::new();
    let mut ts = Dot2::new();
    for span in d.spans() {
        let (y, s, t) = (&y[span.clone()], &s[span.clone()], &mut t[span]);
        for (t, &y) in t.iter_mut().zip(y) {
            *t = y - dt_theta * *t;
        }
        tt.add_dot(t, t);
        ts.add_dot(t, s);
    }
    [tt, ts]
}

/// Second half-step update: `x += ωy`, `r = s − ωt` in place over the
/// `s` the half step left in `r`, with the local parts of `‖r‖²` and the
/// next iteration's `ρ = r̂₀·r`.
fn full_step_pass(
    t: &[f64],
    y: &[f64],
    r0: &[f64],
    omega: f64,
    x: &mut [f64],
    r: &mut [f64],
    d: &Scope,
) -> [Dot2; 2] {
    let mut rr = Dot2::new();
    let mut r0r = Dot2::new();
    for span in d.spans() {
        let (t, y, r0) = (&t[span.clone()], &y[span.clone()], &r0[span.clone()]);
        let (x, r) = (&mut x[span.clone()], &mut r[span]);
        for (i, (x, r)) in x.iter_mut().zip(r.iter_mut()).enumerate() {
            *x += omega * y[i];
            *r -= omega * t[i];
        }
        rr.add_dot(r, r);
        r0r.add_dot(r0, r);
    }
    [rr, r0r]
}

/// One JVP sweep `out = J·y` for the direction `y` sitting in the JVP
/// fields' unknown slot: halo-exchange it (interface neighbours need
/// direction values too), then sweep the JVP plan.
#[allow(clippy::too_many_arguments)]
fn jvp_sweep(
    engine: &mut Engine,
    jcp: &CompiledProblem,
    jfields: &mut Fields,
    time: f64,
    step: usize,
    links: &mut dyn StepLinks,
    out: &mut Vec<f64>,
    rec: &mut Recorder,
) {
    links.halo_exchange(jfields);
    engine.sweep(jcp, Plan::Jvp, jfields, time, step, out, rec);
    rec.work.jvp_evals += 1;
}

/// Jacobi diagonal of `A = I − dtθJ`, from the symbolic linearization:
/// the JVP volume program is linear in the unknown (the derivation gate
/// enforces it), so evaluating it with `v ≡ 1` yields `∂s/∂u` per dof;
/// the flux's own-cell slope is the `α` table of the JVP plan's
/// linearized flux. When the flux didn't linearize the diagonal degrades
/// to the volume part only — Jacobi is a preconditioner, so this costs
/// iterations, never correctness.
///
/// The volume part is evaluated a flat row at a time, tile by tile: the
/// program bound for the flat, the way expression initials are filled
/// (bit-identical to the `vm` tier per cell).
fn build_diag(
    jcp: &CompiledProblem,
    jfields: &mut Fields,
    unknown: usize,
    d: &Scope,
    dt_theta: f64,
    time: f64,
    inv_diag: &mut [f64],
) {
    jfields.slice_mut(unknown).fill(1.0);
    let vars = jfields.as_slices();
    let centroids = &jcp.mesh().cell_centroids;
    let hot = &jcp.hot;
    let mut regs = Vec::new();
    // Tiles are flat-major: one register program per flat.
    for row in d.tiles.chunk_by(|a, b| a.k == b.k) {
        let flat = d.flats[row[0].k];
        let program = jcp.bind(KernelKind::Volume, flat);
        regs.resize(program.n_regs(), [0.0; ROW_CHUNK]);
        // The flat's row of the flux table's own-cell slopes, by class.
        let alpha = jcp
            .flux_lin
            .as_ref()
            .map(|lin| &lin.alpha[flat * lin.n_classes..][..lin.n_classes]);
        for tile in row {
            let out = &mut inv_diag[d.at(tile)..][..tile.len];
            program.eval_row(&vars, tile.cell0, out, centroids, time, &mut regs);
            for (cell, out) in (tile.cell0..).zip(out) {
                let faces = hot.offsets[cell] as usize..hot.offsets[cell + 1] as usize;
                let mut asum = 0.0;
                if let Some(alpha) = alpha {
                    for (&area, &class) in hot.area[faces.clone()].iter().zip(&hot.class[faces]) {
                        asum += area * alpha[class as usize];
                    }
                }
                let dfdu = *out - asum * hot.inv_volume[cell];
                let diag = 1.0 - dt_theta * dfdu;
                *out = if diag != 0.0 { 1.0 / diag } else { 1.0 };
            }
        }
    }
}

/// Krylov work vectors, allocated once per solve and reused every step.
/// The shadow residual `r̂₀` is the right-hand side itself, the half-step
/// residual `s` lives in `r`'s storage, and the preconditioned directions
/// `M⁻¹p` / `M⁻¹s` live in the JVP fields' unknown slot, where the sweep
/// reads them.
pub(crate) struct KrylovVecs {
    r: Vec<f64>,
    p: Vec<f64>,
    v: Vec<f64>,
    t: Vec<f64>,
    pub inv_diag: Vec<f64>,
}

impl KrylovVecs {
    pub fn new(n: usize) -> KrylovVecs {
        KrylovVecs {
            r: vec![0.0; n],
            p: vec![0.0; n],
            v: vec![0.0; n],
            t: vec![0.0; n],
            inv_diag: vec![1.0; n],
        }
    }
}

/// Outcome of one BiCGStab solve.
pub(crate) struct KrylovStats {
    pub iters: u64,
    pub converged: bool,
    pub rnorm: f64,
}

/// Jacobi-right-preconditioned BiCGStab for `A x = b`,
/// `A = I − dtθJ`. `x` must come in zeroed, `bb` is the exact `b·b` (the
/// caller has it from the Newton residual norm), and the owned part of
/// `jfields`' unknown slot is scratch. Deterministic: all scalars are
/// exact global dots, breakdown tests compare against exact zero, and the
/// iteration emits a `krylov_residual` sample per half-step plus one
/// `krylov_solve` kernel span, which says why the loop stopped (`exit`:
/// `converged`, `max_iters` or `breakdown:<rho|r0v|tt|omega>`) and how
/// many of its sums took the limbs (`exact_fallbacks`). A solve that
/// stops short of the tolerance is a finding on every sink:
/// `solve/krylov-stagnation` at `max_iters`, `solve/krylov-breakdown`
/// otherwise.
///
/// One pass over the vectors per stage, each carrying the reductions
/// that read its output: `v = A·y` with `r̂₀·v`; `s` (over `r`), `x` and
/// the next direction with `‖s‖²`; `t = A·y` with `t·t` and `t·s`; `r`
/// (from `s` in place), `x` with `‖r‖²` and the next `ρ = r̂₀·r`. The
/// first `ρ = r̂₀·r = b·b` is `bb`.
#[allow(clippy::too_many_arguments)]
fn bicgstab(
    engine: &mut Engine,
    jcp: &CompiledProblem,
    jfields: &mut Fields,
    unknown: usize,
    b: &[f64],
    bb: f64,
    x: &mut [f64],
    kv: &mut KrylovVecs,
    dt_theta: f64,
    time: f64,
    d: &Scope,
    tol: f64,
    max_iters: usize,
    links: &mut dyn StepLinks,
    rec: &mut Recorder,
    step: usize,
) -> KrylovStats {
    let k0 = rec.now();
    let bnorm = bb.sqrt();
    let mut stats = KrylovStats {
        iters: 0,
        // b = 0: x = 0 solves exactly; nothing to do.
        converged: bnorm == 0.0,
        rnorm: bnorm,
    };
    let tol_abs = tol * bnorm;
    let mut rho = 1.0f64;
    let mut rho_new = bb;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    // Why the loop stopped, and how many of its sums took the limbs.
    let mut exit = "max_iters";
    let mut fallbacks = 0;
    while !stats.converged && stats.iters < max_iters as u64 {
        if rho_new == 0.0 {
            // Breakdown: return the best iterate found so far.
            exit = "breakdown:rho";
            break;
        }
        let y = jfields.slice_mut(unknown);
        if stats.iters == 0 {
            start_pass(b, &kv.inv_diag, &mut kv.r, &mut kv.p, y, d);
        } else {
            let beta = (rho_new / rho) * (alpha / omega);
            direction_pass(&kv.r, &kv.v, &kv.inv_diag, beta, omega, &mut kv.p, y, d);
        }
        jvp_sweep(engine, jcp, jfields, time, step, links, &mut kv.v, rec);
        let r0v = matvec_pass(&mut kv.v, jfields.slice(unknown), b, dt_theta, d);
        let exact = || exact_dots([(b, &kv.v)], d);
        let [r0v] = reduce([r0v], exact, links, &mut fallbacks);
        if r0v == 0.0 {
            exit = "breakdown:r0v";
            break;
        }
        alpha = rho_new / r0v;
        let y = jfields.slice_mut(unknown);
        let ss = half_step_pass(&kv.v, &kv.inv_diag, alpha, &mut kv.r, x, y, d);
        stats.iters += 1;
        rec.work.krylov_iters += 1;
        let exact = || exact_dots([(&kv.r, &kv.r)], d);
        let [ss] = reduce([ss], exact, links, &mut fallbacks);
        let snorm = ss.sqrt();
        rec.sample("krylov_residual", step, snorm);
        if snorm <= tol_abs {
            stats.rnorm = snorm;
            stats.converged = true;
            break;
        }
        jvp_sweep(engine, jcp, jfields, time, step, links, &mut kv.t, rec);
        let y = jfields.slice(unknown);
        let sums = stabilizer_pass(&mut kv.t, y, &kv.r, dt_theta, d);
        let exact = || exact_dots([(&kv.t, &kv.t), (&kv.t, &kv.r)], d);
        let [tt, ts] = reduce(sums, exact, links, &mut fallbacks);
        if tt == 0.0 {
            exit = "breakdown:tt";
            break;
        }
        omega = ts / tt;
        let sums = full_step_pass(&kv.t, y, b, omega, x, &mut kv.r, d);
        let exact = || exact_dots([(&kv.r, &kv.r), (b, &kv.r)], d);
        let [rr, r0r] = reduce(sums, exact, links, &mut fallbacks);
        rho = rho_new;
        rho_new = r0r;
        stats.rnorm = rr.sqrt();
        rec.sample("krylov_residual", step, stats.rnorm);
        if stats.rnorm <= tol_abs {
            stats.converged = true;
            break;
        }
        if omega == 0.0 {
            exit = "breakdown:omega";
            break;
        }
    }
    if stats.converged {
        exit = "converged";
    } else {
        // The run goes on from the returned iterate; every sink keeps
        // that it did.
        let rule = match exit {
            "max_iters" => rules::KRYLOV_STAGNATION,
            _ => rules::KRYLOV_BREAKDOWN,
        };
        let (iters, rnorm) = (stats.iters, stats.rnorm);
        let message = format!(
            "step {step}: BiCGStab stopped at {exit} after {iters} iteration(s), \
             residual {rnorm:.3e} above {tol_abs:.3e}"
        );
        rec.warn(Severity::Warning, rule, message);
    }
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
                ("exit", exit.to_string()),
                ("exact_fallbacks", fallbacks.to_string()),
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
    /// The Newton residual, stored negated: `−G` is the Krylov right-hand
    /// side.
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
///
/// The step's `implicit_newton` span counts the residual norms `‖G‖²`
/// that took the limbs (`exact_fallbacks`; each `krylov_solve` span
/// counts its own sums).
#[allow(clippy::too_many_arguments)]
pub(crate) fn theta_step(
    cp: &CompiledProblem,
    jcp: &CompiledProblem,
    engine: &mut Engine,
    fields: &mut Fields,
    ws: &mut ImplicitWorkspace,
    theta: f64,
    dt: f64,
    time: f64,
    step: usize,
    d: &Scope,
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
    // state; the unknown slot is the Krylov directions' (zeroed below).
    for var in (0..fields.n_vars()).filter(|&var| var != unknown) {
        ws.jfields.slice_mut(var).copy_from_slice(fields.slice(var));
    }
    ws.u_n.copy_from_slice(fields.slice(unknown));

    // The explicit part of the θ combination, evaluated once at u_n.
    if c_n != 0.0 {
        links.halo_exchange(fields);
        let f_n = &mut ws.f_n;
        engine.sweep(cp, Plan::Main, fields, time, step, f_n, rec);
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
    // The unknown slot carries the Krylov directions from here on: owned
    // entries are rewritten per matvec, halo entries by the exchange, and
    // everything else reads as zero.
    ws.jfields.slice_mut(unknown).fill(0.0);

    let lin_tol = forcing.unwrap_or(cfg.tol);
    let max_newton = if forcing.is_some() {
        1
    } else {
        cfg.max_newton.max(1)
    };
    let mut g0 = 0.0f64;
    let mut fallbacks = 0;
    for newton in 0..max_newton {
        links.halo_exchange(fields);
        let f_np = &mut ws.f_np;
        engine.sweep(cp, Plan::Main, fields, t_np, step, f_np, rec);
        rec.work.rhs_evals += 1;
        let gg = residual_pass(
            fields.slice(unknown),
            &ws.u_n,
            &ws.f_n,
            &ws.f_np,
            c_n,
            dt_theta,
            &mut ws.g,
            &mut ws.delta,
            d,
        );
        let exact = || exact_dots([(&ws.g, &ws.g)], d);
        let [gg] = reduce([gg], exact, links, &mut fallbacks);
        let gnorm = gg.sqrt();
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
        // Solve (I − dtθJ) δ = −G; `ws.g` holds −G and `gg` its exact
        // squared norm.
        let stats = bicgstab(
            engine,
            jcp,
            &mut ws.jfields,
            unknown,
            &ws.g,
            gg,
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
        let u = fields.slice_mut(unknown);
        for span in d.spans() {
            for (u, &delta) in u[span.clone()].iter_mut().zip(&ws.delta[span]) {
                *u += delta;
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
                ("exact_fallbacks", fallbacks.to_string()),
            ],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::LocalLinks;
    use super::*;
    use pbte_runtime::world::RankCtx;

    const N_CELLS: usize = 24;
    const N_FLAT: usize = 5;
    const N: usize = N_CELLS * N_FLAT;

    /// A gapped cell scope (an RCB-style partition) over every flat, and
    /// every cell over a flat subset (a band partition).
    fn scopes() -> [(Vec<usize>, Vec<usize>); 2] {
        [
            (vec![0, 1, 2, 7, 8, 20], (0..N_FLAT).collect()),
            ((0..N_CELLS).collect(), vec![1, 3]),
        ]
    }

    /// The owned indices the way the unfused loops walked them.
    fn indices(d: &Scope) -> Vec<usize> {
        let mut out = Vec::new();
        for &flat in &d.flats {
            for &cell in &d.cells {
                out.push(flat * d.n_cells + cell);
            }
        }
        out
    }

    fn vector(seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..N)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2f64.powi((s % 41) as i32 - 20)
            })
            .collect()
    }

    /// The unfused reference: an exact dot over the scope, on its own.
    fn exact_dot(a: &[f64], b: &[f64], d: &Scope) -> f64 {
        let mut acc = ExactAcc::new();
        for i in indices(d) {
            acc.add_prod(a[i], b[i]);
        }
        acc.value()
    }

    /// A pass's sums reduced on one rank, all of them certified: a sum
    /// that reached for the limbs fails the test.
    fn certified<const K: usize>(dots: [Dot2; K]) -> [f64; K] {
        let mut fallbacks = 0;
        let limbs = || panic!("the passes' sums certify");
        reduce(dots, limbs, &mut LocalLinks, &mut fallbacks)
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
        }
    }

    /// `cells × flats` on a mesh of `N_CELLS` (face-less) cells.
    fn scope(cells: Vec<usize>, flats: Vec<usize>) -> Scope {
        Scope::new(&[0; N_CELLS + 1], cells, flats, 1)
    }

    fn for_each_scope(check: impl Fn(&Scope)) {
        for (cells, flats) in scopes() {
            check(&scope(cells, flats));
        }
    }

    #[test]
    fn spans_cover_each_owned_dof_exactly_once() {
        for_each_scope(|d| {
            let mut walked: Vec<usize> = d.spans().flatten().collect();
            assert_eq!(walked, indices(d), "flat-major, ascending within a flat");
            walked.sort_unstable();
            walked.dedup();
            assert_eq!(walked.len(), d.flats.len() * d.cells.len());
        });
        // The gapped scope walks three runs per flat.
        let [(cells, flats), _] = scopes();
        let d = scope(cells, flats);
        assert_eq!(d.spans().count(), 3 * N_FLAT);
        assert_eq!(d.spans().next(), Some(0..3));
    }

    #[test]
    fn residual_pass_matches_unfused_update_and_dot() {
        for_each_scope(|d| {
            for c_n in [0.0, 0.25] {
                let (u, u_n, f_n, f_np) = (vector(1), vector(2), vector(3), vector(4));
                let (mut b, mut delta) = (vector(5), vector(6));
                let (mut b_ref, mut delta_ref) = (b.clone(), delta.clone());
                let gg = residual_pass(&u, &u_n, &f_n, &f_np, c_n, 0.5, &mut b, &mut delta, d);
                let [gg] = certified([gg]);
                let mut g = vec![0.0; N];
                for i in indices(d) {
                    let expl = if c_n != 0.0 { c_n * f_n[i] } else { 0.0 };
                    g[i] = u[i] - u_n[i] - expl - 0.5 * f_np[i];
                    b_ref[i] = -g[i];
                    delta_ref[i] = 0.0;
                }
                assert_eq!(gg.to_bits(), exact_dot(&g, &g, d).to_bits());
                assert_eq!(gg.to_bits(), exact_dot(&b, &b, d).to_bits(), "‖−G‖ = ‖G‖");
                assert_bits(&b, &b_ref, "b");
                assert_bits(&delta, &delta_ref, "delta");
            }
        });
    }

    #[test]
    fn direction_passes_match_unfused_updates() {
        for_each_scope(|d| {
            let (b, inv_diag, v) = (vector(1), vector(2), vector(3));
            let (mut r, mut p, mut y) = (vector(4), vector(5), vector(6));
            let (mut r_ref, mut p_ref, mut y_ref) = (r.clone(), p.clone(), y.clone());
            start_pass(&b, &inv_diag, &mut r, &mut p, &mut y, d);
            for i in indices(d) {
                r_ref[i] = b[i];
                p_ref[i] = r_ref[i];
                y_ref[i] = inv_diag[i] * p_ref[i];
            }
            assert_bits(&r, &r_ref, "r");
            assert_bits(&p, &p_ref, "p");
            assert_bits(&y, &y_ref, "y");

            let (beta, omega) = (0.375, -1.75);
            direction_pass(&r, &v, &inv_diag, beta, omega, &mut p, &mut y, d);
            for i in indices(d) {
                p_ref[i] = r[i] + beta * (p_ref[i] - omega * v[i]);
                y_ref[i] = inv_diag[i] * p_ref[i];
            }
            assert_bits(&p, &p_ref, "p");
            assert_bits(&y, &y_ref, "y");
        });
    }

    #[test]
    fn matvec_passes_match_unfused_update_and_dots() {
        for_each_scope(|d| {
            let (y, r0, s) = (vector(1), vector(2), vector(3));
            let dt_theta = 0.625;
            let unfused = |out: &mut [f64]| {
                for i in indices(d) {
                    out[i] = y[i] - dt_theta * out[i];
                }
            };

            let mut v = vector(4);
            let mut v_ref = v.clone();
            let [r0v] = certified([matvec_pass(&mut v, &y, &r0, dt_theta, d)]);
            unfused(&mut v_ref);
            assert_bits(&v, &v_ref, "v");
            assert_eq!(r0v.to_bits(), exact_dot(&r0, &v_ref, d).to_bits());

            let mut t = vector(5);
            let mut t_ref = t.clone();
            let [tt, ts] = certified(stabilizer_pass(&mut t, &y, &s, dt_theta, d));
            unfused(&mut t_ref);
            assert_bits(&t, &t_ref, "t");
            assert_eq!(tt.to_bits(), exact_dot(&t_ref, &t_ref, d).to_bits());
            assert_eq!(ts.to_bits(), exact_dot(&t_ref, &s, d).to_bits());
        });
    }

    #[test]
    fn step_passes_match_unfused_updates_and_dots() {
        for_each_scope(|d| {
            let (r, v, inv_diag, t, r0) = (vector(1), vector(2), vector(3), vector(4), vector(5));
            let (alpha, omega) = (1.5, -0.3125);

            // The half step leaves `s` in `r`'s storage; the reference
            // keeps `r` and `s` apart. Unowned entries of `r` stay put.
            let (mut r_s, mut x, mut y) = (r.clone(), vector(7), vector(8));
            let (mut s_ref, mut x_ref, mut y_ref) = (r.clone(), x.clone(), y.clone());
            let ss = half_step_pass(&v, &inv_diag, alpha, &mut r_s, &mut x, &mut y, d);
            let [ss] = certified([ss]);
            for i in indices(d) {
                s_ref[i] = r[i] - alpha * v[i];
                x_ref[i] += alpha * y_ref[i];
            }
            for i in indices(d) {
                y_ref[i] = inv_diag[i] * s_ref[i];
            }
            assert_bits(&r_s, &s_ref, "s");
            assert_bits(&x, &x_ref, "x");
            assert_bits(&y, &y_ref, "y");
            assert_eq!(ss.to_bits(), exact_dot(&s_ref, &s_ref, d).to_bits());

            // The stabilizer reads `s` there ...
            let (mut t_new, mut t_ref) = (t.clone(), t.clone());
            let sums = stabilizer_pass(&mut t_new, &y, &r_s, 0.625, d);
            let [tt, ts] = certified(sums);
            for i in indices(d) {
                t_ref[i] = y[i] - 0.625 * t_ref[i];
            }
            assert_bits(&t_new, &t_ref, "t");
            assert_eq!(tt.to_bits(), exact_dot(&t_ref, &t_ref, d).to_bits());
            assert_eq!(ts.to_bits(), exact_dot(&t_ref, &s_ref, d).to_bits());

            // ... and the full step turns it back into `r` in place.
            let mut r_ref = s_ref.clone();
            let sums = full_step_pass(&t_new, &y, &r0, omega, &mut x, &mut r_s, d);
            let [rr, r0r] = certified(sums);
            for i in indices(d) {
                x_ref[i] += omega * y[i];
                r_ref[i] = s_ref[i] - omega * t_ref[i];
            }
            assert_bits(&x, &x_ref, "x");
            assert_bits(&r_s, &r_ref, "r");
            assert_eq!(rr.to_bits(), exact_dot(&r_ref, &r_ref, d).to_bits());
            assert_eq!(r0r.to_bits(), exact_dot(&r0, &r_ref, d).to_bits());
        });
    }

    /// A reducer over one of `World`'s ranks that counts its collectives
    /// that sent a message (a fold on one rank sends none).
    struct CountingRank<'a> {
        ctx: &'a mut RankCtx,
        messages: usize,
    }

    impl Reducer for CountingRank<'_> {
        fn fold(&mut self, buf: &mut [f64], add: &mut dyn FnMut(&mut [f64])) {
            let sent = self.ctx.stats.messages;
            self.ctx.fold(buf, add);
            self.messages += (self.ctx.stats.messages > sent) as usize;
        }
        fn rank(&self) -> usize {
            self.ctx.rank
        }
        fn n_ranks(&self) -> usize {
            self.ctx.n_ranks
        }
    }

    /// `a·b` and `b·b` reduced over 1, 2 and 3 ranks, each owning a
    /// slice. When every share certifies, the rows travel in one message
    /// and every rank returns the limbs' bits. When one rank holds a
    /// product below 2⁻⁹⁰⁰ that does not round to zero, every rank falls
    /// back for both sums, sends the limb message as well and returns the
    /// exact values. One rank sends nothing either way.
    #[test]
    fn one_uncertifiable_share_sends_every_rank_to_the_limbs() {
        use pbte_runtime::world::World;
        for ranks in [1, 2, 3] {
            let share = |k: usize| N * k / ranks..N * (k + 1) / ranks;
            for poisoned in [None, Some(0), Some(ranks - 1)] {
                let (mut a, mut b) = (vector(11), vector(12));
                if let Some(k) = poisoned {
                    let i = share(k).start + 1;
                    (a[i], b[i]) = (2f64.powi(-500), 2f64.powi(-450));
                }
                let all = Scope::new(
                    &[0; N_CELLS + 1],
                    (0..N_CELLS).collect(),
                    (0..N_FLAT).collect(),
                    1,
                );
                let want = [exact_dot(&a, &b, &all), exact_dot(&b, &b, &all)];
                let results = World::run(ranks, |ctx| {
                    let own = share(ctx.rank);
                    let (a, b) = (&a[own.clone()], &b[own]);
                    let mut dots = [Dot2::new(), Dot2::new()];
                    dots[0].add_dot(a, b);
                    dots[1].add_dot(b, b);
                    let limbs = || {
                        let mut accs = [ExactAcc::new(), ExactAcc::new()];
                        for (&x, &y) in a.iter().zip(b) {
                            accs[0].add_prod(x, y);
                            accs[1].add_prod(y, y);
                        }
                        accs
                    };
                    let mut links = CountingRank { ctx, messages: 0 };
                    let mut fallbacks = 0;
                    let sums = reduce(dots, limbs, &mut links, &mut fallbacks);
                    (sums, links.messages, fallbacks)
                });
                let fell_back = poisoned.is_some();
                for (rank, (sums, messages, fallbacks)) in results.into_iter().enumerate() {
                    let what = format!("{ranks} ranks, poisoned {poisoned:?}, rank {rank}");
                    assert_bits(&sums, &want, &what);
                    let sent = if ranks == 1 {
                        0
                    } else {
                        1 + fell_back as usize
                    };
                    assert_eq!(messages, sent, "{what}: messages");
                    assert_eq!(fallbacks, 2 * fell_back as u64, "{what}: fallbacks");
                }
            }
        }
    }

    /// Backward-Euler transport on a 6 × 4 grid (`N_CELLS` cells,
    /// `N_FLAT` directions) with a decay rate that varies by cell, flat
    /// and position; `speed` scales the upwind flux.
    fn implicit_plan(speed: &str) -> (CompiledProblem, Fields) {
        use crate::problem::{BoundaryCondition, Integrator, Problem};
        let mut p = Problem::new("implicit-diag");
        p.domain(2);
        p.mesh(pbte_mesh::UniformGrid::new_2d(6, 4, 1.0, 1.0).build());
        p.set_steps(1e-2, 1);
        let d = p.index("d", N_FLAT);
        let i_var = p.variable("I", &[d]);
        let sigma = p.variable("sigma", &[]);
        p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0, 0.6]);
        p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0, 0.8]);
        p.coefficient_array("k", &[d], vec![1.0, 0.5, 2.0, 0.25, 3.0]);
        p.coefficient_fn("ramp", |x, _| 1.0 + x.x * x.y);
        p.initial(i_var, |x, idx| (3.0 * x.x + x.y + idx[0] as f64).sin());
        p.initial(sigma, |x, _| 1.0 + 7.0 * x.x + 3.0 * x.y);
        for side in ["left", "right", "top", "bottom"] {
            p.boundary(i_var, side, BoundaryCondition::Value(0.0));
        }
        p.conservation_form(
            i_var,
            &format!("-sigma*k[d]*ramp*I[d] + surface({speed}*upwind([Sx[d];Sy[d]], I[d]))"),
        );
        p.integrator(Integrator::Implicit { theta: 1.0 });
        CompiledProblem::compile(p).unwrap()
    }

    /// The diagonal the way the `vm` tier builds it, one dof at a time.
    fn diag_by_vm(jcp: &CompiledProblem, vars: &[&[f64]], d: &Scope, dt_theta: f64) -> Vec<f64> {
        let (hot, time) = (&jcp.hot, TIME);
        let mut inv_diag = vec![f64::NAN; jcp.n_flat * d.n_cells];
        for &flat in &d.flats {
            for &cell in &d.cells {
                let vm = crate::bytecode::VmCtx {
                    vars,
                    n_cells: d.n_cells,
                    coefficients: &jcp.problem.registry.coefficients,
                    idx: &jcp.idx_of_flat[flat],
                    cell,
                    u1: 0.0,
                    u2: 0.0,
                    normal: [0.0; 3],
                    position: jcp.mesh().cell_centroids[cell],
                    dt: jcp.problem.dt,
                    time,
                };
                let mut asum = 0.0;
                if let Some(lin) = &jcp.flux_lin {
                    for k in hot.offsets[cell] as usize..hot.offsets[cell + 1] as usize {
                        asum +=
                            hot.area[k] * lin.alpha[flat * lin.n_classes + hot.class[k] as usize];
                    }
                }
                let diag = 1.0 - dt_theta * (jcp.volume.eval(&vm) - asum * hot.inv_volume[cell]);
                inv_diag[flat * d.n_cells + cell] = if diag != 0.0 { 1.0 / diag } else { 1.0 };
            }
        }
        inv_diag
    }

    const TIME: f64 = 0.25;

    /// The diagonal built by rows is the VM's, bit for bit, on a table
    /// plan and on one whose flux did not linearize (the volume part
    /// only), over both scopes cut into one and three tiles per span;
    /// unowned entries are left alone.
    #[test]
    fn row_built_diagonal_matches_the_vm_dof_by_dof() {
        for (speed, table) in [("1.0", true), ("ramp", false)] {
            let (cp, mut jfields) = implicit_plan(speed);
            let jcp = cp.jvp.as_deref().expect("an implicit plan derives a JVP");
            assert_eq!(jcp.flux_lin.is_some(), table, "speed {speed}");
            assert_eq!((jcp.n_flat, jcp.mesh().n_cells()), (N_FLAT, N_CELLS));
            let unknown = cp.system.unknown;
            for (cells, flats) in scopes() {
                for workers in [1, 3] {
                    let d = Scope::new(&jcp.hot.offsets, cells.clone(), flats.clone(), workers);
                    let mut got = vec![f64::NAN; N];
                    build_diag(jcp, &mut jfields, unknown, &d, 0.75, TIME, &mut got);
                    let want = diag_by_vm(jcp, &jfields.as_slices(), &d, 0.75);
                    assert!(
                        indices(&d).iter().all(|&i| got[i] != 1.0),
                        "a live diagonal"
                    );
                    assert_bits(&got, &want, &format!("speed {speed}, {workers} workers"));
                }
            }
        }
    }
}
