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
//! A step holds `u_n`, `f_n` (θ < 1 only), `g`, `δ` and BiCGStab's `r`,
//! `p`, `v`, `t`, `y` and inverse diagonal: nine unknown-sized vectors
//! under backward Euler, ten under θ < 1, and no copy of the fields (the
//! JVP sweeps read the live ones, `y` swapped into the unknown's slot).
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

/// Newton residual pass: `b = −G(u)` with `G = u − u_n − c_n·f_n −
/// dtθ·f(u)`, in place over the sweep `f(u)` left in `b` (`f_n` is read
/// only when `c_n ≠ 0`), and the local part of `‖G‖²` (= `‖b‖²`).
fn residual_pass(
    u: &[f64],
    u_n: &[f64],
    f_n: &[f64],
    c_n: f64,
    dt_theta: f64,
    b: &mut [f64],
    d: &Scope,
) -> Dot2 {
    let mut gg = Dot2::new();
    for span in d.spans() {
        let (u, u_n) = (&u[span.clone()], &u_n[span.clone()]);
        let f_n = f_n.get(span.clone()).unwrap_or_default();
        let b = &mut b[span];
        for (i, b) in b.iter_mut().enumerate() {
            let expl = if c_n != 0.0 { c_n * f_n[i] } else { 0.0 };
            *b = -(u[i] - u_n[i] - expl - dt_theta * *b);
        }
        gg.add_dot(b, b);
    }
    gg
}

/// BiCGStab start: the first preconditioned direction `y = M⁻¹b` (the
/// first `r` and `p` are `b` itself, read where they would be).
fn start_pass(b: &[f64], inv_diag: &[f64], y: &mut [f64], d: &Scope) {
    for span in d.spans() {
        let (b, inv_diag) = (&b[span.clone()], &inv_diag[span.clone()]);
        for ((y, &m), &b) in y[span].iter_mut().zip(inv_diag).zip(b) {
            *y = m * b;
        }
    }
}

/// Search direction: `p = r + β(p − ωv)`, `y = M⁻¹p`. The `FIRST` pass
/// (iteration 1) reads the old `p` from `b`: it was never stored.
#[allow(clippy::too_many_arguments)]
fn direction_pass<const FIRST: bool>(
    r: &[f64],
    v: &[f64],
    b: &[f64],
    inv_diag: &[f64],
    beta: f64,
    omega: f64,
    p: &mut [f64],
    y: &mut [f64],
    d: &Scope,
) {
    for span in d.spans() {
        let (r, v, inv_diag) = (&r[span.clone()], &v[span.clone()], &inv_diag[span.clone()]);
        let (b, p, y) = (&b[span.clone()], &mut p[span.clone()], &mut y[span]);
        for (i, (p, y)) in p.iter_mut().zip(y).enumerate() {
            let p_old = if FIRST { b[i] } else { *p };
            *p = r[i] + beta * (p_old - omega * v[i]);
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
/// the local part of `‖s‖²`. The `FIRST` pass (iteration 0) reads `r` from
/// `b` and writes `x = 0 + αy`: the sum the update makes on a zeroed `x`,
/// so a `−0.0` product still gives `+0.0`, with no zero-fill before it.
#[allow(clippy::too_many_arguments)]
fn half_step_pass<const FIRST: bool>(
    v: &[f64],
    b: &[f64],
    inv_diag: &[f64],
    alpha: f64,
    r: &mut [f64],
    x: &mut [f64],
    y: &mut [f64],
    d: &Scope,
) -> Dot2 {
    let mut ss = Dot2::new();
    for span in d.spans() {
        let (v, b, inv_diag) = (&v[span.clone()], &b[span.clone()], &inv_diag[span.clone()]);
        let (s, x, y) = (&mut r[span.clone()], &mut x[span.clone()], &mut y[span]);
        for (i, ((s, x), y)) in s.iter_mut().zip(x).zip(y).enumerate() {
            let (r_old, x_old) = if FIRST { (b[i], 0.0) } else { (*s, *x) };
            *s = r_old - alpha * v[i];
            *x = x_old + alpha * *y;
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

/// One JVP sweep `out = J·y`, with `y` swapped into the unknown's slot of
/// the live `fields` for the halo exchange and the sweep. Within a step
/// only the unknown changes: the sweep sees the frozen Io, β, ….
#[allow(clippy::too_many_arguments)]
fn jvp_sweep(
    engine: &mut Engine,
    jcp: &CompiledProblem,
    fields: &mut Fields,
    y: &mut Vec<f64>,
    time: f64,
    step: usize,
    links: &mut dyn StepLinks,
    out: &mut Vec<f64>,
    rec: &mut Recorder,
) {
    fields.swap_storage(jcp.system.unknown, y);
    links.halo_exchange(fields);
    engine.sweep(jcp, Plan::Jvp, fields, time, step, out, rec);
    fields.swap_storage(jcp.system.unknown, y);
    rec.work.jvp_evals += 1;
}

/// Jacobi diagonal of `A = I − dtθJ`, from the symbolic linearization:
/// the JVP volume program is linear in the unknown (the derivation gate
/// enforces it), so evaluating it on `vars` with `v ≡ 1` in the unknown's
/// slot yields `∂s/∂u` per dof; the flux's own-cell slope is the `α`
/// table of the JVP plan's linearized flux. When the flux didn't
/// linearize the diagonal degrades to the volume part only — Jacobi is a
/// preconditioner, so this costs iterations, never correctness.
///
/// The volume part is evaluated a flat row at a time, tile by tile: the
/// program bound for the flat, the way expression initials are filled
/// (bit-identical to the `vm` tier per cell).
fn build_diag(
    jcp: &CompiledProblem,
    vars: &[&[f64]],
    d: &Scope,
    dt_theta: f64,
    time: f64,
    inv_diag: &mut [f64],
) {
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
            program.eval_row(vars, tile.cell0, out, centroids, time, &mut regs);
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

/// Krylov work vectors, allocated once per solve and reused every step:
/// `r`, `p`, `v`, `t`, the direction `y` (`M⁻¹p` / `M⁻¹s`; zero outside
/// the owned dofs and the halo) and the inverse diagonal. `r̂₀` is `b`,
/// which also stands for the first `r` and `p`, and `s` lives in `r`.
pub(crate) struct KrylovVecs {
    r: Vec<f64>,
    p: Vec<f64>,
    v: Vec<f64>,
    t: Vec<f64>,
    y: Vec<f64>,
    pub inv_diag: Vec<f64>,
}

impl KrylovVecs {
    pub fn new(n: usize) -> KrylovVecs {
        KrylovVecs {
            r: vec![0.0; n],
            p: vec![0.0; n],
            v: vec![0.0; n],
            t: vec![0.0; n],
            y: vec![0.0; n],
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

/// Jacobi-right-preconditioned BiCGStab for `A x = b`, `A = I − dtθJ`,
/// from `x = 0` (written by the first half step, or zero-filled by a
/// solve that stops before it); `bb` is the exact `b·b` (the caller has
/// it from the Newton residual norm). Deterministic: all scalars are
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
    fields: &mut Fields,
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
    let KrylovVecs { r, p, v, t, y, .. } = kv;
    let inv_diag = &kv.inv_diag;
    while !stats.converged && stats.iters < max_iters as u64 {
        if rho_new == 0.0 {
            // Breakdown: return the best iterate found so far.
            exit = "breakdown:rho";
            break;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        match stats.iters {
            0 => start_pass(b, inv_diag, y, d),
            1 => direction_pass::<true>(r, v, b, inv_diag, beta, omega, p, y, d),
            _ => direction_pass::<false>(r, v, b, inv_diag, beta, omega, p, y, d),
        }
        jvp_sweep(engine, jcp, fields, y, time, step, links, v, rec);
        let r0v = matvec_pass(v, y, b, dt_theta, d);
        let exact = || exact_dots([(b, v)], d);
        let [r0v] = reduce([r0v], exact, links, &mut fallbacks);
        if r0v == 0.0 {
            exit = "breakdown:r0v";
            break;
        }
        alpha = rho_new / r0v;
        let ss = match stats.iters {
            0 => half_step_pass::<true>(v, b, inv_diag, alpha, r, x, y, d),
            _ => half_step_pass::<false>(v, b, inv_diag, alpha, r, x, y, d),
        };
        stats.iters += 1;
        rec.work.krylov_iters += 1;
        let exact = || exact_dots([(r, r)], d);
        let [ss] = reduce([ss], exact, links, &mut fallbacks);
        let snorm = ss.sqrt();
        rec.sample("krylov_residual", step, snorm);
        if snorm <= tol_abs {
            stats.rnorm = snorm;
            stats.converged = true;
            break;
        }
        jvp_sweep(engine, jcp, fields, y, time, step, links, t, rec);
        let sums = stabilizer_pass(t, y, r, dt_theta, d);
        let exact = || exact_dots([(t, t), (t, r)], d);
        let [tt, ts] = reduce(sums, exact, links, &mut fallbacks);
        if tt == 0.0 {
            exit = "breakdown:tt";
            break;
        }
        omega = ts / tt;
        let sums = full_step_pass(t, y, b, omega, x, r, d);
        let exact = || exact_dots([(r, r), (b, r)], d);
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
    if stats.iters == 0 {
        // No half step wrote `x`: the iterate is the start, zero.
        d.spans().for_each(|span| x[span].fill(0.0));
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

/// Workspace for the θ-step driver, allocated once per solve: `u_n`,
/// `f_n` (empty under θ = 1), `g`, `δ` and the six [`KrylovVecs`].
pub(crate) struct ImplicitWorkspace {
    pub u_n: Vec<f64>,
    pub f_n: Vec<f64>,
    /// The Newton residual, stored negated (`−G` is the Krylov right-hand
    /// side); each Newton iteration's RHS sweep lands here first.
    pub g: Vec<f64>,
    pub delta: Vec<f64>,
    pub kv: KrylovVecs,
    /// The `dtθ` the cached diagonal was built for (bits compared); the
    /// steady driver clears it when SER changes `dt`.
    pub diag_dt_theta: Option<u64>,
}

impl ImplicitWorkspace {
    pub fn new(theta: f64, n: usize) -> ImplicitWorkspace {
        ImplicitWorkspace {
            u_n: vec![0.0; n],
            f_n: vec![0.0; n * usize::from(theta < 1.0)],
            g: vec![0.0; n],
            delta: vec![0.0; n],
            kv: KrylovVecs::new(n),
            diag_dt_theta: None,
        }
    }

    /// How many unknown-sized vectors the workspace holds at `theta`.
    pub fn vectors(theta: f64) -> usize {
        9 + usize::from(theta < 1.0)
    }

    /// Bytes of the vectors it holds.
    pub fn bytes(&self) -> usize {
        let kv = &self.kv;
        let vecs = [&self.u_n, &self.f_n, &self.g, &self.delta];
        let kvs = [&kv.r, &kv.p, &kv.v, &kv.t, &kv.y, &kv.inv_diag];
        vecs.iter().chain(&kvs).map(|v| v.len() * 8).sum()
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
    ws.u_n.copy_from_slice(fields.slice(unknown));

    // The explicit part of the θ combination, evaluated once at u_n.
    if c_n != 0.0 {
        links.halo_exchange(fields);
        let f_n = &mut ws.f_n;
        engine.sweep(cp, Plan::Main, fields, time, step, f_n, rec);
        rec.work.rhs_evals += 1;
    }

    // Refresh the Jacobi diagonal when dtθ changed (steady varies dt),
    // with `v` (scratch until the first matvec writes it) as the ones.
    let bits = dt_theta.to_bits();
    if ws.diag_dt_theta != Some(bits) {
        let kv = &mut ws.kv;
        kv.v.fill(1.0);
        let mut vars = fields.as_slices();
        vars[unknown] = &kv.v;
        build_diag(jcp, &vars, d, dt_theta, t_np, &mut kv.inv_diag);
        ws.diag_dt_theta = Some(bits);
    }

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
        engine.sweep(cp, Plan::Main, fields, t_np, step, &mut ws.g, rec);
        rec.work.rhs_evals += 1;
        let u = fields.slice(unknown);
        let gg = residual_pass(u, &ws.u_n, &ws.f_n, c_n, dt_theta, &mut ws.g, d);
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
            fields,
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
                let (u, u_n, f_u) = (vector(1), vector(2), vector(4));
                // Backward Euler holds no `f_n`.
                let f_n = if c_n != 0.0 { vector(3) } else { Vec::new() };
                // `b` comes in holding the RHS sweep `f(u)`; its unowned
                // entries stay put.
                let mut b = f_u.clone();
                let mut b_ref = b.clone();
                let gg = residual_pass(&u, &u_n, &f_n, c_n, 0.5, &mut b, d);
                let [gg] = certified([gg]);
                let mut g = vec![0.0; N];
                for i in indices(d) {
                    let expl = if c_n != 0.0 { c_n * f_n[i] } else { 0.0 };
                    g[i] = u[i] - u_n[i] - expl - 0.5 * f_u[i];
                    b_ref[i] = -g[i];
                }
                assert_eq!(gg.to_bits(), exact_dot(&g, &g, d).to_bits());
                assert_eq!(gg.to_bits(), exact_dot(&b, &b, d).to_bits(), "‖−G‖ = ‖G‖");
                assert_bits(&b, &b_ref, "b");
            }
        });
    }

    /// The start and direction passes against the textbook updates on
    /// stored `r = p = b`: the first direction reads the old `p` from
    /// `b`, the later ones from `p`.
    #[test]
    fn direction_passes_match_unfused_updates() {
        for_each_scope(|d| {
            let (b, inv_diag, v, r) = (vector(1), vector(2), vector(3), vector(4));
            let (mut p, mut y) = (vector(5), vector(6));
            let (mut p_ref, mut y_ref) = (p.clone(), y.clone());
            start_pass(&b, &inv_diag, &mut y, d);
            for i in indices(d) {
                p_ref[i] = b[i];
                y_ref[i] = inv_diag[i] * p_ref[i];
            }
            assert_bits(&y, &y_ref, "y");

            let (beta, omega) = (0.375, -1.75);
            direction_pass::<true>(&r, &v, &b, &inv_diag, beta, omega, &mut p, &mut y, d);
            let update = |p_ref: &mut [f64], y_ref: &mut [f64]| {
                for i in indices(d) {
                    p_ref[i] = r[i] + beta * (p_ref[i] - omega * v[i]);
                    y_ref[i] = inv_diag[i] * p_ref[i];
                }
            };
            update(&mut p_ref, &mut y_ref);
            assert_bits(&p, &p_ref, "p");
            assert_bits(&y, &y_ref, "y");

            direction_pass::<false>(&r, &v, &b, &inv_diag, beta, omega, &mut p, &mut y, d);
            update(&mut p_ref, &mut y_ref);
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
            let b = vector(9);
            let ss = half_step_pass::<false>(&v, &b, &inv_diag, alpha, &mut r_s, &mut x, &mut y, d);
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

    /// The first half step reads `r` from `b` and adds `αy` to a zero
    /// it never stored: its `x` is the textbook update's on a zeroed `x`,
    /// `+0.0` where `αy` is `−0.0`, over garbage in `x`.
    #[test]
    fn first_half_step_matches_the_update_on_stored_r_and_zeroed_x() {
        for_each_scope(|d| {
            let (b, v, inv_diag) = (vector(1), vector(2), vector(3));
            let mut y = vector(4);
            let owned = indices(d);
            // A negative zero direction entry: `α·y` is `−0.0` there.
            y[owned[1]] = -0.0;
            let alpha = 1.5;
            let (mut r, mut x) = (vector(5), vec![f64::NAN; N]);
            let (mut s_ref, mut x_ref, mut y_ref) = (r.clone(), x.clone(), y.clone());
            let ss = half_step_pass::<true>(&v, &b, &inv_diag, alpha, &mut r, &mut x, &mut y, d);
            let [ss] = certified([ss]);
            for &i in &owned {
                s_ref[i] = b[i];
                s_ref[i] -= alpha * v[i];
                x_ref[i] = 0.0;
                x_ref[i] += alpha * y_ref[i];
                y_ref[i] = inv_diag[i] * s_ref[i];
            }
            assert_eq!(x[owned[1]].to_bits(), 0.0f64.to_bits(), "+0.0");
            assert_bits(&r, &s_ref, "s");
            assert_bits(&x, &x_ref, "x");
            assert_bits(&y, &y_ref, "y");
            assert_eq!(ss.to_bits(), exact_dot(&s_ref, &s_ref, d).to_bits());
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

    /// A BiCGStab that stops before its first half step returns `x = 0`:
    /// `+0.0` on every owned dof over the garbage `x` held, with the live
    /// unknown bit for bit as it came in (the direction swapped out
    /// again). Two such exits, on both scopes: `b = 0`, converged at
    /// entry, and `r̂₀·v = 0` at iteration 0, forced with `A = I`
    /// (`dtθ = 0`) and a diagonal of `+1` and `−1` on the two dofs where
    /// `b` is one.
    #[test]
    fn a_solve_that_stops_before_its_first_half_step_returns_zero() {
        use super::super::driver::engine_for;
        use super::super::ExecTarget;
        let (cp, mut fields) = implicit_plan("1.0");
        let jcp = cp.jvp.as_deref().expect("an implicit plan derives a JVP");
        let u = fields.slice(cp.system.unknown).to_vec();
        for (cells, flats) in scopes() {
            let d = Scope::new(&jcp.hot.offsets, cells, flats, 1);
            let owned = indices(&d);
            let (first, last) = (owned[0], owned[owned.len() - 1]);
            let (mut engine, _) = engine_for(&cp, &fields, &d, &ExecTarget::CpuSeq, false);
            let mut kv = KrylovVecs::new(N);
            kv.inv_diag[last] = -1.0;
            let mut forced = vec![0.0; N];
            (forced[first], forced[last]) = (1.0, 1.0);
            for (b, bb, exit) in [
                (vec![0.0; N], 0.0, "converged"),
                (forced, 2.0, "breakdown:r0v"),
            ] {
                let mut x = vector(7);
                let mut rec = Recorder::buffered();
                let stats = bicgstab(
                    &mut engine,
                    jcp,
                    &mut fields,
                    &b,
                    bb,
                    &mut x,
                    &mut kv,
                    0.0,
                    TIME,
                    &d,
                    1e-9,
                    10,
                    &mut LocalLinks,
                    &mut rec,
                    0,
                );
                assert_eq!(stats.iters, 0, "{exit}");
                let spans = rec.spans();
                let span = spans.iter().find(|s| s.name == "krylov_solve").unwrap();
                assert!(span.attrs.contains(&("exit", exit.to_string())), "{exit}");
                for &i in &owned {
                    assert_eq!(x[i].to_bits(), 0, "{exit}: x[{i}] = {:e}", x[i]);
                }
                assert_bits(fields.slice(cp.system.unknown), &u, exit);
            }
        }
    }

    /// The diagonal built by rows is the VM's, bit for bit, on a table
    /// plan and on one whose flux did not linearize (the volume part
    /// only), over both scopes cut into one and three tiles per span;
    /// unowned entries are left alone.
    #[test]
    fn row_built_diagonal_matches_the_vm_dof_by_dof() {
        for (speed, table) in [("1.0", true), ("ramp", false)] {
            let (cp, fields) = implicit_plan(speed);
            let jcp = cp.jvp.as_deref().expect("an implicit plan derives a JVP");
            assert_eq!(jcp.flux_lin.is_some(), table, "speed {speed}");
            assert_eq!((jcp.n_flat, jcp.mesh().n_cells()), (N_FLAT, N_CELLS));
            let unknown = cp.system.unknown;
            for (cells, flats) in scopes() {
                for workers in [1, 3] {
                    let d = Scope::new(&jcp.hot.offsets, cells.clone(), flats.clone(), workers);
                    let mut got = vec![f64::NAN; N];
                    let ones = vec![1.0; N];
                    let mut vars = fields.as_slices();
                    vars[unknown] = &ones;
                    build_diag(jcp, &vars, &d, 0.75, TIME, &mut got);
                    let want = diag_by_vm(jcp, &vars, &d, 0.75);
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
