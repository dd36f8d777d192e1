//! Numeric-safety abstract interpretation over the interval domain.
//!
//! Seeds every entity the kernels read from its declared physical range
//! ([`crate::problem::Problem::declare_range`]) and abstractly executes
//! the kernels' statements — the compiled programs the `vm` tier runs and
//! the per-flat bound programs, through one walker — over
//! [`pbte_symbolic::Interval`] values with directed-rounding-safe outward
//! widening, proving for every flat index:
//!
//! * no operation produces NaN or infinity ([`rules::INTERVAL_NON_FINITE`]);
//! * no reciprocal is taken of an interval containing zero
//!   ([`rules::INTERVAL_DIV_BY_ZERO`]);
//! * `exp`/`log`/`sqrt`/`pow` stay inside their domains
//!   ([`rules::INTERVAL_DOMAIN`]).
//!
//! An entity read by a kernel without a declared range yields one
//! [`rules::INTERVAL_MISSING_RANGE`] warning and the proof is skipped —
//! silence is never possible, but huge conservative default ranges (and
//! the false alarms they would cause) are avoided.
//!
//! Array-coefficient loads and loop-index values are seeded with their
//! exact per-flat values, so the analysis is considerably tighter than a
//! whole-entity hull.
//!
//! The pass also derives the CFL-style step bound the paper's explicit
//! upwind scheme obeys — `dt · max|v| / min cell width ≤ 1`, with the
//! per-face advection speeds taken from the [`FluxLinearization`] and the
//! cell widths from [`HotGeometry`](crate::exec) — and warns
//! ([`rules::INTERVAL_CFL`]) when the scenario's `dt` exceeds it.

use super::{rules, Diagnostic, Severity};
use crate::bytecode::{
    coefficient_at, Alphabet, Func, Operand, RegExpr, RegStmt, Unbound, FACE_U1, FACE_U2, MAX_REGS,
};
use crate::exec::CompiledProblem;
use pbte_symbolic::{CmpOp, Interval, IntervalError};
use std::collections::{BTreeSet, HashMap};

/// Run the interval-domain safety checks for one compiled plan.
pub fn check_intervals(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) {
    let Some(env) = Env::build(cp, out) else {
        // Missing declarations were reported as warnings; the proof is
        // meaningless without seeds.
        check_cfl(cp, out);
        return;
    };
    let before = out.len();
    let coefficients = &cp.problem.registry.coefficients;
    for (kernel, program) in [("volume", &cp.volume), ("flux", &cp.flux)] {
        for flat in 0..cp.n_flat {
            let idx = &cp.idx_of_flat[flat];
            let location = || format!("{kernel} kernel (vm, flat {flat})");
            let leaf = |o: &Unbound| match o {
                Unbound::Reg(_) => unreachable!("registers are the walker's"),
                Unbound::K(k) => Interval::point(*k),
                Unbound::Var { var, .. } => env.vars[*var as usize],
                Unbound::Coef { coef, pattern } => {
                    Interval::point(coefficient_at(&coefficients[*coef as usize], pattern, idx))
                }
                Unbound::Index(slot) => Interval::point((idx[*slot as usize] + 1) as f64),
                Unbound::Dt => Interval::point(cp.problem.dt),
                Unbound::Time => env.time,
                Unbound::Face(input) => env.vars[(program.face_base + input) as usize],
            };
            if let Err(d) = run_stmts(&env, &program.stmts, MAX_REGS, leaf, &location) {
                out.push(d);
                break; // one offending flat per kernel is enough
            }
        }
    }
    // The row tier recomputes the same arithmetic from the same seeds;
    // re-running it when the vm tier already failed would only duplicate
    // the finding. When the vm tier is clean it proves the *bound*
    // programs (binding-time folding, folded operands) safe too: the
    // volume program's, and the flux's when Row/Native run it compiled.
    if out.len() == before {
        let leaf = |o: &Operand| match *o {
            Operand::Reg(_) => unreachable!("registers are the walker's"),
            Operand::K(k) => Interval::point(k),
            Operand::Load { var, .. } => env.vars[var as usize],
            Operand::Time => env.time,
        };
        'kernels: for (kind, name, _) in cp.lowered_kernels() {
            for flat in 0..cp.n_flat {
                let reg = cp.bind(kind, flat);
                let loc = || format!("{name} kernel (row, flat {flat})");
                if let Err(d) = run_stmts(&env, reg.stmts(), reg.n_regs(), leaf, &loc) {
                    out.push(d);
                    break 'kernels;
                }
            }
        }
    }
    check_cfl(cp, out);
}

// ---------------------------------------------------------------------------
// Seeding
// ---------------------------------------------------------------------------

struct Env {
    /// Range per variable id, then per face-input pseudo-variable of a
    /// bound flux program (`CELL1`/`CELL2` range over the unknown, the
    /// unit normal's components over `[-1, 1]`).
    vars: Vec<Interval>,
    /// Range per coefficient id (function coefficients; others are exact).
    fn_coefs: HashMap<usize, Interval>,
    /// `[0, dt * n_steps]`.
    time: Interval,
}

impl Env {
    /// Collect required ranges; emits one warning per missing entity and
    /// returns `None` when any is missing.
    fn build(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) -> Option<Env> {
        let registry = &cp.problem.registry;
        let declared: HashMap<&str, Interval> = cp
            .problem
            .ranges
            .iter()
            .map(|(name, lo, hi)| (name.as_str(), Interval::new(*lo, *hi)))
            .collect();
        let mut required: BTreeSet<String> = BTreeSet::new();
        for stmt in cp.volume.stmts.iter().chain(&cp.flux.stmts) {
            if let RegExpr::CoefFn { coef, .. } = stmt.expr {
                required.insert(registry.coefficients[coef as usize].name.clone());
            }
            for o in stmt.expr.operands() {
                match o {
                    Unbound::Var { var, .. } => {
                        required.insert(registry.variables[*var as usize].name.clone());
                    }
                    Unbound::Face(FACE_U1 | FACE_U2) => {
                        required.insert(registry.variables[cp.system.unknown].name.clone());
                    }
                    _ => {}
                }
            }
        }
        let mut complete = true;
        for name in &required {
            if !declared.contains_key(name.as_str()) {
                complete = false;
                out.push(Diagnostic {
                    severity: Severity::Warning,
                    rule: rules::INTERVAL_MISSING_RANGE,
                    entity: name.clone(),
                    location: "kernel bytecode".into(),
                    message: format!(
                        "the kernels read `{name}` but no physical range is \
                         declared (`declare_range`); interval safety not proven"
                    ),
                });
            }
        }
        if !complete {
            return None;
        }
        let mut vars: Vec<Interval> = registry
            .variables
            .iter()
            .map(|v| {
                declared
                    .get(v.name.as_str())
                    .copied()
                    // Unread variables never seed anything; a placeholder
                    // keeps indexing simple.
                    .unwrap_or(Interval::point(0.0))
            })
            .collect();
        let unknown = vars[cp.system.unknown];
        vars.extend([unknown, unknown]);
        vars.extend([Interval::new(-1.0, 1.0); 3]);
        let fn_coefs = registry
            .coefficients
            .iter()
            .enumerate()
            .filter_map(|(id, c)| {
                declared
                    .get(c.name.as_str())
                    .map(|interval| (id, *interval))
            })
            .collect();
        Some(Env {
            vars,
            fn_coefs,
            time: Interval::new(0.0, cp.problem.dt * cp.problem.n_steps as f64),
        })
    }
}

// ---------------------------------------------------------------------------
// Abstract execution
// ---------------------------------------------------------------------------

fn diag(rule: &'static str, location: String, message: String) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        rule,
        entity: String::new(),
        location,
        message,
    }
}

fn op_error(err: IntervalError, location: &dyn Fn() -> String, pc: usize) -> Diagnostic {
    let rule = match err {
        IntervalError::DivByZero => rules::INTERVAL_DIV_BY_ZERO,
        IntervalError::Domain(_) => rules::INTERVAL_DOMAIN,
    };
    diag(rule, format!("{}, op {pc}", location()), err.to_string())
}

fn finite_check(
    v: Interval,
    location: &dyn Fn() -> String,
    pc: usize,
) -> Result<Interval, Diagnostic> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(diag(
            rules::INTERVAL_NON_FINITE,
            format!("{}, op {pc}", location()),
            format!("result range {v} is not finite (overflow or NaN)"),
        ))
    }
}

fn func_interval(f: Func, x: Interval) -> Result<Interval, IntervalError> {
    Ok(match f {
        Func::Exp => x.exp(),
        Func::Log => x.log()?,
        Func::Sin => x.sin(),
        Func::Cos => x.cos(),
        Func::Sqrt => x.sqrt()?,
        Func::Abs => x.abs(),
        Func::Sinh => x.sinh(),
        Func::Cosh => x.cosh(),
        Func::Tanh => x.tanh(),
    })
}

fn cmp_interval(op: CmpOp, a: Interval, b: Interval) -> Interval {
    let (t, f) = (Interval::point(1.0), Interval::point(0.0));
    match op {
        CmpOp::Lt if a.hi < b.lo => t,
        CmpOp::Lt if a.lo >= b.hi => f,
        CmpOp::Le if a.hi <= b.lo => t,
        CmpOp::Le if a.lo > b.hi => f,
        CmpOp::Gt if a.lo > b.hi => t,
        CmpOp::Gt if a.hi <= b.lo => f,
        CmpOp::Ge if a.lo >= b.hi => t,
        CmpOp::Ge if a.hi < b.lo => f,
        CmpOp::Eq if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo => t,
        CmpOp::Eq if a.hi < b.lo || a.lo > b.hi => f,
        _ => Interval::new(0.0, 1.0),
    }
}

fn select_interval(test: Interval, if_true: Interval, if_false: Interval) -> Interval {
    if !test.contains_zero() {
        if_true
    } else if test.lo == 0.0 && test.hi == 0.0 {
        if_false
    } else {
        if_true.hull(if_false)
    }
}

/// Abstractly execute one statement list over a file of `n_regs`
/// registers, every non-register operand valued by `leaf`. `location` is
/// only rendered for a finding.
fn run_stmts<O: Alphabet>(
    env: &Env,
    stmts: &[RegStmt<O>],
    n_regs: usize,
    leaf: impl Fn(&O) -> Interval,
    location: &dyn Fn() -> String,
) -> Result<(), Diagnostic> {
    let mut regs: Vec<Interval> = vec![Interval::point(0.0); n_regs];
    for (pc, stmt) in stmts.iter().enumerate() {
        let operand = |o: &O| match o.reg() {
            Some(r) => regs[r as usize],
            None => leaf(o),
        };
        let fails = |e| op_error(e, location, pc);
        let value = match &stmt.expr {
            RegExpr::Copy(a) => operand(a),
            RegExpr::CoefFn { coef, .. } => env.fn_coefs[&(*coef as usize)],
            RegExpr::Add([a, b]) => operand(a).add(operand(b)),
            RegExpr::Mul([a, b]) => operand(a).mul(operand(b)),
            RegExpr::Pow([a, b]) => operand(a).pow(operand(b)).map_err(fails)?,
            RegExpr::Recip(a) => operand(a).recip().map_err(fails)?,
            RegExpr::Call(f, a) => func_interval(*f, operand(a)).map_err(fails)?,
            RegExpr::Cmp(op, [a, b]) => cmp_interval(*op, operand(a), operand(b)),
            RegExpr::Select([t, a, b]) => select_interval(operand(t), operand(a), operand(b)),
        };
        regs[stmt.dst as usize] = finite_check(value, location, pc)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CFL-style step bound
// ---------------------------------------------------------------------------

/// The derived explicit-stepping bound: `dt ≤ width_min / vmax`.
#[derive(Debug, Clone, Copy)]
pub struct CflBound {
    /// Largest per-unit-area advection speed over all flats and normal
    /// classes (`max(|α|, |β|)` of the flux linearization).
    pub vmax: f64,
    /// Smallest effective cell width `V / A` over all cell faces.
    pub width_min: f64,
}

impl CflBound {
    /// Largest stable `dt` under the bound.
    pub fn dt_max(&self) -> f64 {
        self.width_min / self.vmax
    }
}

/// Derive the CFL-style bound for a plan. `None` when the flux does not
/// linearize (no advection speeds to bound) or is identically zero.
pub fn cfl_bound(cp: &CompiledProblem) -> Option<CflBound> {
    let lin = cp.flux_lin.as_ref()?;
    let vmax = lin
        .alpha
        .iter()
        .chain(&lin.beta)
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    if vmax == 0.0 {
        return None;
    }
    let hot = &cp.hot;
    let n_cells = cp.mesh().n_cells();
    let mut width_min = f64::INFINITY;
    for cell in 0..n_cells {
        let (s, e) = (hot.offsets[cell] as usize, hot.offsets[cell + 1] as usize);
        for k in s..e {
            let width = 1.0 / (hot.inv_volume[cell] * hot.area[k]);
            width_min = width_min.min(width);
        }
    }
    if !width_min.is_finite() {
        return None;
    }
    Some(CflBound { vmax, width_min })
}

/// Accuracy-driven Courant multiple for the unconditionally stable
/// integrators. Backward Euler (θ ≥ ½) damps every mode for any `dt > 0`,
/// so `dt = auto` is free to step far past the stability wall; a fixed
/// multiple of the CFL bound keeps the per-step linearization error small
/// relative to the transient being resolved while cutting the step count
/// by the same factor.
pub const ACCURACY_COURANT: f64 = 50.0;

/// What `dt = auto` should pick for this plan, and why.
#[derive(Debug, Clone, Copy)]
pub struct DtRecommendation {
    /// The recommended step.
    pub dt: f64,
    /// Policy tag: `"cfl"` (stability-limited explicit stepping) or
    /// `"accuracy"` (unconditionally stable integrator, accuracy-scaled).
    pub policy: &'static str,
    /// The underlying CFL-style bound.
    pub bound: CflBound,
}

/// Recommend a step for `dt = auto`: the CFL bound itself for explicit
/// stepping, [`ACCURACY_COURANT`]× the bound when the integrator is
/// unconditionally stable. `None` when no bound can be derived.
pub fn recommend_dt(cp: &CompiledProblem) -> Option<DtRecommendation> {
    let bound = cfl_bound(cp)?;
    if cp.problem.integrator.unconditionally_stable() {
        Some(DtRecommendation {
            dt: bound.dt_max() * ACCURACY_COURANT,
            policy: "accuracy",
            bound,
        })
    } else {
        Some(DtRecommendation {
            dt: bound.dt_max(),
            policy: "cfl",
            bound,
        })
    }
}

fn check_cfl(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) {
    if cp.problem.integrator.unconditionally_stable() {
        // No stability wall to police: for θ ≥ ½ and pseudo-transient
        // stepping the CFL bound is an accuracy guideline consumed by
        // `recommend_dt`, not a requirement.
        return;
    }
    let Some(bound) = cfl_bound(cp) else { return };
    let dt = cp.problem.dt;
    if dt > bound.dt_max() {
        out.push(Diagnostic {
            severity: Severity::Warning,
            rule: rules::INTERVAL_CFL,
            entity: cp.system.unknown_name.clone(),
            location: "time integration".into(),
            message: format!(
                "dt {dt:.3e} exceeds the CFL-style bound {:.3e} \
                 (max|v| {:.3e}, min cell width {:.3e})",
                bound.dt_max(),
                bound.vmax,
                bound.width_min
            ),
        });
    }
}
