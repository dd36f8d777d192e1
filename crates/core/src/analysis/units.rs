//! Dimensional-analysis proof obligation over the SI dimension domain.
//!
//! Seeds every symbol in the discretized equation from its declared unit
//! ([`crate::problem::Problem::declare_unit`]) and infers dimensions over
//! [`pbte_symbolic::units`]'s abstract domain, proving:
//!
//! * every addition, comparison, `min`/`max`, and conditional combines
//!   operands of **equal** dimension, and every transcendental receives a
//!   **dimensionless** argument ([`rules::UNITS_MISMATCH`],
//!   [`rules::UNITS_TRANSCENDENTAL`]);
//! * the volume terms carry the dimension of `d(unknown)/dt` — the
//!   unknown's unit per second;
//! * the flux integrand carries the unknown's unit times velocity
//!   (`m/s`): the finite-volume surface operator contributes
//!   `(1/V)·∮ f dA`, dimensionally `[f]·m²/m³ = [f]/m`, which must again
//!   equal `[unknown]/s`.
//!
//! A symbol with no declared unit yields one
//! [`rules::UNITS_UNDECLARED`] warning and the proof is skipped for the
//! term that mentions it — mirroring how a missing range declaration is
//! handled by the interval pass. Material tables, scattering-rate
//! closures, and boundary callbacks are Rust code this pass does not
//! read; they enter the proof through the declared units of the entities
//! they populate (`I`, `Io`, `beta`, `T`), just as they enter the
//! transfer proof through the entities they declare.
//!
//! Pipeline-internal operators are given their transfer rules here: the
//! face samplers `CELL1`/`CELL2` pass their argument's dimension through,
//! the `NORMAL_k` face-normal components are dimensionless direction
//! cosines, and `t`/`dt` are seconds.

use super::{rules, Diagnostic, Severity};
use crate::exec::CompiledProblem;
use pbte_symbolic::units::{dim_eval, Dim, DimEvalError, InferredDim, UnitContext};
use pbte_symbolic::{Expr, ExprRef};
use std::collections::{BTreeSet, HashMap};

/// Resolves declared units plus the pipeline's built-in symbols.
struct ProblemUnits {
    declared: HashMap<String, Dim>,
}

impl ProblemUnits {
    fn builtin_dim(name: &str) -> Option<Dim> {
        match name {
            // Simulation time and the step size are seconds.
            "t" | "dt" => Some(Dim::base(2)),
            "pi" => Some(Dim::dimensionless()),
            // Face-normal components are direction cosines.
            _ if name.starts_with("NORMAL_") => Some(Dim::dimensionless()),
            _ => None,
        }
    }
}

impl UnitContext for ProblemUnits {
    fn symbol_dim(&self, name: &str) -> Option<Dim> {
        Self::builtin_dim(name).or_else(|| self.declared.get(name).copied())
    }

    fn call_dim(&self, name: &str, args: &[InferredDim]) -> Option<InferredDim> {
        // The upwind expansion's face samplers read the argument entity on
        // one or the other side of the face: dimension passes through.
        (matches!(name, "CELL1" | "CELL2") && args.len() == 1).then(|| args[0])
    }
}

/// Symbol names appearing in value position (index expressions hold
/// dimensionless loop counters and are skipped, matching `dim_eval`).
fn value_symbols(e: &ExprRef, out: &mut BTreeSet<String>) {
    match e.as_ref() {
        Expr::Num(_) => {}
        Expr::Sym { name, .. } => {
            out.insert(name.clone());
        }
        Expr::Add(items) | Expr::Mul(items) | Expr::Vector(items) => {
            for item in items {
                value_symbols(item, out);
            }
        }
        Expr::Pow(a, b) | Expr::Cmp(_, a, b) => {
            value_symbols(a, out);
            value_symbols(b, out);
        }
        Expr::Call { args, .. } => {
            for a in args {
                value_symbols(a, out);
            }
        }
        Expr::Conditional {
            test,
            if_true,
            if_false,
        } => {
            value_symbols(test, out);
            value_symbols(if_true, out);
            value_symbols(if_false, out);
        }
    }
}

fn eval_diag(err: DimEvalError, location: &str) -> Diagnostic {
    let (severity, rule, entity) = match &err {
        DimEvalError::UndeclaredSymbol(name) => {
            (Severity::Warning, rules::UNITS_UNDECLARED, name.clone())
        }
        DimEvalError::UnknownFunction(name) => {
            (Severity::Warning, rules::UNITS_UNDECLARED, name.clone())
        }
        DimEvalError::TranscendentalArg { func, .. } => {
            (Severity::Error, rules::UNITS_TRANSCENDENTAL, func.clone())
        }
        DimEvalError::Mismatch { .. }
        | DimEvalError::NonNumericExponent(_)
        | DimEvalError::FractionalPower(_) => {
            (Severity::Error, rules::UNITS_MISMATCH, String::new())
        }
    };
    Diagnostic {
        severity,
        rule,
        entity,
        location: location.to_string(),
        message: err.to_string(),
    }
}

/// Run the dimensional-analysis checks for one compiled plan.
///
/// Checks the discretized volume and flux expressions (everything the
/// kernels evaluate, after operator expansion), then discharges the
/// du/dt balance obligations against the unknown's declared unit.
pub fn check_units(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) {
    let ctx = ProblemUnits {
        declared: cp
            .problem
            .units
            .iter()
            .map(|(name, dim)| (name.clone(), *dim))
            .collect(),
    };

    // Missing declarations first, one warning per symbol across both
    // terms (mirrors the interval pass's missing-range treatment).
    let mut required = BTreeSet::new();
    value_symbols(&cp.system.volume_expr, &mut required);
    value_symbols(&cp.system.flux_expr, &mut required);
    let mut complete = true;
    for name in &required {
        if ctx.symbol_dim(name).is_none() {
            complete = false;
            out.push(Diagnostic {
                severity: Severity::Warning,
                rule: rules::UNITS_UNDECLARED,
                entity: name.clone(),
                location: "discretized equation".into(),
                message: format!(
                    "the equation mentions `{name}` but no unit is declared \
                     (`declare_unit`); dimensional consistency not proven"
                ),
            });
        }
    }
    if !complete {
        return;
    }

    let second = Dim::base(2);
    let expected_unknown = ctx.symbol_dim(&cp.system.unknown_name);

    for (term, expr, shift) in [
        // d(unknown)/dt balance: volume terms are [U]/s directly...
        ("volume", &cp.system.volume_expr, Dim::dimensionless()),
        // ...while the flux integrand picks up m/s: the surface operator
        // divides by cell volume and multiplies by face area (net 1/m).
        ("flux", &cp.system.flux_expr, Dim::base(0)),
    ] {
        let location = format!("{term} term of `{}`", cp.problem.name);
        let inferred = match dim_eval(expr, &ctx) {
            Ok(d) => d,
            Err(err) => {
                out.push(eval_diag(err, &location));
                continue;
            }
        };
        let Some(u) = expected_unknown else {
            // The unknown itself was undeclared: already warned above
            // (it appears in the equation) — the balance is unprovable.
            continue;
        };
        let expected = u.mul(shift).div(second);
        if !inferred.matches(&expected) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::UNITS_MISMATCH,
                entity: cp.system.unknown_name.clone(),
                location,
                message: format!(
                    "{term} term has dimension `{inferred}` but the \
                     d{u_name}/dt balance requires `{expected}` \
                     ([{u_name}]{}/s)",
                    if shift.is_dimensionless() { "" } else { "·m" },
                    u_name = cp.system.unknown_name,
                ),
            });
        }
    }
}
