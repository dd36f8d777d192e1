//! The symbolic pipeline: DSL input string → discrete update system.
//!
//! Reproduces the processing stages §II of the paper walks through for
//! `conservationForm(u, "-k*u - surface(upwind(b, u))")`:
//!
//! 1. parse the input into a symbolic expression;
//! 2. expand custom operators — `upwind(v, u)` becomes the flux-limited
//!    conditional on the sign of `v·n`, introducing the `NORMAL_i`,
//!    `CELL1`/`CELL2` markers of the paper's expanded listing;
//! 3. distribute products over sums and classify terms into the paper's
//!    groups: **LHS volume** (unknown at the new time), **RHS volume**
//!    (known volume terms), **RHS surface** (known flux terms);
//! 4. apply the explicit time-integration transform (forward Euler here;
//!    RK2 composes the same transform twice), producing the per-cell
//!    update `u' = u + dt·(s(u) − (1/V)·Σ_f A_f·f(u))` of Eq. 3.
//!
//! The output [`DiscreteSystem`] carries the volume expression `s`, the
//! per-face flux integrand `f·n`, the paper-style expanded symbolic form
//! for rendering, and the classified term groups.

use crate::analysis::Diagnostic;
use crate::entities::Registry;
use crate::problem::Problem;
use pbte_symbolic::expr::{CmpOp, Expr, ExprRef};
use pbte_symbolic::simplify::expand;
use pbte_symbolic::{parse, simplify, subs};
use std::sync::Arc as Rc;

/// Classified symbolic terms, mirroring the paper's §II listing.
#[derive(Debug, Clone)]
pub struct TermGroups {
    /// Terms containing the unknown at the new time (for explicit methods,
    /// exactly `[-u]`).
    pub lhs_volume: Vec<ExprRef>,
    /// Known volume terms of the time-discretized equation.
    pub rhs_volume: Vec<ExprRef>,
    /// Known surface terms of the time-discretized equation.
    pub rhs_surface: Vec<ExprRef>,
}

/// The discretized system produced by the pipeline.
#[derive(Debug, Clone)]
pub struct DiscreteSystem {
    /// Unknown variable id.
    pub unknown: usize,
    /// Unknown variable name.
    pub unknown_name: String,
    /// Volume source terms `s(u)` (old-time values).
    pub volume_expr: ExprRef,
    /// Per-face flux integrand `f(u)·n`, containing `NORMAL_i` and
    /// `CELL1(u)`/`CELL2(u)` markers. Positive values are outflow through
    /// the face as seen from the owner side.
    pub flux_expr: ExprRef,
    /// The paper-style expanded symbolic form
    /// (`-TIMEDERIVATIVE*u + ... - SURFACE*...`).
    pub expanded_form: ExprRef,
    /// Classified groups after the time transform.
    pub groups: TermGroups,
    /// Variable ids referenced by the equation (including the unknown).
    pub read_variables: Vec<usize>,
    /// Coefficient ids referenced by the equation.
    pub read_coefficients: Vec<usize>,
}

/// Run the pipeline for `problem`'s equation on variable `var`.
pub fn analyze(problem: &Problem, var: usize, src: &str) -> Result<DiscreteSystem, Diagnostic> {
    let registry = &problem.registry;
    let unknown_name = registry.variables[var].name.clone();

    let parsed = parse(src)?;

    // Stage 2a: vector coefficients become explicit component vectors.
    let with_vectors = expand_vector_coefficients(&parsed, problem);

    // Stage 2b: user-defined operators first ("the ability to define and
    // import any custom symbolic operator"), then the built-in upwind.
    let with_custom = expand_custom_operators(&with_vectors, problem, &unknown_name)?;
    let expanded_ops = expand_upwind(&with_custom, &unknown_name, problem.dim)?;

    // Validate every symbol before going further.
    validate_symbols(&expanded_ops, registry, &unknown_name)?;

    // Stage 3: distribute and split off surface terms.
    let distributed = expand(&expanded_ops);
    let terms = match distributed.as_ref() {
        Expr::Add(ts) => ts.clone(),
        _ => vec![distributed.clone()],
    };
    let mut volume_terms: Vec<ExprRef> = Vec::new();
    let mut flux_terms: Vec<ExprRef> = Vec::new();
    for term in &terms {
        if term.contains_call("surface") {
            flux_terms.push(extract_surface(term)?);
        } else {
            volume_terms.push(Rc::clone(term));
        }
    }

    let volume_expr = simplify(&Expr::add(volume_terms.clone()));
    let flux_expr = simplify(&Expr::add(flux_terms.clone()));

    // Paper-style expanded form: -TIMEDERIVATIVE*u + rhs with surface(x)
    // replaced by SURFACE*x.
    let u_sym = unknown_symbol(registry, var);
    let surface_marked = subs::replace_call(&expanded_ops, "surface", &mut |args| {
        Expr::mul(vec![Expr::sym("SURFACE"), Rc::clone(&args[0])])
    });
    let expanded_form = simplify(&Expr::add(vec![
        Expr::mul(vec![
            Expr::num(-1.0),
            Expr::sym("TIMEDERIVATIVE"),
            Rc::clone(&u_sym),
        ]),
        surface_marked,
    ]));

    // Stage 4: forward-Euler groups (Eq. 2 of the paper). The RHS keeps the
    // old-time unknown; dt scales every known term.
    let dt = Expr::sym("dt");
    let mut rhs_volume = vec![Rc::clone(&u_sym)];
    for t in &volume_terms {
        rhs_volume.push(simplify(&Expr::mul(vec![dt.clone(), Rc::clone(t)])));
    }
    let rhs_surface = flux_terms
        .iter()
        .map(|t| simplify(&Expr::mul(vec![Expr::num(-1.0), dt.clone(), Rc::clone(t)])))
        .collect();
    let groups = TermGroups {
        lhs_volume: vec![simplify(&Expr::neg(Rc::clone(&u_sym)))],
        rhs_volume,
        rhs_surface,
    };

    // Referenced entities.
    let mut read_variables = Vec::new();
    let mut read_coefficients = Vec::new();
    for name in distributed.symbol_names() {
        if let Some(v) = registry.variable_id(&name) {
            if !read_variables.contains(&v) {
                read_variables.push(v);
            }
        } else if let Some(c) = registry.coefficient_id(&name) {
            if !read_coefficients.contains(&c) {
                read_coefficients.push(c);
            }
        }
    }

    Ok(DiscreteSystem {
        unknown: var,
        unknown_name,
        volume_expr,
        flux_expr,
        expanded_form,
        groups,
        read_variables,
        read_coefficients,
    })
}

/// Fold what [`analyze`] (and [`jvp_system`] after it) reads of `problem`
/// into a plan key: the unknown and the equation text, the dimension the
/// `upwind` expansion is written for, the vector coefficients and the
/// registry the symbols resolve against. `None` when the problem registers
/// a custom operator: its expander is a closure, so what the equation
/// expands to cannot be named by content.
pub(crate) fn fold_inputs(problem: &Problem, d: &mut pbte_mesh::Digest) -> Option<()> {
    let (var, src) = problem.equation.as_ref()?;
    if !problem.custom_operators.is_empty() {
        return None;
    }
    d.size(*var);
    d.str(src);
    d.size(problem.dim);
    d.size(problem.vector_coefficients.len());
    for (name, components) in &problem.vector_coefficients {
        d.str(name);
        d.sizes(components);
    }
    problem.registry.fold(d);
    Some(())
}

/// Derive the Jacobian-vector-product system of an analyzed system.
///
/// The result is a [`DiscreteSystem`] whose volume and flux expressions
/// evaluate `J·v` — the directional derivative of the spatial RHS — with
/// the direction vector `v` riding in the unknown's storage slot. It is
/// produced purely symbolically (via [`pbte_symbolic::diff_wrt`], which
/// targets the *indexed* unknown and the `CELL1`/`CELL2` flux markers
/// structurally) and then lowered through the ordinary pipeline: the JVP
/// is just another program, so every kernel tier, every executor and the
/// whole translation-validation chain apply to it unchanged.
///
/// Requirements, checked here and reported as `dsl/expression` diagnostics:
/// * every ∂(volume)/∂u and ∂(flux)/∂CELLᵢ coefficient must be free of
///   `D_<f>` markers (a non-analyzable nesting such as `f(u)` with `f`
///   unknown) and of the flux markers themselves (second derivatives);
/// * the flux integrand may reference the unknown only through
///   `CELL1(u)`/`CELL2(u)` — a bare `u` inside `surface(...)` has no
///   face-local derivative.
pub fn jvp_system(
    problem: &Problem,
    system: &DiscreteSystem,
) -> Result<DiscreteSystem, Diagnostic> {
    use pbte_symbolic::diff_wrt;
    let registry = &problem.registry;
    let u_sym = unknown_symbol(registry, system.unknown);
    let cell1 = Expr::call("CELL1", vec![Rc::clone(&u_sym)]);
    let cell2 = Expr::call("CELL2", vec![Rc::clone(&u_sym)]);

    // Volume linearization: jvp_vol = (∂s/∂u)·v, with v in u's slot.
    let dvol = diff_wrt(&system.volume_expr, &u_sym);
    check_linearization(&dvol, "volume term ∂s/∂u")?;
    let jvp_volume = simplify(&Expr::mul(vec![Rc::clone(&dvol), Rc::clone(&u_sym)]));

    // Flux linearization: the integrand depends on the unknown only via
    // the owner/neighbor markers, each of which is an independent input.
    if contains_bare_unknown(&system.flux_expr, &u_sym) {
        return Err(Diagnostic::dsl_expression(format!(
            "cannot linearize the flux for an implicit integrator: `{}` \
             appears in a surface term outside CELL1/CELL2",
            registry.variables[system.unknown].name
        )));
    }
    let d1 = diff_wrt(&system.flux_expr, &cell1);
    let d2 = diff_wrt(&system.flux_expr, &cell2);
    check_linearization(&d1, "flux term ∂f/∂CELL1")?;
    check_linearization(&d2, "flux term ∂f/∂CELL2")?;
    let jvp_flux = simplify(&Expr::add(vec![
        Expr::mul(vec![Rc::clone(&d1), Rc::clone(&cell1)]),
        Expr::mul(vec![Rc::clone(&d2), Rc::clone(&cell2)]),
    ]));

    // Groups in the exact shape `analyze` produces, so the IR-level
    // consistency obligations (`translation/ir-mismatch`) hold verbatim:
    // Σ rhs_volume ≡ u + dt·volume, Σ rhs_surface ≡ −dt·flux, lhs ≡ −u.
    let dt = Expr::sym("dt");
    let mut rhs_volume = vec![Rc::clone(&u_sym)];
    if !jvp_volume.is_num(0.0) {
        rhs_volume.push(simplify(&Expr::mul(vec![
            dt.clone(),
            Rc::clone(&jvp_volume),
        ])));
    }
    let rhs_surface = if jvp_flux.is_num(0.0) {
        Vec::new()
    } else {
        vec![simplify(&Expr::mul(vec![
            Expr::num(-1.0),
            dt.clone(),
            Rc::clone(&jvp_flux),
        ]))]
    };
    let groups = TermGroups {
        lhs_volume: vec![simplify(&Expr::neg(Rc::clone(&u_sym)))],
        rhs_volume,
        rhs_surface,
    };
    let expanded_form = simplify(&Expr::add(vec![
        Expr::mul(vec![
            Expr::num(-1.0),
            Expr::sym("TIMEDERIVATIVE"),
            Rc::clone(&u_sym),
        ]),
        Rc::clone(&jvp_volume),
        Expr::mul(vec![Expr::sym("SURFACE"), Rc::clone(&jvp_flux)]),
    ]));

    // Referenced entities of the derivative programs. The unknown slot is
    // always read (it carries the direction vector).
    let mut read_variables = vec![system.unknown];
    let mut read_coefficients = Vec::new();
    let combined = Expr::add(vec![Rc::clone(&jvp_volume), Rc::clone(&jvp_flux)]);
    for name in combined.symbol_names() {
        if let Some(v) = registry.variable_id(&name) {
            if !read_variables.contains(&v) {
                read_variables.push(v);
            }
        } else if let Some(c) = registry.coefficient_id(&name) {
            if !read_coefficients.contains(&c) {
                read_coefficients.push(c);
            }
        }
    }

    Ok(DiscreteSystem {
        unknown: system.unknown,
        unknown_name: system.unknown_name.clone(),
        volume_expr: jvp_volume,
        flux_expr: jvp_flux,
        expanded_form,
        groups,
        read_variables,
        read_coefficients,
    })
}

/// Reject derivative coefficients carrying `D_<f>` markers (unknown-call
/// chain rule residue) or the flux markers themselves.
fn check_linearization(d: &ExprRef, what: &str) -> Result<(), Diagnostic> {
    let mut bad: Option<String> = None;
    d.visit(&mut |node| {
        if let Expr::Call { name, .. } = node {
            if bad.is_none() && (name.starts_with("D_") || name == "CELL1" || name == "CELL2") {
                bad = Some(name.clone());
            }
        }
    });
    match bad {
        Some(name) => Err(Diagnostic::dsl_expression(format!(
            "cannot linearize for an implicit integrator: {what} contains `{name}` \
             (the dependence on the unknown is not symbolically analyzable)"
        ))),
        None => Ok(()),
    }
}

/// Does the flux integrand reference the unknown outside the
/// `CELL1`/`CELL2` markers? (Inside them is fine — that is the analyzable
/// face-local dependence.)
fn contains_bare_unknown(e: &ExprRef, u_sym: &ExprRef) -> bool {
    if e.structurally_eq(u_sym) {
        return true;
    }
    match e.as_ref() {
        Expr::Num(_) | Expr::Sym { .. } => false,
        Expr::Add(v) | Expr::Mul(v) | Expr::Vector(v) => {
            v.iter().any(|x| contains_bare_unknown(x, u_sym))
        }
        Expr::Pow(b, x) => contains_bare_unknown(b, u_sym) || contains_bare_unknown(x, u_sym),
        Expr::Call { name, args } => {
            if name == "CELL1" || name == "CELL2" {
                false
            } else {
                args.iter().any(|x| contains_bare_unknown(x, u_sym))
            }
        }
        Expr::Cmp(_, a, b) => contains_bare_unknown(a, u_sym) || contains_bare_unknown(b, u_sym),
        Expr::Conditional {
            test,
            if_true,
            if_false,
        } => {
            contains_bare_unknown(test, u_sym)
                || contains_bare_unknown(if_true, u_sym)
                || contains_bare_unknown(if_false, u_sym)
        }
    }
}

/// The unknown with its declared index subscripts, e.g. `I[d,b]`.
pub(crate) fn unknown_symbol(registry: &Registry, var: usize) -> ExprRef {
    let v = &registry.variables[var];
    let subs: Vec<ExprRef> = v
        .indices
        .iter()
        .map(|&i| Expr::sym(registry.indices[i].name.clone()))
        .collect();
    if subs.is_empty() {
        Expr::sym(v.name.clone())
    } else {
        Expr::sym_indexed(v.name.clone(), subs)
    }
}

/// Replace bare symbols naming vector coefficients with component vectors.
fn expand_vector_coefficients(e: &ExprRef, problem: &Problem) -> ExprRef {
    if problem.vector_coefficients.is_empty() {
        return Rc::clone(e);
    }
    e.map(&mut |node| {
        if let Expr::Sym { name, indices } = node.as_ref() {
            if indices.is_empty() {
                if let Some((_, comps)) =
                    problem.vector_coefficients.iter().find(|(n, _)| n == name)
                {
                    let components = comps
                        .iter()
                        .map(|&c| Expr::sym(problem.registry.coefficients[c].name.clone()))
                        .collect();
                    return Expr::vector(components);
                }
            }
        }
        node
    })
}

/// Run every registered custom-operator expander over the expression.
fn expand_custom_operators(
    e: &ExprRef,
    problem: &Problem,
    unknown: &str,
) -> Result<ExprRef, Diagnostic> {
    if problem.custom_operators.is_empty() {
        return Ok(Rc::clone(e));
    }
    let op_ctx = crate::problem::OperatorContext {
        dim: problem.dim,
        unknown: unknown.to_string(),
    };
    let mut current = Rc::clone(e);
    for (name, expander) in &problem.custom_operators {
        let mut error: Option<String> = None;
        current = subs::replace_call(&current, name, &mut |args| match expander(args, &op_ctx) {
            Ok(replacement) => replacement,
            Err(msg) => {
                error = Some(msg);
                Expr::num(0.0)
            }
        });
        if let Some(msg) = error {
            return Err(Diagnostic::dsl_expression(format!(
                "operator `{name}`: {msg}"
            )));
        }
    }
    Ok(current)
}

/// Expand `upwind(v, u)` into the paper's conditional form:
/// `conditional(v·n > 0, (v·n)*CELL1(u), (v·n)*CELL2(u))`.
fn expand_upwind(e: &ExprRef, unknown: &str, dim: usize) -> Result<ExprRef, Diagnostic> {
    let mut error: Option<Diagnostic> = None;
    let out = subs::replace_call(e, "upwind", &mut |args| {
        if args.len() != 2 {
            error = Some(Diagnostic::dsl_expression(format!(
                "upwind takes (velocity, unknown), got {} arguments",
                args.len()
            )));
            return Expr::num(0.0);
        }
        let components: Vec<ExprRef> = match args[0].as_ref() {
            Expr::Vector(c) => c.clone(),
            // A scalar first argument is treated as a 1-component vector
            // only in 1-D; otherwise it is an error.
            _ if dim == 1 => vec![Rc::clone(&args[0])],
            _ => {
                error = Some(Diagnostic::dsl_expression(
                    "upwind velocity must be a vector (e.g. [Sx[d];Sy[d]])",
                ));
                return Expr::num(0.0);
            }
        };
        if components.len() != dim {
            error = Some(Diagnostic::dsl_expression(format!(
                "upwind velocity has {} components in a {dim}-D problem",
                components.len()
            )));
            return Expr::num(0.0);
        }
        match args[1].as_sym() {
            Some((name, _)) if name == unknown => {}
            _ => {
                error = Some(Diagnostic::dsl_expression(format!(
                    "upwind's second argument must be the unknown `{unknown}`"
                )));
                return Expr::num(0.0);
            }
        }
        let vn = Expr::add(
            components
                .iter()
                .enumerate()
                .map(|(k, c)| Expr::mul(vec![Rc::clone(c), Expr::sym(format!("NORMAL_{}", k + 1))]))
                .collect(),
        );
        Expr::conditional(
            Expr::cmp(CmpOp::Gt, vn.clone(), Expr::num(0.0)),
            Expr::mul(vec![
                vn.clone(),
                Expr::call("CELL1", vec![Rc::clone(&args[1])]),
            ]),
            Expr::mul(vec![vn, Expr::call("CELL2", vec![Rc::clone(&args[1])])]),
        )
    });
    match error {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Extract the integrand from a term of the form `c * surface(inner)`.
fn extract_surface(term: &ExprRef) -> Result<ExprRef, Diagnostic> {
    match term.as_ref() {
        Expr::Call { name, args } if name == "surface" => {
            if args.len() != 1 {
                return Err(Diagnostic::dsl_expression(
                    "surface takes exactly one argument",
                ));
            }
            Ok(Rc::clone(&args[0]))
        }
        Expr::Mul(factors) => {
            let mut inner: Option<ExprRef> = None;
            let mut outer: Vec<ExprRef> = Vec::new();
            for f in factors {
                match f.as_ref() {
                    Expr::Call { name, args } if name == "surface" => {
                        if inner.is_some() {
                            return Err(Diagnostic::dsl_expression(
                                "multiple surface() factors in one term",
                            ));
                        }
                        if args.len() != 1 {
                            return Err(Diagnostic::dsl_expression(
                                "surface takes exactly one argument",
                            ));
                        }
                        inner = Some(Rc::clone(&args[0]));
                    }
                    _ if f.contains_call("surface") => {
                        return Err(Diagnostic::dsl_expression(
                            "surface() must appear as a direct factor of a term",
                        ));
                    }
                    _ => outer.push(Rc::clone(f)),
                }
            }
            let inner = inner.ok_or_else(|| {
                Diagnostic::dsl_expression("term marked as surface but no surface() factor")
            })?;
            outer.push(inner);
            Ok(Expr::mul(outer))
        }
        _ => Err(Diagnostic::dsl_expression(
            "surface() must appear as a direct factor of a term",
        )),
    }
}

/// Check every symbol resolves to an index, variable, coefficient, or a
/// reserved marker, and that subscripts match declarations.
fn validate_symbols(e: &ExprRef, registry: &Registry, unknown: &str) -> Result<(), Diagnostic> {
    let mut problem: Option<String> = None;
    e.visit(&mut |node| {
        if problem.is_some() {
            return;
        }
        if let Expr::Sym { name, indices } = node {
            let reserved = name == "dt"
                || name == "t"
                || name == "pi"
                || name.starts_with("NORMAL_")
                || name == "SURFACE"
                || name == "TIMEDERIVATIVE";
            if reserved {
                return;
            }
            let declared: Option<&[usize]> = registry
                .variable_id(name)
                .map(|v| registry.variables[v].indices.as_slice())
                .or_else(|| {
                    registry
                        .coefficient_id(name)
                        .map(|c| registry.coefficients[c].indices.as_slice())
                });
            if let Some(decl) = declared {
                if indices.len() != decl.len() {
                    problem = Some(format!(
                        "`{name}` used with {} subscript(s) but declared with {}",
                        indices.len(),
                        decl.len()
                    ));
                    return;
                }
                for sub in indices {
                    let ok = match sub.as_ref() {
                        Expr::Sym { name: s, indices } if indices.is_empty() => {
                            registry.index_id(s).is_some()
                        }
                        Expr::Num(v) => v.fract() == 0.0 && *v >= 1.0,
                        _ => false,
                    };
                    if !ok {
                        problem = Some(format!(
                            "subscript of `{name}` must be an index symbol or literal"
                        ));
                        return;
                    }
                }
            } else if registry.index_id(name).is_some() && indices.is_empty() {
                // A bare index used as a value: fine.
            } else {
                problem = Some(format!("unknown symbol `{name}` (unknown is `{unknown}`)"));
            }
        }
    });
    match problem {
        Some(msg) => Err(Diagnostic::dsl_expression(msg)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    /// The §II reaction–advection example.
    fn advection_problem() -> (Problem, usize) {
        let mut p = Problem::new("adv");
        p.domain(2);
        let u = p.variable("u", &[]);
        p.coefficient_scalar("k", 0.5);
        p.vector_coefficient("b", vec![1.0, 0.25]);
        p.conservation_form(u, "-k*u - surface(upwind(b, u))");
        (p, u)
    }

    /// The §III BTE equation.
    fn bte_problem() -> (Problem, usize) {
        let mut p = Problem::new("bte");
        p.domain(2);
        let d = p.index("d", 4);
        let b = p.index("b", 3);
        let i = p.variable("I", &[d, b]);
        let _io = p.variable("Io", &[b]);
        let _beta = p.variable("beta", &[b]);
        p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
        p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
        p.coefficient_array("vg", &[b], vec![3.0, 2.0, 1.0]);
        p.conservation_form(
            i,
            "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
        );
        (p, i)
    }

    #[test]
    fn advection_pipeline_matches_paper_structure() {
        let (p, _) = advection_problem();
        let sys = p.analyze().unwrap();
        // Volume: -k*u.
        assert!(sys.volume_expr.contains_symbol("k"));
        assert!(!sys.volume_expr.contains_call("surface"));
        // Flux: (negated) conditional on b·n with CELL1/CELL2.
        let mut saw_conditional = false;
        sys.flux_expr.visit(&mut |n| {
            if matches!(n, Expr::Conditional { .. }) {
                saw_conditional = true;
            }
        });
        assert!(saw_conditional);
        assert!(sys.flux_expr.contains_call("CELL1"));
        assert!(sys.flux_expr.contains_call("CELL2"));
        assert!(sys.flux_expr.contains_symbol("NORMAL_1"));
        assert!(sys.flux_expr.contains_symbol("NORMAL_2"));
        // Expanded form carries the paper's markers.
        assert!(sys.expanded_form.contains_symbol("TIMEDERIVATIVE"));
        assert!(sys.expanded_form.contains_symbol("SURFACE"));
        // Groups: LHS volume is -u; RHS volume has the old unknown and the
        // dt-scaled reaction term; RHS surface is the dt-scaled flux.
        assert_eq!(sys.groups.lhs_volume.len(), 1);
        assert!(sys.groups.lhs_volume[0].contains_symbol("u"));
        assert_eq!(sys.groups.rhs_volume.len(), 2);
        assert!(sys.groups.rhs_volume[1].contains_symbol("dt"));
        assert_eq!(sys.groups.rhs_surface.len(), 1);
        assert!(sys.groups.rhs_surface[0].contains_symbol("dt"));
    }

    #[test]
    fn bte_pipeline_extracts_flux_and_entities() {
        let (p, i) = bte_problem();
        let sys = p.analyze().unwrap();
        assert_eq!(sys.unknown, i);
        // Volume expr: (Io - I)*beta, no flux markers.
        assert!(sys.volume_expr.contains_symbol("Io"));
        assert!(sys.volume_expr.contains_symbol("beta"));
        assert!(!sys.volume_expr.contains_symbol("NORMAL_1"));
        // Flux expr: vg * conditional(S·n > 0, ...).
        assert!(sys.flux_expr.contains_symbol("vg"));
        assert!(sys.flux_expr.contains_symbol("Sx"));
        assert!(sys.flux_expr.contains_call("CELL1"));
        // Reads: I, Io, beta variables; Sx, Sy, vg coefficients.
        assert_eq!(sys.read_variables.len(), 3);
        assert_eq!(sys.read_coefficients.len(), 3);
    }

    #[test]
    fn unknown_symbols_are_rejected() {
        let mut p = Problem::new("bad");
        let u = p.variable("u", &[]);
        p.conservation_form(u, "-q*u");
        let err = p.analyze().unwrap_err();
        assert!(err.to_string().contains("unknown symbol `q`"));
    }

    #[test]
    fn subscript_arity_is_checked() {
        let mut p = Problem::new("bad");
        let d = p.index("d", 2);
        let u = p.variable("u", &[d]);
        p.conservation_form(u, "-u[d,d]");
        let err = p.analyze().unwrap_err();
        assert!(err.to_string().contains("subscript"));
    }

    #[test]
    fn upwind_dimension_mismatch_is_rejected() {
        let mut p = Problem::new("bad");
        p.domain(3);
        let u = p.variable("u", &[]);
        p.coefficient_scalar("cx", 1.0);
        p.coefficient_scalar("cy", 1.0);
        p.conservation_form(u, "-surface(upwind([cx;cy], u))");
        let err = p.analyze().unwrap_err();
        assert!(err.to_string().contains("components"));
    }

    #[test]
    fn upwind_requires_the_unknown() {
        let mut p = Problem::new("bad");
        let u = p.variable("u", &[]);
        let _w = p.variable("w", &[]);
        p.coefficient_scalar("cx", 1.0);
        p.coefficient_scalar("cy", 1.0);
        p.conservation_form(u, "-surface(upwind([cx;cy], w))");
        let err = p.analyze().unwrap_err();
        assert!(err.to_string().contains("unknown `u`"));
    }

    #[test]
    fn nested_surface_is_rejected() {
        let mut p = Problem::new("bad");
        let u = p.variable("u", &[]);
        p.coefficient_scalar("k", 1.0);
        p.conservation_form(u, "exp(surface(k*u))");
        assert!(p.analyze().is_err());
    }

    #[test]
    fn expanded_form_has_no_surface_calls_left() {
        let (p, _) = bte_problem();
        let sys = p.analyze().unwrap();
        assert!(!sys.expanded_form.contains_call("surface"));
        assert!(!sys.expanded_form.contains_call("upwind"));
        assert!(sys.expanded_form.contains_symbol("SURFACE"));
    }
}
