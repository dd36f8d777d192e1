//! Translation validation: prove the lowering pipeline semantics-preserving.
//!
//! The compiler lowers one conservation-form equation through these
//! representations: the DSL term groups (after operator expansion and the
//! forward-Euler transform), the loop-nest IR, the compiled register
//! statements (`Program`, what the `vm` tier evaluates) and their per-flat
//! binding (`RegProgram`), which the Row tier interprets and the Native
//! tier prints as Rust source. This module re-extracts a symbolic
//! expression from every representation by abstract interpretation over
//! `pbte_symbolic` values and proves the chain DSL ≡ IR ≡ Reg ≡ bound Reg
//! equal link by link; Native prints the bound statements, so the last
//! link covers it. Both statement forms run through one symbolic walker
//! (`run`), each with its own operand resolver:
//!
//! * **DSL ≡ groups ≡ IR** ([`check_ir`]): the IR's `source = …` and
//!   `flux += faceArea * (…)` statements are parsed back and compared
//!   canonically against the analyzed `volume_expr`/`flux_expr`; the
//!   forward-Euler term groups are proven consistent
//!   (`Σ rhs_volume ≡ u + dt·volume`, `Σ rhs_surface ≡ −dt·flux`,
//!   `lhs_volume ≡ −u`); the per-dof update statement must be present
//!   verbatim.
//! * **DSL ≡ Reg** ([`check_vm`]): for every flat index, the compiled
//!   statements are executed over symbolic values (loads become indexed
//!   symbols with the flat's literal 1-based subscripts) and compared
//!   canonically against the DSL expression with the same indices
//!   substituted.
//! * **Reg ≡ bound Reg** ([`check_reg`]): the compiled statements are
//!   executed again under the fold [`Program::bind`] applies
//!   (coefficients, `dt` and index values become numbers, loads become
//!   offset-keyed symbols, `t` stays the symbol `t`, a function
//!   coefficient becomes its id-keyed symbol — one [`Binding`] describes
//!   both sides), the bound statements are executed with their operands
//!   in their order, and the two final values are compared
//!   **raw-structurally**. Raw (not canonical)
//!   equality is deliberate: canonical ordering would commute `k * load`
//!   back to `load * k` and mask exactly the operand order bugs this
//!   proof exists to catch (operand order decides NaN-payload
//!   propagation, so the tiers promise bitwise-equal results). A wrong
//!   load offset, folded constant or function coefficient fails the same
//!   comparison. A mismatch is pinned to the first bound statement
//!   computing a value the compiled statements never compute. The native
//!   tier runs this proof itself on every statement list before printing
//!   it, so a corrupted binding is rejected, never compiled.
//!
//! The binding link covers every program the executors run bound: the
//! volume program always, and the flux program on plans whose Row/Native
//! tiers run it compiled (no αβγ table). A bound flux program loads its
//! face inputs as pseudo-variables, so the same functions prove it with
//! five more symbols.
//!
//! Failures are structured [`Diagnostic`]s with stable rule ids
//! (`translation/ir-mismatch`, `translation/vm-mismatch` — its subject is
//! the program the `vm` tier runs — and `translation/reg-mismatch`)
//! pinpointing the tier and, where a statement list exists, the
//! statement.

use super::{rules, Diagnostic, Severity};
use crate::bytecode::{
    Alphabet, Binding, CoefFnPtr, Operand, Program, RegExpr, RegProgram, RegStmt, Unbound,
    FACE_NORMAL, FACE_U1, FACE_U2, MAX_REGS,
};
use crate::entities::{CoefficientValue, Registry};
use crate::exec::{CompiledProblem, ExecTarget};
use crate::ir::{self, IrNode};
use crate::pipeline::unknown_symbol;
use pbte_symbolic::simplify::canonical_eq;
use pbte_symbolic::{parse, substitute, substitute_indices, Expr, ExprRef, SubstitutionMap};
use std::collections::HashMap;
use std::sync::Arc;

/// Run the whole translation-validation chain for one compiled plan.
/// When the plan carries a derived JVP plan (implicit integrators), the
/// chain is also run over it — see [`check_jvp`].
pub fn check_translation(cp: &CompiledProblem, target: &ExecTarget, out: &mut Vec<Diagnostic>) {
    let ir = ir::build_ir(cp, target);
    check_ir(cp, &ir, out);
    check_vm(cp, out);
    check_lowered(cp, &Program::bind, out);
    check_jvp(cp, target, out);
    // The wall lowering, exhaustively: every (face, flat) of both plans
    // against its closure (`verify_plan` probes one face per wall normal).
    super::check_boundary_forms(cp, true, out);
}

/// Translation validation of the derived Jacobian-vector-product plan.
///
/// Two seams are proven:
///
/// 1. **Derivation**: the linearized system attached to the plan must
///    canonically equal a fresh symbolic linearization of the primal
///    equation ([`crate::pipeline::jvp_system`]) — a stale or tampered
///    JVP would make every Newton step solve the wrong linear system
///    while still converging on trivial problems.
/// 2. **Lowering**: the JVP plan is itself a full compiled plan, so the
///    whole translation chain is re-run over it.
///
/// Findings from either seam are tagged `translation/jvp-mismatch` with a
/// `jvp:`-prefixed location so consumers can attribute them to the
/// linearization pipeline rather than the primal lowering.
pub fn check_jvp(cp: &CompiledProblem, target: &ExecTarget, out: &mut Vec<Diagnostic>) {
    let Some(jcp) = cp.jvp.as_deref() else { return };
    let mut inner = Vec::new();

    match crate::pipeline::jvp_system(&cp.problem, &cp.system) {
        Ok(expected) => {
            for (got, want, what) in [
                (
                    &jcp.system.volume_expr,
                    &expected.volume_expr,
                    "volume linearization",
                ),
                (
                    &jcp.system.flux_expr,
                    &expected.flux_expr,
                    "flux linearization",
                ),
            ] {
                if !canonical_eq(got, want) {
                    inner.push(Diagnostic {
                        severity: Severity::Error,
                        rule: rules::TRANSLATION_JVP,
                        entity: cp.system.unknown_name.clone(),
                        location: what.to_string(),
                        message: format!(
                            "attached JVP plan computes `{got}` but a fresh \
                             linearization of the primal equation gives `{want}`"
                        ),
                    });
                }
            }
        }
        Err(e) => inner.push(Diagnostic {
            severity: Severity::Error,
            rule: rules::TRANSLATION_JVP,
            entity: cp.system.unknown_name.clone(),
            location: "derivation".into(),
            message: format!(
                "a JVP plan is attached but the primal equation no longer \
                 linearizes: {e}"
            ),
        }),
    }

    // The JVP plan's own lowering chain (its integrator is Explicit, so
    // this does not recurse further).
    let mut lowering = Vec::new();
    check_translation(jcp, target, &mut lowering);
    inner.extend(lowering.into_iter().map(|mut d| {
        d.rule = rules::TRANSLATION_JVP;
        d
    }));

    out.extend(inner.into_iter().map(|mut d| {
        d.location = format!("jvp: {}", d.location);
        d
    }));
}

// ---------------------------------------------------------------------------
// DSL ≡ groups ≡ IR
// ---------------------------------------------------------------------------

/// Prove the IR tree and the forward-Euler term groups agree with the
/// analyzed DSL expressions. Takes the IR explicitly so negative tests can
/// seed tampered trees.
pub fn check_ir(cp: &CompiledProblem, ir_root: &IrNode, out: &mut Vec<Diagnostic>) {
    let sys = &cp.system;
    let u = unknown_symbol(&cp.problem.registry, sys.unknown);

    // Group consistency: the Euler transform must not have dropped or
    // duplicated a term.
    let rhs_volume = Expr::add(sys.groups.rhs_volume.clone());
    let euler_ref = Expr::add(vec![
        u.clone(),
        Expr::mul(vec![Expr::sym("dt"), sys.volume_expr.clone()]),
    ]);
    if !canonical_eq(&rhs_volume, &euler_ref) {
        out.push(ir_mismatch(
            "term groups",
            format!(
                "RHS-volume group sums to `{rhs_volume}` but forward Euler \
                 of the volume terms gives `{euler_ref}`"
            ),
        ));
    }
    let rhs_surface = Expr::add(sys.groups.rhs_surface.clone());
    let surface_ref = Expr::mul(vec![
        Expr::num(-1.0),
        Expr::sym("dt"),
        sys.flux_expr.clone(),
    ]);
    if !canonical_eq(&rhs_surface, &surface_ref) {
        out.push(ir_mismatch(
            "term groups",
            format!(
                "RHS-surface group sums to `{rhs_surface}` but `-dt * flux` \
                 gives `{surface_ref}`"
            ),
        ));
    }
    let lhs_volume = Expr::add(sys.groups.lhs_volume.clone());
    if !canonical_eq(&lhs_volume, &Expr::neg(u)) {
        out.push(ir_mismatch(
            "term groups",
            format!("LHS-volume group is `{lhs_volume}`, expected the negated unknown"),
        ));
    }

    // Statement consistency: every rendered source/flux statement in the
    // tree (host loop and GPU kernel body alike) must parse back to the
    // analyzed expression.
    let mut sources = 0usize;
    let mut fluxes = 0usize;
    let mut updates = 0usize;
    let update = ir::update_stmt(&sys.unknown_name);
    ir_root.visit(&mut |node| {
        let IrNode::Stmt(stmt) = node else { return };
        if let Some(body) = stmt.strip_prefix(ir::SOURCE_STMT_PREFIX) {
            sources += 1;
            check_stmt_expr(body, &sys.volume_expr, "source statement", out);
        } else if let Some(rest) = stmt.strip_prefix(ir::FLUX_STMT_PREFIX) {
            fluxes += 1;
            match rest.strip_suffix(ir::FLUX_STMT_SUFFIX) {
                Some(body) => check_stmt_expr(body, &sys.flux_expr, "flux statement", out),
                None => out.push(ir_mismatch(
                    "flux statement",
                    format!("malformed flux statement `{stmt}`"),
                )),
            }
        } else if *stmt == update {
            updates += 1;
        }
    });
    for (count, what) in [
        (sources, "`source = …` statement"),
        (fluxes, "`flux += …` statement"),
        (updates, "per-dof update statement"),
    ] {
        if count == 0 {
            out.push(ir_mismatch("ir tree", format!("the IR contains no {what}")));
        }
    }
}

fn check_stmt_expr(body: &str, expected: &ExprRef, what: &str, out: &mut Vec<Diagnostic>) {
    match parse(body) {
        Ok(e) => {
            if !canonical_eq(&e, expected) {
                out.push(ir_mismatch(
                    what,
                    format!("IR renders `{body}` but the DSL analysis produced `{expected}`"),
                ));
            }
        }
        Err(err) => out.push(ir_mismatch(
            what,
            format!("IR statement `{body}` does not parse back: {err}"),
        )),
    }
}

fn ir_mismatch(location: &str, message: String) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        rule: rules::TRANSLATION_IR,
        entity: String::new(),
        location: location.to_string(),
        message,
    }
}

// ---------------------------------------------------------------------------
// Symbolic execution of the statement forms
// ---------------------------------------------------------------------------

/// Decode a flattened entity index back to literal 1-based subscripts.
fn literal_subscripts(registry: &Registry, indices: &[usize], mut flat: usize) -> Vec<ExprRef> {
    let strides = registry.strides(indices);
    let mut subs = Vec::with_capacity(indices.len());
    for &stride in &strides {
        subs.push(Expr::num((flat / stride + 1) as f64));
        flat %= stride;
    }
    subs
}

fn entity_sym(registry: &Registry, name: &str, indices: &[usize], flat: usize) -> ExprRef {
    if indices.is_empty() {
        Expr::sym(name.to_string())
    } else {
        Expr::sym_indexed(
            name.to_string(),
            literal_subscripts(registry, indices, flat),
        )
    }
}

/// Execute one statement list over a symbolic file of `n_regs`
/// registers, every non-register operand valued by `leaf` and every
/// function-coefficient evaluation by `coef_fn`: the value of every
/// statement in order and the final value (`r0`) — or the statement (if
/// one) that could not run, and why.
fn run<O: Alphabet>(
    stmts: &[RegStmt<O>],
    n_regs: usize,
    leaf: impl Fn(&O) -> Result<ExprRef, String>,
    coef_fn: impl Fn(u16, &O::Fn) -> Result<ExprRef, String>,
) -> Execution {
    let mut regs: Vec<Option<ExprRef>> = vec![None; n_regs];
    let mut produced: Vec<ExprRef> = Vec::with_capacity(stmts.len());
    for (pc, stmt) in stmts.iter().enumerate() {
        let value = reg_step(stmt, &mut regs, &leaf, &coef_fn).map_err(|m| (Some(pc), m))?;
        produced.push(value);
    }
    match regs.first().cloned().flatten() {
        Some(result) => Ok((produced, result)),
        None => Err((None, "register program never writes r0".into())),
    }
}

/// Apply one statement over symbolic registers; returns the value written
/// to the destination.
fn reg_step<O: Alphabet>(
    stmt: &RegStmt<O>,
    regs: &mut [Option<ExprRef>],
    leaf: impl Fn(&O) -> Result<ExprRef, String>,
    coef_fn: impl Fn(u16, &O::Fn) -> Result<ExprRef, String>,
) -> Result<ExprRef, String> {
    let value = {
        let operand = |o: &O| -> Result<ExprRef, String> {
            match o.reg() {
                Some(r) => regs
                    .get(r as usize)
                    .cloned()
                    .flatten()
                    .ok_or_else(|| format!("register r{r} read before definition")),
                None => leaf(o),
            }
        };
        match &stmt.expr {
            RegExpr::Copy(a) => operand(a)?,
            RegExpr::CoefFn { coef, f } => coef_fn(*coef, f)?,
            RegExpr::Add([a, b]) => Expr::add(vec![operand(a)?, operand(b)?]),
            RegExpr::Mul([a, b]) => Expr::mul(vec![operand(a)?, operand(b)?]),
            RegExpr::Pow([a, b]) => Expr::pow(operand(a)?, operand(b)?),
            RegExpr::Recip(a) => Expr::pow(operand(a)?, Expr::num(-1.0)),
            RegExpr::Call(f, a) => Expr::call(f.name(), vec![operand(a)?]),
            RegExpr::Cmp(op, [a, b]) => Expr::cmp(*op, operand(a)?, operand(b)?),
            RegExpr::Select([t, a, b]) => Expr::conditional(operand(t)?, operand(a)?, operand(b)?),
        }
    };
    let dst = stmt.dst;
    let slot = regs
        .get_mut(dst as usize)
        .ok_or_else(|| format!("destination r{dst} outside register file"))?;
    *slot = Some(value.clone());
    Ok(value)
}

/// Placeholder symbol for a bound variable load; keyed by `(var, offset)`
/// so identical loads unify and different loads never do.
fn load_sym(var: u16, offset: usize) -> ExprRef {
    Expr::sym(format!("load#{var}@{offset}"))
}

/// Placeholder symbol for an evaluation of function coefficient `coef`:
/// keyed by id, so two different function coefficients never unify.
fn coef_fn_sym(coef: u16) -> ExprRef {
    Expr::sym(format!("coef_fn#{coef}"))
}

// ---------------------------------------------------------------------------
// DSL ≡ Reg
// ---------------------------------------------------------------------------

/// Prove the compiled programs compute the analyzed DSL expressions, for
/// every flat index.
pub fn check_vm(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) {
    let registry = &cp.problem.registry;
    let mut scalars: SubstitutionMap = SubstitutionMap::new();
    scalars.insert("pi".into(), Expr::num(std::f64::consts::PI));
    for c in &registry.coefficients {
        if let CoefficientValue::Scalar(v) = c.value {
            scalars.insert(c.name.clone(), Expr::num(v));
        }
    }
    let slots: Vec<&str> = registry.variables[cp.system.unknown]
        .indices
        .iter()
        .map(|&i| registry.indices[i].name.as_str())
        .collect();
    let coef_fn = |coef: u16, _: &()| {
        let name = &registry.coefficients[coef as usize].name;
        Ok(Expr::sym(name.clone()))
    };

    for (kernel, program, expected) in [
        ("volume", &cp.volume, &cp.system.volume_expr),
        ("flux", &cp.flux, &cp.system.flux_expr),
    ] {
        for flat in 0..cp.n_flat {
            let idx = &cp.idx_of_flat[flat];
            let location = format!("{kernel} kernel (vm, flat {flat})");
            let named = |o: &Unbound| -> Result<ExprRef, String> {
                Ok(match o {
                    Unbound::Reg(_) => unreachable!("registers are the walker's"),
                    Unbound::K(k) => Expr::num(*k),
                    Unbound::Var { var, pattern } => {
                        let v = &registry.variables[*var as usize];
                        entity_sym(registry, &v.name, &v.indices, pattern.flat(idx))
                    }
                    Unbound::Coef { coef, pattern } => {
                        let c = &registry.coefficients[*coef as usize];
                        entity_sym(registry, &c.name, &c.indices, pattern.flat(idx))
                    }
                    Unbound::Index(slot) => Expr::num((idx[*slot as usize] + 1) as f64),
                    Unbound::Dt => Expr::sym("dt"),
                    Unbound::Time => Expr::sym("t"),
                    Unbound::Face(input @ (FACE_U1 | FACE_U2)) => {
                        let u = &registry.variables[cp.system.unknown];
                        let subs: Vec<ExprRef> =
                            idx.iter().map(|&v| Expr::num((v + 1) as f64)).collect();
                        let arg = if subs.is_empty() {
                            Expr::sym(u.name.clone())
                        } else {
                            Expr::sym_indexed(u.name.clone(), subs)
                        };
                        let name = if *input == FACE_U1 { "CELL1" } else { "CELL2" };
                        Expr::call(name, vec![arg])
                    }
                    Unbound::Face(input) => {
                        Expr::sym(format!("NORMAL_{}", input - FACE_NORMAL + 1))
                    }
                })
            };
            let extracted = match run(&program.stmts, MAX_REGS, named, coef_fn) {
                Ok((_, value)) => value,
                Err((pc, msg)) => {
                    out.push(vm_mismatch(&at_stmt(&location, pc), msg));
                    break;
                }
            };
            let idx_map: HashMap<String, i64> = slots
                .iter()
                .zip(idx)
                .map(|(name, &v)| (name.to_string(), (v + 1) as i64))
                .collect();
            let reference = substitute(&substitute_indices(expected, &idx_map), &scalars);
            if !canonical_eq(&extracted, &reference) {
                out.push(vm_mismatch(
                    &location,
                    format!(
                        "compiled program computes `{extracted}` but the DSL \
                         expression specializes to `{reference}`"
                    ),
                ));
                break; // one offending flat per kernel is enough
            }
        }
    }
}

/// `location`, narrowed to statement `pc` when there is one.
fn at_stmt(location: &str, pc: Option<usize>) -> String {
    match pc {
        Some(pc) => format!("{location}, stmt {pc}"),
        None => location.to_string(),
    }
}

fn vm_mismatch(location: &str, message: String) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        rule: rules::TRANSLATION_VM,
        entity: String::new(),
        location: location.to_string(),
        message,
    }
}

// ---------------------------------------------------------------------------
// Reg ≡ bound Reg
// ---------------------------------------------------------------------------

/// Prove the binding of every bound kernel against its compiled program,
/// per flat. Production passes [`Program::bind`]; negative tests pass a
/// binding that tampers with its result, to prove the proof is
/// load-bearing. Stops at the first offending flat per kernel.
pub fn check_lowered(
    cp: &CompiledProblem,
    bind: &dyn Fn(&Program, &Binding) -> RegProgram,
    out: &mut Vec<Diagnostic>,
) {
    for (_, name, program) in cp.lowered_kernels() {
        for flat in 0..cp.n_flat {
            let binding = cp.binding(flat);
            let location = format!("{name} kernel (row, flat {flat})");
            let before = out.len();
            check_reg(program, &binding, &bind(program, &binding), &location, out);
            if out.len() != before {
                break;
            }
        }
    }
}

/// What a statement list computed: the value of every statement in order
/// and the final value — or the statement (if one) that could not run,
/// and why.
type Execution = Result<(Vec<ExprRef>, ExprRef), (Option<usize>, String)>;

pub(crate) fn reg_mismatch(location: &str, message: String) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        rule: rules::TRANSLATION_REG,
        entity: String::new(),
        location: location.to_string(),
        message,
    }
}

/// Prove one bound program raw-structurally equal to the execution of
/// `program`'s compiled statements under the fold `binding` describes —
/// the fold [`Program::bind`] performs, so a wrong load offset, folded
/// constant or function coefficient fails here as surely as a flipped
/// operand order. Raw, not canonical: canonical ordering would commute
/// `k * load` back to `load * k` and mask the operand-order bugs this
/// proof exists to catch. A mismatch is pinned to the first bound
/// statement whose value the compiled statements never compute. Public so
/// negative tests can seed a tampered `RegProgram` (via
/// `RegProgram::from_raw_parts`), and the native tier runs it on every
/// statement list it prints.
pub fn check_reg(
    program: &Program,
    binding: &Binding,
    reg: &RegProgram,
    location: &str,
    out: &mut Vec<Diagnostic>,
) {
    let folded = |o: &Unbound| -> Result<ExprRef, String> {
        Ok(match o {
            Unbound::Reg(_) => unreachable!("registers are the walker's"),
            Unbound::K(k) => Expr::num(*k),
            Unbound::Var { var, pattern } => {
                load_sym(*var, pattern.flat(binding.idx) * binding.n_cells)
            }
            Unbound::Coef { coef, pattern } => {
                let c = &binding.coefficients[*coef as usize];
                match &c.value {
                    CoefficientValue::Scalar(v) => Expr::num(*v),
                    CoefficientValue::Array(a) => Expr::num(a[pattern.flat(binding.idx)]),
                    CoefficientValue::Function(_) => {
                        return Err(format!(
                            "coefficient `{}` is a function but is read as a value",
                            c.name
                        ))
                    }
                }
            }
            Unbound::Index(slot) => Expr::num((binding.idx[*slot as usize] + 1) as f64),
            Unbound::Dt => Expr::num(binding.dt),
            Unbound::Time => Expr::sym("t"),
            Unbound::Face(input) => load_sym(program.face_base + input, 0),
        })
    };
    let compiled = run(&program.stmts, MAX_REGS, folded, |coef, _: &()| {
        Ok(coef_fn_sym(coef))
    });
    let (values, expected) = match compiled {
        Ok(run) => run,
        Err((pc, msg)) => {
            let at = pc.map_or(String::new(), |pc| format!(" at stmt {pc}"));
            let msg = format!("the compiled program cannot run{at}: {msg}");
            return out.push(reg_mismatch(location, msg));
        }
    };
    let bound = |o: &Operand| match *o {
        Operand::Reg(_) => unreachable!("registers are the walker's"),
        Operand::K(k) => Ok(Expr::num(k)),
        Operand::Load { var, offset } => Ok(load_sym(var, offset)),
        Operand::Time => Ok(Expr::sym("t")),
    };
    // A bound evaluation must call the function of the coefficient it
    // names: the id keys the symbol, the pointer is what runs.
    let coef_fn = |coef: u16, f: &CoefFnPtr| {
        let value = binding.coefficients.get(coef as usize).map(|c| &c.value);
        match value {
            Some(CoefficientValue::Function(g)) if Arc::ptr_eq(g, &f.0) => Ok(coef_fn_sym(coef)),
            _ => Err(format!(
                "evaluates a function that is not coefficient {coef}'s"
            )),
        }
    };
    let (produced, result) = match run(reg.stmts(), reg.n_regs(), bound, coef_fn) {
        Ok(run) => run,
        Err((pc, msg)) => return out.push(reg_mismatch(&at_stmt(location, pc), msg)),
    };
    if result.structurally_eq(&expected) {
        return;
    }
    let culprit = produced
        .iter()
        .position(|v| !values.iter().any(|b| b.structurally_eq(v)));
    out.push(match culprit {
        Some(pc) => reg_mismatch(
            &format!("{location}, stmt {pc}"),
            format!(
                "first diverging stmt: row program computes `{}`, a value the \
                 compiled program never produces (expected final `{expected}`)",
                produced[pc]
            ),
        ),
        None => reg_mismatch(
            location,
            format!(
                "row program computes `{result}` but the compiled program computes `{expected}`"
            ),
        ),
    });
}
