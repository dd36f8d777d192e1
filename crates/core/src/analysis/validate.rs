//! Translation validation: prove the lowering pipeline semantics-preserving.
//!
//! The compiler lowers one conservation-form equation through these
//! representations: the DSL term groups (after operator expansion and the
//! forward-Euler transform), the loop-nest IR, the generic stack VM
//! (`Program`) and the per-flat register form (`RegProgram`), which the Row
//! tier interprets and the Native tier prints as Rust source. This module
//! re-extracts a symbolic expression from every representation by abstract
//! interpretation over `pbte_symbolic` values and proves the chain
//! DSL ≡ IR ≡ VM ≡ Row equal link by link; Native prints Row, so the last
//! link covers it:
//!
//! * **DSL ≡ groups ≡ IR** ([`check_ir`]): the IR's `source = …` and
//!   `flux += faceArea * (…)` statements are parsed back and compared
//!   canonically against the analyzed `volume_expr`/`flux_expr`; the
//!   forward-Euler term groups are proven consistent
//!   (`Σ rhs_volume ≡ u + dt·volume`, `Σ rhs_surface ≡ −dt·flux`,
//!   `lhs_volume ≡ −u`); the per-dof update statement must be present
//!   verbatim.
//! * **DSL ≡ VM** ([`check_vm`]): for every flat index, `Program` is
//!   executed over symbolic values (loads become indexed symbols with the
//!   flat's literal 1-based subscripts) and compared canonically against
//!   the DSL expression with the same indices substituted.
//! * **VM ≡ Row** ([`check_reg`]): `Program` is executed again with the
//!   fold [`Program::lower`] applies (coefficients, `dt`, `t` and index
//!   values become numbers, loads become offset-keyed symbols — one
//!   [`Binding`] describes both sides), the register statements are
//!   executed over a symbolic register file with their operands in their
//!   order, and the two final values are compared **raw-structurally**.
//!   Raw (not canonical) equality is deliberate: canonical ordering would
//!   commute `k * load` back to `load * k` and mask exactly the operand
//!   order bugs this proof exists to catch (operand order decides
//!   NaN-payload propagation, so the tiers promise bitwise-equal results).
//!   A wrong load offset or folded constant fails the same comparison. A
//!   mismatch is pinned to the first statement computing a value the VM
//!   never computes. The native tier runs this proof itself on every
//!   statement list before printing it, so a corrupted lowering is
//!   rejected, never compiled.
//!
//! The lowering link covers every program the executors run lowered: the
//! volume program always, and the flux program on plans whose Row/Native
//! tiers run it compiled (no αβγ table). A lowered flux program loads its
//! face inputs as pseudo-variables, so the same functions prove it with
//! three more symbols.
//!
//! Failures are structured [`Diagnostic`]s with stable rule ids
//! (`translation/ir-mismatch`, `translation/vm-mismatch`,
//! `translation/reg-mismatch`) pinpointing the tier and, where an
//! instruction stream exists, the instruction.

use super::{rules, Diagnostic, Severity};
use crate::bytecode::{
    Binding, Op, Operand, Program, RegExpr, RegProgram, RegStmt, FACE_NORMAL, FACE_U1, FACE_U2,
};
use crate::entities::{CoefficientValue, Registry};
use crate::exec::{CompiledProblem, ExecTarget};
use crate::ir::{self, IrNode};
use crate::pipeline::unknown_symbol;
use pbte_symbolic::simplify::canonical_eq;
use pbte_symbolic::{parse, substitute, substitute_indices, Expr, ExprRef, SubstitutionMap};
use std::collections::HashMap;

/// Run the whole translation-validation chain for one compiled plan.
/// When the plan carries a derived JVP plan (implicit integrators), the
/// chain is also run over it — see [`check_jvp`].
pub fn check_translation(cp: &CompiledProblem, target: &ExecTarget, out: &mut Vec<Diagnostic>) {
    let ir = ir::build_ir(cp, target);
    check_ir(cp, &ir, out);
    check_vm(cp, out);
    check_lowered(cp, &Program::lower, out);
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
// Symbolic execution of the instruction tiers
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

/// How entity references materialize during symbolic execution of a
/// `Program`.
#[derive(Clone, Copy)]
enum VmMode<'a> {
    /// Keep names: loads become indexed symbols, for comparison against
    /// the DSL expression.
    Named(&'a CompiledProblem),
    /// Apply the fold [`Program::lower`] performs with `binding`
    /// (coefficients, `dt`, `t`, loop indices become numbers; variable and
    /// face-input loads become offset-keyed placeholder symbols), for
    /// raw-structural comparison against the register lowering.
    BindFolded {
        binding: Binding<'a>,
        face_base: u16,
    },
}

struct VmExec<'a> {
    idx: &'a [usize],
    mode: VmMode<'a>,
    coef_fns: usize,
}

impl<'a> VmExec<'a> {
    fn new(idx: &'a [usize], mode: VmMode<'a>) -> VmExec<'a> {
        VmExec {
            idx,
            mode,
            coef_fns: 0,
        }
    }

    /// Apply one instruction to the symbolic stack. Returns `Err` on a
    /// malformed stack (already diagnosed by the access pass).
    fn step(&mut self, op: &Op, stack: &mut Vec<ExprRef>) -> Result<(), String> {
        use VmMode::{BindFolded, Named};
        let pushed = match (op, self.mode) {
            (Op::Const(v), _) => Expr::num(*v),
            (Op::LoadDt, Named(_)) => Expr::sym("dt"),
            (Op::LoadDt, BindFolded { binding, .. }) => Expr::num(binding.dt),
            (Op::LoadTime, Named(_)) => Expr::sym("t"),
            (Op::LoadTime, BindFolded { binding, .. }) => Expr::num(binding.time),
            (Op::LoadIndex(slot), _) => Expr::num((self.idx[*slot as usize] + 1) as f64),
            (Op::LoadVar { var, pattern }, Named(cp)) => {
                let registry = &cp.problem.registry;
                let v = &registry.variables[*var as usize];
                entity_sym(registry, &v.name, &v.indices, pattern.flat(self.idx))
            }
            (Op::LoadVar { var, pattern }, BindFolded { binding, .. }) => {
                load_sym(*var, pattern.flat(self.idx) * binding.n_cells)
            }
            (Op::LoadU1 | Op::LoadU2 | Op::LoadNormal(_), BindFolded { face_base, .. }) => {
                let input = match op {
                    Op::LoadU1 => FACE_U1,
                    Op::LoadU2 => FACE_U2,
                    Op::LoadNormal(axis) => FACE_NORMAL + *axis as u16,
                    _ => unreachable!(),
                };
                load_sym(face_base + input, 0)
            }
            (Op::LoadU1 | Op::LoadU2, Named(cp)) => {
                let u = &cp.problem.registry.variables[cp.system.unknown];
                let subs: Vec<ExprRef> = self
                    .idx
                    .iter()
                    .map(|&v| Expr::num((v + 1) as f64))
                    .collect();
                let arg = if subs.is_empty() {
                    Expr::sym(u.name.clone())
                } else {
                    Expr::sym_indexed(u.name.clone(), subs)
                };
                let name = if matches!(op, Op::LoadU1) {
                    "CELL1"
                } else {
                    "CELL2"
                };
                Expr::call(name, vec![arg])
            }
            (Op::LoadNormal(axis), Named(_)) => Expr::sym(format!("NORMAL_{}", axis + 1)),
            (Op::LoadCoef { coef, pattern }, Named(cp)) => {
                let registry = &cp.problem.registry;
                let c = &registry.coefficients[*coef as usize];
                entity_sym(registry, &c.name, &c.indices, pattern.flat(self.idx))
            }
            (Op::LoadCoef { coef, pattern }, BindFolded { binding, .. }) => {
                let c = &binding.coefficients[*coef as usize];
                match &c.value {
                    CoefficientValue::Scalar(v) => Expr::num(*v),
                    CoefficientValue::Array(a) => Expr::num(a[pattern.flat(self.idx)]),
                    CoefficientValue::Function(_) => {
                        return Err(format!(
                            "coefficient `{}` is a function but was compiled as LoadCoef",
                            c.name
                        ))
                    }
                }
            }
            (Op::LoadCoefFn { coef }, Named(cp)) => Expr::sym(
                cp.problem.registry.coefficients[*coef as usize]
                    .name
                    .clone(),
            ),
            (Op::LoadCoefFn { .. }, BindFolded { .. }) => {
                self.coef_fns += 1;
                coef_fn_sym(self.coef_fns)
            }
            (Op::Add | Op::Mul | Op::Pow | Op::Cmp(_), _) => {
                let b = pop(stack)?;
                let a = pop(stack)?;
                match op {
                    Op::Add => Expr::add(vec![a, b]),
                    Op::Mul => Expr::mul(vec![a, b]),
                    Op::Pow => Expr::pow(a, b),
                    Op::Cmp(c) => Expr::cmp(*c, a, b),
                    _ => unreachable!(),
                }
            }
            (Op::Recip, _) => {
                let a = pop(stack)?;
                Expr::pow(a, Expr::num(-1.0))
            }
            (Op::Call(f), _) => {
                let a = pop(stack)?;
                Expr::call(f.name(), vec![a])
            }
            (Op::Select, _) => {
                let if_false = pop(stack)?;
                let if_true = pop(stack)?;
                let test = pop(stack)?;
                Expr::conditional(test, if_true, if_false)
            }
        };
        stack.push(pushed);
        Ok(())
    }

    /// Execute a whole program: the top of the stack after every
    /// instruction, in order — the last is the program's value.
    fn run(&mut self, ops: &[Op]) -> Result<Vec<ExprRef>, String> {
        let mut stack = Vec::new();
        let mut tops = Vec::with_capacity(ops.len());
        for (pc, op) in ops.iter().enumerate() {
            self.step(op, &mut stack)
                .map_err(|e| format!("op {pc}: {e}"))?;
            tops.extend(stack.last().cloned());
        }
        if stack.len() != 1 {
            return Err(format!(
                "program leaves {} values on the stack",
                stack.len()
            ));
        }
        Ok(tops)
    }
}

fn pop(stack: &mut Vec<ExprRef>) -> Result<ExprRef, String> {
    stack.pop().ok_or_else(|| "stack underflow".to_string())
}

/// Placeholder symbol for a lowered variable load; keyed by
/// `(var, offset)` so identical loads unify and different loads never do.
fn load_sym(var: u16, offset: usize) -> ExprRef {
    Expr::sym(format!("load#{var}@{offset}"))
}

/// Placeholder symbol for the n-th function-coefficient evaluation. The
/// stack and register streams evaluate coefficient functions in the same
/// order (fusion never touches them), so occurrence order is a sound key.
fn coef_fn_sym(n: usize) -> ExprRef {
    Expr::sym(format!("coef_fn#{n}"))
}

// ---------------------------------------------------------------------------
// DSL ≡ VM
// ---------------------------------------------------------------------------

/// Prove the generic stack programs compute the analyzed DSL expressions,
/// for every flat index.
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

    for (kernel, program, expected) in [
        ("volume", &cp.volume, &cp.system.volume_expr),
        ("flux", &cp.flux, &cp.system.flux_expr),
    ] {
        for flat in 0..cp.n_flat {
            let idx = &cp.idx_of_flat[flat];
            let location = format!("{kernel} kernel (vm, flat {flat})");
            let extracted = match VmExec::new(idx, VmMode::Named(cp)).run(&program.ops) {
                Ok(mut tops) => tops.pop().expect("a program leaves one value"),
                Err(msg) => {
                    out.push(vm_mismatch(&location, msg));
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
                        "stack program computes `{extracted}` but the DSL \
                         expression specializes to `{reference}`"
                    ),
                ));
                break; // one offending flat per kernel is enough
            }
        }
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
// VM ≡ Row
// ---------------------------------------------------------------------------

/// Prove the register lowering of every lowered kernel against the stack
/// VM, per flat. Production passes [`Program::lower`]; negative tests pass
/// a lowering that tampers with its result, to prove the proof is
/// load-bearing. Stops at the first offending flat per kernel.
pub fn check_lowered(
    cp: &CompiledProblem,
    lower: &dyn Fn(&Program, &Binding) -> RegProgram,
    out: &mut Vec<Diagnostic>,
) {
    for (_, name, program) in cp.lowered_kernels() {
        for flat in 0..cp.n_flat {
            let binding = cp.binding(flat, 0.0);
            let location = format!("{name} kernel (row, flat {flat})");
            let before = out.len();
            check_reg(program, &binding, &lower(program, &binding), &location, out);
            if out.len() != before {
                break;
            }
        }
    }
}

/// What a lowering computed: the value of every statement in order and
/// the final value — or the statement (if one) that could not run, and
/// why.
type Execution = Result<(Vec<ExprRef>, ExprRef), (Option<usize>, String)>;

fn reg_mismatch(location: &str, message: String) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        rule: rules::TRANSLATION_REG,
        entity: String::new(),
        location: location.to_string(),
        message,
    }
}

/// Prove one register program raw-structurally equal to the VM's
/// execution of `program` with the fold `binding` describes — the fold
/// [`Program::lower`] performs, so a wrong load offset or folded constant
/// fails here as surely as a flipped operand order. Raw, not canonical:
/// canonical ordering would commute `k * load` back to `load * k` and mask
/// the operand-order bugs this proof exists to catch. A mismatch is pinned
/// to the first statement whose value the VM never computes. Public so
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
    let mode = VmMode::BindFolded {
        binding: *binding,
        face_base: program.face_base,
    };
    let vm_values = match VmExec::new(binding.idx, mode).run(&program.ops) {
        Ok(values) => values,
        Err(msg) => {
            let msg = format!("the VM cannot run the program: {msg}");
            return out.push(reg_mismatch(location, msg));
        }
    };
    let expected = vm_values.last().expect("a program leaves one value");
    let (produced, result) = match run_reg(reg) {
        Ok(run) => run,
        Err((pc, msg)) => {
            let at = match pc {
                Some(pc) => format!("{location}, stmt {pc}"),
                None => location.to_string(),
            };
            return out.push(reg_mismatch(&at, msg));
        }
    };
    if result.structurally_eq(expected) {
        return;
    }
    let culprit = produced
        .iter()
        .position(|v| !vm_values.iter().any(|b| b.structurally_eq(v)));
    out.push(match culprit {
        Some(pc) => reg_mismatch(
            &format!("{location}, stmt {pc}"),
            format!(
                "first diverging stmt: row program computes `{}`, a value the \
                 VM never produces (expected final `{expected}`)",
                produced[pc]
            ),
        ),
        None => reg_mismatch(
            location,
            format!("row program computes `{result}` but the VM computes `{expected}`"),
        ),
    });
}

/// Execute a register program over symbolic registers.
fn run_reg(reg: &RegProgram) -> Execution {
    let mut regs: Vec<Option<ExprRef>> = vec![None; reg.n_regs()];
    let mut produced: Vec<ExprRef> = Vec::with_capacity(reg.stmts().len());
    let mut coef_fns = 0usize;
    for (pc, stmt) in reg.stmts().iter().enumerate() {
        produced.push(reg_step(stmt, &mut regs, &mut coef_fns).map_err(|m| (Some(pc), m))?);
    }
    match regs.first().cloned().flatten() {
        Some(result) => Ok((produced, result)),
        None => Err((None, "register program never writes r0".into())),
    }
}

/// Apply one register statement over symbolic registers; returns the value
/// written to the destination.
fn reg_step(
    stmt: &RegStmt,
    regs: &mut [Option<ExprRef>],
    coef_fns: &mut usize,
) -> Result<ExprRef, String> {
    let value = {
        let operand = |o: &Operand| -> Result<ExprRef, String> {
            match *o {
                Operand::Reg(r) => regs
                    .get(r as usize)
                    .cloned()
                    .flatten()
                    .ok_or_else(|| format!("register r{r} read before definition")),
                Operand::K(k) => Ok(Expr::num(k)),
                Operand::Load { var, offset } => Ok(load_sym(var, offset)),
            }
        };
        match &stmt.expr {
            RegExpr::Copy(a) => operand(a)?,
            RegExpr::CoefFn(_) => {
                *coef_fns += 1;
                coef_fn_sym(*coef_fns)
            }
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
