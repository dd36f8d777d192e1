//! Read-set derivation and statement validation by abstract interpretation.
//!
//! One walker covers both statement alphabets: the compiled programs the
//! `vm` tier evaluates (over its file of [`MAX_REGS`] registers) and the
//! per-flat bound programs the Row and Native tiers run. It proves
//! def-before-use over the register file — reading a register no earlier
//! statement wrote, or writing one past the file, is
//! `bytecode/use-before-def` — and hands every other operand to the
//! alphabet's resolver, which checks the load against the storage extent
//! of the entity it names: a compiled operand's worst-case index pattern,
//! a bound operand's resolved row span.
//!
//! The variables and coefficients the walks observe form the derived
//! read set, which must agree with the equation-level declaration in
//! [`DiscreteSystem`](crate::pipeline::DiscreteSystem).

use super::{rules, Diagnostic, Severity};
use crate::bytecode::{
    Alphabet, Operand, Pattern, Program, RegExpr, RegStmt, Unbound, FACE_INPUTS, FACE_NORMAL,
    MAX_REGS,
};
use crate::entities::CoefficientValue;
use crate::exec::walls::GATHER;
use crate::exec::{CompiledProblem, MAX_RUN_FACES, MIN_RUN, SLOT_GATHER, SLOT_NBR, SLOT_ROW};
use crate::problem::Initial;
use std::collections::BTreeSet;

/// Read sets derived from the kernels' statements (entity ids into the
/// registry).
#[derive(Debug, Default, Clone)]
pub struct DerivedAccess {
    pub var_reads: BTreeSet<usize>,
    pub coef_reads: BTreeSet<usize>,
}

/// Check that `pattern` stays below `len` (the entity's `what`) over the
/// unknown's loop slots.
fn check_pattern(
    pattern: &Pattern,
    idx_lens: &[usize],
    len: usize,
    what: &str,
) -> Result<(), String> {
    let mut max = pattern.base;
    for &(slot, stride) in &pattern.terms {
        let slot = slot as usize;
        if slot >= idx_lens.len() {
            return Err(format!(
                "pattern references loop slot {slot}, but only {} exist",
                idx_lens.len()
            ));
        }
        max += stride * (idx_lens[slot] - 1);
    }
    match max < len {
        true => Ok(()),
        false => Err(format!("worst-case flat index {max} ≥ {what} {len}")),
    }
}

/// Walk one statement list: def-before-use over a file of `n_regs`
/// registers, every other operand through `leaf` (with the statement's
/// index), every function-coefficient evaluation into the read set. Stops
/// at the first register fault.
fn check_stmts<O: Alphabet>(
    stmts: &[RegStmt<O>],
    n_regs: usize,
    location: &str,
    acc: &mut DerivedAccess,
    out: &mut Vec<Diagnostic>,
    mut leaf: impl FnMut(&O, usize, &mut DerivedAccess, &mut Vec<Diagnostic>),
) {
    let fault = |pc: usize, message: String| Diagnostic {
        severity: Severity::Error,
        rule: rules::USE_BEFORE_DEF,
        entity: String::new(),
        location: format!("{location}, op {pc}"),
        message,
    };
    let mut defined = vec![false; n_regs];
    for (pc, stmt) in stmts.iter().enumerate() {
        for o in stmt.expr.operands() {
            match o.reg() {
                Some(r) if !defined.get(r as usize).is_some_and(|&d| d) => {
                    let message = format!("register r{r} consumed before any definition");
                    return out.push(fault(pc, message));
                }
                Some(_) => {}
                None => leaf(o, pc, acc, out),
            }
        }
        if let RegExpr::CoefFn { coef, .. } = stmt.expr {
            acc.coef_reads.insert(coef as usize);
        }
        let dst = stmt.dst;
        let Some(slot) = defined.get_mut(dst as usize) else {
            let message = format!("destination r{dst} outside register file of {n_regs}");
            return out.push(fault(pc, message));
        };
        *slot = true;
    }
}

/// Validate one compiled program and fold its reads into `acc`: a
/// variable or array-coefficient operand's worst-case index pattern
/// against the entity's extent; `CELL1`/`CELL2` read the unknown.
fn check_program(
    cp: &CompiledProblem,
    program: &Program,
    location: &str,
    acc: &mut DerivedAccess,
    out: &mut Vec<Diagnostic>,
) {
    let registry = &cp.problem.registry;
    let oob = |entity: &str, pc: usize, message: String| Diagnostic {
        severity: Severity::Error,
        rule: rules::OOB_LOAD,
        entity: entity.to_string(),
        location: format!("{location}, op {pc}"),
        message,
    };
    let leaf = |o: &Unbound, pc, acc: &mut DerivedAccess, out: &mut Vec<Diagnostic>| match o {
        Unbound::Var { var, pattern } => {
            let v = &registry.variables[*var as usize];
            acc.var_reads.insert(*var as usize);
            let extent = registry.flat_len(&v.indices);
            if let Err(msg) = check_pattern(pattern, &cp.idx_lens, extent, "extent") {
                out.push(oob(&v.name, pc, msg));
            }
        }
        Unbound::Coef { coef, pattern } => {
            let c = &registry.coefficients[*coef as usize];
            acc.coef_reads.insert(*coef as usize);
            if let CoefficientValue::Array(a) = &c.value {
                if let Err(msg) = check_pattern(pattern, &cp.idx_lens, a.len(), "array length") {
                    out.push(oob(&c.name, pc, msg));
                }
            }
        }
        Unbound::Face(input) if *input < FACE_NORMAL => {
            acc.var_reads.insert(cp.system.unknown);
        }
        _ => {}
    };
    check_stmts(&program.stmts, MAX_REGS, location, acc, out, leaf);
}

/// Bounds check for a bound load: `vars[var][offset + cell]` over
/// `cell in 0..n_cells` against the variable's storage extent. A
/// face-input pseudo-variable (ids from the flux program's `face_base`)
/// must name one of the inputs at offset 0; `CELL1`/`CELL2` read the
/// unknown.
fn check_load(
    cp: &CompiledProblem,
    var: u16,
    offset: usize,
    n_cells: usize,
    location: &str,
    acc: &mut DerivedAccess,
    out: &mut Vec<Diagnostic>,
) {
    let registry = &cp.problem.registry;
    if let Some(input) = var.checked_sub(cp.flux.face_base) {
        if input < FACE_NORMAL {
            acc.var_reads.insert(cp.system.unknown);
        }
        if input as usize >= FACE_INPUTS || offset != 0 {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::OOB_LOAD,
                entity: String::new(),
                location: location.to_string(),
                message: format!("load of face input {input} at offset {offset} names no input"),
            });
        }
        return;
    }
    let v = var as usize;
    acc.var_reads.insert(v);
    let extent = registry.flat_len(&registry.variables[v].indices) * n_cells;
    if offset + n_cells > extent {
        out.push(Diagnostic {
            severity: Severity::Error,
            rule: rules::OOB_LOAD,
            entity: registry.variables[v].name.clone(),
            location: location.to_string(),
            message: format!(
                "load span {}..{} exceeds storage extent {extent}",
                offset,
                offset + n_cells
            ),
        });
    }
}

/// Analyze every kernel tier, derive the read sets, and cross-check them
/// against the equation-level declaration. Returns the derived access for
/// downstream transfer checks.
pub(super) fn check_kernels(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) -> DerivedAccess {
    let registry = &cp.problem.registry;
    let n_cells = cp.mesh().n_cells();
    let mut acc = DerivedAccess::default();

    // The compiled programs the `vm` tier evaluates.
    check_program(cp, &cp.volume, "volume kernel (vm)", &mut acc, out);
    check_program(cp, &cp.flux, "flux kernel (vm)", &mut acc, out);

    // The per-flat bound programs — the volume program, and the flux when
    // Row/Native run it compiled. Stop after the first offending flat so
    // one systematic bug doesn't produce n_flat copies of itself.
    for (kind, name, _) in cp.lowered_kernels() {
        for flat in 0..cp.n_flat {
            let before = out.len();
            let loc = format!("{name} kernel (row, flat {flat})");
            let reg = cp.bind(kind, flat);
            let leaf = |o: &Operand, _, acc: &mut DerivedAccess, out: &mut Vec<Diagnostic>| {
                if let Operand::Load { var, offset } = *o {
                    check_load(cp, var, offset, n_cells, &loc, acc, out)
                }
            };
            check_stmts(reg.stmts(), reg.n_regs(), &loc, &mut acc, out, leaf);
            if out.len() != before {
                break;
            }
        }
    }

    // Cross-check: the statements' reads vs the pipeline's declared reads.
    let declared_vars: BTreeSet<usize> = cp.system.read_variables.iter().copied().collect();
    let declared_coefs: BTreeSet<usize> = cp.system.read_coefficients.iter().copied().collect();
    for &v in &acc.var_reads {
        if !declared_vars.contains(&v) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::UNDECLARED_ACCESS,
                entity: registry.variables[v].name.clone(),
                location: "kernel bytecode".into(),
                message: "bytecode reads a variable the equation analysis didn't declare".into(),
            });
        }
    }
    for &c in &acc.coef_reads {
        if !declared_coefs.contains(&c) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::UNDECLARED_ACCESS,
                entity: registry.coefficients[c].name.clone(),
                location: "kernel bytecode".into(),
                message: "bytecode reads a coefficient the equation analysis didn't declare".into(),
            });
        }
    }
    for &v in &declared_vars {
        if !acc.var_reads.contains(&v) {
            out.push(Diagnostic {
                severity: Severity::Warning,
                rule: rules::UNDECLARED_ACCESS,
                entity: registry.variables[v].name.clone(),
                location: "kernel bytecode".into(),
                message: "declared as read by the equation but no tier's bytecode loads it".into(),
            });
        }
    }
    acc
}

/// Structural invariants of the CSR face geometry the span kernels index
/// without further checks at run time, then the stencil run tables against
/// those arrays ([`check_runs`]).
pub(super) fn check_geometry(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) {
    let before = out.len();
    check_csr(cp, out);
    // The run proof reads the CSR arrays, so it needs them sound.
    if out.len() == before {
        check_runs(cp, out);
    }
}

/// The stencil run tables are proved, not trusted: every run is re-derived
/// from the arrays it summarises, the CSR geometry and the walls' `read`
/// table. The stride-1 runs (`stride` 1) are sorted and disjoint, the
/// strided ones (`stride` ≥ 2) sorted by first cell; every run lies inside
/// `0..n_cells`, is at least `MIN_RUN` long and has `3..=MAX_RUN_FACES`
/// faces. The `j`-th cell `c` of a run has exactly `nf` faces, and its slot
/// `s` reads what the run says: a neighbor `nbr == c + at[s]`
/// ([`SLOT_NBR`]), a boundary slot whose `read` is row `at[s] + j·step[s]`
/// ([`SLOT_ROW`]) or gather column `at[s]` ([`SLOT_GATHER`]), with, on a
/// table plan, `class == class[s]` (a compiled-flux plan has no classes).
/// Last, the runs and the remainder list cover every cell exactly once,
/// the remainder ascending.
///
/// That is all the stencil path needs: inside a proven run it loads
/// exactly the values the CSR walk loads for the same faces (the neighbor
/// read, or `Walls::ghost_read`), and the areas and αβγ rows (or, for the
/// compiled flux, the normals) of face slots `offsets[c] .. offsets[c] +
/// nf`, and writes each `out` entry once, so the access, race and halo
/// proofs — stated over the CSR walk — hold for it unchanged.
fn check_runs(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) {
    let hot = &cp.hot;
    let read = &cp.walls.read;
    let n_cells = cp.mesh().n_cells();
    let fail = |message: String| Diagnostic {
        severity: Severity::Error,
        rule: rules::RUN_MISMATCH,
        entity: String::new(),
        location: "stencil run table".into(),
        message,
    };
    // What slot `k` of cell `c` reads: its kind and the neighbor offset,
    // ghost row or gather column.
    let slot = |c: usize, k: usize| match hot.nbr[k] {
        nb if nb >= 0 => (SLOT_NBR, nb - c as i64),
        nb => match read[(-(nb + 1)) as usize] {
            r if r & GATHER != 0 => (SLOT_GATHER, (r ^ GATHER) as i64),
            r => (SLOT_ROW, r as i64),
        },
    };
    let mut hits = vec![0u8; n_cells];
    let tables = [
        ("run", &hot.runs, 1..=1),
        ("strided run", &hot.strided, 2..=u32::MAX),
    ];
    for (table, runs, strides) in tables {
        // Where the next run may start: past the previous one's last cell
        // (stride 1), at or past its first (strided).
        let mut from = 0usize;
        for (r, run) in runs.iter().enumerate() {
            let (first, len, nf) = (run.first as usize, run.len as usize, run.nf as usize);
            if !strides.contains(&run.stride) || first < from {
                let stride = run.stride;
                let message = format!("{table} {r} starts at cell {first} with stride {stride}: not after the previous run (from {from}) or stride outside {strides:?}");
                return out.push(fail(message));
            }
            if len < MIN_RUN || !(3..=MAX_RUN_FACES).contains(&nf) {
                let message = format!("{table} {r} has {len} cell(s) of {nf} face(s): below {MIN_RUN} cells or outside 3..={MAX_RUN_FACES} faces");
                return out.push(fail(message));
            }
            // The last cell, computed without overflow for any tampered run.
            let last = (len - 1).checked_mul(run.stride as usize);
            let last = last.and_then(|offset| offset.checked_add(first));
            if last.is_none_or(|last| last >= n_cells) {
                let message = format!(
                    "{table} {r} ends past cell {first} + {} · {}, outside 0..{n_cells}",
                    len - 1,
                    run.stride
                );
                return out.push(fail(message));
            }
            from = if run.stride == 1 { run.end() } else { first };
            for j in 0..len {
                let c = run.cell(j);
                hits[c] = hits[c].saturating_add(1);
                let start = hot.offsets[c] as usize;
                if hot.offsets[c + 1] as usize - start != nf {
                    let faces = hot.offsets[c + 1] as usize - start;
                    let message =
                        format!("{table} {r}: cell {c} has {faces} faces, the run says {nf}");
                    return out.push(fail(message));
                }
                for s in 0..nf {
                    let (kind, at) = slot(c, start + s);
                    let claim = match run.kind[s] {
                        SLOT_ROW => run.at[s] as i64 + j as i64 * run.step[s] as i64,
                        _ => run.at[s] as i64,
                    };
                    if (kind, at) != (run.kind[s], claim) {
                        let message = format!("{table} {r}: cell {c} slot {s} reads kind {kind} at {at}, the run says kind {} at {claim}", run.kind[s]);
                        return out.push(fail(message));
                    }
                    if cp.flux_lin.is_some() && hot.class[start + s] != run.class[s] {
                        let message = format!(
                            "{table} {r}: cell {c} slot {s} has class {}, the run says {}",
                            hot.class[start + s],
                            run.class[s]
                        );
                        return out.push(fail(message));
                    }
                }
            }
        }
    }
    let mut last = None;
    for &c in &hot.rest {
        let c = c as usize;
        if c >= n_cells || last.is_some_and(|last| c <= last) {
            let message = format!("remainder cell {c} is not ascending inside 0..{n_cells}");
            return out.push(fail(message));
        }
        hits[c] = hits[c].saturating_add(1);
        last = Some(c);
    }
    if let Some(c) = hits.iter().position(|&h| h != 1) {
        let message = format!(
            "cell {c} is walked {} times by the runs and the remainder, not once",
            hits[c]
        );
        out.push(fail(message));
    }
}

fn check_csr(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) {
    let hot = &cp.hot;
    let n_cells = cp.mesh().n_cells();
    let n_bslots = cp.boundary.len();
    let mut fail = |message: String| {
        out.push(Diagnostic {
            severity: Severity::Error,
            rule: rules::CSR_INVARIANT,
            entity: String::new(),
            location: "hot face geometry".into(),
            message,
        });
    };
    if hot.offsets.len() != n_cells + 1 {
        fail(format!(
            "offsets has {} entries for {n_cells} cells",
            hot.offsets.len()
        ));
        return;
    }
    if hot.offsets[0] != 0 {
        fail("offsets[0] must be 0".into());
    }
    if hot.offsets.windows(2).any(|w| w[0] > w[1]) {
        fail("offsets must be monotone non-decreasing".into());
    }
    let total = *hot.offsets.last().unwrap() as usize;
    // One class per face slot on a table plan, `dim` normal components per
    // face slot for the compiled flux; neither array otherwise.
    let classes = cp.flux_lin.as_ref().map_or(0, |_| total);
    let normals = if cp.compiled_flux() {
        total * hot.dim
    } else {
        0
    };
    if [hot.nbr.len(), hot.area.len()] != [total; 2]
        || hot.class.len() != classes
        || hot.normals.len() != normals
    {
        fail(format!(
            "offsets claim {total} face slots but nbr/area have {}/{}, class {} (expected {classes}), normals {} (expected {normals}: dimension {})",
            hot.nbr.len(),
            hot.area.len(),
            hot.class.len(),
            hot.normals.len(),
            hot.dim
        ));
        return;
    }
    for (k, &nb) in hot.nbr.iter().enumerate() {
        let ok = if nb >= 0 {
            (nb as usize) < n_cells
        } else {
            ((-nb - 1) as usize) < n_bslots
        };
        if !ok {
            fail(format!(
                "nbr[{k}] = {nb} addresses neither a cell (< {n_cells}) nor a boundary slot (< {n_bslots})"
            ));
            break;
        }
    }
    if let Some(lin) = &cp.flux_lin {
        if let Some((k, &c)) = hot
            .class
            .iter()
            .enumerate()
            .find(|(_, &c)| c as usize >= lin.n_classes)
        {
            fail(format!("class[{k}] = {c} ≥ n_classes {}", lin.n_classes));
        }
    }
    if hot.inv_volume.len() != n_cells {
        fail(format!(
            "inv_volume has {} entries for {n_cells} cells",
            hot.inv_volume.len()
        ));
    } else if let Some((c, &iv)) = hot
        .inv_volume
        .iter()
        .enumerate()
        .find(|(_, &iv)| !iv.is_finite() || iv <= 0.0)
    {
        fail(format!("inv_volume[{c}] = {iv} is not finite positive"));
    }
}

/// An expression initial reads only what is initialised before it fills:
/// a variable with a closure initial (those all fill first) or with an
/// expression initial earlier in the fill order — and never its own
/// variable, whose rows it is still writing.
pub(super) fn check_initials(cp: &CompiledProblem, out: &mut Vec<Diagnostic>) {
    let registry = &cp.problem.registry;
    let closures = cp.problem.initials.iter();
    let mut filled: BTreeSet<usize> = closures
        .filter(|(_, init)| matches!(init, Initial::Fn(_)))
        .map(|(var, _)| *var)
        .collect();
    for (var, program) in &cp.initials {
        let stmts = program.stmts.iter().enumerate();
        let operands = stmts.flat_map(|(pc, s)| s.expr.operands().iter().map(move |o| (pc, o)));
        for (pc, o) in operands {
            let Unbound::Var { var: read, .. } = o else {
                continue;
            };
            let read = *read as usize;
            if read == *var || !filled.contains(&read) {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    rule: rules::UNINITIALISED_READ,
                    entity: registry.variables[*var].name.clone(),
                    location: format!("initial expression, op {pc}"),
                    message: match read == *var {
                        true => "the expression reads the variable it initialises".into(),
                        false => format!(
                            "the expression reads `{}`, which nothing has initialised yet",
                            registry.variables[read].name
                        ),
                    },
                });
            }
        }
        filled.insert(*var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecTarget;
    use crate::problem::{BoundaryCondition, Problem};
    use pbte_mesh::UniformGrid;

    /// Two-direction upwind transport on `mesh`, every side a fixed wall.
    fn upwind_plan(mesh: pbte_mesh::Mesh) -> CompiledProblem {
        let mut p = Problem::new("run-table-seam");
        p.domain(2);
        p.mesh(mesh);
        p.set_steps(1e-3, 1);
        let d = p.index("d", 2);
        let i_var = p.variable("I", &[d]);
        p.coefficient_array("Sx", &[d], vec![0.6, -0.8]);
        p.coefficient_array("Sy", &[d], vec![0.8, 0.6]);
        for side in ["left", "right", "top", "bottom"] {
            p.boundary(i_var, side, BoundaryCondition::Value(0.0));
        }
        p.conservation_form(i_var, "surface(upwind([Sx[d];Sy[d]], I[d]))");
        CompiledProblem::compile(p).unwrap().0
    }

    /// A table plan on a 12×4 grid: four rows, each one stencil run of 10
    /// cells; its x-end columns are too short for a run.
    fn grid_plan() -> CompiledProblem {
        upwind_plan(UniformGrid::new_2d(12, 4, 1.0, 1.0).build())
    }

    /// A compiled-flux plan on the mesh of `jittered_array.pbte` (24×24
    /// jittered quads, no flux table): 24 rows, each one run of 22 cells,
    /// and two x-end columns of 22, found from the connectivity and the
    /// walls alone.
    fn jittered_plan() -> CompiledProblem {
        let msh = include_str!("../../../../examples/meshes/jittered_array.msh");
        upwind_plan(pbte_mesh::gmsh::parse_msh(msh).unwrap())
    }

    /// The run table is proved, not trusted, on both flux paths: a wrong
    /// neighbor offset, ghost-row step, stride or class (table plans have
    /// them), a run stretched over a corner and overlapping or shifted runs are
    /// each refused by `verify_plan` under `geometry/run-mismatch` and
    /// nothing else, on the sequential and on the fanned-out scope.
    #[test]
    fn a_tampered_run_table_is_refused() {
        let (table, compiled) = (grid_plan(), jittered_plan());
        assert!(table.flux_lin.is_some() && compiled.compiled_flux());
        assert_eq!(table.hot.runs.len(), 4);
        assert_eq!(compiled.hot.run_cells_in(0, 24 * 24), 24 * 24 - 4);
        assert!(compiled.hot.class.is_empty());

        type Tamper = fn(&mut CompiledProblem);
        fn hot(cp: &mut CompiledProblem) -> &mut crate::exec::HotGeometry {
            std::sync::Arc::make_mut(&mut cp.hot)
        }
        // The first ghost-row slot of the first run (the bottom wall row).
        fn ghost_row(cp: &mut CompiledProblem) {
            let run = &mut hot(cp).runs[0];
            let s = run.kind.iter().position(|&k| k == SLOT_ROW).unwrap();
            run.step[s] += 1;
        }
        let shape: [(&str, Tamper); 6] = [
            ("neighbor offset", |cp| hot(cp).runs[1].at[1] += 1),
            ("ghost row step", ghost_row),
            ("stride", |cp| hot(cp).runs[1].stride = 2),
            ("corner (len)", |cp| hot(cp).runs[0].len += 1),
            ("shifted (first)", |cp| hot(cp).runs[1].first += 1),
            ("overlap", |cp| {
                hot(cp).runs[1].first = cp.hot.runs[0].first + 4
            }),
        ];
        let class: (&str, Tamper) = ("class", |cp| hot(cp).runs[1].class[2] ^= 1);
        type Plan = fn() -> CompiledProblem;
        let plans: [(Plan, Vec<(&str, Tamper)>); 2] = [
            (grid_plan, shape.iter().copied().chain([class]).collect()),
            (jittered_plan, shape.to_vec()),
        ];
        for (plan, tampers) in plans {
            for target in [ExecTarget::CpuSeq, ExecTarget::CpuParallel] {
                assert!(plan().verify_plan(&target).is_empty());
                for &(what, tamper) in &tampers {
                    let mut cp = plan();
                    tamper(&mut cp);
                    let diags = cp.verify_plan(&target);
                    let fired: Vec<_> = diags.iter().map(|d| (d.rule, d.severity)).collect();
                    assert_eq!(
                        fired,
                        [(rules::RUN_MISMATCH, Severity::Error)],
                        "{what} on {target:?}: {diags:?}"
                    );
                }
            }
        }
    }
}
