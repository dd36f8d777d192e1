//! Differential fuzzing of the kernel tiers against the symbolic engine.
//!
//! For seeded random field contents and stage times, the volume kernel's
//! two interpreted forms — the compiled `Program` the `vm` tier evaluates per dof and the
//! per-flat bound `RegProgram` row kernel — must agree **bitwise** with
//! each other and with `pbte_symbolic::eval` of the DSL expression the
//! kernels were compiled from. Bitwise (not epsilon) agreement is the
//! point: the lowering pipeline only reorders code in value-preserving
//! ways (binding folds constants and loads into operands, each in the
//! position it had), so any ulp of drift is a lowering bug. On mismatch the test replays the
//! bound statements against the compiled statements' values and fails
//! with the first diverging statement index.

use pbte_dsl::bytecode::{
    KernelKind, Operand, Program, RegExpr, RegProgram, Unbound, VmCtx, MAX_REGS, ROW_CHUNK,
};
use pbte_dsl::entities::{CoefficientValue, Registry};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::Problem;
use pbte_dsl::BoundaryCondition;
use pbte_mesh::grid::UniformGrid;
use pbte_mesh::Point;
use pbte_symbolic::{substitute, substitute_indices, EvalContext, SubstitutionMap};
use pbte_symbolic::{Expr, ExprRef};
use std::collections::HashMap;

const NDIRS: usize = 4;
const NBANDS: usize = 3;
const N: usize = 5;
const SEEDS: u64 = 25;

/// Deterministic splitmix64 generator — the tests must not depend on a
/// rand crate.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0.5, 2.0] — safely away from zero, overflow, and
    /// denormals so every tier stays in ordinary arithmetic.
    fn field_value(&mut self) -> f64 {
        0.5 + 1.5 * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn fuzz_problem() -> Problem {
    let mut p = Problem::new("fuzz-mini");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(N, N, 1.0, 1.0).build());
    p.set_steps(0.01, 2);
    let d = p.index("d", NDIRS);
    let b = p.index("b", NBANDS);
    let i_var = p.variable("I", &[d, b]);
    let io = p.variable("Io", &[b]);
    let beta = p.variable("beta", &[b]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
    p.coefficient_array("vg", &[b], vec![1.0, 0.7, 0.4]);
    p.coefficient_scalar("kappa", 0.75);
    p.initial(i_var, |_, _| 1.0);
    p.initial(io, |_, _| 1.0);
    p.initial(beta, |_, _| 0.5);
    for side in ["left", "right", "top", "bottom"] {
        p.boundary(i_var, side, BoundaryCondition::Value(1.0));
    }
    // Exercises subtraction, nested products, a scalar coefficient, a
    // division (→ Recip) and the stage time on top of the BTE shape.
    p.conservation_form(
        i_var,
        "(Io[b] - I[d,b]) * beta[b] / kappa + t * vg[b] + \
         surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    );
    p
}

/// Resolves the DSL's symbols against raw per-variable field slices, the
/// way the `vm` tier does: indexed variables through the registry's strides,
/// array coefficients by their own index patterns.
struct FieldsCtx<'a> {
    registry: &'a Registry,
    vars: &'a [Vec<f64>],
    n_cells: usize,
    cell: usize,
    dt: f64,
    time: f64,
}

impl FieldsCtx<'_> {
    /// Mixed-radix flat index from 1-based subscripts over `index_ids`.
    fn flat(&self, index_ids: &[usize], subscripts: &[i64]) -> Option<usize> {
        if subscripts.len() != index_ids.len() {
            return None;
        }
        let strides = self.registry.strides(index_ids);
        let mut flat = 0usize;
        for ((&ix, &id), stride) in subscripts.iter().zip(index_ids).zip(strides) {
            let v = usize::try_from(ix.checked_sub(1)?).ok()?;
            if v >= self.registry.indices[id].len {
                return None;
            }
            flat += v * stride;
        }
        Some(flat)
    }
}

impl EvalContext for FieldsCtx<'_> {
    fn symbol(&self, name: &str, indices: &[i64]) -> Option<f64> {
        match name {
            "dt" => return Some(self.dt),
            "t" => return Some(self.time),
            _ => {}
        }
        if let Some(id) = self.registry.variables.iter().position(|v| v.name == name) {
            let flat = self.flat(&self.registry.variables[id].indices, indices)?;
            return Some(self.vars[id][flat * self.n_cells + self.cell]);
        }
        let coef = self.registry.coefficients.iter().find(|c| c.name == name)?;
        match &coef.value {
            CoefficientValue::Scalar(v) => Some(*v),
            CoefficientValue::Array(a) => Some(a[self.flat(&coef.indices, indices)?]),
            CoefficientValue::Function(_) => None,
        }
    }
}

/// Scalar-step the compiled statements for one dof the way the `vm` tier
/// does and return the value of every statement: every value a faithful
/// binding computes. `None` on statements the fuzzed volume kernel never
/// contains.
fn vm_values(program: &Program, ctx: &VmCtx) -> Option<Vec<f64>> {
    let mut regs = [0.0f64; MAX_REGS];
    let mut values = Vec::with_capacity(program.stmts.len());
    for stmt in &program.stmts {
        let face = |o: &Unbound| matches!(o, Unbound::Face(_));
        if matches!(stmt.expr, RegExpr::CoefFn { .. }) || stmt.expr.operands().iter().any(face) {
            return None;
        }
        let operand = |o: &Unbound| match o {
            Unbound::Reg(r) => regs[*r as usize],
            Unbound::K(k) => *k,
            Unbound::Var { var, pattern } => {
                ctx.vars[*var as usize][pattern.flat(ctx.idx) * ctx.n_cells + ctx.cell]
            }
            Unbound::Coef { coef, pattern } => match &ctx.coefficients[*coef as usize].value {
                CoefficientValue::Scalar(v) => *v,
                CoefficientValue::Array(a) => a[pattern.flat(ctx.idx)],
                CoefficientValue::Function(_) => unreachable!(),
            },
            Unbound::Index(slot) => (ctx.idx[*slot as usize] + 1) as f64,
            Unbound::Dt => ctx.dt,
            Unbound::Time => ctx.time,
            Unbound::Face(_) => unreachable!(),
        };
        let value = stmt.expr.eval(operand, |_, _| unreachable!());
        regs[stmt.dst as usize] = value;
        values.push(value);
    }
    Some(values)
}

/// Scalar-step the bound statements for one cell and return the index
/// of the first statement whose result differs bitwise from every
/// value of the compiled statements ([`vm_values`]).
fn first_diverging_reg_op(
    reg: &RegProgram,
    vm_values: &[f64],
    vars: &[&[f64]],
    cell: usize,
    time: f64,
) -> Option<usize> {
    let mut regs = vec![0.0f64; reg.n_regs()];
    for (i, stmt) in reg.stmts().iter().enumerate() {
        if matches!(stmt.expr, RegExpr::CoefFn { .. }) {
            return None;
        }
        let operand = |o: &Operand| match *o {
            Operand::Reg(r) => regs[r as usize],
            Operand::K(k) => k,
            Operand::Load { var, offset } => vars[var as usize][offset + cell],
            Operand::Time => time,
        };
        let value = stmt.expr.eval(operand, |_, _| unreachable!());
        if !vm_values.iter().any(|b| b.to_bits() == value.to_bits()) {
            return Some(i);
        }
        regs[stmt.dst as usize] = value;
    }
    None
}

/// The native tier must be bitwise-identical to the row tier on the full
/// RHS (source + flux + ghosts) over 25 seeded random fields and stage
/// times. Compiles a real `cdylib` through `rustc`, so it is gated off
/// miri and non-unix hosts.
#[test]
#[cfg(all(unix, not(miri)))]
fn native_tier_matches_row_tier_bitwise() {
    use pbte_dsl::problem::KernelTier;

    let solver = fuzz_problem().build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let registry = &cp.problem.registry;
    let n_cells = cp.mesh().n_cells();
    let mut fields = solver.fields().clone();

    let mut native = cp.intensity_bench(&fields, KernelTier::Native);
    assert_eq!(
        native.tier(),
        KernelTier::Native,
        "native tier fell back: {:?}",
        native.native_fallback().map(|d| d.render())
    );
    let mut row = cp.intensity_bench(&fields, KernelTier::Row);
    assert_eq!(row.tier(), KernelTier::Row);

    let n_dof = cp.n_flat * n_cells;
    let mut rhs_native = vec![0.0f64; n_dof];
    let mut rhs_row = vec![0.0f64; n_dof];
    let mut rng = Rng(0x5eed_cafe_f00d_0002);
    for seed in 0..SEEDS {
        for v in 0..registry.variables.len() {
            for x in fields.slice_mut(v).iter_mut() {
                *x = rng.field_value();
            }
        }
        let time = rng.field_value();
        native.run_at(&fields, time, &mut rhs_native);
        row.run_at(&fields, time, &mut rhs_row);
        for flat in 0..cp.n_flat {
            for cell in 0..n_cells {
                let at = flat * n_cells + cell;
                if rhs_native[at].to_bits() != rhs_row[at].to_bits() {
                    // Lockstep divergence report: re-validate this flat's
                    // printed statement list symbolically so a lowering
                    // bug is pinpointed to the statement, not just the dof.
                    let binding = cp.binding(flat);
                    let reg = cp.volume.bind(&binding);
                    let mut diags = Vec::new();
                    pbte_dsl::analysis::check_reg(
                        &cp.volume,
                        &binding,
                        &reg,
                        &format!("flat {flat}"),
                        &mut diags,
                    );
                    panic!(
                        "seed {seed}, flat {flat}, cell {cell}, t {time}: native {:e} \
                         ({:#018x}) != row {:e} ({:#018x}); symbolic re-check: {:?}",
                        rhs_native[at],
                        rhs_native[at].to_bits(),
                        rhs_row[at],
                        rhs_row[at].to_bits(),
                        diags.iter().map(|d| d.render()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // `flat` indexes three parallel structures
fn all_tiers_agree_bitwise_with_the_symbolic_reference() {
    let solver = fuzz_problem().build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let registry = &cp.problem.registry;
    let n_cells = cp.mesh().n_cells();
    let dt = cp.problem.dt;

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
    // The reference expression per flat, with indices and scalar
    // coefficients substituted but otherwise *unsimplified* — the tree the
    // compiler lowered, so its left-to-right evaluation is the bitwise
    // spec.
    let references: Vec<ExprRef> = (0..cp.n_flat)
        .map(|flat| {
            let idx_map: HashMap<String, i64> = slots
                .iter()
                .zip(&cp.idx_of_flat[flat])
                .map(|(name, &v)| (name.to_string(), (v + 1) as i64))
                .collect();
            substitute(
                &substitute_indices(&cp.system.volume_expr, &idx_map),
                &scalars,
            )
        })
        .collect();

    let centroids: Vec<Point> = (0..n_cells).map(|_| Point::xy(0.5, 0.5)).collect();
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    for seed in 0..SEEDS {
        // Random field contents, every variable, every dof.
        let vars: Vec<Vec<f64>> = registry
            .variables
            .iter()
            .map(|v| {
                let flat_len = registry.flat_len(&v.indices);
                (0..flat_len * n_cells).map(|_| rng.field_value()).collect()
            })
            .collect();
        let var_slices: Vec<&[f64]> = vars.iter().map(|v| v.as_slice()).collect();
        let time = rng.field_value();

        for flat in 0..cp.n_flat {
            let idx = &cp.idx_of_flat[flat];
            let reg = cp.bind(KernelKind::Volume, flat);
            let mut row_out = vec![0.0f64; n_cells];
            let mut scratch = vec![[0.0f64; ROW_CHUNK]; reg.n_regs()];
            reg.eval_row(&var_slices, 0, &mut row_out, &centroids, time, &mut scratch);

            for cell in 0..n_cells {
                let vm_ctx = VmCtx {
                    vars: &var_slices,
                    n_cells,
                    coefficients: &registry.coefficients,
                    idx,
                    cell,
                    u1: 0.0,
                    u2: 0.0,
                    normal: [0.0; 3],
                    position: centroids[cell],
                    dt,
                    time,
                };
                let vm_val = cp.volume.eval(&vm_ctx);
                let row_val = row_out[cell];
                let ctx = FieldsCtx {
                    registry,
                    vars: &vars,
                    n_cells,
                    cell,
                    dt,
                    time,
                };
                let sym_val = pbte_symbolic::eval(&references[flat], &ctx).unwrap();

                if vm_val.to_bits() != sym_val.to_bits() {
                    panic!(
                        "seed {seed}, flat {flat}, cell {cell}, t {time}: vm {vm_val:e} != \
                         symbolic reference {sym_val:e}"
                    );
                }
                if row_val.to_bits() != vm_val.to_bits() {
                    let pc = vm_values(&cp.volume, &vm_ctx).and_then(|values| {
                        first_diverging_reg_op(&reg, &values, &var_slices, cell, time)
                    });
                    panic!(
                        "seed {seed}, flat {flat}, cell {cell}, t {time}: row {row_val:e} != \
                         vm {vm_val:e}; first diverging statement: {pc:?}"
                    );
                }
            }
        }
    }
}
