//! Negative-test seam for the translation validator and the interval
//! safety pass, mirroring the verifier's seam tests: the shipped plans
//! must prove clean on every target and tier (no false positives), and
//! each deliberately broken lowering must produce exactly the diagnostic
//! that seam exists to catch — a mis-folded bound program (flipped
//! operand order) of the volume kernel and of a compiled flux kernel, a
//! mis-bound one (wrong load offset, wrong folded constant, two function
//! coefficients swapped), an empty or `r0`-less one, a compiled program
//! that no longer computes the DSL expression, a dropped IR term, and a
//! zero-width relaxation-time range.

use pbte_dsl::analysis::{self, rules};
use pbte_dsl::bytecode::{
    Alphabet, Binding, CoefFnPtr, Operand, Program, RegExpr, RegProgram, RegStmt, Unbound,
};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::ir::{self, IrNode};
use pbte_dsl::problem::{KernelTier, Problem, StepContext};
use pbte_dsl::{BoundaryCondition, GpuStrategy};
use pbte_gpu::DeviceSpec;
use pbte_mesh::grid::UniformGrid;
use pbte_mesh::Mesh;

const NDIRS: usize = 4;
const NBANDS: usize = 3;

/// The verifier seam's mini BTE problem, extended with the physical
/// ranges the interval pass seeds from.
fn declared_problem(n: usize, steps: usize) -> Problem {
    declared_problem_on(UniformGrid::new_2d(n, n, 1.0, 1.0).build(), steps)
}

/// The committed 24×24 jittered die: more face orientations than the flux
/// coefficient table holds, so the row and native tiers compile the flux.
fn jittered_mesh() -> Mesh {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/meshes/jittered_array.msh"
    );
    pbte_mesh::gmsh::parse_msh(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn declared_problem_on(mesh: Mesh, steps: usize) -> Problem {
    let mut p = Problem::new("declared-mini-bte");
    p.domain(2);
    p.mesh(mesh);
    p.set_steps(0.01, steps);
    let d = p.index("d", NDIRS);
    let b = p.index("b", NBANDS);
    let i_var = p.variable("I", &[d, b]);
    let io = p.variable("Io", &[b]);
    let beta = p.variable("beta", &[b]);
    let t_var = p.variable("T", &[]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
    p.coefficient_array("vg", &[b], vec![1.0, 0.7, 0.4]);
    p.initial(i_var, |_, idx| 1.0 + 0.1 * idx[0] as f64);
    p.initial(io, |_, _| 1.0);
    p.initial(beta, |_, _| 0.5);
    p.initial(t_var, |_, _| 1.0);
    p.declare_range("I", 0.5, 2.0);
    p.declare_range("Io", 0.5, 2.0);
    p.declare_range("beta", 0.1, 1.0);
    p.boundary(
        i_var,
        "left",
        BoundaryCondition::callback_reading(&[], |q| 1.5 + 0.05 * q.idx[1] as f64),
    );
    p.boundary(i_var, "right", BoundaryCondition::Value(1.0));
    for region in ["top", "bottom"] {
        p.boundary(
            i_var,
            region,
            BoundaryCondition::callback_reading(&["I"], |q| {
                let r = match q.idx[0] {
                    1 => 3,
                    3 => 1,
                    other => other,
                };
                let i_id = q.fields.var_id("I").unwrap();
                q.fields.value(i_id, q.owner_cell, r * NBANDS + q.idx[1])
            }),
        );
    }
    p.post_step(
        "temperature",
        &["I", "T"],
        &["T", "Io", "beta"],
        move |ctx: &mut StepContext| {
            let n_cells = ctx.fields.n_cells;
            for cell in 0..n_cells {
                let mut e = 0.0;
                for dd in 0..NDIRS {
                    for bb in 0..NBANDS {
                        e += ctx.fields.value(0, cell, dd * NBANDS + bb);
                    }
                }
                let t = e / (NDIRS * NBANDS) as f64;
                ctx.fields.set(3, cell, 0, t);
                for bb in 0..NBANDS {
                    ctx.fields.set(1, cell, bb, t);
                    ctx.fields.set(2, cell, bb, 0.5 + 0.01 * t);
                }
            }
        },
    );
    p.conservation_form(
        i_var,
        "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    );
    p
}

fn all_targets() -> Vec<ExecTarget> {
    vec![
        ExecTarget::CpuSeq,
        ExecTarget::CpuParallel,
        ExecTarget::DistCells { ranks: 3 },
        ExecTarget::DistBands {
            ranks: 3,
            index: "b".into(),
        },
        ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
        ExecTarget::DistBandsGpu {
            ranks: 3,
            index: "b".into(),
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
    ]
}

#[test]
fn translation_and_intervals_prove_clean_on_every_target_and_tier() {
    for target in all_targets() {
        for tier in KernelTier::ALL {
            let mut p = declared_problem(6, 2);
            p.kernel_tier(tier);
            let solver = p.build(target.clone()).unwrap();
            let mut diags = Vec::new();
            analysis::check_translation(&solver.compiled, &solver.target, &mut diags);
            analysis::check_intervals(&solver.compiled, &mut diags);
            assert!(
                diags.is_empty(),
                "{target:?}/{tier:?} should prove clean, got: {:?}",
                diags.iter().map(|d| d.render()).collect::<Vec<_>>()
            );
        }
    }
}

/// `reg` with the operands of its first statement that folded a constant or
/// a load swapped.
fn flip_first_folded_operands(reg: RegProgram) -> RegProgram {
    let mut stmts = reg.stmts().to_vec();
    let ab = stmts
        .iter_mut()
        .find_map(|s| match &mut s.expr {
            RegExpr::Add(ab) | RegExpr::Mul(ab) if ab.iter().any(|o| o.reg().is_none()) => Some(ab),
            _ => None,
        })
        .expect("the lowered program folds at least one operand");
    ab.swap(0, 1);
    RegProgram::from_raw_parts(stmts, reg.n_regs())
}

/// `reg` with the first operand `pick` selects replaced by what `change`
/// makes of it.
fn change_first(
    reg: RegProgram,
    pick: impl Fn(&Operand) -> bool,
    change: impl Fn(&mut Operand),
) -> RegProgram {
    let mut stmts = reg.stmts().to_vec();
    let operand = stmts
        .iter_mut()
        .flat_map(|s| s.expr.operands_mut())
        .find(|o| pick(o))
        .expect("the lowered program has such an operand");
    change(operand);
    RegProgram::from_raw_parts(stmts, reg.n_regs())
}

/// The rules `check_lowered` fires on `cp` when `tamper` corrupts every
/// binding of `program` it proves (every binding when `program` is
/// `None`).
fn lowered_rules(
    cp: &pbte_dsl::exec::CompiledProblem,
    program: Option<&Program>,
    tamper: impl Fn(RegProgram) -> RegProgram,
) -> Vec<(&'static str, String)> {
    let bind = |p: &Program, binding: &Binding| {
        let reg = p.bind(binding);
        match program {
            Some(only) if !std::ptr::eq(p, only) => reg,
            _ => tamper(reg),
        }
    };
    let mut diags = Vec::new();
    analysis::check_lowered(cp, &bind, &mut diags);
    diags.into_iter().map(|d| (d.rule, d.location)).collect()
}

fn rules_of(found: &[(&'static str, String)]) -> Vec<&'static str> {
    found.iter().map(|(rule, _)| *rule).collect()
}

/// Swap the operands of the first folded statement — exactly the bug the
/// raw (non-canonicalized) Reg ≡ bound Reg proof exists to catch, because the
/// commuted product is *algebraically* equal.
#[test]
fn misfused_reg_program_fires_exactly_the_reg_rule() {
    let solver = declared_problem(6, 2).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    assert!(
        lowered_rules(cp, None, |reg| reg).is_empty(),
        "untampered program must prove clean"
    );
    let found = lowered_rules(cp, None, flip_first_folded_operands);
    assert_eq!(rules_of(&found), [rules::TRANSLATION_REG], "{found:?}");
}

/// The bugs of the fold itself: a load that reads the next flat's row and
/// a folded constant off by one each fire `translation/reg-mismatch`, and
/// only it — the compiled program is executed under the fold the flat
/// should have had.
#[test]
fn misbound_reg_program_fires_exactly_the_reg_rule() {
    let solver = declared_problem(6, 2).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let n_cells = cp.mesh().n_cells();
    let is_load = |o: &Operand| matches!(o, Operand::Load { .. });
    let wrong_offset = |reg| {
        change_first(reg, is_load, |o| {
            if let Operand::Load { offset, .. } = o {
                *offset += n_cells;
            }
        })
    };
    let found = lowered_rules(cp, None, wrong_offset);
    assert_eq!(rules_of(&found), [rules::TRANSLATION_REG], "{found:?}");

    let is_constant = |o: &Operand| matches!(o, Operand::K(_));
    let wrong_constant = |reg| {
        change_first(reg, is_constant, |o| {
            if let Operand::K(k) = o {
                *k += 1.0;
            }
        })
    };
    let found = lowered_rules(cp, None, wrong_constant);
    assert_eq!(rules_of(&found), [rules::TRANSLATION_REG], "{found:?}");
}

/// A lowering that leaves no value in `r0` — no statement at all, or none
/// writing `r0` — fires `translation/reg-mismatch`, and only it: the
/// native tier prints `out = r0`, so the proof it runs before rustc
/// refuses both.
#[test]
fn empty_and_r0_less_lowerings_fire_exactly_the_reg_rule() {
    let solver = declared_problem(6, 2).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let never_r0 = RegStmt {
        dst: 1,
        expr: RegExpr::Copy(Operand::K(1.0)),
    };
    for stmts in [vec![], vec![never_r0]] {
        let found = lowered_rules(cp, None, |_| RegProgram::from_raw_parts(stmts.clone(), 2));
        assert_eq!(rules_of(&found), [rules::TRANSLATION_REG], "{found:?}");
        assert!(found[0].1.starts_with("volume kernel (row, flat 0)"));
    }
}

/// The same corruption in a *flux* program. On the jittered mesh the row
/// and native tiers run the flux through its own register program, so
/// `check_translation` proves that lowering too; a register lowering that
/// mis-folds flux programs only (volume programs pass through untouched)
/// must fire the row rule, on a flux kernel. The native tier refuses such
/// a list before compiling it: `prepare` runs the very check that fires
/// here.
#[test]
fn misfused_flux_program_fires_the_reg_rule() {
    let solver = declared_problem_on(jittered_mesh(), 2)
        .build(ExecTarget::CpuSeq)
        .unwrap();
    let cp = &solver.compiled;
    assert!(cp.flux_lin.is_none(), "the mesh must not fit the table");

    let mut clean = Vec::new();
    analysis::check_translation(cp, &solver.target, &mut clean);
    analysis::check_intervals(cp, &mut clean);
    assert!(
        clean.is_empty(),
        "untampered plan must prove clean, got: {:?}",
        clean.iter().map(|d| d.render()).collect::<Vec<_>>()
    );

    let found = lowered_rules(cp, Some(&cp.flux), flip_first_folded_operands);
    assert_eq!(rules_of(&found), [rules::TRANSLATION_REG], "{found:?}");
    assert!(found[0].1.starts_with("flux kernel"), "{found:?}");
}

/// A kernel that evaluates two function coefficients: a binding that
/// swaps them — whole evaluations, or only the functions they call — runs
/// the wrong field on the row tier, and fires `translation/reg-mismatch`,
/// and only it: the proof keys each evaluation by its coefficient.
#[test]
fn swapped_function_coefficients_fire_exactly_the_reg_rule() {
    let mut p = declared_problem(6, 2);
    p.coefficient_fn("ramp", |x, _| 1.0 + x.x);
    p.coefficient_fn("tilt", |x, _| 2.0 - x.y);
    let i_var = p.registry.variable_id("I").unwrap();
    p.equation = None;
    p.conservation_form(
        i_var,
        "(Io[b] - I[d,b]) * beta[b] * ramp + tilt * Io[b] \
         + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    );
    let solver = p.build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    assert!(lowered_rules(cp, None, |reg| reg).is_empty());

    let swap = |whole: bool| {
        move |reg: RegProgram| {
            let mut stmts = reg.stmts().to_vec();
            let calls: Vec<(usize, u16, CoefFnPtr)> = (stmts.iter().enumerate())
                .filter_map(|(i, s)| match &s.expr {
                    RegExpr::CoefFn { coef, f } => Some((i, *coef, f.clone())),
                    _ => None,
                })
                .collect();
            let (a, ca, fa) = calls[0].clone();
            let (b, cb, fb) = (calls.iter())
                .find(|(_, coef, _)| *coef != ca)
                .cloned()
                .expect("the volume kernel evaluates two function coefficients");
            let (ka, kb) = if whole { (cb, ca) } else { (ca, cb) };
            stmts[a].expr = RegExpr::CoefFn { coef: ka, f: fb };
            stmts[b].expr = RegExpr::CoefFn { coef: kb, f: fa };
            RegProgram::from_raw_parts(stmts, reg.n_regs())
        }
    };
    for whole in [true, false] {
        let found = lowered_rules(cp, Some(&cp.volume), swap(whole));
        assert_eq!(rules_of(&found), [rules::TRANSLATION_REG], "{found:?}");
        assert!(found[0].1.starts_with("volume kernel"), "{found:?}");
    }
}

/// A compiled program that reads `Io` where the DSL reads `beta`: the
/// `vm` tier would compute another equation, and every binding of it
/// agrees with it, so only the DSL ≡ Reg link can see it — and it fires
/// `translation/vm-mismatch`, and nothing else.
#[test]
fn a_compiled_program_off_the_dsl_fires_exactly_the_vm_rule() {
    let mut solver = declared_problem(6, 2).build(ExecTarget::CpuSeq).unwrap();
    let registry = &solver.compiled.problem.registry;
    let [io, beta] = ["Io", "beta"].map(|name| registry.variable_id(name).unwrap() as u16);
    let plan = solver.compiled.plan_mut();
    let read = plan
        .volume
        .stmts
        .iter_mut()
        .flat_map(|s| s.expr.operands_mut());
    let beta_read = read
        .filter_map(|o| match o {
            Unbound::Var { var, .. } if *var == beta => Some(var),
            _ => None,
        })
        .next()
        .expect("the volume term reads beta");
    *beta_read = io;

    let mut diags = Vec::new();
    analysis::check_translation(&solver.compiled, &solver.target, &mut diags);
    let fired: Vec<_> = diags
        .iter()
        .map(|d| (d.rule, d.location.as_str()))
        .collect();
    assert_eq!(
        fired,
        [(rules::TRANSLATION_VM, "volume kernel (vm, flat 0)")],
        "{:?}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>()
    );
}

/// Replace the IR's source statement with one that dropped its terms; the
/// parse-back proof must pinpoint the statement, and only it.
#[test]
fn dropped_ir_term_fires_exactly_the_ir_rule() {
    fn tamper(node: &IrNode) -> IrNode {
        match node {
            IrNode::Stmt(s) if s.starts_with("source = ") => IrNode::Stmt("source = 0".into()),
            IrNode::Block(b) => IrNode::Block(b.iter().map(tamper).collect()),
            IrNode::TimeLoop(b) => IrNode::TimeLoop(b.iter().map(tamper).collect()),
            IrNode::FaceLoop(b) => IrNode::FaceLoop(b.iter().map(tamper).collect()),
            IrNode::Loop { dim, body } => IrNode::Loop {
                dim: dim.clone(),
                body: body.iter().map(tamper).collect(),
            },
            IrNode::Kernel {
                name,
                flattened,
                body,
            } => IrNode::Kernel {
                name: name.clone(),
                flattened: flattened.clone(),
                body: body.iter().map(tamper).collect(),
            },
            other => other.clone(),
        }
    }

    let solver = declared_problem(6, 2).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let ir_root = ir::build_ir(cp, &solver.target);

    let mut clean = Vec::new();
    analysis::check_ir(cp, &ir_root, &mut clean);
    assert!(clean.is_empty(), "untampered IR must prove clean");

    let mut diags = Vec::new();
    analysis::check_ir(cp, &tamper(&ir_root), &mut diags);
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one diagnostic, got: {:?}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>()
    );
    assert_eq!(diags[0].rule, rules::TRANSLATION_IR);
}

/// A relaxation-time entity declared with a zero-width range [0, 0] makes
/// the kernel's `1/tau` a proven division by zero — and nothing else.
#[test]
fn zero_width_relaxation_range_fires_exactly_div_by_zero() {
    let mut p = Problem::new("tau-mini");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(4, 4, 1.0, 1.0).build());
    p.set_steps(1e-3, 2);
    let d = p.index("d", NDIRS);
    let b = p.index("b", NBANDS);
    let i_var = p.variable("I", &[d, b]);
    let io = p.variable("Io", &[b]);
    let tau = p.variable("tau", &[b]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
    p.coefficient_array("vg", &[b], vec![1.0, 0.7, 0.4]);
    p.initial(i_var, |_, _| 1.0);
    p.initial(io, |_, _| 1.0);
    p.initial(tau, |_, _| 1.0);
    p.boundary(i_var, "left", BoundaryCondition::Value(1.0));
    p.boundary(i_var, "right", BoundaryCondition::Value(1.0));
    p.boundary(i_var, "top", BoundaryCondition::Value(1.0));
    p.boundary(i_var, "bottom", BoundaryCondition::Value(1.0));
    p.conservation_form(
        i_var,
        "(Io[b] - I[d,b]) / tau[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    );
    p.declare_range("I", 0.5, 2.0);
    p.declare_range("Io", 0.5, 2.0);
    p.declare_range("tau", 0.0, 0.0);

    let solver = p.build(ExecTarget::CpuSeq).unwrap();
    let mut diags = Vec::new();
    analysis::check_intervals(&solver.compiled, &mut diags);
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one diagnostic, got: {:?}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>()
    );
    assert_eq!(diags[0].rule, rules::INTERVAL_DIV_BY_ZERO);
}
