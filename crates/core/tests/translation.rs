//! Negative-test seam for the translation validator and the interval
//! safety pass, mirroring the verifier's seam tests: the shipped plans
//! must prove clean on every target and tier (no false positives), and
//! each deliberately broken lowering must produce exactly the diagnostic
//! that seam exists to catch — a mis-fused register program (flipped
//! orientation flag) of the volume kernel and of a compiled flux kernel,
//! a mis-bound one (wrong load offset, wrong folded constant), a dropped IR
//! term, and a zero-width relaxation-time range.

use pbte_dsl::analysis::{self, rules};
use pbte_dsl::bytecode::{Binding, KernelKind, Program, RegOp, RegProgram};
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
    p.post_step_declared(
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
        ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::PrecomputeBoundary,
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

/// `reg` with the orientation flag of its first fused instruction flipped.
fn flip_first_orientation_flag(reg: &RegProgram) -> RegProgram {
    let mut ops = reg.ops().to_vec();
    let flipped = ops.iter_mut().find_map(|op| match op {
        RegOp::AddConst { const_first, .. }
        | RegOp::MulConst { const_first, .. }
        | RegOp::LoadMulConst { const_first, .. } => {
            *const_first = !*const_first;
            Some(())
        }
        RegOp::LoadMul { load_first, .. } => {
            *load_first = !*load_first;
            Some(())
        }
        _ => None,
    });
    assert!(
        flipped.is_some(),
        "expected the fused row program to contain at least one superinstruction"
    );
    RegProgram::from_raw_parts(ops, reg.n_regs())
}

/// The rules `check_reg` fires on the volume kernel's flat 0 when `reg`
/// stands for its lowering.
fn reg_rules(cp: &pbte_dsl::exec::CompiledProblem, reg: &RegProgram) -> Vec<&'static str> {
    let mut diags = Vec::new();
    let location = "volume kernel (row, flat 0)";
    analysis::check_reg(&cp.volume, &cp.binding(0, 0.0), reg, location, &mut diags);
    diags.iter().map(|d| d.rule).collect()
}

/// Flip the orientation flag of the first fused instruction found —
/// exactly the bug the raw (non-canonicalized) VM ≡ Row proof exists
/// to catch, because the commuted product is *algebraically* equal.
#[test]
fn misfused_reg_program_fires_exactly_the_reg_rule() {
    let solver = declared_problem(6, 2).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let reg = cp.bind(KernelKind::Volume, 0, 0.0);
    assert!(
        reg_rules(cp, &reg).is_empty(),
        "untampered program must prove clean"
    );
    let tampered = flip_first_orientation_flag(&reg);
    assert_eq!(reg_rules(cp, &tampered), [rules::TRANSLATION_REG]);
}

/// The bugs of the fold itself: a lowering that reads the wrong flat's row
/// (every load offset off by the rows between two flats, every folded index
/// value and coefficient of the other flat) and one that folds a wrong
/// constant each fire `translation/reg-mismatch`, and only it — the VM is
/// executed under the fold the flat should have had.
#[test]
fn misbound_reg_program_fires_exactly_the_reg_rule() {
    let solver = declared_problem(6, 2).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;

    let wrong_flat = cp.bind(KernelKind::Volume, 1, 0.0);
    let offsets = |reg: &RegProgram| -> Vec<usize> {
        let offset = |op: &RegOp| match *op {
            RegOp::Load { offset, .. }
            | RegOp::LoadMul { offset, .. }
            | RegOp::LoadMulConst { offset, .. } => Some(offset),
            _ => None,
        };
        reg.ops().iter().filter_map(offset).collect()
    };
    assert_ne!(
        offsets(&wrong_flat),
        offsets(&cp.bind(KernelKind::Volume, 0, 0.0))
    );
    assert_eq!(reg_rules(cp, &wrong_flat), [rules::TRANSLATION_REG]);

    let reg = cp.bind(KernelKind::Volume, 0, 0.0);
    let mut ops = reg.ops().to_vec();
    let k = ops
        .iter_mut()
        .find_map(|op| match op {
            RegOp::Const { k, .. }
            | RegOp::AddConst { k, .. }
            | RegOp::MulConst { k, .. }
            | RegOp::LoadMulConst { k, .. } => Some(k),
            _ => None,
        })
        .expect("the volume program folds a constant");
    *k += 1.0;
    let wrong_constant = RegProgram::from_raw_parts(ops, reg.n_regs());
    assert_eq!(reg_rules(cp, &wrong_constant), [rules::TRANSLATION_REG]);
}

/// The same flipped-orientation corruption, caught at the *native* seam:
/// the statement list the native tier renders to Rust source is abstractly
/// executed against the VM before anything reaches rustc, so a corrupted
/// lowering fires `translation/native-mismatch` — and only it — without
/// ever compiling the bad source.
#[test]
fn misfused_native_lowering_fires_exactly_the_native_rule() {
    let solver = declared_problem(6, 2).build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let binding = cp.binding(0, 0.0);
    let reg = cp.volume.lower(&binding);
    let tampered = flip_first_orientation_flag(&reg);
    let location = "volume kernel (native, flat 0)";

    let mut clean = Vec::new();
    analysis::check_native(&cp.volume, &binding, &reg, location, &mut clean);
    assert!(clean.is_empty(), "untampered lowering must prove clean");

    let mut diags = Vec::new();
    analysis::check_native(&cp.volume, &binding, &tampered, location, &mut diags);
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one diagnostic, got: {:?}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>()
    );
    assert_eq!(diags[0].rule, rules::TRANSLATION_NATIVE);
}

/// The same corruption in a *flux* program. On the jittered mesh the row
/// and native tiers run the flux through its own register program, so
/// `check_translation` proves that lowering too; a register lowering that
/// mis-fuses flux programs only (volume programs pass through untouched)
/// must fire the row rule and the native rule, each on a flux kernel.
/// The native tier refuses such a list before compiling it: `prepare`
/// runs the very check that fires here.
#[test]
fn misfused_flux_program_fires_the_reg_and_native_rules() {
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

    let misfuse_flux = |program: &Program, binding: &Binding| {
        let reg = program.lower(binding);
        if std::ptr::eq(program, &cp.flux) {
            flip_first_orientation_flag(&reg)
        } else {
            reg
        }
    };
    let mut diags = Vec::new();
    analysis::check_lowered(cp, &misfuse_flux, &mut diags);
    let found: Vec<_> = diags.iter().map(|d| (d.rule, &d.location)).collect();
    assert_eq!(diags.len(), 2, "{found:?}");
    assert_eq!(diags[0].rule, rules::TRANSLATION_REG, "{found:?}");
    assert_eq!(diags[1].rule, rules::TRANSLATION_NATIVE, "{found:?}");
    assert!(
        diags.iter().all(|d| d.location.starts_with("flux kernel")),
        "{found:?}"
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
