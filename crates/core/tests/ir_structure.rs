//! Structural tests on the intermediate representation itself (the paper:
//! the IR "includes metadata about the parts of the computation and
//! comment nodes to facilitate generation of easily readable code").

use pbte_dsl::codegen;
use pbte_dsl::exec::{CompiledProblem, ExecTarget};
use pbte_dsl::ir::{build_ir, IrNode, LoopDim};
use pbte_dsl::problem::{BoundaryCondition, GpuStrategy, Integrator, Problem};
use pbte_gpu::DeviceSpec;
use pbte_mesh::grid::UniformGrid;

fn problem() -> Problem {
    let mut p = Problem::new("ir");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(4, 4, 1.0, 1.0).build());
    p.set_steps(1e-3, 3);
    let d = p.index("d", 2);
    let b = p.index("b", 3);
    let i = p.variable("I", &[d, b]);
    let _ = p.variable("Io", &[b]);
    let _ = p.variable("beta", &[b]);
    p.coefficient_array("Sx", &[d], vec![1.0, -1.0]);
    p.coefficient_array("Sy", &[d], vec![0.5, -0.5]);
    p.coefficient_array("vg", &[b], vec![1.0, 2.0, 3.0]);
    // One wall stays a user callback (the host evaluates its ghosts every
    // sweep); the constants are lowered into the plan.
    p.boundary(
        i,
        "left",
        BoundaryCondition::callback_reading(&[], |q| q.time),
    );
    for region in ["right", "top", "bottom"] {
        p.boundary(i, region, BoundaryCondition::Value(0.0));
    }
    p.post_step("temperature_update", &["I"], &["Io", "beta"], |_| {});
    p.conservation_form(
        i,
        "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    );
    p
}

fn compiled() -> CompiledProblem {
    CompiledProblem::compile(problem()).unwrap().0
}

/// Count nodes matching a predicate anywhere in the tree.
fn count(node: &IrNode, pred: &dyn Fn(&IrNode) -> bool) -> usize {
    let mut n = usize::from(pred(node));
    let children: Vec<&IrNode> = match node {
        IrNode::Block(b) | IrNode::TimeLoop(b) | IrNode::FaceLoop(b) => b.iter().collect(),
        IrNode::Loop { body, .. } | IrNode::Kernel { body, .. } => body.iter().collect(),
        _ => Vec::new(),
    };
    for c in children {
        n += count(c, pred);
    }
    n
}

#[test]
fn cpu_ir_has_one_time_loop_and_the_full_nest() {
    let cp = compiled();
    let ir = build_ir(&cp, &ExecTarget::CpuSeq);
    assert_eq!(count(&ir, &|n| matches!(n, IrNode::TimeLoop(_))), 1);
    // The nest: d + b + cells = three loop dims.
    assert_eq!(count(&ir, &|n| matches!(n, IrNode::Loop { .. })), 3);
    assert_eq!(count(&ir, &|n| matches!(n, IrNode::FaceLoop(_))), 1);
    // Comment nodes exist (the paper's readable-code requirement).
    assert!(count(&ir, &|n| matches!(n, IrNode::Comment(_))) >= 2);
    // Callbacks: boundary ghosts + post step.
    assert!(count(&ir, &|n| matches!(n, IrNode::Callback(_))) >= 2);
    // The nest states what runs: the scope's flats outermost (the
    // unknown's indices in declaration order), a tile's cells innermost.
    let mut dims = Vec::new();
    ir.visit(&mut |n| {
        if let IrNode::Loop { dim, .. } = n {
            dims.push(dim.clone());
        }
    });
    let index = |name: &str| LoopDim::Index(name.into());
    assert_eq!(dims, [index("d"), index("b"), LoopDim::Cells]);
}

#[test]
fn gpu_ir_flattens_the_nest_into_a_kernel() {
    let cp = compiled();
    let ir = build_ir(
        &cp,
        &ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
    );
    // Exactly one kernel, no host loop nest inside the time loop.
    assert_eq!(count(&ir, &|n| matches!(n, IrNode::Kernel { .. })), 1);
    assert_eq!(count(&ir, &|n| matches!(n, IrNode::Loop { .. })), 0);
    // The kernel's flattened dims cover the whole nest.
    fn kernel_dims(node: &IrNode) -> Option<usize> {
        match node {
            IrNode::Kernel { flattened, .. } => Some(flattened.len()),
            IrNode::Block(b) | IrNode::TimeLoop(b) => b.iter().find_map(kernel_dims),
            _ => None,
        }
    }
    assert_eq!(kernel_dims(&ir), Some(3));
    // Transfers appear both as setup (once) and per-step.
    assert!(count(&ir, &|n| matches!(n, IrNode::Transfer { .. })) >= 4);
}

#[test]
fn distributed_irs_carry_their_communication_nodes() {
    let cp = compiled();
    let cells = build_ir(&cp, &ExecTarget::DistCells { ranks: 4 });
    assert_eq!(count(&cells, &|n| matches!(n, IrNode::Communicate(_))), 1);
    let bands = build_ir(
        &cp,
        &ExecTarget::DistBands {
            ranks: 3,
            index: "b".into(),
        },
    );
    assert_eq!(count(&bands, &|n| matches!(n, IrNode::Communicate(_))), 1);
    // Band IR puts the partitioned index outermost.
    fn first_loop(node: &IrNode) -> Option<&LoopDim> {
        match node {
            IrNode::Loop { dim, .. } => Some(dim),
            IrNode::Block(b) | IrNode::TimeLoop(b) => b.iter().find_map(first_loop),
            _ => None,
        }
    }
    assert_eq!(first_loop(&bands), Some(&LoopDim::Index("b".into())));
}

/// The generated source names the scheme the problem runs, once: each of
/// the four integrators renders its own time-integration comment.
#[test]
fn the_rendered_source_names_the_scheme_it_runs() {
    let schemes = [
        (Integrator::Explicit, "time integration: forward Euler\n"),
        (Integrator::Rk2, "time integration: explicit RK2 (Heun)\n"),
        (
            Integrator::Implicit { theta: 0.5 },
            "time integration: implicit θ-scheme (θ = 0.5), Newton–Krylov\n",
        ),
        (
            Integrator::Steady {
                tol: 1e-6,
                growth: 2.0,
            },
            "time integration: steady state, pseudo-transient backward Euler (tol 1e-6, growth 2)\n",
        ),
    ];
    for (integrator, name) in schemes {
        let mut p = problem();
        p.integrator(integrator);
        let cp = CompiledProblem::compile(p).unwrap().0;
        let source = codegen::render(&cp, &ExecTarget::CpuSeq);
        let lines: Vec<&str> = source.matches("time integration:").collect();
        assert_eq!(lines.len(), 1, "{integrator:?}:\n{source}");
        assert!(source.contains(name), "{integrator:?}:\n{source}");
    }
}
