//! Intermediate representation of the generated computation.
//!
//! The paper (§II-A): *"the symbolic representation … will be combined with
//! the rest of the configuration information to create a more complete
//! intermediate representation. … Unlike other such graphs, this IR also
//! includes metadata about the parts of the computation and comment nodes
//! to facilitate generation of easily readable code."*
//!
//! This IR is a loop-nest tree with comment/metadata nodes. The executors
//! in [`crate::exec`] are the compiled embodiment of these trees (their
//! structure is constructed from the same configuration); the renderer in
//! [`crate::codegen`] turns the tree into the human-readable generated
//! source that snapshot tests pin down.

use crate::exec::{CompiledProblem, ExecTarget};
use crate::problem::{GpuStrategy, LoopDim, TimeStepper};

/// One IR node.
#[derive(Debug, Clone, PartialEq)]
pub enum IrNode {
    /// A transparent sequence of nodes (the tree root).
    Block(Vec<IrNode>),
    /// A human-oriented comment carried into the generated source.
    Comment(String),
    /// The sequential time-step loop.
    TimeLoop(Vec<IrNode>),
    /// A loop over a dimension (cells or a named index).
    Loop { dim: LoopDim, body: Vec<IrNode> },
    /// The loop over the faces of the current cell.
    FaceLoop(Vec<IrNode>),
    /// A rendered statement.
    Stmt(String),
    /// A flattened GPU kernel covering the given dimensions.
    Kernel {
        name: String,
        flattened: Vec<LoopDim>,
        body: Vec<IrNode>,
    },
    /// A host↔device transfer. Structured so the static analyzer can
    /// cross-check the IR against the [`crate::dataflow::TransferSchedule`]
    /// it was generated from; the renderer reconstructs the text form.
    Transfer {
        /// True = host→device.
        to_device: bool,
        /// Entity name (variable, coefficient, or the ghost array).
        name: String,
        /// The schedule's reason string.
        reason: String,
        /// True for one-time setup transfers (before the time loop).
        setup: bool,
    },
    /// A call into user-supplied host code.
    Callback(String),
    /// Distributed-memory communication.
    Communicate(String),
}

impl IrNode {
    /// Depth-first walk over the tree, visiting every node.
    pub fn visit(&self, f: &mut impl FnMut(&IrNode)) {
        f(self);
        match self {
            IrNode::Block(body)
            | IrNode::TimeLoop(body)
            | IrNode::FaceLoop(body)
            | IrNode::Loop { body, .. }
            | IrNode::Kernel { body, .. } => {
                for n in body {
                    n.visit(f);
                }
            }
            IrNode::Comment(_)
            | IrNode::Stmt(_)
            | IrNode::Transfer { .. }
            | IrNode::Callback(_)
            | IrNode::Communicate(_) => {}
        }
    }
}

/// Build the IR for a compiled problem on a target.
pub fn build_ir(cp: &CompiledProblem, target: &ExecTarget) -> IrNode {
    match target {
        ExecTarget::CpuSeq | ExecTarget::CpuParallel => cpu_ir(cp, target),
        ExecTarget::DistCells { ranks } => dist_cells_ir(cp, *ranks),
        ExecTarget::DistBands { ranks, index } => dist_bands_ir(cp, *ranks, index),
        ExecTarget::GpuHybrid { strategy, .. } => gpu_ir(cp, *strategy, None),
        ExecTarget::DistBandsGpu {
            ranks,
            index,
            strategy,
            ..
        } => gpu_ir(cp, *strategy, Some((*ranks, index.clone()))),
    }
}

/// Statement shapes shared with the translation validator
/// (`crate::analysis::validate`), which parses the symbolic payload back
/// out of the rendered statements. Keeping the prefixes here means the IR
/// builder and the validator cannot drift apart silently.
pub(crate) const SOURCE_STMT_PREFIX: &str = "source = ";
pub(crate) const FLUX_STMT_PREFIX: &str = "flux += faceArea * (";
pub(crate) const FLUX_STMT_SUFFIX: &str = ")";

/// The forward-Euler update statement for an unknown named `u`.
pub(crate) fn update_stmt(u: &str) -> String {
    format!("{u}_new = {u} + dt * (source - flux / cellVolume)")
}

/// The per-dof update statements shared by every target.
fn update_body(cp: &CompiledProblem) -> Vec<IrNode> {
    vec![
        IrNode::Comment("volume source terms".into()),
        IrNode::Stmt(format!("{SOURCE_STMT_PREFIX}{}", cp.system.volume_expr)),
        IrNode::Stmt("flux = 0".into()),
        IrNode::FaceLoop(vec![
            IrNode::Comment("first-order upwind flux through this face".into()),
            IrNode::Stmt(format!(
                "{FLUX_STMT_PREFIX}{}{FLUX_STMT_SUFFIX}",
                cp.system.flux_expr
            )),
        ]),
        IrNode::Stmt(update_stmt(&cp.system.unknown_name)),
    ]
}

/// What the lowered walls look like from inside a sweep.
const LOWERED_WALLS: &str =
    "boundary faces read the lowered wall tables (ghost image, same-cell gather)";

/// The boundary node that opens a host step: the callback that evaluates
/// the ghosts of the walls left to closures — or, on a plan whose walls
/// are all lowered, a comment: no host code runs for the boundary.
fn boundary_node(cp: &CompiledProblem, callback: &str) -> IrNode {
    if cp.walls.lowered() {
        IrNode::Comment(format!("{LOWERED_WALLS}; no host boundary work"))
    } else {
        IrNode::Callback(callback.into())
    }
}

fn stepper_comment(cp: &CompiledProblem) -> IrNode {
    IrNode::Comment(match cp.problem.stepper {
        TimeStepper::EulerExplicit => "time integration: forward Euler".to_string(),
        TimeStepper::Rk2 => "time integration: explicit RK2 (Heun)".to_string(),
    })
}

fn cpu_ir(cp: &CompiledProblem, target: &ExecTarget) -> IrNode {
    let order = cp.problem.effective_loop_order(cp.system.unknown);
    // Innermost-first build of the loop nest.
    let mut body = update_body(cp);
    for dim in order.iter().rev() {
        body = vec![IrNode::Loop {
            dim: dim.clone(),
            body,
        }];
    }
    let mut step = vec![boundary_node(
        cp,
        "compute boundary ghost values (user callbacks)",
    )];
    step.append(&mut body);
    step.push(IrNode::Callback(
        "post-step: temperature_update (user callback)".into(),
    ));
    step.push(IrNode::Stmt("time += dt".into()));
    let mut nodes = vec![stepper_comment(cp)];
    if matches!(target, ExecTarget::CpuParallel) {
        nodes.push(IrNode::Comment(
            "outer dimension distributed across host threads".into(),
        ));
    }
    nodes.push(IrNode::TimeLoop(step));
    IrNode::Block(nodes)
}

fn dist_cells_ir(cp: &CompiledProblem, ranks: usize) -> IrNode {
    let mut step = vec![
        IrNode::Communicate(format!(
            "halo exchange: interface-cell {}[*] with partition neighbors",
            cp.system.unknown_name
        )),
        boundary_node(cp, "compute boundary ghost values (user callbacks)"),
        IrNode::Loop {
            dim: LoopDim::Cells,
            body: {
                let mut b = vec![IrNode::Comment("owned cells of this rank only".into())];
                b.extend(update_body(cp));
                b
            },
        },
        IrNode::Callback("post-step on owned cells".into()),
        IrNode::Stmt("time += dt".into()),
    ];
    let mut nodes = vec![
        IrNode::Comment(format!(
            "cell-partitioned across {ranks} ranks (RCB, METIS-equivalent)"
        )),
        stepper_comment(cp),
    ];
    nodes.push(IrNode::TimeLoop(std::mem::take(&mut step)));
    IrNode::Block(nodes)
}

fn dist_bands_ir(cp: &CompiledProblem, ranks: usize, index: &str) -> IrNode {
    let step = vec![
        boundary_node(cp, "compute boundary ghost values for owned bands"),
        IrNode::Loop {
            dim: LoopDim::Index(index.to_string()),
            body: vec![
                IrNode::Comment("owned band range of this rank".into()),
                IrNode::Loop {
                    dim: LoopDim::Cells,
                    body: update_body(cp),
                },
            ],
        },
        IrNode::Communicate("allreduce(per-cell energy) inside temperature_update".into()),
        IrNode::Callback("post-step: temperature_update for owned bands".into()),
        IrNode::Stmt("time += dt".into()),
    ];
    IrNode::Block(vec![
        IrNode::Comment(format!(
            "band-partitioned: index `{index}` split across {ranks} ranks; \
             no halo exchange needed"
        )),
        stepper_comment(cp),
        IrNode::TimeLoop(step),
    ])
}

fn gpu_ir(cp: &CompiledProblem, strategy: GpuStrategy, dist: Option<(usize, String)>) -> IrNode {
    let order = cp.problem.effective_loop_order(cp.system.unknown);
    let schedule = cp.transfer_schedule(strategy);
    // The host stays in the boundary loop only while a callback wall
    // does; on a lowered plan both strategies are the same full-flux
    // kernel.
    let lowered = cp.walls.lowered();
    let host_combine = strategy == GpuStrategy::AsyncBoundary && !lowered;
    let mut kernel_body = update_body(cp);
    kernel_body.insert(
        0,
        IrNode::Comment(if host_combine {
            "interior faces only; boundary handled on the host".into()
        } else if lowered {
            LOWERED_WALLS.into()
        } else {
            "boundary faces read pre-computed ghost values".into()
        }),
    );
    let kernel = IrNode::Kernel {
        name: "intensity_update".into(),
        flattened: order,
        body: kernel_body,
    };
    let mut step = Vec::new();
    for t in &schedule.transfers {
        if t.policy == crate::dataflow::Policy::EveryStep && t.to_device {
            step.push(IrNode::Transfer {
                to_device: true,
                name: t.name.clone(),
                reason: t.reason.clone(),
                setup: false,
            });
        }
    }
    step.push(IrNode::Stmt("(launch GPU_kernel asynchronously)".into()));
    step.push(kernel);
    if host_combine {
        step.push(IrNode::Callback(
            "compute_boundary_contribution(u_bdry) on CPU, overlapped".into(),
        ));
    } else if !lowered {
        step.push(IrNode::Callback(
            "ghost values were pre-computed by CPU callbacks".into(),
        ));
    }
    for t in &schedule.transfers {
        if t.policy == crate::dataflow::Policy::EveryStep && !t.to_device {
            step.push(IrNode::Transfer {
                to_device: false,
                name: t.name.clone(),
                reason: t.reason.clone(),
                setup: false,
            });
        }
    }
    if host_combine {
        step.push(IrNode::Stmt("u = u_new + u_bdry".into()));
    }
    step.push(IrNode::Callback(
        "post-step: temperature_update (user callback, CPU)".into(),
    ));
    step.push(IrNode::Stmt("time += dt".into()));

    let mut nodes = Vec::new();
    if let Some((ranks, index)) = dist {
        nodes.push(IrNode::Comment(format!(
            "band-partitioned across {ranks} ranks, one GPU per process \
             (index `{index}`)"
        )));
    }
    nodes.push(stepper_comment(cp));
    for t in &schedule.transfers {
        if t.policy == crate::dataflow::Policy::Once {
            nodes.push(IrNode::Transfer {
                to_device: t.to_device,
                name: t.name.clone(),
                reason: t.reason.clone(),
                setup: true,
            });
        }
    }
    nodes.push(IrNode::TimeLoop(step));
    IrNode::Block(nodes)
}
