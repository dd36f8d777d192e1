//! Intermediate representation of the generated computation.
//!
//! The paper (§II-A): *"the symbolic representation … will be combined with
//! the rest of the configuration information to create a more complete
//! intermediate representation. … Unlike other such graphs, this IR also
//! includes metadata about the parts of the computation and comment nodes
//! to facilitate generation of easily readable code."*
//!
//! This IR is a loop-nest tree with comment/metadata nodes, and
//! [`build_ir`] is one map from a step's stage records
//! ([`crate::dataflow::Stage`]) to nodes: the list the executors in
//! [`crate::exec`] run is the list rendered here, so the `Transfer` nodes
//! *are* the copies the device backend makes. The renderer in
//! [`crate::codegen`] turns the tree into the human-readable generated
//! source that snapshot tests pin down.

use crate::analysis::Scope;
use crate::dataflow::{Kernel, Place, Plan, Policy, Record, Stage, Transfer};
use crate::exec::{CompiledProblem, ExecTarget};
use crate::problem::Integrator;

/// One dimension of a rendered loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopDim {
    /// The loop over mesh cells.
    Cells,
    /// A loop over a named index.
    Index(String),
}

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

/// The nest a sweep is rendered as, outermost first: what runs. A rank's
/// scope is its flats outermost — led by the partitioned index under band
/// partitioning, which is what the paper's band-outermost ordering (§III-C)
/// is here — and a tile's cells innermost.
fn nest_dims(cp: &CompiledProblem, partitioned: Option<&str>) -> Vec<LoopDim> {
    let registry = &cp.problem.registry;
    let indices = &registry.variables[cp.system.unknown].indices;
    let names = indices.iter().map(|&ix| registry.indices[ix].name.as_str());
    let mut names: Vec<&str> = names.collect();
    names.sort_by_key(|&name| Some(name) != partitioned);
    let dims = names.into_iter().map(|name| LoopDim::Index(name.into()));
    dims.chain([LoopDim::Cells]).collect()
}

/// Build the IR for a compiled problem on a target: one map from the
/// records of the step's [`Stage`] to nodes, for every target. The target
/// itself contributes only what no record describes — how the ranks are
/// cut, and the messages between them.
pub fn build_ir(cp: &CompiledProblem, target: &ExecTarget) -> IrNode {
    let scope = Scope::whole(cp);
    let stage = Stage::build(cp, Plan::Main, target, &scope);
    let transfer = |t: &Transfer| IrNode::Transfer {
        to_device: t.to_device,
        name: t.name.clone(),
        reason: t.reason.clone(),
        setup: t.policy == Policy::Once,
    };
    // (how the ranks are cut, the partitioned index, the message before
    // the sweep, the message after it)
    let unknown = &cp.system.unknown_name;
    let (cut, partitioned, halo, reduction) = match target {
        ExecTarget::CpuSeq | ExecTarget::GpuHybrid { .. } => (None, None, None, None),
        ExecTarget::CpuParallel => (
            Some("every flat's cells cut into tiles across host threads".to_string()),
            None,
            None,
            None,
        ),
        ExecTarget::DistCells { ranks } => (
            Some(format!(
                "cell-partitioned across {ranks} ranks (RCB, METIS-equivalent): \
                 each sweeps its owned cells only"
            )),
            None,
            Some(format!(
                "halo exchange: interface-cell {unknown}[*] with partition neighbors"
            )),
            None,
        ),
        ExecTarget::DistBands { ranks, index } => (
            Some(format!(
                "band-partitioned: each of {ranks} ranks owns a range of index `{index}`; \
                 no halo exchange needed"
            )),
            Some(index.as_str()),
            None,
            Some("allreduce(per-cell energy) inside temperature_update"),
        ),
        ExecTarget::DistBandsGpu { ranks, index, .. } => (
            Some(format!(
                "band-partitioned across {ranks} ranks, one GPU per process (index `{index}`)"
            )),
            Some(index.as_str()),
            None,
            None,
        ),
    };
    let dims = nest_dims(cp, partitioned);
    let is_ghost_eval = |r: &Record| matches!(r.kernel, Kernel::GhostEval { .. });
    let lowered = !stage.records.iter().any(is_ghost_eval);

    let mut step: Vec<IrNode> = halo.into_iter().map(IrNode::Communicate).collect();
    for record in &stage.records {
        match record.kernel {
            Kernel::Callback { pre, index } => step.push(IrNode::Callback(format!(
                "{}-step: {} (user callback)",
                if pre { "pre" } else { "post" },
                cp.catalog.steps[index].name,
            ))),
            Kernel::GhostEval { .. } => step.push(IrNode::Callback(
                "compute boundary ghost values (user callbacks)".into(),
            )),
            Kernel::Sweep { .. } => {
                let walls = IrNode::Comment(match lowered {
                    true => format!("{LOWERED_WALLS}; no host boundary work"),
                    false => "boundary faces read the ghost values the host computed".into(),
                });
                if record.place == Place::Device {
                    step.extend(stage.moves(Policy::EveryStep, true).map(transfer));
                    step.push(IrNode::Stmt("(launch GPU_kernel asynchronously)".into()));
                    let mut body = vec![walls];
                    body.extend(update_body(cp));
                    step.push(IrNode::Kernel {
                        name: "intensity_update".into(),
                        flattened: dims.clone(),
                        body,
                    });
                    step.extend(stage.moves(Policy::EveryStep, false).map(transfer));
                } else {
                    step.push(walls);
                    // Innermost-first build of the loop nest.
                    let mut body = update_body(cp);
                    for dim in dims.iter().rev() {
                        body = vec![IrNode::Loop {
                            dim: dim.clone(),
                            body,
                        }];
                    }
                    step.append(&mut body);
                }
                step.extend(reduction.map(|text| IrNode::Communicate(text.into())));
            }
        }
    }
    step.push(IrNode::Stmt("time += dt".into()));

    let mut nodes: Vec<IrNode> = cut.into_iter().map(IrNode::Comment).collect();
    nodes.push(IrNode::Comment(match cp.problem.integrator {
        Integrator::Explicit => "time integration: forward Euler".to_string(),
        Integrator::Rk2 => "time integration: explicit RK2 (Heun)".to_string(),
        Integrator::Implicit { theta } => {
            format!("time integration: implicit θ-scheme (θ = {theta}), Newton–Krylov")
        }
        Integrator::Steady { tol, growth } => format!(
            "time integration: steady state, pseudo-transient backward Euler (tol {tol:e}, growth {growth})"
        ),
    }));
    nodes.extend(stage.moves(Policy::Once, true).map(transfer));
    nodes.push(IrNode::TimeLoop(step));
    IrNode::Block(nodes)
}
