//! One description of a step: stage records with access modes, and the
//! host↔device data movement read off them.
//!
//! The paper: *"Given the sensitivity of communication, Finch will
//! automatically determine what variables need to be updated and
//! communicated during each step. Other values will either only be sent
//! once, or not at all."* A step is a short list of [`Record`]s — a kernel,
//! the rank's [`Scope`] as its range, each argument with how it is accessed
//! and where the record runs — built in one place, [`step_records`].
//! Everything else reads the list: the backends execute it,
//! [`crate::analysis`] folds its arguments by place into the access sets
//! the [`TransferSchedule`] is synthesized from and checked against, the
//! cost model prices the copies a [`Stage`] schedules for them, and
//! [`crate::ir`] renders it.

use crate::analysis::{synthesize_records, Scope};
use crate::entities::Registry;
use crate::exec::{CompiledProblem, ExecTarget};
use crate::problem::Integrator;

/// Name of the boundary-ghost pseudo-entity in schedules.
pub const GHOSTS: &str = "ghosts";

/// Which compiled plan a sweep evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// The primal RHS `f(u)`.
    Main,
    /// The linearization `J·v` (the JVP plan under `CompiledProblem::jvp`).
    Jvp,
}

/// Where a record runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    Host,
    Device,
}

/// How a record touches one argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
    ReadWrite,
}

/// Something a record reads or writes: a registered variable or
/// coefficient (by id), or the boundary-ghost array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    Variable(usize),
    Coefficient(usize),
    Ghosts,
}

impl Entity {
    /// The entity a schedule line names.
    pub fn named(registry: &Registry, name: &str) -> Option<Entity> {
        if name == GHOSTS {
            return Some(Entity::Ghosts);
        }
        let var = registry.variable_id(name).map(Entity::Variable);
        var.or_else(|| registry.coefficient_id(name).map(Entity::Coefficient))
    }

    pub fn name<'r>(&self, registry: &'r Registry) -> &'r str {
        match *self {
            Entity::Variable(v) => &registry.variables[v].name,
            Entity::Coefficient(c) => &registry.coefficients[c].name,
            Entity::Ghosts => GHOSTS,
        }
    }
}

/// What a record computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// One RHS sweep of `plan` over the range; with `fused_dt` it writes
    /// the Euler update `u + dt·rhs` instead of the RHS.
    Sweep { plan: Plan, fused_dt: Option<f64> },
    /// The closures of `plan`'s callback walls, evaluated into the ghosts.
    GhostEval { plan: Plan },
    /// Step callback `index` of the plan's [`crate::exec::CallbackCatalog`].
    Callback { pre: bool, index: usize },
}

/// One loop of a step: kernel, range, arguments with access modes, place.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    pub kernel: Kernel,
    pub range: &'a Scope,
    pub args: Vec<(Entity, Access)>,
    pub place: Place,
}

impl Record<'_> {
    pub fn reads(&self, entity: Entity) -> bool {
        let hit = |&(e, access): &(Entity, Access)| e == entity && access != Access::Write;
        self.args.iter().any(hit)
    }

    pub fn writes(&self, entity: Entity) -> bool {
        let hit = |&(e, access): &(Entity, Access)| e == entity && access != Access::Read;
        self.args.iter().any(hit)
    }

    /// The record's span name.
    pub fn label(&self) -> &'static str {
        match self.kernel {
            Kernel::Sweep { .. } => "sweep",
            Kernel::GhostEval { .. } => "ghost_eval",
            Kernel::Callback { .. } => "callback",
        }
    }
}

/// Whether `cp` as the `which` plan is swept once per RHS / JVP evaluation
/// of an implicit solve rather than once per step.
fn per_sweep(cp: &CompiledProblem, which: Plan) -> bool {
    which == Plan::Jvp || cp.problem.integrator.is_implicit()
}

/// The records of one step of `cp` as the `which` plan, its sweep on the
/// device (`on_device`) or on the host — the one place that decides
/// (walls lowered?) × integrator:
///
/// * a wall left to a closure puts a `GhostEval` on the host before the
///   sweep, and the sweep reads the ghosts it fills — on the device they
///   go up with it; a lowered plan has no `GhostEval`, and its sweep reads
///   the lowered image. Every sweep reads every boundary face;
/// * an implicit solve sweeps un-fused, per evaluation. Its un-fused sweep
///   still lists the unknown as written: the RHS rows it produces have
///   that shape. A JVP plan registers no step callbacks.
pub fn step_records<'a>(
    cp: &CompiledProblem,
    which: Plan,
    on_device: bool,
    range: &'a Scope,
) -> Vec<Record<'a>> {
    let registry = &cp.problem.registry;
    let unknown = Entity::Variable(cp.system.unknown);
    let named = |names: &[String], access: Access| -> Vec<(Entity, Access)> {
        let ids = names
            .iter()
            .map(|n| registry.variable_id(n).expect("resolved at compile"));
        ids.map(|v| (Entity::Variable(v), access)).collect()
    };
    let callback_wall = !cp.walls.lowered();
    let fused = !per_sweep(cp, which) && cp.problem.integrator == Integrator::Explicit;

    let record = |kernel, place, args| Record {
        kernel,
        range,
        args,
        place,
    };
    let callbacks = |pre: bool| {
        let steps = cp.catalog.steps.iter().enumerate();
        steps
            .filter(move |(_, s)| s.pre == pre)
            .map(move |(index, s)| {
                let (reads, writes) = (
                    named(&s.reads, Access::Read),
                    named(&s.writes, Access::Write),
                );
                record(
                    Kernel::Callback { pre, index },
                    Place::Host,
                    [reads, writes].concat(),
                )
            })
    };
    let mut records: Vec<Record> = callbacks(true).collect();
    if callback_wall {
        let mut args = named(&cp.catalog.boundary_reads, Access::Read);
        args.push((Entity::Ghosts, Access::Write));
        records.push(record(Kernel::GhostEval { plan: which }, Place::Host, args));
    }
    let variables = cp
        .system
        .read_variables
        .iter()
        .map(|&v| Entity::Variable(v));
    let coefficients = cp
        .system
        .read_coefficients
        .iter()
        .map(|&c| Entity::Coefficient(c));
    let reads = variables.chain(coefficients).chain([Entity::Ghosts]);
    let mut args: Vec<_> = reads
        .filter(|&e| e != unknown)
        .map(|e| (e, Access::Read))
        .collect();
    args.push((unknown, Access::ReadWrite));
    let sweep = Kernel::Sweep {
        plan: which,
        fused_dt: fused.then_some(cp.problem.dt),
    };
    let place = match on_device {
        true => Place::Device,
        false => Place::Host,
    };
    records.push(record(sweep, place, args));
    records.extend(callbacks(false));
    records
}

/// A step's records and what a device backend copies for them.
#[derive(Debug, Clone)]
pub struct Stage<'a> {
    pub records: Vec<Record<'a>>,
    /// `None` on a CPU target. A `Once` line moves before the first step;
    /// an `EveryStep` line rides with the stage's device record every time
    /// it runs — uploads before it, downloads after.
    pub schedule: Option<TransferSchedule>,
}

impl<'a> Stage<'a> {
    /// The stage `target` runs for `cp` as the `which` plan over `range`.
    /// Stepped explicitly, its schedule is the synthesized step schedule
    /// ([`synthesize_records`]); an implicit solve runs the same
    /// records per sweep and moves per sweep (`sweep_schedule`).
    pub fn build(
        cp: &CompiledProblem,
        which: Plan,
        target: &ExecTarget,
        range: &'a Scope,
    ) -> Stage<'a> {
        let on_device = target.on_device();
        let records = step_records(cp, which, on_device, range);
        let schedule = on_device.then(|| match per_sweep(cp, which) {
            true => sweep_schedule(cp, &records),
            false => synthesize_records(cp, &records),
        });
        Stage { records, schedule }
    }

    /// The positions of the records a backend runs: everything but the
    /// step callbacks.
    pub fn sweeps(&self) -> impl Iterator<Item = usize> + '_ {
        let is_callback = |at: &usize| matches!(self.records[*at].kernel, Kernel::Callback { .. });
        (0..self.records.len()).filter(move |at| !is_callback(at))
    }

    /// The scheduled copies of one policy and direction, in schedule order.
    pub fn moves(&self, policy: Policy, to_device: bool) -> impl Iterator<Item = &Transfer> {
        let mine = move |t: &&Transfer| t.policy == policy && t.to_device == to_device;
        let lines = self.schedule.iter().flat_map(|s| &s.transfers);
        lines.filter(mine)
    }
}

/// The copies of one implicit sweep. Between two sweeps the Newton–Krylov
/// driver rewrites the state (the unknown slot carries the Krylov
/// direction, callbacks rewrite the coefficient fields between steps), so
/// every variable the device sweep reads goes up with it and its result
/// rows come back; the ghosts go up with it while a `GhostEval` rewrites
/// them, once when the image is lowered; coefficients are immutable.
fn sweep_schedule(cp: &CompiledProblem, records: &[Record]) -> TransferSchedule {
    let on = |place: Place| records.iter().filter(move |r| r.place == place);
    let ghosts_rewritten = on(Place::Host).any(|r| r.writes(Entity::Ghosts));
    let mut transfers = Vec::new();
    for &(entity, access) in on(Place::Device).flat_map(|r| &r.args) {
        let line = |to_device: bool, policy: Policy, reason: &str| Transfer {
            name: entity.name(&cp.problem.registry).to_string(),
            to_device,
            policy,
            reason: reason.to_string(),
        };
        let rewritten = match entity {
            Entity::Variable(_) => true,
            Entity::Ghosts => ghosts_rewritten,
            Entity::Coefficient(_) => false,
        };
        if access != Access::Write {
            transfers.push(match rewritten {
                true => line(
                    true,
                    Policy::EveryStep,
                    "rewritten on the host between sweeps",
                ),
                false => line(true, Policy::Once, "immutable: resident on the device"),
            });
        }
        if access != Access::Read {
            let reason = "the sweep's result rows return to the solver";
            transfers.push(line(false, Policy::EveryStep, reason));
        }
    }
    TransferSchedule { transfers }
}

/// When a piece of data moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Once,
    EveryStep,
    Never,
}

/// One planned transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Entity name (variable, coefficient, or the ghost array).
    pub name: String,
    /// True = host→device.
    pub to_device: bool,
    pub policy: Policy,
    /// Why the analysis decided this (rendered into the generated code as
    /// a comment, like Finch's annotated output).
    pub reason: String,
}

/// The complete schedule of a device step.
#[derive(Debug, Clone)]
pub struct TransferSchedule {
    pub transfers: Vec<Transfer>,
}

impl TransferSchedule {
    /// Names moved host→device every step.
    pub fn each_step_h2d(&self) -> Vec<&str> {
        self.transfers
            .iter()
            .filter(|t| t.to_device && t.policy == Policy::EveryStep)
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Names moved device→host every step.
    pub fn each_step_d2h(&self) -> Vec<&str> {
        self.transfers
            .iter()
            .filter(|t| !t.to_device && t.policy == Policy::EveryStep)
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Names moved once at setup.
    pub fn once(&self) -> Vec<&str> {
        self.transfers
            .iter()
            .filter(|t| t.policy == Policy::Once)
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Render as the comment block the generated host code carries.
    pub fn render(&self) -> String {
        let mut out = String::from("// automatic data-movement schedule:\n");
        for t in &self.transfers {
            let dir = if t.to_device { "H2D" } else { "D2H" };
            let when = match t.policy {
                Policy::Once => "once      ",
                Policy::EveryStep => "every step",
                Policy::Never => "never     ",
            };
            out.push_str(&format!(
                "//   {dir} {when} {:<12} — {}\n",
                t.name, t.reason
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{BoundaryCondition, GpuStrategy, Problem};

    /// `callback_walls`: the paper's configuration, boundary conditions as
    /// user callbacks; otherwise constants, which the plan lowers.
    fn bte_like(with_post_step: bool, callback_walls: bool) -> CompiledProblem {
        let mut p = Problem::new("bte");
        p.domain(2);
        p.mesh(pbte_mesh::grid::UniformGrid::new_2d(2, 2, 1.0, 1.0).build());
        let d = p.index("d", 2);
        let b = p.index("b", 2);
        let i = p.variable("I", &[d, b]);
        let _ = p.variable("Io", &[b]);
        let _ = p.variable("beta", &[b]);
        p.coefficient_array("Sx", &[d], vec![1.0, -1.0]);
        p.coefficient_array("Sy", &[d], vec![0.0, 0.0]);
        p.coefficient_array("vg", &[b], vec![1.0, 2.0]);
        p.conservation_form(
            i,
            "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
        );
        for region in ["left", "right", "top", "bottom"] {
            p.boundary(
                i,
                region,
                if callback_walls {
                    BoundaryCondition::callback_reading(&[], |_| 0.0)
                } else {
                    BoundaryCondition::Value(0.0)
                },
            );
        }
        if with_post_step {
            p.post_step("temperature_update", &["I"], &["Io", "beta"], |_| {});
        }
        CompiledProblem::compile(p).unwrap().0
    }

    fn schedule(with_post_step: bool, callback_walls: bool) -> TransferSchedule {
        bte_like(with_post_step, callback_walls).transfer_schedule()
    }

    #[test]
    fn a_post_step_keeps_the_unknown_device_resident() {
        let s = schedule(true, true);
        let h2d = s.each_step_h2d();
        assert!(!h2d.contains(&"I"), "unknown must stay on the device");
        assert!(h2d.contains(&"ghosts"));
        assert!(h2d.contains(&"Io") && h2d.contains(&"beta"));
        assert_eq!(s.each_step_d2h(), vec!["I"]);
        // Coefficients only once.
        let once = s.once();
        assert!(once.contains(&"Sx") && once.contains(&"Sy") && once.contains(&"vg"));
        assert!(!h2d.contains(&"vg"));
    }

    #[test]
    fn no_post_step_means_static_variables() {
        let s = schedule(false, true);
        assert!(s.each_step_h2d().iter().all(|&n| n == "ghosts"));
        assert!(s.each_step_d2h().is_empty());
        let once = s.once();
        assert!(once.contains(&"Io"));
        assert!(once.contains(&"beta"));
    }

    /// With every wall lowered no host code touches the boundary: the
    /// unknown and the ghost image go up once, and the device stage
    /// carries the plan's one schedule.
    #[test]
    fn lowered_walls_leave_both_strategies_one_schedule() {
        let cp = bte_like(true, false);
        let scope = Scope::whole(&cp);
        let spec = pbte_gpu::DeviceSpec::a6000();
        let strategy = GpuStrategy::AsyncBoundary;
        let target = ExecTarget::GpuHybrid { spec, strategy };
        let a = Stage::build(&cp, Plan::Main, &target, &scope)
            .schedule
            .unwrap();
        assert_eq!(a.transfers, cp.transfer_schedule().transfers);
        let h2d = a.each_step_h2d();
        assert!(!h2d.contains(&"I") && !h2d.contains(&"ghosts"));
        assert!(h2d.contains(&"Io") && h2d.contains(&"beta"));
        assert!(a.once().contains(&"I") && a.once().contains(&"ghosts"));
        assert_eq!(a.each_step_d2h(), vec!["I"]);
    }

    #[test]
    fn render_mentions_every_transfer() {
        let s = schedule(true, true);
        let text = s.render();
        for t in &s.transfers {
            assert!(text.contains(&t.name));
        }
        assert!(text.contains("H2D"));
        assert!(text.contains("D2H"));
    }
}
