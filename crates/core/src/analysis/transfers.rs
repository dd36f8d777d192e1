//! Transfer-schedule proofs.
//!
//! The schedule from [`crate::dataflow`] claims to move exactly what the
//! two sides exchange. This module checks that claim against the actual
//! access sets: the device side's reads/writes come from the equation
//! analysis (already cross-checked against the compiled bytecode by
//! [`super::access`]), the host side's from the declared callback
//! catalog. Opaque callbacks widen the host sets conservatively, which
//! can only downgrade findings to warnings — a *declared* access that the
//! schedule fails to serve is always an error.
//!
//! Two rules per entity `e`:
//!
//! * **stale read** — one side reads `e` while the other is the only
//!   writer and no transfer refreshes the reader's copy. The async
//!   strategy's host combine of the unknown is structural (the executor
//!   performs it as part of the strategy, outside the schedule), so it
//!   imposes no schedule obligation of its own. Both strategies' host
//!   boundary work exists only while a callback wall does: on a plan whose
//!   walls are all lowered the host neither combines nor evaluates ghosts,
//!   the kernel reads the ghost image under either strategy, and the two
//!   derive the same sets.
//! * **redundant transfer** — `e` is moved although the receiving side
//!   never reads it before it is next overwritten (or the sending side
//!   never even writes it).

use super::{rules, Diagnostic, Severity};
use crate::dataflow::{Policy, TransferSchedule};
use crate::exec::{CompiledProblem, ExecTarget};
use crate::ir::{build_ir, IrNode};
use crate::problem::GpuStrategy;
use std::collections::BTreeSet;

/// Name of the boundary-ghost pseudo-entity in schedules.
pub(super) const GHOSTS: &str = "ghosts";

/// Per-side access sets, by entity name. `*_possible` includes the
/// conservative widening for opaque callbacks; `*_declared` only what is
/// provably accessed. Shared with the synthesis pass ([`super::synth`]),
/// which derives the schedule from these same facts — the checker below
/// then re-discharges the obligations against them independently of how
/// the schedule was produced.
pub(super) struct Sides {
    pub(super) device_reads: BTreeSet<String>,
    pub(super) device_writes: BTreeSet<String>,
    pub(super) host_reads_declared: BTreeSet<String>,
    pub(super) host_reads_possible: BTreeSet<String>,
    pub(super) host_writes_declared: BTreeSet<String>,
    pub(super) host_writes_possible: BTreeSet<String>,
}

pub(super) fn build_sides(cp: &CompiledProblem, strategy: GpuStrategy) -> Sides {
    let registry = &cp.problem.registry;
    let (var_reads, coef_reads, unknown) = cp.system.access_summary(registry);
    let all_vars: BTreeSet<String> = registry.variables.iter().map(|v| v.name.clone()).collect();

    // A lowered plan's kernel computes the full flux under either
    // strategy, reading the ghost image on its boundary faces.
    let lowered = cp.walls.lowered();
    let mut device_reads: BTreeSet<String> = var_reads.into_iter().collect();
    device_reads.extend(coef_reads);
    if strategy == GpuStrategy::PrecomputeBoundary || lowered {
        device_reads.insert(GHOSTS.into());
    }
    let device_writes: BTreeSet<String> = [unknown.clone()].into();

    let mut host_reads_declared: BTreeSet<String> = Default::default();
    let mut host_writes_declared: BTreeSet<String> = Default::default();
    let mut reads_conservative = false;
    let mut writes_conservative = false;
    match &cp.catalog.boundary_reads {
        Some(reads) => host_reads_declared.extend(reads.iter().cloned()),
        None => reads_conservative = true,
    }
    for step in &cp.catalog.steps {
        match &step.reads {
            Some(r) => host_reads_declared.extend(r.iter().cloned()),
            None => reads_conservative = true,
        }
        match &step.writes {
            Some(w) => host_writes_declared.extend(w.iter().cloned()),
            None => writes_conservative = true,
        }
    }
    // Structural host accesses of the strategies themselves, which exist
    // only while a callback wall keeps the host in the boundary loop:
    // under async-boundary the host combines the boundary contribution
    // into the unknown (a write the kernel's next step reads); under
    // precompute the host produces the ghost array the kernel consumes.
    match strategy {
        _ if lowered => {}
        GpuStrategy::AsyncBoundary => {
            host_writes_declared.insert(unknown.clone());
        }
        GpuStrategy::PrecomputeBoundary => {
            host_writes_declared.insert(GHOSTS.into());
        }
    }

    let mut host_reads_possible = host_reads_declared.clone();
    if reads_conservative {
        host_reads_possible.extend(all_vars.iter().cloned());
    }
    let mut host_writes_possible = host_writes_declared.clone();
    if writes_conservative {
        // Mirror the dataflow analyzer's own conservative assumption:
        // opaque callbacks may rewrite any variable except the unknown
        // (which only the kernel, or the async combine, writes).
        host_writes_possible.extend(all_vars.iter().filter(|v| **v != unknown).cloned());
    }
    Sides {
        device_reads,
        device_writes,
        host_reads_declared,
        host_reads_possible,
        host_writes_declared,
        host_writes_possible,
    }
}

/// Verify a transfer schedule against the problem's derived and declared
/// access sets. Public so tests can check deliberately mutated schedules.
pub fn check_schedule(cp: &CompiledProblem, schedule: &TransferSchedule) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let sides = build_sides(cp, schedule.strategy);
    let h2d_every: BTreeSet<&str> = schedule.each_step_h2d().into_iter().collect();
    let d2h_every: BTreeSet<&str> = schedule.each_step_d2h().into_iter().collect();
    let h2d_any: BTreeSet<&str> = schedule
        .transfers
        .iter()
        .filter(|t| t.to_device && t.policy != Policy::Never)
        .map(|t| t.name.as_str())
        .collect();

    // Stale reads, device side: every entity the kernel reads must be
    // uploaded — once if the host never rewrites it, every step if it
    // does.
    for e in &sides.device_reads {
        let declared_write = sides.host_writes_declared.contains(e);
        let possible_write = sides.host_writes_possible.contains(e);
        if possible_write && !h2d_every.contains(e.as_str()) {
            out.push(Diagnostic {
                severity: if declared_write {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                rule: rules::STALE_READ,
                entity: e.clone(),
                location: "device kernel read".into(),
                message: if declared_write {
                    "the host rewrites this entity every step but the schedule never \
                     re-uploads it"
                } else {
                    "an opaque host callback may rewrite this entity, which the schedule \
                     never re-uploads"
                }
                .into(),
            });
        } else if !possible_write && !h2d_any.contains(e.as_str()) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::STALE_READ,
                entity: e.clone(),
                location: "device kernel read".into(),
                message: "the kernel reads this entity but the schedule never uploads it".into(),
            });
        }
    }

    // Stale reads, host side: every device-written entity a host callback
    // reads must come back every step.
    for e in &sides.device_writes {
        let declared_read = sides.host_reads_declared.contains(e);
        let possible_read = sides.host_reads_possible.contains(e);
        if possible_read && !d2h_every.contains(e.as_str()) {
            out.push(Diagnostic {
                severity: if declared_read {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                rule: rules::STALE_READ,
                entity: e.clone(),
                location: "host callback read".into(),
                message: if declared_read {
                    "a host callback reads this device-written entity but the schedule \
                     never downloads it"
                } else {
                    "an opaque host callback may read this device-written entity, which \
                     the schedule never downloads"
                }
                .into(),
            });
        }
    }

    // Redundant transfers.
    for t in &schedule.transfers {
        if t.policy == Policy::Never {
            continue;
        }
        let loc = format!(
            "{} {} ({:?})",
            if t.to_device { "H2D" } else { "D2H" },
            t.name,
            t.policy
        );
        if t.to_device {
            if !sides.device_reads.contains(&t.name) {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    rule: rules::REDUNDANT_TRANSFER,
                    entity: t.name.clone(),
                    location: loc,
                    message: "uploaded but the device kernel never reads it".into(),
                });
            } else if t.policy == Policy::EveryStep && !sides.host_writes_possible.contains(&t.name)
            {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    rule: rules::REDUNDANT_TRANSFER,
                    entity: t.name.clone(),
                    location: loc,
                    message: "re-uploaded every step but no host code ever writes it \
                              between uploads"
                        .into(),
                });
            }
        } else if !sides.device_writes.contains(&t.name) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::REDUNDANT_TRANSFER,
                entity: t.name.clone(),
                location: loc,
                message: "downloaded but the device never writes it".into(),
            });
        } else if !sides.host_reads_possible.contains(&t.name) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::REDUNDANT_TRANSFER,
                entity: t.name.clone(),
                location: loc,
                message: "downloaded but no host code ever reads it before the device \
                          next overwrites it"
                    .into(),
            });
        }
    }
    out
}

/// Cross-check the GPU IR's transfer nodes against the schedule they
/// were generated from: both must list exactly the same movements.
pub(super) fn check_ir(
    cp: &CompiledProblem,
    target: &ExecTarget,
    schedule: &TransferSchedule,
    out: &mut Vec<Diagnostic>,
) {
    let ir = build_ir(cp, target);
    let mut ir_transfers: Vec<(bool, String, bool)> = Vec::new();
    ir.visit(&mut |node| {
        if let IrNode::Transfer {
            to_device,
            name,
            setup,
            ..
        } = node
        {
            ir_transfers.push((*to_device, name.clone(), *setup));
        }
    });
    let mut want: Vec<(bool, String, bool)> = schedule
        .transfers
        .iter()
        .filter(|t| t.policy != Policy::Never)
        .map(|t| (t.to_device, t.name.clone(), t.policy == Policy::Once))
        .collect();
    for found in &ir_transfers {
        match want.iter().position(|w| w == found) {
            Some(at) => {
                want.remove(at);
            }
            None => out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::IR_TRANSFER_MISMATCH,
                entity: found.1.clone(),
                location: "generated IR".into(),
                message: format!(
                    "IR contains a {} {} transfer the schedule doesn't plan",
                    if found.0 { "H2D" } else { "D2H" },
                    if found.2 { "setup" } else { "per-step" },
                ),
            }),
        }
    }
    for missing in want {
        out.push(Diagnostic {
            severity: Severity::Error,
            rule: rules::IR_TRANSFER_MISMATCH,
            entity: missing.1,
            location: "generated IR".into(),
            message: format!(
                "schedule plans a {} {} transfer the IR never performs",
                if missing.0 { "H2D" } else { "D2H" },
                if missing.2 { "setup" } else { "per-step" },
            ),
        });
    }
}
