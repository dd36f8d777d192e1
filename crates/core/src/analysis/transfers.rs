//! Transfer-schedule proofs.
//!
//! The schedule from [`crate::dataflow`] claims to move exactly what the
//! two sides exchange. This module checks that claim against the actual
//! access sets, which are a fold of the step's stage records
//! ([`crate::dataflow::step_records`]) by place: a device record's
//! arguments come from the equation analysis (already cross-checked
//! against the compiled bytecode by [`super::access`]), a host record's
//! from the callback catalog, where every callback declares what it
//! touches. An access the schedule fails to serve is always an error.
//!
//! Two rules per entity `e`:
//!
//! * **stale read** — one side reads `e` while the other is the only
//!   writer and no transfer refreshes the reader's copy.
//! * **redundant transfer** — `e` is moved although the receiving side
//!   never reads it before it is next overwritten (or the sending side
//!   never even writes it), or the same copy is scheduled twice, or a
//!   one-time upload sits beside a per-step one of the same entity.

use super::{rules, Diagnostic, Scope, Severity};
use crate::dataflow::{
    step_records, Access, Place, Plan, Policy, Record, Transfer, TransferSchedule,
};
use crate::exec::CompiledProblem;
use std::collections::BTreeSet;

/// Per-side access sets, by entity name. The synthesis pass
/// ([`super::synthesize_records`]) derives the schedule from these same
/// sets; the checker below proves any schedule against them, however it
/// was produced.
#[derive(Default)]
pub(super) struct Sides {
    pub(super) device_reads: BTreeSet<String>,
    pub(super) device_writes: BTreeSet<String>,
    pub(super) host_reads: BTreeSet<String>,
    pub(super) host_writes: BTreeSet<String>,
}

impl Sides {
    /// Fold the records' arguments by place.
    pub(super) fn fold(cp: &CompiledProblem, records: &[Record]) -> Sides {
        let registry = &cp.problem.registry;
        let mut sides = Sides::default();
        for record in records {
            let (reads, writes) = match record.place {
                Place::Device => (&mut sides.device_reads, &mut sides.device_writes),
                Place::Host => (&mut sides.host_reads, &mut sides.host_writes),
            };
            for &(entity, access) in &record.args {
                if access != Access::Write {
                    reads.insert(entity.name(registry).to_string());
                }
                if access != Access::Read {
                    writes.insert(entity.name(registry).to_string());
                }
            }
        }
        sides
    }
}

/// Verify a transfer schedule against the problem's derived and declared
/// access sets. Public so tests can check deliberately mutated schedules.
pub fn check_schedule(cp: &CompiledProblem, schedule: &TransferSchedule) -> Vec<Diagnostic> {
    let scope = Scope::whole(cp);
    let records = step_records(cp, Plan::Main, true, &scope);
    check_against(&Sides::fold(cp, &records), schedule)
}

/// [`check_schedule`] against access sets already folded.
pub(super) fn check_against(sides: &Sides, schedule: &TransferSchedule) -> Vec<Diagnostic> {
    let mut out = Vec::new();
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
        let host_write = sides.host_writes.contains(e);
        let message = if host_write && !h2d_every.contains(e.as_str()) {
            "the host rewrites this entity every step but the schedule never re-uploads it"
        } else if !host_write && !h2d_any.contains(e.as_str()) {
            "the kernel reads this entity but the schedule never uploads it"
        } else {
            continue;
        };
        out.push(Diagnostic {
            severity: Severity::Error,
            rule: rules::STALE_READ,
            entity: e.clone(),
            location: "device kernel read".into(),
            message: message.into(),
        });
    }

    // Stale reads, host side: every device-written entity a host callback
    // reads must come back every step.
    for e in &sides.device_writes {
        if sides.host_reads.contains(e) && !d2h_every.contains(e.as_str()) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::STALE_READ,
                entity: e.clone(),
                location: "host callback read".into(),
                message: "a host callback reads this device-written entity but the schedule \
                          never downloads it"
                    .into(),
            });
        }
    }

    // Redundant transfers.
    for (i, t) in schedule.transfers.iter().enumerate() {
        if t.policy == Policy::Never {
            continue;
        }
        let same =
            |u: &Transfer| (&u.name, u.to_device, u.policy) == (&t.name, t.to_device, t.policy);
        let message = if schedule.transfers[..i].iter().any(same) {
            "the same copy is already scheduled"
        } else if t.to_device
            && t.policy == Policy::Once
            && h2d_every.contains(t.name.as_str())
            && sides.host_writes.contains(&t.name)
        {
            "uploaded once but also before every read, which makes the one-time copy dead"
        } else if t.to_device && !sides.device_reads.contains(&t.name) {
            "uploaded but the device kernel never reads it"
        } else if t.to_device
            && t.policy == Policy::EveryStep
            && !sides.host_writes.contains(&t.name)
        {
            "re-uploaded every step but no host code ever writes it between uploads"
        } else if !t.to_device && !sides.device_writes.contains(&t.name) {
            "downloaded but the device never writes it"
        } else if !t.to_device && !sides.host_reads.contains(&t.name) {
            "downloaded but no host code ever reads it before the device next overwrites it"
        } else {
            continue;
        };
        let dir = if t.to_device { "H2D" } else { "D2H" };
        out.push(Diagnostic {
            severity: Severity::Error,
            rule: rules::REDUNDANT_TRANSFER,
            entity: t.name.clone(),
            location: format!("{dir} {} ({:?})", t.name, t.policy),
            message: message.into(),
        });
    }
    out
}
