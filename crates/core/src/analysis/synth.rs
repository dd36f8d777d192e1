//! Schedule and partition **synthesis** with proof-carrying certificates.
//!
//! In the spirit of translation validation, the [`TransferSchedule`] and
//! the parallel [`WriteRegion`] partitioning are *derived* from the
//! access/dataflow facts the verifier already computes, and every
//! derivation ships a machine-checkable certificate:
//!
//! * each scheduled transfer is justified by a **concrete read site** on
//!   the receiving side (a bytecode instruction for device reads, a named
//!   callback for host reads) plus the **write site** that produces —
//!   and, for per-step transfers, re-produces — the data on the sending
//!   side;
//! * each omission is justified by a **liveness argument** (nobody reads
//!   it there / nobody rewrites it after the one-time copy).
//!
//! [`check_certificate`] re-discharges both obligation families against
//! the facts themselves (bytecode, the step's stage records), independent
//! of how the schedule was produced: a transfer whose cited justification
//! does not hold is `schedule/unjustified-transfer` (minimality), an obligation with neither a transfer nor a valid
//! liveness argument is `schedule/unsound` (stale-freedom).

use super::access::{kernel_read_sites, site_loads_entity, KernelReadSite};
use super::races::WriteRegion;
use super::transfers::Sides;
use super::{rules, Diagnostic, Severity};
use crate::dataflow::{
    step_records, Entity, Kernel, Place, Plan, Policy, Record, Transfer, TransferSchedule, GHOSTS,
};
use crate::exec::{CompiledProblem, ExecTarget};
use crate::problem::{DslError, GpuStrategy};
use pbte_mesh::partition::{partition_bands, Partition, PartitionMethod};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Certificate types
// ---------------------------------------------------------------------------

/// The concrete site that consumes the data a transfer moves, on the
/// receiving side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadSite {
    /// Device: instruction `site.pc` of kernel `site.kernel` loads it.
    Kernel(KernelReadSite),
    /// Device: the flux kernel's boundary-face path indexes the ghost
    /// array (the precompute strategy, and either strategy on a plan whose
    /// walls are all lowered).
    GhostLookup,
    /// Host: the named pre/post-step callback reads it. `conservative`
    /// marks an opaque callback (no declared read set — assumed to read
    /// everything).
    StepCallback { name: String, conservative: bool },
    /// Host: a boundary-condition callback reads it (e.g. a specular
    /// reflection of the unknown).
    BoundaryCallback { conservative: bool },
    /// Host: the async strategy's combine adds the boundary faces' flux to
    /// the kernel's interior result.
    AsyncCombine,
    /// Device: no single bytecode site — justified by the equation-level
    /// declaration (cross-checked against bytecode by the access pass).
    Declared,
}

/// The write that makes the transfer *necessary*: who produced the data
/// on the sending side, and — for per-step transfers — re-produces it
/// between steps, invalidating the receiver's copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteSite {
    /// Host initialization before step 0 — initial conditions, or the
    /// one-time lowering of the ghost image (justifies `Once` H2D).
    Initialization,
    /// The named host step callback rewrites it each step.
    StepCallback { name: String, conservative: bool },
    /// The async strategy's host combine rewrites the unknown each step.
    AsyncCombine,
    /// The host's per-step boundary-ghost evaluation rewrites the ghost
    /// array (precompute strategy).
    GhostEval,
    /// The device kernel writes it each step (justifies D2H).
    DeviceKernel,
}

/// Certificate for one scheduled transfer: the `(name, to_device,
/// policy)` triple it covers plus the read/write sites justifying it.
#[derive(Debug, Clone)]
pub struct TransferCert {
    pub name: String,
    pub to_device: bool,
    pub policy: Policy,
    pub read: ReadSite,
    pub write: WriteSite,
}

/// Liveness argument for a transfer the schedule deliberately omits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessArg {
    /// No device-side read exists → no upload at all.
    DeviceNeverReads,
    /// The device reads it but no host code rewrites it after the
    /// one-time upload → no per-step upload.
    HostNeverRewrites,
    /// The device never writes it → no download.
    DeviceNeverWrites,
    /// The device writes it but no host code reads it between device
    /// writes → no download.
    HostNeverReads,
}

/// One justified omission: the `(entity, direction)` slot left empty and
/// the liveness argument for why that is sound.
#[derive(Debug, Clone)]
pub struct Omission {
    pub name: String,
    pub to_device: bool,
    pub liveness: LivenessArg,
}

/// The machine-checkable certificate accompanying a synthesized
/// schedule. Total over the plan's entity universe (every registered
/// variable, every registered coefficient, and the ghost pseudo-entity)
/// in both directions: every slot is either a [`TransferCert`] or an
/// [`Omission`].
#[derive(Debug, Clone)]
pub struct ScheduleCertificate {
    pub strategy: GpuStrategy,
    pub transfers: Vec<TransferCert>,
    pub omissions: Vec<Omission>,
}

impl ReadSite {
    fn describe(&self) -> String {
        match self {
            ReadSite::Kernel(s) => format!("{} kernel op {} loads it", s.kernel, s.pc),
            ReadSite::GhostLookup => "flux kernel boundary path reads the ghost array".into(),
            ReadSite::StepCallback { name, conservative } => {
                if *conservative {
                    format!("opaque callback `{name}` may read it")
                } else {
                    format!("callback `{name}` declares reading it")
                }
            }
            ReadSite::BoundaryCallback { conservative } => {
                if *conservative {
                    "an opaque boundary callback may read it".into()
                } else {
                    "a boundary callback declares reading it".into()
                }
            }
            ReadSite::AsyncCombine => "the async strategy's host combine reads it".into(),
            ReadSite::Declared => "the equation analysis declares the kernel reads it".into(),
        }
    }
}

impl WriteSite {
    fn describe(&self) -> String {
        match self {
            WriteSite::Initialization => "written by host initialization before step 0".into(),
            WriteSite::StepCallback { name, conservative } => {
                if *conservative {
                    format!("opaque callback `{name}` may rewrite it each step")
                } else {
                    format!("callback `{name}` declares rewriting it each step")
                }
            }
            WriteSite::AsyncCombine => {
                "the async strategy's host combine rewrites it each step".into()
            }
            WriteSite::GhostEval => "host ghost evaluation rewrites it each step".into(),
            WriteSite::DeviceKernel => "the device kernel writes it each step".into(),
        }
    }
}

impl LivenessArg {
    fn describe(&self) -> &'static str {
        match self {
            LivenessArg::DeviceNeverReads => "no device kernel reads it",
            LivenessArg::HostNeverRewrites => "no host code rewrites it after the one-time upload",
            LivenessArg::DeviceNeverWrites => "the device never writes it",
            LivenessArg::HostNeverReads => "no host code reads it between device writes",
        }
    }
}

impl ScheduleCertificate {
    /// Render the certificate as the comment block carried alongside the
    /// schedule (one line per justified transfer, one per omission).
    pub fn render(&self) -> String {
        let mut out = String::from("// schedule certificate:\n");
        for t in &self.transfers {
            let dir = if t.to_device { "H2D" } else { "D2H" };
            out.push_str(&format!(
                "//   {dir} {:?} {:<12} — read: {}; write: {}\n",
                t.policy,
                t.name,
                t.read.describe(),
                t.write.describe()
            ));
        }
        for o in &self.omissions {
            let dir = if o.to_device { "H2D" } else { "D2H" };
            out.push_str(&format!(
                "//   omit {dir} {:<12} — {}\n",
                o.name,
                o.liveness.describe()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Fact lookups shared by synthesis and certificate checking
// ---------------------------------------------------------------------------

/// Whether `record` declares that it reads `entity` — or, with `write`,
/// writes it.
fn touches(cp: &CompiledProblem, record: &Record, entity: &str, write: bool) -> bool {
    let hit = |e: Entity| {
        if write {
            record.writes(e)
        } else {
            record.reads(e)
        }
    };
    Entity::named(&cp.problem.registry, entity).is_some_and(hit)
}

/// The host records that read `entity` each step (with `write`: rewrite
/// it), each with whether the access is only assumed — an opaque callback
/// may read any variable and rewrite any but the unknown. Step callbacks
/// come first, in registration order, then the other records: the order
/// in which sites are cited.
fn host_sites<'r>(
    cp: &'r CompiledProblem,
    records: &'r [Record],
    entity: &'r str,
    write: bool,
) -> impl Iterator<Item = (Kernel, bool)> + 'r {
    let is_callback = |r: &&Record| matches!(r.kernel, Kernel::Callback { .. });
    let callbacks = records.iter().filter(is_callback);
    let ordered = callbacks.chain(records.iter().filter(move |r| !is_callback(r)));
    let variable = cp.problem.registry.variable_id(entity).is_some();
    ordered.filter_map(move |r| {
        let (opaque_reads, opaque_writes) = r.opaque(&cp.catalog);
        let may = match write {
            true => opaque_writes && entity != cp.system.unknown_name,
            false => opaque_reads,
        };
        let declared = touches(cp, r, entity, write).then_some(false);
        let access = declared.or((variable && may).then_some(true))?;
        (r.place == Place::Host).then_some((r.kernel, access))
    })
}

/// The read sites a certificate may cite for a host read of `entity`.
fn host_read_sites<'r>(
    cp: &'r CompiledProblem,
    records: &'r [Record],
    entity: &'r str,
) -> impl Iterator<Item = ReadSite> + 'r {
    let cite = |(kernel, conservative)| match kernel {
        Kernel::Callback { index, .. } => ReadSite::StepCallback {
            name: cp.catalog.steps[index].name.clone(),
            conservative,
        },
        Kernel::GhostEval { .. } => ReadSite::BoundaryCallback { conservative },
        _ => ReadSite::AsyncCombine,
    };
    host_sites(cp, records, entity, false).map(cite)
}

/// The write sites a certificate may cite for a host rewrite of `entity`.
fn host_write_sites<'r>(
    cp: &'r CompiledProblem,
    records: &'r [Record],
    entity: &'r str,
) -> impl Iterator<Item = WriteSite> + 'r {
    let cite = |(kernel, conservative)| match kernel {
        Kernel::Callback { index, .. } => WriteSite::StepCallback {
            name: cp.catalog.steps[index].name.clone(),
            conservative,
        },
        Kernel::GhostEval { .. } => WriteSite::GhostEval,
        _ => WriteSite::AsyncCombine,
    };
    host_sites(cp, records, entity, true).map(cite)
}

/// Whether some device record reads (or with `write` writes) `entity`.
fn device_access(cp: &CompiledProblem, records: &[Record], entity: &str, write: bool) -> bool {
    let on_device = records.iter().filter(|r| r.place == Place::Device);
    on_device.into_iter().any(|r| touches(cp, r, entity, write))
}

/// True when the cited read site holds against the records.
fn read_site_holds(
    cp: &CompiledProblem,
    records: &[Record],
    entity: &str,
    to_device: bool,
    site: &ReadSite,
) -> bool {
    match site {
        // Device-side consumers justify uploads only.
        ReadSite::Kernel(s) => to_device && site_loads_entity(cp, s, entity),
        ReadSite::GhostLookup | ReadSite::Declared => {
            let ghosts = matches!(site, ReadSite::GhostLookup);
            to_device && ghosts == (entity == GHOSTS) && device_access(cp, records, entity, false)
        }
        // Host-side consumers justify downloads only: some host record
        // reading the entity must be what the certificate cites.
        host => !to_device && host_read_sites(cp, records, entity).any(|s| s == *host),
    }
}

/// True when the cited write site holds against the records — including
/// the policy-level obligation that a per-step transfer cites a per-step
/// writer, not initialization.
fn write_site_holds(
    cp: &CompiledProblem,
    records: &[Record],
    entity: &str,
    to_device: bool,
    policy: Policy,
    site: &WriteSite,
) -> bool {
    match site {
        WriteSite::Initialization => to_device && policy == Policy::Once,
        WriteSite::DeviceKernel => !to_device && device_access(cp, records, entity, true),
        host => {
            let cited = || host_write_sites(cp, records, entity).any(|s| s == *host);
            to_device && policy == Policy::EveryStep && cited()
        }
    }
}

/// True when an omission's liveness claim holds against the facts.
fn liveness_holds(sides: &Sides, name: &str, arg: LivenessArg) -> bool {
    match arg {
        LivenessArg::DeviceNeverReads => !sides.device_reads.contains(name),
        LivenessArg::HostNeverRewrites => {
            sides.device_reads.contains(name) && !sides.host_writes_possible.contains(name)
        }
        LivenessArg::DeviceNeverWrites => !sides.device_writes.contains(name),
        LivenessArg::HostNeverReads => {
            sides.device_writes.contains(name) && !sides.host_reads_possible.contains(name)
        }
    }
}

/// The entity universe certificates must be total over: every registered
/// variable and coefficient plus the ghost pseudo-entity.
fn entity_universe(cp: &CompiledProblem) -> Vec<String> {
    let registry = &cp.problem.registry;
    let mut names: Vec<String> = registry.variables.iter().map(|v| v.name.clone()).collect();
    names.extend(registry.coefficients.iter().map(|c| c.name.clone()));
    names.push(GHOSTS.into());
    names
}

// ---------------------------------------------------------------------------
// Schedule synthesis
// ---------------------------------------------------------------------------

/// Derive the transfer schedule for `strategy` from the access facts,
/// together with its certificate: [`synthesize_records`] on the step's own
/// records.
pub fn synthesize_schedule(
    cp: &CompiledProblem,
    strategy: GpuStrategy,
) -> (TransferSchedule, ScheduleCertificate) {
    let scope = Scope::whole(cp);
    synthesize_records(
        cp,
        strategy,
        &step_records(cp, Plan::Main, Some(strategy), &scope),
    )
}

/// Derive the transfer schedule of a record list, with its certificate.
///
/// Derivation rules, in schedule order:
///
/// 1. every coefficient the kernel reads → `Once` H2D (coefficients are
///    immutable by construction: they live in the registry, not in
///    `Fields`, so no host code can rewrite one);
/// 2. the unknown → `Once` H2D (initial condition);
/// 3. the unknown → `EveryStep` D2H iff some host record reads it between
///    steps (a step callback, a boundary callback — declared, or assumed
///    for opaque ones — or the async combine);
/// 4. the boundary: the ghosts a device record reads → `EveryStep` H2D
///    while a host `GhostEval` rewrites them, `Once` when the image is
///    lowered; the unknown → `EveryStep` H2D when a host `Combine`
///    rewrites it. A lowered plan has neither record, and the liveness
///    arguments do the rest (no host site rewrites the unknown or the
///    image, so neither moves again);
/// 5. every other kernel-read variable → `EveryStep` H2D iff some host
///    record rewrites it between steps, else `Once`.
///
/// Rules 3 and 5 key on the callbacks' declared accesses, not on the mere
/// existence of a post-step callback: a declared callback that provably
/// never reads the unknown (or never writes a given variable) yields an
/// omission instead of a transfer, certified by the corresponding
/// liveness argument.
pub fn synthesize_records(
    cp: &CompiledProblem,
    strategy: GpuStrategy,
    records: &[Record],
) -> (TransferSchedule, ScheduleCertificate) {
    let registry = &cp.problem.registry;
    let sides = Sides::fold(cp, records);
    let sites = kernel_read_sites(cp);
    let unknown_name = registry.variables[cp.system.unknown].name.clone();

    let kernel_site = |name: &str| -> ReadSite {
        sites
            .get(name)
            .map(|s| ReadSite::Kernel(*s))
            .unwrap_or(ReadSite::Declared)
    };

    let mut transfers = Vec::new();
    let mut certs = Vec::new();
    let mut push = |t: Transfer, read: ReadSite, write: WriteSite| {
        certs.push(TransferCert {
            name: t.name.clone(),
            to_device: t.to_device,
            policy: t.policy,
            read,
            write,
        });
        transfers.push(t);
    };

    // 1. Kernel-read coefficients: immutable, one device copy.
    for &c in &cp.system.read_coefficients {
        let name = registry.coefficients[c].name.clone();
        let read = kernel_site(&name);
        push(
            Transfer {
                name,
                to_device: true,
                policy: Policy::Once,
                reason: "coefficient: immutable, cached on device".into(),
            },
            read,
            WriteSite::Initialization,
        );
    }

    // 2. The unknown's initial condition.
    push(
        Transfer {
            name: unknown_name.clone(),
            to_device: true,
            policy: Policy::Once,
            reason: "unknown: initial condition upload".into(),
        },
        kernel_site(&unknown_name),
        WriteSite::Initialization,
    );

    // 3. The unknown returns to the host iff some host site reads it.
    if let Some(read) = host_read_sites(cp, records, &unknown_name).next() {
        let reason = match &read {
            ReadSite::StepCallback { .. } => "unknown: post-step callback reads it on the host",
            ReadSite::AsyncCombine => "unknown: the host combine reads the kernel's result",
            _ => "unknown: boundary callbacks read it on the host",
        };
        push(
            Transfer {
                name: unknown_name.clone(),
                to_device: false,
                policy: Policy::EveryStep,
                reason: reason.into(),
            },
            read,
            WriteSite::DeviceKernel,
        );
    }

    // 4. The boundary: the ghosts the device reads — per step while the
    //    host evaluates them, the lowered image once — and the unknown a
    //    host combine rewrites.
    if sides.device_reads.contains(GHOSTS) {
        let (policy, reason, write) = match host_write_sites(cp, records, GHOSTS).next() {
            Some(write) => (
                Policy::EveryStep,
                "boundary ghost values computed by CPU callbacks",
                write,
            ),
            None => (
                Policy::Once,
                "boundary ghost image: every wall lowered, evaluated once",
                WriteSite::Initialization,
            ),
        };
        push(
            Transfer {
                name: GHOSTS.into(),
                to_device: true,
                policy,
                reason: reason.into(),
            },
            ReadSite::GhostLookup,
            write,
        );
    }
    let combine = |w: &WriteSite| *w == WriteSite::AsyncCombine;
    if let Some(write) = host_write_sites(cp, records, &unknown_name).find(combine) {
        push(
            Transfer {
                name: unknown_name.clone(),
                to_device: true,
                policy: Policy::EveryStep,
                reason: "unknown: host combines the boundary contribution".into(),
            },
            kernel_site(&unknown_name),
            write,
        );
    }

    // 5. Other kernel-read variables: per-step iff a host site rewrites
    //    them, one-time otherwise.
    for &v in &cp.system.read_variables {
        if v == cp.system.unknown {
            continue;
        }
        let name = registry.variables[v].name.clone();
        let read = kernel_site(&name);
        let write = host_write_sites(cp, records, &name).next();
        match write {
            Some(write) => push(
                Transfer {
                    name,
                    to_device: true,
                    policy: Policy::EveryStep,
                    reason: "mutable variable: rewritten by post-step callback".into(),
                },
                read,
                write,
            ),
            None => push(
                Transfer {
                    name,
                    to_device: true,
                    policy: Policy::Once,
                    reason: "variable never written after initialization".into(),
                },
                read,
                WriteSite::Initialization,
            ),
        }
    }

    // Omissions: make the certificate total over the entity universe.
    let h2d_every: BTreeSet<&str> = transfers
        .iter()
        .filter(|t| t.to_device && t.policy == Policy::EveryStep)
        .map(|t| t.name.as_str())
        .collect();
    let h2d_any: BTreeSet<&str> = transfers
        .iter()
        .filter(|t| t.to_device)
        .map(|t| t.name.as_str())
        .collect();
    let d2h_every: BTreeSet<&str> = transfers
        .iter()
        .filter(|t| !t.to_device && t.policy == Policy::EveryStep)
        .map(|t| t.name.as_str())
        .collect();
    let mut omissions = Vec::new();
    for name in entity_universe(cp) {
        if !h2d_any.contains(name.as_str()) {
            omissions.push(Omission {
                name: name.clone(),
                to_device: true,
                liveness: LivenessArg::DeviceNeverReads,
            });
        } else if !h2d_every.contains(name.as_str()) {
            omissions.push(Omission {
                name: name.clone(),
                to_device: true,
                liveness: LivenessArg::HostNeverRewrites,
            });
        }
        if !d2h_every.contains(name.as_str()) {
            omissions.push(Omission {
                liveness: if sides.device_writes.contains(&name) {
                    LivenessArg::HostNeverReads
                } else {
                    LivenessArg::DeviceNeverWrites
                },
                name,
                to_device: false,
            });
        }
    }

    (
        TransferSchedule {
            strategy,
            transfers,
        },
        ScheduleCertificate {
            strategy,
            transfers: certs,
            omissions,
        },
    )
}

// ---------------------------------------------------------------------------
// Certificate checking
// ---------------------------------------------------------------------------

/// Re-discharge a schedule's certificate against the plan's facts.
///
/// * **Minimality** (`schedule/unjustified-transfer`): every scheduled
///   transfer must carry a certificate entry whose read site and write
///   site both hold — re-validated against the bytecode and the callback
///   catalog, not against the synthesizer's bookkeeping.
/// * **Soundness** (`schedule/unsound`): every `(entity, direction)`
///   obligation derived from the access facts must be served by a
///   transfer, or covered by an omission whose liveness argument holds.
///
/// Severity follows the verifier's policy: a violation that exists only
/// under the conservative widening of opaque callbacks is a warning, a
/// violation of declared/derived accesses an error.
pub fn check_certificate(
    cp: &CompiledProblem,
    schedule: &TransferSchedule,
    cert: &ScheduleCertificate,
) -> Vec<Diagnostic> {
    let scope = Scope::whole(cp);
    let records = &step_records(cp, Plan::Main, Some(schedule.strategy), &scope);
    let mut out = Vec::new();
    let sides = Sides::fold(cp, records);

    // --- Minimality: every transfer justified by a valid certificate. ---
    let mut used = vec![false; cert.transfers.len()];
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
        let found = cert.transfers.iter().enumerate().find(|(i, c)| {
            !used[*i] && c.name == t.name && c.to_device == t.to_device && c.policy == t.policy
        });
        let Some((i, c)) = found else {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::SCHEDULE_UNJUSTIFIED,
                entity: t.name.clone(),
                location: loc,
                message: "scheduled transfer carries no certificate entry".into(),
            });
            continue;
        };
        used[i] = true;
        if !read_site_holds(cp, records, &t.name, t.to_device, &c.read) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::SCHEDULE_UNJUSTIFIED,
                entity: t.name.clone(),
                location: loc.clone(),
                message: format!("cited read site does not hold: {}", c.read.describe()),
            });
        }
        if !write_site_holds(cp, records, &t.name, t.to_device, t.policy, &c.write) {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::SCHEDULE_UNJUSTIFIED,
                entity: t.name.clone(),
                location: loc,
                message: format!("cited write site does not hold: {}", c.write.describe()),
            });
        }
    }
    for (i, c) in cert.transfers.iter().enumerate() {
        if !used[i] {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::SCHEDULE_UNJUSTIFIED,
                entity: c.name.clone(),
                location: "certificate".into(),
                message: "certificate justifies a transfer the schedule does not contain".into(),
            });
        }
    }

    // --- Soundness: every obligation served or validly omitted. ---
    let h2d_every: BTreeSet<&str> = schedule.each_step_h2d().into_iter().collect();
    let h2d_any: BTreeSet<&str> = schedule
        .transfers
        .iter()
        .filter(|t| t.to_device && t.policy != Policy::Never)
        .map(|t| t.name.as_str())
        .collect();
    let d2h_every: BTreeSet<&str> = schedule.each_step_d2h().into_iter().collect();
    let omission = |name: &str, to_device: bool| {
        cert.omissions
            .iter()
            .find(|o| o.name == name && o.to_device == to_device)
    };
    let unsound =
        |name: &str, location: &str, declared: bool, message: String, out: &mut Vec<Diagnostic>| {
            out.push(Diagnostic {
                severity: if declared {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                rule: rules::SCHEDULE_UNSOUND,
                entity: name.to_string(),
                location: location.to_string(),
                message,
            });
        };

    for e in &sides.device_reads {
        let rewritten = sides.host_writes_possible.contains(e);
        let declared_write = sides.host_writes_declared.contains(e);
        if rewritten && !h2d_every.contains(e.as_str()) {
            let covered = omission(e, true).is_some_and(|o| liveness_holds(&sides, e, o.liveness));
            if !covered {
                let why = match omission(e, true) {
                    Some(o) => format!(
                        "per-step upload omitted, but the liveness argument \
                         \"{}\" does not hold (a host site rewrites it each step)",
                        o.liveness.describe()
                    ),
                    None => "per-step upload omitted with no liveness argument, but a \
                             host site rewrites it each step"
                        .into(),
                };
                unsound(e, "device kernel read", declared_write, why, &mut out);
            }
        } else if !rewritten && !h2d_any.contains(e.as_str()) {
            let covered = omission(e, true).is_some_and(|o| liveness_holds(&sides, e, o.liveness));
            if !covered {
                unsound(
                    e,
                    "device kernel read",
                    true,
                    "the kernel reads this entity but it is neither uploaded nor \
                     covered by a valid liveness argument"
                        .into(),
                    &mut out,
                );
            }
        }
    }
    for e in &sides.device_writes {
        let host_reads = sides.host_reads_possible.contains(e);
        let declared_read = sides.host_reads_declared.contains(e);
        if host_reads && !d2h_every.contains(e.as_str()) {
            let covered = omission(e, false).is_some_and(|o| liveness_holds(&sides, e, o.liveness));
            if !covered {
                let why = match omission(e, false) {
                    Some(o) => format!(
                        "per-step download omitted, but the liveness argument \
                         \"{}\" does not hold (a host site reads it each step)",
                        o.liveness.describe()
                    ),
                    None => "per-step download omitted with no liveness argument, but a \
                             host site reads it each step"
                        .into(),
                };
                unsound(e, "host callback read", declared_read, why, &mut out);
            }
        }
    }

    // --- Totality: every universe slot is either scheduled or omitted. ---
    for name in entity_universe(cp) {
        if !h2d_any.contains(name.as_str()) && omission(&name, true).is_none() {
            unsound(
                &name,
                "certificate",
                true,
                "no upload scheduled and no omission recorded: the certificate is \
                 not total over the entity universe"
                    .into(),
                &mut out,
            );
        }
        if !d2h_every.contains(name.as_str()) && omission(&name, false).is_none() {
            unsound(
                &name,
                "certificate",
                true,
                "no download scheduled and no omission recorded: the certificate is \
                 not total over the entity universe"
                    .into(),
                &mut out,
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Partition synthesis
// ---------------------------------------------------------------------------

/// One piece of a sweep: the scope's `k`-th flat over the contiguous cells
/// `cell0 .. cell0 + len` — one `rows::rhs_block` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Position of the flat in [`Scope::flats`].
    pub k: usize,
    pub cell0: usize,
    pub len: usize,
}

/// The iteration space of one rank: the `(cells × flats)` cross product of
/// the dof grid it owns, and the [`Tile`]s that space is swept in. One
/// value per rank, built by [`rank_scopes`], is what the step driver
/// walks, the device launches, the cost model scopes and the race pass
/// proves — so "the proven split is the executed split" holds by identity.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Owned cells (global ids).
    pub cells: Vec<usize>,
    /// Owned flattened index values.
    pub flats: Vec<usize>,
    /// Cells of the whole mesh (the row length of the dof layout
    /// `flat * n_cells + cell`).
    pub n_cells: usize,
    /// Each flat's maximal contiguous cell spans, each cut into near-equal
    /// pieces, flat-major.
    pub tiles: Vec<Tile>,
    /// Threads one sweep fans its tiles out to; 1 sweeps them in order on
    /// the calling thread.
    pub workers: usize,
    /// Exact face count over the owned cells (every flat walks each once
    /// per sweep).
    pub faces: u64,
}

impl Scope {
    /// The whole dof grid of `cp` on one worker: the scope of a
    /// single-rank target, and the range of a step's records when only
    /// their arguments are read.
    pub fn whole(cp: &CompiledProblem) -> Scope {
        let all = |n: usize| (0..n).collect::<Vec<usize>>();
        Scope::new(&cp.hot.offsets, all(cp.mesh().n_cells()), all(cp.n_flat), 1)
    }

    /// The scope `cells × flats` of a mesh with CSR face `offsets`, every
    /// span cut into `workers` pieces.
    pub(crate) fn new(
        offsets: &[u32],
        cells: Vec<usize>,
        flats: Vec<usize>,
        workers: usize,
    ) -> Scope {
        Scope {
            tiles: Scope::tile(&cells, flats.len(), workers),
            faces: cells
                .iter()
                .map(|&c| (offsets[c + 1] - offsets[c]) as u64)
                .sum(),
            n_cells: offsets.len() - 1,
            cells,
            flats,
            workers: workers.max(1),
        }
    }

    /// The tile list of `cells` under `n_flats` flats: the maximal
    /// contiguous ascending spans of the list, in list order (any list is
    /// handled — non-consecutive cells just yield length-1 spans), each cut
    /// into `parts` near-equal non-empty pieces, repeated per flat.
    pub(crate) fn tile(cells: &[usize], n_flats: usize, parts: usize) -> Vec<Tile> {
        let parts = parts.max(1);
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for &cell in cells {
            match spans.last_mut() {
                Some((start, len)) if *start + *len == cell => *len += 1,
                _ => spans.push((cell, 1)),
            }
        }
        let row: Vec<(usize, usize)> = spans
            .iter()
            .flat_map(|&(start, len)| {
                (0..parts).filter_map(move |i| {
                    let (a, b) = (len * i / parts, len * (i + 1) / parts);
                    (b > a).then_some((start + a, b - a))
                })
            })
            .collect();
        (0..n_flats)
            .flat_map(|k| row.iter().map(move |&(cell0, len)| Tile { k, cell0, len }))
            .collect()
    }

    /// Where `tile` starts in the global `flat * n_cells + cell` layout.
    #[inline]
    pub fn at(&self, tile: &Tile) -> usize {
        self.flats[tile.k] * self.n_cells + tile.cell0
    }

    /// The owned dofs as contiguous index ranges, tile by tile — the same
    /// walk as the sweeps. Vector passes slice their operands by these
    /// instead of indexing per dof.
    pub fn spans(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.tiles.iter().map(|t| {
            let at = self.at(t);
            at..at + t.len
        })
    }

    /// Owned dofs.
    pub fn dofs(&self) -> usize {
        self.flats.len() * self.cells.len()
    }

    /// Whether the scope is the whole `n_flat × n_cells` grid.
    pub(crate) fn is_full(&self, n_flat: usize) -> bool {
        self.cells.len() == self.n_cells && self.flats.len() == n_flat
    }

    /// Count one sweep over the scope.
    pub fn account(&self, work: &mut pbte_runtime::telemetry::WorkCounters) {
        work.dof_updates += self.dofs() as u64;
        work.flux_evals += self.flats.len() as u64 * self.faces;
    }
}

/// Owned flats per rank under band partitioning of `index` (the band
/// half of [`rank_scopes`]).
/// `None` when `index` is not an index of the unknown (build rejects such
/// targets before solving).
fn band_owned_flats(cp: &CompiledProblem, ranks: usize, index: &str) -> Option<Vec<Vec<usize>>> {
    let registry = &cp.problem.registry;
    let index_id = registry.index_id(index)?;
    let slot = registry.variables[cp.system.unknown]
        .indices
        .iter()
        .position(|&i| i == index_id)?;
    let ranges = partition_bands(registry.indices[index_id].len, ranks);
    Some(
        ranges
            .iter()
            .map(|range| {
                (0..cp.n_flat)
                    .filter(|&flat| range.contains(&cp.idx_of_flat[flat][slot]))
                    .collect()
            })
            .collect(),
    )
}

/// The [`Scope`] every rank of `target` owns. Single-rank targets own the
/// whole grid; cell distribution divides the cells by RCB, band
/// distribution the flats by band range. Only the threaded
/// target fans a sweep out: its spans are cut into
/// `rayon::current_num_threads()` pieces — the one place the sweep split
/// reads the thread count, once per solve.
/// Errors name the configuration `build()` would have to reject (more
/// ranks than cells, an unpartitionable index).
pub fn rank_scopes(cp: &CompiledProblem, target: &ExecTarget) -> Result<Vec<Scope>, DslError> {
    let n_cells = cp.mesh().n_cells();
    let all = |n: usize| (0..n).collect::<Vec<usize>>();
    let workers = match target {
        ExecTarget::CpuParallel => rayon::current_num_threads(),
        _ => 1,
    };
    let scope = |cells, flats| Scope::new(&cp.hot.offsets, cells, flats, workers);
    Ok(match target {
        ExecTarget::CpuSeq | ExecTarget::CpuParallel | ExecTarget::GpuHybrid { .. } => {
            vec![scope(all(n_cells), all(cp.n_flat))]
        }
        ExecTarget::DistCells { ranks } => {
            if *ranks > n_cells {
                return Err(DslError::Invalid(format!(
                    "{ranks} ranks for {n_cells} cells"
                )));
            }
            let partition = Partition::build(cp.mesh(), *ranks, PartitionMethod::Rcb);
            (0..*ranks)
                .map(|r| scope(partition.cells_of(r), all(cp.n_flat)))
                .collect()
        }
        ExecTarget::DistBands { ranks, index } | ExecTarget::DistBandsGpu { ranks, index, .. } => {
            band_owned_flats(cp, *ranks, index)
                .ok_or_else(|| {
                    DslError::Invalid(format!("`{index}` is not an index of the unknown"))
                })?
                .into_iter()
                .map(|flats| scope(all(n_cells), flats))
                .collect()
        }
    })
}

/// Names a tile in a race diagnostic, formatted only when one fires.
#[derive(Debug, Clone)]
pub struct TileLabel {
    rank: usize,
    tile: usize,
    flat: usize,
    cells: std::ops::Range<usize>,
}

impl std::fmt::Display for TileLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rank, tile, flat, cells) = (self.rank, self.tile, self.flat, &self.cells);
        write!(f, "rank {rank} tile {tile} (flat {flat}, cells {cells:?})")
    }
}

/// The write split of the unknown that `scopes` describes: one region per
/// tile, read straight off the value the driver executes, in execution
/// order — a borrowed flat and a cell range each, nothing expanded.
pub fn synthesize_partition(
    scopes: &[Scope],
) -> impl Iterator<Item = WriteRegion<'_, TileLabel>> + '_ {
    scopes.iter().enumerate().flat_map(|(rank, scope)| {
        scope.tiles.iter().enumerate().map(move |(tile, t)| {
            let cells = t.cell0..t.cell0 + t.len;
            WriteRegion {
                label: TileLabel {
                    rank,
                    tile,
                    flat: scope.flats[t.k],
                    cells: cells.clone(),
                },
                flats: &scope.flats[t.k..=t.k],
                cells,
            }
        })
    })
}
