//! Static plan verification.
//!
//! The paper's automation claim is that the DSL *analyzes which entities
//! each side reads and writes* to partition CPU/GPU work and minimize
//! host↔device movement. This module is the checker that makes that claim
//! falsifiable instead of asserted-by-construction. It runs at bind time
//! (under `debug_assertions`, from every executor) and on demand through
//! the `pbte-verify` binary, and discharges seven proof obligations:
//!
//! 1. **Access soundness** (`access`): per-entity read sets are derived
//!    from both statement forms of every kernel (the compiled `Program`
//!    and the per-flat bound `RegProgram`) by one abstract walker —
//!    register def-before-use and load-offset bounds fall out as
//!    byproducts — and cross-checked against the equation-level
//!    declaration. An expression initial must read only variables
//!    initialised before it fills (`initial/uninitialised-read`). The CSR
//!    face geometry the span kernels index is bounds-checked
//!    too, and the stencil run tables the span
//!    kernels walk are re-derived from it (`geometry/run-mismatch`). The
//!    lowered wall tables those kernels read boundary faces through are
//!    re-derived from the declared boundary forms and held to the closures
//!    they replace (`boundary`, `boundary/form-mismatch`).
//! 2. **Write disjointness** (`races`): the tiles of every rank's
//!    [`Scope`] — the one value that is the threaded cell-span split, the
//!    distributed rank partitions (cells and bands) and the GPU
//!    `launch_rows` rows — and the divided-Newton cell slices are proven
//!    to have pairwise-disjoint write sets over the `(flat, cell)` dof
//!    grid of the written entity; a gather wall must read only flats its
//!    rank owns.
//! 3. **Transfer correctness** (`transfers`): the automatic
//!    [`TransferSchedule`](crate::dataflow::TransferSchedule) is checked
//!    against the derived device-side sets and the declared host-side
//!    callback sets — no stale read (an entity consumed on one side after
//!    being written only on the other without a transfer between) and no
//!    redundant transfer (moved but never read before its next write).
//!    Both sides' sets are a fold of the step's stage records
//!    ([`crate::dataflow::step_records`]), the list the device backend
//!    executes and the IR renders, so there is no second description of a
//!    step to cross-check.
//! 4. **Translation validity** (`validate`): the lowering pipeline is
//!    validated per plan, not trusted per construction. A canonical
//!    symbolic expression is re-extracted from every tier — the IR's
//!    statement strings are parsed back, and the compiled `Program` and
//!    bound `RegProgram` statements (the ones the native tier prints) are
//!    abstractly executed over symbolic values — and proven equal to the
//!    expression expanded from the DSL terms. A mismatch pinpoints the
//!    tier and statement that diverged.
//! 5. **Numeric safety** (`intervals`): every tier is abstractly
//!    executed over the interval domain, seeded from the physical ranges
//!    declared on entities, proving no NaN/Inf, no division by an
//!    interval containing zero, and domain validity for `exp`/`log`/
//!    `sqrt`/`pow`; a CFL-style step bound is derived from the flux
//!    linearization and the scenario `dt` checked against it.
//! 6. **Cost** (`cost`): the static cost model — bytes per step, kernel
//!    work per dof, Krylov iteration cost, read off the plan's scopes and
//!    stage schedules — is checked against recorded telemetry.
//! 7. **Dimensional consistency** (`units`): the discretized equation is
//!    abstractly interpreted over the SI dimension domain, seeded from
//!    the units declared on entities, proving every sum/comparison
//!    combines equal dimensions, every transcendental argument is
//!    dimensionless, and both the volume and flux terms balance
//!    d(unknown)/dt. This is the pass that guards the textual `.pbte`
//!    scenario front-end: a W·m⁻² vs W·m⁻³ source mixup is caught before
//!    a plan ever compiles.
//!
//! Severity policy: violations of *declared or derived* accesses are
//! [`Severity::Error`] (executors panic on them in debug builds); a proof
//! skipped for want of a declaration (a range, a unit) and a finding that
//! costs work but computes the same values (a declared read no tier
//! loads, dofs no write region claims) are [`Severity::Warning`]. Every
//! callback declares what it reads and writes, and `compile` refuses a
//! declared name that is not a variable, so the transfer proof reads one
//! host-read and one host-write set.

mod access;
mod boundary;
mod cost;
mod intervals;
mod races;
mod synth;
mod transfers;
mod units;
mod validate;

pub use boundary::check_boundary_forms;
pub(crate) use cost::expectation;
pub use cost::{
    check_cost_drift, estimate_cost, sweep_price, CostCheck, CostModel, DRIFT_TOLERANCE,
};
pub use intervals::{cfl_bound, check_intervals, CflBound};
pub use intervals::{recommend_dt, DtRecommendation, ACCURACY_COURANT};
pub use races::{check_disjoint_writes, check_divided_slices, divided_slice, WriteRegion};
pub use synth::{interface_send_lists, rank_scopes, synthesize_partition, synthesize_records};
pub use synth::{Scope, SendList, Tile, TileLabel};
pub use transfers::check_schedule;
pub use units::check_units;
pub(crate) use validate::reg_mismatch;
pub use validate::{check_ir, check_jvp, check_lowered, check_reg, check_translation, check_vm};

use crate::exec::{CompiledProblem, ExecTarget};
use pbte_mesh::MeshError;
use pbte_runtime::telemetry::json_str;

/// Rule identifiers, one per distinct diagnostic the verifier can emit.
pub mod rules {
    /// A load resolves outside its entity's storage.
    pub const OOB_LOAD: &str = "bytecode/oob-load";
    /// A register is consumed before any statement defines it, or a
    /// statement writes past the register file.
    pub const USE_BEFORE_DEF: &str = "bytecode/use-before-def";
    /// Bytecode reads an entity the equation analysis didn't declare
    /// (error), or declares one no tier actually reads (warning).
    pub const UNDECLARED_ACCESS: &str = "bytecode/undeclared-access";
    /// An expression initial reads its own variable, or one that nothing
    /// has initialised when it fills.
    pub const UNINITIALISED_READ: &str = "initial/uninitialised-read";
    /// The CSR face geometry violates a structural invariant.
    pub const CSR_INVARIANT: &str = "geometry/csr-invariant";
    /// The stencil run tables disagree with the CSR face geometry and wall
    /// reads they summarise (a run's face count, slot stream or class does
    /// not hold for one of its cells, a run leaves the mesh, or the runs
    /// and the remainder list do not cover every cell exactly once).
    pub const RUN_MISMATCH: &str = "geometry/run-mismatch";
    /// A lowered wall table disagrees with the boundary condition it
    /// replaces: a gather entry is not what the declared source names, an
    /// image entry is not what the closure returns, a "Fixed" closure
    /// reads time or a field, a slot is on the wrong side of the
    /// lowered / callback split — or a gather reads a flat its rank does
    /// not own.
    pub const BOUNDARY_FORM_MISMATCH: &str = "boundary/form-mismatch";
    /// Two parallel write regions claim the same dof.
    pub const OVERLAPPING_WRITE: &str = "race/overlapping-write";
    /// A write region addresses dofs outside the entity.
    pub const OOB_WRITE: &str = "race/oob-write";
    /// The union of write regions misses dofs of the entity.
    pub const INCOMPLETE_COVER: &str = "race/incomplete-cover";
    /// An entity is read on one side after being written only on the
    /// other, with no transfer scheduled in between.
    pub const STALE_READ: &str = "transfer/stale-read";
    /// A scheduled transfer moves data nobody reads before its next write.
    pub const REDUNDANT_TRANSFER: &str = "transfer/redundant";
    /// An IR statement string does not parse back to the DSL expression
    /// it was lowered from (or the DSL term groups are inconsistent).
    pub const TRANSLATION_IR: &str = "translation/ir-mismatch";
    /// The compiled program (the statements the `vm` tier evaluates)
    /// computes a different symbolic expression than the DSL terms.
    pub const TRANSLATION_VM: &str = "translation/vm-mismatch";
    /// A per-flat bound program (its folded constants, load offsets and
    /// function coefficients, registers or operand folds) diverged from
    /// the compiled program executed with the same fold — in the row
    /// tier, or in the
    /// statement list the native tier would print (checked before `rustc`
    /// ever runs).
    pub const TRANSLATION_REG: &str = "translation/reg-mismatch";
    /// The derived JVP plan (implicit integrators) disagrees with a fresh
    /// linearization of the primal equation, or its own lowering chain
    /// fails translation validation.
    pub const TRANSLATION_JVP: &str = "translation/jvp-mismatch";
    /// The native tier could not be prepared (missing `rustc`, failed
    /// compilation, or an ineligible plan); execution fell back to the
    /// row tier.
    pub const NATIVE_FALLBACK: &str = "native/fallback";
    /// The on-disk native plan cache exceeded its size cap and
    /// least-recently-used compiled plans were deleted.
    pub const NATIVE_CACHE_EVICT: &str = "native/cache-evict";
    /// A reciprocal (or negative power) is taken of an interval that
    /// contains zero.
    pub const INTERVAL_DIV_BY_ZERO: &str = "intervals/div-by-zero";
    /// An `exp`/`log`/`sqrt`/`pow` argument range leaves the function's
    /// domain.
    pub const INTERVAL_DOMAIN: &str = "intervals/domain";
    /// An operation's result range contains NaN or infinity.
    pub const INTERVAL_NON_FINITE: &str = "intervals/non-finite";
    /// A kernel reads an entity with no declared physical range; the
    /// interval proof is skipped.
    pub const INTERVAL_MISSING_RANGE: &str = "intervals/missing-range";
    /// The scenario's dt exceeds the derived CFL-style step bound.
    pub const INTERVAL_CFL: &str = "intervals/cfl-exceeded";
    /// A static cost-model prediction diverged from recorded telemetry
    /// beyond tolerance.
    pub const COST_MODEL_DRIFT: &str = "cost/model-drift";
    /// Two operands of a sum, comparison, `min`/`max`, or conditional
    /// carry different SI dimensions, a power over a dimensionful base
    /// has a non-static exponent, or a term fails the d(unknown)/dt
    /// balance.
    pub const UNITS_MISMATCH: &str = "units/mismatch";
    /// A transcendental (`exp`, `log`, trig, hyperbolic) applied to a
    /// dimensionful argument.
    pub const UNITS_TRANSCENDENTAL: &str = "units/transcendental-arg";
    /// The equation mentions a symbol (or calls a function) with no
    /// declared unit; the dimensional proof is skipped.
    pub const UNITS_UNDECLARED: &str = "units/undeclared-symbol";

    /// A line of an input file (a `.pbte` scenario) does not parse.
    pub const INPUT_PARSE: &str = "input/parse";
    /// An input says something impossible (a missing key, a bad value).
    pub const INPUT_INVALID: &str = "input/invalid";
    /// An input or output file cannot be read or written.
    pub const INPUT_IO: &str = "input/io";
    /// A command, argument, flag or scenario the program does not know.
    pub const INPUT_UNKNOWN: &str = "input/unknown";
    /// A 3-D cell is neither a tetrahedron nor a hexahedron.
    pub const MESH_UNSUPPORTED_CELL: &str = "mesh/unsupported-cell";
    /// A face is shared by more than two cells.
    pub const MESH_SHARED_FACE: &str = "mesh/shared-face";
    /// A cell's area or volume is not a positive finite number.
    pub const MESH_BAD_MEASURE: &str = "mesh/bad-measure";
    /// The conservation-form expression does not parse.
    pub const DSL_PARSE: &str = "dsl/parse";
    /// An expression the compiler cannot lower (an unknown symbol).
    pub const DSL_EXPRESSION: &str = "dsl/expression";
    /// A problem missing a piece it needs (a mesh, an equation, a wall).
    pub const DSL_PROBLEM: &str = "dsl/problem";
    /// A problem the target cannot run (more ranks than cells).
    pub const DSL_TARGET: &str = "dsl/target";

    /// Every rule [`verify_plan`](super::verify_plan) checks, in pass
    /// order — what a clean plan has been proved free of.
    pub const VERIFY_PLAN: &[&str] = &[
        OOB_LOAD,
        USE_BEFORE_DEF,
        UNDECLARED_ACCESS,
        UNINITIALISED_READ,
        CSR_INVARIANT,
        RUN_MISMATCH,
        BOUNDARY_FORM_MISMATCH,
        OVERLAPPING_WRITE,
        OOB_WRITE,
        INCOMPLETE_COVER,
        STALE_READ,
        REDUNDANT_TRANSFER,
    ];
}

/// How bad a finding is: one type for the verifier's diagnostics and a
/// run's findings.
pub use pbte_runtime::telemetry::Severity;

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    /// One of the constants in [`rules`].
    pub rule: &'static str,
    /// The entity (variable/coefficient/ghost-array name) involved, or
    /// a callback name; empty when the finding is structural.
    pub entity: String,
    /// Where in the plan the finding anchors (kernel, loop, region).
    pub location: String,
    pub message: String,
}

impl Diagnostic {
    /// An error-severity finding of `rule` anchored nowhere: a refusal.
    fn refusal(rule: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            rule,
            entity: String::new(),
            location: String::new(),
            message: message.into(),
        }
    }

    /// [`rules::INPUT_PARSE`]: line `line` (1-based) of an input file.
    pub fn input_parse(line: usize, message: impl Into<String>) -> Self {
        let location = format!("line {line}");
        Diagnostic {
            location,
            ..Self::refusal(rules::INPUT_PARSE, message)
        }
    }

    /// [`rules::INPUT_INVALID`].
    pub fn input_invalid(message: impl Into<String>) -> Self {
        Self::refusal(rules::INPUT_INVALID, message)
    }

    /// [`rules::INPUT_IO`]: reading or writing `path` failed with `error`.
    pub fn input_io(path: impl AsRef<std::path::Path>, error: impl std::fmt::Display) -> Self {
        let entity = path.as_ref().display().to_string();
        Diagnostic {
            entity,
            ..Self::refusal(rules::INPUT_IO, error.to_string())
        }
    }

    /// [`rules::INPUT_UNKNOWN`].
    pub fn input_unknown(message: impl Into<String>) -> Self {
        Self::refusal(rules::INPUT_UNKNOWN, message)
    }

    /// The `mesh/*` rule of `error`, about the file `entity`.
    pub fn mesh(error: &MeshError, entity: &str, message: impl Into<String>) -> Self {
        let rule = match error {
            MeshError::UnsupportedCell { .. } => rules::MESH_UNSUPPORTED_CELL,
            MeshError::SharedFace { .. } => rules::MESH_SHARED_FACE,
            MeshError::BadMeasure { .. } => rules::MESH_BAD_MEASURE,
        };
        let entity = entity.to_string();
        Diagnostic {
            entity,
            ..Self::refusal(rule, message)
        }
    }

    /// [`rules::DSL_EXPRESSION`].
    pub fn dsl_expression(message: impl Into<String>) -> Self {
        Self::refusal(rules::DSL_EXPRESSION, message)
    }

    /// [`rules::DSL_PROBLEM`].
    pub fn dsl_problem(message: impl Into<String>) -> Self {
        Self::refusal(rules::DSL_PROBLEM, message)
    }

    /// [`rules::DSL_TARGET`].
    pub fn dsl_target(message: impl Into<String>) -> Self {
        Self::refusal(rules::DSL_TARGET, message)
    }

    /// Human-readable one-liner (the [`Display`](std::fmt::Display) form).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// JSON object (hand-rolled; the verifier must not depend on a
    /// serialization crate), with the string fields `tags` prepended (e.g.
    /// `scenario`/`target`/`tier`) so batch artifacts are self-describing.
    pub fn to_json_tagged(&self, tags: &[(&str, &str)]) -> String {
        let severity = self.severity.to_string();
        let fields = [("severity", severity.as_str()), ("rule", self.rule)];
        let fields = fields.into_iter().chain([
            ("entity", self.entity.as_str()),
            ("location", self.location.as_str()),
            ("message", self.message.as_str()),
        ]);
        let members: Vec<String> = (tags.iter().copied().chain(fields))
            .map(|(key, value)| format!("{}:{}", json_str(key), json_str(value)))
            .collect();
        format!("{{{}}}", members.join(","))
    }
}

/// An empty entity or location is left out.
impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if !self.entity.is_empty() {
            write!(f, " {}", self.entity)?;
        }
        if !self.location.is_empty() {
            write!(f, " at {}", self.location)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for Diagnostic {}

/// [`rules::DSL_PARSE`]: the conservation-form expression does not parse.
impl From<pbte_symbolic::ParseError> for Diagnostic {
    fn from(e: pbte_symbolic::ParseError) -> Self {
        Self::refusal(rules::DSL_PARSE, format!("parse error: {e}"))
    }
}

/// JSON array of diagnostics.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(|d| d.to_json_tagged(&[])).collect();
    format!("[{}]", items.join(","))
}

/// Run every check that applies to `target`. Empty result = the plan is
/// proven clean. A target configuration with no rank scopes — more ranks
/// than cells, which `solve` refuses, or an index with fewer values than
/// ranks, which `build` refuses — skips the race pass.
pub fn verify_plan(cp: &CompiledProblem, target: &ExecTarget) -> Vec<Diagnostic> {
    let scopes = rank_scopes(cp, target).unwrap_or_default();
    verify_scopes(cp, target, &scopes)
}

/// The gate a plan from untrusted input passes before a step runs:
/// [`verify_plan`], then the dimensional and the interval analyses. Any
/// error-severity finding refuses the plan.
pub fn verify_gate(cp: &CompiledProblem, target: &ExecTarget) -> Vec<Diagnostic> {
    let mut out = verify_plan(cp, target);
    check_units(cp, &mut out);
    check_intervals(cp, &mut out);
    out
}

/// [`verify_plan`] with the race pass reading `scopes` — what the driver
/// passes so that the split it proves is the value it then runs.
pub(crate) fn verify_scopes(
    cp: &CompiledProblem,
    target: &ExecTarget,
    scopes: &[Scope],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    access::check_kernels(cp, &mut out);
    access::check_initials(cp, &mut out);
    access::check_geometry(cp, &mut out);
    // A JVP twin sweeps the primal's geometry — the value just proved —
    // unless its flux path differs and it built its own.
    let own_geometry = |jcp: &&CompiledProblem| !std::sync::Arc::ptr_eq(&jcp.hot, &cp.hot);
    if let Some(jcp) = cp.jvp.as_deref().filter(own_geometry) {
        access::check_geometry(jcp, &mut out);
    }
    boundary::check_boundary_forms(cp, false, &mut out);
    if !scopes.is_empty() {
        races::check_target(cp, target, scopes, &mut out);
    }
    if target.on_device() {
        out.extend(check_schedule(cp, &cp.transfer_schedule()));
    }
    out
}
