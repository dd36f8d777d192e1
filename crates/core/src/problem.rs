//! The user-facing problem description — Finch's command set as a builder.
//!
//! A [`Problem`] collects exactly what the paper's example input script
//! provides (appendix listing): configuration (`domain`, `timeStepper`,
//! `setSteps`, `useCUDA`; `solverType` is always finite volume), the
//! mesh, entities (`index`, `variable`, `coefficient`), boundary
//! conditions with user callback functions, the `postStepFunction`,
//! `assemblyLoops` ordering, and the
//! `conservationForm` input string. `build` runs the symbolic pipeline and
//! produces an executable [`crate::exec::Solver`] for a chosen target.

use crate::analysis::Diagnostic;
use crate::entities::{Coefficient, CoefficientValue, Index, Location, Registry, Variable};
use crate::exec::{ExecTarget, Solver};
use crate::pipeline::{self, DiscreteSystem};
use pbte_mesh::{Digest, Mesh, Point};
use pbte_symbolic::Dim;
use std::fmt;
use std::sync::Arc;

/// The time-integration transform the symbolic pipeline applies on top of
/// the spatial discretization (the paper's `timeStepper`): one of two
/// explicit schemes, which step on RHS sweeps alone, or an implicit
/// θ-scheme or pseudo-transient steady-state iteration, both driven by a
/// symbolically generated Jacobian-vector product and a matrix-free
/// Krylov solve (see `crate::exec::implicit`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Integrator {
    /// Forward Euler, the scheme the paper derives in §II (the default).
    #[default]
    Explicit,
    /// Heun's two-stage explicit Runge–Kutta (second order). Mentioned in
    /// the paper as "a similar treatment applies to explicit methods in
    /// general"; a library-API choice with no `.pbte` or CLI spelling.
    Rk2,
    /// θ-scheme: `u − u_n = dt·[(1−θ)·f(u_n, t) + θ·f(u, t+dt)]`.
    /// θ = 1 is backward Euler (unconditionally stable, first order);
    /// θ = ½ is Crank–Nicolson (A-stable, second order).
    Implicit { theta: f64 },
    /// Pseudo-transient continuation to steady state: repeated backward
    /// Euler steps with the step size grown by switched-evolution
    /// relaxation until `‖f(u)‖ ≤ tol·‖f(u₀)‖` (or `n_steps` pseudo-steps
    /// were taken). `dt` seeds the first pseudo-step; `growth` caps the
    /// per-step SER growth factor.
    Steady { tol: f64, growth: f64 },
}

/// `explicit`, `implicit[:theta]` or `steady[:tol:growth]` — the one
/// spelling `.pbte` files and the `pbte` CLI share. Refuses non-finite
/// numbers and every value [`Integrator::check`] refuses.
impl std::str::FromStr for Integrator {
    type Err = String;

    fn from_str(spec: &str) -> Result<Integrator, String> {
        let number = |key: &str, v: &str| match v.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            Ok(_) => Err(format!("`{key}` must be finite, got `{v}`")),
            Err(_) => Err(format!("`{key}` expects a number, got `{v}`")),
        };
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let integrator = match (head, rest.as_slice()) {
            ("explicit", []) => Integrator::Explicit,
            ("explicit", _) => return Err("`explicit` takes no parameters".into()),
            ("implicit", []) => Integrator::Implicit { theta: 1.0 },
            ("implicit", [t]) => Integrator::Implicit {
                theta: number("theta", t)?,
            },
            ("implicit", _) => return Err("`implicit` takes at most one `:theta`".into()),
            ("steady", []) => Integrator::Steady {
                tol: 1e-6,
                growth: 2.0,
            },
            ("steady", [t, g]) => Integrator::Steady {
                tol: number("tol", t)?,
                growth: number("growth", g)?,
            },
            ("steady", _) => return Err("`steady` takes `:tol:growth` or nothing".into()),
            (other, _) => {
                return Err(format!(
                    "unknown integrator `{other}` (explicit, implicit[:theta], steady[:tol:growth])"
                ))
            }
        };
        integrator.check()?;
        Ok(integrator)
    }
}

impl Integrator {
    /// Stable lowercase name for CLI flags and telemetry attribution.
    pub fn name(&self) -> &'static str {
        match self {
            Integrator::Explicit => "explicit",
            Integrator::Rk2 => "rk2",
            Integrator::Implicit { .. } => "implicit",
            Integrator::Steady { .. } => "steady",
        }
    }

    /// The one parameter rule, which the `FromStr` spelling and
    /// [`Problem::integrator`] share: θ in (0, 1] (θ = 0 *is* forward
    /// Euler — use [`Integrator::Explicit`], which skips the Krylov
    /// machinery), a steady tolerance in (0, 1) and a finite growth
    /// factor above 1.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            Integrator::Implicit { theta } if !(theta > 0.0 && theta <= 1.0) => {
                Err(format!("theta must be in (0, 1], got {theta}"))
            }
            Integrator::Steady { tol, growth }
                if !(tol > 0.0 && tol < 1.0 && growth > 1.0 && growth.is_finite()) =>
            {
                Err(format!(
                    "steady needs 0 < tol < 1 and a finite growth > 1, got tol {tol} and growth {growth}"
                ))
            }
            _ => Ok(()),
        }
    }

    /// Whether this integrator solves an implicit system (and therefore
    /// needs the JVP program and the Krylov machinery).
    pub fn is_implicit(&self) -> bool {
        !matches!(self, Integrator::Explicit | Integrator::Rk2)
    }

    /// Whether the scheme is unconditionally stable for any `dt > 0`
    /// (the interval pass then treats the CFL bound as an accuracy
    /// guideline, not a stability requirement).
    pub fn unconditionally_stable(&self) -> bool {
        match self {
            Integrator::Explicit | Integrator::Rk2 => false,
            Integrator::Implicit { theta } => *theta >= 0.5,
            Integrator::Steady { .. } => true,
        }
    }
}

/// Matrix-free Krylov settings for the implicit integrators. The defaults
/// are deliberately tight: the per-step system is mildly nonsymmetric and
/// Jacobi-preconditioned BiCGStab converges in a handful of iterations at
/// BTE-typical scattering dominance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovConfig {
    /// Relative residual tolerance `‖r‖ ≤ tol·‖b‖`.
    pub tol: f64,
    /// Iteration cap per linear solve.
    pub max_iters: usize,
    /// Newton iteration cap per implicit step (the BTE step system is
    /// affine in the unknown, so 2 suffices: one solve + one re-check).
    pub max_newton: usize,
    /// Inexact-Newton forcing for the pseudo-transient steady driver:
    /// each pseudo-step's linear system is only solved to this relative
    /// residual (one solve, no verification pass). Steady pseudo-steps
    /// are Picard iterates on the callback coupling — solving them to
    /// `tol` wastes matvecs the outer iteration immediately discards.
    pub steady_forcing: f64,
}

impl Default for KrylovConfig {
    fn default() -> Self {
        KrylovConfig {
            tol: 1e-9,
            max_iters: 400,
            max_newton: 4,
            steady_forcing: 1e-2,
        }
    }
}

/// How the hybrid GPU target handles boundary work (§III-D). The
/// simulated device models no host/device overlap, so there is one way,
/// and it selects nothing: the host computes a callback wall's ghosts
/// before the device sweep reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuStrategy {
    /// The paper's Fig 6 name for it (`gpu:async`).
    AsyncBoundary,
}

/// Everything a boundary callback may inspect.
pub struct BoundaryQuery<'a> {
    /// Face centroid.
    pub position: Point,
    /// Outward unit normal of the boundary face.
    pub normal: Point,
    /// Cell inside the domain.
    pub owner_cell: usize,
    /// 0-based values of the unknown's indices (declaration order).
    pub idx: &'a [usize],
    /// Simulation time.
    pub time: f64,
    /// Read access to all fields (e.g. to reflect the unknown).
    pub fields: &'a crate::entities::Fields,
}

/// A boundary callback returns the **ghost value** of the unknown just
/// outside the face; the generated flux code then sets the boundary flux,
/// which is how the paper's isothermal and symmetry conditions work
/// (Eq. 6: ghost = I⁰(T_wall) or the reflected direction's value).
pub type BoundaryFn = Arc<dyn Fn(&BoundaryQuery) -> f64 + Send + Sync>;

/// The source of a [`BoundaryForm::Gather`] wall: for a face with outward
/// unit `normal` and the unknown's 0-based index tuple `idx`, the flat
/// index of the unknown whose owner-cell value *is* the ghost — or `None`
/// for a face this table cannot serve (the wall then stays a callback).
pub type GatherFn = Arc<dyn Fn(Point, &[usize]) -> Option<usize> + Send + Sync>;

/// What a callback's ghost is a function of, when that is less
/// than "anything": a form the plan lowers once, at compile time, into the
/// tables the span kernels read (`exec::Walls`), so the closure is never
/// called during a sweep. The closure stays the definition — the verifier
/// proves the lowered tables against it (`boundary/form-mismatch`) — and
/// the fallback for faces a form cannot serve.
#[derive(Clone)]
pub enum BoundaryForm {
    /// The ghost depends on the face and the index tuple only — never on
    /// time or any field (an isothermal wall). Lowered to one evaluation
    /// per (face, flat).
    Fixed,
    /// `ghost(face, idx) = unknown[owner cell, source(normal, idx)]` — a
    /// permutation of the unknown's own flats at the owner cell (a
    /// specular wall). Lowered to a source-flat table; a face whose
    /// `source` returns `None` for some flat stays a callback.
    Gather(GatherFn),
}

/// A boundary condition attached to one region.
#[derive(Clone)]
pub enum BoundaryCondition {
    /// Constant ghost value.
    Value(f64),
    /// Ghost value from a user callback (Finch's `FLUX` +
    /// `@callbackFunction` path) that declares which variables it reads
    /// through `BoundaryQuery::fields` — what [`crate::analysis`] reasons
    /// about — and, optionally, the [`BoundaryForm`] of its ghost, letting
    /// the plan lower it.
    Callback {
        reads: Vec<String>,
        f: BoundaryFn,
        form: Option<BoundaryForm>,
    },
}

impl BoundaryCondition {
    /// A callback declaring its field reads by variable name (empty slice
    /// = touches no fields). No form is declared: the closure runs on the
    /// host for every (face, flat) of every sweep.
    pub fn callback_reading(
        reads: &[&str],
        f: impl Fn(&BoundaryQuery) -> f64 + Send + Sync + 'static,
    ) -> BoundaryCondition {
        BoundaryCondition::Callback {
            reads: reads.iter().map(|s| s.to_string()).collect(),
            f: Arc::new(f),
            form: None,
        }
    }

    /// A callback declared [`BoundaryForm::Fixed`]: it reads no field and
    /// no time, so the plan evaluates it once per (face, flat).
    pub fn fixed(f: impl Fn(&BoundaryQuery) -> f64 + Send + Sync + 'static) -> BoundaryCondition {
        BoundaryCondition::Callback {
            reads: Vec::new(),
            f: Arc::new(f),
            form: Some(BoundaryForm::Fixed),
        }
    }

    /// A callback declared [`BoundaryForm::Gather`]: `f` returns the
    /// unknown (named in `reads`) at the owner cell and flat
    /// `source(normal, idx)` wherever `source` is `Some`.
    pub fn gather(
        reads: &[&str],
        f: impl Fn(&BoundaryQuery) -> f64 + Send + Sync + 'static,
        source: impl Fn(Point, &[usize]) -> Option<usize> + Send + Sync + 'static,
    ) -> BoundaryCondition {
        BoundaryCondition::Callback {
            reads: reads.iter().map(|s| s.to_string()).collect(),
            f: Arc::new(f),
            form: Some(BoundaryForm::Gather(Arc::new(source))),
        }
    }

    /// Ghost value for one face/flat query.
    #[inline]
    pub fn ghost_value(&self, q: &BoundaryQuery) -> f64 {
        match self {
            BoundaryCondition::Value(v) => *v,
            BoundaryCondition::Callback { f, .. } => f(q),
        }
    }

    /// The declared form of the ghost, if any.
    pub fn form(&self) -> Option<&BoundaryForm> {
        match self {
            BoundaryCondition::Callback { form, .. } => form.as_ref(),
            _ => None,
        }
    }

    /// Variables this condition reads, by name.
    pub fn reads(&self) -> &[String] {
        match self {
            BoundaryCondition::Value(_) => &[],
            BoundaryCondition::Callback { reads, .. } => reads,
        }
    }
}

impl fmt::Debug for BoundaryCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundaryCondition::Value(v) => write!(f, "Value({v})"),
            BoundaryCondition::Callback { reads, form, .. } => {
                let form = match form {
                    None => "",
                    Some(BoundaryForm::Fixed) => ", fixed",
                    Some(BoundaryForm::Gather(_)) => ", gather",
                };
                write!(f, "Callback(reads {reads:?}{form})")
            }
        }
    }
}

/// Reduction interface handed to post-step callbacks so the same user code
/// runs sequentially, threaded, and distributed (where the band-parallel
/// temperature update needs a cross-rank energy reduction).
pub trait Reducer {
    /// Fold `add` over the ranks in rank order; every rank returns with
    /// the same bytes. Rank 0 applies `add` to its own `buf`, each later
    /// rank applies it to the running buffer it receives, and the last
    /// rank's result is sent to all. On one rank it is `add(buf)`.
    ///
    /// The result equals the sequential target's only when the caller
    /// accumulates in partition-index-major order: each rank owns a
    /// contiguous range of the partitioned index in rank order, so a
    /// per-slot sum that visits that index ascending is `seq`'s sum.
    fn fold(&mut self, buf: &mut [f64], add: &mut dyn FnMut(&mut [f64]));
    /// This rank's id.
    fn rank(&self) -> usize;
    /// Total ranks.
    fn n_ranks(&self) -> usize;
}

/// Context for pre/post-step callbacks (the temperature update).
pub struct StepContext<'a> {
    pub fields: &'a mut crate::entities::Fields,
    pub mesh: &'a Mesh,
    pub time: f64,
    pub step: usize,
    /// When an index is partitioned across ranks (band-parallel), the
    /// 0-based value range of that index owned by this rank, with the
    /// index name. `None` means this rank owns everything.
    pub owned_index_range: Option<(String, std::ops::Range<usize>)>,
    /// Cells owned by this rank (`None` = all cells). Cell-partitioned
    /// targets restrict the update to owned cells.
    pub owned_cells: Option<&'a [usize]>,
    /// Cross-rank reduction.
    pub reducer: &'a mut dyn Reducer,
    /// Worker threads the executor makes available to this callback
    /// (1 = serial). Threaded targets (CpuParallel and the hybrid GPU
    /// targets, whose post-step runs on the host while the device is
    /// otherwise idle) report their rayon pool size so callbacks can
    /// parallelize their own loops; serial and per-rank distributed
    /// targets report 1.
    pub threads: usize,
    /// The executor's telemetry recorder. Callbacks account the work
    /// they perform through `rec.work` (the one accounting path — the
    /// executor cannot count what happens inside user code) and may emit
    /// spans, events, histogram observations and samples; all of it is
    /// dropped for free under the null sink.
    pub rec: &'a mut pbte_runtime::telemetry::Recorder,
}

/// Pre/post-step user function.
pub type StepFn = Arc<dyn Fn(&mut StepContext) + Send + Sync>;

/// A registered pre/post-step callback plus its declared field accesses.
#[derive(Clone)]
pub struct StepCallback {
    pub f: StepFn,
    /// Diagnostic label ("temperature_update", ...).
    pub name: String,
    /// Variable names read through `StepContext::fields`.
    pub reads: Vec<String>,
    /// Variable names written through `StepContext::fields`.
    pub writes: Vec<String>,
}

impl StepCallback {
    fn new(
        name: &str,
        reads: &[&str],
        writes: &[&str],
        f: impl Fn(&mut StepContext) + Send + Sync + 'static,
    ) -> StepCallback {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        StepCallback {
            f: Arc::new(f),
            name: name.to_string(),
            reads: names(reads),
            writes: names(writes),
        }
    }
}

impl fmt::Debug for StepCallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StepCallback({} reads {:?} writes {:?})",
            self.name, self.reads, self.writes
        )
    }
}

/// Initial-condition function: value at `(cell centroid, idx)`.
pub type InitFn = Arc<dyn Fn(Point, &[usize]) -> f64 + Send + Sync>;

/// How a variable gets its value before step 0.
#[derive(Clone)]
pub enum Initial {
    /// A host closure, called once per (index tuple, cell)
    /// ([`Problem::initial`]).
    Fn(InitFn),
    /// The source of an expression over variables that already have an
    /// initial value, evaluated one flat row at a time
    /// ([`Problem::initial_expr`]).
    Expr(String),
}

/// Context handed to a custom-operator expander.
pub struct OperatorContext {
    /// Spatial dimension of the problem.
    pub dim: usize,
    /// Name of the unknown variable.
    pub unknown: String,
}

/// A custom symbolic operator — the paper: "A powerful feature of the DSL
/// is the ability to define and import any custom symbolic operator. For
/// example, a more sophisticated flux reconstruction could be created and
/// used in the input expression similar to upwind."
///
/// The expander receives the call's (already rebuilt) argument expressions
/// and produces the replacement, which may use the flux markers
/// `NORMAL_1..3` and `CELL1(u)`/`CELL2(u)` (built with
/// [`pbte_symbolic::Expr`] constructors). Returning `Err` aborts the
/// pipeline with a diagnostics message.
pub type OperatorFn = Arc<
    dyn Fn(&[pbte_symbolic::ExprRef], &OperatorContext) -> Result<pbte_symbolic::ExprRef, String>
        + Send
        + Sync,
>;

/// Which execution tier evaluates the intensity-phase RHS.
///
/// The tiers trade generality for speed: `Vm` evaluates the compiled
/// register statements per DOF (patterns resolved every operand), `Row`
/// runs the per-flat bound programs (patterns folded to offsets, coefficients
/// and `dt` folded to constants), batched into a row kernel that fuses the
/// whole update `u_new = u + dt·(source − flux·invV)` over a contiguous
/// cell span, and
/// `Native` lowers the row programs to Rust source, compiles them
/// out-of-process with `rustc` into a `cdylib`, and calls the machine-code
/// kernels through a content-hashed on-disk plan cache.
/// All tiers produce bit-identical results, on every mesh and every plan:
/// `Row` and `Native` evaluate the face flux from a per-orientation
/// coefficient table where the flux allows one and the mesh has few
/// orientations, and from the flux's own bound program otherwise (a cell
/// variable the flux reads is the owner cell's, a function coefficient is
/// evaluated at the face centroid, `t` is read when the kernel runs). The
/// tier requested is the tier that runs, with one exception: `Native`,
/// the tier of a problem that names none, falls back to `Row` (with a
/// structured diagnostic) when `rustc` is unavailable, compilation
/// fails, or the plan calls a function coefficient (a host closure the
/// emitted code cannot call).
// `Bound` is hidden, not a non-exhaustive marker: `#[non_exhaustive]`
// would break the exhaustive matches it is kept for.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// The compiled register statements, evaluated per DOF.
    Vm,
    /// Not a tier: the name of the per-flat stack interpreter the row
    /// tier replaced, kept so that code matching every variant still
    /// compiles. It is not in [`KernelTier::ALL`], [`KernelTier::from_name`]
    /// does not accept it, and a request for it runs as `Row`.
    #[doc(hidden)]
    Bound,
    /// Fused, batched row kernel over contiguous cell spans.
    Row,
    /// AOT-compiled native kernels (emitted Rust → `rustc` → `dlopen`).
    Native,
}

impl KernelTier {
    /// Every tier, slowest first.
    pub const ALL: [KernelTier; 3] = [KernelTier::Vm, KernelTier::Row, KernelTier::Native];

    /// Stable lowercase name, used for CLI flags and telemetry span
    /// attribution.
    pub fn name(&self) -> &'static str {
        match self {
            KernelTier::Vm => "vm",
            KernelTier::Bound => "bound",
            KernelTier::Row => "row",
            KernelTier::Native => "native",
        }
    }

    /// Inverse of [`KernelTier::name`]: the one parser of `tier=` values.
    pub fn from_name(name: &str) -> Option<KernelTier> {
        KernelTier::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The tier a request for `self` runs on, before any native fallback:
    /// itself, except that the hidden `Bound` is a `Row` request.
    pub(crate) fn requested(self) -> KernelTier {
        match self {
            KernelTier::Bound => KernelTier::Row,
            t => t,
        }
    }
}

/// The content a plan is lowered from, as a 128-bit digest
/// ([`Problem::plan_key`]): two problems of one key lower to the same
/// plan, so the second takes the first's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey(Digest);

impl PlanKey {
    /// The key of the JVP twin of the plan this names: its own entry,
    /// asked for only by the problems that step implicitly.
    pub(crate) fn jvp(self) -> PlanKey {
        PlanKey(self.0.tagged("jvp"))
    }
}

/// A PDE problem under construction.
#[derive(Clone)]
pub struct Problem {
    pub name: String,
    pub dim: usize,
    /// Time-integration transform (Euler / RK2 / implicit θ-scheme /
    /// pseudo-transient steady state).
    pub integrator: Integrator,
    /// Krylov settings for the implicit integrators.
    pub krylov: KrylovConfig,
    pub dt: f64,
    pub n_steps: usize,
    /// Shared, not owned: the problem of a JVP twin is a clone of its
    /// primal's, and a mesh is the largest thing either holds.
    pub mesh: Option<Arc<Mesh>>,
    pub registry: Registry,
    /// Vector coefficients: name → component coefficient ids.
    pub vector_coefficients: Vec<(String, Vec<usize>)>,
    /// The unknown variable id and its conservation-form source string.
    pub equation: Option<(usize, String)>,
    /// (variable, region name, condition).
    pub boundary_conditions: Vec<(usize, String, BoundaryCondition)>,
    /// (variable, how it is initialised), in declaration order. The
    /// closures fill first, then the expressions in this order.
    pub initials: Vec<(usize, Initial)>,
    pub pre_steps: Vec<StepCallback>,
    pub post_steps: Vec<StepCallback>,
    /// Registered custom symbolic operators, expanded by the pipeline
    /// before the built-in `upwind`.
    pub custom_operators: Vec<(String, OperatorFn)>,
    /// Which kernel tier evaluates the intensity phase; starts at
    /// `Native`.
    pub kernel_tier: KernelTier,
    /// Declared physical ranges `(entity name, lo, hi)` for variables and
    /// function coefficients, consumed by the interval-domain safety pass
    /// (`crate::analysis::check_intervals`). Purely declarative: nothing
    /// clamps values at runtime.
    pub ranges: Vec<(String, f64, f64)>,
    /// Declared physical units `(entity name, SI dimension)` for
    /// variables, coefficients, and any free symbols in boundary or
    /// source expressions, consumed by the dimensional-analysis pass
    /// (`crate::analysis::check_units`). Like `ranges`, purely
    /// declarative.
    pub units: Vec<(String, Dim)>,
}

impl Problem {
    /// Start a new problem (Finch's `initFinch(name)`).
    pub fn new(name: &str) -> Problem {
        Problem {
            name: name.to_string(),
            dim: 2,
            integrator: Integrator::Explicit,
            krylov: KrylovConfig::default(),
            dt: 1e-3,
            n_steps: 1,
            mesh: None,
            registry: Registry::default(),
            vector_coefficients: Vec::new(),
            equation: None,
            boundary_conditions: Vec::new(),
            initials: Vec::new(),
            pre_steps: Vec::new(),
            post_steps: Vec::new(),
            custom_operators: Vec::new(),
            kernel_tier: KernelTier::Native,
            ranges: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Declare the physical range of an entity (variable or function
    /// coefficient) for the interval-domain numeric-safety pass. A
    /// zero-width range (`lo == hi`) is allowed — it is how a constant is
    /// declared — but both bounds must be finite and ordered.
    pub fn declare_range(&mut self, name: &str, lo: f64, hi: f64) -> &mut Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "range for {name} must be finite and ordered, got [{lo}, {hi}]"
        );
        self.ranges.retain(|(n, _, _)| n != name);
        self.ranges.push((name.to_string(), lo, hi));
        self
    }

    /// Declare the SI unit of an entity (variable, coefficient, or free
    /// symbol) for the dimensional-analysis pass. The specification uses
    /// the grammar of [`Dim::parse`] (`"W/m^2"`, `"1/s"`, `"K"`, `"1"`).
    /// Panics on an unparseable specification — unit declarations are
    /// written by scenario authors, and a typo should fail loudly at
    /// build time, exactly like the finite/ordered assertion on
    /// [`Problem::declare_range`].
    pub fn declare_unit(&mut self, name: &str, spec: &str) -> &mut Self {
        let dim =
            Dim::parse(spec).unwrap_or_else(|e| panic!("bad unit spec `{spec}` for {name}: {e}"));
        self.units.retain(|(n, _)| n != name);
        self.units.push((name.to_string(), dim));
        self
    }

    /// Pin the intensity phase to a specific kernel tier (default:
    /// `Native`).
    pub fn kernel_tier(&mut self, tier: KernelTier) -> &mut Self {
        self.kernel_tier = tier;
        self
    }

    /// `domain(d)`.
    pub fn domain(&mut self, dim: usize) -> &mut Self {
        assert!(dim == 2 || dim == 3, "domain must be 2 or 3 dimensional");
        self.dim = dim;
        self
    }

    /// `timeStepper(...)`: select the time-integration transform
    /// (default: forward Euler). Panics on a parameter
    /// [`Integrator::check`] refuses.
    pub fn integrator(&mut self, integrator: Integrator) -> &mut Self {
        if let Err(e) = integrator.check() {
            panic!("{e}");
        }
        self.integrator = integrator;
        self
    }

    /// Tune the matrix-free Krylov solve of the implicit integrators.
    pub fn krylov(&mut self, cfg: KrylovConfig) -> &mut Self {
        assert!(cfg.tol > 0.0 && cfg.max_iters > 0 && cfg.max_newton > 0);
        self.krylov = cfg;
        self
    }

    /// `setSteps(dt, nsteps)`.
    pub fn set_steps(&mut self, dt: f64, n_steps: usize) -> &mut Self {
        assert!(dt > 0.0 && n_steps > 0);
        self.dt = dt;
        self.n_steps = n_steps;
        self
    }

    /// `mesh(...)`: attach the mesh.
    pub fn mesh(&mut self, mesh: Mesh) -> &mut Self {
        self.dim = mesh.dim;
        self.mesh = Some(Arc::new(mesh));
        self
    }

    /// `index("d", range=[1,n])`. Returns the index id.
    pub fn index(&mut self, name: &str, len: usize) -> usize {
        assert!(len > 0, "index {name} must have at least one value");
        assert!(
            self.registry.index_id(name).is_none(),
            "index {name} already defined"
        );
        self.registry.indices.push(Index {
            name: name.to_string(),
            len,
        });
        self.registry.indices.len() - 1
    }

    /// `variable("I", VAR_ARRAY, CELL, index=[d,b])`. Returns the
    /// variable id.
    pub fn variable(&mut self, name: &str, indices: &[usize]) -> usize {
        assert!(
            self.registry.variable_id(name).is_none(),
            "variable {name} already defined"
        );
        self.registry.variables.push(Variable {
            name: name.to_string(),
            location: Location::Cell,
            indices: indices.to_vec(),
        });
        self.registry.variables.len() - 1
    }

    /// `coefficient("vg", values, VAR_ARRAY)` — one value per flattened
    /// index combination.
    pub fn coefficient_array(&mut self, name: &str, indices: &[usize], values: Vec<f64>) -> usize {
        let expected = self.registry.flat_len(indices);
        assert_eq!(
            values.len(),
            expected,
            "coefficient {name}: {} values for {expected} index combinations",
            values.len()
        );
        self.push_coefficient(name, indices, CoefficientValue::Array(values))
    }

    /// Scalar coefficient.
    pub fn coefficient_scalar(&mut self, name: &str, value: f64) -> usize {
        self.push_coefficient(name, &[], CoefficientValue::Scalar(value))
    }

    /// Coefficient given as a function of position and time.
    pub fn coefficient_fn(
        &mut self,
        name: &str,
        f: impl Fn(Point, f64) -> f64 + Send + Sync + 'static,
    ) -> usize {
        self.push_coefficient(name, &[], CoefficientValue::Function(Arc::new(f)))
    }

    fn push_coefficient(
        &mut self,
        name: &str,
        indices: &[usize],
        value: CoefficientValue,
    ) -> usize {
        assert!(
            self.registry.coefficient_id(name).is_none(),
            "coefficient {name} already defined"
        );
        self.registry.coefficients.push(Coefficient {
            name: name.to_string(),
            indices: indices.to_vec(),
            value,
        });
        self.registry.coefficients.len() - 1
    }

    /// A constant vector coefficient such as the advection velocity `b` in
    /// the §II example. Registers scalar components `<name>_1..dim` and the
    /// vector name for `upwind(name, u)` expansion.
    pub fn vector_coefficient(&mut self, name: &str, components: Vec<f64>) -> &mut Self {
        assert_eq!(
            components.len(),
            self.dim,
            "vector coefficient {name} needs {} components",
            self.dim
        );
        let ids: Vec<usize> = components
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                self.push_coefficient(
                    &format!("{name}_{}", k + 1),
                    &[],
                    CoefficientValue::Scalar(v),
                )
            })
            .collect();
        self.vector_coefficients.push((name.to_string(), ids));
        self
    }

    /// Register a custom symbolic operator usable in the conservation
    /// form (expanded before the built-in `upwind`). The name must not
    /// collide with built-ins or known functions.
    pub fn custom_operator(
        &mut self,
        name: &str,
        f: impl Fn(
                &[pbte_symbolic::ExprRef],
                &OperatorContext,
            ) -> Result<pbte_symbolic::ExprRef, String>
            + Send
            + Sync
            + 'static,
    ) -> &mut Self {
        assert!(
            !matches!(name, "upwind" | "surface" | "conditional"),
            "`{name}` is a built-in operator"
        );
        assert!(
            !self.custom_operators.iter().any(|(n, _)| n == name),
            "operator `{name}` already registered"
        );
        self.custom_operators.push((name.to_string(), Arc::new(f)));
        self
    }

    /// `conservationForm(u, "...")`.
    ///
    /// Sign convention: the input describes the right-hand side of
    /// `du/dt = Σ volume terms − (1/V)·∮ Σ flux integrands dA` — a
    /// `surface(f)` term carries the divergence-theorem negative
    /// implicitly, so the BTE reads
    /// `"(Io[b]-I[d,b])*beta[b] + surface(vg[b]*upwind(...))"`, verbatim
    /// the paper's §III-B/appendix listing. (The paper's §II example
    /// spells the sign out instead — the two listings disagree in the
    /// paper itself; this implementation follows the full appendix
    /// script.)
    pub fn conservation_form(&mut self, var: usize, rhs: &str) -> &mut Self {
        assert!(
            self.equation.is_none(),
            "only one conservation-form equation is supported"
        );
        self.equation = Some((var, rhs.to_string()));
        self
    }

    /// `boundary(I, region, FLUX, "callback(...)")` — ghost-value callback.
    pub fn boundary(
        &mut self,
        var: usize,
        region: &str,
        condition: BoundaryCondition,
    ) -> &mut Self {
        self.boundary_conditions
            .push((var, region.to_string(), condition));
        self
    }

    /// `initial(I, ...)`.
    pub fn initial(
        &mut self,
        var: usize,
        f: impl Fn(Point, &[usize]) -> f64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.initials.push((var, Initial::Fn(Arc::new(f))));
        self
    }

    /// `initial(I, "Io[b]")` — the paper DSL's own form: an expression over
    /// the indices of `var`, coefficients, and variables that already have
    /// an initial value (every closure initial, and the expression
    /// initials declared before this one). It compiles like the
    /// conservation form's volume term — `var`'s indices are the loop
    /// slots, `t` is 0 — and fills `var` one flat row at a time. The plan
    /// verifier refuses (`initial/uninitialised-read`) an expression that
    /// reads `var` itself or a variable nothing has initialised yet.
    pub fn initial_expr(&mut self, var: usize, rhs: &str) -> &mut Self {
        self.initials.push((var, Initial::Expr(rhs.to_string())));
        self
    }

    /// `preStepFunction(f)`, declaring the variables `f` reads and writes
    /// through `StepContext::fields` (by name): the static analyzer derives
    /// transfer schedules and write disjointness from them, and `compile`
    /// refuses a name that is not a variable.
    pub fn pre_step(
        &mut self,
        name: &str,
        reads: &[&str],
        writes: &[&str],
        f: impl Fn(&mut StepContext) + Send + Sync + 'static,
    ) -> &mut Self {
        self.pre_steps
            .push(StepCallback::new(name, reads, writes, f));
        self
    }

    /// `postStepFunction(f)` — e.g. the BTE temperature update — with its
    /// declared read/write sets, as for [`Problem::pre_step`].
    pub fn post_step(
        &mut self,
        name: &str,
        reads: &[&str],
        writes: &[&str],
        f: impl Fn(&mut StepContext) + Send + Sync + 'static,
    ) -> &mut Self {
        self.post_steps
            .push(StepCallback::new(name, reads, writes, f));
        self
    }

    /// The key of the plan this problem lowers to: a digest of exactly
    /// what lowering reads, so that equal keys mean equal plans.
    ///
    /// * what the symbolic pipeline reads (`pipeline::fold_inputs`): the
    ///   equation text, `dim`, the vector coefficients, and the registry —
    ///   index lengths, variable and coefficient shapes, coefficient
    ///   *values* by their bits (lowered programs and the flux table fold
    ///   them into constants);
    /// * `dt` (the flux table is probed with it and the native kernels
    ///   bake it);
    /// * per boundary region the *form* of its condition — constant,
    ///   callback with which reads, Fixed, Gather — never the
    ///   closure or the constant's value: those fill the walls' image,
    ///   which every instance builds for itself. (The one thing a Gather
    ///   closure can still move under an equal key, the number of ghost
    ///   rows the native source bakes, is checked where that source is
    ///   used: `nativegen::prepare`.)
    /// * the declared initial expressions (they compile like a volume
    ///   term);
    /// * the mesh, by [`Mesh::digest`]: orientation classes, stencil runs
    ///   and cell counts are functions of it.
    ///
    /// Deliberately absent: the name, `n_steps`, the Krylov settings, the
    /// kernel tier and the integrator — Euler, RK2 and the implicit
    /// schemes all sweep the one primal plan (the fused `u + dt·rhs` is a
    /// kernel argument), and every tier runs from it — and
    /// declared ranges and units, which only the verifier passes read, per
    /// instance. `None` ("lower as ever, keep nothing") without an
    /// equation or a mesh, and for a problem with a custom operator.
    pub fn plan_key(&self) -> Option<PlanKey> {
        let mesh = self.mesh.as_ref()?;
        let mut d = Digest::new();
        pipeline::fold_inputs(self, &mut d)?;
        d.f64(self.dt);
        d.size(self.boundary_conditions.len());
        for (var, region, bc) in &self.boundary_conditions {
            d.size(*var);
            d.str(region);
            match bc {
                BoundaryCondition::Value(_) => d.str("value"),
                BoundaryCondition::Callback { reads, form, .. } => {
                    d.str(match form {
                        None => "declared",
                        Some(BoundaryForm::Fixed) => "fixed",
                        Some(BoundaryForm::Gather(_)) => "gather",
                    });
                    d.size(reads.len());
                    reads.iter().for_each(|r| d.str(r));
                }
            }
        }
        d.size(self.initials.len());
        for (var, initial) in &self.initials {
            d.size(*var);
            match initial {
                Initial::Fn(_) => d.size(0),
                Initial::Expr(src) => {
                    d.size(1);
                    d.str(src);
                }
            }
        }
        d.digest(mesh.digest());
        Some(PlanKey(d))
    }

    /// Run the symbolic pipeline only (parse → expand → time transform →
    /// classify). Exposed for inspection and tests; `build` calls it.
    pub fn analyze(&self) -> Result<DiscreteSystem, Diagnostic> {
        let (var, src) = self
            .equation
            .as_ref()
            .ok_or_else(|| Diagnostic::dsl_problem("no conservationForm given"))?;
        pipeline::analyze(self, *var, src)
    }

    /// Build an executable solver for `target`.
    pub fn build(self, target: ExecTarget) -> Result<Solver, Diagnostic> {
        Solver::build(self, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_registers_entities() {
        let mut p = Problem::new("t");
        p.domain(2);
        let d = p.index("d", 4);
        let b = p.index("b", 3);
        let i = p.variable("I", &[d, b]);
        let io = p.variable("Io", &[b]);
        p.coefficient_array("vg", &[b], vec![1.0, 2.0, 3.0]);
        p.coefficient_scalar("k", 2.0);
        assert_eq!(i, 0);
        assert_eq!(io, 1);
        assert_eq!(p.registry.flat_len(&[d, b]), 12);
        assert_eq!(p.registry.coefficient_id("vg"), Some(0));
    }

    #[test]
    fn vector_coefficient_registers_components() {
        let mut p = Problem::new("t");
        p.domain(2);
        p.vector_coefficient("bvec", vec![0.5, -1.0]);
        assert!(p.registry.coefficient_id("bvec_1").is_some());
        assert!(p.registry.coefficient_id("bvec_2").is_some());
        assert_eq!(p.vector_coefficients.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn duplicate_names_rejected() {
        let mut p = Problem::new("t");
        p.index("d", 2);
        p.index("d", 3);
    }

    #[test]
    #[should_panic(expected = "3 values for 4")]
    fn coefficient_length_checked() {
        let mut p = Problem::new("t");
        let d = p.index("d", 4);
        p.coefficient_array("c", &[d], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn analyze_requires_equation() {
        let p = Problem::new("t");
        assert!(matches!(p.analyze(), Err(d) if d.rule == crate::analysis::rules::DSL_PROBLEM));
    }
}
