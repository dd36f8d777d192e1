//! Execution targets for compiled problems.
//!
//! `build` lowers a [`Problem`] into a [`CompiledProblem`] shared by every
//! target, in two parts with one seam. The [`Plan`] — symbolic system,
//! volume and flux kernels, index geometry, flux table, loaded native
//! kernels — depends only on the problem's *content* and is lowered once
//! per process and [`PlanKey`]: [`CompiledProblem::compile`] takes it from a
//! once-per-key store (a miss is the lowering closure running; a problem
//! whose content cannot be named — a custom operator — lowers every time),
//! and a later build of the same equation, coefficients, `dt`, boundary
//! forms and mesh reuses it, whatever its hot spot, step count, tier or
//! integrator. The instance — resolved boundary conditions, wall tables,
//! initial fields, hot face geometry: whatever a closure produced or the
//! mesh sizes — is built for every problem by the same step, and every
//! verifier pass runs on it; nothing mesh-sized is ever stored.
//! `solve` then runs the one time loop,
//! `driver::drive` — pre-step callbacks → stage (halo → the stage's
//! records, explicit or θ-scheme Newton–Krylov) → post-step callbacks →
//! accounting — on every target. What a stage is — its records, where each
//! runs, what each reads and writes — is data, built in one place
//! ([`crate::dataflow::step_records`]). A target contributes three things:
//!
//! * a `Backend` — what running one record means: `CpuBackend` (the tile
//!   walk `rows::sweep`) or the simulated device's `GpuBackend` (`gpu`,
//!   with the copies the stage attaches to the record), both evaluating
//!   the same `rows::rhs_block` once per tile;
//! * a [`StepLinks`] — halo exchange and reductions: [`LocalLinks`]
//!   (none) or `dist`'s message-passing `RankLinks`;
//! * its rank scopes from [`crate::analysis::rank_scopes`] — per rank one
//!   [`Scope`] value: the owned (cells × flats),
//!   the tiles they are swept in and the workers the tiles fan out to
//!   (one everywhere but `CpuParallel`). The driver walks it, the device
//!   launches it, the cost model scopes by it and the race analysis
//!   proves *that value* disjoint and covering.
//!
//! Boundary conditions the plan could lower ([`Walls`]) are tables the
//! kernels read; only walls left to a closure run on the host.
//!
//! Agreement guarantees (asserted by integration tests): every target —
//! sequential, threaded, cell-distributed, and the GPU under either
//! strategy label — is bit-identical to every other on every kernel tier:
//! they run the same per-dof arithmetic in the same face order, the
//! ghosts of callback walls computed on the host and read by the sweep.
//! Band distribution (`bands:<r>`, `bands-gpu:<r>`) too: its one
//! cross-rank sum is a fold in rank order, which is the sequential
//! band-ascending sum.

pub(crate) mod dist;
pub(crate) mod driver;
pub(crate) mod gpu;
pub(crate) mod implicit;
pub(crate) mod rows;
pub(crate) mod seq;
pub(crate) mod walls;

pub use walls::Walls;
use walls::GATHER;

use crate::analysis::{Diagnostic, Scope};
use crate::bytecode::{
    Binding, Compiler, KernelKind, Program, RegProgram, FACE_INPUTS, FACE_NORMAL, FACE_U1, FACE_U2,
    ROW_CHUNK,
};
use crate::dataflow::TransferSchedule;
use crate::entities::Fields;
use crate::pipeline::DiscreteSystem;
use crate::problem::{BoundaryCondition, GpuStrategy, Initial, KernelTier, PlanKey, Problem};
use pbte_gpu::DeviceSpec;
use pbte_runtime::timer::PhaseTimer;
use pbte_runtime::world::CommStats;
use std::sync::{Arc, OnceLock};

/// Phase names shared by the executors and the figure harness (the
/// paper's Figs 5 and 8 categories).
pub mod phases {
    pub const INTENSITY: &str = "solve for intensity";
    pub const TEMPERATURE: &str = "temperature update";
    pub const COMMUNICATION: &str = "communication";
    pub const INTENSITY_GPU: &str = "solve for intensity(GPU)";
    pub const TEMPERATURE_CPU: &str = "temperature update(CPU)";
    pub const COMM_GPU: &str = "communication(CPU<->GPU)";
}

/// Where and how to run a compiled problem.
#[derive(Debug, Clone)]
pub enum ExecTarget {
    /// Plain sequential loops.
    CpuSeq,
    /// Shared-memory threads (rayon): each sweep is one parallel region
    /// over the scope's tiles (every flat's cell range cut per thread).
    CpuParallel,
    /// Distributed ranks, mesh partitioned among them (halo exchange of the
    /// unknown each step).
    DistCells { ranks: usize },
    /// Distributed ranks, one index (the paper partitions bands `b`)
    /// partitioned among them; the post-step reduction crosses ranks.
    DistBands { ranks: usize, index: String },
    /// Hybrid CPU + simulated GPU.
    GpuHybrid {
        spec: DeviceSpec,
        strategy: GpuStrategy,
    },
    /// Band-distributed ranks, each paired with its own simulated GPU —
    /// the configuration of the paper's Fig 7.
    DistBandsGpu {
        ranks: usize,
        index: String,
        spec: DeviceSpec,
        strategy: GpuStrategy,
    },
}

impl ExecTarget {
    /// Short stable name — the CLI's `target=` spelling — used to label
    /// a run in its telemetry record.
    pub fn label(&self) -> String {
        match self {
            ExecTarget::CpuSeq => "seq".into(),
            ExecTarget::CpuParallel => "par".into(),
            ExecTarget::DistCells { ranks } => format!("cells:{ranks}"),
            ExecTarget::DistBands { ranks, .. } => format!("bands:{ranks}"),
            ExecTarget::GpuHybrid { .. } => "gpu:async".into(),
            ExecTarget::DistBandsGpu { ranks, .. } => format!("bands-gpu:{ranks}"),
        }
    }

    /// Whether the target sweeps on a device (and so carries a transfer
    /// schedule).
    pub fn on_device(&self) -> bool {
        matches!(
            self,
            ExecTarget::GpuHybrid { .. } | ExecTarget::DistBandsGpu { .. }
        )
    }
}

/// Per-stage distributed services a step needs: the reduction interface
/// callbacks use, plus the halo exchange multi-stage steppers must repeat
/// before *every* stage (RK2 reads neighbor values of the intermediate
/// state, so one exchange per step would silently desynchronize ranks).
pub trait StepLinks: crate::problem::Reducer {
    /// Refresh remote neighbor values of the unknown in `fields`.
    fn halo_exchange(&mut self, fields: &mut Fields);

    /// Cumulative seconds spent communicating (halos *and* reductions)
    /// since this links object was built. The driver reads this around
    /// each window of a step to attribute halos, Krylov dot-product
    /// reductions and callback reductions to the communication phase.
    fn comm_seconds(&self) -> f64 {
        0.0
    }

    /// Cumulative bytes moved since construction.
    fn comm_bytes(&self) -> u64 {
        0
    }

    /// Flush any buffered communication trace intervals into `rec`,
    /// attributed to `step`. Distributed links buffer intervals because
    /// the recorder is lent elsewhere while communication happens.
    fn drain_comm_spans(&mut self, _rec: &mut pbte_runtime::telemetry::Recorder, _step: usize) {}
}

/// No-op links for single-address-space targets, and the no-op
/// [`Reducer`](crate::problem::Reducer) a step callback gets when it runs
/// outside a distributed solve.
pub struct LocalLinks;

impl crate::problem::Reducer for LocalLinks {
    fn fold(&mut self, buf: &mut [f64], add: &mut dyn FnMut(&mut [f64])) {
        add(buf)
    }
    fn rank(&self) -> usize {
        0
    }
    fn n_ranks(&self) -> usize {
        1
    }
}

impl StepLinks for LocalLinks {
    fn halo_exchange(&mut self, _fields: &mut Fields) {}
}

/// Work executed, counted exactly (feeds the performance model).
///
/// This now lives in `pbte_runtime::telemetry` — the unified sink every
/// executor and step callback writes through (via
/// [`Recorder::work`](pbte_runtime::telemetry::Recorder)) — and is
/// re-exported here for the existing `SolveReport` consumers. Note on
/// `temperature_solves`: under `TemperatureStrategy::RedundantNewton`
/// every band-parallel rank solves all cells, so the cross-rank sum is
/// `ranks * n_cells * steps`; under `DividedNewton` each cell is solved
/// on exactly one rank and the sum stays `n_cells * steps`.
pub use pbte_runtime::telemetry::WorkCounters;

/// The unified telemetry sink and its `Copy` configuration, re-exported
/// so downstream crates (benches, inspectors) can drive
/// [`Solver::solve_traced`] without a direct `pbte-runtime` dependency.
pub use pbte_runtime::telemetry::{CostExpectation, Findings, Recorder, TraceConfig};

/// Every finding a solve's recorder kept, as the [`Diagnostic`]s the
/// static analyses report too.
pub fn telemetry_diagnostics(rec: &Recorder) -> Vec<Diagnostic> {
    finding_diagnostics(rec.findings())
}

/// [`telemetry_diagnostics`] of the findings a [`SolveReport`] carries:
/// what an untraced run found.
pub fn finding_diagnostics(findings: &Findings) -> Vec<Diagnostic> {
    (findings.kept.iter())
        .map(|e| Diagnostic {
            severity: e.severity,
            rule: e.name,
            entity: format!("rank {}", e.rank),
            location: format!("t={:.3}s", e.time),
            message: e.message.clone(),
        })
        .collect()
}

/// Result of a solve.
#[derive(Debug)]
pub struct SolveReport {
    pub steps: usize,
    /// Per-phase times. Host phases are wall-clock seconds; on GPU targets
    /// the `*(GPU)` / `(CPU<->GPU)` phases are *simulated device seconds*
    /// (see `pbte-gpu`). The figure harness uses its own uniform model and
    /// treats these as structural information.
    pub timer: PhaseTimer,
    /// Communication totals across ranks (distributed targets).
    pub comm: CommStats,
    /// Exact executed work.
    pub work: WorkCounters,
    /// Device profile (GPU targets).
    pub device: Option<pbte_gpu::ProfileReport>,
    /// What the run found, over every rank: the same on every sink.
    pub findings: Findings,
    /// Bytes of the integrator's own buffers on one rank (the largest):
    /// what [`MemoryReport::workspace_bytes`] predicts.
    pub workspace_bytes: usize,
}

/// A boundary face with its resolved condition (its region's, shared).
#[derive(Clone)]
pub(crate) struct BoundaryFace {
    pub face: usize,
    pub bc: Arc<BoundaryCondition>,
}

/// Flux specialization shared by every target's sweep.
///
/// When the flux integrand is affine in the `CELL1`/`CELL2` values with
/// coefficients that depend only on the flat index and the face normal
/// (true for every upwind-form flux the `upwind` operator generates), the
/// code generator hoists the coefficients out of the hot loop:
/// `flux = γ + α·u₁ + β·u₂` with `(α, β, γ)` precomputed per
/// (flat index, oriented-normal class). The emitted GPU source keeps the
/// straight-line conditional form; the simulated device evaluates the
/// hoisted one, like the CPU, and is priced by it
/// ([`crate::analysis::sweep_price`]).
///
/// The table is plan data — a function of the flux program, the
/// coefficient values, `dt` and the normal of each class. Which class a
/// face slot has is mesh-sized and lives in each instance's hot geometry
/// ([`CompiledProblem::face_class`]), found there by looking the slot's
/// normal up in `classes`.
#[derive(Debug, Clone)]
pub struct FluxLinearization {
    /// Number of distinct oriented normals.
    pub n_classes: usize,
    /// The normals the table was probed over, by class.
    classes: NormalClasses,
    /// Coefficients, indexed `flat * n_classes + class`.
    pub alpha: Vec<f64>,
    pub beta: Vec<f64>,
    pub gamma: Vec<f64>,
}

/// How a kernel tier evaluates the face flux — run attribution beside the
/// tier: the same tier is an order of magnitude apart between `Vm` and the
/// other two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FluxPath {
    /// The αβγ lookup of a [`FluxLinearization`], on every tier.
    Table,
    /// The flux program bound like the volume program (Row/Native
    /// without a table).
    Compiled,
    /// The compiled flux program per face (the per-dof tiers without a
    /// table).
    Vm,
}

impl FluxPath {
    /// Stable lowercase name, used in telemetry attributes.
    pub fn name(self) -> &'static str {
        match self {
            FluxPath::Table => "table",
            FluxPath::Compiled => "compiled",
            FluxPath::Vm => "vm",
        }
    }
}

impl FluxLinearization {
    /// Evaluate the linearized flux.
    #[inline]
    pub fn eval(&self, flat: usize, class: u32, u1: f64, u2: f64) -> f64 {
        let at = flat * self.n_classes + class as usize;
        self.gamma[at] + self.alpha[at] * u1 + self.beta[at] * u2
    }

    /// The oriented normal of every class, in class order: what the table
    /// was probed over.
    pub fn class_normals(&self) -> impl Iterator<Item = [f64; 3]> + '_ {
        self.classes.normals()
    }
}

/// Orientation classes above which the αβγ table (`n_flat × classes × 3`
/// doubles) would outgrow the mesh itself; such meshes take the compiled
/// flux instead.
const MAX_CLASSES: usize = 1024;

/// Oriented unit normals classified by exact bit pattern (normals of
/// identical geometry are computed identically), numbered in the order
/// they were first seen.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NormalClasses {
    /// Each class's normal, as bits.
    keys: Vec<[u64; 3]>,
    /// The classes past the first [`Self::SCANNED`], by key.
    hashed: std::collections::HashMap<[u64; 3], u32>,
}

impl NormalClasses {
    /// Classes a lookup tries one by one before it hashes: a structured
    /// grid has four or six.
    const SCANNED: usize = 8;

    fn key(n: pbte_mesh::Point) -> [u64; 3] {
        [n.x.to_bits(), n.y.to_bits(), n.z.to_bits()]
    }

    fn find(&self, key: [u64; 3]) -> Option<u32> {
        let scanned = self.keys.iter().take(Self::SCANNED).position(|k| *k == key);
        scanned
            .map(|c| c as u32)
            .or_else(|| self.hashed.get(&key).copied())
    }

    /// The classes of a mesh's faces, numbered in face order (a face's own
    /// normal, then its flip). `None` when the mesh has more than
    /// [`MAX_CLASSES`] distinct oriented normals. Walks every face: done
    /// when a plan is lowered, never for an instance of a stored one.
    fn of(mesh: &pbte_mesh::Mesh) -> Option<NormalClasses> {
        let mut classes = NormalClasses::default();
        for f in &mesh.faces {
            for key in [Self::key(f.normal), Self::key(-f.normal)] {
                if classes.find(key).is_some() {
                    continue;
                }
                if classes.keys.len() >= MAX_CLASSES {
                    return None;
                }
                if classes.keys.len() >= Self::SCANNED {
                    classes.hashed.insert(key, classes.keys.len() as u32);
                }
                classes.keys.push(key);
            }
        }
        Some(classes)
    }

    /// The class of the oriented normal `n`, trying `hint` — the class the
    /// caller last found in this position — first.
    ///
    /// # Panics
    /// If `n` is not among the classes: the mesh is not the one the table
    /// was probed over, which an exact plan key rules out.
    #[inline]
    fn class_of(&self, n: pbte_mesh::Point, hint: &mut u32) -> u32 {
        let key = Self::key(n);
        if self.keys.get(*hint as usize) != Some(&key) {
            *hint = self
                .find(key)
                .expect("a table plan's mesh has the normals the table was probed over");
        }
        *hint
    }

    fn normals(&self) -> impl Iterator<Item = [f64; 3]> + '_ {
        self.keys.iter().map(|k| k.map(f64::from_bits))
    }
}

/// Whether `flux` can have an αβγ table at all: besides `CELL1`/`CELL2`
/// it reads only inputs that are constant per (flat, normal) — no cell
/// variable, no function coefficient (a position-dependent host call), no
/// `t`.
fn table_eligible(flux: &Program) -> bool {
    use crate::bytecode::{RegExpr, Unbound};
    let per_face = |e: &RegExpr<Unbound>| {
        matches!(
            e,
            RegExpr::CoefFn { .. } | RegExpr::Copy(Unbound::Var { .. })
        )
    };
    !flux.references_time() && !flux.stmts.iter().any(|s| per_face(&s.expr))
}

/// The `(CELL1, CELL2)` points the table probes per (flat, class): the
/// origin and the two unit steps give `γ`, `α` and `β`; the last two check
/// affinity.
const PROBES: [(f64, f64); 5] = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0)];

/// Attempt the flux linearization over `classes`. Returns `None` (the
/// compiled flux on the Row/Native tiers, the flux program per face on the
/// `vm` tier) when the flux is not [`table_eligible`], when a conditional
/// branches on the unknown, or when the numeric affinity probe fails.
///
/// The probe runs the flux the way the row tier does: bound once per flat,
/// the [`PROBES`] of every class evaluated as lanes of its face inputs.
fn linearize_flux(
    problem: &Problem,
    flux: &Program,
    flux_expr: &pbte_symbolic::ExprRef,
    idx_of_flat: &[Vec<usize>],
    classes: NormalClasses,
) -> Option<FluxLinearization> {
    if !table_eligible(flux) {
        return None;
    }
    // Conditionals must not branch on the unknown (affinity would be
    // piecewise and the probe could miss the break point).
    let mut test_on_unknown = false;
    flux_expr.visit(&mut |e| {
        if let pbte_symbolic::Expr::Conditional { test, .. } = e {
            if test.contains_call("CELL1") || test.contains_call("CELL2") {
                test_on_unknown = true;
            }
        }
    });
    if test_on_unknown {
        return None;
    }

    // The face inputs of every probe lane, class-major.
    let n_classes = classes.keys.len();
    let n_lanes = n_classes * PROBES.len();
    let mut inputs: [Vec<f64>; FACE_INPUTS] = std::array::from_fn(|_| Vec::with_capacity(n_lanes));
    for normal in classes.normals() {
        for (u1, u2) in PROBES {
            inputs[FACE_U1 as usize].push(u1);
            inputs[FACE_U2 as usize].push(u2);
            for (axis, component) in normal.into_iter().enumerate() {
                inputs[FACE_NORMAL as usize + axis].push(component);
            }
        }
    }
    let mut alpha = vec![0.0; idx_of_flat.len() * n_classes];
    let mut beta = vec![0.0; idx_of_flat.len() * n_classes];
    let mut gamma = vec![0.0; idx_of_flat.len() * n_classes];
    let mut values = vec![0.0; n_lanes];
    let mut regs = Vec::new();
    for (flat, idx) in idx_of_flat.iter().enumerate() {
        let reg = flux.bind(&Binding {
            idx,
            n_cells: 1,
            dt: problem.dt,
            coefficients: &problem.registry.coefficients,
        });
        regs.resize(reg.n_regs(), [0.0; ROW_CHUNK]);
        for start in (0..n_lanes).step_by(ROW_CHUNK) {
            let len = (n_lanes - start).min(ROW_CHUNK);
            let lanes = |var: u16, _| &inputs[(var - flux.face_base) as usize][start..];
            reg.eval_chunk(len, lanes, &[], 0, 0.0, &mut regs);
            values[start..start + len].copy_from_slice(&regs[0][..len]);
        }
        for (class, probe) in values.chunks_exact(PROBES.len()).enumerate() {
            let &[f00, f10, f01, f11, f23] = probe else {
                unreachable!("one chunk per class")
            };
            let a = f10 - f00;
            let b = f01 - f00;
            let scale = 1.0 + f00.abs() + a.abs() + b.abs();
            let check1 = f11 - (f00 + a + b);
            let check2 = f23 - (f00 + 2.0 * a + 3.0 * b);
            if check1.abs() > 1e-12 * scale || check2.abs() > 1e-12 * scale {
                return None;
            }
            let at = flat * n_classes + class;
            alpha[at] = a;
            beta[at] = b;
            gamma[at] = f00;
        }
    }
    Some(FluxLinearization {
        n_classes,
        classes,
        alpha,
        beta,
        gamma,
    })
}

/// Build the problem whose compilation yields the JVP plan: the original
/// problem with *linearized* boundary conditions, no initial conditions
/// and no step callbacks, pinned to the explicit integrator (the JVP of a
/// JVP is never needed — recursion stops here).
///
/// Boundary linearization (the ghost value's derivative in the direction
/// vector `v`):
/// * a constant ghost (`Value`, or a callback reading no fields —
///   e.g. an isothermal wall whose ghost depends only on wall temperature
///   and time) is affine in the unknown with zero slope → ghost 0, which
///   lowers to a zero image without a closure call;
/// * a callback reading the unknown (e.g. a specular symmetry
///   wall reflecting `I`) is kept verbatim, declared form included: such
///   conditions are linear and homogeneous in the unknown, so evaluating
///   them with `v` in the unknown's slot *is* the directional derivative
///   (and a Gather wall lowers to the same gather columns in both plans).
fn linearized_problem(problem: &Problem) -> Result<Problem, Diagnostic> {
    let unknown_name = match &problem.equation {
        Some((var, _)) => problem.registry.variables[*var].name.clone(),
        None => return Err(Diagnostic::dsl_problem("no conservationForm given")),
    };
    let mut jp = problem.clone();
    jp.integrator = crate::problem::Integrator::Explicit;
    jp.initials.clear();
    jp.pre_steps.clear();
    jp.post_steps.clear();
    for (_, _, bc) in jp.boundary_conditions.iter_mut() {
        // A wall reading the unknown is linear homogeneous in it: kept.
        if !bc.reads().contains(&unknown_name) {
            *bc = BoundaryCondition::Value(0.0);
        }
    }
    Ok(jp)
}

/// The index tuple of a flat index value under row-major `strides`.
fn decode_flat(mut flat: usize, strides: &[usize]) -> Vec<usize> {
    let idx = strides.iter().map(|&s| {
        let i = flat / s;
        flat %= s;
        i
    });
    idx.collect()
}

/// The fields of `problem` before step 0, and the compiled expression
/// initials that filled them: the closure initials fill first, then the
/// expressions in declaration order (each may read what is filled before
/// it).
pub fn initial_state(problem: &Problem) -> Result<(Fields, Vec<(usize, Program)>), Diagnostic> {
    let mesh = problem
        .mesh
        .as_ref()
        .ok_or_else(|| Diagnostic::dsl_problem("no mesh attached"))?;
    let mut fields = Fields::new(&problem.registry, mesh.n_cells());
    let mut programs = Vec::new();
    for (var, init) in &problem.initials {
        let Initial::Fn(init) = init else { continue };
        // Flat-major like the storage: the index tuple is decoded once per
        // flat and each flat's row is filled over the centroids.
        let strides = problem
            .registry
            .strides(&problem.registry.variables[*var].indices);
        let rows = fields.slice_mut(*var).chunks_mut(mesh.n_cells().max(1));
        for (flat, row) in rows.enumerate() {
            let idx = decode_flat(flat, &strides);
            for (value, &centroid) in row.iter_mut().zip(&mesh.cell_centroids) {
                *value = init(centroid, &idx);
            }
        }
    }
    for (var, init) in &problem.initials {
        if let Initial::Expr(src) = init {
            let program = Compiler::new(&problem.registry, *var, KernelKind::Volume)
                .compile(&pbte_symbolic::parse(src)?)?;
            fill_from_program(problem, mesh, *var, &program, &mut fields);
            programs.push((*var, program));
        }
    }
    Ok((fields, programs))
}

/// Fill `var` from a compiled expression initial, one flat row at a time:
/// the program is bound for the flat's index tuple (at `t = 0`) and
/// evaluated over all cells against the fields filled so far. The row is
/// evaluated into scratch and copied in, so an expression the verifier
/// will refuse for reading `var` itself still only reads defined values.
fn fill_from_program(
    problem: &Problem,
    mesh: &pbte_mesh::Mesh,
    var: usize,
    program: &Program,
    fields: &mut Fields,
) {
    let registry = &problem.registry;
    let strides = registry.strides(&registry.variables[var].indices);
    let n_cells = mesh.n_cells();
    let mut row = vec![0.0; n_cells];
    let mut regs = Vec::new();
    for flat in 0..fields.flat_len(var) {
        let idx = decode_flat(flat, &strides);
        let reg = program.bind(&Binding {
            idx: &idx,
            n_cells,
            dt: problem.dt,
            coefficients: &registry.coefficients,
        });
        regs.resize(reg.n_regs(), [0.0; ROW_CHUNK]);
        let vars = fields.as_slices();
        reg.eval_row(&vars, 0, &mut row, &mesh.cell_centroids, 0.0, &mut regs);
        fields.slice_mut(var)[flat * n_cells..][..n_cells].copy_from_slice(&row);
    }
}

/// What lowering produces from a problem's keyed content
/// ([`Problem::plan_key`]) and nothing else: the symbolic system, the
/// kernels, the index geometry, the flux table, and — filled on first use —
/// the loaded native kernels. Every [`CompiledProblem`] of one key holds
/// the same `Plan` through an `Arc`; nothing mesh-sized and nothing that
/// came out of a user closure is in it.
#[derive(Clone)]
pub struct Plan {
    pub system: DiscreteSystem,
    pub volume: Program,
    pub flux: Program,
    /// Flattened index count of the unknown.
    pub n_flat: usize,
    /// Extent of each loop slot (unknown's indices, declaration order).
    pub idx_lens: Vec<usize>,
    /// Decoded index tuple per flat value.
    pub idx_of_flat: Vec<Vec<usize>>,
    /// The αβγ flux table, for meshes with few face orientations and a
    /// flux that reads no cell variable, function coefficient or `t` (None
    /// → the compiled flux on Row/Native, the flux program per face on the
    /// `vm` tier).
    pub flux_lin: Option<FluxLinearization>,
    /// The plan's loaded native kernels (or why there are none), prepared
    /// on first use by [`crate::nativegen`] and shared by every scope of
    /// every solve of every instance. The JVP plan carries its own.
    pub(crate) native: OnceLock<crate::nativegen::Prepared>,
}

/// The plans this process has lowered, by content key. A stored plan is a
/// few kilobytes — programs, one index tuple per flat, `3 · n_flat ·
/// n_classes` doubles — whatever the mesh size.
static PLANS: pbte_runtime::OnceMap<PlanKey, Result<Arc<Plan>, Diagnostic>> =
    pbte_runtime::OnceMap::new();

/// How many plans this process has lowered (a miss of the plan store, or a
/// problem without a key).
pub fn plans_lowered() -> u64 {
    PLANS.built()
}

/// Forget every stored plan, as if the process had just started. For tests
/// that compare a reuse with a first lowering; nothing else calls it.
#[doc(hidden)]
pub fn forget_plans() {
    PLANS.forget();
}

impl Plan {
    /// Lower `system` — the analyzed equation of `problem`, or its JVP —
    /// into kernels, index geometry and, where the flux is affine over
    /// the mesh's normal `classes`, the flux table. Reads only what
    /// [`Problem::plan_key`] folds.
    fn lower(
        problem: &Problem,
        system: DiscreteSystem,
        classes: Option<NormalClasses>,
    ) -> Result<Plan, Diagnostic> {
        let unknown = system.unknown;
        let volume = Compiler::new(&problem.registry, unknown, KernelKind::Volume)
            .compile(&system.volume_expr)?;
        let flux = Compiler::new(&problem.registry, unknown, KernelKind::Flux)
            .compile(&system.flux_expr)?;

        let slots = &problem.registry.variables[unknown].indices;
        let idx_lens: Vec<usize> = slots
            .iter()
            .map(|&i| problem.registry.indices[i].len)
            .collect();
        let n_flat: usize = idx_lens.iter().product();
        let strides = problem.registry.strides(slots);
        let idx_of_flat: Vec<Vec<usize>> = (0..n_flat)
            .map(|flat| decode_flat(flat, &strides))
            .collect();
        let flux_lin = classes.and_then(|classes| {
            linearize_flux(problem, &flux, &system.flux_expr, &idx_of_flat, classes)
        });
        Ok(Plan {
            system,
            volume,
            flux,
            n_flat,
            idx_lens,
            idx_of_flat,
            flux_lin,
            native: OnceLock::new(),
        })
    }

    /// The plan of `key`: this process's, if it has lowered that content
    /// before, else `lower`'s, kept for the next build. Returns whether the
    /// plan was reused. A reuse is only ever as good as the key is exact,
    /// so debug builds lower again and compare — tier-1 holds the key to
    /// every fixture of the suite, the way `debug_verify` guards a solve.
    fn shared(
        key: Option<PlanKey>,
        lower: impl Fn() -> Result<Plan, Diagnostic>,
    ) -> Result<(Arc<Plan>, bool), Diagnostic> {
        let mut lowered = false;
        let plan = PLANS.get_or_init(key.as_ref(), || {
            lowered = true;
            lower().map(Arc::new)
        })?;
        #[cfg(debug_assertions)]
        if !lowered {
            plan.assert_same_lowering(&lower()?);
        }
        Ok((plan, !lowered))
    }

    /// Panic unless `fresh` — the same content lowered again — has this
    /// plan's programs and flux table, bit for bit.
    #[cfg(debug_assertions)]
    fn assert_same_lowering(&self, fresh: &Plan) {
        let bits = |lin: &FluxLinearization| -> Vec<u64> {
            let tables = [&lin.alpha, &lin.beta, &lin.gamma];
            let values = tables.into_iter().flatten().map(|v| v.to_bits());
            (lin.classes.keys.iter().flatten().copied())
                .chain(values)
                .collect()
        };
        let same = self.volume.stmts == fresh.volume.stmts
            && self.flux.stmts == fresh.flux.stmts
            && self.idx_of_flat == fresh.idx_of_flat
            && self.flux_lin.as_ref().map(bits) == fresh.flux_lin.as_ref().map(bits);
        assert!(
            same,
            "a reused plan differs from a fresh lowering of the same key: \
             Problem::plan_key misses something lowering reads"
        );
    }

    /// True when the Row/Native tiers evaluate the flux through its bound
    /// program: the plan has no αβγ table (see [`FluxLinearization`]).
    pub(crate) fn compiled_flux(&self) -> bool {
        self.flux_lin.is_none()
    }

    /// Which flux evaluation `tier` runs.
    pub fn flux_path(&self, tier: KernelTier) -> FluxPath {
        match tier {
            _ if self.flux_lin.is_some() => FluxPath::Table,
            KernelTier::Row | KernelTier::Native => FluxPath::Compiled,
            _ => FluxPath::Vm,
        }
    }

    /// The kernels the executors run in lowered (row / native) form, with their diagnostic names: the volume program, and the flux
    /// when Row/Native run it compiled. The static passes walk exactly
    /// these.
    pub(crate) fn lowered_kernels(&self) -> Vec<(KernelKind, &'static str, &Program)> {
        let mut kernels = vec![(KernelKind::Volume, "volume", &self.volume)];
        if self.compiled_flux() {
            kernels.push((KernelKind::Flux, "flux", &self.flux));
        }
        kernels
    }
}

/// The compiled, target-independent form of a problem: its [`Plan`] —
/// shared with every other build of the same content, reached through
/// `Deref` (`cp.volume`, `cp.n_flat`, `cp.flux_lin`) — and this problem's
/// instance of it: the problem with its values and closures, and everything
/// sized by the mesh or produced by a closure.
pub struct CompiledProblem {
    plan: Arc<Plan>,
    /// Whether `plan` was taken from the process's store (this content was
    /// lowered before) rather than lowered for this build.
    pub plan_reused: bool,
    pub problem: Problem,
    /// Boundary faces in mesh order, each with its condition.
    pub(crate) boundary: Vec<BoundaryFace>,
    /// face id → position in `boundary` (usize::MAX for interior faces).
    pub(crate) bface_slot: Arc<[usize]>,
    /// The compiled expression initials `(variable, program)`, in the
    /// order they filled the fields (after every closure initial).
    pub initials: Vec<(usize, Program)>,
    /// The boundary faces lowered into the tables the kernels read, and
    /// the slots still left to their closures.
    pub walls: Walls,
    /// Compact structure-of-arrays face geometry for the CPU hot loop
    /// (one value for a plan and its JVP twin on the same flux path).
    pub(crate) hot: Arc<HotGeometry>,
    /// Callback access summary derived once at compile time: the single
    /// source for both the executors' work accounting and the static
    /// analyzer's host-side read/write sets.
    pub catalog: CallbackCatalog,
    /// The compiled Jacobian-vector-product plan, present when the
    /// problem selects an implicit integrator. Its `volume`/`flux`
    /// programs evaluate `J·v` with the direction vector in the unknown's
    /// slot; its boundary conditions are the *linearized* originals
    /// (constant ghosts → 0, homogeneous reflections kept). Lowered
    /// through the identical pipeline, so every kernel tier and the whole
    /// translation-validation chain apply to it unchanged.
    pub jvp: Option<Box<CompiledProblem>>,
}

impl std::ops::Deref for CompiledProblem {
    type Target = Plan;

    fn deref(&self) -> &Plan {
        &self.plan
    }
}

/// Declared accesses of one pre/post-step callback.
#[derive(Debug, Clone)]
pub struct StepAccess {
    pub name: String,
    /// True for pre-step, false for post-step.
    pub pre: bool,
    pub reads: Vec<String>,
    pub writes: Vec<String>,
}

/// Compile-time summary of every user callback a problem registers:
/// boundary-condition callbacks and pre/post-step functions, with their
/// declared field accesses — every name a registered variable.
#[derive(Debug, Clone, Default)]
pub struct CallbackCatalog {
    /// Boundary faces whose closure still runs on the host every sweep
    /// (the walls the plan could not lower) — the per-sweep ghost-eval
    /// accounting unit.
    pub callback_faces: usize,
    /// Union of variables those closures read. Lowered walls run no host
    /// code and declare nothing here.
    pub boundary_reads: Vec<String>,
    /// Pre/post-step callbacks in registration order (pre first).
    pub steps: Vec<StepAccess>,
}

impl CallbackCatalog {
    /// The catalog of `problem`'s callbacks; refuses a declared name that
    /// is not a registered variable, naming the callback and the name.
    fn build(
        problem: &Problem,
        boundary: &[BoundaryFace],
        walls: &Walls,
    ) -> Result<CallbackCatalog, Diagnostic> {
        let registry = &problem.registry;
        let resolve = |names: &[String], site: &dyn Fn() -> String| {
            let unknown = names.iter().find(|n| registry.variable_id(n).is_none());
            match unknown {
                Some(name) => Err(Diagnostic::dsl_problem(format!(
                    "{} declares `{name}`, which is not a registered variable",
                    site()
                ))),
                None => Ok(names.to_vec()),
            }
        };
        for (_, region, bc) in &problem.boundary_conditions {
            resolve(bc.reads(), &|| format!("boundary callback on `{region}`"))?;
        }
        let mut steps = Vec::new();
        for (pre, list) in [(true, &problem.pre_steps), (false, &problem.post_steps)] {
            for cb in list {
                let site = || format!("step callback `{}`", cb.name);
                steps.push(StepAccess {
                    name: cb.name.clone(),
                    pre,
                    reads: resolve(&cb.reads, &site)?,
                    writes: resolve(&cb.writes, &site)?,
                });
            }
        }
        let slots = walls.callback_slots.iter();
        let reads: std::collections::BTreeSet<&String> =
            slots.flat_map(|&slot| boundary[slot].bc.reads()).collect();
        Ok(CallbackCatalog {
            callback_faces: walls.callback_faces(),
            boundary_reads: reads.into_iter().cloned().collect(),
            steps,
        })
    }
}

/// Most faces a cell of a [`StencilRun`] has (the per-slot arrays of a run
/// are this long): hexahedra. Runs are recorded for `3..=MAX_RUN_FACES`
/// faces — triangles to hexahedra, the counts the span kernels have a
/// straight-line loop for; any other cell takes the CSR walk.
pub(crate) const MAX_RUN_FACES: usize = 6;

/// Shortest stencil run worth recording: below two 4-lane vectors the
/// per-segment setup (hoisting `3·nf` coefficients and `nf` streams)
/// outweighs what the straight-line loop saves over the CSR walk.
pub(crate) const MIN_RUN: usize = 8;

/// [`StencilRun::kind`] of a slot that reads an interior neighbor.
pub const SLOT_NBR: u32 = 0;
/// [`StencilRun::kind`] of a slot that reads a row of the ghost values.
pub const SLOT_ROW: u32 = 1;
/// [`StencilRun::kind`] of a slot that reads through a gather column.
pub const SLOT_GATHER: u32 = 2;

/// A run of cells `first + j·stride`, `j < len`, that share one face count
/// and, per face slot, one affine stream the slot reads — a shape of the
/// mesh connectivity and its walls, what any mesh numbered row by row is
/// between its corners: interior rows and wall rows (`stride` 1), and the
/// columns at the ends of the rows (`stride` the row length). On a table
/// plan the slots also share one orientation class each. Slot `s` of the
/// run's `j`-th cell `c` reads, by `kind[s]`:
///
/// * [`SLOT_NBR`]: `u_row[c + at[s]]`, an interior neighbor;
/// * [`SLOT_ROW`]: row `at[s] + j·step[s]` of the flat's ghost values
///   (`Walls::at`): a `Value`, Fixed or callback wall;
/// * [`SLOT_GATHER`]: the unknown at `c` in the source flat gather column
///   `at[s]` names (`Walls::column`): a lowered Gather wall.
///
/// Each is the value `Walls::ghost_read` (or the neighbor read) loads for
/// that face, so a run's cell sums exactly what the CSR walk sums. Its
/// areas (and, for the compiled flux, its oriented normals) sit at face
/// slot `offsets[c] + s`. Areas and normals are deliberately *not* part of
/// the shape: on a uniform grid the edge lengths of consecutive cells
/// differ in the last bit, and on a jittered mesh every face has its own
/// normal, so both stay per-slot loads.
///
/// `#[repr(C)]`: the emitted native source declares the same struct and
/// reads the tables through `NativeArgs::runs` and `NativeArgs::strided`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilRun {
    pub first: u32,
    pub len: u32,
    /// Cells from one cell of the run to the next.
    pub stride: u32,
    /// Faces per cell, `≤ MAX_RUN_FACES`; slots past it are zero.
    pub nf: u32,
    /// What each slot reads: [`SLOT_NBR`], [`SLOT_ROW`] or [`SLOT_GATHER`].
    pub kind: [u32; MAX_RUN_FACES],
    /// Per slot: the neighbor offset `nbr − c`, the ghost row of the run's
    /// first cell, or the gather column.
    pub at: [i32; MAX_RUN_FACES],
    /// Per ghost-row slot: rows from one cell of the run to the next; zero
    /// for the other kinds.
    pub step: [i32; MAX_RUN_FACES],
    /// Orientation class per slot on a table plan; zero on a plan without
    /// a [`FluxLinearization`], whose geometry has no classes.
    pub class: [u32; MAX_RUN_FACES],
}

impl StencilRun {
    /// The run's `j`-th cell.
    #[inline]
    pub fn cell(&self, j: usize) -> usize {
        self.first as usize + j * self.stride as usize
    }

    /// One past the run's last cell.
    #[inline]
    pub fn end(&self) -> usize {
        self.cell(self.len as usize - 1) + 1
    }

    /// Whether every slot reads the unknown at its cell's own pace:
    /// stride 1 and no ghost row — an interior run, or a row along a
    /// Gather wall. The native tier reads such a run's slots at fixed
    /// offsets from the cell's own value, the form the back end
    /// vectorises.
    pub fn unit(&self) -> bool {
        self.stride == 1 && !self.kind[..self.nf as usize].contains(&SLOT_ROW)
    }

    /// The run a lone `cell` would start, if it has `3..=MAX_RUN_FACES`
    /// faces, its neighbors within `i32` of it. `class` is per face slot,
    /// or empty when the plan has no classes; `read` is [`Walls::read`].
    fn of_cell(
        cell: usize,
        offsets: &[u32],
        nbr: &[i64],
        class: &[u32],
        read: &[u32],
    ) -> Option<StencilRun> {
        let (start, end) = (offsets[cell] as usize, offsets[cell + 1] as usize);
        let nf = end - start;
        if !(3..=MAX_RUN_FACES).contains(&nf) {
            return None;
        }
        let mut run = StencilRun {
            first: cell as u32,
            len: 1,
            stride: 1,
            nf: nf as u32,
            kind: [SLOT_NBR; MAX_RUN_FACES],
            at: [0; MAX_RUN_FACES],
            step: [0; MAX_RUN_FACES],
            class: [0; MAX_RUN_FACES],
        };
        for (s, k) in (start..end).enumerate() {
            (run.kind[s], run.at[s]) = match nbr[k] {
                nb if nb >= 0 => (SLOT_NBR, i32::try_from(nb - cell as i64).ok()?),
                nb => match read[(-(nb + 1)) as usize] {
                    r if r & GATHER != 0 => (SLOT_GATHER, (r ^ GATHER) as i32),
                    r => (SLOT_ROW, i32::try_from(r).ok()?),
                },
            };
            run.class[s] = class.get(k).copied().unwrap_or(0);
        }
        Some(run)
    }

    /// Append `next` — the lone run of the cell one `stride` past the last
    /// — if it continues every stream: the same face count, kinds, classes,
    /// neighbor offsets and gather columns, and each ghost row one `step`
    /// further (the second cell fixes the steps).
    fn extend(&mut self, next: &StencilRun) -> bool {
        if (next.nf, next.kind, next.class) != (self.nf, self.kind, self.class) {
            return false;
        }
        let mut grown = *self;
        for s in 0..self.nf as usize {
            let (at, next_at) = (self.at[s] as i64, next.at[s] as i64);
            let continues = match self.kind[s] {
                SLOT_ROW if self.len == 1 => i32::try_from(next_at - at)
                    .map(|step| grown.step[s] = step)
                    .is_ok(),
                SLOT_ROW => at + self.len as i64 * self.step[s] as i64 == next_at,
                _ => at == next_at,
            };
            if !continues {
                return false;
            }
        }
        grown.len += 1;
        *self = grown;
        true
    }

    /// The stencil runs of a CSR face geometry whose boundary slots read
    /// `read` ([`Walls::read`]), and the cells they leave to the CSR walk:
    /// `(runs, strided, rest)`. `runs` are the maximal stride-1 runs, one
    /// pass over the cells. Then every wall cell no run took, ascending,
    /// starts the first run along one of its positive neighbor offsets
    /// (smallest first) over cells no run took yet; `strided` keeps those.
    /// A run is kept when it reaches [`MIN_RUN`] cells, and a walk that
    /// stops short of that costs fewer than `MIN_RUN` steps, so detection
    /// is linear in the cells. `rest` is every cell left, ascending. With
    /// an empty `class` the shape is the connectivity and the walls alone.
    /// [`crate::analysis::verify_plan`] re-derives every recorded run from
    /// the same arrays (`geometry/run-mismatch`).
    #[allow(clippy::type_complexity)]
    pub(crate) fn detect(
        offsets: &[u32],
        nbr: &[i64],
        class: &[u32],
        read: &[u32],
    ) -> (Vec<StencilRun>, Vec<StencilRun>, Vec<u32>) {
        let n = offsets.len().saturating_sub(1);
        let lone = |cell| StencilRun::of_cell(cell, offsets, nbr, class, read);
        let long = |run: &StencilRun| run.len as usize >= MIN_RUN;
        let mut runs = Vec::new();
        let mut open: Option<StencilRun> = None;
        for cell in 0..n {
            let here = lone(cell);
            let extended = match (&mut open, &here) {
                (Some(run), Some(here)) => run.extend(here),
                _ => false,
            };
            if !extended {
                runs.extend(open.take().filter(long));
                open = here;
            }
        }
        runs.extend(open.filter(long));
        let mut taken = vec![false; n];
        for run in &runs {
            taken[run.first as usize..run.end()].fill(true);
        }
        let mut strided = Vec::new();
        for cell in 0..n {
            let faces = offsets[cell] as usize..offsets[cell + 1] as usize;
            if taken[cell] || nbr[faces].iter().all(|&nb| nb >= 0) {
                continue;
            }
            let Some(start) = lone(cell) else { continue };
            let slots = start.kind.iter().zip(start.at).take(start.nf as usize);
            let mut strides: Vec<usize> = slots
                .filter(|&(&kind, at)| kind == SLOT_NBR && at >= 2)
                .map(|(_, at)| at as usize)
                .collect();
            strides.sort_unstable();
            for stride in strides {
                let mut run = StencilRun {
                    stride: stride as u32,
                    ..start
                };
                let mut next = cell + stride;
                while next < n && !taken[next] && lone(next).is_some_and(|h| run.extend(&h)) {
                    next += stride;
                }
                if long(&run) {
                    (0..run.len as usize).for_each(|j| taken[run.cell(j)] = true);
                    strided.push(run);
                    break;
                }
            }
        }
        let rest = (0..n).filter(|&c| !taken[c]).map(|c| c as u32).collect();
        (runs, strided, rest)
    }
}

/// One piece of a span as the span kernels walk it ([`HotGeometry::segments`]).
pub(crate) enum Segment<'a> {
    /// The cells `j0 .. j1` of a stencil run.
    Run(&'a StencilRun, usize, usize),
    /// One cell of no run, for the CSR walk.
    Cell(usize),
}

/// Structure-of-arrays face connectivity the generated CPU code indexes
/// directly (the `Face` objects of the mesh are too pointer-heavy for the
/// inner loop). `nbr[k] ≥ 0` is the neighbor cell; `-(slot+1)` points into
/// the boundary-ghost array.
#[derive(Clone, Default)]
pub(crate) struct HotGeometry {
    /// CSR offsets: faces of `cell` are `offsets[cell]..offsets[cell+1]`.
    pub offsets: Vec<u32>,
    pub nbr: Vec<i64>,
    pub area: Vec<f64>,
    /// The oriented normal class per face slot as seen from the cell, on a
    /// table plan (a [`FluxLinearization`] exists); empty otherwise.
    pub class: Vec<u32>,
    /// The oriented unit normal per face *slot* for the compiled flux:
    /// `dim` components at `k · dim`, already negated (exactly) where the
    /// cell is not the face's owner, so a slot's normal is a plain read and
    /// a stencil run's are a contiguous column. Empty otherwise.
    pub normals: Vec<f64>,
    /// Components per face slot in `normals` (the mesh dimension).
    pub dim: usize,
    /// 1 / cell volume.
    pub inv_volume: Vec<f64>,
    /// Stride-1 stencil runs — interior and wall rows — sorted and
    /// disjoint.
    pub runs: Vec<StencilRun>,
    /// Strided stencil runs — the wall cells the rows leave, such as the
    /// columns at the ends of a grid's rows — sorted by first cell.
    pub strided: Vec<StencilRun>,
    /// The cells of no run, ascending: the corners of a grid, every cell
    /// of a mesh without runs. Together with the runs, every cell once.
    pub rest: Vec<u32>,
}

impl HotGeometry {
    /// `lin` on a table plan (each slot's normal is looked up among its
    /// classes); `None` on a compiled-flux plan, whose kernels read
    /// per-slot normals. `read` is the plan's [`Walls::read`], which the
    /// stencil runs read their boundary slots through.
    fn build(
        mesh: &pbte_mesh::Mesh,
        bface_slot: &[usize],
        lin: Option<&FluxLinearization>,
        read: &[u32],
    ) -> HotGeometry {
        let n = mesh.n_cells();
        // Every array is sized once: grown by doubling, each would copy
        // itself a dozen times and leave as much freed heap behind as it
        // holds.
        let n_slots: usize = (0..n).map(|c| mesh.cell_faces(c).len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(n_slots);
        let mut area = Vec::with_capacity(n_slots);
        let mut class = Vec::with_capacity(if lin.is_some() { n_slots } else { 0 });
        // The class last found per local face: on a grid, the next cell's.
        let mut hints = [0u32; MAX_RUN_FACES];
        let mut normals = Vec::with_capacity(if lin.is_none() { n_slots * mesh.dim } else { 0 });
        offsets.push(0u32);
        for cell in 0..n {
            for (local, &fid) in mesh.cell_faces(cell).iter().enumerate() {
                let f = &mesh.faces[fid];
                nbr.push(match f.other_cell(cell) {
                    Some(c) => c as i64,
                    None => -((bface_slot[fid] + 1) as i64),
                });
                area.push(f.area);
                let n = f.normal_from(cell);
                match lin {
                    Some(lin) => {
                        let hint = &mut hints[local % MAX_RUN_FACES];
                        class.push(lin.classes.class_of(n, hint));
                    }
                    None => normals.extend([n.x, n.y, n.z].into_iter().take(mesh.dim)),
                }
            }
            offsets.push(nbr.len() as u32);
        }
        let (runs, strided, rest) = StencilRun::detect(&offsets, &nbr, &class, read);
        HotGeometry {
            offsets,
            nbr,
            area,
            class,
            normals,
            dim: mesh.dim,
            inv_volume: mesh.cell_volumes.iter().map(|v| 1.0 / v).collect(),
            runs,
            strided,
            rest,
        }
    }

    /// The cells `cell0 .. end` as the span kernels walk them, in three
    /// independent loops: every stride-1 run that overlaps them, then every
    /// strided run, each clipped to them, then every cell of no run. Each
    /// cell comes once (`geometry/run-mismatch` proves the tables cover
    /// every cell once).
    pub fn segments(&self, cell0: usize, end: usize) -> impl Iterator<Item = Segment<'_>> {
        let from = self.runs.partition_point(|r| r.end() <= cell0);
        let runs = self.runs[from..]
            .iter()
            .take_while(move |r| (r.first as usize) < end);
        let runs = runs.map(move |r| {
            let first = r.first as usize;
            Segment::Run(
                r,
                cell0.saturating_sub(first),
                (end - first).min(r.len as usize),
            )
        });
        let strided = self
            .strided
            .iter()
            .take_while(move |r| (r.first as usize) < end);
        let strided = strided.filter_map(move |r| {
            let (first, stride) = (r.first as usize, r.stride as usize);
            let j0 = cell0.saturating_sub(first).div_ceil(stride);
            let j1 = (end - first).div_ceil(stride).min(r.len as usize);
            (j0 < j1).then_some(Segment::Run(r, j0, j1))
        });
        let from = self.rest.partition_point(|&c| (c as usize) < cell0);
        let rest = self.rest[from..].iter().map(|&c| c as usize);
        let rest = rest.take_while(move |&c| c < end).map(Segment::Cell);
        runs.chain(strided).chain(rest)
    }

    /// How many of the cells `start .. start + len` lie inside stencil
    /// runs.
    pub fn run_cells_in(&self, start: usize, len: usize) -> usize {
        let from = self.rest.partition_point(|&c| (c as usize) < start);
        let to = self.rest.partition_point(|&c| (c as usize) < start + len);
        len - (to - from)
    }

    /// How many of `scope`'s owned cells lie inside stencil runs.
    pub fn run_cells_of(&self, scope: &Scope) -> usize {
        let first_flat = scope.tiles.iter().take_while(|t| t.k == 0);
        first_flat.map(|t| self.run_cells_in(t.cell0, t.len)).sum()
    }

    /// Oriented normal of face slot `k` as the compiled flux reads it;
    /// components past the mesh dimension are `0.0`.
    #[inline]
    pub fn normal(&self, k: usize) -> [f64; 3] {
        let mut n = [0.0; 3];
        n[..self.dim].copy_from_slice(&self.normals[k * self.dim..][..self.dim]);
        n
    }
}

impl CompiledProblem {
    /// Lower a problem: take the plan of its content key — lowering it
    /// (pipeline, kernels, flux table) if this process has not seen that
    /// content — then build this problem's instance of it: resolve the
    /// boundary conditions, apply the initial conditions, lower the walls,
    /// lay out the hot geometry. When the problem selects an implicit
    /// integrator, the same for the Jacobian-vector-product plan
    /// (`CompiledProblem::jvp`), whose key derives from the primal's.
    ///
    /// A reuse skips lowering and nothing else: the instance is built and
    /// every verifier pass runs on it exactly as on a first build.
    pub fn compile(problem: Problem) -> Result<(CompiledProblem, Fields), Diagnostic> {
        let mesh = problem
            .mesh
            .as_ref()
            .ok_or_else(|| Diagnostic::dsl_problem("no mesh attached"))?;
        if mesh.dim != problem.dim {
            return Err(Diagnostic::dsl_problem(format!(
                "mesh is {}-D but domain({}) was declared",
                mesh.dim, problem.dim
            )));
        }
        let key = problem.plan_key();
        // Classified at most once per build, and only if a plan is lowered.
        let classes = std::cell::OnceCell::new();
        let classes = || classes.get_or_init(|| NormalClasses::of(mesh)).clone();
        let (plan, reused) =
            Plan::shared(key, || Plan::lower(&problem, problem.analyze()?, classes()))?;
        let jvp = match problem.integrator.is_implicit() {
            true => Some(Plan::shared(key.map(PlanKey::jvp), || {
                let system = crate::pipeline::jvp_system(&problem, &plan.system)?;
                Plan::lower(&problem, system, classes())
            })?),
            false => None,
        };
        let (mut cp, fields) = Self::instantiate(problem, plan, reused, None)?;
        if let Some((plan, reused)) = jvp {
            let jp = linearized_problem(&cp.problem)?;
            let (jcp, _) = Self::instantiate(jp, plan, reused, Some(&cp))?;
            cp.jvp = Some(Box::new(jcp));
        }
        Ok((cp, fields))
    }

    /// This problem's instance of `plan` (the back half of
    /// [`CompiledProblem::compile`], for the primal and the JVP plan
    /// alike). `primal` is the instance a JVP twin is derived from: the
    /// same mesh with the same boundary regions, so what depends on those
    /// alone — which faces are boundary slots and, when both plans take the
    /// same flux path, the whole hot face geometry — is shared with it
    /// instead of rebuilt.
    fn instantiate(
        problem: Problem,
        plan: Arc<Plan>,
        plan_reused: bool,
        primal: Option<&CompiledProblem>,
    ) -> Result<(CompiledProblem, Fields), Diagnostic> {
        let mesh = problem.mesh.as_ref().expect("checked in compile");
        let unknown = plan.system.unknown;

        // Resolve boundary conditions: every boundary face needs one.
        let mut region_bc: Vec<Option<Arc<BoundaryCondition>>> =
            vec![None; mesh.boundary_regions.len()];
        for (var, region, bc) in &problem.boundary_conditions {
            if *var != unknown {
                return Err(Diagnostic::dsl_problem(format!(
                    "boundary condition on `{}` which is not the unknown",
                    problem.registry.variables[*var].name
                )));
            }
            let rid = mesh.region_id(region).ok_or_else(|| {
                Diagnostic::dsl_problem(format!("mesh has no boundary region `{region}`"))
            })?;
            region_bc[rid] = Some(Arc::new(bc.clone()));
        }
        // The boundary faces in mesh order (the primal's, for a JVP twin).
        let boundary_faces: Vec<usize> = match primal {
            Some(primal) => primal.boundary.iter().map(|b| b.face).collect(),
            None => mesh.boundary_faces().collect(),
        };
        let mut boundary = Vec::with_capacity(boundary_faces.len());
        for fid in boundary_faces {
            let f = &mesh.faces[fid];
            let bc = f.region.and_then(|r| region_bc[r].clone()).ok_or_else(|| {
                Diagnostic::dsl_problem(format!(
                    "boundary face {fid} (centroid {:?}) has no boundary condition",
                    f.centroid
                ))
            })?;
            boundary.push(BoundaryFace { face: fid, bc });
        }
        let bface_slot: Arc<[usize]> = match primal {
            Some(primal) => primal.bface_slot.clone(),
            None => {
                let mut slots = vec![usize::MAX; mesh.n_faces()];
                for (slot, b) in boundary.iter().enumerate() {
                    slots[b.face] = slot;
                }
                slots.into()
            }
        };

        let (fields, initials) = initial_state(&problem)?;
        let walls = Walls::lower(mesh, &boundary, &plan.idx_of_flat, &fields);
        let catalog = CallbackCatalog::build(&problem, &boundary, &walls)?;
        // The hot geometry is a function of the mesh, the boundary slots,
        // the face classes, which flux path reads it and what each boundary
        // slot reads (its stencil runs read the walls).
        let same_geometry = |p: &&CompiledProblem| {
            p.flux_lin.is_some() == plan.flux_lin.is_some() && p.walls.read == walls.read
        };
        let hot = match primal.filter(same_geometry) {
            Some(primal) => primal.hot.clone(),
            None => Arc::new(HotGeometry::build(
                mesh,
                &bface_slot,
                plan.flux_lin.as_ref(),
                &walls.read,
            )),
        };
        let cp = CompiledProblem {
            plan,
            plan_reused,
            problem,
            boundary,
            bface_slot,
            initials,
            walls,
            hot,
            catalog,
            jvp: None,
        };
        #[cfg(debug_assertions)]
        crate::nativegen::assert_same_source(&cp);
        Ok((cp, fields))
    }

    /// The plan, to edit: this problem's private copy from here on (the
    /// stored plan, and every other instance's, is left as lowered). For
    /// tests that tamper with a plan to provoke a diagnostic.
    #[doc(hidden)]
    pub fn plan_mut(&mut self) -> &mut Plan {
        Arc::make_mut(&mut self.plan)
    }

    /// The stencil run tables, to edit — the stride-1 runs, then the
    /// strided: this problem's private copy of the hot geometry from here
    /// on. For tests that tamper with a run to provoke
    /// `geometry/run-mismatch`.
    #[doc(hidden)]
    pub fn stencil_runs_mut(&mut self) -> (&mut Vec<StencilRun>, &mut Vec<StencilRun>) {
        let hot = Arc::make_mut(&mut self.hot);
        (&mut hot.runs, &mut hot.strided)
    }

    /// `lowered` or `reused`: where this build's plan came from — the
    /// `plan` attribute of a run's `run_start` frame.
    pub fn plan_origin(&self) -> &'static str {
        match self.plan_reused {
            true => "reused",
            false => "lowered",
        }
    }

    /// Run the static plan verifier for `target`: kernel-tier abstract
    /// interpretation, parallel-write disjointness, and transfer-schedule
    /// proofs. Empty result = the plan is clean.
    pub fn verify_plan(&self, target: &ExecTarget) -> Vec<crate::analysis::Diagnostic> {
        crate::analysis::verify_plan(self, target)
    }

    /// Debug-build guard every solve runs on entry: panics when the
    /// verifier finds an `Error`-severity diagnostic; warnings pass. The
    /// lowered walls are compared with their closures exhaustively here,
    /// not on the release gate's one face per (wall, normal). The race
    /// pass reads `scopes`, the values the solve then runs.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_verify(&self, target: &ExecTarget, scopes: &[Scope]) {
        let mut diags = crate::analysis::verify_scopes(self, target, scopes);
        crate::analysis::check_boundary_forms(self, true, &mut diags);
        let errors: Vec<_> = diags
            .into_iter()
            .filter(|d| d.severity == crate::analysis::Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "plan verification failed for {target:?}:\n{}",
            errors
                .iter()
                .map(|d| d.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub(crate) fn debug_verify(&self, _target: &ExecTarget, _scopes: &[Scope]) {}

    /// The mesh (guaranteed present after compile).
    pub fn mesh(&self) -> &pbte_mesh::Mesh {
        self.problem.mesh.as_ref().expect("checked in compile")
    }

    /// The orientation class of `face`'s owner-side normal — its column of
    /// the flux table — on a table plan.
    pub fn face_class(&self, face: usize) -> Option<u32> {
        self.flux_lin.as_ref()?;
        let owner = self.mesh().faces[face].owner;
        let faces = self.mesh().cell_faces(owner);
        let slot = faces.iter().position(|&f| f == face)?;
        Some(self.hot.class[self.hot.offsets[owner] as usize + slot])
    }

    /// What lowering folds into a program of this plan for `flat`.
    pub fn binding(&self, flat: usize) -> Binding<'_> {
        Binding {
            idx: &self.idx_of_flat[flat],
            n_cells: self.mesh().n_cells(),
            dt: self.problem.dt,
            coefficients: &self.problem.registry.coefficients,
        }
    }

    /// The volume or flux program bound for `flat`, valid at every stage
    /// time.
    pub fn bind(&self, kind: KernelKind, flat: usize) -> RegProgram {
        let program = match kind {
            KernelKind::Volume => &self.volume,
            KernelKind::Flux => &self.flux,
        };
        program.bind(&self.binding(flat))
    }

    /// The kernel tier the problem asks for, `Native` unless it names
    /// another (the hidden `Bound` is a `Row` request): every plan lowers
    /// on every tier. The one way off it is a `Native` request whose
    /// preparation fails at scope construction (missing `rustc`, failed
    /// compilation, a function coefficient, which is a host closure): that
    /// scope runs `Row` and carries a `native/fallback` diagnostic.
    pub fn resolved_tier(&self) -> KernelTier {
        self.problem.kernel_tier.requested()
    }

    /// Benchmark harness for the intensity phase in isolation: RHS
    /// evaluation over all (cell, flat) pairs at a pinned tier. Lowered
    /// walls are read from the plan's tables; the ghosts of any callback
    /// walls are evaluated once, here. Used by the `intensity_phase` bench
    /// to compare tiers on identical state without stepping.
    pub fn intensity_bench(&self, fields: &Fields, tier: KernelTier) -> IntensityBench<'_> {
        let scope = Scope::whole(self);
        let mut ghosts = walls::Ghosts::for_plan(self);
        let mut work = WorkCounters::default();
        ghosts.refresh(self, fields, &scope.flats, 0.0, &mut work, false);
        let kernels = rows::IntensityKernels::with_tier(self, &scope.flats, tier);
        IntensityBench {
            cp: self,
            scope,
            ghosts,
            kernels,
        }
    }

    /// The ghost the sweeps read outside boundary face `face` for `flat` on
    /// `fields` — the plan's image entry, or the unknown at the owner cell
    /// and the gather column's source flat. `None` when the face is
    /// interior, or its wall is left to its closure (evaluated on the host
    /// every sweep). What the lowering tests compare with
    /// [`BoundaryCondition::ghost_value`].
    pub fn lowered_ghost(&self, fields: &Fields, face: usize, flat: usize) -> Option<f64> {
        let slot = *self.bface_slot.get(face).filter(|&&s| s != usize::MAX)?;
        if self.walls.callback_slots.binary_search(&slot).is_ok() {
            return None;
        }
        Some(self.walls.ghost_read(
            &self.walls.image,
            fields.slice(self.system.unknown),
            fields.n_cells,
            slot,
            flat,
            self.mesh().faces[face].owner,
        ))
    }

    /// Automatic host↔device transfer schedule of a device step: the
    /// synthesis pass ([`crate::analysis::synthesize_records`]) over this
    /// plan's step records with the sweep on the device.
    pub fn transfer_schedule(&self) -> TransferSchedule {
        use crate::dataflow::{step_records, Plan};
        let scope = Scope::whole(self);
        let records = step_records(self, Plan::Main, true, &scope);
        crate::analysis::synthesize_records(self, &records)
    }

    /// Memory footprint report. The paper calls the BTE "a challenging
    /// research area in terms of both memory and computational time" —
    /// this is the planning number a user checks before picking a device
    /// or rank count.
    pub fn memory_report(&self) -> MemoryReport {
        let n_cells = self.mesh().n_cells();
        let registry = &self.problem.registry;
        let per_variable: Vec<(String, usize)> = registry
            .variables
            .iter()
            .map(|v| (v.name.clone(), registry.flat_len(&v.indices) * n_cells * 8))
            .collect();
        let fields_bytes: usize = per_variable.iter().map(|(_, b)| b).sum();
        let unknown_bytes =
            registry.flat_len(&registry.variables[self.system.unknown].indices) * n_cells * 8;
        // The hybrid target mirrors every variable plus the double buffer
        // and the ghost array on the device.
        let device_bytes = fields_bytes + unknown_bytes + self.walls.image.len() * 8;
        MemoryReport {
            n_cells,
            n_dof: self.n_flat * n_cells,
            per_variable,
            fields_bytes,
            device_bytes,
            workspace_bytes: driver::workspace_vectors(self) * unknown_bytes,
        }
    }
}

/// One tier's intensity-phase RHS evaluation, reusable across timed
/// repetitions (see [`CompiledProblem::intensity_bench`]).
pub struct IntensityBench<'a> {
    cp: &'a CompiledProblem,
    /// The sequential target's scope: one tile per flat, unless
    /// [`Self::split`] cut it.
    scope: Scope,
    ghosts: walls::Ghosts,
    kernels: rows::IntensityKernels,
}

impl IntensityBench<'_> {
    /// The tier actually selected (Native may have degraded to Row — see
    /// [`Self::native_fallback`]).
    pub fn tier(&self) -> KernelTier {
        self.kernels.tier
    }

    /// The structured diagnostic recorded when a requested Native tier
    /// degraded to Row (missing `rustc`, failed compilation, a function
    /// coefficient), if that happened.
    pub fn native_fallback(&self) -> Option<&crate::analysis::Diagnostic> {
        self.kernels.native_fallback()
    }

    /// Sweep each flat's cell range in tiles of at most `span` cells
    /// instead of one — the way the threaded executor cuts it. The result
    /// must not depend on the cut.
    pub fn split(mut self, span: usize) -> Self {
        let Scope { cells, flats, .. } = &self.scope;
        let parts = cells.len().div_ceil(span.max(1));
        self.scope.tiles = Scope::tile(cells, flats.len(), parts);
        self
    }

    /// Cells inside stencil runs of the plan's geometry (0 when the whole
    /// sweep takes the CSR walk).
    pub fn run_cells(&self) -> usize {
        self.cp.hot.run_cells_of(&self.scope)
    }

    /// Evaluate the RHS for every (cell, flat) pair into `rhs`, at stage
    /// time 0.
    pub fn run(&mut self, fields: &Fields, rhs: &mut [f64]) {
        self.run_at(fields, 0.0, rhs);
    }

    /// [`Self::run`] at stage time `time`.
    pub fn run_at(&mut self, fields: &Fields, time: f64, rhs: &mut [f64]) {
        rows::sweep(
            &self.kernels,
            self.cp,
            fields,
            &self.scope,
            self.ghosts.current(self.cp),
            time,
            None,
            rhs,
            &mut WorkCounters::default(),
        );
    }
}

/// Memory footprint of a compiled problem.
#[derive(Debug, Clone)]
pub struct MemoryReport {
    pub n_cells: usize,
    /// Unknown degrees of freedom.
    pub n_dof: usize,
    /// `(variable name, bytes)` in declaration order.
    pub per_variable: Vec<(String, usize)>,
    /// Host bytes for all variables.
    pub fields_bytes: usize,
    /// Device bytes the hybrid target allocates (all variables + the
    /// kernel's double buffer + the ghost array).
    pub device_bytes: usize,
    /// Host bytes of the integrator's own buffers per rank: the explicit
    /// stage buffers (`k1`, and `k2` under RK2), or the θ-step's vectors
    /// (`f_n` only under θ < 1), each the unknown's size.
    pub workspace_bytes: usize,
}

impl MemoryReport {
    /// Render as an aligned table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mib = |b: usize| b as f64 / (1 << 20) as f64;
        let mut out = String::new();
        let _ = writeln!(out, "{} cells, {} unknown dof", self.n_cells, self.n_dof);
        for (name, bytes) in &self.per_variable {
            let _ = writeln!(out, "  {name:<12} {:>10.2} MiB", mib(*bytes));
        }
        let _ = writeln!(out, "  host fields  {:>10.2} MiB", mib(self.fields_bytes));
        let _ = writeln!(out, "  device total {:>10.2} MiB", mib(self.device_bytes));
        let _ = writeln!(
            out,
            "  workspace    {:>10.2} MiB",
            mib(self.workspace_bytes)
        );
        out
    }
}

/// An executable solver bound to a target.
pub struct Solver {
    pub target: ExecTarget,
    pub compiled: CompiledProblem,
    fields: Fields,
}

impl Solver {
    /// Compile `problem` for `target`.
    pub fn build(problem: Problem, target: ExecTarget) -> Result<Solver, Diagnostic> {
        // Validate target-specific constraints early.
        if let ExecTarget::DistBands { index, ranks }
        | ExecTarget::DistBandsGpu { index, ranks, .. } = &target
        {
            if problem.registry.index_id(index).is_none() {
                return Err(Diagnostic::dsl_target(format!(
                    "cannot partition unknown index `{index}`"
                )));
            }
            let len = problem.registry.indices[problem.registry.index_id(index).unwrap()].len;
            if *ranks > len {
                return Err(Diagnostic::dsl_target(format!(
                    "{ranks} ranks but index `{index}` has only {len} values"
                )));
            }
        }
        let (compiled, fields) = CompiledProblem::compile(problem)?;
        Ok(Solver {
            target,
            compiled,
            fields,
        })
    }

    /// Run the configured number of time steps with the null telemetry
    /// sink (counters and phase seconds only — no trace retained).
    pub fn solve(&mut self) -> Result<SolveReport, Diagnostic> {
        let mut rec = pbte_runtime::telemetry::Recorder::null();
        self.solve_traced(&mut rec)
    }

    /// Run the configured number of time steps, recording structured
    /// telemetry (spans, events, per-step records, histograms) into
    /// `rec`. The driver runs the solve in a child recorder sharing
    /// `rec`'s epoch and merges it back, so one recorder can collect
    /// several solves on a common timeline.
    pub fn solve_traced(
        &mut self,
        rec: &mut pbte_runtime::telemetry::Recorder,
    ) -> Result<SolveReport, Diagnostic> {
        driver::solve(&self.compiled, &mut self.fields, &self.target, rec)
    }

    /// Current field values.
    pub fn fields(&self) -> &Fields {
        &self.fields
    }

    /// Render the generated source for this target (host code + kernels).
    pub fn generated_source(&self) -> String {
        crate::codegen::render(&self.compiled, &self.target)
    }
}
