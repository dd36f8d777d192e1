//! Static cost model over the synthesized plan, validated against
//! executed telemetry.
//!
//! The same facts the schedule synthesis consumes — the transfer
//! schedule, the compiled kernel programs per tier, the hot-loop face
//! geometry, and the integrator structure — price a plan *before it
//! runs*: bytes moved per step, the price of one sweep per dof
//! ([`sweep_price`], the one function that prices a sweep — the simulated
//! device, every sweep span's `pred_flops` and the figures read it), and
//! the cost of one Krylov iteration for implicit plans.
//! [`check_cost_drift`] then compares the model's structural predictions
//! against the exact [`WorkCounters`](pbte_runtime::telemetry::WorkCounters)
//! and device [`ProfileReport`](pbte_gpu::ProfileReport) a solve recorded;
//! relative error above [`DRIFT_TOLERANCE`] is a `cost/model-drift`
//! diagnostic — either the model or an executor's accounting has silently
//! changed.

use super::{rules, Diagnostic, Scope, Severity};
use crate::bytecode::KernelKind;
use crate::dataflow::{Entity, Plan, Policy, Stage};
use crate::exec::{CompiledProblem, ExecTarget, FluxPath, SolveReport};
use crate::problem::{Integrator, KernelTier};
use pbte_gpu::KernelCost;
use pbte_runtime::telemetry::CostExpectation;

/// Relative error above which a prediction counts as model drift.
pub const DRIFT_TOLERANCE: f64 = 0.15;

/// Static prediction of a plan's per-step work and data movement.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// The tier the plan requests ([`CompiledProblem::resolved_tier`]),
    /// which is the tier the executor runs unless native preparation
    /// fails.
    pub tier: KernelTier,
    /// The flux evaluation that tier runs — two plans' costs are
    /// comparable only when this agrees too.
    pub flux: FluxPath,
    /// Dof updates per RHS sweep: `n_flat × n_cells`.
    pub dof_per_sweep: u64,
    /// Upwind flux evaluations per sweep: `n_flat ×` total face visits.
    pub flux_per_sweep: u64,
    /// Ghost evaluations per sweep: callback faces (walls the plan could
    /// not lower) `× n_flat`.
    pub ghost_per_sweep: u64,
    /// Explicit stages per time step (Euler 1, RK2/Heun 2).
    pub stages_per_step: u64,
    /// One sweep of the main plan, per dof: [`sweep_price`].
    pub sweep: KernelCost,
    /// One-time upload bytes (GPU targets): `Once` H2D slices of an
    /// explicit plan's schedule; the resident ghost images of an implicit
    /// plan's lowered walls.
    pub setup_h2d_bytes: u64,
    /// Per-step upload bytes: `EveryStep` H2D slices (explicit plans).
    pub step_h2d_bytes: u64,
    /// Per-step download bytes: `EveryStep` D2H slices (explicit plans).
    pub step_d2h_bytes: u64,
    /// True for implicit / pseudo-transient integrators.
    pub implicit: bool,
    /// JVP sweeps per Krylov (BiCGStab) iteration: exactly 2
    /// (`v = A·p`, `t = A·s`).
    pub jvp_per_krylov_iter: u64,
    /// FLOPs of one Krylov iteration's JVP work: 2 sweeps of the JVP plan
    /// at its own [`sweep_price`] (0 without a JVP plan).
    pub flops_per_krylov_iter: f64,
    /// Implicit GPU targets: upload bytes of one main RHS sweep (the
    /// plan's read variables — re-uploaded every sweep because host
    /// callbacks may rewrite them between sweeps — plus its ghost array
    /// while it has callback walls).
    pub sweep_h2d_bytes: u64,
    /// Implicit GPU targets: upload bytes of one JVP sweep (the JVP
    /// plan's read set; the unknown slot carries the Krylov direction).
    pub jvp_sweep_h2d_bytes: u64,
    /// Implicit GPU targets: download bytes of one sweep's result rows.
    pub sweep_d2h_bytes: u64,
}

impl CostModel {
    /// Render as an aligned block for `pbte-verify --cost`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  tier {:<7} flux {:<9} {} dof/sweep, {} flux/sweep, {} ghost/sweep, {} stage(s)/step",
            self.tier.name(),
            self.flux.name(),
            self.dof_per_sweep,
            self.flux_per_sweep,
            self.ghost_per_sweep,
            self.stages_per_step
        );
        let _ = writeln!(
            out,
            "  kernel: {:.1} flops/dof, {:.1} B/dof",
            self.sweep.flops_per_thread,
            self.sweep.total_bytes(1)
        );
        if self.setup_h2d_bytes + self.step_h2d_bytes + self.step_d2h_bytes > 0 {
            let _ = writeln!(
                out,
                "  transfers: {} B setup H2D, {} B/step H2D, {} B/step D2H",
                self.setup_h2d_bytes, self.step_h2d_bytes, self.step_d2h_bytes
            );
        }
        if self.implicit {
            let _ = writeln!(
                out,
                "  krylov: {} JVP sweeps/iter, {:.0} flops/iter",
                self.jvp_per_krylov_iter, self.flops_per_krylov_iter
            );
        }
        if self.sweep_h2d_bytes + self.jvp_sweep_h2d_bytes + self.sweep_d2h_bytes > 0 {
            let _ = writeln!(
                out,
                "  implicit transfers: {} B/sweep H2D main, {} B/sweep H2D JVP, {} B/sweep D2H",
                self.sweep_h2d_bytes, self.jvp_sweep_h2d_bytes, self.sweep_d2h_bytes
            );
        }
        out
    }
}

/// Bytes of one whole host/device copy of `entity`: a variable's full
/// slice, or the ghost array. Coefficients cost nothing at run time — they
/// are baked into the lowered kernels at compile time, so their `Once`
/// upload in the schedule is a compile-time embedding, not a runtime copy.
fn entity_bytes(plan: &CompiledProblem, entity: Entity) -> u64 {
    let registry = &plan.problem.registry;
    let len = match entity {
        Entity::Variable(v) => {
            registry.flat_len(&registry.variables[v].indices) * plan.mesh().n_cells()
        }
        Entity::Ghosts => plan.walls.image.len(),
        Entity::Coefficient(_) => 0,
    };
    (len * 8) as u64
}

/// `[setup H2D, per-run H2D, per-run D2H]` bytes of a stage: the sum over
/// the copies it schedules — a run is a step of an explicit plan, a sweep
/// of an implicit one.
fn stage_bytes(plan: &CompiledProblem, stage: &Stage) -> [u64; 3] {
    let registry = &plan.problem.registry;
    let bytes = |policy: Policy, to_device: bool| -> u64 {
        let entities = stage
            .moves(policy, to_device)
            .filter_map(|t| Entity::named(registry, &t.name));
        entities.map(|e| entity_bytes(plan, e)).sum()
    };
    [
        bytes(Policy::Once, true),
        bytes(Policy::EveryStep, true),
        bytes(Policy::EveryStep, false),
    ]
}

/// FLOPs of the per-flat bound statements of one kernel (what `Row` and
/// `Native` run), averaged over flats.
fn lowered_flops(cp: &CompiledProblem, kind: KernelKind) -> f64 {
    let flops: usize = (0..cp.n_flat)
        .map(|flat| {
            let reg = cp.bind(kind, flat);
            reg.stmts().iter().map(|s| s.expr.flops()).sum::<usize>()
        })
        .sum();
    flops as f64 / cp.n_flat.max(1) as f64
}

/// Per-dof FLOPs of the statements the resolved tier actually runs, priced
/// by [`RegExpr::flops`](crate::bytecode::RegExpr::flops): the compiled
/// programs for the VM tier, the per-flat bound programs otherwise (the
/// native tier prints the same bound programs as source, so its count
/// equals the Row tier's).
fn sweep_flops(cp: &CompiledProblem) -> f64 {
    let tier = cp.resolved_tier();
    let n_cells = cp.mesh().n_cells();
    let faces_per_cell = cp.hot.nbr.len() as f64 / n_cells.max(1) as f64;
    // Flux side, per face: the table loop does an αβγ FMA pair plus the
    // area multiply (~6 flops); the compiled flux is priced from its
    // register stream plus the area multiply-accumulate; the per-dof tiers
    // without a table evaluate the flux program face by face.
    let flux_flops = match cp.flux_path(tier) {
        FluxPath::Table => 6.0,
        FluxPath::Compiled => lowered_flops(cp, KernelKind::Flux) + 2.0,
        FluxPath::Vm => cp.flux.flops() as f64 + 4.0,
    };
    let volume_flops = match tier {
        KernelTier::Vm => cp.volume.flops() as f64,
        _ => lowered_flops(cp, KernelKind::Volume),
    };
    // Per dof: one volume evaluation, one flux evaluation per face, and
    // the inv-volume multiply-subtract.
    volume_flops + faces_per_cell * flux_flops + 2.0
}

/// The price of one sweep of `cp`, per dof (one device thread) — the one
/// function that prices a sweep: the simulated device launches with it,
/// every sweep span carries it × the range's dofs as `pred_flops`, and the
/// figures' device roofline reads it.
///
/// Flops are counted off the statements the resolved tier runs.
/// Bytes are the *DRAM-effective* traffic the sweep's reuse structure
/// proves, not raw load counts:
///
/// * each unknown value leaves DRAM once per sweep — its uses by its own
///   thread and by its neighbours' hit in L2;
/// * a non-unknown variable value (e.g. `Io[b]`, `beta[b]` per cell) is
///   shared by all threads with the same (cell, its indices), i.e. reused
///   `n_flat / flat_len(var)` times;
/// * coefficient tables (a few kB) and per-cell geometry are resident in
///   cache across the flattened index dimension;
/// * each thread writes its one result.
///
/// On the hot-spot plans the table flux makes this ≈30 flops against
/// ≈17 B: compute-bound on an A6000, whose double-precision ridge sits
/// near 0.8 flop/B.
pub fn sweep_price(cp: &CompiledProblem) -> KernelCost {
    let mesh = cp.mesh();
    let max_faces = (0..mesh.n_cells())
        .map(|c| mesh.cell_faces(c).len())
        .max()
        .expect("mesh has cells") as f64;
    let n_flat = cp.n_flat as f64;
    let registry = &cp.problem.registry;
    let shared_var_bytes: f64 = (cp.system.read_variables.iter())
        .filter(|&&v| v != cp.system.unknown)
        .map(|&v| 8.0 * registry.flat_len(&registry.variables[v].indices) as f64 / n_flat)
        .sum();
    let geometry_bytes = 8.0 * (6.0 * max_faces + 4.0) / n_flat;
    KernelCost {
        flops_per_thread: sweep_flops(cp),
        bytes_read_per_thread: 8.0 + shared_var_bytes + geometry_bytes,
        bytes_written_per_thread: 8.0,
    }
}

/// Explicit stages per time step (an implicit scheme's sweeps are priced
/// per Krylov iteration instead).
fn stages_per_step(cp: &CompiledProblem) -> u64 {
    match cp.problem.integrator {
        Integrator::Rk2 => 2,
        _ => 1,
    }
}

/// The live per-step expectation of one rank sweeping its scope `d` with
/// the stage `main` — what `driver::run_scope` attaches to the rank's
/// recorder when a trace sink is active, so `h2d`/`d2h` spans carry
/// `pred_bytes` and `Recorder::step_done` emits `cost/live-drift` the
/// moment observed work diverges, without waiting for the post-hoc
/// `pbte-verify --cost` pass. Dof and flux sweeps are the owned sets;
/// ghost evaluations scale with the owned flats (the ghost loop covers
/// every callback slot for each flat in scope, on every rank). Per-step
/// transfer bytes are predicted for an explicit plan on a rank that owns
/// the whole grid only: the moves are priced for the whole problem and
/// per-rank shares are not proportional (full coefficient slices move
/// beside owned unknown rows). The per-step counter check is off for
/// implicit/steady plans, whose per-step work is data-dependent.
pub(crate) fn expectation(cp: &CompiledProblem, main: &Stage, d: &Scope) -> CostExpectation {
    let implicit = cp.problem.integrator.is_implicit();
    let [_, h2d, d2h] = stage_bytes(cp, main);
    let whole = |bytes: u64| match !implicit && d.is_full(cp.n_flat) {
        true => bytes,
        false => 0,
    };
    CostExpectation {
        dof_per_sweep: d.dofs() as u64,
        flux_per_sweep: d.flats.len() as u64 * d.faces,
        ghost_per_sweep: (cp.walls.callback_faces() * d.flats.len()) as u64,
        stages_per_step: stages_per_step(cp) as u32,
        step_h2d_bytes: whole(h2d),
        step_d2h_bytes: whole(d2h),
        per_step_check: !implicit,
        tolerance: DRIFT_TOLERANCE,
    }
}

/// Price a plan statically on the stages `target` runs. Transfer-byte
/// predictions are nonzero only for targets with a device lineage — they
/// are the bytes of the stages' moves, per step under an explicit
/// integrator, per sweep under an implicit one; sweep work is
/// target-independent — the parity tests pin every executor to the same
/// counter totals.
pub fn estimate_cost(cp: &CompiledProblem, target: &ExecTarget) -> CostModel {
    let scope = Scope::whole(cp);
    let main = Stage::build(cp, Plan::Main, target, &scope);
    let jvp = cp.jvp.as_deref();
    let jvp = jvp.map(|jcp| (jcp, Stage::build(jcp, Plan::Jvp, target, &scope)));
    let tier = cp.resolved_tier();
    let dof_per_sweep = (cp.n_flat * cp.mesh().n_cells()) as u64;

    let implicit = cp.problem.integrator.is_implicit();
    let [setup, run_h2d, run_d2h] = stage_bytes(cp, &main);
    let [jvp_setup, jvp_h2d, _] = match &jvp {
        Some((jcp, stage)) => stage_bytes(jcp, stage),
        None => [0, run_h2d, 0],
    };
    let jvp_flops = jvp.map_or(0.0, |(jcp, _)| sweep_price(jcp).flops_per_thread);
    let per_step = |bytes: u64| if implicit { 0 } else { bytes };
    let per_sweep = |bytes: u64| if implicit { bytes } else { 0 };
    CostModel {
        tier,
        flux: cp.flux_path(tier),
        dof_per_sweep,
        flux_per_sweep: (cp.n_flat * cp.hot.nbr.len()) as u64,
        ghost_per_sweep: (cp.walls.callback_faces() * cp.n_flat) as u64,
        stages_per_step: stages_per_step(cp),
        sweep: sweep_price(cp),
        setup_h2d_bytes: setup + per_sweep(jvp_setup),
        step_h2d_bytes: per_step(run_h2d),
        step_d2h_bytes: per_step(run_d2h),
        implicit,
        jvp_per_krylov_iter: 2,
        flops_per_krylov_iter: 2.0 * jvp_flops * dof_per_sweep as f64,
        sweep_h2d_bytes: per_sweep(run_h2d),
        jvp_sweep_h2d_bytes: per_sweep(jvp_h2d),
        sweep_d2h_bytes: per_sweep(run_d2h),
    }
}

/// One prediction/observation pair from the drift check.
#[derive(Debug, Clone)]
pub struct CostCheck {
    pub counter: &'static str,
    pub predicted: f64,
    pub observed: f64,
    /// Absolute half-width of the prediction interval. Zero for point
    /// predictions; nonzero where the driver structure only pins a range
    /// (BiCGStab's terminal iteration costs one or two JVPs depending on
    /// which residual test fires). Drift is measured from the interval's
    /// nearest edge.
    pub slack: f64,
}

impl CostCheck {
    pub fn relative_error(&self) -> f64 {
        let miss = ((self.predicted - self.observed).abs() - self.slack).max(0.0);
        if self.observed == 0.0 {
            if miss == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            miss / self.observed
        }
    }
}

/// Compare the static model against a finished solve's telemetry.
///
/// Explicit plans predict the work counters outright from the step and
/// stage structure. Implicit plans predict the *relations* the driver
/// structure fixes — each residual or JVP evaluation is one full sweep —
/// using the observed Newton/Krylov iteration counts (those depend on
/// the data, not the structure). Distributed counters are rank-aggregated
/// by the recorder while each rank sweeps only its `1/ranks` share, so
/// implicit sweep predictions divide by the rank count; the cells
/// partition computes the ghost array redundantly on every rank, so its
/// ghost prediction multiplies by it. GPU byte totals come from the
/// synthesized schedule (explicit) or the one-time ghost images and the
/// per-sweep upload/download sets of the implicit backend.
pub fn check_cost_drift(
    cp: &CompiledProblem,
    target: &ExecTarget,
    report: &SolveReport,
) -> (Vec<CostCheck>, Vec<Diagnostic>) {
    let model = estimate_cost(cp, target);
    let steps = report.steps as f64;
    let ranks = match target {
        ExecTarget::DistCells { ranks }
        | ExecTarget::DistBands { ranks, .. }
        | ExecTarget::DistBandsGpu { ranks, .. } => *ranks as f64,
        _ => 1.0,
    };
    let mut checks = Vec::new();

    if model.implicit {
        // `rhs_evals`/`jvp_evals` count one increment per rank per sweep;
        // each rank's sweep covers its own dof share only.
        let sweeps = (report.work.rhs_evals + report.work.jvp_evals) as f64;
        checks.push(CostCheck {
            counter: "dof_updates",
            predicted: sweeps * model.dof_per_sweep as f64 / ranks,
            observed: report.work.dof_updates as f64,
            slack: 0.0,
        });
        checks.push(CostCheck {
            counter: "flux_evals",
            predicted: sweeps * model.flux_per_sweep as f64 / ranks,
            observed: report.work.flux_evals as f64,
            slack: 0.0,
        });
        // BiCGStab counts an iteration after its *first* matvec; exiting
        // on the half-step residual test skips the second, so each Newton
        // solve's terminal iteration costs one or two JVPs:
        // jvp ∈ [2·krylov − newton, 2·krylov]. The model predicts the
        // interval midpoint with the half-width as slack.
        let hw = 0.5 * report.work.newton_iters.min(report.work.krylov_iters) as f64;
        checks.push(CostCheck {
            counter: "jvp_evals",
            predicted: (model.jvp_per_krylov_iter * report.work.krylov_iters) as f64 - hw,
            observed: report.work.jvp_evals as f64,
            slack: hw,
        });
    } else {
        let sweeps = steps * model.stages_per_step as f64;
        checks.push(CostCheck {
            counter: "dof_updates",
            predicted: sweeps * model.dof_per_sweep as f64,
            observed: report.work.dof_updates as f64,
            slack: 0.0,
        });
        checks.push(CostCheck {
            counter: "flux_evals",
            predicted: sweeps * model.flux_per_sweep as f64,
            observed: report.work.flux_evals as f64,
            slack: 0.0,
        });
        // The cells partition keeps every flat on every rank, so each
        // rank evaluates the full ghost array; band partitions split the
        // flats and their per-rank counts sum to one sweep's worth.
        let ghost_ranks = if matches!(target, ExecTarget::DistCells { .. }) {
            ranks
        } else {
            1.0
        };
        checks.push(CostCheck {
            counter: "ghost_evals",
            predicted: sweeps * model.ghost_per_sweep as f64 * ghost_ranks,
            observed: report.work.ghost_evals as f64,
            slack: 0.0,
        });
    }

    if let (Some(prof), ExecTarget::GpuHybrid { .. }) = (&report.device, target) {
        let (h2d, d2h) = if model.implicit {
            let rhs = report.work.rhs_evals as f64;
            let jvp = report.work.jvp_evals as f64;
            (
                model.setup_h2d_bytes as f64
                    + rhs * model.sweep_h2d_bytes as f64
                    + jvp * model.jvp_sweep_h2d_bytes as f64,
                (rhs + jvp) * model.sweep_d2h_bytes as f64,
            )
        } else {
            (
                model.setup_h2d_bytes as f64 + steps * model.step_h2d_bytes as f64,
                steps * model.step_d2h_bytes as f64,
            )
        };
        checks.push(CostCheck {
            counter: "h2d_bytes",
            predicted: h2d,
            observed: prof.h2d.bytes as f64,
            slack: 0.0,
        });
        checks.push(CostCheck {
            counter: "d2h_bytes",
            predicted: d2h,
            observed: prof.d2h.bytes as f64,
            slack: 0.0,
        });
    }

    let diags = checks
        .iter()
        .filter(|c| c.relative_error() > DRIFT_TOLERANCE)
        .map(|c| Diagnostic {
            severity: Severity::Error,
            rule: rules::COST_MODEL_DRIFT,
            entity: c.counter.to_string(),
            location: format!("{target:?}"),
            message: format!(
                "model predicted {:.0}{} but the solve recorded {:.0} ({:.0}% error, \
                 tolerance {:.0}%)",
                c.predicted,
                if c.slack > 0.0 {
                    format!("±{:.0}", c.slack)
                } else {
                    String::new()
                },
                c.observed,
                c.relative_error() * 100.0,
                DRIFT_TOLERANCE * 100.0
            ),
        })
        .collect();
    (checks, diags)
}
