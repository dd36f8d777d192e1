//! The one step driver.
//!
//! Every target and every integrator runs the same time loop, [`drive`]:
//!
//! ```text
//! for step = 1:Nsteps
//!   (pre-step callbacks)                                } temperature phase
//!   stage: explicit Euler/RK2, or one θ-scheme Newton   } intensity phase
//!     halo exchange → the stage's records, in order     }
//!     (callback-wall ghosts, then the sweep — fused     }
//!     with the update under Euler)                      }
//!   (post-step callbacks: temperature update)           } temperature phase
//!   account phases, communication, spans; time += dt
//! ```
//!
//! What a stage *is* is data: the record list of
//! [`crate::dataflow::step_records`], built once per rank ([`engine_for`]).
//! What differs between targets is confined to three values: a
//! [`Backend`] (what running one record means — on the host, or on the
//! simulated device with the copies the stage attaches to it), a
//! [`StepLinks`] (halo exchange and reductions — none, or message
//! passing), and the rank's [`Scope`] from
//! [`crate::analysis::rank_scopes`]: the owned dofs and the tiles they are
//! swept in, on one worker or fanned out. [`solve`] builds the scopes
//! once, has them proved (`debug_verify`) and hands the same values on.

use super::gpu::GpuBackend;
use super::implicit::{theta_step, ImplicitWorkspace};
use super::rows::{self, IntensityKernels};
use super::walls::Ghosts;
use super::{
    dist, gpu, phases, seq, CompiledProblem, ExecTarget, LocalLinks, SolveReport, StepLinks,
};
use crate::analysis::{sweep_price, Diagnostic, Scope};
use crate::dataflow::{Kernel, Plan, Record, Stage};
use crate::entities::Fields;
use crate::problem::Integrator;
use pbte_runtime::telemetry::{Recorder, SpanKind, Track};
use std::time::Instant;

/// What a rank's step callbacks are told they own.
#[derive(Default)]
pub(crate) struct Owned<'a> {
    /// Band partitioning: the partitioned index and this rank's range.
    pub index_range: Option<(String, std::ops::Range<usize>)>,
    /// Cell partitioning: this rank's cells.
    pub cells: Option<&'a [usize]>,
}

/// What running records cost, summed over a stage. A device stage reports
/// its step under the GPU lineage's phase names.
#[derive(Default, Clone, Copy)]
pub(crate) struct StepTimes {
    /// Simulated device seconds in kernels.
    pub kernel: f64,
    /// Simulated host↔device transfer seconds.
    pub transfer: f64,
    /// Host wall-clock seconds inside the stage's host records (the ghosts
    /// of callback walls; zero on a lowered plan), reported with the
    /// callbacks as `temperature update(CPU)`.
    pub host: f64,
}

/// The per-target evaluation engine the driver hands a stage's records to.
/// All implementations are bit-identical per dof: every sweep bottoms out
/// in [`super::rows::rhs_block`].
pub(crate) trait Backend {
    /// The kernels the sweeps run, the main plan's first and then the
    /// JVP plan's: what tier they resolved to and why a native request
    /// fell back.
    fn kernels(&self) -> Vec<&IntensityKernels>;

    /// Run record `at` of `stage` on `plan` at `time`: make the copies the
    /// stage attaches to it, execute it, span it. A sweep writes the RHS
    /// of the record's range into `out[flat * n_cells + cell]`; a fused
    /// sweep instead advances the unknown in `fields` by one Euler stage,
    /// with `out` as its stage buffer.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        stage: &Stage,
        at: usize,
        plan: &CompiledProblem,
        fields: &mut Fields,
        time: f64,
        step: usize,
        out: &mut Vec<f64>,
        rec: &mut Recorder,
    ) -> StepTimes;

    /// Close the run: reconcile any device-resident state into `fields`
    /// and hand back the device profile (device backends only).
    fn finish(
        &mut self,
        _cp: &CompiledProblem,
        _fields: &mut Fields,
    ) -> Option<pbte_gpu::ProfileReport> {
        None
    }
}

/// A backend with the stages it runs: the step's, and under an implicit
/// integrator the JVP plan's.
pub(crate) struct Engine<'a> {
    backend: Box<dyn Backend + 'a>,
    pub main: Stage<'a>,
    pub jvp: Option<Stage<'a>>,
}

impl Engine<'_> {
    /// Run the stage of `which` plan: every record between the step
    /// callbacks, in list order — the ghosts of any callback walls, then
    /// the sweep.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep(
        &mut self,
        plan: &CompiledProblem,
        which: Plan,
        fields: &mut Fields,
        time: f64,
        step: usize,
        out: &mut Vec<f64>,
        rec: &mut Recorder,
    ) -> StepTimes {
        let stage = match which {
            Plan::Main => &self.main,
            Plan::Jvp => self.jvp.as_ref().expect("JVP sweep without a JVP plan"),
        };
        let mut total = StepTimes::default();
        for at in stage.sweeps() {
            let t = self
                .backend
                .run(stage, at, plan, fields, time, step, out, rec);
            total.kernel += t.kernel;
            total.transfer += t.transfer;
            total.host += t.host;
        }
        total
    }
}

/// `u += coeff * rhs` over a scope, tile by tile like the sweeps.
fn axpy(fields: &mut Fields, unknown: usize, d: &Scope, coeff: f64, rhs: &[f64]) {
    rows::for_each_tile(
        d,
        fields.slice_mut(unknown),
        || (),
        |_, tile, u| {
            let at = d.at(tile);
            for (u, r) in u.iter_mut().zip(&rhs[at..at + tile.len]) {
                *u += coeff * r;
            }
        },
    );
}

/// The span of a host record begun at `t0` (the ghosts of callback
/// walls), and its wall-clock seconds.
pub(crate) fn host_span(rec: &mut Recorder, record: &Record, step: usize, t0: Instant) -> f64 {
    let host_s = t0.elapsed().as_secs_f64();
    if rec.enabled() {
        let attrs = vec![
            ("step", step.to_string()),
            ("place", "host".to_string()),
            ("host_s", format!("{host_s:.3e}")),
        ];
        let (name, t0) = (record.label(), rec.now() - host_s);
        rec.span(SpanKind::Kernel, name, t0, host_s, Track::Host, attrs);
    }
    host_s
}

/// The `Kernel` span of one host sweep of `which` plan begun at `k0`
/// (`intensity_rhs` for the primal, `jvp_rhs` for the linearization), with
/// tier and flux-path attribution, so traces show what actually ran (a
/// native request runs the row tier after a native fallback, and the same
/// tier evaluates the flux from a table on one mesh and from its compiled
/// program on another), with `run_cells`,
/// the scope's cells inside stencil runs (0: the whole sweep took the CSR
/// walk), with how the sweep was cut: `tiles` pieces over `workers`
/// threads, and with its price: the plan's [`sweep_price`] × the scope's
/// dofs as `pred_flops`. `plan` is the compiled problem `which` names,
/// `state` its sweep state.
fn sweep_span(
    rec: &mut Recorder,
    state: &CpuPlan,
    plan: &CompiledProblem,
    which: Plan,
    d: &Scope,
    step: usize,
    k0: f64,
) {
    if !rec.enabled() {
        return;
    }
    let tier = state.kernels.tier;
    let dur = rec.now() - k0;
    rec.span(
        SpanKind::Kernel,
        match which {
            Plan::Main => "intensity_rhs",
            Plan::Jvp => "jvp_rhs",
        },
        k0,
        dur,
        Track::Host,
        vec![
            ("step", step.to_string()),
            ("tier", tier.name().to_string()),
            ("flux", plan.flux_path(tier).name().to_string()),
            ("dofs", d.dofs().to_string()),
            ("run_cells", plan.hot.run_cells_of(d).to_string()),
            ("tiles", d.tiles.len().to_string()),
            ("workers", d.workers.to_string()),
            (
                "pred_flops",
                format!("{:.4e}", state.flops_per_dof * d.dofs() as f64),
            ),
        ],
    );
}

/// Per-plan CPU sweep state.
struct CpuPlan {
    kernels: IntensityKernels,
    ghosts: Ghosts,
    /// Flops per dof of one sweep ([`sweep_price`]), what its span reports;
    /// priced only when the run is traced (0 otherwise: nothing reads it).
    flops_per_dof: f64,
}

impl CpuPlan {
    fn new(plan: &CompiledProblem, flats: &[usize], traced: bool) -> CpuPlan {
        CpuPlan {
            kernels: IntensityKernels::for_scope(plan, flats),
            ghosts: Ghosts::for_plan(plan),
            flops_per_dof: match traced {
                true => sweep_price(plan).flops_per_thread,
                false => 0.0,
            },
        }
    }
}

/// CPU engine: [`rows::sweep`] over the tiles of the record's range, on as
/// many workers as the range says.
pub(crate) struct CpuBackend {
    main: CpuPlan,
    jvp: Option<CpuPlan>,
}

impl CpuBackend {
    pub fn new(cp: &CompiledProblem, d: &Scope, traced: bool) -> CpuBackend {
        CpuBackend {
            main: CpuPlan::new(cp, &d.flats, traced),
            jvp: (cp.jvp.as_deref()).map(|jcp| CpuPlan::new(jcp, &d.flats, traced)),
        }
    }

    fn plan(&mut self, which: Plan) -> &mut CpuPlan {
        match which {
            Plan::Main => &mut self.main,
            Plan::Jvp => self.jvp.as_mut().expect("JVP sweep without a JVP plan"),
        }
    }
}

impl Backend for CpuBackend {
    fn kernels(&self) -> Vec<&IntensityKernels> {
        let plans = std::iter::once(&self.main).chain(&self.jvp);
        plans.map(|p| &p.kernels).collect()
    }

    /// A fused sweep is one pass: it writes `u + dt·rhs` — the expression
    /// [`axpy`] evaluates, so the same bits — into the stage buffer, which
    /// then *becomes* the unknown (a storage swap) when the range covers
    /// the whole variable, or is copied back over the owned spans when it
    /// does not (distributed ranks).
    fn run(
        &mut self,
        stage: &Stage,
        at: usize,
        plan: &CompiledProblem,
        fields: &mut Fields,
        time: f64,
        step: usize,
        out: &mut Vec<f64>,
        rec: &mut Recorder,
    ) -> StepTimes {
        let record = &stage.records[at];
        let d = record.range;
        match record.kernel {
            Kernel::GhostEval { plan: which } => {
                let t0 = Instant::now();
                let ghosts = &mut self.plan(which).ghosts;
                ghosts.refresh(plan, fields, &d.flats, time, &mut rec.work, d.workers > 1);
                host_span(rec, record, step, t0);
            }
            Kernel::Sweep {
                plan: which,
                fused_dt,
            } => {
                let state = self.plan(which);
                let k0 = rec.now();
                let ghosts = state.ghosts.current(plan);
                let (kernels, work) = (&state.kernels, &mut rec.work);
                rows::sweep(kernels, plan, fields, d, ghosts, time, fused_dt, out, work);
                sweep_span(rec, state, plan, which, d, step, k0);
                let unknown = plan.system.unknown;
                if fused_dt.is_some() && d.is_full(plan.n_flat) {
                    fields.swap_storage(unknown, out);
                } else if fused_dt.is_some() {
                    let u = fields.slice_mut(unknown);
                    for span in d.spans() {
                        u[span.clone()].copy_from_slice(&out[span]);
                    }
                }
            }
            Kernel::Callback { .. } => unreachable!("callbacks run in the driver"),
        }
        StepTimes::default()
    }
}

/// The engine — the backend with the stages it is to run — and the
/// callback thread count `target` runs one rank's scope `d` on. A host
/// backend prices its plans only for a `traced` run; a device prices them
/// always (its clock runs on the price).
pub(crate) fn engine_for<'a>(
    cp: &CompiledProblem,
    fields: &Fields,
    d: &'a Scope,
    target: &ExecTarget,
    traced: bool,
) -> (Engine<'a>, usize) {
    let main = Stage::build(cp, Plan::Main, target, d);
    let jvp = cp.jvp.as_deref();
    let jvp = jvp.map(|jcp| Stage::build(jcp, Plan::Jvp, target, d));
    let (backend, threads): (Box<dyn Backend + 'a>, usize) = match target {
        // Callbacks get the workers the sweeps have.
        ExecTarget::CpuSeq
        | ExecTarget::CpuParallel
        | ExecTarget::DistCells { .. }
        | ExecTarget::DistBands { .. } => (Box::new(CpuBackend::new(cp, d, traced)), d.workers),
        // The device is idle while callbacks run, so the host thread pool
        // is fully available to them.
        ExecTarget::GpuHybrid { spec, .. } | ExecTarget::DistBandsGpu { spec, .. } => (
            Box::new(GpuBackend::new(
                cp,
                fields,
                d,
                spec.clone(),
                &main,
                jvp.as_ref(),
            )),
            rayon::current_num_threads(),
        ),
    };
    (Engine { backend, main, jvp }, threads)
}

/// One explicit step, written once for every backend: forward Euler, or
/// Heun's RK2 `u* = u + dt k1; u' = u + dt/2 (k1 + k2(u*))`. Each stage is
/// the engine's record list; a sweep that is not fused leaves `f` in its
/// stage buffer and the update to [`axpy`]. The halo is exchanged before
/// **every** stage — RK2 reads neighbor values of the intermediate state,
/// so one exchange per step would silently desynchronize ranks.
#[allow(clippy::too_many_arguments)]
fn explicit_step(
    cp: &CompiledProblem,
    engine: &mut Engine,
    fields: &mut Fields,
    d: &Scope,
    k1: &mut Vec<f64>,
    k2: &mut Vec<f64>,
    time: f64,
    step: usize,
    links: &mut dyn StepLinks,
    rec: &mut Recorder,
) -> Option<StepTimes> {
    let dt = cp.problem.dt;
    let unknown = cp.system.unknown;
    links.halo_exchange(fields);
    let times = engine.sweep(cp, Plan::Main, fields, time, step, k1, rec);
    if cp.problem.integrator == Integrator::Rk2 {
        axpy(fields, unknown, d, dt, k1);
        links.halo_exchange(fields);
        engine.sweep(cp, Plan::Main, fields, time + dt, step, k2, rec);
        // u' = u* − dt k1 + dt/2 (k1 + k2) = u* − dt/2 k1 + dt/2 k2.
        axpy(fields, unknown, d, -0.5 * dt, k1);
        axpy(fields, unknown, d, 0.5 * dt, k2);
    }
    engine.main.schedule.is_some().then_some(times)
}

/// Per-integrator state of the time loop.
enum Scheme<'a> {
    /// Stage buffers (`k2` empty under Euler).
    Explicit { k1: Vec<f64>, k2: Vec<f64> },
    /// θ-scheme Newton–Krylov; `steady` carries `(tol, growth)` of the
    /// pseudo-transient SER continuation.
    Theta {
        jcp: &'a CompiledProblem,
        ws: Box<ImplicitWorkspace>,
        theta: f64,
        steady: Option<(f64, f64)>,
    },
}

impl Scheme<'_> {
    /// Bytes of the buffers it holds.
    fn bytes(&self) -> usize {
        match self {
            Scheme::Explicit { k1, k2 } => (k1.len() + k2.len()) * 8,
            Scheme::Theta { ws, .. } => ws.bytes(),
        }
    }
}

/// The unknown-sized vectors the integrator of `cp` holds through a
/// solve on one rank, known before [`drive`] allocates them: the explicit
/// stage buffers, or the θ-step's workspace.
pub(crate) fn workspace_vectors(cp: &CompiledProblem) -> usize {
    match cp.problem.integrator {
        Integrator::Explicit => 1,
        Integrator::Rk2 => 2,
        Integrator::Implicit { theta } => ImplicitWorkspace::vectors(theta),
        Integrator::Steady { .. } => ImplicitWorkspace::vectors(1.0),
    }
}

/// The time loop shared by every target and integrator: pre/post
/// callbacks around one stage function (`explicit_step` or
/// [`theta_step`]), with phase, communication and span accounting.
/// Returns the number of steps actually taken (steady may stop early)
/// and the bytes of the integrator's buffers.
///
/// Implicit integrators require `cp.jvp` ([`solve`] checks before any
/// rank starts).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    cp: &CompiledProblem,
    engine: &mut Engine,
    fields: &mut Fields,
    d: &Scope,
    owned: &Owned,
    links: &mut dyn StepLinks,
    rec: &mut Recorder,
    threads: usize,
) -> (usize, usize) {
    let n = cp.n_flat * d.n_cells;
    let cfg = cp.problem.krylov;
    let theta_scheme = |theta, steady| Scheme::Theta {
        jcp: cp.jvp.as_deref().expect("validated by exec::driver::solve"),
        ws: Box::new(ImplicitWorkspace::new(theta, n)),
        theta,
        steady,
    };
    let mut scheme = match cp.problem.integrator {
        Integrator::Explicit | Integrator::Rk2 => Scheme::Explicit {
            k1: vec![0.0; n],
            k2: vec![0.0; n * (workspace_vectors(cp) - 1)],
        },
        Integrator::Implicit { theta } => theta_scheme(theta, None),
        Integrator::Steady { tol, growth } => theta_scheme(1.0, Some((tol, growth))),
    };
    let mut dt = cp.problem.dt;
    let mut time = 0.0;
    let mut steps_taken = 0usize;
    // SER state: reference residual and the previous step's, both from
    // the exact ‖G(u_n)‖ = dt·‖f(u_n)‖ the θ-step measures anyway.
    let mut f0_norm: Option<f64> = None;
    let mut f_prev: Option<f64> = None;

    for step in 0..cp.problem.n_steps {
        // Communication accounting windows: halos, Krylov dot reductions
        // and callback reductions all show up in the links' cumulative
        // counters, so each window is measured by deltas.
        let comm0 = links.comm_seconds();
        let bytes0 = links.comm_bytes();
        let s0 = rec.now();
        let t0 = Instant::now();
        seq::run_callbacks(
            cp,
            fields,
            true,
            time,
            step,
            owned.index_range.clone(),
            owned.cells,
            links,
            threads,
            rec,
        );
        let comm_pre = links.comm_seconds();
        let mut t_temperature = (t0.elapsed().as_secs_f64() - (comm_pre - comm0)).max(0.0);

        let i0 = rec.now();
        let t1 = Instant::now();
        let (device, g0_norm) = match &mut scheme {
            Scheme::Explicit { k1, k2 } => (
                explicit_step(cp, engine, fields, d, k1, k2, time, step, links, rec),
                0.0,
            ),
            Scheme::Theta {
                jcp,
                ws,
                theta,
                steady,
            } => {
                let forcing = steady.map(|_| cfg.steady_forcing);
                let outcome = theta_step(
                    cp, jcp, engine, fields, ws, *theta, dt, time, step, d, &cfg, forcing, links,
                    rec,
                );
                (None, outcome.g0_norm)
            }
        };
        let comm_mid = links.comm_seconds();
        let t_intensity = (t1.elapsed().as_secs_f64() - (comm_mid - comm_pre)).max(0.0);

        let p0 = rec.now();
        let t2 = Instant::now();
        seq::run_callbacks(
            cp,
            fields,
            false,
            time + dt,
            step,
            owned.index_range.clone(),
            owned.cells,
            links,
            threads,
            rec,
        );
        let t_comm = (links.comm_seconds() - comm0).max(0.0);
        t_temperature += (t2.elapsed().as_secs_f64() - (links.comm_seconds() - comm_mid)).max(0.0);
        links.drain_comm_spans(rec, step);

        if rec.enabled() {
            rec.span(
                SpanKind::Phase,
                phases::INTENSITY,
                i0,
                p0 - i0,
                Track::Host,
                vec![
                    ("step", step.to_string()),
                    ("comm_seconds", format!("{:.3e}", comm_mid - comm_pre)),
                ],
            );
            let end = rec.now();
            rec.span(
                SpanKind::Step,
                "step",
                s0,
                end - s0,
                Track::Host,
                vec![("step", step.to_string())],
            );
        }
        let mut step_phases = match device {
            Some(t) => vec![
                (phases::INTENSITY_GPU, t.kernel),
                (phases::COMM_GPU, t.transfer),
                (phases::TEMPERATURE_CPU, t_temperature + t.host),
            ],
            None => vec![
                (phases::INTENSITY, t_intensity),
                (phases::TEMPERATURE, t_temperature),
            ],
        };
        if links.n_ranks() > 1 {
            step_phases.push((phases::COMMUNICATION, t_comm));
        }
        for &(name, seconds) in &step_phases {
            rec.phase(name, seconds);
        }
        rec.step_done(step, &step_phases, links.comm_bytes() - bytes0);
        time += dt;
        steps_taken = step + 1;

        if let Scheme::Theta {
            ws,
            steady: Some((tol, growth)),
            ..
        } = &mut scheme
        {
            // SER controller on the pseudo-transient residual
            // ‖f(u_n)‖ = ‖G(u_n)‖/dt (exact, so every rank and target
            // takes identical dt trajectories and stops identically).
            let fnorm = g0_norm / dt;
            rec.sample("steady_residual", step, fnorm);
            let f0 = *f0_norm.get_or_insert(fnorm);
            if fnorm <= *tol * f0 {
                break;
            }
            if let Some(prev) = f_prev {
                if fnorm > 0.0 {
                    // SER with a geometric ramp through plateaus: any
                    // step that didn't blow the residual up earns the
                    // full growth factor (as dt → ∞ the BE step becomes
                    // a Newton iterate on f = 0, and the outer loop a
                    // Picard iteration on the callback coupling); only a
                    // genuinely diverging step (residual ×1.5+) backs dt
                    // off proportionally. Without the tolerance band the
                    // few-percent wobble the temperature rewrite injects
                    // cancels the ramp and pins dt at the seed value.
                    let ratio = if fnorm <= 1.5 * prev {
                        *growth
                    } else {
                        (prev / fnorm).clamp(0.1, *growth)
                    };
                    dt *= ratio;
                    ws.diag_dt_theta = None; // dt changed: refresh Jacobi
                }
            }
            f_prev = Some(fnorm);
        }
    }
    (steps_taken, scheme.bytes())
}

/// Run one rank's share of the solve in its recorder `r` and close it
/// into a report (`comm` is left for distributed callers to fill). Rank 0
/// opens the run's record and records each plan whose native request fell
/// back: it is the rank that knows what its kernels resolved to.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_scope(
    cp: &CompiledProblem,
    fields: &mut Fields,
    d: &Scope,
    target: &ExecTarget,
    owned: &Owned,
    links: &mut dyn StepLinks,
    r: &mut Recorder,
) -> SolveReport {
    let (mut engine, threads) = engine_for(cp, fields, d, target, r.enabled());
    if r.enabled() {
        // The live cost expectation of the stage this rank is about to run.
        r.set_cost_expectation(crate::analysis::expectation(cp, &engine.main, d));
    }
    if r.rank() == 0 {
        let kernels = engine.backend.kernels();
        if r.enabled() {
            let tier = kernels[0].tier;
            r.run_start(
                format!("{}/{}", cp.problem.name, target.label()),
                tier.name(),
                cp.flux_path(tier).name(),
                &cp.walls.label(),
                cp.plan_origin(),
                cp.jvp.as_deref().map(CompiledProblem::plan_origin),
            );
        }
        // A plan that fell back is a finding of the run, on every sink.
        for diag in kernels.iter().filter_map(|k| k.native_fallback()) {
            r.warn(diag.severity, diag.rule, diag.message.clone());
        }
    }
    let (steps, workspace_bytes) = drive(cp, &mut engine, fields, d, owned, links, r, threads);
    let device = engine.backend.finish(cp, fields);
    if let Some(prof) = &device {
        if cp.problem.integrator.is_implicit() {
            // The driver accounts implicit sweeps in host wall-clock
            // phases; the simulated device clock is layered on top.
            r.phase(phases::INTENSITY_GPU, prof.kernel_time());
            r.phase(phases::COMM_GPU, prof.transfer_time());
        }
        r.device_summary(gpu::device_summary_from(prof, r.rank()));
    }
    SolveReport {
        steps,
        timer: r.phases.clone(),
        comm: Default::default(),
        work: r.work,
        device,
        findings: Default::default(),
        workspace_bytes,
    }
}

/// Solve `cp` on `target`: validate the configuration, derive the rank
/// scopes, and run [`drive`] on each — in this process for the
/// single-rank targets, over message-passing ranks otherwise. The run is
/// bracketed in the telemetry record here, for every target: `run_start`
/// before step 0 ([`run_scope`]), the accumulated histograms and `total`
/// after the last.
pub(crate) fn solve(
    cp: &CompiledProblem,
    fields: &mut Fields,
    target: &ExecTarget,
    rec: &mut Recorder,
) -> Result<SolveReport, Diagnostic> {
    let device = matches!(
        target,
        ExecTarget::GpuHybrid { .. } | ExecTarget::DistBandsGpu { .. }
    );
    if device && cp.problem.integrator == Integrator::Rk2 {
        return Err(Diagnostic::dsl_target(
            "the GPU target supports the Euler stepper only",
        ));
    }
    if cp.problem.integrator.is_implicit() && cp.jvp.is_none() {
        return Err(Diagnostic::dsl_problem(
            "implicit integrator requires a compiled JVP plan",
        ));
    }
    let scopes = crate::analysis::rank_scopes(cp, target)?;
    cp.debug_verify(target, &scopes);
    // Solve into a child recorder so the report and the closing frames
    // cover exactly this run even when the caller's recorder spans
    // several solves. The child shares the caller's stream, so frames
    // flow out live.
    let mut r = rec.child(rec.rank());
    let mut report = if matches!(
        target,
        ExecTarget::CpuSeq | ExecTarget::CpuParallel | ExecTarget::GpuHybrid { .. }
    ) {
        run_scope(
            cp,
            fields,
            &scopes[0],
            target,
            &Owned::default(),
            &mut LocalLinks,
            &mut r,
        )
    } else {
        dist::solve(cp, fields, target, &scopes, &mut r)
    };
    r.close_run();
    // The ranks' recorders are absorbed into `r` by now: its findings
    // are the run's.
    report.findings = r.findings().clone();
    rec.absorb(r);
    Ok(report)
}
