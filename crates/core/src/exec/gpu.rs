//! Hybrid CPU + GPU execution (paper §III-D, Fig 6).
//!
//! The generated kernel flattens all loops and assigns one thread per
//! degree of freedom; it runs on the simulated device (`pbte-gpu`). User
//! callbacks — the post-step temperature update, and any boundary
//! condition the plan could not lower — stay on the host, exactly as the
//! paper argues they must. Walls the plan *did* lower
//! ([`super::Walls`]: constants, Fixed images, same-cell gathers) are
//! tables the kernel reads like the face geometry.
//!
//! What a step is — which records run where, what each reads and writes,
//! and so which variables move when — is decided by
//! [`crate::dataflow::step_records`] and the schedule synthesized from it,
//! not here: `GpuBackend` is handed one record at a time, makes the
//! copies the stage attaches to it, runs it, and draws one span for it.

use super::driver::{host_span, Backend, StepTimes};
use super::rows::{self, IntensityKernels};
use super::walls::Ghosts;
use super::CompiledProblem;
use crate::analysis::{sweep_price, Scope};
use crate::dataflow::{Entity, Kernel, Plan, Policy, Stage, GHOSTS};
use crate::entities::Fields;
use pbte_gpu::{Device, DeviceBuffer, DeviceSpec, KernelCost};
use pbte_runtime::telemetry::{DeviceSummary, Recorder, SpanKind, Track};
use std::time::Instant;

/// Flatten a device profile into the runtime-level summary the telemetry
/// sink carries (the runtime crate has no device types).
pub(crate) fn device_summary_from(prof: &pbte_gpu::ProfileReport, rank: u32) -> DeviceSummary {
    DeviceSummary {
        rank,
        device: prof.spec_name.to_string(),
        sm_utilization: prof.sm_utilization(),
        memory_fraction: prof.memory_fraction(),
        flop_fraction: prof.flop_fraction(),
        kernel_seconds: prof.kernel_time(),
        transfer_seconds: prof.transfer_time(),
        h2d_bytes: prof.h2d.bytes,
        d2h_bytes: prof.d2h.bytes,
    }
}

/// Per-plan device state: the primal RHS and the JVP are two different
/// compiled programs with their own kernels, price, and ghost layout, but
/// they read the same variable set.
struct PlanState {
    /// Scoped to the owned flats: the per-flat programs are indexed by
    /// scope position, which must match the launch row index.
    kernels: IntensityKernels,
    /// One thread's price ([`sweep_price`]): what every launch of this
    /// plan is timed by and what its sweep span reports as `pred_flops`.
    cost: KernelCost,
    ghost_dev: DeviceBuffer,
    /// Host-side ghost values.
    ghosts: Ghosts,
    name: &'static str,
}

impl PlanState {
    fn new(
        device: &mut Device,
        plan: &CompiledProblem,
        owned_flats: &[usize],
        name: &'static str,
    ) -> PlanState {
        PlanState {
            kernels: IntensityKernels::for_scope(plan, owned_flats),
            cost: sweep_price(plan),
            ghost_dev: device.alloc("ghosts", plan.walls.image.len()),
            ghosts: Ghosts::for_plan(plan),
            name,
        }
    }
}

/// A single simulated device executing one rank's share of the problem:
/// host records (callback-wall ghosts) run here on the host, and every sweep is one batched row kernel (`Device::launch_rows`,
/// one block per tile of the record's range — a device rank owns every
/// cell, so a tile is one owned flat's whole row: the grid shape the
/// host-side kernel compiler emits) evaluating [`rows::rhs_block`], the
/// same tier entry point as the CPU targets.
pub(crate) struct GpuBackend<'a> {
    device: Device,
    /// The rank's scope: the range of every record it is handed.
    scope: &'a Scope,
    /// Per-variable device buffers, id order; `var_devs[unknown]` is the
    /// state.
    var_devs: Vec<DeviceBuffer>,
    /// Compact kernel output: `owned_flats.len() * n_cells`.
    out_dev: DeviceBuffer,
    /// Host-side kernel result scratch.
    out_host: Vec<f64>,
    main: PlanState,
    jvp: Option<PlanState>,
    /// The host's unknown trails the device's: the last fused sweep ran
    /// with no download scheduled. [`Backend::finish`] reconciles it.
    host_stale: bool,
}

impl<'a> GpuBackend<'a> {
    /// Allocate the device state for `scope` and make the setup copies of
    /// `stage` (and of the JVP plan's): one buffer per variable, of which
    /// only those with a one-time upload get a copy here. Variables
    /// re-uploaded per run get their first copy with the first record
    /// that reads them, and variables no record reads get an allocation
    /// but no transfer — the dynamic transfer-oracle test holds the
    /// profiler log to exactly this.
    pub(crate) fn new(
        cp: &CompiledProblem,
        fields: &Fields,
        scope: &'a Scope,
        spec: DeviceSpec,
        stage: &Stage,
        jvp_stage: Option<&Stage>,
    ) -> GpuBackend<'a> {
        let mut device = Device::new(spec);
        let n_cells = fields.n_cells;
        let owned_flats = &scope.flats;
        assert!(
            scope.tiles.len() == owned_flats.len() && scope.cells.len() == n_cells,
            "a device rank launches one whole-row tile per owned flat"
        );
        let once =
            |stage: &Stage, name: &str| stage.moves(Policy::Once, true).any(|t| t.name == name);
        let registry = &cp.problem.registry;
        let mut var_devs = Vec::with_capacity(fields.n_vars());
        for v in 0..fields.n_vars() {
            let mut buf = device.alloc(&registry.variables[v].name, fields.slice(v).len());
            if once(stage, &registry.variables[v].name) {
                device.h2d(fields.slice(v), &mut buf);
            }
            var_devs.push(buf);
        }
        let out_dev = device.alloc("u_new", owned_flats.len() * n_cells);
        let mut plan_state = |plan: &CompiledProblem, stage: &Stage, name| {
            let mut ps = PlanState::new(&mut device, plan, owned_flats, name);
            if once(stage, GHOSTS) {
                device.h2d(&plan.walls.image, &mut ps.ghost_dev);
            }
            ps
        };
        let main_name = match cp.problem.integrator.is_implicit() {
            false => "intensity_update",
            true => "rhs_sweep",
        };
        let main = plan_state(cp, stage, main_name);
        let jvp = cp.jvp.as_deref().zip(jvp_stage);
        let jvp = jvp.map(|(jcp, stage)| plan_state(jcp, stage, "jvp_sweep"));

        GpuBackend {
            device,
            scope,
            var_devs,
            out_dev,
            out_host: vec![0.0; owned_flats.len() * n_cells],
            main,
            jvp,
            host_stale: false,
        }
    }
}

/// Copy the compact rows of `staged` (row `k` is the `k`-th of `flats`)
/// into the full-layout `dst`.
fn unpack_rows(staged: &[f64], dst: &mut [f64], n_cells: usize, flats: &[usize]) {
    for (k, &flat) in flats.iter().enumerate() {
        dst[flat * n_cells..][..n_cells].copy_from_slice(&staged[k * n_cells..][..n_cells]);
    }
}

impl GpuBackend<'_> {
    /// One device sweep: the uploads the stage attaches to the record (the
    /// unknown by the range's rows, everything else whole; coefficients
    /// are baked into the kernels) → row kernel → the downloads. A fused
    /// sweep is scattered into the device-resident unknown, and its
    /// download lands in `fields`; an un-fused one returns in `out`.
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &mut self,
        stage: &Stage,
        at: usize,
        plan: &CompiledProblem,
        fields: &mut Fields,
        time: f64,
        step: usize,
        out: &mut [f64],
        rec: &mut Recorder,
    ) -> StepTimes {
        let host_t0 = Instant::now();
        let record = &stage.records[at];
        let Kernel::Sweep {
            plan: which,
            fused_dt,
        } = record.kernel
        else {
            unreachable!("sweep() runs sweep records")
        };
        let scope = record.range;
        let (n_cells, unknown) = (fields.n_cells, plan.system.unknown);
        let GpuBackend {
            device,
            var_devs,
            out_dev,
            out_host,
            main,
            jvp,
            host_stale,
            ..
        } = self;
        let ps = match which {
            Plan::Main => main,
            Plan::Jvp => jvp.as_mut().expect("JVP sweep without a JVP plan"),
        };
        let dev_t0 = device.elapsed();
        let h2d0 = device.h2d_bytes();
        for t in stage.moves(Policy::EveryStep, true) {
            match Entity::named(&plan.problem.registry, &t.name) {
                Some(Entity::Variable(v)) if v == unknown => {
                    device.h2d_rows(fields.slice(v), &mut var_devs[v], n_cells, &scope.flats)
                }
                Some(Entity::Variable(v)) => device.h2d(fields.slice(v), &mut var_devs[v]),
                Some(Entity::Ghosts) => device.h2d(ps.ghosts.current(plan), &mut ps.ghost_dev),
                _ => {}
            }
        }
        let t_after_h2d = device.elapsed();
        let h2d_obs = device.h2d_bytes() - h2d0;

        // Kernel launch, one thread per owned dof: row `k` of the compact
        // `out_dev` is the range's `k`-th flat; the inputs are every
        // variable buffer (id order), then the ghost buffer.
        let kernels = &ps.kernels;
        let n_vars = var_devs.len();
        let mut inputs: Vec<&DeviceBuffer> = var_devs.iter().collect();
        inputs.push(&ps.ghost_dev);
        scope.account(&mut rec.work);
        let (n_tiles, cost) = (scope.tiles.len(), ps.cost);
        let t_kernel = device.launch_rows(
            ps.name,
            n_tiles,
            n_cells,
            cost,
            &inputs,
            out_dev,
            |row, bufs, out| {
                let (tile, vars, ghosts) = (&scope.tiles[row], &bufs[..n_vars], bufs[n_vars]);
                let scratch = &mut kernels.scratch(vars);
                let (k, cell0) = (tile.k, tile.cell0);
                rows::rhs_block(
                    kernels, plan, vars, k, cell0, out, ghosts, time, fused_dt, scratch,
                );
            },
        );
        let resident = fused_dt.is_some();
        if resident {
            device.scatter_rows(out_dev, &mut var_devs[unknown], n_cells, &scope.flats);
        }

        let d2h0 = device.d2h_bytes();
        // Only the unknown is device-written: at most one line comes back.
        let download = stage.moves(Policy::EveryStep, false).next().is_some();
        if download && resident {
            let u = fields.slice_mut(unknown);
            device.d2h_rows(&var_devs[unknown], u, n_cells, &scope.flats);
        } else if download {
            device.d2h(out_dev, out_host);
        }
        *host_stale = resident && !download;
        if fused_dt.is_none() {
            unpack_rows(out_host, out, n_cells, &scope.flats);
        }
        let d2h_obs = device.d2h_bytes() - d2h0;
        let t_end = device.elapsed();
        let host_s = host_t0.elapsed().as_secs_f64();

        if rec.enabled() {
            let n_threads = scope.dofs();
            let tier = ps.kernels.tier;
            let transfer = |rec: &mut Recorder, name, t0: f64, t1: f64, bytes: u64| {
                if bytes > 0 {
                    let attrs = vec![("step", step.to_string()), ("bytes", bytes.to_string())];
                    rec.span(
                        SpanKind::Transfer,
                        name,
                        t0,
                        t1 - t0,
                        Track::Device(0),
                        attrs,
                    );
                }
                rec.transfer_drift(step, name, bytes);
            };
            transfer(rec, "h2d", dev_t0, t_after_h2d, h2d_obs);
            rec.span(
                SpanKind::Kernel,
                record.label(),
                t_after_h2d,
                t_kernel,
                Track::Device(0),
                vec![
                    ("step", step.to_string()),
                    ("kernel", ps.name.to_string()),
                    ("place", "device".to_string()),
                    ("host_s", format!("{host_s:.3e}")),
                    ("threads", n_threads.to_string()),
                    ("run_cells", plan.hot.run_cells_of(scope).to_string()),
                    ("tiles", scope.tiles.len().to_string()),
                    ("workers", scope.workers.to_string()),
                    ("tier", tier.name().to_string()),
                    ("flux", plan.flux_path(tier).name().to_string()),
                    (
                        "pred_flops",
                        format!("{:.4e}", ps.cost.total_flops(n_threads)),
                    ),
                ],
            );
            transfer(rec, "d2h", t_after_h2d + t_kernel, t_end, d2h_obs);
        }
        StepTimes {
            kernel: t_kernel,
            transfer: t_end - dev_t0 - t_kernel,
            ..StepTimes::default()
        }
    }
}

impl Backend for GpuBackend<'_> {
    fn kernels(&self) -> Vec<&IntensityKernels> {
        let plans = std::iter::once(&self.main).chain(&self.jvp);
        plans.map(|p| &p.kernels).collect()
    }

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
        let t0 = Instant::now();
        match record.kernel {
            Kernel::Sweep { .. } => {
                return self.sweep(stage, at, plan, fields, time, step, out, rec);
            }
            // The ghosts of callback walls from the sweep's state (for the
            // JVP plan these are the *linearized* boundary conditions).
            Kernel::GhostEval { plan: which } => {
                let ps = match which {
                    Plan::Main => &mut self.main,
                    Plan::Jvp => self.jvp.as_mut().expect("JVP ghosts without a JVP plan"),
                };
                let flats = &record.range.flats;
                ps.ghosts
                    .refresh(plan, fields, flats, time, &mut rec.work, false);
            }
            Kernel::Callback { .. } => unreachable!("step callbacks run in the driver"),
        }
        StepTimes {
            host: host_span(rec, record, step, t0),
            ..StepTimes::default()
        }
    }

    /// Reconcile the host copy of the unknown after the final explicit
    /// step when the schedule (validly) omitted the per-step download — no
    /// host code reads the unknown *between* device writes, but the caller
    /// reads `fields` after the last one —
    /// then hand back the device profile.
    fn finish(
        &mut self,
        cp: &CompiledProblem,
        fields: &mut Fields,
    ) -> Option<pbte_gpu::ProfileReport> {
        if self.host_stale {
            let unknown = cp.system.unknown;
            let n_cells = fields.n_cells;
            self.device.d2h_rows(
                &self.var_devs[unknown],
                fields.slice_mut(unknown),
                n_cells,
                &self.scope.flats,
            );
        }
        Some(self.device.profile())
    }
}
