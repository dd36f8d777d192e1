//! Hybrid CPU + GPU execution (paper §III-D, Fig 6).
//!
//! The generated kernel flattens all loops and assigns one thread per
//! degree of freedom; it runs on the simulated device (`pbte-gpu`). User
//! callbacks — the post-step temperature update, and any boundary
//! condition the plan could not lower — stay on the host, exactly as the
//! paper argues they must. Walls the plan *did* lower
//! ([`super::Walls`]: constants, Fixed images, same-cell gathers) are
//! tables the kernel reads like the face geometry; when every wall is
//! lowered there is no host boundary work at all, the synthesized schedule
//! proves the per-step upload of the unknown dead, and both strategies run
//! the same stage: full-flux kernel on the device-resident unknown, ghost
//! image uploaded once. With callback walls left, two strategies connect
//! the halves of an explicit step:
//!
//! * [`GpuStrategy::AsyncBoundary`] — the kernel updates interior-face
//!   fluxes only while the CPU computes boundary-face contributions from
//!   the same old state; after the device result returns, the host
//!   combines `u = u_new + u_bdry`, runs the post-step, and sends the
//!   state back (`u`, `Io`, `beta` move every step — the "substantial
//!   communication" configuration the paper shows is still profitable).
//! * [`GpuStrategy::PrecomputeBoundary`] — the CPU evaluates the callback
//!   walls' ghost values, ships the (small) ghost array, and the kernel
//!   computes the complete flux; the unknown stays device-resident between
//!   steps. This variant is bit-identical to the sequential CPU target
//!   because the per-face accumulation order is unchanged.
//!
//! Which variables move when is decided by the synthesized transfer
//! schedule ([`crate::analysis::synthesize_schedule`]), not here. The
//! implicit integrators use the device as a plain RHS engine: every
//! RHS/JVP sweep uploads the plan's read set (and the ghosts of callback
//! walls), launches, and downloads.

use super::driver::{Backend, Plan, StepTimes};
use super::rows::{self, FluxBoundary, IntensityKernels};
use super::walls::Ghosts;
use super::CompiledProblem;
use crate::analysis::Scope;
use crate::bytecode::VmCtx;
use crate::entities::Fields;
use crate::problem::{GpuStrategy, KernelTier};
use pbte_gpu::{Device, DeviceBuffer, DeviceSpec, KernelCost};
use pbte_runtime::telemetry::{DeviceSummary, Recorder, SpanKind, Track, WorkCounters};
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

/// Static cost of one generated-kernel thread, as the code generator
/// derives it. Flops are counted directly from the compiled programs
/// (volume + per-face flux + update arithmetic). Bytes use the
/// *DRAM-effective* traffic the generator can prove from reuse structure,
/// not raw load counts:
///
/// * each unknown value leaves DRAM once per kernel — its five uses (own
///   thread + four neighbors) hit in L2;
/// * a non-unknown variable value (e.g. `Io[b]`, `beta[b]` per cell) is
///   shared by all threads with the same (cell, its indices), i.e. reused
///   `n_flat / flat_len(var)` times;
/// * coefficient tables (a few kB) and per-cell geometry are resident in
///   cache across the flattened index dimension.
///
/// This reuse reasoning is what makes the BTE kernel compute-bound on the
/// device and reproduces the paper's profile table (≈49% of DP peak, ≈11%
/// memory throughput). Exposed publicly so the figure harness prices
/// paper-scale launches without executing them.
pub fn estimate_kernel_cost(cp: &CompiledProblem) -> KernelCost {
    let mesh = cp.mesh();
    let max_faces = (0..mesh.n_cells())
        .map(|c| mesh.cell_faces(c).len())
        .max()
        .expect("mesh has cells") as f64;
    let n_flat_f = cp.n_flat as f64;
    let registry = &cp.problem.registry;
    let shared_var_bytes: f64 = cp
        .system
        .read_variables
        .iter()
        .filter(|&&v| v != cp.system.unknown)
        .map(|&v| 8.0 * registry.flat_len(&registry.variables[v].indices) as f64 / n_flat_f)
        .sum();
    let geometry_bytes = 8.0 * (6.0 * max_faces + 4.0) / n_flat_f;
    KernelCost {
        flops_per_thread: cp.volume.flops as f64 + max_faces * (cp.flux.flops as f64 + 4.0) + 4.0,
        bytes_read_per_thread: 8.0 + shared_var_bytes + geometry_bytes,
        bytes_written_per_thread: 8.0,
        fma_fraction: 0.0,
        divergence_efficiency: 1.0,
    }
}

/// Per-plan device state: the primal RHS and the JVP are two different
/// compiled programs with their own kernels, cost model, and ghost layout,
/// but they read the same variable set.
struct PlanState {
    /// Scoped to the owned flats: `bound(k)`/`reg(k)` are indexed by
    /// scope position, which must match the launch row index.
    kernels: IntensityKernels,
    cost: KernelCost,
    ghost_dev: DeviceBuffer,
    /// Host-side ghost values.
    ghosts: Ghosts,
    name: &'static str,
}

impl PlanState {
    /// A lowered plan's ghost image never changes: it is uploaded here,
    /// once. A plan with callback walls uploads its ghosts per sweep (or
    /// never, under the async strategy's interior-only kernel).
    fn new(
        device: &mut Device,
        plan: &CompiledProblem,
        owned_flats: &[usize],
        name: &'static str,
    ) -> PlanState {
        let mut ghost_dev = device.alloc("ghosts", plan.walls.image.len());
        if plan.walls.lowered() {
            device.h2d(&plan.walls.image, &mut ghost_dev);
        }
        PlanState {
            kernels: IntensityKernels::for_scope(plan, owned_flats),
            cost: estimate_kernel_cost(plan),
            ghost_dev,
            ghosts: Ghosts::for_plan(plan),
            name,
        }
    }
}

/// A single simulated device executing one rank's share of the problem:
/// callback-wall ghosts and step callbacks stay on the host, and every
/// sweep is one
/// batched row kernel (`Device::launch_rows`, one block per tile of the
/// rank's scope — a device rank owns every cell, so a tile is one owned
/// flat's whole row: the grid shape the host-side kernel compiler emits)
/// evaluating [`rows::rhs_block`], the same tier entry point as the CPU
/// targets.
pub(crate) struct GpuBackend<'a> {
    device: Device,
    strategy: GpuStrategy,
    /// The explicit kernel skips boundary faces and the host adds their
    /// contribution: the async strategy on a plan with callback walls.
    skip_boundary: bool,
    /// The rank's scope; its tiles are the launch rows.
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
    /// Variables the CPU rewrites each explicit step (H2D per step), from
    /// the synthesized transfer schedule's `EveryStep` H2D set.
    step_h2d_vars: Vec<usize>,
    /// Schedule-derived per-step movements: the async strategy's
    /// host-combined unknown re-upload, the precompute strategy's ghost
    /// upload, and the unknown's download for host readers.
    h2d_unknown_each_step: bool,
    h2d_ghosts_each_step: bool,
    d2h_unknown_each_step: bool,
}

impl<'a> GpuBackend<'a> {
    pub(crate) fn new(
        cp: &CompiledProblem,
        fields: &Fields,
        scope: &'a Scope,
        spec: DeviceSpec,
        strategy: GpuStrategy,
    ) -> GpuBackend<'a> {
        let mut device = Device::new(spec);
        let n_cells = fields.n_cells;
        let owned_flats = &scope.flats;
        assert!(
            scope.tiles.len() == owned_flats.len() && scope.cells.len() == n_cells,
            "a device rank launches one whole-row tile per owned flat"
        );
        let explicit = !cp.problem.integrator.is_implicit();

        // The movement sets come straight from the synthesized,
        // certificate-backed transfer schedule. Coefficient entries map
        // to no variable id (they are baked into the bound kernels at
        // compile time) and drop out of `var_id`.
        let registry = &cp.problem.registry;
        let schedule = cp.transfer_schedule(strategy);
        let unknown_name = registry.variables[cp.system.unknown].name.as_str();
        let var_id = |name: &str| registry.variables.iter().position(|v| v.name == name);
        let each_h2d = schedule.each_step_h2d();
        let step_h2d_vars: Vec<usize> = each_h2d
            .iter()
            .filter(|n| **n != unknown_name && **n != "ghosts")
            .filter_map(|n| var_id(n))
            .collect();
        let h2d_unknown_each_step = each_h2d.contains(&unknown_name);
        let h2d_ghosts_each_step = each_h2d.contains(&"ghosts");
        let d2h_unknown_each_step = schedule.each_step_d2h().contains(&unknown_name);
        let once_h2d: Vec<usize> = schedule
            .transfers
            .iter()
            .filter(|t| t.to_device && t.policy == crate::dataflow::Policy::Once)
            .filter_map(|t| var_id(&t.name))
            .collect();
        // The strategy-structural movements must be present exactly while
        // a callback wall keeps the host in the boundary loop: the async
        // combine rewrites the unknown there, precompute evaluates ghosts
        // there; a lowered plan uploads its ghost image once instead. A
        // schedule violating this would fail `schedule/unsound` before
        // ever reaching an executor.
        let lowered = cp.walls.lowered();
        debug_assert_eq!(
            h2d_unknown_each_step,
            strategy == GpuStrategy::AsyncBoundary && !lowered,
            "synthesized schedule disagrees with the async strategy's structural re-upload"
        );
        debug_assert_eq!(
            h2d_ghosts_each_step,
            strategy == GpuStrategy::PrecomputeBoundary && !lowered,
            "synthesized schedule disagrees with the precompute strategy's ghost upload"
        );
        debug_assert_eq!(
            schedule.once().contains(&"ghosts"),
            lowered,
            "synthesized schedule disagrees with the one-time upload of a lowered ghost image"
        );

        // One buffer per variable; under explicit stepping only
        // `Policy::Once` H2D entries get their setup copy here. Variables
        // re-uploaded every step get their first copy in the first stage,
        // and variables the kernel never reads get an allocation but no
        // transfer — the dynamic transfer-oracle test holds the profiler
        // log to exactly this. Implicit sweeps upload their read set
        // themselves.
        let mut var_devs = Vec::with_capacity(fields.n_vars());
        for v in 0..fields.n_vars() {
            let mut buf = device.alloc(&registry.variables[v].name, fields.slice(v).len());
            if explicit && once_h2d.contains(&v) {
                device.h2d(fields.slice(v), &mut buf);
            }
            var_devs.push(buf);
        }
        let out_dev = device.alloc("u_new", owned_flats.len() * n_cells);
        let main_name = if explicit {
            "intensity_update"
        } else {
            "rhs_sweep"
        };
        let main = PlanState::new(&mut device, cp, owned_flats, main_name);
        let jvp = cp
            .jvp
            .as_deref()
            .map(|jcp| PlanState::new(&mut device, jcp, owned_flats, "jvp_sweep"));

        GpuBackend {
            device,
            strategy,
            skip_boundary: strategy == GpuStrategy::AsyncBoundary && !lowered,
            scope,
            var_devs,
            out_dev,
            out_host: vec![0.0; owned_flats.len() * n_cells],
            main,
            jvp,
            step_h2d_vars,
            h2d_unknown_each_step,
            h2d_ghosts_each_step,
            d2h_unknown_each_step,
        }
    }
}

/// Launch one row kernel of `ps`'s plan over `scope`'s tiles into the
/// compact `out_dev` (row `k` is the scope's `k`-th flat): inputs are
/// every variable buffer (id order) then the ghost buffer. Counts the
/// sweep in `work` and returns the simulated kernel seconds.
#[allow(clippy::too_many_arguments)]
fn launch_sweep(
    device: &mut Device,
    ps: &mut PlanState,
    plan: &CompiledProblem,
    var_devs: &[DeviceBuffer],
    out_dev: &mut DeviceBuffer,
    scope: &Scope,
    work: &mut WorkCounters,
    time: f64,
    skip_boundary: bool,
    fused_dt: Option<f64>,
) -> f64 {
    ps.kernels.ensure(plan, time);
    let kernels = &ps.kernels;
    let n_vars = var_devs.len();
    let mut inputs: Vec<&DeviceBuffer> = var_devs.iter().collect();
    inputs.push(&ps.ghost_dev);
    scope.account(work);
    device.launch_rows(
        ps.name,
        scope.tiles.len(),
        scope.n_cells,
        ps.cost,
        &inputs,
        out_dev,
        |row, bufs, out| {
            let tile = &scope.tiles[row];
            let boundary = if skip_boundary {
                FluxBoundary::Skip
            } else {
                FluxBoundary::Ghosts(bufs[n_vars])
            };
            let mut scratch = kernels.scratch(&bufs[..n_vars]);
            rows::rhs_block(
                kernels,
                plan,
                &bufs[..n_vars],
                tile.k,
                tile.cell0,
                out,
                boundary,
                time,
                fused_dt,
                &mut scratch,
            );
        },
    )
}

impl Backend for GpuBackend<'_> {
    fn tier(&self) -> KernelTier {
        self.main.kernels.tier
    }

    /// One un-fused sweep for the implicit drivers. The boundary strategy
    /// degenerates here — matvecs need the complete flux, so the
    /// precompute-style split (ghosts on host, full flux on device) is
    /// always used; it is also the bit-identical one.
    fn rhs(
        &mut self,
        plan: &CompiledProblem,
        which: Plan,
        fields: &Fields,
        time: f64,
        out: &mut [f64],
        work: &mut WorkCounters,
    ) {
        let GpuBackend {
            device,
            scope,
            var_devs,
            out_dev,
            out_host,
            main,
            jvp,
            ..
        } = self;
        let ps = match which {
            Plan::Main => main,
            Plan::Jvp => jvp.as_mut().expect("JVP sweep without a JVP plan"),
        };
        let n_cells = fields.n_cells;
        let owned_flats = &scope.flats;

        // H2D: the plan's read set. The unknown slot moves every sweep (it
        // carries the Krylov direction); coefficient fields move too
        // because callbacks rewrite them between sweeps.
        for &v in &plan.system.read_variables {
            device.h2d(fields.slice(v), &mut var_devs[v]);
        }
        // Host: the ghosts of callback walls from the sweep's state (for
        // the JVP plan these are the *linearized* boundary conditions),
        // shipped with it. A lowered plan's image is already resident.
        if !plan.walls.lowered() {
            let ghosts = ps
                .ghosts
                .refresh(plan, fields, owned_flats, time, work, false);
            device.h2d(ghosts, &mut ps.ghost_dev);
        }

        launch_sweep(
            device, ps, plan, var_devs, out_dev, scope, work, time, false, None,
        );

        // D2H: scatter the compact row block into the caller's
        // full-layout output.
        device.d2h(out_dev, out_host);
        for (k, &flat) in owned_flats.iter().enumerate() {
            out[flat * n_cells..(flat + 1) * n_cells]
                .copy_from_slice(&out_host[k * n_cells..(k + 1) * n_cells]);
        }
    }

    /// One hybrid Euler stage: H2D per the schedule → fused row kernel
    /// (`u + dt·rhs`, the same reciprocal-volume arithmetic as the CPU
    /// targets) → async boundary combine (callback walls under the async
    /// strategy only) or device-side scatter → D2H.
    fn explicit_stage(
        &mut self,
        cp: &CompiledProblem,
        fields: &mut Fields,
        _d: &Scope,
        time: f64,
        step: usize,
        _k: &mut Vec<f64>,
        rec: &mut Recorder,
    ) -> Option<StepTimes> {
        let n_cells = fields.n_cells;
        let unknown = cp.system.unknown;
        let dt = cp.problem.dt;
        let scope = self.scope;
        let owned_flats = &scope.flats;
        let dev_t0 = self.device.elapsed();
        let h2d0 = self.device.h2d_bytes();

        // Host: the ghosts of callback walls from the old state (nothing
        // on a lowered plan).
        let host_t0 = Instant::now();
        let ghosts = self
            .main
            .ghosts
            .refresh(cp, fields, owned_flats, time, &mut rec.work, false);
        let mut t_host = host_t0.elapsed().as_secs_f64();

        // H2D per the transfer schedule: CPU-written variables move every
        // step; under the async strategy the host-combined unknown moves
        // too (its rows were rewritten at the end of the previous step).
        for &v in &self.step_h2d_vars {
            self.device.h2d(fields.slice(v), &mut self.var_devs[v]);
        }
        if self.h2d_unknown_each_step {
            self.device.h2d_rows(
                fields.slice(unknown),
                &mut self.var_devs[unknown],
                n_cells,
                owned_flats,
            );
        }
        if self.h2d_ghosts_each_step {
            self.device.h2d(ghosts, &mut self.main.ghost_dev);
        }
        let t_after_h2d = self.device.elapsed();
        let h2d_obs = self.device.h2d_bytes() - h2d0;

        // Kernel launch: one thread per owned dof.
        let n_threads = scope.dofs();
        let skip_boundary = self.skip_boundary;
        let t_kernel = launch_sweep(
            &mut self.device,
            &mut self.main,
            cp,
            &self.var_devs,
            &mut self.out_dev,
            scope,
            &mut rec.work,
            time,
            skip_boundary,
            Some(dt),
        );
        if rec.enabled() {
            rec.span(
                SpanKind::Kernel,
                "intensity_update",
                t_after_h2d,
                t_kernel,
                Track::Device(0),
                vec![
                    ("step", step.to_string()),
                    ("threads", n_threads.to_string()),
                    ("run_cells", cp.hot.run_cells_of(scope).to_string()),
                    ("tiles", scope.tiles.len().to_string()),
                    ("workers", scope.workers.to_string()),
                    ("tier", self.main.kernels.tier.name().to_string()),
                    (
                        "flux",
                        cp.flux_path(self.main.kernels.tier).name().to_string(),
                    ),
                    (
                        "obs_flops",
                        format!("{:.4e}", self.main.cost.total_flops(n_threads)),
                    ),
                ],
            );
        }
        let t_after_kernel = t_after_h2d + t_kernel;

        // Meanwhile (conceptually overlapped, Fig 6): the CPU computes the
        // boundary contribution from the same old state.
        let mut boundary_add: Vec<(usize, usize, f64)> = Vec::new();
        if skip_boundary {
            let host_t1 = Instant::now();
            let mesh = cp.mesh();
            let vars = fields.as_slices();
            let ghosts = self.main.ghosts.current(cp);
            for bf in &cp.boundary {
                let face = &mesh.faces[bf.face];
                let cell = face.owner;
                let fid = bf.face;
                for &flat in owned_flats {
                    let u1 = fields.value(unknown, cell, flat);
                    let slot = cp.bface_slot[fid];
                    let u2 = cp
                        .walls
                        .ghost_read(ghosts, vars[unknown], n_cells, slot, flat, cell);
                    let n = face.normal;
                    let vm = VmCtx {
                        vars: &vars,
                        n_cells,
                        coefficients: &cp.problem.registry.coefficients,
                        idx: &cp.idx_of_flat[flat],
                        cell,
                        u1,
                        u2,
                        normal: [n.x, n.y, n.z],
                        position: face.centroid,
                        dt,
                        time,
                    };
                    let flux = face.area * cp.flux.eval(&vm);
                    boundary_add.push((cell, flat, -dt * flux / mesh.cell_volumes[cell]));
                }
            }
            t_host += host_t1.elapsed().as_secs_f64();
        } else {
            // Full-flux kernel: reconcile the device state — scatter the
            // new rows back into the resident unknown buffer.
            self.device.scatter_rows(
                &self.out_dev,
                &mut self.var_devs[unknown],
                n_cells,
                owned_flats,
            );
        }

        // D2H: the updated unknown returns to the host. With the host
        // combine the download is structural — the combine *is* the
        // strategy and needs the kernel's interior result regardless of
        // whether any callback reads the unknown afterwards. Otherwise it
        // is purely schedule-driven; when the schedule omits it (no host
        // reader), `finish` reconciles the host copy after the final step
        // instead.
        let d2h0 = self.device.d2h_bytes();
        if skip_boundary {
            self.device.d2h(&self.out_dev, &mut self.out_host);
            // Combine interior result + boundary contribution.
            let u = fields.slice_mut(unknown);
            for (k, &flat) in owned_flats.iter().enumerate() {
                u[flat * n_cells..(flat + 1) * n_cells]
                    .copy_from_slice(&self.out_host[k * n_cells..(k + 1) * n_cells]);
            }
            for (cell, flat, add) in boundary_add {
                u[flat * n_cells + cell] += add;
            }
        } else if self.d2h_unknown_each_step {
            self.device.d2h_rows(
                &self.var_devs[unknown],
                fields.slice_mut(unknown),
                n_cells,
                owned_flats,
            );
        }
        let d2h_obs = self.device.d2h_bytes() - d2h0;
        let t_transfer = (t_after_h2d - dev_t0) + (self.device.elapsed() - t_after_h2d - t_kernel);
        if rec.enabled() {
            let strat = match self.strategy {
                GpuStrategy::AsyncBoundary => "async",
                GpuStrategy::PrecomputeBoundary => "precompute",
            };
            rec.span(
                SpanKind::Transfer,
                "h2d",
                dev_t0,
                t_after_h2d - dev_t0,
                Track::Device(0),
                vec![
                    ("step", step.to_string()),
                    ("strategy", strat.to_string()),
                    ("bytes", h2d_obs.to_string()),
                ],
            );
            rec.span(
                SpanKind::Transfer,
                "d2h",
                t_after_kernel,
                self.device.elapsed() - t_after_kernel,
                Track::Device(0),
                vec![
                    ("step", step.to_string()),
                    ("strategy", strat.to_string()),
                    ("bytes", d2h_obs.to_string()),
                ],
            );
            rec.transfer_drift(step, "h2d", h2d_obs);
            rec.transfer_drift(step, "d2h", d2h_obs);
        }

        Some(StepTimes {
            kernel: t_kernel,
            transfer: t_transfer,
            host: t_host,
        })
    }

    /// Reconcile the host copy of the unknown after the final explicit
    /// step when the schedule (validly) omitted the per-step download —
    /// the certificate's `HostNeverReads` argument covers the steps
    /// *between* device writes, not the caller's final read of `fields` —
    /// then hand back the device profile.
    fn finish(
        &mut self,
        cp: &CompiledProblem,
        fields: &mut Fields,
    ) -> Option<pbte_gpu::ProfileReport> {
        if !cp.problem.integrator.is_implicit()
            && !self.skip_boundary
            && !self.d2h_unknown_each_step
        {
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
