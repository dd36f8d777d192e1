//! Cross-target equivalence tests.
//!
//! A mini BTE-shaped problem (4 directions × 3 bands, coupled through a
//! temperature-like post-step callback) is solved on every execution
//! target. The sequential CPU target defines the reference semantics;
//! thread-parallel, cell-distributed and GPU runs — the callback walls'
//! ghosts computed on the host and read by the device sweep — must match
//! it **exactly**: every target sweeps through the
//! same kernels, in the same face order. Band distribution too: the
//! callback's cross-rank energy sum is a fold in rank order over
//! band-major loops, the sequential order.

use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{BoundaryCondition, Integrator, Problem, StepContext};
use pbte_dsl::{Fields, GpuStrategy};
use pbte_gpu::DeviceSpec;
use pbte_mesh::grid::UniformGrid;

const NDIRS: usize = 4;
const NBANDS: usize = 3;

/// Direction unit vectors: ±x, ±y.
const SX: [f64; 4] = [1.0, 0.0, -1.0, 0.0];
const SY: [f64; 4] = [0.0, 1.0, 0.0, -1.0];

/// Build the mini-BTE problem. The post-step mimics the paper's
/// temperature update: reduce intensity over all (d, b) per cell (across
/// ranks when band-partitioned), derive a "temperature", and rewrite the
/// per-band equilibrium `Io` and rate `beta` — exercising exactly the
/// CPU-callback coupling the paper builds the hybrid codegen around.
fn build_problem(n: usize, steps: usize, integrator: Integrator) -> Problem {
    let mut p = Problem::new("mini-bte");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(n, n, 1.0, 1.0).build());
    p.integrator(integrator);
    p.set_steps(0.01, steps);
    let d = p.index("d", NDIRS);
    let b = p.index("b", NBANDS);
    let i_var = p.variable("I", &[d, b]);
    let io = p.variable("Io", &[b]);
    let beta = p.variable("beta", &[b]);
    let t_var = p.variable("T", &[]);
    p.coefficient_array("Sx", &[d], SX.to_vec());
    p.coefficient_array("Sy", &[d], SY.to_vec());
    p.coefficient_array("vg", &[b], vec![1.0, 0.7, 0.4]);

    // Initial condition: a smooth bump plus direction/band striping.
    p.initial(i_var, |pt, idx| {
        let bump = (-20.0 * ((pt.x - 0.4).powi(2) + (pt.y - 0.6).powi(2))).exp();
        1.0 + bump + 0.1 * idx[0] as f64 + 0.05 * idx[1] as f64
    });
    p.initial(io, |_, idx| 1.0 + 0.05 * idx[0] as f64);
    p.initial(beta, |_, idx| 0.5 + 0.1 * idx[0] as f64);
    p.initial(t_var, |_, _| 1.0);

    // Left wall: "hot" callback depending on position and band.
    p.boundary(
        i_var,
        "left",
        BoundaryCondition::callback_reading(&[], move |q| {
            1.5 + 0.2 * (std::f64::consts::PI * q.position.y).sin() + 0.05 * q.idx[1] as f64
        }),
    );
    // Right wall: cold fixed value.
    p.boundary(i_var, "right", BoundaryCondition::Value(1.0));
    // Top/bottom: specular symmetry — ghost takes the reflected
    // direction's interior value (reads the fields, like the paper's
    // symmetry callback).
    for region in ["top", "bottom"] {
        p.boundary(
            i_var,
            region,
            BoundaryCondition::callback_reading(&["I"], move |q| {
                // Reflect d across the wall normal (±y): 1 <-> 3.
                let d_val = q.idx[0];
                let r = match d_val {
                    1 => 3,
                    3 => 1,
                    other => other,
                };
                let fields = q.fields;
                let i_id = fields.var_id("I").expect("I exists");
                fields.value(i_id, q.owner_cell, r * NBANDS + q.idx[1])
            }),
        );
    }

    // Temperature-like post-step with cross-rank reduction.
    p.post_step(
        "temperature",
        &["I"],
        &["Io", "beta", "T"],
        move |ctx: &mut StepContext| {
            let n_cells = ctx.fields.n_cells;
            // Partial energy over owned (d, b) pairs.
            let owned_b: std::ops::Range<usize> = match &ctx.owned_index_range {
                Some((name, range)) => {
                    assert_eq!(name, "b");
                    range.clone()
                }
                None => 0..NBANDS,
            };
            let cell_list: Vec<usize> = match ctx.owned_cells {
                Some(cells) => cells.to_vec(),
                None => (0..n_cells).collect(),
            };
            // Band-major, so a fold over the ranks' band ranges adds in the
            // sequential order. Cell partitioning needs no reduction: each
            // rank owns all bands of its cells.
            let mut energy = vec![0.0; n_cells];
            let fields = &*ctx.fields;
            let mut add = |energy: &mut [f64]| {
                for &cell in &cell_list {
                    for bb in owned_b.clone() {
                        for dd in 0..NDIRS {
                            energy[cell] += fields.value(0, cell, dd * NBANDS + bb);
                        }
                    }
                }
            };
            match ctx.owned_cells {
                None => ctx.reducer.fold(&mut energy, &mut add),
                Some(_) => add(&mut energy),
            }
            for &cell in &cell_list {
                let t = energy[cell] / (NDIRS * NBANDS) as f64;
                ctx.fields.set(3, cell, 0, t);
                for bb in owned_b.clone() {
                    ctx.fields.set(1, cell, bb, t * (1.0 + 0.05 * bb as f64));
                    ctx.fields
                        .set(2, cell, bb, 0.5 + 0.1 * bb as f64 + 0.01 * t);
                }
            }
        },
    );

    p.conservation_form(
        i_var,
        "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    );
    p
}

fn run(target: ExecTarget, n: usize, steps: usize, integrator: Integrator) -> Fields {
    let mut solver = build_problem(n, steps, integrator).build(target).unwrap();
    solver.solve().unwrap();
    solver.fields().clone()
}

fn max_abs_diff(a: &Fields, b: &Fields, var: usize) -> f64 {
    a.slice(var)
        .iter()
        .zip(b.slice(var))
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn assert_identical(a: &Fields, b: &Fields, what: &str) {
    for v in 0..a.n_vars() {
        let d = max_abs_diff(a, b, v);
        assert_eq!(d, 0.0, "{what}: variable {v} differs by {d}");
    }
}

/// The initial fill walks flat-major (the index tuple decoded once per
/// flat, each flat's row filled over the centroids), but every closure
/// still sees each (cell, flat) exactly once, with the cell's centroid and
/// the flat's index tuple, and its value lands in that slot.
#[test]
fn initial_fill_calls_each_cell_and_flat_once_with_its_tuple() {
    use std::sync::{Arc, Mutex};
    let mut p = build_problem(3, 1, Integrator::Explicit);
    let i_var = p.registry.variable_id("I").unwrap();
    let calls = Arc::new(Mutex::new(Vec::new()));
    let log = calls.clone();
    p.initial(i_var, move |pt, idx| {
        log.lock().unwrap().push((pt, idx.to_vec()));
        1000.0 * pt.x + 100.0 * pt.y + 10.0 * idx[0] as f64 + idx[1] as f64
    });
    let (cp, fields) = pbte_dsl::exec::CompiledProblem::compile(p).unwrap();
    let centroids = &cp.mesh().cell_centroids;
    let calls = calls.lock().unwrap();
    assert_eq!(calls.len(), centroids.len() * NDIRS * NBANDS);
    for (cell, &pt) in centroids.iter().enumerate() {
        for d in 0..NDIRS {
            for b in 0..NBANDS {
                let seen = calls.iter().filter(|c| **c == (pt, vec![d, b])).count();
                assert_eq!(seen, 1, "cell {cell} idx [{d}, {b}]");
                let expect = 1000.0 * pt.x + 100.0 * pt.y + 10.0 * d as f64 + b as f64;
                assert_eq!(fields.value(i_var, cell, d * NBANDS + b), expect);
            }
        }
    }
}

#[test]
fn threaded_matches_sequential_exactly() {
    let seq = run(ExecTarget::CpuSeq, 6, 5, Integrator::Explicit);
    let par = run(ExecTarget::CpuParallel, 6, 5, Integrator::Explicit);
    assert_identical(&seq, &par, "cpu-parallel");
}

#[test]
fn cell_distribution_matches_sequential_exactly() {
    let seq = run(ExecTarget::CpuSeq, 6, 5, Integrator::Explicit);
    for ranks in [2, 3, 4] {
        let dist = run(ExecTarget::DistCells { ranks }, 6, 5, Integrator::Explicit);
        assert_identical(&seq, &dist, &format!("dist-cells ranks={ranks}"));
    }
}

#[test]
fn band_distribution_matches_sequential_exactly() {
    // The cross-rank energy sum is a fold in rank order over band-major
    // loops: the sequential additions, in the sequential order.
    let seq = run(ExecTarget::CpuSeq, 6, 5, Integrator::Explicit);
    for ranks in [2, 3] {
        let dist = run(
            ExecTarget::DistBands {
                ranks,
                index: "b".into(),
            },
            6,
            5,
            Integrator::Explicit,
        );
        assert_identical(&seq, &dist, &format!("dist-bands ranks={ranks}"));
    }
}

/// Runs the mini-BTE on the GPU target under `strategy` and asserts it
/// matches the sequential CPU run exactly. Three of the four walls are
/// callbacks: the host evaluates their ghosts and the device sweep reads
/// them, so agreement is bitwise, not just to rounding.
fn assert_gpu_matches_sequential(strategy: GpuStrategy) {
    let seq = run(ExecTarget::CpuSeq, 6, 5, Integrator::Explicit);
    let target = ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy,
    };
    let label = target.label();
    let gpu = run(target, 6, 5, Integrator::Explicit);
    assert_identical(&seq, &gpu, &label);
}

#[test]
fn gpu_async_matches_exactly() {
    assert_gpu_matches_sequential(GpuStrategy::AsyncBoundary);
}

#[test]
fn flux_linearization_is_active_and_matches_the_vm() {
    // The mini-BTE's upwind flux is affine in (CELL1, CELL2): the CPU
    // generator must take the hoisted path, and its coefficients must
    // reproduce the VM's values at rounding level.
    let solver = build_problem(4, 1, Integrator::Explicit)
        .build(ExecTarget::CpuSeq)
        .unwrap();
    let cp = &solver.compiled;
    let lin = cp.flux_lin.as_ref().expect("upwind flux must linearize");
    assert!(
        lin.n_classes >= 4,
        "axis-aligned grid has 4+ oriented normals"
    );
    let mesh = cp.problem.mesh.as_ref().unwrap();
    let no_vars: [&[f64]; 0] = [];
    for flat in 0..cp.n_flat {
        for (fid, face) in mesh.faces.iter().enumerate() {
            for (u1, u2) in [(1.3, -0.4), (0.0, 2.0), (5.5, 5.5)] {
                let n = face.normal;
                let vm = pbte_dsl::bytecode::VmCtx {
                    vars: &no_vars,
                    n_cells: 1,
                    coefficients: &cp.problem.registry.coefficients,
                    idx: &cp.idx_of_flat[flat],
                    cell: 0,
                    u1,
                    u2,
                    normal: [n.x, n.y, n.z],
                    position: face.centroid,
                    dt: cp.problem.dt,
                    time: 0.0,
                };
                let direct = cp.flux.eval(&vm);
                let class = cp.face_class(fid).expect("a table plan");
                let fast = lin.eval(flat, class, u1, u2);
                assert!(
                    (direct - fast).abs() <= 1e-12 * (1.0 + direct.abs()),
                    "flat {flat} face {fid}: {direct} vs {fast}"
                );
            }
        }
    }
}

#[test]
fn multi_gpu_band_distribution_agrees() {
    let seq = run(ExecTarget::CpuSeq, 5, 4, Integrator::Explicit);
    let gpu = run(
        ExecTarget::DistBandsGpu {
            ranks: 3,
            index: "b".into(),
            spec: DeviceSpec::a100(),
            strategy: GpuStrategy::AsyncBoundary,
        },
        5,
        4,
        Integrator::Explicit,
    );
    assert_identical(&seq, &gpu, "dist-bands-gpu");
}

#[test]
fn rk2_matches_across_cpu_targets() {
    let seq = run(ExecTarget::CpuSeq, 5, 4, Integrator::Rk2);
    let par = run(ExecTarget::CpuParallel, 5, 4, Integrator::Rk2);
    assert_identical(&seq, &par, "rk2 cpu-parallel");
    let dist = run(ExecTarget::DistCells { ranks: 3 }, 5, 4, Integrator::Rk2);
    assert_identical(&seq, &dist, "rk2 dist-cells");
    let bands = run(
        ExecTarget::DistBands {
            ranks: 2,
            index: "b".into(),
        },
        5,
        4,
        Integrator::Rk2,
    );
    assert_identical(&seq, &bands, "rk2 dist-bands");
    // The device's explicit stage is Euler-only; pin it across its two
    // link types (local, band ranks).
    let spec = DeviceSpec::a6000;
    let strategy = GpuStrategy::AsyncBoundary;
    let gpu = run(
        ExecTarget::GpuHybrid {
            spec: spec(),
            strategy,
        },
        5,
        4,
        Integrator::Explicit,
    );
    let bands_gpu = run(
        ExecTarget::DistBandsGpu {
            ranks: 2,
            index: "b".into(),
            spec: spec(),
            strategy,
        },
        5,
        4,
        Integrator::Explicit,
    );
    assert_identical(&gpu, &bands_gpu, "euler dist-bands-gpu vs gpu");
}

#[test]
fn equilibrium_is_preserved() {
    // With I == Io == constant and matching wall values, the volume term
    // vanishes and the upwind fluxes balance: nothing changes, on any
    // target. This is the discrete analogue of thermal equilibrium.
    let build = || {
        let mut p = Problem::new("equilibrium");
        p.domain(2);
        p.mesh(UniformGrid::new_2d(5, 5, 1.0, 1.0).build());
        p.set_steps(0.01, 10);
        let d = p.index("d", NDIRS);
        let b = p.index("b", NBANDS);
        let i_var = p.variable("I", &[d, b]);
        let io = p.variable("Io", &[b]);
        let beta = p.variable("beta", &[b]);
        p.coefficient_array("Sx", &[d], SX.to_vec());
        p.coefficient_array("Sy", &[d], SY.to_vec());
        p.coefficient_array("vg", &[b], vec![1.0, 0.7, 0.4]);
        p.initial(i_var, |_, _| 2.0);
        p.initial(io, |_, _| 2.0);
        p.initial(beta, |_, _| 0.8);
        for region in ["left", "right", "top", "bottom"] {
            p.boundary(i_var, region, BoundaryCondition::Value(2.0));
        }
        p.conservation_form(
            i_var,
            "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
        );
        p
    };
    for target in [
        ExecTarget::CpuSeq,
        ExecTarget::CpuParallel,
        ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
        ExecTarget::DistCells { ranks: 3 },
    ] {
        let mut solver = build().build(target.clone()).unwrap();
        solver.solve().unwrap();
        for &v in solver.fields().slice(0) {
            assert!(
                (v - 2.0).abs() < 1e-13,
                "equilibrium drifted to {v} on {target:?}"
            );
        }
    }
}

#[test]
fn report_counts_work_and_communication() {
    let mut solver = build_problem(6, 3, Integrator::Explicit)
        .build(ExecTarget::CpuSeq)
        .unwrap();
    let report = solver.solve().unwrap();
    assert_eq!(report.steps, 3);
    // 36 cells × 12 dofs × 3 steps.
    assert_eq!(report.work.dof_updates, 36 * 12 * 3);
    assert_eq!(report.work.flux_evals, 36 * 12 * 3 * 4);
    assert!(report.timer.total() > 0.0);
    assert_eq!(report.comm.bytes, 0);

    // The cell-distributed run communicates.
    let mut dsolver = build_problem(6, 3, Integrator::Explicit)
        .build(ExecTarget::DistCells { ranks: 4 })
        .unwrap();
    let dreport = dsolver.solve().unwrap();
    assert!(dreport.comm.bytes > 0);
    assert_eq!(dreport.work.dof_updates, 36 * 12 * 3);
}

#[test]
fn gpu_report_exposes_device_profile() {
    let mut solver = build_problem(6, 3, Integrator::Explicit)
        .build(ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        })
        .unwrap();
    let report = solver.solve().unwrap();
    let profile = report.device.expect("gpu target profiles the device");
    assert!(profile.kernels.contains_key("intensity_update"));
    assert!(profile.kernel_time() > 0.0);
    assert!(profile.transfer_time() > 0.0);
    assert!(report.timer.get("solve for intensity(GPU)") > 0.0);
    assert!(report.timer.get("communication(CPU<->GPU)") > 0.0);
}

#[test]
fn band_distribution_counts_reduction_traffic_only() {
    // The headline property of Fig 3: band partitioning needs no halo.
    let mut cells = build_problem(6, 3, Integrator::Explicit)
        .build(ExecTarget::DistCells { ranks: 3 })
        .unwrap();
    let creport = cells.solve().unwrap();
    let mut bands = build_problem(6, 3, Integrator::Explicit)
        .build(ExecTarget::DistBands {
            ranks: 3,
            index: "b".into(),
        })
        .unwrap();
    let breport = bands.solve().unwrap();
    // Cell partitioning moves halo values of all 12 dofs per interface
    // cell per step; band partitioning only reduces per-cell energy.
    assert!(
        creport.comm.bytes > breport.comm.bytes,
        "halo traffic ({}) should exceed reduction traffic ({})",
        creport.comm.bytes,
        breport.comm.bytes
    );
}

#[test]
fn memory_report_accounts_for_every_variable() {
    let solver = build_problem(6, 1, Integrator::Explicit)
        .build(ExecTarget::CpuSeq)
        .unwrap();
    let report = solver.compiled.memory_report();
    assert_eq!(report.n_cells, 36);
    assert_eq!(report.n_dof, 36 * NDIRS * NBANDS);
    // I (12 flats) + Io (3) + beta (3) + T (1) = 19 values per cell.
    assert_eq!(report.fields_bytes, 19 * 36 * 8);
    // Device adds the unknown's double buffer and the ghost array.
    assert!(report.device_bytes > report.fields_bytes + 12 * 36 * 8);
    let rendered = report.render();
    assert!(rendered.contains("host fields"));
    assert!(rendered.contains('I'));
}

#[test]
#[should_panic(expected = "device out of memory")]
fn gpu_target_reports_oom_for_an_undersized_device() {
    // Failure injection: a device too small for the problem fails the way
    // a real cudaMalloc would — loudly, at allocation time.
    let mut spec = DeviceSpec::a6000();
    spec.mem_capacity = 4 * 1024; // 4 KiB: nothing fits
    let mut solver = build_problem(6, 1, Integrator::Explicit)
        .build(ExecTarget::GpuHybrid {
            spec,
            strategy: GpuStrategy::AsyncBoundary,
        })
        .unwrap();
    let _ = solver.solve();
}
