//! Workspace-level integration: every crate wired together on the real
//! BTE problem — DSL pipeline → codegen artifacts → all execution targets
//! → agreement with the independent hand-written solver.

use pbte_baseline::BaselineSolver;
use pbte_bte::output::temperature_grid;
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::GpuStrategy;
use pbte_gpu::DeviceSpec;

/// One configuration, five targets, one independent implementation — all
/// tell the same physical story.
#[test]
fn all_paths_agree_on_the_hotspot_problem() {
    let cfg = BteConfig::small(8, 8, 6, 40);
    let make = || hotspot_2d(&cfg);
    let vars = make().vars;

    let mut reference = make().solver(ExecTarget::CpuSeq).unwrap();
    reference.solve().unwrap();
    let ref_t = temperature_grid(reference.fields(), vars.t, 8, 8);

    let targets: Vec<(&str, ExecTarget)> = vec![
        ("threads", ExecTarget::CpuParallel),
        ("cells x3", ExecTarget::DistCells { ranks: 3 }),
        (
            "bands x4",
            ExecTarget::DistBands {
                ranks: 4,
                index: "b".into(),
            },
        ),
        (
            "gpu async",
            ExecTarget::GpuHybrid {
                spec: DeviceSpec::a6000(),
                strategy: GpuStrategy::AsyncBoundary,
            },
        ),
        (
            "gpu+bands x2",
            ExecTarget::DistBandsGpu {
                ranks: 2,
                index: "b".into(),
                spec: DeviceSpec::a100(),
                strategy: GpuStrategy::AsyncBoundary,
            },
        ),
    ];
    for (name, target) in targets {
        let mut solver = make().solver(target).unwrap();
        solver.solve().unwrap();
        let t = temperature_grid(solver.fields(), vars.t, 8, 8);
        let worst = ref_t
            .iter()
            .zip(&t)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-9, "{name}: max |ΔT| = {worst}");
    }

    // The independent hand-written implementation (the "Fortran code").
    let mut baseline = BaselineSolver::new(&cfg);
    baseline.run(cfg.n_steps);
    let worst = ref_t
        .iter()
        .zip(baseline.temperature())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 1e-8, "baseline: max |ΔT| = {worst}");
}

/// `TemperatureStrategy::DividedNewton` under band partitioning: the same
/// temperatures as the paper-faithful redundant mode (each rank writes its
/// solved slice into the sharing fold), with the per-rank Newton work
/// divided by the rank count.
#[test]
fn divided_newton_agrees_with_redundant_and_divides_the_solves() {
    use pbte_bte::temperature::TemperatureStrategy;

    let ranks = 4;
    let cfg = BteConfig::small(8, 8, 6, 40);
    let vars = hotspot_2d(&cfg).vars;
    let target = || ExecTarget::DistBands {
        ranks,
        index: "b".into(),
    };

    let mut redundant = hotspot_2d(&cfg).solver(target()).unwrap();
    let red_report = redundant.solve().unwrap();
    let red_t = temperature_grid(redundant.fields(), vars.t, 8, 8);

    let divided_cfg = cfg
        .clone()
        .with_temperature_strategy(TemperatureStrategy::DividedNewton);
    let mut divided = hotspot_2d(&divided_cfg).solver(target()).unwrap();
    let div_report = divided.solve().unwrap();
    let div_t = temperature_grid(divided.fields(), vars.t, 8, 8);

    for (a, b) in red_t.iter().zip(&div_t) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "strategies must agree: {a} vs {b}"
        );
    }

    // Work accounting (summed across ranks by the report reduction):
    // redundant solves every cell on every rank; divided solves each cell
    // exactly once.
    let n_cells = 8 * 8;
    let steps = cfg.n_steps as u64;
    assert_eq!(
        red_report.work.temperature_solves,
        ranks as u64 * n_cells * steps
    );
    assert_eq!(div_report.work.temperature_solves, n_cells * steps);
    assert!(
        div_report.work.newton_iters > 0
            && div_report.work.newton_iters < red_report.work.newton_iters,
        "divided Newton does a fraction of the iterations: {} vs {}",
        div_report.work.newton_iters,
        red_report.work.newton_iters
    );
    // The shared T field costs a second fold worth of bytes.
    assert!(div_report.comm.bytes > red_report.comm.bytes);
}

/// The threaded temperature update (CpuParallel hands callbacks its rayon
/// pool) writes disjoint regions with per-item arithmetic identical to
/// the serial loops, so the result is bit-identical at any thread count.
#[test]
fn threaded_temperature_update_is_bit_identical_to_serial() {
    let cfg = BteConfig::small(8, 8, 6, 20);
    let make = || hotspot_2d(&cfg);

    let mut reference = make().solver(ExecTarget::CpuSeq).unwrap();
    let seq_report = reference.solve().unwrap();

    // The host may have a single core; force a 4-thread pool so the
    // parallel code paths genuinely run chunked.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let mut threaded = make().solver(ExecTarget::CpuParallel).unwrap();
    let par_report = pool.install(|| threaded.solve().unwrap());

    for v in 0..reference.fields().n_vars() {
        let worst = reference
            .fields()
            .slice(v)
            .iter()
            .zip(threaded.fields().slice(v))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert_eq!(worst, 0.0, "var {v} must be bit-identical");
    }
    // Same exact work on both targets, including the callback counters.
    assert_eq!(seq_report.work, par_report.work);
    assert_eq!(
        seq_report.work.temperature_solves,
        8 * 8 * cfg.n_steps as u64
    );
    assert!(seq_report.work.newton_iters > 0);
}

/// The generated artifacts the DSL promises: paper-style expanded form,
/// term groups, loop-nest source per target, transfer schedule.
#[test]
fn codegen_artifacts_are_complete() {
    let cfg = BteConfig::small(6, 8, 4, 2);
    let solver = hotspot_2d(&cfg).solver(ExecTarget::CpuSeq).unwrap();
    let src = solver.generated_source();
    for needle in [
        "TIMEDERIVATIVE",
        "SURFACE",
        "# LHS volume:",
        "# RHS volume:",
        "# RHS surface:",
        "for step = 1:Nsteps",
        "for cell = 1:Ncells",
        "for face = 1:Nfaces",
        "temperature_update",
    ] {
        assert!(src.contains(needle), "CPU source lacks `{needle}`:\n{src}");
    }

    let gpu = hotspot_2d(&cfg)
        .solver(ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        })
        .unwrap();
    let gpu_src = gpu.generated_source();
    for needle in [
        "__global__ intensity_update",
        "transfer: H2D",
        "transfer: D2H",
        // Both hot-spot walls are lowered: the kernel reads them from the
        // plan's tables and the host does no boundary work.
        "boundary faces read the lowered wall tables",
        "transfer: H2D ghosts",
    ] {
        assert!(gpu_src.contains(needle), "GPU source lacks `{needle}`");
    }
    let gone = "compute boundary ghost values";
    assert!(!gpu_src.contains(gone) && !src.contains(gone), "`{gone}`");
    let schedule = gpu.compiled.transfer_schedule();
    assert!(schedule.each_step_d2h().contains(&"I"));
    assert!(!schedule.each_step_h2d().contains(&"I"), "device-resident");
    assert!(schedule.once().contains(&"vg") && schedule.once().contains(&"ghosts"));
}

/// Gmsh round-trip feeds the solver: write the grid, read it back, solve.
#[test]
fn solver_runs_on_an_imported_gmsh_mesh() {
    use pbte_mesh::gmsh::{parse_msh, write_msh};
    let original = pbte_mesh::grid::UniformGrid::new_2d(6, 6, 525e-6, 525e-6).build();
    let text = write_msh(&original);
    let imported = parse_msh(&text).expect("reimports");
    assert!(imported.validate().is_empty());

    let cfg = BteConfig::small(6, 8, 4, 5);
    let bte = hotspot_2d(&cfg);
    let vars = bte.vars;
    let mut p = bte.problem;
    p.mesh(imported); // replace the generated mesh with the imported one
    let mut solver = p.build(ExecTarget::CpuSeq).unwrap();
    solver.solve().unwrap();
    let grid = temperature_grid(solver.fields(), vars.t, 6, 6);
    assert!(grid.iter().all(|t| t.is_finite() && *t >= 300.0 - 1e-9));
}

/// Pre-step callbacks run before each intensity step (Finch's
/// `preStepFunction`), post-steps after — and their per-step interleaving
/// is observable through the fields.
#[test]
fn pre_and_post_step_callbacks_interleave_correctly() {
    use pbte_dsl::problem::{BoundaryCondition, Problem};
    use pbte_mesh::grid::UniformGrid;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let pre_count = Arc::new(AtomicUsize::new(0));
    let post_count = Arc::new(AtomicUsize::new(0));

    let mut p = Problem::new("callbacks");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(3, 3, 1.0, 1.0).build());
    p.set_steps(1e-3, 7);
    let u = p.variable("u", &[]);
    let marker = p.variable("marker", &[]);
    p.coefficient_scalar("k", 1.0);
    p.initial(u, |_, _| 1.0);
    p.initial(marker, |_, _| 0.0);
    for region in ["left", "right", "top", "bottom"] {
        p.boundary(u, region, BoundaryCondition::Value(1.0));
    }
    let pre = pre_count.clone();
    p.pre_step("check_marker", &["marker"], &[], move |ctx| {
        // Pre-step sees the marker the *previous* post-step wrote.
        let expected = pre.load(Ordering::SeqCst) as f64;
        assert_eq!(ctx.fields.value(1, 0, 0), expected);
        pre.fetch_add(1, Ordering::SeqCst);
    });
    let post = post_count.clone();
    p.post_step("mark", &[], &["marker"], move |ctx| {
        let n = post.fetch_add(1, Ordering::SeqCst) + 1;
        ctx.fields.set(1, 0, 0, n as f64);
    });
    p.conservation_form(u, "-k*u");
    let mut solver = p.build(pbte_dsl::exec::ExecTarget::CpuSeq).unwrap();
    solver.solve().unwrap();
    assert_eq!(pre_count.load(Ordering::SeqCst), 7);
    assert_eq!(post_count.load(Ordering::SeqCst), 7);
    assert_eq!(solver.fields().value(1, 0, 0), 7.0);
}

/// Verification: the generated first-order upwind discretization converges
/// toward the exact advection–decay solution as the mesh refines (the
/// expanded study lives in `examples/convergence.rs`).
#[test]
fn upwind_discretization_converges_on_an_exact_solution() {
    use pbte_dsl::problem::{BoundaryCondition, Problem};
    use pbte_mesh::grid::UniformGrid;

    let gaussian = |x: f64, y: f64| (-120.0 * ((x - 0.3).powi(2) + (y - 0.3).powi(2))).exp();
    let (bx, by, k, t_end) = (0.7, 0.4, 0.5, 0.25);
    let l1 = |n: usize| -> f64 {
        let dt = 0.2 / n as f64;
        let steps = (t_end / dt).round() as usize;
        let dt = t_end / steps as f64;
        let mut p = Problem::new("convergence");
        p.domain(2);
        p.mesh(UniformGrid::new_2d(n, n, 1.0, 1.0).build());
        p.set_steps(dt, steps);
        let u = p.variable("u", &[]);
        p.coefficient_scalar("k", k);
        p.vector_coefficient("b", vec![bx, by]);
        p.initial(u, move |pt, _| gaussian(pt.x, pt.y));
        for region in ["left", "right", "top", "bottom"] {
            p.boundary(u, region, BoundaryCondition::Value(0.0));
        }
        p.conservation_form(u, "-k*u + surface(upwind(b, u))");
        let mut solver = p.build(pbte_dsl::exec::ExecTarget::CpuSeq).unwrap();
        solver.solve().unwrap();
        let fields = solver.fields();
        let decay = (-k * t_end).exp();
        let mut err = 0.0;
        for j in 0..n {
            for i in 0..n {
                let x = (i as f64 + 0.5) / n as f64;
                let y = (j as f64 + 0.5) / n as f64;
                err += (fields.value(0, j * n + i, 0)
                    - decay * gaussian(x - bx * t_end, y - by * t_end))
                .abs();
            }
        }
        err / (n * n) as f64
    };
    let coarse = l1(24);
    let fine = l1(48);
    let order = (coarse / fine).log2();
    assert!(
        (0.5..1.4).contains(&order),
        "first-order upwind: observed order {order} (errors {coarse} -> {fine})"
    );
}
