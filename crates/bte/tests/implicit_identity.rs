//! Cross-target and cross-tier bit identity of the implicit integrators.
//!
//! Every Krylov scalar in the implicit path is an exact superaccumulator
//! dot (limb transport over the reducer), and every RHS/JVP sweep routes
//! through the same per-dof kernels as the explicit path, so the whole
//! Newton–Krylov trajectory must agree *bit for bit* across all seven
//! execution targets and all kernel tiers at fixed Krylov settings.
//!
//! The cross-target lanes run with the temperature update coupled: its
//! energy sum under band partitioning is a fold in rank order, the
//! sequential band order, so `I` and `T` must agree bit for bit on all
//! seven targets too.

use pbte_bte::scenario::{hotspot_2d, BteConfig, BteProblem};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::Integrator;
use pbte_dsl::{GpuStrategy, KernelTier};
use pbte_gpu::DeviceSpec;

fn seven_targets() -> Vec<ExecTarget> {
    vec![
        ExecTarget::CpuSeq,
        ExecTarget::CpuParallel,
        ExecTarget::DistCells { ranks: 2 },
        ExecTarget::DistCells { ranks: 3 },
        ExecTarget::DistBands {
            ranks: 2,
            index: "b".into(),
        },
        ExecTarget::DistBandsGpu {
            ranks: 2,
            index: "b".into(),
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
        ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
    ]
}

fn coupled(integrator: Integrator) -> BteProblem {
    let mut bp = hotspot_2d(&BteConfig::small(6, 4, 4, 8));
    bp.problem.integrator(integrator);
    bp
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: dof {i} differs: {x} vs {y}"
        );
    }
}

/// Backward Euler and Crank–Nicolson: θ < 1 adds the explicit sweep at
/// `u_n` to every step.
#[test]
fn implicit_bit_identical_across_seven_targets() {
    for theta in [1.0, 0.5] {
        let solve = |target: ExecTarget| {
            let bp = coupled(Integrator::Implicit { theta });
            let vars = bp.vars;
            let mut s = bp.solver(target).unwrap();
            s.solve().unwrap();
            let f = s.fields();
            [f.slice(vars.i).to_vec(), f.slice(vars.t).to_vec()]
        };
        let [i_ref, t_ref] = solve(ExecTarget::CpuSeq);
        for target in seven_targets().into_iter().skip(1) {
            let label = format!("implicit θ={theta} {target:?}");
            let [i, t] = solve(target);
            assert_bits_eq(&i_ref, &i, &format!("{label}: intensity"));
            assert_bits_eq(&t_ref, &t, &format!("{label}: temperature"));
        }
    }
}

#[test]
fn steady_bit_identical_and_stops_identically_across_targets() {
    let solve = |target: ExecTarget| {
        let bp = coupled(Integrator::Steady {
            tol: 1e-6,
            growth: 2.0,
        });
        let vars = bp.vars;
        let mut s = bp.solver(target).unwrap();
        let rep = s.solve().unwrap();
        let f = s.fields();
        (
            f.slice(vars.i).to_vec(),
            f.slice(vars.t).to_vec(),
            rep.steps,
        )
    };
    let (i_ref, t_ref, ref_steps) = solve(ExecTarget::CpuSeq);
    for target in seven_targets().into_iter().skip(1) {
        let label = format!("steady {target:?}");
        let (i, t, steps) = solve(target);
        assert_eq!(
            steps, ref_steps,
            "{label}: SER stopped after {steps} pseudo-steps, CpuSeq after {ref_steps}"
        );
        assert_bits_eq(&i_ref, &i, &format!("{label}: intensity"));
        assert_bits_eq(&t_ref, &t, &format!("{label}: temperature"));
    }
}

#[test]
fn implicit_kernel_tiers_are_bit_identical() {
    let run_tier = |tier: KernelTier| {
        let mut bp = hotspot_2d(&BteConfig::small(6, 4, 4, 8));
        bp.problem.integrator(Integrator::Implicit { theta: 1.0 });
        bp.problem.kernel_tier(tier);
        let vars = bp.vars;
        let mut s = bp.solver(ExecTarget::CpuSeq).unwrap();
        s.solve().unwrap();
        s.fields().slice(vars.i).to_vec()
    };
    let vm = run_tier(KernelTier::Vm);
    let row = run_tier(KernelTier::Row);
    let native = run_tier(KernelTier::Native);
    assert_bits_eq(&vm, &row, "implicit vm vs row");
    assert_bits_eq(&row, &native, "implicit row vs native");
}

#[test]
fn implicit_dist_cells_bit_identical_with_live_coupling() {
    // Cell partitioning keeps the temperature update cell-local, so even
    // with the full nonlinear coupling the distributed implicit solve
    // must reproduce the sequential bits.
    let solve = |target: ExecTarget| {
        let mut bp = hotspot_2d(&BteConfig::small(6, 4, 4, 8));
        bp.problem.integrator(Integrator::Implicit { theta: 1.0 });
        let vars = bp.vars;
        let mut s = bp.solver(target).unwrap();
        s.solve().unwrap();
        let f = s.fields();
        (f.slice(vars.i).to_vec(), f.slice(vars.t).to_vec())
    };
    let (i_seq, t_seq) = solve(ExecTarget::CpuSeq);
    let (i_dist, t_dist) = solve(ExecTarget::DistCells { ranks: 3 });
    assert_bits_eq(&i_seq, &i_dist, "live-coupling cells: intensity");
    assert_bits_eq(&t_seq, &t_dist, "live-coupling cells: temperature");
}

/// The Newton and Krylov residual series of a 2-step backward-Euler run,
/// pinned to the bits the two_prod accumulator and the unfused BiCGStab
/// produced before the integer-product accumulator and the fused passes
/// replaced them. An exact sum has one answer: any drift here means a
/// reduction stopped being exact or a fused pass changed an update.
#[test]
fn residual_series_bits_are_pinned() {
    const KRYLOV: [(usize, u64); 6] = [
        (0, 0x401f2afaed8944b7), // 7.791972838881683e0
        (0, 0x3f4705ee71acabd6), // 7.026113774818387e-4
        (0, 0x3e75b849e8b3013d), // 8.091284990890682e-8
        (1, 0x401c15eebc02392c), // 7.021418511996938e0
        (1, 0x3f44fc4a2f075c92), // 6.40426847946867e-4
        (1, 0x3e74193cf95e6f59), // 7.487306982609499e-8
    ];
    const NEWTON: [(usize, u64); 4] = [
        (0, 0x40fd4964f4c999ef), // 1.1995830976257448e5
        (0, 0x3ecea7b99e9bdb95), // 3.65438176152693e-6
        (1, 0x40fa4e25a2b68428), // 1.077463522248423e5
        (1, 0x3edb47b12df965f2), // 6.504070114121586e-6
    ];
    let mut bp = hotspot_2d(&BteConfig::small(6, 4, 4, 2));
    bp.problem.integrator(Integrator::Implicit { theta: 1.0 });
    let s = bp.solver(ExecTarget::CpuSeq).unwrap();
    assert_series(s, &KRYLOV, &NEWTON);
}

/// The same series under Crank–Nicolson (θ = 1/2), pinned to the bits
/// the step produced while it kept the Newton RHS in a vector of its own:
/// the explicit part `dt(1−θ)·f(u_n)` is swept once per step and read by
/// every Newton residual of it.
#[test]
fn crank_nicolson_residual_series_bits_are_pinned() {
    const KRYLOV: [(usize, u64); 6] = [
        (0, 0x40115cc0885d964c), // 4.340578203880408e0
        (0, 0x3f2b90dc75195204), // 2.1031085138879812e-4
        (0, 0x3e4b0bf433d911e1), // 1.2594598804092335e-8
        (1, 0x400ec59382bd850e), // 3.8464727605902516e0
        (1, 0x3f28b7aaa3c68261), // 1.8857915882810036e-4
        (1, 0x3e48a7ef26f1655b), // 1.1481341403800438e-8
    ];
    const NEWTON: [(usize, u64); 4] = [
        (0, 0x40fd4964f4c999ef), // 1.1995830976257448e5
        (0, 0x3ece2f24c36e2610), // 3.5982316392610037e-6
        (1, 0x40f9e27833ee7705), // 1.0602351267858974e5
        (1, 0x3ed56b40de5d8351), // 5.106677667261081e-6
    ];
    let mut bp = hotspot_2d(&BteConfig::small(6, 4, 4, 2));
    bp.problem.integrator(Integrator::Implicit { theta: 0.5 });
    let s = bp.solver(ExecTarget::CpuSeq).unwrap();
    assert_series(s, &KRYLOV, &NEWTON);
}

/// Solve on the recorder and hold the two residual series to their pins.
fn assert_series(mut s: pbte_dsl::Solver, krylov: &[(usize, u64)], newton: &[(usize, u64)]) {
    let mut rec = pbte_runtime::telemetry::Recorder::buffered();
    let report = s.solve_traced(&mut rec).unwrap();
    assert_eq!((report.steps, report.work.krylov_iters), (2, 4));
    let series = |name: &str| -> Vec<(usize, u64)> {
        rec.samples()
            .iter()
            .filter(|smp| smp.name == name)
            .map(|smp| (smp.step, smp.value.to_bits()))
            .collect()
    };
    assert_eq!(series("krylov_residual"), krylov, "krylov_residual");
    assert_eq!(series("newton_residual"), newton, "newton_residual");
}

/// The same series on the committed 3-D die (`examples/scenarios/
/// die3d.pbte`: an isothermal wall, a hot-spot wall and four symmetry
/// walls around a MEDIT mesh), pinned to the bits it produced while every
/// one of those walls was a closure called per (face, flat) of every RHS
/// and JVP sweep. Lowering them into the plan's image and gather columns —
/// the JVP plan reads a zero image and the same gather — may not move a
/// bit of either residual.
#[test]
fn die3d_residual_series_bits_are_pinned() {
    const KRYLOV: [(usize, u64); 6] = [
        (0, 0x4075bc52cdeef0a2), // 3.477702159246056e2
        (0, 0x3fba0e352c4b7c51), // 1.0177929240625018e-1
        (0, 0x3f03529b808c73d2), // 3.685509734039468e-5
        (1, 0x4072d969bb781f18), // 3.015883135502095e2
        (1, 0x3fb725ec7d45576c), // 9.042242105837567e-2
        (1, 0x3f01e8d79b6a125d), // 3.4159736448412184e-5
    ];
    const NEWTON: [(usize, u64); 4] = [
        (0, 0x41376d9e556e3f6e), // 1.5353903337134975e6
        (0, 0x3f0af6538e233acf), // 5.1426339057072266e-5
        (1, 0x413457b0a1950f18), // 1.3331686311807092e6
        (1, 0x3f0bdcc7b5bd8ea9), // 5.3143353141019596e-5
    ];
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/die3d.pbte");
    let spec = pbte_bte::pbte::ScenarioSpec::from_file(&path).unwrap();
    let s = spec.build().unwrap().solver(ExecTarget::CpuSeq).unwrap();
    assert!(s.compiled.walls.lowered(), "{}", s.compiled.walls.label());
    let jvp = s.compiled.jvp.as_deref().expect("an implicit scenario");
    assert!(jvp.walls.lowered() && jvp.walls.gather_faces == s.compiled.walls.gather_faces);
    assert_series(s, &KRYLOV, &NEWTON);
}

/// The integrator's buffers a solve holds are the ones `memory_report`
/// prices before it allocates them: on the backward-Euler die, the nine
/// unknown-sized vectors of the θ-step (no `f_n`), and under
/// Crank–Nicolson ten.
#[test]
fn die3d_workspace_is_what_the_memory_report_prices() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/die3d.pbte");
    let spec = pbte_bte::pbte::ScenarioSpec::from_file(&path).unwrap();
    for (theta, vectors) in [(None, 9), (Some(0.5), 10)] {
        let mut bp = spec.build().unwrap();
        if let Some(theta) = theta {
            bp.problem.integrator(Integrator::Implicit { theta });
        }
        let unknown = bp.vars.i;
        let mut s = bp.solver(ExecTarget::CpuSeq).unwrap();
        let mem = s.compiled.memory_report();
        let unknown_bytes = s.fields().slice(unknown).len() * 8;
        assert_eq!(mem.workspace_bytes, vectors * unknown_bytes, "θ {theta:?}");
        let report = s.solve().unwrap();
        assert_eq!(report.workspace_bytes, mem.workspace_bytes, "θ {theta:?}");
    }
}
