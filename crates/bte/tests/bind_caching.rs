//! Regression tests for the kernel-compilation tiers: generic VM → fused
//! row kernel → native produce bit-identical trajectories — on structured
//! grids, where the flux runs from its coefficient table, on a jittered
//! mesh with too many face orientations for one, and for fluxes no table
//! can hold (one reading a cell variable, one reading `t`), where the row
//! and native tiers run the compiled flux. The `Vm` tier lowers nothing,
//! so `vm ≡ row` over 12–40 steps is also the proof that binding the
//! per-flat register programs once per run — they read `t` when they run —
//! changes no bit.

use pbte_bte::pbte::ScenarioSpec;
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::Problem;
use pbte_dsl::{BoundaryCondition, GpuStrategy, KernelTier};
use pbte_gpu::DeviceSpec;
use pbte_mesh::grid::UniformGrid;

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: dof {i} differs: {x} vs {y}"
        );
    }
}

fn run_tier(target: ExecTarget, cfg: &BteConfig, tier: KernelTier) -> Vec<f64> {
    let mut bte = hotspot_2d(cfg);
    bte.problem.kernel_tier(tier);
    let vars = bte.vars;
    let mut solver = bte.solver(target).unwrap();
    solver.solve().unwrap();
    solver.fields().slice(vars.i).to_vec()
}

#[test]
fn kernel_tiers_are_bit_identical_on_cpu() {
    let cfg = BteConfig::small(6, 4, 4, 12);
    let vm = run_tier(ExecTarget::CpuSeq, &cfg, KernelTier::Vm);
    let row = run_tier(ExecTarget::CpuSeq, &cfg, KernelTier::Row);
    assert_bits_eq(&vm, &row, "vm vs row");
}

/// The device evaluates the same per-dof arithmetic as the CPU on every
/// tier (reciprocal-volume multiply, linearized flux), so on the device
/// all tiers agree with each other and with the sequential target bit for
/// bit. A differently associated evaluation
/// (divide by volume, un-hoisted flux) differs by an ulp of the RHS,
/// which the update absorbs on most dofs: 12 off-axis directions and 40
/// steps are what it takes for some dof to round the other way.
#[test]
fn kernel_tiers_are_bit_identical_on_the_gpu() {
    let gpu = || ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    };
    let cfg = BteConfig::small(9, 12, 4, 40);
    let vm = run_tier(gpu(), &cfg, KernelTier::Vm);
    let row = run_tier(gpu(), &cfg, KernelTier::Row);
    assert_bits_eq(&vm, &row, "gpu vm vs row");
    let cpu_row = run_tier(ExecTarget::CpuSeq, &cfg, KernelTier::Row);
    assert_bits_eq(&row, &cpu_row, "gpu row vs cpu row");
}

/// `examples/scenarios/jittered_array.pbte`: 2 400 face orientations, so
/// no flux table. Every tier must resolve to itself and agree
/// with the `vm` tier bit for bit: on `CpuSeq` for all three tiers, and for
/// the row tier on the rayon split (spans that start mid-mesh) and on the
/// device: this file lowers every wall, and a callback wall would only add
/// host ghosts the sweep reads like the lowered ones.
#[test]
fn kernel_tiers_are_bit_identical_on_an_unstructured_mesh() {
    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/jittered_array.pbte"
    );
    let spec = ScenarioSpec::from_file(std::path::Path::new(file)).unwrap();
    assert!(spec.n_steps >= 12);
    let run = |target: ExecTarget, tier: KernelTier| {
        let mut bte = spec.build().unwrap();
        bte.problem.kernel_tier(tier);
        let vars = bte.vars;
        let mut solver = bte.solver(target).unwrap();
        assert!(solver.compiled.flux_lin.is_none(), "mesh must not classify");
        assert_eq!(solver.compiled.resolved_tier(), tier);
        let fields = solver.fields().clone();
        let bench = solver.compiled.intensity_bench(&fields, tier);
        assert_eq!(bench.tier(), tier, "{:?}", bench.native_fallback());
        drop(bench);
        solver.solve().unwrap();
        solver.fields().slice(vars.i).to_vec()
    };
    let gpu = || ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    };

    let vm = run(ExecTarget::CpuSeq, KernelTier::Vm);
    for tier in [KernelTier::Row, KernelTier::Native] {
        let got = run(ExecTarget::CpuSeq, tier);
        assert_bits_eq(&vm, &got, &format!("seq vm vs {tier:?}"));
    }
    let par = run(ExecTarget::CpuParallel, KernelTier::Row);
    assert_bits_eq(&vm, &par, "seq vm vs par row");
    let gpu_row = run(gpu(), KernelTier::Row);
    assert_bits_eq(&vm, &gpu_row, "seq vm vs gpu row");
}

/// A two-direction, two-band transport problem on an 8 × 8 grid over 12
/// steps: `source` is the volume term, `speed` scales the upwind flux.
/// `beta` is a cell variable with a per-cell, per-band profile.
fn transport(source: &str, speed: &str) -> Problem {
    let mut p = Problem::new("tier-transport");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(8, 8, 1.0, 1.0).build());
    p.set_steps(2e-3, 12);
    let d = p.index("d", 2);
    let b = p.index("b", 2);
    let i_var = p.variable("I", &[d, b]);
    let beta = p.variable("beta", &[b]);
    p.coefficient_array("Sx", &[d], vec![0.6, -0.8]);
    p.coefficient_array("Sy", &[d], vec![0.8, 0.6]);
    p.coefficient_array("vg", &[b], vec![1.0, 0.5]);
    p.initial(i_var, |x, idx| {
        1.0 + (3.0 * x.x + 2.0 * x.y + idx[0] as f64 + 0.5 * idx[1] as f64).sin()
    });
    p.initial(beta, |x, idx| 0.75 + 0.5 * x.x * x.y + 0.25 * idx[0] as f64);
    for side in ["left", "right", "top", "bottom"] {
        p.boundary(i_var, side, BoundaryCondition::Value(1.0));
    }
    p.conservation_form(
        i_var,
        &format!("{source} + surface({speed}*vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))"),
    );
    p
}

/// `problem` solved on `target` at `tier`, after checking that the tier
/// asked for is the tier that runs (native does not fall back); the
/// unknown's field.
fn solve_at(mut problem: Problem, target: ExecTarget, tier: KernelTier) -> Vec<f64> {
    problem.kernel_tier(tier);
    let mut solver = problem.build(target).unwrap();
    assert!(solver.compiled.flux_lin.is_none(), "no table for this flux");
    assert_eq!(solver.compiled.resolved_tier(), tier);
    let fields = solver.fields().clone();
    let bench = solver.compiled.intensity_bench(&fields, tier);
    assert_eq!(bench.tier(), tier, "{:?}", bench.native_fallback());
    drop(bench);
    assert_eq!(solver.solve().unwrap().steps, 12);
    solver.fields().slice(0).to_vec()
}

/// A flux reading a cell variable reads the owner cell's value on every
/// tier: the row tier gathers it per face slot, the native kernel loads
/// it at the cell it is summing, the `vm` tier evaluates the flux with
/// the owner as its cell.
#[test]
fn a_flux_reading_a_cell_variable_is_bit_identical_on_every_tier() {
    let problem = || transport("-beta[b]*I[d,b]", "beta[b]");
    let vm = solve_at(problem(), ExecTarget::CpuSeq, KernelTier::Vm);
    for tier in [KernelTier::Row, KernelTier::Native] {
        let got = solve_at(problem(), ExecTarget::CpuSeq, tier);
        assert_bits_eq(&vm, &got, &format!("vm vs {tier:?}"));
    }
}

/// A volume and a flux reading `t` are bound once per run and read the
/// stage time when they run, on every tier and target.
#[test]
fn programs_reading_t_are_bit_identical_on_every_tier_and_target() {
    let problem = || transport("-I[d,b] + t*beta[b]", "(1 + 8*t)");
    let gpu = || ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    };
    let vm = solve_at(problem(), ExecTarget::CpuSeq, KernelTier::Vm);
    for target in [ExecTarget::CpuSeq, ExecTarget::CpuParallel, gpu()] {
        for tier in KernelTier::ALL {
            let label = format!("seq vm vs {} {tier:?}", target.label());
            let got = solve_at(problem(), target.clone(), tier);
            assert_bits_eq(&vm, &got, &label);
        }
    }
}
