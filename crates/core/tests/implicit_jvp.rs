//! The symbolically derived JVP plan against finite differences, and the
//! `translation/jvp-mismatch` verifier seam.
//!
//! The implicit integrators solve `G(u) = 0` with a matrix-free Krylov
//! method whose only source of Jacobian information is the JVP plan —
//! another symbolic program lowered through the full pipeline. If that
//! linearization is wrong the solver still *converges* on easy problems
//! (just to the wrong Newton trajectory), so correctness is pinned two
//! independent ways:
//!
//! * a **finite-difference check** over seeded random states and
//!   directions (the same splitmix64 harness as `differential_fuzz`):
//!   the RHS is affine in the unknown for upwind conservation forms, so
//!   the central difference `(f(u+εv) − f(u−εv)) / 2ε` equals `J·v` to
//!   rounding — any structural error in ∂f/∂u is a gross mismatch;
//! * the **translation-validation seam**: `check_translation` re-derives
//!   the linearization symbolically and proves the attached plan against
//!   it (plus the plan's own five-tier lowering chain), and a tampered
//!   JVP plan must produce `translation/jvp-mismatch` diagnostics.

use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{Integrator, KernelTier, Problem};
use pbte_dsl::{analysis, BoundaryCondition};
use pbte_mesh::grid::UniformGrid;

const NDIRS: usize = 4;
const NBANDS: usize = 3;
const N: usize = 5;
const SEEDS: u64 = 25;

/// Deterministic splitmix64 generator — the tests must not depend on a
/// rand crate.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0.5, 2.0] — safely away from zero, overflow, and
    /// denormals so every tier stays in ordinary arithmetic.
    fn field_value(&mut self) -> f64 {
        0.5 + 1.5 * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [-1, 1] — perturbation directions need both signs.
    fn direction_value(&mut self) -> f64 {
        2.0 * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 1.0
    }
}

/// The `differential_fuzz` mini-BTE, with a pluggable conservation form
/// so a *structurally different* equation can cross-seed the tamper test.
fn fuzz_problem_with(form: &str) -> Problem {
    let mut p = Problem::new("jvp-fuzz-mini");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(N, N, 1.0, 1.0).build());
    p.set_steps(0.01, 2);
    let d = p.index("d", NDIRS);
    let b = p.index("b", NBANDS);
    let i_var = p.variable("I", &[d, b]);
    let io = p.variable("Io", &[b]);
    let beta = p.variable("beta", &[b]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
    p.coefficient_array("vg", &[b], vec![1.0, 0.7, 0.4]);
    p.coefficient_scalar("kappa", 0.75);
    p.initial(i_var, |_, _| 1.0);
    p.initial(io, |_, _| 1.0);
    p.initial(beta, |_, _| 0.5);
    for side in ["left", "right", "top", "bottom"] {
        p.boundary(i_var, side, BoundaryCondition::Value(1.0));
    }
    p.conservation_form(i_var, form);
    p.integrator(Integrator::Implicit { theta: 1.0 });
    p
}

const FORM: &str = "(Io[b] - I[d,b]) * beta[b] / kappa + \
                    surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))";

fn fuzz_problem() -> Problem {
    fuzz_problem_with(FORM)
}

#[test]
fn jvp_matches_finite_differences_on_25_seeds() {
    let solver = fuzz_problem().build(ExecTarget::CpuSeq).unwrap();
    let cp = &solver.compiled;
    let jcp = cp.jvp.as_deref().expect("implicit plan derives a JVP");
    let registry = &cp.problem.registry;
    let unknown = cp.system.unknown;
    let n_cells = cp.mesh().n_cells();
    let n_dof = cp.n_flat * n_cells;

    let eps = 1e-3;
    let mut rng = Rng(0x5eed_cafe_f00d_0003);
    for seed in 0..SEEDS {
        // Random base state (every variable) and a signed direction.
        let mut base = solver.fields().clone();
        for v in 0..registry.variables.len() {
            for x in base.slice_mut(v).iter_mut() {
                *x = rng.field_value();
            }
        }
        let dir: Vec<f64> = (0..n_dof).map(|_| rng.direction_value()).collect();

        // J·v through the compiled JVP plan: the unknown slot carries the
        // direction, every other variable keeps its base value (the
        // linearization point — beta enters ∂s/∂u).
        let mut jfields = base.clone();
        jfields.slice_mut(unknown).copy_from_slice(&dir);
        let mut jv = vec![0.0f64; n_dof];
        jcp.intensity_bench(&jfields, KernelTier::Vm)
            .run(&jfields, &mut jv);

        // Central difference of the primal RHS along the direction. The
        // RHS is affine in the unknown (linear scattering, upwind flux
        // with state-independent wind, value BCs), so this is exact up
        // to rounding — and it exercises the BC linearization too: the
        // ghost contributions of the primal evaluations cancel, matching
        // the JVP plan's homogeneous BCs.
        let mut fwd = base.clone();
        let mut bwd = base.clone();
        for (i, d) in dir.iter().enumerate() {
            fwd.slice_mut(unknown)[i] += eps * d;
            bwd.slice_mut(unknown)[i] -= eps * d;
        }
        let mut f_fwd = vec![0.0f64; n_dof];
        let mut f_bwd = vec![0.0f64; n_dof];
        cp.intensity_bench(&fwd, KernelTier::Vm)
            .run(&fwd, &mut f_fwd);
        cp.intensity_bench(&bwd, KernelTier::Vm)
            .run(&bwd, &mut f_bwd);

        for i in 0..n_dof {
            let fd = (f_fwd[i] - f_bwd[i]) / (2.0 * eps);
            let err = (jv[i] - fd).abs();
            let tol = 1e-8 * jv[i].abs().max(1.0);
            assert!(
                err <= tol,
                "seed {seed}, dof {i}: JVP {:.17e} vs finite difference {:.17e} (err {err:.3e})",
                jv[i],
                fd
            );
        }
    }
}

#[test]
fn jvp_volume_is_scattering_only() {
    // Spot-check the symbolic derivation's shape: for the mini-BTE the
    // volume linearization is `−beta/kappa · I` — Io must have dropped
    // out (it does not depend on the unknown within a step).
    let solver = fuzz_problem().build(ExecTarget::CpuSeq).unwrap();
    let jcp = solver.compiled.jvp.as_deref().unwrap();
    let rendered = format!("{}", jcp.system.volume_expr);
    assert!(
        !rendered.contains("Io"),
        "JVP volume should not reference Io: {rendered}"
    );
    assert!(
        rendered.contains("beta") && rendered.contains("kappa"),
        "JVP volume should carry the scattering coefficient: {rendered}"
    );
    // And the derived plan reads no more entities than the primal.
    assert!(jcp.system.read_variables.len() <= solver.compiled.system.read_variables.len());
}

#[test]
fn clean_jvp_passes_translation_validation() {
    let solver = fuzz_problem().build(ExecTarget::CpuSeq).unwrap();
    let mut diags = Vec::new();
    analysis::check_translation(&solver.compiled, &solver.target, &mut diags);
    assert!(
        diags.is_empty(),
        "clean implicit plan produced diagnostics: {:?}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>()
    );
}

#[test]
fn tampered_jvp_is_rejected_by_translation_validation() {
    // Cross-seed the JVP seam: attach the JVP plan derived for the same
    // problem with an *edited* equation (scattering multiplied instead of
    // divided by kappa) — the stale-linearization hazard. Every tier of
    // the foreign plan is internally consistent, so only the derivation
    // seam (fresh linearization of *this* primal vs the attached plan)
    // can catch it.
    let mut solver = fuzz_problem().build(ExecTarget::CpuSeq).unwrap();
    let foreign = fuzz_problem_with(
        "(Io[b] - I[d,b]) * beta[b] * kappa + \
         surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    )
    .build(ExecTarget::CpuSeq)
    .unwrap();
    solver.compiled.jvp = foreign.compiled.jvp;

    let mut diags = Vec::new();
    analysis::check_translation(&solver.compiled, &solver.target, &mut diags);
    let jvp_diags: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == analysis::rules::TRANSLATION_JVP)
        .collect();
    assert!(
        !jvp_diags.is_empty(),
        "tampered JVP plan was not flagged; diagnostics: {:?}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>()
    );
    assert!(
        jvp_diags.iter().all(|d| d.location.starts_with("jvp: ")),
        "jvp diagnostics must carry the jvp location prefix"
    );

    // A dropped JVP under an implicit integrator is caught at solve time
    // by the driver, not silently explicit-stepped.
    solver.compiled.jvp = None;
    solver.target = ExecTarget::DistCells { ranks: 2 };
    let mut rec = pbte_runtime::telemetry::Recorder::null();
    let err = solver.solve_traced(&mut rec);
    assert!(err.is_err(), "implicit solve without a JVP plan must fail");
}
