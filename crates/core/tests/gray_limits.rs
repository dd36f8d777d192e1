//! Physical validation of the transport core on a gray medium: the two
//! analytic limits every BTE discretization must respect.
//!
//! A slab between two isothermal walls (left intensity 2, right intensity
//! 1, symmetric top/bottom) with isotropic scattering toward the angular
//! mean `φ = (1/4π)Σ w_d I_d`:
//!
//! * **ballistic limit** (β → 0, Casimir regime): each direction carries
//!   its wall's value unchanged; the angular mean is flat at the average
//!   of the wall intensities, with jumps *at* the walls;
//! * **diffusive limit** (β ≫ v/L, Fourier regime): the mean field obeys
//!   a diffusion equation and the steady profile between the walls is a
//!   straight line.
//!
//! These are the analytic anchors standing in for the paper's comparison
//! against experimentally-validated results (DESIGN.md §2).

use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{BoundaryCondition, Problem, StepContext};
use pbte_mesh::grid::UniformGrid;

const N: usize = 12;
const NDIRS: usize = 8;

/// Build the gray slab with scattering rate `beta`.
fn gray_slab(beta: f64, dt: f64, steps: usize) -> Problem {
    let mut p = Problem::new("gray-slab");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(N, N, 1.0, 1.0).build());
    p.set_steps(dt, steps);
    let d = p.index("d", NDIRS);
    let i_var = p.variable("I", &[d]);
    let phi = p.variable("phi", &[]);
    // Unit-speed directions, half-offset angles (match AngularGrid's 2-D
    // construction so x-reflections stay in the set).
    let mut sx = Vec::new();
    let mut sy = Vec::new();
    for k in 0..NDIRS {
        let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.5) / NDIRS as f64;
        sx.push(theta.cos());
        sy.push(theta.sin());
    }
    p.coefficient_array("Sx", &[d], sx);
    p.coefficient_array("Sy", &[d], sy.clone());
    p.coefficient_scalar("beta", beta);

    p.initial(i_var, |_, _| 1.5);
    p.initial(phi, |_, _| 1.5);

    // Left hot / right cold isothermal walls; specular symmetry top and
    // bottom (reflection across ±y maps k -> NDIRS-1-k for half-offset
    // angles).
    p.boundary(i_var, "left", BoundaryCondition::Value(2.0));
    p.boundary(i_var, "right", BoundaryCondition::Value(1.0));
    for region in ["top", "bottom"] {
        p.boundary(
            i_var,
            region,
            BoundaryCondition::callback_reading(&["I"], move |q| {
                let r = NDIRS - 1 - q.idx[0];
                q.fields.value(0, q.owner_cell, r)
            }),
        );
    }

    // Post-step: the angular mean drives the isotropic scattering.
    p.post_step(
        "angular_mean",
        &["I"],
        &["phi"],
        move |ctx: &mut StepContext| {
            let w = 4.0 * std::f64::consts::PI / NDIRS as f64;
            let four_pi = 4.0 * std::f64::consts::PI;
            let n_cells = ctx.fields.n_cells;
            for cell in 0..n_cells {
                let mut acc = 0.0;
                for dd in 0..NDIRS {
                    acc += w * ctx.fields.value(0, cell, dd);
                }
                ctx.fields.set(1, cell, 0, acc / four_pi);
            }
        },
    );

    // Relaxation toward the angular mean + unit-speed upwind transport.
    p.conservation_form(
        i_var,
        "(phi - I[d]) * beta + surface(upwind([Sx[d];Sy[d]], I[d]))",
    );
    p
}

/// φ along the centerline row, averaged over y for noise immunity.
fn mean_profile(solver: &pbte_dsl::exec::Solver) -> Vec<f64> {
    let fields = solver.fields();
    (0..N)
        .map(|i| (0..N).map(|j| fields.value(1, j * N + i, 0)).sum::<f64>() / N as f64)
        .collect()
}

#[test]
fn ballistic_limit_is_flat_at_the_wall_average() {
    // β = 0: pure streaming. After t ≫ L/v every direction has swept the
    // domain with its wall's value; the mean is (2+1)/2 everywhere.
    let mut solver = gray_slab(0.0, 0.02, 600).build(ExecTarget::CpuSeq).unwrap();
    solver.solve().unwrap();
    let profile = mean_profile(&solver);
    for (i, &phi) in profile.iter().enumerate() {
        assert!(
            (phi - 1.5).abs() < 0.08,
            "ballistic mean must be flat at 1.5; x-cell {i}: {phi}"
        );
    }
    // And genuinely flat: the interior spread is small.
    let spread = profile.iter().cloned().fold(f64::MIN, f64::max)
        - profile.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.1, "ballistic spread {spread}");
}

#[test]
fn diffusive_limit_approaches_a_linear_profile() {
    // β = 40 (mfp = 0.025 = L/40): diffusion with D = v²/(2β). Run past
    // the diffusion time L²/D ≈ 80.
    let mut solver = gray_slab(40.0, 0.02, 5000)
        .build(ExecTarget::CpuParallel)
        .unwrap();
    solver.solve().unwrap();
    let profile = mean_profile(&solver);

    // Monotone decreasing left → right.
    for w in profile.windows(2) {
        assert!(
            w[0] >= w[1] - 1e-9,
            "diffusive profile must be monotone: {w:?}"
        );
    }
    // Symmetric about the center: φ(x) + φ(L−x) ≈ 3.
    for i in 0..N / 2 {
        let s = profile[i] + profile[N - 1 - i];
        assert!((s - 3.0).abs() < 0.02, "asymmetry at {i}: {s}");
    }
    // Straight line: the discrete second difference is tiny compared with
    // the first difference (slip at the walls shrinks the slope, so test
    // shape, not absolute endpoint values).
    let slope = (profile[N - 2] - profile[1]) / (N - 3) as f64;
    for i in 1..N - 1 {
        let curvature = profile[i + 1] - 2.0 * profile[i] + profile[i - 1];
        assert!(
            curvature.abs() < 0.08 * slope.abs().max(1e-9),
            "curvature {curvature} at {i} vs slope {slope}"
        );
    }
    // And it actually transports heat: a real gradient exists.
    assert!(profile[1] - profile[N - 2] > 0.2, "{profile:?}");
}

#[test]
fn scattering_strength_interpolates_between_the_limits() {
    // Intermediate β: the profile is steeper than ballistic (flat) but
    // shallower than the diffusive line — transport in the transition
    // regime, where the BTE is the only valid description (the paper's
    // motivation for solving it at all).
    let run = |beta: f64| {
        let mut solver = gray_slab(beta, 0.02, 2500)
            .build(ExecTarget::CpuSeq)
            .unwrap();
        solver.solve().unwrap();
        let p = mean_profile(&solver);
        p[1] - p[N - 2] // interior drop
    };
    let ballistic_drop = run(0.0);
    let transition_drop = run(4.0);
    let diffusive_drop = run(40.0);
    assert!(
        ballistic_drop < transition_drop && transition_drop < diffusive_drop,
        "interior drop must grow with scattering: {ballistic_drop} < {transition_drop} < {diffusive_drop}"
    );
}
