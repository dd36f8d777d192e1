//! Error-path coverage: every way a problem description can be wrong must
//! fail at build time with a message naming the culprit — not mid-solve.

use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{BoundaryCondition, Problem};
use pbte_mesh::grid::UniformGrid;

fn valid_base() -> Problem {
    let mut p = Problem::new("errors");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(4, 4, 1.0, 1.0).build());
    p.set_steps(1e-3, 1);
    let u = p.variable("u", &[]);
    p.coefficient_scalar("k", 1.0);
    p.initial(u, |_, _| 0.0);
    for region in ["left", "right", "top", "bottom"] {
        p.boundary(u, region, BoundaryCondition::Value(0.0));
    }
    p
}

fn build_err(p: Problem) -> String {
    p.build(ExecTarget::CpuSeq)
        .err()
        .expect("must fail")
        .to_string()
}

#[test]
fn missing_mesh_is_reported() {
    let mut p = Problem::new("no-mesh");
    let u = p.variable("u", &[]);
    p.conservation_form(u, "-u");
    let err = build_err(p);
    assert!(err.contains("no mesh"), "{err}");
}

#[test]
fn missing_equation_is_reported() {
    let p = valid_base();
    let err = build_err(p);
    assert!(err.contains("conservationForm"), "{err}");
}

#[test]
fn dimension_mismatch_is_reported() {
    let mut p = valid_base();
    p.conservation_form(0, "-k*u");
    p.dim = 3; // contradicts the attached 2-D mesh
    let err = build_err(p);
    assert!(err.contains("2-D") || err.contains("domain"), "{err}");
}

#[test]
fn unparseable_equation_is_reported() {
    let mut p = valid_base();
    p.conservation_form(0, "-k *** u");
    let err = build_err(p);
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn unknown_symbol_is_named() {
    let mut p = valid_base();
    p.conservation_form(0, "-q*u");
    let err = build_err(p);
    assert!(err.contains("unknown symbol `q`"), "{err}");
}

#[test]
fn missing_boundary_region_is_named() {
    let mut p = valid_base();
    p.boundary(0, "nonexistent_wall", BoundaryCondition::Value(0.0));
    p.conservation_form(0, "-k*u");
    let err = build_err(p);
    assert!(err.contains("nonexistent_wall"), "{err}");
}

#[test]
fn uncovered_boundary_face_is_reported() {
    let mut p = Problem::new("partial-bc");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(4, 4, 1.0, 1.0).build());
    let u = p.variable("u", &[]);
    p.coefficient_scalar("k", 1.0);
    // Only one of four walls covered.
    p.boundary(u, "left", BoundaryCondition::Value(0.0));
    p.conservation_form(u, "-k*u");
    let err = build_err(p);
    assert!(err.contains("no boundary condition"), "{err}");
}

#[test]
fn boundary_condition_on_a_non_unknown_is_rejected() {
    let mut p = valid_base();
    let extra = p.variable("w", &[]);
    p.boundary(extra, "left", BoundaryCondition::Value(0.0));
    p.conservation_form(0, "-k*u");
    let err = build_err(p);
    assert!(err.contains("not the unknown"), "{err}");
}

#[test]
fn band_partitioning_an_unknown_index_is_rejected() {
    let mut p = valid_base();
    p.conservation_form(0, "-k*u");
    let err = p
        .build(ExecTarget::DistBands {
            ranks: 2,
            index: "bogus".into(),
        })
        .err()
        .expect("must fail")
        .to_string();
    assert!(err.contains("bogus"), "{err}");
}

#[test]
fn too_many_band_ranks_is_rejected() {
    let mut p = Problem::new("bands");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(4, 4, 1.0, 1.0).build());
    let b = p.index("b", 3);
    let u = p.variable("u", &[b]);
    p.coefficient_scalar("k", 1.0);
    for region in ["left", "right", "top", "bottom"] {
        p.boundary(u, region, BoundaryCondition::Value(0.0));
    }
    p.conservation_form(u, "-k*u[b]");
    let err = p
        .build(ExecTarget::DistBands {
            ranks: 7,
            index: "b".into(),
        })
        .err()
        .expect("must fail")
        .to_string();
    assert!(err.contains("only 3 values"), "{err}");
}

#[test]
fn too_many_cell_ranks_fails_at_solve() {
    let mut p = valid_base();
    p.conservation_form(0, "-k*u");
    let mut solver = p.build(ExecTarget::DistCells { ranks: 17 }).unwrap();
    let err = solver.solve().expect_err("16 cells < 17 ranks").to_string();
    assert!(err.contains("17 ranks"), "{err}");
}

/// The `.pbte`/CLI spelling and the API setter accept and refuse the same
/// edge values: the one rule is `Integrator::check`.
#[test]
fn the_spelling_and_the_setter_share_one_parameter_rule() {
    use pbte_dsl::problem::Integrator;
    let implicit = |theta| Integrator::Implicit { theta };
    let steady = |tol, growth| Integrator::Steady { tol, growth };
    let cases = [
        (implicit(0.0), "implicit:0", false),
        (implicit(1.0), "implicit:1", true),
        (implicit(f64::NAN), "implicit:NaN", false),
        (steady(0.0, 2.0), "steady:0:2", false),
        (steady(1.0, 2.0), "steady:1:2", false),
        (steady(1e-6, 1.0), "steady:1e-6:1", false),
        (steady(1e-6, f64::INFINITY), "steady:1e-6:inf", false),
        (steady(1e-6, 2.0), "steady:1e-6:2", true),
    ];
    for (integrator, spelling, valid) in cases {
        assert_eq!(integrator.check().is_ok(), valid, "{integrator:?}");
        assert_eq!(spelling.parse::<Integrator>().is_ok(), valid, "{spelling}");
        let set = std::panic::catch_unwind(|| {
            Problem::new("t").integrator(integrator);
        });
        assert_eq!(set.is_ok(), valid, "setter on {integrator:?}");
    }
}

#[test]
fn gpu_target_rejects_rk2() {
    use pbte_dsl::problem::Integrator;
    let mut p = valid_base();
    p.integrator(Integrator::Rk2);
    p.conservation_form(0, "-k*u");
    let mut solver = p
        .build(ExecTarget::GpuHybrid {
            spec: pbte_gpu::DeviceSpec::a6000(),
            strategy: pbte_dsl::GpuStrategy::AsyncBoundary,
        })
        .unwrap();
    let err = solver.solve().expect_err("must fail").to_string();
    assert!(err.contains("Euler"), "{err}");
}

#[test]
fn flux_marker_misuse_is_rejected() {
    // NORMAL in a volume term.
    let mut p = valid_base();
    p.conservation_form(0, "-k*u*NORMAL_1");
    let err = build_err(p);
    assert!(err.contains("NORMAL"), "{err}");

    // Nonexistent function.
    let mut p = valid_base();
    p.conservation_form(0, "-mystery(u)");
    let err = build_err(p);
    assert!(err.contains("mystery"), "{err}");
}

#[test]
fn surface_misuse_is_rejected() {
    // surface() inside a function call.
    let mut p = valid_base();
    p.conservation_form(0, "exp(surface(k*u))");
    let err = build_err(p);
    assert!(err.contains("surface"), "{err}");
}

#[test]
fn subscript_errors_are_specific() {
    let mut p = Problem::new("subs");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(2, 2, 1.0, 1.0).build());
    let b = p.index("b", 3);
    let u = p.variable("u", &[b]);
    p.boundary(u, "left", BoundaryCondition::Value(0.0));
    // Too many subscripts.
    p.conservation_form(u, "-u[b,b]");
    let err = build_err(p);
    assert!(err.contains("subscript"), "{err}");
}
