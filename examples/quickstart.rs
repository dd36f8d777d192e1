//! Quickstart: the paper's §II reaction–advection example, end to end.
//!
//! Shows the whole DSL workflow on the simplest possible problem:
//!
//! `∂u/∂t = −k·u − ∇·(u b)`   (decay + advection with velocity `b`)
//!
//! entered in the DSL's conservation form. Sign convention: `surface(f)`
//! contributes `−(1/V)∮f·dA` to `du/dt` (the divergence-theorem negative
//! is built in), matching the paper's §III-B/appendix BTE listing — its
//! §II listing spells the sign out instead; the two disagree in the paper
//! itself, and this DSL follows the authoritative appendix.
//!
//! Prints the expanded symbolic form, the classified term groups, the
//! generated loop-nest source, and then runs the solver and reports the
//! decaying, advecting pulse.
//!
//! Run: `cargo run --release -p pbte-apps --example quickstart`

use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{BoundaryCondition, Integrator, Problem};
use pbte_mesh::grid::UniformGrid;

fn main() {
    // ---- describe the problem (the paper's §II listing) ----------------
    let mut p = Problem::new("quickstart");
    p.domain(2);
    p.integrator(Integrator::Explicit);
    p.set_steps(2e-3, 200);
    p.mesh(UniformGrid::new_2d(48, 48, 1.0, 1.0).build());

    let u = p.variable("u", &[]);
    p.coefficient_scalar("k", 0.5);
    p.vector_coefficient("b", vec![0.8, 0.3]);

    // A Gaussian pulse that will advect toward the upper right while
    // decaying at rate k.
    p.initial(u, |pt, _| {
        (-60.0 * ((pt.x - 0.3).powi(2) + (pt.y - 0.3).powi(2))).exp()
    });
    for region in ["left", "right", "top", "bottom"] {
        p.boundary(u, region, BoundaryCondition::Value(0.0));
    }

    p.conservation_form(u, "-k*u + surface(upwind(b, u))");

    // ---- inspect what the DSL produced ---------------------------------
    let system = p.analyze().expect("the pipeline accepts the input");
    println!("expanded symbolic form:\n  {}\n", system.expanded_form);
    println!("volume terms  s(u): {}", system.volume_expr);
    println!("flux integrand f·n: {}\n", system.flux_expr);

    let mut solver = p.build(ExecTarget::CpuSeq).expect("valid problem");
    println!("---- generated source ----\n{}", solver.generated_source());

    // ---- run ------------------------------------------------------------
    let report = solver.solve().expect("solve succeeds");
    let fields = solver.fields();

    // Where did the pulse go? Centroid of u.
    let mesh_n = 48;
    let (mut cx, mut cy, mut mass, mut peak) = (0.0, 0.0, 0.0, 0.0f64);
    for j in 0..mesh_n {
        for i in 0..mesh_n {
            let v = fields.value(0, j * mesh_n + i, 0);
            let (x, y) = ((i as f64 + 0.5) / 48.0, (j as f64 + 0.5) / 48.0);
            cx += v * x;
            cy += v * y;
            mass += v;
            peak = peak.max(v);
        }
    }
    cx /= mass;
    cy /= mass;
    println!("---- results after {} steps ----", report.steps);
    println!("pulse centroid: ({cx:.3}, {cy:.3})  — started at (0.300, 0.300)");
    println!(
        "advected along b = (0.8, 0.3): expected ≈ ({:.3}, {:.3})",
        0.3 + 0.8 * 0.4,
        0.3 + 0.3 * 0.4
    );
    println!(
        "peak value: {peak:.4} (decayed from 1.0 by exp(-k·t) ≈ {:.4} plus numerical diffusion)",
        (-0.5f64 * 0.4).exp()
    );
    println!("dof updates performed: {}", report.work.dof_updates);
    assert!(cx > 0.5 && cy > 0.35, "the pulse must advect up-right");
}
