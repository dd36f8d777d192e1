//! The αβγ flux table is probed through the row evaluator: the flux bound
//! once per flat, the five probe points of every orientation class as
//! lanes of one batched evaluation. These tests hold that table, for every
//! committed scenario and its JVP plan, bit for bit to the per-dof probe
//! it replaced — `Program::eval` on a `VmCtx` per (flat, class, point) —
//! which they keep as the oracle.

use pbte_bte::pbte::ScenarioSpec;
use pbte_dsl::bytecode::VmCtx;
use pbte_dsl::exec::{CompiledProblem, ExecTarget, FluxLinearization};
use std::path::Path;

/// The table the per-dof probe gives for `cp`'s flux over `lin`'s classes,
/// as `(alpha, beta, gamma)` bit patterns in `flat * n_classes + class`
/// order: the flux at `(CELL1, CELL2) = (0, 0)`, `(1, 0)` and `(0, 1)`,
/// differenced the way the lowering does.
fn probed_per_dof(cp: &CompiledProblem, lin: &FluxLinearization) -> [Vec<u64>; 3] {
    let no_vars: [&[f64]; 0] = [];
    let mut table: [Vec<u64>; 3] = Default::default();
    for idx in &cp.idx_of_flat {
        for normal in lin.class_normals() {
            let probe = |u1: f64, u2: f64| {
                cp.flux.eval(&VmCtx {
                    vars: &no_vars,
                    n_cells: 1,
                    coefficients: &cp.problem.registry.coefficients,
                    idx,
                    cell: 0,
                    u1,
                    u2,
                    normal,
                    position: pbte_mesh::Point::zero(),
                    dt: cp.problem.dt,
                    time: 0.0,
                })
            };
            let f00 = probe(0.0, 0.0);
            let a = probe(1.0, 0.0) - f00;
            let b = probe(0.0, 1.0) - f00;
            for (column, value) in table.iter_mut().zip([a, b, f00]) {
                column.push(value.to_bits());
            }
        }
    }
    table
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_scenario_table_equals_the_per_dof_probe() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "pbte"))
        .collect();
    files.sort();
    let mut tables = 0;
    for path in &files {
        let spec = ScenarioSpec::from_file(path).unwrap();
        let solver = spec.build().unwrap().solver(ExecTarget::CpuSeq).unwrap();
        let primal = &solver.compiled;
        for (plan, which) in [(Some(primal), "primal"), (primal.jvp.as_deref(), "jvp")] {
            let Some(cp) = plan else { continue };
            let Some(lin) = &cp.flux_lin else { continue };
            let [alpha, beta, gamma] = probed_per_dof(cp, lin);
            let what = format!("{} ({which})", path.display());
            assert_eq!(bits(&lin.alpha), alpha, "{what}: alpha");
            assert_eq!(bits(&lin.beta), beta, "{what}: beta");
            assert_eq!(bits(&lin.gamma), gamma, "{what}: gamma");
            tables += 1;
        }
    }
    // Every committed scenario but the jittered array has a table, and
    // the implicit die's JVP plan one more.
    assert!(
        tables >= files.len(),
        "{tables} tables over {} files",
        files.len()
    );
}
