//! `ScenarioSpec::build` declares `I` by the expression `Io[b]` — rows copied from
//! `Io`'s rows — where it used to pass a closure interpolating the
//! equilibrium table per (direction, band, cell). The two are the same
//! function of the same inputs, so the initial state and the trajectory
//! must agree bit for bit: on a uniform `[initial]`, on the 3-D implicit
//! die and on the non-uniform pulse train, on the slowest and the fastest
//! kernel tier.

use pbte_bte::pbte::ScenarioSpec;
use pbte_dsl::problem::{Initial, KernelTier};
use pbte_dsl::ExecTarget;
use std::path::Path;
use std::sync::Arc;

#[test]
fn expression_initial_is_the_closure_initial_bit_for_bit() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    for name in ["hotspot.pbte", "die3d.pbte", "pulse_train.pbte"] {
        for tier in [KernelTier::Vm, KernelTier::Native] {
            let build = || {
                let mut bte = ScenarioSpec::from_file(dir.join(name))
                    .and_then(|spec| spec.build())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                bte.problem.kernel_tier(tier);
                bte.problem.n_steps = bte.problem.n_steps.min(3);
                bte
            };
            let by_expression = build();
            let mut by_closure = build();
            let vars = by_closure.vars;

            // Put back the closure the expression replaced: the band's
            // equilibrium intensity at the initial temperature, which `T`'s
            // own closure initial still computes.
            let initials = &mut by_closure.problem.initials;
            let t0 = match initials.iter().find(|(var, _)| *var == vars.t) {
                Some((_, Initial::Fn(t0))) => t0.clone(),
                _ => panic!("{name}: T has a closure initial"),
            };
            let of_i = initials.iter().position(|(var, _)| *var == vars.i).unwrap();
            assert!(
                matches!(&initials[of_i].1, Initial::Expr(rhs) if rhs == "Io[b]"),
                "{name}: I is declared by expression"
            );
            let material = by_closure.material.clone();
            initials[of_i].1 = Initial::Fn(Arc::new(move |pt, idx| {
                material.table().io(idx[1], t0(pt, &[]))
            }));

            let mut expression = by_expression.solver(ExecTarget::CpuSeq).unwrap();
            let mut closure = by_closure.solver(ExecTarget::CpuSeq).unwrap();
            let same = |a: &pbte_dsl::Solver, b: &pbte_dsl::Solver, when: &str| {
                for (var, what) in [
                    (vars.i, "I"),
                    (vars.io, "Io"),
                    (vars.beta, "beta"),
                    (vars.t, "T"),
                ] {
                    let (a, b) = (a.fields().slice(var), b.fields().slice(var));
                    let differing = a
                        .iter()
                        .zip(b)
                        .position(|(x, y)| x.to_bits() != y.to_bits());
                    assert_eq!(differing, None, "{name} {tier:?}: {when} {what}");
                }
            };
            same(&expression, &closure, "initial");
            if name == "pulse_train.pbte" {
                let i = expression.fields().slice(vars.i);
                assert!(
                    i.iter().any(|v| v.to_bits() != i[0].to_bits()),
                    "non-uniform"
                );
            }
            expression.solve().unwrap();
            closure.solve().unwrap();
            same(&expression, &closure, "final");
        }
    }
}
