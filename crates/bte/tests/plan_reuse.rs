//! A plan is lowered once per process and content key; everything else is
//! per build.
//!
//! * the key moves with every ingredient lowering reads and with nothing
//!   else (a completeness table from one hot-spot fixture);
//! * a build that reuses a plan produces the bits of the same scenario
//!   built with nothing stored, on every target and tier;
//! * the six-file sweep lowers four plans and tabulates three materials
//!   however often it loops; a custom operator has no key and lowers every
//!   time;
//! * a tampered plan is a private copy: the diagnostic fires on it and the
//!   next build of the same content is clean.
//!
//! The stores are the process's, so every test here holds one lock.

use pbte_bte::boundary::{isothermal, symmetry};
use pbte_bte::material::{forget_tables, tables_built};
use pbte_bte::pbte::parse_pbte;
use pbte_bte::scenario::BteProblem;
use pbte_dsl::bytecode::Unbound;
use pbte_dsl::exec::{forget_plans, plans_lowered};
use pbte_dsl::problem::{Initial, Integrator, PlanKey, Problem};
use pbte_dsl::{CoefficientValue, ExecTarget, GpuStrategy, KernelTier, Solver};
use pbte_mesh::UniformGrid;
use std::sync::{Mutex, MutexGuard, PoisonError};

static STORES: Mutex<()> = Mutex::new(());

fn stores() -> MutexGuard<'static, ()> {
    STORES.lock().unwrap_or_else(PoisonError::into_inner)
}

const DIE: f64 = 525e-6;

/// One file of the benchmark's warm sweep: `bands` frequency bands on an
/// `n × n` die, a hot spot of `peak` K at `x` on the top wall.
fn sweep_file(bands: usize, n: usize, x: f64, peak: f64, integrator: &str) -> String {
    format!(
        "[scenario]\nname = sweep-{bands}-{n}\nstrategy = redundant\nintegrator = {integrator}\n\
         t_ref = 300\nt_hot = 350\n\n\
         [mesh]\nkind = grid\nnx = {n}\nny = {n}\nlx = {DIE:e}\nly = {DIE:e}\n\n\
         [material]\nmodel = silicon\nn_freq_bands = {bands}\nndirs = 8\n\n\
         [time]\ndt = auto\nsteps = 2\n\n\
         [boundary]\nbottom = isothermal 300\ntop = hotspots 300 {peak:.3} 50e-6 @ {x:e},{DIE:e}\n\
         left = symmetry\nright = symmetry\n"
    )
}

/// The six files: three shapes, the second of each pair another hot spot,
/// one of them implicit.
fn sweep() -> Vec<String> {
    let shapes = [(2, 32), (3, 24), (4, 16)];
    let spots = [(0.31, 334.0), (0.62, 347.5)];
    let mut files = Vec::new();
    for (pass, (x, peak)) in spots.into_iter().enumerate() {
        for (k, (bands, n)) in shapes.into_iter().enumerate() {
            let integrator = match (pass, k) {
                (1, 0) => "implicit:1.0",
                _ => "explicit",
            };
            files.push(sweep_file(bands, n, x * DIE, peak, integrator));
        }
    }
    files
}

fn build(text: &str) -> BteProblem {
    parse_pbte(text).unwrap().build().unwrap()
}

fn key(p: &Problem) -> PlanKey {
    p.plan_key().expect("a BTE scenario has a key")
}

#[test]
fn the_key_moves_with_what_lowering_reads_and_nothing_else() {
    let _stores = stores();
    let fixture = sweep_file(2, 8, 0.4 * DIE, 340.0, "explicit");
    let base = build(&fixture);
    let k0 = key(&base.problem);
    assert_eq!(k0, key(&build(&fixture).problem), "the key is of content");

    // One ingredient at a time: each is another plan.
    type Change = (&'static str, Box<dyn Fn(&mut BteProblem)>);
    let one_ulp = |v: f64| f64::from_bits(v.to_bits() + 1);
    let moves: Vec<Change> = vec![
        (
            "a coefficient value, one ulp",
            Box::new(move |b| {
                let vg = b.problem.registry.coefficient_id("vg").unwrap();
                let CoefficientValue::Array(v) = &mut b.problem.registry.coefficients[vg].value
                else {
                    panic!("vg is an array");
                };
                v[1] = one_ulp(v[1]);
            }),
        ),
        (
            "an index length",
            Box::new(|b| b.problem.registry.indices[0].len += 1),
        ),
        (
            "the equation text",
            Box::new(|b| b.problem.equation.as_mut().unwrap().1.push_str(" + 0")),
        ),
        (
            "a boundary region's form",
            Box::new(|b| {
                let mut walls = b.problem.boundary_conditions.iter_mut();
                let bottom = walls.find(|(_, region, _)| region == "bottom");
                bottom.unwrap().2 = symmetry(b.material.clone());
            }),
        ),
        (
            "one mesh coordinate",
            Box::new(move |b| {
                b.problem
                    .mesh(UniformGrid::new_2d(8, 8, DIE, one_ulp(DIE)).build());
            }),
        ),
        (
            "dt",
            Box::new(move |b| b.problem.dt = one_ulp(b.problem.dt)),
        ),
        (
            "an initial expression",
            Box::new(|b| b.problem.initials[0].1 = Initial::Expr("Io[b] + 0".into())),
        ),
    ];
    let mut seen = vec![k0];
    for (what, change) in &moves {
        let mut moved = build(&fixture);
        change(&mut moved);
        let k = key(&moved.problem);
        assert!(!seen.contains(&k), "{what}: the key did not move");
        seen.push(k);
    }

    // What only an instance reads: the same plan.
    let same: Vec<Change> = vec![
        (
            "the hot spot's position and peak",
            Box::new(|b| *b = build(&sweep_file(2, 8, 0.66 * DIE, 331.5, "explicit"))),
        ),
        (
            "a wall's temperature",
            Box::new(|b| {
                let mut walls = b.problem.boundary_conditions.iter_mut();
                let bottom = walls.find(|(_, region, _)| region == "bottom");
                bottom.unwrap().2 = isothermal(b.material.clone(), |_| 312.0);
            }),
        ),
        ("n_steps", Box::new(|b| b.problem.n_steps += 7)),
        ("the name", Box::new(|b| b.problem.name.push('x'))),
        (
            "the tier",
            Box::new(|b| {
                b.problem.kernel_tier(KernelTier::Vm);
            }),
        ),
        (
            "explicit or implicit",
            Box::new(|b| {
                b.problem.integrator(Integrator::Implicit { theta: 1.0 });
            }),
        ),
        (
            "Euler or RK2",
            Box::new(|b| {
                b.problem.integrator(Integrator::Rk2);
            }),
        ),
    ];
    for (what, change) in &same {
        let mut other = build(&fixture);
        change(&mut other);
        assert_eq!(key(&other.problem), k0, "{what}: the key moved");
    }
}

fn targets() -> Vec<ExecTarget> {
    vec![
        ExecTarget::CpuSeq,
        ExecTarget::CpuParallel,
        ExecTarget::DistBands {
            ranks: 2,
            index: "b".into(),
        },
        ExecTarget::GpuHybrid {
            spec: pbte_gpu::DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
    ]
}

/// Build and solve; the bits of `T` and `I`, and whether the plan (and the
/// JVP twin's, if there is one) was reused.
fn run(text: &str, target: &ExecTarget, tier: KernelTier) -> (Vec<u64>, Vec<u64>, Vec<bool>) {
    let mut bte = build(text);
    bte.problem.kernel_tier(tier);
    let vars = bte.vars;
    let mut solver = bte.solver(target.clone()).unwrap();
    let cp = &solver.compiled;
    let reused = std::iter::once(cp.plan_reused)
        .chain(cp.jvp.as_deref().map(|j| j.plan_reused))
        .collect();
    solver.solve().unwrap();
    let bits = |var: usize| solver.fields().slice(var).iter().map(|v| v.to_bits());
    (bits(vars.t).collect(), bits(vars.i).collect(), reused)
}

#[test]
fn a_reused_plan_gives_the_bits_of_a_first_lowering() {
    let _stores = stores();
    let files = sweep();
    for target in targets() {
        for tier in [KernelTier::Row, KernelTier::Native] {
            let alone: Vec<_> = (files.iter())
                .map(|text| {
                    forget_plans();
                    forget_tables();
                    let (t, i, reused) = run(text, &target, tier);
                    assert!(reused.iter().all(|r| !r), "nothing was stored");
                    (t, i)
                })
                .collect();
            forget_plans();
            forget_tables();
            for (k, (text, alone)) in files.iter().zip(&alone).enumerate() {
                let (t, i, reused) = run(text, &target, tier);
                // The second of each pair reuses the primal plan; the one
                // implicit file is the first to ask for its JVP twin.
                let expected = match k {
                    0..=2 => vec![false],
                    3 => vec![true, false],
                    _ => vec![true],
                };
                assert_eq!(reused, expected, "file {k} on {target:?}/{tier:?}");
                assert!(
                    (&t, &i) == (&alone.0, &alone.1),
                    "file {k} on {target:?}/{tier:?}: a reused plan moved the result"
                );
            }
        }
    }
}

/// Euler and RK2 sweep one plan: after an Euler build, an RK2 build of the
/// same file lowers nothing, and its run has the bits of an RK2 build with
/// nothing stored.
#[test]
fn euler_and_rk2_lower_one_plan() {
    let _stores = stores();
    let text = sweep_file(2, 8, 0.5 * DIE, 340.0, "explicit");
    let rk2 = |reused: bool| {
        let mut bte = build(&text);
        bte.problem.integrator(Integrator::Rk2);
        let vars = bte.vars;
        let mut solver = bte.solver(ExecTarget::CpuSeq).unwrap();
        assert_eq!(solver.compiled.plan_reused, reused);
        solver.solve().unwrap();
        let bits = |var: usize| solver.fields().slice(var).iter().map(|v| v.to_bits());
        (
            bits(vars.t).collect::<Vec<_>>(),
            bits(vars.i).collect::<Vec<_>>(),
        )
    };
    forget_plans();
    let alone = rk2(false);
    forget_plans();
    let before = plans_lowered();
    assert!(
        !build(&text)
            .solver(ExecTarget::CpuSeq)
            .unwrap()
            .compiled
            .plan_reused
    );
    let reused = rk2(true);
    assert_eq!(plans_lowered() - before, 1, "one plan for both schemes");
    assert!(alone == reused, "a reused plan moved the RK2 result");
}

#[test]
fn the_sweep_lowers_four_plans_and_tabulates_three_materials() {
    let _stores = stores();
    forget_plans();
    forget_tables();
    let (plans, tables) = (plans_lowered(), tables_built());
    for _ in 0..2 {
        for text in sweep() {
            let solver = build(&text).solver(ExecTarget::CpuSeq).unwrap();
            assert!(solver.compiled.verify_plan(&solver.target).is_empty());
        }
    }
    // Debug builds lower again to check each reuse; those are not misses.
    assert_eq!(plans_lowered() - plans, 4, "three primal plans and a JVP");
    assert_eq!(tables_built() - tables, 3);

    // An operator is a closure: no key, lowered every time.
    let custom = || {
        let mut bte = build(&sweep_file(2, 8, 0.5 * DIE, 340.0, "explicit"));
        bte.problem.custom_operator("twice", |args, _| {
            Ok(pbte_symbolic::Expr::mul(vec![
                pbte_symbolic::Expr::num(2.0),
                args[0].clone(),
            ]))
        });
        assert!(bte.problem.plan_key().is_none());
        Solver::build(bte.problem, ExecTarget::CpuSeq).unwrap()
    };
    let before = plans_lowered();
    assert!(!custom().compiled.plan_reused);
    assert!(!custom().compiled.plan_reused);
    assert_eq!(plans_lowered() - before, 2);
}

#[test]
fn a_tampered_plan_is_a_private_copy() {
    let _stores = stores();
    let text = sweep_file(2, 8, 0.45 * DIE, 338.0, "explicit");
    let solver = |text: &str| build(text).solver(ExecTarget::CpuSeq).unwrap();
    let clean = solver(&text);
    assert!(clean.compiled.verify_plan(&clean.target).is_empty());

    let mut tampered = solver(&text);
    assert!(tampered.compiled.plan_reused);
    // The volume kernel reads `T` where it read `beta`: a read the
    // pipeline never declared, which the access pass refuses.
    let t_var = tampered.compiled.problem.registry.variable_id("T").unwrap() as u16;
    let beta = tampered
        .compiled
        .problem
        .registry
        .variable_id("beta")
        .unwrap() as u16;
    let stmts = &mut tampered.compiled.plan_mut().volume.stmts;
    let mut operands = stmts.iter_mut().flat_map(|s| s.expr.operands_mut());
    let load = operands.find_map(|o| match o {
        Unbound::Var { var, .. } if *var == beta => Some(var),
        _ => None,
    });
    *load.expect("the volume term reads beta") = t_var;
    let diags = tampered.compiled.verify_plan(&tampered.target);
    assert!(!diags.is_empty(), "the tampered plan verified clean");

    // Neither the earlier instance nor a later build of the same content
    // sees the edit.
    assert!(clean.compiled.verify_plan(&clean.target).is_empty());
    let later = solver(&text);
    assert!(later.compiled.plan_reused);
    assert_eq!(later.compiled.volume.stmts, clean.compiled.volume.stmts);
    assert!(later.compiled.verify_plan(&later.target).is_empty());
}
