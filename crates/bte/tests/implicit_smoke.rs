//! Smoke tests for the implicit integration path.
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::analysis;
use pbte_dsl::exec::{CompiledProblem, ExecTarget};
use pbte_dsl::problem::{Integrator, KrylovConfig};
use pbte_runtime::telemetry::rules;

#[test]
fn implicit_compile_builds_jvp_plan() {
    let mut bp = hotspot_2d(&BteConfig::small(6, 4, 4, 4));
    bp.problem.integrator(Integrator::Implicit { theta: 1.0 });
    let (cp, _fields) = CompiledProblem::compile(bp.problem).expect("compile");
    let jcp = cp.jvp.as_ref().expect("jvp plan present");
    assert!(jcp.jvp.is_none(), "jvp plan must not recurse");
}

#[test]
fn implicit_matches_explicit_at_small_dt() {
    let cfg = BteConfig::small(8, 4, 4, 20);
    let mut exp = hotspot_2d(&cfg).solver(ExecTarget::CpuSeq).unwrap();
    exp.solve().unwrap();
    let t_exp = exp.fields().slice(hotspot_2d(&cfg).vars.t).to_vec();

    let mut bp = hotspot_2d(&cfg);
    bp.problem.integrator(Integrator::Implicit { theta: 1.0 });
    let mut imp = bp.solver(ExecTarget::CpuSeq).unwrap();
    let rep = imp.solve().unwrap();
    let vars = hotspot_2d(&cfg).vars;
    let t_imp = imp.fields().slice(vars.t).to_vec();
    eprintln!(
        "rhs_evals={} jvp_evals={} krylov_iters={}",
        rep.work.rhs_evals, rep.work.jvp_evals, rep.work.krylov_iters
    );
    assert!(rep.work.jvp_evals > 0, "krylov must have run");
    let mut max_rel: f64 = 0.0;
    for (a, b) in t_exp.iter().zip(&t_imp) {
        max_rel = max_rel.max((a - b).abs() / a.abs().max(1e-300));
    }
    eprintln!("max rel T diff explicit vs implicit: {max_rel:.3e}");
    // First-order-in-dt disagreement only; both start at t_ref ~ 300 K.
    assert!(max_rel < 1e-3, "implicit drifted: {max_rel}");
}

/// A Krylov solve held to one iteration stops short of its tolerance:
/// the report of an untraced run carries `solve/krylov-stagnation`, once
/// per linear solve, and the run still goes on to its last step.
#[test]
fn krylov_stagnation_is_a_finding_of_an_untraced_run() {
    let mut bp = hotspot_2d(&BteConfig::small(6, 4, 2, 2));
    bp.problem.integrator(Integrator::Implicit { theta: 1.0 });
    bp.problem.krylov(KrylovConfig {
        max_iters: 1,
        ..KrylovConfig::default()
    });
    let report = bp.solver(ExecTarget::CpuSeq).unwrap().solve().unwrap();
    assert_eq!(report.steps, 2);
    let totals = &report.findings.totals;
    let solves = report.work.krylov_iters;
    assert!(solves > 0, "krylov must have run");
    assert_eq!(
        totals.get(rules::KRYLOV_STAGNATION),
        Some(&solves),
        "one finding per one-iteration solve: {totals:?}"
    );
    assert!(!totals.contains_key(rules::KRYLOV_BREAKDOWN), "{totals:?}");
}

#[test]
fn steady_converges_in_kinetic_regime() {
    // Pseudo-transient continuation accelerates the intensity relaxation;
    // the temperature coupling advances ~one mean free path of smoothing
    // per pseudo-step, so convergence is fast when the domain is a few
    // mean free paths across (sub-micron for silicon).
    let mut cfg = BteConfig::small(12, 8, 4, 400);
    cfg.n_steps = 400;
    cfg.lx = 0.5e-6;
    cfg.ly = 0.5e-6;
    cfg.hot_width = 0.12e-6;
    let mut bp = hotspot_2d(&cfg);
    bp.problem.integrator(Integrator::Steady {
        tol: 1e-3,
        growth: 2.0,
    });
    let mut s = bp.solver(ExecTarget::CpuSeq).unwrap();
    let rep = s.solve().unwrap();
    eprintln!(
        "steady steps={} rhs={} jvp={} krylov={}",
        rep.steps, rep.work.rhs_evals, rep.work.jvp_evals, rep.work.krylov_iters
    );
    assert!(rep.steps < 400, "steady failed to converge early");
}

/// One lane of the crossover: solve `cfg` under `integrator` and return
/// the step-equivalents it spent and the per-cell temperature it ended
/// with. One explicit step is exactly one RHS sweep; an implicit lane
/// counts every RHS and JVP sweep (a JVP sweep touches the same dofs at
/// the same per-dof cost, so the units match).
fn crossover_lane(
    cfg: &BteConfig,
    integrator: Integrator,
    krylov: Option<KrylovConfig>,
) -> (u64, usize, Vec<f64>) {
    let mut bp = hotspot_2d(cfg);
    bp.problem.integrator(integrator);
    if let Some(k) = krylov {
        bp.problem.krylov(k);
    }
    let vars = bp.vars;
    let mut solver = bp.solver(ExecTarget::CpuSeq).expect("valid scenario");
    let report = solver.solve().expect("solve succeeds");
    let step_equivalents = if integrator.is_implicit() {
        report.work.rhs_evals + report.work.jvp_evals
    } else {
        report.steps as u64
    };
    let temperature = solver.fields().slice(vars.t).to_vec();
    (step_equivalents, report.steps, temperature)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The explicit-vs-implicit crossover, an extension of the paper's
/// explicit-only evaluation: on a sub-micron (kinetic-regime) hot spot
/// phonons cross the die ballistically in ~60 ps and the transient
/// settles within nanoseconds, while the explicit step is held at
/// picoseconds by its stability wall. Reaching the horizon explicitly
/// costs thousands of RHS sweeps that resolve nothing but that wall.
/// Three lanes to a 20 ns horizon:
///
/// * explicit — forward Euler at the largest stable step, `min(scenario
///   dt, recommend_dt)` (the scenario default is already the smaller of
///   an advective bound and the scattering relaxation bound `0.9/β_max`;
///   the interval pass recommends its own advective CFL bound);
/// * implicit — backward Euler at `dt = horizon/80`, each step one affine
///   Newton solve by BiCGStab with an inexact linear tolerance of 1e-2
///   (the step's truncation error dwarfs the linear residual);
/// * steady — pseudo-transient SER continuation from the scenario's
///   default step, stopping when the residual has dropped 3e-3-fold
///   (the hot spot has settled long before the horizon).
///
/// Counted on the 8 × 8 die (4 directions, 2 bands): explicit 10 678
/// steps; implicit 503 step-equivalents (160 RHS + 343 JVP), 21.2×
/// fewer, max |ΔT| 0.713 K; steady 608 (120 + 488), 17.6× fewer,
/// max |ΔT| 0.211 K. The counts are exact, so the claim needs no timing.
/// At the full scale (32 × 32, 8 directions, 4 bands, 100 ns horizon)
/// the ratios were 96.5× and 53.7×. A smaller case (12 × 12 at 2 ns)
/// does not show the crossover: implicit is then 9.8 K off and steady
/// only 1.2× cheaper. The |ΔT| tolerances are the full-scale ones.
#[test]
fn implicit_lanes_beat_the_explicit_stability_wall() {
    let horizon = 20e-9;
    let implicit_steps = 80;
    let steady_cap = 400;
    let mut cfg = BteConfig::small(8, 4, 2, 1);
    cfg.lx = 0.5e-6;
    cfg.ly = 0.5e-6;
    cfg.hot_width = 0.12e-6;

    let probe = hotspot_2d(&cfg)
        .solver(ExecTarget::CpuSeq)
        .expect("probe compiles");
    let rec = analysis::recommend_dt(&probe.compiled).expect("advective scenario");
    assert_eq!(rec.policy, "cfl");
    let dt_stable = probe.compiled.problem.dt.min(rec.dt);

    let mut explicit_cfg = cfg.clone();
    explicit_cfg.dt = Some(dt_stable);
    explicit_cfg.n_steps = (horizon / dt_stable).ceil() as usize;
    let mut implicit_cfg = cfg.clone();
    implicit_cfg.dt = Some(horizon / implicit_steps as f64);
    implicit_cfg.n_steps = implicit_steps;
    let mut steady_cfg = cfg.clone();
    steady_cfg.n_steps = steady_cap;

    let (explicit, _, t_explicit) = crossover_lane(&explicit_cfg, Integrator::Explicit, None);
    let (implicit, _, t_implicit) = crossover_lane(
        &implicit_cfg,
        Integrator::Implicit { theta: 1.0 },
        Some(KrylovConfig {
            tol: 1e-2,
            ..KrylovConfig::default()
        }),
    );
    let (steady, steady_steps, t_steady) = crossover_lane(
        &steady_cfg,
        Integrator::Steady {
            tol: 3e-3,
            growth: 2.0,
        },
        None,
    );
    let dt_implicit = max_abs_diff(&t_implicit, &t_explicit);
    let dt_steady = max_abs_diff(&t_steady, &t_explicit);
    eprintln!(
        "explicit {explicit} steps; implicit {implicit} step-equivalents \
         ({:.1}x), max |dT| {dt_implicit:.3} K; steady {steady} in {steady_steps} steps \
         ({:.1}x), max |dT| {dt_steady:.3} K",
        explicit as f64 / implicit as f64,
        explicit as f64 / steady as f64,
    );
    assert!(
        explicit >= 15 * implicit,
        "implicit: {implicit} step-equivalents vs explicit {explicit}"
    );
    assert!(
        explicit >= 15 * steady,
        "steady: {steady} step-equivalents vs explicit {explicit}"
    );
    assert!(dt_implicit <= 2.5, "implicit max |dT| {dt_implicit} K");
    assert!(dt_steady <= 0.75, "steady max |dT| {dt_steady} K");
    assert!(
        steady_steps < steady_cap,
        "steady continuation hit its {steady_cap}-step cap"
    );
}
