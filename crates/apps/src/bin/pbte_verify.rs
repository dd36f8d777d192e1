//! `pbte-verify` — run the static plan verifier (`pbte_dsl::analysis`)
//! over the paper's scenarios on every execution target and kernel tier.
//!
//! ```text
//! pbte-verify [--json] [--validate] [--intervals] [--cost] [--units] [n=12] [steps=4] [ranks=2]
//! ```
//!
//! For each scenario (the hot-spot domain of Figs 1–4 and the elongated
//! domain of Fig 10), each temperature strategy (redundant / divided
//! Newton), each target (seq, par, `cells:<r>`, `bands:<r>`, gpu,
//! bands+gpu), each kernel tier (vm, row, native)
//! and each time integrator (explicit, implicit θ=1, steady), the
//! problem is compiled and `verify_plan` checks:
//!
//! 1. bytecode well-formedness and derived read sets vs the declared
//!    ones, the CSR face geometry (`geometry/csr-invariant`), the
//!    stencil run table re-derived from it (`geometry/run-mismatch`), and
//!    the lowered wall tables re-derived from the declared boundary forms
//!    and spot-checked against the closures they replace
//!    (`boundary/form-mismatch`; `--validate` makes that comparison
//!    exhaustive, every (face, flat) of the plan and its JVP plan);
//! 2. pairwise-disjoint write regions for the parallel split of the target
//!    (under an implicit integrator, additionally that the per-rank Krylov
//!    work-vector scopes tile the dof grid exactly);
//! 3. the transfer schedule, synthesized from the step's stage records,
//!    against the access sets those records fold to (GPU targets only —
//!    no stale reads, no redundant transfers).
//!
//! The sweep is one list of scenarios, each a `ScenarioSpec`: the
//! built-in lanes (one spec per scenario × strategy × integrator), then
//! the textual scenario library (`examples/scenarios/*.pbte`, tagged
//! `pbte:<name>`; every committed file — including the unstructured-Gmsh
//! and 3-D MEDIT die scenarios — with the strategy and integrator it
//! declares). Every spec is compiled for every target and kernel tier.
//!
//! Four opt-in passes extend the proof to the lowering pipeline itself:
//!
//! * `--validate` — translation validation: re-extract a canonical
//!   symbolic expression from the IR and from all compiled kernel tiers
//!   and prove each equal to the DSL's expanded form; implicit plans also
//!   prove their attached JVP plan against a fresh symbolic linearization
//!   and re-run the chain over it (`translation/jvp-mismatch`);
//! * `--intervals` — numeric-safety abstract interpretation over the
//!   interval domain (no NaN/Inf, no division by zero, function domains)
//!   plus the CFL-style step-bound check;
//! * `--units` — dimensional analysis over the SI dimension domain:
//!   every symbol in the discretized equation is seeded from its declared
//!   unit (`declare_unit` / a `.pbte` `[units]` section) and the volume
//!   and flux terms are proven to carry the d(unknown)/dt balance
//!   dimension (`units/mismatch`, `units/transcendental-arg`,
//!   `units/undeclared-symbol`);
//! * `--cost` — static cost model (bytes/step, kernel FLOPs and loads
//!   per dof, Krylov iteration cost), with a runtime drift check on the
//!   row-tier plans: each is solved and the model's predictions compared
//!   against the recorded telemetry counters (`cost/model-drift` above
//!   15% relative error).
//!
//! Exit status is the one table in `DESIGN.md` (`pbte_apps::status`),
//! failing on warnings too: 1 if any diagnostic is produced, so CI can
//! gate on a clean plan; 2 if an argument is refused or a plan fails to
//! build or solve. `--json` emits an object
//! with the combined diagnostic list (each entry tagged with its
//! scenario/strategy/target/tier) and per-plan pass timings in
//! milliseconds.

use pbte_apps::{arg_usize, check_args, exit, out, parse_target, Outcome};
use pbte_bte::pbte::ScenarioSpec;
use pbte_bte::scenario::{BteConfig, BteProblem};
use pbte_bte::temperature::TemperatureStrategy;
use pbte_dsl::analysis;
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{Integrator, KernelTier};
use pbte_dsl::{Diagnostic, Severity};
use std::path::Path;
use std::time::Instant;

/// The six target shapes, tagged by their canonical `target=` spelling.
fn targets(ranks: usize) -> Vec<(String, ExecTarget)> {
    ["seq", "par", "cells", "bands", "gpu:async", "bands-gpu"]
        .into_iter()
        .map(|spec| {
            let target = parse_target(spec, ranks).expect("a target spelling");
            (target.label(), target)
        })
        .collect()
}

/// Timing of the passes run on one plan, milliseconds.
struct PlanTiming {
    tags: [String; 5],
    verify_ms: f64,
    validate_ms: Option<f64>,
    intervals_ms: Option<f64>,
    units_ms: Option<f64>,
    cost_ms: Option<f64>,
}

/// Which opt-in passes the sweep runs.
struct Flags {
    json: bool,
    validate: bool,
    intervals: bool,
    units: bool,
    cost: bool,
}

/// Accumulated sweep state, shared by the built-in and `.pbte` lanes.
#[derive(Default)]
struct Sweep {
    all: Vec<([String; 5], pbte_dsl::Diagnostic)>,
    timings: Vec<PlanTiming>,
    plans: usize,
    // --cost summary: drift checks run (row tier only) and the worst
    // relative error observed between model and telemetry.
    cost_checks: usize,
    cost_max_err: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "null".into(),
    }
}

/// The keys and flags `pbte-verify` takes; any other argument is refused.
const KNOWN: &str = "n= steps= ranks= --json --validate --intervals --units --cost";

/// Build `bte` at `tier` for `target` and run every requested pass on the
/// plan; a refusal is located at the plan's `tags`.
fn run_plan(
    bte: Result<BteProblem, Diagnostic>,
    tier: KernelTier,
    target: &ExecTarget,
    tags: [String; 5],
    flags: &Flags,
    sw: &mut Sweep,
) -> Result<(), Diagnostic> {
    let at = |d| Diagnostic {
        location: tags.join("/"),
        ..d
    };
    let mut bte = bte.map_err(at)?;
    bte.problem.kernel_tier(tier);
    let solver = &mut bte.problem.build(target.clone()).map_err(at)?;
    let cp = &solver.compiled;

    let t0 = Instant::now();
    let mut diags = cp.verify_plan(&solver.target);
    let verify_ms = ms(t0);
    let validate_ms = flags.validate.then(|| {
        let t0 = Instant::now();
        analysis::check_translation(cp, &solver.target, &mut diags);
        ms(t0)
    });
    let intervals_ms = flags.intervals.then(|| {
        let t0 = Instant::now();
        analysis::check_intervals(cp, &mut diags);
        ms(t0)
    });
    let units_ms = flags.units.then(|| {
        let t0 = Instant::now();
        analysis::check_units(cp, &mut diags);
        ms(t0)
    });
    let mut cost_ms = None;
    if flags.cost {
        let t0 = Instant::now();
        // The static model is computed for every plan; the drift check
        // solves the plan and compares against telemetry on the row tier
        // only, which exercises every target/integrator at a fraction of
        // the full sweep's solve cost.
        let _ = analysis::estimate_cost(&solver.compiled, &solver.target);
        if tags[3] == "row" {
            let report = solver.solve().map_err(at)?;
            let (checks, drift) =
                analysis::check_cost_drift(&solver.compiled, &solver.target, &report);
            for c in &checks {
                sw.cost_max_err = sw.cost_max_err.max(c.relative_error());
            }
            sw.cost_checks += checks.len();
            diags.extend(drift);
        }
        cost_ms = Some(ms(t0));
    }
    sw.timings.push(PlanTiming {
        tags: tags.clone(),
        verify_ms,
        validate_ms,
        intervals_ms,
        units_ms,
        cost_ms,
    });

    sw.plans += 1;
    if !flags.json {
        for d in &diags {
            out!("{}: {}", tags.join("/"), d.render());
        }
    }
    sw.all.extend(diags.into_iter().map(|d| (tags.clone(), d)));
    Ok(())
}

/// The committed textual scenario library, tagged `pbte:<name>` and
/// sorted for stable ordering.
fn scenario_library() -> Result<Vec<(String, ScenarioSpec)>, Diagnostic> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let unreadable = |e| Diagnostic::input_io(&dir, format!("scenario library unreadable: {e}"));
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(unreadable)? {
        let path = entry.map_err(unreadable)?.path();
        if path.extension().is_some_and(|e| e == "pbte") {
            files.push(path);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let stem = path.file_stem().unwrap().to_string_lossy();
            Ok((format!("pbte:{stem}"), ScenarioSpec::from_file(&path)?))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit(run(&args).unwrap_or_else(Outcome::from))
}

fn run(args: &[String]) -> Result<Outcome, Diagnostic> {
    check_args(args, KNOWN)?;
    let on = |flag: &str| args.iter().any(|a| a == flag);
    let flags = Flags {
        json: on("--json"),
        validate: on("--validate"),
        intervals: on("--intervals"),
        units: on("--units"),
        cost: on("--cost"),
    };
    let n = arg_usize(args, "n", 12);
    let steps = arg_usize(args, "steps", 4);
    let ranks = arg_usize(args, "ranks", 2);

    let integrators = [
        Integrator::Explicit,
        Integrator::Implicit { theta: 1.0 },
        Integrator::Steady {
            tol: 1e-6,
            growth: 2.0,
        },
    ];
    type Scenario = fn(&BteConfig) -> ScenarioSpec;
    let builtins: [(&str, Scenario); 2] = [
        ("hotspot", ScenarioSpec::hotspot),
        ("elongated", ScenarioSpec::elongated),
    ];
    let mut lanes = Vec::new();
    for (name, scenario) in builtins {
        for strategy in TemperatureStrategy::ALL {
            let cfg = BteConfig::small(n, 8, 4, steps).with_temperature_strategy(strategy);
            for integrator in integrators {
                let spec = ScenarioSpec {
                    integrator,
                    ..scenario(&cfg)
                };
                lanes.push((name.to_string(), spec));
            }
        }
    }
    // The textual library: each file carries its own strategy, integrator,
    // mesh source, and declarations.
    lanes.extend(scenario_library()?);

    let mut sw = Sweep::default();
    for (name, spec) in &lanes {
        for (tname, target) in targets(ranks) {
            for tier in KernelTier::ALL {
                let tags = [
                    name.clone(),
                    spec.strategy.name().to_string(),
                    tname.clone(),
                    tier.name().to_string(),
                    spec.integrator.name().to_string(),
                ];
                run_plan(spec.build(), tier, &target, tags, &flags, &mut sw)?;
            }
        }
    }

    if flags.json {
        let diag_items: Vec<String> = sw
            .all
            .iter()
            .map(|(tags, d)| {
                d.to_json_tagged(&[
                    ("scenario", &tags[0]),
                    ("strategy", &tags[1]),
                    ("target", &tags[2]),
                    ("tier", &tags[3]),
                    ("integrator", &tags[4]),
                ])
            })
            .collect();
        let timing_items: Vec<String> = sw
            .timings
            .iter()
            .map(|t| {
                format!(
                    "{{\"scenario\":\"{}\",\"strategy\":\"{}\",\"target\":\"{}\",\"tier\":\"{}\",\
                     \"integrator\":\"{}\",\
                     \"verify_ms\":{:.3},\"validate_ms\":{},\"intervals_ms\":{},\
                     \"units_ms\":{},\"cost_ms\":{}}}",
                    t.tags[0],
                    t.tags[1],
                    t.tags[2],
                    t.tags[3],
                    t.tags[4],
                    t.verify_ms,
                    json_f64(t.validate_ms),
                    json_f64(t.intervals_ms),
                    json_f64(t.units_ms),
                    json_f64(t.cost_ms)
                )
            })
            .collect();
        let cost_json = if flags.cost {
            format!(
                ",\"cost\":{{\"checks\":{},\"max_rel_err\":{:.4}}}",
                sw.cost_checks, sw.cost_max_err
            )
        } else {
            String::new()
        };
        out!(
            "{{\"diagnostics\":[{}],\"timings\":[{}]{cost_json}}}",
            diag_items.join(","),
            timing_items.join(",")
        );
    } else {
        out!(
            "rules checked on every plan: {}",
            analysis::rules::VERIFY_PLAN.join(", ")
        );
        if sw.all.is_empty() {
            out!("verified {} plans: no diagnostics", sw.plans);
        } else {
            out!(
                "verified {} plans: {} diagnostic(s)",
                sw.plans,
                sw.all.len()
            );
        }
        if flags.cost {
            out!(
                "cost model: {} telemetry drift checks, max relative error {:.1}% \
                 (tolerance {:.0}%)",
                sw.cost_checks,
                sw.cost_max_err * 1e2,
                analysis::DRIFT_TOLERANCE * 1e2
            );
        }
    }
    Ok(Outcome::Finished {
        findings: sw.all.into_iter().map(|(_, d)| d).collect(),
        fails_at: Severity::Warning,
    })
}
