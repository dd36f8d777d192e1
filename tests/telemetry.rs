//! Workspace-level tests of the unified telemetry subsystem:
//!
//! 1. **Cross-target counter parity** — every execution target reports
//!    identical `flux_evals`/`dof_updates` (and, on the bit-identical
//!    targets, `newton_iters`) through the one accounting path, on the
//!    fig-4 hot-spot scenario.
//! 2. **Golden trace schema** — `Recorder::chrome_trace()` emits valid
//!    Chrome-trace-event JSON (the exact format `pbte-trace` writes to
//!    `trace.json`): every complete event carries `ph`/`ts`/`dur`/
//!    `pid`/`tid`, and GPU runs produce spans on a device track.
//! 3. **Health probes** — the temperature update with its probes on
//!    finds a seeded NaN intensity, a negative one and a violated energy
//!    budget, each under its own rule id, and a clean solve with the
//!    probes on finds nothing.
//! 4. **One frame model** — the buffer and the stream of one run carry
//!    the same frames in the same order.

use pbte_bte::pbte::ScenarioSpec;
use pbte_bte::scenario::{hotspot_2d, BteConfig, BteProblem};
use pbte_bte::temperature::{TemperatureStrategy, TemperatureUpdate};
use pbte_dsl::analysis::{sweep_price, Scope};
use pbte_dsl::dataflow::{Kernel, Place, Plan, Stage};
use pbte_dsl::exec::{phases, CompiledProblem, CostExpectation, LocalLinks, Recorder, TraceConfig};
use pbte_dsl::problem::{Integrator, StepContext};
use pbte_dsl::{BoundaryCondition, ExecTarget, GpuStrategy, KernelTier, Severity};
use pbte_dsl::{SolveReport, Solver, WorkCounters};
use pbte_gpu::DeviceSpec;
use pbte_runtime::telemetry::stream::{StreamConfig, StreamReader, StreamSink, StreamWriter};
use pbte_runtime::telemetry::{rules, Span, SpanKind, SPAN_KINDS};
use serde::Value;
use std::path::Path;

fn config() -> BteConfig {
    BteConfig::small(10, 8, 4, 3)
}

fn run(target: ExecTarget, rec: &mut Recorder) -> SolveReport {
    let bte = hotspot_2d(&config());
    let mut solver = Solver::build(bte.problem, target).expect("builds");
    solver.solve_traced(rec).expect("solves")
}

fn run_custom(
    target: ExecTarget,
    rec: &mut Recorder,
    tweak: impl FnOnce(&mut BteProblem),
) -> SolveReport {
    let mut bte = hotspot_2d(&config());
    tweak(&mut bte);
    let mut solver = Solver::build(bte.problem, target).expect("builds");
    solver.solve_traced(rec).expect("solves")
}

fn work_of(target: ExecTarget) -> WorkCounters {
    run(target, &mut Recorder::null()).work
}

#[test]
fn counter_parity_across_targets() {
    let ranks = 2;
    let seq = work_of(ExecTarget::CpuSeq);
    assert!(seq.flux_evals > 0 && seq.newton_iters > 0);

    // Bit-identical targets: all counters match exactly.
    for (name, target) in [
        ("par", ExecTarget::CpuParallel),
        ("cells", ExecTarget::DistCells { ranks }),
        (
            "gpu:async",
            ExecTarget::GpuHybrid {
                spec: DeviceSpec::a6000(),
                strategy: GpuStrategy::AsyncBoundary,
            },
        ),
    ] {
        let w = work_of(target);
        assert_eq!(w.flux_evals, seq.flux_evals, "{name}: flux_evals");
        assert_eq!(w.dof_updates, seq.dof_updates, "{name}: dof_updates");
        assert_eq!(w.newton_iters, seq.newton_iters, "{name}: newton_iters");
        assert_eq!(
            w.temperature_solves, seq.temperature_solves,
            "{name}: temperature_solves"
        );
    }

    // Band-parallel: per-rank counters sum back to the sequential totals;
    // under RedundantNewton every rank solves all cells.
    let bands = work_of(ExecTarget::DistBands {
        ranks,
        index: "b".into(),
    });
    assert_eq!(bands.flux_evals, seq.flux_evals, "bands: flux_evals");
    assert_eq!(bands.dof_updates, seq.dof_updates, "bands: dof_updates");
    assert_eq!(bands.ghost_evals, seq.ghost_evals, "bands: ghost_evals");
    assert_eq!(
        bands.temperature_solves,
        ranks as u64 * seq.temperature_solves,
        "bands: redundant Newton solves all cells on every rank"
    );

    // DividedNewton restores the sequential solve count exactly.
    let bte = hotspot_2d(&config().with_temperature_strategy(TemperatureStrategy::DividedNewton));
    let mut solver = Solver::build(
        bte.problem,
        ExecTarget::DistBands {
            ranks,
            index: "b".into(),
        },
    )
    .expect("builds");
    let divided = solver.solve_traced(&mut Recorder::null()).expect("solves");
    assert_eq!(
        divided.work.temperature_solves, seq.temperature_solves,
        "bands+divided: each cell solved on exactly one rank"
    );
}

#[test]
fn chrome_trace_matches_golden_schema() {
    let mut rec = Recorder::buffered();
    run(
        ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
        &mut rec,
    );
    assert!(!rec.spans().is_empty(), "buffered sink retained spans");

    let json = rec.chrome_trace();
    let root: Value = serde_json::from_str(&json).expect("trace.json is valid JSON");
    let Some(Value::Arr(events)) = root.get("traceEvents") else {
        panic!("top-level traceEvents array missing");
    };
    assert!(!events.is_empty());

    let mut complete = 0usize;
    let mut device_spans = 0usize;
    let mut host_spans = 0usize;
    for ev in events {
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) => s.as_str(),
            _ => panic!("event without string ph: {ev:?}"),
        };
        // Every event addresses a process/thread timeline.
        assert!(ev.get("pid").and_then(Value::as_u64).is_some(), "pid");
        assert!(ev.get("tid").and_then(Value::as_u64).is_some(), "tid");
        if ph == "X" {
            complete += 1;
            assert!(ev.get("ts").and_then(Value::as_f64).is_some(), "ts");
            let dur = ev.get("dur").and_then(Value::as_f64).expect("dur");
            assert!(dur >= 0.0, "non-negative duration");
            assert!(
                matches!(ev.get("name"), Some(Value::Str(_))),
                "span has a name"
            );
            assert!(
                matches!(ev.get("cat"), Some(Value::Str(_))),
                "span has a category"
            );
            match ev.get("tid").and_then(Value::as_u64).unwrap() {
                0 => host_spans += 1,
                _ => device_spans += 1,
            }
        }
    }
    assert!(complete > 0, "at least one complete event");
    assert!(host_spans > 0, "host-track spans present");
    assert!(
        device_spans > 0,
        "GPU run draws kernel/transfer spans on a device track"
    );
}

#[test]
fn summary_jsonl_lines_parse_and_total_matches_report() {
    let mut rec = Recorder::buffered();
    let report = run(ExecTarget::CpuSeq, &mut rec);
    let jsonl = rec.summary_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() > config().n_steps, "steps + total");
    let mut total_flux = None;
    for line in &lines {
        let v: Value = serde_json::from_str(line).expect("JSONL line parses");
        if v.get("frame") == Some(&Value::Str("total".into())) {
            total_flux = v
                .get("work")
                .and_then(|w| w.get("flux_evals"))
                .and_then(Value::as_u64);
        }
    }
    assert_eq!(total_flux, Some(report.work.flux_evals));
}

/// Build the hot-spot problem and a standalone [`StepContext`] over its
/// compiled fields, run the temperature update (Newton tolerance `tol`,
/// probes on) once under the null recorder, and return the diagnostics of
/// what it kept.
fn probe_diagnostics(
    tol: f64,
    poison: impl FnOnce(&mut pbte_dsl::Fields, &BteProblem),
) -> Vec<pbte_dsl::Diagnostic> {
    let bte = hotspot_2d(&config());
    let update = TemperatureUpdate {
        tol,
        probes: true,
        ..TemperatureUpdate::new(bte.material.clone(), bte.vars)
    };
    let bte2 = hotspot_2d(&config());
    let (cp, mut fields) = CompiledProblem::compile(bte2.problem).expect("compiles");
    poison(&mut fields, &bte);
    let mut reducer = LocalLinks;
    let mut rec = Recorder::null();
    let mut ctx = StepContext {
        fields: &mut fields,
        mesh: cp.mesh(),
        time: 0.0,
        step: 0,
        owned_index_range: None,
        owned_cells: None,
        reducer: &mut reducer,
        threads: 1,
        rec: &mut rec,
    };
    update.run(&mut ctx);
    pbte_dsl::exec::telemetry_diagnostics(&rec)
}

#[test]
fn clean_state_yields_no_diagnostics() {
    let diags = probe_diagnostics(1e-9, |_, _| {});
    assert!(diags.is_empty(), "clean state flagged: {diags:?}");
}

/// A NaN intensity is the NaN rule's, and the energy sum it poisons is
/// the update's own `temperature/non-finite-energy`.
#[test]
fn seeded_nan_yields_the_nan_rule_and_the_non_finite_energy_sum() {
    let diags = probe_diagnostics(1e-9, |fields, bte| {
        fields.slice_mut(bte.vars.i)[3] = f64::NAN;
    });
    assert_eq!(diags.len(), 2, "exactly two diagnostics: {diags:?}");
    assert_eq!(diags[0].rule, rules::NON_FINITE_ENERGY);
    assert_eq!(diags[1].rule, rules::NAN_INTENSITY);
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn negative_intensity_yields_exactly_the_negativity_rule() {
    let diags = probe_diagnostics(1e-9, |fields, bte| {
        // Make one entry negative but move its direction-weighted energy
        // into another direction of the same (band, cell), so the energy
        // budget stays intact and only the negativity probe fires.
        let n_cells = fields.n_cells;
        let n_bands = bte.material.n_bands();
        let w = &bte.material.angles.weights;
        let i = fields.slice_mut(bte.vars.i);
        let cell = 7;
        let old = i[cell]; // direction 0, band 0
        i[cell] = -1e-300;
        i[n_bands * n_cells + cell] += (w[0] / w[1]) * (old + 1e-300);
    });
    assert_eq!(diags.len(), 1, "exactly one diagnostic: {diags:?}");
    assert_eq!(diags[0].rule, rules::NEGATIVE_INTENSITY);
    assert_eq!(diags[0].severity, Severity::Warning);
}

/// A temperature far from the intensity's, and a Newton loose enough to
/// return after one step: the budget the update leaves is off.
#[test]
fn violated_energy_budget_yields_exactly_the_energy_rule() {
    let diags = probe_diagnostics(1e3, |fields, bte| {
        for t in fields.slice_mut(bte.vars.t) {
            *t += 40.0;
        }
    });
    assert_eq!(diags.len(), 1, "exactly one diagnostic: {diags:?}");
    assert_eq!(diags[0].rule, rules::ENERGY_BUDGET);
    assert_eq!(diags[0].severity, Severity::Warning);
}

#[test]
fn installed_probes_stay_clean_over_a_full_solve() {
    let mut bte = hotspot_2d(&config());
    bte.enable_probes();
    let mut solver = Solver::build(bte.problem, ExecTarget::CpuSeq).expect("builds");
    let mut rec = Recorder::buffered();
    let report = solver.solve_traced(&mut rec).expect("solves");
    assert!(
        report.findings.totals.is_empty(),
        "healthy solve flagged: {:?}",
        report.findings
    );
    // The probes feed the telemetry sample series too.
    let samples: Vec<_> = rec
        .samples()
        .into_iter()
        .filter(|s| s.name == "energy_residual")
        .collect();
    assert_eq!(samples.len(), config().n_steps, "one residual per step");
    assert!(samples.iter().all(|s| s.value < 1e-6));
}

/// Traced and untraced runs find the same. The hot-spot die at a step
/// far past its stability wall, with the health probes on: on
/// every target, the report of an untraced solve carries the rule ids
/// and per-rule totals of a buffered one, and the buffered recorder's
/// diagnostics name all three physics rules.
#[test]
fn traced_and_untraced_runs_find_the_same() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/hotspot.pbte");
    let mut spec = ScenarioSpec::from_file(&path).expect("scenario parses");
    spec.dt = Some(1e300);
    let solver = |target: &str| {
        let mut bte = spec.build().expect("scenario builds");
        bte.enable_probes();
        let target = pbte_apps::parse_target(target, 2).expect("known target");
        Solver::build(bte.problem, target).expect("builds")
    };
    for target in ["seq", "par", "bands:2", "gpu:async"] {
        let untraced = solver(target).solve().expect("solves").findings;
        let mut rec = Recorder::buffered();
        let traced = solver(target)
            .solve_traced(&mut rec)
            .expect("solves")
            .findings;
        assert!(
            !untraced.totals.is_empty(),
            "{target}: the untraced run found nothing"
        );
        assert_eq!(untraced.totals, traced.totals, "{target}");
        let diags = pbte_dsl::exec::telemetry_diagnostics(&rec);
        for rule in [
            rules::NAN_INTENSITY,
            rules::NEGATIVE_INTENSITY,
            rules::ENERGY_BUDGET,
        ] {
            assert!(
                diags.iter().any(|d| d.rule == rule),
                "{target}: no `{rule}` in {diags:?}"
            );
        }
    }
}

/// Every rule is capped per recorder: the first eight findings are kept,
/// every occurrence is counted, and absorbing a child merges both.
#[test]
fn findings_are_capped_per_rule_and_counted_in_full() {
    let mut child = Recorder::null();
    for step in 0..11 {
        child.warn(Severity::Error, "a", format!("step {step}"));
    }
    child.warn(Severity::Warning, "b", "once".into());
    let kept = |r: &Recorder, rule| r.findings().kept.iter().filter(|e| e.name == rule).count();
    assert_eq!(kept(&child, "a"), 8);
    assert_eq!(child.findings().totals["a"], 11);
    let mut parent = Recorder::buffered();
    parent.warn(Severity::Warning, "b", "again".into());
    parent.absorb_rank(child);
    assert_eq!(parent.findings().totals["a"], 11);
    assert_eq!(parent.findings().totals["b"], 2);
    assert_eq!(kept(&parent, "b"), 2);
    assert_eq!(parent.events().len(), 1, "the null child built no frame");
}

#[test]
fn newton_histogram_is_recorded_and_consistent() {
    let mut rec = Recorder::buffered();
    let report = run(ExecTarget::CpuSeq, &mut rec);
    let hist = rec.histogram("newton_iters").expect("histogram recorded");
    let observations: u64 = hist.iter().sum();
    assert_eq!(
        observations, report.work.temperature_solves,
        "one observation per cell solve"
    );
    let weighted: u64 = hist
        .iter()
        .enumerate()
        .map(|(i, &c)| i as u64 * c)
        .sum::<u64>();
    assert_eq!(
        weighted, report.work.newton_iters,
        "bucket-weighted sum equals the iteration counter (no overflow bucket hit)"
    );
}

/// Categories of every complete (`"X"`) event in the recorder's Chrome
/// trace, plus the names of every instant (`"i"`) marker.
fn trace_cats_and_markers(rec: &Recorder) -> (Vec<String>, Vec<String>) {
    let root: Value = serde_json::from_str(&rec.chrome_trace()).expect("trace parses");
    let Some(Value::Arr(events)) = root.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    let mut cats = Vec::new();
    let mut markers = Vec::new();
    for ev in events {
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) => s.as_str(),
            _ => continue,
        };
        let str_of = |key: &str| match ev.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("event `{key}` must be a string, got {other:?}"),
        };
        match ph {
            "X" => cats.push(str_of("cat")),
            "i" => markers.push(str_of("name")),
            _ => {}
        }
    }
    (cats, markers)
}

#[test]
fn chrome_trace_covers_every_span_kind() {
    // Three runs together exercise all eight span kinds: the GPU target
    // draws kernel/transfer on the device track, the cell-partitioned
    // target adds halo exchanges and allreduces, and the implicit
    // integrator adds the Newton/Krylov solve machinery. The dt=auto
    // clamp notice is recorded exactly the way `pbte` wires it: a
    // warning event on the recorder before the solve.
    let mut gpu = Recorder::buffered();
    run(
        ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
        &mut gpu,
    );
    let mut cells = Recorder::buffered();
    run(ExecTarget::DistCells { ranks: 2 }, &mut cells);
    let mut bands = Recorder::buffered();
    run(
        ExecTarget::DistBands {
            ranks: 2,
            index: "b".into(),
        },
        &mut bands,
    );
    let mut implicit = Recorder::buffered();
    implicit.warn(
        Severity::Warning,
        "dt/auto-clamp",
        "dt=auto clamped to the CFL bound".to_string(),
    );
    let report = run_custom(ExecTarget::CpuSeq, &mut implicit, |bte| {
        bte.problem.integrator(Integrator::Implicit { theta: 1.0 });
    });

    let mut cats: Vec<String> = Vec::new();
    let mut markers: Vec<String> = Vec::new();
    for rec in [&gpu, &cells, &bands, &implicit] {
        let (c, m) = trace_cats_and_markers(rec);
        cats.extend(c);
        markers.extend(m);
    }
    for kind in SPAN_KINDS {
        assert!(
            cats.iter().any(|c| c == kind.category()),
            "span kind `{}` missing from the combined golden trace",
            kind.category()
        );
    }
    assert!(
        markers.iter().any(|m| m == "dt/auto-clamp"),
        "dt=auto clamp warning renders as an instant marker"
    );

    // The implicit run exercised the Krylov path and recorded it both as
    // a counter and as a per-iteration residual series.
    assert!(report.work.krylov_iters > 0, "implicit run ran Krylov");
    assert!(
        implicit
            .spans()
            .iter()
            .any(|s| s.name == "krylov_solve" && s.kind.category() == "kernel"),
        "krylov_solve kernel span present"
    );
    assert!(
        implicit
            .samples()
            .iter()
            .any(|s| s.name == "krylov_residual"),
        "krylov_residual samples present"
    );
    // Each solve says why it stopped, and on the die every sum of the
    // step certified without the limbs.
    for s in implicit.spans() {
        if s.name == "krylov_solve" {
            assert_eq!(attr(s, "exit").as_deref(), Some("converged"), "{s:?}");
        }
        if ["krylov_solve", "implicit_newton"].contains(&s.name.as_str()) {
            assert_eq!(attr(s, "exact_fallbacks").as_deref(), Some("0"), "{s:?}");
        }
    }
}

/// One driver draws the step lane on every target: per rank, exactly one
/// `Step` span and one intensity `Phase` span per step taken, explicit or
/// implicit.
#[test]
fn every_target_traces_each_step_and_its_intensity_phase() {
    let ranks = 2;
    let gpu = |strategy| ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy,
    };
    let targets = [
        (1, ExecTarget::CpuSeq),
        (1, ExecTarget::CpuParallel),
        (ranks, ExecTarget::DistCells { ranks }),
        (
            ranks,
            ExecTarget::DistBands {
                ranks,
                index: "b".into(),
            },
        ),
        (1, gpu(GpuStrategy::AsyncBoundary)),
        (
            ranks,
            ExecTarget::DistBandsGpu {
                ranks,
                index: "b".into(),
                spec: DeviceSpec::a6000(),
                strategy: GpuStrategy::AsyncBoundary,
            },
        ),
    ];
    for (n_ranks, target) in targets {
        for integrator in [Integrator::Explicit, Integrator::Implicit { theta: 1.0 }] {
            let mut rec = Recorder::buffered();
            let report = run_custom(target.clone(), &mut rec, |bte| {
                bte.problem.integrator(integrator);
            });
            assert!(report.steps > 0);
            for rank in 0..n_ranks as u32 {
                for kind in ["step", "phase"] {
                    let n = rec
                        .spans()
                        .iter()
                        .filter(|s| s.rank == rank && s.kind.category() == kind)
                        .filter(|s| kind == "step" || s.name == phases::INTENSITY)
                        .count();
                    assert_eq!(
                        n, report.steps,
                        "{target:?} {integrator:?} rank {rank}: `{kind}` spans"
                    );
                }
            }
        }
    }
}

/// The device lane's host time has names: every step of a `gpu:async`
/// hot-spot run draws exactly the records its stage lists, in list order —
/// each non-callback record one span saying where it ran (`place`) and the
/// host wall-clock it cost (`host_s`), each step callback its `Callback`
/// span — and the records' host seconds fit inside the step's intensity
/// phase.
#[test]
fn a_device_step_draws_one_span_per_record_in_list_order() {
    let target = ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    };
    let mut solver = Solver::build(hotspot_2d(&config()).problem, target).expect("builds");
    let mut rec = Recorder::buffered();
    let report = solver.solve_traced(&mut rec).expect("solves");

    let cp = &solver.compiled;
    let scope = Scope::whole(cp);
    let stage = Stage::build(cp, Plan::Main, &solver.target, &scope);
    let listed = |r: &pbte_dsl::dataflow::Record| match (r.kernel, r.place) {
        (Kernel::Callback { index, .. }, _) => (cp.catalog.steps[index].name.clone(), None),
        (_, Place::Host) => (r.label().to_string(), Some("host")),
        (_, Place::Device) => (r.label().to_string(), Some("device")),
    };
    let want: Vec<_> = stage.records.iter().map(listed).collect();
    assert!(
        want.contains(&("sweep".to_string(), Some("device"))),
        "{want:?}"
    );

    let spans = rec.spans();
    for step in 0..report.steps {
        let of_step = || {
            let mine = move |s: &&Span| attr(s, "step") == Some(step.to_string());
            spans.iter().copied().filter(mine)
        };
        let is_record =
            |s: &&Span| attr(s, "place").is_some() || matches!(s.kind, SpanKind::Callback);
        let drawn: Vec<_> = of_step()
            .filter(is_record)
            .map(|s| (s.name.clone(), attr(s, "place")))
            .collect();
        let drawn: Vec<_> = drawn
            .iter()
            .map(|(n, p)| (n.clone(), p.as_deref()))
            .collect();
        assert_eq!(drawn, want, "step {step}");

        let host_s: f64 = of_step()
            .filter_map(|s| attr(s, "host_s"))
            .map(|v| v.parse::<f64>().expect("host_s is a number"))
            .sum();
        let phase = of_step().find(|s| s.name == phases::INTENSITY);
        let phase = phase.expect("the step's intensity phase").dur;
        assert!(
            host_s > 0.0 && host_s <= phase,
            "step {step}: records cost {host_s} s of a {phase} s phase"
        );
    }
}

fn attr(s: &Span, key: &str) -> Option<String> {
    let found = s.attrs.iter().find(|(k, _)| *k == key);
    found.map(|(_, v)| v.clone())
}

/// The hot spot with its cold bottom wall left to a host closure, so a
/// step has a host `ghost_eval` record.
fn callback_walled(bte: &mut BteProblem) {
    let (material, i_var) = (bte.material.clone(), bte.vars.i);
    let walls = &mut bte.problem.boundary_conditions;
    walls.retain(|(_, region, _)| region != "bottom");
    let cold =
        BoundaryCondition::callback_reading(&[], move |q| material.table().io(q.idx[1], 300.0));
    bte.problem.boundary(i_var, "bottom", cold);
}

fn gpu_async() -> ExecTarget {
    ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    }
}

/// Each sweep is priced by its own plan, and only sweeps are: on a traced
/// implicit run, on the host and on the device, every RHS sweep span
/// carries the main plan's `sweep_price` × its dofs as `pred_flops`, every
/// JVP sweep the JVP plan's, and no other span — `krylov_solve`, the host
/// `ghost_eval`s — carries one.
#[test]
fn each_sweep_span_carries_its_own_plans_price() {
    for target in [ExecTarget::CpuSeq, gpu_async()] {
        let mut rec = Recorder::buffered();
        let mut bte = hotspot_2d(&config());
        callback_walled(&mut bte);
        bte.problem.integrator(Integrator::Implicit { theta: 1.0 });
        let mut solver = Solver::build(bte.problem, target.clone()).expect("builds");
        solver.solve_traced(&mut rec).expect("solves");
        let cp = &solver.compiled;
        let jcp = cp.jvp.as_deref().expect("an implicit plan has a JVP twin");
        let dofs = Scope::whole(cp).dofs() as f64;
        let priced = |plan| format!("{:.4e}", sweep_price(plan).flops_per_thread * dofs);
        let prices = [priced(cp), priced(jcp)];
        assert_ne!(prices[0], prices[1], "the JVP plan is not the main plan");

        let mut swept = [0; 2];
        for s in rec.spans() {
            let plan = match (s.name.as_str(), attr(s, "kernel").as_deref()) {
                ("intensity_rhs", _) | ("sweep", Some("rhs_sweep")) => Some(0),
                ("jvp_rhs", _) | ("sweep", Some("jvp_sweep")) => Some(1),
                _ => None,
            };
            let want = plan.map(|p| prices[p].clone());
            assert_eq!(attr(s, "pred_flops"), want, "{target:?}: {s:?}");
            plan.into_iter().for_each(|p| swept[p] += 1);
        }
        assert!(swept[0] > 0 && swept[1] > 0, "{target:?}: {swept:?}");
        for name in ["krylov_solve", "ghost_eval"] {
            let spans = rec.spans();
            assert!(spans.iter().any(|s| s.name == name), "{target:?}: {name}");
        }
    }
}

/// The simulated device is timed by the price its sweeps report: on a
/// traced `gpu:async` run with a callback wall, explicit and implicit,
/// each kernel's profiled flops are the sum of its sweep spans'
/// `pred_flops`, and `pbte-trace --follow` prints that one figure.
#[test]
fn a_device_kernel_is_timed_by_the_price_its_sweeps_report() {
    for integrator in [Integrator::Explicit, Integrator::Implicit { theta: 1.0 }] {
        let mut rec = Recorder::buffered();
        let report = run_custom(gpu_async(), &mut rec, |bte| {
            callback_walled(bte);
            bte.problem.integrator(integrator);
        });
        let profile = report.device.expect("a device profile");
        let spans = rec.spans();
        assert!(spans.iter().any(|s| s.name == "ghost_eval"));
        for (name, kernel) in &profile.kernels {
            let priced: f64 = (spans.iter())
                .filter(|s| s.name == "sweep" && attr(s, "kernel").as_deref() == Some(name))
                .map(|s| attr(s, "pred_flops").expect("a priced sweep"))
                .map(|v| v.parse::<f64>().expect("pred_flops is a number"))
                .sum();
            let miss = (priced - kernel.flops).abs() / kernel.flops;
            assert!(
                miss < 1e-4,
                "{integrator:?} {name}: {priced} vs {}",
                kernel.flops
            );
        }
    }

    let dir = std::env::temp_dir().join(format!("pbte-sweep-price-{}", std::process::id()));
    let stream = dir.join("stream.pbts");
    let trace = |args: &[String]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pbte-trace"))
            .args(args)
            .output()
            .expect("pbte-trace runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let run = ["scenario=hotspot", "target=gpu:async", "n=10", "steps=2"].map(String::from);
    trace(
        &[
            &run[..],
            &[
                format!("out={}", dir.display()),
                format!("stream={}", stream.display()),
            ],
        ]
        .concat(),
    );
    let follow = trace(&[
        "--follow".into(),
        format!("file={}", stream.display()),
        "wait=1".into(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    let line = follow
        .lines()
        .find(|l| l.contains("kernel sweep:"))
        .expect("a sweep annotation");
    assert_eq!(line.matches("flops").count(), 1, "one price: {line}");
}

#[test]
fn native_tier_kernel_spans_carry_tier_and_cost_attribution() {
    let mut rec = Recorder::buffered();
    run_custom(ExecTarget::CpuSeq, &mut rec, |bte| {
        bte.problem.kernel_tier(KernelTier::Native);
    });
    let kernels: Vec<_> = rec
        .spans()
        .into_iter()
        .filter(|s| s.kind.category() == "kernel")
        .collect();
    assert!(!kernels.is_empty(), "kernel spans recorded");
    let tiered = kernels
        .iter()
        .find(|s| s.attrs.iter().any(|(k, _)| *k == "tier"))
        .expect("kernel span carries a tier attribute");
    let tier = &tiered
        .attrs
        .iter()
        .find(|(k, _)| *k == "tier")
        .expect("tier attr")
        .1;
    assert_eq!(tier, "native", "native tier attributed on the span");
    assert!(
        tiered.attrs.iter().any(|(k, _)| *k == "pred_flops"),
        "cost expectation annotates the kernel with predicted flops"
    );
    // Every artifact says what ran: `summary.jsonl` opens with the
    // `run_start` frame, naming the tier and flux the kernel spans do.
    let jsonl = rec.summary_jsonl();
    let first: Value = serde_json::from_str(jsonl.lines().next().expect("non-empty")).unwrap();
    assert_eq!(frame_kind(&first), "run_start");
    for key in ["tier", "flux"] {
        let ran = &tiered.attrs.iter().find(|(k, _)| *k == key).expect(key).1;
        assert_eq!(first.get(key), Some(&Value::Str(ran.clone())), "{key}");
    }
}

/// A problem that names no tier asks for `Native`, and `Native` is what
/// runs on every target shape: the `run_start` frame, which names the tier
/// the kernels resolved to, says `native` on `seq`, `par`, `bands:2` and
/// `gpu:async`.
#[test]
fn a_problem_naming_no_tier_runs_native_on_every_target() {
    let bte = hotspot_2d(&config());
    let cp = CompiledProblem::compile(bte.problem).expect("compiles").0;
    assert_eq!(cp.resolved_tier(), KernelTier::Native);
    let bands = ExecTarget::DistBands {
        ranks: 2,
        index: "b".into(),
    };
    let gpu = ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    };
    for target in [ExecTarget::CpuSeq, ExecTarget::CpuParallel, bands, gpu] {
        let label = target.label();
        let mut rec = Recorder::buffered();
        run(target, &mut rec);
        let jsonl = rec.summary_jsonl();
        let first: Value = serde_json::from_str(jsonl.lines().next().expect("non-empty")).unwrap();
        assert_eq!(frame_kind(&first), "run_start", "{label}");
        assert_eq!(
            first.get("tier"),
            Some(&Value::Str("native".into())),
            "{label}"
        );
    }
}

/// What ran includes where the plan came from: the first build of a
/// content in a process says `lowered`, the next `reused` — in
/// `summary.jsonl`, the stream's frame and `trace.json` alike — and an
/// implicit run says the same of its JVP twin. The scenario's shape is this
/// test's alone, so no other test of the binary lowers it first.
#[test]
fn run_start_says_whether_the_plan_was_lowered_or_reused() {
    let mut cfg = BteConfig::small(9, 6, 3, 2);
    cfg.hot_width = 40e-6;
    let origins = |integrator: Integrator, cfg: &BteConfig| {
        let mut rec = Recorder::buffered();
        let mut bte = hotspot_2d(cfg);
        bte.problem.integrator(integrator);
        let mut solver = Solver::build(bte.problem, ExecTarget::CpuSeq).expect("builds");
        solver.solve_traced(&mut rec).expect("solves");
        let jsonl = rec.summary_jsonl();
        let first: Value = serde_json::from_str(jsonl.lines().next().expect("non-empty")).unwrap();
        assert_eq!(frame_kind(&first), "run_start");
        let attr = |key: &str| match first.get(key) {
            Some(Value::Str(origin)) => Some(origin.clone()),
            _ => None,
        };
        let plan = attr("plan").expect("every run_start names its plan's origin");
        assert!(
            rec.chrome_trace().contains(&format!("\"plan\":\"{plan}\"")),
            "trace.json carries the attribute"
        );
        (plan, attr("jvp_plan"))
    };
    assert_eq!(
        origins(Integrator::Explicit, &cfg),
        ("lowered".into(), None)
    );
    // Another hot spot on the same die: the plan is the process's by now.
    cfg.hot_width = 25e-6;
    assert_eq!(origins(Integrator::Explicit, &cfg), ("reused".into(), None));
    let implicit = Integrator::Implicit { theta: 1.0 };
    assert_eq!(
        origins(implicit, &cfg),
        ("reused".into(), Some("lowered".into()))
    );
    assert_eq!(
        origins(implicit, &cfg),
        ("reused".into(), Some("reused".into()))
    );
}

#[test]
fn stream_file_round_trips_under_a_concurrent_reader() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let path =
        std::env::temp_dir().join(format!("pbte-telemetry-stream-{}.pbts", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let writer =
        StreamWriter::create(&path, StreamConfig { capacity: 4096 }).expect("stream file created");

    // A live consumer tails the file while the solve is still writing
    // it — exactly the `pbte-trace --follow` situation.
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let path = path.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut r = StreamReader::open(&path).expect("reader opens");
            let mut frames = Vec::new();
            loop {
                let finished = done.load(Ordering::Acquire);
                frames.extend(r.poll().expect("poll"));
                if finished {
                    return frames;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let mut rec = Recorder::buffered();
    rec.attach_stream(writer.sink());
    run(ExecTarget::CpuSeq, &mut rec);
    let stats = writer.finish().expect("writer finishes");
    done.store(true, Ordering::Release);
    let frames = reader.join().expect("reader thread");

    assert_eq!(stats.dropped, 0, "ample ring capacity: nothing dropped");
    assert!(stats.frames_written > 0 && stats.bytes > 0);

    let mut steps = 0u64;
    let mut spans = 0u64;
    let mut run_end = None;
    for f in &frames {
        let v: Value = serde_json::from_str(f).expect("frame is valid JSON");
        match frame_kind(&v) {
            "step" => {
                steps += 1;
                assert!(v.get("work").is_some() && v.get("phases").is_some());
            }
            "span" => {
                spans += 1;
                assert!(
                    matches!(v.get("cat"), Some(Value::Str(_)))
                        && v.get("dur").and_then(Value::as_f64).is_some()
                );
            }
            "run_end" => {
                run_end = v.get("frames").and_then(Value::as_u64);
            }
            _ => {}
        }
    }
    assert_eq!(steps, config().n_steps as u64, "one step frame per step");
    assert!(spans > 0, "span frames streamed");
    assert_eq!(
        run_end,
        Some(stats.frames_written),
        "run_end frame accounts for every written frame"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stalled_writer_drops_frames_without_blocking_the_solve() {
    // A bounded sink whose receiver nobody reads models a wedged writer:
    // the channel fills almost immediately, and from then on every push
    // must return instantly and count a drop instead of blocking.
    let (sink, _rx) = StreamSink::bounded(8);
    let mut rec = Recorder::buffered();
    rec.attach_stream(sink.clone());
    let report = run(ExecTarget::CpuSeq, &mut rec);
    assert!(report.work.dof_updates > 0, "solve completed");
    assert!(sink.dropped() > 0, "backpressure surfaced as drop counts");
    assert!(
        sink.pushed() <= 8,
        "with nothing draining, accepted frames cannot exceed the channel"
    );
    // The buffered twin of the same recorder kept the full record.
    assert!(!rec.spans().is_empty());
}

/// Solve the hot spot (health probes on, so `energy_residual`
/// samples flow; one warning up front, so an event does) on `target` with
/// the buffer *and* a stream attached; return the recorder and the stream
/// file's frames.
fn run_both_consumers(target: ExecTarget, tag: &str) -> (Recorder, Vec<Value>) {
    let path = std::env::temp_dir().join(format!(
        "pbte-telemetry-one-model-{tag}-{}.pbts",
        std::process::id()
    ));
    let writer =
        StreamWriter::create(&path, StreamConfig { capacity: 1 << 14 }).expect("stream created");
    let mut rec = Recorder::buffered();
    rec.attach_stream(writer.sink());
    rec.warn(
        Severity::Warning,
        "test/marker",
        "an event frame for both consumers".into(),
    );
    run_custom(target, &mut rec, BteProblem::enable_probes);
    let stats = writer.finish().expect("writer finishes");
    assert_eq!(stats.dropped, 0, "ample ring: the stream is complete");
    let frames = StreamReader::open(&path)
        .and_then(|mut r| r.poll())
        .expect("stream reads back")
        .iter()
        .map(|f| serde_json::from_str(f).expect("frame parses"))
        .collect();
    let _ = std::fs::remove_file(&path);
    (rec, frames)
}

fn frame_kind(v: &Value) -> &str {
    match v.get("frame") {
        Some(Value::Str(k)) => k,
        other => panic!("frame discriminator must be a string, got {other:?}"),
    }
}

fn is_str(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Str(_)))
}

fn is_f64(v: &Value, key: &str) -> bool {
    v.get(key).and_then(Value::as_f64).is_some()
}

fn assert_u64(v: &Value, key: &str, ctx: &str) {
    assert!(
        v.get(key).and_then(Value::as_u64).is_some(),
        "{ctx}: missing non-negative integer `{key}`"
    );
}

/// The frame schema `pbte-trace --follow` and external tails consume:
/// the required keys of each frame kind. Panics on an unknown kind.
fn assert_frame_schema(v: &Value) {
    const WORK_KEYS: [&str; 8] = [
        "dof_updates",
        "flux_evals",
        "ghost_evals",
        "newton_iters",
        "temperature_solves",
        "rhs_evals",
        "jvp_evals",
        "krylov_iters",
    ];
    let kind = frame_kind(v);
    match kind {
        "run_start" => {
            assert!(is_str(v, "label") && is_f64(v, "time"));
            assert!(is_str(v, "tier") && is_str(v, "flux"), "what ran");
        }
        "step" | "total" => {
            if kind == "step" {
                assert_u64(v, "step", kind);
                assert_u64(v, "rank", kind);
                assert_u64(v, "comm_bytes", kind);
            }
            assert!(matches!(v.get("phases"), Some(Value::Obj(_))), "{kind}");
            let work = v.get("work").expect("work object");
            for key in WORK_KEYS {
                assert_u64(work, key, kind);
            }
        }
        "span" => {
            assert!(is_str(v, "cat") && is_str(v, "name"));
            assert!(is_f64(v, "t0") && is_f64(v, "dur"));
            assert_u64(v, "rank", kind);
            assert_u64(v, "tid", kind);
            assert!(matches!(v.get("attrs"), Some(Value::Obj(_))));
        }
        "event" => {
            assert!(is_str(v, "severity") && is_str(v, "name") && is_str(v, "message"));
        }
        "sample" => {
            assert!(is_str(v, "name") && is_f64(v, "value"));
            assert_u64(v, "step", kind);
            assert_u64(v, "rank", kind);
        }
        "histogram" => {
            assert!(is_str(v, "name"));
            let Some(Value::Arr(buckets)) = v.get("buckets") else {
                panic!("histogram frame without a buckets array: {v:?}");
            };
            assert!(buckets.iter().all(|b| b.as_u64().is_some()));
        }
        "device" => {
            assert!(is_str(v, "device"));
            assert_u64(v, "rank", kind);
            assert_u64(v, "h2d_bytes", kind);
            assert_u64(v, "d2h_bytes", kind);
            for key in [
                "sm_utilization",
                "memory_fraction",
                "flop_fraction",
                "kernel_seconds",
                "transfer_seconds",
            ] {
                assert!(is_f64(v, key), "device frame: {key}");
            }
        }
        "run_end" => {
            assert_u64(v, "frames", kind);
            assert_u64(v, "dropped", kind);
        }
        other => panic!("unknown frame discriminator `{other}`"),
    }
}

/// The buffer and the stream are two consumers of one `emit`: the stream
/// file's frames, spans and the writer's own `run_end` aside, are exactly
/// the lines of `summary.jsonl`, in order. Ranks push concurrently, so on
/// a multi-rank target the order is compared per emitting rank.
#[test]
fn buffer_and_stream_carry_the_same_frames() {
    let targets = [
        (1, "seq", ExecTarget::CpuSeq),
        (
            2,
            "bands",
            ExecTarget::DistBands {
                ranks: 2,
                index: "b".into(),
            },
        ),
        (
            1,
            "gpu",
            ExecTarget::GpuHybrid {
                spec: DeviceSpec::a6000(),
                strategy: GpuStrategy::AsyncBoundary,
            },
        ),
    ];
    for (n_ranks, tag, target) in targets {
        let (rec, stream) = run_both_consumers(target, tag);
        let streamed: Vec<Value> = stream
            .into_iter()
            .filter(|f| !matches!(frame_kind(f), "span" | "run_end"))
            .collect();
        let summary: Vec<Value> = rec
            .summary_jsonl()
            .lines()
            .map(|l| serde_json::from_str(l).expect("summary line parses"))
            .collect();
        for kind in ["event", "run_start", "step", "sample", "histogram", "total"] {
            assert!(
                summary.iter().any(|f| frame_kind(f) == kind),
                "{tag}: no `{kind}` frame recorded"
            );
        }
        if n_ranks == 1 {
            assert_eq!(streamed, summary, "{tag}: stream vs summary.jsonl");
            continue;
        }
        assert_eq!(streamed.len(), summary.len(), "{tag}: frame count");
        // Lane `None` holds the run-level frames (run_start, histogram,
        // total), which carry no rank.
        let lane = |frames: &[Value], rank: Option<u64>| -> Vec<Value> {
            frames
                .iter()
                .filter(|f| f.get("rank").and_then(Value::as_u64) == rank)
                .cloned()
                .collect()
        };
        for rank in [None, Some(0), Some(1)] {
            assert_eq!(
                lane(&streamed, rank),
                lane(&summary, rank),
                "{tag}: frames of rank {rank:?}"
            );
        }
    }
}

/// Every streamed frame keeps its kind's schema, and one run streams
/// every kind: the device target with the health probes on draws
/// the `device` and `sample` frames.
#[test]
fn stream_frame_schema() {
    let target = ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    };
    let (_, stream) = run_both_consumers(target, "schema");
    for frame in &stream {
        assert_frame_schema(frame);
    }
    for kind in [
        "run_start",
        "event",
        "step",
        "span",
        "sample",
        "histogram",
        "device",
        "total",
        "run_end",
    ] {
        assert!(
            stream.iter().any(|f| frame_kind(f) == kind),
            "no `{kind}` frame in the stream"
        );
    }
}

#[test]
fn buffered_sink_cap_surfaces_truncation_diagnostic() {
    let cfg = TraceConfig::enabled_now().with_span_cap(4);
    let mut rec = Recorder::from_config(cfg, 0);
    run(ExecTarget::CpuSeq, &mut rec);
    assert!(
        rec.spans().len() <= 4,
        "buffer capped at the configured size, kept {}",
        rec.spans().len()
    );
    assert!(rec.dropped_spans() > 0, "overflow counted");
    assert!(
        rec.events()
            .iter()
            .any(|e| e.name == rules::BUFFER_TRUNCATED),
        "truncation surfaced as a structured event"
    );
    let diags = pbte_dsl::exec::telemetry_diagnostics(&rec);
    assert!(
        diags.iter().any(|d| d.rule == rules::BUFFER_TRUNCATED),
        "and as a Diagnostic with the stable rule id: {diags:?}"
    );
}

#[test]
fn cost_drift_fires_beyond_tolerance_and_stays_quiet_within() {
    let cost = CostExpectation {
        dof_per_sweep: 1000,
        flux_per_sweep: 900,
        ghost_per_sweep: 0,
        stages_per_step: 2,
        step_h2d_bytes: 4096,
        step_d2h_bytes: 0,
        per_step_check: true,
        tolerance: 0.05,
    };

    // Within tolerance: no drift warning.
    let mut quiet = Recorder::buffered();
    quiet.set_cost_expectation(cost);
    quiet.work.dof_updates = 2000; // exactly dof_per_sweep × stages
    quiet.work.flux_evals = 1800;
    quiet.step_done(0, &[("solve for intensity", 1e-3)], 0);
    quiet.transfer_drift(0, "h2d", 4096);
    assert!(
        !quiet
            .events()
            .iter()
            .any(|e| e.name == rules::COST_LIVE_DRIFT),
        "matching observation must not warn: {:?}",
        quiet.events()
    );

    // 50% more dof updates than predicted: the per-step check fires.
    let mut loud = Recorder::buffered();
    loud.set_cost_expectation(cost);
    loud.work.dof_updates = 3000;
    loud.work.flux_evals = 1800;
    loud.step_done(0, &[("solve for intensity", 1e-3)], 0);
    let drift: Vec<_> = loud
        .events()
        .into_iter()
        .filter(|e| e.name == rules::COST_LIVE_DRIFT)
        .collect();
    assert_eq!(drift.len(), 1, "exactly one drift warning: {drift:?}");
    assert!(drift[0].message.contains("dof_updates"));

    // Transfer-byte drift is checked independently.
    let mut bytes = Recorder::buffered();
    bytes.set_cost_expectation(cost);
    bytes.transfer_drift(3, "h2d", 8192);
    assert!(
        bytes
            .events()
            .iter()
            .any(|e| e.name == rules::COST_LIVE_DRIFT),
        "doubled transfer volume fires the byte drift check"
    );
    // Drift warnings map to structured diagnostics for `pbte-trace`.
    let diags = pbte_dsl::exec::telemetry_diagnostics(&bytes);
    assert!(diags.iter().any(|d| d.rule == rules::COST_LIVE_DRIFT));
}
