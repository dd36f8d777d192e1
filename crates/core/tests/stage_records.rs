//! The one builder of a step's stage records, over the whole matrix:
//! {Euler, RK2, implicit θ=1, steady} × the seven targets × {all walls
//! lowered, one callback wall}. The list has the kinds and places the
//! strategy × walls × integrator policy says, the schedule folded from it
//! is the one the executors have always followed, and a list with one
//! access tampered yields a schedule the transfer proof refuses.

use pbte_dsl::analysis::{self, rules, Scope};
use pbte_dsl::dataflow::{
    step_records, Access, Entity, Kernel, Place, Plan, Policy, Record, Stage,
};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{BoundaryCondition, Integrator, Problem, TimeStepper};
use pbte_dsl::{GpuStrategy, Severity};
use pbte_gpu::DeviceSpec;
use pbte_mesh::grid::UniformGrid;

/// The `ir_structure.rs` fixture: `callback_wall` leaves the left wall to
/// a closure, `post_step` registers an opaque post-step callback.
fn problem(callback_wall: bool, post_step: bool) -> Problem {
    let mut p = Problem::new("records");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(4, 4, 1.0, 1.0).build());
    p.set_steps(1e-3, 3);
    let d = p.index("d", 2);
    let b = p.index("b", 3);
    let i = p.variable("I", &[d, b]);
    let _ = p.variable("Io", &[b]);
    let _ = p.variable("beta", &[b]);
    p.coefficient_array("Sx", &[d], vec![1.0, -1.0]);
    p.coefficient_array("Sy", &[d], vec![0.5, -0.5]);
    p.coefficient_array("vg", &[b], vec![1.0, 2.0, 3.0]);
    p.initial(i, |_, _| 1.0);
    let left = match callback_wall {
        true => BoundaryCondition::callback_reading(&[], |q| q.time),
        false => BoundaryCondition::Value(0.0),
    };
    p.boundary(i, "left", left);
    for region in ["right", "top", "bottom"] {
        p.boundary(i, region, BoundaryCondition::Value(0.0));
    }
    if post_step {
        p.post_step(|_| {});
    }
    p.conservation_form(
        i,
        "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
    );
    p
}

fn gpu(strategy: GpuStrategy) -> ExecTarget {
    ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy,
    }
}

fn targets() -> Vec<ExecTarget> {
    vec![
        ExecTarget::CpuSeq,
        ExecTarget::CpuParallel,
        ExecTarget::DistCells { ranks: 2 },
        ExecTarget::DistBands {
            ranks: 2,
            index: "b".into(),
        },
        gpu(GpuStrategy::AsyncBoundary),
        gpu(GpuStrategy::PrecomputeBoundary),
        ExecTarget::DistBandsGpu {
            ranks: 2,
            index: "b".into(),
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        },
    ]
}

/// `(kernel, place)` of every record.
fn shape(records: &[Record]) -> Vec<(Kernel, Place)> {
    records.iter().map(|r| (r.kernel, r.place)).collect()
}

fn names(stage: &Stage, policy: Policy, to_device: bool) -> Vec<String> {
    let moves = stage.moves(policy, to_device);
    moves.map(|t| t.name.clone()).collect()
}

#[test]
fn the_record_list_is_the_policy_for_every_target_walls_and_integrator() {
    use Kernel::{Callback, Combine, GhostEval, Sweep};
    use Place::{Device, Host};
    let steady = Integrator::Steady {
        tol: 1e-6,
        growth: 2.0,
    };
    let schemes = [
        (Integrator::Explicit, TimeStepper::EulerExplicit),
        (Integrator::Explicit, TimeStepper::Rk2),
        (
            Integrator::Implicit { theta: 1.0 },
            TimeStepper::EulerExplicit,
        ),
        (steady, TimeStepper::EulerExplicit),
    ];
    for target in targets() {
        let device = target.strategy();
        for (integrator, stepper) in schemes {
            if device.is_some() && stepper == TimeStepper::Rk2 {
                continue; // the device lineage steps by Euler only
            }
            for callback_wall in [false, true] {
                let case = format!(
                    "{} {integrator:?} {stepper:?} {callback_wall}",
                    target.label()
                );
                let mut p = problem(callback_wall, true);
                p.integrator(integrator);
                p.time_stepper(stepper);
                let solver = p.build(target.clone()).expect(&case);
                let cp = &solver.compiled;
                let scope = Scope::whole(cp);
                let stage = Stage::build(cp, Plan::Main, &target, &scope);

                let explicit = integrator == Integrator::Explicit;
                let fused = explicit && stepper == TimeStepper::EulerExplicit;
                let combine =
                    device == Some(GpuStrategy::AsyncBoundary) && callback_wall && explicit;
                let sweep_at = if device.is_some() { Device } else { Host };
                let mut want = Vec::new();
                if callback_wall {
                    want.push((GhostEval { plan: Plan::Main }, Host));
                }
                let fused_dt = fused.then_some(cp.problem.dt);
                let plan = Plan::Main;
                want.push((Sweep { plan, fused_dt }, sweep_at));
                if combine {
                    want.push((Combine, Host));
                }
                want.push((
                    Callback {
                        pre: false,
                        index: 0,
                    },
                    Host,
                ));
                assert_eq!(shape(&stage.records), want, "{case}");

                // The sweep reads the ghosts unless the host combines the
                // boundary; it is the only record that touches the device.
                let is_sweep = |r: &&Record| matches!(r.kernel, Sweep { .. });
                let sweep = stage.records.iter().find(is_sweep).unwrap();
                assert_eq!(sweep.reads(Entity::Ghosts), !combine, "{case}");
                assert!(sweep.writes(Entity::Variable(cp.system.unknown)), "{case}");
                assert!(stage.records.iter().all(|r| std::ptr::eq(r.range, &scope)));

                // The JVP plan of an implicit solve: its own ghosts and
                // sweep, no callbacks, never a combine.
                if let Some(jcp) = cp.jvp.as_deref() {
                    let jvp = Stage::build(jcp, Plan::Jvp, &target, &scope);
                    let plan = Plan::Jvp;
                    let mut want = vec![(
                        Sweep {
                            plan,
                            fused_dt: None,
                        },
                        sweep_at,
                    )];
                    if !jcp.walls.lowered() {
                        want.insert(0, (GhostEval { plan }, Host));
                    }
                    assert_eq!(shape(&jvp.records), want, "{case}");
                }

                let Some(strategy) = device else {
                    assert!(
                        stage.schedule.is_none(),
                        "{case}: a CPU stage moves nothing"
                    );
                    continue;
                };
                let each_h2d = names(&stage, Policy::EveryStep, true);
                let once_h2d = names(&stage, Policy::Once, true);
                let each_d2h = names(&stage, Policy::EveryStep, false);
                let on = |list: &[String], name: &str| list.iter().any(|n| n == name);
                if explicit {
                    // The stage carries the step schedule, and that
                    // schedule is clean.
                    let schedule = analysis::synthesize_records(cp, strategy, &stage.records);
                    assert_eq!(schedule.transfers, cp.transfer_schedule(strategy).transfers);
                    let carried = stage.schedule.as_ref().unwrap();
                    assert_eq!(schedule.transfers, carried.transfers, "{case}");
                    assert!(analysis::check_schedule(cp, &schedule).is_empty(), "{case}");
                    // What synth_schedule.rs, verifier.rs and
                    // transfer_oracle.rs pin: the opaque post-step rewrites
                    // Io and beta and reads I; the unknown re-uploads only
                    // under a host combine — and then goes up before every
                    // sweep instead of once —, the ghosts only while the
                    // host evaluates them for the kernel.
                    assert!(on(&each_h2d, "Io") && on(&each_h2d, "beta"), "{case}");
                    assert_eq!(on(&each_h2d, "I"), combine, "{case}");
                    assert_eq!(on(&once_h2d, "I"), !combine, "{case}");
                    assert_eq!(on(&each_h2d, "ghosts"), callback_wall && !combine, "{case}");
                    assert_eq!(on(&once_h2d, "ghosts"), !callback_wall, "{case}");
                    assert!(on(&once_h2d, "vg"), "{case}");
                    assert_eq!(each_d2h, ["I"], "{case}");
                } else {
                    // Priced per sweep: every variable read goes up, the
                    // result rows come back; the ghosts go up with them
                    // only while the host evaluates them.
                    for var in ["I", "Io", "beta"] {
                        assert!(on(&each_h2d, var) && !on(&once_h2d, var), "{case}");
                    }
                    assert_eq!(on(&each_h2d, "ghosts"), callback_wall, "{case}");
                    assert_eq!(on(&once_h2d, "ghosts"), !callback_wall, "{case}");
                    assert_eq!(each_d2h, ["I"], "{case}");
                }
            }
        }
    }
}

/// Replace the access mode of `entity` in the first record matching
/// `which` (`None`: drop the argument).
fn tamper(
    records: &mut [Record],
    which: impl Fn(&Record) -> bool,
    entity: Entity,
    access: Option<Access>,
) {
    let record = records.iter_mut().find(|r| which(r)).expect("record");
    let before = record.args.len();
    record.args.retain(|&(e, _)| e != entity);
    assert_eq!(record.args.len(), before - 1, "the argument was there");
    record.args.extend(access.map(|a| (entity, a)));
}

/// A schedule synthesized from a tampered list fails against the true one
/// exactly as the tampered schedules of `verifier.rs` do: the transfer
/// the dropped access justified is missing, a stale read.
#[test]
fn a_tampered_access_yields_a_schedule_the_checkers_refuse() {
    let refused = |strategy: GpuStrategy,
                   entity: &str,
                   tampering: &dyn Fn(&mut [Record], usize)| {
        let target = gpu(strategy);
        let solver = problem(true, true).build(target).unwrap();
        let cp = &solver.compiled;
        let scope = Scope::whole(cp);
        let mut records = step_records(cp, Plan::Main, Some(strategy), &scope);
        let clean = analysis::synthesize_records(cp, strategy, &records);
        assert!(analysis::check_schedule(cp, &clean).is_empty());

        tampering(&mut records, cp.system.unknown);
        let bad = analysis::synthesize_records(cp, strategy, &records);
        let stale = analysis::check_schedule(cp, &bad);
        let hit = |d: &&analysis::Diagnostic| d.entity == entity && d.severity == Severity::Error;
        assert!(
            stale
                .iter()
                .filter(hit)
                .any(|d| d.rule == rules::STALE_READ),
            "{strategy:?}: {stale:?}"
        );
    };
    // Precompute: the device sweep no longer says it reads the ghosts, so
    // nothing uploads them.
    refused(GpuStrategy::PrecomputeBoundary, "ghosts", &|records, _| {
        let device_sweep = |r: &Record| r.place == Place::Device;
        tamper(records, device_sweep, Entity::Ghosts, None);
    });
    // Async: the combine no longer says it rewrites the unknown, so
    // nothing re-uploads it.
    refused(GpuStrategy::AsyncBoundary, "I", &|records, unknown| {
        let combine = |r: &Record| r.kernel == Kernel::Combine;
        tamper(
            records,
            combine,
            Entity::Variable(unknown),
            Some(Access::Read),
        );
    });
}

/// The async combine reads the kernel's result whether or not any callback
/// reads the unknown: its download is the only per-step one, is priced,
/// and is what the run performs.
#[test]
fn the_async_combine_alone_schedules_the_download_it_needs() {
    let strategy = GpuStrategy::AsyncBoundary;
    let mut solver = problem(true, false).build(gpu(strategy)).unwrap();
    let schedule = solver.compiled.transfer_schedule(strategy);
    assert_eq!(schedule.each_step_d2h(), ["I"]);
    let download = schedule.transfers.iter().find(|t| !t.to_device).unwrap();
    assert_eq!(
        download.reason,
        "unknown: the host combine reads the kernel's result"
    );
    assert!(analysis::check_schedule(&solver.compiled, &schedule).is_empty());

    let report = solver.solve().unwrap();
    let (checks, drift) = analysis::check_cost_drift(&solver.compiled, &solver.target, &report);
    assert!(drift.is_empty(), "{drift:?}");
    for c in checks.iter().filter(|c| c.counter.ends_with("_bytes")) {
        assert_eq!(c.predicted, c.observed, "{}", c.counter);
    }
}

/// The device backend draws one span per record it is handed: with a
/// callback wall under the async strategy every step is the ghosts and
/// the combine on the host around the sweep on the device, in list order.
#[test]
fn a_callback_wall_async_step_draws_its_three_records() {
    let mut solver = problem(true, true)
        .build(gpu(GpuStrategy::AsyncBoundary))
        .unwrap();
    let mut rec = pbte_dsl::exec::Recorder::buffered();
    let report = solver.solve_traced(&mut rec).unwrap();
    let place = |attrs: &[(&'static str, String)]| {
        let found = attrs.iter().find(|(k, _)| *k == "place");
        found.map(|(_, v)| v.clone())
    };
    let drawn: Vec<(String, String)> = (rec.spans().iter())
        .filter_map(|s| Some((s.name.clone(), place(&s.attrs)?)))
        .collect();
    let step = [
        ("ghost_eval", "host"),
        ("sweep", "device"),
        ("combine", "host"),
    ];
    let want: Vec<(String, String)> = (0..report.steps)
        .flat_map(|_| step.map(|(name, place)| (name.to_string(), place.to_string())))
        .collect();
    assert_eq!(drawn, want);
}
