//! The one builder of a step's stage records, over the whole matrix:
//! {Euler, RK2, implicit θ=1, steady} × the six targets × {all walls
//! lowered, one callback wall}. The list has the kinds and places the
//! (device?) × walls × integrator policy says, the schedule folded from it is the one the executors
//! follow, and a list with one access tampered yields a schedule the
//! transfer proof refuses.

use pbte_dsl::analysis::{self, rules, Scope};
use pbte_dsl::dataflow::{
    step_records, Access, Entity, Kernel, Place, Plan, Policy, Record, Stage,
};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{BoundaryCondition, Integrator, Problem};
use pbte_dsl::{GpuStrategy, Severity};
use pbte_gpu::DeviceSpec;
use pbte_mesh::grid::UniformGrid;
use pbte_runtime::telemetry::{Span, SpanKind};

/// The `ir_structure.rs` fixture: `callback_wall` leaves the left wall to
/// a closure, `post_step` registers a post-step callback that reads `I`
/// and writes `Io` and `beta`, as the temperature update does.
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
        p.post_step("temperature_update", &["I"], &["Io", "beta"], |_| {});
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
    use Kernel::{Callback, GhostEval, Sweep};
    use Place::{Device, Host};
    let steady = Integrator::Steady {
        tol: 1e-6,
        growth: 2.0,
    };
    let schemes = [
        Integrator::Explicit,
        Integrator::Rk2,
        Integrator::Implicit { theta: 1.0 },
        steady,
    ];
    for target in targets() {
        let device = target.on_device();
        for integrator in schemes {
            if device && integrator == Integrator::Rk2 {
                continue; // the device lineage does not run RK2
            }
            for callback_wall in [false, true] {
                let case = format!("{} {integrator:?} {callback_wall}", target.label());
                let mut p = problem(callback_wall, true);
                p.integrator(integrator);
                let solver = p.build(target.clone()).expect(&case);
                let cp = &solver.compiled;
                let scope = Scope::whole(cp);
                let stage = Stage::build(cp, Plan::Main, &target, &scope);

                let fused = integrator == Integrator::Explicit;
                let sweep_at = if device { Device } else { Host };
                let mut want = Vec::new();
                if callback_wall {
                    want.push((GhostEval { plan: Plan::Main }, Host));
                }
                let fused_dt = fused.then_some(cp.problem.dt);
                let plan = Plan::Main;
                want.push((Sweep { plan, fused_dt }, sweep_at));
                want.push((
                    Callback {
                        pre: false,
                        index: 0,
                    },
                    Host,
                ));
                assert_eq!(shape(&stage.records), want, "{case}");

                // The sweep reads the ghosts, lowered or host-computed; it
                // is the only record that touches the device.
                let is_sweep = |r: &&Record| matches!(r.kernel, Sweep { .. });
                let sweep = stage.records.iter().find(is_sweep).unwrap();
                assert!(sweep.reads(Entity::Ghosts), "{case}");
                assert!(sweep.writes(Entity::Variable(cp.system.unknown)), "{case}");
                assert!(stage.records.iter().all(|r| std::ptr::eq(r.range, &scope)));

                // The JVP plan of an implicit solve: its own ghosts and
                // sweep, no callbacks.
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

                if !device {
                    assert!(
                        stage.schedule.is_none(),
                        "{case}: a CPU stage moves nothing"
                    );
                    continue;
                }
                let each_h2d = names(&stage, Policy::EveryStep, true);
                let once_h2d = names(&stage, Policy::Once, true);
                let each_d2h = names(&stage, Policy::EveryStep, false);
                let on = |list: &[String], name: &str| list.iter().any(|n| n == name);
                if !integrator.is_implicit() {
                    // The stage carries the step schedule, and that
                    // schedule is clean.
                    let schedule = analysis::synthesize_records(cp, &stage.records);
                    assert_eq!(schedule.transfers, cp.transfer_schedule().transfers);
                    let carried = stage.schedule.as_ref().unwrap();
                    assert_eq!(schedule.transfers, carried.transfers, "{case}");
                    assert!(analysis::check_schedule(cp, &schedule).is_empty(), "{case}");
                    // What synth_schedule.rs, verifier.rs and
                    // transfer_oracle.rs pin: the post-step rewrites Io
                    // and beta and reads I; the unknown goes up once and
                    // stays, the ghosts go up per step only while the host
                    // evaluates them for the kernel.
                    assert!(on(&each_h2d, "Io") && on(&each_h2d, "beta"), "{case}");
                    assert!(!on(&each_h2d, "I") && on(&once_h2d, "I"), "{case}");
                    assert_eq!(on(&each_h2d, "ghosts"), callback_wall, "{case}");
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
    let solver = problem(true, true)
        .build(gpu(GpuStrategy::AsyncBoundary))
        .unwrap();
    let cp = &solver.compiled;
    let scope = Scope::whole(cp);
    let refused = |entity: &str, tampering: &dyn Fn(&mut [Record])| {
        let mut records = step_records(cp, Plan::Main, true, &scope);
        let clean = analysis::synthesize_records(cp, &records);
        assert!(analysis::check_schedule(cp, &clean).is_empty());

        tampering(&mut records);
        let bad = analysis::synthesize_records(cp, &records);
        let stale = analysis::check_schedule(cp, &bad);
        let hit = |d: &&analysis::Diagnostic| d.entity == entity && d.severity == Severity::Error;
        assert!(
            stale
                .iter()
                .filter(hit)
                .any(|d| d.rule == rules::STALE_READ),
            "{entity}: {stale:?}"
        );
    };
    // The device sweep no longer says it reads the ghosts, so nothing
    // uploads them.
    refused("ghosts", &|records| {
        let device_sweep = |r: &Record| r.place == Place::Device;
        tamper(records, device_sweep, Entity::Ghosts, None);
    });
    // The host no longer says it rewrites them, so they go up once only.
    refused("ghosts", &|records| {
        let ghost_eval = |r: &Record| matches!(r.kernel, Kernel::GhostEval { .. });
        tamper(records, ghost_eval, Entity::Ghosts, None);
    });
}

/// The device backend draws one span per record it is handed: with a
/// callback wall every step is the ghosts on the host, the sweep on the
/// device, then the post-step callback, in list order.
#[test]
fn a_callback_wall_async_step_draws_its_three_records() {
    let mut solver = problem(true, true)
        .build(gpu(GpuStrategy::AsyncBoundary))
        .unwrap();
    let mut rec = pbte_dsl::exec::Recorder::buffered();
    let report = solver.solve_traced(&mut rec).unwrap();
    let place = |attrs: &[(&'static str, String)]| {
        let found = attrs.iter().find(|(k, _)| *k == "place");
        found.map_or("host", |(_, v)| v.as_str()).to_string()
    };
    let record = |s: &&&Span| matches!(s.kind, SpanKind::Kernel | SpanKind::Callback);
    let drawn: Vec<(String, String)> = (rec.spans().iter())
        .filter(record)
        .map(|s| (s.name.clone(), place(&s.attrs)))
        .collect();
    let step = [
        ("ghost_eval", "host"),
        ("sweep", "device"),
        ("temperature_update", "host"),
    ];
    let want: Vec<(String, String)> = (0..report.steps)
        .flat_map(|_| step.map(|(name, place)| (name.to_string(), place.to_string())))
        .collect();
    assert_eq!(drawn, want);
}
