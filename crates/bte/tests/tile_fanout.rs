//! One fan-out per sweep, same bits: the threaded target under
//! `ThreadPool::install(n)` cuts every flat's cell range into `n` tiles
//! and visits them from one parallel region; whatever `n` is, every dof
//! is evaluated by the same `rhs_block` arithmetic as on the sequential
//! target, so the fields agree bit for bit — on a grid (stencil runs), on
//! a jittered mesh (compiled flux), and in 3-D under the implicit
//! integrator (RHS and JVP sweeps) and under RK2 (the unfused stage and
//! the tile-walked `axpy`), at the row and native tiers. The jittered
//! lane is also where the compiled flux walks stencil runs: every sweep
//! reports the 24 × 24 − 4 cells of its mesh outside the corners as run
//! cells, whatever the cut.

use pbte_bte::pbte::ScenarioSpec;
use pbte_bte::scenario::{hotspot_2d, BteConfig, BteProblem};
use pbte_dsl::exec::{ExecTarget, Recorder};
use pbte_dsl::problem::{Integrator, TimeStepper};
use pbte_dsl::KernelTier;
use pbte_runtime::telemetry::SpanKind;
use std::path::Path;

fn scenario(file: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(file);
    ScenarioSpec::from_file(path).unwrap()
}

type Build = Box<dyn Fn() -> BteProblem>;

/// `(lane, builder)`: each builder yields a fresh problem of 2 steps.
fn lanes() -> Vec<(&'static str, Build)> {
    let file = |name: &'static str, rk2: bool| -> Build {
        Box::new(move || {
            let mut spec = scenario(name);
            spec.n_steps = 2;
            if rk2 {
                spec.integrator = Integrator::Explicit;
            }
            let mut bp = spec.build().unwrap();
            if rk2 {
                bp.problem.time_stepper(TimeStepper::Rk2);
            }
            bp
        })
    };
    vec![
        // 12 × 12 grid: twelve rows of ten cells and the two x-end columns
        // of ten, all stencil runs; the corners take the CSR walk.
        (
            "hotspot",
            Box::new(|| hotspot_2d(&BteConfig::small(12, 4, 2, 2))),
        ),
        ("jittered", file("jittered_array.pbte", false)),
        ("die3d implicit", file("die3d.pbte", false)),
        ("die3d rk2", file("die3d.pbte", true)),
    ]
}

/// How a kernel span says its sweep went: `(tiles, workers, run_cells)`.
type Cut = (usize, usize, usize);

/// Solve on `target`; the unknown and the temperature, and the distinct
/// cuts of the run's kernel spans.
fn solve(
    build: &dyn Fn() -> BteProblem,
    tier: KernelTier,
    target: ExecTarget,
) -> (Vec<f64>, Vec<f64>, Vec<Cut>) {
    let mut bp = build();
    bp.problem.kernel_tier(tier);
    let vars = bp.vars;
    let mut solver = bp.solver(target).unwrap();
    let mut rec = Recorder::buffered();
    solver.solve_traced(&mut rec).unwrap();
    let attr = |s: &pbte_runtime::telemetry::Span, key: &str| -> usize {
        let found = s.attrs.iter().find(|(k, _)| *k == key);
        found
            .expect("sweep spans say how they were cut")
            .1
            .parse()
            .unwrap()
    };
    let mut cuts: Vec<Cut> = rec
        .spans()
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Kernel))
        .filter(|s| s.name == "intensity_rhs" || s.name == "jvp_rhs")
        .map(|s| (attr(s, "tiles"), attr(s, "workers"), attr(s, "run_cells")))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let fields = solver.fields();
    (
        fields.slice(vars.i).to_vec(),
        fields.slice(vars.t).to_vec(),
        cuts,
    )
}

#[test]
fn par_under_any_thread_count_is_bit_identical_to_seq() {
    for (lane, build) in lanes() {
        for tier in [KernelTier::Row, KernelTier::Native] {
            let (i_seq, t_seq, cut_seq) = solve(&*build, tier, ExecTarget::CpuSeq);
            let [(flats, 1, run_cells)] = cut_seq[..] else {
                panic!("{lane}: seq sweeps one tile per flat on one worker, got {cut_seq:?}");
            };
            if lane == "jittered" {
                assert_eq!(
                    run_cells,
                    24 * 24 - 4,
                    "{tier:?}: the compiled flux walks runs"
                );
            }
            for n in [1, 2, 3, 5] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .unwrap();
                let (i_par, t_par, cut) =
                    pool.install(|| solve(&*build, tier, ExecTarget::CpuParallel));
                assert_eq!(
                    cut,
                    [(flats * n, n, run_cells)],
                    "{lane} {tier:?} install({n})"
                );
                for (what, a, b) in [("I", &i_seq, &i_par), ("T", &t_seq, &t_par)] {
                    let same = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same && a.len() == b.len(),
                        "{lane} {tier:?} install({n}): {what} differs"
                    );
                }
            }
        }
    }
}
