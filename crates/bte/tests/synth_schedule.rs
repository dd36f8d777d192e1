//! Property tests for the schedule synthesis pass.
//!
//! Across the full verification sweep (both scenarios, both temperature
//! strategies, all six targets, all three kernel tiers, all three
//! integrators) the plan — its synthesized transfer schedule included —
//! must verify clean. On top of the static property, every target driven
//! by the synthesized schedule must reproduce the sequential trajectory —
//! bit for bit where the arithmetic is the same — so a schedule that
//! dropped a needed copy cannot hide.

use pbte_bte::scenario::{elongated, hotspot_2d, BteConfig, BteProblem};
use pbte_bte::temperature::TemperatureStrategy;
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{Integrator, KernelTier};
use pbte_dsl::GpuStrategy;
use pbte_gpu::DeviceSpec;

fn targets(ranks: usize) -> Vec<(String, ExecTarget)> {
    vec![
        ("seq".into(), ExecTarget::CpuSeq),
        ("par".into(), ExecTarget::CpuParallel),
        (format!("cells:{ranks}"), ExecTarget::DistCells { ranks }),
        (
            format!("bands:{ranks}"),
            ExecTarget::DistBands {
                ranks,
                index: "b".into(),
            },
        ),
        (
            "gpu:async".into(),
            ExecTarget::GpuHybrid {
                spec: DeviceSpec::a6000(),
                strategy: GpuStrategy::AsyncBoundary,
            },
        ),
        (
            format!("bands-gpu:{ranks}"),
            ExecTarget::DistBandsGpu {
                ranks,
                index: "b".into(),
                spec: DeviceSpec::a6000(),
                strategy: GpuStrategy::AsyncBoundary,
            },
        ),
    ]
}

/// The full 216-combo sweep: every plan verifies clean, and on the 72
/// GPU-lineage plans that includes the transfer proof of the synthesized
/// schedule (no stale read, no redundant copy).
#[test]
fn synthesis_is_certified_and_minimal_across_the_sweep() {
    type Scenario = fn(&BteConfig) -> BteProblem;
    let scenarios: [(&str, Scenario); 2] = [("hotspot", hotspot_2d), ("elongated", elongated)];
    let strategies = [
        ("redundant", TemperatureStrategy::RedundantNewton),
        ("divided", TemperatureStrategy::DividedNewton),
    ];
    let tiers = [
        ("vm", KernelTier::Vm),
        ("row", KernelTier::Row),
        ("native", KernelTier::Native),
    ];
    let integrators = [
        ("explicit", Integrator::Explicit),
        ("implicit", Integrator::Implicit { theta: 1.0 }),
        (
            "steady",
            Integrator::Steady {
                tol: 1e-6,
                growth: 2.0,
            },
        ),
    ];
    let mut synthesized = 0usize;
    for (sname, scenario) in scenarios {
        for (stname, strategy) in strategies {
            let cfg = BteConfig::small(6, 8, 4, 2).with_temperature_strategy(strategy);
            for (tname, target) in targets(2) {
                for (kname, tier) in tiers {
                    for (iname, integrator) in integrators {
                        let mut bte = scenario(&cfg);
                        bte.problem.kernel_tier(tier);
                        bte.problem.integrator(integrator);
                        let solver = bte.problem.build(target.clone()).unwrap_or_else(|e| {
                            panic!("{sname}/{stname}/{tname}/{kname}/{iname}: {e:?}")
                        });
                        let diags = solver.compiled.verify_plan(&solver.target);
                        synthesized += usize::from(solver.target.on_device());
                        assert!(
                            diags.is_empty(),
                            "{sname}/{stname}/{tname}/{kname}/{iname}: {:?}",
                            diags.iter().map(|d| d.render()).collect::<Vec<_>>()
                        );
                    }
                }
            }
        }
    }
    // 2 scenarios × 2 strategies × 2 GPU-lineage targets × 3 tiers × 3
    // integrators.
    assert_eq!(synthesized, 72, "every GPU-lineage plan synthesizes");
}

/// Every target, moving exactly what the synthesized schedule says,
/// must land on the sequential trajectory bit for bit: every target runs
/// the same arithmetic in the same order, the band partitions' energy
/// fold included.
#[test]
fn synthesized_schedule_preserves_trajectories_bit_for_bit() {
    let run = |target: ExecTarget| -> Vec<f64> {
        let cfg = BteConfig::small(8, 8, 4, 3);
        let bte = hotspot_2d(&cfg);
        let mut solver = bte.problem.build(target).expect("valid scenario");
        solver.solve().expect("solve succeeds");
        let fields = solver.fields();
        (0..fields.n_vars())
            .flat_map(|v| fields.slice(v).iter().copied())
            .collect()
    };
    let seq = run(ExecTarget::CpuSeq);
    for (tname, target) in targets(2) {
        let got = run(target);
        for (i, (a, b)) in seq.iter().zip(&got).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{tname}: value {i}: {a} vs {b}");
        }
    }
}
