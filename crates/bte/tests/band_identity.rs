//! Band partitioning gives the sequential target's bits.
//!
//! The one cross-rank sum of the band-parallel strategy is the energy of
//! the temperature update, and it is a fold in rank order: each rank owns
//! a contiguous band range in rank order, so the fold adds `β_b·e_b` band
//! by band exactly as the sequential update does. The hot spot is run on
//! `bands:2`, `bands:3` (an uneven split of the bands) and `bands-gpu:2`
//! under every integrator and both temperature Newton strategies, and on
//! the CPU band targets under RK2; `I`, `T`, `Io` and `beta` must equal
//! `seq`'s bits.

use pbte_bte::scenario::{hotspot_2d, BteConfig, BteProblem};
use pbte_bte::temperature::TemperatureStrategy;
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::Integrator;
use pbte_dsl::GpuStrategy;
use pbte_gpu::DeviceSpec;

fn bands(ranks: usize) -> ExecTarget {
    ExecTarget::DistBands {
        ranks,
        index: "b".into(),
    }
}

fn bands_gpu(ranks: usize) -> ExecTarget {
    ExecTarget::DistBandsGpu {
        ranks,
        index: "b".into(),
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    }
}

fn hotspot(strategy: TemperatureStrategy, integrator: Integrator) -> BteProblem {
    let cfg = BteConfig::small(6, 4, 4, 6).with_temperature_strategy(strategy);
    let mut bp = hotspot_2d(&cfg);
    bp.problem.integrator(integrator);
    bp
}

/// The bits of `I`, `T`, `Io` and `beta` after the run.
fn run(bp: BteProblem, target: ExecTarget) -> Vec<(&'static str, Vec<u64>)> {
    let vars = bp.vars;
    let mut solver = bp.solver(target).expect("valid scenario");
    solver.solve().expect("solve succeeds");
    let f = solver.fields();
    let bits = |v: usize| f.slice(v).iter().map(|x| x.to_bits()).collect();
    vec![
        ("I", bits(vars.i)),
        ("T", bits(vars.t)),
        ("Io", bits(vars.io)),
        ("beta", bits(vars.beta)),
    ]
}

fn assert_seq_bits(make: impl Fn() -> BteProblem, targets: &[ExecTarget], what: &str) {
    let seq = run(make(), ExecTarget::CpuSeq);
    for target in targets {
        for ((name, want), (_, got)) in seq.iter().zip(run(make(), target.clone())) {
            let first = want.iter().zip(&got).position(|(a, b)| a != b);
            assert!(
                first.is_none(),
                "{what} {}: {name}[{}] differs from seq",
                target.label(),
                first.unwrap_or(0)
            );
        }
    }
}

#[test]
fn every_band_target_gives_seq_bits_under_every_integrator_and_strategy() {
    let n_bands = hotspot_2d(&BteConfig::small(6, 4, 4, 6)).material.n_bands();
    assert_ne!(n_bands % 3, 0, "bands:3 must split the bands unevenly");
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
    let targets = [bands(2), bands(3), bands_gpu(2)];
    for strategy in [
        TemperatureStrategy::RedundantNewton,
        TemperatureStrategy::DividedNewton,
    ] {
        for (name, integrator) in integrators {
            let make = || hotspot(strategy, integrator);
            assert_seq_bits(make, &targets, &format!("{name} {strategy:?}"));
        }
    }
}

#[test]
fn rk2_on_the_cpu_band_targets_gives_seq_bits() {
    for strategy in [
        TemperatureStrategy::RedundantNewton,
        TemperatureStrategy::DividedNewton,
    ] {
        let make = || hotspot(strategy, Integrator::Rk2);
        assert_seq_bits(make, &[bands(2), bands(3)], &format!("rk2 {strategy:?}"));
    }
}
