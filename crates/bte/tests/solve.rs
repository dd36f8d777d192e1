//! End-to-end physics tests: solve the paper's scenarios at reduced scale
//! and check physical invariants plus cross-target agreement on the real
//! BTE (not just the mini problem the DSL crate tests with).

use pbte_bte::output::{summary, temperature_grid};
use pbte_bte::scenario::{coarse_3d, elongated, hotspot_2d, BteConfig};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::GpuStrategy;
use pbte_gpu::DeviceSpec;

#[test]
fn hotspot_heats_the_top_and_conserves_sanity() {
    let cfg = BteConfig::small(10, 8, 6, 120);
    let bte = hotspot_2d(&cfg);
    let vars = bte.vars;
    let mut solver = bte.solver(ExecTarget::CpuSeq).unwrap();
    let report = solver.solve().unwrap();
    assert_eq!(report.steps, 120);

    let grid = temperature_grid(solver.fields(), vars.t, 10, 10);
    let (mean, lo, hi) = summary(&grid);
    // Heating from the hot spot: max above the reference, nothing below
    // the cold-wall temperature beyond rounding.
    assert!(hi > 300.0 + 1e-6, "hot spot must heat the domain, max {hi}");
    assert!(lo > 300.0 - 1e-6, "nothing gets colder than the cold wall");
    assert!(mean < 350.0, "mean cannot exceed the peak");

    // The hottest cells hug the top wall, centered in x.
    let (hot_idx, _) =
        grid.iter().enumerate().fold(
            (0, f64::MIN),
            |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            },
        );
    let hot_row = hot_idx / 10;
    let hot_col = hot_idx % 10;
    assert_eq!(hot_row, 9, "hottest cell is on the top row");
    assert!(
        (3..=6).contains(&hot_col),
        "hot spot is centered, got col {hot_col}"
    );

    // Vertical monotonicity along the center column: temperature decays
    // away from the hot wall (monotone within a strict tolerance; the
    // ballistic fronts make it only approximately monotone early on).
    let col = 5;
    for row in 1..10 {
        let above = grid[row * 10 + col];
        let below = grid[(row - 1) * 10 + col];
        assert!(
            above >= below - 0.05,
            "temperature should not increase toward the cold wall \
             (row {row}: {above} vs {below})"
        );
    }

    // Intensities stay positive and finite.
    for &v in solver.fields().slice(vars.i) {
        assert!(v.is_finite() && v >= 0.0);
    }
}

#[test]
fn without_heating_everything_stays_at_equilibrium() {
    let mut cfg = BteConfig::small(6, 8, 4, 50);
    cfg.t_hot = cfg.t_ref; // hot spot switched off
    let bte = hotspot_2d(&cfg);
    let vars = bte.vars;
    let mut solver = bte.solver(ExecTarget::CpuSeq).unwrap();
    solver.solve().unwrap();
    let grid = temperature_grid(solver.fields(), vars.t, 6, 6);
    for &t in &grid {
        assert!(
            (t - 300.0).abs() < 1e-8,
            "equilibrium must be stationary, got {t}"
        );
    }
}

#[test]
fn bte_cross_target_agreement() {
    let make = || hotspot_2d(&BteConfig::small(6, 8, 4, 25));
    let mut seq = make().solver(ExecTarget::CpuSeq).unwrap();
    seq.solve().unwrap();
    let reference = seq.fields().clone();

    // Threaded: exact.
    let mut par = make().solver(ExecTarget::CpuParallel).unwrap();
    par.solve().unwrap();
    for v in 0..reference.n_vars() {
        let d = max_diff(reference.slice(v), par.fields().slice(v));
        assert_eq!(d, 0.0, "threaded variable {v} differs by {d}");
    }

    // Cell-distributed: exact.
    let mut cells = make().solver(ExecTarget::DistCells { ranks: 4 }).unwrap();
    cells.solve().unwrap();
    for v in 0..reference.n_vars() {
        let d = max_diff(reference.slice(v), cells.fields().slice(v));
        assert_eq!(d, 0.0, "cell-dist variable {v} differs by {d}");
    }

    // Band-distributed: the energy fold adds in the sequential order.
    let mut bands = make()
        .solver(ExecTarget::DistBands {
            ranks: 3,
            index: "b".into(),
        })
        .unwrap();
    bands.solve().unwrap();
    for v in 0..reference.n_vars() {
        let d = max_diff(reference.slice(v), bands.fields().slice(v));
        assert_eq!(d, 0.0, "band-dist variable {v} differs by {d}");
    }

    // GPU hybrid: exact.
    let mut gpu = make()
        .solver(ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        })
        .unwrap();
    gpu.solve().unwrap();
    for v in 0..reference.n_vars() {
        let d = max_diff(reference.slice(v), gpu.fields().slice(v));
        assert_eq!(d, 0.0, "gpu variable {v} differs by {d}");
    }
}

#[test]
fn elongated_scenario_heats_the_corner() {
    let mut cfg = BteConfig::small(6, 8, 4, 80);
    cfg.nx = 12;
    cfg.lx = 2.0 * cfg.ly;
    cfg.hot_width = 80e-6;
    let bte = elongated(&cfg);
    let vars = bte.vars;
    let mut solver = bte.solver(ExecTarget::CpuSeq).unwrap();
    solver.solve().unwrap();
    let grid = temperature_grid(solver.fields(), vars.t, 12, 6);
    // The top-left corner is hotter than the top-right corner.
    let top_left = grid[5 * 12];
    let top_right = grid[5 * 12 + 11];
    assert!(
        top_left > top_right + 1e-9,
        "corner source heats the left end: {top_left} vs {top_right}"
    );
}

#[test]
fn coarse_3d_runs_and_heats_the_back_face() {
    let bte = coarse_3d(4, 4, 8, 4, 30);
    let vars = bte.vars;
    let mut solver = bte.solver(ExecTarget::CpuSeq).unwrap();
    solver.solve().unwrap();
    let fields = solver.fields();
    // Mean T on the z=lz layer exceeds the z=0 layer.
    let layer = |k: usize| -> f64 {
        let mut acc = 0.0;
        for j in 0..4 {
            for i in 0..4 {
                acc += fields.value(vars.t, (k * 4 + j) * 4 + i, 0);
            }
        }
        acc / 16.0
    };
    assert!(layer(3) > layer(0) + 1e-9);
    for &v in fields.slice(vars.i) {
        assert!(v.is_finite() && v >= 0.0);
    }
}

#[test]
fn band_parallel_gpu_runs_the_paper_configuration_shape() {
    // The Fig 7 configuration at reduced scale: band partitioning with one
    // (simulated) device per process.
    let make = || hotspot_2d(&BteConfig::small(5, 8, 4, 10));
    let mut seq = make().solver(ExecTarget::CpuSeq).unwrap();
    seq.solve().unwrap();
    let mut multi = make()
        .solver(ExecTarget::DistBandsGpu {
            ranks: 2,
            index: "b".into(),
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        })
        .unwrap();
    let report = multi.solve().unwrap();
    for v in 0..seq.fields().n_vars() {
        let d = max_diff(seq.fields().slice(v), multi.fields().slice(v));
        assert_eq!(d, 0.0, "multi-gpu variable {v} differs by {d}");
    }
    // The phases of Fig 8 are present.
    assert!(report.timer.get("solve for intensity(GPU)") > 0.0);
    assert!(report.timer.get("communication(CPU<->GPU)") > 0.0);
    assert!(report.timer.get("temperature update(CPU)") > 0.0);
}

fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}
