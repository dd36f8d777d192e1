//! Degradation seam for the native tier: when `rustc` is unavailable the
//! intensity phase must fall back to the row tier, record a structured
//! `native/fallback` diagnostic, and complete the solve — never error.
//! Likewise for a plan the emitted code cannot run (a flux calling a
//! function coefficient, a host closure), which falls back to the row
//! tier and matches the `vm` tier bit for bit.
//!
//! This lives in its own integration-test binary because the simulated
//! missing compiler is communicated through process-wide environment
//! variables (`PBTE_NATIVE_RUSTC`, `PBTE_NATIVE_CACHE_DIR`) that must be
//! set before the first native preparation anywhere in the process, and
//! because the in-process plan cache also memoizes *failures* per hash.

use pbte_dsl::analysis::rules;
use pbte_dsl::exec::{ExecTarget, Recorder};
use pbte_dsl::problem::{KernelTier, Problem};
use pbte_dsl::{BoundaryCondition, Severity};
use pbte_mesh::grid::UniformGrid;

/// `speed` multiplies the upwind flux; the problem names no tier.
fn mini_bte_with_speed(speed: &str) -> Problem {
    let mut p = Problem::new("fallback-mini");
    p.domain(2);
    p.mesh(UniformGrid::new_2d(6, 6, 1.0, 1.0).build());
    p.set_steps(1e-3, 2);
    let d = p.index("d", 4);
    let b = p.index("b", 2);
    let i_var = p.variable("I", &[d, b]);
    let io = p.variable("Io", &[b]);
    p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
    p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
    p.coefficient_array("vg", &[b], vec![1.0, 0.5]);
    p.coefficient_scalar("tau", 2.0);
    p.coefficient_fn("ramp", |x, _| 1.0 + x.x);
    p.initial(i_var, |_, _| 1.0);
    p.initial(io, |_, _| 1.0);
    for side in ["left", "right", "top", "bottom"] {
        p.boundary(i_var, side, BoundaryCondition::Value(1.0));
    }
    p.conservation_form(
        i_var,
        &format!("(Io[b] - I[d,b]) / tau + surface({speed}*upwind([Sx[d];Sy[d]], I[d,b]))"),
    );
    p
}

#[test]
#[cfg(all(unix, not(miri)))]
fn missing_rustc_degrades_to_row_tier_with_a_diagnostic() {
    // Simulate a host without a Rust compiler, and isolate the on-disk
    // cache so a previously compiled plan for this problem can't satisfy
    // the lookup before rustc would be invoked.
    let cache = std::env::temp_dir().join(format!("pbte-native-fallback-{}", std::process::id()));
    std::env::set_var("PBTE_NATIVE_RUSTC", "/nonexistent/pbte-no-such-rustc");
    std::env::set_var("PBTE_NATIVE_CACHE_DIR", &cache);

    // A run that names no tier asks for the native one.
    let mut solver = mini_bte_with_speed("vg[b]")
        .build(ExecTarget::CpuSeq)
        .unwrap();
    assert_eq!(solver.compiled.resolved_tier(), KernelTier::Native);
    let fields = solver.fields().clone();
    let bench = solver.compiled.intensity_bench(&fields, KernelTier::Native);

    // The tier degraded rather than erroring...
    assert_eq!(
        bench.tier(),
        KernelTier::Row,
        "expected a fallback to the row tier without rustc"
    );
    // ...and the degradation is observable as a structured diagnostic.
    let diag = bench
        .native_fallback()
        .expect("fallback must record a diagnostic");
    assert_eq!(diag.rule, rules::NATIVE_FALLBACK);
    assert!(
        diag.message.contains("row"),
        "diagnostic should name the tier it fell back to: {}",
        diag.render()
    );
    drop(bench);

    // A full solve on the degraded tier still completes, says it ran
    // `row`, and keeps the fallback as its one finding, a warning: nothing
    // that would fail the run.
    let mut rec = Recorder::buffered();
    let report = solver
        .solve_traced(&mut rec)
        .expect("solve must complete on the fallback tier");
    assert_eq!(report.steps, 2);
    let run_start = rec.summary_jsonl().lines().next().map(str::to_string);
    assert!(
        run_start
            .as_deref()
            .is_some_and(|l| l.contains(r#""tier":"row""#)),
        "{run_start:?}"
    );
    let kept = &report.findings.kept;
    assert_eq!(kept.len(), 1, "{kept:?}");
    assert_eq!(kept[0].name, rules::NATIVE_FALLBACK, "{kept:?}");
    assert_eq!(kept[0].severity, Severity::Warning, "{kept:?}");
    assert_eq!(report.findings.totals.values().sum::<u64>(), 1);

    let _ = std::fs::remove_dir_all(&cache);
}

/// A flux that calls a function coefficient lowers on the row tier, which
/// evaluates it at each face centroid — the position the `vm` tier's
/// per-face evaluation passes. The emitted native code cannot call a host
/// closure, so a `Native` request falls back to `Row` with a diagnostic
/// naming the reason. Both requests run `Row`, and over two steps the
/// field is bitwise equal to the `vm` run.
#[test]
fn function_coefficient_in_the_flux_degrades_with_a_named_reason() {
    let solve = |tier: KernelTier| {
        let mut problem = mini_bte_with_speed("ramp");
        problem.kernel_tier(tier);
        let mut solver = problem.build(ExecTarget::CpuSeq).unwrap();
        assert_eq!(solver.compiled.resolved_tier(), tier);
        assert!(solver.compiled.flux_lin.is_none(), "no table for a closure");
        let fields = solver.fields().clone();
        let bench = solver.compiled.intensity_bench(&fields, tier);
        let ran = bench.tier();
        let fallback = bench.native_fallback().cloned();
        drop(bench);
        assert_eq!(solver.solve().unwrap().steps, 2);
        (ran, fallback, solver.fields().slice(0).to_vec())
    };
    let (ran, _, reference) = solve(KernelTier::Vm);
    assert_eq!(ran, KernelTier::Vm);
    for requested in [KernelTier::Native, KernelTier::Row] {
        let (ran, fallback, field) = solve(requested);
        assert_eq!(ran, KernelTier::Row, "{requested:?} request");
        match requested {
            KernelTier::Native => {
                let diag = fallback.expect("fallback must record a diagnostic");
                assert_eq!(diag.rule, rules::NATIVE_FALLBACK);
                assert!(
                    diag.message.contains("row") && diag.message.contains("function coefficient"),
                    "diagnostic should name the tier and the reason: {}",
                    diag.render()
                );
            }
            _ => assert!(fallback.is_none()),
        }
        for (i, (a, b)) in field.iter().zip(&reference).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{requested:?} dof {i}: {a} vs {b}"
            );
        }
    }
}
