//! Dynamic transfer oracle: the simulated device's profiler log is the
//! ground truth the static `TransferSchedule` must cover.
//!
//! Running the hot-spot scenario (the paper's Fig 4 configuration, scaled
//! down) on the hybrid GPU target, every host↔device copy the executor
//! issues is counted by `pbte-gpu`'s profiler. The static schedule must be
//! a **superset** of the observed transfers — every copy the run makes is
//! schedule-justified — and free of redundant entries — nothing in the
//! schedule predicts a copy the run never needs. Both directions together
//! mean the observed counts *equal* the schedule's prediction:
//!
//! ```text
//! h2d.count == |Once H2D variables and ghost image| + steps · |EveryStep H2D|
//! d2h.count == steps · |EveryStep D2H|
//! ```
//!
//! Coefficient `Once` entries are excluded from the H2D prediction: the
//! simulated kernels close over the coefficient tables (the codegen bakes
//! them into the kernel, the analogue of `__constant__` memory), so no
//! runtime copy corresponds to those schedule lines.
//!
//! Both hot-spot walls are lowered into the plan (an isothermal image, a
//! specular gather), so no host code reads or writes a wall and the
//! synthesizer schedules no per-step upload: under **both** strategies
//! the log holds exactly one upload of the unknown and one of the ghost
//! image, and the byte total is what the schedule prices.

use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::dataflow::Policy;
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::{analysis, GpuStrategy};
use pbte_gpu::DeviceSpec;

fn observed_matches_schedule(strategy: GpuStrategy) {
    let steps = 5;
    let cfg = BteConfig::small(8, 8, 4, steps);
    let bte = hotspot_2d(&cfg);
    let mut solver = bte
        .solver(ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy,
        })
        .expect("valid scenario");
    let schedule = solver.compiled.transfer_schedule();

    // The static verifier agrees the schedule has no stale reads and no
    // redundant entries before we hold it to the dynamic log.
    let diags = analysis::check_schedule(&solver.compiled, &schedule);
    assert!(diags.is_empty(), "static schedule must be clean: {diags:?}");

    let report = solver.solve().expect("solve succeeds");
    let profile = report
        .device
        .as_ref()
        .expect("gpu target profiles the device");

    // Once-H2D entries that correspond to a runtime copy: registered
    // variables and the ghost image (coefficients are baked into the
    // kernel closures).
    let fields = solver.fields();
    let once_h2d: Vec<&str> = schedule
        .transfers
        .iter()
        .filter(|t| t.to_device && t.policy == Policy::Once)
        .map(|t| t.name.as_str())
        .filter(|name| fields.var_id(name).is_some() || *name == "ghosts")
        .collect();
    let expected_h2d = once_h2d.len() + steps * schedule.each_step_h2d().len();
    let expected_d2h = steps * schedule.each_step_d2h().len();

    assert_eq!(
        profile.h2d.count, expected_h2d,
        "{strategy:?}: observed H2D copies must exactly match the schedule \
         (fewer ⇒ the schedule is not a superset of the observed transfers; \
         more ⇒ the executor moves data the schedule cannot justify)"
    );
    assert_eq!(
        profile.d2h.count, expected_d2h,
        "{strategy:?}: observed D2H copies must exactly match the schedule"
    );
    assert!(profile.h2d.bytes > 0 && profile.d2h.bytes > 0);

    // The unknown and the ghost image go up exactly once: no host code
    // rewrites either, so neither has a per-step upload.
    assert!(once_h2d.contains(&"I") && once_h2d.contains(&"ghosts"));
    let each_step = schedule.each_step_h2d();
    assert!(!each_step.contains(&"I") && !each_step.contains(&"ghosts"));
    // Counts and bytes together pin every copy: the total is the
    // schedule's price, which is what the cost model predicts.
    let (checks, drift) = analysis::check_cost_drift(&solver.compiled, &solver.target, &report);
    assert!(drift.is_empty(), "{drift:?}");
    for c in checks.iter().filter(|c| c.counter.ends_with("_bytes")) {
        assert_eq!(c.predicted, c.observed, "{strategy:?}: {}", c.counter);
    }
}

/// The device target runs the sequential target's plan: the same bits,
/// and the value every target reaches is pinned.
#[test]
fn both_strategies_run_the_same_stage_bit_identical_to_seq() {
    let run = |target: ExecTarget| {
        let cfg = BteConfig::small(8, 8, 4, 5);
        let bte = hotspot_2d(&cfg);
        let (i_var, t_var) = (bte.vars.i, bte.vars.t);
        let mut solver = bte.solver(target).expect("valid scenario");
        let report = solver.solve().expect("solve succeeds");
        let fields = solver.fields();
        let hash = fields
            .slice(i_var)
            .iter()
            .chain(fields.slice(t_var))
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            });
        (hash, report)
    };
    let gpu = |strategy| ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy,
    };
    let (seq, seq_report) = run(ExecTarget::CpuSeq);
    assert_eq!(seq_report.work.ghost_evals, 0, "no wall is a callback");
    let (asynchronous, _) = run(gpu(GpuStrategy::AsyncBoundary));
    assert_eq!(asynchronous, seq, "gpu:async is bit-identical to seq");
    // Pinned: the value every target reaches.
    assert_eq!(seq, PINNED_FIELD_HASH, "{seq:#x}");
}

/// FNV-style fold of the final `I` and `T` bits of the 8×8 hot spot after
/// five steps, taken from the sequential target of the parent commit.
const PINNED_FIELD_HASH: u64 = 0x0b61_53a6_e65c_dca0;

#[test]
fn async_boundary_schedule_covers_observed_transfers() {
    observed_matches_schedule(GpuStrategy::AsyncBoundary);
}

#[test]
fn schedule_without_d2h_would_be_caught_statically() {
    // Cross-check between the negative seam and the oracle: deleting the
    // D2H the run demonstrably performs turns into a stale-read diagnostic.
    let cfg = BteConfig::small(8, 8, 4, 2);
    let solver = hotspot_2d(&cfg)
        .solver(ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        })
        .expect("valid scenario");
    let mut schedule = solver.compiled.transfer_schedule();
    schedule.transfers.retain(|t| t.to_device);
    let diags = analysis::check_schedule(&solver.compiled, &schedule);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == analysis::rules::STALE_READ && d.entity == "I"),
        "dropping every D2H must flag the unknown as stale on the host: {diags:?}"
    );
}
