//! Negative seams for the dimensional-analysis obligation: each broken
//! scenario must fire *exactly* its rule — `units/mismatch` for a wrong
//! declared dimension, `units/transcendental-arg` for a dimensionful
//! transcendental argument, `units/undeclared-symbol` (warning only) for
//! a symbol without a declaration. The seams are injected through the
//! same `.pbte` override sections users would trip over, starting from
//! the known-good committed hotspot scenario.

use pbte_bte::pbte::{parse_pbte, ScenarioSpec};
use pbte_dsl::{analysis, ExecTarget, Severity};
use std::collections::BTreeSet;
use std::path::Path;

fn hotspot_source() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/hotspot.pbte");
    std::fs::read_to_string(path).unwrap()
}

fn units_rules(diags: &[pbte_dsl::Diagnostic]) -> BTreeSet<&str> {
    diags
        .iter()
        .filter(|d| d.rule.starts_with("units/"))
        .map(|d| d.rule)
        .collect()
}

#[test]
fn clean_scenario_has_no_units_findings() {
    let spec = parse_pbte(&hotspot_source()).unwrap();
    let (_, diags) = spec.build().unwrap().verified(ExecTarget::CpuSeq).unwrap();
    assert!(units_rules(&diags).is_empty(), "{diags:?}");
}

#[test]
fn wrong_declared_dimension_fires_only_units_mismatch() {
    // A volumetric power density (W/m^3) where the equilibrium intensity
    // (W/m^2) belongs: the classic flux-vs-source confusion. `Io - I`
    // now adds incompatible dimensions.
    let src = format!("{}\n[units]\nIo = W/m^3\n", hotspot_source());
    let spec = parse_pbte(&src).unwrap();
    let Err(diags) = spec.build().unwrap().verified(ExecTarget::CpuSeq) else {
        panic!("mismatched declaration must be refused");
    };
    assert_eq!(
        units_rules(&diags),
        BTreeSet::from(["units/mismatch"]),
        "{diags:?}"
    );
    assert!(diags
        .iter()
        .filter(|d| d.rule.starts_with("units/"))
        .all(|d| d.severity == Severity::Error));
}

#[test]
fn transcendental_of_dimensionful_arg_fires_only_its_rule() {
    // exp() of a Kelvin-valued field: dimensionally meaningless however
    // the balance works out.
    let src = format!(
        "{}\n[pde]\nequation = (Io[b] - I[d,b]) * beta[b] * exp(T) \
         + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))\n",
        hotspot_source()
    );
    let spec = parse_pbte(&src).unwrap();
    let Err(diags) = spec.build().unwrap().verified(ExecTarget::CpuSeq) else {
        panic!("exp(T) must be refused");
    };
    assert_eq!(
        units_rules(&diags),
        BTreeSet::from(["units/transcendental-arg"]),
        "{diags:?}"
    );
}

#[test]
fn undeclared_symbol_warns_and_skips_the_proof() {
    // Strip the group-velocity declaration after the defaults were
    // applied: the pass must degrade to a warning naming `vg` (and must
    // not claim a mismatch it can no longer prove).
    let spec = ScenarioSpec::from_file(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/hotspot.pbte"),
    )
    .unwrap();
    let mut bte = spec.build().unwrap();
    bte.problem.units.retain(|(n, _)| n != "vg");
    let solver = bte.problem.build(ExecTarget::CpuSeq).unwrap();
    let mut diags = Vec::new();
    analysis::check_units(&solver.compiled, &mut diags);
    assert_eq!(
        units_rules(&diags),
        BTreeSet::from(["units/undeclared-symbol"]),
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    assert!(diags.iter().any(|d| d.entity == "vg"));
}
