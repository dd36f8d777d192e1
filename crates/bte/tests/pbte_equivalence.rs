//! The textual `hotspot.pbte` scenario must be indistinguishable from the
//! built-in `hotspot_2d` builder: the same `ScenarioSpec` (mesh, material,
//! dt = auto, boundary conditions and their order), the same compiled plan
//! parameters and a bit-identical trajectory — not a numerical tolerance.

use pbte_bte::boundary::gaussian_field;
use pbte_bte::pbte::ScenarioSpec;
use pbte_bte::scenario::hotspot_2d;
use pbte_bte::BteConfig;
use pbte_dsl::ExecTarget;
use pbte_mesh::Point;
use std::path::{Path, PathBuf};

fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(name)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: dof {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn hotspot_pbte_matches_hardcoded_builder_bit_for_bit() {
    let spec = ScenarioSpec::from_file(scenario_path("hotspot.pbte")).unwrap();
    let builtin = ScenarioSpec::hotspot(&BteConfig::small(12, 8, 4, 4));
    // Field by field; only where mesh files would resolve differs.
    let file = ScenarioSpec {
        base_dir: builtin.base_dir.clone(),
        ..spec.clone()
    };
    assert_eq!(file, builtin);
    let textual = spec.build().unwrap();
    let hardcoded = hotspot_2d(&BteConfig::small(12, 8, 4, 4));

    let tv = textual.vars;
    let hv = hardcoded.vars;
    assert_eq!(tv.i, hv.i);
    assert_eq!(tv.t, hv.t);

    let mut ts = textual.solver(ExecTarget::CpuSeq).unwrap();
    let mut hs = hardcoded.solver(ExecTarget::CpuSeq).unwrap();
    assert_eq!(
        ts.compiled.problem.dt.to_bits(),
        hs.compiled.problem.dt.to_bits()
    );
    assert_eq!(ts.compiled.problem.n_steps, hs.compiled.problem.n_steps);
    assert_eq!(ts.compiled.problem.name, hs.compiled.problem.name);
    assert_eq!(ts.compiled.problem.ranges, hs.compiled.problem.ranges);
    assert_eq!(ts.compiled.problem.units, hs.compiled.problem.units);

    // Initial state (intensity, equilibrium, scattering rate, temperature)
    // must already coincide; then the whole trajectory does.
    for (var, what) in [(tv.i, "initial I"), (tv.t, "initial T")] {
        assert_bits_eq(ts.fields().slice(var), hs.fields().slice(var), what);
    }
    ts.solve().unwrap();
    hs.solve().unwrap();
    for (var, what) in [
        (tv.i, "final I"),
        (tv.io, "final Io"),
        (tv.beta, "final beta"),
        (tv.t, "final T"),
    ] {
        assert_bits_eq(ts.fields().slice(var), hs.fields().slice(var), what);
    }
}

/// `headline.pbte` is the paper's headline plan as a file: the spec the
/// built-in hot spot makes of `BteConfig::paper_headline` at two steps,
/// field by field. Parsed only; the library test below builds and solves
/// it.
#[test]
fn headline_pbte_is_the_paper_headline_config() {
    let spec = ScenarioSpec::from_file(scenario_path("headline.pbte")).unwrap();
    let builtin = ScenarioSpec::hotspot(&BteConfig {
        n_steps: 2,
        ..BteConfig::paper_headline()
    });
    let file = ScenarioSpec {
        base_dir: builtin.base_dir.clone(),
        ..spec
    };
    assert_eq!(file, builtin);
}

/// One centre of the Gaussian field a hot-spot wall and the initial pulses
/// share is the single hot spot's arithmetic, bit for bit:
/// `t_ref + (t_peak − t_ref)·exp(−2·d²/width²)`, `d² = dx² + dy² + dz²`,
/// along the hot-spot die's top wall and through the centre itself.
#[test]
fn one_centre_of_the_gaussian_field_is_the_single_hot_spot() {
    let (t_ref, t_peak, width, l) = (300.0, 350.0, 50e-6, 525e-6);
    let centre = Point::xy(l * 0.5, l);
    let field = gaussian_field(t_ref, t_peak, width, vec![centre]);
    for i in 0..=96 {
        let p = Point::xy(i as f64 * l / 96.0, l);
        let (dx, dy, dz) = (p.x - centre.x, p.y - centre.y, p.z - centre.z);
        let d2 = dx * dx + dy * dy + dz * dz;
        let wall = t_ref + (t_peak - t_ref) * (-2.0 * d2 / (width * width)).exp();
        assert_eq!(field(p).to_bits(), wall.to_bits(), "x = {}", p.x);
    }
}

/// Every scenario in the committed library parses, builds, passes the
/// verification gate, and runs its first steps on the sequential target.
#[test]
fn scenario_library_builds_and_verifies() {
    let dir = scenario_path("");
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "pbte"))
        .collect();
    entries.sort();
    for path in entries {
        seen += 1;
        let spec =
            ScenarioSpec::from_file(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let (mut solver, diags) = (spec.build().map_err(|d| vec![d]))
            .and_then(|bte| bte.verified(ExecTarget::CpuSeq))
            .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        assert!(diags.is_empty(), "{}: {diags:?}", path.display());
        solver
            .solve()
            .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
    }
    assert!(seen >= 4, "scenario library shrank: {seen} files");
}

/// An integrator whose parameters the problem would refuse is a parse
/// error naming its line, never a panic in `build`: the tolerance of a
/// steady solve must lie below 1, its growth factor above 1, and θ in
/// (0, 1].
#[test]
fn out_of_range_integrators_are_refused_not_built() {
    let text = std::fs::read_to_string(scenario_path("hotspot.pbte")).unwrap();
    let line = text
        .lines()
        .position(|l| l == "integrator = explicit")
        .expect("the hot-spot file declares its integrator")
        + 1;
    for bad in [
        "steady:1.5:2",
        "steady:1e-6:1",
        "steady:nan:2",
        "implicit:2",
        "implicit:abc",
        "explicit:1",
    ] {
        let edited = text.replace("integrator = explicit", &format!("integrator = {bad}"));
        let outcome = std::panic::catch_unwind(|| {
            pbte_bte::pbte::parse_pbte(&edited).and_then(|spec| spec.build().map(drop))
        });
        let err = outcome
            .unwrap_or_else(|_| panic!("`{bad}` panicked"))
            .expect_err(bad);
        assert!(
            err.to_string().contains(&format!("line {line}")),
            "{bad}: {err}"
        );
    }
}
