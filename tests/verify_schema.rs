//! Schema pin for `pbte-verify --json` — the machine-readable verifier
//! document CI archives and diffs. The verify job keys on `diagnostics`
//! (tagged findings) and `timings` (per-plan pass costs), so a verifier
//! refactor that renames a field, drops the per-pass timing columns, or
//! loses the `.pbte` scenario lanes must fail here rather than silently
//! emptying the CI artifact.
//!
//! Runs the real binary over a shrunken built-in sweep (`n=6 steps=2`)
//! with the dimensional-analysis pass enabled; the committed scenario
//! library rides along at its own (file-defined) sizes.

use serde::Value;
use std::process::Command;

fn run_verify() -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_pbte-verify"))
        .args(["n=6", "steps=2", "--units", "--json"])
        .output()
        .expect("pbte-verify runs");
    assert!(
        out.status.success(),
        "pbte-verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    serde_json::from_str(text.trim()).expect("output is valid JSON")
}

fn str_of<'a>(v: &'a Value, key: &str, ctx: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s.as_str(),
        other => panic!("{ctx}: `{key}` must be a string, got {other:?}"),
    }
}

#[test]
fn verify_json_schema() {
    let v = run_verify();

    // A clean tree produces an empty diagnostics array — present, not
    // omitted. (Its entry schema is pinned by `Diagnostic::to_json`
    // unit tests; here we pin that the key and shape survive.)
    let Some(Value::Arr(diags)) = v.get("diagnostics") else {
        panic!("diagnostics array missing");
    };
    for d in diags {
        for key in ["scenario", "strategy", "target", "tier", "integrator"] {
            str_of(d, key, "diagnostic");
        }
        for key in ["severity", "rule", "entity", "location", "message"] {
            str_of(d, key, "diagnostic");
        }
    }
    assert!(
        diags.is_empty(),
        "committed tree must verify clean: {diags:?}"
    );

    let Some(Value::Arr(timings)) = v.get("timings") else {
        panic!("timings array missing");
    };
    assert!(!timings.is_empty(), "at least one plan timed");

    let mut builtin = 0usize;
    let mut pbte = 0usize;
    for t in timings {
        let scenario = str_of(t, "scenario", "timing");
        if scenario.starts_with("pbte:") {
            pbte += 1;
        } else {
            builtin += 1;
        }
        assert!(
            ["redundant", "divided"].contains(&str_of(t, "strategy", "timing")),
            "strategy tag"
        );
        str_of(t, "target", "timing");
        assert!(
            ["vm", "row", "native"].contains(&str_of(t, "tier", "timing")),
            "tier tag"
        );
        assert!(
            ["explicit", "implicit", "steady"].contains(&str_of(t, "integrator", "timing")),
            "integrator tag"
        );
        // The base obligation pass always runs; --units adds its column;
        // the passes we did not request must be explicit nulls so the
        // artifact diff can tell "not run" from "ran in 0 ms".
        let verify_ms = t
            .get("verify_ms")
            .and_then(Value::as_f64)
            .expect("verify_ms numeric");
        assert!(verify_ms >= 0.0 && verify_ms.is_finite());
        let units_ms = t
            .get("units_ms")
            .and_then(Value::as_f64)
            .expect("units_ms numeric when --units is on");
        assert!(units_ms >= 0.0 && units_ms.is_finite());
        for key in ["validate_ms", "intervals_ms", "cost_ms"] {
            assert_eq!(
                t.get(key),
                Some(&Value::Null),
                "`{key}` must be null when its pass is off"
            );
        }
    }

    // Built-in lanes: 2 scenarios × 2 strategies × 7 targets × 3 tiers ×
    // 3 integrators. Textual lanes: ≥ 4 committed scenarios × 7 targets ×
    // 3 tiers (each file fixes its own strategy and integrator).
    assert_eq!(builtin, 2 * 2 * 7 * 3 * 3, "built-in sweep shape");
    assert!(pbte >= 4 * 7 * 3, "scenario library lanes shrank: {pbte}");

    // Passes that were off must not fabricate summary blocks.
    assert!(v.get("cost").is_none(), "no cost block without --cost");
}

/// A flag the verifier does not know — a typo, or one a script kept after
/// the pass was removed — exits 2 naming it, before any plan is built.
#[test]
fn verify_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbte-verify"))
        .args(["--units", "--synth"])
        .output()
        .expect("pbte-verify runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--synth`"), "{stderr}");
}

/// One tier vocabulary: the per-flat stack interpreter's old name is an
/// unknown tier to the scenario driver, a usage error before any solve.
#[test]
fn pbte_refuses_the_bound_tier_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbte"))
        .args(["hotspot", "n=4", "steps=1", "tier=bound"])
        .output()
        .expect("pbte runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown tier `bound` (use vm, row or native)"),
        "{stderr}"
    );
}

/// Integrator and step values the problem would refuse are usage errors
/// of the scenario driver too — exit 2 naming the key, before any solve —
/// never a panic.
#[test]
fn pbte_refuses_out_of_range_integrators_and_steps() {
    for (arg, says) in [
        (
            "integrator=implicit:abc",
            "integrator=implicit:abc: `theta` expects a number",
        ),
        (
            "integrator=implicit:2",
            "integrator=implicit:2: theta must be in (0, 1]",
        ),
        (
            "integrator=steady:1.5:2",
            "integrator=steady:1.5:2: steady needs 0 < tol < 1",
        ),
        ("dt=abc", "dt=abc: expects a positive number of seconds"),
        ("dt=-1", "dt=-1: expects a positive number of seconds"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pbte"))
            .args(["hotspot", "n=4", "steps=1", arg])
            .output()
            .expect("pbte runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: {stderr}");
        assert!(stderr.contains(says), "{arg}: {stderr}");
    }
}

/// The untraced scenario driver prints what its run found: a step far
/// past the stability wall poisons the energy sums, and the temperature
/// update's finding reaches stdout. The run still completes (exit 0).
#[test]
fn pbte_prints_what_an_untraced_run_found() {
    let out = Command::new(env!("CARGO_BIN_EXE_pbte"))
        .args([
            "hotspot",
            "n=12",
            "steps=4",
            "dt=1e300",
            "target=seq",
            "tier=row",
        ])
        .output()
        .expect("pbte runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("temperature/non-finite-energy"), "{stdout}");
}

/// A target the problem refuses — more ranks than cells (refused by the
/// solve), more ranks than the partitioned index has values (refused by
/// the build) — is a usage error of the scenario driver, exit 2 with the
/// DSL's message, as in `pbte-trace`: never a panic.
#[test]
fn pbte_reports_a_refused_target_with_the_usage_status() {
    for (args, says) in [
        (
            &["n=4", "steps=1", "target=cells:17"][..],
            "solve failed: invalid problem: 17 ranks for 16 cells",
        ),
        (
            &["n=6", "steps=2", "target=bands:3", "bands=2"][..],
            "build failed: invalid problem: 3 ranks but index `b` has only 2 values",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pbte"))
            .arg("hotspot")
            .args(args)
            .output()
            .expect("pbte runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
}

/// `pbte-trace` shares the scenario driver's `strategy=` spelling: an
/// unknown value exits 2 naming it before anything is built or written.
#[test]
fn pbte_trace_refuses_an_unknown_strategy() {
    let dir = std::env::temp_dir().join(format!("pbte-trace-strategy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbte-trace"))
        .args(["scenario=hotspot", "n=4", "steps=1", "strategy=bogus"])
        .current_dir(&dir)
        .output()
        .expect("pbte-trace runs");
    let written = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown strategy `bogus` (use redundant or divided)"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
    assert_eq!(written, 0, "nothing was written");
}

/// A count argument that is malformed or zero is a usage error of every
/// binary — exit 2 naming the key — never a panic deep in the mesh, the
/// band table or the partitioner, and never a silent default.
#[test]
fn every_binary_refuses_a_malformed_or_zero_count() {
    let dir = std::env::temp_dir().join(format!("pbte-counts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&str, &[&str], &str); 9] = [
        (env!("CARGO_BIN_EXE_pbte"), &["hotspot", "n=0"], "n=0"),
        (env!("CARGO_BIN_EXE_pbte"), &["hotspot", "dirs=0"], "dirs=0"),
        (
            env!("CARGO_BIN_EXE_pbte"),
            &["hotspot", "bands=0"],
            "bands=0",
        ),
        (
            env!("CARGO_BIN_EXE_pbte"),
            &["hotspot", "steps=0"],
            "steps=0",
        ),
        (
            env!("CARGO_BIN_EXE_pbte"),
            &["hotspot", "n=4", "steps=1", "target=bands", "ranks=0"],
            "ranks=0",
        ),
        (
            env!("CARGO_BIN_EXE_pbte-trace"),
            &["target=cells", "n=4", "steps=1", "ranks=0"],
            "ranks=0",
        ),
        (
            env!("CARGO_BIN_EXE_pbte-trace"),
            &["n=4x", "steps=1"],
            "n=4x",
        ),
        (env!("CARGO_BIN_EXE_pbte-verify"), &["n=0"], "n=0"),
        (
            env!("CARGO_BIN_EXE_pbte-verify"),
            &["steps=two"],
            "steps=two",
        ),
    ];
    for (bin, args, key) in cases {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("bad count `{key}`")),
            "{bin} {args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
