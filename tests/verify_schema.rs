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
//!
//! The rest pins the command-line contract of all three binaries: the
//! one exit table (`pbte_apps::status`) and what each refusal says.

use serde::Value;
use std::process::{Command, Stdio};

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

    // Built-in lanes: 2 scenarios × 2 strategies × 6 targets × 3 tiers ×
    // 3 integrators. Textual lanes: ≥ 4 committed scenarios × 6 targets ×
    // 3 tiers (each file fixes its own strategy and integrator).
    assert_eq!(builtin, 2 * 2 * 6 * 3 * 3, "built-in sweep shape");
    assert!(pbte >= 4 * 6 * 3, "scenario library lanes shrank: {pbte}");

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

/// The hybrid GPU target has one label: its old second label is an
/// unknown target to every binary that takes `target=`, a usage error
/// that lists the targets there are. The name is spelled in pieces so
/// that the guard against it finds nothing in the tree.
#[test]
fn the_old_second_gpu_label_is_an_unknown_target() {
    let target = format!("target={}", ["gpu:", "pre", "compute"].concat());
    let dir = scratch("old-gpu-label");
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_pbte"),
            vec!["hotspot", "n=4", "steps=1"],
        ),
        (env!("CARGO_BIN_EXE_pbte"), vec!["codegen"]),
        (env!("CARGO_BIN_EXE_pbte-trace"), vec!["n=4", "steps=1"]),
    ] {
        let out = Command::new(bin)
            .args(&args)
            .arg(&target)
            .current_dir(&dir)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("error[input/unknown]"),
            "{bin} {args:?}: {stderr}"
        );
        assert!(
            stderr.contains(
                "(use seq, par, gpu[:async], cells[:<ranks>], bands[:<ranks>] or bands-gpu[:<ranks>])"
            ),
            "{bin} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?}: nothing ran");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "nothing was written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run that names no tier asks for `native`; on a host without `rustc`
/// it runs `row`, warns once with `native/fallback`, and ends as it did
/// when `row` was the default: exit 0.
#[test]
fn a_default_run_without_rustc_falls_back_once_and_exits_0() {
    let dir = scratch("default-no-rustc");
    let out = Command::new(env!("CARGO_BIN_EXE_pbte"))
        .args(["hotspot", "n=6", "steps=2", "target=bands:2"])
        .env("PBTE_NATIVE_RUSTC", dir.join("no-such-rustc"))
        .env("PBTE_NATIVE_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("pbte runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(stderr.matches("native/fallback").count(), 1, "{stderr}");
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
/// update's finding reaches stdout. The run completes, and the
/// error-severity finding fails it (exit 1).
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
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("error temperature/non-finite-energy"),
        "{stdout}"
    );
}

/// A target the problem refuses — more ranks than cells (refused by the
/// solve), more ranks than the partitioned index has values (refused by
/// the build) — is a refused input of the scenario driver, exit 2 with
/// the DSL's rule and message, as in `pbte-trace`: never a panic.
#[test]
fn pbte_reports_a_refused_target_with_the_usage_status() {
    for (args, says) in [
        (
            &["n=4", "steps=1", "target=cells:17"][..],
            "error[dsl/target]: 17 ranks for 16 cells",
        ),
        (
            &["n=6", "steps=2", "target=bands:3", "bands=2"][..],
            "error[dsl/target]: 3 ranks but index `b` has only 2 values",
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

/// Each `pbte-trace` mode refuses a key or flag it would ignore: exit 2
/// naming the argument and the mode, before anything runs or is written.
#[test]
fn pbte_trace_refuses_what_its_mode_ignores() {
    let dir = scratch("trace-modes");
    let cases: [(&[&str], &str, &str); 3] = [
        (
            &["scenario=hotspot", "n=4", "steps=1", "wait=5"],
            "`wait=5` does not apply",
            "a run reads no stream",
        ),
        (
            &["--follow", "file=stream.pbts", "n=4"],
            "`n=4` does not apply",
            "--follow tails a stream",
        ),
        (
            &["--parity", "n=4", "steps=1", "out=x"],
            "`out=x` does not apply",
            "--parity runs every target",
        ),
    ];
    for (args, names, mode) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pbte-trace"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("pbte-trace runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("input/invalid"), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(stderr.contains(mode), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
    // The probes are always on, so the flag that turned them off is no
    // flag of any mode. (Spelled in pieces: CI refuses the flag's name
    // anywhere else in the tree.)
    let flag = ["--no", "health"].join("-");
    for mode in [
        &["n=4", "steps=1"][..],
        &["--parity", "n=4", "steps=1"],
        &["--follow", "file=stream.pbts"],
        &["top", "file=stream.pbts"],
    ] {
        let args = [mode, &[flag.as_str()]].concat();
        let out = Command::new(env!("CARGO_BIN_EXE_pbte-trace"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("pbte-trace runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("input/unknown"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
    let written = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, 0, "nothing was written");
}

/// `pbte-trace top` on a stream cut mid-line (a run stopped while its
/// writer was writing) counts only the complete frames and says that the
/// stream has no end.
#[test]
fn top_reads_a_stream_cut_mid_line() {
    let dir = scratch("cut-stream");
    let stream = dir.join("stream.pbts");
    let trace = env!("CARGO_BIN_EXE_pbte-trace");
    let out = Command::new(trace)
        .args(["scenario=hotspot", "n=4", "steps=2"])
        .arg(format!("out={}", dir.display()))
        .arg(format!("stream={}", stream.display()))
        .output()
        .expect("pbte-trace runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&stream).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    // Keep every frame before the last two, then half of the next one.
    let kept = lines.len() - 2;
    let torn = &lines[kept][..lines[kept].len() / 2];
    std::fs::write(&stream, format!("{}\n{torn}", lines[..kept].join("\n"))).unwrap();
    let out = Command::new(trace)
        .args(["top", &format!("file={}", stream.display())])
        .output()
        .expect("pbte-trace top runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains(&format!("\n{kept} frame(s), ")), "{stdout}");
    assert!(stdout.contains("no run_end frame"), "{stdout}");
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

/// A scratch directory of its own per test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pbte-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The committed hot-spot scenario with its `dt` line replaced.
fn hotspot_pbte_with_dt(dt: &str) -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/hotspot.pbte"
    );
    let text = std::fs::read_to_string(path).unwrap();
    let line = text.lines().find(|l| l.starts_with("dt =")).unwrap();
    text.replace(line, &format!("dt = {dt}"))
}

/// One run far past the stability wall — its energy sums are not finite
/// — fails every binary that runs it: `pbte` on the built-in and on the
/// file, and `pbte-trace`, all exit 1.
#[test]
fn a_non_finite_energy_sum_fails_every_run_binary() {
    let dir = scratch("dt1e300");
    let file = dir.join("hot.pbte");
    std::fs::write(&file, hotspot_pbte_with_dt("1e300")).unwrap();
    let scenario = format!("scenario={}", file.display());
    let out_dir = format!("out={}", dir.display());
    let trace = [scenario.as_str(), "target=seq", out_dir.as_str()];
    let path = file.display().to_string();
    let runs: [(&str, Vec<&str>); 3] = [
        (
            env!("CARGO_BIN_EXE_pbte"),
            vec!["hotspot", "n=12", "steps=4", "dt=1e300", "target=seq"],
        ),
        (
            env!("CARGO_BIN_EXE_pbte"),
            vec![path.as_str(), "target=seq"],
        ),
        (env!("CARGO_BIN_EXE_pbte-trace"), trace.to_vec()),
    ];
    for (bin, args) in runs {
        let out = Command::new(bin).args(&args).output().expect("runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(
            stdout.contains("temperature/non-finite-energy"),
            "{bin} {args:?}: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every class of refused input exits 2 before step 0 and names its rule
/// on stderr — never a panic (101), never a silent default.
#[test]
fn every_refusal_class_exits_2_naming_its_rule() {
    let dir = scratch("refusals");
    let malformed = dir.join("malformed.pbte");
    std::fs::write(&malformed, "[scenario]\nname = x\nno equals sign here\n").unwrap();
    // A 2 x 2 x 2 hex grid whose first hex has its top and bottom quads
    // exchanged: an inverted cell, negative volume.
    let grid = pbte_mesh::UniformGrid::new_3d(2, 2, 2, 1e-4, 1e-4, 1e-4).build();
    let msh = pbte_mesh::gmsh::write_msh(&grid);
    let hex = msh
        .lines()
        .find(|l| l.split_whitespace().nth(1) == Some("5") && l.split_whitespace().count() == 13)
        .unwrap();
    let ids: Vec<&str> = hex.split_whitespace().collect();
    let (head, nodes) = ids.split_at(ids.len() - 8);
    let inverted = [head, &nodes[4..], &nodes[..4]].concat().join(" ");
    std::fs::write(dir.join("inverted.msh"), msh.replace(hex, &inverted)).unwrap();
    let die = dir.join("inverted.pbte");
    std::fs::write(
        &die,
        "[scenario]\nname = inverted\nt_ref = 300\nt_hot = 350\n\
         [mesh]\nkind = gmsh\nfile = inverted.msh\n\
         [material]\nmodel = silicon\nn_freq_bands = 2\nn_polar = 2\nn_azimuthal = 4\n\
         [time]\nsteps = 1\n[boundary]\nbottom = isothermal 300\n",
    )
    .unwrap();
    // The committed hot spot with a section appended that the verify gate
    // refuses: a volumetric unit where an intensity belongs, and an
    // intensity range whose flux overflows.
    let hotspot = hotspot_pbte_with_dt("auto");
    let seam = |name: &str, section: &str| {
        let path = dir.join(name);
        std::fs::write(&path, format!("{hotspot}\n{section}\n")).unwrap();
        path.display().to_string()
    };
    let units = seam("units.pbte", "[units]\nIo = W/m^3");
    let ranges = seam("ranges.pbte", "[ranges]\nI = 0 1e308");
    let file = seam("hot.pbte", "");
    let scenario = |path: &std::path::Path| format!("scenario={}", path.display());
    let run = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
    let (pbte, trace, verify) = (
        env!("CARGO_BIN_EXE_pbte"),
        env!("CARGO_BIN_EXE_pbte-trace"),
        env!("CARGO_BIN_EXE_pbte-verify"),
    );
    let cases: Vec<(&str, Vec<String>, &str, &str)> = vec![
        (
            pbte,
            vec!["bogus".into()],
            "input/unknown",
            "unknown command `bogus`",
        ),
        (
            pbte,
            ["hotspot", "n=4", "steps=1", "target=seq", "bogus=1"]
                .map(String::from)
                .to_vec(),
            "input/unknown",
            "unknown key `bogus=1`",
        ),
        (
            verify,
            vec!["scenario=nope".into()],
            "input/unknown",
            "unknown key `scenario=nope`",
        ),
        (
            trace,
            ["target=seq", "steps=1", "out=/dev/null/x"]
                .map(String::from)
                .to_vec(),
            "input/io",
            "/dev/null/x",
        ),
        (
            trace,
            vec![scenario(&dir.join("missing.pbte"))],
            "input/io",
            "missing.pbte",
        ),
        (
            trace,
            vec![scenario(&malformed)],
            "input/parse",
            "at line 3",
        ),
        (
            trace,
            vec![scenario(&die)],
            "mesh/bad-measure",
            "inverted.msh",
        ),
        (
            pbte,
            ["hotspot", "n=4", "steps=1", "target=cells:17"]
                .map(String::from)
                .to_vec(),
            "dsl/target",
            "17 ranks for 16 cells",
        ),
        // Shape keys are checked, not asserted.
        (
            pbte,
            run(&["hotspot", "n=4", "steps=1", "dirs=3"]),
            "input/invalid",
            "ndirs must be an even number >= 4",
        ),
        (
            pbte,
            run(&["hotspot", "n=4", "steps=1", "bands=1"]),
            "input/invalid",
            "n_freq_bands >= 2",
        ),
        // No key is ignored in silence: a file is the whole scenario, and
        // the 3-D angular grid is polar x azimuthal.
        (
            pbte,
            run(&["bte3d", "n=4", "steps=1", "dirs=8"]),
            "input/invalid",
            "`dirs=8` does not apply",
        ),
        (
            pbte,
            run(&[&file, "n=4"]),
            "input/invalid",
            "`n=4` does not apply",
        ),
        (
            pbte,
            run(&[&file, "dt=1e-12"]),
            "input/invalid",
            "`dt=1e-12` does not apply",
        ),
        (
            pbte,
            run(&[&file, "strategy=divided"]),
            "input/invalid",
            "`strategy=divided` does not apply",
        ),
        (
            trace,
            run(&[&format!("scenario={file}"), "n=4"]),
            "input/invalid",
            "`n=4` does not apply",
        ),
        (
            trace,
            run(&[&format!("scenario={file}"), "steps=2"]),
            "input/invalid",
            "`steps=2` does not apply",
        ),
        (
            trace,
            run(&[&format!("scenario={file}"), "strategy=divided"]),
            "input/invalid",
            "`strategy=divided` does not apply",
        ),
        // Every run passes the verify gate.
        (
            pbte,
            run(&[&units, "target=seq"]),
            "units/mismatch",
            "volume term",
        ),
        (
            trace,
            run(&[&format!("scenario={units}"), "target=seq"]),
            "units/mismatch",
            "volume term",
        ),
        (
            pbte,
            run(&[&ranges, "target=seq"]),
            "intervals/non-finite",
            "flux kernel",
        ),
        (
            trace,
            run(&[&format!("scenario={ranges}"), "target=seq"]),
            "intervals/non-finite",
            "flux kernel",
        ),
    ];
    for (bin, args, rule, names) in cases {
        let out = Command::new(bin)
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error[{rule}]")) && stderr.contains(names),
            "{bin} {args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An interval finding prints its bounds in exponent form: the flux of an
/// intensity range up to `1e308` overflows, and the refusal names a
/// subnormal bound in a few characters, not a ~330-digit decimal.
#[test]
fn an_interval_finding_prints_its_bounds_short() {
    let dir = scratch("short-bounds");
    let ranges = dir.join("ranges.pbte");
    let text = format!("{}\n[ranges]\nI = 0 1e308\n", hotspot_pbte_with_dt("auto"));
    std::fs::write(&ranges, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pbte"))
        .args([ranges.display().to_string().as_str(), "target=seq"])
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let lines: Vec<&str> = (stderr.lines())
        .filter(|l| l.contains("error[intervals/non-finite]"))
        .collect();
    assert!(lines.iter().all(|l| l.len() < 200), "{stderr}");
    assert!(lines.iter().any(|l| l.contains("e-")), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A closed stdout ends the output, not the run: `pbte info` and a traced
/// run whose reader went away before the first line exit with the table's
/// status, never a panic (101).
#[test]
fn no_binary_panics_on_a_closed_stdout() {
    let dir = scratch("closed-stdout");
    let out_dir = format!("out={}", dir.display());
    let runs: [(&str, Vec<&str>); 2] = [
        (env!("CARGO_BIN_EXE_pbte"), vec!["info"]),
        (
            env!("CARGO_BIN_EXE_pbte-trace"),
            vec!["target=seq", "steps=1", out_dir.as_str()],
        ),
    ];
    for (bin, args) in runs {
        let mut child = Command::new(bin)
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one exit table of the three binaries: 2 for a refusal, 1 for a
/// finding at or above the binary's failing severity or a `physics/*`
/// one, 0 otherwise.
#[test]
fn the_exit_table() {
    use pbte_apps::{status, Outcome};
    use pbte_dsl::{Diagnostic, Severity};
    let finding = |severity, rule| Diagnostic {
        severity,
        rule,
        entity: String::new(),
        location: String::new(),
        message: String::new(),
    };
    let finished = |findings: Vec<Diagnostic>, fails_at| Outcome::Finished { findings, fails_at };
    let warning = finding(Severity::Warning, "temperature/newton-stalled");
    let error = finding(Severity::Error, "temperature/non-finite-energy");
    let physics = finding(Severity::Warning, "physics/energy-budget");
    let refusal = Diagnostic::input_unknown("unknown key `bogus=1`");
    for (outcome, expected) in [
        (Outcome::default(), 0),
        (finished(vec![warning.clone()], Severity::Error), 0),
        (finished(vec![error.clone()], Severity::Error), 1),
        (
            finished(vec![warning.clone(), error.clone()], Severity::Error),
            1,
        ),
        (finished(vec![physics.clone()], Severity::Error), 1),
        (finished(vec![], Severity::Warning), 0),
        (finished(vec![warning.clone()], Severity::Warning), 1),
        (Outcome::from(refusal.clone()), 2),
        (Outcome::Refused(vec![warning, refusal]), 2),
        (Outcome::Refused(vec![error]), 2),
        (Outcome::Refused(Vec::new()), 2),
    ] {
        assert_eq!(status(&outcome), expected, "{outcome:?}");
    }
}

/// Every binary checks its arguments against its one list of keys and
/// flags: anything else is `input/unknown`.
#[test]
fn an_argument_outside_the_list_is_refused() {
    use pbte_apps::check_args;
    let known = "n= target= --parity";
    let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
    assert!(check_args(&args(&["n=4", "target=seq", "--parity"]), known).is_ok());
    assert!(check_args(&[], known).is_ok());
    for (bad, says) in [
        ("bogus=1", "unknown key `bogus=1`"),
        ("--synth", "unknown flag `--synth`"),
        ("--parity=1", "unknown flag `--parity=1`"),
        ("n", "unknown argument `n`"),
        ("steps=2", "unknown key `steps=2`"),
    ] {
        let d = check_args(&args(&["n=4", bad]), known).expect_err(bad);
        assert_eq!(d.rule, pbte_dsl::analysis::rules::INPUT_UNKNOWN);
        assert!(d.message.contains(says), "{bad}: {d}");
    }
}
