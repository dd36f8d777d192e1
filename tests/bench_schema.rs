//! Schema validation for the committed benchmark result files.
//!
//! `BENCH_intensity.json` and `BENCH_timeint.json` are written by the
//! bench binaries and committed as the record of the paper-scale runs;
//! downstream tooling (EXPERIMENTS.md tables, the CI artifact diff)
//! parses them by key. This test pins the schema so a bench refactor
//! that drops or renames a field — or commits a physically impossible
//! value — fails in the verify job instead of silently breaking the
//! record.

use serde::Value;
use std::path::Path;

use pbte_bench::sentinel::{compare, SentinelPolicy};
use pbte_bte::health::HealthProbes;
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::Recorder;
use pbte_dsl::{ExecTarget, GpuStrategy, Solver};
use pbte_gpu::DeviceSpec;
use pbte_runtime::telemetry::stream::{StreamConfig, StreamReader, StreamWriter};

fn load(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

fn is_str(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Str(_)))
}

fn pos_f64(v: &Value, key: &str, ctx: &str) -> f64 {
    let x = v
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{ctx}: missing numeric `{key}`"));
    assert!(x.is_finite() && x > 0.0, "{ctx}: `{key}` = {x} must be > 0");
    x
}

fn nonneg_u64(v: &Value, key: &str, ctx: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{ctx}: missing non-negative integer `{key}`"))
}

#[test]
fn bench_intensity_schema() {
    let v = load("BENCH_intensity.json");
    assert!(is_str(&v, "scenario"), "scenario name");
    let nx = nonneg_u64(&v, "nx", "intensity");
    let ny = nonneg_u64(&v, "ny", "intensity");
    let ndirs = nonneg_u64(&v, "ndirs", "intensity");
    let nbands = nonneg_u64(&v, "nbands", "intensity");
    let n_dof = nonneg_u64(&v, "n_dof", "intensity");
    assert_eq!(
        n_dof,
        nx * ny * ndirs * nbands,
        "n_dof must equal nx·ny·ndirs·nbands"
    );

    let tiers = v.get("tiers").expect("tiers object");
    assert!(matches!(tiers, Value::Obj(_)), "tiers is an object");
    for tier in ["vm", "bound_cached", "row", "native"] {
        let t = tiers
            .get(tier)
            .unwrap_or_else(|| panic!("tier `{tier}` present"));
        let min = pos_f64(t, "min_ns_per_dof", tier);
        let mean = pos_f64(t, "mean_ns_per_dof", tier);
        assert!(min <= mean, "{tier}: min {min} ≤ mean {mean}");
    }
    pos_f64(&v, "speedup_row_over_interpreter", "intensity");
    pos_f64(&v, "speedup_native_over_row", "intensity");
}

#[test]
fn bench_timeint_schema() {
    let v = load("BENCH_timeint.json");
    assert!(is_str(&v, "scenario"), "scenario name");
    let quick = match v.get("quick") {
        Some(Value::Bool(b)) => *b,
        other => panic!("`quick` must be a boolean, got {other:?}"),
    };
    for key in ["nx", "ny", "ndirs", "nbands", "n_dof"] {
        assert!(nonneg_u64(&v, key, "timeint") > 0, "{key} > 0");
    }
    let horizon = pos_f64(&v, "horizon_s", "timeint");
    let dt_cfl = pos_f64(&v, "dt_cfl_s", "timeint");
    let dt_stable = pos_f64(&v, "dt_stable_s", "timeint");
    assert!(
        dt_stable <= dt_cfl,
        "the stabilized step {dt_stable} cannot exceed the CFL bound {dt_cfl}"
    );

    let lanes = v.get("lanes").expect("lanes object");
    assert!(matches!(lanes, Value::Obj(_)), "lanes is an object");
    for lane in ["explicit", "implicit", "steady"] {
        let l = lanes
            .get(lane)
            .unwrap_or_else(|| panic!("lane `{lane}` present"));
        assert!(is_str(l, "integrator"), "{lane}: integrator label");
        pos_f64(l, "dt_s", lane);
        assert!(nonneg_u64(l, "steps", lane) > 0, "{lane}: steps > 0");
        let reached = pos_f64(l, "reached_t_s", lane);
        // The steady lane stops at its tolerance, possibly well short of
        // the horizon; the transient lanes must cover it.
        if lane != "steady" {
            assert!(
                reached >= 0.99 * horizon,
                "{lane}: reached {reached} covers the horizon {horizon}"
            );
        }
        assert!(
            nonneg_u64(l, "step_equivalents", lane) > 0,
            "{lane}: step_equivalents > 0"
        );
        for counter in ["rhs_evals", "jvp_evals", "krylov_iters"] {
            nonneg_u64(l, counter, lane);
        }
        // Implicit lanes must actually have exercised the Krylov path.
        if lane != "explicit" {
            assert!(
                nonneg_u64(l, "krylov_iters", lane) > 0,
                "{lane}: implicit lane records Krylov iterations"
            );
        }
        pos_f64(l, "wall_s", lane);
        let t_mean = pos_f64(l, "t_mean_K", lane);
        let t_max = pos_f64(l, "t_max_K", lane);
        assert!(t_max >= t_mean, "{lane}: t_max ≥ t_mean");
    }

    for key in [
        "work_ratio_implicit",
        "work_ratio_steady",
        "wall_ratio_implicit",
        "wall_ratio_steady",
        "max_dT_implicit_K",
        "max_dT_steady_K",
        "stated_tol_implicit_K",
        "stated_tol_steady_K",
    ] {
        pos_f64(&v, key, "timeint");
    }
    // The accuracy claims the bench asserts at full scale must also hold
    // in the committed record.
    if !quick {
        assert!(
            v.get("max_dT_implicit_K").and_then(Value::as_f64)
                <= v.get("stated_tol_implicit_K").and_then(Value::as_f64),
            "implicit lane within its stated tolerance"
        );
        assert!(
            v.get("max_dT_steady_K").and_then(Value::as_f64)
                <= v.get("stated_tol_steady_K").and_then(Value::as_f64),
            "steady lane within its stated tolerance"
        );
    }
}

/// The sentinel's machine-readable verdict document (the CI artifact
/// `pbte-bench-check json=` writes) has a pinned schema: consumers key
/// on `pass`, `regressions` and the per-series `verdict` strings.
#[test]
fn sentinel_verdict_schema() {
    let doc = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_intensity.json"),
    )
    .expect("committed intensity record");
    // Self-comparison: every series must come back comparable and pass.
    let report = compare("intensity", &doc, &doc, SentinelPolicy::default()).expect("compares");
    assert_eq!(report.exit_code(), 0, "identical records pass");

    let v: Value = serde_json::from_str(&report.to_json()).expect("verdict is valid JSON");
    assert_eq!(
        v.get("sentinel"),
        Some(&Value::Str("pbte-bench-check".into()))
    );
    assert!(is_str(&v, "kind"), "bench kind");
    let policy = v.get("policy").expect("policy object");
    for key in ["rel_threshold", "exact_threshold", "single_sample_factor"] {
        pos_f64(policy, key, "policy");
    }
    let Some(Value::Arr(series)) = v.get("series") else {
        panic!("series array missing");
    };
    assert!(!series.is_empty(), "at least one series compared");
    for s in series {
        assert!(is_str(s, "name") && is_str(s, "kind") && is_str(s, "note"));
        for key in ["base", "fresh", "delta", "threshold"] {
            assert!(
                s.get(key).and_then(Value::as_f64).is_some(),
                "series `{key}` is numeric"
            );
        }
        let verdict = match s.get("verdict") {
            Some(Value::Str(x)) => x.as_str(),
            other => panic!("verdict must be a string, got {other:?}"),
        };
        assert!(
            ["ok", "improved", "noise", "regression", "incomparable"].contains(&verdict),
            "unknown verdict `{verdict}`"
        );
    }
    nonneg_u64(&v, "regressions", "verdict");
    nonneg_u64(&v, "incomparable", "verdict");
    assert_eq!(v.get("pass"), Some(&Value::Bool(true)));
}

/// The telemetry stream file is length-prefixed JSONL; this pins the
/// frame schema `pbte-trace --follow` and external tails consume: the
/// discriminator set, and the per-variant required keys.
#[test]
fn stream_frame_schema() {
    let path = std::env::temp_dir().join(format!("pbte-frame-schema-{}.pbts", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let writer =
        StreamWriter::create(&path, StreamConfig { capacity: 4096 }).expect("stream file created");
    let mut rec = Recorder::buffered();
    rec.attach_stream(writer.sink());
    // The device target with the health probes installed emits every
    // frame kind of the model.
    let mut bte = hotspot_2d(&BteConfig::small(10, 8, 4, 3));
    HealthProbes::new(bte.material.clone(), bte.vars).install(&mut bte.problem);
    let target = ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    };
    let mut solver = Solver::build(bte.problem, target).expect("builds");
    solver.solve_traced(&mut rec).expect("solves");
    writer.finish().expect("writer finishes");

    let mut reader = StreamReader::open(&path).expect("reader opens");
    let frames = reader.poll().expect("poll");
    assert!(!frames.is_empty(), "frames written");
    let work_keys = [
        "dof_updates",
        "flux_evals",
        "ghost_evals",
        "newton_iters",
        "temperature_solves",
        "rhs_evals",
        "jvp_evals",
        "krylov_iters",
    ];
    let mut seen: Vec<String> = Vec::new();
    for f in &frames {
        let v: Value = serde_json::from_str(f).expect("frame parses");
        let kind = match v.get("frame") {
            Some(Value::Str(k)) => k.as_str(),
            other => panic!("frame discriminator must be a string, got {other:?}"),
        };
        seen.push(kind.to_string());
        match kind {
            "run_start" => {
                assert!(is_str(&v, "label") && v.get("time").and_then(Value::as_f64).is_some());
                assert!(is_str(&v, "tier") && is_str(&v, "flux"), "what ran");
            }
            "step" => {
                nonneg_u64(&v, "step", "step frame");
                nonneg_u64(&v, "rank", "step frame");
                nonneg_u64(&v, "comm_bytes", "step frame");
                assert!(matches!(v.get("phases"), Some(Value::Obj(_))));
                let work = v.get("work").expect("work object");
                for key in work_keys {
                    nonneg_u64(work, key, "step work");
                }
            }
            "span" => {
                assert!(is_str(&v, "cat") && is_str(&v, "name"));
                assert!(v.get("t0").and_then(Value::as_f64).is_some());
                assert!(v.get("dur").and_then(Value::as_f64).is_some());
                nonneg_u64(&v, "rank", "span frame");
                nonneg_u64(&v, "tid", "span frame");
                assert!(matches!(v.get("attrs"), Some(Value::Obj(_))));
            }
            "event" => {
                assert!(is_str(&v, "severity") && is_str(&v, "name") && is_str(&v, "message"));
            }
            "sample" => {
                assert!(is_str(&v, "name"));
                nonneg_u64(&v, "step", "sample frame");
                nonneg_u64(&v, "rank", "sample frame");
                assert!(v.get("value").and_then(Value::as_f64).is_some());
            }
            "histogram" => {
                assert!(is_str(&v, "name"));
                let Some(Value::Arr(buckets)) = v.get("buckets") else {
                    panic!("histogram frame without a buckets array: {f}");
                };
                assert!(buckets.iter().all(|b| b.as_u64().is_some()));
            }
            "device" => {
                assert!(is_str(&v, "device"));
                nonneg_u64(&v, "rank", "device frame");
                nonneg_u64(&v, "h2d_bytes", "device frame");
                nonneg_u64(&v, "d2h_bytes", "device frame");
                for key in [
                    "sm_utilization",
                    "memory_fraction",
                    "flop_fraction",
                    "kernel_seconds",
                    "transfer_seconds",
                ] {
                    assert!(v.get(key).and_then(Value::as_f64).is_some(), "{key}");
                }
            }
            "total" => {
                assert!(matches!(v.get("phases"), Some(Value::Obj(_))));
                let work = v.get("work").expect("work object");
                for key in work_keys {
                    nonneg_u64(work, key, "total work");
                }
            }
            "run_end" => {
                nonneg_u64(&v, "frames", "run_end");
                nonneg_u64(&v, "dropped", "run_end");
            }
            other => panic!("unknown frame discriminator `{other}`"),
        }
    }
    for kind in [
        "run_start",
        "step",
        "span",
        "sample",
        "histogram",
        "device",
        "total",
        "run_end",
    ] {
        assert!(
            seen.iter().any(|k| k == kind),
            "no `{kind}` frame in the stream"
        );
    }
    let _ = std::fs::remove_file(&path);
}
