//! The parent: generates the inputs, runs each workload as a closed loop
//! of one child process at a time, checks every output, and folds the
//! runs of a workload into its reported values.

use crate::gen::{self, Sizes};
use crate::host::Canaries;
use crate::json::{entries_at, num, obj, str_at, text};
use crate::metrics::{Metric, Source, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::{self, Reference, Workload};
use pbte_baseline::BaselineSolver;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Largest temperature difference the tolerance checks accept, K.
const MAX_DT: f64 = 1e-10;

/// What one child run reported.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    pub tier: String,
    pub hash_t: String,
    pub hash_i: String,
    pub values: BTreeMap<String, f64>,
    /// The dumped `T` field, when asked for.
    pub t: Vec<f64>,
}

impl RunRecord {
    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn same_field_as(&self, other: &RunRecord) -> bool {
        self.hash_t == other.hash_t && self.hash_i == other.hash_i
    }
}

/// How a child is asked to run, beyond its workload.
#[derive(Default, Clone, Copy)]
struct Ask {
    reference: bool,
    traced: bool,
    dump: bool,
}

pub struct Session {
    exe: PathBuf,
    work: PathBuf,
    trace_dir: PathBuf,
    sizes: Sizes,
    pub seed: u64,
    runs_started: usize,
    /// Untimed reference runs, by what they ran.
    references: BTreeMap<String, RunRecord>,
}

/// The runs of one workload.
pub struct Lane {
    pub workload: &'static Workload,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// `(check, what it found)` for the result file.
    pub checks: Vec<(String, String)>,
    reference: RunRecord,
    warmup: RunRecord,
    pub timed: Vec<RunRecord>,
    traced: Option<RunRecord>,
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Is a run's field the one the reference gives? `Err` names the failed
/// check. Separate from the process plumbing so a wrong expectation can be
/// shown to fail.
pub fn check_against_reference(
    kind: Reference,
    run: &RunRecord,
    reference: &RunRecord,
) -> Result<String, String> {
    match kind {
        Reference::Baseline | Reference::SeqTolerance => {
            let diff = max_abs_diff(&run.t, &reference.t);
            if diff <= MAX_DT {
                Ok(format!("max |dT| = {diff:e} K <= {MAX_DT:e} K"))
            } else {
                Err(format!("max |dT| = {diff:e} K exceeds {MAX_DT:e} K"))
            }
        }
        Reference::SeqBitIdentical | Reference::CrossTier => {
            if run.same_field_as(reference) {
                Ok(format!("hash T {} I {} equal", run.hash_t, run.hash_i))
            } else {
                Err(format!(
                    "hash T {} I {} differs from the reference's T {} I {}",
                    run.hash_t, run.hash_i, reference.hash_t, reference.hash_i
                ))
            }
        }
    }
}

/// A later run of the same workload must give the same bytes as an
/// earlier one.
pub fn check_same_bytes(run: &RunRecord, earlier: &RunRecord) -> Result<(), String> {
    if run.same_field_as(earlier) {
        Ok(())
    } else {
        Err(format!(
            "not deterministic: hash T {} I {} after T {} I {}",
            run.hash_t, run.hash_i, earlier.hash_t, earlier.hash_i
        ))
    }
}

/// A later timed run must repeat every exact count of an earlier one. (The
/// warm-up run is no yardstick here: it compiles what the timed runs load.)
pub fn check_same_counts(run: &RunRecord, earlier: &RunRecord) -> Result<(), String> {
    for metric in PER_LAYER.iter().filter(|m| m.source == Source::Exact) {
        let (a, b) = (run.value(metric.name), earlier.value(metric.name));
        if a != b {
            return Err(format!("{} does not repeat: {a} after {b}", metric.name));
        }
    }
    Ok(())
}

impl Session {
    /// Generate the inputs under a fresh private directory.
    pub fn new(root: &Path, seed: u64, sizes: Sizes) -> Result<Session, String> {
        let work = root.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        gen::write_inputs(&work.join("inputs"), seed, sizes)
            .map_err(|e| format!("writing inputs under {}: {e}", work.display()))?;
        let trace_dir = root.join("trace");
        std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
        Ok(Session {
            exe: std::env::current_exe().map_err(|e| e.to_string())?,
            work,
            trace_dir,
            sizes,
            seed,
            runs_started: 0,
            references: BTreeMap::new(),
        })
    }

    /// Remove the private directory (traces stay).
    pub fn close(self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }

    pub fn trace_path(&self, w: &Workload) -> PathBuf {
        self.trace_dir.join(format!("{}.json", w.name))
    }

    /// One child process, start to exit.
    fn child(&mut self, w: &Workload, ask: Ask) -> Result<RunRecord, String> {
        self.runs_started += 1;
        let out = self.work.join(format!("out-{}", self.runs_started));
        // Warm lanes share one cache the warm-up run primes; a cold lane
        // gets an empty directory every run. Never the repository's own.
        let cache = if w.cold_cache {
            out.join("cache")
        } else {
            self.work.join("cache-warm")
        };
        let loops = if w.looped && !ask.reference {
            self.sizes.warm_loops()
        } else {
            1
        };
        let dump = out.join("T.f64");
        let mut cmd = Command::new(&self.exe);
        cmd.arg("run-one")
            .args(["--workload", w.name])
            .arg("--inputs")
            .arg(self.work.join("inputs"))
            .arg("--out")
            .arg(&out)
            .args(["--loops", &loops.to_string()])
            .env("PBTE_NATIVE_CACHE_DIR", &cache);
        if ask.reference {
            cmd.arg("--reference");
        }
        if ask.traced {
            cmd.arg("--trace-out").arg(self.trace_path(w));
        }
        if ask.dump {
            cmd.arg("--dump").arg(&dump);
        }
        let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let parsed: Value = serde_json::from_str(line).map_err(|e| {
            let stderr = String::from_utf8_lossy(&output.stderr);
            format!(
                "{}: no result line ({e}); stderr ends: {}",
                output.status,
                stderr.lines().last().unwrap_or("")
            )
        })?;
        if let Some(error) = str_at(&parsed, "error") {
            return Err(error.to_string());
        }
        if !output.status.success() {
            return Err(format!("exit {}", output.status));
        }
        let mut record = RunRecord {
            tier: str_at(&parsed, "tier").unwrap_or("").to_string(),
            hash_t: str_at(&parsed, "hash_t").unwrap_or("").to_string(),
            hash_i: str_at(&parsed, "hash_i").unwrap_or("").to_string(),
            values: entries_at(&parsed, "values")
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
            t: Vec::new(),
        };
        if ask.dump {
            let bytes = std::fs::read(&dump).map_err(|e| format!("{}: {e}", dump.display()))?;
            record.t = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunks of 8")))
                .collect();
        }
        // Rendered fields and cold caches are not kept between runs.
        let _ = std::fs::remove_dir_all(&out);
        Ok(record)
    }

    /// The reference a workload's output is checked against; run once.
    fn reference(&mut self, w: &'static Workload) -> Result<RunRecord, String> {
        let key = match w.reference {
            Reference::Baseline => "baseline".to_string(),
            Reference::SeqBitIdentical | Reference::SeqTolerance => "hotspot_seq".to_string(),
            Reference::CrossTier => format!("{}@vm", w.file.unwrap_or("sweep")),
        };
        if let Some(found) = self.references.get(&key) {
            return Ok(found.clone());
        }
        let record = match w.reference {
            Reference::Baseline => {
                let cfg = gen::hotspot_config(self.sizes);
                let mut solver = BaselineSolver::new(&cfg);
                solver.run(cfg.n_steps);
                RunRecord {
                    t: solver.temperature().to_vec(),
                    ..RunRecord::default()
                }
            }
            Reference::SeqBitIdentical | Reference::SeqTolerance => {
                let seq = workloads::by_name("hotspot_seq").expect("in the table");
                let ask = Ask {
                    dump: true,
                    ..Ask::default()
                };
                self.child(seq, ask)?
            }
            Reference::CrossTier => {
                let ask = Ask {
                    reference: true,
                    ..Ask::default()
                };
                self.child(w, ask)?
            }
        };
        self.references.insert(key, record.clone());
        Ok(record)
    }

    /// Reference, then the discarded warm-up run (which primes the warm
    /// cache), checked against the reference.
    pub fn open(&mut self, w: &'static Workload) -> Lane {
        let mut lane = Lane {
            workload: w,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            checks: Vec::new(),
            reference: RunRecord::default(),
            warmup: RunRecord::default(),
            timed: Vec::new(),
            traced: None,
        };
        lane.attempted += 1;
        let ask = Ask {
            dump: true,
            ..Ask::default()
        };
        let warmed = self.reference(w).and_then(|reference| {
            let run = self.child(w, ask)?;
            let found = check_against_reference(w.reference, &run, &reference)?;
            Ok((reference, run, found))
        });
        match warmed {
            Ok((reference, run, found)) => {
                lane.checks.push((w.reference.label().to_string(), found));
                lane.reference = reference;
                lane.warmup = run;
            }
            Err(e) => lane.fail(format!("warm-up: {e}")),
        }
        lane
    }

    /// One timed run.
    pub fn rep(&mut self, lane: &mut Lane) {
        lane.attempted += 1;
        let result = self.child(lane.workload, Ask::default()).and_then(|run| {
            check_same_bytes(&run, &lane.warmup)?;
            if let Some(first) = lane.timed.first() {
                check_same_counts(&run, first)?;
            }
            Ok(run)
        });
        match result {
            Ok(run) => lane.timed.push(run),
            Err(e) => lane.fail(format!("run {}: {e}", lane.attempted)),
        }
    }

    /// The one traced run: telemetry on, kernel probe, Chrome trace.
    pub fn traced_rep(&mut self, lane: &mut Lane) {
        lane.attempted += 1;
        let ask = Ask {
            traced: true,
            ..Ask::default()
        };
        let result = self.child(lane.workload, ask).and_then(|run| {
            check_same_bytes(&run, &lane.warmup)?;
            Ok(run)
        });
        match result {
            Ok(run) => lane.traced = Some(run),
            Err(e) => lane.fail(format!("traced run: {e}")),
        }
    }
}

impl Lane {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.timed.is_empty()
    }

    pub fn tier(&self) -> &str {
        &self.warmup.tier
    }

    pub fn hashes(&self) -> (&str, &str) {
        (&self.warmup.hash_t, &self.warmup.hash_i)
    }

    fn samples(&self, name: &str) -> Vec<f64> {
        self.timed.iter().map(|r| r.value(name)).collect()
    }

    /// Median, min, max and count of a metric over the timed runs.
    pub fn summary(&self, metric: &Metric) -> Summary {
        Summary::of(&self.samples(metric.name)).unwrap_or(Summary {
            median: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0,
        })
    }

    /// Reported value of a metric.
    pub fn value(&self, metric: &Metric, canaries: Option<&Canaries>) -> f64 {
        match metric.source {
            Source::Fastest => self.summary(metric).min,
            Source::Median => self.summary(metric).median,
            Source::Exact => self.timed.first().map_or(0.0, |r| r.value(metric.name)),
            Source::Traced => self.traced.as_ref().map_or(0.0, |r| r.value(metric.name)),
            Source::Derived => self.derived(metric.name, canaries),
        }
    }

    fn derived(&self, name: &str, canaries: Option<&Canaries>) -> f64 {
        let solve = Summary::of(&self.samples("solve_s")).map_or(0.0, |s| s.min);
        match name {
            "trace.overhead_share" => match &self.traced {
                Some(t) if solve > 0.0 => (t.value("solve_s") - solve) / solve,
                _ => 0.0,
            },
            // 0 where the lane is not a `hotspot_*` one.
            "speedup_vs_seq" => match self.workload.reference {
                Reference::Baseline => 1.0,
                Reference::SeqBitIdentical | Reference::SeqTolerance if solve > 0.0 => {
                    self.reference.value("solve_s") / solve
                }
                _ => 0.0,
            },
            "failed_share" => self.failed as f64 / self.attempted.max(1) as f64,
            "runs" => self.timed.len() as f64,
            "host.triad_gbs" => canaries.map_or(0.0, |c| c.triad_gbs),
            "host.canary_s" => canaries.map_or(0.0, |c| c.canary_s),
            other => unreachable!("derived metric {other} has no rule"),
        }
    }

    /// The lane as the result file holds it.
    pub fn to_json(&self, canaries: Option<&Canaries>) -> Value {
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let summary = self.summary(m);
                let value = self.value(m, canaries);
                (m.name.to_string(), summary.to_json(value, m.unit, m.better))
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("value".to_string(), num(self.value(m, canaries))),
                    ("unit".to_string(), text(m.unit)),
                    ("better".to_string(), text(m.better)),
                ];
                if matches!(m.source, Source::Fastest | Source::Median) {
                    if let Some(s) = Summary::of(&self.samples(m.name)) {
                        entry.push(("median".to_string(), num(s.median)));
                        entry.push(("min".to_string(), num(s.min)));
                        entry.push(("max".to_string(), num(s.max)));
                    }
                }
                (m.name.to_string(), Value::Obj(entry))
            })
            .collect();
        let (hash_t, hash_i) = self.hashes();
        obj([
            ("why", text(self.workload.why)),
            ("gated", Value::Bool(self.workload.gated)),
            ("resolved_tier", text(self.tier())),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted as u64)),
            ("failed", Value::UInt(self.failed as u64)),
            (
                "errors",
                Value::Arr(self.errors.iter().map(|e| text(e)).collect()),
            ),
            (
                "checks",
                Value::Obj(
                    self.checks
                        .iter()
                        .map(|(k, v)| (k.clone(), text(v)))
                        .collect(),
                ),
            ),
            ("hash_t", text(hash_t)),
            ("hash_i", text(hash_i)),
            ("end_to_end", Value::Obj(end_to_end)),
            ("per_layer", Value::Obj(per_layer)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(hash: &str, t: &[f64]) -> RunRecord {
        RunRecord {
            hash_t: hash.into(),
            hash_i: hash.into(),
            t: t.to_vec(),
            ..RunRecord::default()
        }
    }

    #[test]
    fn a_wrong_expected_hash_fails_the_run() {
        let run = record("00000000deadbeef", &[]);
        let good = record("00000000deadbeef", &[]);
        let wrong = record("00000000deadbeee", &[]);
        for kind in [Reference::CrossTier, Reference::SeqBitIdentical] {
            assert!(check_against_reference(kind, &run, &good).is_ok());
            assert!(check_against_reference(kind, &run, &wrong).is_err());
        }
        assert!(check_same_bytes(&run, &good).is_ok());
        assert!(check_same_bytes(&run, &wrong).is_err());
    }

    #[test]
    fn tolerance_checks_bound_the_difference() {
        let reference = record("", &[300.0, 301.0]);
        let close = record("", &[300.0, 301.0 + 5e-11]);
        let far = record("", &[300.0, 301.0 + 2e-10]);
        let short = record("", &[300.0]);
        for kind in [Reference::Baseline, Reference::SeqTolerance] {
            assert!(check_against_reference(kind, &close, &reference).is_ok());
            assert!(check_against_reference(kind, &far, &reference).is_err());
            assert!(check_against_reference(kind, &short, &reference).is_err());
        }
    }

    #[test]
    fn an_exact_count_that_moves_fails_the_run() {
        let mut a = record("aa", &[]);
        let mut b = record("aa", &[]);
        a.values.insert("work.dof_updates".into(), 10.0);
        b.values.insert("work.dof_updates".into(), 11.0);
        assert!(check_same_counts(&a, &b).is_err());
        assert!(check_same_bytes(&a, &b).is_ok());
    }

    #[test]
    fn a_lane_renders_every_metric_of_the_result_schema() {
        let workload = workloads::by_name("hotspot_par").unwrap();
        let run = |solve: f64| {
            let mut r = record("aa", &[]);
            r.values.insert("solve_s".into(), solve);
            r.values.insert("work.dof_updates".into(), 100.0);
            r
        };
        let lane = Lane {
            workload,
            attempted: 5,
            failed: 1,
            errors: vec!["run 3: exit 101".into()],
            checks: vec![("seq-bit-identical".into(), "equal".into())],
            reference: run(3.0),
            warmup: run(2.0),
            timed: vec![run(1.0), run(3.0), run(2.0)],
            traced: Some(run(2.5)),
        };
        assert!(!lane.correct());
        let json = lane.to_json(None);
        for key in [
            "why",
            "gated",
            "resolved_tier",
            "correct",
            "attempted",
            "failed",
            "errors",
            "checks",
        ] {
            assert!(json.get(key).is_some(), "{key}");
        }
        for m in &END_TO_END {
            let entry = json
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .expect(m.name);
            for field in ["value", "median", "min", "max", "n", "unit", "better"] {
                assert!(entry.get(field).is_some(), "{}.{field}", m.name);
            }
        }
        for m in &PER_LAYER {
            let entry = json
                .get("per_layer")
                .and_then(|e| e.get(m.name))
                .expect(m.name);
            assert!(entry.get("value").and_then(Value::as_f64).is_some());
            assert!(entry.get("unit").is_some());
        }
        let value = |name: &str| {
            let m = PER_LAYER.iter().find(|m| m.name == name).unwrap();
            lane.value(m, None)
        };
        // The fastest timed run is the reported one.
        assert_eq!(lane.summary(&END_TO_END[2]).median, 2.0);
        assert_eq!(lane.value(&END_TO_END[2], None), 1.0);
        assert_eq!(value("speedup_vs_seq"), 3.0);
        assert_eq!(value("trace.overhead_share"), 1.5);
        assert_eq!(value("failed_share"), 0.2);
        assert_eq!(value("work.dof_updates"), 100.0);
    }
}
