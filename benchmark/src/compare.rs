//! `compare A.json B.json`: is B worse than A by more than the bound
//! `BENCHMARK.json` fixes? One row per workload and end-to-end metric.

use crate::json::{entries_at, f64_at, items_at, str_at};
use crate::metrics::{Source, PER_LAYER};
use serde::Value;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The values differ by more than the bound, but the two sets'
    /// min-max ranges overlap: the run-to-run spread hides the answer.
    Unresolved,
    Worse,
}

/// Reported value, minimum and maximum of one metric in one result file.
#[derive(Debug, Clone, Copy)]
pub struct Range {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// Share of `a`'s value by which `b` is worse, given the direction.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let delta = if better == "lower" { b - a } else { a - b };
    delta / a.abs()
}

pub fn verdict(a: Range, b: Range, better: &str, bound: f64) -> Verdict {
    if worse_by(a.value, b.value, better) <= bound {
        Verdict::Ok
    } else if a.min <= b.max && b.min <= a.max {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn load(path: &str) -> Result<Value, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&src).map_err(|e| format!("{path}: {e}"))
}

fn range_of(lane: &Value, metric: &str) -> Option<Range> {
    let m = lane.get("end_to_end")?.get(metric)?;
    Some(Range {
        value: f64_at(m, "value")?,
        min: f64_at(m, "min")?,
        max: f64_at(m, "max")?,
    })
}

/// `BENCHMARK.json`: in the working directory, else beside this package.
fn load_bounds() -> Result<Value, String> {
    let beside = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    load("BENCHMARK.json").or_else(|_| load(beside))
}

pub fn main(raw: &[String]) -> Result<ExitCode, String> {
    let [file_a, file_b] = raw else {
        return Err("usage: compare A.json B.json".into());
    };
    let (a, b) = (load(file_a)?, load(file_b)?);
    let spec = load_bounds()?;
    let same_seed = a.get("manifest").and_then(|m| m.get("seed"))
        == b.get("manifest").and_then(|m| m.get("seed"));

    println!(
        "{:<20} {:<12} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut worse = 0;
    for (name, lane_a) in entries_at(&a, "workloads") {
        let Some(lane_b) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<20} missing from B");
            worse += 1;
            continue;
        };
        for metric in items_at(&spec, "end_to_end") {
            let (Some(metric_name), Some(better), Some(bound)) = (
                str_at(metric, "name"),
                str_at(metric, "better"),
                f64_at(metric, "bound"),
            ) else {
                return Err(
                    "BENCHMARK.json: an end_to_end metric lacks name, better or bound".into(),
                );
            };
            let (Some(ra), Some(rb)) =
                (range_of(lane_a, metric_name), range_of(lane_b, metric_name))
            else {
                println!("{name:<20} {metric_name:<12} missing");
                worse += 1;
                continue;
            };
            let v = verdict(ra, rb, better, bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{name:<20} {metric_name:<12} {:>12.5} {:>12.5} {:>9.4} {:>7.2}  {}",
                ra.value,
                rb.value,
                rb.value / ra.value,
                bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Worse => "worse",
                }
            );
        }
        let (fa, fb) = (f64_at(lane_a, "failed"), f64_at(lane_b, "failed"));
        if fb > fa {
            println!("{name:<20} {:<12} {fa:?} -> {fb:?}  worse", "failed");
            worse += 1;
        }
        if !same_seed {
            continue;
        }
        // Same seed, same inputs: bytes and exact counts must be equal.
        for key in ["hash_t", "hash_i"] {
            if str_at(lane_a, key) != str_at(lane_b, key) {
                println!("{name:<20} {key:<12} differs  worse");
                worse += 1;
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Exact) {
            let value = |lane: &Value| {
                lane.get("per_layer")
                    .and_then(|p| p.get(m.name))
                    .and_then(|e| f64_at(e, "value"))
            };
            if value(lane_a) != value(lane_b) {
                println!(
                    "{name:<20} {:<12} {:?} != {:?}  worse",
                    m.name,
                    value(lane_a),
                    value(lane_b)
                );
                worse += 1;
            }
        }
    }
    if !same_seed {
        println!("seeds differ: hashes and exact counts not compared");
    }
    println!("B/A = B's reported value over A's; {worse} row(s) worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, min: f64, max: f64) -> Range {
        Range { value, min, max }
    }

    #[test]
    fn verdicts_follow_bound_and_overlap() {
        let a = r(1.0, 0.95, 1.05);
        assert_eq!(verdict(a, r(1.08, 1.06, 1.10), "lower", 0.10), Verdict::Ok);
        assert_eq!(verdict(a, r(0.5, 0.4, 0.6), "lower", 0.10), Verdict::Ok);
        assert_eq!(
            verdict(a, r(1.2, 1.0, 1.3), "lower", 0.10),
            Verdict::Unresolved
        );
        assert_eq!(verdict(a, r(1.2, 1.15, 1.3), "lower", 0.10), Verdict::Worse);
        assert_eq!(verdict(a, r(0.8, 0.7, 0.9), "higher", 0.10), Verdict::Worse);
        assert_eq!(verdict(a, r(1.5, 1.4, 1.6), "higher", 0.10), Verdict::Ok);
    }
}
