//! `pbte-benchmark`: the file-in -> field-out benchmark of the PBTE stack.
//!
//! ```text
//! pbte-benchmark measure --workload W --seed N --seconds S --trace 0|1
//! pbte-benchmark run [--seed N] [--reps R] [--quick] [--only W] [--out FILE]
//! pbte-benchmark compare A.json B.json
//! pbte-benchmark run-one ...            (the child; spawned by the others)
//! ```
//!
//! `measure` is the form `BENCHMARK.json` names: one workload, timed runs
//! for `S` seconds, one JSON line. `run` measures every workload with the
//! runs interleaved and writes a result file `compare` reads. See
//! `README.md` beside this package.

mod child;
mod compare;
mod gen;
mod host;
mod json;
mod metrics;
mod session;
mod stats;
mod workloads;

use gen::Sizes;
use host::Canaries;
use json::{num, obj, text};
use metrics::{END_TO_END, PER_LAYER};
use serde::Value;
use session::{Lane, Session};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 20240527;
/// Timed runs of `run` after the one discarded warm-up run.
const DEFAULT_REPS: usize = 7;
/// Fewest timed runs a `measure` box reports a median of.
const MIN_BOX_REPS: usize = 3;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args { pairs: Vec::new() };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if flags.contains(&key) => args.pairs.push((key.to_string(), None)),
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    args.pairs.push((key.to_string(), Some(value.clone())));
                }
                None => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(args)
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")))
            .transpose()
    }

    fn workload(&self, key: &str) -> Result<Option<&'static Workload>, String> {
        self.value(key)
            .map(|name| workloads::by_name(name).ok_or(format!("unknown workload `{name}`")))
            .transpose()
    }
}

/// Private directory beside the executable: inside the cargo target
/// directory, so inside the checkout and ignored by git.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join("pbte-benchmark-work"))
}

fn child_main(raw: &[String], start: Instant) -> ExitCode {
    let spec = Args::parse(raw, &["reference"]).and_then(|args| {
        Ok(child::RunSpec {
            workload: args.workload("workload")?.ok_or("--workload is required")?,
            inputs: args.value("inputs").ok_or("--inputs is required")?.into(),
            out: args.value("out").ok_or("--out is required")?.into(),
            loops: args.parsed("loops")?.unwrap_or(1),
            reference: args.flag("reference"),
            trace: args.value("trace-out").map(PathBuf::from),
            dump: args.value("dump").map(PathBuf::from),
        })
    });
    let (line, code) = match spec.and_then(|spec| child::run(&spec, start)) {
        Ok(result) => (result, ExitCode::SUCCESS),
        Err(error) => (obj([("error", text(&error))]), ExitCode::FAILURE),
    };
    println!("{}", serde_json::to_string(&line).expect("renders"));
    code
}

fn manifest(session: &Session, sizes: Sizes, reps: usize, canaries: &Canaries) -> Value {
    obj([
        ("schema", text("pbte-benchmark/1")),
        ("seed", Value::UInt(session.seed)),
        ("reps", Value::UInt(reps as u64)),
        ("step_scale", num(gen::STEP_SCALE)),
        ("step_divisor", Value::UInt(sizes.divisor as u64)),
        ("nproc", Value::UInt(workloads::nproc() as u64)),
        ("bands_ranks", Value::UInt(workloads::bands_ranks() as u64)),
        ("rustc", text(&host::first_line_of("rustc", &["-V"]))),
        (
            "git_rev",
            text(&host::first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("host.triad_gbs", num(canaries.triad_gbs)),
        (
            "host.triad_array_bytes",
            Value::UInt(canaries.triad_array_bytes),
        ),
        ("host.llc_bytes", Value::UInt(canaries.llc_bytes)),
        ("host.canary_s", num(canaries.canary_s)),
        (
            "percentiles",
            text("timed runs are too few for any percentile to have ten samples beyond it: median, min, max and n are given instead"),
        ),
    ])
}

/// `run`: every workload (or `--only` one), runs interleaved rep-major so
/// that drift of the host lands evenly, one result file.
fn run_main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["quick"])?;
    let sizes = if args.flag("quick") {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let seed = args.parsed("seed")?.unwrap_or(DEFAULT_SEED);
    let reps = match args.parsed("reps")? {
        Some(reps) => reps,
        None if args.flag("quick") => 1,
        None => DEFAULT_REPS,
    };
    let only = args.workload("only")?;
    let selected: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
        .collect();

    let canaries = host::canaries();
    let mut session = Session::new(&work_root()?, seed, sizes)?;
    let mut lanes: Vec<Lane> = selected.iter().map(|w| session.open(w)).collect();
    for _ in 0..reps {
        for lane in &mut lanes {
            session.rep(lane);
        }
    }
    // The smoke run checks outputs; it has no use for the traced run.
    if !args.flag("quick") {
        for lane in &mut lanes {
            session.traced_rep(lane);
            println!("trace: {}", session.trace_path(lane.workload).display());
        }
    }

    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>10} {:>8} {:>9}  tier    runs failed",
        "workload", "wall_s", "setup_s", "solve_s", "ns_per_dof", "cpu_s", "rss_MiB"
    );
    for lane in &lanes {
        let values: Vec<f64> = END_TO_END.iter().map(|m| lane.value(m, None)).collect();
        println!(
            "{:<20} {:>9.4} {:>9.4} {:>9.4} {:>10.2} {:>8.3} {:>9.1}  {:<7} {:>4} {:>6}",
            lane.workload.name,
            values[0],
            values[1],
            values[2],
            values[3],
            values[4],
            values[5],
            lane.tier(),
            lane.timed.len(),
            lane.failed
        );
        for (check, found) in &lane.checks {
            println!("    check {check}: {found}");
        }
        for error in &lane.errors {
            println!("    FAILED {error}");
        }
    }
    let result = obj([
        ("manifest", manifest(&session, sizes, reps, &canaries)),
        (
            "workloads",
            Value::Obj(
                lanes
                    .iter()
                    .map(|l| (l.workload.name.to_string(), l.to_json(Some(&canaries))))
                    .collect(),
            ),
        ),
    ]);
    let rendered = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    match args.value("out") {
        Some(path) => {
            std::fs::write(path, rendered + "\n").map_err(|e| format!("{path}: {e}"))?;
            println!("result file: {path}");
        }
        None => println!("{rendered}"),
    }
    session.close();
    let ok = lanes.iter().all(Lane::correct);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `measure`: one workload, timed runs for `--seconds`, one JSON line with
/// the end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
fn measure_main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    let w = args.workload("workload")?.ok_or("--workload is required")?;
    let seed = args.parsed("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = args.parsed("seconds")?.ok_or("--seconds is required")?;
    let trace = match args.value("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };

    let mut session = Session::new(&work_root()?, seed, Sizes::FULL)?;
    let mut lane = session.open(w);
    let box_start = Instant::now();
    let box_len = Duration::from_secs_f64(seconds);
    // A lane whose warm-up failed is not worth a box of failures.
    while lane.failed == 0 && (box_start.elapsed() < box_len || lane.timed.len() < MIN_BOX_REPS) {
        session.rep(&mut lane);
    }
    let canaries = trace.then(|| {
        session.traced_rep(&mut lane);
        host::canaries()
    });
    session.close();

    let listed: &[metrics::Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(String, Value)> = listed
        .iter()
        .map(|m| {
            let value = lane.value(m, canaries.as_ref());
            (
                m.name.to_string(),
                obj([("value", num(value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    for error in &lane.errors {
        eprintln!("FAILED {error}");
    }
    let line = obj([
        ("correct", Value::Bool(lane.correct())),
        ("attempted", Value::UInt(lane.attempted as u64)),
        ("failed", Value::UInt(lane.failed as u64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("usage: pbte-benchmark measure|run|compare ... (see README.md)");
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "run-one" => return child_main(rest, start),
        "measure" => measure_main(rest),
        "run" => run_main(rest),
        "compare" => compare::main(rest),
        other => Err(format!("unknown command `{other}`")),
    };
    outcome.unwrap_or_else(|error| {
        eprintln!("pbte-benchmark: {error}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{f64_at, items_at, str_at};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses")
    }

    fn keys(value: &Value) -> Vec<&str> {
        match value {
            Value::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {value:?}"),
        }
    }

    #[test]
    fn benchmark_json_has_the_contract_shape() {
        let spec = benchmark_json();
        assert_eq!(
            keys(&spec),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = f64_at(&spec, "run_seconds").unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        for w in items_at(&spec, "workloads") {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_at(w, "why").unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for m in items_at(&spec, "end_to_end") {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            let bound = f64_at(m, "bound").unwrap();
            assert!((0.0..=0.25).contains(&bound), "{m:?}");
        }
        for m in items_at(&spec, "per_layer") {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
        let setup = items_at(&spec, "end_to_end")
            .iter()
            .find(|m| str_at(m, "name") == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        assert_eq!(str_at(setup, "unit"), Some("s"));
        assert_eq!(str_at(setup, "better"), Some("lower"));
        let widest = items_at(&spec, "end_to_end")
            .iter()
            .filter_map(|m| f64_at(m, "bound"))
            .fold(0.0, f64::max);
        assert_eq!(f64_at(setup, "bound"), Some(widest));
    }

    #[test]
    fn benchmark_json_names_match_the_tables() {
        let spec = benchmark_json();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            items_at(&spec, key)
                .iter()
                .map(|m| {
                    let field = |f: &str| str_at(m, f).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |metrics: &[metrics::Metric]| -> Vec<(String, String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<(String, String)> = items_at(&spec, "workloads")
            .iter()
            .map(|w| {
                (
                    str_at(w, "name").unwrap().to_string(),
                    str_at(w, "why").unwrap().to_string(),
                )
            })
            .collect();
        let expected: Vec<(String, String)> = workloads::gated()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for w in &WORKLOADS {
            assert!(metrics::is_valid_name(w.name));
        }
    }

    #[test]
    fn arguments_parse_pairs_and_flags() {
        let raw: Vec<String> = ["--seed", "7", "--quick", "a.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw[..3], &["quick"]).unwrap();
        assert_eq!(args.parsed::<u64>("seed").unwrap(), Some(7));
        assert!(args.flag("quick") && !args.flag("reps"));
        assert!(Args::parse(&raw, &["quick"]).is_err());
        assert!(Args::parse(&raw[..1], &[]).is_err());
        assert!(args.workload("seed").is_err());
    }
}
