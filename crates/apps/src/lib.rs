//! Workspace-level examples and integration tests.
//!
//! Besides what the three binaries share — one CLI vocabulary
//! ([`parse_target`] and [`parse_strategy`] here, `KernelTier::from_name`
//! in `pbte-dsl`), one check of their arguments ([`check_args`]), one run
//! path ([`run_gated`]), one way to print ([`out!`]) and one exit table
//! ([`status`], [`exit`]) — this crate exists to host the
//! runnable examples in the repository-root `examples/` directory and the
//! cross-crate integration tests in the root `tests/` directory as cargo
//! targets:
//!
//! ```text
//! cargo run --release -p pbte-apps --example quickstart
//! cargo run --release -p pbte-apps --example hotspot_2d
//! cargo run --release -p pbte-apps --example elongated
//! cargo run --release -p pbte-apps --example gpu_hybrid
//! cargo run --release -p pbte-apps --example partitioning
//! cargo run --release -p pbte-apps --example bte_3d
//! cargo test -p pbte-apps
//! ```

use pbte_bte::pbte::ScenarioSpec;
use pbte_bte::temperature::{BteVars, TemperatureStrategy};
use pbte_dsl::exec::{Recorder, SolveReport};
use pbte_dsl::{Diagnostic, ExecTarget, GpuStrategy, KernelTier, Severity, Solver};
use pbte_gpu::DeviceSpec;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

/// `println!` for the three binaries. Once stdout is closed (`pbte info |
/// head -1`) the rest of the output is dropped instead of panicking, and
/// the run still ends through [`exit`] with the table's status.
#[macro_export]
macro_rules! out {
    () => {
        $crate::print_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::print_line(format_args!($($arg)*))
    };
}

/// One line of [`out!`].
#[doc(hidden)]
pub fn print_line(line: std::fmt::Arguments) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if !CLOSED.load(Ordering::Relaxed) && writeln!(std::io::stdout(), "{line}").is_err() {
        CLOSED.store(true, Ordering::Relaxed);
    }
}

/// What a gated run leaves: the solver (its fields), the scenario's
/// variable handles and the solve's report.
pub struct Ran {
    pub solver: Solver,
    pub vars: BteVars,
    pub report: SolveReport,
}

/// The one run path of `pbte` and `pbte-trace`: build `spec`, apply
/// `tier`, turn on the physics health probes, pass the verify gate
/// (`BteProblem::verified`) on `target`, and solve under `rec`. A
/// refusal before step 0 — the build's, the gate's error findings, the
/// target's — is [`Outcome::Refused`]; the gate's warnings go to stderr
/// and the run goes on.
pub fn run_gated(
    spec: &ScenarioSpec,
    target: ExecTarget,
    tier: KernelTier,
    rec: &mut Recorder,
) -> Result<Ran, Outcome> {
    let mut bte = spec.build()?;
    bte.problem.kernel_tier(tier);
    bte.enable_probes();
    let vars = bte.vars;
    let (mut solver, warnings) = bte.verified(target).map_err(Outcome::Refused)?;
    for d in &warnings {
        eprintln!("verify: {d}");
    }
    let report = solver.solve_traced(rec)?;
    Ok(Ran {
        solver,
        vars,
        report,
    })
}

/// How a run of a binary ended, as its exit status reads it.
#[derive(Debug)]
pub enum Outcome {
    /// The input was refused before step 0 (an `input/*`, `mesh/*` or
    /// `dsl/*` refusal, or the verify gate's error findings).
    Refused(Vec<Diagnostic>),
    /// The program ran, found `findings`, and fails at `fails_at` or
    /// above: `Error` for a run, `Warning` for `pbte-verify`.
    Finished {
        findings: Vec<Diagnostic>,
        fails_at: Severity,
    },
}

/// A run that found nothing.
impl Default for Outcome {
    fn default() -> Outcome {
        Outcome::Finished {
            findings: Vec::new(),
            fails_at: Severity::Error,
        }
    }
}

impl From<Diagnostic> for Outcome {
    fn from(refusal: Diagnostic) -> Outcome {
        Outcome::Refused(vec![refusal])
    }
}

/// The one exit table of the three binaries (`DESIGN.md`): 2 for a
/// refusal, 1 for a finding at or above `fails_at` or any `physics/*`
/// finding, 0 otherwise.
pub fn status(outcome: &Outcome) -> i32 {
    match outcome {
        Outcome::Refused(_) => 2,
        Outcome::Finished { findings, fails_at } => {
            let fails = |d: &Diagnostic| d.severity >= *fails_at || d.rule.starts_with("physics/");
            i32::from(findings.iter().any(fails))
        }
    }
}

/// End the process with [`status`], the one way the binaries exit; a
/// refusal's diagnostics go to stderr first.
pub fn exit(outcome: Outcome) -> ! {
    if let Outcome::Refused(refusals) = &outcome {
        refusals.iter().for_each(|d| eprintln!("{d}"));
    }
    std::process::exit(status(&outcome))
}

/// Refuse any argument outside `known`, a binary's one space-separated
/// list of its keys (`n=`) and flags (`--parity`), as `input/unknown`.
pub fn check_args(args: &[String], known: &str) -> Result<(), Diagnostic> {
    let name = |a: &String| a.find('=').map_or(a.clone(), |i| a[..=i].to_string());
    let Some(arg) = args
        .iter()
        .find(|a| !known.split(' ').any(|k| k == name(a)))
    else {
        return Ok(());
    };
    let what = match (arg.starts_with("--"), arg.contains('=')) {
        (true, _) => "flag",
        (false, true) => "key",
        (false, false) => "argument",
    };
    Err(Diagnostic::input_unknown(format!(
        "unknown {what} `{arg}` (known: {known})"
    )))
}

/// The `tier=` key: `native` when absent.
pub fn parse_tier(args: &[String]) -> Result<KernelTier, Diagnostic> {
    let name = arg_str(args, "tier", KernelTier::Native.name());
    KernelTier::from_name(name).ok_or_else(|| {
        Diagnostic::input_unknown(format!("unknown tier `{name}` (use vm, row or native)"))
    })
}

/// Parse a positive `KEY=count` override from the command line, e.g.
/// `cargo run --example hotspot_2d -- n=64 steps=2000`; `default` when
/// the key is absent. A malformed or zero count is refused through
/// [`exit`], naming the key.
pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    let prefix = format!("{key}=");
    match args.iter().find_map(|a| a.strip_prefix(&prefix)) {
        None => default,
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => exit(Outcome::from(Diagnostic::input_invalid(format!(
                "bad count `{key}={v}` (use a positive integer)"
            )))),
        },
    }
}

/// The value of a `KEY=value` argument, when given.
pub fn arg<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let prefix = format!("{key}=");
    args.iter().find_map(|a| a.strip_prefix(&prefix))
}

/// Parse a `KEY=value`-style string override from the command line, e.g.
/// `pbte-trace scenario=elongated target=bands`.
pub fn arg_str<'a>(args: &'a [String], key: &str, default: &'a str) -> &'a str {
    arg(args, key).unwrap_or(default)
}

/// Refuse the first of `keys` (space-separated key names and `--flags`)
/// given in `args` as `input/invalid`, naming it and saying `why` it does
/// not apply — a key or flag is never ignored in silence.
pub fn refuse_keys(args: &[String], keys: &str, why: &str) -> Result<(), Diagnostic> {
    let given = |k: &str| match k.starts_with("--") {
        true => args.iter().any(|a| a == k).then(|| k.to_string()),
        false => arg(args, k).map(|value| format!("{k}={value}")),
    };
    match keys.split(' ').find_map(given) {
        Some(arg) => Err(Diagnostic::input_invalid(format!(
            "`{arg}` does not apply: {why}"
        ))),
        None => Ok(()),
    }
}

/// Read the `.pbte` file at `path`, refusing any of `keys` given in
/// `args`: a file is the whole scenario.
pub fn scenario_file(path: &str, args: &[String], keys: &str) -> Result<ScenarioSpec, Diagnostic> {
    let why = "a .pbte file is the whole scenario (it takes target, ranks and tier)";
    refuse_keys(args, keys, why)?;
    ScenarioSpec::from_file(path)
}

/// Parse a `strategy=` value — the temperature Newton of a band-parallel
/// target, one spelling for `pbte` and `pbte-trace`: `redundant` (every
/// rank solves every cell) or `divided` (each cell on one rank).
pub fn parse_strategy(spec: &str) -> Result<TemperatureStrategy, Diagnostic> {
    TemperatureStrategy::from_name(spec).ok_or_else(|| {
        Diagnostic::input_unknown(format!(
            "unknown strategy `{spec}` (use redundant or divided)"
        ))
    })
}

/// Parse a `target=` value — the one spelling table of `pbte`,
/// `pbte-trace` and `pbte-verify`: `seq`, `par`, `gpu` (= `gpu:async`),
/// and `cells`, `bands`, `bands-gpu` with an optional
/// `:<ranks>` suffix (`default_ranks` without one). Distributed band
/// targets partition the BTE's band index `b`. Zero ranks is an error.
pub fn parse_target(spec: &str, default_ranks: usize) -> Result<ExecTarget, Diagnostic> {
    let (name, ranks) = match spec.split_once(':') {
        Some((name @ ("cells" | "bands" | "bands-gpu"), r)) => (name, r.parse().unwrap_or(0)),
        _ => (spec, default_ranks),
    };
    if ranks == 0 {
        return Err(Diagnostic::input_invalid(format!(
            "bad rank count in target `{spec}` (use ranks >= 1)"
        )));
    }
    let index = "b".to_string();
    let spec_a6000 = DeviceSpec::a6000();
    Ok(match name {
        "seq" => ExecTarget::CpuSeq,
        "par" => ExecTarget::CpuParallel,
        "cells" => ExecTarget::DistCells { ranks },
        "bands" => ExecTarget::DistBands { ranks, index },
        "gpu" | "gpu:async" => ExecTarget::GpuHybrid {
            spec: spec_a6000,
            strategy: GpuStrategy::AsyncBoundary,
        },
        "bands-gpu" => ExecTarget::DistBandsGpu {
            ranks,
            index,
            spec: spec_a6000,
            strategy: GpuStrategy::AsyncBoundary,
        },
        _ => {
            return Err(Diagnostic::input_unknown(format!(
                "unknown target `{spec}` (use seq, par, gpu[:async], \
                 cells[:<ranks>], bands[:<ranks>] or bands-gpu[:<ranks>])"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_spelling_round_trips_and_unknown_is_an_error() {
        // (spelling, the canonical label it must parse to)
        for (spec, label) in [
            ("seq", "seq"),
            ("par", "par"),
            ("gpu", "gpu:async"),
            ("gpu:async", "gpu:async"),
            ("cells", "cells:2"),
            ("cells:3", "cells:3"),
            ("bands", "bands:2"),
            ("bands:4", "bands:4"),
            ("bands-gpu", "bands-gpu:2"),
            ("bands-gpu:3", "bands-gpu:3"),
        ] {
            let target = parse_target(spec, 2).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(target.label(), label, "{spec}");
            // The label is itself an accepted spelling of the same target.
            assert_eq!(parse_target(label, 7).unwrap().label(), label);
        }
        for bad in [
            "bogus", "", "cells:", "cells:0", "bands:x", "seq:2", "gpu:sync",
        ] {
            assert!(parse_target(bad, 2).is_err(), "`{bad}` must be refused");
        }
        // The hybrid target's second label is gone (spelled in pieces so
        // that the guard against the old name does not find this test).
        assert!(parse_target(&["gpu:", "precompute"].concat(), 2).is_err());
        // `ranks=0` is refused too, not only `:0`.
        for spec in ["cells", "bands", "bands-gpu"] {
            assert!(parse_target(spec, 0).is_err(), "`{spec}` with ranks=0");
        }
    }

    #[test]
    fn every_tier_name_round_trips() {
        assert_eq!(KernelTier::ALL.len(), 3);
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::from_name("bogus"), None);
        // The per-flat stack interpreter is gone: its name is no tier.
        assert_eq!(KernelTier::from_name("bound"), None);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = vec!["n=32".into(), "steps=100".into()];
        assert_eq!(arg_usize(&args, "n", 8), 32);
        assert_eq!(arg_usize(&args, "steps", 5), 100);
        assert_eq!(arg_usize(&args, "missing", 7), 7);
        // A malformed or zero count exits 2 naming its key, never falls
        // back to the default: `tests/verify_schema.rs` runs the binaries.
    }

    #[test]
    fn arg_str_parsing() {
        let args: Vec<String> = vec!["scenario=elongated".into(), "target=bands".into()];
        assert_eq!(arg_str(&args, "scenario", "hotspot"), "elongated");
        assert_eq!(arg_str(&args, "target", "seq"), "bands");
        assert_eq!(arg_str(&args, "missing", "dflt"), "dflt");
    }
}
