//! `pbte` — command-line driver for the BTE scenarios and codegen
//! inspection.
//!
//! ```text
//! pbte hotspot    [n=48] [steps=2000] [dirs=8] [bands=10] [target=par] [ranks=2]
//!                 [strategy=redundant] [tier=native] [dt=auto|<seconds>]
//!                 [integrator=explicit|implicit|steady]
//! pbte elongated  [n=24] [steps=3000] [dirs=8] [bands=10] …the same keys
//! pbte bte3d      [n=8]  [steps=400]  [bands=8] …the same keys but dirs
//! pbte FILE.pbte  [target=par] [ranks=2] [tier=native]
//! pbte codegen    [target=seq|par|gpu[:async]|cells:<r>|bands:<r>|bands-gpu:<r>]
//! pbte info
//! ```
//!
//! A run is made from one `ScenarioSpec`: a built-in scenario's
//! constructor, or a `.pbte` file. On a built-in every key given is an
//! edit of the spec (`bte3d`'s angular grid is 4 polar × 8 azimuthal, so
//! it refuses `dirs=`). A file is the whole scenario: it takes only
//! `target=`, `ranks=` and `tier=`, and refuses any other key. Every run
//! passes the verify gate (plan obligations, units, intervals;
//! `pbte_apps::run_gated`) before step 0. The output follows the mesh: a
//! 2-D grid prints the ASCII temperature field, a 3-D grid its z-layer
//! means, an imported mesh neither; then the mean/min/max line and the
//! run's counters.
//!
//! `target` values: `seq`, `par` (threads), `gpu` or `gpu:async` (hybrid,
//! simulated A6000),
//! `cells:<r>` / `bands:<r>` / `bands-gpu:<r>` (distributed ranks) — the
//! spellings `pbte-trace` takes.
//! `strategy` values (effective under `bands:<r>`):
//! `redundant` (every rank solves all cells, the paper's behaviour) or
//! `divided` (per-rank cell slices plus a second fold sharing `T`).
//! `tier` values: `vm`, `row`, `native` (AOT-compiled plan kernels, the
//! default; falls back to `row` with a `native/fallback` finding when
//! `rustc` is unavailable).
//! `dt`: a literal step in seconds, or `auto` to let the interval pass
//! pick the step — the advective CFL bound under explicit stepping, an
//! accuracy-scaled multiple of it under the unconditionally stable
//! implicit integrators (the scenario's conservative scattering-limited
//! default stays in effect when the key is absent, preserving paper
//! parity).
//! `integrator` values: `explicit` (forward Euler, the default),
//! `implicit` / `implicit:<theta>` (matrix-free θ-scheme, backward Euler
//! at the default θ=1), `steady` / `steady:<tol>:<growth>`
//! (pseudo-transient continuation to steady state).
//!
//! Exit status is the one table in `DESIGN.md` ([`pbte_apps::status`]):
//! 2 for input refused before step 0 (an unknown command, key or value,
//! a key that does not apply, the verify gate's errors, a problem the DSL
//! refuses on the target), its rule on stderr; 1 for an error-severity
//! finding; 0 otherwise, `pbte` and `pbte help` included.

use pbte_apps::{
    arg, arg_str, arg_usize, check_args, exit, out, parse_strategy, parse_tier, refuse_keys,
    run_gated, scenario_file, Outcome, Ran,
};
use pbte_bte::output::{render_ascii, summary};
use pbte_bte::pbte::{MeshSpec, ScenarioSpec};
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::{finding_diagnostics, ExecTarget, Findings, Recorder};
use pbte_dsl::{Diagnostic, Severity};

/// The keys `pbte` takes; any other argument is refused.
const KNOWN: &str = "n= steps= dirs= bands= ranks= target= strategy= tier= dt= integrator=";

/// The keys that edit a built-in scenario; a `.pbte` file refuses them.
const SHAPE_KEYS: &str = "n steps dirs bands strategy dt integrator";

const USAGE: &str =
    "usage: pbte <hotspot|elongated|bte3d|FILE.pbte|codegen|info> [key=value ...]\n\
     keys: n, steps, dirs, bands, ranks, target, strategy, tier, dt, integrator\n\
     \x20     (a .pbte file is the whole scenario: it takes target, ranks and tier)\n\
     targets: seq | par | gpu[:async] | cells:<ranks> | bands:<ranks> |\n\
     \x20        bands-gpu:<ranks>\n\
     strategies (temperature Newton under bands:<ranks>): redundant | divided\n\
     tiers: vm | row | native (AOT, the default; falls back to row without rustc)\n\
     dt: <seconds> | auto (interval-pass recommendation: CFL bound when\n\
         explicit, accuracy-scaled when unconditionally stable)\n\
     integrators: explicit | implicit[:<theta>] | steady[:<tol>:<growth>]";

fn parse_target(args: &[String]) -> Result<ExecTarget, Diagnostic> {
    pbte_apps::parse_target(arg_str(args, "target", "par"), arg_usize(args, "ranks", 2))
}

/// The scenario `command` names. A file is read as it is; a built-in is
/// made at its default size (`n` cells a side, `steps` steps) with every
/// key given applied as an edit.
fn scenario(
    command: &str,
    args: &[String],
    n: usize,
    steps: usize,
) -> Result<ScenarioSpec, Diagnostic> {
    if command.ends_with(".pbte") {
        return scenario_file(command, args, SHAPE_KEYS);
    }
    let n = arg_usize(args, "n", n);
    let steps = arg_usize(args, "steps", steps);
    let cfg = |bands| BteConfig::small(n, arg_usize(args, "dirs", 8), bands, steps);
    let mut spec = match command {
        "elongated" => {
            let mut cfg = cfg(arg_usize(args, "bands", 10));
            cfg.nx = 3 * cfg.ny;
            cfg.lx = 3.0 * cfg.ly;
            ScenarioSpec::elongated(&cfg)
        }
        "bte3d" => {
            refuse_keys(args, "dirs", "bte3d's directions are 4 polar x 8 azimuthal")?;
            ScenarioSpec::coarse_3d(n, 4, 8, arg_usize(args, "bands", 8), steps)
        }
        _ => ScenarioSpec::hotspot(&cfg(arg_usize(args, "bands", 10))),
    };
    if let Some(name) = arg(args, "strategy") {
        spec.strategy = parse_strategy(name)?;
    }
    if let Some(integrator) = arg(args, "integrator") {
        spec.integrator = integrator
            .parse()
            .map_err(|e| Diagnostic::input_invalid(format!("integrator={integrator}: {e}")))?;
    }
    Ok(spec)
}

/// Resolve a `dt=` key into `spec.dt`. A literal value is used verbatim;
/// `auto` probe-compiles the scenario at its default step and asks the
/// interval pass for a recommendation: the advective CFL bound
/// (`dt ≤ width_min / vmax`) under explicit stepping, an accuracy-scaled
/// multiple of it when the chosen integrator is unconditionally stable.
/// Returns the notice when `auto` changed the step.
fn apply_dt(spec: &mut ScenarioSpec, dt: &str) -> Result<Option<String>, Diagnostic> {
    if dt != "auto" {
        let seconds = dt.parse().ok().filter(|s: &f64| *s > 0.0 && s.is_finite());
        spec.dt = Some(seconds.ok_or_else(|| {
            Diagnostic::input_invalid(format!(
                "dt={dt}: expects a positive number of seconds or `auto`"
            ))
        })?);
        return Ok(None);
    }
    let probe = spec.build()?.solver(ExecTarget::CpuSeq)?;
    let default_dt = probe.compiled.problem.dt;
    let rec = pbte_dsl::analysis::recommend_dt(&probe.compiled)
        .ok_or_else(|| Diagnostic::input_invalid("dt=auto: the scenario has no CFL bound"))?;
    spec.dt = Some(rec.dt);
    Ok((rec.dt != default_dt).then(|| {
        format!(
            "dt=auto set the step by the `{}` policy: {:.3e} s \
             (scenario default {default_dt:.3e} s, CFL bound {:.3e} s, \
             vmax {:.3e} m/s, min effective width {:.3e} m)",
            rec.policy,
            rec.dt,
            rec.bound.dt_max(),
            rec.bound.vmax,
            rec.bound.width_min
        )
    }))
}

/// Run the scenario `command` names through the one gated run path and
/// print its field, counters and findings.
fn run_scenario(command: &str, args: &[String]) -> Result<Findings, Outcome> {
    let (n, steps) = match command {
        "elongated" => (24, 3000),
        "bte3d" => (8, 400),
        _ => (48, 2000),
    };
    let mut spec = scenario(command, args, n, steps)?;
    let dt_note = match arg(args, "dt") {
        Some(dt) => apply_dt(&mut spec, dt)?,
        None => None,
    };
    let (target, tier) = (parse_target(args)?, parse_tier(args)?);
    let start = std::time::Instant::now();
    let Ran {
        solver,
        vars,
        report,
    } = run_gated(&spec, target, tier, &mut Recorder::null())?;
    let wall = start.elapsed().as_secs_f64();
    let t = solver.fields().slice(vars.t);
    out!(
        "scenario {}: {} cells, {} dof/cell, {} steps",
        spec.name,
        t.len(),
        solver.compiled.n_flat,
        report.steps
    );
    if let Some(note) = &dt_note {
        out!("{note}");
    }
    match spec.mesh {
        MeshSpec::Grid2d { nx, .. } => out!("{}", render_ascii(t, nx)),
        MeshSpec::Grid3d { nx, ny, .. } => {
            for (k, layer) in t.chunks(nx * ny).enumerate() {
                let mean = layer.iter().sum::<f64>() / layer.len() as f64;
                out!("z-layer {k}: {mean:.4} K");
            }
        }
        MeshSpec::Gmsh { .. } | MeshSpec::Medit { .. } => {}
    }
    let (mean, lo, hi) = summary(t);
    out!("mean {mean:.3} K, min {lo:.3} K, max {hi:.3} K");
    out!(
        "{} steps, {:.1} s wall, {} dof updates, comm {} B",
        report.steps,
        wall,
        report.work.dof_updates,
        report.comm.bytes
    );
    out!(
        "temperature: {} solves, {} newton iters",
        report.work.temperature_solves,
        report.work.newton_iters
    );
    // Time-integration summary: what stepped, how far, and where the
    // stability wall would have been (dt=auto clamps surface here too).
    let problem = &solver.compiled.problem;
    let cfl_note = match pbte_dsl::analysis::cfl_bound(&solver.compiled) {
        Some(b) => format!(
            "CFL bound {:.3e} s ({:.1}x)",
            b.dt_max(),
            problem.dt / b.dt_max()
        ),
        None => "no CFL bound (non-advective)".into(),
    };
    let auto_note = if dt_note.is_some() { ", dt=auto" } else { "" };
    out!(
        "time integration: {} | dt {:.3e} s{auto_note} | {cfl_note}",
        problem.integrator.name(),
        problem.dt
    );
    if problem.integrator.is_implicit() {
        out!(
            "krylov: {} rhs evals, {} jvp evals, {} iters",
            report.work.rhs_evals,
            report.work.jvp_evals,
            report.work.krylov_iters
        );
    }
    out!("\nphase breakdown:\n{}", report.timer.breakdown().render());
    print_findings(&report.findings);
    Ok(report.findings)
}

/// Print what a run found, one line per rule: its severity, how often it
/// fired and its first message. A clean run prints nothing.
fn print_findings(findings: &Findings) {
    if findings.totals.is_empty() {
        return;
    }
    out!("findings:");
    for (rule, total) in &findings.totals {
        if let Some(first) = findings.kept.iter().find(|e| e.name == *rule) {
            out!("  {} {rule} (x{total}): {}", first.severity, first.message);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(outcome) | Err(outcome) => exit(outcome),
    }
}

fn run(args: &[String]) -> Result<Outcome, Outcome> {
    let Some((command, rest)) = args.split_first().filter(|(c, _)| *c != "help") else {
        out!("{USAGE}");
        return Ok(Outcome::default());
    };
    let known = ["hotspot", "elongated", "bte3d", "codegen", "info"];
    if !known.contains(&command.as_str()) && !command.ends_with(".pbte") {
        eprintln!("{USAGE}");
        return Err(Diagnostic::input_unknown(format!("unknown command `{command}`")).into());
    }
    check_args(rest, KNOWN)?;
    let findings = match command.as_str() {
        "codegen" => {
            let target = parse_target(rest)?;
            let on_device = matches!(target, ExecTarget::GpuHybrid { .. });
            let solver = scenario("hotspot", rest, 8, 1)?.build()?.solver(target)?;
            out!("{}", solver.generated_source());
            if on_device {
                out!("{}", solver.compiled.transfer_schedule().render());
            }
            Findings::default()
        }
        "info" => {
            info()?;
            Findings::default()
        }
        scenario => run_scenario(scenario, rest)?,
    };
    Ok(Outcome::Finished {
        findings: finding_diagnostics(&findings),
        fails_at: Severity::Error,
    })
}

/// The paper's headline configuration and its memory footprint.
fn info() -> Result<(), Diagnostic> {
    let cfg = BteConfig::paper_headline();
    let (per_cell, total) = cfg.dof();
    out!("paper headline configuration:");
    out!(
        "  domain        : {:.0} x {:.0} µm",
        cfg.lx * 1e6,
        cfg.ly * 1e6
    );
    out!("  mesh          : {} x {} cells", cfg.nx, cfg.ny);
    out!("  directions    : {}", cfg.ndirs);
    out!(
        "  spectral bands: {} -> 55 (band, polarization) groups",
        cfg.n_freq_bands
    );
    out!("  dof           : {per_cell}/cell, {total} total");
    out!("  steps         : {} (performance unit)", cfg.n_steps);
    // Memory footprint at a reduced shape (same per-cell numbers
    // scale linearly to the headline mesh).
    let solver = hotspot_2d(&BteConfig::small(12, 8, 10, 1)).solver(ExecTarget::CpuSeq)?;
    let report = solver.compiled.memory_report();
    let scale = (cfg.nx * cfg.ny) as f64 / report.n_cells as f64
        * (per_cell as f64 / (report.n_dof / report.n_cells) as f64);
    let gib = |bytes: usize| bytes as f64 * scale / (1u64 << 30) as f64;
    out!(
        "  memory        : ~{:.2} GiB device at headline scale",
        gib(report.device_bytes)
    );
    out!(
        "  workspace     : ~{:.2} GiB host integrator buffers per rank",
        gib(report.workspace_bytes)
    );
    out!(
        "\ntargets: seq | par | gpu[:async] | cells:<ranks> | \
         bands:<ranks> | bands-gpu:<ranks>"
    );
    Ok(())
}
