//! `pbte` — command-line driver for the BTE scenarios and codegen
//! inspection.
//!
//! ```text
//! pbte hotspot   [n=48] [steps=2000] [dirs=8] [bands=10] [target=par] [strategy=redundant]
//!                [tier=row] [dt=auto|<seconds>] [integrator=explicit|implicit|steady]
//! pbte elongated [n=24] [steps=3000] [target=par] [tier=row] [dt=auto|<seconds>]
//!                [integrator=explicit|implicit|steady]
//! pbte bte3d     [n=8]  [steps=400]
//! pbte codegen   [target=seq|par|gpu[:async|:precompute]|cells:<r>|bands:<r>|bands-gpu:<r>]
//! pbte info
//! ```
//!
//! `target` values: `seq`, `par` (threads), `gpu` (hybrid, simulated
//! A6000; `gpu:async` / `gpu:precompute` name the paper's two boundary
//! strategies, which run one schedule),
//! `cells:<r>` / `bands:<r>` / `bands-gpu:<r>` (distributed ranks) — the
//! spellings `pbte-trace` takes.
//! `strategy` values (2-D scenarios, effective under `bands:<r>`):
//! `redundant` (every rank solves all cells, the paper's behaviour) or
//! `divided` (per-rank cell slices plus a second fold sharing `T`).
//! `tier` values: `vm`, `row`, `native` (AOT-compiled plan
//! kernels; falls back to `row` with a diagnostic when `rustc` is
//! unavailable).
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
//! a problem the DSL refuses on the target), its rule on stderr; 1 for an
//! error-severity finding; 0 otherwise, `pbte` and `pbte help` included.

use pbte_apps::{arg_str, arg_usize, check_args, exit, parse_tier, Outcome};
use pbte_bte::output::{render_ascii, summary, temperature_grid};
use pbte_bte::scenario::{coarse_3d, elongated, hotspot_2d, BteConfig, BteProblem};
use pbte_dsl::exec::{finding_diagnostics, ExecTarget, Findings, Solver};
use pbte_dsl::problem::Integrator;
use pbte_dsl::{Diagnostic, Severity};

/// The keys `pbte` takes; any other argument is refused.
const KNOWN: &str = "n= steps= dirs= bands= ranks= target= strategy= tier= dt= integrator=";

const USAGE: &str = "usage: pbte <hotspot|elongated|bte3d|codegen|info> [key=value ...]\n\
     keys: n, steps, dirs, bands, ranks, target, strategy, tier, dt, integrator\n\
     targets: seq | par | gpu[:async|:precompute] | cells:<ranks> | bands:<ranks> |\n\
     \x20        bands-gpu:<ranks>\n\
     strategies (temperature Newton under bands:<ranks>): redundant | divided\n\
     tiers: vm | row | native (AOT; falls back to row without rustc)\n\
     dt: <seconds> | auto (interval-pass recommendation: CFL bound when\n\
         explicit, accuracy-scaled when unconditionally stable)\n\
     integrators: explicit | implicit[:<theta>] | steady[:<tol>:<growth>]";

fn parse_target(args: &[String]) -> Result<ExecTarget, Diagnostic> {
    pbte_apps::parse_target(arg_str(args, "target", "par"), arg_usize(args, "ranks", 2))
}

fn parse_integrator(args: &[String]) -> Result<Integrator, Diagnostic> {
    let Some(spec) = args.iter().find_map(|a| a.strip_prefix("integrator=")) else {
        return Ok(Integrator::Explicit);
    };
    spec.parse()
        .map_err(|e| Diagnostic::input_invalid(format!("integrator={spec}: {e}")))
}

/// Resolve the `dt=` key. A literal value is used verbatim; `auto`
/// probe-compiles the scenario at its default step and asks the interval
/// pass for a recommendation: the advective CFL bound
/// (`dt ≤ width_min / vmax`) under explicit stepping, an accuracy-scaled
/// multiple of it when the chosen integrator is unconditionally stable.
/// Returns the notice when `auto` changed the step, so the caller can
/// print it before the solve.
fn apply_dt(
    args: &[String],
    cfg: &mut BteConfig,
    integrator: Integrator,
    build: impl Fn(&BteConfig) -> BteProblem,
) -> Result<Option<String>, Diagnostic> {
    let Some(spec) = args.iter().find_map(|a| a.strip_prefix("dt=")) else {
        return Ok(None);
    };
    if spec != "auto" {
        let dt = spec
            .parse()
            .ok()
            .filter(|dt: &f64| *dt > 0.0 && dt.is_finite());
        cfg.dt = Some(dt.ok_or_else(|| {
            Diagnostic::input_invalid(format!(
                "dt={spec}: expects a positive number of seconds or `auto`"
            ))
        })?);
        return Ok(None);
    }
    let mut probe = build(cfg);
    let default_dt = probe.problem.dt;
    probe.problem.integrator(integrator);
    let solver = Solver::build(probe.problem, ExecTarget::CpuSeq)?;
    let rec = pbte_dsl::analysis::recommend_dt(&solver.compiled)
        .expect("advective scenario derives a CFL bound");
    cfg.dt = Some(rec.dt);
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

fn cfg_from(
    args: &[String],
    default_n: usize,
    default_steps: usize,
) -> Result<BteConfig, Diagnostic> {
    let n = arg_usize(args, "n", default_n);
    let steps = arg_usize(args, "steps", default_steps);
    let dirs = arg_usize(args, "dirs", 8);
    let bands = arg_usize(args, "bands", 10);
    let mut cfg = BteConfig::small(n, dirs, bands, steps).with_temperature_strategy(
        pbte_apps::parse_strategy(arg_str(args, "strategy", "redundant"))?,
    );
    cfg.hot_width = 50e-6;
    Ok(cfg)
}

fn run_2d(
    mut bte: BteProblem,
    args: &[String],
    target: ExecTarget,
    nx: usize,
    ny: usize,
    dt_note: Option<String>,
) -> Result<Findings, Diagnostic> {
    if let Some(tier) = parse_tier(args)? {
        bte.problem.kernel_tier(tier);
    }
    bte.problem.integrator(parse_integrator(args)?);
    let vars = bte.vars;
    let mut solver = bte.solver(target)?;
    let integrator = solver.compiled.problem.integrator;
    let dt_used = solver.compiled.problem.dt;
    let cfl = pbte_dsl::analysis::cfl_bound(&solver.compiled);
    if let Some(note) = &dt_note {
        println!("{note}");
    }
    let start = std::time::Instant::now();
    let report = solver.solve()?;
    let wall = start.elapsed().as_secs_f64();
    let grid = temperature_grid(solver.fields(), vars.t, nx, ny);
    println!("{}", render_ascii(&grid, nx));
    let (mean, lo, hi) = summary(&grid);
    println!("mean {mean:.3} K, min {lo:.3} K, max {hi:.3} K");
    println!(
        "{} steps, {:.1} s wall, {} dof updates, comm {} B",
        report.steps, wall, report.work.dof_updates, report.comm.bytes
    );
    println!(
        "temperature: {} solves, {} newton iters",
        report.work.temperature_solves, report.work.newton_iters
    );
    // Time-integration summary: what stepped, how far, and where the
    // stability wall would have been (dt=auto clamps surface here too).
    let cfl_note = match &cfl {
        Some(b) => format!(
            "CFL bound {:.3e} s ({:.1}x)",
            b.dt_max(),
            dt_used / b.dt_max()
        ),
        None => "no CFL bound (non-advective)".into(),
    };
    let auto_note = if dt_note.is_some() { ", dt=auto" } else { "" };
    println!(
        "time integration: {} | dt {dt_used:.3e} s{auto_note} | {cfl_note}",
        integrator.name()
    );
    if integrator.is_implicit() {
        println!(
            "krylov: {} rhs evals, {} jvp evals, {} iters",
            report.work.rhs_evals, report.work.jvp_evals, report.work.krylov_iters
        );
    }
    println!("\nphase breakdown:\n{}", report.timer.breakdown().render());
    print_findings(&report.findings);
    Ok(report.findings)
}

/// Print what a run found, one line per rule: its severity, how often it
/// fired and its first message. A clean run prints nothing.
fn print_findings(findings: &Findings) {
    if findings.totals.is_empty() {
        return;
    }
    println!("findings:");
    for (rule, total) in &findings.totals {
        if let Some(first) = findings.kept.iter().find(|e| e.name == *rule) {
            println!("  {} {rule} (x{total}): {}", first.severity, first.message);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit(run(&args).unwrap_or_else(Outcome::from))
}

fn run(args: &[String]) -> Result<Outcome, Diagnostic> {
    let Some((command, rest)) = args.split_first().filter(|(c, _)| *c != "help") else {
        println!("{USAGE}");
        return Ok(Outcome::default());
    };
    if !["hotspot", "elongated", "bte3d", "codegen", "info"].contains(&command.as_str()) {
        eprintln!("{USAGE}");
        return Err(Diagnostic::input_unknown(format!(
            "unknown command `{command}`"
        )));
    }
    check_args(rest, KNOWN)?;
    let findings = match command.as_str() {
        "hotspot" => {
            let mut cfg = cfg_from(rest, 48, 2000)?;
            let dt_note = apply_dt(rest, &mut cfg, parse_integrator(rest)?, hotspot_2d)?;
            let (nx, ny) = (cfg.nx, cfg.ny);
            println!(
                "hot-spot scenario: {nx}x{ny} cells, {} dof/cell, {} steps",
                cfg.dof().0,
                cfg.n_steps
            );
            run_2d(hotspot_2d(&cfg), rest, parse_target(rest)?, nx, ny, dt_note)?
        }
        "elongated" => {
            let mut cfg = cfg_from(rest, 24, 3000)?;
            cfg.nx = 3 * cfg.ny;
            cfg.lx = 3.0 * cfg.ly;
            let dt_note = apply_dt(rest, &mut cfg, parse_integrator(rest)?, elongated)?;
            let (nx, ny) = (cfg.nx, cfg.ny);
            println!("elongated scenario: {nx}x{ny} cells, {} steps", cfg.n_steps);
            run_2d(elongated(&cfg), rest, parse_target(rest)?, nx, ny, dt_note)?
        }
        "bte3d" => {
            let n = arg_usize(rest, "n", 8);
            let steps = arg_usize(rest, "steps", 400);
            println!("coarse 3-D scenario: {n}^3 cells, {steps} steps");
            let bte = coarse_3d(n, 4, 8, 8, steps);
            let vars = bte.vars;
            let mut solver = bte.solver(parse_target(rest)?)?;
            let report = solver.solve()?;
            let fields = solver.fields();
            for k in 0..n {
                let mean: f64 = (0..n * n)
                    .map(|ji| fields.value(vars.t, k * n * n + ji, 0))
                    .sum::<f64>()
                    / (n * n) as f64;
                println!("z-layer {k}: {mean:.4} K");
            }
            print_findings(&report.findings);
            report.findings
        }
        "codegen" => {
            let cfg = cfg_from(rest, 8, 1)?;
            let target = parse_target(rest)?;
            let on_device = matches!(target, ExecTarget::GpuHybrid { .. });
            let solver = hotspot_2d(&cfg).solver(target)?;
            println!("{}", solver.generated_source());
            if on_device {
                println!("{}", solver.compiled.transfer_schedule().render());
            }
            Findings::default()
        }
        _ => {
            // info
            let cfg = BteConfig::paper_headline();
            let (per_cell, total) = cfg.dof();
            println!("paper headline configuration:");
            println!(
                "  domain        : {:.0} x {:.0} µm",
                cfg.lx * 1e6,
                cfg.ly * 1e6
            );
            println!("  mesh          : {} x {} cells", cfg.nx, cfg.ny);
            println!("  directions    : {}", cfg.ndirs);
            println!(
                "  spectral bands: {} -> 55 (band, polarization) groups",
                cfg.n_freq_bands
            );
            println!("  dof           : {per_cell}/cell, {total} total");
            println!("  steps         : {} (performance unit)", cfg.n_steps);
            // Memory footprint at a reduced shape (same per-cell numbers
            // scale linearly to the headline mesh).
            let small = cfg_from(&[], 12, 1)?;
            let solver = hotspot_2d(&small).solver(ExecTarget::CpuSeq)?;
            let report = solver.compiled.memory_report();
            let scale = (cfg.nx * cfg.ny) as f64 / report.n_cells as f64
                * (per_cell as f64 / (report.n_dof / report.n_cells) as f64);
            println!(
                "  memory        : ~{:.2} GiB device at headline scale",
                report.device_bytes as f64 * scale / (1u64 << 30) as f64
            );
            println!(
                "\ntargets: seq | par | gpu[:async|:precompute] | cells:<ranks> | \
                 bands:<ranks> | bands-gpu:<ranks>"
            );
            Findings::default()
        }
    };
    Ok(Outcome::Finished {
        findings: finding_diagnostics(&findings),
        fails_at: Severity::Error,
    })
}
