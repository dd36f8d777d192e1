//! Measured per-unit costs of the real code paths, read off fifteen rounds
//! that interleave traced one-step DSL solves with steps of the
//! hand-written code (best round: the minimum is the noise-robust
//! estimator on a shared machine; `render` prints the rounds' spread), on
//! this host at reduced scale — per-dof and per-cell costs do not depend
//! on problem size for these streaming kernels:
//!
//! * `c_dsl` — seconds per dof update of the DSL path at the default
//!   tier (`native`, which the benchmark lanes request): `solve for intensity` over
//!   `work.dof_updates`;
//! * `c_base` — the same for the hand-written baseline (`pbte-baseline`, a
//!   fixed comparator timed by its own phase clocks);
//! * `c_temp` — seconds per cell and step of the temperature update, and
//!   `c_temp_energy` / `c_temp_newton` / `c_temp_rewrite` its three passes:
//!   the summed `energy_s` / `newton_s` / `rewrite_s` attributes of the
//!   `newton solve` spans. The rest is [`Calibration::temp_unattributed`].
//!
//! The host core stands in for one Cascade Lake core; the *ratios*, which
//! decide every shape in the figures, transfer even if the clock differs.

use pbte_baseline::BaselineSolver;
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::{phases, ExecTarget, Recorder};
use pbte_runtime::telemetry::{Span, SpanKind};
use serde::{Serialize, Value};

/// What a measured run executed, and at which commit.
#[derive(Debug, Clone)]
pub struct Ran {
    /// The tier the sweeps ran (a `native` request may fall back).
    pub tier: String,
    pub flux: String,
    /// `fixed:<n> gather:<n> callback:<n>` boundary faces.
    pub walls: String,
    /// `git rev-parse HEAD` of the source checkout, or `unknown`.
    pub rev: String,
}

impl Serialize for Ran {
    fn to_value(&self) -> Value {
        let Ran {
            tier,
            flux,
            walls,
            rev,
        } = self;
        Value::Obj(vec![
            ("tier".into(), tier.to_value()),
            ("flux".into(), flux.to_value()),
            ("walls".into(), walls.to_value()),
            ("rev".into(), rev.to_value()),
        ])
    }
}

impl Ran {
    /// Read off a buffered recorder holding one solve: the tier and flux
    /// of its first kernel span, the walls of its `run_start`.
    pub fn of(rec: &Recorder) -> Ran {
        let spans = rec.spans();
        let kernel = spans.iter().find(|s| s.kind == SpanKind::Kernel);
        let attr = |key| kernel.and_then(|s| attr(s, key)).unwrap_or("?").into();
        let rev = std::process::Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
            .output();
        let rev = rev.ok().filter(|out| out.status.success());
        Ran {
            tier: attr("tier"),
            flux: attr("flux"),
            walls: rec.walls().unwrap_or("?").into(),
            rev: rev.map_or("unknown".into(), |out| {
                String::from_utf8_lossy(&out.stdout).trim().into()
            }),
        }
    }

    /// `tier=… flux=… walls=[…] rev=…`: what every figure binary prints.
    pub fn line(&self) -> String {
        let Ran {
            tier,
            flux,
            walls,
            rev,
        } = self;
        format!("tier={tier} flux={flux} walls=[{walls}] rev={rev}")
    }
}

fn attr<'s>(span: &'s Span, key: &str) -> Option<&'s str> {
    let found = span.attrs.iter().find(|(k, _)| *k == key);
    found.map(|(_, v)| v.as_str())
}

/// How far apart the interleaved rounds of a measurement ran: per path,
/// the slowest round's per-dof cost over the fastest one's.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub rounds: usize,
    pub dsl: f64,
    pub base: f64,
}

impl Serialize for Spread {
    fn to_value(&self) -> Value {
        let Spread { rounds, dsl, base } = self;
        Value::Obj(vec![
            ("rounds".into(), rounds.to_value()),
            ("dsl".into(), dsl.to_value()),
            ("base".into(), base.to_value()),
        ])
    }
}

/// The measured constants, seconds.
#[derive(Debug, Clone)]
pub struct Calibration {
    pub c_dsl: f64,
    pub c_base: f64,
    pub c_temp: f64,
    /// Band-parallel: a band rank sums its own bands.
    pub c_temp_energy: f64,
    /// Redundant on every band rank unless the Newton phase is divided.
    pub c_temp_newton: f64,
    /// Band-parallel: a band rank rewrites its own bands of `Io`, `beta`.
    pub c_temp_rewrite: f64,
    pub ran: Ran,
    /// The rounds' spread; `None` for [`Calibration::nominal`].
    pub spread: Option<Spread>,
}

impl Serialize for Calibration {
    fn to_value(&self) -> Value {
        let Calibration {
            c_dsl,
            c_base,
            c_temp,
            c_temp_energy,
            c_temp_newton,
            c_temp_rewrite,
            ran,
            spread,
        } = self;
        Value::Obj(vec![
            ("c_dsl".into(), c_dsl.to_value()),
            ("c_base".into(), c_base.to_value()),
            ("c_temp".into(), c_temp.to_value()),
            ("c_temp_energy".into(), c_temp_energy.to_value()),
            ("c_temp_newton".into(), c_temp_newton.to_value()),
            ("c_temp_rewrite".into(), c_temp_rewrite.to_value()),
            ("ran".into(), ran.to_value()),
            ("spread".into(), spread.to_value()),
        ])
    }
}

/// Interleaved rounds [`Calibration::measure`] takes the best of.
const ROUNDS: usize = 15;

impl Calibration {
    /// Measure on this host: the headline's angular/spectral shape (20
    /// directions, 55 groups) on a 16×16 mesh, so the per-cell temperature
    /// cost has the right band structure.
    ///
    /// Each round runs six steps of both paths interleaved step by step
    /// (a one-step DSL solve, then one step of the hand-written code), so
    /// a change in the host's load lands on both within one step; each
    /// constant is its best round.
    pub fn measure() -> Calibration {
        let mut cfg = BteConfig::small(16, 20, 40, 1);
        cfg.hot_width = 100e-6;
        const STEPS: usize = 6;
        let cell_steps = (cfg.nx * cfg.ny * STEPS) as f64;
        let per_dof_base = cell_steps * cfg.dof().0 as f64;
        let (mut rounds, mut ran) = (Vec::with_capacity(ROUNDS), None);
        for _ in 0..ROUNDS {
            let bte = hotspot_2d(&cfg);
            let mut solver = bte.solver(ExecTarget::CpuSeq).expect("valid scenario");
            let mut baseline = BaselineSolver::new(&cfg);
            let (mut intensity, mut temperature, mut dofs) = (0.0, 0.0, 0);
            let mut rec = Recorder::buffered();
            for _ in 0..STEPS {
                let report = solver.solve_traced(&mut rec).expect("solve succeeds");
                intensity += report.timer.get(phases::INTENSITY);
                temperature += report.timer.get(phases::TEMPERATURE);
                dofs += report.work.dof_updates;
                baseline.step();
            }
            let spans = rec.spans();
            let newton = spans.iter().filter(|s| s.kind == SpanKind::NewtonSolve);
            let pass = |key| -> f64 {
                let secs = newton
                    .clone()
                    .filter_map(|s| attr(s, key)?.parse::<f64>().ok());
                secs.sum()
            };
            rounds.push([
                intensity / dofs as f64,
                baseline.timings.intensity / per_dof_base,
                temperature / cell_steps,
                pass("energy_s") / cell_steps,
                pass("newton_s") / cell_steps,
                pass("rewrite_s") / cell_steps,
            ]);
            ran.get_or_insert_with(|| Ran::of(&rec));
        }
        let best = |k: usize| rounds.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min);
        let worst = |k: usize| rounds.iter().map(|r| r[k]).fold(0.0, f64::max);
        Calibration {
            c_dsl: best(0),
            c_base: best(1),
            c_temp: best(2),
            c_temp_energy: best(3),
            c_temp_newton: best(4),
            c_temp_rewrite: best(5),
            ran: ran.expect("the rounds ran"),
            spread: Some(Spread {
                rounds: ROUNDS,
                dsl: worst(0) / best(0),
                base: worst(1) / best(1),
            }),
        }
    }

    /// The release measurement recorded for the debug-build model tests
    /// (figure binaries always [`measure`](Calibration::measure)): taken on
    /// the 2-core shared x86-64 guest this repository is developed on, at
    /// commit 3510961 plus PR 25, tier `native`. The guest alternates
    /// between two load regimes about 2.1× apart (`c_dsl` ≈ 5.7e-9 or
    /// ≈ 1.2e-8 over 22 runs); these are the geometric middle of the two,
    /// so the ignored release test `nominal_constants_are_current`
    /// (`tests/paper_claims.rs`), which fails when a measured constant
    /// leaves 2× of these, holds in either.
    pub fn nominal() -> Calibration {
        Calibration {
            c_dsl: 8.3e-9,
            c_base: 5.4e-9,
            c_temp: 1.22e-6,
            c_temp_energy: 7.4e-7,
            c_temp_newton: 2.1e-7,
            c_temp_rewrite: 2.05e-7,
            ran: Ran {
                tier: "native".into(),
                flux: "table".into(),
                walls: "fixed:32 gather:32 callback:0".into(),
                rev: "3510961+PR25".into(),
            },
            spread: None,
        }
    }

    /// The DSL-vs-hand-written per-dof ratio (paper §III-E: "roughly
    /// twice").
    pub fn dsl_overhead(&self) -> f64 {
        self.c_dsl / self.c_base
    }

    /// Seconds per cell of the temperature update outside its three
    /// spanned passes (block set-up, the span itself).
    pub fn temp_unattributed(&self) -> f64 {
        self.c_temp - self.c_temp_energy - self.c_temp_newton - self.c_temp_rewrite
    }

    /// The constants, what they were measured on, and how far apart the
    /// rounds ran.
    pub fn render(&self) -> String {
        let rest = self.temp_unattributed();
        let spread = self.spread.map_or(String::new(), |s| {
            format!(
                "\n  spread over {} interleaved rounds: DSL {:.2}x, hand-written {:.2}x",
                s.rounds, s.dsl, s.base
            )
        });
        format!(
            "calibration: {}\n  c_dsl  = {:.3e} s/dof  (DSL path)\n  \
             c_base = {:.3e} s/dof  (hand-written; DSL/hand-written {:.2}x)\n  \
             c_temp = {:.3e} s/cell (energy {:.3e} + newton {:.3e} + rewrite {:.3e} \
             + unattributed {rest:.3e}, {:.1}%){spread}",
            self.ran.line(),
            self.c_dsl,
            self.c_base,
            self.dsl_overhead(),
            self.c_temp,
            self.c_temp_energy,
            self.c_temp_newton,
            self.c_temp_rewrite,
            100.0 * rest / self.c_temp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_ordered_sanely() {
        let c = Calibration::nominal();
        assert!(c.c_base < c.c_dsl, "hand-written code is faster per dof");
        assert!(
            c.c_temp > c.c_dsl,
            "a cell's temperature solve outweighs one dof"
        );
        assert!(c.dsl_overhead() > 1.0);
        let unattributed = c.temp_unattributed();
        assert!(unattributed >= 0.0 && unattributed < 0.2 * c.c_temp);
        assert_eq!(c.ran.tier, "native");
    }

    #[test]
    #[ignore = "slow in debug builds; exercised by the release figure binaries"]
    fn measurement_runs() {
        let c = Calibration::measure();
        assert!(c.c_dsl > 0.0 && c.c_base > 0.0 && c.c_temp > 0.0);
        assert!(c.temp_unattributed() >= 0.0, "{}", c.render());
        assert_eq!(c.ran.walls, "fixed:32 gather:32 callback:0");
    }
}
