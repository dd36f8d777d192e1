//! The paper's demonstration problems: their configuration
//! ([`BteConfig`]), the built problem ([`BteProblem`]) and the builders
//! the library and figures call. Each builder is a
//! [`ScenarioSpec`] constructor, built: a `.pbte` file and a built-in
//! scenario are one value with one translation into the DSL.

use crate::material::Material;
use crate::pbte::ScenarioSpec;
use crate::temperature::{BteVars, TemperatureStrategy, TemperatureUpdate};
use pbte_dsl::exec::{ExecTarget, Solver};
use pbte_dsl::problem::Problem;
use pbte_dsl::{analysis, Diagnostic, Severity};
use std::sync::Arc;

/// Configuration of a 2-D BTE run.
#[derive(Debug, Clone)]
pub struct BteConfig {
    /// Mesh cells per axis.
    pub nx: usize,
    pub ny: usize,
    /// Domain extents, m.
    pub lx: f64,
    pub ly: f64,
    /// Discrete directions (even).
    pub ndirs: usize,
    /// Frequency bands (40 in the paper → 55 polarization groups).
    pub n_freq_bands: usize,
    /// Time step, s. `None` = the largest stable step.
    pub dt: Option<f64>,
    /// Number of time steps.
    pub n_steps: usize,
    /// Initial/cold-wall temperature, K.
    pub t_ref: f64,
    /// Hot-spot peak temperature, K.
    pub t_hot: f64,
    /// Hot-spot 1/e² radius, m.
    pub hot_width: f64,
    /// Newton distribution of the post-step temperature update under band
    /// partitioning (see [`TemperatureStrategy`]).
    pub temperature_strategy: TemperatureStrategy,
}

impl BteConfig {
    /// The paper's headline configuration (§III-A): 525 µm × 525 µm,
    /// 120×120 cells, 20 directions, 40 frequency bands (55 groups),
    /// 1100 dof/cell ≈ 1.6e7 dof, 100 time steps for performance runs.
    ///
    /// Note on dt: the paper's text pairs "100 time steps" with "100 ns"
    /// (dt = 1e-9 s), but that step violates both the scattering
    /// relaxation bound (τ_min ≈ 2 ps) and the advective CFL of the
    /// explicit scheme; the appendix script uses dt = 1e-12 s, which is
    /// the value this builder reproduces via the stability rule.
    pub fn paper_headline() -> BteConfig {
        BteConfig {
            nx: 120,
            ny: 120,
            lx: 525e-6,
            ly: 525e-6,
            ndirs: 20,
            n_freq_bands: 40,
            dt: None,
            n_steps: 100,
            t_ref: 300.0,
            t_hot: 350.0,
            hot_width: 10e-6,
            temperature_strategy: TemperatureStrategy::RedundantNewton,
        }
    }

    /// A scaled-down configuration for tests and examples: same physics,
    /// `n × n` cells, fewer directions/bands.
    pub fn small(n: usize, ndirs: usize, n_freq_bands: usize, n_steps: usize) -> BteConfig {
        BteConfig {
            nx: n,
            ny: n,
            lx: 525e-6,
            ly: 525e-6,
            ndirs,
            n_freq_bands,
            dt: None,
            n_steps,
            t_ref: 300.0,
            t_hot: 350.0,
            hot_width: 50e-6,
            temperature_strategy: TemperatureStrategy::RedundantNewton,
        }
    }

    /// Same configuration with a different temperature strategy.
    pub fn with_temperature_strategy(mut self, strategy: TemperatureStrategy) -> BteConfig {
        self.temperature_strategy = strategy;
        self
    }

    /// Degrees of freedom per cell and total.
    pub fn dof(&self) -> (usize, usize) {
        let bands = crate::bands::make_bands(self.n_freq_bands).len();
        let per_cell = bands * self.ndirs;
        (per_cell, per_cell * self.nx * self.ny)
    }
}

/// A fully encoded BTE problem plus the handles needed to interpret its
/// fields afterwards.
pub struct BteProblem {
    pub problem: Problem,
    pub material: Arc<Material>,
    pub vars: BteVars,
    /// The temperature update the build installed.
    pub(crate) update: TemperatureUpdate,
}

impl BteProblem {
    /// Turn on the installed temperature update's physics health probes
    /// ([`TemperatureUpdate::probes`]).
    pub fn enable_probes(&mut self) {
        let update = TemperatureUpdate {
            probes: true,
            ..self.update.clone()
        };
        let installed = (self.problem.post_steps.iter_mut())
            .find(|cb| cb.name == TemperatureUpdate::NAME)
            .expect("the build installs the temperature update");
        installed.f = Arc::new(move |ctx| update.run(ctx));
    }

    /// Build the executable solver for a target.
    pub fn solver(self, target: ExecTarget) -> Result<Solver, Diagnostic> {
        self.problem.build(target)
    }

    /// Build for `target` and run the verify gate on the compiled plan
    /// (`analysis::verify_gate`: plan obligations, dimensional analysis,
    /// interval safety) before a solver is handed back. Any error-severity
    /// finding refuses the problem with every finding; warnings come back
    /// alongside the solver.
    pub fn verified(
        self,
        target: ExecTarget,
    ) -> Result<(Solver, Vec<Diagnostic>), Vec<Diagnostic>> {
        let solver = self.problem.build(target).map_err(|d| vec![d])?;
        let findings = analysis::verify_gate(&solver.compiled, &solver.target);
        if findings.iter().any(|d| d.severity == Severity::Error) {
            return Err(findings);
        }
        Ok((solver, findings))
    }
}

/// Build a built-in scenario. The builders below panic on a shape the
/// build refuses (an odd `ndirs`, fewer than two bands); a command line
/// goes through `ScenarioSpec::build` and gets the refusal instead.
fn built(spec: ScenarioSpec) -> BteProblem {
    spec.build().unwrap_or_else(|d| panic!("{d}"))
}

/// The Figs 1–2 hot-spot die, [`ScenarioSpec::hotspot`], built.
pub fn hotspot_2d(cfg: &BteConfig) -> BteProblem {
    built(ScenarioSpec::hotspot(cfg))
}

/// The Fig 10 corner-heated domain, [`ScenarioSpec::elongated`], built.
pub fn elongated(cfg: &BteConfig) -> BteProblem {
    built(ScenarioSpec::elongated(cfg))
}

/// The coarse 3-D cube, [`ScenarioSpec::coarse_3d`], built.
pub fn coarse_3d(
    n: usize,
    n_polar: usize,
    n_azimuthal: usize,
    n_freq_bands: usize,
    n_steps: usize,
) -> BteProblem {
    built(ScenarioSpec::coarse_3d(
        n,
        n_polar,
        n_azimuthal,
        n_freq_bands,
        n_steps,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_dof_count_matches_paper() {
        let cfg = BteConfig::paper_headline();
        let (per_cell, total) = cfg.dof();
        assert_eq!(per_cell, 1100);
        // "about 1.6e7 overall".
        assert_eq!(total, 1100 * 14400);
        assert!((total as f64 - 1.584e7).abs() < 1e5);
    }

    #[test]
    fn headline_dt_is_about_a_picosecond() {
        let cfg = BteConfig::paper_headline();
        let (t_min, t_max) = (cfg.t_ref - 60.0, cfg.t_hot + 60.0);
        let m = Material::silicon_2d(cfg.n_freq_bands, cfg.ndirs, t_min, t_max);
        let dt = m.stable_dt(cfg.lx / cfg.nx as f64, t_max);
        assert!(dt > 2e-13 && dt < 5e-12, "dt = {dt}");
    }

    #[test]
    fn small_scenario_builds_and_analyzes() {
        let cfg = BteConfig::small(4, 4, 4, 2);
        let bte = hotspot_2d(&cfg);
        let sys = bte.problem.analyze().unwrap();
        assert_eq!(sys.unknown_name, "I");
        assert!(sys.flux_expr.contains_symbol("vg"));
        assert_eq!(bte.material.n_dirs(), 4);
    }

    #[test]
    fn elongated_scenario_builds() {
        let mut cfg = BteConfig::small(4, 4, 4, 2);
        cfg.nx = 8;
        cfg.lx = 2.0 * cfg.ly;
        let bte = elongated(&cfg);
        assert!(bte.problem.mesh.is_some());
    }
}
