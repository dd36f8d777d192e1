//! Scenario builders: the paper's demonstration problems encoded in the
//! DSL, mirroring the appendix input script line for line.

use crate::boundary::{gaussian_wall, isothermal, symmetry};
use crate::material::Material;
use crate::temperature::{BteVars, TemperatureStrategy, TemperatureUpdate};
use pbte_dsl::exec::{ExecTarget, Solver};
use pbte_dsl::problem::{Problem, TimeStepper};
use pbte_dsl::Diagnostic;
use pbte_mesh::grid::UniformGrid;
use pbte_mesh::Point;
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
}

impl BteProblem {
    /// Build the executable solver for a target.
    pub fn solver(self, target: ExecTarget) -> Result<Solver, Diagnostic> {
        self.problem.build(target)
    }
}

/// Temperature-table range used by all scenarios.
fn table_range(cfg: &BteConfig) -> (f64, f64) {
    (cfg.t_ref - 60.0, cfg.t_hot + 60.0)
}

/// Declare the physical ranges the interval-safety pass
/// (`pbte-verify --intervals`) seeds the kernels from. The envelopes are
/// derived from the material's equilibrium tables over the temperature
/// range, with headroom factors for transients; nothing clamps at
/// runtime.
fn declare_ranges(p: &mut Problem, material: &Material, t_min: f64, t_max: f64) {
    let mut io_max = 0.0f64;
    for band in 0..material.n_bands() {
        io_max = io_max
            .max(material.table().io(band, t_min))
            .max(material.table().io(band, t_max));
    }
    let mut beta_lo = f64::INFINITY;
    let mut beta_hi = 0.0f64;
    for band in &material.bands {
        for t in [t_min, t_max] {
            let rate = crate::scattering::scattering_rate(&band.branch(), band.omega_center, t);
            beta_lo = beta_lo.min(rate);
            beta_hi = beta_hi.max(rate);
        }
    }
    // Intensities stay non-negative and bounded by the hottest
    // equilibrium; factor-2 headroom covers transients.
    p.declare_range("I", 0.0, 2.0 * io_max);
    p.declare_range("Io", 0.0, 2.0 * io_max);
    // Scattering rates are monotone in T over the table range; the
    // half/double factors absorb interior extrema.
    p.declare_range("beta", 0.5 * beta_lo, 2.0 * beta_hi);
    p.declare_range("T", t_min, t_max);
}

/// Declare the SI units the dimensional-analysis pass
/// (`pbte-verify --units`) seeds the equation from. Directional
/// intensities and their equilibria are W·m⁻² (spectrally integrated per
/// band), scattering rates are s⁻¹, group velocities m·s⁻¹, temperatures
/// K, and the direction cosines `Sx`/`Sy`/`Sz` are dimensionless.
pub(crate) fn declare_units(p: &mut Problem) {
    p.declare_unit("I", "W/m^2");
    p.declare_unit("Io", "W/m^2");
    p.declare_unit("beta", "1/s");
    p.declare_unit("T", "K");
    p.declare_unit("vg", "m/s");
    p.declare_unit("Sx", "1");
    p.declare_unit("Sy", "1");
    p.declare_unit("Sz", "1");
}

/// The paper's 2-D conservation form, verbatim.
pub(crate) const EQUATION_2D: &str =
    "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))";

/// The 3-D conservation form (adds the `Sz` direction cosine).
pub(crate) const EQUATION_3D: &str =
    "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d];Sz[d]], I[d,b]))";

/// Inputs to [`build_custom`] beyond the boundary conditions: the shared
/// scaffolding every BTE scenario (hard-coded or parsed from a `.pbte`
/// file) is assembled from. Declaration order inside `build_custom` is
/// part of the contract — the `.pbte` equivalence test pins the textual
/// hotspot to a bit-identical trajectory against [`hotspot_2d`], which
/// both routes through here.
pub(crate) struct Scaffold {
    pub name: String,
    pub material: Arc<Material>,
    pub mesh: pbte_mesh::Mesh,
    /// Time step, s.
    pub dt: f64,
    pub n_steps: usize,
    /// Initial temperature field; `None` = uniform `t_ref`.
    pub init_t: Option<Arc<dyn Fn(Point) -> f64 + Send + Sync>>,
    /// Reference (cold/initial) temperature, K.
    pub t_ref: f64,
    /// Temperature-table envelope for the interval-range declarations.
    pub t_min: f64,
    pub t_max: f64,
    /// Conservation-form source string ([`EQUATION_2D`]/[`EQUATION_3D`]
    /// or a `.pbte` file's own).
    pub equation: String,
    pub strategy: TemperatureStrategy,
}

/// Shared scaffolding: mesh + entities + equation + init + post-step.
/// The boundary conditions differ per scenario and are applied by `bc`.
pub(crate) fn build_custom(
    sc: Scaffold,
    bc: impl FnOnce(&mut Problem, usize, &Arc<Material>),
) -> BteProblem {
    let Scaffold {
        name,
        material,
        mesh,
        dt,
        n_steps,
        init_t,
        t_ref,
        t_min,
        t_max,
        equation,
        strategy,
    } = sc;
    let dim = mesh.dim;

    let mut p = Problem::new(&name);
    p.domain(dim);
    p.time_stepper(TimeStepper::EulerExplicit);
    p.set_steps(dt, n_steps);
    p.mesh(mesh);

    // Indices and variables — the appendix listing.
    let n_bands = material.n_bands();
    let ndirs = material.n_dirs();
    let d = p.index("d", ndirs);
    let b = p.index("b", n_bands);
    let i_var = p.variable("I", &[d, b]);
    let io_var = p.variable("Io", &[b]);
    let beta_var = p.variable("beta", &[b]);
    let t_var = p.variable("T", &[]);
    p.coefficient_array("Sx", &[d], material.direction_component(0));
    p.coefficient_array("Sy", &[d], material.direction_component(1));
    if dim == 3 {
        p.coefficient_array("Sz", &[d], material.direction_component(2));
    }
    p.coefficient_array("vg", &[b], material.vg_array());

    // Initial condition: local equilibrium at the initial temperature
    // field (uniform `t_ref` unless the scenario supplies one — e.g. the
    // `.pbte` pulse-train relaxation). Every direction of a band starts at
    // the band's equilibrium intensity, so `I` is the rows of `Io` — the
    // paper script's `initial(I, "Io[b]")` — and only `Io`, `beta` and `T`
    // are evaluated from the temperature.
    p.initial_expr(i_var, "Io[b]");
    match init_t {
        // A uniform start is the same value in every cell: one table
        // lookup and one Holland evaluation per band, not per (band, cell).
        None => {
            let io: Vec<f64> = (0..n_bands)
                .map(|b| material.table().io(b, t_ref))
                .collect();
            let beta: Vec<f64> = (0..n_bands)
                .map(|b| material.beta_exact(b, t_ref))
                .collect();
            p.initial(io_var, move |_, idx| io[idx[0]]);
            p.initial(beta_var, move |_, idx| beta[idx[0]]);
            p.initial(t_var, move |_, _| t_ref);
        }
        Some(t0) => {
            let m = material.clone();
            let f = t0.clone();
            p.initial(io_var, move |pt, idx| m.table().io(idx[0], f(pt)));
            let m = material.clone();
            let f = t0.clone();
            p.initial(beta_var, move |pt, idx| m.beta_exact(idx[0], f(pt)));
            p.initial(t_var, move |pt, _| t0(pt));
        }
    }

    // Scenario-specific boundary conditions.
    bc(&mut p, i_var, &material);

    // The post-step temperature update.
    let vars = BteVars {
        i: i_var,
        io: io_var,
        beta: beta_var,
        t: t_var,
    };
    TemperatureUpdate::new(material.clone(), vars)
        .with_strategy(strategy)
        .install(&mut p);

    // The conservation form — verbatim from the paper (or the `.pbte`
    // file's own PDE string).
    p.conservation_form(i_var, &equation);

    declare_ranges(&mut p, &material, t_min, t_max);
    declare_units(&mut p);

    BteProblem {
        problem: p,
        material,
        vars,
    }
}

/// 2-D grid scaffolding from a [`BteConfig`].
fn build_2d(
    name: &str,
    cfg: &BteConfig,
    bc: impl FnOnce(&mut Problem, usize, &Arc<Material>, &BteConfig),
) -> BteProblem {
    let (t_min, t_max) = table_range(cfg);
    let material = Arc::new(Material::silicon_2d(
        cfg.n_freq_bands,
        cfg.ndirs,
        t_min,
        t_max,
    ));
    let mesh = UniformGrid::new_2d(cfg.nx, cfg.ny, cfg.lx, cfg.ly).build();
    let dx_min = (cfg.lx / cfg.nx as f64).min(cfg.ly / cfg.ny as f64);
    let dt = cfg.dt.unwrap_or_else(|| material.stable_dt(dx_min, t_max));
    let cfg2 = cfg.clone();
    build_custom(
        Scaffold {
            name: name.to_string(),
            material,
            mesh,
            dt,
            n_steps: cfg.n_steps,
            init_t: None,
            t_ref: cfg.t_ref,
            t_min,
            t_max,
            equation: EQUATION_2D.to_string(),
            strategy: cfg.temperature_strategy,
        },
        move |p, i_var, material| bc(p, i_var, material, &cfg2),
    )
}

/// The paper's Figs 1–2 domain: cold isothermal bottom wall at `t_ref`,
/// isothermal top wall with a centered Gaussian hot spot, specular
/// symmetry on the left and right sides.
pub fn hotspot_2d(cfg: &BteConfig) -> BteProblem {
    build_2d("bte-hotspot", cfg, |p, i_var, material, cfg| {
        let hot = gaussian_wall(
            cfg.t_ref,
            cfg.t_hot,
            Point::xy(cfg.lx * 0.5, cfg.ly),
            cfg.hot_width,
        );
        let t_ref = cfg.t_ref;
        p.boundary(
            i_var,
            "bottom",
            isothermal(material.clone(), move |_| t_ref),
        );
        p.boundary(i_var, "top", isothermal(material.clone(), hot));
        p.boundary(i_var, "left", symmetry(material.clone()));
        p.boundary(i_var, "right", symmetry(material.clone()));
    })
}

/// The paper's Fig 10 domain: an elongated material with the heat source
/// in one corner (left end of the top wall), symmetry on left and right,
/// isothermal bottom.
pub fn elongated(cfg: &BteConfig) -> BteProblem {
    build_2d("bte-elongated", cfg, |p, i_var, material, cfg| {
        let hot = gaussian_wall(cfg.t_ref, cfg.t_hot, Point::xy(0.0, cfg.ly), cfg.hot_width);
        let t_ref = cfg.t_ref;
        p.boundary(
            i_var,
            "bottom",
            isothermal(material.clone(), move |_| t_ref),
        );
        p.boundary(i_var, "top", isothermal(material.clone(), hot));
        p.boundary(i_var, "left", symmetry(material.clone()));
        p.boundary(i_var, "right", symmetry(material.clone()));
    })
}

/// A coarse 3-D configuration (the paper: "some very coarse-grained
/// 3-dimensional runs were also performed"): cold wall at z=0, Gaussian
/// hot spot centered on the z=lz face, symmetry on the four sides.
pub fn coarse_3d(
    n: usize,
    n_polar: usize,
    n_azimuthal: usize,
    n_freq_bands: usize,
    n_steps: usize,
) -> BteProblem {
    let t_ref = 300.0;
    let t_hot = 350.0;
    let l = 525e-6;
    let material = Arc::new(Material::silicon_3d(
        n_freq_bands,
        n_polar,
        n_azimuthal,
        t_ref - 60.0,
        t_hot + 60.0,
    ));
    let mesh = UniformGrid::new_3d(n, n, n, l, l, l).build();
    let dt = material.stable_dt(l / n as f64, t_hot + 10.0);
    build_custom(
        Scaffold {
            name: "bte-3d".to_string(),
            material,
            mesh,
            dt,
            n_steps,
            init_t: None,
            t_ref,
            t_min: t_ref - 60.0,
            t_max: t_hot + 60.0,
            equation: EQUATION_3D.to_string(),
            strategy: TemperatureStrategy::RedundantNewton,
        },
        move |p, i_var, material| {
            let hot = gaussian_wall(t_ref, t_hot, Point::new(l * 0.5, l * 0.5, l), 50e-6);
            p.boundary(i_var, "front", isothermal(material.clone(), move |_| t_ref));
            p.boundary(i_var, "back", isothermal(material.clone(), hot));
            for side in ["left", "right", "top", "bottom"] {
                p.boundary(i_var, side, symmetry(material.clone()));
            }
        },
    )
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
        let (t_min, t_max) = table_range(&cfg);
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
