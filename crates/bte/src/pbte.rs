//! Textual `.pbte` scenario front-end.
//!
//! A `.pbte` file is a line-oriented, INI-style description of a BTE
//! scenario: the PDE string (parsed by the `pbte_symbolic` lexer/parser),
//! the mesh (uniform grid or a Gmsh/MEDIT file), the material, boundary
//! conditions, time integration, and the declared *ranges and units* the
//! interval and dimensional-analysis proof obligations seed from. It is
//! the untrusted-input surface for everything above the DSL — CLI users
//! today, the planned `pbte-serve` service tomorrow — so parsing is
//! fuzzed (`tests/pbte_fuzz.rs`).
//!
//! A [`ScenarioSpec`] is the one value a run is made from: a parsed file,
//! or a built-in scenario ([`ScenarioSpec::hotspot`],
//! [`ScenarioSpec::elongated`], [`ScenarioSpec::coarse_3d`]).
//! [`ScenarioSpec::build`] is the one translation into a DSL problem, and
//! the binaries run every problem through the verify gate
//! ([`BteProblem::verified`]: plan obligations, units, intervals) before a
//! step executes.
//!
//! ## Format
//!
//! ```text
//! # Comments run from `#` to end of line. Sections in any order.
//! [scenario]
//! name = hotspot          # plan name
//! strategy = redundant    # redundant | divided
//! integrator = explicit   # explicit | implicit[:theta] | steady[:tol:growth]
//! t_ref = 300             # cold/initial temperature, K
//! t_hot = 350             # table envelope peak, K
//!
//! [mesh]
//! kind = grid             # grid | gmsh | medit
//! nx = 12                 # grid: cells per axis (nz => 3-D)
//! ny = 12
//! lx = 525e-6             # grid: extents, m
//! ly = 525e-6
//! # kind = gmsh | medit:  file = ../meshes/die.msh   (relative to this file)
//!
//! [material]
//! model = silicon
//! n_freq_bands = 4
//! ndirs = 8               # 2-D directions; 3-D uses n_polar/n_azimuthal
//!
//! [time]
//! dt = auto               # auto = largest stable step | seconds
//! steps = 4
//!
//! [pde]                   # optional; defaults to the paper's BTE form
//! equation = (Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))
//!
//! [boundary]              # region = condition, applied in file order
//! bottom = isothermal 300
//! top = hotspots 300 350 50e-6 @ 262.5e-6,525e-6
//! left = symmetry
//! right = symmetry
//!
//! [initial]               # optional; defaults to uniform t_ref
//! temperature = pulses 300 350 30e-6 @ 131.25e-6,262.5e-6 393.75e-6,262.5e-6
//!
//! [units]                 # override/extend the built-in declarations
//! I = W/m^2
//!
//! [ranges]                # override/extend the derived envelopes
//! T = 240 410
//! ```
//!
//! Hot spots (`hotspots`) and initial pulses (`pulses`) take
//! `t_ref t_peak width` followed by `@` and one or more centers in
//! absolute mesh coordinates; the wall/field temperature is
//! `t_ref + Σ (t_peak − t_ref)·exp(−2·d²/width²)` over the centers
//! ([`crate::boundary::gaussian_field`]).

use crate::boundary::{gaussian_field, isothermal, symmetry};
use crate::material::Material;
use crate::scenario::{BteConfig, BteProblem};
use crate::temperature::{BteVars, TemperatureStrategy, TemperatureUpdate};
use pbte_dsl::problem::{Integrator, Problem};
use pbte_dsl::Diagnostic;
use pbte_mesh::grid::UniformGrid;
use pbte_mesh::{gmsh, medit, ImportError, Mesh, Point};
use pbte_symbolic::Dim;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Mesh source.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshSpec {
    /// Uniform 2-D grid (regions `left`/`right`/`bottom`/`top`).
    Grid2d {
        nx: usize,
        ny: usize,
        lx: f64,
        ly: f64,
    },
    /// Uniform 3-D grid (adds `front`/`back`).
    Grid3d {
        nx: usize,
        ny: usize,
        nz: usize,
        lx: f64,
        ly: f64,
        lz: f64,
    },
    /// Gmsh MSH 2.2 ASCII file; regions come from `$PhysicalNames`.
    Gmsh { file: String },
    /// MEDIT `.mesh` file; regions are `ref_<n>`.
    Medit { file: String },
}

/// Material parameters (only silicon today; the fields mirror
/// [`Material::silicon_2d`] / [`Material::silicon_3d`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialSpec {
    pub n_freq_bands: usize,
    /// 2-D: number of in-plane directions.
    pub ndirs: Option<usize>,
    /// 3-D: polar × azimuthal direction grid.
    pub n_polar: Option<usize>,
    pub n_azimuthal: Option<usize>,
}

/// One boundary condition.
#[derive(Debug, Clone, PartialEq)]
pub enum BcSpec {
    /// Diffuse isothermal wall at a fixed temperature.
    Isothermal { t: f64 },
    /// Isothermal wall with Gaussian hot spots at the given centers.
    Hotspots {
        t_ref: f64,
        t_peak: f64,
        width: f64,
        centers: Vec<Point>,
    },
    /// Specular symmetry.
    Symmetry,
}

/// Initial temperature field: Gaussian pulses over a `t_ref` background
/// (the transient pulse-train scenario relaxes these).
#[derive(Debug, Clone, PartialEq)]
pub struct InitSpec {
    pub t_ref: f64,
    pub t_peak: f64,
    pub width: f64,
    pub centers: Vec<Point>,
}

/// A scenario: a parsed, statically validated `.pbte` file or a built-in.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    pub name: String,
    pub strategy: TemperatureStrategy,
    pub integrator: Integrator,
    pub t_ref: f64,
    pub t_hot: f64,
    pub mesh: MeshSpec,
    pub material: MaterialSpec,
    /// `None` = largest stable step (`dt = auto`).
    pub dt: Option<f64>,
    pub n_steps: usize,
    /// `None` = the built-in BTE conservation form for the mesh dimension.
    pub equation: Option<String>,
    /// `(region, condition)` in file order.
    pub boundaries: Vec<(String, BcSpec)>,
    pub initial: Option<InitSpec>,
    /// Unit overrides `(symbol, spec)`, validated against [`Dim::parse`].
    pub units: Vec<(String, String)>,
    /// Range overrides `(symbol, lo, hi)`.
    pub ranges: Vec<(String, f64, f64)>,
    /// Directory mesh `file =` references resolve against.
    pub base_dir: PathBuf,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// An `input/parse` refusal of line `line`.
fn perr(line: usize, message: impl Into<String>) -> Diagnostic {
    Diagnostic::input_parse(line, message)
}

fn parse_f64(line: usize, key: &str, v: &str) -> Result<f64, Diagnostic> {
    let x: f64 = v
        .parse()
        .map_err(|_| perr(line, format!("`{key}` expects a number, got `{v}`")))?;
    if !x.is_finite() {
        return Err(perr(line, format!("`{key}` must be finite, got `{v}`")));
    }
    Ok(x)
}

fn parse_usize(line: usize, key: &str, v: &str) -> Result<usize, Diagnostic> {
    v.parse().map_err(|_| {
        perr(
            line,
            format!("`{key}` expects a non-negative integer, got `{v}`"),
        )
    })
}

/// Parse `t_ref t_peak width @ x,y[,z] ...` (hot spots and pulses).
fn parse_centers(line: usize, rest: &str) -> Result<(f64, f64, f64, Vec<Point>), Diagnostic> {
    let (params, centers) = rest
        .split_once('@')
        .ok_or_else(|| perr(line, "expected `t_ref t_peak width @ x,y ...`"))?;
    let nums: Vec<&str> = params.split_whitespace().collect();
    if nums.len() != 3 {
        return Err(perr(
            line,
            format!("expected 3 parameters before `@`, got {}", nums.len()),
        ));
    }
    let t_ref = parse_f64(line, "t_ref", nums[0])?;
    let t_peak = parse_f64(line, "t_peak", nums[1])?;
    let width = parse_f64(line, "width", nums[2])?;
    if width <= 0.0 {
        return Err(perr(line, "width must be positive"));
    }
    let mut pts = Vec::new();
    for c in centers.split_whitespace() {
        let coords: Vec<&str> = c.split(',').collect();
        if coords.len() != 2 && coords.len() != 3 {
            return Err(perr(line, format!("center `{c}` needs 2 or 3 coordinates")));
        }
        let x = parse_f64(line, "x", coords[0])?;
        let y = parse_f64(line, "y", coords[1])?;
        let z = if coords.len() == 3 {
            parse_f64(line, "z", coords[2])?
        } else {
            0.0
        };
        pts.push(Point::new(x, y, z));
    }
    if pts.is_empty() {
        return Err(perr(line, "at least one center is required after `@`"));
    }
    Ok((t_ref, t_peak, width, pts))
}

fn parse_bc(line: usize, v: &str) -> Result<BcSpec, Diagnostic> {
    let (head, rest) = match v.split_once(char::is_whitespace) {
        Some((h, r)) => (h, r.trim()),
        None => (v, ""),
    };
    match head {
        "isothermal" => {
            let t = parse_f64(line, "isothermal", rest)?;
            Ok(BcSpec::Isothermal { t })
        }
        "hotspots" => {
            let (t_ref, t_peak, width, centers) = parse_centers(line, rest)?;
            Ok(BcSpec::Hotspots {
                t_ref,
                t_peak,
                width,
                centers,
            })
        }
        "symmetry" => {
            if !rest.is_empty() {
                return Err(perr(line, "`symmetry` takes no parameters"));
            }
            Ok(BcSpec::Symmetry)
        }
        other => Err(perr(
            line,
            format!("unknown boundary condition `{other}` (isothermal, hotspots, symmetry)"),
        )),
    }
}

/// Raw key/value store for one section while parsing.
#[derive(Default)]
struct RawMesh {
    kind: Option<(usize, String)>,
    nx: Option<usize>,
    ny: Option<usize>,
    nz: Option<usize>,
    lx: Option<f64>,
    ly: Option<f64>,
    lz: Option<f64>,
    file: Option<String>,
}

/// Parse `.pbte` source text. Everything statically checkable is checked
/// here — numbers, the PDE string (through the symbolic parser), unit
/// specifications, integrator forms — so a parsed [`ScenarioSpec`] can
/// only fail later on filesystem state or the verification gate. Never
/// panics on any input (fuzzed by `tests/pbte_fuzz.rs`).
pub fn parse_pbte(src: &str) -> Result<ScenarioSpec, Diagnostic> {
    let mut name: Option<String> = None;
    let mut strategy = TemperatureStrategy::RedundantNewton;
    let mut integrator = Integrator::Explicit;
    let mut t_ref: Option<f64> = None;
    let mut t_hot: Option<f64> = None;
    let mut raw_mesh = RawMesh::default();
    let mut model: Option<(usize, String)> = None;
    let mut n_freq_bands: Option<usize> = None;
    let mut ndirs: Option<usize> = None;
    let mut n_polar: Option<usize> = None;
    let mut n_azimuthal: Option<usize> = None;
    let mut dt: Option<Option<f64>> = None;
    let mut n_steps: Option<usize> = None;
    let mut equation: Option<String> = None;
    let mut boundaries: Vec<(String, BcSpec)> = Vec::new();
    let mut initial: Option<InitSpec> = None;
    let mut units: Vec<(String, String)> = Vec::new();
    let mut ranges: Vec<(String, f64, f64)> = Vec::new();

    let mut section = String::new();
    for (ln, raw) in src.lines().enumerate() {
        let ln = ln + 1;
        let line = match raw.split_once('#') {
            Some((before, _)) => before.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix('[') {
            let Some(sec) = inner.strip_suffix(']') else {
                return Err(perr(ln, "unterminated section header"));
            };
            let sec = sec.trim();
            match sec {
                "scenario" | "mesh" | "material" | "time" | "pde" | "boundary" | "initial"
                | "units" | "ranges" => section = sec.to_string(),
                other => return Err(perr(ln, format!("unknown section `[{other}]`"))),
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(perr(ln, "expected `key = value` or `[section]`"));
        };
        let key = key.trim();
        let value = value.trim();
        if key.is_empty() {
            return Err(perr(ln, "empty key"));
        }
        if value.is_empty() {
            return Err(perr(ln, format!("`{key}` has no value")));
        }
        let unknown = |key: &str| perr(ln, format!("unknown [{section}] key `{key}`"));
        match section.as_str() {
            "scenario" => match key {
                "name" => name = Some(value.to_string()),
                "strategy" => {
                    strategy = TemperatureStrategy::from_name(value).ok_or_else(|| {
                        perr(
                            ln,
                            format!("unknown strategy `{value}` (redundant, divided)"),
                        )
                    })?
                }
                "integrator" => integrator = value.parse().map_err(|e: String| perr(ln, e))?,
                "t_ref" => t_ref = Some(parse_f64(ln, key, value)?),
                "t_hot" => t_hot = Some(parse_f64(ln, key, value)?),
                other => return Err(unknown(other)),
            },
            "mesh" => match key {
                "kind" => raw_mesh.kind = Some((ln, value.to_string())),
                "nx" => raw_mesh.nx = Some(parse_usize(ln, key, value)?),
                "ny" => raw_mesh.ny = Some(parse_usize(ln, key, value)?),
                "nz" => raw_mesh.nz = Some(parse_usize(ln, key, value)?),
                "lx" => raw_mesh.lx = Some(parse_f64(ln, key, value)?),
                "ly" => raw_mesh.ly = Some(parse_f64(ln, key, value)?),
                "lz" => raw_mesh.lz = Some(parse_f64(ln, key, value)?),
                "file" => raw_mesh.file = Some(value.to_string()),
                other => return Err(unknown(other)),
            },
            "material" => match key {
                "model" => model = Some((ln, value.to_string())),
                "n_freq_bands" => n_freq_bands = Some(parse_usize(ln, key, value)?),
                "ndirs" => ndirs = Some(parse_usize(ln, key, value)?),
                "n_polar" => n_polar = Some(parse_usize(ln, key, value)?),
                "n_azimuthal" => n_azimuthal = Some(parse_usize(ln, key, value)?),
                other => return Err(unknown(other)),
            },
            "time" => match key {
                "dt" => {
                    dt = Some(if value == "auto" {
                        None
                    } else {
                        let v = parse_f64(ln, key, value)?;
                        if v <= 0.0 {
                            return Err(perr(ln, "dt must be positive (or `auto`)"));
                        }
                        Some(v)
                    })
                }
                "steps" => {
                    let v = parse_usize(ln, key, value)?;
                    if v == 0 {
                        return Err(perr(ln, "steps must be at least 1"));
                    }
                    n_steps = Some(v);
                }
                other => return Err(unknown(other)),
            },
            "pde" => match key {
                "equation" => {
                    pbte_symbolic::parse(value)
                        .map_err(|e| perr(ln, format!("equation does not parse: {e}")))?;
                    equation = Some(value.to_string());
                }
                other => return Err(unknown(other)),
            },
            "boundary" => boundaries.push((key.to_string(), parse_bc(ln, value)?)),
            "initial" => match key {
                "temperature" => {
                    let (head, rest) = match value.split_once(char::is_whitespace) {
                        Some((h, r)) => (h, r.trim()),
                        None => (value, ""),
                    };
                    match head {
                        "uniform" => {
                            // Redundant with [scenario] t_ref but accepted
                            // for explicitness; must agree.
                            let v = parse_f64(ln, "uniform", rest)?;
                            if let Some(t) = t_ref {
                                if v != t {
                                    return Err(perr(
                                        ln,
                                        format!("uniform {v} conflicts with t_ref = {t}"),
                                    ));
                                }
                            }
                        }
                        "pulses" => {
                            let (t0, t_peak, width, centers) = parse_centers(ln, rest)?;
                            initial = Some(InitSpec {
                                t_ref: t0,
                                t_peak,
                                width,
                                centers,
                            });
                        }
                        other => {
                            return Err(perr(
                                ln,
                                format!("unknown initial temperature `{other}` (uniform, pulses)"),
                            ))
                        }
                    }
                }
                other => return Err(unknown(other)),
            },
            "units" => {
                Dim::parse(value).map_err(|e| perr(ln, format!("bad unit for `{key}`: {e}")))?;
                units.push((key.to_string(), value.to_string()));
            }
            "ranges" => {
                let parts: Vec<&str> = value.split_whitespace().collect();
                if parts.len() != 2 {
                    return Err(perr(ln, format!("`{key}` expects `lo hi`")));
                }
                let lo = parse_f64(ln, key, parts[0])?;
                let hi = parse_f64(ln, key, parts[1])?;
                if lo > hi {
                    return Err(perr(ln, format!("range for `{key}` is reversed")));
                }
                ranges.push((key.to_string(), lo, hi));
            }
            "" => return Err(perr(ln, "key/value before any [section]")),
            _ => unreachable!("section names validated above"),
        }
    }

    // Required keys and cross-field validation. Line numbers are gone at
    // this point; the messages name the section instead.
    let name = name.ok_or_else(|| Diagnostic::input_invalid("[scenario] name is required"))?;
    let t_ref = t_ref.ok_or_else(|| Diagnostic::input_invalid("[scenario] t_ref is required"))?;
    let t_hot = t_hot.ok_or_else(|| Diagnostic::input_invalid("[scenario] t_hot is required"))?;
    if t_hot < t_ref {
        return Err(Diagnostic::input_invalid("t_hot must be >= t_ref"));
    }
    if t_ref - 60.0 <= 0.0 {
        return Err(Diagnostic::input_invalid(
            "t_ref must exceed 60 K (the table envelope reaches t_ref - 60)",
        ));
    }
    let mesh = {
        let (kline, kind) = raw_mesh
            .kind
            .ok_or_else(|| Diagnostic::input_invalid("[mesh] kind is required"))?;
        match kind.as_str() {
            "grid" => {
                let need = |v: Option<usize>, k: &str| {
                    v.filter(|&v| v > 0)
                        .ok_or_else(|| perr(kline, format!("grid mesh needs positive `{k}`")))
                };
                let needf = |v: Option<f64>, k: &str| {
                    v.filter(|&v| v > 0.0)
                        .ok_or_else(|| perr(kline, format!("grid mesh needs positive `{k}`")))
                };
                let nx = need(raw_mesh.nx, "nx")?;
                let ny = need(raw_mesh.ny, "ny")?;
                let lx = needf(raw_mesh.lx, "lx")?;
                let ly = needf(raw_mesh.ly, "ly")?;
                match raw_mesh.nz {
                    None => MeshSpec::Grid2d { nx, ny, lx, ly },
                    Some(nz) if nz > 0 => MeshSpec::Grid3d {
                        nx,
                        ny,
                        nz,
                        lx,
                        ly,
                        lz: needf(raw_mesh.lz, "lz")?,
                    },
                    Some(_) => return Err(perr(kline, "grid mesh needs positive `nz`")),
                }
            }
            "gmsh" | "medit" => {
                let file = raw_mesh
                    .file
                    .ok_or_else(|| perr(kline, format!("{kind} mesh needs `file`")))?;
                if kind == "gmsh" {
                    MeshSpec::Gmsh { file }
                } else {
                    MeshSpec::Medit { file }
                }
            }
            other => {
                return Err(perr(
                    kline,
                    format!("unknown mesh kind `{other}` (grid, gmsh, medit)"),
                ))
            }
        }
    };
    if let Some((mline, m)) = model {
        if m != "silicon" {
            return Err(perr(mline, format!("unknown material model `{m}`")));
        }
    }
    let n_freq_bands = n_freq_bands
        .ok_or_else(|| Diagnostic::input_invalid("[material] n_freq_bands is required"))?;
    let n_steps = n_steps.ok_or_else(|| Diagnostic::input_invalid("[time] steps is required"))?;
    if boundaries.is_empty() {
        return Err(Diagnostic::input_invalid(
            "[boundary] must name at least one region",
        ));
    }
    Ok(ScenarioSpec {
        name,
        strategy,
        integrator,
        t_ref,
        t_hot,
        mesh,
        material: MaterialSpec {
            n_freq_bands,
            ndirs,
            n_polar,
            n_azimuthal,
        },
        dt: dt.unwrap_or(None),
        n_steps,
        equation,
        boundaries,
        initial,
        units,
        ranges,
        base_dir: PathBuf::from("."),
    })
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// The paper's Figs 1–2 domain: cold isothermal bottom wall at `t_ref`,
    /// isothermal top wall with a centered Gaussian hot spot, specular
    /// symmetry on the left and right sides.
    pub fn hotspot(cfg: &BteConfig) -> ScenarioSpec {
        ScenarioSpec::walled_2d("bte-hotspot", cfg, cfg.lx * 0.5)
    }

    /// The paper's Fig 10 domain: an elongated material with the heat
    /// source in one corner (left end of the top wall), symmetry on left
    /// and right, isothermal bottom.
    pub fn elongated(cfg: &BteConfig) -> ScenarioSpec {
        ScenarioSpec::walled_2d("bte-elongated", cfg, 0.0)
    }

    /// A 2-D grid from `cfg` with its hot spot at `hot_x` on the top wall.
    fn walled_2d(name: &str, cfg: &BteConfig, hot_x: f64) -> ScenarioSpec {
        let mesh = MeshSpec::Grid2d {
            nx: cfg.nx,
            ny: cfg.ny,
            lx: cfg.lx,
            ly: cfg.ly,
        };
        let material = MaterialSpec {
            n_freq_bands: cfg.n_freq_bands,
            ndirs: Some(cfg.ndirs),
            n_polar: None,
            n_azimuthal: None,
        };
        let walls = ["bottom", "top", "left", "right"];
        ScenarioSpec::walled(name, cfg, mesh, material, &walls, Point::xy(hot_x, cfg.ly))
    }

    /// A coarse 3-D configuration (the paper: "some very coarse-grained
    /// 3-dimensional runs were also performed"): an `n³` grid over a
    /// 525 µm cube, cold wall at z=0, Gaussian hot spot centered on the
    /// z=lz face, symmetry on the four sides.
    pub fn coarse_3d(
        n: usize,
        n_polar: usize,
        n_azimuthal: usize,
        n_freq_bands: usize,
        n_steps: usize,
    ) -> ScenarioSpec {
        // The small 2-D configuration's temperatures, extent and 50 µm
        // spot; its in-plane direction count has no use here.
        let cfg = BteConfig::small(n, 0, n_freq_bands, n_steps);
        let l = cfg.lx;
        let mesh = MeshSpec::Grid3d {
            nx: n,
            ny: n,
            nz: n,
            lx: l,
            ly: l,
            lz: l,
        };
        let material = MaterialSpec {
            n_freq_bands,
            ndirs: None,
            n_polar: Some(n_polar),
            n_azimuthal: Some(n_azimuthal),
        };
        let walls = ["front", "back", "left", "right", "top", "bottom"];
        let centre = Point::new(l * 0.5, l * 0.5, l);
        ScenarioSpec::walled("bte-3d", &cfg, mesh, material, &walls, centre)
    }

    /// A built-in scenario from `cfg`: `walls[0]` cold at `t_ref`,
    /// `walls[1]` a Gaussian hot spot at `centre`, the rest symmetric.
    fn walled(
        name: &str,
        cfg: &BteConfig,
        mesh: MeshSpec,
        material: MaterialSpec,
        walls: &[&str],
        centre: Point,
    ) -> ScenarioSpec {
        let hot = BcSpec::Hotspots {
            t_ref: cfg.t_ref,
            t_peak: cfg.t_hot,
            width: cfg.hot_width,
            centers: vec![centre],
        };
        let conditions = [BcSpec::Isothermal { t: cfg.t_ref }, hot]
            .into_iter()
            .chain(std::iter::repeat(BcSpec::Symmetry));
        ScenarioSpec {
            name: name.into(),
            strategy: cfg.temperature_strategy,
            integrator: Integrator::Explicit,
            t_ref: cfg.t_ref,
            t_hot: cfg.t_hot,
            mesh,
            material,
            dt: cfg.dt,
            n_steps: cfg.n_steps,
            equation: None,
            boundaries: walls
                .iter()
                .map(|w| w.to_string())
                .zip(conditions)
                .collect(),
            initial: None,
            units: Vec::new(),
            ranges: Vec::new(),
            base_dir: PathBuf::from("."),
        }
    }

    /// Read and parse a `.pbte` file; mesh references resolve relative to
    /// its directory.
    pub fn from_file(path: impl AsRef<Path>) -> Result<ScenarioSpec, Diagnostic> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path)
            .map_err(|e| Diagnostic::input_io(path, format!("cannot read: {e}")))?;
        let mut spec = parse_pbte(&src).map_err(|d| Diagnostic {
            entity: path.display().to_string(),
            ..d
        })?;
        spec.base_dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
        Ok(spec)
    }

    /// Construct the mesh (building the grid or importing the file).
    fn build_mesh(&self) -> Result<Mesh, Diagnostic> {
        let read = |file: &String| {
            let path = self.base_dir.join(file);
            std::fs::read_to_string(&path)
                .map_err(|e| Diagnostic::input_io(&path, format!("cannot read mesh: {e}")))
        };
        // Cells that are no mesh name their `mesh/*` rule.
        let refused = |kind: &str, file: &str, e: ImportError| match &e {
            ImportError::Mesh(m) => Diagnostic::mesh(m, file, format!("{kind} mesh: {e}")),
            ImportError::Malformed(_) => {
                Diagnostic::input_invalid(format!("{kind} mesh `{file}`: {e}"))
            }
        };
        let mesh = match &self.mesh {
            MeshSpec::Grid2d { nx, ny, lx, ly } => UniformGrid::new_2d(*nx, *ny, *lx, *ly).build(),
            MeshSpec::Grid3d {
                nx,
                ny,
                nz,
                lx,
                ly,
                lz,
            } => UniformGrid::new_3d(*nx, *ny, *nz, *lx, *ly, *lz).build(),
            MeshSpec::Gmsh { file } => {
                gmsh::parse_msh(&read(file)?).map_err(|e| refused("gmsh", file, e))?
            }
            MeshSpec::Medit { file } => {
                medit::parse_mesh(&read(file)?).map_err(|e| refused("medit", file, e))?
            }
        };
        let problems = mesh.validate();
        if !problems.is_empty() {
            return Err(Diagnostic::input_invalid(format!(
                "mesh fails geometric validation: {}",
                problems.join("; ")
            )));
        }
        Ok(mesh)
    }

    /// Assemble the DSL problem: the one translation of a scenario, file
    /// or built-in. Everything filesystem- or geometry-dependent that
    /// `parse_pbte` could not check, and every shape a constructor can be
    /// given, is checked here; the result still has to pass
    /// [`BteProblem::verified`]'s gate (or the `pbte-verify` sweep) before
    /// it should be trusted. Declaration order is part of the contract:
    /// the plan key and the trajectory's bits depend on it.
    pub fn build(&self) -> Result<BteProblem, Diagnostic> {
        let (t_min, t_max) = (self.t_ref - 60.0, self.t_hot + 60.0);
        let mesh = self.build_mesh()?;
        let dim = mesh.dim;

        // Every referenced boundary region must exist on the mesh.
        for (region, _) in &self.boundaries {
            if mesh.region_id(region).is_none() {
                return Err(Diagnostic::input_invalid(format!(
                    "mesh has no boundary region `{region}`"
                )));
            }
        }

        let n_freq_bands = self.material.n_freq_bands;
        if n_freq_bands < 2 {
            return Err(Diagnostic::input_invalid(
                "[material] needs n_freq_bands >= 2",
            ));
        }
        let material = match dim {
            2 => {
                let ndirs = self.material.ndirs.ok_or_else(|| {
                    Diagnostic::input_invalid("2-D scenario needs [material] ndirs")
                })?;
                if ndirs < 4 || ndirs % 2 != 0 {
                    return Err(Diagnostic::input_invalid(
                        "ndirs must be an even number >= 4",
                    ));
                }
                Arc::new(Material::silicon_2d(n_freq_bands, ndirs, t_min, t_max))
            }
            3 => {
                let (np, na) = match (self.material.n_polar, self.material.n_azimuthal) {
                    (Some(np), Some(na)) => (np, na),
                    _ => {
                        return Err(Diagnostic::input_invalid(
                            "3-D scenario needs [material] n_polar and n_azimuthal",
                        ))
                    }
                };
                if np < 2 || na < 4 || na % 2 != 0 {
                    return Err(Diagnostic::input_invalid(
                        "need n_polar >= 2 and even n_azimuthal >= 4",
                    ));
                }
                Arc::new(Material::silicon_3d(n_freq_bands, np, na, t_min, t_max))
            }
            other => {
                return Err(Diagnostic::input_invalid(format!(
                    "unsupported mesh dimension {other}"
                )))
            }
        };

        let dt = match self.dt {
            Some(dt) => dt,
            None => {
                // Largest stable step. On imported meshes the cell width
                // is estimated as volume^(1/dim).
                let dx_min = match &self.mesh {
                    MeshSpec::Grid2d { nx, ny, lx, ly } => (lx / *nx as f64).min(ly / *ny as f64),
                    MeshSpec::Grid3d {
                        nx,
                        ny,
                        nz,
                        lx,
                        ly,
                        lz,
                    } => (lx / *nx as f64).min(ly / *ny as f64).min(lz / *nz as f64),
                    _ => mesh
                        .cell_volumes
                        .iter()
                        .map(|v| v.powf(1.0 / dim as f64))
                        .fold(f64::INFINITY, f64::min),
                };
                material.stable_dt(dx_min, t_max)
            }
        };

        let mut p = Problem::new(&self.name);
        p.domain(dim);
        p.set_steps(dt, self.n_steps);
        p.mesh(mesh);

        // Indices and variables — the appendix listing.
        let n_bands = material.n_bands();
        let d = p.index("d", material.n_dirs());
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
        // field (uniform `t_ref` unless the scenario supplies pulses).
        // Every direction of a band starts at the band's equilibrium
        // intensity, so `I` is the rows of `Io` — the paper script's
        // `initial(I, "Io[b]")` — and only `Io`, `beta` and `T` are
        // evaluated from the temperature.
        p.initial_expr(i_var, "Io[b]");
        match &self.initial {
            // A uniform start is the same value in every cell: one table
            // lookup and one Holland evaluation per band, not per (band,
            // cell).
            None => {
                let t_ref = self.t_ref;
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
            Some(init) => {
                let t0 = Arc::new(gaussian_field(
                    init.t_ref,
                    init.t_peak,
                    init.width,
                    init.centers.clone(),
                ));
                let (m, f) = (material.clone(), t0.clone());
                p.initial(io_var, move |pt, idx| m.table().io(idx[0], f(pt)));
                let (m, f) = (material.clone(), t0.clone());
                p.initial(beta_var, move |pt, idx| m.beta_exact(idx[0], f(pt)));
                p.initial(t_var, move |pt, _| t0(pt));
            }
        }

        // Boundary conditions, in the scenario's order.
        for (region, bc) in &self.boundaries {
            let condition = match bc {
                BcSpec::Isothermal { t } => {
                    let t = *t;
                    isothermal(material.clone(), move |_| t)
                }
                BcSpec::Hotspots {
                    t_ref,
                    t_peak,
                    width,
                    centers,
                } => isothermal(
                    material.clone(),
                    gaussian_field(*t_ref, *t_peak, *width, centers.clone()),
                ),
                BcSpec::Symmetry => symmetry(material.clone()),
            };
            p.boundary(i_var, region, condition);
        }

        // The post-step temperature update.
        let vars = BteVars {
            i: i_var,
            io: io_var,
            beta: beta_var,
            t: t_var,
        };
        let update = TemperatureUpdate::new(material.clone(), vars).with_strategy(self.strategy);
        update.clone().install(&mut p);

        // The conservation form — verbatim from the paper unless the file
        // gives its own PDE string.
        let equation = match &self.equation {
            Some(e) => e.as_str(),
            None if dim == 3 => EQUATION_3D,
            None => EQUATION_2D,
        };
        p.conservation_form(i_var, equation);

        declare_ranges(&mut p, &material, t_min, t_max);
        declare_units(&mut p);
        p.integrator(self.integrator);
        // File-level overrides come after the built-in declarations so a
        // scenario can tighten (or, in the negative-seam tests, break)
        // them.
        for (name, lo, hi) in &self.ranges {
            p.declare_range(name, *lo, *hi);
        }
        for (name, spec) in &self.units {
            p.declare_unit(name, spec);
        }
        Ok(BteProblem {
            problem: p,
            material,
            vars,
            update,
        })
    }
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
fn declare_units(p: &mut Problem) {
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
const EQUATION_2D: &str =
    "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))";

/// The 3-D conservation form (adds the `Sz` direction cosine).
const EQUATION_3D: &str =
    "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d];Sz[d]], I[d,b]))";
