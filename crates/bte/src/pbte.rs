//! Textual `.pbte` scenario front-end.
//!
//! A `.pbte` file is a line-oriented, INI-style description of a BTE
//! scenario: the PDE string (parsed by the `pbte_symbolic` lexer/parser),
//! the mesh (uniform grid or a Gmsh/MEDIT file), the material, boundary
//! conditions, time integration, and the declared *ranges and units* the
//! interval and dimensional-analysis proof obligations seed from. It is
//! the untrusted-input surface for everything above the DSL — CLI users
//! today, the planned `pbte-serve` service tomorrow — so parsing is
//! fuzzed (`tests/pbte_fuzz.rs`) and every parsed scenario is verified
//! (units + the existing obligations) before any plan reaches an
//! executor ([`ScenarioSpec::build_verified`]).
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
//! `t_ref + Σ (t_peak − t_ref)·exp(−2·d²/width²)` over the centers. With
//! a single center this is exactly [`crate::boundary::gaussian_wall`],
//! which is what makes the textual hotspot scenario bit-identical to the
//! hard-coded [`crate::scenario::hotspot_2d`] (pinned by
//! `tests/pbte_equivalence.rs`).

use crate::boundary::{gaussian_wall, isothermal, symmetry};
use crate::material::Material;
use crate::scenario::{build_custom, BteProblem, Scaffold, EQUATION_2D, EQUATION_3D};
use crate::temperature::TemperatureStrategy;
use pbte_dsl::exec::{ExecTarget, Solver};
use pbte_dsl::problem::Integrator;
use pbte_dsl::{analysis, Diagnostic, Severity};
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

/// A parsed, statically validated `.pbte` scenario.
#[derive(Debug, Clone)]
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
                    strategy = match value {
                        "redundant" => TemperatureStrategy::RedundantNewton,
                        "divided" => TemperatureStrategy::DividedNewton,
                        other => {
                            return Err(perr(
                                ln,
                                format!("unknown strategy `{other}` (redundant, divided)"),
                            ))
                        }
                    }
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
        .filter(|&v| v >= 2)
        .ok_or_else(|| Diagnostic::input_invalid("[material] needs n_freq_bands >= 2"))?;
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

/// Multi-center Gaussian temperature field over a `t_ref` background.
fn pulse_field(
    t_ref: f64,
    t_peak: f64,
    width: f64,
    centers: Vec<Point>,
) -> Arc<dyn Fn(Point) -> f64 + Send + Sync> {
    Arc::new(move |p: Point| {
        let mut t = t_ref;
        for c in &centers {
            let dx = p.x - c.x;
            let dy = p.y - c.y;
            let dz = p.z - c.z;
            let d2 = dx * dx + dy * dy + dz * dz;
            t += (t_peak - t_ref) * (-2.0 * d2 / (width * width)).exp();
        }
        t
    })
}

impl ScenarioSpec {
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

    /// Temperature-table envelope, matching the hard-coded scenarios.
    fn table_range(&self) -> (f64, f64) {
        (self.t_ref - 60.0, self.t_hot + 60.0)
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

    /// Assemble the DSL problem. Everything filesystem- or
    /// geometry-dependent that `parse_pbte` could not check is checked
    /// here; the result still has to pass [`Self::build_verified`]'s
    /// gate (or the `pbte-verify` sweep) before it should be trusted.
    pub fn build(&self) -> Result<BteProblem, Diagnostic> {
        let (t_min, t_max) = self.table_range();
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
                Arc::new(Material::silicon_2d(
                    self.material.n_freq_bands,
                    ndirs,
                    t_min,
                    t_max,
                ))
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
                Arc::new(Material::silicon_3d(
                    self.material.n_freq_bands,
                    np,
                    na,
                    t_min,
                    t_max,
                ))
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
                // Largest stable step. On grids this matches the
                // hard-coded builders exactly; on imported meshes the
                // cell width is estimated as volume^(1/dim).
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

        let equation = match &self.equation {
            Some(e) => e.clone(),
            None => if dim == 3 { EQUATION_3D } else { EQUATION_2D }.to_string(),
        };
        let init_t = self
            .initial
            .as_ref()
            .map(|init| pulse_field(init.t_ref, init.t_peak, init.width, init.centers.clone()));

        let boundaries = self.boundaries.clone();
        let mut bte = build_custom(
            Scaffold {
                name: self.name.clone(),
                material,
                mesh,
                dt,
                n_steps: self.n_steps,
                init_t,
                t_ref: self.t_ref,
                t_min,
                t_max,
                equation,
                strategy: self.strategy,
            },
            move |p, i_var, material| {
                for (region, bc) in boundaries {
                    match bc {
                        BcSpec::Isothermal { t } => {
                            p.boundary(i_var, &region, isothermal(material.clone(), move |_| t));
                        }
                        BcSpec::Hotspots {
                            t_ref,
                            t_peak,
                            width,
                            centers,
                        } => {
                            if let [c] = centers.as_slice() {
                                // Single center: exactly the hard-coded
                                // builders' wall (bit-identical).
                                let hot = gaussian_wall(t_ref, t_peak, *c, width);
                                p.boundary(i_var, &region, isothermal(material.clone(), hot));
                            } else {
                                let field = pulse_field(t_ref, t_peak, width, centers);
                                p.boundary(
                                    i_var,
                                    &region,
                                    isothermal(material.clone(), move |q| field(q)),
                                );
                            }
                        }
                        BcSpec::Symmetry => {
                            p.boundary(i_var, &region, symmetry(material.clone()));
                        }
                    }
                }
            },
        );
        bte.problem.integrator(self.integrator);
        // File-level overrides come after the built-in declarations so a
        // scenario can tighten (or, in the negative-seam tests, break)
        // them.
        for (name, lo, hi) in &self.ranges {
            bte.problem.declare_range(name, *lo, *hi);
        }
        for (name, spec) in &self.units {
            bte.problem.declare_unit(name, spec);
        }
        Ok(bte)
    }

    /// Build and compile for `target`, refusing any scenario that fails
    /// verification: the standard plan obligations (access, races,
    /// transfers), the dimensional-analysis pass, and the interval-domain
    /// safety pass all run before a solver is handed back. Error-severity
    /// findings reject the scenario; warnings are returned alongside the
    /// solver.
    pub fn build_verified(
        &self,
        target: ExecTarget,
    ) -> Result<(Solver, Vec<Diagnostic>), Vec<Diagnostic>> {
        let bte = self.build().map_err(|d| vec![d])?;
        let solver = bte.problem.build(target).map_err(|d| vec![d])?;
        let diags = analysis::verify_gate(&solver.compiled, &solver.target);
        if diags.iter().any(|d| d.severity == Severity::Error) {
            return Err(diags);
        }
        Ok((solver, diags))
    }
}
