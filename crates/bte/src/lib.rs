//! Phonon Boltzmann Transport Equation application, built on the PBTE DSL.
//!
//! This crate is the paper's §III demonstration: the non-gray phonon BTE
//! for silicon under the single relaxation-time approximation,
//!
//! `∂I/∂t + v_g s·∇I = (I⁰ − I)/τ`,
//!
//! discretized into 20 directions × 55 (band, polarization) groups — 1100
//! coupled PDEs per cell — and encoded in the DSL exactly as the paper's
//! appendix script does. Everything physical lives here:
//!
//! * [`dispersion`] — quadratic LA/TA branch fits for silicon;
//! * [`bands`] — the 40-band spectral discretization that yields 40
//!   longitudinal + 15 transverse groups (paper §III-A);
//! * [`scattering`] — Holland relaxation times (impurity + umklapp/normal);
//! * [`equilibrium`] — Bose–Einstein statistics, per-band equilibrium
//!   intensity `I⁰_b(T)` and its temperature derivative, with an optional
//!   precomputed lookup table;
//! * [`angles`] — direction discretizations with exact specular-reflection
//!   index maps (needed by the symmetry boundary);
//! * [`temperature`] — the nonlinear per-cell temperature update (the CPU
//!   callback the paper's hybrid codegen is designed around), including
//!   the cross-rank energy reduction for band-parallel runs and the
//!   opt-in physics health probes (NaN/negativity watchdog, energy-budget
//!   residual) its passes compute;
//! * [`boundary`] — the isothermal and symmetry callback functions and
//!   the Gaussian hot-spot field;
//! * [`pbte`] — the one scenario value, `ScenarioSpec`: parsed from a
//!   `.pbte` file (fuzzed parser) or made by a built-in constructor, and
//!   its one translation into the DSL;
//! * [`scenario`] — the built-in problems, built: the 525 µm hot-spot
//!   domain (Figs 1–2), the elongated corner-heated domain (Fig 10), and
//!   a coarse 3-D configuration, plus the verify gate every run passes
//!   (`BteProblem::verified`);
//! * [`output`] — temperature-field extraction and rendering;
//! * [`validation`] — kinetic-theory bulk quantities (thermal
//!   conductivity, dominant mean free path) checked against silicon
//!   literature values.

pub mod angles;
pub mod bands;
pub mod boundary;
pub mod constants;
pub mod dispersion;
pub mod equilibrium;
pub mod material;
pub mod output;
pub mod pbte;
pub mod scattering;
pub mod scenario;
pub mod temperature;
pub mod validation;

pub use angles::AngularGrid;
pub use bands::{make_bands, Band, Polarization};
pub use material::Material;
pub use scenario::{BteConfig, BteProblem};
