//! Bose–Einstein statistics and per-band equilibrium intensity.
//!
//! The isotropic equilibrium intensity of band *b* at temperature *T*:
//!
//! `I⁰_b(T) = (v_g,b / 4π) · g_b · ∫_band ħω D(ω) f_BE(ω, T) dω`
//!
//! with `D(ω) = k²/(2π² v_g(ω))` per polarization and degeneracy `g_b`.
//! The integral is evaluated with fixed Gauss–Legendre quadrature so the
//! result is deterministic; `dI⁰/dT` uses the analytic Bose–Einstein
//! derivative. A precomputed [`EquilibriumTable`] provides O(1) lookups
//! for the hot temperature-update path.

use crate::bands::Band;
use crate::constants::{HBAR, KB};

/// Bose–Einstein occupation `1/(exp(ħω/k_B T) − 1)`.
pub fn bose_einstein(omega: f64, t: f64) -> f64 {
    let x = HBAR * omega / (KB * t);
    1.0 / x.exp_m1()
}

/// `∂f_BE/∂T = (ħω/k_B T²) eˣ/(eˣ−1)²`.
pub fn bose_einstein_dt(omega: f64, t: f64) -> f64 {
    let x = HBAR * omega / (KB * t);
    // eˣ/(eˣ−1)² written stably via expm1.
    let em1 = x.exp_m1();
    (x / t) * (em1 + 1.0) / (em1 * em1)
}

/// 8-point Gauss–Legendre nodes/weights on [-1, 1].
const GL_NODES: [f64; 8] = [
    -0.960_289_856_497_536_2,
    -0.796_666_477_413_626_7,
    -0.525_532_409_916_329,
    -0.183_434_642_495_649_8,
    0.183_434_642_495_649_8,
    0.525_532_409_916_329,
    0.796_666_477_413_626_7,
    0.960_289_856_497_536_2,
];
const GL_WEIGHTS: [f64; 8] = [
    0.101_228_536_290_376_26,
    0.222_381_034_453_374_47,
    0.313_706_645_877_887_3,
    0.362_683_783_378_362,
    0.362_683_783_378_362,
    0.313_706_645_877_887_3,
    0.222_381_034_453_374_47,
    0.101_228_536_290_376_26,
];

/// Integrate `g(ω)` over the band with 8-point Gauss–Legendre.
fn band_integral(band: &Band, mut g: impl FnMut(f64) -> f64) -> f64 {
    let half = 0.5 * (band.omega_hi - band.omega_lo);
    let mid = 0.5 * (band.omega_hi + band.omega_lo);
    let mut acc = 0.0;
    for (node, weight) in GL_NODES.iter().zip(GL_WEIGHTS.iter()) {
        acc += weight * g(mid + half * node);
    }
    acc * half
}

/// Equilibrium intensity `I⁰_b(T)`, W/(m²·sr).
pub fn io_band(band: &Band, t: f64) -> f64 {
    let branch = band.branch();
    let integral = band_integral(band, |omega| {
        HBAR * omega * branch.dos(omega) * bose_einstein(omega, t)
    });
    band.vg * band.degeneracy * integral / (4.0 * std::f64::consts::PI)
}

/// `dI⁰_b/dT`, W/(m²·sr·K).
pub fn dio_band_dt(band: &Band, t: f64) -> f64 {
    let branch = band.branch();
    let integral = band_integral(band, |omega| {
        HBAR * omega * branch.dos(omega) * bose_einstein_dt(omega, t)
    });
    band.vg * band.degeneracy * integral / (4.0 * std::f64::consts::PI)
}

/// Volumetric heat capacity contribution of a band set,
/// `c_v = Σ_b (4π/v_g,b) dI⁰_b/dT`, J/(m³·K). Used as a physics sanity
/// check against silicon literature values.
pub fn heat_capacity(bands: &[Band], t: f64) -> f64 {
    bands
        .iter()
        .map(|b| 4.0 * std::f64::consts::PI / b.vg * dio_band_dt(b, t))
        .sum()
}

/// The uniform temperature grid a material's tables are sampled on. One
/// grid serves `I⁰`, `dI⁰/dT` and `β` ([`Material`](crate::material::Material)
/// builds all three from the same value), so a temperature is located
/// once and looked up in any of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureGrid {
    pub t_min: f64,
    pub t_max: f64,
    dt: f64,
    n_points: usize,
}

/// A temperature located on a [`TemperatureGrid`]: the row at or below it
/// and the fraction of the way to the next row. Depends on the
/// temperature only, not on the band or the table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Located {
    row: usize,
    frac: f64,
}

impl TemperatureGrid {
    /// `n_points` rows evenly spaced over `[t_min, t_max]`.
    pub fn new(t_min: f64, t_max: f64, n_points: usize) -> TemperatureGrid {
        assert!(t_min > 0.0 && t_max > t_min && n_points >= 2);
        TemperatureGrid {
            t_min,
            t_max,
            dt: (t_max - t_min) / (n_points - 1) as f64,
            n_points,
        }
    }

    /// Number of rows.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Temperature of row `i`.
    pub fn temperature(&self, i: usize) -> f64 {
        self.t_min + i as f64 * self.dt
    }

    /// Locate `t`, clamped to the grid range (a NaN locates to row 0 with
    /// a NaN fraction, so every lookup of it is NaN).
    #[inline]
    pub fn locate(&self, t: f64) -> Located {
        let clamped = t.clamp(self.t_min, self.t_max);
        let pos = (clamped - self.t_min) / self.dt;
        let row = (pos as usize).min(self.n_points - 2);
        Located {
            row,
            frac: pos - row as f64,
        }
    }
}

/// Linear interpolation of `values[row * n_bands + band]` at `at`.
#[inline]
fn interpolate(values: &[f64], n_bands: usize, band: usize, at: Located) -> f64 {
    let a = values[at.row * n_bands + band];
    let b = values[(at.row + 1) * n_bands + band];
    a + at.frac * (b - a)
}

/// The temperature-independent half of a band's quadrature, hoisted out
/// of the table build: per Gauss–Legendre node its weight, `ħω` and
/// `ħω·D(ω)` (a `sqrt` and a group velocity each), plus the band's
/// prefactors.
struct BandNodes {
    half: f64,
    /// `v_g · g`, the leading factor of `io_band` / `dio_band_dt`.
    vg_g: f64,
    /// `(weight, ħω, ħω·D(ω))` per node.
    nodes: [(f64, f64, f64); 8],
}

impl BandNodes {
    fn new(band: &Band) -> BandNodes {
        let branch = band.branch();
        let half = 0.5 * (band.omega_hi - band.omega_lo);
        let mid = 0.5 * (band.omega_hi + band.omega_lo);
        BandNodes {
            half,
            vg_g: band.vg * band.degeneracy,
            nodes: std::array::from_fn(|k| {
                let omega = mid + half * GL_NODES[k];
                (
                    GL_WEIGHTS[k],
                    HBAR * omega,
                    HBAR * omega * branch.dos(omega),
                )
            }),
        }
    }
}

/// Precomputed `I⁰_b(T)` and `dI⁰_b/dT` on a uniform temperature grid with
/// linear interpolation — the production path for the per-cell Newton
/// solve (direct quadrature in the inner loop would dominate the
/// temperature update).
#[derive(Debug, Clone)]
pub struct EquilibriumTable {
    grid: TemperatureGrid,
    n_bands: usize,
    /// `io[t_idx * n_bands + b]`.
    io: Vec<f64>,
    dio: Vec<f64>,
}

impl EquilibriumTable {
    /// Tabulate for all bands on `grid`. Every entry equals [`io_band`] /
    /// [`dio_band_dt`] at its node bit for bit: the same products in the
    /// same association, with the `exp_m1` the two share evaluated once
    /// per (temperature, band, node).
    pub fn build(bands: &[Band], grid: TemperatureGrid) -> EquilibriumTable {
        let n_bands = bands.len();
        let nodes: Vec<BandNodes> = bands.iter().map(BandNodes::new).collect();
        let four_pi = 4.0 * std::f64::consts::PI;
        let mut io = Vec::with_capacity(grid.n_points * n_bands);
        let mut dio = Vec::with_capacity(grid.n_points * n_bands);
        for i in 0..grid.n_points {
            let t = grid.temperature(i);
            let kt = KB * t;
            for band in &nodes {
                let (mut acc, mut acc_dt) = (0.0, 0.0);
                for &(weight, hw, hw_dos) in &band.nodes {
                    let x = hw / kt;
                    let em1 = x.exp_m1();
                    acc += weight * (hw_dos * (1.0 / em1));
                    acc_dt += weight * (hw_dos * ((x / t) * (em1 + 1.0) / (em1 * em1)));
                }
                io.push(band.vg_g * (acc * band.half) / four_pi);
                dio.push(band.vg_g * (acc_dt * band.half) / four_pi);
            }
        }
        EquilibriumTable {
            grid,
            n_bands,
            io,
            dio,
        }
    }

    /// The grid the table is sampled on.
    pub fn grid(&self) -> &TemperatureGrid {
        &self.grid
    }

    /// `I⁰_b` at a located temperature.
    #[inline]
    pub fn io_at(&self, band: usize, at: Located) -> f64 {
        interpolate(&self.io, self.n_bands, band, at)
    }

    /// `dI⁰_b/dT` at a located temperature.
    #[inline]
    pub fn dio_at(&self, band: usize, at: Located) -> f64 {
        interpolate(&self.dio, self.n_bands, band, at)
    }

    /// Interpolated `I⁰_b(T)`.
    #[inline]
    pub fn io(&self, band: usize, t: f64) -> f64 {
        self.io_at(band, self.grid.locate(t))
    }

    /// Interpolated `dI⁰_b/dT`.
    #[inline]
    pub fn dio(&self, band: usize, t: f64) -> f64 {
        self.dio_at(band, self.grid.locate(t))
    }

    /// Number of bands tabulated.
    pub fn n_bands(&self) -> usize {
        self.n_bands
    }
}

/// A generic per-band function of temperature tabulated on a uniform grid
/// with linear interpolation — the same machinery as [`EquilibriumTable`],
/// reused for the Holland scattering rates (whose sinh/power evaluations
/// would otherwise dominate the temperature-update callback).
#[derive(Debug, Clone)]
pub struct BandTable {
    grid: TemperatureGrid,
    n_bands: usize,
    values: Vec<f64>,
}

impl BandTable {
    /// Tabulate `f(band, T)` for `band < n_bands` on `grid`.
    pub fn build(
        n_bands: usize,
        grid: TemperatureGrid,
        f: impl Fn(usize, f64) -> f64,
    ) -> BandTable {
        let mut values = Vec::with_capacity(grid.n_points * n_bands);
        for i in 0..grid.n_points {
            let t = grid.temperature(i);
            for b in 0..n_bands {
                values.push(f(b, t));
            }
        }
        BandTable {
            grid,
            n_bands,
            values,
        }
    }

    /// Value at a located temperature.
    #[inline]
    pub fn at(&self, band: usize, at: Located) -> f64 {
        interpolate(&self.values, self.n_bands, band, at)
    }

    /// Interpolated value (clamped to the table range).
    #[inline]
    pub fn get(&self, band: usize, t: f64) -> f64 {
        self.at(band, self.grid.locate(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bands::make_bands;

    #[test]
    fn band_table_interpolates_a_known_function() {
        let t = BandTable::build(3, TemperatureGrid::new(100.0, 200.0, 101), |b, temp| {
            (b + 1) as f64 * temp
        });
        for (b, temp) in [(0usize, 100.0), (1, 150.5), (2, 199.9)] {
            let expected = (b + 1) as f64 * temp;
            assert!((t.get(b, temp) - expected).abs() < 1e-9);
        }
        // Clamps outside the range.
        assert_eq!(t.get(0, 50.0), t.get(0, 100.0));
        assert_eq!(t.get(0, 500.0), t.get(0, 200.0));
    }

    #[test]
    fn bose_einstein_limits() {
        // Classical limit ħω ≪ kBT: f ≈ kBT/ħω.
        let f = bose_einstein(1e10, 300.0);
        let classical = KB * 300.0 / (HBAR * 1e10);
        assert!((f - classical).abs() / classical < 0.01);
        // Quantum limit: occupation collapses.
        assert!(bose_einstein(7e13, 10.0) < 1e-20);
    }

    #[test]
    fn bose_einstein_derivative_matches_finite_difference() {
        for (w, t) in [(1e13, 300.0), (5e13, 350.0), (2e12, 250.0)] {
            let h = 1e-3;
            let fd = (bose_einstein(w, t + h) - bose_einstein(w, t - h)) / (2.0 * h);
            let an = bose_einstein_dt(w, t);
            assert!((fd - an).abs() / an.abs() < 1e-6, "ω={w}, T={t}");
        }
    }

    #[test]
    fn io_is_positive_and_monotone_in_temperature() {
        let bands = make_bands(20);
        for band in &bands {
            let a = io_band(band, 280.0);
            let b = io_band(band, 300.0);
            let c = io_band(band, 350.0);
            assert!(a > 0.0);
            assert!(b > a && c > b, "I⁰ must increase with T");
        }
    }

    #[test]
    fn dio_matches_finite_difference() {
        let bands = make_bands(10);
        for band in bands.iter().step_by(3) {
            let h = 0.01;
            let fd = (io_band(band, 300.0 + h) - io_band(band, 300.0 - h)) / (2.0 * h);
            let an = dio_band_dt(band, 300.0);
            assert!((fd - an).abs() / an < 1e-6);
        }
    }

    #[test]
    fn heat_capacity_is_in_silicon_range() {
        // Si volumetric heat capacity at 300 K ≈ 1.66e6 J/(m³K); the
        // quadratic-fit acoustic-only model recovers the right order
        // (optical phonons are excluded, so it comes out lower).
        let bands = make_bands(40);
        let cv = heat_capacity(&bands, 300.0);
        assert!(cv > 2e5 && cv < 3e6, "c_v = {cv}");
        // And grows toward the classical plateau.
        assert!(heat_capacity(&bands, 500.0) > cv);
    }

    #[test]
    fn table_matches_direct_quadrature() {
        let bands = make_bands(8);
        let table = EquilibriumTable::build(&bands, TemperatureGrid::new(250.0, 400.0, 601));
        for (bi, band) in bands.iter().enumerate() {
            for t in [250.0, 287.3, 300.0, 333.33, 399.9] {
                let direct = io_band(band, t);
                let interp = table.io(bi, t);
                assert!(
                    (direct - interp).abs() / direct < 1e-5,
                    "band {bi} at {t}: {direct} vs {interp}"
                );
                let d_direct = dio_band_dt(band, t);
                let d_interp = table.dio(bi, t);
                assert!((d_direct - d_interp).abs() / d_direct < 1e-5);
            }
        }
    }

    /// The hoisted build (node data per band, one `exp_m1` per
    /// (temperature, band, node)) keeps every entry's bits: each equals
    /// the reference quadrature at its grid node.
    #[test]
    fn every_table_entry_equals_the_reference_quadrature() {
        use crate::material::Material;
        for m in [
            Material::silicon_2d(6, 8, 250.0, 400.0),
            Material::silicon_3d(5, 2, 4, 240.0, 360.5),
        ] {
            let table = m.table();
            let n_bands = m.n_bands();
            assert_eq!(table.io.len(), table.grid.n_points() * n_bands);
            for i in 0..table.grid.n_points() {
                let t = table.grid.temperature(i);
                for (b, band) in m.bands.iter().enumerate() {
                    let (io, dio) = (table.io[i * n_bands + b], table.dio[i * n_bands + b]);
                    assert_eq!(io.to_bits(), io_band(band, t).to_bits(), "io[{i}][{b}]");
                    assert_eq!(
                        dio.to_bits(),
                        dio_band_dt(band, t).to_bits(),
                        "dio[{i}][{b}]"
                    );
                }
            }
        }
    }

    #[test]
    fn table_clamps_out_of_range() {
        let bands = make_bands(4);
        let table = EquilibriumTable::build(&bands, TemperatureGrid::new(250.0, 400.0, 101));
        assert_eq!(table.io(0, 100.0), table.io(0, 250.0));
        assert_eq!(table.io(0, 900.0), table.io(0, 400.0));
    }
}
