//! Assembled material description: bands × directions + equilibrium table.

use crate::angles::AngularGrid;
use crate::bands::{make_bands, Band};
use crate::equilibrium::{io_band, BandTable, EquilibriumTable, Located, TemperatureGrid};
use crate::scattering::scattering_rate;
use pbte_runtime::OnceMap;
use std::sync::Arc;

/// Everything the BTE solver needs about the phonon gas.
///
/// The tables are private because they share one [`TemperatureGrid`]:
/// [`Material::locate`] finds a temperature's row and fraction once and
/// [`io_at`](Material::io_at) / [`dio_at`](Material::dio_at) /
/// [`beta_at`](Material::beta_at) look it up in any of the three.
#[derive(Debug, Clone)]
pub struct Material {
    pub bands: Vec<Band>,
    pub angles: AngularGrid,
    /// Shared with every other material of the same bands and range.
    tables: Arc<Tables>,
}

/// The tabulated silicon gas: a pure function of the band count and the
/// temperature range, and most of what building a material costs (681
/// temperatures × bands × 8 Gauss nodes of `exp_m1` on the default range).
#[derive(Debug)]
struct Tables {
    equilibrium: EquilibriumTable,
    /// Tabulated Holland scattering rates β_b(T) (the direct evaluation's
    /// sinh/powers would dominate the temperature update; interpolation on
    /// a 0.25 K grid is accurate to ~1e-6 relative for these smooth fits).
    beta: BandTable,
}

/// The tables this process has tabulated, by `(n_freq_bands, t_min bits,
/// t_max bits)` — the angular grid is not in them. A scenario's material
/// holds its tables through the `Arc`, so the store keeps alive only those
/// of the other recent shapes (16 KB per band group on the default range).
static TABLES: OnceMap<(usize, u64, u64), Arc<Tables>> = OnceMap::new();

/// How many times this process has tabulated a silicon gas.
pub fn tables_built() -> u64 {
    TABLES.built()
}

/// Forget every stored table, as if the process had just started. For
/// tests that compare a reuse with a first tabulation.
#[doc(hidden)]
pub fn forget_tables() {
    TABLES.forget();
}

impl Material {
    /// Silicon with an `n_freq_bands` spectral and `ndirs`-direction 2-D
    /// angular discretization; the tables cover `[t_min, t_max]`.
    pub fn silicon_2d(n_freq_bands: usize, ndirs: usize, t_min: f64, t_max: f64) -> Material {
        Material::silicon(n_freq_bands, AngularGrid::new_2d(ndirs), t_min, t_max)
    }

    /// Silicon with a 3-D angular grid.
    pub fn silicon_3d(
        n_freq_bands: usize,
        n_polar: usize,
        n_azimuthal: usize,
        t_min: f64,
        t_max: f64,
    ) -> Material {
        let angles = AngularGrid::new_3d(n_polar, n_azimuthal);
        Material::silicon(n_freq_bands, angles, t_min, t_max)
    }

    /// The one constructor: the bands and angles are made, the tables are
    /// tabulated once per process and `(bands, range)`.
    fn silicon(n_freq_bands: usize, angles: AngularGrid, t_min: f64, t_max: f64) -> Material {
        let bands = make_bands(n_freq_bands);
        let key = (n_freq_bands, t_min.to_bits(), t_max.to_bits());
        let tables = TABLES.get_or_init(Some(&key), || {
            // 0.25 K table resolution is ~1e-6 relative interpolation error.
            let n_points = ((t_max - t_min).ceil() as usize).max(2) * 4 + 1;
            let grid = TemperatureGrid::new(t_min, t_max, n_points);
            Arc::new(Tables {
                equilibrium: EquilibriumTable::build(&bands, grid),
                beta: BandTable::build(bands.len(), grid, |b, t| {
                    scattering_rate(&bands[b].branch(), bands[b].omega_center, t)
                }),
            })
        });
        Material {
            bands,
            angles,
            tables,
        }
    }

    /// The temperature grid all three tables are sampled on.
    pub fn grid(&self) -> &TemperatureGrid {
        self.tables.equilibrium.grid()
    }

    /// The `I⁰` / `dI⁰/dT` table.
    pub fn table(&self) -> &EquilibriumTable {
        &self.tables.equilibrium
    }

    /// The scattering-rate table.
    pub fn beta_table(&self) -> &BandTable {
        &self.tables.beta
    }

    /// Locate `t` on the grid, once for any number of lookups.
    #[inline]
    pub fn locate(&self, t: f64) -> Located {
        self.grid().locate(t)
    }

    /// `I⁰_b` at a located temperature.
    #[inline]
    pub fn io_at(&self, band: usize, at: Located) -> f64 {
        self.tables.equilibrium.io_at(band, at)
    }

    /// `dI⁰_b/dT` at a located temperature.
    #[inline]
    pub fn dio_at(&self, band: usize, at: Located) -> f64 {
        self.tables.equilibrium.dio_at(band, at)
    }

    /// `β_b` at a located temperature.
    #[inline]
    pub fn beta_at(&self, band: usize, at: Located) -> f64 {
        self.tables.beta.at(band, at)
    }

    /// Number of (band, polarization) groups.
    pub fn n_bands(&self) -> usize {
        self.bands.len()
    }

    /// Number of discrete directions.
    pub fn n_dirs(&self) -> usize {
        self.angles.len()
    }

    /// Per-band group velocities (the `vg` coefficient array).
    pub fn vg_array(&self) -> Vec<f64> {
        self.bands.iter().map(|b| b.vg).collect()
    }

    /// Direction-component coefficient arrays (`Sx`, `Sy`, `Sz`).
    pub fn direction_component(&self, axis: usize) -> Vec<f64> {
        self.angles
            .directions
            .iter()
            .map(|s| s.component(axis))
            .collect()
    }

    /// Scattering rates `β_b(T)` for every band at temperature `t`
    /// (table-interpolated; see [`Material::beta_exact`] for the direct
    /// Holland evaluation).
    pub fn beta_all(&self, t: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.bands.len());
        let at = self.locate(t);
        for (b, o) in out.iter_mut().enumerate() {
            *o = self.beta_at(b, at);
        }
    }

    /// Direct Holland-model evaluation (reference path for tests).
    pub fn beta_exact(&self, band: usize, t: f64) -> f64 {
        let b = &self.bands[band];
        scattering_rate(&b.branch(), b.omega_center, t)
    }

    /// Equilibrium intensities `I⁰_b(T)` from the table.
    pub fn io_all(&self, t: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.bands.len());
        let at = self.locate(t);
        for (b, o) in out.iter_mut().enumerate() {
            *o = self.io_at(b, at);
        }
    }

    /// Direct-quadrature equilibrium intensity (reference path; the table
    /// is the production path).
    pub fn io_exact(&self, band: usize, t: f64) -> f64 {
        io_band(&self.bands[band], t)
    }

    /// The largest stable explicit time step at temperature `t_max` on a
    /// mesh with minimum cell spacing `dx_min`: the advective CFL bound and
    /// the scattering relaxation bound must both hold.
    pub fn stable_dt(&self, dx_min: f64, t_max: f64) -> f64 {
        let vg_max = self.bands.iter().map(|b| b.vg).fold(0.0f64, f64::max);
        let mut beta = vec![0.0; self.n_bands()];
        self.beta_all(t_max, &mut beta);
        let beta_max = beta.iter().copied().fold(0.0f64, f64::max);
        let cfl = 0.4 * dx_min / vg_max;
        let relax = 0.9 / beta_max;
        cfl.min(relax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_counts() {
        let m = Material::silicon_2d(40, 20, 250.0, 400.0);
        assert_eq!(m.n_bands(), 55);
        assert_eq!(m.n_dirs(), 20);
        // 1100 intensity dof per cell (paper §III-A).
        assert_eq!(m.n_bands() * m.n_dirs(), 1100);
    }

    #[test]
    fn coefficient_arrays_have_matching_lengths() {
        let m = Material::silicon_2d(10, 8, 250.0, 400.0);
        assert_eq!(m.vg_array().len(), m.n_bands());
        assert_eq!(m.direction_component(0).len(), m.n_dirs());
        assert_eq!(m.direction_component(1).len(), m.n_dirs());
        for v in m.vg_array() {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn stable_dt_is_scattering_limited_at_paper_scale() {
        // On the paper's 4.4 µm cells the relaxation bound — not the CFL
        // bound — sets dt ≈ 1e-12 s, matching the appendix script.
        let m = Material::silicon_2d(40, 20, 250.0, 400.0);
        let dt = m.stable_dt(525e-6 / 120.0, 350.0);
        assert!(dt > 5e-13 && dt < 5e-12, "dt = {dt}");
        let cfl_only = 0.4 * (525e-6 / 120.0) / 9.01e3;
        assert!(dt < cfl_only, "scattering bound must be the tight one");
    }

    #[test]
    fn beta_and_io_buffers() {
        let m = Material::silicon_2d(10, 8, 250.0, 400.0);
        let mut beta = vec![0.0; m.n_bands()];
        let mut io = vec![0.0; m.n_bands()];
        m.beta_all(300.0, &mut beta);
        m.io_all(300.0, &mut io);
        assert!(beta.iter().all(|&b| b > 0.0));
        assert!(io.iter().all(|&v| v > 0.0));
        // Tables agree with the direct evaluations.
        for b in 0..m.n_bands() {
            let exact = m.io_exact(b, 300.0);
            assert!((io[b] - exact).abs() / exact < 1e-4);
            let beta_exact = m.beta_exact(b, 300.0);
            assert!(
                (beta[b] - beta_exact).abs() / beta_exact < 1e-4,
                "band {b}: {} vs {beta_exact}",
                beta[b]
            );
        }
    }
}
