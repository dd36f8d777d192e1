//! Angular discretization of the direction space.
//!
//! 2-D problems use `n` unit vectors uniformly spaced on the circle with
//! equal solid-angle weights summing to 4π (the paper's "set of 20
//! uniformly distributed direction vectors"); 3-D problems use an
//! `Nθ × Nφ` product grid with exact `∫sinθ dθ dφ` panel weights. The
//! angles are offset by half a spacing so no direction is wall-parallel
//! and every axis-aligned specular reflection maps a grid direction onto
//! another grid direction **exactly** — the property the symmetry boundary
//! callback relies on (Eq. 6 of the paper).

use pbte_mesh::Point;

/// A set of discrete directions with quadrature weights.
#[derive(Debug, Clone)]
pub struct AngularGrid {
    /// Unit direction vectors.
    pub directions: Vec<Point>,
    /// Solid-angle weights, `Σ w = 4π`.
    pub weights: Vec<f64>,
}

impl AngularGrid {
    /// 2-D circle discretization with `n` directions (n even).
    pub fn new_2d(n: usize) -> AngularGrid {
        assert!(
            n >= 4 && n % 2 == 0,
            "need an even number ≥ 4 of directions"
        );
        let mut directions = Vec::with_capacity(n);
        let w = 4.0 * std::f64::consts::PI / n as f64;
        for k in 0..n {
            // Half-offset spacing: reflections across x and y axes stay in
            // the set, and no direction is exactly wall-parallel.
            let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.5) / n as f64;
            directions.push(Point::xy(theta.cos(), theta.sin()));
        }
        AngularGrid {
            directions,
            weights: vec![w; n],
        }
    }

    /// 3-D product discretization: `n_polar × n_azimuthal` panels with
    /// exact panel solid angles (midpoint directions).
    pub fn new_3d(n_polar: usize, n_azimuthal: usize) -> AngularGrid {
        assert!(n_polar >= 2 && n_azimuthal >= 4 && n_azimuthal % 2 == 0);
        let mut directions = Vec::with_capacity(n_polar * n_azimuthal);
        let mut weights = Vec::with_capacity(n_polar * n_azimuthal);
        let pi = std::f64::consts::PI;
        for i in 0..n_polar {
            let theta_lo = pi * i as f64 / n_polar as f64;
            let theta_hi = pi * (i + 1) as f64 / n_polar as f64;
            let theta_mid = 0.5 * (theta_lo + theta_hi);
            // Exact panel solid angle: Δφ (cosθ_lo − cosθ_hi).
            let band_weight = theta_lo.cos() - theta_hi.cos();
            for j in 0..n_azimuthal {
                let phi = 2.0 * pi * (j as f64 + 0.5) / n_azimuthal as f64;
                directions.push(Point::new(
                    theta_mid.sin() * phi.cos(),
                    theta_mid.sin() * phi.sin(),
                    theta_mid.cos(),
                ));
                weights.push(band_weight * 2.0 * pi / n_azimuthal as f64);
            }
        }
        AngularGrid {
            directions,
            weights,
        }
    }

    /// Number of directions.
    pub fn len(&self) -> usize {
        self.directions.len()
    }

    /// Is the grid empty? (Never, by construction.)
    pub fn is_empty(&self) -> bool {
        self.directions.is_empty()
    }

    /// The index of the specular reflection of direction `d` across a wall
    /// with unit normal `normal`: `s' = s − 2(s·n)n`. Panics if the
    /// reflected direction is not in the set (within tolerance) — the
    /// symmetry boundary requires closure under reflection.
    pub fn reflect(&self, d: usize, normal: Point) -> usize {
        self.try_reflect(d, normal).unwrap_or_else(|| {
            panic!(
                "reflection of direction {d} across {normal:?} leaves the set; \
                 use axis-aligned symmetry walls with this grid"
            )
        })
    }

    fn try_reflect(&self, d: usize, normal: Point) -> Option<usize> {
        let s = self.directions[d];
        self.find(s - normal * (2.0 * s.dot(normal)))
    }

    /// [`Self::reflect`] tabulated for the three coordinate-axis normals:
    /// entry `axis * len() + d` is the reflection of direction `d` across
    /// a wall whose normal is `±e_axis` (both signs reflect identically),
    /// or `usize::MAX` where the reflection leaves the set. The symmetry
    /// boundary looks its ghosts up here instead of searching per query.
    pub fn axis_reflections(&self) -> Vec<usize> {
        let axes = [
            Point::new(1.0, 0.0, 0.0),
            Point::new(0.0, 1.0, 0.0),
            Point::new(0.0, 0.0, 1.0),
        ];
        axes.iter()
            .flat_map(|&normal| {
                (0..self.len()).map(move |d| self.try_reflect(d, normal).unwrap_or(usize::MAX))
            })
            .collect()
    }

    /// Find a direction matching `v` within 1e-9.
    pub fn find(&self, v: Point) -> Option<usize> {
        self.directions.iter().position(|s| (*s - v).norm() < 1e-9)
    }

    /// Total solid angle (must be 4π).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

    #[test]
    fn weights_sum_to_four_pi() {
        for n in [4, 8, 16, 20] {
            let g = AngularGrid::new_2d(n);
            assert!((g.total_weight() - FOUR_PI).abs() < 1e-12);
        }
        let g3 = AngularGrid::new_3d(4, 8);
        assert!((g3.total_weight() - FOUR_PI).abs() < 1e-12);
        assert_eq!(g3.len(), 32);
    }

    #[test]
    fn directions_are_unit_vectors() {
        for g in [AngularGrid::new_2d(20), AngularGrid::new_3d(5, 8)] {
            for s in &g.directions {
                assert!((s.norm() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn first_moment_vanishes() {
        // Σ w s = 0: an isotropic distribution carries no net flux — the
        // property that makes the equilibrium state stationary.
        for g in [AngularGrid::new_2d(20), AngularGrid::new_3d(6, 10)] {
            let mut m = Point::zero();
            for (s, w) in g.directions.iter().zip(&g.weights) {
                m = m + *s * *w;
            }
            assert!(m.norm() < 1e-12, "net first moment {m:?}");
        }
    }

    #[test]
    fn reflection_is_closed_and_involutive_2d() {
        let g = AngularGrid::new_2d(20);
        for normal in [Point::xy(1.0, 0.0), Point::xy(0.0, -1.0)] {
            for d in 0..g.len() {
                let r = g.reflect(d, normal);
                assert_ne!(
                    g.directions[d].dot(normal) > 0.0,
                    g.directions[r].dot(normal) > 0.0,
                    "reflection flips the normal component sign"
                );
                assert_eq!(g.reflect(r, normal), d, "reflection is an involution");
            }
        }
    }

    #[test]
    fn reflection_is_closed_3d_for_axis_walls() {
        let g = AngularGrid::new_3d(4, 8);
        for normal in [
            Point::new(1.0, 0.0, 0.0),
            Point::new(0.0, 1.0, 0.0),
            Point::new(0.0, 0.0, 1.0),
        ] {
            for d in 0..g.len() {
                let r = g.reflect(d, normal);
                assert_eq!(g.reflect(r, normal), d);
            }
        }
    }

    #[test]
    fn axis_reflection_table_matches_reflect() {
        for g in [AngularGrid::new_2d(20), AngularGrid::new_3d(4, 8)] {
            let table = g.axis_reflections();
            assert_eq!(table.len(), 3 * g.len());
            for (axis, e) in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
                .into_iter()
                .enumerate()
            {
                for sign in [1.0, -1.0] {
                    let normal = Point::new(sign * e[0], sign * e[1], sign * e[2]);
                    for d in 0..g.len() {
                        assert_eq!(table[axis * g.len() + d], g.reflect(d, normal));
                    }
                }
            }
        }
    }

    #[test]
    fn axis_reflection_table_marks_directions_that_leave_the_set() {
        // Three directions 120° apart: mirroring x maps none onto another.
        let third = 2.0 * std::f64::consts::PI / 3.0;
        let g = AngularGrid {
            directions: (0..3)
                .map(|k| {
                    Point::xy(
                        (0.3 + third * k as f64).cos(),
                        (0.3 + third * k as f64).sin(),
                    )
                })
                .collect(),
            weights: vec![FOUR_PI / 3.0; 3],
        };
        let table = g.axis_reflections();
        assert!(table[..3].iter().all(|&r| r == usize::MAX));
        assert_eq!(&table[6..], &[0, 1, 2], "z mirror fixes planar directions");
    }

    #[test]
    fn no_direction_is_axis_aligned_2d() {
        let g = AngularGrid::new_2d(20);
        for s in &g.directions {
            assert!(s.x.abs() > 1e-6 && s.y.abs() > 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "even number")]
    fn odd_direction_count_rejected() {
        let _ = AngularGrid::new_2d(7);
    }
}
