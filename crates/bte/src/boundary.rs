//! Boundary callback functions (the paper's `@callbackFunction`s).
//!
//! Both conditions set the intensity of a ghost cell outside the wall
//! (Eq. 6 of the paper); the generated upwind flux code then produces the
//! correct boundary flux:
//!
//! * **isothermal** — incoming phonons carry the wall's equilibrium
//!   distribution: `ghost = I⁰_b(T_wall(x))`;
//! * **symmetry** — specular reflection: `ghost(d) = I(r(d))` at the same
//!   cell, where `r` reflects the direction across the wall normal.
//!
//! Both declare what their ghost is: an isothermal wall declares its
//! ghost [`BoundaryForm::Fixed`] (a function of the face and the band),
//! a symmetry wall declares it a [`BoundaryForm::Gather`] (a permutation
//! of the intensity's own directions at the owner cell). The plan lowers a
//! declared form once into the tables its kernels read, so on these walls
//! the closures below never run during a sweep — they remain the
//! definition the verifier proves the tables against
//! (`boundary/form-mismatch`), and the host fallback for a symmetry wall
//! that is not axis-aligned.
//!
//! [`BoundaryForm::Fixed`]: pbte_dsl::problem::BoundaryForm::Fixed
//! [`BoundaryForm::Gather`]: pbte_dsl::problem::BoundaryForm::Gather

use crate::material::Material;
use pbte_dsl::problem::{BoundaryCondition, BoundaryQuery};
use pbte_mesh::Point;
use std::sync::{Arc, OnceLock};

/// Isothermal wall with a (possibly position-dependent) temperature.
/// Declared Fixed — the ghost depends only on the wall temperature at the
/// face and the band, never on time or a field — so the plan evaluates it
/// once per (face, band) and it imposes no host-side work or transfer.
pub fn isothermal(
    material: Arc<Material>,
    wall_temperature: impl Fn(Point) -> f64 + Send + Sync + 'static,
) -> BoundaryCondition {
    BoundaryCondition::fixed(move |q: &BoundaryQuery| {
        let b = q.idx[1];
        material.table().io(b, wall_temperature(q.position))
    })
}

/// Gaussian hot spots over a `t_ref` background:
/// `T(x) = t_ref + Σ (t_peak − t_ref)·exp(−2·dist²/width²)` over the
/// centres — each a peak with a 1/e² radius of `width`, the paper's "1/e²
/// distance of 10 µm" profile. A hot-spot wall and a `.pbte` file's
/// initial pulses are both this field.
pub fn gaussian_field(
    t_ref: f64,
    t_peak: f64,
    width: f64,
    centers: Vec<Point>,
) -> impl Fn(Point) -> f64 + Send + Sync + 'static {
    move |p: Point| {
        let mut t = t_ref;
        for &c in &centers {
            let d2 = (p - c).dot(p - c);
            t += (t_peak - t_ref) * (-2.0 * d2 / (width * width)).exp();
        }
        t
    }
}

/// Specular symmetry wall: the ghost intensity for direction `d` is the
/// interior intensity of the reflected direction, at the same cell and
/// band. Declared a Gather of `I` whose source is
/// [`AngularGrid::axis_reflections`], built here: on an axis-aligned wall
/// whose reflection stays in the direction set the plan lowers the wall to
/// a source-flat table, and nothing below runs during a sweep — no name
/// lookup, no normal tested against an axis.
///
/// Any other wall — an oblique normal, or a reflection that leaves the set
/// — stays a callback: it declares its read of `I` (the transfer verifier
/// turns that into the obligation that the unknown returns to the host
/// every step), runs once per boundary face and flat index in every sweep,
/// resolves `I`'s variable id on the first query (a condition belongs to
/// one problem), and goes through [`AngularGrid::reflect`], panic
/// included.
///
/// [`AngularGrid::axis_reflections`]: crate::angles::AngularGrid::axis_reflections
/// [`AngularGrid::reflect`]: crate::angles::AngularGrid::reflect
pub fn symmetry(material: Arc<Material>) -> BoundaryCondition {
    let reflections = material.angles.axis_reflections();
    let (n_dirs, n_bands) = (material.n_dirs(), material.n_bands());
    // The reflection of direction `d` across an axis-aligned wall, where
    // the table has one.
    let tabulated = move |normal: Point, d: usize| {
        wall_axis(normal)
            .map(|axis| reflections[axis * n_dirs + d])
            .filter(|&r| r != usize::MAX)
    };
    let source = tabulated.clone();
    let i_var = OnceLock::new();
    BoundaryCondition::gather(
        &["I"],
        move |q: &BoundaryQuery| {
            let d = q.idx[0];
            let b = q.idx[1];
            let r = tabulated(q.normal, d).unwrap_or_else(|| material.angles.reflect(d, q.normal));
            let i_var = *i_var.get_or_init(|| {
                q.fields
                    .var_id("I")
                    .expect("the BTE unknown is registered as `I`")
            });
            q.fields.value(i_var, q.owner_cell, r * n_bands + b)
        },
        move |normal, idx| source(normal, idx[0]).map(|r| r * n_bands + idx[1]),
    )
}

/// The coordinate axis a unit normal is aligned with (either sign), to
/// within 1e-12 per component.
fn wall_axis(normal: Point) -> Option<usize> {
    let c = [normal.x, normal.y, normal.z];
    (0..3).find(|&k| {
        (c[k].abs() - 1.0).abs() <= 1e-12
            && c[(k + 1) % 3].abs() <= 1e-12
            && c[(k + 2) % 3].abs() <= 1e-12
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;

    #[test]
    fn gaussian_profile_shape() {
        let wall = gaussian_field(300.0, 350.0, 0.1, vec![Point::xy(0.5, 1.0)]);
        // Peak at the center.
        assert!((wall(Point::xy(0.5, 1.0)) - 350.0).abs() < 1e-12);
        // 1/e² at one width away.
        let at_width = wall(Point::xy(0.6, 1.0));
        let expected = 300.0 + 50.0 * (-2.0f64).exp();
        assert!((at_width - expected).abs() < 1e-9);
        // Far away: back to the reference.
        assert!((wall(Point::xy(5.0, 1.0)) - 300.0).abs() < 1e-9);
        // Two centres add their peaks over the one background.
        let two = gaussian_field(
            300.0,
            350.0,
            0.1,
            vec![Point::xy(0.0, 0.0), Point::xy(5.0, 0.0)],
        );
        assert!((two(Point::xy(0.0, 0.0)) - 350.0).abs() < 1e-9);
        assert!((two(Point::xy(5.0, 0.0)) - 350.0).abs() < 1e-9);
    }

    #[test]
    fn isothermal_ghost_is_band_equilibrium() {
        let m = Arc::new(Material::silicon_2d(8, 8, 250.0, 400.0));
        let bc = isothermal(m.clone(), |_| 320.0);
        let fields = dummy_fields(&m);
        assert!(bc.reads().is_empty());
        for b in 0..m.n_bands() {
            let q = BoundaryQuery {
                position: Point::xy(0.0, 0.5),
                normal: Point::xy(-1.0, 0.0),
                owner_cell: 0,
                idx: &[3, b],
                time: 0.0,
                fields: &fields,
            };
            let ghost = bc.ghost_value(&q);
            assert!((ghost - m.table().io(b, 320.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn symmetry_ghost_reads_reflected_direction() {
        let m = Arc::new(Material::silicon_2d(4, 8, 250.0, 400.0));
        let bc = symmetry(m);
        assert_eq!(bc.reads(), ["I"]);
        assert_ghosts_follow_reflect(4, Point::xy(0.0, 1.0));
    }

    /// Ghost of every direction at cell 2 for `normal`, against the value
    /// `reflect` names (fields tagged `100·d + b`).
    fn assert_ghosts_follow_reflect(n_dirs: usize, normal: Point) {
        let m = Arc::new(Material::silicon_2d(n_dirs, 8, 250.0, 400.0));
        let mut fields = dummy_fields(&m);
        let n_bands = m.n_bands();
        for d in 0..m.n_dirs() {
            for b in 0..n_bands {
                fields.set(0, 2, d * n_bands + b, (100 * d + b) as f64);
            }
        }
        let bc = symmetry(m.clone());
        for d in 0..m.n_dirs() {
            let q = BoundaryQuery {
                position: Point::xy(0.5, 1.0),
                normal,
                owner_cell: 2,
                idx: &[d, 1],
                time: 0.0,
                fields: &fields,
            };
            let r = m.angles.reflect(d, normal);
            assert_eq!(bc.ghost_value(&q), (100 * r + 1) as f64);
        }
    }

    #[test]
    fn symmetry_axis_walls_use_the_table_and_agree_with_reflect() {
        for normal in [
            Point::xy(1.0, 0.0),
            Point::xy(-1.0, 0.0),
            Point::xy(0.0, -1.0),
            // Within the 1e-12 alignment tolerance of −x.
            Point::xy(-1.0, 5e-13),
        ] {
            assert!(wall_axis(normal).is_some());
            assert_ghosts_follow_reflect(8, normal);
        }
    }

    #[test]
    fn symmetry_oblique_wall_falls_back_to_reflect() {
        // A 45° wall: four diagonal directions are closed under its
        // reflection, but no axis table can serve it.
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let normal = Point::xy(h, h);
        assert_eq!(wall_axis(normal), None);
        assert_eq!(wall_axis(Point::xy(1.0, 1e-9)), None, "outside tolerance");
        assert_ghosts_follow_reflect(4, normal);
    }

    #[test]
    #[should_panic(expected = "leaves the set")]
    fn symmetry_oblique_wall_outside_the_set_panics_like_reflect() {
        assert_ghosts_follow_reflect(8, Point::xy(0.6, 0.8));
    }

    /// Fields with the unknown `I` laid out like the scenario builder does.
    fn dummy_fields(m: &Material) -> pbte_dsl::Fields {
        use pbte_dsl::entities::{Index, Location, Registry, Variable};
        let mut r = Registry::default();
        r.indices.push(Index {
            name: "d".into(),
            len: m.n_dirs(),
        });
        r.indices.push(Index {
            name: "b".into(),
            len: m.n_bands(),
        });
        r.variables.push(Variable {
            name: "I".into(),
            location: Location::Cell,
            indices: vec![0, 1],
        });
        pbte_dsl::Fields::new(&r, 4)
    }
}
