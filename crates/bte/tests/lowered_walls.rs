//! Tests that fail if a wall lowering is ever wrong.
//!
//! The isothermal and symmetry walls declare a form (`Fixed`, `Gather`)
//! and the plan lowers them into tables its kernels read instead of
//! calling the closures. The closures stay the definition, so everything
//! here compares against them:
//!
//! * a property test — on random fields and times, for walls on every
//!   axis in both signs (and one inside the alignment tolerance), in 2-D
//!   and 3-D, the lowered ghost equals `ghost_value` bit for bit for every
//!   (face, flat);
//! * a mixed plan — a lowered isothermal wall, lowered symmetry walls and
//!   one wall left to a time-reading closure — agrees across all four
//!   kernel tiers and every target, and counts exactly the closure calls
//!   it still makes;
//! * an oblique symmetry wall stays a callback and reproduces the bits it
//!   produced before any wall was lowered.

use pbte_bte::boundary::{isothermal, symmetry};
use pbte_bte::scenario::{coarse_3d, hotspot_2d, BteConfig, BteProblem};
use pbte_dsl::exec::{CompiledProblem, ExecTarget};
use pbte_dsl::problem::{BoundaryCondition, BoundaryQuery, KernelTier};
use pbte_dsl::{analysis, Fields, GpuStrategy};
use pbte_gpu::DeviceSpec;
use pbte_mesh::{Mesh, Point, UniformGrid};
use proptest::prelude::*;
use std::sync::OnceLock;

/// `grid` with its vertices moved by `map` (same cells, same region names:
/// `region` sees the centroid mapped back to grid coordinates).
fn mapped_grid(
    n: usize,
    l: f64,
    map: impl Fn(Point) -> Point,
    back: impl Fn(Point) -> Point + Copy + 'static,
) -> Mesh {
    let base = UniformGrid::new_2d(n, n, l, l).build();
    let verts: Vec<Point> = base.vertices.iter().map(|&p| map(p)).collect();
    let cells: Vec<Vec<usize>> = (0..base.n_cells())
        .map(|c| base.cell_vertices(c).to_vec())
        .collect();
    let mut mesh = Mesh::from_cells(2, verts, &cells);
    let eps = 1e-9 * l;
    mesh.add_boundary_region("left", move |c| back(c).x < eps);
    mesh.add_boundary_region("right", move |c| back(c).x > l - eps);
    mesh.add_boundary_region("bottom", move |c| back(c).y < eps);
    mesh.add_boundary_region("top", move |c| back(c).y > l - eps);
    mesh
}

/// A plan whose every wall carries `bc(region)`, and those conditions by
/// region id — the oracle side of the comparison.
struct Walled {
    cp: CompiledProblem,
    fields: Fields,
    bcs: Vec<BoundaryCondition>,
}

fn walled(
    bte: BteProblem,
    mesh: Option<Mesh>,
    bc: impl Fn(&BteProblem, &str) -> BoundaryCondition,
) -> Walled {
    let regions: Vec<String> = {
        let mesh = mesh.as_ref().or(bte.problem.mesh.as_deref()).unwrap();
        mesh.boundary_regions
            .iter()
            .map(|r| r.name.clone())
            .collect()
    };
    let bcs: Vec<BoundaryCondition> = regions.iter().map(|r| bc(&bte, r)).collect();
    let i_var = bte.vars.i;
    let mut p = bte.problem;
    if let Some(mesh) = mesh {
        p.mesh(mesh);
    }
    p.boundary_conditions.clear();
    for (region, bc) in regions.iter().zip(&bcs) {
        p.boundary(i_var, region, bc.clone());
    }
    let (cp, fields) = CompiledProblem::compile(p).unwrap();
    Walled { cp, fields, bcs }
}

/// The plans under the property: symmetry on every wall and a
/// position-dependent isothermal on every wall, on a 2-D grid with 12
/// directions, the same grid sheared so that its x walls sit inside the
/// 1e-12 alignment tolerance, and a 3-D grid with `n_polar = 2`,
/// `n_azimuthal = 4`.
fn plans() -> &'static Vec<Walled> {
    static PLANS: OnceLock<Vec<Walled>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let two_d = || hotspot_2d(&BteConfig::small(5, 12, 3, 1));
        let three_d = || coarse_3d(3, 2, 4, 2, 1);
        let l = 525e-6;
        let sheared = || {
            mapped_grid(
                5,
                l,
                |p| Point::xy(p.x + 5e-13 * p.y, p.y),
                |c| Point::xy(c.x - 5e-13 * c.y, c.y),
            )
        };
        let mirror = |bte: &BteProblem, _: &str| symmetry(bte.material.clone());
        let hot = |bte: &BteProblem, region: &str| {
            let bias = region.len() as f64;
            isothermal(bte.material.clone(), move |x| {
                300.0 + bias + 2e4 * (x.x + 2.0 * x.y + 3.0 * x.z)
            })
        };
        let plans = vec![
            walled(two_d(), None, mirror),
            walled(two_d(), None, hot),
            walled(two_d(), Some(sheared()), mirror),
            walled(three_d(), None, mirror),
            walled(three_d(), None, hot),
        ];
        for w in &plans {
            assert!(w.cp.walls.lowered(), "{}", w.cp.walls.label());
            assert_eq!(w.cp.catalog.callback_faces, 0);
        }
        // The sheared walls really are off-axis, inside the tolerance.
        let off_axis = plans[2]
            .cp
            .mesh()
            .faces
            .iter()
            .any(|f| f.is_boundary() && f.normal.x.abs() > 0.5 && f.normal.y != 0.0);
        assert!(off_axis, "the shear must tilt the x walls");
        plans
    })
}

fn xorshift(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lowered image / gather == `ghost_value`, bit for bit, for every
    /// (face, flat), whatever the fields and the time.
    #[test]
    fn lowered_ghosts_equal_the_closures(seed in any::<u64>(), time in 0.0f64..1e-6) {
        let mut state = seed | 1;
        for w in plans() {
            let mut fields = w.fields.clone();
            for v in 0..fields.n_vars() {
                for x in fields.slice_mut(v) {
                    *x = 1e3 * xorshift(&mut state) + 1e-3;
                }
            }
            let mesh = w.cp.mesh();
            for fid in mesh.boundary_faces() {
                let face = &mesh.faces[fid];
                let bc = &w.bcs[face.region.unwrap()];
                for flat in 0..w.cp.n_flat {
                    let lowered = w.cp.lowered_ghost(&fields, fid, flat);
                    let ghost = bc.ghost_value(&BoundaryQuery {
                        position: face.centroid,
                        normal: face.normal,
                        owner_cell: face.owner,
                        idx: &w.cp.idx_of_flat[flat],
                        time,
                        fields: &fields,
                    });
                    prop_assert_eq!(
                        lowered.map(f64::to_bits),
                        Some(ghost.to_bits()),
                        "face {} normal {:?} flat {}", fid, face.normal, flat
                    );
                }
            }
        }
    }
}

/// FNV-style fold of the bits of the given variables.
fn fold(fields: &Fields, vars: &[usize]) -> u64 {
    vars.iter()
        .flat_map(|&v| fields.slice(v).iter())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

const STEPS: usize = 6;

/// The hot spot with its cold bottom wall replaced by a plain declared
/// callback that reads `q.time`: lowered isothermal top, lowered symmetry
/// sides, one callback wall.
fn mixed(tier: KernelTier) -> BteProblem {
    let mut bte = hotspot_2d(&BteConfig::small(6, 8, 3, STEPS));
    let material = bte.material.clone();
    let dt = bte.problem.dt;
    let i_var = bte.vars.i;
    bte.problem
        .boundary_conditions
        .retain(|(_, region, _)| region != "bottom");
    bte.problem.boundary(
        i_var,
        "bottom",
        BoundaryCondition::callback_reading(&[], move |q| {
            material.table().io(q.idx[1], 300.0 + 5.0 * q.time / dt)
        }),
    );
    bte.problem.kernel_tier(tier);
    bte
}

#[test]
fn mixed_plan_agrees_on_every_tier_and_target_and_counts_its_callbacks() {
    let gpu = |strategy| ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy,
    };
    // (target, ranks that each evaluate every callback face)
    let targets = [
        (ExecTarget::CpuSeq, 1),
        (ExecTarget::CpuParallel, 1),
        (ExecTarget::DistCells { ranks: 2 }, 2),
        (
            ExecTarget::DistBands {
                ranks: 2,
                index: "b".into(),
            },
            1,
        ),
        (gpu(GpuStrategy::AsyncBoundary), 1),
    ];
    let mut reference: Option<u64> = None;
    for tier in KernelTier::ALL {
        for (target, ghost_ranks) in &targets {
            let bte = mixed(tier);
            let vars = bte.vars;
            let mut solver = bte.solver(target.clone()).unwrap();
            let cp = &solver.compiled;
            assert_eq!(cp.walls.label(), "fixed:6 gather:12 callback:6");
            assert_eq!(cp.catalog.callback_faces, 6);
            let diags = cp.verify_plan(&solver.target);
            assert!(diags.is_empty(), "{tier:?}/{target:?}: {diags:?}");
            let model = analysis::estimate_cost(cp, &solver.target);
            assert_eq!(model.ghost_per_sweep, (6 * cp.n_flat) as u64);

            let report = solver.solve().unwrap();
            assert_eq!(
                report.work.ghost_evals,
                model.ghost_per_sweep * (STEPS * ghost_ranks) as u64,
                "{tier:?}/{target:?}: callback faces × flats × sweeps, exactly"
            );
            let (_, drift) = analysis::check_cost_drift(&solver.compiled, &solver.target, &report);
            assert!(drift.is_empty(), "{tier:?}/{target:?}: {drift:?}");

            let hash = fold(solver.fields(), &[vars.i, vars.t]);
            assert_eq!(hash, *reference.get_or_insert(hash), "{tier:?}/{target:?}");
        }
    }
}

/// The hot spot turned by 45°: every wall is oblique. With four diagonal
/// directions the specular reflection is closed, so the run is valid — but
/// no axis table can serve the symmetry walls, which stay callbacks (the
/// isothermal walls are lowered all the same). Pinned to the bits of the
/// commit before any wall was lowered.
#[test]
fn oblique_symmetry_walls_stay_callbacks_and_keep_their_bits() {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let mut cfg = BteConfig::small(6, 4, 4, 12);
    cfg.ndirs = 4;
    let bte = hotspot_2d(&cfg);
    let vars = bte.vars;
    let mut p = bte.problem;
    p.mesh(mapped_grid(
        6,
        cfg.lx,
        move |p| Point::xy((p.x - p.y) * h, (p.x + p.y) * h),
        move |c| Point::xy((c.x + c.y) * h, (c.y - c.x) * h),
    ));
    let mut solver = p.build(ExecTarget::CpuSeq).unwrap();
    assert_eq!(
        solver.compiled.walls.label(),
        "fixed:12 gather:0 callback:12"
    );
    assert!(solver.compiled.verify_plan(&solver.target).is_empty());
    let report = solver.solve().unwrap();
    let n_flat = solver.compiled.n_flat as u64;
    assert_eq!(
        report.work.ghost_evals,
        12 * n_flat * 12,
        "symmetry faces only"
    );
    assert_eq!(
        fold(solver.fields(), &[vars.i, vars.t]),
        0xa2af_cafb_1bb3_fcc5,
        "the parent commit's result"
    );
}
