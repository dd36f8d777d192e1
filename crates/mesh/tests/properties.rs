//! Property-based tests for mesh geometry and partitioning.

use proptest::prelude::*;

use pbte_mesh::geometry::Point;
use pbte_mesh::grid::UniformGrid;
use pbte_mesh::partition::{partition_bands, Partition};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any uniform grid passes the mesh validity checks: positive measures,
    /// unit normals oriented owner→neighbor, and closed cells (Σ A·n = 0,
    /// the discrete divergence theorem the FVM update relies on).
    #[test]
    fn grids_are_valid(
        nx in 1usize..12,
        ny in 1usize..12,
        lx in 0.1f64..10.0,
        ly in 0.1f64..10.0,
    ) {
        let m = UniformGrid::new_2d(nx, ny, lx, ly).build();
        prop_assert!(m.validate().is_empty());
        prop_assert_eq!(m.n_cells(), nx * ny);
        let expected = lx * ly;
        prop_assert!((m.total_volume() - expected).abs() < 1e-9 * expected);
    }

    /// Face areas of a cell sum to its perimeter; cell volume equals
    /// dx*dy exactly for uniform quads.
    #[test]
    fn cell_measures_are_exact(
        nx in 1usize..10,
        ny in 1usize..10,
    ) {
        let m = UniformGrid::new_2d(nx, ny, 1.0, 1.0).build();
        let dx = 1.0 / nx as f64;
        let dy = 1.0 / ny as f64;
        for c in 0..m.n_cells() {
            prop_assert!((m.cell_volumes[c] - dx * dy).abs() < 1e-14);
            let perimeter: f64 = m.cell_faces(c).iter().map(|&f| m.faces[f].area).sum();
            prop_assert!((perimeter - 2.0 * (dx + dy)).abs() < 1e-12);
        }
    }

    /// Every partition assigns every cell exactly once, leaves no part
    /// empty, and its interface-face lists are mutually consistent.
    #[test]
    fn partitions_are_well_formed(
        n in 3usize..12,
        n_parts in 1usize..9,
    ) {
        let m = UniformGrid::new_2d(n, n, 1.0, 1.0).build();
        prop_assume!(n_parts <= m.n_cells());
        let p = Partition::build(&m, n_parts);
        let sizes = p.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), m.n_cells());
        prop_assert!(sizes.iter().all(|&s| s > 0));
        // Interface symmetry: each cut face appears in exactly two parts.
        let total: usize = (0..n_parts).map(|q| p.interface_faces(&m, q).len()).sum();
        prop_assert_eq!(total, 2 * p.edge_cut(&m));
        // Parts' cell lists partition 0..n_cells.
        let mut seen = vec![false; m.n_cells()];
        for q in 0..n_parts {
            for c in p.cells_of(q) {
                prop_assert!(!seen[c]);
                seen[c] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Band ranges tile 0..nbands with sizes differing by at most one.
    #[test]
    fn band_ranges_tile(nbands in 1usize..200, n_parts in 1usize..64) {
        prop_assume!(n_parts <= nbands);
        let ranges = partition_bands(nbands, n_parts);
        let mut covered = 0;
        for (i, r) in ranges.iter().enumerate() {
            prop_assert_eq!(r.start, covered);
            covered = r.end;
            let _ = i;
        }
        prop_assert_eq!(covered, nbands);
        let max = ranges.iter().map(|r| r.len()).max().unwrap();
        let min = ranges.iter().map(|r| r.len()).min().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Gmsh writer/parser round-trip preserves cells, measures and regions.
    #[test]
    fn gmsh_roundtrip(nx in 1usize..6, ny in 1usize..6) {
        let m = UniformGrid::new_2d(nx, ny, 1.0, 2.0).build();
        let text = pbte_mesh::gmsh::write_msh(&m);
        let r = pbte_mesh::gmsh::parse_msh(&text).unwrap();
        prop_assert_eq!(r.n_cells(), m.n_cells());
        prop_assert_eq!(r.n_faces(), m.n_faces());
        prop_assert!((r.total_volume() - m.total_volume()).abs() < 1e-12);
        prop_assert!(r.validate().is_empty());
    }
}

#[test]
fn reflection_across_grid_edges_is_geometric() {
    // Specular reflection s' = s - 2(s·n)n at an axis-aligned wall flips
    // exactly one component; this is the geometry the BTE symmetry boundary
    // relies on.
    let m = UniformGrid::new_2d(4, 4, 1.0, 1.0).build();
    let left = m.region_id("left").unwrap();
    for &fid in &m.boundary_regions[left].faces {
        let n = m.faces[fid].normal;
        let s = Point::new(0.6, 0.8, 0.0);
        let reflected = s - n * (2.0 * s.dot(n));
        assert!((reflected.x - -s.x).abs() < 1e-14);
        assert!((reflected.y - s.y).abs() < 1e-14);
    }
}
