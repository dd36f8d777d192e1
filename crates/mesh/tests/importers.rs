//! Golden-fixture round-trip tests for the Gmsh and MEDIT importers.
//!
//! The fixtures are the committed meshes the `.pbte` scenario library
//! references (`examples/meshes/`): a perturbed-quad 2-D die for the
//! hot-spot array scenario, a finer one with more face orientations than
//! the flux table holds for the jittered-array scenario, and a 6×6×3 hex
//! die for the 3-D scenario.
//! They were produced by `regenerate_fixtures` (run with
//! `cargo test -p pbte-mesh --test importers -- --ignored` after changing
//! the writers) so the on-disk bytes pin the writer format: geometry
//! invariants, write→parse round-trips, and a 2-rank partition all have
//! to keep working against files that do not change underneath them.

use pbte_mesh::{gmsh, medit, Mesh, Partition, PartitionMethod, Point, UniformGrid};

const LX: f64 = 525e-6;
const LY: f64 = 525e-6;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/meshes")
        .join(name)
}

fn read_fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing committed fixture {} ({e}); regenerate with \
             `cargo test -p pbte-mesh --test importers -- --ignored`",
            path.display()
        )
    })
}

/// An `n`×`n` quad mesh over 525 µm × 525 µm with every interior vertex
/// displaced by a deterministic pseudo-random offset (≤ ⅛ cell width per
/// axis), so the mesh is genuinely unstructured — no two interior faces
/// share an orientation — while the quads stay convex and the boundary
/// stays a perfect square.
fn perturbed_mesh(n: usize, seed: u64) -> Mesh {
    let h = LX / n as f64;
    let base = UniformGrid::new_2d(n, n, LX, LY).build();
    let mut verts: Vec<Point> = base.vertices.clone();
    for (i, v) in verts.iter_mut().enumerate() {
        let eps = 1e-12;
        let interior = v.x > eps && v.x < LX - eps && v.y > eps && v.y < LY - eps;
        if !interior {
            continue;
        }
        // Two splitmix64-style hashes of the vertex index, mapped to
        // [-1, 1): reproducible across runs, platforms, and reorderings.
        let unit = |seed: u64| -> f64 {
            let mut x = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            ((x >> 40) as f64) / ((1u64 << 23) as f64) - 1.0
        };
        v.x += unit(seed + 1) * 0.125 * h;
        v.y += unit(seed + 2) * 0.125 * h;
    }
    let cells: Vec<Vec<usize>> = (0..base.n_cells())
        .map(|c| base.cell_vertices(c).to_vec())
        .collect();
    let mut mesh = Mesh::from_cells(2, verts, &cells);
    let eps = 0.1 * h;
    mesh.add_boundary_region("left", move |c| c.x < eps);
    mesh.add_boundary_region("right", move |c| c.x > LX - eps);
    mesh.add_boundary_region("bottom", move |c| c.y < eps);
    mesh.add_boundary_region("top", move |c| c.y > LY - eps);
    mesh
}

/// The hot-spot-array die: 12×12, few enough orientations (≈ 600) for
/// the flux's per-orientation coefficient table.
fn perturbed_hotspot_mesh() -> Mesh {
    perturbed_mesh(12, 0)
}

/// The jittered-array die: 24×24, ≈ 2 400 orientations — past the
/// 1 024-class table, so the solver compiles the flux instead.
fn jittered_array_mesh() -> Mesh {
    perturbed_mesh(24, 24)
}

/// The elongated 3-D die: 300 µm × 300 µm × 100 µm hex grid. MEDIT has
/// no named regions; on re-import the grid's left/right/bottom/top/
/// front/back come back as `ref_1` … `ref_6` in that order.
fn die3d_mesh() -> Mesh {
    UniformGrid::new_3d(6, 6, 3, 300e-6, 300e-6, 100e-6).build()
}

/// Rewrite the committed fixtures from the generators above. Ignored:
/// run explicitly after a writer change, then commit the result.
#[test]
#[ignore]
fn regenerate_fixtures() {
    let dir = fixture_path("");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        fixture_path("hotspot_array.msh"),
        gmsh::write_msh(&perturbed_hotspot_mesh()),
    )
    .unwrap();
    std::fs::write(
        fixture_path("jittered_array.msh"),
        gmsh::write_msh(&jittered_array_mesh()),
    )
    .unwrap();
    std::fs::write(fixture_path("die3d.mesh"), medit::write_mesh(&die3d_mesh())).unwrap();
}

/// The property the jittered-array scenario exists for.
#[test]
fn jittered_fixture_has_more_orientations_than_the_flux_table() {
    let m = gmsh::parse_msh(&read_fixture("jittered_array.msh")).unwrap();
    assert_eq!(m.n_cells(), 24 * 24);
    assert!(m.validate().is_empty(), "{:?}", m.validate());
    let orientations: std::collections::BTreeSet<[u64; 2]> = m
        .faces
        .iter()
        .flat_map(|f| [f.normal, -f.normal])
        .map(|n| [n.x.to_bits(), n.y.to_bits()])
        .collect();
    assert!(orientations.len() > 1024, "{}", orientations.len());
}

#[test]
fn gmsh_fixture_geometry() {
    let m = gmsh::parse_msh(&read_fixture("hotspot_array.msh")).unwrap();
    assert_eq!(m.dim, 2);
    assert_eq!(m.n_cells(), 144);
    assert!(m.validate().is_empty(), "{:?}", m.validate());
    assert!(m.cell_volumes.iter().all(|&v| v > 0.0));
    // Interior perturbation cannot change the covered area: the quads
    // still tile the exact 525 µm square.
    assert!((m.total_volume() - LX * LY).abs() < 1e-15);
    for region in ["left", "right", "bottom", "top"] {
        let rid = m
            .region_id(region)
            .unwrap_or_else(|| panic!("fixture lost region {region}"));
        assert_eq!(m.boundary_regions[rid].faces.len(), 12);
    }
    // It really is unstructured: the perturbation moved interior faces.
    let distinct_volumes: std::collections::BTreeSet<u64> =
        m.cell_volumes.iter().map(|v| v.to_bits()).collect();
    assert!(distinct_volumes.len() > 100);
}

#[test]
fn gmsh_fixture_roundtrip() {
    let m = gmsh::parse_msh(&read_fixture("hotspot_array.msh")).unwrap();
    let again = gmsh::parse_msh(&gmsh::write_msh(&m)).unwrap();
    assert_eq!(again.n_cells(), m.n_cells());
    assert_eq!(again.n_faces(), m.n_faces());
    assert_eq!(again.cell_volumes, m.cell_volumes);
    for r in &m.boundary_regions {
        let rid = again.region_id(&r.name).unwrap();
        assert_eq!(again.boundary_regions[rid].faces.len(), r.faces.len());
    }
}

#[test]
fn medit_fixture_geometry() {
    let m = medit::parse_mesh(&read_fixture("die3d.mesh")).unwrap();
    assert_eq!(m.dim, 3);
    assert_eq!(m.n_cells(), 6 * 6 * 3);
    assert!(m.validate().is_empty(), "{:?}", m.validate());
    assert!(m.cell_volumes.iter().all(|&v| v > 0.0));
    assert!((m.total_volume() - 300e-6 * 300e-6 * 100e-6).abs() < 1e-18);
    // left/right/bottom/top are 6×3 faces, front/back 6×6.
    for (region, faces) in [
        ("ref_1", 18),
        ("ref_2", 18),
        ("ref_3", 18),
        ("ref_4", 18),
        ("ref_5", 36),
        ("ref_6", 36),
    ] {
        let rid = m
            .region_id(region)
            .unwrap_or_else(|| panic!("fixture lost region {region}"));
        assert_eq!(m.boundary_regions[rid].faces.len(), faces, "{region}");
    }
}

#[test]
fn medit_fixture_roundtrip() {
    let m = medit::parse_mesh(&read_fixture("die3d.mesh")).unwrap();
    let again = medit::parse_mesh(&medit::write_mesh(&m)).unwrap();
    assert_eq!(again.n_cells(), m.n_cells());
    assert_eq!(again.n_faces(), m.n_faces());
    assert_eq!(again.cell_volumes, m.cell_volumes);
    assert_eq!(again.boundary_regions.len(), m.boundary_regions.len());
}

#[test]
fn fixtures_partition_across_two_ranks() {
    for (mesh, name) in [
        (
            gmsh::parse_msh(&read_fixture("hotspot_array.msh")).unwrap(),
            "gmsh",
        ),
        (
            medit::parse_mesh(&read_fixture("die3d.mesh")).unwrap(),
            "medit",
        ),
    ] {
        for method in [PartitionMethod::Rcb, PartitionMethod::GreedyGraph] {
            let p = Partition::build(&mesh, 2, method);
            assert_eq!(p.n_parts, 2, "{name}");
            let sizes = p.sizes();
            assert_eq!(sizes.iter().sum::<usize>(), mesh.n_cells());
            assert!(sizes.iter().all(|&s| s > 0), "{name}: empty part");
            assert!(p.imbalance() < 1.2, "{name}: imbalance {}", p.imbalance());
            assert!(p.edge_cut(&mesh) > 0);
        }
    }
}

/// A mesh file is outside input: a cell list that is not a mesh must come
/// back as an `Err` naming the cell, never as a panic (ROADMAP item 2(a),
/// its smallest slice — no auto-fix, no fuzzing).
#[test]
fn bad_cells_in_a_mesh_file_are_errors_naming_the_cell() {
    let msh = read_fixture("hotspot_array.msh");
    let medit_text = read_fixture("die3d.mesh");
    let names = |text: &str, cell: usize| text.contains(&format!("cell {cell}:"));

    // One quad of the Gmsh fixture with two adjacent nodes swapped, file
    // element 50 = cell 1: a bow-tie whose net area stays positive, so it
    // builds — and `validate` (which the `.pbte` loader turns into its
    // error) names the cell that no longer closes.
    let swapped = msh.replace("50 3 2 0 0 2 3 16 15", "50 3 2 0 0 2 16 3 15");
    assert_ne!(swapped, msh);
    let problems = gmsh::parse_msh(&swapped).unwrap().validate();
    assert!(
        problems
            .iter()
            .any(|p| p.starts_with("cell 1 is not closed")),
        "{problems:?}"
    );
    // Two opposite nodes swapped make it clockwise: an error at once.
    let good = gmsh::parse_msh(&msh).unwrap();
    let mut cells: Vec<Vec<usize>> = (0..good.n_cells())
        .map(|c| good.cell_vertices(c).to_vec())
        .collect();
    cells[7].swap(0, 2);
    let err = Mesh::try_from_cells(2, good.vertices.clone(), &cells).unwrap_err();
    assert!(
        matches!(err, pbte_mesh::MeshError::BadMeasure { cell: 7, measure } if measure < 0.0),
        "{err}"
    );

    // One duplicated element: its faces would separate three cells.
    let duplicated = msh
        .replace("$Elements\n192\n", "$Elements\n193\n")
        .replace("$EndElements", "193 3 2 0 0 2 3 16 15\n$EndElements");
    let e = gmsh::parse_msh(&duplicated).unwrap_err().to_string();
    assert!(names(&e, 144) && e.contains("more than two cells"), "{e}");

    // One `nan` coordinate (node 15, a corner of cells 0, 1, 12, 13).
    let nan = msh.replace(
        "15 0.000038991111144423485 0.000038437034189701076 0",
        "15 nan 0.000038437034189701076 0",
    );
    assert_ne!(nan, msh);
    let e = gmsh::parse_msh(&nan).unwrap_err().to_string();
    assert!(names(&e, 0) && e.contains("NaN"), "{e}");

    // One inverted hex of the MEDIT fixture (top and bottom quads
    // exchanged), its first: cell 0.
    let inverted = medit_text.replace("1 2 9 8 50 51 58 57 0", "50 51 58 57 1 2 9 8 0");
    assert_ne!(inverted, medit_text);
    let e = medit::parse_mesh(&inverted).unwrap_err().to_string();
    assert!(names(&e, 0) && e.contains("not positive"), "{e}");
}
