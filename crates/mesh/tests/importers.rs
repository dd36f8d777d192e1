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

use pbte_mesh::{gmsh, medit, Mesh, Partition, Point, UniformGrid};

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
        let p = Partition::build(&mesh, 2);
        assert_eq!(p.n_parts, 2, "{name}");
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), mesh.n_cells());
        assert!(sizes.iter().all(|&s| s > 0), "{name}: empty part");
        assert!(p.imbalance() < 1.2, "{name}: imbalance {}", p.imbalance());
        assert!(p.edge_cut(&mesh) > 0);
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

    // A 3-D element that is neither a tetrahedron nor a hexahedron. Gmsh
    // can reach the builder with one: the hex die with its second hex line
    // cut to six nodes (a prism's worth, still typed as a hexahedron).
    let hexes = gmsh::write_msh(&die3d_mesh());
    let is_hex = |l: &&str| {
        l.split_whitespace().nth(1) == Some("5") && l.split_whitespace().count() == 5 + 8
    };
    let line = hexes.lines().filter(is_hex).nth(1).unwrap();
    let cut: Vec<&str> = line.split_whitespace().take(5 + 6).collect();
    let prism = hexes.replace(line, &cut.join(" "));
    let e = gmsh::parse_msh(&prism).unwrap_err().to_string();
    assert!(names(&e, 1) && e.contains("6 vertices"), "{e}");
    // MEDIT cannot: an element section reads exactly its arity, and a
    // `Prisms` section is refused as unsupported before any cell exists —
    // so the builder's error is pinned on the cell list itself.
    let prisms = medit_text.replace("Hexahedra", "Prisms");
    let e = medit::parse_mesh(&prisms).unwrap_err().to_string();
    assert!(e.contains("unsupported section `Prisms`"), "{e}");
    let die = die3d_mesh();
    let mut cells: Vec<Vec<usize>> = (0..die.n_cells())
        .map(|c| die.cell_vertices(c).to_vec())
        .collect();
    cells[5].truncate(6);
    let err = Mesh::try_from_cells(3, die.vertices.clone(), &cells).unwrap_err();
    assert_eq!(
        err,
        pbte_mesh::MeshError::UnsupportedCell { cell: 5, nodes: 6 }
    );
}

/// A count a file declares is read against, never allocated for (ROADMAP
/// item 7's declared-count bombs, Gmsh half): an element line claiming
/// 2⁶⁴ − 1 tags used to panic with `capacity overflow`, one claiming 10¹²
/// aborted on an 8 TB allocation. Both are format errors quoting the line.
#[test]
fn a_declared_tag_count_is_not_an_allocation() {
    let msh = read_fixture("hotspot_array.msh");
    for bomb in [
        "1 3 18446744073709551615 0 1 2 3 4",
        "1 3 1000000000000 0 1 2 3 4",
    ] {
        let bombed = msh.replace("$Elements\n192\n", &format!("$Elements\n192\n{bomb}\n"));
        assert_ne!(bombed, msh);
        let err = gmsh::parse_msh(&bombed).unwrap_err();
        assert!(
            matches!(err, pbte_mesh::ImportError::Malformed(_)),
            "{err:?}"
        );
        let e = err.to_string();
        assert!(
            e.contains("tags but ends after 5") && e.contains(bomb),
            "{e}"
        );
    }
    // MEDIT: a section's count is read against, never allocated for — a
    // count of 2⁶⁴ − 1, of 10¹², or one more than the entries present runs
    // into the next keyword (or the end of the file) and is a format error
    // naming the section.
    let mesh = read_fixture("die3d.mesh");
    for (section, count, bomb) in [
        ("Vertices", "196", "18446744073709551615"),
        ("Hexahedra", "108", "1000000000000"),
        ("Hexahedra", "108", "109"),
        ("Quadrilaterals", "144", "145"),
    ] {
        let declared = format!("{section}\n{count}\n");
        assert!(mesh.contains(&declared), "{section} declares {count}");
        let bombed = mesh.replace(&declared, &format!("{section}\n{bomb}\n"));
        let err = medit::parse_mesh(&bombed).unwrap_err();
        assert!(err.to_string().contains(section), "{section} {bomb}: {err}");
    }
}

/// Node ids `1..=n` in file order are remapped by subtraction, anything
/// else through the id map — the same mesh bit for bit either way, and a
/// dangling id is the same format error on both paths.
#[test]
fn sparse_node_ids_import_the_same_mesh_as_sequential_ones() {
    let msh = read_fixture("hotspot_array.msh");
    // Every node id (and every reference to it) times ten: sparse ids.
    let mut section = "";
    let sparse: String = (msh.lines())
        .map(|line| {
            if line.starts_with('$') {
                section = line;
                return format!("{line}\n");
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let from = match (section, tokens.len()) {
                ("$Nodes", 4) => 0..1,
                ("$Elements", n) if n > 3 => 3 + tokens[2].parse::<usize>().unwrap()..n,
                _ => 0..0,
            };
            let scaled: Vec<String> = (tokens.iter().enumerate())
                .map(|(i, t)| match from.contains(&i) {
                    true => (t.parse::<usize>().unwrap() * 10).to_string(),
                    false => t.to_string(),
                })
                .collect();
            format!("{}\n", scaled.join(" "))
        })
        .collect();
    assert_ne!(sparse, msh);
    let (a, b) = (
        gmsh::parse_msh(&msh).unwrap(),
        gmsh::parse_msh(&sparse).unwrap(),
    );
    assert_eq!(topology_digest(&a), topology_digest(&b));
    for (text, dangling) in [(&msh, "170"), (&sparse, "1695")] {
        let broken = text.replacen(" 2 0 0 ", &format!(" 2 0 0 {dangling} "), 1);
        let e = gmsh::parse_msh(&broken).unwrap_err().to_string();
        assert!(
            e.contains(&format!("element references node {dangling}")),
            "{e}"
        );
    }
}

/// FNV-1a over everything downstream hangs off: face order, vertex loops,
/// owner/neighbor, the bits of every area, normal, centroid and volume,
/// the cell→face lists and the region face lists.
fn topology_digest(m: &Mesh) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let point = |p: Point| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
    for w in [m.dim, m.vertices.len(), m.n_cells(), m.n_faces()] {
        word(w as u64);
    }
    for f in &m.faces {
        word(f.vertices().len() as u64);
        f.vertices().for_each(|v| word(v as u64));
        word(f.owner as u64);
        word(f.neighbor.map_or(u64::MAX, |c| c as u64));
        word(f.area.to_bits());
        point(f.normal).into_iter().for_each(&mut word);
        point(f.centroid).into_iter().for_each(&mut word);
        word(f.region.map_or(u64::MAX, |r| r as u64));
    }
    for c in 0..m.n_cells() {
        word(m.cell_faces(c).len() as u64);
        m.cell_faces(c).iter().for_each(|&f| word(f as u64));
        word(m.cell_volumes[c].to_bits());
        point(m.cell_centroids[c]).into_iter().for_each(&mut word);
    }
    for r in &m.boundary_regions {
        r.name.bytes().for_each(|b| word(b as u64));
        word(r.faces.len() as u64);
        r.faces.iter().for_each(|&f| word(f as u64));
    }
    h
}

/// Every quad `(i + j)` odd of an `nx × ny` grid cut into two triangles:
/// cells of two arities in one list.
fn tri_quad_mesh() -> Mesh {
    let (nx, ny) = (5, 4);
    let base = UniformGrid::new_2d(nx, ny, 2.0, 1.0).build();
    let mut cells: Vec<Vec<usize>> = Vec::new();
    for c in 0..base.n_cells() {
        let q = base.cell_vertices(c);
        if (c % nx + c / nx) % 2 == 1 {
            cells.push(vec![q[0], q[1], q[2]]);
            cells.push(vec![q[0], q[2], q[3]]);
        } else {
            cells.push(q.to_vec());
        }
    }
    Mesh::from_cells(2, base.vertices.clone(), &cells)
}

/// Every hex of a 3 × 2 × 2 grid cut into six tetrahedra around its main
/// diagonal (triangular faces, matched across hexes).
fn tet_mesh() -> Mesh {
    let base = UniformGrid::new_3d(3, 2, 2, 1.5, 1.0, 0.8).build();
    let mut cells: Vec<Vec<usize>> = Vec::new();
    for c in 0..base.n_cells() {
        let h = base.cell_vertices(c);
        // The six paths 0 → 6 along cube edges, one tetrahedron each.
        for path in [[1, 2], [1, 5], [3, 2], [3, 7], [4, 5], [4, 7]] {
            let mut tet = vec![h[0], h[path[0]], h[path[1]], h[6]];
            let p = |k: usize| base.vertices[tet[k]];
            if (p(1) - p(0)).cross(p(2) - p(0)).dot(p(3) - p(0)) < 0.0 {
                tet.swap(1, 2);
            }
            cells.push(tet);
        }
    }
    Mesh::from_cells(3, base.vertices.clone(), &cells)
}

/// The topology every downstream table hangs off — face ids, cell-face
/// order, region face order and the bits of every measure — is what the
/// builder before the flat pass produced (digests pinned from it).
#[test]
fn topology_and_measures_are_the_pinned_bits() {
    let cases: [(&str, Mesh, u64); 8] = [
        (
            "grid 2-D",
            UniformGrid::new_2d(7, 5, 2.0, 1.5).build(),
            0x1953ac602a55f606,
        ),
        (
            "grid 3-D",
            UniformGrid::new_3d(4, 3, 2, 2.0, 1.5, 1.0).build(),
            0x9860e60d40478995,
        ),
        (
            "hotspot_array.msh",
            gmsh::parse_msh(&read_fixture("hotspot_array.msh")).unwrap(),
            0x1722cea6f0614847,
        ),
        (
            "jittered_array.msh",
            gmsh::parse_msh(&read_fixture("jittered_array.msh")).unwrap(),
            0x1f055234c3235306,
        ),
        (
            "die3d.mesh",
            medit::parse_mesh(&read_fixture("die3d.mesh")).unwrap(),
            0xd78e32b0c7f2ea21,
        ),
        (
            "jittered generator",
            perturbed_mesh(12, 0),
            0x1722cea6f0614847,
        ),
        ("triangles and quads", tri_quad_mesh(), 0x5a97f065452da0a8),
        ("tetrahedra", tet_mesh(), 0x37e72fb10aa4a2f4),
    ];
    for (name, mesh, pinned) in &cases {
        assert!(mesh.validate().is_empty(), "{name}: {:?}", mesh.validate());
        let digest = topology_digest(mesh);
        assert_eq!(digest, *pinned, "{name}: 0x{digest:016x}");
    }
}
