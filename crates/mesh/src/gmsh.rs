//! Gmsh MSH 2.2 ASCII import/export.
//!
//! Finch imports meshes "from a Gmsh or MEDIT formatted mesh file"; this
//! module covers the Gmsh side for the element types the solver uses:
//! 3-node triangles (type 2), 4-node quads (type 3), 4-node tets (type 4)
//! and 8-node hexes (type 5). Lower-dimensional elements tagged with a
//! physical group become named boundary regions.

use crate::geometry::Point;
use crate::import::{malformed, mesh_from_elements, Elements, ImportError, Scanner};
use crate::mesh::Mesh;
use std::collections::HashMap;

fn parse_num<T: std::str::FromStr>(s: Option<&str>) -> Result<T, ImportError> {
    let s = s.unwrap_or("");
    s.parse()
        .map_err(|_| malformed(format!("could not parse `{s}`")))
}

/// An integer the scanner read ([`Scanner::unsigned`]) as a `T`: the
/// value when it fits, else what `T::from_str` makes of the token.
fn int<T: TryFrom<usize> + std::str::FromStr>(read: Result<usize, &str>) -> Result<T, ImportError> {
    match read {
        Ok(v) => T::try_from(v).map_err(|_| malformed(format!("could not parse `{v}`"))),
        Err(token) => parse_num(Some(token)),
    }
}

/// The line after a section header: its count.
fn count(sc: &mut Scanner, missing: &str) -> Result<usize, ImportError> {
    parse_num(Some(sc.line().ok_or_else(|| malformed(missing))?))
}

/// The element types read and written (MSH 2.2), with their dimension and
/// node count: point, line, triangle, quad, tetrahedron, hexahedron.
const TYPES: [(u32, usize, usize); 6] = [
    (15, 0, 1),
    (1, 1, 2),
    (2, 2, 3),
    (3, 2, 4),
    (4, 3, 4),
    (5, 3, 8),
];

/// Parse an MSH 2.2 ASCII document into a [`Mesh`].
///
/// Volume elements (dimension matching the mesh) become cells; elements one
/// dimension lower with a physical-group tag become boundary regions named
/// after the physical name when a `$PhysicalNames` section is present, or
/// `region_<tag>` otherwise. A point, line, triangle, quad, tetrahedron or
/// hexahedron must list the nodes its type has; other types are skipped.
pub fn parse_msh(text: &str) -> Result<Mesh, ImportError> {
    let mut sc = Scanner::new(text, false);
    let mut vertices: Vec<Point> = Vec::new();
    let mut node_ids: Vec<usize> = Vec::new();
    // Elements by dimension, in file order, with their physical tags.
    let mut by_dim: [Elements; 4] = Default::default();
    let mut physical_names: HashMap<i64, String> = HashMap::new();
    // The first element whose node count is not its type's: its dimension,
    // its place in that dimension's list, and what is wrong.
    let mut miscounted: Option<(usize, usize, String)> = None;

    while let Some(line) = sc.line() {
        match line {
            "$MeshFormat" => {
                let header = sc.line().ok_or_else(|| malformed("missing format line"))?;
                let version = header.split_whitespace().next().unwrap_or("");
                if !version.starts_with("2.") {
                    return Err(malformed(format!(
                        "unsupported msh version {version} (need 2.x ASCII)"
                    )));
                }
                skip_until(&mut sc, "$EndMeshFormat")?;
            }
            "$PhysicalNames" => {
                for _ in 0..count(&mut sc, "missing count")? {
                    let l = sc
                        .line()
                        .ok_or_else(|| malformed("truncated PhysicalNames"))?;
                    let mut parts = l.split_whitespace();
                    let _dim: i64 = parse_num(parts.next())?;
                    let tag: i64 = parse_num(parts.next())?;
                    let name = parts.collect::<Vec<_>>().join(" ");
                    physical_names.insert(tag, name.trim_matches('"').to_string());
                }
                skip_until(&mut sc, "$EndPhysicalNames")?;
            }
            "$Nodes" => {
                for _ in 0..count(&mut sc, "missing node count")? {
                    if sc.at == text.len() {
                        return Err(malformed("truncated Nodes"));
                    }
                    node_ids.push(int(sc.unsigned())?);
                    let [x, y, z] = [(); 3].map(|()| parse_num(sc.token()));
                    vertices.push(Point::new(x?, y?, z?));
                    sc.line();
                }
                skip_until(&mut sc, "$EndNodes")?;
            }
            "$Elements" => {
                for _ in 0..count(&mut sc, "missing element count")? {
                    if sc.at == text.len() {
                        return Err(malformed("truncated Elements"));
                    }
                    let start = sc.at;
                    let id: usize = int(sc.unsigned())?;
                    let etype: u32 = int(sc.unsigned())?;
                    let ntags: usize = int(sc.unsigned())?;
                    // The declared count is read against, never allocated
                    // for; only the first tag (the physical group) is kept.
                    let mut phys = 0;
                    for t in 0..ntags {
                        let tag = match sc.unsigned() {
                            Err("") => {
                                let line = text[start..].lines().next().unwrap_or("").trim();
                                return Err(malformed(format!(
                                    "element line declares {ntags} tags but ends after {t}: `{line}`"
                                )));
                            }
                            read => int(read)?,
                        };
                        phys = if t == 0 { tag } else { phys };
                    }
                    // Node ids go straight into the list of the element's
                    // dimension; those of a type not read are checked and
                    // dropped.
                    let shape = TYPES.iter().find(|t| t.0 == etype);
                    let mut list = shape.map(|&(_, dim, _)| &mut by_dim[dim]);
                    let mut nodes = 0;
                    loop {
                        let node: usize = match sc.unsigned() {
                            Err("") => break,
                            read => int(read)?,
                        };
                        list.iter_mut().for_each(|list| list.cells.ids.push(node));
                        nodes += 1;
                    }
                    sc.line();
                    if let (Some(list), Some(&(_, dim, arity))) = (list, shape) {
                        if nodes != arity && miscounted.is_none() {
                            let what = format!(
                                "element {id} of type {etype} lists {nodes} vertices, not {arity}"
                            );
                            miscounted = Some((dim, list.tags.len(), what));
                        }
                        list.end(phys);
                    }
                }
                skip_until(&mut sc, "$EndElements")?;
            }
            _ => {} // ignore unknown sections
        }
    }

    if vertices.is_empty() {
        return Err(malformed("no $Nodes section"));
    }
    // The mesh's dimension is that of its highest-dimensional elements;
    // those one lower bound it.
    let [_, lines, surfaces, solids] = by_dim;
    let (dim, mut cells, mut boundary) = match solids.cells.is_empty() {
        true => (2, surfaces, lines),
        false => (3, solids, surfaces),
    };

    // Renumber nodes densely: by subtraction when the ids are `1..=n` in
    // file order (what `write_msh` and Gmsh write), through a map otherwise.
    let n = vertices.len();
    let sparse: Option<HashMap<usize, usize>> =
        (!node_ids.iter().copied().eq(1..=n)).then(|| node_ids.iter().copied().zip(0..).collect());
    for id in cells.cells.ids.iter_mut().chain(&mut boundary.cells.ids) {
        let dense = match &sparse {
            None => id.checked_sub(1).filter(|&i| i < n),
            Some(map) => map.get(id).copied(),
        };
        *id = dense.ok_or_else(|| malformed(format!("element references node {id}")))?;
    }
    if let Some((d, at, what)) = miscounted {
        return Err(malformed(match d == dim {
            true => format!("cell {at}: {what}; cells are the volume elements in file order"),
            false => what,
        }));
    }
    if cells.cells.is_empty() {
        return Err(malformed("no volume elements"));
    }

    // Orient, build, and attach boundary regions by matching element
    // vertex sets to faces.
    let region_name = |tag| match physical_names.get(&tag) {
        Some(name) => name.clone(),
        None => format!("region_{tag}"),
    };
    mesh_from_elements(dim, vertices, cells.cells, [&boundary], region_name)
        .map_err(ImportError::Mesh)
}

fn skip_until(sc: &mut Scanner, end: &str) -> Result<(), ImportError> {
    while let Some(l) = sc.line() {
        if l == end {
            return Ok(());
        }
    }
    Err(malformed(format!("missing {end}")))
}

/// Serialize a mesh to MSH 2.2 ASCII. Boundary regions are written as
/// physical-tagged line (2-D) or quad/tri (3-D) elements, so
/// `parse_msh(write_msh(m))` reconstructs connectivity and regions.
///
/// # Panics
/// On a cell that is not a triangle, quad, tetrahedron or hexahedron.
pub fn write_msh(mesh: &Mesh) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n");
    if !mesh.boundary_regions.is_empty() {
        let _ = writeln!(out, "$PhysicalNames\n{}", mesh.boundary_regions.len());
        for (i, r) in mesh.boundary_regions.iter().enumerate() {
            let _ = writeln!(out, "{} {} \"{}\"", mesh.dim - 1, i + 1, r.name);
        }
        out.push_str("$EndPhysicalNames\n");
    }
    let _ = writeln!(out, "$Nodes\n{}", mesh.vertices.len());
    for (i, v) in mesh.vertices.iter().enumerate() {
        let _ = writeln!(out, "{} {} {} {}", i + 1, v.x, v.y, v.z);
    }

    // Each region's faces, tagged with its number, then the cells.
    let element = |tag, dim, ids: Vec<usize>| {
        let etype = TYPES.iter().find(|t| (t.1, t.2) == (dim, ids.len()))?.0;
        Some((tag, etype, ids))
    };
    let faces = (mesh.boundary_regions.iter().zip(1..))
        .flat_map(|(r, tag)| r.faces.iter().map(move |&f| (tag, f)))
        .filter_map(|(tag, f)| element(tag, mesh.dim - 1, mesh.faces[f].vertices().collect()));
    let cells = (0..mesh.n_cells()).map(|c| {
        let ids = mesh.cell_vertices(c).to_vec();
        let n = ids.len();
        element(0, mesh.dim, ids).unwrap_or_else(|| panic!("cannot serialize {n}-vertex cell"))
    });
    let elements: Vec<_> = faces.chain(cells).collect();
    let _ = writeln!(out, "$EndNodes\n$Elements\n{}", elements.len());
    for (eid, (tag, etype, ids)) in (1..).zip(elements) {
        let ids: Vec<String> = ids.iter().map(|v| (v + 1).to_string()).collect();
        let _ = writeln!(out, "{eid} {etype} 2 {tag} {tag} {}", ids.join(" "));
    }
    out.push_str("$EndElements\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::UniformGrid;

    const TWO_QUADS: &str = r#"$MeshFormat
2.2 0 8
$EndMeshFormat
$PhysicalNames
1
1 7 "cold_wall"
$EndPhysicalNames
$Nodes
6
1 0 0 0
2 1 0 0
3 2 0 0
4 0 1 0
5 1 1 0
6 2 1 0
$EndNodes
$Elements
4
1 1 2 7 7 1 2
2 1 2 7 7 2 3
3 3 2 0 0 1 2 5 4
4 3 2 0 0 2 3 6 5
$EndElements
"#;

    #[test]
    fn parses_two_quads_with_boundary_region() {
        let m = parse_msh(TWO_QUADS).unwrap();
        assert_eq!(m.dim, 2);
        assert_eq!(m.n_cells(), 2);
        assert_eq!(m.n_faces(), 7);
        let rid = m.region_id("cold_wall").unwrap();
        assert_eq!(m.boundary_regions[rid].faces.len(), 2);
        assert!(m.validate().is_empty());
    }

    #[test]
    fn fixes_clockwise_2d_elements() {
        // Same mesh but with one cell listed clockwise.
        let text = TWO_QUADS.replace("3 3 2 0 0 1 2 5 4", "3 3 2 0 0 1 4 5 2");
        let m = parse_msh(&text).unwrap();
        assert!(m.cell_volumes.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn roundtrip_through_writer() {
        let mut grid_mesh = UniformGrid::new_2d(4, 3, 2.0, 1.0).build();
        // Writer serializes regions; reader must restore them.
        grid_mesh.boundary_regions.retain(|r| !r.faces.is_empty());
        let text = write_msh(&grid_mesh);
        let reparsed = parse_msh(&text).unwrap();
        assert_eq!(reparsed.n_cells(), grid_mesh.n_cells());
        assert_eq!(reparsed.n_faces(), grid_mesh.n_faces());
        assert!((reparsed.total_volume() - grid_mesh.total_volume()).abs() < 1e-12);
        for r in &grid_mesh.boundary_regions {
            let rid = reparsed.region_id(&r.name).unwrap();
            assert_eq!(reparsed.boundary_regions[rid].faces.len(), r.faces.len());
        }
        assert!(reparsed.validate().is_empty());
    }

    #[test]
    fn roundtrip_3d() {
        let m = UniformGrid::new_3d(2, 2, 2, 1.0, 1.0, 1.0).build();
        let text = write_msh(&m);
        let reparsed = parse_msh(&text).unwrap();
        assert_eq!(reparsed.dim, 3);
        assert_eq!(reparsed.n_cells(), 8);
        assert!((reparsed.total_volume() - 1.0).abs() < 1e-12);
        assert!(reparsed.validate().is_empty());
    }

    #[test]
    fn rejects_bad_files() {
        assert!(parse_msh("").is_err());
        assert!(parse_msh("$MeshFormat\n4.1 0 8\n$EndMeshFormat").is_err());
        assert!(parse_msh("$Nodes\n1\n1 0 0 0\n$EndNodes").is_err()); // no elements
    }

    #[test]
    fn an_element_lists_the_nodes_its_type_has() {
        // A quad line with three nodes is not a triangle.
        let short = TWO_QUADS.replace("3 3 2 0 0 1 2 5 4", "3 3 2 0 0 1 2 5");
        let e = parse_msh(&short).unwrap_err().to_string();
        assert!(
            e.contains("cell 0: element 3 of type 3 lists 3 vertices, not 4"),
            "{e}"
        );
        // A boundary line is named by its element id alone.
        let long = TWO_QUADS.replace("2 1 2 7 7 2 3", "2 1 2 7 7 2 3 6");
        let e = parse_msh(&long).unwrap_err().to_string();
        assert!(
            e.ends_with("element 2 of type 1 lists 3 vertices, not 2"),
            "{e}"
        );
        // So is a point, which is no part of the mesh.
        let point = TWO_QUADS
            .replace("$Elements\n4\n", "$Elements\n5\n")
            .replace("$EndElements", "5 15 2 0 0 1 2\n$EndElements");
        let e = parse_msh(&point).unwrap_err().to_string();
        assert!(
            e.ends_with("element 5 of type 15 lists 2 vertices, not 1"),
            "{e}"
        );
    }

    #[test]
    fn unknown_sections_are_ignored() {
        let text = TWO_QUADS.replace(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat",
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Comments\nhello\n$EndComments",
        );
        assert!(parse_msh(&text).is_ok());
    }
}
