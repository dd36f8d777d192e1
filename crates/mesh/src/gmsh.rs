//! Gmsh MSH 2.2 ASCII import/export.
//!
//! Finch imports meshes "from a Gmsh or MEDIT formatted mesh file"; this
//! module covers the Gmsh side for the element types the solver uses:
//! 3-node triangles (type 2), 4-node quads (type 3), 4-node tets (type 4)
//! and 8-node hexes (type 5). Lower-dimensional elements tagged with a
//! physical group become named boundary regions.

use crate::geometry::Point;
use crate::import::mesh_from_elements;
use crate::mesh::Mesh;
use std::collections::HashMap;
use std::fmt;

/// Import failure.
#[derive(Debug)]
pub enum GmshError {
    /// Structural problem with the file.
    Format(String),
    /// Number parsing failed.
    Parse(String),
}

impl fmt::Display for GmshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmshError::Format(s) => write!(f, "malformed msh file: {s}"),
            GmshError::Parse(s) => write!(f, "could not parse `{s}`"),
        }
    }
}

impl std::error::Error for GmshError {}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, GmshError> {
    s.parse().map_err(|_| GmshError::Parse(s.to_string()))
}

/// Parse an MSH 2.2 ASCII document into a [`Mesh`].
///
/// Volume elements (dimension matching the mesh) become cells; elements one
/// dimension lower with a physical-group tag become boundary regions named
/// after the physical name when a `$PhysicalNames` section is present, or
/// `region_<tag>` otherwise.
pub fn parse_msh(text: &str) -> Result<Mesh, GmshError> {
    let mut lines = text.lines().map(str::trim);
    let mut nodes: Vec<(usize, Point)> = Vec::new();
    let mut elements: Vec<(u32, i64, Vec<usize>)> = Vec::new(); // (type, physical tag, node ids)
    let mut physical_names: HashMap<i64, String> = HashMap::new();

    while let Some(line) = lines.next() {
        match line {
            "$MeshFormat" => {
                let header = lines
                    .next()
                    .ok_or_else(|| GmshError::Format("missing format line".into()))?;
                let version = header.split_whitespace().next().unwrap_or("");
                if !version.starts_with("2.") {
                    return Err(GmshError::Format(format!(
                        "unsupported msh version {version} (need 2.x ASCII)"
                    )));
                }
                skip_until(&mut lines, "$EndMeshFormat")?;
            }
            "$PhysicalNames" => {
                let n: usize = parse_num(
                    lines
                        .next()
                        .ok_or_else(|| GmshError::Format("missing count".into()))?,
                )?;
                for _ in 0..n {
                    let l = lines
                        .next()
                        .ok_or_else(|| GmshError::Format("truncated PhysicalNames".into()))?;
                    let mut parts = l.split_whitespace();
                    let _dim: i64 = parse_num(parts.next().unwrap_or(""))?;
                    let tag: i64 = parse_num(parts.next().unwrap_or(""))?;
                    let name = parts.collect::<Vec<_>>().join(" ");
                    physical_names.insert(tag, name.trim_matches('"').to_string());
                }
                skip_until(&mut lines, "$EndPhysicalNames")?;
            }
            "$Nodes" => {
                let n: usize = parse_num(
                    lines
                        .next()
                        .ok_or_else(|| GmshError::Format("missing node count".into()))?,
                )?;
                for _ in 0..n {
                    let l = lines
                        .next()
                        .ok_or_else(|| GmshError::Format("truncated Nodes".into()))?;
                    let mut p = l.split_whitespace();
                    let id: usize = parse_num(p.next().unwrap_or(""))?;
                    let x: f64 = parse_num(p.next().unwrap_or(""))?;
                    let y: f64 = parse_num(p.next().unwrap_or(""))?;
                    let z: f64 = parse_num(p.next().unwrap_or(""))?;
                    nodes.push((id, Point::new(x, y, z)));
                }
                skip_until(&mut lines, "$EndNodes")?;
            }
            "$Elements" => {
                let n: usize = parse_num(
                    lines
                        .next()
                        .ok_or_else(|| GmshError::Format("missing element count".into()))?,
                )?;
                for _ in 0..n {
                    let l = lines
                        .next()
                        .ok_or_else(|| GmshError::Format("truncated Elements".into()))?;
                    let mut p = l.split_whitespace();
                    let _id: usize = parse_num(p.next().unwrap_or(""))?;
                    let etype: u32 = parse_num(p.next().unwrap_or(""))?;
                    let ntags: usize = parse_num(p.next().unwrap_or(""))?;
                    // The declared count is read against, never allocated
                    // for; only the first tag (the physical group) is kept.
                    let mut phys = 0;
                    for t in 0..ntags {
                        let tag = p.next().ok_or_else(|| {
                            GmshError::Format(format!(
                                "element line declares {ntags} tags but ends after {t}: `{l}`"
                            ))
                        })?;
                        let tag: i64 = parse_num(tag)?;
                        if t == 0 {
                            phys = tag;
                        }
                    }
                    let node_ids: Result<Vec<usize>, _> = p.map(parse_num::<usize>).collect();
                    elements.push((etype, phys, node_ids?));
                }
                skip_until(&mut lines, "$EndElements")?;
            }
            _ => {} // ignore unknown sections
        }
    }

    if nodes.is_empty() {
        return Err(GmshError::Format("no $Nodes section".into()));
    }

    // Renumber nodes densely: by subtraction when the ids are `1..=n` in
    // file order (what `write_msh` and Gmsh write), through a map otherwise.
    let vertices: Vec<Point> = nodes.iter().map(|(_, p)| *p).collect();
    let ids = || nodes.iter().map(|(id, _)| *id);
    let sparse: Option<HashMap<usize, usize>> =
        (!ids().eq(1..=nodes.len())).then(|| ids().zip(0..).collect());
    let remap = |mut ids: Vec<usize>| -> Result<Vec<usize>, GmshError> {
        for id in &mut ids {
            let dense = match &sparse {
                None => id.checked_sub(1).filter(|&i| i < vertices.len()),
                Some(map) => map.get(id).copied(),
            };
            *id =
                dense.ok_or_else(|| GmshError::Format(format!("element references node {id}")))?;
        }
        Ok(ids)
    };

    // Decide mesh dimension from the highest-dimensional element present.
    let has_3d = elements.iter().any(|(t, _, _)| *t == 4 || *t == 5);
    let dim = if has_3d { 3 } else { 2 };

    let mut cells: Vec<Vec<usize>> = Vec::new();
    let mut boundary_elems: Vec<(i64, Vec<usize>)> = Vec::new();
    for (etype, phys, node_ids) in elements {
        match (dim, etype) {
            (2, 2) | (2, 3) => cells.push(remap(node_ids)?), // tri/quad
            (2, 1) => boundary_elems.push((phys, remap(node_ids)?)), // line
            (3, 4) | (3, 5) => cells.push(remap(node_ids)?), // tet/hex
            (3, 2) | (3, 3) => boundary_elems.push((phys, remap(node_ids)?)), // surface tri/quad
            _ => {}                                          // points and other types ignored
        }
    }
    if cells.is_empty() {
        return Err(GmshError::Format("no volume elements".into()));
    }

    // Orient, build, and attach boundary regions by matching element
    // vertex sets to faces.
    mesh_from_elements(
        dim,
        vertices,
        cells,
        boundary_elems
            .iter()
            .map(|(tag, ids)| (*tag, ids.as_slice())),
        |tag| match physical_names.get(&tag) {
            Some(name) => name.clone(),
            None => format!("region_{tag}"),
        },
    )
    .map_err(GmshError::Format)
}

fn skip_until<'a>(lines: &mut impl Iterator<Item = &'a str>, end: &str) -> Result<(), GmshError> {
    for l in lines {
        if l == end {
            return Ok(());
        }
    }
    Err(GmshError::Format(format!("missing {end}")))
}

/// Serialize a mesh to MSH 2.2 ASCII. Boundary regions are written as
/// physical-tagged line (2-D) or quad/tri (3-D) elements, so
/// `parse_msh(write_msh(m))` reconstructs connectivity and regions.
pub fn write_msh(mesh: &Mesh) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n");

    if !mesh.boundary_regions.is_empty() {
        let bdim = mesh.dim - 1;
        let _ = writeln!(out, "$PhysicalNames\n{}", mesh.boundary_regions.len());
        for (i, r) in mesh.boundary_regions.iter().enumerate() {
            let _ = writeln!(out, "{} {} \"{}\"", bdim, i + 1, r.name);
        }
        out.push_str("$EndPhysicalNames\n");
    }

    let _ = writeln!(out, "$Nodes\n{}", mesh.vertices.len());
    for (i, v) in mesh.vertices.iter().enumerate() {
        let _ = writeln!(out, "{} {} {} {}", i + 1, v.x, v.y, v.z);
    }
    out.push_str("$EndNodes\n");

    let n_boundary: usize = mesh.boundary_regions.iter().map(|r| r.faces.len()).sum();
    let _ = writeln!(out, "$Elements\n{}", mesh.n_cells() + n_boundary);
    let mut eid = 1;
    for (ri, r) in mesh.boundary_regions.iter().enumerate() {
        for &fid in &r.faces {
            let f = &mesh.faces[fid];
            let etype = match (mesh.dim, f.vertices().len()) {
                (2, 2) => 1, // line
                (3, 3) => 2, // triangle
                (3, 4) => 3, // quad
                _ => continue,
            };
            let ids: Vec<String> = f.vertices().map(|v| (v + 1).to_string()).collect();
            let _ = writeln!(
                out,
                "{eid} {etype} 2 {} {} {}",
                ri + 1,
                ri + 1,
                ids.join(" ")
            );
            eid += 1;
        }
    }
    for c in 0..mesh.n_cells() {
        let verts = mesh.cell_vertices(c);
        let etype = match (mesh.dim, verts.len()) {
            (2, 3) => 2,
            (2, 4) => 3,
            (3, 4) => 4,
            (3, 8) => 5,
            (d, n) => panic!("cannot serialize {n}-vertex cell in {d}-D"),
        };
        let ids: Vec<String> = verts.iter().map(|v| (v + 1).to_string()).collect();
        let _ = writeln!(out, "{eid} {etype} 2 0 0 {}", ids.join(" "));
        eid += 1;
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
    fn unknown_sections_are_ignored() {
        let text = TWO_QUADS.replace(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat",
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Comments\nhello\n$EndComments",
        );
        assert!(parse_msh(&text).is_ok());
    }
}
