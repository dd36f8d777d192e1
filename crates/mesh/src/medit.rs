//! MEDIT `.mesh` ASCII import/export.
//!
//! The second mesh format Finch imports ("a Gmsh or MEDIT formatted mesh
//! file"). The MEDIT format is keyword-sectioned:
//!
//! ```text
//! MeshVersionFormatted 2
//! Dimension 2
//! Vertices
//! <n>
//! x y ref
//! Quadrilaterals
//! <n>
//! v1 v2 v3 v4 ref
//! Edges
//! <n>
//! v1 v2 ref
//! End
//! ```
//!
//! Volume elements (`Triangles`/`Quadrilaterals` in 2-D,
//! `Tetrahedra`/`Hexahedra` in 3-D) become cells; lower-dimensional
//! elements with a nonzero reference become boundary regions named
//! `ref_<n>`.

use crate::geometry::Point;
use crate::import::mesh_from_elements;
use crate::mesh::Mesh;
use std::collections::HashMap;
use std::fmt;

/// Import failure.
#[derive(Debug)]
pub struct MeditError(pub String);

impl fmt::Display for MeditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed MEDIT mesh: {}", self.0)
    }
}

impl std::error::Error for MeditError {}

fn err(msg: impl Into<String>) -> MeditError {
    MeditError(msg.into())
}

/// Parse an ASCII MEDIT document.
pub fn parse_mesh(text: &str) -> Result<Mesh, MeditError> {
    // Tokenize into whitespace-separated words (the format is positional).
    let mut words = text
        .split_whitespace()
        .filter(|w| !w.starts_with('#'))
        .peekable();

    let mut dimension: Option<usize> = None;
    let mut vertices: Vec<Point> = Vec::new();
    // (keyword, vertex count per element) → list of (vertex ids, ref).
    let mut elements: HashMap<&'static str, Vec<(Vec<usize>, i64)>> = HashMap::new();

    while let Some(word) = words.next() {
        match word {
            "MeshVersionFormatted" => {
                words.next().ok_or_else(|| err("missing version"))?;
            }
            "Dimension" => {
                let d: usize = words
                    .next()
                    .ok_or_else(|| err("missing dimension"))?
                    .parse()
                    .map_err(|_| err("bad dimension"))?;
                if d != 2 && d != 3 {
                    return Err(err(format!("unsupported dimension {d}")));
                }
                dimension = Some(d);
            }
            "Vertices" => {
                let dim = dimension.ok_or_else(|| err("Vertices before Dimension"))?;
                let n: usize = words
                    .next()
                    .ok_or_else(|| err("missing vertex count"))?
                    .parse()
                    .map_err(|_| err("bad vertex count"))?;
                for _ in 0..n {
                    let mut coords = [0.0f64; 3];
                    for c in coords.iter_mut().take(dim) {
                        *c = words
                            .next()
                            .ok_or_else(|| err("truncated Vertices"))?
                            .parse()
                            .map_err(|_| err("bad coordinate in Vertices"))?;
                    }
                    // Trailing reference.
                    words.next().ok_or_else(|| err("missing vertex ref"))?;
                    vertices.push(Point::new(coords[0], coords[1], coords[2]));
                }
            }
            kw @ ("Edges" | "Triangles" | "Quadrilaterals" | "Tetrahedra" | "Hexahedra") => {
                let arity = match kw {
                    "Edges" => 2,
                    "Triangles" => 3,
                    "Quadrilaterals" => 4,
                    "Tetrahedra" => 4,
                    "Hexahedra" => 8,
                    _ => unreachable!(),
                };
                let key: &'static str = match kw {
                    "Edges" => "Edges",
                    "Triangles" => "Triangles",
                    "Quadrilaterals" => "Quadrilaterals",
                    "Tetrahedra" => "Tetrahedra",
                    "Hexahedra" => "Hexahedra",
                    _ => unreachable!(),
                };
                let n: usize = words
                    .next()
                    .ok_or_else(|| err("missing element count"))?
                    .parse()
                    .map_err(|_| err("bad element count"))?;
                let list = elements.entry(key).or_default();
                for _ in 0..n {
                    let mut ids = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        let v: usize = words
                            .next()
                            .ok_or_else(|| err(format!("truncated {kw}")))?
                            .parse()
                            .map_err(|_| err(format!("bad vertex id in {kw}")))?;
                        if v == 0 || v > vertices.len() {
                            return Err(err(format!("vertex id {v} out of range")));
                        }
                        ids.push(v - 1); // MEDIT is 1-based
                    }
                    let reference: i64 = words
                        .next()
                        .ok_or_else(|| err(format!("truncated {kw}")))?
                        .parse()
                        .map_err(|_| err(format!("bad element ref in {kw}")))?;
                    list.push((ids, reference));
                }
            }
            "End" => break,
            // Unknown sections (Corners, Ridges, ...) would need counts to
            // skip; reject explicitly rather than misparse.
            other => return Err(err(format!("unsupported section `{other}`"))),
        }
    }

    let dim = dimension.ok_or_else(|| err("no Dimension"))?;
    if vertices.is_empty() {
        return Err(err("no Vertices"));
    }

    // Cells and boundary elements by dimension.
    // In 2-D, Triangles/Quadrilaterals are cells and Edges are boundary;
    // in 3-D, Tetrahedra/Hexahedra are cells and surface Triangles and
    // Quadrilaterals are boundary.
    let (cell_keys, boundary_keys): (&[&str], &[&str]) = if dim == 2 {
        (&["Triangles", "Quadrilaterals"], &["Edges"])
    } else {
        (
            &["Tetrahedra", "Hexahedra"],
            &["Triangles", "Quadrilaterals"],
        )
    };
    let mut cells: Vec<Vec<usize>> = Vec::new();
    for key in cell_keys {
        for (ids, _) in elements.remove(key).unwrap_or_default() {
            cells.push(ids);
        }
    }
    if cells.is_empty() {
        return Err(err("no volume elements"));
    }

    // Orient (MEDIT does not guarantee CCW), build, and make boundary
    // regions from the referenced lower-dimensional elements.
    let boundary = (boundary_keys.iter())
        .flat_map(|key| elements.get(key).into_iter().flatten())
        .map(|(ids, reference)| (*reference, ids.as_slice()));
    mesh_from_elements(dim, vertices, cells, boundary, |reference| {
        format!("ref_{reference}")
    })
    .map_err(MeditError)
}

/// Serialize a mesh to ASCII MEDIT. Regions are written as referenced
/// edges/faces with the reference equal to `region index + 1` (MEDIT has
/// no named regions; `parse_mesh(write_mesh(m))` restores them as
/// `ref_<n>`).
pub fn write_mesh(mesh: &Mesh) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "MeshVersionFormatted 2");
    let _ = writeln!(out, "Dimension {}", mesh.dim);
    let _ = writeln!(out, "Vertices\n{}", mesh.vertices.len());
    for v in &mesh.vertices {
        if mesh.dim == 2 {
            let _ = writeln!(out, "{} {} 0", v.x, v.y);
        } else {
            let _ = writeln!(out, "{} {} {} 0", v.x, v.y, v.z);
        }
    }

    // Volume elements grouped by arity.
    let mut by_arity: HashMap<usize, Vec<usize>> = HashMap::new();
    for c in 0..mesh.n_cells() {
        by_arity
            .entry(mesh.cell_vertices(c).len())
            .or_default()
            .push(c);
    }
    for (arity, keyword) in [
        (3usize, "Triangles"),
        (
            4,
            if mesh.dim == 2 {
                "Quadrilaterals"
            } else {
                "Tetrahedra"
            },
        ),
        (8, "Hexahedra"),
    ] {
        if let Some(cells) = by_arity.get(&arity) {
            let _ = writeln!(out, "{keyword}\n{}", cells.len());
            for &c in cells {
                let ids: Vec<String> = mesh
                    .cell_vertices(c)
                    .iter()
                    .map(|v| (v + 1).to_string())
                    .collect();
                let _ = writeln!(out, "{} 0", ids.join(" "));
            }
        }
    }

    // Boundary elements with references, grouped by the keyword their
    // arity demands (3-D hex faces are surface Quadrilaterals).
    let mut by_keyword: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (ri, r) in mesh.boundary_regions.iter().enumerate() {
        for &fid in &r.faces {
            let keyword = match (mesh.dim, mesh.faces[fid].vertices().len()) {
                (2, 2) => "Edges",
                (3, 3) => "Triangles",
                (3, 4) => "Quadrilaterals",
                (d, n) => panic!("cannot serialize {n}-vertex boundary face in {d}-D"),
            };
            by_keyword.entry(keyword).or_default().push((fid, ri));
        }
    }
    for (keyword, faces) in &by_keyword {
        let _ = writeln!(out, "{keyword}\n{}", faces.len());
        for &(fid, ri) in faces {
            let ids: Vec<String> = mesh.faces[fid]
                .vertices()
                .map(|v| (v + 1).to_string())
                .collect();
            let _ = writeln!(out, "{} {}", ids.join(" "), ri + 1);
        }
    }
    out.push_str("End\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::UniformGrid;

    const TWO_QUADS: &str = r#"
MeshVersionFormatted 2
Dimension 2
Vertices
6
0 0 0
1 0 0
2 0 0
0 1 0
1 1 0
2 1 0
Quadrilaterals
2
1 2 5 4 0
2 3 6 5 0
Edges
2
1 2 7
2 3 7
End
"#;

    #[test]
    fn parses_two_quads_with_region() {
        let m = parse_mesh(TWO_QUADS).unwrap();
        assert_eq!(m.dim, 2);
        assert_eq!(m.n_cells(), 2);
        assert_eq!(m.n_faces(), 7);
        let rid = m.region_id("ref_7").unwrap();
        assert_eq!(m.boundary_regions[rid].faces.len(), 2);
        assert!(m.validate().is_empty());
    }

    #[test]
    fn fixes_clockwise_elements() {
        let text = TWO_QUADS.replace("1 2 5 4 0", "1 4 5 2 0");
        let m = parse_mesh(&text).unwrap();
        assert!(m.cell_volumes.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn roundtrip_2d_grid() {
        let mut m = UniformGrid::new_2d(5, 3, 2.0, 1.0).build();
        m.boundary_regions.retain(|r| !r.faces.is_empty());
        let text = write_mesh(&m);
        let r = parse_mesh(&text).unwrap();
        assert_eq!(r.n_cells(), m.n_cells());
        assert_eq!(r.n_faces(), m.n_faces());
        assert!((r.total_volume() - m.total_volume()).abs() < 1e-12);
        // Regions come back (renamed ref_<n>) with the same face counts.
        let mut ours: Vec<usize> = m.boundary_regions.iter().map(|r| r.faces.len()).collect();
        let mut theirs: Vec<usize> = r.boundary_regions.iter().map(|r| r.faces.len()).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs);
        assert!(r.validate().is_empty());
    }

    #[test]
    fn roundtrip_3d_grid() {
        let m = UniformGrid::new_3d(2, 2, 2, 1.0, 1.0, 1.0).build();
        let text = write_mesh(&m);
        let r = parse_mesh(&text).unwrap();
        assert_eq!(r.dim, 3);
        assert_eq!(r.n_cells(), 8);
        assert!((r.total_volume() - 1.0).abs() < 1e-12);
        assert!(r.validate().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_mesh("").is_err());
        assert!(parse_mesh("Dimension 4").is_err());
        assert!(parse_mesh("Dimension 2\nVertices\n1\n0 0 0\nEnd").is_err()); // no cells
        assert!(parse_mesh("Dimension 2\nMystery\nEnd").is_err());
        // Out-of-range vertex id.
        let bad = TWO_QUADS.replace("1 2 5 4 0", "1 2 5 9 0");
        assert!(parse_mesh(&bad).is_err());
    }
}
