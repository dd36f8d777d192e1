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
use crate::import::{malformed, mesh_from_elements, Elements, ImportError, Scanner};
use crate::mesh::{Cells, Mesh};

/// The next token as a count; the errors name `what`.
fn count(sc: &mut Scanner, what: &str) -> Result<usize, ImportError> {
    let token = sc
        .token()
        .ok_or_else(|| malformed(format!("missing {what}")))?;
    token.parse().map_err(|_| malformed(format!("bad {what}")))
}

/// The element sections read and written, with the vertex count and the
/// dimension of their elements.
const SECTIONS: [(&str, usize, usize); 5] = [
    ("Edges", 2, 1),
    ("Triangles", 3, 2),
    ("Quadrilaterals", 4, 2),
    ("Tetrahedra", 4, 3),
    ("Hexahedra", 8, 3),
];

/// The sections of elements of dimension `dim`, in `SECTIONS` order.
fn of_dim(dim: usize) -> impl Iterator<Item = usize> {
    (0..SECTIONS.len()).filter(move |&s| SECTIONS[s].2 == dim)
}

/// Parse an ASCII MEDIT document. A `#` opens a comment that runs to the
/// end of its line.
pub fn parse_mesh(text: &str) -> Result<Mesh, ImportError> {
    // The format is positional: whitespace-separated tokens.
    let mut sc = Scanner::new(text, true);
    let mut dimension: Option<usize> = None;
    let mut vertices: Vec<Point> = Vec::new();
    // Elements by section, in `SECTIONS` order, vertex ids from 0.
    let mut sections: [Elements; 5] = Default::default();

    while let Some(word) = sc.token() {
        match word {
            "MeshVersionFormatted" => {
                sc.token().ok_or_else(|| malformed("missing version"))?;
            }
            "Dimension" => {
                let d = count(&mut sc, "dimension")?;
                if d != 2 && d != 3 {
                    return Err(malformed(format!("unsupported dimension {d}")));
                }
                dimension = Some(d);
            }
            "Vertices" => {
                let dim = dimension.ok_or_else(|| malformed("Vertices before Dimension"))?;
                for _ in 0..count(&mut sc, "vertex count")? {
                    let mut coords = [0.0f64; 3];
                    for c in coords.iter_mut().take(dim) {
                        let token = sc.token().ok_or_else(|| malformed("truncated Vertices"))?;
                        *c = token
                            .parse()
                            .map_err(|_| malformed("bad coordinate in Vertices"))?;
                    }
                    // Trailing reference.
                    sc.token().ok_or_else(|| malformed("missing vertex ref"))?;
                    vertices.push(Point::new(coords[0], coords[1], coords[2]));
                }
            }
            "End" => break,
            kw => {
                // Unknown sections (Corners, Ridges, ...) would need counts
                // to skip; reject explicitly rather than misparse.
                let s = (SECTIONS.iter().position(|&(name, _, _)| name == kw))
                    .ok_or_else(|| malformed(format!("unsupported section `{kw}`")))?;
                let truncated = || malformed(format!("truncated {kw}"));
                for _ in 0..count(&mut sc, "element count")? {
                    for _ in 0..SECTIONS[s].1 {
                        let v = match sc.unsigned() {
                            Ok(v) => v,
                            Err("") => return Err(truncated()),
                            Err(_) => return Err(malformed(format!("bad vertex id in {kw}"))),
                        };
                        if v == 0 || v > vertices.len() {
                            return Err(malformed(format!("vertex id {v} out of range")));
                        }
                        sections[s].cells.ids.push(v - 1);
                    }
                    let reference = sc.token().ok_or_else(truncated)?.parse();
                    let reference =
                        reference.map_err(|_| malformed(format!("bad element ref in {kw}")));
                    sections[s].end(reference?);
                }
            }
        }
    }

    let dim = dimension.ok_or_else(|| malformed("no Dimension"))?;
    if vertices.is_empty() {
        return Err(malformed("no Vertices"));
    }
    // Cells are the elements of the mesh's dimension, numbered section by
    // section (a section's list is taken whole when it is the first);
    // boundary elements are those one dimension lower.
    let mut cells = Cells::default();
    for s in of_dim(dim) {
        let list = std::mem::take(&mut sections[s].cells);
        match cells.is_empty() {
            true => cells = list,
            false => list.iter().for_each(|cell| cells.push(cell)),
        }
    }
    if cells.is_empty() {
        return Err(malformed("no volume elements"));
    }

    // Orient (MEDIT does not guarantee CCW), build, and make boundary
    // regions from the referenced lower-dimensional elements.
    let boundary = of_dim(dim - 1).map(|s| &sections[s]);
    mesh_from_elements(dim, vertices, cells, boundary, |r| format!("ref_{r}"))
        .map_err(ImportError::Mesh)
}

/// Serialize a mesh to ASCII MEDIT: the cells with reference 0, then each
/// region's faces with reference `region index + 1`, section by section
/// (MEDIT has no named regions; `parse_mesh(write_mesh(m))` restores them
/// as `ref_<n>`). Elements no section has are left out.
pub fn write_mesh(mesh: &Mesh) -> String {
    use std::fmt::Write as _;
    let mut out = format!("MeshVersionFormatted 2\nDimension {}\n", mesh.dim);
    let _ = writeln!(out, "Vertices\n{}", mesh.vertices.len());
    for v in &mesh.vertices {
        let _ = match mesh.dim {
            2 => writeln!(out, "{} {} 0", v.x, v.y),
            _ => writeln!(out, "{} {} {} 0", v.x, v.y, v.z),
        };
    }
    let cells: Vec<_> = (0..mesh.n_cells())
        .map(|c| (mesh.cell_vertices(c).to_vec(), 0))
        .collect();
    let faces: Vec<_> = (mesh.boundary_regions.iter().zip(1..))
        .flat_map(|(r, reference)| r.faces.iter().map(move |&f| (f, reference)))
        .map(|(f, reference)| (mesh.faces[f].vertices().collect::<Vec<_>>(), reference))
        .collect();
    for (dim, elements) in [(mesh.dim, cells), (mesh.dim - 1, faces)] {
        for (keyword, nodes, _) in of_dim(dim).map(|s| SECTIONS[s]) {
            let section: Vec<_> = elements
                .iter()
                .filter(|(ids, _)| ids.len() == nodes)
                .collect();
            if !section.is_empty() {
                let _ = writeln!(out, "{keyword}\n{}", section.len());
            }
            for (ids, reference) in section {
                let ids: Vec<String> = ids.iter().map(|v| (v + 1).to_string()).collect();
                let _ = writeln!(out, "{} {reference}", ids.join(" "));
            }
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
    fn a_comment_runs_to_the_end_of_its_line() {
        let plain = parse_mesh(TWO_QUADS).unwrap();
        let text = format!(
            "# written by a tool v2\n{}",
            TWO_QUADS.replace("Edges\n", "Edges # the walls, 2 of them\n")
        );
        let commented = parse_mesh(&text).unwrap();
        assert_eq!(commented.digest(), plain.digest());
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
