//! What the Gmsh and MEDIT importers share once a file is parsed into
//! vertices, volume elements and tagged boundary elements.

use crate::geometry::{polygon_signed_area, Point};
use crate::mesh::{BoundaryRegion, Mesh};
use std::collections::HashMap;

/// A face's vertex set as a fixed-width key: at most four ids, sorted and
/// padded with `u32::MAX`, so a mesh face and a boundary element of the
/// file around the same vertices give the same key whatever their order.
/// `None` for more than four ids (no face has them) or an id past `u32`.
fn face_key(ids: impl ExactSizeIterator<Item = usize>) -> Option<[u32; 4]> {
    let mut key = [u32::MAX; 4];
    if ids.len() > key.len() {
        return None;
    }
    for (k, v) in key.iter_mut().zip(ids) {
        *k = u32::try_from(v).ok()?;
    }
    key.sort_unstable();
    Some(key)
}

/// Build the mesh of a parsed file. Neither format guarantees
/// counter-clockwise 2-D elements, so clockwise ones are reversed first.
/// Each boundary element `(tag, vertex ids)` then puts the boundary face
/// around its vertices into the region of its tag — regions number in
/// first-use order and are named by `region_name` — and an element around
/// no boundary face is skipped. The error is [`crate::MeshError`]'s text,
/// saying what its cell numbers count.
pub(crate) fn mesh_from_elements<'a>(
    dim: usize,
    vertices: Vec<Point>,
    mut cells: Vec<Vec<usize>>,
    boundary: impl IntoIterator<Item = (i64, &'a [usize])>,
    region_name: impl Fn(i64) -> String,
) -> Result<Mesh, String> {
    if dim == 2 {
        let mut polygon: Vec<Point> = Vec::new();
        for cell in &mut cells {
            polygon.clear();
            polygon.extend(cell.iter().map(|&v| vertices[v]));
            if polygon_signed_area(&polygon) < 0.0 {
                cell.reverse();
            }
        }
    }
    let mut mesh = Mesh::try_from_cells(dim, vertices, &cells)
        .map_err(|e| format!("{e}; cells are the volume elements in file order, from 0"))?;

    // Boundary faces by key, sorted: a lookup is a binary search.
    let mut by_key: Vec<([u32; 4], usize)> = (mesh.faces.iter().enumerate())
        .filter(|(_, f)| f.is_boundary())
        .filter_map(|(fid, f)| Some((face_key(f.vertices())?, fid)))
        .collect();
    by_key.sort_unstable();
    let mut region_of_tag: HashMap<i64, usize> = HashMap::new();
    for (tag, ids) in boundary {
        let Some(key) = face_key(ids.iter().copied()) else {
            continue;
        };
        let Ok(at) = by_key.binary_search_by_key(&key, |&(k, _)| k) else {
            continue;
        };
        let fid = by_key[at].1;
        let region = *region_of_tag.entry(tag).or_insert_with(|| {
            mesh.boundary_regions.push(BoundaryRegion {
                name: region_name(tag),
                faces: Vec::new(),
            });
            mesh.boundary_regions.len() - 1
        });
        mesh.faces[fid].region = Some(region);
        mesh.boundary_regions[region].faces.push(fid);
    }
    Ok(mesh)
}
