//! Unstructured FVM mesh representation.
//!
//! A [`Mesh`] stores cells (as vertex loops / vertex lists), unique faces
//! with owner/neighbor connectivity, and the geometric quantities a
//! finite-volume discretization consumes directly: face areas, outward unit
//! normals (oriented from owner to neighbor), face centroids, cell volumes
//! and centroids. Boundary faces carry an optional named region id, matching
//! Finch's `boundary(var, region, ...)` interface.

use crate::digest::Digest;
use crate::geometry::{face_measures, mean, polygon_centroid, polygon_signed_area, Point};

/// A mesh face: an edge in 2-D, a polygon in 3-D.
#[derive(Debug, Clone)]
pub struct Face {
    /// Vertex ids in order around the face, padded with [`NONE`].
    vertices: [u32; 4],
    /// The cell on the normal's negative-to-positive side (always present).
    pub owner: usize,
    /// The cell across the face, absent on the boundary.
    pub neighbor: Option<usize>,
    /// Edge length (2-D) or polygon area (3-D).
    pub area: f64,
    /// Unit normal pointing out of the owner cell.
    pub normal: Point,
    /// Face centroid.
    pub centroid: Point,
    /// Boundary region id (index into [`Mesh::boundary_regions`]).
    pub region: Option<usize>,
}

impl Face {
    /// Vertex ids in order around the face: two in 2-D, three or four in
    /// 3-D.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        let n = self.vertices.iter().position(|&v| v == NONE);
        self.vertices[..n.unwrap_or(4)].iter().map(|&v| v as usize)
    }

    /// Is this a boundary face?
    pub fn is_boundary(&self) -> bool {
        self.neighbor.is_none()
    }

    /// The cell opposite `cell` across this face, if any.
    pub fn other_cell(&self, cell: usize) -> Option<usize> {
        if self.owner == cell {
            self.neighbor
        } else {
            Some(self.owner)
        }
    }

    /// Outward unit normal as seen from `cell`.
    pub fn normal_from(&self, cell: usize) -> Point {
        if self.owner == cell {
            self.normal
        } else {
            -self.normal
        }
    }
}

/// A named set of boundary faces.
#[derive(Debug, Clone)]
pub struct BoundaryRegion {
    pub name: String,
    pub faces: Vec<usize>,
}

/// An unstructured finite-volume mesh.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// Spatial dimension: 2 or 3.
    pub dim: usize,
    /// Vertex coordinates.
    pub vertices: Vec<Point>,
    /// Vertex ids of every cell: the list the mesh was built from.
    cells: Cells,
    /// All unique faces.
    pub faces: Vec<Face>,
    /// CSR offsets: faces of cell `c`.
    cell_face_offsets: Vec<usize>,
    cell_face_ids: Vec<usize>,
    /// Cell measures (area in 2-D, volume in 3-D).
    pub cell_volumes: Vec<f64>,
    /// Cell centroids.
    pub cell_centroids: Vec<Point>,
    /// Named boundary regions.
    pub boundary_regions: Vec<BoundaryRegion>,
    /// Digest of what [`Mesh::try_from_cells`] built the mesh from —
    /// dimension, vertex coordinates (bits) and cell vertex lists — folded
    /// as it read them. Faces, measures and centroids are functions of
    /// those, so they are covered without being read again.
    geometry: Digest,
}

/// Cells as one flat list: the vertex ids of cell `c` are
/// `ids[offsets[c]..offsets[c + 1]]`. [`Mesh::try_from_cells`] takes one by
/// value and keeps it, so a list built up front (by an importer, by the
/// grid generator) is not copied again; other code passes its vertex
/// lists, which are copied into one.
#[derive(Debug, Clone, PartialEq)]
pub struct Cells {
    pub(crate) offsets: Vec<usize>,
    pub(crate) ids: Vec<usize>,
}

impl Default for Cells {
    fn default() -> Self {
        Cells::with_capacity(0, 0)
    }
}

impl Cells {
    /// No cells, with room for `cells` cells of `ids` vertex ids in all.
    pub(crate) fn with_capacity(cells: usize, ids: usize) -> Cells {
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        Cells {
            offsets,
            ids: Vec::with_capacity(ids),
        }
    }

    /// Append a cell.
    pub(crate) fn push(&mut self, cell: &[usize]) {
        self.ids.extend_from_slice(cell);
        self.end_cell();
    }

    /// End the cell whose ids were pushed onto `ids` since the last one.
    pub(crate) fn end_cell(&mut self) {
        self.offsets.push(self.ids.len());
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells' vertex ids, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        self.offsets.windows(2).map(|w| &self.ids[w[0]..w[1]])
    }
}

impl<C: AsRef<[usize]>> From<&Vec<C>> for Cells {
    fn from(cells: &Vec<C>) -> Cells {
        let mut list = Cells::default();
        cells.iter().for_each(|c| list.push(c.as_ref()));
        list
    }
}

/// Why a cell list is not a finite-volume mesh ([`Mesh::try_from_cells`]).
/// `cell` indexes the list the mesh was built from.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshError {
    /// A 3-D `cell` of `nodes` vertices: neither a tetrahedron (4) nor a
    /// hexahedron (8).
    UnsupportedCell { cell: usize, nodes: usize },
    /// A face of `cell` already separates two other cells (a duplicated
    /// or overlapping element).
    SharedFace { cell: usize },
    /// The area (2-D) or volume (3-D) of `cell` is not a positive finite
    /// number: a clockwise or inverted vertex order, a degenerate cell, or
    /// a non-finite coordinate.
    BadMeasure { cell: usize, measure: f64 },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::UnsupportedCell { cell, nodes } => write!(
                f,
                "cell {cell}: a 3-D cell of {nodes} vertices is neither a tetrahedron (4) \
                 nor a hexahedron (8)"
            ),
            MeshError::SharedFace { cell } => {
                write!(f, "cell {cell}: a face is shared by more than two cells")
            }
            MeshError::BadMeasure { cell, measure } => write!(
                f,
                "cell {cell}: measure {measure} is not positive (clockwise or inverted \
                 vertex order, degenerate cell, or non-finite coordinate)"
            ),
        }
    }
}

impl std::error::Error for MeshError {}

/// Local vertex numbers of a hexahedron's faces, outward oriented for the
/// ordering documented on [`Mesh::try_from_cells`]: bottom, top, front,
/// right, back, left.
const HEX_FACES: [[usize; 4]; 6] = [
    [0, 3, 2, 1],
    [4, 5, 6, 7],
    [0, 1, 5, 4],
    [1, 2, 6, 5],
    [2, 3, 7, 6],
    [3, 0, 4, 7],
];

/// The same for a tetrahedron.
const TET_FACES: [[usize; 3]; 4] = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]];

/// Pads a vertex loop of fewer than four ids; sorts after every id.
const NONE: u32 = u32::MAX;

/// The vertex loops of a cell's faces in local order, each outward
/// oriented: a 2-D cell's edges, a 3-D cell's faces by [`HEX_FACES`] or
/// [`TET_FACES`] (a 3-D cell of another arity has none).
fn face_loops(dim: usize, cell: &[usize]) -> impl Iterator<Item = [u32; 4]> + '_ {
    let id = |v: usize| u32::try_from(v).expect("a vertex id indexes `vertices`");
    let n = cell.len();
    let faces = match (dim, n) {
        (2, _) => n,
        (_, 8) => 6,
        (_, 4) => 4,
        _ => 0,
    };
    (0..faces).map(move |f| match (dim, n) {
        (2, _) => [id(cell[f]), id(cell[(f + 1) % n]), NONE, NONE],
        (_, 8) => HEX_FACES[f].map(|l| id(cell[l])),
        _ => {
            let [a, b, c] = TET_FACES[f];
            [id(cell[a]), id(cell[b]), id(cell[c]), NONE]
        }
    })
}

/// A record whose face no earlier record met.
const FIRST: usize = usize::MAX;

impl Mesh {
    /// [`Mesh::try_from_cells`] for cell lists built by the program itself.
    ///
    /// # Panics
    /// If the cells do not form a mesh.
    pub fn from_cells(dim: usize, vertices: Vec<Point>, cells: impl Into<Cells>) -> Mesh {
        Mesh::try_from_cells(dim, vertices, cells)
            .unwrap_or_else(|e| panic!("cells do not form a mesh: {e}"))
    }

    /// Build a mesh from cells given as vertex lists: a [`Cells`] list,
    /// which the mesh keeps, or a `Vec` of lists, which it copies into one.
    ///
    /// 2-D cells are polygons with vertices in counter-clockwise order.
    /// 3-D cells are hexahedra in the Gmsh vertex ordering (bottom quad
    /// `0,1,2,3` counter-clockwise seen from below, then the top quad
    /// `4,5,6,7` above them) or tetrahedra (`0,1,2` counter-clockwise seen
    /// from outside opposite vertex `3`). A cell list that breaks these
    /// rules — as one read from a file may — is an error naming the cell.
    ///
    /// Faces number in first-encounter order over the cells' local faces,
    /// and a cell lists its faces in local order.
    pub fn try_from_cells(
        dim: usize,
        vertices: Vec<Point>,
        cells: impl Into<Cells>,
    ) -> Result<Mesh, MeshError> {
        assert!(dim == 2 || dim == 3, "only 2-D and 3-D meshes supported");
        let cells = cells.into();
        let mut geometry = Digest::new();
        geometry.size(dim);
        geometry.size(vertices.len());
        for v in &vertices {
            geometry.f64(v.x);
            geometry.f64(v.y);
            geometry.f64(v.z);
        }
        // One record per (cell, local face), in that order. A record's
        // vertex loop is read off its cell (`face_loops`) when it is
        // needed, not stored. Match the sides of every face without
        // hashing: a counting sort buckets the records by smallest vertex,
        // each (short) bucket is sorted by (other vertices, record), and
        // the sides of one face end up adjacent, first encounter first.
        let mut cell_face_offsets = Vec::with_capacity(cells.len() + 1);
        cell_face_offsets.push(0);
        let mut ends = vec![0u32; vertices.len()];
        for (ci, cell) in cells.iter().enumerate() {
            geometry.sizes(cell);
            if dim == 3 && cell.len() != 4 && cell.len() != 8 {
                let nodes = cell.len();
                return Err(MeshError::UnsupportedCell { cell: ci, nodes });
            }
            let mut records = cell_face_offsets[ci];
            for ids in face_loops(dim, cell) {
                ends[ids[0].min(ids[1]).min(ids[2]).min(ids[3]) as usize] += 1;
                records += 1;
            }
            cell_face_offsets.push(records);
        }
        let n_records = cell_face_offsets[cells.len()];
        let records = u32::try_from(n_records).expect("fewer than 2^32 cell faces");
        let mut total = 0;
        for end in &mut ends {
            total += std::mem::replace(end, total);
        }
        let mut slots = vec![0u128; n_records];
        let loops = cells.iter().flat_map(|cell| face_loops(dim, cell));
        for (mut key, record) in loops.zip(0..records) {
            key.sort_unstable();
            let at = &mut ends[key[0] as usize];
            slots[*at as usize] = (key[1] as u128) << 96
                | (key[2] as u128) << 64
                | (key[3] as u128) << 32
                | record as u128;
            *at += 1; // leaves `ends[v]` one past bucket `v`
        }
        // `cell_face_ids[r]` is first the record that first met the face
        // of record `r` (`FIRST` if that is `r`), then the face's id.
        let mut cell_face_ids = vec![FIRST; n_records];
        let mut n_faces = 0;
        let mut start = 0;
        for &end in &ends {
            let bucket = &mut slots[start..end as usize];
            start = end as usize;
            bucket.sort_unstable();
            for sides in bucket.chunk_by(|a, b| a >> 32 == b >> 32) {
                n_faces += 1;
                for later in &sides[1..] {
                    cell_face_ids[*later as u32 as usize] = sides[0] as u32 as usize;
                }
            }
        }
        drop(slots);

        // Faces and cell measures, one cell at a time with its points on
        // the stack. A 3-D volume is the divergence theorem's sum over the
        // cell's own outward loops, `(1/3) Σ_f c_f · A_f n_f`, so the
        // loop of a face the cell owns serves both the face and the sum;
        // a 2-D cell's area reads no face, so its faces are measured once.
        let mut faces: Vec<Face> = Vec::with_capacity(n_faces);
        let mut cell_volumes = Vec::with_capacity(cells.len());
        let mut cell_centroids = Vec::with_capacity(cells.len());
        let mut corners: Vec<Point> = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            let mut flux = 0.0;
            for (record, ids) in (cell_face_offsets[ci]..).zip(face_loops(dim, cell)) {
                let first = cell_face_ids[record];
                let fid = if first == FIRST {
                    faces.len()
                } else {
                    cell_face_ids[first]
                };
                if first == FIRST || dim == 3 {
                    let n = ids.iter().position(|&v| v == NONE).unwrap_or(ids.len());
                    let mut pts = [Point::zero(); 4];
                    for (k, &v) in ids[..n].iter().enumerate() {
                        pts[k] = vertices[v as usize];
                    }
                    // One call per length: each is compiled for its points.
                    let (area, normal, centroid) = match n {
                        2 => face_measures(&pts[..2]),
                        3 => face_measures(&pts[..3]),
                        _ => face_measures(&pts),
                    };
                    flux += centroid.dot(normal) * area;
                    if first == FIRST {
                        faces.push(Face {
                            vertices: ids,
                            owner: ci,
                            neighbor: None,
                            area,
                            normal,
                            centroid,
                            region: None,
                        });
                    }
                }
                if first != FIRST && faces[fid].neighbor.replace(ci).is_some() {
                    return Err(MeshError::SharedFace { cell: ci });
                }
                cell_face_ids[record] = fid;
            }
            corners.clear();
            corners.extend(cell.iter().map(|&v| vertices[v]));
            let (measure, centroid) = match dim {
                2 => (polygon_signed_area(&corners), polygon_centroid(&corners)),
                _ => (flux / 3.0, mean(&corners)),
            };
            if !measure.is_finite() || measure <= 0.0 {
                return Err(MeshError::BadMeasure { cell: ci, measure });
            }
            cell_volumes.push(measure);
            cell_centroids.push(centroid);
        }
        Ok(Mesh {
            dim,
            vertices,
            cells,
            faces,
            cell_face_offsets,
            cell_face_ids,
            cell_volumes,
            cell_centroids,
            boundary_regions: Vec::new(),
            geometry,
        })
    }

    /// Content digest of the mesh as it stands: the geometry it was built
    /// from, and the boundary regions (names and face lists) as they are
    /// now. Two meshes of one digest are the same mesh to everything that
    /// is derived from one — what lets a lowered plan be reused. The
    /// geometry part is fixed at construction; the public geometric fields
    /// are the constructor's to write.
    pub fn digest(&self) -> Digest {
        let mut digest = self.geometry;
        digest.size(self.boundary_regions.len());
        for region in &self.boundary_regions {
            digest.str(&region.name);
            digest.sizes(&region.faces);
        }
        digest
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.cell_volumes.len()
    }

    /// Number of unique faces.
    pub fn n_faces(&self) -> usize {
        self.faces.len()
    }

    /// Vertex ids of a cell.
    pub fn cell_vertices(&self, cell: usize) -> &[usize] {
        let offsets = &self.cells.offsets;
        &self.cells.ids[offsets[cell]..offsets[cell + 1]]
    }

    /// Face ids of a cell.
    pub fn cell_faces(&self, cell: usize) -> &[usize] {
        &self.cell_face_ids[self.cell_face_offsets[cell]..self.cell_face_offsets[cell + 1]]
    }

    /// Ids of cells sharing a face with `cell`.
    pub fn neighbors(&self, cell: usize) -> impl Iterator<Item = usize> + '_ {
        self.cell_faces(cell)
            .iter()
            .filter_map(move |&f| self.faces[f].other_cell(cell))
    }

    /// All boundary face ids.
    pub fn boundary_faces(&self) -> impl Iterator<Item = usize> + '_ {
        self.faces
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_boundary())
            .map(|(i, _)| i)
    }

    /// Define (or extend) a named boundary region from a predicate on face
    /// centroids. Returns the region id. Faces already assigned to a region
    /// are skipped, so regions can be defined in priority order.
    pub fn add_boundary_region(&mut self, name: &str, predicate: impl Fn(Point) -> bool) -> usize {
        let id = match self.boundary_regions.iter().position(|r| r.name == name) {
            Some(i) => i,
            None => {
                self.boundary_regions.push(BoundaryRegion {
                    name: name.to_string(),
                    faces: Vec::new(),
                });
                self.boundary_regions.len() - 1
            }
        };
        let face_count = self.faces.len();
        for fid in 0..face_count {
            let f = &self.faces[fid];
            if f.is_boundary() && f.region.is_none() && predicate(f.centroid) {
                self.faces[fid].region = Some(id);
                self.boundary_regions[id].faces.push(fid);
            }
        }
        id
    }

    /// Region id by name.
    pub fn region_id(&self, name: &str) -> Option<usize> {
        self.boundary_regions.iter().position(|r| r.name == name)
    }

    /// Total measure (area/volume) of the domain.
    pub fn total_volume(&self) -> f64 {
        self.cell_volumes.iter().sum()
    }

    /// Check conservation-critical invariants; returns a list of violation
    /// descriptions (empty = valid). Used by tests and after import.
    // `!(x > 0.0)` is deliberate: it also catches NaN measures, which
    // `x <= 0.0` would let through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, f) in self.faces.iter().enumerate() {
            if !(f.area > 0.0) {
                problems.push(format!("face {i} has non-positive area {}", f.area));
            }
            if (f.normal.norm() - 1.0).abs() > 1e-9 {
                problems.push(format!("face {i} normal is not unit length"));
            }
            if let Some(nb) = f.neighbor {
                // The normal must point from owner to neighbor.
                let d = self.cell_centroids[nb] - self.cell_centroids[f.owner];
                if f.normal.dot(d) <= 0.0 {
                    problems.push(format!("face {i} normal points the wrong way"));
                }
            }
        }
        for (c, &v) in self.cell_volumes.iter().enumerate() {
            if !(v > 0.0) {
                problems.push(format!("cell {c} has non-positive volume {v}"));
            }
        }
        // Divergence-free constant field: sum of area-weighted outward
        // normals over each closed cell must vanish.
        for c in 0..self.n_cells() {
            let mut acc = Point::zero();
            for &fid in self.cell_faces(c) {
                let f = &self.faces[fid];
                acc = acc + f.normal_from(c) * f.area;
            }
            let scale: f64 = self
                .cell_faces(c)
                .iter()
                .map(|&fid| self.faces[fid].area)
                .sum();
            if acc.norm() > 1e-9 * scale {
                problems.push(format!("cell {c} is not closed (Σ A·n = {acc:?})"));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two unit squares sharing an edge: cells (0) left, (1) right.
    fn two_squares() -> Mesh {
        let vs = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(2.0, 0.0),
            Point::xy(0.0, 1.0),
            Point::xy(1.0, 1.0),
            Point::xy(2.0, 1.0),
        ];
        let cells = vec![vec![0, 1, 4, 3], vec![1, 2, 5, 4]];
        Mesh::from_cells(2, vs, &cells)
    }

    #[test]
    fn two_squares_connectivity() {
        let m = two_squares();
        assert_eq!(m.n_cells(), 2);
        assert_eq!(m.n_faces(), 7); // 8 edges - 1 shared
        assert_eq!(m.boundary_faces().count(), 6);
        let nbrs: Vec<usize> = m.neighbors(0).collect();
        assert_eq!(nbrs, vec![1]);
    }

    #[test]
    fn shared_face_normal_points_owner_to_neighbor() {
        let m = two_squares();
        let shared = m
            .faces
            .iter()
            .find(|f| f.neighbor.is_some())
            .expect("one interior face");
        let d = m.cell_centroids[shared.neighbor.unwrap()] - m.cell_centroids[shared.owner];
        assert!(shared.normal.dot(d) > 0.0);
        assert!((shared.normal.norm() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn geometry_is_exact_for_unit_squares() {
        let m = two_squares();
        for v in &m.cell_volumes {
            assert!((v - 1.0).abs() < 1e-14);
        }
        assert!((m.total_volume() - 2.0).abs() < 1e-14);
        assert!((m.cell_centroids[0].x - 0.5).abs() < 1e-14);
        assert!((m.cell_centroids[1].x - 1.5).abs() < 1e-14);
        for f in &m.faces {
            assert!((f.area - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn validate_accepts_good_mesh() {
        assert!(two_squares().validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "cell 0: measure -1 is not positive (clockwise")]
    fn clockwise_cells_are_rejected() {
        let vs = vec![
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 0.0),
            Point::xy(1.0, 1.0),
            Point::xy(0.0, 1.0),
        ];
        let cells = vec![vec![0, 3, 2, 1]]; // clockwise
        let err = Mesh::try_from_cells(2, vs.clone(), &cells).unwrap_err();
        assert_eq!(
            err,
            MeshError::BadMeasure {
                cell: 0,
                measure: -1.0
            }
        );
        let _ = Mesh::from_cells(2, vs, &cells);
    }

    #[test]
    fn infinite_measures_are_rejected() {
        // One vertex at x = +inf: the shoelace sum is +inf, not NaN.
        let vs = vec![
            Point::xy(-1.0, -1.0),
            Point::xy(f64::INFINITY, -1.0),
            Point::xy(1.0, 1.0),
            Point::xy(-1.0, 1.0),
        ];
        let err = Mesh::try_from_cells(2, vs, &vec![[0, 1, 2, 3]]).unwrap_err();
        let measure = f64::INFINITY;
        assert_eq!(err, MeshError::BadMeasure { cell: 0, measure });
    }

    #[test]
    fn boundary_regions_assign_by_priority() {
        let mut m = two_squares();
        let left = m.add_boundary_region("left", |c| c.x < 1e-12);
        let rest = m.add_boundary_region("rest", |_| true);
        assert_eq!(m.boundary_regions[left].faces.len(), 1);
        assert_eq!(m.boundary_regions[rest].faces.len(), 5);
        assert_eq!(m.region_id("left"), Some(left));
        assert_eq!(m.region_id("missing"), None);
        // Every boundary face got exactly one region.
        for fid in m.boundary_faces().collect::<Vec<_>>() {
            assert!(m.faces[fid].region.is_some());
        }
    }

    #[test]
    fn digest_names_the_geometry_and_the_regions() {
        let base = two_squares();
        assert_eq!(base.digest(), two_squares().digest());

        // One coordinate, one ulp.
        let mut vs = base.vertices.clone();
        vs[4].y = f64::from_bits(vs[4].y.to_bits() + 1);
        let cells = vec![[0, 1, 4, 3], [1, 2, 5, 4]];
        assert_ne!(base.digest(), Mesh::from_cells(2, vs, &cells).digest());

        // The same cells in another order.
        let swapped = vec![[1, 2, 5, 4], [0, 1, 4, 3]];
        let other = Mesh::from_cells(2, base.vertices.clone(), &swapped);
        assert_ne!(base.digest(), other.digest());

        // Regions count as they stand when asked.
        let mut named = two_squares();
        named.add_boundary_region("left", |c| c.x < 1e-12);
        assert_ne!(base.digest(), named.digest());
        let mut renamed = two_squares();
        renamed.add_boundary_region("west", |c| c.x < 1e-12);
        assert_ne!(named.digest(), renamed.digest());
    }

    #[test]
    fn single_hex_cell() {
        let p = |x: f64, y: f64, z: f64| Point::new(x, y, z);
        let vs = vec![
            p(0., 0., 0.),
            p(2., 0., 0.),
            p(2., 1., 0.),
            p(0., 1., 0.),
            p(0., 0., 3.),
            p(2., 0., 3.),
            p(2., 1., 3.),
            p(0., 1., 3.),
        ];
        let m = Mesh::from_cells(3, vs, &vec![vec![0, 1, 2, 3, 4, 5, 6, 7]]);
        assert_eq!(m.n_faces(), 6);
        assert!((m.cell_volumes[0] - 6.0).abs() < 1e-12);
        assert!(m.validate().is_empty());
        // All normals outward: dot with (centroid - cell centroid) > 0.
        let cc = m.cell_centroids[0];
        for f in &m.faces {
            assert!(f.normal.dot(f.centroid - cc) > 0.0);
        }
    }

    #[test]
    fn two_tets_share_a_face() {
        let p = |x: f64, y: f64, z: f64| Point::new(x, y, z);
        let vs = vec![
            p(0., 0., 0.),
            p(1., 0., 0.),
            p(0., 1., 0.),
            p(0., 0., 1.),
            p(1., 1., 1.),
        ];
        let cells = vec![vec![0, 1, 2, 3], vec![1, 2, 3, 4]];
        let m = Mesh::from_cells(3, vs, &cells);
        assert_eq!(m.n_cells(), 2);
        assert_eq!(m.n_faces(), 7);
        assert_eq!(m.neighbors(0).collect::<Vec<_>>(), vec![1]);
        for v in &m.cell_volumes {
            assert!(*v > 0.0);
        }
    }
}
