//! Uniform structured grid generation.
//!
//! The paper's experiments all run on uniform grids (120×120 quads for the
//! headline scenario). This module mirrors Finch's internal "simple
//! generation utility": it produces a fully unstructured [`Mesh`] so the
//! rest of the pipeline makes no structured-grid assumptions, and assigns
//! the four/six sides as named boundary regions.

use crate::geometry::Point;
use crate::mesh::{Cells, Mesh};

/// Builder for uniform axis-aligned grids.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    /// Cell counts per axis (`nz = 0` means 2-D).
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Physical extents.
    pub lx: f64,
    pub ly: f64,
    pub lz: f64,
}

impl UniformGrid {
    /// A 2-D `nx × ny` grid over `[0,lx] × [0,ly]`.
    pub fn new_2d(nx: usize, ny: usize, lx: f64, ly: f64) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        assert!(lx > 0.0 && ly > 0.0, "extents must be positive");
        UniformGrid {
            nx,
            ny,
            nz: 0,
            lx,
            ly,
            lz: 0.0,
        }
    }

    /// A 3-D `nx × ny × nz` grid over `[0,lx] × [0,ly] × [0,lz]`.
    pub fn new_3d(nx: usize, ny: usize, nz: usize, lx: f64, ly: f64, lz: f64) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid must have at least one cell"
        );
        assert!(lx > 0.0 && ly > 0.0 && lz > 0.0, "extents must be positive");
        UniformGrid {
            nx,
            ny,
            nz,
            lx,
            ly,
            lz,
        }
    }

    /// Is this a 2-D grid?
    pub fn is_2d(&self) -> bool {
        self.nz == 0
    }

    /// Generate the mesh. Boundary regions are named `left` (x=0), `right`
    /// (x=lx), `bottom` (y=0), `top` (y=ly), and for 3-D additionally
    /// `front` (z=0) and `back` (z=lz).
    pub fn build(&self) -> Mesh {
        let mut mesh = if self.is_2d() {
            self.mesh_2d()
        } else {
            self.mesh_3d()
        };
        let eps_x = 1e-9 * self.lx;
        let eps_y = 1e-9 * self.ly;
        let lx = self.lx;
        let ly = self.ly;
        mesh.add_boundary_region("left", move |c| c.x < eps_x);
        mesh.add_boundary_region("right", move |c| c.x > lx - eps_x);
        mesh.add_boundary_region("bottom", move |c| c.y < eps_y);
        mesh.add_boundary_region("top", move |c| c.y > ly - eps_y);
        if !self.is_2d() {
            let eps_z = 1e-9 * self.lz;
            let lz = self.lz;
            mesh.add_boundary_region("front", move |c| c.z < eps_z);
            mesh.add_boundary_region("back", move |c| c.z > lz - eps_z);
        }
        mesh
    }

    fn mesh_2d(&self) -> Mesh {
        let (nx, ny) = (self.nx, self.ny);
        let dx = self.lx / nx as f64;
        let dy = self.ly / ny as f64;
        let mut vertices = Vec::with_capacity((nx + 1) * (ny + 1));
        for j in 0..=ny {
            for i in 0..=nx {
                vertices.push(Point::xy(i as f64 * dx, j as f64 * dy));
            }
        }
        let vid = |i: usize, j: usize| j * (nx + 1) + i;
        let mut cells = Cells::with_capacity(nx * ny, 4 * nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                // Counter-clockwise quad.
                cells.push(&[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]);
            }
        }
        Mesh::from_cells(2, vertices, cells)
    }

    fn mesh_3d(&self) -> Mesh {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let dx = self.lx / nx as f64;
        let dy = self.ly / ny as f64;
        let dz = self.lz / nz as f64;
        let mut vertices = Vec::with_capacity((nx + 1) * (ny + 1) * (nz + 1));
        for k in 0..=nz {
            for j in 0..=ny {
                for i in 0..=nx {
                    vertices.push(Point::new(i as f64 * dx, j as f64 * dy, k as f64 * dz));
                }
            }
        }
        let vid = |i: usize, j: usize, k: usize| (k * (ny + 1) + j) * (nx + 1) + i;
        let mut cells = Cells::with_capacity(nx * ny * nz, 8 * nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    cells.push(&[
                        vid(i, j, k),
                        vid(i + 1, j, k),
                        vid(i + 1, j + 1, k),
                        vid(i, j + 1, k),
                        vid(i, j, k + 1),
                        vid(i + 1, j, k + 1),
                        vid(i + 1, j + 1, k + 1),
                        vid(i, j + 1, k + 1),
                    ]);
                }
            }
        }
        Mesh::from_cells(3, vertices, cells)
    }

    /// Cell index for structured coordinates (row-major, x fastest).
    pub fn cell_index(&self, i: usize, j: usize, k: usize) -> usize {
        if self.is_2d() {
            j * self.nx + i
        } else {
            (k * self.ny + j) * self.nx + i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_2d_counts_and_measures() {
        let g = UniformGrid::new_2d(4, 3, 2.0, 1.5);
        let m = g.build();
        assert_eq!(m.n_cells(), 12);
        assert_eq!(m.n_faces(), 4 * 4 + 5 * 3); // horizontal + vertical edges
        assert!((m.total_volume() - 3.0).abs() < 1e-12);
        let dx = 0.5;
        let dy = 0.5;
        for c in 0..m.n_cells() {
            assert!((m.cell_volumes[c] - dx * dy).abs() < 1e-14);
        }
        assert!(m.validate().is_empty());
    }

    #[test]
    fn grid_2d_boundary_regions() {
        let g = UniformGrid::new_2d(5, 4, 1.0, 1.0);
        let m = g.build();
        let count = |name: &str| m.boundary_regions[m.region_id(name).unwrap()].faces.len();
        assert_eq!(count("left"), 4);
        assert_eq!(count("right"), 4);
        assert_eq!(count("bottom"), 5);
        assert_eq!(count("top"), 5);
        // Every boundary face belongs to exactly one region.
        let total: usize = m.boundary_regions.iter().map(|r| r.faces.len()).sum();
        assert_eq!(total, m.boundary_faces().count());
    }

    #[test]
    fn grid_2d_interior_connectivity() {
        let g = UniformGrid::new_2d(3, 3, 1.0, 1.0);
        let m = g.build();
        // The center cell has 4 neighbors.
        let center = g.cell_index(1, 1, 0);
        assert_eq!(m.neighbors(center).count(), 4);
        // A corner cell has 2.
        assert_eq!(m.neighbors(g.cell_index(0, 0, 0)).count(), 2);
    }

    #[test]
    fn grid_3d_counts_and_measures() {
        let g = UniformGrid::new_3d(3, 2, 2, 3.0, 2.0, 2.0);
        let m = g.build();
        assert_eq!(m.n_cells(), 12);
        assert!((m.total_volume() - 12.0).abs() < 1e-10);
        assert!(m.validate().is_empty());
        let count = |name: &str| m.boundary_regions[m.region_id(name).unwrap()].faces.len();
        assert_eq!(count("left"), 4);
        assert_eq!(count("front"), 6);
        // Interior cell in the middle of a 3x2x2 grid has at most 5 nbrs
        // (no fully interior cell exists here); check a specific one.
        assert_eq!(m.neighbors(g.cell_index(1, 0, 0)).count(), 4);
    }

    #[test]
    fn face_normals_are_axis_aligned() {
        let m = UniformGrid::new_2d(2, 2, 1.0, 1.0).build();
        for f in &m.faces {
            let n = f.normal;
            let axis_aligned = (n.x.abs() - 1.0).abs() < 1e-12 && n.y.abs() < 1e-12
                || (n.y.abs() - 1.0).abs() < 1e-12 && n.x.abs() < 1e-12;
            assert!(axis_aligned, "normal {n:?} not axis aligned");
        }
    }

    #[test]
    fn headline_grid_shape() {
        // The paper's 120x120 grid over 525µm x 525µm (scaled here to 12x12
        // to keep the test fast; geometry is exact either way).
        let l = 525e-6;
        let m = UniformGrid::new_2d(12, 12, l, l).build();
        assert_eq!(m.n_cells(), 144);
        let dx = l / 12.0;
        assert!((m.cell_volumes[0] - dx * dx).abs() < 1e-24);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = UniformGrid::new_2d(0, 3, 1.0, 1.0);
    }
}
