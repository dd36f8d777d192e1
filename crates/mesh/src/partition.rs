//! Mesh and equation partitioning.
//!
//! The paper contrasts two ways of dividing the BTE's work (§III-C, Fig 3):
//!
//! * **cell-based**: partition the mesh among processes; every process owns
//!   all directions/bands for its cells and exchanges halo values of
//!   `I[d,b]` across partition interfaces each step;
//! * **band-based** (equation partitioning): every process owns all cells
//!   for a slice of the bands; no halo exchange is needed, only a reduction
//!   of per-cell energy for the temperature update.
//!
//! This module provides the mesh-side machinery: the partitioner standing
//! in for METIS — recursive coordinate bisection ([`Partition::build`]) —
//! plus interface/halo extraction and quality statistics, and the trivial
//! contiguous band partitioner ([`partition_bands`]).

use crate::mesh::Mesh;

/// A cell → part assignment.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Number of parts.
    pub n_parts: usize,
    /// `part[cell]` is the owning part.
    pub cell_part: Vec<u32>,
}

impl Partition {
    /// Partition a mesh into `n_parts` by recursive coordinate bisection:
    /// split the cells at the median coordinate of the longest extent.
    /// Compact, balanced parts on the paper's uniform grids.
    pub fn build(mesh: &Mesh, n_parts: usize) -> Partition {
        assert!(n_parts > 0, "need at least one part");
        assert!(
            n_parts <= mesh.n_cells(),
            "more parts ({n_parts}) than cells ({})",
            mesh.n_cells()
        );
        let cell_part = rcb(mesh, n_parts);
        Partition { n_parts, cell_part }
    }

    /// A single-part partition (sequential runs).
    pub fn trivial(mesh: &Mesh) -> Partition {
        Partition {
            n_parts: 1,
            cell_part: vec![0; mesh.n_cells()],
        }
    }

    /// Cells owned by `part`.
    pub fn cells_of(&self, part: usize) -> Vec<usize> {
        self.cell_part
            .iter()
            .enumerate()
            .filter(|(_, &p)| p as usize == part)
            .map(|(c, _)| c)
            .collect()
    }

    /// Part sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_parts];
        for &p in &self.cell_part {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Load imbalance: `max_size * n_parts / n_cells` (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let sizes = self.sizes();
        let max = *sizes.iter().max().expect("n_parts > 0") as f64;
        max * self.n_parts as f64 / self.cell_part.len() as f64
    }

    /// Number of interior faces whose two cells live in different parts
    /// (the edge cut, which is what METIS minimizes).
    pub fn edge_cut(&self, mesh: &Mesh) -> usize {
        mesh.faces
            .iter()
            .filter(|f| {
                f.neighbor
                    .is_some_and(|nb| self.cell_part[f.owner] != self.cell_part[nb])
            })
            .count()
    }

    /// Interface faces of `part`: faces with exactly one side owned by
    /// `part`. These determine the halo exchange volume per step.
    pub fn interface_faces(&self, mesh: &Mesh, part: usize) -> Vec<usize> {
        let p = part as u32;
        mesh.faces
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.neighbor.is_some_and(|nb| {
                    let po = self.cell_part[f.owner];
                    let pn = self.cell_part[nb];
                    (po == p) != (pn == p)
                })
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Contiguous band ranges for equation partitioning: `nbands` bands split
/// as evenly as possible over `n_parts` processes. Returns per-part
/// `start..end` ranges covering `0..nbands` exactly once.
pub fn partition_bands(nbands: usize, n_parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(n_parts > 0 && n_parts <= nbands, "1 <= n_parts <= nbands");
    let base = nbands / n_parts;
    let extra = nbands % n_parts;
    let mut ranges = Vec::with_capacity(n_parts);
    let mut start = 0;
    for p in 0..n_parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Recursive coordinate bisection.
fn rcb(mesh: &Mesh, n_parts: usize) -> Vec<u32> {
    let mut assignment = vec![0u32; mesh.n_cells()];
    let all: Vec<usize> = (0..mesh.n_cells()).collect();
    rcb_recurse(mesh, &all, 0, n_parts, &mut assignment);
    assignment
}

fn rcb_recurse(
    mesh: &Mesh,
    cells: &[usize],
    first_part: u32,
    n_parts: usize,
    assignment: &mut [u32],
) {
    if n_parts == 1 {
        for &c in cells {
            assignment[c] = first_part;
        }
        return;
    }
    // Split parts (and cells) proportionally.
    let left_parts = n_parts / 2;
    let right_parts = n_parts - left_parts;
    let split_at = cells.len() * left_parts / n_parts;

    // Sort along the longest extent of this cell set.
    let axis = {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for &c in cells {
            let p = mesh.cell_centroids[c];
            for a in 0..3 {
                lo[a] = lo[a].min(p.component(a));
                hi[a] = hi[a].max(p.component(a));
            }
        }
        let mut best = 0;
        for a in 1..3 {
            if hi[a] - lo[a] > hi[best] - lo[best] {
                best = a;
            }
        }
        best
    };
    let mut sorted: Vec<usize> = cells.to_vec();
    sorted.sort_by(|&a, &b| {
        mesh.cell_centroids[a]
            .component(axis)
            .partial_cmp(&mesh.cell_centroids[b].component(axis))
            .expect("finite centroid coordinates")
            // Tie-break on the cell id to keep the split deterministic.
            .then(a.cmp(&b))
    });
    let (left, right) = sorted.split_at(split_at);
    rcb_recurse(mesh, left, first_part, left_parts, assignment);
    rcb_recurse(
        mesh,
        right,
        first_part + left_parts as u32,
        right_parts,
        assignment,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::UniformGrid;

    fn grid(n: usize) -> Mesh {
        UniformGrid::new_2d(n, n, 1.0, 1.0).build()
    }

    #[test]
    fn every_cell_assigned_exactly_once() {
        let m = grid(10);
        for n_parts in [1, 2, 3, 4, 7, 16] {
            let p = Partition::build(&m, n_parts);
            assert_eq!(p.cell_part.len(), 100);
            assert!(p.cell_part.iter().all(|&x| (x as usize) < n_parts));
            let total: usize = p.sizes().iter().sum();
            assert_eq!(total, 100);
            // No empty parts.
            assert!(p.sizes().iter().all(|&s| s > 0), "{n_parts}");
        }
    }

    #[test]
    fn balance_is_tight() {
        let m = grid(12);
        for n_parts in [2, 4, 6, 9] {
            let p = Partition::build(&m, n_parts);
            assert!(
                p.imbalance() < 1.35,
                "{n_parts} parts: imbalance {}",
                p.imbalance()
            );
        }
    }

    #[test]
    fn rcb_halves_a_grid_cleanly() {
        let m = grid(8);
        let p = Partition::build(&m, 2);
        assert_eq!(p.sizes(), vec![32, 32]);
        // A straight cut of an 8x8 grid crosses exactly 8 faces.
        assert_eq!(p.edge_cut(&m), 8);
    }

    #[test]
    fn edge_cut_is_consistent_with_interfaces() {
        let m = grid(8);
        let p = Partition::build(&m, 4);
        // Each interface face is counted once in edge_cut and appears in
        // exactly two parts' interface lists.
        let per_part: usize = (0..4).map(|q| p.interface_faces(&m, q).len()).sum();
        assert_eq!(per_part, 2 * p.edge_cut(&m));
    }

    #[test]
    fn band_partition_covers_range() {
        // The paper's 55 bands over various process counts.
        for n_parts in [1, 2, 5, 10, 20, 40, 55] {
            let ranges = partition_bands(55, n_parts);
            assert_eq!(ranges.len(), n_parts);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, 55);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let max = ranges.iter().map(|r| r.len()).max().unwrap();
            let min = ranges.iter().map(|r| r.len()).min().unwrap();
            assert!(max - min <= 1, "uneven band split at {n_parts}");
        }
    }

    #[test]
    #[should_panic(expected = "n_parts <= nbands")]
    fn band_partition_rejects_too_many_parts() {
        let _ = partition_bands(55, 56);
    }

    #[test]
    fn trivial_partition() {
        let m = grid(3);
        let p = Partition::trivial(&m);
        assert_eq!(p.n_parts, 1);
        assert_eq!(p.edge_cut(&m), 0);
        assert_eq!(p.cells_of(0).len(), 9);
    }

    #[test]
    fn rcb_is_deterministic() {
        let m = grid(9);
        let a = Partition::build(&m, 5);
        let b = Partition::build(&m, 5);
        assert_eq!(a.cell_part, b.cell_part);
    }

    #[test]
    fn works_in_3d() {
        let m = UniformGrid::new_3d(4, 4, 4, 1.0, 1.0, 1.0).build();
        let p = Partition::build(&m, 8);
        assert_eq!(p.sizes(), vec![8; 8]);
        // An even octant split of a 4^3 grid cuts 3 * 16 faces.
        assert_eq!(p.edge_cut(&m), 48);
    }
}
