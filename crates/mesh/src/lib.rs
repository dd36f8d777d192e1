//! Finite-volume meshes for the PBTE DSL.
//!
//! This crate is the substrate the paper gets from Finch's mesh utilities,
//! Gmsh, and METIS (via Metis.jl):
//!
//! * [`geometry`] — small 3-vector type and polygon/polyhedron measures;
//! * [`digest`] — the 128-bit content fold a mesh takes of itself while it
//!   is built, and the layers above take of what else lowering reads;
//! * [`mesh`] — the cell/face connectivity and geometric quantities an FVM
//!   discretization needs (owner/neighbor faces, outward normals, areas,
//!   volumes, centroids, named boundary regions);
//! * [`grid`] — uniform structured 2-D quad and 3-D hex grid generators
//!   (the paper's experiments all use a uniform 120×120 grid);
//! * [`gmsh`] / [`medit`] — ASCII Gmsh MSH 2.2 and MEDIT `.mesh`
//!   import/export, the two formats Finch's `mesh("file")` accepts
//!   ("imported from a Gmsh or MEDIT formatted mesh file");
//! * [`partition`] — mesh partitioning: recursive coordinate bisection
//!   (the METIS substitute), band/equation partitioning helpers, and
//!   halo/interface extraction used by the distributed runtime.

pub mod digest;
pub mod geometry;
pub mod gmsh;
pub mod grid;
mod import;
pub mod medit;
pub mod mesh;
pub mod partition;

pub use digest::Digest;
pub use geometry::Point;
pub use grid::UniformGrid;
pub use import::ImportError;
pub use mesh::{Cells, Face, Mesh, MeshError};
pub use partition::{partition_bands, Partition};
