//! The plan's lowered walls.
//!
//! A boundary condition whose ghost is less than an arbitrary function —
//! a constant, a declared [`BoundaryForm::Fixed`] closure, a declared
//! [`BoundaryForm::Gather`] permutation — is lowered **once**, when the
//! [`CompiledProblem`] is built, into three plan-owned tables:
//!
//! * `read` — per boundary slot, what the slot reads: a **row** of the
//!   ghost values, or (with [`GATHER`] set) a gather **column**;
//! * `image` — the ghost values of the plan, one row per slot that reads
//!   one, **flat-major** (`flat · n_rows + row`, [`Walls::at`]): `Value`
//!   and Fixed rows evaluated once, the rows of callback slots zero;
//! * `columns` — the source flat of every flat, one column per distinct
//!   (wall, normal) a Gather wall serves (`column · n_flat + flat`).
//!
//! Every flux evaluator reads a boundary face through one rule,
//! [`Walls::ghost_read`]: a row → `ghosts[flat · n_rows + row]`, a column →
//! the unknown at the owner cell and the column's source flat. Only the
//! slots in `callback_slots` — a [`BoundaryCondition::Callback`] without a
//! form, a Gather wall whose `source` cannot serve the face's normal —
//! still run their closure on the host, once per (slot, owned flat) and
//! sweep, through [`compute_ghosts`]. A plan without any makes no such
//! call, owns no per-backend ghost buffer ([`Ghosts`] borrows the image)
//! and counts no `ghost_evals`.
//!
//! The tables are proved, not trusted: `analysis::verify_plan` re-derives
//! them from the declared forms and holds the closures to them
//! (`boundary/form-mismatch`).

use super::{BoundaryFace, CompiledProblem, WorkCounters};
use crate::entities::Fields;
use crate::problem::{BoundaryCondition, BoundaryForm, BoundaryQuery, GatherFn};
use pbte_mesh::{Face, Mesh, Point};
use rayon::prelude::*;
use std::collections::HashMap;

/// Set in the `read` entry of a slot that gathers; the other bits are its
/// column.
pub(crate) const GATHER: u32 = 1 << 31;

/// The lowered tables and the slots left to the closures.
#[derive(Default)]
pub struct Walls {
    /// Flats of the unknown: the length of one gather column.
    pub(crate) n_flat: usize,
    /// Rows of the ghost values: the slots that read one (every slot but
    /// the lowered gathers), in slot order.
    pub(crate) n_rows: usize,
    /// Per boundary slot: its row of the ghost values, or [`GATHER`] and
    /// its gather column.
    pub(crate) read: Vec<u32>,
    /// The ghost values at [`Walls::at`]: `Value` and Fixed rows hold their
    /// ghost, the rows of callback slots 0.0 (refilled per sweep in a
    /// backend's private copy).
    pub(crate) image: Vec<f64>,
    /// The gather columns, `column · n_flat + flat`: the source flat.
    pub(crate) columns: Vec<u32>,
    /// Boundary slots whose closure still runs per sweep, ascending.
    pub(crate) callback_slots: Vec<usize>,
    /// Boundary faces lowered to the image (`Value`s and Fixed walls).
    pub fixed_faces: usize,
    /// Boundary faces lowered to a gather.
    pub gather_faces: usize,
}

/// The distinct (region, exact normal) pairs of a plan's boundary faces,
/// numbered in first-seen order. The faces of one wall arrive in runs, so
/// the previous face's pair is tried before the map.
#[derive(Default)]
pub(crate) struct WallNormals {
    ids: HashMap<WallNormal, usize>,
    last: Option<(WallNormal, usize)>,
}

type WallNormal = (Option<usize>, [u64; 3]);

impl WallNormals {
    /// The number of `face`'s (region, normal) pair, and whether `face` is
    /// the first to carry it.
    pub(crate) fn id(&mut self, face: &Face) -> (usize, bool) {
        let n = face.normal;
        let key = (face.region, [n.x.to_bits(), n.y.to_bits(), n.z.to_bits()]);
        if let Some((_, id)) = self.last.filter(|(last, _)| *last == key) {
            return (id, false);
        }
        let next = self.ids.len();
        let id = *self.ids.entry(key).or_insert(next);
        self.last = Some((key, id));
        (id, id == next)
    }
}

/// The source column of a Gather wall for one face normal, appended to
/// `columns`: the source flat of every flat. `false` (and nothing appended)
/// when `source` cannot serve some flat or names a flat outside the unknown
/// — the face then stays a callback.
fn gather_column(
    source: &GatherFn,
    normal: Point,
    idx_of_flat: &[Vec<usize>],
    columns: &mut Vec<u32>,
) -> bool {
    let start = columns.len();
    for idx in idx_of_flat {
        match source(normal, idx).filter(|&s| s < idx_of_flat.len()) {
            Some(s) => columns.push(s as u32),
            None => {
                columns.truncate(start);
                return false;
            }
        }
    }
    true
}

/// The query a boundary closure sees for `face` and one flat.
pub(crate) fn query<'a>(
    face: &Face,
    idx: &'a [usize],
    time: f64,
    fields: &'a Fields,
) -> BoundaryQuery<'a> {
    BoundaryQuery {
        position: face.centroid,
        normal: face.normal,
        owner_cell: face.owner,
        idx,
        time,
        fields,
    }
}

impl Walls {
    /// Everything but the image: what each boundary slot reads, by the
    /// declared form of its condition alone. Gather walls cost one `source`
    /// walk per distinct (wall, normal) and never call their closure; no
    /// other closure is called at all. Lowering and verification both
    /// derive the tables here.
    pub(crate) fn derive(
        mesh: &Mesh,
        boundary: &[BoundaryFace],
        idx_of_flat: &[Vec<usize>],
    ) -> Walls {
        let n_flat = idx_of_flat.len();
        let mut walls = Walls {
            n_flat,
            read: Vec::with_capacity(boundary.len()),
            ..Walls::default()
        };
        let mut normals = WallNormals::default();
        // Per wall normal: its column, if `source` serves it.
        let mut column_of: Vec<Option<u32>> = Vec::new();
        for (slot, bf) in boundary.iter().enumerate() {
            let column = match bf.bc.form() {
                Some(BoundaryForm::Gather(source)) => {
                    let face = &mesh.faces[bf.face];
                    let (id, first) = normals.id(face);
                    if first {
                        let next = (walls.columns.len() / n_flat.max(1)) as u32;
                        let served =
                            gather_column(source, face.normal, idx_of_flat, &mut walls.columns);
                        column_of.push(served.then_some(next));
                    }
                    column_of[id]
                }
                _ => None,
            };
            walls.read.push(match column {
                Some(column) => {
                    walls.gather_faces += 1;
                    GATHER | column
                }
                None => {
                    let lowered = matches!(
                        (&*bf.bc, bf.bc.form()),
                        (BoundaryCondition::Value(_), _) | (_, Some(BoundaryForm::Fixed))
                    );
                    if lowered {
                        walls.fixed_faces += 1;
                    } else {
                        walls.callback_slots.push(slot);
                    }
                    walls.n_rows += 1;
                    (walls.n_rows - 1) as u32
                }
            });
        }
        walls
    }

    /// Lower every boundary face: [`Self::derive`] the tables, then
    /// evaluate the image — one closure evaluation per (Fixed face, flat),
    /// at time 0 on `fields`, neither of which a Fixed closure may depend
    /// on. A zero constant (every linearized wall of a JVP plan) leaves the
    /// zero-initialized pages untouched.
    pub(crate) fn lower(
        mesh: &Mesh,
        boundary: &[BoundaryFace],
        idx_of_flat: &[Vec<usize>],
        fields: &Fields,
    ) -> Walls {
        let mut walls = Walls::derive(mesh, boundary, idx_of_flat);
        let n_rows = walls.n_rows;
        walls.image = vec![0.0; n_rows * walls.n_flat];
        for (bf, &read) in boundary.iter().zip(&walls.read) {
            if read & GATHER != 0 {
                continue;
            }
            // This row's entry of every flat's column.
            let ghosts = walls.image[read as usize..].iter_mut().step_by(n_rows);
            match (&*bf.bc, bf.bc.form()) {
                (BoundaryCondition::Value(v), _) if v.to_bits() != 0 => {
                    ghosts.for_each(|ghost| *ghost = *v);
                }
                (bc, Some(BoundaryForm::Fixed)) => {
                    let face = &mesh.faces[bf.face];
                    for (ghost, idx) in ghosts.zip(idx_of_flat) {
                        *ghost = bc.ghost_value(&query(face, idx, 0.0, fields));
                    }
                }
                _ => {}
            }
        }
        walls
    }

    /// Where row `row` of the ghost values lives for `flat`, in the image
    /// and in every ghost buffer.
    #[inline(always)]
    pub(crate) fn at(&self, row: usize, flat: usize) -> usize {
        flat * self.n_rows + row
    }

    /// The row of the ghost values boundary slot `slot` reads; `None` for a
    /// lowered gather.
    pub(crate) fn row(&self, slot: usize) -> Option<usize> {
        let read = self.read[slot];
        (read & GATHER == 0).then_some(read as usize)
    }

    /// Gather column `column`: the source flat of every flat.
    pub(crate) fn column(&self, column: usize) -> &[u32] {
        &self.columns[column * self.n_flat..(column + 1) * self.n_flat]
    }

    /// The one ghost-read rule: the value outside boundary slot `slot` of
    /// the face owned by `cell`, for `flat`, with `ghosts` laid out like
    /// the image and `u` the whole unknown (`flat · n_cells + cell`). Every
    /// tier and every backend reads boundary faces through it (the native
    /// tier emits it verbatim), so they load the same `f64` and stay
    /// bit-identical.
    #[inline(always)]
    pub(crate) fn ghost_read(
        &self,
        ghosts: &[f64],
        u: &[f64],
        n_cells: usize,
        slot: usize,
        flat: usize,
        cell: usize,
    ) -> f64 {
        let read = self.read[slot];
        if read & GATHER == 0 {
            ghosts[flat * self.n_rows + read as usize]
        } else {
            let source = self.columns[(read ^ GATHER) as usize * self.n_flat + flat];
            u[source as usize * n_cells + cell]
        }
    }

    /// True when no wall is left to a closure: the sweeps read the image
    /// and the unknown only.
    pub fn lowered(&self) -> bool {
        self.callback_slots.is_empty()
    }

    /// Boundary faces whose closure still runs per sweep.
    pub fn callback_faces(&self) -> usize {
        self.callback_slots.len()
    }

    /// How the walls run, in boundary faces — the `walls` attribute of a
    /// run's `run_start` frame.
    pub fn label(&self) -> String {
        format!(
            "fixed:{} gather:{} callback:{}",
            self.fixed_faces,
            self.gather_faces,
            self.callback_faces()
        )
    }
}

/// Evaluate the boundary closures of the plan's callback slots for every
/// owned flat (ascending), writing ghosts at [`Walls::at`] — serially, or
/// one rayon task per flat. One ghost evaluation is counted per (callback
/// slot, flat) pair; the same slot list feeds the static analyzer's access
/// sets and the cost model.
pub(crate) fn compute_ghosts(
    cp: &CompiledProblem,
    fields: &Fields,
    flats: &[usize],
    time: f64,
    ghosts: &mut [f64],
    work: &mut WorkCounters,
    parallel: bool,
) {
    let mesh = cp.mesh();
    let walls = &cp.walls;
    let n_rows = walls.n_rows;
    let slots = &walls.callback_slots;
    let fill = |flat: usize, column: &mut [f64]| {
        for &slot in slots {
            let bf = &cp.boundary[slot];
            let face = &mesh.faces[bf.face];
            // A callback slot always reads a row.
            column[walls.read[slot] as usize] =
                bf.bc
                    .ghost_value(&query(face, &cp.idx_of_flat[flat], time, fields));
        }
    };
    if parallel {
        ghosts
            .par_chunks_mut(n_rows)
            .enumerate()
            .for_each(|(flat, column)| {
                if flats.binary_search(&flat).is_ok() {
                    fill(flat, column);
                }
            });
    } else {
        for &flat in flats {
            fill(flat, &mut ghosts[flat * n_rows..(flat + 1) * n_rows]);
        }
    }
    work.ghost_evals += (slots.len() * flats.len()) as u64;
}

/// A backend's ghost values for one plan: the plan's image itself when
/// every wall is lowered, a private copy whose callback slots are refilled
/// before each sweep otherwise.
pub(crate) struct Ghosts(Option<Vec<f64>>);

impl Ghosts {
    pub fn for_plan(plan: &CompiledProblem) -> Ghosts {
        Ghosts((!plan.walls.lowered()).then(|| plan.walls.image.clone()))
    }

    /// The ghost values a sweep of `plan` at `time` reads. Calls no closure
    /// on a lowered plan.
    pub fn refresh<'a>(
        &'a mut self,
        plan: &'a CompiledProblem,
        fields: &Fields,
        flats: &[usize],
        time: f64,
        work: &mut WorkCounters,
        parallel: bool,
    ) -> &'a [f64] {
        match &mut self.0 {
            Some(ghosts) => {
                compute_ghosts(plan, fields, flats, time, ghosts, work, parallel);
                ghosts
            }
            None => &plan.walls.image,
        }
    }

    /// The values as last refreshed.
    pub fn current<'a>(&'a self, plan: &'a CompiledProblem) -> &'a [f64] {
        self.0.as_deref().unwrap_or(&plan.walls.image)
    }
}
