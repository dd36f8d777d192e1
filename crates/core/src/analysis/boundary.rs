//! The lowered walls are proved, not trusted.
//!
//! [`Walls`](crate::exec::Walls) replaces a boundary closure by tables the
//! span kernels read without further checks. This pass re-derives them
//! from what each wall's condition *declares* and holds the closure — the
//! definition, and the oracle — to the result. Any disagreement is
//! `boundary/form-mismatch`, an error that refuses the plan like
//! `geometry/run-mismatch`:
//!
//! * the tables: `read` (what every slot reads), the gather columns, the
//!   number of ghost rows and the callback slots equal
//!   `Walls::derive` run again on the declared forms — so every row and
//!   column a slot names exists, every column entry is
//!   `source(face normal, idx)` and a flat of the unknown, a face `source`
//!   cannot serve is a callback slot, the callback slots are exactly the
//!   faces no form could lower — the image has a row per reading slot, and
//!   the catalog counts the callback slots;
//! * a Fixed wall declares no field read;
//! * the condition agrees with the lowered value **bit for bit**, for
//!   every flat: a `Value`'s constant, a Fixed closure at two different
//!   times (one that reads `q.time` is caught), a Gather closure on a
//!   probe state holding a distinct value per flat. The default gate
//!   probes one face per (wall, normal); the exhaustive comparison over
//!   every (face, flat) runs under `pbte-verify --validate` and in debug
//!   builds.
//!
//! The probe state is one cell wide — the verifier allocates nothing of
//! the problem's size. A Gather closure is cell-independent by its form
//! (`unknown[owner cell, source(normal, idx)]`), so it is queried with the
//! face's position and normal at owner cell 0 of that state. A Fixed
//! closure sees the face as it is, owner cell included, and may not touch
//! `q.fields` at all: one that does is outside the form's contract and
//! fails loudly (a mismatch, or an index outside the one-cell state)
//! rather than silently.
//!
//! The same checks run on an implicit plan's JVP plan, whose walls are the
//! linearized conditions: constants became zero, Gather walls stayed.

use super::{rules, Diagnostic, Severity};
use crate::entities::Fields;
use crate::exec::walls::{query, WallNormals};
use crate::exec::{CompiledProblem, Walls};
use crate::problem::{BoundaryCondition, BoundaryForm, BoundaryQuery};

fn mismatch(location: String, message: String) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        rule: rules::BOUNDARY_FORM_MISMATCH,
        entity: "ghosts".into(),
        location,
        message,
    }
}

/// The probe value of the unknown at `flat`: distinct per flat and exactly
/// representable, so equal bits mean the same flat was read.
fn probe_value(flat: usize) -> f64 {
    1.0 + flat as f64
}

/// Prove the wall tables of `cp` and of its JVP plan (see the module
/// docs). `exhaustive` compares every (face, flat) with its closure
/// instead of one face per (wall, normal).
pub fn check_boundary_forms(cp: &CompiledProblem, exhaustive: bool, out: &mut Vec<Diagnostic>) {
    check_plan(cp, "", exhaustive, out);
    if let Some(jcp) = cp.jvp.as_deref() {
        check_plan(jcp, "jvp: ", exhaustive, out);
    }
}

fn check_plan(cp: &CompiledProblem, plan: &str, exhaustive: bool, out: &mut Vec<Diagnostic>) {
    let walls = &cp.walls;
    let mesh = cp.mesh();
    let n_flat = cp.n_flat;
    // Rendered for a finding only: thousands of slots are clean.
    let location = |slot: usize| {
        let bf = &cp.boundary[slot];
        format!(
            "{plan}boundary face {} (slot {slot}, normal {:?})",
            bf.face, mesh.faces[bf.face].normal
        )
    };

    // The tables, against the declared forms lowered again.
    let want = Walls::derive(mesh, &cp.boundary, &cp.idx_of_flat);
    if let Some(slot) = (0..cp.boundary.len()).find(|&s| walls.read.get(s) != Some(&want.read[s])) {
        out.push(mismatch(
            location(slot),
            format!(
                "the slot reads {:#x?}, its declared condition lowers to {:#x}",
                walls.read.get(slot),
                want.read[slot]
            ),
        ));
        return;
    }
    let tables = [
        ("slots", walls.read.len(), want.read.len()),
        ("flats", walls.n_flat, n_flat),
        ("ghost rows", walls.n_rows, want.n_rows),
        ("image entries", walls.image.len(), want.n_rows * n_flat),
        ("fixed faces", walls.fixed_faces, want.fixed_faces),
        ("gather faces", walls.gather_faces, want.gather_faces),
        (
            "catalog callback faces",
            cp.catalog.callback_faces,
            want.callback_faces(),
        ),
    ];
    if let Some((what, got, want)) = tables.into_iter().find(|(_, got, want)| got != want) {
        out.push(mismatch(
            format!("{plan}wall tables"),
            format!("{got} {what}, the declared conditions lower to {want}"),
        ));
        return;
    }
    if walls.callback_slots != want.callback_slots {
        out.push(mismatch(
            format!("{plan}wall tables"),
            format!(
                "callback slots {:?}, but the slots no form lowers are {:?}",
                walls.callback_slots, want.callback_slots
            ),
        ));
        return;
    }
    if let Some(at) =
        (0..want.columns.len()).find(|&at| walls.columns.get(at) != Some(&want.columns[at]))
    {
        out.push(mismatch(
            format!("{plan}gather column {}", at / n_flat),
            format!(
                "flat {} gathers from flat {:?}, but source(normal, idx) names flat {}",
                at % n_flat,
                walls.columns.get(at),
                want.columns[at]
            ),
        ));
        return;
    }

    // The condition itself against the lowered value, on the first face of
    // every (wall, normal) — or on every lowered face.
    let unknown = cp.system.unknown;
    let mut normals = WallNormals::default();
    // The one-cell probe state: the unknown holds a distinct value per flat.
    let mut probe: Option<Fields> = None;
    let (t0, t1) = (0.0, cp.problem.dt * cp.problem.n_steps.max(1) as f64);
    for (slot, bf) in cp.boundary.iter().enumerate() {
        if walls.callback_slots.binary_search(&slot).is_ok() {
            continue;
        }
        if matches!(bf.bc.form(), Some(BoundaryForm::Fixed)) && !bf.bc.reads().is_empty() {
            out.push(mismatch(
                location(slot),
                "a Fixed wall declares field reads; its ghost may depend on no field".into(),
            ));
            continue;
        }
        let face = &mesh.faces[bf.face];
        if !normals.id(face).1 && !exhaustive {
            continue;
        }
        let row = walls.row(slot);
        let image = |row: usize, flat: usize| walls.image[walls.at(row, flat)];
        if let (BoundaryCondition::Value(v), Some(row)) = (&*bf.bc, row) {
            if let Some(flat) = (0..n_flat).find(|&f| image(row, f).to_bits() != v.to_bits()) {
                out.push(mismatch(
                    location(slot),
                    format!(
                        "image[flat {flat}] = {} but the wall is Value({v})",
                        image(row, flat)
                    ),
                ));
            }
            continue;
        }
        let fields = &*probe.get_or_insert_with(|| {
            let mut fields = Fields::new(&cp.problem.registry, 1);
            for flat in 0..n_flat {
                fields.set(unknown, 0, flat, probe_value(flat));
            }
            fields
        });
        for flat in 0..n_flat {
            let idx = &cp.idx_of_flat[flat];
            // The lowered value, by the one ghost-read rule in the probe
            // state, and the closure's.
            let lowered = walls.ghost_read(&walls.image, fields.slice(unknown), 1, slot, flat, 0);
            let (times, owner_cell): (&[f64], usize) = match row {
                Some(_) => (&[t0, t1], face.owner),
                None => (&[t0], 0),
            };
            let disagrees = times.iter().find_map(|&t| {
                let q = BoundaryQuery {
                    owner_cell,
                    ..query(face, idx, t, fields)
                };
                let got = bf.bc.ghost_value(&q);
                (got.to_bits() != lowered.to_bits()).then_some((t, got))
            });
            if let Some((t, got)) = disagrees {
                out.push(mismatch(
                    location(slot),
                    format!(
                        "flat {flat}: the closure returns {got:e} at t = {t:e}, the lowered \
                         {} holds {lowered:e}",
                        if row.is_some() { "image" } else { "gather" }
                    ),
                ));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecTarget;
    use crate::problem::{Integrator, Problem};
    use pbte_mesh::UniformGrid;

    const NDIRS: usize = 4;
    const NBANDS: usize = 2;

    /// ±x / ±y mirror of direction `d` of the four axis directions.
    fn mirror(normal: pbte_mesh::Point, d: usize) -> usize {
        let across_x = normal.x.abs() > 0.5;
        match (across_x, d) {
            (true, 0) => 2,
            (true, 2) => 0,
            (false, 1) => 3,
            (false, 3) => 1,
            (_, d) => d,
        }
    }

    /// A 6×4 problem with a Fixed wall (left), a constant (right) and
    /// Gather walls (top, bottom); `left` replaces the Fixed wall.
    fn problem(left: Option<BoundaryCondition>) -> Problem {
        let mut p = Problem::new("wall-seam");
        p.domain(2);
        p.mesh(UniformGrid::new_2d(6, 4, 1.0, 1.0).build());
        p.set_steps(1e-3, 4);
        let d = p.index("d", NDIRS);
        let b = p.index("b", NBANDS);
        let i_var = p.variable("I", &[d, b]);
        p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
        p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
        p.initial(i_var, |x, idx| 1.0 + x.x + 0.1 * idx[0] as f64);
        p.boundary(
            i_var,
            "left",
            left.unwrap_or_else(|| {
                BoundaryCondition::fixed(|q| 1.5 + q.position.y + 0.25 * q.idx[1] as f64)
            }),
        );
        p.boundary(i_var, "right", BoundaryCondition::Value(1.0));
        for side in ["top", "bottom"] {
            p.boundary(
                i_var,
                side,
                BoundaryCondition::gather(
                    &["I"],
                    |q| {
                        let r = mirror(q.normal, q.idx[0]);
                        q.fields.value(0, q.owner_cell, r * NBANDS + q.idx[1])
                    },
                    |normal, idx| Some(mirror(normal, idx[0]) * NBANDS + idx[1]),
                ),
            );
        }
        p.conservation_form(i_var, "-I[d,b] + surface(upwind([Sx[d];Sy[d]], I[d,b]))");
        p
    }

    fn plan(left: Option<BoundaryCondition>) -> CompiledProblem {
        CompiledProblem::compile(problem(left)).unwrap().0
    }

    fn refused(cp: &CompiledProblem) -> bool {
        cp.verify_plan(&ExecTarget::CpuSeq)
            .iter()
            .any(|d| d.rule == rules::BOUNDARY_FORM_MISMATCH && d.severity == Severity::Error)
    }

    #[test]
    fn the_clean_plan_is_lowered_and_proved() {
        let cp = plan(None);
        assert_eq!(cp.walls.label(), "fixed:8 gather:12 callback:0");
        assert_eq!(cp.catalog.callback_faces, 0);
        assert!(cp.catalog.boundary_reads.is_empty());
        assert!(cp.verify_plan(&ExecTarget::CpuSeq).is_empty());
        let mut diags = Vec::new();
        check_boundary_forms(&cp, true, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// Linearization keeps exactly the Gather walls: the JVP plan gathers
    /// through equal columns, reads a zero image, and is proved like any
    /// other plan.
    #[test]
    fn the_jvp_plan_lowers_to_a_zero_image_and_the_same_gather() {
        let mut p = problem(None);
        p.integrator(Integrator::Implicit { theta: 1.0 });
        let mut cp = CompiledProblem::compile(p).unwrap().0;
        let jcp = cp.jvp.as_deref().unwrap();
        assert_eq!(jcp.walls.label(), "fixed:8 gather:12 callback:0");
        assert_eq!(
            (&jcp.walls.read, &jcp.walls.columns),
            (&cp.walls.read, &cp.walls.columns)
        );
        assert!(jcp.walls.image.iter().all(|ghost| ghost.to_bits() == 0));
        assert!(cp.verify_plan(&ExecTarget::CpuSeq).is_empty());

        // The first linearized constant is a face the default gate probes.
        let jcp = cp.jvp.as_deref_mut().unwrap();
        let constant =
            |bf: &crate::exec::BoundaryFace| matches!(*bf.bc, BoundaryCondition::Value(_));
        let slot = jcp.boundary.iter().position(constant).unwrap();
        let at = jcp.walls.at(jcp.walls.row(slot).unwrap(), 1);
        jcp.walls.image[at] = 1.0;
        assert!(refused(&cp), "a JVP image entry that is not zero");
    }

    /// Negative seams: a flipped gather entry, a slot reading another row
    /// or column, a perturbed `image` entry, a "Fixed" closure that reads
    /// `q.time`, a slot moved between the lowered and the callback set —
    /// each refuses the plan.
    #[test]
    fn tampered_walls_are_refused() {
        let n_flat = (NDIRS * NBANDS) as u32;
        let gather_slot =
            |cp: &CompiledProblem| (0..cp.boundary.len()).find(|&s| cp.walls.row(s).is_none());

        let mut cp = plan(None);
        cp.walls.columns[3] = (cp.walls.columns[3] + 1) % n_flat;
        assert!(refused(&cp), "a flipped gather entry");

        let mut cp = plan(None);
        cp.walls.columns[0] = n_flat;
        assert!(refused(&cp), "a gather entry outside the unknown");

        let mut cp = plan(None);
        let slot = gather_slot(&cp).unwrap();
        cp.walls.read[slot] ^= 1;
        assert!(
            refused(&cp),
            "a slot gathering through another wall's column"
        );

        // The first left-wall face is the one the default gate probes.
        let mut cp = plan(None);
        let left: Vec<usize> = (0..cp.boundary.len())
            .filter(|&s| matches!(cp.boundary[s].bc.form(), Some(BoundaryForm::Fixed)))
            .collect();
        cp.walls.read.swap(left[0], left[1]);
        assert!(refused(&cp), "two slots reading each other's row");

        let mut cp = plan(None);
        let at = cp.walls.at(cp.walls.row(left[0]).unwrap(), 1);
        cp.walls.image[at] += 1e-9;
        assert!(refused(&cp), "a perturbed image entry on the probed face");

        // Any other face is the exhaustive comparison's.
        let mut cp = plan(None);
        let at = cp.walls.at(cp.walls.row(left[1]).unwrap(), 1);
        cp.walls.image[at] += 1e-9;
        assert!(!refused(&cp));
        let mut diags = Vec::new();
        check_boundary_forms(&cp, true, &mut diags);
        assert!(diags
            .iter()
            .all(|d| d.rule == rules::BOUNDARY_FORM_MISMATCH));
        assert_eq!(diags.len(), 1, "{diags:?}");

        let cp = plan(Some(BoundaryCondition::fixed(|q| 1.5 + q.time)));
        assert!(refused(&cp), "a Fixed closure that reads q.time");

        let mut cp = plan(None);
        let slot = gather_slot(&cp).unwrap();
        cp.walls.callback_slots.push(slot);
        assert!(refused(&cp), "a lowered slot listed as a callback");
    }

    /// The halo obligation of a gather: under a band partition, a wall that
    /// gathers across bands would read a row its rank never updates. The
    /// plan is clean on targets that own every flat and refused there.
    #[test]
    fn a_gather_across_the_band_partition_is_refused() {
        let swap = |b: usize| NBANDS - 1 - b;
        let across = BoundaryCondition::gather(
            &["I"],
            move |q| {
                q.fields
                    .value(0, q.owner_cell, q.idx[0] * NBANDS + swap(q.idx[1]))
            },
            move |_, idx| Some(idx[0] * NBANDS + swap(idx[1])),
        );
        let cp = plan(Some(across));
        assert!(cp.verify_plan(&ExecTarget::CpuSeq).is_empty());
        assert!(cp
            .verify_plan(&ExecTarget::DistCells { ranks: 2 })
            .is_empty());
        let bands = ExecTarget::DistBands {
            ranks: 2,
            index: "b".into(),
        };
        let diags = cp.verify_plan(&bands);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == rules::BOUNDARY_FORM_MISMATCH && d.severity == Severity::Error),
            "{diags:?}"
        );
        // The axis mirrors stay within a band and pass.
        assert!(plan(None).verify_plan(&bands).is_empty());
    }

    /// A Gather wall whose source cannot serve a normal stays a callback
    /// there, is counted, and still verifies clean.
    #[test]
    fn a_wall_its_source_cannot_serve_stays_a_callback() {
        let mut p = Problem::new("half-served");
        p.domain(2);
        p.mesh(UniformGrid::new_2d(4, 4, 1.0, 1.0).build());
        let d = p.index("d", NDIRS);
        let i_var = p.variable("I", &[d]);
        p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
        p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
        for side in ["left", "right", "top", "bottom"] {
            p.boundary(
                i_var,
                side,
                BoundaryCondition::gather(
                    &["I"],
                    |q| q.fields.value(0, q.owner_cell, mirror(q.normal, q.idx[0])),
                    // Serves x walls only.
                    |normal, idx| (normal.x.abs() > 0.5).then(|| mirror(normal, idx[0])),
                ),
            );
        }
        p.conservation_form(i_var, "surface(upwind([Sx[d];Sy[d]], I[d]))");
        let cp = CompiledProblem::compile(p).unwrap().0;
        assert_eq!(cp.walls.label(), "fixed:0 gather:8 callback:8");
        assert_eq!(cp.catalog.callback_faces, 8);
        assert_eq!(cp.catalog.boundary_reads, ["I"]);
        assert!(cp.verify_plan(&ExecTarget::CpuSeq).is_empty());
    }
}
