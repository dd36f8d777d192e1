//! Parallel-write disjointness proofs.
//!
//! Every parallel split an executor performs — the tiles of each rank's
//! [`Scope`] (the threaded cell-span pieces, the cell-distributed RCB
//! partition, the band-distributed flat ownership, the GPU `launch_rows`
//! rows: all read off the value the driver runs, never rebuilt) and the
//! divided-Newton cell slices — becomes an explicit family of
//! [`WriteRegion`]s over the `(flat, cell)` dof grid of the written
//! entity, then proven pairwise disjoint with an owner array. Overlap is
//! a hard error naming both regions and the first offending dof;
//! uncovered dofs are a warning (a split may legitimately under-cover
//! when another rank owns the rest, but a *local* family must cover).

use super::{rules, Diagnostic, Scope, Severity};
use crate::exec::{CompiledProblem, ExecTarget};
use std::borrow::Borrow;

/// One parallel worker's write footprint over an entity's dof grid: the
/// cross product of `flats` and `cells`.
#[derive(Debug, Clone)]
pub struct WriteRegion {
    /// Diagnostic label ("rank 1 tile 3 (flat 0, cells 8..16)").
    pub label: String,
    pub flats: Vec<usize>,
    pub cells: Vec<usize>,
}

/// Prove a family of write regions pairwise disjoint over an
/// `n_flat × n_cells` dof grid. Overlaps are errors; unclaimed dofs a
/// warning; out-of-grid indices an error. Regions are consumed one at a
/// time (a lazily built family never exists in memory at once).
pub fn check_disjoint_writes(
    entity: &str,
    n_flat: usize,
    n_cells: usize,
    regions: impl IntoIterator<Item = impl Borrow<WriteRegion>>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut owner = vec![u32::MAX; n_flat * n_cells];
    let mut labels: Vec<String> = Vec::new();
    let mut reported: Vec<(u32, u32)> = Vec::new();
    for (i, region) in regions.into_iter().enumerate() {
        let region = region.borrow();
        labels.push(region.label.clone());
        let mut oob = false;
        for &flat in &region.flats {
            for &cell in &region.cells {
                if flat >= n_flat || cell >= n_cells {
                    if !oob {
                        out.push(Diagnostic {
                            severity: Severity::Error,
                            rule: rules::OOB_WRITE,
                            entity: entity.to_string(),
                            location: region.label.clone(),
                            message: format!(
                                "write at (flat {flat}, cell {cell}) outside the \
                                 {n_flat}×{n_cells} dof grid"
                            ),
                        });
                        oob = true;
                    }
                    continue;
                }
                let at = flat * n_cells + cell;
                let prev = owner[at];
                if prev != u32::MAX && prev != i as u32 {
                    let pair = (prev, i as u32);
                    if !reported.contains(&pair) {
                        out.push(Diagnostic {
                            severity: Severity::Error,
                            rule: rules::OVERLAPPING_WRITE,
                            entity: entity.to_string(),
                            location: format!("{} ∩ {}", labels[prev as usize], region.label),
                            message: format!("both regions write (flat {flat}, cell {cell})"),
                        });
                        reported.push(pair);
                    }
                } else {
                    owner[at] = i as u32;
                }
            }
        }
    }
    let unclaimed = owner.iter().filter(|&&o| o == u32::MAX).count();
    if unclaimed > 0 {
        out.push(Diagnostic {
            severity: Severity::Warning,
            rule: rules::INCOMPLETE_COVER,
            entity: entity.to_string(),
            location: "write split".into(),
            message: format!(
                "{unclaimed} of {} dofs are claimed by no region",
                n_flat * n_cells
            ),
        });
    }
    out
}

/// Prove the divided-Newton cell slices `n_cells·r/p .. n_cells·(r+1)/p`
/// pairwise disjoint and covering (the band-parallel temperature update
/// divides its per-cell Newton solves this way).
pub fn check_divided_slices(entity: &str, n_cells: usize, ranks: usize) -> Vec<Diagnostic> {
    let regions: Vec<WriteRegion> = (0..ranks)
        .map(|r| WriteRegion {
            label: format!("divided-Newton rank {r}"),
            flats: vec![0],
            cells: (n_cells * r / ranks..n_cells * (r + 1) / ranks).collect(),
        })
        .collect();
    check_disjoint_writes(entity, 1, n_cells, &regions)
}

/// Prove the write split of `scopes` — the value the step driver runs
/// `target` on — disjoint over the unknown, one region per tile
/// ([`super::synth::synthesize_partition`]); for band-distributed targets
/// additionally prove the divided-Newton cell slices of declared-writing
/// post-step callbacks.
pub(super) fn check_target(
    cp: &CompiledProblem,
    target: &ExecTarget,
    scopes: &[Scope],
    out: &mut Vec<Diagnostic>,
) {
    let n_cells = cp.mesh().n_cells();
    out.extend(check_disjoint_writes(
        &cp.system.unknown_name,
        cp.n_flat,
        n_cells,
        super::synth::synthesize_partition(scopes),
    ));

    // Divided-Newton slices: any post-step callback on a band-distributed
    // target may divide its per-cell work by the rank slice formula.
    if let ExecTarget::DistBands { ranks, .. } | ExecTarget::DistBandsGpu { ranks, .. } = target {
        for step in &cp.catalog.steps {
            if !step.pre {
                let entity = match &step.writes {
                    Some(w) if !w.is_empty() => w.join(","),
                    _ => step.name.clone(),
                };
                out.extend(check_divided_slices(&entity, n_cells, *ranks));
            }
        }
    }

    if cp.problem.integrator.is_implicit() {
        check_krylov_vectors(cp, scopes, out);
    }
    check_gather_sources(cp, scopes, out);
}

/// The halo obligation of a lowered gather wall: on every rank, the source
/// flat of an owned flat is owned. A rank only ever updates its own rows
/// of the unknown — a band-partitioned rank never receives the others — so
/// a gather across the partition would read a row frozen at its initial
/// value. Specular reflections satisfy it by construction (they permute
/// directions within a band, and bands are what is partitioned); cell
/// partitions own every flat. Lowering is target-independent, so a wall
/// that fails the obligation on some target does not fall back to its
/// closure there (which would read the same stale row): the plan is
/// **refused** under `boundary/form-mismatch`.
fn check_gather_sources(cp: &CompiledProblem, scopes: &[Scope], out: &mut Vec<Diagnostic>) {
    if cp.walls.gather_faces == 0 {
        return;
    }
    let n_flat = cp.n_flat;
    let n_columns = cp.walls.columns.len() / n_flat.max(1);
    for (rank, flats) in scopes.iter().map(|s| &s.flats).enumerate() {
        if flats.len() == n_flat {
            continue; // owns every flat (the boundary pass bounds the sources)
        }
        let mut owned = vec![false; n_flat];
        for &flat in flats {
            owned[flat] = true;
        }
        // Every gather column, at every owned flat.
        let foreign = (0..n_columns).find_map(|column| {
            let sources = cp.walls.column(column);
            let flat = *flats.iter().find(|&&flat| !owned[sources[flat] as usize])?;
            Some((column, flat, sources[flat]))
        });
        if let Some((column, flat, source)) = foreign {
            out.push(Diagnostic {
                severity: Severity::Error,
                rule: rules::BOUNDARY_FORM_MISMATCH,
                entity: cp.system.unknown_name.clone(),
                location: format!("rank {rank}, gather column {column}"),
                message: format!(
                    "the gather of owned flat {flat} reads flat {source}, which rank {rank} \
                     does not own and never updates"
                ),
            });
            return;
        }
    }
}

/// Prove the implicit driver's Krylov work-vector scopes tile the dof
/// grid. Each rank updates its Krylov vectors (the right-hand side `b`,
/// which doubles as the shadow residual, `r`, `p`, `v`, `s`, `t`, and the
/// preconditioned direction `y` in the JVP fields' unknown slot)
/// sequentially over its own dof scope and contributes an exact-dot
/// partial over exactly that scope, so the per-rank scopes must
/// be pairwise disjoint *and* covering: an overlap would double-count a
/// dot partial, a gap would drop one — either silently changes every
/// Krylov scalar on every rank.
fn check_krylov_vectors(cp: &CompiledProblem, scopes: &[Scope], out: &mut Vec<Diagnostic>) {
    let n_cells = cp.mesh().n_cells();
    let n_flat = cp.n_flat;
    // The scopes the driver hands each rank's Krylov loop (only RHS/JVP
    // sweeps are parallel within a rank, never vector ops).
    let regions: Vec<WriteRegion> = scopes
        .iter()
        .enumerate()
        .map(|(r, scope)| WriteRegion {
            label: format!("rank {r} Krylov scope"),
            flats: scope.flats.clone(),
            cells: scope.cells.clone(),
        })
        .collect();
    for vec_name in ["b", "r", "p", "v", "s", "t", "y"] {
        let mut diags =
            check_disjoint_writes(&format!("krylov.{vec_name}"), n_flat, n_cells, &regions);
        // A gap is a hard error here (it corrupts exact dots), unlike the
        // generic under-cover warning for local write splits.
        for d in &mut diags {
            if d.rule == rules::INCOMPLETE_COVER {
                d.severity = Severity::Error;
            }
        }
        out.extend(diags);
    }
}
