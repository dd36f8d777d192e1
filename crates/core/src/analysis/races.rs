//! Parallel-write disjointness proofs.
//!
//! Every parallel split an executor performs — the tiles of each rank's
//! [`Scope`] (the threaded cell-span pieces, the cell-distributed RCB
//! partition, the band-distributed flat ownership, the GPU `launch_rows`
//! rows: all read off the value the driver runs, never rebuilt) and the
//! divided-Newton cell slices — is an explicit family of [`WriteRegion`]
//! rectangles over the `(flat, cell)` dof grid of the written entity,
//! proven disjoint, covering and in-grid from their sorted dof intervals:
//! the cost is that of the tile list, not of the dofs it enumerates.
//! Overlap is a hard error naming both regions and a dof they share;
//! uncovered dofs are a warning (a split may legitimately under-cover
//! when another rank owns the rest, but a *local* family must cover).

use super::{rules, Diagnostic, Scope, Severity};
use crate::exec::{CompiledProblem, ExecTarget};
use std::collections::BTreeSet;
use std::fmt::Display;
use std::ops::Range;

/// One parallel worker's write footprint over an entity's dof grid: the
/// rectangle `flats × cells`.
#[derive(Debug, Clone)]
pub struct WriteRegion<'a, L = &'a str> {
    /// Who writes it ("rank 1 tile 3 (flat 0, cells 8..16)"); formatted
    /// only into a diagnostic that names the region.
    pub label: L,
    pub flats: &'a [usize],
    pub cells: Range<usize>,
}

/// Prove a family of write regions pairwise disjoint over an
/// `n_flat × n_cells` dof grid. Overlaps are errors; unclaimed dofs a
/// warning; out-of-grid indices an error.
pub fn check_disjoint_writes<'a, L: Display + 'a>(
    entity: &str,
    n_flat: usize,
    n_cells: usize,
    regions: impl IntoIterator<Item = WriteRegion<'a, L>>,
) -> Vec<Diagnostic> {
    let regions: Vec<WriteRegion<L>> = regions.into_iter().collect();
    let diagnostic = |severity, rule, location: String, message: String| Diagnostic {
        severity,
        rule,
        entity: entity.to_string(),
        location,
        message,
    };
    let mut out = Vec::new();
    // Each region as the dof intervals `flat · n_cells + cells` of its
    // in-grid part, and the first dof it writes outside the grid (in
    // flat-major order, the order it writes in).
    let mut spans: Vec<(usize, usize, usize)> = Vec::new();
    for (i, region) in regions.iter().enumerate() {
        let Range { start, end } = region.cells;
        let mut outside = None;
        for &flat in region.flats.iter().filter(|_| start < end) {
            if flat >= n_flat {
                outside.get_or_insert((flat, start));
                continue;
            }
            if end > n_cells {
                outside.get_or_insert((flat, start.max(n_cells)));
            }
            if start < n_cells {
                let row = flat * n_cells;
                spans.push((row + start, row + end.min(n_cells), i));
            }
        }
        if let Some((flat, cell)) = outside {
            let grid = format!("the {n_flat}×{n_cells} dof grid");
            out.push(diagnostic(
                Severity::Error,
                rules::OOB_WRITE,
                region.label.to_string(),
                format!("write at (flat {flat}, cell {cell}) outside {grid}"),
            ));
        }
    }
    // Sweep the intervals in dof order, keeping the one that reaches
    // furthest and its region: a span of another region starting before
    // that reach shares its first dof with it. No overlap is missed — the
    // first span to meet an earlier span of another region meets the
    // furthest-reaching one, which is of another region or else covers
    // that earlier span and would have met it first.
    spans.sort_unstable();
    let (mut reach, mut owner, mut claimed) = (0, usize::MAX, 0);
    let mut reported = BTreeSet::new();
    for &(lo, hi, i) in &spans {
        let (a, b) = (owner.min(i), owner.max(i));
        if lo < reach && owner != i && reported.insert((a, b)) {
            let (flat, cell) = (lo / n_cells, lo % n_cells);
            out.push(diagnostic(
                Severity::Error,
                rules::OVERLAPPING_WRITE,
                format!("{} ∩ {}", regions[a].label, regions[b].label),
                format!("both regions write (flat {flat}, cell {cell})"),
            ));
        }
        if hi > reach {
            claimed += hi - lo.max(reach);
            (reach, owner) = (hi, i);
        }
    }
    let (unclaimed, total) = (n_flat * n_cells - claimed, n_flat * n_cells);
    if unclaimed > 0 {
        out.push(diagnostic(
            Severity::Warning,
            rules::INCOMPLETE_COVER,
            "write split".into(),
            format!("{unclaimed} of {total} dofs are claimed by no region"),
        ));
    }
    out
}

/// The cells rank `rank` of `ranks` solves under the divided Newton of
/// the band-parallel temperature update: `n_cells·r/p .. n_cells·(r+1)/p`.
pub fn divided_slice(n_cells: usize, rank: usize, ranks: usize) -> Range<usize> {
    n_cells * rank / ranks..n_cells * (rank + 1) / ranks
}

/// Prove the [`divided_slice`]s of `ranks` ranks pairwise disjoint and
/// covering.
pub fn check_divided_slices(entity: &str, n_cells: usize, ranks: usize) -> Vec<Diagnostic> {
    let labels: Vec<String> = (0..ranks)
        .map(|r| format!("divided-Newton rank {r}"))
        .collect();
    let regions = labels.iter().enumerate().map(|(r, label)| WriteRegion {
        label,
        flats: &[0],
        cells: divided_slice(n_cells, r, ranks),
    });
    check_disjoint_writes(entity, 1, n_cells, regions)
}

/// Prove the write split of `scopes` — the value the step driver runs
/// `target` on — disjoint over the unknown, one region per tile
/// ([`super::synth::synthesize_partition`]), and with it the Krylov
/// vectors of an implicit integrator; for band-distributed targets
/// additionally prove the divided-Newton cell slices of declared-writing
/// post-step callbacks.
pub(super) fn check_target(
    cp: &CompiledProblem,
    target: &ExecTarget,
    scopes: &[Scope],
    out: &mut Vec<Diagnostic>,
) {
    let n_cells = cp.mesh().n_cells();
    let tiles = super::synth::synthesize_partition(scopes);
    let split = check_disjoint_writes(&cp.system.unknown_name, cp.n_flat, n_cells, tiles);
    if cp.problem.integrator.is_implicit() {
        check_krylov_vectors(&split, out);
    }
    out.extend(split);

    // Divided-Newton slices: any post-step callback on a band-distributed
    // target may divide its per-cell work by the rank slice formula.
    if let ExecTarget::DistBands { ranks, .. } | ExecTarget::DistBandsGpu { ranks, .. } = target {
        for step in &cp.catalog.steps {
            if !step.pre {
                let entity = match step.writes.is_empty() {
                    false => step.writes.join(","),
                    true => step.name.clone(),
                };
                out.extend(check_divided_slices(&entity, n_cells, *ranks));
            }
        }
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

/// The implicit driver's Krylov work vectors must tile the dof grid. Each
/// rank updates its Krylov vectors (the right-hand side `b`, which doubles
/// as the shadow residual, `r` (which holds the half-step residual `s` in
/// between), `p`, `v`, `t`, and the preconditioned direction `y`, which
/// each JVP sweep reads from the unknown's slot) over its own scope's
/// spans — the tiles of the
/// unknown's `split` — and contributes an exact-dot partial over exactly
/// those: an overlap would double-count a dot partial, a gap would drop
/// one — either silently changes every Krylov scalar on every rank. So the
/// six vectors share the unknown's proof, and every finding of it names
/// each of them as a hard error (a gap too, unlike the under-cover warning
/// for a local write split).
fn check_krylov_vectors(split: &[Diagnostic], out: &mut Vec<Diagnostic>) {
    for vec_name in ["b", "r", "p", "v", "t", "y"] {
        out.extend(split.iter().cloned().map(|d| Diagnostic {
            severity: Severity::Error,
            entity: format!("krylov.{vec_name}"),
            ..d
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    /// The oracle the interval prover is held to: paint every dof of every
    /// region into an owner array, one at a time.
    fn paint(n_flat: usize, n_cells: usize, regions: &[WriteRegion]) -> BTreeSet<&'static str> {
        let mut rules_fired = BTreeSet::new();
        let mut owner = vec![u32::MAX; n_flat * n_cells];
        for (i, region) in regions.iter().enumerate() {
            for &flat in region.flats {
                for cell in region.cells.clone() {
                    if flat >= n_flat || cell >= n_cells {
                        rules_fired.insert(rules::OOB_WRITE);
                        continue;
                    }
                    let at = flat * n_cells + cell;
                    if owner[at] != u32::MAX && owner[at] != i as u32 {
                        rules_fired.insert(rules::OVERLAPPING_WRITE);
                    } else {
                        owner[at] = i as u32;
                    }
                }
            }
        }
        if owner.contains(&u32::MAX) {
            rules_fired.insert(rules::INCOMPLETE_COVER);
        }
        rules_fired
    }

    /// A clean partition of the grid among `ranks` ranks — band ranges of
    /// flats or cell ranges, every row cut into spans down to length 1 —
    /// then broken one way: two tiles overlapping by one dof, a tile
    /// dropped, a tile pushed out of the grid, or nothing; in any order.
    /// The interval prover and the painter report the same rules.
    #[test]
    fn interval_prover_agrees_with_the_painter() {
        let mut rng = TestRng::from_name("interval_prover_agrees_with_the_painter");
        let (mut fired, mut clean) = (BTreeSet::new(), 0);
        for case in 0..600 {
            let (n_flat, n_cells) = (1 + rng.below(5), 1 + rng.below(12));
            let ranks = 1 + rng.below(3);
            let by_bands = rng.below(2) == 0;
            let all_flats: Vec<usize> = (0..n_flat).collect();
            let mut family: Vec<(Vec<usize>, Range<usize>)> = Vec::new();
            for r in 0..ranks {
                let (flats, cells) = match by_bands {
                    true => (n_flat * r / ranks..n_flat * (r + 1) / ranks, 0..n_cells),
                    false => (0..n_flat, n_cells * r / ranks..n_cells * (r + 1) / ranks),
                };
                // Either one region over all the rank's flats, or one per flat.
                let rows: Vec<Vec<usize>> = match rng.below(2) {
                    0 => vec![all_flats[flats].to_vec()],
                    _ => flats.map(|f| vec![f]).collect(),
                };
                for row in rows.into_iter().filter(|row| !row.is_empty()) {
                    let mut at = cells.start;
                    while at < cells.end {
                        let len = 1 + rng.below((cells.end - at).min(4));
                        family.push((row.clone(), at..at + len));
                        at += len;
                    }
                }
            }
            if !family.is_empty() {
                let victim = rng.below(family.len());
                match rng.below(5) {
                    0 => family[victim].1.end += 1, // into its neighbor, or out of the row
                    1 => drop(family.remove(victim)),
                    2 => family[victim].0[0] += n_flat, // a flat past the grid
                    3 => family[victim].1 = n_cells + 1..n_cells + 3, // cells past it
                    _ => {}
                }
            }
            for i in (1..family.len()).rev() {
                family.swap(i, rng.below(i + 1)); // unsorted
            }
            let regions: Vec<WriteRegion> = (family.iter())
                .map(|(flats, cells)| WriteRegion {
                    label: "region",
                    flats,
                    cells: cells.clone(),
                })
                .collect();
            let proven: BTreeSet<&str> =
                check_disjoint_writes("I", n_flat, n_cells, regions.clone())
                    .iter()
                    .map(|d| d.rule)
                    .collect();
            assert_eq!(
                proven,
                paint(n_flat, n_cells, &regions),
                "case {case}: {family:?}"
            );
            clean += proven.is_empty() as usize;
            fired.extend(proven);
        }
        // Every rule, and the clean family, came up.
        assert!(fired.len() == 3 && clean > 50, "{fired:?}, {clean} clean");
    }

    /// What a diagnostic says: the first dof a region writes outside the
    /// grid in the order it writes, both regions of an overlap and a dof
    /// they share, and the count of unclaimed dofs.
    #[test]
    fn diagnostics_name_regions_and_dofs() {
        let regions = [
            WriteRegion {
                label: "a",
                flats: &[1, 0],
                cells: 0..4,
            },
            WriteRegion {
                label: "b",
                flats: &[0, 2],
                cells: 3..7,
            },
        ];
        let said: Vec<(&str, String, String)> = check_disjoint_writes("I", 2, 6, regions)
            .into_iter()
            .map(|d| (d.rule, d.location, d.message))
            .collect();
        let expect = |rule, location: &str, message: &str| (rule, location.into(), message.into());
        assert_eq!(
            said,
            [
                expect(
                    rules::OOB_WRITE,
                    "b",
                    "write at (flat 0, cell 6) outside the 2×6 dof grid"
                ),
                expect(
                    rules::OVERLAPPING_WRITE,
                    "a ∩ b",
                    "both regions write (flat 0, cell 3)"
                ),
                expect(
                    rules::INCOMPLETE_COVER,
                    "write split",
                    "2 of 12 dofs are claimed by no region"
                ),
            ]
        );
    }
}
