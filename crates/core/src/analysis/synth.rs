//! Schedule and partition **synthesis**.
//!
//! The [`TransferSchedule`] and the parallel [`WriteRegion`] partitioning
//! are *derived* — the schedule from the access facts of a step's stage
//! records, the partition from the [`Scope`]s the driver executes — and
//! each is proven by its own pass: the schedule by [`super::transfers`]
//! (no stale read, no redundant copy), the partition by [`super::races`]
//! (pairwise-disjoint writes that cover the grid).

use super::races::WriteRegion;
use super::transfers::Sides;
use super::Diagnostic;
use crate::dataflow::{Entity, Kernel, Policy, Record, Transfer, TransferSchedule, GHOSTS};
use crate::exec::{CompiledProblem, ExecTarget};
use pbte_mesh::partition::{partition_bands, Partition};

// ---------------------------------------------------------------------------
// Schedule synthesis
// ---------------------------------------------------------------------------

/// Whether a step callback reads the unknown on the host — otherwise only
/// boundary callbacks do: what the reason of the unknown's per-step
/// download names.
fn callback_reads_unknown(cp: &CompiledProblem, records: &[Record]) -> bool {
    let unknown = Entity::Variable(cp.system.unknown);
    let callback = |r: &Record| matches!(r.kernel, Kernel::Callback { .. });
    records.iter().any(|r| callback(r) && r.reads(unknown))
}

/// Derive the transfer schedule of a record list from the access sets it
/// folds to (`Sides` — the same facts [`super::check_schedule`] proves
/// the schedule against). The step's own schedule is
/// [`CompiledProblem::transfer_schedule`].
///
/// Derivation rules, in schedule order:
///
/// 1. every coefficient the kernel reads → `Once` H2D (coefficients are
///    immutable by construction: they live in the registry, not in
///    `Fields`, so no host code can rewrite one);
/// 2. the unknown → `Once` H2D (initial condition), unless rule 4 uploads
///    it before every sweep;
/// 3. the unknown → `EveryStep` D2H iff some host record reads it
///    between steps (a step callback or a boundary callback);
/// 4. the boundary: the ghosts the sweep reads → `EveryStep` H2D while a
///    host `GhostEval` rewrites them, `Once` when the image is lowered;
///    the unknown → `EveryStep` H2D when a step callback declares
///    rewriting it;
/// 5. every other kernel-read variable → `EveryStep` H2D iff some host
///    record rewrites it between steps, else `Once`.
///
/// Rules 3 to 5 key on the callbacks' declared accesses, not on the mere
/// existence of a post-step callback: a callback that never reads the
/// unknown (or never writes a given variable) moves nothing.
pub fn synthesize_records(cp: &CompiledProblem, records: &[Record]) -> TransferSchedule {
    let registry = &cp.problem.registry;
    let sides = Sides::fold(cp, records);
    let unknown_name = &cp.system.unknown_name;
    let mut transfers = Vec::new();
    let mut push = |name: &str, to_device: bool, policy: Policy, reason: &str| {
        transfers.push(Transfer {
            name: name.to_string(),
            to_device,
            policy,
            reason: reason.into(),
        })
    };

    // 1. Kernel-read coefficients: immutable, one device copy.
    for &c in &cp.system.read_coefficients {
        let reason = "coefficient: immutable, cached on device";
        push(&registry.coefficients[c].name, true, Policy::Once, reason);
    }

    // 2. The unknown's initial condition — unless rule 4 re-uploads it
    //    before every read anyway.
    let reuploaded = sides.host_writes.contains(unknown_name);
    if !reuploaded {
        let reason = "unknown: initial condition upload";
        push(unknown_name, true, Policy::Once, reason);
    }

    // 3. The unknown returns to the host iff some host site reads it.
    if sides.host_reads.contains(unknown_name) {
        let reason = match callback_reads_unknown(cp, records) {
            true => "unknown: post-step callback reads it on the host",
            false => "unknown: boundary callbacks read it on the host",
        };
        push(unknown_name, false, Policy::EveryStep, reason);
    }

    // 4. The boundary: the ghosts the device reads — per step while the
    //    host evaluates them, the lowered image once — and the unknown a
    //    step callback rewrites.
    if sides.device_reads.contains(GHOSTS) {
        let (policy, reason) = match sides.host_writes.contains(GHOSTS) {
            true => (
                Policy::EveryStep,
                "boundary ghost values computed by CPU callbacks",
            ),
            false => (
                Policy::Once,
                "boundary ghost image: every wall lowered, evaluated once",
            ),
        };
        push(GHOSTS, true, policy, reason);
    }
    if reuploaded {
        let reason = "mutable variable: rewritten by post-step callback";
        push(unknown_name, true, Policy::EveryStep, reason);
    }

    // 5. Other kernel-read variables: per-step iff a host site rewrites
    //    them, one-time otherwise.
    for &v in &cp.system.read_variables {
        let name = &registry.variables[v].name;
        if v == cp.system.unknown {
            continue;
        }
        let (policy, reason) = match sides.host_writes.contains(name) {
            true => (
                Policy::EveryStep,
                "mutable variable: rewritten by post-step callback",
            ),
            false => (Policy::Once, "variable never written after initialization"),
        };
        push(name, true, policy, reason);
    }

    TransferSchedule { transfers }
}

// ---------------------------------------------------------------------------
// Partition synthesis
// ---------------------------------------------------------------------------

/// One piece of a sweep: the scope's `k`-th flat over the contiguous cells
/// `cell0 .. cell0 + len` — one `rows::rhs_block` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Position of the flat in [`Scope::flats`].
    pub k: usize,
    pub cell0: usize,
    pub len: usize,
}

/// The iteration space of one rank: the `(cells × flats)` cross product of
/// the dof grid it owns, and the [`Tile`]s that space is swept in. One
/// value per rank, built by [`rank_scopes`], is what the step driver
/// walks, the device launches, the cost model scopes and the race pass
/// proves — so "the proven split is the executed split" holds by identity.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Owned cells (global ids).
    pub cells: Vec<usize>,
    /// Owned flattened index values.
    pub flats: Vec<usize>,
    /// Cells of the whole mesh (the row length of the dof layout
    /// `flat * n_cells + cell`).
    pub n_cells: usize,
    /// Each flat's maximal contiguous cell spans, each cut into near-equal
    /// pieces, flat-major.
    pub tiles: Vec<Tile>,
    /// Threads one sweep fans its tiles out to; 1 sweeps them in order on
    /// the calling thread.
    pub workers: usize,
    /// Exact face count over the owned cells (every flat walks each once
    /// per sweep).
    pub faces: u64,
}

impl Scope {
    /// The whole dof grid of `cp` on one worker: the scope of a
    /// single-rank target, and the range of a step's records when only
    /// their arguments are read.
    pub fn whole(cp: &CompiledProblem) -> Scope {
        let all = |n: usize| (0..n).collect::<Vec<usize>>();
        Scope::new(&cp.hot.offsets, all(cp.mesh().n_cells()), all(cp.n_flat), 1)
    }

    /// The scope `cells × flats` of a mesh with CSR face `offsets`, every
    /// span cut into `workers` pieces.
    pub(crate) fn new(
        offsets: &[u32],
        cells: Vec<usize>,
        flats: Vec<usize>,
        workers: usize,
    ) -> Scope {
        Scope {
            tiles: Scope::tile(&cells, flats.len(), workers),
            faces: cells
                .iter()
                .map(|&c| (offsets[c + 1] - offsets[c]) as u64)
                .sum(),
            n_cells: offsets.len() - 1,
            cells,
            flats,
            workers: workers.max(1),
        }
    }

    /// The tile list of `cells` under `n_flats` flats: the maximal
    /// contiguous ascending spans of the list, in list order (any list is
    /// handled — non-consecutive cells just yield length-1 spans), each cut
    /// into `parts` near-equal non-empty pieces, repeated per flat.
    pub(crate) fn tile(cells: &[usize], n_flats: usize, parts: usize) -> Vec<Tile> {
        let parts = parts.max(1);
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for &cell in cells {
            match spans.last_mut() {
                Some((start, len)) if *start + *len == cell => *len += 1,
                _ => spans.push((cell, 1)),
            }
        }
        let row: Vec<(usize, usize)> = spans
            .iter()
            .flat_map(|&(start, len)| {
                (0..parts).filter_map(move |i| {
                    let (a, b) = (len * i / parts, len * (i + 1) / parts);
                    (b > a).then_some((start + a, b - a))
                })
            })
            .collect();
        (0..n_flats)
            .flat_map(|k| row.iter().map(move |&(cell0, len)| Tile { k, cell0, len }))
            .collect()
    }

    /// Where `tile` starts in the global `flat * n_cells + cell` layout.
    #[inline]
    pub fn at(&self, tile: &Tile) -> usize {
        self.flats[tile.k] * self.n_cells + tile.cell0
    }

    /// The owned dofs as contiguous index ranges, tile by tile — the same
    /// walk as the sweeps. Vector passes slice their operands by these
    /// instead of indexing per dof.
    pub fn spans(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.tiles.iter().map(|t| {
            let at = self.at(t);
            at..at + t.len
        })
    }

    /// Owned dofs.
    pub fn dofs(&self) -> usize {
        self.flats.len() * self.cells.len()
    }

    /// Whether the scope is the whole `n_flat × n_cells` grid.
    pub(crate) fn is_full(&self, n_flat: usize) -> bool {
        self.cells.len() == self.n_cells && self.flats.len() == n_flat
    }

    /// Count one sweep over the scope.
    pub fn account(&self, work: &mut pbte_runtime::telemetry::WorkCounters) {
        work.dof_updates += self.dofs() as u64;
        work.flux_evals += self.flats.len() as u64 * self.faces;
    }
}

/// Owned flats per rank under band partitioning of `index` (the band
/// half of [`rank_scopes`]).
/// `None` when `index` is not an index of the unknown (build rejects such
/// targets before solving).
fn band_owned_flats(cp: &CompiledProblem, ranks: usize, index: &str) -> Option<Vec<Vec<usize>>> {
    let registry = &cp.problem.registry;
    let index_id = registry.index_id(index)?;
    let slot = registry.variables[cp.system.unknown]
        .indices
        .iter()
        .position(|&i| i == index_id)?;
    let ranges = partition_bands(registry.indices[index_id].len, ranks);
    Some(
        ranges
            .iter()
            .map(|range| {
                (0..cp.n_flat)
                    .filter(|&flat| range.contains(&cp.idx_of_flat[flat][slot]))
                    .collect()
            })
            .collect(),
    )
}

/// The [`Scope`] every rank of `target` owns. Single-rank targets own the
/// whole grid; cell distribution divides the cells by RCB, band
/// distribution the flats by band range. Only the threaded
/// target fans a sweep out: its spans are cut into
/// `rayon::current_num_threads()` pieces — the one place the sweep split
/// reads the thread count, once per solve.
/// Errors name the configuration `build()` would have to reject (more
/// ranks than cells, an unpartitionable index).
pub fn rank_scopes(cp: &CompiledProblem, target: &ExecTarget) -> Result<Vec<Scope>, Diagnostic> {
    let n_cells = cp.mesh().n_cells();
    let all = |n: usize| (0..n).collect::<Vec<usize>>();
    let workers = match target {
        ExecTarget::CpuParallel => rayon::current_num_threads(),
        _ => 1,
    };
    let scope = |cells, flats| Scope::new(&cp.hot.offsets, cells, flats, workers);
    Ok(match target {
        ExecTarget::CpuSeq | ExecTarget::CpuParallel | ExecTarget::GpuHybrid { .. } => {
            vec![scope(all(n_cells), all(cp.n_flat))]
        }
        ExecTarget::DistCells { ranks } => {
            if *ranks > n_cells {
                return Err(Diagnostic::dsl_target(format!(
                    "{ranks} ranks for {n_cells} cells"
                )));
            }
            let partition = Partition::build(cp.mesh(), *ranks);
            (0..*ranks)
                .map(|r| scope(partition.cells_of(r), all(cp.n_flat)))
                .collect()
        }
        ExecTarget::DistBands { ranks, index } | ExecTarget::DistBandsGpu { ranks, index, .. } => {
            band_owned_flats(cp, *ranks, index)
                .ok_or_else(|| {
                    Diagnostic::dsl_target(format!("`{index}` is not an index of the unknown"))
                })?
                .into_iter()
                .map(|flats| scope(all(n_cells), flats))
                .collect()
        }
    })
}

/// `(peer rank, my interface cells it needs)`, sorted by peer.
pub type SendList = Vec<(usize, Vec<usize>)>;

/// Interface send lists of a cell partition, derived from the rank
/// scopes: for every interior face whose two cells live on different
/// ranks, each side sends its cell to the other. Sorted and deduplicated
/// for a deterministic packing order shared by sender and receiver. What
/// the cell-partitioned executor exchanges before every stage, and what
/// the figure model's halo bytes are read off.
pub fn interface_send_lists(cp: &CompiledProblem, scopes: &[Scope]) -> Vec<SendList> {
    let mesh = cp.mesh();
    let mut part = vec![0usize; mesh.n_cells()];
    for (r, scope) in scopes.iter().enumerate() {
        for &c in &scope.cells {
            part[c] = r;
        }
    }
    let mut lists: Vec<std::collections::BTreeMap<usize, Vec<usize>>> =
        vec![Default::default(); scopes.len()];
    for f in &mesh.faces {
        let Some(nb) = f.neighbor else { continue };
        let (a, b) = (part[f.owner], part[nb]);
        if a != b {
            lists[a].entry(b).or_default().push(f.owner);
            lists[b].entry(a).or_default().push(nb);
        }
    }
    lists
        .into_iter()
        .map(|per_peer| {
            per_peer
                .into_iter()
                .map(|(peer, mut cells)| {
                    cells.sort_unstable();
                    cells.dedup();
                    (peer, cells)
                })
                .collect()
        })
        .collect()
}

/// Names a tile in a race diagnostic, formatted only when one fires.
#[derive(Debug, Clone)]
pub struct TileLabel {
    rank: usize,
    tile: usize,
    flat: usize,
    cells: std::ops::Range<usize>,
}

impl std::fmt::Display for TileLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rank, tile, flat, cells) = (self.rank, self.tile, self.flat, &self.cells);
        write!(f, "rank {rank} tile {tile} (flat {flat}, cells {cells:?})")
    }
}

/// The write split of the unknown that `scopes` describes: one region per
/// tile, read straight off the value the driver executes, in execution
/// order — a borrowed flat and a cell range each, nothing expanded.
pub fn synthesize_partition(
    scopes: &[Scope],
) -> impl Iterator<Item = WriteRegion<'_, TileLabel>> + '_ {
    scopes.iter().enumerate().flat_map(|(rank, scope)| {
        scope.tiles.iter().enumerate().map(move |(tile, t)| {
            let cells = t.cell0..t.cell0 + t.len;
            WriteRegion {
                label: TileLabel {
                    rank,
                    tile,
                    flat: scope.flats[t.k],
                    cells: cells.clone(),
                },
                flats: &scope.flats[t.k..=t.k],
                cells,
            }
        })
    })
}
