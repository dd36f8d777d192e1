//! Shared-memory thread-parallel building blocks (rayon).
//!
//! The generated parallel CPU code distributes the flattened index
//! dimension across threads: each flat value owns a contiguous
//! `n_cells`-long block of the unknown (index-major layout), so threads
//! write disjoint cache-line-aligned regions. Numerics are identical to
//! the sequential target — same arithmetic, same face order — only the
//! iteration is partitioned.

use super::rows::{self, FluxBoundary, IntensityKernels};
use super::{CompiledProblem, WorkCounters};
use crate::entities::Fields;
use rayon::prelude::*;

/// Parallel RHS (or, with `fused_dt`, Euler update) over the whole dof
/// grid: the flat dimension maps to tasks (one contiguous block of `rhs`
/// each) and, within a flat, the cell range is rayon-split into per-thread
/// sub-spans, one [`rows::rhs_block`] call each. Chunk boundaries don't
/// change per-cell arithmetic, so results stay bit-identical to the
/// sequential target.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_rhs_par(
    cp: &CompiledProblem,
    fields: &Fields,
    ghosts: &[f64],
    time: f64,
    fused_dt: Option<f64>,
    rhs: &mut [f64],
    work: &mut WorkCounters,
    kernels: &mut IntensityKernels,
) {
    let vars = fields.as_slices();
    let n_cells = fields.n_cells;
    kernels.ensure(cp, time);
    let kernels = &*kernels;
    let threads = rayon::current_num_threads().max(1);
    // Shared with the partition synthesis (`analysis::thread_chunk_len`)
    // so the proven split is the executed split.
    let chunk = crate::analysis::thread_chunk_len(n_cells, threads);
    rhs.par_chunks_mut(n_cells)
        .enumerate()
        .for_each(|(flat, block)| {
            block
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(ci, out)| {
                    let mut scratch = kernels.scratch(&vars);
                    rows::rhs_block(
                        kernels,
                        cp,
                        &vars,
                        flat,
                        ci * chunk,
                        out,
                        FluxBoundary::Ghosts(ghosts),
                        time,
                        fused_dt,
                        &mut scratch,
                    );
                });
        });
    work.dof_updates += (cp.n_flat * n_cells) as u64;
    // Exact face total: every flat walks every cell's face list once.
    work.flux_evals += cp.n_flat as u64 * cp.hot.nbr.len() as u64;
}

/// `u += coeff * rhs`, parallel over flats.
pub(crate) fn axpy_par(fields: &mut Fields, unknown: usize, coeff: f64, rhs: &[f64]) {
    let n_cells = fields.n_cells;
    fields
        .slice_mut(unknown)
        .par_chunks_mut(n_cells)
        .zip(rhs.par_chunks(n_cells))
        .for_each(|(u, r)| {
            for (uv, rv) in u.iter_mut().zip(r) {
                *uv += coeff * rv;
            }
        });
}
