//! Distributed execution: the paper's two partitioning strategies with
//! real message passing over `pbte-runtime` ranks. Every rank runs the
//! one step driver ([`super::driver::drive`]) on its scope from
//! [`crate::analysis::rank_scopes`]; what this module adds is the
//! [`RankLinks`] between ranks and the merge of their results.
//!
//! **Cell partitioning**: the mesh is divided among ranks (RCB, the METIS
//! stand-in). Before every stage each rank exchanges the unknown's values
//! for its interface cells — *all* directions and bands, which is exactly
//! the communication volume Fig 3 (top) illustrates — then updates its
//! owned cells and runs the post-step callbacks on them. Results are
//! bit-identical to the sequential target (each dof's update reads the
//! same values in the same order).
//!
//! **Band / equation partitioning**: one index of the unknown (the
//! spectral band `b` in the BTE) is divided among ranks; every rank holds
//! all cells. No halo exchange exists at all — the only communication is
//! the reduction inside the temperature update, performed through the
//! [`crate::problem::Reducer`] the user callback is handed (Fig 3,
//! bottom). That reduction is a fold in rank order: each rank owns a
//! contiguous band range in rank order, so a callback that accumulates
//! band-major adds in the sequential target's order and the results are
//! bit-identical to it. Each rank may drive its own simulated GPU — the
//! configuration of the paper's Fig 7.

use super::driver::{run_scope, Owned};
use super::{CompiledProblem, ExecTarget, SolveReport, StepLinks, WorkCounters};
use crate::analysis::{interface_send_lists, Scope, SendList};
use crate::entities::Fields;
use crate::problem::Reducer;
use pbte_mesh::partition::partition_bands;
use pbte_runtime::telemetry::{Recorder, SpanKind, TraceConfig, Track};
use pbte_runtime::timer::PhaseTimer;
use pbte_runtime::world::{CommStats, RankCtx, World};
use std::time::Instant;

/// Tag for halo messages: `HALO_TAG + sender`.
const HALO_TAG: u32 = 100;

/// One rank's links to the others: reductions always; a halo exchange of
/// the unknown when the rank has interface cells (cell partitioning — a
/// band-partitioned rank has none, the defining property of equation
/// partitioning).
struct RankLinks<'a> {
    ctx: &'a mut RankCtx,
    /// Every rank's send list (a rank unpacks a peer's message by the
    /// peer's list for it).
    send_lists: &'a [SendList],
    unknown: usize,
    n_flat: usize,
    comm_seconds: f64,
    /// Trace epoch shared with the rank's recorder; closed comm intervals
    /// are buffered here and drained into the recorder after each step
    /// (the recorder itself is lent to the callbacks while comm happens).
    cfg: TraceConfig,
    comm_spans: Vec<(SpanKind, f64, f64)>,
}

impl RankLinks<'_> {
    /// Run `comm`, adding its wall-clock to the rank's communication
    /// seconds and buffering a trace interval of `kind`.
    fn timed(&mut self, kind: SpanKind, comm: impl FnOnce(&mut Self)) {
        let s0 = self.cfg.now();
        let t = Instant::now();
        comm(self);
        self.comm_seconds += t.elapsed().as_secs_f64();
        if self.cfg.is_enabled() {
            self.comm_spans.push((kind, s0, self.cfg.now() - s0));
        }
    }
}

impl Reducer for RankLinks<'_> {
    fn fold(&mut self, buf: &mut [f64], add: &mut dyn FnMut(&mut [f64])) {
        self.timed(SpanKind::Allreduce, |l| l.ctx.fold(buf, add));
    }
    fn rank(&self) -> usize {
        self.ctx.rank
    }
    fn n_ranks(&self) -> usize {
        self.ctx.n_ranks
    }
}

impl StepLinks for RankLinks<'_> {
    fn halo_exchange(&mut self, fields: &mut Fields) {
        let rank = self.ctx.rank;
        let send_lists = self.send_lists;
        if send_lists[rank].is_empty() {
            return;
        }
        let (unknown, n_flat) = (self.unknown, self.n_flat);
        self.timed(SpanKind::HaloExchange, |l| {
            for (peer, cells) in &send_lists[rank] {
                let mut buf = Vec::with_capacity(cells.len() * n_flat);
                for flat in 0..n_flat {
                    for &c in cells {
                        buf.push(fields.value(unknown, c, flat));
                    }
                }
                l.ctx.send(*peer, HALO_TAG + rank as u32, buf);
            }
            for (peer, _) in &send_lists[rank] {
                let data = l.ctx.recv(*peer, HALO_TAG + *peer as u32);
                let their_cells = send_lists[*peer]
                    .iter()
                    .find(|(p, _)| *p == rank)
                    .map(|(_, cs)| cs)
                    .expect("symmetric interface lists");
                let mut it = data.into_iter();
                for flat in 0..n_flat {
                    for &c in their_cells {
                        fields.set(unknown, c, flat, it.next().expect("packed size"));
                    }
                }
            }
        });
    }
    fn comm_seconds(&self) -> f64 {
        self.comm_seconds
    }
    fn comm_bytes(&self) -> u64 {
        self.ctx.stats.bytes
    }
    fn drain_comm_spans(&mut self, rec: &mut Recorder, step: usize) {
        for (kind, t0, dur) in self.comm_spans.drain(..) {
            let name = match kind {
                SpanKind::HaloExchange => "halo exchange",
                _ => "allreduce",
            };
            rec.span(
                kind,
                name,
                t0,
                dur,
                Track::Host,
                vec![("step", step.to_string())],
            );
        }
    }
}

/// The band partition of a band-distributed target: the partitioned
/// index and each rank's range of it.
struct Bands {
    index: String,
    index_id: usize,
    ranges: Vec<std::ops::Range<usize>>,
}

impl Bands {
    /// The `(variable, flat)` rows rank `rank` ships back: its owned flats
    /// of the unknown, the rows of variables carrying the partitioned
    /// index that fall in its range, and (from rank 0 only) variables
    /// without that index — identical on all ranks after the reduction.
    fn owned_rows(
        &self,
        cp: &CompiledProblem,
        local: &Fields,
        rank: usize,
        flats: &[usize],
    ) -> Vec<(usize, usize)> {
        let registry = &cp.problem.registry;
        let range = &self.ranges[rank];
        let mut rows = Vec::new();
        for v in 0..local.n_vars() {
            let v_indices = &registry.variables[v].indices;
            if v == cp.system.unknown {
                rows.extend(flats.iter().map(|&flat| (v, flat)));
            } else if let Some(pos) = v_indices.iter().position(|&i| i == self.index_id) {
                // Decode against the variable's own strides.
                let stride = registry.strides(v_indices)[pos];
                let extent = registry.indices[self.index_id].len;
                rows.extend(
                    (0..local.flat_len(v))
                        .filter(|flat| range.contains(&((flat / stride) % extent)))
                        .map(|flat| (v, flat)),
                );
            } else if rank == 0 {
                rows.extend((0..local.flat_len(v)).map(|flat| (v, flat)));
            }
        }
        rows
    }
}

/// Per-rank result carried back to the caller.
struct RankResult {
    /// The rank's recorder: phase seconds, work counters, and (when
    /// buffering) the rank's spans/events/step records.
    rec: Recorder,
    report: SolveReport,
    /// `(variable id, flat, values over the rank's cells)`.
    payload: Vec<(usize, usize, Vec<f64>)>,
}

/// Solve on message-passing ranks, one per scope.
pub(crate) fn solve(
    cp: &CompiledProblem,
    fields: &mut Fields,
    target: &ExecTarget,
    scopes: &[Scope],
    rec: &mut Recorder,
) -> SolveReport {
    let ranks = scopes.len();
    let registry = &cp.problem.registry;
    let (bands, send_lists) = match target {
        ExecTarget::DistBands { index, .. } | ExecTarget::DistBandsGpu { index, .. } => {
            let index_id = registry.index_id(index).expect("checked by rank_scopes");
            let bands = Bands {
                index: index.clone(),
                index_id,
                ranges: partition_bands(registry.indices[index_id].len, ranks),
            };
            (Some(bands), vec![SendList::new(); ranks])
        }
        _ => (None, interface_send_lists(cp, scopes)),
    };
    let init_fields: &Fields = fields;
    let cfg = rec.config();
    let parent: &Recorder = rec;
    let results: Vec<RankResult> = World::run(ranks, |ctx| {
        let rank = ctx.rank;
        let d = &scopes[rank];
        let (cells, flats) = (&d.cells, &d.flats);
        let mut local = init_fields.clone();
        let mut r = parent.child(rank as u32);
        let owned = match &bands {
            Some(b) => Owned {
                index_range: Some((b.index.clone(), b.ranges[rank].clone())),
                cells: None,
            },
            None => Owned {
                index_range: None,
                cells: Some(cells),
            },
        };
        let mut links = RankLinks {
            ctx,
            send_lists: &send_lists,
            unknown: cp.system.unknown,
            n_flat: cp.n_flat,
            comm_seconds: 0.0,
            cfg,
            comm_spans: Vec::new(),
        };
        // Halos and exact-dot limb reductions flow through the links, so
        // the implicit integrators' Krylov iteration sees global scalars
        // and stays rank-count-independent.
        let mut report = run_scope(cp, &mut local, d, target, &owned, &mut links, &mut r);
        report.comm = links.ctx.stats;

        // Ship the rank's owned rows (restricted to its cells) back.
        let rows = match &bands {
            Some(b) => b.owned_rows(cp, &local, rank, flats),
            None => (0..local.n_vars())
                .flat_map(|v| (0..local.flat_len(v)).map(move |flat| (v, flat)))
                .collect(),
        };
        let payload = rows
            .into_iter()
            .map(|(v, flat)| {
                let values = cells.iter().map(|&c| local.value(v, c, flat)).collect();
                (v, flat, values)
            })
            .collect();
        RankResult {
            rec: r,
            report,
            payload,
        }
    });

    // Assemble the global solution from the owner of every row.
    for (res, scope) in results.iter().zip(scopes) {
        for (v, flat, values) in &res.payload {
            for (&c, &val) in scope.cells.iter().zip(values) {
                fields.set(*v, c, *flat, val);
            }
        }
    }
    reduce_reports(results, rec)
}

/// Merge per-rank reports: phase times take the max over ranks (wall-clock
/// semantics), work and bytes sum, device profiles merge, and each rank's
/// telemetry buffers are absorbed into the caller's recorder (preserving
/// rank attribution on every span).
fn reduce_reports(results: Vec<RankResult>, rec: &mut Recorder) -> SolveReport {
    let mut merged = SolveReport {
        steps: 0,
        timer: PhaseTimer::new(),
        comm: CommStats::default(),
        work: WorkCounters::default(),
        device: None,
        findings: Default::default(),
        workspace_bytes: 0,
    };
    let mut names: Vec<String> = Vec::new();
    for r in &results {
        for (name, _) in r.report.timer.phases() {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    for name in &names {
        let max = results
            .iter()
            .map(|r| r.report.timer.get(name))
            .fold(0.0f64, f64::max);
        merged.timer.add(name, max);
    }
    for r in results {
        // Pseudo-transient steady stops early; the exact-reduction SER
        // controller makes the count identical on all ranks.
        merged.steps = merged.steps.max(r.report.steps);
        merged.workspace_bytes = merged.workspace_bytes.max(r.report.workspace_bytes);
        merged.comm.messages += r.report.comm.messages;
        merged.comm.bytes += r.report.comm.bytes;
        merged.work.merge(&r.report.work);
        if let Some(p) = r.report.device {
            match &mut merged.device {
                Some(d) => d.merge(&p),
                None => merged.device = Some(p),
            }
        }
        rec.absorb_rank(r.rec);
    }
    // The job-level phase account uses the max-over-ranks semantics, not
    // the per-rank sum, so merge the reduced timer rather than each rank's.
    rec.phases.merge(&merged.timer);
    merged
}
