//! The paper's headline workload as a compiled plan: what each rank of a
//! target owns, what a device rank moves, and the halo a cell partition
//! exchanges are all read off the plan the executors would run.

use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::analysis::{estimate_cost, interface_send_lists, rank_scopes, CostModel};
use pbte_dsl::exec::{CompiledProblem, ExecTarget};
use pbte_dsl::{GpuStrategy, WorkCounters};
use pbte_gpu::DeviceSpec;

/// The index the band-parallel strategies partition.
const BANDS: &str = "b";

/// Halo geometry of one rank count on the real mesh, as the cell-parallel
/// executor exchanges it: every rank receives, per step, all flats of each
/// remote cell adjacent to one of its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct HaloStats {
    /// Worst-case number of partition neighbours of one rank.
    pub max_neighbors: usize,
    /// Worst-case bytes one rank receives per step.
    pub max_rank_bytes: u64,
    /// Bytes all ranks send per step.
    pub total_bytes: u64,
}

/// The busiest rank of a target, read off its [`Scope`](pbte_dsl::analysis::Scope).
#[derive(Debug, Clone, Copy)]
pub struct RankWork {
    /// One sweep over the rank's scope, counted as the executors count it.
    pub sweep: WorkCounters,
    /// The rank's share of the dof grid: its bands over all bands under a
    /// band partition, its cells over all cells under a cell partition.
    pub share: f64,
}

/// The evaluation workload: one compiled BTE plan (the paper's
/// 525 µm × 525 µm, 120×120-cell, 20-direction, 55-group, 100-step
/// configuration in the figure binaries).
pub struct Workload {
    pub cp: CompiledProblem,
    /// The single-device hybrid target's static price: per-step transfers,
    /// and one sweep per dof — a device thread's cost.
    pub device: CostModel,
}

impl Workload {
    /// The headline configuration.
    pub fn headline() -> Workload {
        Workload::from_config(&BteConfig::paper_headline())
    }

    /// Compile the hot-spot scenario of `cfg` (its initial fields are
    /// dropped: nothing here runs it).
    pub fn from_config(cfg: &BteConfig) -> Workload {
        let (cp, _fields) = CompiledProblem::compile(hotspot_2d(cfg).problem).expect("compiles");
        Workload {
            device: estimate_cost(&cp, &Workload::gpu(1)),
            cp,
        }
    }

    /// `p` ranks with a band range each.
    pub fn bands(p: usize) -> ExecTarget {
        ExecTarget::DistBands {
            ranks: p,
            index: BANDS.into(),
        }
    }

    /// `g` band ranks with an asynchronous-boundary A6000 each (one is the
    /// single-device hybrid target).
    pub fn gpu(g: usize) -> ExecTarget {
        let (spec, strategy) = (DeviceSpec::a6000(), GpuStrategy::AsyncBoundary);
        match g {
            1 => ExecTarget::GpuHybrid { spec, strategy },
            _ => ExecTarget::DistBandsGpu {
                ranks: g,
                index: BANDS.into(),
                spec,
                strategy,
            },
        }
    }

    pub fn n_steps(&self) -> usize {
        self.cp.problem.n_steps
    }

    pub fn n_cells(&self) -> usize {
        self.cp.mesh().n_cells()
    }

    /// Values of the partitioned band index (55 groups at the headline).
    pub fn n_bands(&self) -> usize {
        let registry = &self.cp.problem.registry;
        registry.indices[registry.index_id(BANDS).expect("a BTE plan")].len
    }

    /// The rank of `target` that owns the most dofs.
    pub fn busiest(&self, target: &ExecTarget) -> RankWork {
        let scopes = rank_scopes(&self.cp, target).expect("a target the plan partitions");
        let scope = scopes.iter().max_by_key(|s| s.dofs()).expect("≥ 1 rank");
        let mut sweep = WorkCounters::default();
        scope.account(&mut sweep);
        RankWork {
            sweep,
            share: scope.dofs() as f64 / (scope.n_cells * self.cp.n_flat) as f64,
        }
    }

    /// `(upload, download)` bytes per step of one device rank owning
    /// `share` of the bands, off the single-device price: a device rank
    /// uploads every per-step variable whole and downloads only the rows
    /// of the unknown it owns (`exec/gpu.rs`; pinned in the tests).
    pub fn device_step_bytes(&self, share: f64) -> (u64, u64) {
        let d2h = self.device.step_d2h_bytes as f64 * share;
        (self.device.step_h2d_bytes, d2h.round() as u64)
    }

    /// Exact halo statistics for a cell partition into `p` ranks: the
    /// send lists the cell-parallel executor packs, over its rank scopes
    /// (RCB on the real mesh — the numbers behind Fig 3's "blue lines").
    pub fn halo(&self, p: usize) -> HaloStats {
        let target = ExecTarget::DistCells { ranks: p };
        let scopes = rank_scopes(&self.cp, &target).expect("no more ranks than cells");
        let lists = interface_send_lists(&self.cp, &scopes);
        let row_bytes = self.cp.n_flat as u64 * 8;
        let mut received = vec![0u64; p];
        for (peer, cells) in lists.iter().flatten() {
            received[*peer] += cells.len() as u64 * row_bytes;
        }
        HaloStats {
            // Adjacency is symmetric: a rank receives from every peer it
            // sends to.
            max_neighbors: lists.iter().map(Vec::len).max().unwrap_or(0),
            max_rank_bytes: received.iter().copied().max().unwrap_or(0),
            total_bytes: received.iter().sum(),
        }
    }

    /// The buffer the band strategy's temperature update reduces each
    /// step: one energy sum per cell (`DividedNewton` adds a second, `T`).
    pub fn reduction_payload(&self) -> usize {
        self.n_cells() * 8
    }

    /// Bytes all ranks send per step for one reduction of the payload,
    /// as the runtime performs it: a chain in rank order, then a
    /// broadcast from the last rank.
    pub fn reduction_bytes_per_step(&self, p: usize) -> u64 {
        2 * (p as u64 - 1) * self.reduction_payload() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        let mut cfg = BteConfig::small(12, 8, 6, 10);
        cfg.dt = Some(1e-12);
        Workload::from_config(&cfg)
    }

    #[test]
    fn headline_counts() {
        // Keep this cheap: verify counts via the tiny config's material
        // logic plus the documented headline numbers.
        let cfg = BteConfig::paper_headline();
        let (per_cell, total) = cfg.dof();
        assert_eq!(per_cell, 1100);
        assert_eq!(total, 15_840_000);
    }

    #[test]
    fn kernel_cost_is_compute_shaped() {
        let w = tiny();
        let cost = w.device.sweep;
        assert!(cost.flops_per_thread > 20.0, "{:?}", cost);
        // Cache-aware traffic: a couple of doubles per thread, not the
        // raw load count.
        assert!(cost.bytes_read_per_thread < 40.0, "{:?}", cost);
        // Arithmetic intensity beyond the A6000 DP ridge (~0.8 F/B) —
        // compute bound, as the paper's profile shows.
        assert!(cost.arithmetic_intensity() > 1.0);
    }

    #[test]
    fn halo_shrinks_per_rank_but_grows_in_total() {
        let w = tiny();
        let cells = |p| w.busiest(&ExecTarget::DistCells { ranks: p }).share;
        assert!(cells(4) > cells(16));
        let (h4, h16) = (w.halo(4), w.halo(16));
        assert!(h16.total_bytes > h4.total_bytes);
        assert!(h4.max_neighbors >= 1 && h16.max_neighbors >= 2);
        assert_eq!(w.halo(1).total_bytes, 0);
    }

    #[test]
    fn band_traffic_beats_halo_traffic_at_scale() {
        // Fig 3's claim, on the executors' numbers: the halo carries the
        // full unknown vector of every interface cell, the reduction one
        // scalar per cell per non-root rank and back.
        let w = tiny();
        let halo_growth = w.halo(8).total_bytes as f64 / w.halo(2).total_bytes as f64;
        assert!(halo_growth > 1.5);
        assert_eq!(w.reduction_bytes_per_step(1), 0);
        assert!(w.reduction_bytes_per_step(8) < w.halo(8).total_bytes);
    }

    #[test]
    fn rank_bands_split_evenly() {
        let w = tiny(); // 6 freq bands → 6 LA + 2 TA = 8 groups
        assert_eq!(w.n_bands(), 8);
        for (p, bands) in [(1, 8), (2, 4), (3, 3), (8, 1)] {
            let rank = w.busiest(&Workload::bands(p));
            assert_eq!(rank.share, bands as f64 / 8.0, "p = {p}");
            assert_eq!(rank.sweep.dof_updates as usize, bands * 8 * 144);
        }
    }
}
