//! The figure model: the plan's work and traffic × measured rates ×
//! machine models → paper-scale times.
//!
//! Every strategy's predicted wall-clock decomposes into the three phases
//! the paper's breakdown figures use. The model restates no work: what a
//! rank sweeps is its scope from `analysis::rank_scopes`, counted by
//! `Scope::account` (the executors' own counters); what a device rank
//! moves per step is the stage schedule priced by `analysis::estimate_cost`,
//! and a device thread's cost is that model's sweep price, the one the
//! simulated device launches with (all via [`Workload`]). The *rates* come from the [`Calibration`], and the
//! machine models price what core has no model for — the α–β halo
//! exchange and allreduce on the paper's cluster (`pbte-runtime`) and the
//! device roofline and host link (`pbte-gpu`).

use crate::calibration::Calibration;
use crate::workload::Workload;
use pbte_dsl::ExecTarget;
use pbte_gpu::{Device, DeviceSpec};
use pbte_runtime::comm::CommModel;
use pbte_runtime::machine::MachineSpec;
use serde::{Serialize, Value};

/// Predicted per-phase times, seconds (whole run, all steps).
#[derive(Debug, Clone, Copy)]
pub struct PhasedTime {
    pub intensity: f64,
    pub temperature: f64,
    pub communication: f64,
}

impl Serialize for PhasedTime {
    fn to_value(&self) -> Value {
        let PhasedTime {
            intensity,
            temperature,
            communication,
        } = self;
        Value::Obj(vec![
            ("intensity".into(), intensity.to_value()),
            ("temperature".into(), temperature.to_value()),
            ("communication".into(), communication.to_value()),
        ])
    }
}

impl PhasedTime {
    /// Total wall-clock.
    pub fn total(&self) -> f64 {
        self.intensity + self.temperature + self.communication
    }

    /// Percentages in (intensity, temperature, communication) order —
    /// the rows of Figs 5 and 8.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        (
            100.0 * self.intensity / t,
            100.0 * self.temperature / t,
            100.0 * self.communication / t,
        )
    }
}

/// The model for one workload on the paper's machines.
pub struct FigureModel {
    pub work: Workload,
    pub calib: Calibration,
    pub machine: MachineSpec,
    pub gpu: DeviceSpec,
}

impl FigureModel {
    /// The workload on the paper's cluster.
    pub fn new(work: Workload, calib: Calibration) -> FigureModel {
        FigureModel {
            work,
            calib,
            machine: MachineSpec::cascade_lake(),
            gpu: DeviceSpec::a6000(),
        }
    }

    fn steps(&self) -> f64 {
        self.work.n_steps() as f64
    }

    /// Temperature-update seconds per step on one rank, as
    /// `temperature.rs` splits it: the energy and rewrite passes cover the
    /// rank's `share` of the bands (or cells), the Newton solve — with
    /// what the spans leave unattributed — `newton_share` of the cells.
    fn temp_step(&self, share: f64, newton_share: f64) -> f64 {
        let c = &self.calib;
        let per_cell = (c.c_temp_energy + c.c_temp_rewrite) * share
            + (c.c_temp_newton + c.temp_unattributed()) * newton_share;
        self.work.n_cells() as f64 * per_cell
    }

    /// One allreduce of the temperature update's payload over `p` ranks.
    fn allreduce(&self, p: usize) -> f64 {
        CommModel::new(self.machine.clone(), p).allreduce(self.work.reduction_payload())
    }

    /// Band-parallel CPU strategy (Fig 4 circles, Fig 5): every rank owns
    /// all cells for a slice of the bands; the temperature update reduces
    /// one energy scalar per cell across ranks, then every rank solves
    /// every cell's Newton problem (redundant).
    pub fn band_parallel(&self, p: usize) -> PhasedTime {
        self.bands(p, false)
    }

    /// Band-parallel CPU strategy with the divided Newton phase: same
    /// intensity work as [`band_parallel`](Self::band_parallel), all three
    /// temperature passes scale with the rank's share, and a second
    /// allreduce (the shared `T` field) joins the energy one.
    pub fn band_parallel_divided(&self, p: usize) -> PhasedTime {
        self.bands(p, true)
    }

    fn bands(&self, p: usize, divided: bool) -> PhasedTime {
        let rank = self.work.busiest(&Workload::bands(p));
        let (newton_share, reductions) = match divided {
            true => (rank.share, 2.0),
            false => (1.0, 1.0),
        };
        PhasedTime {
            intensity: self.steps() * rank.sweep.dof_updates as f64 * self.calib.c_dsl,
            temperature: self.steps() * self.temp_step(rank.share, newton_share),
            communication: self.steps() * reductions * self.allreduce(p),
        }
    }

    /// Cell-parallel CPU strategy (Fig 4 triangles): mesh partitioned,
    /// all bands everywhere, halo exchange of the full unknown each step.
    pub fn cell_parallel(&self, p: usize) -> PhasedTime {
        let rank = self.work.busiest(&ExecTarget::DistCells { ranks: p });
        let halo = self.work.halo(p);
        let comm = CommModel::new(self.machine.clone(), p);
        let per_neighbor = (halo.max_rank_bytes as usize)
            .checked_div(halo.max_neighbors)
            .unwrap_or(0);
        PhasedTime {
            intensity: self.steps() * rank.sweep.dof_updates as f64 * self.calib.c_dsl,
            temperature: self.steps() * self.temp_step(rank.share, rank.share),
            communication: self.steps() * comm.halo_exchange(halo.max_neighbors, per_neighbor),
        }
    }

    /// The hand-written comparator (Fig 9 "Fortran"): band-parallel at its
    /// own per-dof rate, with the whole temperature update repeated on
    /// every rank — the non-scaling fraction the paper calls out.
    pub fn fortran(&self, p: usize) -> PhasedTime {
        let rank = self.work.busiest(&Workload::bands(p));
        PhasedTime {
            intensity: self.steps() * rank.sweep.dof_updates as f64 * self.calib.c_base,
            temperature: self.steps() * self.temp_step(1.0, 1.0),
            communication: self.steps() * self.allreduce(p),
        }
    }

    /// Hybrid CPU+GPU (Figs 7–8): band partitioning over `g` devices, one
    /// process per device. The kernel's roofline time on the rank's dofs;
    /// the rank's scheduled copies over the host link; the CPU temperature
    /// update (band-partitioned, Newton redundant) plus the inter-process
    /// reduction.
    pub fn gpu_hybrid(&self, g: usize) -> PhasedTime {
        let rank = self.work.busiest(&Workload::gpu(g));
        let threads = rank.sweep.dof_updates as usize;
        let kernel_step =
            Device::new(self.gpu.clone()).kernel_time(threads, &self.work.device.sweep);
        let (h2d, d2h) = self.work.device_step_bytes(rank.share);
        let transfer_step =
            self.gpu.transfer_time(h2d as usize) + self.gpu.transfer_time(d2h as usize);
        PhasedTime {
            intensity: self.steps() * kernel_step,
            temperature: self.steps() * self.temp_step(rank.share, 1.0),
            communication: self.steps() * (transfer_step + self.allreduce(g)),
        }
    }

    /// Ideal strong scaling from the 1-process band-parallel anchor.
    pub fn ideal(&self, p: usize) -> f64 {
        self.band_parallel(1).total() / p as f64
    }

    /// The paper's headline ratio: CPU-only vs GPU-accelerated at equal
    /// partition counts ("about 18 times faster").
    pub fn gpu_speedup(&self, p: usize) -> f64 {
        self.band_parallel(p).total() / self.gpu_hybrid(p).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbte_bte::scenario::{hotspot_2d, BteConfig};
    use pbte_bte::temperature::TemperatureStrategy;
    use pbte_dsl::analysis::estimate_cost;
    use pbte_dsl::SolveReport;

    fn model() -> FigureModel {
        // Small mesh for speed, but the paper's angular/spectral shape
        // (20 directions x 55 groups): the nominal calibration constants
        // are per-dof/per-cell at that shape, and the phase ratios only
        // make sense with it.
        let mut cfg = BteConfig::small(24, 20, 40, 100);
        cfg.dt = Some(1e-12);
        FigureModel::new(Workload::from_config(&cfg), Calibration::nominal())
    }

    #[test]
    fn band_parallel_scales_until_the_band_limit() {
        let m = model();
        let t1 = m.band_parallel(1).total();
        let t4 = m.band_parallel(4).total();
        let t8 = m.band_parallel(8).total();
        assert!(t4 < t1 / 1.8 && t4 > t1 / 8.0);
        assert!(t8 < t4);
        // Efficiency stays within 2x of ideal at the band limit.
        assert!(t8 < 2.0 * t1 / 8.0);
    }

    #[test]
    fn divided_newton_matches_redundant_at_one_rank() {
        // With one rank there is no redundancy to remove and no extra
        // reduction round: the two strategies are the same formula.
        let m = model();
        let r = m.band_parallel(1);
        let d = m.band_parallel_divided(1);
        assert!((r.total() - d.total()).abs() < 1e-12);
    }

    #[test]
    fn divided_newton_beats_redundant_at_scale() {
        let m = model();
        let r8 = m.band_parallel(8);
        let d8 = m.band_parallel_divided(8);
        // The temperature phase now divides fully by p...
        assert!(d8.temperature < r8.temperature / 2.0);
        // ...at the price of a second allreduce per step...
        assert!(d8.communication > r8.communication);
        // ...which is a clear win at the paper's cell counts.
        assert!(d8.total() < r8.total());
    }

    #[test]
    fn cell_parallel_scales_past_the_band_limit() {
        let m = model();
        let t1 = m.cell_parallel(1).total();
        let t64 = m.cell_parallel(64).total();
        assert!(t64 < t1 / 16.0, "cell-parallel keeps scaling: {t1} → {t64}");
    }

    #[test]
    fn intensity_dominates_sequentially_and_shrinks_in_share() {
        // Fig 5's qualitative content.
        let m = model();
        let (i1, _, _) = m.band_parallel(1).percentages();
        assert!(i1 > 85.0, "intensity share at 1 process {i1} (paper ≈97%)");
        let (i8, t8, _) = m.band_parallel(8).percentages();
        assert!(i8 < i1);
        assert!(t8 > 1.0);
    }

    #[test]
    fn fortran_is_faster_sequentially_but_scales_worse() {
        // Fig 9's qualitative content.
        let m = model();
        let f1 = m.fortran(1).total();
        let d1 = m.band_parallel(1).total();
        assert!(f1 < d1, "hand-written beats the DSL sequentially");
        let f8 = m.fortran(8).total();
        let d8 = m.band_parallel(8).total();
        // Relative speedup over its own sequential time is worse.
        assert!(d1 / d8 > f1 / f8, "the redundant temperature update bites");
    }

    #[test]
    fn gpu_wins_by_an_order_of_magnitude() {
        // Fig 7's qualitative content: ≈18× at equal partition counts in
        // the paper, ≈5× here (EXPERIMENTS.md, Known deviation 3).
        let m = model();
        let s = m.gpu_speedup(1);
        assert!(s > 4.0 && s < 100.0, "speedup {s}");
    }

    #[test]
    fn gpu_breakdown_shifts_to_the_temperature_update() {
        // Fig 8 vs Fig 5: the CPU-side temperature update dominates once
        // the intensity solve is accelerated; communication stays modest.
        let m = model();
        let (_, t_cpu, _) = m.band_parallel(1).percentages();
        let (_, t_gpu, c_gpu) = m.gpu_hybrid(1).percentages();
        assert!(t_gpu > 3.0 * t_cpu, "{t_cpu} → {t_gpu}");
        assert!(c_gpu < 50.0, "communication does not dominate: {c_gpu}%");
    }

    #[test]
    fn phased_time_percentages_sum_to_100() {
        let m = model();
        for p in [1, 2, 4, 8] {
            let (a, b, c) = m.band_parallel(p).percentages();
            assert!((a + b + c - 100.0).abs() < 1e-9);
        }
    }

    /// The model's work and traffic are the executors' counts: per-rank
    /// sweep work (`bands:2`, `cells:4`), the band strategy's reduction
    /// bytes under both Newton strategies, the cell strategy's halo bytes,
    /// and a device rank's per-step copies (`gpu:async`, `bands-gpu:2`,
    /// net of the one-time uploads).
    #[test]
    fn work_and_traffic_equal_what_the_executors_count() {
        let cfg = BteConfig::small(12, 4, 6, 2);
        let w = Workload::from_config(&cfg);
        let steps = cfg.n_steps as u64;
        let solve = |cfg: &BteConfig, target: &ExecTarget| -> SolveReport {
            let mut solver = hotspot_2d(cfg).solver(target.clone()).expect("builds");
            solver.solve().expect("solves")
        };

        for (target, ranks) in [
            (Workload::bands(2), 2),
            (ExecTarget::DistCells { ranks: 4 }, 4),
        ] {
            let (rank, report) = (w.busiest(&target), solve(&cfg, &target));
            let label = target.label();
            let per_rank_step = |n: u64| n / (ranks * steps);
            assert_eq!(
                rank.sweep.dof_updates,
                per_rank_step(report.work.dof_updates),
                "{label}"
            );
            assert_eq!(
                rank.sweep.flux_evals,
                per_rank_step(report.work.flux_evals),
                "{label}"
            );
        }

        let comm_per_step = |cfg: &BteConfig, target| solve(cfg, &target).comm.bytes / steps;
        assert_eq!(
            comm_per_step(&cfg, Workload::bands(2)),
            w.reduction_bytes_per_step(2)
        );
        let divided = cfg
            .clone()
            .with_temperature_strategy(TemperatureStrategy::DividedNewton);
        assert_eq!(
            comm_per_step(&divided, Workload::bands(2)),
            2 * w.reduction_bytes_per_step(2)
        );
        let cells = ExecTarget::DistCells { ranks: 4 };
        assert_eq!(comm_per_step(&cfg, cells), w.halo(4).total_bytes);

        let once = estimate_cost(&w.cp, &Workload::gpu(1)).setup_h2d_bytes;
        for g in [1, 2] {
            let target = Workload::gpu(g);
            let profile = solve(&cfg, &target).device.expect("a device profile");
            let per_device = |bytes: u64| bytes / g as u64;
            let h2d = (per_device(profile.h2d.bytes) - once) / steps;
            let d2h = per_device(profile.d2h.bytes) / steps;
            let rank = w.busiest(&target);
            assert_eq!(
                w.device_step_bytes(rank.share),
                (h2d, d2h),
                "{}",
                target.label()
            );
        }
    }
}
