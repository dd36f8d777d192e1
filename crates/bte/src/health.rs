//! Physics health probes: per-step sanity checks on the BTE state.
//!
//! Numerical trouble in the BTE shows up in three recognizable ways long
//! before a run visibly diverges: NaNs leaking into the intensity field
//! (usually a CFL violation or a bad boundary value), negative intensities
//! (the upwind scheme is positivity-preserving, so any appearance means a
//! scheme or data bug), and a broken per-cell energy budget (the
//! temperature update enforces `Σ_b β_b·4π·I⁰_b(T) = Σ_b β_b·Σ_d w_d·I`,
//! so a residual above tolerance means the scattering operator is
//! depositing energy it shouldn't).
//!
//! [`HealthProbes`] packages all three as a declared post-step callback.
//! Each probe that fires records one finding per step through the step's
//! recorder (`ctx.rec`), which every sink keeps: the run's `SolveReport`
//! carries it and `exec::telemetry_diagnostics` lifts it into the
//! [`Diagnostic`](pbte_dsl::Diagnostic) type the static plan verifier
//! uses, traced or not. The budget probe also feeds an `energy_residual`
//! sample series.
//!
//! The probes are **opt-in**: nothing installs them by default, so
//! solver hot paths are unaffected unless a driver (e.g. `pbte-trace
//! --health`) asks for them.
//!
//! **Distribution.** Each rank scans only the intensity entries it owns
//! (a band range under band partitioning, a cell list under cell
//! partitioning). Emission and absorption are sums over the bands, so
//! under band partitioning one fold per step in rank order carries them
//! across the ranks' band ranges and the residual is formed from the
//! totals — the probe participates in the collective unconditionally,
//! keeping all ranks in lockstep.

use crate::material::Material;
use crate::temperature::BteVars;
use pbte_dsl::problem::{Problem, StepContext};
use pbte_runtime::telemetry::Severity;
use std::sync::Arc;

/// Rule identifiers for health findings (`Diagnostic::rule`).
pub mod rules {
    /// A NaN appeared in the intensity field (severity: error).
    pub const NAN_INTENSITY: &str = "physics/nan-intensity";
    /// A negative intensity appeared (severity: warning — the upwind
    /// scheme should be positivity-preserving).
    pub const NEGATIVE_INTENSITY: &str = "physics/negative-intensity";
    /// The per-cell energy-conservation residual exceeded tolerance
    /// (severity: warning).
    pub const ENERGY_BUDGET: &str = "physics/energy-budget";
}

/// Configuration of the per-step physics health probes.
#[derive(Debug, Clone)]
pub struct HealthProbes {
    pub material: Arc<Material>,
    pub vars: BteVars,
    /// Relative tolerance on the per-cell energy residual
    /// `|emission − absorption| / emission`.
    pub energy_tol: f64,
}

impl HealthProbes {
    /// Probes with the standard tolerance. The temperature update solves
    /// the budget to `|ΔT| < 1e-9 K`, which leaves relative residuals
    /// around 1e-12; `1e-6` keeps a wide margin above float noise while
    /// catching any genuinely broken state.
    pub fn new(material: Arc<Material>, vars: BteVars) -> HealthProbes {
        HealthProbes {
            material,
            vars,
            energy_tol: 1e-6,
        }
    }

    /// Register as a declared post-step callback (install **after** the
    /// temperature update so the probes see the freshly rewritten
    /// `T`/`Io`/`beta`).
    pub fn install(self, problem: &mut Problem) {
        let name = |v: usize| problem.registry.variables[v].name.clone();
        let (i, io, beta) = (name(self.vars.i), name(self.vars.io), name(self.vars.beta));
        problem.post_step("health_probes", &[&i, &io, &beta], &[], move |ctx| {
            self.check(ctx)
        });
    }

    /// Run all probes for the current step. Public so drivers and tests
    /// can invoke the checks on a hand-built [`StepContext`] without
    /// registering a callback.
    pub fn check(&self, ctx: &mut StepContext) {
        let material = &self.material;
        let n_bands = material.n_bands();
        let n_dirs = material.n_dirs();
        let n_cells = ctx.fields.n_cells;
        let weights = &material.angles.weights;

        let owned_b: std::ops::Range<usize> = match &ctx.owned_index_range {
            Some((name, range)) => {
                debug_assert_eq!(name, "b");
                range.clone()
            }
            None => 0..n_bands,
        };
        let banded = ctx.owned_index_range.is_some();

        // --- Probe 1+2: NaN / negativity watchdog over owned dofs. ---
        // NaN comparisons are all false, so the two scans are independent:
        // a NaN never double-reports as "negative".
        let i_slice = ctx.fields.slice(self.vars.i);
        let mut nan_count = 0u64;
        let mut neg_count = 0u64;
        let mut first_nan: Option<(usize, usize, usize)> = None; // (d, b, cell)
        let mut first_neg: Option<(usize, usize, usize, f64)> = None;
        for d in 0..n_dirs {
            for b in owned_b.clone() {
                let plane = &i_slice[(d * n_bands + b) * n_cells..][..n_cells];
                let mut scan = |cell: usize| {
                    let v = plane[cell];
                    if v.is_nan() {
                        nan_count += 1;
                        first_nan.get_or_insert((d, b, cell));
                    } else if v < 0.0 {
                        neg_count += 1;
                        first_neg.get_or_insert((d, b, cell, v));
                    }
                };
                match ctx.owned_cells {
                    Some(owned) => owned.iter().for_each(|&cell| scan(cell)),
                    None => (0..n_cells).for_each(&mut scan),
                }
            }
        }

        // --- Probe 3: per-cell energy budget. ---
        // emission[cell]   = Σ_b beta[b,cell] · 4π · Io[b,cell]
        // absorption[cell] = Σ_b beta[b,cell] · Σ_d w_d I[d,b,cell]
        // Both sums run over the bands ascending, so under band
        // partitioning a fold in rank order carries them across the ranks'
        // band ranges. Layout: [emission; n_cells | absorption; n_cells].
        let four_pi = 4.0 * std::f64::consts::PI;
        let io_slice = ctx.fields.slice(self.vars.io);
        let beta_slice = ctx.fields.slice(self.vars.beta);
        let mut acc = vec![0.0; 2 * n_cells];
        let mut add = |acc: &mut [f64]| {
            let (emission, absorption) = acc.split_at_mut(n_cells);
            let mut accumulate = |cell: usize| {
                for b in owned_b.clone() {
                    let bb = beta_slice[b * n_cells + cell];
                    emission[cell] += bb * four_pi * io_slice[b * n_cells + cell];
                    let mut s = 0.0;
                    for (d, &w) in weights.iter().enumerate().take(n_dirs) {
                        s += w * i_slice[(d * n_bands + b) * n_cells + cell];
                    }
                    absorption[cell] += bb * s;
                }
            };
            match ctx.owned_cells {
                Some(owned) => owned.iter().for_each(|&cell| accumulate(cell)),
                None => (0..n_cells).for_each(&mut accumulate),
            }
        };
        match banded {
            // Collective: every rank reaches this call every step.
            true => ctx.reducer.fold(&mut acc, &mut add),
            false => add(&mut acc),
        }
        let (emission, absorption) = acc.split_at(n_cells);
        let mut max_rel = 0.0f64;
        let mut worst_cell = 0usize;
        let mut check_cell = |cell: usize| {
            let residual = emission[cell] - absorption[cell];
            let rel = residual.abs() / emission[cell].abs().max(f64::MIN_POSITIVE);
            if rel > max_rel {
                max_rel = rel;
                worst_cell = cell;
            }
        };
        match ctx.owned_cells {
            Some(owned) => owned.iter().for_each(|&cell| check_cell(cell)),
            None => (0..n_cells).for_each(&mut check_cell),
        }

        // --- Report. ---
        let step = ctx.step;
        if let Some((d, b, cell)) = first_nan {
            let message = format!(
                "{nan_count} NaN intensity value(s) at step {step}; first at \
                 direction {d}, band {b}, cell {cell}"
            );
            ctx.rec.warn(Severity::Error, rules::NAN_INTENSITY, message);
        }
        if let Some((d, b, cell, v)) = first_neg {
            let message = format!(
                "{neg_count} negative intensity value(s) at step {step}; first is \
                 {v:.3e} at direction {d}, band {b}, cell {cell}"
            );
            ctx.rec
                .warn(Severity::Warning, rules::NEGATIVE_INTENSITY, message);
        }
        // A NaN poisons the residual sums (and NaN comparisons are
        // false), so the budget verdict is only meaningful on NaN-free
        // state; the NaN diagnostic above already covers that case.
        if nan_count == 0 {
            ctx.rec.sample("energy_residual", step, max_rel);
            if max_rel > self.energy_tol {
                let message = format!(
                    "energy budget violated at step {step}: max relative residual \
                     {max_rel:.3e} (tol {:.1e}) at cell {worst_cell}",
                    self.energy_tol
                );
                ctx.rec
                    .warn(Severity::Warning, rules::ENERGY_BUDGET, message);
            }
        }
    }
}
