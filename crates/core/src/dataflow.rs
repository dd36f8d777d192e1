//! Automatic host↔device data-movement schedule.
//!
//! The paper: *"Given the sensitivity of communication, Finch will
//! automatically determine what variables need to be updated and
//! communicated during each step. Other values will either only be sent
//! once, or not at all."* The determination itself is
//! [`crate::analysis::synthesize_schedule`], which derives reader/writer
//! sets from the compiled kernels and the callback catalog and ships a
//! certificate with every schedule; this module holds the schedule it
//! produces:
//!
//! * **coefficients** are immutable: device copies are made once;
//! * the **unknown** returns to the host each step whenever some host
//!   site reads it, and returns *and* re-uploads each step under the
//!   async-boundary strategy while a callback wall exists (the host
//!   combines the boundary contribution into it);
//! * other kernel-read variables (`Io`, `beta`) re-upload each step only
//!   when a host callback rewrites them;
//! * the **ghost array** uploads each step only under the
//!   precompute-boundary strategy with a callback wall; when every wall
//!   is lowered into the plan it uploads once, under either strategy, and
//!   the unknown stays device-resident.

use crate::problem::GpuStrategy;

/// When a piece of data moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Once,
    EveryStep,
    Never,
}

/// One planned transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Entity name (variable, coefficient, or the ghost array).
    pub name: String,
    /// True = host→device.
    pub to_device: bool,
    pub policy: Policy,
    /// Why the analysis decided this (rendered into the generated code as
    /// a comment, like Finch's annotated output).
    pub reason: String,
}

/// The complete schedule for a GPU strategy.
#[derive(Debug, Clone)]
pub struct TransferSchedule {
    pub strategy: GpuStrategy,
    pub transfers: Vec<Transfer>,
}

impl TransferSchedule {
    /// Names moved host→device every step.
    pub fn each_step_h2d(&self) -> Vec<&str> {
        self.transfers
            .iter()
            .filter(|t| t.to_device && t.policy == Policy::EveryStep)
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Names moved device→host every step.
    pub fn each_step_d2h(&self) -> Vec<&str> {
        self.transfers
            .iter()
            .filter(|t| !t.to_device && t.policy == Policy::EveryStep)
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Names moved once at setup.
    pub fn once(&self) -> Vec<&str> {
        self.transfers
            .iter()
            .filter(|t| t.policy == Policy::Once)
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Render as the comment block the generated host code carries.
    pub fn render(&self) -> String {
        let mut out = String::from("// automatic data-movement schedule:\n");
        for t in &self.transfers {
            let dir = if t.to_device { "H2D" } else { "D2H" };
            let when = match t.policy {
                Policy::Once => "once      ",
                Policy::EveryStep => "every step",
                Policy::Never => "never     ",
            };
            out.push_str(&format!(
                "//   {dir} {when} {:<12} — {}\n",
                t.name, t.reason
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::synthesize_schedule;
    use crate::exec::CompiledProblem;
    use crate::problem::{BoundaryCondition, Problem};

    /// `callback_walls`: the paper's configuration, boundary conditions as
    /// user callbacks; otherwise constants, which the plan lowers.
    fn bte_like(
        with_post_step: bool,
        callback_walls: bool,
        strategy: GpuStrategy,
    ) -> TransferSchedule {
        let mut p = Problem::new("bte");
        p.domain(2);
        p.mesh(pbte_mesh::grid::UniformGrid::new_2d(2, 2, 1.0, 1.0).build());
        let d = p.index("d", 2);
        let b = p.index("b", 2);
        let i = p.variable("I", &[d, b]);
        let _ = p.variable("Io", &[b]);
        let _ = p.variable("beta", &[b]);
        p.coefficient_array("Sx", &[d], vec![1.0, -1.0]);
        p.coefficient_array("Sy", &[d], vec![0.0, 0.0]);
        p.coefficient_array("vg", &[b], vec![1.0, 2.0]);
        p.conservation_form(
            i,
            "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
        );
        for region in ["left", "right", "top", "bottom"] {
            p.boundary(
                i,
                region,
                if callback_walls {
                    BoundaryCondition::callback_reading(&[], |_| 0.0)
                } else {
                    BoundaryCondition::Value(0.0)
                },
            );
        }
        if with_post_step {
            p.post_step(|_| {});
        }
        let (cp, _) = CompiledProblem::compile(p).unwrap();
        synthesize_schedule(&cp, strategy).0
    }

    #[test]
    fn bte_async_schedule_matches_the_paper() {
        let s = bte_like(true, true, GpuStrategy::AsyncBoundary);
        // Every step: I moves both ways; Io and beta move to the device.
        let h2d = s.each_step_h2d();
        assert!(h2d.contains(&"I"));
        assert!(h2d.contains(&"Io"));
        assert!(h2d.contains(&"beta"));
        assert_eq!(s.each_step_d2h(), vec!["I"]);
        // Coefficients only once.
        let once = s.once();
        assert!(once.contains(&"Sx"));
        assert!(once.contains(&"Sy"));
        assert!(once.contains(&"vg"));
        assert!(!h2d.contains(&"vg"));
    }

    #[test]
    fn precompute_keeps_unknown_device_resident() {
        let s = bte_like(true, true, GpuStrategy::PrecomputeBoundary);
        let h2d = s.each_step_h2d();
        assert!(!h2d.contains(&"I"), "unknown must stay on the device");
        assert!(h2d.contains(&"ghosts"));
        assert_eq!(s.each_step_d2h(), vec!["I"]);
    }

    #[test]
    fn no_post_step_means_static_variables() {
        let s = bte_like(false, true, GpuStrategy::PrecomputeBoundary);
        assert!(s.each_step_h2d().iter().all(|&n| n == "ghosts"));
        assert!(s.each_step_d2h().is_empty());
        let once = s.once();
        assert!(once.contains(&"Io"));
        assert!(once.contains(&"beta"));
    }

    /// With every wall lowered no host code touches the boundary: both
    /// strategies derive the same schedule, the unknown and the ghost
    /// image go up once.
    #[test]
    fn lowered_walls_leave_both_strategies_one_schedule() {
        let a = bte_like(true, false, GpuStrategy::AsyncBoundary);
        let p = bte_like(true, false, GpuStrategy::PrecomputeBoundary);
        assert_eq!(a.transfers, p.transfers);
        let h2d = a.each_step_h2d();
        assert!(!h2d.contains(&"I") && !h2d.contains(&"ghosts"));
        assert!(h2d.contains(&"Io") && h2d.contains(&"beta"));
        assert!(a.once().contains(&"I") && a.once().contains(&"ghosts"));
        assert_eq!(a.each_step_d2h(), vec!["I"]);
    }

    #[test]
    fn render_mentions_every_transfer() {
        let s = bte_like(true, true, GpuStrategy::AsyncBoundary);
        let text = s.render();
        for t in &s.transfers {
            assert!(text.contains(&t.name));
        }
        assert!(text.contains("H2D"));
        assert!(text.contains("D2H"));
    }
}
