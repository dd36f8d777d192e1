//! Simulated distributed runtime.
//!
//! The paper's CPU experiments run up to 320 MPI processes on dual-socket
//! Cascade Lake nodes; this workspace has one core and no MPI, so the
//! runtime splits the two things MPI provides:
//!
//! * **Correctness** — [`world::World`] runs every rank as a real OS thread
//!   with typed message passing (selective receive, and a fold that
//!   visits the ranks in rank order), so partitioned algorithms are
//!   executed for real and validated bit for bit against sequential runs
//!   at small scale.
//! * **Performance** — [`machine::MachineSpec`] + [`comm::CommModel`]
//!   convert counted work (dof-updates, message bytes, collective shapes)
//!   into predicted wall-clock per rank count on the paper's cluster. The
//!   per-core compute rate is *calibrated* by timing traced solves on
//!   this host (the bench crate's `Calibration::measure`), never fitted
//!   per figure.
//!
//! [`timer::PhaseTimer`] accumulates the per-phase times both paths report,
//! feeding the paper's breakdown figures (Figs 5 and 8).
//! [`telemetry::Recorder`] is the unified sink above it: structured spans,
//! events, per-step records and work counters that every executor feeds,
//! with Chrome-trace (Perfetto) and JSONL exporters.
//! [`once::OnceMap`] is the process-wide once-per-key cell: what is built
//! from content — a lowered plan, a loaded native library, a material
//! table — is built once per process and key, outside any shared lock.

pub mod comm;
pub mod exact;
pub mod machine;
pub mod once;
pub mod telemetry;
pub mod timer;
pub mod world;

pub use comm::{CommModel, CommParams};
pub use machine::MachineSpec;
pub use once::OnceMap;
pub use telemetry::{CostExpectation, Recorder, TraceConfig, WorkCounters};
pub use timer::{Breakdown, PhaseTimer};
pub use world::{RankCtx, World};
