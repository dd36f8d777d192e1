//! Figure-reproduction harness for the paper's evaluation section.
//!
//! The paper's measurements come from a Cascade Lake cluster with A6000
//! GPUs; this workspace runs on a 2-core shared x86-64 guest and no GPU.
//! The harness therefore splits each experiment into
//!
//! 1. **the plan** — the headline problem compiled by the DSL
//!    ([`workload`]): what each rank of a target sweeps
//!    (`analysis::rank_scopes`), what a device rank copies per step and
//!    what one device thread costs (`analysis::estimate_cost`), and the
//!    halo the real 120×120 mesh's partitions exchange
//!    (`analysis::interface_send_lists`);
//! 2. **measured rates** — one traced solve of the shipped solver on this
//!    host at the benchmark lanes' tier ([`calibration`]): seconds per dof
//!    update of the DSL path and of the hand-written baseline, seconds per
//!    cell of the temperature update and of each of its three passes;
//! 3. **a first-principles machine model** — the α–β communication model
//!    of `pbte-runtime` plus the device roofline and host link of
//!    `pbte-gpu` ([`model`]), which price the plan's work at the paper's
//!    scales and rank counts.
//!
//! Nothing in the model is fitted per figure; the strong-scaling shapes,
//! breakdowns, crossovers and the GPU speedup all *emerge* from the plan,
//! the measured rates and the machine parameters. Absolute times differ
//! from the paper's (different per-core speed, Julia vs Rust), which is
//! expected and documented in EXPERIMENTS.md.
//!
//! One binary per figure/table regenerates the corresponding series
//! (`fig3_comm_volume`, `fig4_cpu_scaling`, `fig5_cpu_breakdown`,
//! `fig7_gpu_scaling`, `fig8_gpu_breakdown`, `fig9_strategy_comparison`,
//! `profile_table`, `fig2_field` via the examples); each prints what its
//! solves ran (tier, flux path, walls, commit), and the `fig*` ones write
//! `results/calibration.json` beside their figure. Criterion benches cover
//! the micro level (kernel evaluation, temperature Newton, symbolic
//! pipeline, partitioners, simulated-device overhead).

pub mod calibration;
pub mod figures;
pub mod model;
pub mod workload;

pub use calibration::Calibration;
pub use model::{FigureModel, PhasedTime};
pub use workload::Workload;
