//! Simulated CUDA-like GPU device.
//!
//! The paper's GPU target runs on Nvidia A6000/A100 hardware through
//! CUDA.jl. This machine has no GPU, so this crate substitutes a **device
//! simulator** with two independent responsibilities:
//!
//! 1. **Numerics** — [`Device::launch_rows`] executes a kernel body over
//!    its grid of thread blocks on the host (one row per block, across a
//!    rayon pool), so the computed values are exactly what a
//!    one-thread-per-dof CUDA kernel would produce.
//! 2. **Timing** — a first-principles roofline model
//!    ([`spec::DeviceSpec`] + [`kernel::KernelCost`]) converts counted
//!    work (flops, bytes, transfer sizes) into *simulated device seconds*,
//!    which the benchmark harness uses to regenerate the paper's
//!    performance figures. Wall-clock on this host is never used for GPU
//!    timing.
//!
//! The [`profiler`] aggregates per-kernel statistics into the same metrics
//! the paper reports from Nvidia's profiler: SM utilization, memory
//! throughput as a fraction of peak, and FLOP rate as a fraction of the
//! double-precision peak.

pub mod buffer;
pub mod device;
pub mod kernel;
pub mod profiler;
pub mod spec;

pub use buffer::DeviceBuffer;
pub use device::Device;
pub use kernel::KernelCost;
pub use profiler::{KernelProfile, ProfileReport};
pub use spec::DeviceSpec;
