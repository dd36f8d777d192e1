//! The eight workloads. Names are stable: later issues refer to them.
//!
//! Four of them are *gated*: `BENCHMARK.json` lists them and the acceptance
//! driver bounds their end-to-end metrics. They are the single-threaded
//! lanes. The other four run two threads (or `rustc`) on a two-vCPU shared
//! guest, where every fork-join waits for the hypervisor to schedule the
//! second vCPU: the same code measured twice spread 28-49 % on the driver's
//! host, past the 25 % a bound may be. `run`, `measure` and `compare` take
//! them all the same; a claim on an ungated lane needs the ten alternating
//! pairs of `choosing-metrics` section 8 (README, "Gated and ungated").

use crate::gen;
use pbte_dsl::{ExecTarget, GpuStrategy, KernelTier};
use pbte_gpu::DeviceSpec;

/// Execution target of a workload, as `pbte-trace target=` spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Seq,
    Par,
    Bands,
    GpuAsync,
}

impl Target {
    pub fn exec(self) -> ExecTarget {
        match self {
            Target::Seq => ExecTarget::CpuSeq,
            Target::Par => ExecTarget::CpuParallel,
            Target::Bands => ExecTarget::DistBands {
                ranks: bands_ranks(),
                index: "b".into(),
            },
            Target::GpuAsync => ExecTarget::GpuHybrid {
                spec: DeviceSpec::a6000(),
                strategy: GpuStrategy::AsyncBoundary,
            },
        }
    }
}

/// Cores the host offers; recorded with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Ranks of the band-partitioned lane: never more busy threads than cores.
pub fn bands_ranks() -> usize {
    nproc().min(2)
}

/// What a workload's output is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// The independent hand-written `pbte_baseline::BaselineSolver`:
    /// max |dT| <= 1e-10 K.
    Baseline,
    /// One untimed `hotspot_seq` run; hashes must be equal.
    SeqBitIdentical,
    /// One untimed `hotspot_seq` run; max |dT| <= 1e-10 K.
    SeqTolerance,
    /// One untimed run of the same files on `tier=vm target=seq`, the
    /// generic stack interpreter; hashes must be equal. Weaker than the
    /// baseline check: it shares everything above the kernel tier.
    CrossTier,
}

impl Reference {
    pub fn label(self) -> &'static str {
        match self {
            Reference::Baseline => "baseline",
            Reference::SeqBitIdentical => "seq-bit-identical",
            Reference::SeqTolerance => "seq-tolerance",
            Reference::CrossTier => "cross-tier",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// `Some(file)` for one scenario, `None` for the sweep list.
    pub file: Option<&'static str>,
    pub target: Target,
    /// Every run starts with an empty native cache directory.
    pub cold_cache: bool,
    /// Loops the warm sweep `Sizes::warm_loops()` times over its list.
    pub looped: bool,
    pub reference: Reference,
    /// Listed in `BENCHMARK.json` (single-threaded, so steady enough for a
    /// bound on a shared host).
    pub gated: bool,
}

impl Workload {
    /// Scenario files of one pass, relative to the inputs directory.
    pub fn files(&self) -> Vec<String> {
        match self.file {
            Some(f) => vec![f.to_string()],
            None => (0..gen::SWEEP_LEN).map(gen::sweep_file).collect(),
        }
    }
}

/// Tier every workload asks for; the reference runs ask for `Vm`.
pub const REQUESTED_TIER: KernelTier = KernelTier::Native;

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "hotspot_seq",
        why: "paper Figs 1-2 die, target=seq tier=native warm: the single-threaded baseline lane, intensity sweep ~85% of the solve",
        file: Some("hotspot.pbte"),
        target: Target::Seq,
        cold_cache: false,
        looped: false,
        reference: Reference::Baseline,
        gated: true,
    },
    Workload {
        name: "hotspot_par",
        why: "same file, target=par: only the thread launch path differs, so pool or fusion work moves this lane and leaves hotspot_seq flat",
        file: Some("hotspot.pbte"),
        target: Target::Par,
        cold_cache: false,
        looped: false,
        reference: Reference::SeqBitIdentical,
        gated: false,
    },
    Workload {
        name: "hotspot_bands",
        why: "same file, target=bands ranks=2: band partition, divided Newton and its exact allreduce; the communication lane",
        file: Some("hotspot.pbte"),
        target: Target::Bands,
        cold_cache: false,
        looped: false,
        reference: Reference::SeqTolerance,
        gated: false,
    },
    Workload {
        name: "hotspot_gpu",
        why: "same file, target=gpu:async on the simulated A6000: host time driving transfers, launches and the CPU temperature update",
        file: Some("hotspot.pbte"),
        target: Target::GpuAsync,
        cold_cache: false,
        looped: false,
        reference: Reference::SeqTolerance,
        gated: false,
    },
    Workload {
        name: "die3d_implicit",
        why: "3-D MEDIT die, implicit theta=1: RHS and JVP inside BiCGStab with exact dots; bypass lane for explicit-only kernel work",
        file: Some("die3d.pbte"),
        target: Target::Seq,
        cold_cache: false,
        looped: false,
        reference: Reference::CrossTier,
        gated: true,
    },
    Workload {
        name: "array_unstructured",
        why: "96x96 jittered Gmsh quads: flux does not linearize so native clamps to bound; the non-affine path and visible mesh import",
        file: Some("array.pbte"),
        target: Target::Seq,
        cold_cache: false,
        looped: false,
        reference: Reference::CrossTier,
        gated: true,
    },
    Workload {
        name: "sweep_cold",
        why: "6 small scenarios (3 plans + 1 JVP plan), empty native cache: rustc dominates; only emitted-source size or compile overlap moves it",
        file: None,
        target: Target::Seq,
        cold_cache: true,
        looped: false,
        reference: Reference::CrossTier,
        gated: false,
    },
    Workload {
        name: "sweep_warm",
        why: "6 small scenarios (3 band counts x 2) looped 10x, native cache primed: parse, lowering, verify gate and per-solve fixed costs dominate; no rustc",
        file: None,
        target: Target::Seq,
        cold_cache: false,
        looped: true,
        reference: Reference::CrossTier,
        gated: true,
    },
];

/// The workloads `BENCHMARK.json` lists.
#[cfg(test)]
pub fn gated() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().filter(|w| w.gated)
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
