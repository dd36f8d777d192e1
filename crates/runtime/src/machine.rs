//! Machine descriptions for the performance model.
//!
//! The reference machine mirrors the paper's testbed: two-socket Intel Xeon
//! Cascade Lake nodes, 40 cores and 192 GB per node, with an InfiniBand-
//! class interconnect, and for the GPU experiments eight NVIDIA A6000s per
//! node (one process paired with one device).

use crate::comm::CommParams;

/// Static description of the cluster the model predicts for.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    pub name: &'static str,
    /// Cores (= max processes) per node.
    pub cores_per_node: usize,
    /// GPUs per node (0 for CPU partitions).
    pub gpus_per_node: usize,
    /// Shared-memory transport between ranks on one node.
    pub intra_node: CommParams,
    /// Network transport between nodes.
    pub inter_node: CommParams,
    /// Per-core sustained memory bandwidth in bytes/s when all cores are
    /// active (DRAM bandwidth divided by cores; Cascade Lake node ≈ 140
    /// GB/s over 40 cores). Memory-bound codes like the BTE gather loop
    /// scale with this, not with FLOP peak.
    pub core_mem_bandwidth: f64,
    /// Per-core double-precision throughput in FLOP/s achievable by
    /// non-vectorized scalar code (≈ 2 flops/cycle × 2.5 GHz).
    pub core_flops: f64,
}

impl MachineSpec {
    /// The paper's CPU cluster: 2-socket Cascade Lake, 40 cores/node.
    pub fn cascade_lake() -> MachineSpec {
        MachineSpec {
            name: "2x Xeon Cascade Lake, 40 cores/node",
            cores_per_node: 40,
            gpus_per_node: 0,
            intra_node: CommParams {
                latency: 0.5e-6,
                bandwidth: 10e9,
            },
            inter_node: CommParams {
                latency: 2.0e-6,
                bandwidth: 10e9,
            },
            core_mem_bandwidth: 140e9 / 40.0,
            core_flops: 5e9,
        }
    }

    /// The paper's GPU nodes: same host CPUs, 8 A6000s per node.
    pub fn gpu_node() -> MachineSpec {
        MachineSpec {
            gpus_per_node: 8,
            ..MachineSpec::cascade_lake()
        }
    }

    /// Are two ranks on the same node (ranks are packed by node)?
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        a / self.cores_per_node == b / self.cores_per_node
    }

    /// Number of nodes needed for `p` ranks.
    pub fn nodes_for(&self, p: usize) -> usize {
        p.div_ceil(self.cores_per_node)
    }

    /// Seconds for one core to execute `flops` floating-point operations
    /// while streaming `bytes` from memory — the same max() roofline used
    /// on the device side, with an `efficiency` factor for the code being
    /// modeled (measured on the host by the bench crate's
    /// `Calibration::measure`, not assumed).
    pub fn core_time(&self, flops: f64, bytes: f64, efficiency: f64) -> f64 {
        let t_compute = flops / (self.core_flops * efficiency);
        let t_memory = bytes / self.core_mem_bandwidth;
        t_compute.max(t_memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_packing() {
        let m = MachineSpec::cascade_lake();
        assert!(m.same_node(0, 39));
        assert!(!m.same_node(39, 40));
        assert_eq!(m.nodes_for(1), 1);
        assert_eq!(m.nodes_for(40), 1);
        assert_eq!(m.nodes_for(41), 2);
        assert_eq!(m.nodes_for(320), 8);
    }

    #[test]
    fn core_time_roofline() {
        let m = MachineSpec::cascade_lake();
        // Compute bound: lots of flops, few bytes.
        let t1 = m.core_time(1e9, 1e3, 1.0);
        assert!((t1 - 0.2).abs() < 1e-9);
        // Memory bound: scales with bandwidth.
        let t2 = m.core_time(1.0, 3.5e9, 1.0);
        assert!((t2 - 1.0).abs() < 1e-9);
        // Lower efficiency slows compute-bound work proportionally.
        assert!((m.core_time(1e9, 0.0, 0.5) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn gpu_node_has_devices() {
        assert_eq!(MachineSpec::gpu_node().gpus_per_node, 8);
        assert_eq!(MachineSpec::cascade_lake().gpus_per_node, 0);
    }
}
