//! α–β communication cost model.
//!
//! Every operation is priced with the classic latency–bandwidth model
//! `t = α + bytes/β`, composed into the collective shapes MPI
//! implementations actually use (recursive doubling for allreduce,
//! pairwise neighbor exchanges for halos). The model is deliberately simple:
//! the scaling *shapes* in the paper are driven by how message volume
//! changes with rank count, which these formulas capture.

use crate::machine::MachineSpec;

/// Point-to-point transport parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommParams {
    /// One-way message latency in seconds.
    pub latency: f64,
    /// Sustained bandwidth in bytes/s.
    pub bandwidth: f64,
}

impl CommParams {
    /// Time to move one message of `bytes`.
    pub fn message(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// Cost model for a job of `p` ranks on a machine.
#[derive(Debug, Clone)]
pub struct CommModel {
    pub machine: MachineSpec,
    pub p: usize,
}

impl CommModel {
    /// Build for a rank count.
    pub fn new(machine: MachineSpec, p: usize) -> CommModel {
        assert!(p > 0);
        CommModel { machine, p }
    }

    /// Worst-link parameters for collectives spanning all ranks: inter-node
    /// if the job spans nodes, intra-node otherwise.
    fn span_link(&self) -> CommParams {
        if self.p > self.machine.cores_per_node {
            self.machine.inter_node
        } else {
            self.machine.intra_node
        }
    }

    /// Allreduce of `bytes` over all `p` ranks (recursive doubling:
    /// ⌈log₂ p⌉ rounds, full payload each round).
    pub fn allreduce(&self, bytes: usize) -> f64 {
        if self.p == 1 {
            return 0.0;
        }
        let rounds = (self.p as f64).log2().ceil();
        rounds * self.span_link().message(bytes)
    }

    /// Halo exchange: each rank sends/receives `bytes_per_neighbor` with
    /// `n_neighbors` partition neighbors. Sends overlap pairwise, so the
    /// cost is the per-rank serialization of its own messages.
    pub fn halo_exchange(&self, n_neighbors: usize, bytes_per_neighbor: usize) -> f64 {
        if self.p == 1 {
            return 0.0;
        }
        n_neighbors as f64 * self.span_link().message(bytes_per_neighbor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;

    fn model(p: usize) -> CommModel {
        CommModel::new(MachineSpec::cascade_lake(), p)
    }

    #[test]
    fn single_rank_is_free() {
        let m = model(1);
        assert_eq!(m.allreduce(1 << 20), 0.0);
        assert_eq!(m.halo_exchange(4, 1 << 16), 0.0);
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let b = 1 << 20;
        let t2 = model(2).allreduce(b);
        let t4 = model(4).allreduce(b);
        let t16 = model(16).allreduce(b);
        assert!((t4 / t2 - 2.0).abs() < 1e-9);
        assert!((t16 / t2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spanning_nodes_uses_the_network() {
        // 40 ranks fit one node; 41 spill onto the network.
        let b = 1 << 20;
        assert!(model(41).allreduce(b) > model(32).allreduce(b));
    }

    #[test]
    fn message_cost_has_latency_floor() {
        let p = CommParams {
            latency: 1e-6,
            bandwidth: 1e9,
        };
        assert!(p.message(0) == 1e-6);
        assert!((p.message(1000) - 2e-6).abs() < 1e-12);
    }
}
