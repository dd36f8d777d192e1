//! Kernel work descriptions for the roofline timing model.
//!
//! The DSL's cost model knows statically how much arithmetic and memory
//! traffic one thread of a generated kernel performs (it prices the
//! instruction stream the kernel runs), so it attaches a [`KernelCost`] to
//! every launch. The device converts that into simulated time with the
//! classic roofline:
//!
//! ```text
//! t = launch_latency + max(flops / F_eff, bytes / B) / wave_util
//! F_eff = 0.5 * peak_dp * issue_efficiency
//! ```
//!
//! The `0.5` factor reflects that the datasheet peak counts an FMA as two
//! FLOPs; a kernel whose mix contains no fusable multiply-adds can reach
//! at most half of peak. This — not any tuned constant — is what holds the
//! BTE intensity kernel below the paper's "49% of DP peak" profile: its
//! additions and multiplies are counted unfused.

/// Static per-thread work description of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Floating-point operations per thread (an FMA counts as 2).
    pub flops_per_thread: f64,
    /// Bytes read from device memory per thread after cache reuse (the
    /// cost model divides raw loads by the expected reuse factor of
    /// neighbor-shared values).
    pub bytes_read_per_thread: f64,
    /// Bytes written to device memory per thread.
    pub bytes_written_per_thread: f64,
}

impl KernelCost {
    /// A uniform stencil-update kernel.
    pub fn stencil(flops: f64, bytes_read: f64, bytes_written: f64) -> KernelCost {
        KernelCost {
            flops_per_thread: flops,
            bytes_read_per_thread: bytes_read,
            bytes_written_per_thread: bytes_written,
        }
    }

    /// Total flops for a launch of `n` threads.
    pub fn total_flops(&self, n: usize) -> f64 {
        self.flops_per_thread * n as f64
    }

    /// Total device-memory bytes for a launch of `n` threads.
    pub fn total_bytes(&self, n: usize) -> f64 {
        (self.bytes_read_per_thread + self.bytes_written_per_thread) * n as f64
    }

    /// Arithmetic intensity in FLOP/byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops_per_thread / (self.bytes_read_per_thread + self.bytes_written_per_thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_scale_with_threads() {
        let c = KernelCost::stencil(40.0, 96.0, 8.0);
        assert_eq!(c.total_flops(1000), 40_000.0);
        assert_eq!(c.total_bytes(1000), 104_000.0);
        assert!((c.arithmetic_intensity() - 40.0 / 104.0).abs() < 1e-15);
    }
}
