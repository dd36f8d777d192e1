//! The simulated device: allocation, transfers, kernel launches, and the
//! simulated clock.

use crate::buffer::DeviceBuffer;
use crate::kernel::KernelCost;
use crate::profiler::Profiler;
use crate::spec::DeviceSpec;
use rayon::prelude::*;

/// A simulated GPU.
///
/// All timing is *simulated*: methods advance [`Device::elapsed`] according
/// to the roofline/transfer models and never measure host wall-clock.
/// Numerical results are real — kernel bodies execute on the host over the
/// full thread index space.
pub struct Device {
    pub spec: DeviceSpec,
    elapsed: f64,
    allocated: usize,
    profiler: Profiler,
}

impl Device {
    /// Create a device from a hardware spec.
    pub fn new(spec: DeviceSpec) -> Device {
        Device {
            spec,
            elapsed: 0.0,
            allocated: 0,
            profiler: Profiler::default(),
        }
    }

    /// Simulated seconds spent so far (kernels + transfers).
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Bytes of device memory currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated
    }

    /// Cumulative host→device bytes moved so far (profiler counter) —
    /// cheap enough to sample around a step for per-step observed bytes.
    pub fn h2d_bytes(&self) -> u64 {
        self.profiler.h2d_bytes()
    }

    /// Cumulative device→host bytes moved so far.
    pub fn d2h_bytes(&self) -> u64 {
        self.profiler.d2h_bytes()
    }

    /// Allocate a zero-initialized device buffer.
    ///
    /// # Panics
    /// If the allocation would exceed the device's memory capacity — the
    /// same hard failure a real `cudaMalloc` would report.
    pub fn alloc(&mut self, label: &str, len: usize) -> DeviceBuffer {
        let bytes = len * std::mem::size_of::<f64>();
        assert!(
            self.allocated + bytes <= self.spec.mem_capacity,
            "device out of memory: {} + {} exceeds {} on {}",
            self.allocated,
            bytes,
            self.spec.mem_capacity,
            self.spec.name
        );
        self.allocated += bytes;
        DeviceBuffer::new(label, len)
    }

    /// Release a buffer's memory accounting.
    pub fn free(&mut self, buf: DeviceBuffer) {
        self.allocated -= buf.bytes();
    }

    /// Host → device copy. Advances the clock by the link model and
    /// records the transfer.
    pub fn h2d(&mut self, host: &[f64], buf: &mut DeviceBuffer) {
        assert_eq!(host.len(), buf.len(), "h2d size mismatch for {}", buf.label);
        buf.slice_mut().copy_from_slice(host);
        let t = self.spec.transfer_time(buf.bytes());
        self.elapsed += t;
        self.profiler.record_transfer(buf.bytes(), t, true);
    }

    /// Host → device copy of selected rows of a row-major buffer
    /// (`row_len` elements per row). Models what generated code does for
    /// partitioned transfers: pack the rows into a pinned staging area and
    /// issue **one** transfer, so the cost is latency + total bytes.
    pub fn h2d_rows(
        &mut self,
        host: &[f64],
        buf: &mut DeviceBuffer,
        row_len: usize,
        rows: &[usize],
    ) {
        assert_eq!(host.len(), buf.len(), "h2d_rows size mismatch");
        for &r in rows {
            let s = r * row_len;
            buf.slice_mut()[s..s + row_len].copy_from_slice(&host[s..s + row_len]);
        }
        let bytes = rows.len() * row_len * std::mem::size_of::<f64>();
        let t = self.spec.transfer_time(bytes);
        self.elapsed += t;
        self.profiler.record_transfer(bytes, t, true);
    }

    /// Device → host copy of selected rows (see [`Device::h2d_rows`]).
    pub fn d2h_rows(
        &mut self,
        buf: &DeviceBuffer,
        host: &mut [f64],
        row_len: usize,
        rows: &[usize],
    ) {
        assert_eq!(host.len(), buf.len(), "d2h_rows size mismatch");
        for &r in rows {
            let s = r * row_len;
            host[s..s + row_len].copy_from_slice(&buf.slice()[s..s + row_len]);
        }
        let bytes = rows.len() * row_len * std::mem::size_of::<f64>();
        let t = self.spec.transfer_time(bytes);
        self.elapsed += t;
        self.profiler.record_transfer(bytes, t, false);
    }

    /// Device-to-device scatter of `src`'s compact rows into `dst` rows
    /// (`src` row `k` → `dst` row `rows[k]`). Costs device-memory
    /// bandwidth only, like the `cudaMemcpyDeviceToDevice` the generated
    /// code issues for double-buffer reconciliation.
    pub fn scatter_rows(
        &mut self,
        src: &DeviceBuffer,
        dst: &mut DeviceBuffer,
        row_len: usize,
        rows: &[usize],
    ) {
        assert_eq!(src.len(), rows.len() * row_len, "scatter source mismatch");
        for (k, &r) in rows.iter().enumerate() {
            let d = r * row_len;
            dst.slice_mut()[d..d + row_len]
                .copy_from_slice(&src.slice()[k * row_len..(k + 1) * row_len]);
        }
        let t = self.d2d_time(rows.len() * row_len * 8);
        self.elapsed += t;
    }

    /// Device → host copy.
    pub fn d2h(&mut self, buf: &DeviceBuffer, host: &mut [f64]) {
        assert_eq!(host.len(), buf.len(), "d2h size mismatch for {}", buf.label);
        host.copy_from_slice(buf.slice());
        let t = self.spec.transfer_time(buf.bytes());
        self.elapsed += t;
        self.profiler.record_transfer(buf.bytes(), t, false);
    }

    /// Launch a kernel whose grid is `n_rows` thread *blocks*, each
    /// writing one contiguous `row_len`-long slice of the output —
    /// the batched row-kernel form the host-side kernel compiler emits
    /// (one block per flattened index value, threads covering the cell
    /// span). Returns the simulated kernel duration in seconds: the
    /// per-thread roofline of [`Device::kernel_time`] over
    /// `n_rows * row_len` threads.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_rows<F>(
        &mut self,
        name: &str,
        n_rows: usize,
        row_len: usize,
        cost: KernelCost,
        inputs: &[&DeviceBuffer],
        output: &mut DeviceBuffer,
        body: F,
    ) -> f64
    where
        F: Fn(usize, &[&[f64]], &mut [f64]) + Sync,
    {
        assert_eq!(
            output.len(),
            n_rows * row_len,
            "kernel `{name}` output length must equal n_rows * row_len"
        );
        let input_slices: Vec<&[f64]> = inputs.iter().map(|b| b.slice()).collect();
        output
            .slice_mut()
            .par_chunks_mut(row_len)
            .enumerate()
            .for_each(|(row, out)| body(row, &input_slices, out));
        let n_threads = n_rows * row_len;
        let t = self.kernel_time(n_threads, &cost);
        self.profiler
            .record_kernel(name, n_threads, &cost, t, &self.spec);
        self.elapsed += t;
        t
    }

    /// Roofline kernel time (documented in [`crate::kernel`]).
    pub fn kernel_time(&self, n_threads: usize, cost: &KernelCost) -> f64 {
        let spec = &self.spec;
        // The datasheet peak counts an FMA as two FLOPs; the cost model
        // counts every operation unfused, so half of peak is the ceiling.
        let effective_peak = spec.peak_dp_flops * 0.5 * spec.issue_efficiency;
        let t_compute = cost.total_flops(n_threads) / effective_peak;
        let t_memory = cost.total_bytes(n_threads) / spec.mem_bandwidth;
        let wave = spec.wave_utilization(n_threads).max(1e-9);
        spec.launch_latency + t_compute.max(t_memory) / wave
    }

    /// Simulated time for a device-to-device copy within one GPU (used for
    /// double-buffer swaps the generated code performs explicitly).
    pub fn d2d_time(&self, bytes: usize) -> f64 {
        // Read + write of the same bytes through device memory.
        2.0 * bytes as f64 / self.spec.mem_bandwidth
    }

    /// Snapshot of the profiler.
    pub fn profile(&self) -> crate::profiler::ProfileReport {
        self.profiler.report(&self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(DeviceSpec::a6000())
    }

    #[test]
    fn kernel_executes_real_numerics() {
        let mut dev = device();
        let mut a = dev.alloc("a", 1000);
        let mut out = dev.alloc("out", 1000);
        let host: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        dev.h2d(&host, &mut a);
        dev.launch_rows(
            "square",
            10,
            100,
            KernelCost::stencil(1.0, 8.0, 8.0),
            &[&a],
            &mut out,
            |row, inputs, out| {
                for (i, o) in out.iter_mut().enumerate() {
                    let x = inputs[0][row * 100 + i];
                    *o = x * x;
                }
            },
        );
        let mut result = vec![0.0; 1000];
        dev.d2h(&out, &mut result);
        #[allow(clippy::needless_range_loop)]
        for i in 0..1000 {
            assert_eq!(result[i], (i * i) as f64);
        }
    }

    #[test]
    fn clock_advances_with_work() {
        let mut dev = device();
        let mut a = dev.alloc("a", 1 << 20);
        let host = vec![1.0; 1 << 20];
        assert_eq!(dev.elapsed(), 0.0);
        dev.h2d(&host, &mut a);
        let after_h2d = dev.elapsed();
        assert!(after_h2d > dev.spec.link_latency);
        let mut out = dev.alloc("out", 1 << 20);
        dev.launch_rows(
            "copy",
            1 << 10,
            1 << 10,
            KernelCost::stencil(0.0, 8.0, 8.0),
            &[&a],
            &mut out,
            |row, inputs, out| out.copy_from_slice(&inputs[0][row << 10..][..1 << 10]),
        );
        assert!(dev.elapsed() > after_h2d);
    }

    #[test]
    fn compute_bound_kernel_time_tracks_flops() {
        let dev = device();
        // High arithmetic intensity: compute bound.
        let cost = KernelCost::stencil(10_000.0, 8.0, 8.0);
        let n = dev.spec.sm_count * dev.spec.max_threads_per_sm * 10;
        let t = dev.kernel_time(n, &cost);
        let expected =
            cost.total_flops(n) / (0.5 * dev.spec.peak_dp_flops * dev.spec.issue_efficiency);
        assert!((t - dev.spec.launch_latency - expected).abs() < 0.05 * expected);
    }

    #[test]
    fn memory_bound_kernel_time_tracks_bytes() {
        let dev = device();
        let cost = KernelCost::stencil(1.0, 1000.0, 8.0);
        let n = dev.spec.sm_count * dev.spec.max_threads_per_sm * 10;
        let t = dev.kernel_time(n, &cost);
        let expected = cost.total_bytes(n) / dev.spec.mem_bandwidth;
        assert!((t - dev.spec.launch_latency - expected).abs() < 0.05 * expected);
    }

    #[test]
    fn small_launches_pay_latency_and_tail() {
        let dev = device();
        let cost = KernelCost::stencil(100.0, 16.0, 8.0);
        // 1 thread: dominated by launch latency.
        let t1 = dev.kernel_time(1, &cost);
        assert!(t1 >= dev.spec.launch_latency);
        // Per-thread time is far worse at tiny sizes than asymptotically.
        let t_small = dev.kernel_time(100, &cost) / 100.0;
        let n_big = dev.spec.sm_count * dev.spec.max_threads_per_sm * 50;
        let t_big = dev.kernel_time(n_big, &cost) / n_big as f64;
        assert!(t_small > 10.0 * t_big);
    }

    #[test]
    #[should_panic(expected = "device out of memory")]
    fn oom_is_detected() {
        let mut dev = device();
        let too_many = dev.spec.mem_capacity / 8 + 1;
        let _ = dev.alloc("huge", too_many);
    }

    #[test]
    fn free_returns_memory() {
        let mut dev = device();
        let b = dev.alloc("b", 1000);
        assert_eq!(dev.allocated_bytes(), 8000);
        dev.free(b);
        assert_eq!(dev.allocated_bytes(), 0);
    }
}
