//! The unnumbered profiling table of §III-D: SM utilization, memory
//! throughput, and FLOP performance of the intensity kernel on one GPU.
//!
//! Unlike the scaling figures (which extrapolate through the cluster
//! model), this experiment *runs for real*: a hybrid solve at the
//! headline's angular/spectral shape on a 60×60 mesh executes actual
//! kernels on the simulated A6000, and the profiler derives the metrics
//! from counted work and the device roofline — the simulator's analogue
//! of reading them out of Nsight.
//!
//! Paper's measurements: SM utilization 86%, memory throughput 11%,
//! FLOP performance 49% of (double-precision) peak.

use pbte_bench::calibration::Ran;
use pbte_bench::figures::save;
use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::{ExecTarget, Recorder};
use pbte_dsl::GpuStrategy;
use pbte_gpu::DeviceSpec;
use serde::{Serialize, Value};

/// What `results/profile_table.json` holds.
struct Row {
    sm_utilization: f64,
    memory_fraction: f64,
    flop_fraction: f64,
}

impl Serialize for Row {
    fn to_value(&self) -> Value {
        let Row {
            sm_utilization,
            memory_fraction,
            flop_fraction,
        } = self;
        Value::Obj(vec![
            ("sm_utilization".into(), sm_utilization.to_value()),
            ("memory_fraction".into(), memory_fraction.to_value()),
            ("flop_fraction".into(), flop_fraction.to_value()),
        ])
    }
}

fn main() {
    let mut cfg = BteConfig::small(60, 20, 40, 3);
    cfg.hot_width = 50e-6;
    eprintln!(
        "running the hybrid solve for real: {} cells x {} dof/cell x {} steps...",
        cfg.nx * cfg.ny,
        cfg.dof().0,
        cfg.n_steps
    );
    let bte = hotspot_2d(&cfg);
    let mut solver = bte
        .solver(ExecTarget::GpuHybrid {
            spec: DeviceSpec::a6000(),
            strategy: GpuStrategy::AsyncBoundary,
        })
        .expect("valid scenario");
    let mut rec = Recorder::buffered();
    let report = solver.solve_traced(&mut rec).expect("solve succeeds");
    let profile = report.device.expect("GPU target produces a profile");
    println!("ran: {}", Ran::of(&rec).line());

    println!("\nProfile of the intensity kernel on one (simulated) A6000:\n");
    println!("{}", profile.table());
    println!("paper reports     : SM 86%, memory 11%, FLOP 49% of peak");
    let kernel = &profile.kernels["intensity_update"];
    println!(
        "\nkernel detail: {} launches, {:.3} ms simulated, {:.1} GFLOP/s achieved, \
         arithmetic intensity {:.2} flop/byte",
        kernel.launches,
        kernel.sim_time * 1e3,
        kernel.flops / kernel.sim_time / 1e9,
        kernel.flops / kernel.bytes
    );
    println!(
        "transfers: H2D {:.1} MiB / D2H {:.1} MiB per run, {:.3} ms simulated",
        profile.h2d.bytes as f64 / (1 << 20) as f64,
        profile.d2h.bytes as f64 / (1 << 20) as f64,
        profile.transfer_time() * 1e3
    );

    let row = Row {
        sm_utilization: profile.sm_utilization(),
        memory_fraction: profile.memory_fraction(),
        flop_fraction: profile.flop_fraction(),
    };
    save("profile_table", &row);
}

#[cfg(test)]
mod tests {
    use super::Row;

    /// The row's JSON text, pinned.
    #[test]
    fn row_json() {
        let row = Row {
            sm_utilization: 0.5,
            memory_fraction: 0.25,
            flop_fraction: 0.125,
        };
        assert_eq!(
            serde_json::to_string(&row).expect("renders"),
            r#"{"sm_utilization":0.5,"memory_fraction":0.25,"flop_fraction":0.125}"#
        );
    }
}
