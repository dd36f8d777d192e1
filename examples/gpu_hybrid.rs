//! The paper's §III-D configuration: the same DSL problem retargeted to
//! the hybrid CPU + GPU backend with one call (the `useCUDA()` moment).
//!
//! Shows what the DSL generates for the device target — the flattened
//! kernel, the automatic host↔device transfer schedule with per-variable
//! reasons, the generated host loop — then runs both targets and compares
//! results and the device profile.
//!
//! Run: `cargo run --release -p pbte-apps --example gpu_hybrid`

use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::GpuStrategy;
use pbte_gpu::DeviceSpec;

fn main() {
    let cfg = BteConfig::small(24, 8, 10, 200);
    let (per_cell, total) = cfg.dof();
    println!("problem: 24x24 cells, {per_cell} dof/cell, {total} dof, 200 steps\n");

    // CPU reference.
    let mut cpu = hotspot_2d(&cfg)
        .solver(ExecTarget::CpuSeq)
        .expect("valid scenario");
    let t0 = std::time::Instant::now();
    cpu.solve().expect("cpu solve");
    let cpu_wall = t0.elapsed().as_secs_f64();

    // The same problem on the hybrid target — only the target changes,
    // exactly the paper's "almost no additional programming effort".
    let target = ExecTarget::GpuHybrid {
        spec: DeviceSpec::a6000(),
        strategy: GpuStrategy::AsyncBoundary,
    };
    let bte = hotspot_2d(&cfg);
    let vars = bte.vars;
    let mut gpu = bte.solver(target).expect("valid scenario");

    println!("---- automatic data-movement schedule ----");
    println!("{}", gpu.compiled.transfer_schedule().render());
    println!("---- generated hybrid source ----");
    println!("{}", gpu.generated_source());

    let t1 = std::time::Instant::now();
    let report = gpu.solve().expect("gpu solve");
    let gpu_wall = t1.elapsed().as_secs_f64();

    // Numerics agree with the CPU run.
    let mut worst = 0.0f64;
    for cell in 0..cfg.nx * cfg.ny {
        let a = cpu.fields().value(vars.t, cell, 0);
        let b = gpu.fields().value(vars.t, cell, 0);
        worst = worst.max((a - b).abs());
    }
    println!("---- results ----");
    println!("max |T_cpu − T_gpu| = {worst:.2e} K (bit-identical: same per-dof arithmetic)");
    println!("host wall-clock: cpu {cpu_wall:.2} s, hybrid(simulated device) {gpu_wall:.2} s");

    let profile = report.device.expect("device profile");
    println!("\nsimulated device profile (the paper's §III-D table):");
    println!("{}", profile.table());
    println!(
        "simulated device time: kernels {:.1} ms, transfers {:.1} ms over {} steps",
        profile.kernel_time() * 1e3,
        profile.transfer_time() * 1e3,
        report.steps
    );
    assert_eq!(worst, 0.0);
}
