//! Fig 7: the hybrid CPU+GPU version against the CPU-only band-parallel
//! strategy, one simulated A6000 per process.
//!
//! Paper's findings to reproduce: "Compared to the CPU code with an equal
//! number of partitions, the GPU version is about 18 times faster";
//! strong scaling is good up to ~10 devices and flattens beyond.

use pbte_bench::figures::{fig7, headline_model, render_scaling, save};

fn main() {
    let model = headline_model();
    let series = fig7(&model);
    println!("\nFig 7 — CPU-only vs CPU+GPU (band partitioning), time (s)");
    println!("{}", render_scaling(&series));

    for p in [1usize, 5, 10, 20, 40, 55] {
        println!(
            "speedup at {p:>3} partitions: {:>5.1}x",
            model.gpu_speedup(p)
        );
    }
    // Where GPU scaling flattens: the first count whose marginal gain
    // over doubling drops under 20%.
    let gpu = &series[1].points;
    let mut flat_at = None;
    for w in gpu.windows(2) {
        let (p0, t0) = w[0];
        let (p1, t1) = w[1];
        let gain = t0 / t1;
        let ideal = p1 as f64 / p0 as f64;
        if gain < 1.0 + 0.2 * (ideal - 1.0) && flat_at.is_none() {
            flat_at = Some(p1);
        }
    }
    match flat_at {
        Some(p) => println!("GPU scaling flattens around {p} devices"),
        None => println!("GPU scaling does not flatten in the tested range"),
    }
    save("fig7", &series);
}
