//! Fig 9: every strategy side by side — band-parallel, cell-parallel,
//! GPU-accelerated, and the hand-written reference code.
//!
//! Paper's findings to reproduce: the hand-written ("Fortran") code is
//! roughly 2× faster sequentially but scales worse (a differently
//! parallelized part of the calculation grows with process count); the
//! GPU version dominates at equal partition counts; the best GPU time
//! (≈10 devices) lands near the best 320-process CPU time.

use pbte_bench::figures::{fig9, headline_model, render_scaling, save};

fn main() {
    let model = headline_model();
    let series = fig9(&model);
    println!("\nFig 9 — all strategies, time (s) vs processes/GPUs");
    println!("{}", render_scaling(&series));

    let by_label = |label: &str| {
        series
            .iter()
            .find(|s| s.label.starts_with(label))
            .unwrap_or_else(|| panic!("series {label}"))
    };
    let bands = by_label("parallel bands");
    let fortran = by_label("Fortran");
    let gpu = by_label("GPU");
    let cells = by_label("parallel cells");

    println!(
        "sequential: hand-written is {:.2}x faster than the DSL code",
        bands.points[0].1 / fortran.points[0].1
    );
    let self_speedup =
        |s: &pbte_bench::figures::ScalingSeries| s.points[0].1 / s.points.last().unwrap().1;
    println!(
        "self-speedup at the band limit: DSL {:.1}x vs hand-written {:.1}x \
         (the redundant temperature update costs the hand-written code its scaling)",
        self_speedup(bands),
        self_speedup(fortran)
    );
    let best_gpu = gpu
        .points
        .iter()
        .map(|(_, t)| *t)
        .fold(f64::INFINITY, f64::min);
    let best_cpu = cells
        .points
        .iter()
        .map(|(_, t)| *t)
        .fold(f64::INFINITY, f64::min);
    println!(
        "best GPU time {best_gpu:.2} s vs best 320-process CPU time {best_cpu:.2} s \
         (ratio {:.2})",
        best_gpu / best_cpu
    );
    save("fig9", &series);
}
