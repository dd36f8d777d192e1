//! Fig 4: strong scaling of the band-parallel and cell-parallel CPU
//! strategies on the headline workload (120×120 cells, 1100 dof/cell,
//! 100 steps), 1 → 320 processes.
//!
//! Paper's findings to reproduce: both strategies track ideal scaling
//! closely; band partitioning stops at the 55-band limit; cell
//! partitioning keeps scaling to 320 despite its higher communication
//! cost.

use pbte_bench::figures::{fig4, headline_model, render_scaling, save};

fn main() {
    let model = headline_model();
    let series = fig4(&model);
    println!("\nFig 4 — execution time (s) vs number of processes");
    println!("{}", render_scaling(&series));

    // The paper's qualitative claims, checked on the generated data.
    let bands = &series[0].points;
    let cells = &series[1].points;
    let band_eff = bands[0].1 / (bands.last().unwrap().1 * bands.last().unwrap().0 as f64);
    let cell_speedup_320 = cells[0].1 / cells.last().unwrap().1;
    println!(
        "band-parallel efficiency at 55 procs : {:.0}%",
        100.0 * band_eff
    );
    println!("cell-parallel speedup at 320 procs   : {cell_speedup_320:.0}x");
    println!(
        "cell-parallel scales past the band limit: {}",
        cells.last().unwrap().1 < bands.last().unwrap().1
    );
    let divided = &series.last().unwrap().points;
    println!(
        "divided-Newton gain at 55 procs      : {:.2}x (redundant {:.2} s -> divided {:.2} s)",
        bands.last().unwrap().1 / divided.last().unwrap().1,
        bands.last().unwrap().1,
        divided.last().unwrap().1
    );
    save("fig4", &series);
}
