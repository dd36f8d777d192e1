//! Fig 3: the communication patterns of the two partitionings, as the
//! bytes the executors send per step on the real 120×120 mesh.
//!
//! Paper's finding to reproduce: "Partitioning the equations … requires
//! much less communication" — every interface cell of a mesh partition
//! sends its full 1100-component unknown vector to each neighbouring rank
//! each step, while the band partition only reduces one number per cell.

use pbte_bench::figures::{fig3, headline_model, save};

fn main() {
    let model = headline_model();
    let rows = fig3(&model);
    println!("\nFig 3 — communication volume per time step (MiB)");
    println!(
        "{:>6}  {:>28}  {:>28}  {:>8}",
        "procs", "cell partition (halo)", "band partition (reduction)", "ratio"
    );
    for r in &rows {
        let halo = r.halo_bytes_per_step as f64 / (1 << 20) as f64;
        let red = r.reduction_bytes_per_step as f64 / (1 << 20) as f64;
        println!(
            "{:>6}  {:>24.2} MiB  {:>24.2} MiB  {:>7.1}x",
            r.processes,
            halo,
            red,
            halo / red
        );
    }
    println!(
        "\nthe halo moves all 1100 values of every interface cell to each \
         neighbouring rank; the reduction moves one scalar per cell along a \
         chain in rank order and back from the last rank (the runtime's fold)."
    );
    save("fig3", &rows);
}
