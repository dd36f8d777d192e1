//! Fig 5: breakdown of execution time for the band-parallel strategy at
//! 1, 5, 10, 20, 40, 55 processes.
//!
//! Paper's findings to reproduce: the intensity solve dominates (~97% at
//! 1–10 processes) and its share falls toward ~73% at 55 as the
//! temperature update and communication grow in relative terms — the
//! observation that motivates the GPU offload of §III-D.

use pbte_bench::figures::{fig5, fig5_divided, headline_model, render_breakdown, save};

fn main() {
    let model = headline_model();
    let cols = fig5(&model);
    println!("\nFig 5 — band-parallel execution-time breakdown");
    println!(
        "{}",
        render_breakdown(
            &cols,
            ("solve for intensity", "temperature update", "communication")
        )
    );
    let first = &cols[0];
    let last = cols.last().expect("at least one column");
    println!(
        "intensity share: {:.1}% at 1 process -> {:.1}% at {} processes",
        first.intensity_pct, last.intensity_pct, last.processes
    );

    // Companion: the same breakdown with the divided Newton phase
    // (TemperatureStrategy::DividedNewton) — the growth of the
    // temperature share, the figure's headline observation, disappears.
    let divided = fig5_divided(&model);
    println!("\nFig 5 companion — divided-Newton temperature update");
    println!(
        "{}",
        render_breakdown(
            &divided,
            ("solve for intensity", "temperature update", "communication")
        )
    );
    let dlast = divided.last().expect("at least one column");
    println!(
        "temperature share at {} processes: {:.1}% redundant -> {:.1}% divided",
        last.processes, last.temperature_pct, dlast.temperature_pct
    );
    save("fig5", &cols);
    save("fig5_divided", &divided);
}
