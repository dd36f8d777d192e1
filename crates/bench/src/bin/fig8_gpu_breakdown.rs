//! Fig 8: execution-time breakdown of the GPU-accelerated version at
//! 1, 2, 4 devices.
//!
//! Paper's findings to reproduce: compared with Fig 5, "a substantially
//! larger percentage of time spent on the temperature update" (the
//! CPU-side callback), while "the communication time between the GPU and
//! host does not make up a very significant portion of the time".

use pbte_bench::figures::{fig5, fig8, headline_model, render_breakdown, save};

fn main() {
    let model = headline_model();
    let cols = fig8(&model);
    println!("\nFig 8 — GPU-accelerated execution-time breakdown");
    println!(
        "{}",
        render_breakdown(
            &cols,
            (
                "solve for intensity(GPU)",
                "temperature update(CPU)",
                "communication(CPU<->GPU)"
            )
        )
    );
    let cpu1 = &fig5(&model)[0];
    let gpu1 = &cols[0];
    println!(
        "temperature-update share: {:.1}% on CPU-only -> {:.1}% on GPU (x{:.1})",
        cpu1.temperature_pct,
        gpu1.temperature_pct,
        gpu1.temperature_pct / cpu1.temperature_pct
    );
    println!(
        "communication stays minor: {:.1}% of the GPU version",
        gpu1.communication_pct
    );
    save("fig8", &cols);
}
