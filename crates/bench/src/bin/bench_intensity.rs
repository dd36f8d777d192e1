//! Interpreter-vs-compiled-kernel throughput on the fig-4 hot-spot
//! scenario, recorded to `BENCH_intensity.json` at the repository root.
//!
//! Times one full intensity-phase RHS evaluation (source + flux for every
//! (cell, flat) pair) per tier:
//!
//! * `vm` — generic stack VM, per-DOF dispatch;
//! * `bound_cached` — per-flat bound programs, bound once and cached
//!   across calls (the "interpreter" baseline of the printed speed-up);
//! * `row` — the fused, batched row kernel;
//! * `native` — the AOT tier: the row programs lowered to Rust source,
//!   compiled out-of-process by `rustc`, and loaded as a `cdylib`. The
//!   entry is skipped (with a note) when the tier falls back — e.g. no
//!   `rustc` on `PATH` — so the bench still completes on minimal hosts.
//!
//! Sampling is interleaved round-robin across the tiers (rep-major, tier
//! -minor) rather than one tier at a time: with per-tier blocks, slow
//! drift over the run — frequency scaling, competing load — lands
//! entirely on whichever tiers run later and can invert close pairs
//! (`bound_cached` was once recorded slower than a since-retired
//! rebind-every-call lane this way; see EXPERIMENTS.md). Interleaving
//! spreads drift evenly.
//!
//! Set `INTENSITY_BENCH_QUICK=1` (CI short mode) to shrink the scenario
//! and the sample count so the run finishes in a few seconds.

use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::entities::Fields;
use pbte_dsl::exec::{CompiledProblem, IntensityBench};
use pbte_dsl::KernelTier;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("INTENSITY_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

struct Lane<'a> {
    name: &'static str,
    bench: IntensityBench<'a>,
    fields: &'a Fields,
    rhs: Vec<f64>,
    samples: Vec<f64>,
    n_dof: f64,
}

struct TierResult {
    name: &'static str,
    min_ns_per_dof: f64,
    mean_ns_per_dof: f64,
}

fn main() {
    let cfg = if quick() {
        BteConfig::small(12, 6, 4, 1)
    } else {
        BteConfig::small(48, 12, 8, 1)
    };
    let n_cells = cfg.nx * cfg.ny;
    let n_flat = cfg.ndirs * cfg.n_freq_bands;
    println!(
        "intensity phase, fig-4 hot spot: {n_cells} cells x {n_flat} flats = {} dof",
        n_cells * n_flat
    );
    let reps = if quick() { 5 } else { 30 };

    let (cp, fields) = CompiledProblem::compile(hotspot_2d(&cfg).problem).expect("compiles");
    let specs = [
        ("vm", KernelTier::Vm),
        ("bound_cached", KernelTier::Bound),
        ("row", KernelTier::Row),
        ("native", KernelTier::Native),
    ];

    let mut lanes: Vec<Lane> = Vec::new();
    for (name, tier) in specs {
        let mut bench = cp.intensity_bench(&fields, tier);
        if bench.tier() != tier {
            // Only the native tier degrades by design; anything else
            // clamping here is a bench misconfiguration.
            assert_eq!(tier, KernelTier::Native, "tier clamped unexpectedly");
            let why = bench
                .native_fallback()
                .map(|d| d.render())
                .unwrap_or_else(|| "no diagnostic recorded".into());
            println!("{name:<14} skipped ({why})");
            continue;
        }
        let mut rhs = vec![0.0; cp.n_flat * fields.n_cells];
        for _ in 0..2 {
            bench.run(&fields, &mut rhs);
        }
        lanes.push(Lane {
            name,
            bench,
            fields: &fields,
            rhs,
            samples: Vec::with_capacity(reps),
            n_dof: (cp.n_flat * fields.n_cells) as f64,
        });
    }

    for _ in 0..reps {
        for lane in &mut lanes {
            let t0 = Instant::now();
            lane.bench.run(lane.fields, &mut lane.rhs);
            lane.samples
                .push(t0.elapsed().as_secs_f64() * 1e9 / lane.n_dof);
        }
    }

    let results: Vec<TierResult> = lanes
        .iter()
        .map(|lane| {
            std::hint::black_box(&lane.rhs);
            let min = lane.samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let mean = lane.samples.iter().sum::<f64>() / lane.samples.len() as f64;
            println!(
                "{:<14} {min:>9.2} ns/dof (min)  {mean:>9.2} ns/dof (mean)",
                lane.name
            );
            TierResult {
                name: lane.name,
                min_ns_per_dof: min,
                mean_ns_per_dof: mean,
            }
        })
        .collect();

    let min_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns_per_dof)
    };
    let interp = min_of("bound_cached").unwrap();
    let row = min_of("row").unwrap();
    let speedup = interp / row;
    println!("row-kernel speedup over interpreter path: {speedup:.2}x");
    let native_speedup = min_of("native").map(|native| row / native);
    if let Some(s) = native_speedup {
        println!("native-tier speedup over row kernel: {s:.2}x");
    }

    let tiers: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {:?}: {{\"min_ns_per_dof\": {:.3}, \"mean_ns_per_dof\": {:.3}}}",
                r.name, r.min_ns_per_dof, r.mean_ns_per_dof
            )
        })
        .collect();
    let native_key = native_speedup
        .map(|s| format!(",\n  \"speedup_native_over_row\": {s:.3}"))
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"scenario\": \"fig4_hotspot_2d\",\n  \"nx\": {}, \"ny\": {}, \"ndirs\": {}, \"nbands\": {},\n  \"n_dof\": {},\n  \"tiers\": {{\n{}\n  }},\n  \"speedup_row_over_interpreter\": {:.3}{}\n}}\n",
        cfg.nx,
        cfg.ny,
        cfg.ndirs,
        cfg.n_freq_bands,
        n_cells * n_flat,
        tiers.join(",\n"),
        speedup,
        native_key
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_intensity.json");
    std::fs::write(path, json).expect("write BENCH_intensity.json");
    println!("wrote {path}");
}
