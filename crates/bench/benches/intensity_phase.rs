//! Criterion benchmark of the intensity-phase RHS across the three kernel
//! tiers (`vm`, `row`, `native`) on the fig-4 hot-spot
//! scenario — the per-tier kernel time, divided by the scenario's dofs
//! for ns/dof — plus the telemetry-overhead check: a full sequential
//! solve under the null sink vs the buffered sink (the overhead contract
//! in DESIGN.md says the gap must stay under a few percent — buffered
//! recording is a handful of Vec pushes per step, far off the per-cell
//! hot path).
//!
//! `--quick` (`cargo bench -p pbte-bench --bench intensity_phase --
//! --quick`) shrinks the scenarios as well as the sample count, so the
//! bench finishes in a few seconds.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::exec::{CompiledProblem, Recorder};
use pbte_dsl::KernelTier;
use pbte_dsl::{ExecTarget, Solver};

/// The `--quick` argument the criterion shim already caps samples on.
fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn config() -> BteConfig {
    if quick() {
        BteConfig::small(12, 6, 4, 1)
    } else {
        BteConfig::small(48, 12, 8, 1)
    }
}

fn bench_intensity_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("intensity_phase");
    for tier in KernelTier::ALL {
        let name = tier.name();
        let bte = hotspot_2d(&config());
        let (cp, fields) = CompiledProblem::compile(bte.problem).expect("compiles");
        let mut bench = cp.intensity_bench(&fields, tier);
        if bench.tier() != tier {
            // Only the native tier degrades by design (e.g. no `rustc`
            // on PATH); skip its row rather than benching the fallback.
            assert_eq!(tier, KernelTier::Native, "tier clamped unexpectedly");
            let why = bench
                .native_fallback()
                .map(|d| d.render())
                .unwrap_or_else(|| "no diagnostic recorded".into());
            eprintln!("skipping native lane: {why}");
            continue;
        }
        let mut rhs = vec![0.0; cp.n_flat * fields.n_cells];
        group.bench_function(name, |b| {
            b.iter(|| {
                bench.run(&fields, &mut rhs);
                black_box(rhs[0])
            })
        });
    }
    group.finish();
}

/// Whole-solve overhead of the telemetry sinks relative to the null
/// sink. Same scenario, same target; the rows differ only in where the
/// record goes: dropped (`null_sink`), retained in memory
/// (`buffered_sink`), or pushed frame-by-frame into the bounded channel a
/// background thread drains to disk (`streaming_sink`). Compare rows —
/// both non-null sinks must stay within ~2% of `null_sink`.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use pbte_runtime::telemetry::stream::StreamSink;

    enum Sink {
        Null,
        Buffered,
        Streaming,
    }
    let mut group = c.benchmark_group("telemetry_overhead");
    let cfg = if quick() {
        BteConfig::small(12, 6, 4, 2)
    } else {
        BteConfig::small(24, 8, 8, 4)
    };
    for (name, sink) in [
        ("null_sink", Sink::Null),
        ("buffered_sink", Sink::Buffered),
        ("streaming_sink", Sink::Streaming),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let bte = hotspot_2d(&cfg);
                    let solver = Solver::build(bte.problem, ExecTarget::CpuSeq).expect("builds");
                    // The streaming lane measures the producer side only:
                    // frame construction + the channel `try_send` the
                    // solve loop pays. The drainer thread's JSON/IO work
                    // overlaps the solve on its own core in production and
                    // would dominate this single-threaded timing loop, so
                    // the channel here is allocated in setup and its
                    // receiver held unread; both are dropped in teardown
                    // with the rest of the routine output, outside the
                    // timed section. 1 024 slots hold the run's few dozen
                    // frames with room to spare; a channel far larger than
                    // the run (65 536 slots are ~9 MB, allocated in setup)
                    // evicts the solver's working set right before the
                    // timed solve, and the lane would measure that instead
                    // of the sink.
                    let stream = match sink {
                        Sink::Streaming => Some(StreamSink::bounded(1 << 10)),
                        _ => None,
                    };
                    (solver, stream)
                },
                |(mut solver, stream)| {
                    let mut rec = match sink {
                        Sink::Null => Recorder::null(),
                        Sink::Buffered => Recorder::buffered(),
                        Sink::Streaming => {
                            let mut r = Recorder::null();
                            let (sink, _) = stream.as_ref().expect("stream");
                            r.attach_stream(sink.clone());
                            r
                        }
                    };
                    let report = solver.solve_traced(&mut rec).expect("solves");
                    black_box((report.work.flux_evals, rec.spans().len()));
                    stream
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_intensity_phase, bench_telemetry_overhead
);
criterion_main!(benches);
