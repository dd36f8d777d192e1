//! `pbte-trace` — run a scenario under the unified telemetry recorder and
//! inspect the result: a Perfetto-loadable Chrome trace, a per-step JSONL
//! summary, physics health diagnostics, and (in `--parity` mode) a
//! cross-target work-counter consistency check.
//!
//! ```text
//! pbte-trace [scenario=hotspot|elongated|FILE.pbte]
//!            [target=seq|par|cells[:<r>]|bands[:<r>]|
//!            gpu[:async]|bands-gpu[:<r>]] [n=12] [steps=3]
//!            [ranks=2] [strategy=redundant|divided]
//!            [tier=native|row|vm] [out=DIR] [stream=FILE] [--parity]
//! pbte-trace --follow file=FILE [wait=30]
//! pbte-trace top file=FILE
//! ```
//!
//! `scenario=` also accepts a path to a textual `.pbte` scenario file
//! (anything ending in `.pbte`). The file carries its own mesh, material,
//! time axis, strategy and integrator, so it refuses `n=`, `steps=` and
//! `strategy=` (exit 2 naming the key); `target=`, `ranks=` and `tier=`
//! apply (`tier=` defaults to `native`, as in `pbte`). A built-in and a file are one `ScenarioSpec`, run by `pbte`'s
//! run path (`pbte_apps::run_gated`): every compiled plan passes the
//! verification gate (plan obligations, dimensional analysis, interval
//! analysis) first, and any error-severity finding refuses the run before
//! a single step executes. `--parity` takes a file too; the strategy the
//! counter contract scales by is the spec's.
//!
//! **Default mode** runs one scenario on one target with the buffered
//! sink (the temperature update's physics health probes are on in every
//! mode), writes `DIR/trace.json`
//! (load it at <https://ui.perfetto.dev>) and `DIR/summary.jsonl`, and
//! prints the phase/work/device summary and what the run found.
//!
//! Exit status is the one table in `DESIGN.md` (`pbte_apps::status`): 2
//! for input refused before step 0 (an unknown key or value, an
//! unreadable or malformed file, the verify gate's errors, an `out=` that
//! cannot be written), its rule on stderr; 1 for an error-severity or
//! `physics/*` finding, or targets that disagree under `--parity`; 0
//! otherwise.
//! With `stream=FILE` the run *also* attaches the stream: every frame the
//! recorder emits — the ones `summary.jsonl` and `trace.json` are
//! rendered from — is sent through a bounded channel onto `FILE`, one
//! JSON object per line, while the solve runs.
//!
//! **`--follow` mode** tails a stream file — typically one being written
//! by a concurrent `stream=` run — and renders rolling per-phase rates,
//! work throughput, cost annotations on sweep/transfer spans (a
//! transfer's predicted vs moved bytes; a sweep's price in flops, the one
//! the simulated device is timed by), and any warning events, until the `run_end`
//! frame arrives (or the stream goes idle for `wait` seconds).
//!
//! **`top` mode** reads a (complete or in-progress) stream file once and
//! prints the aggregate view: total seconds per phase, the hottest spans
//! by cumulative duration, total work counters, the `device` and
//! `histogram` frames as recorded, and drop accounting.
//!
//! **`--parity` mode** runs the scenario on *every* target shape and
//! asserts the tiered counter-equality contract (see `DESIGN.md`):
//!
//! * `flux_evals`, `dof_updates` and `temperature_solves` are exactly
//!   equal on every target — band-partitioned targets sum their per-rank
//!   counters back to the sequential totals, except `temperature_solves`
//!   under `RedundantNewton`, where every rank solves all cells and the
//!   job total is exactly `ranks ×` the sequential count.
//! * `newton_iters` is exactly equal on *every* target, GPU lineage
//!   included — the device path evaluates through the same tier entry
//!   points as the CPU executors, so the temperature solves see
//!   bit-identical intensity everywhere. Redundant banded ranks each run
//!   the full solve, so their count is exactly `ranks ×` the sequential
//!   one, like `temperature_solves`.
//! * `ghost_evals` is exactly equal on every target except cells:
//!   cell-partitioned ranks each evaluate every callback wall face (faces
//!   are not partitioned), so that total inflates by the rank count and is
//!   reported but not asserted.
//!
//! * **walls**: every run's `run_start` frame says how its boundary walls
//!   ran, `fixed:<n> gather:<n> callback:<n>` in boundary faces (lowered
//!   to the plan's ghost image, lowered to a same-cell gather, or left to
//!   a host closure called every sweep), printed per target as
//!   `walls: …`. Every target must report the sequential run's value — the
//!   lowering is a property of the plan, not of the target — and a run
//!   counts ghost evaluations exactly when it has callback walls. The two
//!   built-in scenarios (axis-aligned isothermal and symmetry walls) must
//!   report `callback:0`. The frame's `plan` attribute (`lowered` or
//!   `reused`) is *not* compared: the parity run's second target
//!   legitimately reuses the plan its first lowered.
//!
//! * kernel-span **tier attribution**: every `Kernel` span a target
//!   records must carry one uniform `tier` attribute and one uniform
//!   `flux` attribute (`table`, `compiled` or `vm` — how that tier
//!   evaluated the face flux), and *every* target — CPU and GPU lineage
//!   alike — must attribute the same pair as seq:
//!   with `tier=native`, that proves the AOT kernels (or their documented
//!   row fallback) actually ran everywhere. The device path runs the same
//!   tier's kernels as the host (one `rhs_block` dispatch), so the
//!   attribution names the code that ran, not a lineage alias.
//!
//! * kernel-span **stencil attribution**: every such span carries
//!   `run_cells`, the cells of its sweep that lie inside stencil runs
//!   (0 = the whole sweep walked CSR), printed per target as
//!   `kernel run_cells: Some([..])`; every target but the cell
//!   partition (`cells:<r>`) sweeps the whole mesh per rank and must
//!   report the sequential run's value.
//!
//! * kernel-span **cut attribution**: every such span carries `tiles` and
//!   `workers` — how many pieces its sweep visited and how many threads
//!   they fanned out to — printed per target as `<target> sweep cut:
//!   tiles=<n> workers=<n>`; a target that fans out (`par`) must have at
//!   least one tile per worker.
//!
//! Any violated assertion prints a `PARITY MISMATCH` line and fails the
//! run (exit status 1).

use pbte_apps::{
    arg_str, arg_usize, check_args, exit, out, parse_target, parse_tier, refuse_keys, run_gated,
    scenario_file, Outcome,
};
use pbte_bte::pbte::ScenarioSpec;
use pbte_bte::scenario::BteConfig;
use pbte_bte::temperature::TemperatureStrategy;
use pbte_dsl::exec::{telemetry_diagnostics, Recorder, SolveReport};
use pbte_dsl::problem::KernelTier;
use pbte_dsl::{Diagnostic, ExecTarget, Severity, WorkCounters};
use pbte_runtime::telemetry::stream::{StreamConfig, StreamReader, StreamWriter};
use pbte_runtime::telemetry::{Span, SpanKind};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// The keys and flags `pbte-trace` takes (after `top`, only `file=`);
/// any other argument is refused, and so is one its mode does not use.
const KNOWN: &str = "scenario= target= n= steps= ranks= strategy= tier= out= stream= file= \
    wait= --parity --follow";

fn print_report(tname: &str, report: &SolveReport) {
    out!("target {tname}: {} step(s)", report.steps);
    for (phase, secs) in report.timer.phases() {
        out!("  {phase:<28} {secs:.6}s");
    }
    let w = &report.work;
    out!(
        "  work: dof={} flux={} ghost={} newton={} solves={}",
        w.dof_updates,
        w.flux_evals,
        w.ghost_evals,
        w.newton_iters,
        w.temperature_solves
    );
    if report.comm.messages > 0 {
        out!(
            "  comm: {} message(s), {} byte(s)",
            report.comm.messages,
            report.comm.bytes
        );
    }
    if let Some(dev) = &report.device {
        out!(
            "  device: kernel {:.6}s transfer {:.6}s sm {:.1}% membw {:.1}% flop {:.1}%",
            dev.kernel_time(),
            dev.transfer_time(),
            100.0 * dev.sm_utilization(),
            100.0 * dev.memory_fraction(),
            100.0 * dev.flop_fraction()
        );
    }
}

/// The counters `got` must match on `tname`: `(counter, expected,
/// actual)`. Newton parity is a hard assert everywhere, GPU lineage
/// included: the device path evaluates through the same tier entry points
/// as the CPU targets, so the temperature solves see bit-identical
/// intensity and iterate identically.
fn expectations(
    tname: &str,
    seq: &WorkCounters,
    got: &WorkCounters,
    ranks: u64,
    strategy: TemperatureStrategy,
) -> Vec<(&'static str, u64, u64)> {
    // Every redundant band-parallel rank solves all cells, its Newton
    // iterations included.
    let banded = matches!(tname, "bands" | "bands-gpu");
    let solves = match banded && strategy == TemperatureStrategy::RedundantNewton {
        true => ranks,
        false => 1,
    };
    let mut ex = vec![
        ("flux_evals", seq.flux_evals, got.flux_evals),
        ("dof_updates", seq.dof_updates, got.dof_updates),
        (
            "temperature_solves",
            solves * seq.temperature_solves,
            got.temperature_solves,
        ),
        ("newton_iters", solves * seq.newton_iters, got.newton_iters),
    ];
    // Callback wall faces are evaluated once per owned flat everywhere
    // except cell partitioning (faces are replicated across cell ranks).
    if tname != "cells" {
        ex.push(("ghost_evals", seq.ghost_evals, got.ghost_evals));
    }
    ex
}

/// A recorded span's attribute by key.
fn recorded_attr<'a>(s: &'a Span, key: &str) -> Option<&'a str> {
    s.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

/// Distinct `tier/flux` attribute pairs across a recording's `Kernel`
/// spans: which kernel tier ran, and how it evaluated the face flux.
fn kernel_tiers(rec: &Recorder) -> Vec<String> {
    let mut tiers: Vec<String> = rec
        .spans()
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Kernel))
        .filter_map(|s| {
            Some(format!(
                "{}/{}",
                recorded_attr(s, "tier")?,
                recorded_attr(s, "flux")?
            ))
        })
        .collect();
    tiers.sort();
    tiers.dedup();
    tiers
}

/// Distinct values of `read` across a recording's tier-attributed
/// `Kernel` spans, sorted; `None` when a span lacks what it reads.
fn kernel_attrs<T: Ord>(rec: &Recorder, read: impl Fn(&Span) -> Option<T>) -> Option<Vec<T>> {
    let tiered =
        |s: &&Span| matches!(s.kind, SpanKind::Kernel) && recorded_attr(s, "tier").is_some();
    let spans = rec.spans().into_iter().filter(tiered);
    let mut values = spans.map(read).collect::<Option<Vec<T>>>()?;
    values.sort_unstable();
    values.dedup();
    Some(values)
}

/// How many of each sweep's cells took the stencil runs (0: the whole
/// sweep walked CSR).
fn kernel_run_cells(rec: &Recorder) -> Option<Vec<u64>> {
    kernel_attrs(rec, |s| recorded_attr(s, "run_cells")?.parse().ok())
}

/// How each sweep was cut and fanned out: `(tiles, workers)`.
fn kernel_cuts(rec: &Recorder) -> Option<Vec<(u64, u64)>> {
    fn attr(s: &Span, key: &str) -> Option<u64> {
        recorded_attr(s, key)?.parse().ok()
    }
    kernel_attrs(rec, |s| Some((attr(s, "tiles")?, attr(s, "workers")?)))
}

/// Print `tname`'s sweep cut and check it: every sweep says how it was
/// cut, and a fanned-out sweep has at least one tile per worker.
fn cuts_ok(tname: &str, rec: &Recorder) -> bool {
    let Some(cuts) = kernel_cuts(rec) else {
        out!("PARITY MISMATCH: a {tname} kernel span carries no tiles/workers attribute");
        return false;
    };
    let shown: Vec<String> = cuts
        .iter()
        .map(|(tiles, workers)| format!("tiles={tiles} workers={workers}"))
        .collect();
    out!("  {tname} sweep cut: {}", shown.join("; "));
    let starved = cuts
        .iter()
        .any(|&(tiles, workers)| workers > 1 && tiles < workers);
    if starved {
        out!("PARITY MISMATCH: {tname} fans out to more workers than it has tiles");
    }
    !starved
}

/// Run `spec` on every target shape and check the counter contract;
/// `builtin` scenarios must also lower every wall.
fn run_parity(
    spec: &ScenarioSpec,
    builtin: bool,
    ranks: usize,
    tier: KernelTier,
) -> Result<bool, Outcome> {
    let names = ["seq", "par", "cells", "bands", "gpu:async", "bands-gpu"];
    let mut rec = Recorder::buffered();
    let seq_report = run_gated(spec, ExecTarget::CpuSeq, tier, &mut rec)?.report;
    print_report("seq", &seq_report);
    let seq = seq_report.work;
    let seq_tiers = kernel_tiers(&rec);
    out!("  kernel tier attribution: {seq_tiers:?}");
    let seq_run_cells = kernel_run_cells(&rec);
    out!("  kernel run_cells: {seq_run_cells:?}");
    let mut ok = cuts_ok("seq", &rec);
    let seq_walls = rec.walls().map(str::to_string);
    out!("  walls: {}", seq_walls.as_deref().unwrap_or("(none)"));

    // A wall left to a closure is the only thing that evaluates a ghost.
    let walls_ok = |tname: &str, walls: Option<&str>, work: &WorkCounters| {
        let lowered = walls.is_some_and(|w| w.ends_with("callback:0"));
        let consistent = walls.is_some() && lowered == (work.ghost_evals == 0);
        if !consistent {
            out!(
                "PARITY MISMATCH: {tname} walls {walls:?} with {} ghost_evals",
                work.ghost_evals
            );
        }
        if builtin && !lowered {
            out!("PARITY MISMATCH: {tname} walls {walls:?}, expected callback:0");
            return false;
        }
        consistent
    };
    ok &= walls_ok("seq", seq_walls.as_deref(), &seq);
    if seq_run_cells.is_none() {
        out!("PARITY MISMATCH: a seq kernel span carries no run_cells attribute");
        ok = false;
    }
    if seq_tiers.len() != 1 {
        out!("PARITY MISMATCH: seq kernel spans attribute mixed tiers {seq_tiers:?}");
        ok = false;
    }
    for tname in names.into_iter().skip(1) {
        let target = parse_target(tname, ranks).expect("parity names are target spellings");
        // Only a cell partition changes which cells a rank sweeps.
        let sweeps_all_cells = !matches!(target, ExecTarget::DistCells { .. });
        let mut rec = Recorder::buffered();
        let report = run_gated(spec, target, tier, &mut rec)?.report;
        print_report(tname, &report);
        let tiers = kernel_tiers(&rec);
        out!("  kernel tier attribution: {tiers:?}");
        for (counter, expected, actual) in
            expectations(tname, &seq, &report.work, ranks as u64, spec.strategy)
        {
            if actual != expected {
                out!("PARITY MISMATCH: {tname}/{counter} expected {expected} got {actual}");
                ok = false;
            }
        }
        // Every target's kernel spans must attribute one tier uniformly
        // and — GPU lineage included — name the same tier as seq: the
        // device path runs the same tier's kernels as the host rather than
        // a VM alias, so unequal attribution means different code ran.
        if tiers.len() > 1 {
            out!("PARITY MISMATCH: {tname} kernel spans attribute mixed tiers {tiers:?}");
            ok = false;
        }
        if tiers != seq_tiers {
            out!("PARITY MISMATCH: {tname} kernel tier attribution {tiers:?} != seq {seq_tiers:?}");
            ok = false;
        }
        // Every sweep says how many of its cells took the stencil runs; a
        // rank that sweeps the whole mesh must say what seq said.
        let walls = rec.walls();
        out!("  walls: {}", walls.unwrap_or("(none)"));
        ok &= walls_ok(tname, walls, &report.work);
        if walls != seq_walls.as_deref() {
            out!("PARITY MISMATCH: {tname} walls {walls:?}, seq {seq_walls:?}");
            ok = false;
        }
        let run_cells = kernel_run_cells(&rec);
        out!("  kernel run_cells: {run_cells:?}");
        if run_cells.is_none() || (sweeps_all_cells && run_cells != seq_run_cells) {
            out!("PARITY MISMATCH: {tname} kernel run_cells {run_cells:?}, seq {seq_run_cells:?}");
            ok = false;
        }
        ok &= cuts_ok(tname, &rec);
    }
    Ok(ok)
}

// ---------------------------------------------------------------------------
// Stream-frame helpers (follow / top modes)
// ---------------------------------------------------------------------------

fn jstr<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

fn jf64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

fn ju64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_u64()).unwrap_or(0)
}

/// A span frame's string attribute by key.
fn attr<'a>(span: &'a Value, key: &str) -> Option<&'a str> {
    match span.get("attrs")?.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Cost annotation for a sweep or transfer span, when the span carries
/// the cost-model attrs: a transfer's predicted bytes against the bytes it
/// moved; a sweep's price in flops.
fn cost_annotation(cat: &str, span: &Value) -> Option<String> {
    match cat {
        "kernel" => {
            let pred: f64 = attr(span, "pred_flops")?.parse().ok()?;
            Some(format!("pred {pred:.3e} flops"))
        }
        "transfer" => {
            let pred: f64 = attr(span, "pred_bytes")?.parse().ok()?;
            match attr(span, "bytes").and_then(|v| v.parse::<f64>().ok()) {
                Some(obs) if pred > 0.0 => Some(format!(
                    "pred {pred:.0} B, obs {obs:.0} B ({:+.1}%)",
                    100.0 * (obs - pred) / pred
                )),
                _ => Some(format!("pred {pred:.0} B")),
            }
        }
        _ => None,
    }
}

/// Rolling aggregation over stream frames shared by follow and top.
#[derive(Default)]
struct StreamAgg {
    label: String,
    /// `tier=… flux=… walls=… plan=…` of the `run_start` frame.
    ran: String,
    steps: u64,
    last_step_time: f64,
    /// Cumulative seconds per phase, insertion-ordered.
    phase_total: Vec<(String, f64)>,
    /// Cumulative span (count, seconds) per (category, name).
    span_total: BTreeMap<(String, String), (u64, f64)>,
    /// Where the temperature update's time went: the `energy_s`,
    /// `newton_s`, `rewrite_s` attributes of its spans, summed.
    temperature_split: [f64; 3],
    dof: u64,
    flux: u64,
    comm_bytes: u64,
    /// `[severity] rule: message` of every event frame.
    events: Vec<String>,
    run_end: Option<(u64, u64)>,
}

impl StreamAgg {
    fn add_phase(&mut self, name: &str, secs: f64) {
        match self.phase_total.iter_mut().find(|(n, _)| n == name) {
            Some((_, t)) => *t += secs,
            None => self.phase_total.push((name.to_string(), secs)),
        }
    }

    /// Returns the printable annotation when the frame was a kernel or
    /// transfer span carrying cost attrs.
    fn ingest(&mut self, frame: &Value) -> Option<String> {
        match jstr(frame, "frame") {
            "run_start" => {
                self.label = jstr(frame, "label").to_string();
                self.ran = format!(
                    "tier={} flux={} walls=[{}] plan={}",
                    jstr(frame, "tier"),
                    jstr(frame, "flux"),
                    jstr(frame, "walls"),
                    jstr(frame, "plan")
                );
                if let Some(Value::Str(origin)) = frame.get("jvp_plan") {
                    self.ran.push_str(&format!(" jvp_plan={origin}"));
                }
                None
            }
            "step" => {
                self.steps += 1;
                self.last_step_time = jf64(frame, "time");
                if let Some(Value::Obj(phases)) = frame.get("phases") {
                    for (name, secs) in phases {
                        self.add_phase(name, secs.as_f64().unwrap_or(0.0));
                    }
                }
                if let Some(work) = frame.get("work") {
                    self.dof += ju64(work, "dof_updates");
                    self.flux += ju64(work, "flux_evals");
                }
                self.comm_bytes += ju64(frame, "comm_bytes");
                None
            }
            "span" => {
                let (cat, name) = (jstr(frame, "cat"), jstr(frame, "name"));
                let dur = jf64(frame, "dur");
                let total = (self.span_total)
                    .entry((cat.to_string(), name.to_string()))
                    .or_default();
                *total = (total.0 + 1, total.1 + dur);
                if cat == "newton" {
                    let keys = ["energy_s", "newton_s", "rewrite_s"];
                    for (sum, key) in self.temperature_split.iter_mut().zip(keys) {
                        *sum += attr(frame, key).and_then(|v| v.parse().ok()).unwrap_or(0.0);
                    }
                }
                cost_annotation(cat, frame).map(|a| format!("{cat} {name}: {a}"))
            }
            "event" => {
                self.events.push(format!(
                    "[{}] {}: {}",
                    jstr(frame, "severity"),
                    jstr(frame, "name"),
                    jstr(frame, "message")
                ));
                None
            }
            "run_end" => {
                self.run_end = Some((ju64(frame, "frames"), ju64(frame, "dropped")));
                None
            }
            _ => None,
        }
    }

    /// One rolling rate line over a window of `wall` seconds in which
    /// `steps`/`dof`/`bytes` were retired and `phases` seconds spent.
    fn rate_line(wall: f64, steps: u64, dof: u64, bytes: u64, phases: &[(String, f64)]) -> String {
        let busy: f64 = phases.iter().map(|(_, t)| t).sum();
        let mut parts: Vec<String> = phases
            .iter()
            .filter(|(_, t)| *t > 0.0)
            .map(|(n, t)| format!("{n} {:.0}%", 100.0 * t / busy.max(1e-12)))
            .collect();
        if parts.is_empty() {
            parts.push("idle".into());
        }
        let wall = wall.max(1e-9);
        format!(
            "{} | {:.1} step/s, {:.2e} dof/s, {:.1e} B/s comm",
            parts.join(", "),
            steps as f64 / wall,
            dof as f64 / wall,
            bytes as f64 / wall,
        )
    }
}

/// Tail `file`, rendering rolling per-phase rates until `run_end` or
/// `wait` idle seconds.
fn follow(file: &str, wait_s: u64) -> Result<Outcome, Diagnostic> {
    let path = Path::new(file);
    let wait = Duration::from_secs(wait_s.max(1));
    let open_deadline = Instant::now() + wait;
    let mut reader = loop {
        match StreamReader::open(path) {
            Ok(r) => break r,
            Err(e) => {
                if Instant::now() >= open_deadline {
                    return Err(Diagnostic::input_io(file, format!("cannot open: {e}")));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    out!("following {file} (idle timeout {wait_s}s)");
    let mut agg = StreamAgg::default();
    let mut idle_since = Instant::now();
    let mut prev_time = 0.0f64;
    let mut prev = (0u64, 0u64, 0u64); // steps, dof, comm_bytes
    let mut prev_phases: Vec<(String, f64)> = Vec::new();
    // Last printed cost annotation per span key — re-print only on change.
    let mut printed: HashMap<String, String> = HashMap::new();
    loop {
        let frames = reader
            .poll()
            .map_err(|e| Diagnostic::input_io(file, format!("read error: {e}")))?;
        if frames.is_empty() {
            if idle_since.elapsed() >= wait {
                out!("follow: stream idle for {wait_s}s, stopping");
                return Ok(Outcome::default());
            }
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        idle_since = Instant::now();
        let mut annotations: Vec<String> = Vec::new();
        for json in &frames {
            let Ok(frame) = serde_json::from_str::<Value>(json) else {
                continue;
            };
            let events = agg.events.len();
            annotations.extend(agg.ingest(&frame));
            if let Some(event) = agg.events.get(events) {
                out!("  event {event}");
            }
            if jstr(&frame, "frame") == "run_start" {
                out!("run: {} {}", agg.label, agg.ran);
            }
        }
        for a in annotations {
            let key = a.split(':').next().unwrap_or(&a).to_string();
            if printed.insert(key, a.clone()).as_ref() != Some(&a) {
                out!("  {a}");
            }
        }
        if agg.steps > prev.0 {
            let window: Vec<(String, f64)> = agg
                .phase_total
                .iter()
                .map(|(n, t)| {
                    let p = prev_phases
                        .iter()
                        .find(|(pn, _)| pn == n)
                        .map(|(_, pt)| *pt)
                        .unwrap_or(0.0);
                    (n.clone(), t - p)
                })
                .collect();
            let wall = agg.last_step_time - prev_time;
            out!(
                "step {:>5} | {}",
                agg.steps,
                StreamAgg::rate_line(
                    wall,
                    agg.steps - prev.0,
                    agg.dof - prev.1,
                    agg.comm_bytes - prev.2,
                    &window,
                )
            );
            prev_time = agg.last_step_time;
            prev = (agg.steps, agg.dof, agg.comm_bytes);
            prev_phases = agg.phase_total.clone();
        }
        if let Some((frames_written, dropped)) = agg.run_end {
            out!(
                "run_end: {} step(s), {frames_written} frame(s), {dropped} dropped",
                agg.steps
            );
            return Ok(Outcome::default());
        }
    }
}

/// Read a stream file once and print the aggregate summary view.
fn top(file: &str) -> Result<Outcome, Diagnostic> {
    let io = |what: &str, e: std::io::Error| Diagnostic::input_io(file, format!("{what}: {e}"));
    let mut reader = StreamReader::open(Path::new(file)).map_err(|e| io("cannot open", e))?;
    let frames = reader.poll().map_err(|e| io("read error", e))?;
    let mut agg = StreamAgg::default();
    // The run-level `device` and `histogram` frames, printed as recorded.
    let mut summaries: Vec<&str> = Vec::new();
    for json in &frames {
        let Ok(frame) = serde_json::from_str::<Value>(json) else {
            continue;
        };
        if matches!(jstr(&frame, "frame"), "device" | "histogram") {
            summaries.push(json);
        }
        agg.ingest(&frame);
    }
    if !agg.label.is_empty() {
        out!("run: {} {}", agg.label, agg.ran);
    }
    out!(
        "{} frame(s), {} step(s), {} event(s)",
        frames.len(),
        agg.steps,
        agg.events.len()
    );
    let busy: f64 = agg.phase_total.iter().map(|(_, t)| t).sum();
    out!("phases:");
    let mut phases = agg.phase_total.clone();
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, secs) in &phases {
        out!(
            "  {name:<28} {secs:>10.6}s  {:>5.1}%",
            100.0 * secs / busy.max(1e-12)
        );
        let [energy, newton, rewrite] = agg.temperature_split;
        if name.starts_with("temperature update") && energy + newton + rewrite > 0.0 {
            out!("    energy {energy:.6}s  newton {newton:.6}s  rewrite {rewrite:.6}s");
        }
    }
    let mut spans: Vec<_> = agg.span_total.iter().collect();
    spans.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    out!("hottest spans:");
    for ((cat, name), (count, secs)) in spans.into_iter().take(10) {
        out!("  {cat:<10} {name:<24} x{count:<6} {secs:>10.6}s");
    }
    out!(
        "work: {} dof update(s), {} flux eval(s), {} comm byte(s)",
        agg.dof,
        agg.flux,
        agg.comm_bytes
    );
    for line in summaries {
        out!("{line}");
    }
    match agg.run_end {
        Some((f, d)) => out!("run_end: {f} frame(s) written, {d} dropped"),
        None => out!("no run_end frame: stream truncated or still in progress"),
    }
    for event in &agg.events {
        out!("event {event}");
    }
    Ok(Outcome::default())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(outcome) | Err(outcome) => exit(outcome),
    }
}

fn run(args: &[String]) -> Result<Outcome, Outcome> {
    if let Some(("top", rest)) = args.split_first().map(|(a, rest)| (a.as_str(), rest)) {
        check_args(rest, "file=")?;
        return Ok(top(required_file(rest, "top file=STREAM")?)?);
    }
    check_args(args, KNOWN)?;
    if args.iter().any(|a| a == "--follow") {
        let run_keys = "scenario target n steps ranks strategy tier out stream --parity";
        refuse_keys(
            args,
            run_keys,
            "--follow tails a stream (it takes file and wait)",
        )?;
        let file = required_file(args, "--follow file=STREAM [wait=30]")?;
        let wait = arg_usize(args, "wait", 30) as u64;
        return Ok(follow(file, wait)?);
    }
    let parity = args.iter().any(|a| a == "--parity");
    let (ignored, why) = match parity {
        true => (
            "target out stream file wait",
            "--parity runs every target and writes no file",
        ),
        false => ("file wait", "a run reads no stream (use --follow or top)"),
    };
    refuse_keys(args, ignored, why)?;
    let sname = arg_str(args, "scenario", "hotspot");
    let tname = arg_str(args, "target", "seq");
    let n = arg_usize(args, "n", 12);
    let steps = arg_usize(args, "steps", 3);
    let ranks = arg_usize(args, "ranks", 2);
    let out = arg_str(args, "out", ".");
    let strategy = pbte_apps::parse_strategy(arg_str(args, "strategy", "redundant"))?;
    let tier = parse_tier(args)?;

    let cfg = BteConfig::small(n, 8, 4, steps).with_temperature_strategy(strategy);
    let builtin = !sname.ends_with(".pbte");
    let spec = match sname {
        "hotspot" => ScenarioSpec::hotspot(&cfg),
        "elongated" => ScenarioSpec::elongated(&cfg),
        file if !builtin => scenario_file(file, args, "n steps strategy")?,
        _ => {
            return Err(Diagnostic::input_unknown(format!(
                "unknown scenario `{sname}` (use hotspot, elongated or a .pbte file)"
            ))
            .into())
        }
    };

    if parity {
        out!("parity check: scenario={sname} n={n} steps={steps} ranks={ranks}");
        if run_parity(&spec, builtin, ranks, tier)? {
            out!("parity OK: all targets agree");
            return Ok(Outcome::default());
        }
        let mismatch = Diagnostic {
            severity: Severity::Error,
            rule: "parity/mismatch",
            entity: sname.to_string(),
            location: String::new(),
            message: "the targets disagree (see the PARITY MISMATCH lines)".into(),
        };
        return Ok(Outcome::Finished {
            findings: vec![mismatch],
            fails_at: Severity::Error,
        });
    }

    let target = parse_target(tname, ranks)?;
    // Where the run's files go is checked before it starts.
    std::fs::create_dir_all(out).map_err(|e| Diagnostic::input_io(out, e))?;
    let stream_path = arg_str(args, "stream", "");
    let mut rec = Recorder::buffered();
    let writer = if stream_path.is_empty() {
        None
    } else {
        let path = Path::new(stream_path);
        let create = |e| Diagnostic::input_io(path, format!("cannot create stream file: {e}"));
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(create)?;
        }
        let w = StreamWriter::create(path, StreamConfig::default()).map_err(create)?;
        rec.attach_stream(w.sink());
        Some(w)
    };
    let report = run_gated(&spec, target, tier, &mut rec)?.report;
    // What the driver recorded it ran (the summary's first line), not what
    // was asked for.
    let summary = rec.summary_jsonl();
    if let Some(Ok(start)) = summary.lines().next().map(serde_json::from_str::<Value>) {
        out!(
            "run: {} tier={} flux={}",
            jstr(&start, "label"),
            jstr(&start, "tier"),
            jstr(&start, "flux")
        );
    }
    if let Some(w) = writer {
        let stats = w
            .finish()
            .map_err(|e| Diagnostic::input_io(stream_path, format!("stream writer failed: {e}")))?;
        out!(
            "stream: {} frame(s) written, {} dropped, {} byte(s) -> {stream_path}",
            stats.frames_written,
            stats.dropped,
            stats.bytes
        );
    }
    print_report(tname, &report);
    out!("  kernel tier attribution: {:?}", kernel_tiers(&rec));
    out!(
        "trace: {} span(s), {} event(s), {} step record(s)",
        rec.spans().len(),
        rec.events().len(),
        rec.step_records().len()
    );

    let trace_path = Path::new(out).join("trace.json");
    let summary_path = Path::new(out).join("summary.jsonl");
    for (path, text) in [(&trace_path, rec.chrome_trace()), (&summary_path, summary)] {
        std::fs::write(path, text).map_err(|e| Diagnostic::input_io(path, e))?;
    }
    out!(
        "wrote {} (open at https://ui.perfetto.dev) and {}",
        trace_path.display(),
        summary_path.display()
    );

    // One list of what the run found. The physics health findings and
    // the error-severity ones fail the run; the rest (nonmonotonic
    // timers, truncated buffers, live cost drift, a stalled Newton) are
    // reported without failing it.
    let findings = telemetry_diagnostics(&rec);
    for d in &findings {
        match d.rule.starts_with("physics/") {
            true => out!("health: {d}"),
            false => out!("telemetry: {d}"),
        }
    }
    if !findings.iter().any(|d| d.rule.starts_with("physics/")) {
        out!("health: all probes clean");
    }
    Ok(Outcome::Finished {
        findings,
        fails_at: Severity::Error,
    })
}

/// The `file=` a stream mode reads; refused when absent.
fn required_file<'a>(args: &'a [String], usage: &str) -> Result<&'a str, Diagnostic> {
    match arg_str(args, "file", "") {
        "" => Err(Diagnostic::input_invalid(format!(
            "usage: pbte-trace {usage}"
        ))),
        file => Ok(file),
    }
}
