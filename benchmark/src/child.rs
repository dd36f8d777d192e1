//! One run: a fresh process that takes `.pbte` text in and puts the final
//! temperature field out through the public API only, timing every call
//! into a layer from outside and printing one JSON line.
//!
//! ```text
//! parse_pbte -> ScenarioSpec::build -> Problem::kernel_tier -> Solver::build
//!   -> verify_plan / check_units / check_intervals
//!   -> CompiledProblem::intensity_bench   (forces native preparation, so
//!                                          no rustc hides inside the solve)
//!   -> Solver::solve -> output::temperature_grid -> grid_to_csv
//! ```
//!
//! Work the harness adds for attribution only (re-importing the mesh
//! standalone, `Problem::analyze` standalone, the bare-kernel probe) runs
//! after the wall clock, CPU and memory readings are taken.

use crate::host;
use crate::json::{num, obj, text};
use crate::workloads::{Workload, REQUESTED_TIER};
use pbte_bte::output::{grid_to_csv, temperature_grid};
use pbte_bte::pbte::{parse_pbte, MeshSpec, ScenarioSpec};
use pbte_dsl::exec::{phases, telemetry_diagnostics, Recorder, SolveReport};
use pbte_dsl::{analysis, ExecTarget, KernelTier, Severity, Solver};
use pbte_mesh::{gmsh, medit, UniformGrid};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

/// What the parent asks of one run.
pub struct RunSpec {
    pub workload: &'static Workload,
    /// Directory of the generated inputs.
    pub inputs: PathBuf,
    /// Where the rendered field (and a requested dump or trace) goes.
    pub out: PathBuf,
    /// Passes over the workload's scenario list.
    pub loops: usize,
    /// Cross-tier reference run: `tier=vm target=seq`.
    pub reference: bool,
    /// Record telemetry, run the bare-kernel probe, and write the merged
    /// Chrome trace here.
    pub trace: Option<PathBuf>,
    /// Also write the raw `T` values (little-endian `f64`) here.
    pub dump: Option<PathBuf>,
}

/// A span the harness records around a call into a layer.
struct Span {
    name: &'static str,
    t0: f64,
    t1: f64,
    parent: Option<usize>,
    /// Index of the scenario run the span belongs to.
    scenario: usize,
}

struct Spans {
    epoch: Instant,
    all: Vec<Span>,
    open: Vec<usize>,
    scenario: usize,
}

impl Spans {
    fn starting_at(epoch: Instant) -> Spans {
        Spans {
            epoch,
            all: Vec::new(),
            open: Vec::new(),
            scenario: 0,
        }
    }

    fn open(&mut self, name: &'static str) -> usize {
        let t0 = self.epoch.elapsed().as_secs_f64();
        self.all.push(Span {
            name,
            t0,
            t1: t0,
            parent: self.open.last().copied(),
            scenario: self.scenario,
        });
        self.open.push(self.all.len() - 1);
        self.all.len() - 1
    }

    /// Close the innermost open span, which must be `id`; its seconds.
    fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.all[id];
        span.t1 = self.epoch.elapsed().as_secs_f64();
        span.t1 - span.t0
    }

    /// Time one call as a span.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let value = f();
        (value, self.close(id))
    }
}

/// FNV-1a-64, fed with the little-endian bytes of `f64` values.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    pub const fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, values: &[f64]) {
        for v in values {
            for b in v.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Per-layer values of one run, summed over its scenario runs.
#[derive(Default)]
struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// `.so` and `.rs` files of the native cache with their modification
/// times: a compile adds a pair, a disk hit refreshes one.
fn cache_listing(dir: &Path) -> BTreeMap<String, (SystemTime, u64)> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.ends_with(".so") || name.ends_with(".rs")) {
            continue;
        }
        if let Ok(meta) = entry.metadata() {
            if let Ok(modified) = meta.modified() {
                files.insert(name, (modified, meta.len()));
            }
        }
    }
    files
}

fn tier_rank(tier: KernelTier) -> f64 {
    match tier {
        KernelTier::Vm => 0.0,
        KernelTier::Bound => 1.0,
        KernelTier::Row => 2.0,
        KernelTier::Native => 3.0,
    }
}

/// Rows of the rendered grid: the mesh's own `nx` on a grid, else the
/// largest divisor of the cell count not above its square root.
fn render_width(spec: &ScenarioSpec, n_cells: usize) -> usize {
    match spec.mesh {
        MeshSpec::Grid2d { nx, .. } | MeshSpec::Grid3d { nx, .. } => nx,
        _ => (1..=n_cells.isqrt())
            .rev()
            .find(|w| n_cells % w == 0)
            .unwrap_or(1),
    }
}

struct Run<'a> {
    spec: &'a RunSpec,
    target: ExecTarget,
    tier: KernelTier,
    spans: Spans,
    ledger: Ledger,
    rec: Option<Recorder>,
    /// The tier that ran; every scenario of a run resolves to the same.
    resolved: Option<KernelTier>,
    t_range_ok: bool,
    finite: bool,
    /// FNV-1a-64 of the `T` and of the `I` slices of the current pass.
    hash_t: Fnv,
    hash_i: Fnv,
    /// `T` of the first pass, kept when a dump is asked for.
    dump: Vec<f64>,
    /// Scenario files of the first pass, for the standalone probes.
    specs: Vec<ScenarioSpec>,
    /// Largest solver of a traced run's first pass, for the kernel probe.
    /// Untraced runs drop every solver as a user's run would, so that
    /// `peak_rss_mb` is not the harness's.
    largest: Option<Solver>,
}

impl Run<'_> {
    /// Time one call into a layer: a span and a ledger entry, both under
    /// the metric's name.
    fn timed<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, seconds) = self.spans.time(metric, f);
        self.ledger.add(metric, seconds);
        value
    }

    /// One scenario, file in to field out. Adds to the ledger and feeds
    /// the hashes.
    fn scenario(&mut self, file: &str, first_pass: bool) -> Result<(), String> {
        let path = self.spec.inputs.join(file);
        let whole = self.spans.open("scenario");
        let setup = self.spans.open("setup_s");

        let mut spec = self.timed("bte.pbte.parse_s", || {
            std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|src| parse_pbte(&src).map_err(|e| format!("{file}: {e}")))
        })?;
        spec.base_dir = self.spec.inputs.clone();

        let mut bte = self
            .timed("bte.build_s", || spec.build())
            .map_err(|e| format!("{file}: {e}"))?;
        bte.problem.kernel_tier(self.tier);
        let t_var = bte.vars.t;
        let i_var = bte.vars.i;

        let target = self.target.clone();
        let mut solver = self
            .timed("core.pipeline.lower_s", || {
                Solver::build(bte.problem, target)
            })
            .map_err(|e| format!("{file}: {e}"))?;

        let mut diags = self.timed("core.analysis.plan_s", || {
            solver.compiled.verify_plan(&solver.target)
        });
        self.timed("core.analysis.units_s", || {
            analysis::check_units(&solver.compiled, &mut diags)
        });
        self.timed("core.analysis.intervals_s", || {
            analysis::check_intervals(&solver.compiled, &mut diags)
        });
        self.ledger
            .add("core.analysis.diagnostics", diags.len() as f64);
        if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
            return Err(format!("{file}: refused by the verifier: {}", d.render()));
        }

        let resolved = solver.compiled.resolved_tier();
        let fallback = self.timed("core.nativegen.prepare_s", || {
            let bench = solver.compiled.intensity_bench(solver.fields(), resolved);
            bench.native_fallback().map(|d| d.render())
        });
        if let Some(reason) = fallback {
            // Numbers from another tier are not comparable.
            self.ledger.add("core.nativegen.fallbacks", 1.0);
            return Err(format!("{file}: {reason}"));
        }
        match self.resolved {
            None => self.resolved = Some(resolved),
            // A run reports one tier; the sweep's scenarios all agree.
            Some(t) if t != resolved => {
                return Err(format!("{file}: tier {resolved:?} differs from {t:?}"))
            }
            Some(_) => {}
        }
        let setup_s = self.spans.close(setup);
        self.ledger.add("setup_s", setup_s);

        // Not `timed`: the closure borrows the recorder.
        let (report, solve_s) = self.spans.time("solve_s", || match &mut self.rec {
            Some(rec) => solver.solve_traced(rec),
            None => solver.solve(),
        });
        let report = report.map_err(|e| format!("{file}: {e}"))?;
        self.ledger.add("solve_s", solve_s);
        self.stepping_ledger(&report, solve_s);

        let n_cells = solver.fields().n_cells;
        let width = render_width(&spec, n_cells);
        let rendered = self.spec.out.join(Path::new(file).with_extension("csv"));
        self.timed("bte.output.render_s", || {
            let grid = temperature_grid(solver.fields(), t_var, width, n_cells / width);
            let _ = std::fs::write(rendered, grid_to_csv(&grid, width));
        });
        self.spans.close(whole);
        self.spans.scenario += 1;

        let t = solver.fields().slice(t_var);
        let i = solver.fields().slice(i_var);
        self.hash_t.feed(t);
        self.hash_i.feed(i);
        self.finite &= t.iter().chain(i).all(|v| v.is_finite());
        self.t_range_ok &= t
            .iter()
            .all(|&v| v >= spec.t_ref - 1e-6 && v <= spec.t_hot + 1e-6);
        if !first_pass {
            return Ok(());
        }
        if self.spec.dump.is_some() {
            self.dump.extend_from_slice(t);
        }
        let mem = solver.compiled.memory_report();
        self.ledger.add("mem.fields_bytes", mem.fields_bytes as f64);
        self.ledger.add("mem.device_bytes", mem.device_bytes as f64);
        self.ledger.add("mem.n_dof", mem.n_dof as f64);
        self.specs.push(spec);
        let dof = |s: &Solver| s.compiled.n_flat * s.fields().n_cells;
        if self.spec.trace.is_some() && self.largest.as_ref().is_none_or(|l| dof(l) < dof(&solver))
        {
            self.largest = Some(solver);
        }
        Ok(())
    }

    fn stepping_ledger(&mut self, report: &SolveReport, solve_s: f64) {
        let l = &mut self.ledger;
        let timer = &report.timer;
        // `temperature update(CPU)` of the GPU lanes is host wall clock.
        let host = [
            ("core.exec.intensity_s", timer.get(phases::INTENSITY)),
            (
                "core.exec.temperature_s",
                timer.get(phases::TEMPERATURE) + timer.get(phases::TEMPERATURE_CPU),
            ),
            (
                "core.exec.communication_s",
                timer.get(phases::COMMUNICATION),
            ),
        ];
        let mut attributed = 0.0;
        for (name, secs) in host {
            l.add(name, secs);
            attributed += secs;
        }
        l.add("core.exec.unattributed_s", solve_s - attributed);
        // Simulated device seconds: labelled, never summed with host time.
        l.add("gpu.sim_kernel_s", timer.get(phases::INTENSITY_GPU));
        l.add("gpu.sim_transfer_s", timer.get(phases::COMM_GPU));

        let w = &report.work;
        l.add("core.exec.steps", report.steps as f64);
        l.add("work.dof_updates", w.dof_updates as f64);
        l.add("work.flux_evals", w.flux_evals as f64);
        l.add("work.ghost_evals", w.ghost_evals as f64);
        l.add("work.rhs_evals", w.rhs_evals as f64);
        l.add("work.jvp_evals", w.jvp_evals as f64);
        l.add("work.krylov_iters", w.krylov_iters as f64);
        l.add("work.newton_iters", w.newton_iters as f64);
        l.add("work.temperature_solves", w.temperature_solves as f64);
        l.add("comm.messages", report.comm.messages as f64);
        l.add("comm.bytes", report.comm.bytes as f64);
        if let Some(dev) = &report.device {
            l.add("gpu.h2d_bytes", dev.h2d.bytes as f64);
            l.add("gpu.d2h_bytes", dev.d2h.bytes as f64);
            let launches: usize = dev.kernels.values().map(|k| k.launches).sum();
            l.add("gpu.launches", launches as f64);
            // One GPU scenario per run, so these are not sums.
            l.set("gpu.sm_utilization", dev.sm_utilization());
            l.set("gpu.memory_fraction", dev.memory_fraction());
        }
    }

    /// Standalone timings of work `ScenarioSpec::build` and
    /// `Solver::build` do inside: mesh import, mesh validation, and the
    /// symbolic analysis. They are parts of `bte.build_s` and
    /// `core.pipeline.lower_s`, not terms of the setup sum. Each scenario
    /// file is probed once and counted `loops` times, as the run built it
    /// `loops` times.
    fn probe(&mut self, spec: &ScenarioSpec, loops: f64) -> Result<(), String> {
        let read = |file: &String| {
            std::fs::read_to_string(spec.base_dir.join(file)).map_err(|e| format!("{file}: {e}"))
        };
        let t = Instant::now();
        let (mesh, bytes) = match &spec.mesh {
            MeshSpec::Grid2d { nx, ny, lx, ly } => {
                (UniformGrid::new_2d(*nx, *ny, *lx, *ly).build(), 0)
            }
            MeshSpec::Grid3d {
                nx,
                ny,
                nz,
                lx,
                ly,
                lz,
            } => (UniformGrid::new_3d(*nx, *ny, *nz, *lx, *ly, *lz).build(), 0),
            MeshSpec::Gmsh { file } => {
                let src = read(file)?;
                let mesh = gmsh::parse_msh(&src).map_err(|e| format!("{file}: {e}"))?;
                (mesh, src.len())
            }
            MeshSpec::Medit { file } => {
                let src = read(file)?;
                let mesh = medit::parse_mesh(&src).map_err(|e| format!("{file}: {e}"))?;
                (mesh, src.len())
            }
        };
        self.ledger
            .add("mesh.import_s", loops * t.elapsed().as_secs_f64());
        let t = Instant::now();
        let problems = mesh.validate();
        self.ledger
            .add("mesh.validate_s", loops * t.elapsed().as_secs_f64());
        if !problems.is_empty() {
            return Err(format!("mesh invalid: {}", problems.join("; ")));
        }
        self.ledger.add("mesh.cells", mesh.n_cells() as f64);
        self.ledger.add("mesh.file_bytes", bytes as f64);

        let bte = spec.build().map_err(|e| e.to_string())?;
        let t = Instant::now();
        bte.problem.analyze().map_err(|e| e.to_string())?;
        self.ledger
            .add("core.pipeline.analyze_s", loops * t.elapsed().as_secs_f64());
        Ok(())
    }
}

/// `IntensityBench::run` x10 at the resolved tier on the final state: the
/// bare kernel, ns per dof.
fn rhs_ns_per_dof(solver: &Solver) -> f64 {
    let cp = &solver.compiled;
    let fields = solver.fields();
    let mut bench = cp.intensity_bench(fields, cp.resolved_tier());
    let n_dof = cp.n_flat * fields.n_cells;
    let mut rhs = vec![0.0; n_dof];
    bench.run(fields, &mut rhs);
    const PASSES: usize = 10;
    let t = Instant::now();
    for _ in 0..PASSES {
        bench.run(fields, &mut rhs);
    }
    std::hint::black_box(&rhs);
    t.elapsed().as_secs_f64() * 1e9 / (PASSES * n_dof) as f64
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
}

/// Per-step host milliseconds of every `StepRecord` (simulated device
/// phases left out).
fn step_ms(rec: &Recorder) -> Vec<f64> {
    let mut ms: Vec<f64> = rec
        .step_records()
        .iter()
        .map(|s| {
            s.phases
                .iter()
                .filter(|(name, _)| name != phases::INTENSITY_GPU && name != phases::COMM_GPU)
                .map(|(_, secs)| secs * 1e3)
                .sum()
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// The recorder's Chrome trace with the harness's own spans merged in as
/// one more process, so the setup the program does not trace is visible
/// beside its steps.
fn merged_trace(rec: &Recorder, spans: &Spans, run_id: &str) -> Result<String, String> {
    let mut trace: Value = serde_json::from_str(&rec.chrome_trace()).map_err(|e| e.to_string())?;
    let Value::Obj(entries) = &mut trace else {
        return Err("chrome trace is not an object".into());
    };
    let Some((_, Value::Arr(events))) = entries.iter_mut().find(|(k, _)| k == "traceEvents") else {
        return Err("chrome trace has no traceEvents".into());
    };
    const PID: u64 = 1000;
    events.push(obj([
        ("name", text("process_name")),
        ("ph", text("M")),
        ("pid", Value::UInt(PID)),
        ("tid", Value::UInt(0)),
        ("args", obj([("name", text("benchmark harness"))])),
    ]));
    for (id, s) in spans.all.iter().enumerate() {
        events.push(obj([
            ("name", text(s.name)),
            ("cat", text("harness")),
            ("ph", text("X")),
            ("ts", num(s.t0 * 1e6)),
            ("dur", num((s.t1 - s.t0) * 1e6)),
            ("pid", Value::UInt(PID)),
            ("tid", Value::UInt(0)),
            (
                "args",
                obj([
                    ("run", text(run_id)),
                    ("span", Value::UInt(id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("scenario", Value::UInt(s.scenario as u64)),
                ]),
            ),
        ]));
    }
    serde_json::to_string(&trace).map_err(|e| e.to_string())
}

/// Run once and return the JSON object the child prints. `Err` is a failed
/// run.
pub fn run(spec: &RunSpec, start: Instant) -> Result<Value, String> {
    let w = spec.workload;
    std::fs::create_dir_all(&spec.out).map_err(|e| format!("{}: {e}", spec.out.display()))?;
    let cache_dir = pbte_dsl::nativegen::cache_dir();
    let cache_before = cache_listing(&cache_dir);

    let (target, tier) = if spec.reference {
        (ExecTarget::CpuSeq, KernelTier::Vm)
    } else {
        (w.target.exec(), REQUESTED_TIER)
    };
    let mut run = Run {
        spec,
        target,
        tier,
        spans: Spans::starting_at(start),
        ledger: Ledger::default(),
        rec: spec.trace.is_some().then(Recorder::buffered),
        resolved: None,
        t_range_ok: true,
        finite: true,
        hash_t: Fnv::new(),
        hash_i: Fnv::new(),
        dump: Vec::new(),
        specs: Vec::new(),
        largest: None,
    };

    let files = w.files();
    let mut first_pass: Option<(Fnv, Fnv)> = None;
    for pass in 0..spec.loops {
        (run.hash_t, run.hash_i) = (Fnv::new(), Fnv::new());
        for file in &files {
            run.scenario(file, pass == 0)?;
        }
        let hashes = (run.hash_t, run.hash_i);
        match first_pass {
            None => first_pass = Some(hashes),
            Some(first) if first != hashes => {
                return Err(format!("pass {pass} differs from pass 0 of the same files"))
            }
            Some(_) => {}
        }
        // Only the first pass is dumped.
        if pass == 0 {
            if let Some(path) = &spec.dump {
                let bytes: Vec<u8> = run.dump.iter().flat_map(|v| v.to_le_bytes()).collect();
                std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
    }

    // The user's cost ends here; everything below is attribution.
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds();
    let peak_rss_mb = host::peak_rss_mb();
    let (hash_t, hash_i) = first_pass.ok_or("workload has no scenario")?;
    if !run.finite {
        return Err("a T or I value is not finite".into());
    }
    if !run.t_range_ok {
        return Err("T left [t_ref - 1e-6, t_hot + 1e-6]".into());
    }

    let cache_after = cache_listing(&cache_dir);
    // Present in every run, so that a lane that never hits reads 0.
    for counter in [
        "core.nativegen.compiles",
        "core.nativegen.disk_hits",
        "core.nativegen.fallbacks",
    ] {
        run.ledger.add(counter, 0.0);
    }
    for (name, (modified, len)) in &cache_after {
        let compiled = !cache_before.contains_key(name);
        let hit = cache_before
            .get(name)
            .is_some_and(|(before, _)| before != modified);
        if !(compiled || hit) {
            continue;
        }
        if name.ends_with(".so") {
            let counter = if compiled {
                "core.nativegen.compiles"
            } else {
                "core.nativegen.disk_hits"
            };
            run.ledger.add(counter, 1.0);
            run.ledger.add("core.nativegen.so_bytes", *len as f64);
        } else {
            run.ledger.add("core.nativegen.src_bytes", *len as f64);
        }
    }
    run.ledger.set(
        "core.nativegen.rustc_peak_rss_mb",
        host::children_peak_rss_mb(),
    );

    for scenario in std::mem::take(&mut run.specs) {
        run.probe(&scenario, spec.loops as f64)?;
    }

    let resolved = run.resolved.ok_or("no tier resolved")?;
    let l = &mut run.ledger;
    let (setup_s, solve_s, dof) = (
        l.get("setup_s"),
        l.get("solve_s"),
        l.get("work.dof_updates"),
    );
    let attributed: f64 = [
        "bte.pbte.parse_s",
        "bte.build_s",
        "core.pipeline.lower_s",
        "core.analysis.plan_s",
        "core.analysis.units_s",
        "core.analysis.intervals_s",
        "core.nativegen.prepare_s",
    ]
    .iter()
    .map(|name| l.get(name))
    .sum();
    l.set("setup.unattributed_s", setup_s - attributed);
    l.set("setup.unattributed_share", (setup_s - attributed) / setup_s);
    l.set(
        "core.exec.unattributed_share",
        l.get("core.exec.unattributed_s") / solve_s,
    );
    l.set("wall_s", wall_s);
    l.set("cpu_s", cpu_s);
    l.set("peak_rss_mb", peak_rss_mb);
    l.set("ns_per_dof", solve_s * 1e9 / dof);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    l.set(
        "bte.temperature.newton_per_solve",
        ratio(l.get("work.newton_iters"), l.get("work.temperature_solves")),
    );
    l.set(
        "core.exec.implicit.krylov_per_step",
        ratio(l.get("work.krylov_iters"), l.get("core.exec.steps")),
    );
    l.set("core.exec.rows.tier_rank", tier_rank(resolved));
    // Computed, not measured: every variable read once and the unknown
    // written once per update, cache misses ignored.
    let n_dof = l.get("mem.n_dof");
    l.set(
        "core.exec.rows.bytes_per_dof",
        ratio(l.get("mem.fields_bytes") + 8.0 * n_dof, n_dof),
    );
    l.0.remove("mem.n_dof");

    if let (Some(rec), Some(trace_path)) = (&run.rec, &spec.trace) {
        let ms = step_ms(rec);
        let l = &mut run.ledger;
        l.set("core.exec.step_ms_p50", percentile(&ms, 0.5));
        l.set("core.exec.step_ms_p90", percentile(&ms, 0.9));
        l.set("core.exec.step_ms_max", ms.last().copied().unwrap_or(0.0));
        l.set("core.exec.step_samples", ms.len() as f64);
        l.set("runtime.telemetry.spans", rec.spans().len() as f64);
        l.set(
            "runtime.telemetry.dropped_spans",
            rec.dropped_spans() as f64,
        );
        let drift = telemetry_diagnostics(rec)
            .iter()
            .filter(|d| d.rule == "cost/live-drift")
            .count();
        l.set("runtime.telemetry.drift_warnings", drift as f64);
        // The bare kernel of the run's largest scenario.
        let largest = run.largest.as_ref().ok_or("no solver kept")?;
        l.set("core.exec.rows.rhs_ns_per_dof", rhs_ns_per_dof(largest));
        let run_id = format!("{}-{}", w.name, std::process::id());
        let trace = merged_trace(rec, &run.spans, &run_id)?;
        std::fs::write(trace_path, trace).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    }

    let values = run
        .ledger
        .0
        .iter()
        .map(|(k, v)| (k.to_string(), num(*v)))
        .collect();
    Ok(obj([
        ("workload", text(w.name)),
        ("tier", text(resolved.name())),
        ("hash_t", text(&hash_t.hex())),
        ("hash_i", text(&hash_i.hex())),
        ("values", Value::Obj(values)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Sizes};
    use crate::json::entries_at;
    use crate::metrics::{Source, END_TO_END, PER_LAYER};
    use crate::workloads;

    /// A name the child misspells would silently read as 0 in the parent.
    #[test]
    fn every_value_a_run_prints_is_a_listed_metric() {
        let dir = std::env::temp_dir().join(format!("pbte-benchmark-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        gen::write_inputs(&dir.join("inputs"), 5, Sizes::QUICK).unwrap();
        // Only this test of the package touches the native cache.
        std::env::set_var("PBTE_NATIVE_CACHE_DIR", dir.join("cache"));
        let measured: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .filter(|m| m.source != Source::Derived)
            .map(|m| m.name)
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        for name in ["array_unstructured", "hotspot_gpu", "sweep_cold"] {
            let spec = RunSpec {
                workload: workloads::by_name(name).unwrap(),
                inputs: dir.join("inputs"),
                out: dir.join("out"),
                loops: 1,
                reference: false,
                trace: Some(dir.join("trace.json")),
                dump: None,
            };
            let result = run(&spec, Instant::now()).unwrap_or_else(|e| panic!("{name}: {e}"));
            for (key, value) in entries_at(&result, "values") {
                assert!(
                    measured.contains(&key.as_str()),
                    "{name} prints unlisted {key}"
                );
                assert!(value.as_f64().is_some_and(f64::is_finite), "{name}: {key}");
                seen.insert(key.clone());
            }
            let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
            assert!(trace.contains("benchmark harness") && trace.contains("core.pipeline.lower_s"));
        }
        for name in measured {
            assert!(seen.contains(name), "no run printed {name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_is_the_reference_function() {
        let mut h = Fnv::new();
        h.feed(&[]);
        assert_eq!(h.hex(), "cbf29ce484222325");
        h.feed(&[1.0]);
        let mut again = Fnv::new();
        again.feed(&[1.0]);
        assert!(h == again && h.hex() != "cbf29ce484222325");
    }
}
