//! Unified telemetry: one recorder, one frame model, several renderings.
//!
//! The paper's evaluation (§III-D, Figs 5 and 8) attributes execution time
//! to "solve for intensity", "temperature update" and "communication" per
//! rank and per device. This module is the single layer every executor
//! feeds, and it has **one record type**: every record call on a
//! [`Recorder`] builds a [`Frame`] — `run_start`, `span`, `event`, `step`,
//! `sample`, `histogram`, `device`, `total` — and hands it to one private
//! `emit`, which stores it when buffering and sends it down the stream
//! when streaming. A buffered run and a streamed run therefore carry the same
//! frames by construction, and every artifact is a rendering of them
//! through the one [`Frame::to_json`] (or, for the trace, of the span and
//! event frames through [`Recorder::chrome_trace`]).
//!
//! Design contract:
//!
//! * The **null sink is free**: a [`Recorder`] built from
//!   [`TraceConfig::disabled`] still accumulates [`WorkCounters`] and
//!   [`PhaseTimer`] seconds — executors need both for their
//!   `SolveReport` regardless — but every record call returns before
//!   building a frame.
//! * **Findings are kept on every sink.** A rule-tagged warning or error
//!   goes through the one [`Recorder::warn`] into the recorder's
//!   [`Findings`], null sink included, so an untraced run finds what a
//!   traced one does; it becomes an event frame only when a consumer is
//!   live. A clean run records none and allocates nothing for them.
//! * The **buffer** retains frames in emission order, bounded by the
//!   [`TraceConfig`] span cap (overflow increments a drop counter and
//!   surfaces one [`rules::BUFFER_TRUNCATED`] warning). After the run,
//!   [`Recorder::summary_jsonl`] renders the non-span frames and
//!   [`Recorder::chrome_trace`] the span and event frames. Nothing is
//!   written during the solve loop.
//! * The **stream** ([`stream::StreamSink`], attached with
//!   [`Recorder::attach_stream`]) carries the same frames over a bounded
//!   channel to a background writer thread that writes them as JSONL;
//!   the hot path never blocks on I/O — a full channel drops the frame
//!   and counts it. Both consumers can be live at once.
//! * A [`CostExpectation`] (derived from the static cost model) makes
//!   the recorder annotate `h2d`/`d2h` transfer spans with predicted
//!   bytes and emit a [`rules::COST_LIVE_DRIFT`] warning when
//!   observed per-step work drifts from the prediction mid-run.
//! * Ranks record into **child recorders** sharing the parent's epoch
//!   and stream ([`Recorder::child`], callable from inside the
//!   `World::run` closure), merged afterwards with
//!   [`Recorder::absorb_rank`].

pub mod stream;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::timer::PhaseTimer;
use stream::StreamSink;

/// Stable rule identifiers for telemetry-originated diagnostics, so
/// downstream tooling (`pbte-trace`, CI asserts) can match on them.
pub mod rules {
    /// A phase timer was handed a negative duration (simulated-clock
    /// rounding) and saturated it to zero.
    pub const NONMONOTONIC_TIMER: &str = "telemetry/nonmonotonic-timer";
    /// The in-memory buffered sink hit its retention cap and started
    /// dropping spans (streamed frames are unaffected).
    pub const BUFFER_TRUNCATED: &str = "telemetry/buffer-truncated";
    /// Observed per-step work or transfer bytes drifted from the static
    /// cost model's prediction beyond tolerance, mid-run.
    pub const COST_LIVE_DRIFT: &str = "cost/live-drift";
    /// Temperature solves returned at the iteration cap without meeting
    /// the tolerance (the returned temperature is used regardless).
    pub const NEWTON_STALLED: &str = "temperature/newton-stalled";
    /// Cells whose energy sum was NaN or infinite: the Newton solve
    /// bisects such a target to a table edge, hiding it from the field.
    pub const NON_FINITE_ENERGY: &str = "temperature/non-finite-energy";
    /// The temperature update's probes found a NaN in the intensity field
    /// (severity: error).
    pub const NAN_INTENSITY: &str = "physics/nan-intensity";
    /// The probes found a negative intensity (severity: warning — the
    /// upwind scheme should be positivity-preserving).
    pub const NEGATIVE_INTENSITY: &str = "physics/negative-intensity";
    /// The probes found a per-cell energy-conservation residual above
    /// tolerance (severity: warning).
    pub const ENERGY_BUDGET: &str = "physics/energy-budget";
    /// A BiCGStab solve broke down (a zero `rho`, `r0·v`, `t·t` or
    /// `omega`) and returned its best iterate.
    pub const KRYLOV_BREAKDOWN: &str = "solve/krylov-breakdown";
    /// A BiCGStab solve reached its iteration cap without meeting the
    /// tolerance and returned its last iterate.
    pub const KRYLOV_STAGNATION: &str = "solve/krylov-stagnation";
}

/// Work counters validating that every execution target performs the same
/// computation. Moved here from `pbte-dsl::exec` so host callbacks, the
/// executors and the distributed reduction all share one accounting path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Degree-of-freedom updates (cells × flattened direction/band dofs).
    pub dof_updates: u64,
    /// Upwind flux evaluations (interior face visits per dof).
    pub flux_evals: u64,
    /// Ghost/boundary face evaluations.
    pub ghost_evals: u64,
    /// Newton iterations inside the temperature update.
    pub newton_iters: u64,
    /// Per-cell temperature solves.
    pub temperature_solves: u64,
    /// Full right-hand-side evaluations (one = every dof's RHS once).
    /// Explicit Euler performs one per step; implicit integrators one
    /// per Newton residual.
    pub rhs_evals: u64,
    /// Jacobian-vector-product evaluations (implicit integrators only).
    pub jvp_evals: u64,
    /// Krylov (BiCGStab) iterations across all implicit solves.
    pub krylov_iters: u64,
}

impl WorkCounters {
    /// Merge per-rank counters into job totals.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.dof_updates += other.dof_updates;
        self.flux_evals += other.flux_evals;
        self.ghost_evals += other.ghost_evals;
        self.newton_iters += other.newton_iters;
        self.temperature_solves += other.temperature_solves;
        self.rhs_evals += other.rhs_evals;
        self.jvp_evals += other.jvp_evals;
        self.krylov_iters += other.krylov_iters;
    }

    /// Counter increase since a `baseline` snapshot (counters are
    /// monotone, so plain subtraction is exact).
    pub fn since(&self, baseline: &WorkCounters) -> WorkCounters {
        WorkCounters {
            dof_updates: self.dof_updates - baseline.dof_updates,
            flux_evals: self.flux_evals - baseline.flux_evals,
            ghost_evals: self.ghost_evals - baseline.ghost_evals,
            newton_iters: self.newton_iters - baseline.newton_iters,
            temperature_solves: self.temperature_solves - baseline.temperature_solves,
            rhs_evals: self.rhs_evals - baseline.rhs_evals,
            jvp_evals: self.jvp_evals - baseline.jvp_evals,
            krylov_iters: self.krylov_iters - baseline.krylov_iters,
        }
    }
}

/// What a span measures. `category()` becomes the Chrome-trace `cat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One full time step.
    Step,
    /// One of the paper's phases within a step.
    Phase,
    /// A simulated GPU kernel launch.
    Kernel,
    /// A host↔device transfer.
    Transfer,
    /// A user callback (boundary condition, temperature update, probe).
    Callback,
    /// A collective reduction.
    Allreduce,
    /// The Newton stage of the temperature update.
    NewtonSolve,
    /// A halo exchange under cell partitioning.
    HaloExchange,
}

/// Every span kind.
pub const SPAN_KINDS: [SpanKind; 8] = [
    SpanKind::Step,
    SpanKind::Phase,
    SpanKind::Kernel,
    SpanKind::Transfer,
    SpanKind::Callback,
    SpanKind::Allreduce,
    SpanKind::NewtonSolve,
    SpanKind::HaloExchange,
];

impl SpanKind {
    /// Stable category string for trace consumers.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Step => "step",
            SpanKind::Phase => "phase",
            SpanKind::Kernel => "kernel",
            SpanKind::Transfer => "transfer",
            SpanKind::Callback => "callback",
            SpanKind::Allreduce => "allreduce",
            SpanKind::NewtonSolve => "newton",
            SpanKind::HaloExchange => "halo",
        }
    }
}

/// Timeline a span is drawn on. Each rank gets a host track plus one
/// track per simulated device; in the Chrome trace `pid` is the rank and
/// `tid` is the track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// Host (CPU) timeline, wall-clock seconds from the trace epoch.
    Host,
    /// Simulated device timeline: seconds of the device's own clock.
    Device(u32),
}

impl Track {
    fn tid(self) -> u64 {
        match self {
            Track::Host => 0,
            Track::Device(d) => 1 + d as u64,
        }
    }

    fn label(self) -> String {
        match self {
            Track::Host => "host".to_string(),
            Track::Device(d) => format!("device {d} (simulated)"),
        }
    }
}

/// A closed interval on one rank's timeline.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the interval measures.
    pub kind: SpanKind,
    /// Display name (phase name, kernel name, callback name, …).
    pub name: String,
    /// Start, seconds from the epoch of `kind`'s track clock.
    pub t0: f64,
    /// Duration in seconds (never negative; clamped at record time).
    pub dur: f64,
    /// Owning rank.
    pub rank: u32,
    /// Host or device timeline.
    pub track: Track,
    /// Free-form attribution (`band`, `tier`, `step`, `bytes`, …).
    pub attrs: Vec<(&'static str, String)>,
}

/// How bad a finding is — a run's [`Event`] or a verifier diagnostic.
/// Ordered: `Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A skipped proof, or something that costs work or precision but not
    /// correctness (e.g. clock rounding).
    Warning,
    /// A proven violation, or a broken state (e.g. a NaN intensity).
    Error,
}

impl std::fmt::Display for Severity {
    /// Lowercase, as the event frame spells it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// An instantaneous marker on a rank's host timeline — and, recorded
/// through [`Recorder::warn`], one finding of a run.
#[derive(Debug, Clone)]
pub struct Event {
    /// Severity for downstream filtering.
    pub severity: Severity,
    /// Short machine-friendly name, rule-style for structured
    /// diagnostics (e.g. `telemetry/nonmonotonic-timer`).
    pub name: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Seconds from the epoch.
    pub time: f64,
    /// Emitting rank.
    pub rank: u32,
}

/// One closed step — the payload of the `step` frame.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Step index (0-based).
    pub step: usize,
    /// Recording rank.
    pub rank: u32,
    /// Seconds from the epoch at which the step closed.
    pub time: f64,
    /// Phase seconds spent in this step, `(phase name, seconds)`.
    pub phases: Vec<(String, f64)>,
    /// Work performed during this step (the delta; the run sum is the
    /// `total` frame).
    pub work: WorkCounters,
    /// Message-passing bytes sent during this step (0 where untracked).
    pub comm_bytes: u64,
}

/// End-of-run roofline summary for one simulated device, filled from the
/// GPU profiler by the executor (the runtime crate has no device types).
#[derive(Debug, Clone)]
pub struct DeviceSummary {
    /// Rank driving the device.
    pub rank: u32,
    /// Device spec name (e.g. `RTX A6000`).
    pub device: String,
    /// Launch-weighted SM occupancy fraction.
    pub sm_utilization: f64,
    /// Fraction of kernel time bound by memory bandwidth.
    pub memory_fraction: f64,
    /// Achieved / peak double-precision FLOP fraction.
    pub flop_fraction: f64,
    /// Simulated seconds inside kernels.
    pub kernel_seconds: f64,
    /// Simulated seconds in host↔device transfers.
    pub transfer_seconds: f64,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
}

/// A floating-point sample series entry (e.g. energy residual per step).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Series name.
    pub name: &'static str,
    /// Step index.
    pub step: usize,
    /// Recording rank.
    pub rank: u32,
    /// Sampled value.
    pub value: f64,
}

/// The one telemetry record. Everything a [`Recorder`] emits — to the
/// buffer, the stream, or both — is a `Frame`; serialized to a single JSON
/// object whose `"frame"` key discriminates the variant.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Opens a run: what is about to execute.
    RunStart {
        /// Seconds from the trace epoch.
        time: f64,
        /// `problem name/target`.
        label: String,
        /// Kernel tier the sweeps run at, after any native fallback
        /// (`vm`, `row`, `native`).
        tier: String,
        /// Flux evaluation that tier runs (`table`, `compiled`, `vm`).
        flux: String,
        /// How the boundary walls run, in boundary faces:
        /// `fixed:<n> gather:<n> callback:<n>` — lowered to the ghost
        /// image, lowered to a same-cell gather, or a host closure called
        /// every sweep.
        walls: String,
        /// Where the run's plan came from: `lowered` for this build, or
        /// `reused` — this process had lowered the same content before.
        plan: String,
        /// The same for the JVP twin's plan, when the run steps implicitly.
        jvp_plan: Option<String>,
    },
    /// A closed span, including any cost-model annotation attrs (a
    /// sweep's `pred_flops`, a transfer's `pred_bytes`).
    Span(Span),
    /// A health / diagnostic event.
    Event(Event),
    /// A closed step.
    Step(StepRecord),
    /// One entry of a per-step sample series.
    Sample(Sample),
    /// An iteration histogram accumulated over the run.
    Histogram {
        /// Histogram name.
        name: &'static str,
        /// [`HIST_BUCKETS`] counts; the last bucket is overflow.
        buckets: Vec<u64>,
    },
    /// End-of-run summary of one simulated device.
    Device(DeviceSummary),
    /// Closes a run: its phase seconds (max over ranks) and summed work.
    Total {
        /// `(phase name, seconds)`.
        phases: Vec<(String, f64)>,
        /// Work summed over steps and ranks.
        work: WorkCounters,
    },
    /// Last frame of a stream file, written by the writer thread once the
    /// stream closes; never droppable, never buffered.
    RunEnd {
        /// Seconds from the epoch at shutdown.
        time: f64,
        /// Frames written to the file (excluding this one).
        frames: u64,
        /// Frames dropped under backpressure.
        dropped: u64,
    },
}

impl Frame {
    /// What a `run_start` frame says ran, as JSON members — the one
    /// rendering `summary.jsonl`, the stream and `trace.json` share. Empty
    /// for any other frame.
    fn run_start_attrs(&self) -> String {
        let Frame::RunStart {
            label,
            tier,
            flux,
            walls,
            plan,
            jvp_plan,
            ..
        } = self
        else {
            return String::new();
        };
        let mut attrs = vec![
            ("label", label),
            ("tier", tier),
            ("flux", flux),
            ("walls", walls),
            ("plan", plan),
        ];
        attrs.extend(jvp_plan.as_ref().map(|origin| ("jvp_plan", origin)));
        json_members(&attrs, |v| json_str(v))
    }

    /// Serialize to one JSON object — the only serializer of the model:
    /// the stream writer calls it per frame, `summary.jsonl` is its output
    /// over the buffered non-span frames.
    pub fn to_json(&self) -> String {
        match self {
            Frame::RunStart { time, .. } => format!(
                "{{\"frame\":\"run_start\",\"time\":{},{}}}",
                json_f64(*time),
                self.run_start_attrs()
            ),
            Frame::Span(s) => format!(
                "{{\"frame\":\"span\",\"cat\":\"{}\",\"name\":{},\"t0\":{},\"dur\":{},\
                 \"rank\":{},\"tid\":{},\"attrs\":{{{}}}}}",
                s.kind.category(),
                json_str(&s.name),
                json_f64(s.t0),
                json_f64(s.dur),
                s.rank,
                s.track.tid(),
                json_members(&s.attrs, |v| json_str(v))
            ),
            Frame::Event(e) => format!(
                "{{\"frame\":\"event\",\"severity\":\"{}\",\"name\":{},\"message\":{},\
                 \"time\":{},\"rank\":{}}}",
                e.severity,
                json_str(e.name),
                json_str(&e.message),
                json_f64(e.time),
                e.rank
            ),
            Frame::Step(s) => format!(
                "{{\"frame\":\"step\",\"step\":{},\"rank\":{},\"time\":{},\
                 \"phases\":{{{}}},\"work\":{},\"comm_bytes\":{}}}",
                s.step,
                s.rank,
                json_f64(s.time),
                json_members(&s.phases, |v| json_f64(*v)),
                work_json(&s.work),
                s.comm_bytes
            ),
            Frame::Sample(s) => format!(
                "{{\"frame\":\"sample\",\"name\":{},\"step\":{},\"rank\":{},\"value\":{}}}",
                json_str(s.name),
                s.step,
                s.rank,
                json_f64(s.value)
            ),
            Frame::Histogram { name, buckets } => {
                let counts: Vec<String> = buckets.iter().map(|c| c.to_string()).collect();
                format!(
                    "{{\"frame\":\"histogram\",\"name\":{},\"buckets\":[{}]}}",
                    json_str(name),
                    counts.join(",")
                )
            }
            Frame::Device(d) => format!(
                "{{\"frame\":\"device\",\"device\":{},\"rank\":{},\"sm_utilization\":{},\
                 \"memory_fraction\":{},\"flop_fraction\":{},\"kernel_seconds\":{},\
                 \"transfer_seconds\":{},\"h2d_bytes\":{},\"d2h_bytes\":{}}}",
                json_str(&d.device),
                d.rank,
                json_f64(d.sm_utilization),
                json_f64(d.memory_fraction),
                json_f64(d.flop_fraction),
                json_f64(d.kernel_seconds),
                json_f64(d.transfer_seconds),
                d.h2d_bytes,
                d.d2h_bytes
            ),
            Frame::Total { phases, work } => format!(
                "{{\"frame\":\"total\",\"phases\":{{{}}},\"work\":{}}}",
                json_members(phases, |v| json_f64(*v)),
                work_json(work)
            ),
            Frame::RunEnd {
                time,
                frames,
                dropped,
            } => format!(
                "{{\"frame\":\"run_end\",\"time\":{},\"frames\":{frames},\"dropped\":{dropped}}}",
                json_f64(*time)
            ),
        }
    }
}

/// Default in-memory retention cap for spans (per recorder tree).
pub const DEFAULT_SPAN_CAP: usize = 1 << 20;
/// In-memory retention cap for events.
pub const DEFAULT_EVENT_CAP: usize = 1 << 16;
/// At most this many findings per rule and recorder are kept, so a
/// condition that holds on every step (a systematically wrong
/// prediction, a stalled solve, a NaN field) cannot flood the event
/// buffer; the rest are only counted.
pub const MAX_WARNS_PER_RULE: u64 = 8;

/// What a run found: the first [`MAX_WARNS_PER_RULE`] findings per rule
/// and recorder, in the order they fired, and every rule's total.
#[derive(Debug, Clone, Default)]
pub struct Findings {
    /// The kept findings, in the order they fired.
    pub kept: Vec<Event>,
    /// Occurrences per rule, kept or only counted; empty on a clean run.
    pub totals: BTreeMap<&'static str, u64>,
}

/// `Copy` recorder configuration, shared across `World::run` closures so
/// every rank's child recorder uses the same epoch.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Frames are recorded at all (to memory and/or a stream); `buffer`
    /// additionally retains them in memory.
    enabled: bool,
    buffer: bool,
    epoch: Instant,
    max_spans: usize,
}

impl TraceConfig {
    /// Null-sink configuration: counters and phase seconds only.
    pub fn disabled() -> TraceConfig {
        TraceConfig {
            enabled: false,
            buffer: false,
            epoch: Instant::now(),
            max_spans: DEFAULT_SPAN_CAP,
        }
    }

    /// Buffered configuration with the epoch set to now.
    pub fn enabled_now() -> TraceConfig {
        TraceConfig {
            enabled: true,
            buffer: true,
            ..TraceConfig::disabled()
        }
    }

    /// Cap the number of spans retained in memory (drops beyond it are
    /// counted and surface one [`rules::BUFFER_TRUNCATED`] warning).
    pub fn with_span_cap(mut self, cap: usize) -> TraceConfig {
        self.max_spans = cap;
        self
    }

    /// Whether frames are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the epoch (0 when disabled, mirroring
    /// [`Recorder::now`]) — for code that times intervals on behalf of a
    /// recorder it cannot borrow at that moment (e.g. comm links while
    /// the recorder is lent to a callback).
    pub fn now(&self) -> f64 {
        if self.enabled {
            self.epoch.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }
}

/// Per-step cost expectations derived from the static cost model (PR 8),
/// scoped to one rank's share of the problem. When attached to a
/// [`Recorder`], `h2d`/`d2h` transfer spans gain `pred_bytes`, and [`Recorder::step_done`] checks
/// the observed per-step work against the prediction, emitting a
/// [`rules::COST_LIVE_DRIFT`] warning beyond `tolerance`.
#[derive(Debug, Clone, Copy)]
pub struct CostExpectation {
    /// Dof updates per RHS sweep on this rank.
    pub dof_per_sweep: u64,
    /// Interior flux evaluations per sweep on this rank.
    pub flux_per_sweep: u64,
    /// Ghost/boundary evaluations per sweep on this rank.
    pub ghost_per_sweep: u64,
    /// RHS sweeps per time step (1 Euler, 2 RK2).
    pub stages_per_step: u32,
    /// Predicted host→device bytes per step (0 for CPU targets).
    pub step_h2d_bytes: u64,
    /// Predicted device→host bytes per step (0 for CPU targets).
    pub step_d2h_bytes: u64,
    /// Check observed per-step counters against the prediction. Off for
    /// integrators whose per-step work is data-dependent (implicit /
    /// steady), where only span annotation applies.
    pub per_step_check: bool,
    /// Relative drift beyond which [`rules::COST_LIVE_DRIFT`] fires.
    pub tolerance: f64,
}

/// Number of buckets in iteration histograms (callers clamp values to
/// `0..=HIST_BUCKETS-1`; the last bucket is overflow).
pub const HIST_BUCKETS: usize = 32;

/// The telemetry recorder: the one sink every executor and callback
/// writes through.
///
/// `work`, `phases` and the findings are always live (they are the
/// `SolveReport` inputs); frames are built only when a consumer (buffer
/// and/or stream) is live.
#[derive(Debug, Clone)]
pub struct Recorder {
    cfg: TraceConfig,
    rank: u32,
    /// Work counters — the single accounting path for all executors and
    /// callbacks (callbacks write through `StepContext::rec`).
    pub work: WorkCounters,
    /// Per-phase seconds, same semantics as the old standalone timer.
    pub phases: PhaseTimer,
    /// Buffered frames, in emission order.
    frames: Vec<Frame>,
    n_spans: usize,
    n_events: usize,
    dropped_spans: u64,
    dropped_events: u64,
    /// Histograms accumulate here and become frames at [`Self::close_run`].
    hists: BTreeMap<&'static str, [u64; HIST_BUCKETS]>,
    stream: Option<StreamSink>,
    cost: Option<CostExpectation>,
    /// What the run found, kept on every sink.
    findings: Findings,
    last_step_work: WorkCounters,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::null()
    }
}

impl Recorder {
    /// Zero-cost recorder: counters and phases only.
    pub fn null() -> Recorder {
        Recorder::from_config(TraceConfig::disabled(), 0)
    }

    /// Buffered recorder with the epoch set to now, rank 0.
    pub fn buffered() -> Recorder {
        Recorder::from_config(TraceConfig::enabled_now(), 0)
    }

    /// Recorder for `rank` on `cfg`'s epoch (no stream, no cost
    /// expectation — [`Recorder::child`] inherits both).
    pub fn from_config(cfg: TraceConfig, rank: u32) -> Recorder {
        Recorder {
            cfg,
            rank,
            work: WorkCounters::default(),
            phases: PhaseTimer::new(),
            frames: Vec::new(),
            n_spans: 0,
            n_events: 0,
            dropped_spans: 0,
            dropped_events: 0,
            hists: BTreeMap::new(),
            stream: None,
            cost: None,
            findings: Findings::default(),
            last_step_work: WorkCounters::default(),
        }
    }

    /// This recorder's config (epoch, cap, sink mode).
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Child recorder for `rank`: this recorder's config, stream and cost
    /// expectation, empty buffers. Takes `&self`, so `World::run` closures
    /// can build their rank's child from a shared parent.
    pub fn child(&self, rank: u32) -> Recorder {
        let mut r = Recorder::from_config(self.cfg, rank);
        r.stream = self.stream.clone();
        r.cost = self.cost;
        r
    }

    /// Attach a streaming sink: every frame is pushed onto its channel
    /// from now on. Enables recording even if buffering is off.
    pub fn attach_stream(&mut self, sink: StreamSink) {
        self.stream = Some(sink);
        self.cfg.enabled = true;
    }

    /// Set per-step cost expectations (span annotation + live drift
    /// detection).
    pub fn set_cost_expectation(&mut self, cost: CostExpectation) {
        self.cost = Some(cost);
    }

    /// Spans dropped by the in-memory cap (not counting stream drops,
    /// which the [`StreamSink`] tracks itself).
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Events dropped by the in-memory cap.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Whether frames are being recorded (buffered and/or streamed).
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Recording rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Seconds since the trace epoch. Returns 0 when disabled so hot
    /// loops can call it unconditionally.
    pub fn now(&self) -> f64 {
        self.cfg.now()
    }

    /// Hand one frame to every live consumer: moved when one is live,
    /// cloned only when both are. Callers have checked `enabled`, so at
    /// least one is.
    fn emit(&mut self, frame: Frame) {
        match (&self.stream, self.cfg.buffer) {
            (Some(s), true) => {
                s.push(frame.clone());
                self.store(frame);
            }
            (Some(s), false) => s.push(frame),
            (None, _) => self.store(frame),
        }
    }

    /// Retain a frame in memory, applying the span and event caps.
    fn store(&mut self, frame: Frame) {
        match &frame {
            Frame::Span(_) if self.n_spans < self.cfg.max_spans => self.n_spans += 1,
            Frame::Span(_) => {
                self.dropped_spans += 1;
                if !self.findings.totals.contains_key(rules::BUFFER_TRUNCATED) {
                    self.warn(
                        Severity::Warning,
                        rules::BUFFER_TRUNCATED,
                        format!(
                            "in-memory span buffer reached its cap of {}; further spans \
                             are dropped from the buffered sink (streamed frames and \
                             counters are unaffected)",
                            self.cfg.max_spans
                        ),
                    );
                }
                return;
            }
            Frame::Event(_) if self.n_events < DEFAULT_EVENT_CAP => self.n_events += 1,
            Frame::Event(_) => {
                self.dropped_events += 1;
                return;
            }
            _ => {}
        }
        self.frames.push(frame);
    }

    /// Add `seconds` to `phase`. Negative durations (simulated-clock
    /// rounding) saturate to zero and leave a structured
    /// [`rules::NONMONOTONIC_TIMER`] warning rather than aborting.
    pub fn phase(&mut self, phase: &str, seconds: f64) {
        let secs = if seconds < 0.0 {
            self.warn(
                Severity::Warning,
                rules::NONMONOTONIC_TIMER,
                format!("clamped {seconds:.3e}s for phase '{phase}' to zero"),
            );
            0.0
        } else {
            seconds
        };
        self.phases.add(phase, secs);
    }

    /// Open a run: what is about to execute. No-op under the null sink.
    pub fn run_start(
        &mut self,
        label: String,
        tier: &str,
        flux: &str,
        walls: &str,
        plan: &str,
        jvp_plan: Option<&str>,
    ) {
        if !self.cfg.enabled {
            return;
        }
        self.emit(Frame::RunStart {
            time: self.now(),
            label,
            tier: tier.to_string(),
            flux: flux.to_string(),
            walls: walls.to_string(),
            plan: plan.to_string(),
            jvp_plan: jvp_plan.map(str::to_string),
        });
    }

    /// Record a closed span. No-op under the null sink; negative
    /// durations clamp to zero. `h2d`/`d2h` transfer spans are annotated
    /// with the cost model's predicted bytes when a [`CostExpectation`]
    /// is attached.
    pub fn span(
        &mut self,
        kind: SpanKind,
        name: &str,
        t0: f64,
        dur: f64,
        track: Track,
        mut attrs: Vec<(&'static str, String)>,
    ) {
        if !self.cfg.enabled {
            return;
        }
        if let (Some(c), SpanKind::Transfer) = (&self.cost, kind) {
            let pred = match name {
                "h2d" => c.step_h2d_bytes,
                "d2h" => c.step_d2h_bytes,
                _ => 0,
            };
            if pred > 0 {
                attrs.push(("pred_bytes", pred.to_string()));
            }
        }
        self.emit(Frame::Span(Span {
            kind,
            name: name.to_string(),
            t0,
            dur: dur.max(0.0),
            rank: self.rank,
            track,
            attrs,
        }));
    }

    /// Record a finding under `rule`. Every sink keeps it — the first
    /// [`MAX_WARNS_PER_RULE`] per rule and recorder, the rest only
    /// counted — and a kept one becomes an event frame when a consumer is
    /// live.
    pub fn warn(&mut self, severity: Severity, rule: &'static str, message: String) {
        let total = self.findings.totals.entry(rule).or_insert(0);
        *total += 1;
        if *total > MAX_WARNS_PER_RULE {
            return;
        }
        let event = Event {
            severity,
            name: rule,
            message,
            time: self.now(),
            rank: self.rank,
        };
        if self.cfg.enabled {
            self.emit(Frame::Event(event.clone()));
        }
        self.findings.kept.push(event);
    }

    /// What this recorder found, its absorbed children's included.
    pub fn findings(&self) -> &Findings {
        &self.findings
    }

    /// Merge pre-aggregated buckets into the named histogram (callbacks
    /// bucket locally first). It becomes a `histogram` frame when the run
    /// closes.
    pub fn observe_buckets(&mut self, hist: &'static str, buckets: &[u64]) {
        if !self.cfg.enabled {
            return;
        }
        let h = self.hists.entry(hist).or_insert([0; HIST_BUCKETS]);
        for (i, &c) in buckets.iter().take(HIST_BUCKETS).enumerate() {
            h[i] += c;
        }
    }

    /// Bucket counts of a histogram (`None` if never observed).
    pub fn histogram(&self, hist: &str) -> Option<&[u64; HIST_BUCKETS]> {
        self.hists.get(hist)
    }

    /// Record a floating-point sample for a per-step series.
    pub fn sample(&mut self, name: &'static str, step: usize, value: f64) {
        if !self.cfg.enabled {
            return;
        }
        self.emit(Frame::Sample(Sample {
            name,
            step,
            rank: self.rank,
            value,
        }));
    }

    /// Record an end-of-run device summary.
    pub fn device_summary(&mut self, summary: DeviceSummary) {
        if !self.cfg.enabled {
            return;
        }
        self.emit(Frame::Device(summary));
    }

    /// Close a step: emit its [`StepRecord`] (this step's phase seconds
    /// and work delta) and check the cost expectation.
    pub fn step_done(&mut self, step: usize, phases: &[(&str, f64)], comm_bytes: u64) {
        if !self.cfg.enabled {
            return;
        }
        let delta = self.work.since(&self.last_step_work);
        self.last_step_work = self.work;
        self.emit(Frame::Step(StepRecord {
            step,
            rank: self.rank,
            time: self.now(),
            phases: phases.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            work: delta,
            comm_bytes,
        }));
        self.check_step_cost(step, &delta);
    }

    /// Close a run recorded into this recorder: emit one `histogram`
    /// frame per accumulated histogram, then the `total` frame with the
    /// run's phase seconds and work.
    pub fn close_run(&mut self) {
        if !self.cfg.enabled {
            return;
        }
        for (name, buckets) in self.hists.clone() {
            self.emit(Frame::Histogram {
                name,
                buckets: buckets.to_vec(),
            });
        }
        self.emit(Frame::Total {
            phases: self
                .phases
                .phases()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            work: self.work,
        });
    }

    fn check_step_cost(&mut self, step: usize, delta: &WorkCounters) {
        let Some(c) = self.cost else { return };
        if !c.per_step_check {
            return;
        }
        let stages = c.stages_per_step as u64;
        let checks = [
            ("dof_updates", delta.dof_updates, c.dof_per_sweep * stages),
            ("flux_evals", delta.flux_evals, c.flux_per_sweep * stages),
            ("ghost_evals", delta.ghost_evals, c.ghost_per_sweep * stages),
        ];
        for (label, observed, predicted) in checks {
            if predicted == 0 {
                continue;
            }
            let drift = (observed as f64 - predicted as f64).abs() / predicted as f64;
            if drift > c.tolerance {
                self.warn(
                    Severity::Warning,
                    rules::COST_LIVE_DRIFT,
                    format!(
                        "step {step}: observed {observed} {label} vs predicted \
                         {predicted} ({:+.1}% drift, tolerance {:.0}%)",
                        (observed as f64 / predicted as f64 - 1.0) * 100.0,
                        c.tolerance * 100.0
                    ),
                );
            }
        }
    }

    /// Check observed transfer bytes for one step against the cost
    /// model's prediction (`dir` is `"h2d"` or `"d2h"`), emitting
    /// [`rules::COST_LIVE_DRIFT`] beyond tolerance.
    pub fn transfer_drift(&mut self, step: usize, dir: &str, observed_bytes: u64) {
        let Some(c) = self.cost else { return };
        let predicted = match dir {
            "h2d" => c.step_h2d_bytes,
            _ => c.step_d2h_bytes,
        };
        if predicted == 0 {
            return;
        }
        let drift = (observed_bytes as f64 - predicted as f64).abs() / predicted as f64;
        if drift > c.tolerance {
            self.warn(
                Severity::Warning,
                rules::COST_LIVE_DRIFT,
                format!(
                    "step {step}: observed {observed_bytes} {dir} bytes vs predicted \
                     {predicted} ({:+.1}% drift, tolerance {:.0}%)",
                    (observed_bytes as f64 / predicted as f64 - 1.0) * 100.0,
                    c.tolerance * 100.0
                ),
            );
        }
    }

    /// Merge a per-rank child recorder: counters plus every buffer, but
    /// NOT phase seconds — distributed executors take the max over ranks
    /// for phases and must merge those explicitly.
    pub fn absorb_rank(&mut self, child: Recorder) {
        self.work.merge(&child.work);
        self.absorb_buffers(child);
    }

    /// Merge a child recorder completely: counters, phase seconds
    /// (summed) and every buffer. Used by single-rank executors that run
    /// the whole solve in a child.
    pub fn absorb(&mut self, child: Recorder) {
        self.work.merge(&child.work);
        self.phases.merge(&child.phases);
        self.absorb_buffers(child);
    }

    fn absorb_buffers(&mut self, child: Recorder) {
        self.dropped_spans += child.dropped_spans;
        self.dropped_events += child.dropped_events;
        self.findings.kept.extend(child.findings.kept);
        for (rule, n) in child.findings.totals {
            *self.findings.totals.entry(rule).or_insert(0) += n;
        }
        for f in child.frames {
            self.store(f);
        }
        for (name, buckets) in child.hists {
            self.observe_buckets(name, &buckets);
        }
    }

    /// Buffered spans (empty under the null sink).
    pub fn spans(&self) -> Vec<&Span> {
        self.frames
            .iter()
            .filter_map(|f| match f {
                Frame::Span(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// Buffered events (empty under the null sink).
    pub fn events(&self) -> Vec<&Event> {
        self.frames
            .iter()
            .filter_map(|f| match f {
                Frame::Event(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// Buffered per-step records (empty under the null sink).
    pub fn step_records(&self) -> Vec<&StepRecord> {
        self.frames
            .iter()
            .filter_map(|f| match f {
                Frame::Step(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// Buffered samples (empty under the null sink).
    pub fn samples(&self) -> Vec<&Sample> {
        self.frames
            .iter()
            .filter_map(|f| match f {
                Frame::Sample(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// Render the Chrome-trace-event JSON object (Perfetto-loadable):
    /// one process per rank, one thread per track, complete (`"X"`)
    /// events for spans and instant (`"i"`) events for markers.
    /// Timestamps are microseconds as the format requires.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };

        let (spans, events) = (self.spans(), self.events());
        let mut ranks: Vec<u32> = spans.iter().map(|s| s.rank).collect();
        ranks.extend(events.iter().map(|e| e.rank));
        ranks.sort_unstable();
        ranks.dedup();
        let mut tracks: Vec<(u32, Track)> = spans.iter().map(|s| (s.rank, s.track)).collect();
        tracks.sort();
        tracks.dedup();

        for r in &ranks {
            push(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":0,\
                     \"args\":{{\"name\":\"rank {r}\"}}}}"
                ),
                &mut first,
            );
        }
        for (r, t) in &tracks {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":{},\
                     \"args\":{{\"name\":{}}}}}",
                    t.tid(),
                    json_str(&t.label())
                ),
                &mut first,
            );
        }
        for s in spans {
            push(
                format!(
                    "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                    json_str(&s.name),
                    s.kind.category(),
                    json_f64(s.t0 * 1e6),
                    json_f64(s.dur * 1e6),
                    s.rank,
                    s.track.tid(),
                    json_members(&s.attrs, |v| json_str(v)),
                ),
                &mut first,
            );
        }
        // What ran, as a marker at the head of each run (rank 0 opens it).
        for f in &self.frames {
            if let Frame::RunStart { time, .. } = f {
                push(
                    format!(
                        "{{\"name\":\"run_start\",\"cat\":\"run\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\
                         \"tid\":0,\"s\":\"p\",\"args\":{{{}}}}}",
                        json_f64(time * 1e6),
                        f.run_start_attrs()
                    ),
                    &mut first,
                );
            }
        }
        for e in events {
            push(
                format!(
                    "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\
                     \"tid\":0,\"s\":\"p\",\"args\":{{\"severity\":\"{}\",\"message\":{}}}}}",
                    json_str(e.name),
                    json_f64(e.time * 1e6),
                    e.rank,
                    e.severity,
                    json_str(&e.message)
                ),
                &mut first,
            );
        }
        out.push_str("]}");
        out
    }

    /// The `walls` attribute of the most recent buffered `run_start` frame
    /// (`fixed:<n> gather:<n> callback:<n>`), if a run was recorded.
    pub fn walls(&self) -> Option<&str> {
        self.frames.iter().rev().find_map(|f| match f {
            Frame::RunStart { walls, .. } => Some(walls.as_str()),
            _ => None,
        })
    }

    /// Render `summary.jsonl`: the buffered non-span frames, one
    /// [`Frame::to_json`] line each, in emission order — per run a
    /// `run_start` line, the `step` / `sample` / `event` lines as they
    /// happened, the `device` and `histogram` lines, and a closing `total`.
    pub fn summary_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            if !matches!(f, Frame::Span(_)) {
                out.push_str(&f.to_json());
                out.push('\n');
            }
        }
        out
    }
}

/// `"key":value` members of a JSON object, comma-joined.
fn json_members<K: AsRef<str>, V>(items: &[(K, V)], value: impl Fn(&V) -> String) -> String {
    let members: Vec<String> = items
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k.as_ref()), value(v)))
        .collect();
    members.join(",")
}

fn work_json(w: &WorkCounters) -> String {
    format!(
        "{{\"dof_updates\":{},\"flux_evals\":{},\"ghost_evals\":{},\"newton_iters\":{},\
         \"temperature_solves\":{},\"rhs_evals\":{},\"jvp_evals\":{},\"krylov_iters\":{}}}",
        w.dof_updates,
        w.flux_evals,
        w.ghost_evals,
        w.newton_iters,
        w.temperature_solves,
        w.rhs_evals,
        w.jvp_evals,
        w.krylov_iters
    )
}

/// `s` as a quoted, escaped JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_records_counters_but_no_buffers() {
        let mut r = Recorder::null();
        r.work.dof_updates += 7;
        r.phase("solve for intensity", 1.5);
        r.span(SpanKind::Step, "step", 0.0, 1.0, Track::Host, vec![]);
        r.warn(Severity::Warning, "oops", "msg".into());
        r.observe_buckets("newton_iters", &[0, 0, 0, 1]);
        r.sample("energy_residual", 0, 1e-12);
        r.step_done(0, &[("a", 1.0)], 0);
        r.close_run();
        assert_eq!(r.work.dof_updates, 7);
        assert_eq!(r.phases.get("solve for intensity"), 1.5);
        assert!(r.spans().is_empty());
        assert!(r.events().is_empty());
        assert!(r.step_records().is_empty());
        assert!(r.histogram("newton_iters").is_none());
        assert!(r.summary_jsonl().is_empty(), "no frame was built");
        assert_eq!(r.findings().kept.len(), 1, "but the finding was kept");
    }

    #[test]
    fn negative_phase_saturates_and_warns_with_stable_rule() {
        let mut r = Recorder::buffered();
        r.phase("communication", -1e-9);
        assert_eq!(r.phases.get("communication"), 0.0);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].name, rules::NONMONOTONIC_TIMER);
        assert!(matches!(r.events()[0].severity, Severity::Warning));
        // Positive time still accumulates afterwards.
        r.phase("communication", 2.0);
        assert_eq!(r.phases.get("communication"), 2.0);
    }

    #[test]
    fn absorb_rank_merges_work_and_buffers_not_phases() {
        let mut parent = Recorder::buffered();
        let mut child = Recorder::from_config(parent.config(), 3);
        child.work.flux_evals = 11;
        child.phases.add("x", 4.0);
        child.span(SpanKind::Phase, "p", 0.0, 1.0, Track::Host, vec![]);
        child.observe_buckets("h", &[0, 0, 1]);
        parent.absorb_rank(child);
        assert_eq!(parent.work.flux_evals, 11);
        assert_eq!(parent.phases.get("x"), 0.0);
        assert_eq!(parent.spans().len(), 1);
        assert_eq!(parent.spans()[0].rank, 3);
        assert_eq!(parent.histogram("h").unwrap()[2], 1);
    }

    #[test]
    fn absorb_merges_phases_too() {
        let mut parent = Recorder::buffered();
        let mut child = Recorder::from_config(parent.config(), 0);
        child.phases.add("x", 4.0);
        parent.absorb(child);
        assert_eq!(parent.phases.get("x"), 4.0);
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let mut r = Recorder::buffered();
        r.span(
            SpanKind::Kernel,
            "intensity",
            0.5,
            0.25,
            Track::Device(0),
            vec![("tier", "row".into())],
        );
        r.warn(Severity::Warning, "marker", "hello \"world\"".into());
        let json = r.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":500000"));
        assert!(json.contains("\"dur\":250000"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\\\"world\\\""));
    }

    #[test]
    fn summary_jsonl_has_step_and_total_lines() {
        let mut r = Recorder::buffered();
        r.work.dof_updates = 5;
        r.phase("a", 1.0);
        r.span(SpanKind::Step, "step", 0.0, 1.0, Track::Host, vec![]);
        r.step_done(0, &[("a", 1.0)], 128);
        r.sample("energy_residual", 0, 1e-12);
        r.close_run();
        let s = r.summary_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3, "spans are the trace's, not the summary's");
        assert!(lines[0].contains("\"frame\":\"step\",\"step\":0"));
        assert!(lines[0].contains("\"comm_bytes\":128"));
        assert!(lines[1].contains("\"frame\":\"sample\",\"name\":\"energy_residual\""));
        assert!(lines[2].contains("\"frame\":\"total\""));
        assert!(lines[2].contains("\"dof_updates\":5"));
    }

    #[test]
    fn work_counters_since_subtracts() {
        let mut w = WorkCounters {
            flux_evals: 10,
            ..WorkCounters::default()
        };
        let base = w;
        w.flux_evals = 25;
        w.newton_iters = 3;
        let d = w.since(&base);
        assert_eq!(d.flux_evals, 15);
        assert_eq!(d.newton_iters, 3);
    }

    #[test]
    fn span_cap_drops_and_warns_once() {
        let cfg = TraceConfig::enabled_now().with_span_cap(3);
        let mut r = Recorder::from_config(cfg, 0);
        for i in 0..5 {
            r.span(SpanKind::Kernel, "k", i as f64, 1.0, Track::Host, vec![]);
        }
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.dropped_spans(), 2);
        let truncations: Vec<_> = r
            .events()
            .into_iter()
            .filter(|e| e.name == rules::BUFFER_TRUNCATED)
            .collect();
        assert_eq!(truncations.len(), 1, "warned exactly once");
    }

    #[test]
    fn span_cap_applies_across_absorbed_children() {
        let cfg = TraceConfig::enabled_now().with_span_cap(2);
        let mut parent = Recorder::from_config(cfg, 0);
        let mut child = Recorder::from_config(parent.config(), 1);
        for i in 0..4 {
            child.span(SpanKind::Phase, "p", i as f64, 1.0, Track::Host, vec![]);
        }
        // The child already enforced its own cap (2 kept, 2 dropped).
        parent.absorb_rank(child);
        assert_eq!(parent.spans().len(), 2);
        assert_eq!(parent.dropped_spans(), 2);
    }

    #[test]
    fn stream_only_recorder_is_enabled_and_streams_spans() {
        let (sink, _rx) = stream::StreamSink::bounded(16);
        let mut r = Recorder::null();
        assert!(!r.enabled());
        r.attach_stream(sink.clone());
        assert!(r.enabled(), "stream attachment enables recording");
        r.span(SpanKind::Kernel, "k", 0.0, 1.0, Track::Host, vec![]);
        r.step_done(0, &[("a", 1.0)], 7);
        assert!(r.spans().is_empty(), "not buffered");
        assert!(r.step_records().is_empty(), "not buffered");
        assert_eq!(sink.pushed(), 2, "span + step frames streamed");
    }

    #[test]
    fn child_recorder_carries_stream() {
        let (sink, _rx) = stream::StreamSink::bounded(16);
        let mut parent = Recorder::buffered();
        parent.attach_stream(sink.clone());
        let mut child = parent.child(3);
        child.span(
            SpanKind::HaloExchange,
            "halo exchange",
            0.0,
            1.0,
            Track::Host,
            vec![],
        );
        assert_eq!(sink.pushed(), 1);
        assert_eq!(child.spans()[0].rank, 3, "and buffers like its parent");
    }

    #[test]
    fn cost_expectation_annotates_and_detects_drift() {
        let mut r = Recorder::buffered();
        r.set_cost_expectation(CostExpectation {
            dof_per_sweep: 100,
            flux_per_sweep: 300,
            ghost_per_sweep: 0,
            stages_per_step: 1,
            step_h2d_bytes: 1000,
            step_d2h_bytes: 0,
            per_step_check: true,
            tolerance: 0.15,
        });
        r.span(SpanKind::Kernel, "k", 0.0, 1.0, Track::Host, vec![]);
        r.span(SpanKind::Transfer, "h2d", 0.0, 1.0, Track::Host, vec![]);
        let kernel = &r.spans()[0];
        assert!(
            kernel.attrs.is_empty(),
            "a sweep prices itself: the recorder stamps no kernel span"
        );
        let h2d = &r.spans()[1];
        assert!(h2d
            .attrs
            .iter()
            .any(|(k, v)| *k == "pred_bytes" && v == "1000"));

        // A clean step: exactly the predicted work.
        r.work.dof_updates += 100;
        r.work.flux_evals += 300;
        r.step_done(0, &[], 0);
        assert!(
            !r.events().iter().any(|e| e.name == rules::COST_LIVE_DRIFT),
            "no drift on a clean step"
        );

        // A drifted step: half the predicted dof updates.
        r.work.dof_updates += 50;
        r.work.flux_evals += 300;
        r.step_done(1, &[], 0);
        assert!(
            r.events().iter().any(|e| e.name == rules::COST_LIVE_DRIFT),
            "live drift detected"
        );

        // Transfer drift helper: within tolerance stays quiet.
        let before = r.events().len();
        r.transfer_drift(2, "h2d", 1010);
        assert_eq!(r.events().len(), before);
        r.transfer_drift(2, "h2d", 5000);
        assert!(r.events().len() > before);
    }
}
