//! The native kernel tier: AOT compilation of row programs to machine code.
//!
//! This is the paper's endgame made concrete — Finch emits *real* code
//! (CUDA/C) for its targets, and this module does the same for the
//! intensity phase. The per-flat [`RegProgram`]s — the statement lists the
//! row tier interprets; there is no second IR — are grouped by *shape*, the
//! statement list with every constant and load offset masked
//! (`shape_plan`). Each shape is printed once, statement for statement,
//! as a fully-unrolled scalar Rust `let` sequence in one `extern "C"`
//! kernel (see `emit_source` for the loops around it), and the plan is
//! compiled out-of-process by `rustc` into a `cdylib`. An operand all of a
//! shape's flats share stays a literal; any other is lifted into a word of
//! the flat's argument row (`NativeArgs::row`), which the kernel copies
//! into locals at entry. The flat, its αβγ rows and the plan's sizes arrive
//! through `NativeArgs` too, so the source holds nothing per flat and does
//! not grow with the flat or cell count.
//!
//! Three properties keep this sound and cheap:
//!
//! * **Bit identity.** The emitted expressions perform exactly the
//!   per-lane operations of `RegProgram::eval_row` in the same order — a
//!   lifted literal is a load of the same `f64` — and the emitted flux
//!   loops replicate `rows::flux_combine` or `rows::flux_combine_compiled`
//!   face for face. Rust f64 arithmetic is strict IEEE-754 (no fast-math,
//!   no implicit FMA contraction), so the compiled kernel is bitwise-equal
//!   to the interpreted tiers — the differential tests assert this.
//! * **Validation before compilation.** Every bound program the emitter
//!   prints is proven equal to the execution of its compiled statements
//!   under the same fold (`analysis::check_reg`), and every flat's shape
//!   under its row equal to that program bit for bit (`check_rows`), both
//!   under rule `translation/reg-mismatch`, before any source reaches
//!   `rustc`. A corrupted binding or row is rejected, never executed.
//! * **Content-addressed caching.** The source is emitted once and hashed
//!   (FNV-1a 64); the library is stored as `<cache>/<hash>.so`
//!   ([`cache_dir`]), so plans of one physics and mesh class share it
//!   whatever their values, band count or cell count. In process, loaded
//!   kernels — and failures, so a broken toolchain is probed once — live
//!   in a once-per-key cell (`pbte_runtime::once::OnceMap`) by source hash:
//!   `rustc` runs on the key's own cell, never under the map's lock, so two
//!   sources compile side by side. Each `exec::Plan` keeps its `Prepared`
//!   kernels and rows, so a plan is lowered, validated and hashed once per
//!   process.
//!
//! A bound program reads `t` from `Args::time`, so one compiled plan
//! serves every stage. If `rustc` is missing (override with
//! `PBTE_NATIVE_RUSTC`), compilation fails, or the plan calls a function
//! coefficient (a host closure the emitted code cannot call), `prepare`
//! returns `Err` and the caller falls back to the row tier with a
//! structured diagnostic (`native/fallback`) instead of erroring.

use crate::bytecode::{
    Binding, Func, Operand, Program, RegExpr, RegProgram, RegStmt, FACE_NORMAL, FACE_U1, FACE_U2,
};
use crate::exec::walls::GATHER;
use crate::exec::{CompiledProblem, StencilRun, MAX_RUN_FACES, SLOT_NBR, SLOT_ROW};
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The call ABI shared between host and generated code
// ---------------------------------------------------------------------------

/// Argument block passed to a generated kernel. The generated source
/// contains the same `#[repr(C)]` definition (same field order, same
/// target), so both sides agree on layout by construction.
#[repr(C)]
pub(crate) struct NativeArgs {
    /// Per-variable base pointers, indexed by registry variable id.
    pub vars: *const *const f64,
    /// Ghost values at `flat * n_rows + row` (`Walls::at`); null when
    /// boundary faces are skipped.
    pub ghosts: *const f64,
    /// Per boundary slot, what it reads (`Walls::read`): its row of
    /// `ghosts`, or — bit 31 set — its column of `wall_columns`.
    pub wall_read: *const u32,
    /// The plan's gather columns (`Walls::columns`), `column * n_flat +
    /// flat`: the source flat of the unknown read at the owner cell.
    pub wall_columns: *const u32,
    /// CSR row offsets of the face geometry (`n_cells + 1` entries).
    pub offsets: *const u32,
    /// Neighbor cell per face entry; `-(slot+1)` encodes a ghost slot.
    pub nbr: *const i64,
    pub area: *const f64,
    /// Orientation class per face slot (table plans; never read by the
    /// kernels of a compiled-flux plan, whose geometry has none).
    pub class: *const u32,
    pub inv_volume: *const f64,
    /// Output span covering cells `cell0 .. cell0 + len`.
    pub out: *mut f64,
    pub cell0: usize,
    pub len: usize,
    pub fused_dt: f64,
    /// 1 → write the fused update `u + dt·rhs`, 0 → write the RHS.
    pub fused: u8,
    /// The stage time a program reading `t` sees.
    pub time: f64,
    /// Oriented normals of the compiled flux, `dim` per face slot (never
    /// read by the kernels of a table plan).
    pub normals: *const f64,
    /// The plan's stride-1 stencil runs, sorted by first cell, and their
    /// count.
    pub runs: *const StencilRun,
    pub n_runs: usize,
    /// The plan's strided stencil runs, sorted by first cell.
    pub strided: *const StencilRun,
    pub n_strided: usize,
    /// The cells of no run, ascending.
    pub rest: *const u32,
    pub n_rest: usize,
    /// The flat the call evaluates, and its argument row ([`FlatRow`]).
    pub flat: usize,
    pub row: *const u64,
    /// The flat's αβγ rows of the flux table; null on a compiled-flux plan.
    pub alpha: *const f64,
    pub beta: *const f64,
    pub gamma: *const f64,
    pub n_cells: usize,
    /// `Walls::n_rows` and `Walls::n_flat`.
    pub n_rows: usize,
    pub n_flat: usize,
}

/// Signature of every generated per-shape kernel.
pub(crate) type KernelFn = unsafe extern "C" fn(*const NativeArgs);

// ---------------------------------------------------------------------------
// Source emission
// ---------------------------------------------------------------------------

fn rust_method(f: Func) -> &'static str {
    match f {
        Func::Exp => "exp",
        Func::Log => "ln",
        Func::Sin => "sin",
        Func::Cos => "cos",
        Func::Sqrt => "sqrt",
        Func::Abs => "abs",
        Func::Sinh => "sinh",
        Func::Cosh => "cosh",
        Func::Tanh => "tanh",
    }
}

/// Render a constant exactly: the bit pattern round-trips, so bind-time
/// folding survives the text representation unchanged.
fn lit(k: f64) -> String {
    format!("f64::from_bits(0x{:016x}u64)", k.to_bits())
}

/// Render one operand, fully parenthesized. Loads in particular must be
/// wrapped: `*p.add(i).powf(y)` parses as `*(p.add(i).powf(y))`. Loads of
/// the face-input pseudo-variables (ids from `face_base`) name the locals
/// of the emitted per-face loop. A lifted operand reads word `j` of the
/// flat's row through a local: `k{j}`, the `f64` a constant's bits hold, or
/// `o{j}`, a load offset.
fn operand(o: &Operand, face_base: u16, slot: Option<usize>) -> String {
    match (*o, slot) {
        (Operand::K(_), Some(j)) => format!("k{j}"),
        (Operand::Load { var, .. }, Some(j)) => format!("(*p{var}.add(o{j} + cell))"),
        (Operand::Reg(r), _) => format!("r{r}"),
        (Operand::K(k), _) => format!("({})", lit(k)),
        (Operand::Load { var, .. }, _) if var >= face_base => match var - face_base {
            FACE_U1 => "u_here".into(),
            FACE_U2 => "u2".into(),
            axis => format!("n{}", axis - FACE_NORMAL),
        },
        (Operand::Load { var, offset }, _) => format!("(*p{var}.add({offset} + cell))"),
        (Operand::Time, _) => "time".into(),
    }
}

/// One statement as the `let` line the kernel runs, its operands in the
/// statement's order, the `i`-th through `slots[i]`. A function coefficient
/// has no line: [`lower_checked`] refuses its program.
fn stmt_line(s: &RegStmt, face_base: u16, slots: &[Option<usize>]) -> String {
    let o: Vec<String> = (s.expr.operands().iter().enumerate())
        .map(|(i, o)| operand(o, face_base, slots.get(i).copied().flatten()))
        .collect();
    let rhs = match &s.expr {
        RegExpr::Copy(_) => o[0].clone(),
        RegExpr::CoefFn { .. } => unreachable!("lower_checked refuses function coefficients"),
        RegExpr::Add(_) => format!("{} + {}", o[0], o[1]),
        RegExpr::Mul(_) => format!("{} * {}", o[0], o[1]),
        RegExpr::Pow(_) => format!("{}.powf({})", o[0], o[1]),
        RegExpr::Recip(_) => format!("1.0f64 / {}", o[0]),
        RegExpr::Call(f, _) => format!("{}.{}()", o[0], rust_method(*f)),
        RegExpr::Cmp(op, _) => format!(
            "if {} {} {} {{ 1.0f64 }} else {{ 0.0f64 }}",
            o[0],
            op.as_str(),
            o[1]
        ),
        RegExpr::Select(_) => format!("if {} != 0.0f64 {{ {} }} else {{ {} }}", o[0], o[1], o[2]),
    };
    format!("        let r{} = {};", s.dst, rhs)
}

/// A program's statement lines, its operands' slots taken from the front
/// of `lifted` in operand order.
fn program_lines(reg: &RegProgram, face_base: u16, lifted: &mut &[Option<usize>]) -> Vec<String> {
    let line = |s: &RegStmt| {
        let slots = *lifted;
        *lifted = &slots[s.expr.operands().len()..];
        stmt_line(s, face_base, slots)
    };
    reg.stmts().iter().map(line).collect()
}

/// Every operand of a flat's programs, the volume's first.
fn operands(programs: &FlatPrograms) -> impl Iterator<Item = &Operand> {
    let stmts = programs.volume.stmts().iter();
    let stmts = stmts.chain(programs.flux.iter().flat_map(|f| f.stmts()));
    stmts.flat_map(|s| s.expr.operands())
}

/// Codegen options for the emitted plan crate. `codegen-units=1` keeps
/// the whole plan in one LLVM module; `panic=abort` drops unwinding
/// landing pads (the kernels are straight-line code with no panic paths).
/// None of these change FP semantics — no fast-math, no contraction — so
/// bit identity with the row tier is preserved.
const RUSTC_CODEGEN_FLAGS: &[&str] = &[
    "-Copt-level=3",
    "-Ctarget-cpu=native",
    "-Cdebuginfo=0",
    "-Ccodegen-units=1",
    "-Cpanic=abort",
];

/// The lowered programs of one flat: the source term, and the flux when
/// the plan has no αβγ table.
#[derive(Clone)]
pub(crate) struct FlatPrograms {
    pub volume: RegProgram,
    pub flux: Option<RegProgram>,
}

/// Flats whose programs differ only in constants and real load offsets,
/// printed as one kernel: the first flat's programs, in which every
/// operand whose value is not the same, by bits, for all the shape's flats
/// is lifted into a word of the flat's row.
pub(crate) struct Shape {
    programs: FlatPrograms,
    /// Per operand of `programs`, the volume's first, its word if lifted.
    lifted: Vec<Option<usize>>,
}

/// One flat's kernel and argument row: its shape, and a word per column of
/// that shape's lifted operands — a constant's bits (read as `f64`) or a
/// load offset (read as `usize`).
#[derive(Clone, PartialEq)]
pub(crate) struct FlatRow {
    pub shape: usize,
    pub words: Vec<u64>,
}

/// The emitted `Args` fields shared by every plan, in `NativeArgs` order.
const ARGS_FIELDS: &str = "    vars: *const *const f64,\n    ghosts: *const f64,\n    wall_read: *const u32,\n    wall_columns: *const u32,\n    offsets: *const u32,\n    nbr: *const i64,\n    area: *const f64,\n    class: *const u32,\n    inv_volume: *const f64,\n    out: *mut f64,\n    cell0: usize,\n    len: usize,\n    fused_dt: f64,\n    fused: u8,\n    time: f64,\n    normals: *const f64,\n    runs: *const Run,\n    n_runs: usize,\n    strided: *const Run,\n    n_strided: usize,\n    rest: *const u32,\n    n_rest: usize,\n    flat: usize,\n    row: *const u64,\n    alpha: *const f64,\n    beta: *const f64,\n    gamma: *const f64,\n    n_cells: usize,\n    n_rows: usize,\n    n_flat: usize,\n";

/// The gather half of `Walls::ghost_read`, emitted once per plan as
/// `ghost_gather(a, read, flat, cell)` for the CSR walk: the unknown at the
/// owner cell `cell` and the source flat the slot's gather column (`read`
/// without its `GATHER` bit) names for `flat`. Out of line and cold on
/// purpose: in the CSR walk a gathering face is the rare case, while
/// inline its three extra live values (the column table, the unknown's
/// base, the cell count) cost the loop more registers than it has. The row
/// half stays inline ([`ghost_read`]); a stencil run hoists either kind's
/// stream once per segment ([`emit_stream`]).
fn emit_ghost_gather(cp: &CompiledProblem, w: &mut impl Write) -> fmt::Result {
    write!(
        w,
        "#[cold]\n#[inline(never)]\nunsafe fn ghost_gather(a: &Args, read: u32, flat: usize, cell: usize) -> f64 {{\n    let s = *a.wall_columns.add((read ^ {GATHER}) as usize * a.n_flat + flat);\n    *(*a.vars.add({})).add(s as usize * a.n_cells + cell)\n}}\n\n",
        cp.system.unknown,
    )
}

/// The run table's types and the stream rule, emitted once per plan: the
/// `Run` struct (`exec::StencilRun`'s layout); `unit`, whether every slot
/// of a run reads the unknown at its cell's own pace (`StencilRun::unit`);
/// `stream(a, run, s, flat, u_row, c, j)`, where slot `s` reads from the
/// run's `j`-th cell `c` on and the element step to the next cell — the
/// neighbor row, or `Walls::ghost_read`'s ghost row or gather column, as
/// one affine stream (`rows::TableFlux::stream`); and, for a unit run,
/// `unit_offset(a, run, s, flat)`, the same stream as an offset from
/// `u_row` (a gather column's source row lies in the same unknown).
fn emit_stream(cp: &CompiledProblem, w: &mut impl Write) -> fmt::Result {
    write!(
        w,
        "#[repr(C)]\npub struct Run {{\n    first: u32,\n    len: u32,\n    stride: u32,\n    nf: u32,\n    kind: [u32; {MAX_RUN_FACES}],\n    at: [i32; {MAX_RUN_FACES}],\n    step: [i32; {MAX_RUN_FACES}],\n    class: [u32; {MAX_RUN_FACES}],\n}}\n\n"
    )?;
    write!(
        w,
        "#[inline(always)]\nfn unit(run: &Run) -> bool {{\n    run.stride == 1 && run.kind[..run.nf as usize].iter().all(|&k| k != {SLOT_ROW})\n}}\n\n"
    )?;
    write!(
        w,
        r#"#[inline(always)]
unsafe fn stream(a: &Args, run: &Run, s: usize, flat: usize, u_row: *const f64, c: usize, j: usize) -> (*const f64, isize) {{
    let at = run.at[s] as isize;
    match run.kind[s] {{
        {SLOT_NBR} => (u_row.offset(c as isize + at), run.stride as isize),
        {SLOT_ROW} => {{
            let step = run.step[s] as isize;
            (a.ghosts.offset((flat * a.n_rows) as isize + at + j as isize * step), step)
        }}
        _ => {{
            let source = *a.wall_columns.add(at as usize * a.n_flat + flat) as usize;
            ((*a.vars.add({unknown})).add(source * a.n_cells + c), run.stride as isize)
        }}
    }}
}}

#[inline(always)]
unsafe fn unit_offset(a: &Args, run: &Run, s: usize, flat: usize) -> isize {{
    let at = run.at[s] as isize;
    match run.kind[s] {{
        {SLOT_NBR} => at,
        _ => {{
            let source = *a.wall_columns.add(at as usize * a.n_flat + flat) as isize;
            (source - flat as isize) * a.n_cells as isize
        }}
    }}
}}

"#,
        unknown = cp.system.unknown,
    )
}

/// `Walls::ghost_read` as the CSR walk emits it for the boundary slot
/// `-(nb + 1)` of the face owned by `cell`: the slot's row of the flat's
/// column of the ghost values, or [`emit_ghost_gather`]'s call — the same
/// `f64` the interpreted tiers load.
fn ghost_read() -> String {
    let indent = "                ";
    format!(
        "{indent}let read = *wall_read.add((-(nb + 1)) as usize);\n{indent}if read & {GATHER} == 0 {{\n{indent}    *ghosts.add(flat * n_rows + read as usize)\n{indent}}} else {{\n{indent}    ghost_gather(a, read, flat, cell)\n{indent}}}"
    )
}

/// The `Args` locals a kernel hoists before its loops start: the `out`
/// stores go through a raw pointer, so without the copies LLVM must
/// assume they may alias the Args struct itself and reload each field on
/// every iteration.
const HOISTED_ARGS: &str = "    let ghosts = a.ghosts;\n    let n_rows = a.n_rows;\n    let wall_read = a.wall_read;\n    let offsets = a.offsets;\n    let nbr = a.nbr;\n    let area = a.area;\n    let class = a.class;\n    let inv_volume = a.inv_volume;\n    let out = a.out;\n    let cell0 = a.cell0;\n    let len = a.len;\n    let fused_dt = a.fused_dt;\n    let fused = a.fused != 0;\n";

/// Emit the complete source for one compiled plan into `w`: one
/// `pbte_shape_N` kernel per [`Shape`], computing `rows::rhs_span`'s
/// operation sequence over a cell span for the flat `Args::flat` names.
/// Each kernel is one pass per flat row ([`emit_shape_kernel`]): a cell's
/// source statements, its flux and the Euler update in one loop body,
/// `out` written once per cell. Only the face term differs by plan: a
/// **table plan** reads its class's αβγ entries, a **compiled-flux plan**
/// (too many face orientations for a table) runs the flux's own
/// statements. Every kernel walks a span in three loops — the stride-1
/// stencil runs, the strided runs, the cells of no run — and reads a
/// boundary face by the one ghost-read rule, `Walls::ghost_read`.
fn emit_source(cp: &CompiledProblem, shapes: &[Shape], w: &mut impl Write) -> fmt::Result {
    w.write_str("// Generated by pbte-dsl nativegen; do not edit.\n")?;
    // The flag set is part of the emitted header so the content hash (the
    // plan-cache key) changes whenever the codegen options do.
    writeln!(w, "// rustc flags: {}", RUSTC_CODEGEN_FLAGS.join(" "))?;
    w.write_str("#![allow(warnings)]\n#![crate_type = \"cdylib\"]\n\n")?;
    w.write_str("#[repr(C)]\npub struct Args {\n")?;
    w.write_str(ARGS_FIELDS)?;
    w.write_str("}\n\n")?;
    emit_ghost_gather(cp, w)?;
    emit_stream(cp, w)?;
    for (index, shape) in shapes.iter().enumerate() {
        emit_shape_kernel(cp, index, shape, w)?;
    }
    Ok(())
}

/// The straight-line run loops a plan's kernels need, ascending: one per
/// `(face count, StencilRun::unit)` its run tables hold. A `unit` loop
/// reads slot `s` of cell `c` at `u_row[c + d_s]` and steps through the
/// face slots; the other, affine one reads its `i`-th cell's at `q_s +
/// i·dq_s`, with each cell's first face slot read from `offsets`.
fn run_kernels(cp: &CompiledProblem) -> Vec<(u32, bool)> {
    let runs = cp.hot.runs.iter().chain(&cp.hot.strided);
    let mut kernels: Vec<(u32, bool)> = runs.map(|r| (r.nf, r.unit())).collect();
    kernels.sort_unstable();
    kernels.dedup();
    kernels
}

/// The head of a run loop over the cells `j0 .. j1` of `run`, up to its
/// `cell` and that cell's first face slot `k`. A unit loop reads slot `s`
/// at `u_row[cell + d{s}]` ([`emit_stream`]'s `unit_offset`), the form the
/// back end vectorises; an affine one through the stream `(q{s}, dq{s})`
/// (`p{v}` name the variables).
fn run_loop_head(w: &mut (impl Write + ?Sized), nf: u32, unit: bool, indent: &str) -> fmt::Result {
    if unit {
        writeln!(
            w,
            "{indent}let (c0, end) = (run.first as usize + j0, run.first as usize + j1);"
        )?;
        for s in 0..nf {
            writeln!(w, "{indent}let d{s} = unit_offset(a, run, {s}, flat);")?;
        }
        return write!(
            w,
            "{indent}let mut k = *offsets.add(c0) as usize;\n{indent}let mut cell = c0;\n{indent}while cell < end {{\n"
        );
    }
    writeln!(
        w,
        "{indent}let stride = run.stride as usize;\n{indent}let c0 = run.first as usize + j0 * stride;"
    )?;
    for s in 0..nf {
        writeln!(
            w,
            "{indent}let (q{s}, dq{s}) = stream(a, run, {s}, flat, u_row, c0, j0);"
        )?;
    }
    write!(
        w,
        "{indent}let mut i = 0usize;\n{indent}while i < j1 - j0 {{\n{indent}    let cell = c0 + i * stride;\n{indent}    let k = *offsets.add(cell) as usize;\n"
    )
}

/// Slot `s`'s value in a run loop, as [`run_loop_head`] set it up.
fn run_slot(s: u32, unit: bool) -> String {
    match unit {
        true => format!("*u_row.offset(cell as isize + d{s})"),
        false => format!("*q{s}.offset(i as isize * dq{s})"),
    }
}

/// The tail of a run loop: the next cell (and, in a unit loop, its first
/// face slot).
fn run_loop_tail(w: &mut (impl Write + ?Sized), nf: u32, unit: bool, indent: &str) -> fmt::Result {
    match unit {
        true => write!(
            w,
            "{indent}    cell += 1;\n{indent}    k += {nf};\n{indent}}}\n"
        ),
        false => write!(w, "{indent}    i += 1;\n{indent}}}\n"),
    }
}

/// The span walk of every kernel (`rows::flux_combine`'s), three
/// independent loops over what the `segment(run, j0, j1)` and `csr(cell)`
/// closures the caller emitted before it evaluate: the stride-1 runs from
/// the first ending after `cell0` up to the first starting at or past the
/// span's end, each clipped to the span; every strided run, clipped to it;
/// the cells of no run inside it.
const SPAN_WALK: &str = r#"    let end_cell = cell0 + len;
    let (runs, n_runs) = (a.runs, a.n_runs);
    let mut r = 0usize;
    let mut hi = n_runs;
    while r < hi {
        let mid = (r + hi) / 2;
        let run = &*runs.add(mid);
        if run.first as usize + run.len as usize <= cell0 {
            r = mid + 1;
        } else {
            hi = mid;
        }
    }
    while r < n_runs {
        let run = &*runs.add(r);
        let first = run.first as usize;
        if first >= end_cell {
            break;
        }
        let j0 = if cell0 > first { cell0 - first } else { 0 };
        let j1 = if end_cell - first < run.len as usize { end_cell - first } else { run.len as usize };
        segment(run, j0, j1);
        r += 1;
    }
    let mut r = 0usize;
    while r < a.n_strided {
        let run = &*a.strided.add(r);
        let first = run.first as usize;
        if first >= end_cell {
            break;
        }
        let stride = run.stride as usize;
        let j0 = if cell0 > first { (cell0 - first + stride - 1) / stride } else { 0 };
        let j1 = (end_cell - first + stride - 1) / stride;
        let j1 = if j1 < run.len as usize { j1 } else { run.len as usize };
        if j0 < j1 {
            segment(run, j0, j1);
        }
        r += 1;
    }
    let (rest, n_rest) = (a.rest, a.n_rest);
    let mut r = 0usize;
    let mut hi = n_rest;
    while r < hi {
        let mid = (r + hi) / 2;
        if (*rest.add(mid) as usize) < cell0 {
            r = mid + 1;
        } else {
            hi = mid;
        }
    }
    while r < n_rest {
        let cell = *rest.add(r) as usize;
        if cell >= end_cell {
            break;
        }
        csr(cell);
        r += 1;
    }
}

"#;

/// The `segment` closure's dispatch on a run: one arm per run loop
/// `kernels` names, each written by `arm`; a run of any other shape takes
/// `csr` cell by cell, which is correct for every cell. Both closures
/// capture by value (`move`): a closure holding references to the
/// kernel's locals reloads every pointer and bound through them on every
/// iteration, since a store through `out` might alias them, and its loops
/// run at half speed.
fn emit_segment(
    w: &mut impl Write,
    kernels: &[(u32, bool)],
    mut arm: impl FnMut(&mut dyn Write, (u32, bool)) -> fmt::Result,
) -> fmt::Result {
    w.write_str(
        "    let segment = move |run: &Run, j0: usize, j1: usize| match (run.nf, unit(run)) {\n",
    )?;
    for &kernel in kernels {
        writeln!(w, "        ({}, {}) => {{", kernel.0, kernel.1)?;
        arm(w, kernel)?;
        w.write_str("        }\n")?;
    }
    w.write_str(
        "        _ => {\n            let mut j = j0;\n            while j < j1 {\n                csr(run.first as usize + j * run.stride as usize);\n                j += 1;\n            }\n        }\n    };\n",
    )
}

/// One shape's kernel: its argument row copied into locals, then the span
/// walk ([`SPAN_WALK`]) — per [`run_kernels`] entry one straight-line loop
/// with the face term emitted once per slot, and the per-face CSR loop for
/// the cells of no run. Every loop body is the unrolled source expression,
/// the flux sum and the Euler update of one cell, so the walk, which
/// covers each cell of the span once, is the kernel's only write of `out`.
/// The face term is the flux table's `γ + α·u + β·u2` of the face's class
/// (table plan; a run's classes loaded once per run) or the lowered flux
/// statements at the face's normal (compiled flux).
fn emit_shape_kernel(
    cp: &CompiledProblem,
    index: usize,
    shape: &Shape,
    w: &mut impl Write,
) -> fmt::Result {
    let face_base = cp.flux.face_base;
    let dim = cp.hot.dim;
    let programs = &shape.programs;
    let lifted = &mut shape.lifted.as_slice();
    let volume = program_lines(&programs.volume, face_base, lifted);
    write!(
        w,
        "#[no_mangle]\npub unsafe extern \"C\" fn pbte_shape_{index}(ap: *const Args) {{\n    let a = &*ap;\n    let flat = a.flat;\n    let time = a.time;\n"
    )?;
    // The row into typed locals before the `move` closures capture them:
    // read through `a` inside a loop, a word would be reloaded per face.
    let mut locals: Vec<String> = operands(programs)
        .zip(&shape.lifted)
        .filter_map(|(o, j)| match (o, j) {
            (Operand::K(_), Some(j)) => Some(format!("k{j} = f64::from_bits(*a.row.add({j}))")),
            (_, Some(j)) => Some(format!("o{j} = *a.row.add({j}) as usize")),
            _ => None,
        })
        .collect();
    locals.sort_unstable();
    locals.dedup();
    locals
        .iter()
        .try_for_each(|l| writeln!(w, "    let {l};"))?;
    for v in 0..face_base {
        writeln!(w, "    let p{v}: *const f64 = *a.vars.add({v});")?;
    }
    writeln!(
        w,
        "    let u_row: *const f64 = (*a.vars.add({})).add(flat * a.n_cells);",
        cp.system.unknown
    )?;
    let flux = (programs.flux.as_ref()).map(|f| program_lines(f, face_base, lifted));
    // Statement lines `extra` spaces deeper than `stmt_line`'s own eight.
    let write_stmts = |w: &mut dyn Write, lines: &[String], extra: usize| -> fmt::Result {
        lines
            .iter()
            .try_for_each(|l| writeln!(w, "{:extra$}{l}", ""))
    };
    // The oriented normal of face slot `{slot}`: `dim` components of the
    // per-slot column, `0.0` past the mesh dimension.
    let write_normal = |w: &mut dyn Write, slot: &str, indent: usize| -> fmt::Result {
        (0..3).try_for_each(|axis| match axis < dim {
            true => writeln!(
                w,
                "{:indent$}let n{axis} = *normals.add(({slot}) * {dim} + {axis});",
                ""
            ),
            false => writeln!(w, "{:indent$}let n{axis} = 0.0f64;", ""),
        })
    };
    // What face slot `{slot}` adds to the flux sum, its far value in `u2`:
    // the lowered flux statements at the slot's normal, or, on a table
    // plan, `γ + α·u_here + β·u2` with `class` naming the class's `[γ, α,
    // β]`. The face term is the only difference between the two kernels.
    let face = |w: &mut dyn Write, slot: &str, class: [String; 3], indent: usize| {
        let Some(flux) = &flux else {
            let [g, al, be] = class;
            let term = format!("{g} + {al} * u_here + {be} * u2");
            return writeln!(w, "{:indent$}flux += *area.add({slot}) * ({term});", "");
        };
        write_normal(w, slot, indent)?;
        write_stmts(w, flux, indent - 8)?;
        writeln!(w, "{:indent$}flux += *area.add({slot}) * r0;", "")
    };
    let ghost_read = ghost_read();
    w.write_str(HOISTED_ARGS)?;
    w.write_str(match flux {
        Some(_) => "    let normals = a.normals;\n",
        None => "    let (al, be, ga) = (a.alpha, a.beta, a.gamma);\n",
    })?;
    w.write_str("    let csr = &move |cell: usize| {\n")?;
    write_stmts(w, &volume, 0)?;
    write!(
        w,
        r#"        let src = r0;
        let u_here = *u_row.add(cell);
        let mut flux = 0.0f64;
        let mut k = *offsets.add(cell) as usize;
        let end = *offsets.add(cell + 1) as usize;
        while k < end {{
            let nb = *nbr.add(k);
            let u2 = if nb >= 0 {{
                *u_row.add(nb as usize)
            }} else {{
{ghost_read}
            }};
"#
    )?;
    if flux.is_none() {
        w.write_str("            let c = *class.add(k) as usize;\n")?;
    }
    let class = ["ga", "al", "be"].map(|t| format!("*{t}.add(c)"));
    face(w, "k", class, 12)?;
    w.write_str(
        r#"            k += 1;
        }
        let rhs = src - flux * *inv_volume.add(cell);
        *out.add(cell - cell0) = if fused { u_here + fused_dt * rhs } else { rhs };
    };
"#,
    )?;
    // Inside a run: the face term once per face slot, in slot order, `u2`
    // read from the slot's stream (a table plan's class entries loaded
    // once per run) — per dof the operation sequence of the CSR loop, so
    // the same bits.
    emit_segment(w, &run_kernels(cp), |w, (nf, unit)| {
        for s in (0..nf).filter(|_| flux.is_none()) {
            write!(
                w,
                "            let cl{s} = run.class[{s}] as usize;\n            let (g{s}, a{s}, b{s}) = (*ga.add(cl{s}), *al.add(cl{s}), *be.add(cl{s}));\n"
            )?;
        }
        run_loop_head(w, nf, unit, "            ")?;
        write_stmts(w, &volume, 8)?;
        w.write_str(
            "                let src = r0;\n                let u_here = *u_row.add(cell);\n                let mut flux = 0.0f64;\n",
        )?;
        for s in 0..nf {
            writeln!(
                w,
                "                {{\n                    let u2 = {};",
                run_slot(s, unit)
            )?;
            let class = ["g", "a", "b"].map(|t| format!("{t}{s}"));
            face(w, &format!("k + {s}"), class, 20)?;
            w.write_str("                }\n")?;
        }
        w.write_str(
            "                let rhs = src - flux * *inv_volume.add(cell);\n                *out.add(cell - cell0) = if fused { u_here + fused_dt * rhs } else { rhs };\n",
        )?;
        run_loop_tail(w, nf, unit, "            ")
    })?;
    w.write_str(SPAN_WALK)
}

// ---------------------------------------------------------------------------
// Compilation, loading, caching
// ---------------------------------------------------------------------------

/// The kernels of one library, one per shape. The library handle is
/// intentionally leaked (never `dlclose`d) — the pointers may be cached
/// anywhere for the process lifetime.
type Kernels = Arc<[KernelFn]>;

/// A plan's native kernels: its library's kernel per shape, shared with
/// every plan of the same source, and each flat's argument row.
pub(crate) struct NativeLib {
    kernels: Kernels,
    rows: Vec<FlatRow>,
}

impl NativeLib {
    /// One flat's kernel and argument row.
    pub fn kernel(&self, flat: usize) -> (KernelFn, &FlatRow) {
        let row = &self.rows[flat];
        (self.kernels[row.shape], row)
    }
}

/// FNV-1a 64-bit hash of the generated source — the plan cache key.
pub(crate) fn fnv1a(text: &str) -> u64 {
    (text.bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The on-disk plan cache directory: `PBTE_NATIVE_CACHE_DIR` if set, else
/// `target/pbte-native-cache` relative to the working directory.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os("PBTE_NATIVE_CACHE_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from("target").join("pbte-native-cache"),
    }
}

/// The on-disk plan cache size cap in bytes: `PBTE_NATIVE_CACHE_CAP`
/// (bytes) if set and parseable, else 512 MiB. A cap of 0 disables
/// eviction entirely.
pub fn cache_cap_bytes() -> u64 {
    std::env::var("PBTE_NATIVE_CACHE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512 * 1024 * 1024)
}

/// What one [`sweep_cache`] pass did.
#[derive(Debug, Default)]
pub struct CacheSweep {
    /// Cache size before the sweep (all entry files, bytes).
    pub bytes_before: u64,
    /// Cache size after the sweep.
    pub bytes_after: u64,
    /// Hashes of the evicted plans, least recently used first.
    pub evicted: Vec<String>,
    /// Orphaned `*.tmp` files removed (crashed compiles).
    pub stale_tmp: usize,
}

/// Age after which an orphaned `.tmp` compile output is presumed to
/// belong to a dead process and is removed.
const STALE_TMP_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

/// LRU size-cap sweep of the on-disk plan cache.
///
/// Entries are grouped by content hash (`<hash>.so` plus its `<hash>.rs`
/// sidecar); recency is the newest mtime among an entry's files, which
/// `compile_and_load` refreshes on every cache hit. When the cache
/// exceeds `cap_bytes`, least-recently-used entries are deleted until it
/// fits. Orphaned `.tmp` files older than an hour are always removed.
/// A missing cache directory is an empty cache, not an error.
pub fn sweep_cache(dir: &std::path::Path, cap_bytes: u64) -> std::io::Result<CacheSweep> {
    let mut sweep = CacheSweep::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(it) => it,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(sweep),
        Err(e) => return Err(e),
    };
    // hash → (bytes, newest mtime, files)
    let mut plans: HashMap<String, (u64, std::time::SystemTime, Vec<PathBuf>)> = HashMap::new();
    let now = std::time::SystemTime::now();
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
        if name.ends_with(".tmp") {
            if now.duration_since(mtime).unwrap_or_default() > STALE_TMP_AGE
                && std::fs::remove_file(&path).is_ok()
            {
                sweep.stale_tmp += 1;
            }
            continue;
        }
        let Some(stem) = name
            .strip_suffix(".so")
            .or_else(|| name.strip_suffix(".rs"))
        else {
            continue; // not ours; never delete unknown files
        };
        sweep.bytes_before += meta.len();
        let plan = plans
            .entry(stem.to_string())
            .or_insert((0, std::time::UNIX_EPOCH, Vec::new()));
        plan.0 += meta.len();
        plan.1 = plan.1.max(mtime);
        plan.2.push(path);
    }
    sweep.bytes_after = sweep.bytes_before;
    if cap_bytes == 0 || sweep.bytes_before <= cap_bytes {
        return Ok(sweep);
    }
    let mut by_age: Vec<_> = plans.into_iter().collect();
    by_age.sort_by_key(|(_, (_, mtime, _))| *mtime);
    for (hash, (bytes, _, files)) in by_age {
        if sweep.bytes_after <= cap_bytes {
            break;
        }
        for f in files {
            let _ = std::fs::remove_file(f);
        }
        sweep.bytes_after -= bytes;
        sweep.evicted.push(hash);
    }
    Ok(sweep)
}

/// Refresh an entry's LRU clock (best effort; the sweep falls back to the
/// write time when the touch fails, e.g. on a read-only cache).
fn touch(path: &std::path::Path) {
    if let Ok(f) = std::fs::File::options().write(true).open(path) {
        let _ = f.set_modified(std::time::SystemTime::now());
    }
}

/// Sweep the configured cache directory against the configured cap after
/// a load, reporting evictions to stderr once per process as a rendered
/// `native/cache-evict` diagnostic.
fn sweep_after_load() {
    let cap = cache_cap_bytes();
    let dir = cache_dir();
    match sweep_cache(&dir, cap) {
        Ok(sweep) if !sweep.evicted.is_empty() => {
            let diag = crate::analysis::Diagnostic {
                severity: crate::analysis::Severity::Warning,
                rule: crate::analysis::rules::NATIVE_CACHE_EVICT,
                entity: String::new(),
                location: dir.display().to_string(),
                message: format!(
                    "evicted {} cached plan(s) ({} -> {} bytes, cap {} bytes): {}",
                    sweep.evicted.len(),
                    sweep.bytes_before,
                    sweep.bytes_after,
                    cap,
                    sweep.evicted.join(", ")
                ),
            };
            static ONCE: std::sync::Once = std::sync::Once::new();
            ONCE.call_once(|| eprintln!("{}", diag.render()));
        }
        _ => {}
    }
}

#[cfg(all(unix, not(miri)))]
mod dl {
    use std::os::raw::{c_char, c_int, c_void};

    extern "C" {
        fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        fn dlerror() -> *mut c_char;
    }

    const RTLD_NOW: c_int = 2;

    fn last_error() -> String {
        unsafe {
            let e = dlerror();
            if e.is_null() {
                "unknown dlopen error".into()
            } else {
                std::ffi::CStr::from_ptr(e).to_string_lossy().into_owned()
            }
        }
    }

    pub fn open(path: &std::path::Path) -> Result<*mut c_void, String> {
        let c = std::ffi::CString::new(path.to_string_lossy().into_owned())
            .map_err(|e| e.to_string())?;
        let h = unsafe { dlopen(c.as_ptr(), RTLD_NOW) };
        if h.is_null() {
            Err(last_error())
        } else {
            Ok(h)
        }
    }

    pub fn sym(handle: *mut c_void, name: &str) -> Result<*mut c_void, String> {
        let c = std::ffi::CString::new(name).map_err(|e| e.to_string())?;
        let p = unsafe { dlsym(handle, c.as_ptr()) };
        if p.is_null() {
            Err(format!("symbol `{name}` not found: {}", last_error()))
        } else {
            Ok(p)
        }
    }
}

/// The libraries this process has loaded (or failed to: a broken toolchain
/// is probed once per source, not once per plan), by source hash. Two
/// plans of one source share the kernels; two sources compile side by side
/// — the map's lock is never held across `rustc`.
static LOADED: pbte_runtime::OnceMap<u64, Result<Kernels, String>> = pbte_runtime::OnceMap::new();

/// Load the library of `source` (hash `hash`, `n_shapes` kernels) from the
/// cache directory `dir`, compiling it first when it is not there.
#[cfg(all(unix, not(miri)))]
fn compile_and_load(
    dir: &std::path::Path,
    source: &str,
    n_shapes: usize,
    hash: u64,
) -> Result<Kernels, String> {
    use std::process::Command;
    std::fs::create_dir_all(dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
    let so = dir.join(format!("{hash:016x}.so"));
    if so.exists() {
        // Disk hit: refresh the entry's LRU clock so the size-cap sweep
        // prefers plans nobody has loaded recently.
        touch(&so);
        touch(&dir.join(format!("{hash:016x}.rs")));
    } else {
        let src_path = dir.join(format!("{hash:016x}.rs"));
        std::fs::write(&src_path, source)
            .map_err(|e| format!("write {}: {e}", src_path.display()))?;
        // Compile to a process-unique temp name, then rename: concurrent
        // processes racing on the same plan both succeed.
        let tmp = dir.join(format!("{hash:016x}.{}.tmp", std::process::id()));
        let rustc = std::env::var("PBTE_NATIVE_RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let out = Command::new(&rustc)
            .arg("--edition=2021")
            .arg("--crate-type=cdylib")
            .args(RUSTC_CODEGEN_FLAGS)
            // Where the cache lives is no codegen option: the library's
            // bytes do not depend on it.
            .arg(format!("--remap-path-prefix={}=", dir.display()))
            // Dropping the standard library's debug sections, nine tenths
            // of the file, changes no machine code either, so it stays
            // out of the hashed flag header too.
            .arg("-Cstrip=debuginfo")
            .arg("-o")
            .arg(&tmp)
            .arg(&src_path)
            .output()
            .map_err(|e| format!("invoking `{rustc}`: {e}"))?;
        if !out.status.success() {
            let _ = std::fs::remove_file(&tmp);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let first = stderr.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
            return Err(format!("rustc failed ({}): {first}", out.status));
        }
        std::fs::rename(&tmp, &so).map_err(|e| format!("rename {}: {e}", so.display()))?;
    }
    let handle = dl::open(&so)?;
    let kernel = |shape| {
        let p = dl::sym(handle, &format!("pbte_shape_{shape}"))?;
        // SAFETY: the symbol was emitted with exactly this signature.
        Ok(unsafe { std::mem::transmute::<*mut std::os::raw::c_void, KernelFn>(p) })
    };
    (0..n_shapes).map(kernel).collect()
}

#[cfg(not(all(unix, not(miri))))]
fn compile_and_load(
    _dir: &std::path::Path,
    _source: &str,
    _n_shapes: usize,
    _hash: u64,
) -> Result<Kernels, String> {
    Err("native tier requires a unix host (and is disabled under miri)".into())
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Hand `reg` — the binding of `program` under `binding` — to the emitter
/// only once it is proven equal to the execution of `program`'s compiled
/// statements under the same fold (`analysis::check_reg`): the statement
/// list the emitter prints is the program that proof holds, so a
/// corrupted binding is refused before it ever reaches rustc. A function coefficient, which
/// needs a host callback per cell, makes the program ineligible.
fn lower_checked(
    program: &Program,
    binding: &Binding,
    reg: RegProgram,
    what: &str,
) -> Result<RegProgram, String> {
    if reg
        .stmts()
        .iter()
        .any(|s| matches!(s.expr, RegExpr::CoefFn { .. }))
    {
        return Err(format!("{what}: program evaluates a function coefficient"));
    }
    let mut diags = Vec::new();
    crate::analysis::check_reg(program, binding, &reg, what, &mut diags);
    match diags.first() {
        Some(d) => Err(format!(
            "emitted expression failed validation: {}",
            d.render()
        )),
        None => Ok(reg),
    }
}

/// A flat's statement lists with every constant and real load offset
/// zeroed: the volume's, and a compiled flux's.
type Masked = (Vec<RegStmt>, Option<Vec<RegStmt>>);

/// `programs` split into its shape ([`Masked`]) and one word per operand,
/// the volume's first: a constant's bits, a real load's offset, and 0
/// for what the shape itself spells (a register, `t`, a face input).
fn split(programs: &FlatPrograms, face_base: u16) -> (Masked, Vec<u64>) {
    let word = |o: &mut Operand| match o {
        Operand::K(k) => std::mem::replace(k, 0.0).to_bits(),
        Operand::Load { var, offset } if *var < face_base => std::mem::take(offset) as u64,
        _ => 0,
    };
    let mut words = Vec::new();
    let mut mask = |reg: &RegProgram| {
        let mut stmts = reg.stmts().to_vec();
        let operands = stmts.iter_mut().flat_map(|s| s.expr.operands_mut());
        words.extend(operands.map(word));
        stmts
    };
    let volume = mask(&programs.volume);
    ((volume, programs.flux.as_ref().map(mask)), words)
}

/// Group a plan's flats by shape ([`split`]): one [`Shape`] per distinct
/// mask, lifting every operand whose word is not the same for all its
/// flats, and each flat's [`FlatRow`].
fn shape_plan(per_flat: &[FlatPrograms], face_base: u16) -> (Vec<Shape>, Vec<FlatRow>) {
    let (mut masks, mut members, mut words): (Vec<Masked>, Vec<Vec<usize>>, Vec<_>) =
        Default::default();
    let mut shape_of = Vec::with_capacity(per_flat.len());
    for (flat, programs) in per_flat.iter().enumerate() {
        let (masked, flat_words) = split(programs, face_base);
        let shape = match masks.iter().position(|m| *m == masked) {
            Some(shape) => shape,
            None => {
                masks.push(masked);
                members.push(Vec::new());
                masks.len() - 1
            }
        };
        members[shape].push(flat);
        shape_of.push(shape);
        words.push(flat_words);
    }
    // An operand is lifted when its column — its word in each of the
    // shape's flats — is not constant; operands of one column share a word.
    let shape = |flats: &Vec<usize>| {
        let same = |i: usize, k: usize| flats.iter().all(|&f| words[f][i] == words[f][k]);
        let first = &words[flats[0]];
        // Each word's first operand.
        let mut firsts: Vec<usize> = Vec::new();
        let lifted = (0..first.len()).map(|i| {
            if flats.iter().all(|&f| words[f][i] == first[i]) {
                return None;
            }
            if let Some(word) = firsts.iter().position(|&k| same(i, k)) {
                return Some(word);
            }
            firsts.push(i);
            Some(firsts.len() - 1)
        });
        let lifted = lifted.collect();
        Shape {
            programs: per_flat[flats[0]].clone(),
            lifted,
        }
    };
    let shapes: Vec<Shape> = members.iter().map(shape).collect();
    // A word's first operand comes before those of every later word.
    let row = |(flat, &shape): (usize, &usize)| {
        let mut row = Vec::new();
        for (&w, j) in words[flat].iter().zip(&shapes[shape].lifted) {
            if *j == Some(row.len()) {
                row.push(w);
            }
        }
        FlatRow { shape, words: row }
    };
    let rows = shape_of.iter().enumerate().map(row).collect();
    (shapes, rows)
}

/// The translation proof for every flat a library serves: the flat's shape
/// with its row in the lifted words — what its kernel computes — must be
/// the flat's proven programs, bit for bit (rule `translation/reg-mismatch`).
fn check_rows(
    shapes: &[Shape],
    rows: &[FlatRow],
    per_flat: &[FlatPrograms],
    face_base: u16,
) -> Result<(), String> {
    let split_shapes: Vec<_> = shapes
        .iter()
        .map(|s| split(&s.programs, face_base))
        .collect();
    for (flat, (row, proven)) in rows.iter().zip(per_flat).enumerate() {
        let served = split_shapes.get(row.shape).map(|(masked, words)| {
            let lifted = words.iter().zip(&shapes[row.shape].lifted);
            let words = lifted.map(|(&w, j)| match j {
                None => Some(w),
                Some(j) => row.words.get(*j).copied(),
            });
            (masked, words.collect::<Option<Vec<u64>>>())
        });
        let (masked, words) = split(proven, face_base);
        if served != Some((&masked, Some(words))) {
            let message = format!(
                "shape {} under the flat's argument row is not its proven program",
                row.shape
            );
            let location = format!("native kernel (flat {flat})");
            let d = crate::analysis::reg_mismatch(&location, message);
            return Err(format!("argument row failed validation: {}", d.render()));
        }
    }
    Ok(())
}

/// A plan's native source, its shape count and its flats' rows: every
/// flat's programs bound and proven ([`lower_checked`]), grouped into
/// shapes, each flat's row proven ([`check_rows`]) — all before any source
/// exists — and the shapes printed once. `Err` when a program calls a
/// function coefficient or a proof fails.
pub(crate) fn lower_source(cp: &CompiledProblem) -> Result<(String, usize, Vec<FlatRow>), String> {
    let lower = |program: &Program, flat: usize, what: &str| {
        let binding = cp.binding(flat);
        let what = format!("{what} kernel (native, flat {flat})");
        lower_checked(program, &binding, program.bind(&binding), &what)
    };
    let per_flat = (0..cp.n_flat).map(|flat| {
        let volume = lower(&cp.volume, flat, "volume")?;
        let flux = cp.compiled_flux().then(|| lower(&cp.flux, flat, "flux"));
        Ok(FlatPrograms {
            volume,
            flux: flux.transpose()?,
        })
    });
    let per_flat = per_flat.collect::<Result<Vec<_>, String>>()?;
    let face_base = cp.flux.face_base;
    let (shapes, rows) = shape_plan(&per_flat, face_base);
    check_rows(&shapes, &rows, &per_flat, face_base)?;
    let mut source = String::new();
    emit_source(cp, &shapes, &mut source).expect("writing to a String never fails");
    Ok((source, shapes.len(), rows))
}

/// A plan's native kernels as first prepared: the library with its flats'
/// rows (or why there is none), the hash of the source it was loaded from,
/// and the one thing that source bakes which the plan's key does not fix.
#[derive(Clone)]
pub(crate) struct Prepared {
    /// [`run_kernels`] of the instance that prepared the plan. The key
    /// folds every wall's *form*; how many faces of a Gather wall its
    /// `source` closure serves — the rest keep a ghost row, and a stencil
    /// run reads them through rows — is the closure's to say.
    baked: Vec<(u32, bool)>,
    /// `None` when the plan did not lower (no source was emitted). Read by
    /// the debug-build reuse guard only.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    hash: Option<u64>,
    lib: Result<Arc<NativeLib>, String>,
}

/// The native kernels of `cp`'s plan, prepared once per [`Plan`]: every
/// scope of every solve of every instance shares the result (or the
/// failure). `Err` is the structured fallback reason — the caller degrades
/// to the row tier and records a `native/fallback` diagnostic.
///
/// An instance whose run tables need other run loops than the plan's
/// kernels have ([`Prepared::baked`]) prepares its own — found by source
/// hash like any other, shared with nobody through the plan.
pub(crate) fn prepare(cp: &CompiledProblem) -> Result<Arc<NativeLib>, String> {
    let prepared = cp.native.get_or_init(|| prepare_plan(cp));
    match prepared.baked == run_kernels(cp) {
        true => prepared.lib.clone(),
        false => prepare_plan(cp).lib,
    }
}

/// Debug builds hold a reused plan's kernels to this instance: a fresh
/// lowering of `cp` emits the source the plan's library was loaded from
/// and the same rows. (Nothing to compare before the plan is first
/// prepared, or against an instance [`prepare`] would not serve from the
/// plan.)
#[cfg(debug_assertions)]
pub(crate) fn assert_same_source(cp: &CompiledProblem) {
    let Some(prepared) = cp.native.get() else {
        return;
    };
    if prepared.baked != run_kernels(cp) {
        return;
    }
    let fresh = lower_source(cp).ok();
    assert_eq!(
        fresh.as_ref().map(|(source, ..)| fnv1a(source)),
        prepared.hash,
        "a reused plan's native source differs from a fresh lowering of the same key"
    );
    if let (Some((.., rows)), Ok(lib)) = (fresh, &prepared.lib) {
        assert!(rows == lib.rows, "a reused plan's argument rows differ");
    }
}

/// Lower, validate, emit, hash, and load (compiling on a cache miss) the
/// native kernels for a plan.
fn prepare_plan(cp: &CompiledProblem) -> Prepared {
    let lowered = lower_source(cp).map(|(source, n, rows)| (fnv1a(&source), source, n, rows));
    let hash = lowered.as_ref().ok().map(|(hash, ..)| *hash);
    let lib = lowered.and_then(|(hash, source, n_shapes, rows)| {
        let kernels = LOADED.get_or_init(Some(&hash), || {
            let loaded = compile_and_load(&cache_dir(), &source, n_shapes, hash);
            if loaded.is_ok() {
                sweep_after_load();
            }
            loaded
        })?;
        Ok(Arc::new(NativeLib { kernels, rows }))
    });
    Prepared {
        baked: run_kernels(cp),
        hash,
        lib,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sweep_evicts_lru_entries_and_stale_tmps() {
        let dir = std::env::temp_dir().join(format!("pbte-cache-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let now = std::time::SystemTime::now();
        let age = |secs: u64| now - std::time::Duration::from_secs(secs);
        // Three 100-byte plans (`.so` + `.rs` pair each), oldest first,
        // plus an orphaned tmp from a "crashed" compile and a foreign
        // file the sweep must never touch.
        for (i, stamp) in [age(300), age(200), age(100)].iter().enumerate() {
            for ext in ["so", "rs"] {
                let p = dir.join(format!("{i:016x}.{ext}"));
                std::fs::write(&p, [0u8; 50]).unwrap();
                std::fs::File::options()
                    .write(true)
                    .open(&p)
                    .unwrap()
                    .set_modified(*stamp)
                    .unwrap();
            }
        }
        let tmp = dir.join("dead.12345.tmp");
        std::fs::write(&tmp, [0u8; 10]).unwrap();
        std::fs::File::options()
            .write(true)
            .open(&tmp)
            .unwrap()
            .set_modified(age(7200))
            .unwrap();
        std::fs::write(dir.join("README"), b"not a plan").unwrap();

        // Cap at 150 bytes: the two oldest plans must go, the newest stays.
        let sweep = sweep_cache(&dir, 150).unwrap();
        assert_eq!(sweep.bytes_before, 300);
        assert_eq!(sweep.bytes_after, 100);
        assert_eq!(sweep.evicted, vec!["0000000000000000", "0000000000000001"]);
        assert_eq!(sweep.stale_tmp, 1);
        assert!(!dir.join(format!("{:016x}.so", 0)).exists());
        assert!(dir.join(format!("{:016x}.so", 2)).exists());
        assert!(dir.join(format!("{:016x}.rs", 2)).exists());
        assert!(!tmp.exists());
        assert!(
            dir.join("README").exists(),
            "foreign files are never deleted"
        );

        // Under the cap: nothing further happens; cap 0 disables eviction.
        let idle = sweep_cache(&dir, 150).unwrap();
        assert!(idle.evicted.is_empty());
        let disabled = sweep_cache(&dir, 0).unwrap();
        assert!(disabled.evicted.is_empty());
        // A missing directory is an empty cache, not an error.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(sweep_cache(&dir, 1).unwrap().evicted.is_empty());
    }

    #[test]
    fn fnv1a_is_stable() {
        // The FNV-1a offset basis; a change here silently invalidates
        // every on-disk cache entry.
        assert_eq!(fnv1a(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a("a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a("pbte"), fnv1a("ptbe"));
    }

    #[test]
    fn constants_round_trip_exactly() {
        for k in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 4.94e-10] {
            let s = lit(k);
            let bits: u64 = u64::from_str_radix(
                s.trim_start_matches("f64::from_bits(0x")
                    .trim_end_matches("u64)"),
                16,
            )
            .unwrap();
            assert_eq!(bits, k.to_bits());
        }
    }

    #[test]
    fn printed_statements_keep_operand_order() {
        use Operand::{Load, Reg, K};
        let stmt = |expr| RegStmt { dst: 0, expr };
        let line = |expr| stmt_line(&stmt(expr), 2, &[]);
        let (two, three) = (lit(2.0), lit(3.0));
        assert_eq!(
            line(RegExpr::Add([K(2.0), Reg(0)])),
            format!("        let r0 = ({two}) + r0;")
        );
        assert_eq!(
            line(RegExpr::Mul([Reg(0), K(3.0)])),
            format!("        let r0 = r0 * ({three});")
        );
        let load = Load { var: 1, offset: 4 };
        assert_eq!(
            line(RegExpr::Mul([load, Reg(0)])),
            "        let r0 = (*p1.add(4 + cell)) * r0;"
        );
        // Ids from `face_base` name the per-face loop's locals.
        let normal = Load {
            var: 2 + FACE_NORMAL + 1,
            offset: 0,
        };
        assert_eq!(
            line(RegExpr::Mul([Reg(0), normal])),
            "        let r0 = r0 * n1;"
        );
        // A lifted operand reads its word's local, in place.
        assert_eq!(
            stmt_line(&stmt(RegExpr::Mul([load, K(3.0)])), 2, &[Some(0), Some(1)]),
            "        let r0 = (*p1.add(o0 + cell)) * k1;"
        );
    }

    /// The flux and volume programs of a two-direction upwind problem with
    /// decay, and the problem whose coefficients their bindings fold.
    fn upwind_flux() -> (crate::problem::Problem, Program, Program) {
        use crate::bytecode::{Compiler, KernelKind};
        let mut p = crate::problem::Problem::new("flux-gate");
        p.domain(2);
        let d = p.index("d", 2);
        let i_var = p.variable("I", &[d]);
        p.coefficient_array("Sx", &[d], vec![0.6, -0.8]);
        p.coefficient_array("Sy", &[d], vec![0.8, 0.6]);
        p.conservation_form(i_var, "-I[d] + surface(upwind([Sx[d];Sy[d]], I[d]))");
        let sys = p.analyze().unwrap();
        let compile = |kind, expr| Compiler::new(&p.registry, i_var, kind).compile(expr);
        let flux = compile(KernelKind::Flux, &sys.flux_expr).unwrap();
        let volume = compile(KernelKind::Volume, &sys.volume_expr).unwrap();
        (p, flux, volume)
    }

    fn binding(p: &crate::problem::Problem) -> Binding<'_> {
        Binding {
            idx: &[1],
            n_cells: 9,
            dt: 0.1,
            coefficients: &p.registry.coefficients,
        }
    }

    /// `prepare`'s gate: a flux statement list that does not prove equal
    /// to its compiled program, or an argument row that does not make its
    /// shape a flat's proven program, is refused before any source is
    /// emitted.
    #[test]
    fn misfused_flux_lowering_is_refused_before_compilation() {
        let (p, flux, volume) = upwind_flux();
        let binding = binding(&p);
        let reg = flux.bind(&binding);
        let proven = lower_checked(&flux, &binding, reg.clone(), "flux kernel").unwrap();
        // The face inputs render as the locals of the per-face loop.
        let text: Vec<String> = proven
            .stmts()
            .iter()
            .map(|s| stmt_line(s, flux.face_base, &[]))
            .collect();
        assert!(text.iter().any(|l| l.contains("n0")) && text.iter().any(|l| l.contains("u2")));

        let mut stmts = reg.stmts().to_vec();
        let ab = stmts
            .iter_mut()
            .find_map(|s| match &mut s.expr {
                RegExpr::Mul(ab) if ab.iter().any(|o| matches!(o, Operand::K(_))) => Some(ab),
                _ => None,
            })
            .expect("the upwind flux folds a constant multiply");
        ab.swap(0, 1);
        let tampered = RegProgram::from_raw_parts(stmts, reg.n_regs());
        let refusal = lower_checked(&flux, &binding, tampered, "flux kernel").unwrap_err();
        assert!(refusal.contains("translation/reg-mismatch"), "{refusal}");

        // Both directions share one shape: the direction's constants and
        // the row of `I` it loads are lifted into each flat's row.
        let per_flat: Vec<FlatPrograms> = [0usize, 1]
            .iter()
            .map(|d| {
                let binding = Binding {
                    idx: std::slice::from_ref(d),
                    ..binding
                };
                let lower = |program: &Program| {
                    let reg = program.bind(&binding);
                    lower_checked(program, &binding, reg, "kernel").unwrap()
                };
                FlatPrograms {
                    volume: lower(&volume),
                    flux: Some(lower(&flux)),
                }
            })
            .collect();
        let (shapes, rows) = shape_plan(&per_flat, flux.face_base);
        assert_eq!(shapes.len(), 1);
        check_rows(&shapes, &rows, &per_flat, flux.face_base).unwrap();
        // The word of the first lifted constant, or load offset.
        let word = |constant: bool| {
            let mut lifted = operands(&shapes[0].programs).zip(&shapes[0].lifted);
            lifted.find_map(|(o, j)| j.filter(|_| matches!(o, Operand::K(_)) == constant))
        };
        let (constant, offset) = (word(true).unwrap(), word(false).unwrap());
        let (mut flipped, mut shifted) = (rows.clone(), rows);
        flipped[1].words[constant] ^= 1;
        shifted[1].words[offset] += 1;
        for tampered in [flipped, shifted] {
            let refusal = check_rows(&shapes, &tampered, &per_flat, flux.face_base).unwrap_err();
            assert!(refusal.contains("translation/reg-mismatch"), "{refusal}");
        }
    }

    /// Four-direction upwind transport with decay over `bands` band
    /// speeds on an `n × n` grid: a table plan.
    fn band_plan(n: usize, bands: usize) -> crate::exec::CompiledProblem {
        use crate::problem::{BoundaryCondition, Problem};
        let mut p = Problem::new("one-shape");
        p.domain(2);
        p.mesh(pbte_mesh::UniformGrid::new_2d(n, n, 1.0, 1.0).build());
        p.set_steps(1e-3, 1);
        let d = p.index("d", 4);
        let b = p.index("b", bands);
        let i_var = p.variable("I", &[d, b]);
        p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
        p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
        p.coefficient_array("vg", &[b], (1..=bands).map(|k| k as f64).collect());
        p.initial(i_var, |_, _| 1.0);
        for side in ["left", "right", "top", "bottom"] {
            p.boundary(i_var, side, BoundaryCondition::Value(1.0));
        }
        let form = "-vg[b]*I[d,b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))";
        p.conservation_form(i_var, form);
        let (cp, _) = crate::exec::CompiledProblem::compile(p).unwrap();
        assert!(cp.flux_lin.is_some(), "a table plan");
        cp
    }

    /// A table plan's source is its physics and mesh class, not its flat
    /// or cell count: one library serves every band count and grid side.
    #[test]
    fn table_plan_source_is_independent_of_flat_and_cell_counts() {
        let source = |n: usize, bands: usize| {
            let (source, n_shapes, rows) = lower_source(&band_plan(n, bands)).unwrap();
            assert_eq!((n_shapes, rows.len()), (1, 4 * bands));
            source
        };
        let two_bands = source(12, 2);
        assert!(!two_bands.contains("static "), "no per-flat table");
        assert_eq!(source(12, 8), two_bands);
        assert_eq!(source(20, 2), two_bands);
    }

    /// Where the cache lives does not reach the library's bytes: two cache
    /// directories of different path lengths hold libraries of one length,
    /// and neither names its directory.
    #[test]
    #[cfg(all(unix, not(miri)))]
    fn library_bytes_do_not_depend_on_the_cache_path() {
        let (source, n_shapes, _) = lower_source(&band_plan(6, 2)).unwrap();
        let hash = fnv1a(&source);
        let root = std::env::temp_dir().join(format!("pbte-cache-path-{}", std::process::id()));
        let mut lengths = Vec::new();
        for dir in [root.join("a"), root.join("a-longer-cache-directory")] {
            if compile_and_load(&dir, &source, n_shapes, hash).is_err() {
                return; // no rustc here: the native tier falls back
            }
            let so = std::fs::read(dir.join(format!("{hash:016x}.so"))).unwrap();
            let path = dir.to_str().unwrap().as_bytes();
            assert!(!so.windows(path.len()).any(|w| w == path), "{dir:?}");
            lengths.push(so.len());
        }
        assert_eq!(lengths[0], lengths[1]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The section names of an ELF64 little-endian file.
    #[cfg(all(target_os = "linux", not(miri)))]
    fn elf_sections(elf: &[u8]) -> Vec<String> {
        let word =
            |at: usize, n: usize| (0..n).fold(0, |v, i| v | (elf[at + i] as usize) << (8 * i));
        let (table, size, count) = (word(0x28, 8), word(0x3a, 2), word(0x3c, 2));
        let header = |i: usize| table + i * size;
        let names = word(header(word(0x3e, 2)) + 0x18, 8);
        let name = |i: usize| {
            let name = &elf[names + word(header(i), 4)..];
            let end = name.iter().position(|&b| b == 0).unwrap();
            String::from_utf8_lossy(&name[..end]).into_owned()
        };
        (0..count).map(name).collect()
    }

    /// A compiled library carries no debug sections: `-Cdebuginfo=0` alone
    /// still links in the standard library's, ten times the kernels' code.
    #[test]
    #[cfg(all(target_os = "linux", not(miri)))]
    fn library_has_no_debug_sections() {
        let (source, n_shapes, _) = lower_source(&band_plan(6, 2)).unwrap();
        let hash = fnv1a(&source);
        let dir = std::env::temp_dir().join(format!("pbte-cache-strip-{}", std::process::id()));
        if compile_and_load(&dir, &source, n_shapes, hash).is_err() {
            return; // no rustc here: the native tier falls back
        }
        let sections = elf_sections(&std::fs::read(dir.join(format!("{hash:016x}.so"))).unwrap());
        assert!(sections.iter().any(|s| s == ".text"), "{sections:?}");
        assert!(
            !sections.iter().any(|s| s.starts_with(".debug")),
            "{sections:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_r0_less_programs_are_rejected() {
        let (p, flux, _) = upwind_flux();
        let binding = binding(&p);
        let never_r0 = vec![RegStmt {
            dst: 1,
            expr: RegExpr::Copy(Operand::K(1.0)),
        }];
        for (stmts, n_regs) in [(vec![], 0), (never_r0, 2)] {
            let reg = RegProgram::from_raw_parts(stmts, n_regs);
            let refusal = lower_checked(&flux, &binding, reg, "flux kernel").unwrap_err();
            assert!(refusal.contains("never writes r0"), "{refusal}");
        }
    }
}
