//! The native kernel tier: AOT compilation of row programs to machine code.
//!
//! This is the paper's endgame made concrete — Finch emits *real* code
//! (CUDA/C) for its targets, and this module does the same for the
//! intensity phase: every per-flat [`RegProgram`] — the statement list the
//! row tier interprets — is printed statement for statement as a
//! fully-unrolled scalar Rust `let` sequence (each operand in its
//! statement's order, so results stay bit-identical to the row tier),
//! wrapped in a per-flat `extern "C"` kernel, and compiled out-of-process
//! by `rustc` into a `cdylib`. There is no second IR between the two
//! tiers.
//!
//! The emitted plan is organised like the Row tier (`eval_row`, then
//! `flux_combine`). On a **table plan** each per-flat kernel is its source
//! statements written to `out` followed by one call of `flux_span`, the
//! flux loop emitted *once per plan*: it walks the span as stencil-run
//! segments (a straight-line `flux += area·(γ + α·u + β·u_nbr)` per face
//! slot, face count baked, neighbor deltas and classes read from the run
//! table in `NativeArgs::runs`) and CSR remainders, with the αβγ rows of
//! the calling flat passed as pointers, and folds in the fused Euler
//! update. Emitting that loop per flat instead would cost 132 copies on
//! the hot-spot file — 3.7× the cold compile time for no run-time gain.
//! On meshes with too many face orientations for a table (a
//! **compiled-flux plan**) each per-flat kernel fuses the source, the
//! flux's own lowered statements per face and the update, and walks its
//! span the same way: inside a stencil run the flux statements are emitted
//! once per face slot, straight-line (`u2 = u_row[c + delta[s]]`, the
//! oriented normal read from the per-slot column `Args::normals`), and the
//! CSR remainder keeps the per-face loop.
//! Both loops read a boundary face through the one ghost-read rule,
//! `Walls::ghost_read`: the slot's row of the ghost values inline, a gather
//! through its column by the plan's one out-of-line `ghost_gather`. The
//! branch sits in the CSR remainders only — stencil runs are all-interior.
//!
//! Three properties keep this sound and cheap:
//!
//! * **Bit identity.** The emitted expressions perform exactly the
//!   per-lane operations of `RegProgram::eval_row` in exactly the same
//!   order, and the emitted flux loop replicates `rows::flux_combine`
//!   (run segments and CSR remainders alike) or
//!   `rows::flux_combine_compiled` face-for-face (a run segment is the
//!   same faces in the same order, its neighbor found by offset). Rust
//!   f64 arithmetic is strict IEEE-754 (no fast-math, no implicit FMA
//!   contraction), so the compiled kernel is bitwise-equal to the
//!   interpreted tiers — the differential tests assert this.
//! * **Validation before compilation.** Every bound program the emitter
//!   prints — the volume program, and a compiled flux — is abstractly
//!   executed over symbolic values and proven raw-structurally equal to
//!   the execution of its compiled statements under the same fold
//!   (`analysis::check_reg`, rule `translation/reg-mismatch`) *before* any
//!   source reaches `rustc`. A corrupted binding is rejected, never
//!   executed.
//! * **Content-addressed caching.** The full generated source is hashed
//!   (FNV-1a 64) as it is emitted — the text itself is materialised only
//!   when a compile needs it — and the compiled library stored as
//!   `target/pbte-native-cache/<hash>.so` (override with
//!   `PBTE_NATIVE_CACHE_DIR`); recompiles are amortized across runs,
//!   steps, and processes, extending the bind-caching story to machine
//!   code. In process, loaded handles — and failures, so a broken
//!   toolchain is probed once — live in a once-per-key cell
//!   (`pbte_runtime::once::OnceMap`) by source hash: `rustc` runs on the
//!   key's own cell, never under the map's lock, so two plans compile side
//!   by side and a panic in one poisons nothing. Each `exec::Plan` keeps
//!   its `Prepared` kernels, and a plan is the process's per content
//!   key, so a plan is lowered, validated and hashed once per process —
//!   not per scope, per solve, or per build of the same content.
//!
//! A bound program reads `t` from `Args::time`, so one compiled plan
//! serves every stage, and a compiled flux reads a cell variable at the
//! owner cell, as the volume program does. If `rustc` is missing (override
//! with `PBTE_NATIVE_RUSTC`), compilation fails, or the plan calls a
//! function coefficient (a host closure the emitted code cannot call),
//! `prepare` returns `Err` and the caller falls back to the row tier with
//! a structured diagnostic (`native/fallback`) instead of erroring.

use crate::bytecode::{
    Binding, Func, Operand, Program, RegExpr, RegProgram, RegStmt, FACE_NORMAL, FACE_U1, FACE_U2,
};
use crate::exec::walls::GATHER;
use crate::exec::{CompiledProblem, StencilRun, MAX_RUN_FACES};
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
    /// The plan's stencil runs, sorted by first cell, and their count.
    pub runs: *const StencilRun,
    pub n_runs: usize,
}

/// Signature of every generated per-flat kernel.
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
/// of the emitted per-face loop.
fn operand(o: &Operand, face_base: u16) -> String {
    match *o {
        Operand::Reg(r) => format!("r{r}"),
        Operand::K(k) => format!("({})", lit(k)),
        Operand::Load { var, .. } if var >= face_base => match var - face_base {
            FACE_U1 => "u_here".into(),
            FACE_U2 => "u2".into(),
            axis => format!("n{}", axis - FACE_NORMAL),
        },
        Operand::Load { var, offset } => format!("(*p{var}.add({offset} + cell))"),
        Operand::Time => "time".into(),
    }
}

/// One statement as the `let` line the kernel runs, its operands in the
/// statement's order. A function coefficient has no line: [`lower_checked`]
/// refuses its program.
fn stmt_line(s: &RegStmt, face_base: u16) -> String {
    let operand = |o| operand(o, face_base);
    let rhs = match &s.expr {
        RegExpr::Copy(a) => operand(a),
        RegExpr::CoefFn { .. } => unreachable!("lower_checked refuses function coefficients"),
        RegExpr::Add([a, b]) => format!("{} + {}", operand(a), operand(b)),
        RegExpr::Mul([a, b]) => format!("{} * {}", operand(a), operand(b)),
        RegExpr::Pow([a, b]) => format!("{}.powf({})", operand(a), operand(b)),
        RegExpr::Recip(a) => format!("1.0f64 / {}", operand(a)),
        RegExpr::Call(f, a) => format!("{}.{}()", operand(a), rust_method(*f)),
        RegExpr::Cmp(op, [a, b]) => format!(
            "if {} {} {} {{ 1.0f64 }} else {{ 0.0f64 }}",
            operand(a),
            op.as_str(),
            operand(b)
        ),
        RegExpr::Select([t, a, b]) => format!(
            "if {} != 0.0f64 {{ {} }} else {{ {} }}",
            operand(t),
            operand(a),
            operand(b)
        ),
    };
    format!("        let r{} = {};", s.dst, rhs)
}

/// Real variable ids (below `face_base`) the programs load from.
fn vars_used(programs: &FlatPrograms, face_base: u16) -> Vec<u16> {
    let mut vs: Vec<u16> = operands(programs)
        .filter_map(|o| match *o {
            Operand::Load { var, .. } if var < face_base => Some(var),
            _ => None,
        })
        .collect();
    vs.sort_unstable();
    vs.dedup();
    vs
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
pub(crate) struct FlatPrograms {
    pub volume: RegProgram,
    pub flux: Option<RegProgram>,
}

/// The emitted `Args` fields shared by every plan, in `NativeArgs` order.
const ARGS_FIELDS: &str = "    vars: *const *const f64,\n    ghosts: *const f64,\n    wall_read: *const u32,\n    wall_columns: *const u32,\n    offsets: *const u32,\n    nbr: *const i64,\n    area: *const f64,\n    class: *const u32,\n    inv_volume: *const f64,\n    out: *mut f64,\n    cell0: usize,\n    len: usize,\n    fused_dt: f64,\n    fused: u8,\n    time: f64,\n";

/// The gather half of `Walls::ghost_read`, emitted once per plan as
/// `ghost_gather(a, read, flat, cell)`: the unknown at the owner cell
/// `cell` and the source flat the slot's gather column (`read` without its
/// `GATHER` bit) names for `flat`. Out of line and cold on purpose: a
/// gathering face is the rare case and its load usually leaves the cache
/// either way, while inline its three extra live values (the column table,
/// the unknown's base, the cell count) cost the flux loops — the stencil
/// segments included — more registers than they have. The row half stays
/// inline ([`ghost_read`]).
fn emit_ghost_gather(cp: &CompiledProblem, w: &mut impl Write) -> fmt::Result {
    write!(
        w,
        "#[cold]\n#[inline(never)]\nunsafe fn ghost_gather(a: &Args, read: u32, flat: usize, cell: usize) -> f64 {{\n    let s = *a.wall_columns.add((read ^ {GATHER}) as usize * {} + flat);\n    *(*a.vars.add({})).add(s as usize * {} + cell)\n}}\n\n",
        cp.walls.n_flat,
        cp.system.unknown,
        cp.mesh().n_cells()
    )
}

/// `Walls::ghost_read` as both flux loops emit it for the boundary slot
/// `-(nb + 1)` of the face owned by `cell`, with `{column}` the start of
/// the flat's column of the ghost values (`flat · n_rows`): the slot's row
/// of that column, or [`emit_ghost_gather`]'s call — the same `f64` the
/// interpreted tiers load.
fn ghost_read(column: &str, flat: &str, indent: &str) -> String {
    format!(
        "{indent}let read = *wall_read.add((-(nb + 1)) as usize);\n{indent}if read & {GATHER} == 0 {{\n{indent}    *ghosts.add({column} + read as usize)\n{indent}}} else {{\n{indent}    ghost_gather(a, read, {flat}, cell)\n{indent}}}"
    )
}

/// The `Args` locals a flux loop hoists before it starts: the `out`
/// stores go through a raw pointer, so without the copies LLVM must
/// assume they may alias the Args struct itself and reload each field on
/// every iteration.
const HOISTED_ARGS: &str = "    let ghosts = a.ghosts;\n    let wall_read = a.wall_read;\n    let offsets = a.offsets;\n    let nbr = a.nbr;\n    let area = a.area;\n    let class = a.class;\n    let inv_volume = a.inv_volume;\n    let out = a.out;\n    let cell0 = a.cell0;\n    let len = a.len;\n    let fused_dt = a.fused_dt;\n    let fused = a.fused != 0;\n";

/// Emit the complete source for one compiled plan into `w`: one
/// `pbte_flat_N` kernel per flat computing `rows::rhs_span`'s operation
/// sequence over a cell span.
///
/// * A **table plan** is organised like the Row tier: each per-flat
///   kernel is its unrolled source statements written to `out` followed
///   by one call of `flux_span`, the run walk of `rows::flux_combine`
///   emitted *once per plan* (see [`emit_flux_span`]).
/// * A **compiled-flux plan** fuses source, the per-face lowered flux
///   statements of `rows::flux_combine_compiled` and the Euler update in
///   each per-flat kernel, over the same span walk (see
///   [`emit_flat_kernel`]).
///
/// `w` is a `String` when the text is needed (a compile) and a hashing
/// sink when only the cache key is.
pub(crate) fn emit_source(
    cp: &CompiledProblem,
    n_cells: usize,
    per_flat: &[FlatPrograms],
    w: &mut impl Write,
) -> fmt::Result {
    let n_flat = cp.n_flat;
    w.write_str("// Generated by pbte-dsl nativegen; do not edit.\n")?;
    // The flag set is part of the emitted header so the content hash (the
    // plan-cache key) changes whenever the codegen options do.
    writeln!(w, "// rustc flags: {}", RUSTC_CODEGEN_FLAGS.join(" "))?;
    w.write_str("#![allow(warnings)]\n#![crate_type = \"cdylib\"]\n\n")?;
    w.write_str("#[repr(C)]\npub struct Args {\n")?;
    w.write_str(ARGS_FIELDS)?;
    w.write_str("    normals: *const f64,\n    runs: *const Run,\n    n_runs: usize,\n}\n\n")?;
    if let Some(lin) = &cp.flux_lin {
        let nc = lin.n_classes;
        for flat in 0..n_flat {
            let at = flat * nc;
            for (name, table) in [("AL", &lin.alpha), ("BE", &lin.beta), ("GA", &lin.gamma)] {
                write!(w, "static {name}{flat}: [f64; {nc}] = [")?;
                for c in 0..nc {
                    write!(w, "{},", lit(table[at + c]))?;
                }
                w.write_str("];\n")?;
            }
        }
        w.write_str("\n")?;
    }
    emit_ghost_gather(cp, w)?;
    write!(
        w,
        "#[repr(C)]\npub struct Run {{\n    first: u32,\n    len: u32,\n    nf: u32,\n    delta: [i32; {MAX_RUN_FACES}],\n    class: [u32; {MAX_RUN_FACES}],\n}}\n\n"
    )?;
    if cp.flux_lin.is_some() {
        emit_flux_span(cp, w)?;
    }
    for (flat, programs) in per_flat.iter().enumerate() {
        emit_flat_kernel(cp, n_cells, flat, programs, w)?;
    }
    Ok(())
}

/// The face counts the plan's run table holds, ascending: one
/// straight-line loop is emitted per count.
fn run_face_counts(cp: &CompiledProblem) -> Vec<u32> {
    let mut face_counts: Vec<u32> = cp.hot.runs.iter().map(|r| r.nf).collect();
    face_counts.sort_unstable();
    face_counts.dedup();
    face_counts
}

/// The span walk of both flux loops (`rows::flux_combine`'s), up to the
/// dispatch on a run's face count: find the first run ending after `cell0`,
/// then per segment either enter the run at `cell` (the `match` arms the
/// caller emits next evaluate to whether they handled `cell .. seg_end`) or
/// stop the CSR remainder at the next run's first cell.
const SPAN_WALK_HEAD: &str = r#"    let runs = a.runs;
    let n_runs = a.n_runs;
    let end_cell = cell0 + len;
    // The first run ending after `cell0` (runs are sorted and disjoint).
    let mut next = 0usize;
    let mut hi = n_runs;
    while next < hi {
        let mid = (next + hi) / 2;
        let r = &*runs.add(mid);
        if r.first as usize + r.len as usize <= cell0 {
            next = mid + 1;
        } else {
            hi = mid;
        }
    }
    let mut cell = cell0;
    while cell < end_cell {
        let mut seg_end = end_cell;
        if next < n_runs {
            let run = &*runs.add(next);
            let first = run.first as usize;
            if first <= cell {
                next += 1;
                let run_end = first + run.len as usize;
                if run_end < seg_end {
                    seg_end = run_end;
                }
                let stencil = match run.nf {
"#;

/// [`SPAN_WALK_HEAD`]'s continuation after the `match` arms; the caller
/// emits the CSR loop over `cell .. seg_end` and closes the walk next.
const SPAN_WALK_MID: &str = r#"                    _ => false,
                };
                if stencil {
                    cell = seg_end;
                    continue;
                }
            } else if first < seg_end {
                seg_end = first;
            }
        }
"#;

/// The table plan's one flux loop: `flux_span` walks the span as run
/// segments and CSR remainders exactly like `rows::flux_combine`, over
/// the run table passed through `Args::runs`. One straight-line
/// `stencil_N` is emitted per face count the plan's table holds (`N`
/// baked, deltas and classes read from the run); a run of any other count
/// falls to the CSR loop, which is correct for every cell. The αβγ rows
/// of the calling flat arrive as pointers.
fn emit_flux_span(cp: &CompiledProblem, w: &mut impl Write) -> fmt::Result {
    let ghost_read = ghost_read(
        &format!("flat * {}", cp.walls.n_rows),
        "flat",
        "                    ",
    );
    let face_counts = run_face_counts(cp);
    for &nf in &face_counts {
        write!(
            w,
            "#[inline(always)]\nunsafe fn stencil_{nf}(a: &Args, run: &Run, al: *const f64, be: *const f64, ga: *const f64, u_row: *const f64, cell: usize, seg_end: usize) {{\n"
        )?;
        for s in 0..nf {
            write!(
                w,
                "    let c{s} = run.class[{s}] as usize;\n    let (g{s}, a{s}, b{s}) = (*ga.add(c{s}), *al.add(c{s}), *be.add(c{s}));\n    let d{s} = run.delta[{s}] as isize;\n"
            )?;
        }
        w.write_str(
            "    let area = a.area;\n    let inv_volume = a.inv_volume;\n    let out = a.out;\n    let cell0 = a.cell0;\n    let fused_dt = a.fused_dt;\n    let fused = a.fused != 0;\n    let mut k = *a.offsets.add(cell) as usize;\n    let mut c = cell;\n    while c < seg_end {\n        let u_here = *u_row.add(c);\n        let mut flux = 0.0f64;\n",
        )?;
        for s in 0..nf {
            writeln!(
                w,
                "        flux += *area.add(k + {s}) * (g{s} + a{s} * u_here + b{s} * *u_row.offset(c as isize + d{s}));"
            )?;
        }
        write!(
            w,
            "        let o = out.add(c - cell0);\n        let rhs = *o - flux * *inv_volume.add(c);\n        *o = if fused {{ u_here + fused_dt * rhs }} else {{ rhs }};\n        c += 1;\n        k += {nf};\n    }}\n}}\n\n"
        )?;
    }
    w.write_str(
        "#[inline(never)]\nunsafe fn flux_span(a: &Args, al: *const f64, be: *const f64, ga: *const f64, flat: usize, u_row: *const f64) {\n",
    )?;
    w.write_str(HOISTED_ARGS)?;
    w.write_str(SPAN_WALK_HEAD)?;
    for &nf in &face_counts {
        writeln!(
            w,
            "                    {nf} => {{ stencil_{nf}(a, run, al, be, ga, u_row, cell, seg_end); true }}"
        )?;
    }
    w.write_str(SPAN_WALK_MID)?;
    // The class tables are indexed through raw pointers so the three
    // per-face lookups carry no bounds checks (`c` comes from the
    // verified plan geometry, always < n_classes).
    write!(
        w,
        r#"        while cell < seg_end {{
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
                let c = *class.add(k) as usize;
                flux += *area.add(k) * (*ga.add(c) + *al.add(c) * u_here + *be.add(c) * u2);
                k += 1;
            }}
            let o = out.add(cell - cell0);
            let rhs = *o - flux * *inv_volume.add(cell);
            *o = if fused {{ u_here + fused_dt * rhs }} else {{ rhs }};
            cell += 1;
        }}
    }}
}}

"#
    )
}

/// One per-flat kernel: the unrolled source expression per cell, then the
/// flux — a call of the plan's `flux_span` (table plan), or the per-face
/// lowered flux statements and the Euler update fused into the same loop
/// (compiled flux). The compiled kernel walks its span like `flux_span`:
/// per face count of the plan's run table one straight-line loop with the
/// flux statements emitted once per slot, and the per-face CSR loop for
/// boundary, irregular and short-run cells.
fn emit_flat_kernel(
    cp: &CompiledProblem,
    n_cells: usize,
    flat: usize,
    programs: &FlatPrograms,
    w: &mut impl Write,
) -> fmt::Result {
    let unknown = cp.system.unknown;
    let face_base = cp.flux.face_base;
    let dim = cp.hot.dim;
    write!(
        w,
        "#[no_mangle]\npub unsafe extern \"C\" fn pbte_flat_{flat}(ap: *const Args) {{\n    let a = &*ap;\n"
    )?;
    for v in vars_used(programs, face_base) {
        writeln!(w, "    let p{v}: *const f64 = *a.vars.add({v});")?;
    }
    if operands(programs).any(|o| *o == Operand::Time) {
        w.write_str("    let time = a.time;\n")?;
    }
    writeln!(
        w,
        "    let u_row: *const f64 = (*a.vars.add({unknown})).add({});",
        flat * n_cells
    )?;
    let Some(flux) = &programs.flux else {
        w.write_str(
            "    let out = a.out;\n    let cell0 = a.cell0;\n    let len = a.len;\n    let mut i = 0usize;\n    while i < len {\n        let cell = cell0 + i;\n",
        )?;
        for s in programs.volume.stmts() {
            writeln!(w, "{}", stmt_line(s, face_base))?;
        }
        return write!(
            w,
            "        *out.add(i) = r0;\n        i += 1;\n    }}\n    flux_span(a, AL{flat}.as_ptr(), BE{flat}.as_ptr(), GA{flat}.as_ptr(), {flat}, u_row);\n}}\n"
        );
    };
    // Lines of the volume / flux statements, `extra` spaces deeper than
    // `stmt_line`'s own eight.
    let write_stmts = |w: &mut dyn Write, reg: &RegProgram, extra: usize| -> fmt::Result {
        reg.stmts()
            .iter()
            .try_for_each(|s| writeln!(w, "{:extra$}{}", "", stmt_line(s, face_base)))
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
    let ghost_read = ghost_read(
        &(flat * cp.walls.n_rows).to_string(),
        &flat.to_string(),
        "                    ",
    );
    w.write_str(HOISTED_ARGS)?;
    w.write_str("    let normals = a.normals;\n")?;
    w.write_str(SPAN_WALK_HEAD)?;
    // Inside a run: the flux statements once per face slot, in slot order,
    // the neighbor at the run's delta — per dof the operation sequence of
    // the CSR loop below, so the same bits.
    for nf in run_face_counts(cp) {
        writeln!(w, "                    {nf} => {{")?;
        for s in 0..nf {
            writeln!(
                w,
                "                        let d{s} = run.delta[{s}] as isize;"
            )?;
        }
        w.write_str(
            "                        let mut k = *offsets.add(cell) as usize;\n                        let mut cell = cell;\n                        while cell < seg_end {\n",
        )?;
        write_stmts(w, &programs.volume, 20)?;
        w.write_str(
            "                            let src = r0;\n                            let u_here = *u_row.add(cell);\n                            let mut flux = 0.0f64;\n",
        )?;
        for s in 0..nf {
            writeln!(
                w,
                "                            {{\n                                let u2 = *u_row.offset(cell as isize + d{s});"
            )?;
            write_normal(w, &format!("k + {s}"), 32)?;
            write_stmts(w, flux, 24)?;
            writeln!(
                w,
                "                                flux += *area.add(k + {s}) * r0;\n                            }}"
            )?;
        }
        write!(
            w,
            "                            let rhs = src - flux * *inv_volume.add(cell);\n                            *out.add(cell - cell0) = if fused {{ u_here + fused_dt * rhs }} else {{ rhs }};\n                            cell += 1;\n                            k += {nf};\n                        }}\n                        true\n                    }}\n"
        )?;
    }
    w.write_str(SPAN_WALK_MID)?;
    w.write_str("        while cell < seg_end {\n")?;
    write_stmts(w, &programs.volume, 4)?;
    write!(
        w,
        r#"            let src = r0;
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
    write_normal(w, "k", 16)?;
    write_stmts(w, flux, 8)?;
    w.write_str(
        r#"                flux += *area.add(k) * r0;
                k += 1;
            }
            let rhs = src - flux * *inv_volume.add(cell);
            *out.add(cell - cell0) = if fused { u_here + fused_dt * rhs } else { rhs };
            cell += 1;
        }
    }
}
"#,
    )
}

// ---------------------------------------------------------------------------
// Compilation, loading, caching
// ---------------------------------------------------------------------------

/// A loaded native plan: the per-flat kernel pointers. The library handle
/// is intentionally leaked (never `dlclose`d) — function pointers may be
/// cached anywhere for the process lifetime.
pub(crate) struct NativeLib {
    fns: Vec<KernelFn>,
}

// The fn pointers reference immutable machine code in a library that is
// never unloaded.
unsafe impl Send for NativeLib {}
unsafe impl Sync for NativeLib {}

impl NativeLib {
    /// Kernel for one flat index.
    pub fn kernel(&self, flat: usize) -> KernelFn {
        self.fns[flat]
    }
}

/// FNV-1a 64-bit hash of the generated source — the plan cache key —
/// folded over the text as [`emit_source`] streams it, so the warm path
/// never materialises the source.
pub(crate) struct Fnv1a(pub u64);

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
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
/// plans of one source share the handle; two sources compile side by side
/// — the map's lock is never held across `rustc`.
static LOADED: pbte_runtime::OnceMap<u64, Result<Arc<NativeLib>, String>> =
    pbte_runtime::OnceMap::new();

/// Load the plan `hash` from the disk cache, compiling it first — the
/// only case that calls `source` for the text — when it is not there.
#[cfg(all(unix, not(miri)))]
fn compile_and_load(
    source: impl FnOnce() -> String,
    n_flat: usize,
    hash: u64,
) -> Result<Arc<NativeLib>, String> {
    use std::process::Command;
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
    let so = dir.join(format!("{hash:016x}.so"));
    if so.exists() {
        // Disk hit: refresh the entry's LRU clock so the size-cap sweep
        // prefers plans nobody has loaded recently.
        touch(&so);
        touch(&dir.join(format!("{hash:016x}.rs")));
    } else {
        let src_path = dir.join(format!("{hash:016x}.rs"));
        std::fs::write(&src_path, source())
            .map_err(|e| format!("write {}: {e}", src_path.display()))?;
        // Compile to a process-unique temp name, then rename: concurrent
        // processes racing on the same plan both succeed.
        let tmp = dir.join(format!("{hash:016x}.{}.tmp", std::process::id()));
        let rustc = std::env::var("PBTE_NATIVE_RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let out = Command::new(&rustc)
            .arg("--edition=2021")
            .arg("--crate-type=cdylib")
            .args(RUSTC_CODEGEN_FLAGS)
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
    let mut fns = Vec::with_capacity(n_flat);
    for flat in 0..n_flat {
        let p = dl::sym(handle, &format!("pbte_flat_{flat}"))?;
        // SAFETY: the symbol was emitted with exactly this signature.
        fns.push(unsafe { std::mem::transmute::<*mut std::os::raw::c_void, KernelFn>(p) });
    }
    Ok(Arc::new(NativeLib { fns }))
}

#[cfg(not(all(unix, not(miri))))]
fn compile_and_load(
    _source: impl FnOnce() -> String,
    _n_flat: usize,
    _hash: u64,
) -> Result<Arc<NativeLib>, String> {
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

/// The validated register programs of every flat of a plan. `Err` when
/// a program calls a function coefficient or a lowering fails its proof.
pub(crate) fn lower_plan(cp: &CompiledProblem) -> Result<Vec<FlatPrograms>, String> {
    let lower = |program: &Program, flat: usize, what: &str| {
        let binding = cp.binding(flat);
        let reg = program.bind(&binding);
        let what = format!("{what} kernel (native, flat {flat})");
        lower_checked(program, &binding, reg, &what)
    };
    let compiled_flux = cp.compiled_flux();
    (0..cp.n_flat)
        .map(|flat| {
            Ok(FlatPrograms {
                volume: lower(&cp.volume, flat, "volume")?,
                flux: compiled_flux
                    .then(|| lower(&cp.flux, flat, "flux"))
                    .transpose()?,
            })
        })
        .collect()
}

/// The plan cache key: the FNV-1a hash of the source [`emit_source`]
/// would produce, without producing it.
pub(crate) fn source_hash(cp: &CompiledProblem, per_flat: &[FlatPrograms]) -> u64 {
    let mut hash = Fnv1a::new();
    emit_source(cp, cp.mesh().n_cells(), per_flat, &mut hash).expect("hashing never fails");
    hash.0
}

/// A plan's native kernels as first prepared: the library (or why there is
/// none), the hash of the source it was loaded from, and the one number
/// that source bakes which the plan's key does not fix.
#[derive(Clone)]
pub(crate) struct Prepared {
    /// `Walls::n_rows` of the instance that prepared the plan. The key
    /// folds every wall's *form*; how many faces of a Gather wall its
    /// `source` closure serves — the rest keep a ghost row — is the
    /// closure's to say.
    n_rows: usize,
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
/// An instance whose walls lowered to another ghost-row count than the
/// plan's kernels bake prepares its own — found by source hash like any
/// other, shared with nobody through the plan.
pub(crate) fn prepare(cp: &CompiledProblem) -> Result<Arc<NativeLib>, String> {
    let prepared = cp.native.get_or_init(|| prepare_plan(cp));
    match prepared.n_rows == cp.walls.n_rows {
        true => prepared.lib.clone(),
        false => prepare_plan(cp).lib,
    }
}

/// Debug builds hold a reused plan's kernels to this instance: the source
/// a fresh lowering of `cp` would emit hashes to what the plan's library
/// was loaded from. (Nothing to compare before the plan is first prepared,
/// or against an instance [`prepare`] would not serve from the plan.)
#[cfg(debug_assertions)]
pub(crate) fn assert_same_source(cp: &CompiledProblem) {
    let Some(prepared) = cp.native.get() else {
        return;
    };
    if prepared.n_rows != cp.walls.n_rows {
        return;
    }
    let fresh = lower_plan(cp)
        .ok()
        .map(|per_flat| source_hash(cp, &per_flat));
    assert_eq!(
        fresh, prepared.hash,
        "a reused plan's native source differs from a fresh lowering of the same key"
    );
}

/// Lower, validate, hash, and load (compiling on a cache miss) the native
/// kernels for a plan.
fn prepare_plan(cp: &CompiledProblem) -> Prepared {
    let lowered = lower_plan(cp).map(|per_flat| (source_hash(cp, &per_flat), per_flat));
    let hash = lowered.as_ref().ok().map(|(hash, _)| *hash);
    let lib = lowered.and_then(|(hash, per_flat)| {
        LOADED.get_or_init(Some(&hash), || {
            let source = || {
                let mut text = String::new();
                emit_source(cp, cp.mesh().n_cells(), &per_flat, &mut text)
                    .expect("writing to a String never fails");
                text
            };
            let loaded = compile_and_load(source, cp.n_flat, hash);
            if loaded.is_ok() {
                sweep_after_load();
            }
            loaded
        })
    });
    Prepared {
        n_rows: cp.walls.n_rows,
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
        let fnv1a = |text: &str| {
            let mut h = Fnv1a::new();
            h.write_str(text).unwrap();
            h.0
        };
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
        let line = |expr| stmt_line(&stmt(expr), 2);
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
    }

    /// The flux program of a two-direction upwind problem, and the problem
    /// whose coefficients its binding folds.
    fn upwind_flux() -> (crate::problem::Problem, Program) {
        use crate::bytecode::{Compiler, KernelKind};
        let mut p = crate::problem::Problem::new("flux-gate");
        p.domain(2);
        let d = p.index("d", 2);
        let i_var = p.variable("I", &[d]);
        p.coefficient_array("Sx", &[d], vec![0.6, -0.8]);
        p.coefficient_array("Sy", &[d], vec![0.8, 0.6]);
        p.conservation_form(i_var, "surface(upwind([Sx[d];Sy[d]], I[d]))");
        let sys = p.analyze().unwrap();
        let flux = Compiler::new(&p.registry, i_var, KernelKind::Flux)
            .compile(&sys.flux_expr)
            .unwrap();
        (p, flux)
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
    /// to its compiled program is refused before any source is emitted.
    #[test]
    fn misfused_flux_lowering_is_refused_before_compilation() {
        let (p, flux) = upwind_flux();
        let binding = binding(&p);
        let reg = flux.bind(&binding);
        let proven = lower_checked(&flux, &binding, reg.clone(), "flux kernel").unwrap();
        // The face inputs render as the locals of the per-face loop.
        let text: Vec<String> = proven
            .stmts()
            .iter()
            .map(|s| stmt_line(s, flux.face_base))
            .collect();
        assert!(text.iter().any(|l| l.contains("n0")) && text.iter().any(|l| l.contains("u2")));
        let programs = FlatPrograms {
            volume: RegProgram::from_raw_parts(Vec::new(), 0),
            flux: Some(proven),
        };
        assert!(vars_used(&programs, flux.face_base).is_empty());

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
    }

    #[test]
    fn empty_and_r0_less_programs_are_rejected() {
        let (p, flux) = upwind_flux();
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
