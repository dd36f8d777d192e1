//! Compilation of symbolic kernels to register statements, and their one
//! binding per flat index.
//!
//! The Julia Finch emits Julia/CUDA source and lets the host compiler JIT
//! it. Rust has no runtime compiler, so the DSL's executable artifact is a
//! compact statement list specialized per problem: symbol references are
//! resolved at compile time to index patterns (base + Σ index·stride) and
//! the arithmetic tree is flattened into register statements `r[d] = …`,
//! one per tree node in postfix order, the value of a node at depth `d`
//! landing in register `d` (so a statement's operands are fixed registers
//! and no evaluator keeps a stack pointer). The same statements run on
//! every target — sequential, threaded, distributed ranks, and the
//! simulated GPU — which is what makes cross-target bit-identical results
//! testable.
//!
//! There is one statement type, [`RegStmt`], generic over its operand
//! [`Alphabet`]. The compiler emits it over [`Unbound`] operands — a
//! variable or array coefficient by index pattern, a loop index value,
//! `dt`, `t`, a face input — which the `vm` tier evaluates per dof
//! ([`Program::eval`]). [`Program::bind`] resolves them for one flat index
//! ([`Binding`]) into [`Operand`]s — a constant, a load at a fixed row
//! offset, or the stage time, which every evaluator reads when it runs —
//! and folds an adjacent constant or load into the operand that consumes
//! it: the [`RegProgram`] the row tier interprets in batched lanes and the
//! native tier prints as Rust source ([`crate::nativegen`]). A bound
//! program is valid at every stage time, so it is bound once per run. The
//! type keeps an unbound operand out of both.
//! The analyses walk either alphabet operand by operand.
//!
//! Compilation also prices the statements ([`RegExpr::flops`]); the count
//! feeds the GPU roofline model and the cluster performance model.

use crate::analysis::Diagnostic;
use crate::entities::{CoefficientValue, Registry};
use pbte_mesh::Point;
use pbte_symbolic::expr::{CmpOp, Expr, ExprRef};
use std::fmt::Debug;

/// Which kernel an expression compiles into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Evaluated once per (cell, index...) — volume terms.
    Volume,
    /// Evaluated once per (face, index...) — flux integrands. May use
    /// `NORMAL_i` and the `CELL1`/`CELL2` unknown values.
    Flux,
}

/// Elementary functions the kernels support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    Exp,
    Log,
    Sin,
    Cos,
    Sqrt,
    Abs,
    Sinh,
    Cosh,
    Tanh,
}

impl Func {
    /// Apply to a scalar — the single definition every tier (and the
    /// differential tests) evaluates through, so they cannot drift.
    #[inline(always)]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Func::Exp => x.exp(),
            Func::Log => x.ln(),
            Func::Sin => x.sin(),
            Func::Cos => x.cos(),
            Func::Sqrt => x.sqrt(),
            Func::Abs => x.abs(),
            Func::Sinh => x.sinh(),
            Func::Cosh => x.cosh(),
            Func::Tanh => x.tanh(),
        }
    }

    /// The DSL-level call name (inverse of `from_name`), used by the
    /// translation validator to rebuild symbolic `Call` nodes.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Func::Exp => "exp",
            Func::Log => "log",
            Func::Sin => "sin",
            Func::Cos => "cos",
            Func::Sqrt => "sqrt",
            Func::Abs => "abs",
            Func::Sinh => "sinh",
            Func::Cosh => "cosh",
            Func::Tanh => "tanh",
        }
    }

    fn from_name(name: &str) -> Option<Func> {
        Some(match name {
            "exp" => Func::Exp,
            "log" => Func::Log,
            "sin" => Func::Sin,
            "cos" => Func::Cos,
            "sqrt" => Func::Sqrt,
            "abs" => Func::Abs,
            "sinh" => Func::Sinh,
            "cosh" => Func::Cosh,
            "tanh" => Func::Tanh,
            _ => return None,
        })
    }
}

/// Compile-time resolved index pattern: the flattened entity index is
/// `base + Σ idx[slot] * stride` over the loop slot values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pattern {
    pub base: usize,
    pub terms: Vec<(u8, usize)>,
}

impl Pattern {
    /// Resolve the storage flat index for concrete loop-index values.
    #[inline(always)]
    pub fn flat(&self, idx: &[usize]) -> usize {
        let mut f = self.base;
        for &(slot, stride) in &self.terms {
            f += idx[slot as usize] * stride;
        }
        f
    }
}

/// Face inputs of a flux program: [`Unbound::Face`] names them, and
/// [`Program::bind`] presents them as pseudo-variables `face_base +
/// FACE_*` read by the ordinary [`Operand::Load`] at offset 0, so the
/// fold, the row evaluator and the translation validator treat a flux
/// program exactly like a volume program.
pub const FACE_U1: u16 = 0;
/// Unknown across the face (neighbor value or boundary ghost).
pub const FACE_U2: u16 = 1;
/// First component of the oriented normal; axis `a` is `FACE_NORMAL + a`.
pub const FACE_NORMAL: u16 = 2;
/// Number of face inputs.
pub const FACE_INPUTS: usize = 5;

/// Registers of the `vm` tier's fixed register file: the compiler refuses
/// an expression whose evaluation needs more (one register per level of
/// the expression tree).
pub const MAX_REGS: usize = 32;

/// An operand alphabet: what the operands of a [`RegStmt`] can name, and
/// what its function-coefficient evaluations carry.
pub trait Alphabet: Clone + PartialEq + Debug {
    /// What [`RegExpr::CoefFn`] carries besides the coefficient id.
    type Fn: Clone + PartialEq + Debug;

    /// The register this operand reads, if it reads one.
    fn reg(&self) -> Option<u8>;
}

/// An operand of a compiled statement: what binding resolves.
#[derive(Debug, Clone, PartialEq)]
pub enum Unbound {
    /// A register an earlier statement wrote.
    Reg(u8),
    /// A constant (a literal, `pi` or a scalar coefficient).
    K(f64),
    /// A variable's value at the evaluation cell.
    Var {
        var: u16,
        pattern: Pattern,
    },
    /// An array coefficient's value.
    Coef {
        coef: u16,
        pattern: Pattern,
    },
    /// 1-based value of a loop index (DSL semantics).
    Index(u8),
    Dt,
    Time,
    /// A face input of a flux program ([`FACE_U1`], [`FACE_U2`],
    /// [`FACE_NORMAL`] + axis).
    Face(u16),
}

impl Alphabet for Unbound {
    type Fn = ();

    fn reg(&self) -> Option<u8> {
        match *self {
            Unbound::Reg(r) => Some(r),
            _ => None,
        }
    }
}

/// One operand of a bound statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A register an earlier statement wrote.
    Reg(u8),
    /// A bind-time constant (the native tier prints its bit pattern).
    K(f64),
    /// `vars[var][offset + cell]`; the offset folds the flat.
    Load { var: u16, offset: usize },
    /// The stage time `t`, passed to every evaluation.
    Time,
}

impl Alphabet for Operand {
    type Fn = CoefFnPtr;

    fn reg(&self) -> Option<u8> {
        match *self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }
}

/// The right-hand side of a register statement. Operands are in evaluation
/// order: `Add([a, b])` is `a + b`, so the order a folded operand takes in
/// the source expression is the order every reader sees (operand order
/// decides NaN-payload propagation, so the tiers promise bitwise-equal
/// results).
#[derive(Debug, Clone, PartialEq)]
pub enum RegExpr<O: Alphabet = Operand> {
    Copy(O),
    /// `f(position, time)` of function coefficient `coef`.
    CoefFn {
        coef: u16,
        f: O::Fn,
    },
    Add([O; 2]),
    Mul([O; 2]),
    /// `a.powf(b)`
    Pow([O; 2]),
    /// `1 / a`
    Recip(O),
    Call(Func, O),
    /// `a op b ? 1 : 0`
    Cmp(CmpOp, [O; 2]),
    /// `t != 0 ? a : b`
    Select([O; 3]),
}

impl<O: Alphabet> RegExpr<O> {
    /// The operands, in evaluation order.
    pub fn operands(&self) -> &[O] {
        match self {
            RegExpr::CoefFn { .. } => &[],
            RegExpr::Copy(a) | RegExpr::Recip(a) | RegExpr::Call(_, a) => std::slice::from_ref(a),
            RegExpr::Add(ab) | RegExpr::Mul(ab) | RegExpr::Pow(ab) | RegExpr::Cmp(_, ab) => ab,
            RegExpr::Select(tab) => tab,
        }
    }

    /// The operands, mutably (negative tests seed tampered programs
    /// through it).
    pub fn operands_mut(&mut self) -> &mut [O] {
        match self {
            RegExpr::CoefFn { .. } => &mut [],
            RegExpr::Copy(a) | RegExpr::Recip(a) | RegExpr::Call(_, a) => std::slice::from_mut(a),
            RegExpr::Add(ab) | RegExpr::Mul(ab) | RegExpr::Pow(ab) | RegExpr::Cmp(_, ab) => ab,
            RegExpr::Select(tab) => tab,
        }
    }

    /// Static flop price of one evaluation: arithmetic, comparison and
    /// select 1, a reciprocal 4, a power 15, an elementary function 20, a
    /// function coefficient (arbitrary host code) a nominal 20, a copy 0.
    /// The one count: a program's price is the sum over its statements,
    /// and binding only drops copies, so both alphabets price alike.
    pub fn flops(&self) -> usize {
        match self {
            RegExpr::Copy(_) => 0,
            RegExpr::Add(_) | RegExpr::Mul(_) | RegExpr::Cmp(..) | RegExpr::Select(_) => 1,
            RegExpr::Recip(_) => 4,
            RegExpr::Pow(_) => 15,
            RegExpr::Call(..) | RegExpr::CoefFn { .. } => 20,
        }
    }

    /// The statement's value, its operands valued by `operand` and a
    /// function coefficient by `coef_fn` — the scalar semantics every tier
    /// reproduces bit for bit.
    #[inline(always)]
    pub fn eval(&self, operand: impl Fn(&O) -> f64, coef_fn: impl Fn(u16, &O::Fn) -> f64) -> f64 {
        match self {
            RegExpr::Copy(a) => operand(a),
            RegExpr::CoefFn { coef, f } => coef_fn(*coef, f),
            RegExpr::Add([a, b]) => operand(a) + operand(b),
            RegExpr::Mul([a, b]) => operand(a) * operand(b),
            RegExpr::Pow([a, b]) => operand(a).powf(operand(b)),
            RegExpr::Recip(a) => 1.0 / operand(a),
            RegExpr::Call(f, a) => f.apply(operand(a)),
            RegExpr::Cmp(op, [a, b]) => {
                if op.apply(operand(a), operand(b)) {
                    1.0
                } else {
                    0.0
                }
            }
            RegExpr::Select([t, a, b]) => {
                if operand(t) != 0.0 {
                    operand(a)
                } else {
                    operand(b)
                }
            }
        }
    }

    /// The same statement over another alphabet: every operand through
    /// `operand`, a function coefficient's payload through `coef_fn`.
    fn map<P: Alphabet>(
        &self,
        operand: impl Fn(&O) -> P,
        coef_fn: impl Fn(u16) -> P::Fn,
    ) -> RegExpr<P> {
        let pair = |[a, b]: &[O; 2]| [operand(a), operand(b)];
        match self {
            RegExpr::Copy(a) => RegExpr::Copy(operand(a)),
            RegExpr::CoefFn { coef, .. } => RegExpr::CoefFn {
                coef: *coef,
                f: coef_fn(*coef),
            },
            RegExpr::Add(ab) => RegExpr::Add(pair(ab)),
            RegExpr::Mul(ab) => RegExpr::Mul(pair(ab)),
            RegExpr::Pow(ab) => RegExpr::Pow(pair(ab)),
            RegExpr::Recip(a) => RegExpr::Recip(operand(a)),
            RegExpr::Call(f, a) => RegExpr::Call(*f, operand(a)),
            RegExpr::Cmp(op, ab) => RegExpr::Cmp(*op, pair(ab)),
            RegExpr::Select([t, a, b]) => RegExpr::Select([operand(t), operand(a), operand(b)]),
        }
    }
}

/// One register statement: `r[dst] = expr`.
///
/// In a tree flattened to postfix order the depth of every node is
/// statically known, so the value of a node at depth *i* lives in
/// register *i*: operands and destinations are fixed indices and no
/// evaluator keeps a dynamic stack pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct RegStmt<O: Alphabet = Operand> {
    pub dst: u8,
    pub expr: RegExpr<O>,
}

/// A compiled kernel expression: its statements over unbound operands.
#[derive(Debug, Clone)]
pub struct Program {
    pub stmts: Vec<RegStmt<Unbound>>,
    /// Pseudo-variable id of the first face input: the registry's variable
    /// count, so face inputs never collide with a real variable id.
    pub face_base: u16,
}

/// Everything the `vm` tier needs for one evaluation.
///
/// Variable storage is passed as raw per-variable slices (index-major, see
/// [`Fields`](crate::entities::Fields)) so the same programs evaluate
/// against host fields *and*
/// simulated device buffers.
pub struct VmCtx<'a> {
    /// One slice per variable id, each of length `flat_len * n_cells`.
    pub vars: &'a [&'a [f64]],
    /// Cells per variable slice.
    pub n_cells: usize,
    pub coefficients: &'a [crate::entities::Coefficient],
    /// 0-based loop index values, one per slot.
    pub idx: &'a [usize],
    /// Owner cell.
    pub cell: usize,
    /// Unknown at owner / across the face (flux kernels only).
    pub u1: f64,
    pub u2: f64,
    /// Face normal (flux kernels only).
    pub normal: [f64; 3],
    /// Evaluation position (cell centroid / face centroid) for
    /// function-valued coefficients.
    pub position: Point,
    pub dt: f64,
    pub time: f64,
}

impl VmCtx<'_> {
    /// The value of operand `o` for this dof, registers from `regs`.
    #[inline(always)]
    fn value(&self, o: &Unbound, regs: &[f64; MAX_REGS]) -> f64 {
        match o {
            Unbound::Reg(r) => regs[*r as usize],
            Unbound::K(k) => *k,
            Unbound::Var { var, pattern } => {
                self.vars[*var as usize][pattern.flat(self.idx) * self.n_cells + self.cell]
            }
            Unbound::Coef { coef, pattern } => {
                coefficient_at(&self.coefficients[*coef as usize], pattern, self.idx)
            }
            Unbound::Index(slot) => (self.idx[*slot as usize] + 1) as f64,
            Unbound::Dt => self.dt,
            Unbound::Time => self.time,
            Unbound::Face(FACE_U1) => self.u1,
            Unbound::Face(FACE_U2) => self.u2,
            Unbound::Face(input) => self.normal[(input - FACE_NORMAL) as usize],
        }
    }
}

/// The value of a scalar or array coefficient at a pattern.
#[inline(always)]
pub(crate) fn coefficient_at(
    c: &crate::entities::Coefficient,
    pattern: &Pattern,
    idx: &[usize],
) -> f64 {
    match &c.value {
        CoefficientValue::Scalar(v) => *v,
        CoefficientValue::Array(a) => a[pattern.flat(idx)],
        CoefficientValue::Function(_) => {
            unreachable!("function coefficients compile to RegExpr::CoefFn")
        }
    }
}

impl Program {
    /// Evaluate for one dof against a context — the `vm` tier: the
    /// statements run in order over a fixed file of [`MAX_REGS`]
    /// registers, each operand resolved from `ctx` the way binding would
    /// resolve it.
    pub fn eval(&self, ctx: &VmCtx) -> f64 {
        let mut regs = [0.0f64; MAX_REGS];
        let coef_fn = |coef: u16, _: &()| match &ctx.coefficients[coef as usize].value {
            CoefficientValue::Function(f) => f(ctx.position, ctx.time),
            _ => unreachable!("RegExpr::CoefFn on a non-function coefficient"),
        };
        for s in &self.stmts {
            let value = s.expr.eval(|o| ctx.value(o, &regs), coef_fn);
            regs[s.dst as usize] = value;
        }
        regs[0]
    }

    /// Static flop count of one evaluation ([`RegExpr::flops`]).
    pub fn flops(&self) -> usize {
        self.stmts.iter().map(|s| s.expr.flops()).sum()
    }

    /// True when the program reads `t` (a function coefficient, which
    /// receives the time as an argument, does not count). Such a flux has
    /// no αβγ table: its coefficients would change with every stage.
    pub fn references_time(&self) -> bool {
        let mut operands = self.stmts.iter().flat_map(|s| s.expr.operands());
        operands.any(|o| matches!(o, Unbound::Time))
    }
}

/// What binding folds into a program for one flat-index value: the loop
/// index values, the cell count (a variable row of flat `f` starts at
/// offset `f · n_cells`), `dt` and the coefficient values. The stage time
/// is not among them: a bound program reads it when it runs.
/// The translation validator executes the compiled statements under the
/// same values (`analysis::check_reg`), so both sides of that proof read
/// one description of the fold.
#[derive(Clone, Copy)]
pub struct Binding<'a> {
    pub idx: &'a [usize],
    pub n_cells: usize,
    pub dt: f64,
    pub coefficients: &'a [crate::entities::Coefficient],
}

/// A function-coefficient pointer resolved at binding time (hoisted out
/// of the per-evaluation `CoefficientValue::Function` match).
#[derive(Clone)]
pub struct CoefFnPtr(pub(crate) std::sync::Arc<dyn Fn(Point, f64) -> f64 + Send + Sync>);

impl std::fmt::Debug for CoefFnPtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoefFnPtr(..)")
    }
}

impl PartialEq for CoefFnPtr {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Lane width of the batched row evaluator: statements loop over up to
/// this many cells at a time, so the per-statement dispatch cost is
/// amortized and the inner loops are straight-line code over contiguous
/// slices LLVM can auto-vectorize.
pub const ROW_CHUNK: usize = 64;

/// A program bound for one flat ([`Program::bind`]): the statement list
/// the row tier interprets in batched lanes and the native tier prints as
/// Rust source — one form for both.
#[derive(Debug, Clone)]
pub struct RegProgram {
    stmts: Vec<RegStmt>,
    n_regs: usize,
}

/// Fold the adjacent `Copy` producer `last` into the operand of `stmt` that
/// reads it. Adjacency plus the postfix register discipline guarantee the
/// producer's value is consumed exactly there and dead afterwards. The
/// policy — the pairs the BTE kernels emit:
///
/// | producer | consumer | the consumer's other operand |
/// |----------|----------|------------------------------|
/// | constant or `t` | `Add`, `Mul` | a register or a load |
/// | load     | `Mul`    | a register |
///
/// A fold never reorders or combines floating-point operations (no FMA
/// contraction) and the folded operand keeps its position, so results stay
/// bit-identical to the `vm` tier.
fn fold(last: &RegStmt, stmt: &mut RegStmt) -> bool {
    let RegExpr::Copy(value) = last.expr else {
        return false;
    };
    let is_mul = matches!(stmt.expr, RegExpr::Mul(_));
    let (RegExpr::Add(ab) | RegExpr::Mul(ab)) = &mut stmt.expr else {
        return false;
    };
    let Some(i) = ab.iter().position(|&o| o == Operand::Reg(last.dst)) else {
        return false;
    };
    let folds = match (value, ab[1 - i]) {
        (Operand::K(_) | Operand::Time, Operand::Reg(_) | Operand::Load { .. }) => true,
        (Operand::Load { .. }, Operand::Reg(_)) => is_mul,
        _ => false,
    };
    if folds {
        ab[i] = value;
    }
    folds
}

impl Program {
    /// Bind to one flat-index value, in one pass. Patterns resolve to
    /// storage offsets; array coefficients, index values and `dt` fold to
    /// constants; `t` stays an operand; the face inputs
    /// (`CELL1`/`CELL2`/`NORMAL_i`) load the face-input pseudo-variables
    /// (see [`FACE_U1`]). This is the loop-invariant hoisting the generated CPU code performs: the inner
    /// cell loop touches only loads at `offset + cell` and arithmetic.
    /// Registers stay where the compiler put them, and each statement
    /// takes in the constant or load written just before it where the
    /// fold policy allows (see `fold`).
    pub fn bind(&self, b: &Binding) -> RegProgram {
        let operand = |o: &Unbound| match o {
            Unbound::Reg(r) => Operand::Reg(*r),
            Unbound::K(k) => Operand::K(*k),
            Unbound::Var { var, pattern } => Operand::Load {
                var: *var,
                offset: pattern.flat(b.idx) * b.n_cells,
            },
            Unbound::Coef { coef, pattern } => Operand::K(coefficient_at(
                &b.coefficients[*coef as usize],
                pattern,
                b.idx,
            )),
            Unbound::Index(slot) => Operand::K((b.idx[*slot as usize] + 1) as f64),
            Unbound::Dt => Operand::K(b.dt),
            Unbound::Time => Operand::Time,
            Unbound::Face(input) => Operand::Load {
                var: self.face_base + input,
                offset: 0,
            },
        };
        let coef_fn = |coef: u16| match &b.coefficients[coef as usize].value {
            CoefficientValue::Function(f) => CoefFnPtr(f.clone()),
            _ => unreachable!("RegExpr::CoefFn on a non-function coefficient"),
        };
        let mut stmts: Vec<RegStmt> = Vec::with_capacity(self.stmts.len());
        for s in &self.stmts {
            let mut stmt = RegStmt {
                dst: s.dst,
                expr: s.expr.map(&operand, &coef_fn),
            };
            // Fold repeatedly: a fold may expose the producer before it
            // (`k; load; Mul` → `k; r * load` → `k * load`).
            while stmts.last().is_some_and(|last| fold(last, &mut stmt)) {
                stmts.pop();
            }
            stmts.push(stmt);
        }
        // Register count from the folded list (a fold can eliminate the
        // deepest register entirely).
        let n_regs = stmts
            .iter()
            .flat_map(|s| {
                s.expr
                    .operands()
                    .iter()
                    .filter_map(|o| o.reg())
                    .chain([s.dst])
            })
            .max()
            .map_or(1, |r| r as usize + 1);
        RegProgram { stmts, n_regs }
    }
}

/// Where a statement's operand finds its lanes.
#[derive(Clone, Copy)]
enum Lanes<'a> {
    Reg(usize),
    K(f64),
    Row(&'a [f64]),
}

impl Lanes<'_> {
    #[inline(always)]
    fn at(self, regs: &[[f64; ROW_CHUNK]], l: usize) -> f64 {
        match self {
            Lanes::Reg(r) => regs[r][l],
            Lanes::K(k) => k,
            Lanes::Row(s) => s[l],
        }
    }
}

// The lane loops are indexed on purpose: that is the form LLVM
// auto-vectorizes, and `regs[d]` often aliases an operand's register.

/// `regs[d][l] = f(a[l])` for the first `len` lanes, one loop per operand
/// kind.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn unary(regs: &mut [[f64; ROW_CHUNK]], d: usize, len: usize, a: Lanes, f: impl Fn(f64) -> f64) {
    match a {
        Lanes::Reg(a) => {
            for l in 0..len {
                regs[d][l] = f(regs[a][l]);
            }
        }
        Lanes::K(k) => regs[d][..len].fill(f(k)),
        Lanes::Row(s) => {
            for l in 0..len {
                regs[d][l] = f(s[l]);
            }
        }
    }
}

/// `regs[d][l] = f(a[l], b[l])` for the first `len` lanes, one loop per
/// pair of operand kinds.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn binary(
    regs: &mut [[f64; ROW_CHUNK]],
    d: usize,
    len: usize,
    a: Lanes,
    b: Lanes,
    f: impl Fn(f64, f64) -> f64,
) {
    use Lanes::{Reg, Row, K};
    match (a, b) {
        (Reg(a), Reg(b)) => {
            for l in 0..len {
                regs[d][l] = f(regs[a][l], regs[b][l]);
            }
        }
        (Reg(a), K(k)) => {
            for l in 0..len {
                regs[d][l] = f(regs[a][l], k);
            }
        }
        (K(k), Reg(b)) => {
            for l in 0..len {
                regs[d][l] = f(k, regs[b][l]);
            }
        }
        (Reg(a), Row(s)) => {
            for l in 0..len {
                regs[d][l] = f(regs[a][l], s[l]);
            }
        }
        (Row(s), Reg(b)) => {
            for l in 0..len {
                regs[d][l] = f(s[l], regs[b][l]);
            }
        }
        (K(k), Row(s)) => {
            for l in 0..len {
                regs[d][l] = f(k, s[l]);
            }
        }
        (Row(s), K(k)) => {
            for l in 0..len {
                regs[d][l] = f(s[l], k);
            }
        }
        (Row(s), Row(t)) => {
            for l in 0..len {
                regs[d][l] = f(s[l], t[l]);
            }
        }
        (K(j), K(k)) => regs[d][..len].fill(f(j, k)),
    }
}

impl RegProgram {
    /// Registers the evaluator needs (scratch rows of `ROW_CHUNK` lanes).
    pub fn n_regs(&self) -> usize {
        self.n_regs.max(1)
    }

    /// Assemble a register program from raw parts, bypassing the binding.
    /// Exists so negative tests can seed deliberately-broken statement
    /// lists (e.g. a flipped operand order) and prove the translation
    /// validator catches them. Not for production use: no invariants are
    /// checked.
    #[doc(hidden)]
    pub fn from_raw_parts(stmts: Vec<RegStmt>, n_regs: usize) -> RegProgram {
        RegProgram { stmts, n_regs }
    }

    /// The bound statements (inspection/tests).
    pub fn stmts(&self) -> &[RegStmt] {
        &self.stmts
    }

    /// Evaluate `out[i] = program(cell0 + i)` for every `i`, batched in
    /// `ROW_CHUNK`-lane chunks: statements loop outermost, lanes innermost,
    /// so every inner loop is branch-free straight-line code over
    /// contiguous slices. `regs` is caller-provided scratch of at least
    /// [`RegProgram::n_regs`] rows; it never needs initialization (the
    /// postfix register discipline guarantees write-before-read). Results are
    /// bit-identical to [`Program::eval`] per cell, independent of how a
    /// cell range is split into calls.
    pub fn eval_row(
        &self,
        vars: &[&[f64]],
        cell0: usize,
        out: &mut [f64],
        centroids: &[Point],
        time: f64,
        regs: &mut [[f64; ROW_CHUNK]],
    ) {
        let n = out.len();
        let mut start = 0usize;
        while start < n {
            let len = (n - start).min(ROW_CHUNK);
            let base = cell0 + start;
            self.eval_chunk(
                len,
                |var, offset| &vars[var as usize][offset + base..offset + base + len],
                centroids,
                base,
                time,
                regs,
            );
            out[start..start + len].copy_from_slice(&regs[0][..len]);
            start += len;
        }
    }

    /// One chunk of `len ≤ ROW_CHUNK` lanes, result left in
    /// `regs[0][..len]`. `load(var, offset)` resolves a load to its `len`
    /// lane values: consecutive cells of a variable row for a volume
    /// program ([`RegProgram::eval_row`]), gathered face inputs for a flux
    /// program. Lane `l` evaluates function coefficients at
    /// `positions[pos0 + l]`; every lane reads `t` as `time`. Always
    /// inlined: left out of line, the row tier's `intensity_phase` bench
    /// measured ~8 % slower on a 2-core x86-64 host.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    pub(crate) fn eval_chunk<'a>(
        &self,
        len: usize,
        load: impl Fn(u16, usize) -> &'a [f64],
        positions: &[Point],
        pos0: usize,
        time: f64,
        regs: &mut [[f64; ROW_CHUNK]],
    ) {
        debug_assert!(regs.len() >= self.n_regs());
        // Checked once per chunk so every lane loop below is known to stay
        // inside its register row: no per-lane bounds check, and the loops
        // vectorize.
        assert!(len <= ROW_CHUNK);
        let lanes = |o: &Operand| match *o {
            Operand::Reg(r) => Lanes::Reg(r as usize),
            Operand::K(k) => Lanes::K(k),
            Operand::Load { var, offset } => Lanes::Row(&load(var, offset)[..len]),
            Operand::Time => Lanes::K(time),
        };
        for s in &self.stmts {
            let d = s.dst as usize;
            match &s.expr {
                RegExpr::Copy(a) => unary(regs, d, len, lanes(a), |x| x),
                RegExpr::CoefFn { f, .. } => {
                    for (l, r) in regs[d][..len].iter_mut().enumerate() {
                        *r = (f.0)(positions[pos0 + l], time);
                    }
                }
                RegExpr::Add([a, b]) => binary(regs, d, len, lanes(a), lanes(b), |x, y| x + y),
                RegExpr::Mul([a, b]) => binary(regs, d, len, lanes(a), lanes(b), |x, y| x * y),
                RegExpr::Pow([a, b]) => binary(regs, d, len, lanes(a), lanes(b), f64::powf),
                RegExpr::Recip(a) => unary(regs, d, len, lanes(a), |x| 1.0 / x),
                RegExpr::Call(f, a) => unary(regs, d, len, lanes(a), |x| f.apply(x)),
                RegExpr::Cmp(op, [a, b]) => binary(regs, d, len, lanes(a), lanes(b), |x, y| {
                    if op.apply(x, y) {
                        1.0
                    } else {
                        0.0
                    }
                }),
                RegExpr::Select([t, a, b]) => match (lanes(t), lanes(a), lanes(b)) {
                    (Lanes::Reg(t), Lanes::Reg(a), Lanes::Reg(b)) => {
                        for l in 0..len {
                            regs[d][l] = if regs[t][l] != 0.0 {
                                regs[a][l]
                            } else {
                                regs[b][l]
                            };
                        }
                    }
                    (t, a, b) => {
                        for l in 0..len {
                            let v = if t.at(regs, l) != 0.0 {
                                a.at(regs, l)
                            } else {
                                b.at(regs, l)
                            };
                            regs[d][l] = v;
                        }
                    }
                },
            }
        }
    }
}

/// Compilation context.
pub struct Compiler<'a> {
    pub registry: &'a Registry,
    pub unknown: usize,
    /// Loop slot k holds the value of this index id (the unknown's indices
    /// in declaration order).
    pub slots: Vec<usize>,
    pub kind: KernelKind,
}

/// The compiler's output buffer: statements in postfix order.
type Stmts = Vec<RegStmt<Unbound>>;

/// Append `r[d] = expr`, refusing a depth past the register file.
fn put(out: &mut Stmts, d: usize, expr: RegExpr<Unbound>) -> Result<(), Diagnostic> {
    if d >= MAX_REGS {
        return Err(Diagnostic::dsl_expression(format!(
            "expression too deep: needs more than {MAX_REGS} registers"
        )));
    }
    out.push(RegStmt { dst: d as u8, expr });
    Ok(())
}

/// Register operands `d, d + 1, …` — the values of a node's children.
fn regs<const N: usize>(d: usize) -> [Unbound; N] {
    std::array::from_fn(|i| Unbound::Reg((d + i) as u8))
}

impl<'a> Compiler<'a> {
    /// Compiler for a problem's kernels: slots are the unknown's indices.
    pub fn new(registry: &'a Registry, unknown: usize, kind: KernelKind) -> Compiler<'a> {
        Compiler {
            registry,
            unknown,
            slots: registry.variables[unknown].indices.clone(),
            kind,
        }
    }

    /// Compile an expression: its value lands in register 0.
    pub fn compile(&self, e: &ExprRef) -> Result<Program, Diagnostic> {
        let mut stmts = Vec::new();
        self.emit(e, 0, &mut stmts)?;
        Ok(Program {
            stmts,
            face_base: self.registry.variables.len() as u16,
        })
    }

    fn slot_of(&self, index_name: &str) -> Result<u8, Diagnostic> {
        let id = self
            .registry
            .index_id(index_name)
            .ok_or_else(|| Diagnostic::dsl_expression(format!("unknown index `{index_name}`")))?;
        let slot = self.slots.iter().position(|&s| s == id).ok_or_else(|| {
            Diagnostic::dsl_expression(format!(
                "index `{index_name}` is not an index of the unknown"
            ))
        })?;
        Ok(slot as u8)
    }

    /// Resolve subscripts against a declaration into a flat pattern.
    fn pattern(
        &self,
        name: &str,
        declared: &[usize],
        subs: &[ExprRef],
    ) -> Result<Pattern, Diagnostic> {
        if subs.len() != declared.len() {
            return Err(Diagnostic::dsl_expression(format!(
                "`{name}` used with {} subscripts, declared with {}",
                subs.len(),
                declared.len()
            )));
        }
        let strides = self.registry.strides(declared);
        let mut pattern = Pattern::default();
        for (k, sub) in subs.iter().enumerate() {
            match sub.as_ref() {
                Expr::Sym { name: s, indices } if indices.is_empty() => {
                    let slot = self.slot_of(s)?;
                    // The loop index must have the same extent as the
                    // declared index at this position.
                    let declared_len = self.registry.indices[declared[k]].len;
                    let slot_len = self.registry.indices[self.slots[slot as usize]].len;
                    if declared_len != slot_len {
                        return Err(Diagnostic::dsl_expression(format!(
                            "subscript `{s}` (len {slot_len}) does not match \
                             `{name}`'s declared index (len {declared_len})"
                        )));
                    }
                    pattern.terms.push((slot, strides[k]));
                }
                Expr::Num(v) if v.fract() == 0.0 && *v >= 1.0 => {
                    let lit = *v as usize - 1; // DSL is 1-based
                    let declared_len = self.registry.indices[declared[k]].len;
                    if lit >= declared_len {
                        return Err(Diagnostic::dsl_expression(format!(
                            "literal subscript {v} out of range for `{name}`"
                        )));
                    }
                    pattern.base += lit * strides[k];
                }
                _ => {
                    return Err(Diagnostic::dsl_expression(format!(
                        "subscript of `{name}` must be an index symbol or literal"
                    )))
                }
            }
        }
        Ok(pattern)
    }

    /// Emit the statements computing `e` into register `d`: each child
    /// of a node at depth `d` lands in `d + i`, then the node's statement
    /// combines them into `d`.
    fn emit(&self, e: &ExprRef, d: usize, out: &mut Stmts) -> Result<(), Diagnostic> {
        match e.as_ref() {
            Expr::Num(v) => put(out, d, RegExpr::Copy(Unbound::K(*v)))?,
            Expr::Sym { name, indices } => put(out, d, self.symbol(name, indices)?)?,
            Expr::Add(terms) => {
                self.emit(&terms[0], d, out)?;
                for t in &terms[1..] {
                    self.emit(t, d + 1, out)?;
                    put(out, d, RegExpr::Add(regs(d)))?;
                }
            }
            Expr::Mul(factors) => {
                self.emit(&factors[0], d, out)?;
                for f in &factors[1..] {
                    self.emit(f, d + 1, out)?;
                    put(out, d, RegExpr::Mul(regs(d)))?;
                }
            }
            Expr::Pow(base, exponent) => {
                self.emit(base, d, out)?;
                if exponent.is_num(-1.0) {
                    put(out, d, RegExpr::Recip(Unbound::Reg(d as u8)))?;
                } else {
                    self.emit(exponent, d + 1, out)?;
                    put(out, d, RegExpr::Pow(regs(d)))?;
                }
            }
            Expr::Call { name, args } => match name.as_str() {
                "CELL1" | "CELL2" => {
                    if self.kind != KernelKind::Flux {
                        return Err(Diagnostic::dsl_expression(
                            "CELL1/CELL2 only valid in flux expressions",
                        ));
                    }
                    match args[0].as_sym() {
                        Some((n, _)) if self.registry.variable_id(n) == Some(self.unknown) => {}
                        _ => {
                            return Err(Diagnostic::dsl_expression(
                                "CELL1/CELL2 must wrap the unknown variable",
                            ))
                        }
                    }
                    let input = if name == "CELL1" { FACE_U1 } else { FACE_U2 };
                    put(out, d, RegExpr::Copy(Unbound::Face(input)))?;
                }
                _ => {
                    let f = Func::from_name(name).ok_or_else(|| {
                        Diagnostic::dsl_expression(format!("unsupported function `{name}`"))
                    })?;
                    if args.len() != 1 {
                        return Err(Diagnostic::dsl_expression(format!(
                            "`{name}` takes one argument"
                        )));
                    }
                    self.emit(&args[0], d, out)?;
                    put(out, d, RegExpr::Call(f, Unbound::Reg(d as u8)))?;
                }
            },
            Expr::Cmp(op, a, b) => {
                self.emit(a, d, out)?;
                self.emit(b, d + 1, out)?;
                put(out, d, RegExpr::Cmp(*op, regs(d)))?;
            }
            Expr::Conditional {
                test,
                if_true,
                if_false,
            } => {
                self.emit(test, d, out)?;
                self.emit(if_true, d + 1, out)?;
                self.emit(if_false, d + 2, out)?;
                put(out, d, RegExpr::Select(regs(d)))?;
            }
            Expr::Vector(_) => {
                return Err(Diagnostic::dsl_expression(
                    "vector literal outside an operator that consumes it",
                ))
            }
        }
        Ok(())
    }

    /// The statement reading symbol `name[indices]`: a copy of what it
    /// names, or a function coefficient's evaluation.
    fn symbol(&self, name: &str, indices: &[ExprRef]) -> Result<RegExpr<Unbound>, Diagnostic> {
        let copy = |o| Ok(RegExpr::Copy(o));
        match name {
            "dt" => return copy(Unbound::Dt),
            "t" => return copy(Unbound::Time),
            "pi" => return copy(Unbound::K(std::f64::consts::PI)),
            _ => {}
        }
        if let Some(axis) = name.strip_prefix("NORMAL_") {
            if self.kind != KernelKind::Flux {
                return Err(Diagnostic::dsl_expression(
                    "NORMAL_i only valid in flux expressions",
                ));
            }
            let axis: u16 = axis
                .parse::<u16>()
                .ok()
                .filter(|a| (1..=3).contains(a))
                .ok_or_else(|| {
                    Diagnostic::dsl_expression(format!("bad normal component `{name}`"))
                })?;
            return copy(Unbound::Face(FACE_NORMAL + axis - 1));
        }
        if let Some(v) = self.registry.variable_id(name) {
            if v == self.unknown && self.kind == KernelKind::Flux {
                return Err(Diagnostic::dsl_expression(
                    "the unknown must appear under CELL1/CELL2 in flux expressions",
                ));
            }
            let declared = self.registry.variables[v].indices.clone();
            let pattern = self.pattern(name, &declared, indices)?;
            return copy(Unbound::Var {
                var: v as u16,
                pattern,
            });
        }
        if let Some(c) = self.registry.coefficient_id(name) {
            let coefficient = &self.registry.coefficients[c];
            return match &coefficient.value {
                CoefficientValue::Scalar(v) => copy(Unbound::K(*v)),
                CoefficientValue::Array(_) => {
                    let declared = coefficient.indices.clone();
                    let pattern = self.pattern(name, &declared, indices)?;
                    copy(Unbound::Coef {
                        coef: c as u16,
                        pattern,
                    })
                }
                CoefficientValue::Function(_) => {
                    if !indices.is_empty() {
                        return Err(Diagnostic::dsl_expression(format!(
                            "function coefficient `{name}` cannot be subscripted"
                        )));
                    }
                    Ok(RegExpr::CoefFn {
                        coef: c as u16,
                        f: (),
                    })
                }
            };
        }
        if self.registry.index_id(name).is_some() {
            return copy(Unbound::Index(self.slot_of(name)?));
        }
        Err(Diagnostic::dsl_expression(format!(
            "unknown symbol `{name}`"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{Fields, Index, Variable};
    use crate::problem::Problem;
    use pbte_symbolic::parse;

    fn setup() -> (Registry, Fields) {
        let mut r = Registry::default();
        r.indices.push(Index {
            name: "d".into(),
            len: 4,
        });
        r.indices.push(Index {
            name: "b".into(),
            len: 3,
        });
        r.variables.push(Variable {
            name: "I".into(),
            location: crate::entities::Location::Cell,
            indices: vec![0, 1],
        });
        r.variables.push(Variable {
            name: "Io".into(),
            location: crate::entities::Location::Cell,
            indices: vec![1],
        });
        r.coefficients.push(crate::entities::Coefficient {
            name: "vg".into(),
            indices: vec![1],
            value: CoefficientValue::Array(vec![10.0, 20.0, 30.0]),
        });
        r.coefficients.push(crate::entities::Coefficient {
            name: "k".into(),
            indices: vec![],
            value: CoefficientValue::Scalar(2.5),
        });
        let mut fields = Fields::new(&r, 5);
        // I[cell, d, b] = 100*cell + 10*(d+1) + (b+1); Io[cell, b] = b+1.
        for cell in 0..5 {
            for d in 0..4 {
                for b in 0..3 {
                    fields.set(
                        0,
                        cell,
                        d * 3 + b,
                        (100 * cell + 10 * (d + 1) + b + 1) as f64,
                    );
                }
            }
            for b in 0..3 {
                fields.set(1, cell, b, (b + 1) as f64);
            }
        }
        (r, fields)
    }

    fn ctx<'a>(r: &'a Registry, vars: &'a [&'a [f64]], idx: &'a [usize], cell: usize) -> VmCtx<'a> {
        VmCtx {
            vars,
            n_cells: 5,
            coefficients: &r.coefficients,
            idx,
            cell,
            u1: 0.0,
            u2: 0.0,
            normal: [1.0, 0.0, 0.0],
            position: pbte_mesh::Point::zero(),
            dt: 0.5,
            time: 2.0,
        }
    }

    #[test]
    fn loads_variables_with_index_patterns() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let prog = c.compile(&parse("I[d,b] + Io[b]").unwrap()).unwrap();
        // d=2 (0-based), b=1, cell=3 → I = 300 + 30 + 2 = 332; Io = 2.
        let v = prog.eval(&ctx(&r, &vars, &[2, 1], 3));
        assert_eq!(v, 334.0);
        assert_eq!(prog.flops(), 1);
    }

    #[test]
    fn coefficients_scalars_fold_arrays_load() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let prog = c.compile(&parse("k * vg[b]").unwrap()).unwrap();
        let v = prog.eval(&ctx(&r, &vars, &[0, 2], 0));
        assert_eq!(v, 2.5 * 30.0);
        // Scalar k compiled to a constant, the array coefficient to a load.
        assert_eq!(prog.stmts[0].expr, RegExpr::Copy(Unbound::K(2.5)));
        assert!(matches!(
            prog.stmts[1].expr,
            RegExpr::Copy(Unbound::Coef { coef: 0, .. })
        ));
    }

    #[test]
    fn index_values_are_one_based() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let prog = c.compile(&parse("d * 10 + b").unwrap()).unwrap();
        let v = prog.eval(&ctx(&r, &vars, &[3, 2], 0));
        assert_eq!(v, 43.0); // (3+1)*10 + (2+1)
    }

    #[test]
    fn literal_subscripts_fold_into_base() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let prog = c.compile(&parse("Io[2]").unwrap()).unwrap();
        let v = prog.eval(&ctx(&r, &vars, &[0, 0], 1));
        assert_eq!(v, 2.0);
    }

    #[test]
    fn flux_kernel_uses_cell_markers_and_normals() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Flux);
        let prog = c
            .compile(
                &parse("conditional(NORMAL_1 > 0, NORMAL_1*CELL1(I[d,b]), NORMAL_1*CELL2(I[d,b]))")
                    .unwrap(),
            )
            .unwrap();
        let mut vm = ctx(&r, &vars, &[0, 0], 0);
        vm.u1 = 7.0;
        vm.u2 = 9.0;
        vm.normal = [1.0, 0.0, 0.0];
        assert_eq!(prog.eval(&vm), 7.0);
        vm.normal = [-1.0, 0.0, 0.0];
        assert_eq!(prog.eval(&vm), -9.0);
    }

    #[test]
    fn volume_kernel_rejects_flux_markers() {
        let (r, _) = setup();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        assert!(c.compile(&parse("NORMAL_1 * I[d,b]").unwrap()).is_err());
        assert!(c.compile(&parse("CELL1(I[d,b])").unwrap()).is_err());
    }

    #[test]
    fn flux_kernel_rejects_bare_unknown() {
        let (r, _) = setup();
        let c = Compiler::new(&r, 0, KernelKind::Flux);
        let err = c.compile(&parse("NORMAL_1 * I[d,b]").unwrap()).unwrap_err();
        assert!(err.to_string().contains("CELL1/CELL2"));
    }

    #[test]
    fn division_uses_recip() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let prog = c.compile(&parse("Io[b] / k").unwrap()).unwrap();
        assert!(prog
            .stmts
            .iter()
            .any(|s| matches!(s.expr, RegExpr::Recip(_))));
        let v = prog.eval(&ctx(&r, &vars, &[0, 1], 0));
        assert_eq!(v, 2.0 / 2.5);
    }

    #[test]
    fn functions_and_time_symbols() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let prog = c.compile(&parse("exp(0*t) + dt + pi*0").unwrap()).unwrap();
        let v = prog.eval(&ctx(&r, &vars, &[0, 0], 0));
        assert_eq!(v, 1.5); // exp(0) + dt(0.5)
    }

    #[test]
    fn matches_symbolic_evaluation_on_bte_volume_expr() {
        // Cross-check the `vm` tier against the symbolic evaluator on the real
        // BTE volume expression.
        let mut p = Problem::new("x");
        p.domain(2);
        let d = p.index("d", 4);
        let b = p.index("b", 3);
        let i = p.variable("I", &[d, b]);
        let _ = p.variable("Io", &[b]);
        let _ = p.variable("beta", &[b]);
        p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
        p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
        p.coefficient_array("vg", &[b], vec![3.0, 2.0, 1.0]);
        p.conservation_form(
            i,
            "(Io[b] - I[d,b]) * beta[b] + surface(vg[b]*upwind([Sx[d];Sy[d]], I[d,b]))",
        );
        let sys = p.analyze().unwrap();
        let compiler = Compiler::new(&p.registry, i, KernelKind::Volume);
        let prog = compiler.compile(&sys.volume_expr).unwrap();

        let mut fields = Fields::new(&p.registry, 2);
        for cell in 0..2 {
            for dd in 0..4 {
                for bb in 0..3 {
                    fields.set(0, cell, dd * 3 + bb, (cell + dd * 2 + bb) as f64 * 0.25);
                }
            }
            for bb in 0..3 {
                fields.set(1, cell, bb, 1.0 + bb as f64); // Io
                fields.set(2, cell, bb, 0.5 * (1.0 + bb as f64)); // beta
            }
        }
        let vars = fields.as_slices();
        for cell in 0..2 {
            for dd in 0..4 {
                for bb in 0..3 {
                    let idx = [dd, bb];
                    let vm = VmCtx {
                        vars: &vars,
                        n_cells: fields.n_cells,
                        coefficients: &p.registry.coefficients,
                        idx: &idx,
                        cell,
                        u1: 0.0,
                        u2: 0.0,
                        normal: [0.0; 3],
                        position: pbte_mesh::Point::zero(),
                        dt: 0.1,
                        time: 0.0,
                    };
                    let got = prog.eval(&vm);
                    let io = fields.value(1, cell, bb);
                    let ii = fields.value(0, cell, dd * 3 + bb);
                    let beta = fields.value(2, cell, bb);
                    let expected = (io - ii) * beta;
                    assert!((got - expected).abs() < 1e-14, "cell {cell} d {dd} b {bb}");
                }
            }
        }
        assert!(prog.flops() >= 2);
    }

    #[test]
    fn row_compile_fuses_bte_source_superinstructions() {
        // The BTE source `(Io[b] - I[d,b]) * beta[b]` distributes in the
        // pipeline and compiles to the 9 statements `-1; I; Mul; beta;
        // Mul; Io; beta; Mul; Add`. Binding must fold them to 5 statements
        // (`k * I; r0 * beta; Io; r1 * beta; r0 + r1`) in 2 registers.
        let mut p = Problem::new("fuse");
        p.domain(2);
        let d = p.index("d", 4);
        let b = p.index("b", 3);
        let i = p.variable("I", &[d, b]);
        let _ = p.variable("Io", &[b]);
        let _ = p.variable("beta", &[b]);
        p.coefficient_array("Sx", &[d], vec![1.0, 0.0, -1.0, 0.0]);
        p.coefficient_array("Sy", &[d], vec![0.0, 1.0, 0.0, -1.0]);
        p.conservation_form(
            i,
            "(Io[b] - I[d,b]) * beta[b] + surface(upwind([Sx[d];Sy[d]], I[d,b]))",
        );
        let sys = p.analyze().unwrap();
        let compiler = Compiler::new(&p.registry, i, KernelKind::Volume);
        let prog = compiler.compile(&sys.volume_expr).unwrap();
        let reg = prog.bind(&Binding {
            idx: &[1, 2],
            n_cells: 8,
            dt: 0.1,
            coefficients: &p.registry.coefficients,
        });
        let exprs: Vec<&RegExpr> = reg.stmts().iter().map(|s| &s.expr).collect();
        assert!(exprs.len() <= 5, "expected ≤5 statements, got {exprs:?}");
        assert!(exprs
            .iter()
            .any(|e| matches!(e, RegExpr::Mul([Operand::K(_), Operand::Load { .. }]))));
        assert!(exprs
            .iter()
            .any(|e| matches!(e, RegExpr::Mul([Operand::Reg(_), Operand::Load { .. }]))));
        assert_eq!(reg.n_regs(), 2);
    }

    #[test]
    fn row_eval_matches_interpreters_bitwise() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let centroids = vec![pbte_mesh::Point::zero(); 5];
        for src in [
            "I[d,b] + Io[b]",
            "k * vg[b] * I[d,b]",
            "(Io[b] - I[d,b]) * vg[b]",
            "Io[b] / k + d * 10 + b",
            "exp(0.001 * I[d,b]) + I[d,b]^2",
            "conditional(I[d,b] > 15, Io[b], vg[b])",
            "Io[b] * t + t * k + exp(-t)",
        ] {
            let prog = c.compile(&parse(src).unwrap()).unwrap();
            for (dd, bb) in [(0usize, 0usize), (2, 1), (3, 2)] {
                let idx = [dd, bb];
                let reg = prog.bind(&Binding {
                    idx: &idx,
                    n_cells: 5,
                    dt: 0.5,
                    coefficients: &r.coefficients,
                });
                let mut regs = vec![[0.0; ROW_CHUNK]; reg.n_regs()];
                let mut out = [0.0f64; 5];
                reg.eval_row(&vars, 0, &mut out, &centroids, 2.0, &mut regs);
                for (cell, row_val) in out.iter().enumerate() {
                    let vm_val = prog.eval(&ctx(&r, &vars, &idx, cell));
                    assert_eq!(
                        row_val.to_bits(),
                        vm_val.to_bits(),
                        "{src} @ cell {cell} d {dd} b {bb}: row {row_val} vs vm {vm_val}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_eval_spans_longer_than_chunk() {
        // Spans longer than ROW_CHUNK are processed in lanes; results must
        // not depend on where the chunk boundaries fall.
        let mut r = Registry::default();
        r.indices.push(Index {
            name: "b".into(),
            len: 2,
        });
        r.variables.push(Variable {
            name: "u".into(),
            location: crate::entities::Location::Cell,
            indices: vec![0],
        });
        let n = 3 * ROW_CHUNK + 7;
        let mut fields = Fields::new(&r, n);
        for cell in 0..n {
            for b in 0..2 {
                fields.set(0, cell, b, (cell * 2 + b) as f64 * 0.125 - 7.0);
            }
        }
        let vars = fields.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let prog = c.compile(&parse("u[b] * u[b] + b").unwrap()).unwrap();
        let centroids = vec![pbte_mesh::Point::zero(); n];
        let idx = [1usize];
        let reg = prog.bind(&Binding {
            idx: &idx,
            n_cells: n,
            dt: 0.1,
            coefficients: &r.coefficients,
        });
        let mut regs = vec![[0.0; ROW_CHUNK]; reg.n_regs()];
        let mut out = vec![0.0; n];
        reg.eval_row(&vars, 0, &mut out, &centroids, 0.0, &mut regs);
        for (cell, row_val) in out.iter().enumerate() {
            let expect = prog.eval(&VmCtx {
                n_cells: n,
                dt: 0.1,
                time: 0.0,
                ..ctx(&r, &vars, &idx, cell)
            });
            assert_eq!(row_val.to_bits(), expect.to_bits(), "cell {cell}");
        }
        // An offset sub-span must agree bitwise with the full row.
        let mut part = vec![0.0; ROW_CHUNK + 9];
        reg.eval_row(&vars, 50, &mut part, &centroids, 0.0, &mut regs);
        for (i, v) in part.iter().enumerate() {
            assert_eq!(v.to_bits(), out[50 + i].to_bits());
        }
    }

    #[test]
    fn references_time_detects_t() {
        let (r, _) = setup();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        let with_t = c.compile(&parse("I[d,b] * t").unwrap()).unwrap();
        assert!(with_t.references_time());
        let without = c.compile(&parse("I[d,b] * dt").unwrap()).unwrap();
        assert!(!without.references_time());
    }

    /// `depth` nested conditionals, each branching into the next on its
    /// `else` side, around `innermost`: level `j` holds its test in
    /// registers `2j` and `2j + 1`, so the innermost expression starts at
    /// register `2 · depth`.
    fn nested_conditionals(depth: usize, innermost: ExprRef) -> ExprRef {
        (0..depth).fold(innermost, |inner, j| {
            let test = Expr::cmp(
                CmpOp::Gt,
                Expr::sym_indexed("Io", vec![Expr::sym("b")]),
                Expr::num(j as f64 * 0.5),
            );
            Expr::conditional(test, Expr::num(j as f64), inner)
        })
    }

    /// The refusal boundary is the register file: an expression needing
    /// exactly `MAX_REGS` registers compiles, and its `vm` evaluation and
    /// bound row evaluation agree bit for bit on every cell and flat; one
    /// needing one more is refused.
    #[test]
    fn register_file_bounds_the_compilable_depth() {
        let (r, f) = setup();
        let vars = f.as_slices();
        let c = Compiler::new(&r, 0, KernelKind::Volume);
        // 15 levels put the innermost sum's operands in registers 30, 31.
        let sum = Expr::add(vec![
            Expr::sym_indexed("I", vec![Expr::sym("d"), Expr::sym("b")]),
            Expr::sym_indexed("vg", vec![Expr::sym("b")]),
        ]);
        let prog = c.compile(&nested_conditionals(15, sum)).unwrap();
        let deepest = prog.stmts.iter().map(|s| s.dst as usize).max();
        assert_eq!(deepest, Some(MAX_REGS - 1));
        let centroids = vec![pbte_mesh::Point::zero(); 5];
        for (dd, bb) in [(0usize, 0usize), (2, 1), (3, 2)] {
            let idx = [dd, bb];
            let reg = prog.bind(&Binding {
                idx: &idx,
                n_cells: 5,
                dt: 0.5,
                coefficients: &r.coefficients,
            });
            let mut regs = vec![[0.0; ROW_CHUNK]; reg.n_regs()];
            let mut out = [0.0f64; 5];
            reg.eval_row(&vars, 0, &mut out, &centroids, 2.0, &mut regs);
            for (cell, row_val) in out.iter().enumerate() {
                let vm_val = prog.eval(&ctx(&r, &vars, &idx, cell));
                assert_eq!(row_val.to_bits(), vm_val.to_bits(), "cell {cell}");
            }
        }
        // 16 levels put a lone innermost leaf in register 32.
        let err = c
            .compile(&nested_conditionals(16, Expr::num(1.0)))
            .unwrap_err();
        assert!(err.to_string().contains("too deep"), "{err}");
    }
}
