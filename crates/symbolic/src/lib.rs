//! Symbolic expression engine for the PBTE DSL.
//!
//! This crate is the stand-in for SymEngine / SymEngine.jl used by the Finch
//! DSL in the paper. It provides exactly the feature set the DSL pipeline
//! needs:
//!
//! * an immutable, shareable expression tree ([`Expr`]) with n-ary sums and
//!   products, powers, indexed symbols (`I[d,b]`), function calls
//!   (`surface(..)`, `upwind(..)`), comparisons, conditionals, and small
//!   vector literals (`[Sx[d]; Sy[d]]`);
//! * a lexer + Pratt [`parser`] for the DSL's input strings;
//! * a [`simplify`](mod@simplify) pass: constant folding, flattening, like-term collection,
//!   and canonical ordering so printed forms are deterministic;
//! * [`subs`]titution of symbols and index values;
//! * numeric [`eval`](mod@eval)uation against an environment (used by tests and by the
//!   DSL's bytecode compiler to cross-check plans);
//! * symbolic [`diff`](mod@diff)erentiation;
//! * plain-math pretty printing ([`display`]).
//!
//! Expressions are built from [`ExprRef`]s (`Rc<Expr>`); all operations
//! return new trees and never mutate in place.

pub mod diff;
pub mod display;
pub mod eval;
pub mod expr;
pub mod interval;
pub mod lexer;
pub mod parser;
pub mod simplify;
pub mod subs;
pub mod units;

pub use diff::{contains_expr, diff, diff_wrt};
pub use eval::{eval, EvalContext, EvalError};
pub use expr::{CmpOp, Expr, ExprRef};
pub use interval::{Interval, IntervalError};
pub use parser::{parse, ParseError};
pub use simplify::{canonical_eq, simplify};
pub use subs::{substitute, substitute_indices, SubstitutionMap};
pub use units::{dim_eval, Dim, DimEvalError, DimParseError, InferredDim, Rat, UnitContext};
