//! SI dimensional analysis as an abstract domain over [`Expr`].
//!
//! A [`Dim`] is a vector of rational exponents over the four SI base
//! dimensions the thermal-transport stack needs — length (m), mass (kg),
//! time (s), temperature (K). The inference rules:
//!
//! * addition, subtraction, comparison, `min`/`max`, and the two branches
//!   of a conditional demand **equal** dimensions;
//! * multiplication adds dimension vectors, powers scale them (the
//!   exponent must be a numeric literal unless the base is dimensionless);
//! * transcendentals (`exp`, `log`, `sin`, `cos`, `sinh`, `cosh`, `tanh`)
//!   demand a **dimensionless** argument and produce a dimensionless
//!   result; `sqrt` halves every exponent (hence rational powers);
//! * symbols resolve through a [`UnitContext`].
//!
//! The literal `0` is *polymorphic*: `x + 0` is well-dimensioned for any
//! `x` (the DSL's upwind expansion compares fluxes against the literal
//! zero, and the normalized form of `a - b` introduces `(-1)*b` factors
//! whose sums must still check). [`dim_eval`] therefore returns an
//! [`InferredDim`] carrying a `polymorphic` flag rather than a bare
//! [`Dim`].

use crate::expr::{Expr, ExprRef};
use std::fmt;

/// A normalized rational number (denominator > 0, reduced by gcd).
///
/// Dimension exponents are rational because `sqrt` halves them; i64
/// components keep the arithmetic exact for any expression the parser can
/// produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i64,
    den: i64,
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

// Like `interval::Interval`, this is deliberately inherent arithmetic on
// a small Copy domain value, not operator overloading: the abstract
// evaluators call these by name and never mix them with numeric `+`/`*`.
#[allow(clippy::should_implement_trait)]
impl Rat {
    /// `num / den`, normalized. Panics on a zero denominator.
    pub fn new(num: i64, den: i64) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den).max(1);
        let sign = if den < 0 { -1 } else { 1 };
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `n`.
    pub fn int(n: i64) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Zero.
    pub fn zero() -> Rat {
        Rat::int(0)
    }

    /// True when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `self + other`.
    pub fn add(self, other: Rat) -> Rat {
        Rat::new(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )
    }

    /// `-self`.
    pub fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }

    /// `self * other`.
    pub fn mul(self, other: Rat) -> Rat {
        Rat::new(self.num * other.num, self.den * other.den)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Names of the base dimensions, in exponent-vector order.
pub const BASE_UNITS: [&str; 4] = ["m", "kg", "s", "K"];

/// An SI dimension: rational exponents over (m, kg, s, K).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Exponents in [`BASE_UNITS`] order.
    pub exps: [Rat; 4],
}

#[allow(clippy::should_implement_trait)]
impl Dim {
    /// The dimensionless dimension (all exponents zero).
    pub fn dimensionless() -> Dim {
        Dim {
            exps: [Rat::zero(); 4],
        }
    }

    /// A single base dimension raised to the first power.
    /// `axis` indexes [`BASE_UNITS`].
    pub fn base(axis: usize) -> Dim {
        let mut d = Dim::dimensionless();
        d.exps[axis] = Rat::int(1);
        d
    }

    /// True when every exponent is zero.
    pub fn is_dimensionless(&self) -> bool {
        self.exps.iter().all(|e| e.is_zero())
    }

    /// `self * other` (exponents add).
    pub fn mul(self, other: Dim) -> Dim {
        let mut exps = self.exps;
        for (e, o) in exps.iter_mut().zip(other.exps) {
            *e = e.add(o);
        }
        Dim { exps }
    }

    /// `self / other` (exponents subtract).
    pub fn div(self, other: Dim) -> Dim {
        self.mul(other.recip())
    }

    /// `self^-1` (exponents negate).
    pub fn recip(self) -> Dim {
        let mut exps = self.exps;
        for e in exps.iter_mut() {
            *e = e.neg();
        }
        Dim { exps }
    }

    /// `self^r` (exponents scale by the rational `r`).
    pub fn pow(self, r: Rat) -> Dim {
        let mut exps = self.exps;
        for e in exps.iter_mut() {
            *e = e.mul(r);
        }
        Dim { exps }
    }

    /// Parse a unit specification string into a dimension.
    ///
    /// Grammar: factors joined by `*` or `/` (left-associative), each
    /// factor a unit name optionally raised to an integer power with `^`
    /// (`m^-3`, `s^2`). Recognized names: the base units `m`, `kg`, `s`,
    /// `K`, the derived units `J`, `W`, `Hz`, `N`, `Pa`, and the literal
    /// `1` for a dimensionless factor. Whitespace around tokens is
    /// ignored. Examples: `"W/m^2"`, `"1/s"`, `"m/s"`, `"K"`, `"1"`.
    pub fn parse(spec: &str) -> Result<Dim, DimParseError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(DimParseError("empty unit specification".into()));
        }
        let mut out = Dim::dimensionless();
        // Split into (sign, factor) pairs on * and /.
        let mut invert = false;
        let mut start = 0usize;
        let bytes = spec.as_bytes();
        let mut pieces: Vec<(bool, &str)> = Vec::new();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'*' || b == b'/' {
                pieces.push((invert, spec[start..i].trim()));
                invert = b == b'/';
                start = i + 1;
            }
        }
        pieces.push((invert, spec[start..].trim()));
        for (inv, factor) in pieces {
            if factor.is_empty() {
                return Err(DimParseError(format!("empty factor in `{spec}`")));
            }
            let (name, power) = match factor.split_once('^') {
                Some((n, p)) => {
                    let p: i64 = p
                        .trim()
                        .parse()
                        .map_err(|_| DimParseError(format!("bad exponent `{p}` in `{spec}`")))?;
                    (n.trim(), p)
                }
                None => (factor, 1),
            };
            let base = Dim::unit_name(name)
                .ok_or_else(|| DimParseError(format!("unknown unit `{name}` in `{spec}`")))?;
            let mut d = base.pow(Rat::int(power));
            if inv {
                d = d.recip();
            }
            out = out.mul(d);
        }
        Ok(out)
    }

    /// Dimension of a single recognized unit name, or `None`.
    pub fn unit_name(name: &str) -> Option<Dim> {
        let m = Dim::base(0);
        let kg = Dim::base(1);
        let s = Dim::base(2);
        let k = Dim::base(3);
        Some(match name {
            "1" => Dim::dimensionless(),
            "m" => m,
            "kg" => kg,
            "s" => s,
            "K" => k,
            // Derived units, expanded to base dimensions.
            "Hz" => s.recip(),
            "N" => kg.mul(m).div(s.pow(Rat::int(2))),
            "Pa" => kg.div(m).div(s.pow(Rat::int(2))),
            "J" => kg.mul(m.pow(Rat::int(2))).div(s.pow(Rat::int(2))),
            "W" => kg.mul(m.pow(Rat::int(2))).div(s.pow(Rat::int(3))),
            _ => return None,
        })
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_dimensionless() {
            return write!(f, "1");
        }
        let mut first = true;
        for (name, e) in BASE_UNITS.iter().zip(self.exps.iter()) {
            if e.is_zero() {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            first = false;
            if *e == Rat::int(1) {
                write!(f, "{name}")?;
            } else {
                write!(f, "{name}^{e}")?;
            }
        }
        Ok(())
    }
}

/// Failure parsing a unit specification string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimParseError(pub String);

impl fmt::Display for DimParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DimParseError {}

/// An inferred dimension: either a definite [`Dim`] or the polymorphic
/// dimension of the literal zero (compatible with everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferredDim {
    /// The dimension (meaningless when `polymorphic` is set).
    pub dim: Dim,
    /// Set for expressions that are identically zero, whose dimension
    /// unifies with any other.
    pub polymorphic: bool,
}

impl InferredDim {
    /// A definite dimension.
    pub fn of(dim: Dim) -> InferredDim {
        InferredDim {
            dim,
            polymorphic: false,
        }
    }

    /// The dimensionless dimension.
    pub fn dimensionless() -> InferredDim {
        InferredDim::of(Dim::dimensionless())
    }

    /// The polymorphic zero.
    pub fn any() -> InferredDim {
        InferredDim {
            dim: Dim::dimensionless(),
            polymorphic: true,
        }
    }

    /// True when this inference is compatible with the definite `other`.
    pub fn matches(&self, other: &Dim) -> bool {
        self.polymorphic || self.dim == *other
    }

    /// Unify two inferences; `None` on a definite mismatch.
    pub fn unify(self, other: InferredDim) -> Option<InferredDim> {
        match (self.polymorphic, other.polymorphic) {
            (true, _) => Some(other),
            (_, true) => Some(self),
            (false, false) => (self.dim == other.dim).then_some(self),
        }
    }
}

impl fmt::Display for InferredDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.polymorphic {
            write!(f, "0 (any)")
        } else {
            write!(f, "{}", self.dim)
        }
    }
}

/// Resolves symbol dimensions during dimensional inference.
pub trait UnitContext {
    /// Declared dimension of symbol `name`, or `None` when undeclared.
    fn symbol_dim(&self, name: &str) -> Option<Dim>;

    /// Dimension transfer for a call not in the built-in table (e.g. the
    /// DSL pipeline's face-sampling operators `CELL1`/`CELL2`). Return
    /// the result dimension given the argument dimensions, or `None` to
    /// report the function as unknown.
    fn call_dim(&self, _name: &str, _args: &[InferredDim]) -> Option<InferredDim> {
        None
    }
}

/// Failure during expression-level dimensional inference.
#[derive(Debug, Clone, PartialEq)]
pub enum DimEvalError {
    /// A symbol has no declared dimension in the context.
    UndeclaredSymbol(String),
    /// A call target is not a known function.
    UnknownFunction(String),
    /// Two operands of an addition, comparison, `min`/`max`, vector, or
    /// conditional carry different dimensions. The payload renders the
    /// offending sub-expression and both dimensions.
    Mismatch {
        /// The offending sub-expression, rendered.
        context: String,
        /// Dimension of the first operand.
        a: Dim,
        /// Dimension of the second operand.
        b: Dim,
    },
    /// A transcendental applied to a dimensionful argument.
    TranscendentalArg {
        /// The function name.
        func: String,
        /// The argument's dimension.
        arg: Dim,
        /// The offending sub-expression, rendered.
        context: String,
    },
    /// A power whose exponent is not a numeric literal over a
    /// dimensionful base — the result dimension would not be static.
    NonNumericExponent(String),
    /// A power with a non-integer (and non-half) literal exponent over a
    /// dimensionful base.
    FractionalPower(String),
}

impl fmt::Display for DimEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimEvalError::UndeclaredSymbol(s) => write!(f, "no declared unit for `{s}`"),
            DimEvalError::UnknownFunction(s) => write!(f, "unknown function `{s}`"),
            DimEvalError::Mismatch { context, a, b } => {
                write!(f, "dimension mismatch in `{context}`: `{a}` vs `{b}`")
            }
            DimEvalError::TranscendentalArg { func, arg, context } => write!(
                f,
                "`{func}` of a dimensionful argument (`{arg}`) in `{context}`"
            ),
            DimEvalError::NonNumericExponent(s) => {
                write!(f, "non-literal exponent over a dimensionful base in `{s}`")
            }
            DimEvalError::FractionalPower(s) => {
                write!(f, "fractional power of a dimensionful base in `{s}`")
            }
        }
    }
}

impl std::error::Error for DimEvalError {}

fn mismatch(e: &ExprRef, a: InferredDim, b: InferredDim) -> DimEvalError {
    DimEvalError::Mismatch {
        context: e.to_string(),
        a: a.dim,
        b: b.dim,
    }
}

/// Fold a sequence of same-dimension operands (sum, min/max, vector).
// The rich Mismatch payload (two rendered dimensions) is the point of
// the error; inference runs once per plan, never on a hot path.
#[allow(clippy::result_large_err)]
fn unify_all(
    e: &ExprRef,
    items: &[ExprRef],
    ctx: &dyn UnitContext,
) -> Result<InferredDim, DimEvalError> {
    let mut acc = InferredDim::any();
    for item in items {
        let d = dim_eval(item, ctx)?;
        acc = acc.unify(d).ok_or_else(|| mismatch(e, acc, d))?;
    }
    Ok(acc)
}

/// Infer the dimension of `e` over the SI dimension domain.
///
/// The structural mirror of [`crate::eval()`]: symbols
/// resolve to declared dimensions through the context, sums and
/// comparisons demand equal dimensions, products add exponent vectors,
/// and transcendentals demand dimensionless arguments. Conditionals check
/// the test (a comparison) and unify both branches.
#[allow(clippy::result_large_err)]
pub fn dim_eval(e: &ExprRef, ctx: &dyn UnitContext) -> Result<InferredDim, DimEvalError> {
    match e.as_ref() {
        Expr::Num(v) => Ok(if *v == 0.0 {
            InferredDim::any()
        } else {
            InferredDim::dimensionless()
        }),
        Expr::Sym { name, .. } => ctx
            .symbol_dim(name)
            .map(InferredDim::of)
            .ok_or_else(|| DimEvalError::UndeclaredSymbol(name.clone())),
        Expr::Add(terms) => unify_all(e, terms, ctx),
        Expr::Mul(factors) => {
            let mut acc = InferredDim::dimensionless();
            for f in factors {
                let d = dim_eval(f, ctx)?;
                // A zero factor keeps the product polymorphic.
                acc = InferredDim {
                    dim: acc.dim.mul(d.dim),
                    polymorphic: acc.polymorphic || d.polymorphic,
                };
            }
            Ok(acc)
        }
        Expr::Pow(base, exponent) => {
            let b = dim_eval(base, ctx)?;
            // The exponent must itself be dimensionless whenever it is an
            // expression we can check.
            let exp_dim = dim_eval(exponent, ctx)?;
            if !exp_dim.matches(&Dim::dimensionless()) {
                return Err(mismatch(e, exp_dim, InferredDim::dimensionless()));
            }
            if b.polymorphic || b.dim.is_dimensionless() {
                return Ok(if b.polymorphic {
                    InferredDim::any()
                } else {
                    InferredDim::dimensionless()
                });
            }
            // Dimensionful base: the exponent must be a numeric literal so
            // the result dimension is static.
            let Some(v) = exponent.as_num() else {
                return Err(DimEvalError::NonNumericExponent(e.to_string()));
            };
            if v.fract() == 0.0 && v.abs() <= i32::MAX as f64 {
                Ok(InferredDim::of(b.dim.pow(Rat::int(v as i64))))
            } else if (2.0 * v).fract() == 0.0 && v.abs() <= i32::MAX as f64 {
                // Half-integer powers (sqrt and friends).
                Ok(InferredDim::of(b.dim.pow(Rat::new((2.0 * v) as i64, 2))))
            } else {
                Err(DimEvalError::FractionalPower(e.to_string()))
            }
        }
        Expr::Call { name, args } => {
            let unary = |args: &[ExprRef]| -> Result<InferredDim, DimEvalError> {
                if args.len() != 1 {
                    return Err(DimEvalError::UnknownFunction(name.clone()));
                }
                dim_eval(&args[0], ctx)
            };
            match name.as_str() {
                "exp" | "log" | "sin" | "cos" | "sinh" | "cosh" | "tanh" => {
                    let a = unary(args)?;
                    if !a.matches(&Dim::dimensionless()) {
                        return Err(DimEvalError::TranscendentalArg {
                            func: name.clone(),
                            arg: a.dim,
                            context: e.to_string(),
                        });
                    }
                    Ok(InferredDim::dimensionless())
                }
                "sqrt" => {
                    let a = unary(args)?;
                    Ok(if a.polymorphic {
                        a
                    } else {
                        InferredDim::of(a.dim.pow(Rat::new(1, 2)))
                    })
                }
                "abs" => unary(args),
                "min" | "max" if args.len() == 2 => unify_all(e, args, ctx),
                _ => {
                    let mut ds = Vec::with_capacity(args.len());
                    for a in args {
                        ds.push(dim_eval(a, ctx)?);
                    }
                    ctx.call_dim(name, &ds)
                        .ok_or_else(|| DimEvalError::UnknownFunction(name.clone()))
                }
            }
        }
        Expr::Cmp(_, a, b) => {
            let x = dim_eval(a, ctx)?;
            let y = dim_eval(b, ctx)?;
            if x.unify(y).is_none() {
                return Err(mismatch(e, x, y));
            }
            Ok(InferredDim::dimensionless())
        }
        Expr::Conditional {
            test,
            if_true,
            if_false,
        } => {
            dim_eval(test, ctx)?;
            let t = dim_eval(if_true, ctx)?;
            let f = dim_eval(if_false, ctx)?;
            t.unify(f).ok_or_else(|| mismatch(e, t, f))
        }
        Expr::Vector(components) => unify_all(e, components, ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::collections::HashMap;

    struct Units(HashMap<String, Dim>);

    impl UnitContext for Units {
        fn symbol_dim(&self, name: &str) -> Option<Dim> {
            self.0.get(name).copied()
        }
    }

    fn ctx(pairs: &[(&str, &str)]) -> Units {
        Units(
            pairs
                .iter()
                .map(|(k, spec)| (k.to_string(), Dim::parse(spec).unwrap()))
                .collect(),
        )
    }

    #[test]
    fn parses_base_and_derived_units() {
        assert!(Dim::parse("1").unwrap().is_dimensionless());
        assert_eq!(Dim::parse("W/m^2").unwrap(), Dim::parse("kg/s^3").unwrap());
        assert_eq!(Dim::parse("J/s").unwrap(), Dim::parse("W").unwrap());
        assert_eq!(Dim::parse("1/s").unwrap(), Dim::parse("Hz").unwrap());
        assert_eq!(Dim::parse("N/m^2").unwrap(), Dim::parse("Pa").unwrap());
        assert!(Dim::parse("furlong").is_err());
        assert!(Dim::parse("").is_err());
        assert!(Dim::parse("m^x").is_err());
    }

    #[test]
    fn display_is_canonical_base_form() {
        assert_eq!(Dim::parse("W/m^2").unwrap().to_string(), "kg s^-3");
        assert_eq!(Dim::parse("m/s").unwrap().to_string(), "m s^-1");
        assert_eq!(Dim::parse("1").unwrap().to_string(), "1");
    }

    #[test]
    fn sqrt_introduces_rational_exponents() {
        let d = Dim::parse("m").unwrap().pow(Rat::new(1, 2));
        assert_eq!(d.to_string(), "m^1/2");
        assert_eq!(d.mul(d), Dim::parse("m").unwrap());
    }

    #[test]
    fn bte_volume_term_checks() {
        // (Io - I) * beta : W/m^2 * 1/s = kg s^-4.
        let e = parse("(Io[b] - I[d,b]) * beta[b]").unwrap();
        let c = ctx(&[("Io", "W/m^2"), ("I", "W/m^2"), ("beta", "1/s")]);
        let d = dim_eval(&e, &c).unwrap();
        assert!(d.matches(&Dim::parse("W/m^2/s").unwrap()));
    }

    #[test]
    fn addition_of_unequal_dims_is_a_mismatch() {
        let e = parse("a + b").unwrap();
        let c = ctx(&[("a", "W/m^2"), ("b", "W/m^3")]);
        assert!(matches!(
            dim_eval(&e, &c),
            Err(DimEvalError::Mismatch { .. })
        ));
    }

    #[test]
    fn zero_literal_is_polymorphic() {
        let c = ctx(&[("a", "W/m^2")]);
        let e = parse("a + 0").unwrap();
        let d = dim_eval(&e, &c).unwrap();
        assert!(d.matches(&Dim::parse("W/m^2").unwrap()));
        // Comparison against the literal zero is fine too.
        let cmp = parse("a > 0").unwrap();
        assert!(dim_eval(&cmp, &c).is_ok());
        // ...but against a dimensionless non-zero literal it is not.
        let bad = parse("a > 1").unwrap();
        assert!(matches!(
            dim_eval(&bad, &c),
            Err(DimEvalError::Mismatch { .. })
        ));
    }

    #[test]
    fn transcendental_demands_dimensionless() {
        let c = ctx(&[("T", "K"), ("x", "1")]);
        assert!(dim_eval(&parse("exp(x)").unwrap(), &c).is_ok());
        let err = dim_eval(&parse("exp(T)").unwrap(), &c).unwrap_err();
        assert!(matches!(err, DimEvalError::TranscendentalArg { func, .. } if func == "exp"));
    }

    #[test]
    fn division_and_powers_shift_dimensions() {
        let c = ctx(&[("vg", "m/s"), ("L", "m")]);
        // vg / L : 1/s.
        let d = dim_eval(&parse("vg / L").unwrap(), &c).unwrap();
        assert!(d.matches(&Dim::parse("1/s").unwrap()));
        // sqrt(L^2) : m.
        let s = dim_eval(&parse("sqrt(L^2)").unwrap(), &c).unwrap();
        assert!(s.matches(&Dim::parse("m").unwrap()));
        // L^x with symbolic exponent over a dimensionful base is rejected.
        let c2 = ctx(&[("L", "m"), ("x", "1")]);
        assert!(matches!(
            dim_eval(&parse("L^x").unwrap(), &c2),
            Err(DimEvalError::NonNumericExponent(_))
        ));
    }

    #[test]
    fn undeclared_symbol_is_reported() {
        let c = ctx(&[]);
        assert_eq!(
            dim_eval(&parse("mystery").unwrap(), &c),
            Err(DimEvalError::UndeclaredSymbol("mystery".into()))
        );
    }

    #[test]
    fn conditional_branches_must_agree() {
        let c = ctx(&[("a", "W/m^2"), ("b", "W/m^3"), ("x", "1")]);
        assert!(matches!(
            dim_eval(&parse("conditional(x > 0, a, b)").unwrap(), &c),
            Err(DimEvalError::Mismatch { .. })
        ));
        let ok = dim_eval(&parse("conditional(x > 0, a, 0)").unwrap(), &c).unwrap();
        assert!(ok.matches(&Dim::parse("W/m^2").unwrap()));
    }

    #[test]
    fn custom_call_transfer_through_context() {
        struct CellCtx(Units);
        impl UnitContext for CellCtx {
            fn symbol_dim(&self, name: &str) -> Option<Dim> {
                self.0.symbol_dim(name)
            }
            fn call_dim(&self, name: &str, args: &[InferredDim]) -> Option<InferredDim> {
                // Face sampling passes the argument's dimension through.
                (matches!(name, "CELL1" | "CELL2") && args.len() == 1).then(|| args[0])
            }
        }
        let c = CellCtx(ctx(&[("I", "W/m^2")]));
        let d = dim_eval(&parse("CELL1(I[d,b])").unwrap(), &c).unwrap();
        assert!(d.matches(&Dim::parse("W/m^2").unwrap()));
        let plain = ctx(&[("I", "W/m^2")]);
        assert!(matches!(
            dim_eval(&parse("CELL1(I[d,b])").unwrap(), &plain),
            Err(DimEvalError::UnknownFunction(_))
        ));
    }
}
