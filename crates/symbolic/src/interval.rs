//! Interval arithmetic for the numeric-safety abstract interpreter.
//!
//! An [`Interval`] is a closed range `[lo, hi]` of finite `f64` values.
//! Every arithmetic operation widens its result outward by one ulp in each
//! direction ([`Interval::widen`]), so results remain sound under any
//! rounding mode the concrete kernels may use — the directed-rounding trick
//! without changing the FPU state.
//!
//! Fallible operations ([`Interval::recip`], [`Interval::log`],
//! [`Interval::sqrt`], [`Interval::pow`]) return an [`IntervalError`] when
//! the input interval reaches outside the operation's domain: dividing by an
//! interval containing zero, taking the logarithm of a range touching the
//! non-positive axis, and so on. Overflow to infinity (or a NaN produced by
//! an indeterminate corner such as `0 * inf`) is reported by
//! [`Interval::is_finite`] turning false; the abstract interpreter in the
//! DSL core checks it after every step.

use std::fmt;

/// A closed interval of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

/// Failure of an interval operation: the input reaches outside the
/// operation's mathematical domain.
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalError {
    /// Reciprocal / division by an interval containing zero.
    DivByZero,
    /// A function applied outside its domain (`log` of a non-positive
    /// range, `sqrt` of a negative range, fractional power of a negative
    /// base). The payload names the function.
    Domain(&'static str),
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::DivByZero => write!(f, "division by an interval containing zero"),
            IntervalError::Domain(func) => write!(f, "`{func}` applied outside its domain"),
        }
    }
}

impl std::error::Error for IntervalError {}

/// Largest `f64` strictly below `x` (identity on infinities and NaN).
fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return x;
    }
    if x == 0.0 {
        return -f64::from_bits(1);
    }
    let bits = x.to_bits();
    f64::from_bits(if x > 0.0 { bits - 1 } else { bits + 1 })
}

/// Largest `f64` strictly above `x` (identity on infinities and NaN).
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    f64::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
}

fn min4(a: f64, b: f64, c: f64, d: f64) -> f64 {
    a.min(b).min(c.min(d))
}

fn max4(a: f64, b: f64, c: f64, d: f64) -> f64 {
    a.max(b).max(c.max(d))
}

// Arithmetic is exposed as inherent methods, not `std::ops` traits, so
// fallible ops (`recip`, `div`, `log`, …) and infallible ones read the
// same at call sites in the abstract interpreters.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The interval `[lo, hi]`. Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(
            !lo.is_nan() && !hi.is_nan() && lo <= hi,
            "invalid interval [{lo}, {hi}]"
        );
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// A canonical non-finite interval, used to propagate overflow.
    pub fn nan() -> Interval {
        Interval {
            lo: f64::NAN,
            hi: f64::NAN,
        }
    }

    /// Both bounds are finite (no overflow, no NaN has been produced).
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// True when `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// True when the interval contains zero.
    pub fn contains_zero(&self) -> bool {
        self.contains(0.0)
    }

    /// Outward widening by one ulp per bound: the directed-rounding guard
    /// applied after every inexact operation.
    pub fn widen(self) -> Interval {
        if self.lo.is_nan() || self.hi.is_nan() {
            return Interval::nan();
        }
        Interval {
            lo: next_down(self.lo),
            hi: next_up(self.hi),
        }
    }

    /// Smallest interval containing both `self` and `other` (join).
    pub fn hull(self, other: Interval) -> Interval {
        if self.lo.is_nan() || other.lo.is_nan() {
            return Interval::nan();
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// `self + other`, widened.
    pub fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
        .widen()
    }

    /// `-self` (exact; no widening needed).
    pub fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// `self - other`, widened.
    pub fn sub(self, other: Interval) -> Interval {
        self.add(other.neg())
    }

    /// `self * other`, widened. A NaN corner (e.g. `0 * inf`) collapses to
    /// the canonical non-finite interval.
    pub fn mul(self, other: Interval) -> Interval {
        let corners = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        if corners.iter().any(|c| c.is_nan()) {
            return Interval::nan();
        }
        Interval {
            lo: min4(corners[0], corners[1], corners[2], corners[3]),
            hi: max4(corners[0], corners[1], corners[2], corners[3]),
        }
        .widen()
    }

    /// `1 / self`, widened; error when the interval contains zero.
    pub fn recip(self) -> Result<Interval, IntervalError> {
        if self.contains_zero() {
            return Err(IntervalError::DivByZero);
        }
        Ok(Interval {
            lo: 1.0 / self.hi,
            hi: 1.0 / self.lo,
        }
        .widen())
    }

    /// `self / other`, widened; error when `other` contains zero.
    pub fn div(self, other: Interval) -> Result<Interval, IntervalError> {
        Ok(self.mul(other.recip()?))
    }

    /// `self^n` for an integer exponent, widened. Negative exponents
    /// require an interval not containing zero.
    pub fn powi(self, n: i32) -> Result<Interval, IntervalError> {
        if n == 0 {
            return Ok(Interval::point(1.0));
        }
        if n < 0 {
            return self.powi(-n)?.recip();
        }
        let (a, b) = (self.lo.powi(n), self.hi.powi(n));
        let out = if n % 2 == 1 {
            // Odd powers are monotone.
            Interval { lo: a, hi: b }
        } else if self.lo >= 0.0 {
            Interval { lo: a, hi: b }
        } else if self.hi <= 0.0 {
            Interval { lo: b, hi: a }
        } else {
            // Straddles zero: minimum at 0, maximum at the wider corner.
            Interval {
                lo: 0.0,
                hi: a.max(b),
            }
        };
        Ok(out.widen())
    }

    /// `self^exp` for an interval exponent, widened.
    ///
    /// Handled cases: point integer exponents (via [`Interval::powi`]),
    /// and strictly-positive bases (monotone corner analysis through
    /// `exp(y ln x)`). A non-integer or non-point exponent over a base
    /// reaching `<= 0` is a domain error.
    pub fn pow(self, exp: Interval) -> Result<Interval, IntervalError> {
        if exp.lo == exp.hi && exp.lo.fract() == 0.0 && exp.lo.abs() <= i32::MAX as f64 {
            return self.powi(exp.lo as i32);
        }
        if self.lo > 0.0 {
            let corners = [
                self.lo.powf(exp.lo),
                self.lo.powf(exp.hi),
                self.hi.powf(exp.lo),
                self.hi.powf(exp.hi),
            ];
            if corners.iter().any(|c| c.is_nan()) {
                return Ok(Interval::nan());
            }
            return Ok(Interval {
                lo: min4(corners[0], corners[1], corners[2], corners[3]),
                hi: max4(corners[0], corners[1], corners[2], corners[3]),
            }
            .widen());
        }
        Err(IntervalError::Domain("pow"))
    }

    /// `exp(self)`, widened. Overflow shows up as a non-finite bound.
    pub fn exp(self) -> Interval {
        Interval {
            lo: self.lo.exp(),
            hi: self.hi.exp(),
        }
        .widen()
    }

    /// `ln(self)`, widened; error unless the interval is strictly positive.
    pub fn log(self) -> Result<Interval, IntervalError> {
        if self.lo <= 0.0 {
            return Err(IntervalError::Domain("log"));
        }
        Ok(Interval {
            lo: self.lo.ln(),
            hi: self.hi.ln(),
        }
        .widen())
    }

    /// `sqrt(self)`, widened; error when the interval reaches below zero.
    pub fn sqrt(self) -> Result<Interval, IntervalError> {
        if self.lo < 0.0 {
            return Err(IntervalError::Domain("sqrt"));
        }
        Ok(Interval {
            lo: self.lo.sqrt(),
            hi: self.hi.sqrt(),
        }
        .widen())
    }

    /// `|self|` (exact).
    pub fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Interval {
                lo: 0.0,
                hi: self.hi.max(-self.lo),
            }
        }
    }

    /// `sin(self)`: the trivially sound envelope `[-1, 1]` (sufficient for
    /// safety proofs; no need for quadrant analysis).
    pub fn sin(self) -> Interval {
        Interval { lo: -1.0, hi: 1.0 }
    }

    /// `cos(self)`: the trivially sound envelope `[-1, 1]`.
    pub fn cos(self) -> Interval {
        Interval { lo: -1.0, hi: 1.0 }
    }

    /// `sinh(self)`, widened (monotone; overflow yields non-finite bounds).
    pub fn sinh(self) -> Interval {
        Interval {
            lo: self.lo.sinh(),
            hi: self.hi.sinh(),
        }
        .widen()
    }

    /// `cosh(self)`, widened.
    pub fn cosh(self) -> Interval {
        let (a, b) = (self.lo.cosh(), self.hi.cosh());
        if self.contains_zero() {
            Interval {
                lo: 1.0,
                hi: a.max(b),
            }
        } else {
            Interval {
                lo: a.min(b),
                hi: a.max(b),
            }
        }
        .widen()
    }

    /// `tanh(self)`, widened (monotone, bounded).
    pub fn tanh(self) -> Interval {
        Interval {
            lo: self.lo.tanh(),
            hi: self.hi.tanh(),
        }
        .widen()
    }
}

/// Each bound as its shortest round-trip value in exponent form, so a
/// bound near the edge of the `f64` range prints in a few characters.
impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:e}, {:e}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_print_short_and_round_trip() {
        let i = Interval {
            lo: -f64::INFINITY,
            hi: 6.5354628640061e-309,
        };
        assert_eq!(i.to_string(), "[-inf, 6.5354628640061e-309]");
        let i = Interval { lo: 0.0, hi: 1.5 };
        assert_eq!(i.to_string(), "[0e0, 1.5e0]");
        let x = 0.1 + 0.2;
        let shown = Interval::point(x).to_string();
        let lo = shown[1..].split(',').next().unwrap();
        assert_eq!(lo.parse::<f64>().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn widening_is_outward() {
        let w = Interval::point(1.0).widen();
        assert!(w.lo < 1.0 && w.hi > 1.0);
        // Widening around zero crosses to the other sign.
        let z = Interval::point(0.0).widen();
        assert!(z.lo < 0.0 && z.hi > 0.0);
    }

    #[test]
    fn arithmetic_is_sound() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-3.0, 0.5);
        let s = a.add(b);
        assert!(s.lo <= -2.0 && s.hi >= 2.5);
        let p = a.mul(b);
        assert!(p.lo <= -6.0 && p.hi >= 1.0);
        let q = a.recip().unwrap();
        assert!(q.lo <= 0.5 && q.hi >= 1.0);
    }

    #[test]
    fn division_by_zero_interval_is_an_error() {
        assert_eq!(
            Interval::new(-1.0, 1.0).recip(),
            Err(IntervalError::DivByZero)
        );
        assert_eq!(Interval::point(0.0).recip(), Err(IntervalError::DivByZero));
        assert!(Interval::new(0.5, 1.0).recip().is_ok());
    }

    #[test]
    fn even_powers_straddling_zero_start_at_zero() {
        let p = Interval::new(-2.0, 3.0).powi(2).unwrap();
        assert!(p.lo <= 0.0 && (0.0 - p.lo).abs() < 1e-300);
        assert!(p.hi >= 9.0);
        let o = Interval::new(-2.0, 3.0).powi(3).unwrap();
        assert!(o.lo <= -8.0 && o.hi >= 27.0);
    }

    #[test]
    fn domain_errors_fire() {
        assert_eq!(
            Interval::new(-1.0, 2.0).log(),
            Err(IntervalError::Domain("log"))
        );
        assert_eq!(
            Interval::new(-1.0, 2.0).sqrt(),
            Err(IntervalError::Domain("sqrt"))
        );
        assert_eq!(
            Interval::new(-1.0, 2.0).pow(Interval::point(0.5)),
            Err(IntervalError::Domain("pow"))
        );
    }

    #[test]
    fn overflow_is_visible_as_non_finite() {
        let huge = Interval::point(1e308);
        assert!(!huge.mul(huge).is_finite());
        assert!(!Interval::point(1000.0).exp().is_finite());
        assert!(Interval::point(1.0).exp().is_finite());
    }
}
