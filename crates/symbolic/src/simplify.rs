//! Algebraic simplification.
//!
//! `simplify` rewrites an expression into a canonical form:
//!
//! * nested sums/products are flattened;
//! * numeric subterms are folded (`2*3*x` → `6*x`);
//! * like terms are collected in sums (`x + 2*x` → `3*x`) and equal bases
//!   merged in products (`x*x^2` → `x^3`);
//! * identity elements are removed and absorbing elements applied
//!   (`x*0` → `0`, `x^1` → `x`);
//! * terms/factors are put into the deterministic canonical order, so two
//!   algebraically identical inputs print identically.
//!
//! The pass is idempotent: `simplify(simplify(e))` is structurally equal to
//! `simplify(e)` (exercised by property tests).

use crate::expr::{Expr, ExprRef};
use std::sync::Arc as Rc;

/// Simplify an expression into canonical form.
pub fn simplify(e: &ExprRef) -> ExprRef {
    e.map(&mut simplify_node)
}

fn simplify_node(e: ExprRef) -> ExprRef {
    match e.as_ref() {
        Expr::Add(_) => simplify_add(e),
        Expr::Mul(_) => simplify_mul(e),
        Expr::Pow(..) => simplify_pow(e),
        Expr::Conditional { .. } => simplify_conditional(e),
        Expr::Call { .. } => simplify_call(e),
        _ => e,
    }
}

/// Split a term into `(numeric coefficient, symbolic rest)`.
/// `3*x*y` → `(3, x*y)`; `x` → `(1, x)`; `5` → `(5, 1)`.
fn split_coefficient(term: &ExprRef) -> (f64, ExprRef) {
    match term.as_ref() {
        Expr::Num(v) => (*v, Expr::num(1.0)),
        Expr::Mul(factors) => {
            let mut coeff = 1.0;
            let mut rest: Vec<ExprRef> = Vec::with_capacity(factors.len());
            for f in factors {
                if let Some(v) = f.as_num() {
                    coeff *= v;
                } else {
                    rest.push(Rc::clone(f));
                }
            }
            (coeff, Expr::mul(rest))
        }
        _ => (1.0, Rc::clone(term)),
    }
}

/// Split a factor into `(base, exponent)`: `x^3` → `(x, 3)`, `x` → `(x, 1)`.
fn split_power(factor: &ExprRef) -> (ExprRef, ExprRef) {
    match factor.as_ref() {
        Expr::Pow(b, e) => (Rc::clone(b), Rc::clone(e)),
        _ => (Rc::clone(factor), Expr::num(1.0)),
    }
}

fn simplify_add(e: ExprRef) -> ExprRef {
    let terms = match e.as_ref() {
        Expr::Add(t) => t,
        _ => return e,
    };
    // Flatten nested sums (children are already simplified bottom-up).
    let mut flat: Vec<ExprRef> = Vec::with_capacity(terms.len());
    for t in terms {
        match t.as_ref() {
            Expr::Add(inner) => flat.extend(inner.iter().cloned()),
            _ => flat.push(Rc::clone(t)),
        }
    }
    // Collect like terms keyed by the symbolic rest.
    let mut constant = 0.0;
    let mut collected: Vec<(ExprRef, f64)> = Vec::new();
    for t in &flat {
        let (coeff, rest) = split_coefficient(t);
        if rest.is_num(1.0) {
            constant += coeff;
            continue;
        }
        match collected.iter_mut().find(|(r, _)| r.structurally_eq(&rest)) {
            Some((_, c)) => *c += coeff,
            None => collected.push((rest, coeff)),
        }
    }
    let mut out: Vec<ExprRef> = Vec::with_capacity(collected.len() + 1);
    for (rest, coeff) in collected {
        if coeff == 0.0 {
            continue;
        }
        if coeff == 1.0 {
            out.push(rest);
        } else {
            out.push(rebuild_mul(coeff, rest));
        }
    }
    out.sort_by(|a, b| a.canonical_cmp(b));
    if constant != 0.0 || out.is_empty() {
        out.insert(0, Expr::num(constant));
    }
    Expr::add(out)
}

/// Build `coeff * rest` keeping the product flat.
fn rebuild_mul(coeff: f64, rest: ExprRef) -> ExprRef {
    match rest.as_ref() {
        Expr::Mul(factors) => {
            let mut all = Vec::with_capacity(factors.len() + 1);
            all.push(Expr::num(coeff));
            all.extend(factors.iter().cloned());
            Expr::mul(all)
        }
        _ => Expr::mul(vec![Expr::num(coeff), rest]),
    }
}

fn simplify_mul(e: ExprRef) -> ExprRef {
    let factors = match e.as_ref() {
        Expr::Mul(f) => f,
        _ => return e,
    };
    // Flatten nested products.
    let mut flat: Vec<ExprRef> = Vec::with_capacity(factors.len());
    for f in factors {
        match f.as_ref() {
            Expr::Mul(inner) => flat.extend(inner.iter().cloned()),
            _ => flat.push(Rc::clone(f)),
        }
    }
    // Fold numbers; merge equal bases.
    let mut coeff = 1.0;
    let mut bases: Vec<(ExprRef, Vec<ExprRef>)> = Vec::new();
    for f in &flat {
        if let Some(v) = f.as_num() {
            coeff *= v;
            continue;
        }
        let (base, exponent) = split_power(f);
        match bases.iter_mut().find(|(b, _)| b.structurally_eq(&base)) {
            Some((_, exps)) => exps.push(exponent),
            None => bases.push((base, vec![exponent])),
        }
    }
    if coeff == 0.0 {
        return Expr::num(0.0);
    }
    let mut out: Vec<ExprRef> = Vec::with_capacity(bases.len() + 1);
    for (base, exps) in bases {
        let total = simplify_add(Expr::add(exps));
        let factor = simplify_pow(Expr::pow(base, total));
        if factor.is_num(1.0) {
            continue;
        }
        if let Some(v) = factor.as_num() {
            coeff *= v;
            continue;
        }
        out.push(factor);
    }
    out.sort_by(|a, b| a.canonical_cmp(b));
    if coeff != 1.0 || out.is_empty() {
        out.insert(0, Expr::num(coeff));
    }
    Expr::mul(out)
}

fn simplify_pow(e: ExprRef) -> ExprRef {
    let (base, exponent) = match e.as_ref() {
        Expr::Pow(b, x) => (b, x),
        _ => return e,
    };
    if exponent.is_num(0.0) {
        return Expr::num(1.0);
    }
    if exponent.is_num(1.0) {
        return Rc::clone(base);
    }
    if base.is_num(1.0) {
        return Expr::num(1.0);
    }
    if let (Some(b), Some(x)) = (base.as_num(), exponent.as_num()) {
        // Fold only when the result is a finite real (avoid (-2)^0.5).
        let v = b.powf(x);
        if v.is_finite() {
            return Expr::num(v);
        }
    }
    // (x^a)^b -> x^(a*b) when both exponents are numeric (always sound then).
    if let Expr::Pow(inner_base, inner_exp) = base.as_ref() {
        if let (Some(a), Some(b)) = (inner_exp.as_num(), exponent.as_num()) {
            return simplify_pow(Expr::pow(Rc::clone(inner_base), Expr::num(a * b)));
        }
    }
    e
}

fn simplify_conditional(e: ExprRef) -> ExprRef {
    let (test, if_true, if_false) = match e.as_ref() {
        Expr::Conditional {
            test,
            if_true,
            if_false,
        } => (test, if_true, if_false),
        _ => return e,
    };
    // Fold a decidable test.
    if let Expr::Cmp(op, a, b) = test.as_ref() {
        if let (Some(x), Some(y)) = (a.as_num(), b.as_num()) {
            return if op.apply(x, y) {
                Rc::clone(if_true)
            } else {
                Rc::clone(if_false)
            };
        }
    }
    // Both branches identical: the test is irrelevant.
    if if_true.structurally_eq(if_false) {
        return Rc::clone(if_true);
    }
    e
}

fn simplify_call(e: ExprRef) -> ExprRef {
    let (name, args) = match e.as_ref() {
        Expr::Call { name, args } => (name.as_str(), args),
        _ => return e,
    };
    if args.len() == 1 {
        if let Some(v) = args[0].as_num() {
            let folded = match name {
                "exp" => Some(v.exp()),
                "log" => (v > 0.0).then(|| v.ln()),
                "sin" => Some(v.sin()),
                "cos" => Some(v.cos()),
                "sqrt" => (v >= 0.0).then(|| v.sqrt()),
                "abs" => Some(v.abs()),
                "sinh" => Some(v.sinh()),
                "cosh" => Some(v.cosh()),
                "tanh" => Some(v.tanh()),
                _ => None,
            };
            if let Some(v) = folded {
                if v.is_finite() {
                    return Expr::num(v);
                }
            }
        }
    }
    e
}

/// Expand products over sums one level at a time until fixpoint:
/// `a*(b+c)` → `a*b + a*c`. Used by the DSL pipeline to separate terms before
/// classification. Conditionals and calls are treated as opaque factors.
pub fn expand(e: &ExprRef) -> ExprRef {
    let mut current = simplify(e);
    loop {
        let next = simplify(&current.map(&mut expand_node));
        if next.structurally_eq(&current) {
            return next;
        }
        current = next;
    }
}

/// Canonical structural equality: both sides are expanded to simplified
/// sum-of-products form and compared structurally. Because [`simplify`]
/// orders operands canonically, this equality is insensitive to operand
/// order and associativity — use a raw [`Expr::structurally_eq`] instead
/// when operand order itself is the property under test (e.g. bitwise
/// reproducibility proofs).
pub fn canonical_eq(a: &ExprRef, b: &ExprRef) -> bool {
    expand(a).structurally_eq(&expand(b))
}

fn expand_node(e: ExprRef) -> ExprRef {
    let factors = match e.as_ref() {
        Expr::Mul(f) => f,
        _ => return e,
    };
    let sum_pos = factors
        .iter()
        .position(|f| matches!(f.as_ref(), Expr::Add(_)));
    let Some(pos) = sum_pos else {
        return e;
    };
    let Expr::Add(sum_terms) = factors[pos].as_ref() else {
        unreachable!("position() found an Add");
    };
    let others: Vec<ExprRef> = factors
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != pos)
        .map(|(_, f)| Rc::clone(f))
        .collect();
    let new_terms = sum_terms
        .iter()
        .map(|t| {
            let mut fs = others.clone();
            fs.push(Rc::clone(t));
            Expr::mul(fs)
        })
        .collect();
    Expr::add(new_terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn canonical_eq_ignores_order_and_associativity() {
        let a = parse("x*(y+z)").unwrap();
        let b = parse("z*x + x*y").unwrap();
        assert!(canonical_eq(&a, &b));
        assert!(!a.structurally_eq(&b));
        assert!(!canonical_eq(&a, &parse("x*y + x*z + 1").unwrap()));
    }

    fn s(src: &str) -> ExprRef {
        simplify(&parse(src).unwrap())
    }

    #[test]
    fn folds_constants() {
        assert!(s("1 + 2 + 3").is_num(6.0));
        assert!(s("2 * 3 * 4").is_num(24.0));
        assert!(s("2^10").is_num(1024.0));
        assert!(s("6 / 3").is_num(2.0));
    }

    #[test]
    fn collects_like_terms() {
        assert!(s("x + x").structurally_eq(&s("2*x")));
        assert!(s("3*x - x").structurally_eq(&s("2*x")));
        assert!(s("x - x").is_num(0.0));
        assert!(s("2*x*y + 3*y*x").structurally_eq(&s("5*x*y")));
    }

    #[test]
    fn merges_equal_bases() {
        assert!(s("x * x").structurally_eq(&s("x^2")));
        assert!(s("x^2 * x^3").structurally_eq(&s("x^5")));
        assert!(s("x / x").is_num(1.0));
        assert!(s("x^2 / x").structurally_eq(&parse("x").unwrap()));
    }

    #[test]
    fn applies_identities() {
        assert!(s("x * 0").is_num(0.0));
        assert!(s("0 * surface(x)").is_num(0.0));
        let x = parse("x").unwrap();
        assert!(s("x * 1").structurally_eq(&x));
        assert!(s("x + 0").structurally_eq(&x));
        assert!(s("x^1").structurally_eq(&x));
        assert!(s("x^0").is_num(1.0));
        assert!(s("1^x").is_num(1.0));
    }

    #[test]
    fn does_not_fold_unsound_powers() {
        // (-2)^0.5 is not real; must stay symbolic.
        let e = s("(0-2)^0.5");
        assert!(e.as_num().is_none());
    }

    #[test]
    fn canonical_order_makes_commutative_forms_equal() {
        assert!(s("a + b").structurally_eq(&s("b + a")));
        assert!(s("a * b * c").structurally_eq(&s("c * b * a")));
    }

    #[test]
    fn folds_decidable_conditionals() {
        assert!(s("conditional(1 > 0, 5, 7)").is_num(5.0));
        assert!(s("conditional(1 < 0, 5, 7)").is_num(7.0));
        // Undecidable test survives.
        let e = s("conditional(a > 0, 5, 7)");
        assert!(matches!(e.as_ref(), Expr::Conditional { .. }));
    }

    #[test]
    fn conditional_with_equal_branches_collapses() {
        let e = s("conditional(a > 0, x+1, 1+x)");
        assert!(e.structurally_eq(&s("x+1")));
    }

    #[test]
    fn folds_pure_function_calls_on_literals() {
        assert!(s("exp(0)").is_num(1.0));
        assert!(s("sqrt(16)").is_num(4.0));
        assert!(s("abs(0-3)").is_num(3.0));
        // Unknown function survives.
        assert!(matches!(s("mystery(0)").as_ref(), Expr::Call { .. }));
        // log of nonpositive stays symbolic.
        assert!(matches!(s("log(0)").as_ref(), Expr::Call { .. }));
    }

    #[test]
    fn expand_distributes_products_over_sums() {
        let e = expand(&parse("a*(b+c)").unwrap());
        assert!(e.structurally_eq(&s("a*b + a*c")));
        let nested = expand(&parse("(a+b)*(c+d)").unwrap());
        assert!(nested.structurally_eq(&s("a*c + a*d + b*c + b*d")));
    }

    #[test]
    fn expand_keeps_calls_opaque() {
        let e = expand(&parse("(a+b)*surface(x+y)").unwrap());
        // surface(...) must not be torn apart, but the outer product expands.
        assert!(e.structurally_eq(&s("a*surface(x+y) + b*surface(x+y)")));
    }

    #[test]
    fn simplify_is_idempotent_on_samples() {
        for src in [
            "x + 2*x - y/3 + y",
            "(a+b)*(a-b)",
            "conditional(n > 0, v*u1, v*u2) * dt",
            "surface(vg*upwind([sx;sy], I)) - I*beta",
            "a^2 * a^-1 * b / b",
        ] {
            let once = s(src);
            let twice = simplify(&once);
            assert!(
                once.structurally_eq(&twice),
                "not idempotent on {src}: {once:?} vs {twice:?}"
            );
        }
    }

    #[test]
    fn no_like_term_collection_across_different_indices() {
        let e = s("I[d,b] + I[d,c]");
        // Two distinct indexed symbols: both survive.
        match e.as_ref() {
            Expr::Add(terms) => assert_eq!(terms.len(), 2),
            other => panic!("expected Add, got {other:?}"),
        }
        let f = s("I[d,b] + I[d,b]");
        assert!(f.structurally_eq(&s("2*I[d,b]")));
    }
}

#[test]
fn simplify_ordering_is_canonical() {
    // Numbers first, then symbols alphabetically.
    let e = simplify(&crate::parser::parse("z + 3 + a").unwrap());
    if let Expr::Add(terms) = e.as_ref() {
        assert!(terms[0].is_num(3.0));
        assert_eq!(terms[1].as_sym().unwrap().0, "a");
        assert_eq!(terms[2].as_sym().unwrap().0, "z");
    } else {
        panic!("expected Add");
    }
}
