//! Exact, order-independent accumulation of `f64` sums and dot products.
//!
//! The implicit integrators (`pbte_dsl::exec::implicit`) need Krylov
//! inner products whose *bits* do not depend on how the degrees of
//! freedom are partitioned: the same BiCGStab trajectory must fall out
//! of a sequential sweep, a rayon split, four cell-partitioned ranks or
//! a band-partitioned GPU run. The one value that qualifies is the exact
//! sum rounded once, to nearest (ties to even). It is obtained in two
//! tiers:
//!
//! 1. **A certified double-double dot, [`Dot2`]** (Ogita, Rump & Oishi,
//!    "Accurate sum and dot product", SIAM J. Sci. Comput. 26(6), 2005:
//!    their `Dot2`, with a rigorous error bound). Eight lanes accumulate
//!    error-free products and sums; closing them yields `hi + lo` and a
//!    bound on its distance from the exact sum. When that interval lies
//!    strictly inside the rounding interval of one double, the double is
//!    the exact sum's rounding, proven without knowing the sum: no tie and
//!    no other double is possible. Otherwise the dot *declines*. About
//!    1.1 ns per element with FMA and 3.0 ns with Dekker's split only,
//!    against 0.8 ns for a plain dot (276 480 elements, `reductions`
//!    group of the `kernels` bench, 2-core x86-64 guest). A rank sends
//!    four doubles per sum ([`Partial::to_row`]).
//! 2. **The limb superaccumulator, [`ExactAcc`]**, the fallback when a
//!    dot declines and the oracle in every test. It keeps a *complete*
//!    fixed-point image of the running sum, so it always has the answer:
//!
//!    * each double is decomposed via its bit pattern into an integer
//!      mantissa times a power of two and added into an array of signed
//!      base-2³² limbs spanning the entire double range (a small
//!      superaccumulator in the style of exact-BLAS reductions);
//!    * a product is the integer product of the two mantissas — 106
//!      bits, exact in a `u128` — added the same way, so products lose
//!      nothing (the two_prod split `hi + fma(a, b, −hi)` remains for
//!      products with bits below 2⁻¹⁰⁷⁴, which no double can hold);
//!    * limb arrays are order-independent by construction (integer adds
//!      commute), and after [`ExactAcc::renorm`] every limb fits in
//!      [−2³¹, 2³¹), so the limbs survive a round-trip through `f64` and
//!      an element-wise cross-rank sum over ≤ 2²⁰ ranks *exactly*
//!      (partial sums stay below 2⁵³): 71 doubles per sum on the wire;
//!    * [`ExactAcc::value`] rounds the canonical fixed-point image to the
//!      nearest double (ties to even) — one rounding for the whole sum.
//!
//! The limbs cost what exactness leaves: one multiply, one 128-bit shift
//! and five limb adds per non-zero product — about 5.8 ns each in a
//! 276 480-element dot with no zeros on a 2-core x86-64 guest, against
//! 0.7 ns for a plain dot. A zero product costs no decode and no limb
//! work: it returns on one compare. The Krylov operands of
//! `die3d_implicit` are 31–58 % exact zeros, and on operands shaped like
//! them (`exact_dot_276k_sparse`, 41 % zeros in runs) a limb dot costs
//! 4.7 ns per element; the certified dot costs the same on every element.
//!
//! Both tiers give `ExactAcc::value()`'s bits. A [`Dot2`] product outside
//! the range where its error term is exact (a product below 2⁻⁹⁰⁰ that
//! does not round to zero, an operand above 2⁹⁹⁵, NaN, ∞) marks the dot
//! uncertifiable, so those always take the limbs, with their poisoning
//! and two_prod semantics. A product that rounds to zero contributes
//! nothing in either tier.

/// Weight of limb `i` is `2^(LIMB_BASE + 32·i)`. The smallest magnitude
/// an addend can contribute is 2⁻¹⁰⁷⁴ (a subnormal `lo` term), so the
/// base sits one limb below; the largest is just under 2¹⁰²⁴ from `hi`
/// and needs bits up to ~2¹⁰⁷⁷ once carries pile up.
const LIMB_BASE: i32 = -1088;

/// Limbs covering 2⁻¹⁰⁸⁸ … 2^(−1088+32·68) = 2¹⁰⁸⁸, plus headroom for
/// carries out of the top during normalization.
pub const N_LIMBS: usize = 70;

/// Length of the `f64` transport image: the limbs plus one slot that
/// counts non-finite addends (so NaN/∞ poisoning survives reduction).
pub const TRANSPORT_LEN: usize = N_LIMBS + 1;

/// Renormalize after this many raw limb additions. `pending` counts
/// them: an `add` puts < 2³² on each of three limbs, an `add_prod` < 2³² on
/// each of five, and a `merge` is charged everything the other
/// accumulator had pending plus one for its balanced residue. Starting
/// from a transport image (≤ 2²⁰ ranks · 2³¹ = 2⁵¹ per limb), a limb holds
/// less than 2⁵¹ + 2·2²⁴·2³² < 2⁵⁸ ≪ i64::MAX even at the moment a merge
/// of two nearly-full accumulators triggers the renormalization.
const RENORM_EVERY: u32 = 1 << 24;

/// An exact superaccumulator for `f64` sums and dot products.
#[derive(Clone)]
pub struct ExactAcc {
    limbs: [i64; N_LIMBS],
    pending: u32,
    /// Count of non-finite addends seen (the sum is then NaN).
    nonfinite: u64,
}

impl Default for ExactAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactAcc {
    /// The empty sum.
    pub fn new() -> ExactAcc {
        ExactAcc {
            limbs: [0; N_LIMBS],
            pending: 0,
            nonfinite: 0,
        }
    }

    /// Add a single value exactly.
    pub fn add(&mut self, x: f64) {
        self.add_double(x);
    }

    /// Add the product `a·b` exactly.
    ///
    /// Both operands are decoded to integer mantissas (< 2⁵³) and
    /// exponents; one `u64×u64→u128` multiply is the exact 106-bit product
    /// `m·2^e2`, which lands on five limbs after a shift by
    /// `offset % 32`. A product whose exponent sum lies below −1074 has
    /// bits below 2⁻¹⁰⁷⁴, the smallest a double can hold: there the
    /// two_prod residual `fma(a, b, −hi)` itself rounds and that rounding
    /// defines the sum, so those products (and only those) keep the
    /// two_prod form, `add_two_prod`.
    ///
    /// A zero product returns before any decoding: a zero operand
    /// contributes nothing, and a product that rounds to zero has a
    /// residual that rounds to zero as well. `0 × ∞` is NaN, not zero, so
    /// it still poisons the sum.
    #[inline]
    pub fn add_prod(&mut self, a: f64, b: f64) {
        let hi = a * b;
        if hi == 0.0 {
            return;
        }
        if !hi.is_finite() {
            self.nonfinite += 1;
            return;
        }
        // `hi` finite ⇒ both operands finite: no all-ones exponent below.
        let (bits_a, bits_b) = (a.to_bits(), b.to_bits());
        let (xa, xb) = (exponent_field(bits_a), exponent_field(bits_b));
        // Two normal operands (mantissa = fraction | 2⁵², exponent =
        // field − 1075) whose exponent sum xa + xb − 2150 is at least
        // −1074; subnormals and tiny products go the long way.
        if xa == 0 || xb == 0 || xa + xb < 1076 {
            self.add_prod_rare(a, b, hi);
            return;
        }
        let p =
            (bits_a & FRACTION | IMPLICIT_BIT) as u128 * (bits_b & FRACTION | IMPLICIT_BIT) as u128;
        let offset = xa + xb - (2150 + LIMB_BASE) as u32;
        self.add_shifted(p, offset, (bits_a ^ bits_b) as i64 >> 63);
    }

    /// [`Self::add_prod`] for a subnormal operand or an exponent sum below
    /// −1074; `hi` is the finite, non-zero rounded product.
    #[cold]
    fn add_prod_rare(&mut self, a: f64, b: f64, hi: f64) {
        let (ma, ea) = decode(a.to_bits());
        let (mb, eb) = decode(b.to_bits());
        let e2 = ea + eb;
        if e2 < -1074 {
            self.add_two_prod(a, b, hi);
        } else {
            let sign = (a.to_bits() ^ b.to_bits()) as i64 >> 63;
            self.add_shifted(ma as u128 * mb as u128, (e2 - LIMB_BASE) as u32, sign);
        }
    }

    /// Add `±p · 2^(offset + LIMB_BASE)` for a mantissa product
    /// `p < 2¹⁰⁶`; `sign` is 0 or −1.
    #[inline(always)]
    fn add_shifted(&mut self, p: u128, offset: u32, sign: i64) {
        let q = (offset / 32) as usize;
        let r = offset % 32;
        // The rounded product is finite, so |a·b| < 2¹⁰²⁴: with normal
        // mantissas ≥ 2⁵² that is 2¹⁰⁴·2^e2 < 2¹⁰²⁴, e2 ≤ 919 (a
        // subnormal operand pins its exponent at −1074 and e2 far lower),
        // so offset = e2 + 1088 ≤ 2007 and q ≤ 62.
        debug_assert!(q + 5 <= N_LIMBS);
        // `p << r` is up to 137 bits wide: the low 128 come from one
        // wrapping shift, the nine that fall off the top from
        // `p >> (128 − r)`, spelled so the shift count stays in 1..=32.
        let v = p << r;
        let (v_lo, v_hi) = (v as u64, (v >> 64) as u64);
        let digits = [
            v_lo & 0xffff_ffff,
            v_lo >> 32,
            v_hi & 0xffff_ffff,
            v_hi >> 32,
            ((p >> 96) as u64) >> (32 - r),
        ];
        // Branch-free conditional negation of each digit.
        for (limb, &d) in self.limbs[q..q + 5].iter_mut().zip(&digits) {
            *limb += (d as i64 ^ sign) - sign;
        }
        self.pending += 1;
        if self.pending >= RENORM_EVERY {
            self.renorm();
        }
    }

    /// two_prod form of a product: `hi` is the rounded product and
    /// `lo = fma(a, b, −hi)` the residual, exact whenever it is
    /// representable. `add_prod` takes this form only below the −1074
    /// exponent sum; the tests use it as the oracle everywhere.
    fn add_two_prod(&mut self, a: f64, b: f64, hi: f64) {
        let lo = a.mul_add(b, -hi);
        self.add_double(hi);
        self.add_double(lo);
    }

    fn add_double(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        if !x.is_finite() {
            self.nonfinite += 1;
            return;
        }
        let bits = x.to_bits();
        let (m, e2) = decode(bits);
        let offset = (e2 - LIMB_BASE) as u32; // ≥ 0 by construction
        let q = (offset / 32) as usize;
        let r = offset % 32;
        let v = (m as u128) << r; // < 2^(53+32) = 2⁸⁵
        let neg = bits >> 63 == 1;
        debug_assert!(q + 2 < N_LIMBS);
        for (k, limb) in self.limbs[q..q + 3].iter_mut().enumerate() {
            let chunk = ((v >> (32 * k)) & 0xffff_ffff) as i64;
            *limb += if neg { -chunk } else { chunk };
        }
        self.pending += 1;
        if self.pending >= RENORM_EVERY {
            self.renorm();
        }
    }

    /// Balanced carry propagation: afterwards every limb lies in
    /// [−2³¹, 2³¹), the canonical transportable form.
    pub fn renorm(&mut self) {
        balance(&mut self.limbs);
        self.pending = 0;
    }

    /// Write the balanced limb image into an `f64` buffer for an
    /// element-wise cross-rank sum: every limb is an integer at most 2³¹
    /// in magnitude, so sums over ≤ 2²⁰ ranks stay below 2⁵³ and are
    /// exact.
    pub fn to_transport(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), TRANSPORT_LEN);
        self.renorm();
        for (o, &l) in out.iter_mut().zip(self.limbs.iter()) {
            *o = l as f64;
        }
        out[N_LIMBS] = self.nonfinite.min(1 << 20) as f64;
    }

    /// Rebuild an accumulator from a (possibly reduced) transport image.
    pub fn from_transport(buf: &[f64]) -> ExactAcc {
        assert_eq!(buf.len(), TRANSPORT_LEN);
        let mut acc = ExactAcc::new();
        for (l, &b) in acc.limbs.iter_mut().zip(buf.iter()) {
            *l = b as i64;
        }
        acc.nonfinite = buf[N_LIMBS] as u64;
        acc
    }

    /// Fold another accumulator in (exact merge).
    pub fn merge(&mut self, other: &ExactAcc) {
        for (a, &b) in self.limbs.iter_mut().zip(other.limbs.iter()) {
            *a += b;
        }
        self.nonfinite += other.nonfinite;
        // `other`'s limbs are raw: they carry all of its pending adds.
        self.pending = self.pending.saturating_add(other.pending).saturating_add(1);
        if self.pending >= RENORM_EVERY {
            self.renorm();
        }
    }

    /// Round the accumulated sum to the nearest `f64` (ties to even).
    /// One rounding for the entire sum; independent of addend order.
    pub fn value(&self) -> f64 {
        if self.nonfinite > 0 {
            return f64::NAN;
        }
        let mut limbs = self.limbs;
        // Balanced form first (the accumulator may hold raw adds).
        balance(&mut limbs);
        // Sign = sign of the most significant nonzero limb (lower limbs
        // cannot outweigh it: |Σ_{j<i} l_j·2^{32j}| < 2^{32i}).
        let top = match limbs.iter().rposition(|&l| l != 0) {
            Some(i) => i,
            None => return 0.0,
        };
        let negative = limbs[top] < 0;
        if negative {
            for l in limbs.iter_mut() {
                *l = -*l;
            }
            balance(&mut limbs);
        }
        // Non-negative canonical form: limbs in [0, 2³²).
        let mut carry: i64 = 0;
        for l in limbs.iter_mut() {
            let x = *l + carry;
            let r = x.rem_euclid(1 << 32);
            carry = (x - r) >> 32;
            *l = r;
        }
        debug_assert_eq!(carry, 0, "positive canonical form cannot carry out");
        let top = match limbs.iter().rposition(|&l| l != 0) {
            Some(i) => i,
            None => return 0.0,
        };
        // Assemble a 96-bit window below the top limb + sticky bit.
        let lo2 = if top >= 1 { limbs[top - 1] as u128 } else { 0 };
        let lo1 = if top >= 2 { limbs[top - 2] as u128 } else { 0 };
        let sticky_limbs = top.checked_sub(2).map(|n| &limbs[..n]).unwrap_or(&[]);
        let mut sticky = sticky_limbs.iter().any(|&l| l != 0);
        let acc: u128 = ((limbs[top] as u128) << 64) | (lo2 << 32) | lo1;
        // acc · 2^window_exp is the value (up to sticky bits below).
        let window_exp = LIMB_BASE + 32 * (top as i32 - 2);
        let nbits = 128 - acc.leading_zeros() as i32;
        // Keep 53 significand bits, round the rest half-to-even.
        let (mut keep, mut exp) = if nbits > 53 {
            let shift = (nbits - 53) as u32;
            let keep = (acc >> shift) as u64;
            let rem = acc & ((1u128 << shift) - 1);
            let half = 1u128 << (shift - 1);
            sticky |= rem & (half - 1) != 0;
            let round_up = rem > half || (rem == half && (sticky || keep & 1 == 1));
            (keep + round_up as u64, window_exp + shift as i32)
        } else {
            (acc as u64, window_exp)
        };
        // Rounding may have produced a 54-bit mantissa.
        if keep == 1u64 << 53 {
            keep >>= 1;
            exp += 1;
        }
        let sign = if negative { -1.0 } else { 1.0 };
        sign * ldexp(keep as f64, exp)
    }
}

const FRACTION: u64 = 0x000f_ffff_ffff_ffff;
const IMPLICIT_BIT: u64 = 1 << 52;

/// The biased 11-bit exponent field of a double's bit pattern.
#[inline]
fn exponent_field(bits: u64) -> u32 {
    (bits >> 52) as u32 & 0x7ff
}

/// `|x| = m · 2^e` with `m` an integer below 2⁵³, from the bit pattern of
/// a finite double: a subnormal has no implicit bit and the exponent of
/// the smallest normal.
fn decode(bits: u64) -> (u64, i32) {
    let x = exponent_field(bits);
    let implicit = if x == 0 { 0 } else { IMPLICIT_BIT };
    (bits & FRACTION | implicit, x.max(1) as i32 - 1075)
}

/// Balanced carry propagation on a raw limb array. A nonzero final carry
/// means the true sum overflows 2¹⁰⁸⁸ — far beyond f64 range — so the top
/// limb saturates; `value()` then rounds to ±∞ as an ordinary overflow
/// would.
fn balance(limbs: &mut [i64; N_LIMBS]) {
    let mut carry: i64 = 0;
    for limb in limbs.iter_mut() {
        let x = *limb + carry;
        let mut r = x.rem_euclid(1 << 32);
        if r >= 1 << 31 {
            r -= 1 << 32;
        }
        carry = (x - r) >> 32;
        *limb = r;
    }
    if carry != 0 {
        limbs[N_LIMBS - 1] = if carry > 0 {
            i64::MAX / 2
        } else {
            i64::MIN / 2
        };
    }
}

/// `m · 2^e` without libm: exact power-of-two scaling in ≤ 3 multiplies
/// (each factor is an exact power of two, so only the final multiply can
/// round — and it rounds exactly once, into the subnormal range or ±∞).
fn ldexp(m: f64, mut e: i32) -> f64 {
    let mut x = m;
    while e > 511 {
        x *= f64::from_bits(((511 + 1023) as u64) << 52);
        e -= 511;
    }
    while e < -511 {
        // 2⁻⁵¹¹ is a normal power of two; multiplying by it is exact
        // until the final step lands subnormal.
        x *= f64::from_bits(((-511 + 1023) as u64) << 52);
        e += 511;
    }
    x * f64::from_bits(((e + 1023) as u64) << 52)
}

/// Exact dot product of two equal-length slices (one rounding total).
pub fn exact_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut acc = ExactAcc::new();
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc.add_prod(x, y);
    }
    acc.value()
}

/// Exact sum of a slice (one rounding total).
pub fn exact_sum(xs: &[f64]) -> f64 {
    let mut acc = ExactAcc::new();
    for &x in xs {
        acc.add(x);
    }
    acc.value()
}

/// Independent `(hi, lo, err)` chains of a [`Dot2`]: element `i` of a
/// slice goes to lane `i % LANES`, so neighbouring additions do not wait
/// on each other.
const LANES: usize = 8;

/// The certifiable range. A non-zero product needs
/// `P_MIN ≤ |p| ≤ P_MAX` and operands of at most `X_MAX`: then
/// TwoProduct's error term is a double (no underflow below 2⁻¹⁰⁷⁴),
/// Dekker's split cannot overflow and the partial sums stay finite.
const P_MIN: f64 = pow2(-900);
const P_MAX: f64 = pow2(1000);
const X_MAX: f64 = pow2(995);

/// The unit roundoff, 2⁻⁵³.
const U: f64 = pow2(-53);

/// More elements than this in one dot and the γ bounds below lose their
/// simple form; the dot declines.
const MAX_TERMS: u64 = 1 << 40;

/// 2ᵉ for a normal exponent.
const fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Error-free sum: `s + q == a + b` exactly, `s = fl(a + b)` (Knuth's
/// branch-free form; exact for any finite inputs that do not overflow).
#[inline(always)]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let z = s - a;
    (s, (a - (s - z)) + (b - z))
}

/// The error `x·y − p` of the rounded product `p = fl(x·y)`: one fused
/// multiply-add, or Dekker's product of Veltkamp halves without FMA.
/// Both are exact for products in the certifiable range, so both
/// instantiations of [`Dot2`] produce the same bits there.
#[inline(always)]
fn product_error<const FMA: bool>(x: f64, y: f64, p: f64) -> f64 {
    if FMA {
        x.mul_add(y, -p)
    } else {
        let (x1, x2) = split(x);
        let (y1, y2) = split(y);
        x2 * y2 - (((p - x1 * y1) - x2 * y1) - x1 * y2)
    }
}

/// Veltkamp's split of `x` into two halves of at most 26 significant
/// bits each, `x == hi + lo`.
#[inline(always)]
fn split(x: f64) -> (f64, f64) {
    let c = 134_217_729.0 * x; // 2²⁷ + 1
    let hi = c - (c - x);
    (hi, x - hi)
}

/// `max` and `min` as one compare and select each, which vectorise;
/// `f64::max` also orders NaN, which the lanes catch anyway.
#[inline(always)]
fn larger(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

#[inline(always)]
fn smaller(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The next double above a non-negative `x` (∞ stays ∞; NaN stays NaN).
fn next_up(x: f64) -> f64 {
    if x.is_finite() {
        f64::from_bits(x.to_bits() + 1)
    } else {
        x
    }
}

/// An upper bound on `a + b` for `a, b ≥ 0`: the rounded sum's successor
/// lies above the exact sum. A zero sum is exact.
fn add_up(a: f64, b: f64) -> f64 {
    let s = a + b;
    if s == 0.0 {
        0.0
    } else {
        next_up(s)
    }
}

/// An upper bound on `a·b` for `a, b ≥ 0`, underflow included.
fn mul_up(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        next_up(a * b)
    }
}

/// An upper bound on `γₖ/(1 − γₖ) = k·u/(1 − 2k·u)` (γₖ = k·u/(1 − k·u)),
/// valid while `2k·u ≤ 1/2`; exact in `f64`.
fn gamma_ratio(k: u64) -> f64 {
    debug_assert!(k <= 4 * MAX_TERMS);
    2.0 * k as f64 * U
}

/// A certified dot product: a double-double accumulation with a rigorous
/// bound on its distance from the exact sum (see the module header).
///
/// Per element `p = x·y`, `e = x·y − p` exactly, `(hi, q) = TwoSum(hi,
/// p)`, `lo += q + e`, `err += |q| + |e|`. A product that rounds to zero
/// contributes nothing (`e` is forced to zero), as in [`ExactAcc`]. Any
/// other product outside the certifiable range makes the whole dot
/// decline in [`Dot2::partial`]; NaN and ∞ decline through the lanes
/// themselves.
#[derive(Clone)]
pub struct Dot2 {
    hi: [f64; LANES],
    lo: [f64; LANES],
    err: [f64; LANES],
    /// Largest operand magnitude of a non-zero product.
    x_max: [f64; LANES],
    /// Largest and smallest magnitude of a non-zero product.
    p_max: [f64; LANES],
    p_min: [f64; LANES],
    /// Elements added, over all lanes.
    n: u64,
}

impl Default for Dot2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Dot2 {
    /// The empty dot.
    pub fn new() -> Dot2 {
        Dot2 {
            hi: [0.0; LANES],
            lo: [0.0; LANES],
            err: [0.0; LANES],
            x_max: [0.0; LANES],
            p_max: [0.0; LANES],
            p_min: [f64::INFINITY; LANES],
            n: 0,
        }
    }

    /// Add `Σ a[i]·b[i]`.
    pub fn add_dot(&mut self, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "dot of unequal lengths");
        #[cfg(target_arch = "x86_64")]
        if fma_available() {
            // SAFETY: `fma_available` has just checked with
            // `is_x86_feature_detected!` that this CPU executes AVX2 and
            // FMA instructions, the only assumption `add_dot_fma` is
            // compiled with.
            unsafe { self.add_dot_fma(a, b) };
            return;
        }
        self.accumulate::<false>(a, b);
    }

    /// [`Self::accumulate`] compiled for AVX2 and FMA, where the error
    /// term is one fused multiply-add.
    ///
    /// # Safety
    ///
    /// The CPU must execute AVX2 and FMA instructions
    /// ([`fma_available`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn add_dot_fma(&mut self, a: &[f64], b: &[f64]) {
        self.accumulate::<true>(a, b);
    }

    /// The one loop behind both instantiations. The lanes are copied out
    /// so they live in registers for the whole slice.
    #[inline(always)]
    fn accumulate<const FMA: bool>(&mut self, a: &[f64], b: &[f64]) {
        let mut lanes = self.clone();
        let (xs, ys) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        let (x_rest, y_rest) = (xs.remainder(), ys.remainder());
        for (x, y) in xs.zip(ys) {
            for j in 0..LANES {
                lanes.step::<FMA>(j, x[j], y[j]);
            }
        }
        for (j, (&x, &y)) in x_rest.iter().zip(y_rest).enumerate() {
            lanes.step::<FMA>(j, x, y);
        }
        lanes.n += a.len() as u64;
        *self = lanes;
    }

    #[inline(always)]
    fn step<const FMA: bool>(&mut self, j: usize, x: f64, y: f64) {
        let p = x * y;
        let zero = p == 0.0;
        let e = if zero {
            0.0
        } else {
            product_error::<FMA>(x, y, p)
        };
        let (hi, q) = two_sum(self.hi[j], p);
        self.hi[j] = hi;
        self.lo[j] += q + e;
        self.err[j] += q.abs() + e.abs();
        // Range bookkeeping; a zero product leaves it alone.
        let xy = if zero { 0.0 } else { larger(x.abs(), y.abs()) };
        self.x_max[j] = larger(xy, self.x_max[j]);
        self.p_max[j] = larger(p.abs(), self.p_max[j]);
        let ap = if zero { f64::INFINITY } else { p.abs() };
        self.p_min[j] = smaller(ap, self.p_min[j]);
    }

    /// The lanes closed into one [`Partial`], or `None` when a product
    /// fell outside the certifiable range or anything overflowed.
    ///
    /// Lane `j` holds `hi + Σ(q + e)` exactly, with `lo` that inner sum
    /// rounded in at most `n + 1` additions per term: `|lo − Σ(q + e)| ≤
    /// γₙ₊₁·Σ(|q| + |e|) ≤ γₙ₊₁/(1 − γₙ₊₁)·err`, and `γ₂ₙ₊₂` is used.
    pub fn partial(&self) -> Option<Partial> {
        let in_range = (0..LANES)
            .all(|j| self.x_max[j] <= X_MAX && self.p_max[j] <= P_MAX && self.p_min[j] >= P_MIN);
        if !in_range || self.n > MAX_TERMS {
            return None;
        }
        let ratio = gamma_ratio(2 * self.n + 2);
        let lanes: [Partial; LANES] = std::array::from_fn(|j| Partial {
            hi: self.hi[j],
            lo: self.lo[j],
            err: mul_up(self.err[j], ratio),
        });
        Some(Partial::combine(&lanes)).filter(Partial::is_finite)
    }

    /// The exact sum rounded to nearest (ties to even) — bit for bit
    /// [`ExactAcc::value`] of the same products — when it can be proven;
    /// `None` when the dot declines.
    pub fn value(&self) -> Option<f64> {
        self.partial()?.certify()
    }
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    // Miri runs the portable instantiation.
    !cfg!(miri) && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// A share of a certified dot — a group of lanes, or one rank's: the
/// exact sum `S` of its products satisfies `|S − (hi + lo)| ≤ err`, with
/// `hi + lo` taken as a real sum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Partial {
    pub hi: f64,
    pub lo: f64,
    pub err: f64,
}

/// Doubles per sum in [`Partial::to_row`]: `hi`, `lo`, `err` and a flag
/// that is 1 when the share certifies.
pub const PARTIAL_LEN: usize = 4;

impl Partial {
    fn is_finite(&self) -> bool {
        self.hi.is_finite() && self.lo.is_finite() && self.err.is_finite()
    }

    /// Shares combined in the given order, the order every rank uses.
    /// The `hi`s are chained by TwoSum, whose errors `c` join the `lo`s
    /// in one rounded sum of `m = 2P − 1` terms; that rounding adds
    /// `γₘ₋₁·Σ(|c| + |lo|)`, bounded through the rounded sum of those
    /// magnitudes. Every bound is rounded upward.
    pub fn combine(parts: &[Partial]) -> Partial {
        let Some((first, rest)) = parts.split_first() else {
            return Partial {
                hi: 0.0,
                lo: 0.0,
                err: 0.0,
            };
        };
        let (mut hi, mut lo, mut width, mut err) = (first.hi, first.lo, first.lo.abs(), first.err);
        for part in rest {
            let (s, c) = two_sum(hi, part.hi);
            hi = s;
            lo = lo + c + part.lo;
            width += c.abs() + part.lo.abs();
            err = add_up(err, part.err);
        }
        let rounding = mul_up(width, gamma_ratio(2 * parts.len() as u64));
        Partial {
            hi,
            lo,
            err: add_up(err, rounding),
        }
    }

    /// The double the exact sum rounds to, when the bound proves it.
    ///
    /// `(t, r) = TwoSum(hi, lo)`, so `S = t + r + δ` with `|δ| ≤ err`.
    /// If `|r| + err` is below half the smaller gap next to `t`, `S` lies
    /// strictly inside `t`'s rounding interval: `t` is its rounding, with
    /// no tie possible. `t = 0` certifies only with `err = 0`, where
    /// `S = 0` exactly and the answer is `+0.0`.
    pub fn certify(self) -> Option<f64> {
        let (t, r) = two_sum(self.hi, self.lo);
        if !(t.is_finite() && r.is_finite() && self.err.is_finite()) {
            return None;
        }
        if t == 0.0 {
            return (self.err == 0.0).then_some(0.0);
        }
        let at = t.abs();
        let below = at - f64::from_bits(at.to_bits() - 1);
        let above = f64::from_bits(at.to_bits() + 1) - at; // ∞ above f64::MAX
                                                           // Halving is exact but for the smallest gap, which rounds to 0
                                                           // and declines; the rounded comparison is monotone, so it cannot
                                                           // pass where the exact one fails.
        let half = below.min(above) * 0.5;
        (r.abs() + self.err < half).then_some(t)
    }

    /// Write a rank's share of one sum into its row of a gather buffer:
    /// `[hi, lo, err, 1]`, or all zeros when the share declined.
    pub fn to_row(part: Option<Partial>, row: &mut [f64]) {
        let row: &mut [f64; PARTIAL_LEN] = row.try_into().expect("a row of PARTIAL_LEN doubles");
        *row = match part {
            Some(p) => [p.hi, p.lo, p.err, 1.0],
            None => [0.0; PARTIAL_LEN],
        };
    }

    /// The share [`Partial::to_row`] wrote, `None` if it declined.
    pub fn from_row(row: &[f64]) -> Option<Partial> {
        match *row {
            [hi, lo, err, 1.0] => Some(Partial { hi, lo, err }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn rand_f64(state: &mut u64, scale_bits: i32) -> f64 {
        let u = splitmix64(state);
        let mant = (u >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let e = (splitmix64(state) % (2 * scale_bits as u64 + 1)) as i32 - scale_bits;
        mant * f64::from_bits(((e + 1023) as u64) << 52)
    }

    #[test]
    fn singletons_round_trip() {
        let mut s = 42u64;
        for _ in 0..1000 {
            let x = rand_f64(&mut s, 600);
            let mut acc = ExactAcc::new();
            acc.add(x);
            assert_eq!(acc.value().to_bits(), x.to_bits(), "x = {x:e}");
        }
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324,
            -5e-324,
        ] {
            let mut acc = ExactAcc::new();
            acc.add(x);
            // −0.0 canonicalizes to +0.0; value equality is what we need.
            assert_eq!(acc.value(), x, "x = {x:e}");
        }
    }

    #[test]
    fn products_round_trip() {
        let mut s = 7u64;
        for _ in 0..1000 {
            let a = rand_f64(&mut s, 300);
            let b = rand_f64(&mut s, 300);
            let mut acc = ExactAcc::new();
            acc.add_prod(a, b);
            // hi + lo reassembled and rounded once = rounded product.
            let hi = a * b;
            let lo = a.mul_add(b, -hi);
            let mut reference = ExactAcc::new();
            reference.add(hi);
            reference.add(lo);
            assert_eq!(acc.value().to_bits(), reference.value().to_bits());
        }
    }

    #[test]
    fn exact_integer_dots() {
        // Integer-valued inputs: the exact result is computable in i128.
        let mut s = 3u64;
        for _ in 0..200 {
            let a: Vec<f64> = (0..64)
                .map(|_| (splitmix64(&mut s) % 2001) as f64 - 1000.0)
                .collect();
            let b: Vec<f64> = (0..64)
                .map(|_| (splitmix64(&mut s) % 2001) as f64 - 1000.0)
                .collect();
            let exact: i128 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as i128) * (y as i128))
                .sum();
            assert_eq!(exact_dot(&a, &b), exact as f64);
        }
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        assert_eq!(exact_sum(&[1e308, 1.0, -1e308]), 1.0);
        assert_eq!(exact_sum(&[3.0, 1e-300, -3.0]), 1e-300);
        let v = [1e200, 2.5, -1e200, 1e-100, -1e-100];
        assert_eq!(exact_sum(&v), 2.5);
    }

    #[test]
    fn ties_round_to_even() {
        let two53 = 9007199254740992.0; // 2⁵³
        assert_eq!(exact_sum(&[two53, 1.0]), two53); // halfway → even
        assert_eq!(exact_sum(&[two53, 3.0]), two53 + 4.0); // halfway → even (up)
        assert_eq!(exact_sum(&[two53, 1.0, 5e-324]), two53 + 2.0); // sticky breaks tie
        assert_eq!(exact_sum(&[-two53, -1.0]), -two53);
    }

    #[test]
    fn order_and_partition_invariance() {
        let mut s = 99u64;
        let a: Vec<f64> = (0..512).map(|_| rand_f64(&mut s, 400)).collect();
        let b: Vec<f64> = (0..512).map(|_| rand_f64(&mut s, 400)).collect();
        let forward = exact_dot(&a, &b);
        // Reversed order.
        let ar: Vec<f64> = a.iter().rev().copied().collect();
        let br: Vec<f64> = b.iter().rev().copied().collect();
        assert_eq!(forward.to_bits(), exact_dot(&ar, &br).to_bits());
        // Partitioned into 4 "ranks", merged through the f64 transport
        // image + element-wise summation (the cross-rank contract).
        let mut reduced = vec![0.0; TRANSPORT_LEN];
        for chunk in 0..4 {
            let lo = chunk * 128;
            let mut acc = ExactAcc::new();
            for i in lo..lo + 128 {
                acc.add_prod(a[i], b[i]);
            }
            let mut img = vec![0.0; TRANSPORT_LEN];
            acc.to_transport(&mut img);
            for (r, v) in reduced.iter_mut().zip(img) {
                *r += v;
            }
        }
        let merged = ExactAcc::from_transport(&reduced).value();
        assert_eq!(forward.to_bits(), merged.to_bits());
    }

    #[test]
    fn nonfinite_poisons_deterministically() {
        let mut acc = ExactAcc::new();
        acc.add(1.0);
        acc.add(f64::INFINITY);
        assert!(acc.value().is_nan());
        let mut img = vec![0.0; TRANSPORT_LEN];
        acc.to_transport(&mut img);
        assert!(ExactAcc::from_transport(&img).value().is_nan());
        let mut acc = ExactAcc::new();
        acc.add_prod(1e300, 1e300); // overflowing product
        assert!(acc.value().is_nan());
    }

    #[test]
    fn many_addends_trigger_renorm_safely() {
        let mut acc = ExactAcc::new();
        let mut total: i128 = 0;
        let mut s = 5u64;
        for _ in 0..reps(100_000) {
            let v = (splitmix64(&mut s) % 1_000_000) as i64 - 500_000;
            total += v as i128;
            acc.add(v as f64);
        }
        assert_eq!(acc.value(), total as f64);
    }

    #[test]
    fn merge_matches_transport_reduction() {
        let mut s = 11u64;
        let xs: Vec<f64> = (0..256).map(|_| rand_f64(&mut s, 500)).collect();
        let whole = exact_sum(&xs);
        let mut left = ExactAcc::new();
        let mut right = ExactAcc::new();
        for &x in &xs[..128] {
            left.add(x);
        }
        for &x in &xs[128..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(whole.to_bits(), left.value().to_bits());
    }

    /// The parent implementation of `add_prod`, kept as the oracle:
    /// two_prod splitting for every product.
    fn add_prod_oracle(acc: &mut ExactAcc, a: f64, b: f64) {
        let hi = a * b;
        if hi.is_finite() {
            acc.add_two_prod(a, b, hi);
        } else {
            acc.nonfinite += 1;
        }
    }

    fn transport(acc: &mut ExactAcc) -> Vec<f64> {
        let mut img = vec![0.0; TRANSPORT_LEN];
        acc.to_transport(&mut img);
        img
    }

    /// A double with a random 52-bit fraction, random sign and the given
    /// biased exponent field (0 = subnormal).
    fn with_exponent(state: &mut u64, exp_bits: u64) -> f64 {
        let u = splitmix64(state);
        f64::from_bits((u & (1 << 63)) | (exp_bits << 52) | (u >> 12))
    }

    #[test]
    fn integer_product_matches_two_prod_limb_for_limb() {
        let mut s = 0x5eed_u64;
        let mut fast = ExactAcc::new();
        let mut oracle = ExactAcc::new();
        let mut pairs = 0u32;
        let check = |fast: &mut ExactAcc, oracle: &mut ExactAcc, what: &str| {
            let (f, o) = (transport(fast), transport(oracle));
            for (k, (x, y)) in f.iter().zip(&o).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: transport slot {k}");
            }
        };
        let mut feed = |fast: &mut ExactAcc, oracle: &mut ExactAcc, a: f64, b: f64| {
            fast.add_prod(a, b);
            add_prod_oracle(oracle, a, b);
            pairs += 1;
            if pairs % 1000 == 0 {
                check(
                    fast,
                    oracle,
                    &format!("after {pairs} pairs (last {a:e} * {b:e})"),
                );
            }
        };
        // Magnitudes 2^±0 … 2^±1000, subnormals included, paired so that
        // most products are finite and some overflow or underflow.
        for scale in [0u64, 10, 100, 300, 520, 1000] {
            for _ in 0..reps(15_000) {
                let ea = 1023 + scale - splitmix64(&mut s) % (2 * scale + 1);
                let eb = 1023 + scale - splitmix64(&mut s) % (2 * scale + 1);
                let a = with_exponent(&mut s, ea.min(2046));
                let b = with_exponent(&mut s, eb.min(2046));
                feed(&mut fast, &mut oracle, a, b);
            }
        }
        // Subnormal operands against everything, and signed zeros.
        for _ in 0..reps(10_000) {
            let a = with_exponent(&mut s, 0);
            let eb = splitmix64(&mut s) % 2047;
            let b = with_exponent(&mut s, eb);
            feed(&mut fast, &mut oracle, a, b);
            feed(&mut fast, &mut oracle, b, a);
        }
        for z in [0.0, -0.0] {
            for _ in 0..reps(500) {
                let eb = splitmix64(&mut s) % 2047;
                let b = with_exponent(&mut s, eb);
                feed(&mut fast, &mut oracle, z, b);
                feed(&mut fast, &mut oracle, b, z);
            }
        }
        // Exponent sums straddling the −1074 boundary by ±2: with
        // a = m_a·2^(xa−1075) and b likewise, ea + eb = xa + xb − 2150.
        for delta in -2i64..=2 {
            for _ in 0..reps(2_000) {
                let xa = 1 + splitmix64(&mut s) % 1074;
                let xb = (1076 + delta - xa as i64) as u64;
                let a = with_exponent(&mut s, xa);
                let b = with_exponent(&mut s, xb);
                feed(&mut fast, &mut oracle, a, b);
            }
        }
        assert!(pairs as usize >= reps(100_000), "only {pairs} pairs");
        assert!(fast.nonfinite > 0, "no product overflowed");
        check(&mut fast, &mut oracle, "final");
        // Poisoning aside, the finite parts agree as values too.
        fast.nonfinite = 0;
        oracle.nonfinite = 0;
        assert_eq!(fast.value().to_bits(), oracle.value().to_bits());
    }

    /// A stream shaped like the Krylov operands (runs of exact zeros
    /// between runs of values spread over many binary orders) laced with
    /// every product the zero test has to get right: signed zeros against
    /// anything finite, products that underflow to ±0, subnormal operands
    /// whose products do not, `0 × ∞` (NaN, so it poisons) and `∞ × ∞`.
    #[test]
    fn zero_products_match_two_prod_limb_for_limb() {
        let mut s = 0x2e60_u64;
        let (mut fast, mut oracle) = (ExactAcc::new(), ExactAcc::new());
        let mut feed = |a: f64, b: f64| {
            fast.add_prod(a, b);
            add_prod_oracle(&mut oracle, a, b);
        };
        let (tiny, sub) = (f64::MIN_POSITIVE, 5e-324);
        let specials = [
            (0.0, 3.5),
            (-0.0, 3.5),
            (2.0, -0.0),
            (-0.0, -0.0),
            (0.0, f64::MAX),
            (tiny, tiny),
            (-tiny, 1e-300),
            (sub, 0.25),
            (sub, 2.0),
            (-sub, 1e300),
            (0.0, sub),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, -0.0),
            (f64::INFINITY, f64::INFINITY),
        ];
        for run in 0..400u64 {
            // A run of zeros on either operand, then a run of values.
            for _ in 0..5 + run % 16 {
                let x = rand_f64(&mut s, 50);
                if run % 2 == 0 {
                    feed(0.0, x);
                } else {
                    feed(x, -0.0);
                }
            }
            for _ in 0..6 + run % 15 {
                let (a, b) = (rand_f64(&mut s, 50), rand_f64(&mut s, 50));
                feed(a, b);
            }
            let (a, b) = specials[run as usize % specials.len()];
            feed(a, b);
        }
        let (f, o) = (transport(&mut fast), transport(&mut oracle));
        for (k, (x, y)) in f.iter().zip(&o).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "transport slot {k}");
        }
        assert!(fast.nonfinite > 0, "0 × ∞ and ∞ × ∞ poison the sum");
        assert!(fast.value().is_nan());
        fast.nonfinite = 0;
        oracle.nonfinite = 0;
        assert_eq!(fast.value().to_bits(), oracle.value().to_bits());
        assert_ne!(fast.value(), 0.0, "the values survive their zeros");
    }

    #[test]
    fn merge_charges_the_other_sides_pending_adds() {
        for k in [0u32, 1, 77, 5000] {
            let mut a = ExactAcc::new();
            let mut b = ExactAcc::new();
            a.add_prod(3.0, 5.0);
            for i in 0..k {
                b.add(1.0 + i as f64);
            }
            assert_eq!(b.pending, k);
            let before = a.pending;
            a.merge(&b);
            assert!(a.pending > before + k, "k = {k}: {} pending", a.pending);
        }
        // At the threshold the merge renormalizes instead.
        let mut a = ExactAcc::new();
        let mut b = ExactAcc::new();
        a.add(f64::MAX);
        b.add(f64::MAX);
        a.pending = RENORM_EVERY / 2;
        b.pending = RENORM_EVERY / 2;
        a.merge(&b);
        assert_eq!(a.pending, 0, "renorm ran");
        assert!(a.limbs.iter().all(|&l| (-(1 << 31)..1 << 31).contains(&l)));
        // 2·MAX rounds as an overflow.
        assert_eq!(a.value(), f64::INFINITY);
        // Saturating: a pathological pending count cannot wrap.
        let mut a = ExactAcc::new();
        a.pending = RENORM_EVERY - 1;
        b.pending = u32::MAX;
        a.merge(&b);
        assert_eq!(a.pending, 0);
    }

    #[test]
    fn merging_unnormalized_accumulators_matches_one_accumulator() {
        let mut s = 21u64;
        let mut whole = ExactAcc::new();
        let mut merged = ExactAcc::new();
        for _ in 0..4096 {
            let mut part = ExactAcc::new();
            for _ in 0..8 {
                let (a, b) = (rand_f64(&mut s, 300), rand_f64(&mut s, 300));
                whole.add_prod(a, b);
                part.add_prod(a, b);
            }
            assert!(part.pending > 0, "parts are merged raw");
            merged.merge(&part);
        }
        let (w, m) = (transport(&mut whole), transport(&mut merged));
        assert_eq!(w, m);
        assert_eq!(whole.value().to_bits(), merged.value().to_bits());
    }

    /// `n` under the native test run, about a fiftieth of it under Miri,
    /// which interprets every instruction.
    fn reps(n: usize) -> usize {
        if cfg!(miri) {
            n.div_ceil(50)
        } else {
            n
        }
    }

    /// One stream against the limbs: a [`Dot2`] fed the whole stream, fed
    /// it in 1, 3 and 7 uneven spans, and 1, 3 and 7 partials over those
    /// spans combined in order. Whatever certifies is the limbs' bits.
    /// Returns whether the whole-stream dot certified.
    fn certifies_to_the_limbs(a: &[f64], b: &[f64], what: &str) -> bool {
        let want = exact_dot(a, b);
        let check = |got: Option<f64>, how: &str| {
            if let Some(got) = got {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{what}, {how}: {got:e} vs {want:e}"
                );
            }
        };
        let mut whole = Dot2::new();
        whole.add_dot(a, b);
        let certified = whole.value();
        check(certified, "whole");
        for parts in [1, 3, 7] {
            let bounds: Vec<usize> = (0..=parts)
                .map(|k| a.len() * k * k / (parts * parts))
                .collect();
            let mut spans = Dot2::new();
            let mut shares = Vec::new();
            for w in bounds.windows(2) {
                let (x, y) = (&a[w[0]..w[1]], &b[w[0]..w[1]]);
                spans.add_dot(x, y);
                let mut share = Dot2::new();
                share.add_dot(x, y);
                shares.push(share.partial());
            }
            check(spans.value(), &format!("{parts} spans"));
            let shares: Option<Vec<Partial>> = shares.into_iter().collect();
            check(
                shares.and_then(|s| Partial::combine(&s).certify()),
                &format!("{parts} partials"),
            );
        }
        certified.is_some()
    }

    /// The Krylov operands' shape: runs of exact zeros in both, between
    /// runs of values spread over ~100 binary orders.
    fn krylov_stream(s: &mut u64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        while a.len() < n {
            for _ in 0..5 + splitmix64(s) % 16 {
                a.push(0.0);
                b.push(if splitmix64(s) % 2 == 0 { 0.0 } else { -0.0 });
            }
            for _ in 0..8 + splitmix64(s) % 21 {
                a.push(rand_f64(s, 25));
                b.push(rand_f64(s, 25));
            }
        }
        a.truncate(n);
        b.truncate(n);
        (a, b)
    }

    /// Heavy cancellation in the style of Ogita, Rump & Oishi's `GenDot`:
    /// the first half spreads over `2·spread` binary orders with an exact
    /// sum `S₀`, and each product of the second half brings the exact sum
    /// to a random value below `2^−k·|S₀|`, `k < depth`. The condition
    /// number `Σ|xᵢyᵢ| / |Σxᵢyᵢ|` reaches about `n·2^depth`.
    fn cancelling_stream(s: &mut u64, n: usize, spread: i32, depth: u64) -> (Vec<f64>, Vec<f64>) {
        let (mut a, mut b) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n / 2 {
            a.push(rand_f64(s, spread / 2));
            b.push(rand_f64(s, spread / 2));
        }
        let mut acc = ExactAcc::new();
        for (&x, &y) in a.iter().zip(&b) {
            acc.add_prod(x, y);
        }
        let s0 = acc.value().abs();
        while a.len() < n {
            let x = rand_f64(s, 4);
            let target = rand_f64(s, 0) * s0 * pow2(-((splitmix64(s) % depth) as i32));
            let y = (target - acc.value()) / x;
            acc.add_prod(x, y);
            a.push(x);
            b.push(y);
        }
        (a, b)
    }

    #[test]
    fn certified_dots_equal_the_limbs_bit_for_bit() {
        let mut s = 0xd072_u64;
        let n = reps(2_000).max(64);
        for round in 0..reps(60) {
            let (a, b) = krylov_stream(&mut s, n);
            assert!(certifies_to_the_limbs(&a, &b, &format!("krylov {round}")));
            // Spreads of 12 to 600 binary orders over the products.
            let scale = [3, 25, 75, 150][round % 4];
            let a: Vec<f64> = (0..n).map(|_| rand_f64(&mut s, scale)).collect();
            let b: Vec<f64> = (0..n).map(|_| rand_f64(&mut s, scale)).collect();
            assert!(certifies_to_the_limbs(&a, &b, &format!("spread {scale}")));
        }
        // Cancelling pairs x·y, −x·y, with and without a residue.
        for round in 0..reps(200) {
            let mut a = Vec::new();
            let mut b = Vec::new();
            for _ in 0..16 {
                let (x, y) = (rand_f64(&mut s, 40), rand_f64(&mut s, 40));
                a.extend([x, -x]);
                b.extend([y, y]);
            }
            if round % 2 == 1 {
                a.push(rand_f64(&mut s, 40));
                b.push(rand_f64(&mut s, 40));
            }
            certifies_to_the_limbs(&a, &b, &format!("pairs {round}"));
        }
        // Condition numbers up to about 2³⁶ all certify; beyond what a
        // double-double resolves (up to 2¹²⁶) a dot may only decline, never
        // disagree.
        for (depth, floor) in [(30, 1.0), (120, 0.0)] {
            let (mut certified, mut tried) = (0, 0);
            for round in 0..reps(1_000) {
                let spread = [10, 100, 200, 400][round % 4];
                let (a, b) = cancelling_stream(&mut s, 40, spread, depth);
                let what = format!("depth {depth}, spread {spread}, round {round}");
                tried += 1;
                certified += certifies_to_the_limbs(&a, &b, &what) as usize;
            }
            assert!(
                certified as f64 >= floor * tried as f64,
                "depth {depth}: {certified} of {tried} ill-conditioned dots certified"
            );
        }
    }

    /// Signed zeros, products that underflow to zero, subnormal operands
    /// and products at the edges of the certifiable range, one at a time
    /// inside a benign stream: the dot certifies exactly when every
    /// non-zero product is in range, and then to the limbs' bits.
    #[test]
    fn out_of_range_products_decline_and_in_range_ones_certify() {
        let mut s = 0x0dd5_u64;
        let sub = f64::from_bits(1); // 2⁻¹⁰⁷⁴
        let certifiable = [
            (0.0, 3.5),
            (-0.0, -2.0),
            (0.0, f64::MAX),          // zero product, huge operand
            (pow2(-600), pow2(-600)), // underflows to zero
            (-sub, 0.25),             // underflows to zero
            (sub * 3.0, pow2(180)),   // subnormal operand, 2⁻⁸⁹² product
            (f64::MIN_POSITIVE, pow2(122)),
            (pow2(-450), pow2(-450)), // 2⁻⁹⁰⁰: the edge
            (pow2(995), pow2(5)),     // 2¹⁰⁰⁰: the other edge
            (1.5, -pow2(995)),
        ];
        let uncertifiable = [
            (pow2(-450), pow2(-451)), // 2⁻⁹⁰¹
            (sub, pow2(100)),         // subnormal operand, tiny product
            (pow2(996), pow2(-10)),   // operand above 2⁹⁹⁵
            (pow2(995), pow2(6)),     // product above 2¹⁰⁰⁰
            (0.0, f64::INFINITY),
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, 2.0),
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
        ];
        for (&(x, y), expect) in certifiable
            .iter()
            .zip(std::iter::repeat(true))
            .chain(uncertifiable.iter().zip(std::iter::repeat(false)))
        {
            for at in [0, 5, 13] {
                let (mut a, mut b) = krylov_stream(&mut s, 24);
                a[at] = x;
                b[at] = y;
                let what = format!("{x:e} * {y:e} at {at}");
                assert_eq!(certifies_to_the_limbs(&a, &b, &what), expect, "{what}");
            }
        }
    }

    /// Sums built to sit on a rounding midpoint, or to cancel to an exact
    /// zero that only the error terms know about, decline; a zero with no
    /// error term at all certifies as `+0.0`, the limbs' zero.
    #[test]
    fn midpoints_and_inexact_zeros_decline() {
        let declines = |a: &[f64], b: &[f64]| {
            let mut d = Dot2::new();
            d.add_dot(a, b);
            d.value()
        };
        let ones = [1.0; 3];
        for tail in [pow2(-120), -pow2(-120), 0.0] {
            assert_eq!(declines(&[1.0, pow2(-53), tail], &ones), None, "{tail:e}");
            assert_eq!(declines(&[pow2(-53), tail, 1.0], &ones), None, "{tail:e}");
        }
        assert_eq!(declines(&[pow2(53), 1.0], &[1.0, 1.0]), None);
        assert_eq!(declines(&[pow2(53), 3.0], &[-1.0, -1.0]), None);
        let x = 1.0 + pow2(-52);
        assert_ne!(x.mul_add(x, -(x * x)), 0.0, "x·x rounds");
        assert_eq!(declines(&[x, -x], &[x, x]), None);
        assert_eq!(exact_dot(&[x, -x], &[x, x]).to_bits(), 0);
        assert_eq!(
            declines(&[3.0, -3.0], &[1.0, 1.0]).map(f64::to_bits),
            Some(0)
        );
        assert_eq!(declines(&[], &[]).map(f64::to_bits), Some(0));
    }

    /// TwoProduct is exact in the certifiable range on both forms, the
    /// subnormal operands included: `x·y − p − e` sums to zero in limbs.
    #[test]
    fn product_errors_are_exact_in_the_certifiable_range() {
        let mut s = 0xe770_u64;
        for _ in 0..reps(20_000) {
            // Random operands; a subnormal one against one large enough
            // for the product to be in range; a small normal one likewise.
            let (x_exp, y_exp) = (splitmix64(&mut s) % 200, splitmix64(&mut s) % 890);
            let (x, y) = match splitmix64(&mut s) % 3 {
                0 => (rand_f64(&mut s, 450), rand_f64(&mut s, 450)),
                1 => (
                    with_exponent(&mut s, 0),
                    with_exponent(&mut s, 1123 + y_exp.min(849)),
                ),
                _ => (
                    with_exponent(&mut s, 1 + x_exp),
                    with_exponent(&mut s, 1123 + y_exp),
                ),
            };
            let p = x * y;
            let in_range = (P_MIN..=P_MAX).contains(&p.abs()) && x.abs().max(y.abs()) <= X_MAX;
            if !in_range {
                continue;
            }
            for (form, e) in [
                ("dekker", product_error::<false>(x, y, p)),
                ("fma", x.mul_add(y, -p)),
            ] {
                let mut acc = ExactAcc::new();
                acc.add_prod(x, y);
                acc.add(-p);
                acc.add(-e);
                assert_eq!(acc.value(), 0.0, "{form}: {x:e} * {y:e}");
            }
        }
    }

    /// Where the CPU has FMA, the FMA and Dekker instantiations of the
    /// lanes agree bit for bit on certifiable streams.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_and_dekker_lanes_agree_bit_for_bit() {
        if !fma_available() {
            return;
        }
        let mut s = 0xfa57_u64;
        for round in 0..reps(40) {
            let (a, b) = if round % 2 == 0 {
                krylov_stream(&mut s, 1001)
            } else {
                cancelling_stream(&mut s, 1001, 300, 30)
            };
            let (mut fma, mut dekker) = (Dot2::new(), Dot2::new());
            // SAFETY: `fma_available` returned true above.
            unsafe { fma.add_dot_fma(&a, &b) };
            dekker.accumulate::<false>(&a, &b);
            assert!(dekker.partial().is_some(), "round {round} is certifiable");
            for (name, f, d) in [
                ("hi", fma.hi, dekker.hi),
                ("lo", fma.lo, dekker.lo),
                ("err", fma.err, dekker.err),
            ] {
                for j in 0..LANES {
                    assert_eq!(f[j].to_bits(), d[j].to_bits(), "round {round}: {name}[{j}]");
                }
            }
        }
    }

    #[test]
    fn partials_travel_as_rows_of_four() {
        let part = Partial {
            hi: 1.5,
            lo: -pow2(-60),
            err: pow2(-110),
        };
        let mut row = [9.0; PARTIAL_LEN];
        Partial::to_row(Some(part), &mut row);
        assert_eq!(Partial::from_row(&row), Some(part));
        Partial::to_row(None, &mut row);
        assert_eq!(row, [0.0; PARTIAL_LEN]);
        assert_eq!(Partial::from_row(&row), None);
    }
}
