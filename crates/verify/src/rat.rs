//! Exact rational arithmetic: [`Rat`] over `i128` numerator/denominator
//! pairs that transparently promote to a vendored arbitrary-precision
//! integer ([`Big`]) on overflow. No rounding, no external dependencies.
//!
//! Every finite `f64` is a dyadic rational, so [`Rat::from_f64`] is exact:
//! results produced by the float engines can be lifted into this arithmetic
//! and re-checked with zero loss.

use gmip_linalg::Scalar;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

// ---------------------------------------------------------------------------
// Big: sign + base-2^32 magnitude, little-endian limbs.
// ---------------------------------------------------------------------------

/// Arbitrary-precision signed integer (vendored, minimal API).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Big {
    /// True for strictly negative values; zero is always non-negative.
    neg: bool,
    /// Base-2^32 magnitude, little-endian, no trailing zero limbs.
    mag: Vec<u32>,
}

impl Big {
    fn zero() -> Self {
        Big {
            neg: false,
            mag: Vec::new(),
        }
    }

    fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    fn from_i128(v: i128) -> Self {
        let neg = v < 0;
        let mut m = v.unsigned_abs();
        let mut mag = Vec::new();
        while m != 0 {
            mag.push((m & 0xffff_ffff) as u32);
            m >>= 32;
        }
        Big {
            neg: neg && !mag.is_empty(),
            mag,
        }
    }

    fn to_i128(&self) -> Option<i128> {
        if self.mag.len() > 4 {
            return None;
        }
        let mut m: u128 = 0;
        for (i, &l) in self.mag.iter().enumerate() {
            m |= (l as u128) << (32 * i);
        }
        if self.neg {
            if m > (i128::MAX as u128) + 1 {
                None
            } else if m == (i128::MAX as u128) + 1 {
                Some(i128::MIN)
            } else {
                Some(-(m as i128))
            }
        } else if m > i128::MAX as u128 {
            None
        } else {
            Some(m as i128)
        }
    }

    fn trim(mag: &mut Vec<u32>) {
        while mag.last() == Some(&0) {
            mag.pop();
        }
    }

    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            if a[i] != b[i] {
                return a[i].cmp(&b[i]);
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
        let mut carry: u64 = 0;
        for i in 0..a.len().max(b.len()) {
            let s = carry + *a.get(i).unwrap_or(&0) as u64 + *b.get(i).unwrap_or(&0) as u64;
            out.push((s & 0xffff_ffff) as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// `a - b`, requires `a >= b`.
    fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow: i64 = 0;
        for i in 0..a.len() {
            let d = a[i] as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
            if d < 0 {
                out.push((d + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        Self::trim(&mut out);
        out
    }

    fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &bj) in b.iter().enumerate() {
                let t = out[i + j] as u64 + ai as u64 * bj as u64 + carry;
                out[i + j] = (t & 0xffff_ffff) as u32;
                carry = t >> 32;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u64 + carry;
                out[k] = (t & 0xffff_ffff) as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        Self::trim(&mut out);
        out
    }

    fn bit_len(mag: &[u32]) -> usize {
        match mag.last() {
            None => 0,
            Some(&top) => (mag.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    fn shl_mag(mag: &[u32], sh: usize) -> Vec<u32> {
        if mag.is_empty() {
            return Vec::new();
        }
        let limbs = sh / 32;
        let bits = sh % 32;
        let mut out = vec![0u32; limbs];
        if bits == 0 {
            out.extend_from_slice(mag);
        } else {
            let mut carry: u32 = 0;
            for &l in mag {
                out.push((l << bits) | carry);
                carry = (l >> (32 - bits)) & ((1u32 << bits) - 1);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Self::trim(&mut out);
        out
    }

    /// Right shift by `sh` bits.
    fn shr_mag(mag: &[u32], sh: usize) -> Vec<u32> {
        let limbs = sh / 32;
        let bits = sh % 32;
        if limbs >= mag.len() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(mag.len() - limbs);
        if bits == 0 {
            out.extend_from_slice(&mag[limbs..]);
        } else {
            for i in limbs..mag.len() {
                let lo = mag[i] >> bits;
                let hi = if i + 1 < mag.len() {
                    mag[i + 1] << (32 - bits)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        Self::trim(&mut out);
        out
    }

    /// In-place right shift by one bit.
    fn shr1_mag(mag: &mut Vec<u32>) {
        let mut carry = 0u32;
        for l in mag.iter_mut().rev() {
            let next = *l & 1;
            *l = (*l >> 1) | (carry << 31);
            carry = next;
        }
        Self::trim(mag);
    }

    fn trailing_zeros_mag(mag: &[u32]) -> usize {
        for (i, &l) in mag.iter().enumerate() {
            if l != 0 {
                return i * 32 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Binary long division of magnitudes: returns `(quotient, remainder)`.
    /// The divisor is aligned once and shifted right one bit per step, so
    /// the whole division is O(bits²/32) with no per-step allocation.
    fn divrem_mag(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        assert!(!b.is_empty(), "division by zero Big");
        if Self::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        let shift = Self::bit_len(a) - Self::bit_len(b);
        let mut rem = a.to_vec();
        let mut quo = vec![0u32; shift / 32 + 1];
        let mut d = Self::shl_mag(b, shift);
        for s in (0..=shift).rev() {
            if Self::cmp_mag(&rem, &d) != Ordering::Less {
                rem = Self::sub_mag(&rem, &d);
                quo[s / 32] |= 1u32 << (s % 32);
            }
            Self::shr1_mag(&mut d);
        }
        Self::trim(&mut quo);
        Self::trim(&mut rem);
        (quo, rem)
    }

    fn cmp(&self, other: &Self) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Self::cmp_mag(&self.mag, &other.mag),
            (true, true) => Self::cmp_mag(&other.mag, &self.mag),
        }
    }

    fn add(&self, other: &Self) -> Self {
        if self.neg == other.neg {
            Big {
                neg: self.neg,
                mag: Self::add_mag(&self.mag, &other.mag),
            }
        } else {
            match Self::cmp_mag(&self.mag, &other.mag) {
                Ordering::Equal => Big::zero(),
                Ordering::Greater => Big {
                    neg: self.neg,
                    mag: Self::sub_mag(&self.mag, &other.mag),
                },
                Ordering::Less => Big {
                    neg: other.neg,
                    mag: Self::sub_mag(&other.mag, &self.mag),
                },
            }
        }
    }

    fn neg(&self) -> Self {
        Big {
            neg: !self.neg && !self.is_zero(),
            mag: self.mag.clone(),
        }
    }

    fn mul(&self, other: &Self) -> Self {
        let mag = Self::mul_mag(&self.mag, &other.mag);
        Big {
            neg: self.neg != other.neg && !mag.is_empty(),
            mag,
        }
    }

    /// Truncated quotient and remainder (remainder has the dividend's sign).
    fn divrem(&self, other: &Self) -> (Self, Self) {
        let (q, r) = Self::divrem_mag(&self.mag, &other.mag);
        (
            Big {
                neg: self.neg != other.neg && !q.is_empty(),
                mag: q,
            },
            Big {
                neg: self.neg && !r.is_empty(),
                mag: r,
            },
        )
    }

    /// Stein's binary GCD — subtract-and-shift only, no division. Euclid
    /// with long division is O(bits³) on the determinant-sized integers an
    /// exact simplex produces; this is O(bits²) with tiny constants, and
    /// reduction dominates every rational operation.
    fn gcd(a: &Self, b: &Self) -> Self {
        let mut x = a.mag.clone();
        let mut y = b.mag.clone();
        if x.is_empty() {
            return Big { neg: false, mag: y };
        }
        if y.is_empty() {
            return Big { neg: false, mag: x };
        }
        let tx = Self::trailing_zeros_mag(&x);
        let ty = Self::trailing_zeros_mag(&y);
        let common = tx.min(ty);
        x = Self::shr_mag(&x, tx);
        y = Self::shr_mag(&y, ty);
        loop {
            match Self::cmp_mag(&x, &y) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut x, &mut y),
                Ordering::Greater => {}
            }
            x = Self::sub_mag(&x, &y);
            let t = Self::trailing_zeros_mag(&x);
            x = Self::shr_mag(&x, t);
        }
        Big {
            neg: false,
            mag: Self::shl_mag(&x, common),
        }
    }

    /// `(m, e)` with value ≈ `m·2^e`; `m` is built from the top ~96 bits so
    /// huge magnitudes never saturate to ±∞ before the caller rescales.
    fn to_f64_exp(&self) -> (f64, i32) {
        let n = self.mag.len();
        if n == 0 {
            return (0.0, 0);
        }
        let take = n.min(3);
        let mut v = 0.0f64;
        for i in (n - take..n).rev() {
            v = v * 4294967296.0 + self.mag[i] as f64;
        }
        let e = 32 * (n - take) as i32;
        (if self.neg { -v } else { v }, e)
    }
}

// ---------------------------------------------------------------------------
// Int: i128 fast path, Big slow path.
// ---------------------------------------------------------------------------

/// Signed integer with an `i128` fast path and [`Big`] overflow fallback.
#[derive(Debug, Clone)]
pub enum Int {
    /// Fits in `i128`.
    Small(i128),
    /// Promoted arbitrary-precision value.
    Big(Big),
}

impl Int {
    fn zero() -> Self {
        Int::Small(0)
    }

    fn one() -> Self {
        Int::Small(1)
    }

    fn is_zero(&self) -> bool {
        match self {
            Int::Small(v) => *v == 0,
            Int::Big(b) => b.is_zero(),
        }
    }

    fn is_negative(&self) -> bool {
        match self {
            Int::Small(v) => *v < 0,
            Int::Big(b) => b.neg,
        }
    }

    fn to_big(&self) -> Big {
        match self {
            Int::Small(v) => Big::from_i128(*v),
            Int::Big(b) => b.clone(),
        }
    }

    /// Demotes a Big back to Small when it fits (keeps the fast path hot).
    fn normalize(self) -> Self {
        match self {
            Int::Big(b) => match b.to_i128() {
                Some(v) => Int::Small(v),
                None => Int::Big(b),
            },
            s => s,
        }
    }

    fn add(&self, other: &Self) -> Self {
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            if let Some(v) = a.checked_add(*b) {
                return Int::Small(v);
            }
        }
        Int::Big(self.to_big().add(&other.to_big())).normalize()
    }

    fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    fn neg(&self) -> Self {
        match self {
            Int::Small(v) => match v.checked_neg() {
                Some(n) => Int::Small(n),
                None => Int::Big(Big::from_i128(*v).neg()),
            },
            Int::Big(b) => Int::Big(b.neg()).normalize(),
        }
    }

    fn mul(&self, other: &Self) -> Self {
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            if let Some(v) = a.checked_mul(*b) {
                return Int::Small(v);
            }
        }
        Int::Big(self.to_big().mul(&other.to_big())).normalize()
    }

    /// Truncated quotient and remainder.
    fn divrem(&self, other: &Self) -> (Self, Self) {
        assert!(!other.is_zero(), "integer division by zero");
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            if let (Some(q), Some(r)) = (a.checked_div(*b), a.checked_rem(*b)) {
                return (Int::Small(q), Int::Small(r));
            }
        }
        let (q, r) = self.to_big().divrem(&other.to_big());
        (Int::Big(q).normalize(), Int::Big(r).normalize())
    }

    fn gcd(a: &Self, b: &Self) -> Self {
        if let (Int::Small(x), Int::Small(y)) = (a, b) {
            let (mut x, mut y) = (x.unsigned_abs(), y.unsigned_abs());
            while y != 0 {
                let r = x % y;
                x = y;
                y = r;
            }
            // u128 gcd of two i128 magnitudes always fits back in i128
            // unless both inputs were i128::MIN; promote in that case.
            if x <= i128::MAX as u128 {
                return Int::Small(x as i128);
            }
        }
        Int::Big(Big::gcd(&a.to_big(), &b.to_big())).normalize()
    }

    fn cmp_int(&self, other: &Self) -> Ordering {
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            return a.cmp(b);
        }
        self.to_big().cmp(&other.to_big())
    }

    fn shl(&self, sh: usize) -> Self {
        if let Int::Small(v) = self {
            if sh < 127 {
                if let Some(out) = v.checked_shl(sh as u32) {
                    if out >> sh == *v {
                        return Int::Small(out);
                    }
                }
            }
        }
        let b = self.to_big();
        Int::Big(Big {
            neg: b.neg,
            mag: Big::shl_mag(&b.mag, sh),
        })
        .normalize()
    }

    fn to_f64_exp(&self) -> (f64, i32) {
        match self {
            Int::Small(v) => (*v as f64, 0),
            Int::Big(b) => b.to_f64_exp(),
        }
    }

    /// Whether the value was promoted past `i128`.
    pub fn is_promoted(&self) -> bool {
        matches!(self, Int::Big(_))
    }
}

impl PartialEq for Int {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_int(other) == Ordering::Equal
    }
}
impl Eq for Int {}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Int::Small(v) => write!(f, "{v}"),
            Int::Big(b) => {
                // Decimal rendering by repeated division; Bigs are rare and
                // display is for diagnostics only.
                if b.is_zero() {
                    return write!(f, "0");
                }
                let mut digits = Vec::new();
                let ten = Big::from_i128(10);
                let mut cur = Big {
                    neg: false,
                    mag: b.mag.clone(),
                };
                while !cur.is_zero() {
                    let (q, r) = cur.divrem(&ten);
                    digits.push(char::from(b'0' + r.to_i128().unwrap_or(0) as u8));
                    cur = q;
                }
                if b.neg {
                    write!(f, "-")?;
                }
                for d in digits.iter().rev() {
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rat
// ---------------------------------------------------------------------------

/// An exact rational number `num/den` with `den > 0` and `gcd(num,den)=1`.
#[derive(Debug, Clone)]
pub struct Rat {
    num: Int,
    den: Int,
}

impl Rat {
    /// Constructs and normalizes `n/d` (`d != 0`).
    pub fn new(n: i128, d: i128) -> Self {
        assert!(d != 0, "zero denominator");
        Self::from_ints(Int::Small(n), Int::Small(d))
    }

    fn from_ints(num: Int, den: Int) -> Self {
        assert!(!den.is_zero(), "zero denominator");
        let (num, den) = if den.is_negative() {
            (num.neg(), den.neg())
        } else {
            (num, den)
        };
        if num.is_zero() {
            return Rat {
                num: Int::zero(),
                den: Int::one(),
            };
        }
        let g = Int::gcd(&num, &den);
        let (num, _) = num.divrem(&g);
        let (den, _) = den.divrem(&g);
        Rat { num, den }
    }

    /// The integer `v`.
    pub fn int(v: i128) -> Self {
        Rat {
            num: Int::Small(v),
            den: Int::one(),
        }
    }

    /// Exact conversion of a finite double (every finite `f64` is a dyadic
    /// rational `±m·2^e`). Returns `None` for NaN or ±∞.
    pub fn from_f64_exact(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rat::int(0));
        }
        let bits = v.to_bits();
        let sign = bits >> 63 != 0;
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (m, e) = if exp == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), exp - 1075)
        };
        let m = Int::Small(if sign { -(m as i128) } else { m as i128 });
        Some(if e >= 0 {
            Rat::from_ints(m.shl(e as usize), Int::one())
        } else {
            Rat::from_ints(m, Int::one().shl((-e) as usize))
        })
    }

    /// Exactly zero?
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Exactly an integer?
    pub fn is_integer(&self) -> bool {
        self.den == Int::one()
    }

    /// Strictly negative?
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Strictly positive?
    pub fn is_positive(&self) -> bool {
        !self.num.is_zero() && !self.num.is_negative()
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> Rat {
        let (q, r) = self.num.divrem(&self.den);
        if r.is_zero() || !self.num.is_negative() {
            Rat {
                num: q,
                den: Int::one(),
            }
        } else {
            Rat {
                num: q.sub(&Int::one()),
                den: Int::one(),
            }
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> Rat {
        self.neg_ref().floor().neg_ref()
    }

    fn neg_ref(&self) -> Rat {
        Rat {
            num: self.num.neg(),
            den: self.den.clone(),
        }
    }

    /// Nearest-double approximation. Mantissa and binary exponent are
    /// tracked separately so ratios of huge (or tiny) dyadics — e.g. the
    /// exact form of `1e-300` — don't collapse through an intermediate ∞.
    pub fn approx(&self) -> f64 {
        let (nm, ne) = self.num.to_f64_exp();
        let (dm, de) = self.den.to_f64_exp();
        (nm / dm) * 2f64.powi(ne - de)
    }

    /// Whether this value overflowed the `i128` fast path.
    pub fn is_promoted(&self) -> bool {
        self.num.is_promoted() || self.den.is_promoted()
    }
}

impl PartialEq for Rat {
    fn eq(&self, other: &Self) -> bool {
        self.num == other.num && self.den == other.den
    }
}
impl Eq for Rat {}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  (b,d > 0)  <=>  ad vs cb.
        self.num.mul(&other.den).cmp_int(&other.num.mul(&self.den))
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Knuth 4.5.1: pre-divide by g = gcd(b, d) so the intermediates
        // stay near the result's true size, not the product of the inputs.
        let g = Int::gcd(&self.den, &rhs.den);
        let (db, _) = self.den.divrem(&g);
        let (dd, _) = rhs.den.divrem(&g);
        let num = self.num.mul(&dd).add(&rhs.num.mul(&db));
        let den = self.den.mul(&dd);
        Rat::from_ints(num, den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // Cross-cancel before multiplying: both inputs are reduced, so
        // after dividing out gcd(a, d) and gcd(c, b) the product is
        // already in lowest terms — no gcd on the (larger) result needed.
        let g1 = Int::gcd(&self.num, &rhs.den);
        let g2 = Int::gcd(&rhs.num, &self.den);
        let (n1, _) = self.num.divrem(&g1);
        let (d2, _) = rhs.den.divrem(&g1);
        let (n2, _) = rhs.num.divrem(&g2);
        let (d1, _) = self.den.divrem(&g2);
        let num = n1.mul(&n2);
        if num.is_zero() {
            return Rat::int(0);
        }
        Rat {
            num,
            den: d1.mul(&d2),
        }
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        assert!(!rhs.is_zero(), "rational division by zero");
        let g1 = Int::gcd(&self.num, &rhs.num);
        let g2 = Int::gcd(&self.den, &rhs.den);
        let (n1, _) = self.num.divrem(&g1);
        let (nc, _) = rhs.num.divrem(&g1);
        let (d1, _) = self.den.divrem(&g2);
        let (dd, _) = rhs.den.divrem(&g2);
        let num = n1.mul(&dd);
        if num.is_zero() {
            return Rat::int(0);
        }
        let den = d1.mul(&nc);
        if den.is_negative() {
            Rat {
                num: num.neg(),
                den: den.neg(),
            }
        } else {
            Rat { num, den }
        }
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        self.neg_ref()
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Scalar for Rat {
    fn zero() -> Self {
        Rat::int(0)
    }
    fn one() -> Self {
        Rat::int(1)
    }
    fn from_f64(v: f64) -> Option<Self> {
        Rat::from_f64_exact(v)
    }
    fn to_f64(&self) -> f64 {
        self.approx()
    }
    fn is_zero_exact(&self) -> bool {
        self.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arithmetic_reduces() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a.clone() + b.clone(), Rat::new(1, 2));
        assert_eq!(a.clone() - b.clone(), Rat::new(1, 6));
        assert_eq!(a.clone() * b.clone(), Rat::new(1, 18));
        assert_eq!(a / b, Rat::int(2));
    }

    #[test]
    fn sign_normalization() {
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert!(Rat::new(-1, 2).is_negative());
        assert!(Rat::new(1, 2).is_positive());
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Rat::new(1, 3) < Rat::new(34, 100));
        assert!(Rat::new(-1, 2) < Rat::int(0));
        assert_eq!(Rat::new(2, 4).cmp(&Rat::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), Rat::int(3));
        assert_eq!(Rat::new(7, 2).ceil(), Rat::int(4));
        assert_eq!(Rat::new(-7, 2).floor(), Rat::int(-4));
        assert_eq!(Rat::new(-7, 2).ceil(), Rat::int(-3));
        assert_eq!(Rat::int(5).floor(), Rat::int(5));
        assert_eq!(Rat::int(-5).ceil(), Rat::int(-5));
    }

    #[test]
    fn f64_conversion_is_exact() {
        for v in [0.0, 1.0, -1.0, 0.5, 0.1, -3.75, 1e-300, 123456789.0e10] {
            let r = Rat::from_f64_exact(v).unwrap();
            assert_eq!(r.approx(), v, "value {v}");
        }
        // 0.1 is NOT 1/10 in binary: the conversion must preserve the
        // double's true dyadic value, not the decimal literal.
        let tenth = Rat::from_f64_exact(0.1).unwrap();
        assert_ne!(tenth, Rat::new(1, 10));
        assert!(Rat::from_f64_exact(f64::NAN).is_none());
        assert!(Rat::from_f64_exact(f64::INFINITY).is_none());
    }

    #[test]
    fn overflow_promotes_to_big_and_back() {
        // (2^100)^2 overflows i128 → Big; dividing back demotes to Small.
        let huge = Rat::int(1i128 << 100);
        let sq = huge.clone() * huge.clone();
        assert!(sq.is_promoted());
        let back = sq.clone() / huge.clone();
        assert!(!back.is_promoted());
        assert_eq!(back, huge);
        // Exact arithmetic survives the round trip.
        let third = Rat::new(1, 3);
        let x = sq * third.clone();
        let y = x / Rat::int(1i128 << 100);
        assert_eq!(y, Rat::int(1i128 << 100) * third);
    }

    #[test]
    fn big_division_and_gcd() {
        let a = Big::from_i128(123_456_789_123_456_789);
        let b = Big::from_i128(987_654_321);
        let (q, r) = a.divrem(&b);
        let qa = q.to_i128().unwrap();
        let ra = r.to_i128().unwrap();
        assert_eq!(qa * 987_654_321 + ra, 123_456_789_123_456_789);
        assert!((0..987_654_321).contains(&ra));
        let g = Big::gcd(&Big::from_i128(48), &Big::from_i128(-18));
        assert_eq!(g.to_i128().unwrap(), 6);
    }

    #[test]
    fn display_renders_bigs_in_decimal() {
        let huge = Rat::int(i128::MAX) * Rat::int(10);
        assert!(huge.is_promoted());
        let s = format!("{huge}");
        assert!(s.ends_with('0'));
        assert_eq!(s.len(), format!("{}", i128::MAX).len() + 1);
        assert_eq!(format!("{}", Rat::new(-1, 2)), "-1/2");
        assert_eq!(format!("{}", Rat::int(7)), "7");
    }

    #[test]
    fn scalar_trait_round_trip() {
        use gmip_linalg::scalar::dot_generic;
        let a = vec![Rat::new(1, 2), Rat::new(1, 3)];
        let b = vec![Rat::int(2), Rat::int(3)];
        assert_eq!(dot_generic(&a, &b), Rat::int(2));
        assert!(<Rat as Scalar>::from_f64(f64::NAN).is_none());
        assert_eq!(<Rat as Scalar>::one().to_f64(), 1.0);
    }
}
