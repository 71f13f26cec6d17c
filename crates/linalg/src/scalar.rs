//! Numerical tolerances and scalar helpers shared across the crate, plus
//! the [`Scalar`] abstraction that lets kernels run over either `f64` or an
//! exact (rational) arithmetic supplied by a downstream crate.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A field scalar the elimination-style kernels can run over.
///
/// `f64` implements this trait for the production float path; `gmip-verify`
/// implements it for its exact rational type so the same pivoting logic can
/// be checked with zero rounding. Implementations must form an ordered
/// field: exact arithmetic types return bit-true results, while `f64`
/// rounds as usual.
pub trait Scalar:
    Sized
    + Clone
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + std::fmt::Debug
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Exact conversion from a finite `f64` (every finite double is a
    /// dyadic rational, so exact types return `Some` for all finite
    /// inputs); `None` for NaN/±∞.
    fn from_f64(v: f64) -> Option<Self>;
    /// Nearest-double approximation (exact for `f64` itself).
    fn to_f64(&self) -> f64;
    /// Whether the value is exactly the additive identity.
    fn is_zero_exact(&self) -> bool {
        *self == Self::zero()
    }
    /// `|self|`.
    fn abs_val(&self) -> Self {
        if *self < Self::zero() {
            -self.clone()
        } else {
            self.clone()
        }
    }
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f64(v: f64) -> Option<Self> {
        v.is_finite().then_some(v)
    }
    fn to_f64(&self) -> f64 {
        *self
    }
}

/// Dot product over any [`Scalar`] — the generic sibling of the float
/// kernels in [`crate::dense`], usable with exact arithmetic.
pub fn dot_generic<S: Scalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
    let mut acc = S::zero();
    for (x, y) in a.iter().zip(b) {
        acc = acc + x.clone() * y.clone();
    }
    acc
}

/// Values with absolute magnitude below this are treated as exact zero when
/// classifying entries (e.g. when counting structural nonzeros or dropping
/// fill-in produced by cancellation).
pub const ZERO_TOL: f64 = 1e-12;

/// Minimum acceptable pivot magnitude during LU factorization. Pivots below
/// this threshold cause the factorization to report the matrix as singular.
pub const PIVOT_TOL: f64 = 1e-10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_scalar_impl() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!(<f64 as Scalar>::from_f64(2.5), Some(2.5));
        assert_eq!(<f64 as Scalar>::from_f64(f64::NAN), None);
        assert_eq!(<f64 as Scalar>::from_f64(f64::INFINITY), None);
        assert!((-3.0f64).abs_val() == 3.0);
        assert!(0.0f64.is_zero_exact());
        assert_eq!(dot_generic(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
