//! Norm and residual helpers used by accuracy checks and tests.

/// Maximum absolute difference between two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length (programmer error in tests).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff on unequal lengths");
    a.iter()
        .zip(b.iter())
        .fold(0.0, |acc, (x, y)| acc.max((x - y).abs()))
}

/// Infinity norm of a slice (0 for empty input).
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |acc, x| acc.max(x.abs()))
}

/// Relative residual `‖Ax − b‖∞ / max(1, ‖b‖∞)` given a precomputed `Ax`.
pub fn relative_residual(ax: &[f64], b: &[f64]) -> f64 {
    max_abs_diff(ax, b) / norm_inf(b).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_and_norms() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn residual_scales_by_rhs() {
        // ‖Ax−b‖∞ = 1, ‖b‖∞ = 10 → 0.1
        assert!((relative_residual(&[11.0], &[10.0]) - 0.1).abs() < 1e-12);
        // Small rhs: denominator clamps at 1.
        assert!((relative_residual(&[0.5], &[0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn unequal_lengths_panic() {
        max_abs_diff(&[1.0], &[1.0, 2.0]);
    }
}
