//! The branching rule.
//!
//! Given a fractional LP point, pick the integral variable to branch on
//! ([`crate::search::children`] builds the two child bound changes). The
//! paper (Section 5.3) notes that a GPU-oriented solver's "branching scheme
//! ... and node evaluation ordering scheme" may differ from CPU solvers';
//! most-fractional is the standard rule every experiment holds fixed while
//! varying node *selection*.

/// Distance of `x` to its nearest integer.
#[inline]
pub fn fractionality(x: f64) -> f64 {
    (x - x.round()).abs()
}

/// Returns those of the `integral` variable indices whose values in `x` are
/// fractional beyond `tol` (the search kernel's fractional filter; callers
/// pass the index list they cached at construction).
pub fn fractional_vars(integral: &[usize], x: &[f64], tol: f64) -> Vec<usize> {
    integral
        .iter()
        .copied()
        .filter(|&j| fractionality(x[j]) > tol)
        .collect()
}

/// The branching decision: the variable and its fractional LP value (the
/// children take `var ≤ ⌊value⌋` and `var ≥ ⌈value⌉`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchDecision {
    /// Chosen variable.
    pub var: usize,
    /// Its fractional LP value.
    pub value: f64,
}

/// The most-fractional rule: the candidate (must be non-empty) farthest
/// from its nearest integer, ties to the lowest index.
pub fn most_fractional(x: &[f64], candidates: &[usize]) -> BranchDecision {
    let var = candidates
        .iter()
        .copied()
        .max_by(|&a, &b| {
            fractionality(x[a])
                .partial_cmp(&fractionality(x[b]))
                .expect("fractionality is never NaN")
                .then(b.cmp(&a)) // tie → lowest index
        })
        .expect("branching on an integral point");
    BranchDecision { var, value: x[var] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::catalog::figure1_knapsack;

    #[test]
    fn fractionality_measures_distance() {
        assert_eq!(fractionality(2.0), 0.0);
        assert!((fractionality(2.5) - 0.5).abs() < 1e-12);
        assert!((fractionality(2.9) - 0.1).abs() < 1e-9);
        assert!((fractionality(-1.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fractional_vars_filters() {
        let m = figure1_knapsack();
        let x = [1.0, 0.5, 0.0, 0.999999999];
        let f = fractional_vars(&m.integral_indices(), &x, 1e-6);
        assert_eq!(f, vec![1]);
    }

    #[test]
    fn most_fractional_picks_center() {
        let d = most_fractional(&[0.9, 0.5, 0.2, 0.0], &[0, 1, 2]);
        assert_eq!((d.var, d.value), (1, 0.5));
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panic() {
        most_fractional(&[0.0; 4], &[]);
    }
}
