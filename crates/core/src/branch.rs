//! Branching rules.
//!
//! Given a fractional LP point, pick the integral variable to branch on and
//! produce the two child bound changes. The paper (Section 5.3) notes that a
//! GPU-oriented solver's "branching scheme ... and node evaluation ordering
//! scheme" may differ from CPU solvers'; the rules here are the standard
//! ones the experiments hold fixed while varying node *selection*.

use crate::config::BranchRule;
use gmip_problems::MipInstance;
use std::collections::HashMap;

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

/// Pseudocost state: per-variable average objective degradation per unit of
/// fractionality, per direction, learned from completed branchings.
#[derive(Debug, Clone, Default)]
pub struct PseudoCosts {
    up: HashMap<usize, (f64, usize)>,
    down: HashMap<usize, (f64, usize)>,
}

impl PseudoCosts {
    /// Records an observed degradation: branching variable `var` in the
    /// given direction reduced the relaxation bound by `degradation ≥ 0`
    /// with parent fractionality `frac`.
    pub fn record(&mut self, var: usize, up: bool, degradation: f64, frac: f64) {
        let per_unit = if up {
            degradation / (1.0 - frac).max(1e-6)
        } else {
            degradation / frac.max(1e-6)
        };
        let slot = if up {
            self.up.entry(var).or_insert((0.0, 0))
        } else {
            self.down.entry(var).or_insert((0.0, 0))
        };
        slot.0 += per_unit;
        slot.1 += 1;
    }

    fn mean(&self, var: usize, up: bool, fallback: f64) -> f64 {
        let map = if up { &self.up } else { &self.down };
        match map.get(&var) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => fallback,
        }
    }

    /// Number of recorded observations (both directions).
    pub fn observations(&self) -> usize {
        self.up.values().map(|&(_, n)| n).sum::<usize>()
            + self.down.values().map(|&(_, n)| n).sum::<usize>()
    }
}

/// The branching decision: variable plus the two children's bound intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchDecision {
    /// Chosen variable.
    pub var: usize,
    /// Its fractional LP value.
    pub value: f64,
    /// Down child: `var ≤ floor(value)`.
    pub down_ub: f64,
    /// Up child: `var ≥ ceil(value)`.
    pub up_lb: f64,
}

impl BranchDecision {
    /// Branching on `var` at its value in `x`.
    pub fn on(var: usize, x: &[f64]) -> Self {
        Self {
            var,
            value: x[var],
            down_ub: x[var].floor(),
            up_lb: x[var].ceil(),
        }
    }
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
    BranchDecision::on(var, x)
}

/// Picks a branching variable among `candidates` (must be non-empty).
///
/// * `MostFractional`: maximize distance to the nearest integer.
/// * `PseudoCost`: maximize the product of estimated up/down degradations
///   (falling back to `|c_j|+1` until observations exist).
pub fn decide(
    rule: BranchRule,
    instance: &MipInstance,
    x: &[f64],
    candidates: &[usize],
    pseudo: &PseudoCosts,
) -> BranchDecision {
    assert!(!candidates.is_empty(), "branching on an integral point");
    let var = match rule {
        BranchRule::Strong | BranchRule::MostFractional => return most_fractional(x, candidates),
        BranchRule::PseudoCost => candidates
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let score = |j: usize| {
                    let fallback = instance.vars[j].obj.abs() + 1.0;
                    let f = x[j] - x[j].floor();
                    let up = pseudo.mean(j, true, fallback) * (1.0 - f);
                    let down = pseudo.mean(j, false, fallback) * f;
                    // Standard product score with small linear stabilizer.
                    up * down + 1e-6 * (up + down)
                };
                score(a)
                    .partial_cmp(&score(b))
                    .expect("scores are never NaN")
                    .then(b.cmp(&a))
            })
            .expect("non-empty candidates"),
    };
    BranchDecision::on(var, x)
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
        let m = figure1_knapsack();
        let x = [0.9, 0.5, 0.2, 0.0];
        let d = decide(
            BranchRule::MostFractional,
            &m,
            &x,
            &[0, 1, 2],
            &PseudoCosts::default(),
        );
        assert_eq!(d.var, 1);
        assert_eq!(d.down_ub, 0.0);
        assert_eq!(d.up_lb, 1.0);
        assert_eq!(d.value, 0.5);
    }

    #[test]
    fn pseudocost_prefers_learned_impact() {
        let m = figure1_knapsack();
        let x = [0.5, 0.5, 0.0, 0.0];
        let mut pc = PseudoCosts::default();
        // Make variable 1 look very impactful.
        pc.record(1, true, 50.0, 0.5);
        pc.record(1, false, 50.0, 0.5);
        // And variable 0 weak.
        pc.record(0, true, 0.01, 0.5);
        pc.record(0, false, 0.01, 0.5);
        let d = decide(BranchRule::PseudoCost, &m, &x, &[0, 1], &pc);
        assert_eq!(d.var, 1);
        assert_eq!(pc.observations(), 4);
    }

    #[test]
    fn pseudocost_fallback_uses_objective() {
        // No observations: fallback |c|+1 → picks the largest-objective var
        // among equally fractional candidates (x0 with c=10).
        let m = figure1_knapsack();
        let x = [0.5, 0.5, 0.5, 0.5];
        let d = decide(
            BranchRule::PseudoCost,
            &m,
            &x,
            &[0, 1, 2, 3],
            &PseudoCosts::default(),
        );
        assert_eq!(d.var, 0);
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panic() {
        let m = figure1_knapsack();
        decide(
            BranchRule::MostFractional,
            &m,
            &[0.0; 4],
            &[],
            &PseudoCosts::default(),
        );
    }
}
