//! Primal heuristics.
//!
//! Part of the paper's Strategy 3 ("the ease of implementing advanced
//! heuristics such as probing, cut generation, column generation" on the
//! host while the device carries the LP loads). Both heuristics here run
//! host-side; diving's LP re-solves go through whatever engine the solver
//! uses, so its device cost is charged naturally.

use gmip_lp::{BoundChange, LpResult, LpSolver, LpStatus, SimplexEngine};
use gmip_problems::MipInstance;

/// Rounds the integral variables of `x` and verifies instance feasibility,
/// returning the best feasible `(objective_source_sense, point)` found.
///
/// Three roundings are tried: nearest (good for packing-style ≤ rows),
/// ceiling (repairs covering-style ≥ rows, where rounding down breaks
/// feasibility), and floor. Among the feasible ones the best objective in
/// the instance's own sense is returned.
pub fn rounding(instance: &MipInstance, x: &[f64], tol: f64) -> Option<(f64, Vec<f64>)> {
    let integral = instance.integral_indices();
    let mut best: Option<(f64, Vec<f64>)> = None;
    for mode in 0..3u8 {
        let mut p = x.to_vec();
        for &j in &integral {
            p[j] = match mode {
                0 => p[j].round(),
                1 => p[j].ceil().min(instance.vars[j].ub),
                _ => p[j].floor().max(instance.vars[j].lb),
            };
        }
        if instance.is_integer_feasible(&p, tol) {
            let obj = instance.objective_value(&p);
            let better = match &best {
                None => true,
                Some((cur, _)) => instance.is_better(obj, *cur),
            };
            if better {
                best = Some((obj, p));
            }
        }
    }
    best
}

/// Diving heuristic: from the current LP solution, repeatedly fix the
/// least-fractional integral variable to its rounded value and warm
/// re-solve, until an integral point is reached, the LP goes infeasible, or
/// `max_depth` fixings have been made.
///
/// The solver's bounds are left modified; callers re-apply node bounds
/// before the next node evaluation (which the branch-and-bound loop does
/// anyway).
pub fn dive<E: SimplexEngine>(
    lp: &mut LpSolver<E>,
    instance: &MipInstance,
    node_bounds: &[BoundChange],
    start_x: &[f64],
    max_depth: usize,
    int_tol: f64,
) -> LpResult<Option<(f64, Vec<f64>)>> {
    let mut x = start_x.to_vec();
    let integral = instance.integral_indices();
    for _ in 0..max_depth {
        // Find the least-fractional fractional variable (most roundable).
        let frac_vars = crate::branch::fractional_vars(&integral, &x, int_tol);
        if frac_vars.is_empty() {
            // Integral: verify and report (restoring the node's bounds).
            lp.apply_node_bounds(node_bounds)?;
            return Ok(rounding(instance, &x, 1e-6));
        }
        let j = frac_vars
            .into_iter()
            .min_by(|&a, &b| {
                let fa = (x[a] - x[a].round()).abs();
                let fb = (x[b] - x[b].round()).abs();
                fa.partial_cmp(&fb).expect("fractionality is never NaN")
            })
            .expect("non-empty");
        let target = x[j].round();
        lp.set_var_bounds(j, target, target)?;
        let sol = lp.resolve()?;
        match sol.status {
            LpStatus::Optimal => x = sol.x,
            _ => {
                // Dead end: restore node bounds and give up.
                lp.apply_node_bounds(node_bounds)?;
                return Ok(None);
            }
        }
    }
    lp.apply_node_bounds(node_bounds)?;
    Ok(rounding(instance, &x, 1e-6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_lp::{HostEngine, LpConfig, StandardLp};
    use gmip_problems::catalog::{figure1_knapsack, textbook_mip};

    #[test]
    fn rounding_accepts_feasible_roundings() {
        let m = figure1_knapsack();
        // LP-ish point: x0 = 1, x2 = 0.999, rest 0 → rounds to (1,0,1,0),
        // weight 8 ≤ 8 feasible, value 14.
        let got = rounding(&m, &[1.0, 0.0, 0.999, 0.0], 1e-6).unwrap();
        assert_eq!(got.0, 14.0);
        assert_eq!(got.1, vec![1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn rounding_rejects_infeasible_roundings() {
        let m = figure1_knapsack();
        // (1, 1, 0.6, 0) rounds to (1,1,1,0): weight 12 > 8.
        assert!(rounding(&m, &[1.0, 1.0, 0.6, 0.0], 1e-6).is_none());
    }

    #[test]
    fn dive_finds_integer_point() {
        let m = textbook_mip();
        let std = StandardLp::from_instance(&m, &[]);
        let mut lp = LpSolver::new(std, LpConfig::standard(), |a| HostEngine::new(a.clone()));
        let root = lp.solve().unwrap();
        assert_eq!(root.status, gmip_lp::LpStatus::Optimal);
        let found = dive(&mut lp, &m, &[], &root.x, 10, 1e-6).unwrap();
        let (obj, p) = found.expect("dive should land on an integer point");
        assert!(m.is_integer_feasible(&p, 1e-6));
        // Any integer-feasible objective is a valid incumbent; optimum is 20.
        assert!(obj <= 20.0 + 1e-9);
        assert!(obj > 0.0);
    }

    #[test]
    fn dive_depth_zero_rounds_only() {
        let m = textbook_mip();
        let std = StandardLp::from_instance(&m, &[]);
        let mut lp = LpSolver::new(std, LpConfig::standard(), |a| HostEngine::new(a.clone()));
        let root = lp.solve().unwrap();
        // Depth 0: no fixings, just a rounding attempt on the root point.
        // Whatever comes back must be genuinely feasible and no better than
        // the true optimum (20).
        let found = dive(&mut lp, &m, &[], &root.x, 0, 1e-6).unwrap();
        if let Some((obj, p)) = found {
            assert!(m.is_integer_feasible(&p, 1e-6));
            assert!(obj <= 20.0 + 1e-9);
        }
    }
}
