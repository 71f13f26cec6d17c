//! Presolve: bound propagation, redundant-row elimination, and variable
//! fixing before the branch-and-cut search.
//!
//! Every CPU solver the paper benchmarks against (SCIP, Gurobi, Xpress)
//! leads with presolve, and it matters doubly on an accelerated platform:
//! each fixed variable shrinks the matrix that must be shipped to and kept
//! on the device (Section 3's memory-regime arithmetic), and each dropped
//! row shrinks every basis factorization. The techniques here are the
//! classic safe ones:
//!
//! * **activity-based row analysis** — rows whose worst-case activity can
//!   never violate them are dropped; rows that can never be satisfied prove
//!   infeasibility;
//! * **bound propagation** — per-row residual activities tighten variable
//!   bounds (with integral rounding — a lightweight form of the "probing"
//!   the paper lists among host-side techniques);
//! * **variable fixing** — variables whose bounds collapse are substituted
//!   out of the problem.
//!
//! All reductions are optimality-preserving; [`PresolveResult::postsolve`]
//! maps a reduced-space solution back to the original variables.

use gmip_problems::{Constraint, MipInstance, Sense};
use gmip_prop::{activity, tighten_row};

const TOL: f64 = 1e-9;

/// The outcome of presolving an instance.
#[derive(Debug, Clone)]
pub struct PresolveResult {
    /// The reduced instance (valid only when `infeasible` is false).
    pub reduced: MipInstance,
    /// Proven infeasible during propagation.
    pub infeasible: bool,
    /// `(original_index, value)` for every fixed variable.
    pub fixed: Vec<(usize, f64)>,
    /// `kept[reduced_j]` = original index of reduced variable `j`.
    pub kept: Vec<usize>,
    /// Rows removed as redundant.
    pub rows_dropped: usize,
    /// Strict bound tightenings applied.
    pub bounds_tightened: usize,
}

impl PresolveResult {
    /// Maps a reduced-space point back to the original variable space.
    pub fn postsolve(&self, x_reduced: &[f64]) -> Vec<f64> {
        assert_eq!(x_reduced.len(), self.kept.len(), "reduced dimension");
        let n = self.kept.len() + self.fixed.len();
        let mut x = vec![0.0; n];
        for (j, &orig) in self.kept.iter().enumerate() {
            x[orig] = x_reduced[j];
        }
        for &(orig, v) in &self.fixed {
            x[orig] = v;
        }
        x
    }

    /// Number of variables eliminated.
    pub fn vars_fixed(&self) -> usize {
        self.fixed.len()
    }
}

/// Presolves `instance` with up to `max_rounds` propagation rounds.
pub fn presolve(instance: &MipInstance, max_rounds: usize) -> PresolveResult {
    let n = instance.num_vars();
    let mut lb: Vec<f64> = instance.vars.iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = instance.vars.iter().map(|v| v.ub).collect();
    let integral: Vec<bool> = instance.vars.iter().map(|v| v.ty.is_integral()).collect();
    let mut redundant = vec![false; instance.num_cons()];
    let mut bounds_tightened = 0usize;
    let mut infeasible = false;

    'rounds: for _ in 0..max_rounds {
        let mut changed = false;
        for (ci, con) in instance.cons.iter().enumerate() {
            if redundant[ci] {
                continue;
            }
            let (min_act, max_act) = activity(&con.coeffs, &lb, &ub);
            // Redundancy: the row's worst-case activity can never violate
            // it (such a row is never also infeasible).
            let redundant_row = match con.sense {
                Sense::Le => max_act <= con.rhs + TOL,
                Sense::Ge => min_act >= con.rhs - TOL,
                Sense::Eq => false,
            };
            if redundant_row {
                redundant[ci] = true;
                changed = true;
                continue;
            }
            // Feasibility and bound propagation: the sweep's row step.
            let act = (min_act, max_act);
            match tighten_row(con, &integral, act, &mut lb, &mut ub, &mut bounds_tightened) {
                None => {
                    infeasible = true;
                    break 'rounds;
                }
                Some(moved) => changed |= moved,
            }
        }
        if !changed {
            break;
        }
    }

    if infeasible {
        return PresolveResult {
            reduced: instance.clone(),
            infeasible: true,
            fixed: Vec::new(),
            kept: (0..n).collect(),
            rows_dropped: 0,
            bounds_tightened,
        };
    }

    // Fix collapsed variables.
    let mut fixed: Vec<(usize, f64)> = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    let mut new_index = vec![usize::MAX; n];
    for j in 0..n {
        if (ub[j] - lb[j]).abs() <= 1e-9 {
            let v = if integral[j] { lb[j].round() } else { lb[j] };
            fixed.push((j, v));
        } else {
            new_index[j] = kept.len();
            kept.push(j);
        }
    }

    // Rebuild the reduced instance.
    let mut reduced = MipInstance::new(format!("{}-presolved", instance.name), instance.objective);
    for &orig in &kept {
        let mut v = instance.vars[orig].clone();
        v.lb = lb[orig];
        v.ub = ub[orig];
        reduced.add_var(v);
    }
    let mut rows_dropped = 0usize;
    for (ci, con) in instance.cons.iter().enumerate() {
        if redundant[ci] {
            rows_dropped += 1;
            continue;
        }
        let mut rhs = con.rhs;
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for &(j, a) in &con.coeffs {
            if new_index[j] == usize::MAX {
                let v = fixed
                    .iter()
                    .find(|&&(orig, _)| orig == j)
                    .map(|&(_, v)| v)
                    .expect("fixed variable recorded");
                rhs -= a * v;
            } else {
                coeffs.push((new_index[j], a));
            }
        }
        if coeffs.is_empty() {
            // Fully substituted row: constant feasibility check.
            let ok = match con.sense {
                Sense::Le => 0.0 <= rhs + 1e-7,
                Sense::Ge => 0.0 >= rhs - 1e-7,
                Sense::Eq => rhs.abs() <= 1e-7,
            };
            if !ok {
                return PresolveResult {
                    reduced: instance.clone(),
                    infeasible: true,
                    fixed,
                    kept,
                    rows_dropped,
                    bounds_tightened,
                };
            }
            rows_dropped += 1;
            continue;
        }
        reduced.add_con(Constraint::new(con.name.clone(), coeffs, con.sense, rhs));
    }

    PresolveResult {
        reduced,
        infeasible: false,
        fixed,
        kept,
        rows_dropped,
        bounds_tightened,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MipConfig, MipSolver, MipStatus};
    use gmip_problems::catalog::{infeasible_instance, small_suite};
    use gmip_problems::{Objective, Variable};

    /// Presolve, solve the reduced instance on the host baseline, postsolve:
    /// `(status, objective, x)` in the original space.
    fn solve_host_with_presolve(instance: &MipInstance) -> (MipStatus, f64, Vec<f64>) {
        let infeasible = (MipStatus::Infeasible, f64::NAN, Vec::new());
        let pre = presolve(instance, 5);
        if pre.infeasible {
            return infeasible;
        }
        let x = if pre.kept.is_empty() {
            // Everything fixed: the remaining point is the only candidate.
            pre.postsolve(&[])
        } else {
            let r = MipSolver::host_baseline(pre.reduced.clone(), MipConfig::default())
                .solve()
                .expect("presolved");
            if r.status != MipStatus::Optimal {
                return (r.status, f64::NAN, Vec::new());
            }
            pre.postsolve(&r.x)
        };
        if !instance.is_integer_feasible(&x, 1e-6) {
            return infeasible;
        }
        (MipStatus::Optimal, instance.objective_value(&x), x)
    }

    #[test]
    fn redundant_rows_dropped() {
        let mut m = MipInstance::new("red", Objective::Maximize);
        m.add_var(Variable::binary("x", 1.0));
        m.add_var(Variable::binary("y", 1.0));
        // x + y ≤ 5 can never bind for binaries: redundant.
        m.add_con(Constraint::new(
            "loose",
            vec![(0, 1.0), (1, 1.0)],
            Sense::Le,
            5.0,
        ));
        // x + y ≤ 1 binds.
        m.add_con(Constraint::new(
            "tight",
            vec![(0, 1.0), (1, 1.0)],
            Sense::Le,
            1.0,
        ));
        let pre = presolve(&m, 3);
        assert!(!pre.infeasible);
        assert_eq!(pre.rows_dropped, 1);
        assert_eq!(pre.reduced.num_cons(), 1);
        assert_eq!(pre.reduced.num_vars(), 2);
    }

    #[test]
    fn bound_propagation_fixes_binaries() {
        let mut m = MipInstance::new("fix", Objective::Maximize);
        m.add_var(Variable::binary("x", 1.0));
        m.add_var(Variable::binary("y", 1.0));
        // 3x + y ≤ 2 forces x = 0 (x = 1 needs activity ≥ 3).
        m.add_con(Constraint::new(
            "c",
            vec![(0, 3.0), (1, 1.0)],
            Sense::Le,
            2.0,
        ));
        let pre = presolve(&m, 3);
        assert!(!pre.infeasible);
        assert_eq!(pre.vars_fixed(), 1);
        assert_eq!(pre.fixed[0], (0, 0.0));
        // The reduced instance has y only; the row became y ≤ 2 → redundant.
        assert_eq!(pre.reduced.num_vars(), 1);
        // Postsolve maps back.
        let x = pre.postsolve(&[1.0]);
        assert_eq!(x, vec![0.0, 1.0]);
    }

    #[test]
    fn infeasibility_detected() {
        let pre = presolve(&infeasible_instance(), 3);
        assert!(pre.infeasible);
    }

    #[test]
    fn ge_rows_force_fixings() {
        let mut m = MipInstance::new("force", Objective::Minimize);
        m.add_var(Variable::binary("x", 1.0));
        m.add_var(Variable::binary("y", 1.0));
        // x + y ≥ 2 forces both to 1.
        m.add_con(Constraint::new(
            "c",
            vec![(0, 1.0), (1, 1.0)],
            Sense::Ge,
            2.0,
        ));
        let pre = presolve(&m, 3);
        assert!(!pre.infeasible);
        assert_eq!(pre.vars_fixed(), 2);
        let x = pre.postsolve(&[]);
        assert_eq!(x, vec![1.0, 1.0]);
    }

    #[test]
    fn presolved_solves_match_direct_across_suite() {
        for entry in small_suite() {
            let mut direct = MipSolver::host_baseline(entry.instance.clone(), MipConfig::default());
            let dr = direct.solve().expect("direct");
            let (status, objective, x) = solve_host_with_presolve(&entry.instance);
            assert_eq!(dr.status, status, "{}", entry.id);
            if dr.status == MipStatus::Optimal {
                assert!(
                    (dr.objective - objective).abs() < 1e-5,
                    "{}: direct {} vs presolved {}",
                    entry.id,
                    dr.objective,
                    objective
                );
                assert!(entry.instance.is_integer_feasible(&x, 1e-5), "{}", entry.id);
            }
        }
    }

    #[test]
    fn presolve_shrinks_an_easy_instance() {
        // Knapsack with one oversized item: presolve fixes it to 0.
        let mut m = MipInstance::new("big-item", Objective::Maximize);
        m.add_var(Variable::binary("huge", 100.0));
        m.add_var(Variable::binary("a", 5.0));
        m.add_var(Variable::binary("b", 4.0));
        m.add_con(Constraint::new(
            "cap",
            vec![(0, 50.0), (1, 3.0), (2, 2.0)],
            Sense::Le,
            10.0,
        ));
        let pre = presolve(&m, 3);
        assert_eq!(pre.vars_fixed(), 1);
        assert_eq!(pre.fixed[0].0, 0);
        let (status, obj, x) = solve_host_with_presolve(&m);
        assert_eq!(status, MipStatus::Optimal);
        assert_eq!(obj, 9.0);
        assert_eq!(x[0], 0.0);
    }
}
