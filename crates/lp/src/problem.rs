//! Lowering a MIP's linear relaxation to bounded-variable equality standard
//! form.
//!
//! The paper (Section 2.1): "the inequality of Ax ≤ b can be replaced with
//! equality ... with the introduction of variables y ≥ 0 to capture the
//! inequality slack. Also, upper and lower bounds, if any, on x are implicit".
//! [`StandardLp`] is that form: maximize `cᵀx` s.t. `Ax = b`, `l ≤ x ≤ u`,
//! with one slack column per inequality row, plus per-node bound overrides
//! (Section 5.3's "new bounds added for a subset of variables") and appended
//! cut rows (Section 5.2).

use gmip_linalg::DenseMatrix;
use gmip_problems::{MipInstance, Sense};

/// Bounded-variable equality-form LP: maximize `cᵀx`, `Ax = b`, `lb ≤ x ≤ ub`.
///
/// Columns are ordered: structural variables (matching the source
/// [`MipInstance`]), then one slack per inequality row, then any cut slacks
/// appended later. Equality rows get no slack.
#[derive(Debug, Clone)]
pub struct StandardLp {
    /// Equality-form constraint matrix, `m × n`.
    pub a: DenseMatrix,
    /// Right-hand side, length `m`.
    pub b: Vec<f64>,
    /// Objective (maximize), length `n`.
    pub c: Vec<f64>,
    /// Lower bounds, length `n` (may be `-inf`).
    pub lb: Vec<f64>,
    /// Upper bounds, length `n` (may be `+inf`).
    pub ub: Vec<f64>,
    /// Number of structural columns (prefix of the column order).
    pub n_structural: usize,
    /// Whether the source objective was a minimization (the lowering negates
    /// `c`, and solution objectives are negated back).
    pub negated: bool,
    /// Slack bookkeeping: `(column, row, coefficient)` for each inequality
    /// slack, in row order — used by cut generators to substitute slacks
    /// back out of tableau-derived cuts.
    pub slacks: Vec<(usize, usize, f64)>,
}

/// A per-node bound override on a structural variable — how branch decisions
/// reach the LP without touching the matrix (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundChange {
    /// Structural variable index.
    pub var: usize,
    /// New lower bound.
    pub lb: f64,
    /// New upper bound.
    pub ub: f64,
}

impl StandardLp {
    /// Lowers the LP relaxation of `mip` (integrality dropped), applying
    /// `bound_changes` on top of the instance bounds.
    pub fn from_instance(mip: &MipInstance, bound_changes: &[BoundChange]) -> Self {
        let n_structural = mip.num_vars();
        let m = mip.num_cons();
        let n_slack = mip.cons.iter().filter(|c| c.sense != Sense::Eq).count();
        let n = n_structural + n_slack;

        let mut a = DenseMatrix::zeros(m, n);
        let mut b = Vec::with_capacity(m);
        let mut c = vec![0.0; n];
        let mut lb = vec![0.0; n];
        let mut ub = vec![f64::INFINITY; n];

        let sign = if mip.objective == gmip_problems::Objective::Minimize {
            -1.0
        } else {
            1.0
        };
        for (j, v) in mip.vars.iter().enumerate() {
            c[j] = sign * v.obj;
            lb[j] = v.lb;
            ub[j] = v.ub;
        }
        for bc in bound_changes {
            debug_assert!(bc.var < n_structural);
            lb[bc.var] = bc.lb;
            ub[bc.var] = bc.ub;
        }

        let mut slack = n_structural;
        let mut slacks = Vec::new();
        for (i, con) in mip.cons.iter().enumerate() {
            for &(j, v) in &con.coeffs {
                a.set(i, j, v);
            }
            b.push(con.rhs);
            match con.sense {
                Sense::Le => {
                    // aᵀx + s = rhs, s ≥ 0.
                    a.set(i, slack, 1.0);
                    slacks.push((slack, i, 1.0));
                    slack += 1;
                }
                Sense::Ge => {
                    // aᵀx − s = rhs, s ≥ 0.
                    a.set(i, slack, -1.0);
                    slacks.push((slack, i, -1.0));
                    slack += 1;
                }
                Sense::Eq => {}
            }
        }
        debug_assert_eq!(slack, n);

        Self {
            a,
            b,
            c,
            lb,
            ub,
            n_structural,
            negated: sign < 0.0,
            slacks,
        }
    }

    /// Number of rows.
    pub fn m(&self) -> usize {
        self.b.len()
    }

    /// Number of columns (structural + slacks + cut slacks).
    pub fn n(&self) -> usize {
        self.c.len()
    }

    /// Objective value in the *source instance's* sense for a structural
    /// point (undoes the internal negation for minimize problems).
    pub fn source_objective(&self, structural_x: &[f64]) -> f64 {
        let raw: f64 = self.c[..self.n_structural]
            .iter()
            .zip(structural_x)
            .map(|(ci, xi)| ci * xi)
            .sum();
        if self.negated {
            -raw
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::catalog::{textbook_lp, textbook_mip};
    use gmip_problems::generators::unit_commitment;
    use gmip_problems::{Constraint, MipInstance, Objective, Sense as S, Variable};

    #[test]
    fn textbook_lowering() {
        let lp = StandardLp::from_instance(&textbook_lp(), &[]);
        // 2 structural + 2 slacks.
        assert_eq!(lp.n(), 4);
        assert_eq!(lp.m(), 2);
        assert_eq!(lp.n_structural, 2);
        assert!(!lp.negated);
        // Row 0: 6x + 4y + s0 = 24.
        assert_eq!(lp.a.get(0, 0), 6.0);
        assert_eq!(lp.a.get(0, 2), 1.0);
        assert_eq!(lp.a.get(0, 3), 0.0);
        assert_eq!(lp.b, vec![24.0, 6.0]);
        assert_eq!(lp.c, vec![5.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn minimize_is_negated() {
        let mut m = MipInstance::new("min", Objective::Minimize);
        m.add_var(Variable::continuous("x", 0.0, 10.0, 3.0));
        m.add_con(Constraint::new("c", vec![(0, 1.0)], S::Ge, 2.0));
        let lp = StandardLp::from_instance(&m, &[]);
        assert!(lp.negated);
        assert_eq!(lp.c[0], -3.0);
        // Ge slack has coefficient −1.
        assert_eq!(lp.a.get(0, 1), -1.0);
        // source_objective undoes negation.
        assert_eq!(lp.source_objective(&[2.0]), 6.0);
    }

    #[test]
    fn equality_rows_get_no_slack() {
        let mut m = MipInstance::new("eq", Objective::Maximize);
        m.add_var(Variable::continuous("x", 0.0, 5.0, 1.0));
        m.add_var(Variable::continuous("y", 0.0, 5.0, 1.0));
        m.add_con(Constraint::new("e", vec![(0, 1.0), (1, 1.0)], S::Eq, 3.0));
        m.add_con(Constraint::new("l", vec![(0, 2.0)], S::Le, 4.0));
        let lp = StandardLp::from_instance(&m, &[]);
        assert_eq!(lp.n(), 3); // 2 structural + 1 slack (only the Le row)
        assert_eq!(lp.a.get(0, 2), 0.0);
        assert_eq!(lp.a.get(1, 2), 1.0);
    }

    #[test]
    fn bound_changes_apply() {
        let lp = StandardLp::from_instance(
            &textbook_mip(),
            &[BoundChange {
                var: 0,
                lb: 2.0,
                ub: 3.0,
            }],
        );
        assert_eq!(lp.lb[0], 2.0);
        assert_eq!(lp.ub[0], 3.0);
        // Other bounds untouched.
        assert_eq!(lp.lb[1], 0.0);
        assert_eq!(lp.ub[1], 10.0);
    }

    #[test]
    fn mixed_instance_lowering_shape() {
        let m = unit_commitment(2, 2, 1);
        let lp = StandardLp::from_instance(&m, &[]);
        assert_eq!(lp.n_structural, m.num_vars());
        assert_eq!(lp.m(), m.num_cons());
        // All rows here are inequalities → one slack each.
        assert_eq!(lp.n(), m.num_vars() + m.num_cons());
    }
}
