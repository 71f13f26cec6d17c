//! The dual simplex driver.
//!
//! This is the warm-start workhorse of branch-and-cut (Sections 5.2, 5.3):
//! after a branching bound change or an appended cut, the parent's optimal
//! basis stays *dual* feasible while the primal point may violate a bound.
//! The dual simplex repairs primal feasibility in a handful of pivots
//! instead of re-solving from scratch — on the device engine this reuses
//! the device-resident matrix with zero matrix transfer, which is exactly
//! the reuse pattern the paper prescribes.

use crate::basis::Basis;
use crate::engine::{ProblemView, Progress, SimplexEngine};
use crate::simplex::{note_refactorization, PrimalConfig};
use crate::{LpError, LpResult};
use gmip_trace::MetricsRegistry;

/// Terminal outcome of a dual run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualOutcome {
    /// All basic variables are within bounds — the point is primal feasible
    /// (and optimal, if dual feasibility was maintained).
    PrimalFeasible,
    /// The dual is unbounded ⇒ the primal LP is infeasible. The payload
    /// identifies the certifying pivot row so a Farkas witness can be
    /// extracted: `row` is the leaving row whose dual ratio test found no
    /// entering column, `below` whether its basic variable violated its
    /// lower (vs upper) bound.
    Infeasible {
        /// Leaving row of the terminal dual iteration.
        row: usize,
        /// `true` if the row's basic variable was below its lower bound.
        below: bool,
    },
}

/// Tuning knobs of the dual driver (reuses the primal's tolerances).
#[derive(Debug, Clone)]
pub struct DualConfig {
    /// Shared tolerances and limits.
    pub base: PrimalConfig,
    /// Bound-violation tolerance for selecting the leaving row.
    pub feas_tol: f64,
}

impl DualConfig {
    /// Default configuration (feasibility tolerance 1e-7).
    pub fn standard() -> Self {
        Self {
            base: PrimalConfig::default(),
            feas_tol: 1e-7,
        }
    }
}

/// Runs the dual simplex from `basis`, which must be dual feasible (e.g. a
/// previously optimal basis after bound changes or cut rows). Mutates
/// `basis`; returns the outcome and iteration count.
pub fn dual_solve<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &mut Basis,
    cfg: &DualConfig,
) -> LpResult<(DualOutcome, usize)> {
    let mut at = Progress::default();
    let out = dual_loop(
        engine,
        view,
        basis,
        cfg,
        None,
        &mut at,
        &mut MetricsRegistry::new(),
    );
    out.map(|outcome| (outcome, at.dual))
}

/// The dual loop: an install, then [`SimplexEngine::dual_run`] up to each
/// refactorization, its pivots counted into `at`, mid-run refactorizations
/// into `metrics`. With `polish`, the run that ends feasible goes on into
/// the primal polish in the same call ([`Progress::polish`]).
pub(crate) fn dual_loop<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &mut Basis,
    cfg: &DualConfig,
    polish: Option<&PrimalConfig>,
    at: &mut Progress,
    metrics: &mut MetricsRegistry,
) -> LpResult<DualOutcome> {
    engine.install(view, basis)?;
    while at.dual < cfg.base.max_iters {
        if engine.eta_count() >= cfg.base.refactor_every {
            engine.install(view, basis)?;
            note_refactorization(engine, metrics);
        }
        if let Some(outcome) = engine.dual_run(view, basis, cfg, polish, at)? {
            return Ok(outcome);
        }
    }
    Err(LpError::IterationLimit {
        iterations: cfg.base.max_iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HostEngine;
    use crate::simplex::{assemble_point, primal_solve, PrimalOutcome};
    use gmip_linalg::DenseMatrix;

    /// Solve the textbook LP to optimality, then tighten a bound and repair
    /// with the dual simplex; the result must match a from-scratch solve.
    #[test]
    fn dual_repairs_bound_tightening() {
        let a =
            DenseMatrix::from_rows(&[vec![6.0, 4.0, 1.0, 0.0], vec![1.0, 2.0, 0.0, 1.0]]).unwrap();
        let c = [5.0, 4.0, 0.0, 0.0];
        let b = [24.0, 6.0];
        let lb = [0.0; 4];
        let ub = [f64::INFINITY; 4];

        let mut engine = HostEngine::new(a.clone());
        let mut basis = Basis::with_basic_cols(vec![2, 3], 4);
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        primal_solve(&mut engine, view, &mut basis, &Default::default()).unwrap();
        // Optimum (3, 1.5). Tighten x0 ≤ 2 (a "branch down" on x0).
        let ub2 = [2.0, f64::INFINITY, f64::INFINITY, f64::INFINITY];
        let view2 = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub2,
            b: &b,
        };
        let (outcome, iters) =
            dual_solve(&mut engine, view2, &mut basis, &DualConfig::standard()).unwrap();
        assert_eq!(outcome, DualOutcome::PrimalFeasible);
        assert!(iters >= 1, "must have repaired at least one violation");
        let x = assemble_point(&mut engine, view2, &basis).unwrap();
        // New optimum: x0 = 2, then x1 = min((24-12)/4, (6-2)/2) = 2 → obj 18.
        assert!((x[0] - 2.0).abs() < 1e-9, "x = {x:?}");
        assert!((x[1] - 2.0).abs() < 1e-9);
        // Verify optimality by a primal pass: zero further iterations.
        let (o2, i2) = primal_solve(&mut engine, view2, &mut basis, &Default::default()).unwrap();
        assert_eq!(o2, PrimalOutcome::Optimal);
        assert_eq!(i2, 0);
    }

    /// Branching to an empty box: x0 ≥ 5 with 6x0 ≤ 24 → x0 ≤ 4 <
    /// 5 ⇒ infeasible, detected by dual unboundedness.
    #[test]
    fn dual_detects_infeasibility() {
        let a = DenseMatrix::from_rows(&[vec![6.0, 1.0]]).unwrap();
        let c = [5.0, 0.0];
        let b = [24.0];
        let lb = [0.0, 0.0];
        let ub = [f64::INFINITY, f64::INFINITY];
        let mut engine = HostEngine::new(a);
        let mut basis = Basis::with_basic_cols(vec![1], 2);
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        primal_solve(&mut engine, view, &mut basis, &Default::default()).unwrap();
        // Force x0 ∈ [5, 10]: impossible.
        let lb2 = [5.0, 0.0];
        let ub2 = [10.0, f64::INFINITY];
        let view2 = ProblemView {
            c: &c,
            lb: &lb2,
            ub: &ub2,
            b: &b,
        };
        let (outcome, _) =
            dual_solve(&mut engine, view2, &mut basis, &DualConfig::standard()).unwrap();
        assert!(matches!(outcome, DualOutcome::Infeasible { .. }));
    }

    /// A dual start that is already primal feasible terminates immediately.
    #[test]
    fn feasible_start_is_no_op() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let c = [1.0, 0.0];
        let b = [4.0];
        let lb = [0.0, 0.0];
        let ub = [f64::INFINITY, f64::INFINITY];
        let mut engine = HostEngine::new(a);
        let mut basis = Basis::with_basic_cols(vec![1], 2);
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let (outcome, iters) =
            dual_solve(&mut engine, view, &mut basis, &DualConfig::standard()).unwrap();
        assert_eq!(outcome, DualOutcome::PrimalFeasible);
        assert_eq!(iters, 0);
    }
}
