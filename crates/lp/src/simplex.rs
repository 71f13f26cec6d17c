//! The primal bounded-variable revised simplex driver.
//!
//! Engine-agnostic: every numerical step goes through
//! [`SimplexEngine`], so the same driver runs on the host reference engine
//! and on the simulated device (Section 5.1's GPU-resident iteration).
//! Pricing is Dantzig (most negative σ-weighted reduced cost) with a Bland
//! fallback after a run of degenerate pivots; the basis is refactorized
//! every [`PrimalConfig::refactor_every`] eta updates.

use crate::basis::{Basis, VarStatus};
use crate::engine::{apply_primal_step, enter, PrimalRun, ProblemView, SimplexEngine};
use crate::{LpError, LpResult};
use gmip_linalg::pivot;
use gmip_trace::{names, Event, MetricsRegistry, Track};

/// Entering-variable pricing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Most negative σ-weighted reduced cost. Cheapest per iteration; can
    /// stall on degenerate problems.
    #[default]
    Dantzig,
    /// Devex reference weights: maximizes `d²/γ`. One extra BTRAN row +
    /// weight-update kernel per pivot, typically far fewer iterations on
    /// degenerate LPs.
    Devex,
}

/// Tuning knobs of the primal driver.
#[derive(Debug, Clone)]
pub struct PrimalConfig {
    /// Reduced-cost tolerance: scores above `-price_tol` count as optimal.
    pub price_tol: f64,
    /// Pivot-element tolerance in ratio tests.
    pub ratio_tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Refactorize after this many eta updates.
    pub refactor_every: usize,
    /// Switch to Bland's rule after this many consecutive degenerate pivots.
    pub bland_after: usize,
    /// Entering-variable pricing rule.
    pub pricing: PricingRule,
}

impl Default for PrimalConfig {
    fn default() -> Self {
        Self {
            price_tol: 1e-7,
            ratio_tol: 1e-9,
            max_iters: 20_000,
            refactor_every: 60,
            bland_after: 40,
            pricing: PricingRule::Dantzig,
        }
    }
}

/// Terminal outcome of a primal run (errors are separate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimalOutcome {
    /// No column prices out: the basis is optimal.
    Optimal,
    /// An improving direction has no blocking bound: the LP is unbounded.
    Unbounded {
        /// The entering column that witnessed unboundedness.
        entering: usize,
    },
}

/// Runs the primal simplex from `basis` (which must be primal feasible);
/// mutates `basis` in place and returns the outcome plus iteration count.
pub fn primal_solve<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &mut Basis,
    cfg: &PrimalConfig,
) -> LpResult<(PrimalOutcome, usize)> {
    primal_solve_traced(engine, view, basis, cfg, &mut MetricsRegistry::new())
}

/// [`primal_solve`] with instrumentation: iterations and mid-run
/// refactorizations are accumulated into `metrics` (`lp.*` keys), and each
/// refactorization lands as an instant on the LP trace track when the
/// engine has a simulated clock.
pub fn primal_solve_traced<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &mut Basis,
    cfg: &PrimalConfig,
    metrics: &mut MetricsRegistry,
) -> LpResult<(PrimalOutcome, usize)> {
    let mut run = PrimalRun::default();
    let out = engine
        .install(view, basis)
        .and_then(|()| primal_from(engine, view, basis, cfg, metrics, &mut run));
    if matches!(out, Ok(_) | Err(LpError::IterationLimit { .. })) {
        metrics.incr(names::LP_ITERATIONS, run.iters as f64);
    }
    out.map(|outcome| (outcome, run.iters))
}

/// Marks a mid-run refactorization: bumps the counter and drops an instant
/// event on the LP track at the engine's simulated-time frontier.
pub(crate) fn note_refactorization<E: SimplexEngine>(engine: &E, metrics: &mut MetricsRegistry) {
    metrics.incr(names::LP_REFACTORIZATIONS, 1.0);
    if let Some(ts) = engine.sim_now_ns() {
        gmip_trace::record(|| Event::instant(Track::lp(), "refactorize", ts));
    }
}

/// The primal loop from an installed basis, going on from where `run`
/// stands: [`SimplexEngine::primal_run`] up to each refactorization, and
/// Bland's rule, iteration by iteration on the host, while the degenerate
/// streak calls for it.
pub(crate) fn primal_from<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &mut Basis,
    cfg: &PrimalConfig,
    metrics: &mut MetricsRegistry,
    run: &mut PrimalRun,
) -> LpResult<PrimalOutcome> {
    while run.open(cfg) {
        if engine.eta_count() >= cfg.refactor_every {
            engine.install(view, basis)?;
            note_refactorization(engine, metrics);
        }
        if run.bland(cfg) {
            bland_iteration(engine, view, basis, cfg, run)?;
        } else {
            engine.primal_run(view, basis, cfg, run)?;
        }
    }
    run.outcome.ok_or(LpError::IterationLimit {
        iterations: cfg.max_iters,
    })
}

/// One iteration under Bland's rule, primitive by primitive: the column on
/// the host, then its FTRAN, the ratio test and the step.
fn bland_iteration<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &mut Basis,
    cfg: &PrimalConfig,
    run: &mut PrimalRun,
) -> LpResult<()> {
    let Some(q) = bland_entering(engine, view, basis, cfg.price_tol)? else {
        run.outcome = Some(PrimalOutcome::Optimal);
        return Ok(());
    };
    let (dir, limit) = enter(engine, basis, q, cfg.ratio_tol)?;
    let step = pivot::primal_step((q, dir), limit, &basis.cols, [view.c, view.lb, view.ub]);
    match apply_primal_step(engine, basis, (q, dir), step, false)? {
        None => run.outcome = Some(PrimalOutcome::Unbounded { entering: q }),
        Some(t) => {
            run.step(t, cfg);
        }
    }
    Ok(())
}

/// Bland's rule: the lowest-index eligible improving column. Requires the
/// full reduced-cost vector on the host (an honest transfer on the device
/// engine) but guarantees termination under degeneracy.
fn bland_entering<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &Basis,
    tol: f64,
) -> LpResult<Option<usize>> {
    let d = engine.reduced_costs_host()?;
    for j in 0..d.len() {
        if view.lb[j] == view.ub[j] {
            continue; // fixed: never eligible
        }
        match basis.status[j] {
            VarStatus::Basic(_) => continue,
            VarStatus::AtLower if d[j] > tol => return Ok(Some(j)),
            VarStatus::AtUpper if d[j] < -tol => return Ok(Some(j)),
            _ => {}
        }
    }
    Ok(None)
}

/// Assembles the full primal point from a basis and the engine's basic
/// values: nonbasic variables sit at their status bound.
pub fn assemble_point<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &Basis,
) -> LpResult<Vec<f64>> {
    let xb = engine.basic_values()?;
    let mut x = vec![0.0; basis.n()];
    for (j, s) in basis.status.iter().enumerate() {
        x[j] = match s {
            VarStatus::Basic(i) => xb[*i],
            VarStatus::AtLower => view.lb[j],
            VarStatus::AtUpper => view.ub[j],
        };
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HostEngine;
    use gmip_linalg::DenseMatrix;

    /// max 3x0 + 2x1 s.t. x0 + x2 = 4, x1 + x3 = 3, x0 ≤ 4 via row, x1 ≤ 3.
    /// Optimum: x0 = 4, x1 = 3, obj = 18.
    #[test]
    fn separable_problem_reaches_both_bounds() {
        let a =
            DenseMatrix::from_rows(&[vec![1.0, 0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]]).unwrap();
        let mut engine = HostEngine::new(a);
        let mut basis = Basis::with_basic_cols(vec![2, 3], 4);
        let c = [3.0, 2.0, 0.0, 0.0];
        let lb = [0.0; 4];
        let ub = [f64::INFINITY; 4];
        let b = [4.0, 3.0];
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let (outcome, iters) =
            primal_solve(&mut engine, view, &mut basis, &Default::default()).unwrap();
        assert_eq!(outcome, PrimalOutcome::Optimal);
        assert!(iters <= 4);
        let x = assemble_point(&mut engine, view, &basis).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    /// The textbook LP: max 5x + 4y, 6x + 4y ≤ 24, x + 2y ≤ 6 → (3, 1.5), 21.
    #[test]
    fn textbook_lp_optimum() {
        let a =
            DenseMatrix::from_rows(&[vec![6.0, 4.0, 1.0, 0.0], vec![1.0, 2.0, 0.0, 1.0]]).unwrap();
        let mut engine = HostEngine::new(a);
        let mut basis = Basis::with_basic_cols(vec![2, 3], 4);
        let c = [5.0, 4.0, 0.0, 0.0];
        let lb = [0.0; 4];
        let ub = [f64::INFINITY; 4];
        let b = [24.0, 6.0];
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let (outcome, _) =
            primal_solve(&mut engine, view, &mut basis, &Default::default()).unwrap();
        assert_eq!(outcome, PrimalOutcome::Optimal);
        let x = assemble_point(&mut engine, view, &basis).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-9, "x = {x:?}");
        assert!((x[1] - 1.5).abs() < 1e-9);
        let obj: f64 = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
        assert!((obj - 21.0).abs() < 1e-9);
    }

    /// Unboundedness: max x with x − s = 0 (s free upward).
    #[test]
    fn unbounded_detected() {
        let a = DenseMatrix::from_rows(&[vec![1.0, -1.0]]).unwrap();
        let mut engine = HostEngine::new(a);
        let mut basis = Basis::with_basic_cols(vec![1], 2);
        let c = [1.0, 0.0];
        let lb = [0.0, 0.0];
        let ub = [f64::INFINITY, f64::INFINITY];
        let b = [0.0];
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let (outcome, _) =
            primal_solve(&mut engine, view, &mut basis, &Default::default()).unwrap();
        assert!(matches!(outcome, PrimalOutcome::Unbounded { entering: 0 }));
    }

    /// Bounded variables force a bound flip: max x0 + x1 with x0 ≤ 1 (ub),
    /// x1 slack-bounded. x0 has no matrix interaction that blocks it below
    /// its own upper bound, so it flips to ub without a pivot.
    #[test]
    fn bound_flip_used() {
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0, 1.0]]).unwrap();
        let mut engine = HostEngine::new(a);
        let mut basis = Basis::with_basic_cols(vec![2], 3);
        let c = [1.0, 1.0, 0.0];
        let lb = [0.0, 0.0, 0.0];
        let ub = [1.0, f64::INFINITY, f64::INFINITY];
        let b = [5.0];
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let (outcome, _) =
            primal_solve(&mut engine, view, &mut basis, &Default::default()).unwrap();
        assert_eq!(outcome, PrimalOutcome::Optimal);
        assert_eq!(basis.status[0], VarStatus::AtUpper);
        let x = assemble_point(&mut engine, view, &basis).unwrap();
        assert_eq!(x[0], 1.0);
        assert!((x[1] - 5.0).abs() < 1e-9);
    }

    /// Fixed variables (lb == ub) are never selected for entering.
    #[test]
    fn fixed_variables_excluded() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let mut engine = HostEngine::new(a);
        let mut basis = Basis::with_basic_cols(vec![1], 2);
        let c = [100.0, 0.0]; // hugely attractive but fixed
        let lb = [2.0, 0.0];
        let ub = [2.0, f64::INFINITY];
        let b = [10.0];
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let (outcome, iters) =
            primal_solve(&mut engine, view, &mut basis, &Default::default()).unwrap();
        assert_eq!(outcome, PrimalOutcome::Optimal);
        assert_eq!(iters, 0);
        let x = assemble_point(&mut engine, view, &basis).unwrap();
        assert_eq!(x[0], 2.0);
        assert!((x[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_limit_enforced() {
        let a =
            DenseMatrix::from_rows(&[vec![6.0, 4.0, 1.0, 0.0], vec![1.0, 2.0, 0.0, 1.0]]).unwrap();
        let mut engine = HostEngine::new(a);
        let mut basis = Basis::with_basic_cols(vec![2, 3], 4);
        let c = [5.0, 4.0, 0.0, 0.0];
        let lb = [0.0; 4];
        let ub = [f64::INFINITY; 4];
        let b = [24.0, 6.0];
        let cfg = PrimalConfig {
            max_iters: 1,
            ..Default::default()
        };
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        assert!(matches!(
            primal_solve(&mut engine, view, &mut basis, &cfg),
            Err(LpError::IterationLimit { iterations: 1 })
        ));
    }
}
