//! The primal bounded-variable revised simplex driver.
//!
//! Engine-agnostic: every numerical step goes through
//! [`SimplexEngine`], so the same driver runs on the host reference engine
//! and on the simulated device (Section 5.1's GPU-resident iteration).
//! Pricing is Dantzig (most negative σ-weighted reduced cost) with a Bland
//! fallback after a run of degenerate pivots; the basis is refactorized
//! every [`PrimalConfig::refactor_every`] eta updates.

use crate::basis::{Basis, VarStatus};
use crate::engine::{enter, PivotPlan, PrimalPick, ProblemView, SimplexEngine};
use crate::{LpError, LpResult};
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
    let out = primal_loop(engine, view, basis, cfg, metrics);
    match &out {
        Ok((_, iters)) => metrics.incr(names::LP_ITERATIONS, *iters as f64),
        Err(LpError::IterationLimit { iterations }) => {
            metrics.incr(names::LP_ITERATIONS, *iterations as f64)
        }
        Err(_) => {}
    }
    out
}

/// Marks a mid-run refactorization: bumps the counter and drops an instant
/// event on the LP track at the engine's simulated-time frontier.
pub(crate) fn note_refactorization<E: SimplexEngine>(engine: &E, metrics: &mut MetricsRegistry) {
    metrics.incr(names::LP_REFACTORIZATIONS, 1.0);
    if let Some(ts) = engine.sim_now_ns() {
        gmip_trace::record(|| Event::instant(Track::lp(), "refactorize", ts));
    }
}

fn primal_loop<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &mut Basis,
    cfg: &PrimalConfig,
    metrics: &mut MetricsRegistry,
) -> LpResult<(PrimalOutcome, usize)> {
    engine.install(view, basis)?;
    let mut degenerate_streak = 0usize;
    let mut bland = false;

    for iter in 0..cfg.max_iters {
        if engine.eta_count() >= cfg.refactor_every {
            engine.install(view, basis)?;
            note_refactorization(engine, metrics);
        }
        // --- entering variable and ratio test (basic blocking vs. bound
        // flip): one engine call, unless Bland's rule picks the column ---
        let pick = if bland {
            bland_select(engine, view, basis, cfg)?
        } else {
            engine.primal_select(cfg, basis)?
        };
        let Some(PrimalPick {
            q,
            dir,
            limit: basic_limit,
        }) = pick
        else {
            return Ok((PrimalOutcome::Optimal, iter));
        };
        let flip_limit = view.ub[q] - view.lb[q]; // may be +inf

        let t_basic = basic_limit.map(|(_, t, _)| t).unwrap_or(f64::INFINITY);
        if !t_basic.is_finite() && !flip_limit.is_finite() {
            return Ok((PrimalOutcome::Unbounded { entering: q }, iter));
        }

        if flip_limit <= t_basic {
            // Bound flip: the entering variable runs to its opposite bound
            // without any basis change.
            let new_status = match basis.status[q] {
                VarStatus::AtLower => VarStatus::AtUpper,
                VarStatus::AtUpper => VarStatus::AtLower,
                VarStatus::Basic(_) => unreachable!("checked above"),
            };
            engine.apply_flip(q, dir, flip_limit, new_status.sigma())?;
            basis.status[q] = new_status;
            track_degeneracy(flip_limit, &mut degenerate_streak, &mut bland, cfg);
        } else {
            let (r, t, leaves_upper) = basic_limit.expect("t_basic finite implies Some");
            let entering_val = if dir > 0.0 {
                view.lb[q] + t
            } else {
                view.ub[q] - t
            };
            let leaving_j = basis.cols[r];
            let leaving_to = if leaves_upper {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            let plan = PivotPlan {
                r,
                q,
                leaving_j,
                dir,
                t,
                entering_val,
                leaving_sigma: view.sigma(leaving_j, leaving_to),
                c_q: view.c[q],
                lb_q: view.lb[q],
                ub_q: view.ub[q],
            };
            // Devex weights need the leaving row of the OLD basis.
            engine.primal_apply(&plan, cfg.pricing == PricingRule::Devex && !bland)?;
            basis.pivot(r, q, leaving_to);
            track_degeneracy(t, &mut degenerate_streak, &mut bland, cfg);
        }
    }
    Err(LpError::IterationLimit {
        iterations: cfg.max_iters,
    })
}

fn track_degeneracy(t: f64, streak: &mut usize, bland: &mut bool, cfg: &PrimalConfig) {
    if t.abs() < 1e-9 {
        *streak += 1;
        if *streak >= cfg.bland_after {
            *bland = true;
        }
    } else {
        *streak = 0;
        *bland = false;
    }
}

/// The selecting half of an iteration under Bland's rule, primitive by
/// primitive: the column on the host, then its FTRAN and ratio test.
fn bland_select<E: SimplexEngine>(
    engine: &mut E,
    view: ProblemView<'_>,
    basis: &Basis,
    cfg: &PrimalConfig,
) -> LpResult<Option<PrimalPick>> {
    bland_entering(engine, view, basis, cfg.price_tol)?
        .map(|q| enter(engine, basis, q, cfg.ratio_tol))
        .transpose()
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
