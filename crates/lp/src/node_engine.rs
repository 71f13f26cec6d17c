//! The pluggable node-LP layer.
//!
//! Branch-and-bound drivers only ever need one thing from the LP backend:
//! "solve the relaxation of this node (instance bounds plus these branch
//! changes), ideally warm-started from the parent, and tell me status,
//! objective, structural values, and a warm handoff for the children."
//! [`NodeLpEngine`] is that contract, and the three implementations make
//! the backend genuinely pluggable per node:
//!
//! * [`SimplexNodeEngine`] — the incumbent path: a persistent
//!   [`LpSolver`] over any [`SimplexEngine`], warm-started from a parent
//!   *basis* (dual re-solve) when one is offered.
//! * [`IpmNodeEngine`] — the path-following interior-point method of
//!   [`crate::ipm`], wrapped with the per-node presolve it needs inside a
//!   tree: branch-fixed columns are substituted into the right-hand side
//!   (the IPM rejects degenerate bounds), near-bound entries of the
//!   interior iterate are snapped, and any IPM failure (iteration limit,
//!   numerics, free columns) falls back to exact host simplex so the
//!   *status* reported to the tree is always exact.
//! * [`FirstOrderNodeEngine`] — a width-1 [`FirstOrderWaveEngine`]: the
//!   restarted-PDHG lane warm-starts from parent *iterates*, states a
//!   safe dual bound (so [`NodeLpOutcome::Pruned`] can retire the node
//!   after a handful of iterations), and hands converged lanes to exact
//!   host-simplex cleanup before the tree branches on them.
//!
//! Warm information flows through [`NodeWarmStart`] / [`NodeWarmHandoff`]
//! so a driver can thread whichever artifact its engine produces — a
//! basis for simplex, averaged `(x, y)` iterates for PDHG — without
//! knowing which engine it holds.

use crate::basis::Basis;
use crate::engine::{HostEngine, SimplexEngine};
use crate::firstorder::{FirstOrderWaveEngine, FoLaneReport, FoOutcome, PdhgConfig};
use crate::ipm::{solve_ipm, IpmConfig};
use crate::problem::{BoundChange, StandardLp};
use crate::solver::{LpConfig, LpSolution, LpSolver, LpStatus};
use crate::{LpError, LpResult};
use gmip_linalg::DenseMatrix;
use gmip_trace::MetricsRegistry;

/// Warm-start information offered to an engine for one node (borrowed
/// from the parent's handoff). Engines ignore shapes they cannot use.
#[derive(Debug, Clone, Copy, Default)]
pub enum NodeWarmStart<'a> {
    /// Cold start.
    #[default]
    None,
    /// A parent simplex basis (engine layout).
    Basis(&'a Basis),
    /// Parent first-order iterates: primal `x` over all standard-form
    /// columns and dual `y` over all rows.
    Iterates {
        /// Primal iterate, length `n` of the standard form.
        x: &'a [f64],
        /// Dual iterate, length `m` of the standard form.
        y: &'a [f64],
    },
}

/// Warm-start information an engine hands back for the node's children.
#[derive(Debug, Clone, Default)]
pub enum NodeWarmHandoff {
    /// Nothing reusable.
    #[default]
    None,
    /// The optimal basis of this node.
    Basis(Basis),
    /// The (averaged) first-order iterates of this node.
    Iterates {
        /// Primal iterate, length `n` of the standard form.
        x: Vec<f64>,
        /// Dual iterate, length `m` of the standard form.
        y: Vec<f64>,
    },
}

impl NodeWarmHandoff {
    /// Borrows the handoff as a [`NodeWarmStart`] for a child solve.
    pub fn as_start(&self) -> NodeWarmStart<'_> {
        match self {
            NodeWarmHandoff::None => NodeWarmStart::None,
            NodeWarmHandoff::Basis(b) => NodeWarmStart::Basis(b),
            NodeWarmHandoff::Iterates { x, y } => NodeWarmStart::Iterates { x, y },
        }
    }
}

/// Terminal outcome of one node-LP solve.
#[derive(Debug, Clone)]
pub enum NodeLpOutcome {
    /// The relaxation solved to (exact) optimality.
    Optimal {
        /// Objective in the *source* sense.
        objective: f64,
        /// Structural variable values.
        x: Vec<f64>,
        /// Iterations spent (engine-specific unit: pivots, IPM steps, or
        /// PDHG iterations plus cleanup pivots).
        iterations: usize,
        /// Warm information for the children.
        warm: NodeWarmHandoff,
    },
    /// The node's relaxation is infeasible.
    Infeasible,
    /// The relaxation is unbounded (the root should report this; in a
    /// tree it means the instance is unbounded).
    Unbounded,
    /// The engine proved the node cannot beat the incumbent it was told
    /// about via [`NodeLpEngine::set_incumbent`] without solving to
    /// optimality. `bound` is a *safe* objective bound in the source
    /// sense (an upper bound when maximizing, a lower bound when
    /// minimizing). Only bound-stating engines (first-order) produce
    /// this.
    Pruned {
        /// Safe objective bound in the source sense.
        bound: f64,
    },
}

/// A pluggable node-LP backend: solves one node's relaxation per call,
/// reusing internal state (factorizations, device matrices) across calls.
pub trait NodeLpEngine {
    /// Human-readable backend name (for traces and experiment tables).
    fn name(&self) -> &'static str;

    /// Solves the relaxation under `bounds` (branch changes relative to
    /// the instance bounds, as [`LpSolver::apply_node_bounds`] interprets
    /// them), optionally warm-started.
    fn solve_node(
        &mut self,
        bounds: &[BoundChange],
        warm: NodeWarmStart<'_>,
    ) -> LpResult<NodeLpOutcome>;

    /// Informs the engine of the best incumbent objective so far (source
    /// sense). Bound-stating engines use it to retire dominated nodes
    /// early as [`NodeLpOutcome::Pruned`]; others may ignore it.
    fn set_incumbent(&mut self, _objective: f64) {}

    /// Takes (and resets) the engine's accumulated metrics.
    fn take_metrics(&mut self) -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

// ---------------------------------------------------------------------------
// Simplex
// ---------------------------------------------------------------------------

/// [`NodeLpEngine`] over a persistent [`LpSolver`]: warm bases trigger a
/// dual re-solve, anything else is a cold two-phase solve.
#[derive(Debug)]
pub struct SimplexNodeEngine<E: SimplexEngine> {
    lp: LpSolver<E>,
}

impl SimplexNodeEngine<HostEngine> {
    /// Host-engine convenience constructor.
    pub fn host(std: StandardLp) -> Self {
        Self::new(LpSolver::new(std, LpConfig::standard(), |a| {
            HostEngine::new(a.clone())
        }))
    }
}

impl<E: SimplexEngine> SimplexNodeEngine<E> {
    /// Wraps an existing solver (any engine: host, device, sparse).
    pub fn new(lp: LpSolver<E>) -> Self {
        Self { lp }
    }

    /// The wrapped solver.
    pub fn solver_mut(&mut self) -> &mut LpSolver<E> {
        &mut self.lp
    }
}

fn simplex_outcome(sol: LpSolution, basis: Option<Basis>) -> NodeLpOutcome {
    match sol.status {
        LpStatus::Optimal => NodeLpOutcome::Optimal {
            objective: sol.objective,
            x: sol.x,
            iterations: sol.iterations,
            warm: basis.map_or(NodeWarmHandoff::None, NodeWarmHandoff::Basis),
        },
        LpStatus::Infeasible => NodeLpOutcome::Infeasible,
        LpStatus::Unbounded => NodeLpOutcome::Unbounded,
    }
}

impl<E: SimplexEngine> NodeLpEngine for SimplexNodeEngine<E> {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn solve_node(
        &mut self,
        bounds: &[BoundChange],
        warm: NodeWarmStart<'_>,
    ) -> LpResult<NodeLpOutcome> {
        let warm = match warm {
            NodeWarmStart::Basis(b) => Some(b.clone()),
            _ => None,
        };
        let (sol, basis) = self.lp.solve_node(bounds, warm)?;
        Ok(simplex_outcome(sol, basis))
    }

    fn take_metrics(&mut self) -> MetricsRegistry {
        self.lp.take_metrics()
    }
}

// ---------------------------------------------------------------------------
// IPM
// ---------------------------------------------------------------------------

/// [`NodeLpEngine`] over the path-following IPM, with the per-node
/// presolve a tree context requires: branch-fixed columns (the IPM
/// rejects degenerate bounds) are substituted into `b`, and IPM failures
/// fall back to exact host simplex so the reported *status* is exact.
#[derive(Debug)]
pub struct IpmNodeEngine {
    std: StandardLp,
    cfg: IpmConfig,
    metrics: MetricsRegistry,
}

/// Bound width below which a column counts as branch-fixed.
const FIX_TOL: f64 = 1e-9;
/// Distance within which an interior iterate snaps to its bound.
const SNAP_TOL: f64 = 1e-5;

impl IpmNodeEngine {
    /// Creates the engine over a standard form.
    pub fn new(std: StandardLp, cfg: IpmConfig) -> Self {
        Self {
            std,
            cfg,
            metrics: MetricsRegistry::new(),
        }
    }

    /// Node bounds in full standard-form layout.
    fn node_bounds(&self, bounds: &[BoundChange]) -> LpResult<(Vec<f64>, Vec<f64>)> {
        let mut lb = self.std.lb.clone();
        let mut ub = self.std.ub.clone();
        for bc in bounds {
            if bc.var >= self.std.n_structural {
                return Err(LpError::Shape(format!(
                    "bound change on non-structural column {}",
                    bc.var
                )));
            }
            lb[bc.var] = bc.lb;
            ub[bc.var] = bc.ub;
        }
        Ok((lb, ub))
    }

    /// Substitutes fixed structural columns into `b`, returning the
    /// reduced problem, the kept→original column map, the fixed values
    /// (by original index), and the fixed objective contribution in the
    /// *internal* (maximize) sense. Slack columns (`ub = +∞`) are never
    /// fixed, so only structural indices shift.
    fn reduce(&self, lb: &[f64], ub: &[f64]) -> (StandardLp, Vec<usize>, Vec<(usize, f64)>, f64) {
        let (m, n) = (self.std.m(), self.std.n());
        let mut kept = Vec::with_capacity(n);
        let mut fixed = Vec::new();
        let mut fixed_internal = 0.0;
        let mut b = self.std.b.clone();
        for j in 0..n {
            if ub[j] - lb[j] < FIX_TOL {
                let v = lb[j];
                for i in 0..m {
                    b[i] -= self.std.a.get(i, j) * v;
                }
                fixed_internal += self.std.c[j] * v;
                fixed.push((j, v));
            } else {
                kept.push(j);
            }
        }
        let mut a = DenseMatrix::zeros(m, kept.len());
        for (jj, &j) in kept.iter().enumerate() {
            for i in 0..m {
                a.set(i, jj, self.std.a.get(i, j));
            }
        }
        let n_fixed_structural = fixed
            .iter()
            .filter(|&&(j, _)| j < self.std.n_structural)
            .count();
        let reduced = StandardLp {
            a,
            b,
            c: kept.iter().map(|&j| self.std.c[j]).collect(),
            lb: kept.iter().map(|&j| lb[j]).collect(),
            ub: kept.iter().map(|&j| ub[j]).collect(),
            n_structural: self.std.n_structural - n_fixed_structural,
            negated: self.std.negated,
            slacks: self
                .std
                .slacks
                .iter()
                .map(|&(col, row, coef)| (col - n_fixed_structural, row, coef))
                .collect(),
        };
        (reduced, kept, fixed, fixed_internal)
    }

    /// Exact fallback for nodes the IPM cannot finish.
    fn simplex_fallback(&mut self, bounds: &[BoundChange]) -> LpResult<NodeLpOutcome> {
        self.metrics.incr("ipm.simplex_fallbacks", 1.0);
        let mut lp = LpSolver::new(self.std.clone(), LpConfig::standard(), |a| {
            HostEngine::new(a.clone())
        });
        lp.apply_node_bounds(bounds)?;
        // IPM hands off nothing reusable; neither does its fallback.
        Ok(simplex_outcome(lp.solve()?, None))
    }
}

impl NodeLpEngine for IpmNodeEngine {
    fn name(&self) -> &'static str {
        "ipm"
    }

    fn solve_node(
        &mut self,
        bounds: &[BoundChange],
        _warm: NodeWarmStart<'_>,
    ) -> LpResult<NodeLpOutcome> {
        let (lb, ub) = self.node_bounds(bounds)?;
        let (reduced, kept, fixed, fixed_internal) = self.reduce(&lb, &ub);
        let src_sign = if self.std.negated { -1.0 } else { 1.0 };

        if reduced.c.is_empty() {
            // Every column fixed: the node is a point; feasibility is a
            // direct residual check.
            let feasible = reduced.b.iter().all(|&r| r.abs() <= 1e-7);
            return Ok(if feasible {
                let mut x = vec![0.0; self.std.n_structural];
                for &(j, v) in &fixed {
                    if j < self.std.n_structural {
                        x[j] = v;
                    }
                }
                NodeLpOutcome::Optimal {
                    objective: src_sign * fixed_internal,
                    x,
                    iterations: 0,
                    warm: NodeWarmHandoff::None,
                }
            } else {
                NodeLpOutcome::Infeasible
            });
        }

        match solve_ipm(&reduced, &self.cfg, None) {
            Ok(sol) => {
                self.metrics.incr("ipm.node_solves", 1.0);
                self.metrics.incr("ipm.iterations", sol.iterations as f64);
                // Re-inflate the structural vector and snap interior
                // values that hug a bound (crossover-lite, so branching
                // sees clean integral values).
                let mut x = vec![0.0; self.std.n_structural];
                for &(j, v) in &fixed {
                    if j < self.std.n_structural {
                        x[j] = v;
                    }
                }
                for (jj, &j) in kept.iter().enumerate() {
                    if j < self.std.n_structural {
                        let mut v = sol.x[reduced_structural_index(&reduced, jj)];
                        if (v - lb[j]).abs() <= SNAP_TOL {
                            v = lb[j];
                        } else if (ub[j] - v).abs() <= SNAP_TOL {
                            v = ub[j];
                        }
                        x[j] = v;
                    }
                }
                Ok(NodeLpOutcome::Optimal {
                    objective: sol.objective + src_sign * fixed_internal,
                    x,
                    iterations: sol.iterations,
                    warm: NodeWarmHandoff::None,
                })
            }
            // Infeasible nodes surface as iteration limits; degenerate or
            // free columns as shape errors. All get the exact answer from
            // the simplex fallback rather than a guess.
            Err(
                LpError::IterationLimit { .. }
                | LpError::Numerics(_)
                | LpError::Shape(_)
                | LpError::FreeVariable(_),
            ) => self.simplex_fallback(bounds),
            Err(e) => Err(e),
        }
    }

    fn take_metrics(&mut self) -> MetricsRegistry {
        std::mem::replace(&mut self.metrics, MetricsRegistry::new())
    }
}

/// Index of reduced column `jj` within the reduced solution's structural
/// vector (the IPM returns structural values only; kept structural
/// columns precede kept slacks, so the index is identity for them).
fn reduced_structural_index(reduced: &StandardLp, jj: usize) -> usize {
    debug_assert!(jj < reduced.n_structural);
    jj
}

// ---------------------------------------------------------------------------
// First-order
// ---------------------------------------------------------------------------

impl FirstOrderWaveEngine {
    /// Collects retired lane `slot` as an LP outcome a tree can act on —
    /// the PDHG-plus-cleanup evaluator every driver shares — next to the
    /// lane's report (its averaged iterates warm-start the children). A lane
    /// that proved its box infeasible at load is `Infeasible`. A lane that
    /// retired on its safe bound is `Optimal` with that bound as objective
    /// and **no point**: the cutoff dominates it, so the prune rule retires
    /// the node without reading `x`. A converged or capped lane's node is
    /// solved exactly by `cleanup` under `bounds` (the paper's CPU
    /// delegation of sequential tails), counted as `fo.cleanups`; only then
    /// are the solution's `iterations` pivots, not PDHG iterations.
    pub fn finish_lane(
        &mut self,
        slot: usize,
        cleanup: &mut LpSolver<HostEngine>,
        bounds: &[BoundChange],
    ) -> LpResult<(LpSolution, FoLaneReport)> {
        let r = self.take_lane(slot)?;
        let unsolved = |status, objective| LpSolution {
            status,
            objective,
            x: Vec::new(),
            iterations: r.iterations,
        };
        let sol = match r.outcome {
            FoOutcome::Infeasible => unsolved(LpStatus::Infeasible, f64::NAN),
            FoOutcome::BoundPruned => {
                // The sense map is its own inverse: internal bound → source.
                unsolved(LpStatus::Optimal, cleanup.internal_objective(r.safe_bound))
            }
            FoOutcome::Converged | FoOutcome::IterLimit => {
                cleanup.apply_node_bounds(bounds)?;
                let sol = cleanup.solve()?;
                self.note_cleanup(sol.iterations);
                sol
            }
        };
        Ok((sol, r))
    }
}

/// [`NodeLpEngine`] over a width-1 [`FirstOrderWaveEngine`]: PDHG states
/// the node's safe bound (so incumbent-dominated nodes retire early as
/// [`NodeLpOutcome::Pruned`]) and converged or iteration-capped lanes are
/// finished by exact host-simplex cleanup before the outcome is reported.
#[derive(Debug)]
pub struct FirstOrderNodeEngine {
    std: StandardLp,
    fo: FirstOrderWaveEngine,
    cleanup: LpSolver<HostEngine>,
    next_token: u64,
}

impl FirstOrderNodeEngine {
    /// Creates the engine; `accel` hosts the shared CSR matrix and the
    /// single lane's state.
    pub fn new(accel: gmip_gpu::Accel, std: StandardLp, cfg: PdhgConfig) -> LpResult<Self> {
        let fo = FirstOrderWaveEngine::new(accel, &std, 1, cfg)?;
        let cleanup = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
            HostEngine::new(a.clone())
        });
        Ok(Self {
            std,
            fo,
            cleanup,
            next_token: 0,
        })
    }
}

impl NodeLpEngine for FirstOrderNodeEngine {
    fn name(&self) -> &'static str {
        "firstorder"
    }

    fn solve_node(
        &mut self,
        bounds: &[BoundChange],
        warm: NodeWarmStart<'_>,
    ) -> LpResult<NodeLpOutcome> {
        if let Some(bc) = bounds.iter().find(|bc| bc.var >= self.std.n_structural) {
            return Err(LpError::Shape(format!(
                "bound change on non-structural column {}",
                bc.var
            )));
        }
        let warm_iter = match warm {
            NodeWarmStart::Iterates { x, y } => Some((x, y)),
            _ => None,
        };
        let token = self.next_token;
        self.next_token += 1;
        self.fo.load_lane(0, token, bounds, warm_iter)?;
        self.fo.run_to_retire();
        let (sol, lane) = self.fo.finish_lane(0, &mut self.cleanup, bounds)?;
        Ok(match sol.status {
            LpStatus::Infeasible => NodeLpOutcome::Infeasible,
            LpStatus::Unbounded => NodeLpOutcome::Unbounded,
            // No point: the lane retired on its safe bound.
            LpStatus::Optimal if sol.x.is_empty() => NodeLpOutcome::Pruned {
                bound: sol.objective,
            },
            LpStatus::Optimal => NodeLpOutcome::Optimal {
                objective: sol.objective,
                x: sol.x,
                iterations: lane.iterations + sol.iterations,
                warm: NodeWarmHandoff::Iterates {
                    x: lane.x,
                    y: lane.y,
                },
            },
        })
    }

    fn set_incumbent(&mut self, objective: f64) {
        // Internal maximize sense for the lane's safe-bound cutoff.
        let internal = if self.std.negated {
            -objective
        } else {
            objective
        };
        self.fo.set_cutoff(internal);
    }

    fn take_metrics(&mut self) -> MetricsRegistry {
        let mut m = self.fo.take_metrics();
        m.merge(&self.cleanup.take_metrics());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_relaxation_host;
    use gmip_gpu::Accel;
    use gmip_problems::catalog::{textbook_lp, textbook_mip};

    fn engines(std: &StandardLp) -> Vec<Box<dyn NodeLpEngine>> {
        vec![
            Box::new(SimplexNodeEngine::host(std.clone())),
            Box::new(IpmNodeEngine::new(std.clone(), IpmConfig::default())),
            Box::new(
                FirstOrderNodeEngine::new(Accel::gpu(1), std.clone(), PdhgConfig::default())
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn all_engines_agree_on_root_relaxation() {
        let mip = textbook_mip();
        let std = StandardLp::from_instance(&mip, &[]);
        let reference = solve_relaxation_host(&mip, &[]).unwrap();
        for mut e in engines(&std) {
            match e.solve_node(&[], NodeWarmStart::None).unwrap() {
                NodeLpOutcome::Optimal { objective, x, .. } => {
                    assert!(
                        (objective - reference.objective).abs() <= 1e-5,
                        "{}: {objective} vs {}",
                        e.name(),
                        reference.objective
                    );
                    assert_eq!(x.len(), std.n_structural, "{}", e.name());
                }
                other => panic!("{}: unexpected {:?}", e.name(), other),
            }
        }
    }

    #[test]
    fn all_engines_agree_on_branched_node_with_fixed_binary() {
        let mip = textbook_mip();
        // Fixing a variable exercises the IPM's substitution presolve.
        let fix = vec![BoundChange {
            var: 0,
            lb: 1.0,
            ub: 1.0,
        }];
        let std = StandardLp::from_instance(&mip, &[]);
        let reference = solve_relaxation_host(&mip, &fix).unwrap();
        for mut e in engines(&std) {
            match e.solve_node(&fix, NodeWarmStart::None).unwrap() {
                NodeLpOutcome::Optimal { objective, x, .. } => {
                    assert!(
                        (objective - reference.objective).abs() <= 1e-5,
                        "{}: {objective} vs {}",
                        e.name(),
                        reference.objective
                    );
                    assert!((x[0] - 1.0).abs() <= 1e-6, "{}: x0={}", e.name(), x[0]);
                }
                other => panic!("{}: unexpected {:?}", e.name(), other),
            }
        }
    }

    #[test]
    fn all_engines_detect_infeasible_node() {
        let mip = textbook_mip();
        let std = StandardLp::from_instance(&mip, &[]);
        // An activity-impossible fixing.
        let fix = vec![BoundChange {
            var: 0,
            lb: 1e6,
            ub: 1e6,
        }];
        for mut e in engines(&std) {
            match e.solve_node(&fix, NodeWarmStart::None).unwrap() {
                NodeLpOutcome::Infeasible => {}
                other => panic!("{}: unexpected {:?}", e.name(), other),
            }
        }
    }

    #[test]
    fn warm_handoffs_round_trip_through_their_engines() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        // Simplex hands back a basis; re-solving warm is not slower.
        let mut sx = SimplexNodeEngine::host(std.clone());
        let NodeLpOutcome::Optimal {
            warm, iterations, ..
        } = sx.solve_node(&[], NodeWarmStart::None).unwrap()
        else {
            panic!("optimal expected")
        };
        assert!(matches!(warm, NodeWarmHandoff::Basis(_)));
        let NodeLpOutcome::Optimal {
            iterations: warm_iters,
            ..
        } = sx.solve_node(&[], warm.as_start()).unwrap()
        else {
            panic!("optimal expected")
        };
        assert!(warm_iters <= iterations, "{warm_iters} vs {iterations}");

        // First-order hands back iterates; the warm solve converges in
        // fewer PDHG iterations.
        let mut fo =
            FirstOrderNodeEngine::new(Accel::gpu(1), std.clone(), PdhgConfig::default()).unwrap();
        let NodeLpOutcome::Optimal {
            warm, iterations, ..
        } = fo.solve_node(&[], NodeWarmStart::None).unwrap()
        else {
            panic!("optimal expected")
        };
        assert!(matches!(warm, NodeWarmHandoff::Iterates { .. }));
        let NodeLpOutcome::Optimal {
            iterations: warm_iters,
            ..
        } = fo.solve_node(&[], warm.as_start()).unwrap()
        else {
            panic!("optimal expected")
        };
        assert!(warm_iters <= iterations, "{warm_iters} vs {iterations}");
    }

    #[test]
    fn finish_lane_finishes_every_outcome_and_counts_cleanups() {
        use gmip_trace::names;
        let mip = textbook_mip();
        let std = StandardLp::from_instance(&mip, &[]);
        let reference = solve_relaxation_host(&mip, &[]).unwrap();
        let run = |cfg: PdhgConfig, cutoff: f64, bounds: &[BoundChange]| {
            let mut fo = FirstOrderWaveEngine::new(Accel::gpu(1), &std, 1, cfg).unwrap();
            let mut cleanup = SimplexNodeEngine::host(std.clone());
            fo.set_cutoff(cutoff);
            fo.load_lane(0, 0, bounds, None).unwrap();
            fo.run_to_retire();
            let (sol, lane) = fo.finish_lane(0, cleanup.solver_mut(), bounds).unwrap();
            assert!(fo.lane_idle(0), "the slot is free for a refill");
            (sol, lane, fo.take_metrics())
        };
        let none = f64::NEG_INFINITY;
        // Converged, and capped after one check: both are cleaned up exactly.
        let capped = PdhgConfig {
            max_iters: 4,
            ..Default::default()
        };
        for (cfg, counter) in [
            (PdhgConfig::default(), names::FO_CONVERGED),
            (capped, names::FO_ITER_LIMIT),
        ] {
            let (sol, lane, m) = run(cfg, none, &[]);
            assert_eq!(sol.objective.to_bits(), reference.objective.to_bits());
            assert!(lane.iterations > 0 && sol.x.len() == std.n_structural);
            assert_eq!(
                (m.counter(counter), m.counter(names::FO_CLEANUPS)),
                (1.0, 1.0)
            );
            assert_eq!(m.counter(names::FO_CLEANUP_ITERS), sol.iterations as f64);
        }
        // A bound-pruned lane is a point-less bound; a lane infeasible at
        // load never iterated. Neither needs a cleanup.
        let (sol, lane, m) = run(PdhgConfig::default(), reference.objective + 1e3, &[]);
        assert_eq!((sol.status, sol.x.len()), (LpStatus::Optimal, 0));
        assert!(sol.objective >= reference.objective && sol.iterations == lane.iterations);
        assert_eq!(m.counter(names::FO_CLEANUPS), 0.0);
        let dead = [BoundChange {
            var: 0,
            lb: 1e6,
            ub: 1e6,
        }];
        let (sol, _, m) = run(PdhgConfig::default(), none, &dead);
        assert_eq!((sol.status, sol.iterations), (LpStatus::Infeasible, 0));
        assert_eq!(m.counter(names::FO_CLEANUPS), 0.0);
    }

    #[test]
    fn first_order_engine_prunes_against_incumbent() {
        let mip = textbook_mip();
        let std = StandardLp::from_instance(&mip, &[]);
        let reference = solve_relaxation_host(&mip, &[]).unwrap();
        let mut fo =
            FirstOrderNodeEngine::new(Accel::gpu(1), std.clone(), PdhgConfig::default()).unwrap();
        // An (artificial) incumbent far above the relaxation bound
        // dominates the node outright.
        fo.set_incumbent(reference.objective + 1e3);
        match fo.solve_node(&[], NodeWarmStart::None).unwrap() {
            NodeLpOutcome::Pruned { bound } => {
                // The safe bound must not cut off the true optimum.
                assert!(bound >= reference.objective - 1e-6, "{bound}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
