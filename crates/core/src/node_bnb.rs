//! Best-first branch and bound over any [`NodeLpEngine`] — the driver
//! that proves the node-LP layer is genuinely pluggable.
//!
//! The tree logic here is written once against the trait: it threads
//! whatever warm artifact the engine hands back (a simplex basis, PDHG
//! iterates) into the children via [`NodeWarmHandoff::as_start`], feeds
//! incumbents back with [`NodeLpEngine::set_incumbent`] so bound-stating
//! engines can retire dominated nodes early, and treats
//! [`NodeLpOutcome::Pruned`] as a settled node without ever seeing an
//! objective. Swapping simplex for IPM or restarted PDHG is a one-line
//! change at the call site.

use crate::branch;
use crate::solver::MipStatus;
use gmip_lp::{BoundChange, LpResult, NodeLpEngine, NodeLpOutcome, NodeWarmHandoff};
use gmip_problems::{MipInstance, Objective};
use gmip_trace::MetricsRegistry;
use gmip_tree::{NodeId, NodeState, SearchTree};

/// Tree-side knobs of the engine-generic driver.
#[derive(Debug, Clone)]
pub struct NodeBnbConfig {
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Pruning tolerance.
    pub prune_tol: f64,
    /// Node budget.
    pub node_limit: usize,
}

impl Default for NodeBnbConfig {
    fn default() -> Self {
        Self {
            int_tol: 1e-6,
            prune_tol: 1e-6,
            node_limit: 100_000,
        }
    }
}

/// Result of an engine-generic solve.
#[derive(Debug)]
pub struct NodeBnbResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective (source sense; NaN if none).
    pub objective: f64,
    /// Incumbent point.
    pub x: Vec<f64>,
    /// Nodes evaluated.
    pub nodes: usize,
    /// The engine's accumulated metrics.
    pub metrics: MetricsRegistry,
}

/// Node payload: branch bounds plus the parent's warm handoff.
#[derive(Debug, Clone, Default)]
struct BnbPayload {
    bounds: Vec<BoundChange>,
    warm: NodeWarmHandoff,
}

/// Solves `instance` best-first with `engine` evaluating every node LP.
pub fn solve_with_node_engine(
    instance: &MipInstance,
    engine: &mut dyn NodeLpEngine,
    cfg: &NodeBnbConfig,
) -> LpResult<NodeBnbResult> {
    let internal = |source: f64| match instance.objective {
        Objective::Maximize => source,
        Objective::Minimize => -source,
    };
    let node_bytes = (instance.num_cons() + 2 * instance.num_vars()) * 8 + 128;
    let mut tree: SearchTree<BnbPayload> = SearchTree::with_root(BnbPayload::default(), node_bytes);
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let mut nodes = 0usize;
    let integral = instance.integral_indices();

    while nodes < cfg.node_limit {
        // Best-bound node first (ties broken by id for determinism).
        let Some(id) = tree.best() else {
            break;
        };
        tree.begin_evaluation(id);
        nodes += 1;
        let bounds = tree.node(id).data.bounds.clone();
        let warm = std::mem::take(&mut tree.data_mut(id).warm);
        match engine.solve_node(&bounds, warm.as_start())? {
            NodeLpOutcome::Infeasible => {
                tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
            }
            NodeLpOutcome::Unbounded => {
                return Err(gmip_lp::LpError::Shape(
                    "unbounded node in engine-generic solve".into(),
                ));
            }
            NodeLpOutcome::Pruned { bound } => {
                tree.settle(id, NodeState::Pruned, internal(bound));
            }
            NodeLpOutcome::Optimal {
                objective, x, warm, ..
            } => {
                let bound = internal(objective);
                let inc = incumbent
                    .as_ref()
                    .map(|(v, _)| *v)
                    .unwrap_or(f64::NEG_INFINITY);
                if bound <= inc + cfg.prune_tol {
                    tree.settle(id, NodeState::Pruned, bound);
                    continue;
                }
                let frac: Vec<usize> = integral
                    .iter()
                    .copied()
                    .filter(|&j| (x[j] - x[j].round()).abs() > cfg.int_tol)
                    .collect();
                if frac.is_empty() {
                    tree.settle(id, NodeState::Feasible, bound);
                    let mut p = x.clone();
                    for &j in &integral {
                        p[j] = p[j].round();
                    }
                    incumbent = Some((bound, p));
                    tree.prune_dominated(bound, cfg.prune_tol);
                    engine.set_incumbent(objective);
                    continue;
                }
                let d = branch::decide(
                    crate::config::BranchRule::MostFractional,
                    instance,
                    &x,
                    &frac,
                    &branch::PseudoCosts::default(),
                );
                let parent_bounds = tree.node(id).data.bounds.clone();
                let (mut lo, mut hi) = (instance.vars[d.var].lb, instance.vars[d.var].ub);
                for bc in &parent_bounds {
                    if bc.var == d.var {
                        lo = bc.lb;
                        hi = bc.ub;
                    }
                }
                let mk = |up: bool| {
                    let mut b = parent_bounds.clone();
                    let label = if up {
                        b.push(BoundChange {
                            var: d.var,
                            lb: d.up_lb,
                            ub: hi,
                        });
                        format!("x{} ≥ {}", d.var, d.up_lb)
                    } else {
                        b.push(BoundChange {
                            var: d.var,
                            lb: lo,
                            ub: d.down_ub,
                        });
                        format!("x{} ≤ {}", d.var, d.down_ub)
                    };
                    (
                        label,
                        BnbPayload {
                            bounds: b,
                            warm: warm.clone(),
                        },
                    )
                };
                tree.branch(id, bound, vec![mk(false), mk(true)]);
            }
        }
        let _: NodeId = id;
    }

    let status = if tree.has_active() {
        MipStatus::NodeLimit
    } else if incumbent.is_some() {
        MipStatus::Optimal
    } else {
        MipStatus::Infeasible
    };
    let (objective, x) = match incumbent {
        Some((v, p)) => (
            match instance.objective {
                Objective::Maximize => v,
                Objective::Minimize => -v,
            },
            p,
        ),
        None => (f64::NAN, Vec::new()),
    };
    Ok(NodeBnbResult {
        status,
        objective,
        x,
        nodes,
        metrics: engine.take_metrics(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_gpu::Accel;
    use gmip_lp::{
        FirstOrderNodeEngine, IpmConfig, IpmNodeEngine, PdhgConfig, SimplexNodeEngine, StandardLp,
    };
    use gmip_problems::catalog::textbook_mip;
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

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
    fn every_engine_solves_the_textbook_mip() {
        let m = textbook_mip();
        let std = StandardLp::from_instance(&m, &[]);
        for mut e in engines(&std) {
            let name = e.name();
            let r = solve_with_node_engine(&m, e.as_mut(), &NodeBnbConfig::default()).unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "{name}");
            assert!((r.objective - 20.0).abs() < 1e-5, "{name}: {}", r.objective);
            assert!(m.is_integer_feasible(&r.x, 1e-5), "{name}");
        }
    }

    #[test]
    fn every_engine_matches_brute_force_on_knapsack() {
        let m = knapsack(11, 0.5, 4);
        let expected = knapsack_brute_force(&m);
        let std = StandardLp::from_instance(&m, &[]);
        for mut e in engines(&std) {
            let name = e.name();
            let r = solve_with_node_engine(&m, e.as_mut(), &NodeBnbConfig::default()).unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "{name}");
            assert!(
                (r.objective - expected).abs() < 1e-5,
                "{name}: {} vs {expected}",
                r.objective
            );
        }
    }

    #[test]
    fn first_order_engine_prunes_nodes_in_tree() {
        // A tree deep enough to produce incumbent-dominated nodes: the
        // bound-stating engine must retire at least one of them as Pruned
        // (visible through the fo.bound_pruned counter).
        let m = knapsack(13, 0.5, 1);
        let std = StandardLp::from_instance(&m, &[]);
        let mut e = FirstOrderNodeEngine::new(Accel::gpu(1), std, PdhgConfig::default()).unwrap();
        let r = solve_with_node_engine(&m, &mut e, &NodeBnbConfig::default()).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(
            r.metrics.counter(gmip_trace::names::FO_BOUND_PRUNED) >= 1.0,
            "expected early safe-bound prunes in a nontrivial tree"
        );
    }
}
