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

use crate::search::{self, Incumbent, Rules, Verdict};
use crate::solver::MipStatus;
use gmip_lp::{BoundChange, LpResult, NodeLpEngine, NodeLpOutcome, NodeWarmHandoff};
use gmip_problems::MipInstance;
use gmip_trace::MetricsRegistry;
use gmip_tree::{NodeState, SearchTree};

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
    let rules = Rules::new(instance, cfg.int_tol, cfg.prune_tol);
    let mut tree: SearchTree<BnbPayload> =
        SearchTree::with_root(BnbPayload::default(), search::node_bytes(instance));
    let mut incumbent = Incumbent::default();
    let mut nodes = 0usize;

    while nodes < cfg.node_limit {
        // Best-bound node first (ties broken by id for determinism).
        let Some(id) = tree.best() else {
            break;
        };
        tree.begin_evaluation(id);
        nodes += 1;
        let warm = std::mem::take(&mut tree.data_mut(id).warm);
        match engine.solve_node(&tree.node(id).data.bounds, warm.as_start())? {
            NodeLpOutcome::Infeasible => {
                tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
            }
            NodeLpOutcome::Unbounded => {
                return Err(gmip_lp::LpError::Shape(
                    "unbounded node in engine-generic solve".into(),
                ));
            }
            NodeLpOutcome::Pruned { bound } => {
                tree.settle(id, NodeState::Pruned, rules.internal(bound));
            }
            NodeLpOutcome::Optimal {
                objective, x, warm, ..
            } => {
                let bound = rules.internal(objective);
                match rules.verdict(bound, &x, incumbent.value()) {
                    Verdict::Pruned => tree.settle(id, NodeState::Pruned, bound),
                    Verdict::Integral => {
                        tree.settle(id, NodeState::Feasible, bound);
                        incumbent.install(&rules, &mut tree, bound, x, || 0.0);
                        engine.set_incumbent(objective);
                    }
                    Verdict::Fractional { decision: d, .. } => {
                        let kids =
                            search::children(instance, &tree.node(id).data.bounds, d.var, d.value)
                                .map(|c| {
                                    let payload = BnbPayload {
                                        bounds: c.bounds,
                                        warm: warm.clone(),
                                    };
                                    (c.label, payload)
                                });
                        tree.branch(id, bound, kids);
                    }
                }
            }
        }
    }

    let done = rules.finish(incumbent, tree.has_active());
    Ok(NodeBnbResult {
        status: done.status,
        objective: done.objective,
        x: done.x,
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
