//! Wave-based concurrent node evaluation on a single device — Section 5.5
//! realized at the solver level.
//!
//! "In modern GPUs, the memory capacity has increased sufficiently to
//! consider housing and solving multiple branch-and-cut nodes concurrently
//! on the same GPU … the linear algebra services on the GPU must support
//! concurrent launches of multiple sub-problems on the same GPU. Such …
//! support is offered on the NVIDIA GPUs with the concept of streams."
//!
//! [`solve_concurrent`] keeps `lanes` independent LP engines on **one**
//! device, each bound to its own stream (and each holding its own copy of
//! the matrix — the paper's memory-for-concurrency trade). Every wave, up
//! to `lanes` best-bound active nodes are dispatched; their warm dual
//! re-solves overlap in simulated device time — their link crossings and
//! kernel bodies, that is: the lanes' launches leave through the device's
//! one launch-issue queue, one after another — and the wave joins at a
//! device synchronize before outcomes are folded into the tree.
//!
//! Cuts and heuristics are intentionally off here: this driver isolates the
//! concurrency mechanism the paper describes so experiment E4 can measure
//! it; the full-featured sequential orchestrator is [`crate::MipSolver`].

use crate::search::{self, Incumbent, Rules, Verdict};
use crate::solver::{MipStatus, NodePayload};
use gmip_gpu::{Accel, DeviceStats};
use gmip_lp::{Basis, DeviceEngine, LpConfig, LpResult, LpSolver, LpStatus, StandardLp};
use gmip_problems::MipInstance;
use gmip_tree::{NodeId, NodeState, SearchTree};

/// Configuration of the concurrent-lane solver.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Number of concurrent lanes (engines/streams) on the device.
    pub lanes: usize,
    /// LP tolerances.
    pub lp: LpConfig,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Pruning tolerance.
    pub prune_tol: f64,
    /// Node budget.
    pub node_limit: usize,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            lanes: 4,
            lp: LpConfig::standard(),
            int_tol: 1e-6,
            prune_tol: 1e-6,
            node_limit: 100_000,
        }
    }
}

/// Result of a concurrent-lane solve.
#[derive(Debug)]
pub struct ConcurrentResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective (source sense; NaN if none).
    pub objective: f64,
    /// Incumbent point.
    pub x: Vec<f64>,
    /// Nodes evaluated.
    pub nodes: usize,
    /// Dispatch waves executed.
    pub waves: usize,
    /// Device completion frontier, ns (overlapped lanes → sub-linear in
    /// nodes).
    pub makespan_ns: f64,
    /// Device ledger.
    pub device: DeviceStats,
    /// Peak device memory (grows ≈ linearly with lanes: one matrix copy
    /// each — the Section 5.5 sizing rule).
    pub peak_device_bytes: usize,
}

/// Solves `instance` with `cfg.lanes` concurrent engines on `accel`.
pub fn solve_concurrent(
    instance: &MipInstance,
    cfg: &ConcurrentConfig,
    accel: Accel,
) -> LpResult<ConcurrentResult> {
    assert!(cfg.lanes >= 1, "need at least one lane");
    let std = StandardLp::from_instance(instance, &[]);
    // One engine per lane, each on its own stream, each with its own matrix
    // copy in device memory.
    let mut lanes: Vec<LpSolver<DeviceEngine>> = Vec::with_capacity(cfg.lanes);
    for i in 0..cfg.lanes {
        let stream = if i == 0 {
            gmip_gpu::DEFAULT_STREAM
        } else {
            accel.with(|d| d.create_stream())
        };
        let factory_accel = accel.clone();
        lanes.push(LpSolver::try_new(std.clone(), cfg.lp.clone(), |a| {
            DeviceEngine::new_on_stream(factory_accel, a, stream)
        })?);
    }

    let rules = Rules::new(instance, cfg.int_tol, cfg.prune_tol);
    let mut tree: SearchTree<NodePayload> =
        SearchTree::with_root(NodePayload::default(), search::node_bytes(instance));
    let mut incumbent = Incumbent::default();
    let mut nodes = 0usize;
    let mut waves = 0usize;

    while tree.has_active() && nodes < cfg.node_limit {
        // Wave selection: up to `lanes` best-bound nodes.
        let wave: Vec<NodeId> = tree.iter_in(0).take(lanes.len()).collect();
        waves += 1;

        // Dispatch: each node to its lane; evaluation overlaps in sim time.
        let mut outcomes: Vec<(NodeId, gmip_lp::LpSolution, Option<Basis>)> = Vec::new();
        for (lane, &id) in lanes.iter_mut().zip(&wave) {
            tree.begin_evaluation(id);
            nodes += 1;
            let warm = tree.data_mut(id).parent_basis.take();
            let (sol, basis) = lane.solve_node(&tree.node(id).data.bounds, warm)?;
            outcomes.push((id, sol, basis));
        }
        // Join the wave (device synchronize: streams meet at the frontier).
        accel.with(|d| {
            d.synchronize();
        });

        // Fold outcomes into the tree.
        for (id, sol, basis) in outcomes {
            match sol.status {
                LpStatus::Infeasible => tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY),
                LpStatus::Unbounded => {
                    return Err(gmip_lp::LpError::Shape(
                        "unbounded node in concurrent solve".into(),
                    ))
                }
                LpStatus::Optimal => {
                    let bound = rules.internal(sol.objective);
                    match rules.verdict(bound, &sol.x, incumbent.value()) {
                        Verdict::Pruned => tree.settle(id, NodeState::Pruned, bound),
                        Verdict::Integral => {
                            tree.settle(id, NodeState::Feasible, bound);
                            incumbent.install(&rules, &mut tree, bound, sol.x, || 0.0);
                        }
                        Verdict::Fractional { decision: d, .. } => {
                            let parent = &tree.node(id).data.bounds;
                            let kids =
                                search::children(instance, parent, d.var, d.value).map(|c| {
                                    let payload = NodePayload {
                                        bounds: c.bounds,
                                        parent_basis: basis.clone(),
                                        branch_info: None,
                                    };
                                    (c.label, payload)
                                });
                            tree.branch(id, bound, kids);
                        }
                    }
                }
            }
        }
    }

    let done = rules.finish(incumbent, tree.has_active());
    let peak = accel.with(|d| d.memory().peak());
    Ok(ConcurrentResult {
        status: done.status,
        objective: done.objective,
        x: done.x,
        nodes,
        waves,
        makespan_ns: accel.elapsed_ns(),
        device: accel.stats(),
        peak_device_bytes: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::catalog::textbook_mip;
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

    #[test]
    fn concurrent_matches_brute_force() {
        for seed in [1u64, 5] {
            let m = knapsack(13, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_concurrent(
                &m,
                &ConcurrentConfig {
                    lanes: 3,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: {} vs {expected}",
                r.objective
            );
        }
    }

    #[test]
    fn textbook_concurrent() {
        let r =
            solve_concurrent(&textbook_mip(), &ConcurrentConfig::default(), Accel::gpu(1)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6);
        assert!(r.waves <= r.nodes);
    }

    #[test]
    fn more_lanes_fewer_waves_and_lower_makespan() {
        let m = knapsack(18, 0.5, 3);
        let one = solve_concurrent(
            &m,
            &ConcurrentConfig {
                lanes: 1,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        let four = solve_concurrent(
            &m,
            &ConcurrentConfig {
                lanes: 4,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        assert!((one.objective - four.objective).abs() < 1e-6);
        assert!(four.waves < one.waves, "lanes should compress waves");
        assert!(
            four.makespan_ns < one.makespan_ns,
            "overlap should cut the makespan: {} vs {}",
            four.makespan_ns,
            one.makespan_ns
        );
        // Memory trade: more lanes park more matrix copies on the device.
        assert!(four.peak_device_bytes > one.peak_device_bytes);
    }

    #[test]
    fn node_limit_respected() {
        let m = knapsack(22, 0.5, 9);
        let r = solve_concurrent(
            &m,
            &ConcurrentConfig {
                lanes: 2,
                node_limit: 6,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::NodeLimit);
        assert!(r.nodes <= 8);
    }
}
