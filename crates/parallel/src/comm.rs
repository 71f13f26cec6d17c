//! Message types and the interconnect cost model of the simulated cluster.
//!
//! The paper's Strategy 2 relies on "native and portable message passing
//! interface-based parallel branch-and-cut orchestration across nodes"
//! (Section 3). The discrete-event cluster charges every message a
//! latency + size/bandwidth cost, and counts messages/bytes so experiment
//! E6 can report communication overhead alongside speedup.

use crate::chaos::FaultPlan;
use gmip_core::search::NodeOutcome;
use gmip_lp::{Basis, BoundChange};

/// Point-to-point network cost model.
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    /// Per-message latency, ns.
    pub latency_ns: f64,
    /// Link bandwidth, bytes per ns.
    pub bw_bytes_per_ns: f64,
}

impl NetworkModel {
    /// An InfiniBand-class HPC interconnect (~1.5 µs latency, ~12 GB/s
    /// effective).
    pub fn infiniband() -> Self {
        Self {
            latency_ns: 1_500.0,
            bw_bytes_per_ns: 12.0,
        }
    }

    /// A slower Ethernet-class network.
    pub fn ethernet() -> Self {
        Self {
            latency_ns: 30_000.0,
            bw_bytes_per_ns: 1.2,
        }
    }

    /// Transfer time for a message of `bytes`.
    pub fn transfer_ns(&self, bytes: usize) -> f64 {
        self.latency_ns + bytes as f64 / self.bw_bytes_per_ns
    }

    /// Ships a message of `bytes` across the link, consulting an optional
    /// fault plan for its fate. Without a plan (or when the plan rolls
    /// clean) this reduces to [`Self::transfer_ns`].
    pub fn ship(&self, bytes: usize, plan: Option<&mut FaultPlan>) -> Delivery {
        let fate = match plan {
            Some(p) => p.sample_fate(),
            None => crate::chaos::MessageFate::clean(),
        };
        if fate.dropped {
            return Delivery::Dropped;
        }
        Delivery::Delivered {
            transfer_ns: self.transfer_ns(bytes) + fate.extra_ns,
            injected_ns: fate.extra_ns,
        }
    }
}

/// The outcome of shipping one message over a (possibly faulty) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// The message arrives after `transfer_ns` (which already includes any
    /// injected delay, reported separately in `injected_ns`).
    Delivered {
        /// Total time on the wire, ns.
        transfer_ns: f64,
        /// Injected extra latency included above, ns (0 when clean).
        injected_ns: f64,
    },
    /// The message is silently lost; the receiver never sees it.
    Dropped,
}

/// A work assignment shipped supervisor → worker: the subproblem's bound
/// changes plus an optional warm-start basis (Section 5.3's reuse payload).
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Tree node id (supervisor-side bookkeeping).
    pub node_id: usize,
    /// Cumulative bound changes defining the subproblem.
    pub bounds: Vec<BoundChange>,
    /// Parent basis for the warm start.
    pub warm_basis: Option<Basis>,
    /// Incumbent value at send time (internal maximize sense), for
    /// worker-side pruning.
    pub incumbent: f64,
}

impl Assignment {
    /// Serialized size estimate used for transfer charging.
    pub fn bytes(&self) -> usize {
        let bounds = self.bounds.len() * 24; // (usize, f64, f64)
        let basis = self
            .warm_basis
            .as_ref()
            .map(|b| b.cols.len() * 8 + b.status.len())
            .unwrap_or(0);
        16 + bounds + basis
    }
}

/// Outcome of one node evaluation, shipped worker → supervisor.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The evaluated node.
    pub node_id: usize,
    /// What happened, judged against the assignment's incumbent.
    pub outcome: NodeOutcome,
    /// A `Branch` outcome's post-solve basis, for the children's warm
    /// starts (`None` for every other outcome).
    pub basis: Option<Basis>,
    /// Simulated device time the evaluation took on the worker, ns.
    pub eval_ns: f64,
    /// LP iterations spent.
    pub lp_iterations: usize,
    /// An early incumbent candidate from the worker-side fix-and-propagate
    /// dive: `(internal objective, point)`, already re-checked feasible on
    /// the instance. Rides along with the node outcome and feeds the
    /// supervisor's normal incumbent-broadcast path.
    pub heur: Option<(f64, Vec<f64>)>,
}

impl NodeReport {
    /// Serialized size estimate.
    pub fn bytes(&self) -> usize {
        let payload = match &self.outcome {
            NodeOutcome::Infeasible => 0,
            NodeOutcome::Integral { x, .. } => 8 + x.len() * 8,
            NodeOutcome::Pruned { .. } => 8,
            NodeOutcome::Branch { .. } => {
                24 + self
                    .basis
                    .as_ref()
                    .map(|b| b.cols.len() * 8 + b.status.len())
                    .unwrap_or(0)
            }
        };
        let heur = self
            .heur
            .as_ref()
            .map(|(_, x)| 8 + x.len() * 8)
            .unwrap_or(0);
        32 + payload + heur
    }
}

/// A periodic sub-supervisor → root load summary: the only per-group state
/// the hierarchical root sees. Its size is *independent of the frontier* —
/// that is the whole point of the hierarchy: root-link traffic aggregates a
/// group's backlog into one fixed-size record instead of per-node reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSummary {
    /// The reporting group.
    pub group: usize,
    /// Open (dispatchable) subproblems the group owns at send time.
    pub open: usize,
    /// Best (largest, internal sense) bound among them; `-inf` when idle.
    pub best_bound: f64,
}

impl LoadSummary {
    /// Serialized size estimate: `(usize, usize, f64)`.
    pub fn bytes(&self) -> usize {
        24
    }
}

/// An incumbent a group pushes up to the root: value plus the point (the
/// root keeps the best point; groups only ever need the value to prune).
#[derive(Debug, Clone, PartialEq)]
pub struct IncumbentUpdate {
    /// Internal (maximize-sense) objective.
    pub value: f64,
    /// The feasible point.
    pub x: Vec<f64>,
}

impl IncumbentUpdate {
    /// Serialized size estimate.
    pub fn bytes(&self) -> usize {
        16 + self.x.len() * 8
    }
}

/// Root → group incumbent broadcast size: the aggregated bound *value*
/// only, never the point — root-link bytes stay O(1) per improvement.
pub const INCUMBENT_BROADCAST_BYTES: usize = 16;

/// Steal-protocol control messages (request, deny, root → victim order)
/// are fixed-size headers: `(thief, victim, fence)`.
pub const STEAL_CONTROL_BYTES: usize = 24;

/// Serialized size of one frontier subtree root crossing the root link
/// during a steal grant or a group reassignment: the node's cumulative
/// bound changes plus a header (no warm basis — a stolen subtree cold
/// starts on its new group, like a post-crash reassignment).
pub fn subtree_bytes(bounds: &[BoundChange]) -> usize {
    16 + bounds.len() * 24
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_cost_scales() {
        let net = NetworkModel::infiniband();
        let small = net.transfer_ns(8);
        let big = net.transfer_ns(8 << 20);
        assert!(big > small);
        assert!(small >= net.latency_ns);
        assert!(NetworkModel::ethernet().transfer_ns(1 << 20) > net.transfer_ns(1 << 20));
    }

    #[test]
    fn ship_without_plan_is_clean() {
        let net = NetworkModel::infiniband();
        assert_eq!(
            net.ship(64, None),
            Delivery::Delivered {
                transfer_ns: net.transfer_ns(64),
                injected_ns: 0.0
            }
        );
    }

    #[test]
    fn ship_with_always_drop_plan_loses_the_message() {
        use crate::chaos::{ChaosConfig, FaultPlan};
        let net = NetworkModel::infiniband();
        let mut plan = FaultPlan::new(
            ChaosConfig {
                drop_prob: 1.0,
                ..ChaosConfig::quiet(1)
            },
            1,
        );
        assert_eq!(net.ship(64, Some(&mut plan)), Delivery::Dropped);
    }

    #[test]
    fn assignment_bytes_count_payload() {
        let a = Assignment {
            node_id: 1,
            bounds: vec![
                BoundChange {
                    var: 0,
                    lb: 0.0,
                    ub: 1.0
                };
                3
            ],
            warm_basis: Some(Basis::with_basic_cols(vec![0, 1], 4)),
            incumbent: f64::NEG_INFINITY,
        };
        assert_eq!(a.bytes(), 16 + 3 * 24 + (2 * 8 + 4));
        let bare = Assignment {
            node_id: 1,
            bounds: vec![],
            warm_basis: None,
            incumbent: 0.0,
        };
        assert_eq!(bare.bytes(), 16);
    }

    #[test]
    fn report_bytes_by_outcome() {
        let inf = NodeReport {
            node_id: 0,
            outcome: NodeOutcome::Infeasible,
            basis: None,
            eval_ns: 1.0,
            lp_iterations: 1,
            heur: None,
        };
        assert_eq!(inf.bytes(), 32);
        let feas = NodeReport {
            node_id: 0,
            outcome: NodeOutcome::Integral {
                bound: 5.0,
                x: vec![1.0; 4],
            },
            basis: None,
            eval_ns: 1.0,
            lp_iterations: 1,
            heur: None,
        };
        assert_eq!(feas.bytes(), 32 + 8 + 32);
        // A ridden-along heuristic candidate pays for its point.
        let with_heur = NodeReport {
            heur: Some((4.0, vec![1.0; 4])),
            ..inf.clone()
        };
        assert_eq!(with_heur.bytes(), 32 + 8 + 32);
        // A branch pays for the basis its children warm-start from.
        let branch = NodeReport {
            outcome: NodeOutcome::Branch {
                bound: 5.0,
                decision: gmip_core::branch::BranchDecision { var: 1, value: 0.5 },
            },
            basis: Some(Basis::with_basic_cols(vec![0, 1], 4)),
            ..inf.clone()
        };
        assert_eq!(branch.bytes(), 32 + 24 + (2 * 8 + 4));
    }

    #[test]
    fn hierarchy_control_messages_are_frontier_independent() {
        let small = LoadSummary {
            group: 0,
            open: 2,
            best_bound: 1.0,
        };
        let huge = LoadSummary {
            group: 3,
            open: 1 << 20,
            best_bound: 9.0,
        };
        // A summary costs the same no matter how deep the backlog is.
        assert_eq!(small.bytes(), huge.bytes());
        let upd = IncumbentUpdate {
            value: 5.0,
            x: vec![1.0; 10],
        };
        assert_eq!(upd.bytes(), 16 + 80);
        // Broadcasts strip the point.
        assert!(INCUMBENT_BROADCAST_BYTES < upd.bytes());
        let bc = BoundChange {
            var: 0,
            lb: 0.0,
            ub: 1.0,
        };
        assert_eq!(subtree_bytes(&[bc; 3]), 16 + 72);
        assert_eq!(subtree_bytes(&[]), 16);
    }
}
