//! Consistent snapshots of the branch-and-bound tree.
//!
//! Paper, Section 2.1: "A consistent snapshot of the branch-and-bound tree
//! is defined as the set of leaves that preserves the optimal solution to
//! the problem." Sequentially, the set of open leaves after any node
//! completes is such a snapshot; in parallel, nodes being evaluated and
//! nodes in transit between processors must be accounted for as well, which
//! is what `gmip-parallel`'s own `Checkpoint` does for the cluster. This
//! type is the sequential one: a single tree's open leaves.

use crate::node::{NodeId, NodeState};
use crate::tree::SearchTree;

/// A snapshot: the frontier of subproblems that together preserve the
/// optimum, plus the incumbent objective at capture time (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Ids of the frontier nodes (open work at capture time).
    pub frontier: Vec<NodeId>,
    /// Incumbent objective at capture time (maximize sense).
    pub incumbent: Option<f64>,
}

impl Snapshot {
    /// Number of frontier subproblems.
    pub fn len(&self) -> usize {
        self.frontier.len()
    }

    /// Whether the snapshot carries no outstanding work (search finished).
    pub fn is_empty(&self) -> bool {
        self.frontier.is_empty()
    }
}

/// Captures the sequential consistent snapshot: all open nodes (Active and
/// Evaluating — a sequential engine has at most one of the latter), sorted
/// by id for determinism.
pub fn capture<D>(tree: &SearchTree<D>, incumbent: Option<f64>) -> Snapshot {
    let mut frontier: Vec<NodeId> = tree
        .iter()
        .filter(|n| n.state.is_open())
        .map(|n| n.id)
        .collect();
    frontier.sort_unstable();
    Snapshot {
        frontier,
        incumbent,
    }
}

/// Errors found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A frontier node is not open in the tree.
    NotOpen(NodeId),
    /// An open node in the tree is missing from the frontier (lost work —
    /// solving only the snapshot would not preserve the optimum).
    MissingOpen(NodeId),
    /// A frontier node is an ancestor of another (double-counted work).
    Nested {
        /// The ancestor node.
        ancestor: NodeId,
        /// Its frontier descendant.
        descendant: NodeId,
    },
}

/// Validates a snapshot against a tree: every frontier node must be open,
/// every open node must be covered, and no frontier node may be an ancestor
/// of another.
pub fn validate<D>(tree: &SearchTree<D>, snap: &Snapshot) -> Result<(), SnapshotError> {
    for &id in &snap.frontier {
        if !tree.node(id).state.is_open() {
            return Err(SnapshotError::NotOpen(id));
        }
    }
    let in_frontier: std::collections::HashSet<NodeId> = snap.frontier.iter().copied().collect();
    for n in tree.iter() {
        if n.state.is_open() && !in_frontier.contains(&n.id) {
            return Err(SnapshotError::MissingOpen(n.id));
        }
    }
    // Ancestor check: walk each frontier node's ancestry.
    for &id in &snap.frontier {
        let mut cur = tree.node(id).parent;
        while let Some(p) = cur {
            if in_frontier.contains(&p) {
                return Err(SnapshotError::Nested {
                    ancestor: p,
                    descendant: id,
                });
            }
            cur = tree.node(p).parent;
        }
    }
    Ok(())
}

/// Verifies the paper's completion property: "by the completion of the
/// entire search, no nodes remain tagged as active — all of them are
/// converted to feasible, infeasible or pruned" (interior nodes are
/// Branched).
pub fn completion_invariant<D>(tree: &SearchTree<D>) -> bool {
    tree.iter().all(|n| {
        matches!(
            n.state,
            NodeState::Feasible | NodeState::Infeasible | NodeState::Pruned | NodeState::Branched
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid_search_tree() -> SearchTree<()> {
        let mut t = SearchTree::with_root((), 64);
        t.begin_evaluation(0);
        t.branch(0, 10.0, [("L".into(), ()), ("R".into(), ())]);
        t.begin_evaluation(1);
        t.settle(1, NodeState::Feasible, 7.0);
        t
    }

    #[test]
    fn capture_collects_open_nodes() {
        let t = mid_search_tree();
        let s = capture(&t, Some(7.0));
        assert_eq!(s.frontier, vec![2]);
        assert_eq!(s.incumbent, Some(7.0));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(validate(&t, &s).is_ok());
    }

    #[test]
    fn capture_includes_evaluating_nodes() {
        let mut t = mid_search_tree();
        t.begin_evaluation(2);
        let s = capture(&t, None);
        assert_eq!(s.frontier, vec![2]);
        assert!(validate(&t, &s).is_ok());
    }

    #[test]
    fn missing_open_detected() {
        let t = mid_search_tree();
        let s = Snapshot {
            frontier: vec![],
            incumbent: None,
        };
        assert_eq!(validate(&t, &s), Err(SnapshotError::MissingOpen(2)));
    }

    #[test]
    fn not_open_detected() {
        let t = mid_search_tree();
        let s = Snapshot {
            frontier: vec![1, 2],
            incumbent: None,
        };
        assert_eq!(validate(&t, &s), Err(SnapshotError::NotOpen(1)));
    }

    #[test]
    fn nested_detected() {
        // Build a deeper tree and fake a nested frontier.
        let mut t = SearchTree::with_root((), 64);
        t.begin_evaluation(0);
        t.branch(0, 5.0, [("L".into(), ())]);
        // Frontier claims both the root and its child — but the root is
        // Branched (not open), so NotOpen fires first; craft instead a case
        // with two open levels via a second branch.
        let mut t2 = SearchTree::with_root((), 64);
        t2.begin_evaluation(0);
        let kids = t2.branch(0, 5.0, [("L".into(), ()), ("R".into(), ())]);
        t2.begin_evaluation(kids[0]);
        t2.branch(kids[0], 4.0, [("LL".into(), ())]);
        // Manually corrupt: mark kids[0] open again.
        t2.corrupt_state(kids[0], NodeState::Active);
        let s = capture(&t2, None);
        assert!(matches!(
            validate(&t2, &s),
            Err(SnapshotError::Nested { .. })
        ));
        let _ = t; // silence
    }

    #[test]
    fn completion_invariant_holds_after_full_search() {
        let mut t = mid_search_tree();
        t.begin_evaluation(2);
        t.settle(2, NodeState::Pruned, 6.0);
        assert!(completion_invariant(&t));
        assert!(capture(&t, Some(7.0)).is_empty());
    }

    #[test]
    fn completion_invariant_fails_mid_search() {
        let t = mid_search_tree();
        assert!(!completion_invariant(&t));
    }
}
