//! Branch-and-bound tree nodes.
//!
//! Mirrors the node lifecycle of the paper's Figure 1: "All leaves in the
//! tree are evaluated and tagged as feasible, infeasible or pruned.
//! Intermediate nodes are tagged by their LP solutions and branching
//! variables. Note that some leaves might be tagged as active during
//! search. However, by the completion of the entire search, no nodes remain
//! tagged as active."

/// Identifier of a node within one [`crate::tree::SearchTree`] (arena index).
pub type NodeId = usize;

/// Lifecycle state of a tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Created but not yet evaluated (an "active" leaf in the paper's
    /// terminology).
    Active,
    /// Currently being evaluated (LP relaxation in progress) — the state
    /// that makes parallel consistent snapshots non-trivial (Section 2.1a).
    Evaluating,
    /// Evaluated; its relaxation was integer-feasible (a feasible leaf).
    Feasible,
    /// Evaluated; its relaxation was infeasible (an infeasible leaf).
    Infeasible,
    /// Evaluated; its bound was dominated by the incumbent (a pruned leaf).
    Pruned,
    /// Evaluated fractional and expanded into children (an interior node).
    Branched,
}

impl NodeState {
    /// Whether the node is a settled leaf (terminal in the finished tree).
    pub fn is_terminal_leaf(self) -> bool {
        matches!(
            self,
            NodeState::Feasible | NodeState::Infeasible | NodeState::Pruned
        )
    }

    /// Whether the node still represents outstanding work.
    pub fn is_open(self) -> bool {
        matches!(self, NodeState::Active | NodeState::Evaluating)
    }

    /// The single-character tag used by the Figure-1 renderer.
    pub fn tag(self) -> char {
        match self {
            NodeState::Active => 'A',
            NodeState::Evaluating => 'E',
            NodeState::Feasible => 'F',
            NodeState::Infeasible => 'I',
            NodeState::Pruned => 'P',
            NodeState::Branched => 'B',
        }
    }
}

/// One node of the branch-and-bound tree, carrying solver-defined payload
/// `D` (branch decisions, warm-start basis, etc.).
#[derive(Debug, Clone)]
pub struct Node<D> {
    /// This node's id.
    pub id: NodeId,
    /// Parent id (`None` for the root).
    pub parent: Option<NodeId>,
    /// Depth (root = 0).
    pub depth: usize,
    /// Lifecycle state.
    pub state: NodeState,
    /// The relaxation bound established for this node (in maximize sense;
    /// `+inf` until evaluated). Used for best-first selection and pruning.
    pub bound: f64,
    /// Scheduling group: the partition a hierarchical or statically
    /// balanced cluster dispatches this node under (0 everywhere else).
    /// The tree keeps one ordered open set per group; change it with
    /// [`crate::tree::SearchTree::set_group`].
    pub group: usize,
    /// Index of this node in the tree's active vector while it is open.
    pub(crate) slot: usize,
    /// Children ids (empty unless `Branched`).
    pub children: Vec<NodeId>,
    /// Short human-readable label of the branching decision that created
    /// this node (shown by the Figure-1 renderer), e.g. `"x2 ≤ 0"`.
    pub label: String,
    /// Solver payload.
    pub data: D,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_classification() {
        assert!(NodeState::Feasible.is_terminal_leaf());
        assert!(NodeState::Infeasible.is_terminal_leaf());
        assert!(NodeState::Pruned.is_terminal_leaf());
        assert!(!NodeState::Branched.is_terminal_leaf());
        assert!(NodeState::Active.is_open());
        assert!(NodeState::Evaluating.is_open());
        assert!(!NodeState::Feasible.is_open());
    }

    #[test]
    fn tags_are_distinct() {
        let tags = [
            NodeState::Active.tag(),
            NodeState::Evaluating.tag(),
            NodeState::Feasible.tag(),
            NodeState::Infeasible.tag(),
            NodeState::Pruned.tag(),
            NodeState::Branched.tag(),
        ];
        let mut dedup = tags.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), tags.len());
    }
}
