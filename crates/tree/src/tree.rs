//! The branch-and-bound search tree store.
//!
//! An arena of [`Node`]s plus the *active set* — the frontier of unevaluated
//! leaves. Strategy 2 of the paper keeps this structure in CPU main memory
//! ("the large capacity of CPU memory ... would be needed to hold the tree
//! as it is being evaluated") while each node's relaxation is shipped to the
//! accelerator; [`SearchTree::approx_bytes`] is what Strategy 1 must fit in
//! device memory instead.
//!
//! # The ordered frontier
//!
//! Every best-first driver in the workspace picks by one total order —
//! largest bound first, ties to the lowest id — so the tree keeps the open
//! set *in* that order: one `BTreeSet` of `(bound desc, id asc)` keys per
//! *group*. A group is a small integer stored on the node: the partition a
//! hierarchical or statically balanced cluster schedules it under, and 0
//! everywhere else. Each open node also records its slot in the flat
//! `active` vector, so leaving the active set is a `swap_remove`. The index
//! is maintained by every method that opens or closes a node (`branch`,
//! `reopen`, `begin_evaluation`, the prunes, `set_group`) and by nothing
//! else: nodes are handed out immutably, and [`SearchTree::data_mut`]
//! reaches only the payload, so a bound, state or group cannot change behind
//! it.
//!
//! With `F` open nodes, `G` groups holding any, and `k` nodes pruned:
//!
//! | operation | scanning the active vector | ordered frontier |
//! |---|---|---|
//! | `begin_evaluation` | O(F) `position` | O(log F) |
//! | best-first pick (`best`, `best_in`) | O(F) `min_by` | O(log F) |
//! | first `k` of the order (`iter_in`) | O(F log F) sort | O(k + log F) |
//! | `best_open_bound` | O(F) | O(G) |
//! | `open_in` / `best_bound_in` of one group | O(F) filter | O(1) / O(log F) |
//! | `prune_dominated` | O(F) | O(G + k log F) |
//! | `prune_dominated_in` one group | O(F) filter | O(k log F) |
//! | `branch` / `reopen`, per node opened | O(1) | O(log F) |
//!
//! [`SearchTree::active_ids`] is the same set in *unspecified* order
//! (removal swaps the last id into the vacated slot): callers that scan it
//! must break ties by id, as the three non-best-first policies do.

use crate::node::{Node, NodeId, NodeState};
use crate::stats::TreeStats;
use std::collections::BTreeSet;

/// Frontier key: ascending order is (bound descending, id ascending).
type Key = (u64, NodeId);

/// `Node::slot` of a node that is not in the active set.
const NOT_OPEN: usize = usize::MAX;

/// Maps a bound to bits whose unsigned order is the *reverse* of the
/// bound's numeric order, and equal exactly when `partial_cmp` says
/// `Equal`: `-0.0` is folded onto `+0.0` first (or ties between the two
/// would stop falling through to the id), `±inf` order like any other
/// value, NaN is a caller bug.
fn descending_bits(bound: f64) -> u64 {
    assert!(!bound.is_nan(), "bounds are never NaN");
    let bits = (bound + 0.0).to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    !ascending
}

/// The search tree: arena storage, active-set tracking, statistics.
#[derive(Debug, Clone)]
pub struct SearchTree<D> {
    nodes: Vec<Node<D>>,
    /// Open (Active) node ids, in unspecified order.
    active: Vec<NodeId>,
    /// The same set, ordered, per group (indexed by group id).
    open: Vec<BTreeSet<Key>>,
    /// Groups whose ordered set is non-empty.
    open_groups: BTreeSet<usize>,
    stats: TreeStats,
    /// Bytes a node occupies when parked on a device (Strategy 1
    /// accounting): payload-independent estimate set by the owner.
    node_bytes: usize,
}

impl<D> SearchTree<D> {
    /// Creates a tree with a root node carrying `data`.
    pub fn with_root(data: D, node_bytes: usize) -> Self {
        let root = Node {
            id: 0,
            parent: None,
            depth: 0,
            state: NodeState::Active,
            bound: f64::INFINITY,
            group: 0,
            slot: NOT_OPEN,
            children: Vec::new(),
            label: "root".to_string(),
            data,
        };
        let mut stats = TreeStats::default();
        stats.created = 1;
        stats.max_active = 1;
        let mut tree = Self {
            nodes: vec![root],
            active: Vec::new(),
            open: Vec::new(),
            open_groups: BTreeSet::new(),
            stats,
            node_bytes,
        };
        tree.open_node(0);
        tree
    }

    /// The root's id.
    pub fn root(&self) -> NodeId {
        0
    }

    /// Total nodes ever created.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Immutable node access.
    ///
    /// # Panics
    /// Panics on an invalid id (arena ids never dangle).
    pub fn node(&self, id: NodeId) -> &Node<D> {
        &self.nodes[id]
    }

    /// Mutable access to a node's payload — the only part of a node the
    /// frontier index does not depend on.
    pub fn data_mut(&mut self, id: NodeId) -> &mut D {
        &mut self.nodes[id].data
    }

    /// The current active (open, unevaluated) node ids, in unspecified
    /// order.
    pub fn active_ids(&self) -> &[NodeId] {
        &self.active
    }

    /// Whether any work remains.
    pub fn has_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    fn key(&self, id: NodeId) -> Key {
        (descending_bits(self.nodes[id].bound), id)
    }

    /// Enters `id` into the active vector and its group's ordered set.
    fn open_node(&mut self, id: NodeId) {
        let (key, group) = (self.key(id), self.nodes[id].group);
        self.nodes[id].slot = self.active.len();
        self.active.push(id);
        if group >= self.open.len() {
            self.open.resize_with(group + 1, BTreeSet::new);
        }
        if self.open[group].is_empty() {
            self.open_groups.insert(group);
        }
        self.open[group].insert(key);
    }

    /// Takes `id` out of the active vector and its group's ordered set.
    fn close_node(&mut self, id: NodeId) {
        let (key, group) = (self.key(id), self.nodes[id].group);
        let slot = std::mem::replace(&mut self.nodes[id].slot, NOT_OPEN);
        self.active.swap_remove(slot);
        if let Some(&moved) = self.active.get(slot) {
            self.nodes[moved].slot = slot;
        }
        self.open[group].remove(&key);
        if self.open[group].is_empty() {
            self.open_groups.remove(&group);
        }
    }

    /// Removes `id` from the active set and marks it `Evaluating`. Returns
    /// `false` if the node was not active.
    pub fn begin_evaluation(&mut self, id: NodeId) -> bool {
        if self.nodes[id].state != NodeState::Active {
            return false;
        }
        self.close_node(id);
        self.nodes[id].state = NodeState::Evaluating;
        true
    }

    /// Returns an `Evaluating` node to the active set. This is the fault
    /// recovery primitive: when a worker crashes or its report is lost, the
    /// supervisor reopens the node so another rank can evaluate it (the
    /// node's payload — bounds, warm basis — still lives in the tree, which
    /// is what makes the tree the in-memory checkpoint of Section 2.1).
    /// Returns `false` unless the node was `Evaluating`.
    pub fn reopen(&mut self, id: NodeId) -> bool {
        if self.nodes[id].state != NodeState::Evaluating {
            return false;
        }
        self.nodes[id].state = NodeState::Active;
        self.open_node(id);
        self.stats.reopened += 1;
        self.stats.max_active = self.stats.max_active.max(self.active.len());
        true
    }

    /// Moves a node to scheduling group `group`. An open node changes
    /// ordered sets; any other node just carries the tag until it reopens.
    pub fn set_group(&mut self, id: NodeId, group: usize) {
        if self.nodes[id].group == group {
            return;
        }
        let open = self.nodes[id].state == NodeState::Active;
        if open {
            self.close_node(id);
        }
        self.nodes[id].group = group;
        if open {
            self.open_node(id);
        }
    }

    /// Marks an evaluating node as a terminal leaf with the given state and
    /// bound.
    pub fn settle(&mut self, id: NodeId, state: NodeState, bound: f64) {
        debug_assert!(state.is_terminal_leaf());
        debug_assert_eq!(self.nodes[id].state, NodeState::Evaluating);
        self.nodes[id].state = state;
        self.nodes[id].bound = bound;
        match state {
            NodeState::Feasible => self.stats.feasible += 1,
            NodeState::Infeasible => self.stats.infeasible += 1,
            NodeState::Pruned => self.stats.pruned += 1,
            _ => unreachable!("settle called with non-terminal state"),
        }
    }

    /// Expands an evaluating node into children; each child becomes Active
    /// in its parent's group. Returns the new ids.
    pub fn branch(
        &mut self,
        id: NodeId,
        bound: f64,
        children: impl IntoIterator<Item = (String, D)>,
    ) -> Vec<NodeId> {
        debug_assert_eq!(self.nodes[id].state, NodeState::Evaluating);
        self.nodes[id].state = NodeState::Branched;
        self.nodes[id].bound = bound;
        self.stats.branched += 1;
        let depth = self.nodes[id].depth + 1;
        let group = self.nodes[id].group;
        let mut ids = Vec::new();
        for (label, data) in children {
            let cid = self.nodes.len();
            self.nodes.push(Node {
                id: cid,
                parent: Some(id),
                depth,
                state: NodeState::Active,
                bound,
                group,
                slot: NOT_OPEN,
                children: Vec::new(),
                label,
                data,
            });
            self.open_node(cid);
            self.stats.created += 1;
            self.stats.max_depth = self.stats.max_depth.max(depth);
            ids.push(cid);
        }
        self.nodes[id].children = ids.clone();
        self.stats.max_active = self.stats.max_active.max(self.active.len());
        ids
    }

    /// Prunes every *active* node whose inherited bound cannot beat
    /// `incumbent` (maximize sense: bound ≤ incumbent + tol). Returns the
    /// number pruned. This is global bound-pruning after a new incumbent.
    pub fn prune_dominated(&mut self, incumbent: f64, tol: f64) -> usize {
        let mut pruned = 0;
        let mut from = 0;
        while let Some(group) = self.next_open_group(from) {
            pruned += self.prune_dominated_in(group, incumbent, tol);
            from = group + 1;
        }
        pruned
    }

    /// Like [`Self::prune_dominated`], but only within one group. The
    /// hierarchical cluster uses this for *group-scoped* pruning: a
    /// sub-supervisor that learns a new incumbent may only prune the
    /// frontier it owns — other groups prune when the root's broadcast
    /// reaches them, so pruning power honestly lags the modeled message
    /// latency.
    pub fn prune_dominated_in(&mut self, group: usize, incumbent: f64, tol: f64) -> usize {
        let mut pruned = 0;
        // The dominated nodes are exactly a tail of the group's order.
        while let Some(&(_, id)) = self.open.get(group).and_then(BTreeSet::last) {
            if self.nodes[id].bound > incumbent + tol {
                break;
            }
            self.close_node(id);
            self.nodes[id].state = NodeState::Pruned;
            self.stats.pruned += 1;
            pruned += 1;
        }
        pruned
    }

    /// The best open node of the whole frontier: largest bound, ties to the
    /// lowest id. `None` when no work remains.
    pub fn best(&self) -> Option<NodeId> {
        self.best_among(self.open_groups.iter().copied())
    }

    /// The best open node of one group.
    pub fn best_in(&self, group: usize) -> Option<NodeId> {
        self.best_among([group])
    }

    /// The best open node across `groups`, by the same order.
    pub fn best_among(&self, groups: impl IntoIterator<Item = usize>) -> Option<NodeId> {
        groups
            .into_iter()
            .filter_map(|g| self.open.get(g)?.first())
            .min()
            .map(|&(_, id)| id)
    }

    /// Open nodes of one group, best first.
    pub fn iter_in(&self, group: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.open
            .get(group)
            .into_iter()
            .flat_map(|set| set.iter().map(|&(_, id)| id))
    }

    /// How many open nodes one group holds.
    pub fn open_in(&self, group: usize) -> usize {
        self.open.get(group).map_or(0, BTreeSet::len)
    }

    /// Best (largest) bound among one group's open nodes.
    pub fn best_bound_in(&self, group: usize) -> Option<f64> {
        self.best_in(group).map(|id| self.nodes[id].bound)
    }

    /// The lowest-numbered group at or after `from` that holds open nodes.
    pub fn next_open_group(&self, from: usize) -> Option<usize> {
        self.open_groups.range(from..).next().copied()
    }

    /// Best (largest) bound among open nodes — the global dual bound.
    /// `None` when no work remains.
    pub fn best_open_bound(&self) -> Option<f64> {
        self.best().map(|id| self.nodes[id].bound)
    }

    /// Approximate bytes to store the tree's nodes on a device (Strategy 1
    /// accounting).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * self.node_bytes
    }

    /// Verifies the Figure-1 completion invariant: when no active nodes
    /// remain, every node is Feasible, Infeasible, Pruned, or Branched.
    pub fn all_settled(&self) -> bool {
        !self.has_active()
            && self
                .nodes
                .iter()
                .all(|n| n.state.is_terminal_leaf() || n.state == NodeState::Branched)
    }

    /// Iterator over all nodes.
    pub fn iter(&self) -> impl Iterator<Item = &Node<D>> {
        self.nodes.iter()
    }

    /// Overwrites a node's state behind the index, for tests of validators
    /// that must reject trees the API cannot build.
    #[cfg(test)]
    pub(crate) fn corrupt_state(&mut self, id: NodeId, state: NodeState) {
        self.nodes[id].state = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_tree() -> SearchTree<u32> {
        let mut t = SearchTree::with_root(0u32, 64);
        assert!(t.begin_evaluation(0));
        t.branch(0, 10.0, [("x0 ≤ 0".into(), 1), ("x0 ≥ 1".into(), 2)]);
        t
    }

    #[test]
    fn root_initialization() {
        let t = SearchTree::with_root(7u32, 100);
        assert_eq!(t.len(), 1);
        assert_eq!(t.root(), 0);
        assert!(t.has_active());
        assert_eq!(t.node(0).state, NodeState::Active);
        assert_eq!(t.node(0).bound, f64::INFINITY);
        assert_eq!(t.approx_bytes(), 100);
        assert!(t.is_empty());
    }

    #[test]
    fn branch_creates_active_children() {
        let t = two_level_tree();
        assert_eq!(t.len(), 3);
        assert_eq!(t.active_ids(), &[1, 2]);
        assert_eq!(t.node(0).state, NodeState::Branched);
        assert_eq!(t.node(1).parent, Some(0));
        assert_eq!(t.node(1).depth, 1);
        assert_eq!(t.node(1).bound, 10.0, "children inherit the parent bound");
        assert_eq!(t.node(0).children, vec![1, 2]);
        assert_eq!(t.stats().created, 3);
        assert_eq!(t.stats().max_depth, 1);
    }

    #[test]
    fn begin_evaluation_only_once() {
        let mut t = two_level_tree();
        assert!(t.begin_evaluation(1));
        assert!(!t.begin_evaluation(1), "node already off the active set");
        assert_eq!(t.node(1).state, NodeState::Evaluating);
        assert_eq!(t.active_ids(), &[2]);
    }

    #[test]
    fn settle_updates_stats() {
        let mut t = two_level_tree();
        t.begin_evaluation(1);
        t.settle(1, NodeState::Feasible, 8.0);
        t.begin_evaluation(2);
        t.settle(2, NodeState::Infeasible, f64::NEG_INFINITY);
        assert_eq!(t.stats().feasible, 1);
        assert_eq!(t.stats().infeasible, 1);
        assert!(t.all_settled());
    }

    #[test]
    fn prune_dominated_respects_bounds() {
        let mut t = two_level_tree();
        // Children carry bound 10. An incumbent of 10 dominates both.
        let pruned = t.prune_dominated(10.0, 1e-9);
        assert_eq!(pruned, 2);
        assert!(!t.has_active());
        assert_eq!(t.stats().pruned, 2);
        assert!(t.all_settled());
        // No active nodes → no open bound.
        assert_eq!(t.best_open_bound(), None);
    }

    #[test]
    fn prune_keeps_improving_nodes() {
        let mut t = two_level_tree();
        // Node 1 branches again at bound 20: its children survive an
        // incumbent of 15, node 2 (bound 10) does not.
        t.begin_evaluation(1);
        t.branch(1, 20.0, [("L".into(), 3), ("R".into(), 4)]);
        let pruned = t.prune_dominated(15.0, 1e-9);
        assert_eq!(pruned, 1);
        assert_eq!(t.node(2).state, NodeState::Pruned);
        assert_eq!(t.best(), Some(3), "ties go to the lowest id");
        assert_eq!(t.best_open_bound(), Some(20.0));
    }

    #[test]
    fn scoped_prune_only_touches_its_group() {
        let mut t = two_level_tree();
        // Both children carry bound 10; move node 2 to group 1 and prune
        // only there.
        t.set_group(2, 1);
        assert_eq!((t.open_in(0), t.open_in(1)), (1, 1));
        assert_eq!(t.prune_dominated_in(1, 10.0, 1e-9), 1);
        assert_eq!(t.active_ids(), &[1]);
        assert_eq!(t.node(2).state, NodeState::Pruned);
        assert_eq!(t.next_open_group(0), Some(0));
        assert_eq!(t.next_open_group(1), None);
        // The survivor is still prunable by an unscoped pass.
        assert_eq!(t.prune_dominated(10.0, 1e-9), 1);
        assert!(t.all_settled());
    }

    #[test]
    fn groups_order_independently_and_merge_by_the_same_key() {
        let mut t = two_level_tree();
        t.begin_evaluation(1);
        let kids = t.branch(1, 7.0, [("L".into(), 3), ("R".into(), 4)]);
        t.set_group(kids[1], 2);
        // Group 0 holds node 2 (bound 10) and node 3 (bound 7).
        assert_eq!(t.iter_in(0).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(t.best_in(2), Some(4));
        assert_eq!(t.best_bound_in(2), Some(7.0));
        assert_eq!(t.best_in(5), None, "unknown groups are empty");
        assert_eq!(t.best_among([2, 5]), Some(4));
        assert_eq!(t.best(), Some(2));
        // An evaluating node carries its group until it reopens.
        t.begin_evaluation(3);
        t.set_group(3, 2);
        assert_eq!(t.open_in(2), 1);
        t.reopen(3);
        assert_eq!(t.iter_in(2).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn negative_zero_ties_with_zero() {
        assert_eq!(descending_bits(-0.0), descending_bits(0.0));
        assert!(descending_bits(f64::INFINITY) < descending_bits(1.0));
        assert!(descending_bits(1.0) < descending_bits(-1.0));
        assert!(descending_bits(-1.0) < descending_bits(f64::NEG_INFINITY));
    }

    #[test]
    fn all_settled_false_while_open() {
        let t = two_level_tree();
        assert!(!t.all_settled());
    }

    #[test]
    fn reopen_returns_lost_evaluation_to_active_set() {
        let mut t = two_level_tree();
        assert!(t.begin_evaluation(1));
        assert_eq!(t.active_ids(), &[2]);
        assert!(t.reopen(1), "evaluating node reopens");
        assert_eq!(t.node(1).state, NodeState::Active);
        assert!(t.active_ids().contains(&1));
        assert_eq!(t.stats().reopened, 1);
        // Only Evaluating nodes can be reopened.
        assert!(!t.reopen(1), "already active");
        t.begin_evaluation(1);
        t.settle(1, NodeState::Pruned, 0.0);
        assert!(!t.reopen(1), "settled node stays settled");
    }
}
