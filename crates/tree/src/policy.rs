//! Node-selection policies.
//!
//! Section 5.3 of the paper: reusing the device-resident matrix across tree
//! nodes "may warrant the use of a GPU-specific scheduling policy that
//! picks the next node to evaluate from the branch-and-cut tree", i.e. a
//! policy *qualitatively different* from a traditional CPU solver's.
//! [`ReuseAffinity`] is that policy: it prefers nodes close (in tree
//! distance) to the last evaluated node, so consecutive LPs share most of
//! their matrix state on the device. [`BestFirst`]/[`DepthFirst`]/
//! [`BreadthFirst`] are the conventional baselines it is compared against
//! in experiment E3c.
//!
//! Only [`BestFirst`] reads the tree's ordered frontier. The other three
//! still scan [`SearchTree::active_ids`] per pick, on purpose: their orders
//! (depth, and tree distance to a node that changes every pick) are not the
//! frontier's `(bound, id)` key, so indexing them means a second and third
//! ordered set maintained on every open and close — paid by every driver —
//! for policies that only the serial host solver offers (`--policy`, F1's
//! depth-first rendering, E3c's comparison) and no wave, cluster or serve
//! path ever selects. Their trees are the small ones those experiments
//! enumerate; the scan costs O(frontier) there and nothing anywhere else.

use crate::node::NodeId;
use crate::tree::SearchTree;

/// A strategy for picking the next active node to evaluate.
pub trait NodeSelection<D> {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Picks the next node from the tree's active set; `None` when no work
    /// remains. Must be deterministic for reproducibility.
    fn select(&mut self, tree: &SearchTree<D>) -> Option<NodeId>;

    /// Informs the policy that `id` was just evaluated (affinity state).
    fn notify_evaluated(&mut self, _id: NodeId) {}
}

/// Best-bound-first: the node with the largest relaxation bound
/// (ties → lowest id). Minimizes evaluated nodes but hops around the tree.
#[derive(Debug, Default, Clone)]
pub struct BestFirst;

impl<D> NodeSelection<D> for BestFirst {
    fn name(&self) -> &'static str {
        "best-first"
    }

    fn select(&mut self, tree: &SearchTree<D>) -> Option<NodeId> {
        tree.best()
    }
}

/// Depth-first: the deepest node (ties → highest id, LIFO-like). Finds
/// incumbents fast with minimal memory.
#[derive(Debug, Default, Clone)]
pub struct DepthFirst;

impl<D> NodeSelection<D> for DepthFirst {
    fn name(&self) -> &'static str {
        "depth-first"
    }

    fn select(&mut self, tree: &SearchTree<D>) -> Option<NodeId> {
        tree.active_ids().iter().copied().max_by(|&a, &b| {
            let (da, db) = (tree.node(a).depth, tree.node(b).depth);
            da.cmp(&db).then(a.cmp(&b))
        })
    }
}

/// Breadth-first: the shallowest node (ties → lowest id). A poor-locality
/// baseline.
#[derive(Debug, Default, Clone)]
pub struct BreadthFirst;

impl<D> NodeSelection<D> for BreadthFirst {
    fn name(&self) -> &'static str {
        "breadth-first"
    }

    fn select(&mut self, tree: &SearchTree<D>) -> Option<NodeId> {
        tree.active_ids().iter().copied().min_by(|&a, &b| {
            let (da, db) = (tree.node(a).depth, tree.node(b).depth);
            da.cmp(&db).then(a.cmp(&b))
        })
    }
}

/// The GPU-aware reuse-affinity policy (Section 5.3): picks the active node
/// with the smallest tree distance to the last evaluated node (ties → best
/// bound, then lowest id). Consecutive nodes then share a nearby common
/// ancestor, so their LP bases differ by few bound changes and the
/// device-resident matrix state is maximally reusable.
#[derive(Debug, Default, Clone)]
pub struct ReuseAffinity {
    last: Option<NodeId>,
}

impl ReuseAffinity {
    /// Tree distance between nodes `a` and `b` (edges via their LCA).
    fn distance<D>(tree: &SearchTree<D>, a: NodeId, b: NodeId) -> usize {
        let mut pa = a;
        let mut pb = b;
        let mut da = tree.node(a).depth;
        let mut db = tree.node(b).depth;
        let mut dist = 0;
        while da > db {
            pa = tree.node(pa).parent.expect("depth > 0 has parent");
            da -= 1;
            dist += 1;
        }
        while db > da {
            pb = tree.node(pb).parent.expect("depth > 0 has parent");
            db -= 1;
            dist += 1;
        }
        while pa != pb {
            pa = tree.node(pa).parent.expect("roots are unique");
            pb = tree.node(pb).parent.expect("roots are unique");
            dist += 2;
        }
        dist
    }
}

impl<D> NodeSelection<D> for ReuseAffinity {
    fn name(&self) -> &'static str {
        "reuse-affinity"
    }

    fn select(&mut self, tree: &SearchTree<D>) -> Option<NodeId> {
        let Some(last) = self.last else {
            return BestFirst.select(tree);
        };
        tree.active_ids().iter().copied().min_by(|&a, &b| {
            let dist_a = Self::distance(tree, last, a);
            let dist_b = Self::distance(tree, last, b);
            dist_a
                .cmp(&dist_b)
                .then_with(|| {
                    tree.node(b)
                        .bound
                        .partial_cmp(&tree.node(a).bound)
                        .expect("bounds are never NaN")
                })
                .then(a.cmp(&b))
        })
    }

    fn notify_evaluated(&mut self, id: NodeId) {
        self.last = Some(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds:          root(0)
    ///                 /      \
    ///              n1(b=5)   n2(b=9)
    ///              /    \
    ///          n3(b=5)  n4(b=5)
    /// with n2, n3, n4 active (children inherit the bound their parent
    /// branched at).
    fn sample_tree() -> SearchTree<()> {
        let mut t = SearchTree::with_root((), 64);
        t.begin_evaluation(0);
        let kids = t.branch(0, 9.0, [("L".into(), ()), ("R".into(), ())]);
        t.begin_evaluation(kids[0]);
        t.branch(kids[0], 5.0, [("LL".into(), ()), ("LR".into(), ())]);
        t
    }

    #[test]
    fn best_first_picks_largest_bound() {
        let t = sample_tree();
        let mut p = BestFirst;
        assert_eq!(NodeSelection::<()>::select(&mut p, &t), Some(2)); // bound 9
    }

    #[test]
    fn depth_first_goes_deep() {
        let t = sample_tree();
        let mut p = DepthFirst;
        // Depth-2 nodes are 3 and 4; highest id wins.
        assert_eq!(NodeSelection::<()>::select(&mut p, &t), Some(4));
    }

    #[test]
    fn breadth_first_stays_shallow() {
        let t = sample_tree();
        let mut p = BreadthFirst;
        assert_eq!(NodeSelection::<()>::select(&mut p, &t), Some(2)); // depth 1
    }

    #[test]
    fn reuse_affinity_prefers_nearby() {
        let mut t = sample_tree();
        let mut p = ReuseAffinity::default();
        // No history → best-first → node 2.
        assert_eq!(NodeSelection::<()>::select(&mut p, &t), Some(2));
        // Evaluate node 3 (deep left): its sibling 4 (distance 2) is closer
        // than node 2 (distance 3).
        t.begin_evaluation(3);
        NodeSelection::<()>::notify_evaluated(&mut p, 3);
        assert_eq!(NodeSelection::<()>::select(&mut p, &t), Some(4));
    }

    #[test]
    fn distance_computation() {
        let t = sample_tree();
        assert_eq!(ReuseAffinity::distance(&t, 3, 4), 2); // siblings
        assert_eq!(ReuseAffinity::distance(&t, 3, 2), 3); // across the root
        assert_eq!(ReuseAffinity::distance(&t, 0, 3), 2);
        assert_eq!(ReuseAffinity::distance(&t, 3, 3), 0);
    }

    #[test]
    fn empty_tree_returns_none() {
        let mut t = SearchTree::with_root((), 64);
        t.begin_evaluation(0);
        t.settle(0, crate::node::NodeState::Infeasible, f64::NEG_INFINITY);
        let mut p = BestFirst;
        assert_eq!(NodeSelection::<()>::select(&mut p, &t), None);
        let mut r = ReuseAffinity::default();
        assert_eq!(NodeSelection::<()>::select(&mut r, &t), None);
    }
}
