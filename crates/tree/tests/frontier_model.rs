//! Model test of the ordered frontier: random interleavings of every
//! operation that opens, closes, re-bounds or re-groups a node, checked
//! step by step against the implementation the index replaced — a flat
//! active vector searched with `position`, `min_by` and `filter`, kept here
//! as the oracle.
//!
//! The generator draws bounds from a small palette so that ties, `±0.0`,
//! `±inf` and bounds exactly at the prune threshold all occur often.

use gmip_tree::{NodeId, NodeState, SearchTree, TreeStats};
use proptest::prelude::*;

/// Bounds (and prune thresholds) the generator draws from.
const PALETTE: [f64; 9] = [
    f64::NEG_INFINITY,
    -5.0,
    -0.0,
    0.0,
    1.0,
    1.0 + f64::EPSILON,
    2.5,
    7.0,
    f64::INFINITY,
];

const GROUPS: usize = 4;

/// The linear-scan tree: what `SearchTree` did before it kept an index.
#[derive(Default)]
struct LinearTree {
    /// (bound, state, group) per node id.
    nodes: Vec<(f64, NodeState, usize)>,
    active: Vec<NodeId>,
    stats: TreeStats,
}

impl LinearTree {
    fn with_root() -> Self {
        let mut t = Self::default();
        t.nodes.push((f64::INFINITY, NodeState::Active, 0));
        t.active.push(0);
        t.stats.created = 1;
        t.stats.max_active = 1;
        t
    }

    fn begin_evaluation(&mut self, id: NodeId) -> bool {
        let Some(pos) = self.active.iter().position(|&a| a == id) else {
            return false;
        };
        self.active.swap_remove(pos);
        self.nodes[id].1 = NodeState::Evaluating;
        true
    }

    fn reopen(&mut self, id: NodeId) -> bool {
        if self.nodes[id].1 != NodeState::Evaluating {
            return false;
        }
        self.nodes[id].1 = NodeState::Active;
        self.active.push(id);
        self.stats.reopened += 1;
        self.stats.max_active = self.stats.max_active.max(self.active.len());
        true
    }

    fn settle(&mut self, id: NodeId, state: NodeState, bound: f64) {
        self.nodes[id].0 = bound;
        self.nodes[id].1 = state;
        match state {
            NodeState::Feasible => self.stats.feasible += 1,
            NodeState::Infeasible => self.stats.infeasible += 1,
            _ => self.stats.pruned += 1,
        }
    }

    fn branch(&mut self, id: NodeId, bound: f64, kids: usize, depth: usize) -> Vec<NodeId> {
        self.nodes[id].0 = bound;
        self.nodes[id].1 = NodeState::Branched;
        self.stats.branched += 1;
        let group = self.nodes[id].2;
        let ids: Vec<NodeId> = (0..kids)
            .map(|_| {
                self.nodes.push((bound, NodeState::Active, group));
                self.active.push(self.nodes.len() - 1);
                self.stats.created += 1;
                self.stats.max_depth = self.stats.max_depth.max(depth);
                self.nodes.len() - 1
            })
            .collect();
        self.stats.max_active = self.stats.max_active.max(self.active.len());
        ids
    }

    fn prune_where(&mut self, incumbent: f64, tol: f64, group: Option<usize>) -> usize {
        let mut pruned = 0;
        let mut keep = Vec::new();
        for &id in &self.active {
            let (bound, _, g) = self.nodes[id];
            if bound <= incumbent + tol && group.is_none_or(|only| only == g) {
                self.nodes[id].1 = NodeState::Pruned;
                self.stats.pruned += 1;
                pruned += 1;
            } else {
                keep.push(id);
            }
        }
        self.active = keep;
        pruned
    }

    /// Open nodes of `group` (all groups when `None`), best first.
    fn ordered(&self, group: Option<usize>) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .active
            .iter()
            .copied()
            .filter(|&id| group.is_none_or(|g| self.nodes[id].2 == g))
            .collect();
        ids.sort_by(|&a, &b| {
            self.nodes[b]
                .0
                .partial_cmp(&self.nodes[a].0)
                .expect("bounds are never NaN")
                .then(a.cmp(&b))
        });
        ids
    }
}

/// One scripted operation; `pick` indexes the candidates the operation
/// applies to (sorted by id), modulo their count.
#[derive(Debug, Clone, Copy)]
enum Op {
    Branch {
        pick: usize,
        bound: usize,
        kids: usize,
    },
    Begin {
        pick: usize,
    },
    Reopen {
        pick: usize,
    },
    Settle {
        pick: usize,
        bound: usize,
        state: usize,
    },
    Prune {
        at: usize,
        tol: bool,
    },
    PruneIn {
        group: usize,
        at: usize,
        tol: bool,
    },
    SetGroup {
        pick: usize,
        group: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let p = 0usize..PALETTE.len();
    prop_oneof![
        (0usize..64, p.clone(), 1usize..4).prop_map(|(pick, bound, kids)| Op::Branch {
            pick,
            bound,
            kids
        }),
        (0usize..64, p.clone(), 1usize..4).prop_map(|(pick, bound, kids)| Op::Branch {
            pick,
            bound,
            kids
        }),
        (0usize..64).prop_map(|pick| Op::Begin { pick }),
        (0usize..64).prop_map(|pick| Op::Reopen { pick }),
        (0usize..64, p.clone(), 0usize..3).prop_map(|(pick, bound, state)| Op::Settle {
            pick,
            bound,
            state
        }),
        (p.clone(), any::<bool>()).prop_map(|(at, tol)| Op::Prune { at, tol }),
        (0usize..GROUPS + 1, p, any::<bool>()).prop_map(|(group, at, tol)| Op::PruneIn {
            group,
            at,
            tol
        }),
        (0usize..64, 0usize..GROUPS).prop_map(|(pick, group)| Op::SetGroup { pick, group }),
    ]
}

fn with_state(model: &LinearTree, state: NodeState) -> Vec<NodeId> {
    (0..model.nodes.len())
        .filter(|&id| model.nodes[id].1 == state)
        .collect()
}

fn check(tree: &SearchTree<()>, model: &LinearTree) {
    assert_eq!(tree.stats(), &model.stats);
    assert_eq!(tree.len(), model.nodes.len());
    for (id, &(bound, state, group)) in model.nodes.iter().enumerate() {
        let n = tree.node(id);
        assert_eq!(
            (n.bound.to_bits(), n.state, n.group),
            (bound.to_bits(), state, group)
        );
    }
    let mut active = tree.active_ids().to_vec();
    active.sort_unstable();
    let mut expected = model.active.clone();
    expected.sort_unstable();
    assert_eq!(active, expected, "active sets differ");
    assert_eq!(tree.has_active(), !expected.is_empty());

    let all = model.ordered(None);
    assert_eq!(tree.best(), all.first().copied());
    assert_eq!(
        tree.best_open_bound(),
        all.first().map(|&id| model.nodes[id].0)
    );
    let mut next_open = None;
    // One group past the last one any node was ever moved to: always empty.
    for g in (0..=GROUPS).rev() {
        let ordered = model.ordered(Some(g));
        assert_eq!(tree.iter_in(g).collect::<Vec<_>>(), ordered, "group {g}");
        assert_eq!(tree.best_in(g), ordered.first().copied());
        assert_eq!(tree.open_in(g), ordered.len());
        assert_eq!(
            tree.best_bound_in(g),
            ordered.first().map(|&id| model.nodes[id].0)
        );
        if !ordered.is_empty() {
            next_open = Some(g);
        }
        assert_eq!(tree.next_open_group(g), next_open);
    }
    assert_eq!(tree.best_among(0..=GROUPS), all.first().copied());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn ordered_frontier_matches_linear_scans(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut tree: SearchTree<()> = SearchTree::with_root((), 64);
        let mut model = LinearTree::with_root();
        check(&tree, &model);
        for op in ops {
            let choose = |from: Vec<NodeId>, pick: usize| {
                (!from.is_empty()).then(|| from[pick % from.len()])
            };
            let threshold = |tol: bool| if tol { 1e-9 } else { 0.0 };
            match op {
                Op::Branch { pick, bound, kids } => {
                    let Some(id) = choose(with_state(&model, NodeState::Active), pick) else {
                        continue;
                    };
                    prop_assert!(tree.begin_evaluation(id) && model.begin_evaluation(id));
                    let depth = tree.node(id).depth + 1;
                    let children = (0..kids).map(|_| (String::new(), ()));
                    prop_assert_eq!(
                        tree.branch(id, PALETTE[bound], children),
                        model.branch(id, PALETTE[bound], kids, depth)
                    );
                }
                Op::Begin { pick } => {
                    // Any node: a second start, or one of a settled node,
                    // must be refused by both.
                    let id = pick % model.nodes.len();
                    prop_assert_eq!(tree.begin_evaluation(id), model.begin_evaluation(id));
                }
                Op::Reopen { pick } => {
                    let id = pick % model.nodes.len();
                    prop_assert_eq!(tree.reopen(id), model.reopen(id));
                }
                Op::Settle { pick, bound, state } => {
                    let Some(id) = choose(with_state(&model, NodeState::Evaluating), pick) else {
                        continue;
                    };
                    let state =
                        [NodeState::Feasible, NodeState::Infeasible, NodeState::Pruned][state];
                    tree.settle(id, state, PALETTE[bound]);
                    model.settle(id, state, PALETTE[bound]);
                }
                Op::Prune { at, tol } => {
                    prop_assert_eq!(
                        tree.prune_dominated(PALETTE[at], threshold(tol)),
                        model.prune_where(PALETTE[at], threshold(tol), None)
                    );
                }
                Op::PruneIn { group, at, tol } => {
                    prop_assert_eq!(
                        tree.prune_dominated_in(group, PALETTE[at], threshold(tol)),
                        model.prune_where(PALETTE[at], threshold(tol), Some(group))
                    );
                }
                Op::SetGroup { pick, group } => {
                    let id = pick % model.nodes.len();
                    tree.set_group(id, group);
                    model.nodes[id].2 = group;
                }
            }
            check(&tree, &model);
        }
    }
}
