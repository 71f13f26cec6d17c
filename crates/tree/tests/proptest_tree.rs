//! Property-based invariants of the search-tree substrate:
//!
//! * random evaluate/branch/settle/prune traces keep the tree consistent
//!   (state machine, active-set bookkeeping, statistics balance);
//! * at every step the captured snapshot validates;
//! * the completion invariant (paper Figure 1) holds once the active set
//!   drains;
//! * every selection policy always returns an active node.

use gmip_tree::policy::{BestFirst, BreadthFirst, DepthFirst, NodeSelection, ReuseAffinity};
use gmip_tree::{capture, completion_invariant, validate, NodeState, SearchTree};
use proptest::prelude::*;

/// One scripted step of a search trace.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Evaluate the chosen node and branch into two children with the given
    /// bound.
    Branch(f64),
    /// Evaluate and settle feasible at the given bound.
    Feasible(f64),
    /// Evaluate and settle infeasible.
    Infeasible,
    /// Prune everything dominated by the given incumbent.
    PruneAt(f64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0.0f64..100.0).prop_map(Step::Branch),
        (0.0f64..100.0).prop_map(Step::Feasible),
        Just(Step::Infeasible),
        (0.0f64..100.0).prop_map(Step::PruneAt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_traces_keep_invariants(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        policy_pick in 0usize..4,
    ) {
        let mut tree: SearchTree<u32> = SearchTree::with_root(0, 64);
        let mut best = BestFirst;
        let mut depth = DepthFirst;
        let mut breadth = BreadthFirst;
        let mut reuse = ReuseAffinity::default();
        for step in steps {
            let selected = match policy_pick {
                0 => NodeSelection::<u32>::select(&mut best, &tree),
                1 => NodeSelection::<u32>::select(&mut depth, &tree),
                2 => NodeSelection::<u32>::select(&mut breadth, &tree),
                _ => NodeSelection::<u32>::select(&mut reuse, &tree),
            };
            match step {
                Step::PruneAt(v) => {
                    tree.prune_dominated(v, 1e-9);
                }
                _ => {
                    let Some(id) = selected else { break };
                    // Selected nodes must be active.
                    prop_assert_eq!(tree.node(id).state, NodeState::Active);
                    prop_assert!(tree.begin_evaluation(id));
                    // Double-start must be rejected.
                    prop_assert!(!tree.begin_evaluation(id));
                    match step {
                        Step::Branch(bound) => {
                            let kids = tree.branch(
                                id,
                                bound,
                                [("L".to_string(), 1u32), ("R".to_string(), 2u32)],
                            );
                            prop_assert_eq!(kids.len(), 2);
                            for k in kids {
                                prop_assert_eq!(tree.node(k).parent, Some(id));
                                prop_assert_eq!(tree.node(k).state, NodeState::Active);
                            }
                        }
                        Step::Feasible(bound) => {
                            tree.settle(id, NodeState::Feasible, bound)
                        }
                        Step::Infeasible => {
                            tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY)
                        }
                        Step::PruneAt(_) => unreachable!("handled above"),
                    }
                }
            }
            // Snapshot consistency at every step.
            let snap = capture(&tree, None);
            prop_assert!(validate(&tree, &snap).is_ok());
            // Statistics balance: created = settled leaves + branched + open.
            let s = tree.stats();
            let open = tree.active_ids().len()
                + tree
                    .iter()
                    .filter(|n| n.state == NodeState::Evaluating)
                    .count();
            prop_assert_eq!(s.created, s.leaves() + s.branched + open);
        }
        // Drain the remaining work; the completion invariant must hold.
        while let Some(&id) = tree.active_ids().first() {
            tree.begin_evaluation(id);
            tree.settle(id, NodeState::Pruned, 0.0);
        }
        prop_assert!(completion_invariant(&tree));
        prop_assert!(tree.all_settled());
    }
}
