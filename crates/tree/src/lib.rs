//! # gmip-tree
//!
//! The branch-and-bound tree substrate for the `gmip` MIP solver (paper
//! Sections 2.1, 5.3, and Figure 1):
//!
//! * [`node`] — node lifecycle (active → evaluating → feasible/infeasible/
//!   pruned/branched);
//! * [`tree`] — the arena-backed [`tree::SearchTree`] with active-set
//!   tracking, a per-group ordered frontier (every best-first pick is the
//!   head of a set), bound pruning, and Strategy-1 device-memory
//!   accounting;
//! * [`policy`] — node-selection policies, including the GPU-aware
//!   [`policy::ReuseAffinity`] scheduler of Section 5.3;
//! * [`snapshot`] — consistent snapshots (Section 2.1) with validation;
//! * [`render`] — the ASCII solution-tree rendering reproducing Figure 1;
//! * [`stats`] — tree counters.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod node;
pub mod policy;
pub mod render;
pub mod snapshot;
pub mod stats;
pub mod tree;

pub use node::{Node, NodeId, NodeState};
pub use policy::{BestFirst, BreadthFirst, DepthFirst, NodeSelection, ReuseAffinity};
pub use snapshot::{capture, completion_invariant, validate, Snapshot, SnapshotError};
pub use stats::TreeStats;
pub use tree::SearchTree;
