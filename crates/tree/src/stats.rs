//! Search-tree statistics.

/// Counters maintained by [`crate::tree::SearchTree`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Nodes ever created (including the root).
    pub created: usize,
    /// Nodes expanded into children.
    pub branched: usize,
    /// Leaves settled feasible.
    pub feasible: usize,
    /// Leaves settled infeasible.
    pub infeasible: usize,
    /// Leaves pruned by bound.
    pub pruned: usize,
    /// Deepest node created.
    pub max_depth: usize,
    /// Largest size of the active set (peak outstanding work — what the
    /// paper's Strategy 1 must fit in GPU memory).
    pub max_active: usize,
    /// Evaluations lost to faults and returned to the active set (each one
    /// is a subproblem evaluated more than once).
    pub reopened: usize,
}

impl TreeStats {
    /// Total settled leaves.
    pub fn leaves(&self) -> usize {
        self.feasible + self.infeasible + self.pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = TreeStats {
            created: 7,
            branched: 3,
            feasible: 1,
            infeasible: 1,
            pruned: 2,
            max_depth: 2,
            max_active: 4,
            reopened: 0,
        };
        assert_eq!(s.leaves(), 4);
    }
}
