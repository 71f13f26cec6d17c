//! Solver configuration.

use gmip_lp::LpConfig;

/// Node-selection policy choice (dispatches to `gmip_tree::policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Best bound first (fewest nodes, poor locality).
    BestFirst,
    /// Depth first (fast incumbents, small active set).
    DepthFirst,
    /// Breadth first (baseline with the worst locality).
    BreadthFirst,
    /// The GPU-aware reuse-affinity policy of Section 5.3.
    ReuseAffinity,
}

/// Cutting-plane configuration (root-only rounds; the generated cut
/// families — GMI and knapsack covers — are globally valid).
#[derive(Debug, Clone)]
pub struct CutConfig {
    /// Master switch.
    pub enabled: bool,
    /// Maximum separation rounds at the root.
    pub max_rounds: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_rounds: 5,
        }
    }
}

/// Primal-heuristic configuration.
#[derive(Debug, Clone)]
pub struct HeurConfig {
    /// Try rounding every node LP solution.
    pub rounding: bool,
    /// Run a diving pass from the root relaxation.
    pub diving: bool,
    /// Run the fix-and-propagate dive every this many evaluated nodes
    /// (`gmip-prop`); `0` disables it. Off by default — opt-in, so the
    /// committed baselines stay valid.
    pub fix_and_propagate_period: usize,
}

impl Default for HeurConfig {
    fn default() -> Self {
        Self {
            rounding: true,
            diving: false,
            fix_and_propagate_period: 0,
        }
    }
}

/// Propagation round cap per node wherever no flag sets one: the default of
/// [`MipConfig::propagate_rounds`] and of both wave configs, and what a
/// cluster rank (whose config carries no such field) always uses.
pub const DEFAULT_PROPAGATE_ROUNDS: usize = 8;

/// Full branch-and-cut configuration.
#[derive(Debug, Clone)]
pub struct MipConfig {
    /// LP engine tolerances and limits.
    pub lp: LpConfig,
    /// Maximum nodes to evaluate before giving up with `NodeLimit`.
    pub node_limit: usize,
    /// Node-selection policy.
    pub policy: PolicyKind,
    /// Cutting planes.
    pub cuts: CutConfig,
    /// Primal heuristics.
    pub heuristics: HeurConfig,
    /// Run iterated activity-based bound propagation (`gmip-prop`) on every
    /// node's box before LP work: infeasible nodes settle without touching
    /// the engine and integer bounds tighten. Off by default (opt-in).
    pub propagate: bool,
    /// Propagation round cap per node (`prop.activity`/`prop.tighten`/
    /// `prop.reduce` kernel trios); only read when [`Self::propagate`] is on.
    pub propagate_rounds: usize,
    /// Reuse one LP engine across tree nodes (Section 5.3). When false, a
    /// fresh engine is built per node — on a device backend that re-uploads
    /// the matrix every node, the costly baseline of experiment E3c/E8.
    pub engine_reuse: bool,
    /// Stop early once the relative optimality gap
    /// `(best open bound − incumbent) / max(1, |incumbent|)` falls to this
    /// value (0.0 = prove optimality exactly).
    pub gap_rel: f64,
    /// Stop as soon as an incumbent at least this good (source sense) is
    /// found.
    pub objective_limit: Option<f64>,
    /// Record an exactly-checkable [`gmip_lp::LpCertificate`] for every node
    /// LP outcome in `SolveStats::certificates` (dual bounds for optimal
    /// nodes, Farkas witnesses for infeasible ones). Off by default: the
    /// record grows with the tree and exists for the `gmip-verify` oracle.
    pub collect_certificates: bool,
}

impl Default for MipConfig {
    fn default() -> Self {
        Self {
            lp: LpConfig::standard(),
            node_limit: 100_000,
            policy: PolicyKind::BestFirst,
            cuts: CutConfig::default(),
            heuristics: HeurConfig::default(),
            propagate: false,
            propagate_rounds: DEFAULT_PROPAGATE_ROUNDS,
            engine_reuse: true,
            gap_rel: 0.0,
            objective_limit: None,
            collect_certificates: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = MipConfig::default();
        assert!(c.engine_reuse);
        assert!(c.cuts.enabled);
        assert!(c.heuristics.rounding);
        assert!(!c.heuristics.diving);
        assert!(!c.propagate, "propagation must be opt-in");
        assert_eq!(c.heuristics.fix_and_propagate_period, 0);
        assert!(c.propagate_rounds >= 1);
        assert!(c.node_limit > 1000);
        assert_eq!(c.gap_rel, 0.0);
        assert!(c.objective_limit.is_none());
    }
}
