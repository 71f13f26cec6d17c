//! The branch-and-cut orchestrator.
//!
//! This is the paper's Strategy-2/3 control loop: the tree lives in host
//! memory, every node's LP relaxation is dispatched to the configured
//! engine (host reference, simulated device, or pooled Big-MIP device), and
//! the matrix is reused across nodes with warm-started dual re-solves
//! (Section 5.3). Root-only cut rounds (Section 5.2) and host-side primal
//! heuristics complete the branch-and-*cut* picture.

use crate::config::{MipConfig, PolicyKind};
use crate::cut::{self, Cut};
use crate::heur;
use crate::search::{self, Incumbent, NodeHook, NodeOutcome, PropCharge, Rules};
use gmip_gpu::{Accel, DeviceStats, Storage, DEFAULT_STREAM};
use gmip_linalg::DenseMatrix;
use gmip_lp::{
    Basis, BoundChange, CertKind, DeviceSimplex, LpCertificate, LpResult, LpSolution, LpSolver,
    LpStatus, SimplexEngine, StandardLp,
};
use gmip_problems::MipInstance;
use gmip_trace::{names, Event, MetricsRegistry, Track};
use gmip_tree::{
    BestFirst, BreadthFirst, DepthFirst, NodeId, NodeSelection, NodeState, ReuseAffinity,
    SearchTree,
};
use std::borrow::Cow;

/// Most cuts one root separation round adds: covers first, GMI cuts fill
/// the rest.
const CUTS_PER_ROUND: usize = 10;
/// A separated cut violated by no more than this is dropped.
const MIN_CUT_VIOLATION: f64 = 1e-4;
/// Most variables the root dive fixes.
const DIVE_DEPTH: usize = 20;

/// Payload stored per tree node.
#[derive(Debug, Clone, Default)]
pub struct NodePayload {
    /// Cumulative bound changes from the root (applied in order).
    pub bounds: Vec<BoundChange>,
    /// Parent's optimal basis for warm starts.
    pub parent_basis: Option<Basis>,
}

/// Terminal status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Search completed with an incumbent: it is optimal.
    Optimal,
    /// Search completed without any feasible point.
    Infeasible,
    /// The relaxation is unbounded in an improving integral direction.
    Unbounded,
    /// The node limit stopped the search early.
    NodeLimit,
    /// The relative optimality gap reached the configured tolerance; the
    /// incumbent is optimal within that gap.
    GapLimit,
    /// An incumbent at least as good as the configured objective limit was
    /// found.
    ObjectiveLimit,
}

/// Counters and cost ledgers of a solve.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Nodes evaluated (LPs solved).
    pub nodes: usize,
    /// Total simplex iterations across all node LPs.
    pub lp_iterations: usize,
    /// Cuts added at the root.
    pub cuts: usize,
    /// Incumbents found by heuristics.
    pub heur_incumbents: usize,
    /// Strategy-1 tree spills (device memory exhausted; node evicted).
    pub gpu_spills: usize,
    /// Final tree counters.
    pub tree: gmip_tree::TreeStats,
    /// Host executor ledger.
    pub host: DeviceStats,
    /// LP-device ledger.
    pub device: DeviceStats,
    /// Modeled wall time: host + device simulated time, ns (the
    /// orchestration is synchronous, so timelines add).
    pub sim_time_ns: f64,
    /// Final absolute gap (internal sense; 0 when optimal).
    pub gap: f64,
    /// Strategy name.
    pub strategy: &'static str,
    /// Unified metrics ledger: `bb.*` node-lifecycle counters plus the
    /// merged `lp.*` and `gpu.*` series from the LP solver and executors.
    pub metrics: MetricsRegistry,
    /// Exactly-checkable node LP certificates, one per evaluated node that
    /// produced dual evidence. Empty unless
    /// `MipConfig::collect_certificates` is set.
    pub certificates: Vec<LpCertificate>,
}

/// The result of a MIP solve.
#[derive(Debug)]
pub struct MipResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective in the source sense (`NaN` if none).
    pub objective: f64,
    /// Incumbent point (empty if none).
    pub x: Vec<f64>,
    /// Solve statistics.
    pub stats: SolveStats,
    /// The final search tree (for rendering and analysis).
    pub tree: SearchTree<NodePayload>,
}

/// The node-selection policy `kind` names.
fn node_selection(kind: PolicyKind) -> Box<dyn NodeSelection<NodePayload>> {
    match kind {
        PolicyKind::BestFirst => Box::new(BestFirst),
        PolicyKind::DepthFirst => Box::new(DepthFirst),
        PolicyKind::BreadthFirst => Box::new(BreadthFirst),
        PolicyKind::ReuseAffinity => Box::new(ReuseAffinity::default()),
    }
}

/// The branch-and-cut MIP solver, generic over the LP engine.
pub struct MipSolver<E: SimplexEngine> {
    instance: MipInstance,
    /// Sense, integral index list and tolerances, fixed at construction.
    rules: Rules,
    cfg: MipConfig,
    factory: Box<dyn Fn(&DenseMatrix) -> LpResult<E>>,
    host: Accel,
    lp_accel: Option<Accel>,
    tree_device: Option<Accel>,
    node_bytes: usize,
    strategy_name: &'static str,
    /// Model host and device timelines as overlapped (Strategy 3: the CPU
    /// runs heuristics/cuts concurrently with device LPs) instead of
    /// serialized.
    overlap_host: bool,
}

impl<E: SimplexEngine> std::fmt::Debug for MipSolver<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MipSolver")
            .field("instance", &self.instance.name)
            .field("strategy", &self.strategy_name)
            .finish_non_exhaustive()
    }
}

impl MipSolver<gmip_lp::HostEngine> {
    /// A pure-host baseline solver (no simulated accelerator).
    pub fn host_baseline(instance: MipInstance, cfg: MipConfig) -> Self {
        MipSolver::with_factory(instance, cfg, "host-baseline", None, None, |a| {
            Ok(gmip_lp::HostEngine::new(a.clone()))
        })
    }
}

impl<M: Storage + 'static> MipSolver<DeviceSimplex<M>> {
    /// A solver whose LPs run on the given accelerator (any strategy plan
    /// whose LP executor is a single device), with the matrix resident as
    /// `M`: `MipSolver::<DeviceEngine>` runs the dense kernel set,
    /// `MipSolver::<SparseDeviceEngine>` the CSR one — Section 5.4's two
    /// "MIP solver versions", which [`crate::dispatch`] picks between.
    pub fn on_accel(instance: MipInstance, cfg: MipConfig, accel: Accel) -> Self {
        let factory_accel = accel.clone();
        MipSolver::with_factory(instance, cfg, M::NAME, Some(accel), None, move |a| {
            DeviceSimplex::new(factory_accel.clone(), a)
        })
    }
}

impl MipSolver<gmip_lp::DeviceEngine> {
    /// A solver resolved from a [`crate::strategy::StrategyPlan`].
    pub fn with_plan(instance: MipInstance, plan: crate::strategy::StrategyPlan) -> Self {
        let factory_accel = plan.lp_accel.clone();
        let mut solver = MipSolver::with_factory(
            instance,
            plan.config,
            plan.name,
            Some(plan.lp_accel),
            plan.tree_device,
            move |a| gmip_lp::DeviceEngine::new(factory_accel.clone(), a),
        );
        solver.host = plan.host;
        solver.overlap_host = plan.overlap_host;
        solver
    }
}

impl<E: SimplexEngine> MipSolver<E> {
    /// Generic constructor over an engine factory.
    pub fn with_factory(
        instance: MipInstance,
        cfg: MipConfig,
        strategy_name: &'static str,
        lp_accel: Option<Accel>,
        tree_device: Option<Accel>,
        factory: impl Fn(&DenseMatrix) -> LpResult<E> + 'static,
    ) -> Self {
        Self {
            rules: Rules::new(&instance),
            node_bytes: search::node_bytes(&instance),
            instance,
            cfg,
            factory: Box::new(factory),
            host: Accel::cpu(),
            lp_accel,
            tree_device,
            strategy_name,
            overlap_host: false,
        }
    }

    /// The instance being solved.
    pub fn instance(&self) -> &MipInstance {
        &self.instance
    }

    fn charge_host(&self, flops: f64, bytes: f64) {
        self.host
            .with(|d| d.charge_custom(flops, bytes, false, DEFAULT_STREAM));
    }

    /// The solver's simulated "now", ns: host and LP-device timelines add
    /// when serialized and take the max under Strategy-3 overlap (many-core
    /// host work proceeds concurrently with the device's LP stream). The
    /// final `sim_time_ns` is this clock read at the end.
    fn sim_now_ns(&self) -> f64 {
        let h = self.host.elapsed_ns();
        let d = self.lp_accel.as_ref().map(Accel::elapsed_ns).unwrap_or(0.0);
        if self.overlap_host {
            h.max(d)
        } else {
            h + d
        }
    }

    /// Emits one node-lifecycle span on the solver track, covering the
    /// node's evaluation from `t0` to the current simulated time.
    fn node_span(&self, id: NodeId, state: &'static str, t0: f64) {
        let t1 = self.sim_now_ns().max(t0);
        gmip_trace::record(|| {
            Event::complete(Track::solver(), "node", t1 - t0, t0)
                .arg("node", id as u64)
                .arg("state", state)
        });
    }

    /// Marks an incumbent improvement as an instant on the solver track.
    fn incumbent_mark(&self, objective: f64, source: &'static str) {
        let ts = self.sim_now_ns();
        gmip_trace::record(|| {
            Event::instant(Track::solver(), "incumbent", ts)
                .arg("objective", objective)
                .arg("source", source)
        });
    }

    /// Strategy-1 accounting: park a node's record in device memory, or
    /// spill (evict to host with a transfer charge) when full. A working-set
    /// reserve is kept free so the LP engine's own buffers never starve —
    /// tree growth degrades to spilling instead of crashing the solve.
    fn tree_alloc(&self, stats: &mut SolveStats) {
        if let Some(dev) = &self.tree_device {
            let bytes = self.node_bytes;
            let reserve = 4 * self.instance.dense_matrix_bytes()
                + 64 * (self.instance.num_vars() + self.instance.num_cons()) * 8
                + (64 << 10);
            let fits = dev.with(|d| d.memory().available()) >= bytes + reserve;
            let ok = fits && dev.with(|d| d.alloc_raw(bytes)).is_ok();
            if !ok {
                stats.gpu_spills += 1;
                dev.with(|d| d.charge_transfer(bytes, false, DEFAULT_STREAM));
            }
        }
    }

    /// Root cut loop: separate → add → warm re-solve, bounded rounds.
    fn cut_rounds(
        &self,
        lp: &mut LpSolver<E>,
        sol: &mut LpSolution,
        global_cuts: &mut Vec<Cut>,
        stats: &mut SolveStats,
    ) -> LpResult<()> {
        if !self.cfg.cuts.enabled {
            return Ok(());
        }
        let nnz: usize = self.instance.cons.iter().map(|c| c.coeffs.len()).sum();
        for _round in 0..self.cfg.cuts.max_rounds {
            if sol.status != LpStatus::Optimal {
                break;
            }
            if self.rules.fractional(&sol.x).is_empty() {
                break;
            }
            // CPU-side separation cost (Section 5.2).
            self.charge_host(4.0 * nnz as f64, (nnz * 16) as f64);
            let mut cuts =
                cut::generate_covers(&self.instance, &sol.x, CUTS_PER_ROUND, MIN_CUT_VIOLATION);
            if cuts.len() < CUTS_PER_ROUND {
                let gmi = cut::generate_gmi(
                    lp,
                    &self.instance,
                    &sol.x,
                    CUTS_PER_ROUND - cuts.len(),
                    MIN_CUT_VIOLATION,
                    self.rules.int_tol,
                )?;
                cuts.extend(gmi);
            }
            if cuts.is_empty() {
                break;
            }
            for (coeffs, rhs) in &cuts {
                lp.add_cut(coeffs, *rhs)?;
                global_cuts.push((coeffs.clone(), *rhs));
                stats.cuts += 1;
            }
            let ts = self.sim_now_ns();
            let n_cuts = cuts.len() as u64;
            gmip_trace::record(|| {
                Event::instant(Track::solver(), "cut_round", ts).arg("cuts", n_cuts)
            });
            *sol = lp.resolve()?;
            stats.lp_iterations += sol.iterations;
        }
        Ok(())
    }

    /// Records the exactly-checkable certificate of one node LP outcome
    /// (when `collect_certificates` is set): dual prices + claimed objective
    /// for optimal nodes, the Farkas witness for infeasible ones. Best
    /// effort — nodes whose engine can't produce the evidence are skipped.
    fn capture_certificate(
        lp: &mut LpSolver<E>,
        sol: &LpSolution,
        bounds: &[BoundChange],
        stats: &mut SolveStats,
    ) {
        let kind = match sol.status {
            LpStatus::Optimal => match lp.dual_prices_internal() {
                Ok(y) => CertKind::DualBound {
                    y,
                    objective: lp.internal_objective(sol.objective),
                },
                Err(_) => return,
            },
            LpStatus::Infeasible => match lp.farkas_ray() {
                Some(w) => CertKind::Farkas { w: w.to_vec() },
                None => return,
            },
            LpStatus::Unbounded => return,
        };
        stats.certificates.push(LpCertificate {
            bounds: bounds.to_vec(),
            cuts: lp.cuts().to_vec(),
            kind,
        });
    }

    /// Evaluates one node, returning the LP solution and the post-solve
    /// basis (for children warm starts): build or borrow the solver, one
    /// node LP, root cut rounds, certificate, keep or drop the solver.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &self,
        lp_slot: &mut Option<LpSolver<E>>,
        is_root: bool,
        bounds: &[BoundChange],
        parent_basis: Option<Basis>,
        global_cuts: &mut Vec<Cut>,
        stats: &mut SolveStats,
    ) -> LpResult<(LpSolution, Option<Basis>)> {
        let reuse = self.cfg.engine_reuse;
        // The retained solver is built over — and its root LP solved in —
        // the instance's own box: it ignores what propagation just took off
        // the root's, although the root's children inherit that. A fresh
        // engine per node (re-uploading the matrix on device backends — the
        // costly baseline the paper warns about) bakes the node's box in.
        let built_over: &[BoundChange] = if reuse { &[] } else { bounds };
        let mut fresh = None;
        if is_root || !reuse {
            let std = StandardLp::from_instance(&self.instance, built_over);
            let lp = fresh.insert(LpSolver::try_new(std, self.cfg.lp.clone(), |a| {
                (self.factory)(a)
            })?);
            for (coeffs, rhs) in global_cuts.iter() {
                lp.add_cut(coeffs, *rhs)?;
            }
        }
        let lp = match fresh.as_mut() {
            Some(lp) => lp,
            None => lp_slot.as_mut().expect("root evaluated first"),
        };
        let lp_bounds = if is_root { built_over } else { bounds };
        let (mut sol, mut basis) = lp.solve_node(lp_bounds, parent_basis)?;
        stats.lp_iterations += sol.iterations;
        if is_root && sol.status == LpStatus::Optimal {
            self.cut_rounds(lp, &mut sol, global_cuts, stats)?;
            basis = lp.basis().cloned();
        }
        if self.cfg.collect_certificates {
            Self::capture_certificate(lp, &sol, bounds, stats);
        }
        if is_root {
            *lp_slot = fresh;
        }
        Ok((sol, basis))
    }

    /// Runs branch and cut to completion (or the node limit).
    pub fn solve(&mut self) -> LpResult<MipResult> {
        let mut tree: SearchTree<NodePayload> =
            SearchTree::with_root(NodePayload::default(), self.node_bytes);
        let mut policy = node_selection(self.cfg.policy);
        let mut stats = SolveStats {
            strategy: self.strategy_name,
            ..Default::default()
        };
        let mut incumbent = Incumbent::default();
        let mut lp_slot: Option<LpSolver<E>> = None;
        let mut global_cuts: Vec<Cut> = Vec::new();
        let mut early_stop: Option<MipStatus> = None;
        let nnz: usize = self.instance.cons.iter().map(|c| c.coeffs.len()).sum();
        let mut hook = NodeHook::new(
            &self.instance,
            self.cfg.propagate,
            self.cfg.propagate_rounds,
            self.cfg.heuristics.fix_and_propagate_period,
            1,
            PropCharge::Serial(self.host.clone(), self.lp_accel.clone()),
        );

        self.tree_alloc(&mut stats); // root record

        while let Some(id) = policy.select(&tree) {
            if stats.nodes >= self.cfg.node_limit {
                early_stop = Some(MipStatus::NodeLimit);
                break;
            }
            // Gap / objective-limit early termination.
            if incumbent.is_some() {
                let inc = incumbent.value();
                if let Some(limit) = self.cfg.objective_limit {
                    if inc >= self.rules.internal(limit) - 1e-12 {
                        early_stop = Some(MipStatus::ObjectiveLimit);
                        break;
                    }
                }
                if self.cfg.gap_rel > 0.0 {
                    if let Some(bound) = tree.best_open_bound() {
                        let rel = (bound - inc).max(0.0) / inc.abs().max(1.0);
                        if rel <= self.cfg.gap_rel {
                            early_stop = Some(MipStatus::GapLimit);
                            break;
                        }
                    }
                }
            }
            tree.begin_evaluation(id);
            // Pre-LP bound pruning against the current incumbent.
            let inherited = tree.node(id).bound;
            if incumbent.is_some() && self.rules.dominated(inherited, incumbent.value()) {
                tree.settle(id, NodeState::Pruned, inherited);
                policy.notify_evaluated(id);
                continue;
            }
            stats.nodes += 1;
            let is_root = id == tree.root();
            let parent_basis = tree.data_mut(id).parent_basis.take();

            let node_t0 = self.sim_now_ns();
            let own = &tree.node(id).data.bounds;
            let Some(bounds) = hook.tighten_one(own).map(Cow::into_owned) else {
                tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
                policy.notify_evaluated(id);
                self.node_span(id, "prop_infeasible", node_t0);
                continue;
            };
            let (mut sol, basis) = self.evaluate(
                &mut lp_slot,
                is_root,
                &bounds,
                parent_basis,
                &mut global_cuts,
                &mut stats,
            )?;
            policy.notify_evaluated(id);

            if is_root && sol.status == LpStatus::Unbounded {
                if let Some(lp) = &lp_slot {
                    stats.metrics.merge(lp.metrics());
                }
                let status = Some(MipStatus::Unbounded);
                return Ok(self.finish(status, Incumbent::default(), stats, tree));
            }
            let outcome = self.rules.judge(&mut sol, incumbent.value())?;
            let (bound, decision) =
                match search::settle(&self.rules, &mut tree, id, outcome, incumbent.value()) {
                    NodeOutcome::Infeasible => {
                        self.node_span(id, "infeasible", node_t0);
                        continue;
                    }
                    NodeOutcome::Pruned { .. } => {
                        self.node_span(id, "pruned", node_t0);
                        continue;
                    }
                    NodeOutcome::Integral { bound, x } => {
                        self.node_span(id, "integer_feasible", node_t0);
                        if bound > incumbent.value() {
                            let point = self.checked_rounding(x);
                            let now = || self.sim_now_ns();
                            incumbent.accept(&self.rules, &mut tree, bound, point, now);
                            stats.metrics.incr(names::BB_INCUMBENTS, 1.0);
                            self.incumbent_mark(self.rules.to_source(bound), "node");
                        }
                        continue;
                    }
                    NodeOutcome::Branch { bound, decision } => (bound, decision),
                };
            // Heuristics.
            if self.cfg.heuristics.rounding {
                self.charge_host(2.0 * nnz as f64, (nnz * 16) as f64);
                if let Some((obj, p)) = heur::rounding(&self.instance, &sol.x, 1e-6) {
                    self.offer_heuristic(
                        "rounding",
                        self.rules.internal(obj),
                        p,
                        &mut incumbent,
                        &mut tree,
                        &mut stats,
                    );
                }
            }
            if hook.dive_due(stats.nodes) {
                hook.dive(&self.rules, &[(&bounds, &sol.x)], |value, point| {
                    self.offer_heuristic(
                        "fix_and_propagate",
                        value,
                        point,
                        &mut incumbent,
                        &mut tree,
                        &mut stats,
                    )
                });
            }
            if is_root && self.cfg.heuristics.diving && self.cfg.engine_reuse {
                let lp = lp_slot.as_mut().expect("root lp present");
                if let Some((obj, p)) = heur::dive(
                    lp,
                    &self.instance,
                    &bounds,
                    &sol.x,
                    DIVE_DEPTH,
                    self.rules.int_tol,
                )? {
                    self.offer_heuristic(
                        "diving",
                        self.rules.internal(obj),
                        p,
                        &mut incumbent,
                        &mut tree,
                        &mut stats,
                    );
                }
            }
            // Branch.
            let (var, value) = (decision.var, decision.value);
            let kids = search::warm_children(&self.instance, &bounds, var, value, basis).map(
                |(c, parent_basis)| {
                    let payload = NodePayload {
                        bounds: c.bounds,
                        parent_basis,
                    };
                    (c.label, payload)
                },
            );
            tree.branch(id, bound, kids);
            self.node_span(id, "branched", node_t0);
            self.tree_alloc(&mut stats);
            self.tree_alloc(&mut stats);
        }

        // Gap for early stops.
        if early_stop.is_some() {
            let best_open = tree.best_open_bound().unwrap_or(f64::NEG_INFINITY);
            stats.gap = (best_open - incumbent.value()).max(0.0);
        }
        stats.tree = tree.stats().clone();
        stats.metrics.merge(&hook.metrics);
        if let Some(lp) = &lp_slot {
            stats.metrics.merge(lp.metrics());
        }
        if let Some(t) = incumbent.first_ns() {
            stats.metrics.set_gauge(names::HEUR_FIRST_INCUMBENT_NS, t);
        }
        Ok(self.finish(early_stop, incumbent, stats, tree))
    }

    /// An integral LP point with its integral coordinates rounded for exact
    /// reporting — unless rounding breaks feasibility, in which case the LP
    /// point stands.
    fn checked_rounding(&self, x: Vec<f64>) -> Vec<f64> {
        let p = self.rules.rounded(x.clone());
        if self.instance.is_integer_feasible(&p, 1e-5) {
            p
        } else {
            x
        }
    }

    /// Installs a heuristic's point of internal-sense value `cand` if it
    /// beats the incumbent by more than the prune tolerance; returns whether
    /// it did.
    fn offer_heuristic(
        &self,
        source: &'static str,
        cand: f64,
        point: Vec<f64>,
        incumbent: &mut Incumbent,
        tree: &mut SearchTree<NodePayload>,
        stats: &mut SolveStats,
    ) -> bool {
        let improves = cand > incumbent.value() + self.rules.prune_tol;
        if improves {
            incumbent.accept(&self.rules, tree, cand, point, || self.sim_now_ns());
            stats.heur_incumbents += 1;
            stats.metrics.incr(names::BB_INCUMBENTS, 1.0);
            self.incumbent_mark(self.rules.to_source(cand), source);
        }
        improves
    }

    /// Builds the result. `stopped: None` means the search ran to
    /// completion, and the status follows from the incumbent.
    fn finish(
        &self,
        stopped: Option<MipStatus>,
        incumbent: Incumbent,
        mut stats: SolveStats,
        tree: SearchTree<NodePayload>,
    ) -> MipResult {
        stats.host = self.host.stats();
        if let Some(a) = &self.lp_accel {
            stats.device = a.stats();
        }
        stats.sim_time_ns = self.sim_now_ns();
        if stats.tree.created == 0 {
            stats.tree = tree.stats().clone();
        }
        // Fold node-lifecycle counters and the executor ledgers into the
        // unified metrics registry (the CLI/bench summary view).
        let (t, m) = (&stats.tree, &mut stats.metrics);
        m.incr(names::BB_NODES_CREATED, t.created as f64);
        m.incr(names::BB_NODES_EVALUATED, stats.nodes as f64);
        m.incr(names::BB_NODES_BRANCHED, t.branched as f64);
        m.incr(names::BB_NODES_INTEGER_FEASIBLE, t.feasible as f64);
        m.incr(names::BB_NODES_INFEASIBLE, t.infeasible as f64);
        m.incr(names::BB_NODES_PRUNED, t.pruned as f64);
        m.incr(names::BB_CUTS_ADDED, stats.cuts as f64);
        m.incr(names::BB_HEUR_INCUMBENTS, stats.heur_incumbents as f64);
        // lp.* iterations were merged from the LP solver when an engine was
        // retained; the fresh-engine-per-node path only has the field count.
        if m.counter(names::LP_ITERATIONS) == 0.0 {
            m.incr(names::LP_ITERATIONS, stats.lp_iterations as f64);
        }
        stats.metrics.merge(&self.host.metrics());
        if let Some(a) = &self.lp_accel {
            stats.metrics.merge(&a.metrics());
        }
        let done = self.rules.finish(incumbent, false);
        MipResult {
            status: stopped.unwrap_or(done.status),
            objective: done.objective,
            x: done.x,
            stats,
            tree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::catalog::{
        figure1_knapsack, infeasible_instance, textbook_mip, unbounded_instance,
    };
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};
    use gmip_problems::generators::{generalized_assignment, set_cover, unit_commitment};

    fn solve_host(instance: MipInstance) -> MipResult {
        let mut s = MipSolver::host_baseline(instance, MipConfig::default());
        s.solve().unwrap()
    }

    #[test]
    fn textbook_mip_optimum_is_20() {
        let r = solve_host(textbook_mip());
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6, "obj = {}", r.objective);
        assert!((r.x[0] - 4.0).abs() < 1e-6);
        assert!(r.x[1].abs() < 1e-6);
        assert!(r.tree.all_settled());
    }

    /// `bin_packing(6)` seeds 3 and 7: the root's GMI cuts start violated at
    /// the all-lower-bounds point, and a cold solve under them used to come
    /// back `Infeasible` from phase 1 — at the root on seed 3 (one node, no
    /// answer). With cuts on, the optimum is the cut-free one.
    #[test]
    fn binpack6_with_cuts_reaches_the_cut_free_optimum() {
        use gmip_problems::generators::bin_packing;
        for seed in [3, 7] {
            let solve = |cuts: bool| {
                let mut cfg = MipConfig::default();
                cfg.cuts.enabled = cuts;
                // These LPs stall the dual simplex at every other node; the
                // default cap takes the same road a hundred times slower.
                cfg.lp.dual.base.max_iters = 200;
                let mut s = MipSolver::host_baseline(bin_packing(6, 1.0, seed), cfg);
                s.solve().expect("no numerical failure")
            };
            let (with_cuts, cut_free) = (solve(true), solve(false));
            assert_eq!(with_cuts.status, MipStatus::Optimal, "seed {seed}");
            assert_eq!(cut_free.status, MipStatus::Optimal, "seed {seed}");
            assert!(with_cuts.stats.cuts > 0, "seed {seed}: no cut was added");
            assert_eq!(with_cuts.objective, cut_free.objective, "seed {seed}");
            assert_eq!(with_cuts.objective, 3.0, "seed {seed}");
        }
    }

    #[test]
    fn figure1_knapsack_optimum_is_14() {
        let r = solve_host(figure1_knapsack());
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 14.0).abs() < 1e-6);
    }

    #[test]
    fn propagation_and_fix_and_propagate_match_brute_force() {
        for seed in 0..4 {
            let m = knapsack(14, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let mut cfg = MipConfig::default();
            cfg.propagate = true;
            cfg.heuristics.fix_and_propagate_period = 3;
            let mut s = MipSolver::host_baseline(m, cfg);
            let r = s.solve().unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: got {} expected {expected}",
                r.objective
            );
            assert!(r.stats.metrics.counter(names::PROP_NODES) > 0.0);
            assert!(
                r.stats.metrics.gauge(names::HEUR_FIRST_INCUMBENT_NS) > 0.0,
                "first-incumbent time must be recorded"
            );
        }
    }

    #[test]
    fn propagation_detects_infeasibility_before_lp() {
        let mut cfg = MipConfig::default();
        cfg.propagate = true;
        let mut s = MipSolver::host_baseline(infeasible_instance(), cfg);
        let r = s.solve().unwrap();
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(r.stats.metrics.counter(names::PROP_INFEASIBLE) >= 1.0);
    }

    #[test]
    fn knapsacks_match_brute_force() {
        for seed in 0..6 {
            let m = knapsack(14, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_host(m);
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: got {} expected {expected}",
                r.objective
            );
        }
    }

    #[test]
    fn infeasible_and_unbounded() {
        let r = solve_host(infeasible_instance());
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(r.objective.is_nan());
        let r = solve_host(unbounded_instance());
        assert_eq!(r.status, MipStatus::Unbounded);
    }

    #[test]
    fn minimize_set_cover_solves() {
        let m = set_cover(10, 8, 0.35, 7);
        let r = solve_host(m.clone());
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(m.is_integer_feasible(&r.x, 1e-5));
        // Sanity: optimal cost between the LP bound and the all-ones cost.
        let all: f64 = m.obj_coeffs().iter().sum();
        assert!(r.objective > 0.0 && r.objective <= all + 1e-9);
    }

    #[test]
    fn mixed_unit_commitment_solves() {
        let m = unit_commitment(2, 2, 3);
        let r = solve_host(m.clone());
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(m.is_integer_feasible(&r.x, 1e-5));
    }

    #[test]
    fn equality_constrained_gap_solves() {
        let m = generalized_assignment(2, 4, 11);
        let r = solve_host(m.clone());
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(m.is_integer_feasible(&r.x, 1e-5));
    }

    #[test]
    fn node_limit_reports_gap() {
        let m = knapsack(30, 0.5, 1);
        let mut cfg = MipConfig::default();
        cfg.node_limit = 3;
        cfg.cuts.enabled = false;
        cfg.heuristics.rounding = false;
        let mut s = MipSolver::host_baseline(m, cfg);
        let r = s.solve().unwrap();
        assert_eq!(r.status, MipStatus::NodeLimit);
        assert!(r.stats.nodes <= 3);
    }

    #[test]
    fn policies_agree_on_optimum() {
        let m = knapsack(12, 0.5, 9);
        let expected = knapsack_brute_force(&m);
        for policy in [
            PolicyKind::BestFirst,
            PolicyKind::DepthFirst,
            PolicyKind::BreadthFirst,
            PolicyKind::ReuseAffinity,
        ] {
            let cfg = MipConfig {
                policy,
                ..Default::default()
            };
            let mut s = MipSolver::host_baseline(m.clone(), cfg);
            let r = s.solve().unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "{policy:?}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "{policy:?}: {} vs {expected}",
                r.objective
            );
        }
    }

    #[test]
    fn cuts_reduce_node_count() {
        // Aggregate across seeds: root cuts should not increase total nodes
        // on knapsacks (cover cuts bite).
        let mut with = 0usize;
        let mut without = 0usize;
        for seed in 0..4 {
            let m = knapsack(16, 0.5, seed);
            let mut cfg = MipConfig::default();
            cfg.heuristics.rounding = false;
            let mut s = MipSolver::host_baseline(m.clone(), cfg.clone());
            let r1 = s.solve().unwrap();
            with += r1.stats.nodes;
            cfg.cuts.enabled = false;
            let mut s = MipSolver::host_baseline(m, cfg);
            let r2 = s.solve().unwrap();
            without += r2.stats.nodes;
            assert!((r1.objective - r2.objective).abs() < 1e-6, "seed {seed}");
        }
        assert!(with <= without, "cuts increased nodes: {with} vs {without}");
    }

    #[test]
    fn fresh_engine_mode_matches_reuse() {
        let m = knapsack(12, 0.5, 2);
        let expected = knapsack_brute_force(&m);
        let cfg = MipConfig {
            engine_reuse: false,
            ..Default::default()
        };
        let mut s = MipSolver::host_baseline(m, cfg);
        let r = s.solve().unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - expected).abs() < 1e-6);
    }

    #[test]
    fn gap_limit_stops_early_within_tolerance() {
        let m = knapsack(22, 0.5, 13);
        let mut exact_cfg = MipConfig::default();
        exact_cfg.heuristics.rounding = true;
        let exact = MipSolver::host_baseline(m.clone(), exact_cfg)
            .solve()
            .unwrap();
        let mut cfg = MipConfig::default();
        cfg.gap_rel = 0.02; // 2% gap acceptable
        let mut s = MipSolver::host_baseline(m, cfg);
        let r = s.solve().unwrap();
        assert!(matches!(r.status, MipStatus::GapLimit | MipStatus::Optimal));
        // Within 2% of the true optimum.
        assert!(
            r.objective >= exact.objective * 0.98 - 1e-9,
            "gap-limited {} vs exact {}",
            r.objective,
            exact.objective
        );
        if r.status == MipStatus::GapLimit {
            assert!(r.stats.nodes <= exact.stats.nodes);
        }
    }

    #[test]
    fn objective_limit_stops_on_good_incumbent() {
        let m = knapsack(18, 0.5, 6);
        let exact = MipSolver::host_baseline(m.clone(), MipConfig::default())
            .solve()
            .unwrap();
        let mut cfg = MipConfig::default();
        // Ask for anything at least 80% of the optimum.
        cfg.objective_limit = Some(0.8 * exact.objective);
        let mut s = MipSolver::host_baseline(m, cfg);
        let r = s.solve().unwrap();
        assert!(matches!(
            r.status,
            MipStatus::ObjectiveLimit | MipStatus::Optimal
        ));
        assert!(r.objective >= 0.8 * exact.objective - 1e-9);
    }

    #[test]
    fn solve_populates_unified_metrics_and_trace() {
        use gmip_gpu::Accel;
        use gmip_trace::TraceSession;
        let session = TraceSession::start();
        let m = knapsack(12, 0.5, 3);
        let mut s =
            MipSolver::<gmip_lp::DeviceEngine>::on_accel(m, MipConfig::default(), Accel::gpu(1));
        let r = s.solve().unwrap();
        let trace = session.finish();
        let mm = &r.stats.metrics;
        assert_eq!(mm.counter(names::BB_NODES_EVALUATED), r.stats.nodes as f64);
        assert_eq!(mm.counter(names::BB_CUTS_ADDED), r.stats.cuts as f64);
        assert!(mm.counter(names::LP_ITERATIONS) > 0.0);
        assert!(mm.counter(names::GPU_KERNEL_LAUNCHES) > 0.0);
        // Node-lifecycle spans and device kernel spans landed in the trace.
        assert!(trace.events.iter().any(|e| e.event.name == "node"));
        assert!(trace
            .events
            .iter()
            .any(|e| e.event.track.group == gmip_trace::TrackGroup::Gpu(0)));
    }
}
