//! The search kernel: the mechanics every branch-and-bound driver repeats,
//! written once.
//!
//! The paper describes *one* branch-and-cut algorithm (Section 2.1); its
//! strategies differ in where the node LP runs and who schedules it, not in
//! what happens to a node once its LP is back. That part lives here:
//!
//! * the objective **sense mapping** — every driver searches in an internal
//!   maximize sense ([`Rules::internal`] / [`Rules::to_source`]);
//! * the [`Incumbent`] — value read, the clusters' validated warm seed, and
//!   the install sequence (round integral coordinates, stamp the
//!   first-incumbent time, prune the dominated frontier);
//! * the [`NodeOutcome`] of a solved node — infeasible, pruned, integral,
//!   or branch with the most-fractional decision — judged from its LP
//!   solution, the incumbent, the cached integral index list and the two
//!   tolerances ([`Rules::judge`]), and folded into the tree ([`settle`]);
//! * [`children`] — a variable's effective bounds under the node's
//!   cumulative changes, the two child [`BoundChange`]s and their labels;
//! * [`Rules::finish`] — terminal status and the source-sense result.
//!
//! Drivers keep what genuinely differs between them at the call site: which
//! tolerance a report-side prune uses, whether a rounded point is re-checked
//! before it replaces the LP point, which margin a heuristic candidate must
//! clear, who carries a branch's warm start, where children are placed. A
//! per-node hook (a cut pool, a progress series) attaches to
//! [`Rules::judge`] and [`Incumbent::set`] and reaches every driver.

use crate::branch::{self, BranchDecision};
use crate::solver::MipStatus;
use gmip_gpu::{Accel, DEFAULT_STREAM};
use gmip_lp::{BoundChange, LpError, LpResult, LpSolution, LpStatus};
use gmip_problems::{MipInstance, Objective};
use gmip_prop::{DiveSeed, Propagator};
use gmip_trace::{names, MetricsRegistry};
use gmip_tree::{NodeId, NodeState, SearchTree};
use std::borrow::Cow;

/// Modeled bytes of one tree node: its branch bounds plus a basis snapshot.
pub fn node_bytes(instance: &MipInstance) -> usize {
    (instance.num_cons() + 2 * instance.num_vars()) * 8 + 128
}

/// What a solved node means for the tree. Bounds are in the internal
/// maximize sense. A branch's warm start is not part of it: the driver that
/// holds it (a rank's report, a wave's lane, the serial solver) keeps it.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOutcome {
    /// The node's LP relaxation is infeasible.
    Infeasible,
    /// The bound cannot beat the incumbent by more than the prune tolerance.
    Pruned {
        /// The node's relaxation bound.
        bound: f64,
    },
    /// Every integral variable is integral within tolerance: the point is a
    /// new incumbent candidate.
    Integral {
        /// The node's relaxation bound: the point's objective.
        bound: f64,
        /// The LP point (integral coordinates not yet rounded).
        x: Vec<f64>,
    },
    /// Some integral variables are fractional: branch.
    Branch {
        /// The node's relaxation bound.
        bound: f64,
        /// The variable to branch on.
        decision: BranchDecision,
    },
}

/// Integrality tolerance: a value within this of an integer is integral.
pub const INT_TOL: f64 = 1e-6;

/// Pruning tolerance: a bound that cannot beat the incumbent by more than
/// this is dominated.
pub const PRUNE_TOL: f64 = 1e-6;

/// The per-solve constants a node outcome is decided by.
#[derive(Debug, Clone)]
pub struct Rules {
    sense: Objective,
    integral: Vec<usize>,
    /// Integrality tolerance ([`INT_TOL`]).
    pub int_tol: f64,
    /// Pruning tolerance ([`PRUNE_TOL`]; a cluster rank's report-side prune
    /// overrides it).
    pub prune_tol: f64,
}

impl Rules {
    /// Caches `instance`'s sense and integral index list, with the
    /// tolerances at [`INT_TOL`] and [`PRUNE_TOL`].
    pub fn new(instance: &MipInstance) -> Self {
        Self {
            sense: instance.objective,
            integral: instance.integral_indices(),
            int_tol: INT_TOL,
            prune_tol: PRUNE_TOL,
        }
    }

    /// Source sense → internal maximize sense.
    #[inline]
    pub fn internal(&self, source: f64) -> f64 {
        match self.sense {
            Objective::Maximize => source,
            Objective::Minimize => -source,
        }
    }

    /// Internal maximize sense → source sense (the map is its own inverse).
    #[inline]
    pub fn to_source(&self, value: f64) -> f64 {
        self.internal(value)
    }

    /// The prune test: `bound` (internal sense) cannot beat `incumbent` by
    /// more than the prune tolerance. A bound exactly at
    /// `incumbent + prune_tol` is dominated.
    #[inline]
    pub fn dominated(&self, bound: f64, incumbent: f64) -> bool {
        bound <= incumbent + self.prune_tol
    }

    /// The integral variables of `x` that are fractional beyond `int_tol`.
    pub fn fractional(&self, x: &[f64]) -> Vec<usize> {
        branch::fractional_vars(&self.integral, x, self.int_tol)
    }

    /// Judges a solved node against `incumbent` (internal sense): its LP
    /// status first, then the prune test (so a dominated node's point is
    /// never read), then the fractional filter, then the most-fractional
    /// rule picks the branching variable among the fractional candidates.
    /// An `Integral` outcome takes the point out of `sol`; a `Branch` leaves
    /// it there for the caller's heuristics. An unbounded node LP is an
    /// `Err`: branching only tightens bounds, so it can only be the root's,
    /// which a driver that reports it handles before judging.
    pub fn judge(&self, sol: &mut LpSolution, incumbent: f64) -> LpResult<NodeOutcome> {
        let bound = match sol.status {
            LpStatus::Infeasible => return Ok(NodeOutcome::Infeasible),
            LpStatus::Unbounded => {
                return Err(LpError::Shape(
                    "node LP unbounded under branch bounds".into(),
                ))
            }
            LpStatus::Optimal => self.internal(sol.objective),
        };
        if self.dominated(bound, incumbent) {
            return Ok(NodeOutcome::Pruned { bound });
        }
        let frac = self.fractional(&sol.x);
        Ok(if frac.is_empty() {
            let x = std::mem::take(&mut sol.x);
            NodeOutcome::Integral { bound, x }
        } else {
            let decision = branch::most_fractional(&sol.x, &frac);
            NodeOutcome::Branch { bound, decision }
        })
    }

    /// `x` with every integral coordinate rounded to its nearest integer.
    pub fn rounded(&self, mut x: Vec<f64>) -> Vec<f64> {
        for &j in &self.integral {
            if let Some(v) = x.get_mut(j) {
                *v = v.round();
            }
        }
        x
    }

    /// Terminal status and source-sense result of a finished search: `open`
    /// says work was left behind (a node limit stopped the search).
    pub fn finish(&self, incumbent: Incumbent, open: bool) -> Finished {
        let status = if open {
            MipStatus::NodeLimit
        } else if incumbent.is_some() {
            MipStatus::Optimal
        } else {
            MipStatus::Infeasible
        };
        let (objective, x) = match incumbent.best {
            Some((v, p)) => (self.to_source(v), p),
            None => (f64::NAN, Vec::new()),
        };
        Finished {
            status,
            objective,
            x,
        }
    }
}

/// Folds node `id`'s judged `outcome` into `tree`. `incumbent` is the value
/// the caller prunes with *now* (internal sense): a report may have
/// travelled while it improved. Closes an `Infeasible`, `Pruned` or
/// `Integral` node, and a `Branch` that `incumbent` dominates, which comes
/// back as `Pruned`. Returns what is left for the caller: an `Integral`
/// point for its incumbent sink, or a live `Branch`, whose children it
/// builds with [`children`] and places with `tree.branch`.
pub fn settle<D>(
    rules: &Rules,
    tree: &mut SearchTree<D>,
    id: NodeId,
    outcome: NodeOutcome,
    incumbent: f64,
) -> NodeOutcome {
    let outcome = match outcome {
        NodeOutcome::Branch { bound, .. } if rules.dominated(bound, incumbent) => {
            NodeOutcome::Pruned { bound }
        }
        other => other,
    };
    match outcome {
        NodeOutcome::Infeasible => tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY),
        NodeOutcome::Pruned { bound } => tree.settle(id, NodeState::Pruned, bound),
        NodeOutcome::Integral { bound, .. } => tree.settle(id, NodeState::Feasible, bound),
        NodeOutcome::Branch { .. } => {}
    }
    outcome
}

/// What [`Rules::finish`] hands a driver for its result struct.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective in the source sense (`NaN` if none).
    pub objective: f64,
    /// Incumbent point (empty if none).
    pub x: Vec<f64>,
}

/// The best integer-feasible point found so far, in the internal maximize
/// sense, and when the first one was found.
#[derive(Debug, Clone, Default)]
pub struct Incumbent {
    best: Option<(f64, Vec<f64>)>,
    first_ns: Option<f64>,
}

impl Incumbent {
    /// The incumbent value (`-∞` while there is none).
    #[inline]
    pub fn value(&self) -> f64 {
        self.best
            .as_ref()
            .map(|(v, _)| *v)
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Whether a feasible point is held.
    pub fn is_some(&self) -> bool {
        self.best.is_some()
    }

    /// The held `(value, point)` (what a checkpoint records).
    pub fn best(&self) -> Option<&(f64, Vec<f64>)> {
        self.best.as_ref()
    }

    /// Simulated time the first incumbent was stored, ns.
    pub fn first_ns(&self) -> Option<f64> {
        self.first_ns
    }

    /// Replaces the held point from a checkpoint; the first-incumbent stamp
    /// stays as it is (a restart has not *found* anything yet).
    pub fn restore(&mut self, best: Option<(f64, Vec<f64>)>) {
        self.best = best;
    }

    /// Stores `(value, point)` as it is and stamps the first-incumbent time
    /// (`now` is only read for the first one; a driver that reports no such
    /// time passes `|| 0.0`). The caller has decided that the point improves.
    pub fn set(&mut self, value: f64, point: Vec<f64>, now: impl FnOnce() -> f64) {
        self.best = Some((value, point));
        self.first_ns.get_or_insert_with(now);
    }

    /// [`Self::set`], then prunes the frontier the new value dominates.
    pub fn accept<D>(
        &mut self,
        rules: &Rules,
        tree: &mut SearchTree<D>,
        value: f64,
        point: Vec<f64>,
        now: impl FnOnce() -> f64,
    ) {
        self.set(value, point, now);
        tree.prune_dominated(value, rules.prune_tol);
    }

    /// The install sequence for an LP point: round its integral
    /// coordinates, then [`Self::accept`].
    pub fn install<D>(
        &mut self,
        rules: &Rules,
        tree: &mut SearchTree<D>,
        value: f64,
        x: Vec<f64>,
        now: impl FnOnce() -> f64,
    ) {
        self.accept(rules, tree, value, rules.rounded(x), now);
    }

    /// The clusters' warm-seed entry point: `seed` (a pooled source-sense
    /// point) becomes the initial incumbent if, with its integral coordinates
    /// rounded, it validates integer-feasible on *this* instance — a
    /// perturbed re-submission may have made it infeasible. A taken seed is
    /// the first incumbent, at time 0. Returns whether it was taken.
    pub fn seed(&mut self, rules: &Rules, instance: &MipInstance, seed: &[f64]) -> bool {
        let p = rules.rounded(seed.to_vec());
        let ok = instance.is_integer_feasible(&p, 1e-6);
        if ok {
            let value = rules.internal(instance.objective_value(&p));
            self.set(value, p, || 0.0);
        }
        ok
    }
}

/// Who runs and pays for the hook's propagation sweeps.
#[derive(Debug, Clone)]
pub enum PropCharge {
    /// The serial solver, `(host executor, LP device)`: scalar host sweeps,
    /// one node at a time, charged as `prop.*` launches on the LP device —
    /// or, on the host baseline (`None`), as the equivalent sweep arithmetic
    /// on the host executor.
    Serial(Accel, Option<Accel>),
    /// A device batch of any width: fused `prop.round` / `heur.dive` lane
    /// dispatches through the accelerator's executing backend, charged as
    /// one `prop.*` kernel trio per lockstep round.
    Batch(Accel),
}

/// Charges the `rounds` propagation rounds of one scalar sweep of the serial
/// solver: `prop.*` launches on its LP device, else host arithmetic.
fn charge_scalar(host: &Accel, lp: &Option<Accel>, p: &Propagator, rounds: usize) {
    match lp {
        Some(a) => {
            gmip_prop::charge_wave(a, p.nnz(), p.num_vars(), &[rounds]);
        }
        None => {
            let (total, nnz) = (rounds as f64, p.nnz() as f64);
            let (flops, bytes) = (total * 6.0 * nnz, total * 28.0 * nnz);
            host.with(|d| d.charge_custom(flops, bytes, false, DEFAULT_STREAM));
        }
    }
}

/// The per-node propagate / dive hook every tree driver calls: domain
/// propagation of node boxes before their LPs ([`Self::tighten`]) and the
/// fix-and-propagate dive from fractional LP points ([`Self::dive`]), with
/// the `prop.*` / `heur.*` counters they feed. What stays with the caller
/// is the margin a dive candidate must clear to become an incumbent.
#[derive(Debug)]
pub struct NodeHook {
    /// `None` when propagation and the dive are both off: nothing is built.
    propagator: Option<Propagator>,
    propagate: bool,
    rounds: usize,
    period: usize,
    charge: PropCharge,
    /// The wave backlog: fractional retirees awaiting the next dive, at most
    /// `backlog_cap`, and the retirees seen since the last one.
    seeds: Vec<(Vec<BoundChange>, Vec<f64>)>,
    backlog_cap: usize,
    since_dive: usize,
    /// The `prop.*` / `heur.*` counters accumulated so far.
    pub metrics: MetricsRegistry,
}

impl NodeHook {
    /// A hook over `instance`: `propagate` turns [`Self::tighten`] on,
    /// `period > 0` the dive; `rounds` caps every propagation fixpoint and
    /// `backlog_cap` the seeds [`Self::seed`] keeps (the wave's width).
    pub fn new(
        instance: &MipInstance,
        propagate: bool,
        rounds: usize,
        period: usize,
        backlog_cap: usize,
        charge: PropCharge,
    ) -> Self {
        Self {
            propagator: (propagate || period > 0).then(|| Propagator::new(instance)),
            propagate,
            rounds,
            period,
            charge,
            seeds: Vec::new(),
            backlog_cap,
            since_dive: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    /// Propagates a batch of node boxes to their fixpoints before any LP
    /// work is spent on them, appending one entry per box to `out`: `None`
    /// for a box that propagates to a contradiction (the node settles
    /// infeasible), else the bounds the node's LP and its children take —
    /// tightened, or the node's own when propagation is off. Every
    /// reduction is activity-sound, so the optimum survives.
    pub fn tighten<'a>(
        &mut self,
        batch: &[&'a [BoundChange]],
        out: &mut Vec<Option<Cow<'a, [BoundChange]>>>,
    ) {
        let Some(p) = self.propagator.as_ref().filter(|_| self.propagate) else {
            out.extend(batch.iter().map(|&b| Some(Cow::Borrowed(b))));
            return;
        };
        let mut boxes: Vec<_> = batch.iter().map(|b| p.node_box(b)).collect();
        let outs = match &self.charge {
            PropCharge::Batch(accel) => p.propagate_wave(accel, &mut boxes, self.rounds),
            PropCharge::Serial(host, lp) => boxes
                .iter_mut()
                .map(|(lb, ub)| {
                    let out = p.propagate(lb, ub, self.rounds);
                    charge_scalar(host, lp, p, out.rounds);
                    out
                })
                .collect(),
        };
        let m = &mut self.metrics;
        out.extend(outs.iter().zip(&boxes).map(|(out, (lb, ub))| {
            m.incr(names::PROP_NODES, 1.0);
            m.incr(names::PROP_ROUNDS, out.rounds as f64);
            m.incr(names::PROP_TIGHTENINGS, out.tightenings as f64);
            if out.infeasible {
                m.incr(names::PROP_INFEASIBLE, 1.0);
            }
            (!out.infeasible).then(|| Cow::Owned(p.bound_changes(lb, ub)))
        }));
    }

    /// [`Self::tighten`] of one node's box.
    pub fn tighten_one<'a>(&mut self, bounds: &'a [BoundChange]) -> Option<Cow<'a, [BoundChange]>> {
        let mut out = Vec::with_capacity(1);
        self.tighten(&[bounds], &mut out);
        out.pop().flatten()
    }

    /// Whether the `n`-th evaluated node (1-based) of a driver that dives
    /// node by node is due a dive.
    pub fn dive_due(&self, n: usize) -> bool {
        self.period > 0 && n.is_multiple_of(self.period)
    }

    /// Fix-and-propagate dives from `seeds` — `(node bounds, LP point)`
    /// pairs — in one batch: round, propagate, repair or abort per seed.
    /// The best candidate (internal sense) is offered to `install`, which
    /// applies the caller's acceptance margin and says whether it took it.
    pub fn dive(
        &mut self,
        rules: &Rules,
        seeds: &[(&[BoundChange], &[f64])],
        install: impl FnOnce(f64, Vec<f64>) -> bool,
    ) {
        let p = self.propagator.as_ref().expect("a diving hook is built");
        let boxes: Vec<_> = seeds.iter().map(|(b, _)| p.node_box(b)).collect();
        let lanes: Vec<_> = seeds
            .iter()
            .zip(&boxes)
            .map(|((_, x0), (lb0, ub0))| DiveSeed { x0, lb0, ub0 })
            .collect();
        let outs = match &self.charge {
            PropCharge::Batch(accel) => {
                let outs = p.dive_wave(accel, &lanes, rules.int_tol, self.rounds);
                let rounds: Vec<_> = outs.iter().map(|o| o.rounds.max(1)).collect();
                gmip_prop::charge_wave(accel, p.nnz(), p.num_vars(), &rounds);
                outs
            }
            PropCharge::Serial(host, lp) => lanes
                .iter()
                .map(|s| {
                    let out = p.fix_and_propagate(s.x0, s.lb0, s.ub0, rules.int_tol, self.rounds);
                    charge_scalar(host, lp, p, out.rounds);
                    out
                })
                .collect(),
        };
        let mut best: Option<(f64, Vec<f64>)> = None;
        for out in outs {
            self.metrics.incr(names::HEUR_ATTEMPTS, 1.0);
            self.metrics.incr(names::HEUR_REPAIRS, out.repairs as f64);
            if out.aborted {
                self.metrics.incr(names::HEUR_ABORTS, 1.0);
            }
            if let Some((obj, point)) = out.candidate {
                let value = rules.internal(obj);
                if best.as_ref().is_none_or(|(b, _)| value > *b) {
                    best = Some((value, point));
                }
            }
        }
        if best.is_some_and(|(value, point)| install(value, point)) {
            self.metrics.incr(names::HEUR_INCUMBENTS, 1.0);
        }
    }

    /// A wave's fractional retiree joins the dive backlog (while there is
    /// room) and counts toward the dive period.
    pub fn seed(&mut self, bounds: &[BoundChange], x: Vec<f64>) {
        if self.period > 0 && self.seeds.len() < self.backlog_cap {
            self.seeds.push((bounds.to_vec(), x));
        }
        self.since_dive += 1;
    }

    /// [`Self::dive`] from the whole backlog, once a period's worth of
    /// fractional retirees has accumulated.
    pub fn dive_backlog(&mut self, rules: &Rules, install: impl FnOnce(f64, Vec<f64>) -> bool) {
        if self.period == 0 || self.since_dive < self.period || self.seeds.is_empty() {
            return;
        }
        let backlog = std::mem::take(&mut self.seeds);
        let seeds: Vec<_> = backlog.iter().map(|(b, x)| (&b[..], &x[..])).collect();
        self.dive(rules, &seeds, install);
        self.since_dive = 0;
    }
}

/// One child of a branching: its tree label and cumulative bound changes.
#[derive(Debug, Clone, PartialEq)]
pub struct Child {
    /// `"<var> ≤ <floor>"` or `"<var> ≥ <ceil>"`.
    pub label: String,
    /// The parent's bound changes plus this child's.
    pub bounds: Vec<BoundChange>,
}

/// Effective bounds of structural `var` under a node's cumulative changes
/// (the last change to `var` wins; the instance bounds if there is none).
fn effective_bounds(instance: &MipInstance, bounds: &[BoundChange], var: usize) -> (f64, f64) {
    bounds
        .iter()
        .rev()
        .find(|bc| bc.var == var)
        .map_or((instance.vars[var].lb, instance.vars[var].ub), |bc| {
            (bc.lb, bc.ub)
        })
}

/// The `[down, up]` children of branching on `var` at fractional `value`
/// under `parent` bounds: `var ≤ ⌊value⌋` keeps the effective lower bound,
/// `var ≥ ⌈value⌉` the effective upper bound.
pub fn children(
    instance: &MipInstance,
    parent: &[BoundChange],
    var: usize,
    value: f64,
) -> [Child; 2] {
    let (lo, hi) = effective_bounds(instance, parent, var);
    let name = &instance.vars[var].name;
    let child = |label: String, lb: f64, ub: f64| {
        let mut bounds = Vec::with_capacity(parent.len() + 1);
        bounds.extend_from_slice(parent);
        bounds.push(BoundChange { var, lb, ub });
        Child { label, bounds }
    };
    let (down, up) = (value.floor(), value.ceil());
    [
        child(format!("{name} ≤ {down}"), lo, down),
        child(format!("{name} ≥ {up}"), up, hi),
    ]
}

/// [`children`], each paired with the branched node's warm artifact (a
/// basis, a first-order `(x, y)`): the down child gets a clone and the up
/// child `warm` itself, so a branch copies it once.
pub fn warm_children<W: Clone>(
    instance: &MipInstance,
    parent: &[BoundChange],
    var: usize,
    value: f64,
    warm: W,
) -> [(Child, W); 2] {
    let [down, up] = children(instance, parent, var, value);
    [(down, warm.clone()), (up, warm)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::catalog::{figure1_knapsack, textbook_mip};
    use gmip_problems::generators::set_cover;

    fn rules(m: &MipInstance) -> Rules {
        Rules::new(m)
    }

    /// A solved node LP of `objective` (source sense) at `x`.
    fn solved(status: LpStatus, objective: f64, x: &[f64]) -> LpSolution {
        LpSolution {
            status,
            objective,
            x: x.to_vec(),
            iterations: 0,
        }
    }

    fn optimal(objective: f64, x: &[f64]) -> LpSolution {
        solved(LpStatus::Optimal, objective, x)
    }

    #[test]
    fn a_bound_exactly_at_incumbent_plus_tolerance_prunes() {
        let mut r = rules(&figure1_knapsack());
        r.prune_tol = 0.5;
        let x = [1.0, 0.5, 0.0, 0.0];
        assert_eq!(
            r.judge(&mut optimal(10.5, &x), 10.0).unwrap(),
            NodeOutcome::Pruned { bound: 10.5 }
        );
        assert!(matches!(
            r.judge(&mut optimal(10.5 + 1e-9, &x), 10.0).unwrap(),
            NodeOutcome::Branch { .. }
        ));
        // No incumbent: nothing finite is dominated.
        assert!(!r.dominated(-1e300, Incumbent::default().value()));
    }

    #[test]
    fn a_pruned_judgement_never_reads_the_point() {
        // A first-order lane retired on its safe bound hands over no point.
        let mut sol = optimal(3.0, &[]);
        assert_eq!(
            rules(&figure1_knapsack()).judge(&mut sol, 5.0).unwrap(),
            NodeOutcome::Pruned { bound: 3.0 }
        );
    }

    #[test]
    fn judge_filters_by_int_tol_and_branches_most_fractional() {
        let r = rules(&figure1_knapsack());
        let mut sol = optimal(9.0, &[1.0, 0.0, 0.9999999, 0.0]);
        assert_eq!(
            r.judge(&mut sol, 0.0).unwrap(),
            NodeOutcome::Integral {
                bound: 9.0,
                x: vec![1.0, 0.0, 0.9999999, 0.0]
            }
        );
        assert!(sol.x.is_empty(), "the point moves into the outcome");
        let x = [0.9, 0.5, 0.2, 0.5];
        let mut sol = optimal(9.0, &x);
        let NodeOutcome::Branch { bound, decision } = r.judge(&mut sol, 0.0).unwrap() else {
            panic!("fractional point");
        };
        assert_eq!(r.fractional(&x), vec![0, 1, 2, 3]);
        // Ties go to the lowest index; the point stays for the caller.
        assert_eq!((bound, decision.var, decision.value), (9.0, 1, 0.5));
        assert_eq!(sol.x, x);
    }

    #[test]
    fn judge_reads_the_status_and_the_sense() {
        let r = rules(&figure1_knapsack());
        let mut sol = solved(LpStatus::Infeasible, f64::NAN, &[]);
        assert_eq!(r.judge(&mut sol, 0.0).unwrap(), NodeOutcome::Infeasible);
        let mut sol = solved(LpStatus::Unbounded, f64::NAN, &[]);
        assert!(r.judge(&mut sol, 0.0).is_err());
        // A minimize instance's bound is the negated source objective.
        let cover = rules(&set_cover(6, 5, 0.4, 1));
        assert_eq!(
            cover.judge(&mut optimal(4.0, &[]), -3.0).unwrap(),
            NodeOutcome::Pruned { bound: -4.0 }
        );
    }

    /// A one-node tree whose root is being evaluated.
    fn evaluating_root() -> (SearchTree<()>, NodeId) {
        let mut tree: SearchTree<()> = SearchTree::with_root((), 64);
        let root = tree.root();
        tree.begin_evaluation(root);
        (tree, root)
    }

    #[test]
    fn settle_closes_what_it_can_and_hands_back_the_rest() {
        let r = rules(&figure1_knapsack());
        for (outcome, state) in [
            (NodeOutcome::Infeasible, NodeState::Infeasible),
            (NodeOutcome::Pruned { bound: 3.0 }, NodeState::Pruned),
            (
                NodeOutcome::Integral {
                    bound: 14.0,
                    x: vec![1.0, 0.0, 1.0, 0.0],
                },
                NodeState::Feasible,
            ),
        ] {
            let (mut tree, root) = evaluating_root();
            assert_eq!(settle(&r, &mut tree, root, outcome.clone(), 0.0), outcome);
            assert_eq!(tree.node(root).state, state);
        }
        // A live branch leaves the tree to the caller.
        let branch = NodeOutcome::Branch {
            bound: 20.0,
            decision: BranchDecision { var: 1, value: 0.5 },
        };
        let (mut tree, root) = evaluating_root();
        assert_eq!(settle(&r, &mut tree, root, branch.clone(), 14.0), branch);
        assert_eq!(tree.node(root).state, NodeState::Evaluating);
    }

    #[test]
    fn settle_prunes_a_branch_an_improved_incumbent_dominates() {
        let r = rules(&figure1_knapsack());
        let (mut tree, root) = evaluating_root();
        // Judged against no incumbent, the node branches ...
        let mut sol = optimal(12.0, &[1.0, 0.5, 0.0, 0.0]);
        let outcome = r.judge(&mut sol, f64::NEG_INFINITY).unwrap();
        assert!(matches!(outcome, NodeOutcome::Branch { .. }));
        // ... but a 14 found while its report travelled closes it.
        assert_eq!(
            settle(&r, &mut tree, root, outcome, 14.0),
            NodeOutcome::Pruned { bound: 12.0 }
        );
        assert_eq!(tree.node(root).state, NodeState::Pruned);
    }

    #[test]
    fn minimize_sign_round_trip() {
        let cover = set_cover(6, 5, 0.4, 1);
        assert_eq!(cover.objective, Objective::Minimize);
        let r = rules(&cover);
        assert_eq!(r.internal(7.25), -7.25);
        assert_eq!(r.to_source(r.internal(7.25)), 7.25);
        // A cheaper cover is a larger internal value.
        assert!(r.internal(3.0) > r.internal(4.0));
        let max = rules(&figure1_knapsack());
        assert_eq!(max.internal(7.25), 7.25);
        let mut inc = Incumbent::default();
        inc.set(r.internal(12.0), vec![1.0], || 5.0);
        let done = r.finish(inc, false);
        assert_eq!((done.status, done.objective), (MipStatus::Optimal, 12.0));
    }

    #[test]
    fn finish_statuses() {
        let r = rules(&figure1_knapsack());
        let done = r.finish(Incumbent::default(), false);
        assert_eq!(done.status, MipStatus::Infeasible);
        assert!(done.objective.is_nan() && done.x.is_empty());
        assert_eq!(
            r.finish(Incumbent::default(), true).status,
            MipStatus::NodeLimit
        );
    }

    #[test]
    fn children_keep_the_effective_bounds_of_a_rebranched_variable() {
        let m = textbook_mip();
        // x0 was already branched to [2, 4] (after an earlier [0, 4]).
        let parent = [
            BoundChange {
                var: 0,
                lb: 0.0,
                ub: 4.0,
            },
            BoundChange {
                var: 1,
                lb: 1.0,
                ub: 1.0,
            },
            BoundChange {
                var: 0,
                lb: 2.0,
                ub: 4.0,
            },
        ];
        assert_eq!(effective_bounds(&m, &parent, 0), (2.0, 4.0));
        let [down, up] = children(&m, &parent, 0, 2.5);
        assert_eq!(down.bounds[..3], parent);
        assert_eq!(
            down.bounds[3],
            BoundChange {
                var: 0,
                lb: 2.0,
                ub: 2.0
            }
        );
        assert_eq!(
            up.bounds[3],
            BoundChange {
                var: 0,
                lb: 3.0,
                ub: 4.0
            }
        );
        let name = &m.vars[0].name;
        assert_eq!(down.label, format!("{name} ≤ 2"));
        assert_eq!(up.label, format!("{name} ≥ 3"));
        // An unbranched variable falls back to the instance bounds.
        assert_eq!(effective_bounds(&m, &[], 1), (m.vars[1].lb, m.vars[1].ub));
    }

    /// A branch copies its warm artifact once: the down child holds a
    /// clone, the up child the original buffers, moved.
    #[test]
    fn a_branch_clones_the_warm_artifact_once_and_moves_it_once() {
        let m = textbook_mip();
        let warm = (vec![0.5; 4], vec![1.5; 3]);
        let (x, y) = (warm.0.as_ptr(), warm.1.as_ptr());
        let [(down, (dx, dy)), (up, (ux, uy))] = warm_children(&m, &[], 0, 2.5, warm);
        assert_eq!((ux.as_ptr(), uy.as_ptr()), (x, y), "the up child moved it");
        assert!(
            dx.as_ptr() != x && dy.as_ptr() != y,
            "the down child cloned it"
        );
        assert_eq!((&dx, &dy), (&ux, &uy));
        let [d, u] = children(&m, &[], 0, 2.5);
        assert_eq!((down.bounds, up.bounds), (d.bounds, u.bounds));
        assert_eq!((down.label, up.label), (d.label, u.label));

        let basis = gmip_lp::Basis {
            cols: vec![4, 5, 6],
            status: vec![gmip_lp::VarStatus::Basic(0); 7],
        };
        let (cols, status) = (basis.cols.as_ptr(), basis.status.as_ptr());
        let [(_, down), (_, up)] = warm_children(&m, &[], 0, 2.5, Some(basis));
        let (down, up) = (down.unwrap(), up.unwrap());
        assert_eq!((up.cols.as_ptr(), up.status.as_ptr()), (cols, status));
        assert!(down.cols.as_ptr() != cols && down.status.as_ptr() != status);
    }

    #[test]
    fn install_rounds_stamps_once_and_prunes() {
        let m = figure1_knapsack();
        let r = rules(&m);
        let mut tree: SearchTree<()> = SearchTree::with_root((), 64);
        let root = tree.root();
        tree.begin_evaluation(root);
        let ids = tree.branch(root, 20.0, [(String::new(), ()), (String::new(), ())]);
        tree.begin_evaluation(ids[0]);
        tree.branch(ids[0], 12.0, [(String::new(), ()), (String::new(), ())]);
        let mut inc = Incumbent::default();
        inc.install(
            &r,
            &mut tree,
            14.0,
            vec![0.9999999, 0.0, 1.0000001, 0.0],
            || 7.0,
        );
        assert_eq!(inc.best(), Some(&(14.0, vec![1.0, 0.0, 1.0, 0.0])));
        assert_eq!(inc.first_ns(), Some(7.0));
        // The two bound-12 children are dominated, the bound-20 one is not.
        assert_eq!(tree.active_ids(), &[ids[1]]);
        inc.accept(&r, &mut tree, 15.0, vec![1.0, 0.0, 1.0, 0.0], || 9.0);
        assert_eq!(
            (inc.value(), inc.first_ns()),
            (15.0, Some(7.0)),
            "the stamp is the first incumbent's"
        );
    }

    #[test]
    fn warm_seed_is_validated_on_this_instance() {
        let m = figure1_knapsack();
        let r = rules(&m);
        // Items 0 and 2 fit (the catalog optimum); slightly off-integral
        // coordinates are rounded before validation.
        let seed = [1.0, 0.0, 0.9999999, 0.0];
        let mut inc = Incumbent::default();
        assert!(inc.seed(&r, &m, &seed));
        assert_eq!(inc.best(), Some(&(14.0, vec![1.0, 0.0, 1.0, 0.0])));
        assert_eq!(inc.first_ns(), Some(0.0));
        // The same seed on a perturbed instance (capacity cut to 1) is
        // infeasible and leaves the incumbent empty.
        let mut tight = m.clone();
        tight.cons[0].rhs = 1.0;
        let mut inc = Incumbent::default();
        assert!(!inc.seed(&r, &tight, &seed));
        assert!(!inc.is_some() && inc.first_ns().is_none());
        // A seed of the wrong length is rejected, not indexed.
        assert!(!inc.seed(&r, &m, &[1.0]));
    }
}
