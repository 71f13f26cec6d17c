//! The supervisor: a discrete-event simulated Supervisor–Worker parallel
//! branch and bound (the UG coordination pattern of Section 2.3).
//!
//! The supervisor owns the tree (Strategy 2: "the branch-and-cut tree is
//! stored in the CPU main memory"), hands subproblems to worker ranks over
//! a modeled interconnect, and merges reports. Time is *simulated*: each
//! worker's LP cost comes from its own simulated device, messages pay the
//! [`NetworkModel`], and the makespan is the supervisor's event clock — so
//! speedup curves are deterministic and independent of the host machine.
//!
//! With a [`ChaosConfig`] installed, the cluster becomes *unreliable*: the
//! seeded fault plan crashes ranks, drops and delays messages, and slows
//! stragglers — and the supervisor runs the recovery protocol of the
//! paper's Section 2.1/2.3 resilience story: heartbeat-timeout crash
//! detection, reassignment of lost in-flight subproblems (the tree is the
//! live checkpoint; [`Checkpoint::covers`] is the invariant), exponential
//! backoff respawns, and graceful degradation to fewer ranks when a rank's
//! respawn budget is exhausted.

use crate::chaos::{ChaosConfig, FaultPlan, FaultStats};
use crate::checkpoint::Checkpoint;
use crate::comm::{NetworkModel, NodeOutcome, NodeReport};
use crate::exchange::{assignment, exchange, Completion};
use crate::roster::{InFlight, Roster};
use crate::worker::Worker;
use gmip_core::MipStatus;
use gmip_gpu::CostModel;
use gmip_lp::{Basis, BoundChange, LpConfig, LpResult};
use gmip_problems::{MipInstance, Objective};
use gmip_trace::{names, Event as TraceSpan, MetricsRegistry, Track};
use gmip_tree::{NodeId, NodeState, SearchTree, TreeStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Work-distribution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalance {
    /// Any idle worker receives the globally best open node.
    Dynamic,
    /// Nodes are statically partitioned by their depth-1 ancestor; a worker
    /// only receives nodes of its own partition (idles otherwise). A
    /// retired rank's partition becomes adoptable by every survivor.
    Static,
}

/// Configuration of a parallel solve.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of worker ranks.
    pub workers: usize,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Per-worker device cost model.
    pub gpu_cost: CostModel,
    /// Per-worker device memory.
    pub gpu_mem: usize,
    /// LP tolerances.
    pub lp: LpConfig,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Pruning tolerance.
    pub prune_tol: f64,
    /// Node budget.
    pub node_limit: usize,
    /// Work-distribution mode.
    pub load_balance: LoadBalance,
    /// Breadth-first ramp-up until every worker has work.
    pub ramp_up: bool,
    /// Ship parent bases for warm starts.
    pub warm_start: bool,
    /// Take a consistent snapshot every `n` nodes (None = never).
    pub checkpoint_every: Option<usize>,
    /// Deterministic fault injection (None = a reliable machine).
    pub chaos: Option<ChaosConfig>,
    /// `Some(n)`: workers run their node LPs through the batched wave
    /// evaluator (fused kernel launches on a shared device matrix, up to
    /// `n` lane reservations) instead of one launch per simplex operation.
    pub batched_lanes: Option<usize>,
    /// `Some(n)`: workers run their node LPs through the first-order
    /// (restarted PDHG) evaluator — fused SpMV/axpy launches on a shared
    /// device-resident CSR matrix, safe dual bounds for early incumbent
    /// prunes, and exact host-simplex cleanup of converged lanes. Takes
    /// precedence over `batched_lanes`.
    pub first_order_lanes: Option<usize>,
    /// A candidate solution (source-sense point) installed as the initial
    /// incumbent if it validates integer-feasible on the instance — the
    /// multi-job serving layer seeds perturbed re-submissions from its
    /// solution pool this way. Ignored when infeasible.
    pub seed_solution: Option<Vec<f64>>,
    /// A warm basis for the root relaxation (a pooled basis from a
    /// structurally identical solve). Requires `warm_start`; shipped to the
    /// rank that evaluates the root exactly like a parent basis.
    pub root_basis: Option<Basis>,
    /// Workers run iterated activity-based bound propagation on every
    /// assignment before the node LP (`prop.*` kernels on their device),
    /// settling infeasible nodes without simplex work and tightening
    /// integer bounds.
    pub propagate: bool,
    /// Every `n` nodes a worker runs a fix-and-propagate dive from its
    /// fractional LP point; feasible improving candidates ride back on the
    /// node report and enter the supervisor's incumbent-broadcast path
    /// (0 = off).
    pub heuristic_period: usize,
    /// Which executing backend every rank's fused lane dispatches run on.
    /// Simulated charges — and therefore the whole deterministic ledger —
    /// are identical across backends.
    pub backend: gmip_gpu::BackendKind,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            network: NetworkModel::infiniband(),
            gpu_cost: CostModel::gpu_pcie(),
            gpu_mem: 1 << 30,
            lp: LpConfig::standard(),
            int_tol: 1e-6,
            prune_tol: 1e-6,
            node_limit: 100_000,
            load_balance: LoadBalance::Dynamic,
            ramp_up: true,
            warm_start: true,
            checkpoint_every: None,
            chaos: None,
            batched_lanes: None,
            first_order_lanes: None,
            seed_solution: None,
            root_basis: None,
            propagate: false,
            heuristic_period: 0,
            backend: gmip_gpu::BackendKind::Sim,
        }
    }
}

/// Per-node payload in the supervisor's tree.
#[derive(Debug, Clone, Default)]
pub struct ParPayload {
    /// Cumulative bound changes.
    pub bounds: Vec<BoundChange>,
    /// Warm-start basis from the parent.
    pub warm_basis: Option<Basis>,
    /// Static-partition owner (worker id).
    pub partition: usize,
}

/// Aggregated statistics of a parallel run.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Simulated makespan, ns.
    pub makespan_ns: f64,
    /// Nodes evaluated across all workers.
    pub nodes: usize,
    /// LP iterations across all workers.
    pub lp_iterations: usize,
    /// Messages exchanged.
    pub messages: usize,
    /// Total message bytes.
    pub message_bytes: usize,
    /// Per-worker busy simulated time (every incarnation of the rank).
    pub worker_busy_ns: Vec<f64>,
    /// Mean worker idle fraction of the makespan.
    pub idle_fraction: f64,
    /// Consistent snapshots taken.
    pub checkpoints: usize,
    /// Injected faults and the recovery they triggered (all-zero on a
    /// reliable machine).
    pub faults: FaultStats,
    /// Final tree counters.
    pub tree: TreeStats,
    /// Unified metrics ledger: `cluster.*` counters plus every rank's merged
    /// `gpu.*`/`lp.*` series (and `fault.*`/`recovery.*` under chaos).
    pub metrics: MetricsRegistry,
    /// The root relaxation's optimal basis (when the root branched), for
    /// pooling: a structurally identical re-submission can warm-start its
    /// root from it via [`ParallelConfig::root_basis`].
    pub root_basis: Option<Basis>,
}

/// Result of a parallel solve.
#[derive(Debug)]
pub struct ParallelResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective (source sense; NaN if none).
    pub objective: f64,
    /// Incumbent point.
    pub x: Vec<f64>,
    /// Statistics.
    pub stats: ParallelStats,
    /// Snapshots captured during the run (if configured).
    pub snapshots: Vec<Checkpoint>,
}

/// What a scheduled DES event means when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// A worker's report arrives at the supervisor.
    Deliver {
        /// The exchange it belongs to (stale deliveries are ignored).
        dispatch: u64,
    },
    /// The supervisor gave up waiting for an ack on this exchange.
    AckTimeout {
        /// The exchange it guards.
        dispatch: u64,
    },
    /// A planned fault kills the rank.
    Crash,
    /// Missing heartbeats make the supervisor notice the dead rank.
    Detect,
    /// The rank's replacement comes up after its backoff.
    Respawn,
}

#[derive(Debug, PartialEq)]
struct Event {
    time: f64,
    /// Global monotone tie-break: identical times resolve in push order,
    /// keeping the heap order (and therefore the whole run) deterministic.
    seq: u64,
    worker: usize,
    kind: EventKind,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are never NaN")
            .then(self.seq.cmp(&other.seq))
    }
}

/// The discrete-event supervisor.
#[derive(Debug)]
pub struct Supervisor {
    instance: MipInstance,
    /// `instance.integral_indices()`, computed once at construction.
    integral: Vec<usize>,
    cfg: ParallelConfig,
    tree: SearchTree<ParPayload>,
    workers: Vec<Worker>,
    /// Per-rank liveness and outstanding exchange.
    ranks: Roster,
    /// Busy time of crashed incarnations, per rank (the replacement worker
    /// starts its own ledger at zero).
    lost_busy_ns: Vec<f64>,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    next_dispatch: u64,
    now: f64,
    incumbent: Option<(f64, Vec<f64>)>,
    stats: ParallelStats,
    snapshots: Vec<Checkpoint>,
    /// The most recent consistent snapshot (periodic or taken at a crash
    /// detection) — what a real deployment would have on disk.
    last_checkpoint: Option<Checkpoint>,
    /// The seeded fault plan (None = reliable machine).
    plan: Option<FaultPlan>,
    /// Simulated time of the first incumbent (E12's time-to-first-incumbent
    /// metric; surfaced as the `heur.first_incumbent_ns` gauge).
    first_incumbent_ns: Option<f64>,
}

impl Supervisor {
    /// Builds a supervisor and its worker ranks; schedules any planned
    /// crashes on the event queue.
    pub fn new(instance: MipInstance, cfg: ParallelConfig) -> LpResult<Self> {
        assert!(cfg.workers >= 1, "need at least one worker");
        let mut workers = Vec::with_capacity(cfg.workers);
        for id in 0..cfg.workers {
            workers.push(
                Worker::new_with_backend(
                    id,
                    &instance,
                    cfg.gpu_cost.clone(),
                    cfg.gpu_mem,
                    cfg.lp.clone(),
                    cfg.int_tol,
                    cfg.batched_lanes,
                    cfg.first_order_lanes,
                    cfg.backend,
                )?
                .with_propagation(cfg.propagate, cfg.heuristic_period),
            );
        }
        let node_bytes = (instance.num_cons() + 2 * instance.num_vars()) * 8 + 128;
        let plan = cfg
            .chaos
            .clone()
            .map(|chaos| FaultPlan::new(chaos, cfg.workers));
        let mut sup = Self {
            tree: SearchTree::with_root(ParPayload::default(), node_bytes),
            ranks: Roster::new(cfg.workers),
            lost_busy_ns: vec![0.0; cfg.workers],
            workers,
            events: BinaryHeap::new(),
            next_seq: 0,
            next_dispatch: 0,
            now: 0.0,
            incumbent: None,
            stats: ParallelStats::default(),
            snapshots: Vec::new(),
            last_checkpoint: None,
            plan,
            first_incumbent_ns: None,
            integral: instance.integral_indices(),
            instance,
            cfg,
        };
        if let Some(plan) = &sup.plan {
            for &(time, worker) in &plan.crash_schedule().to_vec() {
                sup.push_event(time, worker, EventKind::Crash);
            }
        }
        // Warm-start entry point: a pooled solution becomes the initial
        // incumbent once it re-validates on this (possibly perturbed)
        // instance, so every dispatched assignment prunes against it.
        if let Some(seed) = sup.cfg.seed_solution.clone() {
            let mut p = seed;
            for &j in &sup.integral {
                if let Some(v) = p.get_mut(j) {
                    *v = v.round();
                }
            }
            if sup.instance.is_integer_feasible(&p, 1e-6) {
                let source = sup.instance.objective_value(&p);
                let internal = match sup.instance.objective {
                    Objective::Maximize => source,
                    Objective::Minimize => -source,
                };
                sup.incumbent = Some((internal, p));
                sup.first_incumbent_ns = Some(0.0);
                sup.stats.metrics.incr(names::BB_WARM_SEEDS, 1.0);
            }
        }
        if sup.cfg.warm_start {
            if let Some(b) = sup.cfg.root_basis.clone() {
                let root = sup.tree.root();
                sup.tree.data_mut(root).warm_basis = Some(b);
            }
        }
        Ok(sup)
    }

    /// Seeds the frontier from a checkpoint instead of the root (restart).
    pub fn restore(
        instance: MipInstance,
        cfg: ParallelConfig,
        checkpoint: &Checkpoint,
    ) -> LpResult<Self> {
        let mut sup = Self::new(instance, cfg)?;
        // Expand the root into the checkpointed frontier.
        sup.tree.begin_evaluation(sup.tree.root());
        let children: Vec<(String, ParPayload)> = checkpoint
            .frontier
            .iter()
            .enumerate()
            .map(|(i, bounds)| {
                (
                    format!("ckpt{i}"),
                    ParPayload {
                        bounds: bounds.clone(),
                        warm_basis: None,
                        partition: i % sup.cfg.workers,
                    },
                )
            })
            .collect();
        let ids = sup.tree.branch(sup.tree.root(), f64::INFINITY, children);
        sup.index_partitions(&ids);
        sup.incumbent = checkpoint.incumbent.clone();
        sup.last_checkpoint = Some(checkpoint.clone());
        Ok(sup)
    }

    fn push_event(&mut self, time: f64, worker: usize, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq,
            worker,
            kind,
        }));
    }

    fn to_source(&self, internal: f64) -> f64 {
        match self.instance.objective {
            Objective::Maximize => internal,
            Objective::Minimize => -internal,
        }
    }

    fn incumbent_internal(&self) -> f64 {
        self.incumbent
            .as_ref()
            .map(|(v, _)| *v)
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Mirrors the static partition of `ids` into the tree's scheduling
    /// groups. Dynamic balancing draws every pick from one global order, so
    /// there the partition stays a payload tag (it only feeds the migration
    /// counter) and every node keeps group 0.
    fn index_partitions(&mut self, ids: &[NodeId]) {
        if self.cfg.load_balance == LoadBalance::Static {
            for &id in ids {
                self.tree.set_group(id, self.tree.node(id).data.partition);
            }
        }
    }

    /// Picks the next node for `worker` under the configured policy, or
    /// `None` if nothing eligible is open.
    fn pick_node(&self, worker: usize, ramping: bool) -> Option<NodeId> {
        // A static rank draws from its own partition, plus the orphaned
        // partitions of retired ranks: any survivor may adopt those
        // (graceful degradation).
        let (own, orphaned): (usize, &[usize]) = match self.cfg.load_balance {
            LoadBalance::Dynamic => (0, &[]),
            LoadBalance::Static => (worker, self.ranks.retired()),
        };
        let groups = std::iter::once(own).chain(orphaned.iter().copied());
        if ramping {
            // Breadth-first widening: shallowest node first. Ramping means
            // fewer open nodes than ranks, so this scan is short.
            groups
                .flat_map(|g| self.tree.iter_in(g))
                .min_by_key(|&id| (self.tree.node(id).depth, id))
        } else {
            self.tree.best_among(groups)
        }
    }

    /// The lowest idle rank at or after `from` that some open node is
    /// eligible for.
    fn next_candidate(&self, from: usize) -> Option<usize> {
        if !self.tree.has_active() {
            return None;
        }
        let mut w = self.ranks.next_idle(from)?;
        // Under static balancing with no orphaned work, a rank is a
        // candidate only if its own partition has open nodes: leapfrog
        // between the idle ranks and the non-empty partitions.
        if self.cfg.load_balance == LoadBalance::Static
            && self
                .ranks
                .retired()
                .iter()
                .all(|&p| self.tree.open_in(p) == 0)
        {
            loop {
                let g = self.tree.next_open_group(w)?;
                if g == w {
                    break;
                }
                w = self.ranks.next_idle(g)?;
            }
        }
        Some(w)
    }

    /// Dispatches work to every idle alive worker that has any.
    fn dispatch(&mut self) -> LpResult<()> {
        // A dispatch moves one node from the active set to in-flight, so
        // the ramping predicate's sum is invariant across the round.
        let ramping = self.cfg.ramp_up
            && self.tree.active_ids().len() + self.ranks.outstanding() < self.cfg.workers;
        let mut from = 0;
        while let Some(w) = self.next_candidate(from) {
            from = w + 1;
            if self.workers[w].busy_until > self.now {
                continue;
            }
            if let Some(id) = self.pick_node(w, ramping) {
                self.start(w, id)?;
            }
        }
        Ok(())
    }

    /// Ships open node `id` to idle rank `w` and schedules what comes back.
    fn start(&mut self, w: usize, id: NodeId) -> LpResult<()> {
        self.tree.begin_evaluation(id);
        let node = self.tree.node(id);
        let assignment = assignment(node, self.cfg.warm_start, self.incumbent_internal());
        // A dynamic pick landing off the node's static partition is a
        // load-balance migration (work stealing).
        if node.data.partition != w {
            self.stats.metrics.incr(names::CLUSTER_MIGRATIONS, 1.0);
        }
        let dispatch = self.next_dispatch;
        self.next_dispatch += 1;
        let (report, completion) = exchange(
            &mut self.workers[w],
            w,
            &assignment,
            self.now,
            self.cfg.network,
            &mut self.plan,
            &mut self.stats,
        )?;
        self.ranks.park(
            w,
            InFlight {
                dispatch,
                node: id,
                report,
            },
        );
        match completion {
            Completion::Deliver(at) => self.push_event(at, w, EventKind::Deliver { dispatch }),
            Completion::AckTimeout(at) => {
                self.push_event(at, w, EventKind::AckTimeout { dispatch })
            }
        }
        Ok(())
    }

    /// Returns a lost in-flight subproblem to the open set so another rank
    /// can pick it up. The supervisor's tree is the live checkpoint: the
    /// node's payload (bounds, warm basis) is still there, and the last
    /// materialized [`Checkpoint`] provably covers it.
    fn reassign(&mut self, node: NodeId) {
        if self.tree.reopen(node) {
            self.stats.faults.reassignments += 1;
            debug_assert!(
                self.last_checkpoint
                    .as_ref()
                    .is_none_or(|c| c.covers(&self.tree.node(node).data.bounds)),
                "recovery invariant: the last checkpoint must cover every lost subproblem"
            );
            let (ts, nid) = (self.now, node as u64);
            gmip_trace::record(|| {
                TraceSpan::instant(Track::cluster_rank(0), "recovery.reassign", ts).arg("node", nid)
            });
        }
    }

    /// A report reaches the supervisor (unless it is stale: the rank died
    /// or the exchange was already written off).
    fn on_deliver(&mut self, worker: usize, dispatch: u64) {
        if !self.ranks[worker].alive() {
            return; // rank died with the report in transit; Detect handles it
        }
        let Some(inf) = self.ranks.take_exchange(worker, dispatch) else {
            return; // stale delivery of a written-off exchange
        };
        let report = inf.report.expect("delivered exchanges carry a report");
        self.process(worker, report);
    }

    /// The ack timer for a dropped exchange fires: write it off and
    /// reassign the subproblem.
    fn on_ack_timeout(&mut self, worker: usize, dispatch: u64) {
        // `None`: already resolved (e.g. crash detection got there first).
        if let Some(inf) = self.ranks.take_exchange(worker, dispatch) {
            self.reassign(inf.node);
        }
    }

    /// A planned crash lands on the rank: device state and any in-flight
    /// evaluation are gone. The supervisor only *notices* a heartbeat
    /// timeout later.
    fn on_crash(&mut self, worker: usize) {
        if !self.ranks[worker].alive() {
            return; // the planned crash hit an already-dead rank
        }
        self.ranks.crash(worker, self.now);
        self.stats.faults.crashes += 1;
        let ts = self.now;
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank((worker + 1) as u32), "fault.crash", ts)
        });
        let hb = self
            .plan
            .as_ref()
            .expect("crash events imply a plan")
            .cfg()
            .heartbeat_timeout_ns;
        self.push_event(self.now + hb, worker, EventKind::Detect);
    }

    /// Missing heartbeats reveal the crash: reassign the lost subproblem,
    /// refresh the recovery checkpoint, and schedule a respawn (or retire
    /// the rank when its budget is spent).
    fn on_detect(&mut self, worker: usize) {
        if let Some(inf) = self.ranks.take(worker) {
            self.reassign(inf.node);
        }
        // Refresh the recovery checkpoint: this is the restart file a real
        // deployment would rewrite once the failure is known.
        self.last_checkpoint = Some(self.snapshot());
        let max_respawns = self
            .plan
            .as_ref()
            .expect("detect events imply a plan")
            .cfg()
            .max_respawns;
        let backoff_base = self.plan.as_ref().expect("plan").cfg().respawn_backoff_ns;
        if self.ranks[worker].respawns < max_respawns || !self.ranks.others_viable(worker) {
            // Exponential backoff; the last viable rank is always granted a
            // respawn so the search can terminate.
            let exp = self.ranks[worker].respawns.min(20) as u32;
            let backoff = backoff_base * f64::from(1u32 << exp.min(20));
            self.ranks.await_respawn(worker);
            self.push_event(self.now + backoff, worker, EventKind::Respawn);
        } else {
            self.ranks.retire(worker);
            self.stats.faults.degraded_ranks += 1;
            let ts = self.now;
            gmip_trace::record(|| {
                TraceSpan::instant(
                    Track::cluster_rank((worker + 1) as u32),
                    "recovery.degrade",
                    ts,
                )
            });
        }
    }

    /// The replacement rank comes up: fresh device, matrix re-uploaded,
    /// warm-start state gone.
    fn on_respawn(&mut self, worker: usize) -> LpResult<()> {
        self.lost_busy_ns[worker] += self.workers[worker].busy_ns;
        let mut fresh = Worker::new_with_backend(
            worker,
            &self.instance,
            self.cfg.gpu_cost.clone(),
            self.cfg.gpu_mem,
            self.cfg.lp.clone(),
            self.cfg.int_tol,
            self.cfg.batched_lanes,
            self.cfg.first_order_lanes,
            self.cfg.backend,
        )?
        .with_propagation(self.cfg.propagate, self.cfg.heuristic_period);
        fresh.busy_until = self.now;
        self.workers[worker] = fresh;
        self.ranks.respawn(worker);
        self.stats.faults.respawns += 1;
        let (t0, dur) = (
            self.ranks[worker].down_since,
            self.now - self.ranks[worker].down_since,
        );
        let lane = Track::cluster_rank((worker + 1) as u32);
        gmip_trace::record(|| TraceSpan::complete(lane, "down", dur, t0));
        let ts = self.now;
        gmip_trace::record(|| TraceSpan::instant(lane, "recovery.respawn", ts));
        Ok(())
    }

    /// Processes one delivered report.
    fn process(&mut self, worker: usize, report: NodeReport) {
        self.stats.nodes += 1;
        self.stats.lp_iterations += report.lp_iterations;
        let id = report.node_id;
        // A fix-and-propagate candidate rides along with any outcome; it
        // enters the incumbent path before the node itself is settled so the
        // broadcastable bound is as tight as possible.
        if let Some((internal, x)) = report.heur {
            if internal > self.incumbent_internal() {
                let mut p = x;
                for &j in &self.integral {
                    p[j] = p[j].round();
                }
                self.incumbent = Some((internal, p));
                self.first_incumbent_ns.get_or_insert(self.now);
                self.tree.prune_dominated(internal, self.cfg.prune_tol);
                let (ts, obj) = (self.now, self.to_source(internal));
                gmip_trace::record(|| {
                    TraceSpan::instant(Track::cluster_rank(0), "incumbent", ts)
                        .arg("objective", obj)
                        .arg("worker", worker as u64)
                        .arg("source", "fix_and_propagate")
                });
            }
        }
        match report.outcome {
            NodeOutcome::Infeasible => {
                self.tree
                    .settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
            }
            NodeOutcome::Pruned { bound } => {
                self.tree.settle(id, NodeState::Pruned, bound);
            }
            NodeOutcome::IntegerFeasible { internal, x } => {
                self.tree.settle(id, NodeState::Feasible, internal);
                if internal > self.incumbent_internal() {
                    let mut p = x;
                    for &j in &self.integral {
                        p[j] = p[j].round();
                    }
                    self.incumbent = Some((internal, p));
                    self.first_incumbent_ns.get_or_insert(self.now);
                    self.tree.prune_dominated(internal, self.cfg.prune_tol);
                    let (ts, obj) = (self.now, self.to_source(internal));
                    gmip_trace::record(|| {
                        TraceSpan::instant(Track::cluster_rank(0), "incumbent", ts)
                            .arg("objective", obj)
                            .arg("worker", worker as u64)
                    });
                }
            }
            NodeOutcome::Branch {
                bound,
                var,
                value,
                basis,
            } => {
                if id == self.tree.root() && self.stats.root_basis.is_none() {
                    self.stats.root_basis = basis.clone();
                }
                if bound <= self.incumbent_internal() + self.cfg.prune_tol {
                    self.tree.settle(id, NodeState::Pruned, bound);
                    return;
                }
                let parent = self.tree.node(id);
                let parent_partition = parent.data.partition;
                let parent_depth = parent.depth;
                let bounds = parent.data.bounds.clone();
                let (mut lo, mut hi) = (self.instance.vars[var].lb, self.instance.vars[var].ub);
                for bc in &bounds {
                    if bc.var == var {
                        lo = bc.lb;
                        hi = bc.ub;
                    }
                }
                let name = self.instance.vars[var].name.clone();
                let mk = |up: bool, part: usize| {
                    let mut child_bounds = bounds.clone();
                    let label = if up {
                        child_bounds.push(BoundChange {
                            var,
                            lb: value.ceil(),
                            ub: hi,
                        });
                        format!("{name} ≥ {}", value.ceil())
                    } else {
                        child_bounds.push(BoundChange {
                            var,
                            lb: lo,
                            ub: value.floor(),
                        });
                        format!("{name} ≤ {}", value.floor())
                    };
                    (
                        label,
                        ParPayload {
                            bounds: child_bounds,
                            warm_basis: basis.clone(),
                            partition: part,
                        },
                    )
                };
                // Static partitioning: spread subtrees over all workers by
                // binary fan-out near the root (depth d covers 2^(d+1)
                // partitions), then inherit — every worker owns a subtree
                // once the frontier is wide enough.
                let spread =
                    parent_depth < 63 && (1usize << (parent_depth + 1)) <= self.cfg.workers * 2;
                let children = if spread {
                    vec![
                        mk(false, (parent_partition * 2) % self.cfg.workers.max(1)),
                        mk(true, (parent_partition * 2 + 1) % self.cfg.workers.max(1)),
                    ]
                } else {
                    vec![mk(false, parent_partition), mk(true, parent_partition)]
                };
                let ids = self.tree.branch(id, bound, children);
                self.index_partitions(&ids);
            }
        }
    }

    /// Captures the distributed consistent snapshot *now*: all open nodes
    /// plus nodes currently being evaluated or whose reports are in transit
    /// (the two parallel complications of Section 2.1).
    pub fn snapshot(&self) -> Checkpoint {
        let mut frontier: Vec<Vec<BoundChange>> = Vec::new();
        for n in self.tree.iter() {
            if n.state.is_open() {
                frontier.push(n.data.bounds.clone());
            }
        }
        Checkpoint::new(frontier, self.incumbent.clone())
    }

    /// Runs to completion (or node limit); consumes the supervisor.
    pub fn run(mut self) -> LpResult<ParallelResult> {
        let mut last_checkpoint_at = 0usize;
        let status = loop {
            if self.stats.nodes >= self.cfg.node_limit {
                break MipStatus::NodeLimit;
            }
            self.dispatch()?;
            // Done when no open nodes remain and nothing is in flight —
            // fault events scheduled past this point hit a machine whose
            // job already finished.
            if !self.tree.has_active() && self.ranks.outstanding() == 0 {
                break if self.incumbent.is_some() {
                    MipStatus::Optimal
                } else {
                    MipStatus::Infeasible
                };
            }
            let Some(Reverse(ev)) = self.events.pop() else {
                // Defensive: outstanding work always has a pending event.
                break if self.incumbent.is_some() {
                    MipStatus::Optimal
                } else {
                    MipStatus::Infeasible
                };
            };
            // Clock is monotone even when checkpoint serialization pushed it
            // past an already-scheduled completion.
            self.now = self.now.max(ev.time);
            let nodes_before = self.stats.nodes;
            match ev.kind {
                EventKind::Deliver { dispatch } => self.on_deliver(ev.worker, dispatch),
                EventKind::AckTimeout { dispatch } => self.on_ack_timeout(ev.worker, dispatch),
                EventKind::Crash => self.on_crash(ev.worker),
                EventKind::Detect => self.on_detect(ev.worker),
                EventKind::Respawn => self.on_respawn(ev.worker)?,
            }
            if self.stats.nodes > nodes_before {
                if let Some(every) = self.cfg.checkpoint_every {
                    if self.stats.nodes >= last_checkpoint_at + every {
                        last_checkpoint_at = self.stats.nodes;
                        let snap = self.snapshot();
                        // Stop-the-world serialization: the supervisor's clock
                        // advances while the snapshot is written (~1 GB/s).
                        let (t0, dur) = (self.now, 2_000.0 + snap.bytes() as f64);
                        let (ck_bytes, frontier) =
                            (snap.bytes() as u64, snap.frontier.len() as u64);
                        gmip_trace::record(|| {
                            TraceSpan::complete(Track::cluster_rank(0), "checkpoint", dur, t0)
                                .arg("bytes", ck_bytes)
                                .arg("frontier", frontier)
                        });
                        self.now += dur;
                        self.last_checkpoint = Some(snap.clone());
                        self.snapshots.push(snap);
                        self.stats.checkpoints += 1;
                    }
                }
            }
        };
        // Drain bookkeeping.
        self.stats.makespan_ns = self.now;
        self.stats.worker_busy_ns = self
            .workers
            .iter()
            .zip(&self.lost_busy_ns)
            .map(|(w, lost)| w.busy_ns + lost)
            .collect();
        if self.now > 0.0 {
            let busy_sum: f64 = self.stats.worker_busy_ns.iter().sum();
            self.stats.idle_fraction = 1.0 - busy_sum / (self.now * self.workers.len() as f64);
        }
        self.stats.tree = self.tree.stats().clone();
        // Fold the communication counters and every rank's device/LP ledger
        // into the unified metrics registry.
        let (msgs, bytes, ckpts) = (
            self.stats.messages,
            self.stats.message_bytes,
            self.stats.checkpoints,
        );
        self.stats
            .metrics
            .incr(names::CLUSTER_MESSAGES, msgs as f64);
        self.stats.metrics.incr(names::CLUSTER_BYTES, bytes as f64);
        self.stats
            .metrics
            .incr(names::CLUSTER_CHECKPOINTS, ckpts as f64);
        if self.plan.is_some() {
            let f = self.stats.faults;
            let m = &mut self.stats.metrics;
            m.incr(names::FAULT_CRASHES, f.crashes as f64);
            m.incr(names::FAULT_DROPS, f.drops as f64);
            m.incr(names::FAULT_DELAYS, f.delays as f64);
            m.incr(names::FAULT_STRAGGLES, f.straggles as f64);
            m.incr(names::RECOVERY_REASSIGNMENTS, f.reassignments as f64);
            m.incr(names::RECOVERY_RESPAWNS, f.respawns as f64);
            m.incr(names::RECOVERY_DEGRADED_RANKS, f.degraded_ranks as f64);
        }
        for w in &self.workers {
            self.stats.metrics.merge(&w.metrics());
        }
        if let Some(t) = self.first_incumbent_ns {
            self.stats
                .metrics
                .set_gauge(names::HEUR_FIRST_INCUMBENT_NS, t);
        }
        let (objective, x) = match &self.incumbent {
            Some((v, p)) => (self.to_source(*v), p.clone()),
            None => (f64::NAN, Vec::new()),
        };
        Ok(ParallelResult {
            status,
            objective,
            x,
            stats: self.stats,
            snapshots: self.snapshots,
        })
    }
}

/// Convenience: solve an instance on a simulated cluster.
pub fn solve_parallel(instance: &MipInstance, cfg: ParallelConfig) -> LpResult<ParallelResult> {
    Supervisor::new(instance.clone(), cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::catalog::{infeasible_instance, textbook_mip};
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

    fn cfg(workers: usize) -> ParallelConfig {
        ParallelConfig {
            workers,
            gpu_mem: 1 << 24,
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_brute_force() {
        for seed in 0..3 {
            let m = knapsack(12, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_parallel(&m, cfg(4)).unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: {} vs {expected}",
                r.objective
            );
        }
    }

    #[test]
    fn batched_workers_match_default_with_fewer_launches() {
        let m = knapsack(12, 0.5, 1);
        let baseline = solve_parallel(&m, cfg(3)).unwrap();
        let batched = solve_parallel(
            &m,
            ParallelConfig {
                batched_lanes: Some(2),
                ..cfg(3)
            },
        )
        .unwrap();
        assert_eq!(batched.status, MipStatus::Optimal);
        assert!((batched.objective - baseline.objective).abs() < 1e-6);
        // The wave backend fuses kernel classes: fewer launches, same work.
        let launches = |r: &ParallelResult| r.stats.metrics.counter("gpu.kernel.launches");
        assert!(
            launches(&batched) < launches(&baseline),
            "{} vs {}",
            launches(&batched),
            launches(&baseline)
        );
        assert!(batched.stats.metrics.counter("wave.fused_launches") > 0.0);
    }

    #[test]
    fn first_order_workers_match_default() {
        let m = knapsack(12, 0.5, 1);
        let baseline = solve_parallel(&m, cfg(3)).unwrap();
        let fo = solve_parallel(
            &m,
            ParallelConfig {
                first_order_lanes: Some(2),
                ..cfg(3)
            },
        )
        .unwrap();
        assert_eq!(fo.status, MipStatus::Optimal);
        assert!((fo.objective - baseline.objective).abs() < 1e-6);
        // The ranks really ran the PDHG evaluator, and incumbent cutoffs
        // reached in-flight lanes (safe-bound prunes).
        assert!(fo.stats.metrics.counter("fo.iterations") > 0.0);
        assert!(fo.stats.metrics.counter("fo.cleanups") > 0.0);
    }

    #[test]
    fn propagating_workers_match_brute_force() {
        for seed in 0..3 {
            let m = knapsack(12, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_parallel(
                &m,
                ParallelConfig {
                    propagate: true,
                    heuristic_period: 2,
                    ..cfg(3)
                },
            )
            .unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: {} vs {expected}",
                r.objective
            );
            // The ranks really propagated, and the first incumbent's
            // simulated timestamp is on the ledger.
            assert!(r.stats.metrics.counter(names::PROP_NODES) > 0.0);
            assert!(r.stats.metrics.gauge(names::HEUR_FIRST_INCUMBENT_NS) > 0.0);
        }
    }

    #[test]
    fn propagation_settles_infeasible_instances_without_lp_iterations() {
        let r = solve_parallel(
            &infeasible_instance(),
            ParallelConfig {
                propagate: true,
                ..cfg(2)
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(r.stats.metrics.counter(names::PROP_INFEASIBLE) >= 1.0);
    }

    #[test]
    fn textbook_mip_parallel() {
        let r = solve_parallel(&textbook_mip(), cfg(2)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6);
        assert!(r.stats.messages > 0);
        assert!(r.stats.makespan_ns > 0.0);
        assert_eq!(r.stats.worker_busy_ns.len(), 2);
        assert_eq!(r.stats.faults, crate::chaos::FaultStats::default());
    }

    #[test]
    fn infeasible_detected_in_parallel() {
        let r = solve_parallel(&infeasible_instance(), cfg(2)).unwrap();
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(r.objective.is_nan());
    }

    #[test]
    fn more_workers_do_not_change_the_answer() {
        let m = knapsack(14, 0.5, 7);
        let expected = knapsack_brute_force(&m);
        for w in [1, 2, 4, 8] {
            let r = solve_parallel(&m, cfg(w)).unwrap();
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "{w} workers: {} vs {expected}",
                r.objective
            );
        }
    }

    #[test]
    fn speedup_with_more_workers() {
        let m = knapsack(18, 0.5, 3);
        let t1 = solve_parallel(&m, cfg(1)).unwrap().stats.makespan_ns;
        let t4 = solve_parallel(&m, cfg(4)).unwrap().stats.makespan_ns;
        assert!(t4 < t1, "4 workers ({t4} ns) not faster than 1 ({t1} ns)");
    }

    #[test]
    fn static_partitioning_solves_but_idles_more() {
        let m = knapsack(16, 0.5, 5);
        let expected = knapsack_brute_force(&m);
        let dynamic = solve_parallel(
            &m,
            ParallelConfig {
                load_balance: LoadBalance::Dynamic,
                ..cfg(4)
            },
        )
        .unwrap();
        let static_ = solve_parallel(
            &m,
            ParallelConfig {
                load_balance: LoadBalance::Static,
                ..cfg(4)
            },
        )
        .unwrap();
        assert!((dynamic.objective - expected).abs() < 1e-6);
        assert!((static_.objective - expected).abs() < 1e-6);
        // Static partitioning cannot beat dynamic on idle time.
        assert!(
            static_.stats.idle_fraction >= dynamic.stats.idle_fraction - 0.05,
            "static idle {} vs dynamic {}",
            static_.stats.idle_fraction,
            dynamic.stats.idle_fraction
        );
    }

    #[test]
    fn snapshots_taken_when_configured() {
        let m = knapsack(16, 0.5, 2);
        let r = solve_parallel(
            &m,
            ParallelConfig {
                checkpoint_every: Some(3),
                ..cfg(2)
            },
        )
        .unwrap();
        assert!(r.stats.checkpoints > 0);
        assert_eq!(r.snapshots.len(), r.stats.checkpoints);
    }

    #[test]
    fn node_limit_respected() {
        let m = knapsack(24, 0.5, 1);
        let r = solve_parallel(
            &m,
            ParallelConfig {
                node_limit: 5,
                ..cfg(2)
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::NodeLimit);
        assert!(r.stats.nodes <= 6);
    }

    #[test]
    fn dropped_messages_are_reassigned_and_answer_unchanged() {
        let m = knapsack(12, 0.5, 9);
        let expected = knapsack_brute_force(&m);
        let r = solve_parallel(
            &m,
            ParallelConfig {
                chaos: Some(ChaosConfig {
                    drop_prob: 0.25,
                    ..ChaosConfig::quiet(3)
                }),
                ..cfg(3)
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - expected).abs() < 1e-6);
        assert!(r.stats.faults.drops > 0, "plan injected no drops");
        assert!(
            r.stats.faults.reassignments >= 1,
            "drops must trigger reassignment: {:?}",
            r.stats.faults
        );
        assert_eq!(r.stats.tree.reopened, r.stats.faults.reassignments);
    }

    #[test]
    fn crashes_respawn_and_recover_the_optimum() {
        let m = knapsack(16, 0.5, 5);
        let expected = knapsack_brute_force(&m);
        // Size the crash window to the fault-free makespan so the crashes
        // land while the cluster is actually busy.
        let clean = solve_parallel(&m, cfg(3)).unwrap();
        let r = solve_parallel(
            &m,
            ParallelConfig {
                chaos: Some(ChaosConfig {
                    crashes: 4,
                    horizon_ns: clean.stats.makespan_ns * 0.8,
                    ..ChaosConfig::quiet(11)
                }),
                ..cfg(3)
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(
            (r.objective - expected).abs() < 1e-6,
            "chaotic {} vs clean {expected}",
            r.objective
        );
        assert!(
            r.stats.faults.crashes > 0,
            "no crash landed: {:?}",
            r.stats.faults
        );
        assert!(
            r.stats.faults.respawns > 0,
            "no respawn: {:?}",
            r.stats.faults
        );
        // Failures cost simulated time.
        assert!(r.stats.makespan_ns >= clean.stats.makespan_ns);
    }

    #[test]
    fn exhausted_respawn_budget_degrades_but_terminates() {
        let m = knapsack(16, 0.5, 5);
        let expected = knapsack_brute_force(&m);
        let clean = solve_parallel(&m, cfg(3)).unwrap();
        let r = solve_parallel(
            &m,
            ParallelConfig {
                chaos: Some(ChaosConfig {
                    crashes: 5,
                    horizon_ns: clean.stats.makespan_ns * 0.8,
                    max_respawns: 0,
                    ..ChaosConfig::quiet(11)
                }),
                ..cfg(3)
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - expected).abs() < 1e-6);
        assert!(
            r.stats.faults.degraded_ranks > 0,
            "budget 0 must retire a rank: {:?}",
            r.stats.faults
        );
    }
}
