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

use crate::chaos::{ChaosConfig, FaultStats};
use crate::checkpoint::Checkpoint;
use crate::cluster::{Cluster, EventQueue, Recovery};
use crate::comm::{NetworkModel, NodeReport};
use crate::exchange::{children, Completion};
use gmip_core::search::{self, Incumbent, NodeOutcome};
use gmip_core::MipStatus;
use gmip_lp::{Basis, BoundChange, LpConfig, LpResult};
use gmip_problems::MipInstance;
use gmip_trace::{names, Event as TraceSpan, MetricsRegistry, Track};
use gmip_tree::{NodeId, TreeStats};

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

/// A warm start: what a prior solve of the same (or a perturbed) model
/// hands a cluster solve. The default is a cold start.
#[derive(Debug, Clone, Default)]
pub struct Warm {
    /// A candidate solution (source-sense point) installed as the initial
    /// incumbent if it validates integer-feasible on the instance — the
    /// multi-job serving layer seeds perturbed re-submissions from its
    /// solution pool this way. Ignored when infeasible.
    pub seed: Option<Vec<f64>>,
    /// A warm basis for the root relaxation (a pooled basis from a
    /// structurally identical solve), shipped to the rank that evaluates the
    /// root exactly like a parent basis. A basis of the wrong shape is
    /// dropped there and the root solves cold.
    pub root_basis: Option<Basis>,
}

/// Configuration of a parallel solve.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of worker ranks.
    pub workers: usize,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Per-worker device memory.
    pub gpu_mem: usize,
    /// LP tolerances.
    pub lp: LpConfig,
    /// Node budget.
    pub node_limit: usize,
    /// Work-distribution mode.
    pub load_balance: LoadBalance,
    /// Breadth-first ramp-up until every worker has work.
    pub ramp_up: bool,
    /// Take a consistent snapshot every `n` nodes (None = never).
    pub checkpoint_every: Option<usize>,
    /// Deterministic fault injection (None = a reliable machine).
    pub chaos: Option<ChaosConfig>,
    /// What a prior solve hands this one (default: a cold start).
    pub warm: Warm,
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
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            network: NetworkModel::infiniband(),
            gpu_mem: 1 << 30,
            lp: LpConfig::standard(),
            node_limit: 100_000,
            load_balance: LoadBalance::Dynamic,
            ramp_up: true,
            checkpoint_every: None,
            chaos: None,
            warm: Warm::default(),
            propagate: false,
            heuristic_period: 0,
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
    /// root from it via [`Warm::root_basis`].
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

/// The discrete-event supervisor.
#[derive(Debug)]
pub struct Supervisor {
    /// The ranks, the tree, the clock and the ledger.
    c: Cluster,
    /// Scheduled events; `entity` is the rank.
    events: EventQueue<EventKind>,
    /// The incumbent and the simulated time of the first one (E12's
    /// time-to-first-incumbent metric; surfaced as the
    /// `heur.first_incumbent_ns` gauge).
    incumbent: Incumbent,
}

impl Supervisor {
    /// Builds a supervisor and its worker ranks; schedules any planned
    /// crashes on the event queue.
    pub fn new(instance: MipInstance, cfg: ParallelConfig) -> LpResult<Self> {
        let mut sup = Self {
            c: Cluster::new(instance, cfg)?,
            events: EventQueue::new(),
            incumbent: Incumbent::default(),
        };
        if let Some(plan) = &sup.c.plan {
            for &(time, worker) in plan.crash_schedule() {
                sup.events.push(time, worker, EventKind::Crash);
            }
        }
        // Warm-start entry point: a pooled solution becomes the initial
        // incumbent once it re-validates on this (possibly perturbed)
        // instance, so every dispatched assignment prunes against it.
        if let Some(seed) = &sup.c.cfg.warm.seed {
            if sup.incumbent.seed(&sup.c.rules, &sup.c.instance, seed) {
                sup.c.stats.metrics.incr(names::BB_WARM_SEEDS, 1.0);
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
        sup.c.tree.begin_evaluation(sup.c.tree.root());
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
                        partition: i % sup.c.cfg.workers,
                    },
                )
            })
            .collect();
        let ids = sup
            .c
            .tree
            .branch(sup.c.tree.root(), f64::INFINITY, children);
        sup.index_partitions(&ids);
        sup.incumbent.restore(checkpoint.incumbent.clone());
        sup.c.last_checkpoint = Some(checkpoint.clone());
        Ok(sup)
    }

    /// Mirrors the static partition of `ids` into the tree's scheduling
    /// groups. Dynamic balancing draws every pick from one global order, so
    /// there the partition stays a payload tag (it only feeds the migration
    /// counter) and every node keeps group 0.
    fn index_partitions(&mut self, ids: &[NodeId]) {
        if self.c.cfg.load_balance == LoadBalance::Static {
            for &id in ids {
                self.c
                    .tree
                    .set_group(id, self.c.tree.node(id).data.partition);
            }
        }
    }

    /// Picks the next node for `worker` under the configured policy, or
    /// `None` if nothing eligible is open.
    fn pick_node(&self, worker: usize, ramping: bool) -> Option<NodeId> {
        // A static rank draws from its own partition, plus the orphaned
        // partitions of retired ranks: any survivor may adopt those
        // (graceful degradation).
        let (own, orphaned): (usize, &[usize]) = match self.c.cfg.load_balance {
            LoadBalance::Dynamic => (0, &[]),
            LoadBalance::Static => (worker, self.c.ranks.retired()),
        };
        let groups = std::iter::once(own).chain(orphaned.iter().copied());
        if ramping {
            // Breadth-first widening: shallowest node first. Ramping means
            // fewer open nodes than ranks, so this scan is short.
            groups
                .flat_map(|g| self.c.tree.iter_in(g))
                .min_by_key(|&id| (self.c.tree.node(id).depth, id))
        } else {
            self.c.tree.best_among(groups)
        }
    }

    /// The lowest idle rank at or after `from` that some open node is
    /// eligible for.
    fn next_candidate(&self, from: usize) -> Option<usize> {
        if !self.c.tree.has_active() {
            return None;
        }
        let mut w = self.c.ranks.next_idle(from)?;
        // Under static balancing with no orphaned work, a rank is a
        // candidate only if its own partition has open nodes: leapfrog
        // between the idle ranks and the non-empty partitions.
        if self.c.cfg.load_balance == LoadBalance::Static
            && self
                .c
                .ranks
                .retired()
                .iter()
                .all(|&p| self.c.tree.open_in(p) == 0)
        {
            loop {
                let g = self.c.tree.next_open_group(w)?;
                if g == w {
                    break;
                }
                w = self.c.ranks.next_idle(g)?;
            }
        }
        Some(w)
    }

    /// Dispatches work to every idle alive worker that has any.
    fn dispatch(&mut self) -> LpResult<()> {
        // A dispatch moves one node from the active set to in-flight, so
        // the ramping predicate's sum is invariant across the round.
        let ramping = self.c.cfg.ramp_up
            && self.c.tree.active_ids().len() + self.c.ranks.outstanding() < self.c.cfg.workers;
        let mut from = 0;
        while let Some(w) = self.next_candidate(from) {
            from = w + 1;
            if self.c.workers[w].busy_until > self.c.now {
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
        // A dynamic pick landing off the node's static partition is a
        // load-balance migration (work stealing).
        if self.c.tree.node(id).data.partition != w {
            self.c.stats.metrics.incr(names::CLUSTER_MIGRATIONS, 1.0);
        }
        let (dispatch, completion) = self.c.start(w, id, self.incumbent.value())?;
        match completion {
            Completion::Deliver(at) => self.events.push(at, w, EventKind::Deliver { dispatch }),
            Completion::AckTimeout(at) => {
                self.events.push(at, w, EventKind::AckTimeout { dispatch })
            }
        }
        Ok(())
    }

    /// Missing heartbeats reveal the crash: reassign the lost subproblem,
    /// refresh the recovery checkpoint — the restart file a real deployment
    /// would rewrite once the failure is known — and schedule a respawn
    /// (unless the rank's budget is spent).
    fn on_detect(&mut self, worker: usize) {
        self.c.reassign_in_flight(worker);
        self.c.last_checkpoint = Some(self.snapshot());
        if let Recovery::RespawnAt(at) = self.c.recover(worker) {
            self.events.push(at, worker, EventKind::Respawn);
        }
    }

    /// The incumbent sink: installs an integer-feasible point a report
    /// carried if it improves; `source` names a heuristic origin.
    fn offer(&mut self, worker: usize, value: f64, x: Vec<f64>, source: Option<&'static str>) {
        if value > self.incumbent.value() {
            let ts = self.c.now;
            self.incumbent
                .install(&self.c.rules, &mut self.c.tree, value, x, || ts);
            let obj = self.c.rules.to_source(value);
            gmip_trace::record(|| {
                let mark = TraceSpan::instant(Track::cluster_rank(0), "incumbent", ts)
                    .arg("objective", obj)
                    .arg("worker", worker as u64);
                match source {
                    Some(source) => mark.arg("source", source),
                    None => mark,
                }
            });
        }
    }

    /// Processes one delivered report.
    fn process(&mut self, worker: usize, report: NodeReport) {
        self.c.stats.nodes += 1;
        self.c.stats.lp_iterations += report.lp_iterations;
        let id = report.node_id;
        // A fix-and-propagate candidate rides along with any outcome; it
        // enters the incumbent path before the node itself is settled so the
        // broadcastable bound is as tight as possible.
        if let Some((value, x)) = report.heur {
            self.offer(worker, value, x, Some("fix_and_propagate"));
        }
        let now = self.incumbent.value();
        match search::settle(&self.c.rules, &mut self.c.tree, id, report.outcome, now) {
            NodeOutcome::Integral { bound, x } => self.offer(worker, bound, x, None),
            NodeOutcome::Branch { bound, decision } => {
                let parent = self.c.tree.node(id);
                let mut children = children(&self.c.instance, parent, decision, report.basis);
                let (part, depth, n) = (parent.data.partition, parent.depth, self.c.cfg.workers);
                let [down, up] = &mut children;
                (down.1.partition, up.1.partition) =
                    if depth < 63 && (1usize << (depth + 1)) <= n * 2 {
                        ((part * 2) % n.max(1), (part * 2 + 1) % n.max(1))
                    } else {
                        (part, part)
                    };
                let ids = self.c.tree.branch(id, bound, children);
                self.index_partitions(&ids);
            }
            NodeOutcome::Infeasible | NodeOutcome::Pruned { .. } => {}
        }
    }

    /// Captures the distributed consistent snapshot *now*: all open nodes
    /// plus nodes currently being evaluated or whose reports are in transit
    /// (the two parallel complications of Section 2.1).
    pub fn snapshot(&self) -> Checkpoint {
        let mut frontier: Vec<Vec<BoundChange>> = Vec::new();
        for n in self.c.tree.iter() {
            if n.state.is_open() {
                frontier.push(n.data.bounds.clone());
            }
        }
        Checkpoint::new(frontier, self.incumbent.best().cloned())
    }

    /// Runs to completion (or node limit); consumes the supervisor.
    pub fn run(mut self) -> LpResult<ParallelResult> {
        // Breaks with whether the node limit cut the search short.
        let stopped = loop {
            if self.c.stats.nodes >= self.c.cfg.node_limit {
                break true;
            }
            self.dispatch()?;
            // Done when no open nodes remain and nothing is in flight —
            // fault events scheduled past this point hit a machine whose
            // job already finished.
            if !self.c.tree.has_active() && self.c.ranks.outstanding() == 0 {
                break false;
            }
            let Some(ev) = self.events.pop() else {
                // Defensive: outstanding work always has a pending event.
                break false;
            };
            // Clock is monotone even when checkpoint serialization pushed it
            // past an already-scheduled completion.
            self.c.now = self.c.now.max(ev.time);
            let nodes_before = self.c.stats.nodes;
            let worker = ev.entity;
            match ev.kind {
                EventKind::Deliver { dispatch } => {
                    if let Some(report) = self.c.delivered(worker, dispatch) {
                        self.process(worker, report);
                    }
                }
                EventKind::AckTimeout { dispatch } => self.c.ack_timeout(worker, dispatch),
                EventKind::Crash => {
                    if let Some(at) = self.c.crash(worker) {
                        self.events.push(at, worker, EventKind::Detect);
                    }
                }
                EventKind::Detect => self.on_detect(worker),
                EventKind::Respawn => self.c.respawn(worker)?,
            }
            if self.c.checkpoint_due(nodes_before) {
                let snap = self.snapshot();
                self.c.store_checkpoint(snap);
            }
        };
        self.c.close_ledger();
        if let Some(t) = self.incumbent.first_ns() {
            let gauge = names::HEUR_FIRST_INCUMBENT_NS;
            self.c.stats.metrics.set_gauge(gauge, t);
        }
        let done = self.c.rules.finish(self.incumbent, stopped);
        Ok(ParallelResult {
            status: done.status,
            objective: done.objective,
            x: done.x,
            stats: self.c.stats,
            snapshots: self.c.snapshots,
        })
    }
}

/// Convenience: solve an instance on a simulated cluster.
pub fn solve_parallel(instance: &MipInstance, cfg: ParallelConfig) -> LpResult<ParallelResult> {
    Supervisor::new(instance.clone(), cfg)?.run()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gmip_problems::catalog::{infeasible_instance, textbook_mip};
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

    /// `workers` ranks with small devices: the unit tests' cluster.
    pub(crate) fn cfg(workers: usize) -> ParallelConfig {
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
