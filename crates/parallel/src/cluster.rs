//! What the flat and the hierarchical discrete-event coordinators share:
//! the ranks and their devices, the tree, the clock, the ledger, the event
//! queue, and the rank-level recovery protocol (crash → heartbeat detection
//! → reassignment → backoff respawn or retirement). The coordinators differ
//! in *who decides* — one supervisor, or a root over sub-supervisors — not
//! in what a rank exchange, a rank fault or a checkpoint costs.

use crate::chaos::{ChaosConfig, FaultPlan};
use crate::checkpoint::Checkpoint;
use crate::comm::NodeReport;
use crate::exchange::{assignment, exchange, Completion};
use crate::roster::{InFlight, Roster};
use crate::supervisor::{ParPayload, ParallelConfig, ParallelStats};
use crate::worker::Worker;
use gmip_core::search::{self, Rules};
use gmip_lp::LpResult;
use gmip_problems::MipInstance;
use gmip_trace::{names, Event as TraceSpan, Track};
use gmip_tree::{NodeId, SearchTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled DES event: `entity` is whatever `kind` is about (a rank,
/// a group, a service job).
#[derive(Debug)]
pub struct Timed<K> {
    /// When the event fires, simulated ns.
    pub time: f64,
    /// Global monotone tie-break: identical times resolve in push order,
    /// keeping the heap order (and therefore the whole run) deterministic.
    seq: u64,
    /// What the event is about.
    pub entity: usize,
    /// What happens.
    pub kind: K,
}

impl<K> PartialEq for Timed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<K> Eq for Timed<K> {}

impl<K> PartialOrd for Timed<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Timed<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are never NaN")
            .then(self.seq.cmp(&other.seq))
    }
}

/// The time-ordered event queue of a discrete-event reactor (the cluster
/// coordinators, the solve service): events pop by time, and events at
/// one time in the order they were pushed.
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Reverse<Timed<K>>>,
    next_seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` about `entity` at `time` (never NaN).
    pub fn push(&mut self, time: f64, entity: usize, kind: K) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Timed {
            time,
            seq,
            entity,
            kind,
        }));
    }

    /// The earliest event, if any.
    pub fn pop(&mut self) -> Option<Timed<K>> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }
}

/// How a detected rank failure is resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Recovery {
    /// The replacement comes up at this time (exponential backoff).
    RespawnAt(f64),
    /// The rank's respawn budget is spent: it is retired for good.
    Retired,
}

/// The simulated machine and its ledger.
#[derive(Debug)]
pub(crate) struct Cluster {
    pub instance: MipInstance,
    /// Sense, integral index list and tolerances, fixed at construction.
    pub rules: Rules,
    pub cfg: ParallelConfig,
    pub tree: SearchTree<ParPayload>,
    pub workers: Vec<Worker>,
    /// Per-rank liveness and outstanding exchange.
    pub ranks: Roster,
    /// Busy time of crashed incarnations, per rank (the replacement worker
    /// starts its own ledger at zero).
    lost_busy_ns: Vec<f64>,
    next_dispatch: u64,
    pub now: f64,
    pub stats: ParallelStats,
    pub snapshots: Vec<Checkpoint>,
    /// The most recent consistent snapshot (periodic or taken at a crash
    /// detection) — what a real deployment would have on disk.
    pub last_checkpoint: Option<Checkpoint>,
    /// `stats.nodes` at the last periodic snapshot.
    last_checkpoint_at: usize,
    /// The seeded fault plan (None = reliable machine).
    pub plan: Option<FaultPlan>,
}

impl Cluster {
    /// Builds the worker ranks (each uploads the LP matrix to its device),
    /// the fault plan and the one-node tree; a pooled root basis warm-starts
    /// the root like a parent basis would.
    pub fn new(instance: MipInstance, cfg: ParallelConfig) -> LpResult<Self> {
        assert!(cfg.workers >= 1, "need at least one worker");
        let workers = (0..cfg.workers)
            .map(|id| Worker::for_rank(id, &instance, &cfg))
            .collect::<LpResult<Vec<_>>>()?;
        let plan = cfg
            .chaos
            .clone()
            .map(|chaos| FaultPlan::new(chaos, cfg.workers));
        let mut tree = SearchTree::with_root(ParPayload::default(), search::node_bytes(&instance));
        let root = tree.root();
        tree.data_mut(root)
            .warm_basis
            .clone_from(&cfg.warm.root_basis);
        Ok(Self {
            rules: Rules::new(&instance),
            tree,
            ranks: Roster::new(cfg.workers),
            lost_busy_ns: vec![0.0; cfg.workers],
            workers,
            next_dispatch: 0,
            now: 0.0,
            stats: ParallelStats::default(),
            snapshots: Vec::new(),
            last_checkpoint: None,
            last_checkpoint_at: 0,
            plan,
            instance,
            cfg,
        })
    }

    /// Ships open node `id` to idle rank `w`, pruning against `incumbent`
    /// on the rank. Returns the exchange id and how the exchange completes.
    pub fn start(&mut self, w: usize, id: NodeId, incumbent: f64) -> LpResult<(u64, Completion)> {
        self.tree.begin_evaluation(id);
        let assignment = assignment(self.tree.node(id), incumbent);
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
        Ok((dispatch, completion))
    }

    /// Returns a lost in-flight subproblem to the open set so another rank
    /// can pick it up. The tree is the live checkpoint: the node's payload
    /// (bounds, warm basis) is still there, and the last materialized
    /// [`Checkpoint`] provably covers it.
    pub fn reassign(&mut self, node: NodeId) {
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

    /// The report of exchange `dispatch` reaches the coordinator — `None`
    /// when it is stale: the rank died with the report in transit (crash
    /// detection handles it) or the exchange was already written off. The
    /// first root report that branches leaves its basis in
    /// `stats.root_basis`, even if the root is then pruned here.
    pub fn delivered(&mut self, worker: usize, dispatch: u64) -> Option<NodeReport> {
        if !self.ranks[worker].alive() {
            return None;
        }
        let inf = self.ranks.take_exchange(worker, dispatch)?;
        let report = inf.report.expect("delivered exchanges carry a report");
        if inf.node == self.tree.root() && self.stats.root_basis.is_none() {
            self.stats.root_basis.clone_from(&report.basis);
        }
        Some(report)
    }

    /// The ack timer for a dropped exchange fires: write it off and
    /// reassign the subproblem — unless it was already resolved (crash
    /// detection got there first).
    pub fn ack_timeout(&mut self, worker: usize, dispatch: u64) {
        if let Some(inf) = self.ranks.take_exchange(worker, dispatch) {
            self.reassign(inf.node);
        }
    }

    /// A planned crash lands on the rank: device state and any in-flight
    /// evaluation are gone. The coordinator only *notices* at the returned
    /// heartbeat-timeout time (`None`: the rank was already dead).
    pub fn crash(&mut self, worker: usize) -> Option<f64> {
        if !self.ranks[worker].alive() {
            return None;
        }
        self.ranks.crash(worker, self.now);
        self.stats.faults.crashes += 1;
        let ts = self.now;
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank((worker + 1) as u32), "fault.crash", ts)
        });
        Some(self.now + self.chaos().heartbeat_timeout_ns)
    }

    /// The fault plan's settings; fault events only fire under a plan.
    pub fn chaos(&self) -> &ChaosConfig {
        self.plan.as_ref().expect("fault events imply a plan").cfg()
    }

    /// The exponential respawn backoff after `respawns` earlier respawns.
    pub fn respawn_backoff(&self, respawns: usize) -> f64 {
        self.chaos().respawn_backoff_ns * f64::from(1u32 << respawns.min(20))
    }

    /// Missing heartbeats reveal the crash: the rank's lost subproblem goes
    /// back to the open set.
    pub fn reassign_in_flight(&mut self, worker: usize) {
        if let Some(inf) = self.ranks.take(worker) {
            self.reassign(inf.node);
        }
    }

    /// Decides a detected rank failure: a respawn after exponential backoff
    /// — the last viable rank is always granted one so the search can
    /// terminate — or retirement when the rank's budget is spent.
    pub fn recover(&mut self, worker: usize) -> Recovery {
        let respawns = self.ranks[worker].respawns;
        if respawns < self.chaos().max_respawns || !self.ranks.others_viable(worker) {
            self.ranks.await_respawn(worker);
            Recovery::RespawnAt(self.now + self.respawn_backoff(respawns))
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
            Recovery::Retired
        }
    }

    /// The replacement rank comes up: fresh device, matrix re-uploaded,
    /// warm-start state gone.
    pub fn respawn(&mut self, worker: usize) -> LpResult<()> {
        self.lost_busy_ns[worker] += self.workers[worker].busy_ns;
        let mut fresh = Worker::for_rank(worker, &self.instance, &self.cfg)?;
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

    /// Whether the periodic snapshot is due, given the event just handled
    /// moved `stats.nodes` past `nodes_before`.
    pub fn checkpoint_due(&mut self, nodes_before: usize) -> bool {
        let nodes = self.stats.nodes;
        let due = nodes > nodes_before
            && self
                .cfg
                .checkpoint_every
                .is_some_and(|every| nodes >= self.last_checkpoint_at + every);
        if due {
            self.last_checkpoint_at = nodes;
        }
        due
    }

    /// Writes the periodic snapshot. Stop-the-world serialization: the
    /// clock advances while the snapshot is written (~1 GB/s).
    pub fn store_checkpoint(&mut self, snap: Checkpoint) {
        let (t0, dur) = (self.now, 2_000.0 + snap.bytes() as f64);
        let (ck_bytes, frontier) = (snap.bytes() as u64, snap.frontier.len() as u64);
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

    /// Closes the ledger at the end of a run: makespan, per-rank busy time,
    /// idle fraction, tree counters, and the communication, fault and
    /// per-rank device/LP series folded into the metrics registry.
    pub fn close_ledger(&mut self) {
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
        let (msgs, bytes, ckpts) = (
            self.stats.messages,
            self.stats.message_bytes,
            self.stats.checkpoints,
        );
        let m = &mut self.stats.metrics;
        m.incr(names::CLUSTER_MESSAGES, msgs as f64);
        m.incr(names::CLUSTER_BYTES, bytes as f64);
        m.incr(names::CLUSTER_CHECKPOINTS, ckpts as f64);
        if self.plan.is_some() {
            let f = self.stats.faults;
            m.incr(names::FAULT_CRASHES, f.crashes as f64);
            m.incr(names::FAULT_DROPS, f.drops as f64);
            m.incr(names::FAULT_DELAYS, f.delays as f64);
            m.incr(names::FAULT_STRAGGLES, f.straggles as f64);
            m.incr(names::RECOVERY_REASSIGNMENTS, f.reassignments as f64);
            m.incr(names::RECOVERY_RESPAWNS, f.respawns as f64);
            m.incr(names::RECOVERY_DEGRADED_RANKS, f.degraded_ranks as f64);
        }
        for w in &self.workers {
            m.merge(&w.metrics());
        }
    }
}
