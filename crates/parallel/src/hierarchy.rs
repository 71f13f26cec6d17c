//! Hierarchical supervisor-of-supervisors tree parallelism.
//!
//! The flat [`crate::supervisor`] is a star: every rank exchanges every
//! node with one coordinator, so root-link traffic grows linearly with the
//! rank count — exactly the scalability wall Section 2.3 attributes to
//! centrally coordinated branch and bound on leadership machines. This
//! module adds the paper's remedy, a *two-tier hierarchy*: ranks are
//! grouped under sub-supervisors (`cluster:256x16` = 256 ranks in groups
//! of 16), and the root exchanges only three kinds of aggregated,
//! frontier-independent messages with the sub-supervisors:
//!
//! * periodic fixed-size [`LoadSummary`]s (one per group per interval);
//! * incumbent flow — a group pushes an [`IncumbentUpdate`] up, the root
//!   broadcasts the improved *value* (never the point) back down;
//! * the steal protocol — an idle group asks the root for work, the root
//!   picks a victim from its summary view with a *seeded* policy, and the
//!   victim ships frontier subtrees over.
//!
//! Everything runs on the same simulated-ns DES clock as the flat
//! cluster, so the whole schedule — including steals — is a pure function
//! of (instance, config, seeds) and reruns are byte-identical.
//!
//! **Fencing invariant.** A subtree leaving its group is moved to
//! `Evaluating` *before* the transfer is scheduled, and only re-enters an
//! active set at its `HEventKind::SubtreeArrive` event. While in
//! transit it is invisible to dispatch, stealing, and pruning on *both*
//! sides, so no node can be evaluated by two groups or dropped between
//! them, regardless of how steal timing interleaves with crashes — the
//! merge order at the root is canonical because every exchange is guarded
//! by its dispatch id and every migration by its transfer id.

use crate::checkpoint::Checkpoint;
use crate::cluster::{Cluster, EventQueue, Recovery};
use crate::comm::{
    subtree_bytes, IncumbentUpdate, LoadSummary, NodeReport, INCUMBENT_BROADCAST_BYTES,
    STEAL_CONTROL_BYTES,
};
use crate::exchange::{children, Completion};
use crate::supervisor::{ParallelConfig, ParallelStats};
use gmip_core::search::{self, Incumbent, NodeOutcome};
use gmip_core::MipStatus;
use gmip_lp::{BoundChange, LpResult};
use gmip_problems::MipInstance;
use gmip_trace::{names, Event as TraceSpan, Track};
use gmip_tree::NodeId;
use std::collections::BTreeMap;

/// Hard ceiling on the simulated rank count. The DES keeps a simulated
/// device per rank; widths beyond this are almost certainly a typo
/// (`cluster:1000000x8`) and would OOM the simulation, so strategy parsing
/// rejects them up front.
pub const MAX_RANKS: usize = 4096;

/// Sub-supervisor → root load-summary cadence, simulated ns.
const SUMMARY_EVERY_NS: f64 = 25_000.0;

/// Topology and steal-policy knobs of the hierarchical cluster.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Ranks per sub-supervisor group (the last group may be narrower).
    pub fanout: usize,
    /// Seed of the root's steal-victim policy: identical seeds make
    /// identical steal decisions given identical summary views.
    pub steal_seed: u64,
    /// Most subtrees one steal grant may ship.
    pub steal_max: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            fanout: 8,
            steal_seed: 0x5EED,
            steal_max: 4,
        }
    }
}

/// Hierarchy-tier counters (the flat-tier counters live in
/// [`ParallelStats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierStats {
    /// Sub-supervisor groups.
    pub groups: usize,
    /// Configured group width.
    pub fanout: usize,
    /// Messages crossing the root ↔ sub-supervisor links. The hierarchy's
    /// whole point: this grows with the *group* count and the summary
    /// cadence, not with the node count × rank count of the flat star.
    pub root_messages: usize,
    /// Bytes crossing the root links.
    pub root_message_bytes: usize,
    /// Load summaries delivered to the root.
    pub summaries: usize,
    /// Incumbent value broadcasts fanned out by the root.
    pub incumbent_broadcasts: usize,
    /// Steal orders the root granted.
    pub steals: usize,
    /// Frontier subtrees shipped by those grants.
    pub stolen_subtrees: usize,
    /// Steal requests the root denied (no viable victim).
    pub steal_denied: usize,
    /// Subtrees that completed a migration (steal, spread handoff, or
    /// group reassignment) and re-entered an active set.
    pub transit_arrivals: usize,
    /// Determinism audit: how often the most-evaluated node was merged.
    /// Exactly 1 on a fault-free run — steals never duplicate work.
    pub max_evaluations_per_node: u32,
}

/// Result of a hierarchical solve: the flat result shape plus the
/// hierarchy-tier counters.
#[derive(Debug)]
pub struct HierResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective (source sense; NaN if none).
    pub objective: f64,
    /// Incumbent point.
    pub x: Vec<f64>,
    /// Flat-tier statistics (makespan, nodes, messages, faults, tree).
    pub stats: ParallelStats,
    /// Hierarchy-tier statistics.
    pub hier: HierStats,
    /// Snapshots captured during the run (if configured).
    pub snapshots: Vec<Checkpoint>,
}

/// What a scheduled hierarchy DES event means when it fires. `entity` on
/// the event is a rank id for the rank-tier kinds and a group id for the
/// group-tier kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HEventKind {
    /// A worker's report reaches its sub-supervisor (and the merge).
    Deliver {
        /// Exchange id; stale deliveries are ignored.
        dispatch: u64,
    },
    /// The sub-supervisor gave up waiting for an ack on this exchange.
    AckTimeout {
        /// Exchange id it guards.
        dispatch: u64,
    },
    /// A planned fault kills the rank.
    RankCrash,
    /// Missing heartbeats reveal the dead rank to its sub-supervisor.
    RankDetect,
    /// The rank's replacement comes up.
    RankRespawn,
    /// A planned fault kills a whole sub-supervisor.
    SubCrash,
    /// Missing heartbeats reveal the dead sub-supervisor to the root.
    SubDetect,
    /// The sub-supervisor's replacement comes up (its group re-acquires
    /// work by stealing).
    SubRespawn,
    /// A group's summary timer fires (reschedules itself).
    SummaryDue,
    /// A group's load summary reaches the root.
    SummaryArrive {
        /// Open nodes the group reported.
        open: usize,
        /// Best open bound it reported.
        bound: f64,
    },
    /// A group's incumbent update reaches the root.
    IncumbentAtRoot {
        /// Key into the pending-update side table.
        xfer: u64,
    },
    /// The root's incumbent value broadcast reaches a group.
    IncumbentAtGroup {
        /// The broadcast internal-sense value.
        value: f64,
    },
    /// An idle group's steal request reaches the root.
    StealRequestAtRoot {
        /// The requesting group.
        thief: usize,
    },
    /// The root's denial reaches the requesting group.
    StealDenyAtGroup,
    /// The root's steal order reaches the victim group.
    StealOrderAtVictim {
        /// Where the victim must ship subtrees.
        thief: usize,
    },
    /// A migrating subtree batch arrives at its destination group.
    SubtreeArrive {
        /// Key into the in-transit side table.
        xfer: u64,
    },
}

/// Liveness + protocol state of one sub-supervisor group.
#[derive(Debug, Clone)]
struct GroupState {
    /// The sub-supervisor process is up.
    alive: bool,
    respawn_pending: bool,
    respawns: usize,
    down_since: f64,
    /// Best incumbent *value* this group knows (internal maximize sense).
    /// Groups never hold the point — only the root does.
    incumbent: f64,
    /// A steal request or granted transfer is outstanding.
    steal_pending: bool,
    /// No new steal request before this time (set by a denial).
    steal_backoff_until: f64,
    /// Consecutive denials since the last granted steal; drives the
    /// exponential request backoff so an idle group doesn't spam the root
    /// for the whole tail of the solve.
    deny_streak: u32,
    /// The `(open, best_bound)` the group last shipped to the root.
    /// Summaries are delta-compressed: an unchanged load report is not
    /// resent, so a drained group goes silent after one final `open = 0`.
    last_summary: Option<(usize, f64)>,
}

impl GroupState {
    fn fresh() -> Self {
        Self {
            alive: true,
            respawn_pending: false,
            respawns: 0,
            down_since: 0.0,
            incumbent: f64::NEG_INFINITY,
            steal_pending: false,
            steal_backoff_until: 0.0,
            deny_streak: 0,
            last_summary: None,
        }
    }
}

/// SplitMix64: the root's stateless steal-victim hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The two-tier discrete-event supervisor.
#[derive(Debug)]
pub struct HierSupervisor {
    /// The ranks, the tree, the clock and the ledger.
    c: Cluster,
    hcfg: HierarchyConfig,
    groups: usize,
    gstate: Vec<GroupState>,
    /// The root's (lagged) view of each group: last summarized
    /// (open, best bound).
    root_view: Vec<(usize, f64)>,
    /// Scheduled events; `entity` is a rank id for the rank-tier kinds and
    /// a group id for the group-tier kinds.
    events: EventQueue<HEventKind>,
    next_xfer: u64,
    /// The only place a feasible *point* lives above the workers, and the
    /// simulated time the root first held one (E12's
    /// time-to-first-incumbent; the `heur.first_incumbent_ns` gauge).
    root_incumbent: Incumbent,
    /// Migrating subtree batches: xfer id → (destination group, nodes).
    in_transit: BTreeMap<u64, (usize, Vec<NodeId>)>,
    /// Batches in transit toward each group.
    inbound: Vec<usize>,
    /// Incumbent updates on the wire: xfer id → (from group, value, point).
    inc_updates: BTreeMap<u64, (usize, f64, Vec<f64>)>,
    /// Group → root incumbent updates not yet merged; termination must
    /// wait for them or the final objective could be stale.
    pending_root_updates: usize,
    steal_counter: u64,
    /// Determinism audit: merges per node id.
    eval_counts: Vec<u32>,
    hier: HierStats,
}

impl HierSupervisor {
    /// Builds the hierarchy and schedules planned faults plus the first
    /// round of summary timers.
    pub fn new(
        instance: MipInstance,
        cfg: ParallelConfig,
        hcfg: HierarchyConfig,
    ) -> LpResult<Self> {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(hcfg.fanout >= 1, "need at least one rank per group");
        assert!(
            cfg.workers <= MAX_RANKS,
            "rank count {} exceeds MAX_RANKS {MAX_RANKS}",
            cfg.workers
        );
        let groups = cfg.workers.div_ceil(hcfg.fanout);
        let mut sup = Self {
            c: Cluster::new(instance, cfg)?,
            gstate: vec![GroupState::fresh(); groups],
            root_view: vec![(0, f64::NEG_INFINITY); groups],
            groups,
            events: EventQueue::new(),
            next_xfer: 0,
            root_incumbent: Incumbent::default(),
            in_transit: BTreeMap::new(),
            inbound: vec![0; groups],
            inc_updates: BTreeMap::new(),
            pending_root_updates: 0,
            steal_counter: 0,
            eval_counts: Vec::new(),
            hier: HierStats {
                groups,
                fanout: hcfg.fanout,
                ..HierStats::default()
            },
            hcfg,
        };
        if let Some(plan) = &sup.c.plan {
            let chaos = plan.cfg();
            for &(time, worker) in plan.crash_schedule() {
                sup.events.push(time, worker, HEventKind::RankCrash);
            }
            for (time, group) in plan.sub_crash_schedule(groups) {
                sup.events.push(time, group, HEventKind::SubCrash);
            }
            if let Some(g) = chaos.kill_group.filter(|&g| g < groups) {
                let lo = g * sup.hcfg.fanout;
                for w in lo..(lo + sup.hcfg.fanout).min(sup.c.cfg.workers) {
                    sup.events
                        .push(chaos.kill_group_at_ns, w, HEventKind::RankCrash);
                }
            }
        }
        for g in 0..groups {
            sup.events.push(SUMMARY_EVERY_NS, g, HEventKind::SummaryDue);
        }
        // Warm-start entry point: a pooled solution seeds the root *and*
        // every group's pruning value, exactly like the flat cluster.
        if let Some(seed) = &sup.c.cfg.warm.seed {
            if sup.root_incumbent.seed(&sup.c.rules, &sup.c.instance, seed) {
                for g in &mut sup.gstate {
                    g.incumbent = sup.root_incumbent.value();
                }
                sup.c.stats.metrics.incr(names::BB_WARM_SEEDS, 1.0);
            }
        }
        Ok(sup)
    }

    fn group_of(&self, rank: usize) -> usize {
        rank / self.hcfg.fanout
    }

    fn ranks_of(&self, group: usize) -> std::ops::Range<usize> {
        let lo = group * self.hcfg.fanout;
        lo..((group + 1) * self.hcfg.fanout).min(self.c.cfg.workers)
    }

    fn root_slow(&self) -> f64 {
        self.c
            .plan
            .as_ref()
            .map(|p| p.cfg().root_slow_factor)
            .unwrap_or(1.0)
    }

    /// Charges one message on a root ↔ sub-supervisor link and returns its
    /// transfer time. The root link is a *reliable* control channel (it
    /// never consumes the per-message fate stream, keeping the worker-tier
    /// fates aligned with the flat cluster) but a chaos plan can straggle
    /// it via `root_slow_factor`.
    fn ship_root(&mut self, bytes: usize) -> f64 {
        self.hier.root_messages += 1;
        self.hier.root_message_bytes += bytes;
        self.c.stats.messages += 1;
        self.c.stats.message_bytes += bytes;
        self.c.cfg.network.transfer_ns(bytes) * self.root_slow()
    }

    /// Moves `nodes` (already `Evaluating`) onto the wire toward group
    /// `dest` over `hops` root-link messages, retagging their partition.
    fn ship_subtrees(&mut self, dest: usize, nodes: Vec<NodeId>, hops: usize) {
        debug_assert!(!nodes.is_empty());
        let mut bytes = 0usize;
        for &id in &nodes {
            self.c.tree.data_mut(id).partition = dest;
            self.c.tree.set_group(id, dest);
            bytes += subtree_bytes(&self.c.tree.node(id).data.bounds);
        }
        let mut transfer = 0.0;
        for _ in 0..hops {
            transfer += self.ship_root(bytes);
        }
        let xfer = self.next_xfer;
        self.next_xfer += 1;
        self.in_transit.insert(xfer, (dest, nodes));
        self.inbound[dest] += 1;
        self.events.push(
            self.c.now + transfer,
            dest,
            HEventKind::SubtreeArrive { xfer },
        );
    }

    /// Dispatches work inside every group that has both open nodes and an
    /// idle rank, then lets starved groups ask the root for steals.
    fn dispatch(&mut self) -> LpResult<()> {
        for g in 0..self.groups {
            if !self.gstate[g].alive || self.c.tree.open_in(g) == 0 {
                continue;
            }
            let ranks = self.ranks_of(g);
            if self.c.ranks.idle_in(ranks.clone()).next().is_none() {
                continue;
            }
            // Each start moves one node from the group's open set to its
            // in-flight count, so the sum is invariant across the round.
            let ramping = self.c.cfg.ramp_up
                && self.c.tree.open_in(g) + self.c.ranks.outstanding_in(ranks.clone())
                    < ranks.len();
            let mut from = ranks.start;
            while let Some(w) = self.c.ranks.next_idle(from).filter(|&w| w < ranks.end) {
                from = w + 1;
                if self.c.workers[w].busy_until > self.c.now {
                    continue; // still computing an exchange that was written off
                }
                let pick = if ramping {
                    // Breadth-first widening inside the group: fewer open
                    // nodes than ranks, so this scan is short.
                    self.c
                        .tree
                        .iter_in(g)
                        .min_by_key(|&id| (self.c.tree.node(id).depth, id))
                } else {
                    self.c.tree.best_in(g)
                };
                let Some(id) = pick else { break };
                self.start(g, w, id)?;
            }
        }
        // A group whose frontier ran dry while it still has an idle rank
        // asks the root for work — unless a request or an inbound transfer
        // is already pending, or it is inside a denial backoff.
        if self.groups >= 2 {
            for g in 0..self.groups {
                let gs = &self.gstate[g];
                if !gs.alive
                    || gs.steal_pending
                    || self.c.now < gs.steal_backoff_until
                    || self.c.tree.open_in(g) > 0
                    || self.inbound[g] > 0
                {
                    continue;
                }
                let idle = self
                    .c
                    .ranks
                    .idle_in(self.ranks_of(g))
                    .any(|w| self.c.workers[w].busy_until <= self.c.now);
                if !idle {
                    continue;
                }
                self.gstate[g].steal_pending = true;
                let transfer = self.ship_root(STEAL_CONTROL_BYTES);
                let ts = self.c.now;
                gmip_trace::record(|| {
                    TraceSpan::instant(Track::cluster_rank(0), names::SPAN_HIER_STEAL_REQUEST, ts)
                        .arg("thief", g as u64)
                });
                self.events.push(
                    self.c.now + transfer,
                    0,
                    HEventKind::StealRequestAtRoot { thief: g },
                );
            }
        }
        Ok(())
    }

    /// Ships group `g`'s open node `id` to its idle rank `w` and schedules
    /// what comes back (intra-group: the unmodified network model, the
    /// unmodified fate stream).
    fn start(&mut self, g: usize, w: usize, id: NodeId) -> LpResult<()> {
        let (dispatch, completion) = self.c.start(w, id, self.gstate[g].incumbent)?;
        match completion {
            Completion::Deliver(at) => self.events.push(at, w, HEventKind::Deliver { dispatch }),
            Completion::AckTimeout(at) => {
                self.events.push(at, w, HEventKind::AckTimeout { dispatch })
            }
        }
        Ok(())
    }

    /// A group whose ranks are *all* permanently retired can never make
    /// progress again (sub-supervisor respawns are always granted, rank
    /// retirements are forever): routing work there would deadlock the
    /// solve, so every migration path checks this first.
    fn group_retired(&self, g: usize) -> bool {
        self.ranks_of(g).all(|w| self.c.ranks[w].retired())
    }

    fn on_rank_detect(&mut self, worker: usize) {
        self.c.reassign_in_flight(worker);
        self.c.last_checkpoint = Some(self.snapshot());
        match self.c.recover(worker) {
            Recovery::RespawnAt(at) => self.events.push(at, worker, HEventKind::RankRespawn),
            Recovery::Retired => {
                // If that retired the group's last rank, its frontier would
                // starve forever: ship it to groups that still have ranks.
                let g = self.group_of(worker);
                if self.group_retired(g) {
                    self.evacuate_group(g);
                }
            }
        }
    }

    /// Ships every open subproblem group `g` owns (plus any written-off
    /// in-flight work) round-robin to groups that can still make progress.
    /// Falls back to leaving the nodes in place when no such group exists —
    /// the pending respawn will revive `g` and its frontier with it.
    fn evacuate_group(&mut self, g: usize) {
        // Write off the group's outstanding exchanges first: the subtree
        // is the unit of recovery, the exchange results are gone.
        let mut lost: Vec<NodeId> = Vec::new();
        for w in self.ranks_of(g) {
            if let Some(inf) = self.c.ranks.take(w) {
                lost.push(inf.node);
            }
        }
        // Active nodes enter transit through the same fence as steals.
        let written_off = lost.len();
        lost.extend(self.c.tree.iter_in(g));
        for &id in &lost[written_off..] {
            self.c.tree.begin_evaluation(id);
        }
        lost.sort_unstable();
        if lost.is_empty() {
            return;
        }
        // Any group that still has a rank qualifies: a dead sub-supervisor
        // will be respawned (always granted), and the arrival path re-routes
        // if it is still down when the batch lands.
        let dests: Vec<usize> = (0..self.groups)
            .filter(|&o| o != g && !self.group_retired(o))
            .collect();
        if dests.is_empty() {
            // Nobody can adopt the work: reopen locally and wait for the
            // group's own recovery.
            for id in lost {
                self.c.reassign(id);
            }
            return;
        }
        self.c.stats.faults.group_reassigned_subtrees += lost.len();
        let (ts, n) = (self.c.now, lost.len() as u64);
        gmip_trace::record(|| {
            TraceSpan::instant(
                Track::cluster_rank(0),
                names::SPAN_RECOVERY_GROUP_REASSIGN,
                ts,
            )
            .arg("group", g as u64)
            .arg("subtrees", n)
        });
        let mut batches: Vec<Vec<NodeId>> = vec![Vec::new(); dests.len()];
        for (i, id) in lost.into_iter().enumerate() {
            batches[i % dests.len()].push(id);
        }
        for (dest, batch) in dests.into_iter().zip(batches) {
            if !batch.is_empty() {
                // One hop: the root already holds the covering checkpoint.
                self.ship_subtrees(dest, batch, 1);
            }
        }
    }

    fn on_sub_crash(&mut self, g: usize) {
        if !self.gstate[g].alive {
            return; // the planned crash hit an already-dead sub-supervisor
        }
        self.gstate[g].alive = false;
        self.gstate[g].down_since = self.c.now;
        self.c.stats.faults.sub_crashes += 1;
        let ts = self.c.now;
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank(0), names::SPAN_FAULT_SUB_CRASH, ts)
                .arg("group", g as u64)
        });
        let hb = self.c.chaos().heartbeat_timeout_ns;
        self.events.push(self.c.now + hb, g, HEventKind::SubDetect);
    }

    /// The root notices the dead sub-supervisor: every subtree the group
    /// owned — open or in flight under it — is shipped to survivors, and a
    /// replacement sub-supervisor is scheduled (always granted: a group is
    /// infrastructure, not a device, so it has no retirement path; it
    /// comes back empty and re-acquires work by stealing).
    fn on_sub_detect(&mut self, g: usize) {
        self.c.last_checkpoint = Some(self.snapshot());
        self.root_view[g] = (0, f64::NEG_INFINITY);
        self.gstate[g].steal_pending = false;
        self.evacuate_group(g);
        let backoff = self.c.respawn_backoff(self.gstate[g].respawns);
        self.gstate[g].respawn_pending = true;
        self.events
            .push(self.c.now + backoff, g, HEventKind::SubRespawn);
    }

    fn on_sub_respawn(&mut self, g: usize) {
        self.gstate[g].respawn_pending = false;
        self.gstate[g].alive = true;
        self.gstate[g].respawns += 1;
        self.gstate[g].deny_streak = 0;
        // The replacement must re-announce its (empty) load: drop the
        // delta-compression memory so the next due tick ships a summary.
        self.gstate[g].last_summary = None;
        self.c.stats.faults.sub_respawns += 1;
        // The replacement knows nothing: it re-learns the incumbent from
        // the root's next broadcast — but the root can tell it the current
        // value right here, in the respawn handshake.
        if self.root_incumbent.is_some() {
            self.gstate[g].incumbent = self.root_incumbent.value();
        }
        let (t0, dur) = (
            self.gstate[g].down_since,
            self.c.now - self.gstate[g].down_since,
        );
        gmip_trace::record(|| {
            TraceSpan::complete(Track::cluster_rank(0), "sub.down", dur, t0).arg("group", g as u64)
        });
        let ts = self.c.now;
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank(0), names::SPAN_RECOVERY_SUB_RESPAWN, ts)
                .arg("group", g as u64)
        });
    }

    fn on_summary_due(&mut self, g: usize) {
        // The timer always re-arms, even through an outage — the group's
        // replacement resumes the cadence without root involvement.
        self.events
            .push(self.c.now + SUMMARY_EVERY_NS, g, HEventKind::SummaryDue);
        if !self.gstate[g].alive {
            return;
        }
        let open = self.c.tree.open_in(g);
        let bound = self.c.tree.best_bound_in(g).unwrap_or(f64::NEG_INFINITY);
        // Delta compression: ship only when the load report changed since
        // the last one. Idle groups fall silent (the root's view of them is
        // already exact), so root traffic follows *activity*, not wall time.
        if self.gstate[g].last_summary == Some((open, bound)) {
            return;
        }
        self.gstate[g].last_summary = Some((open, bound));
        let summary = LoadSummary {
            group: g,
            open,
            best_bound: bound,
        };
        let transfer = self.ship_root(summary.bytes());
        self.events.push(
            self.c.now + transfer,
            g,
            HEventKind::SummaryArrive { open, bound },
        );
    }

    fn on_summary_arrive(&mut self, g: usize, open: usize, bound: f64) {
        self.hier.summaries += 1;
        self.root_view[g] = (open, bound);
        let (ts, o) = (self.c.now, open as u64);
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank(0), names::SPAN_HIER_SUMMARY, ts)
                .arg("group", g as u64)
                .arg("open", o)
        });
    }

    fn on_incumbent_at_root(&mut self, xfer: u64) {
        self.pending_root_updates -= 1;
        let Some((from, value, x)) = self.inc_updates.remove(&xfer) else {
            return;
        };
        if value > self.root_incumbent.value() {
            let ts = self.c.now;
            self.root_incumbent.set(value, x, || ts);
            let obj = self.c.rules.to_source(value);
            gmip_trace::record(|| {
                TraceSpan::instant(Track::cluster_rank(0), names::SPAN_HIER_INCUMBENT, ts)
                    .arg("objective", obj)
                    .arg("from", from as u64)
            });
            // Fan the improved *value* out to every other live group.
            for g in 0..self.groups {
                if g == from || !self.gstate[g].alive {
                    continue;
                }
                self.hier.incumbent_broadcasts += 1;
                let transfer = self.ship_root(INCUMBENT_BROADCAST_BYTES);
                self.events.push(
                    self.c.now + transfer,
                    g,
                    HEventKind::IncumbentAtGroup { value },
                );
            }
        }
    }

    fn on_incumbent_at_group(&mut self, g: usize, value: f64) {
        if !self.gstate[g].alive || value <= self.gstate[g].incumbent {
            return;
        }
        self.gstate[g].incumbent = value;
        // Group-scoped pruning: only the frontier this group owns — other
        // groups prune when their own broadcast arrives, so pruning power
        // honestly lags the root-link latency.
        let tol = self.c.rules.prune_tol;
        self.c.tree.prune_dominated_in(g, value, tol);
    }

    /// The root arbitrates a steal: pick a victim from the summary view
    /// with the seeded policy, or deny.
    fn on_steal_request(&mut self, thief: usize) {
        // The two most-loaded viable victims in the root's summary view
        // (ties to the lower group id).
        let mut top: [Option<usize>; 2] = [None; 2];
        for g in 0..self.groups {
            if g == thief
                || !self.gstate[g].alive
                || self.group_retired(g)
                || self.root_view[g].0 < 2
            {
                continue;
            }
            let busier = |than: Option<usize>| {
                than.is_none_or(|t| self.root_view[g].0 > self.root_view[t].0)
            };
            if busier(top[0]) {
                top = [Some(g), top[0]];
            } else if busier(top[1]) {
                top[1] = Some(g);
            }
        }
        let cands = top.iter().flatten().count();
        if cands == 0 || !self.gstate[thief].alive {
            self.deny_steal(thief);
            return;
        }
        // Seeded choice between them: determinism with a pinch of
        // decorrelation so thieves don't all mob one victim.
        let pick = splitmix64(self.hcfg.steal_seed ^ self.steal_counter) as usize % cands;
        self.steal_counter += 1;
        let victim = top[pick].expect("pick < cands");
        let transfer = self.ship_root(STEAL_CONTROL_BYTES);
        let (ts, v) = (self.c.now, victim as u64);
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank(0), names::SPAN_HIER_STEAL_GRANT, ts)
                .arg("thief", thief as u64)
                .arg("victim", v)
        });
        self.events.push(
            self.c.now + transfer,
            victim,
            HEventKind::StealOrderAtVictim { thief },
        );
    }

    fn deny_steal(&mut self, thief: usize) {
        let transfer = self.ship_root(STEAL_CONTROL_BYTES);
        self.events
            .push(self.c.now + transfer, thief, HEventKind::StealDenyAtGroup);
    }

    fn on_steal_deny(&mut self, g: usize) {
        self.gstate[g].steal_pending = false;
        self.hier.steal_denied += 1;
        // Exponential backoff on consecutive denials (capped at 1024x the
        // summary period): a starved group probes the root a logarithmic
        // number of times per idle stretch instead of once per tick.
        let shift = self.gstate[g].deny_streak.min(10);
        self.gstate[g].steal_backoff_until = self.c.now + SUMMARY_EVERY_NS * (1u64 << shift) as f64;
        self.gstate[g].deny_streak = self.gstate[g].deny_streak.saturating_add(1);
        let ts = self.c.now;
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank(0), names::SPAN_HIER_STEAL_DENY, ts)
                .arg("thief", g as u64)
        });
    }

    /// The steal order lands on the victim: ship up to `steal_max`
    /// shallowest frontier subtrees to the thief (shallow nodes root the
    /// largest unexplored subtrees, the classic steal-half heuristic), or
    /// bounce a denial if the summary view was stale.
    fn on_steal_order(&mut self, victim: usize, thief: usize) {
        if !self.gstate[victim].alive {
            self.deny_steal(thief);
            return;
        }
        if self.c.tree.open_in(victim) < 2 {
            self.deny_steal(thief);
            return;
        }
        let mut batch: Vec<NodeId> = self.c.tree.iter_in(victim).collect();
        batch.sort_unstable_by_key(|&id| (self.c.tree.node(id).depth, id));
        batch.truncate((batch.len() / 2).max(1).min(self.hcfg.steal_max));
        for &id in &batch {
            self.c.tree.begin_evaluation(id); // the fence: out of the active set
        }
        self.hier.steals += 1;
        self.hier.stolen_subtrees += batch.len();
        let (ts, k) = (self.c.now, batch.len() as u64);
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank(0), names::SPAN_HIER_HANDOFF, ts)
                .arg("from", victim as u64)
                .arg("to", thief as u64)
                .arg("subtrees", k)
        });
        // Two hops: victim → root → thief.
        self.ship_subtrees(thief, batch, 2);
    }

    fn on_subtree_arrive(&mut self, g: usize, xfer: u64) {
        let Some((dest, nodes)) = self.in_transit.remove(&xfer) else {
            return;
        };
        debug_assert_eq!(dest, g);
        self.inbound[g] -= 1;
        if !self.gstate[g].alive || self.group_retired(g) {
            // The destination died (or lost its last rank for good) while
            // the batch was on the wire: re-route to the first group that
            // can take it, or hold for the respawn.
            let alt = (0..self.groups)
                .find(|&o| o != g && self.gstate[o].alive && !self.group_retired(o))
                .or_else(|| (0..self.groups).find(|&o| o != g && !self.group_retired(o)));
            match alt {
                Some(o) => {
                    self.ship_subtrees(o, nodes, 1);
                }
                None => {
                    // Whole hierarchy dark: park the batch until the
                    // respawn backoff has revived someone.
                    let xfer2 = self.next_xfer;
                    self.next_xfer += 1;
                    self.in_transit.insert(xfer2, (g, nodes));
                    self.inbound[g] += 1;
                    self.events.push(
                        self.c.now + SUMMARY_EVERY_NS,
                        g,
                        HEventKind::SubtreeArrive { xfer: xfer2 },
                    );
                }
            }
            return;
        }
        self.gstate[g].steal_pending = false;
        self.gstate[g].deny_streak = 0; // fed: probe eagerly again next time
        self.hier.transit_arrivals += nodes.len();
        for id in nodes {
            debug_assert_eq!(self.c.tree.node(id).group, g);
            self.c.tree.reopen(id);
        }
    }

    /// Group `g`'s incumbent sink: an improving integer-feasible point
    /// tightens the group's own pruning value now (scoped prune — the rest
    /// of the cluster prunes when the root's broadcast reaches it) and is
    /// pushed, value and point, to the root.
    fn offer(&mut self, g: usize, value: f64, x: Vec<f64>) {
        if value > self.gstate[g].incumbent {
            self.gstate[g].incumbent = value;
            let upd = IncumbentUpdate {
                value,
                x: self.c.rules.rounded(x),
            };
            self.c
                .tree
                .prune_dominated_in(g, value, self.c.rules.prune_tol);
            let transfer = self.ship_root(upd.bytes());
            let xfer = self.next_xfer;
            self.next_xfer += 1;
            self.inc_updates.insert(xfer, (g, value, upd.x));
            self.pending_root_updates += 1;
            self.events.push(
                self.c.now + transfer,
                0,
                HEventKind::IncumbentAtRoot { xfer },
            );
        }
    }

    /// Where the children of a node of `partition` at `depth` go: spread
    /// over *groups* by binary fan-out near the root, then inherit — once
    /// the frontier is wide enough every group owns a subtree and
    /// intra-group dispatch takes over. A permanently retired group must
    /// never be a target — fall back to the parent's group, or to any group
    /// that still has ranks (last-rank immunity guarantees one exists).
    fn placement(&self, partition: usize, depth: usize) -> [usize; 2] {
        let route = |p: usize| {
            if !self.group_retired(p) {
                p
            } else if !self.group_retired(partition) {
                partition
            } else {
                (0..self.groups)
                    .find(|&o| !self.group_retired(o))
                    .expect("last-rank immunity: some group has a rank")
            }
        };
        if depth < 63 && (1usize << (depth + 1)) <= self.groups * 2 {
            [
                route((partition * 2) % self.groups),
                route((partition * 2 + 1) % self.groups),
            ]
        } else {
            [route(partition); 2]
        }
    }

    /// Processes one merged report (counted toward the determinism audit).
    fn process(&mut self, worker: usize, report: NodeReport) {
        self.c.stats.nodes += 1;
        self.c.stats.lp_iterations += report.lp_iterations;
        let id = report.node_id;
        if id >= self.eval_counts.len() {
            self.eval_counts.resize(id + 1, 0);
        }
        self.eval_counts[id] += 1;
        let g = self.group_of(worker);
        // A fix-and-propagate candidate rides along with any outcome and
        // enters the group's incumbent path before the node itself is
        // settled.
        if let Some((value, x)) = report.heur {
            self.offer(g, value, x);
        }
        let now = self.gstate[g].incumbent;
        match search::settle(&self.c.rules, &mut self.c.tree, id, report.outcome, now) {
            NodeOutcome::Integral { bound, x } => self.offer(g, bound, x),
            NodeOutcome::Branch { bound, decision } => {
                let parent = self.c.tree.node(id);
                let mut children = children(&self.c.instance, parent, decision, report.basis);
                let parts = self.placement(parent.data.partition, parent.depth);
                for (child, part) in children.iter_mut().zip(parts) {
                    child.1.partition = part;
                }
                let ids = self.c.tree.branch(id, bound, children);
                // A child spread to a *different* group physically travels
                // there: through the same in-transit fence as a steal, over
                // two root-link hops. Same-group children are live at once.
                for (cid, dest) in ids.into_iter().zip(parts) {
                    if dest != g {
                        self.c.tree.begin_evaluation(cid);
                        self.ship_subtrees(dest, vec![cid], 2);
                    }
                }
            }
            NodeOutcome::Infeasible | NodeOutcome::Pruned { .. } => {}
        }
    }

    /// The cluster-wide consistent snapshot, materialized the hierarchical
    /// way: one part per group (the subproblems it owns, open or in
    /// flight) merged with the root's incumbent part.
    pub fn snapshot(&self) -> Checkpoint {
        let mut parts: Vec<Checkpoint> = (0..self.groups)
            .map(|g| {
                let frontier: Vec<Vec<BoundChange>> = self
                    .c
                    .tree
                    .iter()
                    .filter(|n| n.state.is_open() && n.group == g)
                    .map(|n| n.data.bounds.clone())
                    .collect();
                Checkpoint::new(frontier, None)
            })
            .collect();
        parts.push(Checkpoint::new(
            Vec::new(),
            self.root_incumbent.best().cloned(),
        ));
        Checkpoint::merge(parts)
    }

    /// Runs to completion (or node limit); consumes the supervisor.
    pub fn run(mut self) -> LpResult<HierResult> {
        // Breaks with whether the node limit cut the search short.
        let stopped = loop {
            if self.c.stats.nodes >= self.c.cfg.node_limit {
                break true;
            }
            self.dispatch()?;
            // Done only when nothing is open, in flight, in transit, *or*
            // still climbing to the root — terminating before the last
            // incumbent update lands would report a stale objective.
            if !self.c.tree.has_active()
                && self.c.ranks.outstanding() == 0
                && self.in_transit.is_empty()
                && self.pending_root_updates == 0
            {
                break false;
            }
            let Some(ev) = self.events.pop() else {
                break false;
            };
            self.c.now = self.c.now.max(ev.time);
            let nodes_before = self.c.stats.nodes;
            let entity = ev.entity;
            match ev.kind {
                // A report whose sub-supervisor died in the meantime is lost
                // with it: the group's evacuation reassigns the node.
                HEventKind::Deliver { dispatch } if self.gstate[self.group_of(entity)].alive => {
                    if let Some(report) = self.c.delivered(entity, dispatch) {
                        self.process(entity, report);
                    }
                }
                HEventKind::Deliver { .. } => {}
                HEventKind::AckTimeout { dispatch } => self.c.ack_timeout(entity, dispatch),
                HEventKind::RankCrash => {
                    if let Some(at) = self.c.crash(entity) {
                        self.events.push(at, entity, HEventKind::RankDetect);
                    }
                }
                HEventKind::RankDetect => self.on_rank_detect(entity),
                HEventKind::RankRespawn => self.c.respawn(entity)?,
                HEventKind::SubCrash => self.on_sub_crash(entity),
                HEventKind::SubDetect => self.on_sub_detect(entity),
                HEventKind::SubRespawn => self.on_sub_respawn(entity),
                HEventKind::SummaryDue => self.on_summary_due(entity),
                HEventKind::SummaryArrive { open, bound } => {
                    self.on_summary_arrive(entity, open, bound)
                }
                HEventKind::IncumbentAtRoot { xfer } => self.on_incumbent_at_root(xfer),
                HEventKind::IncumbentAtGroup { value } => self.on_incumbent_at_group(entity, value),
                HEventKind::StealRequestAtRoot { thief } => self.on_steal_request(thief),
                HEventKind::StealDenyAtGroup => self.on_steal_deny(entity),
                HEventKind::StealOrderAtVictim { thief } => self.on_steal_order(entity, thief),
                HEventKind::SubtreeArrive { xfer } => self.on_subtree_arrive(entity, xfer),
            }
            if self.c.checkpoint_due(nodes_before) {
                let snap = self.snapshot();
                self.c.store_checkpoint(snap);
            }
        };
        self.c.close_ledger();
        self.hier.max_evaluations_per_node = self.eval_counts.iter().copied().max().unwrap_or(0);
        let (h, f) = (&self.hier, self.c.stats.faults);
        let m = &mut self.c.stats.metrics;
        m.set_gauge(names::HIER_GROUPS, h.groups as f64);
        m.incr(names::HIER_ROOT_MESSAGES, h.root_messages as f64);
        m.incr(names::HIER_ROOT_BYTES, h.root_message_bytes as f64);
        m.incr(names::HIER_SUMMARIES, h.summaries as f64);
        m.incr(
            names::HIER_INCUMBENT_BROADCASTS,
            h.incumbent_broadcasts as f64,
        );
        m.incr(names::HIER_STEALS, h.steals as f64);
        m.incr(names::HIER_STEAL_SUBTREES, h.stolen_subtrees as f64);
        m.incr(names::HIER_STEAL_DENIED, h.steal_denied as f64);
        m.incr(names::HIER_TRANSIT_ARRIVALS, h.transit_arrivals as f64);
        if self.c.plan.is_some() {
            m.incr(names::FAULT_SUB_CRASHES, f.sub_crashes as f64);
            m.incr(names::RECOVERY_SUB_RESPAWNS, f.sub_respawns as f64);
            m.incr(
                names::RECOVERY_GROUP_REASSIGNED,
                f.group_reassigned_subtrees as f64,
            );
        }
        if let Some(t) = self.root_incumbent.first_ns() {
            m.set_gauge(names::HEUR_FIRST_INCUMBENT_NS, t);
        }
        let done = self.c.rules.finish(self.root_incumbent, stopped);
        Ok(HierResult {
            status: done.status,
            objective: done.objective,
            x: done.x,
            stats: self.c.stats,
            hier: self.hier,
            snapshots: self.c.snapshots,
        })
    }
}

/// Convenience: solve an instance on a simulated hierarchical cluster.
pub fn solve_hierarchical(
    instance: &MipInstance,
    cfg: ParallelConfig,
    hcfg: HierarchyConfig,
) -> LpResult<HierResult> {
    HierSupervisor::new(instance.clone(), cfg, hcfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::supervisor::{solve_parallel, tests::cfg};
    use gmip_problems::catalog::{infeasible_instance, textbook_mip};
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

    fn hcfg(fanout: usize) -> HierarchyConfig {
        HierarchyConfig {
            fanout,
            ..Default::default()
        }
    }

    #[test]
    fn hierarchical_matches_brute_force() {
        for seed in 0..3 {
            let m = knapsack(12, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_hierarchical(&m, cfg(8), hcfg(2)).unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: {} vs {expected}",
                r.objective
            );
            assert_eq!(r.hier.groups, 4);
            assert_eq!(
                r.hier.max_evaluations_per_node, 1,
                "a fault-free run must merge every node exactly once"
            );
            assert!(r.stats.tree.reopened as usize >= r.hier.transit_arrivals);
        }
    }

    #[test]
    fn propagating_hierarchy_matches_brute_force() {
        for seed in 0..2 {
            let m = knapsack(12, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_hierarchical(
                &m,
                ParallelConfig {
                    propagate: true,
                    heuristic_period: 2,
                    ..cfg(4)
                },
                hcfg(2),
            )
            .unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: {} vs {expected}",
                r.objective
            );
            assert!(r.stats.metrics.counter(names::PROP_NODES) > 0.0);
            assert!(r.stats.metrics.gauge(names::HEUR_FIRST_INCUMBENT_NS) > 0.0);
        }
    }

    #[test]
    fn textbook_mip_hierarchical() {
        let r = solve_hierarchical(&textbook_mip(), cfg(4), hcfg(2)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6);
        assert!(r.hier.root_messages > 0);
        assert!(r.hier.summaries > 0, "summary cadence must tick");
        assert_eq!(r.stats.faults, crate::chaos::FaultStats::default());
    }

    #[test]
    fn infeasible_detected_hierarchically() {
        let r = solve_hierarchical(&infeasible_instance(), cfg(4), hcfg(2)).unwrap();
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(r.objective.is_nan());
    }

    #[test]
    fn fanout_edges_solve() {
        let m = knapsack(12, 0.5, 4);
        let expected = knapsack_brute_force(&m);
        // fanout 1: every rank its own group; fanout >= workers: one group.
        for fanout in [1, 4, 16] {
            let r = solve_hierarchical(&m, cfg(4), hcfg(fanout)).unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "fanout {fanout}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "fanout {fanout}: {} vs {expected}",
                r.objective
            );
            assert_eq!(r.hier.groups, 4usize.div_ceil(fanout));
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        let m = knapsack(16, 0.5, 9);
        let run = || solve_hierarchical(&m, cfg(16), hcfg(4)).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.stats.makespan_ns.to_bits(), b.stats.makespan_ns.to_bits());
        assert_eq!(a.stats.nodes, b.stats.nodes);
        assert_eq!(a.stats.messages, b.stats.messages);
        assert_eq!(a.hier, b.hier);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }

    #[test]
    fn steals_happen_and_conserve_work() {
        // Few groups, one subtree spread: stealing is the only way idle
        // groups acquire work once their spread share prunes out.
        let m = knapsack(18, 0.5, 3);
        let expected = knapsack_brute_force(&m);
        let r = solve_hierarchical(&m, cfg(8), hcfg(2)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - expected).abs() < 1e-6);
        assert!(
            r.hier.steals + r.hier.steal_denied > 0,
            "an 18-var tree over 4 groups must exercise the steal protocol: {:?}",
            r.hier
        );
        assert_eq!(r.hier.max_evaluations_per_node, 1);
        assert!(r.stats.tree.reopened as usize == r.hier.transit_arrivals);
    }

    #[test]
    fn hierarchy_matches_flat_cluster() {
        let m = knapsack(14, 0.5, 7);
        let flat = solve_parallel(&m, cfg(8)).unwrap();
        let hier = solve_hierarchical(&m, cfg(8), hcfg(4)).unwrap();
        assert_eq!(hier.status, flat.status);
        assert!((hier.objective - flat.objective).abs() < 1e-6);
    }

    #[test]
    fn matches_optimum_under_sub_supervisor_crash() {
        let m = knapsack(16, 0.5, 5);
        let expected = knapsack_brute_force(&m);
        let clean = solve_hierarchical(&m, cfg(8), hcfg(2)).unwrap();
        let r = solve_hierarchical(
            &m,
            ParallelConfig {
                chaos: Some(ChaosConfig {
                    sub_crashes: 2,
                    horizon_ns: clean.stats.makespan_ns * 0.8,
                    ..ChaosConfig::quiet(11)
                }),
                ..cfg(8)
            },
            hcfg(2),
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - expected).abs() < 1e-6);
        assert!(
            r.stats.faults.sub_crashes > 0,
            "no sub-crash landed: {:?}",
            r.stats.faults
        );
        assert_eq!(r.stats.faults.sub_respawns, r.stats.faults.sub_crashes);
        assert!(r.stats.makespan_ns >= clean.stats.makespan_ns);
    }

    #[test]
    fn node_limit_respected() {
        let m = knapsack(24, 0.5, 1);
        let r = solve_hierarchical(
            &m,
            ParallelConfig {
                node_limit: 5,
                ..cfg(4)
            },
            hcfg(2),
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::NodeLimit);
        assert!(r.stats.nodes <= 6);
    }

    #[test]
    fn snapshots_taken_when_configured() {
        let m = knapsack(16, 0.5, 2);
        let r = solve_hierarchical(
            &m,
            ParallelConfig {
                checkpoint_every: Some(3),
                ..cfg(4)
            },
            hcfg(2),
        )
        .unwrap();
        assert!(r.stats.checkpoints > 0);
        assert_eq!(r.snapshots.len(), r.stats.checkpoints);
    }

    #[test]
    fn root_link_straggle_costs_time_but_not_correctness() {
        let m = knapsack(14, 0.5, 2);
        let expected = knapsack_brute_force(&m);
        let clean = solve_hierarchical(&m, cfg(8), hcfg(2)).unwrap();
        let slow = solve_hierarchical(
            &m,
            ParallelConfig {
                chaos: Some(ChaosConfig {
                    root_slow_factor: 50.0,
                    ..ChaosConfig::quiet(1)
                }),
                ..cfg(8)
            },
            hcfg(2),
        )
        .unwrap();
        assert_eq!(slow.status, MipStatus::Optimal);
        assert!((slow.objective - expected).abs() < 1e-6);
        assert!(
            slow.stats.makespan_ns > clean.stats.makespan_ns,
            "a 50x root-link straggle must show up in the makespan: {} vs {}",
            slow.stats.makespan_ns,
            clean.stats.makespan_ns
        );
    }
}
