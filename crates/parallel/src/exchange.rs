//! One supervisor ↔ worker exchange, both ends of it. Out: [`assignment`]
//! builds what ships, and [`exchange`] runs it on the modeled wire — ship
//! the assignment, evaluate it on the rank's device, ship the report back,
//! each leg subject to the fault plan. Back: the coordinator folds the
//! reported outcome into its tree with [`gmip_core::search::settle`], as
//! every tree driver does, and [`children`] builds a live branch's children
//! from the report's basis. Every coordinator (flat
//! DES, hierarchy, real threads) goes through here, so their message
//! accounting, fault counters, per-rank trace lanes and warm starts cannot
//! drift apart.

use crate::chaos::FaultPlan;
use crate::comm::{Assignment, Delivery, NetworkModel, NodeReport};
use crate::supervisor::{ParPayload, ParallelStats};
use crate::worker::Worker;
use gmip_core::branch::BranchDecision;
use gmip_core::search;
use gmip_lp::{Basis, LpResult};
use gmip_problems::MipInstance;
use gmip_trace::{names, Event as TraceSpan, Track};
use gmip_tree::Node;

/// The assignment that ships `node`: its bound changes, its parent's basis
/// and the sender's incumbent value.
pub(crate) fn assignment(node: &Node<ParPayload>, incumbent: f64) -> Assignment {
    Assignment {
        node_id: node.id,
        bounds: node.data.bounds.clone(),
        warm_basis: node.data.warm_basis.clone(),
        incumbent,
    }
}

/// The event a started exchange ends with, and when it fires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Completion {
    /// The report reaches the supervisor.
    Deliver(f64),
    /// A leg was dropped: the supervisor gives up waiting for the ack.
    AckTimeout(f64),
}

/// Runs `assignment` on rank `w` starting at `now`. Returns the evaluated
/// report (`None` when the assignment itself was dropped and the worker
/// never saw it) and how the exchange completes.
pub(crate) fn exchange(
    worker: &mut Worker,
    w: usize,
    assignment: &Assignment,
    now: f64,
    net: NetworkModel,
    plan: &mut Option<FaultPlan>,
    stats: &mut ParallelStats,
) -> LpResult<(Option<NodeReport>, Completion)> {
    let a_bytes = assignment.bytes();
    stats.messages += 1;
    stats.message_bytes += a_bytes;
    stats.metrics.incr(names::CLUSTER_NODES_DISPATCHED, 1.0);
    let ack_ns = plan
        .as_ref()
        .map(|p| p.cfg().ack_timeout_ns)
        .unwrap_or(f64::INFINITY);
    let nid = assignment.node_id as u64;
    // Supervisor → worker leg.
    let Delivery::Delivered {
        transfer_ns: send_ns,
        injected_ns: send_delay,
    } = net.ship(a_bytes, plan.as_mut())
    else {
        // The assignment vanishes on the wire: the worker never hears of
        // it, the supervisor notices at the ack timeout.
        stats.faults.drops += 1;
        gmip_trace::record(|| {
            TraceSpan::instant(Track::cluster_rank(0), "fault.drop", now)
                .arg("node", nid)
                .arg("leg", "assignment")
        });
        return Ok((None, Completion::AckTimeout(now + ack_ns)));
    };
    if send_delay > 0.0 {
        stats.faults.delays += 1;
    }
    // Straggler windows slow the device for evaluations starting inside
    // them.
    let slow = plan
        .as_ref()
        .map(|p| p.slowdown(w, now + send_ns))
        .unwrap_or(1.0);
    if slow > 1.0 {
        stats.faults.straggles += 1;
    }
    worker.slowdown = slow;
    // Evaluate now (numerically); deliver at the modeled time.
    let report = worker.evaluate(assignment)?;
    let r_bytes = report.bytes();
    stats.messages += 1;
    stats.message_bytes += r_bytes;
    // Per-rank trace lane (lane 0 is the supervisor): the assignment
    // transfer, the device evaluation, and the report transfer render as
    // consecutive spans on the rank's timeline.
    let rank = Track::cluster_rank((w + 1) as u32);
    let eval_ns = report.eval_ns;
    gmip_trace::record(|| {
        TraceSpan::complete(rank, "recv", send_ns, now)
            .arg("node", nid)
            .arg("bytes", a_bytes as u64)
            .arg("delayed_ns", send_delay)
    });
    gmip_trace::record(|| {
        TraceSpan::complete(rank, "eval", eval_ns, now + send_ns).arg("node", nid)
    });
    // Worker → supervisor leg.
    let completion = match net.ship(r_bytes, plan.as_mut()) {
        Delivery::Delivered {
            transfer_ns: reply_ns,
            injected_ns: reply_delay,
        } => {
            if reply_delay > 0.0 {
                stats.faults.delays += 1;
            }
            gmip_trace::record(|| {
                TraceSpan::complete(rank, "send", reply_ns, now + send_ns + eval_ns)
                    .arg("node", nid)
                    .arg("bytes", r_bytes as u64)
                    .arg("delayed_ns", reply_delay)
            });
            worker.busy_until = now + send_ns + eval_ns + reply_ns;
            Completion::Deliver(worker.busy_until)
        }
        Delivery::Dropped => {
            // The worker did the work but its report is lost.
            stats.faults.drops += 1;
            gmip_trace::record(|| {
                TraceSpan::instant(rank, "fault.drop", now + send_ns + eval_ns)
                    .arg("node", nid)
                    .arg("leg", "report")
            });
            worker.busy_until = now + send_ns + eval_ns;
            Completion::AckTimeout((now + ack_ns).max(worker.busy_until))
        }
    };
    Ok((Some(report), completion))
}

/// The labelled `[down, up]` children of branching `parent` on `decision`,
/// warm-started from the report's `basis` (one clone, one move), in
/// partition 0 (the coordinator places them).
pub(crate) fn children(
    instance: &MipInstance,
    parent: &Node<ParPayload>,
    decision: BranchDecision,
    basis: Option<Basis>,
) -> [(String, ParPayload); 2] {
    let (var, value) = (decision.var, decision.value);
    search::warm_children(instance, &parent.data.bounds, var, value, basis).map(
        |(c, warm_basis)| {
            let data = ParPayload {
                bounds: c.bounds,
                warm_basis,
                partition: 0,
            };
            (c.label, data)
        },
    )
}
