//! The metric-name glossary and track-label conventions.
//!
//! Every counter/gauge/histogram name used across the workspace is a
//! constant here so the summary table, the docs, and the instrumentation
//! sites cannot drift apart. Names are dotted paths grouped by subsystem:
//! `gpu.*` (device ledger), `lp.*` (simplex engine), `bb.*`
//! (branch-and-bound lifecycle), `cluster.*` (parallel supervisor/workers),
//! `fault.*` (injected chaos) and `recovery.*` (the supervisor's response).

use crate::event::TrackGroup;

// --- GPU device ledger -----------------------------------------------------

/// Host-to-device transfer count.
pub const GPU_H2D_TRANSFERS: &str = "gpu.h2d.transfers";
/// Host-to-device bytes moved.
pub const GPU_H2D_BYTES: &str = "gpu.h2d.bytes";
/// Device-to-host transfer count.
pub const GPU_D2H_TRANSFERS: &str = "gpu.d2h.transfers";
/// Device-to-host bytes moved.
pub const GPU_D2H_BYTES: &str = "gpu.d2h.bytes";
/// Kernel launches (dense and sparse).
pub const GPU_KERNEL_LAUNCHES: &str = "gpu.kernel.launches";
/// Floating-point operations executed by kernels.
pub const GPU_KERNEL_FLOPS: &str = "gpu.kernel.flops";
/// Simulated nanoseconds spent in transfers.
pub const GPU_TRANSFER_NS: &str = "gpu.transfer.ns";
/// Simulated nanoseconds spent in kernels.
pub const GPU_KERNEL_NS: &str = "gpu.kernel.ns";
/// Stream synchronizations (full-device barriers).
pub const GPU_SYNCS: &str = "gpu.syncs";
/// Peak device memory in use, bytes (gauge).
pub const GPU_MEM_PEAK_BYTES: &str = "gpu.mem.peak_bytes";

// --- LP engine -------------------------------------------------------------

/// Simplex iterations (all phases).
pub const LP_ITERATIONS: &str = "lp.simplex.iterations";
/// Basis (re)factorizations.
pub const LP_REFACTORIZATIONS: &str = "lp.factor.refactorizations";
/// Cold solves (two-phase from scratch).
pub const LP_SOLVES: &str = "lp.solves";
/// Warm-started re-solves (dual/primal polish after a bound change).
pub const LP_RESOLVES: &str = "lp.resolves";
/// Iterations per solve (histogram).
pub const LP_ITERATIONS_PER_SOLVE: &str = "lp.simplex.iterations_per_solve";

// --- Branch-and-bound lifecycle --------------------------------------------

/// Nodes created (root + children of every branching).
pub const BB_NODES_CREATED: &str = "bb.nodes.created";
/// Nodes whose relaxation was evaluated.
pub const BB_NODES_EVALUATED: &str = "bb.nodes.evaluated";
/// Nodes pruned by bound.
pub const BB_NODES_PRUNED: &str = "bb.nodes.pruned";
/// Nodes fathomed infeasible.
pub const BB_NODES_INFEASIBLE: &str = "bb.nodes.infeasible";
/// Nodes that produced an integer-feasible relaxation.
pub const BB_NODES_INTEGER_FEASIBLE: &str = "bb.nodes.integer_feasible";
/// Nodes branched (two children each).
pub const BB_NODES_BRANCHED: &str = "bb.nodes.branched";
/// Incumbent improvements (from any source).
pub const BB_INCUMBENTS: &str = "bb.incumbents";
/// Incumbents found by primal heuristics.
pub const BB_HEUR_INCUMBENTS: &str = "bb.heur.incumbents";
/// Cutting planes added to the formulation.
pub const BB_CUTS_ADDED: &str = "bb.cuts.added";
/// Warm-start seed solutions accepted as the initial incumbent (a caller
/// supplied `Warm::seed` that validated feasible on this instance).
pub const BB_WARM_SEEDS: &str = "bb.warm.seeds";

// --- Parallel cluster ------------------------------------------------------

/// Messages crossing the modeled interconnect.
pub const CLUSTER_MESSAGES: &str = "cluster.messages";
/// Bytes crossing the modeled interconnect.
pub const CLUSTER_BYTES: &str = "cluster.bytes";
/// Nodes dispatched to workers.
pub const CLUSTER_NODES_DISPATCHED: &str = "cluster.nodes.dispatched";
/// Work-stealing / load-balance reassignments (node sent to a worker other
/// than the one that created it).
pub const CLUSTER_MIGRATIONS: &str = "cluster.migrations";
/// Checkpoints (stop-the-world snapshots) taken.
pub const CLUSTER_CHECKPOINTS: &str = "cluster.checkpoints";

// --- Hierarchical cluster (supervisor-of-supervisors) ----------------------

/// Sub-supervisor groups in the hierarchy (gauge).
pub const HIER_GROUPS: &str = "hier.groups";
/// Messages crossing the root ↔ sub-supervisor link (summaries, incumbent
/// traffic, steal control, subtree handoffs — *not* intra-group traffic).
pub const HIER_ROOT_MESSAGES: &str = "hier.root.messages";
/// Bytes crossing the root link.
pub const HIER_ROOT_BYTES: &str = "hier.root.bytes";
/// Periodic load summaries received by the root.
pub const HIER_SUMMARIES: &str = "hier.summaries";
/// Incumbent value broadcasts the root fanned out to groups.
pub const HIER_INCUMBENT_BROADCASTS: &str = "hier.incumbent.broadcasts";
/// Steal grants executed (victim shipped at least one subtree).
pub const HIER_STEALS: &str = "hier.steals";
/// Frontier subtrees that changed owner through a steal grant.
pub const HIER_STEAL_SUBTREES: &str = "hier.steal.subtrees";
/// Steal requests the root denied (no viable victim).
pub const HIER_STEAL_DENIED: &str = "hier.steal.denied";
/// Subtree transfers (steals + spread + reassignments) that arrived and
/// re-entered a group's dispatchable frontier.
pub const HIER_TRANSIT_ARRIVALS: &str = "hier.transit.arrivals";
/// Injected sub-supervisor crashes that landed on an alive group.
pub const FAULT_SUB_CRASHES: &str = "fault.sub_crashes";
/// Sub-supervisors brought back after their backoff.
pub const RECOVERY_SUB_RESPAWNS: &str = "recovery.sub_respawns";
/// Subtrees the root shipped off a dead or fully-retired group.
pub const RECOVERY_GROUP_REASSIGNED: &str = "recovery.group_reassigned_subtrees";

/// Span name for a load summary instant on the root lane.
pub const SPAN_HIER_SUMMARY: &str = "hier.summary";
/// Span name for a steal request reaching the root.
pub const SPAN_HIER_STEAL_REQUEST: &str = "hier.steal.request";
/// Span name for a steal grant (victim ships subtrees).
pub const SPAN_HIER_STEAL_GRANT: &str = "hier.steal.grant";
/// Span name for a denied steal request.
pub const SPAN_HIER_STEAL_DENY: &str = "hier.steal.deny";
/// Span name for a subtree handoff arriving at its new group.
pub const SPAN_HIER_HANDOFF: &str = "hier.handoff";
/// Span name for an incumbent broadcast leaving the root.
pub const SPAN_HIER_INCUMBENT: &str = "hier.incumbent.broadcast";
/// Span name for a sub-supervisor crash instant.
pub const SPAN_FAULT_SUB_CRASH: &str = "fault.sub_crash";
/// Span name for a sub-supervisor respawn instant.
pub const SPAN_RECOVERY_SUB_RESPAWN: &str = "recovery.sub_respawn";
/// Span name for the root reassigning a dead group's subtree.
pub const SPAN_RECOVERY_GROUP_REASSIGN: &str = "recovery.group_reassign";

// --- Batched wave evaluator (Sections 4.3, 5.5) ----------------------------

/// Lockstep supersteps executed by the batched wave engine (each superstep
/// advances every active lane by one recorded kernel).
pub const WAVE_SUPERSTEPS: &str = "wave.supersteps";
/// Lanes that finished their node LP and exited the wave mid-flight.
pub const WAVE_RETIRES: &str = "wave.retires";
/// Retired lanes refilled from the best-bound frontier without a barrier.
pub const WAVE_REFILLS: &str = "wave.refills";
/// Wave width actually used after the device-memory auto-sizing
/// (`batch ≈ device_mem / matrix_mem`, gauge).
pub const WAVE_WIDTH: &str = "wave.width";
/// Fused batched kernel launches (at most one per superstep, of the kernel
/// class the most lanes wait on).
pub const WAVE_FUSED_LAUNCHES: &str = "wave.fused_launches";
/// Per-lane kernel operations replayed through fused launches.
pub const WAVE_LANE_OPS: &str = "wave.lane_ops";
/// Bytes of the shared device-resident `[A | I]` matrix (gauge; uploaded
/// once for all lanes — the Section 5.5 memory-for-concurrency trade).
pub const BATCH_MATRIX_BYTES: &str = "batch.matrix.bytes";

// --- First-order (restarted PDHG) wave engine -------------------------------

/// Lockstep PDHG supersteps (one primal-dual iteration across every active
/// lane, at most one fused launch per `fo.*` kernel class).
pub const FO_SUPERSTEPS: &str = "fo.supersteps";
/// PDHG iterations summed over all lanes (lane-iterations).
pub const FO_ITERATIONS: &str = "fo.iterations";
/// KKT-residual-triggered restarts to the running average.
pub const FO_RESTARTS: &str = "fo.restarts";
/// Lanes that left the wave at a superstep boundary (any outcome).
pub const FO_RETIRES: &str = "fo.retires";
/// Retired lanes refilled from the best-bound frontier without a barrier.
pub const FO_REFILLS: &str = "fo.refills";
/// Lanes retired by KKT convergence (handed to simplex cleanup).
pub const FO_CONVERGED: &str = "fo.converged";
/// Lanes retired early because their safe dual bound fell below the
/// incumbent cutoff — no cleanup needed, the node is pruned.
pub const FO_BOUND_PRUNED: &str = "fo.bound_pruned";
/// Lanes retired by the load-time activity-bound infeasibility check.
pub const FO_INFEASIBLE: &str = "fo.infeasible";
/// Lanes retired at the per-lane iteration cap (cleanup decides the node).
pub const FO_ITER_LIMIT: &str = "fo.iter_limit";
/// Fused batched launches (one per `fo.*` kernel class per superstep).
pub const FO_FUSED_LAUNCHES: &str = "fo.fused_launches";
/// Effective first-order wave width after memory auto-sizing (gauge).
pub const FO_WIDTH: &str = "fo.width";
/// Bytes of the shared device-resident CSR matrix (gauge).
pub const FO_MATRIX_BYTES: &str = "fo.matrix.bytes";
/// Host simplex cleanup solves of converged/capped lanes.
pub const FO_CLEANUPS: &str = "fo.cleanups";
/// Simplex iterations spent inside cleanup solves.
pub const FO_CLEANUP_ITERS: &str = "fo.cleanup.iterations";

// --- Domain propagation (gmip-prop) -----------------------------------------

/// Span name of the fused batched row-activity kernel: per-lane min/max row
/// activities over the shared device-resident CSR matrix (cost ∝ nnz).
pub const PROP_KERNEL_ACTIVITY: &str = "prop.activity";
/// Span name of the fused batched bound-tightening kernel: per-row residual
/// activities turned into candidate variable bounds with integral rounding
/// (cost ∝ nnz).
pub const PROP_KERNEL_TIGHTEN: &str = "prop.tighten";
/// Span name of the fused batched reduction kernel: per-lane min/changed
/// flags over the variable vector deciding fixpoint / infeasibility
/// (cost ∝ n).
pub const PROP_KERNEL_REDUCE: &str = "prop.reduce";
/// Nodes whose box went through at least one propagation round.
pub const PROP_NODES: &str = "prop.nodes";
/// Propagation rounds executed (summed over nodes/lanes; every round is
/// one activity + tighten + reduce kernel trio).
pub const PROP_ROUNDS: &str = "prop.rounds";
/// Strict bound tightenings applied by node propagation.
pub const PROP_TIGHTENINGS: &str = "prop.tightenings";
/// Nodes proven infeasible by propagation before any LP work was spent.
pub const PROP_INFEASIBLE: &str = "prop.nodes_infeasible";

// --- Fix-and-propagate primal heuristic --------------------------------------

/// Fix-and-propagate attempts (one per lane per heuristic wave).
pub const HEUR_ATTEMPTS: &str = "heur.attempts";
/// Incumbents produced by the fix-and-propagate heuristic.
pub const HEUR_INCUMBENTS: &str = "heur.incumbents";
/// Lanes that repaired a failed fixing by taking the opposite rounding.
pub const HEUR_REPAIRS: &str = "heur.repairs";
/// Lanes aborted on integer infeasibility (both roundings propagate to a
/// contradiction, or the final point fails the exact feasibility check).
pub const HEUR_ABORTS: &str = "heur.aborts";
/// Simulated time of the solve's first incumbent, ns (gauge; set once —
/// the time-to-first-incumbent headline of experiment E12).
pub const HEUR_FIRST_INCUMBENT_NS: &str = "heur.first_incumbent_ns";

// --- Executing-backend wall clock (gmip-gpu) --------------------------------
//
// Real host nanoseconds measured around the executing backend's fused lane
// dispatches. The `wall.*` family is deliberately OUTSIDE the determinism
// surface: it never feeds traces, simulated `_ns` totals, or the bench
// regression gate — sim-charged ns remain the only timing oracle.

/// Real wall ns spent in batched PDHG step dispatches — one per superstep,
/// the whole `fo.spmv_t → fo.axpy → fo.spmv` chain and, on checking
/// supersteps, the `fo.norm` checks riding the same dispatch (native
/// backend).
pub const WALL_FO_STEP: &str = "wall.fo.step.ns";
/// Real wall ns spent in fused propagation-round dispatches (one dispatch
/// executes a full activity+tighten+reduce sweep per active lane).
pub const WALL_PROP_ROUND: &str = "wall.prop.round.ns";
/// Real wall ns spent in fused fix-and-propagate dive dispatches.
pub const WALL_HEUR_DIVE: &str = "wall.heur.dive.ns";
/// Real wall ns in fused dispatches with no dedicated class key.
pub const WALL_OTHER: &str = "wall.other.ns";
/// Fused executing dispatches issued (all classes).
pub const WALL_DISPATCHES: &str = "wall.dispatches";
/// Worker threads the executing backend fans lanes across (gauge).
pub const WALL_THREADS: &str = "wall.threads";

// --- Fault injection & recovery (gmip-chaos) -------------------------------

/// Injected worker crashes that landed on an alive rank.
pub const FAULT_CRASHES: &str = "fault.crashes";
/// Messages (assignments or reports) silently dropped on the wire.
pub const FAULT_DROPS: &str = "fault.drops";
/// Messages delayed on the wire beyond the modeled transfer time.
pub const FAULT_DELAYS: &str = "fault.delays";
/// Evaluations slowed by a straggler window.
pub const FAULT_STRAGGLES: &str = "fault.straggles";
/// Lost subproblems returned to the open set and re-dispatched (after a
/// crash was detected or an ack timeout fired).
pub const RECOVERY_REASSIGNMENTS: &str = "recovery.reassignments";
/// Crashed ranks brought back after their exponential backoff.
pub const RECOVERY_RESPAWNS: &str = "recovery.respawns";
/// Ranks permanently retired after exhausting their respawn budget (the
/// cluster degrades to fewer ranks).
pub const RECOVERY_DEGRADED_RANKS: &str = "recovery.degraded_ranks";

// --- Solve service (gmip-serve) --------------------------------------------

/// Jobs submitted to the service (before admission control).
pub const SERVE_JOBS_SUBMITTED: &str = "serve.jobs.submitted";
/// Jobs completed with an answer (cached or solved).
pub const SERVE_JOBS_COMPLETED: &str = "serve.jobs.completed";
/// Jobs shed at admission (queue over the shed threshold).
pub const SERVE_JOBS_SHED: &str = "serve.jobs.shed";
/// Jobs rejected because their tenant was over quota.
pub const SERVE_JOBS_QUOTA_REJECTS: &str = "serve.jobs.quota_rejects";
/// Jobs that failed permanently (retry budget exhausted).
pub const SERVE_JOBS_FAILED: &str = "serve.jobs.failed";
/// Solve attempts retried after an attempt timeout (chaos overlay).
pub const SERVE_RETRIES: &str = "serve.retries";
/// Solution pool: exact-fingerprint hits served straight from the cache.
pub const SERVE_CACHE_EXACT_HITS: &str = "serve.cache.exact_hits";
/// Solution pool: structural hits that warm-started a perturbed re-solve.
pub const SERVE_CACHE_WARM_HITS: &str = "serve.cache.warm_hits";
/// Solution pool: misses (cold solves).
pub const SERVE_CACHE_MISSES: &str = "serve.cache.misses";
/// Solution pool: entries evicted under the capacity bound.
pub const SERVE_CACHE_EVICTIONS: &str = "serve.cache.evictions";
/// End-to-end job latency, simulated ns (histogram).
pub const SERVE_LATENCY_NS: &str = "serve.latency.ns";
/// Time jobs waited in the admission queue, simulated ns (histogram).
pub const SERVE_QUEUE_WAIT_NS: &str = "serve.queue.wait_ns";
/// Solve execution time per attempt, simulated ns (histogram).
pub const SERVE_EXEC_NS: &str = "serve.exec.ns";
/// Peak admission-queue depth (gauge).
pub const SERVE_QUEUE_DEPTH_PEAK: &str = "serve.queue.depth_peak";
/// Completed jobs per simulated second over the run (gauge).
pub const SERVE_GOODPUT_JOBS_PER_S: &str = "serve.goodput.jobs_per_s";

// --- Track labels ----------------------------------------------------------

/// Human-readable name for a track group (the Perfetto "process" label).
pub fn group_label(group: TrackGroup) -> String {
    match group {
        TrackGroup::Host => "host cpu".to_string(),
        TrackGroup::Solver => "solver (branch & bound)".to_string(),
        TrackGroup::Lp => "lp engine".to_string(),
        TrackGroup::Cluster => "cluster".to_string(),
        TrackGroup::Serve => "serve".to_string(),
        TrackGroup::Gpu(i) => format!("gpu {i}"),
    }
}

/// Human-readable name for a lane within a group (the Perfetto "thread"
/// label): GPU lanes are streams, cluster lanes are ranks (rank 0 being the
/// supervisor), single-lane groups collapse to a fixed label.
pub fn lane_label(group: TrackGroup, lane: u32) -> String {
    match group {
        TrackGroup::Gpu(_) => format!("stream {lane}"),
        TrackGroup::Cluster if lane == 0 => "supervisor".to_string(),
        TrackGroup::Cluster => format!("rank {lane}"),
        TrackGroup::Serve if lane == 0 => "reactor".to_string(),
        TrackGroup::Serve => format!("lease {lane}"),
        TrackGroup::Host => "cpu".to_string(),
        TrackGroup::Solver => "nodes".to_string(),
        TrackGroup::Lp => "simplex".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hier_names_stay_in_their_namespaces() {
        // Metric constants keep the dotted-path convention: steal/traffic
        // counters under `hier.*`, faults and recovery under the shared
        // `fault.*` / `recovery.*` namespaces the summary table groups by.
        for name in [
            HIER_GROUPS,
            HIER_ROOT_MESSAGES,
            HIER_ROOT_BYTES,
            HIER_SUMMARIES,
            HIER_INCUMBENT_BROADCASTS,
            HIER_STEALS,
            HIER_STEAL_SUBTREES,
            HIER_STEAL_DENIED,
            HIER_TRANSIT_ARRIVALS,
        ] {
            assert!(name.starts_with("hier."), "{name}");
        }
        assert!(FAULT_SUB_CRASHES.starts_with("fault."));
        assert!(RECOVERY_SUB_RESPAWNS.starts_with("recovery."));
        assert!(RECOVERY_GROUP_REASSIGNED.starts_with("recovery."));
    }

    #[test]
    fn fo_names_stay_in_their_namespace() {
        for name in [
            FO_SUPERSTEPS,
            FO_ITERATIONS,
            FO_RESTARTS,
            FO_RETIRES,
            FO_REFILLS,
            FO_CONVERGED,
            FO_BOUND_PRUNED,
            FO_INFEASIBLE,
            FO_ITER_LIMIT,
            FO_FUSED_LAUNCHES,
            FO_WIDTH,
            FO_MATRIX_BYTES,
            FO_CLEANUPS,
            FO_CLEANUP_ITERS,
        ] {
            assert!(name.starts_with("fo."), "{name}");
        }
    }

    #[test]
    fn prop_and_heur_names_stay_in_their_namespaces() {
        for name in [
            PROP_KERNEL_ACTIVITY,
            PROP_KERNEL_TIGHTEN,
            PROP_KERNEL_REDUCE,
            PROP_NODES,
            PROP_ROUNDS,
            PROP_TIGHTENINGS,
            PROP_INFEASIBLE,
        ] {
            assert!(name.starts_with("prop."), "{name}");
        }
        for name in [
            HEUR_ATTEMPTS,
            HEUR_INCUMBENTS,
            HEUR_REPAIRS,
            HEUR_ABORTS,
            HEUR_FIRST_INCUMBENT_NS,
        ] {
            assert!(name.starts_with("heur."), "{name}");
        }
        // The report table's time-to-first-incumbent column reads this
        // exact key out of the merged registry.
        assert_eq!(HEUR_FIRST_INCUMBENT_NS, "heur.first_incumbent_ns");
    }

    #[test]
    fn wall_names_stay_in_their_namespace() {
        // Everything measured by the executing backend lives under
        // `wall.*` so determinism-sensitive consumers (trace diffs, the
        // bench gate) can exclude the whole family with one prefix check.
        for name in [
            WALL_FO_STEP,
            WALL_PROP_ROUND,
            WALL_HEUR_DIVE,
            WALL_OTHER,
            WALL_DISPATCHES,
            WALL_THREADS,
        ] {
            assert!(name.starts_with("wall."), "{name}");
        }
        // Conversely no wall key may end in the `_ns` suffix the bench
        // gate treats as simulated time.
        for name in [WALL_FO_STEP, WALL_PROP_ROUND, WALL_HEUR_DIVE] {
            assert!(!name.ends_with("_ns"), "{name}");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(group_label(TrackGroup::Gpu(2)), "gpu 2");
        assert_eq!(lane_label(TrackGroup::Gpu(2), 1), "stream 1");
        assert_eq!(lane_label(TrackGroup::Cluster, 0), "supervisor");
        assert_eq!(lane_label(TrackGroup::Cluster, 3), "rank 3");
        assert_eq!(lane_label(TrackGroup::Lp, 0), "simplex");
    }
}
