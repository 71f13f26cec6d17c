//! Real-thread execution of the supervisor–worker pattern.
//!
//! The discrete-event [`crate::supervisor`] gives deterministic *simulated*
//! makespans; this module runs the same coordination over actual OS threads
//! and crossbeam channels — true MIMD host parallelism with asynchronous
//! report arrival, the way a Pthreads-based `FiberSCIP`-style deployment
//! would behave (Section 2.3). Results are nondeterministic in *path* but
//! must be deterministic in *answer*; the tests assert exactly that.
//!
//! With [`ParallelConfig::chaos`] set, the fault plan's *thread crash
//! points* kill worker threads mid-run (silently, with an assignment in
//! hand); the coordinator detects the dead thread by report timeout,
//! reopens its subproblem, and respawns a clean replacement — the same
//! recovery protocol as the discrete-event supervisor, on real threads.

use crate::chaos::FaultPlan;
use crate::comm::{Assignment, NodeReport};
use crate::exchange::{assignment, children};
use crate::supervisor::{ParPayload, ParallelConfig};
use crate::worker::Worker;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gmip_core::search::{self, Incumbent, NodeOutcome, Rules};
use gmip_core::MipStatus;
use gmip_lp::{LpError, LpResult};
use gmip_problems::MipInstance;
use gmip_tree::SearchTree;
use std::collections::HashMap;
use std::time::Duration;

enum WorkerMsg {
    Work(Assignment),
    Shutdown,
}

/// How long the coordinator waits on the report channel before suspecting
/// a dead worker thread (only when chaos is enabled).
const HEARTBEAT: Duration = Duration::from_millis(25);

/// Spawns one worker thread with its own work channel. `crash_at:
/// Some(k)` makes the thread die silently when handed its `k+1`-th
/// assignment (the injected fault); replacements are spawned with `None`.
fn spawn_worker(
    id: usize,
    instance: &MipInstance,
    cfg: &ParallelConfig,
    rtx: Sender<Result<NodeReport, LpError>>,
    crash_at: Option<usize>,
) -> (Sender<WorkerMsg>, std::thread::JoinHandle<()>) {
    let (tx, rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = unbounded();
    let (inst, cfg) = (instance.clone(), cfg.clone());
    let handle = std::thread::spawn(move || {
        let mut worker = match Worker::for_rank(id, &inst, &cfg) {
            Ok(w) => w,
            Err(e) => {
                let _ = rtx.send(Err(e));
                return;
            }
        };
        let mut handled = 0usize;
        while let Ok(WorkerMsg::Work(a)) = rx.recv() {
            if crash_at == Some(handled) {
                return; // injected crash: die with the assignment in hand
            }
            handled += 1;
            if rtx.send(worker.evaluate(&a)).is_err() {
                break;
            }
        }
    });
    (tx, handle)
}

/// Result of a threaded parallel solve.
#[derive(Debug)]
pub struct ThreadedResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective (source sense; NaN if none).
    pub objective: f64,
    /// Incumbent point.
    pub x: Vec<f64>,
    /// Nodes evaluated.
    pub nodes: usize,
    /// Wall-clock milliseconds of the parallel section.
    pub wall_ms: f64,
    /// Worker threads respawned after an injected crash (0 without chaos).
    pub respawns: usize,
    /// Subproblems reopened after their worker died (0 without chaos).
    pub reassignments: usize,
}

/// Solves `instance` with `cfg.workers` OS threads.
pub fn solve_threaded(instance: &MipInstance, cfg: &ParallelConfig) -> LpResult<ThreadedResult> {
    let started = std::time::Instant::now();

    let chaos_on = cfg.chaos.is_some();
    let crash_points: Vec<Option<usize>> = match &cfg.chaos {
        Some(chaos) => FaultPlan::new(chaos.clone(), cfg.workers).thread_crash_points(cfg.workers),
        None => vec![None; cfg.workers],
    };

    let (report_tx, report_rx): (Sender<Result<NodeReport, LpError>>, Receiver<_>) = unbounded();
    let mut work_txs: Vec<Sender<WorkerMsg>> = Vec::new();
    let mut handles = Vec::new();
    for id in 0..cfg.workers {
        let (tx, handle) = spawn_worker(id, instance, cfg, report_tx.clone(), crash_points[id]);
        work_txs.push(tx);
        handles.push(handle);
    }
    // Under chaos the coordinator keeps a sender so the report channel never
    // disconnects while it still needs to respawn workers.
    let keeper = chaos_on.then(|| report_tx.clone());
    drop(report_tx);

    let rules = Rules::new(instance);
    let mut tree: SearchTree<ParPayload> =
        SearchTree::with_root(ParPayload::default(), search::node_bytes(instance));
    let mut idle: Vec<usize> = (0..cfg.workers).collect();
    let mut assigned: HashMap<usize, usize> = HashMap::new(); // node → worker
    let mut incumbent = Incumbent::default();
    // The incumbent sink: an improving point is installed (rounded, and the
    // frontier pruned) exactly as the DES supervisors do.
    let offer = |incumbent: &mut Incumbent, tree: &mut SearchTree<ParPayload>, value, x| {
        if value > incumbent.value() {
            incumbent.install(&rules, tree, value, x, || 0.0);
        }
    };
    let mut nodes = 0usize;
    let mut worker_error: Option<LpError> = None;
    let mut respawns = 0usize;
    let mut reassignments = 0usize;

    loop {
        // Dispatch best-bound nodes to idle workers.
        while !idle.is_empty() && nodes + assigned.len() < cfg.node_limit {
            let Some(id) = tree.best() else {
                break;
            };
            let w = idle.pop().expect("checked non-empty");
            tree.begin_evaluation(id);
            let a = assignment(tree.node(id), incumbent.value());
            assigned.insert(id, w);
            work_txs[w]
                .send(WorkerMsg::Work(a))
                .expect("worker thread alive");
        }
        if assigned.is_empty() {
            break; // nothing running, nothing dispatchable
        }
        // Block for the next report. Under chaos, wake periodically to
        // check whether a worker thread died with an assignment in hand.
        let recv_result = if chaos_on {
            match report_rx.recv_timeout(HEARTBEAT) {
                Ok(r) => Some(r),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("keeper holds a sender while chaos is on")
                }
            }
        } else {
            Some(report_rx.recv().expect("workers alive while in flight"))
        };
        let report = match recv_result {
            Some(Ok(r)) => r,
            Some(Err(e)) => {
                worker_error = Some(e);
                break;
            }
            None => {
                // Heartbeat timeout: reopen subproblems held by dead
                // threads and respawn clean (crash-free) replacements.
                let stuck: Vec<(usize, usize)> = assigned.iter().map(|(&n, &w)| (n, w)).collect();
                for (node, w) in stuck {
                    if !handles[w].is_finished() {
                        continue; // still computing, just slow
                    }
                    assigned.remove(&node);
                    if tree.reopen(node) {
                        reassignments += 1;
                    }
                    let rtx = keeper.clone().expect("chaos keeps a sender");
                    let (tx, handle) = spawn_worker(w, instance, cfg, rtx, None);
                    work_txs[w] = tx;
                    let dead = std::mem::replace(&mut handles[w], handle);
                    let _ = dead.join();
                    respawns += 1;
                    idle.push(w);
                }
                continue;
            }
        };
        nodes += 1;
        let id = report.node_id;
        let w = assigned.remove(&id).expect("node was assigned");
        idle.push(w);

        // Install any ridden-along fix-and-propagate candidate first so the
        // node outcome below prunes against the tightest incumbent.
        if let Some((value, x)) = report.heur {
            offer(&mut incumbent, &mut tree, value, x);
        }
        let cur = incumbent.value();
        match search::settle(&rules, &mut tree, id, report.outcome, cur) {
            NodeOutcome::Integral { bound, x } => offer(&mut incumbent, &mut tree, bound, x),
            NodeOutcome::Branch { bound, decision } => {
                let children = children(instance, tree.node(id), decision, report.basis);
                tree.branch(id, bound, children);
            }
            NodeOutcome::Infeasible | NodeOutcome::Pruned { .. } => {}
        }
    }

    for tx in &work_txs {
        let _ = tx.send(WorkerMsg::Shutdown);
    }
    drop(work_txs);
    for h in handles {
        let _ = h.join();
    }
    if let Some(e) = worker_error {
        return Err(e);
    }

    let done = rules.finish(incumbent, tree.has_active());
    Ok(ThreadedResult {
        status: done.status,
        objective: done.objective,
        x: done.x,
        nodes,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        respawns,
        reassignments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::tests::cfg;
    use gmip_problems::catalog::{infeasible_instance, textbook_mip};
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

    #[test]
    fn threaded_matches_brute_force() {
        let m = knapsack(12, 0.5, 3);
        let expected = knapsack_brute_force(&m);
        let r = solve_threaded(&m, &cfg(2)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - expected).abs() < 1e-6);
        assert!(r.nodes > 0);
        assert!(r.wall_ms >= 0.0);
    }

    #[test]
    fn threaded_textbook_and_infeasible() {
        let r = solve_threaded(&textbook_mip(), &cfg(2)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6);
        let r = solve_threaded(&infeasible_instance(), &cfg(2)).unwrap();
        assert_eq!(r.status, MipStatus::Infeasible);
    }

    #[test]
    fn answer_stable_across_repeated_nondeterministic_runs() {
        let m = knapsack(14, 0.5, 8);
        let expected = knapsack_brute_force(&m);
        for _ in 0..3 {
            let r = solve_threaded(&m, &cfg(4)).unwrap();
            assert!((r.objective - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn injected_thread_crashes_are_respawned_and_answer_unchanged() {
        use crate::chaos::ChaosConfig;
        let m = knapsack(14, 0.5, 8);
        let expected = knapsack_brute_force(&m);
        let mut c = cfg(3);
        c.chaos = Some(ChaosConfig {
            crashes: 3,
            ..ChaosConfig::quiet(7)
        });
        let r = solve_threaded(&m, &c).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - expected).abs() < 1e-6);
        assert!(
            r.respawns >= 1,
            "crash points must kill at least one thread"
        );
        assert!(r.reassignments >= 1, "a dead worker held a subproblem");
    }

    #[test]
    fn incumbent_point_is_exactly_integral() {
        // The LP optimum of these lands on 0.9999999999999996-style
        // coordinates; every driver rounds them on install.
        use gmip_problems::generators::set_cover;
        for m in [knapsack(14, 0.5, 3), set_cover(18, 14, 0.25, 2)] {
            let r = solve_threaded(&m, &cfg(2)).unwrap();
            assert_eq!(r.status, MipStatus::Optimal);
            for j in m.integral_indices() {
                assert_eq!(r.x[j].fract(), 0.0, "{}: x[{j}] = {:e}", m.name, r.x[j]);
            }
            assert!(m.is_integer_feasible(&r.x, 1e-9), "{}", m.name);
        }
    }

    #[test]
    fn node_limit_respected_threaded() {
        let m = knapsack(24, 0.5, 2);
        let mut c = cfg(2);
        c.node_limit = 4;
        let r = solve_threaded(&m, &c).unwrap();
        assert_eq!(r.status, MipStatus::NodeLimit);
    }
}
