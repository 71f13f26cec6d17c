//! First-order (restarted PDHG) batched-wave branch and bound.
//!
//! The simplex wave ([`crate::wave::solve_batched_wave`]) shares one
//! device matrix but its lanes drift across seven kernel classes as their
//! pivot journals diverge. The first-order wave runs
//! [`gmip_lp::FirstOrderWaveEngine`]: every lane does the *same* PDHG
//! iteration each superstep, so the whole wave is three fused launches
//! (`fo.spmv_t` / `fo.axpy` / `fo.spmv`, plus `fo.norm` on check steps)
//! regardless of width — the kernel-class structure the paper's Section 5
//! batching rule wants, with cost ∝ nnz instead of basis size.
//!
//! Three properties drive the crossover against the simplex wave at high
//! lane counts:
//!
//! 1. **Early safe-bound prunes** — a lane states a valid
//!    (dual-feasibility-adjusted) bound after its first KKT check and
//!    retires the moment the incumbent dominates it; a simplex lane must
//!    pivot to optimality before it can state any bound at all.
//! 2. **Iterate warm starts** — children start from the parent's averaged
//!    `(x, y)`, which is already near-feasible for the child's box.
//! 3. **Exact host cleanup** — converged lanes are finished by host
//!    simplex (the paper's CPU-delegation rule: tiny sequential tails are
//!    host work), so every objective the tree acts on is exact and the
//!    device never runs a sequential cleanup.

use crate::branch;
use crate::solver::MipStatus;
use crate::wave::WaveResult;
use gmip_gpu::{Accel, BackendKind};
use gmip_linalg::CsrMatrix;
use gmip_lp::{
    wave_width, BoundChange, FirstOrderWaveEngine, FoOutcome, HostEngine, LpConfig, LpResult,
    LpSolver, LpStatus, PdhgConfig, StandardLp,
};
use gmip_problems::{MipInstance, Objective};
use gmip_trace::names;
use gmip_tree::{NodeId, NodeState, SearchTree};

/// Configuration of the first-order wave solver.
#[derive(Debug, Clone)]
pub struct FirstOrderWaveConfig {
    /// Requested wave width (lanes); clamped by device memory next to the
    /// shared CSR matrix.
    pub lanes: usize,
    /// PDHG tuning (tolerance, restart factor, check cadence).
    pub pdhg: PdhgConfig,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Pruning tolerance.
    pub prune_tol: f64,
    /// Node budget.
    pub node_limit: usize,
    /// Run batched domain propagation (`prop.*` kernel trios over the
    /// shared CSR matrix) on every refilled lane's box before its PDHG
    /// work. Off by default — opt-in, so committed baselines stay valid.
    pub propagate: bool,
    /// Propagation round cap per lane.
    pub propagate_rounds: usize,
    /// Run the batched fix-and-propagate dive across the collected frontier
    /// seeds every this many retired nodes; `0` disables it.
    pub heuristic_period: usize,
    /// Which executing backend runs the fused lane dispatches. The
    /// simulated charges (and therefore every traced ns) are identical
    /// either way; `Native` additionally executes lanes across host
    /// threads and records real wall-clock under `wall.*`.
    pub backend: BackendKind,
}

impl Default for FirstOrderWaveConfig {
    fn default() -> Self {
        Self {
            lanes: 8,
            pdhg: PdhgConfig::default(),
            int_tol: 1e-6,
            prune_tol: 1e-6,
            node_limit: 100_000,
            propagate: false,
            propagate_rounds: 8,
            heuristic_period: 0,
            backend: BackendKind::Sim,
        }
    }
}

/// Node payload: branch bounds plus the parent's averaged PDHG iterates
/// (both children share them — an iterate warm start, not a basis).
#[derive(Debug, Clone, Default)]
struct FoPayload {
    bounds: Vec<BoundChange>,
    parent_iterates: Option<(Vec<f64>, Vec<f64>)>,
}

/// Solves `instance` with a lockstep restarted-PDHG wave of up to
/// `cfg.lanes` node LPs on `accel`, with exact host-simplex cleanup of
/// converged lanes before branching.
pub fn solve_first_order_wave(
    instance: &MipInstance,
    cfg: &FirstOrderWaveConfig,
    accel: Accel,
) -> LpResult<WaveResult> {
    assert!(cfg.lanes >= 1, "need at least one lane");
    let accel = accel.with_backend(cfg.backend);
    let std = StandardLp::from_instance(instance, &[]);
    let (m, n) = (std.m(), std.n());

    let matrix_bytes = CsrMatrix::from_dense(&std.a).size_bytes();
    let per_lane = FirstOrderWaveEngine::per_lane_bytes(m, n);
    let width = wave_width(cfg.lanes, accel.mem_capacity(), matrix_bytes, per_lane);
    let mut fo = FirstOrderWaveEngine::new(accel.clone(), &std, width, cfg.pdhg.clone())?;

    // The exact cleanup solver: host simplex, one per wave (lanes retire
    // one at a time at stream-event boundaries, so a single host solver
    // serves them all — the paper's CPU-delegation rule for sequential
    // tails).
    let mut cleanup = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
        HostEngine::new(a.clone())
    });

    let internal = |source: f64| match instance.objective {
        Objective::Maximize => source,
        Objective::Minimize => -source,
    };
    let node_bytes = (instance.num_cons() + 2 * instance.num_vars()) * 8 + 128;
    let mut tree: SearchTree<FoPayload> = SearchTree::with_root(FoPayload::default(), node_bytes);
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let mut nodes = 0usize;
    let integral = instance.integral_indices();

    let mut in_flight: Vec<Option<NodeId>> = (0..width).map(|_| None).collect();
    let mut filled_once = vec![false; width];

    // Domain propagation + fix-and-propagate support (gmip-prop).
    let propagator =
        (cfg.propagate || cfg.heuristic_period > 0).then(|| gmip_prop::Propagator::new(instance));
    let mut aux = gmip_trace::MetricsRegistry::default();
    let mut first_incumbent_ns: Option<f64> = None;
    let mut heur_seeds: Vec<(Vec<BoundChange>, Vec<f64>)> = Vec::new();
    let mut since_heur = 0usize;

    loop {
        // Refill idle lanes from the best-bound frontier.
        let mut pending: Vec<(usize, NodeId)> = Vec::new();
        for slot in 0..width {
            if in_flight[slot].is_some() || nodes >= cfg.node_limit {
                continue;
            }
            let Some(id) = tree.best() else { break };
            tree.begin_evaluation(id);
            nodes += 1;
            pending.push((slot, id));
        }

        // Batched domain propagation across the refill batch: one fused
        // `prop.*` kernel-trio sequence tightens every lane's box; boxes
        // that propagate to a contradiction settle without any PDHG work.
        let mut loads: Vec<(usize, NodeId, Vec<BoundChange>)> = Vec::new();
        let mut settled_by_prop = 0usize;
        if cfg.propagate {
            let p = propagator.as_ref().expect("propagator built");
            let mut boxes: Vec<(Vec<f64>, Vec<f64>)> = pending
                .iter()
                .map(|&(_, id)| p.node_box(&tree.node(id).data.bounds))
                .collect();
            let outs = p.propagate_wave(&accel, &mut boxes, cfg.propagate_rounds);
            for ((&(slot, id), out), (plb, pub_)) in pending.iter().zip(&outs).zip(&boxes) {
                aux.incr(names::PROP_NODES, 1.0);
                aux.incr(names::PROP_ROUNDS, out.rounds as f64);
                aux.incr(names::PROP_TIGHTENINGS, out.tightenings as f64);
                if out.infeasible {
                    aux.incr(names::PROP_INFEASIBLE, 1.0);
                    tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
                    settled_by_prop += 1;
                } else {
                    loads.push((slot, id, p.bound_changes(plb, pub_)));
                }
            }
        } else {
            for &(slot, id) in &pending {
                loads.push((slot, id, tree.node(id).data.bounds.clone()));
            }
        }

        for (slot, id, bounds) in loads {
            let warm = tree.data_mut(id).parent_iterates.take();
            let mut lb = std.lb.clone();
            let mut ub = std.ub.clone();
            for bc in &bounds {
                lb[bc.var] = bc.lb;
                ub[bc.var] = bc.ub;
            }
            if filled_once[slot] {
                fo.note_refill();
            }
            filled_once[slot] = true;
            let warm_ref = warm.as_ref().map(|(x, y)| (x.as_slice(), y.as_slice()));
            fo.load_lane(slot, id as u64, &lb, &ub, warm_ref)?;
            in_flight[slot] = Some(id);
        }

        if !fo.any_busy() && in_flight.iter().all(Option::is_none) {
            // A refill batch fully settled by propagation leaves no lane
            // busy while the frontier may still hold work: refill again.
            if settled_by_prop > 0 && tree.has_active() && nodes < cfg.node_limit {
                continue;
            }
            break;
        }

        for slot in fo.run_to_retire() {
            let id = in_flight[slot].take().expect("retired slot was in flight");
            let report = fo.take_lane(slot)?;
            debug_assert_eq!(report.token, id as u64);
            match report.outcome {
                FoOutcome::Infeasible => {
                    tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
                }
                FoOutcome::BoundPruned => {
                    // The safe bound never undercuts the node optimum, so
                    // pruning on it can never cut off a true optimum.
                    tree.settle(id, NodeState::Pruned, report.safe_bound);
                }
                FoOutcome::Converged | FoOutcome::IterLimit => {
                    // Exact host cleanup before the tree acts on the node.
                    cleanup.apply_node_bounds(&tree.node(id).data.bounds.clone())?;
                    let sol = cleanup.solve()?;
                    fo.note_cleanup(sol.iterations);
                    match sol.status {
                        LpStatus::Infeasible => {
                            tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
                        }
                        LpStatus::Unbounded => {
                            return Err(gmip_lp::LpError::Shape(
                                "unbounded node in first-order wave solve".into(),
                            ));
                        }
                        LpStatus::Optimal => {
                            let bound = internal(sol.objective);
                            let inc = incumbent
                                .as_ref()
                                .map(|(v, _)| *v)
                                .unwrap_or(f64::NEG_INFINITY);
                            if bound <= inc + cfg.prune_tol {
                                tree.settle(id, NodeState::Pruned, bound);
                                continue;
                            }
                            let frac: Vec<usize> = integral
                                .iter()
                                .copied()
                                .filter(|&j| (sol.x[j] - sol.x[j].round()).abs() > cfg.int_tol)
                                .collect();
                            if frac.is_empty() {
                                tree.settle(id, NodeState::Feasible, bound);
                                let mut p = sol.x.clone();
                                for &j in &integral {
                                    p[j] = p[j].round();
                                }
                                incumbent = Some((bound, p));
                                first_incumbent_ns.get_or_insert_with(|| accel.elapsed_ns());
                                tree.prune_dominated(bound, cfg.prune_tol);
                                // In-flight lanes start pruning against
                                // the new incumbent at their next check.
                                fo.set_cutoff(bound + cfg.prune_tol);
                                continue;
                            }
                            // Seed the fix-and-propagate wave with this
                            // fractional retiree (one seed per lane).
                            if cfg.heuristic_period > 0 && heur_seeds.len() < width {
                                heur_seeds.push((tree.node(id).data.bounds.clone(), sol.x.clone()));
                            }
                            since_heur += 1;
                            let d = branch::decide(
                                crate::config::BranchRule::MostFractional,
                                instance,
                                &sol.x,
                                &frac,
                                &branch::PseudoCosts::default(),
                            );
                            let parent_bounds = tree.node(id).data.bounds.clone();
                            let (mut lo, mut hi) =
                                (instance.vars[d.var].lb, instance.vars[d.var].ub);
                            for bc in &parent_bounds {
                                if bc.var == d.var {
                                    lo = bc.lb;
                                    hi = bc.ub;
                                }
                            }
                            let warm = Some((report.x.clone(), report.y.clone()));
                            let mk = |up: bool| {
                                let mut b = parent_bounds.clone();
                                let label = if up {
                                    b.push(BoundChange {
                                        var: d.var,
                                        lb: d.up_lb,
                                        ub: hi,
                                    });
                                    format!("x{} ≥ {}", d.var, d.up_lb)
                                } else {
                                    b.push(BoundChange {
                                        var: d.var,
                                        lb: lo,
                                        ub: d.down_ub,
                                    });
                                    format!("x{} ≤ {}", d.var, d.down_ub)
                                };
                                (
                                    label,
                                    FoPayload {
                                        bounds: b,
                                        parent_iterates: warm.clone(),
                                    },
                                )
                            };
                            tree.branch(id, bound, vec![mk(false), mk(true)]);
                        }
                    }
                }
            }
        }

        // Batched fix-and-propagate across the collected frontier seeds:
        // one fused dive wave, best improving candidate becomes an early
        // incumbent and immediately cuts off in-flight lanes.
        if cfg.heuristic_period > 0 && since_heur >= cfg.heuristic_period && !heur_seeds.is_empty()
        {
            let p = propagator.as_ref().expect("propagator built");
            let staged: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = heur_seeds
                .drain(..)
                .map(|(bounds, x)| {
                    let (lb, ub) = p.node_box(&bounds);
                    (x, lb, ub)
                })
                .collect();
            let seeds: Vec<gmip_prop::DiveSeed<'_>> = staged
                .iter()
                .map(|(x, lb, ub)| gmip_prop::DiveSeed {
                    x0: x,
                    lb0: lb,
                    ub0: ub,
                })
                .collect();
            let outs = p.dive_wave(&accel, &seeds, cfg.int_tol, cfg.propagate_rounds);
            let mut rounds = Vec::with_capacity(outs.len());
            let mut best: Option<(f64, Vec<f64>)> = None;
            for out in outs {
                rounds.push(out.rounds.max(1));
                aux.incr(names::HEUR_ATTEMPTS, 1.0);
                aux.incr(names::HEUR_REPAIRS, out.repairs as f64);
                if out.aborted {
                    aux.incr(names::HEUR_ABORTS, 1.0);
                }
                if let Some((obj, pt)) = out.candidate {
                    let cand = internal(obj);
                    if best.as_ref().map(|(b, _)| cand > *b).unwrap_or(true) {
                        best = Some((cand, pt));
                    }
                }
            }
            gmip_prop::charge_wave(&accel, p.nnz(), p.num_vars(), &rounds);
            since_heur = 0;
            if let Some((cand, pt)) = best {
                let cur = incumbent
                    .as_ref()
                    .map(|(v, _)| *v)
                    .unwrap_or(f64::NEG_INFINITY);
                if cand > cur + cfg.prune_tol {
                    incumbent = Some((cand, pt));
                    first_incumbent_ns.get_or_insert_with(|| accel.elapsed_ns());
                    aux.incr(names::HEUR_INCUMBENTS, 1.0);
                    tree.prune_dominated(cand, cfg.prune_tol);
                    fo.set_cutoff(cand + cfg.prune_tol);
                }
            }
        }
    }

    let status = if tree.has_active() || in_flight.iter().any(Option::is_some) {
        MipStatus::NodeLimit
    } else if incumbent.is_some() {
        MipStatus::Optimal
    } else {
        MipStatus::Infeasible
    };
    let (objective, x) = match incumbent {
        Some((v, p)) => (
            match instance.objective {
                Objective::Maximize => v,
                Objective::Minimize => -v,
            },
            p,
        ),
        None => (f64::NAN, Vec::new()),
    };

    let mut metrics = accel.metrics();
    let fo_counters = fo.take_metrics();
    metrics.merge(&fo_counters);
    metrics.merge(&cleanup.take_metrics());
    metrics.merge(&aux);
    // Real wall-clock of the executing backend (`wall.*`, empty under the
    // simulator) — reported, but never part of the byte-determinism
    // surface: diffs and bench gates skip the namespace.
    metrics.merge(&accel.wall_metrics());
    if let Some(t) = first_incumbent_ns {
        metrics.set_gauge(names::HEUR_FIRST_INCUMBENT_NS, t);
    }
    let peak = accel.with(|d| d.memory().peak());
    Ok(WaveResult {
        status,
        objective,
        x,
        nodes,
        supersteps: fo_counters.counter(names::FO_SUPERSTEPS) as usize,
        retires: fo_counters.counter(names::FO_RETIRES) as usize,
        refills: fo_counters.counter(names::FO_REFILLS) as usize,
        width,
        makespan_ns: accel.elapsed_ns(),
        device: accel.stats(),
        peak_device_bytes: peak,
        metrics,
        first_incumbent_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wave::{solve_batched_wave, BatchedWaveConfig};
    use gmip_problems::catalog::textbook_mip;
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};
    use gmip_trace::MetricsRegistry;

    #[test]
    fn first_order_matches_brute_force() {
        for seed in [1u64, 5] {
            let m = knapsack(13, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_first_order_wave(
                &m,
                &FirstOrderWaveConfig {
                    lanes: 3,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: {} vs {expected}",
                r.objective
            );
            assert!(m.is_integer_feasible(&r.x, 1e-5), "seed {seed}");
        }
    }

    #[test]
    fn textbook_first_order() {
        let r = solve_first_order_wave(
            &textbook_mip(),
            &FirstOrderWaveConfig::default(),
            Accel::gpu(1),
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6);
        assert!(r.supersteps > 0);
        assert!(r.retires >= r.nodes, "every node's lane must retire");
    }

    #[test]
    fn matches_batched_simplex_wave_objective() {
        let m = knapsack(14, 0.5, 7);
        let fo = solve_first_order_wave(
            &m,
            &FirstOrderWaveConfig {
                lanes: 4,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        let sx = solve_batched_wave(
            &m,
            &BatchedWaveConfig {
                lanes: 4,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        assert!((fo.objective - sx.objective).abs() < 1e-6);
    }

    #[test]
    fn deterministic_metrics_across_reruns() {
        let m = knapsack(13, 0.5, 3);
        let run = || {
            let r = solve_first_order_wave(
                &m,
                &FirstOrderWaveConfig {
                    lanes: 4,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap();
            let mut counters: Vec<(String, String)> = r
                .metrics
                .counters()
                .map(|(k, v)| (k.to_string(), format!("{v:?}")))
                .collect();
            counters.sort();
            (
                format!("{:?}", r.objective),
                r.nodes,
                r.supersteps,
                format!("{:?}", r.makespan_ns),
                counters,
            )
        };
        assert_eq!(run(), run(), "byte-identical replay under a fixed seed");
        let _ = MetricsRegistry::new();
    }

    #[test]
    fn propagation_and_heuristic_preserve_the_optimum() {
        for seed in [2u64, 6] {
            let m = knapsack(13, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_first_order_wave(
                &m,
                &FirstOrderWaveConfig {
                    lanes: 4,
                    propagate: true,
                    heuristic_period: 2,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap();
            assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - expected).abs() < 1e-6,
                "seed {seed}: {} vs {expected}",
                r.objective
            );
            assert!(r.metrics.counter(names::PROP_NODES) >= r.nodes as f64);
            assert!(r.first_incumbent_ns.is_some());
        }
    }

    #[test]
    fn native_backend_matches_sim_byte_for_byte() {
        // The executing backend must be invisible to everything but
        // `wall.*`: same optimum, same node count, bitwise-equal simulated
        // makespan, identical counters — at every thread count.
        let m = knapsack(13, 0.5, 5);
        let run = |backend: BackendKind| {
            let r = solve_first_order_wave(
                &m,
                &FirstOrderWaveConfig {
                    lanes: 4,
                    propagate: true,
                    heuristic_period: 2,
                    backend,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap();
            let mut counters: Vec<(String, String)> = r
                .metrics
                .counters()
                .filter(|(k, _)| !k.starts_with("wall."))
                .map(|(k, v)| (k.to_string(), format!("{v:?}")))
                .collect();
            counters.sort();
            (
                format!("{:?}", r.objective),
                r.nodes,
                format!("{:?}", r.makespan_ns),
                counters,
            )
        };
        let sim = run(BackendKind::Sim);
        for threads in [1, 2, 4] {
            assert_eq!(
                run(BackendKind::Native { threads }),
                sim,
                "native @ {threads} threads"
            );
        }
    }

    #[test]
    fn node_limit_respected() {
        let m = knapsack(22, 0.5, 9);
        let r = solve_first_order_wave(
            &m,
            &FirstOrderWaveConfig {
                lanes: 2,
                node_limit: 6,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::NodeLimit);
        assert!(r.nodes <= 8);
    }
}
