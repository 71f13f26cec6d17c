//! Batched-wave branch and bound on one device — Section 5.5 with the
//! Section 4.3 kernel shape.
//!
//! Where [`crate::concurrent::solve_concurrent`] keeps one engine (and one
//! private matrix copy) per lane and joins every wave at a device-wide
//! `synchronize()`, this driver runs the [`gmip_lp::BatchedWaveEngine`]:
//! all lanes share one device-resident `[A | I]` matrix, every simplex
//! kernel class is issued as a single fused batched launch per lockstep
//! superstep, and lanes that finish their node LP retire at a stream-event
//! boundary and are refilled from the best-bound frontier immediately — no
//! lane ever waits in a join-all for the slowest lane of its wave.
//!
//! The wave width is auto-sized from device memory
//! ([`gmip_lp::wave_width`], the paper's `batch ≈ device_mem / matrix_mem`
//! rule), and parent bases are kept device-resident in an LRU pool so a
//! child's warm start is usually a pool hit instead of an H2D upload.

use crate::branch;
use crate::solver::MipStatus;
use gmip_gpu::{Accel, BackendKind, DeviceStats};
use gmip_linalg::batch::batch_size_bytes;
use gmip_linalg::DenseMatrix;
use gmip_lp::wave::BatchedWaveEngine;
use gmip_lp::{
    wave_width, Basis, BoundChange, LpConfig, LpResult, LpSolution, LpSolver, LpStatus,
    RecordingEngine, StandardLp,
};
use gmip_problems::{MipInstance, Objective};
use gmip_trace::{names, MetricsRegistry};
use gmip_tree::{NodeId, NodeState, SearchTree};

/// Configuration of the batched-wave solver.
#[derive(Debug, Clone)]
pub struct BatchedWaveConfig {
    /// Requested wave width (lanes); the effective width is clamped by
    /// device memory next to the shared matrix.
    pub lanes: usize,
    /// LP tolerances.
    pub lp: LpConfig,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Pruning tolerance.
    pub prune_tol: f64,
    /// Node budget.
    pub node_limit: usize,
    /// Byte budget of the device-resident warm-basis pool.
    pub basis_pool_bytes: usize,
    /// Run batched domain propagation (`prop.*` kernel trios over the
    /// shared CSR matrix) on every refilled lane's box before its node LP.
    /// Off by default — opt-in, so committed baselines stay valid.
    pub propagate: bool,
    /// Propagation round cap per lane.
    pub propagate_rounds: usize,
    /// Run the batched fix-and-propagate dive across the collected frontier
    /// seeds every this many retired nodes; `0` disables it.
    pub heuristic_period: usize,
    /// Which executing backend runs the fused lane dispatches (the
    /// `prop.*` / `heur.*` waves here; simplex lanes journal on the host
    /// either way). Simulated charges are identical across backends.
    pub backend: BackendKind,
}

impl Default for BatchedWaveConfig {
    fn default() -> Self {
        Self {
            lanes: 4,
            lp: LpConfig::standard(),
            int_tol: 1e-6,
            prune_tol: 1e-6,
            node_limit: 100_000,
            basis_pool_bytes: 1 << 20,
            propagate: false,
            propagate_rounds: 8,
            heuristic_period: 0,
            backend: BackendKind::Sim,
        }
    }
}

/// Result of a batched-wave solve.
#[derive(Debug)]
pub struct WaveResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Incumbent objective (source sense; NaN if none).
    pub objective: f64,
    /// Incumbent point.
    pub x: Vec<f64>,
    /// Nodes evaluated.
    pub nodes: usize,
    /// Lockstep supersteps executed.
    pub supersteps: usize,
    /// Lanes retired mid-flight (node LPs completed).
    pub retires: usize,
    /// Retired lanes refilled from the frontier without a barrier.
    pub refills: usize,
    /// Effective wave width after memory auto-sizing.
    pub width: usize,
    /// Device completion frontier, ns.
    pub makespan_ns: f64,
    /// Device ledger.
    pub device: DeviceStats,
    /// Peak device memory — one shared matrix plus per-lane state, so
    /// roughly flat in lanes (contrast `solve_concurrent`'s linear growth).
    pub peak_device_bytes: usize,
    /// Merged counters: device ledger + `wave.*`/`batch.*` + per-lane LP.
    pub metrics: MetricsRegistry,
    /// Device time of the first incumbent, ns (`None` if the solve never
    /// found one) — the E12 time-to-first-incumbent measure.
    pub first_incumbent_ns: Option<f64>,
}

/// Node payload of the batched-wave tree: bounds, the parent's basis for a
/// warm start, and the parent's id (the warm-basis pool key — both children
/// share it, so the second child is a pool hit).
#[derive(Debug, Clone, Default)]
struct WavePayload {
    bounds: Vec<BoundChange>,
    parent_basis: Option<Basis>,
    parent_id: NodeId,
}

/// Solves `instance` with a batched lockstep wave of up to `cfg.lanes` node
/// LPs on `accel`.
pub fn solve_batched_wave(
    instance: &MipInstance,
    cfg: &BatchedWaveConfig,
    accel: Accel,
) -> LpResult<WaveResult> {
    assert!(cfg.lanes >= 1, "need at least one lane");
    let accel = accel.with_backend(cfg.backend);
    let std = StandardLp::from_instance(instance, &[]);

    // Lane 0 doubles as the probe that captures the extended matrix the
    // solver lowers to, so the shared upload and the width sizing see the
    // exact `[A | I]` the engines iterate on.
    let mut ext: Option<DenseMatrix> = None;
    let mut lanes: Vec<LpSolver<RecordingEngine>> = vec![LpSolver::new(
        std.clone(),
        cfg.lp.clone(),
        |a: &DenseMatrix| {
            ext = Some(a.clone());
            RecordingEngine::new(a.clone())
        },
    )];
    let ext = ext.expect("engine factory runs during solver construction");

    let matrix_bytes = batch_size_bytes(std::slice::from_ref(&ext));
    let per_lane = BatchedWaveEngine::per_lane_bytes(ext.rows(), ext.cols());
    let width = wave_width(cfg.lanes, accel.mem_capacity(), matrix_bytes, per_lane);
    for _ in 1..width {
        lanes.push(LpSolver::new(std.clone(), cfg.lp.clone(), |a| {
            RecordingEngine::new(a.clone())
        }));
    }
    lanes.truncate(width);
    let mut wave = BatchedWaveEngine::new(accel.clone(), &ext, width, cfg.basis_pool_bytes)?;

    let internal = |source: f64| match instance.objective {
        Objective::Maximize => source,
        Objective::Minimize => -source,
    };
    let node_bytes = (instance.num_cons() + 2 * instance.num_vars()) * 8 + 128;
    let mut tree: SearchTree<WavePayload> =
        SearchTree::with_root(WavePayload::default(), node_bytes);
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let mut nodes = 0usize;
    let integral = instance.integral_indices();

    // The outcome a slot's in-flight lane will deliver when it retires.
    let mut in_flight: Vec<Option<(NodeId, LpSolution, Option<Basis>)>> =
        (0..width).map(|_| None).collect();
    let mut filled_once = vec![false; width];

    // Domain propagation + fix-and-propagate support (gmip-prop).
    let propagator =
        (cfg.propagate || cfg.heuristic_period > 0).then(|| gmip_prop::Propagator::new(instance));
    let mut aux = MetricsRegistry::default();
    let mut first_incumbent_ns: Option<f64> = None;
    // Fractional retiree seeds awaiting the next heuristic wave, and the
    // retire count since it last ran.
    let mut heur_seeds: Vec<(Vec<BoundChange>, Vec<f64>)> = Vec::new();
    let mut since_heur = 0usize;

    loop {
        // Refill every idle slot from the best-bound frontier: the lane's
        // host planner takes the reference pivot path eagerly (journaling
        // the device kernels), and the journal joins the wave in flight —
        // no barrier, no waiting on busier lanes.
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

        // Batched domain propagation across the whole refill batch: every
        // lane's box tightens in one fused `prop.*` kernel-trio sequence;
        // boxes that propagate to a contradiction settle without spending a
        // lane (or any simplex work) on them.
        let mut loads: Vec<(usize, NodeId, Vec<BoundChange>)> = Vec::new();
        let mut settled_by_prop = 0usize;
        if cfg.propagate {
            let p = propagator.as_ref().expect("propagator built");
            let mut boxes: Vec<(Vec<f64>, Vec<f64>)> = pending
                .iter()
                .map(|&(_, id)| p.node_box(&tree.node(id).data.bounds))
                .collect();
            let outs = p.propagate_wave(&accel, &mut boxes, cfg.propagate_rounds);
            for ((&(slot, id), out), (lb, ub)) in pending.iter().zip(&outs).zip(&boxes) {
                aux.incr(names::PROP_NODES, 1.0);
                aux.incr(names::PROP_ROUNDS, out.rounds as f64);
                aux.incr(names::PROP_TIGHTENINGS, out.tightenings as f64);
                if out.infeasible {
                    aux.incr(names::PROP_INFEASIBLE, 1.0);
                    tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
                    settled_by_prop += 1;
                } else {
                    loads.push((slot, id, p.bound_changes(lb, ub)));
                }
            }
        } else {
            for &(slot, id) in &pending {
                let bounds = tree.node(id).data.bounds.clone();
                loads.push((slot, id, bounds));
            }
        }

        for (slot, id, bounds) in loads {
            let warm = tree.data_mut(id).parent_basis.take();
            let parent_id = tree.node(id).data.parent_id;
            let lane = &mut lanes[slot];
            lane.apply_node_bounds(&bounds)?;
            let sol = match warm {
                Some(b) if b.n() == lane.standard().n() + lane.standard().m() => {
                    wave.touch_basis(parent_id as u64, 8 * (b.m() + b.n()))?;
                    lane.set_warm_basis(b)?;
                    lane.resolve()?
                }
                Some(_) | None => lane.solve()?,
            };
            let basis = lane.basis().cloned();
            let ops = lane.engine_mut().take_ops();
            if filled_once[slot] {
                wave.note_refill();
            }
            filled_once[slot] = true;
            wave.load_lane(slot, ops);
            in_flight[slot] = Some((id, sol, basis));
        }

        if !wave.any_busy() {
            // A refill batch fully settled by propagation leaves no lane
            // busy while the frontier may still hold work: refill again.
            if settled_by_prop > 0 && tree.has_active() && nodes < cfg.node_limit {
                continue;
            }
            break;
        }

        // Advance the wave until at least one lane retires, then fold the
        // retired outcomes; busy lanes keep their in-flight journals.
        for slot in wave.run_to_retire() {
            let (id, sol, basis) = in_flight[slot].take().expect("retired slot was in flight");
            match sol.status {
                LpStatus::Infeasible => tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY),
                LpStatus::Unbounded => {
                    return Err(gmip_lp::LpError::Shape(
                        "unbounded node in batched wave solve".into(),
                    ))
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
                        continue;
                    }
                    // Seed the fix-and-propagate wave with this fractional
                    // retiree (bounded backlog: one seed per lane).
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
                    let (mut lo, mut hi) = (instance.vars[d.var].lb, instance.vars[d.var].ub);
                    for bc in &parent_bounds {
                        if bc.var == d.var {
                            lo = bc.lb;
                            hi = bc.ub;
                        }
                    }
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
                            WavePayload {
                                bounds: b,
                                parent_basis: basis.clone(),
                                parent_id: id,
                            },
                        )
                    };
                    tree.branch(id, bound, vec![mk(false), mk(true)]);
                }
            }
        }

        // Batched fix-and-propagate: once enough fractional retirees have
        // accumulated, dive from every collected seed in one fused wave
        // (round → propagate → repair or abort per lane) and install the
        // best improving candidate as an early incumbent.
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
    metrics.merge(wave.metrics());
    let wave_counters = wave.metrics().clone();
    for lane in &mut lanes {
        metrics.merge(&lane.take_metrics());
    }
    metrics.merge(&aux);
    // Real wall-clock of the executing backend (`wall.*`, empty under the
    // simulator) — outside the byte-determinism surface.
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
        supersteps: wave_counters.counter(names::WAVE_SUPERSTEPS) as usize,
        retires: wave_counters.counter(names::WAVE_RETIRES) as usize,
        refills: wave_counters.counter(names::WAVE_REFILLS) as usize,
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
    use crate::concurrent::{solve_concurrent, ConcurrentConfig};
    use gmip_problems::catalog::textbook_mip;
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

    #[test]
    fn batched_matches_brute_force() {
        for seed in [1u64, 5] {
            let m = knapsack(13, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_batched_wave(
                &m,
                &BatchedWaveConfig {
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
    fn textbook_batched() {
        let r = solve_batched_wave(
            &textbook_mip(),
            &BatchedWaveConfig::default(),
            Accel::gpu(1),
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6);
        assert!(r.supersteps > 0);
        assert!(r.retires >= r.nodes, "every node's lane must retire");
    }

    #[test]
    fn fewer_launches_and_ns_than_per_lane_concurrent() {
        let m = knapsack(16, 0.5, 7);
        for lanes in [4usize, 8] {
            let per_lane = solve_concurrent(
                &m,
                &ConcurrentConfig {
                    lanes,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap();
            let batched = solve_batched_wave(
                &m,
                &BatchedWaveConfig {
                    lanes,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap();
            assert!((batched.objective - per_lane.objective).abs() < 1e-6);
            assert!(
                batched.device.kernel_launches < per_lane.device.kernel_launches,
                "lanes {lanes}: {} vs {}",
                batched.device.kernel_launches,
                per_lane.device.kernel_launches
            );
            assert!(
                batched.makespan_ns < per_lane.makespan_ns,
                "lanes {lanes}: {} vs {}",
                batched.makespan_ns,
                per_lane.makespan_ns
            );
        }
    }

    #[test]
    fn shared_matrix_keeps_memory_flat() {
        let m = knapsack(16, 0.5, 7);
        let narrow = solve_batched_wave(
            &m,
            &BatchedWaveConfig {
                lanes: 1,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        let wide = solve_batched_wave(
            &m,
            &BatchedWaveConfig {
                lanes: 8,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        assert!((narrow.objective - wide.objective).abs() < 1e-6);
        assert_eq!(wide.width, 8);
        // Widening 8× adds only per-lane state, not matrix copies.
        assert!(wide.peak_device_bytes < 2 * narrow.peak_device_bytes);
    }

    #[test]
    fn native_backend_matches_sim_byte_for_byte() {
        let m = knapsack(12, 0.5, 4);
        let run = |backend: BackendKind| {
            let r = solve_batched_wave(
                &m,
                &BatchedWaveConfig {
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
        for threads in [1, 3] {
            assert_eq!(
                run(BackendKind::Native { threads }),
                sim,
                "native @ {threads} threads"
            );
        }
    }

    #[test]
    fn propagation_and_heuristic_preserve_the_optimum() {
        for seed in [2u64, 6, 11] {
            let m = knapsack(14, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_batched_wave(
                &m,
                &BatchedWaveConfig {
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
            assert!(m.is_integer_feasible(&r.x, 1e-5), "seed {seed}");
            assert!(r.metrics.counter(names::PROP_NODES) >= r.nodes as f64);
            assert!(r.first_incumbent_ns.is_some());
            assert_eq!(
                r.metrics.gauge(names::HEUR_FIRST_INCUMBENT_NS),
                r.first_incumbent_ns.unwrap()
            );
        }
    }

    #[test]
    fn propagation_settles_infeasible_instances_without_lp_work() {
        use gmip_problems::catalog::infeasible_instance;
        let r = solve_batched_wave(
            &infeasible_instance(),
            &BatchedWaveConfig {
                lanes: 2,
                propagate: true,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(r.metrics.counter(names::PROP_INFEASIBLE) >= 1.0);
    }

    #[test]
    fn node_limit_respected() {
        let m = knapsack(22, 0.5, 9);
        let r = solve_batched_wave(
            &m,
            &BatchedWaveConfig {
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
