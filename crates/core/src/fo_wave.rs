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
//! Three properties were expected to make it beat the simplex wave at high
//! lane counts. Since the simplex wave fuses by lane state, E11
//! (`BENCH_e11.json`) shows that wave ahead at every width; ROADMAP item 18
//! asks where, if anywhere, this one wins:
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

use crate::wave::{run_wave, LaneSet, WaveConfig, WaveResult};
use gmip_gpu::Accel;
use gmip_linalg::CsrMatrix;
use gmip_lp::{
    wave_width, BoundChange, FirstOrderWaveEngine, HostEngine, LpResult, LpSolution, LpSolver,
    StandardLp,
};
use gmip_problems::MipInstance;
use gmip_trace::{names, MetricsRegistry};
use gmip_tree::NodeId;

/// PDHG lanes with exact host cleanup. The warm artifact is the parent's
/// averaged `(x, y)` iterates (both children share them — an iterate warm
/// start, not a basis). Converged lanes are finished by one host simplex
/// solver per wave: lanes retire one at a time at stream-event boundaries,
/// so a single host solver serves them all — the paper's CPU-delegation
/// rule for sequential tails.
struct PdhgLanes {
    fo: FirstOrderWaveEngine,
    cleanup: LpSolver<HostEngine>,
}

impl LaneSet for PdhgLanes {
    type Warm = Option<(Vec<f64>, Vec<f64>)>;

    fn load(
        &mut self,
        slot: usize,
        id: NodeId,
        bounds: &[BoundChange],
        warm: Self::Warm,
        refill: bool,
    ) -> LpResult<()> {
        if refill {
            self.fo.note_refill();
        }
        let warm = warm.as_ref().map(|(x, y)| (x.as_slice(), y.as_slice()));
        self.fo.load_lane(slot, id as u64, bounds, warm)
    }

    fn busy(&self) -> bool {
        // A lane that retired at load (an empty box) is not iterating but
        // still has to be collected.
        (0..self.fo.width()).any(|slot| !self.fo.lane_idle(slot))
    }

    fn run_to_retire(&mut self, retired: &mut Vec<usize>) {
        retired.extend_from_slice(self.fo.run_to_retire());
    }

    fn retire(
        &mut self,
        slot: usize,
        node_bounds: &[BoundChange],
    ) -> LpResult<(LpSolution, Self::Warm)> {
        let (sol, lane) = self.fo.finish_lane(slot, &mut self.cleanup, node_bounds)?;
        Ok((sol, Some((lane.x, lane.y))))
    }

    fn set_cutoff(&mut self, cutoff: f64) {
        self.fo.set_cutoff(cutoff);
    }

    fn merge_metrics(&mut self, into: &mut MetricsRegistry) -> [usize; 3] {
        let c = self.fo.take_metrics();
        into.merge(&c);
        into.merge(&self.cleanup.take_metrics());
        [
            c.counter(names::FO_SUPERSTEPS) as usize,
            c.counter(names::FO_RETIRES) as usize,
            c.counter(names::FO_REFILLS) as usize,
        ]
    }
}

/// Solves `instance` with a lockstep restarted-PDHG wave of up to
/// `cfg.lanes` node LPs on `accel`, with exact host-simplex cleanup of
/// converged lanes before branching.
pub fn solve_first_order_wave(
    instance: &MipInstance,
    cfg: &WaveConfig,
    accel: Accel,
) -> LpResult<WaveResult> {
    assert!(cfg.lanes >= 1, "need at least one lane");
    let accel = accel.with_backend(cfg.backend);
    let std = StandardLp::from_instance(instance, &[]);

    let matrix_bytes = CsrMatrix::from_dense(&std.a).size_bytes();
    let per_lane = FirstOrderWaveEngine::per_lane_bytes(std.m(), std.n());
    let width = wave_width(cfg.lanes, accel.mem_capacity(), matrix_bytes, per_lane);
    let fo = FirstOrderWaveEngine::new(accel.clone(), &std, width, cfg.pdhg.clone())?;
    let cleanup = LpSolver::new(std, cfg.lp.clone(), |a| HostEngine::new(a.clone()));
    run_wave(instance, cfg, accel, width, PdhgLanes { fo, cleanup })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Rules;
    use crate::solver::MipStatus;
    use crate::wave::solve_batched_wave;
    use crate::wave::tests::fingerprint;
    use gmip_gpu::BackendKind;
    use gmip_lp::{LpConfig, PdhgConfig};
    use gmip_problems::catalog::textbook_mip;
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

    #[test]
    fn first_order_matches_brute_force() {
        for seed in [1u64, 5] {
            let m = knapsack(13, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_first_order_wave(
                &m,
                &WaveConfig {
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
        let r =
            solve_first_order_wave(&textbook_mip(), &WaveConfig::default(), Accel::gpu(1)).unwrap();
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
            &WaveConfig {
                lanes: 4,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        let sx = solve_batched_wave(
            &m,
            &WaveConfig {
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
            let cfg = WaveConfig {
                lanes: 4,
                ..Default::default()
            };
            fingerprint(&solve_first_order_wave(&m, &cfg, Accel::gpu(1)).unwrap())
        };
        assert_eq!(run(), run(), "byte-identical replay under a fixed seed");
    }

    #[test]
    fn propagation_and_heuristic_preserve_the_optimum() {
        for seed in [2u64, 6] {
            let m = knapsack(13, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_first_order_wave(
                &m,
                &WaveConfig {
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
            let cfg = WaveConfig {
                lanes: 4,
                propagate: true,
                heuristic_period: 2,
                backend,
                ..Default::default()
            };
            fingerprint(&solve_first_order_wave(&m, &cfg, Accel::gpu(1)).unwrap())
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
            &WaveConfig {
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

    /// A lane retired on its safe bound, or infeasible at load, ships no
    /// iterates, and its node never branches: `Rules::judge` closes it
    /// against the incumbent whose cutoff retired it, so the empty warm
    /// start is never handed to a child.
    #[test]
    fn a_lane_that_ships_no_iterates_never_branches() {
        use crate::search::NodeOutcome;
        let m = knapsack(13, 0.5, 3);
        let rules = Rules::new(&m);
        let std = StandardLp::from_instance(&m, &[]);
        let host = |a: &gmip_linalg::DenseMatrix| HostEngine::new(a.clone());
        let root = LpSolver::new(std.clone(), LpConfig::standard(), host)
            .solve()
            .unwrap();
        // An incumbent above the root relaxation dominates every node, and
        // no lane converges or reaches a cap first.
        let incumbent = rules.internal(root.objective) + 1.0;
        let pdhg = PdhgConfig {
            tol: 0.0,
            max_iters: usize::MAX,
        };
        let fo = FirstOrderWaveEngine::new(Accel::gpu(1), &std, 4, pdhg).unwrap();
        let cleanup = LpSolver::new(std, LpConfig::standard(), host);
        let mut lanes = PdhgLanes { fo, cleanup };
        lanes.set_cutoff(incumbent + rules.prune_tol);
        let fix = |var, v: f64| BoundChange { var, lb: v, ub: v };
        let boxes = [
            vec![],
            vec![fix(0, 0.0)],
            vec![fix(1, 1.0)],
            vec![fix(2, 1e6)],
        ];
        for (slot, node) in boxes.iter().enumerate() {
            lanes.load(slot, slot, node, None, false).unwrap();
        }
        let (mut retired, mut outcomes) = (Vec::new(), Vec::new());
        while lanes.busy() {
            lanes.run_to_retire(&mut retired);
            for slot in retired.drain(..) {
                let (mut sol, warm) = lanes.retire(slot, &boxes[slot]).unwrap();
                assert_eq!(warm, Some((Vec::new(), Vec::new())), "slot {slot}");
                let judged = rules.judge(&mut sol, incumbent).unwrap();
                assert!(
                    matches!(judged, NodeOutcome::Pruned { .. } | NodeOutcome::Infeasible),
                    "slot {slot}: {judged:?}"
                );
                outcomes.push(judged);
            }
        }
        assert_eq!(outcomes.len(), boxes.len());
        assert_eq!(
            outcomes[0],
            NodeOutcome::Infeasible,
            "the dead box retires first"
        );
        let c = lanes.fo.metrics();
        assert_eq!(c.counter(names::FO_BOUND_PRUNED), 3.0);
        assert_eq!(c.counter(names::FO_INFEASIBLE), 1.0);
    }
}
