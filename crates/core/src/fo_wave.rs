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

use crate::search::{NodeHook, PropCharge, Rules};
use crate::wave::{run_wave, LaneSet, WaveResult};
use gmip_gpu::{Accel, BackendKind};
use gmip_linalg::CsrMatrix;
use gmip_lp::{
    wave_width, BoundChange, FirstOrderWaveEngine, HostEngine, LpConfig, LpResult, LpSolution,
    LpSolver, PdhgConfig, StandardLp,
};
use gmip_problems::MipInstance;
use gmip_trace::{names, MetricsRegistry};
use gmip_tree::NodeId;

/// Configuration of the first-order wave solver.
#[derive(Debug, Clone)]
pub struct FirstOrderWaveConfig {
    /// Requested wave width (lanes); clamped by device memory next to the
    /// shared CSR matrix.
    pub lanes: usize,
    /// PDHG tuning (tolerance, restart factor, check cadence).
    pub pdhg: PdhgConfig,
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
            node_limit: 100_000,
            propagate: false,
            propagate_rounds: crate::DEFAULT_PROPAGATE_ROUNDS,
            heuristic_period: 0,
            backend: BackendKind::Sim,
        }
    }
}

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

    fn run_to_retire(&mut self) -> Vec<usize> {
        self.fo.run_to_retire()
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
    cfg: &FirstOrderWaveConfig,
    accel: Accel,
) -> LpResult<WaveResult> {
    assert!(cfg.lanes >= 1, "need at least one lane");
    let accel = accel.with_backend(cfg.backend);
    let std = StandardLp::from_instance(instance, &[]);

    let matrix_bytes = CsrMatrix::from_dense(&std.a).size_bytes();
    let per_lane = FirstOrderWaveEngine::per_lane_bytes(std.m(), std.n());
    let width = wave_width(cfg.lanes, accel.mem_capacity(), matrix_bytes, per_lane);
    let fo = FirstOrderWaveEngine::new(accel.clone(), &std, width, cfg.pdhg.clone())?;
    let cleanup = LpSolver::new(std, LpConfig::standard(), |a| HostEngine::new(a.clone()));
    let hook = NodeHook::new(
        instance,
        cfg.propagate,
        cfg.propagate_rounds,
        cfg.heuristic_period,
        width,
        PropCharge::Batch(accel.clone()),
    );
    let rules = Rules::new(instance);
    let lanes = PdhgLanes { fo, cleanup };
    run_wave(instance, rules, hook, cfg.node_limit, accel, width, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::MipStatus;
    use crate::wave::tests::fingerprint;
    use crate::wave::{solve_batched_wave, BatchedWaveConfig};
    use gmip_problems::catalog::textbook_mip;
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

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
            let cfg = FirstOrderWaveConfig {
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
            let cfg = FirstOrderWaveConfig {
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
