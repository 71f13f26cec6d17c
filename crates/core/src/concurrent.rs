//! Wave-based concurrent node evaluation on a single device — Section 5.5
//! realized at the solver level.
//!
//! "In modern GPUs, the memory capacity has increased sufficiently to
//! consider housing and solving multiple branch-and-cut nodes concurrently
//! on the same GPU … the linear algebra services on the GPU must support
//! concurrent launches of multiple sub-problems on the same GPU. Such …
//! support is offered on the NVIDIA GPUs with the concept of streams."
//!
//! [`solve_concurrent`] keeps `lanes` independent LP engines on **one**
//! device, each bound to its own stream (and each holding its own copy of
//! the matrix — the paper's memory-for-concurrency trade), as a lane set of
//! the wave loop ([`crate::wave`]). Every superstep, up to `lanes`
//! best-bound nodes are dispatched; their warm dual re-solves overlap in
//! simulated device time — their link crossings and kernel bodies, that is:
//! the lanes' launches leave through the device's one launch-issue queue —
//! and the superstep joins at a device synchronize. The node limit is
//! checked per lane, so a superstep never overshoots it.
//!
//! It reads the whole [`WaveConfig`] (but `pdhg`), as the other two lane
//! drivers do: the node hook's propagation and dive run as batches on the
//! device, and the lanes keep one engine each. Cuts stay off, as on every
//! wave; the full-featured sequential orchestrator is [`crate::MipSolver`].

use crate::wave::{run_wave, LaneSet, WaveConfig, WaveResult};
use gmip_gpu::Accel;
use gmip_lp::{Basis, BoundChange, DeviceEngine, LpResult, LpSolution, LpSolver, StandardLp};
use gmip_problems::MipInstance;
use gmip_trace::MetricsRegistry;
use gmip_tree::NodeId;

/// Per-lane engines, each on its own stream: a lane solves its node LP as
/// it is loaded and retires at the superstep's synchronize.
struct EngineLanes {
    accel: Accel,
    lanes: Vec<LpSolver<DeviceEngine>>,
    /// The outcome each loaded lane delivers when it retires.
    solved: Vec<Option<(LpSolution, Option<Basis>)>>,
    /// `[supersteps, retires, refills]` so far.
    counts: [usize; 3],
}

impl LaneSet for EngineLanes {
    type Warm = Option<Basis>;

    fn load(
        &mut self,
        slot: usize,
        _id: NodeId,
        bounds: &[BoundChange],
        warm: Self::Warm,
        refill: bool,
    ) -> LpResult<()> {
        self.counts[1] += 1;
        self.counts[2] += usize::from(refill);
        self.solved[slot] = Some(self.lanes[slot].solve_node(bounds, warm)?);
        Ok(())
    }

    fn busy(&self) -> bool {
        self.solved.iter().any(Option::is_some)
    }

    fn run_to_retire(&mut self, retired: &mut Vec<usize>) {
        // Streams meet at the frontier: every loaded lane is done.
        self.accel.with(|d| d.synchronize());
        self.counts[0] += 1;
        retired.extend((0..self.solved.len()).filter(|&slot| self.solved[slot].is_some()));
    }

    fn retire(
        &mut self,
        slot: usize,
        _node_bounds: &[BoundChange],
    ) -> LpResult<(LpSolution, Self::Warm)> {
        Ok(self.solved[slot]
            .take()
            .expect("retired slot was in flight"))
    }

    fn merge_metrics(&mut self, into: &mut MetricsRegistry) -> [usize; 3] {
        for lane in &mut self.lanes {
            into.merge(&lane.take_metrics());
        }
        self.counts
    }
}

/// Solves `instance` with `cfg.lanes` concurrent engines on `accel`. Its
/// peak device memory grows ≈ linearly with lanes: one matrix copy each —
/// the Section 5.5 sizing rule.
pub fn solve_concurrent(
    instance: &MipInstance,
    cfg: &WaveConfig,
    accel: Accel,
) -> LpResult<WaveResult> {
    assert!(cfg.lanes >= 1, "need at least one lane");
    let accel = accel.with_backend(cfg.backend);
    let std = StandardLp::from_instance(instance, &[]);
    // One engine per lane, each on its own stream, each with its own matrix
    // copy in device memory.
    let mut lanes: Vec<LpSolver<DeviceEngine>> = Vec::with_capacity(cfg.lanes);
    for i in 0..cfg.lanes {
        let stream = if i == 0 {
            gmip_gpu::DEFAULT_STREAM
        } else {
            accel.with(|d| d.create_stream())
        };
        let factory_accel = accel.clone();
        lanes.push(LpSolver::try_new(std.clone(), cfg.lp.clone(), |a| {
            DeviceEngine::new_on_stream(factory_accel, a, stream)
        })?);
    }
    let solved = (0..cfg.lanes).map(|_| None).collect();
    let lanes = EngineLanes {
        accel: accel.clone(),
        lanes,
        solved,
        counts: [0; 3],
    };
    run_wave(instance, cfg, accel, cfg.lanes, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::MipStatus;
    use gmip_problems::catalog::textbook_mip;
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};
    use gmip_trace::names;

    #[test]
    fn concurrent_matches_brute_force() {
        for seed in [1u64, 5] {
            let m = knapsack(13, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_concurrent(
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
        }
    }

    #[test]
    fn textbook_concurrent() {
        let r = solve_concurrent(&textbook_mip(), &WaveConfig::default(), Accel::gpu(1)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6);
        assert!(r.supersteps <= r.nodes);
    }

    #[test]
    fn more_lanes_fewer_waves_and_lower_makespan() {
        let m = knapsack(18, 0.5, 3);
        let one = solve_concurrent(
            &m,
            &WaveConfig {
                lanes: 1,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        let four = solve_concurrent(
            &m,
            &WaveConfig {
                lanes: 4,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        assert!((one.objective - four.objective).abs() < 1e-6);
        assert!(
            four.supersteps < one.supersteps,
            "lanes should compress waves"
        );
        assert!(
            four.makespan_ns < one.makespan_ns,
            "overlap should cut the makespan: {} vs {}",
            four.makespan_ns,
            one.makespan_ns
        );
        // Memory trade: more lanes park more matrix copies on the device.
        assert!(four.peak_device_bytes > one.peak_device_bytes);
    }

    #[test]
    fn propagation_and_heuristic_preserve_the_optimum() {
        for seed in [2u64, 6, 11] {
            let m = knapsack(14, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_concurrent(
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
            assert!(m.is_integer_feasible(&r.x, 1e-5), "seed {seed}");
            assert!(r.metrics.counter(names::PROP_NODES) >= r.nodes as f64);
            assert!(r.first_incumbent_ns.is_some());
        }
    }

    #[test]
    fn node_limit_respected() {
        let m = knapsack(22, 0.5, 9);
        let r = solve_concurrent(
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
}
