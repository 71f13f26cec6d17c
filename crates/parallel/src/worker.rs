//! A worker rank: one accelerator, one engine, evaluating assigned nodes.
//!
//! Each worker is the paper's Strategy-2 unit: its LP matrix is uploaded to
//! its device **once** at initialization; every assignment then reuses the
//! device-resident matrix with a warm dual re-solve (Sections 5.1/5.3). The
//! worker reports the evaluation outcome and how much simulated device time
//! it consumed, which the discrete-event supervisor uses to schedule.

use crate::comm::{Assignment, NodeReport};
use gmip_core::search::{NodeHook, NodeOutcome, PropCharge, Rules};
use gmip_core::DEFAULT_PROPAGATE_ROUNDS;
use gmip_gpu::{Accel, CostModel, DeviceConfig};
use gmip_lp::{DeviceEngine, LpResult, LpSolver, StandardLp};
use gmip_problems::MipInstance;

/// Margin of the worker-side prune against the incumbent value shipped with
/// the assignment. The supervisor re-tests every `Branch` report against its
/// *current* incumbent with [`gmip_core::search::PRUNE_TOL`]; the rank only
/// cuts what is dominated beyond rounding noise.
const REPORT_PRUNE_TOL: f64 = 1e-9;

/// A worker rank in the simulated cluster.
#[derive(Debug)]
pub struct Worker {
    /// Rank id (0-based).
    pub id: usize,
    accel: Accel,
    /// The rank's node-LP solver: one device kernel launch per simplex
    /// call against the matrix uploaded at construction.
    lp: LpSolver<DeviceEngine>,
    /// The rank's judging rules: [`Rules::new`]'s, with the prune tolerance
    /// overridden to [`REPORT_PRUNE_TOL`].
    rules: Rules,
    /// Completion time of this worker's last assignment (DES bookkeeping).
    pub busy_until: f64,
    /// Accumulated busy simulated time.
    pub busy_ns: f64,
    /// Nodes evaluated.
    pub nodes: usize,
    /// Evaluation slowdown factor (1.0 = healthy). Set by the fault
    /// injector while this rank sits in a straggler window: the reported
    /// `eval_ns` is multiplied by this, modeling a thermally-throttled or
    /// contended device.
    pub slowdown: f64,
    /// Propagates every assignment's box before its LP and dives from every
    /// `heuristic_period`-th branched node, as the config says; holds this
    /// rank's `prop.*` / `heur.*` counters.
    hook: NodeHook,
}

impl Worker {
    /// Rank `id` of a cluster configured by `cfg`, with its own simulated
    /// device and the instance's LP matrix uploaded to it. The config picks
    /// the propagation and dive cadence. A rank's fused lane dispatches are
    /// one lane wide, so they run on the calling thread: a rank takes no
    /// executing backend.
    pub(crate) fn for_rank(
        id: usize,
        instance: &MipInstance,
        cfg: &crate::supervisor::ParallelConfig,
    ) -> LpResult<Self> {
        // Each rank's device gets its own trace track group, so a Perfetto
        // view shows one GPU timeline per worker.
        let accel = Accel::gpu_with(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: cfg.gpu_mem,
            streams: 1,
        })
        .with_trace_group(gmip_trace::TrackGroup::Gpu(id as u16));
        let std = StandardLp::from_instance(instance, &[]);
        let factory_accel = accel.clone();
        let lp = LpSolver::try_new(std, cfg.lp.clone(), |a| DeviceEngine::new(factory_accel, a))?;
        // One-lane batches: one body per dispatch.
        let hook = NodeHook::new(
            instance,
            cfg.propagate,
            DEFAULT_PROPAGATE_ROUNDS,
            cfg.heuristic_period,
            1,
            PropCharge::Batch(accel.clone()),
        );
        let mut rules = Rules::new(instance);
        rules.prune_tol = REPORT_PRUNE_TOL;
        Ok(Self {
            id,
            accel,
            lp,
            rules,
            hook,
            busy_until: 0.0,
            busy_ns: 0.0,
            nodes: 0,
            slowdown: 1.0,
        })
    }

    /// The worker's device (stats queries).
    pub fn accel(&self) -> &Accel {
        &self.accel
    }

    /// Combined `gpu.*` + `lp.*` + `prop.*` / `heur.*` metrics of this rank.
    pub fn metrics(&self) -> gmip_trace::MetricsRegistry {
        let mut m = self.accel.metrics();
        m.merge(self.lp.metrics());
        m.merge(&self.hook.metrics);
        m
    }

    /// Evaluates an assignment, returning the report. The simulated device
    /// time consumed is measured as the device-frontier delta.
    pub fn evaluate(&mut self, a: &Assignment) -> LpResult<NodeReport> {
        let t0 = self.accel.elapsed_ns();
        let mut report = self.decide(a)?;
        self.nodes += 1;
        report.eval_ns = (self.accel.elapsed_ns() - t0) * self.slowdown.max(1.0);
        self.busy_ns += report.eval_ns;
        Ok(report)
    }

    /// What the report says: the node's outcome, a branch's basis, the LP
    /// iterations spent on it and any dive candidate riding along
    /// (`eval_ns` is the caller's).
    fn decide(&mut self, a: &Assignment) -> LpResult<NodeReport> {
        let mut report = NodeReport {
            node_id: a.node_id,
            outcome: NodeOutcome::Infeasible,
            basis: None,
            eval_ns: 0.0,
            lp_iterations: 0,
            heur: None,
        };
        // Domain propagation before any LP work: infeasible boxes settle
        // with `prop.*` kernel charges only, feasible ones tighten.
        let Some(bounds) = self.hook.tighten_one(&a.bounds) else {
            return Ok(report);
        };
        let (mut sol, basis) = self.lp.solve_node(&bounds, a.warm_basis.clone())?;
        report.lp_iterations = sol.iterations;
        report.outcome = self.rules.judge(&mut sol, a.incumbent)?;
        if !matches!(report.outcome, NodeOutcome::Branch { .. }) {
            return Ok(report);
        }
        report.basis = basis;
        // Fix-and-propagate dive on branched nodes, every
        // `heuristic_period`-th evaluation (`nodes` counts this one once the
        // report is built): the candidate rides along in the report and
        // feeds the supervisor's incumbent-broadcast path.
        if self.hook.dive_due(self.nodes + 1) {
            let heur = &mut report.heur;
            self.hook
                .dive(&self.rules, &[(&bounds, &sol.x)], |internal, pt| {
                    let improves = internal > a.incumbent + REPORT_PRUNE_TOL;
                    if improves {
                        *heur = Some((internal, pt));
                    }
                    improves
                });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::ParallelConfig;
    use gmip_lp::BoundChange;
    use gmip_problems::catalog::textbook_mip;

    /// Rank 0 on a 16 MiB device.
    fn mk_worker() -> Worker {
        let cfg = ParallelConfig {
            gpu_mem: 1 << 24,
            ..Default::default()
        };
        Worker::for_rank(0, &textbook_mip(), &cfg).unwrap()
    }

    #[test]
    fn root_evaluation_branches() {
        let mut w = mk_worker();
        let report = w
            .evaluate(&Assignment {
                node_id: 0,
                bounds: vec![],
                warm_basis: None,
                incumbent: f64::NEG_INFINITY,
            })
            .unwrap();
        match report.outcome {
            NodeOutcome::Branch { bound, decision } => {
                assert!((bound - 21.0).abs() < 1e-6);
                assert_eq!(decision.var, 1); // y = 1.5 fractional
            }
            other => panic!("expected branch, got {other:?}"),
        }
        assert!(report.basis.is_some(), "a branch ships its basis");
        assert!(report.eval_ns > 0.0);
        assert_eq!(w.nodes, 1);
    }

    #[test]
    fn incumbent_prunes_on_worker() {
        let mut w = mk_worker();
        let report = w
            .evaluate(&Assignment {
                node_id: 0,
                bounds: vec![],
                warm_basis: None,
                incumbent: 25.0, // better than the LP bound 21
            })
            .unwrap();
        assert!(matches!(report.outcome, NodeOutcome::Pruned { .. }));
    }

    #[test]
    fn fixed_bounds_give_integer_feasible() {
        let mut w = mk_worker();
        let report = w
            .evaluate(&Assignment {
                node_id: 3,
                bounds: vec![
                    BoundChange {
                        var: 0,
                        lb: 4.0,
                        ub: 4.0,
                    },
                    BoundChange {
                        var: 1,
                        lb: 0.0,
                        ub: 0.0,
                    },
                ],
                warm_basis: None,
                incumbent: f64::NEG_INFINITY,
            })
            .unwrap();
        match report.outcome {
            NodeOutcome::Integral { bound, ref x } => {
                assert!((bound - 20.0).abs() < 1e-6);
                assert!((x[0] - 4.0).abs() < 1e-6);
            }
            other => panic!("expected integer feasible, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_bounds_detected() {
        let mut w = mk_worker();
        let report = w
            .evaluate(&Assignment {
                node_id: 9,
                bounds: vec![BoundChange {
                    var: 0,
                    lb: 5.0,
                    ub: 10.0,
                }],
                warm_basis: None,
                incumbent: f64::NEG_INFINITY,
            })
            .unwrap();
        assert!(matches!(report.outcome, NodeOutcome::Infeasible));
    }

    #[test]
    fn straggler_slowdown_scales_eval_time() {
        let assignment = Assignment {
            node_id: 0,
            bounds: vec![],
            warm_basis: None,
            incumbent: f64::NEG_INFINITY,
        };
        let mut healthy = mk_worker();
        let fast = healthy.evaluate(&assignment).unwrap().eval_ns;
        let mut straggler = mk_worker();
        straggler.slowdown = 4.0;
        let slow = straggler.evaluate(&assignment).unwrap().eval_ns;
        assert!((slow - 4.0 * fast).abs() < 1e-6, "{slow} vs 4×{fast}");
        assert!((straggler.busy_ns - 4.0 * healthy.busy_ns).abs() < 1e-6);
    }

    #[test]
    fn matrix_uploaded_once_across_assignments() {
        let mut w = mk_worker();
        for ub in [4, 3, 2] {
            w.evaluate(&Assignment {
                node_id: ub,
                bounds: vec![BoundChange {
                    var: 0,
                    lb: 0.0,
                    ub: ub as f64,
                }],
                warm_basis: None,
                incumbent: f64::NEG_INFINITY,
            })
            .unwrap();
        }
        // Matrix (the largest object) went up once; subsequent traffic is
        // small vectors. 3 extra full-matrix uploads would at least double
        // the total.
        let bytes = w.accel().stats().h2d_bytes;
        let matrix = (2 * 8 * 8) as u64; // extended 2x(4+... rough floor
        assert!(
            bytes < 40 * matrix,
            "H2D bytes {bytes} look like re-uploads"
        );
    }
}
