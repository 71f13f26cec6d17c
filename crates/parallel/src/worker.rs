//! A worker rank: one accelerator, one engine, evaluating assigned nodes.
//!
//! Each worker is the paper's Strategy-2 unit: its LP matrix is uploaded to
//! its device **once** at initialization; every assignment then reuses the
//! device-resident matrix with a warm dual re-solve (Sections 5.1/5.3). The
//! worker reports the evaluation outcome and how much simulated device time
//! it consumed, which the discrete-event supervisor uses to schedule.

use crate::comm::{Assignment, NodeOutcome, NodeReport};
use gmip_core::search::{NodeHook, PropCharge, Rules, Verdict};
use gmip_core::DEFAULT_PROPAGATE_ROUNDS;
use gmip_gpu::{Accel, DeviceConfig};
use gmip_lp::wave::BatchedWaveEngine;
use gmip_lp::{
    wave_width, Basis, BoundChange, DeviceEngine, FirstOrderWaveEngine, HostEngine, LpResult,
    LpSolution, LpSolver, LpStatus, PdhgConfig, RecordingEngine, StandardLp,
};
use gmip_problems::MipInstance;

/// The worker's LP execution backend.
#[derive(Debug)]
enum LpBackend {
    /// One device kernel launch per simplex operation (the Strategy-2
    /// baseline).
    PerKernel(Box<LpSolver<DeviceEngine>>),
    /// The batched wave evaluator: the node LP runs on the host reference
    /// engine while journaling its device kernels, then the journal replays
    /// through fused batched launches on this rank's device, with a
    /// device-resident warm-basis pool (Sections 4.3, 5.5 opt-in).
    Wave {
        lp: Box<LpSolver<RecordingEngine>>,
        wave: Box<BatchedWaveEngine>,
        slot: usize,
    },
    /// The first-order (restarted PDHG) evaluator: the node LP iterates as
    /// fused SpMV/axpy launches against this rank's device-resident CSR
    /// matrix, states a safe dual bound (early incumbent prunes without
    /// solving to optimality), and converged lanes are finished by exact
    /// host simplex before the outcome is reported.
    FirstOrder {
        fo: Box<FirstOrderWaveEngine>,
        cleanup: Box<LpSolver<HostEngine>>,
        slot: usize,
    },
}

/// Margin of the worker-side prune against the incumbent value shipped with
/// the assignment. The supervisor re-tests every `Branch` report against its
/// *current* incumbent with the configured prune tolerance; the rank only
/// cuts what is dominated beyond rounding noise.
const REPORT_PRUNE_TOL: f64 = 1e-9;

/// A worker rank in the simulated cluster.
#[derive(Debug)]
pub struct Worker {
    /// Rank id (0-based).
    pub id: usize,
    accel: Accel,
    backend: LpBackend,
    /// The rank's verdict rules: the instance's sense and integral indices,
    /// the configured `int_tol`, and [`REPORT_PRUNE_TOL`].
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
    /// the LP backend — `first_order_lanes: Some(n)` the restarted-PDHG
    /// evaluator with up to `n` lane reservations, else `batched_lanes:
    /// Some(n)` the batched wave evaluator (both clamped by device memory
    /// next to the shared matrix), else per-kernel device simplex — who
    /// executes the rank's fused lane dispatches (simulated charges are
    /// identical either way), and the propagation and dive cadence.
    pub(crate) fn for_rank(
        id: usize,
        instance: &MipInstance,
        cfg: &crate::supervisor::ParallelConfig,
    ) -> LpResult<Self> {
        // Each rank's device gets its own trace track group, so a Perfetto
        // view shows one GPU timeline per worker.
        let accel = Accel::gpu_with(DeviceConfig {
            cost: cfg.gpu_cost.clone(),
            mem_capacity: cfg.gpu_mem,
            streams: 1,
        })
        .with_trace_group(gmip_trace::TrackGroup::Gpu(id as u16))
        .with_backend(cfg.backend);
        let std = StandardLp::from_instance(instance, &[]);
        let backend = match (cfg.first_order_lanes, cfg.batched_lanes) {
            (Some(lanes), _) => {
                let csr_bytes = gmip_linalg::CsrMatrix::from_dense(&std.a).size_bytes();
                let width = wave_width(
                    lanes,
                    cfg.gpu_mem,
                    csr_bytes,
                    FirstOrderWaveEngine::per_lane_bytes(std.m(), std.n()),
                );
                let fo =
                    FirstOrderWaveEngine::new(accel.clone(), &std, width, PdhgConfig::default())?;
                let cleanup =
                    LpSolver::new(std.clone(), cfg.lp.clone(), |a| HostEngine::new(a.clone()));
                LpBackend::FirstOrder {
                    fo: Box::new(fo),
                    cleanup: Box::new(cleanup),
                    slot: 0,
                }
            }
            (None, None) => {
                let factory_accel = accel.clone();
                LpBackend::PerKernel(Box::new(LpSolver::try_new(std, cfg.lp.clone(), |a| {
                    DeviceEngine::new(factory_accel, a)
                })?))
            }
            (None, Some(lanes)) => {
                let mut ext = None;
                let lp = LpSolver::new(std, cfg.lp.clone(), |a| {
                    ext = Some(a.clone());
                    RecordingEngine::new(a.clone())
                });
                let ext = ext.expect("engine factory runs during solver construction");
                let width = wave_width(
                    lanes,
                    cfg.gpu_mem,
                    ext.size_bytes(),
                    BatchedWaveEngine::per_lane_bytes(ext.rows(), ext.cols()),
                );
                let wave = BatchedWaveEngine::new(accel.clone(), &ext, width, 1 << 18)?;
                LpBackend::Wave {
                    lp: Box::new(lp),
                    wave: Box::new(wave),
                    slot: 0,
                }
            }
        };
        // One-lane batches through the rank's executing backend.
        let hook = NodeHook::new(
            instance,
            cfg.propagate,
            DEFAULT_PROPAGATE_ROUNDS,
            cfg.heuristic_period,
            1,
            PropCharge::Batch(accel.clone()),
        );
        Ok(Self {
            id,
            accel,
            backend,
            rules: Rules::new(instance, cfg.int_tol, REPORT_PRUNE_TOL),
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

    /// Combined `gpu.*` + `lp.*` (and, on the wave backend, `wave.*` /
    /// `batch.*`) metrics of this rank.
    pub fn metrics(&self) -> gmip_trace::MetricsRegistry {
        let mut m = self.accel.metrics();
        match &self.backend {
            LpBackend::PerKernel(lp) => m.merge(lp.metrics()),
            LpBackend::Wave { lp, wave, .. } => {
                m.merge(lp.metrics());
                m.merge(wave.metrics());
            }
            LpBackend::FirstOrder { fo, cleanup, .. } => {
                m.merge(fo.metrics());
                m.merge(cleanup.metrics());
            }
        }
        m.merge(&self.hook.metrics);
        m
    }

    /// Runs one node LP, under `bounds`, on whichever backend the rank was
    /// built with.
    fn solve_assignment(
        &mut self,
        a: &Assignment,
        bounds: &[BoundChange],
    ) -> LpResult<(LpSolution, Option<Basis>)> {
        match &mut self.backend {
            LpBackend::PerKernel(lp) => lp.solve_node(bounds, a.warm_basis.clone()),
            LpBackend::Wave { lp, wave, slot } => {
                // The basis is pooled under the node id: a reassigned or
                // re-dispatched node hits instead of re-uploading.
                let warm = a.warm_basis.clone().map(|b| (b, a.node_id as u64));
                let out = wave.journal_node(lp, *slot, bounds, warm)?;
                while wave.any_busy() {
                    wave.superstep();
                }
                // Successive assignments rotate the lane state.
                *slot = (*slot + 1) % wave.width();
                Ok(out)
            }
            LpBackend::FirstOrder { fo, cleanup, slot } => {
                // The lane prunes itself the moment its safe bound drops
                // to the incumbent — matching the report-side prune rule.
                fo.set_cutoff(a.incumbent);
                fo.load_lane(*slot, a.node_id as u64, bounds, None)?;
                fo.run_to_retire();
                let (sol, _) = fo.finish_lane(*slot, cleanup, bounds)?;
                *slot = (*slot + 1) % fo.width();
                Ok((sol, None))
            }
        }
    }

    /// Evaluates an assignment, returning the report. The simulated device
    /// time consumed is measured as the device-frontier delta.
    pub fn evaluate(&mut self, a: &Assignment) -> LpResult<NodeReport> {
        let t0 = self.accel.elapsed_ns();
        let (outcome, lp_iterations, heur) = self.decide(a)?;
        self.nodes += 1;
        let eval_ns = (self.accel.elapsed_ns() - t0) * self.slowdown.max(1.0);
        self.busy_ns += eval_ns;
        Ok(NodeReport {
            node_id: a.node_id,
            outcome,
            eval_ns,
            lp_iterations,
            heur,
        })
    }

    /// What the report says: the node's outcome, the LP iterations spent on
    /// it and any dive candidate riding along.
    fn decide(
        &mut self,
        a: &Assignment,
    ) -> LpResult<(NodeOutcome, usize, Option<(f64, Vec<f64>)>)> {
        // Domain propagation before any LP work: infeasible boxes settle
        // with `prop.*` kernel charges only, feasible ones tighten.
        let Some(bounds) = self.hook.tighten(&[&a.bounds]).pop().flatten() else {
            return Ok((NodeOutcome::Infeasible, 0, None));
        };
        let (sol, basis) = self.solve_assignment(a, &bounds)?;
        let outcome = match sol.status {
            LpStatus::Infeasible => NodeOutcome::Infeasible,
            LpStatus::Unbounded => {
                return Err(gmip_lp::LpError::Shape(
                    "worker LP unbounded under branch bounds".into(),
                ))
            }
            LpStatus::Optimal => {
                let internal = self.rules.internal(sol.objective);
                match self.rules.verdict(internal, &sol.x, a.incumbent) {
                    Verdict::Pruned => NodeOutcome::Pruned { bound: internal },
                    Verdict::Integral => NodeOutcome::IntegerFeasible {
                        internal,
                        x: sol.x.clone(),
                    },
                    Verdict::Fractional { decision, .. } => NodeOutcome::Branch {
                        bound: internal,
                        var: decision.var,
                        value: decision.value,
                        basis,
                    },
                }
            }
        };
        // Fix-and-propagate dive on branched nodes, every
        // `heuristic_period`-th evaluation (`nodes` counts this one once the
        // report is built): the candidate rides along in the report and
        // feeds the supervisor's incumbent-broadcast path.
        let mut heur: Option<(f64, Vec<f64>)> = None;
        if self.hook.dive_due(self.nodes + 1) && matches!(outcome, NodeOutcome::Branch { .. }) {
            self.hook
                .dive(&self.rules, &[(&bounds, &sol.x)], |internal, pt| {
                    let improves = internal > a.incumbent + REPORT_PRUNE_TOL;
                    if improves {
                        heur = Some((internal, pt));
                    }
                    improves
                });
        }
        Ok((outcome, sol.iterations, heur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::ParallelConfig;
    use gmip_lp::BoundChange;
    use gmip_problems::catalog::textbook_mip;

    /// Rank 0 on a 16 MiB device, LP backend as the lane options say.
    fn mk_rank(batched_lanes: Option<usize>, first_order_lanes: Option<usize>) -> Worker {
        let cfg = ParallelConfig {
            gpu_mem: 1 << 24,
            batched_lanes,
            first_order_lanes,
            ..Default::default()
        };
        Worker::for_rank(0, &textbook_mip(), &cfg).unwrap()
    }

    fn mk_worker() -> Worker {
        mk_rank(None, None)
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
            NodeOutcome::Branch { bound, var, .. } => {
                assert!((bound - 21.0).abs() < 1e-6);
                assert_eq!(var, 1); // y = 1.5 fractional
            }
            other => panic!("expected branch, got {other:?}"),
        }
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
            NodeOutcome::IntegerFeasible { internal, ref x } => {
                assert!((internal - 20.0).abs() < 1e-6);
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

    /// A rank evaluates one node at a time, so its wave has no second lane
    /// to fuse with: the wave backend buys a rank nothing in launches (its
    /// journal books one launch per kernel class a call touches, the
    /// per-kernel engine one per call) — what it must do is take the same
    /// pivots to the same outcome.
    #[test]
    fn wave_backend_matches_per_kernel() {
        let mk = |lanes: Option<usize>| mk_rank(lanes, None);
        let assignments = [
            Assignment {
                node_id: 0,
                bounds: vec![],
                warm_basis: None,
                incumbent: f64::NEG_INFINITY,
            },
            Assignment {
                node_id: 1,
                bounds: vec![BoundChange {
                    var: 1,
                    lb: 0.0,
                    ub: 1.0,
                }],
                warm_basis: None,
                incumbent: f64::NEG_INFINITY,
            },
        ];
        let mut per_kernel = mk(None);
        let mut wave = mk(Some(2));
        for a in &assignments {
            let rk = per_kernel.evaluate(a).unwrap();
            let rw = wave.evaluate(a).unwrap();
            // Same pivot path, same outcome.
            match (&rk.outcome, &rw.outcome) {
                (
                    NodeOutcome::Branch {
                        bound: bk, var: vk, ..
                    },
                    NodeOutcome::Branch {
                        bound: bw, var: vw, ..
                    },
                ) => {
                    assert!((bk - bw).abs() < 1e-9);
                    assert_eq!(vk, vw);
                }
                (k, w) => assert_eq!(
                    std::mem::discriminant(k),
                    std::mem::discriminant(w),
                    "{k:?} vs {w:?}"
                ),
            }
            assert_eq!(rk.lp_iterations, rw.lp_iterations);
        }
        assert!(wave.metrics().counter("wave.fused_launches") > 0.0);
    }

    #[test]
    fn first_order_backend_matches_per_kernel_outcomes() {
        let mk_fo = || mk_rank(None, Some(2));
        // Root relaxation: exact cleanup makes the branch decision match
        // the per-kernel simplex worker exactly.
        let root = Assignment {
            node_id: 0,
            bounds: vec![],
            warm_basis: None,
            incumbent: f64::NEG_INFINITY,
        };
        let mut fo = mk_fo();
        let r = fo.evaluate(&root).unwrap();
        match r.outcome {
            NodeOutcome::Branch { bound, var, .. } => {
                assert!((bound - 21.0).abs() < 1e-6);
                assert_eq!(var, 1);
            }
            other => panic!("expected branch, got {other:?}"),
        }
        // A dominating incumbent: the lane retires on its safe bound
        // after a handful of PDHG iterations, never reaching optimality.
        let mut fo = mk_fo();
        let r = fo
            .evaluate(&Assignment {
                node_id: 1,
                bounds: vec![],
                warm_basis: None,
                incumbent: 25.0,
            })
            .unwrap();
        assert!(matches!(r.outcome, NodeOutcome::Pruned { .. }));
        assert!(
            fo.metrics().counter("fo.bound_pruned") >= 1.0,
            "prune must come from the safe-bound path"
        );
        // Infeasible branch bounds are caught at lane load.
        let mut fo = mk_fo();
        let r = fo
            .evaluate(&Assignment {
                node_id: 2,
                bounds: vec![BoundChange {
                    var: 0,
                    lb: 5.0,
                    ub: 10.0,
                }],
                warm_basis: None,
                incumbent: f64::NEG_INFINITY,
            })
            .unwrap();
        assert!(matches!(r.outcome, NodeOutcome::Infeasible));
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
