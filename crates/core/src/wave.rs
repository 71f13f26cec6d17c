//! Batched-wave branch and bound on one device — Section 5.5 with the
//! Section 4.3 kernel shape.
//!
//! Where [`crate::concurrent::solve_concurrent`] keeps one engine (and one
//! private matrix copy) per lane and joins every superstep at a device-wide
//! `synchronize()`, this driver runs the [`gmip_lp::BatchedWaveEngine`]:
//! all lanes share one device-resident `[A | I]` matrix, each superstep
//! issues one fused batched launch of the simplex kernel class the most
//! lanes wait on, and lanes that finish their node LP retire at a stream-event
//! boundary and are refilled from the best-bound frontier immediately — no
//! lane ever waits in a join-all for the slowest lane of its wave.
//!
//! The wave width is auto-sized from device memory
//! ([`gmip_lp::wave_width`], the paper's `batch ≈ device_mem / matrix_mem`
//! rule), and the host side follows the same rule: one planner (one
//! `LpSolver`, one host matrix) takes every lane's pivot path, and a lane
//! keeps only what its device holds. A child warm-starts from its parent's
//! basis, which the tree holds: it reaches the device in the lane's
//! install, as a device engine's warm start does — the lane keeps the
//! device engine's install record, so what the basis changes of it rides
//! the install's kernel as launch arguments, and only an install with no
//! record behind it (a lane's first) uploads, in one of the superstep's
//! staged transfers. The whole solve crosses the link at most once per
//! superstep and direction, plus the matrix upload, and uploads about once
//! per lane.

use crate::search::{self, Incumbent, NodeHook, NodeOutcome, PropCharge, Rules};
use crate::solver::MipStatus;
use gmip_gpu::{Accel, BackendKind, DeviceStats};
use gmip_lp::wave::BatchedWaveEngine;
use gmip_lp::{
    wave_width, Basis, BoundChange, LpConfig, LpResult, LpSolution, LpSolver, PdhgConfig,
    RecordingEngine, StandardLp,
};
use gmip_problems::MipInstance;
use gmip_trace::{names, MetricsRegistry};
use gmip_tree::{NodeId, NodeState, SearchTree};
use std::borrow::Cow;

/// Configuration of the three lane drivers — [`solve_batched_wave`],
/// [`crate::solve_first_order_wave`] and [`crate::solve_concurrent`] — each
/// of which reads every field but `pdhg`, which only the PDHG lanes use.
/// Cuts stay off on every wave.
#[derive(Debug, Clone)]
pub struct WaveConfig {
    /// Requested wave width (lanes); the waves clamp it by device memory
    /// next to their shared matrix.
    pub lanes: usize,
    /// Simplex configuration: the simplex lanes' planner, the per-lane
    /// engines and the first-order wave's host cleanup.
    pub lp: LpConfig,
    /// PDHG tuning of the first-order lanes: the convergence tolerance and
    /// the per-lane iteration cap.
    pub pdhg: PdhgConfig,
    /// Node budget.
    pub node_limit: usize,
    /// Run batched domain propagation (`prop.*` kernel trios) on every
    /// refilled lane's box before its node LP. Off by default.
    pub propagate: bool,
    /// Propagation round cap per lane.
    pub propagate_rounds: usize,
    /// Run the batched fix-and-propagate dive across the collected frontier
    /// seeds every this many retired nodes; `0` disables it.
    pub heuristic_period: usize,
    /// Which executing backend runs the fused lane dispatches. Simulated
    /// charges, and so every traced ns, are identical across backends;
    /// `Native` also records real wall-clock under `wall.*`.
    pub backend: BackendKind,
}

impl Default for WaveConfig {
    fn default() -> Self {
        Self {
            lanes: 4,
            lp: LpConfig::standard(),
            pdhg: PdhgConfig::default(),
            node_limit: 100_000,
            propagate: false,
            propagate_rounds: crate::DEFAULT_PROPAGATE_ROUNDS,
            heuristic_period: 0,
            backend: BackendKind::Sim,
        }
    }
}

/// [`WaveConfig`] under the name `examples/wallbench` gives the simplex
/// wave's configuration.
pub type BatchedWaveConfig = WaveConfig;
/// [`WaveConfig`] under the name `examples/wallbench` gives the
/// first-order wave's configuration.
pub type FirstOrderWaveConfig = WaveConfig;

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
    /// Supersteps executed: fused launches or staged transfers on the
    /// waves, device-wide synchronizes on the per-lane baseline.
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
    /// Peak device memory — for the waves one shared matrix plus per-lane
    /// state, so roughly flat in lanes; for `solve_concurrent` one matrix
    /// copy per lane, so linear in lanes.
    pub peak_device_bytes: usize,
    /// Merged counters: device ledger + `wave.*`/`batch.*` + per-lane LP.
    pub metrics: MetricsRegistry,
    /// Device time of the first incumbent, ns (`None` if the solve never
    /// found one) — the E12 time-to-first-incumbent measure.
    pub first_incumbent_ns: Option<f64>,
}

/// A set of device lanes the wave loop keeps full: node LPs go in at
/// [`LaneSet::load`], advance together in [`LaneSet::run_to_retire`], and
/// come out exact at [`LaneSet::retire`]. Three implementors: journaled
/// simplex lanes (here), PDHG lanes with host cleanup ([`crate::fo_wave`])
/// and per-lane device engines ([`crate::concurrent`]).
pub(crate) trait LaneSet {
    /// What a branched node hands both children for their warm start.
    type Warm: Clone + Default;

    /// Starts node `id` (under `bounds`) in idle lane `slot`; `refill` says
    /// the slot has held a node before.
    fn load(
        &mut self,
        slot: usize,
        id: NodeId,
        bounds: &[BoundChange],
        warm: Self::Warm,
        refill: bool,
    ) -> LpResult<()>;

    /// Whether a loaded lane has not retired yet.
    fn busy(&self) -> bool;

    /// Advances the wave until at least one lane retires; fills `retired`
    /// (empty on entry) with the retired slots.
    fn run_to_retire(&mut self, retired: &mut Vec<usize>);

    /// Collects retired lane `slot`: the node's LP
    /// outcome — exact, or a dominated safe bound without a point (see
    /// [`gmip_lp::FirstOrderWaveEngine::finish_lane`]) — and the warm artifact
    /// its children share. `node_bounds` are the node's own (unpropagated)
    /// bounds, for an exact host finish.
    fn retire(
        &mut self,
        slot: usize,
        node_bounds: &[BoundChange],
    ) -> LpResult<(LpSolution, Self::Warm)>;

    /// A new incumbent: lanes that state bounds mid-flight start pruning
    /// against `cutoff` (internal sense) at their next check.
    fn set_cutoff(&mut self, _cutoff: f64) {}

    /// Merges the engine's and the lanes' counters into `into` and returns
    /// `[supersteps, retires, refills]`.
    fn merge_metrics(&mut self, into: &mut MetricsRegistry) -> [usize; 3];
}

/// Node payload of a wave tree: the node's bounds and its parent's warm
/// artifact.
#[derive(Debug, Clone, Default)]
struct WaveNode<W> {
    bounds: Vec<BoundChange>,
    warm: W,
}

/// Journaled-simplex lanes: one host planner takes each lane's reference
/// pivot path eagerly at load (journaling the device kernels), and the
/// journal replays in flight through fused batched launches. A lane keeps
/// only what its device holds, in the [`BatchedWaveEngine`]. The warm
/// artifact is the parent's basis, which both children share.
struct SimplexLanes {
    planner: LpSolver<RecordingEngine>,
    wave: BatchedWaveEngine,
    /// The outcome each in-flight lane will deliver when it retires.
    solved: Vec<Option<(LpSolution, Option<Basis>)>>,
}

impl LaneSet for SimplexLanes {
    type Warm = Option<Basis>;

    fn load(
        &mut self,
        slot: usize,
        _id: NodeId,
        bounds: &[BoundChange],
        warm: Self::Warm,
        refill: bool,
    ) -> LpResult<()> {
        if refill {
            self.wave.note_refill();
        }
        let out = self
            .wave
            .journal_node(&mut self.planner, slot, bounds, warm)?;
        self.solved[slot] = Some(out);
        Ok(())
    }

    fn busy(&self) -> bool {
        self.wave.any_busy()
    }

    fn run_to_retire(&mut self, retired: &mut Vec<usize>) {
        retired.extend_from_slice(self.wave.run_to_retire());
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
        into.merge(self.wave.metrics());
        into.merge(&self.planner.take_metrics());
        let c = self.wave.metrics();
        [
            c.counter(names::WAVE_SUPERSTEPS) as usize,
            c.counter(names::WAVE_RETIRES) as usize,
            c.counter(names::WAVE_REFILLS) as usize,
        ]
    }
}

/// Solves `instance` with a batched wave of up to `cfg.lanes` node
/// LPs on `accel`.
pub fn solve_batched_wave(
    instance: &MipInstance,
    cfg: &WaveConfig,
    accel: Accel,
) -> LpResult<WaveResult> {
    assert!(cfg.lanes >= 1, "need at least one lane");
    let accel = accel.with_backend(cfg.backend);
    let planner = LpSolver::new(
        StandardLp::from_instance(instance, &[]),
        cfg.lp.clone(),
        |a| RecordingEngine::new(a.clone()),
    );
    // The shared upload and the width sizing see the exact `[A | I]` the
    // planner iterates on.
    let ext = planner.matrix();
    let per_lane = BatchedWaveEngine::per_lane_bytes(ext.rows(), ext.cols());
    let width = wave_width(cfg.lanes, accel.mem_capacity(), ext.size_bytes(), per_lane);
    let wave = BatchedWaveEngine::new(accel.clone(), ext, width)?;
    let solved = (0..width).map(|_| None).collect();
    let lanes = SimplexLanes {
        planner,
        wave,
        solved,
    };
    run_wave(instance, cfg, accel, width, lanes)
}

/// The wave loop: refill idle lanes from the best-bound frontier →
/// batched `prop.*` over the refill batch → load → run to the next retire →
/// settle the retired nodes → `heur.*` dive wave → finish, over the `width`
/// lanes of `lanes` (the effective width after memory auto-sizing). Lanes that
/// finish their node LP retire at a stream-event boundary and are refilled
/// immediately; no lane waits in a join-all for the slowest of its wave.
/// It builds the drivers' `Rules` and their node hook from `cfg`: the hook
/// propagates every refill batch and dives from the fractional retirees'
/// backlog (one seed per lane), both as batches on `accel`.
pub(crate) fn run_wave<L: LaneSet>(
    instance: &MipInstance,
    cfg: &WaveConfig,
    accel: Accel,
    width: usize,
    mut lanes: L,
) -> LpResult<WaveResult> {
    let rules = Rules::new(instance);
    let mut hook = NodeHook::new(
        instance,
        cfg.propagate,
        cfg.propagate_rounds,
        cfg.heuristic_period,
        width,
        PropCharge::Batch(accel.clone()),
    );
    let mut tree: SearchTree<WaveNode<L::Warm>> =
        SearchTree::with_root(WaveNode::default(), search::node_bytes(instance));
    let mut incumbent = Incumbent::default();
    let mut nodes = 0usize;
    let mut in_flight: Vec<Option<NodeId>> = vec![None; width];
    let mut filled_once = vec![false; width];
    // Each pass's buffers, kept across passes: the refill batch (slot,
    // node, warm artifact), its boxes and their propagated bounds (both
    // borrowing the tree, so kept empty between passes), the nodes
    // propagation settled and the retired slots.
    let mut pending: Vec<(usize, NodeId, L::Warm)> = Vec::with_capacity(width);
    let mut batch_buf: Vec<&[BoundChange]> = Vec::with_capacity(width);
    let mut tightened_buf: Vec<Option<Cow<[BoundChange]>>> = Vec::with_capacity(width);
    let mut infeasible: Vec<NodeId> = Vec::with_capacity(width);
    let mut retired: Vec<usize> = Vec::with_capacity(width);

    loop {
        // Refill every idle slot from the best-bound frontier — no barrier,
        // no waiting on busier lanes.
        for slot in 0..width {
            if in_flight[slot].is_some() || nodes >= cfg.node_limit {
                continue;
            }
            let Some(id) = tree.best() else { break };
            tree.begin_evaluation(id);
            nodes += 1;
            let warm = std::mem::take(&mut tree.data_mut(id).warm);
            pending.push((slot, id, warm));
        }

        // Batched domain propagation across the whole refill batch: every
        // lane's box tightens in one fused `prop.*` kernel-trio sequence;
        // boxes that propagate to a contradiction settle without spending a
        // lane (or any LP work) on them.
        let mut batch = reuse(std::mem::take(&mut batch_buf));
        batch.extend(
            pending
                .iter()
                .map(|&(_, id, _)| tree.node(id).data.bounds.as_slice()),
        );
        let mut tightened = reuse(std::mem::take(&mut tightened_buf));
        hook.tighten(&batch, &mut tightened);
        for ((slot, id, warm), bounds) in pending.drain(..).zip(tightened.drain(..)) {
            let Some(bounds) = bounds else {
                infeasible.push(id);
                continue;
            };
            let refill = std::mem::replace(&mut filled_once[slot], true);
            lanes.load(slot, id, &bounds, warm, refill)?;
            in_flight[slot] = Some(id);
        }
        (batch_buf, tightened_buf) = (reuse(batch), reuse(tightened));
        let settled_by_prop = infeasible.len();
        for id in infeasible.drain(..) {
            tree.settle(id, NodeState::Infeasible, f64::NEG_INFINITY);
        }

        if !lanes.busy() {
            // A refill batch fully settled by propagation leaves no lane
            // busy while the frontier may still hold work: refill again.
            if settled_by_prop > 0 && tree.has_active() && nodes < cfg.node_limit {
                continue;
            }
            break;
        }

        // Advance the wave until at least one lane retires, then settle the
        // retired nodes; busy lanes stay in flight.
        lanes.run_to_retire(&mut retired);
        for slot in retired.drain(..) {
            let id = in_flight[slot].take().expect("retired slot was in flight");
            let (mut sol, warm) = lanes.retire(slot, &tree.node(id).data.bounds)?;
            // A lane's safe bound is judged like an exact one: it never
            // undercuts the node optimum, so pruning on it can never cut
            // off a true optimum.
            let outcome = rules.judge(&mut sol, incumbent.value())?;
            match search::settle(&rules, &mut tree, id, outcome, incumbent.value()) {
                NodeOutcome::Integral { bound, x } => {
                    incumbent.install(&rules, &mut tree, bound, x, || accel.elapsed_ns());
                    lanes.set_cutoff(bound + rules.prune_tol);
                }
                NodeOutcome::Branch { bound, decision: d } => {
                    let parent = &tree.node(id).data.bounds;
                    hook.seed(parent, sol.x);
                    let kids = search::warm_children(instance, parent, d.var, d.value, warm).map(
                        |(c, warm)| {
                            let node = WaveNode {
                                bounds: c.bounds,
                                warm,
                            };
                            (c.label, node)
                        },
                    );
                    tree.branch(id, bound, kids);
                }
                NodeOutcome::Infeasible | NodeOutcome::Pruned { .. } => {}
            }
        }

        // Batched fix-and-propagate: once enough fractional retirees have
        // accumulated, dive from every collected seed in one fused wave and
        // install the best improving candidate as an early incumbent.
        hook.dive_backlog(&rules, |cand, pt| {
            let improves = cand > incumbent.value() + rules.prune_tol;
            if improves {
                incumbent.accept(&rules, &mut tree, cand, pt, || accel.elapsed_ns());
                lanes.set_cutoff(cand + rules.prune_tol);
            }
            improves
        });
    }

    let first_incumbent_ns = incumbent.first_ns();
    let open = tree.has_active() || in_flight.iter().any(Option::is_some);
    let done = rules.finish(incumbent, open);

    let mut metrics = accel.metrics();
    let [supersteps, retires, refills] = lanes.merge_metrics(&mut metrics);
    metrics.merge(&hook.metrics);
    // Real wall-clock of the executing backend (`wall.*`, empty under the
    // simulator) — reported, but never part of the byte-determinism
    // surface: diffs and bench gates skip the namespace.
    metrics.merge(&accel.wall_metrics());
    if let Some(t) = first_incumbent_ns {
        metrics.set_gauge(names::HEUR_FIRST_INCUMBENT_NS, t);
    }
    let peak = accel.with(|d| d.memory().peak());
    Ok(WaveResult {
        status: done.status,
        objective: done.objective,
        x: done.x,
        nodes,
        supersteps,
        retires,
        refills,
        width,
        makespan_ns: accel.elapsed_ns(),
        device: accel.stats(),
        peak_device_bytes: peak,
        metrics,
        first_incumbent_ns,
    })
}

/// Empties `buf` and hands its allocation back for items of another type of
/// the same layout — here, borrows of the tree under a new lifetime, so a
/// pass's buffers keep their capacity without keeping the tree borrowed
/// between passes (an emptied `Vec` collects in place).
fn reuse<T, U>(mut buf: Vec<T>) -> Vec<U> {
    buf.clear();
    buf.into_iter().map(|_| unreachable!("emptied")).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::concurrent::solve_concurrent;
    use gmip_problems::catalog::textbook_mip;
    use gmip_problems::generators::knapsack::{knapsack, knapsack_brute_force};

    #[test]
    fn batched_matches_brute_force() {
        for seed in [1u64, 5] {
            let m = knapsack(13, 0.5, seed);
            let expected = knapsack_brute_force(&m);
            let r = solve_batched_wave(
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
    fn textbook_batched() {
        let r = solve_batched_wave(&textbook_mip(), &WaveConfig::default(), Accel::gpu(1)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 20.0).abs() < 1e-6);
        assert!(r.supersteps > 0);
        assert!(r.retires >= r.nodes, "every node's lane must retire");
    }

    /// From sixty-four lanes on a tree wide enough to fill them: a
    /// per-lane node LP is one chain (a launch per pivot, one read-back),
    /// and the wave pays one launch per superstep, of the class the most
    /// lanes wait on, so it saves launches and time once enough lanes share
    /// each of its own.
    #[test]
    fn fewer_launches_and_ns_than_per_lane_concurrent() {
        let m = knapsack(20, 0.5, 21);
        for lanes in [64usize, 128] {
            let per_lane = solve_concurrent(
                &m,
                &WaveConfig {
                    lanes,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap();
            let batched = solve_batched_wave(
                &m,
                &WaveConfig {
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
            &WaveConfig {
                lanes: 1,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        let wide = solve_batched_wave(
            &m,
            &WaveConfig {
                lanes: 8,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap();
        assert!((narrow.objective - wide.objective).abs() < 1e-6);
        assert_eq!(wide.width, 8);
        // Widening 8× adds only per-lane state, not matrix copies: the peak
        // is one matrix plus a lane's state per lane.
        let matrix = narrow.metrics.gauge(names::BATCH_MATRIX_BYTES) as usize;
        let lane = narrow.peak_device_bytes - matrix;
        assert_eq!(wide.peak_device_bytes, matrix + 8 * lane);
    }

    /// Everything of a wave result that must replay byte-identically:
    /// optimum, node and superstep counts, the bitwise simulated makespan
    /// and every counter outside the real-time `wall.*` namespace.
    pub(crate) fn fingerprint(r: &WaveResult) -> (String, usize, usize, String, Vec<String>) {
        let counters = r
            .metrics
            .counters()
            .filter(|(k, _)| !k.starts_with("wall."))
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        (
            format!("{:?}", r.objective),
            r.nodes,
            r.supersteps,
            format!("{:?}", r.makespan_ns),
            counters,
        )
    }

    #[test]
    fn native_backend_matches_sim_byte_for_byte() {
        let m = knapsack(12, 0.5, 4);
        let run = |backend: BackendKind| {
            let cfg = WaveConfig {
                lanes: 4,
                propagate: true,
                heuristic_period: 2,
                backend,
                ..Default::default()
            };
            fingerprint(&solve_batched_wave(&m, &cfg, Accel::gpu(1)).unwrap())
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
            &WaveConfig {
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

    /// The wave is sized to fill the device; device memory decides the
    /// width and nothing else: a full device runs the search, the clock and
    /// every counter of a roomy device at the same width.
    #[test]
    fn a_device_the_wave_fills_still_solves() {
        use gmip_gpu::{CostModel, DeviceConfig};
        use gmip_problems::generators::bin_packing;
        for m in [knapsack(30, 0.5, 3), bin_packing(4, 1.0, 2)] {
            let solve = |mem_capacity: usize, lanes: usize| {
                let cfg = WaveConfig {
                    lanes,
                    ..Default::default()
                };
                let device = Accel::gpu_with(DeviceConfig {
                    cost: CostModel::gpu_pcie(),
                    mem_capacity,
                    streams: 1,
                });
                solve_batched_wave(&m, &cfg, device)
                    .unwrap_or_else(|e| panic!("{} on {mem_capacity} B: {e}", m.name))
            };
            for kib in [8, 16, 32, 64] {
                let small = solve(kib << 10, 64);
                let roomy = solve(1 << 20, small.width);
                assert_eq!(small.status, MipStatus::Optimal);
                assert_eq!(
                    fingerprint(&small),
                    fingerprint(&roomy),
                    "{} on {kib} KiB, {} lanes",
                    m.name,
                    small.width
                );
            }
        }
    }

    /// Every crossing of a whole wave solve is a superstep's: at most one
    /// H2D and one D2H per superstep, plus the shared matrix upload. A warm
    /// start rides its lane's install upload, so a wide tree of warm
    /// re-solves adds no crossing of its own.
    #[test]
    fn a_wave_crosses_the_link_once_per_superstep() {
        use gmip_problems::generators::bin_packing;
        let cfg = WaveConfig {
            lanes: 64,
            ..Default::default()
        };
        let r = solve_batched_wave(&bin_packing(5, 1.0, 61), &cfg, Accel::gpu(1)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!(r.refills > 0 && r.supersteps > 100);
        let d = &r.device;
        assert!(
            d.h2d_transfers <= r.supersteps as u64 + 1,
            "{} H2D crossings in {} supersteps",
            d.h2d_transfers,
            r.supersteps
        );
        assert!(
            d.d2h_transfers <= r.supersteps as u64,
            "{} D2H crossings in {} supersteps",
            d.d2h_transfers,
            r.supersteps
        );
    }

    /// A lane keeps the device engine's install record, so only an
    /// install with no record behind it — a lane's first — crosses the
    /// link; every warm install rides its kernel's arguments and journals
    /// no transfer. The replay fuses lanes by state, so a superstep is at
    /// most one launch.
    #[test]
    fn a_wave_uploads_only_first_installs() {
        use gmip_problems::generators::bin_packing;
        let cfg = WaveConfig {
            lanes: 64,
            ..Default::default()
        };
        let r = solve_batched_wave(&bin_packing(5, 1.0, 61), &cfg, Accel::gpu(1)).unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        let d = &r.device;
        assert!(
            d.h2d_transfers <= r.width as u64 + 1,
            "{} H2D crossings over {} lanes",
            d.h2d_transfers,
            r.width
        );
        assert_eq!(
            (r.supersteps, d.kernel_launches, d.d2h_transfers),
            (1104, 1098, 66)
        );
    }

    #[test]
    fn node_limit_respected() {
        let m = knapsack(22, 0.5, 9);
        let r = solve_batched_wave(
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
