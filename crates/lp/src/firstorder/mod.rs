//! The batched first-order node-LP engine: restarted PDHG waves.
//!
//! Where the simplex wave ([`crate::wave`]) replays per-lane pivot journals
//! whose kernel classes drift apart as lanes progress (so each superstep
//! advances only the lanes on one class), a first-order lane
//! has exactly one iteration shape — two SpMVs against the one shared
//! device-resident CSR matrix plus vector axpy/projection work — so *every*
//! active lane is always on the same kernel class. A superstep is **one
//! batched kernel** over all lanes (one [`Accel::dispatch`] of the arena's
//! blocks), charged to the simulator as the three fused launches it stands
//! for (`fo.spmv_t`, `fo.axpy`, `fo.spmv`), four on the wave's KKT-check
//! ticks (`fo.norm`, every busy lane at once). No factorization state
//! exists at all: per-lane memory is a handful of vectors, which is what
//! lets the wave scale to hundreds of lanes ("Batched First-Order Methods
//! for Parallel LP Solving in MIP").
//! Like the simplex wave, a superstep crosses the link at most once each
//! way: the lanes loaded since the last superstep cross as its one H2D, the
//! reports of the lanes that retire in it as its one D2H (a lane retired on
//! its safe bound or infeasible reports its outcome and bound only: nothing
//! reads the iterates of a node that cannot branch).
//!
//! # The arena
//!
//! Lane state lives in a [`FoArena`] (`firstorder/arena.rs`): blocks of
//! [`FO_BLOCK`] lanes, every state vector of a block stored element-major
//! with the block's lanes innermost (`x[block][j][lane]`, likewise `y`,
//! the averaging sums, the restart points, the bounds and the kernel
//! scratch, plus per-lane `τ/σ`):
//!
//! ```text
//! block 0                                block 1
//! x:  x₀ of lanes 0..8 | x₁ of lanes 0..8 | …    x₀ of lanes 8..16 | …
//! y:  y₀ of lanes 0..8 | …                       …
//! ```
//!
//! The step ([`fo_step_block`]) walks the shared CSR **once per block**
//! with the innermost loop over the block's lanes, and a *block* is the
//! item a superstep dispatches: `Sim` runs blocks in order, `Native` fans
//! them across its pool in one dispatch per superstep. Within a lane the
//! floating-point order is the sequential one, so iterates are
//! bit-identical across backends, widths and thread counts. A slot that is
//! empty — or retired and not yet taken — is *inert*: its report sits in
//! its block's host staging, its arena state is all zero with
//! `τ = σ = 0`, and whatever the kernel computes for it is finite and
//! unobservable (a block with only a few busy lanes steps just those). The
//! simulated charges count **busy lanes only**: padding inside a block is
//! an artefact of how the host lays lanes out, not work the modeled device
//! (which packs its busy lanes) would do.
//!
//! Everything that is per-lane and scalar — loading a node, the `fo.norm`
//! KKT check, the retire/restart decision — gathers that one lane into
//! contiguous engine-owned memory and runs plain sequential code, so a
//! steady-state [`FirstOrderWaveEngine::superstep`] allocates nothing.
//! That memory is the block's own staging, because the block is the grain
//! of the check too: on a checking superstep the `fo.norm` check rides the
//! step's dispatch item — whoever stepped a block checks its lanes next,
//! writing through the `&mut` block the dispatch handed it — so the checks
//! run block-parallel on `Native` with no second fan-out and no lock. A
//! check leaves the lane's running average in the block's staging, which
//! is what the lane reports if it retires; only the decisions (they touch
//! the cutoff, the counters, the restart state) run afterwards on the
//! caller, in ascending slot order.
//!
//! # The method
//!
//! Numerically each lane runs **restarted PDHG** (primal-dual hybrid
//! gradient) on the internal maximize form `max cᵀx, Ax = b, l ≤ x ≤ u`:
//!
//! ```text
//! x⁺ = proj_[l,u](x − τ(−c + Aᵀy))        τ = η/ω
//! y⁺ = y + σ(A(2x⁺ − x) − b)              σ = η·ω
//! ```
//!
//! with `η = 1/‖A‖_F` (the Frobenius norm upper-bounds the spectral norm,
//! so `τσ‖A‖₂² ≤ 1` holds unconditionally and deterministically) and a
//! per-lane primal weight `ω` adapted at restarts from the observed
//! primal/dual movement ratio. The wave keeps one tick, its count of
//! supersteps that stepped lanes; on every `CHECK_EVERY`-th tick each busy
//! lane evaluates its **running average** iterate (so a lane's first check
//! comes 1–`CHECK_EVERY` iterations after its load): if the KKT merit
//! decayed by `RESTART_BETA` since the last restart the lane restarts *to*
//! the average (Halpern-style, the PDLP recipe). Checking every lane on the
//! same tick keeps the fourth launch to one superstep in `CHECK_EVERY`,
//! whenever the lanes were loaded.
//!
//! First-order iterates are inexact, so per-node bounds are stated
//! **safely**: [`safe_dual_bound`] clamps the dual sign on inequality-slack
//! rows (dual-feasibility adjustment) and evaluates the Lagrangian box
//! bound, which is a valid upper bound on the node optimum for *any* dual
//! vector — an inexact iterate can therefore never prune a true optimum,
//! and a `+∞` bound (when a free column's reduced cost has the wrong sign)
//! is simply a bound that prunes nothing. The moment a lane's safe bound
//! falls below the incumbent cutoff it retires as
//! [`FoOutcome::BoundPruned`] — *without* solving its LP to optimality,
//! which is the structural advantage over a simplex lane that must pivot
//! to optimality before it can state any bound. Converged (or
//! iteration-capped) survivors are handed to exact simplex cleanup by the
//! driver before branching, as the paper does.

mod arena;

pub use arena::{fo_step_block, gather, scatter, FoArena, FoBlock, FO_BLOCK};

use crate::engine::HostEngine;
use crate::problem::{BoundChange, StandardLp};
use crate::solver::{LpSolution, LpSolver, LpStatus};
use crate::{LpError, LpResult};
use arena::{fill_lane, BlockCheck, CheckOut};
use gmip_gpu::cost::flops;
use gmip_gpu::{Accel, RawHandle, SparseHandle, StreamId, WaveCharge, DEFAULT_STREAM};
use gmip_linalg::CsrMatrix;
use gmip_trace::{names, MetricsRegistry};

/// Tuning parameters of the restarted-PDHG lanes.
#[derive(Debug, Clone)]
pub struct PdhgConfig {
    /// Relative KKT tolerance at which a lane counts as converged and is
    /// handed to simplex cleanup (loose on purpose: cleanup is exact, the
    /// first-order pass only needs to get *close* and to state safe
    /// bounds).
    pub tol: f64,
    /// Per-lane iteration cap, never exceeded: a lane retires as
    /// [`FoOutcome::IterLimit`] at the last check tick within it, and
    /// cleanup decides the node. A cap below `CHECK_EVERY` checks every
    /// `max_iters` ticks instead; a lane runs at least one iteration, so a
    /// cap of 0 acts as 1.
    pub max_iters: usize,
}

impl Default for PdhgConfig {
    fn default() -> Self {
        Self {
            tol: 1e-4,
            max_iters: 20_000,
        }
    }
}

/// KKT-check cadence in ticks of the wave (each check is one extra fused
/// `fo.norm` launch for every busy lane).
const CHECK_EVERY: usize = 4;

/// A lane restarts when its average's KKT merit decayed by this factor since
/// the last restart.
const RESTART_BETA: f64 = 0.5;

/// Why a lane left the wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoOutcome {
    /// KKT residuals of the running average met `tol`: the iterate is a
    /// near-optimal warm start and the node needs exact simplex cleanup
    /// before branching.
    Converged,
    /// The safe dual bound fell below the incumbent cutoff: the node is
    /// pruned outright, no cleanup needed.
    BoundPruned,
    /// The load-time activity-bound check proved the node's row system
    /// infeasible under its branch bounds.
    Infeasible,
    /// The iteration cap was hit before convergence; cleanup decides.
    IterLimit,
}

impl FoOutcome {
    /// Whether the lane's report carries its iterates home. A node retired
    /// on its bound or infeasible is closed by its outcome and bound alone;
    /// only a node that may branch reads the `(x, y)` warm start.
    fn ships_iterates(self) -> bool {
        matches!(self, FoOutcome::Converged | FoOutcome::IterLimit)
    }
}

/// A retired lane's report: outcome, safe bound, and the (averaged)
/// iterates that warm-start the node's children.
#[derive(Debug, Clone)]
pub struct FoLaneReport {
    /// Caller's node token (the id passed to [`FirstOrderWaveEngine::load_lane`]).
    pub token: u64,
    /// Why the lane retired.
    pub outcome: FoOutcome,
    /// PDHG iterations this lane ran.
    pub iterations: usize,
    /// Restarts triggered.
    pub restarts: usize,
    /// Best (smallest) safe dual bound observed, in the internal maximize
    /// sense; `+∞` until the first finite bound. Never below the node's
    /// true optimum.
    pub safe_bound: f64,
    /// Final primal iterate (length `n`, the running average at retire);
    /// empty for a lane retired [`FoOutcome::BoundPruned`] or
    /// [`FoOutcome::Infeasible`], whose node never branches.
    pub x: Vec<f64>,
    /// Final dual iterate (length `m`; empty where `x` is).
    pub y: Vec<f64>,
}

/// One lane's bookkeeping; its vectors live in the engine's [`FoArena`].
#[derive(Debug)]
struct FoLane {
    token: u64,
    sum_count: usize,
    iters: usize,
    restarts: usize,
    /// Primal weight ω; τ = η/ω, σ = η·ω.
    omega: f64,
    /// KKT merit at the last restart point (`+∞` until first measured).
    merit0: f64,
    /// Best safe dual bound seen (monotone min; every sample is valid).
    safe_bound: f64,
    outcome: Option<FoOutcome>,
    reported: bool,
}

/// Activity-based implied-bound tightening over the equality rows.
///
/// For row `i` (`Σₖ aᵢₖxₖ = bᵢ`) and a column `j` with `aᵢⱼ ≠ 0`,
/// the row implies `aᵢⱼxⱼ = bᵢ − Σ_{k≠j} aᵢₖxₖ`, so the min/max
/// activity of the *other* terms caps `xⱼ` from above/below. Implied
/// bounds never shrink the feasible region — any feasible point already
/// satisfies them — so the node optimum is untouched; what they buy is
/// **finite** column boxes, without which the safe Lagrangian bound of
/// [`safe_dual_bound`] degenerates to `+∞` whenever an unbounded
/// column's reduced cost has the wrong (inexact) sign. Two passes are
/// enough in practice to make every column the generators emit finite.
/// Returns `false` if tightening crossed a bound pair — an infeasibility
/// proof for the node.
pub fn tighten_bounds(a: &CsrMatrix, b: &[f64], lb: &mut [f64], ub: &mut [f64]) -> bool {
    for _ in 0..2 {
        for i in 0..a.rows() {
            // Min/max activity of the full row, with infinite
            // contributions counted separately so a single unbounded
            // column can still receive an implied bound.
            let (mut sum_min, mut sum_max) = (0.0f64, 0.0f64);
            let (mut n_min_inf, mut n_max_inf) = (0usize, 0usize);
            for (j, v) in a.row_iter(i) {
                let (p, q) = (v * lb[j], v * ub[j]);
                let (t_min, t_max) = (p.min(q), p.max(q));
                if t_min.is_finite() {
                    sum_min += t_min;
                } else {
                    n_min_inf += 1;
                }
                if t_max.is_finite() {
                    sum_max += t_max;
                } else {
                    n_max_inf += 1;
                }
            }
            for (j, v) in a.row_iter(i) {
                let (p, q) = (v * lb[j], v * ub[j]);
                let (t_min, t_max) = (p.min(q), p.max(q));
                // Upper cap from the other terms' min activity.
                let others_min = if n_min_inf == 0 {
                    Some(sum_min - t_min)
                } else if n_min_inf == 1 && !t_min.is_finite() {
                    Some(sum_min)
                } else {
                    None
                };
                if let Some(o) = others_min {
                    let cap = (b[i] - o) / v;
                    if v > 0.0 {
                        ub[j] = ub[j].min(cap);
                    } else {
                        lb[j] = lb[j].max(cap);
                    }
                }
                // Lower cap from the other terms' max activity.
                let others_max = if n_max_inf == 0 {
                    Some(sum_max - t_max)
                } else if n_max_inf == 1 && !t_max.is_finite() {
                    Some(sum_max)
                } else {
                    None
                };
                if let Some(o) = others_max {
                    let floor = (b[i] - o) / v;
                    if v > 0.0 {
                        lb[j] = lb[j].max(floor);
                    } else {
                        ub[j] = ub[j].min(floor);
                    }
                }
            }
        }
    }
    lb.iter().zip(ub.iter()).all(|(&l, &u)| l <= u + 1e-9)
}

/// The safe Lagrangian box bound, dual-feasibility-adjusted.
///
/// For the internal maximize form `max cᵀx, Ax = b, l ≤ x ≤ u` and **any**
/// dual vector `y`, weak duality gives the upper bound
///
/// ```text
/// bound(y) = bᵀy + Σⱼ sup_{xⱼ ∈ [lⱼ,uⱼ]} rⱼ xⱼ,      r = c − Aᵀy,
/// ```
///
/// which is finite only if every column with an infinite bound has the
/// right reduced-cost sign. Inequality-slack columns (`ub = +∞`) would
/// make raw PDHG iterates useless here, so the dual is first *clamped* on
/// slack rows — `yᵢ ≥ 0` where the slack coefficient is `+1` (a `≤` row),
/// `yᵢ ≤ 0` where it is `−1` (a `≥` row) — which zeroes every slack
/// contribution exactly. Clamping only changes *which* valid bound is
/// evaluated, never its validity. Any remaining infinite term yields
/// `+∞`: a bound that prunes nothing, which is the safe direction.
/// `slack_rows` lists `(row, coefficient)` per inequality slack.
pub fn safe_dual_bound(
    a: &CsrMatrix,
    b: &[f64],
    c: &[f64],
    lb: &[f64],
    ub: &[f64],
    slack_rows: &[(usize, f64)],
    y: &[f64],
) -> f64 {
    let (mut yc, mut aty) = (vec![0.0; y.len()], vec![0.0; c.len()]);
    safe_dual_bound_into(a, b, c, lb, ub, slack_rows, y, &mut yc, &mut aty)
}

/// [`safe_dual_bound`] over caller-owned scratch: `yc` (length `m`) takes
/// the clamped dual, `aty` (length `n`) its `Aᵀy`.
fn safe_dual_bound_into(
    a: &CsrMatrix,
    b: &[f64],
    c: &[f64],
    lb: &[f64],
    ub: &[f64],
    slack_rows: &[(usize, f64)],
    y: &[f64],
    yc: &mut [f64],
    aty: &mut [f64],
) -> f64 {
    yc.copy_from_slice(y);
    for &(row, coef) in slack_rows {
        if coef > 0.0 {
            yc[row] = yc[row].max(0.0);
        } else {
            yc[row] = yc[row].min(0.0);
        }
    }
    a.matvec_transposed_into(yc, aty)
        .expect("engine shapes match");
    let mut bound: f64 = b.iter().zip(yc.iter()).map(|(&bi, &yi)| bi * yi).sum();
    for j in 0..c.len() {
        let r = c[j] - aty[j];
        let term = if r > 0.0 {
            if ub[j].is_finite() {
                r * ub[j]
            } else {
                return f64::INFINITY;
            }
        } else if r < 0.0 {
            if lb[j].is_finite() {
                r * lb[j]
            } else {
                return f64::INFINITY;
            }
        } else {
            0.0
        };
        bound += term;
    }
    bound
}

/// The `fo.norm` check of arena block `blk` (just stepped, on a check
/// tick), whose lanes' bookkeeping is `lanes`: for each busy lane, gathers
/// the running average (into the block's staging) and the box, and
/// evaluates the KKT quantities into `blk.check.out`.
fn check_block(
    lanes: &[Option<FoLane>],
    blk: &mut FoBlock,
    csr: &CsrMatrix,
    b: &[f64],
    c: &[f64],
    slack_rows: &[(usize, f64)],
) {
    let (m, n) = (b.len(), c.len());
    let BlockCheck {
        x,
        y,
        out,
        lb,
        ub,
        ax,
        yc,
        aty,
    } = &mut blk.check;
    for (l, lane) in lanes.iter().enumerate() {
        let Some(lane) = lane.as_ref().filter(|lane| lane.outcome.is_none()) else {
            continue;
        };
        let inv = 1.0 / lane.sum_count.max(1) as f64;
        let (x, y) = (&mut x[l * n..(l + 1) * n], &mut y[l * m..(l + 1) * m]);
        gather(&blk.x_sum, l, x);
        gather(&blk.y_sum, l, y);
        for v in x.iter_mut().chain(y.iter_mut()) {
            *v *= inv;
        }
        gather(&blk.lb, l, lb);
        gather(&blk.ub, l, ub);
        csr.matvec_into(x, ax).expect("lane shapes fixed at load");
        let primal_res = ax
            .iter()
            .zip(b)
            .map(|(&axi, &bi)| (axi - bi) * (axi - bi))
            .sum::<f64>()
            .sqrt();
        let obj: f64 = c.iter().zip(x.iter()).map(|(&cj, &xj)| cj * xj).sum();
        let bound = safe_dual_bound_into(csr, b, c, lb, ub, slack_rows, y, yc, aty);
        out[l] = CheckOut {
            primal_res,
            obj,
            bound,
        };
    }
}

/// The lockstep restarted-PDHG wave: all lanes iterate against one shared
/// device-resident CSR matrix; each superstep is one PDHG iteration for
/// every busy lane — one batched kernel, charged as three fused launches,
/// and a fourth (`fo.norm`) on the wave's check ticks.
#[derive(Debug)]
pub struct FirstOrderWaveEngine {
    accel: Accel,
    stream: StreamId,
    csr: CsrMatrix,
    matrix: SparseHandle,
    matrix_bytes: usize,
    b: Vec<f64>,
    /// Internal maximize objective.
    c: Vec<f64>,
    /// `−c`: the minimization gradient the x-step descends.
    c_tilde: Vec<f64>,
    /// The standard form's column box: what [`Self::load_lane`] starts from.
    root_lb: Vec<f64>,
    root_ub: Vec<f64>,
    /// `(row, coefficient)` of each inequality slack (dual sign clamps).
    slack_rows: Vec<(usize, f64)>,
    /// Base step scale `η = 1/‖A‖_F`.
    eta: f64,
    b_norm: f64,
    /// Incumbent cutoff in the internal maximize sense: lanes whose safe
    /// bound drops to or below this retire pruned.
    cutoff: f64,
    cfg: PdhgConfig,
    /// Supersteps that stepped lanes: every busy lane checks on a multiple
    /// of [`Self::check_every`], no lane on any other.
    tick: usize,
    lanes: Vec<Option<FoLane>>,
    arena: FoArena,
    lane_state: Vec<RawHandle>,
    /// Bytes the loads since the last superstep staged: the next
    /// superstep's one H2D crossing.
    staged_h2d: usize,
    /// The slots the last superstep retired.
    retired: Vec<usize>,
    metrics: MetricsRegistry,
}

impl FirstOrderWaveEngine {
    /// Uploads the shared CSR matrix of `std.a` once and reserves `width`
    /// lane states. The standard form must be cut-free (the wave drivers
    /// never add cuts mid-wave).
    pub fn new(accel: Accel, std: &StandardLp, width: usize, cfg: PdhgConfig) -> LpResult<Self> {
        assert!(width >= 1, "need at least one lane");
        let csr = CsrMatrix::from_dense(&std.a);
        let matrix_bytes = csr.size_bytes();
        let (m, n) = (csr.rows(), csr.cols());
        let per_lane = Self::per_lane_bytes(m, n);
        let (matrix, lane_state) = accel.with(|d| -> gmip_gpu::device::Result<_> {
            let matrix = d.upload_sparse(&csr, DEFAULT_STREAM)?;
            let mut lanes = Vec::with_capacity(width);
            for _ in 0..width {
                lanes.push(d.alloc_raw(per_lane)?);
            }
            Ok((matrix, lanes))
        })?;
        let fro = csr.frobenius_norm();
        let eta = if fro > 0.0 { 1.0 / fro } else { 1.0 };
        let b_norm = std.b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut metrics = MetricsRegistry::new();
        metrics.max_gauge(names::FO_WIDTH, width as f64);
        metrics.max_gauge(names::FO_MATRIX_BYTES, matrix_bytes as f64);
        Ok(Self {
            accel,
            stream: DEFAULT_STREAM,
            matrix,
            matrix_bytes,
            b: std.b.clone(),
            c: std.c.clone(),
            c_tilde: std.c.iter().map(|&v| -v).collect(),
            root_lb: std.lb.clone(),
            root_ub: std.ub.clone(),
            slack_rows: std
                .slacks
                .iter()
                .map(|&(_, row, coef)| (row, coef))
                .collect(),
            eta,
            b_norm,
            cutoff: f64::NEG_INFINITY,
            cfg,
            tick: 0,
            lanes: (0..width).map(|_| None).collect(),
            arena: FoArena::new(m, n, width),
            lane_state,
            staged_h2d: 0,
            retired: Vec::with_capacity(width),
            csr,
            metrics,
        })
    }

    /// Device bytes of one lane's iteration state: its share of an arena
    /// block ([`FoBlock::lane_bytes`]).
    pub fn per_lane_bytes(m: usize, n: usize) -> usize {
        FoBlock::lane_bytes(m, n)
    }

    /// Bytes of the shared device-resident CSR matrix.
    pub fn matrix_bytes(&self) -> usize {
        self.matrix_bytes
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Rows of the standard form.
    pub fn m(&self) -> usize {
        self.b.len()
    }

    /// Columns of the standard form.
    pub fn n(&self) -> usize {
        self.c.len()
    }

    /// Whether `slot` holds a lane still iterating.
    pub fn lane_busy(&self, slot: usize) -> bool {
        self.lanes[slot]
            .as_ref()
            .is_some_and(|l| l.outcome.is_none())
    }

    /// Whether any lane is still iterating.
    pub fn any_busy(&self) -> bool {
        (0..self.lanes.len()).any(|s| self.lane_busy(s))
    }

    /// Whether `slot` is free for [`Self::load_lane`].
    pub fn lane_idle(&self, slot: usize) -> bool {
        self.lanes[slot].is_none()
    }

    /// Updates the incumbent cutoff (internal maximize sense). Lanes whose
    /// safe bound is at or below the cutoff retire pruned at their next
    /// KKT check — incumbents found mid-wave start pruning *in-flight*
    /// lanes immediately, not just future refills.
    pub fn set_cutoff(&mut self, cutoff: f64) {
        self.cutoff = cutoff;
    }

    /// Ticks between KKT checks: `CHECK_EVERY`, or `max_iters` below it,
    /// so that a lane's first check, 1 to this many iterations after its
    /// load, never lies past its cap.
    fn check_every(&self) -> usize {
        self.cfg.max_iters.clamp(1, CHECK_EVERY)
    }

    /// Wave counters (`fo.*`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Takes (and resets) the accumulated `fo.*` counters.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        std::mem::replace(&mut self.metrics, MetricsRegistry::new())
    }

    /// Marks a refill (frontier node loaded into a previously retired
    /// lane).
    pub fn note_refill(&mut self) {
        self.metrics.incr(names::FO_REFILLS, 1.0);
    }

    /// Records a host-simplex cleanup of a converged (or capped) lane:
    /// `fo.cleanups` and the pivots it spent (`fo.cleanup.iterations`).
    fn note_cleanup(&mut self, simplex_iterations: usize) {
        self.metrics.incr(names::FO_CLEANUPS, 1.0);
        self.metrics
            .incr(names::FO_CLEANUP_ITERS, simplex_iterations as f64);
    }

    /// Loads a node into idle `slot`: its box — `bounds` on top of the
    /// standard form's own column bounds, built in the slot's block
    /// scratch — an optional `(x, y)` warm start (the parent's
    /// averaged iterates), and the caller's `token` to identify the lane's
    /// report. Stages the lane's vectors into the next superstep's one H2D
    /// crossing (a load that returns `Err` stages nothing) and runs the
    /// load-time activity-bound infeasibility check; an infeasible lane
    /// retires at the next superstep boundary without iterating.
    pub fn load_lane(
        &mut self,
        slot: usize,
        token: u64,
        bounds: &[BoundChange],
        warm: Option<(&[f64], &[f64])>,
    ) -> LpResult<()> {
        let (m, n) = (self.m(), self.n());
        if !self.lane_idle(slot) {
            return Err(LpError::Shape(format!("lane {slot} loaded while occupied")));
        }
        let (blk, l) = self.arena.lane_mut(slot);
        let BlockCheck { lb, ub, x, y, .. } = &mut blk.check;
        let (x, y) = (&mut x[l * n..(l + 1) * n], &mut y[l * m..(l + 1) * m]);
        lb.copy_from_slice(&self.root_lb);
        ub.copy_from_slice(&self.root_ub);
        for bc in bounds {
            if bc.var >= n {
                return Err(LpError::Shape(format!(
                    "bound change on column {} of {n}",
                    bc.var
                )));
            }
            lb[bc.var] = bc.lb;
            ub[bc.var] = bc.ub;
        }
        // Implied-bound tightening: gives every column a finite box (so
        // safe bounds stay finite) and doubles as a cheap infeasibility
        // proof when branch bounds cross.
        let tight_ok = tighten_bounds(&self.csr, &self.b, lb, ub);
        let mut h2d = 8 * 2 * n;
        match warm {
            Some((wx, wy)) => {
                if wx.len() != n || wy.len() != m {
                    return Err(LpError::Shape(format!(
                        "warm start: engine {m}x{n}, x {} y {}",
                        wx.len(),
                        wy.len()
                    )));
                }
                h2d += 8 * (n + m);
                x.copy_from_slice(wx);
                y.copy_from_slice(wy);
            }
            None => {
                for j in 0..n {
                    x[j] = match (lb[j].is_finite(), ub[j].is_finite()) {
                        (true, true) => 0.5 * (lb[j] + ub[j]),
                        (true, false) => lb[j],
                        (false, true) => ub[j],
                        (false, false) => 0.0,
                    };
                }
                y.fill(0.0);
            }
        }
        for j in 0..n {
            x[j] = x[j].max(lb[j]).min(ub[j]);
        }
        self.staged_h2d += h2d;

        // Activity-bound infeasibility check: a row whose minimal (or
        // maximal) activity over the box already misses `b` can never be
        // satisfied — the branch bounds fixed this node dead. Catches the
        // common case (conflicting binary fixings) for the cost of one
        // host pass over the nonzeros.
        let infeasible = !tight_ok
            || (0..m).any(|i| {
                let (mut lo, mut hi) = (0.0f64, 0.0f64);
                for (j, v) in self.csr.row_iter(i) {
                    let (p, q) = (v * lb[j], v * ub[j]);
                    lo += p.min(q);
                    hi += p.max(q);
                }
                lo > self.b[i] + 1e-9 || hi < self.b[i] - 1e-9
            });

        if infeasible {
            // Never iterates: the slot stays inert and the loaded point,
            // already where reports are read from, is the report.
            self.metrics.incr(names::FO_INFEASIBLE, 1.0);
        } else {
            // An idle slot is all zero (cleared at retire), so the sums
            // and the kernel scratch need no reset.
            scatter(&mut blk.lb, l, lb);
            scatter(&mut blk.ub, l, ub);
            scatter(&mut blk.x, l, x);
            scatter(&mut blk.y, l, y);
            scatter(&mut blk.x_restart, l, x);
            scatter(&mut blk.y_restart, l, y);
            blk.set_steps(l, self.eta, self.eta);
        }
        self.lanes[slot] = Some(FoLane {
            token,
            sum_count: 0,
            iters: 0,
            restarts: 0,
            omega: 1.0,
            merit0: f64::INFINITY,
            safe_bound: f64::INFINITY,
            outcome: infeasible.then_some(FoOutcome::Infeasible),
            reported: false,
        });
        Ok(())
    }

    /// Executes one lockstep superstep: every busy lane advances by one
    /// PDHG iteration in one [`Accel::dispatch`] of the arena's blocks
    /// (charged as the fused `fo.spmv_t` / `fo.axpy` / `fo.spmv` launches,
    /// plus `fo.norm` when the wave's tick lands on a KKT check, which every
    /// busy lane then takes inside its block's item), then convergence / safe-bound-prune / restart
    /// / cap decisions fire at the boundary. The lanes loaded since the last
    /// superstep cross the link as one H2D ahead of the dispatch, and the
    /// reports of the lanes that retire cross as one D2H at the end: a
    /// superstep crosses at most once each way. Returns the slots that
    /// retired (including lanes found infeasible at load time), from
    /// engine-owned scratch: a superstep allocates nothing.
    pub fn superstep(&mut self) -> &[usize] {
        // Lane bookkeeping for the iteration about to run: who is busy, who
        // retired at load.
        self.retired.clear();
        let mut busy = 0usize;
        for (slot, lane) in self.lanes.iter_mut().enumerate() {
            let Some(l) = lane else { continue };
            if l.outcome.is_none() {
                busy += 1;
                l.sum_count += 1;
                l.iters += 1;
            } else if !l.reported {
                l.reported = true;
                self.retired.push(slot);
            }
        }
        let stream = self.stream;
        let staged = std::mem::take(&mut self.staged_h2d);
        if staged > 0 {
            self.accel.with(|d| d.charge_transfer(staged, true, stream));
        }
        if busy == 0 {
            if !self.retired.is_empty() {
                // A retire boundary is not a synchronize.
                self.metrics
                    .incr(names::FO_RETIRES, self.retired.len() as f64);
                self.ship_reports();
            }
            return &self.retired;
        }

        self.tick += 1;
        let checking = self.tick.is_multiple_of(self.check_every());
        self.metrics.incr(names::FO_SUPERSTEPS, 1.0);
        self.metrics.incr(names::FO_ITERATIONS, busy as f64);
        let (m, n) = (self.m(), self.n());
        let nnz = self.csr.nnz();

        // Every busy lane is on the identical kernel class — perfect
        // lockstep: one dispatch of the arena's blocks, charged as the
        // three class launches for the busy lanes (a retire boundary is not
        // a synchronize). On a check tick the `fo.norm` phase — KKT
        // evaluation of every busy lane's running average — rides the same
        // items, block by block behind the step, and is charged fourth.
        let class = |name, per_lane, sparse| WaveCharge {
            name,
            lanes: busy,
            per_lane,
            sparse,
        };
        let spmv = (flops::spmv(nnz), (16 * nnz + 8 * (m + n)) as f64);
        let charges = [
            class("fo.spmv_t", spmv, true),
            class(
                "fo.axpy",
                ((6 * n + 4 * m) as f64, (8 * (4 * n + 3 * m)) as f64),
                false,
            ),
            class("fo.spmv", spmv, true),
            class(
                "fo.norm",
                ((4 * (n + m)) as f64, (8 * (n + m)) as f64),
                false,
            ),
        ];
        let launches = if checking { 4 } else { 3 };
        let Self {
            accel,
            csr,
            b,
            c,
            c_tilde,
            slack_rows,
            lanes,
            arena,
            ..
        } = self;
        accel.dispatch(
            "fo.step",
            arena.blocks_mut(),
            |block, blk| {
                fo_step_block(csr, c_tilde, b, blk);
                if checking {
                    let first = block * FO_BLOCK;
                    let lanes = &lanes[first..lanes.len().min(first + FO_BLOCK)];
                    check_block(lanes, blk, csr, b, c, slack_rows);
                }
            },
            &charges[..launches],
            stream,
        );
        self.metrics.incr(names::FO_FUSED_LAUNCHES, launches as f64);

        // The retire/restart decisions mutate shared engine state and must
        // stay in ascending slot order, so they are applied sequentially
        // afterwards.
        if checking {
            for slot in 0..self.lanes.len() {
                if self.lane_busy(slot) {
                    if let Some(outcome) = self.decide_lane(slot) {
                        self.retire_lane(slot, outcome);
                        self.retired.push(slot);
                    }
                }
            }
        }
        if !self.retired.is_empty() {
            self.metrics
                .incr(names::FO_RETIRES, self.retired.len() as f64);
            self.ship_reports();
        }
        &self.retired
    }

    /// Charges the one D2H crossing that carries the reports of the lanes
    /// retiring in this superstep: a lane that may branch ships its
    /// iterates, any other its outcome and safe bound (16 B).
    fn ship_reports(&self) {
        let row = 8 * (self.n() + self.m());
        let ships = |slot: usize| {
            let outcome = self.lanes[slot].as_ref().and_then(|l| l.outcome);
            outcome.is_some_and(FoOutcome::ships_iterates)
        };
        let bytes: usize = self
            .retired
            .iter()
            .map(|&slot| if ships(slot) { row } else { 16 })
            .sum();
        self.accel
            .with(|d| d.charge_transfer(bytes, false, self.stream));
    }

    /// Retire/restart decision for one busy lane on a check tick, fed by
    /// the KKT quantities [`check_block`] left in its block's staging.
    /// Returns the outcome if the lane retires at this boundary. A lane
    /// whose next check would lie past `max_iters` retires at this one.
    fn decide_lane(&mut self, slot: usize) -> Option<FoOutcome> {
        let (m, n) = (self.m(), self.n());
        let every = self.check_every();
        let (blk, l) = self.arena.lane_mut(slot);
        let chk = blk.check.out[l];
        let lane = self.lanes[slot].as_mut().expect("busy slot occupied");
        let at_cap = self.cfg.max_iters.saturating_sub(lane.iters) < every;
        lane.safe_bound = lane.safe_bound.min(chk.bound);

        // Early safe-bound prune: the wave's structural advantage — the
        // lane states a valid bound after a handful of iterations and
        // retires the moment the incumbent dominates it.
        if lane.safe_bound <= self.cutoff {
            return Some(FoOutcome::BoundPruned);
        }

        let gap = (chk.bound - chk.obj).max(0.0);
        let converged = chk.primal_res <= self.cfg.tol * (1.0 + self.b_norm)
            && chk.bound.is_finite()
            && gap <= self.cfg.tol * (1.0 + chk.obj.abs());
        if converged {
            return Some(FoOutcome::Converged);
        }
        if at_cap {
            return Some(FoOutcome::IterLimit);
        }

        let merit = if chk.bound.is_finite() {
            chk.primal_res.hypot(gap)
        } else {
            f64::INFINITY
        };
        if lane.merit0.is_infinite() {
            if merit.is_finite() {
                lane.merit0 = merit;
            }
        } else if merit <= RESTART_BETA * lane.merit0 {
            // Restart to the running average, and adapt the primal weight
            // from the movement ratio since the last restart point.
            let (x_avg, y_avg) = (
                &blk.check.x[l * n..(l + 1) * n],
                &blk.check.y[l * m..(l + 1) * m],
            );
            let mut dx = 0.0;
            let mut dy = 0.0;
            for (j, &xj) in x_avg.iter().enumerate() {
                let d = xj - blk.x_restart[j * FO_BLOCK + l];
                dx += d * d;
            }
            for (i, &yi) in y_avg.iter().enumerate() {
                let d = yi - blk.y_restart[i * FO_BLOCK + l];
                dy += d * d;
            }
            let (dx, dy) = (dx.sqrt(), dy.sqrt());
            if dx > 1e-12 && dy > 1e-12 {
                lane.omega = (lane.omega * dy / dx).sqrt().clamp(1e-4, 1e4);
            }
            scatter(&mut blk.x, l, x_avg);
            scatter(&mut blk.y, l, y_avg);
            scatter(&mut blk.x_restart, l, x_avg);
            scatter(&mut blk.y_restart, l, y_avg);
            fill_lane(&mut blk.x_sum, l, 0.0);
            fill_lane(&mut blk.y_sum, l, 0.0);
            blk.set_steps(l, self.eta / lane.omega, self.eta * lane.omega);
            lane.sum_count = 0;
            lane.merit0 = merit;
            lane.restarts += 1;
            self.metrics.incr(names::FO_RESTARTS, 1.0);
        }
        None
    }

    /// Retires lane `slot` on a check tick. Its running average — the
    /// reported iterates — already sits in its block's staging, so nothing
    /// is copied; the arena slot goes inert.
    fn retire_lane(&mut self, slot: usize, outcome: FoOutcome) {
        let lane = self.lanes[slot].as_mut().expect("busy slot occupied");
        // A checked lane has iterated since its last restart, so the
        // average exists.
        debug_assert!(lane.sum_count > 0);
        lane.outcome = Some(outcome);
        lane.reported = true;
        let (blk, l) = self.arena.lane_mut(slot);
        blk.clear_lane(l);
        let counter = match outcome {
            FoOutcome::Converged => names::FO_CONVERGED,
            FoOutcome::BoundPruned => names::FO_BOUND_PRUNED,
            FoOutcome::Infeasible => names::FO_INFEASIBLE,
            FoOutcome::IterLimit => names::FO_ITER_LIMIT,
        };
        self.metrics.incr(counter, 1.0);
    }

    /// Runs supersteps until at least one lane retires (or nothing is
    /// busy). Returns the retired slots, as [`Self::superstep`] does.
    pub fn run_to_retire(&mut self) -> &[usize] {
        loop {
            if !self.superstep().is_empty() || !self.any_busy() {
                return &self.retired;
            }
        }
    }

    /// Takes the report of a retired lane, freeing `slot` for a refill.
    /// Charges nothing: the report crossed the link in the D2H of the
    /// superstep the lane retired in. Allocates the report's `x` and `y`
    /// only where it ships them ([`FoLaneReport::x`]).
    pub fn take_lane(&mut self, slot: usize) -> LpResult<FoLaneReport> {
        let outcome = match &self.lanes[slot] {
            None => return Err(LpError::Shape(format!("take_lane on empty slot {slot}"))),
            Some(lane) => lane
                .outcome
                .ok_or_else(|| LpError::Shape(format!("take_lane on busy slot {slot}")))?,
        };
        let lane = self.lanes[slot].take().expect("matched occupied above");
        let (m, n) = (self.m(), self.n());
        let (blk, l) = self.arena.lane(slot);
        let (x, y) = if outcome.ships_iterates() {
            (
                blk.check.x[l * n..(l + 1) * n].to_vec(),
                blk.check.y[l * m..(l + 1) * m].to_vec(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(FoLaneReport {
            token: lane.token,
            outcome,
            iterations: lane.iters,
            restarts: lane.restarts,
            safe_bound: lane.safe_bound,
            x,
            y,
        })
    }

    /// Collects retired lane `slot` as an LP outcome a tree can act on —
    /// the PDHG-plus-cleanup evaluator every driver shares — next to the
    /// lane's report (a converged or capped lane's averaged iterates
    /// warm-start the children). A lane
    /// that proved its box infeasible at load is `Infeasible`. A lane that
    /// retired on its safe bound is `Optimal` with that bound as objective
    /// and **no point**: the cutoff dominates it, so the prune rule retires
    /// the node without reading `x`. A converged or capped lane's node is
    /// solved exactly by `cleanup` under `bounds` (the paper's CPU
    /// delegation of sequential tails), counted as `fo.cleanups`; only then
    /// are the solution's `iterations` pivots, not PDHG iterations. Crosses
    /// nothing: the report came home with its superstep's D2H, and the
    /// cleanup runs on the host.
    pub fn finish_lane(
        &mut self,
        slot: usize,
        cleanup: &mut LpSolver<HostEngine>,
        bounds: &[BoundChange],
    ) -> LpResult<(LpSolution, FoLaneReport)> {
        let r = self.take_lane(slot)?;
        let unsolved = |status, objective| LpSolution {
            status,
            objective,
            x: Vec::new(),
            iterations: r.iterations,
        };
        let sol = match r.outcome {
            FoOutcome::Infeasible => unsolved(LpStatus::Infeasible, f64::NAN),
            FoOutcome::BoundPruned => {
                // The sense map is its own inverse: internal bound → source.
                unsolved(LpStatus::Optimal, cleanup.internal_objective(r.safe_bound))
            }
            FoOutcome::Converged | FoOutcome::IterLimit => {
                cleanup.apply_node_bounds(bounds)?;
                let sol = cleanup.solve()?;
                self.note_cleanup(sol.iterations);
                sol
            }
        };
        Ok((sol, r))
    }
}

impl Drop for FirstOrderWaveEngine {
    fn drop(&mut self) {
        self.accel.with(|d| {
            let _ = d.free(self.matrix);
            for &h in &self.lane_state {
                let _ = d.free(h);
            }
        });
    }
}

#[cfg(test)]
mod tests;
