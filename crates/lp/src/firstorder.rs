//! The batched first-order node-LP engine: restarted PDHG waves.
//!
//! Where the simplex wave ([`crate::wave`]) replays per-lane pivot journals
//! whose kernel classes drift apart as lanes progress (so each superstep
//! advances only the lanes on one class), a first-order lane
//! has exactly one iteration shape — two SpMVs against the one shared
//! device-resident CSR matrix plus vector axpy/projection work — so *every*
//! active lane is always on the same kernel class. A superstep is **one
//! batched kernel** over all lanes ([`gmip_gpu::Accelerator::fo_step`]),
//! charged to the simulator as the three fused launches it stands for
//! (`fo.spmv_t`, `fo.axpy`, `fo.spmv`), four on the wave's KKT-check
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
//! Lane state lives in a [`FoArena`]: blocks of [`FO_BLOCK`] lanes, every
//! state vector of a block stored element-major with the block's lanes
//! innermost (`x[block][j][lane]`, likewise `y`, the averaging sums, the
//! restart points, the bounds and the kernel scratch, plus per-lane `τ/σ`):
//!
//! ```text
//! block 0                                block 1
//! x:  x₀ of lanes 0..8 | x₁ of lanes 0..8 | …    x₀ of lanes 8..16 | …
//! y:  y₀ of lanes 0..8 | …                       …
//! ```
//!
//! The step walks the shared CSR **once per block** with the innermost
//! loop over the block's lanes, and a *block* is what a backend hands to a
//! thread: `Sim` runs blocks in order, `Native` fans them across its pool
//! in one dispatch per superstep. Within a lane the floating-point order is
//! the sequential one (see [`gmip_gpu::kernels`]), so iterates are
//! bit-identical across backends, widths and thread counts. A slot that is
//! empty — or retired and not yet taken — is *inert*: its report sits
//! outside the arena, its arena state is all zero with `τ = σ = 0`, and
//! whatever the kernel computes for it is finite and unobservable (a block
//! with only a few busy lanes steps just those; see
//! [`gmip_gpu::kernels::fo_step_block`]). The
//! simulated charges count **busy lanes only**: padding inside a block is
//! an artefact of how the host lays lanes out, not work the modeled device
//! (which packs its busy lanes) would do.
//!
//! Everything that is per-lane and scalar — loading a node, the `fo.norm`
//! KKT check, the retire/restart decision — gathers that one lane into
//! contiguous engine-owned memory and runs plain sequential code, so a
//! steady-state [`FirstOrderWaveEngine::superstep`] allocates nothing.
//! That memory is per block, because the block is the grain of the check
//! too: on a checking superstep the `fo.norm` body rides the step's own
//! dispatch — whoever stepped a block checks its lanes next — so the
//! checks run block-parallel on `Native` with no second fan-out. A check
//! leaves the lane's running average in the block's staging, which is
//! what the lane reports if it retires; only the decisions (they touch
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

use crate::engine::HostEngine;
use crate::problem::{BoundChange, StandardLp};
use crate::solver::{LpSolution, LpSolver, LpStatus};
use crate::{LpError, LpResult};
use gmip_gpu::cost::flops;
use gmip_gpu::kernels::{fill_lane, gather, scatter};
use gmip_gpu::{
    Accel, FoArena, FoBlock, FoCheck, FoStepCharges, RawHandle, SparseHandle, StreamId,
    DEFAULT_STREAM, FO_BLOCK,
};
use gmip_linalg::CsrMatrix;
use gmip_trace::{names, MetricsRegistry};
use std::sync::Mutex;

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

/// One arena block's `fo.norm` task: the unit the checks fan out by, and
/// the contiguous memory the block's lanes load through, check into and
/// report from. Each task sits behind its own lock so the check bodies,
/// which share the engine immutably, can write it; exactly one body ever
/// takes a given lock, so it is never contended.
#[derive(Debug)]
struct BlockCheck {
    /// Lane-contiguous `FO_BLOCK × n` / `FO_BLOCK × m`: a busy lane's
    /// running average at its last check, and — from the moment it retires
    /// until it is taken — its reported iterates.
    x: Vec<f64>,
    y: Vec<f64>,
    /// KKT quantities of each lane's last check.
    out: [CheckOut; FO_BLOCK],
    /// One lane's box gathered contiguous.
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// `A·x̄` of the lane being checked.
    ax: Vec<f64>,
    /// [`safe_dual_bound_into`]'s clamped dual and its `Aᵀy`.
    yc: Vec<f64>,
    aty: Vec<f64>,
}

/// Why locking a block's task can fail at all.
const TASK_LOCK: &str = "an earlier fo.norm check panicked holding this block's task";

/// KKT quantities of one lane's running average (which itself sits in
/// [`BlockCheck::x`] / [`BlockCheck::y`]).
#[derive(Debug, Clone, Copy, Default)]
struct CheckOut {
    primal_res: f64,
    obj: f64,
    bound: f64,
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

/// What the `fo.norm` body reads of the engine while the step holds the
/// arena: everything but the arena.
struct Checker<'a> {
    lanes: &'a [Option<FoLane>],
    checks: &'a [Mutex<BlockCheck>],
    csr: &'a CsrMatrix,
    b: &'a [f64],
    c: &'a [f64],
    slack_rows: &'a [(usize, f64)],
}

impl Checker<'_> {
    /// The `fo.norm` task of arena block `block` (just stepped, on a check
    /// tick): for each of its busy lanes, gathers the running average (into
    /// the block's staging) and the box, and evaluates the KKT quantities.
    fn check_block(&self, block: usize, blk: &FoBlock) {
        let (m, n) = (self.b.len(), self.c.len());
        let first = block * FO_BLOCK;
        let lanes = &self.lanes[first..self.lanes.len().min(first + FO_BLOCK)];
        if !lanes.iter().flatten().any(|lane| lane.outcome.is_none()) {
            return;
        }
        let mut task = self.checks[block].lock().expect(TASK_LOCK);
        let BlockCheck {
            x,
            y,
            out,
            lb,
            ub,
            ax,
            yc,
            aty,
        } = &mut *task;
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
            self.csr
                .matvec_into(x, ax)
                .expect("lane shapes fixed at load");
            let primal_res = ax
                .iter()
                .zip(self.b)
                .map(|(&axi, &bi)| (axi - bi) * (axi - bi))
                .sum::<f64>()
                .sqrt();
            let obj: f64 = self.c.iter().zip(x.iter()).map(|(&cj, &xj)| cj * xj).sum();
            let bound = safe_dual_bound_into(
                self.csr,
                self.b,
                self.c,
                lb,
                ub,
                self.slack_rows,
                y,
                yc,
                aty,
            );
            out[l] = CheckOut {
                primal_res,
                obj,
                bound,
            };
        }
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
    /// One per arena block.
    checks: Vec<Mutex<BlockCheck>>,
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
        let checks = (0..width.div_ceil(FO_BLOCK))
            .map(|_| {
                Mutex::new(BlockCheck {
                    x: vec![0.0; FO_BLOCK * n],
                    y: vec![0.0; FO_BLOCK * m],
                    out: [CheckOut::default(); FO_BLOCK],
                    lb: vec![0.0; n],
                    ub: vec![0.0; n],
                    ax: vec![0.0; m],
                    yc: vec![0.0; m],
                    aty: vec![0.0; n],
                })
            })
            .collect();
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
            checks,
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
        let (block, l) = (slot / FO_BLOCK, slot % FO_BLOCK);
        let BlockCheck { lb, ub, x, y, .. } = self.checks[block].get_mut().expect(TASK_LOCK);
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
            let (blk, lane) = self.arena.lane_mut(slot);
            scatter(&mut blk.lb, lane, lb);
            scatter(&mut blk.ub, lane, ub);
            scatter(&mut blk.x, lane, x);
            scatter(&mut blk.y, lane, y);
            scatter(&mut blk.x_restart, lane, x);
            scatter(&mut blk.y_restart, lane, y);
            blk.set_steps(lane, self.eta, self.eta);
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
    /// PDHG iteration in one batched [`gmip_gpu::Accelerator::fo_step`]
    /// (charged as the fused `fo.spmv_t` / `fo.axpy` / `fo.spmv` launches,
    /// plus `fo.norm` when the wave's tick lands on a KKT check, which every
    /// busy lane then takes), then convergence / safe-bound-prune / restart
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
                self.metrics
                    .incr(names::FO_RETIRES, self.retired.len() as f64);
                let _ = self.accel.with(|d| d.record_event(stream));
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
        // lockstep: one executing dispatch through the backend, which also
        // applies the class charges and the retire-boundary event. On a
        // check tick the `fo.norm` phase — KKT evaluation of every busy
        // lane's running average — rides the same dispatch, block by block
        // behind the step.
        let checker = Checker {
            lanes: &self.lanes,
            checks: &self.checks,
            csr: &self.csr,
            b: &self.b,
            c: &self.c,
            slack_rows: &self.slack_rows,
        };
        let check = FoCheck {
            lanes: busy,
            per_lane: ((4 * (n + m)) as f64, (8 * (n + m)) as f64),
            body: &|block, blk| checker.check_block(block, blk),
        };
        self.accel.exec().fo_step(
            &self.csr,
            &self.c_tilde,
            &self.b,
            &mut self.arena,
            &FoStepCharges {
                busy,
                spmv: (flops::spmv(nnz), (16 * nnz + 8 * (m + n)) as f64),
                axpy: ((6 * n + 4 * m) as f64, (8 * (4 * n + 3 * m)) as f64),
            },
            checking.then_some(&check),
            stream,
        );

        self.metrics
            .incr(names::FO_FUSED_LAUNCHES, if checking { 4.0 } else { 3.0 });

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
    /// the KKT quantities [`Checker::check_block`] left in its block's task.
    /// Returns the outcome if the lane retires at this boundary. A lane
    /// whose next check would lie past `max_iters` retires at this one.
    fn decide_lane(&mut self, slot: usize) -> Option<FoOutcome> {
        let (m, n) = (self.m(), self.n());
        let every = self.check_every();
        let (block, l) = (slot / FO_BLOCK, slot % FO_BLOCK);
        let task = self.checks[block].get_mut().expect(TASK_LOCK);
        let chk = task.out[l];
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
            let (x_avg, y_avg) = (&task.x[l * n..(l + 1) * n], &task.y[l * m..(l + 1) * m]);
            let (blk, _) = self.arena.lane_mut(slot);
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
        let (block, l) = (slot / FO_BLOCK, slot % FO_BLOCK);
        let task = self.checks[block].get_mut().expect(TASK_LOCK);
        let (x, y) = if outcome.ships_iterates() {
            (
                task.x[l * n..(l + 1) * n].to_vec(),
                task.y[l * m..(l + 1) * m].to_vec(),
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
mod tests {
    use super::*;
    use crate::solver::{solve_relaxation_host, LpConfig};
    use gmip_problems::catalog::{textbook_lp, textbook_mip};

    fn engine(std: &StandardLp, width: usize, cfg: PdhgConfig) -> FirstOrderWaveEngine {
        FirstOrderWaveEngine::new(Accel::gpu(1), std, width, cfg).expect("engine")
    }

    fn host_optimum(std: &StandardLp) -> f64 {
        let mut lp = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
            HostEngine::new(a.clone())
        });
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Internal maximize value.
        if std.negated {
            -sol.objective
        } else {
            sol.objective
        }
    }

    /// The reservation is what a lane's arena state takes: its share of
    /// every vector of its block, plus its `τ` and `σ`.
    #[test]
    fn a_lane_reserves_what_its_block_holds() {
        use gmip_problems::generators::{bin_packing, knapsack};
        for m in [knapsack(24, 0.5, 3), bin_packing(5, 1.0, 61)] {
            let std = StandardLp::from_instance(&m, &[]);
            let mut fo = engine(&std, 1, PdhgConfig::default());
            let (m, n) = (fo.m(), fo.n());
            let blk = &fo.arena.blocks_mut()[0];
            let vectors = [
                &blk.x,
                &blk.y,
                &blk.x_sum,
                &blk.y_sum,
                &blk.x_restart,
                &blk.y_restart,
                &blk.lb,
                &blk.ub,
                &blk.aty,
                &blk.xhat,
                &blk.ax,
            ];
            let held: usize = vectors.iter().map(|v| std::mem::size_of_val(&v[..])).sum();
            let steps = 2 * std::mem::size_of::<f64>();
            assert_eq!(
                FirstOrderWaveEngine::per_lane_bytes(m, n),
                held / FO_BLOCK + steps
            );
        }
    }

    #[test]
    fn pdhg_converges_to_lp_optimum_and_restarts() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let expected = host_optimum(&std);
        let mut fo = engine(&std, 1, PdhgConfig::default());
        fo.load_lane(0, 7, &[], None).unwrap();
        let retired = fo.run_to_retire();
        assert_eq!(retired, vec![0]);
        let r = fo.take_lane(0).unwrap();
        assert_eq!(r.token, 7);
        assert_eq!(r.outcome, FoOutcome::Converged);
        assert!(
            r.restarts >= 1,
            "adaptive restarts must trigger on a real solve"
        );
        let obj: f64 = std.c.iter().zip(&r.x).map(|(c, x)| c * x).sum();
        assert!(
            (obj - expected).abs() <= 1e-3 * (1.0 + expected.abs()),
            "pdhg {obj} vs simplex {expected}"
        );
        // The safe bound never dips below the true optimum.
        assert!(
            r.safe_bound >= expected - 1e-9,
            "{} < {expected}",
            r.safe_bound
        );
    }

    #[test]
    fn safe_bound_is_valid_at_arbitrary_duals() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let opt = host_optimum(&std);
        let csr = CsrMatrix::from_dense(&std.a);
        let slack_rows: Vec<(usize, f64)> = std.slacks.iter().map(|&(_, r, cf)| (r, cf)).collect();
        // Any dual vector — including wildly wrong ones — must bound the
        // optimum from above.
        for y in [
            vec![0.0; std.m()],
            vec![1.0; std.m()],
            vec![-3.5; std.m()],
            (0..std.m()).map(|i| (i as f64) - 1.7).collect(),
        ] {
            let b = safe_dual_bound(&csr, &std.b, &std.c, &std.lb, &std.ub, &slack_rows, &y);
            assert!(b >= opt - 1e-9, "bound {b} < optimum {opt} at y={y:?}");
        }
    }

    #[test]
    fn infeasible_bounds_detected_at_load() {
        let mip = textbook_mip();
        let std = StandardLp::from_instance(&mip, &[]);
        let mut fo = engine(&std, 2, PdhgConfig::default());
        // Fix x0 beyond what row feasibility allows: lb far above any
        // attainable activity.
        let dead = BoundChange {
            var: 0,
            lb: 1e6,
            ub: 1e6,
        };
        fo.load_lane(0, 1, &[dead], None).unwrap();
        let retired = fo.run_to_retire();
        assert_eq!(retired, vec![0]);
        let r = fo.take_lane(0).unwrap();
        assert_eq!(r.outcome, FoOutcome::Infeasible);
        assert_eq!(r.iterations, 0, "infeasible lanes never iterate");
        assert_eq!(fo.metrics().counter(names::FO_INFEASIBLE), 1.0);
    }

    #[test]
    fn cutoff_prunes_lane_early_without_convergence() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let expected = host_optimum(&std);
        let mut fo = engine(&std, 1, PdhgConfig::default());
        // An incumbent far above the optimum dominates every node bound.
        fo.set_cutoff(expected + 1e3);
        fo.load_lane(0, 3, &[], None).unwrap();
        let retired = fo.run_to_retire();
        assert_eq!(retired, vec![0]);
        let r = fo.take_lane(0).unwrap();
        assert_eq!(r.outcome, FoOutcome::BoundPruned);
        assert!(
            r.iterations < 200,
            "prune must fire at an early check, ran {}",
            r.iterations
        );
        assert!(r.safe_bound <= expected + 1e3);
    }

    #[test]
    fn retire_refill_bookkeeping() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut fo = engine(&std, 2, PdhgConfig::default());
        fo.load_lane(0, 10, &[], None).unwrap();
        fo.load_lane(1, 11, &[], None).unwrap();
        assert!(fo.any_busy());
        // Loading an occupied slot is rejected.
        assert!(fo.load_lane(0, 12, &[], None).is_err());
        let mut taken = 0;
        while fo.any_busy() || (0..fo.width()).any(|s| !fo.lane_idle(s)) {
            for slot in fo.run_to_retire().to_vec() {
                let r = fo.take_lane(slot).unwrap();
                taken += 1;
                // Refill once with a warm start from the retired lane.
                if taken <= 1 {
                    fo.load_lane(slot, 12, &[], Some((&r.x, &r.y))).unwrap();
                    fo.note_refill();
                }
            }
            if !fo.any_busy() {
                break;
            }
        }
        assert_eq!(taken, 3, "two initial lanes + one refill");
        let m = fo.metrics();
        assert_eq!(m.counter(names::FO_RETIRES), 3.0);
        assert_eq!(m.counter(names::FO_REFILLS), 1.0);
        assert_eq!(m.counter(names::FO_CONVERGED), 3.0);
        // Taking an empty slot is rejected.
        assert!(fo.take_lane(0).is_err());
    }

    #[test]
    fn warm_started_lane_converges_faster() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut fo = engine(&std, 1, PdhgConfig::default());
        fo.load_lane(0, 0, &[], None).unwrap();
        fo.run_to_retire();
        let cold = fo.take_lane(0).unwrap();
        assert_eq!(cold.outcome, FoOutcome::Converged);
        // Re-solve the same node from the parent's iterates.
        fo.load_lane(0, 1, &[], Some((&cold.x, &cold.y))).unwrap();
        fo.run_to_retire();
        let warm = fo.take_lane(0).unwrap();
        assert_eq!(warm.outcome, FoOutcome::Converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn finish_lane_finishes_every_outcome_and_counts_cleanups() {
        let mip = textbook_mip();
        let std = StandardLp::from_instance(&mip, &[]);
        let reference = solve_relaxation_host(&mip, &[]).unwrap();
        let run = |cfg: PdhgConfig, cutoff: f64, bounds: &[BoundChange]| {
            let mut fo = FirstOrderWaveEngine::new(Accel::gpu(1), &std, 1, cfg).unwrap();
            let mut cleanup = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
                HostEngine::new(a.clone())
            });
            fo.set_cutoff(cutoff);
            fo.load_lane(0, 0, bounds, None).unwrap();
            fo.run_to_retire();
            let (sol, lane) = fo.finish_lane(0, &mut cleanup, bounds).unwrap();
            assert!(fo.lane_idle(0), "the slot is free for a refill");
            (sol, lane, fo.take_metrics())
        };
        let none = f64::NEG_INFINITY;
        // Converged, and capped after one check: both are cleaned up exactly.
        let capped = PdhgConfig {
            max_iters: 4,
            ..Default::default()
        };
        for (cfg, counter) in [
            (PdhgConfig::default(), names::FO_CONVERGED),
            (capped, names::FO_ITER_LIMIT),
        ] {
            let (sol, lane, m) = run(cfg, none, &[]);
            assert_eq!(sol.objective.to_bits(), reference.objective.to_bits());
            assert!(lane.iterations > 0 && sol.x.len() == std.n_structural);
            assert_eq!(
                (m.counter(counter), m.counter(names::FO_CLEANUPS)),
                (1.0, 1.0)
            );
            assert_eq!(m.counter(names::FO_CLEANUP_ITERS), sol.iterations as f64);
        }
        // A bound-pruned lane is a point-less bound; a lane infeasible at
        // load never iterated. Neither needs a cleanup.
        let (sol, lane, m) = run(PdhgConfig::default(), reference.objective + 1e3, &[]);
        assert_eq!((sol.status, sol.x.len()), (LpStatus::Optimal, 0));
        assert!(sol.objective >= reference.objective && sol.iterations == lane.iterations);
        assert_eq!(m.counter(names::FO_CLEANUPS), 0.0);
        let dead = [BoundChange {
            var: 0,
            lb: 1e6,
            ub: 1e6,
        }];
        let (sol, _, m) = run(PdhgConfig::default(), none, &dead);
        assert_eq!((sol.status, sol.iterations), (LpStatus::Infeasible, 0));
        assert_eq!(m.counter(names::FO_CLEANUPS), 0.0);
    }

    /// Every `f64` the arena holds, with the slot-major index of its lane.
    fn arena_values(fo: &mut FirstOrderWaveEngine) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for (b, blk) in fo.arena.blocks_mut().iter().enumerate() {
            for v in [
                &blk.x,
                &blk.y,
                &blk.x_sum,
                &blk.y_sum,
                &blk.x_restart,
                &blk.y_restart,
                &blk.lb,
                &blk.ub,
                &blk.aty,
                &blk.xhat,
                &blk.ax,
            ] {
                out.extend(
                    v.iter()
                        .enumerate()
                        .map(|(k, &e)| (b * FO_BLOCK + k % FO_BLOCK, e)),
                );
            }
        }
        out
    }

    #[test]
    fn retired_lane_keeps_its_report_while_the_block_steps_on() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let cfg = PdhgConfig::default();
        let mut fo = engine(&std, 1, cfg.clone());
        fo.load_lane(0, 0, &[], None).unwrap();
        fo.run_to_retire();
        let solved = fo.take_lane(0).unwrap();

        // Lane 0 starts at the solution and retires at its first check;
        // lane 1 starts cold in the same block and iterates far longer.
        let start = |late: usize| {
            let mut fo = engine(&std, 2, cfg.clone());
            fo.load_lane(0, 7, &[], Some((&solved.x, &solved.y)))
                .unwrap();
            fo.load_lane(1, 8, &[], None).unwrap();
            assert_eq!(fo.run_to_retire(), vec![0]);
            for _ in 0..late {
                assert!(fo.lane_busy(1), "lane 1 must outlive the delay");
                assert!(fo.superstep().is_empty());
            }
            let inert = arena_values(&mut fo)
                .into_iter()
                .filter(|&(slot, _)| slot != 1)
                .all(|(_, e)| e.to_bits() == 0);
            assert!(inert, "retired and empty slots hold +0.0 only");
            fo.take_lane(0).unwrap()
        };
        let (now, later) = (start(0), start(5));
        assert_eq!(now.outcome, FoOutcome::Converged);
        assert_eq!(now.iterations, later.iterations);
        assert_eq!(now.safe_bound.to_bits(), later.safe_bound.to_bits());
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&now.x), bits(&later.x));
        assert_eq!(bits(&now.y), bits(&later.y));
    }

    #[test]
    fn padding_and_empty_slots_stay_finite() {
        let mip = textbook_mip();
        let std = StandardLp::from_instance(&mip, &[]);
        // Three lanes of an eight-lane block; slot 1 is loaded infeasible
        // (never scattered), slot 2 is refilled once.
        let mut fo = engine(&std, 3, PdhgConfig::default());
        let dead = BoundChange {
            var: 0,
            lb: 1e6,
            ub: 1e6,
        };
        fo.load_lane(0, 0, &[], None).unwrap();
        fo.load_lane(1, 1, &[dead], None).unwrap();
        fo.load_lane(2, 2, &[], None).unwrap();
        let mut refilled = false;
        while (0..3).any(|s| !fo.lane_idle(s)) {
            for slot in fo.run_to_retire().to_vec() {
                let r = fo.take_lane(slot).unwrap();
                assert!(r.x.iter().chain(&r.y).all(|e| e.is_finite()));
                if slot == 2 && !refilled {
                    refilled = true;
                    fo.load_lane(2, 3, &[], Some((&r.x, &r.y))).unwrap();
                }
            }
            assert!(arena_values(&mut fo).iter().all(|(_, e)| e.is_finite()));
        }
        assert!(refilled);
        assert!(arena_values(&mut fo).iter().all(|(_, e)| e.to_bits() == 0));
    }

    #[test]
    fn bound_changes_override_the_root_box_and_are_range_checked() {
        let mip = textbook_mip();
        let narrowed = BoundChange {
            var: 0,
            lb: 0.0,
            ub: 1.0,
        };
        // Loading the change on the root form equals loading the root box
        // of a form lowered with the change already applied.
        let mut by_change = engine(
            &StandardLp::from_instance(&mip, &[]),
            1,
            PdhgConfig::default(),
        );
        by_change.load_lane(0, 0, &[narrowed], None).unwrap();
        let mut by_form = engine(
            &StandardLp::from_instance(&mip, &[narrowed]),
            1,
            PdhgConfig::default(),
        );
        by_form.load_lane(0, 0, &[], None).unwrap();
        by_change.run_to_retire();
        by_form.run_to_retire();
        let (a, b) = (
            by_change.take_lane(0).unwrap(),
            by_form.take_lane(0).unwrap(),
        );
        assert_eq!((a.outcome, a.iterations), (b.outcome, b.iterations));
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
        let out_of_range = BoundChange {
            var: by_change.n(),
            ..narrowed
        };
        assert!(by_change.load_lane(0, 1, &[out_of_range], None).is_err());
    }

    #[test]
    fn supersteps_fuse_launches_in_lockstep() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let accel = Accel::gpu(1);
        let mut fo =
            FirstOrderWaveEngine::new(accel.clone(), &std, 4, PdhgConfig::default()).unwrap();
        for slot in 0..4 {
            fo.load_lane(slot, slot as u64, &[], None).unwrap();
        }
        let before = accel.stats().kernel_launches;
        fo.superstep();
        let after = accel.stats().kernel_launches;
        // Four lanes, one iteration each: 3 fused launches (spmv_t, axpy,
        // spmv) — not 12 per-lane ones. (First check lands later.)
        assert_eq!(after - before, 3, "lockstep fuses all lanes per class");
        assert_eq!(fo.metrics().counter(names::FO_SUPERSTEPS), 1.0);
        assert_eq!(fo.metrics().counter(names::FO_ITERATIONS), 4.0);
    }

    /// The link rule on the first-order side: loads cross nothing until the
    /// next superstep, which makes one H2D of their summed bytes ahead of
    /// the dispatch; a superstep in which several lanes retire makes one D2H
    /// of all their reports (a lane infeasible at load ships its outcome and
    /// bound, 16 B); collecting a lane crosses nothing.
    #[test]
    fn a_superstep_stages_the_loads_and_reports_of_its_lanes() {
        let std = StandardLp::from_instance(&textbook_mip(), &[]);
        let (m, n) = (std.m(), std.n());
        // Bytes of a cold load (its box) and of a report or a warm start.
        let (cold, row) = ((16 * n) as u64, (8 * (n + m)) as u64);
        let accel = Accel::gpu(1);
        let mut fo =
            FirstOrderWaveEngine::new(accel.clone(), &std, 5, PdhgConfig::default()).unwrap();
        let mut cleanup = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
            HostEngine::new(a.clone())
        });
        let dead = BoundChange {
            var: 0,
            lb: 1e6,
            ub: 1e6,
        };
        let (wx, wy) = (vec![0.0; n], vec![0.0; m]);
        let before = (accel.stats(), accel.elapsed_ns());
        // Three identical cold lanes (they retire together), one warm lane
        // and one lane infeasible at load.
        for slot in 0..3 {
            fo.load_lane(slot, slot as u64, &[], None).unwrap();
        }
        fo.load_lane(3, 3, &[], Some((&wx, &wy))).unwrap();
        fo.load_lane(4, 4, &[dead], None).unwrap();
        assert_eq!((accel.stats(), accel.elapsed_ns()), before);

        let s0 = accel.stats();
        assert_eq!(fo.superstep(), vec![4], "the dead lane retires first");
        let s1 = accel.stats();
        assert_eq!(s1.h2d_transfers - s0.h2d_transfers, 1);
        assert_eq!(s1.h2d_bytes - s0.h2d_bytes, 5 * cold + row);
        assert_eq!(s1.d2h_transfers - s0.d2h_transfers, 1);
        assert_eq!(s1.d2h_bytes - s0.d2h_bytes, 16);

        let mut together = Vec::new();
        while fo.any_busy() {
            let s = accel.stats();
            let retired = fo.superstep();
            let t = accel.stats();
            assert_eq!(t.h2d_transfers, s.h2d_transfers, "nothing was loaded");
            let k = retired.len() as u64;
            assert_eq!(t.d2h_transfers - s.d2h_transfers, k.min(1));
            assert_eq!(t.d2h_bytes - s.d2h_bytes, k * row);
            if retired.len() >= 2 {
                together = retired.to_vec();
            }
        }
        assert_eq!(together, [0, 1, 2], "identical lanes retire together");
        let (s, clock) = (accel.stats(), accel.elapsed_ns());
        for slot in 0..5 {
            fo.finish_lane(slot, &mut cleanup, &[]).unwrap();
        }
        assert_eq!((accel.stats(), accel.elapsed_ns()), (s, clock));
    }

    /// A load that fails stages nothing: the next H2D carries the good
    /// lanes' bytes only, and the failed slots stay free.
    #[test]
    fn a_refused_load_stages_no_bytes() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let (m, n) = (std.m(), std.n());
        let accel = Accel::gpu(1);
        let mut fo =
            FirstOrderWaveEngine::new(accel.clone(), &std, 4, PdhgConfig::default()).unwrap();
        let off_the_end = BoundChange {
            var: n,
            lb: 0.0,
            ub: 1.0,
        };
        let (short_x, y) = (vec![0.0; n - 1], vec![0.0; m]);
        fo.load_lane(0, 0, &[], None).unwrap();
        assert!(fo.load_lane(1, 1, &[off_the_end], None).is_err());
        assert!(fo.load_lane(2, 2, &[], Some((&short_x, &y))).is_err());
        fo.load_lane(3, 3, &[], None).unwrap();
        assert!(fo.lane_idle(1) && fo.lane_idle(2));
        let before = accel.stats();
        fo.superstep();
        let s = accel.stats();
        assert_eq!(s.h2d_transfers - before.h2d_transfers, 1);
        assert_eq!(s.h2d_bytes - before.h2d_bytes, (2 * 16 * n) as u64);
    }

    /// Drives a `width`-lane wave over `knapsack(12)` whose lanes join at
    /// different supersteps — lane `k` ahead of the `k + 1`-th — and refills
    /// every retired slot until `loads` nodes ran, each a different child
    /// box. Returns the reports, the `fo.*` counters and, per superstep that
    /// stepped lanes, its busy lanes and the lanes its `fo.norm` charge
    /// covers (read off the device's flop counter).
    fn staggered_wave(
        cfg: PdhgConfig,
        width: usize,
        loads: usize,
    ) -> (Vec<FoLaneReport>, MetricsRegistry, Vec<(usize, usize)>) {
        use gmip_problems::generators::knapsack;
        let std = StandardLp::from_instance(&knapsack(12, 0.5, 3), &[]);
        let accel = Accel::gpu(1);
        let mut fo = FirstOrderWaveEngine::new(accel.clone(), &std, width, cfg).unwrap();
        let (m, n) = (fo.m(), fo.n());
        let step = 2.0 * flops::spmv(fo.csr.nnz()) + (6 * n + 4 * m) as f64;
        let norm = (4 * (n + m)) as f64;
        let load = |fo: &mut FirstOrderWaveEngine, slot: usize, k: usize| {
            let child = BoundChange {
                var: k % std.n_structural,
                lb: 0.0,
                ub: (k % 2) as f64,
            };
            fo.load_lane(slot, k as u64, &[child], None).unwrap();
        };
        let (mut joined, mut loaded) = (0, 0);
        let (mut reports, mut steps) = (Vec::new(), Vec::new());
        loop {
            if joined < width && loaded < loads {
                load(&mut fo, joined, loaded);
                (joined, loaded) = (joined + 1, loaded + 1);
            }
            let busy = (0..width).filter(|&s| fo.lane_busy(s)).count();
            let before = accel.stats().flops;
            let retired = fo.superstep().to_vec();
            let spent = accel.stats().flops - before;
            if busy > 0 {
                let checked = (spent - busy as f64 * step) / norm;
                assert_eq!(checked.fract(), 0.0, "a whole number of checks");
                steps.push((busy, checked as usize));
            }
            for slot in retired {
                reports.push(fo.take_lane(slot).unwrap());
                if loaded < loads {
                    load(&mut fo, slot, loaded);
                    loaded += 1;
                }
            }
            if loaded == loads && (0..width).all(|s| fo.lane_idle(s)) {
                return (reports, fo.take_metrics(), steps);
            }
        }
    }

    /// `fo.fused_launches ≤ 3·fo.supersteps + ⌈fo.supersteps / every⌉`.
    fn launches_within_the_tick_bound(metrics: &MetricsRegistry, every: usize) {
        let steps = metrics.counter(names::FO_SUPERSTEPS) as usize;
        let launches = metrics.counter(names::FO_FUSED_LAUNCHES) as usize;
        assert!(
            launches <= 3 * steps + steps.div_ceil(every),
            "{launches} launches in {steps} supersteps"
        );
    }

    /// Lanes that joined at different supersteps still check together: a
    /// superstep checks every busy lane when the wave's tick is a multiple
    /// of `CHECK_EVERY` and none otherwise, so `fo.norm` launches once every
    /// `CHECK_EVERY` supersteps.
    #[test]
    fn every_superstep_checks_all_busy_lanes_or_none() {
        let (reports, metrics, steps) = staggered_wave(PdhgConfig::default(), 6, 24);
        assert_eq!(reports.len(), 24);
        assert!(steps.len() > 4 * CHECK_EVERY);
        for (k, &(busy, checked)) in steps.iter().enumerate() {
            let tick = k + 1;
            let expected = if tick.is_multiple_of(CHECK_EVERY) {
                busy
            } else {
                0
            };
            assert_eq!(checked, expected, "tick {tick}: {busy} busy lanes");
        }
        assert_eq!(metrics.counter(names::FO_SUPERSTEPS) as usize, steps.len());
        launches_within_the_tick_bound(&metrics, CHECK_EVERY);
    }

    /// The cap is held on the tick: no lane reports more iterations than
    /// `max_iters`, a capped lane retires at the last check within it, and
    /// a cap below `CHECK_EVERY` checks every `max_iters` ticks.
    #[test]
    fn no_lane_iterates_past_its_cap() {
        for max_iters in [1, 3, 150, usize::MAX] {
            let uncapped = max_iters == usize::MAX;
            let cfg = PdhgConfig {
                // Out of reach, so that capped lanes retire on the cap.
                tol: if uncapped { 1e-4 } else { 1e-300 },
                max_iters,
            };
            let every = max_iters.clamp(1, CHECK_EVERY);
            let (reports, metrics, _) = staggered_wave(cfg, 6, 18);
            assert_eq!(reports.len(), 18, "cap {max_iters}");
            for r in &reports {
                assert!(r.iterations <= max_iters, "cap {max_iters}: {r:?}");
                if r.outcome == FoOutcome::IterLimit {
                    assert!(r.iterations + every > max_iters, "cap {max_iters}: {r:?}");
                }
            }
            let capped = reports.iter().filter(|r| r.outcome == FoOutcome::IterLimit);
            assert_eq!(capped.count() == 0, uncapped, "cap {max_iters}");
            launches_within_the_tick_bound(&metrics, every);
        }
    }
}
