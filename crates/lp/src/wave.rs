//! The batched wave evaluator — Section 5.5's lockstep node-LP batching.
//!
//! "In modern GPUs, the memory capacity has increased sufficiently to
//! consider housing and solving multiple branch-and-cut nodes concurrently
//! on the same GPU" — and Section 4.3 adds that *batched* small-matrix
//! routines (Rennich-style) are the right kernel shape for it, because one
//! fused launch amortizes the launch latency that per-lane engines pay per
//! engine call per lane per pivot.
//!
//! The per-lane baseline ([`crate::DeviceEngine`] lanes in
//! `gmip_core::concurrent`) parks one private matrix copy per lane and
//! issues one launch per engine call per lane — through the device's one
//! launch-issue queue, so N lanes' launches follow one another however
//! many streams they sit on. This module inverts both decisions:
//!
//! * **one shared device-resident `[A | I]` matrix** serves every lane
//!   (per-lane state is a small reservation), so the wave width is bounded
//!   by `batch ≈ device_mem / matrix_mem` ([`wave_width`]) instead of
//!   `device_mem / (lanes × matrix_mem)`;
//! * **one fused batched launch per kernel class per superstep**
//!   ([`gmip_gpu::GpuDevice::batched_wave_kernel`]): every active lane
//!   contributes
//!   its instance of the class (BTRAN, FTRAN, pricing scan, ratio
//!   reduction, pivot update) and the batch pays a single launch latency;
//! * **one staged link crossing per direction per superstep**: the lanes'
//!   install uploads and solution read-backs of a step are packed into one
//!   H2D and one D2H transfer of their summed bytes, so the link latency —
//!   like the launch latency — is paid per superstep, not per lane. Nothing
//!   else crosses: a warm start ships inside its lane's install, exactly as
//!   [`crate::DeviceEngine`] ships one — each lane keeps the same install
//!   record, so what the parent's basis changes of it rides the install's
//!   kernel as launch arguments, and only a lane with no record (its first
//!   install, the first after a cut) or a change over
//!   [`gmip_gpu::LAUNCH_WRITES`] entries uploads the record's nine vectors.
//!   A whole solve makes at most one H2D per superstep plus the shared
//!   matrix upload, and in practice little more than one per lane;
//! * **event-based retire-and-refill**: a lane whose node LP reaches
//!   optimality exits the wave at a superstep boundary (a stream event,
//!   *not* a device-wide `synchronize`) and is refilled immediately, so
//!   short lanes never wait for the longest lane in a join-all.
//!
//! Numerically, one [`RecordingEngine`] plans every lane: a [`HostEngine`]
//! that takes the exact pivot path of the reference implementation while
//! journaling one [`WaveOp`] per kernel *class* an engine call touches. One
//! planner serves the whole wave because a node LP's path depends only on
//! its bounds and its warm basis; a lane keeps only what its device holds —
//! its journal, its state reservation and its install record, which
//! [`BatchedWaveEngine::journal_node`] lends the planner for the lane's
//! plan. The wave engine then
//! replays those journals in lockstep against the simulated device, which
//! is where the simulated-ns clock and the kernel/transfer ledger accrue.
//! Identical pivot paths are the repository's standing engine-equivalence
//! property, so the batched strategy reproduces host objectives bit-for-bit
//! while the *platform* cost model changes underneath.

use crate::basis::Basis;
use crate::engine::{HostEngine, PivotPlan, ProblemView, SimplexEngine};
use crate::problem::BoundChange;
use crate::record::InstallRecord;
use crate::solver::{LpSolution, LpSolver};
use crate::LpResult;
use gmip_gpu::cost::flops;
use gmip_gpu::{Accel, MatrixHandle, RawHandle, StreamId, DEFAULT_STREAM};
use gmip_linalg::DenseMatrix;
use gmip_trace::{names, MetricsRegistry};
use std::collections::VecDeque;

/// The kernel classes a wave superstep can fuse. Each class maps to one
/// fused batched launch when at least one lane's next op belongs to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaveClass {
    /// Basis gather + LU/eta factorization (install, refactorization).
    Factor,
    /// Eta-file FTRAN of an entering column.
    Ftran,
    /// Eta-file BTRAN of duals or a leaving row.
    Btran,
    /// Reduced-cost / pricing scan over all columns.
    Pricing,
    /// Ratio-test / infeasibility argmin-argmax reductions.
    Ratio,
    /// Basic-value step, eta append, status writes after a pivot or flip.
    Update,
    /// O(1) scalar gathers crossing the link (pivot entries).
    Gather,
}

/// Deterministic fusion order within a superstep: the declaration order of
/// [`WaveClass`], so `class as usize` indexes it.
const CLASS_ORDER: [WaveClass; 7] = [
    WaveClass::Factor,
    WaveClass::Ftran,
    WaveClass::Btran,
    WaveClass::Pricing,
    WaveClass::Ratio,
    WaveClass::Update,
    WaveClass::Gather,
];

impl WaveClass {
    /// The trace span name of this class's fused launch.
    pub fn span_name(self) -> &'static str {
        match self {
            WaveClass::Factor => "wave.factor",
            WaveClass::Ftran => "wave.ftran",
            WaveClass::Btran => "wave.btran",
            WaveClass::Pricing => "wave.pricing",
            WaveClass::Ratio => "wave.ratio",
            WaveClass::Update => "wave.update",
            WaveClass::Gather => "wave.gather",
        }
    }
}

/// One journaled device operation of a lane's node-LP solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WaveOp {
    /// A kernel instance: fused with same-class instances of other lanes.
    Kernel {
        /// Kernel class (decides which fused launch it joins).
        class: WaveClass,
        /// Floating-point operations of this lane's instance.
        flops: f64,
        /// Memory traffic of this lane's instance, bytes.
        bytes: f64,
    },
    /// A host↔device transfer. The transfers the lanes make in one superstep
    /// are staged — summed per direction and charged as one crossing each
    /// way — the way [`crate::DeviceEngine`] stages the vectors of its
    /// install; see [`RecordingEngine`] for which crossings the two engines
    /// share.
    Transfer {
        /// Payload bytes.
        bytes: usize,
        /// Direction (`true` = host to device).
        h2d: bool,
    },
}

/// A [`SimplexEngine`] that runs the reference host numerics while
/// journaling the device work of each call, one [`WaveOp`] per kernel
/// **class** the call touches — not per kernel, and not per launch. A
/// [`crate::DeviceEngine`] call is one launch chain whatever it runs (an
/// install's `residual → eta_factor → eta_ftran` is one launch there, one
/// `Factor` op here); a primal select (`price → ftran_column →
/// ratio_test`) is one launch there and four ops here (`Btran`, `Pricing`,
/// `Ftran`, `Ratio`). The journal is cut by class because a class is
/// what fuses *across lanes*: in a superstep every lane's `Btran` instance
/// joins one batched launch, every `Pricing` instance the next, and a
/// chain of different kernels has no such batched form. So a narrow wave
/// launches *more* than a device engine — a pivot is two chains there and
/// one launch per class it touches here — and the saving starts where
/// enough lanes share each launch (E4-C: level at four lanes, 1.5× fewer
/// at eight).
///
/// What crosses the link, journal against device engine:
///
/// * **shared** — a cut's row and slack column (one H2D of both), and the
///   full-vector read-backs (`basic_values`,
///   `reduced_costs_host`, `btran_row_host`, `dual_prices`: one D2H each).
///   The scalar stores of a pivot or a bound flip cross in neither: they are
///   arguments of the `Update` kernel here and of `basic_step` there. And
///   the install: both engines keep the same install record, make the same
///   upload-or-delta decision and ship the same upload, the record's nine
///   vectors (`8(5n + 4m)` bytes, `InstallRecord::bytes`). A delta rides
///   the `Factor` kernel as arguments on both, and the journal still books
///   its `Transfer` op, of 0 bytes: the op is a step of the lane's phase,
///   and dropping it would shift every later superstep's fusion;
/// * **modelled differently** — scalars coming *back*. The device engine
///   stages them: a pivot's select is one launch chain whose reductions
///   (pricing, both ratio tests, the infeasibility argmax) leave their
///   16–24 byte results on the device, where the chain's next kernel reads
///   them, and whose pivot entries (`basic_entry`, `alpha_r_entry`, the two
///   of `devex_update`) are gathered there too; all of it crosses the link
///   once per select, behind the last kernel. The journal sees none of that
///   grouping — its lanes keep the [`SimplexEngine`] defaults, primitive by
///   primitive — and books what the device engine stages as follows: a
///   reduction's result is folded into its kernel, and a pivot entry is a
///   [`WaveClass::Gather`] kernel instance — a fused *launch* across lanes,
///   not a link crossing — which is the batched reading of the same step:
///   the wave's host sees one gather per superstep, not one per lane.
///
/// The journal is the reason the run-shaped calls have default bodies at
/// all: it is cut by class, so a lane has to see `btran_row` and
/// `dual_ratio` as two calls in today's order, not one `dual_run`.
///
/// `sim_now_ns` stays `None`: the eager host solve is *planning*, not
/// execution — simulated time accrues only when the journal is replayed
/// through [`BatchedWaveEngine`] (this also keeps stray `lp.*` spans off
/// the trace during planning).
#[derive(Debug)]
pub struct RecordingEngine {
    inner: HostEngine,
    ops: Vec<WaveOp>,
    /// What a [`crate::DeviceEngine`] on the same calls would hold
    /// resident: it decides whether an install uploads. In a wave it is the
    /// planned lane's, lent by [`BatchedWaveEngine::journal_node`].
    record: InstallRecord,
}

impl RecordingEngine {
    /// Wraps a host engine over the extended matrix.
    pub fn new(a: DenseMatrix) -> Self {
        Self {
            inner: HostEngine::new(a),
            ops: Vec::new(),
            record: InstallRecord::default(),
        }
    }

    /// The install record the lane keeps.
    #[cfg(test)]
    pub(crate) fn record(&self) -> &InstallRecord {
        &self.record
    }

    /// Drains the journal accumulated since the last call.
    pub fn take_ops(&mut self) -> Vec<WaveOp> {
        std::mem::take(&mut self.ops)
    }

    fn kernel(&mut self, class: WaveClass, flops: f64, bytes: f64) {
        self.ops.push(WaveOp::Kernel {
            class,
            flops,
            bytes,
        });
    }

    fn transfer(&mut self, bytes: usize, h2d: bool) {
        self.ops.push(WaveOp::Transfer { bytes, h2d });
    }

    /// Etas currently in the inner engine's file (sizes FTRAN/BTRAN work).
    fn k(&self) -> usize {
        self.inner.eta_count()
    }

    fn btran_op(&mut self) {
        let (m, k) = (self.inner.m(), self.k());
        self.kernel(
            WaveClass::Btran,
            flops::eta_apply(k + 1, m),
            8.0 * (m * (k + 2)) as f64,
        );
    }

    fn pricing_op(&mut self, extra_flops: f64) {
        let (m, n) = (self.inner.m(), self.inner.n());
        self.kernel(
            WaveClass::Pricing,
            flops::gemv(m, n) + extra_flops,
            8.0 * (m * n + 2 * n) as f64,
        );
    }
}

impl SimplexEngine for RecordingEngine {
    fn m(&self) -> usize {
        self.inner.m()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()> {
        let (m, n) = (self.inner.m(), self.inner.n());
        // The DeviceEngine install leg: the record's nine vectors in one
        // staged upload — or, when the record makes their change fit one
        // launch's arguments, as arguments of the Factor kernel, an upload
        // of 0 bytes that keeps the lane's phase — then residual + basis
        // gather + factorization + the initial FTRAN.
        let fits = view.check(basis, m, n).is_ok()
            && self.record.take(view, basis, |_, _, _| {}) == Ok(true);
        self.transfer(if fits { 0 } else { self.record.bytes() }, true);
        self.kernel(
            WaveClass::Factor,
            flops::gemv(m, n) + flops::lu(m) + flops::lu_solve(m),
            8.0 * (m * n + 2 * m * m) as f64,
        );
        self.inner.install(view, basis)?;
        self.record.hold();
        Ok(())
    }

    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        self.transfer(8 * (row.len() + col.len()), true);
        let m = self.inner.m();
        self.kernel(WaveClass::Update, 0.0, 8.0 * (row.len() + m) as f64);
        // The recorded vectors are a column and a row short now.
        self.record.held = false;
        self.inner.append_cut(row, col)
    }

    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.btran_op();
        // Pricing scan + σ-mask multiply + argmin reduction, fused.
        self.pricing_op(2.0 * self.inner.n() as f64);
        self.inner.price()
    }

    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        self.btran_op();
        self.pricing_op(0.0);
        self.transfer(8 * self.inner.n(), false);
        self.inner.reduced_costs_host()
    }

    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        let (m, k) = (self.inner.m(), self.k());
        self.kernel(
            WaveClass::Ftran,
            flops::eta_apply(k + 1, m),
            8.0 * (m * (k + 2)) as f64,
        );
        self.inner.ftran_column(q)
    }

    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let m = self.inner.m();
        self.kernel(WaveClass::Ratio, 4.0 * m as f64, 8.0 * (4 * m) as f64);
        self.inner.ratio_test(dir, tol)
    }

    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        let m = self.inner.m();
        self.kernel(WaveClass::Update, 2.0 * m as f64, 8.0 * (2 * m) as f64);
        self.inner.apply_flip(q, dir, t, new_sigma)?;
        self.record.flip(q, new_sigma);
        Ok(())
    }

    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        let m = self.inner.m();
        // Basic step + eta append + the status/bound stores riding the step
        // as arguments.
        self.kernel(
            WaveClass::Update,
            2.0 * m as f64 + 8.0,
            8.0 * (2 * m + 8) as f64,
        );
        self.inner.apply_pivot(plan)?;
        self.record.pivot(plan);
        Ok(())
    }

    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        self.transfer(8 * self.inner.m(), false);
        self.inner.basic_values()
    }

    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        self.kernel(WaveClass::Gather, 1.0, 8.0);
        self.inner.basic_entry(i)
    }

    fn eta_count(&self) -> usize {
        self.inner.eta_count()
    }

    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let m = self.inner.m();
        self.kernel(WaveClass::Ratio, 2.0 * m as f64, 8.0 * (2 * m) as f64);
        self.inner.primal_infeas(tol)
    }

    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        self.btran_op();
        self.pricing_op(0.0);
        self.inner.btran_row(r)
    }

    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        let n = self.inner.n();
        self.kernel(WaveClass::Ratio, 4.0 * n as f64, 8.0 * (2 * n) as f64);
        self.inner.dual_ratio(leaving_below, tol)
    }

    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        self.kernel(WaveClass::Gather, 1.0, 8.0);
        self.inner.alpha_r_entry(j)
    }

    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.btran_op();
        self.pricing_op(0.0);
        self.transfer(8 * self.inner.n(), false);
        self.inner.btran_row_host(r)
    }

    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        self.btran_op();
        self.transfer(8 * self.inner.m(), false);
        self.inner.dual_prices()
    }

    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.btran_op();
        self.pricing_op(3.0 * self.inner.n() as f64);
        self.inner.price_devex()
    }

    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        let n = self.inner.n();
        self.kernel(WaveClass::Gather, 2.0, 16.0);
        self.kernel(WaveClass::Update, 2.0 * n as f64, 8.0 * (2 * n) as f64);
        self.inner.devex_update(q, leaving_j)
    }
}

/// Sizes the wave: how many lanes fit next to the shared matrix, per the
/// paper's `batch ≈ device_mem / matrix_mem` rule (Section 5.5) — except
/// the matrix is shared, so the divisor is the *per-lane state*, not a
/// per-lane matrix copy. Clamped to `[1, requested]`.
pub fn wave_width(
    requested: usize,
    mem_capacity: usize,
    matrix_bytes: usize,
    per_lane_bytes: usize,
) -> usize {
    let free = mem_capacity.saturating_sub(matrix_bytes);
    let fit = free / per_lane_bytes.max(1);
    requested.max(1).min(fit.max(1))
}

/// The lockstep replayer: owns the shared device matrix and what each lane
/// holds — its journal, its state reservation, its install record; every
/// superstep issues at most one fused launch per
/// [`WaveClass`] present across the active lanes and crosses the link at
/// most once in each direction, and nothing else crosses it.
#[derive(Debug)]
pub struct BatchedWaveEngine {
    accel: Accel,
    stream: StreamId,
    matrix: MatrixHandle,
    matrix_bytes: usize,
    lane_state: Vec<RawHandle>,
    logs: Vec<VecDeque<WaveOp>>,
    /// Each lane's install record: what its device state holds, lent to the
    /// planner for the lane's plan by [`journal_node`](Self::journal_node).
    records: Vec<InstallRecord>,
    metrics: MetricsRegistry,
    /// Superstep scratch, sized for the full width once: the `(flops,
    /// bytes)` instances of each class in lane order, and the slots that
    /// retired.
    class_lanes: [Vec<(f64, f64)>; CLASS_ORDER.len()],
    retired: Vec<usize>,
}

impl BatchedWaveEngine {
    /// Uploads the shared `[A | I]` matrix once and reserves `width` lane
    /// states.
    pub fn new(accel: Accel, ext: &DenseMatrix, width: usize) -> LpResult<Self> {
        assert!(width >= 1, "need at least one lane");
        let matrix_bytes = ext.size_bytes();
        let (m, n) = (ext.rows(), ext.cols());
        let per_lane = Self::per_lane_bytes(m, n);
        let (matrix, lane_state) = accel.with(|d| -> gmip_gpu::device::Result<_> {
            let matrix = d.upload_matrix(ext, DEFAULT_STREAM)?;
            let mut lanes = Vec::with_capacity(width);
            for _ in 0..width {
                lanes.push(d.alloc_raw(per_lane)?);
            }
            Ok((matrix, lanes))
        })?;
        let mut metrics = MetricsRegistry::new();
        metrics.max_gauge(names::BATCH_MATRIX_BYTES, matrix_bytes as f64);
        metrics.max_gauge(names::WAVE_WIDTH, width as f64);
        Ok(Self {
            accel,
            stream: DEFAULT_STREAM,
            matrix,
            matrix_bytes,
            lane_state,
            logs: (0..width).map(|_| VecDeque::new()).collect(),
            records: (0..width).map(|_| InstallRecord::default()).collect(),
            metrics,
            class_lanes: std::array::from_fn(|_| Vec::with_capacity(width)),
            retired: Vec::with_capacity(width),
        })
    }

    /// Device bytes a lane's state occupies next to the shared matrix: the
    /// install record's vectors, `x_B` and the Devex weights
    /// (`InstallRecord::lane_bytes`).
    pub fn per_lane_bytes(m: usize, n: usize) -> usize {
        InstallRecord::lane_bytes(m, n)
    }

    /// Bytes of the shared device-resident matrix.
    pub fn matrix_bytes(&self) -> usize {
        self.matrix_bytes
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.logs.len()
    }

    /// Whether any lane has work left.
    pub fn any_busy(&self) -> bool {
        self.logs.iter().any(|l| !l.is_empty())
    }

    /// Loads a freshly journaled node LP into `slot` (a refill when the
    /// lane retired earlier; counted as such by the caller).
    pub fn load_lane(&mut self, slot: usize, ops: Vec<WaveOp>) {
        debug_assert!(self.logs[slot].is_empty(), "lane refilled while busy");
        self.metrics.incr(names::WAVE_LANE_OPS, ops.len() as f64);
        self.logs[slot] = ops.into();
    }

    /// One node LP into lane `slot` — the journal-and-replay evaluator
    /// every driver shares: the host planner `lp` takes the reference pivot
    /// path from `warm` (a parent basis of the right shape, else a cold
    /// start) while its engine journals the device kernels, and the journal
    /// is loaded for lockstep replay; the lane's install record is lent to
    /// the planner for the plan. The warm basis crosses the link in the
    /// journal's install upload, in a superstep, and nowhere else. Returns
    /// what the lane delivers once it retires.
    pub fn journal_node(
        &mut self,
        lp: &mut LpSolver<RecordingEngine>,
        slot: usize,
        bounds: &[BoundChange],
        warm: Option<Basis>,
    ) -> LpResult<(LpSolution, Option<Basis>)> {
        let record = &mut self.records[slot];
        std::mem::swap(&mut lp.engine_mut().record, record);
        let out = lp.solve_node(bounds, warm);
        let engine = lp.engine_mut();
        std::mem::swap(&mut engine.record, record);
        let ops = engine.take_ops();
        let out = out?;
        self.load_lane(slot, ops);
        Ok(out)
    }

    /// Wave-level counters (`wave.*` / `batch.*`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Marks a refill (frontier node loaded into a retired lane).
    pub fn note_refill(&mut self) {
        self.metrics.incr(names::WAVE_REFILLS, 1.0);
    }

    /// Executes one lockstep superstep: every busy lane advances by exactly
    /// one journaled op. Same-class kernels fuse into one batched launch;
    /// the lanes' transfers are staged into one H2D and one D2H crossing of
    /// their summed bytes, charged ahead of the launches. Returns the slots
    /// that retired (journal exhausted) at this step's boundary — the
    /// stream-event moment the driver refills them, with no device-wide
    /// barrier. Allocates nothing.
    pub fn superstep(&mut self) -> &[usize] {
        self.retired.clear();
        for lanes in &mut self.class_lanes {
            lanes.clear();
        }
        // Staged link traffic of this step, per direction: `None` until a
        // lane transfers bytes that way.
        let (mut h2d, mut d2h) = (None::<usize>, None::<usize>);
        let mut popped = false;
        for (slot, log) in self.logs.iter_mut().enumerate() {
            let Some(op) = log.pop_front() else {
                continue;
            };
            popped = true;
            match op {
                WaveOp::Kernel {
                    class,
                    flops,
                    bytes,
                } => self.class_lanes[class as usize].push((flops, bytes)),
                // An install whose change rides its kernel's arguments
                // crosses nothing; it still takes the lane's step.
                WaveOp::Transfer { bytes: 0, .. } => {}
                WaveOp::Transfer { bytes, h2d: up } => {
                    let staged = if up { &mut h2d } else { &mut d2h };
                    *staged.get_or_insert(0) += bytes;
                }
            }
            if log.is_empty() {
                self.retired.push(slot);
            }
        }
        if !popped {
            return &self.retired;
        }
        let fused = self.class_lanes.iter().filter(|l| !l.is_empty()).count();
        let stream = self.stream;
        self.accel.with(|d| {
            if let Some(bytes) = h2d {
                d.charge_transfer(bytes, true, stream);
            }
            if let Some(bytes) = d2h {
                d.charge_transfer(bytes, false, stream);
            }
            for class in CLASS_ORDER {
                // `batched_wave_kernel` charges nothing for an empty class.
                let per_lane = self.class_lanes[class as usize].iter().copied();
                d.batched_wave_kernel(class.span_name(), per_lane, false, stream);
            }
            // The retire boundary is a stream event, not a synchronize: the
            // host observes it on this stream's timeline only.
            let _ = d.record_event(stream);
        });
        self.metrics.incr(names::WAVE_SUPERSTEPS, 1.0);
        self.metrics.incr(names::WAVE_FUSED_LAUNCHES, fused as f64);
        self.metrics
            .incr(names::WAVE_RETIRES, self.retired.len() as f64);
        &self.retired
    }

    /// Runs supersteps until at least one lane retires (or nothing is
    /// busy). Returns the retired slots.
    pub fn run_to_retire(&mut self) -> &[usize] {
        while self.any_busy() {
            if !self.superstep().is_empty() {
                return &self.retired;
            }
        }
        &[]
    }
}

impl Drop for BatchedWaveEngine {
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
    use crate::solver::{LpConfig, LpSolver, LpStatus};
    use crate::HostEngine;
    use gmip_gpu::{CostModel, DeviceConfig};
    use gmip_problems::catalog::textbook_mip;

    fn textbook_std() -> crate::StandardLp {
        crate::StandardLp::from_instance(&textbook_mip(), &[])
    }

    #[test]
    fn recording_engine_takes_host_pivot_path() {
        let std = textbook_std();
        let mut host = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
            HostEngine::new(a.clone())
        });
        let mut rec = LpSolver::new(std, LpConfig::standard(), |a| {
            RecordingEngine::new(a.clone())
        });
        let hs = host.solve().unwrap();
        let rs = rec.solve().unwrap();
        assert_eq!(hs.status, LpStatus::Optimal);
        assert_eq!(rs.status, LpStatus::Optimal);
        assert!((hs.objective - rs.objective).abs() < 1e-9);
        assert_eq!(hs.iterations, rs.iterations, "pivot paths must match");
        let ops = rec.engine_mut().take_ops();
        assert!(!ops.is_empty(), "solve must journal device ops");
        assert!(ops.iter().any(|o| matches!(
            o,
            WaveOp::Kernel {
                class: WaveClass::Pricing,
                ..
            }
        )));
    }

    /// One planner serving every lane, each lane's install record lent to
    /// it for the lane's plan, journals what a private planner per lane
    /// journals: op for op and solution for solution, over a seeded walk of
    /// loads that hop between lanes with fixings and warm bases drawn from
    /// what earlier loads returned.
    #[test]
    fn one_planner_journals_what_private_planners_do() {
        use gmip_problems::generators::{bin_packing, knapsack};
        const WIDTH: usize = 4;
        for m in [knapsack(24, 0.5, 3), bin_packing(5, 1.0, 61)] {
            let std = crate::StandardLp::from_instance(&m, &[]);
            let planner = || {
                LpSolver::new(std.clone(), LpConfig::standard(), |a| {
                    RecordingEngine::new(a.clone())
                })
            };
            let mut shared = planner();
            let mut private: Vec<_> = (0..WIDTH).map(|_| planner()).collect();
            let mut wave = BatchedWaveEngine::new(Accel::gpu(1), shared.matrix(), WIDTH).unwrap();
            // SplitMix64: a seeded walk the test replays exactly.
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            let mut draw = |below: usize| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % below as u64) as usize
            };
            let mut bases: Vec<Basis> = Vec::new();
            let mut uploads = [0usize; 2];
            for step in 0..80 {
                let slot = draw(WIDTH);
                let bounds: Vec<BoundChange> = (0..draw(4))
                    .map(|_| {
                        let to = draw(2) as f64;
                        BoundChange {
                            var: draw(m.num_vars()),
                            lb: to,
                            ub: to,
                        }
                    })
                    .collect();
                let warm = match draw(4) {
                    0 => None,
                    _ => bases.get(draw(bases.len().max(1))).cloned(),
                };
                let (want, want_basis) = private[slot].solve_node(&bounds, warm.clone()).unwrap();
                let want_ops = private[slot].engine_mut().take_ops();
                let (got, got_basis) = wave.journal_node(&mut shared, slot, &bounds, warm).unwrap();
                let got_ops: Vec<WaveOp> = wave.logs[slot].drain(..).collect();
                let at = format!("{} step {step}, lane {slot}", m.name);
                assert_eq!(got_ops, want_ops, "{at}");
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}");
                assert_eq!(got_basis, want_basis, "{at}");
                for op in &got_ops {
                    if let WaveOp::Transfer { bytes, h2d: true } = *op {
                        uploads[usize::from(bytes > 0)] += 1;
                    }
                }
                bases.extend(got_basis);
            }
            // Each lane's first install uploads, and every later one, its
            // lane's record held, ships its delta.
            assert_eq!(uploads[1], WIDTH, "{}: {uploads:?}", m.name);
            assert!(uploads[0] > 100, "{}: {uploads:?}", m.name);
        }
    }

    /// The reservation is what a lane's device holds after its first
    /// install: the record's vectors, one `x_B` entry per basic column and
    /// one Devex weight per column.
    #[test]
    fn a_lane_reserves_what_its_device_holds() {
        use gmip_problems::generators::{bin_packing, knapsack};
        for m in [knapsack(24, 0.5, 3), bin_packing(5, 1.0, 61)] {
            let std = crate::StandardLp::from_instance(&m, &[]);
            let mut planner = LpSolver::new(std, LpConfig::standard(), |a| {
                RecordingEngine::new(a.clone())
            });
            let mut wave = BatchedWaveEngine::new(Accel::gpu(1), planner.matrix(), 1).unwrap();
            let (_, basis) = wave.journal_node(&mut planner, 0, &[], None).unwrap();
            let basis = basis.expect("the root LP is solved");
            let derived = basis.cols.len() + basis.status.len();
            let held = wave.records[0].bytes() + std::mem::size_of::<f64>() * derived;
            let (rows, cols) = (planner.matrix().rows(), planner.matrix().cols());
            assert_eq!(
                BatchedWaveEngine::per_lane_bytes(rows, cols),
                held,
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn class_order_is_the_declaration_order() {
        for (i, class) in CLASS_ORDER.into_iter().enumerate() {
            assert_eq!(class as usize, i);
        }
    }

    #[test]
    fn a_superstep_stages_its_lanes_transfers() {
        let accel = Accel::gpu(1);
        let mut wave = BatchedWaveEngine::new(accel.clone(), &DenseMatrix::zeros(2, 4), 4).unwrap();
        let up = |bytes| WaveOp::Transfer { bytes, h2d: true };
        let down = |bytes| WaveOp::Transfer { bytes, h2d: false };
        let ftran = WaveOp::Kernel {
            class: WaveClass::Ftran,
            flops: 8.0,
            bytes: 64.0,
        };
        wave.load_lane(0, vec![up(80), down(16)]);
        wave.load_lane(1, vec![up(40), ftran]);
        wave.load_lane(2, vec![down(24)]);
        // An install whose delta rides its kernel: a 0-byte upload.
        wave.load_lane(3, vec![up(0), ftran, up(0)]);
        let before = accel.stats();
        let clock = accel.elapsed_ns();
        assert_eq!(wave.superstep(), [2]);
        // Three lane transfers with bytes, two crossings, H2D first: the
        // clock moved by exactly the two charges.
        let s = accel.stats();
        assert_eq!(s.h2d_transfers - before.h2d_transfers, 1);
        assert_eq!(s.h2d_bytes - before.h2d_bytes, 120);
        assert_eq!(s.d2h_transfers - before.d2h_transfers, 1);
        assert_eq!(s.d2h_bytes - before.d2h_bytes, 24);
        assert_eq!(s.kernel_launches, before.kernel_launches);
        let cost = CostModel::gpu_pcie();
        assert_eq!(
            accel.elapsed_ns(),
            clock + cost.transfer_ns(120) + cost.transfer_ns(24)
        );
        assert_eq!(wave.superstep(), [0, 1]);
        let s = accel.stats();
        assert_eq!(s.h2d_transfers - before.h2d_transfers, 1);
        assert_eq!(s.d2h_transfers - before.d2h_transfers, 2);
        assert_eq!(s.kernel_launches - before.kernel_launches, 1);
        // Lane 3's last op is its only one this step: a 0-byte upload
        // crosses nothing and costs nothing, but the step is one.
        let (s, clock) = (accel.stats(), accel.elapsed_ns());
        assert_eq!(wave.superstep(), [3]);
        assert_eq!(accel.stats(), s);
        assert_eq!(accel.elapsed_ns(), clock);
        assert!(wave.superstep().is_empty() && !wave.any_busy());
        assert_eq!(wave.metrics().counter(names::WAVE_SUPERSTEPS), 3.0);
        assert_eq!(wave.metrics().counter(names::WAVE_FUSED_LAUNCHES), 1.0);
    }

    #[test]
    fn width_respects_device_memory() {
        // Plenty of memory: the request wins.
        assert_eq!(wave_width(8, 1 << 30, 1 << 20, 1 << 10), 8);
        // Shrinking memory shrinks the wave.
        let matrix = 1 << 20;
        let lane = 64 << 10;
        let roomy = wave_width(16, (1 << 20) + 16 * lane, matrix, lane);
        let tight = wave_width(16, (1 << 20) + 4 * lane, matrix, lane);
        let none = wave_width(16, 1 << 10, matrix, lane);
        assert_eq!(roomy, 16);
        assert_eq!(tight, 4);
        assert_eq!(none, 1, "always at least one lane");
        assert!(tight < roomy);
    }

    #[test]
    fn fused_replay_charges_fewer_launches_than_per_lane() {
        let std = textbook_std();
        // Journal one node LP.
        let mut rec = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
            RecordingEngine::new(a.clone())
        });
        rec.solve().unwrap();
        let ops = rec.engine_mut().take_ops();
        let kernel_ops = ops
            .iter()
            .filter(|o| matches!(o, WaveOp::Kernel { .. }))
            .count();

        // Replay the same journal on 4 lanes of one wave; the shared matrix
        // only needs the extended dimensions, not its numbers (the journal
        // already carries each op's flop/byte weights).
        let accel = Accel::gpu_with(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: 1 << 26,
            streams: 1,
        });
        let ext = DenseMatrix::zeros(rec.engine().m(), rec.engine().n());
        let mut wave = BatchedWaveEngine::new(accel.clone(), &ext, 4).unwrap();
        for slot in 0..4 {
            wave.load_lane(slot, ops.clone());
        }
        while wave.any_busy() {
            wave.superstep();
        }
        let launches = accel.stats().kernel_launches as usize;
        // Per-lane engines would pay ≥ one launch per kernel op per lane.
        let per_lane_floor = 4 * kernel_ops;
        assert!(
            launches < per_lane_floor,
            "fused {launches} vs per-lane floor {per_lane_floor}"
        );
    }
}
