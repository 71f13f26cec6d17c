//! The batched wave evaluator — Section 5.5's node-LP batching, fused by
//! the state each lane is in.
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
//! * **one fused batched launch per superstep**, of the kernel class the
//!   most lanes wait on ([`gmip_gpu::GpuDevice::batched_wave_kernel`]):
//!   every lane whose next op is of that class (BTRAN, FTRAN, pricing scan,
//!   ratio reduction, pivot update) contributes its instance and the batch
//!   pays a single launch latency, while lanes on other classes wait for a
//!   step that fuses theirs — lanes drift apart as their node LPs differ,
//!   and advancing every lane by one op would launch once per class any
//!   lane is on;
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
//! replays those journals, fused by state, against the simulated device,
//! which is where the simulated-ns clock and the kernel/transfer ledger
//! accrue; the schedule decides only the superstep an op runs in, never
//! what a lane computes.
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

/// The kernel classes a wave superstep can fuse. A superstep launches one
/// of them: the class the most lanes' next ops belong to.
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

/// Deterministic tie order between classes that equally many lanes wait
/// on: the declaration order of [`WaveClass`], so `class as usize` indexes
/// it.
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
/// what fuses *across lanes*: a superstep joins the instances of every lane
/// waiting on one class into one batched launch, and a chain of different
/// kernels has no such batched form. So a narrow wave launches *more* than
/// a device engine — a pivot is two chains there and one launch per class
/// it touches here — and the saving starts where enough lanes share each
/// launch (E4-C: 2× more at four lanes, 1.3× fewer at sixteen).
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
///   the `Factor` kernel as arguments on both, and the journal books no
///   `Transfer` for it;
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
        // staged upload — or nothing, when the record makes their change
        // fit one launch's arguments and it rides the Factor kernel — then
        // residual + basis gather + factorization + the initial FTRAN.
        let fits = view.check(basis, m, n).is_ok()
            && self.record.take(view, basis, |_, _, _| {}) == Ok(true);
        if !fits {
            self.transfer(self.record.bytes(), true);
        }
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

/// The state-fused replayer: owns the shared device matrix and what each
/// lane holds — its journal, its state reservation, its install record;
/// every superstep issues at most one fused launch, of the [`WaveClass`]
/// the most busy lanes wait on, and crosses the link at most once in each
/// direction, and nothing else crosses it.
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
    /// bytes)` instances of the fused class in lane order, and the slots
    /// that retired.
    fused: Vec<(f64, f64)>,
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
            fused: Vec::with_capacity(width),
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
    /// is loaded for replay; the lane's install record is lent to
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

    /// Executes one state-fused superstep. A lane whose next op is a
    /// transfer advances by it: the step's transfers are staged into one
    /// H2D and one D2H crossing of their summed bytes, charged ahead of the
    /// launch. Of the lanes whose next op is a kernel, only those on the
    /// class the most lanes wait on advance (ties go to `CLASS_ORDER`),
    /// and their instances fuse into one batched launch; the others keep
    /// their op for a later step. So a step is at most one launch and, with
    /// any lane busy, moves at least one lane. Returns the slots that
    /// retired (journal exhausted) at this step's boundary — the
    /// stream-event moment the driver refills them, with no device-wide
    /// barrier. Allocates nothing.
    pub fn superstep(&mut self) -> &[usize] {
        self.retired.clear();
        self.fused.clear();
        let mut waiting = [0usize; CLASS_ORDER.len()];
        let mut busy = false;
        for op in self.logs.iter().filter_map(VecDeque::front) {
            busy = true;
            if let WaveOp::Kernel { class, .. } = *op {
                waiting[class as usize] += 1;
            }
        }
        if !busy {
            return &self.retired;
        }
        // The first class with the most waiting lanes; `None` when every
        // busy lane is on a transfer.
        let most = waiting.into_iter().max().unwrap_or(0);
        let launch = CLASS_ORDER
            .into_iter()
            .find(|&c| most > 0 && waiting[c as usize] == most);
        // Staged link traffic of this step, per direction: `None` until a
        // lane transfers bytes that way.
        let (mut h2d, mut d2h) = (None::<usize>, None::<usize>);
        for (slot, log) in self.logs.iter_mut().enumerate() {
            let Some(&op) = log.front() else {
                continue;
            };
            match op {
                WaveOp::Kernel { class, .. } if Some(class) != launch => continue,
                WaveOp::Kernel { flops, bytes, .. } => self.fused.push((flops, bytes)),
                WaveOp::Transfer { bytes, h2d: up } => {
                    let staged = if up { &mut h2d } else { &mut d2h };
                    *staged.get_or_insert(0) += bytes;
                }
            }
            log.pop_front();
            if log.is_empty() {
                self.retired.push(slot);
            }
        }
        let stream = self.stream;
        self.accel.with(|d| {
            if let Some(bytes) = h2d {
                d.charge_transfer(bytes, true, stream);
            }
            if let Some(bytes) = d2h {
                d.charge_transfer(bytes, false, stream);
            }
            if let Some(class) = launch {
                let per_lane = self.fused.iter().copied();
                d.batched_wave_kernel(class.span_name(), per_lane, false, stream);
            }
            // The retire boundary is not a synchronize: the host observes
            // it on this stream's timeline only.
        });
        self.metrics.incr(names::WAVE_SUPERSTEPS, 1.0);
        let launches = if launch.is_some() { 1.0 } else { 0.0 };
        self.metrics.incr(names::WAVE_FUSED_LAUNCHES, launches);
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
            // Installs that uploaded, and installs in all.
            let (mut uploads, mut installs) = (0usize, 0usize);
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
                    match *op {
                        WaveOp::Transfer { h2d: true, .. } => uploads += 1,
                        WaveOp::Kernel {
                            class: WaveClass::Factor,
                            ..
                        } => installs += 1,
                        _ => {}
                    }
                }
                bases.extend(got_basis);
            }
            // Each lane's first install uploads, and every later one, its
            // lane's record held, ships its delta and journals no transfer.
            assert_eq!(uploads, WIDTH, "{}: {installs} installs", m.name);
            assert!(installs - uploads > 100, "{}: {installs} installs", m.name);
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

    const FTRAN: WaveOp = WaveOp::Kernel {
        class: WaveClass::Ftran,
        flops: 8.0,
        bytes: 64.0,
    };
    const BTRAN: WaveOp = WaveOp::Kernel {
        class: WaveClass::Btran,
        flops: 8.0,
        bytes: 64.0,
    };
    const PRICING: WaveOp = WaveOp::Kernel {
        class: WaveClass::Pricing,
        flops: 16.0,
        bytes: 128.0,
    };

    #[test]
    fn a_superstep_stages_its_lanes_transfers() {
        let accel = Accel::gpu(1);
        let mut wave = BatchedWaveEngine::new(accel.clone(), &DenseMatrix::zeros(2, 4), 4).unwrap();
        let up = |bytes| WaveOp::Transfer { bytes, h2d: true };
        let down = |bytes| WaveOp::Transfer { bytes, h2d: false };
        wave.load_lane(0, vec![up(80), down(16)]);
        wave.load_lane(1, vec![up(40), PRICING, FTRAN]);
        wave.load_lane(2, vec![down(24)]);
        wave.load_lane(3, vec![up(8), FTRAN, PRICING]);
        let before = accel.stats();
        let clock = accel.elapsed_ns();
        // Every lane is on a transfer: four lane transfers, two crossings,
        // H2D first, and no launch; the clock moved by exactly the two
        // charges.
        assert_eq!(wave.superstep(), [2]);
        let s = accel.stats();
        assert_eq!(s.h2d_transfers - before.h2d_transfers, 1);
        assert_eq!(s.h2d_bytes - before.h2d_bytes, 128);
        assert_eq!(s.d2h_transfers - before.d2h_transfers, 1);
        assert_eq!(s.d2h_bytes - before.d2h_bytes, 24);
        assert_eq!(s.kernel_launches, before.kernel_launches);
        let cost = CostModel::gpu_pcie();
        assert_eq!(
            accel.elapsed_ns(),
            clock + cost.transfer_ns(128) + cost.transfer_ns(24)
        );
        // Lane 0's read-back crosses in the same step as the one launch: one
        // lane waits on Pricing and one on Ftran, and the tie goes to
        // `CLASS_ORDER`, so lane 1 keeps its Pricing op.
        assert_eq!(wave.superstep(), [0]);
        let s = accel.stats();
        assert_eq!(s.h2d_transfers - before.h2d_transfers, 1);
        assert_eq!(s.d2h_transfers - before.d2h_transfers, 2);
        assert_eq!(s.kernel_launches - before.kernel_launches, 1);
        assert_eq!(wave.logs[1].front(), Some(&PRICING));
        // Both lanes now wait on Pricing: one launch moves both.
        assert_eq!(wave.superstep(), [3]);
        assert_eq!(wave.superstep(), [1]);
        assert!(wave.superstep().is_empty() && !wave.any_busy());
        assert_eq!(accel.stats().kernel_launches - before.kernel_launches, 3);
        assert_eq!(wave.metrics().counter(names::WAVE_SUPERSTEPS), 4.0);
        assert_eq!(wave.metrics().counter(names::WAVE_FUSED_LAUNCHES), 3.0);
    }

    /// The class the most lanes wait on launches, ahead of a class that
    /// comes first in `CLASS_ORDER`; the outvoted lane waits a step.
    #[test]
    fn the_class_most_lanes_wait_on_launches() {
        let accel = Accel::gpu(1);
        let mut wave = BatchedWaveEngine::new(accel.clone(), &DenseMatrix::zeros(2, 4), 3).unwrap();
        wave.load_lane(0, vec![PRICING]);
        wave.load_lane(1, vec![FTRAN, BTRAN]);
        wave.load_lane(2, vec![PRICING]);
        assert_eq!(wave.superstep(), [0, 2]);
        assert_eq!(wave.logs[1].len(), 2);
        assert_eq!(wave.superstep(), [] as [usize; 0]);
        assert_eq!(wave.superstep(), [1]);
        assert_eq!(accel.stats().kernel_launches, 3);
    }

    /// Seeded random journals: kernels of every class with integer flops
    /// and bytes (so sums are exact in any order), and transfers both ways.
    fn random_journals(seed: u64, lanes: usize) -> Vec<Vec<WaveOp>> {
        let mut state = seed;
        let mut draw = |below: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        (0..lanes)
            .map(|_| {
                (0..1 + draw(40))
                    .map(|_| match draw(8) {
                        0 => WaveOp::Transfer {
                            bytes: 8 * (1 + draw(100)) as usize,
                            h2d: draw(2) == 0,
                        },
                        _ => WaveOp::Kernel {
                            class: CLASS_ORDER[draw(7) as usize],
                            flops: (1 + draw(100)) as f64,
                            bytes: (8 * (1 + draw(100))) as f64,
                        },
                    })
                    .collect()
            })
            .collect()
    }

    /// What a replay charged, per kernel class `(flops, bytes)`, and the
    /// slots in the order they retired.
    #[derive(Debug, PartialEq)]
    struct Replay {
        per_class: [(f64, f64); CLASS_ORDER.len()],
        retired: Vec<usize>,
        stats: gmip_gpu::DeviceStats,
    }

    fn wave_for(journals: &[Vec<WaveOp>]) -> (Accel, BatchedWaveEngine) {
        let accel = Accel::gpu(1);
        let mut wave =
            BatchedWaveEngine::new(accel.clone(), &DenseMatrix::zeros(2, 4), journals.len())
                .unwrap();
        for (slot, ops) in journals.iter().enumerate() {
            wave.load_lane(slot, ops.clone());
        }
        (accel, wave)
    }

    /// Replays `journals` superstep by superstep, checking each step: at
    /// most one launch, of the class the most lanes waited on, whose lanes
    /// are the only kernel ops that advanced; and at least one lane moved.
    fn replay_fused(journals: &[Vec<WaveOp>]) -> Replay {
        let (accel, mut wave) = wave_for(journals);
        let mut per_class = [(0.0, 0.0); CLASS_ORDER.len()];
        let mut retired = Vec::new();
        while wave.any_busy() {
            let fronts: Vec<Option<WaveOp>> =
                wave.logs.iter().map(|l| l.front().copied()).collect();
            let lens: Vec<usize> = wave.logs.iter().map(VecDeque::len).collect();
            let mut waiting = [0usize; CLASS_ORDER.len()];
            for op in fronts.iter().flatten() {
                if let WaveOp::Kernel { class, .. } = *op {
                    waiting[class as usize] += 1;
                }
            }
            let launches = accel.stats().kernel_launches;
            retired.extend_from_slice(wave.superstep());
            let mut moved = 0;
            let mut launched = None;
            for (slot, front) in fronts.iter().enumerate() {
                if wave.logs[slot].len() == lens[slot] {
                    continue;
                }
                moved += 1;
                if let Some(WaveOp::Kernel {
                    class,
                    flops,
                    bytes,
                }) = *front
                {
                    assert!(launched.is_none_or(|c| c == class), "two classes in a step");
                    launched = Some(class);
                    per_class[class as usize].0 += flops;
                    per_class[class as usize].1 += bytes;
                }
            }
            assert!(moved >= 1, "a step with a busy lane moved none");
            let launches = accel.stats().kernel_launches - launches;
            assert_eq!(launches, u64::from(launched.is_some()));
            if let Some(class) = launched {
                assert_eq!(waiting[class as usize], *waiting.iter().max().unwrap());
                let waited = fronts
                    .iter()
                    .flatten()
                    .filter(|op| matches!(op, WaveOp::Kernel { class: c, .. } if *c == class));
                assert_eq!(waited.count(), waiting[class as usize]);
            }
        }
        assert!(wave.superstep().is_empty());
        Replay {
            per_class,
            retired,
            stats: accel.stats(),
        }
    }

    /// The schedule the wave replaced, as the reference: every busy lane
    /// advances by one op per step, one launch per class any lane is on.
    fn replay_lockstep(journals: &[Vec<WaveOp>]) -> Replay {
        let (accel, mut wave) = wave_for(journals);
        let mut per_class = [(0.0, 0.0); CLASS_ORDER.len()];
        let mut retired = Vec::new();
        while wave.any_busy() {
            let mut instances: [Vec<(f64, f64)>; 7] = Default::default();
            let mut staged = [None::<usize>; 2];
            for (slot, log) in wave.logs.iter_mut().enumerate() {
                match log.pop_front() {
                    Some(WaveOp::Kernel {
                        class,
                        flops,
                        bytes,
                    }) => {
                        instances[class as usize].push((flops, bytes));
                        per_class[class as usize].0 += flops;
                        per_class[class as usize].1 += bytes;
                    }
                    Some(WaveOp::Transfer { bytes, h2d }) => {
                        *staged[usize::from(h2d)].get_or_insert(0) += bytes;
                    }
                    None => continue,
                }
                if log.is_empty() {
                    retired.push(slot);
                }
            }
            accel.with(|d| {
                for (bytes, h2d) in [(staged[1], true), (staged[0], false)] {
                    if let Some(bytes) = bytes {
                        d.charge_transfer(bytes, h2d, DEFAULT_STREAM);
                    }
                }
                for class in CLASS_ORDER {
                    let per_lane = instances[class as usize].iter().copied();
                    d.batched_wave_kernel(class.span_name(), per_lane, false, DEFAULT_STREAM);
                }
            });
        }
        Replay {
            per_class,
            retired,
            stats: accel.stats(),
        }
    }

    /// A superstep launches at most one kernel class — the one the most
    /// lanes wait on — and moves at least one lane whenever one is busy
    /// (`replay_fused` checks both at every step).
    #[test]
    fn a_superstep_charges_at_most_one_kernel_class() {
        for seed in 0..20 {
            let journals = random_journals(seed, 1 + seed as usize % 9);
            assert!(
                replay_fused(&journals).stats.kernel_launches > 0,
                "seed {seed}"
            );
        }
    }

    /// Replayed under both schedules, the same journals charge the same
    /// work to every class and cross the same bytes each way, and every
    /// lane retires under each.
    #[test]
    fn both_schedules_charge_the_same_work() {
        for seed in 0..20 {
            let journals = random_journals(seed, 2 + seed as usize % 9);
            let (fused, lockstep) = (replay_fused(&journals), replay_lockstep(&journals));
            assert_eq!(fused.per_class, lockstep.per_class, "seed {seed}");
            let (f, l) = (&fused.stats, &lockstep.stats);
            assert_eq!(f.flops, l.flops, "seed {seed}");
            assert_eq!((f.h2d_bytes, f.d2h_bytes), (l.h2d_bytes, l.d2h_bytes));
            for r in [&fused.retired, &lockstep.retired] {
                let mut slots = r.clone();
                slots.sort_unstable();
                assert_eq!(
                    slots,
                    (0..journals.len()).collect::<Vec<_>>(),
                    "seed {seed}"
                );
            }
        }
    }

    /// Two replays of the same journals are byte-identical: retire order,
    /// ledger, clock and counters.
    #[test]
    fn two_replays_are_byte_identical() {
        let journals = random_journals(7, 8);
        let run = || {
            let (accel, mut wave) = wave_for(&journals);
            let mut retired = Vec::new();
            while wave.any_busy() {
                retired.extend_from_slice(wave.superstep());
            }
            let counters: Vec<_> = wave.metrics().counters().collect();
            format!(
                "{retired:?} {:?} {:016x} {counters:?}",
                accel.stats(),
                accel.elapsed_ns().to_bits()
            )
        };
        assert_eq!(run(), run());
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

    /// Lanes in the same state stay together: four lanes replaying one
    /// journal fuse every kernel op into one launch, a quarter of the
    /// launches four per-lane engines would pay at the least.
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
        assert_eq!(launches, kernel_ops);
        assert_eq!(
            wave.metrics().counter(names::WAVE_SUPERSTEPS),
            ops.len() as f64
        );
        // Per-lane engines would pay ≥ one launch per kernel op per lane.
        let per_lane_floor = 4 * kernel_ops;
        assert!(
            launches < per_lane_floor,
            "fused {launches} vs per-lane floor {per_lane_floor}"
        );
    }
}
