//! The accelerator-resident simplex engine.
//!
//! Implements [`SimplexEngine`] with every numerical step executed as a
//! simulated device kernel on a [`gmip_gpu::Accel`]. The execution model is
//! Section 5.1 of the paper:
//!
//! * the constraint matrix is uploaded **once** at engine construction and
//!   never re-transferred; cuts extend it in place (Section 5.2);
//! * basis assembly, factorization, eta updates, FTRAN/BTRAN, pricing, and
//!   both ratio tests run on the device;
//! * the simplex loops **run on the device**: [`SimplexEngine::primal_run`]
//!   and [`SimplexEngine::dual_run`] are the trait's own default bodies,
//!   run over one engine call — one lock and one launch chain
//!   ([`GpuDevice::chain`]) for every iteration up to the next
//!   refactorization. The call is itself a [`SimplexEngine`] whose
//!   primitives are kernel sequences, and each select after its first (a
//!   pricing or the primal infeasibility argmax, since the call began or
//!   since an install) is a relaunch ([`GpuDevice::relaunch`]): the device
//!   decides the next iteration from the last one's results. The index a
//!   reduction finds (`price → ftran_column → ratio_test` on the primal
//!   side, `primal_infeas → btran_row → dual_ratio` and the two pivot
//!   entries on the dual one) is read by the chain's next kernel where the
//!   reduction left it. What a pivot *stores* (the entering value, two
//!   statuses, two nonbasic values, a cost and two bounds) rides its step
//!   kernel as launch arguments, and the Devex weight update gathers its
//!   two scalars on the device — "rank-1 updates and resolving the updated
//!   matrix repeatedly with no data transfer from host to device or vice
//!   versa". What each iteration stages (16–56 bytes) stays in the chain's
//!   one envelope, which crosses the link **once**, behind the last kernel;
//!   a run that ends optimal adds `x_B`, and the `basic_values` that follows
//!   crosses nothing;
//! * a warm node LP is **one call**: a dual run given the polish's
//!   configuration re-installs the basis it reached and runs the primal
//!   polish in the same chain, the re-install and the polish's first select
//!   riding the launch of the iteration that found `x_B` feasible. `k` dual
//!   pivots and a polish that pivots no more are `k + 1` launches and one
//!   read-back. Each primitive is also an engine call of its own, for the
//!   Bland fallback, whose full reduced-cost read-back is the honest cost
//!   of choosing the column on the host; a chain the host waits for nothing
//!   from (an install) is *held*, and the next call continues it;
//! * a basis **install** (node start, refactorization) ships only what
//!   changed: the small vectors it assembles on the host (`c`, `b`,
//!   statuses, nonbasic values, basic costs and bounds, and the bounds of
//!   every column, which a device-side dual pivot reads) stay resident, the
//!   host keeps a record of what they hold (kept up to date by the stores
//!   each pivot and bound flip carries, so right after a run the record is
//!   what the next install assembles), and an install that changes at
//!   most [`LAUNCH_WRITES`](gmip_gpu::LAUNCH_WRITES) entries of them
//!   passes those as arguments of its first kernel, crossing nothing (the
//!   record is an `InstallRecord`, which each lane of the batched wave
//!   keeps too). The engine's first install, the
//!   first after a cut or a failed install, and a larger change upload all
//!   of them, staged into one transfer; the Devex weights are filled on the
//!   device either way;
//! * what a transfer costs first is its latency, not its bytes, and what a
//!   small kernel costs first is its launch: `DeviceSimplex::call` (one
//!   lock, one chain, read-backs staged) is the one door an installed engine
//!   has to its device, so no call can pay either twice.
//!
//! There is one orchestration, [`DeviceSimplex`], and one kernel set under
//! it — Section 5.4's "two different MIP solver versions" reduced to a
//! storage parameter. The device's kernels that touch the matrix or the
//! factored basis are generic over a [`Storage`], and the engine calls them
//! with the handle it holds: a dense device matrix ([`DeviceEngine`]: work
//! and transfers proportional to `m·n`, dense LU) or a CSR one
//! ([`SparseDeviceEngine`]: proportional to `nnz`, charged at the device's
//! much lower sparse throughput, sparse LU). What a kernel computes is the
//! same either way; what it is called in a trace and what it costs is the
//! storage's class table.
//!
//! The iteration state is *resident*: at its first install an engine
//! creates one workspace on its device — the state vectors, the per-call
//! scratch, the eta file — and every later kernel writes into it. What the
//! paper's model sees is unchanged: a kernel result still costs device
//! memory the moment it exists and gives it back where the engine is done
//! with it ([`GpuDevice::vacate`]). What the host sees is that a node LP
//! creates no device object at all.
//!
//! Running the same driver over [`crate::engine::HostEngine`] and either
//! storage yields identical pivots on the same problem; the difference is
//! the simulated cost ledger, which the experiments read and which lets the
//! super-solver dispatch of `gmip-core` choose a storage on cost grounds.

use crate::basis::Basis;
use crate::dual::{DualConfig, DualOutcome};
use crate::engine::{devex_refused, PivotPlan, PrimalRun, ProblemView, Progress, SimplexEngine};
use crate::record::InstallRecord;
use crate::simplex::{PrimalConfig, PrimalOutcome};
use crate::{LpError, LpResult};
use gmip_gpu::device::Result as GpuResult;
use gmip_gpu::{
    Accel, Eta, GpuDevice, MatrixHandle, ScalarWrite, SparseHandle, Storage, StreamId,
    VectorHandle, DEFAULT_STREAM,
};
use gmip_linalg::DenseMatrix;

/// The host side of an install: the record of what the resident recorded
/// vectors ([`Workspace::recorded`]) hold, and the last install's changes
/// to it as scalar stores against their handles.
#[derive(Debug, Default)]
struct Stage {
    record: InstallRecord,
    delta: Vec<ScalarWrite>,
}

/// An engine's resident objects on its device, created once and written in
/// place ever after; every vector takes the length of what a kernel last
/// put there, so a cut that grows the problem needs no resizing pass.
#[derive(Debug, Clone, Copy)]
struct Workspace<M> {
    // Iteration state: tenanted from one install to the next (`alpha` and
    // `alpha_r` from the FTRAN / BTRAN that makes them to the pivot that
    // consumes them); the first nine are what the host keeps a record of.
    c: VectorHandle,
    b: VectorHandle,
    sigma: VectorHandle,
    x_nb: VectorHandle,
    cb: VectorHandle,
    lbb: VectorHandle,
    ubb: VectorHandle,
    lb: VectorHandle,
    ub: VectorHandle,
    xb: VectorHandle,
    gamma: VectorHandle,
    alpha: VectorHandle,
    alpha_r: VectorHandle,
    eta: Eta<M>,
    // Per-call scratch: tenanted inside one engine call.
    y: VectorHandle,
    d: VectorHandle,
    score: VectorHandle,
    e_r: VectorHandle,
    rho: VectorHandle,
    w: VectorHandle,
    col: VectorHandle,
}

impl<M: Storage> Workspace<M> {
    fn create(d: &mut GpuDevice) -> Self {
        let eta = d.vacant_eta();
        let mut v = || d.vacant_vector();
        Self {
            c: v(),
            b: v(),
            sigma: v(),
            x_nb: v(),
            cb: v(),
            lbb: v(),
            ubb: v(),
            lb: v(),
            ub: v(),
            xb: v(),
            gamma: v(),
            alpha: v(),
            alpha_r: v(),
            eta,
            y: v(),
            d: v(),
            score: v(),
            e_r: v(),
            rho: v(),
            w: v(),
            col: v(),
        }
    }

    /// The vectors an install assembles on the host: what [`Stage`] keeps
    /// a record of, in its order.
    fn recorded(&self) -> [VectorHandle; 9] {
        [
            self.c, self.b, self.sigma, self.x_nb, self.cb, self.lbb, self.ubb, self.lb, self.ub,
        ]
    }

    /// The vectors the device derives from the recorded ones.
    fn derived(&self) -> [VectorHandle; 4] {
        [self.xb, self.gamma, self.alpha, self.alpha_r]
    }

    fn scratch(&self) -> [VectorHandle; 7] {
        [
            self.y, self.d, self.score, self.e_r, self.rho, self.w, self.col,
        ]
    }

    /// Ends the tenancies an install replaces: the derived state, and with
    /// `recorded` the recorded vectors too (an install that uploads them).
    fn vacate_state(&self, d: &mut GpuDevice, recorded: bool) {
        if recorded {
            vacate(d, self.recorded());
        }
        vacate(d, self.derived());
        let _ = d.vacate(self.eta);
    }

    fn free(&self, d: &mut GpuDevice) {
        let vectors = self.recorded().into_iter().chain(self.derived());
        for h in vectors.chain(self.scratch()) {
            let _ = d.free(h);
        }
        let _ = d.free(self.eta);
    }
}

/// The one way an engine call reaches its device: one lock, and the kernels
/// `call` runs back to back are one launch chain ([`GpuDevice::chain`]) — so
/// a [`SimplexEngine`] call costs at most one kernel launch.
fn on_device<R>(accel: &Accel, call: impl FnOnce(&mut GpuDevice) -> R) -> R {
    accel.with(|d| d.chain(call))
}

/// Ends the tenancies of `vectors` inside the caller's device closure (one
/// lock for the kernels and their cleanup). Best-effort: a handle could be
/// gone only via engine bugs.
fn vacate<const N: usize>(d: &mut GpuDevice, vectors: [VectorHandle; N]) {
    for h in vectors {
        let _ = d.vacate(h);
    }
}

/// Runs `kernels`, then releases the per-call `scratch` they tenanted —
/// whether they succeeded or not, so a failed call strands no device byte.
fn with_scratch<const N: usize, R, E>(
    d: &mut GpuDevice,
    scratch: [VectorHandle; N],
    kernels: impl FnOnce(&mut GpuDevice) -> Result<R, E>,
) -> Result<R, E> {
    let out = kernels(d);
    vacate(d, scratch);
    out
}

/// What the host knows of the iteration state on the device.
#[derive(Debug, Default)]
struct Live {
    /// Whether the state is that of a completed install.
    installed: bool,
    /// Whether `alpha` / `alpha_r` hold an FTRAN column / BTRAN row no
    /// pivot has consumed yet.
    alpha: bool,
    alpha_r: bool,
    /// Eta factors accumulated since the last install.
    etas: usize,
}

/// One engine call's view of an installed engine: the device it runs on,
/// inside the call's one lock and launch chain ([`on_device`]), the handles
/// its kernels name and the host-side record they keep. It is a
/// [`SimplexEngine`] of its own: each primitive is the kernel sequence of
/// that primitive, and a run is the trait's default body over one `Call`,
/// its primitives back to back in the one chain.
struct Call<'e, M> {
    d: &'e mut GpuDevice,
    ws: Workspace<M>,
    a: M,
    st: StreamId,
    m: usize,
    n: usize,
    live: &'e mut Live,
    stage: &'e mut Stage,
    /// Whether the call has made a select since it began or since its last
    /// install.
    selected: bool,
}

impl<M: Storage> Call<'_, M> {
    /// Marks a select, the first kernel of a run's iteration. Each select
    /// after the call's first (since it began or since an install) is a
    /// relaunch: the device decides the next iteration from the last one's
    /// results, not the host after a round trip.
    fn select(&mut self) {
        if std::mem::replace(&mut self.selected, true) {
            self.d.relaunch();
        }
    }

    /// `x_B`, read back in the call's envelope if a run ended `end` optimal:
    /// what the `basic_values` that follows returns without crossing.
    fn staged(&mut self, end: Option<PrimalOutcome>) -> LpResult<Option<Vec<f64>>> {
        match end {
            Some(PrimalOutcome::Optimal) => self.basic_values().map(Some),
            _ => Ok(None),
        }
    }

    /// The workspace, with an unconsumed FTRAN column in `alpha`.
    fn alpha(&self) -> LpResult<Workspace<M>> {
        self.live
            .alpha
            .then_some(self.ws)
            .ok_or(LpError::NotInstalled)
    }

    /// The workspace, with an unconsumed BTRAN row in `alpha_r`.
    fn alpha_r(&self) -> LpResult<Workspace<M>> {
        self.live
            .alpha_r
            .then_some(self.ws)
            .ok_or(LpError::NotInstalled)
    }

    /// Reduced costs `d = c − Aᵀy`, `Bᵀy = c_B`, into the `d` scratch for
    /// `reduce` to read; `scratch` is what the three of them tenant.
    fn priced<const N: usize, R>(
        &mut self,
        scratch: [VectorHandle; N],
        reduce: impl FnOnce(&mut GpuDevice) -> GpuResult<R>,
    ) -> LpResult<R> {
        let (ws, a, st) = (self.ws, self.a, self.st);
        Ok(with_scratch(self.d, scratch, |d| {
            d.eta_btran(ws.eta, ws.cb, ws.y, st)?;
            d.pricing(a, ws.y, ws.c, ws.d, st)?;
            reduce(d)
        })?)
    }

    /// The basic step along `alpha`, carrying `writes`; the record follows
    /// the stores once the kernel has made them.
    fn step(&mut self, dir: f64, t: f64, writes: &[ScalarWrite]) -> LpResult<()> {
        let ws = self.alpha()?;
        self.d
            .basic_step(ws.xb, ws.alpha, dir, t, writes, self.st)?;
        self.stage.record.note(&ws.recorded(), writes);
        Ok(())
    }

    /// Reads one vector entry back (staged, inside a chain).
    fn entry(&mut self, of: VectorHandle, i: usize) -> LpResult<f64> {
        Ok(self.d.vec_get([(of, i)], self.st).map(|[v]| v)?)
    }
}

impl<M: Storage> SimplexEngine for Call<'_, M> {
    fn m(&self) -> usize {
        self.m
    }

    fn n(&self) -> usize {
        self.n
    }

    /// A basis install: what it changes of the recorded vectors as the
    /// arguments of its first kernel (or, with no record or too large a
    /// change, all of them in one upload), then γ ← 1, the residual, the
    /// factorization and `x_B`. The record is held again only once it
    /// completes. Right after a run the delta is empty — every store a
    /// pivot or a flip makes is one the record follows — so an install
    /// inside a run's chain needs nothing from the host.
    fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()> {
        view.check(basis, self.m, self.n)?;
        *self.live = Live::default();
        self.selected = false;
        let (ws, a, st, n) = (self.ws, self.a, self.st, self.n);
        let (to, delta) = (ws.recorded(), &mut self.stage.delta);
        delta.clear();
        let assembled = (self.stage.record).take(view, basis, |k, i, value| {
            delta.push((to[k], i, value));
        });
        let fits = assembled == Ok(true);
        // The previous install's state goes first, whatever comes next; what
        // the delta changes stays, to be changed in place.
        ws.vacate_state(self.d, !fits);
        assembled?;
        let delta: &[ScalarWrite] = if fits {
            &self.stage.delta
        } else {
            // Everything the install needs from the host crosses the link
            // once.
            let record = &self.stage.record;
            let parts: [_; 9] = std::array::from_fn(|k| (to[k], record.vector(k)));
            self.d.upload_staged(&parts, st)?;
            &[]
        };
        with_scratch(self.d, [ws.w], |d| {
            // Devex reference weights start at one; a delta rides the fill
            // as its arguments.
            d.fill(ws.gamma, n, 1.0, delta, st)?;
            // Residual w = b − A x_nb, fully on device.
            d.residual(ws.b, a, ws.x_nb, ws.w, st)?;
            // Basis assembly + factorization, on device.
            d.eta_factor(a, &basis.cols, ws.eta, st)?;
            d.eta_ftran(ws.eta, ws.w, ws.xb, st)
        })?;
        self.stage.record.hold();
        self.live.installed = true;
        Ok(())
    }

    /// No run grows the problem: a cut goes through the engine itself.
    fn append_cut(&mut self, _row: &[f64], _col: &[f64]) -> LpResult<()> {
        Err(LpError::Shape("append_cut inside an engine call".into()))
    }

    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.select();
        let (ws, st) = (self.ws, self.st);
        self.priced([ws.y, ws.d, ws.score], |d| {
            d.vec_mul(ws.d, ws.sigma, ws.score, st)?;
            d.argmin_masked(ws.score, ws.sigma, st)
        })
    }

    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        // Honest full-vector D2H transfer (the Bland fallback's cost).
        let (ws, st) = (self.ws, self.st);
        self.priced([ws.y, ws.d], |d| d.download_vector(ws.d, st))
    }

    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        let (ws, a, st) = (self.ws, self.a, self.st);
        self.live.alpha = false;
        with_scratch(self.d, [ws.col], |d| {
            d.extract_column(a, q, ws.col, st)?;
            d.eta_ftran(ws.eta, ws.col, ws.alpha, st)
        })?;
        self.live.alpha = true;
        Ok(())
    }

    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let ws = self.alpha()?;
        Ok(self
            .d
            .ratio_test_bounded(ws.xb, ws.alpha, ws.lbb, ws.ubb, dir, tol, self.st)?)
    }

    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        let ws = self.ws;
        // The bound the column lands on, read where it is resident.
        let x = self.d.bound([ws.lb, ws.ub], q, new_sigma > 0.0)?;
        self.step(dir, t, &[(ws.sigma, q, new_sigma), (ws.x_nb, q, x)])
    }

    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        let ws = self.alpha()?;
        // Everything the pivot stores besides the step rides the step
        // kernel as arguments, checked before x_B or the eta file move.
        let to = [ws.xb, ws.sigma, ws.cb, ws.lbb, ws.ubb, ws.x_nb];
        self.step(plan.dir, plan.t, &plan.stores(to))?;
        self.d.eta_update(ws.eta, plan.r, ws.alpha, self.st)?;
        // The pivot consumed α (and the Devex row, if any).
        vacate(self.d, [ws.alpha]);
        if self.live.alpha_r {
            vacate(self.d, [ws.alpha_r]);
        }
        self.live.etas += 1;
        self.live.alpha = false;
        self.live.alpha_r = false;
        Ok(())
    }

    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        Ok(self.d.download_vector(self.ws.xb, self.st)?)
    }

    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        self.entry(self.ws.xb, i)
    }

    fn eta_count(&self) -> usize {
        self.live.etas
    }

    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.select();
        let ws = self.ws;
        Ok(self
            .d
            .primal_infeas_argmax(ws.xb, ws.lbb, ws.ubb, tol, self.st)?)
    }

    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        let (ws, a, st, m) = (self.ws, self.a, self.st, self.m);
        self.live.alpha_r = false;
        with_scratch(self.d, [ws.e_r, ws.rho], |d| {
            d.alloc_unit_vector(m, r, ws.e_r, st)?;
            d.eta_btran(ws.eta, ws.e_r, ws.rho, st)?;
            d.matvec_transposed(a, ws.rho, ws.alpha_r, st)
        })?;
        self.live.alpha_r = true;
        Ok(())
    }

    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        let (ws, st) = (self.alpha_r()?, self.st);
        self.priced([ws.y, ws.d], |d| {
            d.dual_ratio_argmin(ws.d, ws.alpha_r, ws.sigma, leaving_below, tol, st)
        })
    }

    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        let ws = self.alpha_r()?;
        self.entry(ws.alpha_r, j)
    }

    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.btran_row(r)?;
        // The Section 5.2 device→host leg: the tableau row crosses the link
        // so the CPU-side cut generator can read it.
        Ok(self.d.download_vector(self.alpha_r()?.alpha_r, self.st)?)
    }

    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        let (ws, st) = (self.ws, self.st);
        Ok(with_scratch(self.d, [ws.y], |d| {
            d.eta_btran(ws.eta, ws.cb, ws.y, st)?;
            d.download_vector(ws.y, st)
        })?)
    }

    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.select();
        let (ws, st) = (self.ws, self.st);
        self.priced([ws.y, ws.d], |d| {
            d.devex_argmax(ws.d, ws.sigma, ws.gamma, st)
        })
    }

    /// The Devex weight update; the kernel gathers `α_r[q]` and `γ_q` where
    /// they are, so the apply it rides reads nothing back.
    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        let (ws, st) = (self.alpha_r()?, self.st);
        self.d
            .devex_weight_update(ws.gamma, ws.alpha_r, q, leaving_j, st)
            .map_err(devex_refused)
    }
}

/// Simplex engine whose numerical state lives on a simulated accelerator,
/// with the matrix held as `M`.
#[derive(Debug)]
pub struct DeviceSimplex<M: Storage> {
    accel: Accel,
    a: M,
    stream: StreamId,
    m: usize,
    n: usize,
    /// The resident workspace, created at the first install.
    ws: Option<Workspace<M>>,
    live: Live,
    /// The install's host buffers, and the record of what the device holds.
    stage: Stage,
    /// `x_B` as a run that ended optimal read it back in its envelope: what
    /// `basic_values` returns without crossing, if it is the next call.
    /// Every other call drops it.
    staged_xb: Option<Vec<f64>>,
}

/// The dense-resident engine: dense kernels, dense LU under the eta file.
pub type DeviceEngine = DeviceSimplex<MatrixHandle>;

/// The CSR-resident engine: sparse kernels, sparse LU under the eta file.
pub type SparseDeviceEngine = DeviceSimplex<SparseHandle>;

impl<M: Storage> DeviceSimplex<M> {
    /// Uploads the extended matrix to the accelerator and builds an engine
    /// on the default stream.
    pub fn new(accel: Accel, a: &DenseMatrix) -> LpResult<Self> {
        Self::new_on_stream(accel, a, DEFAULT_STREAM)
    }

    /// Uploads the matrix and binds every subsequent operation to `stream`
    /// — the Section 5.5 mechanism that lets several engines share one
    /// device with overlapping execution.
    pub fn new_on_stream(accel: Accel, a: &DenseMatrix, stream: StreamId) -> LpResult<Self> {
        let handle = on_device(&accel, |d| M::upload(d, a, stream))?;
        Ok(Self {
            accel,
            a: handle,
            stream,
            m: a.rows(),
            n: a.cols(),
            ws: None,
            live: Live::default(),
            stage: Default::default(),
            staged_xb: None,
        })
    }

    /// The accelerator this engine runs on (for stats queries).
    pub fn accel(&self) -> &Accel {
        &self.accel
    }

    /// One engine call on an installed engine: `kernels` runs with the
    /// engine's [`Call`] view on the device, as one lock and one launch
    /// chain.
    fn call<R>(&mut self, kernels: impl FnOnce(&mut Call<'_, M>) -> LpResult<R>) -> LpResult<R> {
        let ws = self
            .ws
            .filter(|_| self.live.installed)
            .ok_or(LpError::NotInstalled)?;
        self.call_on(ws, kernels)
    }

    /// [`call`](Self::call) on `ws`, installed or not.
    fn call_on<R>(
        &mut self,
        ws: Workspace<M>,
        kernels: impl FnOnce(&mut Call<'_, M>) -> LpResult<R>,
    ) -> LpResult<R> {
        self.staged_xb = None;
        let (a, st, m, n) = (self.a, self.stream, self.m, self.n);
        let (live, stage) = (&mut self.live, &mut self.stage);
        on_device(&self.accel, |d| {
            kernels(&mut Call {
                d,
                ws,
                a,
                st,
                m,
                n,
                live,
                stage,
                selected: false,
            })
        })
    }

    /// Entry `i` of the current FTRAN column: the tests' window on α.
    #[cfg(test)]
    fn alpha_entry(&mut self, i: usize) -> LpResult<f64> {
        self.call(|k| {
            let ws = k.alpha()?;
            k.entry(ws.alpha, i)
        })
    }
}

impl<M: Storage> Drop for DeviceSimplex<M> {
    fn drop(&mut self) {
        on_device(&self.accel, |d| {
            if let Some(ws) = self.ws {
                ws.free(d);
            }
            let _ = d.free(self.a);
        });
    }
}

impl<M: Storage> SimplexEngine for DeviceSimplex<M> {
    fn m(&self) -> usize {
        self.m
    }

    fn sim_now_ns(&self) -> Option<f64> {
        Some(self.accel.elapsed_ns())
    }

    fn n(&self) -> usize {
        self.n
    }

    fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()> {
        let accel = &self.accel;
        let ws = *self.ws.get_or_insert_with(|| accel.with(Workspace::create));
        self.call_on(ws, |k| k.install(view, basis))
    }

    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        let (a, st) = (self.a, self.stream);
        self.staged_xb = None;
        // The recorded vectors are a column and a row short now.
        self.stage.record.held = false;
        on_device(&self.accel, |d| d.append_cut(a, row, col, st))?;
        self.m += 1;
        self.n += 1;
        Ok(())
    }

    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.call(|k| k.price())
    }

    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        self.call(|k| k.reduced_costs_host())
    }

    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        self.call(|k| k.ftran_column(q))
    }

    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.call(|k| k.ratio_test(dir, tol))
    }

    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        self.call(|k| k.apply_flip(q, dir, t, new_sigma))
    }

    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        self.call(|k| k.apply_pivot(plan))
    }

    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        match self.staged_xb.take() {
            Some(xb) => Ok(xb),
            None => self.call(|k| k.basic_values()),
        }
    }

    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        self.call(|k| k.basic_entry(i))
    }

    fn eta_count(&self) -> usize {
        self.live.etas
    }

    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.call(|k| k.primal_infeas(tol))
    }

    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        self.call(|k| k.btran_row(r))
    }

    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        self.call(|k| k.dual_ratio(leaving_below, tol))
    }

    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        self.call(|k| k.alpha_r_entry(j))
    }

    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.call(|k| k.btran_row_host(r))
    }

    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        self.call(|k| k.dual_prices())
    }

    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.call(|k| k.price_devex())
    }

    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        self.call(|k| k.devex_update(q, leaving_j))
    }

    // The run-shaped calls: the trait's default bodies over one `Call`, so
    // one lock, one chain (each select after the first a relaunch), and one
    // staged read-back of what the host needs to go on — with `x_B` staged
    // behind a run that ended optimal, for the `basic_values` that follows.

    fn primal_run(
        &mut self,
        view: ProblemView<'_>,
        basis: &mut Basis,
        cfg: &PrimalConfig,
        run: &mut PrimalRun,
    ) -> LpResult<()> {
        self.staged_xb = self.call(|k| {
            k.primal_run(view, basis, cfg, run)?;
            k.staged(run.outcome)
        })?;
        Ok(())
    }

    fn dual_run(
        &mut self,
        view: ProblemView<'_>,
        basis: &mut Basis,
        cfg: &DualConfig,
        polish: Option<&PrimalConfig>,
        at: &mut Progress,
    ) -> LpResult<Option<DualOutcome>> {
        let (outcome, xb) = self.call(|k| {
            let outcome = k.dual_run(view, basis, cfg, polish, at)?;
            let polished = match (outcome, polish) {
                (Some(DualOutcome::PrimalFeasible), Some(_)) => at.polish.and_then(|r| r.outcome),
                _ => None,
            };
            Ok((outcome, k.staged(polished)?))
        })?;
        self.staged_xb = xb;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests;
