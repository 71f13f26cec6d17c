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
//! * a pivot is **one launch and one crossing**: two engine calls, a
//!   *select* and an *apply*, each one lock and one launch chain
//!   ([`GpuDevice::chain`]) with at most one link crossing per direction,
//!   whatever the pricing rule and whichever simplex. The select
//!   ([`SimplexEngine::primal_select`]: `price → ftran_column → ratio_test`;
//!   [`SimplexEngine::dual_select`]: `primal_infeas → btran_row → dual_ratio`
//!   and the two pivot entries) *selects on the device*: the index a
//!   reduction finds is read by the chain's next kernel where the reduction
//!   left it, a chain whose reduction finds nothing ends early, and what the
//!   host needs to go on (the reductions' 16–24 byte results, the pivot
//!   entries) is staged and crosses the link **once**, behind the chain's
//!   last kernel. The apply ([`SimplexEngine::primal_apply`] /
//!   [`SimplexEngine::dual_apply`]) reads nothing back: what a pivot
//!   *stores* (the entering value, two statuses, a cost and two bounds)
//!   rides its step kernel as launch arguments, and the Devex weight update
//!   gathers its two scalars on the device — "rank-1 updates and resolving
//!   the updated matrix repeatedly with no data transfer from host to device
//!   or vice versa". A chain the host waits for nothing from is *held*, and
//!   the next select continues it, so an apply costs its kernel bodies and
//!   no launch of its own; an install rides its first select the same way.
//!   A terminal primal select stages `x_B` into its envelope, and the
//!   `basic_values` that follows crosses nothing. A warm node LP of `k` dual
//!   pivots is `k + 2` launches and `k + 2` read-backs. The primitives the
//!   pivot-shaped calls are made of remain engine calls of their own for
//!   the trait's default bodies and the Bland fallback, whose full
//!   reduced-cost read-back is the honest cost of choosing the column on
//!   the host;
//! * per basis **install** (node start, refactorization), only small
//!   vectors (`c`, `b`, statuses, basic bounds, nonbasic values, Devex
//!   weights) are uploaded, staged into one transfer;
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
use crate::dual::DualConfig;
use crate::engine::{
    devex_refused, dual_pivot_element, entering_dir, improving, DualPick, PivotPlan, PrimalPick,
    ProblemView, SimplexEngine,
};
use crate::simplex::{PricingRule, PrimalConfig};
use crate::{LpError, LpResult};
use gmip_gpu::device::Result as GpuResult;
use gmip_gpu::{
    Accel, Eta, GpuDevice, MatrixHandle, SparseHandle, Storage, StreamId, VectorHandle,
    DEFAULT_STREAM,
};
use gmip_linalg::DenseMatrix;

/// An engine's resident objects on its device, created once and written in
/// place ever after; every vector takes the length of what a kernel last
/// put there, so a cut that grows the problem needs no resizing pass.
#[derive(Debug, Clone, Copy)]
struct Workspace<M> {
    // Iteration state: tenanted from one install to the next (`alpha` and
    // `alpha_r` from the FTRAN / BTRAN that makes them to the pivot that
    // consumes them).
    c: VectorHandle,
    b: VectorHandle,
    sigma: VectorHandle,
    cb: VectorHandle,
    lbb: VectorHandle,
    ubb: VectorHandle,
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
    x_nb: VectorHandle,
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
            cb: v(),
            lbb: v(),
            ubb: v(),
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
            x_nb: v(),
            col: v(),
        }
    }

    fn state(&self) -> [VectorHandle; 10] {
        [
            self.c,
            self.b,
            self.sigma,
            self.cb,
            self.lbb,
            self.ubb,
            self.xb,
            self.gamma,
            self.alpha,
            self.alpha_r,
        ]
    }

    fn scratch(&self) -> [VectorHandle; 8] {
        [
            self.y, self.d, self.score, self.e_r, self.rho, self.w, self.x_nb, self.col,
        ]
    }

    /// Ends every tenancy of the iteration state, as an install begins.
    fn vacate_state(&self, d: &mut GpuDevice) {
        vacate(d, self.state());
        let _ = d.vacate(self.eta);
    }

    fn free(&self, d: &mut GpuDevice) {
        for h in self.state().into_iter().chain(self.scratch()) {
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

/// One engine call's view of an installed engine: the handles its kernels
/// name and the host-side record they keep. Each method is the kernel
/// sequence of one [`SimplexEngine`] primitive, to be run inside the call's
/// one launch chain ([`on_device`]) — alone for the primitive itself, back
/// to back for a pivot-shaped call.
struct Call<'e, M> {
    ws: Workspace<M>,
    a: M,
    st: StreamId,
    m: usize,
    live: &'e mut Live,
}

impl<M: Storage> Call<'_, M> {
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
        &self,
        d: &mut GpuDevice,
        scratch: [VectorHandle; N],
        reduce: impl FnOnce(&mut GpuDevice) -> GpuResult<R>,
    ) -> LpResult<R> {
        let (ws, a, st) = (self.ws, self.a, self.st);
        Ok(with_scratch(d, scratch, |d| {
            d.eta_btran(ws.eta, ws.cb, ws.y, st)?;
            d.pricing(a, ws.y, ws.c, ws.d, st)?;
            reduce(d)
        })?)
    }

    fn price(&self, d: &mut GpuDevice, rule: PricingRule) -> LpResult<Option<(usize, f64)>> {
        let (ws, st) = (self.ws, self.st);
        match rule {
            PricingRule::Dantzig => self.priced(d, [ws.y, ws.d, ws.score], |d| {
                d.vec_mul(ws.d, ws.sigma, ws.score, st)?;
                d.argmin_masked(ws.score, ws.sigma, st)
            }),
            PricingRule::Devex => self.priced(d, [ws.y, ws.d], |d| {
                d.devex_argmax(ws.d, ws.sigma, ws.gamma, st)
            }),
        }
    }

    fn reduced_costs_host(&self, d: &mut GpuDevice) -> LpResult<Vec<f64>> {
        // Honest full-vector D2H transfer (the Bland fallback's cost).
        let ws = self.ws;
        self.priced(d, [ws.y, ws.d], |d| d.download_vector(ws.d, self.st))
    }

    fn ftran_column(&mut self, d: &mut GpuDevice, q: usize) -> LpResult<()> {
        let (ws, a, st) = (self.ws, self.a, self.st);
        self.live.alpha = false;
        with_scratch(d, [ws.col], |d| {
            d.extract_column(a, q, ws.col, st)?;
            d.eta_ftran(ws.eta, ws.col, ws.alpha, st)
        })?;
        self.live.alpha = true;
        Ok(())
    }

    fn ratio_test(
        &self,
        d: &mut GpuDevice,
        dir: f64,
        tol: f64,
    ) -> LpResult<Option<(usize, f64, bool)>> {
        let ws = self.alpha()?;
        Ok(d.ratio_test_bounded(ws.xb, ws.alpha, ws.lbb, ws.ubb, dir, tol, self.st)?)
    }

    fn apply_flip(
        &self,
        d: &mut GpuDevice,
        q: usize,
        dir: f64,
        t: f64,
        new_sigma: f64,
    ) -> LpResult<()> {
        let ws = self.alpha()?;
        let writes = [(ws.sigma, q, new_sigma)];
        Ok(d.basic_step(ws.xb, ws.alpha, dir, t, &writes, self.st)?)
    }

    fn apply_pivot(&mut self, d: &mut GpuDevice, plan: &PivotPlan) -> LpResult<()> {
        let ws = self.alpha()?;
        let st = self.st;
        // Everything the pivot stores besides the step rides the step
        // kernel as arguments, checked before x_B or the eta file move.
        d.basic_step(
            ws.xb,
            ws.alpha,
            plan.dir,
            plan.t,
            &[
                (ws.xb, plan.r, plan.entering_val),
                (ws.sigma, plan.leaving_j, plan.leaving_sigma),
                (ws.sigma, plan.q, 0.0),
                (ws.cb, plan.r, plan.c_q),
                (ws.lbb, plan.r, plan.lb_q),
                (ws.ubb, plan.r, plan.ub_q),
            ],
            st,
        )?;
        d.eta_update(ws.eta, plan.r, ws.alpha, st)?;
        // The pivot consumed α (and the Devex row, if any).
        vacate(d, [ws.alpha]);
        if self.live.alpha_r {
            vacate(d, [ws.alpha_r]);
        }
        self.live.etas += 1;
        self.live.alpha = false;
        self.live.alpha_r = false;
        Ok(())
    }

    fn primal_infeas(&self, d: &mut GpuDevice, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let ws = self.ws;
        Ok(d.primal_infeas_argmax(ws.xb, ws.lbb, ws.ubb, tol, self.st)?)
    }

    fn btran_row(&mut self, d: &mut GpuDevice, r: usize) -> LpResult<()> {
        let (ws, a, st, m) = (self.ws, self.a, self.st, self.m);
        self.live.alpha_r = false;
        with_scratch(d, [ws.e_r, ws.rho], |d| {
            d.alloc_unit_vector(m, r, ws.e_r, st)?;
            d.eta_btran(ws.eta, ws.e_r, ws.rho, st)?;
            d.matvec_transposed(a, ws.rho, ws.alpha_r, st)
        })?;
        self.live.alpha_r = true;
        Ok(())
    }

    fn dual_ratio(
        &self,
        d: &mut GpuDevice,
        leaving_below: bool,
        tol: f64,
    ) -> LpResult<Option<(usize, f64)>> {
        let (ws, st) = (self.alpha_r()?, self.st);
        self.priced(d, [ws.y, ws.d], |d| {
            d.dual_ratio_argmin(ws.d, ws.alpha_r, ws.sigma, leaving_below, tol, st)
        })
    }

    /// Reads one vector entry back (staged, inside a chain).
    fn entry(&self, d: &mut GpuDevice, of: VectorHandle, i: usize) -> LpResult<f64> {
        Ok(d.vec_get([(of, i)], self.st).map(|[v]| v)?)
    }

    /// The Devex weight update; the kernel gathers `α_r[q]` and `γ_q` where
    /// they are, so the apply it rides reads nothing back.
    fn devex_update(&self, d: &mut GpuDevice, q: usize, leaving_j: usize) -> LpResult<()> {
        let (ws, st) = (self.alpha_r()?, self.st);
        d.devex_weight_update(ws.gamma, ws.alpha_r, q, leaving_j, st)
            .map_err(devex_refused)
    }

    fn basic_values(&self, d: &mut GpuDevice) -> LpResult<Vec<f64>> {
        Ok(d.download_vector(self.ws.xb, self.st)?)
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
    /// Host staging buffers for the install upload (σ, nonbasic values,
    /// the basis-ordered `c_B` / `l_B` / `u_B`, and the initial Devex
    /// weights), kept across installs so a warm re-solve stages without
    /// allocating.
    stage: [Vec<f64>; 6],
    /// `x_B` as a terminal primal select read it back in its envelope:
    /// what `basic_values` returns without crossing, if it is the next call.
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
    fn call<R>(
        &mut self,
        kernels: impl FnOnce(&mut Call<'_, M>, &mut GpuDevice) -> LpResult<R>,
    ) -> LpResult<R> {
        self.staged_xb = None;
        let ws = self
            .ws
            .filter(|_| self.live.installed)
            .ok_or(LpError::NotInstalled)?;
        let mut call = Call {
            ws,
            a: self.a,
            st: self.stream,
            m: self.m,
            live: &mut self.live,
        };
        on_device(&self.accel, |d| kernels(&mut call, d))
    }

    /// Entry `i` of the current FTRAN column: the tests' window on α.
    #[cfg(test)]
    fn alpha_entry(&mut self, i: usize) -> LpResult<f64> {
        self.call(|k, d| k.entry(d, k.alpha()?.alpha, i))
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
        let st = self.stream;
        if view.c.len() != self.n || view.b.len() != self.m {
            return Err(LpError::Shape(format!(
                "install: engine {}x{}, view c={} b={}",
                self.m,
                self.n,
                view.c.len(),
                view.b.len()
            )));
        }
        self.live = Live::default();
        self.staged_xb = None;

        // Host-side assembly of the small per-install vectors; Devex
        // reference weights start at one.
        let [sigma, x_nb, cb, lbb, ubb, gamma] = &mut self.stage;
        let assembled = view.assemble(
            basis,
            [&mut *sigma, &mut *x_nb, &mut *cb, &mut *lbb, &mut *ubb],
        );
        gamma.clear();
        gamma.resize(self.n, 1.0);

        let a = self.a;
        let ws = &mut self.ws;
        on_device(&self.accel, |d| -> LpResult<()> {
            // The previous install's state goes first, whatever comes next.
            let ws = *ws.get_or_insert_with(|| Workspace::create(d));
            ws.vacate_state(d);
            assembled?;
            with_scratch(d, [ws.x_nb, ws.w], |d| {
                // Everything the install needs from the host crosses the
                // link once.
                d.upload_staged(
                    &[
                        (ws.c, view.c),
                        (ws.b, view.b),
                        (ws.sigma, sigma),
                        (ws.cb, cb),
                        (ws.lbb, lbb),
                        (ws.ubb, ubb),
                        (ws.x_nb, x_nb),
                        (ws.gamma, gamma),
                    ],
                    st,
                )?;
                // Residual w = b − A x_nb, fully on device.
                d.residual(ws.b, a, ws.x_nb, ws.w, st)?;
                // x_N is spent, and goes before the factorization's
                // temporaries arrive: γ now lands with the rest instead of
                // after them, and must not stand beside both.
                vacate(d, [ws.x_nb]);
                // Basis assembly + factorization, on device.
                d.eta_factor(a, &basis.cols, ws.eta, st)?;
                d.eta_ftran(ws.eta, ws.w, ws.xb, st)
            })?;
            Ok(())
        })?;
        self.live.installed = true;
        Ok(())
    }

    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        let (a, st) = (self.a, self.stream);
        self.staged_xb = None;
        on_device(&self.accel, |d| d.append_cut(a, row, col, st))?;
        self.m += 1;
        self.n += 1;
        Ok(())
    }

    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.call(|k, d| k.price(d, PricingRule::Dantzig))
    }

    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        self.call(|k, d| k.reduced_costs_host(d))
    }

    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        self.call(|k, d| k.ftran_column(d, q))
    }

    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.call(|k, d| k.ratio_test(d, dir, tol))
    }

    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        self.call(|k, d| k.apply_flip(d, q, dir, t, new_sigma))
    }

    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        self.call(|k, d| k.apply_pivot(d, plan))
    }

    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        match self.staged_xb.take() {
            Some(xb) => Ok(xb),
            None => self.call(|k, d| k.basic_values(d)),
        }
    }

    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        self.call(|k, d| k.entry(d, k.ws.xb, i))
    }

    fn eta_count(&self) -> usize {
        self.live.etas
    }

    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.call(|k, d| k.primal_infeas(d, tol))
    }

    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        self.call(|k, d| k.btran_row(d, r))
    }

    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        self.call(|k, d| k.dual_ratio(d, leaving_below, tol))
    }

    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        self.call(|k, d| k.entry(d, k.alpha_r()?.alpha_r, j))
    }

    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.call(|k, d| {
            k.btran_row(d, r)?;
            // The Section 5.2 device→host leg: the tableau row crosses the
            // link so the CPU-side cut generator can read it.
            Ok(d.download_vector(k.alpha_r()?.alpha_r, k.st)?)
        })
    }

    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        self.call(|k, d| {
            let (ws, st) = (k.ws, k.st);
            Ok(with_scratch(d, [ws.y], |d| {
                d.eta_btran(ws.eta, ws.cb, ws.y, st)?;
                d.download_vector(ws.y, st)
            })?)
        })
    }

    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.call(|k, d| k.price(d, PricingRule::Devex))
    }

    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        self.call(|k, d| k.devex_update(d, q, leaving_j))
    }

    // The pivot-shaped calls: the primitives of the default bodies, in the
    // same order with the same exits, inside one `call` — so one lock, one
    // launch, and one staged read-back of what the host needs to go on.

    fn primal_select(&mut self, cfg: &PrimalConfig, basis: &Basis) -> LpResult<Option<PrimalPick>> {
        let (pick, xb) = self.call(|k, d| {
            let Some(q) = improving(k.price(d, cfg.pricing)?, cfg.price_tol) else {
                // The solve ends here, and the host reads x_B next: it
                // rides this chain's envelope instead of a crossing of its
                // own.
                return Ok((None, Some(k.basic_values(d)?)));
            };
            // What the device reads as −σ_q beside the argmin's result.
            let dir = entering_dir(basis, q)?;
            k.ftran_column(d, q)?;
            let limit = k.ratio_test(d, dir, cfg.ratio_tol)?;
            Ok((Some(PrimalPick { q, dir, limit }), None))
        })?;
        self.staged_xb = xb;
        Ok(pick)
    }

    fn primal_apply(&mut self, plan: &PivotPlan, devex: bool) -> LpResult<()> {
        self.call(|k, d| {
            if devex {
                k.btran_row(d, plan.r)?;
                k.devex_update(d, plan.q, plan.leaving_j)?;
            }
            k.apply_pivot(d, plan)
        })
    }

    fn dual_select(&mut self, cfg: &DualConfig) -> LpResult<DualPick> {
        self.call(|k, d| {
            let Some((r, _viol, below)) = k.primal_infeas(d, cfg.feas_tol)? else {
                return Ok(DualPick::Feasible);
            };
            k.btran_row(d, r)?;
            let Some((q, _ratio)) = k.dual_ratio(d, below, cfg.base.ratio_tol)? else {
                return Ok(DualPick::Infeasible { row: r, below });
            };
            // The two entries the pivot's geometry needs, gathered where the
            // reductions left `r` and `q`.
            let alpha_rq = k.entry(d, k.alpha_r()?.alpha_r, q)?;
            let alpha_rq = dual_pivot_element(alpha_rq, q, cfg.base.ratio_tol)?;
            let xbr = k.entry(d, k.ws.xb, r)?;
            Ok(DualPick::Pivot {
                r,
                below,
                q,
                alpha_rq,
                xbr,
            })
        })
    }

    fn dual_apply(&mut self, plan: &PivotPlan) -> LpResult<()> {
        self.call(|k, d| {
            k.ftran_column(d, plan.q)?;
            k.apply_pivot(d, plan)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::VarStatus;
    use crate::engine::HostEngine;
    use crate::problem::{BoundChange, StandardLp};
    use crate::simplex::{primal_solve, PrimalConfig};
    use crate::solver::{LpConfig, LpSolver, LpStatus};
    use gmip_linalg::LinalgError;
    use gmip_problems::catalog::{textbook_lp, textbook_mip};
    use gmip_problems::generators::{knapsack, set_cover, unit_commitment};
    use proptest::prelude::*;

    fn device_solver<M: Storage + 'static>(
        std: StandardLp,
        accel: Accel,
    ) -> LpSolver<DeviceSimplex<M>> {
        LpSolver::new(std, LpConfig::standard(), |a| {
            DeviceSimplex::new(accel, a).expect("device upload")
        })
    }

    fn solves_textbook_lp<M: Storage + 'static>() {
        let accel = Accel::gpu(1);
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut solver = device_solver::<M>(std, accel.clone());
        let sol = solver.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 21.0).abs() < 1e-7);
        // The matrix was uploaded exactly once; iteration traffic is
        // vector/scalar-sized.
        let stats = accel.stats();
        assert!(stats.h2d_transfers > 0);
        assert!(stats.kernel_launches > 0);
    }

    fn matches_host_pivot_for_pivot<M: Storage + 'static>() {
        for (name, mip) in [
            ("knapsack", knapsack(10, 0.5, 3)),
            ("setcover", set_cover(6, 6, 0.4, 3)),
            ("setcover8", set_cover(8, 8, 0.3, 5)),
            ("ucommit", unit_commitment(2, 2, 5)),
            ("textbook", textbook_mip()),
        ] {
            let std = StandardLp::from_instance(&mip, &[]);
            let mut host = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
                HostEngine::new(a.clone())
            });
            let hsol = host.solve().unwrap();
            let mut dev = device_solver::<M>(std, Accel::gpu(1));
            let dsol = dev.solve().unwrap();
            assert_eq!(hsol.status, dsol.status, "{name}");
            if hsol.status == LpStatus::Optimal {
                assert!(
                    (hsol.objective - dsol.objective).abs() < 1e-6,
                    "{name}: host {} vs device {}",
                    hsol.objective,
                    dsol.objective
                );
                assert_eq!(
                    hsol.iterations, dsol.iterations,
                    "{name}: pivot paths differ"
                );
            }
        }
    }

    fn warm_resolves_and_cuts<M: Storage + 'static>() {
        let accel = Accel::gpu(1);
        let std = StandardLp::from_instance(&textbook_mip(), &[]);
        let mut solver = device_solver::<M>(std, accel.clone());
        let base = solver.solve().unwrap();
        assert_eq!(base.status, LpStatus::Optimal);
        let bytes_after_solve = accel.stats().h2d_bytes;
        // Several warm re-solves with different branch bounds.
        for ub0 in [3.0, 2.0, 1.0] {
            solver
                .apply_node_bounds(&[BoundChange {
                    var: 0,
                    lb: 0.0,
                    ub: ub0,
                }])
                .unwrap();
            let warm = solver.resolve().unwrap();
            assert_eq!(warm.status, LpStatus::Optimal);
            if ub0 <= 2.0 {
                assert!(warm.objective < base.objective);
            }
        }
        let bytes_after_resolves = accel.stats().h2d_bytes;
        // The matrix (largest object) must not have been re-sent: per-resolve
        // traffic is small vectors only. The extended matrix is 4x8 doubles
        // = 256B+; allow the three resolves a small-vector budget each.
        let per_resolve = (bytes_after_resolves - bytes_after_solve) / 3;
        let matrix_bytes = (4 * 8 * 8) as u64;
        assert!(
            per_resolve < matrix_bytes * 4,
            "per-resolve H2D {per_resolve}B looks like matrix re-uploads"
        );
        // Cut flow: the cut arrives via H2D (row + slack), per Section 5.2.
        solver.apply_node_bounds(&[]).unwrap();
        let h2d_before = accel.stats().h2d_transfers;
        solver.add_cut(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        let cutted = solver.resolve().unwrap();
        assert_eq!(cutted.status, LpStatus::Optimal);
        assert!(cutted.objective < base.objective - 1e-6);
        assert!(cutted.x[0] + cutted.x[1] <= 4.0 + 1e-7);
        assert!(accel.stats().h2d_transfers > h2d_before);
    }

    fn frees_memory_on_drop<M: Storage + 'static>() {
        let accel = Accel::gpu(1);
        {
            let std = StandardLp::from_instance(&textbook_lp(), &[]);
            let mut solver = device_solver::<M>(std, accel.clone());
            solver.solve().unwrap();
            assert!(accel.mem_used() > 0);
        }
        assert_eq!(accel.mem_used(), 0, "engine leaked device memory");
    }

    /// `[A | I]` with two equal structural columns: the basis {0, 1} is
    /// singular, the slack basis {2, 3} is fine.
    fn twin_columns() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 2.0, 0.0, 1.0]]).unwrap()
    }

    fn failed_installs_leak_nothing<M: Storage>() {
        let (c, lb, ub, b) = ([1.0, 1.0, 0.0, 0.0], [0.0; 4], [10.0; 4], [4.0, 6.0]);
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let good = Basis::with_basic_cols(vec![2, 3], 4);
        let singular = Basis::with_basic_cols(vec![0, 1], 4);
        let accel = Accel::gpu(1);
        let engine = || DeviceSimplex::<M>::new(accel.clone(), &twin_columns()).unwrap();

        let mut fresh = engine();
        fresh.install(view, &good).unwrap();
        let installed = accel.mem_used();
        drop(fresh);
        assert_eq!(accel.mem_used(), 0);

        let mut e = engine();
        e.install(view, &good).unwrap();
        assert_eq!(accel.mem_used(), installed);
        let created = accel.with(|d| d.objects_created());
        let mut stranded = None;
        for _ in 0..3 {
            assert!(matches!(
                e.install(view, &singular),
                Err(LpError::Numerics(LinalgError::Singular { .. }))
            ));
            // What the failed install had uploaded stays until the next
            // install takes it back — the same bytes every time, less than
            // a whole install, and none of them usable.
            let used = accel.mem_used();
            assert_eq!(*stranded.get_or_insert(used), used);
            assert!(used < installed);
            assert!(matches!(e.price(), Err(LpError::NotInstalled)));
            assert!(matches!(e.basic_values(), Err(LpError::NotInstalled)));
        }
        e.install(view, &good).unwrap();
        assert_eq!(accel.mem_used(), installed);
        assert_eq!(accel.with(|d| d.objects_created()), created);
        assert_eq!(e.basic_values().unwrap(), vec![4.0, 6.0]);
        drop(e);
        assert_eq!(accel.mem_used(), 0, "engine leaked device memory");
    }

    fn consumed_vectors_stay_consumed<M: Storage>() {
        // max x0 + x1 over x0 + x1 + s0 = 4, 2 x0 + x1 + s1 = 6.
        let a =
            DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 1.0, 0.0, 1.0]]).unwrap();
        let (c, lb, ub, b) = ([1.0, 1.0, 0.0, 0.0], [0.0; 4], [10.0; 4], [4.0, 6.0]);
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let mut e = DeviceSimplex::<M>::new(Accel::gpu(1), &a).unwrap();
        let not_installed = |r: LpResult<()>| assert_eq!(r, Err(LpError::NotInstalled));
        not_installed(e.price().map(drop));
        e.install(view, &Basis::with_basic_cols(vec![2, 3], 4))
            .unwrap();
        // Installed, but no FTRAN column / BTRAN row yet.
        not_installed(e.ratio_test(1.0, 1e-9).map(drop));
        not_installed(e.alpha_entry(0).map(drop));
        not_installed(e.dual_ratio(true, 1e-9).map(drop));
        not_installed(e.alpha_r_entry(0).map(drop));

        e.btran_row(1).unwrap();
        e.ftran_column(0).unwrap();
        assert_eq!(e.alpha_entry(1).unwrap(), 2.0);
        assert_eq!(e.alpha_r_entry(0).unwrap(), 2.0);
        let (r, t, upper) = e.ratio_test(1.0, 1e-9).unwrap().unwrap();
        assert_eq!((r, t, upper), (1, 3.0, false));
        e.apply_pivot(&PivotPlan {
            r,
            q: 0,
            leaving_j: 3,
            dir: 1.0,
            t,
            entering_val: t,
            leaving_sigma: -1.0,
            c_q: c[0],
            lb_q: lb[0],
            ub_q: ub[0],
        })
        .unwrap();
        assert_eq!(e.eta_count(), 1);
        // The pivot consumed both: their storage is still on the device,
        // their contents are nobody's to read.
        not_installed(e.ratio_test(1.0, 1e-9).map(drop));
        not_installed(e.alpha_entry(1).map(drop));
        not_installed(e.apply_flip(1, 1.0, 0.0, 1.0));
        not_installed(e.dual_ratio(true, 1e-9).map(drop));
        not_installed(e.alpha_r_entry(0).map(drop));
        not_installed(e.devex_update(1, 3));
        assert_eq!(e.basic_values().unwrap(), vec![1.0, 3.0]);
        // Fresh ones are readable again.
        e.ftran_column(1).unwrap();
        e.btran_row(0).unwrap();
        assert_eq!(e.alpha_entry(0).unwrap(), 0.5);
        assert_eq!(e.alpha_r_entry(3).unwrap(), -0.5);

        // A nonbasic column without a finite bound fails the install before
        // anything reaches the device — and keeps the staging buffers.
        let staged: Vec<usize> = e.stage.iter().map(Vec::capacity).collect();
        let free_ub = [10.0, f64::INFINITY, 10.0, 10.0];
        let mut at_upper = Basis::with_basic_cols(vec![2, 3], 4);
        at_upper.status[1] = VarStatus::AtUpper;
        let unbounded = ProblemView {
            ub: &free_ub,
            ..view
        };
        assert_eq!(
            e.install(unbounded, &at_upper),
            Err(LpError::FreeVariable(1))
        );
        not_installed(e.price().map(drop));
        assert_eq!(
            e.stage.iter().map(Vec::capacity).collect::<Vec<_>>(),
            staged
        );
        assert!(staged.iter().all(|&cap| cap > 0));
    }

    /// A pivot's stores are arguments of its step kernel, checked before the
    /// kernel moves anything: a plan naming a column or row that does not
    /// exist leaves `x_B`, the statuses and the eta file as they were.
    fn bad_pivot_plans_change_nothing<M: Storage>() {
        // max x0 + x1 over x0 + x1 + s0 = 4, 2 x0 + x1 + s1 = 6.
        let a =
            DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 1.0, 0.0, 1.0]]).unwrap();
        let (c, lb, ub, b) = ([1.0, 1.0, 0.0, 0.0], [0.0; 4], [10.0; 4], [4.0, 6.0]);
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let accel = Accel::gpu(1);
        let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
        e.install(view, &Basis::with_basic_cols(vec![2, 3], 4))
            .unwrap();
        e.ftran_column(0).unwrap();
        let (r, t, _) = e.ratio_test(1.0, 1e-9).unwrap().unwrap();
        let good = PivotPlan {
            r,
            q: 0,
            leaving_j: 3,
            dir: 1.0,
            t,
            entering_val: t,
            leaving_sigma: -1.0,
            c_q: c[0],
            lb_q: lb[0],
            ub_q: ub[0],
        };
        let launches = accel.stats().kernel_launches;
        for bad in [
            PivotPlan { q: 4, ..good },
            PivotPlan {
                leaving_j: 4,
                ..good
            },
            PivotPlan { r: 2, ..good },
        ] {
            let refused = |r: LpResult<()>| {
                assert!(matches!(
                    r,
                    Err(LpError::Numerics(LinalgError::OutOfBounds { .. }))
                ));
            };
            refused(e.apply_pivot(&bad));
            refused(e.apply_flip(4, 1.0, t, 1.0));
            assert_eq!(accel.stats().kernel_launches, launches, "nothing ran");
            assert_eq!(e.eta_count(), 0);
            assert_eq!(e.basic_values().unwrap(), vec![4.0, 6.0]);
        }
        // α is still there for the plan that is right, and what follows it
        // is what follows a single eta update.
        e.apply_pivot(&good).unwrap();
        assert_eq!(e.eta_count(), 1);
        assert_eq!(e.basic_values().unwrap(), vec![1.0, 3.0]);
        assert_eq!(e.price().unwrap(), Some((1, -0.5)));
        e.ftran_column(1).unwrap();
        assert_eq!(e.alpha_entry(0).unwrap(), 0.5);
    }

    /// A pivot is one launch and one read-back: its apply reads nothing
    /// back, so the device holds that chain open and the next select — which
    /// does read back — continues it. In steady state an apply and the
    /// select after it are 1 launch + 1 D2H, for a Dantzig, a Devex and a
    /// dual pivot and for a bound flip; an install rides its first select
    /// the same way; a terminal primal select brings `x_B` back in its
    /// envelope, so the `basic_values` after it crosses nothing.
    fn a_pivot_is_one_launch<M: Storage>() {
        // max x0 + x1 over x0 + x1 + s0 = 4, 2 x0 + x1 + s1 = 6.
        let a =
            DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 1.0, 0.0, 1.0]]).unwrap();
        let (c, lb, b) = ([1.0, 1.0, 0.0, 0.0], [0.0; 4], [4.0, 6.0]);
        let slack = Basis::with_basic_cols(vec![2, 3], 4);
        let accel = Accel::gpu(1);
        let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
        // What the calls since the last look moved: launches, D2H transfers
        // and bytes, H2D transfers.
        let seen = std::cell::RefCell::new(accel.stats());
        let grew = |what: &str, want: (u64, u64, u64, u64)| {
            let (s, seen) = (accel.stats(), seen.replace(accel.stats()));
            let got = (
                s.kernel_launches - seen.kernel_launches,
                s.d2h_transfers - seen.d2h_transfers,
                s.d2h_bytes - seen.d2h_bytes,
                s.h2d_transfers - seen.h2d_transfers,
            );
            assert_eq!(
                got, want,
                "{what}: (launches, read-backs, bytes back, uploads)"
            );
        };
        let install = |e: &mut DeviceSimplex<M>, c: &[f64], ub: &[f64]| {
            let view = ProblemView {
                c,
                lb: &lb,
                ub,
                b: &b,
            };
            e.install(view, &slack).unwrap();
        };
        let plan = |r, q, leaving_j, t: f64| PivotPlan {
            r,
            q,
            leaving_j,
            dir: 1.0,
            t,
            entering_val: t,
            leaving_sigma: -1.0,
            c_q: c[q],
            lb_q: 0.0,
            ub_q: 10.0,
        };

        for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
            let primal = PrimalConfig {
                pricing,
                ..PrimalConfig::default()
            };
            let devex = pricing == PricingRule::Devex;
            // The install and the first select: the argmin's 16 bytes and
            // the ratio test's 24.
            install(&mut e, &c, &[10.0; 4]);
            let pick = e.primal_select(&primal, &slack).unwrap().unwrap();
            assert_eq!(
                (pick.q, pick.dir, pick.limit),
                (0, 1.0, Some((1, 3.0, false)))
            );
            grew("install + primal_select", (1, 1, 16 + 24, 1));
            // A pivot: x0 enters in row 1, s1 leaves; then x1 prices out.
            e.primal_apply(&plan(1, 0, 3, 3.0), devex).unwrap();
            let pick = e.primal_select(&primal, &slack).unwrap().unwrap();
            assert_eq!((pick.q, pick.limit), (1, Some((0, 2.0, false))));
            grew("primal_apply + primal_select", (1, 1, 16 + 24, 0));
            // The second pivot, then nothing prices out: x_B rides the
            // terminal select's envelope and basic_values crosses nothing.
            e.primal_apply(&plan(0, 1, 2, 2.0), devex).unwrap();
            assert_eq!(e.primal_select(&primal, &slack).unwrap(), None);
            grew("primal_apply + terminal select", (1, 1, 16 + 16, 0));
            assert_eq!(e.basic_values().unwrap(), vec![2.0, 2.0]);
            grew("basic_values after a terminal select", (0, 0, 0, 0));
            // The staged copy is spent: a second read crosses.
            assert_eq!(e.basic_values().unwrap(), vec![2.0, 2.0]);
            grew("basic_values again", (0, 1, 16, 0));
        }

        // A bound flip: x0 may rise by 1 only, before any row blocks; then
        // x1 prices out.
        let primal = PrimalConfig::default();
        install(&mut e, &c, &[1.0, 10.0, 10.0, 10.0]);
        let pick = e.primal_select(&primal, &slack).unwrap().unwrap();
        assert_eq!((pick.q, pick.limit), (0, Some((1, 3.0, false))));
        grew("install + primal_select before a flip", (1, 1, 16 + 24, 1));
        e.apply_flip(0, 1.0, 1.0, 1.0).unwrap();
        let mut flipped = slack.clone();
        flipped.status[0] = VarStatus::AtUpper;
        let pick = e.primal_select(&primal, &flipped).unwrap().unwrap();
        assert_eq!((pick.q, pick.limit), (1, Some((0, 3.0, false))));
        grew("apply_flip + primal_select", (1, 1, 16 + 24, 0));

        // A dual pivot: s0 = 4 sits above an upper bound of 1. Both
        // reductions' results and the two pivot entries, 24 + 16 + 8 + 8.
        // (Costs negated so that the slack basis is dual feasible.)
        let dual = DualConfig::standard();
        let c_neg = [-1.0, -1.0, 0.0, 0.0];
        install(&mut e, &c_neg, &[10.0, 10.0, 1.0, 10.0]);
        let DualPick::Pivot {
            r,
            below,
            q,
            alpha_rq,
            xbr,
        } = e.dual_select(&dual).unwrap()
        else {
            panic!("a violated row with an entering column");
        };
        assert_eq!((r, below, q, alpha_rq, xbr), (0, false, 0, 1.0, 4.0));
        grew("install + dual_select", (1, 1, 24 + 16 + 8 + 8, 1));
        let delta = (xbr - 1.0) / alpha_rq;
        e.dual_apply(&PivotPlan {
            leaving_sigma: 1.0,
            c_q: c_neg[q],
            ..plan(r, q, 2, delta)
        })
        .unwrap();
        assert_eq!(e.dual_select(&dual).unwrap(), DualPick::Feasible);
        grew("dual_apply + terminal dual_select", (1, 1, 24, 0));
        // A dual select stages nothing: x_B crosses on its own.
        assert_eq!(e.basic_values().unwrap(), vec![3.0, 0.0]);
        grew("basic_values after a dual select", (0, 1, 16, 0));

        // Infeasible: s0 = 4 above 1 again, and both structurals fixed.
        install(&mut e, &c_neg, &[0.0, 0.0, 1.0, 10.0]);
        assert_eq!(
            e.dual_select(&dual).unwrap(),
            DualPick::Infeasible {
                row: 0,
                below: false
            }
        );
        grew("install + infeasible dual_select", (1, 1, 24 + 16, 1));
    }

    /// The `x_B` a terminal select brought back is `basic_values`' only if
    /// nothing came between: an install, a cut, an apply or a failed select
    /// drops it, and the read after any of them crosses — and sees what
    /// that call did. A second read crosses again.
    fn a_staged_x_b_is_never_stale<M: Storage>() {
        // x0 + x1 + s0 = 4, 2 x0 + x1 + s1 = 6; nothing prices out at the
        // slack basis.
        let a =
            DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 1.0, 0.0, 1.0]]).unwrap();
        let (c, lb, ub) = ([-1.0, -1.0, 0.0, 0.0], [0.0; 4], [10.0; 4]);
        let view = |b| ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b,
        };
        let slack = Basis::with_basic_cols(vec![2, 3], 4);
        let accel = Accel::gpu(1);
        let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
        let crossings = || accel.stats().d2h_transfers;
        let staged = |e: &mut DeviceSimplex<M>| {
            e.install(view(&[4.0, 6.0]), &slack).unwrap();
            assert_eq!(e.primal_select(&PrimalConfig::default(), &slack), Ok(None));
        };
        // Untouched, the staged copy is served once.
        staged(&mut e);
        let before = crossings();
        assert_eq!(e.basic_values().unwrap(), vec![4.0, 6.0]);
        assert_eq!(crossings(), before);
        assert_eq!(e.basic_values().unwrap(), vec![4.0, 6.0]);
        assert_eq!(crossings(), before + 1);

        type Interloper<M> = fn(&mut DeviceSimplex<M>, &[f64]) -> LpResult<()>;
        let interlopers: [(&str, Interloper<M>, Vec<f64>); 4] = [
            (
                "install",
                |e, c| {
                    let (lb, ub) = ([0.0; 4], [10.0; 4]);
                    let view = ProblemView {
                        c,
                        lb: &lb,
                        ub: &ub,
                        b: &[3.0, 5.0],
                    };
                    e.install(view, &Basis::with_basic_cols(vec![2, 3], 4))
                },
                vec![3.0, 5.0],
            ),
            (
                "append_cut",
                |e, _| e.append_cut(&[1.0, 0.0, 0.0, 0.0], &[0.0, 0.0, 1.0]),
                vec![4.0, 6.0],
            ),
            (
                "apply",
                |e, _| {
                    // x0 runs to 1 without a basis change.
                    e.ftran_column(0)?;
                    e.apply_flip(0, 1.0, 1.0, 1.0)
                },
                vec![3.0, 4.0],
            ),
            (
                "failed select",
                |e, _| {
                    // Anything prices out, and the basis calls x0 basic.
                    let eager = PrimalConfig {
                        price_tol: -10.0,
                        ..PrimalConfig::default()
                    };
                    let wrong = Basis::with_basic_cols(vec![0, 1], 4);
                    assert!(e.primal_select(&eager, &wrong).is_err());
                    Ok(())
                },
                vec![4.0, 6.0],
            ),
        ];
        for (what, interloper, xb) in interlopers {
            // A fresh engine each time: the cut grows the one it meets.
            let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
            staged(&mut e);
            interloper(&mut e, &c).unwrap();
            let before = crossings();
            assert_eq!(e.basic_values().unwrap(), xb, "{what}");
            assert_eq!(crossings(), before + 1, "{what}: the staged x_B was served");
            assert_eq!(e.basic_values().unwrap(), xb, "{what}");
            assert_eq!(crossings(), before + 2, "{what}");
        }
    }

    /// Everything an install determines, bit for bit: `x_B`, the duals, the
    /// reduced costs, a tableau row, and the pivot path a primal solve takes
    /// from there (iterations, final basis, final `x_B`).
    fn install_fingerprint<M: Storage>(
        e: &mut DeviceSimplex<M>,
        view: ProblemView<'_>,
        basis: &Basis,
    ) -> LpResult<(Vec<Vec<u64>>, usize, Vec<usize>)> {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        e.install(view, basis)?;
        let mut vectors = vec![
            bits(e.basic_values()?),
            bits(e.dual_prices()?),
            bits(e.reduced_costs_host()?),
            bits(e.btran_row_host(basis.m() - 1)?),
        ];
        let mut basis = basis.clone();
        let (_, iterations) = primal_solve(e, view, &mut basis, &PrimalConfig::default())?;
        vectors.push(bits(e.basic_values()?));
        Ok((vectors, iterations, basis.cols))
    }

    /// `install(A)`, pivots, `append_cut`, `install(B)` on one engine against
    /// `install(B)` on an engine that has never held anything else.
    fn used_engine_installs_like_a_fresh_one<M: Storage>(
        rows: &[Vec<f64>],
        c: &[f64],
        b: &[f64],
        cut: (&[f64], f64),
    ) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
        let (m, n) = (rows.len(), rows[0].len());
        // [A | I], columns boxed so no direction is unbounded.
        let mut a = DenseMatrix::from_rows(rows).unwrap();
        for i in 0..m {
            let mut slack = vec![0.0; m];
            slack[i] = 1.0;
            a.push_col(&slack).unwrap();
        }
        let mut c = c.to_vec();
        c.resize(n + m, 0.0);
        let (mut lb, mut ub, mut b) = (vec![0.0; n + m], vec![8.0; n + m], b.to_vec());
        ub[n..].fill(f64::INFINITY);
        let view_a = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let slack_basis = Basis::with_basic_cols((n..n + m).collect(), n + m);

        let mut used = DeviceSimplex::<M>::new(Accel::gpu(1), &a).unwrap();
        let mut basis = slack_basis.clone();
        used.install(view_a, &basis).unwrap();
        primal_solve(&mut used, view_a, &mut basis, &PrimalConfig::default()).unwrap();
        // Leave an unconsumed FTRAN column and BTRAN row behind as well.
        used.ftran_column(0).unwrap();
        used.btran_row(0).unwrap();

        // The cut row over the structural columns, its slack basic in the
        // new row; B is the grown problem from the slack basis.
        let mut row = cut.0.to_vec();
        row.resize(n + m, 0.0);
        let mut slack = vec![0.0; m + 1];
        slack[m] = 1.0;
        used.append_cut(&row, &slack).unwrap();
        a.push_row(&row).unwrap();
        a.push_col(&slack).unwrap();
        c.push(0.0);
        lb.push(0.0);
        ub.push(f64::INFINITY);
        b.push(cut.1);
        let view_b = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let mut basis_b = slack_basis;
        basis_b.extend_for_cuts(n + m, 1);

        let mut fresh = DeviceSimplex::<M>::new(Accel::gpu(1), &a).unwrap();
        prop_assert_eq!(
            install_fingerprint(&mut used, view_b, &basis_b),
            install_fingerprint(&mut fresh, view_b, &basis_b)
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Resident buffers cannot resurrect stale state: whatever an engine
        /// held before — longer or shorter vectors, an eta file full of
        /// updates, unconsumed α and α_r — a later install reads none of it.
        #[test]
        fn used_engines_install_like_fresh_ones(
            (rows, c, b, cut) in (1usize..4, 2usize..6).prop_flat_map(|(m, n)| {
                let entry = || (-4i32..9).prop_map(|v| f64::from(v) / 2.0);
                (
                    proptest::collection::vec(proptest::collection::vec(entry(), n), m),
                    proptest::collection::vec(entry(), n),
                    proptest::collection::vec((1i32..20).prop_map(f64::from), m),
                    (proptest::collection::vec(entry(), n), (1i32..12).prop_map(f64::from)),
                )
            })
        ) {
            used_engine_installs_like_a_fresh_one::<MatrixHandle>(&rows, &c, &b, (&cut.0, cut.1))?;
            used_engine_installs_like_a_fresh_one::<SparseHandle>(&rows, &c, &b, (&cut.0, cut.1))?;
        }
    }

    macro_rules! storage_suite {
        ($name:ident, $storage:ty) => {
            mod $name {
                use super::*;

                #[test]
                fn solves_textbook_lp() {
                    super::solves_textbook_lp::<$storage>();
                }

                #[test]
                fn matches_host_pivot_for_pivot() {
                    super::matches_host_pivot_for_pivot::<$storage>();
                }

                #[test]
                fn warm_resolves_and_cuts() {
                    super::warm_resolves_and_cuts::<$storage>();
                }

                #[test]
                fn frees_memory_on_drop() {
                    super::frees_memory_on_drop::<$storage>();
                }

                #[test]
                fn failed_installs_leak_nothing() {
                    super::failed_installs_leak_nothing::<$storage>();
                }

                #[test]
                fn consumed_vectors_stay_consumed() {
                    super::consumed_vectors_stay_consumed::<$storage>();
                }

                #[test]
                fn bad_pivot_plans_change_nothing() {
                    super::bad_pivot_plans_change_nothing::<$storage>();
                }

                #[test]
                fn a_pivot_is_one_launch() {
                    super::a_pivot_is_one_launch::<$storage>();
                }

                #[test]
                fn a_staged_x_b_is_never_stale() {
                    super::a_staged_x_b_is_never_stale::<$storage>();
                }
            }
        };
    }
    storage_suite!(dense, MatrixHandle);
    storage_suite!(csr, SparseHandle);

    #[test]
    fn csr_transfers_scale_with_nnz_not_size() {
        // A very sparse instance: uploading CSR must move far fewer bytes
        // than the dense extended matrix would.
        let mip = set_cover(40, 40, 0.05, 9);
        let std = StandardLp::from_instance(&mip, &[]);
        let dense_bytes = (std.m() * (std.n() + std.m()) * 8) as u64;
        let accel = Accel::gpu(1);
        let _solver = device_solver::<SparseHandle>(std, accel.clone());
        let uploaded = accel.stats().h2d_bytes;
        assert!(
            uploaded < dense_bytes / 2,
            "CSR upload {uploaded} B vs dense {dense_bytes} B"
        );
    }
}
