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
//! * per iteration, only O(1) scalars (argmin results, pivot values) cross
//!   the link — "rank-1 updates and resolving the updated matrix repeatedly
//!   with no data transfer from host to device or vice versa";
//! * per basis **install** (node start, refactorization), only small
//!   vectors (`c`, `b`, statuses, basic bounds) are uploaded.
//!
//! There is one orchestration, [`DeviceSimplex`], and two kernel sets under
//! it — Section 5.4's "two different MIP solver versions" reduced to a
//! storage parameter. [`MatrixStorage`] names exactly the operations that
//! touch the matrix or the factored basis; it is implemented for a dense
//! device matrix ([`DeviceEngine`]: work and transfers proportional to
//! `m·n`, dense LU) and for a CSR one ([`SparseDeviceEngine`]: proportional
//! to `nnz`, charged at the device's much lower sparse throughput, sparse
//! LU). Everything else (the vector kernels, the ratio tests, the iteration
//! state) is written once.
//!
//! Running the same driver over [`crate::engine::HostEngine`] and either
//! storage yields identical pivots on the same problem; the difference is
//! the simulated cost ledger, which the experiments read and which lets the
//! super-solver dispatch of `gmip-core` choose a storage on cost grounds.

use crate::basis::{Basis, VarStatus};
use crate::engine::{PivotPlan, ProblemView, SimplexEngine};
use crate::{LpError, LpResult};
use gmip_gpu::device::Result as GpuResult;
use gmip_gpu::{
    Accel, EtaHandle, GpuDevice, MatrixHandle, SparseEtaHandle, SparseHandle, StreamId,
    VectorHandle, DEFAULT_STREAM,
};
use gmip_linalg::{CsrMatrix, DenseMatrix};
use std::fmt::Debug;

/// How the constraint matrix and the factored basis live on the device:
/// the operations in which a dense-resident and a CSR-resident simplex
/// differ. Each implementation keeps its own kernel sequence, kernel names
/// and cost formulas.
pub trait MatrixStorage: Copy + Debug {
    /// Handle to the factored basis (base LU plus eta updates).
    type Eta: Copy + Debug;
    /// Short name of an engine over this storage, for reports.
    const NAME: &'static str;

    /// Uploads the extended matrix in this storage's format.
    fn upload(d: &mut GpuDevice, a: &DenseMatrix, st: StreamId) -> GpuResult<Self>;
    /// Frees the matrix.
    fn free(self, d: &mut GpuDevice) -> GpuResult<()>;
    /// `b − A x`.
    fn residual(
        self,
        d: &mut GpuDevice,
        b: VectorHandle,
        x: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle>;
    /// Assembles the basis from columns `cols` and factorizes it.
    fn factor_basis(self, d: &mut GpuDevice, cols: &[usize], st: StreamId) -> GpuResult<Self::Eta>;
    /// FTRAN: solves `B x = b`.
    fn eta_ftran(
        d: &mut GpuDevice,
        eta: Self::Eta,
        b: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle>;
    /// BTRAN: solves `Bᵀ y = c`.
    fn eta_btran(
        d: &mut GpuDevice,
        eta: Self::Eta,
        c: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle>;
    /// Rank-1 basis exchange at position `r` with FTRAN image `alpha`.
    fn eta_update(
        d: &mut GpuDevice,
        eta: Self::Eta,
        r: usize,
        alpha: VectorHandle,
        st: StreamId,
    ) -> GpuResult<()>;
    /// Eta factors accumulated since the last factorization.
    fn eta_count(d: &GpuDevice, eta: Self::Eta) -> GpuResult<usize>;
    /// Frees the factored basis.
    fn eta_free(d: &mut GpuDevice, eta: Self::Eta) -> GpuResult<()>;
    /// Reduced costs `c − Aᵀ y`.
    fn pricing(
        self,
        d: &mut GpuDevice,
        y: VectorHandle,
        c: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle>;
    /// Column `j` as a dense device vector.
    fn extract_column(self, d: &mut GpuDevice, j: usize, st: StreamId) -> GpuResult<VectorHandle>;
    /// The tableau row `Aᵀ ρ`.
    fn row_times_matrix(
        self,
        d: &mut GpuDevice,
        rho: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle>;
    /// Appends a cut: `row` spans the current columns, `col` is the new
    /// slack column.
    fn append_cut(self, d: &mut GpuDevice, row: &[f64], col: &[f64], st: StreamId)
        -> GpuResult<()>;
}

impl MatrixStorage for MatrixHandle {
    type Eta = EtaHandle;
    const NAME: &'static str = "device";

    fn upload(d: &mut GpuDevice, a: &DenseMatrix, st: StreamId) -> GpuResult<Self> {
        d.upload_matrix(a, st)
    }
    fn free(self, d: &mut GpuDevice) -> GpuResult<()> {
        d.free_matrix(self)
    }
    fn residual(
        self,
        d: &mut GpuDevice,
        b: VectorHandle,
        x: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.residual(b, self, x, st)
    }
    fn factor_basis(self, d: &mut GpuDevice, cols: &[usize], st: StreamId) -> GpuResult<EtaHandle> {
        let bmat = d.gather_columns(self, cols, st)?;
        let eta = d.eta_factor(bmat, st)?;
        d.free_matrix(bmat)?;
        Ok(eta)
    }
    fn eta_ftran(
        d: &mut GpuDevice,
        eta: EtaHandle,
        b: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.eta_ftran(eta, b, st)
    }
    fn eta_btran(
        d: &mut GpuDevice,
        eta: EtaHandle,
        c: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.eta_btran(eta, c, st)
    }
    fn eta_update(
        d: &mut GpuDevice,
        eta: EtaHandle,
        r: usize,
        alpha: VectorHandle,
        st: StreamId,
    ) -> GpuResult<()> {
        d.eta_update(eta, r, alpha, st)
    }
    fn eta_count(d: &GpuDevice, eta: EtaHandle) -> GpuResult<usize> {
        d.eta_count(eta)
    }
    fn eta_free(d: &mut GpuDevice, eta: EtaHandle) -> GpuResult<()> {
        d.free_eta(eta)
    }
    fn pricing(
        self,
        d: &mut GpuDevice,
        y: VectorHandle,
        c: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.pricing(self, y, c, st)
    }
    fn extract_column(self, d: &mut GpuDevice, j: usize, st: StreamId) -> GpuResult<VectorHandle> {
        d.extract_column(self, j, st)
    }
    fn row_times_matrix(
        self,
        d: &mut GpuDevice,
        rho: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.gemv_transposed(self, rho, st)
    }
    fn append_cut(
        self,
        d: &mut GpuDevice,
        row: &[f64],
        col: &[f64],
        st: StreamId,
    ) -> GpuResult<()> {
        d.append_row(self, row, st)?;
        d.append_column(self, col, st)
    }
}

impl MatrixStorage for SparseHandle {
    type Eta = SparseEtaHandle;
    const NAME: &'static str = "device-sparse";

    fn upload(d: &mut GpuDevice, a: &DenseMatrix, st: StreamId) -> GpuResult<Self> {
        d.upload_sparse(&CsrMatrix::from_dense(a), st)
    }
    fn free(self, d: &mut GpuDevice) -> GpuResult<()> {
        d.free_sparse(self)
    }
    fn residual(
        self,
        d: &mut GpuDevice,
        b: VectorHandle,
        x: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.residual_sparse(b, self, x, st)
    }
    fn factor_basis(
        self,
        d: &mut GpuDevice,
        cols: &[usize],
        st: StreamId,
    ) -> GpuResult<SparseEtaHandle> {
        d.sparse_eta_factor(self, cols, st)
    }
    fn eta_ftran(
        d: &mut GpuDevice,
        eta: SparseEtaHandle,
        b: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.sparse_eta_ftran(eta, b, st)
    }
    fn eta_btran(
        d: &mut GpuDevice,
        eta: SparseEtaHandle,
        c: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.sparse_eta_btran(eta, c, st)
    }
    fn eta_update(
        d: &mut GpuDevice,
        eta: SparseEtaHandle,
        r: usize,
        alpha: VectorHandle,
        st: StreamId,
    ) -> GpuResult<()> {
        d.sparse_eta_update(eta, r, alpha, st)
    }
    fn eta_count(d: &GpuDevice, eta: SparseEtaHandle) -> GpuResult<usize> {
        d.sparse_eta_count(eta)
    }
    fn eta_free(d: &mut GpuDevice, eta: SparseEtaHandle) -> GpuResult<()> {
        d.free_sparse_eta(eta)
    }
    fn pricing(
        self,
        d: &mut GpuDevice,
        y: VectorHandle,
        c: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.pricing_sparse(self, y, c, st)
    }
    fn extract_column(self, d: &mut GpuDevice, j: usize, st: StreamId) -> GpuResult<VectorHandle> {
        d.extract_column_sparse(self, j, st)
    }
    fn row_times_matrix(
        self,
        d: &mut GpuDevice,
        rho: VectorHandle,
        st: StreamId,
    ) -> GpuResult<VectorHandle> {
        d.spmv_transposed(self, rho, st)
    }
    fn append_cut(
        self,
        d: &mut GpuDevice,
        row: &[f64],
        _col: &[f64],
        st: StreamId,
    ) -> GpuResult<()> {
        // Sparse form: the cut row's nonzeros plus its slack at the new
        // column index (= current column count).
        let mut entries: Vec<(usize, f64)> = row
            .iter()
            .enumerate()
            .filter(|(_, v)| v.abs() > 1e-12)
            .map(|(j, &v)| (j, v))
            .collect();
        entries.push((row.len(), 1.0));
        d.append_row_sparse(self, &entries, row.len() + 1, st)
    }
}

/// Simplex engine whose numerical state lives on a simulated accelerator,
/// with the matrix held as `M`.
#[derive(Debug)]
pub struct DeviceSimplex<M: MatrixStorage> {
    accel: Accel,
    a: M,
    stream: StreamId,
    m: usize,
    n: usize,
    // Host copies needed for install-time assembly and fixed-column checks.
    lb: Vec<f64>,
    ub: Vec<f64>,
    // Device-resident iteration state.
    c: Option<VectorHandle>,
    b: Option<VectorHandle>,
    sigma: Option<VectorHandle>,
    cb: Option<VectorHandle>,
    lbb: Option<VectorHandle>,
    ubb: Option<VectorHandle>,
    xb: Option<VectorHandle>,
    eta: Option<M::Eta>,
    gamma: Option<VectorHandle>,
    alpha: Option<VectorHandle>,
    alpha_r: Option<VectorHandle>,
    /// Host staging buffers for the per-install uploads (σ, nonbasic
    /// values, and one basis-ordered gather), kept across installs so a warm
    /// re-solve stages without allocating.
    stage: [Vec<f64>; 3],
}

/// The dense-resident engine: dense kernels, dense LU under the eta file.
pub type DeviceEngine = DeviceSimplex<MatrixHandle>;

/// The CSR-resident engine: sparse kernels, sparse LU under the eta file.
pub type SparseDeviceEngine = DeviceSimplex<SparseHandle>;

impl<M: MatrixStorage> DeviceSimplex<M> {
    /// Uploads the extended matrix to the accelerator and builds an engine
    /// on the default stream.
    pub fn new(accel: Accel, a: &DenseMatrix) -> LpResult<Self> {
        Self::new_on_stream(accel, a, DEFAULT_STREAM)
    }

    /// Uploads the matrix and binds every subsequent operation to `stream`
    /// — the Section 5.5 mechanism that lets several engines share one
    /// device with overlapping execution.
    pub fn new_on_stream(accel: Accel, a: &DenseMatrix, stream: StreamId) -> LpResult<Self> {
        let handle = accel.with(|d| M::upload(d, a, stream))?;
        Ok(Self {
            accel,
            a: handle,
            stream,
            m: a.rows(),
            n: a.cols(),
            lb: Vec::new(),
            ub: Vec::new(),
            c: None,
            b: None,
            sigma: None,
            cb: None,
            lbb: None,
            ubb: None,
            xb: None,
            eta: None,
            gamma: None,
            alpha: None,
            alpha_r: None,
            stage: Default::default(),
        })
    }

    /// The accelerator this engine runs on (for stats queries).
    pub fn accel(&self) -> &Accel {
        &self.accel
    }

    fn with_dev<R>(&self, f: impl FnOnce(&mut GpuDevice) -> GpuResult<R>) -> LpResult<R> {
        self.accel.with(f).map_err(LpError::from)
    }

    /// Frees a superseded vector inside the caller's device closure (one
    /// lock for the kernel and its cleanup). Best-effort: a handle could be
    /// gone only via engine bugs.
    fn release(d: &mut GpuDevice, h: Option<VectorHandle>) {
        if let Some(h) = h {
            let _ = d.free_vector(h);
        }
    }

    fn clear_iteration_state(&mut self) {
        let handles = [
            self.c.take(),
            self.b.take(),
            self.sigma.take(),
            self.cb.take(),
            self.lbb.take(),
            self.ubb.take(),
            self.xb.take(),
            self.gamma.take(),
            self.alpha.take(),
            self.alpha_r.take(),
        ];
        let eta = self.eta.take();
        // Best-effort cleanup under one lock: a handle could be gone only
        // via engine bugs, so failures are ignored.
        self.accel.with(|d| {
            for h in handles.into_iter().flatten() {
                let _ = d.free_vector(h);
            }
            if let Some(e) = eta {
                let _ = M::eta_free(d, e);
            }
        });
    }

    fn eta(&self) -> LpResult<M::Eta> {
        self.eta.ok_or(LpError::NotInstalled)
    }

    fn req(&self, h: Option<VectorHandle>) -> LpResult<VectorHandle> {
        h.ok_or(LpError::NotInstalled)
    }
}

impl<M: MatrixStorage> Drop for DeviceSimplex<M> {
    fn drop(&mut self) {
        self.clear_iteration_state();
        let _ = self.accel.with(|d| self.a.free(d));
    }
}

impl<M: MatrixStorage> SimplexEngine for DeviceSimplex<M> {
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
        self.clear_iteration_state();
        self.lb.clear();
        self.lb.extend_from_slice(view.lb);
        self.ub.clear();
        self.ub.extend_from_slice(view.ub);

        // Host-side assembly of the small per-install vectors.
        let [mut sigma, mut x_nb, mut basic] = std::mem::take(&mut self.stage);
        for buf in [&mut sigma, &mut x_nb] {
            buf.clear();
            buf.resize(self.n, 0.0);
        }
        for (j, s) in basis.status.iter().enumerate() {
            match s {
                VarStatus::Basic(_) => {}
                VarStatus::AtLower => {
                    x_nb[j] = view.lb[j];
                    sigma[j] = if view.lb[j] == view.ub[j] { 0.0 } else { -1.0 };
                }
                VarStatus::AtUpper => {
                    x_nb[j] = view.ub[j];
                    sigma[j] = if view.lb[j] == view.ub[j] { 0.0 } else { 1.0 };
                }
            }
            if !matches!(s, VarStatus::Basic(_)) && !x_nb[j].is_finite() {
                return Err(LpError::FreeVariable(j));
            }
        }
        // Basis-ordered gather of a column vector into the staging buffer.
        let cols = &basis.cols;
        let gather = |buf: &mut Vec<f64>, src: &[f64]| {
            buf.clear();
            buf.extend(cols.iter().map(|&j| src[j]));
        };

        let a = self.a;
        let (c_h, b_h, sigma_h, cb_h, lbb_h, ubb_h, eta_h, xb_h) = self.with_dev(|d| {
            let c_h = d.upload_vector(view.c, st)?;
            let b_h = d.upload_vector(view.b, st)?;
            let sigma_h = d.upload_vector(&sigma, st)?;
            gather(&mut basic, view.c);
            let cb_h = d.upload_vector(&basic, st)?;
            gather(&mut basic, view.lb);
            let lbb_h = d.upload_vector(&basic, st)?;
            gather(&mut basic, view.ub);
            let ubb_h = d.upload_vector(&basic, st)?;
            // Residual w = b − A x_nb, fully on device.
            let xnb_h = d.upload_vector(&x_nb, st)?;
            let w = a.residual(d, b_h, xnb_h, st)?;
            // Basis assembly + factorization, on device.
            let eta_h = a.factor_basis(d, cols, st)?;
            let xb_h = M::eta_ftran(d, eta_h, w, st)?;
            d.free_vector(w)?;
            d.free_vector(xnb_h)?;
            Ok((c_h, b_h, sigma_h, cb_h, lbb_h, ubb_h, eta_h, xb_h))
        })?;
        self.c = Some(c_h);
        self.b = Some(b_h);
        self.sigma = Some(sigma_h);
        self.cb = Some(cb_h);
        self.lbb = Some(lbb_h);
        self.ubb = Some(ubb_h);
        self.eta = Some(eta_h);
        self.xb = Some(xb_h);
        // Devex reference weights start at one; σ's staging buffer has the
        // right length and is no longer needed.
        sigma.fill(1.0);
        let g = self.with_dev(|d| d.upload_vector(&sigma, st))?;
        self.gamma = Some(g);
        self.stage = [sigma, x_nb, basic];
        Ok(())
    }

    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        let st = self.stream;
        let a = self.a;
        self.with_dev(|d| a.append_cut(d, row, col, st))?;
        self.m += 1;
        self.n += 1;
        Ok(())
    }

    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        let st = self.stream;
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        let c = self.req(self.c)?;
        let sigma = self.req(self.sigma)?;
        let a = self.a;
        self.with_dev(|d| {
            let y = M::eta_btran(d, eta, cb, st)?;
            let dvec = a.pricing(d, y, c, st)?;
            let score = d.vec_mul(dvec, sigma, st)?;
            let best = d.argmin_masked(score, sigma, st)?;
            d.free_vector(y)?;
            d.free_vector(dvec)?;
            d.free_vector(score)?;
            Ok(best)
        })
    }

    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        let st = self.stream;
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        let c = self.req(self.c)?;
        let a = self.a;
        self.with_dev(|d| {
            let y = M::eta_btran(d, eta, cb, st)?;
            let dvec = a.pricing(d, y, c, st)?;
            // Honest full-vector D2H transfer (the Bland fallback's cost).
            let out = d.download_vector(dvec, st)?;
            d.free_vector(y)?;
            d.free_vector(dvec)?;
            Ok(out)
        })
    }

    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        let st = self.stream;
        let eta = self.eta()?;
        let a = self.a;
        let old = self.alpha;
        let alpha = self.with_dev(|d| {
            let col = a.extract_column(d, q, st)?;
            let alpha = M::eta_ftran(d, eta, col, st)?;
            d.free_vector(col)?;
            Self::release(d, old);
            Ok(alpha)
        })?;
        self.alpha = Some(alpha);
        Ok(())
    }

    fn alpha_entry(&mut self, i: usize) -> LpResult<f64> {
        let st = self.stream;
        let alpha = self.req(self.alpha)?;
        self.with_dev(|d| d.vec_get(alpha, i, st))
    }

    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let st = self.stream;
        let xb = self.req(self.xb)?;
        let alpha = self.req(self.alpha)?;
        let lbb = self.req(self.lbb)?;
        let ubb = self.req(self.ubb)?;
        self.with_dev(|d| d.ratio_test_bounded(xb, alpha, lbb, ubb, dir, tol, st))
    }

    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        let st = self.stream;
        let xb = self.req(self.xb)?;
        let alpha = self.req(self.alpha)?;
        let sigma = self.req(self.sigma)?;
        self.with_dev(|d| {
            d.basic_step(xb, alpha, dir, t, None, st)?;
            d.vec_set(sigma, q, new_sigma, st)
        })
    }

    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        let st = self.stream;
        let xb = self.req(self.xb)?;
        let alpha = self.req(self.alpha)?;
        let sigma = self.req(self.sigma)?;
        let cb = self.req(self.cb)?;
        let lbb = self.req(self.lbb)?;
        let ubb = self.req(self.ubb)?;
        let eta = self.eta()?;
        let old_ar = self.alpha_r;
        let leaving_sigma = if self.lb[plan.leaving_j] == self.ub[plan.leaving_j] {
            0.0
        } else {
            plan.leaving_sigma
        };
        self.with_dev(|d| {
            d.basic_step(
                xb,
                alpha,
                plan.dir,
                plan.t,
                Some((plan.r, plan.entering_val)),
                st,
            )?;
            M::eta_update(d, eta, plan.r, alpha, st)?;
            d.vec_set(sigma, plan.leaving_j, leaving_sigma, st)?;
            d.vec_set(sigma, plan.q, 0.0, st)?;
            d.vec_set(cb, plan.r, plan.c_q, st)?;
            d.vec_set(lbb, plan.r, plan.lb_q, st)?;
            d.vec_set(ubb, plan.r, plan.ub_q, st)?;
            // The pivot consumed α (and the Devex row, if any).
            Self::release(d, Some(alpha));
            Self::release(d, old_ar);
            Ok(())
        })?;
        self.alpha = None;
        self.alpha_r = None;
        Ok(())
    }

    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        let st = self.stream;
        let xb = self.req(self.xb)?;
        self.with_dev(|d| d.download_vector(xb, st))
    }

    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        let st = self.stream;
        let xb = self.req(self.xb)?;
        self.with_dev(|d| d.vec_get(xb, i, st))
    }

    fn eta_count(&self) -> usize {
        match self.eta {
            Some(e) => self.accel.with(|d| M::eta_count(d, e)).unwrap_or(0),
            None => 0,
        }
    }

    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let st = self.stream;
        let xb = self.req(self.xb)?;
        let lbb = self.req(self.lbb)?;
        let ubb = self.req(self.ubb)?;
        self.with_dev(|d| d.primal_infeas_argmax(xb, lbb, ubb, tol, st))
    }

    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        let st = self.stream;
        let eta = self.eta()?;
        let a = self.a;
        let m = self.m;
        let old = self.alpha_r;
        let ar = self.with_dev(|d| {
            let e = d.alloc_unit_vector(m, r, st)?;
            let rho = M::eta_btran(d, eta, e, st)?;
            let ar = a.row_times_matrix(d, rho, st)?;
            d.free_vector(e)?;
            d.free_vector(rho)?;
            Self::release(d, old);
            Ok(ar)
        })?;
        self.alpha_r = Some(ar);
        Ok(())
    }

    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        let st = self.stream;
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        let c = self.req(self.c)?;
        let sigma = self.req(self.sigma)?;
        let ar = self.req(self.alpha_r)?;
        let a = self.a;
        self.with_dev(|d| {
            let y = M::eta_btran(d, eta, cb, st)?;
            let dvec = a.pricing(d, y, c, st)?;
            let best = d.dual_ratio_argmin(dvec, ar, sigma, leaving_below, tol, st)?;
            d.free_vector(y)?;
            d.free_vector(dvec)?;
            Ok(best)
        })
    }

    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        let st = self.stream;
        let ar = self.req(self.alpha_r)?;
        self.with_dev(|d| d.vec_get(ar, j, st))
    }

    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        let st = self.stream;
        self.btran_row(r)?;
        let ar = self.req(self.alpha_r)?;
        // The Section 5.2 device→host leg: the tableau row crosses the link
        // so the CPU-side cut generator can read it.
        self.with_dev(|d| d.download_vector(ar, st))
    }

    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        let st = self.stream;
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        self.with_dev(|d| {
            let y = M::eta_btran(d, eta, cb, st)?;
            let out = d.download_vector(y, st)?;
            d.free_vector(y)?;
            Ok(out)
        })
    }

    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        let st = self.stream;
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        let c = self.req(self.c)?;
        let sigma = self.req(self.sigma)?;
        let gamma = self.req(self.gamma)?;
        let a = self.a;
        self.with_dev(|d| {
            let y = M::eta_btran(d, eta, cb, st)?;
            let dvec = a.pricing(d, y, c, st)?;
            let best = d.devex_argmax(dvec, sigma, gamma, 0.0, st)?;
            d.free_vector(y)?;
            d.free_vector(dvec)?;
            Ok(best)
        })
    }

    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        let st = self.stream;
        let ar = self.req(self.alpha_r)?;
        let gamma = self.req(self.gamma)?;
        let (arq, gamma_q) = self.with_dev(|d| {
            let arq = d.vec_get(ar, q, st)?;
            let gq = d.vec_get(gamma, q, st)?;
            Ok((arq, gq))
        })?;
        if arq.abs() < 1e-12 {
            return Err(LpError::Shape("devex update with zero pivot".into()));
        }
        self.with_dev(|d| {
            d.devex_weight_update(gamma, ar, arq, gamma_q, st)?;
            d.vec_set(gamma, leaving_j, (gamma_q / (arq * arq)).max(1.0), st)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HostEngine;
    use crate::problem::{BoundChange, StandardLp};
    use crate::solver::{LpConfig, LpSolver, LpStatus};
    use gmip_problems::catalog::{textbook_lp, textbook_mip};
    use gmip_problems::generators::{knapsack, set_cover, unit_commitment};

    fn device_solver<M: MatrixStorage + 'static>(
        std: StandardLp,
        accel: Accel,
    ) -> LpSolver<DeviceSimplex<M>> {
        LpSolver::new(std, LpConfig::standard(), |a| {
            DeviceSimplex::new(accel, a).expect("device upload")
        })
    }

    fn solves_textbook_lp<M: MatrixStorage + 'static>() {
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

    fn matches_host_pivot_for_pivot<M: MatrixStorage + 'static>() {
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

    fn warm_resolves_and_cuts<M: MatrixStorage + 'static>() {
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

    fn frees_memory_on_drop<M: MatrixStorage + 'static>() {
        let accel = Accel::gpu(1);
        {
            let std = StandardLp::from_instance(&textbook_lp(), &[]);
            let mut solver = device_solver::<M>(std, accel.clone());
            solver.solve().unwrap();
            assert!(accel.mem_used() > 0);
        }
        assert_eq!(accel.mem_used(), 0, "engine leaked device memory");
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
