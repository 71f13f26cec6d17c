//! The sparse accelerator-resident simplex engine — the second half of
//! Section 5.4's "two different MIP solver versions".
//!
//! Identical orchestration to [`crate::device_engine::DeviceEngine`], but
//! the constraint matrix lives on the device in **CSR** form and every
//! matrix-touching kernel (pricing, residual, column extraction, basis
//! factorization) runs through the sparse kernel set: work proportional to
//! `nnz` instead of `m·n`, charged at the device's (much lower) sparse
//! throughput, and transfers proportional to `nnz`. The basis is held as a
//! sparse LU (GLU-class) plus eta updates.
//!
//! The dense and sparse engines take identical pivot paths on the same
//! problem — only the simulated cost ledger differs — which is what lets
//! the super-solver dispatch of `gmip-core` choose between them purely on
//! cost grounds.

use crate::basis::{Basis, VarStatus};
use crate::engine::{PivotPlan, ProblemView, SimplexEngine};
use crate::{LpError, LpResult};
use gmip_gpu::{
    Accel, GpuDevice, SparseEtaHandle, SparseHandle, VectorHandle, DEFAULT_STREAM as S,
};
use gmip_linalg::{CsrMatrix, DenseMatrix};

/// Simplex engine with a CSR-resident matrix and sparse basis kernels.
#[derive(Debug)]
pub struct SparseDeviceEngine {
    accel: Accel,
    a: SparseHandle,
    m: usize,
    n: usize,
    lb: Vec<f64>,
    ub: Vec<f64>,
    basis_cols: Vec<usize>,
    c: Option<VectorHandle>,
    b: Option<VectorHandle>,
    sigma: Option<VectorHandle>,
    cb: Option<VectorHandle>,
    lbb: Option<VectorHandle>,
    ubb: Option<VectorHandle>,
    xb: Option<VectorHandle>,
    eta: Option<SparseEtaHandle>,
    gamma: Option<VectorHandle>,
    alpha: Option<VectorHandle>,
    alpha_r: Option<VectorHandle>,
    /// Host staging buffers for the per-install uploads (σ, nonbasic
    /// values, and one basis-ordered gather), kept across installs so a warm
    /// re-solve stages without allocating.
    stage: [Vec<f64>; 3],
}

impl SparseDeviceEngine {
    /// Uploads the extended matrix (converted to CSR) to the accelerator.
    pub fn new(accel: Accel, a: &DenseMatrix) -> LpResult<Self> {
        let csr = CsrMatrix::from_dense(a);
        let handle = accel.with(|d| d.upload_sparse(&csr, S))?;
        Ok(Self {
            accel,
            a: handle,
            m: a.rows(),
            n: a.cols(),
            lb: Vec::new(),
            ub: Vec::new(),
            basis_cols: Vec::new(),
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

    /// The accelerator this engine runs on.
    pub fn accel(&self) -> &Accel {
        &self.accel
    }

    fn with_dev<R>(
        &self,
        f: impl FnOnce(&mut GpuDevice) -> Result<R, gmip_gpu::GpuError>,
    ) -> LpResult<R> {
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
                let _ = d.free_sparse_eta(e);
            }
        });
    }

    fn eta(&self) -> LpResult<SparseEtaHandle> {
        self.eta.ok_or(LpError::NotInstalled)
    }

    fn req(&self, h: Option<VectorHandle>) -> LpResult<VectorHandle> {
        h.ok_or(LpError::NotInstalled)
    }
}

impl Drop for SparseDeviceEngine {
    fn drop(&mut self) {
        self.clear_iteration_state();
        let _ = self.accel.with(|d| d.free_sparse(self.a));
    }
}

impl SimplexEngine for SparseDeviceEngine {
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
        if view.c.len() != self.n || view.b.len() != self.m {
            return Err(LpError::Shape(format!(
                "sparse install: engine {}x{}, view c={} b={}",
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
        self.basis_cols.clone_from(&basis.cols);

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
            let c_h = d.upload_vector(view.c, S)?;
            let b_h = d.upload_vector(view.b, S)?;
            let sigma_h = d.upload_vector(&sigma, S)?;
            gather(&mut basic, view.c);
            let cb_h = d.upload_vector(&basic, S)?;
            gather(&mut basic, view.lb);
            let lbb_h = d.upload_vector(&basic, S)?;
            gather(&mut basic, view.ub);
            let ubb_h = d.upload_vector(&basic, S)?;
            let xnb_h = d.upload_vector(&x_nb, S)?;
            let w = d.residual_sparse(b_h, a, xnb_h, S)?;
            let eta_h = d.sparse_eta_factor(a, cols, S)?;
            let xb_h = d.sparse_eta_ftran(eta_h, w, S)?;
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
        let g = self.with_dev(|d| d.upload_vector(&sigma, S))?;
        self.gamma = Some(g);
        self.stage = [sigma, x_nb, basic];
        Ok(())
    }

    fn append_cut(&mut self, row: &[f64], _col: &[f64]) -> LpResult<()> {
        // Sparse form: the cut row's nonzeros plus its slack at the new
        // column index (= current n).
        let mut entries: Vec<(usize, f64)> = row
            .iter()
            .enumerate()
            .filter(|(_, v)| v.abs() > 1e-12)
            .map(|(j, &v)| (j, v))
            .collect();
        entries.push((self.n, 1.0));
        let a = self.a;
        let new_cols = self.n + 1;
        self.with_dev(|d| d.append_row_sparse(a, &entries, new_cols, S))?;
        self.m += 1;
        self.n += 1;
        Ok(())
    }

    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        let c = self.req(self.c)?;
        let sigma = self.req(self.sigma)?;
        let a = self.a;
        self.with_dev(|d| {
            let y = d.sparse_eta_btran(eta, cb, S)?;
            let dvec = d.pricing_sparse(a, y, c, S)?;
            let score = d.vec_mul(dvec, sigma, S)?;
            let best = d.argmin_masked(score, sigma, S)?;
            d.free_vector(y)?;
            d.free_vector(dvec)?;
            d.free_vector(score)?;
            Ok(best)
        })
    }

    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        let c = self.req(self.c)?;
        let a = self.a;
        self.with_dev(|d| {
            let y = d.sparse_eta_btran(eta, cb, S)?;
            let dvec = d.pricing_sparse(a, y, c, S)?;
            let out = d.download_vector(dvec, S)?;
            d.free_vector(y)?;
            d.free_vector(dvec)?;
            Ok(out)
        })
    }

    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        let eta = self.eta()?;
        let a = self.a;
        let old = self.alpha;
        let alpha = self.with_dev(|d| {
            let col = d.extract_column_sparse(a, q, S)?;
            let alpha = d.sparse_eta_ftran(eta, col, S)?;
            d.free_vector(col)?;
            Self::release(d, old);
            Ok(alpha)
        })?;
        self.alpha = Some(alpha);
        Ok(())
    }

    fn alpha_entry(&mut self, i: usize) -> LpResult<f64> {
        let alpha = self.req(self.alpha)?;
        self.with_dev(|d| d.vec_get(alpha, i, S))
    }

    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let xb = self.req(self.xb)?;
        let alpha = self.req(self.alpha)?;
        let lbb = self.req(self.lbb)?;
        let ubb = self.req(self.ubb)?;
        self.with_dev(|d| d.ratio_test_bounded(xb, alpha, lbb, ubb, dir, tol, S))
    }

    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        let xb = self.req(self.xb)?;
        let alpha = self.req(self.alpha)?;
        let sigma = self.req(self.sigma)?;
        self.with_dev(|d| {
            d.basic_step(xb, alpha, dir, t, None, S)?;
            d.vec_set(sigma, q, new_sigma, S)
        })
    }

    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
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
                S,
            )?;
            d.sparse_eta_update(eta, plan.r, alpha, S)?;
            d.vec_set(sigma, plan.leaving_j, leaving_sigma, S)?;
            d.vec_set(sigma, plan.q, 0.0, S)?;
            d.vec_set(cb, plan.r, plan.c_q, S)?;
            d.vec_set(lbb, plan.r, plan.lb_q, S)?;
            d.vec_set(ubb, plan.r, plan.ub_q, S)?;
            // The pivot consumed α (and the Devex row, if any).
            Self::release(d, Some(alpha));
            Self::release(d, old_ar);
            Ok(())
        })?;
        self.alpha = None;
        self.alpha_r = None;
        self.basis_cols[plan.r] = plan.q;
        Ok(())
    }

    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        let xb = self.req(self.xb)?;
        self.with_dev(|d| d.download_vector(xb, S))
    }

    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        let xb = self.req(self.xb)?;
        self.with_dev(|d| d.vec_get(xb, i, S))
    }

    fn eta_count(&self) -> usize {
        match self.eta {
            Some(e) => self.accel.with(|d| d.sparse_eta_count(e)).unwrap_or(0),
            None => 0,
        }
    }

    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let xb = self.req(self.xb)?;
        let lbb = self.req(self.lbb)?;
        let ubb = self.req(self.ubb)?;
        self.with_dev(|d| d.primal_infeas_argmax(xb, lbb, ubb, tol, S))
    }

    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        let eta = self.eta()?;
        let a = self.a;
        let m = self.m;
        let old = self.alpha_r;
        let ar = self.with_dev(|d| {
            let e = d.alloc_unit_vector(m, r, S)?;
            let rho = d.sparse_eta_btran(eta, e, S)?;
            let ar = d.spmv_transposed(a, rho, S)?;
            d.free_vector(e)?;
            d.free_vector(rho)?;
            Self::release(d, old);
            Ok(ar)
        })?;
        self.alpha_r = Some(ar);
        Ok(())
    }

    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        let c = self.req(self.c)?;
        let sigma = self.req(self.sigma)?;
        let ar = self.req(self.alpha_r)?;
        let a = self.a;
        self.with_dev(|d| {
            let y = d.sparse_eta_btran(eta, cb, S)?;
            let dvec = d.pricing_sparse(a, y, c, S)?;
            let best = d.dual_ratio_argmin(dvec, ar, sigma, leaving_below, tol, S)?;
            d.free_vector(y)?;
            d.free_vector(dvec)?;
            Ok(best)
        })
    }

    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        let ar = self.req(self.alpha_r)?;
        self.with_dev(|d| d.vec_get(ar, j, S))
    }

    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.btran_row(r)?;
        let ar = self.req(self.alpha_r)?;
        self.with_dev(|d| d.download_vector(ar, S))
    }

    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        self.with_dev(|d| {
            let y = d.sparse_eta_btran(eta, cb, S)?;
            let out = d.download_vector(y, S)?;
            d.free_vector(y)?;
            Ok(out)
        })
    }

    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        let eta = self.eta()?;
        let cb = self.req(self.cb)?;
        let c = self.req(self.c)?;
        let sigma = self.req(self.sigma)?;
        let gamma = self.req(self.gamma)?;
        let a = self.a;
        self.with_dev(|d| {
            let y = d.sparse_eta_btran(eta, cb, S)?;
            let dvec = d.pricing_sparse(a, y, c, S)?;
            let best = d.devex_argmax(dvec, sigma, gamma, 0.0, S)?;
            d.free_vector(y)?;
            d.free_vector(dvec)?;
            Ok(best)
        })
    }

    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        let ar = self.req(self.alpha_r)?;
        let gamma = self.req(self.gamma)?;
        let (arq, gamma_q) = self.with_dev(|d| {
            let arq = d.vec_get(ar, q, S)?;
            let gq = d.vec_get(gamma, q, S)?;
            Ok((arq, gq))
        })?;
        if arq.abs() < 1e-12 {
            return Err(LpError::Shape("devex update with zero pivot".into()));
        }
        self.with_dev(|d| {
            d.devex_weight_update(gamma, ar, arq, gamma_q, S)?;
            d.vec_set(gamma, leaving_j, (gamma_q / (arq * arq)).max(1.0), S)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HostEngine;
    use crate::problem::StandardLp;
    use crate::solver::{LpConfig, LpSolver, LpStatus};
    use gmip_problems::catalog::{textbook_lp, textbook_mip};
    use gmip_problems::generators::{set_cover, unit_commitment};

    fn sparse_solver(std: StandardLp, accel: Accel) -> LpSolver<SparseDeviceEngine> {
        LpSolver::new(std, LpConfig::standard(), |a| {
            SparseDeviceEngine::new(accel, a).expect("sparse upload")
        })
    }

    #[test]
    fn sparse_engine_solves_textbook_lp() {
        let accel = Accel::gpu(1);
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut solver = sparse_solver(std, accel.clone());
        let sol = solver.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 21.0).abs() < 1e-7);
        // All matrix kernels were sparse-path: flops charged at the sparse
        // rate show up in the ledger.
        assert!(accel.stats().kernel_launches > 0);
    }

    #[test]
    fn sparse_matches_host_pivot_for_pivot() {
        for (name, mip) in [
            ("setcover", set_cover(8, 8, 0.3, 5)),
            ("ucommit", unit_commitment(2, 2, 5)),
            ("textbook", textbook_mip()),
        ] {
            let std = StandardLp::from_instance(&mip, &[]);
            let mut host = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
                HostEngine::new(a.clone())
            });
            let hsol = host.solve().unwrap();
            let mut sparse = sparse_solver(std, Accel::gpu(1));
            let ssol = sparse.solve().unwrap();
            assert_eq!(hsol.status, ssol.status, "{name}");
            if hsol.status == LpStatus::Optimal {
                assert!(
                    (hsol.objective - ssol.objective).abs() < 1e-6,
                    "{name}: host {} vs sparse {}",
                    hsol.objective,
                    ssol.objective
                );
                assert_eq!(
                    hsol.iterations, ssol.iterations,
                    "{name}: pivot paths differ"
                );
            }
        }
    }

    #[test]
    fn sparse_warm_resolve_and_cuts() {
        let accel = Accel::gpu(1);
        let std = StandardLp::from_instance(&textbook_mip(), &[]);
        let mut solver = sparse_solver(std, accel.clone());
        let base = solver.solve().unwrap();
        assert_eq!(base.status, LpStatus::Optimal);
        // Branch bound change + dual re-solve.
        solver
            .apply_node_bounds(&[crate::problem::BoundChange {
                var: 0,
                lb: 0.0,
                ub: 2.0,
            }])
            .unwrap();
        let warm = solver.resolve().unwrap();
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(warm.objective < base.objective);
        // Cut flow.
        solver.apply_node_bounds(&[]).unwrap();
        solver.add_cut(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        let cutted = solver.resolve().unwrap();
        assert_eq!(cutted.status, LpStatus::Optimal);
        assert!(cutted.x[0] + cutted.x[1] <= 4.0 + 1e-7);
    }

    #[test]
    fn sparse_engine_frees_memory_on_drop() {
        let accel = Accel::gpu(1);
        {
            let std = StandardLp::from_instance(&textbook_lp(), &[]);
            let mut solver = sparse_solver(std, accel.clone());
            solver.solve().unwrap();
            assert!(accel.mem_used() > 0);
        }
        assert_eq!(accel.mem_used(), 0, "sparse engine leaked device memory");
    }

    #[test]
    fn sparse_transfers_scale_with_nnz_not_size() {
        // A very sparse instance: uploading CSR must move far fewer bytes
        // than the dense extended matrix would.
        let mip = set_cover(40, 40, 0.05, 9);
        let std = StandardLp::from_instance(&mip, &[]);
        let dense_bytes = (std.m() * (std.n() + std.m()) * 8) as u64;
        let accel = Accel::gpu(1);
        let _solver = sparse_solver(std, accel.clone());
        let uploaded = accel.stats().h2d_bytes;
        assert!(
            uploaded < dense_bytes / 2,
            "CSR upload {uploaded} B vs dense {dense_bytes} B"
        );
    }
}
