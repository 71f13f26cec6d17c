//! The accelerator-resident simplex engine.
//!
//! Implements [`SimplexEngine`] with every numerical step executed as a
//! simulated device kernel on a [`gmip_gpu::Accel`]. The execution model is
//! Section 5.1 of the paper:
//!
//! * the constraint matrix is uploaded **once** at engine construction and
//!   never re-transferred; cuts extend it in place (Section 5.2);
//! * basis assembly ([`GpuDevice::gather_columns`]), factorization, eta
//!   updates, FTRAN/BTRAN, pricing, and both ratio tests run on the device;
//! * per iteration, only O(1) scalars (argmin results, pivot values) cross
//!   the link — "rank-1 updates and resolving the updated matrix repeatedly
//!   with no data transfer from host to device or vice versa";
//! * per basis **install** (node start, refactorization), only small
//!   vectors (`c`, `b`, statuses, basic bounds) are uploaded.
//!
//! Running the same driver over [`crate::engine::HostEngine`] and this
//! engine yields identical pivots; the difference is the simulated cost
//! ledger, which the experiments read.

use crate::basis::{Basis, VarStatus};
use crate::engine::{PivotPlan, ProblemView, SimplexEngine};
use crate::{LpError, LpResult};
use gmip_gpu::{Accel, EtaHandle, GpuDevice, MatrixHandle, StreamId, VectorHandle, DEFAULT_STREAM};
use gmip_linalg::DenseMatrix;

/// Simplex engine whose numerical state lives on a simulated accelerator.
#[derive(Debug)]
pub struct DeviceEngine {
    accel: Accel,
    a: MatrixHandle,
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
    eta: Option<EtaHandle>,
    gamma: Option<VectorHandle>,
    alpha: Option<VectorHandle>,
    alpha_r: Option<VectorHandle>,
    /// Host staging buffers for the per-install uploads (σ, nonbasic
    /// values, and one basis-ordered gather), kept across installs so a warm
    /// re-solve stages without allocating.
    stage: [Vec<f64>; 3],
}

impl DeviceEngine {
    /// Uploads the extended matrix to the accelerator and builds an engine
    /// on the default stream.
    pub fn new(accel: Accel, a: &DenseMatrix) -> LpResult<Self> {
        Self::new_on_stream(accel, a, DEFAULT_STREAM)
    }

    /// Uploads the matrix and binds every subsequent operation to `stream`
    /// — the Section 5.5 mechanism that lets several engines share one
    /// device with overlapping execution.
    pub fn new_on_stream(accel: Accel, a: &DenseMatrix, stream: StreamId) -> LpResult<Self> {
        let handle = accel.with(|d| d.upload_matrix(a, stream))?;
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
                let _ = d.free_eta(e);
            }
        });
    }

    fn eta(&self) -> LpResult<EtaHandle> {
        self.eta.ok_or(LpError::NotInstalled)
    }

    fn req(&self, h: Option<VectorHandle>) -> LpResult<VectorHandle> {
        h.ok_or(LpError::NotInstalled)
    }
}

impl Drop for DeviceEngine {
    fn drop(&mut self) {
        self.clear_iteration_state();
        let _ = self.accel.with(|d| d.free_matrix(self.a));
    }
}

impl SimplexEngine for DeviceEngine {
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
            let w = d.residual(b_h, a, xnb_h, st)?;
            // Basis gather + factorization, on device.
            let bmat = d.gather_columns(a, cols, st)?;
            let eta_h = d.eta_factor(bmat, st)?;
            d.free_matrix(bmat)?;
            let xb_h = d.eta_ftran(eta_h, w, st)?;
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
        self.with_dev(|d| {
            d.append_row(a, row, st)?;
            d.append_column(a, col, st)
        })?;
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
            let y = d.eta_btran(eta, cb, st)?;
            let dvec = d.pricing(a, y, c, st)?;
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
            let y = d.eta_btran(eta, cb, st)?;
            let dvec = d.pricing(a, y, c, st)?;
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
            let col = d.extract_column(a, q, st)?;
            let alpha = d.eta_ftran(eta, col, st)?;
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
            d.eta_update(eta, plan.r, alpha, st)?;
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
            Some(e) => self.accel.with(|d| d.eta_count(e)).unwrap_or(0),
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
            let rho = d.eta_btran(eta, e, st)?;
            let ar = d.gemv_transposed(a, rho, st)?;
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
            let y = d.eta_btran(eta, cb, st)?;
            let dvec = d.pricing(a, y, c, st)?;
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
            let y = d.eta_btran(eta, cb, st)?;
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
            let y = d.eta_btran(eta, cb, st)?;
            let dvec = d.pricing(a, y, c, st)?;
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
    use crate::problem::StandardLp;
    use crate::solver::{LpConfig, LpSolver, LpStatus};
    use gmip_problems::catalog::{textbook_lp, textbook_mip};
    use gmip_problems::generators::{knapsack, set_cover};

    fn device_solver(std: StandardLp, accel: Accel) -> LpSolver<DeviceEngine> {
        LpSolver::new(std, LpConfig::standard(), |a| {
            DeviceEngine::new(accel, a).expect("device upload")
        })
    }

    #[test]
    fn device_solves_textbook_lp() {
        let accel = Accel::gpu(1);
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut solver = device_solver(std, accel.clone());
        let sol = solver.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 21.0).abs() < 1e-7);
        // The matrix was uploaded exactly once; iteration traffic is
        // vector/scalar-sized.
        let stats = accel.stats();
        assert!(stats.h2d_transfers > 0);
        assert!(stats.kernel_launches > 0);
    }

    #[test]
    fn device_matches_host_on_instances() {
        for (name, mip) in [
            ("knapsack", knapsack(10, 0.5, 3)),
            ("setcover", set_cover(6, 6, 0.4, 3)),
            ("textbook", textbook_mip()),
        ] {
            let std = StandardLp::from_instance(&mip, &[]);
            let mut host = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
                HostEngine::new(a.clone())
            });
            let hsol = host.solve().unwrap();
            let mut dev = device_solver(std, Accel::gpu(1));
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

    #[test]
    fn matrix_uploaded_once_across_warm_resolves() {
        let accel = Accel::gpu(1);
        let std = StandardLp::from_instance(&textbook_mip(), &[]);
        let mut solver = device_solver(std, accel.clone());
        solver.solve().unwrap();
        let bytes_after_solve = accel.stats().h2d_bytes;
        // Several warm re-solves with different branch bounds.
        for ub0 in [3.0, 2.0, 1.0] {
            solver
                .apply_node_bounds(&[crate::problem::BoundChange {
                    var: 0,
                    lb: 0.0,
                    ub: ub0,
                }])
                .unwrap();
            let sol = solver.resolve().unwrap();
            assert_eq!(sol.status, LpStatus::Optimal);
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
    }

    #[test]
    fn device_engine_frees_memory_on_drop() {
        let accel = Accel::gpu(1);
        {
            let std = StandardLp::from_instance(&textbook_lp(), &[]);
            let mut solver = device_solver(std, accel.clone());
            solver.solve().unwrap();
            assert!(accel.mem_used() > 0);
        }
        assert_eq!(accel.mem_used(), 0, "engine leaked device memory");
    }

    #[test]
    fn device_cut_flow() {
        let accel = Accel::gpu(1);
        let std = StandardLp::from_instance(&textbook_mip(), &[]);
        let mut solver = device_solver(std, accel.clone());
        let base = solver.solve().unwrap();
        let d2h_before = accel.stats().h2d_transfers;
        solver.add_cut(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        let cutted = solver.resolve().unwrap();
        assert_eq!(cutted.status, LpStatus::Optimal);
        assert!(cutted.objective < base.objective - 1e-6);
        // The cut arrived via H2D (row + slack column), per Section 5.2.
        assert!(accel.stats().h2d_transfers > d2h_before);
    }
}
