//! The vector kernels of a simplex iteration: the masked reductions that
//! hand the host one scalar (pricing argmin, both ratio tests, the primal
//! infeasibility argmax, Devex), the fused step that applies a pivot, and
//! the small elementwise kernels between them. A selection or update runs
//! its [`gmip_linalg::pivot`] rule on resident vectors; the kernel adds
//! length checks, the charge and the read-back. Outside a launch chain a
//! read-back crosses the link at once, inside one ([`GpuDevice::chain`]) it
//! is staged and the chain's later kernels read it on the device. None of
//! them reads the matrix or the factored basis (those kernels are written
//! over a [`Storage`](super::Storage) in [`storage`](super::storage)), so
//! there is one of each, whatever the matrix is held as.

use super::{out_of_bounds, GpuDevice, GpuError, Result, ScalarWrite, VectorHandle, LAUNCH_WRITES};
use crate::stream::StreamId;
use gmip_linalg::{pivot, LinalgError};

/// Refuses a kernel whose vectors are not all as long as the first.
fn same_len(kernel: &str, lens: &[usize]) -> Result<()> {
    if lens.iter().all(|&l| l == lens[0]) {
        return Ok(());
    }
    Err(GpuError::Linalg(LinalgError::DimensionMismatch {
        context: format!("{kernel}: vector lengths {lens:?}"),
    }))
}

impl GpuDevice {
    /// Device reduction: index and value of the minimum entry of `v` among
    /// positions where `mask` is nonzero. Returns `None` if the mask is
    /// empty. Charges one kernel plus a 16-byte D2H scalar readback.
    pub fn argmin_masked(
        &mut self,
        v: VectorHandle,
        mask: VectorHandle,
        stream: StreamId,
    ) -> Result<Option<(usize, f64)>> {
        let vv = self.objects.vector(v)?;
        let mm = self.objects.vector(mask)?;
        same_len("argmin_masked", &[vv.len(), mm.len()])?;
        let mut best: Option<(usize, f64)> = None;
        for (i, (&x, &m)) in vv.iter().zip(mm.iter()).enumerate() {
            if m != 0.0 && best.is_none_or(|(_, b)| x < b) {
                best = Some((i, x));
            }
        }
        let n = vv.len();
        self.charge_dense_kernel("argmin_masked", n as f64, (2 * n * 8) as f64, stream);
        self.charge_d2h(16, stream);
        Ok(best)
    }

    /// Reads `N` elements of device vectors, `at[k] = (vector, index)`, in
    /// one scalar readback (a single D2H transfer of `8·N` bytes). Nothing
    /// is charged unless every position exists.
    pub fn vec_get<const N: usize>(
        &mut self,
        at: [(VectorHandle, usize); N],
        stream: StreamId,
    ) -> Result<[f64; N]> {
        let mut out = [0.0; N];
        for (o, (h, idx)) in out.iter_mut().zip(at) {
            let v = self.objects.vector(h)?;
            *o = *v.get(idx).ok_or_else(|| out_of_bounds(idx, v.len()))?;
        }
        self.charge_d2h(8 * N, stream);
        Ok(out)
    }

    /// Checks that `writes` fit one launch's arguments ([`LAUNCH_WRITES`])
    /// and that each names an element of a live vector — before the kernel
    /// carrying them mutates anything.
    fn check_writes(&self, writes: &[ScalarWrite]) -> Result<()> {
        if writes.len() > LAUNCH_WRITES {
            return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                context: format!(
                    "{} scalar writes, over the {LAUNCH_WRITES} a launch carries",
                    writes.len()
                ),
            }));
        }
        for &(h, idx, _) in writes {
            let len = self.objects.vector(h)?.len();
            if idx >= len {
                return Err(out_of_bounds(idx, len));
            }
        }
        Ok(())
    }

    /// Elementwise product `out = a ⊙ b` (used to score pricing candidates
    /// by status sign before the argmin reduction).
    pub fn vec_mul(
        &mut self,
        a: VectorHandle,
        b: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, c| {
                let av = objects.vector(a)?;
                let bv = objects.vector(b)?;
                same_len("vec_mul", &[av.len(), bv.len()])?;
                c.clear();
                c.extend(av.iter().zip(bv.iter()).map(|(x, y)| x * y));
                Ok(c.len())
            },
            |dev, n| dev.charge_dense_kernel("vec_mul", n as f64, (3 * n * 8) as f64, stream),
        )
    }

    /// Writes `value` into every entry of resident vector `out`, of length
    /// `n`, then the scalar stores of `writes` in list order — an install's
    /// changes to the vectors the device already holds. The stores are
    /// launch arguments: one memory-bound kernel, no transfer, and nothing
    /// is touched unless every one of them is in range.
    pub fn fill(
        &mut self,
        out: VectorHandle,
        n: usize,
        value: f64,
        writes: &[ScalarWrite],
        stream: StreamId,
    ) -> Result<()> {
        self.check_writes(writes)?;
        self.write_vector(
            out,
            |_, _, v| {
                v.clear();
                v.resize(n, value);
                Ok(())
            },
            |dev, ()| dev.charge_dense_kernel("fill", 0.0, (n * 8) as f64, stream),
        )?;
        for &(h, idx, value) in writes {
            self.objects.vector_mut(h)?[idx] = value;
        }
        Ok(())
    }

    /// Writes the unit vector `e_r` of length `n` into resident vector
    /// `out`, directly on the device (no host transfer — used by the dual
    /// simplex to form BTRAN rows).
    pub fn alloc_unit_vector(
        &mut self,
        n: usize,
        r: usize,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        if r >= n {
            return Err(out_of_bounds(r, n));
        }
        self.write_vector(
            out,
            |_, _, v| {
                v.clear();
                v.resize(n, 0.0);
                v[r] = 1.0;
                Ok(())
            },
            |dev, ()| dev.charge_dense_kernel("alloc_unit_vector", 0.0, (n * 8) as f64, stream),
        )
    }

    /// [`pivot::ratio_test`] over resident `x_B`, `α`, `l_B`, `u_B`: one
    /// kernel (`4m` flops over `4m` words) and a 24-byte read-back of
    /// `(row, t, leaves_at_upper)`.
    #[allow(clippy::too_many_arguments)]
    pub fn ratio_test_bounded(
        &mut self,
        xb: VectorHandle,
        alpha: VectorHandle,
        lbb: VectorHandle,
        ubb: VectorHandle,
        dir: f64,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64, bool)>> {
        let x = self.objects.vector(xb)?;
        let a = self.objects.vector(alpha)?;
        let lb = self.objects.vector(lbb)?;
        let ub = self.objects.vector(ubb)?;
        let m = x.len();
        same_len("ratio_test_bounded", &[m, a.len(), lb.len(), ub.len()])?;
        let result = pivot::ratio_test(x, a, lb, ub, dir, tol);
        self.charge_dense_kernel(
            "ratio_test_bounded",
            (4 * m) as f64,
            (4 * m * 8) as f64,
            stream,
        );
        self.charge_d2h(24, stream);
        Ok(result)
    }

    /// [`pivot::step`] on resident `x_B` along `α`, then the scalar stores
    /// of `writes` in list order — what a pivot changes besides the step
    /// (the entering variable's value in the leaving slot, the two statuses,
    /// the entering column's cost and bounds in the basis-ordered vectors).
    /// The stores are launch arguments: one kernel (`2m` flops over `2m`
    /// words), no transfer, and nothing is touched unless every one of them
    /// is in range.
    pub fn basic_step(
        &mut self,
        xb: VectorHandle,
        alpha: VectorHandle,
        dir: f64,
        t: f64,
        writes: &[ScalarWrite],
        stream: StreamId,
    ) -> Result<()> {
        let alen = self.objects.vector(alpha)?.len();
        let xlen = self.objects.vector(xb)?.len();
        same_len("basic_step", &[xlen, alen])?;
        self.check_writes(writes)?;
        self.work.clear();
        self.work.extend_from_slice(self.objects.vector(alpha)?);
        pivot::step(self.objects.vector_mut(xb)?, &self.work, dir, t);
        for &(h, idx, value) in writes {
            self.objects.vector_mut(h)?[idx] = value;
        }
        let n = self.work.len();
        self.charge_dense_kernel("basic_step", (2 * n) as f64, (2 * n * 8) as f64, stream);
        Ok(())
    }

    /// The lower bound of column `j`, or with `upper` its upper one, as an
    /// argument of the step kernel that stores it: read where it is
    /// resident, nothing charged, nothing crossing.
    pub fn bound(&self, [lb, ub]: [VectorHandle; 2], j: usize, upper: bool) -> Result<f64> {
        let v = self.objects.vector(if upper { ub } else { lb })?;
        v.get(j).copied().ok_or_else(|| out_of_bounds(j, v.len()))
    }

    /// [`pivot::primal_infeasibility`] over resident `x_B`, `l_B`, `u_B`:
    /// one kernel (`2m` flops over `3m` words) and a 24-byte read-back of
    /// `(row, violation, below_lower)`.
    pub fn primal_infeas_argmax(
        &mut self,
        xb: VectorHandle,
        lbb: VectorHandle,
        ubb: VectorHandle,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64, bool)>> {
        let x = self.objects.vector(xb)?;
        let lb = self.objects.vector(lbb)?;
        let ub = self.objects.vector(ubb)?;
        let m = x.len();
        same_len("primal_infeas_argmax", &[m, lb.len(), ub.len()])?;
        let result = pivot::primal_infeasibility(x, lb, ub, tol);
        self.charge_dense_kernel(
            "primal_infeas_argmax",
            (2 * m) as f64,
            (3 * m * 8) as f64,
            stream,
        );
        self.charge_d2h(24, stream);
        Ok(result)
    }

    /// [`pivot::dual_ratio`] over resident reduced costs `d`, BTRAN row
    /// `α_r` and statuses `σ`: one kernel (`3n` flops over `3n` words) and
    /// a 16-byte read-back of `(column, |ratio|)`.
    pub fn dual_ratio_argmin(
        &mut self,
        d: VectorHandle,
        alpha_r: VectorHandle,
        sigma: VectorHandle,
        leaving_below: bool,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64)>> {
        let dv = self.objects.vector(d)?;
        let av = self.objects.vector(alpha_r)?;
        let sv = self.objects.vector(sigma)?;
        let n = dv.len();
        same_len("dual_ratio_argmin", &[n, av.len(), sv.len()])?;
        let result = pivot::dual_ratio(|j| dv[j], av, sv, leaving_below, tol);
        self.charge_dense_kernel(
            "dual_ratio_argmin",
            (3 * n) as f64,
            (3 * n * 8) as f64,
            stream,
        );
        self.charge_d2h(16, stream);
        Ok(result)
    }

    /// [`pivot::devex_price`] over resident reduced costs `d`, statuses `σ`
    /// and reference weights `γ`: one kernel (`3n` flops over `3n` words)
    /// and a 16-byte read-back of `(column, σ·d)`.
    pub fn devex_argmax(
        &mut self,
        d: VectorHandle,
        sigma: VectorHandle,
        gamma: VectorHandle,
        stream: StreamId,
    ) -> Result<Option<(usize, f64)>> {
        let dv = self.objects.vector(d)?;
        let sv = self.objects.vector(sigma)?;
        let gv = self.objects.vector(gamma)?;
        let n = dv.len();
        same_len("devex_argmax", &[n, sv.len(), gv.len()])?;
        let result = pivot::devex_price(|j| dv[j], sv, gv);
        self.charge_dense_kernel("devex_argmax", (3 * n) as f64, (3 * n * 8) as f64, stream);
        self.charge_d2h(16, stream);
        Ok(result)
    }

    /// [`pivot::devex_update`] of resident weights `γ` from BTRAN row `α_r`
    /// for entering column `q` and leaving column `leaving`: one elementwise
    /// kernel (`3n` flops over `2n` words), no transfer — `q` and `leaving`
    /// are launch arguments and the kernel gathers `α_r[q]` and `γ_q`
    /// itself, so the selection results stay on the device. A refused
    /// update moves nothing and charges nothing.
    pub fn devex_weight_update(
        &mut self,
        gamma: VectorHandle,
        alpha_r: VectorHandle,
        q: usize,
        leaving: usize,
        stream: StreamId,
    ) -> Result<()> {
        let glen = self.objects.vector(gamma)?.len();
        let alen = self.objects.vector(alpha_r)?.len();
        same_len("devex_weight_update", &[glen, alen])?;
        self.work.clear();
        self.work.extend_from_slice(self.objects.vector(alpha_r)?);
        pivot::devex_update(self.objects.vector_mut(gamma)?, &self.work, q, leaving)?;
        let n = self.work.len();
        self.charge_dense_kernel(
            "devex_weight_update",
            (3 * n) as f64,
            (2 * n * 8) as f64,
            stream,
        );
        Ok(())
    }
}
