//! The vector kernels of a simplex iteration: the masked reductions that
//! hand the host one scalar (pricing argmin, both ratio tests, the primal
//! infeasibility argmax, Devex), the fused step that applies a pivot, and
//! the small elementwise kernels between them. A reduction's result is a
//! read-back: outside a launch chain it crosses the link at once, inside one
//! ([`GpuDevice::chain`]) it is staged with the chain's other read-backs and
//! the chain's later kernels read it on the device. None of them reads the
//! constraint matrix or the factored basis — those kernels are written over
//! a [`Storage`](super::Storage) in [`storage`](super::storage) — so there
//! is one of each, whatever the matrix is held as.

use super::{out_of_bounds, GpuDevice, GpuError, Result, ScalarWrite, VectorHandle};
use crate::stream::StreamId;
use gmip_linalg::LinalgError;

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
        let result = {
            let vv = self.objects.vector(v)?;
            let mm = self.objects.vector(mask)?;
            if vv.len() != mm.len() {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: format!("argmin_masked: {} vs {}", vv.len(), mm.len()),
                }));
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, (&x, &m)) in vv.iter().zip(mm.iter()).enumerate() {
                if m != 0.0 && best.is_none_or(|(_, b)| x < b) {
                    best = Some((i, x));
                }
            }
            best
        };
        let n = self.objects.vector(v)?.len();
        self.charge_dense_kernel("argmin_masked", n as f64, (2 * n * 8) as f64, stream);
        self.charge_d2h(16, stream);
        Ok(result)
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

    /// Checks that every [`ScalarWrite`] of `writes` names an element of a
    /// live vector — before the kernel carrying them mutates anything.
    fn check_writes(&self, writes: &[ScalarWrite]) -> Result<()> {
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
                if av.len() != bv.len() {
                    return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                        context: format!("vec_mul: {} vs {}", av.len(), bv.len()),
                    }));
                }
                c.clear();
                c.extend(av.iter().zip(bv.iter()).map(|(x, y)| x * y));
                Ok(c.len())
            },
            |dev, n| dev.charge_dense_kernel("vec_mul", n as f64, (3 * n * 8) as f64, stream),
        )
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
            return Err(GpuError::Linalg(LinalgError::OutOfBounds {
                index: r,
                bound: n,
            }));
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

    /// Fused bounded-variable primal ratio-test kernel.
    ///
    /// With effective column `α_eff = dir · α`, finds over basic positions
    /// `i` the smallest step `t ≥ 0` at which a basic variable hits a bound:
    ///
    /// * `α_eff[i] >  tol`: variable falls to its lower bound at
    ///   `t = (xb[i] − lbb[i]) / α_eff[i]`;
    /// * `α_eff[i] < −tol`: variable rises to its upper bound at
    ///   `t = (xb[i] − ubb[i]) / α_eff[i]`.
    ///
    /// Returns `(row, t, leaves_at_upper)` or `None` when no basic variable
    /// limits the step (unbounded direction / bound-flip only). Negative
    /// ratios from degenerate positions are clamped to zero. One kernel plus
    /// a scalar readback.
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
        let result = {
            let x = self.objects.vector(xb)?;
            let a = self.objects.vector(alpha)?;
            let lb = self.objects.vector(lbb)?;
            let ub = self.objects.vector(ubb)?;
            let m = x.len();
            if a.len() != m || lb.len() != m || ub.len() != m {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: "ratio_test_bounded: vector lengths".into(),
                }));
            }
            let mut best: Option<(usize, f64, bool)> = None;
            for i in 0..m {
                let ae = dir * a[i];
                let (t, upper) = if ae > tol {
                    if lb[i].is_infinite() {
                        continue;
                    }
                    (((x[i] - lb[i]) / ae).max(0.0), false)
                } else if ae < -tol {
                    if ub[i].is_infinite() {
                        continue;
                    }
                    (((x[i] - ub[i]) / ae).max(0.0), true)
                } else {
                    continue;
                };
                if best.is_none_or(|(_, bt, _)| t < bt - 1e-12) {
                    best = Some((i, t, upper));
                }
            }
            best
        };
        let m = self.objects.vector(xb)?.len();
        self.charge_dense_kernel(
            "ratio_test_bounded",
            (4 * m) as f64,
            (4 * m * 8) as f64,
            stream,
        );
        self.charge_d2h(24, stream);
        Ok(result)
    }

    /// Fused basic-solution update: `xb ← xb − dir·t·α`, then the scalar
    /// stores of `writes` in list order — what a pivot changes besides the
    /// step (the entering variable's value in the leaving slot, the two
    /// statuses, the entering column's cost and bounds in the basis-ordered
    /// vectors). The stores are launch arguments: one kernel, no transfer,
    /// and nothing is touched unless every one of them is in range.
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
        if alen != xlen {
            return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                context: format!("basic_step: {xlen} vs {alen}"),
            }));
        }
        self.check_writes(writes)?;
        self.work.clear();
        self.work.extend_from_slice(self.objects.vector(alpha)?);
        let n = self.work.len();
        let x = self.objects.vector_mut(xb)?;
        for (xi, ai) in x.iter_mut().zip(self.work.iter()) {
            *xi -= dir * t * ai;
        }
        for &(h, idx, value) in writes {
            self.objects.vector_mut(h)?[idx] = value;
        }
        self.charge_dense_kernel("basic_step", (2 * n) as f64, (2 * n * 8) as f64, stream);
        Ok(())
    }

    /// Fused primal-infeasibility reduction for the dual simplex: over basic
    /// positions, finds the largest bound violation of `xb` against
    /// `[lbb, ubb]`. Returns `(row, violation, below_lower)` or `None` when
    /// primal-feasible. One kernel plus a scalar readback.
    pub fn primal_infeas_argmax(
        &mut self,
        xb: VectorHandle,
        lbb: VectorHandle,
        ubb: VectorHandle,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64, bool)>> {
        let result = {
            let x = self.objects.vector(xb)?;
            let lb = self.objects.vector(lbb)?;
            let ub = self.objects.vector(ubb)?;
            if lb.len() != x.len() || ub.len() != x.len() {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: "primal_infeas_argmax: vector lengths".into(),
                }));
            }
            let mut best: Option<(usize, f64, bool)> = None;
            for i in 0..x.len() {
                let (viol, below) = if x[i] < lb[i] - tol {
                    (lb[i] - x[i], true)
                } else if x[i] > ub[i] + tol {
                    (x[i] - ub[i], false)
                } else {
                    continue;
                };
                if best.is_none_or(|(_, bv, _)| viol > bv) {
                    best = Some((i, viol, below));
                }
            }
            best
        };
        let m = self.objects.vector(xb)?.len();
        self.charge_dense_kernel(
            "primal_infeas_argmax",
            (2 * m) as f64,
            (3 * m * 8) as f64,
            stream,
        );
        self.charge_d2h(24, stream);
        Ok(result)
    }

    /// Fused dual ratio-test kernel.
    ///
    /// `d` are reduced costs, `alpha_r` the BTRAN row, and `sigma` the status
    /// vector (−1 at lower bound, +1 at upper bound, 0 basic). When the
    /// leaving variable violates its **lower** bound (`leaving_below`),
    /// eligible entering candidates are at-lower with `alpha_r < −tol` or
    /// at-upper with `alpha_r > tol`; the signs flip otherwise. Minimizes
    /// `|d_j / alpha_r[j]|`. Returns `(col, |ratio|)` or `None` (dual
    /// unbounded ⇒ primal infeasible). One kernel plus a scalar readback.
    pub fn dual_ratio_argmin(
        &mut self,
        d: VectorHandle,
        alpha_r: VectorHandle,
        sigma: VectorHandle,
        leaving_below: bool,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64)>> {
        let result = {
            let dv = self.objects.vector(d)?;
            let av = self.objects.vector(alpha_r)?;
            let sv = self.objects.vector(sigma)?;
            if av.len() != dv.len() || sv.len() != dv.len() {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: "dual_ratio_argmin: vector lengths".into(),
                }));
            }
            let mut best: Option<(usize, f64)> = None;
            for j in 0..dv.len() {
                let eligible = match (sv[j], leaving_below) {
                    (s, true) if s < 0.0 => av[j] < -tol,
                    (s, true) if s > 0.0 => av[j] > tol,
                    (s, false) if s < 0.0 => av[j] > tol,
                    (s, false) if s > 0.0 => av[j] < -tol,
                    _ => false,
                };
                if !eligible {
                    continue;
                }
                let ratio = (dv[j] / av[j]).abs();
                if best.is_none_or(|(_, br)| ratio < br - 1e-12) {
                    best = Some((j, ratio));
                }
            }
            best
        };
        let n = self.objects.vector(d)?.len();
        self.charge_dense_kernel(
            "dual_ratio_argmin",
            (3 * n) as f64,
            (3 * n * 8) as f64,
            stream,
        );
        self.charge_d2h(16, stream);
        Ok(result)
    }

    /// Fused Devex pricing kernel: over eligible columns (σ_j ≠ 0 and
    /// σ_j·d_j < −tol), maximizes the Devex merit `d_j² / γ_j`; returns the
    /// winner's index and its σ·d score (compatible with the Dantzig
    /// kernel's contract). One kernel + a 16-byte readback.
    pub fn devex_argmax(
        &mut self,
        d: VectorHandle,
        sigma: VectorHandle,
        gamma: VectorHandle,
        tol: f64,
        stream: StreamId,
    ) -> Result<Option<(usize, f64)>> {
        let result = {
            let dv = self.objects.vector(d)?;
            let sv = self.objects.vector(sigma)?;
            let gv = self.objects.vector(gamma)?;
            if sv.len() != dv.len() || gv.len() != dv.len() {
                return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                    context: "devex_argmax: vector lengths".into(),
                }));
            }
            let mut best: Option<(usize, f64, f64)> = None; // (j, merit, sigma_d)
            for j in 0..dv.len() {
                if sv[j] == 0.0 {
                    continue;
                }
                let sd = sv[j] * dv[j];
                if sd >= -tol {
                    continue;
                }
                let merit = dv[j] * dv[j] / gv[j].max(1e-12);
                if best.is_none_or(|(_, bm, _)| merit > bm) {
                    best = Some((j, merit, sd));
                }
            }
            best.map(|(j, _, sd)| (j, sd))
        };
        let n = self.objects.vector(d)?.len();
        self.charge_dense_kernel("devex_argmax", (3 * n) as f64, (3 * n * 8) as f64, stream);
        self.charge_d2h(16, stream);
        Ok(result)
    }

    /// Devex reference-weight update after a pivot on column `q`: with
    /// `α_rq = α_r[q]` and `γ_q = γ[q]`, for every column `γ_j ← max(γ_j,
    /// (α_r[j]/α_rq)² · γ_q)`, then `γ_q` is re-anchored in the leaving
    /// variable's slot, `γ[leaving] = max(γ_q / α_rq², 1)`. One elementwise
    /// kernel, no transfer: `q` and `leaving` are launch arguments, and the
    /// kernel gathers `α_rq` and `γ_q` itself — the selection results stay
    /// on the device. A pivot element below `1e-12` is refused before
    /// anything moves.
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
        if glen != alen {
            return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                context: format!("devex_weight_update: {glen} vs {alen}"),
            }));
        }
        for i in [q, leaving] {
            if i >= glen {
                return Err(out_of_bounds(i, glen));
            }
        }
        let alpha_rq = self.objects.vector(alpha_r)?[q];
        let gamma_q = self.objects.vector(gamma)?[q];
        if alpha_rq.abs() < 1e-12 {
            return Err(GpuError::Linalg(LinalgError::Singular { column: 0 }));
        }
        self.work.clear();
        self.work.extend_from_slice(self.objects.vector(alpha_r)?);
        let n = self.work.len();
        let g = self.objects.vector_mut(gamma)?;
        for (gj, arj) in g.iter_mut().zip(self.work.iter()) {
            let ratio = arj / alpha_rq;
            let cand = ratio * ratio * gamma_q;
            if cand > *gj {
                *gj = cand;
            }
        }
        g[leaving] = (gamma_q / (alpha_rq * alpha_rq)).max(1.0);
        self.charge_dense_kernel(
            "devex_weight_update",
            (3 * n) as f64,
            (2 * n * 8) as f64,
            stream,
        );
        Ok(())
    }
}
