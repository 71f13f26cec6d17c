//! Product-form-of-inverse (PFI) basis representation with FTRAN/BTRAN.
//!
//! The revised simplex method replaces one basis column per iteration. Rather
//! than refactorizing the basis matrix `B` each time, the PFI represents
//! `B⁻¹ = Eₖ⁻¹ ⋯ E₁⁻¹ B₀⁻¹`, where `B₀` has a full LU factorization and each
//! `Eᵢ` is an *eta matrix* — the identity with a single column replaced.
//!
//! Section 5.1 of the paper: "the GPU linear algebra will be exercised in
//! this portion with rank-1 updates and resolving the updated matrix
//! repeatedly with no data transfer from host to device". The eta file is the
//! classic realization of that, and the one used by the GPU simplex
//! implementations the paper cites (\[28\], \[31\] use a *modified* product form
//! of inverse). The number of accumulated eta factors is the refactorization
//! trigger knob exposed to the solver.

use crate::lu::LuFactors;
use crate::sparse::CscMatrix;
use crate::sparse_lu::SparseLu;
use crate::{DenseMatrix, LinalgError, Result, PIVOT_TOL};

/// A factorization of the initial basis `B₀` that an [`EtaFile`] sits on:
/// the dense LU of [`crate::lu`] or the left-looking sparse LU of
/// [`crate::sparse_lu`] (the KLU/GLU-class routine of Section 4.2). The
/// eta updates on top are the same dense columns either way. The default
/// value factors the `0 × 0` system.
pub trait BaseFactor: Default {
    /// The form the square basis matrix is handed over in.
    type Matrix;
    /// Replaces this factorization by that of `b`, reusing its storage
    /// where the representation allows; a failure leaves the default.
    fn refactorize(&mut self, b: &Self::Matrix) -> Result<()>;
    /// Dimension of the factored system.
    fn dim(&self) -> usize;
    /// Entries the factors store (cost-model input).
    fn fill_nnz(&self) -> usize;
    /// Solves `B₀ x = b` into `x`.
    fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()>;
    /// Solves `B₀ᵀ x = z` into `x`, overwriting the right-hand side `z`.
    fn solve_transposed_consuming(&self, z: &mut [f64], x: &mut [f64]) -> Result<()>;
}

macro_rules! base_factor {
    ($factors:ty, $matrix:ty) => {
        impl BaseFactor for $factors {
            type Matrix = $matrix;
            fn refactorize(&mut self, b: &$matrix) -> Result<()> {
                self.refactorize(b)
            }
            fn dim(&self) -> usize {
                self.dim()
            }
            fn fill_nnz(&self) -> usize {
                self.fill_nnz()
            }
            fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
                self.solve_into(b, x)
            }
            fn solve_transposed_consuming(&self, z: &mut [f64], x: &mut [f64]) -> Result<()> {
                self.solve_transposed_consuming(z, x)
            }
        }
    };
}
base_factor!(LuFactors, DenseMatrix);
base_factor!(SparseLu, CscMatrix);

/// One eta matrix: the identity with column [`col`](Self::col) replaced by
/// [`eta`](Self::eta).
#[derive(Debug, Clone, Copy)]
pub struct EtaFactor<'a> {
    /// The replaced column index.
    pub col: usize,
    /// The replacement column (length = basis dimension). The diagonal entry
    /// `eta[col]` must be bounded away from zero.
    pub eta: &'a [f64],
}

impl EtaFactor<'_> {
    /// Applies `E⁻¹` to `x` in place.
    ///
    /// With `E = I + (η − e_r) e_rᵀ`, the inverse application is
    /// `x_r ← x_r / η_r`, then `x_i ← x_i − η_i · x_r` for `i ≠ r`.
    pub fn apply_inverse(&self, x: &mut [f64]) {
        let r = self.col;
        let xr = x[r] / self.eta[r];
        for (i, (&ei, xi)) in self.eta.iter().zip(x.iter_mut()).enumerate() {
            if i != r {
                *xi -= ei * xr;
            }
        }
        x[r] = xr;
    }

    /// Applies `E⁻ᵀ` to `y` in place:
    /// `y_r ← (y_r − Σ_{i≠r} η_i y_i) / η_r`, other entries unchanged.
    pub fn apply_inverse_transposed(&self, y: &mut [f64]) {
        let r = self.col;
        let mut acc = y[r];
        for (i, (&ei, &yi)) in self.eta.iter().zip(y.iter()).enumerate() {
            if i != r {
                acc -= ei * yi;
            }
        }
        y[r] = acc / self.eta[r];
    }
}

/// A factored basis: a [`BaseFactor`] of the initial basis (dense LU
/// unless named otherwise) plus a file of eta updates.
///
/// The file owns its storage for good: a refactorization reuses the base
/// factor's buffers and the eta columns live back to back in one arena, so
/// a simplex that refactorizes and updates the same file allocates only
/// while that storage is still growing. The default value is the empty file
/// over the `0 × 0` basis.
#[derive(Debug, Clone, Default)]
pub struct EtaFile<B = LuFactors> {
    base: B,
    /// Replaced position of each eta factor, in update order.
    eta_pos: Vec<usize>,
    /// The eta columns back to back, [`dim`](Self::dim) entries each.
    eta_cols: Vec<f64>,
}

/// An eta file over a sparse LU of the initial basis (handed over as a
/// square CSC) — the representation the CSR-resident simplex engine keeps
/// on the device (Section 5.4).
pub type SparseEtaFile = EtaFile<SparseLu>;

impl EtaFile<LuFactors> {
    /// Refactorizes over the basis made of columns `cols` of `a`, gathered
    /// straight into the file's LU storage, and drops the eta updates. A
    /// failure leaves the empty file.
    pub fn refactorize_columns(&mut self, a: &DenseMatrix, cols: &[usize]) -> Result<()> {
        self.clear_etas();
        self.base.refactorize_columns(a, cols)
    }
}

impl<B: BaseFactor> EtaFile<B> {
    /// Factorizes the initial basis matrix `b0`.
    pub fn factorize(b0: &B::Matrix) -> Result<Self> {
        let mut file = Self::default();
        file.refactorize(b0)?;
        Ok(file)
    }

    /// Refactorizes over `b0` in this file's storage and drops the eta
    /// updates (periodic refactorization). A failure leaves the empty file.
    pub fn refactorize(&mut self, b0: &B::Matrix) -> Result<()> {
        self.clear_etas();
        self.base.refactorize(b0)
    }

    fn clear_etas(&mut self) {
        self.eta_pos.clear();
        self.eta_cols.clear();
    }

    /// Basis dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Entries the base factorization stores (cost-model input).
    #[inline]
    pub fn fill_nnz(&self) -> usize {
        self.base.fill_nnz()
    }

    /// Number of accumulated eta factors since the last refactorization —
    /// the solver refactorizes when this passes its threshold, trading
    /// FTRAN/BTRAN cost against factorization cost.
    #[inline]
    pub fn eta_count(&self) -> usize {
        self.eta_pos.len()
    }

    /// The eta factors in update order.
    fn factors(&self) -> impl DoubleEndedIterator<Item = EtaFactor<'_>> {
        let n = self.dim();
        self.eta_pos
            .iter()
            .enumerate()
            .map(move |(k, &col)| EtaFactor {
                col,
                eta: &self.eta_cols[k * n..(k + 1) * n],
            })
    }

    /// FTRAN: solves `B x = b` through the base LU and the eta file.
    pub fn ftran(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        self.ftran_into(b, &mut x)?;
        Ok(x)
    }

    /// In-place form of [`ftran`](Self::ftran): writes `x` (length
    /// [`dim`](Self::dim)) without allocating. Same loop order, same bits.
    pub fn ftran_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        self.base.solve_into(b, x)?;
        for e in self.factors() {
            e.apply_inverse(x);
        }
        Ok(())
    }

    /// BTRAN: solves `Bᵀ y = c` (eta transposes in reverse, then base).
    pub fn btran(&self, c: &[f64]) -> Result<Vec<f64>> {
        let mut work = vec![0.0; self.dim()];
        let mut y = vec![0.0; self.dim()];
        self.btran_into(c, &mut work, &mut y)?;
        Ok(y)
    }

    /// In-place form of [`btran`](Self::btran): writes `y` without
    /// allocating; `work` is caller-provided scratch. Both must have
    /// length [`dim`](Self::dim).
    pub fn btran_into(&self, c: &[f64], work: &mut [f64], y: &mut [f64]) -> Result<()> {
        if c.len() != work.len() {
            return Err(LinalgError::DimensionMismatch {
                context: format!("btran: basis {}, rhs {}", self.dim(), c.len()),
            });
        }
        work.copy_from_slice(c);
        for e in self.factors().rev() {
            e.apply_inverse_transposed(work);
        }
        self.base.solve_transposed_consuming(work, y)
    }

    /// Records the basis change "column `leaving_pos` replaced by a column
    /// whose FTRAN image is `alpha`" (i.e. `alpha = B⁻¹ a_entering`, computed
    /// *before* the update), copying `alpha` into the file.
    ///
    /// Fails if the pivot element `alpha[leaving_pos]` is numerically zero —
    /// such an exchange would make the basis singular.
    pub fn update(&mut self, leaving_pos: usize, alpha: &[f64]) -> Result<()> {
        if alpha.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                context: format!("eta update: basis {}, alpha {}", self.dim(), alpha.len()),
            });
        }
        if leaving_pos >= self.dim() {
            return Err(LinalgError::OutOfBounds {
                index: leaving_pos,
                bound: self.dim(),
            });
        }
        if alpha[leaving_pos].abs() < PIVOT_TOL {
            return Err(LinalgError::Singular {
                column: leaving_pos,
            });
        }
        self.eta_pos.push(leaving_pos);
        self.eta_cols.extend_from_slice(alpha);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    /// Builds B0 = I(3) and then swaps in columns one at a time, checking the
    /// eta-file solves against a fresh dense LU of the explicit basis.
    #[test]
    fn eta_updates_agree_with_refactorization() {
        let n = 3;
        let mut explicit = DenseMatrix::identity(n);
        let mut file: EtaFile = EtaFile::factorize(&explicit).unwrap();

        let new_cols = [
            (0usize, vec![2.0, 1.0, 0.0]),
            (2usize, vec![0.5, 0.0, 3.0]),
            (1usize, vec![1.0, 4.0, 1.0]),
        ];
        for (pos, col) in new_cols {
            // alpha = B⁻¹ a_new computed with the *current* representation.
            let alpha = file.ftran(&col).unwrap();
            file.update(pos, &alpha).unwrap();
            for i in 0..n {
                explicit.set(i, pos, col[i]);
            }
            let fresh = LuFactors::factorize(&explicit).unwrap();
            let b = vec![1.0, -2.0, 0.5];
            let x_eta = file.ftran(&b).unwrap();
            let x_lu = fresh.solve(&b).unwrap();
            assert!(
                max_abs_diff(&x_eta, &x_lu) < 1e-9,
                "ftran diverged after update at {pos}"
            );
            let y_eta = file.btran(&b).unwrap();
            let y_lu = fresh.solve_transposed(&b).unwrap();
            assert!(
                max_abs_diff(&y_eta, &y_lu) < 1e-9,
                "btran diverged after update at {pos}"
            );
        }
        assert_eq!(file.eta_count(), 3);
    }

    #[test]
    fn zero_pivot_update_rejected() {
        let b0 = DenseMatrix::identity(2);
        let mut file: EtaFile = EtaFile::factorize(&b0).unwrap();
        // alpha with zero at the leaving position → singular basis.
        assert!(matches!(
            file.update(0, &[0.0, 1.0]),
            Err(LinalgError::Singular { .. })
        ));
        // Wrong length.
        assert!(file.update(0, &[1.0]).is_err());
        // Out-of-range position.
        assert!(file.update(5, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn eta_factor_inverse_roundtrip() {
        // E x, then E⁻¹ should restore x.
        let e = EtaFactor {
            col: 1,
            eta: &[0.5, 2.0, -1.0],
        };
        let x0 = [1.0, 2.0, 3.0];
        // Compute E x0 explicitly: (E x)_i = x_i + eta_i * x_r for i != r,
        // (E x)_r = eta_r * x_r.
        let mut ex = [0.0; 3];
        for i in 0..3 {
            if i == e.col {
                ex[i] = e.eta[i] * x0[i];
            } else {
                ex[i] = x0[i] + e.eta[i] * x0[e.col];
            }
        }
        let mut back = ex;
        e.apply_inverse(&mut back);
        assert!(max_abs_diff(&back, &x0) < 1e-12);
    }

    #[test]
    fn eta_transpose_consistent_with_inverse() {
        // For any x, y: (E⁻ᵀ y) · x == y · (E⁻¹ x).
        let e = EtaFactor {
            col: 0,
            eta: &[4.0, 1.0, -2.0],
        };
        let x = [1.0, -1.0, 2.0];
        let y = [0.5, 3.0, 1.0];
        let mut ex = x;
        e.apply_inverse(&mut ex);
        let mut ey = y;
        e.apply_inverse_transposed(&mut ey);
        let lhs: f64 = ey.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        let rhs: f64 = y.iter().zip(ex.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn into_forms_ignore_prior_buffer_contents() {
        // Recycled output/scratch buffers arrive dirty; the `_into` forms
        // must give the bits of the allocating forms regardless.
        let b0 = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 1.0],
            vec![4.0, -6.0, 0.0],
            vec![-2.0, 7.0, 2.0],
        ])
        .unwrap();
        let mut file: EtaFile = EtaFile::factorize(&b0).unwrap();
        let alpha = file.ftran(&[1.0, 0.5, -1.0]).unwrap();
        file.update(1, &alpha).unwrap();
        let rhs = [3.0, -1.0, 0.25];
        let (mut out, mut work) = ([f64::NAN; 3], [7.0; 3]);
        file.ftran_into(&rhs, &mut out).unwrap();
        assert_eq!(out.to_vec(), file.ftran(&rhs).unwrap());
        out = [-5.0; 3];
        file.btran_into(&rhs, &mut work, &mut out).unwrap();
        assert_eq!(out.to_vec(), file.btran(&rhs).unwrap());
        out = [f64::INFINITY; 3];
        b0.matvec_transposed_into(&rhs, &mut out).unwrap();
        assert_eq!(out.to_vec(), b0.matvec_transposed(&rhs).unwrap());
        b0.col_into(1, &mut out);
        assert_eq!(out.to_vec(), b0.col(1));
        // Wrong-sized buffers are errors, not panics.
        assert!(file.ftran_into(&rhs, &mut [0.0; 2]).is_err());
        assert!(file.btran_into(&rhs, &mut [0.0; 2], &mut out).is_err());
        assert!(b0.matvec_into(&rhs, &mut [0.0; 4]).is_err());
    }

    fn sparse_basis() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![4.0, 0.0, -1.0, 0.0],
            vec![0.0, 5.0, 0.0, -2.0],
            vec![-1.0, 0.0, 6.0, 0.0],
            vec![0.0, -2.0, 0.0, 7.0],
        ])
        .unwrap()
    }

    #[test]
    fn sparse_base_matches_dense_base_through_updates() {
        let dense_b0 = sparse_basis();
        let csc = CscMatrix::from_dense(&dense_b0);
        let mut sparse = SparseEtaFile::factorize(&csc).unwrap();
        let mut dense: EtaFile = EtaFile::factorize(&dense_b0).unwrap();
        assert_eq!(sparse.dim(), 4);
        assert_eq!(sparse.eta_count(), 0);
        assert!(sparse.fill_nnz() >= 4);

        let new_cols = [
            (1usize, vec![0.5, 2.0, 0.0, 1.0]),
            (3usize, vec![1.0, 0.0, 3.0, 0.5]),
        ];
        for (pos, col) in new_cols {
            let alpha_s = sparse.ftran(&col).unwrap();
            let alpha_d = dense.ftran(&col).unwrap();
            assert!(max_abs_diff(&alpha_s, &alpha_d) < 1e-9);
            sparse.update(pos, &alpha_s).unwrap();
            dense.update(pos, &alpha_d).unwrap();
            let rhs = vec![1.0, -1.0, 2.0, 0.5];
            let xs = sparse.ftran(&rhs).unwrap();
            let xd = dense.ftran(&rhs).unwrap();
            assert!(max_abs_diff(&xs, &xd) < 1e-9, "ftran diverged");
            let ys = sparse.btran(&rhs).unwrap();
            let yd = dense.btran(&rhs).unwrap();
            assert!(max_abs_diff(&ys, &yd) < 1e-9, "btran diverged");
        }
        assert_eq!(sparse.eta_count(), 2);
    }

    #[test]
    fn sparse_base_update_validation() {
        let csc = CscMatrix::from_dense(&sparse_basis());
        let mut f = SparseEtaFile::factorize(&csc).unwrap();
        assert!(matches!(
            f.update(0, &[0.0, 1.0, 1.0, 1.0]),
            Err(LinalgError::Singular { .. })
        ));
        assert!(f.update(0, &[1.0]).is_err());
        assert!(f.update(9, &[1.0; 4]).is_err());
    }

    #[test]
    fn sparse_base_into_forms_ignore_prior_buffer_contents() {
        let csc = CscMatrix::from_dense(&sparse_basis());
        let mut file = SparseEtaFile::factorize(&csc).unwrap();
        let alpha = file.ftran(&[1.0, 0.0, 2.0, -1.0]).unwrap();
        file.update(2, &alpha).unwrap();
        let rhs = [0.5, -3.0, 1.0, 2.0];
        let (mut out, mut work) = ([f64::NAN; 4], [9.0; 4]);
        file.ftran_into(&rhs, &mut out).unwrap();
        assert_eq!(out.to_vec(), file.ftran(&rhs).unwrap());
        out = [-1.0; 4];
        file.btran_into(&rhs, &mut work, &mut out).unwrap();
        assert_eq!(out.to_vec(), file.btran(&rhs).unwrap());
        assert!(file.ftran_into(&rhs, &mut [0.0; 3]).is_err());
        assert!(file.btran_into(&rhs, &mut [0.0; 3], &mut out).is_err());
    }
}
