//! Product-form-of-inverse over a **sparse** base factorization.
//!
//! The sparse twin of [`crate::eta::EtaFile`]: the initial basis is
//! factorized with the left-looking sparse LU of [`crate::sparse_lu`]
//! (the KLU/GLU-class routine of Section 4.2), and subsequent basis
//! exchanges append dense eta columns exactly as in the dense file. This is
//! the representation a sparse-path MIP solver (Section 5.4) keeps on the
//! device.

use crate::eta::EtaFactor;
use crate::sparse::CscMatrix;
use crate::sparse_lu::SparseLu;
use crate::{LinalgError, Result, PIVOT_TOL};

/// A factored sparse basis: sparse LU of the initial basis plus a file of
/// dense eta updates.
#[derive(Debug, Clone)]
pub struct SparseEtaFile {
    base: SparseLu,
    etas: Vec<EtaFactor>,
}

impl SparseEtaFile {
    /// Factorizes the initial basis matrix (square CSC).
    pub fn factorize(b0: &CscMatrix) -> Result<Self> {
        Ok(Self {
            base: SparseLu::factorize(b0)?,
            etas: Vec::new(),
        })
    }

    /// Basis dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Number of accumulated eta factors.
    #[inline]
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Stored nonzeros of the base factorization (cost-model input).
    #[inline]
    pub fn fill_nnz(&self) -> usize {
        self.base.fill_nnz()
    }

    /// FTRAN: solves `B x = b`.
    pub fn ftran(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        self.ftran_into(b, &mut x)?;
        Ok(x)
    }

    /// In-place form of [`ftran`](Self::ftran): writes `x` (length
    /// [`dim`](Self::dim)) without allocating. Same loop order, same bits.
    pub fn ftran_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        self.base.solve_into(b, x)?;
        for e in &self.etas {
            e.apply_inverse(x);
        }
        Ok(())
    }

    /// BTRAN: solves `Bᵀ y = c`.
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
                context: format!("sparse btran: basis {}, rhs {}", self.dim(), c.len()),
            });
        }
        work.copy_from_slice(c);
        for e in self.etas.iter().rev() {
            e.apply_inverse_transposed(work);
        }
        self.base.solve_transposed_consuming(work, y)
    }

    /// Records a basis exchange (same contract as
    /// [`crate::eta::EtaFile::update`]).
    pub fn update(&mut self, leaving_pos: usize, alpha: Vec<f64>) -> Result<()> {
        if alpha.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "sparse eta update: basis {}, alpha {}",
                    self.dim(),
                    alpha.len()
                ),
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
        self.etas.push(EtaFactor {
            col: leaving_pos,
            eta: alpha,
        });
        Ok(())
    }

    /// Fresh sparse factorization of `b`; clears the eta file.
    pub fn refactorize(&mut self, b: &CscMatrix) -> Result<()> {
        self.base = SparseLu::factorize(b)?;
        self.etas.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;
    use crate::{DenseMatrix, EtaFile};

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
    fn matches_dense_eta_file_through_updates() {
        let dense_b0 = sparse_basis();
        let csc = CscMatrix::from_dense(&dense_b0);
        let mut sparse = SparseEtaFile::factorize(&csc).unwrap();
        let mut dense = EtaFile::factorize(&dense_b0).unwrap();
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
            sparse.update(pos, alpha_s).unwrap();
            dense.update(pos, alpha_d).unwrap();
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
    fn refactorize_clears() {
        let csc = CscMatrix::from_dense(&sparse_basis());
        let mut f = SparseEtaFile::factorize(&csc).unwrap();
        let alpha = f.ftran(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        f.update(0, alpha).unwrap();
        assert_eq!(f.eta_count(), 1);
        f.refactorize(&csc).unwrap();
        assert_eq!(f.eta_count(), 0);
    }

    #[test]
    fn update_validation() {
        let csc = CscMatrix::from_dense(&sparse_basis());
        let mut f = SparseEtaFile::factorize(&csc).unwrap();
        assert!(matches!(
            f.update(0, vec![0.0, 1.0, 1.0, 1.0]),
            Err(LinalgError::Singular { .. })
        ));
        assert!(f.update(0, vec![1.0]).is_err());
        assert!(f.update(9, vec![1.0; 4]).is_err());
    }

    #[test]
    fn into_forms_ignore_prior_buffer_contents() {
        let csc = CscMatrix::from_dense(&sparse_basis());
        let mut file = SparseEtaFile::factorize(&csc).unwrap();
        let alpha = file.ftran(&[1.0, 0.0, 2.0, -1.0]).unwrap();
        file.update(2, alpha).unwrap();
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
