//! Dense Cholesky factorization for symmetric positive-definite systems.
//!
//! The first of the paper's Section 4 factorization classes ("Cholesky, LU,
//! and QR decomposition is one of the most important computing routines").
//! In a MIP/LP stack, SPD systems arise in least-squares subproblems and in
//! the normal equations `A Aᵀ y = b` of interior-point methods — the
//! alternative LP algorithm the paper's related work surveys; this routine
//! is the substrate a future interior-point backend would sit on (and the
//! operation Rennich et al.'s batched-Cholesky work accelerates).

use crate::dense::DenseMatrix;
use crate::{LinalgError, Result, PIVOT_TOL};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyFactors {
    l: DenseMatrix,
}

impl CholeskyFactors {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Fails with [`LinalgError::Singular`] when a diagonal pivot is not
    /// strictly positive (the matrix is not positive definite). Symmetry is
    /// trusted from the lower triangle; the upper triangle is ignored.
    pub fn factorize(a: &DenseMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: format!("Cholesky of {}x{} matrix", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            // Diagonal: l_jj = sqrt(a_jj − Σ_k l_jk²).
            let mut d = a.get(j, j);
            for k in 0..j {
                let v = l.get(j, k);
                d -= v * v;
            }
            if d < PIVOT_TOL {
                return Err(LinalgError::Singular { column: j });
            }
            let ljj = d.sqrt();
            l.set(j, j, ljj);
            // Below-diagonal column.
            for i in j + 1..n {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, s / ljj);
            }
        }
        Ok(Self { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower factor `L`.
    pub fn l(&self) -> &DenseMatrix {
        &self.l
    }

    /// Solves `A x = b` via forward then backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: format!("cholesky solve: system {}, rhs {}", n, b.len()),
            });
        }
        // L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            let mut acc = y[i];
            for k in 0..i {
                acc -= self.l.get(i, k) * y[k];
            }
            y[i] = acc / self.l.get(i, i);
        }
        // Lᵀ x = y.
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in i + 1..n {
                acc -= self.l.get(k, i) * y[k];
            }
            y[i] = acc / self.l.get(i, i);
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    fn spd3() -> DenseMatrix {
        // L0 · L0ᵀ for L0 = [[2,0,0],[1,3,0],[0.5,1,1.5]].
        DenseMatrix::from_rows(&[
            vec![4.0, 2.0, 1.0],
            vec![2.0, 10.0, 3.5],
            vec![1.0, 3.5, 3.5],
        ])
        .unwrap()
    }

    #[test]
    fn factorize_reconstructs() {
        let a = spd3();
        let f = CholeskyFactors::factorize(&a).unwrap();
        let l = f.l();
        let rebuilt = l.matmul(&l.transpose()).unwrap();
        assert!(max_abs_diff(rebuilt.as_slice(), a.as_slice()) < 1e-10);
        // Known factor.
        assert!((l.get(0, 0) - 2.0).abs() < 1e-12);
        assert!((l.get(1, 0) - 1.0).abs() < 1e-12);
        assert!((l.get(1, 1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd3();
        let f = CholeskyFactors::factorize(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = f.solve(&b).unwrap();
        let lu = crate::LuFactors::factorize(&a).unwrap().solve(&b).unwrap();
        assert!(max_abs_diff(&x, &lu) < 1e-9);
        assert!(f.solve(&[1.0]).is_err());
    }

    #[test]
    fn indefinite_rejected() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            CholeskyFactors::factorize(&a),
            Err(LinalgError::Singular { column: 1 })
        ));
        let rect = DenseMatrix::zeros(2, 3);
        assert!(CholeskyFactors::factorize(&rect).is_err());
    }
}
