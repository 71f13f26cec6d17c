//! Dense LU factorization with partial pivoting.
//!
//! `PA = LU` with `L` unit lower triangular and `U` upper triangular, packed
//! into a single matrix as LAPACK's `getrf` does. This is the workhorse dense
//! factorization of Section 4.1 (cuSOLVER/MAGMA `getrf`-class routine); the
//! simulated accelerator charges its cost model for calls into this kernel.

use crate::dense::DenseMatrix;
use crate::triangular;
use crate::{LinalgError, Result, PIVOT_TOL};

/// The result of an LU factorization with partial pivoting.
///
/// Both factors are packed into `lu`: the strictly lower part holds `L`
/// (unit diagonal implied) and the upper part (with diagonal) holds `U`.
/// `perm[i]` gives the original row index that ended up in position `i`,
/// i.e. `(PA)[i][j] = A[perm[i]][j]`.
///
/// The default value is the (trivial) factorization of the `0 × 0` matrix;
/// it is also what a failed in-place refactorization leaves behind, so
/// stale factors can never answer a solve.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Factorizes `a` (which must be square) with partial pivoting.
    ///
    /// Returns [`LinalgError::Singular`] if a pivot below [`PIVOT_TOL`] is
    /// encountered.
    pub fn factorize(a: &DenseMatrix) -> Result<Self> {
        let mut f = Self::default();
        f.refactorize(a)?;
        Ok(f)
    }

    /// [`factorize`](Self::factorize) into this value's storage: no
    /// allocation once it has held a matrix of `a`'s size. A failure leaves
    /// the default (empty) factors.
    pub fn refactorize(&mut self, a: &DenseMatrix) -> Result<()> {
        self.lu.clone_from(a);
        let done = self.eliminate();
        self.or_reset(done)
    }

    /// Factorizes the square matrix made of columns `cols` of `a` (the
    /// simplex basis gathered from the constraint matrix), assembling it
    /// directly in this value's storage. A failure leaves the default
    /// (empty) factors.
    pub fn refactorize_columns(&mut self, a: &DenseMatrix, cols: &[usize]) -> Result<()> {
        let done = self
            .lu
            .assign_columns(a, cols)
            .and_then(|()| self.eliminate());
        self.or_reset(done)
    }

    fn or_reset(&mut self, done: Result<()>) -> Result<()> {
        if done.is_err() {
            *self = Self::default();
        }
        done
    }

    /// Gaussian elimination with partial pivoting of the matrix held in
    /// `lu`, in place.
    fn eliminate(&mut self) -> Result<()> {
        let lu = &mut self.lu;
        if !lu.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: format!("LU of {}x{} matrix", lu.rows(), lu.cols()),
            });
        }
        let n = lu.rows();
        self.perm.clear();
        self.perm.extend(0..n);

        for k in 0..n {
            // Partial pivoting: find the largest |entry| in column k at or
            // below the diagonal.
            let mut piv_row = k;
            let mut piv_val = lu.get(k, k).abs();
            for i in k + 1..n {
                let v = lu.get(i, k).abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = i;
                }
            }
            if piv_val < PIVOT_TOL {
                return Err(LinalgError::Singular { column: k });
            }
            if piv_row != k {
                lu.swap_rows(piv_row, k);
                self.perm.swap(piv_row, k);
            }
            let pivot = lu.get(k, k);
            // Eliminate below the pivot; the multiplier is stored in place
            // (that is the L entry).
            for i in k + 1..n {
                let m = lu.get(i, k) / pivot;
                lu.set(i, k, m);
                if m == 0.0 {
                    continue;
                }
                // row_i ← row_i − m · row_k for columns k+1..n.
                // Split borrows: row k is strictly before row i.
                let cols = lu.cols();
                let data = lu.as_mut_slice();
                let (head, tail) = data.split_at_mut(i * cols);
                let row_k = &head[k * cols..(k + 1) * cols];
                let row_i = &mut tail[..cols];
                for j in k + 1..cols {
                    row_i[j] -= m * row_k[j];
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Entries the packed factors store, `n²` — the dense counterpart of
    /// [`SparseLu::fill_nnz`](crate::SparseLu::fill_nnz).
    #[inline]
    pub fn fill_nnz(&self) -> usize {
        self.lu.rows() * self.lu.cols()
    }

    /// Row permutation: position `i` of the permuted system holds original
    /// row `perm()[i]`.
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A x = b`, returning `x`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// In-place form of [`solve`](Self::solve): writes `x` (length
    /// [`dim`](Self::dim)) without allocating. Same loop order, same bits.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n || x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "solve: system of {}, rhs of {}, x of {}",
                    n,
                    b.len(),
                    x.len()
                ),
            });
        }
        // Apply permutation: y = P b.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        triangular::forward_subst_unit(&self.lu, x)?;
        triangular::backward_subst(&self.lu, x)
    }

    /// Solves `Aᵀ x = b`, returning `x`. Needed for BTRAN in the revised
    /// simplex method (computing dual prices).
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut work = vec![0.0; self.dim()];
        let mut x = vec![0.0; self.dim()];
        self.solve_transposed_into(b, &mut work, &mut x)?;
        Ok(x)
    }

    /// In-place form of [`solve_transposed`](Self::solve_transposed):
    /// writes `x` without allocating; `work` is caller-provided scratch.
    /// Both must have length [`dim`](Self::dim).
    pub fn solve_transposed_into(&self, b: &[f64], work: &mut [f64], x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n || work.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: format!("solve_transposed: system of {}, rhs of {}", n, b.len()),
            });
        }
        work.copy_from_slice(b);
        self.solve_transposed_consuming(work, x)
    }

    /// [`solve_transposed_into`](Self::solve_transposed_into) with the
    /// right-hand side already in `z`, which is overwritten.
    pub(crate) fn solve_transposed_consuming(&self, z: &mut [f64], x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if z.len() != n || x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: format!("solve_transposed: system of {}, rhs of {}", n, z.len()),
            });
        }
        // Aᵀ = (P⁻¹ L U)ᵀ = Uᵀ Lᵀ P⁻ᵀ, so solve Uᵀ z = b, then Lᵀ w = z,
        // then x = Pᵀ w (scatter w back through the permutation).
        triangular::backward_subst_transposed(&self.lu, z)?;
        triangular::forward_subst_unit_transposed(&self.lu, z)?;
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = z[i];
        }
        Ok(())
    }

    /// Reconstructs `P A` as `L U` — used by property tests to verify the
    /// factorization invariant.
    pub fn reconstruct_permuted(&self) -> DenseMatrix {
        let n = self.dim();
        let mut out = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                // (LU)[i][j] = sum_k L[i][k] U[k][j], k <= min(i, j)
                let kmax = i.min(j);
                let mut acc = 0.0;
                for k in 0..=kmax {
                    let l = if k == i { 1.0 } else { self.lu.get(i, k) };
                    let u = if k <= j { self.lu.get(k, j) } else { 0.0 };
                    acc += l * u;
                }
                out.set(i, j, acc);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    fn well_conditioned_3x3() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 1.0],
            vec![4.0, -6.0, 0.0],
            vec![-2.0, 7.0, 2.0],
        ])
        .unwrap()
    }

    #[test]
    fn factorize_and_solve() {
        let a = well_conditioned_3x3();
        let f = LuFactors::factorize(&a).unwrap();
        let b = vec![5.0, -2.0, 9.0];
        let x = f.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10, "Ax={ax:?} b={b:?}");
        }
    }

    #[test]
    fn reconstruction_matches_permuted_a() {
        let a = well_conditioned_3x3();
        let f = LuFactors::factorize(&a).unwrap();
        let pa_rows: Vec<Vec<f64>> = f.perm().iter().map(|&p| a.row(p).to_vec()).collect();
        let pa = DenseMatrix::from_rows(&pa_rows).unwrap();
        let lu = f.reconstruct_permuted();
        assert!(max_abs_diff(pa.as_slice(), lu.as_slice()) < 1e-12);
    }

    #[test]
    fn transposed_solve() {
        let a = well_conditioned_3x3();
        let f = LuFactors::factorize(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = f.solve_transposed(&b).unwrap();
        let atx = a.transpose().matvec(&x).unwrap();
        for (got, want) in atx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuFactors::factorize(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn refactorization_in_place_matches_fresh_factors_and_fails_empty() {
        let a = DenseMatrix::from_rows(&[
            vec![9.0, 2.0, 1.0, 1.0, 0.5],
            vec![9.0, 4.0, -6.0, 0.0, 1.0],
            vec![9.0, -2.0, 7.0, 2.0, 2.0],
        ])
        .unwrap();
        // A used value, larger than what it is about to hold.
        let mut f = LuFactors::factorize(&DenseMatrix::identity(4)).unwrap();
        f.refactorize_columns(&a, &[1, 2, 3]).unwrap();
        let fresh = LuFactors::factorize(&well_conditioned_3x3()).unwrap();
        assert_eq!(f.perm(), fresh.perm());
        let b = [5.0, -2.0, 9.0];
        assert_eq!(f.solve(&b).unwrap(), fresh.solve(&b).unwrap());
        assert_eq!(
            f.solve_transposed(&b).unwrap(),
            fresh.solve_transposed(&b).unwrap()
        );
        // Two equal columns, a column out of range, a non-square gather:
        // each failure leaves the empty factors, never the previous ones.
        for cols in [&[0, 0, 1][..], &[1, 2, 7], &[1, 2]] {
            f.refactorize_columns(&a, &[1, 2, 3]).unwrap();
            assert!(f.refactorize_columns(&a, cols).is_err());
            assert_eq!(f.dim(), 0);
            assert!(f.solve(&b).is_err());
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(LuFactors::factorize(&a).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let f = LuFactors::factorize(&a).unwrap();
        let x = f.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }
}
