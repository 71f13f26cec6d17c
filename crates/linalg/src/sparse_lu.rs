//! Left-looking (Gilbert–Peierls) sparse LU factorization with partial
//! pivoting.
//!
//! This is the KLU/GLU-class routine that Section 4.2 identifies as the weak
//! point of GPU vendor libraries: it has irregular, data-dependent memory
//! access and produces fill-in, which is exactly why the simulated GPU's cost
//! model charges sparse factorization at a much lower effective throughput
//! than dense factorization (Section 5.4's dense-vs-sparse considerations).
//!
//! The factorization computes `P A = L U` column by column: each column of
//! `A` is solved against the already-computed columns of `L`, then a partial
//! pivot is chosen among the not-yet-pivotal rows.

use crate::sparse::CscMatrix;
use crate::{LinalgError, Result, PIVOT_TOL, ZERO_TOL};

/// Sparse LU factors of a square matrix, `P A = L U`. The default value
/// factors the `0 × 0` matrix.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// Columns of L (unit diagonal implicit); entries are `(original_row, value)`
    /// for rows that were *not yet pivotal* when the column was formed. Only
    /// the first `n` are the factors': the rest are buffers kept from a
    /// larger factorization.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Columns of U; entries are `(pivot_position, value)` with the diagonal
    /// entry last. Kept like `l_cols`.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// `perm[k]` = original row chosen as the pivot of step `k`.
    perm: Vec<usize>,
    /// Inverse permutation: `pinv[original_row]` = pivot position.
    pinv: Vec<usize>,
    /// Dense scratch of the column being factored, indexed by original row.
    x: Vec<f64>,
}

impl SparseLu {
    /// Factorizes a square CSC matrix.
    pub fn factorize(a: &CscMatrix) -> Result<Self> {
        let mut lu = Self::default();
        lu.refactorize(a)?;
        Ok(lu)
    }

    /// Replaces these factors by those of `a`, in the storage of the old
    /// ones: every column buffer, the permutations and the scratch column
    /// are reused. A failure leaves the factors of the `0 × 0` matrix, so
    /// stale ones can never answer a solve.
    pub fn refactorize(&mut self, a: &CscMatrix) -> Result<()> {
        const UNSET: usize = usize::MAX;
        self.n = 0;
        self.perm.clear();
        self.pinv.clear();
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: format!("sparse LU of {}x{}", a.rows(), a.cols()),
            });
        }
        if self.l_cols.len() < n {
            self.l_cols.resize_with(n, Vec::new);
            self.u_cols.resize_with(n, Vec::new);
        }
        self.perm.resize(n, UNSET);
        self.pinv.resize(n, UNSET);
        let x = &mut self.x;
        x.clear();
        x.resize(n, 0.0);
        let (perm, pinv) = (&mut self.perm, &mut self.pinv);

        for j in 0..n {
            // Scatter A[:, j].
            for (i, v) in a.col_iter(j) {
                x[i] = v;
            }
            let (done, rest) = self.l_cols.split_at_mut(j);
            let u_j = &mut self.u_cols[j];
            u_j.clear();
            // Left-looking update: apply previous columns of L in pivot order.
            for (k, l_k) in done.iter().enumerate() {
                let piv_row = perm[k];
                let xk = x[piv_row];
                if xk.abs() <= ZERO_TOL {
                    x[piv_row] = 0.0;
                    continue;
                }
                u_j.push((k, xk));
                x[piv_row] = 0.0;
                for &(r, lv) in l_k {
                    x[r] -= xk * lv;
                }
            }
            // Partial pivot among not-yet-pivotal rows.
            let mut piv_row = UNSET;
            let mut piv_val = 0.0;
            for r in 0..n {
                if pinv[r] == UNSET && x[r].abs() > piv_val {
                    piv_val = x[r].abs();
                    piv_row = r;
                }
            }
            if piv_row == UNSET || piv_val < PIVOT_TOL {
                perm.clear();
                pinv.clear();
                return Err(LinalgError::Singular { column: j });
            }
            let pivot = x[piv_row];
            u_j.push((j, pivot));
            x[piv_row] = 0.0;
            perm[j] = piv_row;
            pinv[piv_row] = j;
            // Gather L column (below-diagonal part), normalized by the pivot.
            let l_j = &mut rest[0];
            l_j.clear();
            for r in 0..n {
                if pinv[r] == UNSET && x[r].abs() > ZERO_TOL {
                    l_j.push((r, x[r] / pivot));
                }
                x[r] = 0.0;
            }
        }
        self.n = n;
        Ok(())
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total stored nonzeros in `L` (excluding the unit diagonal) plus `U` —
    /// the fill-in measure the GPU cost model charges for.
    pub fn fill_nnz(&self) -> usize {
        let n = self.n;
        self.l_cols[..n].iter().map(Vec::len).sum::<usize>()
            + self.u_cols[..n].iter().map(Vec::len).sum::<usize>()
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// In-place form of [`solve`](Self::solve): writes `x` (length
    /// [`dim`](Self::dim)) without allocating. Same loop order, same bits.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        if b.len() != self.n || x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                context: format!("sparse solve: system {}, rhs {}", self.n, b.len()),
            });
        }
        // Forward: L y = P b, y indexed by pivot position.
        for (xi, &r) in x.iter_mut().zip(&self.perm) {
            *xi = b[r];
        }
        for k in 0..self.n {
            let yk = x[k];
            if yk == 0.0 {
                continue;
            }
            for &(r, lv) in &self.l_cols[k] {
                x[self.pinv[r]] -= yk * lv;
            }
        }
        // Backward: U x = y. Columns processed right to left.
        for j in (0..self.n).rev() {
            let col = &self.u_cols[j];
            // Diagonal is the last entry by construction.
            let &(dj, dv) = col.last().expect("U column has a diagonal");
            debug_assert_eq!(dj, j);
            let xj = x[j] / dv;
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for &(k, uv) in &col[..col.len() - 1] {
                x[k] -= uv * xj;
            }
        }
        Ok(())
    }

    /// Solves `Aᵀ x = b` (the BTRAN direction for a sparse-factored basis).
    ///
    /// `Aᵀ = Uᵀ Lᵀ P`, so solve `Uᵀ z = b`, then `Lᵀ w = z`, then scatter
    /// `x[perm[k]] = w[k]`.
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut work = vec![0.0; self.n];
        let mut x = vec![0.0; self.n];
        self.solve_transposed_into(b, &mut work, &mut x)?;
        Ok(x)
    }

    /// In-place form of [`solve_transposed`](Self::solve_transposed):
    /// writes `x` without allocating; `work` is caller-provided scratch.
    /// Both must have length [`dim`](Self::dim).
    pub fn solve_transposed_into(&self, b: &[f64], work: &mut [f64], x: &mut [f64]) -> Result<()> {
        if b.len() != self.n || work.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                context: format!("sparse solve_t: system {}, rhs {}", self.n, b.len()),
            });
        }
        work.copy_from_slice(b);
        self.solve_transposed_consuming(work, x)
    }

    /// [`solve_transposed_into`](Self::solve_transposed_into) with the
    /// right-hand side already in `z`, which is overwritten.
    pub(crate) fn solve_transposed_consuming(&self, z: &mut [f64], x: &mut [f64]) -> Result<()> {
        if z.len() != self.n || x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                context: format!("sparse solve_t: system {}, rhs {}", self.n, z.len()),
            });
        }
        // Uᵀ is lower triangular over pivot positions; U stored by columns
        // means Uᵀ's row j = U's column j. Forward solve: for j ascending,
        // z_j = (b_j − Σ_{k<j} U[k][j] z_k) / U[j][j].
        for j in 0..self.n {
            let col = &self.u_cols[j];
            let &(dj, dv) = col.last().expect("U column has a diagonal");
            debug_assert_eq!(dj, j);
            let mut acc = z[j];
            for &(k, uv) in &col[..col.len() - 1] {
                acc -= uv * z[k];
            }
            z[j] = acc / dv;
        }
        // Lᵀ is unit upper triangular: backward solve. L's column k holds
        // L[i][k] for rows i (original indices) with pivot position
        // pinv[i] > k; Lᵀ row k = those entries.
        for k in (0..self.n).rev() {
            let mut acc = z[k];
            for &(r, lv) in &self.l_cols[k] {
                acc -= lv * z[self.pinv[r]];
            }
            z[k] = acc;
        }
        // x = Pᵀ w: row perm[k] of A maps to pivot position k.
        for (k, &orig_row) in self.perm.iter().enumerate() {
            x[orig_row] = z[k];
        }
        Ok(())
    }

    /// Reconstructs the dense product `L U` re-permuted back to `A`'s row
    /// order (property-test helper).
    pub fn reconstruct(&self) -> crate::DenseMatrix {
        let n = self.n;
        // Dense L (positions) and U.
        let mut l = crate::DenseMatrix::identity(n);
        for (k, col) in self.l_cols[..n].iter().enumerate() {
            for &(r, v) in col {
                l.set(self.pinv[r], k, v);
            }
        }
        let mut u = crate::DenseMatrix::zeros(n, n);
        for (j, col) in self.u_cols[..n].iter().enumerate() {
            for &(k, v) in col {
                u.set(k, j, v);
            }
        }
        let pa = l.matmul(&u).expect("square product");
        // Undo the row permutation: row pinv[r] of PA is row r of A.
        let mut a = crate::DenseMatrix::zeros(n, n);
        for r in 0..n {
            let src = pa.row(self.pinv[r]).to_vec();
            a.row_mut(r).copy_from_slice(&src);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;
    use crate::sparse::CooMatrix;
    use crate::DenseMatrix;

    fn circuit_like() -> CscMatrix {
        // A sparse, diagonally-dominant-ish matrix with off-diagonal couplings.
        let mut coo = CooMatrix::new(5, 5);
        let entries = [
            (0, 0, 4.0),
            (0, 2, -1.0),
            (1, 1, 5.0),
            (1, 3, -2.0),
            (2, 0, -1.0),
            (2, 2, 6.0),
            (2, 4, -1.0),
            (3, 1, -2.0),
            (3, 3, 7.0),
            (4, 2, -1.0),
            (4, 4, 3.0),
        ];
        for (i, j, v) in entries {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn factorize_and_solve_sparse_system() {
        let a = circuit_like();
        let f = SparseLu::factorize(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x = f.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn reconstruction_matches_original() {
        let a = circuit_like();
        let f = SparseLu::factorize(&a).unwrap();
        let rebuilt = f.reconstruct();
        let dense = a.to_dense();
        assert!(max_abs_diff(rebuilt.as_slice(), dense.as_slice()) < 1e-9);
    }

    #[test]
    fn agrees_with_dense_lu() {
        let a = circuit_like();
        let f_sparse = SparseLu::factorize(&a).unwrap();
        let f_dense = crate::LuFactors::factorize(&a.to_dense()).unwrap();
        let b = vec![0.5, -1.0, 2.0, 0.0, 1.0];
        let xs = f_sparse.solve(&b).unwrap();
        let xd = f_dense.solve(&b).unwrap();
        assert!(max_abs_diff(&xs, &xd) < 1e-9);
    }

    #[test]
    fn transposed_solve_matches_dense() {
        let a = circuit_like();
        let f = SparseLu::factorize(&a).unwrap();
        let fd = crate::LuFactors::factorize(&a.to_dense()).unwrap();
        let b = vec![1.0, -2.0, 0.5, 3.0, 0.0];
        let xs = f.solve_transposed(&b).unwrap();
        let xd = fd.solve_transposed(&b).unwrap();
        assert!(max_abs_diff(&xs, &xd) < 1e-9);
        // Verify Aᵀ x = b directly.
        let at = a.to_dense().transpose();
        let atx = at.matvec(&xs).unwrap();
        assert!(max_abs_diff(&atx, &b) < 1e-9);
        // Wrong length rejected.
        assert!(f.solve_transposed(&[1.0]).is_err());
    }

    #[test]
    fn pivoting_required_matrix() {
        // Leading entry zero forces a row interchange.
        let d = DenseMatrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 1.0]]).unwrap();
        let a = CscMatrix::from_dense(&d);
        let f = SparseLu::factorize(&a).unwrap();
        let x = f.solve(&[4.0, 5.0]).unwrap();
        // 2y=... system: x = [1, 2]
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        let a = CscMatrix::from_dense(&d);
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let d = DenseMatrix::zeros(2, 3);
        let a = CscMatrix::from_dense(&d);
        assert!(SparseLu::factorize(&a).is_err());
    }

    #[test]
    fn fill_nnz_at_least_input_nnz() {
        let a = circuit_like();
        let f = SparseLu::factorize(&a).unwrap();
        // L (strict) + U (incl. diagonal) must cover at least the original
        // pattern's information content.
        assert!(f.fill_nnz() >= a.nnz() - a.rows() + a.rows());
    }

    #[test]
    fn identity_has_no_fill() {
        let a = CscMatrix::from_dense(&DenseMatrix::identity(4));
        let f = SparseLu::factorize(&a).unwrap();
        // U holds just the 4 diagonal entries; L is empty.
        assert_eq!(f.fill_nnz(), 4);
        let x = f.solve(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    /// The factors as bits: dimension, L and U columns, permutations.
    type Bits = (
        usize,
        Vec<Vec<(usize, u64)>>,
        Vec<Vec<(usize, u64)>>,
        Vec<usize>,
        Vec<usize>,
    );

    fn bits(f: &SparseLu) -> Bits {
        let cols = |c: &[Vec<(usize, f64)>]| {
            c[..f.n]
                .iter()
                .map(|col| col.iter().map(|&(i, v)| (i, v.to_bits())).collect())
                .collect()
        };
        let (l, u) = (cols(&f.l_cols), cols(&f.u_cols));
        (f.n, l, u, f.perm.clone(), f.pinv.clone())
    }

    #[test]
    fn refactorizing_in_place_is_factorizing_afresh() {
        let mut f = SparseLu::default();
        // A larger matrix, then a smaller one: the smaller's factors, in
        // the larger's buffers.
        let small = DenseMatrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 1.0]]).unwrap();
        for a in [circuit_like(), CscMatrix::from_dense(&small)] {
            f.refactorize(&a).unwrap();
            assert_eq!(bits(&f), bits(&SparseLu::factorize(&a).unwrap()));
        }
        // A singular one leaves the 0 × 0 factors, and the next factors
        // are a fresh factorization's again.
        let singular = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        let err = f.refactorize(&CscMatrix::from_dense(&singular));
        assert!(matches!(err, Err(LinalgError::Singular { .. })));
        assert_eq!(bits(&f), bits(&SparseLu::default()));
        assert!(f.solve(&[1.0, 2.0]).is_err());
        let a = circuit_like();
        f.refactorize(&a).unwrap();
        assert_eq!(bits(&f), bits(&SparseLu::factorize(&a).unwrap()));
        let b = [0.5, -1.0, 2.0, 0.0, 1.0];
        assert_eq!(f.solve(&b), SparseLu::factorize(&a).unwrap().solve(&b));
    }
}
