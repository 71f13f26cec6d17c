//! Dense matrices with BLAS-style operations.
//!
//! [`DenseMatrix`] is stored row-major in a single contiguous `Vec<f64>`,
//! which matches the access pattern of the blocked kernels in [`crate::lu`]
//! and keeps host↔device transfers in `gmip-gpu` a single contiguous copy.

use crate::{LinalgError, Result};

/// Raw slice dot product; the hot inner loop of pricing and FTRAN/BTRAN.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Manual 4-way unroll: keeps independent accumulator chains so the
    // compiler can vectorize without needing -ffast-math style reassociation.
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += a[j] * b[j];
        acc1 += a[j + 1] * b[j + 1];
        acc2 += a[j + 2] * b[j + 2];
        acc3 += a[j + 3] * b[j + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for j in chunks * 4..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

/// `y ← y + alpha * x` on raw slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if alpha == 0.0 {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// A dense row-major matrix of `f64` entries.
#[derive(Debug, Default, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for DenseMatrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Overwrites `self` with `source`, reusing `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl DenseMatrix {
    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of rows (each row a `Vec<f64>` of equal
    /// length). Convenient in tests.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::InvalidFormat {
                    context: "ragged rows".into(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Entry accessor (checked in debug builds only; hot path).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.col_into(j, &mut out);
        out
    }

    /// Copies column `j` into `out` (length [`rows`](Self::rows)) without
    /// allocating.
    pub fn col_into(&self, j: usize, out: &mut [f64]) {
        debug_assert!(j < self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.get(i, j);
        }
    }

    /// Overwrites `self` with columns `cols` of `src` (column `k` of the
    /// result is column `cols[k]` of `src`), reusing `self`'s allocation —
    /// the basis gather of a simplex install. On an out-of-range column
    /// `self` is left untouched.
    pub fn assign_columns(&mut self, src: &DenseMatrix, cols: &[usize]) -> Result<()> {
        if let Some(&c) = cols.iter().find(|&&c| c >= src.cols) {
            return Err(LinalgError::OutOfBounds {
                index: c,
                bound: src.cols,
            });
        }
        self.rows = src.rows;
        self.cols = cols.len();
        self.data.clear();
        self.data.reserve(src.rows * cols.len());
        for i in 0..src.rows {
            let row = src.row(i);
            self.data.extend(cols.iter().map(|&c| row[c]));
        }
        Ok(())
    }

    /// Raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Number of bytes occupied by the value data (used by the device memory
    /// accounting in `gmip-gpu`).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Swap rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        debug_assert!(a < self.rows && b < self.rows);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Matrix transpose (allocates).
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix–vector product `y = A x` (BLAS `gemv` with alpha=1, beta=0).
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// In-place form of [`matvec`](Self::matvec): writes `y` (length
    /// [`rows`](Self::rows)) without allocating. Same loop order, same bits.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "matvec: A is {}x{}, x has {}, y has {}",
                    self.rows,
                    self.cols,
                    x.len(),
                    y.len()
                ),
            });
        }
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = dot(self.row(i), x);
        }
        Ok(())
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.cols];
        self.matvec_transposed_into(x, &mut y)?;
        Ok(y)
    }

    /// In-place form of [`matvec_transposed`](Self::matvec_transposed):
    /// overwrites `y` (length [`cols`](Self::cols)) without allocating.
    /// Same loop order, same bits.
    pub fn matvec_transposed_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "matvec_transposed: A is {}x{}, x has {}, y has {}",
                    self.rows,
                    self.cols,
                    x.len(),
                    y.len()
                ),
            });
        }
        y.fill(0.0);
        for i in 0..self.rows {
            axpy(x[i], self.row(i), y);
        }
        Ok(())
    }

    /// Matrix–matrix product `C = A B` (BLAS `gemm` with alpha=1, beta=0).
    ///
    /// Uses the i-k-j loop order so the inner loop streams both `B`'s row and
    /// `C`'s row contiguously.
    pub fn matmul(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != b.rows {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, b.rows, b.cols
                ),
            });
        }
        let mut c = DenseMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                let crow = &mut c.data[i * b.cols..(i + 1) * b.cols];
                axpy(aik, brow, crow);
            }
        }
        Ok(c)
    }

    /// Appends a row to the bottom of the matrix (used when cuts are added to
    /// the constraint matrix, Section 5.2).
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if self.rows > 0 && row.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: format!("push_row: row of {} onto {} cols", row.len(), self.cols),
            });
        }
        if self.rows == 0 {
            self.cols = row.len();
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Appends a column on the right of the matrix (used when a cut's slack
    /// variable extends the equality-form system).
    pub fn push_col(&mut self, col: &[f64]) -> Result<()> {
        if self.rows > 0 && col.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: format!("push_col: column of {} onto {} rows", col.len(), self.rows),
            });
        }
        if self.rows == 0 {
            self.rows = col.len();
            self.cols = 1;
            self.data = col.to_vec();
            return Ok(());
        }
        let new_cols = self.cols + 1;
        let mut data = Vec::with_capacity(self.rows * new_cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.push(col[i]);
        }
        self.data = data;
        self.cols = new_cols;
        Ok(())
    }

    /// Fraction of entries whose magnitude exceeds [`crate::ZERO_TOL`];
    /// drives the dense/sparse runtime dispatch of Section 5.4.
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let nnz = self
            .data
            .iter()
            .filter(|x| x.abs() > crate::ZERO_TOL)
            .count();
        nnz as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_unrolled_matches_naive() {
        // Length 11 exercises both the unrolled body and the remainder loop.
        let a: Vec<f64> = (0..11).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..11).map(|i| (i as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn matrix_identity_and_get_set() {
        let mut m = DenseMatrix::identity(3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert!(m.is_square());
    }

    #[test]
    fn matrix_from_rows_and_ragged() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let y = m.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0, 11.0]);
        let z = m.matvec_transposed(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(z, vec![9.0, 12.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_against_identity_and_hand_case() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]).unwrap()
        );
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn swap_rows_works_both_orders() {
        let mut a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        a.swap_rows(0, 1);
        assert_eq!(a.row(0), &[3.0, 4.0]);
        a.swap_rows(1, 0);
        assert_eq!(a.row(0), &[1.0, 2.0]);
        a.swap_rows(1, 1); // no-op
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = DenseMatrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn push_col_grows_matrix() {
        let mut m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        m.push_col(&[9.0, 8.0]).unwrap();
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(m.row(1), &[3.0, 4.0, 8.0]);
        assert!(m.push_col(&[1.0]).is_err());
        // From empty.
        let mut e = DenseMatrix::zeros(0, 0);
        e.push_col(&[5.0, 6.0]).unwrap();
        assert_eq!((e.rows(), e.cols()), (2, 1));
    }

    #[test]
    fn density_counts_structural_nonzeros() {
        let mut m = DenseMatrix::zeros(2, 2);
        assert_eq!(m.density(), 0.0);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1e-15); // below ZERO_TOL: not counted
        assert!((m.density() - 0.25).abs() < 1e-12);
    }
}
