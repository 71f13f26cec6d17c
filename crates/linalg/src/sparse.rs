//! Sparse matrix storage: COO (builder), CSR (row-oriented products), and
//! CSC (column-oriented factorization).
//!
//! These mirror the formats supported by cuSPARSE/rocSPARSE (Section 4.2).
//! The MIP constraint matrices the paper targets are sparse in MIPLIB-style
//! instances, so the solver's sparse code path (Section 5.4) runs on these
//! structures, while the dense path converts to [`crate::DenseMatrix`].

use crate::dense::DenseMatrix;
use crate::{LinalgError, Result, ZERO_TOL};

/// Coordinate-format builder for sparse matrices.
///
/// Accumulates `(row, col, value)` triplets in any order (duplicates are
/// summed on conversion), then converts to [`CsrMatrix`] or [`CscMatrix`].
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty `rows × cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`; duplicates are summed at conversion time.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.rows {
            return Err(LinalgError::OutOfBounds {
                index: row,
                bound: self.rows,
            });
        }
        if col >= self.cols {
            return Err(LinalgError::OutOfBounds {
                index: col,
                bound: self.cols,
            });
        }
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
        Ok(())
    }

    /// Number of accumulated triplets (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Converts to CSR, merging duplicates and dropping entries that cancel
    /// to below [`ZERO_TOL`].
    pub fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        let mut it = entries.into_iter().peekable();
        while let Some((r, c, mut v)) = it.next() {
            while let Some(&(r2, c2, v2)) = it.peek() {
                if r2 == r && c2 == c {
                    v += v2;
                    it.next();
                } else {
                    break;
                }
            }
            if v.abs() > ZERO_TOL {
                row_ptr[r + 1] += 1;
                col_idx.push(c);
                values.push(v);
            }
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts to CSC via CSR transposition.
    pub fn to_csc(&self) -> CscMatrix {
        self.to_csr().to_csc()
    }
}

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `nnz / (rows*cols)`; the quantity the Section 5.4 dispatch inspects.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(i, j)` (binary search within the row; 0.0 if absent).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// In-place sparse matrix–vector product `y = A x` (no allocation).
    ///
    /// This is the single row-SpMV kernel every consumer routes through —
    /// the sparse simplex engine, the first-order PDHG engine, and the
    /// kernel-level benches — so the arithmetic (and therefore bit-exact
    /// determinism) is defined in exactly one place.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "spmv: A {}x{}, x {}, y {}",
                    self.rows,
                    self.cols,
                    x.len(),
                    y.len()
                ),
            });
        }
        for i in 0..self.rows {
            let mut acc = 0.0;
            for (j, v) in self.row_iter(i) {
                acc += v * x[j];
            }
            y[i] = acc;
        }
        Ok(())
    }

    /// Transposed product `y = Aᵀ x`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.cols];
        self.matvec_transposed_into(x, &mut y)?;
        Ok(y)
    }

    /// In-place transposed product `y = Aᵀ x` (no allocation).
    ///
    /// Row-major scatter: deterministic accumulation order regardless of
    /// how many lanes share the matrix.
    pub fn matvec_transposed_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "spmv_t: A {}x{}, x {}, y {}",
                    self.rows,
                    self.cols,
                    x.len(),
                    y.len()
                ),
            });
        }
        for v in y.iter_mut() {
            *v = 0.0;
        }
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (j, v) in self.row_iter(i) {
                y[j] += v * xi;
            }
        }
        Ok(())
    }

    /// Frobenius norm `‖A‖_F = sqrt(Σ aᵢⱼ²)` — an upper bound on the
    /// spectral norm `‖A‖₂`, which makes `1/‖A‖_F` a guaranteed-safe (and
    /// deterministically computable) primal-dual step-size scale.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales every stored entry in place, `aᵢⱼ ← aᵢⱼ · row[i] · col[j]`
    /// (a diagonal equilibration `D_r A D_c`). The sparsity pattern is
    /// kept as stored, whatever the scaled values.
    pub fn scale(&mut self, row: &[f64], col: &[f64]) {
        assert_eq!(row.len(), self.rows, "scale: row factors");
        assert_eq!(col.len(), self.cols, "scale: column factors");
        for (i, &r) in row.iter().enumerate() {
            let span = self.row_ptr[i]..self.row_ptr[i + 1];
            for (v, &j) in self.values[span.clone()]
                .iter_mut()
                .zip(&self.col_idx[span])
            {
                *v = *v * r * col[j];
            }
        }
    }

    /// Converts to CSC (a transpose-style counting pass).
    pub fn to_csc(&self) -> CscMatrix {
        let mut col_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            col_ptr[c + 1] += 1;
        }
        for j in 0..self.cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = self.nnz();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = col_ptr.clone();
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                let slot = next[j];
                row_idx[slot] = i;
                values[slot] = v;
                next[j] += 1;
            }
        }
        CscMatrix {
            rows: self.rows,
            cols: self.cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Expands to a dense matrix (for the dense code path and for tests).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                d.set(i, j, v);
            }
        }
        d
    }

    /// Builds a CSR matrix from a dense one, dropping entries below
    /// [`ZERO_TOL`].
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut coo = CooMatrix::new(d.rows(), d.cols());
        for i in 0..d.rows() {
            for (j, &v) in d.row(i).iter().enumerate() {
                if v.abs() > ZERO_TOL {
                    coo.push(i, j, v).expect("in-bounds by construction");
                }
            }
        }
        coo.to_csr()
    }

    /// Appends a sparse row (used when cuts are added; Section 5.2). The row
    /// is given as sorted `(col, value)` pairs.
    pub fn push_row(&mut self, entries: &[(usize, f64)]) -> Result<()> {
        for w in entries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(LinalgError::InvalidFormat {
                    context: "push_row entries not sorted by column".into(),
                });
            }
        }
        for &(c, _) in entries {
            if c >= self.cols {
                return Err(LinalgError::OutOfBounds {
                    index: c,
                    bound: self.cols,
                });
            }
        }
        for &(c, v) in entries {
            if v.abs() > ZERO_TOL {
                self.col_idx.push(c);
                self.values.push(v);
            }
        }
        self.rows += 1;
        self.row_ptr.push(self.col_idx.len());
        Ok(())
    }

    /// Appends a row **and grows the column count** to `new_cols` — the
    /// cut-incorporation shape where the cut row arrives together with its
    /// fresh slack column (whose single entry sits in the new row).
    pub fn push_row_grow(&mut self, entries: &[(usize, f64)], new_cols: usize) -> Result<()> {
        if new_cols < self.cols {
            return Err(LinalgError::InvalidFormat {
                context: format!("push_row_grow: shrinking cols {} -> {new_cols}", self.cols),
            });
        }
        for w in entries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(LinalgError::InvalidFormat {
                    context: "push_row_grow entries not sorted by column".into(),
                });
            }
        }
        if let Some(&(c, _)) = entries.last() {
            if c >= new_cols {
                return Err(LinalgError::OutOfBounds {
                    index: c,
                    bound: new_cols,
                });
            }
        }
        self.cols = new_cols;
        for &(c, v) in entries {
            if v.abs() > ZERO_TOL {
                self.col_idx.push(c);
                self.values.push(v);
            }
        }
        self.rows += 1;
        self.row_ptr.push(self.col_idx.len());
        Ok(())
    }

    /// Bytes of value+index payload (for device-memory accounting).
    pub fn size_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.row_ptr.len() * std::mem::size_of::<usize>()
    }
}

/// Compressed sparse column matrix (the natural format for left-looking
/// sparse LU, [`crate::sparse_lu`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(row, value)` pairs of column `j`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix–vector product `y = A x` (column-oriented accumulate).
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: format!("csc spmv: A {}x{}, x {}", self.rows, self.cols, x.len()),
            });
        }
        let mut y = vec![0.0; self.rows];
        for j in 0..self.cols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for (i, v) in self.col_iter(j) {
                y[i] += v * xj;
            }
        }
        Ok(y)
    }

    /// Gathers a subset of columns into a new CSC matrix (the device-side
    /// basis-assembly operation of the sparse code path; column `k` of the
    /// result is column `cols[k]` of `self`).
    pub fn select_columns(&self, cols: &[usize]) -> Result<CscMatrix> {
        let mut col_ptr = Vec::with_capacity(cols.len() + 1);
        col_ptr.push(0usize);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        for &c in cols {
            if c >= self.cols {
                return Err(LinalgError::OutOfBounds {
                    index: c,
                    bound: self.cols,
                });
            }
            for (i, v) in self.col_iter(c) {
                row_idx.push(i);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        Ok(CscMatrix {
            rows: self.rows,
            cols: cols.len(),
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Converts to CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &r in &self.row_idx {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = self.nnz();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = row_ptr.clone();
        for j in 0..self.cols {
            for (i, v) in self.col_iter(j) {
                let slot = next[i];
                col_idx[slot] = j;
                values[slot] = v;
                next[i] += 1;
            }
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Expands to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for (i, v) in self.col_iter(j) {
                d.set(i, j, v);
            }
        }
        d
    }

    /// Builds from dense, dropping sub-tolerance entries.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        CsrMatrix::from_dense(d).to_csc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 0, 4.0).unwrap();
        coo.push(2, 2, 5.0).unwrap();
        coo
    }

    #[test]
    fn coo_bounds_checked() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
        assert_eq!(coo.len(), 1);
    }

    #[test]
    fn coo_duplicates_summed_and_cancellation_dropped() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 1, 5.0).unwrap();
        coo.push(0, 1, -5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn csr_get_and_density() {
        let csr = sample_coo().to_csr();
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.get(0, 2), 2.0);
        assert_eq!(csr.get(1, 0), 0.0);
        assert!((csr.density() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn csr_matvec_and_transpose_product() {
        let csr = sample_coo().to_csr();
        let y = csr.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 3.0, 9.0]);
        let z = csr.matvec_transposed(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(z, vec![5.0, 3.0, 7.0]);
        assert!(csr.matvec(&[1.0]).is_err());
        assert!(csr.matvec_transposed(&[1.0]).is_err());
    }

    #[test]
    fn csr_matvec_into_matches_allocating_and_checks_shapes() {
        let csr = sample_coo().to_csr();
        let x = [2.0, -1.0, 0.5];
        let mut y = vec![7.0; 3];
        csr.matvec_into(&x, &mut y).unwrap();
        assert_eq!(y, csr.matvec(&x).unwrap());
        let mut z = vec![7.0; 3];
        csr.matvec_transposed_into(&x, &mut z).unwrap();
        assert_eq!(z, csr.matvec_transposed(&x).unwrap());
        // Output-shape mismatches are rejected, not silently truncated.
        let mut short = vec![0.0; 2];
        assert!(csr.matvec_into(&x, &mut short).is_err());
        assert!(csr.matvec_transposed_into(&x, &mut short).is_err());
    }

    #[test]
    fn frobenius_norm_dominates_spectral_action() {
        let csr = sample_coo().to_csr();
        let f = csr.frobenius_norm();
        assert!((f - (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0).sqrt()).abs() < 1e-12);
        // ‖Ax‖ ≤ ‖A‖_F ‖x‖ on a few deterministic probes.
        for x in [[1.0, 0.0, 0.0], [1.0, -1.0, 2.0], [0.3, 0.3, 0.3]] {
            let y = csr.matvec(&x).unwrap();
            let nx: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            let ny: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(ny <= f * nx + 1e-12);
        }
    }

    #[test]
    fn scale_is_diagonal_equilibration() {
        let csr = sample_coo().to_csr();
        let (row, col) = ([2.0, 0.5, -1.0], [1.0, 3.0, 0.25]);
        let mut scaled = csr.clone();
        scaled.scale(&row, &col);
        assert_eq!(scaled.nnz(), csr.nnz());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(scaled.get(i, j), csr.get(i, j) * row[i] * col[j]);
            }
        }
    }

    #[test]
    fn csr_csc_roundtrip() {
        let csr = sample_coo().to_csr();
        let csc = csr.to_csc();
        assert_eq!(csc.nnz(), csr.nnz());
        let back = csc.to_csr();
        assert_eq!(back, csr);
    }

    #[test]
    fn csc_matvec_matches_csr() {
        let csr = sample_coo().to_csr();
        let csc = csr.to_csc();
        let x = [2.0, -1.0, 0.5];
        assert_eq!(csr.matvec(&x).unwrap(), csc.matvec(&x).unwrap());
    }

    #[test]
    fn dense_roundtrip() {
        let csr = sample_coo().to_csr();
        let dense = csr.to_dense();
        assert_eq!(dense.get(2, 2), 5.0);
        let back = CsrMatrix::from_dense(&dense);
        assert_eq!(back, csr);
        let csc = CscMatrix::from_dense(&dense);
        assert_eq!(csc.to_dense(), dense);
    }

    #[test]
    fn push_row_appends_cut() {
        let mut csr = sample_coo().to_csr();
        csr.push_row(&[(0, 1.0), (1, 1.0)]).unwrap();
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.get(3, 0), 1.0);
        assert_eq!(csr.get(3, 2), 0.0);
        // Unsorted rejected.
        assert!(csr.push_row(&[(1, 1.0), (0, 1.0)]).is_err());
        // Out of bounds rejected.
        assert!(csr.push_row(&[(9, 1.0)]).is_err());
    }

    #[test]
    fn select_columns_gathers_basis() {
        let csc = sample_coo().to_csc();
        // Pick columns 2 and 0 (in that order).
        let b = csc.select_columns(&[2, 0]).unwrap();
        assert_eq!(b.cols(), 2);
        assert_eq!(b.rows(), 3);
        let d = b.to_dense();
        assert_eq!(d.col(0), vec![2.0, 0.0, 5.0]); // col 2 of A
        assert_eq!(d.col(1), vec![1.0, 0.0, 4.0]); // col 0 of A
                                                   // Repetition is allowed (a degenerate basis attempt — caller's
                                                   // factorization will reject it).
        let rep = csc.select_columns(&[1, 1]).unwrap();
        assert_eq!(rep.nnz(), 2);
        assert!(csc.select_columns(&[9]).is_err());
    }

    #[test]
    fn push_row_grow_extends_both_dims() {
        let mut csr = sample_coo().to_csr();
        // Cut row over structural cols 0,1 plus its new slack at column 3.
        csr.push_row_grow(&[(0, 1.0), (1, 2.0), (3, 1.0)], 4)
            .unwrap();
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.cols(), 4);
        assert_eq!(csr.get(3, 3), 1.0);
        assert_eq!(csr.get(0, 3), 0.0);
        // Shrinking or unsorted input rejected.
        assert!(csr.push_row_grow(&[(0, 1.0)], 2).is_err());
        assert!(csr.push_row_grow(&[(2, 1.0), (1, 1.0)], 5).is_err());
        assert!(csr.push_row_grow(&[(9, 1.0)], 5).is_err());
    }

    #[test]
    fn zeros_matrix() {
        let z = CsrMatrix::zeros(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0; 4]).unwrap(), vec![0.0; 3]);
        assert_eq!(z.density(), 0.0);
    }
}
