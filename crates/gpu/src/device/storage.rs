//! The two matrix storages, and the kernels that read them written once.
//!
//! Section 5.4's dense-resident and CSR-resident simplex differ in what a
//! kernel *costs* — dense throughput over `m·n` against sparse throughput
//! over `nnz` or LU fill — not in what it computes. [`Storage`] carries
//! exactly that difference: which payloads of the object table a handle
//! names, the engine label, and one [`Kernel`] entry per [`Class`] (span
//! name, throughput, flop/byte formula). Every matrix or factor kernel of
//! [`GpuDevice`] is then one method generic over it, dispatched statically.
//!
//! The trait is sealed: [`MatrixHandle`] (dense matrix, dense LU) and
//! [`SparseHandle`] (CSR matrix, sparse LU) are its two implementations.

use super::{
    out_of_bounds, Eta, EtaHandle, Factors, GpuDevice, GpuError, MatrixHandle, Result,
    SparseHandle, VectorHandle,
};
use crate::cost::flops;
use crate::objects::{Obj, Payload, Resident};
use crate::stream::StreamId;
use gmip_linalg::{
    batch as lbatch, BaseFactor, CsrMatrix, DenseMatrix, EtaFile, LinalgError, LuFactors, SparseLu,
};
use std::borrow::{Borrow, BorrowMut};
use std::fmt::Debug;
use std::marker::PhantomData;

/// The sizes a kernel's cost is a function of. For a matrix: its shape and
/// the entries it stores (`rows · cols` dense, the nonzeros in CSR). For a
/// factored basis: `rows` is its dimension, `cols` the eta updates on top
/// of the base factors, `nnz` the entries those factors store (`n²` dense,
/// the LU fill sparse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims(
    /// Rows of the matrix; dimension of the basis.
    pub usize,
    /// Columns of the matrix; eta updates on the basis.
    pub usize,
    /// Stored entries.
    pub usize,
);

/// The kernel classes every [`Storage`] prices, one `GpuDevice` method each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `out = b − A x` ([`GpuDevice::residual`]).
    Residual,
    /// `out = c − Aᵀ y` ([`GpuDevice::pricing`]).
    Pricing,
    /// One column as a dense vector ([`GpuDevice::extract_column`]).
    ExtractColumn,
    /// `y = A x` ([`GpuDevice::matvec`]).
    Matvec,
    /// `out = Aᵀ x` ([`GpuDevice::matvec_transposed`]).
    MatvecTransposed,
    /// LU factorization ([`GpuDevice::lu_factor`]).
    LuFactor,
    /// Solve through LU factors ([`GpuDevice::lu_solve`]).
    LuSolve,
    /// Basis install: factorize gathered columns ([`GpuDevice::eta_factor`]).
    EtaFactor,
    /// FTRAN ([`GpuDevice::eta_ftran`]).
    EtaFtran,
    /// BTRAN ([`GpuDevice::eta_btran`]).
    EtaBtran,
    /// Rank-1 basis exchange ([`GpuDevice::eta_update`]).
    EtaUpdate,
    /// The row splice of a cut ([`GpuDevice::append_cut`]).
    AppendCut,
}

impl Class {
    /// Every class, in declaration order.
    pub const ALL: [Class; 12] = [
        Class::Residual,
        Class::Pricing,
        Class::ExtractColumn,
        Class::Matvec,
        Class::MatvecTransposed,
        Class::LuFactor,
        Class::LuSolve,
        Class::EtaFactor,
        Class::EtaFtran,
        Class::EtaBtran,
        Class::EtaUpdate,
        Class::AppendCut,
    ];
}

/// One entry of a storage's class table: how a kernel shows up in a trace
/// and what a launch of it costs.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// Span name in traces.
    pub span: &'static str,
    /// Whether flops are charged at the device's sparse throughput.
    pub sparse_rate: bool,
    /// `(flops, bytes moved)` of one launch over the given sizes.
    pub cost: fn(Dims) -> (f64, usize),
}

const fn kernel(span: &'static str, sparse_rate: bool, cost: fn(Dims) -> (f64, usize)) -> Kernel {
    Kernel {
        span,
        sparse_rate,
        cost,
    }
}

/// How the constraint matrix and the factored basis live on the device.
///
/// Implemented by the matrix handle itself, so a kernel's storage is
/// inferred from the handle it is given; the handles of what is derived
/// from the matrix are [`Factors<Self>`](Factors) and [`Eta<Self>`](Eta).
pub trait Storage: sealed::Payloads + Copy + Debug + Into<u64> {
    /// Short name of an engine over this storage, for reports.
    const NAME: &'static str;
    /// The kernel a basis install stages its gathered columns with, where
    /// gathering is a launch of its own (dense) and not part of the
    /// factorization (CSR).
    const GATHER: Option<Kernel>;
    /// The kernel that splices a cut's slack column in, where the matrix
    /// has columns to grow (dense); a CSR row carries its slack entry.
    const APPEND_COLUMN: Option<Kernel>;

    /// The class table: span name, throughput and cost formula of `class`.
    fn kernel(class: Class) -> Kernel;

    /// Uploads `a` in this storage's format (one H2D transfer).
    fn upload(d: &mut GpuDevice, a: &DenseMatrix, stream: StreamId) -> Result<Self>;
}

mod sealed {
    use super::{BaseFactor, BorrowMut, Dims, EtaFile, Payload};
    use gmip_linalg::Result;

    /// What [`Storage`](super::Storage) needs of its payloads and nobody
    /// outside the device may call: their types, and the numerics in which
    /// the two storages differ. The generic kernels are instantiated in the
    /// crates that call them, so the implementations a kernel calls per
    /// launch are `#[inline]`, or each would be a call back into this one.
    pub trait Payloads: Sized {
        type Matrix: Payload;
        /// The LU factors of a square matrix, and the base of an eta file.
        type Base: BaseFactor + Payload;
        /// `EtaFile<Self::Base>`, said so that generic code can use it.
        type File: Payload + Default + BorrowMut<EtaFile<Self::Base>>;

        fn dims(m: &Self::Matrix) -> Dims;
        fn entry(m: &Self::Matrix, i: usize, j: usize) -> f64;
        fn matvec(m: &Self::Matrix, x: &[f64], y: &mut [f64]) -> Result<()>;
        fn matvec_transposed(m: &Self::Matrix, x: &[f64], y: &mut [f64]) -> Result<()>;
        fn factorize(m: &Self::Matrix) -> Result<Self::Base>;
        /// Factorizes columns `cols` of `m` into `file`, dropping its etas.
        fn refactorize_columns(
            file: &mut EtaFile<Self::Base>,
            m: &Self::Matrix,
            cols: &[usize],
        ) -> Result<()>;
        /// Modelled bytes of LU factors, or (`with_basis`) of an eta file
        /// just factorized.
        fn factor_bytes(lu: Dims, with_basis: bool) -> usize;
        /// Entries the row splice of a cut stores, or why this storage
        /// cannot take the cut.
        fn cut_entries(row: &[f64], col: &[f64]) -> Result<usize>;
        fn push_cut(m: &mut Self::Matrix, row: &[f64], col: &[f64]) -> Result<()>;
    }
}
use sealed::Payloads;

/// The payload methods [`DenseMatrix`] and [`CsrMatrix`] share by name.
macro_rules! matrix_ops {
    ($m:ty) => {
        #[inline]
        fn entry(m: &$m, i: usize, j: usize) -> f64 {
            m.get(i, j)
        }
        #[inline]
        fn matvec(m: &$m, x: &[f64], y: &mut [f64]) -> gmip_linalg::Result<()> {
            m.matvec_into(x, y)
        }
        #[inline]
        fn matvec_transposed(m: &$m, x: &[f64], y: &mut [f64]) -> gmip_linalg::Result<()> {
            m.matvec_transposed_into(x, y)
        }
    };
}

impl Payloads for MatrixHandle {
    type Matrix = DenseMatrix;
    type Base = LuFactors;
    type File = EtaFile;
    matrix_ops!(DenseMatrix);

    #[inline]
    fn dims(m: &DenseMatrix) -> Dims {
        Dims(m.rows(), m.cols(), m.rows() * m.cols())
    }
    fn factorize(m: &DenseMatrix) -> gmip_linalg::Result<LuFactors> {
        LuFactors::factorize(m)
    }
    #[inline]
    fn refactorize_columns(
        file: &mut EtaFile,
        m: &DenseMatrix,
        cols: &[usize],
    ) -> gmip_linalg::Result<()> {
        file.refactorize_columns(m, cols)
    }
    /// The packed factors and the row permutation; eta columns are charged
    /// as they arrive.
    #[inline]
    fn factor_bytes(Dims(n, _, fill): Dims, _with_basis: bool) -> usize {
        fill * 8 + n * 8
    }
    fn cut_entries(row: &[f64], _col: &[f64]) -> gmip_linalg::Result<usize> {
        Ok(row.len())
    }
    fn push_cut(m: &mut DenseMatrix, row: &[f64], col: &[f64]) -> gmip_linalg::Result<()> {
        m.push_row(row)?;
        m.push_col(col)
    }
}

impl Storage for MatrixHandle {
    const NAME: &'static str = "device";
    // Memory-bound: read + write the gathered block.
    const GATHER: Option<Kernel> = Some(kernel("gather_columns", false, |Dims(.., nnz)| {
        (0.0, 2 * nnz * 8)
    }));
    const APPEND_COLUMN: Option<Kernel> = Some(kernel("append_column", false, |Dims(.., nnz)| {
        (0.0, nnz * 8)
    }));

    #[inline]
    fn kernel(class: Class) -> Kernel {
        // A product streams the matrix; a solve the packed factors, then
        // the `k` etas on top of them.
        let product = |Dims(m, n, nnz)| (flops::gemv(m, n), nnz * 8);
        let solve = |Dims(n, k, fill)| {
            let flops = flops::lu_solve(n) + flops::eta_apply(k, n);
            (flops, (fill + k * n) * 8)
        };
        let (span, cost): (_, fn(Dims) -> (f64, usize)) = match class {
            Class::Residual => ("residual", |Dims(m, n, nnz)| {
                (flops::gemv(m, n) + m as f64, nnz * 8)
            }),
            Class::Pricing => ("pricing", |Dims(m, n, nnz)| {
                (flops::gemv(m, n) + n as f64, nnz * 8)
            }),
            Class::ExtractColumn => ("extract_column", |Dims(m, ..)| (0.0, 2 * m * 8)),
            Class::Matvec => ("gemv", product),
            Class::MatvecTransposed => ("gemv_transposed", product),
            Class::LuFactor => ("lu_factor", |Dims(n, _, fill)| (flops::lu(n), fill * 8)),
            Class::LuSolve => ("lu_solve", |Dims(n, _, fill)| {
                (flops::lu_solve(n), fill * 8)
            }),
            Class::EtaFactor => ("eta_factor", |Dims(n, _, fill)| (flops::lu(n), fill * 8)),
            Class::EtaFtran => ("eta_ftran", solve),
            Class::EtaBtran => ("eta_btran", solve),
            Class::EtaUpdate => ("eta_update", |Dims(n, ..)| (n as f64, n * 8)),
            Class::AppendCut => ("append_row", |Dims(.., nnz)| (0.0, nnz * 8)),
        };
        kernel(span, false, cost)
    }

    fn upload(d: &mut GpuDevice, a: &DenseMatrix, stream: StreamId) -> Result<Self> {
        d.upload_matrix(a, stream)
    }
}

impl Payloads for SparseHandle {
    type Matrix = CsrMatrix;
    type Base = SparseLu;
    type File = EtaFile<SparseLu>;
    matrix_ops!(CsrMatrix);

    #[inline]
    fn dims(m: &CsrMatrix) -> Dims {
        Dims(m.rows(), m.cols(), m.nnz())
    }
    fn factorize(m: &CsrMatrix) -> gmip_linalg::Result<SparseLu> {
        SparseLu::factorize(&m.to_csc())
    }
    #[inline]
    fn refactorize_columns(
        file: &mut EtaFile<SparseLu>,
        m: &CsrMatrix,
        cols: &[usize],
    ) -> gmip_linalg::Result<()> {
        file.refactorize(&m.to_csc().select_columns(cols)?)
    }
    /// Values and indices of the fill; an eta file's basis column list.
    #[inline]
    fn factor_bytes(Dims(n, _, fill): Dims, with_basis: bool) -> usize {
        fill * 16 + if with_basis { n * 8 } else { 0 }
    }
    /// The row's nonzeros and its slack entry. A CSR matrix grows a column
    /// only as the slack of the row it grows with: `col` must be a multiple
    /// of the new row's unit vector.
    fn cut_entries(row: &[f64], col: &[f64]) -> gmip_linalg::Result<usize> {
        match col.split_last() {
            Some((_, above)) if above.iter().all(|&v| v == 0.0) => {
                Ok(row.iter().filter(|v| v.abs() > 1e-12).count() + 1)
            }
            _ => Err(LinalgError::InvalidFormat {
                context: "append_cut: a CSR matrix takes a slack column e_m only".into(),
            }),
        }
    }
    fn push_cut(m: &mut CsrMatrix, row: &[f64], col: &[f64]) -> gmip_linalg::Result<()> {
        let nonzeros = row.iter().enumerate().filter(|(_, v)| v.abs() > 1e-12);
        let mut entries: Vec<(usize, f64)> = nonzeros.map(|(j, &v)| (j, v)).collect();
        entries.extend(col.last().map(|&slack| (row.len(), slack)));
        m.push_row_grow(&entries, row.len() + 1)
    }
}

impl Storage for SparseHandle {
    const NAME: &'static str = "device-sparse";
    const GATHER: Option<Kernel> = None;
    const APPEND_COLUMN: Option<Kernel> = None;

    #[inline]
    fn kernel(class: Class) -> Kernel {
        // A product streams values and indices; a solve the LU fill, then
        // the `k` (dense) etas. GLU-class factorization is charged at the
        // sparse throughput too, which is what makes the dense path win at
        // high density; a basis install's gather traffic is part of it.
        let product = |Dims(.., nnz)| (flops::spmv(nnz), nnz * 16);
        let factor = |Dims(.., fill)| (flops::sparse_lu(fill), fill * 16);
        let solve = |Dims(n, k, fill)| {
            let flops = flops::spmv(fill) + flops::eta_apply(k, n);
            (flops, fill * 16 + k * n * 8)
        };
        let (span, cost): (_, fn(Dims) -> (f64, usize)) = match class {
            Class::Residual => ("residual_sparse", |Dims(m, _, nnz)| {
                (flops::spmv(nnz) + m as f64, nnz * 16)
            }),
            Class::Pricing => ("pricing_sparse", |Dims(_, n, nnz)| {
                (flops::spmv(nnz) + n as f64, nnz * 16)
            }),
            Class::ExtractColumn => ("extract_column_sparse", |Dims(m, ..)| (m as f64, 2 * m * 8)),
            Class::Matvec => ("spmv", product),
            Class::MatvecTransposed => ("spmv_transposed", product),
            Class::LuFactor => ("sparse_lu_factor", factor),
            Class::LuSolve => ("sparse_solve", product),
            Class::EtaFactor => ("sparse_eta_factor", factor),
            Class::EtaFtran => ("sparse_eta_ftran", solve),
            Class::EtaBtran => ("sparse_eta_btran", solve),
            Class::EtaUpdate => ("sparse_eta_update", |Dims(n, ..)| (n as f64, n * 8)),
            Class::AppendCut => ("append_row_sparse", |Dims(.., nnz)| (0.0, nnz * 16 + 8)),
        };
        // The eta column is dense whatever the base factors are.
        kernel(span, class != Class::EtaUpdate, cost)
    }

    fn upload(d: &mut GpuDevice, a: &DenseMatrix, stream: StreamId) -> Result<Self> {
        d.upload_sparse(&CsrMatrix::from_dense(a), stream)
    }
}

/// The sizes of an eta file: its base factors under its eta updates.
fn eta_dims<B: BaseFactor>(file: &EtaFile<B>) -> Dims {
    Dims(file.dim(), file.eta_count(), file.fill_nnz())
}

impl GpuDevice {
    /// Charges one launch of `kernel` over `dims`.
    #[inline]
    fn charge_class(&mut self, kernel: Kernel, dims: Dims, stream: StreamId) {
        let (fl, bytes) = (kernel.cost)(dims);
        let rate = self.flops_per_ns(kernel.sparse_rate);
        self.charge_kernel(kernel.span, fl, bytes as f64, rate, stream);
    }

    // ---- matrix kernels ----

    /// Matrix–vector product `y = A x`, all device-resident.
    pub fn matvec<S: Storage>(
        &mut self,
        a: S,
        x: VectorHandle,
        stream: StreamId,
    ) -> Result<VectorHandle> {
        let m = self.objects.read::<S::Matrix>(a)?;
        let dims = S::dims(m);
        let mut y = self.pool.take(dims.0);
        S::matvec(m, self.objects.vector(x)?, &mut y)?;
        self.charge_class(S::kernel(Class::Matvec), dims, stream);
        self.insert_vector(y)
    }

    /// `out = Aᵀ x`, or `v − Aᵀ x` / `v − A x` for the pricing / residual
    /// class: a product and, where there is a `v`, the subtraction fused
    /// into one launch.
    #[inline] // so that `class` is a constant where the table is read
    fn product_into<S: Storage>(
        &mut self,
        class: Class,
        v: Option<VectorHandle>,
        a: S,
        x: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        let kernel = S::kernel(class);
        self.write_vector(
            out,
            |objects, _, r| {
                let m = objects.read::<S::Matrix>(a)?;
                let dims @ Dims(rows, cols, _) = S::dims(m);
                if class == Class::Residual {
                    r.resize(rows, 0.0);
                    S::matvec(m, objects.vector(x)?, r)?;
                } else {
                    r.resize(cols, 0.0);
                    S::matvec_transposed(m, objects.vector(x)?, r)?;
                }
                if let Some(v) = v {
                    let v = objects.vector(v)?;
                    if v.len() != r.len() {
                        return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                            context: format!("{}: {} vs product {}", kernel.span, v.len(), r.len()),
                        }));
                    }
                    for (ri, vi) in r.iter_mut().zip(v.iter()) {
                        *ri = vi - *ri;
                    }
                }
                Ok(dims)
            },
            |dev, dims| dev.charge_class(kernel, dims, stream),
        )
    }

    /// Transposed product `out = Aᵀ x`, all device-resident.
    pub fn matvec_transposed<S: Storage>(
        &mut self,
        a: S,
        x: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.product_into(Class::MatvecTransposed, None, a, x, out, stream)
    }

    /// Fused pricing kernel: reduced costs `out = c − Aᵀ y` in one launch.
    ///
    /// This is the Section 5.1 "no transfer" iteration: the full reduced-cost
    /// vector never leaves the device; only the argmin scalar does (see
    /// [`Self::argmin_masked`]). Over a CSR matrix it is charged at sparse
    /// throughput over `nnz` instead of dense throughput over `m·n`.
    pub fn pricing<S: Storage>(
        &mut self,
        a: S,
        y: VectorHandle,
        c: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.product_into(Class::Pricing, Some(c), a, y, out, stream)
    }

    /// Fused residual kernel `out = b − A x`, all device-resident (used to
    /// recompute basic values after a basis install without any transfer).
    pub fn residual<S: Storage>(
        &mut self,
        b: VectorHandle,
        a: S,
        x: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.product_into(Class::Residual, Some(b), a, x, out, stream)
    }

    /// Copies column `j` of a device matrix into resident dense vector
    /// `out` (a memory-bound copy, or a sparse gather; no host transfer).
    pub fn extract_column<S: Storage>(
        &mut self,
        a: S,
        j: usize,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, col| {
                let m = objects.read::<S::Matrix>(a)?;
                let dims @ Dims(rows, cols, _) = S::dims(m);
                if j >= cols {
                    return Err(out_of_bounds(j, cols));
                }
                col.clear();
                col.extend((0..rows).map(|i| S::entry(m, i, j)));
                Ok(dims)
            },
            |dev, dims| dev.charge_class(S::kernel(Class::ExtractColumn), dims, stream),
        )
    }

    /// Appends a cut to a device matrix **from the host** (the Section 5.2
    /// cut-incorporation path: generated on CPU, shipped H2D, spliced in by
    /// device kernels). `row` spans the current columns and `col`, the cut's
    /// slack column, the grown row count. A dense matrix takes both in one
    /// staged transfer and splices each in with its own kernel; a CSR matrix
    /// takes the row's nonzeros with the slack entry at their end, and no
    /// slack column but a multiple of the new row's unit vector. A cut of
    /// the wrong shape, or one the device has no room for, is refused
    /// before anything is charged or changed.
    pub fn append_cut<S: Storage>(
        &mut self,
        a: S,
        row: &[f64],
        col: &[f64],
        stream: StreamId,
    ) -> Result<()> {
        let Dims(rows, cols, _) = S::dims(self.objects.read::<S::Matrix>(a)?);
        if row.len() != cols || col.len() != rows + 1 {
            return Err(GpuError::Linalg(LinalgError::DimensionMismatch {
                context: format!(
                    "append_cut: row {} col {} onto {rows}x{cols}",
                    row.len(),
                    col.len()
                ),
            }));
        }
        // A splice moves exactly the bytes it leaves on the device.
        let row_splice = S::kernel(Class::AppendCut);
        let row_dims = Dims(1, row.len(), S::cut_entries(row, col)?);
        let col_dims = Dims(col.len(), 1, col.len());
        let row_bytes = (row_splice.cost)(row_dims).1;
        let col_bytes = S::APPEND_COLUMN.map(|splice| (splice.cost)(col_dims).1);
        // Room for both or for neither: a cut is never half appended.
        self.mem.alloc(row_bytes)?;
        if let Some(Err(e)) = col_bytes.map(|bytes| self.mem.alloc(bytes)) {
            self.mem.free(row_bytes);
            return Err(e.into());
        }
        let added = row_bytes + col_bytes.unwrap_or(0);
        let pushed = match self.objects.get_mut(a.into()) {
            Some((obj, bytes)) => S::Matrix::of_mut(obj)
                .ok_or(GpuError::InvalidHandle(a.into()))
                .and_then(|m| Ok(S::push_cut(m, row, col)?))
                .map(|()| *bytes += added),
            None => Err(GpuError::InvalidHandle(a.into())),
        };
        if pushed.is_err() {
            self.mem.free(added);
            return pushed;
        }
        self.charge_h2d(added, stream);
        self.charge_class(row_splice, row_dims, stream);
        if let Some(col_splice) = S::APPEND_COLUMN {
            self.charge_class(col_splice, col_dims, stream);
        }
        Ok(())
    }

    // ---- LU kernels ----

    /// LU-factorizes a square device matrix: a cuSOLVER `getrf`-class
    /// kernel over a dense one, a GLU-class kernel over CSR.
    pub fn lu_factor<S: Storage>(&mut self, a: S, stream: StreamId) -> Result<Factors<S>> {
        let factors = S::factorize(self.objects.read(a)?)?;
        let dims = Dims(factors.dim(), 0, factors.fill_nnz());
        self.charge_class(S::kernel(Class::LuFactor), dims, stream);
        let id = self.insert(factors.into_obj(), S::factor_bytes(dims, false))?;
        Ok(Factors(id, PhantomData))
    }

    /// Solves `A x = b` through LU factors for a device-resident rhs;
    /// the result stays on device.
    pub fn lu_solve<S: Storage>(
        &mut self,
        f: Factors<S>,
        b: VectorHandle,
        stream: StreamId,
    ) -> Result<VectorHandle> {
        let factors = self.objects.read::<S::Base>(f)?;
        let dims = Dims(factors.dim(), 0, factors.fill_nnz());
        let mut x = self.pool.take(dims.0);
        factors.solve_into(self.objects.vector(b)?, &mut x)?;
        self.charge_class(S::kernel(Class::LuSolve), dims, stream);
        self.insert_vector(x)
    }

    // ---- eta-file (PFI) kernels: Section 5.1's rank-1 update path ----

    /// Creates a resident eta file with no tenant: a handle and host storage
    /// that [`eta_factor`](Self::eta_factor) factorizes into, install after
    /// install. It owns no modelled byte until then.
    pub fn vacant_eta<S: Storage>(&mut self) -> Eta<S> {
        let file = S::File::default().into_obj();
        Eta(self.objects.insert(file, 0, false), PhantomData)
    }

    /// Basis install on the device: gathers columns `cols` of matrix `a`
    /// (no host transfer — this is how the simplex assembles the basis `B`
    /// from the constraint matrix without leaving the device) and
    /// LU-factorizes them, in the storage of resident eta file `eta`, whose
    /// previous factors and eta updates are dropped.
    ///
    /// Over a dense matrix it is modelled as the two kernels it fuses on
    /// the host: `gather_columns` materializes the basis block, `eta_factor`
    /// produces the factors and the block is released; a singular basis
    /// releases it too. Over CSR, gather and GLU-class factorization are one
    /// kernel and nothing is staged.
    pub fn eta_factor<S: Storage>(
        &mut self,
        a: S,
        cols: &[usize],
        eta: Eta<S>,
        stream: StreamId,
    ) -> Result<()> {
        let Dims(rows, width, _) = S::dims(self.objects.read::<S::Matrix>(a)?);
        if let Some(&c) = cols.iter().find(|&&c| c >= width) {
            return Err(out_of_bounds(c, width));
        }
        let factored = match self.objects.resident_with(eta.0, a.into()) {
            Some((Resident { obj, live, .. }, src)) => {
                match (S::File::of_mut(obj), Payload::of(src)) {
                    (Some(file), Some(src)) => {
                        *live = false;
                        let file = file.borrow_mut();
                        S::refactorize_columns(file, src, cols).map(|()| eta_dims(file))
                    }
                    _ => return Err(GpuError::InvalidHandle(eta.0)),
                }
            }
            None => return Err(GpuError::InvalidHandle(eta.0)),
        };
        let mut staged = 0;
        if let Some(gather) = S::GATHER {
            let block = rows * cols.len();
            self.charge_class(gather, Dims(rows, cols.len(), block), stream);
            staged = block * 8;
            self.alloc(staged)?;
        }
        let tenant = factored.map_err(GpuError::from).and_then(|lu| {
            self.charge_class(S::kernel(Class::EtaFactor), lu, stream);
            let bytes = S::factor_bytes(lu, true);
            self.alloc(bytes).map(|()| bytes)
        });
        self.mem.free(staged);
        let tenant = tenant?;
        if let Some(r) = self.objects.resident_mut(eta.0) {
            self.mem.free(std::mem::replace(r.bytes, tenant));
            *r.live = true;
        }
        Ok(())
    }

    /// FTRAN through the eta file: solves `B out = b` with b device-resident.
    pub fn eta_ftran<S: Storage>(
        &mut self,
        h: Eta<S>,
        b: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, _, x| {
                let file: &EtaFile<S::Base> = objects.read::<S::File>(h)?.borrow();
                x.resize(file.dim(), 0.0);
                file.ftran_into(objects.vector(b)?, x)?;
                Ok(eta_dims(file))
            },
            |dev, dims| dev.charge_class(S::kernel(Class::EtaFtran), dims, stream),
        )
    }

    /// BTRAN through the eta file: solves `Bᵀ out = c`. (Written out beside
    /// [`eta_ftran`](Self::eta_ftran): as one body taking the class, either
    /// solve measured 12–18 ns — a third — slower on a small basis.)
    pub fn eta_btran<S: Storage>(
        &mut self,
        h: Eta<S>,
        c: VectorHandle,
        out: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        self.write_vector(
            out,
            |objects, work, y| {
                let file: &EtaFile<S::Base> = objects.read::<S::File>(h)?.borrow();
                y.resize(file.dim(), 0.0);
                work.resize(file.dim(), 0.0);
                file.btran_into(objects.vector(c)?, work, y)?;
                Ok(eta_dims(file))
            },
            |dev, dims| dev.charge_class(S::kernel(Class::EtaBtran), dims, stream),
        )
    }

    /// Applies a basis-exchange rank-1 update: position `leaving_pos` of the
    /// basis is replaced by the column whose FTRAN image is the device vector
    /// `alpha`. No host transfer — the paper's "rank-1 updates ... with no
    /// data transfer from host to device or vice versa".
    pub fn eta_update<S: Storage>(
        &mut self,
        h: Eta<S>,
        leaving_pos: usize,
        alpha: VectorHandle,
        stream: StreamId,
    ) -> Result<()> {
        let n = self.objects.vector(alpha)?.len();
        let add_bytes = n * 8;
        self.mem.alloc(add_bytes)?;
        let updated = match self.objects.resident_with(h.0, alpha.0) {
            Some((
                Resident {
                    obj,
                    bytes,
                    live: &mut true,
                },
                Obj::Vector(alpha_v),
            )) => S::File::of_mut(obj)
                .ok_or(GpuError::InvalidHandle(h.0))
                .and_then(|file| Ok(file.borrow_mut().update(leaving_pos, alpha_v)?))
                .map(|()| *bytes += add_bytes),
            _ => Err(GpuError::InvalidHandle(h.0)),
        };
        if updated.is_err() {
            self.mem.free(add_bytes);
        }
        updated?;
        // A small device-side kernel appends the eta column.
        self.charge_class(S::kernel(Class::EtaUpdate), Dims(n, 1, n), stream);
        Ok(())
    }

    /// Refactorizes the eta file from a device basis matrix, clearing the
    /// accumulated etas (periodic refactorization).
    pub fn eta_refactorize(
        &mut self,
        h: EtaHandle,
        basis: MatrixHandle,
        stream: StreamId,
    ) -> Result<()> {
        let n = match self.objects.resident_with(h.0, basis.0) {
            Some((
                Resident {
                    obj: Obj::Eta(file),
                    bytes,
                    live,
                },
                Obj::Matrix(m),
            )) => {
                *live = false;
                file.refactorize(m)?;
                *live = true;
                // Shrink accounting back to the base factorization size.
                let new_bytes = m.size_bytes() + m.rows() * 8;
                if *bytes > new_bytes {
                    self.mem.free(*bytes - new_bytes);
                }
                *bytes = new_bytes;
                m.rows()
            }
            _ => return Err(GpuError::InvalidHandle(h.0)),
        };
        self.charge_dense_kernel("eta_refactorize", flops::lu(n), (n * n * 8) as f64, stream);
        Ok(())
    }

    /// Batched factor-and-solve: one launch covering `systems.len()`
    /// independent small dense systems already resident on the device.
    /// Results are new device vectors, one per system.
    pub fn batched_lu_solve(
        &mut self,
        systems: &[(MatrixHandle, VectorHandle)],
        stream: StreamId,
    ) -> Result<Vec<VectorHandle>> {
        if systems.is_empty() {
            return Ok(Vec::new());
        }
        let mut mats = Vec::with_capacity(systems.len());
        let mut rhs = Vec::with_capacity(systems.len());
        for &(mh, vh) in systems {
            mats.push(self.objects.read::<DenseMatrix>(mh)?.clone());
            rhs.push(self.objects.vector(vh)?.clone());
        }
        let xs = lbatch::lu_factor_solve_batch(&mats, &rhs);
        // One launch for the batch, problems `concurrency` at a time, each
        // compute-bound at the dense rate.
        let per_problem = mats.iter().map(|m| {
            let n = m.rows();
            (flops::lu(n) + flops::lu_solve(n), 0.0)
        });
        self.batched_wave_kernel("batched_lu_solve", per_problem, false, stream);
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            out.push(self.insert_vector(x.map_err(GpuError::Linalg)?)?);
        }
        Ok(out)
    }
}
