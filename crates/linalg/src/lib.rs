//! # gmip-linalg
//!
//! Dense and sparse linear-algebra kernels for the `gmip` MIP solver stack.
//!
//! This crate is the software analogue of the GPU linear-algebra substrate the
//! paper surveys in Section 4 (cuBLAS/cuSOLVER/MAGMA-class dense routines,
//! cuSPARSE-class sparse routines, and the batched small-matrix operations of
//! Section 4.3). It provides:
//!
//! * [`dense`] — row-major dense matrices and slice kernels with BLAS-1/2/3
//!   style operations (`axpy`, `gemv`, `gemm`, ...);
//! * [`lu`] — LU factorization with partial pivoting and solves;
//! * [`triangular`] — forward/backward substitution primitives;
//! * [`batch`] — batched factor/solve over many small independent matrices
//!   (the MAGMA-style batch mode that Section 5.5 builds on);
//! * [`sparse`] — COO/CSR/CSC storage, sparse-matrix/vector products,
//!   and format conversions;
//! * [`sparse_lu`] — left-looking (Gilbert–Peierls) sparse LU with partial
//!   pivoting, the KLU/GLU-class routine referenced in Section 4.2;
//! * [`eta`] — product-form-of-inverse eta files with FTRAN/BTRAN, the basis
//!   update representation from the revised simplex literature (Section 4.3's
//!   "modified product form of inverse");
//! * [`pivot`] — the revised simplex's selection rules and updates (both
//!   ratio tests, the dual's leaving-row choice, Devex pricing and weights,
//!   the basic step), the one copy every engine residency runs;
//! * [`norms`] — residual and norm helpers used by tests and accuracy checks.
//!
//! Everything is pure, deterministic CPU code: the simulated accelerator in
//! `gmip-gpu` calls into these kernels for the *numerics* while charging
//! simulated device time from its cost model.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod dense;
pub mod eta;
pub mod lu;
pub mod norms;
pub mod pivot;
pub mod scalar;
pub mod sparse;
pub mod sparse_lu;
pub mod triangular;

pub use dense::DenseMatrix;
pub use eta::{BaseFactor, EtaFactor, EtaFile, SparseEtaFile};
pub use lu::LuFactors;
pub use scalar::{Scalar, PIVOT_TOL, ZERO_TOL};
pub use sparse::{CooMatrix, CscMatrix, CsrMatrix};
pub use sparse_lu::SparseLu;

/// Crate-wide error type for linear-algebra failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the two mismatched shapes.
        context: String,
    },
    /// The matrix is singular (or numerically singular) at the given column.
    Singular {
        /// Column (or pivot step) at which factorization broke down.
        column: usize,
    },
    /// Index out of bounds.
    OutOfBounds {
        /// Offending index.
        index: usize,
        /// Bound that was violated.
        bound: usize,
    },
    /// Input matrix was not in the required format (e.g. unsorted indices).
    InvalidFormat {
        /// What was wrong.
        context: String,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::Singular { column } => {
                write!(f, "singular matrix at pivot column {column}")
            }
            LinalgError::OutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds ({bound})")
            }
            LinalgError::InvalidFormat { context } => write!(f, "invalid format: {context}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
