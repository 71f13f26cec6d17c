//! # gmip-lp
//!
//! Revised simplex linear programming for the `gmip` stack: the LP
//! relaxation engine of the branch-and-cut solver (paper Section 5.1).
//!
//! * [`problem`] — lowering MIP relaxations to bounded-variable equality
//!   form, with per-node bound overrides and appended cut rows;
//! * [`basis`] — basis/status bookkeeping and warm-start snapshots;
//! * [`certificate`] — exactly-checkable result certificates (weak-duality
//!   bounds, Farkas infeasibility witnesses) consumed by `gmip-verify`;
//! * [`engine`] — the per-iteration numerical interface
//!   ([`engine::SimplexEngine`]) with the pure-host reference engine;
//! * [`device_engine`] — the same interface executed as simulated device
//!   kernels, matrix resident on the accelerator (dense or CSR: one engine
//!   over a storage parameter), only scalars crossing the link per
//!   iteration;
//! * [`simplex`] — the primal bounded-variable revised simplex driver
//!   (two-phase, Dantzig pricing with Bland anti-cycling fallback,
//!   periodic refactorization);
//! * [`dual`] — the dual simplex driver used for warm re-solves after
//!   branching bound changes and cut rounds (Sections 5.2, 5.3);
//! * [`wave`] — the batched wave evaluator: host-journaled node LPs
//!   replayed fused by lane state, one fused launch per superstep of the
//!   kernel class the most lanes wait on, on a shared device-resident
//!   matrix (Sections 4.3, 5.5);
//! * [`solver`] — the [`solver::LpSolver`] facade tying it together.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod basis;
pub mod certificate;
pub mod device_engine;
pub mod dual;
pub mod engine;
pub mod firstorder;
pub mod problem;
mod record;
pub mod simplex;
pub mod solver;
pub mod wave;

pub use basis::{Basis, VarStatus};
pub use certificate::{CertKind, LpCertificate};
pub use device_engine::{DeviceEngine, DeviceSimplex, SparseDeviceEngine};
pub use engine::{HostEngine, ProblemView, SimplexEngine};
pub use firstorder::{safe_dual_bound, FirstOrderWaveEngine, FoLaneReport, FoOutcome, PdhgConfig};
pub use problem::{BoundChange, StandardLp};
pub use simplex::{PricingRule, PrimalConfig};
pub use solver::{ColKind, LpConfig, LpSolution, LpSolver, LpStatus};
pub use wave::{wave_width, BatchedWaveEngine, RecordingEngine, WaveClass, WaveOp};

use gmip_gpu::GpuError;
use gmip_linalg::LinalgError;

/// Errors from LP solving (distinct from *statuses* like infeasible or
/// unbounded, which are normal outcomes reported in [`LpSolution`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// An engine operation was called before `install`.
    NotInstalled,
    /// Shape/dimension mismatch between engine and problem data.
    Shape(String),
    /// A nonbasic variable has an infinite bound on its assigned side.
    FreeVariable(usize),
    /// Numerical kernel failure.
    Numerics(LinalgError),
    /// Simulated device failure (OOM, invalid handle).
    Device(GpuError),
    /// The iteration limit was exceeded (possible cycling or a too-small
    /// limit for the instance).
    IterationLimit {
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::NotInstalled => write!(f, "engine used before basis install"),
            LpError::Shape(s) => write!(f, "shape mismatch: {s}"),
            LpError::FreeVariable(j) => {
                write!(
                    f,
                    "variable {j} is nonbasic with an infinite bound on its status side"
                )
            }
            LpError::Numerics(e) => write!(f, "numerical failure: {e}"),
            LpError::Device(e) => write!(f, "device failure: {e}"),
            LpError::IterationLimit { iterations } => {
                write!(f, "simplex iteration limit reached after {iterations}")
            }
        }
    }
}

impl std::error::Error for LpError {}

impl From<LinalgError> for LpError {
    fn from(e: LinalgError) -> Self {
        LpError::Numerics(e)
    }
}

impl From<GpuError> for LpError {
    fn from(e: GpuError) -> Self {
        match e {
            GpuError::Linalg(l) => LpError::Numerics(l),
            other => LpError::Device(other),
        }
    }
}

/// Result alias for LP operations.
pub type LpResult<T> = std::result::Result<T, LpError>;
