//! # gmip-verify
//!
//! The independent correctness oracle for the `gmip` reproduction. Every
//! other crate shares the `gmip-linalg` float substrate, so differential
//! tests between strategies can pass with a shared bug; this crate breaks
//! the dependency by re-deriving results in exact rational arithmetic:
//!
//! * [`rat`] — `Rat`, an exact rational over `i128` with a vendored
//!   arbitrary-precision fallback (no network, no external crates);
//! * [`simplex`] — an exact Bland's-rule bounded-variable simplex,
//!   generic over [`gmip_linalg::Scalar`];
//! * [`oracle`] — exact branch-and-bound: the true optimum of an instance;
//! * [`certify`] — exact validation of float-engine *certificates*:
//!   incumbent feasibility/objective, weak-duality LP bounds, and Farkas
//!   infeasibility witnesses;
//! * [`metamorphic`] — instance transforms (permutation, scaling, shift,
//!   redundant rows, complementation) whose mapped-back optimum must be
//!   unchanged;
//! * [`fuzz`] — the seeded differential fuzz driver behind
//!   `gmip-verify --fuzz <n>`, with shrinking to a minimal `.mps` repro.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certify;
pub mod fuzz;
pub mod metamorphic;
pub mod oracle;
pub mod rat;
pub mod shrink;
pub mod simplex;

pub use certify::{check_certificates, check_incumbent, CertReport};
pub use fuzz::{
    disagreement, run_fuzz, run_fuzz_with, FuzzConfig, FuzzOutcome, Mismatch, StrategyOutput,
    StrategyRunner,
};
pub use metamorphic::{transforms, Transformed};
pub use oracle::{solve_oracle, OracleResult, OracleStatus};
pub use rat::{Big, Int, Rat};
pub use shrink::{shrink_instance, write_repro};
pub use simplex::{solve_exact, ExactBound, ExactLp, ExactSolution, ExactStatus};
