//! # gmip-core
//!
//! The branch-and-cut MIP solver — the paper's primary contribution
//! realized over the simulated accelerated platform:
//!
//! * [`search`] — the search kernel every branch-and-bound driver in the
//!   workspace calls: sense mapping, the incumbent, judging and settling a
//!   solved node, child construction, result finishing;
//! * [`solver`] — the branch-and-cut orchestrator ([`solver::MipSolver`]),
//!   generic over the LP engine (host reference, simulated device, pooled
//!   Big-MIP device);
//! * [`strategy`] — the four parallel execution strategies of Section 3 and
//!   their resource plans;
//! * [`branch`] — the most-fractional branching rule;
//! * [`cut`] — globally valid cutting planes (Gomory mixed-integer from the
//!   tableau, knapsack covers), generated CPU-side per Section 5.2;
//! * [`heur`] — primal heuristics (rounding, diving);
//! * [`presolve`](mod@presolve) — activity-based row elimination, bound propagation, and
//!   variable fixing ahead of the search;
//! * [`dispatch`] — the runtime dense/sparse "super-MIP solver" decision of
//!   Section 5.4 (dense-device / sparse-device / host paths);
//! * [`concurrent`] — wave-based concurrent node evaluation on one device
//!   via streams (Section 5.5);
//! * [`wave`] — the retire-and-refill wave loop, its one configuration
//!   ([`WaveConfig`], read by all three lane drivers) and its journaled-simplex lanes:
//!   fused node-LP kernels on a shared device-resident matrix with
//!   event-based retire-and-refill (Sections 4.3, 5.5);
//! * [`fo_wave`] — the same loop over restarted-PDHG lanes with exact host
//!   cleanup;
//! * [`config`] — solver configuration.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod concurrent;
pub mod config;
pub mod cut;
pub mod dispatch;
pub mod fo_wave;
pub mod heur;
pub mod presolve;
pub mod search;
pub mod solver;
pub mod strategy;
pub mod wave;

pub use concurrent::solve_concurrent;
pub use config::{CutConfig, HeurConfig, MipConfig, PolicyKind, DEFAULT_PROPAGATE_ROUNDS};
pub use dispatch::{
    break_even_density, choose_path, solve_with_dispatch, CodePath, MIN_DEVICE_NNZ,
};
pub use fo_wave::solve_first_order_wave;
pub use presolve::{presolve, PresolveResult};
pub use solver::{MipResult, MipSolver, MipStatus, NodePayload, SolveStats};
pub use strategy::{big_mip_cost, plan, Strategy, StrategyPlan};
pub use wave::{
    solve_batched_wave, BatchedWaveConfig, FirstOrderWaveConfig, WaveConfig, WaveResult,
};
