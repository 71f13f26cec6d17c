//! # gmip-parallel
//!
//! Simulated-cluster parallel branch and bound: the UG-style
//! Supervisor–Worker coordination of the paper's Section 2.3, realized two
//! ways over the same message/worker substrate:
//!
//! * [`supervisor`] — a deterministic **discrete-event** cluster: worker
//!   devices charge simulated time, messages pay a [`comm::NetworkModel`],
//!   and the makespan is a logical clock (experiments E5/E6);
//! * [`threaded`] — the same coordination over real OS threads and
//!   crossbeam channels (true MIMD host parallelism, nondeterministic
//!   scheduling, deterministic answers);
//! * [`worker`] — a worker rank: one simulated device, matrix uploaded
//!   once, warm dual re-solves per assignment (Sections 5.1/5.3);
//! * [`comm`] — typed messages with byte-accurate transfer charging;
//! * [`lease`] — multi-job rank leasing: deterministic carving of the
//!   rank set into per-job shards for the serving front-end;
//! * [`checkpoint`] — distributed consistent snapshots and restart
//!   (Section 2.1's parallel-snapshot problem + UG's checkpointing);
//! * [`chaos`] — deterministic fault injection (seeded crash / drop /
//!   delay / straggler plans) driving the supervisor's recovery protocol:
//!   heartbeat detection, reassignment from the live checkpoint,
//!   exponential-backoff respawn, graceful degradation;
//! * [`paths`] — the solve-path table: every `--strategy` the CLI, `gmip
//!   verify` and the fuzzer run, parsed and built from one set of options.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod checkpoint;
mod cluster;
pub mod comm;
mod exchange;
pub mod hierarchy;
pub mod lease;
pub mod paths;
mod roster;
pub mod supervisor;
pub mod threaded;
pub mod worker;

pub use chaos::{ChaosConfig, FaultPlan, FaultStats};
pub use checkpoint::Checkpoint;
pub use cluster::{EventQueue, Timed};
pub use comm::{Assignment, Delivery, IncumbentUpdate, LoadSummary, NetworkModel, NodeReport};
pub use hierarchy::{
    solve_hierarchical, HierResult, HierStats, HierSupervisor, HierarchyConfig, MAX_RANKS,
};
pub use lease::{RankLease, RankPool};
pub use paths::{SolveOptions, SolvePath, Solved, SPELLINGS};
pub use supervisor::{
    solve_parallel, LoadBalance, ParPayload, ParallelConfig, ParallelResult, ParallelStats,
    Supervisor, Warm,
};
pub use threaded::{solve_threaded, ThreadedResult};
pub use worker::Worker;
