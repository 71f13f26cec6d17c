//! # gmip-bench
//!
//! The experiment harness of the reproduction: one module per experiment in
//! DESIGN.md's index ([`experiments`]), a table renderer ([`table`]), and
//! the `report` binary that regenerates any experiment's table/figure:
//!
//! ```text
//! cargo run --release -p gmip-bench --bin report -- all
//! cargo run --release -p gmip-bench --bin report -- e1 e4
//! ```
//!
//! Wall-clock measurement of the kernels, LP engines and solvers is
//! `examples/wallbench`'s job, not this crate's.

#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod table;
