//! # gmip-gpu
//!
//! A simulated GPU accelerator for the `gmip` MIP solver stack.
//!
//! This crate is the substitution substrate for the hardware the paper
//! targets (V100/MI100-class devices in Summit/Frontier-class systems). No
//! GPU is required: kernels perform their real numerics on the CPU via
//! `gmip-linalg`, while a [`cost::CostModel`] charges *simulated* time for
//! compute, memory traffic, host↔device transfers, and kernel launches, and
//! [`memory::DeviceMemory`] enforces device capacity exactly.
//!
//! The design intent is that every architectural claim in the paper becomes
//! a measurable quantity here:
//!
//! * dense vs. sparse efficiency (Sections 3, 5.4) — two throughput knobs;
//! * host↔device transfer minimization (Section 5) — counted and charged,
//!   and the read-backs of a [`device::GpuDevice::chain`] cross as one;
//! * kernel-launch amortization via batching (Sections 4.3, 5.5) —
//!   [`device::GpuDevice::batched_lu_solve`] pays one launch per batch, and
//!   the kernels of a [`device::GpuDevice::chain`] one between them;
//! * streams (Section 5.5) — per-stream timelines whose kernel bodies and
//!   transfers overlap, fed by the device's one launch-issue queue;
//! * device memory capacity as a regime boundary (Section 3) — allocation
//!   failures are real errors the solver strategies must handle.
//!
//! The crate is one device, [`GpuDevice`], which every charge goes through,
//! and one shared handle to it, [`Accel`]. Fused lane work has one entry
//! point, [`Accel::dispatch`]: it runs a caller's body once per lane item —
//! on the calling thread under [`BackendKind::Sim`], or on a thread pool
//! that times it under [`BackendKind::Native`] — then applies the listed
//! [`WaveCharge`]s; the charges are the same either way. What a lane
//! computes lives with its caller (the first-order arena and its PDHG step
//! in `gmip-lp`, propagation and dives in `gmip-prop`).
//!
//! The "CPU backend" is the same device type under a CPU cost model
//! ([`node::Accel::cpu`]), so CPU-vs-GPU comparisons run identical code.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod cost;
pub mod device;
pub mod memory;
pub mod node;
mod objects;
pub mod stats;
pub mod stream;

pub use backend::{Accelerator, BackendKind, LaneBody, WaveCharge};
pub use cost::CostModel;
pub use device::{
    DeviceConfig, Eta, EtaHandle, FactorHandle, Factors, GpuDevice, GpuError, MatrixHandle,
    RawHandle, ScalarWrite, SparseEtaHandle, SparseFactorHandle, SparseHandle, Storage,
    VectorHandle, DEFAULT_STREAM, LAUNCH_WRITES,
};
pub use memory::{DeviceMemory, OutOfMemory};
pub use node::Accel;
pub use stats::DeviceStats;
pub use stream::{StreamId, StreamSet};
