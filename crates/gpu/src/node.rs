//! The shareable device handle.
//!
//! The paper assumes nodes "in which the CPUs comprise of many processor
//! cores in addition to multiple GPUs serving as accelerators" (Section 3);
//! a strategy plan composes such a node from [`Accel`]s — one per GPU plus
//! [`Accel::cpu`] for the host. The [`Accel`] wrapper makes a device
//! shareable across solver components (the orchestrator, the LP engine,
//! the cut separator) the way a CUDA context is shared by host threads.

use crate::backend::{Accelerator, BackendKind, NativeAccelerator, SimAccelerator};
use crate::device::{DeviceConfig, GpuDevice};
use crate::stats::DeviceStats;
use parking_lot::Mutex;
use std::sync::Arc;

/// A cloneable, shareable handle to a simulated device.
///
/// All device methods are reachable through [`Accel::with`]; convenience
/// accessors cover the common queries. Fused lane dispatches go through
/// the handle's executing backend ([`Accel::exec`]), which defaults to the
/// sequential cost-model simulator and can be swapped via
/// [`Accel::with_backend`]. Either way the *simulated* charges land on the
/// same shared device.
#[derive(Debug, Clone)]
pub struct Accel {
    inner: Arc<Mutex<GpuDevice>>,
    kind: AccelKind,
    backend: BackendKind,
    exec: Arc<dyn Accelerator>,
}

/// What kind of executor an [`Accel`] wraps — used by the solver's strategy
/// logic to decide placement (e.g. Hybrid sends sparse setup to the CPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelKind {
    /// A GPU-class accelerator.
    Gpu,
    /// The host CPU executing under the CPU cost model.
    Cpu,
}

impl Accel {
    /// Wraps a device, routing its trace spans to the group matching the
    /// executor kind (GPU devices default to `Gpu(0)`; see
    /// [`Accel::with_trace_group`] for multi-GPU nodes).
    pub fn new(mut device: GpuDevice, kind: AccelKind) -> Self {
        if kind == AccelKind::Cpu {
            device.set_trace_group(gmip_trace::TrackGroup::Host);
        }
        let inner = Arc::new(Mutex::new(device));
        Self {
            exec: Arc::new(SimAccelerator::new(Arc::clone(&inner))),
            inner,
            kind,
            backend: BackendKind::Sim,
        }
    }

    /// Swaps the executing backend (default [`BackendKind::Sim`]). The
    /// simulated device — and therefore every traced ns — is shared
    /// unchanged; only who runs the lane numerics differs.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.exec = match backend {
            BackendKind::Sim => Arc::new(SimAccelerator::new(Arc::clone(&self.inner))),
            BackendKind::Native { threads } => {
                Arc::new(NativeAccelerator::new(Arc::clone(&self.inner), threads))
            }
        };
        self.backend = backend;
        self
    }

    /// The executing backend fused lane dispatches run on.
    pub fn exec(&self) -> Arc<dyn Accelerator> {
        Arc::clone(&self.exec)
    }

    /// The configured backend kind.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Snapshot of the executing backend's `wall.*` registry (real
    /// wall-clock; empty under the simulator). Strictly outside the
    /// byte-determinism surface.
    pub fn wall_metrics(&self) -> gmip_trace::MetricsRegistry {
        self.exec.wall()
    }

    /// Reassigns the trace track group (e.g. `TrackGroup::Gpu(i)` for the
    /// i-th device of a node) and returns the handle.
    pub fn with_trace_group(self, group: gmip_trace::TrackGroup) -> Self {
        self.with(|d| d.set_trace_group(group));
        self
    }

    /// Snapshot of the device's metrics registry (`gpu.*` series).
    pub fn metrics(&self) -> gmip_trace::MetricsRegistry {
        self.inner.lock().metrics()
    }

    /// A GPU accelerator with `gib` GiB of memory over PCIe.
    pub fn gpu(gib: usize) -> Self {
        Self::new(GpuDevice::new(DeviceConfig::gpu(gib)), AccelKind::Gpu)
    }

    /// A GPU accelerator with a custom configuration.
    pub fn gpu_with(config: DeviceConfig) -> Self {
        Self::new(GpuDevice::new(config), AccelKind::Gpu)
    }

    /// The host CPU as an executor.
    pub fn cpu() -> Self {
        Self::new(GpuDevice::new(DeviceConfig::cpu()), AccelKind::Cpu)
    }

    /// Executor kind.
    pub fn kind(&self) -> AccelKind {
        self.kind
    }

    /// Runs `f` with exclusive access to the device.
    pub fn with<R>(&self, f: impl FnOnce(&mut GpuDevice) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Simulated elapsed time at the device frontier, ns.
    pub fn elapsed_ns(&self) -> f64 {
        self.inner.lock().elapsed_ns()
    }

    /// Modeled energy consumed so far, joules: busy time × board power
    /// (the Section 2.2 energy-efficiency comparison).
    pub fn energy_j(&self) -> f64 {
        let dev = self.inner.lock();
        dev.elapsed_ns() * 1e-9 * dev.cost_model().power_w
    }

    /// Snapshot of the device's cumulative stats.
    pub fn stats(&self) -> DeviceStats {
        self.inner.lock().stats()
    }

    /// Device memory capacity in bytes.
    pub fn mem_capacity(&self) -> usize {
        self.inner.lock().memory().capacity()
    }

    /// Device memory currently in use, bytes.
    pub fn mem_used(&self) -> usize {
        self.inner.lock().memory().used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DEFAULT_STREAM;
    use gmip_linalg::DenseMatrix;

    #[test]
    fn accel_shares_one_device() {
        let a = Accel::gpu(1);
        let b = a.clone();
        let m = DenseMatrix::identity(4);
        a.with(|d| d.upload_matrix(&m, DEFAULT_STREAM)).unwrap();
        // The clone sees the same stats.
        assert_eq!(b.stats().h2d_transfers, 1);
        assert_eq!(a.kind(), AccelKind::Gpu);
        assert_eq!(Accel::cpu().kind(), AccelKind::Cpu);
    }

    #[test]
    fn cpu_accel_has_free_transfers() {
        let c = Accel::cpu();
        let m = DenseMatrix::identity(8);
        c.with(|d| d.upload_matrix(&m, DEFAULT_STREAM)).unwrap();
        let s = c.stats();
        assert_eq!(s.h2d_transfers, 1);
        assert_eq!(s.transfer_ns, 0.0);
    }
}
