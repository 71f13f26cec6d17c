//! The shareable device handle.
//!
//! The paper assumes nodes "in which the CPUs comprise of many processor
//! cores in addition to multiple GPUs serving as accelerators" (Section 3);
//! a strategy plan composes such a node from [`Accel`]s — one per GPU plus
//! [`Accel::cpu`] for the host. The [`Accel`] wrapper makes a device
//! shareable across solver components (the orchestrator, the LP engine,
//! the cut separator) the way a CUDA context is shared by host threads.
//! The host is the same device type under [`DeviceConfig::cpu`], its spans
//! on the host's trace group; nothing else tells the two apart.

use crate::backend::{Accelerator, BackendKind, LaneExec, WaveCharge};
use crate::device::{DeviceConfig, GpuDevice};
use crate::stats::DeviceStats;
use crate::stream::StreamId;
use parking_lot::Mutex;
use std::sync::Arc;

/// A cloneable, shareable handle to a simulated device.
///
/// All device methods are reachable through [`Accel::with`]; convenience
/// accessors cover the common queries. Fused lane work goes through
/// [`Accel::dispatch`], which runs the lane bodies on the calling thread by
/// default and on a thread pool after [`Accel::with_backend`]. Either way
/// the *simulated* charges land on the same shared device.
#[derive(Debug, Clone)]
pub struct Accel {
    exec: Arc<LaneExec>,
}

impl Accel {
    /// Wraps a device, its trace spans on the device's own track group
    /// (GPU devices default to `Gpu(0)`; see [`Accel::with_trace_group`]
    /// for multi-GPU nodes), its lane bodies on the calling thread.
    fn new(device: GpuDevice) -> Self {
        let dev = Arc::new(Mutex::new(device));
        Self {
            exec: Arc::new(LaneExec::new(dev, BackendKind::Sim)),
        }
    }

    /// Swaps the executing backend (default [`BackendKind::Sim`]). The
    /// simulated device — and therefore every traced ns — is shared
    /// unchanged; only who runs the lane numerics differs.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.exec = Arc::new(LaneExec::new(Arc::clone(&self.exec.dev), backend));
        self
    }

    /// One fused dispatch: runs `f` once per item with its index — in
    /// order on the calling thread under [`BackendKind::Sim`], across the
    /// pool under [`BackendKind::Native`], timed under the class's `wall.*`
    /// key — then applies `charges` in order under one device lock. Returns
    /// the simulated ns charged. Each item is touched by exactly one
    /// thread, so what a body computes inside its item does not depend on
    /// the backend or the thread count.
    pub fn dispatch<T: Send>(
        &self,
        class: &'static str,
        items: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
        charges: &[WaveCharge],
        stream: StreamId,
    ) -> f64 {
        self.exec.dispatch(class, items, f, charges, stream)
    }

    /// The lane executor as a trait object, for callers that dispatch
    /// opaque lane bodies ([`Accelerator::fused_dispatch`]).
    pub fn exec(&self) -> Arc<dyn Accelerator> {
        self.exec.clone()
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
        self.with(|d| d.metrics())
    }

    /// A GPU accelerator with `gib` GiB of memory over PCIe.
    pub fn gpu(gib: usize) -> Self {
        Self::gpu_with(DeviceConfig::gpu(gib))
    }

    /// A GPU accelerator with a custom configuration.
    pub fn gpu_with(config: DeviceConfig) -> Self {
        Self::new(GpuDevice::new(config))
    }

    /// The host CPU as an executor: the same device type under the CPU
    /// cost model, its spans on the host's trace group.
    pub fn cpu() -> Self {
        Self::new(GpuDevice::new(DeviceConfig::cpu()))
            .with_trace_group(gmip_trace::TrackGroup::Host)
    }

    /// Runs `f` with exclusive access to the device.
    pub fn with<R>(&self, f: impl FnOnce(&mut GpuDevice) -> R) -> R {
        f(&mut self.exec.dev.lock())
    }

    /// Simulated elapsed time at the device frontier, ns.
    pub fn elapsed_ns(&self) -> f64 {
        self.with(|d| d.elapsed_ns())
    }

    /// Modeled energy consumed so far, joules: busy time × board power
    /// (the Section 2.2 energy-efficiency comparison).
    pub fn energy_j(&self) -> f64 {
        self.with(|d| d.elapsed_ns() * 1e-9 * d.cost_model().power_w)
    }

    /// Snapshot of the device's cumulative stats.
    pub fn stats(&self) -> DeviceStats {
        self.with(|d| d.stats())
    }

    /// Device memory capacity in bytes.
    pub fn mem_capacity(&self) -> usize {
        self.with(|d| d.memory().capacity())
    }

    /// Device memory currently in use, bytes.
    pub fn mem_used(&self) -> usize {
        self.with(|d| d.memory().used())
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
