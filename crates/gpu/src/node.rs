//! Compute-node composition: a host CPU plus one or more accelerators.
//!
//! Models the node architecture the paper assumes (Section 3: "modern
//! architectures in which the CPUs comprise of many processor cores in
//! addition to multiple GPUs serving as accelerators"). The [`Accel`]
//! wrapper makes a device shareable across solver components (the
//! orchestrator, the LP engine, the cut separator) the way a CUDA context
//! is shared by host threads.

use crate::backend::{Accelerator, BackendKind, NativeAccelerator, SimAccelerator};
use crate::cost::CostModel;
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

    /// The device's cost-model name (preset identification in reports).
    pub fn cost_name(&self) -> &'static str {
        self.inner.lock().cost_model().name
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

/// A compute node: one host executor plus `gpus` accelerators.
#[derive(Debug, Clone)]
pub struct ComputeNode {
    /// The host CPU executor.
    pub host: Accel,
    /// The node's accelerators.
    pub gpus: Vec<Accel>,
}

impl ComputeNode {
    /// Builds a node with `n_gpus` GPUs of `gib` GiB each. Each GPU's trace
    /// spans land on its own track group (`Gpu(0)`, `Gpu(1)`, ...).
    pub fn new(n_gpus: usize, gib: usize) -> Self {
        Self {
            host: Accel::cpu(),
            gpus: (0..n_gpus)
                .map(|i| Accel::gpu(gib).with_trace_group(gmip_trace::TrackGroup::Gpu(i as u16)))
                .collect(),
        }
    }

    /// Builds a node whose GPUs use a custom cost model.
    pub fn with_cost(n_gpus: usize, mem_capacity: usize, cost: CostModel) -> Self {
        Self {
            host: Accel::cpu(),
            gpus: (0..n_gpus)
                .map(|i| {
                    Accel::gpu_with(DeviceConfig {
                        cost: cost.clone(),
                        mem_capacity,
                        streams: 1,
                    })
                    .with_trace_group(gmip_trace::TrackGroup::Gpu(i as u16))
                })
                .collect(),
        }
    }

    /// The node's makespan: the max simulated time over host and devices.
    pub fn makespan_ns(&self) -> f64 {
        let mut t = self.host.elapsed_ns();
        for g in &self.gpus {
            t = t.max(g.elapsed_ns());
        }
        t
    }

    /// Aggregated stats over host + devices.
    pub fn total_stats(&self) -> DeviceStats {
        let mut s = self.host.stats();
        for g in &self.gpus {
            s.merge(&g.stats());
        }
        s
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

    #[test]
    fn node_makespan_is_max_over_executors() {
        let node = ComputeNode::new(2, 1);
        let m = DenseMatrix::identity(16);
        node.gpus[0]
            .with(|d| {
                let h = d.upload_matrix(&m, DEFAULT_STREAM)?;
                d.lu_factor(h, DEFAULT_STREAM)
            })
            .unwrap();
        let t0 = node.gpus[0].elapsed_ns();
        assert!(t0 > 0.0);
        assert_eq!(node.gpus[1].elapsed_ns(), 0.0);
        assert_eq!(node.makespan_ns(), t0);
        let total = node.total_stats();
        assert_eq!(total.h2d_transfers, 1);
    }

    #[test]
    fn custom_cost_node() {
        let node = ComputeNode::with_cost(1, 1 << 20, CostModel::gpu_nvlink());
        assert_eq!(node.gpus[0].cost_name(), "gpu-nvlink");
        assert_eq!(node.gpus[0].mem_capacity(), 1 << 20);
        assert_eq!(node.gpus[0].mem_used(), 0);
    }
}
