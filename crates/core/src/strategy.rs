//! The four parallel execution strategies of Section 3.
//!
//! | # | Strategy | Tree | LP relaxations | Notes |
//! |---|----------|------|----------------|-------|
//! | 1 | [`Strategy::GpuOnly`] | device memory | device | fails/spills when the tree outgrows device memory; no CPU-side cut generation |
//! | 2 | [`Strategy::CpuOrchestrated`] | host memory | device | the paper's recommended design: matrix uploaded once, tree handled by the host |
//! | 3 | [`Strategy::Hybrid`] | host memory | device | host additionally runs heuristics/cut generation concurrently (diving enabled) |
//! | 4 | [`Strategy::BigMip`] | host memory | *distributed* across k devices | each LP operation pays inter-device collective overhead |
//!
//! A strategy resolves to a [`StrategyPlan`]: which accelerator executes
//! LPs, where the tree lives, and which solver features are forced on/off.

use crate::config::MipConfig;
use gmip_gpu::{Accel, CostModel, DeviceConfig};

/// The execution strategy for a MIP solve on an accelerated platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Entirely GPU-based execution (Section 3, item 1).
    GpuOnly,
    /// CPU orchestration of GPU execution (item 2) — the paper's pick for
    /// least complexity with full effectiveness.
    CpuOrchestrated,
    /// Hybrid CPU+GPU execution (item 3).
    Hybrid,
    /// Big-MIP execution (item 4): the LP matrix spans `devices` GPUs and
    /// every linear-algebra operation is a distributed collective.
    BigMip {
        /// Number of devices the matrix is partitioned across.
        devices: usize,
    },
}

impl Strategy {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::GpuOnly => "gpu-only",
            Strategy::CpuOrchestrated => "cpu-orchestrated",
            Strategy::Hybrid => "hybrid",
            Strategy::BigMip { .. } => "big-mip",
        }
    }
}

/// The concrete resource/feature assignment a strategy resolves to.
#[derive(Debug, Clone)]
pub struct StrategyPlan {
    /// Executor for LP relaxations.
    pub lp_accel: Accel,
    /// Host executor (tree handling, cut generation, heuristics).
    pub host: Accel,
    /// Device that must hold the tree (Strategy 1), if any.
    pub tree_device: Option<Accel>,
    /// Adjusted solver configuration.
    pub config: MipConfig,
    /// Strategy name for stats.
    pub name: &'static str,
    /// Whether host work overlaps device work in the time model
    /// (Strategy 3's concurrency).
    pub overlap_host: bool,
}

/// Builds the Big-MIP "virtual device": `k` devices pooled into one
/// executor. Aggregate compute and memory scale at 85% parallel efficiency;
/// every kernel additionally pays an allreduce-style latency that grows
/// logarithmically with `k` (ring/tree collectives).
pub fn big_mip_cost(base: &CostModel, k: usize) -> CostModel {
    assert!(k >= 1);
    let eff = 0.85;
    let kf = k as f64;
    CostModel {
        name: "big-mip-pool",
        dense_flops_per_ns: base.dense_flops_per_ns * kf * eff,
        sparse_flops_per_ns: base.sparse_flops_per_ns * kf * eff,
        mem_bw_bytes_per_ns: base.mem_bw_bytes_per_ns * kf * eff,
        link_bw_bytes_per_ns: base.link_bw_bytes_per_ns,
        link_latency_ns: base.link_latency_ns,
        launch_latency_ns: base.launch_latency_ns
            + if k > 1 {
                // Per-operation inter-device collective: ~5 µs per hop level.
                5_000.0 * (kf.log2().ceil())
            } else {
                0.0
            },
        concurrency: base.concurrency * k,
        power_w: base.power_w * kf,
    }
}

/// Resolves a strategy into a [`StrategyPlan`] over a platform of
/// `gpu_mem_bytes`-sized devices with the given GPU cost model.
pub fn plan(
    strategy: Strategy,
    mut config: MipConfig,
    gpu_cost: CostModel,
    gpu_mem_bytes: usize,
) -> StrategyPlan {
    let host = Accel::cpu();
    match strategy {
        Strategy::GpuOnly => {
            // No CPU-side cut generation in a GPU-only design (Section 5.2:
            // no GPU cut generators exist), and no host diving.
            config.cuts.enabled = false;
            config.heuristics.diving = false;
            let gpu = Accel::gpu_with(DeviceConfig {
                cost: gpu_cost,
                mem_capacity: gpu_mem_bytes,
                streams: 1,
            });
            StrategyPlan {
                lp_accel: gpu.clone(),
                host,
                tree_device: Some(gpu),
                config,
                name: Strategy::GpuOnly.name(),
                overlap_host: false,
            }
        }
        Strategy::CpuOrchestrated => {
            config.heuristics.diving = false;
            let gpu = Accel::gpu_with(DeviceConfig {
                cost: gpu_cost,
                mem_capacity: gpu_mem_bytes,
                streams: 1,
            });
            StrategyPlan {
                lp_accel: gpu,
                host,
                tree_device: None,
                config,
                name: Strategy::CpuOrchestrated.name(),
                overlap_host: false,
            }
        }
        Strategy::Hybrid => {
            // Host concurrency is exploited: diving on.
            config.heuristics.diving = true;
            let gpu = Accel::gpu_with(DeviceConfig {
                cost: gpu_cost,
                mem_capacity: gpu_mem_bytes,
                streams: 1,
            });
            StrategyPlan {
                lp_accel: gpu,
                host,
                tree_device: None,
                config,
                name: Strategy::Hybrid.name(),
                overlap_host: true,
            }
        }
        Strategy::BigMip { devices } => {
            config.heuristics.diving = false;
            let pooled = Accel::gpu_with(DeviceConfig {
                cost: big_mip_cost(&gpu_cost, devices),
                mem_capacity: gpu_mem_bytes.saturating_mul(devices),
                streams: 1,
            });
            StrategyPlan {
                lp_accel: pooled,
                host,
                tree_device: None,
                config,
                name: Strategy::BigMip { devices }.name(),
                overlap_host: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Strategy::GpuOnly.name(), "gpu-only");
        assert_eq!(Strategy::BigMip { devices: 4 }.name(), "big-mip");
    }

    #[test]
    fn gpu_only_disables_cuts_and_parks_tree_on_device() {
        let p = plan(
            Strategy::GpuOnly,
            MipConfig::default(),
            CostModel::gpu_pcie(),
            1 << 20,
        );
        assert!(!p.config.cuts.enabled);
        assert!(p.tree_device.is_some());
        let lp_cost = p.lp_accel.with(|d| d.cost_model().clone());
        assert_eq!(lp_cost, CostModel::gpu_pcie(), "node LPs run on the GPU");
    }

    #[test]
    fn cpu_orchestrated_keeps_tree_on_host() {
        let p = plan(
            Strategy::CpuOrchestrated,
            MipConfig::default(),
            CostModel::gpu_pcie(),
            1 << 20,
        );
        assert!(p.tree_device.is_none());
        assert!(p.config.cuts.enabled);
        assert!(!p.config.heuristics.diving);
    }

    #[test]
    fn hybrid_enables_diving() {
        let p = plan(
            Strategy::Hybrid,
            MipConfig::default(),
            CostModel::gpu_pcie(),
            1 << 20,
        );
        assert!(p.config.heuristics.diving);
    }

    #[test]
    fn big_mip_pools_memory_and_pays_collectives() {
        let base = CostModel::gpu_pcie();
        let pooled = big_mip_cost(&base, 4);
        assert!(pooled.dense_flops_per_ns > 3.0 * base.dense_flops_per_ns);
        assert!(pooled.launch_latency_ns > base.launch_latency_ns);
        assert_eq!(pooled.concurrency, base.concurrency * 4);
        // Single device adds no collective overhead.
        let single = big_mip_cost(&base, 1);
        assert_eq!(single.launch_latency_ns, base.launch_latency_ns);

        let p = plan(
            Strategy::BigMip { devices: 4 },
            MipConfig::default(),
            base,
            1 << 20,
        );
        assert_eq!(p.lp_accel.mem_capacity(), 4 << 20);
    }
}
