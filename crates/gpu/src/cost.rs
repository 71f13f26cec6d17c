//! The accelerator cost model.
//!
//! The paper's design arguments are all *relative-cost* arguments: dense
//! linear algebra is fast on GPUs, sparse is not (Sections 3, 5.4);
//! host↔device transfers are expensive enough that the matrix must be reused
//! across simplex iterations, cuts, and tree nodes (Section 5); kernel-launch
//! latency makes batched small-matrix routines the right shape for many
//! concurrent node LPs (Sections 4.3, 5.5). [`CostModel`] captures exactly
//! these knobs; the simulated device charges every operation through it.
//!
//! All times are in nanoseconds of *simulated* time; throughputs are in
//! flops (or bytes) per nanosecond, i.e. Gflop/s (or GB/s) divided by 1e0 —
//! 1 flop/ns = 1 Gflop/s.

/// Cost parameters for a simulated accelerator (or CPU) backend.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Human-readable preset name.
    pub name: &'static str,
    /// Dense floating-point throughput, flops per nanosecond (== Gflop/s).
    pub dense_flops_per_ns: f64,
    /// Effective throughput of irregular/sparse kernels, flops per ns.
    /// Far below `dense_flops_per_ns` on GPU-like presets (Section 5.4).
    pub sparse_flops_per_ns: f64,
    /// Device memory bandwidth, bytes per nanosecond (== GB/s).
    pub mem_bw_bytes_per_ns: f64,
    /// Host↔device interconnect bandwidth, bytes per ns.
    pub link_bw_bytes_per_ns: f64,
    /// Fixed latency per host↔device transfer, ns.
    pub link_latency_ns: f64,
    /// Fixed latency per kernel launch, ns.
    pub launch_latency_ns: f64,
    /// Number of small independent problems the device can execute
    /// concurrently (SM count proxy; sizes batched-kernel speedups).
    pub concurrency: usize,
    /// Board/package power draw while busy, watts — backs the paper's
    /// Section 2.2 claim that "GPUs offer more energy efficient computing
    /// compared to the CPU counterpart": energy = power × busy time, so the
    /// device wins on energy exactly where its throughput advantage
    /// outruns its power premium.
    pub power_w: f64,
}

impl CostModel {
    /// A V100/A100-class data-center GPU over PCIe Gen3.
    ///
    /// Numbers are order-of-magnitude: ~7 Tflop/s FP64 dense, ~900 GB/s HBM2,
    /// ~12 GB/s effective PCIe, ~10 µs kernel launch, O(100)-way small-kernel
    /// concurrency. Sparse effective throughput is set ~50× below dense,
    /// reflecting the irregular-access penalty the paper describes.
    pub fn gpu_pcie() -> Self {
        Self {
            name: "gpu-pcie",
            dense_flops_per_ns: 7000.0,
            sparse_flops_per_ns: 140.0,
            mem_bw_bytes_per_ns: 900.0,
            link_bw_bytes_per_ns: 12.0,
            link_latency_ns: 10_000.0,
            launch_latency_ns: 8_000.0,
            concurrency: 108,
            power_w: 300.0,
        }
    }

    /// Same device class over an NVLink-like interconnect (Summit-style).
    pub fn gpu_nvlink() -> Self {
        Self {
            name: "gpu-nvlink",
            link_bw_bytes_per_ns: 75.0,
            link_latency_ns: 2_000.0,
            ..Self::gpu_pcie()
        }
    }

    /// A many-core host CPU. Dense throughput two orders of magnitude below
    /// the GPU, but no transfer/launch overheads and a much smaller
    /// dense/sparse gap (caches tolerate irregular access better).
    pub fn cpu_host() -> Self {
        Self {
            name: "cpu-host",
            dense_flops_per_ns: 60.0,
            sparse_flops_per_ns: 20.0,
            mem_bw_bytes_per_ns: 100.0,
            link_bw_bytes_per_ns: f64::INFINITY,
            link_latency_ns: 0.0,
            launch_latency_ns: 0.0,
            concurrency: 16,
            power_w: 150.0,
        }
    }

    /// An idealized zero-copy accelerator (unified memory, no transfer cost)
    /// used in experiment E8 to isolate the interconnect's influence.
    pub fn gpu_zero_copy() -> Self {
        Self {
            name: "gpu-zero-copy",
            link_bw_bytes_per_ns: f64::INFINITY,
            link_latency_ns: 0.0,
            ..Self::gpu_pcie()
        }
    }

    /// Scales the interconnect of this model by `bw_factor` (bandwidth) while
    /// keeping everything else — the E8 transfer-cost sweep.
    pub fn with_link_scaled(&self, bw_factor: f64, latency_factor: f64) -> Self {
        Self {
            link_bw_bytes_per_ns: self.link_bw_bytes_per_ns * bw_factor,
            link_latency_ns: self.link_latency_ns * latency_factor,
            ..self.clone()
        }
    }

    /// Time to move `bytes` across the host↔device link.
    pub fn transfer_ns(&self, bytes: usize) -> f64 {
        if self.link_bw_bytes_per_ns.is_infinite() && self.link_latency_ns == 0.0 {
            return 0.0;
        }
        self.link_latency_ns + bytes as f64 / self.link_bw_bytes_per_ns
    }

    /// Execution time of a kernel body doing `flops` floating-point
    /// operations at `flops_per_ns` over `bytes` of traffic: the roofline max
    /// of compute and memory time, no launch.
    pub fn body_ns(&self, flops: f64, bytes: f64, flops_per_ns: f64) -> f64 {
        (flops / flops_per_ns).max(bytes / self.mem_bw_bytes_per_ns)
    }

    /// Time for a dense kernel launched on its own: launch latency plus its
    /// [body](Self::body_ns) at the dense throughput.
    pub fn dense_kernel_ns(&self, flops: f64, bytes: f64) -> f64 {
        self.launch_latency_ns + self.body_ns(flops, bytes, self.dense_flops_per_ns)
    }

    /// Time for an irregular/sparse kernel (same roofline shape, lower
    /// effective compute throughput).
    pub fn sparse_kernel_ns(&self, flops: f64, bytes: f64) -> f64 {
        self.launch_latency_ns + self.body_ns(flops, bytes, self.sparse_flops_per_ns)
    }

    /// Time for a *batched* kernel of `batch` independent small problems each
    /// costing `per_op_ns` of pure execution: one launch, problems spread
    /// over [`concurrency`](Self::concurrency) units in waves.
    pub fn batched_kernel_ns(&self, batch: usize, per_op_ns: f64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let waves = batch.div_ceil(self.concurrency);
        self.launch_latency_ns + waves as f64 * per_op_ns
    }
}

/// Standard flop counts for the kernels the device offers.
pub mod flops {
    /// LU factorization of an `n × n` dense matrix: (2/3)n³.
    pub fn lu(n: usize) -> f64 {
        2.0 / 3.0 * (n as f64).powi(3)
    }

    /// Triangular solve pair against an `n × n` factorization: 2n².
    pub fn lu_solve(n: usize) -> f64 {
        2.0 * (n as f64) * (n as f64)
    }

    /// Dense matrix–vector product, `m × n`: 2mn.
    pub fn gemv(m: usize, n: usize) -> f64 {
        2.0 * m as f64 * n as f64
    }

    /// Sparse matrix–vector product with `nnz` nonzeros: 2·nnz.
    pub fn spmv(nnz: usize) -> f64 {
        2.0 * nnz as f64
    }

    /// Sparse LU with `fill` total stored factor nonzeros: proportional to
    /// the fill actually produced (a standard work proxy).
    pub fn sparse_lu(fill: usize) -> f64 {
        4.0 * fill as f64
    }

    /// One eta-file FTRAN/BTRAN application over `k` etas of dimension `n`.
    pub fn eta_apply(k: usize, n: usize) -> f64 {
        2.0 * k as f64 * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_sensibly() {
        let gpu = CostModel::gpu_pcie();
        let cpu = CostModel::cpu_host();
        // GPU dense throughput dwarfs CPU; sparse gap is much larger on GPU.
        assert!(gpu.dense_flops_per_ns > 10.0 * cpu.dense_flops_per_ns);
        assert!(gpu.dense_flops_per_ns / gpu.sparse_flops_per_ns > 10.0);
        assert!(cpu.dense_flops_per_ns / cpu.sparse_flops_per_ns < 10.0);
        // NVLink beats PCIe.
        assert!(
            CostModel::gpu_nvlink().transfer_ns(1 << 20)
                < CostModel::gpu_pcie().transfer_ns(1 << 20)
        );
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let m = CostModel::gpu_pcie();
        let small = m.transfer_ns(8);
        let big = m.transfer_ns(8 << 20);
        assert!(big > small);
        // Latency dominates tiny transfers.
        assert!((small - m.link_latency_ns).abs() / m.link_latency_ns < 0.01);
        // Zero-copy preset transfers for free.
        assert_eq!(CostModel::gpu_zero_copy().transfer_ns(8 << 20), 0.0);
    }

    #[test]
    fn roofline_picks_max_of_compute_and_memory() {
        let m = CostModel::gpu_pcie();
        // Compute-bound: lots of flops, no bytes.
        let t1 = m.dense_kernel_ns(7.0e9, 0.0);
        assert!((t1 - m.launch_latency_ns - 1.0e6).abs() < 1.0);
        // Memory-bound: tiny flops, lots of bytes.
        let t2 = m.dense_kernel_ns(1.0, 900.0e6);
        assert!((t2 - m.launch_latency_ns - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn sparse_kernel_slower_than_dense_for_same_flops() {
        let m = CostModel::gpu_pcie();
        assert!(m.sparse_kernel_ns(1e9, 0.0) > m.dense_kernel_ns(1e9, 0.0));
    }

    #[test]
    fn batching_amortizes_launch_latency() {
        let m = CostModel::gpu_pcie();
        let per_op = 500.0;
        let batch = 64;
        let batched = m.batched_kernel_ns(batch, per_op);
        let serial = batch as f64 * (m.launch_latency_ns + per_op);
        assert!(batched < serial / 10.0, "batched={batched} serial={serial}");
        assert_eq!(m.batched_kernel_ns(0, per_op), 0.0);
        // More problems than concurrency → multiple waves.
        let two_waves = m.batched_kernel_ns(m.concurrency + 1, per_op);
        assert!((two_waves - (m.launch_latency_ns + 2.0 * per_op)).abs() < 1e-9);
    }

    #[test]
    fn link_scaling() {
        let m = CostModel::gpu_pcie().with_link_scaled(2.0, 0.5);
        assert_eq!(m.link_bw_bytes_per_ns, 24.0);
        assert_eq!(m.link_latency_ns, 5_000.0);
    }

    #[test]
    fn flop_counts() {
        assert_eq!(flops::lu_solve(10), 200.0);
        assert_eq!(flops::gemv(3, 4), 24.0);
        assert_eq!(flops::spmv(100), 200.0);
        assert!((flops::lu(3) - 18.0).abs() < 1e-12);
    }
}
