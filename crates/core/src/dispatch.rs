//! Runtime dense/sparse code-path dispatch — the "super-MIP solver" of
//! Section 5.4.
//!
//! "the code must handle user-provided inputs differently, based on whether
//! the input matrix happens to be dense or sparse; this decision needs to
//! be made at runtime, depending on the exact problem input by the user.
//! Therefore, for the highest efficiency, two different MIP solver versions
//! would need to be written: one specially built for sparse MIP problems
//! and the other for dense MIP problems. Alternatively, a super-MIP solver
//! for GPUs would need to be written which dynamically takes different code
//! paths based on the input matrix characteristics."
//!
//! This module is the super-solver, and what it dispatches over is one
//! orchestration with two kernel sets, chosen at run time: the device
//! simplex is written once ([`gmip_lp::DeviceSimplex`]) over a storage
//! parameter, and [`gmip_lp::DeviceEngine`] / [`gmip_lp::SparseDeviceEngine`]
//! are its dense-resident and CSR-resident instances — each with its own
//! kernels, kernel names and cost formulas, neither a second copy of the
//! solver. [`solve_with_dispatch`] inspects the input's density and nonzero
//! count and takes the matching instance (delegating tiny sparse inputs to
//! the CPU, per Section 3's "sparse matrix computations … can be delegated
//! to the multi-core processors").

use crate::config::MipConfig;
use crate::solver::{MipResult, MipSolver};
use gmip_gpu::{Accel, CostModel};
use gmip_lp::{DeviceEngine, LpResult, SparseDeviceEngine};
use gmip_problems::MipInstance;

/// The chosen code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodePath {
    /// Dense kernels on the accelerator.
    DenseDevice,
    /// Sparse (CSR/GLU-class) kernels on the accelerator.
    SparseDevice,
    /// Sparse handling on the host CPU (the input is too small for any
    /// device path to amortize its launch/transfer overheads).
    SparseHost,
}

/// The density at which dense device execution stops paying against the
/// device's own sparse/irregular handling: the ratio of sparse to dense
/// effective throughput.
pub fn break_even_density(cost: &CostModel) -> f64 {
    cost.sparse_flops_per_ns / cost.dense_flops_per_ns
}

/// Minimum nonzero count for the sparse *device* path to be worth a
/// device's launch overheads; below this, sparse work stays on the host.
pub const MIN_DEVICE_NNZ: usize = 4096;

/// Decides the code path for an instance at runtime.
///
/// * density ≥ 2× the break-even (safety factor for the dense path's
///   regular memory traffic) → dense device kernels;
/// * otherwise, if the instance carries at least [`MIN_DEVICE_NNZ`]
///   nonzeros → the sparse device engine;
/// * otherwise → host.
pub fn choose_path(instance: &MipInstance, gpu: &CostModel) -> CodePath {
    let density = instance.density();
    let nnz: usize = instance.cons.iter().map(|c| c.coeffs.len()).sum();
    if density >= 2.0 * break_even_density(gpu) {
        CodePath::DenseDevice
    } else if nnz >= MIN_DEVICE_NNZ {
        CodePath::SparseDevice
    } else {
        CodePath::SparseHost
    }
}

/// The super-MIP solver: dispatches at runtime and solves. Returns the path
/// taken alongside the result.
pub fn solve_with_dispatch(
    instance: MipInstance,
    cfg: MipConfig,
    gpu: Accel,
) -> LpResult<(CodePath, MipResult)> {
    let path = choose_path(&instance, &gpu.with(|d| d.cost_model().clone()));
    let result = match path {
        CodePath::DenseDevice => MipSolver::<DeviceEngine>::on_accel(instance, cfg, gpu).solve()?,
        CodePath::SparseDevice => {
            MipSolver::<SparseDeviceEngine>::on_accel(instance, cfg, gpu).solve()?
        }
        CodePath::SparseHost => MipSolver::host_baseline(instance, cfg).solve()?,
    };
    Ok((path, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_problems::generators::{knapsack, set_cover};

    #[test]
    fn break_even_matches_cost_ratio() {
        let gpu = CostModel::gpu_pcie();
        let be = break_even_density(&gpu);
        assert!((be - 140.0 / 7000.0).abs() < 1e-12);
    }

    #[test]
    fn dense_instance_goes_to_device() {
        // Knapsack: single fully dense row.
        let m = knapsack(50, 0.5, 1);
        assert_eq!(
            choose_path(&m, &CostModel::gpu_pcie()),
            CodePath::DenseDevice
        );
    }

    #[test]
    fn small_sparse_stays_on_host_large_goes_to_sparse_device() {
        let small = set_cover(200, 200, 0.01, 1);
        assert_eq!(
            choose_path(&small, &CostModel::gpu_pcie()),
            CodePath::SparseHost
        );
        let large = set_cover(500, 500, 0.03, 1);
        assert!(large.density() < 2.0 * break_even_density(&CostModel::gpu_pcie()));
        assert_eq!(
            choose_path(&large, &CostModel::gpu_pcie()),
            CodePath::SparseDevice
        );
    }

    #[test]
    fn cpu_cost_model_shifts_the_boundary() {
        // The CPU's dense/sparse gap is small, so its break-even density is
        // much higher — almost everything counts as "sparse-friendly".
        let cpu = CostModel::cpu_host();
        let gpu = CostModel::gpu_pcie();
        assert!(break_even_density(&cpu) > 5.0 * break_even_density(&gpu));
    }

    #[test]
    fn super_solver_dispatches_and_solves() {
        use gmip_core_solution_check::*;
        // Dense → dense device path.
        let dense = knapsack(12, 0.5, 4);
        let (path, r) =
            solve_with_dispatch(dense.clone(), MipConfig::default(), Accel::gpu(1)).unwrap();
        assert_eq!(path, CodePath::DenseDevice);
        check_optimal(&dense, &r);
        // Small sparse → host path.
        let sparse = set_cover(30, 40, 0.02, 4);
        let (path, r) =
            solve_with_dispatch(sparse.clone(), MipConfig::default(), Accel::gpu(1)).unwrap();
        assert_eq!(path, CodePath::SparseHost);
        check_optimal(&sparse, &r);
    }

    /// Tiny local helpers for the dispatch test.
    mod gmip_core_solution_check {
        use crate::solver::{MipResult, MipStatus};
        use gmip_problems::MipInstance;

        pub fn check_optimal(m: &MipInstance, r: &MipResult) {
            assert_eq!(r.status, MipStatus::Optimal);
            assert!(m.is_integer_feasible(&r.x, 1e-5));
        }
    }
}
