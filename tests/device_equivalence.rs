//! Property-based equivalence of the simulated device kernels and the host
//! linear algebra: the device charges simulated cost but must compute the
//! same numbers, conserve its memory ledger, and keep its clock monotone.

use gmip::gpu::{Accel, DEFAULT_STREAM as S};
use gmip::linalg::{CsrMatrix, DenseMatrix, LuFactors};
use proptest::prelude::*;

/// Strategy: a small well-conditioned (diagonally dominant) matrix.
fn dd_matrix_strategy(max_n: usize) -> impl Strategy<Value = DenseMatrix> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(-1.0f64..1.0, n * n),
                proptest::collection::vec(1.0f64..3.0, n),
            )
        })
        .prop_map(|(n, off, diag)| {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        a.set(i, j, n as f64 + diag[i]);
                    } else {
                        a.set(i, j, off[i * n + j]);
                    }
                }
            }
            a
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Device LU solve equals host LU solve bit-for-bit (same kernel code).
    #[test]
    fn device_lu_equals_host(a in dd_matrix_strategy(10)) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let host = LuFactors::factorize(&a).expect("dd nonsingular").solve(&b).expect("solve");
        let accel = Accel::gpu(1);
        let dev = accel.with(|d| -> Result<Vec<f64>, gmip::gpu::GpuError> {
            let ah = d.upload_matrix(&a, S)?;
            let bh = d.upload_vector(&b, S)?;
            let f = d.lu_factor(ah, S)?;
            let x = d.lu_solve(f, bh, S)?;
            d.download_vector(x, S)
        }).expect("device path");
        prop_assert_eq!(host, dev);
    }

    /// Sparse and dense device paths agree numerically.
    #[test]
    fn sparse_and_dense_paths_agree(a in dd_matrix_strategy(8)) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
        let accel = Accel::gpu(1);
        let (xd, xs) = accel.with(|d| -> Result<(Vec<f64>, Vec<f64>), gmip::gpu::GpuError> {
            let ah = d.upload_matrix(&a, S)?;
            let bh = d.upload_vector(&b, S)?;
            let f = d.lu_factor(ah, S)?;
            let x = d.lu_solve(f, bh, S)?;
            let xd = d.download_vector(x, S)?;
            let sh = d.upload_sparse(&CsrMatrix::from_dense(&a), S)?;
            let sf = d.lu_factor(sh, S)?;
            let xs_h = d.lu_solve(sf, bh, S)?;
            let xs = d.download_vector(xs_h, S)?;
            Ok((xd, xs))
        }).expect("paths");
        for (u, v) in xd.iter().zip(&xs) {
            prop_assert!((u - v).abs() < 1e-8, "dense {} vs sparse {}", u, v);
        }
    }

    /// The memory ledger balances: freeing everything returns usage to zero,
    /// and the simulated clock never decreases.
    #[test]
    fn memory_conserved_and_clock_monotone(
        a in dd_matrix_strategy(8),
        ops in 1usize..6,
    ) {
        let accel = Accel::gpu(1);
        let mut last_clock = 0.0f64;
        accel.with(|d| -> Result<(), gmip::gpu::GpuError> {
            let mut vecs = Vec::new();
            let ah = d.upload_matrix(&a, S)?;
            for k in 0..ops {
                let x = vec![k as f64 + 1.0; a.cols()];
                let xh = d.upload_vector(&x, S)?;
                let yh = d.matvec(ah, xh, S)?;
                vecs.push(xh);
                vecs.push(yh);
                let t = d.elapsed_ns();
                assert!(t >= last_clock, "clock went backwards");
                last_clock = t;
            }
            for v in vecs {
                d.free(v)?;
            }
            d.free(ah)?;
            Ok(())
        }).expect("ops");
        prop_assert_eq!(accel.mem_used(), 0, "device memory leaked");
    }

    /// Batched device solve equals per-system host solves.
    #[test]
    fn batched_solve_equals_host(
        mats in proptest::collection::vec(dd_matrix_strategy(6), 1..5),
    ) {
        let rhs: Vec<Vec<f64>> = mats.iter().map(|m| vec![1.0; m.rows()]).collect();
        let accel = Accel::gpu(1);
        let got = accel.with(|d| -> Result<Vec<Vec<f64>>, gmip::gpu::GpuError> {
            let mut hs = Vec::new();
            for (m, b) in mats.iter().zip(&rhs) {
                hs.push((d.upload_matrix(m, S)?, d.upload_vector(b, S)?));
            }
            let xs = d.batched_lu_solve(&hs, S)?;
            xs.into_iter().map(|x| d.download_vector(x, S)).collect()
        }).expect("batched");
        for ((m, b), x) in mats.iter().zip(&rhs).zip(&got) {
            let want = LuFactors::factorize(m).expect("dd").solve(b).expect("solve");
            prop_assert_eq!(&want, x);
        }
    }
}
