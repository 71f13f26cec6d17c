//! Batched operations over many small independent matrices.
//!
//! Section 4.3 / 5.5 of the paper: modern GPUs are fed most efficiently by
//! *batch* routines that apply the same BLAS/LAPACK operation to a large
//! number of small matrices at once (MAGMA's batched mode, Rennich et al.'s
//! batched assembly for sparse Cholesky). Here the batch is executed with
//! `rayon` data parallelism on the host; the simulated device in `gmip-gpu`
//! charges a *single* kernel-launch latency for the whole batch, which is
//! what makes batching win in experiment E4.

use crate::dense::DenseMatrix;
use crate::lu::LuFactors;
use crate::Result;
use rayon::prelude::*;

/// One-shot batched factor+solve: returns `xᵢ` with `Aᵢ xᵢ = bᵢ`.
///
/// This is the granularity at which Section 5.5's "dozens of branch-and-cut
/// nodes solved simultaneously" maps onto a single batched kernel launch.
pub fn lu_factor_solve_batch(mats: &[DenseMatrix], rhs: &[Vec<f64>]) -> Vec<Result<Vec<f64>>> {
    mats.par_iter()
        .zip(rhs.par_iter())
        .map(|(a, b)| LuFactors::factorize(a)?.solve(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    fn spd_like(seed: f64) -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![4.0 + seed, 1.0, 0.5],
            vec![1.0, 5.0 + seed, 2.0],
            vec![0.5, 2.0, 6.0 + seed],
        ])
        .unwrap()
    }

    #[test]
    fn batch_factor_solve_matches_individual() {
        let mats: Vec<_> = (0..8).map(|i| spd_like(i as f64 * 0.25)).collect();
        let rhs: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![1.0 + i as f64, -1.0, 0.5 * i as f64])
            .collect();
        let batch = lu_factor_solve_batch(&mats, &rhs);
        for ((a, b), x) in mats.iter().zip(&rhs).zip(&batch) {
            let x = x.as_ref().unwrap();
            let individual = LuFactors::factorize(a).unwrap().solve(b).unwrap();
            assert!(max_abs_diff(x, &individual) < 1e-12);
        }
    }

    #[test]
    fn singular_slot_does_not_poison_batch() {
        let good = spd_like(0.0);
        let singular = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let rhs = vec![vec![1.0, 2.0, 3.0]; 3];
        let results = lu_factor_solve_batch(&[good.clone(), singular, good], &rhs);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }
}
