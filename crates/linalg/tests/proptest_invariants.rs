//! Property-based invariants of the linear-algebra kernels.
//!
//! * `PA = LU` reconstruction for dense LU on random nonsingular matrices;
//! * solve correctness (`‖Ax − b‖` small) for dense and sparse LU;
//! * eta-file FTRAN/BTRAN agreement with fresh factorizations through
//!   random update sequences;
//! * format-conversion round trips (dense ⇄ CSR ⇄ CSC).

use gmip_linalg::{
    norms, CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, EtaFile, LuFactors, SparseEtaFile,
    SparseLu,
};
use proptest::prelude::*;

/// Random diagonally-dominant matrix: always nonsingular, well-conditioned.
fn dd_matrix(max_n: usize) -> impl Strategy<Value = DenseMatrix> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(-1.0f64..1.0, n * n),
                proptest::collection::vec(0.5f64..2.0, n),
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

/// Random sparse diagonally-dominant matrix (entries kept with prob ~p).
fn sparse_dd_matrix(max_n: usize) -> impl Strategy<Value = DenseMatrix> {
    (2usize..=max_n, 0.05f64..0.5)
        .prop_flat_map(|(n, p)| {
            (
                Just(n),
                proptest::collection::vec((0.0f64..1.0, -1.0f64..1.0), n * n),
                Just(p),
            )
        })
        .prop_map(|(n, cells, p)| {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let (coin, v) = cells[i * n + j];
                    if i == j {
                        a.set(i, j, n as f64 + 1.0 + v.abs());
                    } else if coin < p {
                        a.set(i, j, v);
                    }
                }
            }
            a
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn dense_lu_reconstructs_pa(a in dd_matrix(9)) {
        let f = LuFactors::factorize(&a).expect("dd nonsingular");
        let pa_rows: Vec<Vec<f64>> = f.perm().iter().map(|&p| a.row(p).to_vec()).collect();
        let pa = DenseMatrix::from_rows(&pa_rows).expect("rows");
        let lu = f.reconstruct_permuted();
        prop_assert!(norms::max_abs_diff(pa.as_slice(), lu.as_slice()) < 1e-9);
    }

    #[test]
    fn dense_lu_solves(a in dd_matrix(9)) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let x = LuFactors::factorize(&a).expect("dd").solve(&b).expect("solve");
        let ax = a.matvec(&x).expect("dims");
        prop_assert!(norms::relative_residual(&ax, &b) < 1e-8);
        // Transposed solve too.
        let y = LuFactors::factorize(&a).expect("dd").solve_transposed(&b).expect("solve_t");
        let aty = a.transpose().matvec(&y).expect("dims");
        prop_assert!(norms::relative_residual(&aty, &b) < 1e-8);
    }

    #[test]
    fn sparse_lu_matches_dense(a in sparse_dd_matrix(10)) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 - 0.3 * i as f64).collect();
        let dense_x = LuFactors::factorize(&a).expect("dd").solve(&b).expect("solve");
        let csc = CscMatrix::from_dense(&a);
        let sf = SparseLu::factorize(&csc).expect("dd sparse");
        let sparse_x = sf.solve(&b).expect("sparse solve");
        prop_assert!(norms::max_abs_diff(&dense_x, &sparse_x) < 1e-8);
        let dense_y = LuFactors::factorize(&a).expect("dd").solve_transposed(&b).expect("t");
        let sparse_y = sf.solve_transposed(&b).expect("sparse t");
        prop_assert!(norms::max_abs_diff(&dense_y, &sparse_y) < 1e-8);
    }

    /// Random basis-exchange sequences: eta files (dense and sparse base)
    /// stay consistent with a fresh factorization of the explicit basis.
    #[test]
    fn eta_files_track_refactorization(
        b0 in dd_matrix(7),
        exchanges in proptest::collection::vec(
            (0usize..7, proptest::collection::vec(-2.0f64..2.0, 7)), 1..5),
    ) {
        let n = b0.rows();
        let mut explicit = b0.clone();
        let mut dense_file: EtaFile = EtaFile::factorize(&b0).expect("factorize");
        let mut sparse_file = SparseEtaFile::factorize(&CscMatrix::from_dense(&b0))
            .expect("sparse factorize");
        for (pos_raw, col_raw) in exchanges {
            let pos = pos_raw % n;
            // Make the new column strongly pivoted at `pos` so the exchange
            // keeps the basis comfortably nonsingular.
            let mut col: Vec<f64> = col_raw[..n].to_vec();
            col[pos] += 3.0 * n as f64;
            let alpha = dense_file.ftran(&col).expect("ftran");
            if alpha[pos].abs() < 1e-6 {
                continue; // degenerate exchange; skip
            }
            dense_file.update(pos, &alpha).expect("dense update");
            let alpha_s = sparse_file.ftran(&col).expect("sparse ftran");
            sparse_file.update(pos, &alpha_s).expect("sparse update");
            for i in 0..n {
                explicit.set(i, pos, col[i]);
            }
            let fresh = LuFactors::factorize(&explicit).expect("explicit basis");
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
            let x_eta = dense_file.ftran(&rhs).expect("ftran");
            let x_fresh = fresh.solve(&rhs).expect("solve");
            prop_assert!(norms::max_abs_diff(&x_eta, &x_fresh) < 1e-6);
            let x_sparse = sparse_file.ftran(&rhs).expect("sparse ftran");
            prop_assert!(norms::max_abs_diff(&x_sparse, &x_fresh) < 1e-6);
            let y_eta = dense_file.btran(&rhs).expect("btran");
            let y_fresh = fresh.solve_transposed(&rhs).expect("solve_t");
            prop_assert!(norms::max_abs_diff(&y_eta, &y_fresh) < 1e-6);
        }
        // The used files, refactorized in place over the explicit basis
        // (gathered in a shuffled column order and un-shuffled by `cols`),
        // answer with the bits of files that never held anything else.
        let cols: Vec<usize> = (0..n).rev().collect();
        let mut reversed = explicit.clone();
        for i in 0..n {
            reversed.row_mut(i).reverse();
        }
        dense_file.refactorize_columns(&reversed, &cols).expect("in-place gather + LU");
        sparse_file.refactorize(&CscMatrix::from_dense(&explicit)).expect("sparse refactorize");
        let fresh: EtaFile = EtaFile::factorize(&explicit).expect("fresh file");
        let fresh_sparse = SparseEtaFile::factorize(&CscMatrix::from_dense(&explicit))
            .expect("fresh sparse file");
        prop_assert_eq!(dense_file.eta_count(), 0);
        prop_assert_eq!(sparse_file.eta_count(), 0);
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64) * 0.25).collect();
        prop_assert_eq!(dense_file.ftran(&rhs).expect("ftran"), fresh.ftran(&rhs).expect("ftran"));
        prop_assert_eq!(dense_file.btran(&rhs).expect("btran"), fresh.btran(&rhs).expect("btran"));
        prop_assert_eq!(
            sparse_file.ftran(&rhs).expect("ftran"),
            fresh_sparse.ftran(&rhs).expect("ftran")
        );
    }

    /// Dense → CSR → CSC → dense round trip is exact for exactly-representable
    /// values above the zero tolerance.
    #[test]
    fn sparse_format_roundtrip(a in sparse_dd_matrix(12)) {
        let csr = CsrMatrix::from_dense(&a);
        let csc = csr.to_csc();
        prop_assert_eq!(csc.to_dense(), a.clone());
        prop_assert_eq!(csc.to_csr(), csr.clone());
        // SpMV agreement between all three representations.
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let yd = a.matvec(&x).expect("dense");
        let yr = csr.matvec(&x).expect("csr");
        let yc = csc.matvec(&x).expect("csc");
        prop_assert!(norms::max_abs_diff(&yd, &yr) < 1e-12);
        prop_assert!(norms::max_abs_diff(&yd, &yc) < 1e-12);
    }

    /// COO duplicate accumulation equals dense accumulation.
    #[test]
    fn coo_accumulation_matches_dense(
        triplets in proptest::collection::vec(
            (0usize..5, 0usize..5, -2.0f64..2.0), 0..30),
    ) {
        let mut coo = CooMatrix::new(5, 5);
        let mut dense = DenseMatrix::zeros(5, 5);
        for &(i, j, v) in &triplets {
            coo.push(i, j, v).expect("in range");
            dense.set(i, j, dense.get(i, j) + v);
        }
        let from_coo = coo.to_csr().to_dense();
        prop_assert!(norms::max_abs_diff(from_coo.as_slice(), dense.as_slice()) < 1e-12);
    }
}
