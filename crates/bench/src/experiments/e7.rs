//! E7 — the linear-algebra substrate: dense efficiency, batched launches,
//! and factorization update/reuse.
//!
//! Paper source: Sections 4.1–4.3. Claims reproduced:
//! * dense LU reaches high device efficiency at scale (compute-bound
//!   roofline) while sparse LU stays throughput-limited;
//! * batched small-matrix routines (MAGMA/Rennich-style) amortize launches;
//! * a rank-1 eta update costs far less than refactorizing the basis.

use crate::experiments::gpu;
use crate::table::{fmt_ns, Table};
use gmip_gpu::{CostModel, DEFAULT_STREAM as S};
use gmip_linalg::{CsrMatrix, DenseMatrix};
use rand::{Rng, SeedableRng};

fn dd_matrix(n: usize, density: f64, seed: u64) -> DenseMatrix {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        a.set(i, i, n as f64 + rng.gen_range(1.0..3.0));
        for j in 0..n {
            if i != j && rng.gen_bool(density) {
                a.set(i, j, rng.gen_range(-1.0..1.0));
            }
        }
    }
    a
}

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E7: linear-algebra kernels on the device (paper Section 4)\n\n");

    // Part A: dense LU size sweep with achieved fraction of peak.
    out.push_str("part A: dense LU factorization size sweep\n");
    let peak = CostModel::gpu_pcie().dense_flops_per_ns;
    let mut t = Table::new(&["n", "kernel time", "flops", "% of peak"]);
    for n in [64usize, 128, 256, 512] {
        let a = dd_matrix(n, 0.5, 7);
        let dev = gpu(1 << 30);
        dev.with(|d| {
            let h = d.upload_matrix(&a, S)?;
            d.lu_factor(h, S)
        })
        .expect("LU");
        let s = dev.stats();
        let eff = s.flops / s.kernel_ns / peak;
        t.row(vec![
            n.to_string(),
            fmt_ns(s.kernel_ns),
            format!("{:.2e}", s.flops),
            format!("{:.0}%", 100.0 * eff),
        ]);
    }
    out.push_str(&t.render());

    // Part B: batched vs looped factorization of many small matrices.
    out.push_str("\npart B: batched vs looped small-matrix factor+solve (64 of 24x24)\n");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
    let systems: Vec<(DenseMatrix, Vec<f64>)> = (0..64)
        .map(|_| {
            let a = dd_matrix(24, 0.6, rng.gen());
            let b: Vec<f64> = (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect();
            (a, b)
        })
        .collect();
    let looped = gpu(1 << 30);
    looped
        .with(|d| -> Result<(), gmip_gpu::GpuError> {
            for (a, b) in &systems {
                let ah = d.upload_matrix(a, S)?;
                let bh = d.upload_vector(b, S)?;
                let f = d.lu_factor(ah, S)?;
                d.lu_solve(f, bh, S)?;
            }
            Ok(())
        })
        .expect("looped");
    let batched = gpu(1 << 30);
    batched
        .with(|d| -> Result<(), gmip_gpu::GpuError> {
            let mut hs = Vec::new();
            for (a, b) in &systems {
                hs.push((d.upload_matrix(a, S)?, d.upload_vector(b, S)?));
            }
            d.batched_lu_solve(&hs, S)?;
            Ok(())
        })
        .expect("batched");
    let (ln, bn) = (looped.elapsed_ns(), batched.elapsed_ns());
    let mut t = Table::new(&["mode", "launches", "sim time"]);
    t.row(vec![
        "looped".into(),
        looped.stats().kernel_launches.to_string(),
        fmt_ns(ln),
    ]);
    t.row(vec![
        "batched".into(),
        batched.stats().kernel_launches.to_string(),
        fmt_ns(bn),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!("batching win: {:.1}x\n", ln / bn));
    assert!(bn < ln);

    // Part C: eta (rank-1) update vs refactorization. The basis must be
    // large enough that factorization compute dominates launch latency —
    // exactly the regime where the paper says update support matters.
    out.push_str("\npart C: rank-1 basis update vs refactorization (n = 768)\n");
    let n = 768;
    let b0 = dd_matrix(n, 0.05, 3);
    let dev = gpu(1 << 30);
    let (update_ns, refactor_ns) = dev
        .with(|d| -> Result<(f64, f64), gmip_gpu::GpuError> {
            let bh = d.upload_matrix(&b0, S)?;
            let (eta, col, alpha) = (d.vacant_eta(), d.vacant_vector(), d.vacant_vector());
            let every_column: Vec<usize> = (0..n).collect();
            d.eta_factor(bh, &every_column, eta, S)?;
            // One rank-1 update: FTRAN a column, record an eta.
            d.extract_column(bh, 0, col, S)?;
            let t0 = d.elapsed_ns();
            d.eta_ftran(eta, col, alpha, S)?;
            d.eta_update(eta, 0, alpha, S)?;
            let t1 = d.elapsed_ns();
            // Full refactorization for comparison.
            d.eta_refactorize(eta, bh, S)?;
            let t2 = d.elapsed_ns();
            Ok((t1 - t0, t2 - t1))
        })
        .expect("eta comparison");
    let mut t = Table::new(&["operation", "sim time"]);
    t.row(vec![
        "rank-1 eta update (FTRAN + append)".into(),
        fmt_ns(update_ns),
    ]);
    t.row(vec!["full refactorization".into(), fmt_ns(refactor_ns)]);
    out.push_str(&t.render());
    assert!(update_ns < refactor_ns);

    // Part D: sparse LU stays far from dense throughput.
    out.push_str("\npart D: sparse LU effective throughput (n = 256)\n");
    let mut t = Table::new(&["density", "fill nnz", "kernel time", "Gflop/s"]);
    for density in [0.02, 0.1, 0.3] {
        let a = dd_matrix(256, density, 5);
        let sp = CsrMatrix::from_dense(&a);
        let dev = gpu(1 << 30);
        dev.with(|d| {
            let h = d.upload_sparse(&sp, S)?;
            d.lu_factor(h, S)
        })
        .expect("sparse LU");
        let s = dev.stats();
        t.row(vec![
            format!("{density:.2}"),
            format!("{:.0}", s.flops / 4.0),
            fmt_ns(s.kernel_ns),
            format!("{:.0}", s.flops / s.kernel_ns),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n(device dense peak: {:.0} Gflop/s; sparse ceiling: {:.0} Gflop/s)\n",
        peak,
        CostModel::gpu_pcie().sparse_flops_per_ns
    ));
    out.push_str(
        "shape check: dense LU approaches peak as n grows; batching amortizes launches; \
         rank-1 updates are cheap; sparse throughput is capped well below dense.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn dense_efficiency_grows_with_n() {
        let s = super::run();
        let effs: Vec<f64> = s
            .lines()
            .filter(|l| l.trim_end().ends_with('%') && l.trim_start().starts_with(char::is_numeric))
            .filter_map(|l| {
                l.split_whitespace()
                    .last()
                    .and_then(|v| v.trim_end_matches('%').parse().ok())
            })
            .collect();
        assert!(effs.len() >= 4, "expected efficiency rows: {s}");
        assert!(
            effs[effs.len() - 1] > effs[0],
            "efficiency should grow with n: {effs:?}"
        );
        assert!(s.contains("batching win"));
    }
}
