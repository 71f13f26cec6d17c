//! E8 — host↔device transfer cost as the make-or-break factor.
//!
//! Paper source: Sections 1 and 3 ("host-to-accelerator memory transfer
//! costs complicate the MIP solver adaption"; Strategy 2 amortizes one
//! matrix upload across many node evaluations). Claims reproduced:
//! * GPU offload pays off only when the interconnect is fast enough (or
//!   traffic amortized enough) relative to the kernel gains;
//! * sweeping the link from slow-PCIe to zero-copy moves the GPU/CPU
//!   crossover.

use crate::table::{fmt_ns, Table};
use gmip_core::{MipConfig, MipSolver};
use gmip_gpu::{Accel, CostModel, DeviceConfig};
use gmip_lp::DeviceEngine;
use gmip_problems::generators::{random_mip, RandomMipConfig};

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E8: interconnect sweep — where GPU offload pays (paper Sections 1/3)\n\n");
    // A mid-size dense-ish instance: big enough for kernels to matter.
    let instance = random_mip(&RandomMipConfig {
        rows: 30,
        cols: 60,
        density: 0.7,
        integral_fraction: 0.4,
        seed: 88,
    });

    // CPU reference: same engine code under the host cost model.
    let cpu_accel = Accel::cpu();
    let mut cfg = MipConfig::default();
    cfg.heuristics.rounding = false;
    let mut solver =
        MipSolver::<DeviceEngine>::on_accel(instance.clone(), cfg.clone(), cpu_accel.clone());
    let cpu_r = solver.solve().expect("cpu run");
    let cpu_ns = cpu_r.stats.sim_time_ns;

    let mut t = Table::new(&["link", "latency", "bandwidth", "sim time", "vs CPU"]);
    t.row(vec![
        "cpu (no offload)".into(),
        "-".into(),
        "-".into(),
        fmt_ns(cpu_ns),
        "1.00x".into(),
    ]);
    let base = CostModel::gpu_pcie();
    let links = [
        ("pcie x0.1", base.with_link_scaled(0.1, 4.0)),
        ("pcie", base.clone()),
        ("nvlink", CostModel::gpu_nvlink()),
        ("zero-copy", CostModel::gpu_zero_copy()),
    ];
    let mut ratios = Vec::new();
    for (name, cost) in links {
        let accel = Accel::gpu_with(DeviceConfig {
            cost: cost.clone(),
            mem_capacity: 1 << 30,
            streams: 1,
        });
        let mut solver = MipSolver::<DeviceEngine>::on_accel(instance.clone(), cfg.clone(), accel);
        let r = solver.solve().expect("gpu run");
        assert!(
            (r.objective - cpu_r.objective).abs() < 1e-5,
            "link sweep changed the optimum"
        );
        let ratio = cpu_ns / r.stats.sim_time_ns;
        ratios.push(ratio);
        t.row(vec![
            name.into(),
            if cost.link_latency_ns > 0.0 {
                fmt_ns(cost.link_latency_ns)
            } else {
                "0".into()
            },
            if cost.link_bw_bytes_per_ns.is_finite() {
                format!("{:.0} GB/s", cost.link_bw_bytes_per_ns)
            } else {
                "∞".into()
            },
            fmt_ns(r.stats.sim_time_ns),
            format!("{ratio:.2}x"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nfaster links help monotonically: {:?}\n",
        ratios.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>()
    ));
    for w in ratios.windows(2) {
        assert!(
            w[1] >= w[0] * 0.98,
            "speedup should not degrade with a faster link: {ratios:?}"
        );
    }
    out.push_str(
        "shape check: at this node-LP size the per-kernel launch overhead dominates, so \
         CPU execution can stay competitive — the paper's point that offload pays only \
         when matrices are large or traffic is amortized. Faster links monotonically \
         close the gap.\n",
    );

    // Part B: the offload crossover at the kernel level — one LU + its
    // operand transfer, CPU vs GPU, across sizes. This is where "GPU
    // linear algebra routines ... allow very fast operation" kicks in.
    out.push_str("\npart B: single-factorization offload crossover (LU of n x n + transfer)\n");
    let mut t = Table::new(&[
        "n",
        "cpu",
        "gpu (pcie)",
        "gpu/cpu",
        "energy gpu/cpu",
        "winner",
    ]);
    let mut winners = Vec::new();
    for n in [64usize, 128, 256, 512, 1024] {
        let a = crate::experiments::e2_matrix(n);
        let cpu_dev = Accel::cpu();
        cpu_dev
            .with(|d| {
                let h = d.upload_matrix(&a, gmip_gpu::DEFAULT_STREAM)?;
                d.lu_factor(h, gmip_gpu::DEFAULT_STREAM)
            })
            .expect("cpu LU");
        let cpu_t = cpu_dev.elapsed_ns();
        let gpu_dev = Accel::gpu_with(DeviceConfig {
            cost: CostModel::gpu_pcie(),
            mem_capacity: 1 << 30,
            streams: 1,
        });
        gpu_dev
            .with(|d| {
                let h = d.upload_matrix(&a, gmip_gpu::DEFAULT_STREAM)?;
                d.lu_factor(h, gmip_gpu::DEFAULT_STREAM)
            })
            .expect("gpu LU");
        let gpu_t = gpu_dev.elapsed_ns();
        let winner = if gpu_t < cpu_t { "gpu" } else { "cpu" };
        winners.push((n, winner));
        t.row(vec![
            n.to_string(),
            fmt_ns(cpu_t),
            fmt_ns(gpu_t),
            format!("{:.2}", gpu_t / cpu_t),
            format!("{:.2}", gpu_dev.energy_j() / cpu_dev.energy_j()),
            winner.into(),
        ]);
    }
    out.push_str(&t.render());
    // The crossover must exist: CPU wins small, GPU wins large.
    assert_eq!(winners.first().expect("rows").1, "cpu");
    assert_eq!(winners.last().expect("rows").1, "gpu");
    out.push_str(
        "\nshape check: the offload crossover — launch+transfer overhead loses at small n, \
         device throughput wins at large n (Section 3's 'matrix sizes that fit entirely \
         within one accelerator's memory' sweet spot). Past the crossover the GPU also \
         wins on energy despite its 2x power draw (the Section 2.2 efficiency claim).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn link_speed_helps_monotonically() {
        // The assertions inside run() are the test.
        let s = super::run();
        assert!(s.contains("zero-copy"));
        assert!(s.contains("vs CPU"));
    }
}
