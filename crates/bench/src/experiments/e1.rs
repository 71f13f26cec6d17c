//! E1 — the four execution strategies across the paper's regimes.
//!
//! Paper source: Section 3. Claims reproduced:
//! * Strategies 2 (CPU-orchestrated) and 3 (Hybrid) are the effective
//!   designs when the LP matrix fits one device;
//! * Strategy 1 (GPU-only) degrades when the branch-and-cut tree outgrows
//!   device memory (spills) and lacks CPU-side machinery (no cuts → more
//!   nodes);
//! * Strategy 4 (Big-MIP) pays collective overhead — a loss when the matrix
//!   fits one device, but the **only** strategy that works at all when it
//!   does not.

use crate::table::{fmt_bytes, fmt_ns, Table};
use gmip_core::{plan, MipConfig, MipSolver, Strategy};
use gmip_gpu::CostModel;
use gmip_problems::generators::{knapsack, random_mip, RandomMipConfig};
use gmip_problems::MipInstance;

struct Regime {
    name: &'static str,
    instance: MipInstance,
    device_mem: usize,
    /// Certify the strategies' agreed optimum against the exact rational
    /// oracle. Off for the dense 60x60 regime: exact arithmetic on an
    /// LP-heavy instance that size is outside the oracle envelope, so the
    /// strategies there are held to mutual agreement only.
    oracle_check: bool,
}

fn regimes() -> Vec<Regime> {
    vec![
        Regime {
            name: "fits-device",
            instance: knapsack(24, 0.5, 31),
            device_mem: 1 << 30,
            oracle_check: true,
        },
        Regime {
            name: "tree>device",
            instance: knapsack(26, 0.5, 42),
            device_mem: 192 << 10,
            oracle_check: true,
        },
        Regime {
            name: "matrix>device",
            instance: random_mip(&RandomMipConfig {
                rows: 60,
                cols: 60,
                density: 0.8,
                integral_fraction: 0.3,
                seed: 77,
            }),
            device_mem: 96 << 10,
            oracle_check: false,
        },
    ]
}

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E1: execution strategies across regimes (paper Section 3)\n\n");
    for regime in regimes() {
        let ext_bytes = {
            // Extended matrix the engine uploads: m x (n_core + m).
            let m = regime.instance.num_cons();
            let n_core = regime.instance.num_vars()
                + regime
                    .instance
                    .cons
                    .iter()
                    .filter(|c| c.sense != gmip_problems::Sense::Eq)
                    .count();
            m * (n_core + m) * 8
        };
        out.push_str(&format!(
            "regime `{}`: {} ({} B LP matrix, {} B device)\n",
            regime.name, regime.instance.name, ext_bytes, regime.device_mem
        ));
        let mut t = Table::new(&[
            "strategy",
            "status",
            "objective",
            "nodes",
            "cuts",
            "spills",
            "H2D",
            "sim time",
        ]);
        let mut optima: Vec<f64> = Vec::new();
        for strategy in [
            Strategy::GpuOnly,
            Strategy::CpuOrchestrated,
            Strategy::Hybrid,
            Strategy::BigMip { devices: 4 },
        ] {
            let p = plan(
                strategy,
                MipConfig::default(),
                CostModel::gpu_pcie(),
                regime.device_mem,
            );
            let mut solver = MipSolver::with_plan(regime.instance.clone(), p);
            match solver.solve() {
                Ok(r) => {
                    optima.push(r.objective);
                    t.row(vec![
                        strategy.name().into(),
                        format!("{:?}", r.status),
                        format!("{:.1}", r.objective),
                        r.stats.nodes.to_string(),
                        r.stats.cuts.to_string(),
                        r.stats.gpu_spills.to_string(),
                        fmt_bytes(r.stats.device.h2d_bytes),
                        fmt_ns(r.stats.sim_time_ns),
                    ]);
                }
                Err(e) => {
                    t.row(vec![
                        strategy.name().into(),
                        "OOM".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("{e}").chars().take(24).collect(),
                    ]);
                }
            }
        }
        // All successful strategies must agree — and where the exact
        // oracle is affordable, agree with the certified optimum.
        for w in optima.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6, "strategies disagree");
        }
        if regime.oracle_check {
            let exact = crate::experiments::oracle_optimum(&regime.instance);
            for (i, &obj) in optima.iter().enumerate() {
                assert!(
                    (obj - exact).abs() < 1e-6,
                    "regime `{}`: strategy #{i} optimum {obj} disagrees with \
                     the exact oracle {exact}",
                    regime.name
                );
            }
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "shape check: strategy 2/3 need the fewest nodes in-regime and finish first or \
         within 2% of it (strategy 1 never ships a cut and pays for that in nodes); \
         strategy 1 spills when the tree outgrows the device; strategy 4 alone survives \
         matrix>device.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_covers_all_strategies_and_regimes() {
        let s = super::run();
        assert!(s.contains("gpu-only"));
        assert!(s.contains("cpu-orchestrated"));
        assert!(s.contains("hybrid"));
        assert!(s.contains("big-mip"));
        assert!(s.contains("fits-device"));
        assert!(s.contains("matrix>device"));
        // The matrix>device regime must show OOM for single-device runs.
        assert!(s.contains("OOM"));
    }
}
