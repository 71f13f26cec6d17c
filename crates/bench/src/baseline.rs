//! Deterministic simulated-ns regression baseline.
//!
//! Every workload here runs on the logical clock with fixed seeds, so the
//! numbers are bit-reproducible across machines: the committed
//! `BENCH_baseline.json` is compared verbatim by the `bench-regression` CI
//! job, which fails if any tracked `*_ns` total regresses by more than 2%.

use crate::experiments::e4;

/// Collects every tracked metric as `(name, value)` pairs, in emission
/// order. Names ending in `_ns` are simulated-time totals and are the ones
/// the regression gate compares; the rest (launch/superstep counts) are
/// recorded for context and checked for exact equality.
pub fn collect() -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();

    // The E4 part-C sweep: per-lane vs batched-wave node evaluation.
    for r in e4::wave_sweep() {
        let w = r.width;
        m.push((format!("e4.wave.w{w}.perlane_ns"), r.perlane_ns));
        m.push((
            format!("e4.wave.w{w}.perlane_launches"),
            r.perlane_launches as f64,
        ));
        m.push((format!("e4.wave.w{w}.batched_ns"), r.batched_ns));
        m.push((
            format!("e4.wave.w{w}.batched_launches"),
            r.batched_launches as f64,
        ));
        m.push((
            format!("e4.wave.w{w}.batched_supersteps"),
            r.batched_supersteps as f64,
        ));
    }

    // Single simulated device driving the full branch-and-cut loop.
    {
        use gmip_core::{plan, MipConfig, MipSolver, Strategy};
        use gmip_gpu::CostModel;
        let p = plan(
            Strategy::CpuOrchestrated,
            MipConfig::default(),
            CostModel::gpu_pcie(),
            1 << 30,
        );
        let mut s = MipSolver::with_plan(gmip_problems::generators::knapsack(18, 0.5, 99), p);
        let r = s.solve().expect("device solve");
        m.push(("mip.device.knapsack18.sim_ns".into(), r.stats.sim_time_ns));
        m.push((
            "mip.device.knapsack18.launches".into(),
            r.stats.device.kernel_launches as f64,
        ));
    }

    // The DES cluster, flat and hierarchical.
    {
        use gmip_parallel::{solve_parallel, ParallelConfig};
        let inst = gmip_problems::generators::knapsack(16, 0.5, 5);
        let plain = solve_parallel(
            &inst,
            ParallelConfig {
                workers: 3,
                gpu_mem: 1 << 26,
                ..Default::default()
            },
        )
        .expect("cluster solve");
        m.push(("cluster.des.w3.makespan_ns".into(), plain.stats.makespan_ns));
        // The two-tier hierarchy on the same instance: tracks the makespan
        // and the root-link control-message count (the E10 quantity the
        // full BENCH_scale.json sweeps over rank counts).
        let hier = gmip_parallel::solve_hierarchical(
            &inst,
            ParallelConfig {
                workers: 8,
                gpu_mem: 1 << 26,
                ..Default::default()
            },
            gmip_parallel::HierarchyConfig {
                fanout: 4,
                ..Default::default()
            },
        )
        .expect("hier cluster solve");
        m.push((
            "cluster.hier.w8x4.makespan_ns".into(),
            hier.stats.makespan_ns,
        ));
        m.push((
            "cluster.hier.w8x4.root_msgs".into(),
            hier.hier.root_messages as f64,
        ));
    }

    m
}

/// Renders the collected metrics as the `BENCH_baseline.json` document.
pub fn to_json() -> String {
    let metrics = collect();
    let mut s = String::from("{\n  \"schema\": \"gmip-bench-baseline/1\",\n  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        s.push_str(&format!("    \"{name}\": {value:.1}{sep}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn baseline_is_deterministic() {
        assert_eq!(super::to_json(), super::to_json());
    }

    #[test]
    fn baseline_tracks_wave_and_cluster_ns() {
        let j = super::to_json();
        for key in [
            "e4.wave.w4.batched_ns",
            "e4.wave.w16.perlane_ns",
            "mip.device.knapsack18.sim_ns",
            "cluster.des.w3.makespan_ns",
            "cluster.hier.w8x4.makespan_ns",
            "cluster.hier.w8x4.root_msgs",
        ] {
            assert!(j.contains(key), "missing tracked metric {key}");
        }
    }
}
