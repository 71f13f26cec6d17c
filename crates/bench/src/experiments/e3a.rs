//! E3a — the simplex iteration loop on the device: rank-1 updates with no
//! per-iteration matrix transfer.
//!
//! Paper source: Section 5.1. Claims reproduced:
//! * the GPU is "exercised ... with rank-1 updates and resolving the
//!   updated matrix repeatedly with no data transfer from host to device or
//!   vice versa" — per-iteration link traffic is O(1) scalars, and what it
//!   costs is counted in *crossings* (each one a link latency), not only in
//!   bytes: a pivot's scalar stores ride its kernels as arguments and its
//!   selection stays on the device, so what still crosses per pivot is one
//!   staged read-back of what the host needs to go on (the entering column,
//!   the leaving row, the step). Launches are counted the same way: a pivot
//!   is two engine calls, each one launch chain — the apply and the select
//!   after it (`price → ftran_column → ratio_test`) — and a chain is
//!   submitted where the host reads, so the apply, which reads nothing back,
//!   rides the select's launch: a pivot costs one launch, not one per
//!   kernel, per primitive or per engine call;
//! * the eta-file (product-form-of-inverse) update beats refactorizing the
//!   basis every iteration.

use crate::experiments::gpu;
use crate::table::{fmt_bytes, fmt_ns, Table};
use gmip_lp::{DeviceEngine, LpConfig, LpSolver, LpStatus, StandardLp};
use gmip_problems::generators::{random_mip, RandomMipConfig};

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E3a: device-resident simplex iterations (paper Section 5.1)\n\n");
    // A pure LP (no integrality) so the iteration count is substantial.
    let instance = random_mip(&RandomMipConfig {
        rows: 40,
        cols: 80,
        density: 0.6,
        integral_fraction: 0.0,
        seed: 5,
    });
    let mut t = Table::new(&[
        "basis scheme",
        "iters",
        "launches",
        "transfers",
        "link bytes",
        "sim time",
    ]);
    let mut times = Vec::new();
    for (label, refactor_every, devex) in [
        ("eta-file (PFI)", 60usize, false),
        ("eta-file + devex", 60, true),
        ("refactor-every-iter", 1, false),
    ] {
        let accel = gpu(1 << 30);
        let mut cfg = LpConfig::standard();
        cfg.primal.refactor_every = refactor_every;
        if devex {
            cfg.primal.pricing = gmip_lp::PricingRule::Devex;
        }
        let std = StandardLp::from_instance(&instance, &[]);
        let factory = accel.clone();
        let mut lp =
            LpSolver::try_new(std, cfg, |a| DeviceEngine::new(factory, a)).expect("device engine");
        let sol = lp.solve().expect("LP solve");
        assert_eq!(sol.status, LpStatus::Optimal);
        let s = accel.stats();
        times.push(accel.elapsed_ns());
        t.row(vec![
            label.into(),
            sol.iterations.to_string(),
            s.kernel_launches.to_string(),
            s.total_transfers().to_string(),
            fmt_bytes(s.total_bytes()),
            fmt_ns(accel.elapsed_ns()),
        ]);
    }
    out.push_str(&t.render());

    // Per-iteration traffic under PFI, excluding the one-time install.
    let accel = gpu(1 << 30);
    let std = StandardLp::from_instance(&instance, &[]);
    let factory = accel.clone();
    let mut lp = LpSolver::try_new(std, LpConfig::standard(), |a| DeviceEngine::new(factory, a))
        .expect("device engine");
    let sol = lp.solve().expect("LP solve");
    let s = accel.stats();
    let per_iter_bytes = s.total_bytes() as f64 / sol.iterations.max(1) as f64;
    let matrix_bytes = lp.standard().a.size_bytes() as f64;
    out.push_str(&format!(
        "\nper-iteration link traffic: {:.0} B ({:.1}% of the {:.0} B matrix)\n",
        per_iter_bytes,
        100.0 * per_iter_bytes / matrix_bytes,
        matrix_bytes
    ));
    let crossings = s.total_transfers() as f64;
    let latency_ns = crossings * accel.with(|d| d.cost_model().link_latency_ns);
    out.push_str(&format!(
        "per-iteration link crossings: {:.2} ({} for {} pivots); link latency is {} of the {} solve ({:.0}%)\n",
        crossings / sol.iterations.max(1) as f64,
        s.total_transfers(),
        sol.iterations,
        fmt_ns(latency_ns),
        fmt_ns(accel.elapsed_ns()),
        100.0 * latency_ns / accel.elapsed_ns()
    ));
    let launch_ns = s.kernel_launches as f64 * accel.with(|d| d.cost_model().launch_latency_ns);
    out.push_str(&format!(
        "per-iteration kernel launches: {:.2} ({} for {} pivots); launch latency is {} of the {} solve ({:.0}%)\n",
        s.kernel_launches as f64 / sol.iterations.max(1) as f64,
        s.kernel_launches,
        sol.iterations,
        fmt_ns(launch_ns),
        fmt_ns(accel.elapsed_ns()),
        100.0 * launch_ns / accel.elapsed_ns()
    ));
    out.push_str(&format!(
        "eta-file vs per-iteration refactorization: {:.2}x faster\n",
        times[2] / times[0]
    ));
    assert!(
        times[0] < times[2],
        "PFI must beat refactorize-every-iteration"
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn pfi_wins_and_traffic_is_small() {
        let s = super::run();
        assert!(s.contains("eta-file (PFI)"));
        assert!(s.contains("x faster"));
        // Per-iteration traffic must be far below matrix size.
        let pct: f64 = s
            .lines()
            .find(|l| l.contains("per-iteration link traffic"))
            .and_then(|l| l.split('(').nth(1))
            .and_then(|l| l.split('%').next())
            .and_then(|v| v.trim().parse().ok())
            .expect("traffic line parses");
        assert!(pct < 20.0, "per-iteration traffic {pct}% of matrix");
        // ...and in crossings: one staged read-back per pivot, nothing per
        // reduction and nothing per store.
        let per_pivot: f64 = s
            .lines()
            .find(|l| l.contains("per-iteration link crossings"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .expect("crossings line parses");
        assert!(per_pivot < 1.5, "{per_pivot} link crossings per pivot");
        // ...and in launches: the apply rides the select's launch.
        let launches: f64 = s
            .lines()
            .find(|l| l.contains("per-iteration kernel launches"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .expect("launches line parses");
        assert!(launches < 1.25, "{launches} kernel launches per pivot");
    }
}
