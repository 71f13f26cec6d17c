//! E3b — cut incorporation: the device↔host round trip.
//!
//! Paper source: Section 5.2. Claims reproduced:
//! * with no GPU cut generators, separation runs on the CPU and "will
//!   require the latest copy of the matrix (of the current branch-and-cut
//!   node) to be copied from the device to the host" — here the tableau
//!   rows cross D2H and the generated cut rows return H2D;
//! * the traffic is proportional to cut activity and the bound tightens in
//!   exchange.

use crate::experiments::gpu;
use crate::table::{fmt_bytes, Table};
use gmip_core::{MipConfig, MipSolver};
use gmip_lp::DeviceEngine;
use gmip_problems::generators::knapsack;

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E3b: CPU-side cut generation traffic (paper Section 5.2)\n\n");
    let instance = knapsack(40, 0.5, 13);
    let mut t = Table::new(&[
        "cut rounds",
        "cuts",
        "D2H xfers",
        "D2H bytes",
        "H2D xfers",
        "H2D bytes",
        "root bound",
    ]);
    for max_rounds in [0usize, 1, 3, 6] {
        let accel = gpu(1 << 30);
        let mut cfg = MipConfig::default();
        cfg.cuts.enabled = max_rounds > 0;
        cfg.cuts.max_rounds = max_rounds.max(1);
        cfg.node_limit = 1; // root only: isolate the cut loop
        cfg.heuristics.rounding = false;
        let mut solver = MipSolver::<DeviceEngine>::on_accel(instance.clone(), cfg, accel.clone());
        let r = solver.solve().expect("root solve");
        let s = accel.stats();
        // Root bound = best open bound after the single evaluated node.
        let bound = r.tree.best_open_bound().unwrap_or(r.objective);
        t.row(vec![
            max_rounds.to_string(),
            r.stats.cuts.to_string(),
            s.d2h_transfers.to_string(),
            fmt_bytes(s.d2h_bytes),
            s.h2d_transfers.to_string(),
            fmt_bytes(s.h2d_bytes),
            format!("{bound:.3}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: more cut rounds → more D2H (tableau rows out) and H2D (cut rows \
         back), in exchange for a tighter root bound.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn cut_rounds_grow_traffic_and_tighten_bound() {
        let s = super::run();
        let rows: Vec<Vec<String>> = s
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                t.starts_with(char::is_numeric)
            })
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        assert!(rows.len() >= 3);
        // Bound column (last) is non-increasing with more rounds.
        let bounds: Vec<f64> = rows
            .iter()
            .map(|r| r.last().expect("row has cells").parse().expect("bound"))
            .collect();
        for w in bounds.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "bound loosened: {bounds:?}");
        }
        // With rounds > 0 there must be cuts.
        let cuts: usize = rows.last().expect("rows")[1].parse().expect("cuts");
        assert!(cuts > 0, "no cuts generated at max rounds");
    }
}
