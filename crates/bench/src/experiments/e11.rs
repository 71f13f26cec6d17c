//! E11 — node-LP engine crossover: per-lane engines vs the batched
//! simplex wave vs the lockstep first-order (restarted PDHG) wave.
//!
//! Paper source: Sections 4.3 and 5.5 size the batch by memory and fuse
//! launches by kernel class, but leave the node-LP *algorithm* fixed.
//! This experiment sweeps that choice: the same branch and bound evaluated
//! by per-lane simplex engines (`solve_concurrent`), the batched simplex
//! wave (`solve_batched_wave`, up to seven kernel classes whose lanes
//! desynchronize as pivot journals diverge), and the first-order wave
//! (`solve_first_order_wave`, every lane doing the same PDHG iteration so
//! each superstep is three fused launches regardless of width, cost ∝ nnz,
//! safe early bounds, exact host cleanup).
//!
//! Claim reproduced: the winner depends on lane count × matrix nnz. On
//! the nnz-light family (knapsack: one row) warm-started simplex lanes
//! reconverge in a handful of nearly-free pivots and the simplex wave
//! keeps the lead at every width. On the nnz-heavy family (bin packing:
//! every variable couples an equality assignment row to a capacity row,
//! and the tree is deep and symmetric) the first-order wave's ratio to
//! the simplex wave is above 1.0 at 4 lanes, crosses by 16, and the
//! first-order wave beats the simplex wave in simulated ns (and in raw
//! kernel launches) at every width ≥ 64 — because its superstep is a
//! fixed three fused launches while the simplex wave pays per pivot
//! class, and because dominated lanes retire on a safe dual bound at
//! their first KKT check instead of pivoting to optimality. The lead
//! follows the launch counts (0.78 / 0.81 / 0.97 at 16 / 64 / 128 lanes):
//! both waves pack their lanes' transfers into one link crossing per
//! superstep and direction, so what separates them is launches and kernel
//! bodies. Per-lane launches queue at the device's one issue slot, so that
//! column does not fall with the width, and the waves overtake it as they
//! widen — Section 5.5's batching-beats-streams: on the heavy family the
//! first-order wave from 64 lanes and both from 128 (asserted; the simplex
//! wave passes it at 64 too), on the light one the simplex wave from 64.
//! Narrower, the per-lane engines are ahead: a
//! per-lane node LP is one chain (a launch per pivot, one read-back), while
//! a wave still pays a launch per kernel class per superstep — the waves'
//! saving starts where enough lanes share each launch.
//! Every optimum served by every engine is checked against the
//! `gmip-verify` exact oracle.
//!
//! The machine-readable record is `BENCH_e11.json`; the `bench-regression`
//! CI job holds its `*_ns` metrics to the 2% gate.

use crate::experiments::{gpu, oracle_optimum};
use crate::table::{fmt_ns, Table};
use gmip_core::{
    solve_batched_wave, solve_concurrent, solve_first_order_wave, BatchedWaveConfig,
    ConcurrentConfig, FirstOrderWaveConfig,
};
use gmip_lp::PdhgConfig;
use gmip_problems::generators::binpacking::bin_packing;
use gmip_problems::generators::knapsack::knapsack;
use gmip_problems::MipInstance;
use gmip_trace::names;

/// Lane counts swept; the crossover claim is stated at `>= 64`.
pub const LANES: &[usize] = &[4, 16, 64, 128];

/// Device memory for every cell (never the binding constraint here).
const MEM: usize = 1 << 30;

/// One measured cell: one instance family × one lane count, all three
/// engines on identical trees-of-origin.
#[derive(Debug, Clone)]
pub struct CrossCell {
    /// Instance family id (`light` / `heavy`).
    pub family: &'static str,
    /// Structural nonzeros of the constraint matrix.
    pub nnz: usize,
    /// Requested lane count.
    pub lanes: usize,
    /// Per-lane engines (own matrix copy + stream each), simulated ns.
    pub perlane_ns: f64,
    /// Batched simplex wave, simulated ns.
    pub simplex_ns: f64,
    /// Kernel launches charged by the simplex wave.
    pub simplex_launches: u64,
    /// First-order wave, simulated ns.
    pub firstorder_ns: f64,
    /// Kernel launches charged by the first-order wave.
    pub firstorder_launches: u64,
    /// Lockstep supersteps the first-order wave executed.
    pub fo_supersteps: usize,
    /// Lanes retired by a safe dual bound before convergence.
    pub fo_pruned: u64,
    /// The optimum every engine agreed on (oracle-checked by callers).
    pub objective: f64,
}

fn nnz(m: &MipInstance) -> usize {
    m.cons.iter().map(|c| c.coeffs.len()).sum()
}

/// The two instance families. Both sit inside the exact-oracle envelope;
/// both build trees deep enough to keep 128 lanes busy.
pub fn instances() -> Vec<(&'static str, MipInstance)> {
    vec![
        // nnz-light: one knapsack row — simplex lanes warm-start from the
        // parent basis and reconverge in a handful of nearly-free pivots,
        // so no iteration-count advantage can pay for PDHG supersteps.
        ("light", knapsack(30, 0.5, 4)),
        // nnz-heavy: bin packing — equality assignment rows plus coupled
        // capacity rows (every variable in two rows), and a deep symmetric
        // tree (~11k nodes) where incumbent-dominated subtrees are the
        // common case, which is exactly where first-check safe-bound
        // prunes and lockstep supersteps pay off.
        ("heavy", bin_packing(7, 1.0, 3)),
    ]
}

/// The PDHG setting every first-order cell runs: a loose tolerance and a
/// low iteration cap. Exactness is not at stake — converged *and* capped
/// lanes both finish with an exact host-simplex cleanup, and the safe
/// dual bound is valid at any iterate — so the device's job is only to
/// move iterates far enough that cleanups are cheap and dominated lanes
/// prune at their first KKT check.
pub fn pdhg() -> PdhgConfig {
    PdhgConfig {
        tol: 1e-2,
        max_iters: 150,
        ..PdhgConfig::default()
    }
}

fn run_cell(family: &'static str, m: &MipInstance, lanes: usize) -> CrossCell {
    let per_lane = solve_concurrent(
        m,
        &ConcurrentConfig {
            lanes,
            ..Default::default()
        },
        gpu(MEM),
    )
    .expect("per-lane solve");
    let simplex = solve_batched_wave(
        m,
        &BatchedWaveConfig {
            lanes,
            ..Default::default()
        },
        gpu(MEM),
    )
    .expect("simplex wave solve");
    let fo = solve_first_order_wave(
        m,
        &FirstOrderWaveConfig {
            lanes,
            pdhg: pdhg(),
            ..Default::default()
        },
        gpu(MEM),
    )
    .expect("first-order wave solve");
    assert!(
        (per_lane.objective - simplex.objective).abs() < 1e-6
            && (simplex.objective - fo.objective).abs() < 1e-6,
        "{family} w{lanes}: engines disagree: per-lane {}, simplex {}, first-order {}",
        per_lane.objective,
        simplex.objective,
        fo.objective
    );
    CrossCell {
        family,
        nnz: nnz(m),
        lanes,
        perlane_ns: per_lane.makespan_ns,
        simplex_ns: simplex.makespan_ns,
        simplex_launches: simplex.device.kernel_launches,
        firstorder_ns: fo.makespan_ns,
        firstorder_launches: fo.device.kernel_launches,
        fo_supersteps: fo.supersteps,
        fo_pruned: fo.metrics.counter(names::FO_BOUND_PRUNED) as u64,
        objective: fo.objective,
    }
}

/// Runs the sweep, optionally restricted to the given lane counts.
pub fn sweep(lanes_filter: Option<&[usize]>) -> Vec<CrossCell> {
    let mut cells = Vec::new();
    for (family, m) in instances() {
        for &lanes in LANES {
            if lanes_filter.is_some_and(|f| !f.contains(&lanes)) {
                continue;
            }
            cells.push(run_cell(family, &m, lanes));
        }
    }
    cells
}

/// Asserts the E11 acceptance claims on `cells` (full sweep only).
fn assert_claims(cells: &[CrossCell]) {
    // The crossover: on the nnz-heavy family the first-order wave beats
    // the simplex wave in simulated ns at every lane count >= 64.
    for c in cells
        .iter()
        .filter(|c| c.family == "heavy" && c.lanes >= 64)
    {
        assert!(
            c.firstorder_ns < c.simplex_ns,
            "heavy w{}: first-order {} ns not below simplex {} ns",
            c.lanes,
            c.firstorder_ns,
            c.simplex_ns
        );
    }
    // And it got there with strictly fewer kernel launches (three fused
    // classes per superstep vs up to seven desynchronizing ones).
    for c in cells
        .iter()
        .filter(|c| c.family == "heavy" && c.lanes >= 64)
    {
        assert!(
            c.firstorder_launches < c.simplex_launches,
            "heavy w{}: {} first-order launches vs {} simplex",
            c.lanes,
            c.firstorder_launches,
            c.simplex_launches
        );
    }
    // Section 5.5 itself: batching beats streams. Wide enough, each wave
    // finishes before the per-lane engines, whose launches leave the
    // device's one issue queue one at a time however many streams they sit
    // on: on the heavy family the first-order wave from 64 lanes and both
    // from 128, on the light one the simplex wave from 64.
    for c in cells {
        let (wave, wave_ns) = match c.family {
            "heavy" if c.lanes >= 128 => ("both", c.simplex_ns.max(c.firstorder_ns)),
            "heavy" if c.lanes >= 64 => ("first-order", c.firstorder_ns),
            "light" if c.lanes >= 64 => ("simplex", c.simplex_ns),
            _ => continue,
        };
        assert!(
            wave_ns < c.perlane_ns,
            "{} w{}: per-lane {} ns not behind the {wave} wave (simplex {} ns, first-order {} ns)",
            c.family,
            c.lanes,
            c.perlane_ns,
            c.simplex_ns,
            c.firstorder_ns
        );
    }
    // Early safe-bound prunes are real, not incidental.
    assert!(
        cells
            .iter()
            .filter(|c| c.family == "heavy")
            .any(|c| c.fo_pruned > 0),
        "no lane ever retired on a safe dual bound"
    );
    // It is a genuine crossover, not uniform dominance: at the narrowest
    // width the simplex wave still wins on the heavy family...
    if let Some(c) = cells.iter().find(|c| c.family == "heavy" && c.lanes == 4) {
        assert!(
            c.firstorder_ns > c.simplex_ns,
            "heavy w4: expected the simplex wave to lead at narrow width \
             (first-order {} ns vs simplex {} ns)",
            c.firstorder_ns,
            c.simplex_ns
        );
    }
    // ...and on the nnz-light family it wins at every width.
    for c in cells.iter().filter(|c| c.family == "light") {
        assert!(
            c.firstorder_ns > c.simplex_ns,
            "light w{}: first-order {} ns unexpectedly beat simplex {} ns",
            c.lanes,
            c.firstorder_ns,
            c.simplex_ns
        );
    }
}

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str(
        "E11: node-LP engine crossover — simplex wave vs first-order wave vs per-lane\n\n",
    );
    for (family, m) in instances() {
        let exact = oracle_optimum(&m);
        out.push_str(&format!(
            "{family}: {} ({} rows, {} vars, {} nnz), exact optimum {exact}\n",
            m.name,
            m.num_cons(),
            m.num_vars(),
            nnz(&m)
        ));
    }
    out.push('\n');
    let cells = sweep(None);
    for c in &cells {
        let (_, m) = instances()
            .into_iter()
            .find(|(f, _)| *f == c.family)
            .expect("family exists");
        let exact = oracle_optimum(&m);
        assert!(
            (c.objective - exact).abs() < 1e-6,
            "{} w{}: optimum {} disagrees with the exact oracle {exact}",
            c.family,
            c.lanes,
            c.objective
        );
    }
    let mut t = Table::new(&[
        "family",
        "nnz",
        "lanes",
        "per-lane",
        "simplex wave",
        "launches",
        "first-order",
        "launches",
        "fo prunes",
        "fo/simplex",
    ]);
    for c in &cells {
        t.row(vec![
            c.family.to_string(),
            c.nnz.to_string(),
            c.lanes.to_string(),
            fmt_ns(c.perlane_ns),
            fmt_ns(c.simplex_ns),
            c.simplex_launches.to_string(),
            fmt_ns(c.firstorder_ns),
            c.firstorder_launches.to_string(),
            c.fo_pruned.to_string(),
            format!("{:.2}", c.firstorder_ns / c.simplex_ns),
        ]);
    }
    out.push_str(&t.render());
    assert_claims(&cells);
    out.push_str(
        "\nshape check: on the one-row knapsack the simplex wave stays ahead at\n\
         every width — warm-started pivots are almost free and PDHG supersteps\n\
         buy nothing. On the nnz-heavy bin packing the fo/simplex ratio starts\n\
         above 1.0 at 4 lanes, is below 1.0 from 16 lanes on, and the\n\
         first-order wave leads in ns and in raw launches at 64 and 128: three\n\
         fused launches per lockstep superstep plus first-check safe-bound\n\
         prunes beat up to seven desynchronizing pivot classes. The lead\n\
         follows the launch counts: both waves stage their lanes' transfers\n\
         into one link crossing per superstep and direction, so what is left\n\
         between them is launches and kernel bodies. The per-lane\n\
         column does not fall with the width — its launches are issued one at\n\
         a time whatever stream they sit on — so the waves overtake it as they\n\
         widen: on the heavy family the first-order wave from 64 lanes and both\n\
         from 128, on the light one the simplex wave from 64. Narrower, the\n\
         per-lane engines are ahead: their node LP is one chain, a launch per\n\
         pivot and one read-back, a narrow wave's a launch per kernel class.\n\
         Every optimum\n\
         above matches the gmip-verify exact oracle. (machine-readable copy:\n\
         BENCH_e11.json)\n",
    );
    out
}

/// Machine-readable record of the sweep (`BENCH_e11.json`).
pub fn bench_json() -> String {
    cells_json(&sweep(None))
}

fn cells_json(cells: &[CrossCell]) -> String {
    let mut s = String::from("{\n  \"schema\": \"gmip-bench-e11/1\",\n  \"metrics\": {\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let key = format!("e11.{}.w{:03}", c.family, c.lanes);
        s.push_str(&format!(
            "    \"{key}.perlane_ns\": {:.1},\n    \
             \"{key}.simplex_ns\": {:.1},\n    \
             \"{key}.simplex_launches\": {},\n    \
             \"{key}.firstorder_ns\": {:.1},\n    \
             \"{key}.firstorder_launches\": {},\n    \
             \"{key}.fo_supersteps\": {},\n    \
             \"{key}.fo_pruned\": {}{sep}\n",
            c.perlane_ns,
            c.simplex_ns,
            c.simplex_launches,
            c.firstorder_ns,
            c.firstorder_launches,
            c.fo_supersteps,
            c.fo_pruned,
        ));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    /// The acceptance bar, on the 64-lane cells only (the narrow-width
    /// cells — where the simplex wave still leads — take minutes in debug
    /// builds and are exercised by `run()` via the report binary and the
    /// CI `bench-regression` job, which also holds the full record to the
    /// 2% gate and so covers cross-run determinism).
    #[test]
    fn crossover_holds_and_json_is_deterministic() {
        let cells = super::sweep(Some(&[64]));
        super::assert_claims(&cells);
        let a = super::cells_json(&cells);
        assert!(a.contains("\"e11.heavy.w064.firstorder_ns\""));
        assert!(a.contains("\"e11.light.w064.simplex_ns\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        // Same-process determinism probe on the cheapest cell.
        let light = super::instances().swap_remove(0).1;
        assert_eq!(
            super::cells_json(&[super::run_cell("light", &light, 64)]),
            super::cells_json(&[super::run_cell("light", &light, 64)]),
            "cells must be deterministic"
        );
    }
}
