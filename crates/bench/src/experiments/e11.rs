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
//! and the tree is deep and symmetric) the first-order wave beats the
//! simplex wave in simulated ns in a band, from 16 to 64 lanes, and at no
//! other width (asserted at every width): its superstep is a fixed three
//! fused launches while the simplex wave pays per pivot class, and
//! dominated lanes retire on a safe dual bound at their first KKT check
//! instead of pivoting to optimality. It launches less at every width
//! ≥ 64. Outside the band the simplex wave leads: narrower, its warm pivots
//! are cheap; at 128 lanes, its link is. Both waves pack their lanes'
//! transfers into one crossing per superstep and direction, but a simplex
//! lane keeps the device engine's install record, so its warm installs ship
//! their delta as launch arguments and cross nothing, while each
//! first-order lane load still crosses whole. Per-lane launches queue at
//! the device's one issue slot, so that column does not fall with the
//! width, and the waves overtake it as they widen — Section 5.5's
//! batching-beats-streams: on the heavy family the first-order wave from 64
//! lanes and both from 128 (asserted; the simplex wave passes it at 64
//! too), on the light one the simplex wave from 64.
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

/// Lane counts swept; the crossover band is stated over all of them.
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
    // The crossover is a band: on the nnz-heavy family the first-order
    // wave beats the simplex wave in simulated ns from 16 to 64 lanes and
    // at no other width. Narrower, warm simplex pivots are cheap; wider,
    // a simplex lane's warm install ships only its delta, as launch
    // arguments, while each first-order lane load still crosses whole.
    for c in cells.iter().filter(|c| c.family == "heavy") {
        let band = (16..=64).contains(&c.lanes);
        assert_eq!(
            c.firstorder_ns < c.simplex_ns,
            band,
            "heavy w{}: first-order {} ns vs simplex {} ns, expected the \
             first-order wave ahead {} the 16-64 band",
            c.lanes,
            c.firstorder_ns,
            c.simplex_ns,
            if band { "inside" } else { "outside" }
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
    // On the nnz-light family the simplex wave wins at every width.
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
         buy nothing. On the nnz-heavy bin packing the first-order wave leads\n\
         in ns in a band, from 16 to 64 lanes, and in raw launches from 64:\n\
         three fused launches per lockstep superstep plus first-check\n\
         safe-bound prunes beat up to seven desynchronizing pivot classes.\n\
         Outside the band the simplex wave leads: at 4 lanes its warm pivots\n\
         are cheap, and at 128 its link is — both waves stage their lanes'\n\
         transfers into one crossing per superstep and direction, but a\n\
         simplex lane's warm install ships only its delta, as launch\n\
         arguments, while each first-order lane load crosses whole. The\n\
         per-lane column does not fall with the width — its launches are\n\
         issued one at a time whatever stream they sit on — so the waves\n\
         overtake it as they widen: on the heavy family the first-order wave\n\
         from 64 lanes and both from 128, on the light one the simplex wave\n\
         from 64. Narrower, the per-lane engines are ahead: their node LP is\n\
         one chain, a launch per pivot and one read-back, a narrow wave's a\n\
         launch per kernel class.\n\
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
    /// cells take minutes in debug builds; they, and the 128-lane cells
    /// where the simplex wave leads again, are exercised by `run()` via the
    /// report binary and the
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
