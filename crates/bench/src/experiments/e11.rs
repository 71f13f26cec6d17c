//! E11 — node-LP engine crossover: per-lane engines vs the batched
//! simplex wave (fused by lane state) vs the lockstep first-order
//! (restarted PDHG) wave.
//!
//! Paper source: Sections 4.3 and 5.5 size the batch by memory and fuse
//! launches by kernel class, but leave the node-LP *algorithm* fixed.
//! This experiment sweeps that choice: the same branch and bound evaluated
//! by per-lane simplex engines (`solve_concurrent`), the batched simplex
//! wave (`solve_batched_wave`, seven kernel classes, one launched per
//! superstep: the one most lanes wait on), and the first-order wave
//! (`solve_first_order_wave`, every lane doing the same PDHG iteration so
//! each superstep is three fused launches regardless of width, cost ∝ nnz,
//! safe early bounds, exact host cleanup).
//!
//! Claim reproduced: the winner depends on lane count × matrix nnz, and on
//! how the simplex wave fuses its lanes. On the nnz-light family
//! (knapsack: one row) warm-started simplex lanes reconverge in a handful
//! of nearly-free pivots; on the nnz-heavy family (bin packing: every
//! variable couples an equality assignment row to a capacity row, and the
//! tree is deep and symmetric) dominated first-order lanes retire on a safe
//! dual bound at their first KKT check instead of pivoting to optimality.
//! Yet the simplex wave leads the first-order wave in simulated ns and in
//! launches at every width on both families (asserted at every width), by
//! a factor of 1.21–3.08 in ns. Its lanes are fused by the state they are
//! in: a superstep launches the one kernel class the most lanes wait on,
//! so lanes whose pivot journals have drifted apart no longer make a
//! superstep launch once per class any lane is on. The link still favours
//! the simplex wave too: both waves pack their lanes' transfers into one
//! crossing per superstep and direction, but a simplex lane keeps the
//! device engine's install record, so its warm installs ship their delta
//! as launch arguments and cross nothing, while each first-order lane load
//! crosses whole. Per-lane launches queue at the device's one issue slot,
//! so that column does not fall with the width, and the waves overtake it
//! as they widen — Section 5.5's batching-beats-streams: the simplex wave
//! from 16 lanes on both families, the first-order wave from 64 on both
//! (asserted as exact regions over the swept widths). The first-order
//! lanes run PDHG on a Ruiz-equilibrated matrix with a Schur-test step
//! bound (`gmip_lp::firstorder`); on the raw matrix every light lane hit
//! its iteration cap, the first-order wave took 69.70 ms at 64 light lanes
//! and 224.93 ms at 64 heavy ones (4.49 and 112.68 ms preconditioned), and
//! it overtook the per-lane engines only from 128 heavy lanes. At 4 lanes
//! the per-lane engines are ahead of both: a per-lane node LP is one chain
//! (a launch per pivot, one read-back), while a wave pays a launch per
//! superstep — the waves' saving starts where enough lanes share each
//! launch.
//! Every optimum served by every engine is checked against the
//! `gmip-verify` exact oracle.
//!
//! The machine-readable record is `BENCH_e11.json`; the `bench-regression`
//! CI job holds its `*_ns` metrics to the 2% gate.

use crate::experiments::{gpu, oracle_optimum};
use crate::table::{fmt_ns, Table};
use gmip_core::{solve_batched_wave, solve_concurrent, solve_first_order_wave, WaveConfig};
use gmip_lp::PdhgConfig;
use gmip_problems::generators::binpacking::bin_packing;
use gmip_problems::generators::knapsack::knapsack;
use gmip_problems::MipInstance;
use gmip_trace::names;

/// Lane counts swept; the claims are stated over all of them.
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
        // prunes and the first-order wave's lockstep supersteps pay off most.
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
    let cfg = WaveConfig {
        lanes,
        pdhg: pdhg(),
        ..Default::default()
    };
    let per_lane = solve_concurrent(m, &cfg, gpu(MEM)).expect("per-lane solve");
    let simplex = solve_batched_wave(m, &cfg, gpu(MEM)).expect("simplex wave solve");
    let fo = solve_first_order_wave(m, &cfg, gpu(MEM)).expect("first-order wave solve");
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
    // Fused by state, the simplex wave leads the first-order wave on both
    // families at every width, in simulated ns and in launches: a simplex
    // superstep is one launch, a first-order one three, and a simplex
    // lane's warm install ships only its delta, as launch arguments, while
    // each first-order lane load crosses whole.
    for c in cells {
        assert!(
            c.simplex_ns < c.firstorder_ns && c.simplex_launches < c.firstorder_launches,
            "{} w{}: simplex {} ns / {} launches vs first-order {} ns / {} launches",
            c.family,
            c.lanes,
            c.simplex_ns,
            c.simplex_launches,
            c.firstorder_ns,
            c.firstorder_launches
        );
    }
    // Section 5.5 itself: batching beats streams. Wide enough, a wave
    // finishes before the per-lane engines, whose launches leave the
    // device's one issue queue one at a time however many streams they sit
    // on — the simplex wave from 16 lanes and the first-order wave from 64,
    // on both families — and at no narrower width.
    for c in cells {
        for (wave, ns, from) in [
            ("simplex", c.simplex_ns, 16),
            ("first-order", c.firstorder_ns, 64),
        ] {
            let ahead = c.lanes >= from;
            assert_eq!(
                ns < c.perlane_ns,
                ahead,
                "{} w{}: {wave} wave {ns} ns vs per-lane {} ns, expected the wave {}",
                c.family,
                c.lanes,
                c.perlane_ns,
                if ahead { "ahead" } else { "behind" }
            );
        }
    }
    // Early safe-bound prunes are real, not incidental.
    assert!(
        cells
            .iter()
            .filter(|c| c.family == "heavy")
            .any(|c| c.fo_pruned > 0),
        "no lane ever retired on a safe dual bound"
    );
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
        "\nshape check: the simplex wave, fused by lane state, leads the\n\
         first-order wave at every width on both families, in ns and in\n\
         launches: a superstep launches the one kernel class the most lanes\n\
         wait on, so drifting lanes no longer launch once per class any lane\n\
         is on, and its warm installs ship their delta as launch arguments\n\
         while each first-order lane load crosses whole. On the one-row\n\
         knapsack warm-started pivots are almost free, and the first-order\n\
         lanes, equilibrated, converge or prune within a few checks; on the\n\
         nnz-heavy bin packing the first-order wave's first-check safe-bound\n\
         prunes do not make up for three launches per superstep. The\n\
         per-lane column does not fall with the width — its launches are\n\
         issued one at a time whatever stream they sit on — so the waves\n\
         overtake it as they widen: the simplex wave from 16 lanes, the\n\
         first-order wave from 64, on both families. At 4 lanes the\n\
         per-lane engines are ahead: their node LP is one\n\
         chain, a launch per pivot and one read-back, a narrow wave's a\n\
         launch per superstep.\n\
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
    /// cells take minutes in debug builds; they, and the 128-lane cells,
    /// are exercised by `run()` via the report binary and the
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
