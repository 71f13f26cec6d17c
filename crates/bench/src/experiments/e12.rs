//! E12 — time-to-first-incumbent: device-side bound propagation and the
//! batched fix-and-propagate dive, on/off × on/off.
//!
//! Paper source: Section 5's design considerations argue the wave model's
//! fused launches should carry *more* than simplex pivots — any per-node
//! routine that is the same dataflow in every lane batches for free. The
//! `gmip-prop` layer is that argument instantiated twice: iterated
//! activity-based bound propagation (`prop.activity` / `prop.tighten` /
//! `prop.reduce`, three fused launches per fixpoint round across every
//! refilled lane) and a frontier-wide fix-and-propagate dive that rounds
//! the fractional LP values of retiring lanes, propagates the fixings, and
//! repairs or aborts each lane independently — producing incumbents long
//! before any branch-and-bound leaf goes integral on its own.
//!
//! Claim reproduced: with the dive enabled, the first incumbent lands
//! *measurably earlier* in simulated time on both wave engines — the
//! whole point of a primal heuristic on this platform — while the final
//! optimum never moves: every cell of the 2×2 grid (propagation on/off ×
//! heuristic on/off) reaches the same objective, checked against the
//! `gmip-verify` exact rational oracle. Propagation additionally settles
//! part of the tree before any LP work (`prop.tightenings` > 0).
//!
//! The machine-readable record is `BENCH_e12.json`; the `bench-regression`
//! CI job holds its `*_ns` metrics to the 2% gate.

use crate::experiments::{gpu, oracle_optimum};
use crate::table::{fmt_ns, Table};
use gmip_core::{solve_batched_wave, solve_first_order_wave, WaveConfig};
use gmip_problems::generators::binpacking::bin_packing;
use gmip_problems::generators::knapsack::knapsack;
use gmip_problems::MipInstance;
use gmip_trace::names;

/// Lane count for every cell: wide enough that the frontier-wide dive has
/// real seeds, narrow enough for the oracle-envelope instances.
pub const LANES: usize = 16;

/// Fix-and-propagate cadence when the heuristic is on.
pub const HEUR_PERIOD: usize = 2;

/// Device memory for every cell (never the binding constraint here).
const MEM: usize = 1 << 30;

/// The four grid variants, in report order.
pub const VARIANTS: &[(&str, bool, bool)] = &[
    ("base", false, false),
    ("prop", true, false),
    ("heur", false, true),
    ("prop_heur", true, true),
];

/// One measured cell: family × engine × (propagate, heuristic).
#[derive(Debug, Clone)]
pub struct PropCell {
    /// Instance family id (`light` / `heavy`).
    pub family: &'static str,
    /// Engine id (`simplex` / `firstorder`).
    pub engine: &'static str,
    /// Grid variant id.
    pub variant: &'static str,
    /// Bound propagation on refill?
    pub propagate: bool,
    /// Fix-and-propagate dive cadence (0 = off).
    pub heuristic_period: usize,
    /// Simulated time of the first incumbent, ns.
    pub first_incumbent_ns: f64,
    /// Simulated makespan, ns.
    pub makespan_ns: f64,
    /// Nodes evaluated.
    pub nodes: usize,
    /// Bound tightenings applied by propagation.
    pub tightenings: u64,
    /// Incumbents installed by the dive.
    pub heur_incumbents: u64,
    /// The optimum (oracle-checked by callers).
    pub objective: f64,
}

/// The two instance families, both inside the exact-oracle envelope.
pub fn instances() -> Vec<(&'static str, MipInstance)> {
    vec![
        // One knapsack row: propagation has little to tighten, so this is
        // the "does the machinery cost anything when idle" family.
        ("light", knapsack(18, 0.5, 4)),
        // Equality assignment rows + coupled capacity rows and a deep
        // symmetric tree: fixing one assignment variable cascades through
        // its row, which is exactly where fix-and-propagate repairs pay.
        ("heavy", bin_packing(6, 1.0, 3)),
    ]
}

fn run_cell(
    family: &'static str,
    m: &MipInstance,
    engine: &'static str,
    variant: &'static str,
    propagate: bool,
    heur: bool,
) -> PropCell {
    let heuristic_period = if heur { HEUR_PERIOD } else { 0 };
    let cfg = WaveConfig {
        lanes: LANES,
        propagate,
        heuristic_period,
        ..Default::default()
    };
    let r = match engine {
        "simplex" => solve_batched_wave(m, &cfg, gpu(MEM)).expect("simplex wave solve"),
        "firstorder" => solve_first_order_wave(m, &cfg, gpu(MEM)).expect("first-order wave solve"),
        other => panic!("unknown engine {other}"),
    };
    PropCell {
        family,
        engine,
        variant,
        propagate,
        heuristic_period,
        first_incumbent_ns: r
            .first_incumbent_ns
            .expect("every cell solves to an incumbent"),
        makespan_ns: r.makespan_ns,
        nodes: r.nodes,
        tightenings: r.metrics.counter(names::PROP_TIGHTENINGS) as u64,
        heur_incumbents: r.metrics.counter(names::HEUR_INCUMBENTS) as u64,
        objective: r.objective,
    }
}

/// Runs the full 2 families × 2 engines × 4 variants grid.
pub fn sweep() -> Vec<PropCell> {
    let mut cells = Vec::new();
    for (family, m) in instances() {
        for engine in ["simplex", "firstorder"] {
            for &(variant, propagate, heur) in VARIANTS {
                cells.push(run_cell(family, &m, engine, variant, propagate, heur));
            }
        }
    }
    cells
}

/// Asserts the E12 acceptance claims on `cells`.
fn assert_claims(cells: &[PropCell]) {
    // Same optimum in every cell of a family (the oracle check itself is
    // done by the caller, which owns the instances).
    for w in cells.windows(2) {
        if w[0].family == w[1].family {
            assert!(
                (w[0].objective - w[1].objective).abs() < 1e-6,
                "{}.{}.{} vs {}.{}.{}: optima diverge ({} vs {})",
                w[0].family,
                w[0].engine,
                w[0].variant,
                w[1].family,
                w[1].engine,
                w[1].variant,
                w[0].objective,
                w[1].objective
            );
        }
    }
    // The headline: the dive finds the first incumbent measurably earlier
    // than the same engine without it — on every family × engine pair
    // present (the in-crate test runs the light family only).
    for (family, _) in instances() {
        if !cells.iter().any(|c| c.family == family) {
            continue;
        }
        for engine in ["simplex", "firstorder"] {
            let t = |variant: &str| {
                cells
                    .iter()
                    .find(|c| c.family == family && c.engine == engine && c.variant == variant)
                    .map(|c| c.first_incumbent_ns)
                    .expect("cell present")
            };
            assert!(
                t("heur") < t("base"),
                "{family}.{engine}: dive-on first incumbent {} ns not earlier than base {} ns",
                t("heur"),
                t("base")
            );
            assert!(
                t("prop_heur") < t("prop"),
                "{family}.{engine}: dive+prop first incumbent {} ns not earlier than prop {} ns",
                t("prop_heur"),
                t("prop")
            );
        }
    }
    // The dive really ran and really produced the incumbents.
    assert!(
        cells
            .iter()
            .filter(|c| c.heuristic_period > 0)
            .all(|c| c.heur_incumbents > 0),
        "a heuristic-on cell installed no dive incumbent"
    );
    // Propagation really tightened bounds somewhere on the coupled family.
    if cells.iter().any(|c| c.family == "heavy") {
        assert!(
            cells
                .iter()
                .any(|c| c.family == "heavy" && c.propagate && c.tightenings > 0),
            "propagation never tightened a bound on the heavy family"
        );
    }
}

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E12: time-to-first-incumbent — bound propagation × fix-and-propagate dive\n\n");
    for (family, m) in instances() {
        let exact = oracle_optimum(&m);
        out.push_str(&format!(
            "{family}: {} ({} rows, {} vars), exact optimum {exact}\n",
            m.name,
            m.num_cons(),
            m.num_vars()
        ));
    }
    out.push('\n');
    let cells = sweep();
    for c in &cells {
        let (_, m) = instances()
            .into_iter()
            .find(|(f, _)| *f == c.family)
            .expect("family exists");
        let exact = oracle_optimum(&m);
        assert!(
            (c.objective - exact).abs() < 1e-6,
            "{}.{}.{}: optimum {} disagrees with the exact oracle {exact}",
            c.family,
            c.engine,
            c.variant,
            c.objective
        );
    }
    let mut t = Table::new(&[
        "family",
        "engine",
        "variant",
        "first incumbent",
        "makespan",
        "nodes",
        "tightenings",
        "dive incumbents",
    ]);
    for c in &cells {
        t.row(vec![
            c.family.to_string(),
            c.engine.to_string(),
            c.variant.to_string(),
            fmt_ns(c.first_incumbent_ns),
            fmt_ns(c.makespan_ns),
            c.nodes.to_string(),
            c.tightenings.to_string(),
            c.heur_incumbents.to_string(),
        ]);
    }
    out.push_str(&t.render());
    assert_claims(&cells);
    out.push_str(
        "\nshape check: in every family × engine pair the fix-and-propagate\n\
         dive lands the first incumbent strictly earlier in simulated time\n\
         than the same engine without it — the frontier-wide dive turns the\n\
         retiring lanes' fractional points into feasible ones rounds before\n\
         any lane goes integral on its own. Propagation tightens bounds on\n\
         the coupled (bin-packing) family and settles nodes without LP work;\n\
         the optimum itself never moves, and every cell's objective matches\n\
         the gmip-verify exact oracle. (machine-readable: BENCH_e12.json)\n",
    );
    out
}

/// Machine-readable record of the sweep (`BENCH_e12.json`).
pub fn bench_json() -> String {
    cells_json(&sweep())
}

fn cells_json(cells: &[PropCell]) -> String {
    let mut s = String::from("{\n  \"schema\": \"gmip-bench-e12/1\",\n  \"metrics\": {\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let key = format!("e12.{}.{}.{}", c.family, c.engine, c.variant);
        s.push_str(&format!(
            "    \"{key}.first_incumbent_ns\": {:.1},\n    \
             \"{key}.makespan_ns\": {:.1},\n    \
             \"{key}.nodes\": {},\n    \
             \"{key}.tightenings\": {},\n    \
             \"{key}.heur_incumbents\": {}{sep}\n",
            c.first_incumbent_ns, c.makespan_ns, c.nodes, c.tightenings, c.heur_incumbents,
        ));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    /// The acceptance bar on the light family only (the heavy family's
    /// 16-lane tree takes minutes in debug builds; `run()` exercises the
    /// full grid via the report binary and the CI `bench-regression` job,
    /// which also holds the record to the 2% gate).
    #[test]
    fn dive_lands_the_first_incumbent_earlier_and_json_is_deterministic() {
        let (family, m) = super::instances().swap_remove(0);
        let mut cells = Vec::new();
        for engine in ["simplex", "firstorder"] {
            for &(variant, propagate, heur) in super::VARIANTS {
                cells.push(super::run_cell(
                    family, &m, engine, variant, propagate, heur,
                ));
            }
        }
        super::assert_claims(&cells);
        let a = super::cells_json(&cells);
        assert!(a.contains("\"e12.light.simplex.heur.first_incumbent_ns\""));
        assert!(a.contains("\"e12.light.firstorder.prop_heur.makespan_ns\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        // Same-process determinism probe on one cell.
        assert_eq!(
            super::cells_json(&[super::run_cell(family, &m, "simplex", "base", false, false)]),
            super::cells_json(&[super::run_cell(family, &m, "simplex", "base", false, false)]),
            "cells must be deterministic"
        );
    }
}
