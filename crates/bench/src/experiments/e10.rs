//! E10 — rank-scale curves: flat star vs supervisor-of-supervisors.
//!
//! Paper source: Section 2.3's scalability discussion. The flat
//! supervisor routes *every* node exchange through one coordinator, so
//! its mailbox traffic is proportional to the node count regardless of
//! how many ranks share the work — the coordination wall that motivates
//! hierarchical designs on leadership machines. The two-tier cluster of
//! `gmip_parallel::hierarchy` sends the root only aggregated, fixed-size
//! control messages (delta-compressed load summaries that fall silent
//! when a group's load is unchanged, incumbent values, steal orders under
//! exponential deny backoff), so root traffic follows group *activity*,
//! not nodes × ranks.
//!
//! Claims reproduced, 4 → 1024 simulated ranks:
//! * makespan improves with rank count under both topologies (and every
//!   cell still matches the exact oracle);
//! * the hierarchy's root message count grows *sub-linearly* in the rank
//!   count, and sits far below the flat coordinator's mailbox traffic at
//!   scale.
//!
//! The machine-readable record is `BENCH_scale.json`; the `scale-smoke`
//! CI job re-runs the 4/64/256/1024-rank cells and compares against it.

use crate::table::{fmt_ns, Table};
use gmip_parallel::{solve_hierarchical, solve_parallel, HierarchyConfig, ParallelConfig};
use gmip_problems::generators::knapsack;
use gmip_problems::MipInstance;

/// `(ranks, fanout)` sweep cells; every rank count runs both flat
/// (`cluster:R`) and hierarchical (`cluster:RxF`).
pub const CELLS: &[(usize, usize)] = &[(4, 2), (16, 4), (64, 8), (256, 16), (1024, 32)];

/// The rank counts the `scale-smoke` CI job re-runs. 1024 is there because
/// that is where a per-event cost proportional to the rank count would
/// show first: the job holds the supervisors' dispatch bit-stable at the
/// widest cell of the record.
pub const SMOKE_RANKS: &[usize] = &[4, 64, 256, 1024];

/// One measured cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Worker ranks.
    pub ranks: usize,
    /// Group width; 0 marks the flat topology.
    pub fanout: usize,
    /// Simulated makespan, ns.
    pub makespan_ns: f64,
    /// Messages through the root coordinator: the flat supervisor's whole
    /// mailbox, or the hierarchy's root-link control traffic.
    pub root_msgs: usize,
    /// Nodes evaluated.
    pub nodes: usize,
    /// Steal grants (hierarchical cells only).
    pub steals: usize,
    /// Objective found (every cell must agree with the oracle).
    pub objective: f64,
}

fn instance() -> MipInstance {
    // Large enough (~1.3k nodes at 4 ranks, ~3.4k at 1024) that the flat
    // coordinator's node-proportional mailbox dwarfs the hierarchy's
    // delta-compressed control traffic, yet still inside the exact-oracle
    // envelope (~1.5 s to certify).
    knapsack(46, 0.5, 7)
}

fn pcfg(ranks: usize) -> ParallelConfig {
    ParallelConfig {
        workers: ranks,
        gpu_mem: 1 << 26,
        ..Default::default()
    }
}

fn run_flat(m: &MipInstance, ranks: usize) -> ScaleCell {
    let r = solve_parallel(m, pcfg(ranks)).expect("flat solve");
    ScaleCell {
        ranks,
        fanout: 0,
        makespan_ns: r.stats.makespan_ns,
        // Every message in the star terminates at the one coordinator.
        root_msgs: r.stats.messages,
        nodes: r.stats.nodes,
        steals: 0,
        objective: r.objective,
    }
}

fn run_hier(m: &MipInstance, ranks: usize, fanout: usize) -> ScaleCell {
    let r = solve_hierarchical(
        m,
        pcfg(ranks),
        HierarchyConfig {
            fanout,
            ..Default::default()
        },
    )
    .expect("hier solve");
    assert_eq!(
        r.hier.max_evaluations_per_node, 1,
        "{ranks}x{fanout}: steals must never duplicate an evaluation"
    );
    ScaleCell {
        ranks,
        fanout,
        makespan_ns: r.stats.makespan_ns,
        root_msgs: r.hier.root_messages,
        nodes: r.stats.nodes,
        steals: r.hier.steals,
        objective: r.objective,
    }
}

/// Runs the sweep, optionally restricted to the given rank counts; each
/// rank count contributes a flat cell then a hierarchical cell.
pub fn sweep(ranks_filter: Option<&[usize]>) -> Vec<ScaleCell> {
    let m = instance();
    let mut cells = Vec::new();
    for &(ranks, fanout) in CELLS {
        if ranks_filter.is_some_and(|f| !f.contains(&ranks)) {
            continue;
        }
        cells.push(run_flat(&m, ranks));
        cells.push(run_hier(&m, ranks, fanout));
    }
    cells
}

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E10: rank scaling — flat star vs hierarchical cluster (paper Section 2.3)\n\n");
    let m = instance();
    let exact = crate::experiments::oracle_optimum(&m);
    let cells = sweep(None);
    for c in &cells {
        assert!(
            (c.objective - exact).abs() < 1e-6,
            "cell r{}x{}: optimum {} disagrees with the exact oracle {exact}",
            c.ranks,
            c.fanout,
            c.objective
        );
    }
    let mut t = Table::new(&[
        "topology",
        "ranks",
        "nodes",
        "makespan",
        "root msgs",
        "steals",
    ]);
    for c in &cells {
        t.row(vec![
            if c.fanout == 0 {
                "flat".into()
            } else {
                format!("{}x{}", c.ranks / c.fanout.max(1), c.fanout)
            },
            c.ranks.to_string(),
            c.nodes.to_string(),
            fmt_ns(c.makespan_ns),
            c.root_msgs.to_string(),
            if c.fanout == 0 {
                "-".into()
            } else {
                c.steals.to_string()
            },
        ]);
    }
    out.push_str(&t.render());

    let hier: Vec<&ScaleCell> = cells.iter().filter(|c| c.fanout > 0).collect();
    let flat: Vec<&ScaleCell> = cells.iter().filter(|c| c.fanout == 0).collect();
    // Makespan improves with rank count.
    assert!(
        hier.last().unwrap().makespan_ns < hier[0].makespan_ns,
        "hierarchy at 1024 ranks ({}) not faster than at 4 ({})",
        hier.last().unwrap().makespan_ns,
        hier[0].makespan_ns
    );
    // Root traffic grows sub-linearly in the rank count across every
    // adjacent pair of cells...
    for w in hier.windows(2) {
        let msg_ratio = w[1].root_msgs as f64 / w[0].root_msgs as f64;
        let rank_ratio = w[1].ranks as f64 / w[0].ranks as f64;
        assert!(
            msg_ratio < rank_ratio,
            "root messages grew super-linearly {} -> {} ranks: {}x vs {}x",
            w[0].ranks,
            w[1].ranks,
            msg_ratio,
            rank_ratio
        );
    }
    // ...and sits below the flat coordinator's mailbox at every cell.
    for (h, f) in hier.iter().zip(&flat) {
        assert!(
            h.root_msgs < f.root_msgs,
            "{} ranks: hierarchy root traffic {} not below flat {}",
            h.ranks,
            h.root_msgs,
            f.root_msgs
        );
    }
    out.push_str(
        "\nshape check: both topologies keep matching the exact oracle while the\n\
         makespan falls with rank count; the flat coordinator's mailbox stays\n\
         proportional to the node count, while the hierarchy's root link carries\n\
         only summaries/incumbents/steal control — sub-linear growth in ranks.\n\
         (machine-readable copy: BENCH_scale.json; CI re-runs the 4/64/256/1024 cells)\n",
    );
    out
}

fn cells_json(cells: &[ScaleCell]) -> String {
    let mut s = String::from("{\n  \"schema\": \"gmip-bench-scale/1\",\n  \"metrics\": {\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let key = if c.fanout == 0 {
            format!("scale.flat.r{:04}", c.ranks)
        } else {
            format!("scale.hier.r{:04}x{}", c.ranks, c.fanout)
        };
        s.push_str(&format!(
            "    \"{key}.makespan_ns\": {:.1},\n    \
             \"{key}.root_msgs\": {},\n    \
             \"{key}.nodes\": {},\n    \
             \"{key}.steals\": {}{sep}\n",
            c.makespan_ns, c.root_msgs, c.nodes, c.steals,
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Machine-readable record of the full sweep (`BENCH_scale.json`).
pub fn bench_json() -> String {
    cells_json(&sweep(None))
}

/// The 4/64/256/1024-rank subset the `scale-smoke` CI job regenerates
/// (`BENCH_scale_smoke.json`; its keys are a subset of the full record).
pub fn smoke_json() -> String {
    cells_json(&sweep(Some(SMOKE_RANKS)))
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_cells_are_deterministic_and_sub_linear() {
        let a = super::smoke_json();
        assert_eq!(a, super::smoke_json(), "sweep must be deterministic");
        assert!(a.contains("\"scale.hier.r0064x8.root_msgs\""));
        assert!(a.contains("\"scale.flat.r0256.makespan_ns\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        let cells = super::sweep(Some(&[4, 64]));
        let hier: Vec<_> = cells.iter().filter(|c| c.fanout > 0).collect();
        assert_eq!(hier.len(), 2);
        let msg_ratio = hier[1].root_msgs as f64 / hier[0].root_msgs as f64;
        assert!(
            msg_ratio < 16.0,
            "4 -> 64 ranks must not grow root traffic 16x (got {msg_ratio}x)"
        );
    }
}
