//! E13 — executing backends: the native rayon backend vs the simulator
//! oracle, at every lane width and thread count.
//!
//! Paper source: Section 5 measures fused kernel classes on real devices;
//! the reproduction's simulator charges the same classes on a logical
//! clock. This experiment closes the loop: under `BackendKind::Native` the
//! `Accel` handle's one lane executor (the `Accelerator` trait's only
//! implementation) *executes* every fused class
//! (`fo.spmv_t`/`fo.axpy`/`fo.spmv`, `prop.round` sweeps, `heur.dive`
//! batches) across a persistent host thread pool — one fused dispatch per
//! class per superstep, parallel across lanes only, sequential inside a
//! lane — while charging the exact same simulated ns through the same
//! `GpuDevice` ledger as under `Sim`, where the calling thread runs them.
//!
//! Claim reproduced: the backend is invisible to the byte-determinism
//! surface. At every E11 family × lane width {4, 16, 64, 128} × rayon
//! thread count {1, 2, 4, 8}, the native backend serves the same optimum
//! as the `gmip-verify` exact oracle, a bitwise-equal simulated makespan,
//! and bit-identical counters — only the `wall.*` registry (real
//! wall-clock per class, threads, dispatches) differs, and that registry
//! never enters traces, metrics diffs, or the bench gate. The committed
//! record keeps simulated ns under the 2% gate and counts bit-stable;
//! `wall` keys are explicitly skipped by the `bench-regression` job
//! because real time is allowed to vary run to run.
//!
//! The wall-clock columns are a reported result, not a claim: the `t2/t1`
//! column gives the two-thread over one-thread wall ratio at width >= 64,
//! and one line names the cells where more threads were slower. Measured
//! on a 2-core host, more threads were slower: a ~1 µs lane body cannot
//! pay a cross-core wake (light w64: 4.7 ms at one thread, 32.3 ms at
//! two; heavy w64: 51.5 ms and 71.5 ms). The pool clamps to the cores it
//! may run on, so on one core every thread column is the one-thread time.
//!
//! The machine-readable record is `BENCH_e13.json`; `*_ns` keys get the
//! standard 2% gate, bare keys must be bit-stable, and keys containing
//! `wall` are ignored by the gate.

use crate::experiments::{e11, gpu, oracle_optimum};
use crate::table::{fmt_ns, Table};
use gmip_core::{solve_first_order_wave, WaveConfig};
use gmip_gpu::BackendKind;
use gmip_problems::MipInstance;

/// Lane widths swept (same grid as E11).
pub const LANES: &[usize] = &[4, 16, 64, 128];

/// Rayon thread counts the native backend is swept over.
pub const THREADS: &[usize] = &[1, 2, 4, 8];

/// Device memory for every cell (never the binding constraint here).
const MEM: usize = 1 << 30;

/// One measured cell: one instance family × one lane width, the simulator
/// oracle plus the native backend at every thread count.
#[derive(Debug, Clone)]
pub struct BackendCell {
    /// Instance family id (`light` / `heavy`, from E11).
    pub family: &'static str,
    /// Requested lane width.
    pub lanes: usize,
    /// Simulated makespan under the `Sim` backend — the oracle value the
    /// native runs must reproduce bit-for-bit.
    pub sim_ns: f64,
    /// Kernel launches charged (identical across backends).
    pub launches: u64,
    /// Lockstep supersteps executed (identical across backends).
    pub supersteps: usize,
    /// Nodes evaluated (identical across backends).
    pub nodes: usize,
    /// The optimum every backend agreed on (oracle-checked by callers).
    pub objective: f64,
    /// Per-thread-count real wall-clock: `(threads, summed wall.*.ns)`.
    /// Real time — excluded from every determinism surface.
    pub wall: Vec<(usize, f64)>,
}

/// The E13 solve configuration: E11's first-order wave with propagation
/// and the batched dive enabled, so the native backend executes all six
/// fused kernel classes, not just the PDHG trio.
fn config(lanes: usize, backend: BackendKind) -> WaveConfig {
    WaveConfig {
        lanes,
        pdhg: e11::pdhg(),
        propagate: true,
        heuristic_period: 64,
        backend,
        ..Default::default()
    }
}

/// A solve's determinism fingerprint: everything that must be identical
/// across backends — objective/makespan bits, node and superstep counts,
/// and every non-`wall.` counter, bit for bit.
fn fingerprint(
    m: &MipInstance,
    lanes: usize,
    backend: BackendKind,
) -> (
    String,
    usize,
    usize,
    u64,
    Vec<(String, String)>,
    f64,
    f64,
    f64,
) {
    let r = solve_first_order_wave(m, &config(lanes, backend), gpu(MEM)).expect("wave solve");
    let mut counters: Vec<(String, String)> = r
        .metrics
        .counters()
        .filter(|(k, _)| !k.starts_with("wall."))
        .map(|(k, v)| (k.to_string(), format!("{v:?}")))
        .collect();
    counters.sort();
    let wall_ns: f64 = r
        .metrics
        .counters()
        .filter(|(k, _)| k.starts_with("wall.") && k.ends_with(".ns"))
        .map(|(_, v)| v)
        .sum();
    (
        format!("{:?}", r.objective),
        r.nodes,
        r.supersteps,
        r.device.kernel_launches,
        counters,
        r.objective,
        r.makespan_ns,
        wall_ns,
    )
}

fn run_cell(family: &'static str, m: &MipInstance, lanes: usize) -> BackendCell {
    let sim = fingerprint(m, lanes, BackendKind::Sim);
    assert_eq!(
        sim.7, 0.0,
        "{family} w{lanes}: simulator charged wall-clock"
    );
    let mut wall = Vec::new();
    for &threads in THREADS {
        let nat = fingerprint(m, lanes, BackendKind::Native { threads });
        // Everything but real time is bit-identical to the simulator.
        assert_eq!(
            (&nat.0, nat.1, nat.2, nat.3, &nat.4, nat.6.to_bits()),
            (&sim.0, sim.1, sim.2, sim.3, &sim.4, sim.6.to_bits()),
            "{family} w{lanes}: native @ {threads} threads diverged from the simulator"
        );
        assert!(
            nat.7 > 0.0,
            "{family} w{lanes}: native @ {threads} threads recorded no wall-clock"
        );
        wall.push((threads, nat.7));
    }
    BackendCell {
        family,
        lanes,
        sim_ns: sim.6,
        launches: sim.3,
        supersteps: sim.2,
        nodes: sim.1,
        objective: sim.5,
        wall,
    }
}

/// Runs the sweep, optionally restricted to the given lane widths.
pub fn sweep(lanes_filter: Option<&[usize]>) -> Vec<BackendCell> {
    let mut cells = Vec::new();
    for (family, m) in e11::instances() {
        for &lanes in LANES {
            if lanes_filter.is_some_and(|f| !f.contains(&lanes)) {
                continue;
            }
            cells.push(run_cell(family, &m, lanes));
        }
    }
    cells
}

/// The wide cells (width >= 64) where some thread count above one took
/// longer than one thread. Reported, never asserted: identity is the claim,
/// real time is what the host measured.
fn slower_with_threads(cells: &[BackendCell]) -> Vec<String> {
    cells
        .iter()
        .filter(|c| c.lanes >= 64 && c.wall[1..].iter().any(|&(_, w)| w > c.wall[0].1))
        .map(|c| format!("{} w{}", c.family, c.lanes))
        .collect()
}

/// Runs the experiment and returns the report text.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("E13: executing backends — native rayon vs the simulator oracle\n\n");
    let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
    out.push_str(&format!("host parallelism: {avail}\n\n"));
    let cells = sweep(None);
    for c in &cells {
        let (_, m) = e11::instances()
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
        "lanes",
        "sim makespan",
        "launches",
        "supersteps",
        "wall t=1",
        "wall t=2",
        "wall t=4",
        "wall t=8",
        "t2/t1",
    ]);
    for c in &cells {
        let mut row = vec![
            c.family.to_string(),
            c.lanes.to_string(),
            fmt_ns(c.sim_ns),
            c.launches.to_string(),
            c.supersteps.to_string(),
        ];
        for &(_, w) in &c.wall {
            row.push(fmt_ns(w));
        }
        row.push(if c.lanes >= 64 {
            format!("{:.2}", c.wall[1].1 / c.wall[0].1)
        } else {
            "-".to_string()
        });
        t.row(row);
    }
    out.push_str(&t.render());
    let slower = slower_with_threads(&cells);
    out.push_str(&format!(
        "\nmore threads slower at width >= 64: {}\n",
        if slower.is_empty() {
            "none".to_string()
        } else {
            slower.join(", ")
        }
    ));
    out.push_str(
        "\nshape check: at every cell the native backend served the exact-oracle\n\
         optimum with a bitwise-equal simulated makespan and bit-identical\n\
         counters at 1, 2, 4, and 8 rayon threads — the executing backend is\n\
         invisible to everything but `wall.*`. The wall columns are real time\n\
         on this host, reported and never asserted, and are excluded from\n\
         traces, metric diffs, and the 2% bench gate.\n\
         (machine-readable copy: BENCH_e13.json)\n",
    );
    out
}

/// Machine-readable record of the sweep (`BENCH_e13.json`).
pub fn bench_json() -> String {
    cells_json(&sweep(None))
}

fn cells_json(cells: &[BackendCell]) -> String {
    // Key conventions: `*_ns` = simulated time, 2% gate headroom; bare
    // keys = counts, bit-stable; keys containing `wall` = real time,
    // skipped by the gate entirely (they vary run to run by design).
    let mut s = String::from("{\n  \"schema\": \"gmip-bench-e13/1\",\n  \"metrics\": {\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let key = format!("e13.{}.w{:03}", c.family, c.lanes);
        s.push_str(&format!(
            "    \"{key}.sim_ns\": {:.1},\n    \
             \"{key}.launches\": {},\n    \
             \"{key}.supersteps\": {},\n    \
             \"{key}.nodes\": {},\n",
            c.sim_ns, c.launches, c.supersteps, c.nodes,
        ));
        for (j, &(threads, w)) in c.wall.iter().enumerate() {
            let last = j + 1 == c.wall.len();
            s.push_str(&format!(
                "    \"{key}.t{threads:02}.wall.total\": {:.0}{}\n",
                w,
                if last { sep } else { "," },
            ));
        }
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    /// The acceptance bar on the 16-lane cells only — `run_cell` itself
    /// asserts bit-identity between the simulator and the native backend
    /// at every thread count, so one width covers the contract; the full
    /// grid (and the committed record) is exercised by the report binary
    /// and the CI `bench-regression` job.
    #[test]
    fn backends_agree_and_json_is_deterministic() {
        let cells = super::sweep(Some(&[16]));
        let a = super::cells_json(&cells);
        assert!(a.contains("\"e13.light.w016.sim_ns\""));
        assert!(a.contains("\"e13.heavy.w016.t04.wall.total\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        // Wall keys must never look like gated sim-ns keys.
        for line in a.lines().filter(|l| l.contains("wall")) {
            assert!(
                !line.contains("_ns\""),
                "wall key styled as a gated ns key: {line}"
            );
        }
    }
}
