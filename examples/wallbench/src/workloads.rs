//! The six workloads: what a pass is made of, how its inputs are drawn from
//! the seed at set-up, and how one pass is run and checked.
//!
//! A *pass* is a fixed list of operations — whole solves through public
//! entry points, or one service run per job tape. Branch-and-bound trees
//! are heavy-tailed (the same generator gives a 400-node and a 90 000-node
//! bin-packing tree on neighbouring seeds), and the benchmark's driver holds
//! every metric's spread over ten different `--seed`s against the metric's
//! bound. So every slot of a pass has a *pool*: a table of instance seeds,
//! fixed in this file when the benchmark was defined, whose solves cost about
//! the same simulated time and the same number of nodes at that commit.
//! `--seed` shuffles each pool and takes its first `take` entries: the same
//! seed always gives the same pass, another seed a pass of other instances
//! in another order, and the program under test has no say in which. Times
//! are reported raw — a change that grows or shrinks the trees moves
//! `pass_s`, `sim_s` and every count by as much.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::check::{check_answer, check_fingerprint, Answer, Fingerprint};
use crate::entry::{self, names, MipInstance, MipStatus};
use crate::report::Values;
use crate::spans::Spans;

/// Full-size workloads, or the reduced ones the integration test smokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// What `BENCHMARK.json` measures.
    Full,
    /// Seconds-in-a-debug-build versions of the same shapes. Only the
    /// integration test asks for them; the binary has no way to.
    #[allow(dead_code)]
    Smoke,
}

/// An instance generator at fixed dimensions.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// `knapsack(n, 0.5, seed)`: one dense row.
    Knapsack(usize),
    /// `bin_packing(items, 1.0, seed)`: assignment + capacity rows, a deep
    /// symmetric tree.
    BinPacking(usize),
    /// `random_mip(rows x cols, density 0.3, 60 % integral)`.
    RandomMip(usize, usize),
    /// `unit_commitment(generators, periods, seed)`: mostly decided by
    /// root cuts.
    UnitCommitment(usize, usize),
}

impl Family {
    /// Generates the instance of `seed`.
    pub fn generate(self, seed: u64) -> MipInstance {
        match self {
            Family::Knapsack(n) => entry::gen_knapsack(n, seed),
            Family::BinPacking(items) => entry::gen_bin_packing(items, seed),
            Family::RandomMip(rows, cols) => entry::gen_random_mip(rows, cols, seed),
            Family::UnitCommitment(g, p) => entry::gen_unit_commitment(g, p, seed),
        }
    }

    fn label(self) -> String {
        match self {
            Family::Knapsack(n) => format!("knapsack{n}"),
            Family::BinPacking(n) => format!("binpack{n}"),
            Family::RandomMip(r, c) => format!("random{r}x{c}"),
            Family::UnitCommitment(g, p) => format!("ucommit{g}x{p}"),
        }
    }
}

/// A way of solving one instance through a public entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// `MipSolver::host_baseline`, default `MipConfig` (cuts + rounding).
    Host,
    /// `MipSolver::with_plan(plan(CpuOrchestrated, ..))`: the same search
    /// over the simulated-device simplex engine.
    Planned,
    /// `solve_batched_wave`.
    Wave {
        /// Lanes requested.
        lanes: usize,
        /// Propagation on every refilled lane + a dive every 8 retires.
        propagate: bool,
    },
    /// `solve_first_order_wave` with `PdhgConfig{tol: 1e-2, max_iters: 150}`.
    FirstOrder {
        /// Lanes requested.
        lanes: usize,
        /// Propagation + dive, as for `Wave`.
        propagate: bool,
        /// `BackendKind::Native{threads: 2}` instead of `Sim`.
        native: bool,
    },
    /// `solve_parallel`: flat discrete-event cluster.
    Flat {
        /// Worker ranks.
        ranks: usize,
    },
    /// `solve_hierarchical`: supervisor of supervisors.
    Hier {
        /// Worker ranks.
        ranks: usize,
        /// Ranks per group.
        fanout: usize,
    },
}

/// Pool threads of the native backend: fixed, never read from the
/// environment, so the workload is the same on every host.
pub const NATIVE_THREADS: usize = 2;

/// Dive cadence of the propagating solves.
const DIVE_PERIOD: usize = 8;

/// Node budget of every solve: forty times the largest tree of any pool, so
/// that a change that blows a tree up ends the solve `NodeLimit` — a counted
/// failure — where it would otherwise hang the run.
pub const NODE_LIMIT: usize = 100_000;

impl Solver {
    /// The layer group a solve's wall time is attributed to.
    pub fn kind(self) -> &'static str {
        match self {
            Solver::Host | Solver::Planned => "serial",
            Solver::Wave { .. } => "wave",
            Solver::FirstOrder { .. } => "fo",
            Solver::Flat { .. } | Solver::Hier { .. } => "cluster",
        }
    }

    /// The span wrapped around the call.
    fn span(self) -> &'static str {
        match self {
            Solver::Host => "core.MipSolver.host_baseline",
            Solver::Planned => "core.MipSolver.with_plan",
            Solver::Wave { .. } => "core.solve_batched_wave",
            Solver::FirstOrder { .. } => "core.solve_first_order_wave",
            Solver::Flat { .. } => "parallel.solve_parallel",
            Solver::Hier { .. } => "parallel.solve_hierarchical",
        }
    }

    fn label(self) -> String {
        match self {
            Solver::Host => "host".into(),
            Solver::Planned => "planned".into(),
            Solver::Wave { lanes, propagate } => {
                format!("wave{lanes}{}", if propagate { "+prop" } else { "" })
            }
            Solver::FirstOrder {
                lanes,
                propagate,
                native,
            } => format!(
                "fo{lanes}{}{}",
                if propagate { "+prop" } else { "" },
                if native { "@native" } else { "@sim" }
            ),
            Solver::Flat { ranks } => format!("flat{ranks}"),
            Solver::Hier { ranks, fanout } => format!("hier{ranks}x{fanout}"),
        }
    }

    /// The solver whose result this one must reproduce bit for bit: the
    /// `Sim` backend for a native solve, itself otherwise.
    fn oracle(self) -> Solver {
        match self {
            Solver::FirstOrder {
                lanes, propagate, ..
            } => Solver::FirstOrder {
                lanes,
                propagate,
                native: false,
            },
            s => s,
        }
    }

    fn propagates(self) -> bool {
        matches!(
            self,
            Solver::Wave {
                propagate: true,
                ..
            } | Solver::FirstOrder {
                propagate: true,
                ..
            }
        )
    }

    /// The same solver without propagation.
    fn plain(self) -> Solver {
        match self {
            Solver::Wave { lanes, .. } => Solver::Wave {
                lanes,
                propagate: false,
            },
            Solver::FirstOrder { lanes, native, .. } => Solver::FirstOrder {
                lanes,
                propagate: false,
                native,
            },
            s => s,
        }
    }
}

/// What any whole solve returned, in one shape.
#[derive(Debug, Clone)]
pub struct Solved {
    /// Terminal status.
    pub status: MipStatus,
    /// Objective in the instance's sense.
    pub objective: f64,
    /// Incumbent point.
    pub x: Vec<f64>,
    /// Nodes evaluated.
    pub nodes: u64,
    /// Simulated time of the solve, ns.
    pub sim_ns: f64,
    /// Raw per-layer counts of this solve, keyed by per-layer metric name.
    pub counts: Values,
    /// The part of the solve that must repeat exactly.
    pub fingerprint: Fingerprint,
}

fn add(counts: &mut Values, key: &'static str, v: f64) {
    *counts.entry(key).or_insert(0.0) += v;
}

fn add_device(counts: &mut Values, d: &entry::DeviceStats) {
    add(counts, "gpu.launches", d.kernel_launches as f64);
    add(counts, "gpu.h2d_bytes", d.h2d_bytes as f64);
    add(counts, "gpu.d2h_bytes", d.d2h_bytes as f64);
    add(counts, "gpu.sim_kernel_s", d.kernel_ns / 1e9);
    add(counts, "gpu.sim_transfer_s", d.transfer_ns / 1e9);
}

fn add_prop(counts: &mut Values, m: &entry::MetricsRegistry) {
    add(counts, "prop.rounds", m.counter(names::PROP_ROUNDS));
    add(
        counts,
        "prop.tightenings",
        m.counter(names::PROP_TIGHTENINGS),
    );
}

fn fingerprint(objective: f64, nodes: u64, steps: u64, launches: u64, sim_ns: f64) -> Fingerprint {
    Fingerprint {
        objective_bits: objective.to_bits(),
        nodes,
        steps,
        launches,
        sim_bits: sim_ns.to_bits(),
    }
}

/// Runs `solver` on `m`.
pub fn run_solver(solver: Solver, m: &MipInstance) -> Result<Solved, String> {
    let node_limit = NODE_LIMIT;
    let mut counts = Values::new();
    match solver {
        Solver::Host | Solver::Planned => {
            let cfg = entry::MipConfig {
                node_limit,
                ..Default::default()
            };
            let r = if solver == Solver::Host {
                entry::solve_host(m, cfg)?
            } else {
                entry::solve_planned(m, cfg)?
            };
            let s = &r.stats;
            add_device(&mut counts, &s.host);
            add_device(&mut counts, &s.device);
            add(&mut counts, "lp.iters", s.lp_iterations as f64);
            add(&mut counts, "core.cuts", s.cuts as f64);
            add(&mut counts, "tree.peak_nodes", s.tree.created as f64);
            let launches = s.host.kernel_launches + s.device.kernel_launches;
            Ok(Solved {
                status: r.status,
                objective: r.objective,
                nodes: s.nodes as u64,
                sim_ns: s.sim_time_ns,
                fingerprint: fingerprint(
                    r.objective,
                    s.nodes as u64,
                    s.lp_iterations as u64,
                    launches,
                    s.sim_time_ns,
                ),
                x: r.x,
                counts,
            })
        }
        Solver::Wave { lanes, propagate } => {
            let cfg = entry::BatchedWaveConfig {
                lanes,
                node_limit,
                propagate,
                heuristic_period: if propagate { DIVE_PERIOD } else { 0 },
                ..Default::default()
            };
            let r = entry::solve_wave(m, &cfg)?;
            add(&mut counts, "lp.wave.supersteps", r.supersteps as f64);
            Ok(wave_solved(r, counts))
        }
        Solver::FirstOrder {
            lanes,
            propagate,
            native,
        } => {
            let cfg = entry::FirstOrderWaveConfig {
                lanes,
                node_limit,
                pdhg: entry::PdhgConfig {
                    tol: 1e-2,
                    max_iters: 150,
                    ..Default::default()
                },
                propagate,
                heuristic_period: if propagate { DIVE_PERIOD } else { 0 },
                backend: if native {
                    entry::BackendKind::Native {
                        threads: NATIVE_THREADS,
                    }
                } else {
                    entry::BackendKind::Sim
                },
                ..Default::default()
            };
            let r = entry::solve_first_order(m, &cfg)?;
            add(&mut counts, "lp.fo.supersteps", r.supersteps as f64);
            let class_wall_ns: f64 = r
                .metrics
                .counters()
                .filter(|(k, _)| k.starts_with("wall.") && k.ends_with(".ns"))
                .map(|(_, v)| v)
                .sum();
            add(&mut counts, "gpu.fo_class_wall_s", class_wall_ns / 1e9);
            add(
                &mut counts,
                "gpu.wall_dispatches",
                r.metrics.counter(names::WALL_DISPATCHES),
            );
            Ok(wave_solved(r, counts))
        }
        Solver::Flat { ranks } | Solver::Hier { ranks, .. } => {
            let cfg = entry::ParallelConfig {
                workers: ranks,
                gpu_mem: 1 << 26,
                node_limit,
                ..Default::default()
            };
            let (status, objective, x, s, root_messages, steals) = match solver {
                Solver::Hier { fanout, .. } => {
                    let hier = entry::HierarchyConfig {
                        fanout,
                        ..Default::default()
                    };
                    let r = entry::solve_hier(m, cfg, hier)?;
                    let (root, steals) = (r.hier.root_messages, r.hier.steals);
                    (r.status, r.objective, r.x, r.stats, root, steals)
                }
                _ => {
                    let r = entry::solve_flat(m, cfg)?;
                    // Every message of the star ends at the one coordinator.
                    let root = r.stats.messages;
                    (r.status, r.objective, r.x, r.stats, root, 0)
                }
            };
            let device = entry::DeviceStats::from_registry(&s.metrics);
            add_device(&mut counts, &device);
            add_prop(&mut counts, &s.metrics);
            add(&mut counts, "lp.iters", s.lp_iterations as f64);
            add(&mut counts, "tree.peak_nodes", s.tree.created as f64);
            add(&mut counts, "parallel.messages", s.messages as f64);
            add(
                &mut counts,
                "parallel.message_bytes",
                s.message_bytes as f64,
            );
            add(&mut counts, "parallel.root_messages", root_messages as f64);
            add(&mut counts, "parallel.steals", steals as f64);
            add(&mut counts, "parallel.sim_idle_frac", s.idle_fraction);
            Ok(Solved {
                status,
                objective,
                x,
                nodes: s.nodes as u64,
                sim_ns: s.makespan_ns,
                fingerprint: fingerprint(
                    objective,
                    s.nodes as u64,
                    s.messages as u64,
                    device.kernel_launches,
                    s.makespan_ns,
                ),
                counts,
            })
        }
    }
}

fn wave_solved(r: entry::WaveResult, mut counts: Values) -> Solved {
    add_device(&mut counts, &r.device);
    add_prop(&mut counts, &r.metrics);
    add(
        &mut counts,
        "lp.iters",
        r.metrics.counter(names::LP_ITERATIONS),
    );
    // The wave results do not expose the tree; evaluated nodes stand in.
    add(&mut counts, "tree.peak_nodes", r.nodes as f64);
    Solved {
        status: r.status,
        objective: r.objective,
        nodes: r.nodes as u64,
        sim_ns: r.makespan_ns,
        fingerprint: fingerprint(
            r.objective,
            r.nodes as u64,
            r.supersteps as u64,
            r.device.kernel_launches,
            r.makespan_ns,
        ),
        x: r.x,
        counts,
    }
}

/// The independent reference: plain best-first branch and bound on the
/// host engine, cuts and heuristics off. (`gmip-verify`'s exact oracle is
/// out of budget here: 30 s on bin_packing(7), minutes on random 20x40.)
pub fn reference_optimum(m: &MipInstance) -> Result<f64, String> {
    let mut cfg = entry::MipConfig {
        node_limit: 2_000_000,
        ..Default::default()
    };
    cfg.cuts.enabled = false;
    cfg.heuristics.rounding = false;
    let r = entry::solve_host(m, cfg)?;
    if r.status == MipStatus::Optimal {
        Ok(r.objective)
    } else {
        Err(format!("reference solve ended {:?}", r.status))
    }
}

/// A group of like operations inside a pass.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Where the instances come from.
    pub family: Family,
    /// Every instance of the slot is solved once by each of these.
    pub solvers: Vec<Solver>,
    /// The instance seeds the slot draws from (see the module comment).
    pub pool: &'static [u64],
    /// How many of them a pass solves.
    pub take: usize,
}

/// The service workload: one `Service::run` per job tape, each on a fresh
/// service.
#[derive(Debug, Clone, Copy)]
pub struct TapeSpec {
    /// The tape seeds the pass draws from.
    pub pool: &'static [u64],
    /// How many of them a pass serves.
    pub take: usize,
    /// Jobs on each tape.
    pub jobs: usize,
    /// Ranks of the service.
    pub ranks: usize,
    /// Largest knapsack a job carries.
    pub max_items: usize,
    /// Mean gap between arrivals, simulated ns. Wide enough that nothing is
    /// shed at baseline: the default 2 ms gap sheds 45 % of the tape at 8
    /// ranks, and a benchmark that sheds rewards dropping work.
    pub mean_gap_ns: f64,
    /// Every this-many-th job is audited against the reference optimum.
    pub audit_every: usize,
}

/// What a pass of a workload is made of.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Whole solves, slot by slot.
    Solves(Vec<Slot>),
    /// Service runs.
    Serve(TapeSpec),
}

// The pools. Each was picked once, at the commit that defined the benchmark,
// from seeds 1..=3000 of its family (tapes: 1..=400): the seeds whose solves
// (by all of the slot's solvers together) came closest to one simulated time
// and one node count. README.md has the procedure and the numbers.
const POOL_KNAPSACK60: &[u64] = &[
    124, 136, 235, 240, 465, 724, 799, 804, 853, 866, 928, 1184, 1203, 1427, 1465, 1557, 1618,
    1824, 1985, 2132, 2168, 2517, 2790, 2831,
];
const POOL_RANDOM20X40: &[u64] = &[
    44, 57, 119, 223, 335, 625, 634, 781, 1123, 1223, 1317, 1463, 1514, 1657, 1775, 1807, 1929,
    1987,
];
const POOL_UCOMMIT4X6: &[u64] = &[
    31, 49, 53, 109, 189, 195, 230, 247, 258, 300, 356, 395, 448, 456, 526, 609, 630, 637, 757,
    764, 905, 921, 965, 996,
];
const POOL_BINPACK5_WAVE64: &[u64] = &[
    61, 116, 195, 210, 405, 582, 698, 1161, 1263, 1267, 1291, 1478, 1487, 1508, 1567, 2048, 2119,
    2185, 2268, 2292, 2509, 2679, 2733, 2977,
];
const POOL_KNAPSACK30_WAVE16: &[u64] = &[
    223, 365, 418, 446, 587, 604, 957, 960, 968, 1179, 1459, 1940, 2562, 2707, 2777, 2973, 2983,
    2990,
];
const POOL_BINPACK5_FO64: &[u64] = &[88, 562, 734, 839, 1130, 1154, 2382, 2644];
const POOL_KNAPSACK30_FO64: &[u64] = &[77, 414, 2399, 2585, 2590, 2641, 2707, 2805];
const POOL_BINPACK5_FO16: &[u64] = &[6, 232, 618, 652, 819, 2065, 2329, 2578];
const POOL_KNAPSACK46: &[u64] = &[
    86, 131, 144, 264, 418, 571, 620, 939, 1089, 1109, 1202, 1223, 1252, 1277, 1713,
];
const POOL_TAPES: &[u64] = &[53, 56, 159, 270, 313, 335];
/// The reduced workloads draw from what the generators give first (both are
/// trees of at most 200 nodes in every family used).
const POOL_SMOKE: &[u64] = &[1, 2];

/// The plan of workload `name` at `scale`; `None` for an unknown name.
pub fn plan(name: &str, scale: Scale) -> Option<Plan> {
    let slot = |family, solvers: &[Solver], pool, take| Slot {
        family,
        solvers: solvers.to_vec(),
        pool,
        take,
    };
    let smoke = |family, solvers: &[Solver]| slot(family, solvers, POOL_SMOKE, 1);
    let serial = [Solver::Host, Solver::Planned];
    let flat = |ranks| Solver::Flat { ranks };
    let hier = |ranks, fanout| Solver::Hier { ranks, fanout };
    Some(match (name, scale) {
        ("bnc-serial", Scale::Full) => Plan::Solves(vec![
            slot(Family::Knapsack(60), &serial, POOL_KNAPSACK60, 16),
            slot(Family::RandomMip(20, 40), &serial, POOL_RANDOM20X40, 12),
            slot(Family::UnitCommitment(4, 6), &serial, POOL_UCOMMIT4X6, 16),
        ]),
        ("bnc-serial", Scale::Smoke) => Plan::Solves(vec![
            smoke(Family::Knapsack(16), &serial),
            smoke(Family::RandomMip(8, 12), &serial),
            smoke(Family::UnitCommitment(2, 3), &serial),
        ]),
        ("wave-simplex", Scale::Full) => Plan::Solves(vec![
            slot(
                Family::BinPacking(5),
                &[wave(64, false), wave(64, true)],
                POOL_BINPACK5_WAVE64,
                16,
            ),
            slot(
                Family::Knapsack(30),
                &[wave(16, false)],
                POOL_KNAPSACK30_WAVE16,
                12,
            ),
        ]),
        ("wave-simplex", Scale::Smoke) => Plan::Solves(vec![
            smoke(Family::BinPacking(5), &[wave(16, false), wave(16, true)]),
            smoke(Family::Knapsack(16), &[wave(16, false)]),
        ]),
        ("wave-fo-sim", _) => first_order_plan(false, scale),
        ("wave-fo-native", _) => first_order_plan(true, scale),
        ("cluster-des", Scale::Full) => Plan::Solves(vec![slot(
            Family::Knapsack(46),
            &[flat(64), hier(256, 16)],
            POOL_KNAPSACK46,
            10,
        )]),
        ("cluster-des", Scale::Smoke) => {
            Plan::Solves(vec![smoke(Family::Knapsack(16), &[flat(4), hier(8, 4)])])
        }
        ("serve-mix", _) => {
            let full = scale == Scale::Full;
            Plan::Serve(TapeSpec {
                pool: if full { POOL_TAPES } else { POOL_SMOKE },
                take: if full { 4 } else { 1 },
                jobs: if full { 500 } else { 40 },
                ranks: 8,
                max_items: 14,
                mean_gap_ns: 1.6e7,
                audit_every: if full { 10 } else { 2 },
            })
        }
        _ => return None,
    })
}

const fn wave(lanes: usize, propagate: bool) -> Solver {
    Solver::Wave { lanes, propagate }
}

/// The three first-order solves, on `Sim` or on `Native{threads: 2}`: the
/// same slots and pools, so the two workloads' passes compare directly. The
/// native one takes a fifth of the instances, because at the parent commit
/// every fused dispatch costs it a condvar round trip and a full-size pass
/// would take 8-10 s.
fn first_order_plan(native: bool, scale: Scale) -> Plan {
    let fo = |lanes, propagate| Solver::FirstOrder {
        lanes,
        propagate,
        native,
    };
    let slot = |family, solvers: &[Solver], pool, take: usize| Slot {
        family,
        solvers: solvers.to_vec(),
        pool,
        take: if native { 1 } else { take },
    };
    match scale {
        Scale::Full => Plan::Solves(vec![
            slot(
                Family::BinPacking(5),
                &[fo(64, false)],
                POOL_BINPACK5_FO64,
                5,
            ),
            slot(
                Family::Knapsack(30),
                &[fo(64, false)],
                POOL_KNAPSACK30_FO64,
                5,
            ),
            slot(
                Family::BinPacking(5),
                &[fo(16, false), fo(16, true)],
                POOL_BINPACK5_FO16,
                5,
            ),
        ]),
        Scale::Smoke => Plan::Solves(vec![
            slot(
                Family::BinPacking(5),
                &[fo(16, false), fo(16, true)],
                POOL_SMOKE,
                1,
            ),
            slot(Family::Knapsack(16), &[fo(16, false)], POOL_SMOKE, 1),
        ]),
    }
}

/// One operation of a pass: one solver on one instance.
#[derive(Debug, Clone)]
pub struct Op {
    /// `<family>#<instance seed>/<solver>`, for naming a failure.
    pub label: String,
    /// Index into [`Inputs::Solves::instances`].
    pub instance: usize,
    /// How it is solved.
    pub solver: Solver,
    /// The reference optimum of the instance.
    pub reference: f64,
    /// What the solve must reproduce in every pass: the `Sim` solve's
    /// fingerprint for a native solve, the first pass's otherwise.
    pub expect: Option<Fingerprint>,
    /// The op is the propagating half of a plain/propagating pair.
    pub paired_propagating: bool,
    /// The op is the plain half of a plain/propagating pair.
    pub paired_plain: bool,
}

/// The inputs of a run, generated once from the seed.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Whole solves.
    Solves {
        /// The instances drawn.
        instances: Vec<MipInstance>,
        /// The pass.
        ops: Vec<Op>,
    },
    /// Service runs, one per tape.
    Serve {
        /// Ranks of the service; everything else is `ServeConfig::default()`.
        ranks: usize,
        /// The tapes.
        tapes: Vec<Tape>,
    },
}

/// One job tape and what serving it must give.
#[derive(Debug, Clone)]
pub struct Tape {
    /// Tenant table of the tape.
    pub tenants: Vec<entry::TenantSpec>,
    /// The jobs.
    pub jobs: Vec<entry::JobSpec>,
    /// `(job index, reference optimum)` of the audited jobs.
    pub audits: Vec<(usize, f64)>,
    /// What the run must reproduce, once a first run has fixed it.
    pub expect: Option<Fingerprint>,
}

impl Inputs {
    /// An instance of the workload's own to run the per-layer probes on.
    pub fn probe_instance(&self) -> &MipInstance {
        match self {
            Inputs::Solves { instances, .. } => &instances[0],
            Inputs::Serve { tapes, .. } => tapes[0]
                .jobs
                .iter()
                .map(|j| &j.instance)
                .max_by_key(|m| m.num_vars())
                .expect("a tape has jobs"),
        }
    }

    /// Operations one pass attempts.
    pub fn operations(&self) -> usize {
        match self {
            Inputs::Solves { ops, .. } => ops.len(),
            Inputs::Serve { tapes, .. } => tapes.iter().map(|t| t.jobs.len()).sum(),
        }
    }
}

/// SplitMix64: the benchmark's own seed expander (what a seed draws must not
/// depend on which random crate the workspace vendors).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `(seed, lane)`.
    pub fn new(seed: u64, lane: u64) -> Self {
        SplitMix64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `take` entries of `pool` in the order `seed` shuffles them into (`lane`
/// tells the slots of one pass apart).
pub fn draw(pool: &[u64], take: usize, seed: u64, lane: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, lane);
    let mut drawn = pool.to_vec();
    let take = take.min(drawn.len());
    for i in 0..take {
        let rest = (drawn.len() - i) as u64;
        drawn.swap(i, i + (rng.next_u64() % rest) as usize);
    }
    drawn.truncate(take);
    drawn
}

/// Generates the inputs of `plan` from `seed`: the instances (or tapes) the
/// seed draws from the pools, and the reference optimum of each. The only
/// solves of the program under test here are the `Sim` solves a native
/// workload is held against. Also returns the wall ns each instance (or
/// tape) took to prepare, in order.
pub fn set_up(plan: &Plan, seed: u64, spans: &mut Spans) -> Result<(Inputs, Vec<u64>), String> {
    let mut wall_ns = Vec::new();
    match plan {
        Plan::Solves(slots) => {
            let mut instances = Vec::new();
            let mut ops = Vec::new();
            for (si, slot) in slots.iter().enumerate() {
                for iseed in draw(slot.pool, slot.take, seed, si as u64 + 1) {
                    let t0 = Instant::now();
                    let m = spans.scope("problems.generate", |_| slot.family.generate(iseed));
                    let reference = spans.scope("core.reference", |_| reference_optimum(&m))?;
                    for &solver in &slot.solvers {
                        let oracle = solver.oracle();
                        let expect = if oracle == solver {
                            None
                        } else {
                            let r = spans.scope(oracle.span(), |_| run_solver(oracle, &m));
                            Some(r?.fingerprint)
                        };
                        ops.push(Op {
                            label: format!("{}#{iseed}/{}", slot.family.label(), solver.label()),
                            instance: instances.len(),
                            solver,
                            reference,
                            expect,
                            paired_propagating: solver.propagates()
                                && slot.solvers.contains(&solver.plain()),
                            paired_plain: !solver.propagates()
                                && slot
                                    .solvers
                                    .iter()
                                    .any(|o| o.propagates() && o.plain() == solver),
                        });
                    }
                    instances.push(m);
                    wall_ns.push(t0.elapsed().as_nanos() as u64);
                }
            }
            Ok((Inputs::Solves { instances, ops }, wall_ns))
        }
        Plan::Serve(spec) => {
            let mut tapes = Vec::new();
            for tape_seed in draw(spec.pool, spec.take, seed, 0) {
                let t0 = Instant::now();
                let (tenants, jobs) = spans.scope("serve.generate", |_| {
                    entry::gen_traffic(&entry::TrafficConfig {
                        jobs: spec.jobs,
                        seed: tape_seed,
                        mean_interarrival_ns: spec.mean_gap_ns,
                        max_items: spec.max_items,
                        dup_prob: 0.15,
                        perturb_prob: 0.15,
                        ..Default::default()
                    })
                });
                let mut audits = Vec::new();
                for i in (0..jobs.len()).step_by(spec.audit_every.max(1)) {
                    audits.push((i, reference_optimum(&jobs[i].instance)?));
                }
                tapes.push(Tape {
                    tenants,
                    jobs,
                    audits,
                    expect: None,
                });
                wall_ns.push(t0.elapsed().as_nanos() as u64);
            }
            let ranks = spec.ranks;
            Ok((Inputs::Serve { ranks, tapes }, wall_ns))
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time inside the program's entry points, ns.
    pub wall_ns: u64,
    /// The same, operation by operation in pass order (serve: tape by tape).
    pub op_wall_ns: Vec<u64>,
    /// Simulated time: the sum of every solve's makespan (serve: the sum
    /// of the answered jobs' latencies), ns.
    pub sim_ns: f64,
    /// Branch-and-bound nodes evaluated.
    pub nodes: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Raw per-layer counts, summed over the pass.
    pub counts: Values,
    /// Wall ns by solver kind (`serial`, `wave`, `fo`, `cluster`, `serve`).
    pub wall_by_kind: BTreeMap<&'static str, u64>,
    /// `(allocations, bytes)` by solver kind (zero unless counting is on).
    pub allocs_by_kind: BTreeMap<&'static str, (u64, u64)>,
    /// Operations by solver kind.
    pub ops_by_kind: BTreeMap<&'static str, u64>,
    /// Nodes of the plain halves of plain/propagating pairs.
    pub paired_plain_nodes: u64,
    /// Nodes of the propagating halves.
    pub paired_prop_nodes: u64,
}

impl Pass {
    fn account(&mut self, kind: &'static str, wall_ns: u64, allocs: (u64, u64), counts: &Values) {
        self.wall_ns += wall_ns;
        self.op_wall_ns.push(wall_ns);
        *self.wall_by_kind.entry(kind).or_insert(0) += wall_ns;
        *self.ops_by_kind.entry(kind).or_insert(0) += 1;
        let a = self.allocs_by_kind.entry(kind).or_insert((0, 0));
        a.0 += allocs.0;
        a.1 += allocs.1;
        for (&k, &v) in counts {
            if k == "tree.peak_nodes" {
                let e = self.counts.entry(k).or_insert(0.0);
                *e = e.max(v);
            } else {
                add(&mut self.counts, k, v);
            }
        }
    }

    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("wallbench: FAILED {what}: {why}");
    }
}

/// Wall s that `repetitions` of one list of operations add up to when every
/// operation is taken at its fastest repetition. The work is deterministic,
/// and what a shared host adds to it only ever adds time, in episodes that
/// can outlast a whole run: an operation of milliseconds finds an
/// undisturbed repetition among fifteen where a whole pass of half a second
/// does not.
pub fn fastest_sum_s(repetitions: &[&[u64]]) -> f64 {
    let ops = repetitions.iter().map(|r| r.len()).min().unwrap_or(0);
    let fastest = |i: usize| repetitions.iter().map(|r| r[i]).min().unwrap_or(0);
    (0..ops).map(fastest).sum::<u64>() as f64 / 1e9
}

/// [`fastest_sum_s`] of the operations of `passes`.
pub fn fastest_pass_s(passes: &[Pass]) -> f64 {
    let walls: Vec<&[u64]> = passes.iter().map(|p| &p.op_wall_ns[..]).collect();
    fastest_sum_s(&walls)
}

/// Holds `got` against what the operation gave before, or — the first time —
/// records it as what every later pass must give.
fn check_repeats(expect: &mut Option<Fingerprint>, got: Fingerprint) -> Result<(), String> {
    match expect {
        None => {
            *expect = Some(got);
            Ok(())
        }
        Some(e) => check_fingerprint(e, &got),
    }
}

/// Times `f`, returning its result, the wall ns and the allocations made.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, (u64, u64)) {
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let a1 = alloc::snapshot();
    (out, ns, (a1.0 - a0.0, a1.1 - a0.1))
}

/// Serves one tape on a fresh service and checks every job of it.
fn serve_tape(ranks: usize, tape: &mut Tape, pass: &mut Pass, spans: &mut Spans) {
    let Tape {
        tenants,
        jobs,
        audits,
        expect,
    } = tape;
    let c = entry::ServeConfig {
        ranks,
        ..Default::default()
    };
    let (t, j) = (tenants.clone(), jobs.clone());
    let (report, wall_ns, allocs) =
        spans.scope("serve.Service.run", |_| timed(|| entry::serve_run(c, t, j)));
    pass.attempted += jobs.len() as u64;
    let mut counts = Values::new();
    let m = &report.metrics;
    add(&mut counts, "serve.jobs", jobs.len() as f64);
    add(&mut counts, "serve.completed", report.completed() as f64);
    add(&mut counts, "serve.dropped", report.dropped() as f64);
    add(
        &mut counts,
        "serve.exact_hits",
        m.counter(names::SERVE_CACHE_EXACT_HITS),
    );
    add(
        &mut counts,
        "serve.warm_hits",
        m.counter(names::SERVE_CACHE_WARM_HITS),
    );
    add(
        &mut counts,
        "serve.retries",
        m.counter(names::SERVE_RETRIES),
    );
    add(
        &mut counts,
        "parallel.messages",
        m.counter(names::CLUSTER_MESSAGES),
    );
    add(
        &mut counts,
        "parallel.message_bytes",
        m.counter(names::CLUSTER_BYTES),
    );
    add(&mut counts, "lp.iters", m.counter(names::LP_ITERATIONS));
    let device = entry::DeviceStats::from_registry(m);
    add_device(&mut counts, &device);
    pass.account("serve", wall_ns, allocs, &counts);
    // The slowest tape's simulated latencies stand for the pass.
    for (key, q) in [("serve.sim_p50_ms", 0.50), ("serve.sim_p99_ms", 0.99)] {
        let e = pass.counts.entry(key).or_insert(0.0);
        *e = e.max(report.latency_quantile_ns(q) / 1e6);
    }

    let (mut objective_sum, mut nodes) = (0.0, 0);
    for (rec, job) in report.records.iter().zip(jobs.iter()) {
        if rec.answered() {
            pass.sim_ns += rec.latency_ns();
            nodes += rec.nodes as u64;
            objective_sum += rec.objective;
        } else {
            pass.fail(
                &format!("job {}", job.id),
                &format!("not answered: {:?}", rec.disposition),
            );
        }
    }
    pass.nodes += nodes;
    for &(i, reference) in audits.iter() {
        let rec = &report.records[i];
        if !rec.answered() {
            continue; // already counted above
        }
        let answer = Answer {
            optimal: rec.status == Some(MipStatus::Optimal),
            objective: rec.objective,
            x: None,
        };
        if let Err(e) = check_answer(&jobs[i].instance, reference, &answer) {
            pass.fail(&format!("job {}", jobs[i].id), &e);
        }
    }
    let got = fingerprint(
        objective_sum,
        nodes,
        report.completed() as u64,
        device.kernel_launches,
        report.makespan_ns,
    );
    if let Err(why) = check_repeats(expect, got) {
        pass.fail("service run", &why);
    }
}

/// Runs one pass over `inputs`, checking every operation.
pub fn run_pass(inputs: &mut Inputs, spans: &mut Spans) -> Pass {
    let mut pass = Pass::default();
    match inputs {
        Inputs::Solves { instances, ops } => {
            for op in ops.iter_mut() {
                let m = &instances[op.instance];
                pass.attempted += 1;
                let (r, wall_ns, allocs) =
                    spans.scope(op.solver.span(), |_| timed(|| run_solver(op.solver, m)));
                match r {
                    Err(e) => {
                        pass.account(op.solver.kind(), wall_ns, allocs, &Values::new());
                        pass.fail(&op.label, &e);
                    }
                    Ok(s) => {
                        pass.account(op.solver.kind(), wall_ns, allocs, &s.counts);
                        pass.sim_ns += s.sim_ns;
                        pass.nodes += s.nodes;
                        if op.paired_plain {
                            pass.paired_plain_nodes += s.nodes;
                        }
                        if op.paired_propagating {
                            pass.paired_prop_nodes += s.nodes;
                        }
                        let answer = Answer {
                            optimal: s.status == MipStatus::Optimal,
                            objective: s.objective,
                            x: Some(&s.x),
                        };
                        if let Err(e) = check_answer(m, op.reference, &answer)
                            .and_then(|()| check_repeats(&mut op.expect, s.fingerprint))
                        {
                            pass.fail(&op.label, &e);
                        }
                    }
                }
            }
            add(&mut pass.counts, "bench.solves", ops.len() as f64);
        }
        Inputs::Serve { ranks, tapes } => {
            for tape in tapes.iter_mut() {
                serve_tape(*ranks, tape, &mut pass, spans);
            }
        }
    }
    pass
}
