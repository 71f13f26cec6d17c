//! The solve-path table: every way `gmip` can run branch and cut, named,
//! parsed and run in one place.
//!
//! The paper describes one branch-and-cut algorithm along several code
//! paths — the four Section 3 strategies, the Section 5.4 super-solver that
//! picks dense or sparse kernels at run time, the Section 5.5 waves, and the
//! Section 2.3 supervisor–worker cluster. A [`SolvePath`] names one of them
//! by its `--strategy` spelling, and [`SolvePath::run`] builds that path's
//! configuration from one [`SolveOptions`] and solves. `gmip solve`,
//! `gmip verify`, the `gmip-verify` fuzzer and every job the `gmip-serve`
//! service dispatches (on `cluster:<leased ranks>`) all go through here, so
//! every path the CLI offers is one the fuzzer holds to the exact oracle.
//!
//! | spelling | driver |
//! |---|---|
//! | `host` | [`MipSolver::host_baseline`] |
//! | `cpu-orchestrated` \| `gpu-only` \| `hybrid` \| `big-mip:<k>` | [`plan`] + [`MipSolver::with_plan`] |
//! | `auto` | [`solve_with_dispatch`] |
//! | `batched:<n>` | [`solve_batched_wave`] |
//! | `per-lane:<n>` | [`solve_concurrent`] |
//! | `firstorder:<n>` | [`solve_first_order_wave`] |
//! | `cluster:<n>` / `cluster:<n>x<f>` | [`solve_parallel`] / [`solve_hierarchical`] |
//! | `threaded:<n>` | [`solve_threaded`] |
//!
//! An option the chosen path does not read is an error, never dropped.

use crate::{
    solve_hierarchical, solve_parallel, solve_threaded, ChaosConfig, HierResult, HierarchyConfig,
    ParallelConfig, ParallelResult, ThreadedResult, Warm, MAX_RANKS,
};
use gmip_core::{
    plan, solve_batched_wave, solve_concurrent, solve_first_order_wave, solve_with_dispatch,
    BatchedWaveConfig, CodePath, ConcurrentConfig, FirstOrderWaveConfig, MipConfig, MipResult,
    MipSolver, MipStatus, Strategy, WaveResult,
};
use gmip_gpu::{Accel, BackendKind, CostModel, DeviceConfig};
use gmip_problems::MipInstance;
use std::fmt;
use std::str::FromStr;

/// One way to run branch and cut, as `--strategy` spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePath {
    /// The serial solver on the host engine: the reference every path is
    /// checked against.
    Host,
    /// A Section 3 strategy's resource plan on a simulated GPU.
    Plan(Strategy),
    /// The Section 5.4 super-solver: dense device, sparse device or host,
    /// chosen from the input.
    Auto,
    /// The journaled-simplex wave, fused by lane state, this many lanes.
    Batched(usize),
    /// One device engine per stream, this many lanes: the waves' baseline.
    PerLane(usize),
    /// The restarted-PDHG lockstep wave, this many lanes.
    FirstOrder(usize),
    /// The discrete-event cluster: this many worker ranks, grouped under
    /// sub-supervisors this many wide when the fan-out is set (`None` = the
    /// flat star).
    Cluster(usize, Option<usize>),
    /// The cluster's ranks on this many OS threads.
    Threaded(usize),
}

/// Every spelling [`SolvePath::from_str`] accepts, ` | `-separated, `<…>`
/// standing for a width >= 1.
pub const SPELLINGS: &str = "host | cpu-orchestrated | gpu-only | hybrid | big-mip:<devices> | \
    auto | batched:<lanes> | per-lane:<lanes> | firstorder:<lanes> | cluster:<workers> | \
    cluster:<ranks>x<fanout> | threaded:<workers>";

/// The options every path is built from: the CLI's knobs, parsed once.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Node limit, pricing, policy, cuts, heuristics, propagation, gap,
    /// objective limit and certificates.
    pub mip: MipConfig,
    /// Memory of each simulated device, bytes.
    pub gpu_mem: usize,
    /// Who executes the fused lane kernels of the waves (`batched:` and
    /// `firstorder:`).
    pub backend: BackendKind,
    /// Deterministic fault injection (cluster and threaded ranks only).
    pub chaos: Option<ChaosConfig>,
    /// A warm start (the discrete-event clusters only).
    pub warm: Warm,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            mip: MipConfig::default(),
            gpu_mem: 1 << 30,
            backend: BackendKind::Sim,
            chaos: None,
            warm: Warm::default(),
        }
    }
}

/// What a path returns: its driver's own result type.
#[derive(Debug)]
pub enum Solved {
    /// `host` and the Section 3 strategies.
    Mip(MipResult),
    /// `auto`, with the code path it took.
    Auto(CodePath, MipResult),
    /// `batched:`, `per-lane:` and `firstorder:`.
    Wave(WaveResult),
    /// The flat cluster.
    Cluster(ParallelResult),
    /// The hierarchical cluster.
    Hier(HierResult),
    /// `threaded:`.
    Threaded(ThreadedResult),
}

impl Solved {
    fn claim(&self) -> (MipStatus, f64, &[f64]) {
        match self {
            Self::Mip(r) | Self::Auto(_, r) => (r.status, r.objective, &r.x),
            Self::Wave(r) => (r.status, r.objective, &r.x),
            Self::Cluster(r) => (r.status, r.objective, &r.x),
            Self::Hier(r) => (r.status, r.objective, &r.x),
            Self::Threaded(r) => (r.status, r.objective, &r.x),
        }
    }

    /// Terminal status.
    pub fn status(&self) -> MipStatus {
        self.claim().0
    }

    /// Incumbent objective (source sense; NaN if none).
    pub fn objective(&self) -> f64 {
        self.claim().1
    }

    /// Incumbent point (empty if none).
    pub fn x(&self) -> &[f64] {
        self.claim().2
    }
}

impl FromStr for SolvePath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (name, spec) = s.split_once(':').unwrap_or((s, ""));
        // A width suffix: an integer >= 1, or `<needs> >= 1, e.g. <example>`.
        let width = |spec: &str, needs: &str, example: &str| {
            spec.parse()
                .ok()
                .filter(|&n: &usize| n >= 1)
                .ok_or_else(|| format!("{needs} >= 1, e.g. {example}"))
        };
        let path = match (name, s.contains(':')) {
            ("host", false) => Self::Host,
            ("cpu-orchestrated", false) => Self::Plan(Strategy::CpuOrchestrated),
            ("gpu-only", false) => Self::Plan(Strategy::GpuOnly),
            ("hybrid", false) => Self::Plan(Strategy::Hybrid),
            ("auto", false) => Self::Auto,
            ("big-mip", true) => Self::Plan(Strategy::BigMip {
                devices: width(spec, "big-mip needs a device count", "big-mip:4")?,
            }),
            ("batched", true) => {
                Self::Batched(width(spec, "batched needs a lane count", "batched:8")?)
            }
            ("per-lane", true) => {
                Self::PerLane(width(spec, "per-lane needs a lane count", "per-lane:4")?)
            }
            ("firstorder", true) => Self::FirstOrder(width(
                spec,
                "firstorder needs a lane count",
                "firstorder:64",
            )?),
            ("threaded", true) => {
                Self::Threaded(width(spec, "threaded needs a worker count", "threaded:2")?)
            }
            ("cluster", true) => {
                // `cluster:<ranks>` is the flat star; `cluster:<ranks>x<fanout>`
                // groups the ranks under sub-supervisors of width <fanout>.
                let (ranks, fanout) = match spec.split_once('x') {
                    Some((r, f)) => {
                        let needs = "cluster fan-out needs a group width";
                        (r, Some(width(f, needs, "cluster:64x8")?))
                    }
                    None => (spec, None),
                };
                Self::Cluster(
                    width(ranks, "cluster needs a worker count", "cluster:4")?,
                    fanout,
                )
            }
            _ => return Err(format!("unknown strategy `{s}` (one of: {SPELLINGS})")),
        };
        match path {
            // Every rank holds a simulated device (and, threaded, an OS thread),
            // so a typo like cluster:10000000 would exhaust memory instead of
            // producing a curve.
            Self::Cluster(n, _) | Self::Threaded(n) if n > MAX_RANKS => Err(format!(
                "{name}:{n} exceeds the simulation ceiling of {MAX_RANKS} ranks"
            )),
            _ => Ok(path),
        }
    }
}

impl fmt::Display for SolvePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Host => write!(f, "host"),
            Self::Plan(Strategy::BigMip { devices }) => write!(f, "big-mip:{devices}"),
            Self::Plan(s) => write!(f, "{}", s.name()),
            Self::Auto => write!(f, "auto"),
            Self::Batched(n) => write!(f, "batched:{n}"),
            Self::PerLane(n) => write!(f, "per-lane:{n}"),
            Self::FirstOrder(n) => write!(f, "firstorder:{n}"),
            Self::Cluster(ranks, None) => write!(f, "cluster:{ranks}"),
            Self::Cluster(ranks, Some(fanout)) => write!(f, "cluster:{ranks}x{fanout}"),
            Self::Threaded(n) => write!(f, "threaded:{n}"),
        }
    }
}

impl SolvePath {
    /// The first option `o` sets away from its default that this path does
    /// not read, by its CLI flag (a warm start has none).
    pub fn unread_option(self, o: &SolveOptions) -> Option<&'static str> {
        use SolvePath::*;
        let d = SolveOptions::default();
        let (m, dm) = (&o.mip, &d.mip);
        let mip = matches!(self, Host | Plan(_) | Auto);
        let ranks = matches!(self, Cluster(..) | Threaded(_));
        let (lane, fo) = (matches!(self, PerLane(_)), matches!(self, FirstOrder(_)));
        // Only a wave's dispatches are wider than one lane.
        let waves = fo || matches!(self, Batched(_));
        let pricing = m.lp.primal.pricing != dm.lp.primal.pricing;
        let dive = m.heuristics.fix_and_propagate_period != 0;
        let rounds = m.propagate_rounds != dm.propagate_rounds;
        let warm = o.warm.seed.is_some() || o.warm.root_basis.is_some();
        [
            ("--gpu-mem", o.gpu_mem != d.gpu_mem, self != Host),
            ("--policy", m.policy != dm.policy, mip),
            ("--gap", m.gap_rel != dm.gap_rel, mip),
            ("--obj-limit", m.objective_limit.is_some(), mip),
            ("--no-cuts", !m.cuts.enabled, mip),
            ("--no-heur", !m.heuristics.rounding, mip),
            ("--pricing", pricing, !fo),
            ("--propagate", m.propagate, !lane),
            ("--heur-period", dive, !lane),
            ("--prop-rounds", rounds, !ranks && !lane),
            ("--backend", o.backend != d.backend, waves),
            ("--faults", o.chaos.is_some(), ranks),
            ("a warm start", warm, matches!(self, Cluster(..))),
        ]
        .into_iter()
        .find(|&(_, set, read)| set && !read)
        .map(|(flag, ..)| flag)
    }

    /// An `Err` naming the first option `o` sets that this path does not
    /// read.
    pub fn check(self, o: &SolveOptions) -> Result<(), String> {
        match self.unread_option(o) {
            Some(flag) => Err(format!("{flag} is not read by --strategy {self}")),
            None => Ok(()),
        }
    }

    /// Builds this path's configuration from `o` and solves `instance`.
    /// An option this path would not read is an `Err` naming it.
    pub fn run(self, instance: &MipInstance, o: &SolveOptions) -> Result<Solved, String> {
        self.check(o)?;
        let (m, gpu_mem) = (&o.mip, o.gpu_mem);
        let device = || {
            Accel::gpu_with(DeviceConfig {
                mem_capacity: gpu_mem,
                ..DeviceConfig::gpu(1)
            })
        };
        let ranks = |workers| ParallelConfig {
            workers,
            gpu_mem,
            warm: o.warm.clone(),
            lp: m.lp.clone(),
            node_limit: m.node_limit,
            chaos: o.chaos.clone(),
            propagate: m.propagate,
            heuristic_period: m.heuristics.fix_and_propagate_period,
            ..Default::default()
        };
        let solved = match self {
            Self::Host => MipSolver::host_baseline(instance.clone(), m.clone())
                .solve()
                .map(Solved::Mip),
            Self::Plan(strategy) => {
                let p = plan(strategy, m.clone(), CostModel::gpu_pcie(), gpu_mem);
                MipSolver::with_plan(instance.clone(), p)
                    .solve()
                    .map(Solved::Mip)
            }
            Self::Auto => solve_with_dispatch(instance.clone(), m.clone(), device())
                .map(|(path, r)| Solved::Auto(path, r)),
            Self::Batched(lanes) => {
                let cfg = BatchedWaveConfig {
                    lanes,
                    lp: m.lp.clone(),
                    node_limit: m.node_limit,
                    propagate: m.propagate,
                    propagate_rounds: m.propagate_rounds,
                    heuristic_period: m.heuristics.fix_and_propagate_period,
                    backend: o.backend,
                    ..Default::default()
                };
                solve_batched_wave(instance, &cfg, device()).map(Solved::Wave)
            }
            Self::PerLane(lanes) => {
                let cfg = ConcurrentConfig {
                    lanes,
                    lp: m.lp.clone(),
                    node_limit: m.node_limit,
                };
                solve_concurrent(instance, &cfg, device()).map(Solved::Wave)
            }
            Self::FirstOrder(lanes) => {
                let cfg = FirstOrderWaveConfig {
                    lanes,
                    node_limit: m.node_limit,
                    propagate: m.propagate,
                    propagate_rounds: m.propagate_rounds,
                    heuristic_period: m.heuristics.fix_and_propagate_period,
                    backend: o.backend,
                    ..Default::default()
                };
                solve_first_order_wave(instance, &cfg, device()).map(Solved::Wave)
            }
            Self::Cluster(workers, None) => {
                solve_parallel(instance, ranks(workers)).map(Solved::Cluster)
            }
            Self::Cluster(workers, Some(fanout)) => {
                let hcfg = HierarchyConfig {
                    fanout,
                    ..Default::default()
                };
                solve_hierarchical(instance, ranks(workers), hcfg).map(Solved::Hier)
            }
            Self::Threaded(workers) => {
                solve_threaded(instance, &ranks(workers)).map(Solved::Threaded)
            }
        };
        solved.map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_lp::PricingRule;
    use gmip_problems::catalog::figure1_knapsack;
    use gmip_problems::generators::set_cover;

    #[test]
    fn every_spelling_parses_and_prints_back() {
        for spelling in SPELLINGS.split(" | ") {
            // Every `<…>` placeholder becomes 3.
            let (mut concrete, mut rest) = (String::new(), spelling);
            while let Some((head, tail)) = rest.split_once('<') {
                concrete += head;
                concrete += "3";
                rest = tail.split_once('>').expect("closed placeholder").1;
            }
            concrete += rest;
            let path: SolvePath = concrete
                .parse()
                .unwrap_or_else(|e| panic!("{concrete}: {e}"));
            assert_eq!(path.to_string(), concrete);
        }
    }

    #[test]
    fn bad_widths_are_errors_naming_the_path() {
        for bad in [
            "cluster:0",
            "cluster:x",
            "cluster:",
            "batched:0",
            "batched:-1",
            "batched:",
            "per-lane:0",
            "firstorder:0",
            "firstorder:-1",
            "firstorder:",
            "firstorder:x",
            "big-mip:0",
            "big-mip:x",
            "big-mip:",
            "threaded:0",
            "cluster:8x0",
            "cluster:8x",
            "cluster:0x8",
            "cluster:x8",
        ] {
            let err = bad.parse::<SolvePath>().unwrap_err();
            let name = bad.split(':').next().unwrap();
            assert!(err.contains(">= 1") && err.contains(name), "{bad}: `{err}`");
        }
        for absurd in [
            "cluster:1000000",
            "cluster:4097",
            "cluster:1000000x8",
            "threaded:4097",
        ] {
            let err = absurd.parse::<SolvePath>().unwrap_err();
            assert!(err.contains("ceiling"), "{absurd}: `{err}`");
        }
        // The ceiling itself is inclusive: E10's largest cell stays legal.
        assert_eq!(
            "cluster:1024x32".parse::<SolvePath>(),
            Ok(SolvePath::Cluster(1024, Some(32)))
        );
        let err = "warp:9".parse::<SolvePath>().unwrap_err();
        assert!(err.contains("unknown strategy `warp:9`"), "{err}");
        assert!("batched".parse::<SolvePath>().is_err());
        assert!("host:2".parse::<SolvePath>().is_err());
    }

    /// Every (path, option) pair: a path that reads the option solves, one
    /// that does not is an `Err` naming both.
    #[test]
    fn an_option_a_path_does_not_read_is_an_error() {
        let paths = [
            "host",
            "cpu-orchestrated",
            "auto",
            "batched:2",
            "per-lane:2",
            "firstorder:2",
            "cluster:2",
            "cluster:2x1",
            "threaded:2",
        ];
        type Set = fn(&mut SolveOptions);
        // One column per path above: `x` reads the option, `.` does not.
        let options: [(&str, Set, &str); 13] = [
            ("--gpu-mem", |o| o.gpu_mem = 2 << 30, ".xxxxxxxx"),
            ("--node-limit", |o| o.mip.node_limit = 50, "xxxxxxxxx"),
            (
                "--policy",
                |o| o.mip.policy = gmip_core::PolicyKind::DepthFirst,
                "xxx......",
            ),
            ("--gap", |o| o.mip.gap_rel = 0.01, "xxx......"),
            (
                "--obj-limit",
                |o| o.mip.objective_limit = Some(1.0),
                "xxx......",
            ),
            ("--no-cuts", |o| o.mip.cuts.enabled = false, "xxx......"),
            (
                "--no-heur",
                |o| o.mip.heuristics.rounding = false,
                "xxx......",
            ),
            (
                "--pricing",
                |o| o.mip.lp.primal.pricing = PricingRule::Devex,
                "xxxxx.xxx",
            ),
            ("--propagate", |o| o.mip.propagate = true, "xxxx.xxxx"),
            (
                "--heur-period",
                |o| o.mip.heuristics.fix_and_propagate_period = 2,
                "xxxx.xxxx",
            ),
            ("--prop-rounds", |o| o.mip.propagate_rounds = 3, "xxxx.x..."),
            (
                "--backend",
                |o| o.backend = BackendKind::Native { threads: 1 },
                "...x.x...",
            ),
            (
                "a warm start",
                |o| o.warm.seed = Some(vec![1.0, 0.0, 1.0, 0.0]),
                "......xx.",
            ),
        ];
        let m = figure1_knapsack();
        for (flag, set, readers) in options {
            for (path, read) in paths.iter().zip(readers.chars()) {
                let mut o = SolveOptions::default();
                set(&mut o);
                let got = path.parse::<SolvePath>().unwrap().run(&m, &o);
                match (read, got) {
                    ('x', Ok(_)) => {}
                    ('x', Err(e)) => panic!("{path} {flag}: {e}"),
                    (_, Ok(_)) => panic!("{path} accepted {flag}, which it does not read"),
                    (_, Err(e)) => {
                        assert_eq!(e, format!("{flag} is not read by --strategy {path}"))
                    }
                }
            }
        }
        // Faults: only ranks read them.
        let chaos = SolveOptions {
            chaos: Some(ChaosConfig::quiet(3)),
            ..SolveOptions::default()
        };
        for path in paths {
            let got = path.parse::<SolvePath>().unwrap().run(&m, &chaos);
            assert_eq!(
                got.is_ok(),
                path.starts_with("cluster") || path.starts_with("threaded")
            );
        }
    }

    /// A rank's fused dispatches are one lane wide and run on the calling
    /// thread, so no cluster or threaded path takes an executing backend.
    #[test]
    fn ranks_refuse_an_executing_backend() {
        let native = SolveOptions {
            backend: BackendKind::Native { threads: 1 },
            ..SolveOptions::default()
        };
        for path in ["cluster:3", "cluster:4x2", "threaded:2"] {
            let got = path
                .parse::<SolvePath>()
                .unwrap()
                .run(&figure1_knapsack(), &native);
            let err = got.expect_err(path);
            assert!(err.contains("--backend"), "{path}: {err}");
        }
    }

    /// `--pricing` reaches the cluster's ranks: Devex moves a rank's pivots.
    #[test]
    fn cluster_ranks_price_with_the_chosen_rule() {
        let m = set_cover(12, 16, 0.4, 3);
        let run = |pricing| {
            let mut o = SolveOptions::default();
            o.mip.lp.primal.pricing = pricing;
            let path: SolvePath = "cluster:3".parse().unwrap();
            match path.run(&m, &o).unwrap() {
                Solved::Cluster(r) => (r.objective, r.stats.lp_iterations),
                other => panic!("{other:?}"),
            }
        };
        let (dantzig, devex) = (run(PricingRule::Dantzig), run(PricingRule::Devex));
        assert_eq!(dantzig.0, devex.0, "same optimum");
        assert_ne!(dantzig.1, devex.1, "Devex must change the ranks' pivots");
    }
}
