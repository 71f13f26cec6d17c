//! The seeded differential fuzz driver behind `gmip-verify --fuzz <n>`.
//!
//! Every case samples an instance from the generator catalog (plus the
//! random-MIP generator), computes its ground truth with the exact
//! rational [`crate::oracle`], and then runs the rows of the solve-path
//! table ([`gmip_parallel::paths`]) — every path `gmip solve --strategy`
//! offers, plain, with propagation and the dive on, on the native backend,
//! under a chaos fault plan and, on both discrete-event clusters, from warm
//! starts — checking each result against the oracle:
//! status, objective within the declared float tolerance, exact incumbent
//! re-evaluation, and (for the host row) exact validation of the emitted LP
//! certificates. Metamorphic transforms of each instance ride along: their
//! mapped-back optimum must equal the oracle's.
//!
//! On mismatch the failing instance is shrunk to a minimal counterexample
//! (see [`crate::shrink`]) and written as an `.mps` repro, with the
//! `gmip solve` command that replays it.

use crate::certify;
use crate::metamorphic::transforms;
use crate::oracle::{solve_oracle, OracleResult, OracleStatus};
use crate::shrink::{shrink_instance, write_repro};
use gmip_core::MipStatus;
use gmip_gpu::BackendKind;
use gmip_lp::Basis;
use gmip_parallel::{ChaosConfig, SolveOptions, SolvePath, Solved, Warm};
use gmip_problems::generators::{
    bin_packing, generalized_assignment, knapsack, random_mip, set_cover, unit_commitment,
    RandomMipConfig,
};
use gmip_problems::{catalog, MipInstance};
use gmip_trace::names;
use std::path::PathBuf;

/// Fuzz-run configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of instances to fuzz.
    pub cases: usize,
    /// Master seed; the whole run is deterministic given this.
    pub seed: u64,
    /// Run the solve-path table's rows beyond the host baseline.
    pub builtin_strategies: bool,
    /// Include a DES cluster run under a chaos fault plan.
    pub chaos: bool,
    /// Run the metamorphic transform suite through the host solver.
    pub metamorphic: bool,
    /// Shrink mismatches to minimal counterexamples.
    pub shrink: bool,
    /// Where to write `.mps` repro files (`None` = don't write).
    pub repro_dir: Option<PathBuf>,
    /// Float tolerance for objective comparisons.
    pub tol: f64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            cases: 50,
            seed: 4,
            builtin_strategies: true,
            chaos: true,
            metamorphic: true,
            shrink: true,
            repro_dir: None,
            tol: 1e-5,
        }
    }
}

/// What one strategy reported for one instance.
#[derive(Debug, Clone)]
pub struct StrategyOutput {
    /// Terminal status.
    pub status: MipStatus,
    /// Claimed objective (source sense; NaN if none).
    pub objective: f64,
    /// Claimed incumbent (may be empty when the strategy doesn't report
    /// points).
    pub x: Vec<f64>,
}

impl From<&Solved> for StrategyOutput {
    fn from(s: &Solved) -> Self {
        Self {
            status: s.status(),
            objective: s.objective(),
            x: s.x().to_vec(),
        }
    }
}

/// A pluggable way to solve an instance (the fuzz driver's unit of test).
pub type StrategyRunner = Box<dyn Fn(&MipInstance) -> Result<StrategyOutput, String>>;

/// One detected disagreement with the oracle.
#[derive(Debug)]
pub struct Mismatch {
    /// Case identifier (`case-<n>/<instance name>`).
    pub case: String,
    /// Strategy (or check) that disagreed.
    pub strategy: String,
    /// What went wrong.
    pub detail: String,
    /// Minimal failing instance, when shrinking was enabled and succeeded.
    pub shrunk: Option<MipInstance>,
    /// Path of the written `.mps` repro, when a repro dir was configured.
    pub repro: Option<PathBuf>,
    /// The `gmip solve` command that replays a table row's mismatch.
    pub command: Option<String>,
}

impl Mismatch {
    fn new(case: &str, strategy: impl Into<String>, detail: String) -> Self {
        Self {
            case: case.into(),
            strategy: strategy.into(),
            detail,
            shrunk: None,
            repro: None,
            command: None,
        }
    }
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Instances fuzzed.
    pub cases: usize,
    /// Individual strategy/oracle comparisons performed.
    pub checks: usize,
    /// LP certificates validated exactly.
    pub certificates: usize,
    /// Metamorphic transform checks performed.
    pub metamorphic_checks: usize,
    /// All detected mismatches (empty = clean run).
    pub mismatches: Vec<Mismatch>,
}

impl FuzzOutcome {
    /// `true` when the run found no disagreement.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Splitmix-style per-case seed derivation (keeps cases independent).
fn derive(seed: u64, case: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples the fuzz corpus: small catalog instances and oracle-sized draws
/// from every generator family plus the random-MIP generator.
fn sample_instance(seed: u64, case: u64) -> MipInstance {
    let s = derive(seed, case, 1);
    match case % 8 {
        0 => catalog::figure1_knapsack(),
        1 => catalog::textbook_mip(),
        2 => knapsack(5 + (s % 4) as usize, 0.5, s),
        3 => set_cover(4 + (s % 3) as usize, 4, 0.6, s),
        4 => bin_packing(3, 1.0, s),
        5 => unit_commitment(2, 2 + (s % 2) as usize, s),
        6 => generalized_assignment(2, 2 + (s % 2) as usize, s),
        _ => random_mip(&RandomMipConfig {
            rows: 2 + (s % 3) as usize,
            cols: 3 + (s % 5) as usize,
            density: 0.6,
            integral_fraction: 0.75,
            seed: s,
        }),
    }
}

/// One row of the fuzz table: a solve path and the options it runs with,
/// named by the `gmip solve --strategy …` arguments that reproduce it.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    path: SolvePath,
    opts: SolveOptions,
}

impl Row {
    fn new(path: &str) -> Self {
        Self {
            name: path.into(),
            path: path.parse().expect("a solve-path spelling"),
            opts: SolveOptions::default(),
        }
    }

    /// `--propagate --heur-period 2`: the node hook on, a dive every second
    /// node.
    fn propagate(mut self) -> Self {
        self.name += " --propagate --heur-period 2";
        self.opts.mip.propagate = true;
        self.opts.mip.heuristics.fix_and_propagate_period = 2;
        self
    }

    /// `--backend native`.
    fn native(mut self) -> Self {
        self.name += " --backend native";
        self.opts.backend = BackendKind::parse("native").expect("a backend");
        self
    }

    /// `--faults <spec>`.
    fn faults(mut self, spec: &str) -> Self {
        self.name += &format!(" --faults {spec}");
        self.opts.chaos = Some(ChaosConfig::parse(spec).expect("a fault spec"));
        self
    }

    fn run(&self, m: &MipInstance) -> Result<StrategyOutput, String> {
        self.path
            .run(m, &self.opts)
            .map(|s| StrategyOutput::from(&s))
    }
}

/// The table rows run after the host baseline: every path plain; the node
/// hook (propagation and the dive on) on the serial solver, both waves and
/// the cluster rank; both waves on the native backend; and a cluster under
/// a chaos fault plan.
fn rows(chaos: bool, seed: u64) -> Vec<Row> {
    let plain = "cpu-orchestrated gpu-only hybrid big-mip:2 auto cluster:3 cluster:4x2 \
                 threaded:2 batched:3 per-lane:3 firstorder:3";
    let mut rows: Vec<Row> = plain.split_whitespace().map(Row::new).collect();
    for path in ["host", "batched:3", "firstorder:3", "cluster:3"] {
        rows.push(Row::new(path).propagate());
    }
    rows.push(Row::new("batched:3").propagate().native());
    rows.push(Row::new("firstorder:3").native());
    if chaos {
        rows.push(Row::new("cluster:3").faults(&format!(
            "seed={seed},crash=0,straggle=0,drop=0.1,delay=0.1,delay-ns=15000"
        )));
    }
    rows
}

/// The warm starts a case with a proven optimum runs both discrete-event
/// clusters from, each run checked against the oracle: the oracle's optimum,
/// which must be taken (`bb.warm.seeds` 1); that point with one integer
/// coordinate moved by ±1, which must be rejected, not trusted, when it is
/// infeasible (`bb.warm.seeds` 0); and `basis`, the previous case's root
/// basis, which misfits and must give a cold root, not an error. Returns
/// the first root basis this case's runs report, for the next case.
fn warm_checks(
    cfg: &FuzzConfig,
    out: &mut FuzzOutcome,
    case: &Case,
    salt: u64,
    basis: Option<Basis>,
) -> Option<Basis> {
    let m = case.instance;
    let optimum: Vec<f64> = case.oracle.x.iter().map(|v| v.approx()).collect();
    let mut moved = optimum.clone();
    let integral = m.integral_indices();
    if !integral.is_empty() {
        moved[integral[salt as usize % integral.len()]] +=
            if (salt >> 32) & 1 == 1 { 1.0 } else { -1.0 };
    }
    let infeasible =
        certify::check_incumbent(m, &moved, m.objective_value(&moved), cfg.tol).is_err();
    let seeded = |x| Warm {
        seed: Some(x),
        root_basis: None,
    };
    let starts = [
        ("optimum", seeded(optimum), Some(1.0)),
        ("moved", seeded(moved), infeasible.then_some(0.0)),
        (
            "basis",
            Warm {
                root_basis: basis,
                ..Warm::default()
            },
            None,
        ),
    ];
    let mut next = None;
    for path in [SolvePath::Cluster(3, None), SolvePath::Cluster(4, Some(2))] {
        for (label, warm, seeds) in &starts {
            let name = format!("{path} warm={label}");
            let opts = SolveOptions {
                warm: warm.clone(),
                ..SolveOptions::default()
            };
            let run = |c: &MipInstance| path.run(c, &opts);
            let solved = run(m);
            let stats = match &solved {
                Ok(Solved::Cluster(r)) => Some(&r.stats),
                Ok(Solved::Hier(r)) => Some(&r.stats),
                _ => None,
            };
            if let Some(stats) = stats {
                let taken = stats.metrics.counter(names::BB_WARM_SEEDS);
                if let Some(want) = seeds.filter(|&want| want != taken) {
                    let detail = format!("{} = {taken}, expected {want}", names::BB_WARM_SEEDS);
                    out.mismatches.push(Mismatch::new(&case.id, &name, detail));
                }
                next = next.or_else(|| stats.root_basis.clone());
            }
            let got = solved.map(|s| StrategyOutput::from(&s));
            check(cfg, out, case, &name, false, got, &|c| {
                run(c).map(|s| StrategyOutput::from(&s))
            });
        }
    }
    next
}

/// Compares one strategy result against the oracle; `None` = agreement.
pub fn disagreement(
    m: &MipInstance,
    oracle: &OracleResult,
    out: &StrategyOutput,
    tol: f64,
) -> Option<String> {
    match oracle.status {
        OracleStatus::Optimal => {
            let exact = oracle.objective.clone().expect("optimal has objective");
            if out.status != MipStatus::Optimal {
                return Some(format!(
                    "oracle says Optimal({}), strategy says {:?}",
                    exact.approx(),
                    out.status
                ));
            }
            let want = exact.approx();
            if (out.objective - want).abs() > tol * (1.0 + want.abs()) {
                return Some(format!(
                    "objective {} vs exact optimum {}",
                    out.objective, want
                ));
            }
            if !out.x.is_empty() {
                if let Err(e) = certify::check_incumbent(m, &out.x, out.objective, tol) {
                    return Some(format!("incumbent rejected by exact check: {e}"));
                }
            }
            None
        }
        OracleStatus::Infeasible => (out.status != MipStatus::Infeasible)
            .then(|| format!("oracle says Infeasible, strategy says {:?}", out.status)),
        OracleStatus::Unbounded => (out.status != MipStatus::Unbounded)
            .then(|| format!("oracle says Unbounded, strategy says {:?}", out.status)),
    }
}

/// One case's instance and ground truth, as the checks see them.
struct Case<'a> {
    id: String,
    instance: &'a MipInstance,
    oracle: &'a OracleResult,
}

/// Records `got` (what `rerun` returned on the case) against the oracle; a
/// disagreement is shrunk by re-running `rerun` and, for a table row
/// (`row`), carries the `gmip solve` command that replays it.
fn check(
    cfg: &FuzzConfig,
    out: &mut FuzzOutcome,
    case: &Case,
    name: &str,
    row: bool,
    got: Result<StrategyOutput, String>,
    rerun: &dyn Fn(&MipInstance) -> Result<StrategyOutput, String>,
) {
    out.checks += 1;
    let detail = match got {
        Ok(res) => match disagreement(case.instance, case.oracle, &res, cfg.tol) {
            Some(detail) => detail,
            None => return,
        },
        Err(e) => {
            out.mismatches
                .push(Mismatch::new(&case.id, name, format!("solver error: {e}")));
            return;
        }
    };
    let mut mm = Mismatch::new(&case.id, name, detail);
    if cfg.shrink {
        let shrunk = shrink_instance(case.instance, &|c| {
            matches!(
                (solve_oracle(c), rerun(c)),
                (Ok(o), Ok(r)) if disagreement(c, &o, &r, cfg.tol).is_some()
            )
        });
        if let Some(dir) = &cfg.repro_dir {
            let stem = format!(
                "repro-{}-{}",
                mm.case.replace('/', "_"),
                mm.strategy.replace([':', '/', ' ', ',', '='], "_")
            );
            mm.repro = write_repro(dir, &stem, &shrunk).ok();
        }
        mm.shrunk = Some(shrunk);
    }
    if row {
        let file = mm
            .repro
            .as_ref()
            .map_or("<instance.mps>".into(), |p| p.display().to_string());
        mm.command = Some(format!("gmip solve {file} --strategy {name}"));
    }
    out.mismatches.push(mm);
}

/// Runs the fuzz loop with the built-in strategy set.
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzOutcome, String> {
    run_fuzz_with(cfg, Vec::new())
}

/// [`run_fuzz`] with extra injected strategies (the hook the in-tree
/// fault-injection tests use to prove the harness catches a wrong solver).
pub fn run_fuzz_with(
    cfg: &FuzzConfig,
    extra: Vec<(String, StrategyRunner)>,
) -> Result<FuzzOutcome, String> {
    let rows = if cfg.builtin_strategies {
        rows(cfg.chaos, cfg.seed)
    } else {
        Vec::new()
    };
    // The host baseline also records its LP certificates, which are
    // validated exactly.
    let mut host = Row::new("host");
    host.opts.mip.collect_certificates = true;
    let mut out = FuzzOutcome::default();
    let mut basis = None;

    for case in 0..cfg.cases {
        let instance = sample_instance(cfg.seed, case as u64);
        let id = format!("case-{case}/{}", instance.name);
        let oracle = solve_oracle(&instance).map_err(|e| format!("{id}: oracle: {e}"))?;
        let cx = Case {
            id,
            instance: &instance,
            oracle: &oracle,
        };

        let solved = host.path.run(&instance, &host.opts);
        if let Ok(Solved::Mip(r)) = &solved {
            let report = certify::check_certificates(&instance, &r.stats.certificates, cfg.tol);
            out.certificates += report.checked;
            for f in report.failures {
                out.mismatches
                    .push(Mismatch::new(&cx.id, "host-certificates", f));
            }
        }
        let got = solved.map(|s| StrategyOutput::from(&s));
        check(cfg, &mut out, &cx, &host.name, true, got, &|c| host.run(c));
        for row in &rows {
            let got = row.run(&instance);
            check(cfg, &mut out, &cx, &row.name, true, got, &|c| row.run(c));
        }
        for (name, run) in &extra {
            check(cfg, &mut out, &cx, name, false, run(&instance), run);
        }
        if cfg.builtin_strategies && oracle.status == OracleStatus::Optimal {
            let salt = derive(cfg.seed, case as u64, 3);
            basis = warm_checks(cfg, &mut out, &cx, salt, basis.take());
        }

        // Metamorphic equivalence through the host solver.
        if cfg.metamorphic && oracle.status == OracleStatus::Optimal {
            let base = oracle
                .objective
                .clone()
                .expect("optimal has objective")
                .approx();
            for t in transforms(&instance, derive(cfg.seed, case as u64, 2)) {
                out.metamorphic_checks += 1;
                let strategy = format!("metamorphic:{}", t.name);
                let detail = match SolvePath::Host.run(&t.instance, &SolveOptions::default()) {
                    Ok(r) if r.status() == MipStatus::Optimal => {
                        let back = t.map_back(r.objective());
                        if (back - base).abs() <= cfg.tol * (1.0 + base.abs()) {
                            continue;
                        }
                        format!("mapped-back optimum {back} vs exact {base}")
                    }
                    Ok(r) => format!("transformed instance solved to {:?}", r.status()),
                    Err(e) => format!("solver error on transform: {e}"),
                };
                out.mismatches.push(Mismatch::new(&cx.id, strategy, detail));
            }
        }
        out.cases += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmip_core::{MipConfig, MipSolver, Strategy};

    /// A small clean sweep across all strategies: nothing may disagree with
    /// the exact oracle.
    #[test]
    fn short_fuzz_run_is_clean_across_all_strategies() {
        let cfg = FuzzConfig {
            cases: 8,
            seed: 4,
            ..FuzzConfig::default()
        };
        let out = run_fuzz(&cfg).expect("fuzz run");
        assert_eq!(out.cases, 8);
        let optimal = (0..8)
            .filter(|&c| {
                solve_oracle(&sample_instance(4, c)).unwrap().status == OracleStatus::Optimal
            })
            .count();
        assert_eq!(
            out.checks,
            8 * 19 + 6 * optimal,
            "the host baseline, 18 table rows, and 6 warm runs per optimal case"
        );
        assert!(out.certificates > 0, "no certificates were validated");
        assert!(out.metamorphic_checks > 0, "no metamorphic checks ran");
        assert!(
            out.ok(),
            "mismatches: {:?}",
            out.mismatches
                .iter()
                .map(|m| format!("{}/{}: {}", m.case, m.strategy, m.detail))
                .collect::<Vec<_>>()
        );
    }

    /// No path can skip the oracle: every `SolvePath` variant has a row.
    /// The match has no `_` arm, so a new variant does not compile here
    /// until it is given a name below — and a row in `rows`.
    #[test]
    fn every_solve_path_has_a_fuzz_row() {
        use SolvePath::*;
        let covered: std::collections::BTreeSet<&str> = rows(true, 4)
            .iter()
            .map(|row| match row.path {
                Host => "host",
                Plan(Strategy::CpuOrchestrated) => "cpu-orchestrated",
                Plan(Strategy::GpuOnly) => "gpu-only",
                Plan(Strategy::Hybrid) => "hybrid",
                Plan(Strategy::BigMip { .. }) => "big-mip",
                Auto => "auto",
                Batched(_) => "batched",
                PerLane(_) => "per-lane",
                FirstOrder(_) => "firstorder",
                Cluster(_, None) => "cluster",
                Cluster(_, Some(_)) => "cluster-hier",
                Threaded(_) => "threaded",
            })
            .collect();
        let paths = gmip_parallel::SPELLINGS.split(" | ").count();
        assert_eq!(covered.len(), paths, "{covered:?}");
        // A row's name is the `--strategy` argument list that reproduces it.
        for row in rows(true, 4) {
            let spelling = row.name.split(' ').next().unwrap();
            assert_eq!(spelling.parse::<SolvePath>(), Ok(row.path), "{}", row.name);
        }
    }

    /// The chaos row's `--faults` spelling parses to the plan it names:
    /// drops and delays, no crashes or stragglers.
    #[test]
    fn the_chaos_row_spells_its_fault_plan() {
        let row = rows(true, 9).pop().expect("a chaos row");
        assert_eq!(
            row.opts.chaos,
            Some(ChaosConfig {
                drop_prob: 0.1,
                delay_prob: 0.1,
                delay_ns: 15_000.0,
                ..ChaosConfig::quiet(9)
            })
        );
        assert_eq!(rows(false, 9).len(), 17);
    }

    /// Acceptance criterion: a deliberately wrong strategy (off-by-one
    /// objective) is caught and shrunk to a tiny (≤ 6 variable) repro.
    #[test]
    fn injected_off_by_one_is_caught_and_shrunk() {
        let dir = std::env::temp_dir().join("gmip-verify-off-by-one");
        let cfg = FuzzConfig {
            cases: 3,
            seed: 4,
            builtin_strategies: false,
            chaos: false,
            metamorphic: false,
            shrink: true,
            repro_dir: Some(dir.clone()),
            tol: 1e-5,
        };
        let bad: StrategyRunner = Box::new(|m: &MipInstance| {
            let mut s = MipSolver::host_baseline(m.clone(), MipConfig::default());
            let r = s.solve().map_err(|e| e.to_string())?;
            Ok(StrategyOutput {
                status: r.status,
                // The bug under test: every optimum is reported one high,
                // and no incumbent is exposed that could contradict it.
                objective: r.objective + 1.0,
                x: Vec::new(),
            })
        });
        let out = run_fuzz_with(&cfg, vec![("off-by-one".into(), bad)]).expect("fuzz run");
        assert!(!out.ok(), "the injected bug went undetected");
        let mm = &out.mismatches[0];
        assert_eq!(mm.strategy, "off-by-one");
        assert!(
            mm.command.is_none(),
            "an injected strategy has no CLI spelling"
        );
        let shrunk = mm.shrunk.as_ref().expect("mismatch was shrunk");
        assert!(
            shrunk.num_vars() <= 6,
            "repro has {} variables (> 6)",
            shrunk.num_vars()
        );
        let repro = mm.repro.as_ref().expect("repro file written");
        let text = std::fs::read_to_string(repro).expect("repro readable");
        let back = gmip_problems::mps::read_mps(&text).expect("repro parses");
        assert_eq!(back.num_vars(), shrunk.num_vars());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A table row's mismatch carries the `gmip solve` command that replays
    /// it on the written repro.
    #[test]
    fn a_row_mismatch_names_its_replay_command() {
        let dir = std::env::temp_dir().join("gmip-verify-replay-command");
        let cfg = FuzzConfig {
            cases: 1,
            shrink: true,
            repro_dir: Some(dir.clone()),
            ..FuzzConfig::default()
        };
        let row = Row::new("batched:3").propagate();
        let m = catalog::figure1_knapsack();
        let oracle = solve_oracle(&m).expect("oracle");
        let case = Case {
            id: "case-0/fig1".into(),
            instance: &m,
            oracle: &oracle,
        };
        let mut out = FuzzOutcome::default();
        // A wrong answer, as if the row had returned it.
        let wrong = |c: &MipInstance| {
            row.run(c).map(|mut r| {
                r.objective += 1.0;
                r.x.clear();
                r
            })
        };
        check(&cfg, &mut out, &case, &row.name, true, wrong(&m), &wrong);
        let mm = &out.mismatches[0];
        let repro = mm.repro.as_ref().expect("repro written").display();
        assert_eq!(
            mm.command.as_deref(),
            Some(
                format!("gmip solve {repro} --strategy batched:3 --propagate --heur-period 2")
                    .as_str()
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: fuzzing found bin-packing instances whose dense cut rows
    /// cycled the dual simplex to its iteration limit (it has no Bland
    /// fallback); `LpSolver::resolve` now falls back to a cold primal solve
    /// on a dual stall. Keep the exact seeds that exposed it.
    #[test]
    fn fuzzer_found_dual_cycling_cases_stay_fixed() {
        use gmip_problems::generators::bin_packing;
        for seed in [16041958120884749744u64, 16355444719202703788] {
            let m = bin_packing(3, 1.0, seed);
            let oracle = solve_oracle(&m).expect("oracle");
            let mut s = MipSolver::host_baseline(m.clone(), MipConfig::default());
            let r = s.solve().expect("host solve must not hit iteration limit");
            assert_eq!(r.status, MipStatus::Optimal);
            let exact = oracle.objective.expect("optimal").approx();
            assert!(
                (r.objective - exact).abs() < 1e-6,
                "{seed}: {} vs exact {exact}",
                r.objective
            );
        }
    }

    #[test]
    fn derive_is_deterministic_and_spread() {
        assert_eq!(derive(4, 0, 1), derive(4, 0, 1));
        assert_ne!(derive(4, 0, 1), derive(4, 1, 1));
        assert_ne!(derive(4, 0, 1), derive(5, 0, 1));
    }
}
