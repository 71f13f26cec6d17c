//! Implementation of the `gmip` CLI: argument parsing, the `solve` and
//! `generate` subcommands, and result formatting.

use gmip_core::{
    choose_path, plan, presolve, solve_batched_wave, solve_first_order_wave, solve_with_dispatch,
    BatchedWaveConfig, FirstOrderWaveConfig, MipConfig, MipResult, MipSolver, MipStatus,
    PolicyKind, Strategy, WaveResult, DEFAULT_PROPAGATE_ROUNDS,
};
use gmip_gpu::{Accel, CostModel};
use gmip_lp::PricingRule;
use gmip_parallel::{
    solve_hierarchical, solve_parallel, ChaosConfig, HierStats, HierarchyConfig, ParallelConfig,
    ParallelStats, MAX_RANKS,
};
use gmip_problems::generators;
use gmip_problems::mps::{read_mps, write_mps};
use gmip_problems::MipInstance;
use gmip_tree::render;

/// The help text.
pub const HELP: &str = "\
gmip — MIP solving on a simulated GPU-accelerated platform

USAGE:
  gmip solve <file.mps> [options]
  gmip verify <file.mps> [options]
  gmip serve [options]
  gmip generate <family> [options]
  gmip help

SERVE:
  replay a seeded open-loop traffic tape (Poisson arrivals, heavy-tailed
  job sizes, duplicate and perturbed re-submissions) through the
  multi-tenant solve service: admission control, priority scheduling,
  rank sharding, and the solution-pool warm-start cache. Deterministic:
  the same --seed reproduces every answer and trace byte. Accepts
  --seed, --node-limit, --faults, --trace, --metrics, plus:
  --jobs <n>           jobs in the tape                 (default: 200)
  --ranks <n>          cluster ranks shared by jobs     (default: 8)
  --tenants <n>        tenants (priorities cycle 0,1,2) (default: 3)
  --mean-gap-us <f>    mean inter-arrival gap, µs       (default: 2000)
  --dup <frac>         exact-duplicate fraction         (default: 0.15)
  --perturb <frac>     perturbed-resubmission fraction  (default: 0.15)
  --max-items <n>      job size ceiling (knapsack items) (default: 14)
  --verify-sample <n>  audit n served answers against the exact oracle;
                       exits nonzero on any mismatch     (default: 0)
  --max-shed-rate <f>  exit nonzero if the shed+reject fraction exceeds f

VERIFY:
  solve with the float host path, then certify the result against the
  gmip-verify exact rational oracle: the proven optimum, exact incumbent
  re-evaluation, and exact validation of every collected dual-bound /
  Farkas certificate. Exits nonzero on any discrepancy. Accepts the
  solver-shaping SOLVE OPTIONS (--policy, --no-cuts, --gap, ...).

SOLVE OPTIONS:
  --strategy <s>     host | cpu-orchestrated | gpu-only | hybrid |
                     big-mip:<devices> | batched:<lanes> | firstorder:<lanes> |
                     cluster:<workers> | cluster:<ranks>x<fanout> | auto
                                              (default: cpu-orchestrated)
                     cluster:<ranks>x<fanout> groups the ranks under
                     sub-supervisors (<fanout> ranks each); the root
                     exchanges only aggregated summaries, incumbent
                     values, and deterministic work steals with them
                     batched:<lanes> evaluates up to <lanes> node LPs in a
                     lockstep wave on one device: one shared constraint
                     matrix, one fused kernel launch per class per step
                     (the width shrinks automatically if --gpu-mem is tight)
                     firstorder:<lanes> evaluates node LPs with restarted
                     PDHG lanes in lockstep against one shared CSR matrix:
                     three fused SpMV/axpy launches per superstep at any
                     width, safe dual bounds for early prunes, and exact
                     simplex cleanup of converged lanes before branching
  --gpu-mem <GiB>    device memory per GPU             (default: 1)
  --node-limit <n>   stop after n nodes                (default: 100000)
  --policy <p>       best | depth | breadth | reuse    (default: best)
  --pricing <r>      dantzig | devex — simplex entering-variable pricing
                     rule for all LP engines            (default: dantzig)
  --gap <frac>       accept a relative optimality gap (e.g. 0.01)
  --obj-limit <v>    stop at the first incumbent at least this good
  --no-cuts          disable root cutting planes
  --no-heur          disable primal heuristics
  --propagate        run iterated activity-based bound propagation on every
                     node before its LP (prop.* device kernels): infeasible
                     nodes settle without simplex/PDHG work, integer bounds
                     tighten. Works on every strategy including the wave
                     backends and cluster ranks
  --prop-rounds <n>  propagation fixpoint round cap      (default: 8;
                     cluster ranks always use 8: another value is an error)
  --heur-period <n>  run a fix-and-propagate dive every n nodes (waves: one
                     fused dive across the whole frontier); improving
                     feasible candidates become incumbents early (0 = off)
  --backend <b>      sim | native — who executes the fused lane kernels.
                     sim charges the cost model only; native additionally
                     runs them across host threads (RAYON_NUM_THREADS)
                     and reports real wall.* metrics. Simulated traces
                     and ns are bit-identical either way (default: sim)
  --presolve         presolve before solving
  --tree             print the solution tree (small instances)
  --stats            print the device/host cost ledger
  --trace <file>     write a Chrome trace-event JSON of the solve
                     (open at ui.perfetto.dev)
  --metrics          print the unified metrics summary table
  --faults <spec>    inject deterministic faults (cluster strategies only).
                     <spec> is a bare seed (\"7\") or key=value pairs:
                     seed=7,crashes=2,drop=0.02,delay=0.05,stragglers=1
                     hierarchy-only keys: sub-crash=<n>, root-slow=<f>,
                     kill-group=<g>, kill-group-at=<ns>
                     (see gmip-parallel chaos docs for all keys)

GENERATE OPTIONS:
  --out <file.mps>   output path                       (default: stdout)
  --seed <n>         RNG seed                          (default: 0)
  families and their parameters:
    knapsack <items>
    setcover <elements> <sets> <density>
    gap <agents> <tasks>
    ucommit <generators> <periods>
    netflow <nodes> <extra-arcs> <supply>
    binpack <items>
    facility <customers> <facilities> <open-cost>
";

/// Parsed option set shared by subcommands.
#[derive(Debug, Clone)]
pub struct Options {
    pub positional: Vec<String>,
    pub strategy: String,
    pub gpu_mem_gib: usize,
    pub node_limit: usize,
    pub policy: PolicyKind,
    pub pricing: PricingRule,
    pub cuts: bool,
    pub heuristics: bool,
    pub propagate: bool,
    pub prop_rounds: usize,
    pub heur_period: usize,
    pub backend: gmip_gpu::BackendKind,
    pub presolve: bool,
    pub gap: f64,
    pub obj_limit: Option<f64>,
    pub tree: bool,
    pub stats: bool,
    pub trace: Option<String>,
    pub metrics: bool,
    pub out: Option<String>,
    pub seed: u64,
    pub faults: Option<String>,
    pub jobs: usize,
    pub ranks: usize,
    pub tenants: usize,
    pub mean_gap_us: f64,
    pub dup: f64,
    pub perturb: f64,
    pub max_items: usize,
    pub verify_sample: usize,
    pub max_shed_rate: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            positional: Vec::new(),
            strategy: "cpu-orchestrated".into(),
            gpu_mem_gib: 1,
            node_limit: 100_000,
            policy: PolicyKind::BestFirst,
            pricing: PricingRule::Dantzig,
            cuts: true,
            heuristics: true,
            propagate: false,
            prop_rounds: DEFAULT_PROPAGATE_ROUNDS,
            heur_period: 0,
            backend: gmip_gpu::BackendKind::Sim,
            presolve: false,
            gap: 0.0,
            obj_limit: None,
            tree: false,
            stats: false,
            trace: None,
            metrics: false,
            out: None,
            seed: 0,
            faults: None,
            jobs: 200,
            ranks: 8,
            tenants: 3,
            mean_gap_us: 2000.0,
            dup: 0.15,
            perturb: 0.15,
            max_items: 14,
            verify_sample: 0,
            max_shed_rate: None,
        }
    }
}

/// Parses `args` (after the subcommand) into [`Options`].
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--strategy" => o.strategy = take("--strategy")?,
            "--gpu-mem" => {
                o.gpu_mem_gib = take("--gpu-mem")?
                    .parse()
                    .map_err(|_| "--gpu-mem must be an integer (GiB)".to_string())?
            }
            "--node-limit" => {
                o.node_limit = take("--node-limit")?
                    .parse()
                    .map_err(|_| "--node-limit must be an integer".to_string())?
            }
            "--policy" => {
                o.policy = match take("--policy")?.as_str() {
                    "best" => PolicyKind::BestFirst,
                    "depth" => PolicyKind::DepthFirst,
                    "breadth" => PolicyKind::BreadthFirst,
                    "reuse" => PolicyKind::ReuseAffinity,
                    other => return Err(format!("unknown policy `{other}`")),
                }
            }
            "--pricing" => {
                o.pricing = match take("--pricing")?.as_str() {
                    "dantzig" => PricingRule::Dantzig,
                    "devex" => PricingRule::Devex,
                    other => return Err(format!("unknown pricing rule `{other}`")),
                }
            }
            "--gap" => {
                o.gap = take("--gap")?
                    .parse()
                    .map_err(|_| "--gap must be a number".to_string())?
            }
            "--obj-limit" => {
                o.obj_limit = Some(
                    take("--obj-limit")?
                        .parse()
                        .map_err(|_| "--obj-limit must be a number".to_string())?,
                )
            }
            "--no-cuts" => o.cuts = false,
            "--no-heur" => o.heuristics = false,
            "--propagate" => o.propagate = true,
            "--prop-rounds" => {
                o.prop_rounds = take("--prop-rounds")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| "--prop-rounds must be an integer >= 1".to_string())?
            }
            "--heur-period" => {
                o.heur_period = take("--heur-period")?
                    .parse()
                    .map_err(|_| "--heur-period must be an integer (0 = off)".to_string())?
            }
            "--backend" => {
                let v = take("--backend")?;
                o.backend = gmip_gpu::BackendKind::parse(&v)
                    .ok_or_else(|| format!("--backend must be sim or native, got `{v}`"))?
            }
            "--presolve" => o.presolve = true,
            "--tree" => o.tree = true,
            "--stats" => o.stats = true,
            "--trace" => o.trace = Some(take("--trace")?),
            "--metrics" => o.metrics = true,
            "--faults" => o.faults = Some(take("--faults")?),
            "--jobs" => {
                o.jobs = take("--jobs")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| "--jobs must be an integer >= 1".to_string())?
            }
            "--ranks" => {
                o.ranks = take("--ranks")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| "--ranks must be an integer >= 1".to_string())?
            }
            "--tenants" => {
                o.tenants = take("--tenants")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| "--tenants must be an integer >= 1".to_string())?
            }
            "--mean-gap-us" => {
                o.mean_gap_us = take("--mean-gap-us")?
                    .parse()
                    .ok()
                    .filter(|&v: &f64| v > 0.0)
                    .ok_or_else(|| "--mean-gap-us must be a positive number".to_string())?
            }
            "--dup" => {
                o.dup = take("--dup")?
                    .parse()
                    .ok()
                    .filter(|&v: &f64| (0.0..=1.0).contains(&v))
                    .ok_or_else(|| "--dup must be a fraction in [0, 1]".to_string())?
            }
            "--perturb" => {
                o.perturb = take("--perturb")?
                    .parse()
                    .ok()
                    .filter(|&v: &f64| (0.0..=1.0).contains(&v))
                    .ok_or_else(|| "--perturb must be a fraction in [0, 1]".to_string())?
            }
            "--max-items" => {
                o.max_items = take("--max-items")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 3)
                    .ok_or_else(|| "--max-items must be an integer >= 3".to_string())?
            }
            "--verify-sample" => {
                o.verify_sample = take("--verify-sample")?
                    .parse()
                    .map_err(|_| "--verify-sample must be an integer".to_string())?
            }
            "--max-shed-rate" => {
                o.max_shed_rate = Some(
                    take("--max-shed-rate")?
                        .parse()
                        .ok()
                        .filter(|&v: &f64| (0.0..=1.0).contains(&v))
                        .ok_or_else(|| {
                            "--max-shed-rate must be a fraction in [0, 1]".to_string()
                        })?,
                )
            }
            "--out" => o.out = Some(take("--out")?),
            "--seed" => {
                o.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}` (see `gmip help`)"))
            }
            positional => o.positional.push(positional.to_string()),
        }
    }
    Ok(o)
}

fn mip_config(o: &Options) -> MipConfig {
    let mut cfg = MipConfig::default();
    cfg.node_limit = o.node_limit;
    cfg.policy = o.policy;
    cfg.lp.primal.pricing = o.pricing;
    cfg.cuts.enabled = o.cuts;
    cfg.heuristics.rounding = o.heuristics;
    cfg.propagate = o.propagate;
    cfg.propagate_rounds = o.prop_rounds;
    cfg.heuristics.fix_and_propagate_period = o.heur_period;
    cfg.gap_rel = o.gap;
    cfg.objective_limit = o.obj_limit;
    cfg
}

/// Runs a parsed command line; returns the text to print.
pub fn run(args: &[String]) -> Result<String, String> {
    match args[0].as_str() {
        "solve" => {
            let o = parse_options(&args[1..])?;
            let path = o.positional.first().ok_or("solve needs an MPS file path")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let instance = read_mps(&text).map_err(|e| format!("{e}"))?;
            solve(instance, &o)
        }
        "verify" => {
            let o = parse_options(&args[1..])?;
            let path = o
                .positional
                .first()
                .ok_or("verify needs an MPS file path")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let instance = read_mps(&text).map_err(|e| format!("{e}"))?;
            verify(instance, &o)
        }
        "serve" => {
            let o = parse_options(&args[1..])?;
            serve(&o)
        }
        "generate" => {
            let o = parse_options(&args[1..])?;
            let instance = generate(&o)?;
            let text = write_mps(&instance);
            match &o.out {
                Some(path) => {
                    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
                    Ok(format!(
                        "wrote {} ({} vars, {} cons) to {path}\n",
                        instance.name,
                        instance.num_vars(),
                        instance.num_cons()
                    ))
                }
                None => Ok(text),
            }
        }
        other => Err(format!("unknown command `{other}` (see `gmip help`)")),
    }
}

/// Builds an instance from the `generate` arguments.
pub fn generate(o: &Options) -> Result<MipInstance, String> {
    let p = &o.positional;
    let family = p.first().ok_or("generate needs a family name")?;
    // The generators assert their size arguments; out-of-range input is an
    // error here, not a panic there.
    let size = |i: usize, what: &str, min: usize| -> Result<usize, String> {
        let n: usize = p
            .get(i)
            .ok_or(format!("{family} needs {what}"))?
            .parse()
            .map_err(|_| format!("{what} must be an integer"))?;
        if n < min {
            return Err(format!("{what} must be at least {min}"));
        }
        Ok(n)
    };
    let num = |i: usize, what: &str| size(i, what, 1);
    let fnum = |i: usize, what: &str| -> Result<f64, String> {
        p.get(i)
            .ok_or(format!("{family} needs {what}"))?
            .parse()
            .map_err(|_| format!("{what} must be a number"))
    };
    Ok(match family.as_str() {
        "knapsack" => generators::knapsack(num(1, "<items>")?, 0.5, o.seed),
        "setcover" => {
            let (elements, sets) = (num(1, "<elements>")?, num(2, "<sets>")?);
            let density = fnum(3, "<density>")?;
            if !(density > 0.0 && density <= 1.0) {
                return Err("<density> must be in (0, 1]".into());
            }
            generators::set_cover(elements, sets, density, o.seed)
        }
        "gap" => {
            generators::generalized_assignment(num(1, "<agents>")?, num(2, "<tasks>")?, o.seed)
        }
        "ucommit" => {
            generators::unit_commitment(num(1, "<generators>")?, num(2, "<periods>")?, o.seed)
        }
        "netflow" => generators::fixed_charge_flow(
            size(1, "<nodes>", 2)?,
            size(2, "<extra-arcs>", 0)?,
            fnum(3, "<supply>")?,
            o.seed,
        ),
        "binpack" => generators::bin_packing(num(1, "<items>")?, 1.0, o.seed),
        "facility" => generators::facility_location(
            num(1, "<customers>")?,
            num(2, "<facilities>")?,
            fnum(3, "<open-cost>")?,
            o.seed,
        ),
        other => return Err(format!("unknown family `{other}` (see `gmip help`)")),
    })
}

/// Finishes the trace session (if one is active) and writes the Chrome
/// trace-event JSON to the `--trace` path, noting it in the report.
fn write_trace(
    session: Option<gmip_trace::TraceSession>,
    o: &Options,
    out: &mut String,
) -> Result<(), String> {
    if let (Some(session), Some(path)) = (session, &o.trace) {
        let trace = session.finish();
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!(
            "trace: {} events written to {path} (load at ui.perfetto.dev)\n",
            trace.len()
        ));
    }
    Ok(())
}

/// Solves with the float host path and certifies the result against the
/// exact rational oracle; errors on any discrepancy so the process exits
/// nonzero.
pub fn verify(instance: MipInstance, o: &Options) -> Result<String, String> {
    const TOL: f64 = 1e-5;
    instance.validate().map_err(|e| format!("{e}"))?;
    let mut out = String::new();
    out.push_str(&format!(
        "instance: {} ({} vars / {} integral, {} cons)\n",
        instance.name,
        instance.num_vars(),
        instance.num_integral(),
        instance.num_cons()
    ));

    let mut cfg = mip_config(o);
    cfg.collect_certificates = true;
    let mut solver = MipSolver::host_baseline(instance.clone(), cfg);
    let r = solver.solve().map_err(|e| format!("{e}"))?;

    let oracle = gmip_verify::solve_oracle(&instance).map_err(|e| format!("oracle: {e}"))?;
    let exact = oracle.objective.as_ref().map(gmip_verify::Rat::approx);
    out.push_str(&format!("float host:   {:?}", r.status));
    if !r.x.is_empty() {
        out.push_str(&format!(", objective {}", r.objective));
    }
    out.push_str(&format!("\nexact oracle: {:?}", oracle.status));
    if let Some(v) = exact {
        out.push_str(&format!(
            ", proven optimum {v} ({} exact B&B nodes)",
            oracle.nodes
        ));
    }
    out.push('\n');

    let status_ok = matches!(
        (r.status, oracle.status),
        (MipStatus::Optimal, gmip_verify::OracleStatus::Optimal)
            | (MipStatus::Infeasible, gmip_verify::OracleStatus::Infeasible)
            | (MipStatus::Unbounded, gmip_verify::OracleStatus::Unbounded)
    );
    if !status_ok {
        return Err(format!(
            "status mismatch: float host {:?} vs exact oracle {:?}",
            r.status, oracle.status
        ));
    }
    if let Some(want) = exact {
        if (r.objective - want).abs() > TOL * (1.0 + want.abs()) {
            return Err(format!(
                "objective mismatch: float host {} vs proven optimum {want}",
                r.objective
            ));
        }
        gmip_verify::check_incumbent(&instance, &r.x, r.objective, TOL)
            .map_err(|e| format!("incumbent check: {e}"))?;
        out.push_str("incumbent: exactly feasible, objective certified\n");
    }
    let certs = gmip_verify::check_certificates(&instance, &r.stats.certificates, TOL);
    if !certs.failures.is_empty() {
        return Err(format!(
            "{} of {} certificates invalid:\n  {}",
            certs.failures.len(),
            certs.checked,
            certs.failures.join("\n  ")
        ));
    }
    out.push_str(&format!(
        "certificates: {} checked ({} dual bounds, {} Farkas), all exactly valid\n",
        certs.checked, certs.dual_bounds, certs.farkas
    ));
    out.push_str("VERIFIED\n");
    Ok(out)
}

/// Replays a seeded traffic tape through the multi-tenant solve service
/// and reports the SLO summary; optionally audits served answers against
/// the exact oracle and gates on the shed rate.
pub fn serve(o: &Options) -> Result<String, String> {
    let chaos = o
        .faults
        .as_deref()
        .map(ChaosConfig::parse)
        .transpose()
        .map_err(|e| format!("--faults: {e}"))?;
    let tcfg = gmip_serve::TrafficConfig {
        jobs: o.jobs,
        seed: o.seed,
        mean_interarrival_ns: o.mean_gap_us * 1e3,
        tenants: o.tenants,
        max_items: o.max_items,
        dup_prob: o.dup,
        perturb_prob: o.perturb,
    };
    let (tenants, jobs) = gmip_serve::generate(&tcfg);
    let mut out = String::new();
    out.push_str(&format!(
        "traffic: {} jobs, {} tenants, seed {}, mean gap {:.0} µs{}\n",
        o.jobs,
        o.tenants,
        o.seed,
        o.mean_gap_us,
        if o.faults.is_some() {
            " (chaos overlay)"
        } else {
            ""
        }
    ));
    let session = o.trace.as_ref().map(|_| gmip_trace::TraceSession::start());
    let scfg = gmip_serve::ServeConfig {
        ranks: o.ranks,
        node_limit: o.node_limit,
        chaos,
        ..Default::default()
    };
    let report = gmip_serve::Service::new(scfg, tenants).run(jobs.clone());
    write_trace(session, o, &mut out)?;
    out.push_str(&report.summary());
    if o.verify_sample > 0 {
        let audited = gmip_serve::spot_check(&jobs, &report, o.verify_sample, o.seed)
            .map_err(|e| format!("oracle spot-check FAILED: {e}"))?;
        out.push_str(&format!(
            "oracle spot-check: {audited} served answers audited, all match\n"
        ));
    }
    if let Some(cap) = o.max_shed_rate {
        let rate = report.shed_rate();
        if rate > cap {
            return Err(format!(
                "shed rate {rate:.3} exceeds the --max-shed-rate bound {cap:.3}"
            ));
        }
        out.push_str(&format!(
            "shed rate: {rate:.3} (within the {cap:.3} bound)\n"
        ));
    }
    if o.metrics {
        out.push('\n');
        out.push_str(&gmip_trace::export::summary(&report.metrics));
    }
    Ok(out)
}

/// Maps a solution on the (possibly presolve-reduced) instance back to the
/// original variable space.
fn postsolve_map(
    instance: &MipInstance,
    pre: &Option<gmip_core::PresolveResult>,
    objective: f64,
    x: &[f64],
) -> (f64, Vec<f64>) {
    match (pre, x.is_empty()) {
        (_, true) => (objective, x.to_vec()),
        (Some(pre), false) => {
            let full = pre.postsolve(x);
            (instance.objective_value(&full), full)
        }
        (None, false) => (objective, x.to_vec()),
    }
}

/// A strategy's width suffix (`<n>` of `batched:<n>`, `cluster:<n>`, ...):
/// an integer >= 1, or `err`.
fn width(spec: &str, err: &str) -> Result<usize, String> {
    spec.parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
        .ok_or_else(|| err.to_string())
}

/// The report of a cluster solve, flat (`hier: None`) or hierarchical.
fn report_cluster(
    out: &mut String,
    o: &Options,
    status: MipStatus,
    (objective, x): (f64, &[f64]),
    stats: &ParallelStats,
    hier: Option<&HierStats>,
) {
    out.push_str(&format!("status: {status:?}\n"));
    if !x.is_empty() {
        out.push_str(&format!("objective: {objective}\n"));
    }
    out.push_str(&format!(
        "nodes: {}   lp iterations: {}   messages: {} ({} B)   makespan: {:.3} ms\n",
        stats.nodes,
        stats.lp_iterations,
        stats.messages,
        stats.message_bytes,
        stats.makespan_ns / 1e6
    ));
    if let Some(h) = hier {
        out.push_str(&format!(
            "hierarchy: {} groups x {}   root messages: {} ({} B)   \
             summaries: {}   steals: {} ({} subtrees, {} denied)\n",
            h.groups,
            h.fanout,
            h.root_messages,
            h.root_message_bytes,
            h.summaries,
            h.steals,
            h.stolen_subtrees,
            h.steal_denied
        ));
    }
    if o.faults.is_some() {
        let f = &stats.faults;
        // The group tier's three counters exist only under a hierarchy.
        let [sub_crashes, shipped, sub_respawned] = match hier {
            Some(_) => [
                format!(" {} sub-crashes,", f.sub_crashes),
                format!(" {} group subtrees shipped,", f.group_reassigned_subtrees),
                format!(" {} sub-respawned,", f.sub_respawns),
            ],
            None => Default::default(),
        };
        out.push_str(&format!(
            "faults: {} crashes,{sub_crashes} {} drops, {} delays, {} straggles   \
             recovery: {} reassigned,{shipped} {} respawned,{sub_respawned} {} ranks retired\n",
            f.crashes,
            f.drops,
            f.delays,
            f.straggles,
            f.reassignments,
            f.respawns,
            f.degraded_ranks
        ));
    }
    if o.metrics {
        out.push('\n');
        out.push_str(&gmip_trace::export::summary(&stats.metrics));
    }
}

/// The report of a lockstep-wave solve; `pdhg` adds the first-order wave's
/// counter line.
fn report_wave(
    out: &mut String,
    o: &Options,
    (objective, x): (f64, &[f64]),
    r: &WaveResult,
    pdhg: bool,
) {
    out.push_str(&format!("status: {:?}\n", r.status));
    if !x.is_empty() {
        out.push_str(&format!("objective: {objective}\n"));
    }
    out.push_str(&format!(
        "nodes: {}   wave width: {}   supersteps: {}   retires: {}   refills: {}\n",
        r.nodes, r.width, r.supersteps, r.retires, r.refills
    ));
    if pdhg {
        out.push_str(&format!(
            "pdhg: {} iterations, {} restarts, {} bound-pruned, {} cleanups\n",
            r.metrics.counter("fo.iterations"),
            r.metrics.counter("fo.restarts"),
            r.metrics.counter("fo.bound_pruned"),
            r.metrics.counter("fo.cleanups"),
        ));
    }
    out.push_str(&format!("makespan: {:.3} ms\n", r.makespan_ns / 1e6));
    if o.stats {
        let d = &r.device;
        out.push_str(&format!(
            "device: {} kernels, {} H2D ({} B), {} D2H ({} B), peak mem {} B\n",
            d.kernel_launches,
            d.h2d_transfers,
            d.h2d_bytes,
            d.d2h_transfers,
            d.d2h_bytes,
            r.peak_device_bytes
        ));
    }
    if o.metrics {
        out.push('\n');
        out.push_str(&gmip_trace::export::summary(&r.metrics));
    }
}

/// Solves an instance per the options; returns the formatted report.
pub fn solve(instance: MipInstance, o: &Options) -> Result<String, String> {
    instance.validate().map_err(|e| format!("{e}"))?;
    let mut out = String::new();
    out.push_str(&format!(
        "instance: {} ({} vars / {} integral, {} cons, density {:.3})\n",
        instance.name,
        instance.num_vars(),
        instance.num_integral(),
        instance.num_cons(),
        instance.density()
    ));

    // Optional presolve.
    let (work, pre) = if o.presolve {
        let pre = presolve(&instance, 5);
        if pre.infeasible {
            out.push_str("presolve: proven infeasible\n");
            return Ok(out);
        }
        out.push_str(&format!(
            "presolve: {} vars fixed, {} rows dropped, {} bounds tightened\n",
            pre.vars_fixed(),
            pre.rows_dropped,
            pre.bounds_tightened
        ));
        (pre.reduced.clone(), Some(pre))
    } else {
        (instance.clone(), None)
    };

    let cfg = mip_config(o);
    let gpu_mem = o.gpu_mem_gib << 30;
    // Start span recording before the solver is even constructed so device
    // warm-up (matrix upload, initial factorization) lands in the trace too.
    let session = o.trace.as_ref().map(|_| gmip_trace::TraceSession::start());

    // The cluster strategy goes through the discrete-event supervisor and
    // reports its own statistics shape, so it is handled apart from the
    // single-process MipResult paths below.
    if let Some(spec) = o.strategy.strip_prefix("cluster:") {
        // `cluster:<ranks>` is the flat star; `cluster:<ranks>x<fanout>`
        // groups the ranks under sub-supervisors of width <fanout>.
        let (ranks_spec, fanout) = match spec.split_once('x') {
            Some((r, f)) => {
                let fanout = width(
                    f,
                    "cluster fan-out needs a group width >= 1, e.g. cluster:64x8",
                )?;
                (r, Some(fanout))
            }
            None => (spec, None),
        };
        let workers = width(
            ranks_spec,
            "cluster needs a worker count >= 1, e.g. cluster:4",
        )?;
        if workers > MAX_RANKS {
            // Guard against absurd widths: the DES keeps O(ranks) state per
            // event round, so a typo like cluster:10000000 would exhaust
            // memory instead of producing a curve.
            return Err(format!(
                "cluster:{workers} exceeds the simulation ceiling of {MAX_RANKS} ranks"
            ));
        }
        if o.prop_rounds != DEFAULT_PROPAGATE_ROUNDS {
            return Err(format!(
                "--prop-rounds is not configurable on cluster:<workers>: \
                 ranks always cap propagation at {DEFAULT_PROPAGATE_ROUNDS} rounds"
            ));
        }
        let chaos = o
            .faults
            .as_deref()
            .map(ChaosConfig::parse)
            .transpose()
            .map_err(|e| format!("--faults: {e}"))?;
        let pcfg = ParallelConfig {
            workers,
            gpu_mem,
            node_limit: o.node_limit,
            chaos,
            propagate: o.propagate,
            heuristic_period: o.heur_period,
            backend: o.backend,
            ..Default::default()
        };
        let (r, hier) = match fanout {
            Some(fanout) => {
                let hcfg = HierarchyConfig {
                    fanout,
                    ..Default::default()
                };
                let r = solve_hierarchical(&work, pcfg, hcfg).map_err(|e| format!("{e}"))?;
                ((r.status, r.objective, r.x, r.stats), Some(r.hier))
            }
            None => {
                let r = solve_parallel(&work, pcfg).map_err(|e| format!("{e}"))?;
                ((r.status, r.objective, r.x, r.stats), None)
            }
        };
        write_trace(session, o, &mut out)?;
        let (status, objective, x, stats) = r;
        let (objective, x) = postsolve_map(&instance, &pre, objective, &x);
        report_cluster(&mut out, o, status, (objective, &x), &stats, hier.as_ref());
        return Ok(out);
    }
    if o.faults.is_some() {
        return Err("--faults requires the cluster:<workers> strategy".to_string());
    }

    // The two lockstep waves report wave-level statistics (supersteps,
    // retires, refills) that have no slot in MipResult, so they too are
    // handled apart: journaled simplex lanes, or restarted-PDHG lanes with
    // their PDHG-specific counters.
    let wave = if let Some(spec) = o.strategy.strip_prefix("batched:") {
        let wcfg = BatchedWaveConfig {
            lanes: width(spec, "batched needs a lane count >= 1, e.g. batched:8")?,
            lp: cfg.lp.clone(),
            node_limit: o.node_limit,
            propagate: o.propagate,
            propagate_rounds: o.prop_rounds,
            heuristic_period: o.heur_period,
            backend: o.backend,
            ..Default::default()
        };
        Some((
            solve_batched_wave(&work, &wcfg, Accel::gpu(o.gpu_mem_gib)),
            false,
        ))
    } else if let Some(spec) = o.strategy.strip_prefix("firstorder:") {
        let wcfg = FirstOrderWaveConfig {
            lanes: width(
                spec,
                "firstorder needs a lane count >= 1, e.g. firstorder:64",
            )?,
            node_limit: o.node_limit,
            propagate: o.propagate,
            propagate_rounds: o.prop_rounds,
            heuristic_period: o.heur_period,
            backend: o.backend,
            ..Default::default()
        };
        Some((
            solve_first_order_wave(&work, &wcfg, Accel::gpu(o.gpu_mem_gib)),
            true,
        ))
    } else {
        None
    };
    if let Some((r, pdhg)) = wave {
        let r = r.map_err(|e| format!("{e}"))?;
        write_trace(session, o, &mut out)?;
        let (objective, x) = postsolve_map(&instance, &pre, r.objective, &r.x);
        report_wave(&mut out, o, (objective, &x), &r, pdhg);
        return Ok(out);
    }

    let result: MipResult = match o.strategy.as_str() {
        "host" => {
            let mut s = MipSolver::host_baseline(work, cfg);
            s.solve().map_err(|e| format!("{e}"))?
        }
        "auto" => {
            let accel = Accel::gpu(o.gpu_mem_gib);
            let path = choose_path(&work, &CostModel::gpu_pcie());
            out.push_str(&format!("dispatch: {path:?}\n"));
            let (_, r) = solve_with_dispatch(work, cfg, accel).map_err(|e| format!("{e}"))?;
            r
        }
        name => {
            let strategy = match name {
                "cpu-orchestrated" => Strategy::CpuOrchestrated,
                "gpu-only" => Strategy::GpuOnly,
                "hybrid" => Strategy::Hybrid,
                s if s.starts_with("big-mip:") => Strategy::BigMip {
                    devices: width(
                        &s["big-mip:".len()..],
                        "big-mip needs a device count >= 1, e.g. big-mip:4",
                    )?,
                },
                other => return Err(format!("unknown strategy `{other}`")),
            };
            let p = plan(strategy, cfg, CostModel::gpu_pcie(), gpu_mem);
            let mut s = MipSolver::with_plan(work, p);
            s.solve().map_err(|e| format!("{e}"))?
        }
    };

    write_trace(session, o, &mut out)?;

    // Map back through presolve if needed.
    let (objective, x) = postsolve_map(&instance, &pre, result.objective, &result.x);

    out.push_str(&format!("status: {:?}\n", result.status));
    if !x.is_empty() {
        out.push_str(&format!("objective: {objective}\n"));
        let nonzero: Vec<String> = instance
            .vars
            .iter()
            .zip(&x)
            .filter(|(_, &v)| v.abs() > 1e-9)
            .take(25)
            .map(|(var, &v)| format!("{}={v}", var.name))
            .collect();
        out.push_str(&format!("solution (nonzeros): {}\n", nonzero.join(" ")));
    }
    out.push_str(&format!(
        "nodes: {}   lp iterations: {}   cuts: {}\n",
        result.stats.nodes, result.stats.lp_iterations, result.stats.cuts
    ));
    if o.stats {
        let d = &result.stats.device;
        out.push_str(&format!(
            "device: {} kernels, {} H2D ({} B), {} D2H ({} B), spills {}\n",
            d.kernel_launches,
            d.h2d_transfers,
            d.h2d_bytes,
            d.d2h_transfers,
            d.d2h_bytes,
            result.stats.gpu_spills
        ));
        out.push_str(&format!(
            "simulated time: {:.3} ms\n",
            result.stats.sim_time_ns / 1e6
        ));
    }
    if o.metrics {
        out.push('\n');
        out.push_str(&gmip_trace::export::summary(&result.stats.metrics));
    }
    if o.tree {
        out.push('\n');
        out.push_str(&render::render(&result.tree));
        out.push_str(render::LEGEND);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let o = parse_options(&s(&["file.mps"])).unwrap();
        assert_eq!(o.positional, vec!["file.mps"]);
        assert_eq!(o.strategy, "cpu-orchestrated");
        assert!(o.cuts);
        let o = parse_options(&s(&[
            "x.mps",
            "--strategy",
            "hybrid",
            "--no-cuts",
            "--policy",
            "reuse",
            "--node-limit",
            "42",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(o.strategy, "hybrid");
        assert!(!o.cuts);
        assert_eq!(o.policy, PolicyKind::ReuseAffinity);
        assert_eq!(o.node_limit, 42);
        assert!(o.stats);
    }

    #[test]
    fn parse_gap_and_obj_limit() {
        let o = parse_options(&s(&["x.mps", "--gap", "0.05", "--obj-limit", "12.5"])).unwrap();
        assert_eq!(o.gap, 0.05);
        assert_eq!(o.obj_limit, Some(12.5));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_options(&s(&["--bogus"])).is_err());
        assert!(parse_options(&s(&["--node-limit"])).is_err());
        assert!(parse_options(&s(&["--node-limit", "abc"])).is_err());
        assert!(parse_options(&s(&["--policy", "zigzag"])).is_err());
    }

    #[test]
    fn generate_families() {
        let mut o = Options::default();
        o.positional = s(&["knapsack", "8"]);
        let m = generate(&o).unwrap();
        assert_eq!(m.num_vars(), 8);
        o.positional = s(&["facility", "3", "2", "25"]);
        let m = generate(&o).unwrap();
        assert_eq!(m.num_vars(), 3 * 2 + 2);
        o.positional = s(&["unknown"]);
        assert!(generate(&o).is_err());
        o.positional = s(&["setcover", "5"]);
        assert!(generate(&o).is_err(), "missing parameters rejected");
        // Sizes and densities the generators would assert on are errors
        // naming the argument, not panics.
        for (args, what) in [
            (&["binpack", "0"][..], "<items>"),
            (&["knapsack", "0"], "<items>"),
            (&["gap", "0", "3"], "<agents>"),
            (&["ucommit", "0", "2"], "<generators>"),
            (&["netflow", "1", "0", "5"], "<nodes>"),
            (&["facility", "0", "2", "25"], "<customers>"),
            (&["setcover", "5", "0", "0.3"], "<sets>"),
            (&["setcover", "5", "5", "7"], "<density>"),
        ] {
            o.positional = s(args);
            let err = generate(&o).expect_err("out of range");
            assert!(err.contains(what), "{args:?}: {err}");
        }
    }

    #[test]
    fn end_to_end_generate_and_solve_roundtrip() {
        // generate → MPS text → read back → solve with several strategies.
        let mut o = Options::default();
        o.positional = s(&["knapsack", "10"]);
        o.seed = 3;
        let instance = generate(&o).unwrap();
        let text = write_mps(&instance);
        let back = read_mps(&text).unwrap();

        let mut host_opts = Options::default();
        host_opts.strategy = "host".into();
        host_opts.stats = true;
        let host_out = solve(back.clone(), &host_opts).unwrap();
        assert!(host_out.contains("status: Optimal"));

        let mut dev_opts = Options::default();
        dev_opts.strategy = "auto".into();
        let dev_out = solve(back.clone(), &dev_opts).unwrap();
        assert!(dev_out.contains("status: Optimal"));
        // Same objective line in both.
        let grab = |t: &str| {
            t.lines()
                .find(|l| l.starts_with("objective:"))
                .expect("objective line")
                .to_string()
        };
        assert_eq!(grab(&host_out), grab(&dev_out));
    }

    #[test]
    fn solve_with_presolve_and_tree() {
        let mut o = Options::default();
        o.strategy = "host".into();
        o.presolve = true;
        o.tree = true;
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert!(out.contains("presolve:"));
        assert!(out.contains("status: Optimal"));
        assert!(out.contains("objective: 14"));
        assert!(out.contains("root"));
    }

    #[test]
    fn solve_with_cluster_strategy() {
        let mut o = Options::default();
        o.strategy = "cluster:2".into();
        o.metrics = true;
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("makespan:"), "{out}");
        assert!(out.contains("cluster.messages"), "{out}");
        let mut bad = Options::default();
        bad.strategy = "cluster:x".into();
        assert!(solve(gmip_problems::catalog::figure1_knapsack(), &bad).is_err());
    }

    #[test]
    fn solve_cluster_with_faults() {
        let mut o = Options::default();
        o.strategy = "cluster:3".into();
        o.faults = Some("seed=5,crashes=2,drop=0.1".into());
        o.metrics = true;
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("recovery:"), "{out}");
        assert!(out.contains("fault.drops"), "metrics glossary rows:\n{out}");
        // Bad spec is a parse error, not a panic.
        let mut bad = Options::default();
        bad.strategy = "cluster:2".into();
        bad.faults = Some("drop=2.5".into());
        assert!(solve(gmip_problems::catalog::figure1_knapsack(), &bad).is_err());
        // --faults outside the cluster strategy is rejected.
        let mut wrong = Options::default();
        wrong.strategy = "host".into();
        wrong.faults = Some("7".into());
        let err = solve(gmip_problems::catalog::figure1_knapsack(), &wrong).unwrap_err();
        assert!(err.contains("cluster"), "{err}");
    }

    #[test]
    fn prop_rounds_on_a_cluster_is_rejected_not_dropped() {
        // A rank's round cap is a constant: a value the solve would ignore
        // must come back as Err, flat or hierarchical, the way `--faults`
        // does outside `cluster:`. The default itself passes.
        let m = gmip_problems::catalog::figure1_knapsack;
        for strategy in ["cluster:3", "cluster:4x2"] {
            let mut o = Options::default();
            o.strategy = strategy.into();
            o.propagate = true;
            assert!(solve(m(), &o).unwrap().contains("status: Optimal"));
            o.prop_rounds = 3;
            let err = solve(m(), &o).unwrap_err();
            assert!(err.contains("--prop-rounds"), "{strategy}: {err}");
        }
    }

    #[test]
    fn solve_with_hierarchical_cluster_strategy() {
        let mut o = Options::default();
        o.strategy = "cluster:8x2".into();
        o.metrics = true;
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("objective: 14"), "{out}");
        assert!(out.contains("hierarchy: 4 groups x 2"), "{out}");
        assert!(out.contains("root messages:"), "{out}");
        assert!(out.contains("hier.root.messages"), "{out}");
        // Same topology, same bytes.
        let again = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert_eq!(out, again, "hierarchical solve must be deterministic");
    }

    #[test]
    fn solve_hierarchical_with_faults() {
        let mut o = Options::default();
        o.strategy = "cluster:8x2".into();
        o.faults = Some("seed=5,sub-crash=1,root-slow=4,horizon=2e5".into());
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("sub-crashes"), "{out}");
        assert!(out.contains("group subtrees shipped"), "{out}");
    }

    #[test]
    fn absurd_cluster_widths_are_rejected_before_the_des() {
        // Satellite regression: `cluster:` parsing used to accept widths
        // that OOM the discrete-event simulation; anything past MAX_RANKS
        // must now fail fast with a clean error.
        let m = gmip_problems::catalog::figure1_knapsack;
        for bad in [
            "cluster:1000000",
            "cluster:4097",
            "cluster:1000000x8",
            "cluster:8x0",
            "cluster:8x",
            "cluster:0x8",
            "cluster:x8",
        ] {
            let mut o = Options::default();
            o.strategy = bad.into();
            let err = solve(m(), &o).unwrap_err();
            assert!(
                err.contains(">= 1") || err.contains("ceiling"),
                "strategy {bad}: got `{err}`"
            );
        }
        // The ceiling itself is inclusive: E10's largest cell must stay
        // legal, so cluster:1024x32 has to make it past the guard.
        let o = parse_options(&s(&["x.mps", "--strategy", "cluster:1024x32"])).unwrap();
        assert_eq!(o.strategy, "cluster:1024x32");
    }

    #[test]
    fn parse_propagation_flags() {
        let o = parse_options(&s(&["x.mps"])).unwrap();
        assert!(!o.propagate, "propagation is opt-in");
        assert_eq!(o.prop_rounds, 8);
        assert_eq!(o.heur_period, 0, "fix-and-propagate is opt-in");
        let o = parse_options(&s(&[
            "x.mps",
            "--propagate",
            "--prop-rounds",
            "4",
            "--heur-period",
            "3",
        ]))
        .unwrap();
        assert!(o.propagate);
        assert_eq!(o.prop_rounds, 4);
        assert_eq!(o.heur_period, 3);
        assert!(parse_options(&s(&["--prop-rounds", "0"])).is_err());
        assert!(parse_options(&s(&["--heur-period", "x"])).is_err());
    }

    #[test]
    fn solve_with_propagation_across_strategies() {
        // The same instance, the same proven optimum, with propagation and
        // the fix-and-propagate dive enabled on every backend family.
        for strategy in [
            "host",
            "cpu-orchestrated",
            "batched:4",
            "firstorder:4",
            "cluster:2",
        ] {
            let mut o = Options::default();
            o.strategy = strategy.into();
            o.propagate = true;
            o.heur_period = 2;
            o.metrics = true;
            let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
            assert!(out.contains("status: Optimal"), "{strategy}:\n{out}");
            assert!(out.contains("objective: 14"), "{strategy}:\n{out}");
            assert!(out.contains("prop.nodes"), "{strategy}:\n{out}");
            // Deterministic: a rerun produces byte-identical output.
            assert_eq!(
                out,
                solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap()
            );
        }
    }

    #[test]
    fn parse_pricing_flag() {
        let o = parse_options(&s(&["x.mps", "--pricing", "devex"])).unwrap();
        assert_eq!(o.pricing, PricingRule::Devex);
        let o = parse_options(&s(&["x.mps", "--pricing", "dantzig"])).unwrap();
        assert_eq!(o.pricing, PricingRule::Dantzig);
        assert!(parse_options(&s(&["x.mps", "--pricing", "steepest"])).is_err());
    }

    #[test]
    fn solve_with_batched_strategy() {
        let mut o = Options::default();
        o.strategy = "batched:4".into();
        o.stats = true;
        o.metrics = true;
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("objective: 14"), "{out}");
        assert!(out.contains("wave width:"), "{out}");
        assert!(out.contains("wave.fused_launches"), "{out}");
        // Devex pricing runs the same strategy to the same answer.
        let mut dv = Options::default();
        dv.strategy = "batched:4".into();
        dv.pricing = PricingRule::Devex;
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &dv).unwrap();
        assert!(out.contains("objective: 14"), "{out}");
        // Bad lane counts are parse errors.
        let mut bad = Options::default();
        bad.strategy = "batched:0".into();
        assert!(solve(gmip_problems::catalog::figure1_knapsack(), &bad).is_err());
        bad.strategy = "batched:x".into();
        assert!(solve(gmip_problems::catalog::figure1_knapsack(), &bad).is_err());
    }

    #[test]
    fn solve_with_firstorder_strategy() {
        let mut o = Options::default();
        o.strategy = "firstorder:4".into();
        o.stats = true;
        o.metrics = true;
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("objective: 14"), "{out}");
        assert!(out.contains("wave width:"), "{out}");
        assert!(out.contains("pdhg:"), "{out}");
        assert!(out.contains("fo.fused_launches"), "{out}");
        // Deterministic: a rerun produces byte-identical output.
        let again = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert_eq!(out, again, "firstorder output must replay byte-identically");
    }

    #[test]
    fn backend_flag_parses_and_native_output_matches_sim() {
        let o = parse_options(&s(&["x.mps", "--backend", "native"])).unwrap();
        assert_eq!(o.backend, gmip_gpu::BackendKind::Native { threads: 0 });
        assert!(parse_options(&s(&["x.mps", "--backend", "cuda"])).is_err());
        assert!(parse_options(&s(&["x.mps", "--backend"])).is_err());

        // The native backend's report must match sim byte-for-byte once
        // the (real, run-dependent) wall.* lines are filtered out.
        let run = |backend| {
            let mut o = Options::default();
            o.strategy = "firstorder:4".into();
            o.propagate = true;
            o.metrics = true;
            o.backend = backend;
            let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
            out.lines()
                .filter(|l| !l.contains("wall."))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let sim = run(gmip_gpu::BackendKind::Sim);
        assert!(sim.contains("status: Optimal"), "{sim}");
        assert_eq!(run(gmip_gpu::BackendKind::Native { threads: 2 }), sim);
    }

    #[test]
    fn zero_or_garbage_strategy_widths_error_cleanly() {
        // Satellite: `cluster:0`, `batched:0`, `firstorder:0`, `big-mip:0`
        // and unparsable widths must come back as Err (the binary maps Err
        // to a nonzero exit), never as a panic.
        let m = gmip_problems::catalog::figure1_knapsack;
        for bad in [
            "cluster:0",
            "cluster:x",
            "cluster:",
            "batched:0",
            "batched:-1",
            "batched:",
            "firstorder:0",
            "firstorder:-1",
            "firstorder:",
            "firstorder:x",
            "big-mip:0",
            "big-mip:x",
            "big-mip:",
        ] {
            let mut o = Options::default();
            o.strategy = bad.into();
            let err = solve(m(), &o).unwrap_err();
            assert!(err.contains(">= 1"), "strategy {bad}: got `{err}`");
        }
    }

    #[test]
    fn serve_subcommand_runs_and_reports() {
        let mut o = Options::default();
        o.jobs = 30;
        o.seed = 9;
        o.ranks = 4;
        o.max_items = 9;
        o.verify_sample = 5;
        o.max_shed_rate = Some(0.5);
        o.metrics = true;
        let out = serve(&o).unwrap();
        assert!(out.contains("jobs submitted     30"), "{out}");
        assert!(out.contains("latency p50/p99"), "{out}");
        assert!(out.contains("oracle spot-check:"), "{out}");
        assert!(out.contains("serve.jobs.completed"), "{out}");
        // Same seed → byte-identical report.
        assert_eq!(out, serve(&o).unwrap());
    }

    #[test]
    fn serve_with_chaos_overlay_still_answers_correctly() {
        let mut o = Options::default();
        o.jobs = 20;
        o.seed = 4;
        o.ranks = 4;
        o.max_items = 8;
        o.faults = Some("seed=3,crashes=1,drop=0.05".into());
        o.verify_sample = 5;
        let out = serve(&o).unwrap();
        assert!(out.contains("chaos overlay"), "{out}");
        assert!(out.contains("all match"), "{out}");
    }

    #[test]
    fn parse_serve_flags() {
        let o = parse_options(&s(&[
            "--jobs",
            "50",
            "--ranks",
            "6",
            "--tenants",
            "2",
            "--dup",
            "0.2",
            "--verify-sample",
            "10",
            "--max-shed-rate",
            "0.25",
        ]))
        .unwrap();
        assert_eq!(o.jobs, 50);
        assert_eq!(o.ranks, 6);
        assert_eq!(o.tenants, 2);
        assert_eq!(o.dup, 0.2);
        assert_eq!(o.verify_sample, 10);
        assert_eq!(o.max_shed_rate, Some(0.25));
        assert!(parse_options(&s(&["--jobs", "0"])).is_err());
        assert!(parse_options(&s(&["--ranks", "x"])).is_err());
        assert!(parse_options(&s(&["--dup", "1.5"])).is_err());
        assert!(parse_options(&s(&["--max-shed-rate", "-0.1"])).is_err());
    }

    #[test]
    fn parse_faults_flag() {
        let o = parse_options(&s(&["x.mps", "--faults", "42"])).unwrap();
        assert_eq!(o.faults.as_deref(), Some("42"));
        assert!(parse_options(&s(&["--faults"])).is_err());
    }

    #[test]
    fn solve_with_trace_and_metrics() {
        let path = std::env::temp_dir().join("gmip_cli_trace_test.json");
        let mut o = Options::default();
        o.strategy = "auto".into();
        o.trace = Some(path.to_string_lossy().into_owned());
        o.metrics = true;
        let out = solve(gmip_problems::catalog::figure1_knapsack(), &o).unwrap();
        assert!(out.contains("trace:"), "trace line missing:\n{out}");
        assert!(
            out.contains("lp.simplex.iterations"),
            "summary missing:\n{out}"
        );
        assert!(out.contains("gpu.h2d.bytes"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"node\""), "solver node spans missing");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_dispatches_and_reports_errors() {
        assert!(run(&s(&["bogus"])).is_err());
        assert!(run(&s(&["solve"])).is_err());
        assert!(run(&s(&["solve", "/nonexistent/x.mps"])).is_err());
        // generate to stdout.
        let out = run(&s(&["generate", "knapsack", "5"])).unwrap();
        assert!(out.contains("NAME"));
        assert!(out.contains("ENDATA"));
    }
}
