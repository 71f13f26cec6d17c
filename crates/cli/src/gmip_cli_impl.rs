//! Implementation of the `gmip` CLI: argument parsing, the `solve`,
//! `verify`, `serve` and `generate` subcommands, and result formatting.
//! `--strategy` names a row of the solve-path table
//! ([`gmip_parallel::paths`]), which builds and runs it.

use gmip_core::{presolve, MipResult, PolicyKind, Strategy, WaveResult};
use gmip_lp::PricingRule;
use gmip_parallel::{
    ChaosConfig, HierStats, ParallelStats, SolveOptions, SolvePath, Solved, ThreadedResult,
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
  the same --seed reproduces every answer and trace byte. Every job runs
  on cluster:<leased ranks>, so --strategy is an error, and so is any
  SOLVE OPTION the cluster does not read (--policy, --gap, --obj-limit,
  --no-cuts, --no-heur, --prop-rounds, --backend). Accepts --seed,
  --trace, --metrics, the cluster's --node-limit, --gpu-mem, --pricing,
  --propagate, --heur-period and --faults, plus:
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
  solve along --strategy (default: host), then certify the result against
  the gmip-verify exact rational oracle: the proven optimum, exact
  incumbent re-evaluation, and exact validation of every dual-bound /
  Farkas certificate the branch-and-cut strategies record. Exits nonzero
  on any discrepancy. Accepts the solver-shaping SOLVE OPTIONS (--policy,
  --no-cuts, --gap, ...).

SOLVE OPTIONS:
  --strategy <s>     host | cpu-orchestrated | gpu-only | hybrid |
                     big-mip:<devices> | auto | batched:<lanes> |
                     per-lane:<lanes> | firstorder:<lanes> |
                     cluster:<workers> | cluster:<ranks>x<fanout> |
                     threaded:<workers>       (default: cpu-orchestrated)
                     an option the strategy does not read is an error
                     cluster:<ranks>x<fanout> groups the ranks under
                     sub-supervisors (<fanout> ranks each); the root
                     exchanges only aggregated summaries, incumbent
                     values, and deterministic work steals with them
                     batched:<lanes> evaluates up to <lanes> node LPs in a
                     wave on one device: one shared constraint matrix, one
                     fused kernel launch per step, of the class the most
                     lanes wait on (the width shrinks automatically if
                     --gpu-mem is tight)
                     per-lane:<lanes> keeps one device engine, with its own
                     matrix copy, per stream and joins every superstep:
                     the baseline both waves are measured against
                     firstorder:<lanes> evaluates node LPs with restarted
                     PDHG lanes in lockstep against one shared CSR matrix:
                     three fused SpMV/axpy launches per superstep at any
                     width, safe dual bounds for early prunes, and exact
                     simplex cleanup of converged lanes before branching
                     threaded:<workers> runs the cluster's ranks on OS
                     threads: the same answers, run-dependent paths and
                     wall time
  --gpu-mem <GiB>    device memory per GPU             (default: 1)
  --node-limit <n>   stop after n nodes                (default: 100000)
  --policy <p>       best | depth | breadth | reuse    (default: best)
  --pricing <r>      dantzig | devex — simplex entering-variable pricing
                     rule (not firstorder:, whose cleanup is fixed)
                                                        (default: dantzig)
  --gap <frac>       accept a relative optimality gap (e.g. 0.01)
  --obj-limit <v>    stop at the first incumbent at least this good
  --no-cuts          disable root cutting planes
  --no-heur          disable primal heuristics
  --propagate        run iterated activity-based bound propagation on every
                     node before its LP (prop.* device kernels): infeasible
                     nodes settle without simplex/PDHG work, integer bounds
                     tighten. Works on every strategy but per-lane:,
                     including the wave backends and cluster ranks
  --prop-rounds <n>  propagation fixpoint round cap      (default: 8;
                     cluster and threaded ranks always use 8)
  --heur-period <n>  run a fix-and-propagate dive every n nodes (waves: one
                     fused dive across the whole frontier); improving
                     feasible candidates become incumbents early (0 = off)
  --backend <b>      sim | native — who executes the fused lane kernels
                     of batched: and firstorder: (a cluster rank's are
                     one lane wide and run on its own thread). sim
                     charges the cost model only; native additionally
                     runs them across host threads (RAYON_NUM_THREADS)
                     and reports real wall.* metrics. Simulated traces
                     and ns are bit-identical either way (default: sim)
  --presolve         presolve before solving
  --tree             print the solution tree (small instances)
  --stats            print the device/host cost ledger
  --trace <file>     write a Chrome trace-event JSON of the solve
                     (open at ui.perfetto.dev)
  --metrics          print the unified metrics summary table
  --faults <spec>    inject deterministic faults (cluster: and threaded:).
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
    /// `--strategy`; `solve` defaults to cpu-orchestrated, `verify` to host.
    pub strategy: Option<SolvePath>,
    /// The solver knobs every strategy is built from.
    pub solve: SolveOptions,
    pub presolve: bool,
    pub tree: bool,
    pub stats: bool,
    pub trace: Option<String>,
    pub metrics: bool,
    pub out: Option<String>,
    pub seed: u64,
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
            strategy: None,
            solve: SolveOptions::default(),
            presolve: false,
            tree: false,
            stats: false,
            trace: None,
            metrics: false,
            out: None,
            seed: 0,
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

/// The value after `flag`, parsed and accepted by `ok`; else an error that
/// says what it must be.
fn num<T: std::str::FromStr>(
    value: Result<String, String>,
    flag: &str,
    ok: impl Fn(&T) -> bool,
    must: &str,
) -> Result<T, String> {
    value?
        .parse()
        .ok()
        .filter(|v| ok(v))
        .ok_or_else(|| format!("{flag} must be {must}"))
}

/// Accepts every value of its type.
fn any<T>(_: &T) -> bool {
    true
}

/// Largest `--gpu-mem`, GiB (1 PiB): its byte count fits any 64-bit `usize`.
const MAX_GPU_MEM_GIB: usize = 1 << 20;

/// Parses `args` (after the subcommand) into [`Options`].
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter().peekable();
    let positive = |n: &usize| *n >= 1;
    let fraction = |v: &f64| (0.0..=1.0).contains(v);
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let (m, a) = (&mut o.solve.mip, a.as_str());
        match a {
            "--strategy" => o.strategy = Some(take(a)?.parse()?),
            "--gpu-mem" => {
                let range = |g: &usize| (1..=MAX_GPU_MEM_GIB).contains(g);
                let must = format!("an integer from 1 to {MAX_GPU_MEM_GIB} (GiB)");
                o.solve.gpu_mem = num(take(a), a, range, &must)? << 30
            }
            "--node-limit" => m.node_limit = num(take(a), a, any, "an integer")?,
            "--policy" => {
                m.policy = match take(a)?.as_str() {
                    "best" => PolicyKind::BestFirst,
                    "depth" => PolicyKind::DepthFirst,
                    "breadth" => PolicyKind::BreadthFirst,
                    "reuse" => PolicyKind::ReuseAffinity,
                    other => return Err(format!("unknown policy `{other}`")),
                }
            }
            "--pricing" => {
                m.lp.primal.pricing = match take(a)?.as_str() {
                    "dantzig" => PricingRule::Dantzig,
                    "devex" => PricingRule::Devex,
                    other => return Err(format!("unknown pricing rule `{other}`")),
                }
            }
            "--gap" => {
                let ok = |v: &f64| v.is_finite() && *v >= 0.0;
                m.gap_rel = num(take(a), a, ok, "a finite number >= 0")?
            }
            "--obj-limit" => {
                let ok = |v: &f64| v.is_finite();
                m.objective_limit = Some(num(take(a), a, ok, "a finite number")?)
            }
            "--no-cuts" => m.cuts.enabled = false,
            "--no-heur" => m.heuristics.rounding = false,
            "--propagate" => m.propagate = true,
            "--prop-rounds" => m.propagate_rounds = num(take(a), a, positive, "an integer >= 1")?,
            "--heur-period" => {
                m.heuristics.fix_and_propagate_period =
                    num(take(a), a, any, "an integer (0 = off)")?
            }
            "--backend" => {
                let v = take(a)?;
                o.solve.backend = gmip_gpu::BackendKind::parse(&v)
                    .ok_or_else(|| format!("--backend must be sim or native, got `{v}`"))?
            }
            "--presolve" => o.presolve = true,
            "--tree" => o.tree = true,
            "--stats" => o.stats = true,
            "--trace" => o.trace = Some(take(a)?),
            "--metrics" => o.metrics = true,
            "--faults" => {
                let spec = take(a)?;
                o.solve.chaos =
                    Some(ChaosConfig::parse(&spec).map_err(|e| format!("--faults: {e}"))?)
            }
            "--jobs" => o.jobs = num(take(a), a, positive, "an integer >= 1")?,
            "--ranks" => o.ranks = num(take(a), a, positive, "an integer >= 1")?,
            "--tenants" => o.tenants = num(take(a), a, positive, "an integer >= 1")?,
            "--mean-gap-us" => {
                o.mean_gap_us = num(
                    take(a),
                    a,
                    |v: &f64| v.is_finite() && *v > 0.0,
                    "a positive number",
                )?
            }
            "--dup" => o.dup = num(take(a), a, fraction, "a fraction in [0, 1]")?,
            "--perturb" => o.perturb = num(take(a), a, fraction, "a fraction in [0, 1]")?,
            "--max-items" => o.max_items = num(take(a), a, |n| *n >= 3, "an integer >= 3")?,
            "--verify-sample" => o.verify_sample = num(take(a), a, any, "an integer")?,
            "--max-shed-rate" => {
                o.max_shed_rate = Some(num(take(a), a, fraction, "a fraction in [0, 1]")?)
            }
            "--out" => o.out = Some(take(a)?),
            "--seed" => o.seed = num(take(a), a, any, "an integer")?,
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}` (see `gmip help`)"))
            }
            positional => o.positional.push(positional.to_string()),
        }
    }
    Ok(o)
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

/// Solves along `--strategy` (default: the host path) and certifies the
/// result against the exact rational oracle; errors on any discrepancy so
/// the process exits nonzero.
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

    let path = o.strategy.unwrap_or(SolvePath::Host);
    let mut opts = o.solve.clone();
    opts.mip.collect_certificates = true;
    let solved = path.run(&instance, &opts)?;
    let claim = gmip_verify::StrategyOutput::from(&solved);

    let oracle = gmip_verify::solve_oracle(&instance).map_err(|e| format!("oracle: {e}"))?;
    let exact = oracle.objective.as_ref().map(gmip_verify::Rat::approx);
    out.push_str(&format!(
        "{:<13} {:?}",
        format!("float {path}:"),
        claim.status
    ));
    if !claim.x.is_empty() {
        out.push_str(&format!(", objective {}", claim.objective));
    }
    out.push_str(&format!("\nexact oracle: {:?}", oracle.status));
    if let Some(v) = exact {
        out.push_str(&format!(
            ", proven optimum {v} ({} exact B&B nodes)",
            oracle.nodes
        ));
    }
    out.push('\n');

    if let Some(detail) = gmip_verify::disagreement(&instance, &oracle, &claim, TOL) {
        return Err(format!("{path} disagrees with the exact oracle: {detail}"));
    }
    if exact.is_some() && !claim.x.is_empty() {
        out.push_str("incumbent: exactly feasible, objective certified\n");
    }
    match &solved {
        Solved::Mip(r) | Solved::Auto(_, r) => {
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
        }
        _ => out.push_str("certificates: none (only branch-and-cut strategies record them)\n"),
    }
    out.push_str("VERIFIED\n");
    Ok(out)
}

/// Replays a seeded traffic tape through the multi-tenant solve service
/// and reports the SLO summary; optionally audits served answers against
/// the exact oracle and gates on the shed rate.
pub fn serve(o: &Options) -> Result<String, String> {
    if let Some(path) = o.strategy {
        return Err(format!(
            "--strategy {path}: serve runs every job on cluster:<leased ranks>"
        ));
    }
    gmip_serve::check_options(o.ranks, &o.solve)?;
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
        if o.solve.chaos.is_some() {
            " (chaos overlay)"
        } else {
            ""
        }
    ));
    let session = o.trace.as_ref().map(|_| gmip_trace::TraceSession::start());
    let scfg = gmip_serve::ServeConfig {
        ranks: o.ranks,
        solve: o.solve.clone(),
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

/// The counters of a branch-and-cut solve, its point and its tree.
fn report_mip(out: &mut String, o: &Options, instance: &MipInstance, x: &[f64], r: &MipResult) {
    if !x.is_empty() {
        let nonzero: Vec<String> = instance
            .vars
            .iter()
            .zip(x)
            .filter(|(_, &v)| v.abs() > 1e-9)
            .take(25)
            .map(|(var, &v)| format!("{}={v}", var.name))
            .collect();
        out.push_str(&format!("solution (nonzeros): {}\n", nonzero.join(" ")));
    }
    out.push_str(&format!(
        "nodes: {}   lp iterations: {}   cuts: {}\n",
        r.stats.nodes, r.stats.lp_iterations, r.stats.cuts
    ));
    if o.stats {
        let d = &r.stats.device;
        out.push_str(&format!(
            "device: {} kernels, {} H2D ({} B), {} D2H ({} B), spills {}\n",
            d.kernel_launches,
            d.h2d_transfers,
            d.h2d_bytes,
            d.d2h_transfers,
            d.d2h_bytes,
            r.stats.gpu_spills
        ));
        out.push_str(&format!(
            "simulated time: {:.3} ms\n",
            r.stats.sim_time_ns / 1e6
        ));
    }
    if o.metrics {
        out.push('\n');
        out.push_str(&gmip_trace::export::summary(&r.stats.metrics));
    }
    if o.tree {
        out.push('\n');
        out.push_str(&render::render(&r.tree));
        out.push_str(render::LEGEND);
        out.push('\n');
    }
}

/// The counters of a cluster solve, flat (`hier: None`) or hierarchical.
fn report_cluster(out: &mut String, o: &Options, stats: &ParallelStats, hier: Option<&HierStats>) {
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
    if o.solve.chaos.is_some() {
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

/// The counters of a lockstep-wave solve; `pdhg` adds the first-order
/// wave's counter line.
fn report_wave(out: &mut String, o: &Options, r: &WaveResult, pdhg: bool) {
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

/// The counters of a threaded solve: real time, so they vary run to run.
fn report_threaded(out: &mut String, o: &Options, r: &ThreadedResult) {
    out.push_str(&format!("nodes: {}   wall: {:.3} ms\n", r.nodes, r.wall_ms));
    if o.solve.chaos.is_some() {
        out.push_str(&format!(
            "recovery: {} reassigned, {} respawned\n",
            r.reassignments, r.respawns
        ));
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

    let path = o
        .strategy
        .unwrap_or(SolvePath::Plan(Strategy::CpuOrchestrated));
    // Start span recording before the solver is even constructed so device
    // warm-up (matrix upload, initial factorization) lands in the trace too.
    let session = o.trace.as_ref().map(|_| gmip_trace::TraceSession::start());
    let solved = path.run(&work, &o.solve)?;
    if let Solved::Auto(dispatch, _) = &solved {
        out.push_str(&format!("dispatch: {dispatch:?}\n"));
    }
    write_trace(session, o, &mut out)?;

    // Map a point on the presolve-reduced instance back to the original.
    let (objective, x) = match (&pre, solved.x()) {
        (Some(pre), x) if !x.is_empty() => {
            let full = pre.postsolve(x);
            (instance.objective_value(&full), full)
        }
        (_, x) => (solved.objective(), x.to_vec()),
    };
    out.push_str(&format!("status: {:?}\n", solved.status()));
    if !x.is_empty() {
        out.push_str(&format!("objective: {objective}\n"));
    }
    match &solved {
        Solved::Mip(r) | Solved::Auto(_, r) => report_mip(&mut out, o, &instance, &x, r),
        Solved::Wave(r) => report_wave(&mut out, o, r, matches!(path, SolvePath::FirstOrder(_))),
        Solved::Cluster(r) => report_cluster(&mut out, o, &r.stats, None),
        Solved::Hier(r) => report_cluster(&mut out, o, &r.stats, Some(&r.hier)),
        Solved::Threaded(r) => report_threaded(&mut out, o, r),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The options a command line parses to.
    fn opts(args: &[&str]) -> Options {
        parse_options(&s(args)).unwrap()
    }

    fn fig1() -> MipInstance {
        gmip_problems::catalog::figure1_knapsack()
    }

    const KNAPSACK15: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/knapsack15.mps");

    #[test]
    fn parse_defaults_and_flags() {
        let o = opts(&["file.mps"]);
        assert_eq!(o.positional, vec!["file.mps"]);
        assert_eq!(o.strategy, None, "each subcommand picks its own default");
        assert!(o.solve.mip.cuts.enabled);
        let o = opts(&[
            "x.mps",
            "--strategy",
            "hybrid",
            "--no-cuts",
            "--policy",
            "reuse",
            "--node-limit",
            "42",
            "--gpu-mem",
            "2",
            "--stats",
        ]);
        assert_eq!(o.strategy, Some(SolvePath::Plan(Strategy::Hybrid)));
        assert!(!o.solve.mip.cuts.enabled);
        assert_eq!(o.solve.mip.policy, PolicyKind::ReuseAffinity);
        assert_eq!(o.solve.mip.node_limit, 42);
        assert_eq!(o.solve.gpu_mem, 2 << 30);
        assert!(o.stats);
    }

    /// `--gpu-mem` is GiB shifted into bytes: a value whose byte count
    /// wraps would silently size a different device.
    #[test]
    fn gpu_mem_is_range_checked() {
        for bad in ["0", "17179869184", "17179869185", "1048577"] {
            let err = parse_options(&s(&["--gpu-mem", bad])).unwrap_err();
            assert_eq!(err, "--gpu-mem must be an integer from 1 to 1048576 (GiB)");
        }
        assert_eq!(opts(&["--gpu-mem", "1048576"]).solve.gpu_mem, 1 << 50);
    }

    #[test]
    fn parse_gap_and_obj_limit() {
        let o = opts(&["x.mps", "--gap", "0.05", "--obj-limit", "12.5"]);
        assert_eq!(o.solve.mip.gap_rel, 0.05);
        assert_eq!(o.solve.mip.objective_limit, Some(12.5));
        assert_eq!(opts(&["--gap", "0"]).solve.mip.gap_rel, 0.0);
        assert_eq!(
            opts(&["--obj-limit", "-3"]).solve.mip.objective_limit,
            Some(-3.0)
        );
    }

    /// A negative or NaN gap never passes `gap_rel > 0.0`, and no incumbent
    /// reaches a NaN or infinite limit: each would be accepted and then
    /// ignored, so each is an error.
    #[test]
    fn gap_and_obj_limit_reject_values_that_would_do_nothing() {
        for bad in ["-0.01", "nan", "NaN", "inf", "-inf"] {
            let err = parse_options(&s(&["--gap", bad])).unwrap_err();
            assert_eq!(err, "--gap must be a finite number >= 0", "{bad}");
        }
        for bad in ["nan", "inf", "-inf", "infinity"] {
            let err = parse_options(&s(&["--obj-limit", bad])).unwrap_err();
            assert_eq!(err, "--obj-limit must be a finite number", "{bad}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_options(&s(&["--bogus"])).is_err());
        assert!(parse_options(&s(&["--node-limit"])).is_err());
        assert!(parse_options(&s(&["--node-limit", "abc"])).is_err());
        assert!(parse_options(&s(&["--policy", "zigzag"])).is_err());
        // A strategy is parsed with the rest of the line: a bad width is an
        // error before anything runs.
        for bad in ["batched:0", "cluster:x", "cluster:4097", "warp"] {
            assert!(parse_options(&s(&["--strategy", bad])).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_strategy_spelling_is_in_the_help() {
        for spelling in gmip_parallel::SPELLINGS.split(" | ") {
            assert!(HELP.contains(spelling), "HELP does not list {spelling}");
        }
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

        let host_out = solve(back.clone(), &opts(&["--strategy", "host", "--stats"])).unwrap();
        assert!(host_out.contains("status: Optimal"));

        let dev_out = solve(back.clone(), &opts(&["--strategy", "auto"])).unwrap();
        assert!(dev_out.contains("status: Optimal"));
        assert!(dev_out.contains("dispatch: DenseDevice"), "{dev_out}");
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
        let o = opts(&["--strategy", "host", "--presolve", "--tree"]);
        let out = solve(fig1(), &o).unwrap();
        assert!(out.contains("presolve:"));
        assert!(out.contains("status: Optimal"));
        assert!(out.contains("objective: 14"));
        assert!(out.contains("root"));
    }

    #[test]
    fn solve_with_cluster_strategy() {
        let out = solve(fig1(), &opts(&["--strategy", "cluster:2", "--metrics"])).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("makespan:"), "{out}");
        assert!(out.contains("cluster.messages"), "{out}");
    }

    #[test]
    fn solve_cluster_with_faults() {
        let o = opts(&[
            "--strategy",
            "cluster:3",
            "--faults",
            "seed=5,crashes=2,drop=0.1",
            "--metrics",
        ]);
        let out = solve(fig1(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("recovery:"), "{out}");
        assert!(out.contains("fault.drops"), "metrics glossary rows:\n{out}");
        // Bad spec is a parse error, not a panic.
        let err = parse_options(&s(&["--faults", "drop=2.5"])).unwrap_err();
        assert!(err.starts_with("--faults:"), "{err}");
        // --faults outside the strategies that inject them is rejected.
        let err = solve(fig1(), &opts(&["--strategy", "host", "--faults", "7"])).unwrap_err();
        assert_eq!(err, "--faults is not read by --strategy host");
    }

    #[test]
    fn an_option_the_strategy_does_not_read_is_rejected_not_dropped() {
        // A rank's round cap is a constant, the first-order cleanup's pricing
        // is fixed: a value the solve would ignore comes back as Err, and the
        // default itself passes.
        for (strategy, flag, value) in [
            ("cluster:3", "--prop-rounds", "3"),
            ("cluster:4x2", "--prop-rounds", "3"),
            ("firstorder:4", "--pricing", "devex"),
            ("per-lane:2", "--heur-period", "2"),
            ("batched:2", "--policy", "depth"),
            ("host", "--backend", "native"),
            ("cluster:3", "--backend", "native"),
        ] {
            let o = opts(&["--strategy", strategy]);
            assert!(solve(fig1(), &o).unwrap().contains("status: Optimal"));
            let o = opts(&["--strategy", strategy, flag, value]);
            let err = solve(fig1(), &o).unwrap_err();
            assert_eq!(err, format!("{flag} is not read by --strategy {strategy}"));
        }
    }

    #[test]
    fn solve_with_hierarchical_cluster_strategy() {
        let o = opts(&["--strategy", "cluster:8x2", "--metrics"]);
        let out = solve(fig1(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("objective: 14"), "{out}");
        assert!(out.contains("hierarchy: 4 groups x 2"), "{out}");
        assert!(out.contains("root messages:"), "{out}");
        assert!(out.contains("hier.root.messages"), "{out}");
        // Same topology, same bytes.
        let again = solve(fig1(), &o).unwrap();
        assert_eq!(out, again, "hierarchical solve must be deterministic");
    }

    #[test]
    fn solve_hierarchical_with_faults() {
        let o = opts(&[
            "--strategy",
            "cluster:8x2",
            "--faults",
            "seed=5,sub-crash=1,root-slow=4,horizon=2e5",
        ]);
        let out = solve(fig1(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("sub-crashes"), "{out}");
        assert!(out.contains("group subtrees shipped"), "{out}");
    }

    #[test]
    fn solve_with_per_lane_and_threaded_strategies() {
        let out = solve(fig1(), &opts(&["--strategy", "per-lane:3", "--stats"])).unwrap();
        assert!(out.contains("objective: 14"), "{out}");
        assert!(out.contains("wave width: 3"), "{out}");
        assert!(!out.contains("pdhg:"), "{out}");
        let o = opts(&["--strategy", "threaded:2", "--faults", "seed=3,crashes=1"]);
        let out = solve(fig1(), &o).unwrap();
        assert!(out.contains("objective: 14"), "{out}");
        assert!(out.contains("wall:"), "{out}");
        assert!(out.contains("recovery:"), "{out}");
    }

    #[test]
    fn parse_propagation_flags() {
        let o = opts(&["x.mps"]);
        assert!(!o.solve.mip.propagate, "propagation is opt-in");
        assert_eq!(o.solve.mip.propagate_rounds, 8);
        assert_eq!(
            o.solve.mip.heuristics.fix_and_propagate_period, 0,
            "fix-and-propagate is opt-in"
        );
        let o = opts(&[
            "x.mps",
            "--propagate",
            "--prop-rounds",
            "4",
            "--heur-period",
            "3",
        ]);
        assert!(o.solve.mip.propagate);
        assert_eq!(o.solve.mip.propagate_rounds, 4);
        assert_eq!(o.solve.mip.heuristics.fix_and_propagate_period, 3);
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
            let o = opts(&[
                "--strategy",
                strategy,
                "--propagate",
                "--heur-period",
                "2",
                "--metrics",
            ]);
            let out = solve(fig1(), &o).unwrap();
            assert!(out.contains("status: Optimal"), "{strategy}:\n{out}");
            assert!(out.contains("objective: 14"), "{strategy}:\n{out}");
            assert!(out.contains("prop.nodes"), "{strategy}:\n{out}");
            // Deterministic: a rerun produces byte-identical output.
            assert_eq!(out, solve(fig1(), &o).unwrap());
        }
    }

    #[test]
    fn parse_pricing_flag() {
        let o = opts(&["x.mps", "--pricing", "devex"]);
        assert_eq!(o.solve.mip.lp.primal.pricing, PricingRule::Devex);
        let o = opts(&["x.mps", "--pricing", "dantzig"]);
        assert_eq!(o.solve.mip.lp.primal.pricing, PricingRule::Dantzig);
        assert!(parse_options(&s(&["x.mps", "--pricing", "steepest"])).is_err());
    }

    #[test]
    fn solve_with_batched_strategy() {
        let o = opts(&["--strategy", "batched:4", "--stats", "--metrics"]);
        let out = solve(fig1(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("objective: 14"), "{out}");
        assert!(out.contains("wave width:"), "{out}");
        assert!(out.contains("wave.fused_launches"), "{out}");
        // Devex pricing runs the same strategy to the same answer.
        let dv = opts(&["--strategy", "batched:4", "--pricing", "devex"]);
        let out = solve(fig1(), &dv).unwrap();
        assert!(out.contains("objective: 14"), "{out}");
    }

    #[test]
    fn solve_with_firstorder_strategy() {
        let o = opts(&["--strategy", "firstorder:4", "--stats", "--metrics"]);
        let out = solve(fig1(), &o).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("objective: 14"), "{out}");
        assert!(out.contains("wave width:"), "{out}");
        assert!(out.contains("pdhg:"), "{out}");
        assert!(out.contains("fo.fused_launches"), "{out}");
        // Deterministic: a rerun produces byte-identical output.
        let again = solve(fig1(), &o).unwrap();
        assert_eq!(out, again, "firstorder output must replay byte-identically");
    }

    #[test]
    fn backend_flag_parses_and_native_output_matches_sim() {
        let o = opts(&["x.mps", "--backend", "native"]);
        assert_eq!(
            o.solve.backend,
            gmip_gpu::BackendKind::Native { threads: 0 }
        );
        assert!(parse_options(&s(&["x.mps", "--backend", "cuda"])).is_err());
        assert!(parse_options(&s(&["x.mps", "--backend"])).is_err());

        // The native backend's report must match sim byte-for-byte once
        // the (real, run-dependent) wall.* lines are filtered out.
        let run = |backend| {
            let mut o = opts(&["--strategy", "firstorder:4", "--propagate", "--metrics"]);
            o.solve.backend = backend;
            let out = solve(fig1(), &o).unwrap();
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
    fn verify_certifies_the_host_path_by_default() {
        let out = run(&s(&["verify", KNAPSACK15])).unwrap();
        assert!(
            out.contains("\nfloat host:   Optimal, objective 599\n"),
            "{out}"
        );
        assert!(
            out.contains("exact oracle: Optimal, proven optimum 599"),
            "{out}"
        );
        assert!(out.contains("incumbent: exactly feasible"), "{out}");
        assert!(out.ends_with("VERIFIED\n"), "{out}");
    }

    #[test]
    fn verify_runs_the_strategy_it_is_given() {
        for strategy in ["cluster:4x2", "batched:4"] {
            let out = run(&s(&["verify", KNAPSACK15, "--strategy", strategy])).unwrap();
            assert!(
                out.contains(&format!("float {strategy}: Optimal, objective 599")),
                "{out}"
            );
            assert!(out.contains("\ncertificates: none"), "{out}");
            assert!(out.ends_with("VERIFIED\n"), "{out}");
        }
        let err = run(&s(&["verify", KNAPSACK15, "--strategy", "batched:0"])).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
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
        let mut o = opts(&["--faults", "seed=3,crashes=1,drop=0.05"]);
        o.jobs = 20;
        o.seed = 4;
        o.ranks = 4;
        o.max_items = 8;
        o.verify_sample = 5;
        let out = serve(&o).unwrap();
        assert!(out.contains("chaos overlay"), "{out}");
        assert!(out.contains("all match"), "{out}");
    }

    /// `serve` runs every job on `cluster:<leased ranks>`: a strategy or an
    /// option the cluster does not read is an error naming its flag.
    #[test]
    fn serve_refuses_what_the_cluster_does_not_read() {
        for (args, flag) in [
            (&["--strategy", "batched:4"][..], "--strategy"),
            (&["--policy", "depth"], "--policy"),
            (&["--gap", "0.1"], "--gap"),
            (&["--obj-limit", "3"], "--obj-limit"),
            (&["--no-cuts"], "--no-cuts"),
            (&["--no-heur"], "--no-heur"),
            (&["--prop-rounds", "3"], "--prop-rounds"),
            (&["--backend", "native"], "--backend"),
        ] {
            let err = run(&s(&[&["serve", "--jobs", "2"][..], args].concat())).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
            assert!(!err.contains("read by --strategy"), "{args:?}: {err}");
        }
    }

    /// A rank's propagation runs its own round cap: serve refuses
    /// `--prop-rounds` as a flag serve does not read, not as one a
    /// `--strategy` it never takes does not read.
    #[test]
    fn serve_names_itself_refusing_prop_rounds() {
        let err = run(&s(&["serve", "--jobs", "2", "--prop-rounds", "3"])).unwrap_err();
        assert_eq!(err, "--prop-rounds is not read by serve");
    }

    /// A rank's dispatches are one lane wide: `--backend` is refused the
    /// same way.
    #[test]
    fn serve_names_itself_refusing_backend() {
        let err = run(&s(&["serve", "--jobs", "2", "--backend", "native"])).unwrap_err();
        assert_eq!(err, "--backend is not read by serve");
    }

    /// The solve options the cluster reads reach every job.
    #[test]
    fn serve_forwards_the_cluster_options() {
        let serve = |extra: &[&str]| {
            let base = ["serve", "--jobs", "20", "--ranks", "4", "--max-items", "8"];
            run(&s(&[&base[..], extra, &["--metrics"]].concat())).unwrap()
        };
        let plain = serve(&[]);
        let hooked = serve(&["--propagate", "--heur-period", "2"]);
        for counter in ["prop.rounds", "heur.attempts"] {
            assert!(!plain.contains(counter), "{plain}");
            assert!(hooked.contains(counter), "{hooked}");
        }
        assert_ne!(serve(&["--pricing", "devex"]), plain);
    }

    #[test]
    fn parse_serve_flags() {
        let o = opts(&[
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
        ]);
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
        // An arrival time is an event time, which is never NaN.
        assert!(parse_options(&s(&["--mean-gap-us", "inf"])).is_err());
    }

    #[test]
    fn parse_faults_flag() {
        let o = opts(&["x.mps", "--faults", "42"]);
        assert_eq!(o.solve.chaos.map(|c| c.seed), Some(42));
        assert!(parse_options(&s(&["--faults"])).is_err());
    }

    #[test]
    fn solve_with_trace_and_metrics() {
        let path = std::env::temp_dir().join("gmip_cli_trace_test.json");
        let mut o = opts(&["--strategy", "auto", "--metrics"]);
        o.trace = Some(path.to_string_lossy().into_owned());
        let out = solve(fig1(), &o).unwrap();
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
