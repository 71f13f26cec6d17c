//! One benchmark run: set-up, warm-up, timed passes, and — in the traced
//! run — spans, allocation counts and per-layer probes.

use std::path::PathBuf;
use std::time::Instant;

use crate::alloc;
use crate::entry;
use crate::probes;
use crate::report::{self, Metric, Values, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::quartiles;
use crate::workloads::{self, Family, Inputs, Pass, Plan, Scale, Solver};

/// Set-ups per run, each with its warm-up pass; `setup_s` takes every piece
/// of them at its fastest, for the reason `pass_s` does.
const SETUPS: usize = 3;
/// Fewest timed passes after each set-up.
const MIN_PASSES: usize = 2;
/// Fewest passes on each side of the traced run (untraced, then traced).
const MIN_TRACED_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed passes measure, seconds.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Where the traced run writes its spans as Chrome trace JSON, if
    /// anywhere.
    pub trace_out: Option<PathBuf>,
    /// Full or reduced workloads.
    pub scale: Scale,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted over every pass, warm-up included.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The table the values belong to.
    pub table: &'static [Metric],
    /// Metric values by name.
    pub values: Values,
}

impl Outcome {
    /// The run's result line.
    pub fn result_line(&self) -> String {
        report::result_line(self.attempted, self.failed, self.table, &self.values)
    }
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where the kernel
/// does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Totals and per-pass series shared by both kinds of run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
    }
}

/// Runs one pass as the next numbered pass of the run.
fn one_pass(inputs: &mut Inputs, spans: &mut Spans, tally: &mut Tally) -> Pass {
    spans.begin_pass();
    let p = workloads::run_pass(inputs, spans);
    spans.end_pass();
    tally.add(&p);
    p
}

/// Runs passes until `seconds` have gone by and at least `min` are done.
fn passes_for(
    seconds: f64,
    min: usize,
    inputs: &mut Inputs,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Pass> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed().as_secs_f64() < seconds {
        out.push(one_pass(inputs, spans, tally));
    }
    out
}

fn wall_s(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect()
}

/// Runs the benchmark as `opts` says, printing every metric by name with
/// its unit; the caller prints the result line.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let plan = workloads::plan(&opts.workload, opts.scale)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    println!(
        "{}",
        report::header_line(&opts.workload, opts.seed, opts.trace, nproc(), opts.seconds)
    );
    if let Some(w) = report::WORKLOADS.iter().find(|w| w.name == opts.workload) {
        println!("{}: {}", w.name, w.why);
        if !w.gated {
            println!("(not declared in BENCHMARK.json: too unsteady at the parent commit to carry a bound)");
        }
    }

    let mut spans = Spans::new(opts.trace);
    let mut tally = Tally::default();
    let mut setups: Vec<Vec<u64>> = Vec::with_capacity(SETUPS);
    let mut timed = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (mut drawn, mut wall_ns) = workloads::set_up(&plan, opts.seed, &mut spans)?;
        // The warm-up pass belongs to set-up: it fixes what every operation
        // must repeat, and pays whatever the program does on first use.
        let warm = workloads::run_pass(&mut drawn, &mut spans);
        wall_ns.extend(&warm.op_wall_ns);
        setups.push(wall_ns);
        tally.add(&warm);
        if warm.nodes == 0 {
            return Err("a pass evaluated no node".into());
        }
        // The end-to-end run spreads its set-ups over its length, a share of
        // the timed passes after each: the host's bad episodes last seconds,
        // and three set-ups in a row would all fall into one.
        if !opts.trace {
            let share = opts.seconds / SETUPS as f64;
            timed.extend(passes_for(
                share, MIN_PASSES, &mut drawn, &mut spans, &mut tally,
            ));
        }
        inputs = Some(drawn);
    }
    let mut inputs = inputs.expect("SETUPS >= 1");
    let setup_s = workloads::fastest_sum_s(&setups.iter().map(|s| &s[..]).collect::<Vec<_>>());
    println!(
        "pass: {} operations; set-up (draw, reference optima, warm-up pass) took {:.5?} s, \
         setup_s {setup_s:.5} with every piece at its fastest",
        inputs.operations(),
        setups
            .iter()
            .map(|s| s.iter().sum::<u64>() as f64 / 1e9)
            .collect::<Vec<_>>()
    );

    let values = if opts.trace {
        traced_run(opts, &plan, &mut inputs, &mut spans, &mut tally)?
    } else {
        end_to_end_values(setup_s, &timed, &mut tally)
    };
    let table: &'static [Metric] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for m in table {
        debug_assert!(report::valid_name(m.name));
        let value = values.get(m.name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            // Never a number a comparison could take for a good one.
            tally.failed += 1;
            eprintln!(
                "wallbench: FAILED metric {} is not a number: {value}",
                m.name
            );
        }
        match m.bound {
            Some(b) => println!(
                "{} = {value} {} ({} is better, may worsen by {b} of the parent's median)",
                m.name,
                m.unit,
                m.better.as_str()
            ),
            None => println!("{} = {value} {}", m.name, m.unit),
        }
    }
    println!(
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        table,
        values,
    })
}

fn end_to_end_values(setup_s: f64, passes: &[Pass], tally: &mut Tally) -> Values {
    // Simulated time is the paper's clock: it must not move between passes.
    let first = &passes[0];
    if let Some(p) = passes
        .iter()
        .find(|p| p.sim_ns.to_bits() != first.sim_ns.to_bits() || p.nodes != first.nodes)
    {
        tally.failed += 1;
        eprintln!(
            "wallbench: FAILED simulated time moved between passes: {} ns / {} nodes, then {} ns / {} nodes",
            first.sim_ns, first.nodes, p.sim_ns, p.nodes
        );
    }
    // The gated value takes every operation at its fastest repetition; the
    // whole passes as they ran are printed beside it.
    let pass_s = workloads::fastest_pass_s(passes);
    let walls = wall_s(passes);
    let (q1, med, q3) = quartiles(&walls);
    println!(
        "timed: n={} passes of {} nodes; pass_s {pass_s:.5} with every operation at its fastest; \
         whole passes: median {med:.5}, quartiles {q1:.5} .. {q3:.5}, fastest {:.5}, slowest {:.5}",
        passes.len(),
        first.nodes,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    );
    let mut v = Values::new();
    v.insert("pass_s", pass_s);
    v.insert("sim_s", first.sim_ns / 1e9);
    v.insert("peak_rss_mb", peak_rss_mb());
    v.insert("setup_s", setup_s);
    v
}

fn traced_run(
    opts: &Options,
    plan: &Plan,
    inputs: &mut Inputs,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Values, String> {
    // Untraced and traced passes take turns, so that whatever the host does
    // to the machine meanwhile lands on both sides of the overhead fraction.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plain.len() < MIN_TRACED_PASSES || started.elapsed().as_secs_f64() < opts.seconds * 0.6 {
        spans.set_enabled(false);
        plain.push(one_pass(inputs, spans, tally));
        spans.set_enabled(true);
        traced.push(one_pass(inputs, spans, tally));
    }
    let (plain_s, traced_s) = (
        workloads::fastest_pass_s(&plain),
        workloads::fastest_pass_s(&traced),
    );

    // One more pass with the allocator counting: the counts are exact, so
    // one pass is enough, and its time (two atomic adds per allocation) is
    // never reported.
    alloc::set_enabled(true);
    let counted = one_pass(inputs, spans, tally);
    alloc::set_enabled(false);

    let (family, lanes, native) = probe_shape(plan);
    let mut v = probes::run(inputs, family, lanes, native, opts.seed, spans)?;

    spans.set_enabled(false);
    let (session_pass, events) = entry::traced(|| workloads::run_pass(inputs, spans));
    tally.add(&session_pass);
    spans.set_enabled(true);

    let first = &traced[0];
    // Timed per-layer values are taken at the fastest traced pass, for the
    // reason `pass_s` takes every operation at its fastest.
    let fastest_of = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).fold(f64::INFINITY, f64::min);
    let kind_s = |k: &'static str| {
        fastest_of(&|p: &Pass| p.wall_by_kind.get(k).copied().unwrap_or(0) as f64 / 1e9)
    };
    let count = |k: &str| first.counts.get(k).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // Raw counts of the pass: exact ones from the first traced pass, timed
    // ones (the native backend's class wall) at their fastest pass.
    for m in PER_LAYER.iter() {
        if first.counts.contains_key(m.name) {
            let val = if m.exact {
                count(m.name)
            } else {
                fastest_of(&|p: &Pass| p.counts.get(m.name).copied().unwrap_or(0.0))
            };
            v.insert(m.name, val);
        }
    }

    let nodes = first.nodes as f64;
    let (allocs, bytes) = counted
        .allocs_by_kind
        .values()
        .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
    let kind_allocs = |k: &str| counted.allocs_by_kind.get(k).map_or(0.0, |a| a.0 as f64);
    let kind_ops = |k: &str| first.ops_by_kind.get(k).copied().unwrap_or(0) as f64;
    v.insert("core.nodes", nodes);
    v.insert("core.node_us", traced_s * 1e6 / nodes);
    v.insert("core.allocs_per_node", allocs as f64 / nodes);
    v.insert("core.alloc_bytes_per_node", bytes as f64 / nodes);
    v.insert(
        "lp.wave.superstep_us",
        per(kind_s("wave") * 1e6, count("lp.wave.supersteps")),
    );
    v.insert(
        "lp.fo.superstep_us",
        per(kind_s("fo") * 1e6, count("lp.fo.supersteps")),
    );
    v.insert(
        "lp.fo.allocs_per_superstep",
        per(kind_allocs("fo"), count("lp.fo.supersteps")),
    );
    let class_s = v.get("gpu.fo_class_wall_s").copied().unwrap_or(0.0);
    v.insert(
        "core.outside_kernels_frac",
        if class_s > 0.0 {
            1.0 - class_s / kind_s("fo")
        } else {
            0.0
        },
    );
    v.insert(
        "prop.nodes_saved_frac",
        if first.paired_plain_nodes > 0 {
            1.0 - first.paired_prop_nodes as f64 / first.paired_plain_nodes as f64
        } else {
            0.0
        },
    );
    let cluster_s = kind_s("cluster") + kind_s("serve");
    let messages = count("parallel.messages");
    v.insert("parallel.us_per_message", per(cluster_s * 1e6, messages));
    v.insert(
        "parallel.us_per_node",
        if messages > 0.0 {
            cluster_s * 1e6 / nodes
        } else {
            0.0
        },
    );
    v.insert(
        "parallel.sim_idle_frac",
        per(count("parallel.sim_idle_frac"), kind_ops("cluster")),
    );
    let jobs = count("serve.jobs");
    v.insert("serve.job_us", per(kind_s("serve") * 1e6, jobs));
    v.insert("serve.allocs_per_job", per(kind_allocs("serve"), jobs));
    v.insert(
        "trace.session_overhead_frac",
        session_pass.wall_ns as f64 / 1e9 / plain_s - 1.0,
    );
    v.insert("trace.events_per_pass", events as f64);
    v.insert("bench.span_overhead_frac", traced_s / plain_s - 1.0);
    v.insert("bench.pass_s", plain_s);
    v.insert("bench.sim_s", first.sim_ns / 1e9);
    v.insert(
        "bench.failed_frac",
        tally.failed as f64 / tally.attempted as f64,
    );

    // Every per-layer metric is reported; a layer that does not run on this
    // workload reads 0.
    for m in PER_LAYER.iter() {
        v.entry(m.name).or_insert(0.0);
    }

    println!(
        "traced: {} untraced + {} traced passes; pass_s {plain_s:.4} untraced, {traced_s:.4} traced",
        plain.len(),
        traced.len()
    );
    println!("span self time (name: calls, self ms):");
    for (name, (calls, self_ns)) in spans.self_times() {
        println!("  {name}: {calls}, {:.3}", self_ns as f64 / 1e6);
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, spans.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            spans.spans().len(),
            path.display()
        );
    }
    Ok(v)
}

/// The family, lane width and backend the probes run at: the workload's own.
fn probe_shape(plan: &Plan) -> (Family, usize, bool) {
    match plan {
        Plan::Serve(spec) => (Family::Knapsack(spec.max_items), 16, false),
        Plan::Solves(slots) => {
            let (lanes, native) = match slots[0].solvers[0] {
                Solver::Wave { lanes, .. } => (lanes, false),
                Solver::FirstOrder { lanes, native, .. } => (lanes, native),
                _ => (16, false),
            };
            (slots[0].family, lanes, native)
        }
    }
}
