//! The benchmark's vocabulary — workloads, end-to-end and per-layer metrics
//! with units, directions and bounds — and the result-line format.
//!
//! `BENCHMARK.json` at the repository root declares the same tables; the
//! integration test holds the two against each other.

use std::collections::BTreeMap;

use crate::json::{self, Json};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// The value is a count or a simulated time of the program's: on one
    /// commit and one seed it repeats exactly.
    pub exact: bool,
}

impl Metric {
    const fn up(self) -> Metric {
        Metric {
            better: Better::Higher,
            ..self
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact,
    }
}

/// A per-layer wall-clock (or allocator) measurement.
const fn timed(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

/// A per-layer count or simulated time that repeats exactly.
const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        exact: true,
        ..timed(name, unit)
    }
}

/// End-to-end metrics, reported by every workload with tracing off, raw:
/// `pass_s` is the median wall time of the timed passes, `sim_s` the
/// simulated time of one pass (the same in every pass), `peak_rss_mb` the
/// process's `VmHWM` at exit, `setup_s` the run's set-up (repeated three
/// times, every piece at its fastest).
/// Failures are not a metric here — a metric may never read 0 — they are
/// the `failed` / `attempted` fields of every result line, which `compare`
/// gates as `failed_frac`.
pub static END_TO_END: [Metric; 4] = [
    e2e("pass_s", "s", 0.25, false),
    e2e("sim_s", "s", 0.02, true),
    e2e("peak_rss_mb", "MiB", 0.15, false),
    e2e("setup_s", "s", 0.25, false),
];

/// Per-layer metrics, reported by every workload's traced run (0 where the
/// layer does not run on that workload).
pub static PER_LAYER: [Metric; 69] = [
    timed("linalg.spmv_ns_per_nnz", "ns"),
    timed("linalg.spmv_t_ns_per_nnz", "ns"),
    timed("linalg.lu_factor_us", "us"),
    timed("linalg.lu_solve_us", "us"),
    exact("gpu.launches", "count"),
    exact("gpu.h2d_bytes", "B"),
    exact("gpu.d2h_bytes", "B"),
    exact("gpu.sim_kernel_s", "s"),
    exact("gpu.sim_transfer_s", "s"),
    timed("gpu.charge_ns", "ns"),
    timed("gpu.dispatch_us", "us"),
    timed("gpu.fo_class_wall_s", "s"),
    exact("gpu.wall_dispatches", "count"),
    timed("lp.host.root_us", "us"),
    timed("lp.host.pivot_ns", "ns"),
    timed("lp.device.root_us", "us"),
    timed("lp.device.pivot_ns", "ns"),
    timed("lp.sparse.root_us", "us"),
    timed("lp.sparse.pivot_ns", "ns"),
    timed("lp.host.warm_resolve_us", "us"),
    exact("lp.iters", "count"),
    exact("lp.wave.supersteps", "count"),
    timed("lp.wave.superstep_us", "us"),
    exact("lp.fo.supersteps", "count"),
    timed("lp.fo.superstep_us", "us"),
    timed("lp.fo.allocs_per_superstep", "count"),
    timed("tree.cycle_ns", "ns"),
    exact("tree.peak_nodes", "count"),
    exact("core.nodes", "count"),
    timed("core.node_us", "us"),
    exact("core.cuts", "count"),
    timed("core.allocs_per_node", "count"),
    timed("core.alloc_bytes_per_node", "B"),
    timed("core.outside_kernels_frac", "ratio"),
    timed("prop.propagate_us", "us"),
    timed("prop.dive_us", "us"),
    exact("prop.rounds", "count"),
    exact("prop.tightenings", "count"),
    exact("prop.nodes_saved_frac", "ratio").up(),
    exact("parallel.messages", "count"),
    exact("parallel.message_bytes", "B"),
    exact("parallel.root_messages", "count"),
    exact("parallel.steals", "count"),
    timed("parallel.us_per_message", "us"),
    timed("parallel.us_per_node", "us"),
    exact("parallel.sim_idle_frac", "ratio"),
    timed("parallel.threaded2_ms", "ms"),
    exact("serve.jobs", "count"),
    exact("serve.completed", "count").up(),
    exact("serve.dropped", "count"),
    exact("serve.exact_hits", "count").up(),
    exact("serve.warm_hits", "count").up(),
    exact("serve.retries", "count"),
    timed("serve.job_us", "us"),
    timed("serve.canonicalize_us", "us"),
    timed("serve.pool_exact_ns", "ns"),
    exact("serve.sim_p50_ms", "ms"),
    exact("serve.sim_p99_ms", "ms"),
    timed("serve.allocs_per_job", "count"),
    timed("problems.generate_ms", "ms"),
    timed("problems.to_csr_us", "us"),
    timed("problems.mps_roundtrip_us", "us"),
    timed("trace.session_overhead_frac", "ratio"),
    timed("trace.events_per_pass", "count"),
    timed("bench.span_overhead_frac", "ratio"),
    timed("bench.pass_s", "s"),
    exact("bench.sim_s", "s"),
    exact("bench.solves", "count"),
    exact("bench.failed_frac", "ratio"),
];

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Declared in `BENCHMARK.json`, so run and held to the bounds by the
    /// driver. An ungated workload runs by hand only.
    pub gated: bool,
}

/// The six workloads. `wave-fo-native` is not gated: at the parent commit
/// every fused dispatch is a condvar round trip to a pool thread, how long a
/// wake takes on a shared 2-vCPU machine is bimodal, and `pass_s` of one
/// workload moved 0.65 s .. 1.95 s over six runs on the reference host — an
/// inter-quartile spread of 26 %, above the largest bound a metric may have.
pub static WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "bnc-serial",
        why: "serial branch-and-cut on host and device engines: simplex, LU/eta, cuts and the tree do the work; bypasses waves, backends, cluster and serve",
        gated: true,
    },
    WorkloadInfo {
        name: "wave-simplex",
        why: "batched simplex wave, plain and propagating: per-superstep launch charging and the warm-basis pool dominate; bypasses first-order kernels and the thread pool",
        gated: true,
    },
    WorkloadInfo {
        name: "wave-fo-sim",
        why: "first-order (PDHG) wave on the sequential Sim backend: lane kernels and exact cleanup; a pool fix predicts no change. Its Native{threads:2} twin wave-fo-native is undeclared: no bound holds it yet",
        gated: true,
    },
    WorkloadInfo {
        name: "wave-fo-native",
        why: "the same first-order solves on Native{threads:2}: every fused class goes through the vendored pool; shows pool overhead and the time outside kernels",
        gated: false,
    },
    WorkloadInfo {
        name: "cluster-des",
        why: "flat 64-rank and hierarchical 256-rank discrete-event clusters: event loops, comm, load summaries and steals dominate; node LPs are tiny",
        gated: true,
    },
    WorkloadInfo {
        name: "serve-mix",
        why: "service runs over duplicate/perturbed job tapes on 8 ranks: admission, canonicalize, solution pool and rank leasing on the blocking path",
        gated: true,
    },
];

/// True when `s` is a legal workload, metric or unit-free name: starts with
/// a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Looks a metric up in both tables.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Measured values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

fn num(v: f64) -> String {
    // Rust's `{}` prints the shortest text that reads back to the same
    // f64: all the digits there are. A non-finite value cannot be JSON; the
    // run counts it as a failure, and `null` keeps any reader of the line
    // from taking it for a measurement.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The context line printed ahead of a run's metrics; `compare` reads it
/// back to know which workload and seed a result line belongs to.
pub fn header_line(workload: &str, seed: u64, trace: bool, nproc: usize, seconds: f64) -> String {
    format!(
        "# wallbench workload={workload} seed={seed} trace={} nproc={nproc} seconds={seconds}",
        u8::from(trace)
    )
}

/// The last line of a run: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics` (every metric of `table`, in table
/// order; a value missing from `values` reads 0).
pub fn result_line(attempted: u64, failed: u64, table: &[Metric], values: &Values) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(values.get(m.name).copied().unwrap_or(0.0)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// One run read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether it was the traced run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads every run out of a result file: the saved standard output of one
/// or more runs, each a `# wallbench ...` header line followed (after any
/// number of human-readable lines) by its JSON result line.
pub fn parse_runs(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    let mut header: Option<(String, u64, bool)> = None;
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("# wallbench ") {
            let field = |key: &str| {
                rest.split_whitespace()
                    .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                    .ok_or_else(|| format!("line {}: header lacks {key}", ln + 1))
            };
            let seed = field("seed")?
                .parse()
                .map_err(|_| format!("line {}: bad seed", ln + 1))?;
            header = Some((field("workload")?.to_string(), seed, field("trace")? == "1"));
        } else if line.starts_with('{') {
            let (workload, seed, trace) = header
                .take()
                .ok_or_else(|| format!("line {}: result without a header line", ln + 1))?;
            let doc = json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
            let count = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_f64)
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("line {}: result lacks {key}", ln + 1))
            };
            let Some(Json::Obj(ms)) = doc.get("metrics") else {
                return Err(format!("line {}: result lacks metrics", ln + 1));
            };
            let mut metrics = BTreeMap::new();
            for (name, m) in ms {
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {}: metric {name} lacks a value", ln + 1))?;
                metrics.insert(name.clone(), v);
            }
            runs.push(RunRecord {
                workload,
                seed,
                trace,
                attempted: count("attempted")?,
                failed: count("failed")?,
                metrics,
            });
        }
    }
    Ok(runs)
}
