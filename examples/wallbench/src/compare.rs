//! `wallbench compare <a> <b> [--same-commit]`: the wall-clock gate.
//!
//! Reads two result files (the saved standard output of any number of
//! runs), prints one row per workload and end-to-end metric with both
//! sides' medians and quartiles and the ratio with its base, and applies
//! each metric's bound; `failed_frac` (operations failed over attempted) is
//! a row of its own with an absolute bound of 0. With `--same-commit` it also requires everything
//! deterministic — simulated time and every count of the traced runs — to
//! be equal seed by seed.

use std::collections::BTreeMap;

use crate::report::{self, Better, Metric, RunRecord, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};

/// What the comparison concluded for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// A side's own inter-quartile spread exceeds the bound, so the
    /// medians cannot resolve a change of that size.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// `(q1, median, q3)` of side `a`.
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of side `b`.
    pub b: (f64, f64, f64),
    /// `b`'s median over `a`'s.
    pub ratio: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one end-to-end metric from both sides' per-run values.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Row {
    let bound = metric.bound.unwrap_or(0.0);
    let (qa, qb) = (quartiles(a), quartiles(b));
    let ratio = qb.1 / qa.1;
    let worse_by = match metric.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let resolvable = spread(a) <= bound && spread(b) <= bound;
    // NaN-safe: a median that is not a number is a regression.
    let verdict = if !resolvable {
        Verdict::Unresolved
    } else if worse_by <= bound {
        Verdict::Ok
    } else {
        Verdict::Regressed
    };
    Row {
        a: qa,
        b: qb,
        ratio,
        verdict,
    }
}

fn values(runs: &[RunRecord], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Compares two parsed result sets; returns the report text and whether
/// the gate passed.
pub fn compare(a: &[RunRecord], b: &[RunRecord], same_commit: bool) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    out.push_str(&format!(
        "{:<15} {:<17} {:>5}  {:>34}  {:>34}  {:>8}  {:>5}  verdict\n",
        "workload",
        "metric",
        "unit",
        "a: median [q1 .. q3] n",
        "b: median [q1 .. q3] n",
        "b/a",
        "bound"
    ));
    for w in WORKLOADS.iter().map(|w| w.name) {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w, false, m.name), values(b, w, false, m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            if va.is_empty() || vb.is_empty() {
                out.push_str(&format!(
                    "{w:<15} {:<17} present on one side only\n",
                    m.name
                ));
                pass = false;
                continue;
            }
            let row = judge(m, &va, &vb);
            let side =
                |q: (f64, f64, f64), n: usize| format!("{:.5} [{:.5} .. {:.5}] {n}", q.1, q.0, q.2);
            out.push_str(&format!(
                "{w:<15} {:<17} {:>5}  {:>34}  {:>34}  {:>8.4}  {:>5.2}  {}\n",
                m.name,
                m.unit,
                side(row.a, va.len()),
                side(row.b, vb.len()),
                row.ratio,
                m.bound.unwrap_or(0.0),
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            ));
            pass &= row.verdict != Verdict::Regressed;
        }
    }

    // `failed_frac`: not a metric of the result line (a metric may never
    // read 0), but gated here all the same, with an absolute bound of 0.
    for w in WORKLOADS.iter().map(|w| w.name) {
        let frac = |runs: &[RunRecord]| {
            let of_w = || runs.iter().filter(|r| r.workload == w);
            let attempted: u64 = of_w().map(|r| r.attempted).sum();
            let failed: u64 = of_w().map(|r| r.failed).sum();
            (attempted > 0).then(|| (failed, attempted, failed as f64 / attempted as f64))
        };
        let (Some(fa), Some(fb)) = (frac(a), frac(b)) else {
            continue;
        };
        let worse = fb.2 > fa.2;
        out.push_str(&format!(
            "{w:<15} {:<17} {:>5}  {:>34}  {:>34}  {:>8}  {:>5.2}  {}\n",
            "failed_frac",
            "ratio",
            format!("{} ({} of {})", fa.2, fa.0, fa.1),
            format!("{} ({} of {})", fb.2, fb.0, fb.1),
            "",
            0.0,
            if worse { "REGRESSED" } else { "ok" }
        ));
        pass &= !worse;
    }

    if same_commit {
        let key = |r: &RunRecord| (r.workload.clone(), r.seed, r.trace);
        let by_key: BTreeMap<_, _> = a.iter().map(|r| (key(r), r)).collect();
        let mut checked = 0;
        for rb in b {
            let Some(ra) = by_key.get(&key(rb)) else {
                continue;
            };
            for (name, vb) in rb
                .metrics
                .iter()
                .filter(|(n, _)| report::metric(n).is_some_and(|m| m.exact))
            {
                checked += 1;
                if ra.metrics.get(name).map(|v| v.to_bits()) != Some(vb.to_bits()) {
                    out.push_str(&format!(
                        "MISMATCH {} seed {}: {name} is {:?} on a, {vb} on b\n",
                        rb.workload,
                        rb.seed,
                        ra.metrics.get(name)
                    ));
                    pass = false;
                }
            }
            // `attempted` counts passes, which are timed, so only failures
            // must agree.
            if ra.failed != rb.failed {
                out.push_str(&format!(
                    "MISMATCH {} seed {}: {} operations failed on a, {} on b\n",
                    rb.workload, rb.seed, ra.failed, rb.failed
                ));
                pass = false;
            }
        }
        out.push_str(&format!(
            "same-commit check: {checked} deterministic values compared seed by seed\n"
        ));
    }
    (out, pass)
}

/// The `compare` subcommand; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let same_commit = args.iter().any(|a| a == "--same-commit");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [fa, fb] = files[..] else {
        eprintln!("usage: wallbench compare <a> <b> [--same-commit]");
        return 2;
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| report::parse_runs(&t).map_err(|e| format!("{path}: {e}")))
    };
    match (read(fa), read(fb)) {
        (Ok(a), Ok(b)) => {
            let (text, pass) = compare(&a, &b, same_commit);
            print!("{text}");
            println!("{}", if pass { "PASS" } else { "FAIL" });
            i32::from(!pass)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("wallbench compare: {e}");
            2
        }
    }
}
