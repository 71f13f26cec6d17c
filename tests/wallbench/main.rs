//! Tier-1 checks of the `examples/wallbench` benchmark: its statistics,
//! vocabulary, result format, correctness gate and `compare` verdicts, and
//! one reduced-size smoke pass per workload. The benchmark is a package of
//! its own; its modules are compiled into this target by path so that a
//! change to the workspace's public surface that breaks the benchmark
//! breaks tier-1 too.

// The binary's `main.rs` is not part of this target, so what only it calls
// is unused here.
#![allow(dead_code)]

#[path = "../../examples/wallbench/src/alloc.rs"]
mod alloc;
#[path = "../../examples/wallbench/src/check.rs"]
mod check;
#[path = "../../examples/wallbench/src/compare.rs"]
mod compare;
#[path = "../../examples/wallbench/src/entry.rs"]
mod entry;
#[path = "../../examples/wallbench/src/json.rs"]
mod json;
#[path = "../../examples/wallbench/src/probes.rs"]
mod probes;
#[path = "../../examples/wallbench/src/report.rs"]
mod report;
#[path = "../../examples/wallbench/src/run.rs"]
mod run;
#[path = "../../examples/wallbench/src/spans.rs"]
mod spans;
#[path = "../../examples/wallbench/src/stats.rs"]
mod stats;
#[path = "../../examples/wallbench/src/workloads.rs"]
mod workloads;

use std::collections::BTreeSet;

use check::{check_answer, check_fingerprint, Answer, Fingerprint};
use compare::{judge, Verdict};
use json::Json;
use report::{Better, RunRecord, Values, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Inputs, Scale};

fn arr(v: Option<&Json>) -> &[Json] {
    match v {
        Some(Json::Arr(a)) => a,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * b.abs().max(1.0)
}

#[test]
fn quartiles_match_pythons_statistics_quantiles() {
    // statistics.quantiles(v, n=4) == [2.825, 4.75, 7.45]
    let v = [3.1, 2.0, 9.5, 4.4, 4.5, 7.0, 1.2, 8.8, 6.1, 5.0];
    let (q1, med, q3) = stats::quartiles(&v);
    assert!(close(q1, 2.825) && close(med, 4.75) && close(q3, 7.45));
    assert!(close(stats::median(&v), 4.75));
    assert!(close(stats::spread(&v), (7.45 - 2.825) / 4.75));
    // Odd length; the exclusive method reaches the extremes at n = 3.
    assert_eq!(stats::quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
    assert!(close(stats::percentile(&v, 0.9), 9.43));
    assert_eq!(stats::median(&[7.0]), 7.0);
    assert_eq!(stats::spread(&[7.0]), 0.0);
    assert!(stats::median(&[]).is_nan());
}

#[test]
fn names_and_units_stay_inside_the_charset() {
    let mut seen = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name))
    {
        assert!(report::valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
            "bad unit {:?} on {}",
            m.unit,
            m.name
        );
    }
    for bad in ["", "-x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!report::valid_name(bad), "{bad:?} should be refused");
    }
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        assert!(workloads::plan(w.name, Scale::Full).is_some());
        assert!(workloads::plan(w.name, Scale::Smoke).is_some());
    }
    assert!(workloads::plan("no-such-workload", Scale::Full).is_none());
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}

#[test]
fn result_line_is_json_with_exactly_the_contract_keys() {
    let mut values = Values::new();
    for (i, m) in END_TO_END.iter().enumerate() {
        values.insert(m.name, 0.125 + i as f64);
    }
    for (table, trace) in [(&END_TO_END[..], false), (&PER_LAYER[..], true)] {
        let line = report::result_line(10, if trace { 1 } else { 0 }, table, &values);
        let Json::Obj(doc) = json::parse(&line).expect("well-formed JSON") else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc["correct"], Json::Bool(!trace));
        let Json::Obj(metrics) = &doc["metrics"] else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), table.len());
        for m in table {
            let entry = &metrics[m.name];
            assert!(entry.get("value").and_then(Json::as_f64).is_some());
            assert_eq!(entry.get("unit"), Some(&Json::Str(m.unit.into())));
        }

        // And it reads back through the result-file parser.
        let text = format!(
            "{}\nnoise\n{line}\n",
            report::header_line("bnc-serial", 7, trace, 2, 8.0)
        );
        let runs = report::parse_runs(&text).expect("parses");
        assert_eq!(runs.len(), 1);
        assert_eq!(
            (runs[0].workload.as_str(), runs[0].seed, runs[0].trace),
            ("bnc-serial", 7, trace)
        );
        assert_eq!(runs[0].attempted, 10);
    }
    // A non-finite value stays JSON, and never reads back as a measurement.
    values.insert("pass_s", f64::NAN);
    let line = report::result_line(1, 1, &END_TO_END, &values);
    assert!(json::parse(&line).is_ok());
    let text = format!(
        "{}\n{line}\n",
        report::header_line("bnc-serial", 7, false, 2, 8.0)
    );
    assert!(report::parse_runs(&text).unwrap_err().contains("pass_s"));
    assert!(report::parse_runs("{\"correct\": true}").is_err());
    assert!(json::parse("{\"a\": 1,}").is_err());
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Json::Obj(top) = &doc else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strs = |key: &str| -> Vec<&str> {
        let Some(Json::Arr(a)) = doc.get(key) else {
            panic!("{key} is not an array");
        };
        a.iter()
            .map(|v| match v {
                Json::Str(s) => s.as_str(),
                _ => panic!("{key} holds a non-string"),
            })
            .collect()
    };
    assert_eq!(strs("paths"), ["examples/wallbench", "tests/wallbench"]);
    assert!(strs("command").contains(&"examples/wallbench/Cargo.toml"));
    let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

    let field = |v: &Json, k: &str| match v.get(k) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("{k}: expected a string, found {other:?}"),
    };
    let Some(Json::Arr(ws)) = doc.get("workloads") else {
        panic!("workloads is not an array");
    };
    let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
    assert_eq!(ws.len(), gated.len());
    for (decl, w) in ws.iter().zip(gated) {
        assert_eq!(field(decl, "name"), w.name);
        assert_eq!(field(decl, "why"), w.why);
    }
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let Some(Json::Arr(ms)) = doc.get(key) else {
            panic!("{key} is not an array");
        };
        assert_eq!(ms.len(), table.len(), "{key}");
        for (decl, m) in ms.iter().zip(table) {
            assert_eq!(field(decl, "name"), m.name);
            assert_eq!(field(decl, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(decl, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                decl.get("bound").and_then(Json::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    }
}

#[test]
fn checker_flags_wrong_answers() {
    let m = entry::gen_knapsack(12, 5);
    let reference = workloads::reference_optimum(&m).expect("reference solve");
    let good = workloads::run_solver(workloads::Solver::Host, &m).expect("solve");
    let answer = |objective: f64, x: &[f64], optimal: bool| {
        check_answer(
            &m,
            reference,
            &Answer {
                optimal,
                objective,
                x: Some(x),
            },
        )
    };
    assert_eq!(answer(good.objective, &good.x, true), Ok(()));
    // A tampered objective: off the reference, and off the point's worth.
    assert!(answer(good.objective + 1.0, &good.x, true)
        .unwrap_err()
        .contains("reference"));
    assert!(answer(f64::NAN, &good.x, true).is_err());
    // An infeasible point: every item packed.
    let all = vec![1.0; m.num_vars()];
    assert!(answer(good.objective, &all, true)
        .unwrap_err()
        .contains("integer-feasible"));
    // A fractional point.
    let mut frac = good.x.clone();
    frac[0] = 0.5;
    assert!(answer(good.objective, &frac, true).is_err());
    // A feasible point that is not worth what is claimed: the empty knapsack.
    let none = vec![0.0; m.num_vars()];
    assert!(answer(good.objective, &none, true)
        .unwrap_err()
        .contains("worth"));
    assert!(answer(good.objective, &good.x, false)
        .unwrap_err()
        .contains("Optimal"));
    // A served job's record carries no point; the objective is still held.
    let served = Answer {
        optimal: true,
        objective: reference - 2.0,
        x: None,
    };
    assert!(check_answer(&m, reference, &served).is_err());

    let fp = good.fingerprint;
    assert_eq!(check_fingerprint(&fp, &fp), Ok(()));
    let moved = Fingerprint {
        nodes: fp.nodes + 1,
        ..fp
    };
    assert!(check_fingerprint(&fp, &moved).is_err());
}

#[test]
fn compare_verdicts_on_synthetic_pairs() {
    let pass_s = END_TO_END.iter().find(|m| m.name == "pass_s").unwrap();
    let bound = pass_s.bound.unwrap();
    let base: Vec<f64> = (0..10).map(|i| 1.0 + 0.002 * i as f64).collect();
    let scaled = |f: f64| base.iter().map(|v| v * f).collect::<Vec<_>>();

    assert_eq!(judge(pass_s, &base, &base).verdict, Verdict::Ok);
    assert_eq!(judge(pass_s, &base, &scaled(0.7)).verdict, Verdict::Ok);
    assert_eq!(
        judge(pass_s, &base, &scaled(1.0 + bound * 0.9)).verdict,
        Verdict::Ok
    );
    let worse = judge(pass_s, &base, &scaled(1.0 + bound * 1.2));
    assert_eq!(worse.verdict, Verdict::Regressed);
    assert!(close(worse.ratio, 1.0 + bound * 1.2));
    // A side whose own spread exceeds the bound cannot resolve the change.
    let noisy: Vec<f64> = (0..10).map(|i| 1.0 + 0.1 * i as f64).collect();
    assert!(stats::spread(&noisy) > bound);
    assert_eq!(judge(pass_s, &base, &noisy).verdict, Verdict::Unresolved);
    assert_eq!(judge(pass_s, &noisy, &base).verdict, Verdict::Unresolved);

    // Whole files: equal sets pass, a regressed set fails, a moved count
    // fails the same-commit check only.
    let record = |seed: u64, pass: f64, sim: f64| RunRecord {
        workload: "bnc-serial".into(),
        seed,
        trace: false,
        attempted: 10,
        failed: 0,
        metrics: [
            ("pass_s", pass),
            ("sim_s", sim),
            ("peak_rss_mb", 8.0),
            ("setup_s", 0.5),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    };
    let a: Vec<RunRecord> = (0..10).map(|s| record(s, base[s as usize], 2.0)).collect();
    let (text, pass) = compare::compare(&a, &a, true);
    assert!(pass, "{text}");
    assert!(!text.contains("unresolved") && !text.contains("REGRESSED"));
    let slow: Vec<RunRecord> = (0..10)
        .map(|s| record(s, base[s as usize] * 1.5, 2.0))
        .collect();
    let (text, pass) = compare::compare(&a, &slow, false);
    assert!(!pass && text.contains("REGRESSED"), "{text}");
    let moved: Vec<RunRecord> = (0..10)
        .map(|s| record(s, base[s as usize], if s == 4 { 2.0001 } else { 2.0 }))
        .collect();
    assert!(compare::compare(&a, &moved, false).1);
    let (text, pass) = compare::compare(&a, &moved, true);
    assert!(
        !pass && text.contains("MISMATCH bnc-serial seed 4: sim_s"),
        "{text}"
    );
    let mut failing = a.clone();
    failing[0].failed = 1;
    assert!(!compare::compare(&a, &failing, false).1);
}

#[test]
fn spans_nest_and_export_chrome_json() {
    let mut s = spans::Spans::new(true);
    s.begin_pass();
    let out = s.scope("outer", |s| s.scope("inner", |_| 7));
    s.end_pass();
    assert_eq!(out, 7);
    let all = s.spans();
    assert_eq!(
        (all[0].name, all[0].parent, all[0].pass),
        ("outer", None, 1)
    );
    assert_eq!((all[1].name, all[1].parent), ("inner", Some(0)));
    assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
    let selfs = s.self_times();
    let total = all[0].end_ns - all[0].start_ns;
    assert_eq!(selfs["outer"].1 + selfs["inner"].1, total);
    let doc = json::parse(&s.to_chrome_json()).expect("loadable trace");
    assert_eq!(arr(doc.get("traceEvents")).len(), 2);

    let mut off = spans::Spans::new(false);
    assert_eq!(off.scope("x", |_| 1), 1);
    assert!(off.spans().is_empty());
}

#[test]
fn every_workload_passes_a_reduced_smoke_pass_twice() {
    for w in &WORKLOADS {
        let plan = workloads::plan(w.name, Scale::Smoke).unwrap();
        let mut spans = spans::Spans::new(false);
        let (mut inputs, wall_ns) = workloads::set_up(&plan, 3, &mut spans)
            .unwrap_or_else(|e| panic!("{}: set-up failed: {e}", w.name));
        assert!(!wall_ns.is_empty() && wall_ns.iter().all(|&ns| ns > 0));
        // The same seed gives the same inputs.
        let (again, _) = workloads::set_up(&plan, 3, &mut spans).unwrap();
        assert_eq!(labels(&inputs), labels(&again), "{}", w.name);

        let first = workloads::run_pass(&mut inputs, &mut spans);
        let second = workloads::run_pass(&mut inputs, &mut spans);
        for p in [&first, &second] {
            assert_eq!(p.failed, 0, "{}", w.name);
            assert_eq!(p.attempted as usize, inputs.operations(), "{}", w.name);
            assert!(p.nodes > 0 && p.wall_ns > 0, "{}", w.name);
        }
        assert_eq!(
            first.sim_ns.to_bits(),
            second.sim_ns.to_bits(),
            "{}",
            w.name
        );
        assert_eq!(first.nodes, second.nodes, "{}", w.name);
        // Every operation at its fastest can only undercut both passes.
        let slower = first.wall_ns.max(second.wall_ns) as f64 / 1e9;
        let fastest = workloads::fastest_pass_s(&[first.clone(), second.clone()]);
        assert!(fastest > 0.0 && fastest <= slower, "{}", w.name);
        for (name, v) in &first.counts {
            if report::metric(name).is_some_and(|m| m.exact) {
                assert_eq!(Some(v), second.counts.get(name), "{}: {name}", w.name);
            }
        }
    }
}

#[test]
fn a_seed_draws_its_pass_from_the_pools() {
    let pool: Vec<u64> = (100..120).collect();
    let drawn = workloads::draw(&pool, 15, 3, 1);
    assert_eq!(drawn.len(), 15);
    assert_eq!(drawn, workloads::draw(&pool, 15, 3, 1));
    assert_ne!(drawn, workloads::draw(&pool, 15, 4, 1));
    assert_ne!(drawn, workloads::draw(&pool, 15, 3, 2));
    let distinct: BTreeSet<u64> = drawn.iter().copied().collect();
    assert!(distinct.len() == 15 && distinct.iter().all(|s| pool.contains(s)));
    assert_eq!(workloads::draw(&pool, 99, 3, 1).len(), pool.len());
    assert_eq!(
        workloads::fastest_sum_s(&[&[3_000_000_000, 1], &[1_000_000_000, 5]]),
        1.000000001
    );

    // Every full-size pool holds distinct seeds, more of them than a pass
    // takes: another seed is another pass.
    for w in &WORKLOADS {
        let (pools, takes): (Vec<&[u64]>, Vec<usize>) =
            match workloads::plan(w.name, Scale::Full).unwrap() {
                workloads::Plan::Solves(slots) => slots.iter().map(|s| (s.pool, s.take)).unzip(),
                workloads::Plan::Serve(spec) => (vec![spec.pool], vec![spec.take]),
            };
        for (pool, take) in pools.into_iter().zip(takes) {
            let distinct: BTreeSet<u64> = pool.iter().copied().collect();
            assert_eq!(distinct.len(), pool.len(), "{}", w.name);
            assert!(take >= 1 && take < pool.len(), "{}", w.name);
        }
    }
}

fn labels(inputs: &Inputs) -> Vec<String> {
    match inputs {
        Inputs::Solves { ops, .. } => ops.iter().map(|o| o.label.clone()).collect(),
        Inputs::Serve { tapes, .. } => tapes
            .iter()
            .flat_map(|t| &t.jobs)
            .map(|j| format!("{}@{}", j.instance.name, j.arrival_ns))
            .collect(),
    }
}

#[test]
fn a_failing_operation_is_counted_not_dropped() {
    let plan = workloads::plan("bnc-serial", Scale::Smoke).unwrap();
    let mut spans = spans::Spans::new(false);
    let (mut inputs, _) = workloads::set_up(&plan, 3, &mut spans).unwrap();
    let Inputs::Solves { ops, .. } = &mut inputs else {
        panic!("bnc-serial is made of solves");
    };
    ops[0].reference += 1.0; // as if the program had returned a wrong optimum
    let first = workloads::run_pass(&mut inputs, &mut spans);
    assert_eq!(first.failed, 1);
    let Inputs::Solves { ops, .. } = &mut inputs else {
        unreachable!();
    };
    // As if a count had moved between passes.
    ops[1]
        .expect
        .as_mut()
        .expect("fixed by the first pass")
        .nodes += 1;
    let pass = workloads::run_pass(&mut inputs, &mut spans);
    assert_eq!(pass.failed, 2);
    assert_eq!(pass.attempted as usize, inputs.operations());
}

#[test]
fn reduced_runs_report_every_metric() {
    let options = |workload: &str, trace: bool| run::Options {
        workload: workload.into(),
        seed: 3,
        seconds: 0.05,
        trace,
        trace_out: None,
        scale: Scale::Smoke,
    };
    for w in ["bnc-serial", "serve-mix"] {
        let out = run::run(&options(w, false)).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert_eq!(out.failed, 0, "{w}");
        assert!(out.attempted > 0);
        for m in &END_TO_END {
            let v = out.values[m.name];
            assert!(v > 0.0 && v.is_finite(), "{w}: {} = {v}", m.name);
        }
        assert!(json::parse(&out.result_line()).is_ok());
    }

    let trace_file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wallbench-trace.json");
    let mut opts = options("wave-simplex", true);
    opts.trace_out = Some(trace_file.clone());
    let out = run::run(&opts).expect("traced run");
    assert_eq!(out.failed, 0);
    for m in &PER_LAYER {
        assert!(
            out.values.contains_key(m.name),
            "traced run lacks {}",
            m.name
        );
        assert!(out.values[m.name].is_finite(), "{}", m.name);
    }
    for positive in [
        "linalg.spmv_ns_per_nnz",
        "gpu.launches",
        "gpu.charge_ns",
        "lp.host.root_us",
        "lp.wave.supersteps",
        "lp.wave.superstep_us",
        "tree.cycle_ns",
        "core.nodes",
        "prop.rounds",
        "prop.propagate_us",
        "problems.generate_ms",
        "trace.events_per_pass",
        "bench.pass_s",
    ] {
        assert!(out.values[positive] > 0.0, "{positive} should be measured");
    }
    for absent in ["serve.jobs", "lp.fo.supersteps", "parallel.steals"] {
        assert_eq!(out.values[absent], 0.0, "{absent} does not run here");
    }
    let trace = std::fs::read_to_string(&trace_file).expect("trace written");
    let _ = std::fs::remove_file(&trace_file);
    let doc = json::parse(&trace).expect("loadable Chrome trace");
    assert!(!arr(doc.get("traceEvents")).is_empty());
}
