//! Regenerates the reproduction's experiment tables.
//!
//! Usage: `report [--trace <dir>] [--bench-json <dir>] [--scale-smoke <dir>]
//! [all | <exp-id>...]` where exp ids are listed in
//! `gmip_bench::experiments::ALL` (f1, e1, e2, e3a, e3b, e3c, e4–e11).
//! With `--trace`, each experiment's span stream is captured and written
//! to `<dir>/<exp-id>.trace.json` in Chrome trace-event format (load at
//! ui.perfetto.dev). With `--bench-json`, the deterministic simulated-ns
//! records are written to `<dir>/BENCH_e4.json` (the E4 batched-wave
//! sweep), `<dir>/BENCH_serve.json` (the E9 serving SLO sweep),
//! `<dir>/BENCH_scale.json` (the E10 rank-scaling sweep),
//! `<dir>/BENCH_e11.json` (the E11 node-LP engine crossover sweep),
//! `<dir>/BENCH_e12.json` (the E12 time-to-first-incumbent grid:
//! propagation on/off × fix-and-propagate dive on/off),
//! `<dir>/BENCH_e13.json` (the E13 executing-backend identity + wall-clock
//! scaling sweep; its `wall` keys are real time and exempt from the gate), and
//! `<dir>/BENCH_baseline.json` (the full regression baseline the
//! `bench-regression` CI job compares against). With `--scale-smoke`,
//! only the E10 4/64/256/1024-rank cells are re-run and written to
//! `<dir>/BENCH_scale_smoke.json` (the `scale-smoke` CI job compares them
//! against the committed full record); no experiments are printed unless
//! ids are also given.

use gmip_bench::{baseline, experiments};

fn dir_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            if i >= args.len() {
                eprintln!("{flag} needs a directory");
                std::process::exit(2);
            }
            Some(args.remove(i))
        }
        None => None,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_dir = dir_flag(&mut args, "--trace");
    let bench_dir = dir_flag(&mut args, "--bench-json");
    let smoke_dir = dir_flag(&mut args, "--scale-smoke");
    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        // `--scale-smoke` with no explicit ids runs only the smoke subset.
        if smoke_dir.is_some() && args.is_empty() {
            Vec::new()
        } else {
            experiments::ALL.to_vec()
        }
    } else {
        args.iter().map(String::as_str).collect()
    };
    for dir in [&trace_dir, &bench_dir, &smoke_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(2);
        }
    }
    for (i, id) in ids.iter().enumerate() {
        let session = trace_dir
            .as_ref()
            .map(|_| gmip_trace::TraceSession::start());
        match experiments::run(id) {
            Some(text) => {
                if i > 0 {
                    println!("\n{}\n", "=".repeat(78));
                }
                print!("{text}");
                if let (Some(session), Some(dir)) = (session, &trace_dir) {
                    let trace = session.finish();
                    let path = format!("{dir}/{id}.trace.json");
                    match std::fs::write(&path, trace.to_chrome_json()) {
                        Ok(()) => eprintln!("trace: {} events -> {path}", trace.len()),
                        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
                    }
                }
            }
            None => {
                eprintln!("unknown experiment `{id}`; known: {:?}", experiments::ALL);
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = &bench_dir {
        for (path, json) in [
            (
                format!("{dir}/BENCH_e4.json"),
                experiments::e4::bench_json(),
            ),
            (
                format!("{dir}/BENCH_serve.json"),
                experiments::e9::bench_json(),
            ),
            (
                format!("{dir}/BENCH_scale.json"),
                experiments::e10::bench_json(),
            ),
            (
                format!("{dir}/BENCH_e11.json"),
                experiments::e11::bench_json(),
            ),
            (
                format!("{dir}/BENCH_e12.json"),
                experiments::e12::bench_json(),
            ),
            (
                format!("{dir}/BENCH_e13.json"),
                experiments::e13::bench_json(),
            ),
            (format!("{dir}/BENCH_baseline.json"), baseline::to_json()),
        ] {
            match std::fs::write(&path, json) {
                Ok(()) => eprintln!("bench: wrote {path}"),
                Err(e) => {
                    eprintln!("bench: cannot write {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    if let Some(dir) = &smoke_dir {
        let path = format!("{dir}/BENCH_scale_smoke.json");
        match std::fs::write(&path, experiments::e10::smoke_json()) {
            Ok(()) => eprintln!("bench: wrote {path}"),
            Err(e) => {
                eprintln!("bench: cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
}
