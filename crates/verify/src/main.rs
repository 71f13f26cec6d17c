//! `gmip-verify` — exact-oracle verification and differential fuzzing.
//!
//! Usage:
//!   gmip-verify --fuzz <n> [--seed <s>] [--no-chaos] [--no-metamorphic]
//!               [--no-shrink] [--repro-dir <dir>] [--tol <t>]
//!   gmip-verify --oracle <file.mps>
//!
//! `--fuzz` runs the differential fuzz loop (every row of the solve-path
//! table against the exact rational oracle); exit code 1 on any mismatch,
//! each printed with its shrunk repro and the `gmip solve` command that
//! replays it. `--oracle` solves one MPS file exactly and prints the
//! rational optimum.

use gmip_verify::{run_fuzz, solve_oracle, FuzzConfig, OracleStatus};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: gmip-verify --fuzz <n> [--seed <s>] [--no-chaos] \
         [--no-metamorphic] [--no-shrink] [--repro-dir <dir>] [--tol <t>]\n\
         \x20      gmip-verify --oracle <file.mps>"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    match args.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("gmip-verify: {flag} needs a value");
            usage();
        }
    }
}

fn oracle_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gmip-verify: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let instance = match gmip_problems::mps::read_mps(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gmip-verify: cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match solve_oracle(&instance) {
        Ok(r) => {
            match r.status {
                OracleStatus::Optimal => {
                    let obj = r.objective.expect("optimal has objective");
                    println!(
                        "{}: Optimal, exact objective {} (~{}), {} nodes",
                        instance.name,
                        obj,
                        obj.approx(),
                        r.nodes
                    );
                }
                OracleStatus::Infeasible => {
                    println!("{}: Infeasible ({} nodes)", instance.name, r.nodes)
                }
                OracleStatus::Unbounded => {
                    println!("{}: Unbounded ({} nodes)", instance.name, r.nodes)
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gmip-verify: oracle failed on {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut cfg = FuzzConfig::default();
    let mut fuzz = false;
    let mut oracle: Option<String> = None;
    let mut args = std::env::args();
    args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fuzz" => {
                fuzz = true;
                cfg.cases = parse(&mut args, "--fuzz");
            }
            "--seed" => cfg.seed = parse(&mut args, "--seed"),
            "--tol" => cfg.tol = parse(&mut args, "--tol"),
            "--no-chaos" => cfg.chaos = false,
            "--no-metamorphic" => cfg.metamorphic = false,
            "--no-shrink" => cfg.shrink = false,
            "--repro-dir" => {
                cfg.repro_dir = Some(PathBuf::from(parse::<String>(&mut args, "--repro-dir")))
            }
            "--oracle" => oracle = Some(parse(&mut args, "--oracle")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gmip-verify: unknown flag {other}");
                usage();
            }
        }
    }
    if let Some(path) = oracle {
        return oracle_file(&path);
    }
    if !fuzz {
        usage();
    }
    if cfg.repro_dir.is_none() {
        cfg.repro_dir = Some(PathBuf::from("target/gmip-verify-repros"));
    }
    println!(
        "gmip-verify: fuzzing {} cases (seed {}, chaos {}, metamorphic {})",
        cfg.cases, cfg.seed, cfg.chaos, cfg.metamorphic
    );
    match run_fuzz(&cfg) {
        Ok(out) => {
            println!(
                "gmip-verify: {} cases, {} strategy checks, {} certificates, \
                 {} metamorphic checks, {} mismatches",
                out.cases,
                out.checks,
                out.certificates,
                out.metamorphic_checks,
                out.mismatches.len()
            );
            if out.ok() {
                println!("gmip-verify: clean — every strategy agrees with the exact oracle");
                ExitCode::SUCCESS
            } else {
                for m in &out.mismatches {
                    eprintln!("MISMATCH {} [{}]: {}", m.case, m.strategy, m.detail);
                    if let Some(s) = &m.shrunk {
                        eprintln!("  shrunk to {} vars / {} cons", s.num_vars(), s.num_cons());
                    }
                    if let Some(p) = &m.repro {
                        eprintln!("  repro: {}", p.display());
                    }
                    if let Some(c) = &m.command {
                        eprintln!("  replay: {c}");
                    }
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gmip-verify: fuzz run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
