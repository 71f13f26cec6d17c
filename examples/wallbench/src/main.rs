//! `wallbench`: the repository's wall-clock + simulated-time benchmark.
//!
//! ```text
//! wallbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//!           [--trace-out <file>]
//! wallbench compare <a> <b> [--same-commit]
//! ```
//!
//! One process per workload run. The last line of standard output is the
//! run's result: one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `README.md` beside this package for the glossary.

mod alloc;
mod check;
mod compare;
mod entry;
mod json;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: wallbench --workload <name> [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--trace-out <file>]\n       wallbench compare <a> <b> [--same-commit]";

fn parse(args: &[String]) -> Result<run::Options, String> {
    let mut opts = run::Options {
        workload: String::new(),
        seed: 3,
        seconds: 8.0,
        trace: false,
        trace_out: None,
        scale: workloads::Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                opts.seed = value()?.parse().map_err(|_| "--seed takes a u64")?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => opts.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.workload.is_empty() {
        let names: Vec<&str> = report::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload is required: one of {}",
            names.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return ExitCode::from(compare::main(&args[1..]) as u8);
    }
    let outcome = parse(&args).and_then(|opts| run::run(&opts));
    match outcome {
        Ok(o) => {
            println!("{}", o.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
