//! The rolling re-solve loop the serving tier exists for: a planner
//! re-submits the same packing model every period with slightly relaxed
//! capacities (new trucks, updated forecasts). The solution pool turns
//! that stream into exact cache hits (duplicates are answered without
//! touching the cluster) and warm starts (perturbed models ride the
//! pooled incumbent and root basis to a cheaper proof).
//!
//! Run with: `cargo run --release --example resolve_loop`

use gmip::parallel::{SolveOptions, SolvePath, Solved};
use gmip::problems::generators::bin_packing;
use gmip::serve::{Disposition, JobSpec, ServeConfig, Service, TenantSpec};
use gmip::trace::names;

fn main() {
    // Ten planning periods: period 0 solves cold, even periods re-submit
    // the previous model verbatim, odd periods relax every bin capacity
    // by 2% (coefficients are negative on the bin-open variables).
    let base = bin_packing(6, 10.0, 1);
    println!("instance: {} ({} vars)\n", base.name, base.num_vars());
    let mut model = base.clone();
    let mut jobs = Vec::new();
    for period in 0..10u64 {
        if period > 0 && period % 2 == 1 {
            for c in &mut model.cons {
                for (_, v) in &mut c.coeffs {
                    if *v < 0.0 {
                        *v *= 1.02;
                    }
                }
            }
        }
        jobs.push(JobSpec {
            id: period,
            tenant: 0,
            arrival_ns: period as f64 * 1.0e9,
            width: 2,
            instance: model.clone(),
        });
    }

    // What each odd period would cost without the pool.
    let (path, cold) = (SolvePath::Cluster(2, None), SolveOptions::default());
    let cold_nodes: Vec<usize> = jobs
        .iter()
        .map(|j| match path.run(&j.instance, &cold) {
            Ok(Solved::Cluster(r)) => r.stats.nodes,
            other => panic!("cold solve: {other:?}"),
        })
        .collect();

    let report = Service::new(
        ServeConfig {
            ranks: 2,
            ..ServeConfig::default()
        },
        vec![TenantSpec::new("planner", 1)],
    )
    .run(jobs);

    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>12} {:>8}",
        "period", "disposition", "objective", "served nodes", "cold nodes", "saved"
    );
    for r in &report.records {
        let cold = cold_nodes[r.id as usize];
        let saved = if cold > 0 && r.nodes <= cold {
            format!("{:.0}%", 100.0 * (cold - r.nodes) as f64 / cold as f64)
        } else {
            "-".into()
        };
        println!(
            "{:>6} {:>12} {:>10.1} {:>12} {:>12} {:>8}",
            r.id,
            format!("{:?}", r.disposition),
            r.objective,
            r.nodes,
            cold,
            saved
        );
    }

    let exact = report.metrics.counter(names::SERVE_CACHE_EXACT_HITS);
    let warm = report.metrics.counter(names::SERVE_CACHE_WARM_HITS);
    println!("\nexact cache hits: {exact}  warm starts: {warm}");
    assert!(exact > 0.0, "duplicate periods should hit the exact cache");
    assert!(warm > 0.0, "relaxed periods should warm-start");
    assert!(
        report.records.iter().any(
            |r| r.disposition == Disposition::SolvedWarm && r.nodes < cold_nodes[r.id as usize]
        ),
        "at least one warm re-solve should beat its cold node count"
    );
}
