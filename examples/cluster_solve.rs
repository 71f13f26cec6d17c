//! Supervisor–worker parallel branch and bound on the simulated cluster
//! (the UG pattern of the paper's Section 2.3): worker-count sweep with
//! deterministic simulated makespans, plus a checkpoint/restart
//! demonstration of the consistent-snapshot machinery (Section 2.1).
//!
//! Run with: `cargo run --release --example cluster_solve`

use gmip::core::MipStatus;
use gmip::parallel::{solve_parallel, ParallelConfig, SolveOptions, SolvePath, Solved, Supervisor};
use gmip::problems::generators::knapsack;

fn main() {
    let instance = knapsack(28, 0.5, 7);
    println!(
        "instance: {} ({} binaries)\n",
        instance.name,
        instance.num_vars()
    );
    println!(
        "{:>8} {:>10} {:>8} {:>12} {:>10} {:>10}",
        "workers", "objective", "nodes", "makespan ms", "speedup", "idle %"
    );
    let mut t1 = None;
    let opts = SolveOptions {
        gpu_mem: 1 << 26,
        ..Default::default()
    };
    for workers in [1usize, 2, 4, 8, 16] {
        let r = match SolvePath::Cluster(workers, None).run(&instance, &opts) {
            Ok(Solved::Cluster(r)) => r,
            other => panic!("parallel solve: {other:?}"),
        };
        assert_eq!(r.status, MipStatus::Optimal);
        let ms = r.stats.makespan_ns / 1e6;
        let speedup = t1.get_or_insert(ms).max(1e-12) / ms.max(1e-12);
        println!(
            "{:>8} {:>10.1} {:>8} {:>12.3} {:>10.2} {:>10.1}",
            workers,
            r.objective,
            r.stats.nodes,
            ms,
            speedup,
            100.0 * r.stats.idle_fraction
        );
    }

    // Checkpoint/restart: stop after a handful of nodes, snapshot, resume.
    // Snapshots are a supervisor option, not one of the solve-path table's.
    println!("\ncheckpoint/restart demonstration:");
    let cfg = ParallelConfig {
        workers: 4,
        gpu_mem: 1 << 26,
        node_limit: 10,
        checkpoint_every: Some(4),
        ..Default::default()
    };
    let partial = solve_parallel(&instance, cfg.clone()).expect("partial run");
    let snap = partial.snapshots.last().expect("snapshot taken").clone();
    println!(
        "  stopped at {} nodes; snapshot carries {} open subproblems ({} B)",
        partial.stats.nodes,
        snap.len(),
        snap.bytes()
    );
    let resumed = Supervisor::restore(
        instance.clone(),
        ParallelConfig {
            node_limit: 1_000_000,
            checkpoint_every: None,
            ..cfg
        },
        &snap,
    )
    .expect("restore")
    .run()
    .expect("resumed run");
    println!(
        "  resumed → {:?}, objective {}",
        resumed.status, resumed.objective
    );
    assert_eq!(resumed.status, MipStatus::Optimal);
}
