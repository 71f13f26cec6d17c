//! `Warm::root_basis` on both cluster shapes (the flat star and a
//! `cluster:<ranks>x<fanout>` hierarchy): the root basis a prior solve
//! reports warm-starts a re-solve of the same instance to the same answer
//! for fewer simplex pivots, and a basis of the wrong shape is dropped for a
//! cold root, never an error.

use gmip_core::MipStatus;
use gmip_lp::Basis;
use gmip_parallel::{
    solve_hierarchical, solve_parallel, HierarchyConfig, ParallelConfig, ParallelStats, Warm,
};
use gmip_problems::generators::knapsack::knapsack;
use gmip_problems::MipInstance;

/// Status, objective and statistics of one solve.
type Outcome = (MipStatus, f64, ParallelStats);

fn flat(inst: &MipInstance, root_basis: Option<Basis>) -> Outcome {
    let cfg = ParallelConfig {
        workers: 3,
        gpu_mem: 1 << 24,
        warm: Warm {
            root_basis,
            seed: None,
        },
        ..Default::default()
    };
    let r = solve_parallel(inst, cfg).expect("flat solve");
    (r.status, r.objective, r.stats)
}

fn hierarchical(inst: &MipInstance, root_basis: Option<Basis>) -> Outcome {
    let cfg = ParallelConfig {
        workers: 8,
        gpu_mem: 1 << 24,
        warm: Warm {
            root_basis,
            seed: None,
        },
        ..Default::default()
    };
    let hcfg = HierarchyConfig {
        fanout: 2,
        ..Default::default()
    };
    let r = solve_hierarchical(inst, cfg, hcfg).expect("hierarchical solve");
    (r.status, r.objective, r.stats)
}

fn check(solve: fn(&MipInstance, Option<Basis>) -> Outcome) {
    let inst = knapsack(12, 0.5, 3);
    let (status, objective, cold) = solve(&inst, None);
    assert_eq!(status, MipStatus::Optimal);
    let basis = cold
        .root_basis
        .expect("the root branched, so its basis is reported");

    let (warm_status, warm_objective, warm) = solve(&inst, Some(basis));
    assert_eq!(warm_status, status);
    assert_eq!(warm_objective, objective);
    assert!(
        warm.lp_iterations < cold.lp_iterations,
        "warm root {} iterations vs cold {}",
        warm.lp_iterations,
        cold.lp_iterations
    );

    let wrong_shape = Basis::with_basic_cols(vec![0], 2);
    let (bad_status, bad_objective, bad) = solve(&inst, Some(wrong_shape));
    assert_eq!(bad_status, status);
    assert_eq!(bad_objective, objective);
    assert_eq!(
        bad.lp_iterations, cold.lp_iterations,
        "a misfit basis means a cold root"
    );
}

#[test]
fn flat_star_warm_starts_its_root() {
    check(flat);
}

#[test]
fn hierarchy_warm_starts_its_root() {
    check(hierarchical);
}
