//! Soundness of the `gmip-prop` propagation layer against the `gmip-verify`
//! exact rational oracle.
//!
//! Propagation is only allowed to *shrink* a node's box around every
//! feasible integer point — it must never cut off the optimum and never
//! flag a feasible instance infeasible. The fix-and-propagate dive is only
//! allowed to propose points that are exactly feasible. These properties
//! are checked on randomized instances, plus a 200-seed deterministic sweep
//! of full propagation-enabled solves, every one compared to the exact
//! oracle's proven optimum.
//!
//! The node LP under all of this is held to the same oracle: on random pure
//! LPs the float simplex reports the exact simplex's status and optimum.

use gmip::core::{MipConfig, MipSolver, MipStatus};
use gmip::lp::{HostEngine, LpConfig, LpSolver, LpStatus, StandardLp};
use gmip::problems::generators::{random_mip, RandomMipConfig};
use gmip::prop::Propagator;
use gmip::verify::{self, ExactLp, ExactStatus, OracleStatus, Rat};
use proptest::prelude::*;

fn config(propagate: bool, heur_period: usize) -> MipConfig {
    let mut cfg = MipConfig::default();
    cfg.propagate = propagate;
    cfg.heuristics.fix_and_propagate_period = heur_period;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// The propagated root box still contains the exact oracle's optimal
    /// point, and an instance flagged infeasible by propagation is exactly
    /// infeasible. Propagation is also idempotent: a second pass proves
    /// the fixpoint with zero further tightenings.
    #[test]
    fn propagated_bounds_are_sound_against_the_exact_oracle(
        rows in 2usize..6,
        cols in 4usize..11,
        density in 0.3f64..0.9,
        seed in 0u64..5000,
    ) {
        let inst = random_mip(&RandomMipConfig {
            rows,
            cols,
            density,
            integral_fraction: 1.0,
            seed,
        });
        let p = Propagator::new(&inst);
        let (mut lb, mut ub) = p.node_box(&[]);
        let out = p.propagate(&mut lb, &mut ub, 16);
        let oracle = verify::solve_oracle(&inst).expect("oracle");
        if out.infeasible {
            prop_assert_eq!(oracle.status, OracleStatus::Infeasible,
                "propagation flagged a feasible instance infeasible");
        } else if oracle.status == OracleStatus::Optimal {
            for (j, xj) in oracle.x.iter().enumerate() {
                let v = xj.approx();
                prop_assert!(
                    lb[j] - 1e-9 <= v && v <= ub[j] + 1e-9,
                    "x{j} = {v} of the exact optimum cut off by [{}, {}]",
                    lb[j], ub[j]
                );
            }
            // Idempotence: the fixpoint is a fixpoint.
            let (mut lb2, mut ub2) = (lb.clone(), ub.clone());
            let again = p.propagate(&mut lb2, &mut ub2, 16);
            prop_assert!(!again.infeasible);
            prop_assert_eq!(again.tightenings, 0, "fixpoint moved on re-propagation");
        }
    }

    /// Every incumbent a fix-and-propagate dive proposes re-checks feasible
    /// under exact rational arithmetic, and the propagation-enabled solve
    /// still lands the proven optimum.
    #[test]
    fn heuristic_incumbents_recheck_exactly_feasible(
        rows in 2usize..5,
        cols in 4usize..10,
        seed in 0u64..5000,
    ) {
        let inst = random_mip(&RandomMipConfig {
            rows,
            cols,
            density: 0.6,
            integral_fraction: 1.0,
            seed,
        });
        let mut s = MipSolver::host_baseline(inst.clone(), config(true, 2));
        let r = s.solve().expect("solve");
        let oracle = verify::solve_oracle(&inst).expect("oracle");
        match oracle.status {
            OracleStatus::Optimal => {
                prop_assert_eq!(r.status, MipStatus::Optimal);
                let exact = oracle.objective.as_ref().expect("optimal").approx();
                prop_assert!((r.objective - exact).abs() < 1e-6,
                    "got {} oracle proved {exact}", r.objective);
                // Exact rational re-check of the served incumbent — dive
                // or branch-and-bound, it must be *exactly* feasible.
                let checked = verify::check_incumbent(&inst, &r.x, r.objective, 1e-5);
                prop_assert!(checked.is_ok(), "incumbent: {:?}", checked);
            }
            OracleStatus::Infeasible => {
                prop_assert_eq!(r.status, MipStatus::Infeasible);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The float simplex's *optimum*, not just its feasibility, agrees with
    /// the exact rational simplex on random pure LPs: the same status, and
    /// objectives within `1e-6·(1 + |obj|)`. Coefficients sit on the 1/64
    /// grid, so the exact arithmetic stays cheap.
    #[test]
    fn float_simplex_matches_the_exact_simplex_on_random_lps(
        rows in 2usize..7,
        cols in 3usize..12,
        density in 0.2f64..0.9,
        seed in 0u64..10_000,
    ) {
        let inst = random_mip(&RandomMipConfig {
            rows,
            cols,
            density,
            integral_fraction: 0.0, // pure LPs
            seed,
        });
        let std = StandardLp::from_instance(&inst, &[]);
        let mut lp = LpSolver::new(std, LpConfig::standard(), |a| HostEngine::new(a.clone()));
        let float = lp.solve().expect("float simplex");
        let exact_lp = ExactLp::<Rat>::from_instance(&inst, &[]).expect("exact lowering");
        let exact = verify::solve_exact(&exact_lp).expect("exact simplex");
        let status = match exact.status {
            ExactStatus::Optimal => LpStatus::Optimal,
            ExactStatus::Infeasible => LpStatus::Infeasible,
            ExactStatus::Unbounded => LpStatus::Unbounded,
        };
        prop_assert_eq!(float.status, status);
        if let Some(obj) = exact.objective {
            let obj = obj.approx();
            prop_assert!(
                (float.objective - obj).abs() <= 1e-6 * (1.0 + obj.abs()),
                "float simplex {} vs exact {obj}", float.objective
            );
        }
    }
}

/// The acceptance sweep: 200 deterministic randomized instances solved
/// with propagation *and* the fix-and-propagate dive enabled, every
/// objective held to the exact oracle's proven optimum. Zero
/// disagreements tolerated.
#[test]
fn two_hundred_propagation_enabled_solves_match_the_exact_oracle() {
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    for seed in 0..200u64 {
        let inst = random_mip(&RandomMipConfig {
            rows: 2 + (seed % 4) as usize,
            cols: 5 + (seed % 5) as usize,
            density: 0.4 + 0.1 * (seed % 5) as f64,
            integral_fraction: 1.0,
            seed: 10_000 + seed,
        });
        let mut s = MipSolver::host_baseline(inst.clone(), config(true, 3));
        let r = s.solve().expect("solve");
        let oracle = verify::solve_oracle(&inst).expect("oracle");
        match oracle.status {
            OracleStatus::Optimal => {
                optimal += 1;
                let exact = oracle.objective.as_ref().expect("optimal").approx();
                assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
                assert!(
                    (r.objective - exact).abs() < 1e-6,
                    "seed {seed}: propagation-enabled solve {} vs proven optimum {exact}",
                    r.objective
                );
                verify::check_incumbent(&inst, &r.x, r.objective, 1e-5)
                    .unwrap_or_else(|e| panic!("seed {seed}: incumbent re-check: {e}"));
            }
            OracleStatus::Infeasible => {
                infeasible += 1;
                assert_eq!(r.status, MipStatus::Infeasible, "seed {seed}");
            }
            other => panic!("seed {seed}: unexpected oracle status {other:?}"),
        }
    }
    // The sweep must actually exercise both outcomes (the generator always
    // admits x = 0, so "optimal" dominates — but assert it is not vacuous).
    assert!(
        optimal >= 150,
        "only {optimal} optimal instances in the sweep"
    );
    assert_eq!(optimal + infeasible, 200);
}
