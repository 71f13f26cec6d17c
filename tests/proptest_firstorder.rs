//! Property-based safety tests of the first-order (restarted PDHG) node
//! engine, cross-checked against the `gmip-verify` exact rational oracle:
//! the dual-feasibility-adjusted bound is valid at *arbitrary* dual
//! vectors and at every dual iterate the engine actually retires with —
//! so inexact first-order iterates can never prune a true optimum. Half the
//! engine runs are on a badly scaled family (one row ×1e3), which the
//! engine's equilibration has to even out.

use gmip::linalg::CsrMatrix;
use gmip::lp::firstorder::tighten_bounds;
use gmip::lp::{safe_dual_bound, FirstOrderWaveEngine, FoOutcome, PdhgConfig, StandardLp};
use gmip::problems::generators::{random_mip, RandomMipConfig};
use gmip::problems::MipInstance;
use gmip_verify::{solve_oracle, OracleStatus};
use proptest::prelude::*;

/// A `random_mip` instance; with `big` set, row `big % rows` is scaled by
/// 1e3 (coefficients and right-hand side), the same row badly scaled.
fn instance(rows: usize, cols: usize, density: f64, seed: u64, big: Option<usize>) -> MipInstance {
    let mut inst = random_mip(&RandomMipConfig {
        rows,
        cols,
        density,
        integral_fraction: 1.0,
        seed,
    });
    if let Some(row) = big {
        let con = &mut inst.cons[row % rows];
        con.coeffs.iter_mut().for_each(|(_, v)| *v *= 1e3);
        con.rhs *= 1e3;
    }
    inst
}

/// The oracle-certified optimum (source == internal sense: `random_mip`
/// instances maximize), or `None` if the oracle proves infeasibility.
fn oracle_optimum(m: &MipInstance) -> Option<f64> {
    let r = solve_oracle(m).expect("oracle");
    match r.status {
        OracleStatus::Optimal => Some(r.objective.expect("optimal => objective").approx()),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// The safe dual bound dominates the exact MIP optimum at completely
    /// arbitrary dual vectors — even ones no PDHG trajectory would visit.
    /// (The bound over-states the node LP, which over-states the MIP.)
    #[test]
    fn safe_bound_dominates_oracle_at_arbitrary_duals(
        rows in 2usize..6,
        cols in 4usize..10,
        density in 0.3f64..0.9,
        seed in 0u64..5000,
        y_raw in proptest::collection::vec(-10.0f64..10.0, 6),
    ) {
        let inst = instance(rows, cols, density, seed, None);
        let Some(exact) = oracle_optimum(&inst) else { return Ok(()) };
        let std = StandardLp::from_instance(&inst, &[]);
        let csr = CsrMatrix::from_dense(&std.a);
        let slack_rows: Vec<(usize, f64)> =
            std.slacks.iter().map(|&(_, r, cf)| (r, cf)).collect();
        let y: Vec<f64> = (0..std.m()).map(|i| y_raw[i % y_raw.len()]).collect();
        let bound = safe_dual_bound(&csr, &std.b, &std.c, &std.lb, &std.ub, &slack_rows, &y);
        prop_assert!(
            bound >= exact - 1e-6,
            "safe bound {bound} cuts off the exact optimum {exact} at y={y:?}"
        );
        // Implied-bound tightening never cuts the optimum either: the
        // bound stays valid on the tightened box.
        let (mut lb, mut ub) = (std.lb.clone(), std.ub.clone());
        if tighten_bounds(&csr, &std.b, &mut lb, &mut ub) {
            let tightened =
                safe_dual_bound(&csr, &std.b, &std.c, &lb, &ub, &slack_rows, &y);
            prop_assert!(
                tightened >= exact - 1e-6,
                "tightened safe bound {tightened} cuts off the exact optimum {exact}"
            );
        }
    }

    /// An actual engine run — loose tolerance, tight iteration cap, so
    /// lanes retire on genuinely inexact iterates — still never states a
    /// bound below the exact optimum, and never declares a feasible
    /// instance's root LP infeasible.
    #[test]
    fn engine_retirement_bound_dominates_oracle(
        rows in 2usize..6,
        cols in 4usize..10,
        seed in 0u64..5000,
        max_iters in 8usize..120,
        // Below 6, the row scaled by 1e3 (mod `rows`); from 6, none.
        scaled_row in 0usize..12,
    ) {
        let inst = instance(rows, cols, 0.5, seed, (scaled_row < 6).then_some(scaled_row));
        let Some(exact) = oracle_optimum(&inst) else { return Ok(()) };
        let std = StandardLp::from_instance(&inst, &[]);
        let cfg = PdhgConfig {
            tol: 1e-3,
            max_iters,
            ..PdhgConfig::default()
        };
        let mut fo = FirstOrderWaveEngine::new(gmip::gpu::Accel::gpu(1), &std, 1, cfg)
            .expect("engine");
        fo.load_lane(0, 0, &[], None).expect("load");
        fo.run_to_retire();
        let report = fo.take_lane(0).expect("take");
        prop_assert_ne!(
            report.outcome,
            FoOutcome::Infeasible,
            "root LP of an oracle-feasible MIP declared infeasible"
        );
        prop_assert!(
            report.safe_bound >= exact - 1e-6,
            "{:?} lane retired with bound {} below the exact optimum {exact}",
            report.outcome,
            report.safe_bound
        );
    }
}
