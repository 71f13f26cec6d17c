//! Property-based tests of the full solver stack on randomly generated
//! MIPs: the branch-and-cut optimum must match exhaustive enumeration, LP
//! relaxation bounds must dominate, and host/device engines must agree.

use gmip::core::{MipConfig, MipSolver, MipStatus};
use gmip::gpu::Accel;
use gmip::lp::DeviceEngine;
use gmip::problems::generators::{random_mip, RandomMipConfig};
use gmip::problems::MipInstance;
use proptest::prelude::*;

/// Exhaustive optimum over binary assignments (continuous vars solved as
/// all-binary instances here, so enumeration is exact).
fn brute_force_binary(m: &MipInstance) -> Option<f64> {
    let n = m.num_vars();
    assert!(n <= 16);
    let mut best: Option<f64> = None;
    for bits in 0u32..(1 << n) {
        let p: Vec<f64> = (0..n).map(|i| ((bits >> i) & 1) as f64).collect();
        if m.is_feasible(&p, 1e-9) {
            let v = m.objective_value(&p);
            best = Some(best.map_or(v, |b: f64| b.max(v)));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Branch-and-cut equals brute force on feasible all-binary instances.
    #[test]
    fn solver_matches_enumeration(
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
        let expected = brute_force_binary(&inst).expect("x = 0 is always feasible");
        let mut s = MipSolver::host_baseline(inst.clone(), MipConfig::default());
        let r = s.solve().expect("solve");
        prop_assert_eq!(r.status, MipStatus::Optimal);
        prop_assert!((r.objective - expected).abs() < 1e-6,
            "got {} expected {}", r.objective, expected);
        prop_assert!(inst.is_integer_feasible(&r.x, 1e-5));
    }

    /// The LP relaxation bound dominates the MIP optimum, and rounding the
    /// relaxation never beats it.
    #[test]
    fn relaxation_dominates_optimum(
        rows in 2usize..6,
        cols in 4usize..10,
        seed in 0u64..5000,
    ) {
        let inst = random_mip(&RandomMipConfig {
            rows,
            cols,
            density: 0.5,
            integral_fraction: 1.0,
            seed,
        });
        let lp = gmip::lp::solver::solve_relaxation_host(&inst, &[]).expect("relaxation");
        prop_assert_eq!(lp.status, gmip::lp::LpStatus::Optimal);
        let expected = brute_force_binary(&inst).expect("feasible");
        prop_assert!(lp.objective >= expected - 1e-6,
            "LP bound {} below MIP optimum {}", lp.objective, expected);
    }

    /// Host and simulated-device solvers take the same decisions and land
    /// on the same optimum, for mixed binary/continuous instances.
    #[test]
    fn host_and_device_agree(
        rows in 2usize..5,
        cols in 4usize..9,
        integral in 0.3f64..1.0,
        seed in 0u64..5000,
    ) {
        let inst = random_mip(&RandomMipConfig {
            rows,
            cols,
            density: 0.6,
            integral_fraction: integral,
            seed,
        });
        let mut host = MipSolver::host_baseline(inst.clone(), MipConfig::default());
        let hr = host.solve().expect("host");
        let mut dev = MipSolver::<DeviceEngine>::on_accel(inst, MipConfig::default(), Accel::gpu(1));
        let dr = dev.solve().expect("device");
        prop_assert_eq!(hr.status, dr.status);
        if hr.status == MipStatus::Optimal {
            prop_assert!((hr.objective - dr.objective).abs() < 1e-5,
                "host {} vs device {}", hr.objective, dr.objective);
        }
    }
}
