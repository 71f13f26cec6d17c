//! End-to-end integration: every execution path (host baseline, the four
//! device strategies, the discrete-event cluster, the threaded cluster)
//! must agree on the optimum of every catalog-suite instance.

use gmip::core::{plan, MipConfig, MipSolver, MipStatus, Strategy};
use gmip::gpu::CostModel;
use gmip::parallel::{solve_parallel, solve_threaded, ParallelConfig};
use gmip::problems::catalog::small_suite;

/// Reference optima from the host baseline.
fn reference(id: &str, instance: &gmip::problems::MipInstance) -> f64 {
    let mut s = MipSolver::host_baseline(instance.clone(), MipConfig::default());
    let r = s
        .solve()
        .unwrap_or_else(|e| panic!("{id}: host solve failed: {e}"));
    assert_eq!(r.status, MipStatus::Optimal, "{id}: host not optimal");
    assert!(
        instance.is_integer_feasible(&r.x, 1e-5),
        "{id}: host incumbent infeasible"
    );
    r.objective
}

#[test]
fn all_strategies_agree_across_suite() {
    for entry in small_suite() {
        let expected = reference(entry.id, &entry.instance);
        for strategy in [
            Strategy::GpuOnly,
            Strategy::CpuOrchestrated,
            Strategy::Hybrid,
            Strategy::BigMip { devices: 2 },
        ] {
            let p = plan(
                strategy,
                MipConfig::default(),
                CostModel::gpu_pcie(),
                1 << 30,
            );
            let mut s = MipSolver::with_plan(entry.instance.clone(), p);
            let r = s
                .solve()
                .unwrap_or_else(|e| panic!("{}/{}: {e}", entry.id, strategy.name()));
            assert_eq!(
                r.status,
                MipStatus::Optimal,
                "{}/{}",
                entry.id,
                strategy.name()
            );
            assert!(
                (r.objective - expected).abs() < 1e-5,
                "{}/{}: {} vs {}",
                entry.id,
                strategy.name(),
                r.objective,
                expected
            );
        }
    }
}

#[test]
fn clusters_agree_across_suite() {
    for entry in small_suite() {
        let expected = reference(entry.id, &entry.instance);
        let cfg = ParallelConfig {
            workers: 3,
            gpu_mem: 1 << 26,
            ..Default::default()
        };
        let des = solve_parallel(&entry.instance, cfg.clone())
            .unwrap_or_else(|e| panic!("{}: DES failed: {e}", entry.id));
        assert_eq!(des.status, MipStatus::Optimal, "{}: DES", entry.id);
        assert!(
            (des.objective - expected).abs() < 1e-5,
            "{}: DES {} vs {}",
            entry.id,
            des.objective,
            expected
        );
        let thr = solve_threaded(&entry.instance, &cfg)
            .unwrap_or_else(|e| panic!("{}: threaded failed: {e}", entry.id));
        assert_eq!(thr.status, MipStatus::Optimal, "{}: threaded", entry.id);
        assert!(
            (thr.objective - expected).abs() < 1e-5,
            "{}: threaded {} vs {}",
            entry.id,
            thr.objective,
            expected
        );
    }
}

/// Strategy-equivalence over a *seeded* instance set: the single-device
/// solver, the threaded cluster, and DES clusters of several widths (with
/// and without fault injection) must all agree with the host baseline on
/// every generated instance.
#[test]
fn seeded_instances_agree_across_device_threaded_and_cluster() {
    use gmip::parallel::ChaosConfig;
    use gmip::problems::generators::knapsack;
    for seed in [13u64, 29, 41] {
        let instance = knapsack(14, 0.5, seed);
        let id = format!("knapsack-14/{seed}");
        let expected = reference(&id, &instance);
        // Single simulated device.
        let p = plan(
            Strategy::CpuOrchestrated,
            MipConfig::default(),
            CostModel::gpu_pcie(),
            1 << 30,
        );
        let mut s = MipSolver::with_plan(instance.clone(), p);
        let dev = s.solve().unwrap_or_else(|e| panic!("{id}: device: {e}"));
        assert!(
            (dev.objective - expected).abs() < 1e-5,
            "{id}: device {} vs {expected}",
            dev.objective
        );
        // Threaded + DES clusters of several widths.
        for workers in [2usize, 4] {
            let cfg = ParallelConfig {
                workers,
                gpu_mem: 1 << 26,
                ..Default::default()
            };
            let des = solve_parallel(&instance, cfg.clone())
                .unwrap_or_else(|e| panic!("{id}/cluster:{workers}: {e}"));
            assert_eq!(des.status, MipStatus::Optimal, "{id}/cluster:{workers}");
            assert!(
                (des.objective - expected).abs() < 1e-5,
                "{id}/cluster:{workers}: {} vs {expected}",
                des.objective
            );
            let thr = solve_threaded(&instance, &cfg)
                .unwrap_or_else(|e| panic!("{id}/threaded:{workers}: {e}"));
            assert!(
                (thr.objective - expected).abs() < 1e-5,
                "{id}/threaded:{workers}: {} vs {expected}",
                thr.objective
            );
        }
        // A faulty cluster still lands on the same optimum.
        let faulty = solve_parallel(
            &instance,
            ParallelConfig {
                workers: 3,
                gpu_mem: 1 << 26,
                chaos: Some(ChaosConfig {
                    drop_prob: 0.2,
                    delay_prob: 0.2,
                    delay_ns: 20_000.0,
                    ..ChaosConfig::quiet(seed)
                }),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{id}/faulty: {e}"));
        assert_eq!(faulty.status, MipStatus::Optimal, "{id}/faulty");
        assert!(
            (faulty.objective - expected).abs() < 1e-5,
            "{id}/faulty: {} vs {expected}",
            faulty.objective
        );
    }
}

/// Differential check for the batched-wave strategy: lockstep fused
/// evaluation over a shared device matrix must reproduce the host
/// baseline's optimal objective — with a feasible incumbent — on every
/// seeded instance, at several wave widths.
#[test]
fn batched_wave_matches_host_on_seeded_suite() {
    use gmip::core::{solve_batched_wave, WaveConfig};
    use gmip::gpu::Accel;
    use gmip::problems::generators::knapsack;
    for seed in [13u64, 29, 41] {
        let instance = knapsack(14, 0.5, seed);
        let id = format!("knapsack-14/{seed}");
        let expected = reference(&id, &instance);
        for lanes in [1usize, 2, 3, 5, 7] {
            let r = solve_batched_wave(
                &instance,
                &WaveConfig {
                    lanes,
                    ..Default::default()
                },
                Accel::gpu(1),
            )
            .unwrap_or_else(|e| panic!("{id}/batched:{lanes}: {e}"));
            assert_eq!(r.status, MipStatus::Optimal, "{id}/batched:{lanes}");
            assert!(
                (r.objective - expected).abs() < 1e-5,
                "{id}/batched:{lanes}: {} vs {expected}",
                r.objective
            );
            assert!(
                instance.is_integer_feasible(&r.x, 1e-5),
                "{id}/batched:{lanes}: incumbent infeasible"
            );
        }
    }
}

/// The batched wave must also agree on the catalog suite, and its fused
/// launches must undercut the per-lane concurrent evaluator at the same
/// width on an instance big enough to branch. A device engine's node LP is
/// one launch per pivot and one read-back, and the wave pays one launch per
/// kernel class per superstep, so its saving starts where enough lanes share
/// each launch, on a tree wide enough to keep them busy: `knapsack(20)` at
/// sixty-four lanes (471 fused launches to 1213, 7.57 ms to 10.31 in
/// simulated time; at thirty-two, 705 to 1209 but 10.02 ms to 10.01). On
/// `knapsack(16)` the per-lane evaluator launches less at every width (253
/// to 350 at sixteen).
#[test]
fn batched_wave_agrees_on_catalog_and_undercuts_per_lane() {
    use gmip::core::{solve_batched_wave, solve_concurrent, WaveConfig};
    use gmip::gpu::Accel;
    for entry in small_suite() {
        let expected = reference(entry.id, &entry.instance);
        let r = solve_batched_wave(
            &entry.instance,
            &WaveConfig {
                lanes: 4,
                ..Default::default()
            },
            Accel::gpu(1),
        )
        .unwrap_or_else(|e| panic!("{}/batched: {e}", entry.id));
        assert_eq!(r.status, MipStatus::Optimal, "{}/batched", entry.id);
        assert!(
            (r.objective - expected).abs() < 1e-5,
            "{}/batched: {} vs {}",
            entry.id,
            r.objective,
            expected
        );
    }
    let instance = gmip::problems::generators::knapsack(20, 0.5, 21);
    let cfg = WaveConfig {
        lanes: 64,
        ..Default::default()
    };
    let per_lane = solve_concurrent(&instance, &cfg, Accel::gpu(1)).expect("per-lane solve");
    let batched = solve_batched_wave(&instance, &cfg, Accel::gpu(1)).expect("batched solve");
    assert!(
        (batched.objective - per_lane.objective).abs() < 1e-5,
        "strategies disagree: {} vs {}",
        batched.objective,
        per_lane.objective
    );
    assert!(
        batched.device.kernel_launches < per_lane.device.kernel_launches,
        "fused launches ({}) must undercut per-lane ({})",
        batched.device.kernel_launches,
        per_lane.device.kernel_launches
    );
    assert!(
        batched.makespan_ns < per_lane.makespan_ns,
        "batched wave must be faster in simulated time: {} vs {}",
        batched.makespan_ns,
        per_lane.makespan_ns
    );
}

#[test]
fn mps_roundtrip_preserves_optimum() {
    use gmip::problems::mps::{read_mps, write_mps};
    for entry in small_suite() {
        let expected = reference(entry.id, &entry.instance);
        let text = write_mps(&entry.instance);
        let back = read_mps(&text).unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        let mut s = MipSolver::host_baseline(back, MipConfig::default());
        let r = s.solve().expect("solve roundtripped instance");
        assert!(
            (r.objective - expected).abs() < 1e-5,
            "{}: roundtrip changed optimum {} vs {}",
            entry.id,
            r.objective,
            expected
        );
    }
}

#[test]
fn solver_configs_agree_on_one_instance() {
    use gmip::core::PolicyKind;
    let instance = gmip::problems::generators::knapsack(16, 0.5, 77);
    let expected = reference("config-sweep", &instance);
    for policy in [
        PolicyKind::BestFirst,
        PolicyKind::DepthFirst,
        PolicyKind::BreadthFirst,
        PolicyKind::ReuseAffinity,
    ] {
        for cuts in [true, false] {
            for reuse in [true, false] {
                let mut cfg = MipConfig::default();
                cfg.policy = policy;
                cfg.cuts.enabled = cuts;
                cfg.engine_reuse = reuse;
                let mut s = MipSolver::host_baseline(instance.clone(), cfg);
                let r = s.solve().expect("solve");
                assert!(
                    (r.objective - expected).abs() < 1e-6,
                    "{policy:?}/cuts={cuts}/reuse={reuse}: {} vs {expected}",
                    r.objective
                );
            }
        }
    }
}
