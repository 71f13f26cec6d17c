//! Unit tests of the first-order wave engine.

use super::*;
use crate::solver::{solve_relaxation_host, LpConfig};
use gmip_problems::catalog::{textbook_lp, textbook_mip};

fn engine(std: &StandardLp, width: usize, cfg: PdhgConfig) -> FirstOrderWaveEngine {
    FirstOrderWaveEngine::new(Accel::gpu(1), std, width, cfg).expect("engine")
}

fn host_optimum(std: &StandardLp) -> f64 {
    let mut lp = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
        HostEngine::new(a.clone())
    });
    let sol = lp.solve().unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
    // Internal maximize value.
    if std.negated {
        -sol.objective
    } else {
        sol.objective
    }
}

/// The reservation is what a lane's arena state takes: its share of
/// every vector of its block, plus its `τ` and `σ`.
#[test]
fn a_lane_reserves_what_its_block_holds() {
    use gmip_problems::generators::{bin_packing, knapsack};
    for m in [knapsack(24, 0.5, 3), bin_packing(5, 1.0, 61)] {
        let std = StandardLp::from_instance(&m, &[]);
        let mut fo = engine(&std, 1, PdhgConfig::default());
        let (m, n) = (fo.m(), fo.n());
        let blk = &fo.arena.blocks_mut()[0];
        let vectors = [
            &blk.x,
            &blk.y,
            &blk.x_sum,
            &blk.y_sum,
            &blk.x_restart,
            &blk.y_restart,
            &blk.lb,
            &blk.ub,
            &blk.aty,
            &blk.xhat,
            &blk.ax,
        ];
        let held: usize = vectors.iter().map(|v| std::mem::size_of_val(&v[..])).sum();
        let steps = 2 * std::mem::size_of::<f64>();
        assert_eq!(
            FirstOrderWaveEngine::per_lane_bytes(m, n),
            held / FO_BLOCK + steps
        );
    }
}

#[test]
fn pdhg_converges_to_lp_optimum_and_restarts() {
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let expected = host_optimum(&std);
    let mut fo = engine(&std, 1, PdhgConfig::default());
    fo.load_lane(0, 7, &[], None).unwrap();
    let retired = fo.run_to_retire();
    assert_eq!(retired, vec![0]);
    let r = fo.take_lane(0).unwrap();
    assert_eq!(r.token, 7);
    assert_eq!(r.outcome, FoOutcome::Converged);
    assert!(
        r.restarts >= 1,
        "adaptive restarts must trigger on a real solve"
    );
    let obj: f64 = std.c.iter().zip(&r.x).map(|(c, x)| c * x).sum();
    assert!(
        (obj - expected).abs() <= 1e-3 * (1.0 + expected.abs()),
        "pdhg {obj} vs simplex {expected}"
    );
    // The safe bound never dips below the true optimum.
    assert!(
        r.safe_bound >= expected - 1e-9,
        "{} < {expected}",
        r.safe_bound
    );
}

#[test]
fn safe_bound_is_valid_at_arbitrary_duals() {
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let opt = host_optimum(&std);
    let csr = CsrMatrix::from_dense(&std.a);
    let slack_rows: Vec<(usize, f64)> = std.slacks.iter().map(|&(_, r, cf)| (r, cf)).collect();
    // Any dual vector — including wildly wrong ones — must bound the
    // optimum from above.
    for y in [
        vec![0.0; std.m()],
        vec![1.0; std.m()],
        vec![-3.5; std.m()],
        (0..std.m()).map(|i| (i as f64) - 1.7).collect(),
    ] {
        let b = safe_dual_bound(&csr, &std.b, &std.c, &std.lb, &std.ub, &slack_rows, &y);
        assert!(b >= opt - 1e-9, "bound {b} < optimum {opt} at y={y:?}");
    }
}

#[test]
fn infeasible_bounds_detected_at_load() {
    let mip = textbook_mip();
    let std = StandardLp::from_instance(&mip, &[]);
    let mut fo = engine(&std, 2, PdhgConfig::default());
    // Fix x0 beyond what row feasibility allows: lb far above any
    // attainable activity.
    let dead = BoundChange {
        var: 0,
        lb: 1e6,
        ub: 1e6,
    };
    fo.load_lane(0, 1, &[dead], None).unwrap();
    let retired = fo.run_to_retire();
    assert_eq!(retired, vec![0]);
    let r = fo.take_lane(0).unwrap();
    assert_eq!(r.outcome, FoOutcome::Infeasible);
    assert_eq!(r.iterations, 0, "infeasible lanes never iterate");
    assert_eq!(fo.metrics().counter(names::FO_INFEASIBLE), 1.0);
}

#[test]
fn cutoff_prunes_lane_early_without_convergence() {
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let expected = host_optimum(&std);
    let mut fo = engine(&std, 1, PdhgConfig::default());
    // An incumbent far above the optimum dominates every node bound.
    fo.set_cutoff(expected + 1e3);
    fo.load_lane(0, 3, &[], None).unwrap();
    let retired = fo.run_to_retire();
    assert_eq!(retired, vec![0]);
    let r = fo.take_lane(0).unwrap();
    assert_eq!(r.outcome, FoOutcome::BoundPruned);
    assert!(
        r.iterations < 200,
        "prune must fire at an early check, ran {}",
        r.iterations
    );
    assert!(r.safe_bound <= expected + 1e3);
}

#[test]
fn retire_refill_bookkeeping() {
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let mut fo = engine(&std, 2, PdhgConfig::default());
    fo.load_lane(0, 10, &[], None).unwrap();
    fo.load_lane(1, 11, &[], None).unwrap();
    assert!(fo.any_busy());
    // Loading an occupied slot is rejected.
    assert!(fo.load_lane(0, 12, &[], None).is_err());
    let mut taken = 0;
    while fo.any_busy() || (0..fo.width()).any(|s| !fo.lane_idle(s)) {
        for slot in fo.run_to_retire().to_vec() {
            let r = fo.take_lane(slot).unwrap();
            taken += 1;
            // Refill once with a warm start from the retired lane.
            if taken <= 1 {
                fo.load_lane(slot, 12, &[], Some((&r.x, &r.y))).unwrap();
                fo.note_refill();
            }
        }
        if !fo.any_busy() {
            break;
        }
    }
    assert_eq!(taken, 3, "two initial lanes + one refill");
    let m = fo.metrics();
    assert_eq!(m.counter(names::FO_RETIRES), 3.0);
    assert_eq!(m.counter(names::FO_REFILLS), 1.0);
    assert_eq!(m.counter(names::FO_CONVERGED), 3.0);
    // Taking an empty slot is rejected.
    assert!(fo.take_lane(0).is_err());
}

#[test]
fn warm_started_lane_converges_faster() {
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let mut fo = engine(&std, 1, PdhgConfig::default());
    fo.load_lane(0, 0, &[], None).unwrap();
    fo.run_to_retire();
    let cold = fo.take_lane(0).unwrap();
    assert_eq!(cold.outcome, FoOutcome::Converged);
    // Re-solve the same node from the parent's iterates.
    fo.load_lane(0, 1, &[], Some((&cold.x, &cold.y))).unwrap();
    fo.run_to_retire();
    let warm = fo.take_lane(0).unwrap();
    assert_eq!(warm.outcome, FoOutcome::Converged);
    assert!(
        warm.iterations <= cold.iterations,
        "warm {} vs cold {}",
        warm.iterations,
        cold.iterations
    );
}

#[test]
fn finish_lane_finishes_every_outcome_and_counts_cleanups() {
    let mip = textbook_mip();
    let std = StandardLp::from_instance(&mip, &[]);
    let reference = solve_relaxation_host(&mip, &[]).unwrap();
    let run = |cfg: PdhgConfig, cutoff: f64, bounds: &[BoundChange]| {
        let mut fo = FirstOrderWaveEngine::new(Accel::gpu(1), &std, 1, cfg).unwrap();
        let mut cleanup = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
            HostEngine::new(a.clone())
        });
        fo.set_cutoff(cutoff);
        fo.load_lane(0, 0, bounds, None).unwrap();
        fo.run_to_retire();
        let (sol, lane) = fo.finish_lane(0, &mut cleanup, bounds).unwrap();
        assert!(fo.lane_idle(0), "the slot is free for a refill");
        (sol, lane, fo.take_metrics())
    };
    let none = f64::NEG_INFINITY;
    // Converged, and capped after one check: both are cleaned up exactly.
    let capped = PdhgConfig {
        max_iters: 4,
        ..Default::default()
    };
    for (cfg, counter) in [
        (PdhgConfig::default(), names::FO_CONVERGED),
        (capped, names::FO_ITER_LIMIT),
    ] {
        let (sol, lane, m) = run(cfg, none, &[]);
        assert_eq!(sol.objective.to_bits(), reference.objective.to_bits());
        assert!(lane.iterations > 0 && sol.x.len() == std.n_structural);
        assert_eq!(
            (m.counter(counter), m.counter(names::FO_CLEANUPS)),
            (1.0, 1.0)
        );
        assert_eq!(m.counter(names::FO_CLEANUP_ITERS), sol.iterations as f64);
    }
    // A bound-pruned lane is a point-less bound; a lane infeasible at
    // load never iterated. Neither needs a cleanup.
    let (sol, lane, m) = run(PdhgConfig::default(), reference.objective + 1e3, &[]);
    assert_eq!((sol.status, sol.x.len()), (LpStatus::Optimal, 0));
    assert!(sol.objective >= reference.objective && sol.iterations == lane.iterations);
    assert_eq!(m.counter(names::FO_CLEANUPS), 0.0);
    let dead = [BoundChange {
        var: 0,
        lb: 1e6,
        ub: 1e6,
    }];
    let (sol, _, m) = run(PdhgConfig::default(), none, &dead);
    assert_eq!((sol.status, sol.iterations), (LpStatus::Infeasible, 0));
    assert_eq!(m.counter(names::FO_CLEANUPS), 0.0);
}

/// Every `f64` the arena holds, with the slot-major index of its lane.
fn arena_values(fo: &mut FirstOrderWaveEngine) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for (b, blk) in fo.arena.blocks_mut().iter().enumerate() {
        for v in [
            &blk.x,
            &blk.y,
            &blk.x_sum,
            &blk.y_sum,
            &blk.x_restart,
            &blk.y_restart,
            &blk.lb,
            &blk.ub,
            &blk.aty,
            &blk.xhat,
            &blk.ax,
        ] {
            out.extend(
                v.iter()
                    .enumerate()
                    .map(|(k, &e)| (b * FO_BLOCK + k % FO_BLOCK, e)),
            );
        }
    }
    out
}

#[test]
fn retired_lane_keeps_its_report_while_the_block_steps_on() {
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let cfg = PdhgConfig::default();
    let mut fo = engine(&std, 1, cfg.clone());
    fo.load_lane(0, 0, &[], None).unwrap();
    fo.run_to_retire();
    let solved = fo.take_lane(0).unwrap();

    // Lane 0 starts at the solution and retires at its first check;
    // lane 1 starts cold in the same block and iterates far longer.
    let start = |late: usize| {
        let mut fo = engine(&std, 2, cfg.clone());
        fo.load_lane(0, 7, &[], Some((&solved.x, &solved.y)))
            .unwrap();
        fo.load_lane(1, 8, &[], None).unwrap();
        assert_eq!(fo.run_to_retire(), vec![0]);
        for _ in 0..late {
            assert!(fo.lane_busy(1), "lane 1 must outlive the delay");
            assert!(fo.superstep().is_empty());
        }
        let inert = arena_values(&mut fo)
            .into_iter()
            .filter(|&(slot, _)| slot != 1)
            .all(|(_, e)| e.to_bits() == 0);
        assert!(inert, "retired and empty slots hold +0.0 only");
        fo.take_lane(0).unwrap()
    };
    let (now, later) = (start(0), start(5));
    assert_eq!(now.outcome, FoOutcome::Converged);
    assert_eq!(now.iterations, later.iterations);
    assert_eq!(now.safe_bound.to_bits(), later.safe_bound.to_bits());
    let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&now.x), bits(&later.x));
    assert_eq!(bits(&now.y), bits(&later.y));
}

#[test]
fn padding_and_empty_slots_stay_finite() {
    let mip = textbook_mip();
    let std = StandardLp::from_instance(&mip, &[]);
    // Three lanes of an eight-lane block; slot 1 is loaded infeasible
    // (never scattered), slot 2 is refilled once.
    let mut fo = engine(&std, 3, PdhgConfig::default());
    let dead = BoundChange {
        var: 0,
        lb: 1e6,
        ub: 1e6,
    };
    fo.load_lane(0, 0, &[], None).unwrap();
    fo.load_lane(1, 1, &[dead], None).unwrap();
    fo.load_lane(2, 2, &[], None).unwrap();
    let mut refilled = false;
    while (0..3).any(|s| !fo.lane_idle(s)) {
        for slot in fo.run_to_retire().to_vec() {
            let r = fo.take_lane(slot).unwrap();
            assert!(r.x.iter().chain(&r.y).all(|e| e.is_finite()));
            if slot == 2 && !refilled {
                refilled = true;
                fo.load_lane(2, 3, &[], Some((&r.x, &r.y))).unwrap();
            }
        }
        assert!(arena_values(&mut fo).iter().all(|(_, e)| e.is_finite()));
    }
    assert!(refilled);
    assert!(arena_values(&mut fo).iter().all(|(_, e)| e.to_bits() == 0));
}

#[test]
fn bound_changes_override_the_root_box_and_are_range_checked() {
    let mip = textbook_mip();
    let narrowed = BoundChange {
        var: 0,
        lb: 0.0,
        ub: 1.0,
    };
    // Loading the change on the root form equals loading the root box
    // of a form lowered with the change already applied.
    let mut by_change = engine(
        &StandardLp::from_instance(&mip, &[]),
        1,
        PdhgConfig::default(),
    );
    by_change.load_lane(0, 0, &[narrowed], None).unwrap();
    let mut by_form = engine(
        &StandardLp::from_instance(&mip, &[narrowed]),
        1,
        PdhgConfig::default(),
    );
    by_form.load_lane(0, 0, &[], None).unwrap();
    by_change.run_to_retire();
    by_form.run_to_retire();
    let (a, b) = (
        by_change.take_lane(0).unwrap(),
        by_form.take_lane(0).unwrap(),
    );
    assert_eq!((a.outcome, a.iterations), (b.outcome, b.iterations));
    assert_eq!(a.x, b.x);
    assert_eq!(a.y, b.y);
    let out_of_range = BoundChange {
        var: by_change.n(),
        ..narrowed
    };
    assert!(by_change.load_lane(0, 1, &[out_of_range], None).is_err());
}

#[test]
fn supersteps_fuse_launches_in_lockstep() {
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let accel = Accel::gpu(1);
    let mut fo = FirstOrderWaveEngine::new(accel.clone(), &std, 4, PdhgConfig::default()).unwrap();
    for slot in 0..4 {
        fo.load_lane(slot, slot as u64, &[], None).unwrap();
    }
    let before = accel.stats().kernel_launches;
    fo.superstep();
    let after = accel.stats().kernel_launches;
    // Four lanes, one iteration each: 3 fused launches (spmv_t, axpy,
    // spmv) — not 12 per-lane ones. (First check lands later.)
    assert_eq!(after - before, 3, "lockstep fuses all lanes per class");
    assert_eq!(fo.metrics().counter(names::FO_SUPERSTEPS), 1.0);
    assert_eq!(fo.metrics().counter(names::FO_ITERATIONS), 4.0);
}

/// The link rule on the first-order side: loads cross nothing until the
/// next superstep, which makes one H2D of their summed bytes ahead of
/// the dispatch; a superstep in which several lanes retire makes one D2H
/// of all their reports (a lane infeasible at load ships its outcome and
/// bound, 16 B); collecting a lane crosses nothing.
#[test]
fn a_superstep_stages_the_loads_and_reports_of_its_lanes() {
    let std = StandardLp::from_instance(&textbook_mip(), &[]);
    let (m, n) = (std.m(), std.n());
    // Bytes of a cold load (its box) and of a report or a warm start.
    let (cold, row) = ((16 * n) as u64, (8 * (n + m)) as u64);
    let accel = Accel::gpu(1);
    let mut fo = FirstOrderWaveEngine::new(accel.clone(), &std, 5, PdhgConfig::default()).unwrap();
    let mut cleanup = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
        HostEngine::new(a.clone())
    });
    let dead = BoundChange {
        var: 0,
        lb: 1e6,
        ub: 1e6,
    };
    let (wx, wy) = (vec![0.0; n], vec![0.0; m]);
    let before = (accel.stats(), accel.elapsed_ns());
    // Three identical cold lanes (they retire together), one warm lane
    // and one lane infeasible at load.
    for slot in 0..3 {
        fo.load_lane(slot, slot as u64, &[], None).unwrap();
    }
    fo.load_lane(3, 3, &[], Some((&wx, &wy))).unwrap();
    fo.load_lane(4, 4, &[dead], None).unwrap();
    assert_eq!((accel.stats(), accel.elapsed_ns()), before);

    let s0 = accel.stats();
    assert_eq!(fo.superstep(), vec![4], "the dead lane retires first");
    let s1 = accel.stats();
    assert_eq!(s1.h2d_transfers - s0.h2d_transfers, 1);
    assert_eq!(s1.h2d_bytes - s0.h2d_bytes, 5 * cold + row);
    assert_eq!(s1.d2h_transfers - s0.d2h_transfers, 1);
    assert_eq!(s1.d2h_bytes - s0.d2h_bytes, 16);

    let mut together = Vec::new();
    while fo.any_busy() {
        let s = accel.stats();
        let retired = fo.superstep();
        let t = accel.stats();
        assert_eq!(t.h2d_transfers, s.h2d_transfers, "nothing was loaded");
        let k = retired.len() as u64;
        assert_eq!(t.d2h_transfers - s.d2h_transfers, k.min(1));
        assert_eq!(t.d2h_bytes - s.d2h_bytes, k * row);
        if retired.len() >= 2 {
            together = retired.to_vec();
        }
    }
    assert_eq!(together, [0, 1, 2], "identical lanes retire together");
    let (s, clock) = (accel.stats(), accel.elapsed_ns());
    for slot in 0..5 {
        fo.finish_lane(slot, &mut cleanup, &[]).unwrap();
    }
    assert_eq!((accel.stats(), accel.elapsed_ns()), (s, clock));
}

/// A load that fails stages nothing: the next H2D carries the good
/// lanes' bytes only, and the failed slots stay free.
#[test]
fn a_refused_load_stages_no_bytes() {
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let (m, n) = (std.m(), std.n());
    let accel = Accel::gpu(1);
    let mut fo = FirstOrderWaveEngine::new(accel.clone(), &std, 4, PdhgConfig::default()).unwrap();
    let off_the_end = BoundChange {
        var: n,
        lb: 0.0,
        ub: 1.0,
    };
    let (short_x, y) = (vec![0.0; n - 1], vec![0.0; m]);
    fo.load_lane(0, 0, &[], None).unwrap();
    assert!(fo.load_lane(1, 1, &[off_the_end], None).is_err());
    assert!(fo.load_lane(2, 2, &[], Some((&short_x, &y))).is_err());
    fo.load_lane(3, 3, &[], None).unwrap();
    assert!(fo.lane_idle(1) && fo.lane_idle(2));
    let before = accel.stats();
    fo.superstep();
    let s = accel.stats();
    assert_eq!(s.h2d_transfers - before.h2d_transfers, 1);
    assert_eq!(s.h2d_bytes - before.h2d_bytes, (2 * 16 * n) as u64);
}

/// Drives a `width`-lane wave over `knapsack(12)` whose lanes join at
/// different supersteps — lane `k` ahead of the `k + 1`-th — and refills
/// every retired slot until `loads` nodes ran, each a different child
/// box. Returns the reports, the `fo.*` counters and, per superstep that
/// stepped lanes, its busy lanes and the lanes its `fo.norm` charge
/// covers (read off the device's flop counter).
fn staggered_wave(
    cfg: PdhgConfig,
    width: usize,
    loads: usize,
) -> (Vec<FoLaneReport>, MetricsRegistry, Vec<(usize, usize)>) {
    use gmip_problems::generators::knapsack;
    let std = StandardLp::from_instance(&knapsack(12, 0.5, 3), &[]);
    let accel = Accel::gpu(1);
    let mut fo = FirstOrderWaveEngine::new(accel.clone(), &std, width, cfg).unwrap();
    let (m, n) = (fo.m(), fo.n());
    let step = 2.0 * flops::spmv(fo.csr.nnz()) + (6 * n + 4 * m) as f64;
    let norm = (4 * (n + m)) as f64;
    let load = |fo: &mut FirstOrderWaveEngine, slot: usize, k: usize| {
        let child = BoundChange {
            var: k % std.n_structural,
            lb: 0.0,
            ub: (k % 2) as f64,
        };
        fo.load_lane(slot, k as u64, &[child], None).unwrap();
    };
    let (mut joined, mut loaded) = (0, 0);
    let (mut reports, mut steps) = (Vec::new(), Vec::new());
    loop {
        if joined < width && loaded < loads {
            load(&mut fo, joined, loaded);
            (joined, loaded) = (joined + 1, loaded + 1);
        }
        let busy = (0..width).filter(|&s| fo.lane_busy(s)).count();
        let before = accel.stats().flops;
        let retired = fo.superstep().to_vec();
        let spent = accel.stats().flops - before;
        if busy > 0 {
            let checked = (spent - busy as f64 * step) / norm;
            assert_eq!(checked.fract(), 0.0, "a whole number of checks");
            steps.push((busy, checked as usize));
        }
        for slot in retired {
            reports.push(fo.take_lane(slot).unwrap());
            if loaded < loads {
                load(&mut fo, slot, loaded);
                loaded += 1;
            }
        }
        if loaded == loads && (0..width).all(|s| fo.lane_idle(s)) {
            return (reports, fo.take_metrics(), steps);
        }
    }
}

/// `fo.fused_launches ≤ 3·fo.supersteps + ⌈fo.supersteps / every⌉`.
fn launches_within_the_tick_bound(metrics: &MetricsRegistry, every: usize) {
    let steps = metrics.counter(names::FO_SUPERSTEPS) as usize;
    let launches = metrics.counter(names::FO_FUSED_LAUNCHES) as usize;
    assert!(
        launches <= 3 * steps + steps.div_ceil(every),
        "{launches} launches in {steps} supersteps"
    );
}

/// Lanes that joined at different supersteps still check together: a
/// superstep checks every busy lane when the wave's tick is a multiple
/// of `CHECK_EVERY` and none otherwise, so `fo.norm` launches once every
/// `CHECK_EVERY` supersteps.
#[test]
fn every_superstep_checks_all_busy_lanes_or_none() {
    let (reports, metrics, steps) = staggered_wave(PdhgConfig::default(), 6, 24);
    assert_eq!(reports.len(), 24);
    assert!(steps.len() > 4 * CHECK_EVERY);
    for (k, &(busy, checked)) in steps.iter().enumerate() {
        let tick = k + 1;
        let expected = if tick.is_multiple_of(CHECK_EVERY) {
            busy
        } else {
            0
        };
        assert_eq!(checked, expected, "tick {tick}: {busy} busy lanes");
    }
    assert_eq!(metrics.counter(names::FO_SUPERSTEPS) as usize, steps.len());
    launches_within_the_tick_bound(&metrics, CHECK_EVERY);
}

/// The cap is held on the tick: no lane reports more iterations than
/// `max_iters`, a capped lane retires at the last check within it, and
/// a cap below `CHECK_EVERY` checks every `max_iters` ticks.
#[test]
fn no_lane_iterates_past_its_cap() {
    for max_iters in [1, 3, 150, usize::MAX] {
        let uncapped = max_iters == usize::MAX;
        let cfg = PdhgConfig {
            // Out of reach, so that capped lanes retire on the cap.
            tol: if uncapped { 1e-4 } else { 1e-300 },
            max_iters,
        };
        let every = max_iters.clamp(1, CHECK_EVERY);
        let (reports, metrics, _) = staggered_wave(cfg, 6, 18);
        assert_eq!(reports.len(), 18, "cap {max_iters}");
        for r in &reports {
            assert!(r.iterations <= max_iters, "cap {max_iters}: {r:?}");
            if r.outcome == FoOutcome::IterLimit {
                assert!(r.iterations + every > max_iters, "cap {max_iters}: {r:?}");
            }
        }
        let capped = reports.iter().filter(|r| r.outcome == FoOutcome::IterLimit);
        assert_eq!(capped.count() == 0, uncapped, "cap {max_iters}");
        launches_within_the_tick_bound(&metrics, every);
    }
}
