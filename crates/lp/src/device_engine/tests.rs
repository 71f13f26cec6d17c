use super::*;
use crate::basis::VarStatus;
use crate::engine::HostEngine;
use crate::problem::{BoundChange, StandardLp};
use crate::simplex::{primal_solve, PricingRule, PrimalConfig};
use crate::solver::{LpConfig, LpSolver, LpStatus};
use crate::wave::{RecordingEngine, WaveClass, WaveOp};
use gmip_gpu::DeviceConfig;
use gmip_linalg::LinalgError;
use gmip_problems::catalog::{textbook_lp, textbook_mip};
use gmip_problems::generators::{knapsack, set_cover, unit_commitment};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn device_solver<M: Storage + 'static>(
    std: StandardLp,
    accel: Accel,
) -> LpSolver<DeviceSimplex<M>> {
    LpSolver::new(std, LpConfig::standard(), |a| {
        DeviceSimplex::new(accel, a).expect("device upload")
    })
}

fn solves_textbook_lp<M: Storage + 'static>() {
    let accel = Accel::gpu(1);
    let std = StandardLp::from_instance(&textbook_lp(), &[]);
    let mut solver = device_solver::<M>(std, accel.clone());
    let sol = solver.solve().unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - 21.0).abs() < 1e-7);
    // The matrix was uploaded exactly once; iteration traffic is
    // vector/scalar-sized.
    let stats = accel.stats();
    assert!(stats.h2d_transfers > 0);
    assert!(stats.kernel_launches > 0);
}

fn matches_host_pivot_for_pivot<M: Storage + 'static>() {
    for (name, mip) in [
        ("knapsack", knapsack(10, 0.5, 3)),
        ("setcover", set_cover(6, 6, 0.4, 3)),
        ("setcover8", set_cover(8, 8, 0.3, 5)),
        ("ucommit", unit_commitment(2, 2, 5)),
        ("textbook", textbook_mip()),
    ] {
        let std = StandardLp::from_instance(&mip, &[]);
        let mut host = LpSolver::new(std.clone(), LpConfig::standard(), |a| {
            HostEngine::new(a.clone())
        });
        let hsol = host.solve().unwrap();
        let mut dev = device_solver::<M>(std, Accel::gpu(1));
        let dsol = dev.solve().unwrap();
        assert_eq!(hsol.status, dsol.status, "{name}");
        if hsol.status == LpStatus::Optimal {
            assert!(
                (hsol.objective - dsol.objective).abs() < 1e-6,
                "{name}: host {} vs device {}",
                hsol.objective,
                dsol.objective
            );
            assert_eq!(
                hsol.iterations, dsol.iterations,
                "{name}: pivot paths differ"
            );
        }
    }
}

fn warm_resolves_and_cuts<M: Storage + 'static>() {
    let accel = Accel::gpu(1);
    let std = StandardLp::from_instance(&textbook_mip(), &[]);
    let mut solver = device_solver::<M>(std, accel.clone());
    let base = solver.solve().unwrap();
    assert_eq!(base.status, LpStatus::Optimal);
    let bytes_after_solve = accel.stats().h2d_bytes;
    // Several warm re-solves with different branch bounds.
    for ub0 in [3.0, 2.0, 1.0] {
        solver
            .apply_node_bounds(&[BoundChange {
                var: 0,
                lb: 0.0,
                ub: ub0,
            }])
            .unwrap();
        let warm = solver.resolve().unwrap();
        assert_eq!(warm.status, LpStatus::Optimal);
        if ub0 <= 2.0 {
            assert!(warm.objective < base.objective);
        }
    }
    // Nothing was uploaded: not the matrix, and not the small vectors the
    // device already holds either — what a new bound changes of them rides
    // each install's first kernel.
    assert_eq!(
        accel.stats().h2d_bytes,
        bytes_after_solve,
        "a bound-change re-solve uploaded"
    );
    // Cut flow: the cut arrives via H2D (row + slack), per Section 5.2.
    solver.apply_node_bounds(&[]).unwrap();
    let h2d_before = accel.stats().h2d_transfers;
    solver.add_cut(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
    let cutted = solver.resolve().unwrap();
    assert_eq!(cutted.status, LpStatus::Optimal);
    assert!(cutted.objective < base.objective - 1e-6);
    assert!(cutted.x[0] + cutted.x[1] <= 4.0 + 1e-7);
    assert!(accel.stats().h2d_transfers > h2d_before);
}

fn frees_memory_on_drop<M: Storage + 'static>() {
    let accel = Accel::gpu(1);
    {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut solver = device_solver::<M>(std, accel.clone());
        solver.solve().unwrap();
        assert!(accel.mem_used() > 0);
    }
    assert_eq!(accel.mem_used(), 0, "engine leaked device memory");
}

/// `[A | I]` with two equal structural columns: the basis {0, 1} is
/// singular, the slack basis {2, 3} is fine.
fn twin_columns() -> DenseMatrix {
    DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 2.0, 0.0, 1.0]]).unwrap()
}

fn failed_installs_leak_nothing<M: Storage>() {
    let (c, lb, ub, b) = ([1.0, 1.0, 0.0, 0.0], [0.0; 4], [10.0; 4], [4.0, 6.0]);
    let view = ProblemView {
        c: &c,
        lb: &lb,
        ub: &ub,
        b: &b,
    };
    let good = Basis::with_basic_cols(vec![2, 3], 4);
    let singular = Basis::with_basic_cols(vec![0, 1], 4);
    let accel = Accel::gpu(1);
    let engine = || DeviceSimplex::<M>::new(accel.clone(), &twin_columns()).unwrap();

    let mut fresh = engine();
    fresh.install(view, &good).unwrap();
    let installed = accel.mem_used();
    drop(fresh);
    assert_eq!(accel.mem_used(), 0);

    let mut e = engine();
    e.install(view, &good).unwrap();
    assert_eq!(accel.mem_used(), installed);
    let created = accel.with(|d| d.objects_created());
    let mut stranded = None;
    for _ in 0..3 {
        assert!(matches!(
            e.install(view, &singular),
            Err(LpError::Numerics(LinalgError::Singular { .. }))
        ));
        // What the failed install wrote stays until the next install
        // takes it back — the same bytes every time, whether the first
        // failure changed the resident vectors in place or a later one
        // (the record forgotten) uploaded them, less than a whole install,
        // and none of them usable.
        let used = accel.mem_used();
        assert_eq!(*stranded.get_or_insert(used), used);
        assert!(used < installed);
        assert!(matches!(e.price(), Err(LpError::NotInstalled)));
        assert!(matches!(e.basic_values(), Err(LpError::NotInstalled)));
    }
    // A malformed install is a shape error that changes nothing.
    let used = accel.mem_used();
    let (short, long) = (&lb[..3], [&ub[..], &[1.0]].concat());
    let wide = Basis::with_basic_cols(vec![2, 3], 5);
    for (view, basis) in [
        (ProblemView { lb: short, ..view }, &good),
        (ProblemView { ub: &long, ..view }, &good),
        (ProblemView { b: &b[..1], ..view }, &good),
        (view, &wide),
    ] {
        assert!(matches!(e.install(view, basis), Err(LpError::Shape(_))));
        assert_eq!(accel.mem_used(), used);
    }
    e.install(view, &good).unwrap();
    assert_eq!(accel.mem_used(), installed);
    assert_eq!(accel.with(|d| d.objects_created()), created);
    assert_eq!(e.basic_values().unwrap(), vec![4.0, 6.0]);
    drop(e);
    assert_eq!(accel.mem_used(), 0, "engine leaked device memory");
}

fn consumed_vectors_stay_consumed<M: Storage>() {
    // max x0 + x1 over x0 + x1 + s0 = 4, 2 x0 + x1 + s1 = 6.
    let a = DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 1.0, 0.0, 1.0]]).unwrap();
    let (c, lb, ub, b) = ([1.0, 1.0, 0.0, 0.0], [0.0; 4], [10.0; 4], [4.0, 6.0]);
    let view = ProblemView {
        c: &c,
        lb: &lb,
        ub: &ub,
        b: &b,
    };
    let mut e = DeviceSimplex::<M>::new(Accel::gpu(1), &a).unwrap();
    let not_installed = |r: LpResult<()>| assert_eq!(r, Err(LpError::NotInstalled));
    not_installed(e.price().map(drop));
    e.install(view, &Basis::with_basic_cols(vec![2, 3], 4))
        .unwrap();
    // Installed, but no FTRAN column / BTRAN row yet.
    not_installed(e.ratio_test(1.0, 1e-9).map(drop));
    not_installed(e.alpha_entry(0).map(drop));
    not_installed(e.dual_ratio(true, 1e-9).map(drop));
    not_installed(e.alpha_r_entry(0).map(drop));

    e.btran_row(1).unwrap();
    e.ftran_column(0).unwrap();
    assert_eq!(e.alpha_entry(1).unwrap(), 2.0);
    assert_eq!(e.alpha_r_entry(0).unwrap(), 2.0);
    let (r, t, upper) = e.ratio_test(1.0, 1e-9).unwrap().unwrap();
    assert_eq!((r, t, upper), (1, 3.0, false));
    e.apply_pivot(&PivotPlan {
        r,
        q: 0,
        leaving_j: 3,
        dir: 1.0,
        t,
        entering_val: t,
        leaving_sigma: -1.0,
        leaving_x: 0.0,
        c_q: c[0],
        lb_q: lb[0],
        ub_q: ub[0],
    })
    .unwrap();
    assert_eq!(e.eta_count(), 1);
    // The pivot consumed both: their storage is still on the device,
    // their contents are nobody's to read.
    not_installed(e.ratio_test(1.0, 1e-9).map(drop));
    not_installed(e.alpha_entry(1).map(drop));
    not_installed(e.apply_flip(1, 1.0, 0.0, 1.0));
    not_installed(e.dual_ratio(true, 1e-9).map(drop));
    not_installed(e.alpha_r_entry(0).map(drop));
    not_installed(e.devex_update(1, 3));
    assert_eq!(e.basic_values().unwrap(), vec![1.0, 3.0]);
    // Fresh ones are readable again.
    e.ftran_column(1).unwrap();
    e.btran_row(0).unwrap();
    assert_eq!(e.alpha_entry(0).unwrap(), 0.5);
    assert_eq!(e.alpha_r_entry(3).unwrap(), -0.5);

    // A nonbasic column without a finite bound fails the install before
    // anything reaches the device — and keeps the staging buffers.
    let staged = e.stage.record.capacity();
    let free_ub = [10.0, f64::INFINITY, 10.0, 10.0];
    let mut at_upper = Basis::with_basic_cols(vec![2, 3], 4);
    at_upper.status[1] = VarStatus::AtUpper;
    let unbounded = ProblemView {
        ub: &free_ub,
        ..view
    };
    assert_eq!(
        e.install(unbounded, &at_upper),
        Err(LpError::FreeVariable(1))
    );
    not_installed(e.price().map(drop));
    assert_eq!(e.stage.record.capacity(), staged);
    assert!(staged > 0);
}

/// A pivot's stores are arguments of its step kernel, checked before the
/// kernel moves anything: a plan naming a column or row that does not
/// exist leaves `x_B`, the statuses and the eta file as they were.
fn bad_pivot_plans_change_nothing<M: Storage>() {
    // max x0 + x1 over x0 + x1 + s0 = 4, 2 x0 + x1 + s1 = 6.
    let a = DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 1.0, 0.0, 1.0]]).unwrap();
    let (c, lb, ub, b) = ([1.0, 1.0, 0.0, 0.0], [0.0; 4], [10.0; 4], [4.0, 6.0]);
    let view = ProblemView {
        c: &c,
        lb: &lb,
        ub: &ub,
        b: &b,
    };
    let accel = Accel::gpu(1);
    let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
    e.install(view, &Basis::with_basic_cols(vec![2, 3], 4))
        .unwrap();
    e.ftran_column(0).unwrap();
    let (r, t, _) = e.ratio_test(1.0, 1e-9).unwrap().unwrap();
    let good = PivotPlan {
        r,
        q: 0,
        leaving_j: 3,
        dir: 1.0,
        t,
        entering_val: t,
        leaving_sigma: -1.0,
        leaving_x: 0.0,
        c_q: c[0],
        lb_q: lb[0],
        ub_q: ub[0],
    };
    let launches = accel.stats().kernel_launches;
    for bad in [
        PivotPlan { q: 4, ..good },
        PivotPlan {
            leaving_j: 4,
            ..good
        },
        PivotPlan { r: 2, ..good },
    ] {
        let refused = |r: LpResult<()>| {
            assert!(matches!(
                r,
                Err(LpError::Numerics(LinalgError::OutOfBounds { .. }))
            ));
        };
        refused(e.apply_pivot(&bad));
        refused(e.apply_flip(4, 1.0, t, 1.0));
        assert_eq!(accel.stats().kernel_launches, launches, "nothing ran");
        assert_eq!(e.eta_count(), 0);
        assert_eq!(e.basic_values().unwrap(), vec![4.0, 6.0]);
    }
    // α is still there for the plan that is right, and what follows it
    // is what follows a single eta update.
    e.apply_pivot(&good).unwrap();
    assert_eq!(e.eta_count(), 1);
    assert_eq!(e.basic_values().unwrap(), vec![1.0, 3.0]);
    assert_eq!(e.price().unwrap(), Some((1, -0.5)));
    e.ftran_column(1).unwrap();
    assert_eq!(e.alpha_entry(0).unwrap(), 0.5);
}

/// A pivot is one launch, and a run of them one read-back: each iteration
/// of a primal or a dual run after the first is a relaunch, and what they
/// all stage crosses once, behind the run's last kernel — a Dantzig, a
/// Devex and a dual pivot and a bound flip alike. An install reads nothing
/// back, so the device holds its chain open and the run that follows
/// continues it; a terminal primal select brings `x_B` back in its
/// envelope, so the `basic_values` after it crosses nothing. Only the
/// engine's first install uploads: every later one here changes a few
/// entries of what the device holds, and they ride its first kernel.
fn a_pivot_is_one_launch<M: Storage>() {
    // max x0 + x1 over x0 + x1 + s0 = 4, 2 x0 + x1 + s1 = 6.
    let a = DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 1.0, 0.0, 1.0]]).unwrap();
    const C: &[f64] = &[1.0, 1.0, 0.0, 0.0];
    let (lb, b) = ([0.0; 4], [4.0, 6.0]);
    let slack = Basis::with_basic_cols(vec![2, 3], 4);
    let accel = Accel::gpu(1);
    let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
    // What the calls since the last look moved: launches, D2H transfers
    // and bytes, H2D transfers.
    let seen = std::cell::RefCell::new(accel.stats());
    let grew = |what: &str, want: (u64, u64, u64, u64)| {
        let (s, seen) = (accel.stats(), seen.replace(accel.stats()));
        let got = (
            s.kernel_launches - seen.kernel_launches,
            s.d2h_transfers - seen.d2h_transfers,
            s.d2h_bytes - seen.d2h_bytes,
            s.h2d_transfers - seen.h2d_transfers,
        );
        assert_eq!(
            got, want,
            "{what}: (launches, read-backs, bytes back, uploads)"
        );
    };
    let view = |c: &'static [f64], ub: &'static [f64]| ProblemView {
        c,
        lb: &lb,
        ub,
        b: &b,
    };

    for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
        let primal = PrimalConfig {
            pricing,
            ..PrimalConfig::default()
        };
        // x0 enters in row 1 (s1 leaves), then x1 in row 0 (s0 leaves),
        // then nothing prices out. Each select stages the argmin's 16
        // bytes and the ratio test's 24, the terminal one the argmin's and
        // x_B's 16: 1 + 2 launches and one read-back. The first install
        // uploads; the second undoes the first run's two pivots in place.
        let ub = &[10.0; 4];
        let mut basis = slack.clone();
        e.install(view(C, ub), &basis).unwrap();
        let mut run = PrimalRun::default();
        e.primal_run(view(C, ub), &mut basis, &primal, &mut run)
            .unwrap();
        assert_eq!(run.iters, 2);
        assert_eq!(run.outcome, Some(PrimalOutcome::Optimal));
        assert_eq!(basis.cols, vec![1, 0]);
        let devex = u64::from(pricing == PricingRule::Devex);
        grew(
            "install + a two-pivot primal_run",
            (3, 1, 2 * (16 + 24) + 16 + 16, 1 - devex),
        );
        assert_eq!(e.basic_values().unwrap(), vec![2.0, 2.0]);
        grew("basic_values after a terminal select", (0, 0, 0, 0));
        // The staged copy is spent: a second read crosses.
        assert_eq!(e.basic_values().unwrap(), vec![2.0, 2.0]);
        grew("basic_values again", (0, 1, 16, 0));
    }

    // A bound flip: x0 may rise by 1 only, before any row blocks; then x1
    // enters in row 0, and nothing prices out.
    let ub = &[1.0, 10.0, 10.0, 10.0];
    let mut basis = slack.clone();
    e.install(view(C, ub), &basis).unwrap();
    let mut run = PrimalRun::default();
    e.primal_run(view(C, ub), &mut basis, &PrimalConfig::default(), &mut run)
        .unwrap();
    assert_eq!((run.iters, run.outcome), (2, Some(PrimalOutcome::Optimal)));
    assert_eq!(basis.status[0], VarStatus::AtUpper);
    assert_eq!(basis.cols, vec![1, 3]);
    grew(
        "install + a flip and a pivot",
        (3, 1, 2 * (16 + 24) + 16 + 16, 0),
    );

    // A dual run of one pivot: s0 = 4 sits above an upper bound of 1. The
    // install launches, the run's first iteration continues it and its
    // second, which finds x_B feasible, relaunches: 1 + 1 launches. Both
    // reductions' results and the two pivot entries, 24 + 16 + 8 + 8, then
    // the terminal reduction's 24, in one envelope. (Costs negated so that
    // the slack basis is dual feasible.)
    let dual = DualConfig::standard();
    let c_neg = &[-1.0, -1.0, 0.0, 0.0];
    let ub = &[10.0, 10.0, 1.0, 10.0];
    let mut basis = slack.clone();
    let mut at = Progress::default();
    e.install(view(c_neg, ub), &basis).unwrap();
    let run = e.dual_run(view(c_neg, ub), &mut basis, &dual, None, &mut at);
    assert_eq!(run, Ok(Some(DualOutcome::PrimalFeasible)));
    assert_eq!((at.dual, at.polish), (1, None));
    assert_eq!(basis.cols, vec![0, 3]);
    assert_eq!(basis.status[2], VarStatus::AtUpper);
    grew("install + a one-pivot dual_run", (2, 1, 56 + 24, 0));
    // A dual run without a polish stages no x_B: it crosses on its own.
    assert_eq!(e.basic_values().unwrap(), vec![3.0, 0.0]);
    grew("basic_values after a dual run", (0, 1, 16, 0));

    // Infeasible: s0 = 4 above 1 again, and both structurals fixed. One
    // envelope: the two reductions' results.
    let ub = &[0.0, 0.0, 1.0, 10.0];
    let mut basis = slack.clone();
    let mut at = Progress::default();
    e.install(view(c_neg, ub), &basis).unwrap();
    let infeasible = Some(DualOutcome::Infeasible {
        row: 0,
        below: false,
    });
    let run = e.dual_run(view(c_neg, ub), &mut basis, &dual, None, &mut at);
    assert_eq!((run, at.dual), (Ok(infeasible), 0));
    assert_eq!(basis, slack);
    grew("install + an infeasible dual_run", (1, 1, 24 + 16, 0));

    // A re-install that moves one bound: s0's upper bound, one entry of
    // `u` and one of u_B, rides the install's first kernel and nothing is
    // uploaded.
    let ub = &[0.0, 0.0, 2.0, 10.0];
    e.install(view(c_neg, ub), &basis).unwrap();
    assert_eq!(e.stage.delta.len(), 2);
    let run = e.dual_run(view(c_neg, ub), &mut basis, &dual, None, &mut at);
    assert_eq!(run, Ok(infeasible));
    grew("one-bound re-install + dual_run", (1, 1, 24 + 16, 0));
}

/// `max −Σ x` over three rows `Σ a_ij x_j + s_i = b_i`, `0 ≤ x ≤ 8`, from
/// its slack basis with every slack's upper bound at 1: dual feasible, and
/// each slack sits above its bound. Returns the matrix, the view's vectors
/// `(c, lb, ub, b)` and the slack basis.
fn three_violated_rows() -> (DenseMatrix, [Vec<f64>; 4], Basis) {
    let rows = [
        [1.0, 2.0, 1.0, 1.0, 0.0, 0.0],
        [2.0, 1.0, 3.0, 0.0, 1.0, 0.0],
        [1.0, 3.0, 2.0, 0.0, 0.0, 1.0],
    ];
    let a = DenseMatrix::from_rows(&rows.map(Vec::from)).unwrap();
    let c = vec![-1.0, -1.0, -1.0, 0.0, 0.0, 0.0];
    let (lb, ub) = (vec![0.0; 6], vec![8.0, 8.0, 8.0, 1.0, 1.0, 1.0]);
    let b = vec![6.0, 9.0, 8.0];
    (a, [c, lb, ub, b], Basis::with_basic_cols(vec![3, 4, 5], 6))
}

/// A problem's vectors `(c, lb, ub, b)` as a view.
fn view_of([c, lb, ub, b]: &[Vec<f64>; 4]) -> ProblemView<'_> {
    ProblemView { c, lb, ub, b }
}

/// What a device moved since `before`: launches, D2H transfers, D2H bytes,
/// H2D transfers.
fn moved(accel: &Accel, before: &gmip_gpu::DeviceStats) -> (u64, u64, u64, u64) {
    let s = accel.stats();
    (
        s.kernel_launches - before.kernel_launches,
        s.d2h_transfers - before.d2h_transfers,
        s.d2h_bytes - before.d2h_bytes,
        s.h2d_transfers - before.h2d_transfers,
    )
}

/// A dual run is one call and one envelope, however many pivots it makes:
/// an install and a `k`-pivot run that ends the solve are `1 + k`
/// launches and one read-back of `56k + 24` bytes, a run its budget ends
/// one read-back of `56k`. Its pivots are the host engine's, bit for bit,
/// and so is the basis it leaves behind.
fn a_dual_run_is_one_envelope<M: Storage>() {
    let (a, vectors, slack) = three_violated_rows();
    let view = view_of(&vectors);
    let dual = DualConfig::standard();
    let mut host = HostEngine::new(a.clone());
    let mut host_basis = slack.clone();
    let mut host_at = Progress::default();
    host.install(view, &host_basis).unwrap();
    let host_run = host.dual_run(view, &mut host_basis, &dual, None, &mut host_at);
    assert_eq!(host_run, Ok(Some(DualOutcome::PrimalFeasible)));
    let k = host_at.dual;
    assert!(k >= 2, "{k} pivots");
    let host_xb = host.basic_values().unwrap();

    let accel = Accel::gpu(1);
    let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
    let mut basis = slack.clone();
    let mut at = Progress::default();
    let before = accel.stats();
    e.install(view, &basis).unwrap();
    assert_eq!(e.dual_run(view, &mut basis, &dual, None, &mut at), host_run);
    assert_eq!(at, host_at);
    assert_eq!(
        moved(&accel, &before),
        (1 + k as u64, 1, 56 * k as u64 + 24, 1),
        "install + a {k}-pivot run: (launches, read-backs, bytes back, uploads)"
    );
    assert_eq!(basis, host_basis);
    assert_eq!(e.basic_values().unwrap(), host_xb);

    // The same run cut short by its budget: one envelope of its pivots.
    let mut basis = slack.clone();
    let mut at = Progress::default();
    let mut capped = DualConfig::standard();
    capped.base.max_iters = k - 1;
    e.install(view, &basis).unwrap();
    let before = accel.stats();
    let run = e.dual_run(view, &mut basis, &capped, None, &mut at);
    assert_eq!((run, at.dual), (Ok(None), k - 1));
    assert_eq!(
        moved(&accel, &before),
        (k as u64 - 2, 1, 56 * (k as u64 - 1), 0),
        "a run of {} pivots its budget ends",
        k - 1
    );
    assert_eq!(e.eta_count(), k - 1);
}

/// A warm re-solve is one call and one envelope: the dual run, the
/// re-install of the basis it reached and the polish's first select share
/// one chain, the re-install and the select riding the launch of the
/// iteration that found `x_B` feasible. `k` dual pivots and a polish that
/// finds the basis optimal are `1 + k` launches (the install's among them)
/// and one read-back, of the `56k + 24` bytes of the dual run, the argmin's
/// 16 and `x_B`; the re-install ships nothing, and the `basic_values`
/// after it crosses nothing. Its pivots are the host engine's.
fn a_warm_resolve_is_one_envelope<M: Storage>() {
    let (a, vectors, slack) = three_violated_rows();
    let view = view_of(&vectors);
    let (dual, polish) = (DualConfig::standard(), PrimalConfig::default());
    let mut host = HostEngine::new(a.clone());
    let mut host_basis = slack.clone();
    let mut host_at = Progress::default();
    host.install(view, &host_basis).unwrap();
    let host_run = host.dual_run(view, &mut host_basis, &dual, Some(&polish), &mut host_at);
    assert_eq!(host_run, Ok(Some(DualOutcome::PrimalFeasible)));
    let done = PrimalRun {
        outcome: Some(PrimalOutcome::Optimal),
        ..PrimalRun::default()
    };
    assert_eq!(host_at.polish, Some(done), "the polish pivots");
    let k = host_at.dual;
    assert!(k >= 2, "{k} pivots");

    let accel = Accel::gpu(1);
    let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
    let mut basis = slack.clone();
    let mut at = Progress::default();
    let before = accel.stats();
    e.install(view, &basis).unwrap();
    let run = e.dual_run(view, &mut basis, &dual, Some(&polish), &mut at);
    assert_eq!((run, at), (host_run, host_at));
    assert!(e.stage.delta.is_empty(), "the re-install shipped a delta");
    let m = basis.m() as u64;
    assert_eq!(
        moved(&accel, &before),
        (1 + k as u64, 1, 56 * k as u64 + 24 + 16 + 8 * m, 1),
        "install + {k} dual pivots + a terminal polish select: \
         (launches, read-backs, bytes back, uploads)"
    );
    assert_eq!(basis, host_basis);
    // x_B is the fresh factorization's: what an install of that basis on
    // an engine that never held another computes.
    let mut fresh = DeviceSimplex::<M>::new(Accel::gpu(1), &a).unwrap();
    fresh.install(view, &basis).unwrap();
    let before = accel.stats();
    assert_eq!(e.basic_values().unwrap(), fresh.basic_values().unwrap());
    assert_eq!(moved(&accel, &before), (0, 0, 0, 0), "x_B crossed again");
}

/// `max Σ x` over the rows of `three_violated_rows` from its slack basis,
/// the slacks free above: primal feasible, and several pivots and flips
/// from optimal.
fn three_rows_to_fill() -> (DenseMatrix, [Vec<f64>; 4], Basis) {
    let (a, [c, lb, mut ub, b], slack) = three_violated_rows();
    ub[3..].fill(f64::INFINITY);
    let c = c.iter().map(|v| -v).collect();
    (a, [c, lb, ub, b], slack)
}

/// A primal run is one call and one envelope: from an install, `p`
/// iterations and the terminal select are `1 + p` launches and one
/// read-back of 40 bytes a select and the terminal one's 16 and `x_B`, on
/// either pricing rule. Its iterations are the host engine's, bit for bit.
fn a_primal_run_is_one_envelope<M: Storage>() {
    let (a, vectors, slack) = three_rows_to_fill();
    let view = view_of(&vectors);
    for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
        let cfg = PrimalConfig {
            pricing,
            ..PrimalConfig::default()
        };
        let mut host = HostEngine::new(a.clone());
        let mut host_basis = slack.clone();
        let mut host_run = PrimalRun::default();
        host.install(view, &host_basis).unwrap();
        host.primal_run(view, &mut host_basis, &cfg, &mut host_run)
            .unwrap();
        assert_eq!(host_run.outcome, Some(PrimalOutcome::Optimal));
        let p = host_run.iters as u64;
        assert!(p >= 2, "{pricing:?}: {p} iterations");

        let accel = Accel::gpu(1);
        let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
        let mut basis = slack.clone();
        let mut run = PrimalRun::default();
        let before = accel.stats();
        e.install(view, &basis).unwrap();
        e.primal_run(view, &mut basis, &cfg, &mut run).unwrap();
        assert_eq!(run, host_run, "{pricing:?}");
        assert_eq!(basis, host_basis, "{pricing:?}");
        let m = basis.m() as u64;
        assert_eq!(
            moved(&accel, &before),
            (1 + p, 1, 40 * p + 16 + 8 * m, 1),
            "{pricing:?}: install + a {p}-iteration run"
        );
        assert_eq!(e.basic_values().unwrap(), host.basic_values().unwrap());
    }
}

/// The largest device, below the memory a warm re-solve peaks at, on which
/// `fails` says the re-solve failed, with what it left behind.
fn starved<M: Storage, R>(
    a: &DenseMatrix,
    view: ProblemView<'_>,
    slack: &Basis,
    polish: Option<&PrimalConfig>,
    fails: impl Fn(&LpResult<Option<DualOutcome>>, &DeviceSimplex<M>, &Progress) -> Option<R>,
) -> Option<(Basis, R)> {
    let dual = DualConfig::standard();
    let peak = {
        let accel = Accel::gpu(1);
        let mut e = DeviceSimplex::<M>::new(accel.clone(), a).unwrap();
        let mut basis = slack.clone();
        e.install(view, &basis).unwrap();
        e.dual_run(view, &mut basis, &dual, polish, &mut Progress::default())
            .unwrap();
        accel.with(|d| d.memory().peak())
    };
    (1..peak).rev().find_map(|capacity| {
        let accel = Accel::gpu_with(DeviceConfig {
            mem_capacity: capacity,
            ..DeviceConfig::gpu(1)
        });
        let mut e = DeviceSimplex::<M>::new(accel, a).ok()?;
        let mut basis = slack.clone();
        let mut at = Progress::default();
        e.install(view, &basis).ok()?;
        let run = e.dual_run(view, &mut basis, &dual, polish, &mut at);
        fails(&run, &e, &at).map(|r| (basis, r))
    })
}

/// A run that fails midway — here the device runs out of memory for the
/// eta file it grows — still brings back what its finished pivots staged:
/// the host's basis is the one the device's eta file represents, the
/// host engine's after as many pivots.
fn a_failed_dual_run_keeps_its_pivots<M: Storage>() {
    let (a, vectors, slack) = three_violated_rows();
    let view = view_of(&vectors);
    let failed = starved::<M, _>(&a, view, &slack, None, |run, e, at| {
        (run.is_err() && e.eta_count() > 0).then(|| {
            assert_eq!(at.dual, e.eta_count(), "the pivots the run counted");
            at.dual
        })
    });
    let (basis, pivots) = failed.expect("a capacity that fails the run midway");
    let mut host = HostEngine::new(a);
    let mut host_basis = slack;
    let mut capped = DualConfig::standard();
    capped.base.max_iters = pivots;
    host.install(view, &host_basis).unwrap();
    host.dual_run(
        view,
        &mut host_basis,
        &capped,
        None,
        &mut Progress::default(),
    )
    .unwrap();
    assert_eq!(basis, host_basis, "after {pivots} pivots");
}

/// `max −Σ x` over `m` dense, diagonally dominant rows
/// `Σ a_ij x_j + s_i = b_i`, `0 ≤ x ≤ 8`, from its slack basis: dual
/// feasible, and the first `v` slacks above their upper bound of 1.
fn violated_rows(m: usize, v: usize) -> (DenseMatrix, [Vec<f64>; 4], Basis) {
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            let mut row: Vec<f64> = (0..m)
                .map(|j| {
                    if i == j {
                        4.0
                    } else {
                        ((3 * i + 5 * j) % 7) as f64 / 28.0
                    }
                })
                .collect();
            row.extend((0..m).map(|k| f64::from(u8::from(k == i))));
            row
        })
        .collect();
    let a = DenseMatrix::from_rows(&rows).unwrap();
    let mut c = vec![-1.0; m];
    c.resize(2 * m, 0.0);
    let mut ub = vec![8.0; m];
    ub.resize(m + v, 1.0);
    ub.resize(2 * m, f64::INFINITY);
    let b = (0..m).map(|i| 6.0 + i as f64).collect();
    let slack = Basis::with_basic_cols((m..2 * m).collect(), 2 * m);
    (a, [c, vec![0.0; 2 * m], ub, b], slack)
}

/// A warm re-solve whose re-install fails keeps every dual pivot: the
/// host's basis and count are the host engine's after the whole dual run,
/// with no polish to count. The failure is the device running out of
/// memory for the fresh factors of the basis the run reached: a device too
/// small for them, or one another tenant took memory from after the
/// install that the dual run could spare and the re-install could not.
fn a_failed_polish_keeps_its_dual_pivots<M: Storage>() {
    // A short dual run on a wide basis (the dense factorization's gathered
    // block outgrows it) and a long one (the sparse factors of the basis it
    // reaches outgrow those of the slack basis).
    let failed = [violated_rows(12, 1), violated_rows(12, 12)]
        .into_iter()
        .any(|(a, vectors, slack)| failed_polish::<M>(&a, view_of(&vectors), &slack));
    assert!(failed, "no device the re-install alone overfills");
}

/// One [`a_failed_polish_keeps_its_dual_pivots`] case: whether a device the
/// re-install alone overfills was found — and if so, it kept the pivots.
fn failed_polish<M: Storage>(a: &DenseMatrix, view: ProblemView<'_>, slack: &Basis) -> bool {
    let (dual, polish) = (DualConfig::standard(), PrimalConfig::default());
    let mut host = HostEngine::new(a.clone());
    let mut host_basis = slack.clone();
    let mut host_at = Progress::default();
    host.install(view, &host_basis).unwrap();
    let end = host.dual_run(view, &mut host_basis, &dual, None, &mut host_at);
    assert_eq!(end, Ok(Some(DualOutcome::PrimalFeasible)));
    let k = host_at.dual;
    assert!(k >= 1, "{k} dual pivots");
    // Devices from one the install just fits upward, then that one with
    // ever more memory taken by another tenant after the install: the first
    // on which the re-solve fails once the dual run is done.
    let fits = {
        let accel = Accel::gpu(1);
        let mut e = DeviceSimplex::<M>::new(accel.clone(), a).unwrap();
        e.install(view, slack).unwrap();
        accel.with(|d| d.memory().peak())
    };
    let grown = (0..fits).step_by(8).map(|more| (fits + more, 0));
    let taken = (8..fits).step_by(8).map(|taken| (fits, taken));
    let failed = grown.chain(taken).find_map(|(capacity, taken)| {
        let accel = Accel::gpu_with(DeviceConfig {
            mem_capacity: capacity,
            ..DeviceConfig::gpu(1)
        });
        let mut e = DeviceSimplex::<M>::new(accel.clone(), a).unwrap();
        let mut basis = slack.clone();
        let mut at = Progress::default();
        e.install(view, &basis).unwrap();
        accel.with(|d| d.alloc_raw(taken)).ok()?;
        let run = e.dual_run(view, &mut basis, &dual, Some(&polish), &mut at);
        (run.is_err() && at.dual == k && at.polish.is_none()).then_some((basis, at))
    });
    let Some((basis, at)) = failed else {
        return false;
    };
    assert_eq!(at, host_at, "{k} dual pivots and no polish");
    assert_eq!(basis, host_basis);
    true
}

/// The `x_B` a terminal select brought back is `basic_values`' only if
/// nothing came between: an install, a cut, an apply or a failed select
/// drops it, and the read after any of them crosses — and sees what
/// that call did. A second read crosses again.
fn a_staged_x_b_is_never_stale<M: Storage>() {
    // x0 + x1 + s0 = 4, 2 x0 + x1 + s1 = 6; nothing prices out at the
    // slack basis.
    let a = DenseMatrix::from_rows(&[vec![1.0, 1.0, 1.0, 0.0], vec![2.0, 1.0, 0.0, 1.0]]).unwrap();
    let (c, lb, ub) = ([-1.0, -1.0, 0.0, 0.0], [0.0; 4], [10.0; 4]);
    let view = |b| ProblemView {
        c: &c,
        lb: &lb,
        ub: &ub,
        b,
    };
    let slack = Basis::with_basic_cols(vec![2, 3], 4);
    let accel = Accel::gpu(1);
    let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
    let crossings = || accel.stats().d2h_transfers;
    let staged = |e: &mut DeviceSimplex<M>| {
        e.install(view(&[4.0, 6.0]), &slack).unwrap();
        let mut run = PrimalRun::default();
        let cfg = PrimalConfig::default();
        e.primal_run(view(&[4.0, 6.0]), &mut slack.clone(), &cfg, &mut run)
            .unwrap();
        assert_eq!((run.iters, run.outcome), (0, Some(PrimalOutcome::Optimal)));
    };
    // Untouched, the staged copy is served once.
    staged(&mut e);
    let before = crossings();
    assert_eq!(e.basic_values().unwrap(), vec![4.0, 6.0]);
    assert_eq!(crossings(), before);
    assert_eq!(e.basic_values().unwrap(), vec![4.0, 6.0]);
    assert_eq!(crossings(), before + 1);

    type Interloper<M> = fn(&mut DeviceSimplex<M>, &[f64]) -> LpResult<()>;
    let interlopers: [(&str, Interloper<M>, Vec<f64>); 4] = [
        (
            "install",
            |e, c| {
                let (lb, ub) = ([0.0; 4], [10.0; 4]);
                let view = ProblemView {
                    c,
                    lb: &lb,
                    ub: &ub,
                    b: &[3.0, 5.0],
                };
                e.install(view, &Basis::with_basic_cols(vec![2, 3], 4))
            },
            vec![3.0, 5.0],
        ),
        (
            "append_cut",
            |e, _| e.append_cut(&[1.0, 0.0, 0.0, 0.0], &[0.0, 0.0, 1.0]),
            vec![4.0, 6.0],
        ),
        (
            "apply",
            |e, _| {
                // x0 runs to 1 without a basis change.
                e.ftran_column(0)?;
                e.apply_flip(0, 1.0, 1.0, 1.0)
            },
            vec![3.0, 4.0],
        ),
        (
            "failed select",
            |e, _| {
                // Anything prices out, and the basis calls x0 basic.
                let eager = PrimalConfig {
                    price_tol: -10.0,
                    ..PrimalConfig::default()
                };
                let mut wrong = Basis::with_basic_cols(vec![0, 1], 4);
                let (lb, ub) = ([0.0; 4], [10.0; 4]);
                let view = ProblemView {
                    c: &[0.0; 4],
                    lb: &lb,
                    ub: &ub,
                    b: &[4.0, 6.0],
                };
                let mut run = PrimalRun::default();
                assert!(e.primal_run(view, &mut wrong, &eager, &mut run).is_err());
                Ok(())
            },
            vec![4.0, 6.0],
        ),
    ];
    for (what, interloper, xb) in interlopers {
        // A fresh engine each time: the cut grows the one it meets.
        let mut e = DeviceSimplex::<M>::new(accel.clone(), &a).unwrap();
        staged(&mut e);
        interloper(&mut e, &c).unwrap();
        let before = crossings();
        assert_eq!(e.basic_values().unwrap(), xb, "{what}");
        assert_eq!(crossings(), before + 1, "{what}: the staged x_B was served");
        assert_eq!(e.basic_values().unwrap(), xb, "{what}");
        assert_eq!(crossings(), before + 2, "{what}");
    }
}

/// Everything an install determines, bit for bit: `x_B`, the duals, the
/// reduced costs, a tableau row, and the pivot path a primal solve takes
/// from there (iterations, final basis, final `x_B`).
fn install_fingerprint<M: Storage>(
    e: &mut DeviceSimplex<M>,
    view: ProblemView<'_>,
    basis: &Basis,
) -> LpResult<(Vec<Vec<u64>>, usize, Vec<usize>)> {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    e.install(view, basis)?;
    let mut vectors = vec![
        bits(e.basic_values()?),
        bits(e.dual_prices()?),
        bits(e.reduced_costs_host()?),
        bits(e.btran_row_host(basis.m() - 1)?),
    ];
    let mut basis = basis.clone();
    let (_, iterations) = primal_solve(e, view, &mut basis, &PrimalConfig::default())?;
    vectors.push(bits(e.basic_values()?));
    Ok((vectors, iterations, basis.cols))
}

/// `install(A)`, pivots, `append_cut`, `install(B)` on one engine against
/// `install(B)` on an engine that has never held anything else.
fn used_engine_installs_like_a_fresh_one<M: Storage>(
    rows: &[Vec<f64>],
    c: &[f64],
    b: &[f64],
    cut: (&[f64], f64),
) -> Result<(), TestCaseError> {
    let (m, n) = (rows.len(), rows[0].len());
    // [A | I], columns boxed so no direction is unbounded.
    let mut a = DenseMatrix::from_rows(rows).unwrap();
    for i in 0..m {
        let mut slack = vec![0.0; m];
        slack[i] = 1.0;
        a.push_col(&slack).unwrap();
    }
    let mut c = c.to_vec();
    c.resize(n + m, 0.0);
    let (mut lb, mut ub, mut b) = (vec![0.0; n + m], vec![8.0; n + m], b.to_vec());
    ub[n..].fill(f64::INFINITY);
    let view_a = ProblemView {
        c: &c,
        lb: &lb,
        ub: &ub,
        b: &b,
    };
    let slack_basis = Basis::with_basic_cols((n..n + m).collect(), n + m);

    let mut used = DeviceSimplex::<M>::new(Accel::gpu(1), &a).unwrap();
    let mut basis = slack_basis.clone();
    used.install(view_a, &basis).unwrap();
    primal_solve(&mut used, view_a, &mut basis, &PrimalConfig::default()).unwrap();
    // Leave an unconsumed FTRAN column and BTRAN row behind as well.
    used.ftran_column(0).unwrap();
    used.btran_row(0).unwrap();

    // The cut row over the structural columns, its slack basic in the
    // new row; B is the grown problem from the slack basis.
    let mut row = cut.0.to_vec();
    row.resize(n + m, 0.0);
    let mut slack = vec![0.0; m + 1];
    slack[m] = 1.0;
    used.append_cut(&row, &slack).unwrap();
    a.push_row(&row).unwrap();
    a.push_col(&slack).unwrap();
    c.push(0.0);
    lb.push(0.0);
    ub.push(f64::INFINITY);
    b.push(cut.1);
    let view_b = ProblemView {
        c: &c,
        lb: &lb,
        ub: &ub,
        b: &b,
    };
    let mut basis_b = slack_basis;
    basis_b.extend_for_cuts(n + m, 1);

    let mut fresh = DeviceSimplex::<M>::new(Accel::gpu(1), &a).unwrap();
    prop_assert_eq!(
        install_fingerprint(&mut used, view_b, &basis_b),
        install_fingerprint(&mut fresh, view_b, &basis_b)
    );
    Ok(())
}

/// One step of a [`record_follows_the_device`] sequence.
#[derive(Debug, Clone)]
enum Step {
    /// A new upper bound on a column, which the next install sees.
    Bound(usize, f64),
    /// A primal solve from the current basis: an install, primal pivots
    /// and bound flips.
    Primal(PricingRule),
    /// A dual solve from the current basis: an install and dual pivots.
    Dual,
    /// A cut row over the structural columns, and its right-hand side.
    Cut(Vec<f64>, f64),
    /// An install of a singular basis, which fails.
    Singular,
}

/// While the engine holds its record, the record is what the device
/// holds, bit for bit — read without a charge.
fn record_is_resident<M: Storage>(e: &DeviceSimplex<M>) -> Result<(), TestCaseError> {
    let Some(ws) = e.ws.filter(|_| e.stage.record.held) else {
        return Ok(());
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (k, h) in ws.recorded().into_iter().enumerate() {
        let record = e.stage.record.vector(k);
        let resident = e.accel.with(|d| d.peek_vector(h).map(bits));
        prop_assert_eq!(resident, Ok(bits(record)));
    }
    Ok(())
}

/// The LP a record sequence runs on: `[A | a_0 | I]` (column `n` repeats
/// column 0, so a basis holding both is singular), its `c`, `l`, `u` and
/// `b`, and `n`.
fn record_lp(rows: &[Vec<f64>]) -> (DenseMatrix, [Vec<f64>; 4], usize) {
    let (m, n) = (rows.len(), rows[0].len());
    let mut a = DenseMatrix::from_rows(rows).unwrap();
    a.push_col(&a.col(0)).unwrap();
    for i in 0..m {
        let mut slack = vec![0.0; m];
        slack[i] = 1.0;
        a.push_col(&slack).unwrap();
    }
    let mut c: Vec<f64> = (0..=n).map(|j| f64::from((j % 3) as u8) - 0.5).collect();
    c.resize(n + 1 + m, 0.0);
    let (lb, mut ub, b) = (vec![0.0; c.len()], vec![8.0; c.len()], vec![6.0; m]);
    ub[n + 1..].fill(f64::INFINITY);
    (a, [c, lb, ub, b], n)
}

/// The slack basis of a record LP with `total` columns over `n + 1`
/// structural ones.
fn record_slack_basis(n: usize, total: usize) -> Basis {
    Basis::with_basic_cols((n + 1..total).collect(), total)
}

/// A [`Step::Primal`] or [`Step::Dual`] solve from `basis`.
fn record_run<E: SimplexEngine>(
    e: &mut E,
    view: ProblemView<'_>,
    basis: &mut Basis,
    step: &Step,
) -> LpResult<()> {
    match *step {
        Step::Primal(pricing) => {
            let cfg = PrimalConfig {
                pricing,
                ..PrimalConfig::default()
            };
            primal_solve(e, view, basis, &cfg).map(drop)
        }
        _ => crate::dual::dual_solve(e, view, basis, &DualConfig::standard()).map(drop),
    }
}

/// Grows a record LP by the cut `row` (over the structural columns) with
/// right-hand side `rhs` and its slack basic: the engines' and the
/// view's side of it.
fn record_cut(
    engines: &mut [&mut dyn SimplexEngine],
    [c, lb, ub, b]: &mut [Vec<f64>; 4],
    basis: &mut Basis,
    n: usize,
    (row, rhs): (&[f64], f64),
) {
    let total = c.len();
    let mut row = row[..n].to_vec();
    row.resize(total, 0.0);
    let mut col = vec![0.0; b.len() + 1];
    col[b.len()] = 1.0;
    for e in engines {
        e.append_cut(&row, &col).unwrap();
    }
    basis.extend_for_cuts(total, 1);
    c.push(0.0);
    lb.push(0.0);
    ub.push(f64::INFINITY);
    b.push(rhs);
}

/// A basis of a record LP with `total` columns holding column 0 and its
/// twin `n`: singular.
fn record_singular_basis(n: usize, total: usize) -> Basis {
    let twins = [0, n].into_iter().chain(n + 3..total).collect();
    Basis::with_basic_cols(twins, total)
}

/// Runs `steps` on one engine over a [`record_lp`], checking the record
/// after each; a solve that succeeds is followed by a re-install of the
/// basis it ended on, which must ship nothing: no upload, an empty delta.
fn record_follows_the_device<M: Storage>(
    rows: &[Vec<f64>],
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let (a, mut lp, n) = record_lp(rows);
    let mut basis = record_slack_basis(n, lp[0].len());
    let mut e = DeviceSimplex::<M>::new(Accel::gpu(1), &a).unwrap();
    for step in steps {
        let [c, lb, ub, b] = &lp;
        let view = ProblemView { c, lb, ub, b };
        match step {
            Step::Bound(j, v) => lp[2][j % (n + 1)] = *v,
            Step::Primal(_) | Step::Dual => {
                let solved = record_run(&mut e, view, &mut basis, step);
                record_is_resident(&e)?;
                let h2d = e.accel.stats().h2d_transfers;
                if solved.and_then(|()| e.install(view, &basis)).is_ok() {
                    prop_assert_eq!(e.accel.stats().h2d_transfers, h2d, "a re-install uploaded");
                    // The runs' stores left the record as the install
                    // assembles it: the re-install ships nothing at all.
                    prop_assert!(e.stage.delta.is_empty(), "a re-install shipped a delta");
                } else {
                    basis = record_slack_basis(n, c.len());
                }
            }
            Step::Cut(row, rhs) => {
                record_cut(&mut [&mut e], &mut lp, &mut basis, n, (&row[..], *rhs));
                prop_assert!(!e.stage.record.held, "a cut keeps the record");
            }
            Step::Singular => {
                let singular = record_singular_basis(n, c.len());
                prop_assert!(e.install(view, &singular).is_err());
                prop_assert!(!e.stage.record.held, "a failed install keeps the record");
            }
        }
        record_is_resident(&e)?;
    }
    Ok(())
}

/// What the install at the head of `ops` journaled as its upload: `Some`
/// of its bytes if `ops` starts with an install.
fn journaled_upload(ops: &[WaveOp]) -> Option<usize> {
    match ops {
        [WaveOp::Transfer { bytes, h2d: true }, WaveOp::Kernel {
            class: WaveClass::Factor,
            ..
        }, ..] => Some(*bytes),
        _ => None,
    }
}

/// Runs `steps` on a dense device engine and a [`RecordingEngine`] twin,
/// call for call. After each step the twin's record is the device
/// engine's, held or not, entry for entry; a re-install right after a
/// solve journals an upload of 0 bytes, where the device ships nothing; and
/// the first install after a cut journals the whole upload.
fn journal_follows_the_device(rows: &[Vec<f64>], steps: &[Step]) -> Result<(), TestCaseError> {
    let (a, mut lp, n) = record_lp(rows);
    let mut basis = record_slack_basis(n, lp[0].len());
    let mut e = DeviceEngine::new(Accel::gpu(1), &a).unwrap();
    let mut rec = RecordingEngine::new(a);
    let mut cut = false;
    for step in steps {
        let [c, lb, ub, b] = &lp;
        let view = ProblemView { c, lb, ub, b };
        // The record's nine vectors, as the device engine uploads them.
        let whole = 8 * (5 * rec.n() + 4 * rec.m());
        match step {
            Step::Bound(j, v) => lp[2][j % (n + 1)] = *v,
            Step::Primal(_) | Step::Dual => {
                let mut twin = basis.clone();
                let solved = record_run(&mut e, view, &mut basis, step);
                prop_assert_eq!(
                    record_run(&mut rec, view, &mut twin, step).is_ok(),
                    solved.is_ok()
                );
                prop_assert_eq!(&twin.cols, &basis.cols, "the twins pivoted apart");
                records_agree(&rec, &e)?;
                let ops = rec.take_ops();
                if std::mem::take(&mut cut) {
                    prop_assert_eq!(journaled_upload(&ops), Some(whole), "a cut kept the record");
                }
                let h2d = e.accel.stats().h2d_transfers;
                if solved.and_then(|()| e.install(view, &basis)).is_ok() {
                    prop_assert_eq!(e.accel.stats().h2d_transfers, h2d);
                    prop_assert!(rec.install(view, &basis).is_ok());
                    prop_assert_eq!(journaled_upload(&rec.take_ops()), Some(0));
                } else {
                    basis = record_slack_basis(n, c.len());
                }
            }
            Step::Cut(row, rhs) => {
                record_cut(
                    &mut [&mut e, &mut rec],
                    &mut lp,
                    &mut basis,
                    n,
                    (&row[..], *rhs),
                );
                rec.take_ops();
                cut = true;
            }
            Step::Singular => {
                let singular = record_singular_basis(n, c.len());
                prop_assert!(e.install(view, &singular).is_err());
                prop_assert!(rec.install(view, &singular).is_err());
                let upload = journaled_upload(&rec.take_ops());
                if std::mem::take(&mut cut) {
                    prop_assert_eq!(upload, Some(whole), "a cut kept the record");
                }
            }
        }
        records_agree(&rec, &e)?;
    }
    Ok(())
}

/// The journal twin's record is the device engine's: held alike, and when
/// held, equal entry for entry.
fn records_agree(rec: &RecordingEngine, e: &DeviceEngine) -> Result<(), TestCaseError> {
    let bits = |r: &InstallRecord| -> Vec<Vec<u64>> {
        (0..9)
            .map(|k| r.vector(k).iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let (twin, device) = (rec.record(), &e.stage.record);
    prop_assert_eq!(twin.held, device.held);
    if device.held {
        prop_assert_eq!(bits(twin), bits(device));
    }
    Ok(())
}

/// Matrices of 2–3 rows and 2–5 columns and up to eleven [`Step`]s over
/// them.
fn record_cases() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Step>)> {
    (2usize..4, 2usize..6).prop_flat_map(|(m, n)| {
        let entry = || (-4i32..9).prop_map(|v| f64::from(v) / 2.0);
        let step = prop_oneof![
            (0usize..8, (0i32..9).prop_map(f64::from)).prop_map(|(j, v)| Step::Bound(j, v)),
            prop_oneof![Just(PricingRule::Dantzig), Just(PricingRule::Devex)]
                .prop_map(Step::Primal),
            Just(Step::Dual),
            (
                proptest::collection::vec(entry(), n),
                (1i32..12).prop_map(f64::from)
            )
                .prop_map(|(row, rhs)| Step::Cut(row, rhs)),
            Just(Step::Singular),
        ];
        (
            proptest::collection::vec(proptest::collection::vec(entry(), n), m),
            proptest::collection::vec(step, 1..12),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Resident buffers cannot resurrect stale state: whatever an engine
    /// held before — longer or shorter vectors, an eta file full of
    /// updates, unconsumed α and α_r — a later install reads none of it.
    #[test]
    fn used_engines_install_like_fresh_ones(
        (rows, c, b, cut) in (1usize..4, 2usize..6).prop_flat_map(|(m, n)| {
            let entry = || (-4i32..9).prop_map(|v| f64::from(v) / 2.0);
            (
                proptest::collection::vec(proptest::collection::vec(entry(), n), m),
                proptest::collection::vec(entry(), n),
                proptest::collection::vec((1i32..20).prop_map(f64::from), m),
                (proptest::collection::vec(entry(), n), (1i32..12).prop_map(f64::from)),
            )
        })
    ) {
        used_engine_installs_like_a_fresh_one::<MatrixHandle>(&rows, &c, &b, (&cut.0, cut.1))?;
        used_engine_installs_like_a_fresh_one::<SparseHandle>(&rows, &c, &b, (&cut.0, cut.1))?;
    }

    /// The host's record of the resident vectors survives any sequence
    /// of installs, primal and dual pivots, bound flips, cuts and failed
    /// installs: held, it is what the device holds — and right after a
    /// primal or a dual run, what the next install of its basis assembles.
    #[test]
    fn the_record_is_what_the_device_holds((rows, steps) in record_cases()) {
        record_follows_the_device::<MatrixHandle>(&rows, &steps)?;
        record_follows_the_device::<SparseHandle>(&rows, &steps)?;
    }

    /// A wave lane's journal keeps the device engine's record: through the
    /// same sequences, it uploads exactly where the device uploads.
    #[test]
    fn the_journal_keeps_the_device_engines_record((rows, steps) in record_cases()) {
        journal_follows_the_device(&rows, &steps)?;
    }
}

macro_rules! storage_suite {
    ($name:ident, $storage:ty) => {
        mod $name {
            use super::*;

            #[test]
            fn solves_textbook_lp() {
                super::solves_textbook_lp::<$storage>();
            }

            #[test]
            fn matches_host_pivot_for_pivot() {
                super::matches_host_pivot_for_pivot::<$storage>();
            }

            #[test]
            fn warm_resolves_and_cuts() {
                super::warm_resolves_and_cuts::<$storage>();
            }

            #[test]
            fn frees_memory_on_drop() {
                super::frees_memory_on_drop::<$storage>();
            }

            #[test]
            fn failed_installs_leak_nothing() {
                super::failed_installs_leak_nothing::<$storage>();
            }

            #[test]
            fn consumed_vectors_stay_consumed() {
                super::consumed_vectors_stay_consumed::<$storage>();
            }

            #[test]
            fn bad_pivot_plans_change_nothing() {
                super::bad_pivot_plans_change_nothing::<$storage>();
            }

            #[test]
            fn a_pivot_is_one_launch() {
                super::a_pivot_is_one_launch::<$storage>();
            }

            #[test]
            fn a_dual_run_is_one_envelope() {
                super::a_dual_run_is_one_envelope::<$storage>();
            }

            #[test]
            fn a_failed_dual_run_keeps_its_pivots() {
                super::a_failed_dual_run_keeps_its_pivots::<$storage>();
            }

            #[test]
            fn a_warm_resolve_is_one_envelope() {
                super::a_warm_resolve_is_one_envelope::<$storage>();
            }

            #[test]
            fn a_primal_run_is_one_envelope() {
                super::a_primal_run_is_one_envelope::<$storage>();
            }

            #[test]
            fn a_failed_polish_keeps_its_dual_pivots() {
                super::a_failed_polish_keeps_its_dual_pivots::<$storage>();
            }

            #[test]
            fn a_staged_x_b_is_never_stale() {
                super::a_staged_x_b_is_never_stale::<$storage>();
            }
        }
    };
}
storage_suite!(dense, MatrixHandle);
storage_suite!(csr, SparseHandle);

#[test]
fn csr_transfers_scale_with_nnz_not_size() {
    // A very sparse instance: uploading CSR must move far fewer bytes
    // than the dense extended matrix would.
    let mip = set_cover(40, 40, 0.05, 9);
    let std = StandardLp::from_instance(&mip, &[]);
    let dense_bytes = (std.m() * (std.n() + std.m()) * 8) as u64;
    let accel = Accel::gpu(1);
    let _solver = device_solver::<SparseHandle>(std, accel.clone());
    let uploaded = accel.stats().h2d_bytes;
    assert!(
        uploaded < dense_bytes / 2,
        "CSR upload {uploaded} B vs dense {dense_bytes} B"
    );
}
