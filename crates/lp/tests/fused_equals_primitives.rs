//! The run-shaped calls of `DeviceSimplex` against the primitives they
//! replace, and held launch chains against fenced ones, differentially.
//!
//! [`Primitives`] forwards only the *required* [`SimplexEngine`] methods, so
//! over a real `DeviceSimplex` the drivers run the provided defaults: one
//! engine call — one lock, one launch chain, its own link crossing — per
//! primitive. The engine itself overrides them with one call per run of
//! iterations, a warm re-solve's dual run, re-install and polish included. The two must be the same solve bit for bit and the same ledger but
//! for what the fusing is about: no more launches (strictly fewer once
//! there is a pivot) and strictly fewer D2H envelopes (the same bytes in
//! them). Both hold chains: a primitive that reads nothing back is held for
//! the next one too.
//!
//! [`Fenced`] forwards *every* method and synchronizes the device before
//! each, so no launch chain is ever held across two engine calls. Held and
//! fenced must be the same solve and the same ledger — crossings included —
//! but for strictly fewer launches: holding moves nothing but launches.

use gmip_gpu::{Accel, MatrixHandle, SparseHandle, Storage};
use gmip_linalg::DenseMatrix;
use gmip_lp::dual::{DualConfig, DualOutcome};
use gmip_lp::engine::{PivotPlan, PrimalRun, Progress};
use gmip_lp::simplex::{primal_solve, PrimalOutcome};
use gmip_lp::{
    Basis, BoundChange, DeviceSimplex, LpConfig, LpResult, LpSolver, LpStatus, PricingRule,
    PrimalConfig, ProblemView, SimplexEngine, StandardLp,
};
use gmip_problems::generators::{knapsack, set_cover};
use gmip_problems::MipInstance;
use gmip_trace::{names, TraceSession, TrackGroup};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Forwards the required methods of `E` and nothing else: the provided
/// pivot-shaped methods are the trait's defaults, primitive by primitive.
struct Primitives<'c, E> {
    inner: E,
    /// Calls of `reduced_costs_host`: pivots chosen by Bland's rule.
    bland: &'c Cell<usize>,
}

impl<E: SimplexEngine> SimplexEngine for Primitives<'_, E> {
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn sim_now_ns(&self) -> Option<f64> {
        self.inner.sim_now_ns()
    }
    fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()> {
        self.inner.install(view, basis)
    }
    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        self.inner.append_cut(row, col)
    }
    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.inner.price()
    }
    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        self.bland.set(self.bland.get() + 1);
        self.inner.reduced_costs_host()
    }
    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        self.inner.ftran_column(q)
    }
    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.inner.ratio_test(dir, tol)
    }
    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        self.inner.apply_flip(q, dir, t, new_sigma)
    }
    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        self.inner.apply_pivot(plan)
    }
    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        self.inner.basic_values()
    }
    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        self.inner.basic_entry(i)
    }
    fn eta_count(&self) -> usize {
        self.inner.eta_count()
    }
    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.inner.primal_infeas(tol)
    }
    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        self.inner.btran_row(r)
    }
    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        self.inner.dual_ratio(leaving_below, tol)
    }
    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        self.inner.alpha_r_entry(j)
    }
    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.inner.btran_row_host(r)
    }
    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        self.inner.dual_prices()
    }
    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.inner.price_devex()
    }
    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        self.inner.devex_update(q, leaving_j)
    }
}

/// Forwards every method of `E`, the run-shaped ones included, after a
/// device synchronize: whatever launch chain the last call held is
/// submitted before the next call runs.
struct Fenced<'c, E> {
    inner: E,
    accel: Accel,
    /// Primal runs that took over from Bland's rule: the solve handed the
    /// choice of column to the host and back.
    handbacks: &'c Cell<usize>,
    bland: bool,
}

impl<E> Fenced<'_, E> {
    fn fenced(&mut self) -> &mut E {
        self.accel.with(|d| d.synchronize());
        &mut self.inner
    }
}

impl<E: SimplexEngine> SimplexEngine for Fenced<'_, E> {
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn sim_now_ns(&self) -> Option<f64> {
        self.inner.sim_now_ns()
    }
    fn eta_count(&self) -> usize {
        self.inner.eta_count()
    }
    fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()> {
        self.fenced().install(view, basis)
    }
    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        self.fenced().append_cut(row, col)
    }
    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.fenced().price()
    }
    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        self.bland = true;
        self.fenced().reduced_costs_host()
    }
    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        self.fenced().ftran_column(q)
    }
    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.fenced().ratio_test(dir, tol)
    }
    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        self.fenced().apply_flip(q, dir, t, new_sigma)
    }
    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        self.fenced().apply_pivot(plan)
    }
    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        self.fenced().basic_values()
    }
    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        self.fenced().basic_entry(i)
    }
    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.fenced().primal_infeas(tol)
    }
    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        self.fenced().btran_row(r)
    }
    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        self.fenced().dual_ratio(leaving_below, tol)
    }
    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        self.fenced().alpha_r_entry(j)
    }
    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.fenced().btran_row_host(r)
    }
    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        self.fenced().dual_prices()
    }
    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.fenced().price_devex()
    }
    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        self.fenced().devex_update(q, leaving_j)
    }
    fn primal_run(
        &mut self,
        view: ProblemView<'_>,
        basis: &mut Basis,
        cfg: &PrimalConfig,
        run: &mut PrimalRun,
    ) -> LpResult<()> {
        if std::mem::take(&mut self.bland) {
            self.handbacks.set(self.handbacks.get() + 1);
        }
        self.fenced().primal_run(view, basis, cfg, run)
    }
    fn dual_run(
        &mut self,
        view: ProblemView<'_>,
        basis: &mut Basis,
        cfg: &DualConfig,
        polish: Option<&PrimalConfig>,
        at: &mut Progress,
    ) -> LpResult<Option<DualOutcome>> {
        self.fenced().dual_run(view, basis, cfg, polish, at)
    }
}

/// The trace recorder is process-wide: one case at a time.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a run did to its device, split into what fusing must not move and
/// what it is there to move.
#[derive(Debug, PartialEq)]
struct Ledger {
    /// Flop total, bytes each way, H2D envelopes, modelled memory (in use,
    /// peak, allocations), as bits where they are floats.
    exact: (u64, [u64; 3], [usize; 3]),
    /// Every kernel span with its byte argument, counted.
    spans: BTreeMap<(&'static str, String), usize>,
}

/// A run: what the solve returned, its [`Ledger`], and `(launches, D2H
/// transfers)`.
type Observed<R> = (R, Ledger, (u64, u64));

/// Runs `solve` on a fresh device under a trace session. A fence's
/// synchronize instants are not kernel spans, and `Syncs` is not in the
/// ledger.
fn observed<R>(solve: impl FnOnce(Accel) -> R) -> Observed<R> {
    let accel = Accel::gpu(1);
    let session = TraceSession::start();
    let out = solve(accel.clone());
    let trace = session.finish();
    let mut spans = BTreeMap::new();
    for e in &trace.events {
        let name = e.event.name;
        if matches!(e.event.track.group, TrackGroup::Gpu(_)) && !["d2h", "sync"].contains(&name) {
            *spans
                .entry((name, format!("{:?}", e.event.args)))
                .or_insert(0) += 1;
        }
    }
    let s = accel.stats();
    let memory = accel.with(|d| {
        let m = d.memory();
        [m.used(), m.peak(), m.allocation_count()]
    });
    let ledger = Ledger {
        exact: (
            s.flops.to_bits(),
            [s.h2d_bytes, s.h2d_transfers, s.d2h_bytes],
            memory,
        ),
        spans,
    };
    (out, ledger, (s.kernel_launches, s.d2h_transfers))
}

/// Asserts the contract between a fused run and its primitive twin: the
/// same solve, the same ledger, no more launches — strictly fewer when
/// `pivots` says a basis change was fused — and strictly fewer read-backs
/// (a terminal select carries `x_B` home, so even a solve without a pivot
/// saves one).
fn assert_fused_is_primitives<R: PartialEq + std::fmt::Debug>(
    what: &str,
    pivots: bool,
    fused: &Observed<R>,
    primitives: &Observed<R>,
) {
    assert_eq!(fused.0, primitives.0, "{what}: the solves differ");
    assert_eq!(fused.1, primitives.1, "{what}: the ledgers differ");
    let ((launches, back), (launches_p, back_p)) = (fused.2, primitives.2);
    let fewer_launches = if pivots {
        launches < launches_p
    } else {
        launches <= launches_p
    };
    assert!(
        fewer_launches && back < back_p,
        "{what}: {launches} launches / {back} read-backs fused, \
         {launches_p} / {back_p} by primitive"
    );
}

/// Asserts the contract between held and fenced launch chains: the same
/// solve, the same ledger, the same crossings, and strictly fewer launches
/// — every case installs before it selects, and an install rides its
/// select.
fn assert_held_is_fenced<R: PartialEq + std::fmt::Debug>(
    what: &str,
    held: &Observed<R>,
    fenced: &Observed<R>,
) {
    assert_eq!(held.0, fenced.0, "{what}: the solves differ");
    assert_eq!(held.1, fenced.1, "{what}: the ledgers differ");
    let ((launches, back), (launches_f, back_f)) = (held.2, fenced.2);
    assert_eq!(back, back_f, "{what}: held chains moved a crossing");
    assert!(
        launches < launches_f,
        "{what}: {launches} launches held, {launches_f} fenced"
    );
}

/// One solve, as bits: status, iterations, the basis it ended on, objective
/// and point.
type Solved = (LpStatus, usize, Option<Vec<usize>>, u64, Vec<u64>);

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `m`: the root, 100 warm bound re-solves, two cut rounds with re-solves
/// on the grown matrix, and a child whose fixings violate the first cut,
/// the dual phases refactoring every `refactor_every` pivots and
/// the primal ones switching to Bland's rule after `bland_after`
/// degenerate iterations. Returns every solve, and the refactorizations the
/// solves made.
fn branch_and_cut<E: SimplexEngine>(
    m: &MipInstance,
    pricing: PricingRule,
    (refactor_every, bland_after): (usize, usize),
    make: impl FnOnce(&DenseMatrix) -> E,
) -> (Vec<Solved>, u64) {
    let mut cfg = LpConfig::standard();
    cfg.primal.pricing = pricing;
    cfg.primal.bland_after = bland_after;
    cfg.dual.base.refactor_every = refactor_every;
    let mut lp = LpSolver::new(StandardLp::from_instance(m, &[]), cfg, make);
    let mut solves = Vec::new();
    let mut keep = |lp: &LpSolver<E>, sol: gmip_lp::LpSolution| {
        solves.push((
            sol.status,
            sol.iterations,
            lp.basis().map(|b| b.cols.clone()),
            sol.objective.to_bits(),
            bits(&sol.x),
        ));
    };
    let root = lp.solve().expect("root LP");
    keep(&lp, root);
    let fix = |var: usize, to: f64| BoundChange {
        var,
        lb: to,
        ub: to,
    };
    let resolve = |lp: &mut LpSolver<E>, bounds: &[BoundChange]| {
        lp.apply_node_bounds(bounds).expect("structural columns");
        lp.resolve().expect("warm resolve")
    };
    for k in 0..50 {
        let j = (7 * k) % m.num_vars();
        for to in [0.0, 1.0] {
            let sol = resolve(
                &mut lp,
                &[fix(j, to), fix((j + 3) % m.num_vars(), 1.0 - to)],
            );
            keep(&lp, sol);
        }
    }
    lp.apply_node_bounds(&[]).expect("root box");
    for (round, (cut, rhs)) in [
        (vec![(0, 1.0), (1, 1.0)], 1.0),
        (vec![(2, 1.0), (3, 1.0), (4, 1.0)], 2.0),
    ]
    .into_iter()
    .enumerate()
    {
        lp.add_cut(&cut, rhs).expect("cut");
        for k in 0..4 {
            let sol = resolve(
                &mut lp,
                &[fix((5 * k + round) % m.num_vars(), (k % 2) as f64)],
            );
            keep(&lp, sol);
        }
    }
    let all_in: Vec<BoundChange> = (0..m.num_vars()).map(|j| fix(j, 1.0)).collect();
    let child = resolve(&mut lp, &all_in);
    assert_eq!(child.status, LpStatus::Infeasible);
    keep(&lp, child);
    let refactorizations = lp.metrics().counter(names::LP_REFACTORIZATIONS) as u64;
    (solves, refactorizations)
}

/// A primal solve from the slack basis of `[A | I] x = b`, `0 ≤ x`, straight
/// on an engine: outcome, iterations, final basis, final `x_B`.
fn slack_start<E: SimplexEngine>(
    rows: &[Vec<f64>],
    c: &[f64],
    b: &[f64],
    ub: f64,
    cfg: &PrimalConfig,
    make: impl FnOnce(&DenseMatrix) -> E,
) -> LpResult<(PrimalOutcome, usize, Vec<usize>, Vec<u64>)> {
    let (m, n) = (rows.len(), rows[0].len());
    let mut a = DenseMatrix::from_rows(rows).expect("rectangular rows");
    for i in 0..m {
        let mut slack = vec![0.0; m];
        slack[i] = 1.0;
        a.push_col(&slack).expect("m rows");
    }
    let mut c = c.to_vec();
    c.resize(n + m, 0.0);
    let lb = vec![0.0; n + m];
    let mut upper = vec![ub; n + m];
    upper[n..].fill(f64::INFINITY);
    let view = ProblemView {
        c: &c,
        lb: &lb,
        ub: &upper,
        b,
    };
    let mut basis = Basis::with_basic_cols((n..n + m).collect(), n + m);
    let mut engine = make(&a);
    let (outcome, iterations) = primal_solve(&mut engine, view, &mut basis, cfg)?;
    Ok((
        outcome,
        iterations,
        basis.cols,
        bits(&engine.basic_values()?),
    ))
}

fn device<M: Storage>(accel: Accel) -> impl FnOnce(&DenseMatrix) -> DeviceSimplex<M> {
    move |a| DeviceSimplex::new(accel, a).expect("device upload")
}

fn fenced<'c, M: Storage>(
    accel: Accel,
    handbacks: &'c Cell<usize>,
) -> impl FnOnce(&DenseMatrix) -> Fenced<'c, DeviceSimplex<M>> + 'c {
    move |a| Fenced {
        inner: DeviceSimplex::new(accel.clone(), a).expect("device upload"),
        accel,
        handbacks,
        bland: false,
    }
}

fn primitives<'c, M: Storage>(
    accel: Accel,
    bland: &'c Cell<usize>,
) -> impl FnOnce(&DenseMatrix) -> Primitives<'c, DeviceSimplex<M>> + 'c {
    move |a| Primitives {
        inner: DeviceSimplex::new(accel, a).expect("device upload"),
        bland,
    }
}

/// Both pricing rules on `knapsack(30)`, with the default refactorization
/// interval and Bland switch and with a refactorization every two dual
/// pivots, which splits the longer dual phases into several runs; and on
/// the degenerate `set_cover(10, 10)` with the switch to Bland's rule after
/// two degenerate primal iterations, which hands primal runs to the host
/// and back in the middle of a solve.
fn branch_and_cut_agrees<M: Storage>() {
    let _g = gate();
    let standard = PrimalConfig::default();
    let (knapsack, degenerate) = (knapsack(30, 0.5, 11), set_cover(10, 10, 0.4, 3));
    for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
        for (mip, knobs) in [
            (&knapsack, (standard.refactor_every, standard.bland_after)),
            (&knapsack, (2, standard.bland_after)),
            (&degenerate, (standard.refactor_every, 2)),
        ] {
            let fused = observed(|accel| branch_and_cut(mip, pricing, knobs, device::<M>(accel)));
            let bland = Cell::new(0);
            let by_primitive = observed(|accel| {
                branch_and_cut(mip, pricing, knobs, primitives::<M>(accel, &bland))
            });
            let pivots = fused.0 .0.iter().map(|s| s.1).sum::<usize>();
            assert!(pivots > 80, "{pivots} pivots to compare");
            if knobs.0 == 2 {
                assert!(fused.0 .1 > 0, "no dual phase crossed a refactorization");
            }
            let what = format!(
                "{pricing:?}, refactor every {}, Bland after {}",
                knobs.0, knobs.1
            );
            assert_fused_is_primitives(&what, true, &fused, &by_primitive);
            let handbacks = Cell::new(0);
            let by_fence = observed(|accel| {
                branch_and_cut(mip, pricing, knobs, fenced::<M>(accel, &handbacks))
            });
            assert_held_is_fenced(&what, &fused, &by_fence);
            if knobs.1 == 2 {
                assert!(bland.get() > 0, "{what}: no Bland pivot");
                assert!(
                    handbacks.get() > 0,
                    "{what}: Bland's rule never handed back"
                );
            } else {
                assert_eq!(bland.get(), 0, "a knapsack LP needs no Bland pivot");
            }
        }
    }
}

/// max x0 with x0 − x1 ≤ 0 and nothing above either: unbounded, after a
/// pivot.
fn unbounded_agrees<M: Storage>() {
    let _g = gate();
    for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
        let cfg = PrimalConfig {
            pricing,
            ..PrimalConfig::default()
        };
        let (rows, c, b) = ([vec![1.0, -1.0]], [1.0, 1.0], [0.0]);
        let fused =
            observed(|accel| slack_start(&rows, &c, &b, f64::INFINITY, &cfg, device::<M>(accel)));
        assert!(matches!(
            fused.0,
            Ok((PrimalOutcome::Unbounded { .. }, 1, ..))
        ));
        let bland = Cell::new(0);
        let by_primitive = observed(|accel| {
            slack_start(
                &rows,
                &c,
                &b,
                f64::INFINITY,
                &cfg,
                primitives::<M>(accel, &bland),
            )
        });
        let handbacks = Cell::new(0);
        let by_fence = observed(|accel| {
            slack_start(
                &rows,
                &c,
                &b,
                f64::INFINITY,
                &cfg,
                fenced::<M>(accel, &handbacks),
            )
        });
        let what = format!("unbounded {pricing:?}");
        assert_fused_is_primitives(&what, true, &fused, &by_primitive);
        assert_held_is_fenced(&what, &fused, &by_fence);
    }
}

/// Chvátal's cycling LP with the Bland switch after two degenerate pivots:
/// the pricing rule stalls at the origin, Bland's rule (an honest read-back
/// of the reduced costs, primitive by primitive on either side) leads out.
fn bland_fallback_agrees<M: Storage>() {
    let _g = gate();
    let rows = [
        vec![0.5, -5.5, -2.5, 9.0],
        vec![0.5, -1.5, -0.5, 1.0],
        vec![1.0, 0.0, 0.0, 0.0],
    ];
    let (c, b) = ([10.0, -57.0, -9.0, -24.0], [0.0, 0.0, 1.0]);
    for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
        let cfg = PrimalConfig {
            pricing,
            bland_after: 2,
            ..PrimalConfig::default()
        };
        let fused =
            observed(|accel| slack_start(&rows, &c, &b, f64::INFINITY, &cfg, device::<M>(accel)));
        let bland = Cell::new(0);
        let by_primitive = observed(|accel| {
            slack_start(
                &rows,
                &c,
                &b,
                f64::INFINITY,
                &cfg,
                primitives::<M>(accel, &bland),
            )
        });
        let Ok((PrimalOutcome::Optimal, pivots, ..)) = fused.0 else {
            panic!("{pricing:?}: {:?}", fused.0);
        };
        let what = format!("bland {pricing:?}");
        assert_fused_is_primitives(&what, pivots > 0, &fused, &by_primitive);
        assert!(bland.get() > 0, "{pricing:?} never reached Bland's rule");
        let handbacks = Cell::new(0);
        let by_fence = observed(|accel| {
            slack_start(
                &rows,
                &c,
                &b,
                f64::INFINITY,
                &cfg,
                fenced::<M>(accel, &handbacks),
            )
        });
        assert_held_is_fenced(&what, &fused, &by_fence);
    }
}

/// Random small LPs `max cᵀx, Ax ≤ b, 0 ≤ x ≤ 8` from the slack basis:
/// pivots, bound flips and early optima in whatever mix the draw gives. A
/// bound flip is one launch either way, so only "no more launches" holds.
fn random_lp_agrees<M: Storage>(pricing: PricingRule, rows: &[Vec<f64>], c: &[f64], b: &[f64]) {
    let cfg = PrimalConfig {
        pricing,
        ..PrimalConfig::default()
    };
    let fused = observed(|accel| slack_start(rows, c, b, 8.0, &cfg, device::<M>(accel)));
    fused.0.as_ref().expect("a boxed LP solves");
    let bland = Cell::new(0);
    let by_primitive =
        observed(|accel| slack_start(rows, c, b, 8.0, &cfg, primitives::<M>(accel, &bland)));
    let handbacks = Cell::new(0);
    let by_fence =
        observed(|accel| slack_start(rows, c, b, 8.0, &cfg, fenced::<M>(accel, &handbacks)));
    let what = format!("{pricing:?}");
    assert_fused_is_primitives(&what, false, &fused, &by_primitive);
    assert_held_is_fenced(&what, &fused, &by_fence);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn random_bounded_lps_agree(
        (rows, c, b) in (1usize..4, 2usize..6).prop_flat_map(|(m, n)| {
            let entry = || (-4i32..9).prop_map(|v| f64::from(v) / 2.0);
            (
                proptest::collection::vec(proptest::collection::vec(entry(), n), m),
                proptest::collection::vec(entry(), n),
                proptest::collection::vec((1i32..20).prop_map(f64::from), m),
            )
        })
    ) {
        let _g = gate();
        for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
            random_lp_agrees::<MatrixHandle>(pricing, &rows, &c, &b);
            random_lp_agrees::<SparseHandle>(pricing, &rows, &c, &b);
        }
    }
}

macro_rules! storage_suite {
    ($name:ident, $storage:ty) => {
        mod $name {
            #[test]
            fn branch_and_cut_agrees() {
                super::branch_and_cut_agrees::<$storage>();
            }

            #[test]
            fn unbounded_agrees() {
                super::unbounded_agrees::<$storage>();
            }

            #[test]
            fn bland_fallback_agrees() {
                super::bland_fallback_agrees::<$storage>();
            }
        }
    };
}
storage_suite!(dense, super::MatrixHandle);
storage_suite!(csr, super::SparseHandle);
