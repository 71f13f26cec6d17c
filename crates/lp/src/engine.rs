//! The simplex *engine* abstraction and its host implementation.
//!
//! The revised simplex driver ([`crate::simplex`], [`crate::dual`]) is
//! written once against [`SimplexEngine`], which exposes exactly the
//! numerical steps of an iteration, and each simplex loop is written once,
//! as the trait's provided run bodies. Two implementations exist:
//!
//! * [`HostEngine`] — plain vectors and a host eta file; the reference
//!   implementation used for correctness cross-checks;
//! * [`crate::device_engine::DeviceEngine`] — the same steps as simulated
//!   device kernels on a `gmip_gpu::Accel`, with the constraint matrix
//!   resident on the device, and a whole run of the same loop body one
//!   launch chain with one read-back (the Section 5.1 execution model).
//!
//! Both run one rule set: the selection rules and updates of
//! [`gmip_linalg::pivot`], one install check and assembly
//! (`ProblemView::check`, `ProblemView::assemble`), and the one loop per
//! side. The host/device equivalence tests (`matches_host_pivot_for_pivot`,
//! `tests/device_equivalence.rs`, the `Fenced` differential) check what
//! still differs: the device's LU / eta file against the host's, staged
//! transfers, and launch chains.

use crate::basis::{Basis, VarStatus};
use crate::dual::{DualConfig, DualOutcome};
use crate::simplex::{PricingRule, PrimalConfig, PrimalOutcome};
use crate::{LpError, LpResult};
use gmip_linalg::pivot::{self, PrimalStep};
use gmip_linalg::{DenseMatrix, EtaFile, LinalgError};

/// A read-only view of the (possibly cut-extended) problem data the engine
/// needs at basis-install time. The constraint matrix itself lives inside
/// the engine (it was loaded at construction and only grows via
/// [`SimplexEngine::append_cut`]).
#[derive(Debug, Clone, Copy)]
pub struct ProblemView<'a> {
    /// Objective (maximize).
    pub c: &'a [f64],
    /// Lower bounds.
    pub lb: &'a [f64],
    /// Upper bounds.
    pub ub: &'a [f64],
    /// Right-hand side.
    pub b: &'a [f64],
}

impl ProblemView<'_> {
    /// Refuses an install on an `m`×`n` engine unless `c`, `lb`, `ub` and
    /// the basis's statuses have `n` entries and `b` has `m`: what every
    /// install checks first, before it changes anything.
    pub(crate) fn check(&self, basis: &Basis, m: usize, n: usize) -> LpResult<()> {
        let [c, lb, ub] = [self.c, self.lb, self.ub].map(<[f64]>::len);
        let status = basis.status.len();
        if [c, lb, ub, status].iter().all(|&len| len == n) && self.b.len() == m {
            return Ok(());
        }
        Err(LpError::Shape(format!(
            "install: engine {m}x{n}, view c={c} lb={lb} ub={ub} b={}, basis statuses {status}",
            self.b.len()
        )))
    }

    /// An install's host-side assembly, into reused buffers: σ (0 for basic
    /// *and* fixed columns) and the nonbasic point `x_N` (basic columns 0),
    /// both of length `c.len()`, and the basis-ordered `c_B`, `l_B`, `u_B`.
    /// A nonbasic column at an infinite bound is [`LpError::FreeVariable`].
    pub(crate) fn assemble(&self, basis: &Basis, mut out: [&mut Vec<f64>; 5]) -> LpResult<()> {
        let (n, m) = (self.c.len(), basis.cols.len());
        for (v, len) in out.iter_mut().zip([n, n, m, m, m]) {
            v.clear();
            v.resize(len, 0.0);
        }
        let [sigma, x_n, c_b, l_b, u_b] = out;
        for (j, ((&status, s), x)) in basis.status.iter().zip(sigma).zip(x_n).enumerate() {
            (*s, *x) = self.column(j, status)?;
        }
        let rows = c_b.iter_mut().zip(l_b).zip(u_b);
        for ([c, l, u], ((cb, lb), ub)) in self.rows(basis).zip(rows) {
            (*cb, *lb, *ub) = (c, l, u);
        }
        Ok(())
    }

    /// [`assemble`](Self::assemble) of column `j` at status `status`:
    /// `(σ_j, x_j)`; a nonbasic column at an infinite bound is
    /// [`LpError::FreeVariable`].
    #[inline]
    pub(crate) fn column(&self, j: usize, status: VarStatus) -> LpResult<(f64, f64)> {
        let (sigma, x) = match status {
            VarStatus::Basic(_) => (0.0, 0.0),
            VarStatus::AtLower => (self.sigma(j, status), self.lb[j]),
            VarStatus::AtUpper => (self.sigma(j, status), self.ub[j]),
        };
        if x.is_finite() {
            Ok((sigma, x))
        } else {
            Err(LpError::FreeVariable(j))
        }
    }

    /// The assembly's basis-ordered `[c_B, l_B, u_B]`, row by row.
    pub(crate) fn rows<'s>(&'s self, basis: &'s Basis) -> impl Iterator<Item = [f64; 3]> + 's {
        (basis.cols.iter()).map(|&j| [self.c[j], self.lb[j], self.ub[j]])
    }

    /// The status weight of column `j` at nonbasic status `s`: 0 if the
    /// column is fixed (`lb == ub`, never eligible), else `s.sigma()`.
    pub(crate) fn sigma(&self, j: usize, s: VarStatus) -> f64 {
        if self.lb[j] == self.ub[j] {
            0.0
        } else {
            s.sigma()
        }
    }
}

/// Everything the engine must change when a pivot is applied.
#[derive(Debug, Clone, Copy)]
pub struct PivotPlan {
    /// Leaving basis row.
    pub r: usize,
    /// Entering column.
    pub q: usize,
    /// Column previously basic in row `r`.
    pub leaving_j: usize,
    /// Step direction of the entering variable (+1 increasing, −1
    /// decreasing); the basic update is `x_B ← x_B − dir·t·α`.
    pub dir: f64,
    /// Step length (dual pivots pass a signed step with `dir = 1`).
    pub t: f64,
    /// Value the entering variable takes (installed in slot `r`).
    pub entering_val: f64,
    /// σ weight the leaving variable takes (−1 at lower, +1 at upper, 0 if
    /// it is fixed, e.g. an artificial); the engine stores it as given.
    pub leaving_sigma: f64,
    /// Value the leaving variable takes as a nonbasic: the bound it leaves
    /// to.
    pub leaving_x: f64,
    /// Objective coefficient of the entering column.
    pub c_q: f64,
    /// Lower bound of the entering column.
    pub lb_q: f64,
    /// Upper bound of the entering column.
    pub ub_q: f64,
}

impl PivotPlan {
    /// The plan of a pivot in row `r`, column `q` entering and `leaving_j`
    /// leaving, from its [`pivot::Pivot`] scalars.
    pub(crate) fn new(r: usize, q: usize, leaving_j: usize, p: &pivot::Pivot) -> Self {
        Self {
            r,
            q,
            leaving_j,
            dir: p.dir,
            t: p.t,
            entering_val: p.entering_val,
            leaving_sigma: p.leaving_sigma,
            leaving_x: p.leaving_x,
            c_q: p.c_q,
            lb_q: p.lb_q,
            ub_q: p.ub_q,
        }
    }

    /// Everything the pivot stores besides its step, into the vectors
    /// `x_B`, σ, `c_B`, `l_B`, `u_B` and `x_N` that `to` names.
    pub(crate) fn stores<K: Copy>(&self, to: [K; 6]) -> [(K, usize, f64); 8] {
        let [xb, sigma, cb, lbb, ubb, x_nb] = to;
        [
            (xb, self.r, self.entering_val),
            (sigma, self.leaving_j, self.leaving_sigma),
            (sigma, self.q, 0.0),
            (cb, self.r, self.c_q),
            (lbb, self.r, self.lb_q),
            (ubb, self.r, self.ub_q),
            (x_nb, self.leaving_j, self.leaving_x),
            (x_nb, self.q, 0.0),
        ]
    }
}

/// The status of a nonbasic column at its upper bound (`upper`) or its
/// lower one.
pub(crate) fn nonbasic_at(upper: bool) -> VarStatus {
    if upper {
        VarStatus::AtUpper
    } else {
        VarStatus::AtLower
    }
}

/// Where a run of primal iterations stands. The caller passes it to
/// [`SimplexEngine::primal_run`], which updates it iteration by iteration —
/// so a run that fails midway still accounts for the iterations it made —
/// and reads it back: how many iterations, the degenerate streak to go on
/// from, and how the run ended, if it has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimalRun {
    /// Iterations made: pivots and bound flips.
    pub iters: usize,
    /// Consecutive degenerate iterations (a step below `1e-9`) it ends on.
    pub streak: usize,
    /// How it ended: `None` while it has iterations left to make.
    pub outcome: Option<PrimalOutcome>,
}

impl PrimalRun {
    /// Whether the run may make another iteration: it has not ended and
    /// is under `cfg.max_iters`.
    pub(crate) fn open(&self, cfg: &PrimalConfig) -> bool {
        self.outcome.is_none() && self.iters < cfg.max_iters
    }

    /// Counts an iteration of step `t`, and returns whether the streak it
    /// ends on hands the next iteration to Bland's rule.
    pub(crate) fn step(&mut self, t: f64, cfg: &PrimalConfig) -> bool {
        self.iters += 1;
        self.streak = if t.abs() < 1e-9 { self.streak + 1 } else { 0 };
        self.bland(cfg)
    }

    /// Whether the next iteration chooses its column by Bland's rule: after
    /// `cfg.bland_after` degenerate iterations in a row, and at least one.
    pub(crate) fn bland(&self, cfg: &PrimalConfig) -> bool {
        self.streak >= cfg.bland_after.max(1)
    }
}

/// Where the runs of one warm re-solve stand: the dual pivots made, and the
/// primal polish once a dual run has re-installed for it. Updated pivot by
/// pivot, like [`PrimalRun`], so a solve that fails midway still accounts
/// for every pivot it made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Dual pivots made.
    pub dual: usize,
    /// The primal polish, once a dual run ended feasible and re-installed
    /// the basis it reached ([`SimplexEngine::dual_run`] with a polish
    /// configuration).
    pub polish: Option<PrimalRun>,
}

impl Progress {
    /// Every iteration made: dual pivots and polish iterations.
    pub fn iterations(&self) -> usize {
        self.dual + self.polish.map_or(0, |run| run.iters)
    }
}

/// FTRAN of entering column `q` and the ratio test on it, primitive by
/// primitive: the tail of a primal select once the column is chosen.
/// Returns the column's direction, away from the bound it sits at, and the
/// ratio test's result.
pub(crate) fn enter<E: SimplexEngine + ?Sized>(
    engine: &mut E,
    basis: &Basis,
    q: usize,
    ratio_tol: f64,
) -> LpResult<(f64, Option<(usize, f64, bool)>)> {
    let dir = match basis.status[q] {
        VarStatus::AtLower => 1.0,
        VarStatus::AtUpper => -1.0,
        VarStatus::Basic(_) => {
            return Err(LpError::Shape(format!("pricing proposed basic column {q}")))
        }
    };
    engine.ftran_column(q)?;
    let limit = engine.ratio_test(dir, ratio_tol)?;
    Ok((dir, limit))
}

/// Applies the step of a primal iteration on entering column `q` along
/// `dir`, primitive by primitive, to the engine and to `basis`. With
/// `devex`, a pivot updates the reference weights first, from the leaving
/// row of the old basis. Returns the step length, or `None` if the step is
/// unbounded.
pub(crate) fn apply_primal_step<E: SimplexEngine + ?Sized>(
    engine: &mut E,
    basis: &mut Basis,
    (q, dir): (usize, f64),
    step: PrimalStep,
    devex: bool,
) -> LpResult<Option<f64>> {
    match step {
        PrimalStep::Unbounded => Ok(None),
        PrimalStep::Flip { t, sigma } => {
            engine.apply_flip(q, dir, t, sigma)?;
            basis.status[q] = nonbasic_at(sigma > 0.0);
            Ok(Some(t))
        }
        PrimalStep::Pivot {
            row,
            leaving,
            to_upper,
            pivot,
        } => {
            if devex {
                engine.btran_row(row)?;
                engine.devex_update(q, leaving)?;
            }
            engine.apply_pivot(&PivotPlan::new(row, q, leaving, &pivot))?;
            basis.pivot(row, q, nonbasic_at(to_upper));
            Ok(Some(pivot.t))
        }
    }
}

/// A refused Devex update as an engine reports it: a zero pivot element is
/// a shape error of the pivot, anything else what the rule said.
pub(crate) fn devex_refused(e: impl Into<LpError>) -> LpError {
    match e.into() {
        LpError::Numerics(LinalgError::Singular { .. }) => {
            LpError::Shape("devex update with zero pivot".into())
        }
        e => e,
    }
}

/// The per-iteration numerical interface of the revised simplex.
///
/// The required methods are the *primitives*: one numerical step each. The
/// drivers do not call them one by one; they call the two **run-shaped**
/// provided methods — [`primal_run`](Self::primal_run), the primal
/// simplex's iterations up to the next refactorization or the hand-over to
/// Bland's rule, and [`dual_run`](Self::dual_run), the dual simplex's pivots
/// up to the next refactorization and, when the caller asks for it, the
/// re-install and primal polish that follow a feasible end. Their default
/// bodies are the only simplex loops: exactly the primitive calls the
/// drivers used to make, in that order, error exits included. Every engine
/// runs them. [`crate::DeviceSimplex`], for which a call is expensive in
/// itself (a launch and a link crossing), runs them over one engine call of
/// its own whose primitives are kernel sequences in one launch chain; an
/// engine that *records* calls ([`crate::RecordingEngine`], whose journal is
/// cut by kernel class) sees the primitives. Bland's rule stays primitive
/// by primitive in the driver: its column is chosen on the host.
///
/// State machine expectations: [`install`](Self::install) before anything
/// else; [`ftran_column`](Self::ftran_column) before
/// [`ratio_test`](Self::ratio_test)/[`apply_pivot`](Self::apply_pivot);
/// [`btran_row`](Self::btran_row) before [`dual_ratio`](Self::dual_ratio)/
/// [`alpha_r_entry`](Self::alpha_r_entry).
pub trait SimplexEngine {
    /// Rows of the engine's matrix.
    fn m(&self) -> usize;
    /// Columns of the engine's matrix.
    fn n(&self) -> usize;

    /// Simulated-time frontier of this engine's executor, ns — used to
    /// timestamp LP trace spans. Engines with no modeled clock (the host
    /// reference engine) return `None` and their spans are suppressed.
    fn sim_now_ns(&self) -> Option<f64> {
        None
    }

    /// Installs a basis: factorizes `B`, computes basic values
    /// `x_B = B⁻¹(b − N x_N)`, and loads objective/status/bound state.
    /// σ is 0 for basic columns *and* for fixed columns (`lb == ub`), which
    /// excludes both from pricing; every engine assembles σ, `x_N`, `c_B`,
    /// `l_B` and `u_B` the same way, in `ProblemView::assemble`.
    fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()>;

    /// Appends a cut: `row` spans the current columns, `col` is the new
    /// slack column spanning `m()+1` rows.
    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()>;

    /// Dantzig pricing: the most negative score `σ_j · d_j` over eligible
    /// columns, or `None` when no column prices out (σ-weighted optimality).
    fn price(&mut self) -> LpResult<Option<(usize, f64)>>;

    /// Full reduced-cost vector on the host (Bland fallback; on the device
    /// engine this is an honest n-vector D2H transfer).
    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>>;

    /// FTRAN of column `q`: `α = B⁻¹ a_q`, kept engine-resident.
    fn ftran_column(&mut self, q: usize) -> LpResult<()>;

    /// Bounded primal ratio test ([`pivot::ratio_test`]) on the current
    /// FTRAN column; returns `(row, t, leaves_at_upper)` or `None` if no
    /// basic variable blocks.
    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>>;

    /// Bound flip of the entering column: [`pivot::step`], σ_q set to
    /// `new_sigma`.
    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()>;

    /// Applies a pivot (basic update, eta update, σ/c_B/bound bookkeeping).
    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()>;

    /// Basic values `x_B` (full readback — end of solve).
    fn basic_values(&mut self) -> LpResult<Vec<f64>>;

    /// Entry `i` of `x_B` (scalar readback — dual iterations).
    fn basic_entry(&mut self, i: usize) -> LpResult<f64>;

    /// Number of eta factors accumulated since the last factorization.
    fn eta_count(&self) -> usize;

    /// Largest primal bound violation among basic variables
    /// ([`pivot::primal_infeasibility`]), as `(row, violation, below_lower)`.
    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>>;

    /// BTRAN row `r`: `ρ = B⁻ᵀ e_r`, then `α_r = Aᵀ ρ`, kept engine-resident.
    fn btran_row(&mut self, r: usize) -> LpResult<()>;

    /// Dual ratio test ([`pivot::dual_ratio`]) on the current BTRAN row.
    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>>;

    /// Entry `j` of the current BTRAN row (scalar readback).
    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64>;

    /// BTRAN row `r` downloaded to the host in one piece — the tableau row
    /// needed by CPU-side cut generation (Section 5.2's device→host leg; on
    /// the device engine this is an honest full-vector transfer).
    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>>;

    /// The dual prices `y` of the current basis (`Bᵀ y = c_B`), downloaded
    /// to the host — what a column-generation master hands its pricing
    /// subproblem (an honest m-vector transfer on the device engines).
    fn dual_prices(&mut self) -> LpResult<Vec<f64>>;

    /// Devex pricing ([`pivot::devex_price`]): returns `(column, σ·d score)`
    /// like [`price`](Self::price), the caller's threshold check on the
    /// score deciding optimality. Engines reset the reference weights γ to 1
    /// at every [`install`](Self::install).
    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>>;

    /// Devex reference-weight update ([`pivot::devex_update`]) for the pivot
    /// `(entering q, leaving row's occupant leaving_j)`. Requires a fresh
    /// [`btran_row`](Self::btran_row) of the leaving row (old basis).
    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()>;

    /// Primal iterations from the installed basis, applied to `basis` as
    /// well and counted into `run`, until the basis is optimal, the LP is
    /// unbounded, `cfg.max_iters` iterations are made, a refactorization is
    /// due (`cfg.refactor_every` eta factors, checked after the first
    /// iteration), or `cfg.bland_after` degenerate iterations in a row (at
    /// least one) hand the next iteration to Bland's rule. An iteration
    /// prices by `cfg.pricing`, FTRANs the column that prices out by more
    /// than `cfg.price_tol` and runs the ratio test on it; the flip or pivot
    /// that follows is [`pivot::primal_step`]'s, and a Devex pivot updates the
    /// reference weights from the leaving row of the old basis first.
    fn primal_run(
        &mut self,
        view: ProblemView<'_>,
        basis: &mut Basis,
        cfg: &PrimalConfig,
        run: &mut PrimalRun,
    ) -> LpResult<()> {
        let devex = cfg.pricing == PricingRule::Devex;
        let start = run.iters;
        while run.open(cfg) && (run.iters == start || self.eta_count() < cfg.refactor_every) {
            let candidate = match cfg.pricing {
                PricingRule::Dantzig => self.price()?,
                PricingRule::Devex => self.price_devex()?,
            };
            let Some((q, _)) = candidate.filter(|&(_, score)| score < -cfg.price_tol) else {
                run.outcome = Some(PrimalOutcome::Optimal);
                break;
            };
            let (dir, limit) = enter(self, basis, q, cfg.ratio_tol)?;
            let step = pivot::primal_step((q, dir), limit, &basis.cols, [view.c, view.lb, view.ub]);
            match apply_primal_step(self, basis, (q, dir), step, devex)? {
                None => run.outcome = Some(PrimalOutcome::Unbounded { entering: q }),
                Some(t) if run.step(t, cfg) => break,
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Dual iterations from the installed basis, applied to `basis` as
    /// well and counted into `at.dual`, until `x_B` is within its bounds,
    /// the LP is proven infeasible, `cfg.base.max_iters` pivots are made, or
    /// a refactorization is due (`cfg.base.refactor_every` eta factors,
    /// checked after the first pivot). Returns how the run ended (`None`:
    /// its budget ran out). An iteration is the worst bound violation
    /// beyond `cfg.feas_tol`, the BTRAN row of its basis row, the dual ratio
    /// test on it, the two entries the pivot's scalars
    /// ([`pivot::dual_pivot`]) need, the FTRAN of the entering column and
    /// the pivot.
    ///
    /// With `polish`, a run that ends feasible goes on in the same call:
    /// it re-installs the basis it reached and runs
    /// [`primal_run`](Self::primal_run) under `polish` from a fresh
    /// [`PrimalRun`], which it leaves in `at.polish` (`None`: the run stops
    /// at the feasible end).
    fn dual_run(
        &mut self,
        view: ProblemView<'_>,
        basis: &mut Basis,
        cfg: &DualConfig,
        polish: Option<&PrimalConfig>,
        at: &mut Progress,
    ) -> LpResult<Option<DualOutcome>> {
        let tol = cfg.base.ratio_tol;
        let start = at.dual;
        while at.dual < cfg.base.max_iters
            && (at.dual == start || self.eta_count() < cfg.base.refactor_every)
        {
            let Some((r, _viol, below)) = self.primal_infeas(cfg.feas_tol)? else {
                if let Some(polish) = polish {
                    self.install(view, basis)?;
                    self.primal_run(view, basis, polish, at.polish.insert(PrimalRun::default()))?;
                }
                return Ok(Some(DualOutcome::PrimalFeasible));
            };
            self.btran_row(r)?;
            let Some((q, _ratio)) = self.dual_ratio(below, tol)? else {
                return Ok(Some(DualOutcome::Infeasible { row: r, below }));
            };
            let alpha_rq = self.alpha_r_entry(q)?;
            if alpha_rq.abs() < tol {
                return Err(LpError::Shape(format!(
                    "dual pivot on numerically zero alpha_r[{q}]"
                )));
            }
            let xbr = self.basic_entry(r)?;
            let leaving_j = basis.cols[r];
            let scalars = pivot::dual_pivot(
                xbr,
                alpha_rq,
                below,
                (leaving_j, q),
                basis.status[q].sigma(),
                [view.c, view.lb, view.ub],
            );
            self.ftran_column(q)?;
            self.apply_pivot(&PivotPlan::new(r, q, leaving_j, &scalars))?;
            basis.pivot(r, q, nonbasic_at(!below));
            at.dual += 1;
        }
        Ok(None)
    }
}

/// Pure-host engine: the reference implementation.
#[derive(Debug)]
pub struct HostEngine {
    a: DenseMatrix,
    c: Vec<f64>,
    sigma: Vec<f64>,
    cb: Vec<f64>,
    lbb: Vec<f64>,
    ubb: Vec<f64>,
    xb: Vec<f64>,
    gamma: Vec<f64>,
    eta: Option<EtaFile>,
    alpha: Option<Vec<f64>>,
    alpha_r: Option<Vec<f64>>,
    /// Engine-owned scratch of the per-iteration kernels, sized at
    /// [`install`](SimplexEngine::install): dual prices `y`, BTRAN work
    /// space, and the unit vector / entering column (length `m`); `Aᵀy`
    /// (length `n`).
    y: Vec<f64>,
    work: Vec<f64>,
    col: Vec<f64>,
    aty: Vec<f64>,
}

impl HostEngine {
    /// Creates a host engine over the given constraint matrix.
    pub fn new(a: DenseMatrix) -> Self {
        Self {
            a,
            c: Vec::new(),
            sigma: Vec::new(),
            cb: Vec::new(),
            lbb: Vec::new(),
            ubb: Vec::new(),
            xb: Vec::new(),
            gamma: Vec::new(),
            eta: None,
            alpha: None,
            alpha_r: None,
            y: Vec::new(),
            work: Vec::new(),
            col: Vec::new(),
            aty: Vec::new(),
        }
    }

    fn eta(&self) -> LpResult<&EtaFile> {
        self.eta.as_ref().ok_or(LpError::NotInstalled)
    }

    fn alpha(&self) -> LpResult<&Vec<f64>> {
        self.alpha.as_ref().ok_or(LpError::NotInstalled)
    }

    /// Entry `i` of the current FTRAN column: the tests' window on α.
    #[cfg(test)]
    fn alpha_entry(&self, i: usize) -> LpResult<f64> {
        Ok(self.alpha()?[i])
    }

    /// Dual prices into `self.y` (`Bᵀy = c_B`) and `Aᵀy` into `self.aty`:
    /// the reduced cost of column `j` is `c[j] - aty[j]`.
    fn price_out(&mut self) -> LpResult<()> {
        let eta = self.eta.as_ref().ok_or(LpError::NotInstalled)?;
        eta.btran_into(&self.cb, &mut self.work, &mut self.y)?;
        self.a.matvec_transposed_into(&self.y, &mut self.aty)?;
        Ok(())
    }
}

impl SimplexEngine for HostEngine {
    fn m(&self) -> usize {
        self.a.rows()
    }

    fn n(&self) -> usize {
        self.a.cols()
    }

    fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()> {
        let (m, n) = (self.m(), self.n());
        view.check(basis, m, n)?;
        self.c.clear();
        self.c.extend_from_slice(view.c);
        for v in [&mut self.y, &mut self.work, &mut self.col] {
            v.resize(m, 0.0);
        }
        // The nonbasic point lands in the `aty` scratch, the residual
        // `b − A x_N` in `col`.
        view.assemble(
            basis,
            [
                &mut self.sigma,
                &mut self.aty,
                &mut self.cb,
                &mut self.lbb,
                &mut self.ubb,
            ],
        )?;
        self.a.matvec_into(&self.aty, &mut self.work)?;
        for ((wi, bi), ai) in self.col.iter_mut().zip(view.b).zip(&self.work) {
            *wi = bi - ai;
        }
        // Gather and factorize the basis, in the previous file's storage.
        let mut eta = self.eta.take().unwrap_or_default();
        eta.refactorize_columns(&self.a, &basis.cols)?;
        self.xb.resize(m, 0.0);
        eta.ftran_into(&self.col, &mut self.xb)?;
        self.eta = Some(eta);
        self.gamma.clear();
        self.gamma.resize(n, 1.0);
        self.alpha = None;
        self.alpha_r = None;
        Ok(())
    }

    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        self.a.push_row(row)?;
        self.a.push_col(col)?;
        Ok(())
    }

    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.price_out()?;
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.n() {
            if self.sigma[j] == 0.0 {
                continue;
            }
            let d = self.c[j] - self.aty[j];
            let score = self.sigma[j] * d;
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((j, score));
            }
        }
        Ok(best)
    }

    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        self.price_out()?;
        Ok(self
            .c
            .iter()
            .zip(&self.aty)
            .map(|(ci, ai)| ci - ai)
            .collect())
    }

    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        // Sized to the matrix (not the factorization): a cut appended
        // without a re-install stays a dimension error below.
        self.col.resize(self.a.rows(), 0.0);
        self.a.col_into(q, &mut self.col);
        // Reuses the previous column's buffer unless a pivot consumed it.
        let mut alpha = self.alpha.take().unwrap_or_default();
        alpha.resize(self.col.len(), 0.0);
        self.eta()?.ftran_into(&self.col, &mut alpha)?;
        self.alpha = Some(alpha);
        Ok(())
    }

    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        let alpha = self.alpha()?;
        Ok(pivot::ratio_test(
            &self.xb, alpha, &self.lbb, &self.ubb, dir, tol,
        ))
    }

    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        let alpha = self.alpha.as_ref().ok_or(LpError::NotInstalled)?;
        pivot::step(&mut self.xb, alpha, dir, t);
        self.sigma[q] = new_sigma;
        Ok(())
    }

    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        // The eta file keeps a copy of the FTRAN column, which is stale
        // after the pivot.
        let alpha = self.alpha.take().ok_or(LpError::NotInstalled)?;
        pivot::step(&mut self.xb, &alpha, plan.dir, plan.t);
        self.xb[plan.r] = plan.entering_val;
        self.eta
            .as_mut()
            .ok_or(LpError::NotInstalled)?
            .update(plan.r, &alpha)?;
        self.sigma[plan.leaving_j] = plan.leaving_sigma;
        self.sigma[plan.q] = 0.0;
        self.cb[plan.r] = plan.c_q;
        self.lbb[plan.r] = plan.lb_q;
        self.ubb[plan.r] = plan.ub_q;
        self.alpha_r = None;
        Ok(())
    }

    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        Ok(self.xb.clone())
    }

    fn basic_entry(&mut self, i: usize) -> LpResult<f64> {
        self.xb.get(i).copied().ok_or(LpError::Shape(format!(
            "basic_entry {i} of {}",
            self.xb.len()
        )))
    }

    fn eta_count(&self) -> usize {
        self.eta.as_ref().map_or(0, EtaFile::eta_count)
    }

    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        Ok(pivot::primal_infeasibility(
            &self.xb, &self.lbb, &self.ubb, tol,
        ))
    }

    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        let eta = self.eta.as_ref().ok_or(LpError::NotInstalled)?;
        // `col` holds e_r, `y` receives ρ = B⁻ᵀ e_r.
        self.col.fill(0.0);
        self.col[r] = 1.0;
        eta.btran_into(&self.col, &mut self.work, &mut self.y)?;
        let mut alpha_r = self.alpha_r.take().unwrap_or_default();
        alpha_r.resize(self.a.cols(), 0.0);
        self.a.matvec_transposed_into(&self.y, &mut alpha_r)?;
        self.alpha_r = Some(alpha_r);
        Ok(())
    }

    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        self.price_out()?;
        let ar = self.alpha_r.as_ref().ok_or(LpError::NotInstalled)?;
        let (c, aty) = (&self.c, &self.aty);
        Ok(pivot::dual_ratio(
            |j| c[j] - aty[j],
            ar,
            &self.sigma,
            leaving_below,
            tol,
        ))
    }

    fn alpha_r_entry(&mut self, j: usize) -> LpResult<f64> {
        Ok(self.alpha_r.as_ref().ok_or(LpError::NotInstalled)?[j])
    }

    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.btran_row(r)?;
        Ok(self.alpha_r.clone().expect("btran_row just set alpha_r"))
    }

    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        self.eta()?.btran(&self.cb).map_err(LpError::from)
    }

    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.price_out()?;
        let (c, aty) = (&self.c, &self.aty);
        Ok(pivot::devex_price(
            |j| c[j] - aty[j],
            &self.sigma,
            &self.gamma,
        ))
    }

    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        let ar = self.alpha_r.as_ref().ok_or(LpError::NotInstalled)?;
        pivot::devex_update(&mut self.gamma, ar, q, leaving_j).map_err(devex_refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2x4 system: x0 + x2 = 4, x1 + x3 = 3 (identity slack basis on cols
    /// 2,3). c = [3, 2, 0, 0], all lb 0, ub inf.
    fn setup() -> (HostEngine, Basis, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let a =
            DenseMatrix::from_rows(&[vec![1.0, 0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]]).unwrap();
        let engine = HostEngine::new(a);
        let basis = Basis::with_basic_cols(vec![2, 3], 4);
        let c = vec![3.0, 2.0, 0.0, 0.0];
        let lb = vec![0.0; 4];
        let ub = vec![f64::INFINITY; 4];
        let b = vec![4.0, 3.0];
        (engine, basis, c, lb, ub, b)
    }

    #[test]
    fn install_computes_slack_basics() {
        let (mut e, basis, c, lb, ub, b) = setup();
        e.install(
            ProblemView {
                c: &c,
                lb: &lb,
                ub: &ub,
                b: &b,
            },
            &basis,
        )
        .unwrap();
        assert_eq!(e.basic_values().unwrap(), vec![4.0, 3.0]);
        assert_eq!(e.eta_count(), 0);
    }

    #[test]
    fn price_picks_most_improving() {
        let (mut e, basis, c, lb, ub, b) = setup();
        e.install(
            ProblemView {
                c: &c,
                lb: &lb,
                ub: &ub,
                b: &b,
            },
            &basis,
        )
        .unwrap();
        // d = c (y = 0); scores: sigma=-1 → -3 for x0, -2 for x1.
        let (j, score) = e.price().unwrap().unwrap();
        assert_eq!(j, 0);
        assert!((score + 3.0).abs() < 1e-12);
        let d = e.reduced_costs_host().unwrap();
        assert_eq!(d, vec![3.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn ftran_ratio_pivot_cycle() {
        let (mut e, mut basis, c, lb, ub, b) = setup();
        e.install(
            ProblemView {
                c: &c,
                lb: &lb,
                ub: &ub,
                b: &b,
            },
            &basis,
        )
        .unwrap();
        e.ftran_column(0).unwrap();
        assert_eq!(e.alpha_entry(0).unwrap(), 1.0);
        assert_eq!(e.alpha_entry(1).unwrap(), 0.0);
        let (r, t, upper) = e.ratio_test(1.0, 1e-9).unwrap().unwrap();
        assert_eq!(r, 0);
        assert_eq!(t, 4.0);
        assert!(!upper);
        e.apply_pivot(&PivotPlan {
            r,
            q: 0,
            leaving_j: 2,
            dir: 1.0,
            t,
            entering_val: 4.0,
            leaving_sigma: -1.0,
            leaving_x: 0.0,
            c_q: 3.0,
            lb_q: 0.0,
            ub_q: f64::INFINITY,
        })
        .unwrap();
        basis.pivot(r, 0, VarStatus::AtLower);
        assert_eq!(e.basic_values().unwrap(), vec![4.0, 3.0]);
        assert_eq!(e.eta_count(), 1);
        // x0 now basic; pricing should propose x1.
        let (j, _) = e.price().unwrap().unwrap();
        assert_eq!(j, 1);
    }

    #[test]
    fn primal_infeasibility_detection() {
        let (mut e, basis, c, lb, mut ub, b) = setup();
        // Force slack 2's upper bound below its basic value 4.
        ub[2] = 1.0;
        e.install(
            ProblemView {
                c: &c,
                lb: &lb,
                ub: &ub,
                b: &b,
            },
            &basis,
        )
        .unwrap();
        let (r, viol, below) = e.primal_infeas(1e-9).unwrap().unwrap();
        assert_eq!(r, 0);
        assert!((viol - 3.0).abs() < 1e-12);
        assert!(!below);
        // BTRAN row of the violated row: identity basis → row 0 of A.
        e.btran_row(0).unwrap();
        assert_eq!(e.alpha_r_entry(0).unwrap(), 1.0);
        assert_eq!(e.alpha_r_entry(1).unwrap(), 0.0);
    }

    #[test]
    fn install_shape_checked() {
        let (mut e, basis, c, lb, ub, b) = setup();
        let view = ProblemView {
            c: &c,
            lb: &lb,
            ub: &ub,
            b: &b,
        };
        let (short, long) = (&lb[..3], [&lb[..], &[0.0]].concat());
        let wide = Basis::with_basic_cols(vec![2, 3], 5);
        for (view, basis) in [
            (ProblemView { b: &b[..1], ..view }, &basis),
            (ProblemView { lb: short, ..view }, &basis),
            (ProblemView { ub: &long, ..view }, &basis),
            (view, &wide),
        ] {
            let err = e.install(view, basis).unwrap_err();
            let LpError::Shape(msg) = err else {
                panic!("{err:?}")
            };
            // The message names every length.
            for part in ["c=4", "lb=", "ub=", "b=", "basis statuses"] {
                assert!(msg.contains(part), "{msg}");
            }
        }
        e.install(view, &basis).unwrap();
    }

    #[test]
    fn not_installed_errors() {
        let (mut e, _, _, _, _, _) = setup();
        assert!(matches!(e.price(), Err(LpError::NotInstalled)));
        assert!(e.ftran_column(0).is_err());
    }

    #[test]
    fn state_machine_misuse_is_reported_not_panicking() {
        let (mut e, basis, c, lb, ub, b) = setup();
        e.install(
            ProblemView {
                c: &c,
                lb: &lb,
                ub: &ub,
                b: &b,
            },
            &basis,
        )
        .unwrap();
        // Ratio test / pivot / alpha access before any FTRAN.
        assert!(matches!(
            e.ratio_test(1.0, 1e-9),
            Err(LpError::NotInstalled)
        ));
        assert!(matches!(e.alpha_entry(0), Err(LpError::NotInstalled)));
        assert!(e
            .apply_pivot(&PivotPlan {
                r: 0,
                q: 0,
                leaving_j: 2,
                dir: 1.0,
                t: 0.0,
                entering_val: 0.0,
                leaving_sigma: -1.0,
                leaving_x: 0.0,
                c_q: 0.0,
                lb_q: 0.0,
                ub_q: 1.0,
            })
            .is_err());
        // Dual accessors before btran_row.
        assert!(matches!(e.alpha_r_entry(0), Err(LpError::NotInstalled)));
        assert!(e.dual_ratio(true, 1e-9).is_err());
        // Devex update before btran_row.
        assert!(e.devex_update(0, 2).is_err());
        // After a proper FTRAN/BTRAN everything works again.
        e.ftran_column(0).unwrap();
        assert!(e.ratio_test(1.0, 1e-9).is_ok());
        e.btran_row(0).unwrap();
        assert!(e.alpha_r_entry(0).is_ok());
        // A cut appended without a re-install: the scan for a leaving row
        // reads x_B's own length, not the grown matrix's row count.
        e.append_cut(&[1.0, 1.0, 0.0, 0.0], &[0.0, 0.0, 1.0])
            .unwrap();
        assert_eq!(e.primal_infeas(1e-9), Ok(None));
    }

    #[test]
    fn devex_pricing_agrees_with_dantzig_on_direction() {
        let (mut e, basis, c, lb, ub, b) = setup();
        e.install(
            ProblemView {
                c: &c,
                lb: &lb,
                ub: &ub,
                b: &b,
            },
            &basis,
        )
        .unwrap();
        // Fresh weights are all 1, so Devex merit d² picks the same column
        // as Dantzig's |σd| here (d = [3,2,0,0], all at lower).
        let (jd, sd) = e.price().unwrap().unwrap();
        let (jx, sx) = e.price_devex().unwrap().unwrap();
        assert_eq!(jd, jx);
        assert_eq!(sd, sx);
    }

    #[test]
    fn append_cut_grows_engine() {
        let (mut e, _, _, _, _, _) = setup();
        e.append_cut(&[1.0, 1.0, 0.0, 0.0], &[0.0, 0.0, 1.0])
            .unwrap();
        assert_eq!(e.m(), 3);
        assert_eq!(e.n(), 5);
    }
}
