//! The [`LpSolver`] facade: two-phase primal solve, dual warm re-solves
//! after bound changes, and cut-row extension — over any
//! [`SimplexEngine`].
//!
//! ## Column layout
//!
//! The engine's matrix is append-only, so the solver fixes this layout:
//!
//! ```text
//! [ structural + slack columns (n₀) | artificials (m₀) | cut slacks ... ]
//! ```
//!
//! Artificial columns are `+e_i` identity columns used only by the
//! from-scratch phase-1 solve; in phase 2 and all re-solves they are fixed
//! to `[0, 0]` and excluded from pricing. Cut slacks are appended as cuts
//! arrive (Section 5.2); the matrix is uploaded to the device **once** and
//! only grows — never re-transferred — matching the paper's reuse doctrine.

use crate::basis::{Basis, VarStatus};
use crate::dual::{dual_loop, DualConfig, DualOutcome};
use crate::engine::{ProblemView, Progress, SimplexEngine};
use crate::problem::{BoundChange, StandardLp};
use crate::simplex::{
    assemble_point, primal_from, primal_solve_traced, PrimalConfig, PrimalOutcome,
};
use crate::{LpError, LpResult};
use gmip_linalg::{DenseMatrix, LinalgError};
use gmip_trace::{names, Event, MetricsRegistry, Track};

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct LpConfig {
    /// Primal driver knobs.
    pub primal: PrimalConfig,
    /// Dual driver knobs.
    pub dual: DualConfig,
}

impl LpConfig {
    /// The standard configuration.
    pub fn standard() -> Self {
        Self {
            primal: PrimalConfig::default(),
            dual: DualConfig::standard(),
        }
    }
}

/// Terminal status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The LP is infeasible.
    Infeasible,
    /// The LP is unbounded.
    Unbounded,
}

/// The result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Terminal status.
    pub status: LpStatus,
    /// Objective in the *source* sense (only meaningful for `Optimal`).
    pub objective: f64,
    /// Structural variable values (empty unless `Optimal`).
    pub x: Vec<f64>,
    /// Simplex iterations spent (all phases).
    pub iterations: usize,
}

/// Classification of an engine-layout column (see the module docs for the
/// layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// A structural (instance) variable.
    Structural,
    /// An original inequality slack.
    Slack,
    /// A phase-1 artificial (fixed to 0 outside phase 1).
    Artificial,
    /// The slack of the k-th appended cut.
    CutSlack(usize),
}

/// An LP solver instance bound to one engine and one (growing) problem.
#[derive(Debug)]
pub struct LpSolver<E: SimplexEngine> {
    engine: E,
    std: StandardLp,
    /// Host mirror of the engine's matrix (residual computation & tests).
    mirror: DenseMatrix,
    /// Extended arrays in engine layout.
    c_real: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    b: Vec<f64>,
    /// Core column count (structural + original slacks).
    n_core: usize,
    /// Original row count (artificial block size).
    m_core: usize,
    /// Number of appended cut rows.
    n_cuts: usize,
    /// Cut bookkeeping: `(coeffs, rhs)` over structural variables.
    cut_rows: Vec<(Vec<(usize, f64)>, f64)>,
    cfg: LpConfig,
    basis: Option<Basis>,
    /// Farkas infeasibility witness of the most recent solve, if it ended
    /// `Infeasible` (row multipliers, one per row). Cleared on every solve.
    farkas: Option<Vec<f64>>,
    /// Accumulated `lp.*` metrics (solves, iterations, refactorizations).
    metrics: MetricsRegistry,
}

impl<E: SimplexEngine> LpSolver<E> {
    /// Creates a solver; `make_engine` receives the extended matrix
    /// `[A | I]` (e.g. `HostEngine::new`, or a closure uploading to a
    /// device).
    pub fn new(
        std: StandardLp,
        cfg: LpConfig,
        make_engine: impl FnOnce(&DenseMatrix) -> E,
    ) -> Self {
        let ext = Self::extended_matrix(&std);
        let engine = make_engine(&ext);
        Self::assemble(std, cfg, engine, ext)
    }

    /// Fallible variant of [`Self::new`] for engines whose construction can
    /// fail (e.g. a device engine hitting out-of-memory at matrix upload).
    pub fn try_new(
        std: StandardLp,
        cfg: LpConfig,
        make_engine: impl FnOnce(&DenseMatrix) -> LpResult<E>,
    ) -> LpResult<Self> {
        let ext = Self::extended_matrix(&std);
        let engine = make_engine(&ext)?;
        Ok(Self::assemble(std, cfg, engine, ext))
    }

    /// Builds the `[A | I]` extended matrix for a standard-form problem.
    fn extended_matrix(std: &StandardLp) -> DenseMatrix {
        let n_core = std.n();
        let m_core = std.m();
        let mut ext = DenseMatrix::zeros(m_core, n_core + m_core);
        for i in 0..m_core {
            for j in 0..n_core {
                ext.set(i, j, std.a.get(i, j));
            }
            ext.set(i, n_core + i, 1.0);
        }
        ext
    }

    fn assemble(std: StandardLp, cfg: LpConfig, engine: E, ext: DenseMatrix) -> Self {
        let n_core = std.n();
        let m_core = std.m();
        let mut c_real = std.c.clone();
        c_real.extend(std::iter::repeat_n(0.0, m_core));
        let mut lb = std.lb.clone();
        lb.extend(std::iter::repeat_n(0.0, m_core));
        let mut ub = std.ub.clone();
        ub.extend(std::iter::repeat_n(0.0, m_core));
        let b = std.b.clone();
        Self {
            engine,
            std,
            mirror: ext,
            c_real,
            lb,
            ub,
            b,
            n_core,
            m_core,
            n_cuts: 0,
            cut_rows: Vec::new(),
            cfg,
            basis: None,
            farkas: None,
            metrics: MetricsRegistry::new(),
        }
    }

    /// Number of structural variables.
    pub fn n_structural(&self) -> usize {
        self.std.n_structural
    }

    /// Immutable access to the engine (e.g. to read device stats).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable engine access (cut generators pull tableau rows through it).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The solver's accumulated `lp.*` metrics: solve/re-solve counts,
    /// simplex iterations, refactorizations, iterations-per-solve histogram.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Drains the metrics registry (e.g. to merge into a session summary
    /// and reset the window).
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        std::mem::take(&mut self.metrics)
    }

    /// Records one facade-level call: counter bump, per-solve iteration
    /// histogram, and a span on the LP trace track (engines without a
    /// simulated clock produce metrics but no span).
    fn note_lp_call(
        &mut self,
        counter: &'static str,
        span: &'static str,
        t0: Option<f64>,
        out: &LpResult<LpSolution>,
    ) {
        self.metrics.incr(counter, 1.0);
        if let Ok(sol) = out {
            self.metrics
                .observe(names::LP_ITERATIONS_PER_SOLVE, sol.iterations as f64);
            if let Some(t0) = t0 {
                let t1 = self.engine.sim_now_ns().unwrap_or(t0);
                let iters = sol.iterations as u64;
                gmip_trace::record(|| {
                    Event::complete(Track::lp(), span, (t1 - t0).max(0.0), t0)
                        .arg("iterations", iters)
                });
            }
        }
    }

    /// The lowered standard-form problem this solver was built from.
    pub fn standard(&self) -> &StandardLp {
        &self.std
    }

    /// Current extended bounds `(lb, ub)` in engine column layout.
    pub fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.lb, &self.ub)
    }

    /// Current extended right-hand side.
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// Cuts added so far, as `(coeffs, rhs)` over structural variables.
    pub fn cuts(&self) -> &[(Vec<(usize, f64)>, f64)] {
        &self.cut_rows
    }

    /// Classifies an engine-layout column.
    pub fn col_kind(&self, j: usize) -> ColKind {
        if j < self.std.n_structural {
            ColKind::Structural
        } else if j < self.n_core {
            ColKind::Slack
        } else if j < self.n_core + self.m_core {
            ColKind::Artificial
        } else {
            ColKind::CutSlack(j - self.n_core - self.m_core)
        }
    }

    /// Converts a solution objective to the internal maximize sense used for
    /// bound comparisons.
    pub fn internal_objective(&self, source_objective: f64) -> f64 {
        if self.std.negated {
            -source_objective
        } else {
            source_objective
        }
    }

    /// Dual prices of the current optimal basis in the **internal maximize**
    /// sense (no source-sense negation) — the sense certificate checks are
    /// stated in. One value per row; cut rows included at the end. Requires
    /// a prior solve.
    pub fn dual_prices_internal(&mut self) -> LpResult<Vec<f64>> {
        if self.basis.is_none() {
            return Err(LpError::NotInstalled);
        }
        self.engine.dual_prices()
    }

    /// The host mirror of the engine's extended matrix
    /// `[A | I | cut slacks]` (rows: core + cuts).
    pub fn matrix(&self) -> &DenseMatrix {
        &self.mirror
    }

    /// The Farkas infeasibility witness of the most recent solve, if that
    /// solve ended `Infeasible` and a witness could be extracted: row
    /// multipliers `w` with `Σⱼ min(zⱼlⱼ, zⱼuⱼ) > wᵀb`, `zⱼ = wᵀaⱼ`.
    pub fn farkas_ray(&self) -> Option<&[f64]> {
        self.farkas.as_deref()
    }

    /// Current basis snapshot (after a successful solve).
    pub fn basis(&self) -> Option<&Basis> {
        self.basis.as_ref()
    }

    /// Whether `basis` has the problem's current shape, cut rows included.
    pub(crate) fn fits(&self, basis: &Basis) -> bool {
        basis.n() == self.total_cols() && basis.m() == self.total_rows()
    }

    /// Installs a warm-start basis (e.g. the parent node's, Section 5.3).
    /// The basis must match the current column count.
    pub fn set_warm_basis(&mut self, basis: Basis) -> LpResult<()> {
        if !self.fits(&basis) {
            return Err(LpError::Shape(format!(
                "warm basis {}x{} vs problem {}x{}",
                basis.m(),
                basis.n(),
                self.total_rows(),
                self.total_cols()
            )));
        }
        self.basis = Some(basis);
        Ok(())
    }

    /// Overrides the bounds of a structural variable (a branch decision).
    pub fn set_var_bounds(&mut self, var: usize, lb: f64, ub: f64) -> LpResult<()> {
        if var >= self.std.n_structural {
            return Err(LpError::Shape(format!(
                "bound change on non-structural column {var}"
            )));
        }
        self.lb[var] = lb;
        self.ub[var] = ub;
        Ok(())
    }

    /// Applies a set of bound changes after restoring instance bounds — the
    /// "reuse the engine across tree nodes" entry point.
    pub fn apply_node_bounds(&mut self, changes: &[BoundChange]) -> LpResult<()> {
        for j in 0..self.std.n_structural {
            self.lb[j] = self.std.lb[j];
            self.ub[j] = self.std.ub[j];
        }
        for bc in changes {
            self.set_var_bounds(bc.var, bc.lb, bc.ub)?;
        }
        Ok(())
    }

    /// Appends a (globally valid) cut `coeffsᵀ x ≤ rhs` over structural
    /// variables; extends the current basis with the cut's slack so a warm
    /// dual re-solve remains possible.
    pub fn add_cut(&mut self, coeffs: &[(usize, f64)], rhs: f64) -> LpResult<()> {
        let n_before = self.total_cols();
        let mut row = vec![0.0; n_before];
        for &(j, v) in coeffs {
            if j >= self.std.n_structural {
                return Err(LpError::Shape(format!("cut coefficient on column {j}")));
            }
            row[j] = v;
        }
        let m_after = self.total_rows() + 1;
        let mut col = vec![0.0; m_after];
        col[m_after - 1] = 1.0;
        self.engine.append_cut(&row, &col)?;
        self.mirror.push_row(&row)?;
        self.mirror.push_col(&col)?;
        self.b.push(rhs);
        self.c_real.push(0.0);
        self.lb.push(0.0);
        self.ub.push(f64::INFINITY);
        self.n_cuts += 1;
        self.cut_rows.push((coeffs.to_vec(), rhs));
        if let Some(basis) = &mut self.basis {
            basis.extend_for_cuts(n_before, 1);
        }
        Ok(())
    }

    fn total_cols(&self) -> usize {
        self.n_core + self.m_core + self.n_cuts
    }

    fn total_rows(&self) -> usize {
        self.m_core + self.n_cuts
    }

    fn art_col(&self, row: usize) -> usize {
        self.n_core + row
    }

    fn cut_slack_col(&self, k: usize) -> usize {
        self.n_core + self.m_core + k
    }

    /// Solves from scratch (two-phase primal).
    pub fn solve(&mut self) -> LpResult<LpSolution> {
        let t0 = self.engine.sim_now_ns();
        let out = self.solve_inner();
        self.note_lp_call(names::LP_SOLVES, "lp.solve", t0, &out);
        out
    }

    fn solve_inner(&mut self) -> LpResult<LpSolution> {
        self.farkas = None;
        let n = self.total_cols();
        // Initial basis: artificial per core row, cut slack per cut row.
        let mut cols = Vec::with_capacity(self.total_rows());
        for i in 0..self.m_core {
            cols.push(self.art_col(i));
        }
        for k in 0..self.n_cuts {
            cols.push(self.cut_slack_col(k));
        }
        let mut basis = Basis::with_basic_cols(cols, n);
        // Nonbasic statuses: prefer the finite bound.
        for j in 0..n {
            if matches!(basis.status[j], VarStatus::Basic(_)) {
                continue;
            }
            if self.lb[j].is_finite() {
                basis.status[j] = VarStatus::AtLower;
            } else if self.ub[j].is_finite() {
                basis.status[j] = VarStatus::AtUpper;
            } else {
                return Err(LpError::FreeVariable(j));
            }
        }

        // Residual at the nonbasic point decides the phase-1 relaxations.
        let mut x_nb = vec![0.0; n];
        for (j, s) in basis.status.iter().enumerate() {
            match s {
                VarStatus::AtLower => x_nb[j] = self.lb[j],
                VarStatus::AtUpper => x_nb[j] = self.ub[j],
                VarStatus::Basic(_) => {}
            }
        }
        let ax = self.mirror.matvec(&x_nb)?;
        let resid: Vec<f64> = self.b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();

        // Phase-1 vectors.
        let mut c1 = vec![0.0; n];
        let mut lb1 = self.lb.clone();
        let mut ub1 = self.ub.clone();
        for i in 0..self.m_core {
            let j = self.art_col(i);
            if resid[i] >= 0.0 {
                lb1[j] = 0.0;
                ub1[j] = f64::INFINITY;
                c1[j] = -1.0;
            } else {
                lb1[j] = f64::NEG_INFINITY;
                ub1[j] = 0.0;
                c1[j] = 1.0;
            }
        }
        for k in 0..self.n_cuts {
            let j = self.cut_slack_col(k);
            let r = resid[self.m_core + k];
            if r < 0.0 {
                lb1[j] = f64::NEG_INFINITY;
                ub1[j] = 0.0;
                c1[j] = 1.0;
            }
        }

        // An artificial must end at 0; a relaxed cut slack must only get
        // back to its real range [0, ∞). Held at (-∞, 0] for good it could
        // never go slack again, and phase 1 would minimise infeasibility with
        // every initially-violated cut tight or violated — infeasible though
        // the LP is not. So when a pass ends infeasible, every relaxed slack
        // it brought to 0 gets its range back at cost 0, and phase 1 goes on
        // from the same basis until it is feasible or releases nothing.
        let mut it1 = 0;
        loop {
            let view1 = ProblemView {
                c: &c1,
                lb: &lb1,
                ub: &ub1,
                b: &self.b,
            };
            let (out1, it) = primal_solve_traced(
                &mut self.engine,
                view1,
                &mut basis,
                &self.cfg.primal,
                &mut self.metrics,
            )?;
            it1 += it;
            if let PrimalOutcome::Unbounded { entering } = out1 {
                return Err(LpError::Shape(format!(
                    "phase 1 reported unbounded at column {entering} (internal error)"
                )));
            }
            // Feasibility: phase-1 objective must be ~0.
            let x1 = assemble_point(&mut self.engine, view1, &basis)?;
            let infeasibility: f64 = -c1.iter().zip(&x1).map(|(ci, xi)| ci * xi).sum::<f64>();
            if infeasibility <= self.cfg.dual.feas_tol.max(1e-7) * (1.0 + self.b.len() as f64) {
                break;
            }
            let mut released = false;
            for k in 0..self.n_cuts {
                let j = self.cut_slack_col(k);
                if c1[j] == 1.0 && x1[j] >= -self.cfg.dual.feas_tol {
                    (lb1[j], ub1[j], c1[j]) = (0.0, f64::INFINITY, 0.0);
                    if basis.status[j] == VarStatus::AtUpper {
                        basis.status[j] = VarStatus::AtLower;
                    }
                    released = true;
                }
            }
            if released {
                continue;
            }
            // Phase-1 duals are a Farkas witness: with the phase-1 costs
            // still installed, y = c1_B B⁻¹ satisfies
            // Σⱼ min(zⱼlⱼ, zⱼuⱼ) = yᵀb + δ > yᵀb (δ = phase-1 infeasibility)
            // over the real columns (artificial/relaxed terms vanish by
            // phase-1 complementary slackness). That cancellation argument
            // covers artificials but NOT phase-1-relaxed cut slacks, whose
            // unbounded side can carry a wrong-sign zⱼ — so no witness is
            // published when cut rows are installed.
            self.farkas = if self.n_cuts == 0 {
                self.engine.dual_prices().ok()
            } else {
                None
            };
            self.basis = Some(basis);
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: f64::NAN,
                x: Vec::new(),
                iterations: it1,
            });
        }

        // Transition to phase 2: relaxed columns whose phase-1 status was
        // AtUpper at a bound that phase 2 moves must be re-anchored. Cut
        // slacks AtUpper(0) become AtLower (same value, finite bound).
        for k in 0..self.n_cuts {
            let j = self.cut_slack_col(k);
            if basis.status[j] == VarStatus::AtUpper {
                basis.status[j] = VarStatus::AtLower;
            }
        }
        let (out2, it2) = self.run_phase2(&mut basis)?;
        self.finish(basis, out2, it1 + it2)
    }

    fn run_phase2(&mut self, basis: &mut Basis) -> LpResult<(PrimalOutcome, usize)> {
        let view = ProblemView {
            c: &self.c_real,
            lb: &self.lb,
            ub: &self.ub,
            b: &self.b,
        };
        primal_solve_traced(
            &mut self.engine,
            view,
            basis,
            &self.cfg.primal,
            &mut self.metrics,
        )
    }

    /// One node LP — the warm-simplex evaluator every driver shares:
    /// `bounds` on top of the instance box, then a dual re-solve from `warm`
    /// when it has the problem's current shape, a cold two-phase solve
    /// otherwise (a basis from before a cut round degrades, it is never an
    /// error). Returns the solution and the post-solve basis the node's
    /// children warm-start from.
    pub fn solve_node(
        &mut self,
        bounds: &[BoundChange],
        warm: Option<Basis>,
    ) -> LpResult<(LpSolution, Option<Basis>)> {
        self.apply_node_bounds(bounds)?;
        let sol = match warm.filter(|b| self.fits(b)) {
            Some(b) => {
                self.basis = Some(b);
                self.resolve()?
            }
            None => self.solve()?,
        };
        Ok((sol, self.basis.clone()))
    }

    /// Warm re-solve after bound changes and/or added cuts: dual simplex to
    /// restore feasibility, then a primal polish. Requires a prior solve (or
    /// [`Self::set_warm_basis`]); falls back to [`Self::solve`] otherwise.
    /// A warm attempt that turns singular or reaches `max_iters` — in the
    /// dual phase or in the polish — re-solves cold, and the solution is
    /// charged every pivot the attempt made. So a probe with a small
    /// `max_iters` does not return the warm attempt's error: it falls back
    /// to a cold solve under the same cap.
    pub fn resolve(&mut self) -> LpResult<LpSolution> {
        if self.basis.is_none() {
            return self.solve();
        }
        let t0 = self.engine.sim_now_ns();
        let out = self.resolve_inner();
        self.note_lp_call(names::LP_RESOLVES, "lp.resolve", t0, &out);
        out
    }

    fn resolve_inner(&mut self) -> LpResult<LpSolution> {
        self.farkas = None;
        let Some(mut basis) = self.basis.take() else {
            return self.solve_inner();
        };
        // Status repair: a bound relaxation can leave a nonbasic variable
        // "at" a bound that is now infinite. Re-anchor it to the finite side
        // (this may dent dual feasibility; the primal polish after the dual
        // pass restores optimality regardless).
        for j in 0..self.total_cols() {
            match basis.status[j] {
                VarStatus::AtLower if !self.lb[j].is_finite() => {
                    if self.ub[j].is_finite() {
                        basis.status[j] = VarStatus::AtUpper;
                    } else {
                        return Err(LpError::FreeVariable(j));
                    }
                }
                VarStatus::AtUpper if !self.ub[j].is_finite() => {
                    if self.lb[j].is_finite() {
                        basis.status[j] = VarStatus::AtLower;
                    } else {
                        return Err(LpError::FreeVariable(j));
                    }
                }
                _ => {}
            }
        }
        let view = ProblemView {
            c: &self.c_real,
            lb: &self.lb,
            ub: &self.ub,
            b: &self.b,
        };
        // The dual phase, and in the call that ends it the re-install and
        // the polish's first run; then the polish to its end.
        let mut at = Progress::default();
        let (engine, metrics, cfg) = (&mut self.engine, &mut self.metrics, &self.cfg);
        let ended = dual_loop(
            engine,
            view,
            &mut basis,
            &cfg.dual,
            Some(&cfg.primal),
            &mut at,
            metrics,
        )
        .and_then(|dual| match dual {
            DualOutcome::Infeasible { row, below } => Ok(Err((row, below))),
            DualOutcome::PrimalFeasible => {
                let run = at
                    .polish
                    .as_mut()
                    .expect("dual_run polishes a feasible end");
                primal_from(engine, view, &mut basis, &cfg.primal, metrics, run).map(Ok)
            }
        });
        // Every pivot the attempt made is charged, whatever comes of it.
        let spent = at.iterations();
        self.metrics.incr(names::LP_ITERATIONS, spent as f64);
        match ended {
            Ok(Ok(outcome)) => self.finish(basis, outcome, spent),
            Ok(Err((row, below))) => {
                // Extract the Farkas witness from the terminal dual row: with
                // ρ = B⁻ᵀe_row, the row `ρᵀA x = ρᵀb` restricted to the bound
                // box is violated (the failed ratio test proves the
                // box-extreme of ρᵀAx still misses ρᵀb). `below` ⇒ w = ρ,
                // else w = −ρ.
                self.farkas = self.dual_ray(&basis, row, below);
                self.basis = Some(basis);
                Ok(LpSolution {
                    status: LpStatus::Infeasible,
                    objective: f64::NAN,
                    x: Vec::new(),
                    iterations: spent,
                })
            }
            // A stall — highly degenerate bases (dense cut rows are the usual
            // culprit) can cycle the dual ratio test, which has no Bland
            // fallback — or a warm basis that is singular or turns so under
            // the updates: the basis is discarded and the LP re-solved cold,
            // the two-phase primal driver carrying anti-cycling. The cost is
            // one scratch solve on top of every pivot the attempt made.
            Err(
                LpError::IterationLimit { .. } | LpError::Numerics(LinalgError::Singular { .. }),
            ) => self.cold(spent),
            Err(e) => {
                // A device or memory failure: keep the (partially pivoted)
                // basis so the solver object stays warm-startable once the
                // caller has dealt with it.
                self.basis = Some(basis);
                Err(e)
            }
        }
    }

    /// The cold two-phase solve a failed warm one falls back to, charged
    /// the `spent` pivots of the attempt.
    fn cold(&mut self, spent: usize) -> LpResult<LpSolution> {
        let mut sol = self.solve_inner()?;
        sol.iterations += spent;
        Ok(sol)
    }

    /// Computes the Farkas witness `w = ±B⁻ᵀe_row` from the host mirror
    /// (best-effort: `None` on a singular basis snapshot).
    fn dual_ray(&self, basis: &Basis, row: usize, below: bool) -> Option<Vec<f64>> {
        let m = self.total_rows();
        let mut bmat = DenseMatrix::zeros(m, m);
        for (i, &j) in basis.cols.iter().enumerate() {
            for r in 0..m {
                bmat.set(r, i, self.mirror.get(r, j));
            }
        }
        let lu = gmip_linalg::LuFactors::factorize(&bmat).ok()?;
        let mut e_r = vec![0.0; m];
        e_r[row] = 1.0;
        let rho = lu.solve_transposed(&e_r).ok()?;
        Some(if below {
            rho
        } else {
            rho.iter().map(|v| -v).collect()
        })
    }

    fn finish(
        &mut self,
        basis: Basis,
        outcome: PrimalOutcome,
        iterations: usize,
    ) -> LpResult<LpSolution> {
        let view = ProblemView {
            c: &self.c_real,
            lb: &self.lb,
            ub: &self.ub,
            b: &self.b,
        };
        let solution = match outcome {
            PrimalOutcome::Unbounded { .. } => LpSolution {
                status: LpStatus::Unbounded,
                objective: f64::NAN,
                x: Vec::new(),
                iterations,
            },
            PrimalOutcome::Optimal => {
                let x_full = assemble_point(&mut self.engine, view, &basis)?;
                let x: Vec<f64> = x_full[..self.std.n_structural].to_vec();
                let objective = self.std.source_objective(&x);
                LpSolution {
                    status: LpStatus::Optimal,
                    objective,
                    x,
                    iterations,
                }
            }
        };
        self.basis = Some(basis);
        Ok(solution)
    }
}

/// Convenience: solves an instance's LP relaxation on the host engine.
pub fn solve_relaxation_host(
    mip: &gmip_problems::MipInstance,
    bound_changes: &[BoundChange],
) -> LpResult<LpSolution> {
    let std = StandardLp::from_instance(mip, bound_changes);
    let mut solver = LpSolver::new(std, LpConfig::standard(), |a| {
        crate::engine::HostEngine::new(a.clone())
    });
    solver.solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HostEngine;
    use gmip_problems::catalog::{
        infeasible_instance, textbook_lp, textbook_mip, unbounded_instance,
    };
    use gmip_problems::generators::{knapsack, set_cover, unit_commitment};
    use gmip_problems::{Constraint, MipInstance, Objective, Sense, Variable};

    fn host_solver(std: StandardLp) -> LpSolver<HostEngine> {
        LpSolver::new(std, LpConfig::standard(), |a| HostEngine::new(a.clone()))
    }

    #[test]
    fn textbook_lp_solves_to_21() {
        let sol = solve_relaxation_host(&textbook_lp(), &[]).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective - 21.0).abs() < 1e-7,
            "obj = {}",
            sol.objective
        );
        assert!((sol.x[0] - 3.0).abs() < 1e-7);
        assert!((sol.x[1] - 1.5).abs() < 1e-7);
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let sol = solve_relaxation_host(&infeasible_instance(), &[]).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
        let sol = solve_relaxation_host(&unbounded_instance(), &[]).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn knapsack_relaxation_bounds_brute_force() {
        use gmip_problems::generators::knapsack::knapsack_brute_force;
        for seed in 0..5 {
            let m = knapsack(12, 0.5, seed);
            let lp = solve_relaxation_host(&m, &[]).unwrap();
            assert_eq!(lp.status, LpStatus::Optimal, "seed {seed}");
            let best_int = knapsack_brute_force(&m);
            assert!(
                lp.objective >= best_int - 1e-7,
                "LP bound {} below integer optimum {} (seed {seed})",
                lp.objective,
                best_int
            );
            // LP relaxation of a knapsack has at most one fractional var, and
            // its value is the greedy bound — sanity: within the total value.
            assert!(lp.objective <= m.obj_coeffs().iter().sum::<f64>() + 1e-9);
        }
    }

    #[test]
    fn minimize_problem_reports_source_objective() {
        let m = set_cover(6, 5, 0.5, 3);
        let lp = solve_relaxation_host(&m, &[]).unwrap();
        assert_eq!(lp.status, LpStatus::Optimal);
        // A cover's LP bound is positive and at most the all-ones cost.
        let all_cost: f64 = m.obj_coeffs().iter().sum();
        assert!(lp.objective > 0.0);
        assert!(lp.objective <= all_cost + 1e-9);
    }

    #[test]
    fn mixed_instance_with_equalities() {
        // Unit commitment has only inequalities; build an Eq-row case via GAP.
        let m = gmip_problems::generators::generalized_assignment(2, 3, 5);
        let lp = solve_relaxation_host(&m, &[]).unwrap();
        assert_eq!(lp.status, LpStatus::Optimal);
        // Relaxation bound at least the best integer assignment's profit:
        // crude lower bound — any feasible fractional has obj ≤ LP bound.
        assert!(lp.objective > 0.0);
    }

    #[test]
    fn bound_changes_shrink_objective() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut solver = host_solver(std);
        let base = solver.solve().unwrap();
        solver.set_var_bounds(0, 0.0, 2.0).unwrap();
        let tightened = solver.resolve().unwrap();
        assert_eq!(tightened.status, LpStatus::Optimal);
        assert!(tightened.objective < base.objective);
        assert!((tightened.x[0] - 2.0).abs() < 1e-7);
        // Restore: objective returns.
        solver.apply_node_bounds(&[]).unwrap();
        let restored = solver.resolve().unwrap();
        assert!((restored.objective - base.objective).abs() < 1e-6);
    }

    #[test]
    fn warm_resolve_cheaper_than_scratch() {
        let m = unit_commitment(3, 3, 7);
        let std = StandardLp::from_instance(&m, &[]);
        let mut solver = host_solver(std.clone());
        let first = solver.solve().unwrap();
        assert_eq!(first.status, LpStatus::Optimal);
        // Tighten one binary to 1 (branch up) and re-solve warm.
        solver
            .apply_node_bounds(&[BoundChange {
                var: 0,
                lb: 1.0,
                ub: 1.0,
            }])
            .unwrap();
        let warm = solver.resolve().unwrap();
        assert_eq!(warm.status, LpStatus::Optimal);
        // From-scratch comparison.
        let mut fresh = host_solver(StandardLp::from_instance(
            &m,
            &[BoundChange {
                var: 0,
                lb: 1.0,
                ub: 1.0,
            }],
        ));
        let scratch = fresh.solve().unwrap();
        assert!((warm.objective - scratch.objective).abs() < 1e-6);
        assert!(
            warm.iterations <= scratch.iterations,
            "warm {} vs scratch {}",
            warm.iterations,
            scratch.iterations
        );
    }

    #[test]
    fn cuts_tighten_the_relaxation() {
        // Textbook MIP: LP optimum 21 at (3, 1.5). The cut x1 ≤ 1 is valid
        // for the integer hull side we care about… use a simple valid cut:
        // x0 + x1 ≤ 4 (holds at integer optimum (4,0)? 4+0=4 ✓; cuts off
        // (3,1.5) with 4.5 > 4).
        let std = StandardLp::from_instance(&textbook_mip(), &[]);
        let mut solver = host_solver(std);
        let base = solver.solve().unwrap();
        assert!((base.objective - 21.0).abs() < 1e-6);
        solver.add_cut(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        let cutted = solver.resolve().unwrap();
        assert_eq!(cutted.status, LpStatus::Optimal);
        assert!(cutted.objective < base.objective - 1e-6);
        // The cut must hold.
        assert!(cutted.x[0] + cutted.x[1] <= 4.0 + 1e-7);
    }

    #[test]
    fn cut_then_scratch_solve_also_works() {
        let std = StandardLp::from_instance(&textbook_mip(), &[]);
        let mut solver = host_solver(std);
        solver.add_cut(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        let sol = solver.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.x[0] + sol.x[1] <= 4.0 + 1e-7);
    }

    /// A cut slack that starts violated is relaxed for phase 1, not pinned
    /// to its relaxed side: here the one feasible point has the cut slack at
    /// 3, and a phase 1 that never lets it above 0 calls the LP infeasible.
    #[test]
    fn an_initially_violated_cut_may_end_slack() {
        use gmip_problems::{Constraint, MipInstance, Objective, Sense, Variable};
        let mut m = MipInstance::new("pinned", Objective::Maximize);
        m.add_var(Variable::continuous("x", 0.0, 10.0, 1.0));
        m.add_con(Constraint::new("fix", vec![(0, 1.0)], Sense::Eq, 5.0));
        let mut solver = host_solver(StandardLp::from_instance(&m, &[]));
        // x ≥ 2 in ≤ form: violated at x = 0, where the cold solve starts.
        solver.add_cut(&[(0, -1.0)], -2.0).unwrap();
        let sol = solver.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.x[0] - 5.0).abs() < 1e-9, "x = {:?}", sol.x);
        // A cut nothing can satisfy is still infeasible.
        solver.add_cut(&[(0, -1.0)], -6.0).unwrap();
        assert_eq!(solver.solve().unwrap().status, LpStatus::Infeasible);
    }

    #[test]
    fn infeasible_after_branching() {
        let std = StandardLp::from_instance(&textbook_mip(), &[]);
        let mut solver = host_solver(std);
        solver.solve().unwrap();
        // x0 ≥ 5 conflicts with 6x0 ≤ 24.
        solver
            .apply_node_bounds(&[BoundChange {
                var: 0,
                lb: 5.0,
                ub: 10.0,
            }])
            .unwrap();
        let sol = solver.resolve().unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn dual_prices_satisfy_strong_duality() {
        // Textbook LP: max 5x+4y, 6x+4y ≤ 24, x+2y ≤ 6 → primal 21 at
        // (3, 1.5); duals y = (0.75, 0.5) (bᵀy = 24·0.75 + 6·0.5 = 21).
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut lp = host_solver(std);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        let y = lp.dual_prices_internal().unwrap();
        assert_eq!(y.len(), 2);
        assert!((y[0] - 0.75).abs() < 1e-7, "y = {y:?}");
        assert!((y[1] - 0.5).abs() < 1e-7);
        // Strong duality: bᵀy == primal objective.
        let by: f64 = lp.rhs().iter().zip(&y).map(|(b, yi)| b * yi).sum();
        assert!((by - sol.objective).abs() < 1e-7);
        // Unsolved solver refuses.
        let std2 = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut fresh = host_solver(std2);
        assert!(fresh.dual_prices_internal().is_err());
    }

    #[test]
    fn dual_prices_agree_across_engines() {
        use crate::device_engine::DeviceEngine;
        use gmip_gpu::Accel;
        let m = set_cover(8, 8, 0.4, 6);
        let std = StandardLp::from_instance(&m, &[]);
        let mut host = host_solver(std.clone());
        host.solve().unwrap();
        let hy = host.dual_prices_internal().unwrap();
        let accel = Accel::gpu(1);
        let mut dev = LpSolver::new(std, LpConfig::standard(), |a| {
            DeviceEngine::new(accel.clone(), a).unwrap()
        });
        dev.solve().unwrap();
        let dy = dev.dual_prices_internal().unwrap();
        for (a, b) in hy.iter().zip(&dy) {
            assert!((a - b).abs() < 1e-9, "host {hy:?} vs device {dy:?}");
        }
    }

    #[test]
    fn devex_pricing_matches_dantzig_and_cuts_iterations() {
        use crate::simplex::PricingRule;
        use gmip_problems::generators::set_cover;
        // Degenerate covering LP: Devex should need no more (and usually far
        // fewer) iterations than Dantzig, at the same optimum.
        let m = set_cover(40, 40, 0.15, 3);
        let std = StandardLp::from_instance(&m, &[]);
        let run = |rule: PricingRule| {
            let mut cfg = LpConfig::standard();
            cfg.primal.pricing = rule;
            let mut lp = LpSolver::new(std.clone(), cfg, |a| HostEngine::new(a.clone()));
            lp.solve().unwrap()
        };
        let dantzig = run(PricingRule::Dantzig);
        let devex = run(PricingRule::Devex);
        assert_eq!(dantzig.status, LpStatus::Optimal);
        assert_eq!(devex.status, LpStatus::Optimal);
        assert!(
            (dantzig.objective - devex.objective).abs() < 1e-6,
            "dantzig {} vs devex {}",
            dantzig.objective,
            devex.objective
        );
        assert!(
            devex.iterations <= dantzig.iterations,
            "devex {} vs dantzig {} iterations",
            devex.iterations,
            dantzig.iterations
        );
    }

    #[test]
    fn devex_engines_agree() {
        use crate::device_engine::DeviceEngine;
        use crate::device_engine::SparseDeviceEngine;
        use crate::simplex::PricingRule;
        use gmip_gpu::Accel;
        let m = gmip_problems::generators::set_cover(12, 12, 0.3, 9);
        let std = StandardLp::from_instance(&m, &[]);
        let mut cfg = LpConfig::standard();
        cfg.primal.pricing = PricingRule::Devex;
        let mut host = LpSolver::new(std.clone(), cfg.clone(), |a| HostEngine::new(a.clone()));
        let hs = host.solve().unwrap();
        let acc = Accel::gpu(1);
        let mut dev = LpSolver::new(std.clone(), cfg.clone(), |a| {
            DeviceEngine::new(acc.clone(), a).unwrap()
        });
        let ds = dev.solve().unwrap();
        let acc2 = Accel::gpu(1);
        let mut sp = LpSolver::new(std, cfg, |a| {
            SparseDeviceEngine::new(acc2.clone(), a).unwrap()
        });
        let ss = sp.solve().unwrap();
        assert_eq!(hs.status, ds.status);
        assert_eq!(hs.status, ss.status);
        assert_eq!(hs.iterations, ds.iterations, "host vs dense device");
        assert_eq!(hs.iterations, ss.iterations, "host vs sparse device");
        assert!((hs.objective - ds.objective).abs() < 1e-8);
        assert!((hs.objective - ss.objective).abs() < 1e-8);
    }

    #[test]
    fn solver_metrics_count_solves_and_iterations() {
        use gmip_trace::names;
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut solver = host_solver(std);
        let first = solver.solve().unwrap();
        assert!(first.iterations > 0);
        let m = solver.metrics();
        assert_eq!(m.counter(names::LP_SOLVES), 1.0);
        assert_eq!(m.counter(names::LP_ITERATIONS), first.iterations as f64);
        let h = m.histogram(names::LP_ITERATIONS_PER_SOLVE).unwrap();
        assert_eq!(h.count, 1);
        // A warm re-solve lands in the resolve counter, not the solve one.
        solver.set_var_bounds(0, 0.0, 2.0).unwrap();
        solver.resolve().unwrap();
        let m = solver.metrics();
        assert_eq!(m.counter(names::LP_SOLVES), 1.0);
        assert_eq!(m.counter(names::LP_RESOLVES), 1.0);
        // Draining resets the window.
        let drained = solver.take_metrics();
        assert_eq!(drained.counter(names::LP_RESOLVES), 1.0);
        assert!(solver.metrics().is_empty());
    }

    #[test]
    fn solve_node_warm_starts_on_shape_and_degrades_off_it() {
        let m = unit_commitment(3, 3, 7);
        let up = [BoundChange {
            var: 0,
            lb: 1.0,
            ub: 1.0,
        }];
        let mut by_hand = host_solver(StandardLp::from_instance(&m, &[]));
        let mut by_node = host_solver(StandardLp::from_instance(&m, &[]));
        let (root, parent) = by_node.solve_node(&[], None).unwrap();
        assert_eq!(root.iterations, by_hand.solve().unwrap().iterations);
        let parent = parent.expect("a solved node hands back its basis");
        // On shape: the pivots of `set_warm_basis` + `resolve`.
        by_hand.apply_node_bounds(&up).unwrap();
        by_hand.set_warm_basis(parent.clone()).unwrap();
        let reference = by_hand.resolve().unwrap();
        let (warm, _) = by_node.solve_node(&up, Some(parent.clone())).unwrap();
        assert_eq!(
            (warm.iterations, warm.objective.to_bits()),
            (reference.iterations, reference.objective.to_bits())
        );
        assert_eq!(by_node.metrics().counter(names::LP_RESOLVES), 1.0);
        // Off shape (a cut row was added since): a cold solve, not an error.
        by_node.add_cut(&[(0, 1.0), (1, 1.0)], 2.0).unwrap();
        let (cold, basis) = by_node.solve_node(&up, Some(parent)).unwrap();
        assert_eq!(cold.status, LpStatus::Optimal);
        assert_eq!(by_node.metrics().counter(names::LP_SOLVES), 2.0);
        assert!(by_node.fits(&basis.unwrap()));
    }

    /// max x + y over x + y ≤ 4, 2x + 2y ≤ 6: the two structural columns
    /// are equal, so a warm basis holding both is singular.
    #[test]
    fn singular_warm_basis_resolves_cold() {
        let mut m = MipInstance::new("twins", Objective::Maximize);
        m.add_var(Variable::continuous("x", 0.0, 10.0, 1.0));
        m.add_var(Variable::continuous("y", 0.0, 10.0, 1.0));
        for (name, k, rhs) in [("c0", 1.0, 4.0), ("c1", 2.0, 6.0)] {
            m.add_con(Constraint::new(name, vec![(0, k), (1, k)], Sense::Le, rhs));
        }
        let std = StandardLp::from_instance(&m, &[]);
        let cold = host_solver(std.clone()).solve().unwrap();
        assert_eq!((cold.status, cold.objective), (LpStatus::Optimal, 3.0));
        let mut solver = host_solver(std);
        let n = solver.matrix().cols();
        solver
            .set_warm_basis(Basis::with_basic_cols(vec![0, 1], n))
            .unwrap();
        let warm = solver.resolve().unwrap();
        assert_eq!(
            (warm.status, warm.objective.to_bits()),
            (LpStatus::Optimal, cold.objective.to_bits())
        );
    }

    /// A host engine whose first install after a pivot fails as singular:
    /// the re-install that follows a warm re-solve's dual pivots.
    struct ReinstallFails {
        inner: HostEngine,
        pivoted: bool,
        armed: bool,
    }

    impl SimplexEngine for ReinstallFails {
        fn m(&self) -> usize {
            self.inner.m()
        }
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn install(&mut self, view: ProblemView<'_>, basis: &Basis) -> LpResult<()> {
            if std::mem::take(&mut self.pivoted) && std::mem::take(&mut self.armed) {
                return Err(LpError::Numerics(LinalgError::Singular { column: 0 }));
            }
            self.inner.install(view, basis)
        }
        fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
            self.inner.append_cut(row, col)
        }
        fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
            self.inner.price()
        }
        fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
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
        fn apply_pivot(&mut self, plan: &crate::engine::PivotPlan) -> LpResult<()> {
            self.pivoted = true;
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
        fn dual_ratio(&mut self, below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
            self.inner.dual_ratio(below, tol)
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

    /// A warm re-solve whose re-install turns singular after `k ≥ 1` dual
    /// pivots re-solves cold and is charged those pivots on top of the cold
    /// solve's, in its iterations and in `lp.simplex.iterations` alike.
    #[test]
    fn a_failed_warm_resolve_charges_every_pivot_it_made() {
        let m = unit_commitment(3, 3, 7);
        let branch = [BoundChange {
            var: 0,
            lb: 1.0,
            ub: 1.0,
        }];
        let std = StandardLp::from_instance(&m, &[]);
        // The warm attempt's dual pivots, and the cold solve it falls back to.
        let mut host = host_solver(std.clone());
        host.solve().unwrap();
        host.apply_node_bounds(&branch).unwrap();
        let dual = host.cfg.dual.clone();
        let view = ProblemView {
            c: &host.c_real,
            lb: &host.lb,
            ub: &host.ub,
            b: &host.b,
        };
        let mut basis = host.basis.clone().unwrap();
        let k = crate::dual::dual_solve(&mut host.engine, view, &mut basis, &dual)
            .unwrap()
            .1;
        assert!(k >= 1, "{k} dual pivots");
        let cold = host.solve().unwrap();

        let mut failing = LpSolver::new(std, LpConfig::standard(), |a| ReinstallFails {
            inner: HostEngine::new(a.clone()),
            pivoted: false,
            armed: false,
        });
        failing.solve().unwrap();
        failing.apply_node_bounds(&branch).unwrap();
        let engine = failing.engine_mut();
        (engine.pivoted, engine.armed) = (false, true);
        let before = failing.metrics().counter(names::LP_ITERATIONS);
        let sol = failing.resolve().unwrap();
        assert!(!failing.engine().armed, "the re-install never failed");
        assert_eq!(sol.iterations, cold.iterations + k);
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        let charged = failing.metrics().counter(names::LP_ITERATIONS) - before;
        assert_eq!(charged, sol.iterations as f64);
    }

    #[test]
    fn warm_basis_shape_check() {
        let std = StandardLp::from_instance(&textbook_lp(), &[]);
        let mut solver = host_solver(std);
        let bad = Basis::with_basic_cols(vec![0], 2);
        assert!(solver.set_warm_basis(bad).is_err());
    }
}
