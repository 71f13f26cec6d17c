//! Golden pins for the *modelled* device ledger under the simplex engines.
//!
//! Recorded at `ccf9fe5`, the last commit where every kernel result of
//! `DeviceSimplex` was a device object of its own, created and freed per
//! call. The resident workspace that replaced them is a host economy only:
//! `DeviceMemory` must see the same `alloc` / `free` amounts in the same
//! order, so the memory high-water mark, the allocation count, the launch
//! and transfer counters and every simulated nanosecond stay where they
//! were, and an engine still leaves `mem_used() == 0` behind when dropped.
//!
//! Re-recorded at the commit that packed the link (the child of `93186d6`):
//! an install uploads its eight vectors in one staged transfer, a pivot's
//! scalar stores are arguments of its step kernel, and every engine call is
//! held to at most one link crossing per direction ([`LinkChecked`]). What
//! moved is what that rule is about — transfer counts, H2D bytes (8 per
//! former scalar store) and the clock; peak bytes, allocation counts,
//! launches, D2H bytes, iterations and optima are those of `ccf9fe5`.
//!
//! Re-recorded again at the commit that packed the launch queue (the child
//! of `6288956`): every engine call is one launch chain, held to at most one
//! kernel launch by the same wrapper, and a device has one launch-issue
//! queue however many streams. What moved is launches and the clock (and,
//! in the cluster, the last bit of a transfer-time sum taken in another
//! order); peak bytes, allocation counts, transfers, bytes, iterations and
//! optima are still those of `ccf9fe5`.
//!
//! Re-recorded a third time at the commit that made a pivot one round trip
//! (the child of `31a28fd`): the drivers call the pivot-shaped `select` /
//! `apply` methods, each one launch chain whose read-backs are staged into
//! one transfer. What moved is launches, the D2H transfer *count* and the
//! clock; peak bytes, allocation counts, H2D transfers, bytes in both
//! directions, iterations and optima are still those of `ccf9fe5`.
//!
//! Re-recorded a fourth time at the commit that submits a launch chain where
//! the host reads (the child of `1e998ad`): a chain that reads nothing back
//! is held and the next one on its stream continues it, and a terminal
//! select carries `x_B` home. What moved is launches, the D2H transfer
//! count, the clock and, under Devex, D2H bytes (the weight update gathers
//! its two scalars on the device); peak bytes, allocation counts, H2D
//! transfers and bytes, iterations and optima did not.
//!
//! Re-recorded a fifth time at the commit that keeps an install's vectors
//! resident (the child of `3533cee`): an install ships only the entries
//! that differ from what the device holds, as arguments of its first kernel
//! when they fit, and γ ← 1 is a fill kernel. What moved is H2D transfers
//! and bytes, modelled memory (`x_N` stays resident) and the clock — and in
//! the four-rank cluster, whose ranks trade work on that clock, the search;
//! launches, D2H, iterations and optima of the single engines did not.
//!
//! Re-recorded a sixth time at the commit that runs the dual loop on the
//! device (the child of `dba25c3`): a dual phase is one call, one chain and
//! one staged read-back, each device-side iteration after the first a
//! relaunch, and the full `l` and `u` join the resident record. What moved
//! is the D2H transfer count, H2D bytes (`8(5n + 4m)` per upload), modelled
//! memory (two more resident vectors) and the clock; launches, D2H bytes,
//! iterations and optima did not.
//!
//! Re-recorded a seventh time at the commit that makes a node LP one
//! submission (the child of `5052941`): a warm re-solve's dual run, the
//! re-install and the polish are one chain and one read-back, and a primal
//! run is one chain. What moved is launches, the D2H transfer count and the
//! clock (and, in the four-rank cluster, the transfer and kernel time sums);
//! peak bytes, allocation counts, H2D transfers and bytes, D2H bytes,
//! iterations and optima did not.

use gmip::core::{solve_concurrent, WaveConfig};
use gmip::gpu::{Accel, CostModel, DeviceConfig};
use gmip::linalg::DenseMatrix;
use gmip::lp::dual::DualConfig;
use gmip::lp::dual::DualOutcome;
use gmip::lp::engine::{PivotPlan, PrimalRun, Progress};
use gmip::lp::{
    Basis, BatchedWaveEngine, BoundChange, DeviceEngine, LpConfig, LpResult, LpSolution, LpSolver,
    LpStatus, PricingRule, PrimalConfig, ProblemView, RecordingEngine, SimplexEngine,
    SparseDeviceEngine, StandardLp, WaveOp,
};
use gmip::parallel::{solve_parallel, ParallelConfig};
use gmip::problems::generators::{bin_packing, knapsack};

fn gpu() -> Accel {
    Accel::gpu_with(DeviceConfig {
        cost: CostModel::gpu_pcie(),
        mem_capacity: 1 << 30,
        streams: 1,
    })
}

/// The whole ledger of one device: modelled memory and every `gpu.*` total.
fn ledger_pin(accel: &Accel) -> String {
    let s = accel.stats();
    let (peak, allocations) = accel.with(|d| (d.memory().peak(), d.memory().allocation_count()));
    assert_eq!(
        accel.metrics().gauge("gpu.mem.peak_bytes"),
        peak as f64,
        "the peak gauge and the allocator's high-water mark are one number"
    );
    format!(
        "peak={peak} allocs={allocations} used={} launches={} h2d={}/{} d2h={}/{} ns={:016x}",
        accel.mem_used(),
        s.kernel_launches,
        s.h2d_transfers,
        s.h2d_bytes,
        s.d2h_transfers,
        s.d2h_bytes,
        accel.elapsed_ns().to_bits(),
    )
}

/// What one call moved on the device's ledger.
struct Grew {
    /// Link crossings, `[H2D, D2H]`.
    link: [u64; 2],
    h2d_bytes: u64,
    launches: u64,
    /// Whether a kernel ran: launched, or continuing a held chain.
    kernels: bool,
}

/// Runs `f` and returns it with what it moved — having asserted the link
/// rule: at most one crossing in each direction.
fn crossing<R>(accel: &Accel, what: &str, f: impl FnOnce() -> R) -> (R, Grew) {
    let before = accel.stats();
    let out = f();
    let after = accel.stats();
    let grew = Grew {
        link: [
            after.h2d_transfers - before.h2d_transfers,
            after.d2h_transfers - before.d2h_transfers,
        ],
        h2d_bytes: after.h2d_bytes - before.h2d_bytes,
        launches: after.kernel_launches - before.kernel_launches,
        kernels: after.kernel_ns > before.kernel_ns,
    };
    assert!(
        grew.link[0] <= 1 && grew.link[1] <= 1,
        "{what} crossed the link {:?} times [H2D, D2H]",
        grew.link
    );
    (out, grew)
}

/// The link and launch rules, asserted where they can be broken: a
/// [`SimplexEngine`] that forwards to `inner` and checks around *every*
/// trait call that the call crossed the link at most once in each direction
/// and launched at most once — and launched exactly when it ran a kernel
/// and no launch chain was held for it: a chain that reads nothing back is
/// held, and the next one continues it. An install is at most one upload,
/// of `8(5n + 4m)` bytes: exactly one for the engine's first install and the
/// first after a cut, none when what it changes of the vectors the device
/// holds rides its first kernel as arguments. A primal or a dual run is
/// exactly one read-back however many iterations it makes, and relaunches
/// once per device-side iteration after its first; a dual run that goes on
/// into the polish counts the polish's selects after the first among them,
/// the first riding the dual run's last iteration. `basic_values` after a
/// terminal select crosses nothing at all; a bound flip or a pivot a
/// Bland iteration applies crosses nothing (so it is held). Per solve
/// ([`LinkChecked::solved`]) the chain launches are the chains that read
/// back, plus one if the solve ends on a held chain (less one if it began on
/// one), and a warm re-solve reads back exactly once. The run-shaped calls
/// are forwarded as such, so the drivers reach `inner`'s overrides — and
/// never gather a pivot entry.
struct LinkChecked<E> {
    inner: E,
    accel: Accel,
    /// Steps checked: installs, cuts, selects, pivots + flips, and the
    /// iterations priced by Devex.
    seen: [usize; 5],
    /// Installs that uploaded, and whether the next one must (nothing, or
    /// a matrix of another shape, is resident).
    uploads: usize,
    fresh: bool,
    /// Whether the engine's last chain is held: it launched, and nothing
    /// has read back since.
    held: bool,
    /// Whether the last call was a select that ended the solve.
    terminal: bool,
    /// Whether the current solve began on a held chain.
    began_held: bool,
    /// The current solve's launches, and its calls that read back what a
    /// launch ran.
    solve: [u64; 2],
}

impl<E: SimplexEngine> LinkChecked<E> {
    fn new(inner: E, accel: Accel) -> Self {
        Self {
            inner,
            accel,
            seen: [0; 5],
            uploads: 0,
            fresh: true,
            held: false,
            terminal: false,
            began_held: false,
            solve: [0; 2],
        }
    }

    fn call<R>(&mut self, what: &str, f: impl FnOnce(&mut E) -> R) -> (R, Grew) {
        self.relaunching(what, f, |_| 0)
    }

    /// [`call`](Self::call) for a call that runs a loop on the device:
    /// besides its chain's launch it relaunches as often as `relaunches`
    /// reads off its result, once per device-side iteration after the
    /// first.
    fn relaunching<R>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut E) -> R,
        relaunches: impl FnOnce(&R) -> u64,
    ) -> (R, Grew) {
        let inner = &mut self.inner;
        let (out, grew) = crossing(&self.accel, what, || f(inner));
        let launched = grew.kernels && !self.held;
        let relaunched = relaunches(&out);
        assert_eq!(
            grew.launches,
            u64::from(launched) + relaunched,
            "{what}: ran kernels {}, chain held {}, relaunched {relaunched}",
            grew.kernels,
            self.held
        );
        let ran = self.held || grew.kernels;
        self.solve[0] += grew.launches - relaunched;
        self.solve[1] += u64::from(ran && grew.link[1] > 0);
        self.held = ran && grew.link[1] == 0;
        self.terminal = false;
        (out, grew)
    }

    fn checked<R>(&mut self, what: &str, f: impl FnOnce(&mut E) -> R) -> R {
        self.call(what, f).0
    }

    /// A call that runs a kernel; an error (a refused argument, a singular
    /// basis) may have run none.
    fn kernel<R>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut E) -> LpResult<R>,
    ) -> (LpResult<R>, Grew) {
        let (out, grew) = self.call(what, f);
        if out.is_ok() {
            assert!(grew.kernels, "{what}: no kernel ran");
        }
        (out, grew)
    }

    fn launched<R>(&mut self, what: &str, f: impl FnOnce(&mut E) -> LpResult<R>) -> LpResult<R> {
        self.kernel(what, f).0
    }

    /// Kernels whose scalars ride as arguments: no crossing at all.
    fn on_device<R>(&mut self, what: &str, f: impl FnOnce(&mut E) -> LpResult<R>) -> LpResult<R> {
        self.round_trip(what, 0, f)
    }

    /// Kernels and exactly `back` staged read-backs of what they found; an
    /// error may have ended the chain before either.
    fn round_trip<R>(
        &mut self,
        what: &str,
        back: u64,
        f: impl FnOnce(&mut E) -> LpResult<R>,
    ) -> LpResult<R> {
        let (out, grew) = self.kernel(what, f);
        if out.is_ok() {
            assert_eq!(grew.link, [0, back], "{what}: crossings [H2D, D2H]");
        }
        out
    }

    /// Closes the books on one solve: its launches are its chains that read
    /// back, plus one if it ends on a held chain, less one if it began on
    /// one (a cut appended since the last solve). Returns its read-backs.
    fn solved(&mut self) -> u64 {
        let [launches, read_back] = std::mem::take(&mut self.solve);
        assert_eq!(
            launches + u64::from(self.began_held),
            read_back + u64::from(self.held),
            "a solve's launches against its read-backs"
        );
        self.began_held = self.held;
        read_back
    }
}

impl<E: SimplexEngine> SimplexEngine for LinkChecked<E> {
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
        let (m, n) = (self.m(), self.n());
        let (out, grew) = self.kernel("install", |e| e.install(view, basis));
        out?;
        assert_eq!(grew.link[1], 0, "install: nothing back");
        let uploaded = grew.link[0] == 1;
        assert!(
            uploaded || !self.fresh,
            "install: nothing resident to change"
        );
        let payload = if uploaded { 8 * (5 * n + 4 * m) } else { 0 };
        assert_eq!(grew.h2d_bytes, payload as u64, "install payload");
        self.seen[0] += 1;
        self.uploads += usize::from(uploaded);
        self.fresh = false;
        Ok(())
    }
    fn append_cut(&mut self, row: &[f64], col: &[f64]) -> LpResult<()> {
        self.seen[1] += 1;
        self.fresh = true;
        self.checked("append_cut", |e| e.append_cut(row, col))
    }
    fn price(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.launched("price", |e| e.price())
    }
    fn reduced_costs_host(&mut self) -> LpResult<Vec<f64>> {
        self.checked("reduced_costs_host", |e| e.reduced_costs_host())
    }
    fn ftran_column(&mut self, q: usize) -> LpResult<()> {
        self.on_device("ftran_column", |e| e.ftran_column(q))
    }
    fn ratio_test(&mut self, dir: f64, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.checked("ratio_test", |e| e.ratio_test(dir, tol))
    }
    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, new_sigma: f64) -> LpResult<()> {
        self.seen[3] += 1;
        self.on_device("apply_flip", |e| e.apply_flip(q, dir, t, new_sigma))
    }
    fn apply_pivot(&mut self, plan: &PivotPlan) -> LpResult<()> {
        self.on_device("apply_pivot", |e| e.apply_pivot(plan))
    }
    fn basic_values(&mut self) -> LpResult<Vec<f64>> {
        let staged = self.terminal;
        let (out, grew) = self.call("basic_values", |e| e.basic_values());
        assert!(!grew.kernels, "basic_values ran a kernel");
        if staged {
            assert_eq!(
                grew.link,
                [0, 0],
                "basic_values after a terminal select crossed"
            );
        }
        out
    }
    fn basic_entry(&mut self, _: usize) -> LpResult<f64> {
        unreachable!("a driver gathered x_B[r]: that is the select's to read back")
    }
    fn primal_infeas(&mut self, tol: f64) -> LpResult<Option<(usize, f64, bool)>> {
        self.checked("primal_infeas", |e| e.primal_infeas(tol))
    }
    fn btran_row(&mut self, r: usize) -> LpResult<()> {
        self.on_device("btran_row", |e| e.btran_row(r))
    }
    fn dual_ratio(&mut self, leaving_below: bool, tol: f64) -> LpResult<Option<(usize, f64)>> {
        self.launched("dual_ratio", |e| e.dual_ratio(leaving_below, tol))
    }
    fn alpha_r_entry(&mut self, _: usize) -> LpResult<f64> {
        unreachable!("a driver gathered α_r[q]: that is the select's to read back")
    }
    fn btran_row_host(&mut self, r: usize) -> LpResult<Vec<f64>> {
        self.checked("btran_row_host", |e| e.btran_row_host(r))
    }
    fn dual_prices(&mut self) -> LpResult<Vec<f64>> {
        self.checked("dual_prices", |e| e.dual_prices())
    }
    fn price_devex(&mut self) -> LpResult<Option<(usize, f64)>> {
        self.checked("price_devex", |e| e.price_devex())
    }
    fn devex_update(&mut self, q: usize, leaving_j: usize) -> LpResult<()> {
        self.checked("devex_update", |e| e.devex_update(q, leaving_j))
    }
    fn primal_run(
        &mut self,
        view: ProblemView<'_>,
        basis: &mut Basis,
        cfg: &PrimalConfig,
        run: &mut PrimalRun,
    ) -> LpResult<()> {
        let from = *run;
        let ((out, to), grew) = self.relaunching(
            "primal_run",
            |e| (e.primal_run(view, basis, cfg, run), *run),
            |(out, to)| out.as_ref().map_or(0, |()| selects(from, *to) - 1),
        );
        if out.is_ok() {
            assert!(grew.kernels, "primal_run: no kernel ran");
            assert_eq!(grew.link, [0, 1], "primal_run: crossings [H2D, D2H]");
            self.ran(from, to, cfg);
        }
        out
    }
    fn dual_run(
        &mut self,
        view: ProblemView<'_>,
        basis: &mut Basis,
        cfg: &DualConfig,
        polish: Option<&PrimalConfig>,
        at: &mut Progress,
    ) -> LpResult<Option<DualOutcome>> {
        let from = *at;
        // The device iterates once per dual pivot, once more if the run
        // ended the dual phase, and once per polish select after the
        // first, which rides the dual phase's last iteration.
        let iterations = |end: &Option<DualOutcome>, at: &Progress| {
            let polish = at.polish.filter(|_| from.polish.is_none());
            let polish = polish.map_or(0, |run| selects(PrimalRun::default(), run) - 1);
            (at.dual - from.dual + usize::from(end.is_some())) as u64 + polish
        };
        let ((out, at_end), grew) = self.relaunching(
            "dual_run",
            |e| (e.dual_run(view, basis, cfg, polish, at), *at),
            |(out, at)| out.as_ref().map_or(0, |end| iterations(end, at) - 1),
        );
        let at = at_end;
        if let Ok(end) = out {
            assert!(grew.kernels, "dual_run: no kernel ran");
            assert_eq!(grew.link, [0, 1], "dual_run: crossings [H2D, D2H]");
            self.seen[2] += at.dual - from.dual + usize::from(end.is_some());
            self.seen[3] += at.dual - from.dual;
            if let (None, Some(run), Some(cfg)) = (from.polish, at.polish, polish) {
                self.ran(PrimalRun::default(), run, cfg);
            }
        }
        out
    }
}

/// The selects a primal run made going from `from` to `to`: one per
/// iteration, and one more if it ended the solve.
fn selects(from: PrimalRun, to: PrimalRun) -> u64 {
    (to.iters - from.iters + usize::from(to.outcome.is_some())) as u64
}

impl<E> LinkChecked<E> {
    /// Books a primal run from `from` to `to`: its selects and iterations,
    /// the iterations Devex priced, and whether its terminal select left
    /// `x_B` staged for the `basic_values` that follows.
    fn ran(&mut self, from: PrimalRun, to: PrimalRun, cfg: &PrimalConfig) {
        self.seen[2] += selects(from, to) as usize;
        self.seen[3] += to.iters - from.iters;
        if cfg.pricing == PricingRule::Devex {
            self.seen[4] += to.iters - from.iters;
        }
        self.terminal = to.outcome == Some(gmip::lp::simplex::PrimalOutcome::Optimal);
    }
}

/// `knapsack(46)`: the root, 100 branch re-solves (fix an item down, give it
/// its box back), then two cut rounds each followed by twelve more re-solves
/// on the grown matrix — and the engine dropped at the end. Every engine
/// call of it runs under [`LinkChecked`], and every solve closes its books.
fn engine_ledger<E: SimplexEngine>(
    pricing: PricingRule,
    engine: fn(Accel, &DenseMatrix) -> E,
) -> String {
    let m = knapsack(46, 0.5, 7);
    let accel = gpu();
    let (mut iterations, mut optimal) = (0, 0);
    {
        let mut cfg = LpConfig::standard();
        cfg.primal.pricing = pricing;
        let factory_accel = accel.clone();
        let mut lp = LpSolver::new(StandardLp::from_instance(&m, &[]), cfg, move |a| {
            LinkChecked::new(engine(factory_accel.clone(), a), factory_accel.clone())
        });
        let mut count = |lp: &mut LpSolver<LinkChecked<E>>, sol: LpSolution| {
            iterations += sol.iterations;
            optimal += usize::from(sol.status == LpStatus::Optimal);
            lp.engine_mut().solved()
        };
        let root = lp.solve().expect("root LP");
        count(&mut lp, root);
        let mut branch = |lp: &mut LpSolver<LinkChecked<E>>, j: usize| {
            let (lb, ub) = (m.vars[j].lb, m.vars[j].ub);
            for to in [lb, ub] {
                lp.set_var_bounds(j, lb, to).expect("structural column");
                let sol = lp.resolve().expect("warm resolve");
                // The dual run, the re-install and the polish: one chain.
                assert_eq!(count(lp, sol), 1, "a warm re-solve's read-backs");
            }
        };
        for k in 0..50 {
            branch(&mut lp, (7 * k) % m.num_vars());
        }
        for (cut, rhs) in [
            (vec![(0, 1.0), (1, 1.0)], 1.0),
            (vec![(2, 1.0), (3, 1.0), (4, 1.0)], 2.0),
        ] {
            lp.add_cut(&cut, rhs).expect("cut");
            branch(&mut lp, 0);
            for k in 0..5 {
                branch(&mut lp, (11 * k + 3) % m.num_vars());
            }
        }
        // The run covers what the rule is about: warm installs, both cuts,
        // pivots, and Devex-priced iterations exactly when Devex prices.
        let [installs, cuts, selects, steps, devex] = lp.engine().seen;
        assert!(
            installs > 125 && steps > 100 && selects > steps,
            "{installs} installs, {selects} selects, {steps} steps"
        );
        assert_eq!(cuts, 2);
        // Only the first install and the first after each cut upload.
        assert_eq!(lp.engine().uploads, 1 + cuts);
        assert_eq!(
            devex > 0,
            pricing == PricingRule::Devex,
            "{devex} Devex-priced iterations"
        );
    }
    format!(
        "optimal={optimal} iters={iterations} {}",
        ledger_pin(&accel)
    )
}

#[test]
fn dense_and_csr_engines_root_branch_cut() {
    let dense = |a: Accel, m: &DenseMatrix| DeviceEngine::new(a, m).expect("dense upload");
    let sparse = |a: Accel, m: &DenseMatrix| SparseDeviceEngine::new(a, m).expect("csr upload");
    let got = [
        engine_ledger(PricingRule::Dantzig, dense),
        engine_ledger(PricingRule::Dantzig, sparse),
        engine_ledger(PricingRule::Devex, dense),
        engine_ledger(PricingRule::Devex, sparse),
    ];
    assert_eq!(
        got,
        [
            "optimal=125 iters=146 peak=4640 allocs=2713 used=0 launches=272 h2d=6/7272 d2h=126/13744 ns=414ab175b97531b0",
            "optimal=125 iters=146 peak=4344 allocs=2461 used=0 launches=272 h2d=6/6984 d2h=126/13744 ns=414ab1eddd27d2a8",
            "optimal=125 iters=145 peak=4640 allocs=2594 used=0 launches=271 h2d=6/7272 d2h=126/13704 ns=414aa196af37c0fd",
            "optimal=125 iters=145 peak=4344 allocs=2342 used=0 launches=271 h2d=6/6984 d2h=126/13704 ns=414aa212eac4ac64",
        ]
    );
}

/// The link rule on the wave side: sixteen lanes replay the journals of
/// sixteen different `bin_packing(5)` node LPs, fused by the state they are
/// in, and no superstep crosses the link more than once in each direction,
/// however many lanes transfer in it.
#[test]
fn a_superstep_crosses_the_link_at_most_once_each_way() {
    let m = bin_packing(5, 1.0, 3);
    let std = StandardLp::from_instance(&m, &[]);
    let mut ext = None;
    let mut lp = LpSolver::new(std, LpConfig::standard(), |a: &DenseMatrix| {
        ext = Some(a.clone());
        RecordingEngine::new(a.clone())
    });
    lp.solve().expect("root LP");
    let root_ops = lp.engine_mut().take_ops();
    let accel = gpu();
    let ext = ext.expect("engine factory ran");
    let mut wave = BatchedWaveEngine::new(accel.clone(), &ext, 16).expect("wave");
    let (mut lane_transfers, mut staged) = (0, 0);
    for slot in 0..16 {
        // Lane `slot` fixes variable `slot` up or down: sixteen warm
        // re-solves of different lengths, the first behind the root journal.
        lp.apply_node_bounds(&[BoundChange {
            var: slot,
            lb: (slot % 2) as f64,
            ub: (slot % 2) as f64,
        }])
        .expect("structural column");
        lp.resolve().expect("node LP");
        let mut ops = lp.engine_mut().take_ops();
        if slot == 0 {
            ops.splice(0..0, root_ops.iter().copied());
        }
        lane_transfers += ops
            .iter()
            .filter(|op| matches!(op, WaveOp::Transfer { .. }))
            .count();
        wave.load_lane(slot, ops);
    }
    let mut supersteps = 0;
    while wave.any_busy() {
        let ((), grew) = crossing(&accel, "superstep", || {
            wave.superstep();
        });
        staged += grew.link[0] + grew.link[1];
        supersteps += 1;
    }
    // The rule had something to pack: far more lane transfers than
    // crossings (19 in 6; a warm install journals no transfer).
    assert!(supersteps > 50 && staged > 0);
    assert!(
        lane_transfers as u64 >= 3 * staged,
        "{lane_transfers} lane transfers in {staged} crossings"
    );
}

/// Two `new_on_stream` engines on one device, as `solve_concurrent` runs
/// them: their allocations interleave on one `DeviceMemory`.
#[test]
fn two_engines_share_one_device() {
    let accel = gpu();
    let cfg = WaveConfig {
        lanes: 2,
        ..Default::default()
    };
    let r =
        solve_concurrent(&bin_packing(5, 1.0, 3), &cfg, accel.clone()).expect("concurrent solve");
    assert_eq!(
        format!(
            "obj={:016x} nodes={} waves={} {}",
            r.objective.to_bits(),
            r.nodes,
            r.supersteps,
            ledger_pin(&accel)
        ),
        "obj=4008000000000000 nodes=613 waves=307 peak=16280 allocs=15658 used=0 launches=1637 h2d=4/11440 d2h=614/117480 ns=416ef203b1c71c5e"
    );
}

/// Four ranks, each with a device of its own; the cluster merges their
/// ledgers (the peak gauge by maximum, the totals by sum).
#[test]
fn four_rank_cluster() {
    let r = solve_parallel(
        &knapsack(46, 0.5, 7),
        ParallelConfig {
            workers: 4,
            gpu_mem: 1 << 26,
            ..Default::default()
        },
    )
    .expect("flat solve");
    let m = &r.stats.metrics;
    assert_eq!(
        format!(
            "obj={:016x} nodes={} peak={} launches={} h2d={} d2h={} kernel_ns={:016x} \
             transfer_ns={:016x} makespan={:016x}",
            r.objective.to_bits(),
            r.stats.nodes,
            m.gauge("gpu.mem.peak_bytes"),
            m.counter("gpu.kernel.launches"),
            m.counter("gpu.h2d.bytes"),
            m.counter("gpu.d2h.bytes"),
            m.counter("gpu.kernel.ns").to_bits(),
            m.counter("gpu.transfer.ns").to_bits(),
            r.stats.makespan_ns.to_bits(),
        ),
        "obj=409aec0000000000 nodes=1295 peak=3672 launches=2914 h2d=9344 d2h=152048 kernel_ns=41763dae9e4b1b48 transfer_ns=4168e5c12aaaaa9a makespan=4163dec96e147ce9"
    );
}
