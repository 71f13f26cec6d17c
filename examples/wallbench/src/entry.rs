//! The single file through which the benchmark calls the program.
//!
//! One thin function per public entry point the benchmark uses, plus the
//! re-exports of the program types that cross this boundary. A refactor of
//! the workspace can read here exactly which surface the benchmark depends
//! on; nothing else under `examples/wallbench` names a `gmip` item.

use std::sync::Arc;

use gmip::core::{plan, MipSolver, Strategy};
use gmip::gpu::{Accelerator, DeviceConfig};
use gmip::lp::{LpConfig, SimplexEngine};
use gmip::serve::Service;

pub use gmip::core::{
    BatchedWaveConfig, FirstOrderWaveConfig, MipConfig, MipResult, MipStatus, WaveResult,
};
pub use gmip::gpu::{Accel, BackendKind, CostModel, DeviceStats, LaneBody, DEFAULT_STREAM};
pub use gmip::linalg::{CsrMatrix, DenseMatrix, LuFactors};
pub use gmip::lp::{
    DeviceEngine, HostEngine, LpSolution, LpSolver, LpStatus, PdhgConfig, SparseDeviceEngine,
    StandardLp,
};
pub use gmip::parallel::{
    HierResult, HierarchyConfig, ParallelConfig, ParallelResult, ThreadedResult,
};
pub use gmip::problems::generators::RandomMipConfig;
pub use gmip::problems::MipInstance;
pub use gmip::prop::{FixPropOutcome, PropOutcome, Propagator};
pub use gmip::serve::{
    Canonical, JobSpec, ServeConfig, ServeReport, SolutionPool, TenantSpec, TrafficConfig,
};
pub use gmip::trace::{names, MetricsRegistry};
pub use gmip::tree::{NodeState, SearchTree};

/// What every fallible program call returns an error as.
pub type Error = String;

fn err(e: impl std::fmt::Display) -> Error {
    e.to_string()
}

// ---- gmip-problems: generators and instance conversions ----

/// `generators::knapsack(n, 0.5, seed)`.
pub fn gen_knapsack(n: usize, seed: u64) -> MipInstance {
    gmip::problems::generators::knapsack(n, 0.5, seed)
}

/// `generators::bin_packing(items, 1.0, seed)`.
pub fn gen_bin_packing(items: usize, seed: u64) -> MipInstance {
    gmip::problems::generators::bin_packing(items, 1.0, seed)
}

/// `generators::random_mip` at density 0.3, 60 % integral.
pub fn gen_random_mip(rows: usize, cols: usize, seed: u64) -> MipInstance {
    gmip::problems::generators::random_mip(&RandomMipConfig {
        rows,
        cols,
        density: 0.3,
        integral_fraction: 0.6,
        seed,
    })
}

/// `generators::unit_commitment(generators, periods, seed)`.
pub fn gen_unit_commitment(generators: usize, periods: usize, seed: u64) -> MipInstance {
    gmip::problems::generators::unit_commitment(generators, periods, seed)
}

/// `MipInstance::to_csr`.
pub fn to_csr(m: &MipInstance) -> CsrMatrix {
    m.to_csr()
}

/// `write_mps` then `read_mps`.
pub fn mps_roundtrip(m: &MipInstance) -> Result<MipInstance, Error> {
    gmip::problems::mps::read_mps(&gmip::problems::mps::write_mps(m)).map_err(err)
}

// ---- gmip-gpu: the accelerator handle ----

/// `Accel::gpu_with` over the PCIe cost model with `mem` bytes, one stream.
pub fn gpu(mem: usize) -> Accel {
    Accel::gpu_with(DeviceConfig {
        cost: CostModel::gpu_pcie(),
        mem_capacity: mem,
        streams: 1,
    })
}

/// `Accel::with_backend`.
pub fn with_backend(accel: Accel, backend: BackendKind) -> Accel {
    accel.with_backend(backend)
}

/// One charged kernel launch through `Accel::with`.
pub fn charge_launch(accel: &Accel, flops: f64, bytes: f64) {
    accel.with(|d| d.charge_custom(flops, bytes, false, DEFAULT_STREAM));
}

/// `Accel::exec`: the executing backend behind the handle.
pub fn exec(accel: &Accel) -> Arc<dyn Accelerator> {
    accel.exec()
}

/// One `Accelerator::fused_dispatch` of `bodies` with no charges.
pub fn fused_dispatch(exec: &dyn Accelerator, bodies: &mut [LaneBody<'_>]) {
    exec.fused_dispatch("wallbench.probe", bodies, &[], DEFAULT_STREAM);
}

/// `Accel::wall_metrics`.
pub fn wall_metrics(accel: &Accel) -> MetricsRegistry {
    accel.wall_metrics()
}

// ---- gmip-core: whole solves ----

/// `MipSolver::host_baseline(..).solve()`.
pub fn solve_host(m: &MipInstance, cfg: MipConfig) -> Result<MipResult, Error> {
    MipSolver::host_baseline(m.clone(), cfg)
        .solve()
        .map_err(err)
}

/// `MipSolver::with_plan(plan(CpuOrchestrated, cfg, gpu_pcie, 1 GiB)).solve()`.
pub fn solve_planned(m: &MipInstance, cfg: MipConfig) -> Result<MipResult, Error> {
    let p = plan(
        Strategy::CpuOrchestrated,
        cfg,
        CostModel::gpu_pcie(),
        1 << 30,
    );
    MipSolver::with_plan(m.clone(), p).solve().map_err(err)
}

/// `solve_batched_wave` on a fresh 1 GiB device.
pub fn solve_wave(m: &MipInstance, cfg: &BatchedWaveConfig) -> Result<WaveResult, Error> {
    gmip::core::solve_batched_wave(m, cfg, gpu(1 << 30)).map_err(err)
}

/// `solve_first_order_wave` on a fresh 1 GiB device.
pub fn solve_first_order(m: &MipInstance, cfg: &FirstOrderWaveConfig) -> Result<WaveResult, Error> {
    gmip::core::solve_first_order_wave(m, cfg, gpu(1 << 30)).map_err(err)
}

// ---- gmip-parallel: clusters ----

/// `solve_parallel` (flat discrete-event cluster).
pub fn solve_flat(m: &MipInstance, cfg: ParallelConfig) -> Result<ParallelResult, Error> {
    gmip::parallel::solve_parallel(m, cfg).map_err(err)
}

/// `solve_hierarchical` (supervisor of supervisors).
pub fn solve_hier(
    m: &MipInstance,
    cfg: ParallelConfig,
    hier: HierarchyConfig,
) -> Result<HierResult, Error> {
    gmip::parallel::solve_hierarchical(m, cfg, hier).map_err(err)
}

/// `solve_threaded` (real OS threads).
pub fn solve_threaded(m: &MipInstance, cfg: &ParallelConfig) -> Result<ThreadedResult, Error> {
    gmip::parallel::solve_threaded(m, cfg).map_err(err)
}

// ---- gmip-serve ----

/// `traffic::generate`.
pub fn gen_traffic(cfg: &TrafficConfig) -> (Vec<TenantSpec>, Vec<JobSpec>) {
    gmip::serve::generate(cfg)
}

/// `Service::new(..).run(..)`.
pub fn serve_run(cfg: ServeConfig, tenants: Vec<TenantSpec>, jobs: Vec<JobSpec>) -> ServeReport {
    Service::new(cfg, tenants).run(jobs)
}

/// `canonicalize`.
pub fn canonicalize(m: &MipInstance) -> Canonical {
    gmip::serve::canonicalize(m)
}

/// `SolutionPool::new`.
pub fn pool_new(capacity: usize) -> SolutionPool {
    SolutionPool::new(capacity)
}

/// `SolutionPool::insert` of a solved instance.
pub fn pool_insert(pool: &mut SolutionPool, canon: &Canonical, objective: f64, x: &[f64]) {
    pool.insert(canon, objective, x, 1, None);
}

/// `SolutionPool::exact`: true on a hit.
pub fn pool_exact(pool: &SolutionPool, canon: &Canonical) -> bool {
    pool.exact(canon).is_some()
}

// ---- gmip-lp: one LP on each engine family ----

/// `StandardLp::from_instance(m, &[])`.
pub fn standard_lp(m: &MipInstance) -> StandardLp {
    StandardLp::from_instance(m, &[])
}

/// `LpSolver` over a `HostEngine`.
pub fn lp_host(std: StandardLp) -> LpSolver<HostEngine> {
    LpSolver::new(std, LpConfig::standard(), |a| HostEngine::new(a.clone()))
}

/// `LpSolver` over a dense `DeviceEngine` on `accel`.
pub fn lp_device(std: StandardLp, accel: Accel) -> Result<LpSolver<DeviceEngine>, Error> {
    LpSolver::try_new(std, LpConfig::standard(), |a| DeviceEngine::new(accel, a)).map_err(err)
}

/// `LpSolver` over a `SparseDeviceEngine` on `accel`.
pub fn lp_sparse(std: StandardLp, accel: Accel) -> Result<LpSolver<SparseDeviceEngine>, Error> {
    LpSolver::try_new(std, LpConfig::standard(), |a| {
        SparseDeviceEngine::new(accel, a)
    })
    .map_err(err)
}

/// `LpSolver::solve`.
pub fn lp_solve<E: SimplexEngine>(lp: &mut LpSolver<E>) -> Result<LpSolution, Error> {
    lp.solve().map_err(err)
}

/// `LpSolver::set_var_bounds` followed by `LpSolver::resolve`.
pub fn lp_rebound_resolve<E: SimplexEngine>(
    lp: &mut LpSolver<E>,
    var: usize,
    lb: f64,
    ub: f64,
) -> Result<LpSolution, Error> {
    lp.set_var_bounds(var, lb, ub).map_err(err)?;
    lp.resolve().map_err(err)
}

// ---- gmip-prop ----

/// `Propagator::new`.
pub fn propagator(m: &MipInstance) -> Propagator {
    Propagator::new(m)
}

/// `Propagator::propagate` on a copy of the root box.
pub fn propagate_root(p: &Propagator, rounds: usize) -> PropOutcome {
    let (mut lb, mut ub) = p.node_box(&[]);
    p.propagate(&mut lb, &mut ub, rounds)
}

/// `Propagator::fix_and_propagate` from `x0` inside the root box.
pub fn dive_root(p: &Propagator, x0: &[f64], rounds: usize) -> FixPropOutcome {
    let (lb, ub) = p.node_box(&[]);
    p.fix_and_propagate(x0, &lb, &ub, 1e-6, rounds)
}

// ---- gmip-tree ----

/// `SearchTree::with_root` over unit payloads, branched until `frontier`
/// nodes are active.
pub fn tree_new(frontier: usize) -> SearchTree<()> {
    let mut tree = SearchTree::with_root((), 64);
    while tree.active_ids().len() < frontier {
        let id = tree.active_ids()[0];
        tree.begin_evaluation(id);
        tree.branch(id, 0.0, [(String::new(), ()), (String::new(), ())]);
    }
    tree
}

/// One node lifecycle on the middle of the frontier: `begin_evaluation`,
/// `branch` into two children, then `begin_evaluation` + `settle(Pruned)`
/// of the first child. The frontier keeps its size.
pub fn tree_cycle(tree: &mut SearchTree<()>) {
    let id = tree.active_ids()[tree.active_ids().len() / 2];
    tree.begin_evaluation(id);
    let kids = tree.branch(id, 0.0, [(String::new(), ()), (String::new(), ())]);
    tree.begin_evaluation(kids[0]);
    tree.settle(kids[0], NodeState::Pruned, 0.0);
}

// ---- gmip-linalg ----

/// `CsrMatrix::matvec_into`.
pub fn spmv(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    a.matvec_into(x, y).expect("probe vectors match the matrix");
}

/// `CsrMatrix::matvec_transposed_into`.
pub fn spmv_t(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    a.matvec_transposed_into(x, y)
        .expect("probe vectors match the matrix");
}

/// `LuFactors::factorize`.
pub fn lu_factor(a: &DenseMatrix) -> Result<LuFactors, Error> {
    LuFactors::factorize(a).map_err(err)
}

/// `LuFactors::solve`.
pub fn lu_solve(f: &LuFactors, b: &[f64]) -> Result<Vec<f64>, Error> {
    f.solve(b).map_err(err)
}

// ---- gmip-trace ----

/// Runs `f` under an active `TraceSession`; returns its result and the
/// number of events the session recorded.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let session = gmip::trace::TraceSession::start();
    let out = f();
    (out, session.finish().len())
}
