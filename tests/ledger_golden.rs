//! Golden pins for the *modelled* device ledger under the simplex engines.
//!
//! Recorded at `ccf9fe5`, the last commit where every kernel result of
//! `DeviceSimplex` was a device object of its own, created and freed per
//! call. The resident workspace that replaced them is a host economy only:
//! `DeviceMemory` must see the same `alloc` / `free` amounts in the same
//! order, so the memory high-water mark, the allocation count, the launch
//! and transfer counters and every simulated nanosecond stay where they
//! were, and an engine still leaves `mem_used() == 0` behind when dropped.

use gmip::core::{solve_concurrent, ConcurrentConfig};
use gmip::gpu::{Accel, CostModel, DeviceConfig};
use gmip::linalg::DenseMatrix;
use gmip::lp::{
    DeviceEngine, LpConfig, LpSolution, LpSolver, LpStatus, PricingRule, SimplexEngine,
    SparseDeviceEngine, StandardLp,
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

/// `knapsack(46)`: the root, 100 branch re-solves (fix an item down, give it
/// its box back), then two cut rounds each followed by twelve more re-solves
/// on the grown matrix — and the engine dropped at the end.
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
            engine(factory_accel.clone(), a)
        });
        let mut count = |sol: LpSolution| {
            iterations += sol.iterations;
            optimal += usize::from(sol.status == LpStatus::Optimal);
        };
        count(lp.solve().expect("root LP"));
        let mut branch = |lp: &mut LpSolver<E>, j: usize| {
            let (lb, ub) = (m.vars[j].lb, m.vars[j].ub);
            for to in [lb, ub] {
                lp.set_var_bounds(j, lb, to).expect("structural column");
                count(lp.resolve().expect("warm resolve"));
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
            "optimal=125 iters=146 peak=3440 allocs=4436 used=0 launches=3123 h2d=2635/402848 d2h=870/13744 ns=418ca4b6a6789a13",
            "optimal=125 iters=146 peak=3144 allocs=4184 used=0 launches=2871 h2d=2633/402560 d2h=870/13744 ns=418bac3528b3c42e",
            "optimal=125 iters=145 peak=3440 allocs=4317 used=0 launches=3020 h2d=2649/402960 d2h=906/14008 ns=418c7d26cb2a186d",
            "optimal=125 iters=145 peak=3144 allocs=4065 used=0 launches=2768 h2d=2647/402672 d2h=906/14008 ns=418b84a58ee2e72f",
        ]
    );
}

/// Two `new_on_stream` engines on one device, as `solve_concurrent` runs
/// them: their allocations interleave on one `DeviceMemory`.
#[test]
fn two_engines_share_one_device() {
    let accel = gpu();
    let cfg = ConcurrentConfig {
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
            r.waves,
            ledger_pin(&accel)
        ),
        "obj=4008000000000000 nodes=1113 waves=557 peak=13880 allocs=45554 used=0 launches=39655 h2d=26933/3439960 d2h=12395/238808 ns=41be3b79a2fa5436"
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
        "obj=409aec0000000000 nodes=1295 peak=2520 launches=34532 h2d=4126616 d2h=152104 kernel_ns=41b077751b1eb72a transfer_ns=41b742fec0000124 makespan=41a48d5128f5c208"
    );
}
