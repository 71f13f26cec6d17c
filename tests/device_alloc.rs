//! Simulating the device must not cost a `malloc` per operation: a warm
//! `GpuDevice` charges, uploads and frees without touching the allocator, a
//! warm `LpSolver<DeviceEngine>::resolve()` allocates a small pinned number
//! of times and creates no device object at all, and the buffer pool stays
//! bounded.
//!
//! Allocations are counted per thread (the harness runs the tests of this
//! file on threads of their own), so the counts are exact and repeat.

use gmip::gpu::{Accel, DEFAULT_STREAM as S};
use gmip::linalg::DenseMatrix;
use gmip::lp::{
    DeviceEngine, LpConfig, LpResult, LpSolver, LpStatus, SimplexEngine, SparseDeviceEngine,
    StandardLp,
};
use gmip::problems::generators::knapsack;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

/// Allocations of one warm `resolve()` of the `knapsack(46)` root node that
/// moves no bound, all three in the solution read-back: the basic values'
/// copy off the device, the full point assembled from them, and its
/// structural part returned to the caller. The two basis installs allocate
/// nothing — uploads, residual, basis gather, LU and FTRAN all land in the
/// engine's resident workspace. Exact, and it repeats (9 while every kernel
/// result was a device object of its own, 54 before the device's
/// ledger/slab/pool rewrite). If a change to the LP solver moves it, re-pin
/// it; if a change to `gmip-gpu` moves it, a per-operation allocation has
/// crept back in.
const ALLOCS_PER_IDLE_RESOLVE: u64 = 3;

/// The same for a `resolve()` after a branch-and-bound child's bound move
/// (fix the fractional item down) or its undo, two pivots each: nothing
/// more, the pivots' eta columns are copied into the eta file's arena, which
/// the warm-up has grown (12 before, 81 before that).
const ALLOCS_PER_BRANCH_RESOLVE: u64 = 3;

/// `resolve()` with the heap allocations and the device objects it cost.
fn counted_resolve<E: SimplexEngine>(
    lp: &mut LpSolver<E>,
    accel: &Accel,
) -> (u64, u64, gmip::lp::LpSolution) {
    let before = accel.with(|d| d.objects_created());
    let (n, sol) = allocations_in(|| lp.resolve().expect("warm resolve"));
    (n, accel.with(|d| d.objects_created()) - before, sol)
}

/// Warm re-solves of the `knapsack(46)` root — idle, and the two moves of a
/// branch-and-bound child — create no device object on either storage;
/// `pinned` also holds their heap allocations to the constants above.
fn warm_resolves<E: SimplexEngine>(engine: fn(Accel, &DenseMatrix) -> LpResult<E>, pinned: bool) {
    let m = knapsack(46, 0.5, 7);
    let std = StandardLp::from_instance(&m, &[]);
    let accel = Accel::gpu(1);
    let mut lp = LpSolver::try_new(std, LpConfig::standard(), |a| engine(accel.clone(), a))
        .expect("device upload");
    // Warm-up: the cold solve creates the engine's workspace and sizes its
    // staging buffers, two resolves settle the solver's own scratch, and one
    // branch and its undo give the dual simplex's resident vectors (unit
    // vector, BTRAN row, tableau row) the storage of their first tenant.
    let root = lp.solve().expect("root LP");
    assert_eq!(root.status, LpStatus::Optimal);
    let j = (0..m.num_vars())
        .max_by(|&a, &b| {
            let frac = |x: f64| (x - x.round()).abs();
            frac(root.x[a]).total_cmp(&frac(root.x[b]))
        })
        .expect("knapsack has items");
    let (lb, ub) = (m.vars[j].lb, m.vars[j].ub);
    for to in [ub, ub, root.x[j].floor(), ub] {
        lp.set_var_bounds(j, lb, to).expect("structural column");
        lp.resolve().expect("warm resolve");
    }

    for i in 0..100 {
        let (n, created, sol) = counted_resolve(&mut lp, &accel);
        assert_eq!(sol.iterations, 0);
        assert_eq!(created, 0, "idle resolve {i} created device objects");
        assert!(
            !pinned || n == ALLOCS_PER_IDLE_RESOLVE,
            "idle resolve {i}: {n}"
        );
    }

    // The two moves a branch-and-bound child makes: fix the fractional item
    // down, then give it its box back.
    for i in 0..100 {
        let to = if i % 2 == 0 { root.x[j].floor() } else { ub };
        lp.set_var_bounds(j, lb, to).expect("structural column");
        let (n, created, sol) = counted_resolve(&mut lp, &accel);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(
            sol.iterations, 2,
            "branch resolve {i} took another pivot path"
        );
        assert_eq!(created, 0, "branch resolve {i} created device objects");
        assert!(
            !pinned || n == ALLOCS_PER_BRANCH_RESOLVE,
            "branch resolve {i}: {n}"
        );
    }

    // 200 resolves later the pool is still a handful of node-sized buffers.
    let largest = m.num_vars() + 2 * m.num_cons();
    assert!(accel.with(|d| d.pool_retained_bytes()) <= 16 * 8 * largest);
}

#[test]
fn warm_device_resolves_allocate_a_pinned_constant() {
    warm_resolves(DeviceEngine::new, true);
}

/// The CSR engine's sparse LU still builds its factors afresh on the host,
/// so only its device objects are held to zero.
#[test]
fn warm_sparse_device_resolves_create_no_device_object() {
    warm_resolves(SparseDeviceEngine::new, false);
}

#[test]
fn warm_device_bookkeeping_allocates_nothing() {
    let accel = Accel::gpu(1);
    let v = vec![0.5; 47];
    let p = accel.with(|d| d.vacant_vector());
    let cycle = || {
        accel.with(|d| {
            d.charge_custom(1.0e4, 8.0e4, false, S);
            d.charge_custom(1.0e4, 8.0e4, true, S);
            d.charge_transfer(64, true, S);
            let h = d.upload_vector(&v, S).unwrap();
            d.vec_mul(h, h, p, S).unwrap();
            let _ = d.vec_get([(p, 3)], S).unwrap();
            d.vacate(p).unwrap();
            d.free(h).unwrap();
            d.synchronize();
        });
        let _ = accel.stats();
        let _ = accel.elapsed_ns();
    };
    // Warm-up: first use sizes the slab's slot and free lists and the pool.
    cycle();
    let (n, ()) = allocations_in(|| (0..1000).for_each(|_| cycle()));
    assert_eq!(
        n, 0,
        "charges, uploads, frees and stats reads must not allocate"
    );
    assert_eq!(accel.stats().kernel_launches, 3 * 1001);
}

#[test]
fn pool_is_bounded_by_the_largest_vector_seen() {
    let accel = Accel::gpu(1);
    accel.with(|d| {
        // Far more simultaneous frees than the pool has slots, of mixed sizes.
        let handles: Vec<_> = (0..200)
            .map(|i| d.upload_vector(&vec![1.0; 1 + (i * 37) % 500], S).unwrap())
            .collect();
        for h in handles {
            d.free(h).unwrap();
        }
        assert!(d.pool_retained_bytes() <= 16 * 8 * 500);
        // Small requests never grow what is retained.
        let before = d.pool_retained_bytes();
        for _ in 0..100 {
            let h = d.upload_vector(&[1.0; 4], S).unwrap();
            d.free(h).unwrap();
        }
        assert_eq!(d.pool_retained_bytes(), before);
        assert_eq!(d.memory().used(), 0);
    });
}
