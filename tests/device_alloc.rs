//! Simulating the device must not cost a `malloc` per operation: a warm
//! `GpuDevice` charges, uploads and frees without touching the allocator, a
//! warm `LpSolver<DeviceEngine>::resolve()` allocates a small pinned number
//! of times, and the buffer pool that makes this possible stays bounded.
//!
//! Allocations are counted per thread (the harness runs the tests of this
//! file on threads of their own), so the counts are exact and repeat.

use gmip::gpu::{Accel, DEFAULT_STREAM as S};
use gmip::lp::{DeviceEngine, LpConfig, LpSolver, LpStatus, StandardLp};
use gmip::problems::generators::knapsack;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

/// Allocations of one warm `resolve()` of the `knapsack(46)` root node that
/// moves no bound: two basis installs (each a gathered basis matrix and its
/// LU copy + permutation) and the solution read-back. Exact, and it repeats
/// (54 before the device's ledger/slab/pool rewrite). If a change to the LP
/// solver moves it, re-pin it; if a change to `gmip-gpu` moves it, a
/// per-operation allocation has crept back in.
const ALLOCS_PER_IDLE_RESOLVE: u64 = 9;

/// The same for a `resolve()` after a branch-and-bound child's bound move
/// (fix the fractional item down) or its undo, two pivots each: the idle
/// count plus one eta column per pivot and the eta file's first growth
/// (81 before).
const ALLOCS_PER_BRANCH_RESOLVE: u64 = 12;

#[test]
fn warm_device_resolves_allocate_a_pinned_constant() {
    let m = knapsack(46, 0.5, 7);
    let std = StandardLp::from_instance(&m, &[]);
    let accel = Accel::gpu(1);
    let mut lp = LpSolver::try_new(std, LpConfig::standard(), |a| {
        DeviceEngine::new(accel.clone(), a)
    })
    .expect("device upload");
    // Warm-up: the cold solve sizes the slab, the pool and the engine's
    // staging buffers; two resolves settle the solver's own scratch.
    let root = lp.solve().expect("root LP");
    assert_eq!(root.status, LpStatus::Optimal);
    for _ in 0..2 {
        lp.resolve().expect("warm resolve");
    }

    for i in 0..100 {
        let (n, sol) = allocations_in(|| lp.resolve().expect("warm resolve"));
        assert_eq!(sol.iterations, 0);
        assert_eq!(n, ALLOCS_PER_IDLE_RESOLVE, "idle resolve {i}");
    }

    // The two moves a branch-and-bound child makes: fix the fractional item
    // down, then give it its box back.
    let j = (0..m.num_vars())
        .max_by(|&a, &b| {
            let frac = |x: f64| (x - x.round()).abs();
            frac(root.x[a]).total_cmp(&frac(root.x[b]))
        })
        .expect("knapsack has items");
    let (lb, ub) = (m.vars[j].lb, m.vars[j].ub);
    let mut counts = Vec::new();
    for _ in 0..50 {
        for to in [root.x[j].floor(), ub] {
            lp.set_var_bounds(j, lb, to).expect("structural column");
            let (n, sol) = allocations_in(|| lp.resolve().expect("warm resolve"));
            assert_eq!(sol.status, LpStatus::Optimal);
            counts.push((n, sol.iterations));
        }
    }
    for (i, &(n, iterations)) in counts.iter().enumerate() {
        assert_eq!(iterations, 2, "branch resolve {i} took another pivot path");
        assert_eq!(n, ALLOCS_PER_BRANCH_RESOLVE, "branch resolve {i}");
    }

    // 200 resolves later the pool is still a handful of node-sized buffers.
    let largest = m.num_vars() + 2 * m.num_cons();
    assert!(accel.with(|d| d.pool_retained_bytes()) <= 16 * 8 * largest);
}

#[test]
fn warm_device_bookkeeping_allocates_nothing() {
    let accel = Accel::gpu(1);
    let v = vec![0.5; 47];
    let cycle = || {
        accel.with(|d| {
            d.charge_custom(1.0e4, 8.0e4, false, S);
            d.charge_custom(1.0e4, 8.0e4, true, S);
            d.charge_transfer(64, true, S);
            let h = d.upload_vector(&v, S).unwrap();
            let p = d.vec_mul(h, h, S).unwrap();
            let _ = d.vec_get(p, 3, S).unwrap();
            d.free_vector(p).unwrap();
            d.free_vector(h).unwrap();
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
            d.free_vector(h).unwrap();
        }
        assert!(d.pool_retained_bytes() <= 16 * 8 * 500);
        // Small requests never grow what is retained.
        let before = d.pool_retained_bytes();
        for _ in 0..100 {
            let h = d.upload_vector(&[1.0; 4], S).unwrap();
            d.free_vector(h).unwrap();
        }
        assert_eq!(d.pool_retained_bytes(), before);
        assert_eq!(d.memory().used(), 0);
    });
}
