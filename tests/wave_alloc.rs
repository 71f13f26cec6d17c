//! The simplex wave's hot loop must not touch the allocator: a warm
//! `BatchedWaveEngine::superstep()` — the lane scan, the per-class fusion
//! lists, the staged link charges, the retired-slot list — runs in
//! engine-owned scratch sized for the full width once.
//!
//! Nor does widening the wave: one host planner serves every lane.
//!
//! Allocations are counted per thread (the harness runs the tests of this
//! file on threads of their own), so the counts are exact and repeat.

use gmip::core::{solve_batched_wave, BatchedWaveConfig};
use gmip::gpu::Accel;
use gmip::linalg::DenseMatrix;
use gmip::lp::{BatchedWaveEngine, LpConfig, LpSolver, RecordingEngine, StandardLp, WaveOp};
use gmip::problems::generators::{bin_packing, knapsack};
use gmip::trace::names;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

#[test]
fn warm_supersteps_allocate_nothing() {
    // One journaled root LP, replayed end to end over and over: lane `l`
    // gets the first `100 + 8 l` ops of that loop, so lanes run out one
    // after another while the rest keep stepping.
    let std = StandardLp::from_instance(&knapsack(30, 0.5, 3), &[]);
    let mut ext = None;
    let mut lp = LpSolver::new(std, LpConfig::standard(), |a: &DenseMatrix| {
        ext = Some(a.clone());
        RecordingEngine::new(a.clone())
    });
    lp.solve().expect("root LP");
    let journal = lp.engine_mut().take_ops();
    assert!(journal
        .iter()
        .any(|op| matches!(op, WaveOp::Transfer { .. })));
    let ext = ext.expect("engine factory ran");
    let mut wave = BatchedWaveEngine::new(Accel::gpu(1), &ext, 64).expect("wave");
    for slot in 0..64 {
        let ops = journal.iter().copied().cycle().take(100 + 8 * slot);
        wave.load_lane(slot, ops.collect());
    }

    // Warm-up: the `wave.*` counters get their registry slots.
    for _ in 0..64 {
        assert!(wave.superstep().is_empty());
    }
    let mut retired = 0;
    for step in 0..400 {
        let (n, gone) = allocations_in(|| wave.superstep().len());
        assert_eq!(n, 0, "superstep {step}");
        retired += gone;
    }
    // The measured steps covered lanes retiring and lanes sitting idle.
    assert_eq!(retired, (0..64).filter(|l| 100 + 8 * l <= 464).count());
    assert!(wave.any_busy());
    let m = wave.metrics();
    assert_eq!(m.counter(names::WAVE_SUPERSTEPS), 464.0);
    assert_eq!(m.counter(names::WAVE_RETIRES), retired as f64);
    // The lanes replay one journal in phase: a step is one fused launch or
    // one staged transfer.
    let kernel_steps = journal.iter().cycle().take(464);
    assert_eq!(
        m.counter(names::WAVE_FUSED_LAUNCHES),
        kernel_steps
            .filter(|op| matches!(op, WaveOp::Kernel { .. }))
            .count() as f64
    );
}

/// A wave lane keeps only what its device holds: one planner takes every
/// lane's pivot path, so widening the wave adds the lanes' journals, state
/// reservations and install records, not a solver, a matrix and a host
/// mirror per lane. A one-node solve at 64 lanes allocates a handful more
/// times than at one lane.
#[test]
fn wide_waves_share_one_planner() {
    let m = bin_packing(5, 1.0, 61);
    let solve = |lanes: usize| {
        let cfg = BatchedWaveConfig {
            lanes,
            node_limit: 1,
            ..Default::default()
        };
        let accel = Accel::gpu(1);
        allocations_in(|| solve_batched_wave(&m, &cfg, accel).expect("wave solve"))
    };
    let (narrow, one) = solve(1);
    let (wide, sixty_four) = solve(64);
    assert_eq!((one.width, sixty_four.width), (1, 64));
    assert_eq!((one.nodes, sixty_four.nodes), (1, 1));
    assert!(
        wide <= narrow + 16,
        "{wide} allocations at 64 lanes, {narrow} at one"
    );
}
